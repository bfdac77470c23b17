//! The simulated RAM.

use crate::Trap;

/// Flat little-endian RAM with bounds and alignment checking.
#[derive(Debug, Clone)]
pub struct Memory {
    base: u32,
    bytes: Vec<u8>,
}

impl Memory {
    /// Allocates zeroed RAM.
    pub fn new(base: u32, size: u32) -> Self {
        Memory {
            base,
            bytes: vec![0; size as usize],
        }
    }

    /// RAM base address.
    pub fn base(&self) -> u32 {
        self.base
    }

    /// RAM size in bytes.
    pub fn size(&self) -> u32 {
        self.bytes.len() as u32
    }

    fn offset(&self, addr: u32, size: u32, pc: u32) -> Result<usize, Trap> {
        let end = addr.wrapping_add(size);
        if addr < self.base || end > self.base + self.size() || end < addr {
            return Err(Trap::AccessOutOfBounds { addr, pc });
        }
        if size > 1 && !addr.is_multiple_of(size) {
            return Err(Trap::MisalignedAccess { addr, size, pc });
        }
        Ok((addr - self.base) as usize)
    }

    /// The `N` bytes at `addr`, bounds- and alignment-checked.
    #[inline(always)]
    fn array<const N: usize>(&self, addr: u32, pc: u32) -> Result<[u8; N], Trap> {
        let o = self.offset(addr, N as u32, pc)?;
        Ok(self.bytes[o..o + N]
            .try_into()
            .expect("offset checked the range"))
    }

    /// Loads a byte.
    pub fn load8(&self, addr: u32, pc: u32) -> Result<u8, Trap> {
        self.array::<1>(addr, pc).map(|[b]| b)
    }

    /// Loads a little-endian halfword (2-byte aligned).
    pub fn load16(&self, addr: u32, pc: u32) -> Result<u16, Trap> {
        self.array(addr, pc).map(u16::from_le_bytes)
    }

    /// Loads a little-endian word (4-byte aligned).
    pub fn load32(&self, addr: u32, pc: u32) -> Result<u32, Trap> {
        self.array(addr, pc).map(u32::from_le_bytes)
    }

    /// Fetches an instruction parcel (16-bit aligned — the C extension
    /// allows pc to be 2-byte aligned).
    pub fn fetch16(&self, pc: u32) -> Result<u16, Trap> {
        if pc < self.base || pc + 2 > self.base + self.size() || !pc.is_multiple_of(2) {
            return Err(Trap::FetchOutOfBounds { pc });
        }
        let o = (pc - self.base) as usize;
        Ok(u16::from_le_bytes([self.bytes[o], self.bytes[o + 1]]))
    }

    /// Stores a byte.
    pub fn store8(&mut self, addr: u32, value: u8, pc: u32) -> Result<(), Trap> {
        let o = self.offset(addr, 1, pc)?;
        self.bytes[o] = value;
        Ok(())
    }

    /// Stores a halfword.
    pub fn store16(&mut self, addr: u32, value: u16, pc: u32) -> Result<(), Trap> {
        let o = self.offset(addr, 2, pc)?;
        self.bytes[o..o + 2].copy_from_slice(&value.to_le_bytes());
        Ok(())
    }

    /// Stores a word.
    pub fn store32(&mut self, addr: u32, value: u32, pc: u32) -> Result<(), Trap> {
        let o = self.offset(addr, 4, pc)?;
        self.bytes[o..o + 4].copy_from_slice(&value.to_le_bytes());
        Ok(())
    }

    /// Host-side bulk write (program loading, test inputs).
    ///
    /// # Panics
    ///
    /// Panics if the range falls outside RAM.
    pub fn write_bytes(&mut self, addr: u32, data: &[u8]) {
        let o = (addr - self.base) as usize;
        self.bytes[o..o + data.len()].copy_from_slice(data);
    }

    /// Host-side mutable view of `len` bytes at `addr`, for writers that
    /// fill RAM in place without a staging buffer. Like
    /// [`write_bytes`](Self::write_bytes) it bypasses decode-cache
    /// invalidation (see [`crate::Cpu::invalidate_decode_cache`]).
    ///
    /// # Panics
    ///
    /// Panics if the range falls outside RAM.
    pub(crate) fn bytes_mut(&mut self, addr: u32, len: usize) -> &mut [u8] {
        let o = (addr - self.base) as usize;
        &mut self.bytes[o..o + len]
    }

    /// Host-side bulk read (results, buffers).
    ///
    /// # Panics
    ///
    /// Panics if the range falls outside RAM.
    pub fn read_bytes(&self, addr: u32, len: usize) -> &[u8] {
        let o = (addr - self.base) as usize;
        &self.bytes[o..o + len]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_store_round_trip() {
        let mut m = Memory::new(0, 0x100);
        m.store32(0x10, 0xDEAD_BEEF, 0).unwrap();
        assert_eq!(m.load32(0x10, 0).unwrap(), 0xDEAD_BEEF);
        assert_eq!(m.load16(0x10, 0).unwrap(), 0xBEEF); // little endian
        assert_eq!(m.load8(0x13, 0).unwrap(), 0xDE);
        m.store16(0x20, 0x1234, 0).unwrap();
        m.store8(0x22, 0x56, 0).unwrap();
        assert_eq!(m.load32(0x20, 0).unwrap(), 0x0056_1234);
    }

    #[test]
    fn bounds_checked() {
        let mut m = Memory::new(0x1000, 0x100);
        assert!(matches!(
            m.load32(0x0FFF, 7),
            Err(Trap::AccessOutOfBounds {
                addr: 0x0FFF,
                pc: 7
            })
        ));
        assert!(m.load32(0x10FD, 0).is_err()); // crosses the end
        assert!(m.store8(0x1100, 0, 0).is_err());
        // wrap-around address
        assert!(m.load32(u32::MAX - 1, 0).is_err());
    }

    #[test]
    fn alignment_checked() {
        let m = Memory::new(0, 0x100);
        assert!(matches!(
            m.load32(2, 0),
            Err(Trap::MisalignedAccess { size: 4, .. })
        ));
        assert!(matches!(
            m.load16(1, 0),
            Err(Trap::MisalignedAccess { size: 2, .. })
        ));
        assert!(m.load8(3, 0).is_ok());
    }

    #[test]
    fn fetch_rules() {
        let m = Memory::new(0, 0x100);
        assert!(m.fetch16(0x10).is_ok());
        assert!(m.fetch16(0x11).is_err()); // odd pc
        assert!(m.fetch16(0x100).is_err()); // past end
    }

    #[test]
    fn bulk_io() {
        let mut m = Memory::new(0x8000, 0x100);
        m.write_bytes(0x8010, &[1, 2, 3]);
        assert_eq!(m.read_bytes(0x8010, 3), &[1, 2, 3]);
        m.bytes_mut(0x8011, 2).copy_from_slice(&[7, 8]);
        assert_eq!(m.read_bytes(0x8010, 3), &[1, 7, 8]);
    }
}
