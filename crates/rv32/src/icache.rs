//! Pre-decode execution cache: decode each instruction parcel once,
//! dispatch on the cached decoded form ever after.
//!
//! # Design
//!
//! The interpreter previously re-decoded every instruction word on every
//! [`crate::Cpu::step`] — a 16-bit fetch (with bounds and alignment
//! checks), a compressed-vs-full discrimination, and a full bit-field
//! decode, all per retired instruction. For loop-heavy inference kernels
//! the same few hundred words are decoded millions of times.
//!
//! [`DecodeCache`] is a dense side-table with one slot per RAM
//! **halfword** (the C extension allows 2-byte-aligned pcs), keyed by
//! `(pc - ram_base) / 2`. A slot holds the decoded [`Inst`] plus its
//! encoded length. `Cpu::step` consults the table first; on a miss it
//! performs the old fetch/decode and fills the slot. Traps (illegal
//! instructions, fetch faults) are never cached — the slow path re-raises
//! them with identical semantics.
//!
//! # Invalidation
//!
//! The cache must observe self-modifying code. Every architectural store
//! (`sb`/`sh`/`sw`) and every host-side write routed through
//! [`crate::Machine`]'s typed writers invalidates the slots whose
//! instruction could overlap the written bytes: an instruction starting at
//! byte `b` spans at most `[b, b + 4)`, so a write to `[addr, addr+size)`
//! clears slots for start bytes in `[addr - 2, addr + size)`. That is at
//! most `size / 2 + 2` slots — a handful of stores per store instruction,
//! cheap next to the store itself. Stores outside RAM trap before
//! reaching the cache, and slots outside the table are ignored.
//!
//! Direct writes to `cpu.mem` (the public field) bypass this bookkeeping;
//! host code that mutates memory that way must pair the write with
//! [`crate::Cpu::invalidate_decode_cache`] (or
//! [`crate::Cpu::flush_decode_cache`]) if the region could ever be
//! executed. The `Machine` typed writers do this automatically.
//!
//! # Straight-line blocks
//!
//! On top of the per-instruction slots the cache keeps **block
//! metadata** in a side array indexed by the same slot: a [`Block`]
//! starting at a pc runs up to and including the first branch, jump,
//! system, LUT or store instruction (or [`MAX_BLOCK_INSTS`]
//! instructions), and carries its instruction count, byte span and
//! summed static cost. The block's instructions themselves are read from
//! the decode slots — there is no second table of decoded instructions.
//!
//! A block is built only from slots that are already filled, i.e. from
//! instructions a previous [`crate::Cpu::step`] decoded. Blocks never
//! decode ahead, so the slot table — and with it the hit/miss counters —
//! evolves exactly as under a pure `step` loop: every instruction run
//! through a block counts as a hit, every first execution still goes
//! through `step` as a miss.
//!
//! Invalidation shares the single path above: a write drops every block
//! whose byte range overlaps it. A block spans at most
//! [`MAX_BLOCK_BYTES`], so only starts in the bounded window
//! `[addr - MAX_BLOCK_BYTES, addr + size)` need checking, and a
//! high-water mark of the furthest block end skips even that for writes
//! above all code — data stores and the per-inference input mailbox
//! writes leave blocks cached.

use crate::profile::InstClass;
use kwt_rvasm::Inst;

/// Longest straight-line block, in instructions.
pub(crate) const MAX_BLOCK_INSTS: u32 = 64;

/// Widest byte span a block can cover (every instruction at most 4
/// bytes): the backward reach of the invalidation sweep.
pub(crate) const MAX_BLOCK_BYTES: u32 = MAX_BLOCK_INSTS * 4;

/// Running hit/miss/invalidation counters for the decode cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecodeCacheStats {
    /// Steps served from the cache.
    pub hits: u64,
    /// Steps that decoded from memory (and filled the cache).
    pub misses: u64,
    /// Slots cleared by store-driven invalidation.
    pub invalidated: u64,
    /// Straight-line blocks built from filled slots.
    pub blocks_built: u64,
    /// Blocks dropped because a write overlapped them.
    pub blocks_dropped: u64,
}

/// Metadata of one straight-line block (see module docs); `insts == 0`
/// marks an empty side-array slot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Block {
    /// Summed static cost of every instruction (branches not taken).
    pub(crate) cost: u32,
    /// Instructions in the block.
    pub(crate) insts: u16,
    /// Bytes the block spans.
    pub(crate) bytes: u16,
}

/// Whether an instruction of this class ends a block: control flow,
/// system/CSR (cycle reads and profiler pushes must see exact counters),
/// LUT ops and stores (the only instructions that can change code).
fn ends_block(class: InstClass) -> bool {
    matches!(
        class,
        InstClass::Branch | InstClass::Jump | InstClass::System | InstClass::Lut | InstClass::Store
    )
}

/// Dense pc-indexed table of pre-decoded instructions (see module docs).
#[derive(Debug, Clone)]
pub(crate) struct DecodeCache {
    base: u32,
    enabled: bool,
    /// Grown lazily (powers of two up to `max_slots`) toward the highest
    /// executed pc, so a `Cpu` over a large RAM whose code sits near the
    /// base only pays for the table it uses — `Machine::load` stays cheap.
    /// A slot holds `(inst, len, class, cost)` — everything `Cpu::step`
    /// needs to charge cycles, update the class histogram and dispatch to
    /// the right functional unit without re-deriving anything.
    entries: Vec<Option<(Inst, u8, InstClass, u32)>>,
    /// Block metadata per slot, grown lazily up to `entries.len()`.
    blocks: Vec<Block>,
    /// Byte offset (from `base`) past the furthest-reaching block built
    /// since the last flush: writes at or above it cannot touch a block.
    block_end: u32,
    max_slots: usize,
    stats: DecodeCacheStats,
}

impl DecodeCache {
    /// Creates an empty cache covering `size` bytes of RAM at `base`.
    pub(crate) fn new(base: u32, size: u32) -> Self {
        DecodeCache {
            base,
            enabled: true,
            entries: Vec::new(),
            blocks: Vec::new(),
            block_end: 0,
            max_slots: (size / 2) as usize,
            stats: DecodeCacheStats::default(),
        }
    }

    /// Looks up the decoded instruction starting at `pc`, returning the
    /// instruction, its encoded length, its cycle class and its
    /// pre-computed base cycle cost (the not-taken cost for branches; the
    /// taken upgrade is applied by the executing arm exactly as on the
    /// slow path).
    #[inline]
    pub(crate) fn lookup(&mut self, pc: u32) -> Option<(Inst, u32, InstClass, u64)> {
        if !self.enabled || pc & 1 != 0 {
            return None;
        }
        let idx = (pc.wrapping_sub(self.base) >> 1) as usize;
        match self.entries.get(idx) {
            Some(&Some((inst, len, class, cost))) => {
                self.stats.hits += 1;
                Some((inst, len as u32, class, cost as u64))
            }
            _ => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Records the decoded instruction starting at `pc` with its cycle
    /// class and base cost (valid for the lifetime of the cache — a `Cpu`
    /// never changes timing model in place). Instructions whose cost
    /// exceeds the `u32` slot (only possible with an absurd custom
    /// [`crate::TimingModel`]) are simply never cached, so cycle
    /// accounting stays exact either way.
    #[inline]
    pub(crate) fn fill(&mut self, pc: u32, inst: Inst, len: u32, class: InstClass, cost: u64) {
        if !self.enabled || pc & 1 != 0 || cost > u32::MAX as u64 {
            return;
        }
        let idx = (pc.wrapping_sub(self.base) >> 1) as usize;
        if idx >= self.entries.len() && idx < self.max_slots {
            let new_len = (idx + 1).next_power_of_two().min(self.max_slots);
            self.entries.resize(new_len, None);
        }
        if let Some(slot) = self.entries.get_mut(idx) {
            *slot = Some((inst, len as u8, class, cost as u32));
        }
    }

    /// Clears every slot whose instruction could overlap the byte range
    /// `[addr, addr + size)`, and drops every block overlapping it.
    #[inline]
    pub(crate) fn invalidate(&mut self, addr: u32, size: u32) {
        if self.entries.is_empty() {
            return;
        }
        let base = self.base as i64;
        let lo_byte = addr as i64 - base;
        let hi_byte = lo_byte + size as i64 - 1;
        if hi_byte < 0 {
            return;
        }
        // Instructions are at most 4 bytes, so start bytes down to
        // `addr - 2` (the previous halfword) can cover the written range.
        let lo = ((lo_byte - 2).max(0) >> 1) as usize;
        if lo >= self.entries.len() {
            return;
        }
        let hi = ((hi_byte >> 1) as usize).min(self.entries.len() - 1);
        for slot in &mut self.entries[lo..=hi] {
            if slot.take().is_some() {
                self.stats.invalidated += 1;
            }
        }
        if lo_byte < self.block_end as i64 {
            self.drop_blocks(lo_byte, hi_byte);
        }
    }

    /// Drops every block overlapping the byte offsets `[lo, hi]`: a
    /// block starting at byte `s` with span `b` overlaps iff
    /// `s <= hi && s + b > lo`, and `b <= MAX_BLOCK_BYTES` bounds the
    /// starts to check from below.
    fn drop_blocks(&mut self, lo: i64, hi: i64) {
        if self.blocks.is_empty() {
            return;
        }
        let first = ((lo - MAX_BLOCK_BYTES as i64).max(0) >> 1) as usize;
        let last = ((hi >> 1) as usize).min(self.blocks.len() - 1);
        if first > last {
            return;
        }
        for (i, block) in self.blocks[first..=last].iter_mut().enumerate() {
            let start = ((first + i) << 1) as i64;
            if block.insts != 0 && start + block.bytes as i64 > lo {
                *block = Block::default();
                self.stats.blocks_dropped += 1;
            }
        }
    }

    /// Drops every cached entry and block.
    pub(crate) fn flush(&mut self) {
        for slot in &mut self.entries {
            *slot = None;
        }
        for block in &mut self.blocks {
            *block = Block::default();
        }
        self.block_end = 0;
    }

    /// The block starting at `pc` with its slot index, building it from
    /// the filled slots on first use. `None` when `pc`'s own slot is
    /// empty (the caller steps, which decodes and fills it) — in
    /// particular always while the cache is disabled.
    #[inline]
    pub(crate) fn block(&mut self, pc: u32) -> Option<(usize, Block)> {
        if pc & 1 != 0 {
            return None;
        }
        let idx = (pc.wrapping_sub(self.base) >> 1) as usize;
        match self.blocks.get(idx) {
            Some(&b) if b.insts != 0 => Some((idx, b)),
            _ => self.build_block(idx).map(|b| (idx, b)),
        }
    }

    /// Walks filled slots from `idx` up to a block-ending instruction,
    /// the length cap or the first empty slot.
    #[cold]
    fn build_block(&mut self, idx: usize) -> Option<Block> {
        let (mut at, mut insts, mut bytes, mut cost) = (idx, 0u32, 0u32, 0u64);
        while insts < MAX_BLOCK_INSTS {
            let Some(&Some((_, len, class, c))) = self.entries.get(at) else {
                break;
            };
            insts += 1;
            bytes += len as u32;
            cost += c as u64;
            at += len as usize >> 1;
            if ends_block(class) {
                break;
            }
        }
        if insts == 0 || cost > u32::MAX as u64 {
            return None;
        }
        if self.blocks.len() < self.entries.len() {
            self.blocks.resize(self.entries.len(), Block::default());
        }
        let block = Block {
            cost: cost as u32,
            insts: insts as u16,
            bytes: bytes as u16,
        };
        self.blocks[idx] = block;
        self.block_end = self.block_end.max(((idx as u32) << 1) + bytes);
        self.stats.blocks_built += 1;
        Some(block)
    }

    /// The filled slot `idx` inside a block: instruction, length and
    /// static cost.
    ///
    /// # Panics
    ///
    /// Panics if the slot is empty — invalidation drops every block
    /// before any of its slots, so a live block's slots are all filled.
    #[inline(always)]
    pub(crate) fn block_inst(&self, idx: usize) -> (Inst, u32, u64) {
        match self.entries[idx] {
            Some((inst, len, _, cost)) => (inst, len as u32, u64::from(cost)),
            None => unreachable!("live block over an empty decode slot"),
        }
    }

    /// Summed static cost of the `n` instructions starting at slot `idx`
    /// (the cycles charged when a block stops early at a trap).
    pub(crate) fn prefix_cost(&self, mut idx: usize, n: u32) -> u64 {
        let mut cost = 0;
        for _ in 0..n {
            let (_, len, _, c) = self.entries[idx].expect("live block slot");
            cost += c as u64;
            idx += len as usize >> 1;
        }
        cost
    }

    /// Counts `n` instructions served from the cache by a block.
    #[inline(always)]
    pub(crate) fn count_hits(&mut self, n: u32) {
        self.stats.hits += n as u64;
    }

    /// Enables or disables the cache (disabling flushes it, so re-enabling
    /// starts cold).
    pub(crate) fn set_enabled(&mut self, enabled: bool) {
        if !enabled {
            self.flush();
        }
        self.enabled = enabled;
    }

    /// Whether lookups are served.
    pub(crate) fn enabled(&self) -> bool {
        self.enabled
    }

    /// Counter snapshot.
    pub(crate) fn stats(&self) -> DecodeCacheStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kwt_rvasm::Reg;

    fn nop() -> Inst {
        Inst::Addi {
            rd: Reg::Zero,
            rs1: Reg::Zero,
            imm: 0,
        }
    }

    #[test]
    fn fill_then_lookup_hits() {
        let mut c = DecodeCache::new(0x1000, 0x100);
        assert_eq!(c.lookup(0x1000), None);
        c.fill(0x1000, nop(), 4, InstClass::Alu, 1);
        assert_eq!(c.lookup(0x1000), Some((nop(), 4, InstClass::Alu, 1)));
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn odd_and_out_of_range_pcs_miss() {
        let mut c = DecodeCache::new(0x1000, 0x100);
        c.fill(0x1001, nop(), 2, InstClass::Alu, 1); // ignored
        assert_eq!(c.lookup(0x1001), None);
        assert_eq!(c.lookup(0x0FFE), None); // below base
        assert_eq!(c.lookup(0x2000), None); // beyond
    }

    #[test]
    fn invalidate_covers_prior_halfword() {
        let mut c = DecodeCache::new(0, 0x100);
        // 4-byte instruction at 0x10 covers bytes 0x10..0x14.
        c.fill(0x10, nop(), 4, InstClass::Alu, 1);
        // A byte store at 0x12 lands inside it.
        c.invalidate(0x12, 1);
        assert_eq!(c.lookup(0x10), None);
        assert_eq!(c.stats().invalidated, 1);
    }

    #[test]
    fn invalidate_is_range_clamped() {
        let mut c = DecodeCache::new(0x1000, 0x10);
        c.fill(0x1000, nop(), 4, InstClass::Alu, 1);
        c.invalidate(0x0000, 4); // far below: no panic, no effect
        c.invalidate(0xFFFF_FFF0, 4); // far above: no panic
        assert_eq!(c.lookup(0x1000), Some((nop(), 4, InstClass::Alu, 1)));
        c.invalidate(0x0FFE, 4); // straddles the base: clears slot 0
        assert_eq!(c.lookup(0x1000), None);
    }

    fn sw() -> Inst {
        Inst::Sw {
            rs2: Reg::A0,
            rs1: Reg::Sp,
            imm: 0,
        }
    }

    #[test]
    fn blocks_build_from_filled_slots_up_to_a_terminator() {
        let mut c = DecodeCache::new(0, 0x100);
        assert_eq!(c.block(0), None, "nothing decoded yet");
        c.fill(0, nop(), 4, InstClass::Alu, 1);
        c.fill(4, nop(), 4, InstClass::Alu, 1);
        c.fill(8, sw(), 4, InstClass::Store, 2);
        c.fill(12, nop(), 4, InstClass::Alu, 1);
        let block = Block {
            cost: 4,
            insts: 3,
            bytes: 12,
        };
        assert_eq!(c.block(0), Some((0, block)), "ends at the store");
        assert_eq!(c.block(0), Some((0, block)), "cached");
        assert_eq!(c.stats().blocks_built, 1);
        // a block stops at the first empty slot
        let tail = c.block(12).expect("filled slot").1;
        assert_eq!((tail.insts, tail.bytes), (1, 4));
        assert_eq!(c.stats().hits, 0, "building counts no hits");
    }

    #[test]
    fn blocks_are_capped() {
        let mut c = DecodeCache::new(0, 0x1000);
        for i in 0..2 * MAX_BLOCK_INSTS {
            c.fill(4 * i, nop(), 4, InstClass::Alu, 1);
        }
        let (_, b) = c.block(0).expect("block");
        assert_eq!(u32::from(b.insts), MAX_BLOCK_INSTS);
        assert_eq!(u32::from(b.bytes), MAX_BLOCK_BYTES);
    }

    #[test]
    fn overlapping_writes_drop_blocks_and_data_writes_do_not() {
        let mut c = DecodeCache::new(0, 0x1000);
        for i in 0..8 {
            c.fill(4 * i, nop(), 4, InstClass::Alu, 1);
        }
        c.block(0).expect("block over 0..32");
        c.block(16).expect("block over 16..32");
        // far above every block: nothing dropped, nothing swept
        c.invalidate(0x800, 64);
        assert_eq!(c.stats().blocks_dropped, 0);
        // a byte inside the last instruction hits both blocks
        c.invalidate(30, 1);
        assert_eq!(c.stats().blocks_dropped, 2);
        // the slots before the write stay filled; blocks rebuild shorter
        let (_, b) = c.block(0).expect("rebuilt");
        assert_eq!(b.insts, 7);
    }

    #[test]
    fn flush_drops_blocks() {
        let mut c = DecodeCache::new(0, 0x100);
        c.fill(0, nop(), 4, InstClass::Alu, 1);
        c.block(0).expect("block");
        c.set_enabled(false);
        assert_eq!(c.block(0), None);
    }

    #[test]
    fn disabling_flushes() {
        let mut c = DecodeCache::new(0, 0x100);
        c.fill(0, nop(), 4, InstClass::Alu, 1);
        c.set_enabled(false);
        assert!(!c.enabled());
        assert_eq!(c.lookup(0), None);
        c.set_enabled(true);
        assert_eq!(c.lookup(0), None); // cold again
    }
}
