//! Bounded, pre-allocated audio sample ring buffer with absolute stream
//! indexing.
//!
//! [`SampleRing`] is the ingest primitive of streaming keyword spotting
//! (`kwt-engine`'s `StreamCore`, run by the standalone streamer and by
//! every serving session): capacity is fixed at construction (one
//! allocation, never resized), samples are addressed by their **absolute
//! position in the stream** (sample 0 is the first ever pushed), and a
//! push that does not fit is rejected *whole* with a typed
//! [`RingOverflow`] — the ring never grows, never partially buffers a
//! chunk, and never panics on overflow.
//! That makes backpressure an explicit, testable event instead of a
//! silent reallocation.
//!
//! Consumed samples are released with [`SampleRing::discard_to`]; windowed
//! reads ([`SampleRing::copy_to`]) assemble a contiguous view across the
//! wrap point into a caller-provided slice, so a hop-aligned MFCC frame
//! can be extracted straight out of the ring with zero steady-state
//! allocation.

/// Typed overflow report: pushing `dropped` samples onto a ring with
/// `free` slots left would not fit, so the chunk was rejected whole.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RingOverflow {
    /// Samples in the rejected chunk (none of them were buffered).
    pub dropped: usize,
    /// Free slots at rejection time.
    pub free: usize,
}

/// Fixed-capacity sample ring (see the module docs).
#[derive(Debug, Clone)]
pub struct SampleRing {
    buf: Vec<f32>,
    /// Physical index of the oldest retained sample.
    head: usize,
    /// Retained sample count.
    len: usize,
    /// Absolute stream index of the oldest retained sample.
    start: u64,
}

impl SampleRing {
    /// A ring holding at most `capacity` samples, allocated once here.
    pub fn with_capacity(capacity: usize) -> Self {
        SampleRing {
            buf: vec![0.0; capacity],
            head: 0,
            len: 0,
            start: 0,
        }
    }

    /// Maximum samples the ring can hold.
    pub fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// Samples currently buffered.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Free slots remaining.
    pub fn free(&self) -> usize {
        self.buf.len() - self.len
    }

    /// Absolute stream index of the oldest retained sample.
    pub fn start(&self) -> u64 {
        self.start
    }

    /// Absolute stream index one past the newest retained sample (the
    /// total samples ever accepted, since discards only move `start`).
    pub fn end(&self) -> u64 {
        self.start + self.len as u64
    }

    /// Appends `samples`, or rejects the whole chunk when it does not
    /// fit.
    ///
    /// # Errors
    ///
    /// Returns [`RingOverflow`] when `samples.len() > self.free()`;
    /// nothing is buffered in that case.
    pub fn push(&mut self, samples: &[f32]) -> Result<(), RingOverflow> {
        if samples.len() > self.free() {
            return Err(RingOverflow {
                dropped: samples.len(),
                free: self.free(),
            });
        }
        let cap = self.buf.len();
        let tail = (self.head + self.len) % cap;
        let first = samples.len().min(cap - tail);
        self.buf[tail..tail + first].copy_from_slice(&samples[..first]);
        let rest = &samples[first..];
        self.buf[..rest.len()].copy_from_slice(rest);
        self.len += samples.len();
        Ok(())
    }

    /// Copies the `dst.len()` samples starting at absolute stream index
    /// `abs_start` into `dst`, assembling across the wrap point.
    ///
    /// # Panics
    ///
    /// Panics if the requested range is not fully retained — the caller
    /// (the streaming core) must only ask for windows it knows are buffered.
    pub fn copy_to(&self, abs_start: u64, dst: &mut [f32]) {
        assert!(
            abs_start >= self.start && abs_start + dst.len() as u64 <= self.end(),
            "window [{abs_start}, {}) outside retained [{}, {})",
            abs_start + dst.len() as u64,
            self.start,
            self.end()
        );
        let cap = self.buf.len();
        let offset = (abs_start - self.start) as usize;
        let from = (self.head + offset) % cap;
        let first = dst.len().min(cap - from);
        dst[..first].copy_from_slice(&self.buf[from..from + first]);
        let rest_len = dst.len() - first;
        dst[first..].copy_from_slice(&self.buf[..rest_len]);
    }

    /// Releases every sample before absolute index `abs` (clamped to the
    /// retained range); those positions become free for new pushes.
    pub fn discard_to(&mut self, abs: u64) {
        let abs = abs.clamp(self.start, self.end());
        let n = (abs - self.start) as usize;
        self.head = (self.head + n) % self.buf.len().max(1);
        self.len -= n;
        self.start = abs;
    }

    /// Forgets all samples *and* restarts absolute indexing at 0, keeping
    /// the allocation — the session-slot-reuse reset.
    pub fn clear_for_reuse(&mut self) {
        self.head = 0;
        self.len = 0;
        self.start = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(start: u64, n: usize) -> Vec<f32> {
        (0..n).map(|i| (start + i as u64) as f32).collect()
    }

    #[test]
    fn push_copy_discard_roundtrip_across_wrap() {
        let mut ring = SampleRing::with_capacity(16);
        let mut pushed = 0u64;
        let mut window = vec![0.0f32; 6];
        // Repeatedly push 5, read a 6-window, discard 5 — the head walks
        // around the ring many times, exercising every wrap offset.
        ring.push(&ramp(pushed, 5)).unwrap();
        pushed += 5;
        for _ in 0..50 {
            ring.push(&ramp(pushed, 5)).unwrap();
            pushed += 5;
            let at = ring.start();
            ring.copy_to(at, &mut window);
            for (i, &v) in window.iter().enumerate() {
                assert_eq!(v, (at + i as u64) as f32);
            }
            ring.discard_to(at + 5);
        }
        assert_eq!(ring.len(), 5);
    }

    #[test]
    fn overflow_rejects_whole_chunk_at_exact_boundary() {
        let mut ring = SampleRing::with_capacity(8);
        // fill to exactly capacity: fine
        ring.push(&ramp(0, 8)).unwrap();
        assert_eq!(ring.free(), 0);
        // one more sample: typed rejection, nothing buffered
        let err = ring.push(&[9.0]).unwrap_err();
        assert_eq!(
            err,
            RingOverflow {
                dropped: 1,
                free: 0
            }
        );
        assert_eq!(ring.len(), 8);
        // free 3, a 4-chunk still rejects whole (not partially)
        ring.discard_to(3);
        let err = ring.push(&ramp(8, 4)).unwrap_err();
        assert_eq!(
            err,
            RingOverflow {
                dropped: 4,
                free: 3
            }
        );
        assert_eq!(ring.end(), 8);
        // a 3-chunk fits
        ring.push(&ramp(8, 3)).unwrap();
        assert_eq!(ring.end(), 11);
        let mut all = vec![0.0f32; 8];
        ring.copy_to(3, &mut all);
        assert_eq!(all, ramp(3, 8));
    }

    #[test]
    fn clear_for_reuse_keeps_capacity_and_restarts_indexing() {
        let mut ring = SampleRing::with_capacity(8);
        ring.push(&ramp(0, 6)).unwrap();
        ring.discard_to(4);
        ring.clear_for_reuse();
        assert_eq!(ring.start(), 0);
        assert_eq!(ring.len(), 0);
        assert_eq!(ring.capacity(), 8);
        ring.push(&ramp(100, 8)).unwrap();
        let mut all = vec![0.0f32; 8];
        ring.copy_to(0, &mut all);
        assert_eq!(all, ramp(100, 8));
    }

    #[test]
    #[should_panic(expected = "outside retained")]
    fn copy_outside_retained_range_panics() {
        let mut ring = SampleRing::with_capacity(8);
        ring.push(&ramp(0, 4)).unwrap();
        let mut w = vec![0.0f32; 5];
        ring.copy_to(0, &mut w);
    }
}
