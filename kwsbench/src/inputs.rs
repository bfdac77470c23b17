//! Seeded workload inputs over the committed GSC v2 subset.
//!
//! The seed decides everything that varies between runs: the order in
//! which clips are classified, which clips and noise slices each serving
//! stream is made of, which stream each session plays, and the phase at
//! which each session's chunks arrive. The program under test only ever
//! sees the generated audio.

use kwt_dataset::{GscV2, GscV2Error, Split, Task, CLIP_SAMPLES};
use std::path::Path;

/// Samples per ingest chunk: 100 ms at 16 kHz, the cadence a microphone
/// gateway batches at.
pub const CHUNK: usize = 1_600;

/// SplitMix64: small, seedable and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator whose whole stream is fixed by `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform index in `0..n` (`n > 0`); the modulo bias is below 2^-50
    /// for every `n` used here.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// The committed subset: every keyword clip of every split, padded to one
/// second, plus the background-noise beds.
#[derive(Debug, Clone)]
pub struct Corpus {
    /// One-second keyword clips, in loader order.
    pub clips: Vec<Vec<f32>>,
    /// Noise beds at their native length.
    pub noise: Vec<Vec<f32>>,
}

impl Corpus {
    /// Opens the tree with its manifest verified and reads every clip.
    ///
    /// # Errors
    ///
    /// Manifest drift, I/O or WAV-format failures.
    pub fn load(root: &Path) -> Result<Self, GscV2Error> {
        let ds = GscV2::open_checked(root, Task::AllKeywords)?;
        let mut clips = Vec::new();
        for split in [Split::Train, Split::Val, Split::Test] {
            for i in 0..ds.len(split) {
                clips.push(ds.clip(split, i)?.0);
            }
        }
        let noise: Vec<Vec<f32>> = ds
            .noise_bank()?
            .into_iter()
            .filter(|bed| bed.len() >= CLIP_SAMPLES)
            .collect();
        Ok(Corpus { clips, noise })
    }
}

/// A seeded permutation of the corpus clips: the order the clip workload
/// classifies them in, cycled for as long as the run lasts.
pub fn clip_order(n_clips: usize, seed: u64) -> Vec<u32> {
    let mut order: Vec<u32> = (0..n_clips as u32).collect();
    Rng::new(seed ^ 0xC11D_0DE5).shuffle(&mut order);
    order
}

/// Shape of a serving fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetSpec {
    /// Concurrent sessions.
    pub sessions: usize,
    /// Distinct streams the sessions play (each checked against its own
    /// standalone reference).
    pub pool: usize,
    /// Length of each stream in one-second segments.
    pub stream_secs: usize,
    /// Arrival phases per chunk period; sessions are spread evenly over
    /// them, so each arrival group carries `sessions / slots` chunks.
    pub slots: usize,
}

/// The generated inputs of a serving workload.
#[derive(Debug, Clone)]
pub struct Fleet {
    /// The shape this fleet was generated for.
    pub spec: FleetSpec,
    /// Stream pool: seeded concatenations of clips and noise slices.
    pub streams: Vec<Vec<f32>>,
    /// Pool stream each session starts on; a session that reaches the end
    /// of its stream reopens on the next one.
    pub first_stream: Vec<u32>,
    /// Sessions arriving in each phase slot.
    pub members: Vec<Vec<u32>>,
    /// Arrival offset of each slot within the chunk period, in samples
    /// (strictly increasing, all below [`CHUNK`]).
    pub offsets: Vec<u32>,
}

impl Fleet {
    /// Generates the fleet for `spec` from `seed`.
    ///
    /// # Panics
    ///
    /// Panics on a spec with zero sessions, pool, slots or stream length,
    /// more slots than samples per chunk, or an empty corpus.
    pub fn generate(corpus: &Corpus, spec: FleetSpec, seed: u64) -> Self {
        assert!(spec.sessions > 0 && spec.pool > 0 && spec.stream_secs > 0);
        assert!(spec.slots > 0 && spec.slots <= CHUNK && !corpus.clips.is_empty());
        let mut rng = Rng::new(seed ^ 0xF1EE_7000);
        let streams = (0..spec.pool)
            .map(|_| {
                let mut s = Vec::with_capacity(spec.stream_secs * CLIP_SAMPLES);
                for _ in 0..spec.stream_secs {
                    // one segment in four is a noise slice (when beds exist)
                    if !corpus.noise.is_empty() && rng.below(4) == 0 {
                        let bed = &corpus.noise[rng.below(corpus.noise.len())];
                        let at = rng.below(bed.len() - CLIP_SAMPLES + 1);
                        s.extend_from_slice(&bed[at..at + CLIP_SAMPLES]);
                    } else {
                        s.extend_from_slice(&corpus.clips[rng.below(corpus.clips.len())]);
                    }
                }
                s
            })
            .collect();
        let first_stream = (0..spec.sessions)
            .map(|_| rng.below(spec.pool) as u32)
            .collect();
        let mut perm: Vec<u32> = (0..spec.sessions as u32).collect();
        rng.shuffle(&mut perm);
        let mut members = vec![Vec::new(); spec.slots];
        for (i, s) in perm.into_iter().enumerate() {
            members[i % spec.slots].push(s);
        }
        for m in &mut members {
            m.sort_unstable();
        }
        // stratified jitter: one offset per equal share of the period
        let stride = CHUNK / spec.slots;
        let offsets = (0..spec.slots)
            .map(|j| (j * stride + rng.below(stride)) as u32)
            .collect();
        Fleet {
            spec,
            streams,
            first_stream,
            members,
            offsets,
        }
    }

    /// Arrival time of group `g` (the `g / slots`-th chunk of every session
    /// in slot `g % slots`), in samples of stream time.
    pub fn group_time(&self, g: u64) -> u64 {
        let slots = self.spec.slots as u64;
        (g / slots) * CHUNK as u64 + u64::from(self.offsets[(g % slots) as usize])
    }

    /// Every generated value as bytes, for reproducibility checks.
    #[cfg(test)]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for s in &self.streams {
            out.extend(s.iter().flat_map(|v| v.to_bits().to_le_bytes()));
        }
        out.extend(self.first_stream.iter().flat_map(|v| v.to_le_bytes()));
        for m in &self.members {
            out.extend(m.iter().flat_map(|v| v.to_le_bytes()));
        }
        out.extend(self.offsets.iter().flat_map(|v| v.to_le_bytes()));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus() -> Corpus {
        Corpus::load(&crate::common::data_root()).expect("committed subset loads")
    }

    const SPEC: FleetSpec = FleetSpec {
        sessions: 40,
        pool: 4,
        stream_secs: 3,
        slots: 8,
    };

    #[test]
    fn subset_loads_with_manifest_verified() {
        let c = corpus();
        assert_eq!(c.clips.len(), 120);
        assert!(c.clips.iter().all(|x| x.len() == CLIP_SAMPLES));
        assert_eq!(c.noise.len(), 3);
    }

    #[test]
    fn same_seed_gives_byte_identical_inputs() {
        let c = corpus();
        assert_eq!(clip_order(c.clips.len(), 7), clip_order(c.clips.len(), 7));
        let a = Fleet::generate(&c, SPEC, 7);
        let b = Fleet::generate(&c, SPEC, 7);
        assert_eq!(a.to_bytes(), b.to_bytes());
    }

    #[test]
    fn different_seed_changes_order_composition_and_phases() {
        let c = corpus();
        assert_ne!(clip_order(c.clips.len(), 7), clip_order(c.clips.len(), 8));
        let a = Fleet::generate(&c, SPEC, 7);
        let b = Fleet::generate(&c, SPEC, 8);
        assert_ne!(a.offsets, b.offsets);
        assert_ne!(a.members, b.members);
        assert_ne!(a.streams, b.streams);
    }

    #[test]
    fn fleet_shape_is_balanced() {
        let f = Fleet::generate(&corpus(), SPEC, 3);
        assert!(f
            .members
            .iter()
            .all(|m| m.len() == SPEC.sessions / SPEC.slots));
        assert!(f.offsets.windows(2).all(|w| w[0] < w[1]));
        assert!(f.offsets.iter().all(|&o| (o as usize) < CHUNK));
        assert!(f
            .streams
            .iter()
            .all(|s| s.len() == SPEC.stream_secs * CLIP_SAMPLES));
        // group times strictly increase, so groups arrive in order
        assert!((0..64).all(|g| f.group_time(g) < f.group_time(g + 1)));
    }
}
