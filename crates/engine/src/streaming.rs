//! Continuous keyword spotting over a live audio stream.
//!
//! [`StreamCore`] is the one samples → frame → window → vote state
//! machine of the stack:
//!
//! 1. pushed samples land in a bounded [`SampleRing`] addressed by
//!    absolute stream index;
//! 2. as soon as the analysis window `[f * hop, f * hop + win)` is
//!    buffered, frame `f` is computed with the batch extractor's
//!    per-frame kernel ([`MfccExtractor::compute_frame_into`]), so
//!    streamed frames are bit-identical to [`MfccExtractor::extract`];
//!    samples before the next frame's start are then released;
//! 3. each new frame shifts the `T x F` model window up by one row;
//! 4. once `T` frames have accumulated, every
//!    [`StreamingConfig::stride_frames`]-th frame is a classification
//!    boundary;
//! 5. raw per-window decisions are smoothed by majority vote over the last
//!    [`StreamingConfig::vote_window`] classifications (ties break toward
//!    the class voted most recently), suppressing single-window flickers.
//!
//! The extractor, its scratch and the frame buffers are passed in rather
//! than owned, so the serving layer keeps one core per multiplexed
//! session and shares a single set of them across all sessions.
//! [`StreamingKws`] wraps one core around an [`Engine`].
//!
//! Because the window after exactly one nominal clip equals
//! `extract(clip)` bit-for-bit, the first streamed decision matches
//! [`Engine::classify`] on the same clip — the engine's property tests
//! assert this.

use crate::{Engine, EngineError, Prediction, Result};
use kwt_audio::{validate_samples, MfccExtractor, MfccScratch, RingOverflow, SampleRing};
use kwt_tensor::Mat;
use std::collections::VecDeque;

/// Sliding-window and smoothing parameters for [`StreamingKws`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamingConfig {
    /// Classify every this-many new frames once the window is full
    /// (1 = every hop).
    pub stride_frames: usize,
    /// Majority vote over this many most-recent raw classifications.
    pub vote_window: usize,
}

impl Default for StreamingConfig {
    fn default() -> Self {
        StreamingConfig {
            stride_frames: 1,
            vote_window: 5,
        }
    }
}

/// One emitted classification of the sliding window.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamDecision {
    /// Index of the newest frame in the classified window (frame numbers
    /// start at 0; the first decision fires at frame `T - 1`).
    pub frame_index: u64,
    /// Raw arg-max class of this window.
    pub class: usize,
    /// Softmax probability of `class`.
    pub score: f32,
    /// Majority-vote-smoothed class over the recent decisions.
    pub smoothed_class: usize,
}

/// Per-stream state of the samples → decision pipeline (see the module
/// docs). Everything is allocated in [`new`](Self::new); advancing,
/// deciding and resetting allocate nothing.
pub struct StreamCore {
    /// Bounded ingest ring; absolute indices are stream sample numbers.
    ring: SampleRing,
    /// Sliding `T x F` model window.
    window: Mat<f32>,
    /// MFCC frames folded into the window so far; the next frame covers
    /// stream samples `[frames_seen * hop, frames_seen * hop + win)`.
    frames_seen: u64,
    stride: u64,
    vote_window: usize,
    /// Most recent raw classes for majority smoothing.
    votes: VecDeque<usize>,
    /// Reusable per-class tally for the vote.
    counts: Vec<usize>,
}

impl StreamCore {
    /// The default ring capacity for `frontend`: one analysis window plus
    /// four hops of arrivals.
    pub fn default_ring_samples(frontend: &MfccExtractor) -> usize {
        let c = frontend.config();
        c.win_length + 4 * c.hop_length
    }

    /// A core with a `ring_samples`-sample ring, a `t_frames x n_mfcc`
    /// window and a vote over `num_classes` classes. `config` must have a
    /// positive stride and vote window. A full ring always completes a
    /// frame only if `ring_samples >= max(win, hop)`.
    pub fn new(
        ring_samples: usize,
        t_frames: usize,
        n_mfcc: usize,
        num_classes: usize,
        config: StreamingConfig,
    ) -> Self {
        StreamCore {
            ring: SampleRing::with_capacity(ring_samples),
            window: Mat::zeros(t_frames, n_mfcc),
            frames_seen: 0,
            stride: config.stride_frames as u64,
            vote_window: config.vote_window,
            votes: VecDeque::with_capacity(config.vote_window),
            counts: vec![0; num_classes],
        }
    }

    /// The ingest ring (read-only: samples enter through
    /// [`push`](Self::push)).
    pub fn ring(&self) -> &SampleRing {
        &self.ring
    }

    /// The `T x F` model window as of the last frame.
    pub fn window(&self) -> &Mat<f32> {
        &self.window
    }

    /// MFCC frames folded into the window so far.
    pub fn frames_seen(&self) -> u64 {
        self.frames_seen
    }

    /// Buffers `samples`, or rejects the whole chunk when it does not fit
    /// the ring. Samples are not validated here.
    ///
    /// # Errors
    ///
    /// Returns [`RingOverflow`] when the chunk exceeds the free space;
    /// nothing is buffered in that case.
    pub fn push(&mut self, samples: &[f32]) -> std::result::Result<(), RingOverflow> {
        self.ring.push(samples)
    }

    /// Turns buffered samples into hop-aligned frames, sliding the window,
    /// until a classification boundary is crossed (`true`: classify
    /// [`window`](Self::window), then call [`decide`](Self::decide)) or
    /// the ring starves (`false`). `frame_buf` must hold one analysis
    /// window and `row_buf` one MFCC row of `frontend`.
    ///
    /// # Errors
    ///
    /// Propagates [`MfccExtractor::compute_frame_into`] errors, which
    /// only a buffer of the wrong length can cause.
    pub fn advance(
        &mut self,
        frontend: &MfccExtractor,
        scratch: &mut MfccScratch,
        frame_buf: &mut [f32],
        row_buf: &mut [f32],
    ) -> kwt_audio::Result<bool> {
        let c = frontend.config();
        let (win, hop) = (c.win_length as u64, c.hop_length as u64);
        let t_frames = self.window.rows() as u64;
        loop {
            let start = self.frames_seen * hop;
            if self.ring.end() < start + win {
                return Ok(false);
            }
            self.ring.copy_to(start, frame_buf);
            frontend.compute_frame_into(frame_buf, row_buf, scratch)?;
            // Shift the model window up one row and append the new frame.
            let cols = self.window.cols();
            self.window.as_mut_slice().copy_within(cols.., 0);
            let last = self.window.rows() - 1;
            self.window.row_mut(last).copy_from_slice(row_buf);
            self.frames_seen += 1;
            // Samples before the next frame's start can never be read again.
            self.ring.discard_to(self.frames_seen * hop);
            if self.frames_seen >= t_frames
                && (self.frames_seen - t_frames).is_multiple_of(self.stride)
            {
                return Ok(true);
            }
        }
    }

    /// Records the classification of the current window and returns the
    /// smoothed decision for it.
    pub fn decide(&mut self, pred: &Prediction) -> StreamDecision {
        if self.votes.len() == self.vote_window {
            self.votes.pop_front();
        }
        self.votes.push_back(pred.class);
        StreamDecision {
            frame_index: self.frames_seen - 1,
            class: pred.class,
            score: pred.score,
            smoothed_class: majority_vote(&self.votes, &mut self.counts),
        }
    }

    /// Forgets all stream state (samples, frames, votes) and restarts
    /// absolute indexing at 0, keeping every allocation. The window needs
    /// no clearing: nothing is classified before `T` frames have been
    /// appended, and `T` appends overwrite every row.
    pub fn reset(&mut self) {
        self.ring.clear_for_reuse();
        self.frames_seen = 0;
        self.votes.clear();
    }
}

impl std::fmt::Debug for StreamCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamCore")
            .field("ring_samples", &self.ring.capacity())
            .field("buffered", &self.ring.len())
            .field("frames_seen", &self.frames_seen)
            .finish_non_exhaustive()
    }
}

/// Streaming keyword spotter: one [`StreamCore`] driving an [`Engine`]
/// (see the module docs).
pub struct StreamingKws {
    engine: Engine,
    core: StreamCore,
    config: StreamingConfig,
    scratch: MfccScratch,
    /// One analysis window of samples, assembled from the ring.
    frame_buf: Vec<f32>,
    /// One MFCC row.
    row_buf: Vec<f32>,
    pred: Prediction,
}

impl StreamingKws {
    /// Wraps an engine for streaming; frames come from the engine's own
    /// extractor, so they match its batch output bit-for-bit.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Config`] for zero `stride_frames` or
    /// `vote_window`.
    pub fn new(engine: Engine, config: StreamingConfig) -> Result<Self> {
        if config.stride_frames == 0 || config.vote_window == 0 {
            return Err(EngineError::Config {
                why: "stride_frames and vote_window must be positive".into(),
            });
        }
        let c = *engine.config();
        let fe = engine.frontend();
        let win = fe.config().win_length;
        let core = StreamCore::new(
            StreamCore::default_ring_samples(fe),
            c.input_time,
            c.input_freq,
            c.num_classes,
            config,
        );
        Ok(StreamingKws {
            core,
            config,
            scratch: MfccScratch::new(),
            frame_buf: vec![0.0; win],
            row_buf: vec![0.0; c.input_freq],
            pred: Prediction::default(),
            engine,
        })
    }

    /// The wrapped engine.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Recovers the engine, dropping the stream state.
    pub fn into_engine(self) -> Engine {
        self.engine
    }

    /// MFCC frames folded into the window so far.
    pub fn frames_seen(&self) -> u64 {
        self.core.frames_seen()
    }

    /// Forgets all stream state (samples, window, votes); the engine and
    /// its arenas are kept.
    pub fn reset(&mut self) {
        self.core.reset();
    }

    /// Feeds a chunk of audio, returning every sliding-window decision it
    /// completed (often none; possibly several for large chunks).
    ///
    /// # Errors
    ///
    /// Propagates front-end and backend errors. On error the returned
    /// decisions are dropped, but the stream state (ring buffer, window,
    /// votes) keeps whatever progress was made before the failure — the
    /// chunk's samples must not be pushed again.
    pub fn push(&mut self, samples: &[f32]) -> Result<Vec<StreamDecision>> {
        let mut out = Vec::new();
        self.push_with(samples, |d| out.push(d))?;
        Ok(out)
    }

    /// [`push`](Self::push) delivering decisions through a callback — the
    /// allocation-conscious form for long-running streams. Any chunk size
    /// is accepted: the chunk is validated whole, then fed through the
    /// bounded ring in pieces that fit.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Config`] for an empty chunk and
    /// [`EngineError::Audio`] for NaN, infinite or subnormal samples, in
    /// both cases before buffering anything. Propagates backend errors;
    /// decisions completed before the failure have already been
    /// delivered to `on_decision`, and stream state keeps the progress
    /// made — there is no rollback.
    pub fn push_with(
        &mut self,
        samples: &[f32],
        mut on_decision: impl FnMut(StreamDecision),
    ) -> Result<()> {
        if samples.is_empty() {
            return Err(EngineError::Config {
                why: "empty audio chunk: push at least one sample".into(),
            });
        }
        validate_samples(samples)?;
        let Self {
            engine,
            core,
            scratch,
            frame_buf,
            row_buf,
            pred,
            ..
        } = self;
        let mut rest = samples;
        while !rest.is_empty() {
            // A full ring always completes a frame (its capacity covers a
            // window and a hop), so a starved ring has room for more.
            let (piece, tail) = rest.split_at(rest.len().min(core.ring().free()));
            debug_assert!(!piece.is_empty(), "starved ring with no free space");
            core.push(piece)
                .expect("piece sized to the ring's free space");
            rest = tail;
            while core.advance(engine.frontend(), scratch, frame_buf, row_buf)? {
                engine.classify_mfcc_into(core.window(), pred)?;
                on_decision(core.decide(pred));
            }
        }
        Ok(())
    }
}

impl std::fmt::Debug for StreamingKws {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamingKws")
            .field("engine", &self.engine)
            .field("config", &self.config)
            .field("frames_seen", &self.core.frames_seen())
            .finish_non_exhaustive()
    }
}

/// Majority class of `votes`; ties break toward the class whose latest
/// vote is most recent. `counts` is a reusable per-class tally, cleared
/// here.
fn majority_vote(votes: &VecDeque<usize>, counts: &mut [usize]) -> usize {
    counts.fill(0);
    let mut best = 0usize;
    let mut best_count = 0usize;
    for &v in votes {
        counts[v] += 1;
        // `>=` lets a later class overtake on equal count: the most
        // recently voted class wins ties.
        if counts[v] >= best_count {
            if counts[v] > best_count || v != best {
                best = v;
            }
            best_count = counts[v];
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use kwt_audio::{kwt_tiny_frontend, AudioError, MfccConfig, WindowKind};

    fn votes(v: &[usize]) -> VecDeque<usize> {
        v.iter().copied().collect()
    }

    fn tone(freq: f64, n: usize) -> Vec<f32> {
        (0..n)
            .map(|i| {
                let cycles = (i as f64 * freq / 16_000.0).fract();
                (2.0 * std::f64::consts::PI * cycles).sin() as f32
            })
            .collect()
    }

    /// A frame-level probe: with `T = 1` and stride 1 every advance is a
    /// boundary, and the window's only row is the frame just computed.
    struct FrameProbe {
        core: StreamCore,
        scratch: MfccScratch,
        frame: Vec<f32>,
        row: Vec<f32>,
    }

    impl FrameProbe {
        fn new(fe: &MfccExtractor) -> Self {
            let c = fe.config();
            FrameProbe {
                core: StreamCore::new(
                    StreamCore::default_ring_samples(fe),
                    1,
                    c.n_mfcc,
                    1,
                    StreamingConfig::default(),
                ),
                scratch: MfccScratch::new(),
                frame: vec![0.0; c.win_length],
                row: vec![0.0; c.n_mfcc],
            }
        }

        /// Pushes `chunk` in ring-sized pieces, collecting every frame.
        fn push(&mut self, fe: &MfccExtractor, mut chunk: &[f32], rows: &mut Vec<Vec<f32>>) {
            while !chunk.is_empty() {
                let n = chunk.len().min(self.core.ring().free());
                self.core.push(&chunk[..n]).unwrap();
                chunk = &chunk[n..];
                while self
                    .core
                    .advance(fe, &mut self.scratch, &mut self.frame, &mut self.row)
                    .unwrap()
                {
                    rows.push(self.core.window().row(0).to_vec());
                }
            }
        }

        /// Pushes `clip` split at `chunks` (the remainder goes last).
        fn collect(&mut self, fe: &MfccExtractor, clip: &[f32], chunks: &[usize]) -> Vec<Vec<f32>> {
            let mut rows = Vec::new();
            let mut off = 0;
            for &n in chunks {
                let end = (off + n).min(clip.len());
                self.push(fe, &clip[off..end], &mut rows);
                off = end;
            }
            self.push(fe, &clip[off..], &mut rows);
            rows
        }
    }

    #[test]
    fn majority_prefers_most_common() {
        let mut counts = vec![0; 4];
        assert_eq!(majority_vote(&votes(&[1, 2, 2, 1, 2]), &mut counts), 2);
        assert_eq!(majority_vote(&votes(&[0, 0, 3]), &mut counts), 0);
        assert_eq!(majority_vote(&votes(&[3]), &mut counts), 3);
    }

    #[test]
    fn majority_tie_breaks_toward_recent() {
        let mut counts = vec![0; 4];
        // 1 and 2 both have two votes; 2 voted last.
        assert_eq!(majority_vote(&votes(&[1, 2, 1, 2]), &mut counts), 2);
        assert_eq!(majority_vote(&votes(&[2, 1, 2, 1]), &mut counts), 1);
    }

    #[test]
    fn streaming_matches_batch_bit_exactly() {
        let fe = kwt_tiny_frontend().unwrap();
        let clip = tone(523.0, 16_000);
        let batch = fe.extract(&clip).unwrap();
        for chunks in [
            vec![16_000],
            vec![1; 0], // everything in the tail push
            vec![100, 1_000, 7, 600, 8_000],
            vec![1_601; 9],
        ] {
            let rows = FrameProbe::new(&fe).collect(&fe, &clip, &chunks);
            assert_eq!(rows.len(), batch.rows(), "chunks {chunks:?}");
            for (t, row) in rows.iter().enumerate() {
                for (a, b) in row.iter().zip(batch.row(t)) {
                    assert_eq!(a.to_bits(), b.to_bits(), "frame {t}");
                }
            }
        }
    }

    #[test]
    fn buffer_stays_bounded() {
        let fe = kwt_tiny_frontend().unwrap();
        let win = fe.config().win_length;
        let mut probe = FrameProbe::new(&fe);
        let capacity = probe.core.ring().capacity();
        let chunk = tone(300.0, 160);
        let mut rows = Vec::new();
        for _ in 0..2_000 {
            probe.push(&fe, &chunk, &mut rows);
        }
        let ring = probe.core.ring();
        assert_eq!(ring.capacity(), capacity, "the ring never grows");
        assert!(ring.len() < win, "a starved ring holds under one window");
        assert_eq!(ring.end(), 2_000 * 160);
        assert!(probe.core.frames_seen() > 500);
        assert_eq!(rows.len() as u64, probe.core.frames_seen());
    }

    #[test]
    fn hop_larger_than_window_drops_gap_samples() {
        // hop > win: samples between windows are consumed and discarded.
        let cfg = MfccConfig {
            n_fft: 256,
            win_length: 200,
            hop_length: 300,
            n_mels: 10,
            n_mfcc: 8,
            window: WindowKind::Hann,
            clip_samples: 4_000,
            ..MfccConfig::default()
        };
        let clip = tone(700.0, 4_000);
        let fe = MfccExtractor::new(cfg).unwrap();
        let batch = fe.extract(&clip).unwrap();
        let rows = FrameProbe::new(&fe).collect(&fe, &clip, &[37; 200]);
        assert_eq!(rows.len(), batch.rows());
        for (t, row) in rows.iter().enumerate() {
            assert_eq!(row.as_slice(), batch.row(t), "frame {t}");
        }
    }

    #[test]
    fn invalid_samples_rejected_without_buffering() {
        let params = kwt_model::KwtParams::init(kwt_model::KwtConfig::kwt_tiny(), 1).unwrap();
        let engine = Engine::host_float(params, kwt_tiny_frontend().unwrap()).unwrap();
        let mut kws = StreamingKws::new(engine, StreamingConfig::default()).unwrap();
        kws.push(&tone(440.0, 500)).unwrap();
        let before = kws.core.ring().end();
        for (bad, why) in [
            (f32::NAN, "NaN"),
            (f32::INFINITY, "infinite"),
            (f32::NEG_INFINITY, "infinite"),
            (f32::MIN_POSITIVE / 2.0, "subnormal"),
        ] {
            let chunk = [0.25, bad, 0.5];
            let err = kws.push(&chunk).unwrap_err();
            assert!(
                matches!(err, EngineError::Audio(e) if e == AudioError::InvalidSample { index: 1, why }),
                "{why}"
            );
            assert_eq!(
                kws.core.ring().end(),
                before,
                "rejected chunk must not be buffered"
            );
        }
        assert!(matches!(kws.push(&[]), Err(EngineError::Config { .. })));
        // signed zeros and ordinary samples still flow
        kws.push(&[0.0, -0.0, 1.0e-30_f32]).unwrap();
        assert_eq!(kws.core.ring().end(), before + 3);
    }

    #[test]
    fn reset_restarts_the_stream() {
        let fe = kwt_tiny_frontend().unwrap();
        let clip = tone(440.0, 8_000);
        let mut probe = FrameProbe::new(&fe);
        let first = probe.collect(&fe, &clip, &[999; 9]);
        probe.core.reset();
        assert_eq!(probe.core.frames_seen(), 0);
        assert_eq!(probe.core.ring().end(), 0);
        let second = probe.collect(&fe, &clip, &[4_000, 4_000]);
        assert_eq!(first, second);
    }
}
