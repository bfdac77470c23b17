//! The session-multiplexed ingest server.

use crate::metrics::ServeMetrics;
use crate::session::{SessionId, Slot};
use crate::{Result, ServeError};
use kwt_audio::{validate_samples, MfccExtractor, MfccScratch};
use kwt_engine::{Engine, Prediction, StreamCore, StreamDecision, StreamingConfig};
use kwt_tensor::Mat;
use std::time::Instant;

/// Sizing and smoothing knobs for [`KwsServer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Slab capacity: sessions that may be open at once; admission
    /// beyond this fails with [`ServeError::SessionsFull`].
    pub max_sessions: usize,
    /// Per-session ring capacity in samples; `0` picks
    /// `win_length + 4 * hop_length` (room for one analysis window plus
    /// four hops of arrivals between drives). Chunks that do not fit are
    /// rejected whole with [`ServeError::Backpressure`].
    pub ring_samples: usize,
    /// Classification stride and majority-vote smoothing, with the same
    /// meaning (and the same default) as a standalone
    /// [`kwt_engine::StreamingKws`].
    pub streaming: StreamingConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_sessions: 1024,
            ring_samples: 0,
            streaming: StreamingConfig::default(),
        }
    }
}

/// One delivered decision: which stream, and the same
/// [`StreamDecision`] a standalone streamer would have produced for it.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionDecision {
    /// The session the decision belongs to.
    pub session: SessionId,
    /// The sliding-window classification, bit-identical to
    /// [`kwt_engine::StreamingKws`] on the same audio.
    pub decision: StreamDecision,
}

/// Session-multiplexed KWS ingest server (see the [crate docs](crate)).
///
/// One engine, one slab, one scheduler: thousands of independent audio
/// streams are admitted into pre-allocated slots, buffered in bounded
/// rings, advanced to their next hop-aligned classification boundary,
/// and classified together in backend waves of
/// [`Engine::wave_width`] windows. Per-session results are bit-identical
/// to running each stream through its own
/// [`StreamingKws`](kwt_engine::StreamingKws); the multiplexing changes
/// *when* windows reach the backend, never *what* they compute.
pub struct KwsServer {
    engine: Engine,
    /// Front-end scratch shared by every session's [`StreamCore`].
    scratch: MfccScratch,
    slots: Vec<Slot>,
    /// Free-slot stack (indices into `slots`).
    free: Vec<u32>,
    active: usize,
    /// One analysis window of samples, assembled from a ring.
    frame_buf: Vec<f32>,
    /// One MFCC row.
    row_buf: Vec<f32>,
    /// Per-wave window staging, `wave_width` slots.
    staging: Vec<Mat<f32>>,
    /// Per-wave prediction staging, refilled in place.
    preds: Vec<Prediction>,
    /// Sessions halted at a classification boundary this round.
    ready: Vec<u32>,
    /// Round double-buffer.
    next_round: Vec<u32>,
    metrics: ServeMetrics,
}

impl KwsServer {
    /// Builds the slab and every arena up front — after this, admitting,
    /// buffering, scheduling and classifying allocate nothing (the
    /// crate's allocation-counting test proves it).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Config`] for a zero `max_sessions`, zero
    /// stride or vote window, or a ring too small to ever complete an
    /// analysis window.
    pub fn new(engine: Engine, config: ServeConfig) -> Result<Self> {
        if config.max_sessions == 0 {
            return Err(ServeError::Config {
                why: "max_sessions must be positive".into(),
            });
        }
        if config.streaming.stride_frames == 0 || config.streaming.vote_window == 0 {
            return Err(ServeError::Config {
                why: "stride_frames and vote_window must be positive".into(),
            });
        }
        let fc = engine.frontend().config();
        let (win, n_mfcc) = (fc.win_length, fc.n_mfcc);
        let ring_samples = if config.ring_samples == 0 {
            StreamCore::default_ring_samples(engine.frontend())
        } else {
            config.ring_samples
        };
        if ring_samples < win {
            return Err(ServeError::Config {
                why: format!(
                    "ring_samples {ring_samples} cannot hold one {win}-sample analysis window"
                ),
            });
        }
        let c = *engine.config();
        let width = engine.wave_width();
        let slots = (0..config.max_sessions)
            .map(|_| {
                Slot::new(StreamCore::new(
                    ring_samples,
                    c.input_time,
                    n_mfcc,
                    c.num_classes,
                    config.streaming,
                ))
            })
            .collect();
        Ok(KwsServer {
            slots,
            free: (0..config.max_sessions as u32).rev().collect(),
            active: 0,
            frame_buf: vec![0.0; win],
            row_buf: vec![0.0; n_mfcc],
            staging: (0..width)
                .map(|_| Mat::zeros(c.input_time, c.input_freq))
                .collect(),
            preds: vec![Prediction::default(); width],
            ready: Vec::with_capacity(config.max_sessions),
            next_round: Vec::with_capacity(config.max_sessions),
            metrics: ServeMetrics::default(),
            scratch: MfccScratch::new(),
            engine,
        })
    }

    /// The wrapped engine.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Lifetime counters and latency histograms.
    pub fn metrics(&self) -> &ServeMetrics {
        &self.metrics
    }

    /// Currently open sessions.
    pub fn active_sessions(&self) -> usize {
        self.active
    }

    /// Slab capacity (the admission limit).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Windows the backend can classify concurrently per wave.
    pub fn wave_width(&self) -> usize {
        self.staging.len()
    }

    /// Per-session ring capacity in samples.
    pub fn ring_samples(&self) -> usize {
        self.slots[0].core.ring().capacity()
    }

    /// Admits a new stream into a free slab slot.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::SessionsFull`] when every slot is occupied.
    pub fn open(&mut self) -> Result<SessionId> {
        let Some(index) = self.free.pop() else {
            return Err(ServeError::SessionsFull {
                capacity: self.slots.len(),
            });
        };
        let slot = &mut self.slots[index as usize];
        debug_assert!(!slot.active && slot.core.ring().is_empty() && slot.core.frames_seen() == 0);
        slot.active = true;
        self.active += 1;
        self.metrics.sessions_opened += 1;
        Ok(SessionId::new(index, slot.generation))
    }

    /// Closes a session: the slot's generation is bumped (the handle and
    /// any copies of it go stale) and the slot returns to the free pool
    /// with all its allocations intact. Samples that never completed an
    /// analysis window are dropped, like `StreamingKws::reset`.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::StaleSession`] for an unknown, closed or
    /// reused id.
    pub fn close(&mut self, id: SessionId) -> Result<()> {
        self.slot_index(id)?;
        self.slots[id.index() as usize].release();
        self.free.push(id.index());
        self.active -= 1;
        self.metrics.sessions_closed += 1;
        Ok(())
    }

    /// Buffers an audio chunk for `id`. Samples are validated first
    /// (the exact [`validate_samples`] gate the streaming front end
    /// applies), then accepted whole or rejected whole — a full ring is
    /// a typed [`ServeError::Backpressure`], never growth and never a
    /// panic, and a rejected chunk leaves the session exactly where it
    /// was. An empty chunk is a no-op.
    ///
    /// # Errors
    ///
    /// [`ServeError::StaleSession`], [`ServeError::Audio`] (non-finite
    /// samples, nothing buffered), or [`ServeError::Backpressure`].
    pub fn push(&mut self, id: SessionId, samples: &[f32]) -> Result<()> {
        let index = self.slot_index(id)?;
        validate_samples(samples)?;
        match self.slots[index].core.push(samples) {
            Ok(()) => {
                self.metrics.chunks_accepted += 1;
                self.metrics.samples_accepted += samples.len() as u64;
                Ok(())
            }
            Err(overflow) => {
                self.metrics.chunks_rejected += 1;
                self.metrics.samples_dropped += overflow.dropped as u64;
                Err(ServeError::Backpressure {
                    session: id,
                    dropped: overflow.dropped,
                    free: overflow.free,
                })
            }
        }
    }

    /// Free sample slots left in `id`'s ring — how much the caller can
    /// push before hitting backpressure.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::StaleSession`] for a dead id.
    pub fn ring_free(&self, id: SessionId) -> Result<usize> {
        Ok(self.slots[self.slot_index(id)?].core.ring().free())
    }

    /// Runs the scheduler until no session can produce another decision
    /// from its buffered audio, delivering every completed decision
    /// through `on_decision`, and returns how many were delivered.
    ///
    /// Each round: every candidate session consumes ring samples into
    /// hop-aligned MFCC frames (one shared frame kernel — the one batch
    /// extraction uses) and slides its `T x F` window until it crosses a
    /// classification boundary; all boundary-crossing windows are then
    /// classified together in backend waves of
    /// [`wave_width`](Self::wave_width), votes are updated and decisions
    /// delivered in deterministic slot order. Sessions that produced a
    /// decision re-enter the next round (a large backlog yields several
    /// decisions per drive).
    ///
    /// # Errors
    ///
    /// Propagates engine/front-end failures; decisions delivered before
    /// the failure stand, and every session keeps the progress it made
    /// (no rollback — same contract as `StreamingKws::push_with`).
    pub fn drive(&mut self, mut on_decision: impl FnMut(&SessionDecision)) -> Result<usize> {
        let started = Instant::now();
        let mut drive_cycles = 0u64;
        let mut delivered = 0usize;
        let Self {
            engine,
            scratch,
            slots,
            frame_buf,
            row_buf,
            staging,
            preds,
            ready,
            next_round,
            metrics,
            ..
        } = self;

        // Round 0: every active session is a candidate.
        ready.clear();
        for (index, slot) in slots.iter_mut().enumerate() {
            if slot.active
                && advance(
                    &mut slot.core,
                    engine.frontend(),
                    scratch,
                    frame_buf,
                    row_buf,
                    metrics,
                )?
            {
                ready.push(index as u32);
            }
        }

        while !ready.is_empty() {
            // Classify this round's boundary-crossers in fused waves.
            for chunk in ready.chunks(staging.len()) {
                let k = chunk.len();
                for (stage, &index) in staging.iter_mut().zip(chunk) {
                    stage
                        .as_mut_slice()
                        .copy_from_slice(slots[index as usize].core.window().as_slice());
                }
                engine.classify_window_wave_into(&staging[..k], &mut preds[..k])?;
                let wave_cycles = engine.last_wave_device_cycles().unwrap_or(0);
                drive_cycles += wave_cycles;
                metrics.waves += 1;
                metrics.wave_slots += k as u64;
                metrics.device_cycles += wave_cycles;
                for (pred, &index) in preds[..k].iter().zip(chunk) {
                    let slot = &mut slots[index as usize];
                    let decision = SessionDecision {
                        session: SessionId::new(index, slot.generation),
                        decision: slot.core.decide(pred),
                    };
                    metrics.decisions += 1;
                    metrics
                        .wall_latency_ns
                        .record(started.elapsed().as_nanos() as u64);
                    metrics.sim_latency_cycles.record(drive_cycles);
                    on_decision(&decision);
                    delivered += 1;
                }
            }
            // Only sessions that just classified can have another
            // boundary buffered; everyone else is already starved.
            next_round.clear();
            for &index in ready.iter() {
                let core = &mut slots[index as usize].core;
                if advance(
                    core,
                    engine.frontend(),
                    scratch,
                    frame_buf,
                    row_buf,
                    metrics,
                )? {
                    next_round.push(index);
                }
            }
            std::mem::swap(ready, next_round);
        }
        Ok(delivered)
    }

    /// Validates an id against the slab, returning the slot index.
    fn slot_index(&self, id: SessionId) -> Result<usize> {
        let index = id.index() as usize;
        match self.slots.get(index) {
            Some(slot) if slot.active && slot.generation == id.generation() => Ok(index),
            _ => Err(ServeError::StaleSession { session: id }),
        }
    }
}

impl std::fmt::Debug for KwsServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KwsServer")
            .field("engine", &self.engine)
            .field("capacity", &self.slots.len())
            .field("active", &self.active)
            .field("wave_width", &self.staging.len())
            .finish_non_exhaustive()
    }
}

/// [`StreamCore::advance`] with the frames it emits counted in
/// `metrics`, including those before a failure.
fn advance(
    core: &mut StreamCore,
    frontend: &MfccExtractor,
    scratch: &mut MfccScratch,
    frame_buf: &mut [f32],
    row_buf: &mut [f32],
    metrics: &mut ServeMetrics,
) -> Result<bool> {
    let before = core.frames_seen();
    let boundary = core.advance(frontend, scratch, frame_buf, row_buf);
    metrics.frames_emitted += core.frames_seen() - before;
    Ok(boundary?)
}
