//! The [`Engine`]: MFCC front end + one [`Backend`] behind a uniform
//! `classify` API, with a zero-allocation steady state.

use crate::backend::{Backend, BackendKind, HostFloatBackend, HostQuantBackend, Rv32SimBackend};
use crate::cluster::Rv32ClusterBackend;
use crate::{EngineError, Result};
use kwt_audio::{MfccExtractor, MfccScratch};
use kwt_baremetal::InferenceImage;
use kwt_model::{KwtConfig, KwtParams};
use kwt_quant::QuantizedKwt;
use kwt_rv32::RunResult;
use kwt_tensor::Mat;

/// One classification result.
///
/// Holds owned vectors so an instance can be reused across
/// [`Engine::classify_into`] calls without reallocating — the engine
/// clears and refills them in place.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Prediction {
    /// Arg-max class index.
    pub class: usize,
    /// Softmax probability of [`class`](Self::class).
    pub score: f32,
    /// Raw class logits.
    pub logits: Vec<f32>,
    /// Softmax probabilities (same order as `logits`).
    pub probs: Vec<f32>,
}

/// The unified inference engine: audio in, [`Prediction`] out, over any
/// [`Backend`].
///
/// ```
/// use kwt_engine::Engine;
/// use kwt_model::{KwtConfig, KwtParams};
///
/// # fn main() -> Result<(), kwt_engine::EngineError> {
/// let params = KwtParams::init(KwtConfig::kwt_tiny(), 7).unwrap();
/// let mut engine = Engine::host_float(params, kwt_audio::kwt_tiny_frontend().unwrap())?;
/// let clip = vec![0.1f32; 16_000]; // 1 s at 16 kHz
/// let pred = engine.classify(&clip)?;
/// assert!(pred.class < 2);
/// # Ok(())
/// # }
/// ```
///
/// # Scratch lifecycle
///
/// Construction allocates everything once: the backend's packed weights
/// and activation arena, the MFCC work buffers, and the logits vector.
/// `classify_into` then reuses all of them, so the host steady state
/// performs **no heap allocation** (asserted by the engine's
/// allocation-counting test). `classify` is the convenience form that
/// allocates one fresh [`Prediction`] per call.
pub struct Engine {
    frontend: MfccExtractor,
    backend: Box<dyn Backend>,
    mfcc: Mat<f32>,
    scratch: MfccScratch,
    logits: Vec<f32>,
    /// Per-slot staging reused by every wave-sharded entry point
    /// ([`classify_batch_into`](Self::classify_batch_into),
    /// [`classify_window_wave_into`](Self::classify_window_wave_into)).
    wave: WaveArena,
}

impl Engine {
    /// Wraps an arbitrary backend, validating that the front end's frame
    /// geometry matches the model's `[T, F]` input.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Config`] on a geometry mismatch.
    pub fn new(frontend: MfccExtractor, backend: Box<dyn Backend>) -> Result<Self> {
        let c = *backend.config();
        if frontend.frames_per_clip() != c.input_time || frontend.config().n_mfcc != c.input_freq {
            return Err(EngineError::Config {
                why: format!(
                    "front end produces {} frames x {} coefficients but the {} backend \
                     expects {} x {}",
                    frontend.frames_per_clip(),
                    frontend.config().n_mfcc,
                    backend.kind().as_str(),
                    c.input_time,
                    c.input_freq
                ),
            });
        }
        Ok(Engine {
            mfcc: Mat::zeros(c.input_time, c.input_freq),
            frontend,
            backend,
            scratch: MfccScratch::new(),
            logits: Vec::with_capacity(c.num_classes),
            wave: WaveArena::default(),
        })
    }

    /// Float host engine over freshly packed weights.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Config`] on a geometry mismatch.
    pub fn host_float(params: KwtParams, frontend: MfccExtractor) -> Result<Self> {
        Engine::new(frontend, Box::new(HostFloatBackend::new(params)))
    }

    /// Quantised host engine.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Config`] on a geometry mismatch.
    pub fn host_quant(qm: QuantizedKwt, frontend: MfccExtractor) -> Result<Self> {
        Engine::new(frontend, Box::new(HostQuantBackend::new(qm)))
    }

    /// Simulated-device engine over a persistent machine session.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Config`] on a geometry mismatch, or a
    /// propagated device error if the image does not fit the platform.
    pub fn rv32_sim(image: &InferenceImage, frontend: MfccExtractor) -> Result<Self> {
        Engine::new(frontend, Box::new(Rv32SimBackend::new(image)?))
    }

    /// Simulated-cluster engine: `harts` cores against the banked
    /// shared memory, batches sharded one clip per hart per wave
    /// ([`Backend::batch_width`]). Logits are bit-identical to
    /// [`rv32_sim`](Self::rv32_sim) for every clip; only the simulated
    /// timing (SoC cycles, bank-conflict stalls) differs.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Config`] on a geometry mismatch, or a
    /// propagated device error if the image does not fit the platform.
    pub fn rv32_cluster(
        image: &InferenceImage,
        frontend: MfccExtractor,
        harts: usize,
    ) -> Result<Self> {
        Engine::new(frontend, Box::new(Rv32ClusterBackend::new(image, harts)?))
    }

    /// Engine over a [`ResilientBackend`](crate::ResilientBackend):
    /// `primary` with bounded retry-with-recovery and an ordered
    /// failover ladder (typically `Rv32Sim → HostQuant → HostFloat`).
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Config`] on a geometry mismatch or if a
    /// fallback's model configuration differs from the primary's.
    pub fn resilient(
        primary: Box<dyn Backend>,
        fallbacks: Vec<Box<dyn Backend>>,
        rcfg: crate::ResilientConfig,
        frontend: MfccExtractor,
    ) -> Result<Self> {
        Engine::new(
            frontend,
            Box::new(crate::ResilientBackend::new(primary, fallbacks, rcfg)?),
        )
    }

    /// Which backend flavour this engine runs.
    pub fn kind(&self) -> BackendKind {
        self.backend.kind()
    }

    /// The model configuration.
    pub fn config(&self) -> &KwtConfig {
        self.backend.config()
    }

    /// The MFCC front end.
    pub fn frontend(&self) -> &MfccExtractor {
        &self.frontend
    }

    /// Simulator statistics of the most recent inference
    /// ([`BackendKind::Rv32Sim`] only).
    pub fn last_device_run(&self) -> Option<RunResult> {
        self.backend.last_device_run()
    }

    /// Simulated device cycles of the most recent wave — the SoC finish
    /// time for [`BackendKind::Rv32Cluster`], the run's cycles for
    /// [`BackendKind::Rv32Sim`], `None` on host backends. The serving
    /// layer sums this per wave for deterministic throughput and
    /// queueing-latency accounting.
    pub fn last_wave_device_cycles(&self) -> Option<u64> {
        self.backend.wave_device_cycles()
    }

    /// Clips the backend can run concurrently in one wave (harts for the
    /// simulated cluster, 1 everywhere else) — the natural chunk size for
    /// [`classify_window_wave_into`](Self::classify_window_wave_into).
    pub fn wave_width(&self) -> usize {
        self.backend.batch_width().max(1)
    }

    /// Quantisation statistics of the most recent inference
    /// ([`BackendKind::HostQuant`] only).
    pub fn last_quant_stats(&self) -> Option<kwt_tensor::qops::QuantStats> {
        self.backend.last_quant_stats()
    }

    /// Resilience counters (traps seen, recoveries, failovers, budget
    /// kills) — `Some` only when the engine wraps a
    /// [`ResilientBackend`](crate::ResilientBackend)
    /// ([`resilient`](Self::resilient)).
    pub fn fault_stats(&self) -> Option<crate::FaultStats> {
        self.backend.fault_stats()
    }

    /// Health of the primary backend — `Some` only for
    /// [`resilient`](Self::resilient) engines.
    pub fn backend_health(&self) -> Option<crate::BackendHealth> {
        self.backend.health()
    }

    /// Re-arms the backend after a device fault, repairing any static
    /// bank that no longer matches its build-time checksum. `None` for
    /// host backends (nothing to recover).
    pub fn recover(&mut self) -> Option<kwt_baremetal::RecoveryReport> {
        self.backend.recover()
    }

    /// Arms (or disarms) a per-inference simulated-cycle budget on the
    /// backend (no-op for host backends).
    pub fn set_cycle_budget(&mut self, budget: Option<u64>) {
        self.backend.set_cycle_budget(budget);
    }

    /// The wrapped backend, mutably — fault injection
    /// ([`Backend::inject_faults`]) for robustness tests and the chaos
    /// harness.
    pub fn backend_mut(&mut self) -> &mut dyn Backend {
        self.backend.as_mut()
    }

    /// Classifies one audio clip (zero-padded / truncated to the front
    /// end's nominal clip length).
    ///
    /// # Errors
    ///
    /// Propagates front-end and backend errors.
    pub fn classify(&mut self, samples: &[f32]) -> Result<Prediction> {
        let mut out = Prediction::default();
        self.classify_into(samples, &mut out)?;
        Ok(out)
    }

    /// [`classify`](Self::classify) into a reusable [`Prediction`] — the
    /// allocation-free steady-state form. Every backend receives the
    /// front end's float features; an A8 device quantises them to `i8`
    /// in its session's input path.
    ///
    /// # Errors
    ///
    /// Same contract as [`classify`](Self::classify).
    pub fn classify_into(&mut self, samples: &[f32], out: &mut Prediction) -> Result<()> {
        self.frontend
            .extract_padded_into(samples, &mut self.mfcc, &mut self.scratch)?;
        infer_prediction(self.backend.as_mut(), &self.mfcc, &mut self.logits, out)
    }

    /// Classifies an already-extracted `T x F` MFCC spectrogram.
    ///
    /// # Errors
    ///
    /// Propagates backend errors (including input-shape mismatches).
    pub fn classify_mfcc(&mut self, mfcc: &Mat<f32>) -> Result<Prediction> {
        let mut out = Prediction::default();
        self.classify_mfcc_into(mfcc, &mut out)?;
        Ok(out)
    }

    /// [`classify_mfcc`](Self::classify_mfcc) into a reusable
    /// [`Prediction`].
    ///
    /// # Errors
    ///
    /// Same contract as [`classify_mfcc`](Self::classify_mfcc).
    pub fn classify_mfcc_into(&mut self, mfcc: &Mat<f32>, out: &mut Prediction) -> Result<()> {
        infer_prediction(self.backend.as_mut(), mfcc, &mut self.logits, out)
    }

    /// Classifies a wave of already-extracted `T x F` windows — the
    /// multi-session serving entry point. The scheduler stages one
    /// window per ready session; the engine shards them across the
    /// backend in chunks of [`wave_width`](Self::wave_width), reusing an
    /// engine-owned logits arena, so the steady state allocates nothing.
    ///
    /// Results are bit-identical to calling
    /// [`classify_mfcc_into`](Self::classify_mfcc_into) per window, in
    /// order — [`Backend::infer_wave`]'s contract guarantees it (its
    /// default *is* that serial loop, and the cluster's wave path is
    /// proven logit-identical to the serial device). Only the simulated
    /// *timing* differs: after each call,
    /// [`last_wave_device_cycles`](Self::last_wave_device_cycles)
    /// reports the final chunk's SoC cost, so callers wanting per-wave
    /// cycle accounting should pass at most `wave_width` windows per
    /// call.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Config`] when `out.len() !=
    /// windows.len()`; propagates backend errors, after which the
    /// contents of `out` are unspecified.
    pub fn classify_window_wave_into(
        &mut self,
        windows: &[Mat<f32>],
        out: &mut [Prediction],
    ) -> Result<()> {
        if out.len() != windows.len() {
            return Err(EngineError::Config {
                why: format!(
                    "wave output length {} does not match window count {}",
                    out.len(),
                    windows.len()
                ),
            });
        }
        let width = self.wave_width();
        for (chunk, preds) in windows.chunks(width).zip(out.chunks_mut(width)) {
            infer_wave_predictions(self.backend.as_mut(), chunk, &mut self.wave.logits, preds)?;
        }
        Ok(())
    }

    /// Classifies a batch of clips, one [`Prediction`] per clip, reusing
    /// the engine's arenas across the whole batch.
    ///
    /// # Errors
    ///
    /// Fails on the first clip that fails; earlier results are discarded.
    pub fn classify_batch(&mut self, clips: &[impl AsRef<[f32]>]) -> Result<Vec<Prediction>> {
        let mut out = Vec::new();
        self.classify_batch_into(clips, &mut out)?;
        Ok(out)
    }

    /// [`classify_batch`](Self::classify_batch) into a reusable output
    /// vector: existing [`Prediction`]s (and their buffers) are refilled
    /// in place, so re-running batches of the same size allocates nothing
    /// on the host backends.
    ///
    /// The batch runs as waves of up to [`wave_width`](Self::wave_width)
    /// clips through [`Backend::infer_wave`]: one clip at a time on a
    /// serial backend, one clip per hart on the simulated cluster.
    /// Either way the logits equal the serial loop's (the wave contract
    /// guarantees it); on the cluster the simulated cost is the *SoC*
    /// timeline, not the sum of per-clip runs.
    ///
    /// # Errors
    ///
    /// Same contract as [`classify_batch`](Self::classify_batch).
    pub fn classify_batch_into(
        &mut self,
        clips: &[impl AsRef<[f32]>],
        out: &mut Vec<Prediction>,
    ) -> Result<()> {
        out.resize_with(clips.len(), Prediction::default);
        self.wave.classify_clips(
            &self.frontend,
            &mut self.scratch,
            self.backend.as_mut(),
            clips,
            out,
        )
    }
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("backend", &self.backend.kind())
            .field("config", self.backend.config())
            .finish_non_exhaustive()
    }
}

/// Shared tail of every classify path: infer, softmax, arg-max — all into
/// caller/engine-owned buffers.
fn infer_prediction(
    backend: &mut dyn Backend,
    mfcc: &Mat<f32>,
    logits: &mut Vec<f32>,
    out: &mut Prediction,
) -> Result<()> {
    backend.infer_into(mfcc, logits)?;
    finish_prediction(logits, out)
}

/// The wave twin of [`infer_prediction`], shared by every wave-sharded
/// entry point: one [`Backend::infer_wave`] over at most
/// [`Backend::batch_width`] windows into the reused per-slot `logits`,
/// then one finished prediction per window.
fn infer_wave_predictions(
    backend: &mut dyn Backend,
    windows: &[Mat<f32>],
    logits: &mut Vec<Vec<f32>>,
    out: &mut [Prediction],
) -> Result<()> {
    let k = windows.len();
    if logits.len() < k {
        logits.resize_with(k, Vec::new);
    }
    backend.infer_wave(windows, &mut logits[..k])?;
    for (l, pred) in logits[..k].iter().zip(out.iter_mut()) {
        finish_prediction(l, pred)?;
    }
    Ok(())
}

/// Per-slot staging for the wave-sharded entry points: one feature
/// matrix and one logits vector per clip of a wave, grown once and then
/// reused.
#[derive(Default)]
struct WaveArena {
    mfcc: Vec<Mat<f32>>,
    logits: Vec<Vec<f32>>,
}

impl WaveArena {
    /// The one batch loop: extract up to [`Backend::batch_width`] clips
    /// into the arena (one at a time on a serial backend), run them as a
    /// wave, finish their predictions, repeat.
    fn classify_clips(
        &mut self,
        frontend: &MfccExtractor,
        scratch: &mut MfccScratch,
        backend: &mut dyn Backend,
        clips: &[impl AsRef<[f32]>],
        out: &mut [Prediction],
    ) -> Result<()> {
        let width = backend.batch_width().max(1);
        if self.mfcc.len() < width {
            self.mfcc.resize_with(width, Mat::default);
        }
        for (chunk, preds) in clips.chunks(width).zip(out.chunks_mut(width)) {
            for (slot, clip) in self.mfcc.iter_mut().zip(chunk) {
                frontend.extract_padded_into(clip.as_ref(), slot, scratch)?;
            }
            infer_wave_predictions(backend, &self.mfcc[..chunk.len()], &mut self.logits, preds)?;
        }
        Ok(())
    }
}

/// Softmax + arg-max of freshly produced logits into the reusable
/// [`Prediction`].
fn finish_prediction(logits: &[f32], out: &mut Prediction) -> Result<()> {
    kwt_model::softmax_probs_into(logits, &mut out.probs)?;
    out.logits.clear();
    out.logits.extend_from_slice(logits);
    let (mut best, mut best_p) = (0usize, f32::NEG_INFINITY);
    for (i, &p) in out.probs.iter().enumerate() {
        if p > best_p {
            best = i;
            best_p = p;
        }
    }
    out.class = best;
    out.score = best_p;
    Ok(())
}
