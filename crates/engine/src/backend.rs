//! The [`Backend`] trait and its three implementations.
//!
//! A backend maps one MFCC spectrogram to class logits. Each owns every
//! resource repeated inference needs — packed weights, activation scratch
//! arenas, or a live simulator machine — so `infer_into` is allocation-free
//! for the host backends and machine-reuse-warm for the simulated one.

use crate::Result;
use kwt_baremetal::{DeviceSession, InferenceImage};
use kwt_model::{KwtConfig, KwtParams, PackedKwtWeights, Scratch};
use kwt_quant::{QuantScratch, QuantizedKwt};
use kwt_rv32::RunResult;
use kwt_tensor::qops::QuantStats;
use kwt_tensor::Mat;

/// Which inference flavour a backend implements (the paper's Table IX
/// rows, behind one API).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// Host-side float model (`kwt_model::forward_into`).
    HostFloat,
    /// Host-side INT8/INT16 quantised model
    /// (`QuantizedKwt::forward_detailed_into`).
    HostQuant,
    /// Bare-metal image on the RV32IMC simulator, over a persistent
    /// [`DeviceSession`].
    Rv32Sim,
    /// Bare-metal image on an N-hart simulated cluster with banked
    /// shared memory, over a persistent
    /// [`ClusterSession`](kwt_baremetal::ClusterSession) — one clip per
    /// hart per wave.
    Rv32Cluster,
}

impl BackendKind {
    /// Stable lowercase name (used by benchmark artefacts).
    pub fn as_str(&self) -> &'static str {
        match self {
            BackendKind::HostFloat => "host_float",
            BackendKind::HostQuant => "host_quant",
            BackendKind::Rv32Sim => "rv32_sim",
            BackendKind::Rv32Cluster => "rv32_cluster",
        }
    }
}

/// One inference flavour behind the uniform [`Engine`](crate::Engine) API.
pub trait Backend: Send {
    /// Which flavour this is.
    fn kind(&self) -> BackendKind;

    /// The model configuration (input geometry, class count).
    fn config(&self) -> &KwtConfig;

    /// Runs one inference over a `T x F` MFCC spectrogram, writing float
    /// logits into `logits` (cleared first; capacity reused).
    ///
    /// # Errors
    ///
    /// Propagates the subsystem's shape/kernel errors.
    fn infer_into(&mut self, mfcc: &Mat<f32>, logits: &mut Vec<f32>) -> Result<()>;

    /// The power-of-two input exponent of a backend that consumes
    /// pre-quantised `i8` features directly — `Some` only for A8
    /// [`BackendKind::Rv32Sim`] sessions. When set, the engine extracts
    /// features straight to `i8` at this exponent
    /// (`MfccExtractor::extract_padded_a8_into`) and feeds them through
    /// [`infer_prequantized_into`](Self::infer_prequantized_into),
    /// skipping the separate host quantisation pass — with logits
    /// **bit-identical** to the float [`infer_into`](Self::infer_into)
    /// path (both quantise the same float features by the same rule).
    fn input_exponent(&self) -> Option<i32> {
        None
    }

    /// Runs one inference over features already quantised to `i8` at
    /// [`input_exponent`](Self::input_exponent).
    ///
    /// # Errors
    ///
    /// Returns a configuration error unless the backend advertises an
    /// input exponent.
    fn infer_prequantized_into(&mut self, input: &Mat<i8>, logits: &mut Vec<f32>) -> Result<()> {
        let _ = (input, logits);
        Err(crate::EngineError::Config {
            why: format!(
                "the {} backend does not accept pre-quantised input",
                self.kind().as_str()
            ),
        })
    }

    /// How many clips this backend can infer concurrently in one wave —
    /// `1` for every serial backend, the hart count for
    /// [`BackendKind::Rv32Cluster`]. The engine shards batches into
    /// waves of this width.
    fn batch_width(&self) -> usize {
        1
    }

    /// Runs up to [`batch_width`](Self::batch_width) inferences as one
    /// wave: clip `i` of `mfccs` produces `logits[i]`. The default runs
    /// the clips serially through [`infer_into`](Self::infer_into), so
    /// a wave is always *functionally* just a batch — a concurrent
    /// backend may only change the timing.
    ///
    /// # Errors
    ///
    /// Propagates the first clip failure.
    fn infer_wave(&mut self, mfccs: &[Mat<f32>], logits: &mut [Vec<f32>]) -> Result<()> {
        for (m, l) in mfccs.iter().zip(logits.iter_mut()) {
            self.infer_into(m, l)?;
        }
        Ok(())
    }

    /// [`infer_wave`](Self::infer_wave) over features already quantised
    /// to `i8` at [`input_exponent`](Self::input_exponent).
    ///
    /// # Errors
    ///
    /// Propagates the first clip failure; a configuration error unless
    /// the backend advertises an input exponent.
    fn infer_prequantized_wave(
        &mut self,
        inputs: &[Mat<i8>],
        logits: &mut [Vec<f32>],
    ) -> Result<()> {
        for (m, l) in inputs.iter().zip(logits.iter_mut()) {
            self.infer_prequantized_into(m, l)?;
        }
        Ok(())
    }

    /// Simulator statistics of the most recent inference — `Some` only for
    /// [`BackendKind::Rv32Sim`] and [`BackendKind::Rv32Cluster`].
    fn last_device_run(&self) -> Option<RunResult> {
        None
    }

    /// Simulated device cycles consumed by the most recent wave (or
    /// single inference) — the SoC finish time for
    /// [`BackendKind::Rv32Cluster`], the run's cycle count for
    /// [`BackendKind::Rv32Sim`], `None` for host backends, whose latency
    /// the simulator does not model. The serving layer sums this into
    /// its deterministic detections-per-cycle and queueing-latency
    /// accounting.
    fn wave_device_cycles(&self) -> Option<u64> {
        None
    }

    /// Quantisation statistics of the most recent inference — `Some` only
    /// for [`BackendKind::HostQuant`].
    fn last_quant_stats(&self) -> Option<QuantStats> {
        None
    }

    /// Clones this backend into an independent instance (own scratch
    /// arenas / own simulator machine), or `None` if the backend cannot
    /// be replicated. Used by the engine's parallel batch path to give
    /// each worker thread its own [`DeviceSession`]; every built-in
    /// backend supports it.
    fn clone_boxed(&self) -> Option<Box<dyn Backend>> {
        None
    }

    /// Re-arms the backend after a device fault, re-validating image
    /// integrity against the build-time bank checksums and repairing
    /// dirty banks ([`DeviceSession::recover`]). `None` for backends
    /// with nothing to recover (the host models are stateless).
    fn recover(&mut self) -> Option<kwt_baremetal::RecoveryReport> {
        None
    }

    /// Arms (or with `None` disarms) a per-inference simulated-cycle
    /// budget: a run exceeding it stops with a watchdog trap. No-op for
    /// host backends, whose latency the simulator does not model.
    fn set_cycle_budget(&mut self, budget: Option<u64>) {
        let _ = budget;
    }

    /// Arms a deterministic fault plan for the next inference(s) —
    /// returns `false` if this backend has no fault-injection surface
    /// (host backends). The chaos-harness entry point.
    fn inject_faults(&mut self, plan: kwt_rv32::FaultPlan) -> bool {
        let _ = plan;
        false
    }

    /// Resilience statistics — `Some` only for the
    /// [`ResilientBackend`](crate::ResilientBackend) wrapper.
    fn fault_stats(&self) -> Option<crate::FaultStats> {
        None
    }

    /// Current health of the primary backend — `Some` only for the
    /// [`ResilientBackend`](crate::ResilientBackend) wrapper.
    fn health(&self) -> Option<crate::BackendHealth> {
        None
    }
}

/// Float host backend: pre-packed weights + reusable activation arena.
#[derive(Debug, Clone)]
pub struct HostFloatBackend {
    params: KwtParams,
    packed: PackedKwtWeights,
    scratch: Scratch,
}

impl HostFloatBackend {
    /// Packs the weights once and pre-allocates the scratch arena.
    pub fn new(params: KwtParams) -> Self {
        let packed = params.pack_weights();
        let scratch = Scratch::new(&params.config);
        HostFloatBackend {
            params,
            packed,
            scratch,
        }
    }

    /// The wrapped parameters.
    pub fn params(&self) -> &KwtParams {
        &self.params
    }
}

impl Backend for HostFloatBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::HostFloat
    }

    fn config(&self) -> &KwtConfig {
        &self.params.config
    }

    fn infer_into(&mut self, mfcc: &Mat<f32>, logits: &mut Vec<f32>) -> Result<()> {
        kwt_model::forward_into(&self.params, &self.packed, mfcc, &mut self.scratch, logits)?;
        Ok(())
    }

    fn clone_boxed(&self) -> Option<Box<dyn Backend>> {
        Some(Box::new(self.clone()))
    }
}

/// Quantised host backend: the model's own packed INT8 weights + reusable
/// integer activation arena.
#[derive(Debug, Clone)]
pub struct HostQuantBackend {
    qm: QuantizedKwt,
    scratch: QuantScratch,
    last_stats: Option<QuantStats>,
}

impl HostQuantBackend {
    /// Wraps a quantised model and pre-allocates its scratch arena.
    pub fn new(qm: QuantizedKwt) -> Self {
        let scratch = QuantScratch::new(&qm.config);
        HostQuantBackend {
            qm,
            scratch,
            last_stats: None,
        }
    }

    /// The wrapped quantised model.
    pub fn model(&self) -> &QuantizedKwt {
        &self.qm
    }
}

impl Backend for HostQuantBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::HostQuant
    }

    fn config(&self) -> &KwtConfig {
        &self.qm.config
    }

    fn infer_into(&mut self, mfcc: &Mat<f32>, logits: &mut Vec<f32>) -> Result<()> {
        let stats = self
            .qm
            .forward_detailed_into(mfcc, &mut self.scratch, logits)?;
        self.last_stats = Some(stats);
        Ok(())
    }

    fn last_quant_stats(&self) -> Option<QuantStats> {
        self.last_stats
    }

    fn clone_boxed(&self) -> Option<Box<dyn Backend>> {
        Some(Box::new(self.clone()))
    }
}

/// Simulated-device backend over a persistent [`DeviceSession`]: the
/// machine is loaded once and re-armed between inferences, keeping the
/// weights in simulated RAM and the pre-decode execution cache warm —
/// unlike the one-shot [`InferenceImage::run`], which rebuilds the machine
/// every call.
#[derive(Debug, Clone)]
pub struct Rv32SimBackend {
    session: DeviceSession,
    config: KwtConfig,
    last_run: Option<RunResult>,
}

impl Rv32SimBackend {
    /// Opens a persistent session on a built inference image.
    ///
    /// # Errors
    ///
    /// Propagates [`InferenceImage::session`] errors.
    pub fn new(image: &InferenceImage) -> Result<Self> {
        let session = image.session()?;
        let config = *session.config();
        Ok(Rv32SimBackend {
            session,
            config,
            last_run: None,
        })
    }

    /// Cumulative run count of the underlying session.
    pub fn runs(&self) -> u64 {
        self.session.runs()
    }

    /// The image flavour the session runs — the i16 quantised pipelines
    /// or the fully-INT8 [`kwt_baremetal::Flavor::A8`] mode.
    pub fn flavor(&self) -> kwt_baremetal::Flavor {
        self.session.flavor()
    }

    /// The underlying session, for profiler access.
    pub fn session(&self) -> &DeviceSession {
        &self.session
    }

    /// The underlying session, mutably — fault injection and cycle
    /// budgets for robustness tests and the chaos harness.
    pub fn session_mut(&mut self) -> &mut DeviceSession {
        &mut self.session
    }
}

impl Backend for Rv32SimBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Rv32Sim
    }

    fn config(&self) -> &KwtConfig {
        &self.config
    }

    fn infer_into(&mut self, mfcc: &Mat<f32>, logits: &mut Vec<f32>) -> Result<()> {
        let run = self.session.run_into(mfcc, logits)?;
        self.last_run = Some(run);
        Ok(())
    }

    fn input_exponent(&self) -> Option<i32> {
        self.session.input_exponent()
    }

    fn infer_prequantized_into(&mut self, input: &Mat<i8>, logits: &mut Vec<f32>) -> Result<()> {
        let run = self.session.run_prequantized_into(input, logits)?;
        self.last_run = Some(run);
        Ok(())
    }

    fn last_device_run(&self) -> Option<RunResult> {
        self.last_run
    }

    fn wave_device_cycles(&self) -> Option<u64> {
        self.last_run.map(|r| r.cycles)
    }

    fn clone_boxed(&self) -> Option<Box<dyn Backend>> {
        Some(Box::new(self.clone()))
    }

    fn recover(&mut self) -> Option<kwt_baremetal::RecoveryReport> {
        Some(self.session.recover())
    }

    fn set_cycle_budget(&mut self, budget: Option<u64>) {
        self.session.set_cycle_budget(budget);
    }

    fn inject_faults(&mut self, plan: kwt_rv32::FaultPlan) -> bool {
        self.session.inject_faults(plan);
        true
    }
}
