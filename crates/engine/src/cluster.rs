//! The [`Rv32ClusterBackend`]: batched and streaming inference sharded
//! across the harts of a simulated RV32 cluster.
//!
//! One [`ClusterSession`] holds N harts against the banked shared
//! memory; the backend advertises [`Backend::batch_width`]` == N`, so
//! the engine shards every batch into waves of up to N clips — one clip
//! per hart mailbox, one [`ClusterSession::run_loaded`] per wave. The
//! hart mailboxes go through the same quantise/readback helpers as the
//! serial [`DeviceSession`](kwt_baremetal::DeviceSession), so wave
//! logits are **bit-identical** to the serial backend's, clip for clip;
//! the cluster only changes the *timing* ([`ClusterWave::soc_cycles`],
//! stall accounting).

use crate::backend::{Backend, BackendKind};
use crate::{EngineError, Result};
use kwt_baremetal::{ClusterSession, ClusterWave, InferenceImage, RecoveryReport};
use kwt_model::KwtConfig;
use kwt_rv32::RunResult;
use kwt_tensor::Mat;

/// Simulated-cluster backend over a persistent [`ClusterSession`]:
/// N harts, each with a private clip mailbox, sharing the
/// bank-interleaved memory behind the round-robin arbiter.
///
/// Single-clip inference ([`Backend::infer_into`]) runs on hart 0 alone
/// — by the single-hart identity theorem (see `kwt_rv32::cluster`) that
/// is bit- and cycle-identical to the serial
/// [`Rv32SimBackend`](crate::Rv32SimBackend). Batches go through
/// [`Backend::infer_wave`] at the full hart count.
#[derive(Debug, Clone)]
pub struct Rv32ClusterBackend {
    session: ClusterSession,
    config: KwtConfig,
    last_run: Option<RunResult>,
}

impl Rv32ClusterBackend {
    /// Opens an `harts`-hart cluster session on a built inference image.
    ///
    /// # Errors
    ///
    /// Propagates [`InferenceImage::cluster_session`] errors.
    pub fn new(image: &InferenceImage, harts: usize) -> Result<Self> {
        let session = image.cluster_session(harts)?;
        let config = *session.config();
        Ok(Rv32ClusterBackend {
            session,
            config,
            last_run: None,
        })
    }

    /// Number of harts (== [`Backend::batch_width`]).
    pub fn harts(&self) -> usize {
        self.session.num_harts()
    }

    /// Cumulative successful inferences across all harts.
    pub fn runs(&self) -> u64 {
        self.session.runs()
    }

    /// Timing accounting of the most recent wave: per-hart stats,
    /// bank-conflict stalls and the SoC finish time.
    pub fn last_wave(&self) -> Option<&ClusterWave> {
        self.session.last_wave()
    }

    /// The underlying cluster session.
    pub fn session(&self) -> &ClusterSession {
        &self.session
    }

    /// The underlying cluster session, mutably — per-hart fault
    /// injection and histogram arming for robustness tests.
    pub fn session_mut(&mut self) -> &mut ClusterSession {
        &mut self.session
    }

    /// Runs one already-loaded wave and distributes the per-hart
    /// outcomes: logits for every completed hart, the first device
    /// fault as the propagated error.
    fn finish_wave(&mut self, n: usize, logits: &mut [Vec<f32>]) -> Result<()> {
        self.session.run_loaded(n);
        let session = &self.session;
        let wave = session.last_wave().expect("a wave just ran");
        let mut first_err = None;
        for (h, r) in wave.results.iter().enumerate() {
            match r {
                Ok(rr) => {
                    if h == 0 {
                        self.last_run = Some(*rr);
                    }
                    session.read_logits(h, &mut logits[h]);
                }
                Err(e) => {
                    if first_err.is_none() {
                        first_err = Some(EngineError::Device((*e).into()));
                    }
                }
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

impl Backend for Rv32ClusterBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Rv32Cluster
    }

    fn config(&self) -> &KwtConfig {
        &self.config
    }

    fn infer_into(&mut self, mfcc: &Mat<f32>, logits: &mut Vec<f32>) -> Result<()> {
        self.session.load_clip(0, mfcc)?;
        let mut slot = [std::mem::take(logits)];
        let r = self.finish_wave(1, &mut slot);
        *logits = std::mem::take(&mut slot[0]);
        r
    }

    fn batch_width(&self) -> usize {
        self.session.num_harts()
    }

    fn infer_wave(&mut self, mfccs: &[Mat<f32>], logits: &mut [Vec<f32>]) -> Result<()> {
        if mfccs.is_empty() {
            return Ok(());
        }
        if mfccs.len() > self.harts() || logits.len() < mfccs.len() {
            return Err(EngineError::Config {
                why: format!(
                    "a wave of {} clips with {} logit slots on {} harts",
                    mfccs.len(),
                    logits.len(),
                    self.harts()
                ),
            });
        }
        for (h, m) in mfccs.iter().enumerate() {
            self.session.load_clip(h, m)?;
        }
        self.finish_wave(mfccs.len(), logits)
    }

    fn last_device_run(&self) -> Option<RunResult> {
        self.last_run
    }

    fn wave_device_cycles(&self) -> Option<u64> {
        self.last_wave().map(|w| w.soc_cycles)
    }

    fn clone_boxed(&self) -> Option<Box<dyn Backend>> {
        Some(Box::new(self.clone()))
    }

    fn recover(&mut self) -> Option<RecoveryReport> {
        // every hart gets the full reset-verify-repair pass; the report
        // sums the damage found across the cluster
        let mut total = RecoveryReport::default();
        for h in 0..self.session.num_harts() {
            let r = self.session.recover(h);
            total.banks_checked += r.banks_checked;
            total.banks_dirty += r.banks_dirty;
            total.bytes_restored += r.bytes_restored;
            total.luts_restored |= r.luts_restored;
            total.faults_cleared += r.faults_cleared;
        }
        Some(total)
    }

    fn set_cycle_budget(&mut self, budget: Option<u64>) {
        self.session.set_cycle_budget(budget);
    }

    fn inject_faults(&mut self, plan: kwt_rv32::FaultPlan) -> bool {
        // the chaos harness targets one hart; per-hart plans are
        // available through `session_mut().inject_faults(hart, plan)`
        self.session.inject_faults(0, plan);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kwt_audio::{MfccConfig, MfccExtractor};
    use kwt_model::KwtParams;
    use kwt_quant::{A8Config, A8Kwt};

    fn image() -> InferenceImage {
        let params = KwtParams::init(KwtConfig::kwt_tiny(), 77).expect("valid preset");
        let a8 = A8Kwt::quantize(&params, A8Config::paper_a8()).expect("a8 exponents valid");
        InferenceImage::build_a8(&a8).expect("a8 image builds")
    }

    fn backend() -> Rv32ClusterBackend {
        Rv32ClusterBackend::new(&image(), 4).expect("cluster session")
    }

    fn clips(n: usize) -> Vec<Mat<f32>> {
        let c = KwtConfig::kwt_tiny();
        vec![Mat::zeros(c.input_time, c.input_freq); n]
    }

    #[test]
    fn empty_wave_is_a_no_op() {
        let mut b = backend();
        assert!(b.infer_wave(&[], &mut []).is_ok());
        assert!(b.last_wave().is_none(), "no wave ran");
    }

    #[test]
    fn wave_wider_than_the_cluster_is_a_config_error() {
        let mut b = backend();
        let mut logits = vec![Vec::new(); 5];
        let r = b.infer_wave(&clips(5), &mut logits);
        assert!(matches!(r, Err(EngineError::Config { .. })), "{r:?}");
        assert!(b.last_wave().is_none(), "no wave ran");
    }

    #[test]
    fn too_few_logit_slots_is_a_config_error() {
        let mut b = backend();
        let mut logits = vec![Vec::new(); 2];
        let r = b.infer_wave(&clips(3), &mut logits);
        assert!(matches!(r, Err(EngineError::Config { .. })), "{r:?}");
        assert!(b.last_wave().is_none(), "no wave ran");
    }

    #[test]
    fn zero_harts_is_an_error_not_a_panic() {
        let image = image();
        let r = image.cluster_session(0);
        assert!(
            matches!(r, Err(kwt_baremetal::BuildError::Model(_))),
            "{r:?}"
        );
        let fe = MfccExtractor::new(MfccConfig::default()).expect("default front end");
        let r = crate::Engine::rv32_cluster(&image, fe, 0);
        assert!(
            matches!(
                r,
                Err(EngineError::Device(kwt_baremetal::BuildError::Model(_)))
            ),
            "{r:?}"
        );
    }
}
