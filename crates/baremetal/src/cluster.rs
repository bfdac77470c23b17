//! Multi-hart device sessions: one inference image served by an N-hart
//! [`kwt_rv32::Cluster`], each hart with its own stream
//! mailbox.
//!
//! [`InferenceImage::cluster_session`] maps the (read-only) code and
//! weight banks once — the loaded [`kwt_rv32::Machine`] is the
//! single source of truth, replicated per hart, which is
//! observationally identical to shared read-only banks because no
//! generated program ever stores into text or weights — and gives every
//! hart a private copy of the scratch/activation/IO regions plus its
//! own input mailbox ([`ClusterSession::load_clip`]) and logits mailbox
//! ([`ClusterSession::read_logits`]).
//!
//! The input quantisation and logits readback go through the exact same
//! crate-internal helpers as [`DeviceSession`](crate::DeviceSession),
//! so a cluster hart's logits are bit-identical to a serial session's
//! by construction; the cluster only adds the shared-memory *timing*
//! model (bank conflicts, arbiter stalls) on top.

use crate::image::{
    fnv1a64, read_clip_logits, recover_machine, write_clip_input, Flavor, InferenceImage,
    InputStaging, IntegrityBank, RecoveryReport,
};
use crate::{BuildError, DeviceError, Result};
use kwt_model::KwtConfig;
use kwt_quant::{A8Config, QuantConfig};
use kwt_rv32::{ClassHistogram, Cluster, ClusterRun, HartStats, Machine, RunResult};
use kwt_tensor::Mat;

/// Per-run step budget, matching the serial session's `run_machine`.
const MAX_STEPS: u64 = 2_000_000_000;

/// Outcome of one [`ClusterSession::run_loaded`] wave.
#[derive(Debug, Clone, Default)]
pub struct ClusterWave {
    /// Per active hart: this run's cycle/instruction deltas (like
    /// [`DeviceSession::run_into`](crate::DeviceSession::run_into)), or
    /// the structured device fault that stopped that hart. One hart
    /// faulting never disturbs the others.
    pub results: Vec<std::result::Result<RunResult, DeviceError>>,
    /// Per active hart timing accounting on the shared SoC timeline.
    pub stats: Vec<HartStats>,
    /// SoC cycles from wave start until the last hart finished.
    pub soc_cycles: u64,
}

impl ClusterWave {
    /// Total stall cycles over total occupied hart-cycles — the
    /// bank-conflict tax of this wave.
    pub fn stall_fraction(&self) -> f64 {
        let stalled: u64 = self.stats.iter().map(|s| s.stall_cycles).sum();
        let occupied: u64 = self
            .stats
            .iter()
            .map(|s| s.busy_cycles + s.stall_cycles)
            .sum();
        stalled as f64 / occupied.max(1) as f64
    }

    /// Mean per-hart utilisation over the SoC timeline.
    pub fn mean_utilisation(&self) -> f64 {
        if self.stats.is_empty() {
            return 0.0;
        }
        self.stats
            .iter()
            .map(|s| s.busy_cycles as f64 / self.soc_cycles.max(1) as f64)
            .sum::<f64>()
            / self.stats.len() as f64
    }
}

/// A persistent N-hart inference session on one [`InferenceImage`] (see
/// [`InferenceImage::cluster_session`]).
///
/// The wave protocol: [`load_clip`](Self::load_clip) into harts
/// `0..k`, [`run_loaded(k)`](Self::run_loaded), then
/// [`read_logits`](Self::read_logits) per hart. Loading resets the
/// hart's architectural registers, so waves re-arm exactly like the
/// serial session's reset-per-run.
#[derive(Debug, Clone)]
pub struct ClusterSession {
    cluster: Cluster,
    flavor: Flavor,
    config: KwtConfig,
    qconfig: Option<QuantConfig>,
    a8config: Option<A8Config>,
    input_addr: u32,
    logits_addr: u32,
    integrity: Vec<IntegrityBank>,
    runs: u64,
    /// Quantised-input staging reused by every
    /// [`load_clip`](Self::load_clip).
    staging: InputStaging,
    /// The cluster's run buffers and the last wave, reused by every
    /// [`run_loaded`](Self::run_loaded) (`None` before the first).
    run: ClusterRun,
    wave: Option<ClusterWave>,
}

impl InferenceImage {
    /// Opens an `harts`-hart cluster session on the SoC's
    /// [`BANKS`](kwt_rv32::BANKS) shared banks.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::Model`] for zero harts and
    /// [`BuildError::Trap`] if the image does not fit the platform RAM.
    pub fn cluster_session(&self, harts: usize) -> Result<ClusterSession> {
        if harts == 0 {
            return Err(BuildError::Model(
                "a cluster needs at least one hart".into(),
            ));
        }
        let mut template = Machine::load(&self.program, self.platform())?;
        for (id, name) in crate::regions::region_names() {
            template.name_region(id, &name);
        }
        Ok(ClusterSession {
            cluster: Cluster::replicate(&template, harts),
            flavor: self.flavor,
            config: self.config,
            qconfig: self.qconfig,
            a8config: self.a8config,
            input_addr: self.input_addr(),
            logits_addr: self.logits_addr(),
            integrity: self.integrity_banks(),
            runs: 0,
            staging: InputStaging::default(),
            run: ClusterRun::default(),
            wave: None,
        })
    }
}

impl ClusterSession {
    /// Number of harts in the cluster.
    pub fn num_harts(&self) -> usize {
        self.cluster.num_harts()
    }

    /// The image flavour this session runs.
    pub fn flavor(&self) -> Flavor {
        self.flavor
    }

    /// The model configuration this session runs.
    pub fn config(&self) -> &KwtConfig {
        &self.config
    }

    /// Successful inferences completed across all harts.
    pub fn runs(&self) -> u64 {
        self.runs
    }

    fn check_shape(&self, shape: (usize, usize)) -> Result<()> {
        let c = &self.config;
        if shape != (c.input_time, c.input_freq) {
            return Err(BuildError::Model(format!(
                "input shape {:?}, expected ({}, {})",
                shape, c.input_time, c.input_freq
            )));
        }
        Ok(())
    }

    /// Resets hart `hart` and writes one float clip into its private
    /// input mailbox (quantised flavour-appropriately, exactly like the
    /// serial session).
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::Model`] for a wrong input shape.
    ///
    /// # Panics
    ///
    /// Panics if `hart` is out of range.
    pub fn load_clip(&mut self, hart: usize, mfcc: &Mat<f32>) -> Result<()> {
        self.check_shape(mfcc.shape())?;
        let m = self.cluster.hart_mut(hart);
        m.reset_cpu();
        write_clip_input(
            m,
            self.flavor,
            self.qconfig,
            self.a8config,
            self.input_addr,
            mfcc,
            &mut self.staging,
        );
        Ok(())
    }

    /// Runs harts `0..n_active` (each must have a clip loaded) to
    /// completion on the shared banked memory, one inference per hart.
    /// Per-hart results carry this run's cycle/instruction deltas; the
    /// wave's `soc_cycles` is the cluster-throughput denominator. The
    /// wave lives in the session (see [`last_wave`](Self::last_wave)),
    /// so a warm session runs waves without allocating.
    ///
    /// # Panics
    ///
    /// Panics if `n_active` is zero or exceeds the hart count.
    pub fn run_loaded(&mut self, n_active: usize) -> &ClusterWave {
        self.cluster
            .run_active_into(n_active, MAX_STEPS, &mut self.run);
        let wave = self.wave.get_or_insert_with(ClusterWave::default);
        wave.results.clear();
        for (h, (r, s)) in self.run.results.iter().zip(&self.run.stats).enumerate() {
            // the stats hold this run's cycle and instruction deltas
            wave.results.push(match *r {
                Ok(rr) => {
                    self.runs += 1;
                    Ok(RunResult {
                        cycles: s.busy_cycles,
                        instructions: s.instructions,
                        exit_code: rr.exit_code,
                    })
                }
                Err(trap) => Err(DeviceError {
                    trap,
                    pc: self.cluster.hart(h).cpu.pc,
                    cycles: s.busy_cycles,
                    image_flavor: self.flavor,
                }),
            });
        }
        wave.stats.clear();
        wave.stats.extend_from_slice(&self.run.stats);
        wave.soc_cycles = self.run.soc_cycles;
        wave
    }

    /// The most recent [`run_loaded`](Self::run_loaded) wave, if any.
    pub fn last_wave(&self) -> Option<&ClusterWave> {
        self.wave.as_ref()
    }

    /// Reads hart `hart`'s float logits from its private logits mailbox
    /// into `logits` (cleared first).
    ///
    /// # Panics
    ///
    /// Panics if `hart` is out of range.
    pub fn read_logits(&self, hart: usize, logits: &mut Vec<f32>) {
        read_clip_logits(
            self.cluster.hart(hart),
            self.flavor,
            self.qconfig,
            self.a8config,
            &self.config,
            self.logits_addr,
            logits,
        );
    }

    /// Arms a deterministic [`FaultPlan`](kwt_rv32::FaultPlan) on one
    /// hart only — the other harts keep running fault-free.
    pub fn inject_faults(&mut self, hart: usize, plan: kwt_rv32::FaultPlan) {
        self.cluster.hart_mut(hart).set_fault_plan(plan);
    }

    /// Faults that actually fired on hart `hart`, in injection order.
    pub fn fault_log(&self, hart: usize) -> &[kwt_rv32::FaultRecord] {
        self.cluster.hart(hart).fault_log()
    }

    /// Re-arms hart `hart` after a fault — the per-hart twin of
    /// [`DeviceSession::recover`](crate::DeviceSession::recover): reset,
    /// fault disarm, LUT restore, and checksum-driven repair of the
    /// hart's static banks against the build-time digests.
    pub fn recover(&mut self, hart: usize) -> RecoveryReport {
        recover_machine(self.cluster.hart_mut(hart), &self.integrity)
    }

    /// Checksums hart `hart`'s static banks without repairing: `true`
    /// if they still match the build-time digests.
    pub fn verify_integrity(&self, hart: usize) -> bool {
        let m = self.cluster.hart(hart);
        self.integrity.iter().all(|bank| {
            fnv1a64(m.cpu.mem.read_bytes(bank.addr, bank.pristine.len())) == bank.checksum
        })
    }

    /// Arms (or disarms with `None`) a per-run cycle watchdog on every
    /// hart.
    pub fn set_cycle_budget(&mut self, budget: Option<u64>) {
        for h in 0..self.cluster.num_harts() {
            self.cluster.hart_mut(h).set_cycle_watchdog(budget);
        }
    }

    /// Arms or disarms per-class retirement counting on one hart (idle
    /// harts never pay the counting cost).
    pub fn set_class_histogram_enabled(&mut self, hart: usize, enabled: bool) {
        self.cluster.set_class_histogram_enabled(hart, enabled);
    }

    /// Per-hart class histograms (zeroed for unarmed harts).
    pub fn class_histograms(&self) -> Vec<ClassHistogram> {
        self.cluster.class_histograms()
    }

    /// The SoC-wide class histogram: every hart's counts summed.
    pub fn summed_class_histogram(&self) -> ClassHistogram {
        self.cluster.summed_class_histogram()
    }

    /// The underlying hart, for register/memory inspection.
    pub fn hart(&self, hart: usize) -> &Machine {
        self.cluster.hart(hart)
    }
}

/// `true` if every hart of a wave completed without a device fault.
pub fn wave_all_ok(wave: &ClusterWave) -> bool {
    wave.results.iter().all(|r| r.is_ok())
}

#[cfg(test)]
mod tests {
    use super::*;
    use kwt_model::{KwtConfig, KwtParams};
    use kwt_quant::{A8Config, A8Kwt};
    use kwt_rv32::Trap;

    fn trained_ish() -> KwtParams {
        let mut p = KwtParams::init(KwtConfig::kwt_tiny(), 77).unwrap();
        p.visit_mut(|s| {
            for v in s {
                *v *= 0.6;
            }
        });
        p
    }

    fn a8_image() -> InferenceImage {
        let params = trained_ish();
        let a8 = A8Kwt::quantize(&params, A8Config::paper_a8()).unwrap();
        InferenceImage::build_a8(&a8).unwrap()
    }

    fn clip(seed: u64, c: &KwtConfig) -> Mat<f32> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        Mat::from_fn(c.input_time, c.input_freq, |_, _| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 40) as i32 - (1 << 23)) as f32 / (1 << 25) as f32
        })
    }

    #[test]
    fn cluster_logits_bit_identical_to_serial_session() {
        let image = a8_image();
        let c = image.config;
        let mut serial = image.session().unwrap();
        let mut cluster = image.cluster_session(4).unwrap();
        let clips: Vec<Mat<f32>> = (0..4).map(|i| clip(i, &c)).collect();

        let mut serial_logits = vec![Vec::new(); 4];
        let mut serial_cycles = Vec::new();
        for (i, clip) in clips.iter().enumerate() {
            let r = serial.run_into(clip, &mut serial_logits[i]).unwrap();
            serial_cycles.push(r.cycles);
        }

        for (i, clip) in clips.iter().enumerate() {
            cluster.load_clip(i, clip).unwrap();
        }
        let wave = cluster.run_loaded(4).clone();
        assert!(wave_all_ok(&wave));
        let mut logits = Vec::new();
        for (i, serial) in serial_logits.iter().enumerate() {
            cluster.read_logits(i, &mut logits);
            assert_eq!(
                &logits, serial,
                "hart {i} logits must be bit-identical to serial"
            );
        }
        // functional cycles identical too: contention delays, never adds work
        for (i, cycles) in serial_cycles.iter().enumerate() {
            assert_eq!(wave.results[i].as_ref().unwrap().cycles, *cycles);
        }
        assert!(wave.soc_cycles >= *serial_cycles.iter().max().unwrap());
    }

    #[test]
    fn single_hart_cluster_session_cycle_identical() {
        let image = a8_image();
        let c = image.config;
        let mfcc = clip(3, &c);
        let mut serial = image.session().unwrap();
        let mut logits_serial = Vec::new();
        let serial_run = serial.run_into(&mfcc, &mut logits_serial).unwrap();

        let mut cluster = image.cluster_session(1).unwrap();
        cluster.load_clip(0, &mfcc).unwrap();
        let wave = cluster.run_loaded(1);
        let run = wave.results[0].as_ref().unwrap();
        assert_eq!(run, &serial_run);
        assert_eq!(wave.stats[0].stall_cycles, 0);
        assert_eq!(wave.soc_cycles, serial_run.cycles);
        let mut logits = Vec::new();
        cluster.read_logits(0, &mut logits);
        assert_eq!(logits, logits_serial);
    }

    #[test]
    fn fault_on_one_hart_is_isolated_and_recoverable() {
        let image = a8_image();
        let c = image.config;
        let clips: Vec<Mat<f32>> = (0..3).map(|i| clip(10 + i, &c)).collect();
        let mut cluster = image.cluster_session(3).unwrap();

        // fault-free baseline wave
        for (i, clipm) in clips.iter().enumerate() {
            cluster.load_clip(i, clipm).unwrap();
        }
        let base = cluster.run_loaded(3);
        assert!(wave_all_ok(base));
        let mut clean = vec![Vec::new(); 3];
        for (i, c) in clean.iter_mut().enumerate() {
            cluster.read_logits(i, c);
        }

        // trap hart 1 at its entry pc; harts 0 and 2 run fault-free
        for (i, clipm) in clips.iter().enumerate() {
            cluster.load_clip(i, clipm).unwrap();
        }
        let trap = Trap::AccessOutOfBounds { addr: 0xBAD, pc: 0 };
        let pc = cluster.hart(1).cpu.pc;
        cluster.inject_faults(1, kwt_rv32::FaultPlan::new().force_trap_at_pc(pc, trap));
        let wave = cluster.run_loaded(3).clone();
        assert!(wave.results[1].is_err(), "hart 1 must trap");
        let mut logits = Vec::new();
        for i in [0usize, 2] {
            assert!(wave.results[i].is_ok(), "hart {i} must be isolated");
            cluster.read_logits(i, &mut logits);
            assert_eq!(logits, clean[i], "hart {i} logits must be unaffected");
        }

        // recover hart 1 and prove the next wave is clean again
        let report = cluster.recover(1);
        assert_eq!(report.faults_cleared, 0); // the event fired (consumed)
        assert!(cluster.verify_integrity(1));
        for (i, clipm) in clips.iter().enumerate() {
            cluster.load_clip(i, clipm).unwrap();
        }
        let after = cluster.run_loaded(3);
        assert!(wave_all_ok(after));
        cluster.read_logits(1, &mut logits);
        assert_eq!(logits, clean[1], "recovered hart must match fault-free");
    }
}
