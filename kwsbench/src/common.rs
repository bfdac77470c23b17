//! The benchmark model, the run-length limit and the decision digest.

use kwt_baremetal::InferenceImage;
use kwt_model::{KwtConfig, KwtParams};
use kwt_quant::{A8Config, A8Kwt};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Boxed error for set-up failures (they end the run without a result).
pub type BoxError = Box<dyn std::error::Error>;

/// The committed GSC v2 subset, located from this package's manifest so
/// the benchmark runs from any working directory of the checkout.
pub fn data_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../data/gsc_v2_subset")
}

/// Seeded KWT-Tiny weights shrunk into a post-training range. Nothing is
/// trained: throughput does not depend on the weights' values.
pub fn bench_params() -> KwtParams {
    let mut p = KwtParams::init(KwtConfig::kwt_tiny(), 77).expect("KWT-Tiny preset is valid");
    p.visit_mut(|s| s.iter_mut().for_each(|v| *v *= 0.6));
    p
}

/// Quantises `params` to the A8 scheme and builds the tuned device image
/// (the emit-time kernel specialiser runs inside `build_a8`).
///
/// # Errors
///
/// Quantisation or image-build failures.
pub fn a8_image(params: &KwtParams) -> Result<(A8Kwt, InferenceImage), BoxError> {
    let a8 = A8Kwt::quantize(params, A8Config::paper_a8())?;
    let image = InferenceImage::build_a8(&a8)?;
    Ok((a8, image))
}

/// When a measured phase stops: at a wall-clock deadline or after a fixed
/// number of operations, whichever comes first (tests use the count).
#[derive(Debug, Clone, Copy)]
pub struct Stop {
    /// Wall-clock deadline.
    pub deadline: Instant,
    /// Operation cap (clips for the clip workload, arrival groups for
    /// the serving workloads).
    pub max_ops: u64,
}

impl Stop {
    /// Stops after `d` of wall time.
    pub fn after(d: Duration) -> Self {
        Stop::until(Instant::now() + d)
    }

    /// Stops at `deadline`.
    pub fn until(deadline: Instant) -> Self {
        Stop {
            deadline,
            max_ops: u64::MAX,
        }
    }

    /// Stops after `n` operations.
    pub fn ops(n: u64) -> Self {
        Stop {
            deadline: Instant::now() + Duration::from_secs(3600),
            max_ops: n,
        }
    }

    /// Whether a phase that has done `done` operations should stop.
    pub fn reached(&self, done: u64) -> bool {
        done >= self.max_ops || Instant::now() >= self.deadline
    }
}

/// FNV-1a-64 over every delivered decision and device count, in delivery
/// order: two runs with equal digests delivered the same decisions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    /// Folds one value in.
    pub fn add(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

/// Process high-water resident set (`VmHWM`), in MiB.
///
/// # Errors
///
/// Fails where `/proc/self/status` is missing or lacks the field.
pub fn peak_rss_mb() -> Result<f64, BoxError> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}
