//! Wall-clock measurement for the `BENCH_engine.json` collector
//! ([`crate::enginebench`]): adaptive iteration counts and median-of-
//! batches timing with its median absolute deviation under a fixed
//! per-measurement budget, or a single call in `--smoke` mode.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Wall-clock budget of one measurement.
const BUDGET: Duration = Duration::from_millis(200);
/// Batch length the iteration count is calibrated to.
const CALIBRATION: Duration = Duration::from_millis(40);
/// Fewest batches a measurement takes, budget or not, so the median
/// and its spread rest on more than one sample.
const MIN_BATCHES: usize = 5;

/// One host timing: the median per-call time over the measured batches
/// and the median absolute deviation of the batch times around it.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct Timing {
    /// Median ns per call.
    pub(crate) ns: f64,
    /// Median absolute deviation of the per-batch ns per call.
    pub(crate) mad_ns: f64,
}

impl Timing {
    /// Both figures divided by `n` (per clip, per thousand
    /// instructions, ...).
    pub(crate) fn per(self, n: f64) -> Timing {
        Timing {
            ns: self.ns / n,
            mad_ns: self.mad_ns / n,
        }
    }

    /// The median of `samples` with their median absolute deviation.
    pub(crate) fn of(samples: &mut [f64]) -> Timing {
        let ns = median(samples);
        let mut deviations: Vec<f64> = samples.iter().map(|x| (x - ns).abs()).collect();
        Timing {
            ns,
            mad_ns: median(&mut deviations),
        }
    }
}

/// Median of a non-empty sample (sorted in place).
fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    let mid = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[mid]
    } else {
        (xs[mid - 1] + xs[mid]) / 2.0
    }
}

/// Median-of-batches ns/call of `f` (with its MAD) under [`BUDGET`]; a
/// single call with zero spread when `smoke` is set (compile + execute
/// proof, no timing fidelity).
pub(crate) fn time_ns<O>(smoke: bool, mut f: impl FnMut() -> O) -> Timing {
    let mut batch = |n: u64| {
        let t0 = Instant::now();
        for _ in 0..n {
            black_box(f());
        }
        t0.elapsed()
    };
    if smoke {
        return Timing {
            ns: batch(1).as_nanos() as f64,
            mad_ns: 0.0,
        };
    }
    let mut n: u64 = 1;
    loop {
        let dt = batch(n);
        if dt >= CALIBRATION || n >= 1 << 40 {
            break;
        }
        n = if dt.as_nanos() == 0 {
            n * 16
        } else {
            ((n as u128 * CALIBRATION.as_nanos() * 2 / dt.as_nanos().max(1)) as u64).max(n + 1)
        };
    }
    let mut samples = Vec::new();
    let mut spent = Duration::ZERO;
    while spent < BUDGET || samples.len() < MIN_BATCHES {
        let dt = batch(n);
        spent += dt;
        samples.push(dt.as_nanos() as f64 / n as f64);
    }
    Timing::of(&mut samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_samples() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn smoke_timing_is_one_call_without_spread() {
        let mut calls = 0;
        let t = time_ns(true, || calls += 1);
        assert_eq!(calls, 1);
        assert_eq!(t.mad_ns, 0.0);
        assert_eq!(t.per(2.0).ns, t.ns / 2.0);
    }
}
