//! Wall-clock measurement for the `BENCH_engine.json` collector
//! ([`crate::enginebench`]): adaptive iteration counts and best-of-batches
//! timing under a fixed per-measurement budget, or a single call in
//! `--smoke` mode.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Wall-clock budget of one measurement.
const BUDGET: Duration = Duration::from_millis(200);
/// Batch length the iteration count is calibrated to.
const CALIBRATION: Duration = Duration::from_millis(40);

/// Best-of-batches ns/call of `f` under [`BUDGET`]; a single call when
/// `smoke` is set (compile + execute proof, no timing fidelity).
pub(crate) fn time_ns<O>(smoke: bool, mut f: impl FnMut() -> O) -> f64 {
    let mut batch = |n: u64| {
        let t0 = Instant::now();
        for _ in 0..n {
            black_box(f());
        }
        t0.elapsed()
    };
    if smoke {
        return batch(1).as_nanos() as f64;
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
    let mut best = f64::INFINITY;
    let mut spent = Duration::ZERO;
    while spent < BUDGET {
        let dt = batch(n);
        spent += dt;
        best = best.min(dt.as_nanos() as f64 / n as f64);
    }
    best
}
