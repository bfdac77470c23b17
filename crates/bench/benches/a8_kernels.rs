//! Generic vs specialised A8 kernels at the model geometries: each
//! benchmark simulates one GEMM (or LayerNorm) micro-program end to end
//! — assemble, load, run to `ebreak` — so the measured host time tracks
//! the simulated instruction count, and the generic/specialised ratio
//! mirrors the device-cycle win recorded in `results/TUNING.md`.
//!
//! The factor choices come from the committed `results/TUNED_KERNELS.txt`
//! (via `TunedKernels::embedded()`), i.e. exactly what
//! `InferenceImage::build_a8` emits. Set `KWT_BENCH_SMOKE=1` to run every
//! benchmark exactly once (CI smoke mode).

use criterion::{criterion_group, criterion_main, Criterion};
use kwt_baremetal::specialise::{gemm_sites, TunedKernels};
use kwt_bench::tune::{gemm_micro, ln_micro};
use kwt_model::KwtConfig;
use std::hint::black_box;

fn bench_a8_kernels(c: &mut Criterion) {
    let tuned = TunedKernels::embedded();
    let cfg = KwtConfig::kwt_tiny();

    let mut g = c.benchmark_group("a8_kernels");
    for geom in gemm_sites(&cfg) {
        let label = format!("gemm_{}x{}x{}", geom.m, geom.k, geom.n);
        g.bench_function(&format!("{label}_generic"), |b| {
            b.iter(|| gemm_micro(black_box(&geom), None))
        });
        let factors = tuned.gemm_factors(&geom);
        g.bench_function(&format!("{label}_specialised"), |b| {
            b.iter(|| gemm_micro(black_box(&geom), Some(&factors)))
        });
    }

    let cols = cfg.dim;
    g.bench_function(&format!("ln_cols{cols}_generic"), |b| {
        b.iter(|| ln_micro(black_box(cols), None))
    });
    let lf = tuned.ln_factors(cols);
    g.bench_function(&format!("ln_cols{cols}_specialised"), |b| {
        b.iter(|| ln_micro(black_box(cols), Some(&lf)))
    });
    g.finish();
}

criterion_group!(benches, bench_a8_kernels);
criterion_main!(benches);
