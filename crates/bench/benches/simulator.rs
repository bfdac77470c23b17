//! Simulator throughput: how many simulated instructions per host second
//! the RV32 core sustains (contextualises the Table IX runtimes), with a
//! decode-cache-on/off comparison group for the pre-decode execution
//! cache.
//!
//! Set `KWT_BENCH_SMOKE=1` to run every benchmark exactly once (CI smoke
//! mode).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use kwt_bench::microbench::loop_program;
use kwt_rv32::{Machine, Platform};

fn bench_program(c: &mut Criterion, name: &str, program: &kwt_rvasm::Program) {
    let mut g = c.benchmark_group(format!("rv32_simulator_{name}"));
    // count instructions once
    let mut m = Machine::load(program, Platform::ibex()).unwrap();
    let instructions = m.run(1_000_000).unwrap().instructions;
    g.throughput(Throughput::Elements(instructions));
    g.bench_function("decode_cache_on", |b| {
        b.iter(|| {
            let mut m = Machine::load(program, Platform::ibex()).unwrap();
            m.run(1_000_000).unwrap()
        })
    });
    g.bench_function("decode_cache_off", |b| {
        b.iter(|| {
            let mut m = Machine::load(program, Platform::ibex()).unwrap();
            m.cpu.set_decode_cache_enabled(false);
            m.run(1_000_000).unwrap()
        })
    });
    // Steady-state stepping (machine reused, cache warm) — the regime an
    // inference-length run actually spends its time in.
    let mut warm = Machine::load(program, Platform::ibex()).unwrap();
    g.bench_function("decode_cache_warm_rerun", |b| {
        b.iter(|| {
            warm.reset_cpu();
            warm.run(1_000_000).unwrap()
        })
    });
    g.finish();
}

/// Scalar accelerated vs A8 inference image: one full inference per
/// iteration on a persistent session (warm decode cache), so the
/// measured ratio is the packed-MAC A8 pipeline's end-to-end win.
fn bench_isa_variants(c: &mut Criterion) {
    use kwt_baremetal::InferenceImage;
    use kwt_quant::{Nonlinearity, QuantConfig, QuantizedKwt};
    use kwt_tensor::Mat;
    let params = kwt_bench::enginebench::bench_params();
    let qm = QuantizedKwt::quantize(&params, QuantConfig::paper_best())
        .with_nonlinearity(Nonlinearity::FixedLut);
    let mfcc = Mat::from_fn(26, 16, |r, col| {
        let h = ((r * 16 + col) as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        ((h >> 40) as f32 / (1u64 << 24) as f32 - 0.5) * 10.0
    });
    let mut g = c.benchmark_group("rv32_inference_isa");
    {
        let image = InferenceImage::build_quant(&qm).unwrap();
        let mut session = image.session().unwrap();
        let mut logits = Vec::new();
        g.bench_function("rv32im", |b| {
            b.iter(|| session.run_into(&mfcc, &mut logits).unwrap())
        });
    }
    // the fully-INT8 kdot4 image with the fused attention row pipeline
    {
        use kwt_quant::{A8Config, A8Kwt};
        let a8 = A8Kwt::quantize(&params, A8Config::paper_a8()).unwrap();
        let image = InferenceImage::build_a8(&a8).unwrap();
        let mut session = image.session().unwrap();
        let mut logits = Vec::new();
        g.bench_function("xkwtdot_a8", |b| {
            b.iter(|| session.run_into(&mfcc, &mut logits).unwrap())
        });
    }
    g.finish();
}

fn bench_simulator(c: &mut Criterion) {
    bench_program(c, "arith", &loop_program(false, 2_000));
    bench_program(c, "memory", &loop_program(true, 2_000));
}

criterion_group!(benches, bench_simulator, bench_isa_variants);
criterion_main!(benches);
