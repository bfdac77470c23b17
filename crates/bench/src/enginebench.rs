//! End-to-end engine throughput benchmarks with a machine-readable
//! summary (`BENCH_engine.json`), driven by the `paper bench-engine`
//! target.
//!
//! For each backend, measures clips/second of audio-in → prediction-out
//! classification in three modes:
//!
//! * `one_shot` — the pre-engine seed path: a fresh allocating call chain
//!   per clip (`extract_padded_reference` — the seed's generic-FFT MFCC,
//!   kept as an oracle — + `kwt_model::forward` / `QuantizedKwt::forward`
//!   / `InferenceImage::run`, the last rebuilding the simulator machine
//!   every call);
//! * `scratch_reuse` — `Engine::classify_into` with reused arenas (and,
//!   for the RV32 backend, a persistent warm machine);
//! * `batched` — `Engine::classify_batch_into` over the whole clip set.
//!
//! Each host timing is the median of several batches within a fixed
//! 200 ms budget, recorded with its median absolute deviation where the
//! row has a MAD field; `--smoke` times one call instead (a compile +
//! execute proof whose timings mean nothing).
//!
//! The `sim_dispatch` row times the simulator itself on the A8 image:
//! host ns per thousand retired instructions through `Machine::run`
//! (straight-line block dispatch) and through a plain `Cpu::step` loop,
//! measured in the same run.

use crate::baseline;
use crate::timing::{time_ns, Timing};
use kwt_audio::kwt_tiny_frontend;
use kwt_baremetal::InferenceImage;
use kwt_engine::{Engine, Prediction};
use kwt_model::{KwtConfig, KwtParams};
use kwt_quant::{A8Config, A8Kwt, Nonlinearity, QuantConfig, QuantizedKwt};
use kwt_rv32::{StepOutcome, BANKS};
use serde::Serialize;
use std::hint::black_box;

/// One backend × mode throughput measurement.
#[derive(Debug, Clone, Serialize)]
pub struct EngineRow {
    /// Backend name (`host_float`, `host_quant`, `rv32_sim`).
    pub backend: String,
    /// Mode (`one_shot`, `scratch_reuse`, `batched`).
    pub mode: String,
    /// Clips per measured batch.
    pub clips: usize,
    /// ns per clip (median batch).
    pub ns_per_clip: f64,
    /// Median absolute deviation of the batch ns per clip.
    pub mad_ns_per_clip: f64,
    /// Clips per second.
    pub clips_per_s: f64,
}

/// Simulator dispatch cost on one image: host time per thousand retired
/// instructions through `Machine::run` (block dispatch) and through a
/// `Cpu::step` loop, measured in alternating rounds of the same run
/// (each figure the median over rounds, with the MAD across rounds).
/// Recorded, not gated.
#[derive(Debug, Clone, Serialize)]
pub struct SimDispatchRow {
    /// Image variant (`accel_xkwtdot_a8`).
    pub variant: String,
    /// Instructions retired per inference (identical on both paths).
    pub instructions: u64,
    /// Host ns per thousand instructions through `Machine::run`.
    pub run_ns_per_kinst: f64,
    /// Median absolute deviation of `run_ns_per_kinst`.
    pub run_mad_ns_per_kinst: f64,
    /// Host ns per thousand instructions through a `Cpu::step` loop.
    pub step_ns_per_kinst: f64,
    /// Median absolute deviation of `step_ns_per_kinst`.
    pub step_mad_ns_per_kinst: f64,
    /// Median over alternating measurement rounds of the per-round
    /// `step / run` ns ratio: how many times fewer host ns per
    /// instruction block dispatch spends.
    pub step_over_run: f64,
}

/// Per-backend speedup summary.
#[derive(Debug, Clone, Serialize)]
pub struct EngineSpeedup {
    /// Backend name.
    pub backend: String,
    /// `one_shot` ns / `scratch_reuse` ns.
    pub scratch_reuse_vs_one_shot: f64,
    /// `one_shot` ns / `batched` ns.
    pub batched_vs_one_shot: f64,
}

/// One instruction-class row of the rv32 cycle histogram (paper-style
/// cycles-per-class attribution for the ISA comparison).
#[derive(Debug, Clone, Serialize)]
pub struct CycleClassRow {
    /// Image variant the attribution belongs to (`accel`,
    /// `accel_xkwtdot_a8`).
    pub variant: String,
    /// Instruction class name (see `kwt_rv32::InstClass`).
    pub class: String,
    /// Instructions retired in the class for one inference.
    pub instructions: u64,
    /// Cycles consumed by the class for one inference.
    pub cycles: u64,
}

/// End-to-end simulated-device cycles for one image variant — the
/// paper's "Inference Clock Cycles" metric (its KWT-Tiny trajectory:
/// 26 M float → 13 M quantised → 5.5 M quantised + custom-1; this
/// repro's smaller preset follows the same ordering, and the A8 row
/// extends it).
#[derive(Debug, Clone, Serialize)]
pub struct DeviceCycles {
    /// Image variant (`float`, `quant`, `accel`, `accel_xkwtdot_a8`).
    pub variant: String,
    /// Cycles for one inference.
    pub cycles: u64,
    /// Instructions retired for one inference.
    pub instructions: u64,
}

/// One profiled-region row of an accelerated image: per-kernel cycle
/// attribution (GEMM vs LayerNorm vs attention vs boundaries), so a
/// cycle regression localises to the kernel that caused it.
#[derive(Debug, Clone, Serialize)]
pub struct DeviceKernelRow {
    /// Image variant (`accel`, `accel_xkwtdot_a8`).
    pub variant: String,
    /// Profiled region name (`attn/matmul`, `top/layernorm`, …).
    pub region: String,
    /// Self-cycles attributed to the region for one inference.
    pub cycles: u64,
    /// Region entry count for one inference.
    pub calls: u64,
    /// Share of the inference's total cycles.
    pub percent_of_total: f64,
}

/// One MFCC front-end throughput measurement.
#[derive(Debug, Clone, Serialize)]
pub struct FrontendRow {
    /// Input geometry (`kwt_tiny_16x26` or `kwt1_40x98`).
    pub geometry: String,
    /// Extraction path: `reference` (the seed's f64 generic-FFT oracle)
    /// or `fixed` (the block-vectorised fixed-point pipeline).
    pub path: String,
    /// Clips per measured batch.
    pub clips: usize,
    /// ns per clip of MFCC extraction.
    pub ns_per_clip: f64,
    /// ms per clip (the paper-facing unit; the PR 5 acceptance gate is
    /// `fixed <= 0.1 ms` for the KWT-Tiny geometry).
    pub ms_per_clip: f64,
    /// Throughput multiple over the `reference` row of the same
    /// geometry.
    pub speedup_vs_reference: f64,
}

/// One row of the simulated-cluster scaling table: the tuned A8 image
/// on an N-hart cluster with banked shared memory, measured in
/// **simulated SoC cycles** (deterministic — wall-clock noise never
/// touches these numbers, so they are gateable by `paper
/// check-cluster`).
#[derive(Debug, Clone, Serialize)]
pub struct ClusterRow {
    /// Hart count.
    pub harts: usize,
    /// Shared-memory bank count (word-interleaved, single-cycle).
    pub banks: usize,
    /// Clips pushed through the cluster (waves of `harts`).
    pub clips: usize,
    /// Total SoC cycles to finish all clips.
    pub soc_cycles: u64,
    /// Sequential single-core cycles for the same clips on a serial
    /// `DeviceSession` — the speedup denominator.
    pub serial_cycles: u64,
    /// SoC cycles per clip.
    pub cycles_per_clip: f64,
    /// Clips per million SoC cycles — the cluster-throughput headline.
    pub clips_per_mcycle: f64,
    /// `serial_cycles / soc_cycles`: >1 means the cluster beats the
    /// single core (the PR gate: >= 3x at 4 harts).
    pub speedup_vs_serial: f64,
    /// Mean per-hart utilisation (busy cycles / SoC timeline).
    pub hart_utilisation: f64,
    /// Stall cycles / occupied cycles — the bank-conflict tax.
    pub stall_fraction: f64,
    /// Host ns per hart-instruction to simulate the clips (median over
    /// alternating rounds; 0 when the row was not timed).
    pub host_ns_per_hart_inst: f64,
    /// Median absolute deviation of `host_ns_per_hart_inst` across the
    /// rounds.
    pub host_mad_ns_per_hart_inst: f64,
    /// Median over the rounds of `host_ns_per_hart_inst` divided by the
    /// host ns per instruction of a single-core `Machine::run` over the
    /// same clips in the same round. Recorded, not gated. Both are wall
    /// time, and the cluster runs its harts alone on up to `host_cpus`
    /// threads, so read it against `host_cpus`.
    pub over_single_core: f64,
    /// Host CPUs visible to the process (the thread budget of the
    /// cluster's per-hart runs).
    pub host_cpus: usize,
}

/// The full `BENCH_engine.json` document.
#[derive(Debug, Clone, Serialize)]
pub struct EngineBenchSummary {
    /// Producing command.
    pub generated_by: String,
    /// True when produced by `paper bench-engine --smoke` (timings
    /// meaningless).
    pub smoke: bool,
    /// Raw measurements.
    pub rows: Vec<EngineRow>,
    /// Simulator dispatch cost, block dispatch vs the step loop.
    pub sim_dispatch: Vec<SimDispatchRow>,
    /// MFCC front-end throughput per geometry and path (the PR 5
    /// `fixed`-path budget for KWT-Tiny is 0.1 ms/clip).
    pub frontend: Vec<FrontendRow>,
    /// Per-backend speedups of the engine paths over the seed path.
    pub speedups: Vec<EngineSpeedup>,
    /// Simulated-cluster throughput of the tuned A8 image at 1/2/4/8
    /// harts against the banked shared memory (deterministic SoC
    /// cycles; gated by `paper check-cluster`).
    pub cluster_scaling: Vec<ClusterRow>,
    /// End-to-end device cycles per image variant (paper Table IX
    /// analogue, extended with the A8 row).
    pub device_cycles: Vec<DeviceCycles>,
    /// Per-instruction-class cycle attribution of the accelerated images
    /// (scalar vs A8) — where each win comes from.
    pub rv32_cycle_classes: Vec<CycleClassRow>,
    /// Per-kernel (profiled-region) cycle attribution of the accelerated
    /// images — GEMM vs LayerNorm vs attention vs boundary ops.
    pub device_kernel_cycles: Vec<DeviceKernelRow>,
}

/// Deterministic benchmark clips (1 s at 16 kHz): tone pairs + noise, the
/// same family the engine equivalence tests use.
pub fn bench_clips(n: usize) -> Vec<Vec<f32>> {
    (0..n as u64)
        .map(|seed| {
            (0..16_000u64)
                .map(|i| {
                    let t = i as f64 / 16_000.0;
                    let h = (i ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                        .wrapping_mul(0x2545_F491_4F6C_DD1D);
                    let noise = ((h >> 40) as f64 / (1u64 << 24) as f64) - 0.5;
                    (0.5 * (2.0 * std::f64::consts::PI * (220.0 + 40.0 * seed as f64) * t).sin()
                        + 0.05 * noise) as f32
                })
                .collect()
        })
        .collect()
}

/// The features every `device_cycles` row runs on: the first bench clip
/// through the f64 reference front end. `paper bench-engine` records the
/// rows on them and `paper check-cycles` re-measures on them, so even
/// the images whose cycle counts depend on the data compare exactly.
pub fn device_cycles_input(fe: &kwt_audio::MfccExtractor) -> kwt_tensor::Mat<f32> {
    fe.extract_padded_reference(&bench_clips(1)[0])
        .expect("mfcc")
}

/// The benchmark model: KWT-Tiny weights shrunk into a realistic
/// post-training range (throughput does not depend on training).
pub fn bench_params() -> KwtParams {
    let mut p = KwtParams::init(KwtConfig::kwt_tiny(), 77).expect("valid preset");
    p.visit_mut(|s| {
        for v in s {
            *v *= 0.6;
        }
    });
    p
}

struct BackendBench {
    backend: &'static str,
    clips: Vec<Vec<f32>>,
    one_shot: Timing,
    scratch: Timing,
    batched: Timing,
}

fn measure(
    smoke: bool,
    backend: &'static str,
    clips: Vec<Vec<f32>>,
    mut one_shot: impl FnMut(&[f32]),
    engine: &mut Engine,
) -> BackendBench {
    let n = clips.len() as f64;
    let one_shot = time_ns(smoke, || {
        for c in &clips {
            one_shot(black_box(c));
        }
    })
    .per(n);
    let mut pred = Prediction::default();
    // warm the arenas before timing the steady state
    for c in &clips {
        engine.classify_into(c, &mut pred).expect("classify");
    }
    let scratch = time_ns(smoke, || {
        for c in &clips {
            engine
                .classify_into(black_box(c), &mut pred)
                .expect("classify");
        }
    })
    .per(n);
    let mut out = Vec::new();
    engine.classify_batch_into(&clips, &mut out).expect("batch");
    let batched = time_ns(smoke, || {
        engine
            .classify_batch_into(black_box(&clips), &mut out)
            .expect("batch");
    })
    .per(n);
    BackendBench {
        backend,
        clips,
        one_shot,
        scratch,
        batched,
    }
}

/// Runs every backend × mode measurement and returns the summary; `smoke`
/// times each with a single call.
pub fn collect(smoke: bool) -> EngineBenchSummary {
    // clips for the (slow) rv32 rows; the count is recorded per row
    let rv32_clips = if smoke { 2 } else { 3 };
    let params = bench_params();
    let qm = QuantizedKwt::quantize(&params, QuantConfig::paper_best());
    let accel = qm.clone().with_nonlinearity(Nonlinearity::FixedLut);
    let image = InferenceImage::build_quant(&accel).expect("image builds");
    let a8 = A8Kwt::quantize(&params, A8Config::paper_a8()).expect("a8 exponents valid");
    let a8image = InferenceImage::build_a8(&a8).expect("a8 image builds");
    let fe = kwt_tiny_frontend().expect("preset is valid");

    let mut benches = Vec::new();

    // host_float: seed path = extract_padded + forward (packs per call).
    {
        let clips = bench_clips(8);
        let mut engine = Engine::host_float(params.clone(), fe.clone()).expect("engine");
        let p = params.clone();
        let f = fe.clone();
        benches.push(measure(
            smoke,
            "host_float",
            clips,
            move |c| {
                let mfcc = f.extract_padded_reference(c).expect("mfcc");
                black_box(kwt_model::forward(&p, &mfcc).expect("forward"));
            },
            &mut engine,
        ));
    }

    // host_quant: seed path = extract_padded + QuantizedKwt::forward
    // (fresh activation buffers per call).
    {
        let clips = bench_clips(8);
        let mut engine = Engine::host_quant(qm.clone(), fe.clone()).expect("engine");
        let q = qm.clone();
        let f = fe.clone();
        benches.push(measure(
            smoke,
            "host_quant",
            clips,
            move |c| {
                let mfcc = f.extract_padded_reference(c).expect("mfcc");
                black_box(q.forward(&mfcc).expect("forward"));
            },
            &mut engine,
        ));
    }

    // rv32_sim: seed path = InferenceImage::run — a fresh Machine::load
    // and a cold decode cache per clip.
    {
        let clips = bench_clips(rv32_clips);
        let mut engine = Engine::rv32_sim(&image, fe.clone()).expect("engine");
        let f = fe.clone();
        let img = image.clone();
        benches.push(measure(
            smoke,
            "rv32_sim",
            clips,
            move |c| {
                let mfcc = f.extract_padded_reference(c).expect("mfcc");
                black_box(img.run(&mfcc).expect("device run"));
            },
            &mut engine,
        ));
    }

    // rv32_sim_a8: the fully-INT8 kdot4 image with the fused attention
    // row pipeline (numerics differ from the i16 path; logits are
    // bit-identical to the host A8 golden model instead).
    {
        let clips = bench_clips(rv32_clips);
        let mut engine = Engine::rv32_sim(&a8image, fe.clone()).expect("engine");
        let f = fe.clone();
        let img = a8image.clone();
        benches.push(measure(
            smoke,
            "rv32_sim_a8",
            clips,
            move |c| {
                let mfcc = f.extract_padded_reference(c).expect("mfcc");
                black_box(img.run(&mfcc).expect("device run"));
            },
            &mut engine,
        ));
    }

    let mut rows = Vec::new();
    let mut speedups = Vec::new();
    for b in &benches {
        for (mode, t) in [
            ("one_shot", b.one_shot),
            ("scratch_reuse", b.scratch),
            ("batched", b.batched),
        ] {
            rows.push(EngineRow {
                backend: b.backend.to_string(),
                mode: mode.to_string(),
                clips: b.clips.len(),
                ns_per_clip: t.ns,
                mad_ns_per_clip: t.mad_ns,
                clips_per_s: 1e9 / t.ns,
            });
        }
        speedups.push(EngineSpeedup {
            backend: b.backend.to_string(),
            scratch_reuse_vs_one_shot: b.one_shot.ns / b.scratch.ns,
            batched_vs_one_shot: b.one_shot.ns / b.batched.ns,
        });
    }
    // MFCC front-end throughput: the f64 oracle vs the fixed-point block
    // pipeline on both paper geometries.
    let mut frontend = Vec::new();
    {
        use kwt_audio::{kwt1_frontend, MfccScratch};
        use kwt_tensor::Mat;
        let clips = bench_clips(8);
        for (geometry, fe) in [
            ("kwt_tiny_16x26", kwt_tiny_frontend().expect("preset")),
            ("kwt1_40x98", kwt1_frontend().expect("preset")),
        ] {
            let mut scratch = MfccScratch::new();
            let mut feat = Mat::default();
            // warm the arenas, then measure each path per clip
            for c in &clips {
                fe.extract_padded_into(c, &mut feat, &mut scratch)
                    .expect("mfcc");
            }
            let per_clip = |t: Timing| t.ns / clips.len() as f64;
            let reference_ns = per_clip(time_ns(smoke, || {
                for c in &clips {
                    black_box(fe.extract_padded_reference(black_box(c)).expect("mfcc"));
                }
            }));
            let fixed_ns = per_clip(time_ns(smoke, || {
                for c in &clips {
                    fe.extract_padded_into(black_box(c), &mut feat, &mut scratch)
                        .expect("mfcc");
                    black_box(&feat);
                }
            }));
            for (path, ns) in [("reference", reference_ns), ("fixed", fixed_ns)] {
                frontend.push(FrontendRow {
                    geometry: geometry.to_string(),
                    path: path.to_string(),
                    clips: clips.len(),
                    ns_per_clip: ns,
                    ms_per_clip: ns / 1e6,
                    speedup_vs_reference: reference_ns / ns,
                });
            }
        }
    }

    let sim_dispatch = vec![collect_sim_dispatch(smoke, &a8image, &fe)];

    // simulated-cluster scaling: the tuned A8 image at 1/2/4/8 harts
    // against the banked shared memory, in deterministic SoC cycles, with
    // the host cost of simulating it
    let cluster_scaling = collect_cluster(&a8image, &fe, Some(smoke));

    // device-side cycle metrics: one inference per image variant, plus
    // the per-class attribution for the accelerated-image comparison.
    let mfcc = device_cycles_input(&fe);
    let mut device_cycles = Vec::new();
    let mut rv32_cycle_classes = Vec::new();
    let mut device_kernel_cycles = Vec::new();
    let float_image = InferenceImage::build_float(&params).expect("float image");
    let quant_image = InferenceImage::build_quant(&qm).expect("quant image");
    for (variant, img) in [
        ("float", &float_image),
        ("quant", &quant_image),
        ("accel", &image),
        ("accel_xkwtdot_a8", &a8image),
    ] {
        let mut session = img.session().expect("session");
        session.set_class_histogram_enabled(true);
        let (_, run) = session.run(&mfcc).expect("device run");
        device_cycles.push(DeviceCycles {
            variant: variant.to_string(),
            cycles: run.cycles,
            instructions: run.instructions,
        });
        if variant.starts_with("accel") {
            for (class, instructions, cycles) in session.machine().class_histogram().rows() {
                rv32_cycle_classes.push(CycleClassRow {
                    variant: variant.to_string(),
                    class: class.name().to_string(),
                    instructions,
                    cycles,
                });
            }
            let report = session.machine().profile_report();
            for (region, cycles, calls) in &report.regions {
                device_kernel_cycles.push(DeviceKernelRow {
                    variant: variant.to_string(),
                    region: region.clone(),
                    cycles: *cycles,
                    calls: *calls,
                    percent_of_total: 100.0 * *cycles as f64 / report.total_cycles.max(1) as f64,
                });
            }
        }
    }

    EngineBenchSummary {
        generated_by: "paper bench-engine".to_string(),
        smoke,
        rows,
        sim_dispatch,
        frontend,
        speedups,
        cluster_scaling,
        device_cycles,
        rv32_cycle_classes,
        device_kernel_cycles,
    }
}

/// Times one A8 inference through `Machine::run` and through a
/// hand-written `Cpu::step` loop on the same warm machine (input
/// mailbox written, decode cache filled), as host ns per thousand
/// retired instructions.
pub fn collect_sim_dispatch(
    smoke: bool,
    a8image: &InferenceImage,
    fe: &kwt_audio::MfccExtractor,
) -> SimDispatchRow {
    let mfcc = device_cycles_input(fe);
    let mut session = a8image.session().expect("session");
    let mut logits = Vec::new();
    let instructions = session
        .run_into(&mfcc, &mut logits)
        .expect("device run")
        .instructions;
    let mut machine = session.machine().clone();
    let kinst = instructions as f64 / 1e3;
    // alternate the two paths so a host slowdown hits both alike; the
    // ratio is the median of the per-round ratios
    let (mut run, mut step, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..if smoke { 1 } else { SIM_DISPATCH_ROUNDS } {
        let r = time_ns(smoke, || {
            machine.reset_cpu();
            machine.run(u64::MAX).expect("device run")
        })
        .per(kinst);
        let s = time_ns(smoke, || {
            machine.reset_cpu();
            while machine.cpu.step().expect("device step") == StepOutcome::Continue {}
        })
        .per(kinst);
        ratios.push(s.ns / r.ns);
        run.push(r.ns);
        step.push(s.ns);
    }
    let (run, step) = (Timing::of(&mut run), Timing::of(&mut step));
    SimDispatchRow {
        variant: "accel_xkwtdot_a8".to_string(),
        instructions,
        run_ns_per_kinst: run.ns,
        run_mad_ns_per_kinst: run.mad_ns,
        step_ns_per_kinst: step.ns,
        step_mad_ns_per_kinst: step.mad_ns,
        step_over_run: Timing::of(&mut ratios).ns,
    }
}

/// Alternating run/step measurement rounds of the `sim_dispatch` row.
const SIM_DISPATCH_ROUNDS: usize = 9;

/// Alternating cluster/single-core measurement rounds of the
/// `cluster_scaling` host timings.
const CLUSTER_TIMING_ROUNDS: usize = 5;

/// Measures the simulated-cluster scaling table: the tuned A8 image
/// pushed through 1/2/4/8-hart clusters in waves (one clip per hart
/// mailbox), against a sequential single-core `DeviceSession` baseline
/// over the same clips. The simulated cycles are bit-reproducible run to
/// run. `timing` is `Some(smoke)` to also time the host cost per
/// hart-instruction against single-core `Machine::run` in alternating
/// rounds (one round of single calls when `smoke`); with `None` the
/// host fields stay 0.
pub fn collect_cluster(
    a8image: &InferenceImage,
    fe: &kwt_audio::MfccExtractor,
    timing: Option<bool>,
) -> Vec<ClusterRow> {
    use kwt_audio::MfccScratch;
    use kwt_tensor::Mat;
    let clips = bench_clips(8);
    let mut scratch = MfccScratch::new();
    let mut mfccs = Vec::new();
    for c in &clips {
        let mut m = Mat::default();
        fe.extract_padded_into(c, &mut m, &mut scratch)
            .expect("mfcc");
        mfccs.push(m);
    }

    // sequential single-core baseline: one serial session, back to back
    let mut session = a8image.session().expect("serial session");
    let mut logits = Vec::new();
    let mut serial_cycles = 0u64;
    for m in &mfccs {
        serial_cycles += session.run_into(m, &mut logits).expect("serial run").cycles;
    }

    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut rows = Vec::new();
    for harts in [1usize, 2, 4, 8] {
        let mut cs = a8image.cluster_session(harts).expect("cluster session");
        let pass = cluster_pass(&mut cs, &mfccs);
        let (soc, busy, stalled) = (pass.soc_cycles, pass.busy_cycles, pass.stall_cycles);
        let host = timing.map_or(HostCost::default(), |smoke| {
            time_cluster(smoke, &mut cs, &mut session, &mfccs)
        });
        rows.push(ClusterRow {
            harts,
            banks: BANKS,
            clips: mfccs.len(),
            soc_cycles: soc,
            serial_cycles,
            cycles_per_clip: soc as f64 / mfccs.len() as f64,
            clips_per_mcycle: mfccs.len() as f64 * 1e6 / soc as f64,
            speedup_vs_serial: serial_cycles as f64 / soc as f64,
            hart_utilisation: busy as f64 / (soc as f64 * harts as f64),
            stall_fraction: stalled as f64 / (busy + stalled).max(1) as f64,
            host_ns_per_hart_inst: host.per_inst.ns,
            host_mad_ns_per_hart_inst: host.per_inst.mad_ns,
            over_single_core: host.over_single_core,
            host_cpus,
        });
    }
    rows
}

/// Totals of one [`cluster_pass`].
#[derive(Debug, Clone, Copy, Default)]
struct ClusterPass {
    soc_cycles: u64,
    busy_cycles: u64,
    stall_cycles: u64,
    instructions: u64,
}

/// Pushes every clip through the cluster in waves of its hart count.
fn cluster_pass(
    cs: &mut kwt_baremetal::ClusterSession,
    mfccs: &[kwt_tensor::Mat<f32>],
) -> ClusterPass {
    let mut pass = ClusterPass::default();
    for wave_clips in mfccs.chunks(cs.num_harts()) {
        for (h, m) in wave_clips.iter().enumerate() {
            cs.load_clip(h, m).expect("load clip");
        }
        let wave = cs.run_loaded(wave_clips.len());
        assert!(
            kwt_baremetal::cluster::wave_all_ok(wave),
            "cluster bench wave must not fault"
        );
        pass.soc_cycles += wave.soc_cycles;
        for s in &wave.stats {
            pass.busy_cycles += s.busy_cycles;
            pass.stall_cycles += s.stall_cycles;
            pass.instructions += s.instructions;
        }
    }
    pass
}

/// The host cost of one `cluster_scaling` row.
#[derive(Debug, Clone, Copy, Default)]
struct HostCost {
    per_inst: Timing,
    over_single_core: f64,
}

/// Times every clip through the cluster in waves and, alternately,
/// through the single-core `session`, as host ns per retired
/// (hart-)instruction: the median and MAD over the rounds, and the
/// median of the per-round ratios.
fn time_cluster(
    smoke: bool,
    cs: &mut kwt_baremetal::ClusterSession,
    session: &mut kwt_baremetal::DeviceSession,
    mfccs: &[kwt_tensor::Mat<f32>],
) -> HostCost {
    let mut clustered = || cluster_pass(cs, mfccs).instructions;
    let mut logits = Vec::new();
    let mut serial_pass = || {
        mfccs
            .iter()
            .map(|m| {
                session
                    .run_into(m, &mut logits)
                    .expect("serial run")
                    .instructions
            })
            .sum::<u64>()
    };
    let (hart_insts, insts) = (clustered() as f64, serial_pass() as f64);
    let (mut cluster, mut ratios) = (Vec::new(), Vec::new());
    for _ in 0..if smoke { 1 } else { CLUSTER_TIMING_ROUNDS } {
        let c = time_ns(smoke, &mut clustered).per(hart_insts);
        let s = time_ns(smoke, &mut serial_pass).per(insts);
        ratios.push(c.ns / s.ns);
        cluster.push(c.ns);
    }
    HostCost {
        per_inst: Timing::of(&mut cluster),
        over_single_core: Timing::of(&mut ratios).ns,
    }
}

/// Runs [`collect`], writes `BENCH_engine.json` to the working directory,
/// and returns a human-readable table.
pub fn run_and_write(smoke: bool) -> String {
    let summary = collect(smoke);
    baseline::ENGINE.write(&serde_json::to_string_pretty(&summary).expect("summary serializes"));
    let mut out = format!("# bench-engine (written to {})\n", baseline::ENGINE.path);
    out.push_str("clips/sec, audio in -> prediction out:\n");
    for r in &summary.rows {
        out.push_str(&format!(
            "  {:<12} {:<14} {:>12.0} ± {:<9.0} ns/clip  {:>10.1} clips/s\n",
            r.backend, r.mode, r.ns_per_clip, r.mad_ns_per_clip, r.clips_per_s
        ));
    }
    out.push_str("simulator dispatch, host ns per thousand instructions:\n");
    for d in &summary.sim_dispatch {
        out.push_str(&format!(
            "  {:<16} run {:>8.0} ± {:.0}   step {:>8.0} ± {:.0}   {:.2}x fewer via run\n",
            d.variant,
            d.run_ns_per_kinst,
            d.run_mad_ns_per_kinst,
            d.step_ns_per_kinst,
            d.step_mad_ns_per_kinst,
            d.step_over_run
        ));
    }
    out.push_str("mfcc front end, ms/clip (PR 5 budget: fixed <= 0.1 ms on kwt_tiny):\n");
    for r in &summary.frontend {
        out.push_str(&format!(
            "  {:<15} {:<10} {:>10.4} ms/clip  {:>6.2}x vs reference\n",
            r.geometry, r.path, r.ms_per_clip, r.speedup_vs_reference
        ));
    }
    out.push_str("engine vs one-shot seed path:\n");
    for s in &summary.speedups {
        out.push_str(&format!(
            "  {:<17} scratch-reuse {:.2}x   batched {:.2}x\n",
            s.backend, s.scratch_reuse_vs_one_shot, s.batched_vs_one_shot
        ));
    }
    out.push_str("simulated cluster, tuned A8 image (clips/SoC-cycle; gate: >=3x at 4 harts):\n");
    for c in &summary.cluster_scaling {
        out.push_str(&format!(
            "  {} harts x {} banks ({} clips) {:>12} soc cycles  {:>7.3} clips/Mcycle  \
             {:.2}x vs serial  util {:.2}  stalls {:.3}  host {:.1} ± {:.1} ns/hart-inst \
             ({:.2}x single-core, {} cpus)\n",
            c.harts,
            c.banks,
            c.clips,
            c.soc_cycles,
            c.clips_per_mcycle,
            c.speedup_vs_serial,
            c.hart_utilisation,
            c.stall_fraction,
            c.host_ns_per_hart_inst,
            c.host_mad_ns_per_hart_inst,
            c.over_single_core,
            c.host_cpus
        ));
    }
    out.push_str(
        "device cycles per inference (paper trajectory: 26M float -> 13M quant -> 5.5M accel):\n",
    );
    for d in &summary.device_cycles {
        out.push_str(&format!(
            "  {:<16} {:>12} cycles {:>12} instructions\n",
            d.variant, d.cycles, d.instructions
        ));
    }
    out.push_str("accel image cycles by instruction class (scalar vs A8):\n");
    for c in &summary.rv32_cycle_classes {
        out.push_str(&format!(
            "  {:<16} {:<12} {:>12} instructions {:>12} cycles\n",
            c.variant, c.class, c.instructions, c.cycles
        ));
    }
    out.push_str("accel image cycles by kernel region (GEMM vs LayerNorm vs attention):\n");
    for k in &summary.device_kernel_cycles {
        out.push_str(&format!(
            "  {:<16} {:<16} {:>12} cycles {:>6} calls {:>6.1}%\n",
            k.variant, k.region, k.cycles, k.calls, k.percent_of_total
        ));
    }
    if summary.smoke {
        out.push_str("(smoke mode: single-iteration timings, not meaningful)\n");
    }
    out
}
