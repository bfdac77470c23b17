//! One generator function per paper table/figure.

use crate::baseline;
use kwt_baremetal::InferenceImage;
use kwt_dataset::{GscConfig, MfccDataset, Split, SyntheticGsc};
use kwt_hw::AreaModel;
use kwt_model::{KwtConfig, KwtParams};
use kwt_quant::{gelu_opt, sweep, LutSet, Nonlinearity, QuantConfig, QuantizedKwt};
use kwt_rv32::Platform;
use kwt_tensor::math::gelu_exact;
use kwt_train::{evaluate, TrainConfig, Trainer};
use std::path::PathBuf;

/// Shared experiment state: cache locations and effort level.
#[derive(Debug, Clone)]
pub struct ExpContext {
    /// Run the expensive variants (KWT-1 training).
    pub full: bool,
    /// Directory for cached models / results.
    pub results_dir: PathBuf,
}

impl Default for ExpContext {
    fn default() -> Self {
        ExpContext {
            full: false,
            results_dir: PathBuf::from("results"),
        }
    }
}

impl ExpContext {
    fn cache_path(&self, name: &str) -> PathBuf {
        self.results_dir.join(name)
    }

    /// Trains (or loads from cache) KWT-Tiny on the paper-difficulty
    /// binary task, returning the parameters and its test split.
    pub fn trained_tiny(&self) -> (KwtParams, MfccDataset) {
        std::fs::create_dir_all(&self.results_dir).ok();
        let ds = SyntheticGsc::new(GscConfig::paper_binary());
        let fe = kwt_audio::kwt_tiny_frontend().expect("preset is valid");
        let test = ds.materialize(Split::Test, &fe).expect("mfcc");
        let cache = self.cache_path("kwt_tiny_trained.json");
        if let Ok(params) = KwtParams::load_json(&cache) {
            if params.config == KwtConfig::kwt_tiny() {
                return (params, test);
            }
        }
        eprintln!("[exp] training KWT-Tiny (cached at {cache:?})...");
        let train = ds.materialize(Split::Train, &fe).expect("mfcc");
        let val = ds.materialize(Split::Val, &fe).expect("mfcc");
        let mut trainer = Trainer::new(
            KwtParams::init(KwtConfig::kwt_tiny(), 42).expect("valid config"),
            TrainConfig {
                epochs: 30,
                ..TrainConfig::default()
            },
        );
        trainer.fit(&train, &val).expect("training");
        let params = trainer.into_params();
        params.save_json(&cache).ok();
        (params, test)
    }

    /// Trains (or loads) the budgeted KWT-1 on the 35-way task. Only in
    /// `--full` mode; returns `None` otherwise.
    pub fn trained_kwt1(&self) -> Option<(KwtParams, MfccDataset)> {
        if !self.full {
            return None;
        }
        std::fs::create_dir_all(&self.results_dir).ok();
        let ds = SyntheticGsc::new(GscConfig::paper_all_keywords());
        let fe = kwt_audio::kwt1_frontend().expect("preset is valid");
        let test = ds.materialize(Split::Test, &fe).expect("mfcc");
        let cache = self.cache_path("kwt1_trained.json");
        if let Ok(params) = KwtParams::load_json(&cache) {
            if params.config == KwtConfig::kwt1() {
                return Some((params, test));
            }
        }
        eprintln!("[exp] training KWT-1 (budgeted, this takes minutes)...");
        let train = ds.materialize(Split::Train, &fe).expect("mfcc");
        let val = ds.materialize(Split::Val, &fe).expect("mfcc");
        let mut trainer = Trainer::new(
            KwtParams::init(KwtConfig::kwt1(), 42).expect("valid config"),
            TrainConfig {
                epochs: 4,
                batch_size: 16,
                verbose: true,
                ..TrainConfig::default()
            },
        );
        trainer.fit(&train, &val).expect("training");
        let params = trainer.into_params();
        params.save_json(&cache).ok();
        Some((params, test))
    }
}

fn markdown_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut s = String::new();
    s.push_str(&format!("| {} |\n", header.join(" | ")));
    s.push_str(&format!("|{}\n", "---|".repeat(header.len())));
    for row in rows {
        s.push_str(&format!("| {} |\n", row.join(" | ")));
    }
    s
}

/// Table I — KWT-1 model specifications.
pub fn table1(_ctx: &ExpContext) -> String {
    let c = KwtConfig::kwt1();
    let rows = vec![
        vec![
            "# Parameters".into(),
            format!("{} (paper: 607k)", c.param_count()),
        ],
        vec!["Output Classes".into(), c.num_classes.to_string()],
        vec![
            "Accuracy".into(),
            "96.9% on real GSC (paper); see table4 for the synthetic substitute".into(),
        ],
    ];
    format!(
        "## Table I — KWT-1 specifications\n\n{}",
        markdown_table(&["Attribute", "Specification"], &rows)
    )
}

/// Table II — platform specifications.
pub fn table2(_ctx: &ExpContext) -> String {
    let p = Platform::ibex();
    let rows = vec![
        vec!["RAM".into(), format!("{} kB", p.ram_size / 1024)],
        vec![
            "Clock Speed".into(),
            format!("{} MHz", p.clock_hz / 1_000_000),
        ],
        vec![
            "FPU".into(),
            "Not Available (soft-float in generated code)".into(),
        ],
    ];
    format!(
        "## Table II — lowRISC Ibex platform\n\n{}",
        markdown_table(&["Attribute", "Specification"], &rows)
    )
}

/// Table III — KWT-Tiny vs KWT-1 hyper-parameters.
pub fn table3(_ctx: &ExpContext) -> String {
    let k1 = KwtConfig::kwt1();
    let kt = KwtConfig::kwt_tiny();
    let rows = vec![
        vec![
            "INPUT_DIM".into(),
            format!("[{}, {}]", k1.input_freq, k1.input_time),
            format!("[{}, {}]", kt.input_freq, kt.input_time),
        ],
        vec![
            "PATCH_DIM".into(),
            format!("[{}, 1]", k1.input_freq),
            format!("[{}, 1]", kt.input_freq),
        ],
        vec!["DIM".into(), k1.dim.to_string(), kt.dim.to_string()],
        vec!["DEPTH".into(), k1.depth.to_string(), kt.depth.to_string()],
        vec!["HEADS".into(), k1.heads.to_string(), kt.heads.to_string()],
        vec![
            "MLP_DIM".into(),
            k1.mlp_dim.to_string(),
            kt.mlp_dim.to_string(),
        ],
        vec![
            "DIM_HEAD".into(),
            k1.dim_head.to_string(),
            kt.dim_head.to_string(),
        ],
        vec![
            "SEQLEN".into(),
            k1.seqlen().to_string(),
            kt.seqlen().to_string(),
        ],
        vec![
            "OUTPUT CLASSES".into(),
            k1.num_classes.to_string(),
            kt.num_classes.to_string(),
        ],
    ];
    format!(
        "## Table III — KWT-Tiny vs KWT-1\n\n{}",
        markdown_table(&["Attribute", "KWT-1", "KWT-Tiny"], &rows)
    )
}

/// Table IV — parameters / memory / accuracy.
pub fn table4(ctx: &ExpContext) -> String {
    let k1 = KwtConfig::kwt1();
    let kt = KwtConfig::kwt_tiny();
    let (tiny, test) = ctx.trained_tiny();
    let (tiny_acc, _) = evaluate(&tiny, &test).expect("eval");
    let kwt1_acc = ctx
        .trained_kwt1()
        .map(|(p, t)| evaluate(&p, &t).expect("eval").0);
    let acc1_str = match kwt1_acc {
        Some(a) => format!("{:.1}% (synthetic 35-way; paper: 96.9% on GSC)", a * 100.0),
        None => "not trained in quick mode (--full); paper: 96.9%".into(),
    };
    let ratio = k1.param_count() as f64 / kt.param_count() as f64;
    let rows = vec![
        vec![
            "# Parameters".into(),
            k1.param_count().to_string(),
            kt.param_count().to_string(),
            format!("{:.0}x smaller", ratio),
        ],
        vec![
            "Memory use (float)".into(),
            format!("{:.2} MB", k1.memory_bytes_f32() as f64 / 1e6),
            format!("{:.3} kB", kt.memory_bytes_f32() as f64 / 1e3),
            "paper: 2.42 MB -> 6.584 kB".into(),
        ],
        vec![
            "Accuracy".into(),
            acc1_str,
            format!("{:.1}% (paper: 87.2%)", tiny_acc * 100.0),
            "2-class synthetic task".into(),
        ],
    ];
    format!(
        "## Table IV — KWT-Tiny vs KWT-1 accuracy/size\n\n{}",
        markdown_table(&["Attribute", "KWT-1", "KWT-Tiny", "Notes"], &rows)
    )
}

/// Table V — quantisation scale-factor sweep.
///
/// The paper's (64, 64) collapse comes from INT16 overflow: their raw
/// MFCCs reach magnitudes of a few hundred, so `x * 64` saturates the
/// 16-bit residuals. Our synthetic front end produces |MFCC| < ~30, so
/// the same mechanism fires at larger input scales — the extended rows
/// below locate it.
pub fn table5(ctx: &ExpContext) -> String {
    let (tiny, test) = ctx.trained_tiny();
    let mut pairs = sweep::PAPER_TABLE5_PAIRS.to_vec();
    pairs.extend_from_slice(&[(64, 1024), (64, 4096), (64, 16384)]);
    let rows = sweep::scale_sweep(&tiny, &test, &pairs, Nonlinearity::FloatExact).expect("sweep");
    let paper = [
        Some(60.3),
        Some(71.0),
        Some(77.3),
        Some(82.5),
        Some(65.2),
        None,
        None,
        None,
    ];
    let table: Vec<Vec<String>> = rows
        .iter()
        .zip(paper)
        .map(|(r, p)| {
            vec![
                r.weight_factor.to_string(),
                r.input_factor.to_string(),
                format!("{:.1}%", r.accuracy * 100.0),
                p.map_or("- (extended)".to_string(), |v| format!("{v}%")),
                r.saturations.to_string(),
            ]
        })
        .collect();
    format!(
        "## Table V — KWT-Tiny-Q accuracy vs scale factors\n\n{}\nThe paper's 64/64 collapse is INT16 overflow; with our smaller-magnitude\nsynthetic MFCCs the identical mechanism appears at the extended input\nscales above (watch the saturation counts).\n",
        markdown_table(
            &["Weight scale", "Input scale", "Accuracy (ours)", "Accuracy (paper)", "Saturations"],
            &table
        )
    )
}

/// Table VI — the tensor library (API parity listing).
pub fn table6(_ctx: &ExpContext) -> String {
    let rows = vec![
        vec![
            "computeMeanAndVariance()".into(),
            "kwt_tensor::ops::compute_mean_and_variance".into(),
        ],
        vec![
            "layerNorm()".into(),
            "kwt_tensor::ops::layer_norm / baremetal k_layer_norm_f32".into(),
        ],
        vec![
            "matrixMultiply()".into(),
            "kwt_tensor::ops::matrix_multiply / baremetal k_matmul_*".into(),
        ],
        vec![
            "Softmax()".into(),
            "kwt_tensor::ops::softmax_normalized / k_softmax_f32 / k_softmax_accel".into(),
        ],
        vec![
            "gelu()".into(),
            "kwt_tensor::math::gelu_exact / k_gelu_f32 / k_gelu_accel".into(),
        ],
        vec!["linear()".into(), "kwt_tensor::ops::linear".into()],
        vec![
            "splitIntoQKV()".into(),
            "kwt_tensor::ops::split_into_qkv / k_copy_strided".into(),
        ],
        vec![
            "scaledDotProductAttention()".into(),
            "kwt_tensor::ops::scaled_dot_product_attention / k_attention_*".into(),
        ],
    ];
    format!(
        "## Table VI — transformer tensor library\n\n{}",
        markdown_table(&["Paper method", "This repository"], &rows)
    )
}

/// Table VII — custom instruction behaviours (decode check).
pub fn table7(_ctx: &ExpContext) -> String {
    use kwt_rvasm::{CustomOp, Inst, Reg};
    let rows: Vec<Vec<String>> = [
        (CustomOp::Exp, "LUT e^-X (Q8.24)"),
        (CustomOp::Invert, "LUT 1/X (Q8.24)"),
        (CustomOp::Gelu, "LUT GELU(X) (Q8.24)"),
        (CustomOp::ToFixed, "float -> Q8.24"),
        (CustomOp::ToFloat, "Q8.24 -> float"),
    ]
    .into_iter()
    .map(|(op, desc)| {
        let word = Inst::Custom {
            op,
            rd: Reg::A0,
            rs1: Reg::A1,
            rs2: Reg::Zero,
        }
        .encode();
        vec![
            format!("3'b{:03b}", op as u8),
            format!("ALU_{:?}", op).to_uppercase(),
            desc.to_string(),
            format!("{word:#010x} (opcode 0b0101011)"),
        ]
    })
    .collect();
    format!(
        "## Table VII — custom-1 instruction behaviours\n\n{}",
        markdown_table(
            &["funct3", "Operator", "Behaviour", "Example encoding"],
            &rows
        )
    )
}

/// Table VIII — synthesis area model.
pub fn table8(_ctx: &ExpContext) -> String {
    let model = AreaModel::paper();
    let rows: Vec<Vec<String>> = model
        .table8()
        .iter()
        .map(|r| {
            vec![
                r.attribute.to_string(),
                r.baseline.to_string(),
                r.modified.to_string(),
                format!("{:+.1}%", r.overhead_percent()),
            ]
        })
        .collect();
    format!(
        "## Table VIII — area model (synthesis substitute)\n\n{}\nCombined logic overhead (dLUT+dFF)/(LUT+FF): **{:.1}%** (paper: ~29%).\nLUT ROM bytes: {} (paper: 2.69 kB).\n",
        markdown_table(&["Attribute", "Baseline Ibex", "Modified Ibex", "Overhead"], &rows),
        model.overhead_percent(),
        model.rom_bytes(),
    )
}

/// Builds the three images from the trained tiny model.
fn built_images(ctx: &ExpContext) -> (KwtParams, MfccDataset, [InferenceImage; 3]) {
    let (tiny, test) = ctx.trained_tiny();
    let float_img = InferenceImage::build_float(&tiny).expect("float image");
    let qm = QuantizedKwt::quantize(&tiny, QuantConfig::paper_best());
    let quant_img = InferenceImage::build_quant(&qm).expect("quant image");
    let accel_img = InferenceImage::build_quant(&qm.with_nonlinearity(Nonlinearity::FixedLut))
        .expect("accel image");
    (tiny, test, [float_img, quant_img, accel_img])
}

/// A8-vs-i16 top-1 agreement gate (wired into `scripts/verify.sh`): the
/// fully-INT8 pipeline must agree with the i16 quantised path on ≥ 99 %
/// of the synthetic GSC test split. Also cross-checks that the A8
/// *device* image reproduces the host golden model bit-for-bit on a few
/// clips, so the CI smoke covers the whole A8 stack end to end.
///
/// # Panics
///
/// Panics (failing the verify run) if agreement drops below 99 % or a
/// device logit diverges from the host model.
pub fn check_a8(ctx: &ExpContext) -> String {
    use kwt_quant::{A8Config, A8Kwt};
    let params = crate::enginebench::bench_params();
    let i16m = QuantizedKwt::quantize(&params, QuantConfig::paper_best());
    let a8 = A8Kwt::quantize(&params, A8Config::paper_a8()).expect("a8 exponents valid");
    let ds = SyntheticGsc::new(GscConfig::paper_binary());
    let fe = kwt_audio::kwt_tiny_frontend().expect("preset is valid");
    let n = if ctx.full {
        ds.len(Split::Test)
    } else {
        200.min(ds.len(Split::Test))
    };
    let image = InferenceImage::build_a8(&a8).expect("a8 image builds");
    let mut session = image.session().expect("session");
    let mut scratch = kwt_audio::MfccScratch::new();
    let mut mfcc = kwt_tensor::Mat::default();
    let mut agree = 0usize;
    for i in 0..n {
        let (wave, _) = ds.utterance(Split::Test, i);
        fe.extract_padded_into(&wave, &mut mfcc, &mut scratch)
            .expect("mfcc");
        let (host_logits, _) = a8.forward_a8(&mfcc).expect("a8 forward");
        let host_arg = host_logits
            .iter()
            .enumerate()
            .max_by(|x, y| x.1.partial_cmp(y.1).expect("finite"))
            .map(|(j, _)| j)
            .expect("classes");
        if host_arg == i16m.predict(&mfcc).expect("i16 forward") {
            agree += 1;
        }
        // device-vs-host bit identity spot check on a handful of clips
        if i < 5 {
            let (dev, _) = session.run(&mfcc).expect("device run");
            for (d, h) in dev.iter().zip(&host_logits) {
                assert_eq!(
                    d.to_bits(),
                    h.to_bits(),
                    "clip {i}: A8 device logit {d} != host golden model {h}"
                );
            }
        }
    }
    let pct = 100.0 * agree as f64 / n as f64;
    assert!(
        pct >= 99.0,
        "A8 top-1 agreement with the i16 quant path fell to {pct:.2}% ({agree}/{n})"
    );
    format!("## A8 agreement gate\n\nA8-vs-i16 top-1 agreement: {agree}/{n} = {pct:.2}% (>= 99% required); device logits bit-identical to the host A8 golden model on the spot-checked clips\n")
}

/// Minimal mirror of the committed `BENCH_engine.json`, read by
/// `check-cycles` and `check-cluster` (the serde shim skips the fields the
/// gates do not compare; a missing one fails both).
#[derive(serde::Deserialize)]
pub(crate) struct EngineBaseline {
    pub(crate) device_cycles: Vec<BaselineCycleRow>,
    pub(crate) cluster_scaling: Vec<BaselineClusterRow>,
}

/// One device-cycle row of [`EngineBaseline`].
#[derive(serde::Deserialize)]
pub(crate) struct BaselineCycleRow {
    variant: String,
    cycles: u64,
}

/// One cluster-scaling row of [`EngineBaseline`].
#[derive(serde::Deserialize)]
pub(crate) struct BaselineClusterRow {
    harts: usize,
    soc_cycles: u64,
}

/// Device-cycle regression gate (wired into `scripts/verify.sh` and CI):
/// re-measures one inference per image flavour and compares against the
/// committed `BENCH_engine.json`. Simulated cycle counts are deterministic
/// per build, so the gate fails hard at **> 3 % worse** — the margin only
/// absorbs intentional, committed re-baselines, not noise.
///
/// # Panics
///
/// Panics (failing the verify run) if any flavour regresses by more than
/// 3 %, or if the baseline file is missing or cannot be parsed.
pub fn check_cycles(_ctx: &ExpContext) -> String {
    let doc: EngineBaseline = baseline::ENGINE.load().unwrap_or_else(|e| panic!("{e}"));
    let params = crate::enginebench::bench_params();
    let qm = QuantizedKwt::quantize(&params, QuantConfig::paper_best());
    let accel = qm.clone().with_nonlinearity(Nonlinearity::FixedLut);
    let a8 = kwt_quant::A8Kwt::quantize(&params, kwt_quant::A8Config::paper_a8())
        .expect("a8 exponents valid");
    let fe = kwt_audio::kwt_tiny_frontend().expect("preset is valid");
    let mfcc = fe
        .extract_padded(&crate::enginebench::bench_clips(1)[0])
        .expect("mfcc");
    let image_for = |variant: &str| -> InferenceImage {
        match variant {
            "float" => InferenceImage::build_float(&params).expect("float image"),
            "quant" => InferenceImage::build_quant(&qm).expect("quant image"),
            "accel" => InferenceImage::build_quant(&accel).expect("accel image"),
            "accel_xkwtdot_a8" => InferenceImage::build_a8(&a8).expect("a8 image"),
            other => panic!("unknown image variant `{other}` in cycle baseline"),
        }
    };
    let (rows, (worst_variant, worst_delta)) = baseline::ENGINE.ceiling(
        "device cycle",
        0.03,
        doc.device_cycles.iter().map(|b| {
            let mut session = image_for(&b.variant).session().expect("session");
            let (_, run) = session.run(&mfcc).expect("device run");
            (b.variant.clone(), b.cycles, run.cycles)
        }),
    );
    let table = markdown_table(&["Variant", "Baseline cycles", "Current", "Delta"], &rows);
    format!(
        "## Cycle regression gate\n\n{table}\nworst delta {:+.2}% (`{worst_variant}`), \
         gate <= +3%\n",
        worst_delta * 100.0
    )
}

/// Cluster gate (wired into `scripts/verify.sh` and CI), over the tuned
/// A8 image:
///
/// 1. **Single-hart identity** — a 1-hart cluster must be bit- *and*
///    cycle-identical to the serial `DeviceSession` (same `RunResult`,
///    same logits, zero stalls).
/// 2. **Functional identity under contention** — every hart of a 4-hart
///    wave must produce logits bit-identical to the serial session.
/// 3. **Throughput** — the 4-hart cluster must finish its clips in at
///    most 1/3 of the sequential single-core cycles (>= 3x
///    clips-per-SoC-cycle).
/// 4. **Regression** — per-hart-count `soc_cycles` must stay within
///    +3 % of the committed `BENCH_engine.json`.
///
/// Simulated cycles are deterministic, so all four checks are
/// noise-free.
///
/// # Panics
///
/// Panics (failing the verify run) on any identity violation, a 4-hart
/// speedup below 3x, a baseline regression beyond 3 %, or a baseline that
/// is missing, unparseable or has no measured hart count.
pub fn check_cluster(_ctx: &ExpContext) -> String {
    use kwt_quant::{A8Config, A8Kwt};
    let params = crate::enginebench::bench_params();
    let a8 = A8Kwt::quantize(&params, A8Config::paper_a8()).expect("a8 exponents valid");
    let image = InferenceImage::build_a8(&a8).expect("a8 image builds");
    let fe = kwt_audio::kwt_tiny_frontend().expect("preset is valid");

    let clips = crate::enginebench::bench_clips(4);
    let mut scratch = kwt_audio::MfccScratch::new();
    let mut mfccs = Vec::new();
    for c in &clips {
        let mut m = kwt_tensor::Mat::default();
        fe.extract_padded_into(c, &mut m, &mut scratch)
            .expect("mfcc");
        mfccs.push(m);
    }
    let mut serial = image.session().expect("serial session");
    let mut serial_logits = vec![Vec::new(); mfccs.len()];
    let mut serial_runs = Vec::new();
    for (i, m) in mfccs.iter().enumerate() {
        serial_runs.push(
            serial
                .run_into(m, &mut serial_logits[i])
                .expect("serial run"),
        );
    }

    // 1. single-hart identity
    let mut one = image.cluster_session(1).expect("1-hart session");
    one.load_clip(0, &mfccs[0]).expect("load");
    let wave = one.run_loaded(1);
    let run = *wave.results[0].as_ref().expect("single-hart run completes");
    assert_eq!(
        run, serial_runs[0],
        "single-hart cluster must be cycle-identical to the serial DeviceSession"
    );
    assert_eq!(wave.stats[0].stall_cycles, 0, "a lone hart can never stall");
    let mut logits = Vec::new();
    one.read_logits(0, &mut logits);
    assert_eq!(
        logits, serial_logits[0],
        "single-hart cluster logits must be bit-identical to serial"
    );

    // 2. functional identity under 4-hart contention
    let mut four = image.cluster_session(4).expect("4-hart session");
    for (h, m) in mfccs.iter().enumerate() {
        four.load_clip(h, m).expect("load");
    }
    let wave = four.run_loaded(4);
    for (h, serial) in serial_logits.iter().enumerate().take(4) {
        assert!(wave.results[h].is_ok(), "hart {h} must complete");
        four.read_logits(h, &mut logits);
        assert_eq!(
            &logits, serial,
            "hart {h} logits must be bit-identical to the serial session"
        );
    }

    // 3. throughput: >= 3x clips-per-SoC-cycle at 4 harts
    let rows = crate::enginebench::collect_cluster(&image, &fe);
    let r4 = rows
        .iter()
        .find(|r| r.harts == 4)
        .expect("collect_cluster measures 4 harts");
    assert!(
        r4.speedup_vs_serial >= 3.0,
        "4-hart cluster speedup fell to {:.2}x (gate: >= 3x vs the sequential single core; \
         stall fraction {:.3})",
        r4.speedup_vs_serial,
        r4.stall_fraction
    );

    // 4. committed-baseline regression
    let doc: EngineBaseline = baseline::ENGINE.load().unwrap_or_else(|e| panic!("{e}"));
    let (table_rows, (worst_harts, worst_delta)) = baseline::ENGINE.ceiling(
        "hart-count soc_cycles",
        0.03,
        doc.cluster_scaling.iter().filter_map(|b| {
            let now = rows.iter().find(|r| r.harts == b.harts)?;
            Some((b.harts.to_string(), b.soc_cycles, now.soc_cycles))
        }),
    );

    let mut scaling_rows = Vec::new();
    for r in &rows {
        scaling_rows.push(vec![
            r.harts.to_string(),
            r.soc_cycles.to_string(),
            format!("{:.3}", r.clips_per_mcycle),
            format!("{:.2}x", r.speedup_vs_serial),
            format!("{:.2}", r.hart_utilisation),
            format!("{:.3}", r.stall_fraction),
        ]);
    }
    let scaling = markdown_table(
        &[
            "Harts",
            "SoC cycles",
            "Clips/Mcycle",
            "Speedup",
            "Utilisation",
            "Stalls",
        ],
        &scaling_rows,
    );
    let baseline_table = markdown_table(
        &["Harts", "Baseline SoC cycles", "Current", "Delta"],
        &table_rows,
    );
    format!(
        "## Cluster gate\n\nsingle-hart cluster bit- and cycle-identical to the serial \
         session; 4-hart wave logits bit-identical to serial on all harts\n\n{scaling}\n\
         {baseline_table}worst baseline delta {:+.2}% ({worst_harts} harts), gate <= +3%\n",
        worst_delta * 100.0
    )
}

/// Fixed-point front-end agreement gate (wired into `scripts/verify.sh`
/// and CI): the fixed-point MFCC path must keep **>= 99.5 %** top-1
/// agreement with the f64 oracle features through the float model on the
/// synthetic GSC test split, and feature errors must stay small in
/// absolute terms.
///
/// # Panics
///
/// Panics (failing the verify run) if agreement drops below 99.5 %.
pub fn check_frontend(ctx: &ExpContext) -> String {
    let params = crate::enginebench::bench_params();
    let packed = params.pack_weights();
    let ds = SyntheticGsc::new(GscConfig::paper_binary());
    let fe = kwt_audio::kwt_tiny_frontend().expect("preset is valid");
    let n = if ctx.full {
        ds.len(Split::Test)
    } else {
        200.min(ds.len(Split::Test))
    };
    let mut scratch = kwt_audio::MfccScratch::new();
    let mut fixed = kwt_tensor::Mat::default();
    let mut agree = 0usize;
    let mut max_feat_err = 0.0f32;
    let argmax = |logits: &[f32]| -> usize {
        logits
            .iter()
            .enumerate()
            .max_by(|x, y| x.1.partial_cmp(y.1).expect("finite"))
            .map(|(j, _)| j)
            .expect("classes")
    };
    for i in 0..n {
        let (wave, _) = ds.utterance(Split::Test, i);
        fe.extract_padded_into(&wave, &mut fixed, &mut scratch)
            .expect("mfcc");
        let reference = fe.extract_padded_reference(&wave).expect("mfcc");
        for (a, b) in fixed.as_slice().iter().zip(reference.as_slice()) {
            max_feat_err = max_feat_err.max((a - b).abs());
        }
        let lf = kwt_model::forward_with(&params, &packed, &fixed).expect("forward");
        let lr = kwt_model::forward_with(&params, &packed, &reference).expect("forward");
        if argmax(&lf) == argmax(&lr) {
            agree += 1;
        }
    }
    let pct = 100.0 * agree as f64 / n as f64;
    assert!(
        pct >= 99.5,
        "fixed-point front end top-1 agreement fell to {pct:.2}% ({agree}/{n}, gate 99.5%)"
    );
    format!(
        "## Front-end agreement gate\n\nfixed-vs-float top-1 agreement: {agree}/{n} = \
         {pct:.2}% (>= 99.5% required); max abs feature error {max_feat_err:.4}\n"
    )
}

/// Table IX — full model comparison (params, sizes, cycles, accuracy).
pub fn table9(ctx: &ExpContext) -> String {
    let (tiny, test, images) = built_images(ctx);
    let x = test.x[0].clone();
    let mut cycles = Vec::new();
    let mut sizes = Vec::new();
    for img in &images {
        let (_, run, _) = img.run(&x).expect("inference");
        cycles.push(run.cycles);
        sizes.push(img.program_bytes());
    }
    // accuracies from the host models (bit-faithful for the LUT parts)
    let (float_acc, _) = evaluate(&tiny, &test).expect("eval");
    let qm = QuantizedKwt::quantize(&tiny, QuantConfig::paper_best());
    let acc_of = |qm: &QuantizedKwt| -> f64 {
        let mut hits = 0;
        for (x, &y) in test.x.iter().zip(&test.y) {
            if qm.predict(x).expect("forward") == y {
                hits += 1;
            }
        }
        hits as f64 / test.len() as f64
    };
    let quant_acc = acc_of(&qm);
    let accel_acc = acc_of(&qm.clone().with_nonlinearity(Nonlinearity::FixedLut));
    let c = KwtConfig::kwt_tiny();
    let rom = LutSet::new().rom_bytes();
    let rows = vec![
        vec![
            "# Parameters".into(),
            c.param_count().to_string(),
            c.param_count().to_string(),
            c.param_count().to_string(),
        ],
        vec![
            "Model Size".into(),
            format!("{:.3} kB", c.memory_bytes_f32() as f64 / 1e3),
            format!("{:.3} kB", c.memory_bytes_i8() as f64 / 1e3),
            format!(
                "{:.3} kB (+{:.2} kB ROM)",
                c.memory_bytes_i8() as f64 / 1e3,
                rom as f64 / 1e3
            ),
        ],
        vec![
            "Program Size".into(),
            format!("{:.1} kB (paper: 58.8)", sizes[0] as f64 / 1e3),
            format!("{:.1} kB (paper: 44.4)", sizes[1] as f64 / 1e3),
            format!("{:.1} kB (paper: 44.6)", sizes[2] as f64 / 1e3),
        ],
        vec![
            "Inference Clock Cycles".into(),
            format!("{:.1}M (paper: 26M)", cycles[0] as f64 / 1e6),
            format!("{:.1}M (paper: 13M)", cycles[1] as f64 / 1e6),
            format!("{:.1}M (paper: 5.5M)", cycles[2] as f64 / 1e6),
        ],
        vec![
            "Accuracy".into(),
            format!("{:.1}% (paper: 87.2%)", float_acc * 100.0),
            format!("{:.1}% (paper: 82.5%)", quant_acc * 100.0),
            format!("{:.1}% (paper: ~80%)", accel_acc * 100.0),
        ],
    ];
    let speedup = cycles[0] as f64 / cycles[2] as f64;
    format!(
        "## Table IX — model comparison\n\n{}\nEnd-to-end speedup float -> accelerated: **{speedup:.1}x** (paper: ~4.7x).\nInference at 50 MHz: {:.0} ms -> {:.0} ms.\n",
        markdown_table(&["Attribute", "KWT-Tiny (float)", "KWT-Tiny-Q", "KWT-Tiny-Q (+HW)"], &rows),
        Platform::ibex().cycles_to_seconds(cycles[0]) * 1e3,
        Platform::ibex().cycles_to_seconds(cycles[2]) * 1e3,
    )
}

fn profile_figure(ctx: &ExpContext, title: &str, block: Option<&str>) -> String {
    let (_, test, images) = built_images(ctx);
    let (_, run, report) = images[0].run(&test.x[0]).expect("inference");
    let entries = match block {
        None => kwt_baremetal::regions::aggregate_by_op(&report.regions),
        Some(b) => kwt_baremetal::regions::filter_block(&report.regions, b),
    };
    let total: u64 = match block {
        None => run.cycles,
        Some(_) => entries.iter().map(|(_, c)| c).sum(),
    };
    let rows: Vec<Vec<String>> = entries
        .iter()
        .map(|(name, c)| {
            vec![
                name.clone(),
                c.to_string(),
                format!("{:.1}%", 100.0 * *c as f64 / total.max(1) as f64),
            ]
        })
        .collect();
    format!(
        "## {title}\n\n{}",
        markdown_table(&["Operation", "Cycles", "Share"], &rows)
    )
}

/// Fig. 3 — profile of a full float inference by operation.
pub fn fig3(ctx: &ExpContext) -> String {
    profile_figure(ctx, "Fig. 3 — float inference profile by operation", None)
}

/// Fig. 4 — profile of the self-attention computation.
pub fn fig4(ctx: &ExpContext) -> String {
    profile_figure(ctx, "Fig. 4 — self-attention profile", Some("attn"))
}

/// Fig. 5 — profile of the MLP computation.
pub fn fig5(ctx: &ExpContext) -> String {
    profile_figure(ctx, "Fig. 5 — MLP profile", Some("mlp"))
}

/// Fig. 7 — GELU vs its 32-entry LUT approximation + threshold search.
pub fn fig7(_ctx: &ExpContext) -> String {
    let fit = gelu_opt::optimize_thresholds(-1.5, 1.5, 120);
    let luts = LutSet::new();
    let mut rows = Vec::new();
    for i in (-40..=40).step_by(5) {
        let x = i as f32 * 0.1;
        let exact = gelu_exact(x);
        let approx = kwt_quant::fixed_gelu(x, &luts);
        rows.push(vec![
            format!("{x:.1}"),
            format!("{exact:.4}"),
            format!("{approx:.4}"),
            format!("{:+.4}", approx - exact),
        ]);
    }
    format!(
        "## Fig. 7 — GELU vs 32-entry LUT approximation\n\n{}\nGradient-descent thresholds: lo = {:.3}, hi = {:.3} (paper: -1.857, 1.595).\nMax |error| = {:.4}; mean relative error = {:.4}% (paper quotes 0.0042%).\n",
        markdown_table(&["x", "GELU(x)", "LUT approx", "error"], &rows),
        fit.lo,
        fit.hi,
        fit.max_err,
        fit.mean_rel_err_pct,
    )
}

/// Ablation (beyond the paper): cycle cost of the idealised single-cycle
/// timing model vs the Ibex model, separating instruction count from
/// stall effects.
pub fn ablation_timing(ctx: &ExpContext) -> String {
    use kwt_rv32::{Machine, TimingModel};
    let (_, test, images) = built_images(ctx);
    let x = &test.x[0];
    let mut rows = Vec::new();
    for img in &images {
        let (_, run, _) = img.run(x).expect("run");
        // re-run with the single-cycle model
        let mut m = Machine::load(&img.program, Platform::ibex())
            .expect("fits")
            .with_timing(TimingModel::single_cycle());
        match img.flavor {
            kwt_baremetal::Flavor::Float => m.write_f32s(img.input_addr(), x.as_slice()),
            _ => {
                let ya = QuantConfig::paper_best().input_bits;
                let (q, _) = kwt_tensor::qops::quantize_i16(x, ya);
                m.write_i16s(img.input_addr(), q.as_slice());
            }
        }
        let ideal = m.run(2_000_000_000).expect("halts");
        rows.push(vec![
            format!("{:?}", img.flavor),
            format!("{:.2}M", run.cycles as f64 / 1e6),
            format!("{:.2}M", ideal.cycles as f64 / 1e6),
            format!("{:.2}x", run.cycles as f64 / ideal.cycles as f64),
        ]);
    }
    format!(
        "## Ablation — Ibex timing vs idealised single-cycle core\n\n{}",
        markdown_table(
            &["Flavour", "Ibex cycles", "Single-cycle", "Stall factor"],
            &rows
        )
    )
}

/// Ablation (beyond the paper): accuracy of fully-LUT softmax/GELU vs
/// float non-linearities across scale factors.
pub fn ablation_nonlinearity(ctx: &ExpContext) -> String {
    let (tiny, test) = ctx.trained_tiny();
    let mut rows = Vec::new();
    for (wf, inf) in [(64, 32), (32, 32)] {
        let qc = QuantConfig::from_factors(wf, inf).expect("pow2");
        for (name, nl) in [
            ("float", Nonlinearity::FloatExact),
            ("LUT", Nonlinearity::FixedLut),
        ] {
            let qm = QuantizedKwt::quantize(&tiny, qc).with_nonlinearity(nl);
            let mut hits = 0;
            for (x, &y) in test.x.iter().zip(&test.y) {
                if qm.predict(x).expect("forward") == y {
                    hits += 1;
                }
            }
            rows.push(vec![
                format!("{wf}/{inf}"),
                name.to_string(),
                format!("{:.1}%", 100.0 * hits as f64 / test.len() as f64),
            ]);
        }
    }
    format!(
        "## Ablation — non-linearity implementation vs accuracy\n\n{}",
        markdown_table(&["Scales (w/in)", "SoftMax+GELU", "Accuracy"], &rows)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_ctx() -> ExpContext {
        ExpContext {
            full: false,
            results_dir: std::env::temp_dir().join("kwt_bench_test_results"),
        }
    }

    #[test]
    fn static_tables_render() {
        let ctx = quick_ctx();
        for table in [
            table1(&ctx),
            table2(&ctx),
            table3(&ctx),
            table6(&ctx),
            table7(&ctx),
            table8(&ctx),
        ] {
            assert!(table.contains('|'), "table looks empty: {table}");
        }
    }

    #[test]
    fn table3_contains_paper_values() {
        let t = table3(&quick_ctx());
        assert!(t.contains("[40, 98]"));
        assert!(t.contains("[16, 26]"));
        assert!(t.contains("| SEQLEN | 99 | 27 |"));
    }

    #[test]
    fn table7_lists_all_five_ops() {
        let t = table7(&quick_ctx());
        for f3 in ["3'b000", "3'b001", "3'b011", "3'b100", "3'b101"] {
            assert!(t.contains(f3), "missing {f3}");
        }
    }

    #[test]
    fn fig7_reports_thresholds() {
        let f = fig7(&quick_ctx());
        assert!(f.contains("lo ="));
        assert!(f.contains("paper: -1.857"));
    }

    #[test]
    fn markdown_table_shape() {
        let t = markdown_table(&["a", "b"], &[vec!["1".into(), "2".into()]]);
        assert_eq!(t.lines().count(), 3);
    }
}
