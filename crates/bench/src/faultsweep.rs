//! `paper fault-sweep`: the chaos harness behind the robustness story.
//!
//! Sweeps the full fault taxonomy (RAM bit flips in the static image,
//! transient register flips, forced decode traps, LUT ROM truncation,
//! cycle-watchdog kills) across every image flavour the repository can
//! build (`float`, `quant`, `accel`, `a8`) and checks
//! the robustness contract on every cell:
//!
//! - **zero host panics** — every injected fault surfaces as a typed
//!   [`kwt_baremetal::BuildError`] /
//!   [`kwt_engine::EngineError`] or a correct answer,
//!   never as a panic (each cell runs under `catch_unwind` to prove it);
//! - **no silent persistent corruption** — a static-image flip that
//!   changes the logits without trapping must be flagged by
//!   [`kwt_baremetal::DeviceSession::recover`];
//! - **recovery restores bit identity** — after every faulted run,
//!   `recover()` + rerun reproduces the clean logits bit-for-bit;
//! - **failover is exact** — watchdog-killed requests served through
//!   [`ResilientBackend`](kwt_engine::ResilientBackend) return logits
//!   bit-identical to running the fallback directly.
//!
//! Any violated invariant panics the gate (non-zero exit, same idiom as
//! `paper check-a8`). The coverage table is printed and written to
//! `results/FAULT_SWEEP.md`. `--smoke` runs fewer seeds per cell for CI;
//! the default runs the full matrix.

use crate::ExpContext;
use kwt_audio::{MfccExtractor, MfccScratch};
use kwt_baremetal::{BuildError, InferenceImage};
use kwt_dataset::{GscConfig, Split, SyntheticGsc};
use kwt_engine::{Backend, Engine, HostFloatBackend, ResilientConfig, Rv32SimBackend};
use kwt_quant::{A8Config, A8Kwt, Nonlinearity, QuantConfig, QuantizedKwt};
use kwt_rv32::{FaultPlan, Trap};
use kwt_tensor::Mat;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// How a single injected fault resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    /// The run completed with bit-identical logits and recovery found
    /// nothing to repair (the flip landed in a dead byte, or the plan
    /// never fired before `ebreak`).
    Benign,
    /// Bit-identical logits, but recovery did repair state (masked
    /// corruption — e.g. a flip in padding, or a truncated LUT the
    /// program never indexed past).
    Masked,
    /// The logits changed without a trap and recovery detected the
    /// corruption — the "detectable on recover()" arm of the contract.
    SilentDetected,
    /// The logits changed, nothing persistent to detect (transient
    /// register flip); recovery still restores bit identity.
    Transient,
    /// The run stopped with a typed device error.
    Trapped,
    /// Served correctly through the engine ladder after recovery.
    Recovered,
    /// Served correctly by a fallback, bit-identical to running it
    /// directly.
    FailedOver,
    /// The host panicked — an automatic gate failure.
    Panicked,
}

impl Outcome {
    fn label(self) -> &'static str {
        match self {
            Outcome::Benign => "benign",
            Outcome::Masked => "masked",
            Outcome::SilentDetected => "silent-detected",
            Outcome::Transient => "transient",
            Outcome::Trapped => "trap",
            Outcome::Recovered => "recovered",
            Outcome::FailedOver => "failover",
            Outcome::Panicked => "PANIC",
        }
    }
}

const FAULT_KINDS: [&str; 5] = [
    "mem-flip",
    "reg-flip",
    "forced-trap",
    "lut-truncate",
    "watchdog",
];

fn bits_eq(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// One (flavour, fault-kind) cell's accumulated outcomes.
#[derive(Debug, Default)]
struct Cell {
    outcomes: Vec<Outcome>,
}

impl Cell {
    fn summary(&self) -> String {
        let mut counts: Vec<(&'static str, usize)> = Vec::new();
        for o in &self.outcomes {
            let l = o.label();
            match counts.iter_mut().find(|(k, _)| *k == l) {
                Some((_, n)) => *n += 1,
                None => counts.push((l, 1)),
            }
        }
        counts
            .iter()
            .map(|(k, n)| format!("{n} {k}"))
            .collect::<Vec<_>>()
            .join(", ")
    }
}

/// A faulted run on a persistent session, followed by the universal
/// post-conditions: recovery must restore bit-identical behaviour, and
/// silent static corruption must be detectable.
///
/// `require_detection` is set for static-image flips (the proptest
/// contract); transient register faults may change an answer without
/// leaving anything persistent behind.
fn session_cell(
    session: &mut kwt_baremetal::DeviceSession,
    mfcc: &Mat<f32>,
    golden: &[f32],
    plan: FaultPlan,
    require_detection: bool,
) -> Outcome {
    session.inject_faults(plan);
    let run = catch_unwind(AssertUnwindSafe(|| session.run(mfcc)));
    let report = session.recover();
    let outcome = match run {
        Err(_) => Outcome::Panicked,
        Ok(Err(e)) => {
            // every failure must be the structured device form, not a
            // bare trap or a stringly error
            assert!(
                matches!(e, BuildError::Device(_)),
                "fault surfaced as an untyped error: {e}"
            );
            Outcome::Trapped
        }
        Ok(Ok((logits, _))) => {
            if bits_eq(&logits, golden) {
                if report.detected_corruption() {
                    Outcome::Masked
                } else {
                    Outcome::Benign
                }
            } else {
                if require_detection {
                    assert!(
                        report.detected_corruption(),
                        "static-image flip changed the logits silently and \
                         recover() found nothing to repair"
                    );
                }
                if report.detected_corruption() {
                    Outcome::SilentDetected
                } else {
                    Outcome::Transient
                }
            }
        }
    };
    // A-B-A: whatever happened, the recovered session must reproduce
    // the clean run exactly
    let (again, _) = session.run(mfcc).expect("post-recovery run must not fault");
    assert!(
        bits_eq(&again, golden),
        "post-recovery logits differ from the clean run"
    );
    outcome
}

/// A forced mid-inference trap served through the engine ladder: the
/// primary recovers and retries, so the answer matches the clean device
/// run bit-for-bit and no failover happens.
fn engine_trap_cell(
    image: &InferenceImage,
    fe: &MfccExtractor,
    fallback_params: &kwt_model::KwtParams,
    wave: &[f32],
    golden: &[f32],
    at_step: u64,
) -> Outcome {
    let run = catch_unwind(AssertUnwindSafe(|| {
        let primary = Box::new(Rv32SimBackend::new(image)?);
        let fallbacks: Vec<Box<dyn Backend>> =
            vec![Box::new(HostFloatBackend::new(fallback_params.clone()))];
        let mut engine =
            Engine::resilient(primary, fallbacks, ResilientConfig::default(), fe.clone())?;
        engine.backend_mut().inject_faults(
            FaultPlan::new()
                .force_trap_at_step(at_step, Trap::IllegalInstruction { pc: 0, word: 0 }),
        );
        let pred = engine.classify(wave)?;
        let stats = engine.fault_stats().expect("resilient engine has stats");
        Ok::<_, kwt_engine::EngineError>((pred.logits, stats))
    }));
    match run {
        Err(_) => Outcome::Panicked,
        Ok(Err(e)) => panic!("forced trap was not absorbed by the ladder: {e}"),
        Ok(Ok((logits, stats))) => {
            assert!(
                bits_eq(&logits, golden),
                "recovered request differs from the clean device run"
            );
            assert_eq!(stats.traps_seen, 1, "exactly one trap expected");
            assert_eq!(stats.recoveries, 1, "exactly one recovery expected");
            assert_eq!(stats.failovers, 0, "recovery must win before failover");
            Outcome::Recovered
        }
    }
}

/// A cycle budget far below any device inference: every attempt is
/// watchdog-killed and the request fails over to the host float
/// backend, bit-identical to running that backend directly.
fn engine_watchdog_cell(
    image: &InferenceImage,
    fe: &MfccExtractor,
    fallback_params: &kwt_model::KwtParams,
    wave: &[f32],
    want_float: &[f32],
) -> Outcome {
    let run = catch_unwind(AssertUnwindSafe(|| {
        let primary = Box::new(Rv32SimBackend::new(image)?);
        let fallbacks: Vec<Box<dyn Backend>> =
            vec![Box::new(HostFloatBackend::new(fallback_params.clone()))];
        let rcfg = ResilientConfig {
            max_recoveries: 1,
            cycle_budget: Some(10_000),
            quarantine_after: 3,
        };
        let mut engine = Engine::resilient(primary, fallbacks, rcfg, fe.clone())?;
        let pred = engine.classify(wave)?;
        let stats = engine.fault_stats().expect("resilient engine has stats");
        Ok::<_, kwt_engine::EngineError>((pred.logits, stats))
    }));
    match run {
        Err(_) => Outcome::Panicked,
        Ok(Err(e)) => panic!("watchdog kill was not absorbed by the ladder: {e}"),
        Ok(Ok((logits, stats))) => {
            assert!(
                bits_eq(&logits, want_float),
                "failover logits differ from running the fallback directly"
            );
            assert_eq!(
                stats.budget_kills, 2,
                "initial try + one retry, both killed"
            );
            assert_eq!(stats.failovers, 1, "request must be served by the fallback");
            Outcome::FailedOver
        }
    }
}

/// The cluster isolation contract, one faulted wave at a time: a fault
/// injected into one hart of an N-hart cluster must stay on that hart —
/// every other hart's logits bit-identical to the fault-free wave — and
/// per-hart recovery must make the next wave fully clean again.
///
/// Returns `(outcome, victim_trapped)`; panics on any isolation or
/// recovery violation (the caller wraps this in `catch_unwind`).
fn cluster_fault_trial(
    cluster: &mut kwt_baremetal::ClusterSession,
    mfcc: &Mat<f32>,
    clean: &[Vec<f32>],
    victim: usize,
    plan: FaultPlan,
) -> (Outcome, bool) {
    let harts = cluster.num_harts();
    for h in 0..harts {
        cluster.load_clip(h, mfcc).expect("load clip");
    }
    cluster.inject_faults(victim, plan);
    let wave = cluster.run_loaded(harts);
    let mut logits = Vec::new();
    for h in (0..harts).filter(|&h| h != victim) {
        assert!(
            wave.results[h].is_ok(),
            "fault on hart {victim} leaked a trap into hart {h}"
        );
        cluster.read_logits(h, &mut logits);
        assert!(
            bits_eq(&logits, &clean[h]),
            "fault on hart {victim} changed hart {h}'s logits"
        );
    }
    let trapped = wave.results[victim].is_err();
    let victim_clean = if trapped {
        false
    } else {
        cluster.read_logits(victim, &mut logits);
        bits_eq(&logits, &clean[victim])
    };
    let report = cluster.recover(victim);
    // the recovered wave must be fully clean on every hart
    for h in 0..harts {
        cluster.load_clip(h, mfcc).expect("load clip");
    }
    let after = cluster.run_loaded(harts);
    for (h, clean_h) in clean.iter().enumerate().take(harts) {
        assert!(
            after.results[h].is_ok(),
            "post-recovery wave faulted on hart {h}"
        );
        cluster.read_logits(h, &mut logits);
        assert!(
            bits_eq(&logits, clean_h),
            "post-recovery hart {h} logits differ from the fault-free wave"
        );
    }
    let outcome = if trapped {
        Outcome::Trapped
    } else if victim_clean {
        if report.detected_corruption() {
            Outcome::Masked
        } else {
            Outcome::Benign
        }
    } else if report.detected_corruption() {
        Outcome::SilentDetected
    } else {
        Outcome::Transient
    };
    (outcome, trapped)
}

/// Runs the sweep and renders the coverage table. Panics (non-zero
/// exit) on any contract violation; see the module docs for the
/// invariants.
pub fn run(ctx: &ExpContext, smoke: bool) -> String {
    let seeds: u64 = if smoke { 2 } else { 6 };
    let params = crate::enginebench::bench_params();
    let qm = QuantizedKwt::quantize(&params, QuantConfig::paper_best());
    let accel = qm.clone().with_nonlinearity(Nonlinearity::FixedLut);
    let a8 = A8Kwt::quantize(&params, A8Config::paper_a8()).expect("a8 exponents valid");
    let images: Vec<(&str, InferenceImage)> = vec![
        (
            "float",
            InferenceImage::build_float(&params).expect("float image"),
        ),
        (
            "quant",
            InferenceImage::build_quant(&qm).expect("quant image"),
        ),
        (
            "accel",
            InferenceImage::build_quant(&accel).expect("accel image"),
        ),
        ("a8", InferenceImage::build_a8(&a8).expect("a8 image")),
    ];

    let fe = kwt_audio::kwt_tiny_frontend().expect("preset is valid");
    let ds = SyntheticGsc::new(GscConfig::paper_binary());
    let (wave, _) = ds.utterance(Split::Test, 0);
    let mut scratch = MfccScratch::new();
    let mut mfcc = Mat::default();
    fe.extract_padded_into(&wave, &mut mfcc, &mut scratch)
        .expect("mfcc");
    let want_float = Engine::host_float(params.clone(), fe.clone())
        .expect("host float engine")
        .classify(&wave)
        .expect("host float run")
        .logits;

    let mut table: Vec<(&str, Vec<Cell>)> = Vec::new();
    let mut panics = 0usize;
    let mut trials = 0usize;
    for (name, image) in &images {
        let mut session = image.session().expect("session");
        let (golden, clean) = session.run(&mfcc).expect("clean run");
        let steps = clean.instructions;
        let ranges = image.static_ranges();
        let mut cells: Vec<Cell> = (0..FAULT_KINDS.len()).map(|_| Cell::default()).collect();

        // mem-flip: seeded single-bit flips aimed at the static image
        for seed in 0..seeds {
            let (lo, len) = ranges[seed as usize % ranges.len()];
            let plan = FaultPlan::seeded_mem_flip(seed, steps, lo, lo + len);
            cells[0]
                .outcomes
                .push(session_cell(&mut session, &mfcc, &golden, plan, true));
        }
        // reg-flip: transient architectural-register flips
        for seed in 0..seeds {
            let plan = FaultPlan::seeded_reg_flip(seed, steps);
            cells[1]
                .outcomes
                .push(session_cell(&mut session, &mfcc, &golden, plan, false));
        }
        // forced-trap: the engine ladder recovers and retries
        cells[2].outcomes.push(engine_trap_cell(
            image,
            &fe,
            &params,
            &wave,
            &golden,
            steps / 2,
        ));
        // lut-truncate: shrink the non-linearity ROMs under the program
        cells[3].outcomes.push(session_cell(
            &mut session,
            &mfcc,
            &golden,
            FaultPlan::new().truncate_luts(0, 1),
            true,
        ));
        // watchdog: a budget no inference can meet forces exact failover
        cells[4].outcomes.push(engine_watchdog_cell(
            image,
            &fe,
            &params,
            &wave,
            &want_float,
        ));

        for cell in &cells {
            trials += cell.outcomes.len();
            panics += cell
                .outcomes
                .iter()
                .filter(|o| **o == Outcome::Panicked)
                .count();
        }
        table.push((name, cells));
    }

    // cluster flavour: the a8 image on a 4-hart cluster — faults on one
    // hart must be invisible to the other three, and per-hart recovery
    // must restore the whole wave
    let harts = 4usize;
    let a8_image = &images
        .iter()
        .find(|(n, _)| *n == "a8")
        .expect("a8 image in the matrix")
        .1;
    let mut cluster_cell = Cell::default();
    {
        let mut cluster = a8_image.cluster_session(harts).expect("cluster session");
        for h in 0..harts {
            cluster.load_clip(h, &mfcc).expect("load clip");
        }
        let base = cluster.run_loaded(harts);
        let mut clean = vec![Vec::new(); harts];
        for (h, c) in clean.iter_mut().enumerate() {
            assert!(base.results[h].is_ok(), "clean cluster wave must not fault");
            cluster.read_logits(h, c);
        }
        let ranges = a8_image.static_ranges();
        let steps = base.results[0].as_ref().expect("clean run").instructions;
        let mut traps_seen = 0usize;
        for seed in 0..seeds {
            let victim = seed as usize % harts;
            // cycle the fault kinds: forced decode trap at the victim's
            // entry pc, a static-image bit flip, a transient reg flip
            let plan = match seed % 3 {
                0 => {
                    cluster.load_clip(victim, &mfcc).expect("load clip");
                    let pc = cluster.hart(victim).cpu.pc;
                    FaultPlan::new()
                        .force_trap_at_pc(pc, Trap::IllegalInstruction { pc: 0, word: 0 })
                }
                1 => {
                    let (lo, len) = ranges[seed as usize % ranges.len()];
                    FaultPlan::seeded_mem_flip(seed, steps, lo, lo + len)
                }
                _ => FaultPlan::seeded_reg_flip(seed, steps),
            };
            let run = catch_unwind(AssertUnwindSafe(|| {
                cluster_fault_trial(&mut cluster, &mfcc, &clean, victim, plan)
            }));
            match run {
                Err(_) => cluster_cell.outcomes.push(Outcome::Panicked),
                Ok((outcome, trapped)) => {
                    traps_seen += usize::from(trapped);
                    cluster_cell.outcomes.push(outcome);
                }
            }
        }
        assert!(
            traps_seen > 0,
            "the cluster sweep must exercise at least one isolated trap"
        );
        trials += cluster_cell.outcomes.len();
        panics += cluster_cell
            .outcomes
            .iter()
            .filter(|o| **o == Outcome::Panicked)
            .count();
    }

    let mut out = String::new();
    let mode = if smoke { "smoke" } else { "full" };
    let _ = writeln!(
        out,
        "## Fault-sweep coverage ({mode}: {seeds} seeds/cell)\n"
    );
    let _ = writeln!(out, "| image | {} |", FAULT_KINDS.join(" | "));
    let _ = writeln!(out, "|---{}|", "|---".repeat(FAULT_KINDS.len()));
    for (name, cells) in &table {
        let row: Vec<String> = cells.iter().map(Cell::summary).collect();
        let _ = writeln!(out, "| {name} | {} |", row.join(" | "));
    }
    let _ = writeln!(
        out,
        "\ncluster isolation (a8 on {harts} harts, fault kinds cycled per seed): {} — \
         every fault stayed on its hart (other harts bit-identical to the fault-free \
         wave) and per-hart recovery restored the full wave.",
        cluster_cell.summary()
    );
    let _ = writeln!(
        out,
        "\n{trials} faulted runs, {panics} panics; every cell recovered to \
         bit-identical clean logits, every silent static flip was detected, \
         every failover matched its fallback bit-for-bit.\n"
    );
    assert_eq!(panics, 0, "fault sweep observed host panics");

    let _ = std::fs::create_dir_all(&ctx.results_dir);
    let path = ctx.results_dir.join("FAULT_SWEEP.md");
    if let Err(e) = std::fs::write(&path, &out) {
        let _ = writeln!(out, "(could not write {}: {e})", path.display());
    } else {
        let _ = writeln!(out, "written to {}", path.display());
    }
    out
}
