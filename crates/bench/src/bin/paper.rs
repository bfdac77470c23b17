//! Regenerates the paper's tables and figures.
//!
//! ```text
//! paper all            # everything (quick mode)
//! paper table9         # one artefact
//! paper table4 --full  # include the expensive KWT-1 training
//! paper bench-engine   # engine clips/sec, one-shot vs scratch-reuse vs batched -> BENCH_engine.json (--smoke: one call per timing)
//! paper bench-serve    # session-multiplexed serving arms -> BENCH_serve.json (--smoke: small fleet)
//! paper check-serve    # serve gate: fused waves >= 2x serial device, bit-identical decisions, 5% vs baseline
//! paper check-a8       # A8-vs-i16 top-1 agreement gate + device/host bit-identity spot check
//! paper check-cycles   # device-cycle regression gate vs the committed BENCH_engine.json (3%)
//! paper check-cluster  # cluster gate: single-hart identity, serial-identical logits, >=3x @ 4 harts
//! paper tune-kernels   # A8 kernel-specialiser factor sweep -> results/TUNED_KERNELS.txt + TUNING.md
//! paper check-tuning   # tuner determinism + tuned-not-slower-than-generic gate
//! paper check-frontend # fixed-point MFCC vs f64 oracle top-1 agreement gate (99.5%)
//! paper fault-sweep    # chaos harness: fault taxonomy x image flavours -> FAULT_SWEEP.md
//! paper fault-sweep --smoke  # fewer seeds per cell (the CI gate)
//! paper bench-cascade  # wake-word cascade duty sweep -> BENCH_cascade.json (--smoke: seeded weights)
//! paper check-cascade  # cascade gate: device verdict identity + cheaper-than-always-on + baseline
//! paper make-gsc-subset    # generate the committed GSC v2 subset under data/gsc_v2_subset
//! paper check-calibration  # offline subset verification + A8 calibration >= 99% float agreement
//! ```
//!
//! The `check-*` gates that compare against a committed artefact
//! (`BENCH_*.json`, `results/TUNED_KERNELS.txt`) read it from the working
//! directory and fail when it is missing: run them from the repository
//! root. The only flags are `--full` and `--smoke`; any other `--…`
//! argument exits with status 2.

use kwt_bench::experiments as exp;
use kwt_bench::{cascadebench, enginebench, faultsweep, gscbench, servebench, tune, ExpContext};

/// A target: its name and its run, given the context and `--smoke`.
type Target = (&'static str, fn(&ExpContext, bool) -> String);

/// The targets `paper all` runs, in order.
const ALL: [Target; 28] = [
    ("table1", |c, _| exp::table1(c)),
    ("table2", |c, _| exp::table2(c)),
    ("table3", |c, _| exp::table3(c)),
    ("table4", |c, _| exp::table4(c)),
    ("table5", |c, _| exp::table5(c)),
    ("table6", |c, _| exp::table6(c)),
    ("table7", |c, _| exp::table7(c)),
    ("table8", |c, _| exp::table8(c)),
    ("table9", |c, _| exp::table9(c)),
    ("fig3", |c, _| exp::fig3(c)),
    ("fig4", |c, _| exp::fig4(c)),
    ("fig5", |c, _| exp::fig5(c)),
    ("fig7", |c, _| exp::fig7(c)),
    ("ablation-timing", |c, _| exp::ablation_timing(c)),
    ("ablation-nonlinearity", |c, _| {
        exp::ablation_nonlinearity(c)
    }),
    ("bench-engine", |_, smoke| enginebench::run_and_write(smoke)),
    ("bench-serve", |_, smoke| servebench::run_and_write(smoke)),
    ("check-serve", |_, _| servebench::check()),
    ("check-a8", |c, _| exp::check_a8(c)),
    ("check-frontend", |c, _| exp::check_frontend(c)),
    ("check-cycles", |c, _| exp::check_cycles(c)),
    ("check-cluster", |c, _| exp::check_cluster(c)),
    ("tune-kernels", |_, _| tune::run_and_write()),
    ("check-tuning", |_, _| tune::check()),
    ("fault-sweep", faultsweep::run),
    ("bench-cascade", |_, smoke| {
        cascadebench::run_and_write(smoke)
    }),
    ("check-cascade", |_, _| cascadebench::check()),
    ("check-calibration", |_, _| gscbench::check_calibration()),
];

/// The one target `paper all` leaves out.
const MAKE_GSC_SUBSET: Target = ("make-gsc-subset", |_, _| gscbench::make_subset());

fn main() {
    const FLAGS: [&str; 2] = ["--full", "--smoke"];
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (flags, targets): (Vec<&str>, Vec<&str>) = args
        .iter()
        .map(String::as_str)
        .partition(|a| a.starts_with("--"));
    if let Some(bad) = flags.iter().find(|f| !FLAGS.contains(f)) {
        eprintln!("unknown flag `{bad}`; accepted: {FLAGS:?}");
        std::process::exit(2);
    }
    let ctx = ExpContext {
        full: flags.contains(&"--full"),
        ..ExpContext::default()
    };
    let smoke = flags.contains(&"--smoke");
    let selected: Vec<&Target> = if targets.is_empty() || targets.contains(&"all") {
        ALL.iter().collect()
    } else {
        let known = || ALL.iter().chain([&MAKE_GSC_SUBSET]);
        targets
            .iter()
            .map(|t| {
                known().find(|(name, _)| name == t).unwrap_or_else(|| {
                    let names: Vec<&str> = known().map(|(name, _)| *name).collect();
                    eprintln!("unknown target `{t}`; available: all {names:?}");
                    std::process::exit(2);
                })
            })
            .collect()
    };
    for (_, run) in selected {
        println!("{}", run(&ctx, smoke));
    }
}
