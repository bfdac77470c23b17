//! The three workloads: timed set-up, oracle, measured phases and the
//! metrics each run reports. See `NOTES.md` for why each exists.

use crate::clip::{self, ClipOracle};
use crate::common::{a8_image, bench_params, data_root, peak_rss_mb, BoxError, Stop};
use crate::fleet::{FleetOracle, LiveFleet, Pace, PhaseTally};
use crate::inputs::{clip_order, Corpus, Fleet, FleetSpec};
use crate::stats::{median, percentile};
use crate::trace::{install, DeviceCounters, SharedTracer, Tracer, NO_PARENT};
use kwt_audio::{kwt_tiny_frontend, MfccExtractor};
use kwt_baremetal::InferenceImage;
use kwt_engine::{Engine, HostFloatBackend, Prediction, Rv32ClusterBackend, Rv32SimBackend};
use kwt_serve::ServeMetrics;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Workload names, as `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["clip_device_a8", "serve_host_float", "serve_cluster4_a8"];

/// Set-up repeats per batch: at least this many, and for at least
/// [`SETUP_BUDGET_S`] in total.
const SETUP_REPS: usize = 11;
/// Minimum set-up time per batch, seconds: sub-millisecond set-ups repeat
/// until their median is steady.
const SETUP_BUDGET_S: f64 = 0.25;
/// Clips classified before the clip workload's timer starts.
const WARM_CLIPS: u64 = 16;
/// Chunk periods sent before a serving workload's timer starts: ten fill
/// every session's first window, the eleventh runs at steady state.
const WARM_PERIODS: u64 = 11;
/// The host fleet: thousands of long-lived sessions whose ring and
/// window state far exceeds the host caches.
const HOST_FLEET: FleetSpec = FleetSpec {
    sessions: 2048,
    pool: 16,
    stream_secs: 8,
    slots: 128,
};
/// Offered load of the host fleet's open-loop phases, chunks per second
/// across the fleet (about 5,300 decisions per second), frozen so later
/// changes are measured at the same rate. When the benchmark was defined
/// the closed-loop capacity of its host swung between about 11,000 and
/// 33,000 decisions per second with load from other tenants; this rate
/// stays below half of the low end, so queues do not run away in the
/// host's slow periods.
const HOST_OPEN_CHUNKS_PER_S: f64 = 2_000.0;
/// The host fleet's run alternates slices of a closed-loop and an
/// open-loop part of these lengths, seconds, so that its throughput and
/// its latency both sample the whole run.
const HOST_SLICES_S: (f64, f64) = (2.0, 3.0);
const HOST_OPEN: Pace = Pace::Open {
    chunks_per_s: HOST_OPEN_CHUNKS_PER_S,
};
/// The cluster fleet: a few dozen sessions, all cache-resident, eight
/// per arrival group so every scheduler round fills two 4-hart waves.
/// With four per group a drive delivers its decisions in two or three
/// waves, and the run's p50 moves with how often the third one runs; with
/// eight, p50 times throughput stays constant to within 0.5 % across seeds.
const CLUSTER_FLEET: FleetSpec = FleetSpec {
    sessions: 64,
    pool: 8,
    stream_secs: 4,
    slots: 8,
};
/// Harts of the simulated cluster.
pub(crate) const HARTS: usize = 4;

/// Command-line arguments of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end run.
    pub trace: bool,
}

/// One reported figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// The result line of one run.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Every checked output matched its oracle and nothing failed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or produced a wrong output.
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
}

impl Report {
    fn new(attempted: u64, failed: u64, metrics: Vec<Metric>) -> Self {
        Report {
            correct: failed == 0 && attempted > 0,
            attempted,
            failed,
            metrics,
        }
    }
}

/// Runs the workload `args` names.
///
/// # Errors
///
/// An unknown workload, or a set-up failure (missing or drifted data,
/// image build, engine construction).
pub fn run(args: &Args) -> Result<Report, BoxError> {
    match args.workload.as_str() {
        "clip_device_a8" => clip_device_a8(args),
        "serve_host_float" => serve_host_float(args),
        "serve_cluster4_a8" => serve_cluster4_a8(args),
        w => Err(format!("unknown workload `{w}` (expected one of {WORKLOADS:?})").into()),
    }
}

/// Set-up timings of one run. They are taken in two batches, one before
/// the measured phase and one after it, so `setup_s` (their median) spans
/// the run like the other metrics do.
struct SetupClock {
    times: Vec<f64>,
}

impl SetupClock {
    fn new() -> Self {
        SetupClock { times: Vec::new() }
    }

    /// Repeats the set-up `f` for one batch and returns its last result.
    /// The previous repeat's result is dropped before the next is timed,
    /// so only one set-up is ever alive and the peak resident set is that
    /// of the program, not of the timing.
    fn batch<T>(&mut self, mut f: impl FnMut() -> Result<T, BoxError>) -> Result<T, BoxError> {
        let (mut reps, mut spent, mut last) = (0, 0.0, None);
        while reps < SETUP_REPS || spent < SETUP_BUDGET_S {
            drop(last.take());
            let t0 = Instant::now();
            let v = f()?;
            let dt = t0.elapsed().as_secs_f64();
            self.times.push(dt);
            (reps, spent) = (reps + 1, spent + dt);
            last = Some(v);
        }
        Ok(last.expect("at least one repeat"))
    }

    fn median(&self) -> f64 {
        median(&self.times).unwrap_or(0.0)
    }
}

fn secs(x: f64) -> Duration {
    Duration::from_secs_f64(x)
}

/// Correct decisions per second of wall time.
fn rate(decisions: usize, elapsed: Duration) -> f64 {
    decisions as f64 / elapsed.as_secs_f64().max(1e-9)
}

fn p(samples: &[f64], q: f64) -> f64 {
    percentile(samples, q).map_or(0.0, |p| p.value)
}

/// Splits `seconds` into equal slices of about `nominal` seconds: returns
/// their count and length.
fn slicing(seconds: f64, nominal: f64) -> (usize, f64) {
    let k = ((seconds / nominal).round() as usize).max(1);
    (k, seconds / k as f64)
}

/// The end-to-end metrics, in `BENCHMARK.json` order. Timings are taken
/// over the whole measured run: the throughput of all its closed-loop
/// decisions, and nearest-rank percentiles over every latency it timed.
/// Other tenants of the host slow it for seconds at a time; a figure over
/// the whole run moves with the share of the run they took, where a median
/// over slices jumps between the fast and the slow figure.
struct EndToEnd {
    setup_s: f64,
    /// Correct decisions delivered under closed-loop load.
    decisions: usize,
    /// Wall time of that closed-loop load.
    elapsed: Duration,
    latencies_ms: Vec<f64>,
    device_cycles_per_decision: f64,
    device_image_bytes: usize,
    attempted: u64,
    failed: u64,
}

impl EndToEnd {
    fn report(self) -> Result<Report, BoxError> {
        let timed = self.latencies_ms.len();
        if timed < 1_000 {
            eprintln!("warning: the run timed {timed} decisions; p99 needs 1000 for ten beyond it");
        }
        let success = 1.0 - self.failed as f64 / self.attempted.max(1) as f64;
        let metrics = vec![
            metric("setup_s", self.setup_s, "s"),
            metric("decisions_per_s", rate(self.decisions, self.elapsed), "1/s"),
            metric("latency_p50_ms", p(&self.latencies_ms, 50.0), "ms"),
            metric("latency_p99_ms", p(&self.latencies_ms, 99.0), "ms"),
            metric(
                "device_cycles_per_decision",
                self.device_cycles_per_decision,
                "cycles",
            ),
            metric("device_image_bytes", self.device_image_bytes as f64, "B"),
            metric("success_rate", success, "fraction"),
            metric("peak_rss_mb", peak_rss_mb()?, "MB"),
        ];
        Ok(Report::new(self.attempted, self.failed, metrics))
    }
}

// ---------------------------------------------------------------------------
// clip_device_a8
// ---------------------------------------------------------------------------

fn clip_device_a8(args: &Args) -> Result<Report, BoxError> {
    let corpus = Corpus::load(&data_root())?;
    let order = clip_order(corpus.clips.len(), args.seed);
    let params = bench_params();
    let fe = kwt_tiny_frontend()?;
    // set-up: quantise, build the tuned A8 image, open the device engine
    let setup = || -> Result<_, BoxError> {
        let (a8, image) = a8_image(&params)?;
        let engine = Engine::new(fe.clone(), install(Rv32SimBackend::new(&image)?, None))?;
        Ok((a8, image, engine))
    };
    let mut clock = SetupClock::new();
    let (a8, image, mut engine) = clock.batch(setup)?;
    let oracle = ClipOracle::golden(&a8, &fe, &corpus.clips)?;
    let clips = &corpus.clips;
    clip::run(
        &mut engine,
        clips,
        &order,
        &oracle,
        None,
        Stop::ops(WARM_CLIPS),
    );
    if !args.trace {
        let t = clip::run(
            &mut engine,
            clips,
            &order,
            &oracle,
            None,
            Stop::after(secs(args.seconds)),
        );
        // one full pass over the seeded order covers every clip once
        let pass = &t.cycles[..t.cycles.len().min(clips.len())];
        let cycles = pass.iter().sum::<u64>() as f64 / pass.len().max(1) as f64;
        drop(engine);
        clock.batch(setup)?;
        return EndToEnd {
            setup_s: clock.median(),
            decisions: t.latencies_ms.len(),
            elapsed: t.elapsed,
            latencies_ms: t.latencies_ms,
            device_cycles_per_decision: cycles,
            device_image_bytes: image.program_bytes(),
            attempted: t.attempted,
            failed: t.failed,
        }
        .report();
    }
    let half = secs(args.seconds / 2.0);
    let plain = clip::run(&mut engine, clips, &order, &oracle, None, Stop::after(half));
    let tracer = Tracer::shared();
    let mut traced_engine = Engine::new(fe, install(Rv32SimBackend::new(&image)?, Some(&tracer)))?;
    clip::run(
        &mut traced_engine,
        clips,
        &order,
        &oracle,
        Some(&tracer),
        Stop::ops(WARM_CLIPS),
    );
    tracer.lock().expect("tracer lock").clear();
    let traced = clip::run(
        &mut traced_engine,
        clips,
        &order,
        &oracle,
        Some(&tracer),
        Stop::after(half),
    );
    let snap = Snapshot::take(&tracer);
    let metrics = per_layer(&Layered {
        snap: &snap,
        decisions: traced.latencies_ms.len() as u64,
        elapsed: traced.elapsed,
        untraced_dps: rate(plain.latencies_ms.len(), plain.elapsed),
        traced_dps: rate(traced.latencies_ms.len(), traced.elapsed),
        serve: None,
        wait_ms: &[],
        late_ms: &[],
    });
    save_trace(&args.workload, &tracer);
    Ok(Report::new(
        plain.attempted + traced.attempted,
        plain.failed + traced.failed,
        metrics,
    ))
}

// ---------------------------------------------------------------------------
// serve_host_float / serve_cluster4_a8
// ---------------------------------------------------------------------------

/// Sends the warm-up periods, then one measured phase.
fn warm(live: &mut LiveFleet<'_>, spec: FleetSpec) -> PhaseTally {
    live.run_phase(Pace::Closed, Stop::ops(WARM_PERIODS * spec.slots as u64))
}

pub(crate) fn host_engine(
    fe: &MfccExtractor,
    tracer: Option<&SharedTracer>,
) -> Result<Engine, BoxError> {
    Ok(Engine::new(
        fe.clone(),
        install(HostFloatBackend::new(bench_params()), tracer),
    )?)
}

fn serve_host_float(args: &Args) -> Result<Report, BoxError> {
    let corpus = Corpus::load(&data_root())?;
    let fleet = Fleet::generate(&corpus, HOST_FLEET, args.seed);
    let fe = kwt_tiny_frontend()?;
    let oracle = FleetOracle::standalone(host_engine(&fe, None)?, &fleet)?;
    // set-up: pack the weights, build the engine and the server slab, open
    // every session
    let setup = || LiveFleet::open(host_engine(&fe, None)?, &fleet, &oracle, None);
    let mut clock = SetupClock::new();
    let mut live = clock.batch(setup)?;
    let mut w = warm(&mut live, HOST_FLEET);
    if !args.trace {
        let (closed_s, open_s) = HOST_SLICES_S;
        let (k, len) = slicing(args.seconds, closed_s + open_s);
        let scale = len / (closed_s + open_s);
        let (mut decisions, mut elapsed, mut latencies_ms) = (0, Duration::ZERO, Vec::new());
        for _ in 0..k {
            let c = live.run_phase(Pace::Closed, Stop::after(secs(closed_s * scale)));
            let o = live.run_phase(HOST_OPEN, Stop::after(secs(open_s * scale)));
            decisions += c.latencies_ms.len();
            elapsed += c.elapsed;
            latencies_ms.extend(o.latencies_ms);
            w.failed += c.failed + o.failed;
            w.attempted += c.attempted + o.attempted;
        }
        drop(live);
        clock.batch(setup)?;
        let (bytes, cycles) = device_reference(&fe, &fleet)?;
        return EndToEnd {
            setup_s: clock.median(),
            decisions,
            elapsed,
            latencies_ms,
            device_cycles_per_decision: cycles,
            device_image_bytes: bytes,
            attempted: w.attempted,
            failed: w.failed,
        }
        .report();
    }
    let plain = live.run_phase(Pace::Closed, Stop::after(secs(args.seconds * 0.25)));
    drop(live);
    let tracer = Tracer::shared();
    let mut traced = LiveFleet::open(
        host_engine(&fe, Some(&tracer))?,
        &fleet,
        &oracle,
        Some(&tracer),
    )?;
    let tw = warm(&mut traced, HOST_FLEET);
    tracer.lock().expect("tracer lock").clear();
    let before = traced.server().metrics().clone();
    let closed = traced.run_phase(Pace::Closed, Stop::after(secs(args.seconds * 0.25)));
    let snap = Snapshot::take(&tracer);
    let serve = ServeDelta::between(&before, traced.server().metrics());
    let open = traced.run_phase(HOST_OPEN, Stop::after(secs(args.seconds * 0.5)));
    let metrics = per_layer(&Layered {
        snap: &snap,
        decisions: closed.latencies_ms.len() as u64,
        elapsed: closed.elapsed,
        untraced_dps: rate(plain.latencies_ms.len(), plain.elapsed),
        traced_dps: rate(closed.latencies_ms.len(), closed.elapsed),
        serve: Some(serve),
        wait_ms: &open.wait_ms,
        late_ms: &open.late_ms,
    });
    save_trace(&args.workload, &tracer);
    let phases = [&w, &plain, &tw, &closed, &open];
    Ok(Report::new(
        phases.iter().map(|t| t.attempted).sum(),
        phases.iter().map(|t| t.failed).sum(),
        metrics,
    ))
}

/// The host fleet runs no device, yet every workload reports the device
/// metrics: here they are the A8 image of the same weights and its
/// single-core cycles on the first second of every pool stream, measured
/// outside the timed phases.
fn device_reference(fe: &MfccExtractor, fleet: &Fleet) -> Result<(usize, f64), BoxError> {
    let (_, image) = a8_image(&bench_params())?;
    let mut engine = Engine::rv32_sim(&image, fe.clone())?;
    let mut pred = Prediction::default();
    let mut cycles = 0u64;
    for s in &fleet.streams {
        engine.classify_into(&s[..kwt_dataset::CLIP_SAMPLES], &mut pred)?;
        cycles += engine.last_device_run().map_or(0, |r| r.cycles);
    }
    Ok((
        image.program_bytes(),
        cycles as f64 / fleet.streams.len() as f64,
    ))
}

pub(crate) fn cluster_engine(
    image: &InferenceImage,
    fe: &MfccExtractor,
    tracer: Option<&SharedTracer>,
) -> Result<Engine, BoxError> {
    Ok(Engine::new(
        fe.clone(),
        install(Rv32ClusterBackend::new(image, HARTS)?, tracer),
    )?)
}

fn serve_cluster4_a8(args: &Args) -> Result<Report, BoxError> {
    let corpus = Corpus::load(&data_root())?;
    let fleet = Fleet::generate(&corpus, CLUSTER_FLEET, args.seed);
    let fe = kwt_tiny_frontend()?;
    let params = bench_params();
    let (_, image) = a8_image(&params)?;
    let oracle = FleetOracle::standalone(Engine::rv32_sim(&image, fe.clone())?, &fleet)?;
    // set-up: quantise, build the tuned A8 image, open the 4-hart cluster
    // engine and the server, open every session
    let setup = || -> Result<_, BoxError> {
        let (_, image) = a8_image(&params)?;
        let engine = cluster_engine(&image, &fe, None)?;
        let live = LiveFleet::open(engine, &fleet, &oracle, None)?;
        Ok((image, live))
    };
    let mut clock = SetupClock::new();
    let (image, mut live) = clock.batch(setup)?;
    let mut w = warm(&mut live, CLUSTER_FLEET);
    if !args.trace {
        let t = live.run_phase(Pace::Closed, Stop::after(secs(args.seconds)));
        w.attempted += t.attempted;
        w.failed += t.failed;
        let cycles = live.device_cycles_per_decision();
        drop(live);
        clock.batch(setup)?;
        return EndToEnd {
            setup_s: clock.median(),
            decisions: t.latencies_ms.len(),
            elapsed: t.elapsed,
            latencies_ms: t.latencies_ms,
            device_cycles_per_decision: cycles,
            device_image_bytes: image.program_bytes(),
            attempted: w.attempted,
            failed: w.failed,
        }
        .report();
    }
    let plain = live.run_phase(Pace::Closed, Stop::after(secs(args.seconds / 2.0)));
    drop(live);
    let tracer = Tracer::shared();
    let mut traced = LiveFleet::open(
        cluster_engine(&image, &fe, Some(&tracer))?,
        &fleet,
        &oracle,
        Some(&tracer),
    )?;
    let tw = warm(&mut traced, CLUSTER_FLEET);
    tracer.lock().expect("tracer lock").clear();
    let before = traced.server().metrics().clone();
    let closed = traced.run_phase(Pace::Closed, Stop::after(secs(args.seconds / 2.0)));
    let snap = Snapshot::take(&tracer);
    let metrics = per_layer(&Layered {
        snap: &snap,
        decisions: closed.latencies_ms.len() as u64,
        elapsed: closed.elapsed,
        untraced_dps: rate(plain.latencies_ms.len(), plain.elapsed),
        traced_dps: rate(closed.latencies_ms.len(), closed.elapsed),
        serve: Some(ServeDelta::between(&before, traced.server().metrics())),
        wait_ms: &closed.wait_ms,
        late_ms: &closed.late_ms,
    });
    save_trace(&args.workload, &tracer);
    let phases = [&w, &plain, &tw, &closed];
    Ok(Report::new(
        phases.iter().map(|t| t.attempted).sum(),
        phases.iter().map(|t| t.failed).sum(),
        metrics,
    ))
}

// ---------------------------------------------------------------------------
// per-layer metrics
// ---------------------------------------------------------------------------

/// Span times and device counters at the end of a traced phase.
struct Snapshot {
    times: BTreeMap<&'static str, (u64, u64, u64)>,
    /// Summed duration of root spans: the time the load loop spent inside
    /// the program.
    root_ns: u64,
    device: DeviceCounters,
}

impl Snapshot {
    fn take(tracer: &SharedTracer) -> Self {
        let t = tracer.lock().expect("tracer lock");
        Snapshot {
            times: t.times(),
            root_ns: t
                .spans()
                .iter()
                .filter(|s| s.parent == NO_PARENT)
                .map(|s| s.end - s.start)
                .sum(),
            device: t.device.clone(),
        }
    }

    /// `(count, total ns, self ns)` of one span name.
    fn get(&self, name: &str) -> (u64, u64, u64) {
        self.times.get(name).copied().unwrap_or_default()
    }
}

/// Server counters over one traced phase.
struct ServeDelta {
    frames: u64,
    decisions: u64,
    chunks_rejected: u64,
}

impl ServeDelta {
    fn between(a: &ServeMetrics, b: &ServeMetrics) -> Self {
        ServeDelta {
            frames: b.frames_emitted - a.frames_emitted,
            decisions: b.decisions - a.decisions,
            chunks_rejected: b.chunks_rejected - a.chunks_rejected,
        }
    }
}

/// Everything the per-layer metrics are computed from.
struct Layered<'a> {
    snap: &'a Snapshot,
    /// Correct decisions of the traced phase.
    decisions: u64,
    elapsed: Duration,
    untraced_dps: f64,
    traced_dps: f64,
    serve: Option<ServeDelta>,
    wait_ms: &'a [f64],
    late_ms: &'a [f64],
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Every per-layer metric, zero where the workload's path does not reach
/// the layer. Times are ns per decision.
fn per_layer(l: &Layered<'_>) -> Vec<Metric> {
    let d = l.decisions.max(1) as f64;
    let per = |ns: u64| ns as f64 / d;
    let s = l.snap;
    let dev = &s.device;
    let (_, _, classify_self) = s.get("engine.classify");
    let (_, backend_ns, _) = s.get("backend.infer");
    let (_, push_ns, _) = s.get("serve.push");
    let (_, drive_ns, drive_self) = s.get("serve.drive");
    let decision_ns = l.elapsed.as_nanos() as f64 / d;
    let inf = dev.inferences as f64;
    let mut m = vec![
        metric("engine.self_ns", per(classify_self), "ns"),
        metric("backend.infer_ns", per(backend_ns), "ns"),
        metric("backend.windows", dev.windows as f64, "count"),
        metric(
            "backend.windows_per_call",
            ratio(dev.windows as f64, dev.calls as f64),
            "count",
        ),
        metric(
            "rv32.cycles_per_inference",
            ratio(dev.cycles as f64, inf),
            "cycles",
        ),
        metric(
            "rv32.instret_per_inference",
            ratio(dev.instret as f64, inf),
            "count",
        ),
        metric(
            "rv32.cpi",
            ratio(dev.cycles as f64, dev.instret as f64),
            "cycles",
        ),
        metric(
            "rv32.host_ns_per_kinst",
            ratio(backend_ns as f64, dev.instret as f64 / 1e3),
            "ns",
        ),
    ];
    let profile = dev.profile.clone().unwrap_or_default();
    let runs = profile.runs as f64;
    for name in kwt_baremetal::regions::region_names().values() {
        let cycles = profile.regions.get(name).copied().unwrap_or(0);
        m.push(metric(
            format!("rv32.region.{}.cycles", sanitise(name)),
            ratio(cycles as f64, runs),
            "cycles",
        ));
    }
    m.push(metric(
        "rv32.region.untracked.cycles",
        ratio(profile.untracked as f64, runs),
        "cycles",
    ));
    let serve = l.serve.as_ref();
    m.extend([
        metric(
            "cluster.soc_cycles_per_wave",
            ratio(dev.soc_cycles as f64, dev.waves as f64),
            "cycles",
        ),
        metric(
            "cluster.stall_fraction",
            ratio(
                dev.stall_cycles as f64,
                (dev.stall_cycles + dev.busy_cycles) as f64,
            ),
            "fraction",
        ),
        metric(
            "cluster.hart_utilisation",
            ratio(dev.busy_cycles as f64, dev.hart_cycles as f64),
            "fraction",
        ),
        metric("serve.push_ns", per(push_ns), "ns"),
        metric("serve.drive_ns", per(drive_ns), "ns"),
        metric("serve.drive_self_ns", per(drive_self), "ns"),
        metric(
            "serve.frames_per_decision",
            serve.map_or(0.0, |s| ratio(s.frames as f64, s.decisions as f64)),
            "count",
        ),
        metric(
            "serve.chunks_rejected",
            serve.map_or(0.0, |s| s.chunks_rejected as f64),
            "count",
        ),
        metric("serve.wait_ms_p99", p(l.wait_ms, 99.0), "ms"),
        metric("load.late_ms_p99", p(l.late_ms, 99.0), "ms"),
        metric(
            "trace.overhead_frac",
            1.0 - ratio(l.traced_dps, l.untraced_dps),
            "fraction",
        ),
        metric("trace.decision_ns", decision_ns, "ns"),
        metric("load.self_ns", decision_ns - per(s.root_ns), "ns"),
    ]);
    m
}

/// Maps a region name onto `[A-Za-z0-9_.-]`.
fn sanitise(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-') {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Writes a traced run's spans next to the benchmark sources.
fn save_trace(workload: &str, tracer: &SharedTracer) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("traces")
        .join(format!("{workload}.tsv"));
    if let Err(e) = tracer.lock().expect("tracer lock").write_tsv(&path) {
        eprintln!("warning: cannot write {}: {e}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` of every metric object in one section of
    /// `BENCHMARK.json` (the file is ours, so a string scan suffices).
    fn listed(section: &str) -> Vec<(String, String)> {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("section is a list")];
        let field = |obj: &str, key: &str| {
            let at = obj.find(&format!("\"{key}\": \"")).expect("field present") + key.len() + 5;
            obj[at..at + obj[at..].find('"').expect("closed string")].to_string()
        };
        body.split('{')
            .skip(1)
            .map(|obj| (field(obj, "name"), field(obj, "unit")))
            .collect()
    }

    fn emitted(metrics: &[Metric]) -> Vec<(String, String)> {
        metrics
            .iter()
            .map(|m| (m.name.clone(), m.unit.to_string()))
            .collect()
    }

    #[test]
    fn end_to_end_metrics_match_benchmark_json() {
        let r = EndToEnd {
            setup_s: 1.0,
            decisions: 1,
            elapsed: Duration::from_secs(1),
            latencies_ms: vec![1.0],
            device_cycles_per_decision: 1.0,
            device_image_bytes: 1,
            attempted: 1,
            failed: 0,
        }
        .report()
        .unwrap();
        assert!(r.correct);
        assert_eq!(emitted(&r.metrics), listed("end_to_end"));
    }

    #[test]
    fn per_layer_metrics_match_benchmark_json() {
        let snap = Snapshot {
            times: BTreeMap::new(),
            root_ns: 0,
            device: DeviceCounters::default(),
        };
        let m = per_layer(&Layered {
            snap: &snap,
            decisions: 1,
            elapsed: Duration::from_secs(1),
            untraced_dps: 1.0,
            traced_dps: 1.0,
            serve: None,
            wait_ms: &[],
            late_ms: &[],
        });
        assert_eq!(emitted(&m), listed("per_layer"));
    }

    #[test]
    fn region_names_are_sanitised() {
        assert_eq!(sanitise("attn/soft max"), "attn_soft_max");
        assert_eq!(sanitise("a.b-c_1"), "a.b-c_1");
    }
}
