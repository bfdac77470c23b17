//! Serving-layer benchmark (`paper bench-serve` -> `BENCH_serve.json`)
//! and its regression gate (`paper check-serve`).
//!
//! Two questions, each answered by a matched pair of arms over the same
//! deterministic synthetic load:
//!
//! 1. **Scale** (host arms, wall clock): can one [`KwsServer`] multiplex
//!    10k+ concurrent 16 kHz streams through a single `host_float`
//!    engine, and what are the detections/s and in-server delivery
//!    latency percentiles? The naive arm is the classic
//!    one-session-at-a-time loop — a single [`StreamingKws`] reset and
//!    replayed per stream. On a 1-CPU container both arms share one
//!    core, so the wall-clock ratio mostly measures scheduling overhead;
//!    it is recorded honestly alongside.
//! 2. **Throughput win** (cluster arms, simulated SoC cycles —
//!    deterministic, so gateable): the same multiplexed load behind a
//!    4-hart RV32 cluster (cross-session fused waves) versus the serial
//!    single-core device. The headline `speedup` is detections per SoC
//!    cycle, fused vs serial — the paper-PR gate requires **>= 2x** and
//!    the measured value (~4x at 4 harts) is re-proved by `check-serve`
//!    on every bench CI run.
//!
//! Equal correctness is asserted *inside* the bench: the two cluster
//! arms must deliver bit-identical decision streams, and the
//! multiplexed host arm is spot-checked against the naive loop on every
//! distinct stream in the pool. A throughput number from a wrong answer
//! is not a number.
//!
//! `paper bench-serve --smoke` runs a smaller fleet. The gate sub-load is
//! fixed-size regardless of smoke so `check-serve` always compares like
//! with like.

use crate::baseline;
use kwt_audio::kwt_tiny_frontend;
use kwt_baremetal::InferenceImage;
use kwt_engine::{Engine, StreamDecision, StreamingConfig, StreamingKws};
use kwt_quant::{A8Config, A8Kwt};
use kwt_serve::{KwsServer, Reactor, ServeConfig, ServeMetrics, SessionId, Token};
use serde::Serialize;
use std::time::{Duration, Instant};

/// Ingest chunk size: 100 ms at 16 kHz, the cadence a real microphone
/// gateway would batch at.
const CHUNK: usize = 1_600;
/// Samples per synthetic stream (1.2 s): 31 MFCC frames, 6 sliding-window
/// decisions per session at the default stride.
const STREAM_SAMPLES: usize = 19_200;
/// Distinct signals in the pool; sessions cycle through it, which keeps
/// generation cheap at 10k+ sessions and gives every pool member a
/// standalone reference for the correctness spot check.
const POOL: usize = 16;
/// Fixed gate sub-load re-measured by `check-serve` (must match the
/// committed `BENCH_serve.json` exactly for the +-5 % comparison).
const GATE_SESSIONS: usize = 24;

/// One wall-clock host arm of `BENCH_serve.json`.
#[derive(Debug, Clone, Serialize)]
pub struct ServeHostRow {
    /// `multiplexed` (one `KwsServer`) or `naive_loop` (one
    /// `StreamingKws` reset per stream).
    pub arm: String,
    /// Engine backend behind the arm.
    pub backend: String,
    /// Concurrent sessions driven to completion.
    pub sessions: usize,
    /// Audio per session, seconds.
    pub audio_s_per_session: f64,
    /// Total decisions delivered.
    pub decisions: u64,
    /// Wall-clock for the whole load, milliseconds.
    pub wall_ms: f64,
    /// Decisions per second of wall clock — the host throughput line.
    pub detections_per_s: f64,
    /// In-server delivery latency percentiles, microseconds (drive entry
    /// to decision callback; 0 for the naive arm, which has no server).
    pub p50_us: f64,
    /// 99th percentile, microseconds.
    pub p99_us: f64,
    /// 99.9th percentile, microseconds.
    pub p999_us: f64,
    /// Chunks rejected by ring backpressure (expected 0 — the load
    /// generator respects the rings; nonzero means the bench is wrong).
    pub chunks_rejected: u64,
}

/// One simulated-SoC cluster arm of `BENCH_serve.json`.
#[derive(Debug, Clone, Serialize)]
pub struct ServeClusterRow {
    /// `fused_waves_4h` (cross-session batches on the 4-hart cluster) or
    /// `serial_device` (same scheduler, one window at a time on the
    /// single-core device).
    pub arm: String,
    /// Engine backend behind the arm.
    pub backend: String,
    /// Concurrent sessions driven to completion.
    pub sessions: usize,
    /// Total decisions delivered.
    pub decisions: u64,
    /// Summed simulated device cycles across all waves.
    pub device_cycles: u64,
    /// Decisions per million SoC cycles — the deterministic throughput
    /// headline the speedup gate is computed from.
    pub detections_per_mcycle: f64,
    /// Mean windows per dispatched wave (1.0 on the serial arm; > 2 on
    /// the fused arm proves genuine cross-session batching).
    pub wave_occupancy: f64,
    /// Simulated queueing + service latency percentiles, kilocycles.
    pub sim_p50_kcycles: f64,
    /// 99th percentile, kilocycles.
    pub sim_p99_kcycles: f64,
    /// 99.9th percentile, kilocycles.
    pub sim_p999_kcycles: f64,
}

/// The fixed-size sub-load `check-serve` re-measures against the
/// committed baseline. Simulated cycles are deterministic per build, so
/// every field reproduces exactly until the code intentionally changes.
#[derive(Debug, Clone, Serialize)]
pub struct ServeGate {
    /// Sessions in the gate load.
    pub sessions: usize,
    /// Samples per session.
    pub samples_per_session: usize,
    /// Ingest chunk size, samples.
    pub chunk_samples: usize,
    /// Decisions delivered by each arm (identical by construction).
    pub decisions: u64,
    /// Fused-wave arm throughput, decisions per million SoC cycles.
    pub fused_detections_per_mcycle: f64,
    /// Serial-device arm throughput, decisions per million SoC cycles.
    pub serial_detections_per_mcycle: f64,
    /// Fused / serial — the multiplexing win; gate requires >= 2x.
    pub speedup: f64,
    /// Fused arm simulated p99 delivery latency, kilocycles.
    pub sim_p99_kcycles: f64,
    /// Decisions compared bit-for-bit between the two arms.
    pub identical_decisions: u64,
}

/// The full `BENCH_serve.json` document.
#[derive(Debug, Clone, Serialize)]
pub struct ServeBenchSummary {
    /// Producing command.
    pub generated_by: String,
    /// True when produced by `paper bench-serve --smoke` (small fleet,
    /// wall-clock numbers meaningless; gate section still full-size).
    pub smoke: bool,
    /// Wall-clock host arms (multiplexed vs naive loop).
    pub host: Vec<ServeHostRow>,
    /// Simulated-SoC cluster arms (fused waves vs serial device).
    pub cluster: Vec<ServeClusterRow>,
    /// Fused / serial detections-per-cycle at the full cluster load.
    pub cluster_speedup_vs_serial: f64,
    /// Multiplexed / naive wall-clock detections/s on the host (bounded
    /// by available CPUs — ~1x on a 1-CPU container).
    pub host_wall_speedup_vs_naive: f64,
    /// Host-arm decisions compared bit-for-bit (multiplexed vs naive).
    pub identical_host_decisions: u64,
    /// The fixed sub-load `check-serve` gates against.
    pub gate: ServeGate,
}

/// Deterministic pool of distinct synthetic streams (tone + hash noise,
/// the same family as [`crate::enginebench::bench_clips`] but with a
/// parameterised length).
pub fn stream_pool(n: usize, samples: usize) -> Vec<Vec<f32>> {
    (0..n as u64)
        .map(|seed| {
            (0..samples as u64)
                .map(|i| {
                    let t = i as f64 / 16_000.0;
                    let h = (i ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                        .wrapping_mul(0x2545_F491_4F6C_DD1D);
                    let noise = ((h >> 40) as f64 / (1u64 << 24) as f64) - 0.5;
                    (0.4 * (2.0 * std::f64::consts::PI * (230.0 + 55.0 * seed as f64) * t).sin()
                        + 0.05 * noise) as f32
                })
                .collect()
        })
        .collect()
}

struct MuxRun {
    decisions: u64,
    wall: Duration,
    metrics: ServeMetrics,
    /// Decision streams of the first `collect_first` sessions.
    collected: Vec<Vec<StreamDecision>>,
}

/// Drive `sessions` concurrent streams (session `s` plays
/// `pool[s % pool.len()]`) through one server in reactor virtual time:
/// arrivals are staggered across the chunk period, every due session
/// pushes its next 100 ms, then one `drive` fuses all boundary-crossing
/// windows into waves. Fully deterministic.
fn run_multiplexed(
    engine: Engine,
    sessions: usize,
    pool: &[Vec<f32>],
    collect_first: usize,
) -> MuxRun {
    let mut server = KwsServer::new(
        engine,
        ServeConfig {
            max_sessions: sessions,
            ..ServeConfig::default()
        },
    )
    .expect("serve config is valid");
    let ids: Vec<SessionId> = (0..sessions)
        .map(|_| server.open().expect("slab sized for the fleet"))
        .collect();
    let mut reactor = Reactor::with_capacity(sessions);
    // Arrivals are staggered across the chunk period, but coarsely: each
    // poll batch must still carry enough sessions (>= 16) to fill the
    // backend's waves, otherwise the event loop classifies half-empty
    // batches and the fused arm degenerates to the serial one.
    let phases = (sessions / 16).clamp(1, 16);
    for s in 0..sessions {
        reactor.arm(((s % phases) * (CHUNK / phases)) as u64, Token(s as u64));
    }
    let mut offsets = vec![0usize; sessions];
    let mut fired: Vec<Token> = Vec::with_capacity(sessions);
    let mut collected: Vec<Vec<StreamDecision>> = vec![Vec::new(); collect_first];
    let mut decisions = 0u64;
    let t0 = Instant::now();
    while let Some(now) = reactor.next_due() {
        fired.clear();
        reactor.poll_into(now, &mut fired);
        for &Token(tok) in &fired {
            let s = tok as usize;
            let signal = &pool[s % pool.len()];
            let end = (offsets[s] + CHUNK).min(signal.len());
            server
                .push(ids[s], &signal[offsets[s]..end])
                .expect("load generator respects ring capacity");
            offsets[s] = end;
            if end < signal.len() {
                reactor.arm(now + CHUNK as u64, Token(tok));
            }
        }
        decisions += server
            .drive(|d| {
                let s = d.session.index() as usize;
                if s < collect_first {
                    collected[s].push(d.decision.clone());
                }
            })
            .expect("drive succeeds on valid audio") as u64;
    }
    MuxRun {
        decisions,
        wall: t0.elapsed(),
        metrics: server.metrics().clone(),
        collected,
    }
}

/// The naive baseline: one `StreamingKws`, reset and replayed per
/// stream, chunks pushed in the same 100 ms cadence — no multiplexing,
/// no cross-session waves, one window at a time.
fn run_naive_host(
    engine: Engine,
    sessions: usize,
    pool: &[Vec<f32>],
    collect_first: usize,
) -> (u64, Duration, Vec<Vec<StreamDecision>>) {
    let mut kws = StreamingKws::new(engine, StreamingConfig::default()).expect("streaming config");
    let mut collected: Vec<Vec<StreamDecision>> = vec![Vec::new(); collect_first];
    let mut decisions = 0u64;
    let t0 = Instant::now();
    for s in 0..sessions {
        kws.reset();
        let signal = &pool[s % pool.len()];
        for chunk in signal.chunks(CHUNK) {
            let ds = kws.push(chunk).expect("valid audio");
            decisions += ds.len() as u64;
            if s < collect_first {
                collected[s].extend(ds);
            }
        }
    }
    (decisions, t0.elapsed(), collected)
}

/// Bit-exact comparison of per-session decision streams; returns the
/// number of decisions compared.
///
/// # Panics
///
/// Panics on the first mismatch — a throughput arm that disagrees with
/// its reference invalidates the whole benchmark.
fn assert_identical(got: &[Vec<StreamDecision>], want: &[Vec<StreamDecision>], what: &str) -> u64 {
    let mut compared = 0u64;
    for (s, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.len(), w.len(), "{what}: session {s} decision count");
        for (a, b) in g.iter().zip(w) {
            assert_eq!(a.frame_index, b.frame_index, "{what}: session {s}");
            assert_eq!(
                a.class, b.class,
                "{what}: session {s} frame {}",
                b.frame_index
            );
            assert_eq!(
                a.score.to_bits(),
                b.score.to_bits(),
                "{what}: session {s} frame {}",
                b.frame_index
            );
            assert_eq!(
                a.smoothed_class, b.smoothed_class,
                "{what}: session {s} frame {}",
                b.frame_index
            );
            compared += 1;
        }
    }
    compared
}

fn a8_image() -> InferenceImage {
    let a8 = A8Kwt::quantize(&crate::enginebench::bench_params(), A8Config::paper_a8())
        .expect("a8 exponents valid");
    InferenceImage::build_a8(&a8).expect("a8 image builds")
}

fn host_row(arm: &str, sessions: usize, run: &MuxRun) -> ServeHostRow {
    let wall_s = run.wall.as_secs_f64();
    ServeHostRow {
        arm: arm.into(),
        backend: "host_float".into(),
        sessions,
        audio_s_per_session: STREAM_SAMPLES as f64 / 16_000.0,
        decisions: run.decisions,
        wall_ms: wall_s * 1e3,
        detections_per_s: run.decisions as f64 / wall_s,
        p50_us: run.metrics.wall_latency_ns.p50() as f64 / 1e3,
        p99_us: run.metrics.wall_latency_ns.p99() as f64 / 1e3,
        p999_us: run.metrics.wall_latency_ns.p999() as f64 / 1e3,
        chunks_rejected: run.metrics.chunks_rejected,
    }
}

fn cluster_row(arm: &str, backend: &str, sessions: usize, run: &MuxRun) -> ServeClusterRow {
    ServeClusterRow {
        arm: arm.into(),
        backend: backend.into(),
        sessions,
        decisions: run.decisions,
        device_cycles: run.metrics.device_cycles,
        detections_per_mcycle: run.decisions as f64 * 1e6 / run.metrics.device_cycles.max(1) as f64,
        wave_occupancy: run.metrics.wave_occupancy(),
        sim_p50_kcycles: run.metrics.sim_latency_cycles.p50() as f64 / 1e3,
        sim_p99_kcycles: run.metrics.sim_latency_cycles.p99() as f64 / 1e3,
        sim_p999_kcycles: run.metrics.sim_latency_cycles.p999() as f64 / 1e3,
    }
}

/// Runs the two cluster arms over `sessions` streams and proves their
/// decision streams bit-identical. Shared by [`collect`] and the gate.
fn cluster_arms(
    image: &InferenceImage,
    sessions: usize,
    pool: &[Vec<f32>],
) -> (ServeClusterRow, ServeClusterRow, u64) {
    let fe = kwt_tiny_frontend().expect("preset is valid");
    let fused_engine = Engine::rv32_cluster(image, fe.clone(), 4).expect("cluster engine");
    let serial_engine = Engine::rv32_sim(image, fe).expect("serial engine");
    let fused = run_multiplexed(fused_engine, sessions, pool, sessions);
    let serial = run_multiplexed(serial_engine, sessions, pool, sessions);
    let identical = assert_identical(&fused.collected, &serial.collected, "fused vs serial");
    assert!(identical > 0, "cluster arms must deliver decisions");
    (
        cluster_row(
            "fused_waves_4h",
            "rv32_cluster_a8 (4 harts)",
            sessions,
            &fused,
        ),
        cluster_row("serial_device", "rv32_sim_a8", sessions, &serial),
        identical,
    )
}

/// Measures the fixed-size gate sub-load (both cluster arms, identity
/// asserted). Deterministic: simulated cycles only.
pub(crate) fn measure_gate() -> ServeGate {
    let image = a8_image();
    let pool = stream_pool(8, STREAM_SAMPLES);
    let (fused, serial, identical) = cluster_arms(&image, GATE_SESSIONS, &pool);
    assert_eq!(fused.decisions, serial.decisions);
    ServeGate {
        sessions: GATE_SESSIONS,
        samples_per_session: STREAM_SAMPLES,
        chunk_samples: CHUNK,
        decisions: fused.decisions,
        fused_detections_per_mcycle: fused.detections_per_mcycle,
        serial_detections_per_mcycle: serial.detections_per_mcycle,
        speedup: fused.detections_per_mcycle / serial.detections_per_mcycle,
        sim_p99_kcycles: fused.sim_p99_kcycles,
        identical_decisions: identical,
    }
}

/// Collects the full `BENCH_serve.json` document; `smoke` shrinks the host
/// and cluster fleets.
pub fn collect(smoke: bool) -> ServeBenchSummary {
    let pool = stream_pool(POOL, STREAM_SAMPLES);
    let fe = kwt_tiny_frontend().expect("preset is valid");
    let params = crate::enginebench::bench_params();

    // Host arms: wall-clock scale.
    let n_host = if smoke { 256 } else { 10_240 };
    eprintln!("[serve] multiplexed host arm: {n_host} sessions...");
    let mux = run_multiplexed(
        Engine::host_float(params.clone(), fe.clone()).expect("host engine"),
        n_host,
        &pool,
        POOL.min(n_host),
    );
    eprintln!("[serve] naive host arm: {n_host} sessions...");
    let (naive_decisions, naive_wall, naive_collected) = run_naive_host(
        Engine::host_float(params, fe).expect("host engine"),
        n_host,
        &pool,
        POOL.min(n_host),
    );
    assert_eq!(
        mux.decisions, naive_decisions,
        "host arms disagree on decision count"
    );
    let identical_host = assert_identical(&mux.collected, &naive_collected, "multiplexed vs naive");
    let mux_row = host_row("multiplexed", n_host, &mux);
    let naive_row = ServeHostRow {
        arm: "naive_loop".into(),
        backend: "host_float".into(),
        sessions: n_host,
        audio_s_per_session: STREAM_SAMPLES as f64 / 16_000.0,
        decisions: naive_decisions,
        wall_ms: naive_wall.as_secs_f64() * 1e3,
        detections_per_s: naive_decisions as f64 / naive_wall.as_secs_f64(),
        p50_us: 0.0,
        p99_us: 0.0,
        p999_us: 0.0,
        chunks_rejected: 0,
    };
    let host_wall_speedup = mux_row.detections_per_s / naive_row.detections_per_s;

    // Cluster arms: deterministic SoC-cycle throughput.
    let image = a8_image();
    let n_cluster = if smoke { 16 } else { 96 };
    eprintln!("[serve] cluster arms: {n_cluster} sessions on the A8 image...");
    let (fused, serial, _) = cluster_arms(&image, n_cluster, &pool);
    let cluster_speedup = fused.detections_per_mcycle / serial.detections_per_mcycle;

    eprintln!("[serve] gate sub-load: {GATE_SESSIONS} sessions...");
    let gate = measure_gate();

    ServeBenchSummary {
        generated_by: "paper bench-serve".into(),
        smoke,
        host: vec![mux_row, naive_row],
        cluster: vec![fused, serial],
        cluster_speedup_vs_serial: cluster_speedup,
        host_wall_speedup_vs_naive: host_wall_speedup,
        identical_host_decisions: identical_host,
        gate,
    }
}

/// Runs [`collect`], writes `BENCH_serve.json` to the working directory,
/// and returns a human-readable table.
pub fn run_and_write(smoke: bool) -> String {
    let summary = collect(smoke);
    baseline::SERVE.write(&serde_json::to_string_pretty(&summary).expect("summary serializes"));
    let mut out = format!("# bench-serve (written to {})\n", baseline::SERVE.path);
    out.push_str("host arms, wall clock (1-CPU containers time-slice both arms):\n");
    for r in &summary.host {
        out.push_str(&format!(
            "  {:<12} {} sessions x {:.1} s  {:>8} decisions  {:>9.1} ms  {:>9.1} det/s  \
             p50 {:>7.1} us  p99 {:>8.1} us  p999 {:>8.1} us\n",
            r.arm,
            r.sessions,
            r.audio_s_per_session,
            r.decisions,
            r.wall_ms,
            r.detections_per_s,
            r.p50_us,
            r.p99_us,
            r.p999_us
        ));
    }
    out.push_str(&format!(
        "  host wall speedup (multiplexed vs naive): {:.2}x; {} decisions spot-checked identical\n",
        summary.host_wall_speedup_vs_naive, summary.identical_host_decisions
    ));
    out.push_str("cluster arms, simulated SoC cycles (deterministic; gate >= 2x):\n");
    for r in &summary.cluster {
        out.push_str(&format!(
            "  {:<14} {:<24} {} sessions  {:>6} decisions  {:>12} cycles  \
             {:>7.3} det/Mcycle  occupancy {:>4.2}  sim p99 {:>8.1} kcycles\n",
            r.arm,
            r.backend,
            r.sessions,
            r.decisions,
            r.device_cycles,
            r.detections_per_mcycle,
            r.wave_occupancy,
            r.sim_p99_kcycles
        ));
    }
    out.push_str(&format!(
        "  cluster speedup (fused waves vs serial device): {:.2}x\n",
        summary.cluster_speedup_vs_serial
    ));
    out.push_str(&format!(
        "gate sub-load ({} sessions): {:.2}x speedup, {:.3} det/Mcycle fused, sim p99 {:.1} kcycles, \
         {} decisions bit-identical across arms\n",
        summary.gate.sessions,
        summary.gate.speedup,
        summary.gate.fused_detections_per_mcycle,
        summary.gate.sim_p99_kcycles,
        summary.gate.identical_decisions
    ));
    if summary.smoke {
        out.push_str("(smoke mode: small fleet, wall-clock rows not meaningful)\n");
    }
    out
}

/// Minimal mirror of the committed `BENCH_serve.json` gate block.
#[derive(serde::Deserialize)]
pub(crate) struct BaselineGate {
    decisions: u64,
    fused_detections_per_mcycle: f64,
    speedup: f64,
    sim_p99_kcycles: f64,
}

/// Serving regression gate (wired into `scripts/verify.sh` and CI):
/// re-measures the fixed gate sub-load — both cluster arms, decision
/// streams proved bit-identical — then asserts:
///
/// 1. fused-wave throughput is **>= 2x** the serial device
///    (the PR's headline multiplexing win; measured ~4x at 4 harts);
/// 2. against the committed `BENCH_serve.json`: the decision count
///    matches exactly, fused detections/Mcycle has not fallen **> 5 %**,
///    and the fused simulated p99 latency has not grown **> 5 %**.
///
/// Simulated cycle counts are deterministic per build, so the 5 %
/// margin only absorbs intentional, committed re-baselines — not noise.
///
/// # Panics
///
/// Panics (failing the verify run) on any cross-arm decision mismatch,
/// a speedup below 2x, a baseline regression beyond 5 %, or a missing or
/// unparseable baseline file.
pub fn check() -> String {
    let gate = measure_gate();
    assert!(
        gate.speedup >= 2.0,
        "multiplexed fused-wave throughput is only {:.2}x the serial device (gate: >= 2x) — \
         cross-session batching has stopped paying for itself",
        gate.speedup
    );
    let b = baseline::SERVE
        .load::<baseline::GateDoc<BaselineGate>>()
        .unwrap_or_else(|e| panic!("{e}"))
        .gate;
    assert_eq!(
        gate.decisions, b.decisions,
        "gate sub-load delivered {} decisions but the committed baseline recorded {} — \
         the load or the streaming semantics changed; re-run `paper bench-serve` and \
         review the diff",
        gate.decisions, b.decisions
    );
    let thr = baseline::rel_delta(
        gate.fused_detections_per_mcycle,
        b.fused_detections_per_mcycle,
    );
    assert!(
        baseline::within(-thr, 0.05),
        "serve throughput regression: fused arm at {:.3} det/Mcycle is {:.2}% below the \
         committed {:.3} (gate: 5%) — investigate, or re-run `paper bench-serve` and \
         commit the new BENCH_serve.json if intentional",
        gate.fused_detections_per_mcycle,
        -thr * 100.0,
        b.fused_detections_per_mcycle
    );
    let lat = baseline::rel_delta(gate.sim_p99_kcycles, b.sim_p99_kcycles);
    assert!(
        baseline::within(lat, 0.05),
        "serve latency regression: fused sim p99 at {:.1} kcycles is {:.2}% above the \
         committed {:.1} (gate: 5%)",
        gate.sim_p99_kcycles,
        lat * 100.0,
        b.sim_p99_kcycles
    );
    format!(
        "## Serve gate\n\n{} sessions multiplexed: fused waves {:.3} det/Mcycle vs serial \
         {:.3} = {:.2}x (>= 2x required); {} decisions bit-identical across arms; \
         baseline: throughput {:+.2}% (committed {:.3} det/Mcycle), sim p99 {:+.2}% \
         (committed {:.1} kcycles), speedup committed {:.2}x\n",
        gate.sessions,
        gate.fused_detections_per_mcycle,
        gate.serial_detections_per_mcycle,
        gate.speedup,
        gate.identical_decisions,
        thr * 100.0,
        b.fused_detections_per_mcycle,
        lat * 100.0,
        b.sim_p99_kcycles,
        b.speedup
    )
}
