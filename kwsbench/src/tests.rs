//! Whole-workload checks on small inputs: tracing changes no decision,
//! wrong references are counted, and open-loop latency runs from the
//! due time.

use crate::clip::{self, ClipOracle};
use crate::common::{a8_image, bench_params, data_root, Stop};
use crate::fleet::{FleetOracle, LiveFleet, Pace, PhaseTally};
use crate::inputs::{clip_order, Corpus, Fleet, FleetSpec};
use crate::trace::{install, Probe, Tracer};
use crate::workloads::{cluster_engine, host_engine};
use kwt_audio::kwt_tiny_frontend;
use kwt_engine::{Backend, BackendKind, Engine, HostFloatBackend, Rv32SimBackend};
use kwt_model::KwtConfig;
use kwt_tensor::Mat;
use std::time::Duration;

fn corpus() -> Corpus {
    Corpus::load(&data_root()).expect("committed subset loads")
}

/// Small host fleet: 16 sessions, first decisions after ten periods, and
/// streams short enough that sessions reopen within the test.
const HOST_SPEC: FleetSpec = FleetSpec {
    sessions: 16,
    pool: 2,
    stream_secs: 2,
    slots: 4,
};

/// Small cluster fleet: four sessions per group fill 4-hart waves.
const CLUSTER_SPEC: FleetSpec = FleetSpec {
    sessions: 8,
    pool: 2,
    stream_secs: 2,
    slots: 2,
};

/// Groups covering both streams' first pass and a reopen.
fn groups(spec: FleetSpec) -> u64 {
    (spec.stream_secs as u64 * 10 + 4) * spec.slots as u64
}

#[test]
fn clip_workload_traced_equals_untraced() {
    let c = corpus();
    let order = clip_order(c.clips.len(), 5);
    let fe = kwt_tiny_frontend().unwrap();
    let (a8, image) = a8_image(&bench_params()).unwrap();
    let oracle = ClipOracle::golden(&a8, &fe, &c.clips).unwrap();
    let run = |tracer| {
        let mut e = Engine::new(
            fe.clone(),
            install(Rv32SimBackend::new(&image).unwrap(), tracer),
        )
        .unwrap();
        clip::run(&mut e, &c.clips, &order, &oracle, tracer, Stop::ops(12))
    };
    let plain = run(None);
    let tracer = Tracer::shared();
    let traced = run(Some(&tracer));
    assert_eq!(plain.failed, 0);
    assert_eq!(plain.latencies_ms.len(), 12);
    assert_eq!(plain.digest, traced.digest);
    assert_eq!(plain.cycles, traced.cycles);
    let t = tracer.lock().unwrap();
    // the decorator saw every device inference and its cycles
    assert_eq!(t.device.inferences, 12);
    assert_eq!(t.device.cycles, plain.cycles.iter().sum::<u64>());
    assert_eq!(t.spans().len(), 24);
}

fn fleet_pair(
    spec: FleetSpec,
    oracle_engine: Engine,
    engine: impl Fn(Option<&crate::trace::SharedTracer>) -> Engine,
) -> [(PhaseTally, crate::common::Digest, f64); 2] {
    let fleet = Fleet::generate(&corpus(), spec, 11);
    let oracle = FleetOracle::standalone(oracle_engine, &fleet).unwrap();
    let tracer = Tracer::shared();
    [None, Some(&tracer)].map(|tr| {
        let mut d = LiveFleet::open(engine(tr), &fleet, &oracle, tr).unwrap();
        let t = d.run_phase(Pace::Closed, Stop::ops(groups(spec)));
        (t, d.digest, d.device_cycles_per_decision())
    })
}

#[test]
fn host_fleet_traced_equals_untraced() {
    let fe = kwt_tiny_frontend().unwrap();
    let [(plain, dp, _), (traced, dt, _)] =
        fleet_pair(HOST_SPEC, host_engine(&fe, None).unwrap(), |tr| {
            host_engine(&fe, tr).unwrap()
        });
    assert_eq!(plain.failed, 0);
    assert!(plain.decisions > 200, "{} decisions", plain.decisions);
    assert_eq!(plain.decisions, traced.decisions);
    assert_eq!(dp, dt);
}

#[test]
fn cluster_fleet_traced_equals_untraced() {
    let fe = kwt_tiny_frontend().unwrap();
    let (_, image) = a8_image(&bench_params()).unwrap();
    let [(plain, dp, cp), (traced, dt, ct)] = fleet_pair(
        CLUSTER_SPEC,
        Engine::rv32_sim(&image, fe.clone()).unwrap(),
        |tr| cluster_engine(&image, &fe, tr).unwrap(),
    );
    assert_eq!(plain.failed, 0);
    assert!(plain.decisions > 100, "{} decisions", plain.decisions);
    assert_eq!(plain.decisions, traced.decisions);
    assert_eq!(dp, dt);
    assert_eq!(cp.to_bits(), ct.to_bits());
    // full 4-wide waves: a quarter of the single-core cost plus stalls
    assert!(cp > 45_000.0 && cp < 55_000.0, "{cp} cycles per decision");
}

#[test]
fn perturbed_clip_reference_is_a_counted_failure() {
    let c = corpus();
    let order = clip_order(c.clips.len(), 5);
    let fe = kwt_tiny_frontend().unwrap();
    let (a8, image) = a8_image(&bench_params()).unwrap();
    let mut oracle = ClipOracle::golden(&a8, &fe, &c.clips).unwrap();
    oracle.perturb(order[1] as usize);
    let mut e = Engine::rv32_sim(&image, fe).unwrap();
    let t = clip::run(&mut e, &c.clips, &order, &oracle, None, Stop::ops(4));
    assert_eq!((t.attempted, t.failed, t.latencies_ms.len()), (4, 1, 3));
}

#[test]
fn perturbed_stream_reference_is_a_counted_failure() {
    let fe = kwt_tiny_frontend().unwrap();
    let fleet = Fleet::generate(&corpus(), HOST_SPEC, 11);
    let mut oracle = FleetOracle::standalone(host_engine(&fe, None).unwrap(), &fleet).unwrap();
    oracle.perturb(fleet.first_stream[0] as usize, 3);
    let mut d = LiveFleet::open(host_engine(&fe, None).unwrap(), &fleet, &oracle, None).unwrap();
    let t = d.run_phase(Pace::Closed, Stop::ops(groups(HOST_SPEC)));
    let on_stream = fleet
        .first_stream
        .iter()
        .filter(|&&s| s == fleet.first_stream[0])
        .count();
    assert_eq!(t.failed, on_stream as u64);
    assert_eq!(t.latencies_ms.len() as u64, t.decisions - t.failed);
}

/// A host backend that sleeps once, on its `at`-th inference.
#[derive(Debug, Clone)]
struct Stall {
    inner: HostFloatBackend,
    calls: usize,
    at: usize,
    pause: Duration,
}

impl Probe for Stall {}

impl Backend for Stall {
    fn kind(&self) -> BackendKind {
        self.inner.kind()
    }
    fn config(&self) -> &KwtConfig {
        self.inner.config()
    }
    fn infer_into(&mut self, mfcc: &Mat<f32>, logits: &mut Vec<f32>) -> kwt_engine::Result<()> {
        self.calls += 1;
        if self.calls == self.at {
            std::thread::sleep(self.pause);
        }
        self.inner.infer_into(mfcc, logits)
    }
}

#[test]
fn open_loop_stall_inflates_later_latencies() {
    let spec = FleetSpec {
        sessions: 8,
        pool: 1,
        stream_secs: 3,
        slots: 2,
    };
    let fe = kwt_tiny_frontend().unwrap();
    let fleet = Fleet::generate(&corpus(), spec, 2);
    let oracle = FleetOracle::standalone(host_engine(&fe, None).unwrap(), &fleet).unwrap();
    let stall = Stall {
        inner: HostFloatBackend::new(bench_params()),
        calls: 0,
        at: 1,
        pause: Duration::from_millis(150),
    };
    let engine = Engine::new(fe, Box::new(stall)).unwrap();
    let mut d = LiveFleet::open(engine, &fleet, &oracle, None).unwrap();
    // 400 chunks/s over 8 sessions: a group is due every ~10 ms
    let t = d.run_phase(
        Pace::Open {
            chunks_per_s: 400.0,
        },
        Stop::ops(60),
    );
    assert_eq!(t.failed, 0);
    // the generator fell behind while the drive stalled, and says so
    let late = t.late_ms.iter().copied().fold(0.0, f64::max);
    assert!(late > 100.0, "generator lateness {late} ms");
    // the stalled drive delivers at most 3 decisions for each of its 4
    // sessions; later groups were due during the stall, and their
    // decisions carry that wait because latency runs from the due time
    let slow = t.latencies_ms.iter().filter(|&&l| l > 50.0).count();
    assert!(slow > 12, "only {slow} decisions waited behind the stall");
}
