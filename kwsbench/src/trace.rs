//! In-memory span tracing and the timing decorator around the backend.
//!
//! A traced run records a span at each layer boundary the benchmark can
//! see from outside the program: around `Engine::classify_into`,
//! `KwsServer::push` and `KwsServer::drive` (taken by the workload code),
//! and around every inference call the engine makes into its backend
//! (taken by [`Timed`], a decorator installed through `Engine::new`).
//! Spans stay in memory and are written out when the run ends. Device
//! counts come from the backends' public accessors, read by [`Probe`]
//! right after each call.

use kwt_engine::{
    Backend, BackendHealth, BackendKind, FaultStats, HostFloatBackend, Rv32ClusterBackend,
    Rv32SimBackend,
};
use kwt_model::KwtConfig;
use kwt_rv32::{FaultPlan, ProfileReport, RunResult};
use kwt_tensor::qops::QuantStats;
use kwt_tensor::Mat;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Parent index of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One timed interval at a layer boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Boundary name (`engine.classify`, `serve.push`, ...).
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start: u64,
    /// End, nanoseconds since the tracer was created.
    pub end: u64,
    /// Index of the enclosing span, or [`NO_PARENT`].
    pub parent: u32,
    /// Request id: clip index, `session << 32 | chunk`, or drive number;
    /// inherited from the parent when not given.
    pub req: u64,
}

/// Simulator counters accumulated by [`Probe`] over a traced run.
#[derive(Debug, Clone, Default)]
pub struct DeviceCounters {
    /// Backend inference calls.
    pub calls: u64,
    /// Windows (clips) inferred across those calls.
    pub windows: u64,
    /// Completed device inferences (one per hart run).
    pub inferences: u64,
    /// Device cycles of those inferences (each hart's own busy cycles).
    pub cycles: u64,
    /// Instructions retired by those inferences.
    pub instret: u64,
    /// Cluster waves.
    pub waves: u64,
    /// SoC finish cycles summed over waves.
    pub soc_cycles: u64,
    /// Bank-conflict stall cycles summed over harts and waves.
    pub stall_cycles: u64,
    /// Executing cycles summed over harts and waves.
    pub busy_cycles: u64,
    /// Hart-cycles available: SoC cycles times the hart count, per wave.
    pub hart_cycles: u64,
    /// Cumulative kernel-region profile of the backend's session(s).
    pub profile: Option<RegionProfile>,
}

/// Self cycles per kernel region, summed over every run so far.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RegionProfile {
    /// Region name to self cycles.
    pub regions: BTreeMap<String, u64>,
    /// Device cycles in no region.
    pub untracked: u64,
    /// Device inferences the profile covers.
    pub runs: u64,
}

impl RegionProfile {
    fn add(&mut self, report: &ProfileReport) {
        for (name, cycles, _) in &report.regions {
            *self.regions.entry(name.clone()).or_insert(0) += cycles;
        }
        self.untracked += report.total_cycles.saturating_sub(report.attributed_cycles);
    }
}

/// The span store plus the device counters of one traced run.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    /// Counters filled in by [`Timed`].
    pub device: DeviceCounters,
}

/// A tracer shared between the workload code and the [`Timed`] backend
/// inside the engine (the `Backend` trait requires `Send`).
pub type SharedTracer = Arc<Mutex<Tracer>>;

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            open: Vec::new(),
            device: DeviceCounters::default(),
        }
    }
}

impl Tracer {
    /// A fresh shared tracer.
    pub fn shared() -> SharedTracer {
        Arc::new(Mutex::new(Tracer::default()))
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str, req: Option<u64>) -> u32 {
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let req = req.unwrap_or_else(|| match parent {
            NO_PARENT => 0,
            p => self.spans[p as usize].req,
        });
        let id = self.spans.len() as u32;
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            req,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        let now = self.now();
        if let Some(id) = self.open.pop() {
            self.spans[id as usize].end = now;
        }
    }

    /// Forgets every closed span and counter (after a warm-up); the
    /// clock keeps running.
    pub fn clear(&mut self) {
        debug_assert!(self.open.is_empty(), "clear inside an open span");
        self.spans.clear();
        self.device = DeviceCounters::default();
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per span name: `(count, total ns, self ns)`. A span's self time is
    /// its duration minus the time its children cover.
    pub fn times(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child[s.parent as usize] += s.end - s.start;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child) {
            let e = out.entry(s.name).or_default();
            let dur = s.end - s.start;
            e.0 += 1;
            e.1 += dur;
            e.2 += dur.saturating_sub(c);
        }
        out
    }

    /// Writes the spans as tab-separated `name start end parent req` lines.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "name\tstart_ns\tend_ns\tparent\treq")?;
        for s in &self.spans {
            let parent = match s.parent {
                NO_PARENT => -1,
                p => i64::from(p),
            };
            writeln!(
                w,
                "{}\t{}\t{}\t{}\t{}",
                s.name, s.start, s.end, parent, s.req
            )?;
        }
        w.flush()
    }
}

fn lock(t: &SharedTracer) -> std::sync::MutexGuard<'_, Tracer> {
    // single-threaded use: a poisoned lock means a panic already ended the run
    t.lock().expect("tracer lock is never poisoned")
}

/// Runs `f` inside a span when tracing is on, and just runs it otherwise.
pub fn span<R>(
    tracer: Option<&SharedTracer>,
    name: &'static str,
    req: Option<u64>,
    f: impl FnOnce() -> R,
) -> R {
    match tracer {
        None => f(),
        Some(t) => {
            lock(t).begin(name, req);
            let r = f();
            lock(t).end();
            r
        }
    }
}

/// Reads a backend's device counters after each inference call.
pub trait Probe {
    /// Folds the most recent call's counts into `c`.
    fn probe(&self, c: &mut DeviceCounters) {
        let _ = c;
    }
}

impl Probe for HostFloatBackend {}

impl Probe for Rv32SimBackend {
    fn probe(&self, c: &mut DeviceCounters) {
        if let Some(r) = self.last_device_run() {
            c.inferences += 1;
            c.cycles += r.cycles;
            c.instret += r.instructions;
        }
        let mut p = RegionProfile {
            runs: self.runs(),
            ..RegionProfile::default()
        };
        p.add(&self.session().profile_report());
        c.profile = Some(p);
    }
}

impl Probe for Rv32ClusterBackend {
    fn probe(&self, c: &mut DeviceCounters) {
        let Some(wave) = self.last_wave() else {
            return;
        };
        c.waves += 1;
        c.soc_cycles += wave.soc_cycles;
        c.hart_cycles += wave.soc_cycles * self.harts() as u64;
        for (r, s) in wave.results.iter().zip(&wave.stats) {
            if let Ok(r) = r {
                c.inferences += 1;
                c.cycles += r.cycles;
                c.instret += r.instructions;
            }
            c.stall_cycles += s.stall_cycles;
            c.busy_cycles += s.busy_cycles;
        }
        let mut p = RegionProfile {
            runs: self.runs(),
            ..RegionProfile::default()
        };
        for h in 0..self.harts() {
            p.add(&self.session().hart(h).profile_report());
        }
        c.profile = Some(p);
    }
}

/// Timing decorator: forwards every [`Backend`] method to the wrapped
/// backend unchanged, and wraps each inference call in a `backend.infer`
/// span followed by a [`Probe`] read. Decisions, logits and device
/// cycles are those of the bare backend.
#[derive(Debug, Clone)]
pub struct Timed<B> {
    inner: B,
    tracer: SharedTracer,
}

impl<B: Backend + Probe> Timed<B> {
    /// Wraps `inner`, recording into `tracer`.
    pub fn new(inner: B, tracer: SharedTracer) -> Self {
        Timed { inner, tracer }
    }

    fn timed(
        &mut self,
        windows: usize,
        f: impl FnOnce(&mut B) -> kwt_engine::Result<()>,
    ) -> kwt_engine::Result<()> {
        lock(&self.tracer).begin("backend.infer", None);
        let r = f(&mut self.inner);
        let mut t = lock(&self.tracer);
        t.end();
        t.device.calls += 1;
        t.device.windows += windows as u64;
        if r.is_ok() {
            self.inner.probe(&mut t.device);
        }
        r
    }
}

impl<B: Backend + Probe + Clone + 'static> Backend for Timed<B> {
    fn kind(&self) -> BackendKind {
        self.inner.kind()
    }

    fn config(&self) -> &KwtConfig {
        self.inner.config()
    }

    fn infer_into(&mut self, mfcc: &Mat<f32>, logits: &mut Vec<f32>) -> kwt_engine::Result<()> {
        self.timed(1, |b| b.infer_into(mfcc, logits))
    }

    fn input_exponent(&self) -> Option<i32> {
        self.inner.input_exponent()
    }

    fn infer_prequantized_into(
        &mut self,
        input: &Mat<i8>,
        logits: &mut Vec<f32>,
    ) -> kwt_engine::Result<()> {
        self.timed(1, |b| b.infer_prequantized_into(input, logits))
    }

    fn batch_width(&self) -> usize {
        self.inner.batch_width()
    }

    fn infer_wave(
        &mut self,
        mfccs: &[Mat<f32>],
        logits: &mut [Vec<f32>],
    ) -> kwt_engine::Result<()> {
        self.timed(mfccs.len(), |b| b.infer_wave(mfccs, logits))
    }

    fn infer_prequantized_wave(
        &mut self,
        inputs: &[Mat<i8>],
        logits: &mut [Vec<f32>],
    ) -> kwt_engine::Result<()> {
        self.timed(inputs.len(), |b| b.infer_prequantized_wave(inputs, logits))
    }

    fn last_device_run(&self) -> Option<RunResult> {
        self.inner.last_device_run()
    }

    fn wave_device_cycles(&self) -> Option<u64> {
        self.inner.wave_device_cycles()
    }

    fn last_quant_stats(&self) -> Option<QuantStats> {
        self.inner.last_quant_stats()
    }

    fn clone_boxed(&self) -> Option<Box<dyn Backend>> {
        Some(Box::new(self.clone()))
    }

    fn recover(&mut self) -> Option<kwt_baremetal::RecoveryReport> {
        self.inner.recover()
    }

    fn set_cycle_budget(&mut self, budget: Option<u64>) {
        self.inner.set_cycle_budget(budget);
    }

    fn inject_faults(&mut self, plan: FaultPlan) -> bool {
        self.inner.inject_faults(plan)
    }

    fn fault_stats(&self) -> Option<FaultStats> {
        self.inner.fault_stats()
    }

    fn health(&self) -> Option<BackendHealth> {
        self.inner.health()
    }
}

/// Boxes `inner` for `Engine::new`, wrapped in [`Timed`] when tracing.
pub fn install<B: Backend + Probe + Clone + 'static>(
    inner: B,
    tracer: Option<&SharedTracer>,
) -> Box<dyn Backend> {
    match tracer {
        Some(t) => Box::new(Timed::new(inner, t.clone())),
        None => Box::new(inner),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A backend whose every method returns a distinctive value and
    /// counts its calls, so a missing forward shows as a default.
    #[derive(Debug, Clone)]
    struct Fake {
        config: KwtConfig,
        calls: Arc<AtomicU64>,
    }

    impl Fake {
        fn hit(&self) {
            self.calls.fetch_add(1, Ordering::Relaxed);
        }
    }

    impl Probe for Fake {}

    impl Backend for Fake {
        fn kind(&self) -> BackendKind {
            BackendKind::Rv32Cluster
        }
        fn config(&self) -> &KwtConfig {
            &self.config
        }
        fn infer_into(&mut self, _: &Mat<f32>, l: &mut Vec<f32>) -> kwt_engine::Result<()> {
            *l = vec![1.0];
            Ok(())
        }
        fn input_exponent(&self) -> Option<i32> {
            Some(-3)
        }
        fn infer_prequantized_into(
            &mut self,
            _: &Mat<i8>,
            l: &mut Vec<f32>,
        ) -> kwt_engine::Result<()> {
            *l = vec![2.0];
            Ok(())
        }
        fn batch_width(&self) -> usize {
            3
        }
        fn infer_wave(&mut self, m: &[Mat<f32>], l: &mut [Vec<f32>]) -> kwt_engine::Result<()> {
            l.iter_mut().for_each(|x| *x = vec![m.len() as f32 + 10.0]);
            Ok(())
        }
        fn infer_prequantized_wave(
            &mut self,
            m: &[Mat<i8>],
            l: &mut [Vec<f32>],
        ) -> kwt_engine::Result<()> {
            l.iter_mut().for_each(|x| *x = vec![m.len() as f32 + 20.0]);
            Ok(())
        }
        fn last_device_run(&self) -> Option<RunResult> {
            Some(RunResult {
                cycles: 5,
                instructions: 6,
                exit_code: 7,
            })
        }
        fn wave_device_cycles(&self) -> Option<u64> {
            Some(8)
        }
        fn last_quant_stats(&self) -> Option<QuantStats> {
            Some(QuantStats::default())
        }
        fn clone_boxed(&self) -> Option<Box<dyn Backend>> {
            Some(Box::new(self.clone()))
        }
        fn recover(&mut self) -> Option<kwt_baremetal::RecoveryReport> {
            self.hit();
            Some(kwt_baremetal::RecoveryReport::default())
        }
        fn set_cycle_budget(&mut self, _: Option<u64>) {
            self.hit();
        }
        fn inject_faults(&mut self, _: FaultPlan) -> bool {
            self.hit();
            true
        }
        fn fault_stats(&self) -> Option<FaultStats> {
            Some(FaultStats::default())
        }
        fn health(&self) -> Option<BackendHealth> {
            Some(BackendHealth::Healthy)
        }
    }

    #[test]
    fn timed_forwards_every_backend_method() {
        let calls = Arc::new(AtomicU64::new(0));
        let tracer = Tracer::shared();
        let mut t = Timed::new(
            Fake {
                config: KwtConfig::kwt_tiny(),
                calls: calls.clone(),
            },
            tracer.clone(),
        );
        let (mf, mq) = (Mat::<f32>::zeros(1, 1), Mat::<i8>::zeros(1, 1));
        let mut l = Vec::new();
        assert_eq!(t.kind(), BackendKind::Rv32Cluster);
        assert_eq!(*t.config(), KwtConfig::kwt_tiny());
        t.infer_into(&mf, &mut l).unwrap();
        assert_eq!(l, [1.0]);
        assert_eq!(t.input_exponent(), Some(-3));
        t.infer_prequantized_into(&mq, &mut l).unwrap();
        assert_eq!(l, [2.0]);
        assert_eq!(t.batch_width(), 3);
        let mut w = vec![Vec::new(); 2];
        t.infer_wave(&[mf.clone(), mf.clone()], &mut w).unwrap();
        assert_eq!(w[1], [12.0]);
        t.infer_prequantized_wave(&[mq.clone(), mq.clone()], &mut w)
            .unwrap();
        assert_eq!(w[0], [22.0]);
        assert_eq!(t.last_device_run().map(|r| r.exit_code), Some(7));
        assert_eq!(t.wave_device_cycles(), Some(8));
        assert!(t.last_quant_stats().is_some());
        assert_eq!(t.clone_boxed().map(|b| b.batch_width()), Some(3));
        assert!(t.recover().is_some());
        t.set_cycle_budget(Some(1));
        assert!(t.inject_faults(FaultPlan::default()));
        assert!(t.fault_stats().is_some());
        assert_eq!(t.health(), Some(BackendHealth::Healthy));
        assert_eq!(calls.load(Ordering::Relaxed), 3);
        let tr = tracer.lock().unwrap();
        assert_eq!(tr.device.calls, 4);
        assert_eq!(tr.device.windows, 6);
        assert_eq!(tr.spans().len(), 4);
        assert!(tr.spans().iter().all(|s| s.name == "backend.infer"));
    }

    #[test]
    fn self_time_excludes_children() {
        let t = Tracer::shared();
        span(Some(&t), "outer", Some(9), || {
            span(Some(&t), "inner", None, || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            })
        });
        let tr = t.lock().unwrap();
        let s = tr.spans();
        assert_eq!(s[1].parent, 0);
        assert_eq!(s[1].req, 9, "children inherit the request id");
        let times = tr.times();
        let (n, total, own) = times["outer"];
        assert_eq!(n, 1);
        assert_eq!(total - own, s[1].end - s[1].start);
        assert_eq!(times["inner"].1, times["inner"].2);
    }
}
