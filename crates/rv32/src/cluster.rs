//! N-hart cluster: shared bank-interleaved memory behind a round-robin
//! arbiter, with a deterministic contention-cycle model.
//!
//! # Functional / timing split
//!
//! The cluster deliberately separates **what executes** from **when it
//! executes**:
//!
//! * The *functional* layer is N ordinary [`Machine`]s. Each hart
//!   retires exactly the instruction stream it would retire alone —
//!   same architectural state, same per-hart cycle counter, same traps.
//!   Code and weights are read-only and scratch/IO regions are per-hart
//!   private, so replicating the image per hart is semantically
//!   identical to mapping shared read-only banks: no hart can observe
//!   another hart's writes in either formulation.
//! * The *timing* layer places the per-hart instruction streams on a
//!   shared SoC timeline. Every data access is routed to a memory bank
//!   (word-interleaved: `bank = (addr >> 2) mod banks`); each bank has a
//!   busy-until counter, and an access arriving while its bank is busy
//!   **stalls the issuing hart** until the bank frees up. The arbiter
//!   grants one instruction at a time to the live hart with the
//!   earliest ready time; ties go round-robin from the hart after the
//!   last grantee, so the schedule is deterministic — two runs of the
//!   same workload produce identical per-hart cycle and stall counts.
//!
//! Because the timing layer only ever *delays* a hart (it never reorders
//! or rewrites its stream), a single-hart cluster is provably bit- and
//! cycle-identical to a plain [`Machine::run`]: with
//! `service_cycles = 1` (the default) a bank frees up after one cycle,
//! and every instruction of the default timing model costs at least one
//! cycle, so a lone hart can never catch its own bank busy — zero
//! stalls, and the SoC timeline collapses onto the hart's own cycle
//! counter. The `tests/cluster_props.rs` proptests assert this over
//! random programs.
//!
//! # Two phases: run each hart alone, then replay the accesses
//!
//! Timing never feeds back into function, so [`Cluster::run_active`]
//! does not interleave the harts at all:
//!
//! 1. **Per-hart runs.** Each active hart runs alone to its halt, trap
//!    or step budget through the same runner as [`Machine::run`] — block
//!    dispatch, or one monitored step per instruction while a fault
//!    plan, watchdog or class histogram is armed — and appends one byte
//!    per arbiter grant to a log the cluster owns: the instruction's
//!    cost and the bank of its data access, if any (a trap and the
//!    budget check that ends an out-of-fuel run are grants too). Costs
//!    or banks too large for the byte spill to a side list. No hart sees
//!    another in this phase, so the harts run on several host threads:
//!    the calling thread and persistent workers, one fewer than the
//!    host CPUs or harts (at least one), spawned by the first wave of
//!    two or more harts and joined when the cluster drops. With `t`
//!    threads, hart `h` runs on thread `h % t` — worker harts and their
//!    logs move to the worker and back within the call — and a panic
//!    there comes back to the caller once every hart is home. Each hart
//!    and log is the same whichever thread runs it, so results do not
//!    depend on the thread count.
//! 2. **Access replay.** Only data accesses touch shared state, so the
//!    replay merges the harts' accesses in SoC-time order and skips
//!    everything between them: a hart's issue times are prefix sums of
//!    its logged costs plus its stalls. The round-robin pointer the
//!    arbiter moves on every grant matters only when two accesses reach
//!    the same bank at the same time. There the replay rebuilds it: it
//!    walks every hart's issue times backwards and composes each earlier
//!    same-time group's round-robin map (`r ↦ 1 + the group's last
//!    grantee counting from r`) until the composition is constant or
//!    reaches the last tie it resolved. A custom [`crate::TimingModel`]
//!    that charges some instruction nothing lets one hart take several
//!    grants at one time; under one, a run replays grant by grant
//!    instead.
//!
//! Both replays reproduce the interleaved arbiter exactly — per-hart
//! results, [`HartStats`], `soc_cycles` and registers — which the
//! test-local per-`Cpu::step` reference arbiter in
//! `tests/cluster_props.rs` pins. The logs, the replay state, the
//! workers' job slots and the run results live in buffers the cluster
//! reuses, grown on the first run, so [`Cluster::run_active_into`]
//! allocates nothing once warm, on any thread.

use crate::cpu::RetireSink;
use crate::machine::{Machine, RunResult};
use crate::profile::ClassHistogram;
use crate::trap::Trap;
use std::any::Any;
use std::num::NonZeroUsize;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};

/// Geometry and service time of the shared banked memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BankConfig {
    /// Number of interleaved banks (must be a power of two).
    pub banks: usize,
    /// Cycles a bank stays busy after accepting an access. The default
    /// of 1 models single-cycle SRAM banks and guarantees a lone hart
    /// never stalls against itself (every instruction costs ≥ 1 cycle).
    pub service_cycles: u64,
}

impl BankConfig {
    /// Eight word-interleaved single-cycle banks — the default SoC.
    pub fn default8() -> Self {
        BankConfig {
            banks: 8,
            service_cycles: 1,
        }
    }

    /// The bank serving `addr` (word-interleaved).
    pub fn bank_of(&self, addr: u32) -> usize {
        ((addr >> 2) as usize) & (self.banks - 1)
    }
}

impl Default for BankConfig {
    fn default() -> Self {
        BankConfig::default8()
    }
}

/// Per-hart accounting for one cluster run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HartStats {
    /// Cycles the hart spent executing instructions (its own cycle
    /// counter's delta over the run — identical to what the hart would
    /// charge running alone).
    pub busy_cycles: u64,
    /// Cycles the hart lost waiting for a busy bank.
    pub stall_cycles: u64,
    /// Instructions retired.
    pub instructions: u64,
    /// Data accesses routed through the arbiter.
    pub accesses: u64,
    /// Accesses that found their bank busy (each contributes ≥ 1 cycle
    /// to `stall_cycles`).
    pub conflicts: u64,
}

impl HartStats {
    /// Fraction of `soc_cycles` this hart spent executing (not stalled,
    /// not idle-after-halt).
    pub fn utilisation(&self, soc_cycles: u64) -> f64 {
        self.busy_cycles as f64 / soc_cycles.max(1) as f64
    }
}

/// Outcome of one [`Cluster::run_active`] call.
#[derive(Debug, Clone, Default)]
pub struct ClusterRun {
    /// Per active hart: the same [`RunResult`] / [`Trap`] a solo
    /// [`Machine::run`] would produce (cycle counters included).
    pub results: Vec<Result<RunResult, Trap>>,
    /// Per active hart accounting on the shared timeline.
    pub stats: Vec<HartStats>,
    /// SoC cycles from run start until the last active hart finished —
    /// the denominator for cluster throughput (clips per SoC-cycle).
    pub soc_cycles: u64,
}

impl ClusterRun {
    /// Total stall cycles across harts divided by total occupied
    /// (busy + stalled) hart-cycles — the bank-conflict tax.
    pub fn stall_fraction(&self) -> f64 {
        let stalled: u64 = self.stats.iter().map(|s| s.stall_cycles).sum();
        let occupied: u64 = self
            .stats
            .iter()
            .map(|s| s.busy_cycles + s.stall_cycles)
            .sum();
        stalled as f64 / occupied.max(1) as f64
    }

    /// Mean per-hart utilisation over the SoC timeline.
    pub fn mean_utilisation(&self) -> f64 {
        if self.stats.is_empty() {
            return 0.0;
        }
        self.stats
            .iter()
            .map(|s| s.utilisation(self.soc_cycles))
            .sum::<f64>()
            / self.stats.len() as f64
    }
}

/// N harts sharing a banked memory behind a round-robin arbiter.
///
/// Construction arms each hart's data-access trace (the probe the
/// arbiter uses to route accesses to banks); everything else about the
/// harts — fault plans, watchdogs, histograms, typed memory IO — is
/// reachable through [`Cluster::hart_mut`] and behaves exactly as on a
/// solo [`Machine`]. Between runs every hart is home; a clone spawns
/// phase-1 workers of its own on its first multi-hart run.
#[derive(Debug, Clone)]
pub struct Cluster {
    harts: Vec<Machine>,
    cfg: BankConfig,
    arbiter: Arbiter,
    workers: Workers,
}

impl Cluster {
    /// Builds a cluster over `harts` with the given bank geometry.
    ///
    /// # Panics
    ///
    /// Panics if `harts` is empty or `cfg.banks` is not a power of two.
    pub fn new(harts: Vec<Machine>, cfg: BankConfig) -> Self {
        assert!(!harts.is_empty(), "a cluster needs at least one hart");
        assert!(
            cfg.banks.is_power_of_two(),
            "bank count must be a power of two, got {}",
            cfg.banks
        );
        let mut cluster = Cluster {
            harts,
            cfg,
            arbiter: Arbiter::default(),
            workers: Workers::default(),
        };
        for hart in &mut cluster.harts {
            hart.cpu.set_data_trace_enabled(true);
        }
        cluster
    }

    /// Replicates `template` into an `n`-hart cluster. The shared code
    /// and weight banks are mapped once (read-only, so per-hart copies
    /// are observationally identical); each hart's scratch, stack and IO
    /// regions are its own.
    pub fn replicate(template: &Machine, n: usize, cfg: BankConfig) -> Self {
        assert!(n >= 1, "a cluster needs at least one hart");
        let harts = std::iter::repeat_with(|| template.clone())
            .take(n)
            .collect();
        Cluster::new(harts, cfg)
    }

    /// Number of harts.
    pub fn num_harts(&self) -> usize {
        self.harts.len()
    }

    /// The bank geometry.
    pub fn bank_config(&self) -> BankConfig {
        self.cfg
    }

    /// Immutable access to hart `h`.
    pub fn hart(&self, h: usize) -> &Machine {
        &self.harts[h]
    }

    /// Mutable access to hart `h` (input mailboxes, fault plans,
    /// watchdogs, histogram arming).
    pub fn hart_mut(&mut self, h: usize) -> &mut Machine {
        &mut self.harts[h]
    }

    /// Arms or disarms per-class retirement counting on one hart only —
    /// idle harts never pay the counting cost.
    pub fn set_class_histogram_enabled(&mut self, hart: usize, enabled: bool) {
        self.harts[hart].set_class_histogram_enabled(enabled);
    }

    /// Per-hart class histograms (zeroed for harts that never armed
    /// counting).
    pub fn class_histograms(&self) -> Vec<ClassHistogram> {
        self.harts.iter().map(|h| h.class_histogram()).collect()
    }

    /// The SoC-wide class histogram: every hart's counts summed.
    pub fn summed_class_histogram(&self) -> ClassHistogram {
        let mut sum = ClassHistogram::new();
        for h in &self.harts {
            sum.merge(&h.class_histogram());
        }
        sum
    }

    /// Runs every hart to completion.
    pub fn run_all(&mut self, max_steps: u64) -> ClusterRun {
        self.run_active(self.harts.len(), max_steps)
    }

    /// Runs harts `0..n_active` to completion on the shared timeline
    /// (idle harts are not scheduled and pay nothing). Each hart stops
    /// at its own halt, trap, or `max_steps` retired-instruction budget
    /// ([`Trap::OutOfFuel`]); one hart trapping never stops the others.
    ///
    /// # Panics
    ///
    /// Panics if `n_active` is zero or exceeds the hart count.
    pub fn run_active(&mut self, n_active: usize, max_steps: u64) -> ClusterRun {
        let mut run = ClusterRun::default();
        self.run_active_into(n_active, max_steps, &mut run);
        run
    }

    /// [`run_active`](Self::run_active) into a caller-owned
    /// [`ClusterRun`], whose vectors are cleared and refilled. With the
    /// cluster's own buffers grown by an earlier run of the same work,
    /// it allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics if `n_active` is zero or exceeds the hart count.
    pub fn run_active_into(&mut self, n_active: usize, max_steps: u64, run: &mut ClusterRun) {
        assert!(
            (1..=self.harts.len()).contains(&n_active),
            "n_active {} out of range 1..={}",
            n_active,
            self.harts.len()
        );
        self.arbiter.prepare(self.harts.len(), self.cfg);
        let free_grants = self.harts[..n_active]
            .iter()
            .any(|hart| !hart.cpu.timing().charges_every_instruction());
        run.results.clear();
        run.results.resize(n_active, PENDING);
        run.stats.clear();
        run.stats.resize(n_active, HartStats::default());
        self.run_alone(n_active, max_steps, run);
        // phase 2: the shared timeline
        run.soc_cycles = self.arbiter.replay(
            n_active,
            self.cfg.service_cycles,
            free_grants,
            &mut run.stats,
        );
    }

    /// Phase 1: runs harts `0..n_active` alone, each into its grant log,
    /// filling `run`'s results and busy accounting. With `t` threads,
    /// hart `h` runs on thread `h % t`: thread 0 is the caller, thread
    /// `w + 1` worker `w`, which holds its harts and logs only until this
    /// returns.
    fn run_alone(&mut self, n_active: usize, max_steps: u64, run: &mut ClusterRun) {
        let threads = (self.workers.spawn(n_active, self.harts.len()) + 1).min(n_active);
        let crew = &self.workers.crew[..threads - 1];
        // highest hart first, so every lower hart keeps its index
        for h in (0..n_active).rev().filter(|h| h % threads != 0) {
            crew[h % threads - 1].slot.lock().tasks.push(Task {
                hart: self.harts.remove(h),
                log: std::mem::take(&mut self.arbiter.logs[h]),
                result: PENDING,
                stats: HartStats::default(),
            });
        }
        for worker in crew {
            worker.slot.post(max_steps);
        }
        // the caller's harts 0, t, 2t, .. now sit at 0, 1, 2, ..
        let logs = &mut self.arbiter.logs;
        let harts = &mut self.harts[..n_active.div_ceil(threads)];
        let mine = panic::catch_unwind(AssertUnwindSafe(|| {
            // size a cold log like the previous one rather than doubling
            // up to it, which would leave the smaller copies behind
            let mut sized = 0;
            for (k, hart) in harts.iter_mut().enumerate() {
                let h = k * threads;
                logs[h].bytes.reserve_exact(sized);
                (run.results[h], run.stats[h]) = run_hart(hart, &mut logs[h], max_steps);
                sized = logs[h].bytes.len();
            }
        }));
        // every hart comes home before any panic goes on
        let mut panicked = mine.err();
        for worker in crew {
            if let Some(payload) = worker.slot.wait() {
                panicked.get_or_insert(payload);
            }
        }
        // a worker's tasks pop lowest hart first, so insertion in
        // ascending order puts each hart back at its index
        for h in (0..n_active).filter(|h| h % threads != 0) {
            let task = crew[h % threads - 1]
                .slot
                .lock()
                .tasks
                .pop()
                .expect("a worker hands back every hart it was given");
            self.harts.insert(h, task.hart);
            self.arbiter.logs[h] = task.log;
            (run.results[h], run.stats[h]) = (task.result, task.stats);
        }
        if let Some(payload) = panicked {
            panic::resume_unwind(payload);
        }
    }
}

/// Placeholder result of a hart that has not run yet.
const PENDING: Result<RunResult, Trap> = Err(Trap::OutOfFuel { executed: 0 });

/// Runs `hart` alone to its halt, trap or `max_steps`, logging its
/// grants into `log`; returns the result and the busy accounting.
fn run_hart(
    hart: &mut Machine,
    log: &mut HartLog,
    max_steps: u64,
) -> (Result<RunResult, Trap>, HartStats) {
    let (cycles0, instret0) = (hart.cpu.cycles, hart.cpu.instret);
    let result = hart.run_logged(max_steps, log);
    let stats = HartStats {
        busy_cycles: hart.cpu.cycles - cycles0,
        instructions: hart.cpu.instret - instret0,
        ..HartStats::default()
    };
    (result, stats)
}

/// One hart lent to a worker for one phase 1: the hart, its grant log
/// and, once run, its result and busy accounting.
#[derive(Debug)]
struct Task {
    hart: Machine,
    log: HartLog,
    result: Result<RunResult, Trap>,
    stats: HartStats,
}

/// Where a worker's job stands.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
enum State {
    /// No tasks, or tasks run and handed back: the worker waits.
    #[default]
    Idle,
    /// Tasks handed over: the worker runs them.
    Posted,
    /// The cluster is gone: the worker returns.
    Exit,
}

/// A worker's job slot: the tasks, the step budget and, if running
/// them panicked, the panic, reused from wave to wave.
#[derive(Debug, Default)]
struct Job {
    state: State,
    max_steps: u64,
    tasks: Vec<Task>,
    panic: Option<Box<dyn Any + Send>>,
}

/// The one place a caller and a worker meet: a [`Job`] behind a mutex,
/// and a condition variable either side waits on for the other's turn.
#[derive(Debug, Default)]
struct Slot {
    job: Mutex<Job>,
    turn: Condvar,
}

impl Slot {
    fn lock(&self) -> MutexGuard<'_, Job> {
        // neither side runs a hart or can panic while holding the lock
        self.job
            .lock()
            .expect("no thread panics holding a job slot")
    }

    /// Hands the pushed tasks to the worker.
    fn post(&self, max_steps: u64) {
        let mut job = self.lock();
        (job.state, job.max_steps) = (State::Posted, max_steps);
        self.turn.notify_all();
    }

    /// Waits until the worker has handed the tasks back; returns the
    /// panic that cut them short, if any.
    fn wait(&self) -> Option<Box<dyn Any + Send>> {
        let mut job = self.lock();
        while job.state == State::Posted {
            job = self
                .turn
                .wait(job)
                .expect("no thread panics holding a job slot");
        }
        job.panic.take()
    }

    /// A worker's life: run each posted job, hand it back, and return
    /// once told to exit.
    fn serve(&self) {
        let mut job = self.lock();
        loop {
            match job.state {
                State::Posted => {
                    let (max_steps, mut tasks) = (job.max_steps, std::mem::take(&mut job.tasks));
                    drop(job);
                    let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
                        for t in &mut tasks {
                            (t.result, t.stats) = run_hart(&mut t.hart, &mut t.log, max_steps);
                        }
                    }));
                    job = self.lock();
                    (job.tasks, job.panic, job.state) = (tasks, outcome.err(), State::Idle);
                    self.turn.notify_all();
                }
                State::Exit => return,
                State::Idle => {
                    job = self
                        .turn
                        .wait(job)
                        .expect("no thread panics holding a job slot");
                }
            }
        }
    }
}

/// A persistent phase-1 thread and its job slot. Dropping it tells the
/// thread to exit and joins it.
#[derive(Debug)]
struct Worker {
    slot: Arc<Slot>,
    thread: Option<JoinHandle<()>>,
}

impl Drop for Worker {
    fn drop(&mut self) {
        let mut job = self.slot.job.lock().unwrap_or_else(PoisonError::into_inner);
        job.state = State::Exit;
        self.slot.turn.notify_all();
        drop(job);
        if let Some(thread) = self.thread.take() {
            // the worker catches every hart panic, so it never ends in one
            let _ = thread.join();
        }
    }
}

/// The cluster's phase-1 workers, spawned by its first multi-hart run.
/// A clone starts with none and spawns its own the same way.
#[derive(Debug, Default)]
struct Workers {
    crew: Vec<Worker>,
}

impl Clone for Workers {
    fn clone(&self) -> Self {
        Workers::default()
    }
}

impl Workers {
    /// Spawns the workers of a `harts`-hart cluster on its first run of
    /// two or more (`n_active`) harts: one fewer than the host CPUs or
    /// harts, whichever is smaller, and at least one, so every host takes
    /// the same path. Returns how many are up (fewer only if the host
    /// refused a thread, none before that first run).
    fn spawn(&mut self, n_active: usize, harts: usize) -> usize {
        if n_active > 1 && self.crew.is_empty() {
            let cpus = thread::available_parallelism().map_or(1, NonZeroUsize::get);
            for _ in 0..cpus.min(harts).saturating_sub(1).max(1) {
                let slot = Arc::new(Slot::default());
                slot.lock().tasks.reserve(harts);
                let theirs = Arc::clone(&slot);
                let spawned = thread::Builder::new()
                    .name("cluster-hart".into())
                    .spawn(move || theirs.serve());
                match spawned {
                    Ok(thread) => self.crew.push(Worker {
                        slot,
                        thread: Some(thread),
                    }),
                    Err(_) => break,
                }
            }
        }
        self.crew.len()
    }
}

/// Log byte flag of a grant that made a data access.
const ACCESS: u8 = 0x80;
/// Log byte of a grant whose cost or bank does not fit the byte; its
/// values are the next [`Spill`] of the log.
const SPILLED: u8 = 0xFF;

/// A grant too large for its log byte.
#[derive(Debug, Clone, Copy)]
struct Spill {
    /// Index of the grant in the log.
    entry: usize,
    cost: u64,
    bank: Option<usize>,
}

/// One hart's grants for one run, a byte each in issue order:
/// `0x00..=0x7F` is an access-free grant of that many cycles,
/// `0x80..=0xFE` an access whose low seven bits hold
/// `cost << bank_bits | bank`, and [`SPILLED`] anything larger.
#[derive(Debug, Clone, Default)]
struct HartLog {
    bytes: Vec<u8>,
    spills: Vec<Spill>,
    /// `(grant, stall cycles)` of every access the replay stalled, in
    /// grant order: the walk-back needs them to recover issue times.
    stalls: Vec<(usize, u64)>,
    bank_bits: u32,
}

impl RetireSink for HartLog {
    const ON: bool = true;

    #[inline(always)]
    fn retire(&mut self, cost: u64, access: Option<u32>) {
        let byte = match access {
            None if cost < u64::from(ACCESS) => cost as u8,
            Some(addr) if self.bank_bits < 7 && cost < 0x80 >> self.bank_bits => {
                let bank = (addr >> 2) & ((1 << self.bank_bits) - 1);
                let code = (cost as u32) << self.bank_bits | bank;
                if code < 0x7F {
                    ACCESS | code as u8
                } else {
                    self.spill(cost, access)
                }
            }
            _ => self.spill(cost, access),
        };
        self.bytes.push(byte);
    }
}

impl HartLog {
    fn clear(&mut self, bank_bits: u32) {
        self.bytes.clear();
        self.spills.clear();
        self.stalls.clear();
        self.bank_bits = bank_bits;
    }

    #[cold]
    fn spill(&mut self, cost: u64, access: Option<u32>) -> u8 {
        let mask = (1usize << self.bank_bits) - 1;
        self.spills.push(Spill {
            entry: self.bytes.len(),
            cost,
            bank: access.map(|addr| (addr >> 2) as usize & mask),
        });
        SPILLED
    }

    /// Cost and bank (if it made an access) of grant `i`.
    #[inline(always)]
    fn grant(&self, i: usize) -> (u64, Option<usize>) {
        match self.bytes[i] {
            b if b < ACCESS => (u64::from(b), None),
            SPILLED => self.spilled(i),
            b => {
                let code = usize::from(b & !ACCESS);
                let bank = code & ((1 << self.bank_bits) - 1);
                ((code >> self.bank_bits) as u64, Some(bank))
            }
        }
    }

    #[cold]
    fn spilled(&self, i: usize) -> (u64, Option<usize>) {
        let s = self.spills[self.spills.partition_point(|s| s.entry < i)];
        (s.cost, s.bank)
    }
}

/// A hart's replay position: its next unreplayed grant and that grant's
/// issue time, and while that grant is an access its cost and bank; plus
/// the hart's access accounting so far.
#[derive(Debug, Clone, Copy, Default)]
struct Lane {
    time: u64,
    cost: u64,
    pos: usize,
    bank: usize,
    accesses: u64,
    conflicts: u64,
    stall_cycles: u64,
}

impl Lane {
    /// Moves past the access-free grants to the next access (or the
    /// log's end), setting `due` to its issue time (`u64::MAX` once no
    /// access is left).
    #[inline(always)]
    fn advance(&mut self, log: &HartLog, due: &mut u64) {
        let bytes = &log.bytes[..];
        let (mut pos, mut time) = (self.pos, self.time);
        *due = u64::MAX;
        loop {
            if let Some(chunk) = bytes.get(pos..pos + 8) {
                // eight grants at once: add the costs before the first
                // access (all eight when there is none)
                let word = u64::from_le_bytes(chunk.try_into().expect("eight bytes"));
                let access = word & 0x8080_8080_8080_8080;
                let below = ((access & access.wrapping_neg()) >> 7).wrapping_sub(1);
                time += byte_sum(word & below);
                if access == 0 {
                    pos += 8;
                    continue;
                }
                pos += access.trailing_zeros() as usize / 8;
            } else {
                match bytes.get(pos) {
                    None => break,
                    Some(&b) if b < ACCESS => {
                        time += u64::from(b);
                        pos += 1;
                        continue;
                    }
                    Some(_) => {}
                }
            }
            match log.grant(pos) {
                (cost, Some(bank)) => {
                    (self.cost, self.bank, *due) = (cost, bank, time);
                    break;
                }
                (cost, None) => {
                    time += cost;
                    pos += 1;
                }
            }
        }
        (self.pos, self.time) = (pos, time);
    }

    /// Grants the due access against its bank (busy until `*ready`),
    /// books the bank for `service` cycles, records any stall, and
    /// advances to the next access.
    #[inline(always)]
    fn access(&mut self, log: &mut HartLog, ready: &mut u64, service: u64, due: &mut u64) {
        let grant = self.time.max(*ready);
        *ready = grant + service;
        self.accesses += 1;
        let stall = grant - self.time;
        if stall > 0 {
            self.conflicts += 1;
            self.stall_cycles += stall;
            log.stalls.push((self.pos, stall));
        }
        self.time = grant + self.cost;
        self.pos += 1;
        self.advance(log, due);
    }

    /// Adds the access accounting to `stats`.
    fn account(&self, stats: &mut HartStats) {
        stats.accesses += self.accesses;
        stats.conflicts += self.conflicts;
        stats.stall_cycles += self.stall_cycles;
    }
}

/// Sum of the eight bytes of `word`, each below 0x80.
#[inline(always)]
fn byte_sum(word: u64) -> u64 {
    let pairs = (word & 0x00FF_00FF_00FF_00FF) + ((word >> 8) & 0x00FF_00FF_00FF_00FF);
    pairs.wrapping_mul(0x0001_0001_0001_0001) >> 48
}

/// A hart's position in a walk-back: a grant, its issue time, and how
/// many of the hart's stall records lie before it.
#[derive(Debug, Clone, Copy, Default)]
struct Cursor {
    pos: usize,
    time: u64,
    stalls: usize,
    /// Issue time of the grant the walk stands on, `None` past the
    /// hart's first grant.
    at: Option<u64>,
}

impl Cursor {
    /// Steps back to the hart's previous grant, returning its issue
    /// time: the later issue time minus the grant's cost and stall.
    fn back(&mut self, log: &HartLog) -> Option<u64> {
        if self.pos == 0 {
            return None;
        }
        self.pos -= 1;
        let (cost, bank) = log.grant(self.pos);
        let mut stall = 0;
        if bank.is_some() {
            while self.stalls > 0 && log.stalls[self.stalls - 1].0 > self.pos {
                self.stalls -= 1;
            }
            if self.stalls > 0 && log.stalls[self.stalls - 1].0 == self.pos {
                self.stalls -= 1;
                stall = log.stalls[self.stalls].1;
            }
        }
        self.time -= cost + stall;
        Some(self.time)
    }
}

/// The timing layer's reusable state: per-hart logs and replay
/// positions, per-bank busy-until times and the walk-back scratch.
#[derive(Debug, Clone, Default)]
struct Arbiter {
    logs: Vec<HartLog>,
    lanes: Vec<Lane>,
    /// Issue time of each hart's next access, `u64::MAX` once none is
    /// left: the merge key of the replay.
    due: Vec<u64>,
    bank_ready: Vec<u64>,
    walk: Vec<Cursor>,
    map: Vec<usize>,
    scratch: Vec<usize>,
}

impl Arbiter {
    /// Sizes every buffer for `harts` harts and clears the logs; only the
    /// first call (or a bigger cluster) allocates.
    fn prepare(&mut self, harts: usize, cfg: BankConfig) {
        self.logs.resize_with(harts, HartLog::default);
        self.lanes.resize(harts, Lane::default());
        self.due.resize(harts, u64::MAX);
        self.walk.resize(harts, Cursor::default());
        self.map.resize(harts, 0);
        self.scratch.resize(harts, 0);
        self.bank_ready.resize(cfg.banks, 0);
        for log in &mut self.logs {
            log.clear(cfg.banks.trailing_zeros());
        }
    }

    /// Replays the logged grants of harts `0..n` on the shared timeline,
    /// accumulating stalls into `stats`; returns the SoC cycles.
    /// `free_grants` says a grant before a log's end may cost nothing.
    fn replay(
        &mut self,
        n: usize,
        service: u64,
        free_grants: bool,
        stats: &mut [HartStats],
    ) -> u64 {
        self.bank_ready.fill(0);
        if free_grants {
            return self.replay_grants(n, service, stats);
        }
        for ((lane, log), due) in self.lanes[..n]
            .iter_mut()
            .zip(&self.logs)
            .zip(&mut self.due)
        {
            *lane = Lane::default();
            lane.advance(log, due);
        }
        // the last same-time group whose round-robin pointer is known:
        // every hart issues its first grant at time 0, from pointer 0
        let mut known = (0, 0);
        loop {
            // the earliest due access, and the next due time after it
            let (mut t, mut next, mut first) = (u64::MAX, u64::MAX, 0);
            for (h, &d) in self.due[..n].iter().enumerate() {
                let earlier = d < t;
                next = if earlier { t } else { next.min(d) };
                t = if earlier { d } else { t };
                first = if earlier { h } else { first };
            }
            if t == u64::MAX {
                break;
            }
            // same-time accesses go in round-robin order, which matters
            // only between accesses to the same bank
            if t < next || !self.shares_bank(n, first) {
                self.access(first, service);
                continue;
            }
            let rr = self.rr_at(n, t, known);
            known = (t, rr);
            for h in (rr..n).chain(0..rr) {
                if self.due[h] == t {
                    self.access(h, service);
                }
            }
        }
        for (lane, s) in self.lanes[..n].iter().zip(stats) {
            lane.account(s);
        }
        self.lanes[..n].iter().map(|l| l.time).max().unwrap_or(0)
    }

    /// Grants hart `h`'s due access.
    #[inline(always)]
    fn access(&mut self, h: usize, service: u64) {
        let lane = &mut self.lanes[h];
        let ready = &mut self.bank_ready[lane.bank];
        lane.access(&mut self.logs[h], ready, service, &mut self.due[h]);
    }

    /// Whether another hart's access is due with hart `h`'s, at the
    /// same time on the same bank.
    fn shares_bank(&self, n: usize, h: usize) -> bool {
        let (due, lanes) = (&self.due[..n], &self.lanes[..n]);
        (0..n).any(|o| o != h && due[o] == due[h] && lanes[o].bank == lanes[h].bank)
    }

    /// The round-robin pointer at the start of the grants issued at `t`:
    /// one past the last hart granted before `t`. Walks every hart's
    /// issue times back from its replay position, composing the
    /// round-robin map of each earlier same-time group of grants, until
    /// the composition is constant or reaches `known`, a group whose
    /// starting pointer is known.
    fn rr_at(&mut self, n: usize, t: u64, known: (u64, usize)) -> usize {
        if t == known.0 {
            return known.1;
        }
        for ((c, lane), log) in self.walk[..n].iter_mut().zip(&self.lanes).zip(&self.logs) {
            *c = Cursor {
                pos: lane.pos,
                time: lane.time,
                stalls: log.stalls.len(),
                at: None,
            };
            while let Some(at) = c.back(log) {
                if at < t {
                    c.at = Some(at);
                    break;
                }
            }
        }
        for (r, m) in self.map[..n].iter_mut().enumerate() {
            *m = r;
        }
        loop {
            let t1 = self.walk[..n]
                .iter()
                .filter_map(|c| c.at)
                .max()
                .expect("the known group precedes every later one");
            debug_assert!(t1 >= known.0, "the walk passed the known group");
            let member = |h: usize| self.walk[h].at == Some(t1);
            let (members, mut last) = (0..n)
                .filter(|&h| member(h))
                .fold((0, 0), |(k, _), h| (k + 1, h));
            let next = |h: usize| if h + 1 == n { 0 } else { h + 1 };
            if members == 1 {
                // a lone grant hands on one past itself, from any pointer
                return self.map[next(last)];
            }
            // a group starting at pointer r ends with its member at or
            // cyclically before r - 1 and hands on one past it; compose
            // that map under the later groups' map
            for r in 0..n {
                self.scratch[r] = self.map[next(last)];
                if member(r) {
                    last = r;
                }
            }
            std::mem::swap(&mut self.map, &mut self.scratch);
            let map = &self.map[..n];
            if t1 == known.0 {
                return map[known.1];
            }
            if map.iter().all(|&m| m == map[0]) {
                return map[0];
            }
            for (c, log) in self.walk[..n].iter_mut().zip(&self.logs) {
                if c.at == Some(t1) {
                    c.at = c.back(log);
                }
            }
        }
    }

    /// The arbiter grant by grant over the logs: the earliest-ready live
    /// hart, ties round-robin from the hart after the last grantee.
    /// Exact for any log; the access replay is its fast path.
    fn replay_grants(&mut self, n: usize, service: u64, stats: &mut [HartStats]) -> u64 {
        for lane in &mut self.lanes[..n] {
            *lane = Lane::default();
        }
        let mut rr = 0;
        loop {
            let mut chosen = None;
            let mut best = u64::MAX;
            for h in (rr..n).chain(0..rr) {
                let lane = &self.lanes[h];
                if lane.pos < self.logs[h].bytes.len() && (chosen.is_none() || lane.time < best) {
                    (best, chosen) = (lane.time, Some(h));
                }
            }
            let Some(h) = chosen else { break };
            rr = (h + 1) % n;
            let lane = &mut self.lanes[h];
            let (cost, bank) = self.logs[h].grant(lane.pos);
            if let Some(bank) = bank {
                let ready = &mut self.bank_ready[bank];
                let grant = lane.time.max(*ready);
                *ready = grant + service;
                stats[h].accesses += 1;
                if grant > lane.time {
                    stats[h].conflicts += 1;
                    stats[h].stall_cycles += grant - lane.time;
                }
                lane.time = grant;
            }
            lane.time += cost;
            lane.pos += 1;
        }
        self.lanes[..n].iter().map(|l| l.time).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Platform, Trap};
    use kwt_rvasm::{Asm, Inst, Program, Reg};

    fn program(build: impl FnOnce(&mut Asm)) -> Program {
        let mut asm = Asm::new(0, 0x8000);
        asm.here("entry");
        build(&mut asm);
        asm.emit(Inst::Ebreak);
        asm.finish().unwrap()
    }

    /// A store/load loop hammering one word — every iteration hits the
    /// same bank, so co-scheduled copies contend maximally.
    fn hammer_program(iters: i32) -> Program {
        program(|a| {
            a.li(Reg::T0, iters);
            a.li(Reg::T1, 0x9000);
            let top = a.new_label();
            a.bind(top).unwrap();
            a.emit(Inst::Sw {
                rs2: Reg::T0,
                rs1: Reg::T1,
                imm: 0,
            });
            a.emit(Inst::Lw {
                rd: Reg::A0,
                rs1: Reg::T1,
                imm: 0,
            });
            a.emit(Inst::Addi {
                rd: Reg::T0,
                rs1: Reg::T0,
                imm: -1,
            });
            a.branch_to(
                Inst::Bne {
                    rs1: Reg::T0,
                    rs2: Reg::Zero,
                    offset: 0,
                },
                top,
            );
        })
    }

    #[test]
    fn single_hart_cluster_is_bit_and_cycle_identical() {
        let p = hammer_program(25);
        let mut solo = Machine::load(&p, Platform::ibex()).unwrap();
        let baseline = solo.run(10_000).unwrap();
        let template = Machine::load(&p, Platform::ibex()).unwrap();
        let mut cluster = Cluster::replicate(&template, 1, BankConfig::default8());
        let run = cluster.run_all(10_000);
        assert_eq!(run.results[0], Ok(baseline));
        assert_eq!(run.stats[0].stall_cycles, 0, "a lone hart never stalls");
        assert_eq!(run.soc_cycles, baseline.cycles);
        assert_eq!(
            cluster.hart(0).cpu.regs,
            solo.cpu.regs,
            "architectural state must match"
        );
    }

    #[test]
    fn same_bank_hammering_accounts_conflicts() {
        let template = Machine::load(&hammer_program(50), Platform::ibex()).unwrap();
        let mut cluster = Cluster::replicate(&template, 4, BankConfig::default8());
        let run = cluster.run_all(100_000);
        for (h, r) in run.results.iter().enumerate() {
            let r = r.as_ref().unwrap();
            // the last iteration loads t0 = 1 into a0 before decrementing
            assert_eq!(r.exit_code, 1, "hart {h}");
        }
        let conflicts: u64 = run.stats.iter().map(|s| s.conflicts).sum();
        assert!(conflicts > 0, "same-word hammering must contend");
        assert!(run.stall_fraction() > 0.0);
        assert!(
            run.soc_cycles > run.results[0].as_ref().unwrap().cycles,
            "contention must push completion past a solo run"
        );
    }

    #[test]
    fn scheduling_is_deterministic() {
        let template = Machine::load(&hammer_program(40), Platform::ibex()).unwrap();
        let mut a = Cluster::replicate(&template, 4, BankConfig::default8());
        let mut b = Cluster::replicate(&template, 4, BankConfig::default8());
        let ra = a.run_all(100_000);
        let rb = b.run_all(100_000);
        assert_eq!(ra.results, rb.results);
        assert_eq!(ra.stats, rb.stats);
        assert_eq!(ra.soc_cycles, rb.soc_cycles);
    }

    #[test]
    fn trap_on_one_hart_leaves_the_others_running() {
        let good = hammer_program(30);
        let template = Machine::load(&good, Platform::ibex()).unwrap();
        let mut cluster = Cluster::replicate(&template, 3, BankConfig::default8());
        // Hart 1 gets a forced trap at its entry pc.
        let trap = Trap::AccessOutOfBounds { addr: 0xBAD, pc: 0 };
        let pc = cluster.hart(1).cpu.pc;
        cluster
            .hart_mut(1)
            .set_fault_plan(crate::FaultPlan::new().force_trap_at_pc(pc, trap));
        let run = cluster.run_all(100_000);
        assert_eq!(run.results[1], Err(trap));
        assert!(run.results[0].is_ok(), "hart 0 must finish");
        assert!(run.results[2].is_ok(), "hart 2 must finish");
    }

    #[test]
    fn out_of_fuel_is_per_hart() {
        let template = Machine::load(&hammer_program(1000), Platform::ibex()).unwrap();
        let mut cluster = Cluster::replicate(&template, 2, BankConfig::default8());
        let run = cluster.run_all(50);
        for r in &run.results {
            assert!(matches!(r, Err(Trap::OutOfFuel { .. })));
        }
    }

    #[test]
    fn run_active_schedules_only_the_prefix() {
        let template = Machine::load(&hammer_program(10), Platform::ibex()).unwrap();
        let mut cluster = Cluster::replicate(&template, 4, BankConfig::default8());
        let run = cluster.run_active(2, 100_000);
        assert_eq!(run.results.len(), 2);
        assert_eq!(cluster.hart(3).cpu.instret, 0, "idle hart never stepped");
    }

    #[test]
    fn histograms_are_per_hart_and_summable() {
        let template = Machine::load(&hammer_program(10), Platform::ibex()).unwrap();
        let mut cluster = Cluster::replicate(&template, 2, BankConfig::default8());
        cluster.set_class_histogram_enabled(0, true);
        let _ = cluster.run_all(100_000);
        let per_hart = cluster.class_histograms();
        assert!(per_hart[0].total_count() > 0, "armed hart counts");
        assert_eq!(per_hart[1].total_count(), 0, "idle-armed hart stays free");
        let summed = cluster.summed_class_histogram();
        assert_eq!(summed.total_count(), per_hart[0].total_count());
    }

    /// A hart whose cycle counter overflows panics (overflow checks are
    /// on in debug builds only). Whether it ran on the caller (hart 0)
    /// or a worker (hart 1), the panic reaches the caller with every
    /// hart back at its index, and the cluster runs on.
    #[test]
    #[cfg(debug_assertions)]
    fn a_hart_panic_comes_back_with_every_hart_home() {
        let template = Machine::load(&hammer_program(10), Platform::ibex()).unwrap();
        for victim in 0..2 {
            let mut cluster = Cluster::replicate(&template, 2, BankConfig::default8());
            for h in 0..2 {
                cluster.hart_mut(h).cpu.set_reg(Reg::T6, 100 + h as u32);
            }
            cluster.hart_mut(victim).cpu.cycles = u64::MAX;
            let caught = std::panic::catch_unwind(AssertUnwindSafe(|| cluster.run_all(1_000)));
            assert!(caught.is_err(), "hart {victim} overflow must panic");
            assert_eq!(cluster.num_harts(), 2);
            for h in 0..2 {
                assert_eq!(cluster.hart(h).cpu.reg(Reg::T6), 100 + h as u32, "hart {h}");
            }
            cluster.hart_mut(victim).cpu.cycles = 0;
            assert_eq!(cluster.run_all(1_000).results.len(), 2);
        }
    }

    #[test]
    fn bank_mapping_is_word_interleaved() {
        let cfg = BankConfig::default8();
        assert_eq!(cfg.bank_of(0x0), 0);
        assert_eq!(cfg.bank_of(0x4), 1);
        assert_eq!(cfg.bank_of(0x1C), 7);
        assert_eq!(cfg.bank_of(0x20), 0);
        // byte accesses within a word hit the same bank
        assert_eq!(cfg.bank_of(0x21), 0);
        assert_eq!(cfg.bank_of(0x23), 0);
    }
}
