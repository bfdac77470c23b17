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
//!   (word-interleaved: `bank = (addr >> 2) mod BANKS`); each bank has a
//!   busy-until counter, and an access arriving while its bank is busy
//!   **stalls the issuing hart** until the bank frees up. The arbiter
//!   grants one instruction at a time to the live hart with the
//!   earliest ready time; ties go round-robin from the hart after the
//!   last grantee, so the schedule is deterministic — two runs of the
//!   same workload produce identical per-hart cycle and stall counts.
//!
//! # The SoC it models
//!
//! One geometry: [`BANKS`] word-interleaved banks, each serving an access
//! in one cycle, and harts whose timing model charges every instruction
//! at least one cycle (both [`crate::TimingModel`] presets do;
//! [`Cluster::run_active_into`] refuses a hart whose model does not).
//!
//! Because the timing layer only ever *delays* a hart (it never reorders
//! or rewrites its stream), a single-hart cluster is provably bit- and
//! cycle-identical to a plain [`Machine::run`]: a bank frees up after
//! one cycle and every instruction takes at least one, so a lone hart
//! can never catch its own bank busy — zero stalls, and the SoC timeline
//! collapses onto the hart's own cycle counter. The
//! `tests/cluster_props.rs` proptests assert this over random programs.
//!
//! # Two phases: run each hart alone, then scan for bank conflicts
//!
//! Timing never feeds back into function, so [`Cluster::run_active`]
//! does not interleave the harts at all:
//!
//! 1. **Per-hart runs.** Each active hart runs alone to its halt, trap
//!    or step budget through the same runner as [`Machine::run`] — block
//!    dispatch, or one monitored step per instruction while a fault
//!    plan, watchdog or class histogram is armed — and records every
//!    arbiter grant (a trap and the budget check that ends an
//!    out-of-fuel run are grants too) in a table the cluster owns,
//!    indexed by the hart's own cycle count: four bits per cycle saying
//!    whether a grant starts there and the bank of its data access, if
//!    any. No hart sees another in this phase, so the harts run on
//!    several host threads: the calling thread and persistent workers,
//!    one fewer than the host CPUs or harts (at least one), spawned by
//!    the first wave of two or more harts and joined when the cluster
//!    drops. With `t` threads, hart `h` runs on thread `h % t` — worker
//!    harts and their tables move to the worker and back within the
//!    call — and a panic
//!    there comes back to the caller once every hart is home. Each hart
//!    and table is the same whichever thread runs it, so results do not
//!    depend on the thread count.
//! 2. **Bank-conflict scan.** A hart's SoC time is its own cycle plus
//!    the stalls it has taken so far. An access stalls only behind
//!    another access to its bank at the same SoC time, or behind one
//!    that a stall pushed onto that time. So the
//!    scan compares every pair of harts' tables, shifted by their
//!    stalls, sixty-four cycles at a time in lane-wise loops, and skips
//!    in bulk to the next cycle where two accesses meet on a bank. From
//!    there it grants cycle by cycle — the tied harts in round-robin
//!    order, each stall held on the bank for the next cycle's accesses
//!    — until no bank is busy and no hart stalled, then skips on. The
//!    round-robin pointer the arbiter moves on every grant matters only
//!    at such a tie. There the scan rebuilds it: it walks every hart's
//!    grants back through the tables and composes each earlier same-time
//!    group's round-robin map (`r ↦ 1 + the group's last grantee counting
//!    from r`) until the composition is constant or passes the last
//!    cycle it granted, whose pointer it carries.
//!
//! A lone hart has no pair to compare, so its scan costs next to
//! nothing.
//!
//! The scan reproduces the interleaved arbiter exactly — per-hart
//! results, [`HartStats`], `soc_cycles` and registers — which the
//! test-local per-`Cpu::step` reference arbiter in
//! `tests/cluster_props.rs` pins. The tables, the scan state, the
//! workers' job slots and the run results live in buffers the cluster
//! reuses, grown by the first run that needs them, so
//! [`Cluster::run_active_into`] allocates nothing once warm, on any
//! thread.

use crate::cpu::RetireSink;
use crate::machine::{Machine, RunResult};
use crate::profile::ClassHistogram;
use crate::trap::Trap;
use std::any::Any;
use std::num::NonZeroUsize;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};

/// Word-interleaved single-cycle banks of the shared memory (a power of
/// two that a four-bit scan cell can name).
pub const BANKS: usize = 8;

/// The bank serving `addr`.
fn bank_of(addr: u32) -> usize {
    (addr >> 2) as usize & (BANKS - 1)
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
    arbiter: Arbiter,
    workers: Workers,
}

impl Cluster {
    /// Builds a cluster over `harts`.
    ///
    /// # Panics
    ///
    /// Panics if `harts` is empty.
    pub fn new(harts: Vec<Machine>) -> Self {
        assert!(!harts.is_empty(), "a cluster needs at least one hart");
        let mut cluster = Cluster {
            harts,
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
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn replicate(template: &Machine, n: usize) -> Self {
        let harts = std::iter::repeat_with(|| template.clone())
            .take(n)
            .collect();
        Cluster::new(harts)
    }

    /// Number of harts.
    pub fn num_harts(&self) -> usize {
        self.harts.len()
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
    /// Panics if `n_active` is zero or exceeds the hart count, or if an
    /// active hart's timing model charges some instruction nothing.
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
    /// Panics if `n_active` is zero or exceeds the hart count, or if an
    /// active hart's timing model charges some instruction nothing: the
    /// scan needs every cycle to start at most one grant. The check runs
    /// here rather than in [`new`](Self::new) because
    /// [`hart_mut`](Self::hart_mut) can swap in a machine with another
    /// timing model.
    pub fn run_active_into(&mut self, n_active: usize, max_steps: u64, run: &mut ClusterRun) {
        assert!(
            (1..=self.harts.len()).contains(&n_active),
            "n_active {} out of range 1..={}",
            n_active,
            self.harts.len()
        );
        assert!(
            self.harts[..n_active]
                .iter()
                .all(|hart| hart.cpu.timing().charges_every_instruction()),
            "every instruction of a cluster hart must cost at least one cycle"
        );
        self.arbiter.prepare(self.harts.len());
        run.results.clear();
        run.results.resize(n_active, PENDING);
        run.stats.clear();
        run.stats.resize(n_active, HartStats::default());
        self.run_alone(n_active, max_steps, run);
        // phase 2: the shared timeline
        run.soc_cycles = self.arbiter.replay(n_active, &mut run.stats);
    }

    /// Phase 1: runs harts `0..n_active` alone, each into its record,
    /// filling `run`'s results and busy accounting. With `t` threads,
    /// hart `h` runs on thread `h % t`: thread 0 is the caller, thread
    /// `w + 1` worker `w`, which holds its harts and records only until
    /// this returns.
    fn run_alone(&mut self, n_active: usize, max_steps: u64, run: &mut ClusterRun) {
        let threads = (self.workers.spawn(n_active, self.harts.len()) + 1).min(n_active);
        let crew = &self.workers.crew[..threads - 1];
        // highest hart first, so every lower hart keeps its index
        for h in (0..n_active).rev().filter(|h| h % threads != 0) {
            crew[h % threads - 1].slot.lock().tasks.push(Task {
                hart: self.harts.remove(h),
                record: std::mem::take(&mut self.arbiter.records[h]),
                result: PENDING,
                stats: HartStats::default(),
            });
        }
        for worker in crew {
            worker.slot.post(max_steps);
        }
        // the caller's harts 0, t, 2t, .. now sit at 0, 1, 2, ..
        let records = &mut self.arbiter.records;
        let harts = &mut self.harts[..n_active.div_ceil(threads)];
        let mine = panic::catch_unwind(AssertUnwindSafe(|| {
            // size a cold table like the previous one rather than
            // growing up to it, which would leave the smaller copies
            // behind
            let mut sized: usize = 0;
            for (k, hart) in harts.iter_mut().enumerate() {
                let h = k * threads;
                let words = &mut records[h].words;
                words.reserve_exact(sized.saturating_sub(words.len()));
                (run.results[h], run.stats[h]) = run_hart(hart, &mut records[h], max_steps);
                sized = records[h].words.len();
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
            self.arbiter.records[h] = task.record;
            (run.results[h], run.stats[h]) = (task.result, task.stats);
        }
        if let Some(payload) = panicked {
            panic::resume_unwind(payload);
        }
    }
}

/// Placeholder result of a hart that has not run yet.
const PENDING: Result<RunResult, Trap> = Err(Trap::OutOfFuel { executed: 0 });

/// Runs `hart` alone to its halt, trap or `max_steps`, recording its
/// grants into `record`; returns the result and the busy accounting.
fn run_hart(
    hart: &mut Machine,
    record: &mut HartCells,
    max_steps: u64,
) -> (Result<RunResult, Trap>, HartStats) {
    let (cycles0, instret0) = (hart.cpu.cycles, hart.cpu.instret);
    record.restart();
    let result = hart.run_logged(max_steps, record);
    let stats = HartStats {
        busy_cycles: hart.cpu.cycles - cycles0,
        instructions: hart.cpu.instret - instret0,
        ..HartStats::default()
    };
    (result, stats)
}

/// One hart lent to a worker for one phase 1: the hart, its record
/// and, once run, its result and busy accounting.
#[derive(Debug)]
struct Task {
    hart: Machine,
    record: HartCells,
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

/// A worker's job slot: the tasks, the step budget and, if running them
/// panicked, the panic, reused from wave to wave.
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
                    let max_steps = job.max_steps;
                    let mut tasks = std::mem::take(&mut job.tasks);
                    drop(job);
                    let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
                        for t in &mut tasks {
                            (t.result, t.stats) = run_hart(&mut t.hart, &mut t.record, max_steps);
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

/// Cell of a cycle on which an access-free grant starts (a cycle inside
/// an instruction is 0).
const GRANT: u64 = 1;
/// Cell of a cycle on which an access to bank 0 starts; bank `b` is
/// `ACCESS + b`.
const ACCESS: u64 = 2;
/// Cells (cycles) per table word.
const CELLS: u64 = 16;
/// Table words per hart the scan compares at once.
const CHUNK: usize = 4;
/// Words a table keeps past the word of its last grant, so a chunk read
/// from any cell up to that grant stays inside the table.
const MARGIN: usize = CHUNK + 2;
/// Words a table grows by past the margin.
const GROW: usize = 1024;
/// Bit 0 of every cell.
const LOW1: u64 = 0x1111_1111_1111_1111;
/// Bits 0 to 2 of every cell.
const LOW3: u64 = 0x7777_7777_7777_7777;
/// Bit 3 of every cell.
const HIGH: u64 = 0x8888_8888_8888_8888;

/// Bit 3 of each cell of `v` set where that cell is not 0 (exact: the
/// add never carries into the next cell).
#[inline(always)]
fn nonzero(v: u64) -> u64 {
    (((v & LOW3) + LOW3) | v) & HIGH
}

/// One hart's grants for one run, indexed by the hart's own cycle count
/// since the run began: a 4-bit cell per cycle, sixteen to a word, the
/// earliest in the lowest bits. A cell is 0 inside an instruction,
/// [`GRANT`] where an access-free grant starts and `ACCESS + bank` where
/// an access starts. Every instruction costs at least a cycle, so a
/// cycle starts at most one grant; only a run's last grant (a trap's,
/// or the budget check that ends an out-of-fuel run) may cost nothing,
/// and it sits on the run's cycle count. The table reaches [`MARGIN`]
/// words past the word of the last grant, zeroed past that grant.
#[derive(Debug, Clone, Default)]
struct HartCells {
    words: Vec<u64>,
    /// The cycle the next grant starts on.
    now: u64,
    /// Data accesses logged.
    accesses: u64,
    /// `(cycle, stall)` of every access the scan stalled, in cycle
    /// order: the walk-back needs them to recover SoC times.
    stalls: Vec<(u64, u64)>,
}

impl RetireSink for HartCells {
    const ON: bool = true;

    #[inline(always)]
    fn retire(&mut self, cost: u64, access: Option<u32>) {
        let cell = match access {
            None => GRANT,
            Some(addr) => {
                self.accesses += 1;
                ACCESS + bank_of(addr) as u64
            }
        };
        let word = (self.now / CELLS) as usize;
        if word + MARGIN >= self.words.len() {
            self.grow(word);
        }
        self.words[word] |= cell << (self.now % CELLS * 4);
        self.now += cost;
    }
}

impl HartCells {
    /// Zeroes the last run's cells and starts a run.
    fn restart(&mut self) {
        let used = ((self.now / CELLS) as usize + 1).min(self.words.len());
        self.words[..used].fill(0);
        (self.now, self.accesses) = (0, 0);
        self.stalls.clear();
    }

    #[cold]
    fn grow(&mut self, word: usize) {
        self.words.resize(word + MARGIN + GROW, 0);
    }

    /// The cell of `cycle`, up to the last grant's.
    fn cell(&self, cycle: u64) -> u64 {
        self.words[(cycle / CELLS) as usize] >> (cycle % CELLS * 4) & 0xF
    }

    /// One past the run's last grant: no cell from there on is set.
    fn limit(&self) -> u64 {
        self.grant_before(self.now + 1).map_or(0, |last| last + 1)
    }

    /// The cells of the `CHUNK * CELLS` cycles from `cycle` on, zero
    /// from `limit` on.
    #[inline(always)]
    fn window(&self, cycle: u64, limit: u64) -> [u64; CHUNK] {
        if cycle >= limit {
            return [0; CHUNK];
        }
        let shift = (cycle % CELLS * 4) as u32;
        let word = (cycle / CELLS) as usize;
        let src = &self.words[word..word + CHUNK + 1];
        // a funnel shift that is exact at shift 0 too
        std::array::from_fn(|k| src[k] >> shift | (src[k + 1] << 1) << (63 - shift))
    }

    /// The cycle of the last grant before `cycle`, if any.
    fn grant_before(&self, cycle: u64) -> Option<u64> {
        let last = cycle.checked_sub(1)?;
        let (mut word, mut starts) = match self.words.get((last / CELLS) as usize) {
            Some(&w) => (
                (last / CELLS) as usize,
                nonzero(w) & HIGH >> ((CELLS - 1 - last % CELLS) * 4),
            ),
            // past the table every cell is 0
            None => (self.words.len(), 0),
        };
        while starts == 0 {
            word = word.checked_sub(1)?;
            starts = nonzero(self.words[word]);
        }
        Some(word as u64 * CELLS + u64::from(63 - starts.leading_zeros()) / 4)
    }
}

/// A hart's place on the SoC timeline during the scan.
#[derive(Debug, Clone, Copy, Default)]
struct Lane {
    /// Cycles stalled so far: the SoC time of a cycle from `from` on
    /// minus the cycle.
    offset: u64,
    /// The hart's first cycle not yet placed: one past its last stalled
    /// access.
    from: u64,
    /// One past the hart's last grant ([`HartCells::limit`]).
    limit: u64,
}

impl Lane {
    /// The SoC time of cycle `from`: the hart issues nothing before it.
    fn resume(&self) -> u64 {
        self.from + self.offset
    }

    /// The SoC time of cycle `limit`: the hart issues nothing from it on.
    fn finish(&self) -> u64 {
        self.limit + self.offset
    }
}

/// A hart's position in a walk-back: a cycle, the hart's stall offset
/// there, and how many of its stall records lie before it.
#[derive(Debug, Clone, Copy, Default)]
struct Cursor {
    cycle: u64,
    offset: u64,
    stalls: usize,
    /// SoC time of the grant the walk stands on, `None` past the hart's
    /// first grant.
    at: Option<u64>,
}

impl Cursor {
    /// Steps back to the hart's previous grant, returning its SoC time:
    /// its cycle plus the stalls before it.
    fn back(&mut self, cells: &HartCells) -> Option<u64> {
        self.cycle = cells.grant_before(self.cycle)?;
        if let Some(&(cycle, stall)) = cells.stalls[..self.stalls].last() {
            if cycle == self.cycle {
                self.stalls -= 1;
                self.offset -= stall;
            }
        }
        Some(self.cycle + self.offset)
    }
}

/// The timing layer's reusable state: per-hart records and scan lanes,
/// per-bank busy-until times and the scan and walk-back scratch.
#[derive(Debug, Clone, Default)]
struct Arbiter {
    records: Vec<HartCells>,
    lanes: Vec<Lane>,
    bank_ready: [u64; BANKS],
    /// Each hart's cell at the SoC cycle the scan steps through.
    stepped: Vec<u64>,
    /// The harts a bulk scan compares, and their current windows and
    /// the windows' access bits ([`nonzero`] of the bank bits).
    live: Vec<usize>,
    windows: Vec<[u64; CHUNK]>,
    accesses: Vec<[u64; CHUNK]>,
    walk: Vec<Cursor>,
    map: Vec<usize>,
    scratch: Vec<usize>,
}

impl Arbiter {
    /// Sizes every buffer for `harts` harts; only the first call (or a
    /// bigger cluster) allocates.
    fn prepare(&mut self, harts: usize) {
        self.records.resize_with(harts, HartCells::default);
        self.lanes.resize(harts, Lane::default());
        self.stepped.resize(harts, 0);
        self.live.clear();
        self.live.reserve(harts);
        self.windows.resize(harts, [0; CHUNK]);
        self.accesses.resize(harts, [0; CHUNK]);
        self.walk.resize(harts, Cursor::default());
        self.map.resize(harts, 0);
        self.scratch.resize(harts, 0);
    }

    /// Places the recorded grants of harts `0..n` on the shared
    /// timeline, accumulating access accounting into `stats`; returns
    /// the SoC cycles.
    ///
    /// The bank-conflict scan: an access stalls only behind another on
    /// its bank at the same SoC time, or behind one that stalled onto
    /// its time, so the scan skips in bulk to the next cycle where two
    /// harts' accesses meet on a bank and from there places cycle by
    /// cycle until no bank is busy and no hart stalled.
    fn replay(&mut self, n: usize, stats: &mut [HartStats]) -> u64 {
        self.bank_ready.fill(0);
        for (lane, cells) in self.lanes[..n].iter_mut().zip(&self.records) {
            *lane = Lane {
                limit: cells.limit(),
                ..Lane::default()
            };
        }
        // the round-robin pointer at the first grant from a SoC time on
        // (every earlier grant composed into it): 0 from time 0
        let mut known = (0, 0);
        // the SoC time until which a bank is busy or a hart stalled
        let (mut t, mut held) = (0, 0);
        loop {
            if t >= held {
                match self.next_clash(n, t) {
                    Some(clash) => t = clash,
                    None => break,
                }
            }
            held = held.max(self.step(n, t, &mut known));
            t += 1;
        }
        let mut soc_cycles = 0;
        for ((lane, cells), s) in self.lanes[..n].iter().zip(&self.records).zip(stats) {
            s.accesses += cells.accesses;
            s.conflicts += cells.stalls.len() as u64;
            s.stall_cycles += lane.offset;
            soc_cycles = soc_cycles.max(cells.now + lane.offset);
        }
        soc_cycles
    }

    /// The first SoC cycle from `t` on where two harts' accesses meet on
    /// one bank, or `None` once fewer than two harts have cells left.
    /// No bank may be busy and no hart stalled at `t`. Compares every
    /// pair of harts' cells a chunk of cycles at a time, lane-wise.
    fn next_clash(&mut self, n: usize, t: u64) -> Option<u64> {
        let Arbiter {
            lanes,
            records,
            live,
            windows,
            accesses,
            ..
        } = self;
        live.clear();
        live.extend((0..n).filter(|&h| lanes[h].finish() > t));
        // past the second-latest finish at most one hart has cells
        let (mut latest, mut end) = (0, 0);
        for &h in live.iter() {
            let finish = lanes[h].finish();
            (latest, end) = (latest.max(finish), end.max(latest.min(finish)));
        }
        let (windows, accesses) = (&mut windows[..live.len()], &mut accesses[..live.len()]);
        let mut s = t;
        while s < end {
            for ((window, access), &h) in windows.iter_mut().zip(accesses.iter_mut()).zip(&*live) {
                let lane = &lanes[h];
                *window = records[h].window(s - lane.offset, lane.limit);
                *access = window.map(|w| nonzero(w & !LOW1));
            }
            let mut hits = [0; CHUNK];
            for (a, (wa, aa)) in windows.iter().zip(accesses.iter()).enumerate() {
                for wb in &windows[a + 1..] {
                    for k in 0..CHUNK {
                        hits[k] |= aa[k] & !nonzero(wa[k] ^ wb[k]);
                    }
                }
            }
            if let Some(k) = hits.iter().position(|&w| w != 0) {
                return Some(s + k as u64 * CELLS + u64::from(hits[k].trailing_zeros() / 4));
            }
            s += CHUNK as u64 * CELLS;
        }
        None
    }

    /// Grants SoC cycle `t`'s accesses: in round-robin order where two
    /// of them meet on a bank, stalling each behind its bank's earlier
    /// grants. Where it knows the round-robin pointer at `t`, it carries
    /// `known` past `t`'s grants. Returns the time until which it left a
    /// bank busy or a hart stalled.
    fn step(&mut self, n: usize, t: u64, known: &mut (u64, usize)) -> u64 {
        for ((cell, lane), cells) in self.stepped[..n]
            .iter_mut()
            .zip(&self.lanes)
            .zip(&self.records)
        {
            *cell = if lane.resume() <= t && t < lane.finish() {
                cells.cell(t - lane.offset)
            } else {
                0
            };
        }
        let cells = &self.stepped[..n];
        let tie = (0..n).any(|a| cells[a] >= ACCESS && cells[a + 1..].contains(&cells[a]));
        let rr = if t == known.0 {
            Some(known.1)
        } else {
            tie.then(|| self.rr_at(n, t, *known))
        };
        // the order matters only between accesses that meet on a bank
        let cells = &self.stepped[..n];
        let rr = rr.map_or(0, |rr| {
            let last = (rr..n).chain(0..rr).rfind(|&h| cells[h] != 0);
            *known = (t + 1, last.map_or(rr, |h| (h + 1) % n));
            rr
        });
        let mut held = 0;
        for h in (rr..n).chain(0..rr) {
            let Some(bank) = self.stepped[h].checked_sub(ACCESS) else {
                continue;
            };
            let ready = &mut self.bank_ready[bank as usize];
            let grant = t.max(*ready);
            *ready = grant + 1;
            if grant > t {
                let lane = &mut self.lanes[h];
                let cycle = t - lane.offset;
                self.records[h].stalls.push((cycle, grant - t));
                (lane.offset, lane.from) = (lane.offset + grant - t, cycle + 1);
                held = held.max(grant + 1);
            }
        }
        held
    }

    /// The round-robin pointer at the start of the grants issued at `t`:
    /// one past the last hart granted before `t`. Walks every hart's
    /// grants back from `t`, composing the round-robin map of each
    /// earlier same-time group of grants, until the composition is
    /// constant or passes `known`: the time before which every grant is
    /// composed into the pointer it holds.
    fn rr_at(&mut self, n: usize, t: u64, known: (u64, usize)) -> usize {
        for ((c, lane), cells) in self.walk[..n]
            .iter_mut()
            .zip(&self.lanes)
            .zip(&self.records)
        {
            *c = Cursor {
                // a stalled hart's last grant before `t` is its stalled one
                cycle: if lane.resume() > t {
                    lane.from
                } else {
                    (t - lane.offset).min(lane.limit)
                },
                offset: lane.offset,
                stalls: cells.stalls.len(),
                at: None,
            };
            c.at = c.back(cells);
        }
        for (r, m) in self.map[..n].iter_mut().enumerate() {
            *m = r;
        }
        loop {
            let t1 = match self.walk[..n].iter().filter_map(|c| c.at).max() {
                Some(t1) if t1 >= known.0 => t1,
                _ => return self.map[known.1],
            };
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
            if map.iter().all(|&m| m == map[0]) {
                return map[0];
            }
            for (c, cells) in self.walk[..n].iter_mut().zip(&self.records) {
                if c.at == Some(t1) {
                    c.at = c.back(cells);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Platform, Trap};
    use kwt_rvasm::{Asm, Inst, Program, Reg};
    use proptest::prelude::*;

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
        let mut cluster = Cluster::replicate(&template, 1);
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
        let mut cluster = Cluster::replicate(&template, 4);
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
        let mut a = Cluster::replicate(&template, 4);
        let mut b = Cluster::replicate(&template, 4);
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
        let mut cluster = Cluster::replicate(&template, 3);
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
        let mut cluster = Cluster::replicate(&template, 2);
        let run = cluster.run_all(50);
        for r in &run.results {
            assert!(matches!(r, Err(Trap::OutOfFuel { .. })));
        }
    }

    #[test]
    fn run_active_schedules_only_the_prefix() {
        let template = Machine::load(&hammer_program(10), Platform::ibex()).unwrap();
        let mut cluster = Cluster::replicate(&template, 4);
        let run = cluster.run_active(2, 100_000);
        assert_eq!(run.results.len(), 2);
        assert_eq!(cluster.hart(3).cpu.instret, 0, "idle hart never stepped");
    }

    #[test]
    fn histograms_are_per_hart_and_summable() {
        let template = Machine::load(&hammer_program(10), Platform::ibex()).unwrap();
        let mut cluster = Cluster::replicate(&template, 2);
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
            let mut cluster = Cluster::replicate(&template, 2);
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

    /// One hart's synthetic grants: each grant's cost and the word its
    /// access touches, if any.
    type Grants = Vec<(u64, Option<u32>)>;

    fn grant() -> impl Strategy<Value = (u64, Option<u32>)> {
        (0u8..4, 1u64..4, 1u64..301, any::<bool>(), 0u32..64).prop_map(
            |(pick, short, long, access, word)| {
                // mostly short instructions, so the harts meet often
                let cost = if pick < 3 { short } else { long };
                (cost, access.then_some(word))
            },
        )
    }

    /// The arbiter grant by grant over synthetic logs: the
    /// earliest-ready live hart, ties round-robin from the hart after
    /// the last grantee. Exact for any log, zero-cost grants included,
    /// so it is the scan's oracle.
    fn replay_grants(harts: &[Grants], stats: &mut [HartStats]) -> u64 {
        let n = harts.len();
        let mut heads = vec![(0, 0); n];
        let mut bank_ready = [0; BANKS];
        let mut rr = 0;
        loop {
            let mut chosen = None;
            let mut best = u64::MAX;
            for h in (rr..n).chain(0..rr) {
                let (pos, time) = heads[h];
                if pos < harts[h].len() && (chosen.is_none() || time < best) {
                    (best, chosen) = (time, Some(h));
                }
            }
            let Some(h) = chosen else { break };
            rr = (h + 1) % n;
            let (pos, time) = &mut heads[h];
            let (cost, word) = harts[h][*pos];
            if let Some(word) = word {
                let ready = &mut bank_ready[bank_of(word * 4)];
                let grant = (*time).max(*ready);
                *ready = grant + 1;
                stats[h].accesses += 1;
                if grant > *time {
                    stats[h].conflicts += 1;
                    stats[h].stall_cycles += grant - *time;
                }
                *time = grant;
            }
            *time += cost;
            *pos += 1;
        }
        heads.iter().map(|&(_, time)| time).max().unwrap_or(0)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The scan against the grant-by-grant replay on synthetic logs:
        /// identical and k-cycle-shifted copies of one log, so the harts
        /// meet in lockstep on one bank and stalls cascade, some ending
        /// in a grant that costs nothing (a trap or the out-of-fuel
        /// check).
        #[test]
        fn replay_matches_grant_by_grant_on_synthetic_logs(
            base in proptest::collection::vec(grant(), 1..48),
            copies in proptest::collection::vec((0u64..4, any::<bool>(), any::<bool>()), 1..9),
            own in proptest::collection::vec(grant(), 0..24),
        ) {
            let harts: Vec<Grants> = copies
                .iter()
                .enumerate()
                .map(|(h, &(shift, mixed, trap))| {
                    let mut grants: Grants = Vec::new();
                    if shift > 0 {
                        grants.push((shift, None));
                    }
                    grants.extend(&base);
                    if mixed && h % 2 == 1 {
                        // an odd hart may run its own stream after the copy
                        grants.extend(&own);
                    }
                    if trap {
                        grants.push((0, None));
                    }
                    grants
                })
                .collect();
            let n = harts.len();
            let mut arbiter = Arbiter::default();
            arbiter.prepare(n);
            for (cells, grants) in arbiter.records.iter_mut().zip(&harts) {
                cells.restart();
                for &(cost, word) in grants {
                    cells.retire(cost, word.map(|w| w * 4));
                }
            }
            let mut got = vec![HartStats::default(); n];
            let soc = arbiter.replay(n, &mut got);
            let mut want = vec![HartStats::default(); n];
            let want_soc = replay_grants(&harts, &mut want);
            prop_assert_eq!(got, want);
            prop_assert_eq!(soc, want_soc);
        }
    }

    #[test]
    fn bank_mapping_is_word_interleaved() {
        assert_eq!(bank_of(0x0), 0);
        assert_eq!(bank_of(0x4), 1);
        assert_eq!(bank_of(0x1C), 7);
        assert_eq!(bank_of(0x20), 0);
        // byte accesses within a word hit the same bank
        assert_eq!(bank_of(0x21), 0);
        assert_eq!(bank_of(0x23), 0);
    }
}
