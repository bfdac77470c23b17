//! Cluster property tests: the timing layer must never change what a
//! hart computes.
//!
//! * A **single-hart cluster** is bit- and cycle-identical to a plain
//!   [`Machine::run`] over random programs — the arbiter runs, the data
//!   trace is armed, and none of it may be architecturally visible.
//! * An **N-hart cluster** is deterministic: two runs of the same
//!   seeded workload produce identical per-hart results, cycle counts
//!   and stall accounting.
//! * An **N-hart cluster** matches a test-local reference arbiter — the
//!   interleaved round-robin scheduler written out over `Cpu::step` and
//!   `Cpu::take_data_access` — exactly: per-hart results, `HartStats`,
//!   `soc_cycles` and registers, with harts drifting out of lockstep,
//!   running out of fuel, or one of them trapping. Any rewrite of the
//!   cluster's timing layer must keep this oracle green. The cluster
//!   runs each hart alone and replays only its data accesses, so the
//!   oracle is driven hardest where that replay must rebuild the
//!   arbiter's round-robin pointer: one to eight harts, every access on
//!   one bank with the harts in lockstep, step budgets that expire,
//!   traps that cost a grant nothing or something, monitors that move a
//!   hart off block dispatch, instruction costs up to 300 cycles, and the
//!   real A8 image. A timing model that charges some instruction nothing
//!   is outside the cluster's SoC and refused.

use kwt_rv32::{
    Cluster, ClusterRun, FaultPlan, HartStats, Machine, Platform, RunResult, StepOutcome,
    TimingModel, Trap, BANKS,
};
use kwt_rvasm::{Asm, Inst, Program, Reg};
use proptest::prelude::*;

/// Register pool random programs read and write (no sp/ra/zero, so the
/// harness registers stay intact).
const POOL: [Reg; 8] = [
    Reg::T0,
    Reg::T1,
    Reg::T2,
    Reg::A0,
    Reg::A1,
    Reg::A2,
    Reg::A3,
    Reg::A4,
];

/// One random instruction: an opcode selector plus register/immediate
/// picks. Loads and stores target the `0x9000..0x9400` scratch window
/// (always mapped, never code), so every generated program is safe and
/// every generated program halts (straight-line, `ebreak`-terminated).
#[derive(Debug, Clone)]
struct RandInst {
    op: u8,
    rd: usize,
    rs1: usize,
    rs2: usize,
    imm: i16,
}

fn rand_inst() -> impl Strategy<Value = RandInst> {
    (0u8..10, 0usize..8, 0usize..8, 0usize..8, any::<i16>()).prop_map(|(op, rd, rs1, rs2, imm)| {
        RandInst {
            op,
            rd,
            rs1,
            rs2,
            imm,
        }
    })
}

/// Assembles a straight-line program from the random instruction list.
/// `T5` holds the scratch base so memory ops need no extra setup.
fn assemble(insts: &[RandInst]) -> Program {
    let mut asm = Asm::new(0, 0x8000);
    asm.here("entry");
    asm.li(Reg::T5, 0x9000);
    for ri in insts {
        emit_rand(&mut asm, ri);
    }
    asm.emit(Inst::Ebreak);
    asm.finish().expect("straight-line program assembles")
}

/// Emits one random instruction (memory ops relative to `T5`).
fn emit_rand(asm: &mut Asm, ri: &RandInst) {
    let rd = POOL[ri.rd];
    let rs1 = POOL[ri.rs1];
    let rs2 = POOL[ri.rs2];
    // word-aligned offset within the scratch window
    let off = ri.imm as i32 & 0x3FC;
    match ri.op {
        0 => asm.emit(Inst::Addi {
            rd,
            rs1,
            imm: ri.imm as i32,
        }),
        1 => asm.emit(Inst::Add { rd, rs1, rs2 }),
        2 => asm.emit(Inst::Sub { rd, rs1, rs2 }),
        3 => asm.emit(Inst::Xor { rd, rs1, rs2 }),
        4 => asm.emit(Inst::Mul { rd, rs1, rs2 }),
        5 => asm.emit(Inst::Div { rd, rs1, rs2 }),
        6 => asm.emit(Inst::Sw {
            rs2: rs1,
            rs1: Reg::T5,
            imm: off,
        }),
        7 => asm.emit(Inst::Lw {
            rd,
            rs1: Reg::T5,
            imm: off,
        }),
        8 => asm.emit(Inst::Sb {
            rs2: rs1,
            rs1: Reg::T5,
            imm: off,
        }),
        _ => asm.emit(Inst::Lbu {
            rd,
            rs1: Reg::T5,
            imm: off,
        }),
    }
}

/// Wraps the random body in a bounded countdown loop of
/// `passes + t6` iterations: every hart runs the same code, and setting
/// `t6` per hart makes them finish at different times.
fn assemble_loop(insts: &[RandInst], passes: i32) -> Program {
    let mut asm = Asm::new(0, 0x8000);
    asm.here("entry");
    asm.li(Reg::T5, 0x9000);
    asm.li(Reg::T4, passes);
    asm.emit(Inst::Add {
        rd: Reg::T4,
        rs1: Reg::T4,
        rs2: Reg::T6,
    });
    let top = asm.here("top");
    for ri in insts {
        emit_rand(&mut asm, ri);
    }
    asm.emit(Inst::Addi {
        rd: Reg::T4,
        rs1: Reg::T4,
        imm: -1,
    });
    asm.branch_to(
        Inst::Bne {
            rs1: Reg::T4,
            rs2: Reg::Zero,
            offset: 0,
        },
        top,
    );
    asm.emit(Inst::Ebreak);
    asm.finish().expect("loop program assembles")
}

/// What [`Cluster::run_all`] reports, recomputed by the reference.
#[derive(Debug)]
struct ReferenceRun {
    results: Vec<Result<RunResult, Trap>>,
    stats: Vec<HartStats>,
    soc_cycles: u64,
}

/// The cluster's interleaved round-robin arbiter, written out over
/// `Cpu::step` and `Cpu::take_data_access`: grant the live hart with
/// the earliest ready time (ties from the hart after the last grantee),
/// step it once, and route its data access (if any) to one of
/// [`BANKS`] word-interleaved single-cycle banks, which stalls the hart
/// while busy. `forced` injects
/// `trap` on hart `h` the first time it reaches `pc`, as a
/// `force_trap_at_pc` fault plan does (the faulting grant costs nothing).
fn reference_schedule(
    harts: &mut [Machine],
    max_steps: u64,
    mut forced: Option<(usize, u32, Trap)>,
) -> ReferenceRun {
    let n = harts.len();
    for hart in harts.iter_mut() {
        hart.cpu.set_data_trace_enabled(true);
    }
    let mut hart_ready = vec![0u64; n];
    let mut bank_ready = [0u64; BANKS];
    let mut steps = vec![0u64; n];
    let mut stats = vec![HartStats::default(); n];
    let mut results: Vec<Option<Result<RunResult, Trap>>> = vec![None; n];
    let cycles0: Vec<u64> = harts.iter().map(|m| m.cpu.cycles).collect();
    let instret0: Vec<u64> = harts.iter().map(|m| m.cpu.instret).collect();
    let mut rr_next = 0;
    let mut live = n;
    while live > 0 {
        let h = (0..n)
            .map(|off| (rr_next + off) % n)
            .filter(|&h| results[h].is_none())
            .min_by_key(|&h| hart_ready[h])
            .expect("a live hart");
        rr_next = (h + 1) % n;
        let cpu = &mut harts[h].cpu;
        if steps[h] >= max_steps {
            results[h] = Some(Err(Trap::OutOfFuel {
                executed: cpu.instret,
            }));
            live -= 1;
            continue;
        }
        let before = cpu.cycles;
        let outcome = match forced {
            Some((fh, pc, trap)) if fh == h && cpu.pc == pc => {
                forced = None;
                Err(trap)
            }
            _ => cpu.step(),
        };
        steps[h] += 1;
        let cost = cpu.cycles - before;
        match cpu.take_data_access() {
            Some(addr) => {
                let bank = (addr >> 2) as usize % BANKS;
                let grant = hart_ready[h].max(bank_ready[bank]);
                let stall = grant - hart_ready[h];
                bank_ready[bank] = grant + 1;
                hart_ready[h] = grant + cost;
                stats[h].accesses += 1;
                if stall > 0 {
                    stats[h].conflicts += 1;
                    stats[h].stall_cycles += stall;
                }
            }
            None => hart_ready[h] += cost,
        }
        match outcome {
            Ok(StepOutcome::Continue) => {}
            Ok(StepOutcome::Halted) => {
                cpu.profiler.finish(cpu.cycles);
                results[h] = Some(Ok(RunResult {
                    cycles: cpu.cycles,
                    instructions: cpu.instret,
                    exit_code: cpu.reg(Reg::A0),
                }));
                live -= 1;
            }
            Err(trap) => {
                results[h] = Some(Err(trap));
                live -= 1;
            }
        }
    }
    for h in 0..n {
        stats[h].busy_cycles = harts[h].cpu.cycles - cycles0[h];
        stats[h].instructions = harts[h].cpu.instret - instret0[h];
    }
    ReferenceRun {
        results: results.into_iter().map(|r| r.expect("finished")).collect(),
        stats,
        soc_cycles: hart_ready.into_iter().max().unwrap_or(0),
    }
}

/// Runs `p` on an `n`-hart cluster (hart `h` drifting by `t6 = h * drift`)
/// and on the reference arbiter, optionally forcing `trap` at `p`'s
/// loop top on one hart, and asserts they agree exactly.
fn assert_cluster_matches_reference(
    p: &Program,
    n: usize,
    drift: u32,
    max_steps: u64,
    forced_hart: Option<usize>,
) {
    let template = Machine::load(p, Platform::ibex()).expect("fits");
    let mut cluster = Cluster::replicate(&template, n);
    let mut reference: Vec<Machine> = (0..n).map(|_| template.clone()).collect();
    for (h, hart) in reference.iter_mut().enumerate() {
        cluster.hart_mut(h).cpu.set_reg(Reg::T6, h as u32 * drift);
        hart.cpu.set_reg(Reg::T6, h as u32 * drift);
    }
    let top = p.symbol("top").expect("loop top");
    let trap = Trap::AccessOutOfBounds {
        addr: 0xBAD,
        pc: top,
    };
    let forced = forced_hart.map(|h| {
        cluster
            .hart_mut(h)
            .set_fault_plan(FaultPlan::new().force_trap_at_pc(top, trap));
        (h, top, trap)
    });
    let run = cluster.run_all(max_steps);
    let want = reference_schedule(&mut reference, max_steps, forced);
    prop_assert_eq!(&run.results, &want.results);
    prop_assert_eq!(&run.stats, &want.stats);
    prop_assert_eq!(run.soc_cycles, want.soc_cycles);
    for (h, r) in reference.iter().enumerate() {
        prop_assert_eq!(
            &cluster.hart(h).cpu.regs,
            &r.cpu.regs,
            "hart {} registers",
            h
        );
    }
    if let Some(h) = forced_hart {
        prop_assert_eq!(run.results[h], Err(trap));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// N-hart timing pinned to the reference arbiter: harts in lockstep
    /// (drift 0) and drifting apart, run to completion.
    #[test]
    fn n_hart_cluster_matches_reference_arbiter(
        insts in proptest::collection::vec(rand_inst(), 1..24),
        passes in 1i32..6,
        n in 2usize..5,
        drift in 0u32..3,
    ) {
        let p = assemble_loop(&insts, passes);
        assert_cluster_matches_reference(&p, n, drift, 100_000, None);
    }

    /// ... with the fuel running out part-way on some or all harts.
    #[test]
    fn n_hart_cluster_matches_reference_when_fuel_runs_out(
        insts in proptest::collection::vec(rand_inst(), 1..24),
        n in 2usize..5,
        max_steps in 1u64..200,
    ) {
        let p = assemble_loop(&insts, 4);
        assert_cluster_matches_reference(&p, n, 1, max_steps, None);
    }

    /// ... with a forced trap on one hart while the others run on.
    #[test]
    fn n_hart_cluster_matches_reference_with_a_trapped_hart(
        insts in proptest::collection::vec(rand_inst(), 1..24),
        n in 2usize..5,
        trapped in 0usize..4,
    ) {
        let p = assemble_loop(&insts, 3);
        assert_cluster_matches_reference(&p, n, 1, 100_000, Some(trapped % n));
    }

    /// Tentpole acceptance: single-hart cluster ≡ legacy `Machine`,
    /// bit for bit (registers, memory-visible results) and cycle for
    /// cycle, over random programs.
    #[test]
    fn single_hart_cluster_matches_machine(insts in proptest::collection::vec(rand_inst(), 1..60)) {
        let p = assemble(&insts);
        let mut solo = Machine::load(&p, Platform::ibex()).expect("fits");
        let baseline = solo.run(10_000).expect("halts");

        let template = Machine::load(&p, Platform::ibex()).expect("fits");
        let mut cluster = Cluster::replicate(&template, 1);
        let run = cluster.run_all(10_000);

        prop_assert_eq!(run.results[0], Ok(baseline));
        prop_assert_eq!(run.soc_cycles, baseline.cycles);
        prop_assert_eq!(run.stats[0].stall_cycles, 0);
        prop_assert_eq!(&cluster.hart(0).cpu.regs, &solo.cpu.regs);
    }

    /// N-hart determinism: the same seeded workload scheduled twice
    /// produces identical per-hart results, cycle counts and stall
    /// accounting.
    #[test]
    fn n_hart_schedule_is_deterministic(
        insts in proptest::collection::vec(rand_inst(), 1..40),
        n in 2usize..5,
    ) {
        let p = assemble(&insts);
        let template = Machine::load(&p, Platform::ibex()).expect("fits");
        let mut first = Cluster::replicate(&template, n);
        let mut second = Cluster::replicate(&template, n);
        let ra = first.run_all(10_000);
        let rb = second.run_all(10_000);
        prop_assert_eq!(ra.results, rb.results);
        prop_assert_eq!(ra.stats, rb.stats);
        prop_assert_eq!(ra.soc_cycles, rb.soc_cycles);
    }

    /// Contention only ever delays: each hart of an N-hart cluster
    /// retires exactly its solo stream (same result, same per-hart
    /// cycles), and the SoC finish time is at least the slowest solo
    /// run.
    #[test]
    fn contention_never_changes_function(insts in proptest::collection::vec(rand_inst(), 1..40)) {
        let p = assemble(&insts);
        let mut solo = Machine::load(&p, Platform::ibex()).expect("fits");
        let baseline = solo.run(10_000).expect("halts");
        let template = Machine::load(&p, Platform::ibex()).expect("fits");
        let mut cluster = Cluster::replicate(&template, 4);
        let run = cluster.run_all(10_000);
        for h in 0..4 {
            prop_assert_eq!(run.results[h], Ok(baseline));
        }
        prop_assert!(run.soc_cycles >= baseline.cycles);
    }
}

/// A fixed loop body of six stores and loads to one word.
fn hammer() -> Vec<RandInst> {
    [6u8, 7, 8, 9, 6, 7]
        .iter()
        .enumerate()
        .map(|(i, &op)| RandInst {
            op,
            rd: i % 8,
            rs1: (i + 3) % 8,
            rs2: (i + 5) % 8,
            imm: 0x40,
        })
        .collect()
}

/// A contended case pinned outright: every hart hammers the same words,
/// so the reference must reproduce real stalls, not just idle banks.
#[test]
fn contended_cluster_matches_reference_arbiter() {
    let p = assemble_loop(&hammer(), 20);
    for n in 2..=4 {
        assert_cluster_matches_reference(&p, n, 1, 100_000, None);
    }
    let template = Machine::load(&p, Platform::ibex()).expect("fits");
    let mut cluster = Cluster::replicate(&template, 4);
    let run = cluster.run_all(100_000);
    assert!(
        run.stats.iter().any(|s| s.stall_cycles > 0),
        "the hammer loop must contend"
    );
}

/// `assemble_loop` over a scratch base of `0x9000 + t3`, set per hart
/// (past RAM, it makes the hart's first memory op trap after charging
/// its cycles). With `one_word`, every memory op touches the base word,
/// so every access of every hart hits one bank.
fn assemble_shared_loop(insts: &[RandInst], passes: i32, one_word: bool) -> Program {
    let mut asm = Asm::new(0, 0x8000);
    asm.here("entry");
    asm.li(Reg::T5, 0x9000);
    asm.emit(Inst::Add {
        rd: Reg::T5,
        rs1: Reg::T5,
        rs2: Reg::T3,
    });
    asm.li(Reg::T4, passes);
    asm.emit(Inst::Add {
        rd: Reg::T4,
        rs1: Reg::T4,
        rs2: Reg::T6,
    });
    let top = asm.here("top");
    for ri in insts {
        let memory_op = ri.op >= 6;
        let imm = if one_word && memory_op { 0 } else { ri.imm };
        emit_rand(&mut asm, &RandInst { imm, ..ri.clone() });
    }
    asm.emit(Inst::Addi {
        rd: Reg::T4,
        rs1: Reg::T4,
        imm: -1,
    });
    asm.branch_to(
        Inst::Bne {
            rs1: Reg::T4,
            rs2: Reg::Zero,
            offset: 0,
        },
        top,
    );
    asm.emit(Inst::Ebreak);
    asm.finish().expect("loop program assembles")
}

/// Everything a reference comparison varies besides the program.
#[derive(Debug, Clone)]
struct Setup {
    harts: usize,
    /// Hart `h` runs `h * drift` extra loop passes.
    drift: u32,
    max_steps: u64,
    timing: Option<TimingModel>,
    /// Hart forced to trap at the loop top: a grant that costs nothing.
    forced_hart: Option<usize>,
    /// Hart whose scratch base lies past RAM: its first memory op traps.
    faulting_hart: Option<usize>,
    /// Hart with its class histogram armed.
    histogram_hart: Option<usize>,
    /// Hart with a cycle watchdog armed (too generous to fire).
    watchdog_hart: Option<usize>,
}

impl Setup {
    fn harts(harts: usize) -> Self {
        Setup {
            harts,
            drift: 1,
            max_steps: 100_000,
            timing: None,
            forced_hart: None,
            faulting_hart: None,
            histogram_hart: None,
            watchdog_hart: None,
        }
    }
}

/// Runs `p` (an `assemble_shared_loop` program) on a cluster and on the
/// reference arbiter under `s` and asserts they agree exactly: results,
/// `HartStats`, `soc_cycles`, registers and the armed class histogram.
fn check_against_reference(p: &Program, s: &Setup) -> ClusterRun {
    let mut template = Machine::load(p, Platform::ibex()).expect("fits");
    if let Some(timing) = s.timing {
        template = template.with_timing(timing);
    }
    let mut cluster = Cluster::replicate(&template, s.harts);
    let mut reference: Vec<Machine> = (0..s.harts).map(|_| template.clone()).collect();
    for (h, solo) in reference.iter_mut().enumerate() {
        let base = if s.faulting_hart == Some(h) {
            0x10_0000
        } else {
            0
        };
        for m in [cluster.hart_mut(h), solo] {
            m.cpu.set_reg(Reg::T6, h as u32 * s.drift);
            m.cpu.set_reg(Reg::T3, base);
            m.set_class_histogram_enabled(s.histogram_hart == Some(h));
        }
    }
    if let Some(h) = s.watchdog_hart {
        cluster.hart_mut(h).set_cycle_watchdog(Some(u64::MAX / 2));
    }
    let top = p.symbol("top").expect("loop top");
    let trap = Trap::AccessOutOfBounds {
        addr: 0xBAD,
        pc: top,
    };
    let forced = s.forced_hart.map(|h| {
        cluster
            .hart_mut(h)
            .set_fault_plan(FaultPlan::new().force_trap_at_pc(top, trap));
        (h, top, trap)
    });
    let run = cluster.run_all(s.max_steps);
    let want = reference_schedule(&mut reference, s.max_steps, forced);
    assert_eq!(run.results, want.results, "{s:?}");
    assert_eq!(run.stats, want.stats, "{s:?}");
    assert_eq!(run.soc_cycles, want.soc_cycles, "{s:?}");
    for (h, r) in reference.iter().enumerate() {
        assert_eq!(
            cluster.hart(h).cpu.regs,
            r.cpu.regs,
            "hart {h} registers, {s:?}"
        );
        assert_eq!(
            cluster.hart(h).class_histogram(),
            r.class_histogram(),
            "hart {h} class histogram, {s:?}"
        );
    }
    if let Some(h) = s.faulting_hart {
        assert!(
            matches!(run.results[h], Err(Trap::AccessOutOfBounds { .. })),
            "{s:?}"
        );
    }
    run
}

/// A random timing model with every cost in `min..max` (a taken branch
/// never cheaper than a not-taken one).
fn timing_model(min: u64, max: u64) -> impl Strategy<Value = TimingModel> {
    proptest::collection::vec(min..max, 13).prop_map(|c| TimingModel {
        alu: c[0],
        mul: c[1],
        div: c[2],
        load: c[3],
        store: c[4],
        branch_taken: c[5].max(c[6]),
        branch_not_taken: c[5].min(c[6]),
        jump: c[7],
        custom: c[8],
        kdot: c[9],
        ksat: c[10],
        kcvt: c[11],
        kfloat: c[12],
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// One to eight harts, drifting apart or in lockstep.
    #[test]
    fn one_to_eight_harts_match_reference(
        insts in proptest::collection::vec(rand_inst(), 1..20),
        passes in 1i32..5,
        harts in 1usize..9,
        drift in 0u32..3,
    ) {
        let p = assemble_shared_loop(&insts, passes, false);
        check_against_reference(&p, &Setup { drift, ..Setup::harts(harts) });
    }

    /// Every access on one bank, harts in lockstep (drift 0) or one pass
    /// apart (drift 1): same-bank, same-time ties on nearly every access.
    #[test]
    fn tie_heavy_same_bank_programs_match_reference(
        insts in proptest::collection::vec(rand_inst(), 1..16),
        passes in 1i32..6,
        harts in 2usize..9,
        drift in 0u32..2,
    ) {
        let p = assemble_shared_loop(&insts, passes, true);
        check_against_reference(&p, &Setup { drift, ..Setup::harts(harts) });
    }

    /// Step budgets expiring on some or all harts: the grant that finds
    /// a hart out of fuel costs nothing yet moves the round-robin pointer.
    #[test]
    fn expiring_budgets_match_reference(
        insts in proptest::collection::vec(rand_inst(), 1..16),
        harts in 2usize..9,
        max_steps in 0u64..240,
        drift in 0u32..2,
        one_word in any::<bool>(),
    ) {
        let p = assemble_shared_loop(&insts, 4, one_word);
        check_against_reference(&p, &Setup { drift, max_steps, ..Setup::harts(harts) });
    }

    /// A hart forced to trap at its loop top (a zero-cost grant), or one
    /// whose first memory op faults (a grant charged its cycles), while
    /// the others run on.
    #[test]
    fn traps_match_reference(
        insts in proptest::collection::vec(rand_inst(), 1..16),
        harts in 2usize..9,
        victim in 0usize..8,
        forced in any::<bool>(),
        one_word in any::<bool>(),
    ) {
        // a load the faulting hart is sure to reach
        let mut insts = insts;
        insts.push(RandInst { op: 7, rd: 0, rs1: 0, rs2: 0, imm: 0 });
        let p = assemble_shared_loop(&insts, 3, one_word);
        let victim = Some(victim % harts);
        let s = if forced {
            Setup { forced_hart: victim, ..Setup::harts(harts) }
        } else {
            Setup { faulting_hart: victim, ..Setup::harts(harts) }
        };
        check_against_reference(&p, &s);
    }

    /// A class histogram or a watchdog armed on one hart moves that hart
    /// off block dispatch onto the monitored step loop.
    #[test]
    fn monitored_harts_match_reference(
        insts in proptest::collection::vec(rand_inst(), 1..16),
        harts in 2usize..9,
        histogram in 0usize..8,
        watchdog in 0usize..8,
        one_word in any::<bool>(),
    ) {
        let p = assemble_shared_loop(&insts, 3, one_word);
        check_against_reference(&p, &Setup {
            histogram_hart: Some(histogram % harts),
            watchdog_hart: Some(watchdog % harts),
            ..Setup::harts(harts)
        });
    }

    /// Random instruction costs up to 300 cycles on the fixed bank
    /// geometry, with budgets that may expire.
    #[test]
    fn random_costs_and_expiring_budgets_match_reference(
        insts in proptest::collection::vec(rand_inst(), 1..16),
        harts in 1usize..9,
        timing in timing_model(1, 300),
        one_word in any::<bool>(),
        max_steps in 1u64..400,
    ) {
        let p = assemble_shared_loop(&insts, 3, one_word);
        check_against_reference(&p, &Setup {
            max_steps,
            timing: Some(timing),
            ..Setup::harts(harts)
        });
    }
}

/// A timing model that charges some instruction nothing would let one
/// hart take several grants at one SoC time, which the cluster's scan
/// cannot place: the run is refused.
#[test]
#[should_panic(expected = "must cost at least one cycle")]
fn zero_cost_instructions_are_refused() {
    let p = assemble_shared_loop(&hammer(), 3, true);
    let timing = TimingModel {
        alu: 0,
        ..TimingModel::ibex()
    };
    let template = Machine::load(&p, Platform::ibex())
        .expect("fits")
        .with_timing(timing);
    Cluster::replicate(&template, 2).run_all(100_000);
}

/// The real A8 inference image: 4- and 8-hart waves of distinct clips
/// against the reference arbiter, every hart on a full inference.
#[test]
fn a8_waves_match_reference() {
    use kwt_baremetal::InferenceImage;
    use kwt_model::{KwtConfig, KwtParams};
    use kwt_quant::{A8Config, A8Kwt};
    use kwt_tensor::Mat;

    let mut params = KwtParams::init(KwtConfig::kwt_tiny(), 77).expect("valid preset");
    params.visit_mut(|s| s.iter_mut().for_each(|v| *v *= 0.6));
    let a8 = A8Kwt::quantize(&params, A8Config::paper_a8()).expect("a8 exponents valid");
    let image = InferenceImage::build_a8(&a8).expect("a8 image builds");
    let c = image.config;
    for harts in [4, 8] {
        let mut session = image.cluster_session(harts).expect("cluster session");
        for h in 0..harts {
            let mut state = (h as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let clip = Mat::from_fn(c.input_time, c.input_freq, |_, _| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                ((state >> 40) as i32 - (1 << 23)) as f32 / (1 << 25) as f32
            });
            session.load_clip(h, &clip).expect("load clip");
        }
        let mut reference: Vec<Machine> = (0..harts).map(|h| session.hart(h).clone()).collect();
        let cycles0: Vec<u64> = reference.iter().map(|m| m.cpu.cycles).collect();
        let wave = session.run_loaded(harts).clone();
        let want = reference_schedule(&mut reference, 2_000_000_000, None);
        assert_eq!(wave.soc_cycles, want.soc_cycles, "{harts} harts");
        assert_eq!(wave.stats, want.stats, "{harts} harts");
        assert!(
            want.stats.iter().any(|s| s.conflicts > 0),
            "{harts}-hart A8 waves contend"
        );
        for (h, (got, want)) in wave.results.iter().zip(&want.results).enumerate() {
            let got = got.as_ref().expect("cluster hart completes");
            let want = want.as_ref().expect("reference hart completes");
            assert_eq!(got.cycles, want.cycles - cycles0[h], "hart {h} of {harts}");
            assert_eq!(got.exit_code, want.exit_code, "hart {h} of {harts}");
            assert_eq!(
                session.hart(h).cpu.regs,
                reference[h].cpu.regs,
                "hart {h} of {harts}"
            );
        }
    }
}

/// Hart 0 spins on `addi` + `j` until its step budget runs out. Harts 1
/// and 2 each run two `div`s and some `nop`s (`nops.0` and `nops.1`),
/// then hart 1 a `mul` and hart 2 a `div`, and each loads the same word.
/// Their loads can meet at one time with hart 0 out of fuel in between:
/// then the grant that finds it so is the last before the tie, and it
/// alone decides which of harts 1 and 2 stalls.
fn out_of_fuel_race(nops: (usize, usize)) -> Program {
    let mut asm = Asm::new(0, 0x8000);
    asm.here("entry");
    asm.here("top");
    asm.li(Reg::T5, 0x9000);
    let (spin, hart1) = (asm.new_label(), asm.new_label());
    asm.branch_to(
        Inst::Beq {
            rs1: Reg::T6,
            rs2: Reg::Zero,
            offset: 0,
        },
        spin,
    );
    asm.li(Reg::T0, 1);
    asm.branch_to(
        Inst::Beq {
            rs1: Reg::T6,
            rs2: Reg::T0,
            offset: 0,
        },
        hart1,
    );
    let div = Inst::Div {
        rd: Reg::A0,
        rs1: Reg::A1,
        rs2: Reg::A2,
    };
    let mul = Inst::Mul {
        rd: Reg::A0,
        rs1: Reg::A1,
        rs2: Reg::A2,
    };
    let load = Inst::Lw {
        rd: Reg::A3,
        rs1: Reg::T5,
        imm: 0,
    };
    for (label, nops, last) in [(None, nops.1, div), (Some(hart1), nops.0, mul)] {
        if let Some(label) = label {
            asm.bind(label).expect("fresh label");
        }
        asm.emit(div);
        asm.emit(div);
        for _ in 0..nops {
            asm.nop();
        }
        asm.emit(last);
        asm.emit(load);
        asm.emit(Inst::Ebreak);
    }
    asm.bind(spin).expect("fresh label");
    asm.emit(Inst::Addi {
        rd: Reg::A0,
        rs1: Reg::A0,
        imm: 1,
    });
    asm.jump_to(spin);
    asm.finish().expect("race program assembles")
}

/// The grant that finds a hart out of fuel costs nothing, yet it moves
/// the round-robin pointer like any other grant.
#[test]
fn out_of_fuel_grant_moves_the_round_robin_pointer() {
    for hart2 in 0..4 {
        for hart1 in 30..38 {
            let p = out_of_fuel_race((hart1, hart2));
            for max_steps in 50..62 {
                check_against_reference(
                    &p,
                    &Setup {
                        max_steps,
                        ..Setup::harts(3)
                    },
                );
            }
        }
    }
}

/// The highest hart runs on a worker thread: in a 2-hart cluster on
/// every host, in a 4-hart one on every host but one with three CPUs
/// (where hart 3 falls to the caller). A trap
/// (forced by a fault plan, or a faulting load), a step budget that runs
/// out and an armed histogram or watchdog must reach the results there
/// exactly as on the calling thread.
#[test]
fn worker_harts_trap_run_out_of_fuel_and_keep_monitors() {
    let p = assemble_shared_loop(&hammer(), 3, true);
    for harts in [2, 4] {
        let top = Some(harts - 1);
        let run = check_against_reference(
            &p,
            &Setup {
                forced_hart: top,
                ..Setup::harts(harts)
            },
        );
        assert!(run.results[..harts - 1].iter().all(Result::is_ok));
        check_against_reference(
            &p,
            &Setup {
                faulting_hart: top,
                ..Setup::harts(harts)
            },
        );
        check_against_reference(
            &p,
            &Setup {
                histogram_hart: top,
                watchdog_hart: top,
                ..Setup::harts(harts)
            },
        );
        // hart h runs 3 + 10h passes of about eight instructions
        let run = check_against_reference(
            &p,
            &Setup {
                drift: 10,
                max_steps: 60,
                ..Setup::harts(harts)
            },
        );
        assert!(run.results[0].is_ok(), "{harts} harts");
        assert!(
            matches!(run.results[harts - 1], Err(Trap::OutOfFuel { .. })),
            "{harts} harts"
        );
    }
}

/// Harts `0..n_active` of a `harts`-hart cluster against the reference
/// arbiter over those harts alone; the idle harts never step.
fn check_active(p: &Program, harts: usize, n_active: usize) {
    let template = Machine::load(p, Platform::ibex()).expect("fits");
    let mut cluster = Cluster::replicate(&template, harts);
    let mut reference: Vec<Machine> = (0..n_active).map(|_| template.clone()).collect();
    for h in 0..harts {
        cluster.hart_mut(h).cpu.set_reg(Reg::T6, h as u32);
    }
    for (h, solo) in reference.iter_mut().enumerate() {
        solo.cpu.set_reg(Reg::T6, h as u32);
    }
    let run = cluster.run_active(n_active, 100_000);
    let want = reference_schedule(&mut reference, 100_000, None);
    let at = format!("{n_active} of {harts} harts");
    assert_eq!(run.results, want.results, "{at}");
    assert_eq!(run.stats, want.stats, "{at}");
    assert_eq!(run.soc_cycles, want.soc_cycles, "{at}");
    for (h, r) in reference.iter().enumerate() {
        assert_eq!(cluster.hart(h).cpu.regs, r.cpu.regs, "hart {h}, {at}");
    }
    for h in n_active..harts {
        assert_eq!(cluster.hart(h).cpu.instret, 0, "idle hart {h}, {at}");
    }
}

/// One hart (no worker), 3 of 4 (an uneven split between threads) and
/// all of 8 (up to seven workers), on one bank and spread out.
#[test]
fn partial_and_full_waves_match_reference() {
    for one_word in [true, false] {
        let p = assemble_shared_loop(&hammer(), 4, one_word);
        check_active(&p, 4, 1);
        check_active(&p, 4, 3);
        check_active(&p, 8, 8);
    }
}

/// A clone of a cluster whose workers are up runs on workers of its
/// own: it continues bit-identically to the original and to the
/// reference, and neither run, nor dropping the original, disturbs the
/// other.
#[test]
fn clone_of_a_warm_cluster_runs_identically_and_independently() {
    let p = assemble_shared_loop(&hammer(), 40, true);
    let template = Machine::load(&p, Platform::ibex()).expect("fits");
    let mut a = Cluster::replicate(&template, 4);
    let mut reference: Vec<Machine> = (0..4).map(|_| template.clone()).collect();
    for (h, solo) in reference.iter_mut().enumerate() {
        a.hart_mut(h).cpu.set_reg(Reg::T6, h as u32);
        solo.cpu.set_reg(Reg::T6, h as u32);
    }
    // a budget that stops every hart mid-loop, so each later run goes on
    let first = a.run_all(100);
    let want = reference_schedule(&mut reference, 100, None);
    assert_eq!(first.results, want.results);
    assert!(first
        .results
        .iter()
        .all(|r| matches!(r, Err(Trap::OutOfFuel { .. }))));
    let mut b = a.clone();
    let want = reference_schedule(&mut reference, 100, None);
    let ra = a.run_all(100);
    let regs_a: Vec<_> = (0..4).map(|h| a.hart(h).cpu.regs).collect();
    let rb = b.run_all(100);
    for (name, run) in [("original", &ra), ("clone", &rb)] {
        assert_eq!(run.results, want.results, "{name}");
        assert_eq!(run.stats, want.stats, "{name}");
        assert_eq!(run.soc_cycles, want.soc_cycles, "{name}");
    }
    for (h, r) in reference.iter().enumerate() {
        assert_eq!(b.hart(h).cpu.regs, r.cpu.regs, "clone hart {h}");
        assert_eq!(a.hart(h).cpu.regs, regs_a[h], "original hart {h}");
    }
    drop(a);
    let want = reference_schedule(&mut reference, 100, None);
    let rb = b.run_all(100);
    assert_eq!(rb.results, want.results, "clone after the original dropped");
    assert_eq!(rb.stats, want.stats, "clone after the original dropped");
}
