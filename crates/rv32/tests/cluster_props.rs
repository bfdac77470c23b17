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
//!   cluster's timing layer must keep this oracle green.

use kwt_rv32::{
    BankConfig, Cluster, FaultPlan, HartStats, Machine, Platform, RunResult, StepOutcome, Trap,
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
/// step it once, and route its data access (if any) to a word-
/// interleaved bank that stalls the hart while busy. `forced` injects
/// `trap` on hart `h` the first time it reaches `pc`, as a
/// `force_trap_at_pc` fault plan does (the faulting grant costs nothing).
fn reference_schedule(
    harts: &mut [Machine],
    cfg: BankConfig,
    max_steps: u64,
    mut forced: Option<(usize, u32, Trap)>,
) -> ReferenceRun {
    let n = harts.len();
    for hart in harts.iter_mut() {
        hart.cpu.set_data_trace_enabled(true);
    }
    let mut hart_ready = vec![0u64; n];
    let mut bank_ready = vec![0u64; cfg.banks];
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
                let bank = cfg.bank_of(addr);
                let grant = hart_ready[h].max(bank_ready[bank]);
                let stall = grant - hart_ready[h];
                bank_ready[bank] = grant + cfg.service_cycles;
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
    let cfg = BankConfig::default8();
    let template = Machine::load(p, Platform::ibex()).expect("fits");
    let mut cluster = Cluster::replicate(&template, n, cfg);
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
    let want = reference_schedule(&mut reference, cfg, max_steps, forced);
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
        let mut cluster = Cluster::replicate(&template, 1, BankConfig::default8());
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
        let mut first = Cluster::replicate(&template, n, BankConfig::default8());
        let mut second = Cluster::replicate(&template, n, BankConfig::default8());
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
        let mut cluster = Cluster::replicate(&template, 4, BankConfig::default8());
        let run = cluster.run_all(10_000);
        for h in 0..4 {
            prop_assert_eq!(run.results[h], Ok(baseline));
        }
        prop_assert!(run.soc_cycles >= baseline.cycles);
    }
}

/// A contended case pinned outright: every hart hammers the same words,
/// so the reference must reproduce real stalls, not just idle banks.
#[test]
fn contended_cluster_matches_reference_arbiter() {
    let hammer = [6u8, 7, 8, 9, 6, 7]
        .iter()
        .enumerate()
        .map(|(i, &op)| RandInst {
            op,
            rd: i % 8,
            rs1: (i + 3) % 8,
            rs2: (i + 5) % 8,
            imm: 0x40,
        })
        .collect::<Vec<_>>();
    let p = assemble_loop(&hammer, 20);
    for n in 2..=4 {
        assert_cluster_matches_reference(&p, n, 1, 100_000, None);
    }
    let template = Machine::load(&p, Platform::ibex()).expect("fits");
    let mut cluster = Cluster::replicate(&template, 4, BankConfig::default8());
    let run = cluster.run_all(100_000);
    assert!(
        run.stats.iter().any(|s| s.stall_cycles > 0),
        "the hammer loop must contend"
    );
}
