//! Differential property tests: every RV32IM arithmetic instruction
//! executed on the simulator must match the host's reference semantics
//! on random operands, and the pre-decode execution cache must be
//! architecturally invisible — including under self-modifying code.
//!
//! Block dispatch is held to the same standard: `Machine::run` (which
//! runs straight-line blocks when no monitor is armed) must match a
//! hand-written `Cpu::step` loop exactly — cycles, instret, registers,
//! memory, pc, trap, profile report and decode-cache counters — over
//! random programs, traps mid-block, step budgets landing mid-block,
//! self-modifying stores and host writes.

use kwt_rv32::{Machine, Platform, RunResult, StepOutcome, Trap};
use kwt_rvasm::{Asm, CustomOp, Inst, PackedOp, Program, Reg};
use proptest::prelude::*;

/// `Machine::run` spelled out as one `Cpu::step` per instruction — the
/// oracle block dispatch is compared against.
fn step_loop(m: &mut Machine, max_steps: u64) -> Result<RunResult, Trap> {
    for _ in 0..max_steps {
        if m.cpu.step()? == StepOutcome::Halted {
            m.cpu.profiler.finish(m.cpu.cycles);
            return Ok(RunResult {
                cycles: m.cpu.cycles,
                instructions: m.cpu.instret,
                exit_code: m.cpu.reg(Reg::A0),
            });
        }
    }
    Err(Trap::OutOfFuel {
        executed: m.cpu.instret,
    })
}

/// Asserts two machines are in the same architectural and accounting
/// state: pc, registers, counters, all of RAM, the profile report and
/// the decode-cache hit/miss/invalidation counters.
fn assert_same_state(blocks: &Machine, steps: &Machine) {
    assert_eq!(blocks.cpu.pc, steps.cpu.pc, "pc");
    assert_eq!(blocks.cpu.regs, steps.cpu.regs, "registers");
    assert_eq!(blocks.cpu.cycles, steps.cpu.cycles, "cycles");
    assert_eq!(blocks.cpu.instret, steps.cpu.instret, "instret");
    let ram = |m: &Machine| {
        m.cpu
            .mem
            .read_bytes(m.cpu.mem.base(), m.cpu.mem.size() as usize)
            .to_vec()
    };
    assert!(ram(blocks) == ram(steps), "memory differs");
    assert_eq!(
        format!("{:?}", blocks.profile_report()),
        format!("{:?}", steps.profile_report()),
        "profile report"
    );
    let (b, s) = (
        blocks.cpu.decode_cache_stats(),
        steps.cpu.decode_cache_stats(),
    );
    assert_eq!(
        (b.hits, b.misses, b.invalidated),
        (s.hits, s.misses, s.invalidated),
        "decode-cache counters"
    );
}

/// Runs `p` through `Machine::run` and through the step loop with the
/// same budget, asserts identical outcomes and state, and returns the
/// block-dispatched machine with its result.
fn run_vs_step(p: &Program, max_steps: u64) -> (Machine, Result<RunResult, Trap>) {
    let mut blocks = Machine::load(p, Platform::ibex()).expect("fits");
    let mut steps = Machine::load(p, Platform::ibex()).expect("fits");
    let r = blocks.run(max_steps);
    assert_eq!(r, step_loop(&mut steps, max_steps), "run result");
    assert_same_state(&blocks, &steps);
    (blocks, r)
}

/// Builds a program whose first instruction (`site`, at text base 0) is
/// executed, then overwritten through `patch`, then executed again:
///
/// ```text
/// site:  addi a0, a0, 1        # patched between the two calls
///        ret
/// entry: li   a0, 0
///        jal  ra, site         # first call: caches `site`
///        <patch stores>        # overwrite site's instruction word
///        jal  ra, site         # second call: must see the new code
///        ebreak
/// ```
fn self_modifying_program(patch: impl FnOnce(&mut Asm)) -> kwt_rvasm::Program {
    let mut asm = Asm::new(0, 0x8000);
    let site = asm.new_label();
    asm.bind(site).unwrap();
    asm.emit(Inst::Addi {
        rd: Reg::A0,
        rs1: Reg::A0,
        imm: 1,
    });
    asm.ret();
    asm.here("entry");
    asm.li(Reg::A0, 0);
    asm.jal_to(Reg::Ra, site);
    patch(&mut asm);
    asm.jal_to(Reg::Ra, site);
    asm.emit(Inst::Ebreak);
    asm.finish().expect("assembles")
}

/// Runs a program twice — decode cache enabled and disabled — and checks
/// the architectural outcomes are identical before returning them.
fn run_both_ways(p: &kwt_rvasm::Program) -> kwt_rv32::RunResult {
    let mut cached = Machine::load(p, Platform::ibex()).expect("fits");
    let r_cached = cached.run(10_000).expect("halts");
    let mut uncached = Machine::load(p, Platform::ibex()).expect("fits");
    uncached.cpu.set_decode_cache_enabled(false);
    let r_uncached = uncached.run(10_000).expect("halts");
    assert_eq!(r_cached, r_uncached, "decode cache changed architecture");
    assert!(cached.cpu.decode_cache_stats().hits > 0, "cache never hit");
    assert_eq!(uncached.cpu.decode_cache_stats().hits, 0);
    r_cached
}

#[test]
fn smc_full_word_store_invalidates_cached_instruction() {
    // Overwrite `addi a0, a0, 1` (at address 0) with `addi a0, a0, 5`.
    let new_word = Inst::Addi {
        rd: Reg::A0,
        rs1: Reg::A0,
        imm: 5,
    }
    .encode();
    let p = self_modifying_program(|asm| {
        asm.li(Reg::T0, 0); // site address
        asm.li(Reg::T1, new_word as i32);
        asm.emit(Inst::Sw {
            rs2: Reg::T1,
            rs1: Reg::T0,
            imm: 0,
        });
    });
    let r = run_both_ways(&p);
    // First call adds 1, patched second call adds 5.
    assert_eq!(r.exit_code, 6, "stale decode cache after sw into code");
}

#[test]
fn smc_halfword_store_into_instruction_tail_invalidates() {
    // The imm[11:0] field of `addi` lives in the instruction's upper
    // halfword: storing at site+2 must invalidate the entry cached for the
    // instruction *starting* at site (the addr-2 overlap case).
    let new_word = Inst::Addi {
        rd: Reg::A0,
        rs1: Reg::A0,
        imm: 9,
    }
    .encode();
    let p = self_modifying_program(|asm| {
        asm.li(Reg::T0, 2); // upper halfword of the site instruction
        asm.li(Reg::T1, (new_word >> 16) as i32);
        asm.emit(Inst::Sh {
            rs2: Reg::T1,
            rs1: Reg::T0,
            imm: 0,
        });
    });
    let r = run_both_ways(&p);
    assert_eq!(r.exit_code, 10, "stale decode cache after sh into code");
}

#[test]
fn smc_byte_store_invalidates() {
    // Flip only the top imm byte: imm 1 -> imm 0x101 (byte 3 = 0x10).
    let new_word = Inst::Addi {
        rd: Reg::A0,
        rs1: Reg::A0,
        imm: 0x101,
    }
    .encode();
    let p = self_modifying_program(|asm| {
        asm.li(Reg::T0, 3);
        asm.li(Reg::T1, (new_word >> 24) as i32);
        asm.emit(Inst::Sb {
            rs2: Reg::T1,
            rs1: Reg::T0,
            imm: 0,
        });
    });
    let r = run_both_ways(&p);
    assert_eq!(
        r.exit_code,
        1 + 0x101,
        "stale decode cache after sb into code"
    );
}

#[test]
fn smc_store_next_to_code_leaves_cache_valid() {
    // Stores that do not overlap the 8-byte site block (addi at 0, ret at
    // 4) must leave its cached entries intact and not disturb execution:
    // one store immediately after the block (byte 8 — the adjacent
    // boundary), one far away. Overwriting byte 8 is safe: the `li`
    // there has already retired and is never re-executed.
    for addr in [8i32, 0x4000] {
        let nop = Inst::Addi {
            rd: Reg::Zero,
            rs1: Reg::Zero,
            imm: 0,
        }
        .encode();
        let p = self_modifying_program(|asm| {
            asm.li(Reg::T0, addr);
            asm.li(Reg::T1, nop as i32);
            asm.emit(Inst::Sw {
                rs2: Reg::T1,
                rs1: Reg::T0,
                imm: 0,
            });
        });
        let r = run_both_ways(&p);
        assert_eq!(r.exit_code, 2, "store at {addr:#x} disturbed the site");
    }
}

#[test]
fn host_typed_writes_invalidate_code() {
    // Patch the site through the Machine's typed writer between runs of
    // the same loaded Machine: the second run must see the new code.
    let mut asm = Asm::new(0, 0x8000);
    asm.here("entry");
    asm.emit(Inst::Addi {
        rd: Reg::A0,
        rs1: Reg::Zero,
        imm: 7,
    });
    asm.emit(Inst::Ebreak);
    let p = asm.finish().expect("assembles");
    let mut m = Machine::load(&p, Platform::ibex()).expect("fits");
    assert_eq!(m.run(100).expect("halts").exit_code, 7);
    // Overwrite with `addi a0, zero, 42` via write_i16s (host side).
    let w = Inst::Addi {
        rd: Reg::A0,
        rs1: Reg::Zero,
        imm: 42,
    }
    .encode();
    m.write_i16s(0, &[(w & 0xFFFF) as i16, (w >> 16) as i16]);
    m.cpu.pc = 0;
    assert_eq!(
        m.run(100).expect("halts").exit_code,
        42,
        "stale cache after host write"
    );
}

#[test]
fn decode_cache_does_not_change_cycle_accounting() {
    // Mixed-class loop (alu, mul, div, load, store, branches): cycles and
    // instret must be bit-identical with the cache on and off.
    let mut asm = Asm::new(0, 0x8000);
    asm.here("entry");
    asm.li(Reg::T0, 50);
    asm.li(Reg::A0, 0);
    let top = asm.new_label();
    asm.bind(top).unwrap();
    asm.emit(Inst::Mul {
        rd: Reg::A1,
        rs1: Reg::T0,
        rs2: Reg::T0,
    });
    asm.emit(Inst::Div {
        rd: Reg::A2,
        rs1: Reg::A1,
        rs2: Reg::T0,
    });
    asm.emit(Inst::Sw {
        rs2: Reg::A2,
        rs1: Reg::Sp,
        imm: -8,
    });
    asm.emit(Inst::Lw {
        rd: Reg::A3,
        rs1: Reg::Sp,
        imm: -8,
    });
    asm.emit(Inst::Add {
        rd: Reg::A0,
        rs1: Reg::A0,
        rs2: Reg::A3,
    });
    asm.emit(Inst::Addi {
        rd: Reg::T0,
        rs1: Reg::T0,
        imm: -1,
    });
    asm.branch_to(
        Inst::Bne {
            rs1: Reg::T0,
            rs2: Reg::Zero,
            offset: 0,
        },
        top,
    );
    asm.emit(Inst::Ebreak);
    let p = asm.finish().expect("assembles");
    let r = run_both_ways(&p);
    assert_eq!(r.exit_code, (1..=50u32).sum::<u32>());
}

#[test]
fn smc_store_over_packed_instruction_invalidates() {
    // The site executes `kdot4.i8 a0, t2, t3` (t2/t3 zero -> a0 += 0);
    // patching it to `addi a0, a0, 5` must be observed by the cache.
    let mut asm = Asm::new(0, 0x8000);
    let site = asm.new_label();
    asm.bind(site).unwrap();
    asm.emit(Inst::Packed {
        op: PackedOp::Kdot4I8,
        rd: Reg::A0,
        rs1: Reg::T2,
        rs2: Reg::T3,
    });
    asm.ret();
    asm.here("entry");
    asm.li(Reg::A0, 1);
    asm.jal_to(Reg::Ra, site); // caches the kdot4 (a0 unchanged)
    let new_word = Inst::Addi {
        rd: Reg::A0,
        rs1: Reg::A0,
        imm: 5,
    }
    .encode();
    asm.li(Reg::T0, 0);
    asm.li(Reg::T1, new_word as i32);
    asm.emit(Inst::Sw {
        rs2: Reg::T1,
        rs1: Reg::T0,
        imm: 0,
    });
    asm.jal_to(Reg::Ra, site); // must see the addi now
    asm.emit(Inst::Ebreak);
    let p = asm.finish().expect("assembles");
    let r = run_both_ways(&p);
    assert_eq!(r.exit_code, 6, "stale decode cache over a custom-2 op");
}

#[test]
fn packed_cycle_accounting_identical_with_cache_on_and_off() {
    // A loop mixing every custom-2 op with a plain load: cycles/instret
    // must not depend on the decode cache.
    let mut asm = Asm::new(0, 0x8000);
    asm.here("entry");
    asm.li(Reg::T0, 20);
    asm.li(Reg::A0, 0);
    asm.li(Reg::T3, 0x00020003);
    asm.li(Reg::T4, 0x00050007u32 as i32);
    let top = asm.new_label();
    asm.bind(top).unwrap();
    asm.emit(Inst::Packed {
        op: PackedOp::Kdot4I8,
        rd: Reg::A0,
        rs1: Reg::T3,
        rs2: Reg::T4,
    });
    asm.emit(Inst::Packed {
        op: PackedOp::KsatI16,
        rd: Reg::A1,
        rs1: Reg::A0,
        rs2: Reg::Zero,
    });
    asm.li(Reg::T5, 15);
    asm.emit(Inst::Packed {
        op: PackedOp::Kclip,
        rd: Reg::A2,
        rs1: Reg::A0,
        rs2: Reg::T5,
    });
    asm.emit(Inst::Lw {
        rd: Reg::A3,
        rs1: Reg::Sp,
        imm: -4,
    });
    asm.emit(Inst::Packed {
        op: PackedOp::KcvtH2F,
        rd: Reg::A4,
        rs1: Reg::A1,
        rs2: Reg::T5,
    });
    asm.emit(Inst::Packed {
        op: PackedOp::KcvtF2H,
        rd: Reg::A5,
        rs1: Reg::A4,
        rs2: Reg::T5,
    });
    for op in [PackedOp::KfaddT, PackedOp::KfsubT, PackedOp::KfmulT] {
        asm.emit(Inst::Packed {
            op,
            rd: Reg::A6,
            rs1: Reg::A4,
            rs2: Reg::A6,
        });
    }
    asm.emit(Inst::Addi {
        rd: Reg::T0,
        rs1: Reg::T0,
        imm: -1,
    });
    asm.branch_to(
        Inst::Bne {
            rs1: Reg::T0,
            rs2: Reg::Zero,
            offset: 0,
        },
        top,
    );
    asm.emit(Inst::Ebreak);
    let p = asm.finish().expect("assembles");
    let r = run_both_ways(&p);
    // the exact counts are asserted equal across cache modes by
    // run_both_ways; sanity-check they are non-trivial.
    assert!(r.cycles > 100);
}

/// Runs `op(t0, t1)` on the simulator and returns `a0`.
fn run_rr(build: impl Fn(Reg, Reg, Reg) -> Inst, a: u32, b: u32) -> u32 {
    let mut asm = Asm::new(0, 0x8000);
    asm.here("entry");
    asm.li(Reg::T0, a as i32);
    asm.li(Reg::T1, b as i32);
    asm.emit(build(Reg::A0, Reg::T0, Reg::T1));
    asm.emit(Inst::Ebreak);
    let p = asm.finish().expect("assembles");
    let mut m = Machine::load(&p, Platform::ibex()).expect("fits");
    m.run(100).expect("halts").exit_code
}

macro_rules! rr {
    ($name:ident) => {
        |rd, rs1, rs2| Inst::$name { rd, rs1, rs2 }
    };
}

/// Runs a packed op with a pre-loaded accumulator and returns `a0`.
fn run_packed(op: PackedOp, acc: u32, a: u32, b: u32) -> u32 {
    let mut asm = Asm::new(0, 0x8000);
    asm.here("entry");
    asm.li(Reg::A0, acc as i32);
    asm.li(Reg::T0, a as i32);
    asm.li(Reg::T1, b as i32);
    asm.emit(Inst::Packed {
        op,
        rd: Reg::A0,
        rs1: Reg::T0,
        rs2: Reg::T1,
    });
    asm.emit(Inst::Ebreak);
    let p = asm.finish().expect("assembles");
    let mut m = Machine::load(&p, Platform::ibex()).expect("fits");
    m.run(100).expect("halts").exit_code
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn add_sub_match_wrapping(a in any::<u32>(), b in any::<u32>()) {
        prop_assert_eq!(run_rr(rr!(Add), a, b), a.wrapping_add(b));
        prop_assert_eq!(run_rr(rr!(Sub), a, b), a.wrapping_sub(b));
    }

    #[test]
    fn logic_ops_match(a in any::<u32>(), b in any::<u32>()) {
        prop_assert_eq!(run_rr(rr!(Xor), a, b), a ^ b);
        prop_assert_eq!(run_rr(rr!(Or), a, b), a | b);
        prop_assert_eq!(run_rr(rr!(And), a, b), a & b);
    }

    #[test]
    fn shifts_use_low_five_bits(a in any::<u32>(), b in any::<u32>()) {
        let sh = b & 31;
        prop_assert_eq!(run_rr(rr!(Sll), a, b), a << sh);
        prop_assert_eq!(run_rr(rr!(Srl), a, b), a >> sh);
        prop_assert_eq!(run_rr(rr!(Sra), a, b), ((a as i32) >> sh) as u32);
    }

    #[test]
    fn compares_match(a in any::<u32>(), b in any::<u32>()) {
        prop_assert_eq!(run_rr(rr!(Slt), a, b), ((a as i32) < (b as i32)) as u32);
        prop_assert_eq!(run_rr(rr!(Sltu), a, b), (a < b) as u32);
    }

    #[test]
    fn multiplies_match(a in any::<u32>(), b in any::<u32>()) {
        prop_assert_eq!(run_rr(rr!(Mul), a, b), a.wrapping_mul(b));
        let mulh = ((a as i32 as i64).wrapping_mul(b as i32 as i64) >> 32) as u32;
        prop_assert_eq!(run_rr(rr!(Mulh), a, b), mulh);
        let mulhu = ((a as u64 * b as u64) >> 32) as u32;
        prop_assert_eq!(run_rr(rr!(Mulhu), a, b), mulhu);
        let mulhsu = (((a as i32 as i64) * (b as u64 as i64)) >> 32) as u32;
        prop_assert_eq!(run_rr(rr!(Mulhsu), a, b), mulhsu);
    }

    #[test]
    fn divisions_match_riscv_spec(a in any::<u32>(), b in any::<u32>()) {
        let (ai, bi) = (a as i32, b as i32);
        let div = if bi == 0 { -1 } else if ai == i32::MIN && bi == -1 { i32::MIN } else { ai.wrapping_div(bi) };
        let rem = if bi == 0 { ai } else if ai == i32::MIN && bi == -1 { 0 } else { ai.wrapping_rem(bi) };
        prop_assert_eq!(run_rr(rr!(Div), a, b), div as u32);
        prop_assert_eq!(run_rr(rr!(Rem), a, b), rem as u32);
        let divu = a.checked_div(b).unwrap_or(u32::MAX);
        let remu = if b == 0 { a } else { a % b };
        prop_assert_eq!(run_rr(rr!(Divu), a, b), divu);
        prop_assert_eq!(run_rr(rr!(Remu), a, b), remu);
    }

    #[test]
    fn kdot4_i8_matches_host_reference(acc in any::<u32>(), a in any::<u32>(), b in any::<u32>()) {
        let mut want = acc;
        for lane in 0..4 {
            let x = (a >> (8 * lane)) as i8 as i32;
            let y = (b >> (8 * lane)) as i8 as i32;
            want = want.wrapping_add(x.wrapping_mul(y) as u32);
        }
        prop_assert_eq!(run_packed(PackedOp::Kdot4I8, acc, a, b), want);
    }

    #[test]
    fn ksat_matches_shift_then_clamp(a in any::<u32>(), sh in 0u32..32) {
        let want = ((a as i32) >> sh).clamp(-32768, 32767) as u32;
        prop_assert_eq!(run_packed(PackedOp::KsatI16, 0, a, sh), want);
    }

    #[test]
    fn kclip_matches_reference(a in any::<u32>(), n in 0u32..32) {
        let lo = -(1i64 << n);
        let hi = (1i64 << n) - 1;
        let want = (a as i32 as i64).clamp(lo, hi) as i32 as u32;
        prop_assert_eq!(run_packed(PackedOp::Kclip, 0, a, n), want);
    }

    #[test]
    fn kcvt_h2f_is_exact_for_all_i16(h in any::<i16>(), s in 0u32..16) {
        let got = run_packed(PackedOp::KcvtH2F, 0, h as u16 as u32, s);
        let want = (h as f32 / (1u64 << s) as f32).to_bits();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn kcvt_f2h_matches_floor_saturate(x in -1.0e5f32..1.0e5, s in 0u32..16) {
        let got = run_packed(PackedOp::KcvtF2H, 0, x.to_bits(), s);
        let want = ((x as f64) * (1u64 << s) as f64)
            .floor()
            .clamp(-32768.0, 32767.0) as i32 as u32;
        prop_assert_eq!(got, want, "x = {}, s = {}", x, s);
    }

    #[test]
    fn load_store_round_trip_any_value(v in any::<u32>(), off in 0u32..64) {
        let addr = 0x9000 + off * 4;
        let mut asm = Asm::new(0, 0x8000);
        asm.here("entry");
        asm.li(Reg::T0, addr as i32);
        asm.li(Reg::T1, v as i32);
        asm.emit(Inst::Sw { rs2: Reg::T1, rs1: Reg::T0, imm: 0 });
        asm.emit(Inst::Lw { rd: Reg::A0, rs1: Reg::T0, imm: 0 });
        asm.emit(Inst::Ebreak);
        let p = asm.finish().expect("assembles");
        let mut m = Machine::load(&p, Platform::ibex()).expect("fits");
        prop_assert_eq!(m.run(100).expect("halts").exit_code, v);
    }

    #[test]
    fn immediates_match(a in any::<u32>(), imm in -2048i32..=2047) {
        let run_imm = |build: &dyn Fn(Reg, Reg, i32) -> Inst| -> u32 {
            let mut asm = Asm::new(0, 0x8000);
            asm.here("entry");
            asm.li(Reg::T0, a as i32);
            asm.emit(build(Reg::A0, Reg::T0, imm));
            asm.emit(Inst::Ebreak);
            let p = asm.finish().expect("assembles");
            Machine::load(&p, Platform::ibex())
                .expect("fits")
                .run(100)
                .expect("halts")
                .exit_code
        };
        prop_assert_eq!(
            run_imm(&|rd, rs1, imm| Inst::Addi { rd, rs1, imm }),
            a.wrapping_add(imm as u32)
        );
        prop_assert_eq!(
            run_imm(&|rd, rs1, imm| Inst::Xori { rd, rs1, imm }),
            a ^ (imm as u32)
        );
        prop_assert_eq!(
            run_imm(&|rd, rs1, imm| Inst::Andi { rd, rs1, imm }),
            a & (imm as u32)
        );
    }
}

/// A 6-instruction subroutine whose 3rd instruction loads through `t5`,
/// called once with a good pointer (decoding and caching it), then with
/// a misaligned one — the second call runs as a block and faults
/// mid-block.
#[test]
fn trap_on_third_instruction_of_a_six_instruction_block() {
    let mut asm = Asm::new(0, 0x8000);
    let blk = asm.new_label();
    asm.bind(blk).unwrap();
    let blk_pc = asm.pc();
    asm.emit(Inst::Addi {
        rd: Reg::A0,
        rs1: Reg::A0,
        imm: 1,
    });
    asm.emit(Inst::Mul {
        rd: Reg::A1,
        rs1: Reg::A0,
        rs2: Reg::A0,
    });
    asm.emit(Inst::Lw {
        rd: Reg::A2,
        rs1: Reg::T5,
        imm: 0,
    });
    asm.emit(Inst::Addi {
        rd: Reg::A3,
        rs1: Reg::A2,
        imm: 7,
    });
    asm.emit(Inst::Xor {
        rd: Reg::A4,
        rs1: Reg::A3,
        rs2: Reg::A1,
    });
    asm.ret();
    asm.here("entry");
    asm.li(Reg::T5, 0x9000);
    asm.jal_to(Reg::Ra, blk);
    asm.li(Reg::T5, 0x9002);
    asm.jal_to(Reg::Ra, blk);
    asm.emit(Inst::Ebreak);
    let p = asm.finish().expect("assembles");
    let (m, r) = run_vs_step(&p, 1_000);
    assert_eq!(
        r,
        Err(Trap::MisalignedAccess {
            addr: 0x9002,
            size: 4,
            pc: blk_pc + 8,
        })
    );
    assert_eq!(m.cpu.pc, blk_pc + 8, "left at the faulting load");
    assert!(
        m.cpu.decode_cache_stats().blocks_built > 0,
        "the fault hit a block"
    );
}

/// A counted loop: `t0` iterations of an 8-instruction body.
fn counted_loop(iters: i32) -> Program {
    let mut asm = Asm::new(0, 0x8000);
    asm.here("entry");
    asm.li(Reg::T0, iters);
    asm.li(Reg::T5, 0x9000);
    let top = asm.new_label();
    asm.bind(top).unwrap();
    for imm in 1..=3 {
        asm.emit(Inst::Addi {
            rd: Reg::A0,
            rs1: Reg::A0,
            imm,
        });
    }
    asm.emit(Inst::Lw {
        rd: Reg::A1,
        rs1: Reg::T5,
        imm: 0,
    });
    asm.emit(Inst::Add {
        rd: Reg::A1,
        rs1: Reg::A1,
        rs2: Reg::A0,
    });
    asm.emit(Inst::Sw {
        rs2: Reg::A1,
        rs1: Reg::T5,
        imm: 0,
    });
    asm.emit(Inst::Addi {
        rd: Reg::T0,
        rs1: Reg::T0,
        imm: -1,
    });
    asm.branch_to(
        Inst::Bne {
            rs1: Reg::T0,
            rs2: Reg::Zero,
            offset: 0,
        },
        top,
    );
    asm.emit(Inst::Ebreak);
    asm.finish().expect("assembles")
}

/// Every step budget from 1 up to past the halt: `OutOfFuel` (and the
/// state it leaves) must be exact wherever the budget lands, mid-block
/// included, and a resumed run must finish identically.
#[test]
fn max_steps_landing_mid_block_is_exact() {
    let p = counted_loop(6);
    let (_, full) = run_vs_step(&p, 10_000);
    let total = full.expect("halts").instructions;
    for budget in 1..=total + 2 {
        let mut blocks = Machine::load(&p, Platform::ibex()).expect("fits");
        let mut steps = Machine::load(&p, Platform::ibex()).expect("fits");
        let r = blocks.run(budget);
        assert_eq!(r, step_loop(&mut steps, budget), "budget {budget}");
        if budget < total {
            assert_eq!(r, Err(Trap::OutOfFuel { executed: budget }));
        }
        assert_same_state(&blocks, &steps);
        // resume from wherever the budget stopped
        assert_eq!(blocks.run(10_000), step_loop(&mut steps, 10_000));
        assert_same_state(&blocks, &steps);
    }
}

/// A store patching the instruction right after it, after that
/// instruction already sits in a built block: the block is dropped and
/// the new code is seen, exactly as under `step`.
///
/// ```text
///        li   t0, 4              # passes
/// top:   addi a0, a0, 1
///        bne  t0, t2, y          # t2 = 2: patch on the third pass only
///        sw   t1, 0(t3)          # t3 = &y, t1 = `addi a0, a0, 100`
/// y:     addi a1, a1, 1          # the patched instruction
///        addi t0, t0, -1
///        bne  t0, zero, top
/// ```
#[test]
fn store_patching_the_next_instruction_is_seen() {
    let patched = Inst::Addi {
        rd: Reg::A0,
        rs1: Reg::A0,
        imm: 100,
    }
    .encode();
    let mut asm = Asm::new(0, 0x8000);
    asm.here("entry");
    asm.li(Reg::T0, 4);
    asm.li(Reg::T1, patched as i32);
    asm.li(Reg::T2, 2);
    let y = asm.new_label();
    let top = asm.new_label();
    // `y` sits 12 bytes past `top` (addi, bne, sw)
    let y_addr = asm.pc() + 4 + 12;
    asm.li(Reg::T3, y_addr as i32);
    assert_eq!(asm.pc(), y_addr - 12, "li t3 must be one instruction");
    asm.bind(top).unwrap();
    asm.emit(Inst::Addi {
        rd: Reg::A0,
        rs1: Reg::A0,
        imm: 1,
    });
    asm.branch_to(
        Inst::Bne {
            rs1: Reg::T0,
            rs2: Reg::T2,
            offset: 0,
        },
        y,
    );
    asm.emit(Inst::Sw {
        rs2: Reg::T1,
        rs1: Reg::T3,
        imm: 0,
    });
    asm.bind(y).unwrap();
    asm.emit(Inst::Addi {
        rd: Reg::A1,
        rs1: Reg::A1,
        imm: 1,
    });
    asm.emit(Inst::Addi {
        rd: Reg::T0,
        rs1: Reg::T0,
        imm: -1,
    });
    asm.branch_to(
        Inst::Bne {
            rs1: Reg::T0,
            rs2: Reg::Zero,
            offset: 0,
        },
        top,
    );
    asm.emit(Inst::Ebreak);
    let p = asm.finish().expect("assembles");
    let (m, r) = run_vs_step(&p, 10_000);
    r.expect("halts");
    // `y` adds 1 to a1 on the first two passes and 100 to a0 on the last two
    assert_eq!(m.cpu.reg(Reg::A0), 4 + 2 * 100);
    assert_eq!(m.cpu.reg(Reg::A1), 2);
    let stats = m.cpu.decode_cache_stats();
    assert!(
        stats.blocks_dropped > 0,
        "the store dropped the block at y: {stats:?}"
    );
}

/// A host write into code between runs of the same machine drops the
/// overlapping block; both dispatch paths see the new code.
#[test]
fn host_write_into_code_between_runs_drops_blocks() {
    let p = counted_loop(5);
    let mut blocks = Machine::load(&p, Platform::ibex()).expect("fits");
    let mut steps = Machine::load(&p, Platform::ibex()).expect("fits");
    for m in [&mut blocks, &mut steps] {
        m.cpu.pc = p.symbol("entry").expect("entry");
    }
    assert_eq!(blocks.run(10_000), step_loop(&mut steps, 10_000));
    let loop_body = p.symbol("entry").expect("entry") + 16;
    let word = Inst::Addi {
        rd: Reg::A0,
        rs1: Reg::A0,
        imm: 40,
    }
    .encode() as i32;
    let built = blocks.cpu.decode_cache_stats().blocks_built;
    for m in [&mut blocks, &mut steps] {
        m.write_i32s(loop_body, &[word]);
        m.reset_cpu();
    }
    assert!(
        blocks.cpu.decode_cache_stats().blocks_dropped > 0,
        "write overlapped a block"
    );
    let r = blocks.run(10_000);
    assert_eq!(r, step_loop(&mut steps, 10_000));
    assert_same_state(&blocks, &steps);
    assert!(
        blocks.cpu.decode_cache_stats().blocks_built > built,
        "rebuilt over new code"
    );
}

/// Writes to data (the input-mailbox pattern: a host write before every
/// inference) must leave every block cached.
#[test]
fn mailbox_write_leaves_blocks_cached() {
    let p = counted_loop(5);
    let mut m = Machine::load(&p, Platform::ibex()).expect("fits");
    m.run(10_000).expect("halts");
    m.reset_cpu();
    m.run(10_000).expect("halts");
    let warm = m.cpu.decode_cache_stats();
    assert!(warm.blocks_built > 0);
    for round in 0..3 {
        m.write_i8s(0x9000, &[round; 64]);
        m.reset_cpu();
        m.run(10_000).expect("halts");
    }
    let after = m.cpu.decode_cache_stats();
    assert_eq!(after.blocks_built, warm.blocks_built, "no block rebuilt");
    assert_eq!(after.blocks_dropped, 0, "no block dropped");
    assert_eq!(after.misses, warm.misses, "no instruction re-decoded");
}

/// Turning the decode cache off turns blocks off too.
#[test]
fn disabled_decode_cache_builds_no_blocks() {
    let p = counted_loop(5);
    let mut m = Machine::load(&p, Platform::ibex()).expect("fits");
    m.cpu.set_decode_cache_enabled(false);
    let mut steps = Machine::load(&p, Platform::ibex()).expect("fits");
    assert_eq!(m.run(10_000), step_loop(&mut steps, 10_000));
    assert_eq!(m.cpu.decode_cache_stats().blocks_built, 0);
}

/// Register pool of the random block programs (no sp/ra/zero and none
/// of the harness registers t4/t5/t6).
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

/// One random instruction of a block program.
#[derive(Debug, Clone)]
struct RandOp {
    kind: u8,
    rd: usize,
    rs1: usize,
    rs2: usize,
    imm: i16,
}

fn rand_op() -> impl Strategy<Value = RandOp> {
    (0u8..64, 0usize..8, 0usize..8, 0usize..8, any::<i16>()).prop_map(
        |(kind, rd, rs1, rs2, imm)| RandOp {
            kind,
            rd,
            rs1,
            rs2,
            imm,
        },
    )
}

/// Assembles a random loop program: `t4` passes over the random body
/// (so blocks are built and reused), loads/stores into the scratch
/// window at `t5`, LUT ops, profiler pushes/pops, cycle/instret CSR
/// reads, forward branches and packed ops. Kind 63 is a load that may
/// be misaligned, so some programs trap mid-block.
fn block_program(ops: &[RandOp], passes: i32) -> Program {
    let mut asm = Asm::new(0, 0x8000);
    asm.here("entry");
    asm.li(Reg::T4, passes);
    asm.li(Reg::T5, 0x9000);
    let top = asm.new_label();
    asm.bind(top).unwrap();
    for o in ops {
        let (rd, rs1, rs2) = (POOL[o.rd], POOL[o.rs1], POOL[o.rs2]);
        let imm = o.imm as i32;
        let word = imm & 0x3FC;
        match o.kind {
            0 => asm.emit(Inst::Add { rd, rs1, rs2 }),
            1 => asm.emit(Inst::Sub { rd, rs1, rs2 }),
            2 => asm.emit(Inst::Xor { rd, rs1, rs2 }),
            3 => asm.emit(Inst::Sltu { rd, rs1, rs2 }),
            4 => asm.emit(Inst::Slli {
                rd,
                rs1,
                shamt: (imm & 31) as u32,
            }),
            5 => asm.emit(Inst::Srai {
                rd,
                rs1,
                shamt: (imm & 31) as u32,
            }),
            6 => asm.emit(Inst::Mul { rd, rs1, rs2 }),
            7 => asm.emit(Inst::Div { rd, rs1, rs2 }),
            8 => asm.emit(Inst::Remu { rd, rs1, rs2 }),
            9 | 10 => asm.emit(Inst::Lw {
                rd,
                rs1: Reg::T5,
                imm: word,
            }),
            11 => asm.emit(Inst::Lb {
                rd,
                rs1: Reg::T5,
                imm: imm & 0x3FF,
            }),
            12 => asm.emit(Inst::Lhu {
                rd,
                rs1: Reg::T5,
                imm: imm & 0x3FE,
            }),
            13 | 14 => asm.emit(Inst::Sw {
                rs2: rs1,
                rs1: Reg::T5,
                imm: word,
            }),
            15 => asm.emit(Inst::Sb {
                rs2: rs1,
                rs1: Reg::T5,
                imm: imm & 0x3FF,
            }),
            16 => asm.emit(Inst::Sh {
                rs2: rs1,
                rs1: Reg::T5,
                imm: imm & 0x3FE,
            }),
            17 => asm.emit(Inst::Custom {
                op: [
                    CustomOp::Exp,
                    CustomOp::Invert,
                    CustomOp::Gelu,
                    CustomOp::ToFixed,
                    CustomOp::ToFloat,
                ][(o.imm as u16 % 5) as usize],
                rd,
                rs1,
                rs2: Reg::Zero,
            }),
            18 => {
                asm.li(Reg::T6, (o.imm as u16 % 4) as i32);
                asm.emit(Inst::Csrrw {
                    rd: Reg::Zero,
                    rs1: Reg::T6,
                    csr: kwt_rvasm::CSR_PROFILE_PUSH,
                });
            }
            19 => asm.emit(Inst::Csrrw {
                rd: Reg::Zero,
                rs1: Reg::Zero,
                csr: kwt_rvasm::CSR_PROFILE_POP,
            }),
            20 => asm.emit(Inst::Csrrs {
                rd,
                rs1: Reg::Zero,
                csr: 0xB00, // mcycle
            }),
            21 => asm.emit(Inst::Csrrs {
                rd,
                rs1: Reg::Zero,
                csr: 0xB02, // minstret
            }),
            22 | 23 => {
                // forward branch over one instruction
                let skip = asm.new_label();
                let template = if o.kind == 22 {
                    Inst::Beq {
                        rs1,
                        rs2,
                        offset: 0,
                    }
                } else {
                    Inst::Bltu {
                        rs1,
                        rs2,
                        offset: 0,
                    }
                };
                asm.branch_to(template, skip);
                asm.emit(Inst::Addi { rd, rs1, imm: 1 });
                asm.bind(skip).unwrap();
            }
            24 => asm.emit(Inst::Packed {
                op: PackedOp::Kdot4I8,
                rd,
                rs1,
                rs2,
            }),
            25 => asm.emit(Inst::Packed {
                op: PackedOp::KsatI16,
                rd,
                rs1,
                rs2,
            }),
            26 => asm.emit(Inst::Packed {
                op: PackedOp::KfmulT,
                rd,
                rs1,
                rs2,
            }),
            27 => asm.emit(Inst::Lui { rd, imm: imm << 12 }),
            28 => asm.emit(Inst::Auipc { rd, imm: imm << 12 }),
            63 => asm.emit(Inst::Lw {
                rd,
                rs1: Reg::T5,
                imm: imm & 0x3FF,
            }),
            _ => asm.emit(Inst::Addi {
                rd,
                rs1,
                imm: imm >> 4,
            }),
        }
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
    asm.finish().expect("random program assembles")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Block dispatch ≡ the step loop over random programs, run to the
    /// end and with a random step budget (then resumed).
    #[test]
    fn blocks_match_step_loop_on_random_programs(
        ops in proptest::collection::vec(rand_op(), 1..48),
        passes in 1i32..5,
        budget in 1u64..600,
    ) {
        let p = block_program(&ops, passes);
        let (m, r) = run_vs_step(&p, 100_000);
        if passes > 1 && r.is_ok() {
            prop_assert!(m.cpu.decode_cache_stats().blocks_built > 0, "loop ran without blocks");
        }
        let mut blocks = Machine::load(&p, Platform::ibex()).expect("fits");
        let mut steps = Machine::load(&p, Platform::ibex()).expect("fits");
        prop_assert_eq!(blocks.run(budget), step_loop(&mut steps, budget));
        assert_same_state(&blocks, &steps);
        prop_assert_eq!(blocks.run(100_000), step_loop(&mut steps, 100_000));
        assert_same_state(&blocks, &steps);
    }
}
