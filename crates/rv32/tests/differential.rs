//! Differential property tests: every RV32IM arithmetic instruction
//! executed on the simulator must match the host's reference semantics
//! on random operands, and the pre-decode execution cache must be
//! architecturally invisible — including under self-modifying code.

use kwt_rv32::{Machine, Platform};
use kwt_rvasm::{Asm, Inst, PackedOp, Reg};
use proptest::prelude::*;

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
