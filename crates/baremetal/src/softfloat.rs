//! IEEE-754 single-precision arithmetic in RV32 integer assembly.
//!
//! These routines are the generated-code analogue of GCC's `__addsf3`
//! soft-float support library, which a `-march=rv32imc` build links in on
//! the FPU-less Ibex. Semantics:
//!
//! * round-toward-zero (truncation) instead of round-to-nearest-even
//! * denormal inputs and underflowing results flush to signed zero
//! * infinities propagate; NaNs are treated like infinities
//!
//! Calling convention: arguments in `a0`/`a1`, result in `a0`; only
//! `t0`–`t6` and `a0`–`a2` are clobbered (leaf routines, no stack use).
//!
//! Each routine's entry label is exposed through [`SoftFloat`] so kernels
//! can `call` them.

use kwt_rvasm::{Asm, Inst, Label, Reg};

use Reg::{Zero, A0, A1, A2, T0, T1, T2, T3, T4, T5, T6};

/// Entry labels of the emitted soft-float library.
#[derive(Debug, Clone, Copy)]
pub struct SoftFloat {
    /// `f32 add(a0, a1)`.
    pub add: Label,
    /// `f32 sub(a0, a1)` (negates `a1`, falls into `add`).
    pub sub: Label,
    /// `f32 mul(a0, a1)`.
    pub mul: Label,
    /// `f32 div(a0, a1)` (25-step restoring division, ~200 cycles — the
    /// cost the paper's `ALU_INVERT` LUT removes).
    pub div: Label,
    /// `f32 i2f(i32 a0)`.
    pub i2f: Label,
    /// `i32 f2i_floor(f32 a0)` — floor semantics matching the host
    /// quantiser, saturating to `i32` bounds.
    pub f2i_floor: Label,
    /// `(a0 < a1) as u32` in total float order.
    pub lt: Label,
}

/// Shorthand branch emitters.
fn beq(asm: &mut Asm, rs1: Reg, rs2: Reg, l: Label) {
    asm.branch_to(
        Inst::Beq {
            rs1,
            rs2,
            offset: 0,
        },
        l,
    );
}
fn bne(asm: &mut Asm, rs1: Reg, rs2: Reg, l: Label) {
    asm.branch_to(
        Inst::Bne {
            rs1,
            rs2,
            offset: 0,
        },
        l,
    );
}
fn blt(asm: &mut Asm, rs1: Reg, rs2: Reg, l: Label) {
    asm.branch_to(
        Inst::Blt {
            rs1,
            rs2,
            offset: 0,
        },
        l,
    );
}
fn bge(asm: &mut Asm, rs1: Reg, rs2: Reg, l: Label) {
    asm.branch_to(
        Inst::Bge {
            rs1,
            rs2,
            offset: 0,
        },
        l,
    );
}
fn bltu(asm: &mut Asm, rs1: Reg, rs2: Reg, l: Label) {
    asm.branch_to(
        Inst::Bltu {
            rs1,
            rs2,
            offset: 0,
        },
        l,
    );
}
fn bgeu(asm: &mut Asm, rs1: Reg, rs2: Reg, l: Label) {
    asm.branch_to(
        Inst::Bgeu {
            rs1,
            rs2,
            offset: 0,
        },
        l,
    );
}
fn beqz(asm: &mut Asm, rs: Reg, l: Label) {
    beq(asm, rs, Zero, l);
}
fn bnez(asm: &mut Asm, rs: Reg, l: Label) {
    bne(asm, rs, Zero, l);
}
fn bltz(asm: &mut Asm, rs: Reg, l: Label) {
    blt(asm, rs, Zero, l);
}
fn bgez(asm: &mut Asm, rs: Reg, l: Label) {
    bge(asm, rs, Zero, l);
}
fn blez(asm: &mut Asm, rs: Reg, l: Label) {
    bge(asm, Zero, rs, l);
}

/// `rd = rs & 0x007F_FFFF` (mantissa mask) via shift pair.
fn mask_mantissa(asm: &mut Asm, rd: Reg, rs: Reg) {
    asm.emit(Inst::Slli {
        rd,
        rs1: rs,
        shamt: 9,
    });
    asm.emit(Inst::Srli {
        rd,
        rs1: rd,
        shamt: 9,
    });
}

/// `rd = sign bit of rs` (isolated in bit 31).
fn sign_of(asm: &mut Asm, rd: Reg, rs: Reg) {
    asm.emit(Inst::Srli {
        rd,
        rs1: rs,
        shamt: 31,
    });
    asm.emit(Inst::Slli {
        rd,
        rs1: rd,
        shamt: 31,
    });
}

impl SoftFloat {
    /// Emits the whole library into `asm`, returning the entry labels.
    pub fn emit(asm: &mut Asm) -> SoftFloat {
        let add = emit_add(asm);
        let sub = emit_sub(asm, add);
        let mul = emit_mul(asm);
        let div = emit_div(asm);
        let i2f = emit_i2f(asm);
        let f2i_floor = emit_f2i_floor(asm);
        let lt = emit_lt(asm);
        SoftFloat {
            add,
            sub,
            mul,
            div,
            i2f,
            f2i_floor,
            lt,
        }
    }
}

fn emit_add(asm: &mut Asm) -> Label {
    let entry = asm.here("sf_add");
    let x_ok = asm.new_label();
    let ret_y = asm.new_label();
    let finite = asm.new_label();
    let no_swap = asm.new_label();
    let d_ok = asm.new_label();
    let subpath = asm.new_label();
    let norm = asm.new_label();
    let normloop_top = asm.new_label();
    let pack = asm.new_label();
    let zero_signed = asm.new_label();
    let plain_ret = asm.new_label();
    let make_inf = asm.new_label();

    // magnitudes (sign stripped, shifted left 1) and exponent fields
    asm.emit(Inst::Slli {
        rd: T0,
        rs1: A0,
        shamt: 1,
    });
    asm.emit(Inst::Slli {
        rd: T1,
        rs1: A1,
        shamt: 1,
    });
    asm.emit(Inst::Srli {
        rd: T2,
        rs1: T0,
        shamt: 24,
    });
    asm.emit(Inst::Srli {
        rd: T3,
        rs1: T1,
        shamt: 24,
    });
    // x zero/denormal?
    bnez(asm, T2, x_ok);
    bnez(asm, T3, ret_y);
    asm.li(A0, 0); // both zeroish -> +0
    asm.ret();
    asm.bind(ret_y).expect("fresh label");
    asm.mv(A0, A1);
    asm.ret();
    asm.bind(x_ok).expect("fresh label");
    // y zero/denormal -> return x
    beqz(asm, T3, plain_ret);
    // inf/nan: x wins, else y
    asm.li(T6, 255);
    beq(asm, T2, T6, plain_ret);
    bne(asm, T3, T6, finite);
    asm.mv(A0, A1);
    asm.ret();
    asm.bind(finite).expect("fresh label");
    // ensure |x| >= |y|
    bgeu(asm, T0, T1, no_swap);
    asm.mv(T6, A0);
    asm.mv(A0, A1);
    asm.mv(A1, T6);
    asm.mv(T6, T2);
    asm.mv(T2, T3);
    asm.mv(T3, T6);
    asm.bind(no_swap).expect("fresh label");
    // mantissas with implicit bit, pre-shifted left 3 (guard bits)
    mask_mantissa(asm, T4, A0);
    asm.emit(Inst::Lui {
        rd: T6,
        imm: 0x0080_0000,
    });
    asm.emit(Inst::Or {
        rd: T4,
        rs1: T4,
        rs2: T6,
    });
    asm.emit(Inst::Slli {
        rd: T4,
        rs1: T4,
        shamt: 3,
    });
    mask_mantissa(asm, T5, A1);
    asm.emit(Inst::Or {
        rd: T5,
        rs1: T5,
        rs2: T6,
    });
    asm.emit(Inst::Slli {
        rd: T5,
        rs1: T5,
        shamt: 3,
    });
    // exponent difference
    asm.emit(Inst::Sub {
        rd: T0,
        rs1: T2,
        rs2: T3,
    });
    asm.li(T1, 27);
    bltu(asm, T0, T1, d_ok);
    asm.ret(); // y negligible; a0 already holds the larger operand
    asm.bind(d_ok).expect("fresh label");
    asm.emit(Inst::Srl {
        rd: T5,
        rs1: T5,
        rs2: T0,
    });
    // signs differ?
    asm.emit(Inst::Xor {
        rd: T1,
        rs1: A0,
        rs2: A1,
    });
    bltz(asm, T1, subpath);
    // same-sign addition
    asm.emit(Inst::Add {
        rd: T4,
        rs1: T4,
        rs2: T5,
    });
    asm.emit(Inst::Lui {
        rd: T1,
        imm: 0x0800_0000u32 as i32,
    }); // 1 << 27
    bltu(asm, T4, T1, norm);
    asm.emit(Inst::Srli {
        rd: T4,
        rs1: T4,
        shamt: 1,
    });
    asm.emit(Inst::Addi {
        rd: T2,
        rs1: T2,
        imm: 1,
    });
    asm.jump_to(norm);
    // opposite-sign subtraction (|x| >= |y| so result >= 0)
    asm.bind(subpath).expect("fresh label");
    asm.emit(Inst::Sub {
        rd: T4,
        rs1: T4,
        rs2: T5,
    });
    bnez(asm, T4, normloop_top);
    asm.li(A0, 0); // exact cancellation -> +0
    asm.ret();
    asm.bind(normloop_top).expect("fresh label");
    asm.emit(Inst::Lui {
        rd: T1,
        imm: 0x0400_0000,
    }); // 1 << 26
    let nl = asm.new_label();
    asm.bind(nl).expect("fresh label");
    bgeu(asm, T4, T1, norm);
    asm.emit(Inst::Slli {
        rd: T4,
        rs1: T4,
        shamt: 1,
    });
    asm.emit(Inst::Addi {
        rd: T2,
        rs1: T2,
        imm: -1,
    });
    asm.jump_to(nl);
    // normalisation done: range-check exponent and pack
    asm.bind(norm).expect("fresh label");
    blez(asm, T2, zero_signed);
    asm.li(T1, 255);
    blt(asm, T2, T1, pack);
    asm.jump_to(make_inf);
    asm.bind(pack).expect("fresh label");
    asm.emit(Inst::Srli {
        rd: T4,
        rs1: T4,
        shamt: 3,
    });
    mask_mantissa(asm, T4, T4);
    sign_of(asm, T1, A0);
    asm.emit(Inst::Slli {
        rd: T2,
        rs1: T2,
        shamt: 23,
    });
    asm.emit(Inst::Or {
        rd: A0,
        rs1: T1,
        rs2: T2,
    });
    asm.emit(Inst::Or {
        rd: A0,
        rs1: A0,
        rs2: T4,
    });
    asm.ret();
    asm.bind(zero_signed).expect("fresh label");
    sign_of(asm, A0, A0);
    asm.ret();
    asm.bind(make_inf).expect("fresh label");
    sign_of(asm, A0, A0);
    asm.emit(Inst::Lui {
        rd: T1,
        imm: 0x7F80_0000,
    });
    asm.emit(Inst::Or {
        rd: A0,
        rs1: A0,
        rs2: T1,
    });
    asm.ret();
    asm.bind(plain_ret).expect("fresh label");
    asm.ret();
    entry
}

fn emit_sub(asm: &mut Asm, add: Label) -> Label {
    let entry = asm.here("sf_sub");
    asm.emit(Inst::Lui {
        rd: T0,
        imm: 0x8000_0000u32 as i32,
    });
    asm.emit(Inst::Xor {
        rd: A1,
        rs1: A1,
        rs2: T0,
    });
    asm.jump_to(add);
    entry
}

fn emit_mul(asm: &mut Asm) -> Label {
    let entry = asm.here("sf_mul");
    let zero = asm.new_label();
    let inf = asm.new_label();
    let lo_norm = asm.new_label();
    let range = asm.new_label();
    let pack_ok = asm.new_label();

    // result sign
    asm.emit(Inst::Xor {
        rd: A2,
        rs1: A0,
        rs2: A1,
    });
    sign_of(asm, A2, A2);
    // exponents
    asm.emit(Inst::Slli {
        rd: T0,
        rs1: A0,
        shamt: 1,
    });
    asm.emit(Inst::Srli {
        rd: T0,
        rs1: T0,
        shamt: 24,
    });
    asm.emit(Inst::Slli {
        rd: T1,
        rs1: A1,
        shamt: 1,
    });
    asm.emit(Inst::Srli {
        rd: T1,
        rs1: T1,
        shamt: 24,
    });
    beqz(asm, T0, zero);
    beqz(asm, T1, zero);
    asm.li(T6, 255);
    beq(asm, T0, T6, inf);
    beq(asm, T1, T6, inf);
    // mantissas
    mask_mantissa(asm, T2, A0);
    asm.emit(Inst::Lui {
        rd: T3,
        imm: 0x0080_0000,
    });
    asm.emit(Inst::Or {
        rd: T2,
        rs1: T2,
        rs2: T3,
    });
    mask_mantissa(asm, T4, A1);
    asm.emit(Inst::Or {
        rd: T4,
        rs1: T4,
        rs2: T3,
    });
    // 48-bit product
    asm.emit(Inst::Mul {
        rd: T5,
        rs1: T2,
        rs2: T4,
    });
    asm.emit(Inst::Mulhu {
        rd: T6,
        rs1: T2,
        rs2: T4,
    });
    // exponent
    asm.emit(Inst::Add {
        rd: T0,
        rs1: T0,
        rs2: T1,
    });
    asm.emit(Inst::Addi {
        rd: T0,
        rs1: T0,
        imm: -127,
    });
    // normalise on bit 47
    asm.emit(Inst::Lui {
        rd: T1,
        imm: 0x8000,
    }); // bit 15 of the high half
    asm.emit(Inst::And {
        rd: T1,
        rs1: T6,
        rs2: T1,
    });
    beqz(asm, T1, lo_norm);
    asm.emit(Inst::Slli {
        rd: T6,
        rs1: T6,
        shamt: 8,
    });
    asm.emit(Inst::Srli {
        rd: T5,
        rs1: T5,
        shamt: 24,
    });
    asm.emit(Inst::Or {
        rd: T5,
        rs1: T5,
        rs2: T6,
    });
    asm.emit(Inst::Addi {
        rd: T0,
        rs1: T0,
        imm: 1,
    });
    asm.jump_to(range);
    asm.bind(lo_norm).expect("fresh label");
    asm.emit(Inst::Slli {
        rd: T6,
        rs1: T6,
        shamt: 9,
    });
    asm.emit(Inst::Srli {
        rd: T5,
        rs1: T5,
        shamt: 23,
    });
    asm.emit(Inst::Or {
        rd: T5,
        rs1: T5,
        rs2: T6,
    });
    asm.bind(range).expect("fresh label");
    blez(asm, T0, zero);
    asm.li(T1, 255);
    blt(asm, T0, T1, pack_ok);
    asm.bind(inf).expect("fresh label");
    asm.emit(Inst::Lui {
        rd: T1,
        imm: 0x7F80_0000,
    });
    asm.emit(Inst::Or {
        rd: A0,
        rs1: A2,
        rs2: T1,
    });
    asm.ret();
    asm.bind(pack_ok).expect("fresh label");
    mask_mantissa(asm, T5, T5);
    asm.emit(Inst::Slli {
        rd: T0,
        rs1: T0,
        shamt: 23,
    });
    asm.emit(Inst::Or {
        rd: A0,
        rs1: A2,
        rs2: T0,
    });
    asm.emit(Inst::Or {
        rd: A0,
        rs1: A0,
        rs2: T5,
    });
    asm.ret();
    asm.bind(zero).expect("fresh label");
    asm.mv(A0, A2);
    asm.ret();
    entry
}

fn emit_div(asm: &mut Asm) -> Label {
    let entry = asm.here("sf_div");
    let zero = asm.new_label();
    let inf = asm.new_label();
    let x_nonzero = asm.new_label();
    let loop_top = asm.new_label();
    let skip = asm.new_label();
    let small = asm.new_label();
    let norm = asm.new_label();
    let pack_ok = asm.new_label();

    asm.emit(Inst::Xor {
        rd: A2,
        rs1: A0,
        rs2: A1,
    });
    sign_of(asm, A2, A2);
    asm.emit(Inst::Slli {
        rd: T0,
        rs1: A0,
        shamt: 1,
    });
    asm.emit(Inst::Srli {
        rd: T0,
        rs1: T0,
        shamt: 24,
    });
    asm.emit(Inst::Slli {
        rd: T1,
        rs1: A1,
        shamt: 1,
    });
    asm.emit(Inst::Srli {
        rd: T1,
        rs1: T1,
        shamt: 24,
    });
    asm.li(T6, 255);
    beqz(asm, T1, inf); // divide by zero
    beqz(asm, T0, zero); // zero dividend
    beq(asm, T0, T6, inf); // inf / y
    bne(asm, T1, T6, x_nonzero);
    asm.jump_to(zero); // x / inf
    asm.bind(x_nonzero).expect("fresh label");
    // mantissas
    mask_mantissa(asm, T2, A0);
    asm.emit(Inst::Lui {
        rd: T3,
        imm: 0x0080_0000,
    });
    asm.emit(Inst::Or {
        rd: T2,
        rs1: T2,
        rs2: T3,
    });
    mask_mantissa(asm, T4, A1);
    asm.emit(Inst::Or {
        rd: T4,
        rs1: T4,
        rs2: T3,
    });
    // exponent
    asm.emit(Inst::Sub {
        rd: T0,
        rs1: T0,
        rs2: T1,
    });
    asm.emit(Inst::Addi {
        rd: T0,
        rs1: T0,
        imm: 127,
    });
    // 25-step restoring division: R = T2, D = T4, Q = T5
    asm.li(T5, 0);
    asm.li(T1, 25);
    asm.bind(loop_top).expect("fresh label");
    asm.emit(Inst::Slli {
        rd: T5,
        rs1: T5,
        shamt: 1,
    });
    bltu(asm, T2, T4, skip);
    asm.emit(Inst::Sub {
        rd: T2,
        rs1: T2,
        rs2: T4,
    });
    asm.emit(Inst::Ori {
        rd: T5,
        rs1: T5,
        imm: 1,
    });
    asm.bind(skip).expect("fresh label");
    asm.emit(Inst::Slli {
        rd: T2,
        rs1: T2,
        shamt: 1,
    });
    asm.emit(Inst::Addi {
        rd: T1,
        rs1: T1,
        imm: -1,
    });
    bnez(asm, T1, loop_top);
    // normalise the 25-bit quotient
    asm.emit(Inst::Lui {
        rd: T1,
        imm: 0x0100_0000,
    }); // 1 << 24
    bltu(asm, T5, T1, small);
    asm.emit(Inst::Srli {
        rd: T5,
        rs1: T5,
        shamt: 1,
    });
    asm.jump_to(norm);
    asm.bind(small).expect("fresh label");
    asm.emit(Inst::Addi {
        rd: T0,
        rs1: T0,
        imm: -1,
    });
    asm.bind(norm).expect("fresh label");
    blez(asm, T0, zero);
    asm.li(T1, 255);
    blt(asm, T0, T1, pack_ok);
    asm.bind(inf).expect("fresh label");
    asm.emit(Inst::Lui {
        rd: T1,
        imm: 0x7F80_0000,
    });
    asm.emit(Inst::Or {
        rd: A0,
        rs1: A2,
        rs2: T1,
    });
    asm.ret();
    asm.bind(pack_ok).expect("fresh label");
    mask_mantissa(asm, T5, T5);
    asm.emit(Inst::Slli {
        rd: T0,
        rs1: T0,
        shamt: 23,
    });
    asm.emit(Inst::Or {
        rd: A0,
        rs1: A2,
        rs2: T0,
    });
    asm.emit(Inst::Or {
        rd: A0,
        rs1: A0,
        rs2: T5,
    });
    asm.ret();
    asm.bind(zero).expect("fresh label");
    asm.mv(A0, A2);
    asm.ret();
    entry
}

fn emit_i2f(asm: &mut Asm) -> Label {
    let entry = asm.here("sf_i2f");
    let done_ret = asm.new_label();
    bnez(asm, A0, done_ret); // fallthrough trick: 0 -> 0.0
    asm.ret();
    asm.bind(done_ret).expect("fresh label");
    // sign and absolute value (INT_MIN maps to 0x8000_0000 unsigned, fine)
    asm.emit(Inst::Srai {
        rd: T0,
        rs1: A0,
        shamt: 31,
    });
    asm.emit(Inst::Xor {
        rd: A0,
        rs1: A0,
        rs2: T0,
    });
    asm.emit(Inst::Sub {
        rd: A0,
        rs1: A0,
        rs2: T0,
    });
    asm.emit(Inst::Srli {
        rd: T1,
        rs1: T0,
        shamt: 31,
    });
    asm.emit(Inst::Slli {
        rd: T1,
        rs1: T1,
        shamt: 31,
    }); // sign bit
        // count leading zeros (binary steps), n in T2
    asm.li(T2, 0);
    for (step, sh) in [(16u32, 16u32), (8, 24), (4, 28), (2, 30), (1, 31)] {
        let skip = asm.new_label();
        asm.emit(Inst::Srli {
            rd: T3,
            rs1: A0,
            shamt: sh,
        });
        bnez(asm, T3, skip);
        asm.emit(Inst::Addi {
            rd: T2,
            rs1: T2,
            imm: step as i32,
        });
        asm.emit(Inst::Slli {
            rd: A0,
            rs1: A0,
            shamt: step,
        });
        asm.bind(skip).expect("fresh label");
    }
    // msb now at bit 31; exponent = 158 - n
    asm.li(T3, 158);
    asm.emit(Inst::Sub {
        rd: T3,
        rs1: T3,
        rs2: T2,
    });
    asm.emit(Inst::Srli {
        rd: A0,
        rs1: A0,
        shamt: 8,
    });
    mask_mantissa(asm, A0, A0);
    asm.emit(Inst::Slli {
        rd: T3,
        rs1: T3,
        shamt: 23,
    });
    asm.emit(Inst::Or {
        rd: A0,
        rs1: A0,
        rs2: T3,
    });
    asm.emit(Inst::Or {
        rd: A0,
        rs1: A0,
        rs2: T1,
    });
    asm.ret();
    entry
}

fn emit_f2i_floor(asm: &mut Asm) -> Label {
    let entry = asm.here("sf_f2i_floor");
    let big = asm.new_label();
    let zero_out = asm.new_label();
    let in_range = asm.new_label();
    let sat_max = asm.new_label();
    let right = asm.new_label();
    let apply_sign = asm.new_label();
    let positive = asm.new_label();
    let no_adjust = asm.new_label();

    asm.emit(Inst::Slli {
        rd: T0,
        rs1: A0,
        shamt: 1,
    });
    asm.emit(Inst::Srli {
        rd: T1,
        rs1: T0,
        shamt: 24,
    }); // exponent
    asm.li(T2, 127);
    bgeu(asm, T1, T2, big);
    // |x| < 1: floor is 0, or -1 for negative non-zero
    beqz(asm, T0, zero_out);
    bgez(asm, A0, zero_out);
    asm.li(A0, -1);
    asm.ret();
    asm.bind(zero_out).expect("fresh label");
    asm.li(A0, 0);
    asm.ret();
    asm.bind(big).expect("fresh label");
    asm.emit(Inst::Sub {
        rd: T1,
        rs1: T1,
        rs2: T2,
    }); // e = exp - 127
    asm.li(T2, 31);
    blt(asm, T1, T2, in_range);
    // saturate
    bgez(asm, A0, sat_max);
    asm.emit(Inst::Lui {
        rd: A0,
        imm: 0x8000_0000u32 as i32,
    }); // i32::MIN
    asm.ret();
    asm.bind(sat_max).expect("fresh label");
    asm.emit(Inst::Lui {
        rd: A0,
        imm: 0x8000_0000u32 as i32,
    });
    asm.emit(Inst::Addi {
        rd: A0,
        rs1: A0,
        imm: -1,
    }); // i32::MAX
    asm.ret();
    asm.bind(in_range).expect("fresh label");
    // mantissa with implicit bit
    mask_mantissa(asm, T2, A0);
    asm.emit(Inst::Lui {
        rd: T3,
        imm: 0x0080_0000,
    });
    asm.emit(Inst::Or {
        rd: T2,
        rs1: T2,
        rs2: T3,
    });
    asm.emit(Inst::Addi {
        rd: T4,
        rs1: T1,
        imm: -23,
    }); // shift = e - 23
    bltz(asm, T4, right);
    asm.emit(Inst::Sll {
        rd: T2,
        rs1: T2,
        rs2: T4,
    });
    asm.li(T5, 0); // no fractional bits
    asm.jump_to(apply_sign);
    asm.bind(right).expect("fresh label");
    asm.emit(Inst::Sub {
        rd: T4,
        rs1: Zero,
        rs2: T4,
    }); // rs = 23 - e
    asm.li(T5, 1);
    asm.emit(Inst::Sll {
        rd: T5,
        rs1: T5,
        rs2: T4,
    });
    asm.emit(Inst::Addi {
        rd: T5,
        rs1: T5,
        imm: -1,
    });
    asm.emit(Inst::And {
        rd: T5,
        rs1: T2,
        rs2: T5,
    }); // fraction
    asm.emit(Inst::Srl {
        rd: T2,
        rs1: T2,
        rs2: T4,
    });
    asm.bind(apply_sign).expect("fresh label");
    bgez(asm, A0, positive);
    asm.emit(Inst::Sub {
        rd: A0,
        rs1: Zero,
        rs2: T2,
    });
    beqz(asm, T5, no_adjust);
    asm.emit(Inst::Addi {
        rd: A0,
        rs1: A0,
        imm: -1,
    }); // floor adjustment
    asm.bind(no_adjust).expect("fresh label");
    asm.ret();
    asm.bind(positive).expect("fresh label");
    asm.mv(A0, T2);
    asm.ret();
    entry
}

fn emit_lt(asm: &mut Asm) -> Label {
    let entry = asm.here("sf_lt");
    // map IEEE bit patterns to a monotone unsigned order:
    //   m(x) = x >= 0 ? x | 0x8000_0000 : !x
    asm.emit(Inst::Srai {
        rd: T0,
        rs1: A0,
        shamt: 31,
    });
    asm.emit(Inst::Lui {
        rd: T2,
        imm: 0x8000_0000u32 as i32,
    });
    asm.emit(Inst::Or {
        rd: T0,
        rs1: T0,
        rs2: T2,
    });
    asm.emit(Inst::Xor {
        rd: T0,
        rs1: A0,
        rs2: T0,
    });
    asm.emit(Inst::Srai {
        rd: T1,
        rs1: A1,
        shamt: 31,
    });
    asm.emit(Inst::Or {
        rd: T1,
        rs1: T1,
        rs2: T2,
    });
    asm.emit(Inst::Xor {
        rd: T1,
        rs1: A1,
        rs2: T1,
    });
    asm.emit(Inst::Sltu {
        rd: A0,
        rs1: T0,
        rs2: T1,
    });
    asm.ret();
    entry
}

#[cfg(test)]
mod tests {
    use super::*;
    use kwt_rv32::{Machine, Platform};

    /// Runs `routine(a, b)` on the simulator, returning `a0`.
    fn run_binop(which: &str, a: u32, b: u32) -> u32 {
        let mut asm = Asm::new(0, 0xC000);
        let entry_jump = asm.new_label();
        asm.jump_to(entry_jump); // skip over the library
        let lib = SoftFloat::emit(&mut asm);
        asm.bind(entry_jump).expect("fresh");
        asm.here("entry");
        asm.li(Reg::A0, a as i32);
        asm.li(Reg::A1, b as i32);
        let target = match which {
            "add" => lib.add,
            "sub" => lib.sub,
            "mul" => lib.mul,
            "div" => lib.div,
            "i2f" => lib.i2f,
            "f2i" => lib.f2i_floor,
            "lt" => lib.lt,
            other => panic!("unknown routine {other}"),
        };
        asm.call(target);
        asm.emit(Inst::Ebreak);
        let p = asm.finish().expect("assembly");
        let mut m = Machine::load(&p, Platform::ibex()).expect("fits");
        let r = m.run(1_000_000).expect("halts");
        r.exit_code
    }

    fn fop(which: &str, a: f32, b: f32) -> f32 {
        f32::from_bits(run_binop(which, a.to_bits(), b.to_bits()))
    }

    /// ULP distance between two finite floats of the same sign region.
    fn ulp_distance(a: f32, b: f32) -> u64 {
        let to_ord = |x: f32| -> i64 {
            let bits = x.to_bits() as i64;
            if bits & (1 << 31) != 0 {
                (1i64 << 31) - bits.min(1 << 31) - (bits - (1 << 31))
            } else {
                bits
            }
        };
        // simpler monotone map
        let m = |x: f32| -> i64 {
            let b = x.to_bits();
            if b & 0x8000_0000 != 0 {
                -((b & 0x7FFF_FFFF) as i64)
            } else {
                b as i64
            }
        };
        let _ = to_ord;
        (m(a) - m(b)).unsigned_abs()
    }

    #[allow(clippy::approx_constant)] // arbitrary bit patterns, not math constants
    const CASES: &[f32] = &[
        0.0,
        1.0,
        -1.0,
        0.5,
        -0.5,
        2.0,
        3.1415926,
        -2.7182817,
        100.25,
        -417.75,
        1e-3,
        -1e-3,
        1e10,
        -1e10,
        1.1754944e-38,
        16777216.0,
        0.33333334,
        -0.1,
        7.0,
        -7.5,
        123456.78,
    ];

    #[test]
    fn add_matches_host_within_2_ulp() {
        for &a in CASES {
            for &b in CASES {
                let got = fop("add", a, b);
                let want = a + b;
                assert!(
                    ulp_distance(got, want) <= 2,
                    "{a} + {b}: got {got} want {want}"
                );
            }
        }
    }

    #[test]
    fn sub_matches_host_within_2_ulp() {
        for &a in CASES {
            for &b in CASES {
                let got = fop("sub", a, b);
                let want = a - b;
                assert!(
                    ulp_distance(got, want) <= 2,
                    "{a} - {b}: got {got} want {want}"
                );
            }
        }
    }

    #[test]
    fn mul_matches_host_within_1_ulp() {
        for &a in CASES {
            for &b in CASES {
                let got = fop("mul", a, b);
                let want = a * b;
                if want.is_infinite() {
                    assert!(got.is_infinite() && got.signum() == want.signum());
                } else if want != 0.0 && want.abs() < f32::MIN_POSITIVE {
                    assert_eq!(got, 0.0f32.copysign(want), "flush {a}*{b}");
                } else {
                    assert!(
                        ulp_distance(got, want) <= 1,
                        "{a} * {b}: got {got} want {want}"
                    );
                }
            }
        }
    }

    #[test]
    fn div_matches_host_within_1_ulp() {
        for &a in CASES {
            for &b in CASES {
                if b == 0.0 {
                    continue;
                }
                let got = fop("div", a, b);
                let want = a / b;
                if want.is_infinite() {
                    assert!(got.is_infinite());
                } else if want != 0.0 && want.abs() < f32::MIN_POSITIVE {
                    assert_eq!(got, 0.0f32.copysign(want));
                } else {
                    assert!(
                        ulp_distance(got, want) <= 1,
                        "{a} / {b}: got {got} want {want}"
                    );
                }
            }
        }
    }

    #[test]
    fn div_by_zero_gives_signed_infinity() {
        assert_eq!(fop("div", 3.0, 0.0), f32::INFINITY);
        assert_eq!(fop("div", -3.0, 0.0), f32::NEG_INFINITY);
    }

    #[test]
    fn i2f_exact_for_small_integers() {
        for i in [-100_000i32, -513, -1, 0, 1, 2, 7, 255, 65536, 8_388_607] {
            let got = f32::from_bits(run_binop("i2f", i as u32, 0));
            assert_eq!(got, i as f32, "i2f({i})");
        }
    }

    #[test]
    fn i2f_truncates_large_integers() {
        for i in [16_777_217i32, 2_000_000_001, i32::MAX, i32::MIN] {
            let got = f32::from_bits(run_binop("i2f", i as u32, 0));
            let want = i as f32;
            assert!(
                ulp_distance(got, want) <= 1,
                "i2f({i}): got {got} want {want}"
            );
        }
    }

    #[test]
    fn f2i_floor_matches_host_floor() {
        for &x in &[
            0.0f32,
            0.9,
            1.0,
            1.5,
            2.999,
            -0.1,
            -0.9,
            -1.0,
            -1.5,
            -2.001,
            100.75,
            -100.75,
            32767.9,
            -32768.5,
            8_388_608.0,
            1e9,
        ] {
            let got = run_binop("f2i", x.to_bits(), 0) as i32;
            let want = x.floor() as i64;
            let want = want.clamp(i32::MIN as i64, i32::MAX as i64) as i32;
            assert_eq!(got, want, "f2i_floor({x})");
        }
    }

    #[test]
    fn f2i_floor_saturates() {
        assert_eq!(run_binop("f2i", 1e20f32.to_bits(), 0) as i32, i32::MAX);
        assert_eq!(run_binop("f2i", (-1e20f32).to_bits(), 0) as i32, i32::MIN);
    }

    mod softfp_model {
        //! The Xkwtdot `kfadd.t`/`kfsub.t`/`kfmul.t` instructions
        //! execute `kwt_rv32::softfp`; these properties pin the
        //! generated assembly to that model **bit-for-bit**, which is
        //! what lets the A8 kernels' inline `kfmul.t` stand in for a
        //! call to the scalar library.
        use super::*;
        use proptest::prelude::*;

        /// Bit patterns that stress every branch: random, plus the
        /// special-value corners.
        fn float_bits() -> impl Strategy<Value = u32> {
            prop_oneof![
                any::<u32>(),
                any::<u32>(),
                any::<u32>(),
                any::<u32>(),
                prop_oneof![
                    Just(0u32),        // +0
                    Just(0x8000_0000), // -0
                    Just(0x7F80_0000), // +inf
                    Just(0xFF80_0000), // -inf
                    Just(0x7FC0_0000), // NaN
                    Just(0x0000_0001), // denormal
                    Just(0x807F_FFFF), // -denormal
                    Just(0x0080_0000), // smallest normal
                    Just(0x7F7F_FFFF), // largest finite
                ],
                // same-exponent patterns hit cancellation paths often
                (0u32..256).prop_map(|e| (e << 23) | 0x12_3456),
            ]
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            #[test]
            fn add_matches_softfp_model(a in float_bits(), b in float_bits()) {
                prop_assert_eq!(run_binop("add", a, b), kwt_rv32::softfp::add(a, b));
            }

            #[test]
            fn sub_matches_softfp_model(a in float_bits(), b in float_bits()) {
                prop_assert_eq!(run_binop("sub", a, b), kwt_rv32::softfp::sub(a, b));
            }

            #[test]
            fn mul_matches_softfp_model(a in float_bits(), b in float_bits()) {
                prop_assert_eq!(run_binop("mul", a, b), kwt_rv32::softfp::mul(a, b));
            }
        }
    }

    #[test]
    fn lt_total_order() {
        let pairs = [
            (1.0f32, 2.0f32, 1u32),
            (2.0, 1.0, 0),
            (-1.0, 1.0, 1),
            (-2.0, -1.0, 1),
            (-1.0, -2.0, 0),
            (0.0, 1.0, 1),
            (-1.0, 0.0, 1),
            (3.5, 3.5, 0),
        ];
        for (a, b, want) in pairs {
            assert_eq!(
                run_binop("lt", a.to_bits(), b.to_bits()),
                want,
                "lt({a}, {b})"
            );
        }
    }

    #[test]
    fn denormals_flush_to_zero() {
        let denorm = f32::from_bits(0x0000_0001);
        assert_eq!(fop("add", denorm, denorm), 0.0);
        assert_eq!(fop("mul", denorm, 1.0), 0.0);
    }

    #[test]
    fn soft_div_is_expensive() {
        // The whole point of ALU_INVERT: soft-float division costs
        // hundreds of cycles. Measure one call.
        let mut asm = Asm::new(0, 0xC000);
        let over = asm.new_label();
        asm.jump_to(over);
        let lib = SoftFloat::emit(&mut asm);
        asm.bind(over).expect("fresh");
        asm.here("entry");
        asm.li(Reg::A0, 1.0f32.to_bits() as i32);
        asm.li(Reg::A1, 3.0f32.to_bits() as i32);
        asm.call(lib.div);
        asm.emit(Inst::Ebreak);
        let p = asm.finish().unwrap();
        let mut m = Machine::load(&p, Platform::ibex()).unwrap();
        let r = m.run(10_000).unwrap();
        assert!(
            r.cycles > 150,
            "soft div suspiciously cheap: {} cycles",
            r.cycles
        );
        let got = f32::from_bits(r.exit_code);
        assert!((got - 1.0 / 3.0).abs() < 1e-7, "1/3 = {got}");
    }
}
