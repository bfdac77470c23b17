//! The Table VI tensor library as generated RV32 assembly, in three
//! flavours:
//!
//! * **float** — every scalar op goes through the soft-float library
//!   (the paper's non-quantised KWT-Tiny, 26 M cycles)
//! * **quantised** — INT8-weight/INT16-residual integer matmuls with
//!   float SoftMax/LayerNorm/GELU behind dequantise/requantise
//!   boundaries (KWT-Tiny-Q, 13 M cycles)
//! * **accelerated** — the same integer pipeline with SoftMax and GELU
//!   rewritten over the `custom-1` instructions (KWT-Tiny-Q +HW,
//!   5.5 M cycles)
//!
//! The integer kernels are scalar RV32IM loops (`lh`/`lb`/`mul`/`add`),
//! the bit-for-bit oracle of the host quantised model. The custom-2
//! packed-MAC extension (`kdot4.i8`, `ksat.i16`, `kclip`, `kcvt.*`,
//! `kf{add,sub,mul}.t`) is used only by the fully-INT8 [`A8Kernels`]
//! below.
//!
//! Calling conventions follow the RISC-V ILP32 ABI: arguments `a0..a7`,
//! caller-saved `t*`, callee-saved `s*`.

use crate::mathlib::{epilogue, li_f32, prologue, MathLib};
use crate::softfloat::SoftFloat;
use kwt_rvasm::{
    emit, Asm, CustomOp, Inst, Label, PackedOp, Reg, CSR_PROFILE_POP, CSR_PROFILE_PUSH,
};

use Reg::{Ra, Zero, A0, A1, A2, A3, A4, A5, A6, A7, T0, T1, T2, T3, T4, T5, T6};
use Reg::{S0, S1, S10, S11, S2, S3, S4, S5, S6, S7, S8, S9};

/// Entry labels for every generated kernel.
#[derive(Debug, Clone, Copy)]
pub struct Kernels {
    /// `matmul_f32(A, B, bias|0, out, M, K, N)` — O(n³), soft-float MACs.
    pub matmul_f32: Label,
    /// `matmul_q(A:i16, W:i8, bias:i32|0, out:i16, M, K, N, shift)`.
    pub matmul_q: Label,
    /// `matmul_qq(A:i16, B:i16, 0, out:i16, M, K, N, shift)`.
    pub matmul_qq: Label,
    /// `add_f32(dst, src, len)` — residual add.
    pub add_f32: Label,
    /// `add_sat_i16(dst, src, len)` — saturating residual add.
    pub add_sat_i16: Label,
    /// `copy_bytes(dst, src, len)`.
    pub copy_bytes: Label,
    /// `scale_f32(ptr, len, scale_bits)` — in-place scalar multiply.
    pub scale_f32: Label,
    /// `softmax_f32(ptr, len)` — max-normalised, `expf` + one division.
    pub softmax_f32: Label,
    /// `softmax_accel(ptr, len)` — Q8.24 LUT pipeline (§VI).
    pub softmax_accel: Label,
    /// `gelu_f32(ptr, len)` — exact GELU via `erff` per element.
    pub gelu_f32: Label,
    /// `gelu_accel(ptr, len)` — `ALU_TO_FIXED`/`ALU_GELU`/`ALU_TO_FLOAT`.
    pub gelu_accel: Label,
    /// `layer_norm_f32(x, gamma, beta, rows, cols, inv_n_bits, eps_bits)`.
    pub layer_norm_f32: Label,
    /// `dequant(src:i16, dst:f32, len, scale_bits)` — `x / 2^y`.
    pub dequant: Label,
    /// `requant(src:f32, dst:i16, len, scale_bits)` — `floor(x * 2^y)`,
    /// saturating to i16 (matches the host quantiser exactly).
    pub requant: Label,
    /// `attention_f32(Q, K, V, out, S, dh, row_buf, scale_bits)` —
    /// row-wise scaled dot-product attention (never materialises the
    /// `S x S` score matrix, §V memory discipline).
    pub attention_f32: Label,
    /// `attention_q(Q, K, V, out, S, dh, row16_buf, params_ptr)` —
    /// quantised row-wise attention; `params` selects float or LUT
    /// softmax.
    pub attention_q: Label,
    /// `copy_strided(dst, src, rows, src_stride_bytes, width_bytes)` —
    /// the paper's `splitIntoQKV()`: gathers a column block into a
    /// contiguous matrix.
    pub copy_strided: Label,
    /// `ln_q(x:i16, gamma, beta, rows, cols, params)` — quantised
    /// LayerNorm: dequantise row → float LN → requantise (§IV).
    pub ln_q: Label,
    /// `gelu_q(x:i16, rows, cols, params)` — quantised GELU boundary,
    /// float or LUT inner kernel.
    pub gelu_q: Label,
}

/// Byte offsets into the `ln_q` parameter block.
pub mod ln_params {
    /// f32 bits: dequantisation factor `2^-y_a`.
    pub const DEQ: i32 = 0;
    /// f32 bits: requantisation factor `2^y_a`.
    pub const REQ: i32 = 4;
    /// f32 bits: `1/cols`.
    pub const INV_N: i32 = 8;
    /// f32 bits: layer-norm epsilon.
    pub const EPS: i32 = 12;
    /// u32: float scratch row address.
    pub const SCRATCH: i32 = 16;
    /// Total block size in bytes.
    pub const SIZE: usize = 20;
}

/// Byte offsets into the `gelu_q` parameter block.
pub mod gelu_params {
    /// f32 bits: dequantisation factor `2^-y_a`.
    pub const DEQ: i32 = 0;
    /// f32 bits: requantisation factor `2^y_a`.
    pub const REQ: i32 = 4;
    /// u32: float scratch row address.
    pub const SCRATCH: i32 = 8;
    /// u32: 0 = float GELU, 1 = LUT GELU.
    pub const NONLINEARITY: i32 = 12;
    /// Total block size in bytes.
    pub const SIZE: usize = 16;
}

/// Byte offsets into the `attention_q` parameter block.
pub mod attn_params {
    /// i32: activation-scale shift (`y_a`).
    pub const SHIFT: i32 = 0;
    /// f32 bits: `1/sqrt(dim_head)`.
    pub const INV_SQRT_DH: i32 = 4;
    /// f32 bits: dequantisation factor `2^-y_a`.
    pub const DEQ: i32 = 8;
    /// f32 bits: requantisation factor `2^y_a`.
    pub const REQ: i32 = 12;
    /// u32: address of the float row buffer.
    pub const ROWF: i32 = 16;
    /// u32: 0 = float softmax, 1 = LUT softmax.
    pub const NONLINEARITY: i32 = 20;
    /// Total block size in bytes.
    pub const SIZE: usize = 24;
}

/// Opens profiler region `region` (see [`crate::regions`]).
pub(crate) fn push_region(asm: &mut Asm, region: u32) {
    asm.li(T0, region as i32);
    asm.emit(Inst::Csrrw {
        rd: Zero,
        rs1: T0,
        csr: CSR_PROFILE_PUSH,
    });
}

/// Closes the innermost profiler region.
pub(crate) fn pop_region(asm: &mut Asm) {
    asm.emit(Inst::Csrrw {
        rd: Zero,
        rs1: Zero,
        csr: CSR_PROFILE_POP,
    });
}

impl Kernels {
    /// Emits all kernels (soft-float and math libraries must already be
    /// emitted into the same `asm`).
    pub fn emit(asm: &mut Asm, sf: &SoftFloat, math: &MathLib) -> Kernels {
        let matmul_f32 = emit_matmul_f32(asm, sf);
        let matmul_q = emit_matmul_int(asm, "k_matmul_q", false);
        let matmul_qq = emit_matmul_int(asm, "k_matmul_qq", true);
        let add_sat_i16 = emit_add_sat_i16(asm);
        let dequant = emit_dequant(asm, sf);
        let requant = emit_requant(asm, sf);
        let scale_f32 = emit_scale_f32(asm, sf);
        let layer_norm_f32 = emit_layer_norm_f32(asm, sf, math);
        let add_f32 = emit_add_f32(asm, sf);
        let copy_bytes = emit_copy_bytes(asm);
        let softmax_f32 = emit_softmax_f32(asm, sf, math);
        let softmax_accel = emit_softmax_accel(asm);
        let gelu_f32 = emit_gelu_f32(asm, math);
        let gelu_accel = emit_gelu_accel(asm);
        let attention_f32 = emit_attention_f32(asm, matmul_f32, scale_f32, softmax_f32);
        let attention_q = emit_attention_q(
            asm,
            matmul_qq,
            dequant,
            requant,
            scale_f32,
            softmax_f32,
            softmax_accel,
        );
        let copy_strided = emit_copy_strided(asm);
        let ln_q = emit_ln_q(asm, dequant, requant, layer_norm_f32);
        let gelu_q = emit_gelu_q(asm, dequant, requant, gelu_f32, gelu_accel);
        Kernels {
            matmul_f32,
            matmul_q,
            matmul_qq,
            add_f32,
            add_sat_i16,
            copy_bytes,
            scale_f32,
            softmax_f32,
            softmax_accel,
            gelu_f32,
            gelu_accel,
            layer_norm_f32,
            dequant,
            requant,
            attention_f32,
            attention_q,
            copy_strided,
            ln_q,
            gelu_q,
        }
    }
}

/// `copy_strided(a0=dst, a1=src, a2=rows, a3=src_stride, a4=width)` —
/// leaf: gathers `width` bytes every `src_stride` bytes.
fn emit_copy_strided(asm: &mut Asm) -> Label {
    let entry = asm.here("k_copy_strided");
    let rowl = asm.new_label();
    let bytel = asm.new_label();
    let rowd = asm.new_label();
    let done = asm.new_label();
    asm.bind(rowl).expect("fresh");
    asm.branch_to(
        Inst::Beq {
            rs1: A2,
            rs2: Zero,
            offset: 0,
        },
        done,
    );
    asm.mv(T0, A4);
    asm.mv(T1, A1);
    asm.bind(bytel).expect("fresh");
    asm.branch_to(
        Inst::Beq {
            rs1: T0,
            rs2: Zero,
            offset: 0,
        },
        rowd,
    );
    asm.emit(Inst::Lbu {
        rd: T3,
        rs1: T1,
        imm: 0,
    });
    asm.emit(Inst::Sb {
        rs2: T3,
        rs1: A0,
        imm: 0,
    });
    asm.emit(Inst::Addi {
        rd: T1,
        rs1: T1,
        imm: 1,
    });
    asm.emit(Inst::Addi {
        rd: A0,
        rs1: A0,
        imm: 1,
    });
    asm.emit(Inst::Addi {
        rd: T0,
        rs1: T0,
        imm: -1,
    });
    asm.jump_to(bytel);
    asm.bind(rowd).expect("fresh");
    asm.emit(Inst::Add {
        rd: A1,
        rs1: A1,
        rs2: A3,
    });
    asm.emit(Inst::Addi {
        rd: A2,
        rs1: A2,
        imm: -1,
    });
    asm.jump_to(rowl);
    asm.bind(done).expect("fresh");
    asm.ret();
    entry
}

/// `ln_q(a0=x16, a1=gamma, a2=beta, a3=rows, a4=cols, a5=params)` —
/// per-row dequantise → float LayerNorm → requantise.
fn emit_ln_q(asm: &mut Asm, dequant: Label, requant: Label, ln_f32: Label) -> Label {
    let entry = asm.here("k_ln_q");
    let saves = [Ra, S0, S1, S2, S3, S4, S5];
    let frame = prologue(asm, &saves);
    let row = asm.new_label();
    let done = asm.new_label();
    asm.mv(S0, A0); // x row
    asm.mv(S1, A1); // gamma
    asm.mv(S2, A2); // beta
    asm.mv(S3, A3); // rows
    asm.mv(S4, A4); // cols
    asm.mv(S5, A5); // params
    asm.bind(row).expect("fresh");
    asm.branch_to(
        Inst::Beq {
            rs1: S3,
            rs2: Zero,
            offset: 0,
        },
        done,
    );
    asm.mv(A0, S0);
    asm.emit(Inst::Lw {
        rd: A1,
        rs1: S5,
        imm: ln_params::SCRATCH,
    });
    asm.mv(A2, S4);
    asm.emit(Inst::Lw {
        rd: A3,
        rs1: S5,
        imm: ln_params::DEQ,
    });
    asm.call(dequant);
    asm.emit(Inst::Lw {
        rd: A0,
        rs1: S5,
        imm: ln_params::SCRATCH,
    });
    asm.mv(A1, S1);
    asm.mv(A2, S2);
    asm.li(A3, 1);
    asm.mv(A4, S4);
    asm.emit(Inst::Lw {
        rd: A5,
        rs1: S5,
        imm: ln_params::INV_N,
    });
    asm.emit(Inst::Lw {
        rd: A6,
        rs1: S5,
        imm: ln_params::EPS,
    });
    asm.call(ln_f32);
    asm.emit(Inst::Lw {
        rd: A0,
        rs1: S5,
        imm: ln_params::SCRATCH,
    });
    asm.mv(A1, S0);
    asm.mv(A2, S4);
    asm.emit(Inst::Lw {
        rd: A3,
        rs1: S5,
        imm: ln_params::REQ,
    });
    asm.call(requant);
    asm.emit(Inst::Slli {
        rd: T0,
        rs1: S4,
        shamt: 1,
    });
    asm.emit(Inst::Add {
        rd: S0,
        rs1: S0,
        rs2: T0,
    });
    asm.emit(Inst::Addi {
        rd: S3,
        rs1: S3,
        imm: -1,
    });
    asm.jump_to(row);
    asm.bind(done).expect("fresh");
    epilogue(asm, &saves, frame);
    entry
}

/// `gelu_q(a0=x16, a1=rows, a2=cols, a3=params)` — per-row dequantise →
/// (float | LUT) GELU → requantise.
fn emit_gelu_q(
    asm: &mut Asm,
    dequant: Label,
    requant: Label,
    gelu_f32: Label,
    gelu_accel: Label,
) -> Label {
    let entry = asm.here("k_gelu_q");
    let saves = [Ra, S0, S1, S2, S3];
    let frame = prologue(asm, &saves);
    let row = asm.new_label();
    let done = asm.new_label();
    let accel = asm.new_label();
    let after = asm.new_label();
    asm.mv(S0, A0);
    asm.mv(S1, A1);
    asm.mv(S2, A2);
    asm.mv(S3, A3);
    asm.bind(row).expect("fresh");
    asm.branch_to(
        Inst::Beq {
            rs1: S1,
            rs2: Zero,
            offset: 0,
        },
        done,
    );
    asm.mv(A0, S0);
    asm.emit(Inst::Lw {
        rd: A1,
        rs1: S3,
        imm: gelu_params::SCRATCH,
    });
    asm.mv(A2, S2);
    asm.emit(Inst::Lw {
        rd: A3,
        rs1: S3,
        imm: gelu_params::DEQ,
    });
    asm.call(dequant);
    asm.emit(Inst::Lw {
        rd: A0,
        rs1: S3,
        imm: gelu_params::SCRATCH,
    });
    asm.mv(A1, S2);
    asm.emit(Inst::Lw {
        rd: T1,
        rs1: S3,
        imm: gelu_params::NONLINEARITY,
    });
    asm.branch_to(
        Inst::Bne {
            rs1: T1,
            rs2: Zero,
            offset: 0,
        },
        accel,
    );
    asm.call(gelu_f32);
    asm.jump_to(after);
    asm.bind(accel).expect("fresh");
    asm.call(gelu_accel);
    asm.bind(after).expect("fresh");
    asm.emit(Inst::Lw {
        rd: A0,
        rs1: S3,
        imm: gelu_params::SCRATCH,
    });
    asm.mv(A1, S0);
    asm.mv(A2, S2);
    asm.emit(Inst::Lw {
        rd: A3,
        rs1: S3,
        imm: gelu_params::REQ,
    });
    asm.call(requant);
    asm.emit(Inst::Slli {
        rd: T0,
        rs1: S2,
        shamt: 1,
    });
    asm.emit(Inst::Add {
        rd: S0,
        rs1: S0,
        rs2: T0,
    });
    asm.emit(Inst::Addi {
        rd: S1,
        rs1: S1,
        imm: -1,
    });
    asm.jump_to(row);
    asm.bind(done).expect("fresh");
    epilogue(asm, &saves, frame);
    entry
}

/// `matmul_f32(a0=A, a1=B, a2=bias|0, a3=out, a4=M, a5=K, a6=N)`.
fn emit_matmul_f32(asm: &mut Asm, sf: &SoftFloat) -> Label {
    let entry = asm.here("k_matmul_f32");
    let saves = [Ra, S0, S1, S2, S3, S4, S5, S6, S7, S8, S9, S10, S11];
    let frame = prologue(asm, &saves);
    let outer = asm.new_label();
    let done = asm.new_label();
    let jloop = asm.new_label();
    let jdone = asm.new_label();
    let zinit = asm.new_label();
    let kinit = asm.new_label();
    let kloop = asm.new_label();

    asm.mv(S0, A0); // A row pointer
    asm.mv(S1, A1); // B
    asm.mv(S2, A2); // bias (0 = none)
    asm.mv(S3, A3); // out row pointer
    asm.mv(S4, A4); // M counter
    asm.mv(S5, A5); // K
    asm.emit(Inst::Slli {
        rd: S6,
        rs1: A6,
        shamt: 2,
    }); // N*4

    asm.bind(outer).expect("fresh");
    asm.branch_to(
        Inst::Beq {
            rs1: S4,
            rs2: Zero,
            offset: 0,
        },
        done,
    );
    asm.li(S7, 0); // j4
    asm.bind(jloop).expect("fresh");
    asm.branch_to(
        Inst::Bgeu {
            rs1: S7,
            rs2: S6,
            offset: 0,
        },
        jdone,
    );
    // acc = bias ? bias[j] : 0.0
    asm.branch_to(
        Inst::Beq {
            rs1: S2,
            rs2: Zero,
            offset: 0,
        },
        zinit,
    );
    asm.emit(Inst::Add {
        rd: T0,
        rs1: S2,
        rs2: S7,
    });
    asm.emit(Inst::Lw {
        rd: S9,
        rs1: T0,
        imm: 0,
    });
    asm.jump_to(kinit);
    asm.bind(zinit).expect("fresh");
    asm.li(S9, 0);
    asm.bind(kinit).expect("fresh");
    asm.mv(S8, S5); // k counter
    asm.mv(S10, S0); // pa
    asm.emit(Inst::Add {
        rd: S11,
        rs1: S1,
        rs2: S7,
    }); // pw = B + j4
    asm.bind(kloop).expect("fresh");
    asm.emit(Inst::Lw {
        rd: A0,
        rs1: S10,
        imm: 0,
    });
    asm.emit(Inst::Lw {
        rd: A1,
        rs1: S11,
        imm: 0,
    });
    asm.call(sf.mul);
    asm.mv(A1, S9);
    asm.call(sf.add);
    asm.mv(S9, A0);
    asm.emit(Inst::Addi {
        rd: S10,
        rs1: S10,
        imm: 4,
    });
    asm.emit(Inst::Add {
        rd: S11,
        rs1: S11,
        rs2: S6,
    });
    asm.emit(Inst::Addi {
        rd: S8,
        rs1: S8,
        imm: -1,
    });
    asm.branch_to(
        Inst::Bne {
            rs1: S8,
            rs2: Zero,
            offset: 0,
        },
        kloop,
    );
    // out[i, j] = acc
    asm.emit(Inst::Add {
        rd: T0,
        rs1: S3,
        rs2: S7,
    });
    asm.emit(Inst::Sw {
        rs2: S9,
        rs1: T0,
        imm: 0,
    });
    asm.emit(Inst::Addi {
        rd: S7,
        rs1: S7,
        imm: 4,
    });
    asm.jump_to(jloop);
    asm.bind(jdone).expect("fresh");
    asm.emit(Inst::Slli {
        rd: T0,
        rs1: S5,
        shamt: 2,
    });
    asm.emit(Inst::Add {
        rd: S0,
        rs1: S0,
        rs2: T0,
    });
    asm.emit(Inst::Add {
        rd: S3,
        rs1: S3,
        rs2: S6,
    });
    asm.emit(Inst::Addi {
        rd: S4,
        rs1: S4,
        imm: -1,
    });
    asm.jump_to(outer);
    asm.bind(done).expect("fresh");
    epilogue(asm, &saves, frame);
    entry
}

/// Integer matmul, leaf routine (no calls):
/// `a0=A(i16), a1=B(i8 or i16), a2=bias(i32)|0, a3=out(i16), a4=M, a5=K,
/// a6=N, a7=arith-shift`. `wide_b` selects i16 B (activation-activation).
fn emit_matmul_int(asm: &mut Asm, name: &str, wide_b: bool) -> Label {
    let entry = asm.here(name);
    let outer = asm.new_label();
    let done = asm.new_label();
    let jloop = asm.new_label();
    let jdone = asm.new_label();
    let zinit = asm.new_label();
    let k0 = asm.new_label();
    let kloop = asm.new_label();
    let chk_lo = asm.new_label();
    let store_ok = asm.new_label();

    asm.bind(outer).expect("fresh");
    asm.branch_to(
        Inst::Beq {
            rs1: A4,
            rs2: Zero,
            offset: 0,
        },
        done,
    );
    asm.li(T0, 0); // j
    asm.bind(jloop).expect("fresh");
    asm.branch_to(
        Inst::Bgeu {
            rs1: T0,
            rs2: A6,
            offset: 0,
        },
        jdone,
    );
    // acc = bias ? bias[j] : 0
    asm.branch_to(
        Inst::Beq {
            rs1: A2,
            rs2: Zero,
            offset: 0,
        },
        zinit,
    );
    asm.emit(Inst::Slli {
        rd: T5,
        rs1: T0,
        shamt: 2,
    });
    asm.emit(Inst::Add {
        rd: T5,
        rs1: A2,
        rs2: T5,
    });
    asm.emit(Inst::Lw {
        rd: T2,
        rs1: T5,
        imm: 0,
    });
    asm.jump_to(k0);
    asm.bind(zinit).expect("fresh");
    asm.li(T2, 0);
    asm.bind(k0).expect("fresh");
    asm.mv(T1, A5); // k counter
    asm.mv(T3, A0); // pa
    if wide_b {
        asm.emit(Inst::Slli {
            rd: T4,
            rs1: T0,
            shamt: 1,
        });
        asm.emit(Inst::Add {
            rd: T4,
            rs1: A1,
            rs2: T4,
        }); // pw = B + 2j
    } else {
        asm.emit(Inst::Add {
            rd: T4,
            rs1: A1,
            rs2: T0,
        }); // pw = B + j
    }
    asm.bind(kloop).expect("fresh");
    asm.emit(Inst::Lh {
        rd: T5,
        rs1: T3,
        imm: 0,
    });
    if wide_b {
        asm.emit(Inst::Lh {
            rd: T6,
            rs1: T4,
            imm: 0,
        });
    } else {
        asm.emit(Inst::Lb {
            rd: T6,
            rs1: T4,
            imm: 0,
        });
    }
    asm.emit(Inst::Mul {
        rd: T5,
        rs1: T5,
        rs2: T6,
    });
    asm.emit(Inst::Add {
        rd: T2,
        rs1: T2,
        rs2: T5,
    });
    asm.emit(Inst::Addi {
        rd: T3,
        rs1: T3,
        imm: 2,
    });
    if wide_b {
        asm.emit(Inst::Slli {
            rd: T5,
            rs1: A6,
            shamt: 1,
        });
        asm.emit(Inst::Add {
            rd: T4,
            rs1: T4,
            rs2: T5,
        });
    } else {
        asm.emit(Inst::Add {
            rd: T4,
            rs1: T4,
            rs2: A6,
        });
    }
    asm.emit(Inst::Addi {
        rd: T1,
        rs1: T1,
        imm: -1,
    });
    asm.branch_to(
        Inst::Bne {
            rs1: T1,
            rs2: Zero,
            offset: 0,
        },
        kloop,
    );
    // shift back to the activation scale, saturate to i16
    asm.emit(Inst::Sra {
        rd: T2,
        rs1: T2,
        rs2: A7,
    });
    asm.li(T5, 32767);
    asm.branch_to(
        Inst::Bge {
            rs1: T5,
            rs2: T2,
            offset: 0,
        },
        chk_lo,
    );
    asm.mv(T2, T5);
    asm.bind(chk_lo).expect("fresh");
    asm.li(T6, -32768);
    asm.branch_to(
        Inst::Bge {
            rs1: T2,
            rs2: T6,
            offset: 0,
        },
        store_ok,
    );
    asm.mv(T2, T6);
    asm.bind(store_ok).expect("fresh");
    asm.emit(Inst::Slli {
        rd: T5,
        rs1: T0,
        shamt: 1,
    });
    asm.emit(Inst::Add {
        rd: T5,
        rs1: A3,
        rs2: T5,
    });
    asm.emit(Inst::Sh {
        rs2: T2,
        rs1: T5,
        imm: 0,
    });
    asm.emit(Inst::Addi {
        rd: T0,
        rs1: T0,
        imm: 1,
    });
    asm.jump_to(jloop);
    asm.bind(jdone).expect("fresh");
    asm.emit(Inst::Slli {
        rd: T5,
        rs1: A5,
        shamt: 1,
    });
    asm.emit(Inst::Add {
        rd: A0,
        rs1: A0,
        rs2: T5,
    });
    asm.emit(Inst::Slli {
        rd: T5,
        rs1: A6,
        shamt: 1,
    });
    asm.emit(Inst::Add {
        rd: A3,
        rs1: A3,
        rs2: T5,
    });
    asm.emit(Inst::Addi {
        rd: A4,
        rs1: A4,
        imm: -1,
    });
    asm.jump_to(outer);
    asm.bind(done).expect("fresh");
    asm.ret();
    entry
}

/// `add_f32(a0=dst, a1=src, a2=len)` — `dst[i] += src[i]`.
fn emit_add_f32(asm: &mut Asm, sf: &SoftFloat) -> Label {
    let entry = asm.here("k_add_f32");
    let saves = [Ra, S0, S1, S2];
    let frame = prologue(asm, &saves);
    let lp = asm.new_label();
    let done = asm.new_label();
    asm.mv(S0, A0);
    asm.mv(S1, A1);
    asm.mv(S2, A2);
    asm.bind(lp).expect("fresh");
    asm.branch_to(
        Inst::Beq {
            rs1: S2,
            rs2: Zero,
            offset: 0,
        },
        done,
    );
    asm.emit(Inst::Lw {
        rd: A0,
        rs1: S0,
        imm: 0,
    });
    asm.emit(Inst::Lw {
        rd: A1,
        rs1: S1,
        imm: 0,
    });
    asm.call(sf.add);
    asm.emit(Inst::Sw {
        rs2: A0,
        rs1: S0,
        imm: 0,
    });
    asm.emit(Inst::Addi {
        rd: S0,
        rs1: S0,
        imm: 4,
    });
    asm.emit(Inst::Addi {
        rd: S1,
        rs1: S1,
        imm: 4,
    });
    asm.emit(Inst::Addi {
        rd: S2,
        rs1: S2,
        imm: -1,
    });
    asm.jump_to(lp);
    asm.bind(done).expect("fresh");
    epilogue(asm, &saves, frame);
    entry
}

/// `add_sat_i16(a0=dst, a1=src, a2=len)` — saturating halfword add, leaf.
fn emit_add_sat_i16(asm: &mut Asm) -> Label {
    let entry = asm.here("k_add_sat_i16");
    let lp = asm.new_label();
    let done = asm.new_label();
    let chk_lo = asm.new_label();
    let store = asm.new_label();
    asm.bind(lp).expect("fresh");
    asm.branch_to(
        Inst::Beq {
            rs1: A2,
            rs2: Zero,
            offset: 0,
        },
        done,
    );
    asm.emit(Inst::Lh {
        rd: T0,
        rs1: A0,
        imm: 0,
    });
    asm.emit(Inst::Lh {
        rd: T1,
        rs1: A1,
        imm: 0,
    });
    asm.emit(Inst::Add {
        rd: T0,
        rs1: T0,
        rs2: T1,
    });
    asm.li(T2, 32767);
    asm.branch_to(
        Inst::Bge {
            rs1: T2,
            rs2: T0,
            offset: 0,
        },
        chk_lo,
    );
    asm.mv(T0, T2);
    asm.bind(chk_lo).expect("fresh");
    asm.li(T2, -32768);
    asm.branch_to(
        Inst::Bge {
            rs1: T0,
            rs2: T2,
            offset: 0,
        },
        store,
    );
    asm.mv(T0, T2);
    asm.bind(store).expect("fresh");
    asm.emit(Inst::Sh {
        rs2: T0,
        rs1: A0,
        imm: 0,
    });
    asm.emit(Inst::Addi {
        rd: A0,
        rs1: A0,
        imm: 2,
    });
    asm.emit(Inst::Addi {
        rd: A1,
        rs1: A1,
        imm: 2,
    });
    asm.emit(Inst::Addi {
        rd: A2,
        rs1: A2,
        imm: -1,
    });
    asm.jump_to(lp);
    asm.bind(done).expect("fresh");
    asm.ret();
    entry
}

/// `copy_bytes(a0=dst, a1=src, a2=len)` — leaf byte copy.
fn emit_copy_bytes(asm: &mut Asm) -> Label {
    let entry = asm.here("k_copy_bytes");
    let lp = asm.new_label();
    let done = asm.new_label();
    asm.bind(lp).expect("fresh");
    asm.branch_to(
        Inst::Beq {
            rs1: A2,
            rs2: Zero,
            offset: 0,
        },
        done,
    );
    asm.emit(Inst::Lbu {
        rd: T0,
        rs1: A1,
        imm: 0,
    });
    asm.emit(Inst::Sb {
        rs2: T0,
        rs1: A0,
        imm: 0,
    });
    asm.emit(Inst::Addi {
        rd: A0,
        rs1: A0,
        imm: 1,
    });
    asm.emit(Inst::Addi {
        rd: A1,
        rs1: A1,
        imm: 1,
    });
    asm.emit(Inst::Addi {
        rd: A2,
        rs1: A2,
        imm: -1,
    });
    asm.jump_to(lp);
    asm.bind(done).expect("fresh");
    asm.ret();
    entry
}

/// `scale_f32(a0=ptr, a1=len, a2=scale_bits)` — `ptr[i] *= scale`.
fn emit_scale_f32(asm: &mut Asm, sf: &SoftFloat) -> Label {
    let entry = asm.here("k_scale_f32");
    let saves = [Ra, S0, S1, S2];
    let frame = prologue(asm, &saves);
    let lp = asm.new_label();
    let done = asm.new_label();
    asm.mv(S0, A0);
    asm.mv(S1, A1);
    asm.mv(S2, A2);
    asm.bind(lp).expect("fresh");
    asm.branch_to(
        Inst::Beq {
            rs1: S1,
            rs2: Zero,
            offset: 0,
        },
        done,
    );
    asm.emit(Inst::Lw {
        rd: A0,
        rs1: S0,
        imm: 0,
    });
    asm.mv(A1, S2);
    asm.call(sf.mul);
    asm.emit(Inst::Sw {
        rs2: A0,
        rs1: S0,
        imm: 0,
    });
    asm.emit(Inst::Addi {
        rd: S0,
        rs1: S0,
        imm: 4,
    });
    asm.emit(Inst::Addi {
        rd: S1,
        rs1: S1,
        imm: -1,
    });
    asm.jump_to(lp);
    asm.bind(done).expect("fresh");
    epilogue(asm, &saves, frame);
    entry
}

/// `softmax_f32(a0=ptr, a1=len)` — eq. (10): subtract max, `expf`, one
/// soft division, scale.
fn emit_softmax_f32(asm: &mut Asm, sf: &SoftFloat, math: &MathLib) -> Label {
    let entry = asm.here("k_softmax_f32");
    let saves = [Ra, S0, S1, S2, S3, S4, S5];
    let frame = prologue(asm, &saves);
    let l1 = asm.new_label();
    let l1_done = asm.new_label();
    let no_upd = asm.new_label();
    let l2 = asm.new_label();
    let l2_done = asm.new_label();
    let l3 = asm.new_label();
    let l3_done = asm.new_label();

    asm.mv(S0, A0); // ptr
    asm.mv(S1, A1); // len
                    // pass 1: max
    asm.emit(Inst::Lw {
        rd: S3,
        rs1: S0,
        imm: 0,
    }); // max = ptr[0]
    asm.emit(Inst::Addi {
        rd: S2,
        rs1: S0,
        imm: 4,
    });
    asm.emit(Inst::Addi {
        rd: S5,
        rs1: S1,
        imm: -1,
    });
    asm.bind(l1).expect("fresh");
    asm.branch_to(
        Inst::Beq {
            rs1: S5,
            rs2: Zero,
            offset: 0,
        },
        l1_done,
    );
    asm.mv(A0, S3);
    asm.emit(Inst::Lw {
        rd: A1,
        rs1: S2,
        imm: 0,
    });
    asm.call(sf.lt);
    asm.branch_to(
        Inst::Beq {
            rs1: A0,
            rs2: Zero,
            offset: 0,
        },
        no_upd,
    );
    asm.emit(Inst::Lw {
        rd: S3,
        rs1: S2,
        imm: 0,
    });
    asm.bind(no_upd).expect("fresh");
    asm.emit(Inst::Addi {
        rd: S2,
        rs1: S2,
        imm: 4,
    });
    asm.emit(Inst::Addi {
        rd: S5,
        rs1: S5,
        imm: -1,
    });
    asm.jump_to(l1);
    asm.bind(l1_done).expect("fresh");
    // pass 2: exp(x - max), accumulate the sum
    asm.li(S4, 0); // sum = 0.0f
    asm.mv(S2, S0);
    asm.mv(S5, S1);
    asm.bind(l2).expect("fresh");
    asm.branch_to(
        Inst::Beq {
            rs1: S5,
            rs2: Zero,
            offset: 0,
        },
        l2_done,
    );
    asm.emit(Inst::Lw {
        rd: A0,
        rs1: S2,
        imm: 0,
    });
    asm.mv(A1, S3);
    asm.call(sf.sub);
    asm.call(math.expf);
    asm.emit(Inst::Sw {
        rs2: A0,
        rs1: S2,
        imm: 0,
    });
    asm.mv(A1, S4);
    asm.call(sf.add);
    asm.mv(S4, A0);
    asm.emit(Inst::Addi {
        rd: S2,
        rs1: S2,
        imm: 4,
    });
    asm.emit(Inst::Addi {
        rd: S5,
        rs1: S5,
        imm: -1,
    });
    asm.jump_to(l2);
    asm.bind(l2_done).expect("fresh");
    // inv = 1 / sum (the one expensive soft-float division)
    li_f32(asm, A0, 1.0);
    asm.mv(A1, S4);
    asm.call(sf.div);
    asm.mv(S4, A0);
    // pass 3: multiply by inv
    asm.mv(S2, S0);
    asm.mv(S5, S1);
    asm.bind(l3).expect("fresh");
    asm.branch_to(
        Inst::Beq {
            rs1: S5,
            rs2: Zero,
            offset: 0,
        },
        l3_done,
    );
    asm.emit(Inst::Lw {
        rd: A0,
        rs1: S2,
        imm: 0,
    });
    asm.mv(A1, S4);
    asm.call(sf.mul);
    asm.emit(Inst::Sw {
        rs2: A0,
        rs1: S2,
        imm: 0,
    });
    asm.emit(Inst::Addi {
        rd: S2,
        rs1: S2,
        imm: 4,
    });
    asm.emit(Inst::Addi {
        rd: S5,
        rs1: S5,
        imm: -1,
    });
    asm.jump_to(l3);
    asm.bind(l3_done).expect("fresh");
    epilogue(asm, &saves, frame);
    entry
}

/// `softmax_accel(a0=ptr, a1=len)` — leaf, custom-instruction pipeline:
/// `ALU_TO_FIXED` → fixed max → `ALU_EXP` → integer sum → `ALU_INVERT` →
/// Q8.24 multiply → `ALU_TO_FLOAT`.
fn emit_softmax_accel(asm: &mut Asm) -> Label {
    let entry = asm.here("k_softmax_accel");
    let p1 = asm.new_label();
    let p1_done = asm.new_label();
    let no_upd = asm.new_label();
    let p2 = asm.new_label();
    let p2_done = asm.new_label();
    let p3 = asm.new_label();
    let p3_done = asm.new_label();

    // pass 1: to fixed (in place), track max
    asm.mv(T0, A0);
    asm.mv(T1, A1);
    asm.emit(Inst::Lui {
        rd: T2,
        imm: 0x8000_0000u32 as i32,
    }); // min i32
    asm.bind(p1).expect("fresh");
    asm.branch_to(
        Inst::Beq {
            rs1: T1,
            rs2: Zero,
            offset: 0,
        },
        p1_done,
    );
    asm.emit(Inst::Lw {
        rd: T3,
        rs1: T0,
        imm: 0,
    });
    asm.emit(Inst::Custom {
        op: CustomOp::ToFixed,
        rd: T3,
        rs1: T3,
        rs2: Zero,
    });
    asm.emit(Inst::Sw {
        rs2: T3,
        rs1: T0,
        imm: 0,
    });
    asm.branch_to(
        Inst::Bge {
            rs1: T2,
            rs2: T3,
            offset: 0,
        },
        no_upd,
    );
    asm.mv(T2, T3);
    asm.bind(no_upd).expect("fresh");
    asm.emit(Inst::Addi {
        rd: T0,
        rs1: T0,
        imm: 4,
    });
    asm.emit(Inst::Addi {
        rd: T1,
        rs1: T1,
        imm: -1,
    });
    asm.jump_to(p1);
    asm.bind(p1_done).expect("fresh");
    // pass 2: e = ALU_EXP(max - x), sum in plain integer adds
    asm.mv(T0, A0);
    asm.mv(T1, A1);
    asm.li(T4, 0);
    asm.bind(p2).expect("fresh");
    asm.branch_to(
        Inst::Beq {
            rs1: T1,
            rs2: Zero,
            offset: 0,
        },
        p2_done,
    );
    asm.emit(Inst::Lw {
        rd: T3,
        rs1: T0,
        imm: 0,
    });
    asm.emit(Inst::Sub {
        rd: T3,
        rs1: T2,
        rs2: T3,
    }); // z = max - x >= 0
    asm.emit(Inst::Custom {
        op: CustomOp::Exp,
        rd: T3,
        rs1: T3,
        rs2: Zero,
    });
    asm.emit(Inst::Sw {
        rs2: T3,
        rs1: T0,
        imm: 0,
    });
    asm.emit(Inst::Add {
        rd: T4,
        rs1: T4,
        rs2: T3,
    });
    asm.emit(Inst::Addi {
        rd: T0,
        rs1: T0,
        imm: 4,
    });
    asm.emit(Inst::Addi {
        rd: T1,
        rs1: T1,
        imm: -1,
    });
    asm.jump_to(p2);
    asm.bind(p2_done).expect("fresh");
    // invert the sum
    asm.emit(Inst::Custom {
        op: CustomOp::Invert,
        rd: T4,
        rs1: T4,
        rs2: Zero,
    });
    // pass 3: p = e * inv (Q8.24), back to float
    asm.mv(T0, A0);
    asm.mv(T1, A1);
    asm.bind(p3).expect("fresh");
    asm.branch_to(
        Inst::Beq {
            rs1: T1,
            rs2: Zero,
            offset: 0,
        },
        p3_done,
    );
    asm.emit(Inst::Lw {
        rd: T3,
        rs1: T0,
        imm: 0,
    });
    asm.emit(Inst::Mulhu {
        rd: T5,
        rs1: T3,
        rs2: T4,
    });
    asm.emit(Inst::Mul {
        rd: T6,
        rs1: T3,
        rs2: T4,
    });
    asm.emit(Inst::Slli {
        rd: T5,
        rs1: T5,
        shamt: 8,
    });
    asm.emit(Inst::Srli {
        rd: T6,
        rs1: T6,
        shamt: 24,
    });
    asm.emit(Inst::Or {
        rd: T5,
        rs1: T5,
        rs2: T6,
    });
    asm.emit(Inst::Custom {
        op: CustomOp::ToFloat,
        rd: T5,
        rs1: T5,
        rs2: Zero,
    });
    asm.emit(Inst::Sw {
        rs2: T5,
        rs1: T0,
        imm: 0,
    });
    asm.emit(Inst::Addi {
        rd: T0,
        rs1: T0,
        imm: 4,
    });
    asm.emit(Inst::Addi {
        rd: T1,
        rs1: T1,
        imm: -1,
    });
    asm.jump_to(p3);
    asm.bind(p3_done).expect("fresh");
    asm.ret();
    entry
}

/// `gelu_f32(a0=ptr, a1=len)` — scalar exact GELU per element.
fn emit_gelu_f32(asm: &mut Asm, math: &MathLib) -> Label {
    let entry = asm.here("k_gelu_f32");
    let saves = [Ra, S0, S1];
    let frame = prologue(asm, &saves);
    let lp = asm.new_label();
    let done = asm.new_label();
    asm.mv(S0, A0);
    asm.mv(S1, A1);
    asm.bind(lp).expect("fresh");
    asm.branch_to(
        Inst::Beq {
            rs1: S1,
            rs2: Zero,
            offset: 0,
        },
        done,
    );
    asm.emit(Inst::Lw {
        rd: A0,
        rs1: S0,
        imm: 0,
    });
    asm.call(math.gelu);
    asm.emit(Inst::Sw {
        rs2: A0,
        rs1: S0,
        imm: 0,
    });
    asm.emit(Inst::Addi {
        rd: S0,
        rs1: S0,
        imm: 4,
    });
    asm.emit(Inst::Addi {
        rd: S1,
        rs1: S1,
        imm: -1,
    });
    asm.jump_to(lp);
    asm.bind(done).expect("fresh");
    epilogue(asm, &saves, frame);
    entry
}

/// `gelu_accel(a0=ptr, a1=len)` — leaf: TO_FIXED → ALU_GELU → TO_FLOAT.
fn emit_gelu_accel(asm: &mut Asm) -> Label {
    let entry = asm.here("k_gelu_accel");
    let lp = asm.new_label();
    let done = asm.new_label();
    asm.bind(lp).expect("fresh");
    asm.branch_to(
        Inst::Beq {
            rs1: A1,
            rs2: Zero,
            offset: 0,
        },
        done,
    );
    asm.emit(Inst::Lw {
        rd: T0,
        rs1: A0,
        imm: 0,
    });
    asm.emit(Inst::Custom {
        op: CustomOp::ToFixed,
        rd: T0,
        rs1: T0,
        rs2: Zero,
    });
    asm.emit(Inst::Custom {
        op: CustomOp::Gelu,
        rd: T0,
        rs1: T0,
        rs2: Zero,
    });
    asm.emit(Inst::Custom {
        op: CustomOp::ToFloat,
        rd: T0,
        rs1: T0,
        rs2: Zero,
    });
    asm.emit(Inst::Sw {
        rs2: T0,
        rs1: A0,
        imm: 0,
    });
    asm.emit(Inst::Addi {
        rd: A0,
        rs1: A0,
        imm: 4,
    });
    asm.emit(Inst::Addi {
        rd: A1,
        rs1: A1,
        imm: -1,
    });
    asm.jump_to(lp);
    asm.bind(done).expect("fresh");
    asm.ret();
    entry
}

/// `layer_norm_f32(a0=x, a1=gamma, a2=beta, a3=rows, a4=cols,
/// a5=inv_n_bits, a6=eps_bits)` — per-row eqs. (4)–(5), `rsqrtf` for the
/// inverse standard deviation.
fn emit_layer_norm_f32(asm: &mut Asm, sf: &SoftFloat, math: &MathLib) -> Label {
    let entry = asm.here("k_layer_norm_f32");
    let saves = [Ra, S0, S1, S2, S3, S4, S5, S6, S7, S8, S9, S10, S11];
    let frame = prologue(asm, &saves);
    let row_loop = asm.new_label();
    let done = asm.new_label();
    let l1 = asm.new_label();
    let l1d = asm.new_label();
    let l2 = asm.new_label();
    let l2d = asm.new_label();
    let l3 = asm.new_label();
    let l3d = asm.new_label();

    asm.mv(S0, A0); // x row
    asm.mv(S1, A1); // gamma
    asm.mv(S2, A2); // beta
    asm.mv(S3, A3); // rows counter
    asm.mv(S4, A4); // cols
    asm.mv(S5, A5); // inv_n
    asm.mv(S6, A6); // eps
    asm.bind(row_loop).expect("fresh");
    asm.branch_to(
        Inst::Beq {
            rs1: S3,
            rs2: Zero,
            offset: 0,
        },
        done,
    );
    // mean
    asm.li(S8, 0);
    asm.mv(S9, S0);
    asm.mv(S10, S4);
    asm.bind(l1).expect("fresh");
    asm.branch_to(
        Inst::Beq {
            rs1: S10,
            rs2: Zero,
            offset: 0,
        },
        l1d,
    );
    asm.emit(Inst::Lw {
        rd: A0,
        rs1: S9,
        imm: 0,
    });
    asm.mv(A1, S8);
    asm.call(sf.add);
    asm.mv(S8, A0);
    asm.emit(Inst::Addi {
        rd: S9,
        rs1: S9,
        imm: 4,
    });
    asm.emit(Inst::Addi {
        rd: S10,
        rs1: S10,
        imm: -1,
    });
    asm.jump_to(l1);
    asm.bind(l1d).expect("fresh");
    asm.mv(A0, S8);
    asm.mv(A1, S5);
    asm.call(sf.mul);
    asm.mv(S7, A0); // mean
                    // variance
    asm.li(S8, 0);
    asm.mv(S9, S0);
    asm.mv(S10, S4);
    asm.bind(l2).expect("fresh");
    asm.branch_to(
        Inst::Beq {
            rs1: S10,
            rs2: Zero,
            offset: 0,
        },
        l2d,
    );
    asm.emit(Inst::Lw {
        rd: A0,
        rs1: S9,
        imm: 0,
    });
    asm.mv(A1, S7);
    asm.call(sf.sub);
    asm.mv(A1, A0);
    asm.call(sf.mul); // (x-mean)^2
    asm.mv(A1, S8);
    asm.call(sf.add);
    asm.mv(S8, A0);
    asm.emit(Inst::Addi {
        rd: S9,
        rs1: S9,
        imm: 4,
    });
    asm.emit(Inst::Addi {
        rd: S10,
        rs1: S10,
        imm: -1,
    });
    asm.jump_to(l2);
    asm.bind(l2d).expect("fresh");
    asm.mv(A0, S8);
    asm.mv(A1, S5);
    asm.call(sf.mul); // var
    asm.mv(A1, S6);
    asm.call(sf.add); // var + eps
    asm.call(math.rsqrtf);
    asm.mv(S11, A0); // inv_std
                     // normalise the row
    asm.mv(S9, S0);
    asm.mv(S10, S4);
    asm.li(S8, 0); // byte offset into gamma/beta
    asm.bind(l3).expect("fresh");
    asm.branch_to(
        Inst::Beq {
            rs1: S10,
            rs2: Zero,
            offset: 0,
        },
        l3d,
    );
    asm.emit(Inst::Lw {
        rd: A0,
        rs1: S9,
        imm: 0,
    });
    asm.mv(A1, S7);
    asm.call(sf.sub);
    asm.mv(A1, S11);
    asm.call(sf.mul);
    asm.emit(Inst::Add {
        rd: T0,
        rs1: S1,
        rs2: S8,
    });
    asm.emit(Inst::Lw {
        rd: A1,
        rs1: T0,
        imm: 0,
    });
    asm.call(sf.mul);
    asm.emit(Inst::Add {
        rd: T0,
        rs1: S2,
        rs2: S8,
    });
    asm.emit(Inst::Lw {
        rd: A1,
        rs1: T0,
        imm: 0,
    });
    asm.call(sf.add);
    asm.emit(Inst::Sw {
        rs2: A0,
        rs1: S9,
        imm: 0,
    });
    asm.emit(Inst::Addi {
        rd: S9,
        rs1: S9,
        imm: 4,
    });
    asm.emit(Inst::Addi {
        rd: S8,
        rs1: S8,
        imm: 4,
    });
    asm.emit(Inst::Addi {
        rd: S10,
        rs1: S10,
        imm: -1,
    });
    asm.jump_to(l3);
    asm.bind(l3d).expect("fresh");
    asm.emit(Inst::Slli {
        rd: T0,
        rs1: S4,
        shamt: 2,
    });
    asm.emit(Inst::Add {
        rd: S0,
        rs1: S0,
        rs2: T0,
    });
    asm.emit(Inst::Addi {
        rd: S3,
        rs1: S3,
        imm: -1,
    });
    asm.jump_to(row_loop);
    asm.bind(done).expect("fresh");
    epilogue(asm, &saves, frame);
    entry
}

/// `dequant(a0=src i16, a1=dst f32, a2=len, a3=scale_bits 2^-y)`.
fn emit_dequant(asm: &mut Asm, sf: &SoftFloat) -> Label {
    let entry = asm.here("k_dequant");
    let saves = [Ra, S0, S1, S2, S3];
    let frame = prologue(asm, &saves);
    let lp = asm.new_label();
    let done = asm.new_label();
    asm.mv(S0, A0);
    asm.mv(S1, A1);
    asm.mv(S2, A2);
    asm.mv(S3, A3);
    asm.bind(lp).expect("fresh");
    asm.branch_to(
        Inst::Beq {
            rs1: S2,
            rs2: Zero,
            offset: 0,
        },
        done,
    );
    asm.emit(Inst::Lh {
        rd: A0,
        rs1: S0,
        imm: 0,
    });
    asm.call(sf.i2f);
    asm.mv(A1, S3);
    asm.call(sf.mul);
    asm.emit(Inst::Sw {
        rs2: A0,
        rs1: S1,
        imm: 0,
    });
    asm.emit(Inst::Addi {
        rd: S0,
        rs1: S0,
        imm: 2,
    });
    asm.emit(Inst::Addi {
        rd: S1,
        rs1: S1,
        imm: 4,
    });
    asm.emit(Inst::Addi {
        rd: S2,
        rs1: S2,
        imm: -1,
    });
    asm.jump_to(lp);
    asm.bind(done).expect("fresh");
    epilogue(asm, &saves, frame);
    entry
}

/// `requant(a0=src f32, a1=dst i16, a2=len, a3=scale_bits 2^y)` —
/// `floor(x * 2^y)` saturated to i16: the exact host semantics.
fn emit_requant(asm: &mut Asm, sf: &SoftFloat) -> Label {
    let entry = asm.here("k_requant");
    let saves = [Ra, S0, S1, S2, S3];
    let frame = prologue(asm, &saves);
    let lp = asm.new_label();
    let done = asm.new_label();
    let chk_lo = asm.new_label();
    let store = asm.new_label();
    asm.mv(S0, A0);
    asm.mv(S1, A1);
    asm.mv(S2, A2);
    asm.mv(S3, A3);
    asm.bind(lp).expect("fresh");
    asm.branch_to(
        Inst::Beq {
            rs1: S2,
            rs2: Zero,
            offset: 0,
        },
        done,
    );
    asm.emit(Inst::Lw {
        rd: A0,
        rs1: S0,
        imm: 0,
    });
    asm.mv(A1, S3);
    asm.call(sf.mul);
    asm.call(sf.f2i_floor);
    asm.li(T0, 32767);
    asm.branch_to(
        Inst::Bge {
            rs1: T0,
            rs2: A0,
            offset: 0,
        },
        chk_lo,
    );
    asm.mv(A0, T0);
    asm.bind(chk_lo).expect("fresh");
    asm.li(T0, -32768);
    asm.branch_to(
        Inst::Bge {
            rs1: A0,
            rs2: T0,
            offset: 0,
        },
        store,
    );
    asm.mv(A0, T0);
    asm.bind(store).expect("fresh");
    asm.emit(Inst::Sh {
        rs2: A0,
        rs1: S1,
        imm: 0,
    });
    asm.emit(Inst::Addi {
        rd: S0,
        rs1: S0,
        imm: 4,
    });
    asm.emit(Inst::Addi {
        rd: S1,
        rs1: S1,
        imm: 2,
    });
    asm.emit(Inst::Addi {
        rd: S2,
        rs1: S2,
        imm: -1,
    });
    asm.jump_to(lp);
    asm.bind(done).expect("fresh");
    epilogue(asm, &saves, frame);
    entry
}

/// `attention_f32(a0=Q, a1=K, a2=V, a3=out, a4=S, a5=dh, a6=row_buf,
/// a7=scale_bits)` — row-wise SDPA driver (eq. 1 via eq. 10).
fn emit_attention_f32(asm: &mut Asm, matmul: Label, scale: Label, softmax: Label) -> Label {
    use crate::regions::{BLOCK_ATTENTION, OP_MATMUL, OP_OTHER, OP_SOFTMAX};
    let entry = asm.here("k_attention_f32");
    let saves = [Ra, S0, S1, S2, S3, S4, S5, S6, S7, S8, S9, S10];
    let frame = prologue(asm, &saves);
    let row = asm.new_label();
    let done = asm.new_label();

    asm.mv(S0, A0); // Q
    asm.mv(S1, A1); // K
    asm.mv(S2, A2); // V
    asm.mv(S3, A3); // out
    asm.mv(S4, A4); // S
    asm.mv(S5, A5); // dh
    asm.mv(S6, A6); // row buffer
    asm.mv(S7, A7); // scale bits
    asm.mv(S8, S4); // row counter
    asm.mv(S9, S0); // q row ptr
    asm.mv(S10, S3); // out row ptr
    asm.bind(row).expect("fresh");
    asm.branch_to(
        Inst::Beq {
            rs1: S8,
            rs2: Zero,
            offset: 0,
        },
        done,
    );
    // scores_row = K (S x dh) * q_row (dh x 1)
    push_region(asm, BLOCK_ATTENTION | OP_MATMUL);
    asm.mv(A0, S1);
    asm.mv(A1, S9);
    asm.li(A2, 0);
    asm.mv(A3, S6);
    asm.mv(A4, S4);
    asm.mv(A5, S5);
    asm.li(A6, 1);
    asm.call(matmul);
    pop_region(asm);
    // scale by 1/sqrt(dh)
    push_region(asm, BLOCK_ATTENTION | OP_OTHER);
    asm.mv(A0, S6);
    asm.mv(A1, S4);
    asm.mv(A2, S7);
    asm.call(scale);
    pop_region(asm);
    // softmax
    push_region(asm, BLOCK_ATTENTION | OP_SOFTMAX);
    asm.mv(A0, S6);
    asm.mv(A1, S4);
    asm.call(softmax);
    pop_region(asm);
    // out_row = probs (1 x S) * V (S x dh)
    push_region(asm, BLOCK_ATTENTION | OP_MATMUL);
    asm.mv(A0, S6);
    asm.mv(A1, S2);
    asm.li(A2, 0);
    asm.mv(A3, S10);
    asm.li(A4, 1);
    asm.mv(A5, S4);
    asm.mv(A6, S5);
    asm.call(matmul);
    pop_region(asm);
    // advance row pointers
    asm.emit(Inst::Slli {
        rd: T0,
        rs1: S5,
        shamt: 2,
    });
    asm.emit(Inst::Add {
        rd: S9,
        rs1: S9,
        rs2: T0,
    });
    asm.emit(Inst::Add {
        rd: S10,
        rs1: S10,
        rs2: T0,
    });
    asm.emit(Inst::Addi {
        rd: S8,
        rs1: S8,
        imm: -1,
    });
    asm.jump_to(row);
    asm.bind(done).expect("fresh");
    epilogue(asm, &saves, frame);
    entry
}

/// `attention_q(a0=Q, a1=K, a2=V, a3=out, a4=S, a5=dh, a6=row16,
/// a7=params)` — quantised row-wise SDPA with float or LUT softmax
/// (see [`attn_params`]).
#[allow(clippy::too_many_arguments)]
fn emit_attention_q(
    asm: &mut Asm,
    matmul_qq: Label,
    dequant: Label,
    requant: Label,
    scale: Label,
    softmax_f32: Label,
    softmax_accel: Label,
) -> Label {
    use crate::regions::{BLOCK_ATTENTION, OP_MATMUL, OP_OTHER, OP_QUANT, OP_SOFTMAX};
    let entry = asm.here("k_attention_q");
    let saves = [Ra, S0, S1, S2, S3, S4, S5, S6, S7, S8, S9, S10];
    let frame = prologue(asm, &saves);
    let row = asm.new_label();
    let done = asm.new_label();
    let use_accel = asm.new_label();
    let softmax_done = asm.new_label();

    asm.mv(S0, A0); // Q
    asm.mv(S1, A1); // K
    asm.mv(S2, A2); // V
    asm.mv(S3, A3); // out
    asm.mv(S4, A4); // S
    asm.mv(S5, A5); // dh
    asm.mv(S6, A6); // row16
    asm.mv(S7, A7); // params
    asm.mv(S8, S4); // counter
    asm.mv(S9, S0); // q row
    asm.mv(S10, S3); // out row
    asm.bind(row).expect("fresh");
    asm.branch_to(
        Inst::Beq {
            rs1: S8,
            rs2: Zero,
            offset: 0,
        },
        done,
    );
    // scores_row (i16) = K * q_row, shifted back to the activation scale
    push_region(asm, BLOCK_ATTENTION | OP_MATMUL);
    asm.mv(A0, S1);
    asm.mv(A1, S9);
    asm.li(A2, 0);
    asm.mv(A3, S6);
    asm.mv(A4, S4);
    asm.mv(A5, S5);
    asm.li(A6, 1);
    asm.emit(Inst::Lw {
        rd: A7,
        rs1: S7,
        imm: attn_params::SHIFT,
    });
    asm.call(matmul_qq);
    pop_region(asm);
    // dequantise the row to float scratch
    push_region(asm, BLOCK_ATTENTION | OP_QUANT);
    asm.mv(A0, S6);
    asm.emit(Inst::Lw {
        rd: A1,
        rs1: S7,
        imm: attn_params::ROWF,
    });
    asm.mv(A2, S4);
    asm.emit(Inst::Lw {
        rd: A3,
        rs1: S7,
        imm: attn_params::DEQ,
    });
    asm.call(dequant);
    pop_region(asm);
    // scale by 1/sqrt(dh)
    push_region(asm, BLOCK_ATTENTION | OP_OTHER);
    asm.emit(Inst::Lw {
        rd: A0,
        rs1: S7,
        imm: attn_params::ROWF,
    });
    asm.mv(A1, S4);
    asm.emit(Inst::Lw {
        rd: A2,
        rs1: S7,
        imm: attn_params::INV_SQRT_DH,
    });
    asm.call(scale);
    pop_region(asm);
    // softmax (float or LUT)
    push_region(asm, BLOCK_ATTENTION | OP_SOFTMAX);
    asm.emit(Inst::Lw {
        rd: A0,
        rs1: S7,
        imm: attn_params::ROWF,
    });
    asm.mv(A1, S4);
    asm.emit(Inst::Lw {
        rd: T1,
        rs1: S7,
        imm: attn_params::NONLINEARITY,
    });
    asm.branch_to(
        Inst::Bne {
            rs1: T1,
            rs2: Zero,
            offset: 0,
        },
        use_accel,
    );
    asm.call(softmax_f32);
    asm.jump_to(softmax_done);
    asm.bind(use_accel).expect("fresh");
    asm.call(softmax_accel);
    asm.bind(softmax_done).expect("fresh");
    pop_region(asm);
    // requantise probabilities
    push_region(asm, BLOCK_ATTENTION | OP_QUANT);
    asm.emit(Inst::Lw {
        rd: A0,
        rs1: S7,
        imm: attn_params::ROWF,
    });
    asm.mv(A1, S6);
    asm.mv(A2, S4);
    asm.emit(Inst::Lw {
        rd: A3,
        rs1: S7,
        imm: attn_params::REQ,
    });
    asm.call(requant);
    pop_region(asm);
    // out_row = probs (1 x S) * V (S x dh), integer
    push_region(asm, BLOCK_ATTENTION | OP_MATMUL);
    asm.mv(A0, S6);
    asm.mv(A1, S2);
    asm.li(A2, 0);
    asm.mv(A3, S10);
    asm.li(A4, 1);
    asm.mv(A5, S4);
    asm.mv(A6, S5);
    asm.emit(Inst::Lw {
        rd: A7,
        rs1: S7,
        imm: attn_params::SHIFT,
    });
    asm.call(matmul_qq);
    pop_region(asm);
    // advance
    asm.emit(Inst::Slli {
        rd: T0,
        rs1: S5,
        shamt: 1,
    });
    asm.emit(Inst::Add {
        rd: S9,
        rs1: S9,
        rs2: T0,
    });
    asm.emit(Inst::Add {
        rd: S10,
        rs1: S10,
        rs2: T0,
    });
    asm.emit(Inst::Addi {
        rd: S8,
        rs1: S8,
        imm: -1,
    });
    asm.jump_to(row);
    asm.bind(done).expect("fresh");
    epilogue(asm, &saves, frame);
    entry
}

// =====================================================================
// A8W8 kernels: fully-INT8 activations over `kdot4.i8`.
// =====================================================================

/// Byte offsets into the `ln_a8` parameter block.
pub mod a8_ln_params {
    /// f32 bits: stream dequantisation scale (`2^-y`).
    pub const DEQ: i32 = 0;
    /// f32 bits: stream requantisation scale (`2^y'`).
    pub const REQ: i32 = 4;
    /// f32 bits: `1/cols`.
    pub const INV_N: i32 = 8;
    /// f32 bits: layer-norm epsilon.
    pub const EPS: i32 = 12;
    /// u32: float scratch row address (≥ `cols` floats) caching the
    /// dequantised row across the three passes.
    pub const SCRATCH: i32 = 16;
    /// Total block size in bytes.
    pub const SIZE: usize = 20;
}

/// Byte offsets into the `attention_a8` parameter block.
pub mod a8_attn_params {
    /// u32: score epilogue shift (`2·attn_bits − score_bits`).
    pub const SHIFT_SCORES: i32 = 0;
    /// f32 bits: folded score dequantisation,
    /// `2^-score_bits / sqrt(dim_head)`.
    pub const SCORE_DEQ: i32 = 4;
    /// f32 bits: probability requantisation scale (`2^prob_bits`).
    pub const PROB_REQ: i32 = 8;
    /// u32: context epilogue shift (`prob_bits`).
    pub const SHIFT_CTX: i32 = 12;
    /// u32: address of the Q8.24 softmax scratch row (`S` words).
    pub const ROWF: i32 = 16;
    /// u32: address of the padded V-transpose scratch (`dh × KP` i8).
    pub const VT: i32 = 20;
    /// Total block size in bytes.
    pub const SIZE: usize = 24;
}

/// Entry labels of the A8W8 kernel set, the only user of the custom-2
/// packed-MAC extension (the whole point of the i8-activation pipeline
/// is the 4-lane dot).
///
/// Calling conventions (ILP32, all leaf except `ln_a8`/`attention_a8`):
///
/// * `matmul_a8(A:i8, Wt:i8 N×K, bias:i32|0, out:i8, M, K, N, shift)` —
///   weights **transposed** (`N×K` row-major); fast path needs
///   `A % 4 == 0`, `Wt % 4 == 0`, `K % 4 == 0` (16 MACs per unrolled
///   iteration, `ksat.i16` + `kclip 7` epilogue), anything else runs a
///   bit-identical scalar loop over the same layout.
/// * `add_sat_i8(dst, src, len)` — residual add, `kclip 7` clamp.
/// * `dequant8(src:i8, dst:f32, len, scale_bits)` — `kcvt.h2f` +
///   one truncating `kfmul.t` (supports scales below one).
/// * `requant8(src:f32, dst:i8, len, scale_bits)` — `kfmul.t` +
///   `kcvt.f2h` (floor) + `kclip 7`.
/// * `ln_a8(x:i8, gamma, beta, rows, cols, params)` — fused LayerNorm:
///   the row is dequantised once into the scratch row, `rsqrt` is
///   inlined, the write-back requantises (leaf).
/// * `gelu_a8(x:i8, len, deq_bits, req_bits)` — fused LUT GELU boundary.
/// * `attention_a8(Q, K, V, out, row8, params)` — the fused
///   scores→softmax→context row pipeline, **specialised at emit time**
///   for the model's `seqlen`/`dim_head` (see [`a8_attn_params`];
///   `row8` holds `KP = seqlen.next_multiple_of(4)` entries).
#[derive(Debug, Clone, Copy)]
#[allow(missing_docs)]
pub struct A8Kernels {
    pub matmul_a8: Label,
    pub add_sat_i8: Label,
    pub dequant8: Label,
    pub requant8: Label,
    pub ln_a8: Label,
    pub gelu_a8: Label,
    pub attention_a8: Label,
    pub copy_bytes: Label,
    pub copy_strided: Label,
}

impl A8Kernels {
    /// Emits the A8 kernel set. `seqlen` and `dim_head` specialise the
    /// fused attention kernel at emit time (its inner dot products are
    /// fully unrolled); `dim_head % 4 == 0` is required. The set is
    /// self-contained: it needs neither the soft-float library nor
    /// `MathLib` (`ln_a8`'s `rsqrt` is inlined over the packed `kf`
    /// ops), which keeps A8 images small.
    pub fn emit(asm: &mut Asm, seqlen: usize, dim_head: usize) -> A8Kernels {
        assert_eq!(dim_head % 4, 0, "attention_a8 needs dim_head % 4 == 0");
        let kp = (seqlen + 3) & !3;
        let copy_bytes = emit_copy_bytes(asm);
        let copy_strided = emit_copy_strided(asm);
        let matmul_a8 = emit_matmul_a8(asm);
        let add_sat_i8 = emit_add_sat_i8_a8(asm);
        let dequant8 = emit_dequant8(asm);
        let requant8 = emit_requant8(asm);
        let ln_a8 = emit_ln_a8(asm);
        let gelu_a8 = emit_gelu_a8(asm);
        let attention_a8 = emit_attention_a8(asm, seqlen, dim_head, kp);
        A8Kernels {
            matmul_a8,
            add_sat_i8,
            dequant8,
            requant8,
            ln_a8,
            gelu_a8,
            attention_a8,
            copy_bytes,
            copy_strided,
        }
    }
}

/// A8 GEMM over **transposed** weights, leaf:
/// `a0=A(i8, M×K), a1=Wt(i8, N×K), a2=bias(i32)|0, a3=out(i8), a4=M,
/// a5=K, a6=N, a7=shift`.
///
/// Fast path (`A % 4 == 0`, `Wt % 4 == 0`, `K % 4 == 0`, `K > 0`):
/// sixteen MACs per unrolled iteration — four `lw` activation loads,
/// four `lw` weight loads, four `kdot4.i8` accumulates — plus a 4-MAC
/// tail loop and a `ksat.i16` + `kclip 7` epilogue narrowing straight
/// to i8. Other shapes run the scalar loop over the same transposed
/// layout (wrapping i32 accumulation is associative, so results are
/// bit-identical either way).
fn emit_matmul_a8(asm: &mut Asm) -> Label {
    let entry = asm.here("k_matmul_a8");
    let slow = asm.new_label();
    let outer = asm.new_label();
    let done = asm.new_label();
    let jloop = asm.new_label();
    let jdone = asm.new_label();
    let zinit = asm.new_label();
    let k0 = asm.new_label();
    let kloop = asm.new_label();
    let ktail = asm.new_label();
    let tail4 = asm.new_label();
    let kdone = asm.new_label();

    // dispatch: fast path needs A % 4 == 0, Wt % 4 == 0, K % 4 == 0, K > 0
    asm.emit(Inst::Or {
        rd: T0,
        rs1: A0,
        rs2: A1,
    });
    asm.emit(Inst::Andi {
        rd: T0,
        rs1: T0,
        imm: 3,
    });
    asm.emit(Inst::Andi {
        rd: T1,
        rs1: A5,
        imm: 3,
    });
    asm.emit(Inst::Or {
        rd: T0,
        rs1: T0,
        rs2: T1,
    });
    asm.branch_to(
        Inst::Bne {
            rs1: T0,
            rs2: Zero,
            offset: 0,
        },
        slow,
    );
    asm.branch_to(
        Inst::Beq {
            rs1: A5,
            rs2: Zero,
            offset: 0,
        },
        slow,
    );

    asm.bind(outer).expect("fresh");
    asm.branch_to(
        Inst::Beq {
            rs1: A4,
            rs2: Zero,
            offset: 0,
        },
        done,
    );
    asm.mv(T4, A1); // pw walks the whole Wt once per A row
    asm.li(T0, 0); // j
    asm.bind(jloop).expect("fresh");
    asm.branch_to(
        Inst::Bgeu {
            rs1: T0,
            rs2: A6,
            offset: 0,
        },
        jdone,
    );
    asm.branch_to(
        Inst::Beq {
            rs1: A2,
            rs2: Zero,
            offset: 0,
        },
        zinit,
    );
    asm.emit(Inst::Slli {
        rd: T5,
        rs1: T0,
        shamt: 2,
    });
    asm.emit(Inst::Add {
        rd: T5,
        rs1: A2,
        rs2: T5,
    });
    asm.emit(Inst::Lw {
        rd: T2,
        rs1: T5,
        imm: 0,
    });
    asm.jump_to(k0);
    asm.bind(zinit).expect("fresh");
    asm.li(T2, 0);
    asm.bind(k0).expect("fresh");
    // main loop: 16 MACs per iteration, then a 4-MAC tail loop
    asm.emit(Inst::Addi {
        rd: T1,
        rs1: A5,
        imm: -16,
    });
    asm.mv(T3, A0); // pa
    asm.branch_to(
        Inst::Blt {
            rs1: T1,
            rs2: Zero,
            offset: 0,
        },
        ktail,
    );
    asm.bind(kloop).expect("fresh");
    for blk in 0..4 {
        asm.emit(Inst::Lw {
            rd: T5,
            rs1: T3,
            imm: 4 * blk,
        });
        asm.emit(Inst::Lw {
            rd: T6,
            rs1: T4,
            imm: 4 * blk,
        });
        asm.emit(Inst::Packed {
            op: PackedOp::Kdot4I8,
            rd: T2,
            rs1: T5,
            rs2: T6,
        });
    }
    asm.emit(Inst::Addi {
        rd: T3,
        rs1: T3,
        imm: 16,
    });
    asm.emit(Inst::Addi {
        rd: T4,
        rs1: T4,
        imm: 16,
    });
    asm.emit(Inst::Addi {
        rd: T1,
        rs1: T1,
        imm: -16,
    });
    asm.branch_to(
        Inst::Bge {
            rs1: T1,
            rs2: Zero,
            offset: 0,
        },
        kloop,
    );
    asm.bind(ktail).expect("fresh");
    // straight-line tail: the remainder is 0, 4, 8 or 12 — one optional
    // 8-MAC block and one optional 4-MAC block, no loop back-edges
    asm.emit(Inst::Addi {
        rd: T1,
        rs1: T1,
        imm: 16,
    });
    asm.branch_to(
        Inst::Beq {
            rs1: T1,
            rs2: Zero,
            offset: 0,
        },
        kdone,
    );
    asm.emit(Inst::Addi {
        rd: T5,
        rs1: T1,
        imm: -8,
    });
    asm.branch_to(
        Inst::Blt {
            rs1: T5,
            rs2: Zero,
            offset: 0,
        },
        tail4,
    );
    for blk in 0..2 {
        asm.emit(Inst::Lw {
            rd: T5,
            rs1: T3,
            imm: 4 * blk,
        });
        asm.emit(Inst::Lw {
            rd: T6,
            rs1: T4,
            imm: 4 * blk,
        });
        asm.emit(Inst::Packed {
            op: PackedOp::Kdot4I8,
            rd: T2,
            rs1: T5,
            rs2: T6,
        });
    }
    asm.emit(Inst::Addi {
        rd: T3,
        rs1: T3,
        imm: 8,
    });
    asm.emit(Inst::Addi {
        rd: T4,
        rs1: T4,
        imm: 8,
    });
    asm.emit(Inst::Addi {
        rd: T1,
        rs1: T1,
        imm: -8,
    });
    asm.branch_to(
        Inst::Beq {
            rs1: T1,
            rs2: Zero,
            offset: 0,
        },
        kdone,
    );
    asm.bind(tail4).expect("fresh");
    asm.emit(Inst::Lw {
        rd: T5,
        rs1: T3,
        imm: 0,
    });
    asm.emit(Inst::Lw {
        rd: T6,
        rs1: T4,
        imm: 0,
    });
    asm.emit(Inst::Packed {
        op: PackedOp::Kdot4I8,
        rd: T2,
        rs1: T5,
        rs2: T6,
    });
    asm.emit(Inst::Addi {
        rd: T4,
        rs1: T4,
        imm: 4,
    });
    asm.bind(kdone).expect("fresh");
    // shift to the output scale, saturate to i16 then clip to i8, store
    asm.emit(Inst::Packed {
        op: PackedOp::KsatI16,
        rd: T2,
        rs1: T2,
        rs2: A7,
    });
    asm.li(T6, 7);
    asm.emit(Inst::Packed {
        op: PackedOp::Kclip,
        rd: T2,
        rs1: T2,
        rs2: T6,
    });
    asm.emit(Inst::Add {
        rd: T5,
        rs1: A3,
        rs2: T0,
    });
    asm.emit(Inst::Sb {
        rs2: T2,
        rs1: T5,
        imm: 0,
    });
    asm.emit(Inst::Addi {
        rd: T0,
        rs1: T0,
        imm: 1,
    });
    asm.jump_to(jloop);
    asm.bind(jdone).expect("fresh");
    asm.emit(Inst::Add {
        rd: A0,
        rs1: A0,
        rs2: A5,
    });
    asm.emit(Inst::Add {
        rd: A3,
        rs1: A3,
        rs2: A6,
    });
    asm.emit(Inst::Addi {
        rd: A4,
        rs1: A4,
        imm: -1,
    });
    asm.jump_to(outer);
    asm.bind(done).expect("fresh");
    asm.ret();

    // scalar fallback over the same transposed layout (any K, any
    // alignment), identical epilogue.
    let souter = asm.new_label();
    let sdone = asm.new_label();
    let sjloop = asm.new_label();
    let sjdone = asm.new_label();
    let szinit = asm.new_label();
    let sk0 = asm.new_label();
    let skloop = asm.new_label();
    let sepi = asm.new_label();
    asm.bind(slow).expect("fresh");
    asm.bind(souter).expect("fresh");
    asm.branch_to(
        Inst::Beq {
            rs1: A4,
            rs2: Zero,
            offset: 0,
        },
        sdone,
    );
    asm.mv(T4, A1);
    asm.li(T0, 0);
    asm.bind(sjloop).expect("fresh");
    asm.branch_to(
        Inst::Bgeu {
            rs1: T0,
            rs2: A6,
            offset: 0,
        },
        sjdone,
    );
    asm.branch_to(
        Inst::Beq {
            rs1: A2,
            rs2: Zero,
            offset: 0,
        },
        szinit,
    );
    asm.emit(Inst::Slli {
        rd: T5,
        rs1: T0,
        shamt: 2,
    });
    asm.emit(Inst::Add {
        rd: T5,
        rs1: A2,
        rs2: T5,
    });
    asm.emit(Inst::Lw {
        rd: T2,
        rs1: T5,
        imm: 0,
    });
    asm.jump_to(sk0);
    asm.bind(szinit).expect("fresh");
    asm.li(T2, 0);
    asm.bind(sk0).expect("fresh");
    asm.mv(T1, A5);
    asm.mv(T3, A0);
    asm.branch_to(
        Inst::Beq {
            rs1: T1,
            rs2: Zero,
            offset: 0,
        },
        sepi,
    );
    asm.bind(skloop).expect("fresh");
    asm.emit(Inst::Lb {
        rd: T5,
        rs1: T3,
        imm: 0,
    });
    asm.emit(Inst::Lb {
        rd: T6,
        rs1: T4,
        imm: 0,
    });
    asm.emit(Inst::Mul {
        rd: T5,
        rs1: T5,
        rs2: T6,
    });
    asm.emit(Inst::Add {
        rd: T2,
        rs1: T2,
        rs2: T5,
    });
    asm.emit(Inst::Addi {
        rd: T3,
        rs1: T3,
        imm: 1,
    });
    asm.emit(Inst::Addi {
        rd: T4,
        rs1: T4,
        imm: 1,
    });
    asm.emit(Inst::Addi {
        rd: T1,
        rs1: T1,
        imm: -1,
    });
    asm.branch_to(
        Inst::Bne {
            rs1: T1,
            rs2: Zero,
            offset: 0,
        },
        skloop,
    );
    asm.bind(sepi).expect("fresh");
    asm.emit(Inst::Packed {
        op: PackedOp::KsatI16,
        rd: T2,
        rs1: T2,
        rs2: A7,
    });
    asm.li(T6, 7);
    asm.emit(Inst::Packed {
        op: PackedOp::Kclip,
        rd: T2,
        rs1: T2,
        rs2: T6,
    });
    asm.emit(Inst::Add {
        rd: T5,
        rs1: A3,
        rs2: T0,
    });
    asm.emit(Inst::Sb {
        rs2: T2,
        rs1: T5,
        imm: 0,
    });
    asm.emit(Inst::Addi {
        rd: T0,
        rs1: T0,
        imm: 1,
    });
    asm.jump_to(sjloop);
    asm.bind(sjdone).expect("fresh");
    asm.emit(Inst::Add {
        rd: A0,
        rs1: A0,
        rs2: A5,
    });
    asm.emit(Inst::Add {
        rd: A3,
        rs1: A3,
        rs2: A6,
    });
    asm.emit(Inst::Addi {
        rd: A4,
        rs1: A4,
        imm: -1,
    });
    asm.jump_to(souter);
    asm.bind(sdone).expect("fresh");
    asm.ret();
    entry
}

/// `add_sat_i8(a0=dst, a1=src, a2=len)` — saturating byte residual add,
/// the branchy clamp collapsed into one `kclip 7`, leaf.
fn emit_add_sat_i8_a8(asm: &mut Asm) -> Label {
    let entry = asm.here("k_add_sat_i8");
    let lp = asm.new_label();
    let done = asm.new_label();
    asm.branch_to(
        Inst::Beq {
            rs1: A2,
            rs2: Zero,
            offset: 0,
        },
        done,
    );
    asm.li(T2, 7);
    asm.bind(lp).expect("fresh");
    asm.emit(Inst::Lb {
        rd: T0,
        rs1: A0,
        imm: 0,
    });
    asm.emit(Inst::Lb {
        rd: T1,
        rs1: A1,
        imm: 0,
    });
    asm.emit(Inst::Add {
        rd: T0,
        rs1: T0,
        rs2: T1,
    });
    asm.emit(Inst::Packed {
        op: PackedOp::Kclip,
        rd: T0,
        rs1: T0,
        rs2: T2,
    });
    asm.emit(Inst::Sb {
        rs2: T0,
        rs1: A0,
        imm: 0,
    });
    asm.emit(Inst::Addi {
        rd: A0,
        rs1: A0,
        imm: 1,
    });
    asm.emit(Inst::Addi {
        rd: A1,
        rs1: A1,
        imm: 1,
    });
    asm.emit(Inst::Addi {
        rd: A2,
        rs1: A2,
        imm: -1,
    });
    asm.branch_to(
        Inst::Bne {
            rs1: A2,
            rs2: Zero,
            offset: 0,
        },
        lp,
    );
    asm.bind(done).expect("fresh");
    asm.ret();
    entry
}

/// `dequant8(a0=src i8, a1=dst f32, a2=len, a3=scale_bits)` — leaf:
/// `kcvt.h2f` shift-0 (exact int→float) then one truncating `kfmul.t`
/// by an arbitrary power-of-two scale (which may be below one — the A8
/// stream exponents are signed).
fn emit_dequant8(asm: &mut Asm) -> Label {
    let entry = asm.here("k_dequant8");
    let lp = asm.new_label();
    let done = asm.new_label();
    asm.branch_to(
        Inst::Beq {
            rs1: A2,
            rs2: Zero,
            offset: 0,
        },
        done,
    );
    asm.bind(lp).expect("fresh");
    asm.emit(Inst::Lb {
        rd: T2,
        rs1: A0,
        imm: 0,
    });
    asm.emit(Inst::Packed {
        op: PackedOp::KcvtH2F,
        rd: T2,
        rs1: T2,
        rs2: Zero,
    });
    asm.emit(Inst::Packed {
        op: PackedOp::KfmulT,
        rd: T2,
        rs1: T2,
        rs2: A3,
    });
    asm.emit(Inst::Sw {
        rs2: T2,
        rs1: A1,
        imm: 0,
    });
    asm.emit(Inst::Addi {
        rd: A0,
        rs1: A0,
        imm: 1,
    });
    asm.emit(Inst::Addi {
        rd: A1,
        rs1: A1,
        imm: 4,
    });
    asm.emit(Inst::Addi {
        rd: A2,
        rs1: A2,
        imm: -1,
    });
    asm.branch_to(
        Inst::Bne {
            rs1: A2,
            rs2: Zero,
            offset: 0,
        },
        lp,
    );
    asm.bind(done).expect("fresh");
    asm.ret();
    entry
}

/// `requant8(a0=src f32, a1=dst i8, a2=len, a3=scale_bits)` — leaf:
/// truncating `kfmul.t` by the scale, `kcvt.f2h` shift-0 (floor,
/// saturate to i16), `kclip 7` to the i8 range.
fn emit_requant8(asm: &mut Asm) -> Label {
    let entry = asm.here("k_requant8");
    let lp = asm.new_label();
    let done = asm.new_label();
    asm.branch_to(
        Inst::Beq {
            rs1: A2,
            rs2: Zero,
            offset: 0,
        },
        done,
    );
    asm.li(T5, 7);
    asm.bind(lp).expect("fresh");
    asm.emit(Inst::Lw {
        rd: T2,
        rs1: A0,
        imm: 0,
    });
    asm.emit(Inst::Packed {
        op: PackedOp::KfmulT,
        rd: T2,
        rs1: T2,
        rs2: A3,
    });
    asm.emit(Inst::Packed {
        op: PackedOp::KcvtF2H,
        rd: T2,
        rs1: T2,
        rs2: Zero,
    });
    asm.emit(Inst::Packed {
        op: PackedOp::Kclip,
        rd: T2,
        rs1: T2,
        rs2: T5,
    });
    asm.emit(Inst::Sb {
        rs2: T2,
        rs1: A1,
        imm: 0,
    });
    asm.emit(Inst::Addi {
        rd: A0,
        rs1: A0,
        imm: 4,
    });
    asm.emit(Inst::Addi {
        rd: A1,
        rs1: A1,
        imm: 1,
    });
    asm.emit(Inst::Addi {
        rd: A2,
        rs1: A2,
        imm: -1,
    });
    asm.branch_to(
        Inst::Bne {
            rs1: A2,
            rs2: Zero,
            offset: 0,
        },
        lp,
    );
    asm.bind(done).expect("fresh");
    asm.ret();
    entry
}

/// `gelu_a8(a0=x i8, a1=len, a2=deq_bits, a3=req_bits)` — leaf: the
/// whole GELU boundary fused into one loop per element — dequantise
/// (`kcvt.h2f` + `kfmul.t`), the Q8.24 LUT pipeline (`ALU_TO_FIXED` →
/// `ALU_GELU` → `ALU_TO_FLOAT`), requantise (`kfmul.t` + `kcvt.f2h` +
/// `kclip 7`). No float scratch row, no calls.
fn emit_gelu_a8(asm: &mut Asm) -> Label {
    let entry = asm.here("k_gelu_a8");
    let lp = asm.new_label();
    let done = asm.new_label();
    asm.branch_to(
        Inst::Beq {
            rs1: A1,
            rs2: Zero,
            offset: 0,
        },
        done,
    );
    asm.li(T4, 7);
    asm.bind(lp).expect("fresh");
    asm.emit(Inst::Lb {
        rd: T0,
        rs1: A0,
        imm: 0,
    });
    asm.emit(Inst::Packed {
        op: PackedOp::KcvtH2F,
        rd: T0,
        rs1: T0,
        rs2: Zero,
    });
    asm.emit(Inst::Packed {
        op: PackedOp::KfmulT,
        rd: T0,
        rs1: T0,
        rs2: A2,
    });
    asm.emit(Inst::Custom {
        op: CustomOp::ToFixed,
        rd: T0,
        rs1: T0,
        rs2: Zero,
    });
    asm.emit(Inst::Custom {
        op: CustomOp::Gelu,
        rd: T0,
        rs1: T0,
        rs2: Zero,
    });
    asm.emit(Inst::Custom {
        op: CustomOp::ToFloat,
        rd: T0,
        rs1: T0,
        rs2: Zero,
    });
    asm.emit(Inst::Packed {
        op: PackedOp::KfmulT,
        rd: T0,
        rs1: T0,
        rs2: A3,
    });
    asm.emit(Inst::Packed {
        op: PackedOp::KcvtF2H,
        rd: T0,
        rs1: T0,
        rs2: Zero,
    });
    asm.emit(Inst::Packed {
        op: PackedOp::Kclip,
        rd: T0,
        rs1: T0,
        rs2: T4,
    });
    asm.emit(Inst::Sb {
        rs2: T0,
        rs1: A0,
        imm: 0,
    });
    asm.emit(Inst::Addi {
        rd: A0,
        rs1: A0,
        imm: 1,
    });
    asm.emit(Inst::Addi {
        rd: A1,
        rs1: A1,
        imm: -1,
    });
    asm.branch_to(
        Inst::Bne {
            rs1: A1,
            rs2: Zero,
            offset: 0,
        },
        lp,
    );
    asm.bind(done).expect("fresh");
    asm.ret();
    entry
}

/// `ln_a8(a0=x i8, a1=gamma, a2=beta, a3=rows, a4=cols, a5=params)` —
/// fused quantised LayerNorm, **leaf**: pass 1 dequantises the row once
/// (`kcvt.h2f` + `kfmul.t`) into the float scratch row while summing,
/// passes 2–3 re-read the cached floats, the inverse standard deviation
/// is the math library's `rsqrtf` sequence inlined over `kfmul.t` /
/// `kfadd.t` (bit-identical — same magic seed and Newton steps, see
/// [`kwt_tensor::softfp::rsqrt`]), and the write-back requantises
/// straight to i8.
fn emit_ln_a8(asm: &mut Asm) -> Label {
    use PackedOp::{Kclip, KcvtF2H, KcvtH2F, KfaddT, KfmulT, KfsubT};
    let entry = asm.here("k_ln_a8");
    let saves = [S0, S1, S2, S3, S4, S5, S6, S7, S8, S9, S10, S11];
    let frame = prologue(asm, &saves);
    let row_loop = asm.new_label();
    let done = asm.new_label();
    let l1 = asm.new_label();
    let l1d = asm.new_label();
    let l2 = asm.new_label();
    let l2d = asm.new_label();
    let l3 = asm.new_label();
    let l3d = asm.new_label();

    asm.mv(S0, A0); // x row
    asm.mv(S1, A1); // gamma
    asm.mv(S2, A2); // beta
    asm.mv(S3, A3); // rows counter
    asm.mv(S4, A4); // cols
    asm.mv(S5, A5); // params
    asm.emit(Inst::Lw {
        rd: S6,
        rs1: S5,
        imm: a8_ln_params::DEQ,
    });
    // leaf: hoist every per-row constant into the argument registers
    asm.emit(Inst::Lw {
        rd: A0,
        rs1: S5,
        imm: a8_ln_params::SCRATCH,
    });
    asm.emit(Inst::Lw {
        rd: A1,
        rs1: S5,
        imm: a8_ln_params::REQ,
    });
    asm.emit(Inst::Lw {
        rd: A2,
        rs1: S5,
        imm: a8_ln_params::INV_N,
    });
    asm.emit(Inst::Lw {
        rd: A3,
        rs1: S5,
        imm: a8_ln_params::EPS,
    });
    li_f32(asm, A4, 1.5);
    li_f32(asm, A5, 0.5);
    asm.emit(Inst::Lui {
        rd: A6,
        imm: 0x8000_0000u32 as i32,
    }); // sign bit
    asm.li(A7, 0x5F37_59DFu32 as i32); // rsqrt magic seed
    asm.li(T3, 7);
    asm.bind(row_loop).expect("fresh");
    asm.branch_to(
        Inst::Beq {
            rs1: S3,
            rs2: Zero,
            offset: 0,
        },
        done,
    );
    // pass 1: cache conv(x) in the scratch row, sum → mean
    asm.li(S8, 0);
    asm.mv(S9, S0);
    asm.mv(S11, A0); // scratch ptr
    asm.mv(S10, S4);
    asm.branch_to(
        Inst::Beq {
            rs1: S10,
            rs2: Zero,
            offset: 0,
        },
        l1d,
    );
    asm.bind(l1).expect("fresh");
    asm.emit(Inst::Lb {
        rd: T1,
        rs1: S9,
        imm: 0,
    });
    asm.emit(Inst::Packed {
        op: KcvtH2F,
        rd: T1,
        rs1: T1,
        rs2: Zero,
    });
    asm.emit(Inst::Packed {
        op: KfmulT,
        rd: T1,
        rs1: T1,
        rs2: S6,
    });
    asm.emit(Inst::Sw {
        rs2: T1,
        rs1: S11,
        imm: 0,
    });
    asm.emit(Inst::Packed {
        op: KfaddT,
        rd: S8,
        rs1: T1,
        rs2: S8,
    });
    asm.emit(Inst::Addi {
        rd: S9,
        rs1: S9,
        imm: 1,
    });
    asm.emit(Inst::Addi {
        rd: S11,
        rs1: S11,
        imm: 4,
    });
    asm.emit(Inst::Addi {
        rd: S10,
        rs1: S10,
        imm: -1,
    });
    asm.branch_to(
        Inst::Bne {
            rs1: S10,
            rs2: Zero,
            offset: 0,
        },
        l1,
    );
    asm.bind(l1d).expect("fresh");
    asm.emit(Inst::Packed {
        op: KfmulT,
        rd: S7,
        rs1: S8,
        rs2: A2,
    }); // mean
        // pass 2: var = (Σ (x̂ - mean)²) * inv_n
    asm.li(S8, 0);
    asm.mv(S11, A0);
    asm.mv(S10, S4);
    asm.branch_to(
        Inst::Beq {
            rs1: S10,
            rs2: Zero,
            offset: 0,
        },
        l2d,
    );
    asm.bind(l2).expect("fresh");
    asm.emit(Inst::Lw {
        rd: T1,
        rs1: S11,
        imm: 0,
    });
    asm.emit(Inst::Packed {
        op: KfsubT,
        rd: T1,
        rs1: T1,
        rs2: S7,
    });
    asm.emit(Inst::Packed {
        op: KfmulT,
        rd: T1,
        rs1: T1,
        rs2: T1,
    });
    asm.emit(Inst::Packed {
        op: KfaddT,
        rd: S8,
        rs1: T1,
        rs2: S8,
    });
    asm.emit(Inst::Addi {
        rd: S11,
        rs1: S11,
        imm: 4,
    });
    asm.emit(Inst::Addi {
        rd: S10,
        rs1: S10,
        imm: -1,
    });
    asm.branch_to(
        Inst::Bne {
            rs1: S10,
            rs2: Zero,
            offset: 0,
        },
        l2,
    );
    asm.bind(l2d).expect("fresh");
    asm.emit(Inst::Packed {
        op: KfmulT,
        rd: T0,
        rs1: S8,
        rs2: A2,
    }); // var
    asm.emit(Inst::Packed {
        op: KfaddT,
        rd: T0,
        rs1: T0,
        rs2: A3,
    }); // + eps
        // inline rsqrt (the math library sequence, call-free):
        // xhalf = x*0.5; y = magic - (x>>1); 3 × y *= 1.5 - xhalf*y*y
    asm.emit(Inst::Packed {
        op: KfmulT,
        rd: T1,
        rs1: T0,
        rs2: A5,
    }); // xhalf
    asm.emit(Inst::Srli {
        rd: T2,
        rs1: T0,
        shamt: 1,
    });
    asm.emit(Inst::Sub {
        rd: T0,
        rs1: A7,
        rs2: T2,
    }); // y
    for _ in 0..3 {
        asm.emit(Inst::Packed {
            op: KfmulT,
            rd: T2,
            rs1: T0,
            rs2: T0,
        }); // y²
        asm.emit(Inst::Packed {
            op: KfmulT,
            rd: T2,
            rs1: T2,
            rs2: T1,
        }); // xhalf·y²
        asm.emit(Inst::Xor {
            rd: T2,
            rs1: T2,
            rs2: A6,
        }); // negate
        asm.emit(Inst::Packed {
            op: KfaddT,
            rd: T2,
            rs1: A4,
            rs2: T2,
        }); // 1.5 - …
        asm.emit(Inst::Packed {
            op: KfmulT,
            rd: T0,
            rs1: T2,
            rs2: T0,
        }); // y
    }
    asm.mv(S11, T0); // inv_std
                     // pass 3: x = requant(((x̂ - mean) * inv_std) * gamma + beta)
    asm.mv(S9, S0);
    asm.mv(S10, S4);
    asm.li(S8, 0); // byte offset into gamma/beta/scratch
    asm.branch_to(
        Inst::Beq {
            rs1: S10,
            rs2: Zero,
            offset: 0,
        },
        l3d,
    );
    asm.bind(l3).expect("fresh");
    asm.emit(Inst::Add {
        rd: T0,
        rs1: A0,
        rs2: S8,
    });
    asm.emit(Inst::Lw {
        rd: T1,
        rs1: T0,
        imm: 0,
    });
    asm.emit(Inst::Packed {
        op: KfsubT,
        rd: T1,
        rs1: T1,
        rs2: S7,
    });
    asm.emit(Inst::Packed {
        op: KfmulT,
        rd: T1,
        rs1: T1,
        rs2: S11,
    });
    asm.emit(Inst::Add {
        rd: T0,
        rs1: S1,
        rs2: S8,
    });
    asm.emit(Inst::Lw {
        rd: T2,
        rs1: T0,
        imm: 0,
    });
    asm.emit(Inst::Packed {
        op: KfmulT,
        rd: T1,
        rs1: T1,
        rs2: T2,
    });
    asm.emit(Inst::Add {
        rd: T0,
        rs1: S2,
        rs2: S8,
    });
    asm.emit(Inst::Lw {
        rd: T2,
        rs1: T0,
        imm: 0,
    });
    asm.emit(Inst::Packed {
        op: KfaddT,
        rd: T1,
        rs1: T1,
        rs2: T2,
    });
    asm.emit(Inst::Packed {
        op: KfmulT,
        rd: T1,
        rs1: T1,
        rs2: A1,
    });
    asm.emit(Inst::Packed {
        op: KcvtF2H,
        rd: T1,
        rs1: T1,
        rs2: Zero,
    });
    asm.emit(Inst::Packed {
        op: Kclip,
        rd: T1,
        rs1: T1,
        rs2: T3,
    });
    asm.emit(Inst::Sb {
        rs2: T1,
        rs1: S9,
        imm: 0,
    });
    asm.emit(Inst::Addi {
        rd: S9,
        rs1: S9,
        imm: 1,
    });
    asm.emit(Inst::Addi {
        rd: S8,
        rs1: S8,
        imm: 4,
    });
    asm.emit(Inst::Addi {
        rd: S10,
        rs1: S10,
        imm: -1,
    });
    asm.branch_to(
        Inst::Bne {
            rs1: S10,
            rs2: Zero,
            offset: 0,
        },
        l3,
    );
    asm.bind(l3d).expect("fresh");
    asm.emit(Inst::Add {
        rd: S0,
        rs1: S0,
        rs2: S4,
    });
    asm.emit(Inst::Addi {
        rd: S3,
        rs1: S3,
        imm: -1,
    });
    asm.jump_to(row_loop);
    asm.bind(done).expect("fresh");
    epilogue(asm, &saves, frame);
    entry
}

/// `attention_a8(a0=Q, a1=K, a2=V, a3=out, a4=row8, a5=params)` — the
/// fused scores→softmax→context row pipeline, **specialised at emit
/// time** for one `(seqlen, dim_head)` geometry (see
/// [`a8_attn_params`]), leaf.
///
/// One call covers a whole head, and per query row *everything* is
/// inlined — there are no per-row calls at all:
///
/// 1. **scores** — `S` fully-unrolled `kdot4.i8` dot products
///    (`dh/4` packed MACs each, offset-addressed), `ksat.i16` +
///    `kclip 7` epilogues narrowing into the i8 score row;
/// 2. **softmax** — the Q8.24 LUT pipeline with the quantisation
///    boundaries *fused into its own passes*: pass 1 converts each i8
///    score straight through `kcvt.h2f` → `kfmul.t`(2^-y/√dh) →
///    `ALU_TO_FIXED` into the Q8.24 scratch row while tracking the
///    maximum; pass 2 is `ALU_EXP` + the integer sum; pass 3 multiplies
///    by `ALU_INVERT`'s reciprocal and requantises each probability in
///    place (`ALU_TO_FLOAT` → `kfmul.t` → `kcvt.f2h` → `kclip 7`) —
///    the float probability row never exists in memory;
/// 3. **context** — `dh` fully-unrolled `kdot4.i8` products of the
///    padded `Vᵀ` rows against the i8 probability row.
///
/// The arithmetic is exactly the de-fused sequence (host model:
/// `fixed_softmax` over the dequantised scores, then per-element
/// requantisation), so logits stay bit-identical to the golden model.
/// Requires 4-aligned Q/K/V/VT rows (`dh % 4 == 0`, the image builder
/// guarantees alignment); `row8` holds `KP = S.next_multiple_of(4)`
/// entries whose tail is zeroed once, so the padded context lanes
/// contribute nothing.
fn emit_attention_a8(asm: &mut Asm, s: usize, dh: usize, kp: usize) -> Label {
    use crate::regions::{BLOCK_ATTENTION, OP_MATMUL, OP_OTHER, OP_SOFTMAX};
    let entry = asm.here("k_attention_a8");
    let saves = [S0, S1, S2, S3, S4, S5, S6, S7, S8, S9, S10, S11];
    let frame = prologue(asm, &saves);
    let row = asm.new_label();
    let done = asm.new_label();

    asm.mv(S0, A0); // Q
    asm.mv(S1, A1); // K
    asm.mv(S2, A2); // V
    asm.mv(S3, A3); // out
    asm.mv(S4, A4); // row8 (KP entries)
    asm.mv(S5, A5); // params
                    // leaf: hoist the per-row constants
    asm.emit(Inst::Lw {
        rd: S6,
        rs1: S5,
        imm: a8_attn_params::ROWF,
    });
    asm.emit(Inst::Lw {
        rd: S7,
        rs1: S5,
        imm: a8_attn_params::SCORE_DEQ,
    });
    asm.emit(Inst::Lw {
        rd: S8,
        rs1: S5,
        imm: a8_attn_params::PROB_REQ,
    });
    asm.emit(Inst::Lw {
        rd: A6,
        rs1: S5,
        imm: a8_attn_params::SHIFT_SCORES,
    });
    asm.emit(Inst::Lw {
        rd: A7,
        rs1: S5,
        imm: a8_attn_params::SHIFT_CTX,
    });
    asm.li(A4, 7); // kclip range operand

    // ---- preamble: VT[j, l] = V[l, j] (i8), columns S..KP zeroed ----
    let tj = asm.new_label();
    let tk = asm.new_label();
    push_region(asm, BLOCK_ATTENTION | OP_OTHER);
    asm.emit(Inst::Lw {
        rd: A5,
        rs1: S5,
        imm: a8_attn_params::VT,
    });
    asm.li(T2, 0); // j
    asm.bind(tj).expect("fresh");
    asm.emit(Inst::Add {
        rd: T3,
        rs1: S2,
        rs2: T2,
    }); // src = V + j
    asm.li(T4, kp as i32);
    asm.emit(Inst::Mul {
        rd: T4,
        rs1: T2,
        rs2: T4,
    });
    asm.emit(Inst::Add {
        rd: T4,
        rs1: A5,
        rs2: T4,
    }); // dst = VT + j*KP
    asm.li(T5, s as i32); // l counter
    asm.bind(tk).expect("fresh");
    asm.emit(Inst::Lb {
        rd: T6,
        rs1: T3,
        imm: 0,
    });
    asm.emit(Inst::Sb {
        rs2: T6,
        rs1: T4,
        imm: 0,
    });
    asm.emit(Inst::Addi {
        rd: T3,
        rs1: T3,
        imm: dh as i32,
    }); // next V row
    asm.emit(Inst::Addi {
        rd: T4,
        rs1: T4,
        imm: 1,
    });
    asm.emit(Inst::Addi {
        rd: T5,
        rs1: T5,
        imm: -1,
    });
    asm.branch_to(
        Inst::Bne {
            rs1: T5,
            rs2: Zero,
            offset: 0,
        },
        tk,
    );
    for _ in s..kp {
        asm.emit(Inst::Sb {
            rs2: Zero,
            rs1: T4,
            imm: 0,
        });
        asm.emit(Inst::Addi {
            rd: T4,
            rs1: T4,
            imm: 1,
        });
    }
    asm.emit(Inst::Addi {
        rd: T2,
        rs1: T2,
        imm: 1,
    });
    asm.li(T5, dh as i32);
    asm.branch_to(
        Inst::Bltu {
            rs1: T2,
            rs2: T5,
            offset: 0,
        },
        tj,
    );
    // zero the probability pad tail once
    for pad in s..kp {
        asm.emit(Inst::Sb {
            rs2: Zero,
            rs1: S4,
            imm: pad as i32,
        });
    }
    pop_region(asm);

    asm.li(S11, s as i32); // row counter
    asm.mv(S9, S0); // q row ptr
    asm.mv(S10, S3); // out row ptr
    asm.bind(row).expect("fresh");

    // 1. scores: row8[j] = clip(sat((q_row · k_row_j) >> shift_s))
    let sj = asm.new_label();
    push_region(asm, BLOCK_ATTENTION | OP_MATMUL);
    asm.mv(T0, S1); // k row ptr
    asm.mv(T1, S4); // score out ptr
    asm.li(T2, s as i32); // j counter
    asm.bind(sj).expect("fresh");
    asm.li(T3, 0); // acc
    emit::dot4_i8_unrolled(asm, T3, S9, T0, T4, T5, dh / 4, 0, 0);
    emit::sat_clip_i8(asm, T3, A6, A4);
    asm.emit(Inst::Sb {
        rs2: T3,
        rs1: T1,
        imm: 0,
    });
    asm.emit(Inst::Addi {
        rd: T0,
        rs1: T0,
        imm: dh as i32,
    });
    asm.emit(Inst::Addi {
        rd: T1,
        rs1: T1,
        imm: 1,
    });
    asm.emit(Inst::Addi {
        rd: T2,
        rs1: T2,
        imm: -1,
    });
    asm.branch_to(
        Inst::Bne {
            rs1: T2,
            rs2: Zero,
            offset: 0,
        },
        sj,
    );
    pop_region(asm);

    // 2. fused Q8.24 softmax: i8 scores in, i8 probabilities out
    let p1 = asm.new_label();
    let no_upd = asm.new_label();
    let p2 = asm.new_label();
    let p3 = asm.new_label();
    push_region(asm, BLOCK_ATTENTION | OP_SOFTMAX);
    // pass 1: fixed = TO_FIXED(conv(score) * deq), track the maximum
    asm.mv(T0, S4); // score ptr
    asm.mv(T1, S6); // Q8.24 row ptr
    asm.li(T2, s as i32);
    asm.emit(Inst::Lui {
        rd: T3,
        imm: 0x8000_0000u32 as i32,
    }); // max = i32::MIN
    asm.bind(p1).expect("fresh");
    asm.emit(Inst::Lb {
        rd: T4,
        rs1: T0,
        imm: 0,
    });
    asm.emit(Inst::Packed {
        op: PackedOp::KcvtH2F,
        rd: T4,
        rs1: T4,
        rs2: Zero,
    });
    asm.emit(Inst::Packed {
        op: PackedOp::KfmulT,
        rd: T4,
        rs1: T4,
        rs2: S7,
    });
    asm.emit(Inst::Custom {
        op: CustomOp::ToFixed,
        rd: T4,
        rs1: T4,
        rs2: Zero,
    });
    asm.emit(Inst::Sw {
        rs2: T4,
        rs1: T1,
        imm: 0,
    });
    asm.branch_to(
        Inst::Bge {
            rs1: T3,
            rs2: T4,
            offset: 0,
        },
        no_upd,
    );
    asm.mv(T3, T4);
    asm.bind(no_upd).expect("fresh");
    asm.emit(Inst::Addi {
        rd: T0,
        rs1: T0,
        imm: 1,
    });
    asm.emit(Inst::Addi {
        rd: T1,
        rs1: T1,
        imm: 4,
    });
    asm.emit(Inst::Addi {
        rd: T2,
        rs1: T2,
        imm: -1,
    });
    asm.branch_to(
        Inst::Bne {
            rs1: T2,
            rs2: Zero,
            offset: 0,
        },
        p1,
    );
    // pass 2: e = ALU_EXP(max - x), integer sum
    asm.mv(T1, S6);
    asm.li(T2, s as i32);
    asm.li(T5, 0); // sum
    asm.bind(p2).expect("fresh");
    asm.emit(Inst::Lw {
        rd: T4,
        rs1: T1,
        imm: 0,
    });
    asm.emit(Inst::Sub {
        rd: T4,
        rs1: T3,
        rs2: T4,
    });
    asm.emit(Inst::Custom {
        op: CustomOp::Exp,
        rd: T4,
        rs1: T4,
        rs2: Zero,
    });
    asm.emit(Inst::Sw {
        rs2: T4,
        rs1: T1,
        imm: 0,
    });
    asm.emit(Inst::Add {
        rd: T5,
        rs1: T5,
        rs2: T4,
    });
    asm.emit(Inst::Addi {
        rd: T1,
        rs1: T1,
        imm: 4,
    });
    asm.emit(Inst::Addi {
        rd: T2,
        rs1: T2,
        imm: -1,
    });
    asm.branch_to(
        Inst::Bne {
            rs1: T2,
            rs2: Zero,
            offset: 0,
        },
        p2,
    );
    asm.emit(Inst::Custom {
        op: CustomOp::Invert,
        rd: T5,
        rs1: T5,
        rs2: Zero,
    });
    // pass 3: p = (e * inv) Q8.24-product, requantised in place to i8
    asm.mv(T0, S4);
    asm.mv(T1, S6);
    asm.li(T2, s as i32);
    asm.bind(p3).expect("fresh");
    asm.emit(Inst::Lw {
        rd: T4,
        rs1: T1,
        imm: 0,
    });
    asm.emit(Inst::Mulhu {
        rd: T6,
        rs1: T4,
        rs2: T5,
    });
    asm.emit(Inst::Mul {
        rd: T4,
        rs1: T4,
        rs2: T5,
    });
    asm.emit(Inst::Slli {
        rd: T6,
        rs1: T6,
        shamt: 8,
    });
    asm.emit(Inst::Srli {
        rd: T4,
        rs1: T4,
        shamt: 24,
    });
    asm.emit(Inst::Or {
        rd: T4,
        rs1: T6,
        rs2: T4,
    });
    asm.emit(Inst::Custom {
        op: CustomOp::ToFloat,
        rd: T4,
        rs1: T4,
        rs2: Zero,
    });
    asm.emit(Inst::Packed {
        op: PackedOp::KfmulT,
        rd: T4,
        rs1: T4,
        rs2: S8,
    });
    asm.emit(Inst::Packed {
        op: PackedOp::KcvtF2H,
        rd: T4,
        rs1: T4,
        rs2: Zero,
    });
    asm.emit(Inst::Packed {
        op: PackedOp::Kclip,
        rd: T4,
        rs1: T4,
        rs2: A4,
    });
    asm.emit(Inst::Sb {
        rs2: T4,
        rs1: T0,
        imm: 0,
    });
    asm.emit(Inst::Addi {
        rd: T0,
        rs1: T0,
        imm: 1,
    });
    asm.emit(Inst::Addi {
        rd: T1,
        rs1: T1,
        imm: 4,
    });
    asm.emit(Inst::Addi {
        rd: T2,
        rs1: T2,
        imm: -1,
    });
    asm.branch_to(
        Inst::Bne {
            rs1: T2,
            rs2: Zero,
            offset: 0,
        },
        p3,
    );
    pop_region(asm);

    // 3. context: out[j] = clip(sat((VT_row_j · probs) >> shift_ctx))
    let cj = asm.new_label();
    push_region(asm, BLOCK_ATTENTION | OP_MATMUL);
    asm.emit(Inst::Lw {
        rd: T0,
        rs1: S5,
        imm: a8_attn_params::VT,
    });
    asm.mv(T1, S10); // out ptr
    asm.li(T2, dh as i32); // j counter
    asm.bind(cj).expect("fresh");
    asm.li(T3, 0); // acc
    emit::dot4_i8_unrolled(asm, T3, T0, S4, T4, T5, kp / 4, 0, 0);
    emit::sat_clip_i8(asm, T3, A7, A4);
    asm.emit(Inst::Sb {
        rs2: T3,
        rs1: T1,
        imm: 0,
    });
    asm.emit(Inst::Addi {
        rd: T0,
        rs1: T0,
        imm: kp as i32,
    });
    asm.emit(Inst::Addi {
        rd: T1,
        rs1: T1,
        imm: 1,
    });
    asm.emit(Inst::Addi {
        rd: T2,
        rs1: T2,
        imm: -1,
    });
    asm.branch_to(
        Inst::Bne {
            rs1: T2,
            rs2: Zero,
            offset: 0,
        },
        cj,
    );
    pop_region(asm);

    // advance to the next query row
    asm.emit(Inst::Addi {
        rd: S9,
        rs1: S9,
        imm: dh as i32,
    });
    asm.emit(Inst::Addi {
        rd: S10,
        rs1: S10,
        imm: dh as i32,
    });
    asm.emit(Inst::Addi {
        rd: S11,
        rs1: S11,
        imm: -1,
    });
    asm.branch_to(
        Inst::Bne {
            rs1: S11,
            rs2: Zero,
            offset: 0,
        },
        row,
    );
    asm.bind(done).expect("fresh");
    epilogue(asm, &saves, frame);
    entry
}

#[cfg(test)]
mod tests {
    use super::*;
    use kwt_quant::LutSet;
    use kwt_rv32::{Machine, Platform};
    use kwt_tensor::{ops, qops, Mat};

    const IN_A: u32 = 0xA000;
    const IN_B: u32 = 0xA800;
    const OUT: u32 = 0xB000;
    const SCRATCH: u32 = 0xB800;

    #[test]
    fn matmul_f32_matches_host() {
        let a = Mat::from_fn(3, 4, |r, c| (r as f32 - 1.0) * 0.7 + c as f32 * 0.3);
        let b = Mat::from_fn(4, 2, |r, c| (c as f32 + 1.0) * 0.25 - r as f32 * 0.1);
        let bias = [0.5f32, -1.25];
        let m = run_with(
            &[
                (IN_A, f32s(a.as_slice())),
                (IN_B, f32s(b.as_slice())),
                (SCRATCH, f32s(&bias)),
            ],
            |asm, k| {
                asm.li(Reg::A0, IN_A as i32);
                asm.li(Reg::A1, IN_B as i32);
                asm.li(Reg::A2, SCRATCH as i32);
                asm.li(Reg::A3, OUT as i32);
                asm.li(Reg::A4, 3);
                asm.li(Reg::A5, 4);
                asm.li(Reg::A6, 2);
                asm.call(k.matmul_f32);
            },
        );
        let got = m.read_f32s(OUT, 6);
        let want = ops::linear(&a, &b, &bias).unwrap();
        for (g, w) in got.iter().zip(want.as_slice()) {
            assert!((g - w).abs() < 1e-4, "{g} vs {w}");
        }
    }

    /// Builds a machine with inputs pre-written, then runs.
    fn run_with(inputs: &[(u32, Vec<u8>)], setup: impl FnOnce(&mut Asm, &Kernels)) -> Machine {
        let mut asm = Asm::new(0, 0x8000);
        let over = asm.new_label();
        asm.jump_to(over);
        let sf = SoftFloat::emit(&mut asm);
        let math = MathLib::emit(&mut asm, &sf);
        let kernels = Kernels::emit(&mut asm, &sf, &math);
        asm.bind(over).expect("fresh");
        asm.here("entry");
        setup(&mut asm, &kernels);
        asm.emit(Inst::Ebreak);
        let p = asm.finish().expect("assembles");
        let mut m = Machine::load(&p, Platform::ibex()).expect("fits");
        for (addr, bytes) in inputs {
            m.cpu.mem.write_bytes(*addr, bytes);
            m.cpu.invalidate_decode_cache(*addr, bytes.len() as u32);
        }
        m.run(500_000_000).expect("halts");
        m
    }

    fn f32s(v: &[f32]) -> Vec<u8> {
        v.iter().flat_map(|x| x.to_bits().to_le_bytes()).collect()
    }
    fn i16s(v: &[i16]) -> Vec<u8> {
        v.iter().flat_map(|x| x.to_le_bytes()).collect()
    }
    fn i8s(v: &[i8]) -> Vec<u8> {
        v.iter().map(|&x| x as u8).collect()
    }
    fn i32s(v: &[i32]) -> Vec<u8> {
        v.iter().flat_map(|x| x.to_le_bytes()).collect()
    }

    #[test]
    fn matmul_q_matches_host_exactly() {
        let a = Mat::from_fn(3, 5, |r, c| ((r * 5 + c) as i16 * 37) - 80);
        let w = Mat::from_fn(5, 4, |r, c| ((r * 4 + c) as i8).wrapping_mul(7));
        let bias: Vec<i32> = vec![100, -200, 300, 0];
        let shift = 4u32;
        let m = run_with(
            &[
                (IN_A, i16s(a.as_slice())),
                (IN_B, i8s(w.as_slice())),
                (SCRATCH, i32s(&bias)),
            ],
            |asm, k| {
                asm.li(Reg::A0, IN_A as i32);
                asm.li(Reg::A1, IN_B as i32);
                asm.li(Reg::A2, SCRATCH as i32);
                asm.li(Reg::A3, OUT as i32);
                asm.li(Reg::A4, 3);
                asm.li(Reg::A5, 5);
                asm.li(Reg::A6, 4);
                asm.li(Reg::A7, shift as i32);
                asm.call(k.matmul_q);
            },
        );
        let got = m.read_i16s(OUT, 12);
        let (want, _) = qops::matmul_i16_i8(&a, &w, Some(&bias), shift).unwrap();
        assert_eq!(got, want.as_slice());
    }

    #[test]
    fn matmul_qq_matches_host_exactly() {
        let a = Mat::from_fn(2, 6, |r, c| ((r * 6 + c) as i16 * 211) - 500);
        let b = Mat::from_fn(6, 3, |r, c| ((r * 3 + c) as i16 * 97) - 300);
        let shift = 5u32;
        let m = run_with(
            &[(IN_A, i16s(a.as_slice())), (IN_B, i16s(b.as_slice()))],
            |asm, k| {
                asm.li(Reg::A0, IN_A as i32);
                asm.li(Reg::A1, IN_B as i32);
                asm.li(Reg::A2, 0);
                asm.li(Reg::A3, OUT as i32);
                asm.li(Reg::A4, 2);
                asm.li(Reg::A5, 6);
                asm.li(Reg::A6, 3);
                asm.li(Reg::A7, shift as i32);
                asm.call(k.matmul_qq);
            },
        );
        let got = m.read_i16s(OUT, 6);
        let (want, _) = qops::matmul_i16_i16(&a, &b, shift).unwrap();
        assert_eq!(got, want.as_slice());
    }

    #[test]
    fn softmax_f32_matches_host() {
        let xs = vec![0.5f32, -1.0, 2.5, 0.0, 1.25, -0.75];
        let m = run_with(&[(IN_A, f32s(&xs))], |asm, k| {
            asm.li(Reg::A0, IN_A as i32);
            asm.li(Reg::A1, 6);
            asm.call(k.softmax_f32);
        });
        let got = m.read_f32s(IN_A, 6);
        let mut want = xs;
        ops::softmax_normalized(&mut want).unwrap();
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() < 1e-5, "{g} vs {w}");
        }
        let sum: f32 = got.iter().sum();
        assert!((sum - 1.0).abs() < 1e-5);
    }

    #[test]
    fn softmax_accel_matches_quant_golden_model() {
        let xs = vec![0.5f32, -1.0, 2.5, 0.0, 1.25, -0.75, 3.0, 0.1];
        let m = run_with(&[(IN_A, f32s(&xs))], |asm, k| {
            asm.li(Reg::A0, IN_A as i32);
            asm.li(Reg::A1, 8);
            asm.call(k.softmax_accel);
        });
        let got = m.read_f32s(IN_A, 8);
        let want = kwt_quant::fixed_softmax(&xs, &LutSet::new());
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.to_bits(), w.to_bits(), "bit-exact LUT softmax");
        }
    }

    #[test]
    fn gelu_kernels_match_references() {
        let xs = vec![-3.0f32, -1.0, -0.3, 0.0, 0.4, 1.2, 2.5];
        // float flavour vs exact GELU
        let m = run_with(&[(IN_A, f32s(&xs))], |asm, k| {
            asm.li(Reg::A0, IN_A as i32);
            asm.li(Reg::A1, 7);
            asm.call(k.gelu_f32);
        });
        for (g, &x) in m.read_f32s(IN_A, 7).iter().zip(&xs) {
            let w = kwt_tensor::math::gelu_exact(x);
            assert!((g - w).abs() < 2e-5, "gelu_f32({x}) = {g} want {w}");
        }
        // accelerated flavour vs the LUT golden model
        let m = run_with(&[(IN_A, f32s(&xs))], |asm, k| {
            asm.li(Reg::A0, IN_A as i32);
            asm.li(Reg::A1, 7);
            asm.call(k.gelu_accel);
        });
        let luts = LutSet::new();
        for (g, &x) in m.read_f32s(IN_A, 7).iter().zip(&xs) {
            let w = kwt_quant::fixed_gelu(x, &luts);
            assert_eq!(g.to_bits(), w.to_bits(), "gelu_accel({x})");
        }
    }

    #[test]
    fn layer_norm_matches_host() {
        let rows = 3usize;
        let cols = 5usize;
        let x = Mat::from_fn(rows, cols, |r, c| (r * cols + c) as f32 * 0.31 - 1.7);
        let gamma: Vec<f32> = (0..cols).map(|i| 0.5 + i as f32 * 0.2).collect();
        let beta: Vec<f32> = (0..cols).map(|i| -0.3 + i as f32 * 0.1).collect();
        let eps = 1e-5f32;
        let m = run_with(
            &[
                (IN_A, f32s(x.as_slice())),
                (IN_B, f32s(&gamma)),
                (SCRATCH, f32s(&beta)),
            ],
            |asm, k| {
                asm.li(Reg::A0, IN_A as i32);
                asm.li(Reg::A1, IN_B as i32);
                asm.li(Reg::A2, SCRATCH as i32);
                asm.li(Reg::A3, rows as i32);
                asm.li(Reg::A4, cols as i32);
                asm.li(Reg::A5, (1.0f32 / cols as f32).to_bits() as i32);
                asm.li(Reg::A6, eps.to_bits() as i32);
                asm.call(k.layer_norm_f32);
            },
        );
        let got = m.read_f32s(IN_A, rows * cols);
        let mut want = x.clone();
        ops::layer_norm_rows(&mut want, &gamma, &beta, eps).unwrap();
        for (g, w) in got.iter().zip(want.as_slice()) {
            assert!((g - w).abs() < 2e-4, "{g} vs {w}");
        }
    }

    #[test]
    fn quantisation_round_trip_matches_host() {
        let xs: Vec<i16> = vec![-300, -5, 0, 7, 120, 3000];
        // scale factor 32 = 2^5
        let m = run_with(&[(IN_A, i16s(&xs))], |asm, k| {
            // dequant to OUT (float), requant back to SCRATCH (i16)
            asm.li(Reg::A0, IN_A as i32);
            asm.li(Reg::A1, OUT as i32);
            asm.li(Reg::A2, 6);
            asm.li(Reg::A3, (1.0f32 / 32.0).to_bits() as i32);
            asm.call(k.dequant);
            asm.li(Reg::A0, OUT as i32);
            asm.li(Reg::A1, SCRATCH as i32);
            asm.li(Reg::A2, 6);
            asm.li(Reg::A3, 32.0f32.to_bits() as i32);
            asm.call(k.requant);
        });
        // dequant must match host dequantize exactly
        let defl = m.read_f32s(OUT, 6);
        for (d, &q) in defl.iter().zip(&xs) {
            assert_eq!(*d, q as f32 / 32.0);
        }
        // round trip must reproduce the original values
        assert_eq!(m.read_i16s(SCRATCH, 6), xs);
        // floor semantics on fresh floats must match the host quantiser
        let floats = vec![0.4f32, -0.4, 1.99, -1.99, 100.7];
        let m = run_with(&[(IN_A, f32s(&floats))], |asm, k| {
            asm.li(Reg::A0, IN_A as i32);
            asm.li(Reg::A1, OUT as i32);
            asm.li(Reg::A2, 5);
            asm.li(Reg::A3, 32.0f32.to_bits() as i32);
            asm.call(k.requant);
        });
        let got = m.read_i16s(OUT, 5);
        let (want, _) = qops::quantize_i16(&Mat::from_vec(1, 5, floats).unwrap(), 5);
        assert_eq!(got, want.as_slice());
    }

    #[test]
    fn residual_adds_match_host() {
        // float
        let a = vec![1.0f32, -2.0, 0.5];
        let b = vec![0.25f32, 1.0, -1.5];
        let m = run_with(&[(IN_A, f32s(&a)), (IN_B, f32s(&b))], |asm, k| {
            asm.li(Reg::A0, IN_A as i32);
            asm.li(Reg::A1, IN_B as i32);
            asm.li(Reg::A2, 3);
            asm.call(k.add_f32);
        });
        assert_eq!(m.read_f32s(IN_A, 3), vec![1.25, -1.0, -1.0]);
        // i16 saturating
        let a = vec![32000i16, -5, 7];
        let b = vec![1000i16, 3, -10];
        let m = run_with(&[(IN_A, i16s(&a)), (IN_B, i16s(&b))], |asm, k| {
            asm.li(Reg::A0, IN_A as i32);
            asm.li(Reg::A1, IN_B as i32);
            asm.li(Reg::A2, 3);
            asm.call(k.add_sat_i16);
        });
        assert_eq!(m.read_i16s(IN_A, 3), vec![32767, -2, -3]);
    }

    #[test]
    fn attention_f32_matches_host_sdpa() {
        let s = 4usize;
        let dh = 3usize;
        let q = Mat::from_fn(s, dh, |r, c| (r as f32 * 0.4 - c as f32 * 0.2).sin());
        let k_mat = Mat::from_fn(s, dh, |r, c| (c as f32 * 0.5 - r as f32 * 0.3).cos());
        let v = Mat::from_fn(s, dh, |r, c| (r * dh + c) as f32 * 0.25 - 0.8);
        let scale = 1.0f32 / (dh as f32).sqrt();
        let m = run_with(
            &[
                (IN_A, f32s(q.as_slice())),
                (IN_B, f32s(k_mat.as_slice())),
                (SCRATCH, f32s(v.as_slice())),
            ],
            |asm, kr| {
                asm.li(Reg::A0, IN_A as i32);
                asm.li(Reg::A1, IN_B as i32);
                asm.li(Reg::A2, SCRATCH as i32);
                asm.li(Reg::A3, OUT as i32);
                asm.li(Reg::A4, s as i32);
                asm.li(Reg::A5, dh as i32);
                asm.li(Reg::A6, 0xBC00);
                asm.li(Reg::A7, scale.to_bits() as i32);
                asm.call(kr.attention_f32);
            },
        );
        let got = m.read_f32s(OUT, s * dh);
        let want = ops::scaled_dot_product_attention(&q, &k_mat, &v).unwrap();
        for (g, w) in got.iter().zip(want.as_slice()) {
            assert!((g - w).abs() < 1e-4, "{g} vs {w}");
        }
        // attention regions were profiled
        let report = m.profile_report();
        assert!(report.attributed_cycles > 0);
    }

    /// [`run_with`] for the A8 kernel set; the
    /// attention kernel is specialised for `(s, dh)`.
    fn run_with_a8_dims(
        s: usize,
        dh: usize,
        inputs: &[(u32, Vec<u8>)],
        setup: impl FnOnce(&mut Asm, &A8Kernels),
    ) -> Machine {
        let mut asm = Asm::new(0, 0x8000);
        let over = asm.new_label();
        asm.jump_to(over);
        let kernels = A8Kernels::emit(&mut asm, s, dh);
        asm.bind(over).expect("fresh");
        asm.here("entry");
        setup(&mut asm, &kernels);
        asm.emit(Inst::Ebreak);
        let p = asm.finish().expect("assembles");
        let mut m = Machine::load(&p, Platform::ibex()).expect("fits");
        for (addr, bytes) in inputs {
            m.cpu.mem.write_bytes(*addr, bytes);
            m.cpu.invalidate_decode_cache(*addr, bytes.len() as u32);
        }
        m.run(500_000_000).expect("halts");
        m
    }

    /// [`run_with_a8_dims`] at the KWT-Tiny geometry (the non-attention
    /// kernels do not depend on it).
    fn run_with_a8(inputs: &[(u32, Vec<u8>)], setup: impl FnOnce(&mut Asm, &A8Kernels)) -> Machine {
        run_with_a8_dims(27, 8, inputs, setup)
    }

    fn read_i8s(m: &Machine, addr: u32, len: usize) -> Vec<i8> {
        m.cpu
            .mem
            .read_bytes(addr, len)
            .iter()
            .map(|&b| b as i8)
            .collect()
    }

    #[test]
    fn matmul_a8_matches_host_oracle() {
        // K multiples of 4 take the kdot4 fast path (incl. the 16-MAC
        // unroll at K >= 16); K = 5 and 7 exercise the scalar fallback.
        for (m_rows, k_depth, n_cols) in [
            (3usize, 8usize, 4usize),
            (2, 5, 3),
            (4, 12, 1),
            (3, 20, 5),
            (1, 7, 2),
        ] {
            let a = Mat::from_fn(m_rows, k_depth, |r, c| {
                ((r * k_depth + c) as i32 * 97 % 251 - 125) as i8
            });
            let w = Mat::from_fn(k_depth, n_cols, |r, c| {
                ((r * n_cols + c) as i32 * 37 % 251 - 125) as i8
            });
            let bias: Vec<i32> = (0..n_cols).map(|j| j as i32 * 500 - 250).collect();
            let shift = 6u32;
            let m = run_with_a8(
                &[
                    (IN_A, i8s(a.as_slice())),
                    (IN_B, i8s(w.transpose().as_slice())),
                    (SCRATCH, i32s(&bias)),
                ],
                |asm, k| {
                    asm.li(Reg::A0, IN_A as i32);
                    asm.li(Reg::A1, IN_B as i32);
                    asm.li(Reg::A2, SCRATCH as i32);
                    asm.li(Reg::A3, OUT as i32);
                    asm.li(Reg::A4, m_rows as i32);
                    asm.li(Reg::A5, k_depth as i32);
                    asm.li(Reg::A6, n_cols as i32);
                    asm.li(Reg::A7, shift as i32);
                    asm.call(k.matmul_a8);
                },
            );
            let got = read_i8s(&m, OUT, m_rows * n_cols);
            let (want, _) = qops::matmul_i8_i8(&a, &w, Some(&bias), shift).unwrap();
            assert_eq!(got, want.as_slice(), "M={m_rows} K={k_depth} N={n_cols}");
        }
    }

    #[test]
    fn matmul_a8_saturates_like_oracle() {
        // Shift 0 with maximal operands drives the accumulator far past
        // the i8 range; the ksat+kclip epilogue must match the host clamp.
        let a = Mat::from_fn(1, 8, |_, c| if c % 2 == 0 { 127i8 } else { -128 });
        let w = Mat::from_fn(8, 2, |r, c| {
            if c == 0 {
                if r % 2 == 0 {
                    127i8
                } else {
                    -128
                }
            } else if r % 2 == 0 {
                -128
            } else {
                127
            }
        });
        let m = run_with_a8(
            &[
                (IN_A, i8s(a.as_slice())),
                (IN_B, i8s(w.transpose().as_slice())),
            ],
            |asm, k| {
                asm.li(Reg::A0, IN_A as i32);
                asm.li(Reg::A1, IN_B as i32);
                asm.li(Reg::A2, 0);
                asm.li(Reg::A3, OUT as i32);
                asm.li(Reg::A4, 1);
                asm.li(Reg::A5, 8);
                asm.li(Reg::A6, 2);
                asm.li(Reg::A7, 0);
                asm.call(k.matmul_a8);
            },
        );
        let got = read_i8s(&m, OUT, 2);
        let (want, _) = qops::matmul_i8_i8(&a, &w, None, 0).unwrap();
        assert_eq!(got, want.as_slice());
        assert_eq!(got, vec![127, -128]);
    }

    #[test]
    fn a8_add_and_quant_boundaries_match_host_mirrors() {
        use kwt_tensor::softfp;
        // saturating i8 residual add via kclip
        let a = vec![120i8, -120, 7, -1];
        let b = vec![100i8, -100, -10, 1];
        let m = run_with_a8(&[(IN_A, i8s(&a)), (IN_B, i8s(&b))], |asm, k| {
            asm.li(Reg::A0, IN_A as i32);
            asm.li(Reg::A1, IN_B as i32);
            asm.li(Reg::A2, 4);
            asm.call(k.add_sat_i8);
        });
        assert_eq!(read_i8s(&m, IN_A, 4), vec![127, -128, -3, 0]);
        // dequant8 with a scale below one (signed exponents), then
        // requant8 back — bit-exact vs the softfp host mirror
        let xs: Vec<i8> = vec![-128, -5, 0, 7, 100, 127];
        let deq = 0.25f32; // 2^-(-2)? no: value * 0.25 — stream exponent 2
        let req = 4.0f32;
        let m = run_with_a8(&[(IN_A, i8s(&xs))], |asm, k| {
            asm.li(Reg::A0, IN_A as i32);
            asm.li(Reg::A1, OUT as i32);
            asm.li(Reg::A2, 6);
            asm.li(Reg::A3, deq.to_bits() as i32);
            asm.call(k.dequant8);
            asm.li(Reg::A0, OUT as i32);
            asm.li(Reg::A1, SCRATCH as i32);
            asm.li(Reg::A2, 6);
            asm.li(Reg::A3, req.to_bits() as i32);
            asm.call(k.requant8);
        });
        let floats = m.read_f32s(OUT, 6);
        for (f, &q) in floats.iter().zip(&xs) {
            let want = f32::from_bits(softfp::mul((q as f32).to_bits(), deq.to_bits()));
            assert_eq!(f.to_bits(), want.to_bits(), "dequant8({q})");
        }
        assert_eq!(read_i8s(&m, SCRATCH, 6), xs, "round trip");
        // requant floor semantics on fresh floats
        let fresh = vec![0.4f32, -0.4, 1.99, -1.99, 100.7, -3000.0];
        let m = run_with_a8(&[(IN_A, f32s(&fresh))], |asm, k| {
            asm.li(Reg::A0, IN_A as i32);
            asm.li(Reg::A1, OUT as i32);
            asm.li(Reg::A2, 6);
            asm.li(Reg::A3, 8.0f32.to_bits() as i32);
            asm.call(k.requant8);
        });
        let got = read_i8s(&m, OUT, 6);
        for (g, &x) in got.iter().zip(&fresh) {
            let scaled = f32::from_bits(softfp::mul(x.to_bits(), 8.0f32.to_bits()));
            let want = (f64::from(scaled).floor() as i64).clamp(-128, 127) as i8;
            assert_eq!(*g, want, "requant8({x})");
        }
    }

    #[test]
    fn gelu_a8_matches_lut_golden_model() {
        use kwt_tensor::softfp;
        let luts = LutSet::new();
        let xs: Vec<i8> = vec![-128, -40, -8, -1, 0, 1, 9, 60, 127];
        let deq = 0.125f32;
        let req = 8.0f32;
        let m = run_with_a8(&[(IN_A, i8s(&xs))], |asm, k| {
            asm.li(Reg::A0, IN_A as i32);
            asm.li(Reg::A1, xs.len() as i32);
            asm.li(Reg::A2, deq.to_bits() as i32);
            asm.li(Reg::A3, req.to_bits() as i32);
            asm.call(k.gelu_a8);
        });
        let got = read_i8s(&m, IN_A, xs.len());
        for (g, &x) in got.iter().zip(&xs) {
            let f = f32::from_bits(softfp::mul((x as f32).to_bits(), deq.to_bits()));
            let gelu = kwt_quant::fixed_gelu(f, &luts);
            let scaled = f32::from_bits(softfp::mul(gelu.to_bits(), req.to_bits()));
            let want = (f64::from(scaled).floor() as i64).clamp(-128, 127) as i8;
            assert_eq!(*g, want, "gelu_a8({x})");
        }
    }

    #[test]
    fn ln_a8_matches_softfp_mirror() {
        use kwt_tensor::softfp;
        let rows = 3usize;
        let cols = 5usize;
        let x = Mat::from_fn(rows, cols, |r, c| ((r * cols + c) as i32 * 37 - 80) as i8);
        let gamma: Vec<f32> = (0..cols).map(|i| 0.5 + i as f32 * 0.2).collect();
        let beta: Vec<f32> = (0..cols).map(|i| -0.3 + i as f32 * 0.1).collect();
        let deq = 0.0625f32;
        let req = 16.0f32;
        let inv_n = 1.0f32 / cols as f32;
        let eps = 1e-5f32;
        let params: Vec<i32> = vec![
            deq.to_bits() as i32,
            req.to_bits() as i32,
            inv_n.to_bits() as i32,
            eps.to_bits() as i32,
            0xBC00, // float row cache
        ];
        let m = run_with_a8(
            &[
                (IN_A, i8s(x.as_slice())),
                (IN_B, f32s(&gamma)),
                (OUT, f32s(&beta)),
                (SCRATCH, i32s(&params)),
            ],
            |asm, k| {
                asm.li(Reg::A0, IN_A as i32);
                asm.li(Reg::A1, IN_B as i32);
                asm.li(Reg::A2, OUT as i32);
                asm.li(Reg::A3, rows as i32);
                asm.li(Reg::A4, cols as i32);
                asm.li(Reg::A5, SCRATCH as i32);
                asm.call(k.ln_a8);
            },
        );
        let got = read_i8s(&m, IN_A, rows * cols);
        // host mirror: the packed-LN float sequence over softfp ops
        let conv = |v: i8| softfp::mul((v as f32).to_bits(), deq.to_bits());
        let mut want = Vec::new();
        for r in 0..rows {
            let row = x.row(r);
            let mut sum = 0u32;
            for &v in row {
                sum = softfp::add(conv(v), sum);
            }
            let mean = softfp::mul(sum, inv_n.to_bits());
            let mut acc = 0u32;
            for &v in row {
                let d = softfp::sub(conv(v), mean);
                acc = softfp::add(softfp::mul(d, d), acc);
            }
            let inv_std = softfp::rsqrt(softfp::add(
                softfp::mul(acc, inv_n.to_bits()),
                eps.to_bits(),
            ));
            for (i, &v) in row.iter().enumerate() {
                let mut t = softfp::sub(conv(v), mean);
                t = softfp::mul(t, inv_std);
                t = softfp::mul(t, gamma[i].to_bits());
                t = softfp::add(t, beta[i].to_bits());
                let scaled = f32::from_bits(softfp::mul(t, req.to_bits()));
                want.push((f64::from(scaled).floor() as i64).clamp(-128, 127) as i8);
            }
        }
        assert_eq!(got, want);
    }

    #[test]
    fn attention_a8_matches_host_row_pipeline() {
        use kwt_tensor::softfp;
        let luts = LutSet::new();
        let s = 5usize; // KP = 8: exercises the padded tail
        let dh = 4usize;
        let kp = (s + 3) & !3;
        let q = Mat::from_fn(s, dh, |r, c| ((r * dh + c) as i32 * 23 % 160 - 80) as i8);
        let kmat = Mat::from_fn(s, dh, |r, c| ((r * dh + c) as i32 * 41 % 160 - 80) as i8);
        let v = Mat::from_fn(s, dh, |r, c| ((r * dh + c) as i32 * 31 % 200 - 100) as i8);
        let shift_s = 3u32;
        let score_deq = (0.125f32) * (1.0 / (dh as f32).sqrt());
        let prob_req = 128.0f32;
        let shift_ctx = 7u32;
        const Q_AT: u32 = 0xA000;
        const K_AT: u32 = 0xA100;
        const V_AT: u32 = 0xA200;
        const OUT_AT: u32 = 0xA300;
        const ROW8: u32 = 0xA400;
        const ROWF: u32 = 0xA500;
        const VT: u32 = 0xA600;
        const PARAMS: u32 = 0xA700;
        let params: Vec<i32> = vec![
            shift_s as i32,
            score_deq.to_bits() as i32,
            prob_req.to_bits() as i32,
            shift_ctx as i32,
            ROWF as i32,
            VT as i32,
        ];
        let _ = kp;
        let m = run_with_a8_dims(
            s,
            dh,
            &[
                (Q_AT, i8s(q.as_slice())),
                (K_AT, i8s(kmat.as_slice())),
                (V_AT, i8s(v.as_slice())),
                (PARAMS, i32s(&params)),
            ],
            |asm, k| {
                asm.li(Reg::A0, Q_AT as i32);
                asm.li(Reg::A1, K_AT as i32);
                asm.li(Reg::A2, V_AT as i32);
                asm.li(Reg::A3, OUT_AT as i32);
                asm.li(Reg::A4, ROW8 as i32);
                asm.li(Reg::A5, PARAMS as i32);
                asm.call(k.attention_a8);
            },
        );
        let got = read_i8s(&m, OUT_AT, s * dh);
        // host mirror of the fused row pipeline
        let mut want = vec![0i8; s * dh];
        for i in 0..s {
            let mut row8 = vec![0i8; s];
            for j in 0..s {
                let mut acc: i32 = 0;
                for l in 0..dh {
                    acc = acc.wrapping_add(q[(i, l)] as i32 * kmat[(j, l)] as i32);
                }
                row8[j] = ((acc >> shift_s).clamp(-128, 127)) as i8;
            }
            let rowf: Vec<f32> = row8
                .iter()
                .map(|&sc| f32::from_bits(softfp::mul((sc as f32).to_bits(), score_deq.to_bits())))
                .collect();
            let probs = kwt_quant::fixed_softmax(&rowf, &luts);
            let p8: Vec<i8> = probs
                .iter()
                .map(|p| {
                    let scaled = f32::from_bits(softfp::mul(p.to_bits(), prob_req.to_bits()));
                    (f64::from(scaled).floor() as i64).clamp(-128, 127) as i8
                })
                .collect();
            for j in 0..dh {
                let mut acc: i32 = 0;
                for (l, &p) in p8.iter().enumerate() {
                    acc = acc.wrapping_add(v[(l, j)] as i32 * p as i32);
                }
                want[i * dh + j] = ((acc >> shift_ctx).clamp(-128, 127)) as i8;
            }
        }
        assert_eq!(got, want);
        // the fused kernel profiles its phases
        assert!(m.profile_report().attributed_cycles > 0);
    }

    fn fnv1a64_words(words: &[u32]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for w in words {
            for b in w.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    #[test]
    fn a8_kernel_stream_is_pinned() {
        // FNV-1a-64 digests of the emitted A8 kernel text, recorded
        // before the attention emitter moved onto the shared
        // `kwt_rvasm::emit` helpers: the migration is a pure refactor
        // and must keep the instruction stream bit-identical. If a
        // *deliberate* kernel change lands, re-record the digests.
        for (s, dh, want) in [
            (27usize, 8usize, 0x267d_1029_534c_d685u64), // KWT-Tiny geometry
            (5, 4, 0x41b2_c9c8_ced3_0016u64),            // padded-tail geometry
        ] {
            let mut asm = Asm::new(0, 0x8000);
            let _ = A8Kernels::emit(&mut asm, s, dh);
            let p = asm.finish().expect("assembles");
            assert_eq!(
                fnv1a64_words(&p.text),
                want,
                "A8 kernel stream changed at s={s} dh={dh} (digest {:#018x})",
                fnv1a64_words(&p.text)
            );
        }
    }

    #[test]
    fn copy_bytes_works() {
        let m = run_with(&[(IN_A, vec![9u8, 8, 7, 6, 5])], |asm, k| {
            asm.li(Reg::A0, OUT as i32);
            asm.li(Reg::A1, IN_A as i32);
            asm.li(Reg::A2, 5);
            asm.call(k.copy_bytes);
        });
        assert_eq!(m.cpu.mem.read_bytes(OUT, 5), &[9, 8, 7, 6, 5]);
    }
}
