//! Instruction set: constructors, encoder, decoder, disassembler.

use crate::reg::Reg;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The five behaviours of the paper's `custom-1` R-type instruction
/// (Table VII), selected by `funct3`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[repr(u8)]
pub enum CustomOp {
    /// `ALU_EXP` — LUT `e^{-X}` for Q8.24 `X` (funct3 = 000).
    Exp = 0b000,
    /// `ALU_INVERT` — LUT `1/X` for Q8.24 `X` (funct3 = 001).
    Invert = 0b001,
    /// `ALU_GELU` — LUT `GELU(X)` for Q8.24 `X` (funct3 = 011).
    Gelu = 0b011,
    /// `ALU_TO_FIXED` — IEEE-754 single → Q8.24 (funct3 = 100).
    ToFixed = 0b100,
    /// `ALU_TO_FLOAT` — Q8.24 → IEEE-754 single (funct3 = 101).
    ToFloat = 0b101,
}

impl CustomOp {
    /// Decodes a funct3 value.
    pub fn from_funct3(f: u32) -> Option<CustomOp> {
        match f {
            0b000 => Some(CustomOp::Exp),
            0b001 => Some(CustomOp::Invert),
            0b011 => Some(CustomOp::Gelu),
            0b100 => Some(CustomOp::ToFixed),
            0b101 => Some(CustomOp::ToFloat),
            _ => None,
        }
    }

    /// Mnemonic used by the disassembler.
    pub fn mnemonic(self) -> &'static str {
        match self {
            CustomOp::Exp => "alu.exp",
            CustomOp::Invert => "alu.invert",
            CustomOp::Gelu => "alu.gelu",
            CustomOp::ToFixed => "alu.tofixed",
            CustomOp::ToFloat => "alu.tofloat",
        }
    }
}

/// The R-type operations of the **Xkwtdot** `custom-2` packed-MAC
/// extension (opcode `0b1011011`), selected by `funct3`. funct3 `001`
/// and `100` are unassigned and decode as illegal instructions.
///
/// | funct3 | mnemonic    | semantics                                            |
/// |--------|-------------|------------------------------------------------------|
/// | `000`  | `kdot4.i8`  | `rd += Σ i8(rs1.b[i])·i8(rs2.b[i])`, i = 0..4        |
/// | `010`  | `ksat.i16`  | `rd = clamp(rs1 >>ₐ (rs2 & 31), −2¹⁵, 2¹⁵−1)`        |
/// | `011`  | `kclip`     | `rd = clamp(rs1, −2ⁿ, 2ⁿ−1)`, `n = rs2 & 31`         |
/// | `101`  | `kcvt.h2f`  | `rd = f32(i16(rs1.h[0])) · 2^−(rs2 & 31)`            |
/// | `110`  | `kcvt.f2h`  | `rd = sat16(⌊f32(rs1) · 2^(rs2 & 31)⌋)`              |
/// | `111`  | (funct7-selected float slot, see below)                            |
///
/// The funct3 = `111` slot multiplexes the truncating scalar-float ops
/// on funct7 — single-instruction versions of the bare-metal soft-float
/// library (round-toward-zero, denormals flush to signed zero, NaNs
/// behave like infinities), bit-identical to the generated `sf_add` /
/// `sf_sub` / `sf_mul` routines:
///
/// | funct7    | mnemonic  | semantics                      |
/// |-----------|-----------|--------------------------------|
/// | `0000000` | `kfadd.t` | truncating f32 `rs1 + rs2`     |
/// | `0000001` | `kfsub.t` | truncating f32 `rs1 - rs2`     |
/// | `0000010` | `kfmul.t` | truncating f32 `rs1 · rs2`     |
///
/// All integer accumulation is wrapping two's-complement i32, so a
/// `kdot4.i8` sequence is bit-identical to the equivalent scalar
/// `mul`/`add` chain in any order. The dot product reads `rd` as a
/// third source operand (SMAQA-style destructive accumulate).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PackedOp {
    /// `kdot4.i8` — 4-lane i8×i8 dot-product accumulate (funct3 = 000).
    Kdot4I8,
    /// `ksat.i16` — arithmetic shift right + saturate to i16 (funct3 = 010).
    KsatI16,
    /// `kclip` — clamp to a signed power-of-two range (funct3 = 011).
    Kclip,
    /// `kcvt.h2f` — i16 → f32 with power-of-two down-scale (funct3 = 101).
    KcvtH2F,
    /// `kcvt.f2h` — f32 → i16 floor with power-of-two up-scale (funct3 = 110).
    KcvtF2H,
    /// `kfadd.t` — truncating f32 add (funct3 = 111, funct7 = 0).
    KfaddT,
    /// `kfsub.t` — truncating f32 subtract (funct3 = 111, funct7 = 1).
    KfsubT,
    /// `kfmul.t` — truncating f32 multiply (funct3 = 111, funct7 = 2).
    KfmulT,
}

impl PackedOp {
    /// The op's funct3 field.
    pub fn funct3(self) -> u32 {
        match self {
            PackedOp::Kdot4I8 => 0b000,
            PackedOp::KsatI16 => 0b010,
            PackedOp::Kclip => 0b011,
            PackedOp::KcvtH2F => 0b101,
            PackedOp::KcvtF2H => 0b110,
            PackedOp::KfaddT | PackedOp::KfsubT | PackedOp::KfmulT => 0b111,
        }
    }

    /// The op's funct7 field (a sub-op selector in the funct3 = 111
    /// float slot; 0 elsewhere).
    pub fn funct7(self) -> u32 {
        match self {
            PackedOp::KfsubT => 1,
            PackedOp::KfmulT => 2,
            _ => 0,
        }
    }

    /// Decodes a funct3/funct7 pair.
    pub fn from_funct3_funct7(f3: u32, f7: u32) -> Option<PackedOp> {
        match (f3, f7) {
            (0b000, 0) => Some(PackedOp::Kdot4I8),
            (0b010, 0) => Some(PackedOp::KsatI16),
            (0b011, 0) => Some(PackedOp::Kclip),
            (0b101, 0) => Some(PackedOp::KcvtH2F),
            (0b110, 0) => Some(PackedOp::KcvtF2H),
            (0b111, 0) => Some(PackedOp::KfaddT),
            (0b111, 1) => Some(PackedOp::KfsubT),
            (0b111, 2) => Some(PackedOp::KfmulT),
            _ => None,
        }
    }

    /// Mnemonic used by the disassembler.
    pub fn mnemonic(self) -> &'static str {
        match self {
            PackedOp::Kdot4I8 => "kdot4.i8",
            PackedOp::KsatI16 => "ksat.i16",
            PackedOp::Kclip => "kclip",
            PackedOp::KcvtH2F => "kcvt.h2f",
            PackedOp::KcvtF2H => "kcvt.f2h",
            PackedOp::KfaddT => "kfadd.t",
            PackedOp::KfsubT => "kfsub.t",
            PackedOp::KfmulT => "kfmul.t",
        }
    }
}

/// One RV32 instruction (RV32I + M + Zicsr + custom-1 + custom-2).
///
/// Immediates are stored sign-extended in `i32`; branch/jump offsets are
/// byte offsets relative to the instruction's own address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum Inst {
    // U-type
    Lui {
        rd: Reg,
        imm: i32,
    },
    Auipc {
        rd: Reg,
        imm: i32,
    },
    // J-type
    Jal {
        rd: Reg,
        offset: i32,
    },
    // I-type jumps/loads
    Jalr {
        rd: Reg,
        rs1: Reg,
        imm: i32,
    },
    Lb {
        rd: Reg,
        rs1: Reg,
        imm: i32,
    },
    Lh {
        rd: Reg,
        rs1: Reg,
        imm: i32,
    },
    Lw {
        rd: Reg,
        rs1: Reg,
        imm: i32,
    },
    Lbu {
        rd: Reg,
        rs1: Reg,
        imm: i32,
    },
    Lhu {
        rd: Reg,
        rs1: Reg,
        imm: i32,
    },
    // B-type
    Beq {
        rs1: Reg,
        rs2: Reg,
        offset: i32,
    },
    Bne {
        rs1: Reg,
        rs2: Reg,
        offset: i32,
    },
    Blt {
        rs1: Reg,
        rs2: Reg,
        offset: i32,
    },
    Bge {
        rs1: Reg,
        rs2: Reg,
        offset: i32,
    },
    Bltu {
        rs1: Reg,
        rs2: Reg,
        offset: i32,
    },
    Bgeu {
        rs1: Reg,
        rs2: Reg,
        offset: i32,
    },
    // S-type
    Sb {
        rs2: Reg,
        rs1: Reg,
        imm: i32,
    },
    Sh {
        rs2: Reg,
        rs1: Reg,
        imm: i32,
    },
    Sw {
        rs2: Reg,
        rs1: Reg,
        imm: i32,
    },
    // I-type ALU
    Addi {
        rd: Reg,
        rs1: Reg,
        imm: i32,
    },
    Slti {
        rd: Reg,
        rs1: Reg,
        imm: i32,
    },
    Sltiu {
        rd: Reg,
        rs1: Reg,
        imm: i32,
    },
    Xori {
        rd: Reg,
        rs1: Reg,
        imm: i32,
    },
    Ori {
        rd: Reg,
        rs1: Reg,
        imm: i32,
    },
    Andi {
        rd: Reg,
        rs1: Reg,
        imm: i32,
    },
    Slli {
        rd: Reg,
        rs1: Reg,
        shamt: u32,
    },
    Srli {
        rd: Reg,
        rs1: Reg,
        shamt: u32,
    },
    Srai {
        rd: Reg,
        rs1: Reg,
        shamt: u32,
    },
    // R-type ALU
    Add {
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    Sub {
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    Sll {
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    Slt {
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    Sltu {
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    Xor {
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    Srl {
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    Sra {
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    Or {
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    And {
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    // M extension
    Mul {
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    Mulh {
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    Mulhsu {
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    Mulhu {
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    Div {
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    Divu {
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    Rem {
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    Remu {
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    // System
    Ecall,
    Ebreak,
    // Zicsr (register forms)
    Csrrw {
        rd: Reg,
        rs1: Reg,
        csr: u32,
    },
    Csrrs {
        rd: Reg,
        rs1: Reg,
        csr: u32,
    },
    Csrrc {
        rd: Reg,
        rs1: Reg,
        csr: u32,
    },
    // The paper's custom-1 instruction (opcode 0b0101011, funct7 = 0).
    Custom {
        op: CustomOp,
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    // Xkwtdot custom-2 R-type ops (opcode 0b1011011, funct7 = 0).
    Packed {
        op: PackedOp,
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
}

const OP_LUI: u32 = 0b0110111;
const OP_AUIPC: u32 = 0b0010111;
const OP_JAL: u32 = 0b1101111;
const OP_JALR: u32 = 0b1100111;
const OP_BRANCH: u32 = 0b1100011;
const OP_LOAD: u32 = 0b0000011;
const OP_STORE: u32 = 0b0100011;
const OP_IMM: u32 = 0b0010011;
const OP_OP: u32 = 0b0110011;
const OP_SYSTEM: u32 = 0b1110011;
/// The RISC-V "custom-1" opcode the paper reserves for its extension.
pub const OP_CUSTOM1: u32 = 0b0101011;
/// The RISC-V "custom-2" opcode carrying the Xkwtdot packed-MAC
/// extension (R-type ops only).
pub const OP_CUSTOM2: u32 = 0b1011011;

fn enc_r(funct7: u32, rs2: Reg, rs1: Reg, funct3: u32, rd: Reg, opcode: u32) -> u32 {
    (funct7 << 25)
        | (rs2.num() << 20)
        | (rs1.num() << 15)
        | (funct3 << 12)
        | (rd.num() << 7)
        | opcode
}

fn enc_i(imm: i32, rs1: Reg, funct3: u32, rd: Reg, opcode: u32) -> u32 {
    ((imm as u32 & 0xFFF) << 20) | (rs1.num() << 15) | (funct3 << 12) | (rd.num() << 7) | opcode
}

fn enc_s(imm: i32, rs2: Reg, rs1: Reg, funct3: u32, opcode: u32) -> u32 {
    let imm = imm as u32;
    ((imm >> 5 & 0x7F) << 25)
        | (rs2.num() << 20)
        | (rs1.num() << 15)
        | (funct3 << 12)
        | ((imm & 0x1F) << 7)
        | opcode
}

fn enc_b(offset: i32, rs2: Reg, rs1: Reg, funct3: u32, opcode: u32) -> u32 {
    let imm = offset as u32;
    ((imm >> 12 & 1) << 31)
        | ((imm >> 5 & 0x3F) << 25)
        | (rs2.num() << 20)
        | (rs1.num() << 15)
        | (funct3 << 12)
        | ((imm >> 1 & 0xF) << 8)
        | ((imm >> 11 & 1) << 7)
        | opcode
}

fn enc_u(imm: i32, rd: Reg, opcode: u32) -> u32 {
    (imm as u32 & 0xFFFF_F000) | (rd.num() << 7) | opcode
}

fn enc_j(offset: i32, rd: Reg, opcode: u32) -> u32 {
    let imm = offset as u32;
    ((imm >> 20 & 1) << 31)
        | ((imm >> 1 & 0x3FF) << 21)
        | ((imm >> 11 & 1) << 20)
        | ((imm >> 12 & 0xFF) << 12)
        | (rd.num() << 7)
        | opcode
}

impl Inst {
    /// Encodes to the 32-bit instruction word.
    pub fn encode(self) -> u32 {
        use Inst::*;
        match self {
            Lui { rd, imm } => enc_u(imm, rd, OP_LUI),
            Auipc { rd, imm } => enc_u(imm, rd, OP_AUIPC),
            Jal { rd, offset } => enc_j(offset, rd, OP_JAL),
            Jalr { rd, rs1, imm } => enc_i(imm, rs1, 0b000, rd, OP_JALR),
            Lb { rd, rs1, imm } => enc_i(imm, rs1, 0b000, rd, OP_LOAD),
            Lh { rd, rs1, imm } => enc_i(imm, rs1, 0b001, rd, OP_LOAD),
            Lw { rd, rs1, imm } => enc_i(imm, rs1, 0b010, rd, OP_LOAD),
            Lbu { rd, rs1, imm } => enc_i(imm, rs1, 0b100, rd, OP_LOAD),
            Lhu { rd, rs1, imm } => enc_i(imm, rs1, 0b101, rd, OP_LOAD),
            Beq { rs1, rs2, offset } => enc_b(offset, rs2, rs1, 0b000, OP_BRANCH),
            Bne { rs1, rs2, offset } => enc_b(offset, rs2, rs1, 0b001, OP_BRANCH),
            Blt { rs1, rs2, offset } => enc_b(offset, rs2, rs1, 0b100, OP_BRANCH),
            Bge { rs1, rs2, offset } => enc_b(offset, rs2, rs1, 0b101, OP_BRANCH),
            Bltu { rs1, rs2, offset } => enc_b(offset, rs2, rs1, 0b110, OP_BRANCH),
            Bgeu { rs1, rs2, offset } => enc_b(offset, rs2, rs1, 0b111, OP_BRANCH),
            Sb { rs2, rs1, imm } => enc_s(imm, rs2, rs1, 0b000, OP_STORE),
            Sh { rs2, rs1, imm } => enc_s(imm, rs2, rs1, 0b001, OP_STORE),
            Sw { rs2, rs1, imm } => enc_s(imm, rs2, rs1, 0b010, OP_STORE),
            Addi { rd, rs1, imm } => enc_i(imm, rs1, 0b000, rd, OP_IMM),
            Slti { rd, rs1, imm } => enc_i(imm, rs1, 0b010, rd, OP_IMM),
            Sltiu { rd, rs1, imm } => enc_i(imm, rs1, 0b011, rd, OP_IMM),
            Xori { rd, rs1, imm } => enc_i(imm, rs1, 0b100, rd, OP_IMM),
            Ori { rd, rs1, imm } => enc_i(imm, rs1, 0b110, rd, OP_IMM),
            Andi { rd, rs1, imm } => enc_i(imm, rs1, 0b111, rd, OP_IMM),
            Slli { rd, rs1, shamt } => enc_i(shamt as i32, rs1, 0b001, rd, OP_IMM),
            Srli { rd, rs1, shamt } => enc_i(shamt as i32, rs1, 0b101, rd, OP_IMM),
            Srai { rd, rs1, shamt } => {
                enc_i(shamt as i32 | (0b0100000 << 5), rs1, 0b101, rd, OP_IMM)
            }
            Add { rd, rs1, rs2 } => enc_r(0, rs2, rs1, 0b000, rd, OP_OP),
            Sub { rd, rs1, rs2 } => enc_r(0b0100000, rs2, rs1, 0b000, rd, OP_OP),
            Sll { rd, rs1, rs2 } => enc_r(0, rs2, rs1, 0b001, rd, OP_OP),
            Slt { rd, rs1, rs2 } => enc_r(0, rs2, rs1, 0b010, rd, OP_OP),
            Sltu { rd, rs1, rs2 } => enc_r(0, rs2, rs1, 0b011, rd, OP_OP),
            Xor { rd, rs1, rs2 } => enc_r(0, rs2, rs1, 0b100, rd, OP_OP),
            Srl { rd, rs1, rs2 } => enc_r(0, rs2, rs1, 0b101, rd, OP_OP),
            Sra { rd, rs1, rs2 } => enc_r(0b0100000, rs2, rs1, 0b101, rd, OP_OP),
            Or { rd, rs1, rs2 } => enc_r(0, rs2, rs1, 0b110, rd, OP_OP),
            And { rd, rs1, rs2 } => enc_r(0, rs2, rs1, 0b111, rd, OP_OP),
            Mul { rd, rs1, rs2 } => enc_r(1, rs2, rs1, 0b000, rd, OP_OP),
            Mulh { rd, rs1, rs2 } => enc_r(1, rs2, rs1, 0b001, rd, OP_OP),
            Mulhsu { rd, rs1, rs2 } => enc_r(1, rs2, rs1, 0b010, rd, OP_OP),
            Mulhu { rd, rs1, rs2 } => enc_r(1, rs2, rs1, 0b011, rd, OP_OP),
            Div { rd, rs1, rs2 } => enc_r(1, rs2, rs1, 0b100, rd, OP_OP),
            Divu { rd, rs1, rs2 } => enc_r(1, rs2, rs1, 0b101, rd, OP_OP),
            Rem { rd, rs1, rs2 } => enc_r(1, rs2, rs1, 0b110, rd, OP_OP),
            Remu { rd, rs1, rs2 } => enc_r(1, rs2, rs1, 0b111, rd, OP_OP),
            Ecall => enc_i(0, Reg::Zero, 0, Reg::Zero, OP_SYSTEM),
            Ebreak => enc_i(1, Reg::Zero, 0, Reg::Zero, OP_SYSTEM),
            Csrrw { rd, rs1, csr } => enc_i(csr as i32, rs1, 0b001, rd, OP_SYSTEM),
            Csrrs { rd, rs1, csr } => enc_i(csr as i32, rs1, 0b010, rd, OP_SYSTEM),
            Csrrc { rd, rs1, csr } => enc_i(csr as i32, rs1, 0b011, rd, OP_SYSTEM),
            Custom { op, rd, rs1, rs2 } => enc_r(0, rs2, rs1, op as u32, rd, OP_CUSTOM1),
            Packed { op, rd, rs1, rs2 } => {
                enc_r(op.funct7(), rs2, rs1, op.funct3(), rd, OP_CUSTOM2)
            }
        }
    }

    /// Decodes a 32-bit word; `None` for illegal/unsupported encodings.
    pub fn decode(word: u32) -> Option<Inst> {
        use Inst::*;
        let opcode = word & 0x7F;
        let rd = Reg::from_num(word >> 7 & 0x1F);
        let funct3 = word >> 12 & 0x7;
        let rs1 = Reg::from_num(word >> 15 & 0x1F);
        let rs2 = Reg::from_num(word >> 20 & 0x1F);
        let funct7 = word >> 25;
        let imm_i = (word as i32) >> 20;
        let imm_s = ((word & 0xFE00_0000) as i32 >> 20) | (word as i32 >> 7 & 0x1F);
        let imm_b = (((word >> 31 & 1) << 12)
            | ((word >> 7 & 1) << 11)
            | ((word >> 25 & 0x3F) << 5)
            | ((word >> 8 & 0xF) << 1)) as i32;
        let imm_b = (imm_b << 19) >> 19; // sign extend from bit 12
        let imm_u = (word & 0xFFFF_F000) as i32;
        let imm_j = (((word >> 31 & 1) << 20)
            | ((word >> 12 & 0xFF) << 12)
            | ((word >> 20 & 1) << 11)
            | ((word >> 21 & 0x3FF) << 1)) as i32;
        let imm_j = (imm_j << 11) >> 11; // sign extend from bit 20

        Some(match opcode {
            OP_LUI => Lui { rd, imm: imm_u },
            OP_AUIPC => Auipc { rd, imm: imm_u },
            OP_JAL => Jal { rd, offset: imm_j },
            OP_JALR if funct3 == 0 => Jalr {
                rd,
                rs1,
                imm: imm_i,
            },
            OP_BRANCH => match funct3 {
                0b000 => Beq {
                    rs1,
                    rs2,
                    offset: imm_b,
                },
                0b001 => Bne {
                    rs1,
                    rs2,
                    offset: imm_b,
                },
                0b100 => Blt {
                    rs1,
                    rs2,
                    offset: imm_b,
                },
                0b101 => Bge {
                    rs1,
                    rs2,
                    offset: imm_b,
                },
                0b110 => Bltu {
                    rs1,
                    rs2,
                    offset: imm_b,
                },
                0b111 => Bgeu {
                    rs1,
                    rs2,
                    offset: imm_b,
                },
                _ => return None,
            },
            OP_LOAD => match funct3 {
                0b000 => Lb {
                    rd,
                    rs1,
                    imm: imm_i,
                },
                0b001 => Lh {
                    rd,
                    rs1,
                    imm: imm_i,
                },
                0b010 => Lw {
                    rd,
                    rs1,
                    imm: imm_i,
                },
                0b100 => Lbu {
                    rd,
                    rs1,
                    imm: imm_i,
                },
                0b101 => Lhu {
                    rd,
                    rs1,
                    imm: imm_i,
                },
                _ => return None,
            },
            OP_STORE => match funct3 {
                0b000 => Sb {
                    rs2,
                    rs1,
                    imm: imm_s,
                },
                0b001 => Sh {
                    rs2,
                    rs1,
                    imm: imm_s,
                },
                0b010 => Sw {
                    rs2,
                    rs1,
                    imm: imm_s,
                },
                _ => return None,
            },
            OP_IMM => match funct3 {
                0b000 => Addi {
                    rd,
                    rs1,
                    imm: imm_i,
                },
                0b010 => Slti {
                    rd,
                    rs1,
                    imm: imm_i,
                },
                0b011 => Sltiu {
                    rd,
                    rs1,
                    imm: imm_i,
                },
                0b100 => Xori {
                    rd,
                    rs1,
                    imm: imm_i,
                },
                0b110 => Ori {
                    rd,
                    rs1,
                    imm: imm_i,
                },
                0b111 => Andi {
                    rd,
                    rs1,
                    imm: imm_i,
                },
                0b001 if funct7 == 0 => Slli {
                    rd,
                    rs1,
                    shamt: rs2.num(),
                },
                0b101 if funct7 == 0 => Srli {
                    rd,
                    rs1,
                    shamt: rs2.num(),
                },
                0b101 if funct7 == 0b0100000 => Srai {
                    rd,
                    rs1,
                    shamt: rs2.num(),
                },
                _ => return None,
            },
            OP_OP => match (funct7, funct3) {
                (0, 0b000) => Add { rd, rs1, rs2 },
                (0b0100000, 0b000) => Sub { rd, rs1, rs2 },
                (0, 0b001) => Sll { rd, rs1, rs2 },
                (0, 0b010) => Slt { rd, rs1, rs2 },
                (0, 0b011) => Sltu { rd, rs1, rs2 },
                (0, 0b100) => Xor { rd, rs1, rs2 },
                (0, 0b101) => Srl { rd, rs1, rs2 },
                (0b0100000, 0b101) => Sra { rd, rs1, rs2 },
                (0, 0b110) => Or { rd, rs1, rs2 },
                (0, 0b111) => And { rd, rs1, rs2 },
                (1, 0b000) => Mul { rd, rs1, rs2 },
                (1, 0b001) => Mulh { rd, rs1, rs2 },
                (1, 0b010) => Mulhsu { rd, rs1, rs2 },
                (1, 0b011) => Mulhu { rd, rs1, rs2 },
                (1, 0b100) => Div { rd, rs1, rs2 },
                (1, 0b101) => Divu { rd, rs1, rs2 },
                (1, 0b110) => Rem { rd, rs1, rs2 },
                (1, 0b111) => Remu { rd, rs1, rs2 },
                _ => return None,
            },
            OP_SYSTEM => match funct3 {
                0 => match word >> 20 {
                    0 => Ecall,
                    1 => Ebreak,
                    _ => return None,
                },
                0b001 => Csrrw {
                    rd,
                    rs1,
                    csr: word >> 20,
                },
                0b010 => Csrrs {
                    rd,
                    rs1,
                    csr: word >> 20,
                },
                0b011 => Csrrc {
                    rd,
                    rs1,
                    csr: word >> 20,
                },
                _ => return None,
            },
            OP_CUSTOM1 if funct7 == 0 => Custom {
                op: CustomOp::from_funct3(funct3)?,
                rd,
                rs1,
                rs2,
            },
            OP_CUSTOM2 => Packed {
                op: PackedOp::from_funct3_funct7(funct3, funct7)?,
                rd,
                rs1,
                rs2,
            },
            _ => return None,
        })
    }
}

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use Inst::*;
        match *self {
            Lui { rd, imm } => write!(f, "lui {rd}, {:#x}", (imm as u32) >> 12),
            Auipc { rd, imm } => write!(f, "auipc {rd}, {:#x}", (imm as u32) >> 12),
            Jal { rd, offset } => write!(f, "jal {rd}, {offset}"),
            Jalr { rd, rs1, imm } => write!(f, "jalr {rd}, {imm}({rs1})"),
            Lb { rd, rs1, imm } => write!(f, "lb {rd}, {imm}({rs1})"),
            Lh { rd, rs1, imm } => write!(f, "lh {rd}, {imm}({rs1})"),
            Lw { rd, rs1, imm } => write!(f, "lw {rd}, {imm}({rs1})"),
            Lbu { rd, rs1, imm } => write!(f, "lbu {rd}, {imm}({rs1})"),
            Lhu { rd, rs1, imm } => write!(f, "lhu {rd}, {imm}({rs1})"),
            Beq { rs1, rs2, offset } => write!(f, "beq {rs1}, {rs2}, {offset}"),
            Bne { rs1, rs2, offset } => write!(f, "bne {rs1}, {rs2}, {offset}"),
            Blt { rs1, rs2, offset } => write!(f, "blt {rs1}, {rs2}, {offset}"),
            Bge { rs1, rs2, offset } => write!(f, "bge {rs1}, {rs2}, {offset}"),
            Bltu { rs1, rs2, offset } => write!(f, "bltu {rs1}, {rs2}, {offset}"),
            Bgeu { rs1, rs2, offset } => write!(f, "bgeu {rs1}, {rs2}, {offset}"),
            Sb { rs2, rs1, imm } => write!(f, "sb {rs2}, {imm}({rs1})"),
            Sh { rs2, rs1, imm } => write!(f, "sh {rs2}, {imm}({rs1})"),
            Sw { rs2, rs1, imm } => write!(f, "sw {rs2}, {imm}({rs1})"),
            Addi { rd, rs1, imm } => write!(f, "addi {rd}, {rs1}, {imm}"),
            Slti { rd, rs1, imm } => write!(f, "slti {rd}, {rs1}, {imm}"),
            Sltiu { rd, rs1, imm } => write!(f, "sltiu {rd}, {rs1}, {imm}"),
            Xori { rd, rs1, imm } => write!(f, "xori {rd}, {rs1}, {imm}"),
            Ori { rd, rs1, imm } => write!(f, "ori {rd}, {rs1}, {imm}"),
            Andi { rd, rs1, imm } => write!(f, "andi {rd}, {rs1}, {imm}"),
            Slli { rd, rs1, shamt } => write!(f, "slli {rd}, {rs1}, {shamt}"),
            Srli { rd, rs1, shamt } => write!(f, "srli {rd}, {rs1}, {shamt}"),
            Srai { rd, rs1, shamt } => write!(f, "srai {rd}, {rs1}, {shamt}"),
            Add { rd, rs1, rs2 } => write!(f, "add {rd}, {rs1}, {rs2}"),
            Sub { rd, rs1, rs2 } => write!(f, "sub {rd}, {rs1}, {rs2}"),
            Sll { rd, rs1, rs2 } => write!(f, "sll {rd}, {rs1}, {rs2}"),
            Slt { rd, rs1, rs2 } => write!(f, "slt {rd}, {rs1}, {rs2}"),
            Sltu { rd, rs1, rs2 } => write!(f, "sltu {rd}, {rs1}, {rs2}"),
            Xor { rd, rs1, rs2 } => write!(f, "xor {rd}, {rs1}, {rs2}"),
            Srl { rd, rs1, rs2 } => write!(f, "srl {rd}, {rs1}, {rs2}"),
            Sra { rd, rs1, rs2 } => write!(f, "sra {rd}, {rs1}, {rs2}"),
            Or { rd, rs1, rs2 } => write!(f, "or {rd}, {rs1}, {rs2}"),
            And { rd, rs1, rs2 } => write!(f, "and {rd}, {rs1}, {rs2}"),
            Mul { rd, rs1, rs2 } => write!(f, "mul {rd}, {rs1}, {rs2}"),
            Mulh { rd, rs1, rs2 } => write!(f, "mulh {rd}, {rs1}, {rs2}"),
            Mulhsu { rd, rs1, rs2 } => write!(f, "mulhsu {rd}, {rs1}, {rs2}"),
            Mulhu { rd, rs1, rs2 } => write!(f, "mulhu {rd}, {rs1}, {rs2}"),
            Div { rd, rs1, rs2 } => write!(f, "div {rd}, {rs1}, {rs2}"),
            Divu { rd, rs1, rs2 } => write!(f, "divu {rd}, {rs1}, {rs2}"),
            Rem { rd, rs1, rs2 } => write!(f, "rem {rd}, {rs1}, {rs2}"),
            Remu { rd, rs1, rs2 } => write!(f, "remu {rd}, {rs1}, {rs2}"),
            Ecall => write!(f, "ecall"),
            Ebreak => write!(f, "ebreak"),
            Csrrw { rd, rs1, csr } => write!(f, "csrrw {rd}, {csr:#x}, {rs1}"),
            Csrrs { rd, rs1, csr } => write!(f, "csrrs {rd}, {csr:#x}, {rs1}"),
            Csrrc { rd, rs1, csr } => write!(f, "csrrc {rd}, {csr:#x}, {rs1}"),
            Custom { op, rd, rs1, rs2 } => {
                write!(f, "{} {rd}, {rs1}, {rs2}", op.mnemonic())
            }
            Packed { op, rd, rs1, rs2 } => {
                write!(f, "{} {rd}, {rs1}, {rs2}", op.mnemonic())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference encodings cross-checked against the RISC-V spec / GNU as.
    #[test]
    fn known_encodings() {
        // addi x1, x2, -1 => imm=0xfff rs1=2 f3=0 rd=1 op=0010011
        assert_eq!(
            Inst::Addi {
                rd: Reg::Ra,
                rs1: Reg::Sp,
                imm: -1
            }
            .encode(),
            0xFFF1_0093
        );
        // add x3, x4, x5
        assert_eq!(
            Inst::Add {
                rd: Reg::Gp,
                rs1: Reg::Tp,
                rs2: Reg::T0
            }
            .encode(),
            0x0052_01B3
        );
        // lui a0, 0x12345
        assert_eq!(
            Inst::Lui {
                rd: Reg::A0,
                imm: 0x1234_5000
            }
            .encode(),
            0x1234_5537
        );
        // lw a1, 8(sp)
        assert_eq!(
            Inst::Lw {
                rd: Reg::A1,
                rs1: Reg::Sp,
                imm: 8
            }
            .encode(),
            0x0081_2583
        );
        // sw a1, 12(sp)
        assert_eq!(
            Inst::Sw {
                rs2: Reg::A1,
                rs1: Reg::Sp,
                imm: 12
            }
            .encode(),
            0x00B1_2623
        );
        // ecall / ebreak
        assert_eq!(Inst::Ecall.encode(), 0x0000_0073);
        assert_eq!(Inst::Ebreak.encode(), 0x0010_0073);
        // mul a0, a1, a2
        assert_eq!(
            Inst::Mul {
                rd: Reg::A0,
                rs1: Reg::A1,
                rs2: Reg::A2
            }
            .encode(),
            0x02C5_8533
        );
    }

    #[test]
    fn custom1_encoding_matches_paper() {
        // Fig. 6 / Table VII: R-type, opcode 0101011, funct7 = 0.
        let w = Inst::Custom {
            op: CustomOp::Gelu,
            rd: Reg::A0,
            rs1: Reg::A1,
            rs2: Reg::Zero,
        }
        .encode();
        assert_eq!(w & 0x7F, 0b0101011, "custom-1 opcode");
        assert_eq!(w >> 25, 0, "funct7 must be 0");
        assert_eq!(w >> 12 & 0x7, 0b011, "ALU_GELU funct3 = 3'b011");
    }

    #[test]
    fn branch_offset_encoding() {
        // beq x0, x0, -8 (backwards loop)
        let w = Inst::Beq {
            rs1: Reg::Zero,
            rs2: Reg::Zero,
            offset: -8,
        }
        .encode();
        match Inst::decode(w).unwrap() {
            Inst::Beq { offset, .. } => assert_eq!(offset, -8),
            other => panic!("decoded {other:?}"),
        }
        // jal ra, +2048
        let w = Inst::Jal {
            rd: Reg::Ra,
            offset: 2048,
        }
        .encode();
        match Inst::decode(w).unwrap() {
            Inst::Jal { rd, offset } => {
                assert_eq!(rd, Reg::Ra);
                assert_eq!(offset, 2048);
            }
            other => panic!("decoded {other:?}"),
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert_eq!(Inst::decode(0x0000_0000), None); // all zeros is illegal
        assert_eq!(Inst::decode(0xFFFF_FFFF), None);
    }

    #[test]
    fn all_custom_ops_round_trip() {
        for op in [
            CustomOp::Exp,
            CustomOp::Invert,
            CustomOp::Gelu,
            CustomOp::ToFixed,
            CustomOp::ToFloat,
        ] {
            let inst = Inst::Custom {
                op,
                rd: Reg::T0,
                rs1: Reg::T1,
                rs2: Reg::T2,
            };
            assert_eq!(Inst::decode(inst.encode()), Some(inst));
        }
        // funct3 = 010 is not a defined custom op
        let bad = enc_r(0, Reg::Zero, Reg::Zero, 0b010, Reg::Zero, OP_CUSTOM1);
        assert_eq!(Inst::decode(bad), None);
    }

    #[test]
    fn custom2_encoding_space() {
        // R-type, opcode 1011011, funct7 = 0 for the packed ALU ops.
        let w = Inst::Packed {
            op: PackedOp::Kdot4I8,
            rd: Reg::A0,
            rs1: Reg::A1,
            rs2: Reg::A2,
        }
        .encode();
        assert_eq!(w & 0x7F, 0b1011011, "custom-2 opcode");
        assert_eq!(w >> 25, 0, "funct7 must be 0");
        assert_eq!(w >> 12 & 0x7, 0b000, "kdot4.i8 funct3 = 3'b000");
    }

    #[test]
    fn all_packed_ops_round_trip() {
        for op in [
            PackedOp::Kdot4I8,
            PackedOp::KsatI16,
            PackedOp::Kclip,
            PackedOp::KcvtH2F,
            PackedOp::KcvtF2H,
            PackedOp::KfaddT,
            PackedOp::KfsubT,
            PackedOp::KfmulT,
        ] {
            let inst = Inst::Packed {
                op,
                rd: Reg::T0,
                rs1: Reg::T1,
                rs2: Reg::T2,
            };
            assert_eq!(Inst::decode(inst.encode()), Some(inst));
        }
        // funct7 = 3 is reserved in the float slot
        let bad = enc_r(3, Reg::Zero, Reg::Zero, 0b111, Reg::Zero, OP_CUSTOM2);
        assert_eq!(Inst::decode(bad), None);
        // non-float R-type packed ops require funct7 = 0
        let bad = enc_r(1, Reg::Zero, Reg::Zero, 0b000, Reg::Zero, OP_CUSTOM2);
        assert_eq!(Inst::decode(bad), None);
    }

    #[test]
    fn display_disassembly() {
        assert_eq!(
            Inst::Addi {
                rd: Reg::A0,
                rs1: Reg::Zero,
                imm: 42
            }
            .to_string(),
            "addi a0, zero, 42"
        );
        assert_eq!(
            Inst::Custom {
                op: CustomOp::Exp,
                rd: Reg::A0,
                rs1: Reg::A1,
                rs2: Reg::Zero
            }
            .to_string(),
            "alu.exp a0, a1, zero"
        );
        assert_eq!(
            Inst::Lw {
                rd: Reg::T0,
                rs1: Reg::Sp,
                imm: -4
            }
            .to_string(),
            "lw t0, -4(sp)"
        );
        assert_eq!(
            Inst::Packed {
                op: PackedOp::Kdot4I8,
                rd: Reg::A0,
                rs1: Reg::A1,
                rs2: Reg::A2
            }
            .to_string(),
            "kdot4.i8 a0, a1, a2"
        );
    }

    #[test]
    fn shift_encodings_distinguish_srl_sra() {
        let srli = Inst::Srli {
            rd: Reg::A0,
            rs1: Reg::A0,
            shamt: 5,
        };
        let srai = Inst::Srai {
            rd: Reg::A0,
            rs1: Reg::A0,
            shamt: 5,
        };
        assert_ne!(srli.encode(), srai.encode());
        assert_eq!(Inst::decode(srli.encode()), Some(srli));
        assert_eq!(Inst::decode(srai.encode()), Some(srai));
    }

    #[test]
    fn csr_round_trip() {
        let i = Inst::Csrrw {
            rd: Reg::Zero,
            rs1: Reg::A0,
            csr: 0x7C0,
        };
        assert_eq!(Inst::decode(i.encode()), Some(i));
        let i = Inst::Csrrs {
            rd: Reg::A0,
            rs1: Reg::Zero,
            csr: 0xB00,
        };
        assert_eq!(Inst::decode(i.encode()), Some(i));
    }
}
