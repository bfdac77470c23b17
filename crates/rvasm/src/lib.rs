//! # kwt-rvasm
//!
//! An RV32 assembler-as-a-library: typed instruction constructors, a
//! program builder with labels and a data section, an encoder, a decoder
//! (shared with the `kwt-rv32` simulator) and a disassembler.
//!
//! Coverage: RV32I, the M extension, `Zicsr`, `ecall`/`ebreak`, the
//! paper's `custom-1` instruction (opcode `0b0101011`, Table VII), the
//! **Xkwtdot** `custom-2` packed-MAC extension (opcode `0b1011011`), and
//! an RV32C expander used by the simulator to execute compressed code.
//!
//! # Custom-instruction encoding map
//!
//! Both extensions use the standard RISC-V custom opcode space. All ops
//! are R-type with `funct7 = 0` unless noted.
//!
//! | opcode (custom-1, `0101011`) | funct3 | mnemonic       | semantics |
//! |------------------------------|--------|----------------|-----------|
//! |                              | `000`  | `alu.exp`      | LUT `e^−x`, Q8.24 |
//! |                              | `001`  | `alu.invert`   | LUT `1/x`, Q8.24 |
//! |                              | `011`  | `alu.gelu`     | LUT `GELU(x)`, Q8.24 |
//! |                              | `100`  | `alu.tofixed`  | f32 → Q8.24 |
//! |                              | `101`  | `alu.tofloat`  | Q8.24 → f32 |
//! | opcode (custom-2, `1011011`) | funct3 | mnemonic       | semantics |
//! |                              | `000`  | `kdot4.i8`     | `rd += Σ₀³ i8·i8` (SMAQA-style) |
//! |                              | `010`  | `ksat.i16`     | `rd = sat16(rs1 >>ₐ rs2)` |
//! |                              | `011`  | `kclip`        | `rd = clamp(rs1, −2ⁿ, 2ⁿ−1)` |
//! |                              | `101`  | `kcvt.h2f`     | `f32(i16) · 2^−s` (dequantise) |
//! |                              | `110`  | `kcvt.f2h`     | `sat16(⌊f32 · 2^s⌋)` (requantise) |
//! |                              | `111`  | `kfadd.t` / `kfsub.t` / `kfmul.t` | funct7-selected truncating f32 ops (soft-float-exact) |
//!
//! custom-2 funct3 `001` and `100` are unassigned: they decode as illegal
//! instructions. The extension has no memory-form op; the packed operands
//! of `kdot4.i8` are fetched with plain `lw` (4 i8 lanes per word).
//!
//! # A8 (fully-INT8) kernel calling conventions
//!
//! The A8W8 inference pipeline, the extension's only user, takes **both**
//! operands as i8: activations and transposed `N×K` weights are
//! fetched four lanes per `lw` and accumulated with `kdot4.i8` — 16 MACs
//! per unrolled GEMM iteration. Kernel epilogues narrow the i32
//! accumulator straight to i8 with the `ksat.i16 rd, acc, shift` +
//! `kclip rd, rd, 7` pair, and the quantisation boundaries are the
//! two-instruction sequences `kcvt.h2f rd, rs1, 0` + `kfmul.t` (signed
//! power-of-two dequantise — a sign-extended `lb` is a valid i16
//! operand) and `kfmul.t` + `kcvt.f2h rd, rs1, 0` + `kclip rd, rd, 7`
//! (floor-requantise to i8). Generated kernels follow the ILP32 ABI:
//! `matmul_a8(A, Wt, bias|0, out, M, K, N, shift)` in `a0..a7`, with
//! 4-aligned operand bases and `K % 4 == 0` on the packed fast path
//! (anything else takes a bit-identical scalar fallback).
//!
//! The [`emit`] module packages these recurring shapes — straight-line
//! `lw`/`lw`/`kdot4.i8` MAC groups, register-cached variants, scalar
//! `lb` MAC tails and the `ksat.i16` + `kclip` epilogue — as reusable
//! helpers, so the hand-written fused-attention emitter and the
//! geometry-driven GEMM/LayerNorm specialiser in `kwt-baremetal`
//! generate byte-identical sequences from one implementation.
//!
//! # Example
//!
//! ```
//! use kwt_rvasm::{Asm, Inst, Reg};
//!
//! # fn main() -> Result<(), kwt_rvasm::AsmError> {
//! let mut asm = Asm::new(0x0000_0000, 0x0000_8000);
//! // a0 = a0 + a1; return
//! asm.emit(Inst::Add { rd: Reg::A0, rs1: Reg::A0, rs2: Reg::A1 });
//! asm.emit(Inst::Ebreak);
//! let program = asm.finish()?;
//! assert_eq!(program.text.len(), 2);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod asm;
mod compressed;
pub mod emit;
mod error;
mod inst;
mod reg;

pub use asm::{Asm, Label, Program};
pub use compressed::expand_compressed;
pub use error::AsmError;
pub use inst::{CustomOp, Inst, PackedOp, OP_CUSTOM1, OP_CUSTOM2};
pub use reg::Reg;

/// Convenience alias for results returned by this crate.
pub type Result<T> = std::result::Result<T, AsmError>;

/// Standard machine-mode CSR: cycle counter.
pub const CSR_MCYCLE: u32 = 0xB00;
/// Standard machine-mode CSR: retired-instruction counter.
pub const CSR_MINSTRET: u32 = 0xB02;
/// Custom CSR used by the profiler: write = push region id.
pub const CSR_PROFILE_PUSH: u32 = 0x7C0;
/// Custom CSR used by the profiler: write = pop region.
pub const CSR_PROFILE_POP: u32 = 0x7C1;
