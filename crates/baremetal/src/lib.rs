//! # kwt-baremetal
//!
//! The generated bare-metal program: everything that runs *on* the
//! simulated Ibex core.
//!
//! The paper implements KWT-Tiny inference in bare-metal C; this crate
//! plays that role by *generating* RV32 machine code through
//! [`kwt_rvasm`]:
//!
//! * [`softfloat`] — an IEEE-754 single-precision library in assembly
//!   (add/sub/mul/div/convert/compare). The Ibex has no FPU (Table II),
//!   so every float operation in the float model pays tens-to-hundreds
//!   of integer instructions — exactly the cost the paper's quantisation
//!   and custom instructions attack.
//! * [`mathlib`] — `expf`, `erff`, `rsqrtf` and scalar GELU on top of the
//!   soft-float ops (the C library's `expf`/`erf` equivalents).
//! * [`kernels`] — the Table VI tensor library as assembly routines, in
//!   float, quantised-integer and custom-instruction-accelerated
//!   flavours.
//! * [`specialise`] — the emit-time kernel specialiser: a geometry-driven
//!   generator for `kdot4.i8` GEMM and LayerNorm kernels (unrolled K,
//!   register-cached activation rows, strides folded into immediates,
//!   fused requant epilogues) plus the committed autotuning artefact
//!   ([`specialise::TunedKernels`]) that records cycle-counter-selected
//!   unroll/blocking factors per model geometry.
//! * [`image`] — complete inference programs (float / quantised /
//!   quantised+HW / A8) with the paper's two static memory banks (§V),
//!   profiling region markers (Figs. 3–5) and a host harness to run them
//!   on the [`kwt_rv32`] simulator. One builder,
//!   [`InferenceImage::build`], lowers a single KWT forward-graph
//!   emitter onto the kernel library an [`ImageSpec`] selects; the
//!   `build_float` / `build_quant` / `build_a8` shorthands are its
//!   paper-default specs on the 64 kB Ibex. The A8 image emits a tuned
//!   specialised kernel for every GEMM/LayerNorm call site, keeping the
//!   generic kernels as the misalignment fallback and differential
//!   oracle.
//!
//! Rounding note: the soft-float ops round toward zero (truncate) and
//! flush denormals, where host `f32` rounds to nearest-even. Differential
//! tests therefore compare with a 1-ULP-per-op tolerance; the *cycle
//! cost*, which is what the paper measures, is unaffected.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod banks;
pub mod cluster;
mod error;
pub mod image;
pub mod kernels;
pub mod mathlib;
pub mod regions;
pub mod softfloat;
pub mod specialise;

pub use banks::Bank;
pub use cluster::{ClusterSession, ClusterWave};
pub use error::{BuildError, DeviceError};
pub use image::{DeviceSession, Flavor, ImageSpec, InferenceImage, RecoveryReport};
pub use kernels::A8Kernels;

/// Convenience alias for results returned by this crate.
pub type Result<T> = std::result::Result<T, BuildError>;
