//! # kwt-rv32
//!
//! An RV32IMC instruction-set simulator modelling the paper's platform: a
//! lowRISC-Ibex-class core (Table II: 64 kB RAM, 50 MHz, **no FPU**) with
//! a per-instruction-class cycle model, the paper's `custom-1` extension
//! (Table VII) wired to the Q8.24 lookup tables of [`kwt_quant`], and the
//! **Xkwtdot** `custom-2` packed-MAC extension that the fully-INT8 A8
//! images run their GEMM inner loops on.
//!
//! The simulator is the measurement instrument for the paper's headline
//! result — inference clock cycles dropping from 26 M (float) through
//! 13 M (quantised) to 5.5 M (quantised + custom instructions) — so its
//! cycle accounting is explicit and configurable ([`TimingModel`]), a
//! region [`Profiler`] (driven by CSR writes from generated code)
//! reproduces the per-operation breakdowns of Figs. 3–5, and a
//! [`ClassHistogram`] attributes cycles to instruction classes so ISA
//! experiments (scalar vs A8 images) can be compared paper-style.
//!
//! # Execution model
//!
//! [`Cpu::step`] fetches through the pre-decode execution cache
//! (`icache` module) — every parcel is decoded at most once, and the
//! cached slot carries the decoded instruction, its length, its
//! [`InstClass`] and its base cycle cost — then dispatches to one of the
//! core's **functional units** ([`FuncUnit`]): ALU, multiply/divide,
//! load/store, branch/jump, system/CSR, the custom-1 LUT unit, and the
//! custom-2 packed-SIMD unit. Store-driven invalidation keeps
//! self-modifying code correct; the cache changes wall-clock simulation
//! speed only — cycle counts, traps and architectural state are
//! identical with it on or off ([`Cpu::set_decode_cache_enabled`]).
//!
//! # Custom-instruction encoding map
//!
//! | opcode | funct3 | form | mnemonic | unit | semantics |
//! |--------|--------|------|----------|------|-----------|
//! | `0101011` (custom-1) | `000` | R | `alu.exp`     | LUT   | Q8.24 `e^−x` via LUT1 |
//! | `0101011` | `001` | R | `alu.invert`  | LUT   | Q8.24 `1/x` via LUT2 |
//! | `0101011` | `011` | R | `alu.gelu`    | LUT   | Q8.24 `GELU(x)` via LUT3 |
//! | `0101011` | `100` | R | `alu.tofixed` | LUT   | f32 → Q8.24 |
//! | `0101011` | `101` | R | `alu.tofloat` | LUT   | Q8.24 → f32 |
//! | `1011011` (custom-2) | `000` | R | `kdot4.i8`  | SIMD | `rd += Σ₀³ i8(rs1.b)·i8(rs2.b)` |
//! | `1011011` | `010` | R | `ksat.i16`  | SIMD | `rd = sat16(rs1 >>ₐ (rs2&31))` |
//! | `1011011` | `011` | R | `kclip`     | SIMD | `rd = clamp(rs1, −2ⁿ, 2ⁿ−1)`, `n = rs2&31` |
//! | `1011011` | `101` | R | `kcvt.h2f`  | SIMD | `rd = f32(i16(rs1.h0)) · 2^−(rs2&31)` |
//! | `1011011` | `110` | R | `kcvt.f2h`  | SIMD | `rd = sat16(⌊f32(rs1) · 2^(rs2&31)⌋)` |
//! | `1011011` | `111` | R | `kfadd.t` / `kfsub.t` / `kfmul.t` | SIMD | funct7-selected truncating f32 ops, bit-identical to the bare-metal soft-float library ([`softfp`]) |
//!
//! All custom ops are R-type and require `funct7 = 0` (the funct3 = 111
//! float slot uses funct7 = 0/1/2 as its sub-op selector); custom-2
//! funct3 `001` and `100` are unassigned and raise
//! [`Trap::IllegalInstruction`]. LUT lookups whose index
//! overruns a (deliberately truncated) table raise the typed
//! [`Trap::LutIndexOutOfRange`] instead of panicking the host process.
//!
//! ## A8 (fully-INT8) usage
//!
//! The A8W8 images drive `kdot4.i8` with two plain `lw`-fetched i8
//! operand words (activations *and* transposed weights) and narrow
//! accumulators to i8 through
//! `ksat.i16` + `kclip 7`. Their quantisation boundaries compose
//! `kcvt.h2f`/`kcvt.f2h` at shift 0 with a truncating `kfmul.t` by an
//! arbitrary power-of-two scale, so stream exponents may be negative;
//! because `kfadd.t`/`kfsub.t`/`kfmul.t` execute [`softfp`] exactly and
//! the LUT unit executes `kwt_quant`'s fixed-point golden models, a
//! host-side A8 model (`kwt_quant::A8Kwt`) reproduces device logits
//! bit-for-bit.
//!
//! # Cluster simulation: the functional / timing split
//!
//! The [`cluster`] module scales the single hart to an N-hart SoC —
//! shared bank-interleaved memory behind a round-robin arbiter — by
//! keeping two concerns strictly apart:
//!
//! * **Functional model**: each hart is a plain [`Machine`] retiring
//!   exactly the stream it would retire alone. Shared code/weight banks
//!   are read-only and scratch/IO is per-hart private, so hart streams
//!   are independent by construction.
//! * **Timing model**: an event-driven scheduler replays those streams
//!   on one SoC timeline, routing every data access (captured by the
//!   opt-in [`Cpu::take_data_access`] probe) to a word-interleaved bank
//!   with a busy-until counter; conflicting accesses stall the losing
//!   hart, ties resolve round-robin, and the whole schedule is
//!   deterministic.
//!
//! Timing never feeds back into function — contention changes *when* an
//! access happens, never *what* it reads — which is what makes a
//! single-hart cluster provably bit- and cycle-identical to
//! [`Machine::run`] (asserted over random programs in
//! `tests/cluster_props.rs`).
//!
//! # Fault model and watchdog
//!
//! The trap taxonomy ([`Trap`], `#[non_exhaustive]`) covers decode
//! faults (`IllegalInstruction`), memory faults (`FetchOutOfBounds`,
//! `AccessOutOfBounds`, `MisalignedAccess`), environment calls, LUT
//! table overruns, the host-side step limit (`OutOfFuel`) and the
//! deployment-style cycle watchdog (`WatchdogExpired`). A [`Machine`]
//! can arm a per-`run`-call cycle budget
//! ([`Machine::set_cycle_watchdog`]) so a wedged or runaway image stops
//! with a typed trap instead of spinning, and a deterministic
//! [`FaultPlan`] ([`fault`] module) injects bit flips, forced traps and
//! LUT corruption at exact architectural points — seeded, replayable,
//! and free on the fault-free path (the plain `run` loop is untouched
//! when neither is armed, and simulated cycle counts are identical
//! either way).
//!
//! # Example
//!
//! ```
//! use kwt_rv32::{Machine, Platform};
//! use kwt_rvasm::{Asm, Inst, Reg};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut asm = Asm::new(0x0, 0x8000);
//! asm.li(Reg::A0, 21);
//! asm.emit(Inst::Add { rd: Reg::A0, rs1: Reg::A0, rs2: Reg::A0 });
//! asm.emit(Inst::Ebreak);
//! let program = asm.finish()?;
//!
//! let mut machine = Machine::load(&program, Platform::ibex())?;
//! let result = machine.run(1_000)?;
//! assert_eq!(result.exit_code, 42);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
mod cpu;
pub mod fault;
mod icache;
mod machine;
mod mem;
mod profile;
pub mod softfp;
mod trap;

pub use cluster::{BankConfig, Cluster, ClusterRun, HartStats};
pub use cpu::{Cpu, FuncUnit, StepOutcome};
pub use fault::{FaultEvent, FaultKind, FaultPlan, FaultRecord, FaultTrigger};
pub use icache::DecodeCacheStats;
pub use machine::{Machine, RunResult, TraceEntry};
pub use mem::Memory;
pub use profile::{ClassHistogram, InstClass, ProfileReport, Profiler, NUM_INST_CLASSES};
pub use trap::Trap;

use serde::{Deserialize, Serialize};

/// Static platform description (paper Table II).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Platform {
    /// RAM base address.
    pub ram_base: u32,
    /// RAM size in bytes.
    pub ram_size: u32,
    /// Core clock in Hz (used to convert cycles to wall time / power).
    pub clock_hz: u64,
    /// Reserved stack bytes at the top of RAM (§V: 4 kB for KWT-Tiny).
    pub stack_bytes: u32,
}

impl Platform {
    /// The paper's Ibex instance: 64 kB RAM at 0x0, 50 MHz, 4 kB stack.
    pub fn ibex() -> Self {
        Platform {
            ram_base: 0x0000_0000,
            ram_size: 64 * 1024,
            clock_hz: 50_000_000,
            stack_bytes: 4 * 1024,
        }
    }

    /// A roomier variant for host-side experiments that exceed 64 kB
    /// (e.g. profiling KWT-1-scale workloads). Same timing model.
    pub fn ibex_with_ram(ram_size: u32) -> Self {
        Platform {
            ram_size,
            ..Platform::ibex()
        }
    }

    /// First address past RAM.
    pub fn ram_end(&self) -> u32 {
        self.ram_base + self.ram_size
    }

    /// Initial stack pointer (16-byte aligned top of RAM).
    pub fn initial_sp(&self) -> u32 {
        self.ram_end() & !0xF
    }

    /// Converts a cycle count to seconds at the platform clock.
    pub fn cycles_to_seconds(&self, cycles: u64) -> f64 {
        cycles as f64 / self.clock_hz as f64
    }
}

impl Default for Platform {
    fn default() -> Self {
        Platform::ibex()
    }
}

/// Per-instruction-class cycle costs.
///
/// Defaults follow the lowRISC Ibex documentation for the 2-stage,
/// "fast multiplier" configuration: single-cycle ALU ops, 3-cycle
/// multiplies, 37-cycle divides, 2-cycle loads/stores (1 + memory), 3
/// cycles for taken branches and jumps (pipeline flush), 1 cycle for
/// not-taken branches. The custom LUT instructions are modelled at 2
/// cycles (register read, ROM lookup, writeback).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TimingModel {
    /// Simple ALU / CSR instructions.
    pub alu: u64,
    /// `mul`, `mulh`, `mulhsu`, `mulhu`.
    pub mul: u64,
    /// `div`, `divu`, `rem`, `remu`.
    pub div: u64,
    /// Loads.
    pub load: u64,
    /// Stores.
    pub store: u64,
    /// Taken conditional branches.
    pub branch_taken: u64,
    /// Not-taken conditional branches.
    pub branch_not_taken: u64,
    /// `jal` / `jalr`.
    pub jump: u64,
    /// The five `custom-1` operations.
    pub custom: u64,
    /// Xkwtdot packed dot-product (`kdot4.i8`): four-lane MAC array with
    /// a single accumulate writeback.
    pub kdot: u64,
    /// Xkwtdot packed saturate/clip (`ksat.i16`, `kclip`): plain ALU
    /// datapath with a comparator tree.
    pub ksat: u64,
    /// Xkwtdot quantisation converts (`kcvt.h2f`, `kcvt.f2h`): shares
    /// the custom-1 float-convert datapath.
    pub kcvt: u64,
    /// Xkwtdot truncating scalar-float ops (`kfadd.t`, `kfsub.t`,
    /// `kfmul.t`): a small iterative FPU datapath, modelled like the
    /// fast multiplier.
    pub kfloat: u64,
}

impl TimingModel {
    /// The Ibex-class default described above.
    pub fn ibex() -> Self {
        TimingModel {
            alu: 1,
            mul: 3,
            div: 37,
            load: 2,
            store: 2,
            branch_taken: 3,
            branch_not_taken: 1,
            jump: 3,
            custom: 2,
            kdot: 2,
            ksat: 1,
            kcvt: 2,
            kfloat: 3,
        }
    }

    /// An idealised single-cycle machine — useful to separate
    /// instruction-count effects from stall effects in ablations.
    pub fn single_cycle() -> Self {
        TimingModel {
            alu: 1,
            mul: 1,
            div: 1,
            load: 1,
            store: 1,
            branch_taken: 1,
            branch_not_taken: 1,
            jump: 1,
            custom: 1,
            kdot: 1,
            ksat: 1,
            kcvt: 1,
            kfloat: 1,
        }
    }

    /// Base cycle cost of an instruction class (branches are charged
    /// not-taken here; the taken upgrade happens at execution).
    pub fn class_cost(&self, class: InstClass) -> u64 {
        match class {
            InstClass::Alu => self.alu,
            InstClass::Mul => self.mul,
            InstClass::Div => self.div,
            InstClass::Load => self.load,
            InstClass::Store => self.store,
            InstClass::Branch => self.branch_not_taken,
            InstClass::Jump => self.jump,
            InstClass::System => self.alu,
            InstClass::Lut => self.custom,
            InstClass::PackedDot => self.kdot,
            InstClass::PackedAlu => self.ksat,
            InstClass::PackedCvt => self.kcvt,
            InstClass::PackedFloat => self.kfloat,
        }
    }
}

impl Default for TimingModel {
    fn default() -> Self {
        TimingModel::ibex()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn platform_matches_table2() {
        let p = Platform::ibex();
        assert_eq!(p.ram_size, 65_536);
        assert_eq!(p.clock_hz, 50_000_000);
        assert_eq!(p.ram_end(), 0x1_0000);
        assert_eq!(p.initial_sp() % 16, 0);
    }

    #[test]
    fn cycle_conversion() {
        let p = Platform::ibex();
        assert!((p.cycles_to_seconds(50_000_000) - 1.0).abs() < 1e-12);
        // 5.5M cycles at 50 MHz = 110 ms per inference (paper's fastest).
        assert!((p.cycles_to_seconds(5_500_000) - 0.11).abs() < 1e-12);
    }

    #[test]
    fn timing_models() {
        let t = TimingModel::ibex();
        assert_eq!(t.div, 37);
        assert!(t.mul > t.alu);
        let s = TimingModel::single_cycle();
        assert_eq!(s.div, 1);
    }
}
