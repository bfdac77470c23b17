//! Fetch/decode/execute core with cycle accounting, organised as a set
//! of **functional units**.
//!
//! Instruction dispatch runs through the pre-decode cache of
//! [`crate::icache`]: each parcel is fetched and decoded at most once,
//! and the cached slot carries the decoded [`Inst`], its length, its
//! [`InstClass`] and its base cycle cost. [`Cpu::step`] charges the
//! cycles, records the class histogram, and routes the instruction to
//! one of the core's units ([`FuncUnit`]):
//!
//! * **ALU** — integer arithmetic, logic, shifts, compares, `lui`/`auipc`
//! * **mul/div** — the M extension
//! * **load/store** — scalar memory accesses (with decode-cache
//!   invalidation on stores)
//! * **branch** — conditional branches and jumps (taken-branch upgrade)
//! * **system** — `ecall`/`ebreak`/Zicsr
//! * **LUT** — the paper's custom-1 Q8.24 ops backed by [`LutSet`] ROMs
//! * **packed SIMD** — the Xkwtdot custom-2 extension (`kdot4.i8`,
//!   `ksat.i16`, `kclip`, `kcvt.h2f`, `kcvt.f2h`, `kfadd.t`,
//!   `kfsub.t`, `kfmul.t`), register-to-register only
//!
//! Architectural stores invalidate overlapping cache slots, so
//! self-modifying code behaves exactly as on the uncached interpreter
//! (covered by `tests/differential.rs`).

use crate::icache::{DecodeCache, DecodeCacheStats};
use crate::mem::Memory;
use crate::profile::{ClassHistogram, InstClass, Profiler, NUM_INST_CLASSES};
use crate::trap::Trap;
use crate::TimingModel;
use kwt_quant::{LutSet, Q8_24};
use kwt_rvasm::{expand_compressed, CustomOp, Inst, PackedOp, Reg};
use std::collections::BTreeMap;

/// Result of executing one instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// Continue executing.
    Continue,
    /// `ebreak` retired — the program is done.
    Halted,
}

/// The functional unit that executes an instruction — the dispatch axis
/// of [`Cpu::step`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FuncUnit {
    /// Integer ALU (arithmetic, logic, shifts, compares, `lui`/`auipc`).
    Alu,
    /// Multiplier / divider (the M extension).
    MulDiv,
    /// Scalar load/store unit.
    LoadStore,
    /// Branch/jump unit.
    Branch,
    /// System unit (`ecall`/`ebreak`/Zicsr).
    System,
    /// custom-1 LUT unit (Q8.24 ROM lookups and float converts).
    Lut,
    /// custom-2 packed-SIMD unit (Xkwtdot).
    Simd,
}

impl InstClass {
    /// The functional unit responsible for this cycle class.
    pub fn unit(self) -> FuncUnit {
        match self {
            InstClass::Alu => FuncUnit::Alu,
            InstClass::Mul | InstClass::Div => FuncUnit::MulDiv,
            InstClass::Load | InstClass::Store => FuncUnit::LoadStore,
            InstClass::Branch | InstClass::Jump => FuncUnit::Branch,
            InstClass::System => FuncUnit::System,
            InstClass::Lut => FuncUnit::Lut,
            InstClass::PackedDot
            | InstClass::PackedAlu
            | InstClass::PackedCvt
            | InstClass::PackedFloat => FuncUnit::Simd,
        }
    }
}

/// Maps an instruction to its cycle class (and thereby its functional
/// unit). Computed once per cached instruction.
pub(crate) fn classify(inst: &Inst) -> InstClass {
    use Inst::*;
    match inst {
        Lui { .. }
        | Auipc { .. }
        | Addi { .. }
        | Slti { .. }
        | Sltiu { .. }
        | Xori { .. }
        | Ori { .. }
        | Andi { .. }
        | Slli { .. }
        | Srli { .. }
        | Srai { .. }
        | Add { .. }
        | Sub { .. }
        | Sll { .. }
        | Slt { .. }
        | Sltu { .. }
        | Xor { .. }
        | Srl { .. }
        | Sra { .. }
        | Or { .. }
        | And { .. } => InstClass::Alu,
        Mul { .. } | Mulh { .. } | Mulhsu { .. } | Mulhu { .. } => InstClass::Mul,
        Div { .. } | Divu { .. } | Rem { .. } | Remu { .. } => InstClass::Div,
        Lb { .. } | Lh { .. } | Lw { .. } | Lbu { .. } | Lhu { .. } => InstClass::Load,
        Sb { .. } | Sh { .. } | Sw { .. } => InstClass::Store,
        Jal { .. } | Jalr { .. } => InstClass::Jump,
        Beq { .. } | Bne { .. } | Blt { .. } | Bge { .. } | Bltu { .. } | Bgeu { .. } => {
            InstClass::Branch
        }
        Ecall | Ebreak | Csrrw { .. } | Csrrs { .. } | Csrrc { .. } => InstClass::System,
        Custom { .. } => InstClass::Lut,
        Packed { op, .. } => match op {
            PackedOp::Kdot4I8 => InstClass::PackedDot,
            PackedOp::KsatI16 | PackedOp::Kclip => InstClass::PackedAlu,
            PackedOp::KcvtH2F | PackedOp::KcvtF2H => InstClass::PackedCvt,
            PackedOp::KfaddT | PackedOp::KfsubT | PackedOp::KfmulT => InstClass::PackedFloat,
        },
    }
}

/// The simulated RV32IMC hart.
#[derive(Debug, Clone)]
pub struct Cpu {
    /// Integer register file (`x0` is hardwired to zero on write).
    pub regs: [u32; 32],
    /// Program counter.
    pub pc: u32,
    /// RAM.
    pub mem: Memory,
    /// Cycle counter (driven by the [`TimingModel`]).
    pub cycles: u64,
    /// Retired instruction counter.
    pub instret: u64,
    /// Region profiler fed by CSR 0x7C0/0x7C1 writes.
    pub profiler: Profiler,
    timing: TimingModel,
    luts: LutSet,
    csrs: BTreeMap<u32, u32>,
    icache: DecodeCache,
    hist_enabled: bool,
    class_counts: [u64; NUM_INST_CLASSES],
    extra_branch_cycles: u64,
    daccess_enabled: bool,
    last_daccess: Option<u32>,
}

impl Cpu {
    /// Creates a hart over `mem` with the given timing and LUT ROMs.
    pub fn new(mem: Memory, timing: TimingModel, luts: LutSet) -> Self {
        let icache = DecodeCache::new(mem.base(), mem.size());
        Cpu {
            regs: [0; 32],
            pc: 0,
            mem,
            cycles: 0,
            instret: 0,
            profiler: Profiler::new(),
            timing,
            luts,
            csrs: BTreeMap::new(),
            icache,
            hist_enabled: false,
            class_counts: [0; NUM_INST_CLASSES],
            extra_branch_cycles: 0,
            daccess_enabled: false,
            last_daccess: None,
        }
    }

    /// Enables or disables the pre-decode cache (default: enabled).
    /// Disabling flushes it, so re-enabling starts cold. Used by the
    /// benchmark suite for cache-on/off comparisons.
    pub fn set_decode_cache_enabled(&mut self, enabled: bool) {
        self.icache.set_enabled(enabled);
    }

    /// Whether the pre-decode cache is serving lookups.
    pub fn decode_cache_enabled(&self) -> bool {
        self.icache.enabled()
    }

    /// Drops every cached decoded instruction. Call after mutating
    /// executed code regions directly through [`Cpu::mem`] (host writes
    /// through [`crate::Machine`]'s typed writers invalidate
    /// automatically).
    pub fn flush_decode_cache(&mut self) {
        self.icache.flush();
    }

    /// Invalidates cached decoded instructions overlapping
    /// `[addr, addr + len)` — the host-side counterpart of the
    /// invalidation architectural stores perform automatically.
    pub fn invalidate_decode_cache(&mut self, addr: u32, len: u32) {
        self.icache.invalidate(addr, len);
    }

    /// Hit/miss/invalidation counters of the pre-decode cache.
    pub fn decode_cache_stats(&self) -> DecodeCacheStats {
        self.icache.stats()
    }

    /// The per-instruction-class cycle histogram accumulated while
    /// [enabled](Cpu::set_class_histogram_enabled).
    pub fn class_histogram(&self) -> ClassHistogram {
        ClassHistogram::from_counts(&self.class_counts, self.extra_branch_cycles, &self.timing)
    }

    /// Turns per-class retirement counting on or off (default **off**:
    /// like a hardware performance counter it is armed on demand — the
    /// data-dependent counter update costs ~20 % host throughput, so the
    /// plain execution path does not pay for it).
    pub fn set_class_histogram_enabled(&mut self, enabled: bool) {
        self.hist_enabled = enabled;
    }

    /// Whether per-class retirement counting is armed.
    pub fn class_histogram_enabled(&self) -> bool {
        self.hist_enabled
    }

    /// Clears the class histogram (the cycle/instret counters are
    /// untouched, so per-phase deltas are best taken by snapshotting).
    pub fn reset_class_histogram(&mut self) {
        self.class_counts = [0; NUM_INST_CLASSES];
        self.extra_branch_cycles = 0;
    }

    /// Turns the data-access trace on or off (default **off**). While
    /// armed, every load/store records the effective address it touched,
    /// readable (and cleared) through [`Cpu::take_data_access`]. Like
    /// the class histogram this is an opt-in probe: the plain execution
    /// path pays only one predictable branch for it. The cluster
    /// arbiter ([`crate::cluster`]) arms it to route accesses to banks.
    pub fn set_data_trace_enabled(&mut self, enabled: bool) {
        self.daccess_enabled = enabled;
        self.last_daccess = None;
    }

    /// Whether the data-access trace is armed.
    pub fn data_trace_enabled(&self) -> bool {
        self.daccess_enabled
    }

    /// The effective address of the most recent traced data access, if
    /// the last stepped instruction performed one. Clears the record, so
    /// each access is observed at most once. RV32 instructions make at
    /// most one data access each, so a single slot is lossless.
    pub fn take_data_access(&mut self) -> Option<u32> {
        self.last_daccess.take()
    }

    /// Reads a register.
    pub fn reg(&self, r: Reg) -> u32 {
        self.regs[r.num() as usize]
    }

    /// Writes a register (`x0` writes are discarded).
    pub fn set_reg(&mut self, r: Reg, value: u32) {
        if r != Reg::Zero {
            self.regs[r.num() as usize] = value;
        }
    }

    /// The LUT ROMs backing the custom instructions.
    pub fn luts(&self) -> &LutSet {
        &self.luts
    }

    /// Replaces the LUT ROMs (threshold experiments).
    pub fn set_luts(&mut self, luts: LutSet) {
        self.luts = luts;
    }

    fn csr_read(&self, csr: u32) -> u32 {
        match csr {
            0xB00 => self.cycles as u32,         // mcycle
            0xB80 => (self.cycles >> 32) as u32, // mcycleh
            0xB02 => self.instret as u32,        // minstret
            0xB82 => (self.instret >> 32) as u32,
            _ => self.csrs.get(&csr).copied().unwrap_or(0),
        }
    }

    fn csr_write(&mut self, csr: u32, value: u32) {
        match csr {
            kwt_rvasm::CSR_PROFILE_PUSH => self.profiler.push(value, self.cycles),
            kwt_rvasm::CSR_PROFILE_POP => self.profiler.pop(self.cycles),
            _ => {
                self.csrs.insert(csr, value);
            }
        }
    }

    /// Executes one instruction.
    ///
    /// # Errors
    ///
    /// Returns a [`Trap`] on any fault; the hart state is left at the
    /// faulting instruction for post-mortem inspection.
    pub fn step(&mut self) -> Result<StepOutcome, Trap> {
        let pc = self.pc;
        let (inst, len, class, cost) = match self.icache.lookup(pc) {
            Some(hit) => hit,
            None => {
                let lo = self.mem.fetch16(pc)?;
                let (inst, len) = if lo & 0b11 == 0b11 {
                    let hi = self.mem.fetch16(pc.wrapping_add(2))?;
                    let word = lo as u32 | ((hi as u32) << 16);
                    (
                        Inst::decode(word).ok_or(Trap::IllegalInstruction { pc, word })?,
                        4,
                    )
                } else {
                    (
                        expand_compressed(lo).ok_or(Trap::IllegalInstruction {
                            pc,
                            word: lo as u32,
                        })?,
                        2,
                    )
                };
                let class = classify(&inst);
                let cost = self.timing.class_cost(class);
                self.icache.fill(pc, inst, len, class, cost);
                (inst, len, class, cost)
            }
        };

        let mut next_pc = pc.wrapping_add(len);
        self.cycles += cost;

        match class.unit() {
            FuncUnit::Alu => self.exec_alu(inst, pc),
            FuncUnit::MulDiv => self.exec_muldiv(inst),
            FuncUnit::LoadStore => self.exec_load_store(inst, pc)?,
            FuncUnit::Branch => self.exec_branch_jump(inst, pc, len, &mut next_pc),
            FuncUnit::System => match self.exec_system(inst, pc)? {
                StepOutcome::Halted => {
                    self.instret += 1;
                    if self.hist_enabled {
                        self.class_counts[class as usize] += 1;
                    }
                    return Ok(StepOutcome::Halted);
                }
                StepOutcome::Continue => {}
            },
            FuncUnit::Lut => self.exec_lut(inst, pc)?,
            FuncUnit::Simd => self.exec_simd(inst),
        }

        self.pc = next_pc;
        self.instret += 1;
        // counted at retirement, so histogram counts track instret even
        // across trapped runs (the faulting instruction's cycles stay
        // charged to `cycles` but are not attributed to a class)
        if self.hist_enabled {
            self.class_counts[class as usize] += 1;
        }
        Ok(StepOutcome::Continue)
    }

    /// Integer ALU unit: arithmetic, logic, shifts, compares, `lui`,
    /// `auipc`.
    #[inline(always)]
    fn exec_alu(&mut self, inst: Inst, pc: u32) {
        use Inst::*;
        match inst {
            Lui { rd, imm } => self.set_reg(rd, imm as u32),
            Auipc { rd, imm } => self.set_reg(rd, pc.wrapping_add(imm as u32)),
            Addi { rd, rs1, imm } => self.set_reg(rd, self.reg(rs1).wrapping_add(imm as u32)),
            Slti { rd, rs1, imm } => self.set_reg(rd, ((self.reg(rs1) as i32) < imm) as u32),
            Sltiu { rd, rs1, imm } => self.set_reg(rd, (self.reg(rs1) < imm as u32) as u32),
            Xori { rd, rs1, imm } => self.set_reg(rd, self.reg(rs1) ^ imm as u32),
            Ori { rd, rs1, imm } => self.set_reg(rd, self.reg(rs1) | imm as u32),
            Andi { rd, rs1, imm } => self.set_reg(rd, self.reg(rs1) & imm as u32),
            Slli { rd, rs1, shamt } => self.set_reg(rd, self.reg(rs1) << (shamt & 31)),
            Srli { rd, rs1, shamt } => self.set_reg(rd, self.reg(rs1) >> (shamt & 31)),
            Srai { rd, rs1, shamt } => {
                self.set_reg(rd, ((self.reg(rs1) as i32) >> (shamt & 31)) as u32)
            }
            Add { rd, rs1, rs2 } => self.set_reg(rd, self.reg(rs1).wrapping_add(self.reg(rs2))),
            Sub { rd, rs1, rs2 } => self.set_reg(rd, self.reg(rs1).wrapping_sub(self.reg(rs2))),
            Sll { rd, rs1, rs2 } => self.set_reg(rd, self.reg(rs1) << (self.reg(rs2) & 31)),
            Slt { rd, rs1, rs2 } => {
                self.set_reg(rd, ((self.reg(rs1) as i32) < (self.reg(rs2) as i32)) as u32)
            }
            Sltu { rd, rs1, rs2 } => self.set_reg(rd, (self.reg(rs1) < self.reg(rs2)) as u32),
            Xor { rd, rs1, rs2 } => self.set_reg(rd, self.reg(rs1) ^ self.reg(rs2)),
            Srl { rd, rs1, rs2 } => self.set_reg(rd, self.reg(rs1) >> (self.reg(rs2) & 31)),
            Sra { rd, rs1, rs2 } => {
                self.set_reg(rd, ((self.reg(rs1) as i32) >> (self.reg(rs2) & 31)) as u32)
            }
            Or { rd, rs1, rs2 } => self.set_reg(rd, self.reg(rs1) | self.reg(rs2)),
            And { rd, rs1, rs2 } => self.set_reg(rd, self.reg(rs1) & self.reg(rs2)),
            other => unreachable!("{other:?} routed to the ALU unit"),
        }
    }

    /// Multiply/divide unit (the M extension).
    #[inline(always)]
    fn exec_muldiv(&mut self, inst: Inst) {
        use Inst::*;
        match inst {
            Mul { rd, rs1, rs2 } => self.set_reg(
                rd,
                (self.reg(rs1) as i32).wrapping_mul(self.reg(rs2) as i32) as u32,
            ),
            Mulh { rd, rs1, rs2 } => {
                let p = (self.reg(rs1) as i32 as i64) * (self.reg(rs2) as i32 as i64);
                self.set_reg(rd, (p >> 32) as u32);
            }
            Mulhsu { rd, rs1, rs2 } => {
                let p = (self.reg(rs1) as i32 as i64) * (self.reg(rs2) as u64 as i64);
                self.set_reg(rd, (p >> 32) as u32);
            }
            Mulhu { rd, rs1, rs2 } => {
                let p = (self.reg(rs1) as u64) * (self.reg(rs2) as u64);
                self.set_reg(rd, (p >> 32) as u32);
            }
            Div { rd, rs1, rs2 } => {
                let a = self.reg(rs1) as i32;
                let b = self.reg(rs2) as i32;
                let q = if b == 0 {
                    -1
                } else if a == i32::MIN && b == -1 {
                    i32::MIN
                } else {
                    a.wrapping_div(b)
                };
                self.set_reg(rd, q as u32);
            }
            Divu { rd, rs1, rs2 } => {
                let b = self.reg(rs2);
                let q = self.reg(rs1).checked_div(b).unwrap_or(u32::MAX);
                self.set_reg(rd, q);
            }
            Rem { rd, rs1, rs2 } => {
                let a = self.reg(rs1) as i32;
                let b = self.reg(rs2) as i32;
                let r = if b == 0 {
                    a
                } else if a == i32::MIN && b == -1 {
                    0
                } else {
                    a.wrapping_rem(b)
                };
                self.set_reg(rd, r as u32);
            }
            Remu { rd, rs1, rs2 } => {
                let b = self.reg(rs2);
                let r = if b == 0 {
                    self.reg(rs1)
                } else {
                    self.reg(rs1) % b
                };
                self.set_reg(rd, r);
            }
            other => unreachable!("{other:?} routed to the mul/div unit"),
        }
    }

    /// Scalar load/store unit. Stores invalidate overlapping decode-cache
    /// slots so self-modifying code stays architecturally exact.
    #[inline(always)]
    fn exec_load_store(&mut self, inst: Inst, pc: u32) -> Result<(), Trap> {
        use Inst::*;
        let addr = match inst {
            Lb { rd, rs1, imm } => {
                let addr = self.reg(rs1).wrapping_add(imm as u32);
                let v = self.mem.load8(addr, pc)?;
                self.set_reg(rd, v as i8 as i32 as u32);
                addr
            }
            Lh { rd, rs1, imm } => {
                let addr = self.reg(rs1).wrapping_add(imm as u32);
                let v = self.mem.load16(addr, pc)?;
                self.set_reg(rd, v as i16 as i32 as u32);
                addr
            }
            Lw { rd, rs1, imm } => {
                let addr = self.reg(rs1).wrapping_add(imm as u32);
                let v = self.mem.load32(addr, pc)?;
                self.set_reg(rd, v);
                addr
            }
            Lbu { rd, rs1, imm } => {
                let addr = self.reg(rs1).wrapping_add(imm as u32);
                let v = self.mem.load8(addr, pc)?;
                self.set_reg(rd, v as u32);
                addr
            }
            Lhu { rd, rs1, imm } => {
                let addr = self.reg(rs1).wrapping_add(imm as u32);
                let v = self.mem.load16(addr, pc)?;
                self.set_reg(rd, v as u32);
                addr
            }
            Sb { rs2, rs1, imm } => {
                let addr = self.reg(rs1).wrapping_add(imm as u32);
                self.mem.store8(addr, self.reg(rs2) as u8, pc)?;
                self.icache.invalidate(addr, 1);
                addr
            }
            Sh { rs2, rs1, imm } => {
                let addr = self.reg(rs1).wrapping_add(imm as u32);
                self.mem.store16(addr, self.reg(rs2) as u16, pc)?;
                self.icache.invalidate(addr, 2);
                addr
            }
            Sw { rs2, rs1, imm } => {
                let addr = self.reg(rs1).wrapping_add(imm as u32);
                self.mem.store32(addr, self.reg(rs2), pc)?;
                self.icache.invalidate(addr, 4);
                addr
            }
            other => unreachable!("{other:?} routed to the load/store unit"),
        };
        if self.daccess_enabled {
            self.last_daccess = Some(addr);
        }
        Ok(())
    }

    /// Branch/jump unit. Taken branches upgrade the charged cycles from
    /// the cached not-taken cost.
    #[inline(always)]
    fn exec_branch_jump(&mut self, inst: Inst, pc: u32, len: u32, next_pc: &mut u32) {
        use Inst::*;
        let t = self.timing;
        macro_rules! branch {
            ($cond:expr, $offset:expr) => {
                if $cond {
                    let upgrade = t.branch_taken - t.branch_not_taken;
                    self.cycles += upgrade;
                    if self.hist_enabled {
                        self.extra_branch_cycles += upgrade;
                    }
                    *next_pc = pc.wrapping_add($offset as u32);
                }
            };
        }
        match inst {
            Jal { rd, offset } => {
                self.set_reg(rd, pc.wrapping_add(len));
                *next_pc = pc.wrapping_add(offset as u32);
            }
            Jalr { rd, rs1, imm } => {
                let target = self.reg(rs1).wrapping_add(imm as u32) & !1;
                self.set_reg(rd, pc.wrapping_add(len));
                *next_pc = target;
            }
            Beq { rs1, rs2, offset } => branch!(self.reg(rs1) == self.reg(rs2), offset),
            Bne { rs1, rs2, offset } => branch!(self.reg(rs1) != self.reg(rs2), offset),
            Blt { rs1, rs2, offset } => {
                branch!((self.reg(rs1) as i32) < (self.reg(rs2) as i32), offset)
            }
            Bge { rs1, rs2, offset } => {
                branch!((self.reg(rs1) as i32) >= (self.reg(rs2) as i32), offset)
            }
            Bltu { rs1, rs2, offset } => branch!(self.reg(rs1) < self.reg(rs2), offset),
            Bgeu { rs1, rs2, offset } => branch!(self.reg(rs1) >= self.reg(rs2), offset),
            other => unreachable!("{other:?} routed to the branch unit"),
        }
    }

    /// System unit: environment calls, breakpoints, Zicsr.
    #[inline(always)]
    fn exec_system(&mut self, inst: Inst, pc: u32) -> Result<StepOutcome, Trap> {
        use Inst::*;
        match inst {
            Ecall => return Err(Trap::EnvironmentCall { pc }),
            Ebreak => return Ok(StepOutcome::Halted),
            Csrrw { rd, rs1, csr } => {
                let old = self.csr_read(csr);
                self.csr_write(csr, self.reg(rs1));
                self.set_reg(rd, old);
            }
            Csrrs { rd, rs1, csr } => {
                let old = self.csr_read(csr);
                if rs1 != Reg::Zero {
                    self.csr_write(csr, old | self.reg(rs1));
                }
                self.set_reg(rd, old);
            }
            Csrrc { rd, rs1, csr } => {
                let old = self.csr_read(csr);
                if rs1 != Reg::Zero {
                    self.csr_write(csr, old & !self.reg(rs1));
                }
                self.set_reg(rd, old);
            }
            other => unreachable!("{other:?} routed to the system unit"),
        }
        Ok(StepOutcome::Continue)
    }

    /// custom-1 LUT unit. Out-of-range indices on (truncated) tables
    /// raise [`Trap::LutIndexOutOfRange`] instead of panicking the host.
    #[inline(always)]
    fn exec_lut(&mut self, inst: Inst, pc: u32) -> Result<(), Trap> {
        let Inst::Custom {
            op,
            rd,
            rs1,
            rs2: _,
        } = inst
        else {
            unreachable!("{inst:?} routed to the LUT unit")
        };
        let x = self.reg(rs1);
        let lut = |r: Result<Q8_24, usize>, table_len: usize| {
            r.map(|q| q.to_bits() as u32)
                .map_err(|index| Trap::LutIndexOutOfRange {
                    pc,
                    index: index as u32,
                    table_len: table_len as u32,
                })
        };
        let y = match op {
            CustomOp::Exp => lut(
                self.luts.try_alu_exp(Q8_24::from_bits(x as i32)),
                self.luts.exp_len(),
            )?,
            CustomOp::Invert => lut(
                self.luts.try_alu_invert(Q8_24::from_bits(x as i32)),
                self.luts.inv_len(),
            )?,
            CustomOp::Gelu => lut(
                self.luts.try_alu_gelu(Q8_24::from_bits(x as i32)),
                self.luts.gelu.len(),
            )?,
            CustomOp::ToFixed => Q8_24::from_f32(f32::from_bits(x)).to_bits() as u32,
            CustomOp::ToFloat => Q8_24::from_bits(x as i32).to_f32().to_bits(),
        };
        self.set_reg(rd, y);
        Ok(())
    }

    /// custom-2 packed-SIMD unit (Xkwtdot).
    #[inline(always)]
    fn exec_simd(&mut self, inst: Inst) {
        let Inst::Packed { op, rd, rs1, rs2 } = inst else {
            unreachable!("{inst:?} routed to the packed-SIMD unit")
        };
        let a = self.reg(rs1);
        let b = self.reg(rs2);
        let v = match op {
            PackedOp::Kdot4I8 => {
                let mut acc = self.reg(rd);
                for lane in 0..4 {
                    let x = (a >> (8 * lane)) as i8 as i32;
                    let y = (b >> (8 * lane)) as i8 as i32;
                    acc = acc.wrapping_add(x.wrapping_mul(y) as u32);
                }
                acc
            }
            PackedOp::KsatI16 => {
                let shifted = (a as i32) >> (b & 31);
                shifted.clamp(-32768, 32767) as u32
            }
            PackedOp::Kclip => {
                let n = b & 31;
                let lo = -(1i64 << n);
                let hi = (1i64 << n) - 1;
                (a as i32 as i64).clamp(lo, hi) as i32 as u32
            }
            PackedOp::KcvtH2F => {
                // f32(i16) is exact; scaling by 2^-s is exact, so
                // this matches the scalar sf_i2f + sf_mul chain
                // bit-for-bit on every i16 input.
                let h = a as u16 as i16;
                let scale = f32::from_bits((127 - (b & 31)) << 23);
                (h as f32 * scale).to_bits()
            }
            PackedOp::KcvtF2H => kcvt_f2h(a, b & 31),
            PackedOp::KfaddT => crate::softfp::add(a, b),
            PackedOp::KfsubT => crate::softfp::sub(a, b),
            PackedOp::KfmulT => crate::softfp::mul(a, b),
        };
        self.set_reg(rd, v);
    }
}

/// `kcvt.f2h`: `sat16(⌊f32(bits) · 2^shift⌋)`.
///
/// The floor/saturate follows the bare-metal soft-float `f2i_floor`
/// exactly (zero for |x| < 1 positive, −1 for negative fractions,
/// sign-directed saturation for huge values and NaN), then clamps to the
/// i16 range — so it is bit-identical to the scalar `sf_mul` +
/// `sf_f2i_floor` + clamp sequence on every float the pipeline can
/// produce.
fn kcvt_f2h(bits: u32, shift: u32) -> u32 {
    let scale = f32::from_bits((127 + shift) << 23);
    let prod = f32::from_bits(bits) * scale;
    let wide: i32 = if prod.is_nan() {
        if prod.to_bits() >> 31 == 0 {
            i32::MAX
        } else {
            i32::MIN
        }
    } else {
        let fl = f64::from(prod).floor();
        if fl >= i32::MAX as f64 + 1.0 {
            i32::MAX
        } else if fl < i32::MIN as f64 {
            i32::MIN
        } else {
            fl as i32
        }
    };
    wide.clamp(-32768, 32767) as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Platform;
    use kwt_rvasm::Asm;

    /// Assembles, runs to `ebreak`, returns the CPU for inspection.
    fn run(build: impl FnOnce(&mut Asm)) -> Cpu {
        let mut asm = Asm::new(0, 0x8000);
        build(&mut asm);
        asm.emit(Inst::Ebreak);
        let p = asm.finish().unwrap();
        let platform = Platform::ibex();
        let mut mem = Memory::new(platform.ram_base, platform.ram_size);
        let text: Vec<u8> = p.text.iter().flat_map(|w| w.to_le_bytes()).collect();
        mem.write_bytes(p.text_base, &text);
        mem.write_bytes(p.data_base, &p.data);
        let mut cpu = Cpu::new(mem, TimingModel::ibex(), LutSet::new());
        cpu.set_class_histogram_enabled(true);
        cpu.pc = p.text_base;
        cpu.set_reg(Reg::Sp, platform.initial_sp());
        for _ in 0..100_000 {
            match cpu.step().unwrap() {
                StepOutcome::Continue => {}
                StepOutcome::Halted => return cpu,
            }
        }
        panic!("program did not halt");
    }

    #[test]
    fn arithmetic_basics() {
        let cpu = run(|a| {
            a.li(Reg::T0, 100);
            a.li(Reg::T1, -30);
            a.emit(Inst::Add {
                rd: Reg::A0,
                rs1: Reg::T0,
                rs2: Reg::T1,
            });
            a.emit(Inst::Sub {
                rd: Reg::A1,
                rs1: Reg::T0,
                rs2: Reg::T1,
            });
            a.emit(Inst::Xor {
                rd: Reg::A2,
                rs1: Reg::T0,
                rs2: Reg::T1,
            });
        });
        assert_eq!(cpu.reg(Reg::A0), 70);
        assert_eq!(cpu.reg(Reg::A1), 130);
        assert_eq!(cpu.reg(Reg::A2), (100i32 ^ -30) as u32);
    }

    #[test]
    fn x0_is_hardwired() {
        let cpu = run(|a| {
            a.li(Reg::T0, 5);
            a.emit(Inst::Add {
                rd: Reg::Zero,
                rs1: Reg::T0,
                rs2: Reg::T0,
            });
            a.emit(Inst::Add {
                rd: Reg::A0,
                rs1: Reg::Zero,
                rs2: Reg::Zero,
            });
        });
        assert_eq!(cpu.reg(Reg::A0), 0);
    }

    #[test]
    fn shifts_and_compares() {
        let cpu = run(|a| {
            a.li(Reg::T0, -8);
            a.emit(Inst::Srai {
                rd: Reg::A0,
                rs1: Reg::T0,
                shamt: 1,
            }); // -4
            a.emit(Inst::Srli {
                rd: Reg::A1,
                rs1: Reg::T0,
                shamt: 28,
            }); // 0xF
            a.emit(Inst::Slti {
                rd: Reg::A2,
                rs1: Reg::T0,
                imm: 0,
            }); // 1
            a.emit(Inst::Sltiu {
                rd: Reg::A3,
                rs1: Reg::T0,
                imm: 0,
            }); // 0 (big unsigned)
        });
        assert_eq!(cpu.reg(Reg::A0) as i32, -4);
        assert_eq!(cpu.reg(Reg::A1), 0xF);
        assert_eq!(cpu.reg(Reg::A2), 1);
        assert_eq!(cpu.reg(Reg::A3), 0);
    }

    #[test]
    fn memory_sign_extension() {
        let cpu = run(|a| {
            a.li(Reg::T0, 0x8000);
            a.li(Reg::T1, -1);
            a.emit(Inst::Sb {
                rs2: Reg::T1,
                rs1: Reg::T0,
                imm: 0,
            });
            a.emit(Inst::Lb {
                rd: Reg::A0,
                rs1: Reg::T0,
                imm: 0,
            });
            a.emit(Inst::Lbu {
                rd: Reg::A1,
                rs1: Reg::T0,
                imm: 0,
            });
            a.li(Reg::T2, -2);
            a.emit(Inst::Sh {
                rs2: Reg::T2,
                rs1: Reg::T0,
                imm: 2,
            });
            a.emit(Inst::Lh {
                rd: Reg::A2,
                rs1: Reg::T0,
                imm: 2,
            });
            a.emit(Inst::Lhu {
                rd: Reg::A3,
                rs1: Reg::T0,
                imm: 2,
            });
        });
        assert_eq!(cpu.reg(Reg::A0) as i32, -1);
        assert_eq!(cpu.reg(Reg::A1), 0xFF);
        assert_eq!(cpu.reg(Reg::A2) as i32, -2);
        assert_eq!(cpu.reg(Reg::A3), 0xFFFE);
    }

    #[test]
    fn branch_loop_sums() {
        // sum 1..=10 with a bne loop
        let cpu = run(|a| {
            a.li(Reg::T0, 10);
            a.li(Reg::A0, 0);
            let top = a.new_label();
            a.bind(top).unwrap();
            a.emit(Inst::Add {
                rd: Reg::A0,
                rs1: Reg::A0,
                rs2: Reg::T0,
            });
            a.emit(Inst::Addi {
                rd: Reg::T0,
                rs1: Reg::T0,
                imm: -1,
            });
            a.branch_to(
                Inst::Bne {
                    rs1: Reg::T0,
                    rs2: Reg::Zero,
                    offset: 0,
                },
                top,
            );
        });
        assert_eq!(cpu.reg(Reg::A0), 55);
    }

    #[test]
    fn jal_links_and_jalr_returns() {
        let cpu = run(|a| {
            let f = a.new_label();
            let after = a.new_label();
            a.jal_to(Reg::Ra, f);
            a.bind(after).unwrap();
            a.emit(Inst::Addi {
                rd: Reg::A1,
                rs1: Reg::A0,
                imm: 1,
            });
            let skip = a.new_label();
            a.jump_to(skip);
            a.bind(f).unwrap();
            a.li(Reg::A0, 9);
            a.ret();
            a.bind(skip).unwrap();
        });
        assert_eq!(cpu.reg(Reg::A0), 9);
        assert_eq!(cpu.reg(Reg::A1), 10);
    }

    #[test]
    fn m_extension_division_edge_cases() {
        let cpu = run(|a| {
            a.li(Reg::T0, 7);
            a.li(Reg::T1, 0);
            a.emit(Inst::Div {
                rd: Reg::A0,
                rs1: Reg::T0,
                rs2: Reg::T1,
            }); // -1
            a.emit(Inst::Rem {
                rd: Reg::A1,
                rs1: Reg::T0,
                rs2: Reg::T1,
            }); // 7
            a.li(Reg::T2, i32::MIN);
            a.li(Reg::T3, -1);
            a.emit(Inst::Div {
                rd: Reg::A2,
                rs1: Reg::T2,
                rs2: Reg::T3,
            }); // MIN
            a.emit(Inst::Rem {
                rd: Reg::A3,
                rs1: Reg::T2,
                rs2: Reg::T3,
            }); // 0
            a.emit(Inst::Divu {
                rd: Reg::A4,
                rs1: Reg::T0,
                rs2: Reg::T1,
            }); // MAX
            a.emit(Inst::Remu {
                rd: Reg::A5,
                rs1: Reg::T0,
                rs2: Reg::T1,
            }); // 7
        });
        assert_eq!(cpu.reg(Reg::A0) as i32, -1);
        assert_eq!(cpu.reg(Reg::A1), 7);
        assert_eq!(cpu.reg(Reg::A2), i32::MIN as u32);
        assert_eq!(cpu.reg(Reg::A3), 0);
        assert_eq!(cpu.reg(Reg::A4), u32::MAX);
        assert_eq!(cpu.reg(Reg::A5), 7);
    }

    #[test]
    fn mul_high_variants() {
        let cpu = run(|a| {
            a.li(Reg::T0, -2);
            a.li(Reg::T1, 3);
            a.emit(Inst::Mul {
                rd: Reg::A0,
                rs1: Reg::T0,
                rs2: Reg::T1,
            }); // -6
            a.emit(Inst::Mulh {
                rd: Reg::A1,
                rs1: Reg::T0,
                rs2: Reg::T1,
            }); // -1 (sign)
            a.emit(Inst::Mulhu {
                rd: Reg::A2,
                rs1: Reg::T0,
                rs2: Reg::T1,
            }); // (2^32-2)*3 >> 32 = 2
            a.emit(Inst::Mulhsu {
                rd: Reg::A3,
                rs1: Reg::T0,
                rs2: Reg::T1,
            }); // -2*3 >> 32 = -1
        });
        assert_eq!(cpu.reg(Reg::A0) as i32, -6);
        assert_eq!(cpu.reg(Reg::A1) as i32, -1);
        assert_eq!(cpu.reg(Reg::A2), 2);
        assert_eq!(cpu.reg(Reg::A3) as i32, -1);
    }

    #[test]
    fn custom_ops_match_quant_golden_models() {
        let luts = LutSet::new();
        for x in [-1.5f32, 0.0, 0.3, 1.0, 2.5, 7.9] {
            let cpu = run(|a| {
                a.li(Reg::T0, x.to_bits() as i32);
                a.emit(Inst::Custom {
                    op: CustomOp::ToFixed,
                    rd: Reg::A0,
                    rs1: Reg::T0,
                    rs2: Reg::Zero,
                });
                a.emit(Inst::Custom {
                    op: CustomOp::Exp,
                    rd: Reg::A1,
                    rs1: Reg::A0,
                    rs2: Reg::Zero,
                });
                a.emit(Inst::Custom {
                    op: CustomOp::Invert,
                    rd: Reg::A2,
                    rs1: Reg::A0,
                    rs2: Reg::Zero,
                });
                a.emit(Inst::Custom {
                    op: CustomOp::Gelu,
                    rd: Reg::A3,
                    rs1: Reg::A0,
                    rs2: Reg::Zero,
                });
                a.emit(Inst::Custom {
                    op: CustomOp::ToFloat,
                    rd: Reg::A4,
                    rs1: Reg::A0,
                    rs2: Reg::Zero,
                });
            });
            let q = Q8_24::from_f32(x);
            assert_eq!(cpu.reg(Reg::A0) as i32, q.to_bits(), "tofixed {x}");
            assert_eq!(
                cpu.reg(Reg::A1) as i32,
                luts.alu_exp(q).to_bits(),
                "exp {x}"
            );
            assert_eq!(
                cpu.reg(Reg::A2) as i32,
                luts.alu_invert(q).to_bits(),
                "invert {x}"
            );
            assert_eq!(
                cpu.reg(Reg::A3) as i32,
                luts.alu_gelu(q).to_bits(),
                "gelu {x}"
            );
            assert_eq!(f32::from_bits(cpu.reg(Reg::A4)), q.to_f32(), "tofloat {x}");
        }
    }

    #[test]
    fn truncated_lut_raises_typed_trap_instead_of_panicking() {
        // A LUT ROM truncated to 16 exp entries: index 16+ must trap.
        let full = LutSet::new();
        let short = LutSet::from_words(
            &full.exp_words()[..16],
            &full.inv_words(),
            full.gelu.clone(),
        );
        let mut asm = Asm::new(0, 0x8000);
        asm.here("entry");
        // z = 2.0 in Q8.24 -> exp index 64, past the 16-entry table.
        asm.li(Reg::T0, Q8_24::from_f32(2.0).to_bits());
        asm.emit(Inst::Custom {
            op: CustomOp::Exp,
            rd: Reg::A0,
            rs1: Reg::T0,
            rs2: Reg::Zero,
        });
        asm.emit(Inst::Ebreak);
        let p = asm.finish().unwrap();
        let mut mem = Memory::new(0, 0x10000);
        let text: Vec<u8> = p.text.iter().flat_map(|w| w.to_le_bytes()).collect();
        mem.write_bytes(0, &text);
        let mut cpu = Cpu::new(mem, TimingModel::ibex(), short);
        let mut result = Ok(StepOutcome::Continue);
        for _ in 0..10 {
            result = cpu.step();
            if result.is_err() || result == Ok(StepOutcome::Halted) {
                break;
            }
        }
        match result {
            Err(Trap::LutIndexOutOfRange {
                index, table_len, ..
            }) => {
                assert_eq!(index, 64);
                assert_eq!(table_len, 16);
            }
            other => panic!("expected LutIndexOutOfRange, got {other:?}"),
        }
    }

    #[test]
    fn kdot4_i8_accumulates_all_lanes() {
        // lanes a = [10, -3, 100, -128], b = [2, 5, -1, 1]
        let a_word = u32::from_le_bytes([10i8 as u8, (-3i8) as u8, 100, (-128i8) as u8]);
        let b_word = u32::from_le_bytes([2, 5, (-1i8) as u8, 1]);
        let want = 7_i32 + 10 * 2 + (-3) * 5 + -100 + (-128);
        let cpu = run(|a| {
            a.li(Reg::A0, 7); // pre-loaded accumulator
            a.li(Reg::T0, a_word as i32);
            a.li(Reg::T1, b_word as i32);
            a.emit(Inst::Packed {
                op: PackedOp::Kdot4I8,
                rd: Reg::A0,
                rs1: Reg::T0,
                rs2: Reg::T1,
            });
        });
        assert_eq!(cpu.reg(Reg::A0) as i32, want);
    }

    #[test]
    fn ksat_and_kclip_saturate() {
        let cpu = run(|a| {
            a.li(Reg::T0, 1 << 22);
            a.li(Reg::T1, 4);
            a.emit(Inst::Packed {
                op: PackedOp::KsatI16,
                rd: Reg::A0, // (1<<22) >> 4 = 1<<18 -> 32767
                rs1: Reg::T0,
                rs2: Reg::T1,
            });
            a.li(Reg::T2, -123456);
            a.emit(Inst::Packed {
                op: PackedOp::KsatI16,
                rd: Reg::A1, // -123456 >> 4 = -7716, in range
                rs1: Reg::T2,
                rs2: Reg::T1,
            });
            a.emit(Inst::Packed {
                op: PackedOp::KsatI16,
                rd: Reg::A2, // shift 0: pure clamp -> -32768
                rs1: Reg::T2,
                rs2: Reg::Zero,
            });
            a.li(Reg::T3, 7);
            a.li(Reg::T4, 300);
            a.emit(Inst::Packed {
                op: PackedOp::Kclip,
                rd: Reg::A3, // clamp(300, -128, 127) = 127
                rs1: Reg::T4,
                rs2: Reg::T3,
            });
            a.li(Reg::T5, -300);
            a.emit(Inst::Packed {
                op: PackedOp::Kclip,
                rd: Reg::A4, // clamp(-300, -128, 127) = -128
                rs1: Reg::T5,
                rs2: Reg::T3,
            });
        });
        assert_eq!(cpu.reg(Reg::A0) as i32, 32767);
        assert_eq!(cpu.reg(Reg::A1) as i32, -7716);
        assert_eq!(cpu.reg(Reg::A2) as i32, -32768);
        assert_eq!(cpu.reg(Reg::A3) as i32, 127);
        assert_eq!(cpu.reg(Reg::A4) as i32, -128);
    }

    #[test]
    fn kcvt_round_trips_quant_boundary() {
        // h2f: -1234 / 2^8 exactly; f2h: floor(x * 2^8) saturated.
        let cpu = run(|a| {
            a.li(Reg::T0, -1234);
            a.li(Reg::T1, 8);
            a.emit(Inst::Packed {
                op: PackedOp::KcvtH2F,
                rd: Reg::A0,
                rs1: Reg::T0,
                rs2: Reg::T1,
            });
            a.emit(Inst::Packed {
                op: PackedOp::KcvtF2H,
                rd: Reg::A1,
                rs1: Reg::A0,
                rs2: Reg::T1,
            });
            // saturation: 1e6 * 2^8 >> i16 range
            a.li(Reg::T2, 1_000_000.0f32.to_bits() as i32);
            a.emit(Inst::Packed {
                op: PackedOp::KcvtF2H,
                rd: Reg::A2,
                rs1: Reg::T2,
                rs2: Reg::T1,
            });
        });
        assert_eq!(
            f32::from_bits(cpu.reg(Reg::A0)),
            -1234.0 / 256.0,
            "h2f exact"
        );
        assert_eq!(cpu.reg(Reg::A1) as i32, -1234, "round trip");
        assert_eq!(cpu.reg(Reg::A2) as i32, 32767, "saturated");
    }

    #[test]
    fn cycle_accounting_follows_model() {
        // addi (1) + addi (1) + mul (3) + lw (2) + sw (2) + ebreak (1)
        let cpu = run(|a| {
            a.li(Reg::T0, 3); // addi
            a.li(Reg::T1, 4); // addi
            a.emit(Inst::Mul {
                rd: Reg::T2,
                rs1: Reg::T0,
                rs2: Reg::T1,
            });
            a.li(Reg::T3, 0x8000); // addi
            a.emit(Inst::Sw {
                rs2: Reg::T2,
                rs1: Reg::T3,
                imm: 0,
            });
            a.emit(Inst::Lw {
                rd: Reg::A0,
                rs1: Reg::T3,
                imm: 0,
            });
        });
        assert_eq!(cpu.reg(Reg::A0), 12);
        // 3 addi + mul + sw + lw + ebreak = 3*1 + 3 + 2 + 2 + 1 = 11
        assert_eq!(cpu.cycles, 11);
        assert_eq!(cpu.instret, 7);
    }

    #[test]
    fn packed_ops_follow_timing_model() {
        let t = TimingModel::ibex();
        let cpu = run(|a| {
            a.emit(Inst::Packed {
                op: PackedOp::Kdot4I8,
                rd: Reg::A0,
                rs1: Reg::Zero,
                rs2: Reg::Zero,
            });
            a.emit(Inst::Packed {
                op: PackedOp::KsatI16,
                rd: Reg::A1,
                rs1: Reg::Zero,
                rs2: Reg::Zero,
            });
        });
        // kdot + ksat + ebreak
        assert_eq!(cpu.cycles, t.kdot + t.ksat + t.alu);
        let h = cpu.class_histogram();
        assert_eq!(h.count(InstClass::PackedDot), 1);
        assert_eq!(h.cycles(InstClass::PackedDot), t.kdot);
        assert_eq!(h.count(InstClass::PackedAlu), 1);
    }

    #[test]
    fn class_histogram_totals_match_counters() {
        let cpu = run(|a| {
            a.li(Reg::T0, 9);
            let top = a.new_label();
            a.bind(top).unwrap();
            a.emit(Inst::Mul {
                rd: Reg::A1,
                rs1: Reg::T0,
                rs2: Reg::T0,
            });
            a.emit(Inst::Sw {
                rs2: Reg::A1,
                rs1: Reg::Sp,
                imm: -4,
            });
            a.emit(Inst::Lw {
                rd: Reg::A2,
                rs1: Reg::Sp,
                imm: -4,
            });
            a.emit(Inst::Addi {
                rd: Reg::T0,
                rs1: Reg::T0,
                imm: -1,
            });
            a.branch_to(
                Inst::Bne {
                    rs1: Reg::T0,
                    rs2: Reg::Zero,
                    offset: 0,
                },
                top,
            );
        });
        let h = cpu.class_histogram();
        assert_eq!(h.total_cycles(), cpu.cycles, "histogram covers every cycle");
        assert_eq!(
            h.total_count(),
            cpu.instret,
            "histogram covers every instruction"
        );
        assert_eq!(h.count(InstClass::Mul), 9);
        assert_eq!(h.count(InstClass::Load), 9);
        assert_eq!(h.count(InstClass::Store), 9);
        // 8 taken + 1 not-taken branch
        assert_eq!(h.count(InstClass::Branch), 9);
        let t = TimingModel::ibex();
        assert_eq!(
            h.cycles(InstClass::Branch),
            8 * t.branch_taken + t.branch_not_taken
        );
        assert!(h.to_table().contains("mul"));
    }

    #[test]
    fn taken_branches_cost_more() {
        let not_taken = run(|a| {
            a.li(Reg::T0, 1);
            let l = a.new_label();
            a.branch_to(
                Inst::Beq {
                    rs1: Reg::T0,
                    rs2: Reg::Zero,
                    offset: 0,
                },
                l,
            );
            a.bind(l).unwrap();
        })
        .cycles;
        let taken = run(|a| {
            a.li(Reg::T0, 0);
            let l = a.new_label();
            a.branch_to(
                Inst::Beq {
                    rs1: Reg::T0,
                    rs2: Reg::Zero,
                    offset: 0,
                },
                l,
            );
            a.bind(l).unwrap();
        })
        .cycles;
        assert_eq!(taken - not_taken, 2); // 3 vs 1
    }

    #[test]
    fn mcycle_csr_is_readable() {
        let cpu = run(|a| {
            a.emit(Inst::Csrrs {
                rd: Reg::A0,
                rs1: Reg::Zero,
                csr: 0xB00,
            });
            a.nop();
            a.nop();
            a.emit(Inst::Csrrs {
                rd: Reg::A1,
                rs1: Reg::Zero,
                csr: 0xB00,
            });
        });
        let before = cpu.reg(Reg::A0);
        let after = cpu.reg(Reg::A1);
        assert_eq!(after - before, 3); // 2 nops + second csrrs itself
    }

    #[test]
    fn profiler_csr_integration() {
        let mut cpu = run(|a| {
            a.li(Reg::T0, 1);
            a.emit(Inst::Csrrw {
                rd: Reg::Zero,
                rs1: Reg::T0,
                csr: 0x7C0,
            });
            a.nop();
            a.nop();
            a.emit(Inst::Csrrw {
                rd: Reg::Zero,
                rs1: Reg::Zero,
                csr: 0x7C1,
            });
        });
        cpu.profiler.finish(cpu.cycles);
        let names = [(1u32, "work".to_string())].into_iter().collect();
        let report = cpu.profiler.report(cpu.cycles, &names);
        assert_eq!(report.regions.len(), 1);
        assert_eq!(report.regions[0].0, "work");
        // two nops + the pop csr write = 3 cycles inside the region
        assert_eq!(report.regions[0].1, 3);
    }

    #[test]
    fn ecall_traps() {
        let mut asm = Asm::new(0, 0x8000);
        asm.emit(Inst::Ecall);
        let p = asm.finish().unwrap();
        let mut mem = Memory::new(0, 0x1000);
        let text: Vec<u8> = p.text.iter().flat_map(|w| w.to_le_bytes()).collect();
        mem.write_bytes(0, &text);
        let mut cpu = Cpu::new(mem, TimingModel::ibex(), LutSet::new());
        assert!(matches!(cpu.step(), Err(Trap::EnvironmentCall { pc: 0 })));
    }

    #[test]
    fn illegal_instruction_traps() {
        let mut mem = Memory::new(0, 0x1000);
        mem.write_bytes(0, &0xFFFF_FFFFu32.to_le_bytes());
        let mut cpu = Cpu::new(mem, TimingModel::ibex(), LutSet::new());
        assert!(matches!(cpu.step(), Err(Trap::IllegalInstruction { .. })));
    }

    #[test]
    fn compressed_instructions_execute() {
        // c.li a0, 3 (0x450d); c.addi a0, 1 (0x0505); c.ebreak (0x9002)
        let mut mem = Memory::new(0, 0x1000);
        mem.write_bytes(0, &[0x0D, 0x45, 0x05, 0x05, 0x02, 0x90]);
        let mut cpu = Cpu::new(mem, TimingModel::ibex(), LutSet::new());
        assert_eq!(cpu.step().unwrap(), StepOutcome::Continue);
        assert_eq!(cpu.pc, 2); // compressed: +2
        assert_eq!(cpu.step().unwrap(), StepOutcome::Continue);
        assert_eq!(cpu.reg(Reg::A0), 4);
        assert_eq!(cpu.step().unwrap(), StepOutcome::Halted);
    }
}
