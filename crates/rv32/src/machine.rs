//! Program loading and run-to-completion harness.

use crate::cpu::{Cpu, RetireSink, StepOutcome};
use crate::fault::{FaultEvent, FaultKind, FaultPlan, FaultRecord};
use crate::mem::Memory;
use crate::profile::ProfileReport;
use crate::trap::Trap;
use crate::{Platform, TimingModel};
use kwt_quant::LutSet;
use kwt_rvasm::{Program, Reg};
use std::collections::BTreeMap;

/// One executed instruction in a [`Machine::run_traced`] ring buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEntry {
    /// Program counter.
    pub pc: u32,
    /// Raw instruction word (16-bit parcel for compressed).
    pub word: u32,
    /// Disassembly (best effort).
    pub text: String,
}

impl std::fmt::Display for TraceEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:#010x}: {:<10x} {}", self.pc, self.word, self.text)
    }
}

/// Outcome of a completed (halted) run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunResult {
    /// Total cycles consumed (the paper's "Inference Clock Cycles").
    pub cycles: u64,
    /// Instructions retired.
    pub instructions: u64,
    /// Value of `a0` at the `ebreak` — the program's exit/result code.
    pub exit_code: u32,
}

/// A loaded program on a platform: the top-level simulation object.
#[derive(Debug, Clone)]
pub struct Machine {
    /// The hart (exposed for register/memory inspection in tests).
    pub cpu: Cpu,
    platform: Platform,
    entry: u32,
    region_names: BTreeMap<u32, String>,
    faults: Option<FaultPlan>,
    watchdog: Option<u64>,
    fault_log: Vec<FaultRecord>,
}

impl Machine {
    /// Loads a program image into fresh RAM and points the hart at its
    /// entry (`entry` symbol if present, else the text base). The stack
    /// pointer starts at the top of RAM.
    ///
    /// # Errors
    ///
    /// Returns [`Trap::AccessOutOfBounds`] if the text or data section
    /// (plus reserved stack) does not fit the platform RAM — the 64 kB
    /// budget of Table II is enforced here.
    pub fn load(program: &Program, platform: Platform) -> Result<Self, Trap> {
        let text_end = program.text_base as u64 + program.text_bytes() as u64;
        let data_end = program.data_base as u64 + program.data.len() as u64;
        let limit = (platform.ram_end() - platform.stack_bytes) as u64;
        if program.text_base < platform.ram_base || text_end > limit {
            return Err(Trap::AccessOutOfBounds {
                addr: text_end as u32,
                pc: 0,
            });
        }
        if program.data_base < platform.ram_base || data_end > limit {
            return Err(Trap::AccessOutOfBounds {
                addr: data_end as u32,
                pc: 0,
            });
        }
        let mut mem = Memory::new(platform.ram_base, platform.ram_size);
        let text: Vec<u8> = program.text.iter().flat_map(|w| w.to_le_bytes()).collect();
        mem.write_bytes(program.text_base, &text);
        mem.write_bytes(program.data_base, &program.data);
        let mut cpu = Cpu::new(mem, TimingModel::ibex(), LutSet::new());
        let entry = program.symbol("entry").unwrap_or(program.text_base);
        cpu.pc = entry;
        cpu.set_reg(Reg::Sp, platform.initial_sp());
        Ok(Machine {
            cpu,
            platform,
            entry,
            region_names: BTreeMap::new(),
            faults: None,
            watchdog: None,
            fault_log: Vec::new(),
        })
    }

    /// Resets the architectural registers — pc back at the entry symbol,
    /// integer registers cleared, stack pointer at the top of RAM — the
    /// cheap way to re-run a loaded program (the warm-rerun benchmarks
    /// use it). Everything else survives: memory contents, cycle/instret
    /// counters, CSR state, the profiler and the decode cache. Programs
    /// that depend on pristine CSRs, profiler state or data memory need a
    /// fresh [`Machine::load`] instead.
    pub fn reset_cpu(&mut self) {
        self.cpu.regs = [0; 32];
        self.cpu.pc = self.entry;
        self.cpu.set_reg(Reg::Sp, self.platform.initial_sp());
    }

    /// Replaces the timing model (builder style).
    pub fn with_timing(mut self, timing: TimingModel) -> Self {
        self.cpu = Cpu::new_with_state(self.cpu, timing);
        self
    }

    /// Replaces the LUT ROMs (builder style).
    pub fn with_luts(mut self, luts: LutSet) -> Self {
        self.cpu.set_luts(luts);
        self
    }

    /// Registers a human-readable name for a profiler region id.
    pub fn name_region(&mut self, id: u32, name: &str) {
        self.region_names.insert(id, name.to_string());
    }

    /// The platform description.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// Runs until `ebreak`, a trap, or `max_steps` retired instructions.
    ///
    /// With no monitor armed, execution goes block by block: straight-line
    /// runs of already-decoded instructions up to the next branch, jump,
    /// system, LUT or store instruction execute in one inner loop (see
    /// the `icache` module), and a block longer than the remaining step
    /// budget runs through [`Cpu::step`] instead, so
    /// [`Trap::OutOfFuel`] stops at exactly `max_steps`. Any monitor —
    /// a [`FaultPlan`] ([`set_fault_plan`](Self::set_fault_plan)), a
    /// cycle watchdog ([`set_cycle_watchdog`](Self::set_cycle_watchdog)),
    /// the class histogram or the data-access trace — switches to one
    /// [`Cpu::step`] per instruction. Both paths are architecturally
    /// identical: cycles, instret, registers, memory, traps, the profile
    /// report and the decode-cache hit count match exactly
    /// (`tests/differential.rs`), so monitoring costs nothing on the plain
    /// path and never changes simulated cycle counts.
    ///
    /// # Errors
    ///
    /// Returns the [`Trap`] that stopped execution, including
    /// [`Trap::OutOfFuel`] when the step budget is exhausted,
    /// [`Trap::WatchdogExpired`] when the cycle watchdog fires, and any
    /// trap forced or provoked by an armed fault plan.
    pub fn run(&mut self, max_steps: u64) -> Result<RunResult, Trap> {
        self.run_logged(max_steps, &mut ())
    }

    /// [`run`](Self::run) reporting every grant a cluster arbiter would
    /// make to `sink`: one entry per executed instruction (a trapping one
    /// included, at the cycles it charged, zero for a forced trap) and,
    /// when the step budget runs out, one zero-cost entry for the budget
    /// check that ends the run. A recording sink keeps block dispatch
    /// unless a fault plan, watchdog or class histogram is armed; the
    /// no-op sink `()` is `run` itself.
    pub(crate) fn run_logged<S: RetireSink>(
        &mut self,
        max_steps: u64,
        sink: &mut S,
    ) -> Result<RunResult, Trap> {
        let monitored = self.watchdog.is_some()
            || self.faults.as_ref().is_some_and(|p| !p.is_empty())
            || self.cpu.class_histogram_enabled()
            || (!S::ON && self.cpu.data_trace_enabled());
        let outcome = if monitored {
            self.run_monitored(max_steps, sink)?
        } else {
            self.cpu.run_blocks(max_steps, sink)?
        };
        if S::ON && outcome == StepOutcome::Continue {
            sink.retire(0, None);
        }
        self.finish_run(outcome)
    }

    /// The [`RunResult`] of a halted run (finishing the profiler, which is
    /// idempotent), or [`Trap::OutOfFuel`] when the step budget ran out
    /// first.
    fn finish_run(&mut self, outcome: StepOutcome) -> Result<RunResult, Trap> {
        match outcome {
            StepOutcome::Halted => {
                self.cpu.profiler.finish(self.cpu.cycles);
                Ok(RunResult {
                    cycles: self.cpu.cycles,
                    instructions: self.cpu.instret,
                    exit_code: self.cpu.reg(Reg::A0),
                })
            }
            StepOutcome::Continue => Err(Trap::OutOfFuel {
                executed: self.cpu.instret,
            }),
        }
    }

    /// The monitored twin of the block runner: one
    /// [`step_monitored`](Self::step_monitored) per instruction, which
    /// applies due fault events before the step and enforces the cycle
    /// watchdog after it, each step reported to `sink`. Architecturally
    /// identical to block dispatch when the plan is empty and the budget
    /// unreachable.
    fn run_monitored<S: RetireSink>(
        &mut self,
        max_steps: u64,
        sink: &mut S,
    ) -> Result<StepOutcome, Trap> {
        let cycles0 = self.cpu.cycles;
        for step in 0..max_steps {
            let before = self.cpu.cycles;
            let outcome = self.step_monitored(step, cycles0);
            if S::ON {
                sink.retire(self.cpu.cycles - before, self.cpu.take_data_access());
            }
            if outcome? == StepOutcome::Halted {
                return Ok(StepOutcome::Halted);
            }
        }
        Ok(StepOutcome::Continue)
    }

    /// One iteration of the monitored run loop, exposed so an external
    /// scheduler can interleave harts instruction by instruction: applies
    /// due fault events, steps the hart once, finishes the profiler on
    /// halt, and enforces the cycle watchdog against `cycles0` (the cycle
    /// counter at run start).
    ///
    /// `run` with the monitors armed is exactly this in a loop, so a
    /// scheduler driving every hart through `step_monitored` retires the
    /// same instruction stream at the same per-hart cycle counts as N
    /// independent [`Machine::run`] calls.
    ///
    /// # Errors
    ///
    /// Returns the same [`Trap`]s as [`Machine::run`] (except
    /// [`Trap::OutOfFuel`], which the caller's own step budget decides).
    pub fn step_monitored(&mut self, step: u64, cycles0: u64) -> Result<StepOutcome, Trap> {
        self.apply_due_faults(step)?;
        match self.cpu.step()? {
            StepOutcome::Halted => {
                self.cpu.profiler.finish(self.cpu.cycles);
                Ok(StepOutcome::Halted)
            }
            StepOutcome::Continue => {
                if let Some(b) = self.watchdog {
                    let used = self.cpu.cycles - cycles0;
                    if used > b {
                        return Err(Trap::WatchdogExpired {
                            budget: b,
                            cycles: used,
                        });
                    }
                }
                Ok(StepOutcome::Continue)
            }
        }
    }

    /// The loaded program's entry address (where [`Machine::reset_cpu`]
    /// points the hart).
    pub fn entry(&self) -> u32 {
        self.entry
    }

    /// Fires every pending fault event due before run-local step `step`
    /// (or at the current pc), consuming it and appending a
    /// [`FaultRecord`] to the [fault log](Self::fault_log).
    fn apply_due_faults(&mut self, step: u64) -> Result<(), Trap> {
        let Some(plan) = self.faults.as_mut() else {
            return Ok(());
        };
        if plan.is_empty() {
            return Ok(());
        }
        let pc = self.cpu.pc;
        let due: Vec<FaultEvent> = plan.take_due(step, pc);
        if due.is_empty() {
            return Ok(());
        }
        for e in due {
            self.fault_log.push(FaultRecord {
                kind: e.kind,
                at_step: step,
                pc,
                cycles: self.cpu.cycles,
            });
            match e.kind {
                FaultKind::MemBitFlip { addr, bit } => {
                    // direct poke past alignment checks — a particle
                    // strike does not honour the bus protocol
                    if let Ok(byte) = self.cpu.mem.load8(addr, pc) {
                        self.cpu
                            .mem
                            .store8(addr, byte ^ (1 << (bit & 7)), pc)
                            .expect("load8 succeeded, store8 must too");
                        self.cpu.invalidate_decode_cache(addr, 1);
                    }
                }
                FaultKind::RegBitFlip { reg, bit } => {
                    let r = (reg & 31) as usize;
                    if r != 0 {
                        self.cpu.regs[r] ^= 1 << (bit & 31);
                    }
                }
                FaultKind::ForceTrap { trap } => return Err(trap),
                FaultKind::TruncateLuts { keep } => {
                    let full = self.cpu.luts().clone();
                    let k = (keep as usize).min(full.exp_words().len());
                    let truncated = LutSet::from_words(
                        &full.exp_words()[..k],
                        &full.inv_words()[..k.min(full.inv_words().len())],
                        full.gelu.clone(),
                    );
                    self.cpu.set_luts(truncated);
                }
            }
        }
        Ok(())
    }

    /// Arms a [`FaultPlan`] for subsequent [`run`](Self::run) calls,
    /// replacing any previous plan. Events fire at most once; consumed
    /// events accumulate in the [fault log](Self::fault_log).
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.faults = Some(plan);
    }

    /// Drops any armed fault plan (pending events included). The fault
    /// log is kept.
    pub fn clear_fault_plan(&mut self) {
        self.faults = None;
    }

    /// Events still pending in the armed fault plan.
    pub fn pending_faults(&self) -> &[FaultEvent] {
        self.faults.as_ref().map(|p| p.events()).unwrap_or(&[])
    }

    /// Arms (`Some`) or disarms (`None`) the per-[`run`](Self::run)-call
    /// cycle watchdog: a run consuming more than `budget` simulated
    /// cycles stops with [`Trap::WatchdogExpired`]. The budget is
    /// measured from the start of each `run` call, so a persistent
    /// session re-arms it implicitly on every inference.
    pub fn set_cycle_watchdog(&mut self, budget: Option<u64>) {
        self.watchdog = budget;
    }

    /// The armed cycle watchdog budget, if any.
    pub fn cycle_watchdog(&self) -> Option<u64> {
        self.watchdog
    }

    /// Every fault fired on this machine, in firing order.
    pub fn fault_log(&self) -> &[FaultRecord] {
        &self.fault_log
    }

    /// Clears the fault log.
    pub fn clear_fault_log(&mut self) {
        self.fault_log.clear();
    }

    /// The profiler report for the run so far, using registered region
    /// names.
    pub fn profile_report(&self) -> ProfileReport {
        self.cpu
            .profiler
            .report(self.cpu.cycles, &self.region_names)
    }

    /// The per-instruction-class cycle histogram for the run so far —
    /// the paper-style "where do the cycles go by instruction kind"
    /// breakdown (see [`crate::ClassHistogram`]). Counting must be
    /// [armed](Machine::set_class_histogram_enabled) first.
    pub fn class_histogram(&self) -> crate::ClassHistogram {
        self.cpu.class_histogram()
    }

    /// Arms or disarms per-class retirement counting (default off; see
    /// [`Cpu::set_class_histogram_enabled`]).
    pub fn set_class_histogram_enabled(&mut self, enabled: bool) {
        self.cpu.set_class_histogram_enabled(enabled);
    }

    /// Like [`Machine::run`], but keeps a ring buffer of the last
    /// `capacity` executed instructions (pc, raw word, disassembly) — the
    /// post-mortem a bare-metal target cannot give you. Runs every
    /// instruction through the monitored step, so an armed fault plan
    /// fires and the cycle watchdog stops the run exactly as in `run`.
    /// On a trap the trace ends at the faulting instruction (for a fault
    /// forced at a pc, the instruction at that pc, recorded as it was
    /// before any memory flip due at the same step).
    pub fn run_traced(
        &mut self,
        max_steps: u64,
        capacity: usize,
    ) -> (Result<RunResult, Trap>, Vec<TraceEntry>) {
        let mut trace: std::collections::VecDeque<TraceEntry> =
            std::collections::VecDeque::with_capacity(capacity.max(1));
        let cycles0 = self.cpu.cycles;
        for step in 0..max_steps {
            let pc = self.cpu.pc;
            let entry = self.describe(pc);
            if trace.len() == capacity.max(1) {
                trace.pop_front();
            }
            trace.push_back(entry);
            match self.step_monitored(step, cycles0) {
                Ok(StepOutcome::Continue) => {}
                Ok(StepOutcome::Halted) => {
                    return (self.finish_run(StepOutcome::Halted), trace.into())
                }
                Err(t) => return (Err(t), trace.into()),
            }
        }
        (self.finish_run(StepOutcome::Continue), trace.into())
    }

    /// Disassembles the instruction at `pc` (best effort).
    fn describe(&self, pc: u32) -> TraceEntry {
        let lo = self.cpu.mem.fetch16(pc).unwrap_or(0);
        let (word, text) = if lo & 0b11 == 0b11 {
            let hi = self.cpu.mem.fetch16(pc.wrapping_add(2)).unwrap_or(0);
            let w = lo as u32 | ((hi as u32) << 16);
            (
                w,
                kwt_rvasm::Inst::decode(w)
                    .map(|i| i.to_string())
                    .unwrap_or_else(|| "<illegal>".into()),
            )
        } else {
            (
                lo as u32,
                kwt_rvasm::expand_compressed(lo)
                    .map(|i| format!("c.{i}"))
                    .unwrap_or_else(|| "<illegal>".into()),
            )
        };
        TraceEntry { pc, word, text }
    }

    // ---- host-side typed memory access ----

    /// Writes `values` as little-endian `N`-byte words at `addr`, in
    /// place (no staging buffer), and invalidates the decode cache over
    /// the written range.
    fn write_le<T: Copy, const N: usize>(
        &mut self,
        addr: u32,
        values: &[T],
        to_le: impl Fn(T) -> [u8; N],
    ) {
        let len = values.len() * N;
        let bytes = self.cpu.mem.bytes_mut(addr, len);
        for (dst, &v) in bytes.chunks_exact_mut(N).zip(values) {
            dst.copy_from_slice(&to_le(v));
        }
        self.cpu.invalidate_decode_cache(addr, len as u32);
    }

    /// Writes `f32` values (IEEE-754 bits) starting at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the range is outside RAM.
    pub fn write_f32s(&mut self, addr: u32, values: &[f32]) {
        self.write_le(addr, values, |v: f32| v.to_bits().to_le_bytes());
    }

    /// Reads `len` `f32` values starting at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the range is outside RAM.
    pub fn read_f32s(&self, addr: u32, len: usize) -> Vec<f32> {
        self.cpu
            .mem
            .read_bytes(addr, len * 4)
            .chunks_exact(4)
            .map(|c| f32::from_bits(u32::from_le_bytes(c.try_into().expect("chunk of 4"))))
            .collect()
    }

    /// Writes `i16` values starting at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the range is outside RAM.
    pub fn write_i16s(&mut self, addr: u32, values: &[i16]) {
        self.write_le(addr, values, i16::to_le_bytes);
    }

    /// Reads `len` `i16` values starting at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the range is outside RAM.
    pub fn read_i16s(&self, addr: u32, len: usize) -> Vec<i16> {
        self.cpu
            .mem
            .read_bytes(addr, len * 2)
            .chunks_exact(2)
            .map(|c| i16::from_le_bytes(c.try_into().expect("chunk of 2")))
            .collect()
    }

    /// Writes `i8` values starting at `addr` (the A8 image input path;
    /// allocation-free, like every typed writer).
    ///
    /// # Panics
    ///
    /// Panics if the range is outside RAM.
    pub fn write_i8s(&mut self, addr: u32, values: &[i8]) {
        self.write_le(addr, values, i8::to_le_bytes);
    }

    /// Reads `len` `i8` values starting at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the range is outside RAM.
    pub fn read_i8s(&self, addr: u32, len: usize) -> Vec<i8> {
        self.cpu
            .mem
            .read_bytes(addr, len)
            .iter()
            .map(|&b| b as i8)
            .collect()
    }

    /// Writes `i32` values starting at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the range is outside RAM.
    pub fn write_i32s(&mut self, addr: u32, values: &[i32]) {
        self.write_le(addr, values, i32::to_le_bytes);
    }

    /// Reads `len` `i32` values starting at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the range is outside RAM.
    pub fn read_i32s(&self, addr: u32, len: usize) -> Vec<i32> {
        self.cpu
            .mem
            .read_bytes(addr, len * 4)
            .chunks_exact(4)
            .map(|c| i32::from_le_bytes(c.try_into().expect("chunk of 4")))
            .collect()
    }
}

impl Cpu {
    /// Rebuilds a CPU with a new timing model, preserving all other state
    /// (used by [`Machine::with_timing`]).
    fn new_with_state(old: Cpu, timing: TimingModel) -> Cpu {
        let luts = old.luts().clone();
        let mut cpu = Cpu::new(old.mem.clone(), timing, luts);
        cpu.regs = old.regs;
        cpu.pc = old.pc;
        cpu.cycles = old.cycles;
        cpu.instret = old.instret;
        cpu
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kwt_rvasm::{Asm, Inst};

    fn program(build: impl FnOnce(&mut Asm)) -> Program {
        let mut asm = Asm::new(0, 0x8000);
        build(&mut asm);
        asm.emit(Inst::Ebreak);
        asm.finish().unwrap()
    }

    #[test]
    fn load_and_run_returns_exit_code() {
        let p = program(|a| a.li(Reg::A0, 7));
        let mut m = Machine::load(&p, Platform::ibex()).unwrap();
        let r = m.run(100).unwrap();
        assert_eq!(r.exit_code, 7);
        assert!(r.cycles > 0);
        assert!(r.instructions >= 2);
    }

    #[test]
    fn ram_budget_enforced() {
        // A data section reaching into the reserved stack must be refused.
        let mut asm = Asm::new(0, 0x8000);
        asm.emit(Inst::Ebreak);
        asm.data_reserve(60 * 1024, 4); // 0x8000 + 60k > 64k - 4k stack
        let p = asm.finish().unwrap();
        assert!(matches!(
            Machine::load(&p, Platform::ibex()),
            Err(Trap::AccessOutOfBounds { .. })
        ));
    }

    #[test]
    fn out_of_fuel_reported() {
        // Infinite loop.
        let mut asm = Asm::new(0, 0x8000);
        let top = asm.new_label();
        asm.bind(top).unwrap();
        asm.jump_to(top);
        let p = asm.finish().unwrap();
        let mut m = Machine::load(&p, Platform::ibex()).unwrap();
        assert!(matches!(m.run(50), Err(Trap::OutOfFuel { executed: 50 })));
    }

    #[test]
    fn typed_memory_io_round_trips() {
        let p = program(|a| a.nop());
        let mut m = Machine::load(&p, Platform::ibex()).unwrap();
        m.write_f32s(0x9000, &[1.5, -2.25]);
        assert_eq!(m.read_f32s(0x9000, 2), vec![1.5, -2.25]);
        m.write_i16s(0xA000, &[-3, 700]);
        assert_eq!(m.read_i16s(0xA000, 2), vec![-3, 700]);
        assert_eq!(m.read_i32s(0xA000, 1), vec![(700 << 16) | 0xFFFD]);
    }

    #[test]
    fn entry_symbol_respected() {
        let mut asm = Asm::new(0, 0x8000);
        // dead code first
        asm.li(Reg::A0, 1);
        asm.emit(Inst::Ebreak);
        asm.here("entry");
        asm.li(Reg::A0, 2);
        asm.emit(Inst::Ebreak);
        let p = asm.finish().unwrap();
        let mut m = Machine::load(&p, Platform::ibex()).unwrap();
        assert_eq!(m.run(100).unwrap().exit_code, 2);
    }

    #[test]
    fn with_timing_changes_cycle_counts() {
        let p = program(|a| {
            a.li(Reg::T0, 5);
            a.li(Reg::T1, 3);
            a.emit(Inst::Div {
                rd: Reg::A0,
                rs1: Reg::T0,
                rs2: Reg::T1,
            });
        });
        let mut ibex = Machine::load(&p, Platform::ibex()).unwrap();
        let mut ideal = Machine::load(&p, Platform::ibex())
            .unwrap()
            .with_timing(TimingModel::single_cycle());
        let c1 = ibex.run(100).unwrap().cycles;
        let c2 = ideal.run(100).unwrap().cycles;
        assert!(c1 > c2, "{c1} vs {c2}");
    }

    #[test]
    fn run_traced_captures_instruction_history() {
        let p = program(|a| {
            a.li(Reg::A0, 5);
            a.emit(Inst::Addi {
                rd: Reg::A0,
                rs1: Reg::A0,
                imm: 2,
            });
        });
        let mut m = Machine::load(&p, Platform::ibex()).unwrap();
        let (result, trace) = m.run_traced(100, 8);
        assert_eq!(result.unwrap().exit_code, 7);
        assert!(trace.len() >= 3);
        assert!(trace.iter().any(|e| e.text.contains("addi a0, a0, 2")));
        assert!(trace.last().unwrap().text.contains("ebreak"));
        assert!(!trace[0].to_string().is_empty());
    }

    #[test]
    fn run_traced_ends_at_faulting_instruction() {
        // load from far outside RAM
        let mut asm = Asm::new(0, 0x8000);
        asm.here("entry");
        asm.li(Reg::T0, 0x0100_0000);
        asm.emit(Inst::Lw {
            rd: Reg::A0,
            rs1: Reg::T0,
            imm: 0,
        });
        asm.emit(Inst::Ebreak);
        let p = asm.finish().unwrap();
        let mut m = Machine::load(&p, Platform::ibex()).unwrap();
        let (result, trace) = m.run_traced(100, 4);
        assert!(matches!(result, Err(Trap::AccessOutOfBounds { .. })));
        assert!(trace.last().unwrap().text.starts_with("lw"));
    }

    #[test]
    fn run_traced_ring_buffer_bounded() {
        // long loop; only the last `capacity` entries survive
        let mut asm = Asm::new(0, 0x8000);
        asm.here("entry");
        asm.li(Reg::T0, 50);
        let top = asm.new_label();
        asm.bind(top).unwrap();
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
        let p = asm.finish().unwrap();
        let mut m = Machine::load(&p, Platform::ibex()).unwrap();
        let (result, trace) = m.run_traced(1_000, 5);
        assert!(result.is_ok());
        assert_eq!(trace.len(), 5);
    }

    #[test]
    fn run_traced_fires_a_forced_trap_at_its_pc() {
        let p = program(|a| {
            a.li(Reg::A0, 1);
            a.li(Reg::A1, 2);
            a.li(Reg::A2, 3);
        });
        let mut m = Machine::load(&p, Platform::ibex()).unwrap();
        let pc = m.cpu.pc + 4;
        let trap = Trap::AccessOutOfBounds { addr: 0xBAD, pc };
        m.set_fault_plan(crate::FaultPlan::new().force_trap_at_pc(pc, trap));
        let (result, trace) = m.run_traced(100, 8);
        assert_eq!(result, Err(trap));
        assert_eq!(trace.last().unwrap().pc, pc, "trace ends at the forced pc");
        assert_eq!(trace.len(), 2);
        assert_eq!(m.fault_log().len(), 1);
    }

    #[test]
    fn run_traced_honours_the_cycle_watchdog() {
        let mut asm = Asm::new(0, 0x8000);
        let top = asm.new_label();
        asm.bind(top).unwrap();
        asm.jump_to(top);
        let p = asm.finish().unwrap();
        let mut m = Machine::load(&p, Platform::ibex()).unwrap();
        m.set_cycle_watchdog(Some(100));
        let (result, trace) = m.run_traced(1_000_000, 4);
        match result {
            Err(Trap::WatchdogExpired { budget, cycles }) => {
                assert_eq!(budget, 100);
                assert!(cycles > 100 && cycles < 200, "fired promptly: {cycles}");
            }
            other => panic!("expected watchdog trap, got {other:?}"),
        }
        assert_eq!(trace.len(), 4);
        assert!(m.cpu.instret < 100, "stopped at the budget, not the fuel");
    }

    #[test]
    fn watchdog_bounds_runaway_programs() {
        // Infinite loop: without a watchdog it burns the whole step
        // budget; with one it stops at the cycle budget.
        let mut asm = Asm::new(0, 0x8000);
        let top = asm.new_label();
        asm.bind(top).unwrap();
        asm.jump_to(top);
        let p = asm.finish().unwrap();
        let mut m = Machine::load(&p, Platform::ibex()).unwrap();
        m.set_cycle_watchdog(Some(100));
        match m.run(1_000_000) {
            Err(Trap::WatchdogExpired { budget, cycles }) => {
                assert_eq!(budget, 100);
                assert!(cycles > 100, "fired only once past the budget: {cycles}");
                assert!(cycles < 200, "fired promptly: {cycles}");
            }
            other => panic!("expected watchdog trap, got {other:?}"),
        }
        // disarmed again, the step budget is the only bound
        m.set_cycle_watchdog(None);
        m.reset_cpu();
        assert!(matches!(m.run(50), Err(Trap::OutOfFuel { .. })));
    }

    #[test]
    fn watchdog_with_slack_is_invisible() {
        let p = program(|a| a.li(Reg::A0, 7));
        let mut plain = Machine::load(&p, Platform::ibex()).unwrap();
        let baseline = plain.run(100).unwrap();
        let mut guarded = Machine::load(&p, Platform::ibex()).unwrap();
        guarded.set_cycle_watchdog(Some(u64::MAX));
        let r = guarded.run(100).unwrap();
        assert_eq!(r, baseline, "monitored loop must match the plain loop");
    }

    #[test]
    fn empty_fault_plan_is_bit_and_cycle_identical() {
        let p = program(|a| {
            a.li(Reg::T0, 5);
            a.li(Reg::T1, 3);
            a.emit(Inst::Mul {
                rd: Reg::A0,
                rs1: Reg::T0,
                rs2: Reg::T1,
            });
        });
        let mut plain = Machine::load(&p, Platform::ibex()).unwrap();
        let baseline = plain.run(100).unwrap();
        let mut hooked = Machine::load(&p, Platform::ibex()).unwrap();
        hooked.set_fault_plan(crate::FaultPlan::new());
        hooked.set_cycle_watchdog(Some(u64::MAX));
        let r = hooked.run(100).unwrap();
        assert_eq!(r, baseline);
        assert!(hooked.fault_log().is_empty());
    }

    #[test]
    fn forced_trap_fires_at_pc() {
        let p = program(|a| {
            a.li(Reg::A0, 1);
            a.li(Reg::A1, 2);
        });
        let mut m = Machine::load(&p, Platform::ibex()).unwrap();
        let trap = Trap::AccessOutOfBounds {
            addr: 0xDEAD,
            pc: 0,
        };
        m.set_fault_plan(crate::FaultPlan::new().force_trap_at_pc(m.cpu.pc, trap));
        assert_eq!(m.run(100), Err(trap));
        assert_eq!(m.fault_log().len(), 1);
        // the event is consumed: a reset re-run completes cleanly
        m.reset_cpu();
        assert_eq!(m.run(100).unwrap().exit_code, 1);
    }

    #[test]
    fn reg_bit_flip_changes_the_result() {
        let p = program(|a| a.li(Reg::A0, 0));
        let mut m = Machine::load(&p, Platform::ibex()).unwrap();
        // flip bit 4 of a0 right after it is written (step 1)
        m.set_fault_plan(crate::FaultPlan::new().flip_reg_bit(1, 10, 4));
        let r = m.run(100).unwrap();
        assert_eq!(r.exit_code, 16);
        assert_eq!(m.fault_log().len(), 1);
    }

    #[test]
    fn mem_bit_flip_in_text_invalidates_decode() {
        // li a0, 1; ebreak — flip a bit of the li immediately, before
        // the first step, so the decoded (cached) word changes.
        let p = program(|a| a.li(Reg::A0, 1));
        // warm the cache with a clean run first
        let mut m = Machine::load(&p, Platform::ibex()).unwrap();
        assert_eq!(m.run(100).unwrap().exit_code, 1);
        m.reset_cpu();
        // addi imm bit: flipping a bit inside the immediate field of the
        // 32-bit li expansion changes the loaded constant
        m.set_fault_plan(crate::FaultPlan::new().flip_mem_bit(0, 2, 6));
        // decoding the corrupted word may legitimately trap; if it
        // runs, the flip must be visible through the cache
        if let Ok(res) = m.run(100) {
            assert_ne!(res.exit_code, 1, "flip must be visible through the cache");
        }
    }

    #[test]
    fn profiler_region_names_flow_through() {
        let p = program(|a| {
            a.li(Reg::T0, 3);
            a.emit(Inst::Csrrw {
                rd: Reg::Zero,
                rs1: Reg::T0,
                csr: 0x7C0,
            });
            a.nop();
            a.emit(Inst::Csrrw {
                rd: Reg::Zero,
                rs1: Reg::Zero,
                csr: 0x7C1,
            });
        });
        let mut m = Machine::load(&p, Platform::ibex()).unwrap();
        m.name_region(3, "gelu");
        m.run(100).unwrap();
        let report = m.profile_report();
        assert_eq!(report.regions[0].0, "gelu");
        assert!(report.regions[0].1 > 0);
    }
}
