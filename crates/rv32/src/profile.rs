//! Cycle-attribution profiler driven by CSR writes from generated code,
//! plus the per-instruction-class cycle histogram kept by the core.
//!
//! Generated kernels bracket themselves with
//! `csrrw x0, 0x7C0, <region-id>` (push) and `csrrw x0, 0x7C1, x0`
//! (pop). The profiler attributes *self* cycles: while a child region is
//! open, the parent's clock is paused — so totals over all regions plus
//! unattributed time equal the whole run, which is what the paper's
//! pie-chart figures (Figs. 3–5) show.
//!
//! Orthogonally, [`ClassHistogram`] counts retired instructions and
//! cycles per [`InstClass`] — the cycle-model class every instruction
//! belongs to. It answers "where do the cycles go *by instruction
//! kind*" (loads vs multiplies vs packed MACs), which is how the Xkwtdot
//! speedup is attributed in `paper bench-engine`.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Cycle-model instruction classes (one per [`crate::TimingModel`]
/// cost knob; branches fold taken/not-taken into one class).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[repr(u8)]
pub enum InstClass {
    /// Simple ALU / CSR / system instructions.
    Alu = 0,
    /// `mul`, `mulh`, `mulhsu`, `mulhu`.
    Mul,
    /// `div`, `divu`, `rem`, `remu`.
    Div,
    /// Scalar loads.
    Load,
    /// Scalar stores.
    Store,
    /// Conditional branches (taken or not).
    Branch,
    /// `jal` / `jalr`.
    Jump,
    /// `ecall`/`ebreak`/Zicsr (charged at the ALU cost).
    System,
    /// custom-1 LUT ops (`alu.exp` … `alu.tofloat`).
    Lut,
    /// custom-2 packed dot-product (`kdot4.i8`).
    PackedDot,
    /// custom-2 packed saturate/clip (`ksat.i16`, `kclip`).
    PackedAlu,
    /// custom-2 quantisation converts (`kcvt.h2f`, `kcvt.f2h`).
    PackedCvt,
    /// custom-2 truncating float ops (`kfadd.t`, `kfsub.t`, `kfmul.t`).
    PackedFloat,
}

/// Number of [`InstClass`] variants.
pub const NUM_INST_CLASSES: usize = 13;

impl InstClass {
    /// All classes in discriminant order.
    pub const ALL: [InstClass; NUM_INST_CLASSES] = [
        InstClass::Alu,
        InstClass::Mul,
        InstClass::Div,
        InstClass::Load,
        InstClass::Store,
        InstClass::Branch,
        InstClass::Jump,
        InstClass::System,
        InstClass::Lut,
        InstClass::PackedDot,
        InstClass::PackedAlu,
        InstClass::PackedCvt,
        InstClass::PackedFloat,
    ];

    /// Stable lowercase name (used in benchmark artefacts).
    pub fn name(self) -> &'static str {
        match self {
            InstClass::Alu => "alu",
            InstClass::Mul => "mul",
            InstClass::Div => "div",
            InstClass::Load => "load",
            InstClass::Store => "store",
            InstClass::Branch => "branch",
            InstClass::Jump => "jump",
            InstClass::System => "system",
            InstClass::Lut => "lut",
            InstClass::PackedDot => "packed_dot",
            InstClass::PackedAlu => "packed_alu",
            InstClass::PackedCvt => "packed_cvt",
            InstClass::PackedFloat => "packed_float",
        }
    }
}

/// Retired-instruction and cycle counters per [`InstClass`].
///
/// The core keeps only the per-class instruction counts in its hot loop
/// (one array increment per step); the cycle attribution is derived on
/// demand from the counts, the [`crate::TimingModel`] and the
/// taken-branch upgrade total — exact because every instruction of a
/// class is charged the same base cost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassHistogram {
    counts: [u64; NUM_INST_CLASSES],
    cycles: [u64; NUM_INST_CLASSES],
}

impl ClassHistogram {
    /// Fresh, zeroed histogram.
    pub fn new() -> Self {
        ClassHistogram::default()
    }

    /// Builds the full histogram from raw per-class retirement counts,
    /// the cycle model that charged them, and the accumulated
    /// taken-branch upgrade cycles.
    pub(crate) fn from_counts(
        counts: &[u64; NUM_INST_CLASSES],
        extra_branch_cycles: u64,
        timing: &crate::TimingModel,
    ) -> Self {
        let mut h = ClassHistogram {
            counts: *counts,
            cycles: [0; NUM_INST_CLASSES],
        };
        for class in InstClass::ALL {
            h.cycles[class as usize] = counts[class as usize] * timing.class_cost(class);
        }
        h.cycles[InstClass::Branch as usize] += extra_branch_cycles;
        h
    }

    /// Adds `other`'s counts and cycles into `self` — the cluster-level
    /// aggregation: summing every armed hart's histogram gives the
    /// SoC-wide class breakdown without ever arming idle harts.
    pub fn merge(&mut self, other: &ClassHistogram) {
        for i in 0..NUM_INST_CLASSES {
            self.counts[i] += other.counts[i];
            self.cycles[i] += other.cycles[i];
        }
    }

    /// Instructions retired in `class`.
    pub fn count(&self, class: InstClass) -> u64 {
        self.counts[class as usize]
    }

    /// Cycles consumed by `class`.
    pub fn cycles(&self, class: InstClass) -> u64 {
        self.cycles[class as usize]
    }

    /// Total retired instructions across all classes.
    pub fn total_count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Total cycles across all classes.
    pub fn total_cycles(&self) -> u64 {
        self.cycles.iter().sum()
    }

    /// `(class, count, cycles)` rows for every class with activity,
    /// sorted by descending cycles.
    pub fn rows(&self) -> Vec<(InstClass, u64, u64)> {
        let mut rows: Vec<_> = InstClass::ALL
            .iter()
            .filter(|&&c| self.counts[c as usize] > 0)
            .map(|&c| (c, self.counts[c as usize], self.cycles[c as usize]))
            .collect();
        rows.sort_by_key(|r| std::cmp::Reverse(r.2));
        rows
    }

    /// Formats the histogram as an aligned text table (paper-style
    /// cycles-per-class breakdown).
    pub fn to_table(&self) -> String {
        let total = self.total_cycles().max(1);
        let mut out = String::from("class            instructions        cycles   share\n");
        for (class, count, cycles) in self.rows() {
            out.push_str(&format!(
                "{:<14} {count:>14} {cycles:>13}   {:5.1}%\n",
                class.name(),
                100.0 * cycles as f64 / total as f64
            ));
        }
        out
    }
}

/// Accumulates per-region self-cycles.
#[derive(Debug, Clone, Default)]
pub struct Profiler {
    /// Stack of `(region, cycles_at_entry_or_resume, accumulated)`.
    stack: Vec<(u32, u64, u64)>,
    totals: BTreeMap<u32, u64>,
    /// Number of push events per region (call counts).
    calls: BTreeMap<u32, u64>,
}

impl Profiler {
    /// Fresh, empty profiler.
    pub fn new() -> Self {
        Profiler::default()
    }

    /// Region push (CSR 0x7C0 write) at absolute cycle `now`.
    pub fn push(&mut self, region: u32, now: u64) {
        // Pause the parent.
        if let Some(top) = self.stack.last_mut() {
            top.2 += now - top.1;
        }
        self.stack.push((region, now, 0));
        *self.calls.entry(region).or_insert(0) += 1;
    }

    /// Region pop (CSR 0x7C1 write) at absolute cycle `now`.
    ///
    /// Unbalanced pops are ignored (defensive: generated code is tested to
    /// balance them).
    pub fn pop(&mut self, now: u64) {
        if let Some((region, since, acc)) = self.stack.pop() {
            let self_cycles = acc + (now - since);
            *self.totals.entry(region).or_insert(0) += self_cycles;
            // Resume the parent clock.
            if let Some(top) = self.stack.last_mut() {
                top.1 = now;
            }
        }
    }

    /// Finalises at end-of-run cycle `now`, closing any open regions.
    pub fn finish(&mut self, now: u64) {
        while !self.stack.is_empty() {
            self.pop(now);
        }
    }

    /// Produces the report, mapping region ids to names via `names`
    /// (unknown ids are labelled `region-N`).
    pub fn report(&self, total_cycles: u64, names: &BTreeMap<u32, String>) -> ProfileReport {
        let mut regions: Vec<(String, u64, u64)> = self
            .totals
            .iter()
            .map(|(&id, &cycles)| {
                let name = names
                    .get(&id)
                    .cloned()
                    .unwrap_or_else(|| format!("region-{id}"));
                (name, cycles, self.calls.get(&id).copied().unwrap_or(0))
            })
            .collect();
        regions.sort_by_key(|r| std::cmp::Reverse(r.1));
        let attributed: u64 = self.totals.values().sum();
        ProfileReport {
            regions,
            attributed_cycles: attributed,
            total_cycles,
        }
    }
}

/// A finished profile: per-region self-cycles, sorted descending.
#[derive(Debug, Clone)]
pub struct ProfileReport {
    /// `(name, self_cycles, calls)` per region, largest first.
    pub regions: Vec<(String, u64, u64)>,
    /// Sum of all attributed cycles.
    pub attributed_cycles: u64,
    /// Total cycles of the run (attributed + untracked).
    pub total_cycles: u64,
}

impl ProfileReport {
    /// Percentage of total cycles for a region by name.
    pub fn percent(&self, name: &str) -> Option<f64> {
        self.regions
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, c, _)| 100.0 * *c as f64 / self.total_cycles.max(1) as f64)
    }

    /// Formats the report as an aligned text table.
    pub fn to_table(&self) -> String {
        let mut out = String::from("region                     cycles      calls   share\n");
        for (name, cycles, calls) in &self.regions {
            out.push_str(&format!(
                "{name:<22} {cycles:>12} {calls:>10}   {:5.1}%\n",
                100.0 * *cycles as f64 / self.total_cycles.max(1) as f64
            ));
        }
        let other = self.total_cycles.saturating_sub(self.attributed_cycles);
        out.push_str(&format!(
            "{:<22} {other:>12} {:>10}   {:5.1}%\n",
            "(untracked)",
            "-",
            100.0 * other as f64 / self.total_cycles.max(1) as f64
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names() -> BTreeMap<u32, String> {
        [(1, "matmul".to_string()), (2, "softmax".to_string())]
            .into_iter()
            .collect()
    }

    #[test]
    fn flat_regions_accumulate() {
        let mut p = Profiler::new();
        p.push(1, 0);
        p.pop(100);
        p.push(2, 100);
        p.pop(150);
        p.push(1, 150);
        p.pop(250);
        let r = p.report(250, &names());
        assert_eq!(r.regions[0], ("matmul".to_string(), 200, 2));
        assert_eq!(r.regions[1], ("softmax".to_string(), 50, 1));
        assert_eq!(r.attributed_cycles, 250);
        assert!((r.percent("matmul").unwrap() - 80.0).abs() < 1e-9);
    }

    #[test]
    fn nesting_attributes_self_time() {
        let mut p = Profiler::new();
        p.push(1, 0); // matmul
        p.push(2, 30); // softmax inside matmul
        p.pop(70); // softmax self = 40
        p.pop(100); // matmul self = 30 + 30 = 60
        let r = p.report(100, &names());
        let matmul = r.regions.iter().find(|(n, _, _)| n == "matmul").unwrap();
        let softmax = r.regions.iter().find(|(n, _, _)| n == "softmax").unwrap();
        assert_eq!(matmul.1, 60);
        assert_eq!(softmax.1, 40);
        assert_eq!(r.attributed_cycles, 100);
    }

    #[test]
    fn finish_closes_open_regions() {
        let mut p = Profiler::new();
        p.push(1, 0);
        p.push(2, 10);
        p.finish(50);
        let r = p.report(50, &names());
        assert_eq!(r.attributed_cycles, 50);
    }

    #[test]
    fn unbalanced_pop_is_ignored() {
        let mut p = Profiler::new();
        p.pop(10); // no-op
        let r = p.report(10, &names());
        assert!(r.regions.is_empty());
    }

    #[test]
    fn unknown_region_named_generically() {
        let mut p = Profiler::new();
        p.push(99, 0);
        p.pop(5);
        let r = p.report(5, &names());
        assert_eq!(r.regions[0].0, "region-99");
    }

    #[test]
    fn table_formatting_mentions_untracked() {
        let mut p = Profiler::new();
        p.push(1, 0);
        p.pop(40);
        let r = p.report(100, &names());
        let t = r.to_table();
        assert!(t.contains("matmul"));
        assert!(t.contains("untracked"));
    }
}
