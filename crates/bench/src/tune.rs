//! `paper tune-kernels` / `paper check-tuning`: cycle-counter
//! autotuning for the A8 kernel specialiser.
//!
//! For every GEMM geometry and LayerNorm width the A8 image emits
//! (`kwt_baremetal::specialise::gemm_sites` of the committed model
//! configuration, the list the image builder uses), the tuner enumerates the
//! valid unroll/blocking factor grid, times each candidate kernel on
//! the deterministic cycle counter in an isolated micro-program, checks
//! the candidate's output bit-identical against the generic kernel, and
//! records the fastest factors (deterministic tie-break: grid order) in
//! `results/TUNED_KERNELS.txt` — the committed artefact
//! `kwt_baremetal::specialise::TunedKernels::embedded()` bakes into the
//! image builder. `results/TUNING.md` gets the full factor-grid →
//! cycles sweep table.
//!
//! The CI gate re-derives the table from scratch and fails on any
//! divergence from the committed artefact (tuner non-determinism or a
//! stale file) and on any tuned kernel slower than the generic kernel
//! it replaces.

use crate::baseline;
use kwt_baremetal::specialise::{
    default_ln_factors, emit_gemm_a8_spec, emit_ln_a8_spec, gemm_sites, GemmFactors, GemmGeom,
    LnFactors, TunedKernels,
};
use kwt_baremetal::A8Kernels;
use kwt_model::KwtConfig;
use kwt_rv32::{Machine, Platform};
use kwt_rvasm::{Asm, Inst, Label, Reg};
use std::fmt::Write as _;

const IN_A: u32 = 0xA000;
const IN_B: u32 = 0xA800;
const BIAS: u32 = 0xB000;
const OUT: u32 = 0xB400;
const PARAMS: u32 = 0xB800;
const FROW: u32 = 0xBC00;

/// The candidate factor grid for one geometry, in deterministic order:
/// every divisor of `N` for the column block, `{1, 2, full}` for the
/// depth unroll, row caching on/off — validity-filtered.
pub fn factor_grid(geom: &GemmGeom) -> Vec<GemmFactors> {
    let blocks = if geom.k > 0 && geom.k.is_multiple_of(4) {
        geom.k / 4
    } else {
        geom.k
    };
    let mut ks = vec![1usize, 2, blocks.max(1)];
    ks.sort_unstable();
    ks.dedup();
    let mut out = Vec::new();
    for j_unroll in GemmFactors::j_candidates(geom.n) {
        for &k_unroll in &ks {
            for cache_a in [false, true] {
                let f = GemmFactors {
                    j_unroll,
                    k_unroll,
                    cache_a,
                };
                if f.validate(geom).is_ok() && !out.contains(&f) {
                    out.push(f);
                }
            }
        }
    }
    out
}

/// The LayerNorm unroll candidates for a width, in deterministic order.
pub fn ln_grid(cols: usize) -> Vec<LnFactors> {
    let mut out = Vec::new();
    for unroll in 1..=cols {
        let f = LnFactors { unroll };
        if f.validate(cols).is_ok() {
            out.push(f);
        }
    }
    out
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn rand_i8s(seed: u64, len: usize) -> Vec<u8> {
    let mut st = seed;
    (0..len).map(|_| (splitmix(&mut st) >> 8) as u8).collect()
}

/// Assembles and runs one isolated kernel micro-program; returns the
/// run's total cycles and the bytes at `read.0 .. read.0 + read.1`.
/// The fixed call overhead (argument loads + call + ebreak) is
/// identical across candidates of one geometry, so cycle comparisons
/// are exact.
fn run_micro(
    emit_extra: impl FnOnce(&mut Asm, &A8Kernels) -> Label,
    inputs: &[(u32, Vec<u8>)],
    args: &[i32],
    read: (u32, usize),
) -> (u64, Vec<u8>) {
    const ARGS: [Reg; 8] = [
        Reg::A0,
        Reg::A1,
        Reg::A2,
        Reg::A3,
        Reg::A4,
        Reg::A5,
        Reg::A6,
        Reg::A7,
    ];
    let mut asm = Asm::new(0, 0x8000);
    let over = asm.new_label();
    asm.jump_to(over);
    let generic = A8Kernels::emit(&mut asm, 8, 4);
    let target = emit_extra(&mut asm, &generic);
    asm.bind(over).expect("fresh label");
    asm.here("entry");
    for (i, &v) in args.iter().enumerate() {
        asm.li(ARGS[i], v);
    }
    asm.call(target);
    asm.emit(Inst::Ebreak);
    let p = asm.finish().expect("micro-program assembles");
    let mut m = Machine::load(&p, Platform::ibex()).expect("fits");
    for (addr, bytes) in inputs {
        m.cpu.mem.write_bytes(*addr, bytes);
        m.cpu.invalidate_decode_cache(*addr, bytes.len() as u32);
    }
    let stats = m.run(500_000_000).expect("micro-program halts");
    (stats.cycles, m.cpu.mem.read_bytes(read.0, read.1).to_vec())
}

/// Run one GEMM micro-program on the simulator: deterministic inputs,
/// `factors: None` for the generic `matmul_a8`, `Some` for a specialised
/// kernel. Returns (device cycles, output bytes).
pub fn gemm_micro(geom: &GemmGeom, factors: Option<&GemmFactors>) -> (u64, Vec<u8>) {
    let a = rand_i8s(0xA8 + geom.k as u64, geom.m * geom.k);
    let wt = rand_i8s(0x88 + geom.n as u64, geom.n * geom.k);
    let bias: Vec<u8> = {
        let mut st = 0xB1A5 + geom.n as u64;
        (0..geom.n)
            .flat_map(|_| ((splitmix(&mut st) % 4001) as i32 - 2000).to_le_bytes())
            .collect()
    };
    let f = factors.copied();
    let geom = *geom;
    run_micro(
        move |asm, gk| match &f {
            Some(f) => emit_gemm_a8_spec(asm, &geom, f, gk.matmul_a8),
            None => gk.matmul_a8,
        },
        &[(IN_A, a), (IN_B, wt), (BIAS, bias)],
        &[
            IN_A as i32,
            IN_B as i32,
            BIAS as i32,
            OUT as i32,
            geom.m as i32,
            geom.k as i32,
            geom.n as i32,
            6,
        ],
        (OUT, geom.m * geom.n),
    )
}

/// LayerNorm counterpart of [`gemm_micro`]: 4 rows of `cols` columns,
/// `factors: None` for the generic `ln_a8`.
pub fn ln_micro(cols: usize, factors: Option<&LnFactors>) -> (u64, Vec<u8>) {
    let rows = 4usize;
    let x = rand_i8s(0x11 + cols as u64, rows * cols);
    let gamma: Vec<u8> = (0..cols)
        .flat_map(|i| (0.5 + i as f32 * 0.2).to_bits().to_le_bytes())
        .collect();
    let beta: Vec<u8> = (0..cols)
        .flat_map(|i| (-0.3 + i as f32 * 0.1).to_bits().to_le_bytes())
        .collect();
    let params: Vec<u8> = [
        0.0625f32.to_bits() as i32,
        16.0f32.to_bits() as i32,
        (1.0 / cols as f32).to_bits() as i32,
        1e-5f32.to_bits() as i32,
        FROW as i32,
    ]
    .iter()
    .flat_map(|v| v.to_le_bytes())
    .collect();
    let f = factors.copied();
    run_micro(
        move |asm, gk| match &f {
            Some(f) => emit_ln_a8_spec(asm, cols, f),
            None => gk.ln_a8,
        },
        &[(IN_A, x), (IN_B, gamma), (BIAS, beta), (PARAMS, params)],
        &[
            IN_A as i32,
            IN_B as i32,
            BIAS as i32,
            rows as i32,
            cols as i32,
            PARAMS as i32,
        ],
        (IN_A, rows * cols),
    )
}

/// One measured grid point, for the sweep table and the gate.
#[derive(Debug, Clone)]
pub struct SweepRow {
    /// The geometry label (`gemm 26x16x12` / `ln cols=12`).
    pub site: String,
    /// The factor label.
    pub factors: String,
    /// Micro-program cycles for this candidate.
    pub cycles: u64,
    /// Whether this candidate won the site.
    pub winner: bool,
}

/// The full sweep result: the winning table plus every measured point.
#[derive(Debug, Clone)]
pub struct TuneResult {
    /// The winners, in site order.
    pub table: TunedKernels,
    /// Generic-kernel cycles per site (same micro-program harness).
    pub generic: Vec<(String, u64)>,
    /// Every measured grid point.
    pub sweep: Vec<SweepRow>,
}

/// Runs the full deterministic sweep for the committed model
/// configuration. Every candidate's output is asserted bit-identical
/// to the generic kernel before it is eligible to win.
///
/// # Panics
///
/// Panics if any specialised candidate's output diverges from the
/// generic kernel — that is a specialiser bug, not a tuning outcome.
pub fn tune() -> TuneResult {
    let c = KwtConfig::kwt_tiny();
    let mut result = TuneResult {
        table: TunedKernels::default(),
        generic: Vec::new(),
        sweep: Vec::new(),
    };
    for geom in gemm_sites(&c) {
        let site = format!("gemm {}x{}x{}", geom.m, geom.k, geom.n);
        let (generic_cycles, want) = gemm_micro(&geom, None);
        result.generic.push((site.clone(), generic_cycles));
        let mut best: Option<(u64, GemmFactors)> = None;
        let mut rows = Vec::new();
        for f in factor_grid(&geom) {
            let (cycles, got) = gemm_micro(&geom, Some(&f));
            assert_eq!(
                got, want,
                "{site}: specialised kernel with {f:?} diverges from the generic kernel"
            );
            rows.push((f, cycles));
            if best.is_none_or(|(bc, _)| cycles < bc) {
                best = Some((cycles, f));
            }
        }
        let (_, winner) = best.expect("non-empty factor grid");
        for (f, cycles) in rows {
            result.sweep.push(SweepRow {
                site: site.clone(),
                factors: format!(
                    "j_unroll={} k_unroll={} cache_a={}",
                    f.j_unroll, f.k_unroll, f.cache_a as u8
                ),
                cycles,
                winner: f == winner,
            });
        }
        result.table.gemm.push((geom, winner));
    }
    let cols = c.dim;
    let site = format!("ln cols={cols}");
    let (generic_cycles, want) = ln_micro(cols, None);
    result.generic.push((site.clone(), generic_cycles));
    let mut best: Option<(u64, LnFactors)> = None;
    let mut rows = Vec::new();
    for f in ln_grid(cols) {
        let (cycles, got) = ln_micro(cols, Some(&f));
        assert_eq!(
            got, want,
            "{site}: specialised LayerNorm with {f:?} diverges from the generic kernel"
        );
        rows.push((f, cycles));
        if best.is_none_or(|(bc, _)| cycles < bc) {
            best = Some((cycles, f));
        }
    }
    let (_, winner) = best.unwrap_or((generic_cycles, default_ln_factors(cols)));
    for (f, cycles) in rows {
        result.sweep.push(SweepRow {
            site: site.clone(),
            factors: format!("unroll={}", f.unroll),
            cycles,
            winner: f == winner,
        });
    }
    result.table.ln.push((cols, winner));
    result
}

fn sweep_markdown(r: &TuneResult) -> String {
    let mut md = String::from(
        "# A8 kernel tuning sweep\n\n\
         Generated by `paper tune-kernels`: every valid unroll/blocking factor per\n\
         model kernel geometry, timed in an isolated micro-program on the\n\
         deterministic cycle counter (fixed call overhead included, identical per\n\
         site — comparisons are exact). Winners are committed in\n\
         `results/TUNED_KERNELS.txt` and baked into `InferenceImage::build_a8`;\n\
         every candidate's output is verified bit-identical to the generic kernel\n\
         before being eligible.\n",
    );
    for (site, generic_cycles) in &r.generic {
        let _ = write!(md, "\n## {site}\n\n");
        let _ = write!(md, "generic kernel: {generic_cycles} cycles\n\n");
        md.push_str("| factors | cycles | vs generic | |\n|---|---|---|---|\n");
        for row in r.sweep.iter().filter(|row| &row.site == site) {
            let _ = writeln!(
                md,
                "| `{}` | {} | {:.2}x | {} |",
                row.factors,
                row.cycles,
                *generic_cycles as f64 / row.cycles as f64,
                if row.winner { "**winner**" } else { "" }
            );
        }
    }
    md
}

/// `paper tune-kernels`: runs the sweep and writes
/// `results/TUNED_KERNELS.txt` + `results/TUNING.md` under the working
/// directory.
pub fn run_and_write() -> String {
    let r = tune();
    std::fs::create_dir_all("results").expect("results dir");
    baseline::TUNED_KERNELS.write(&r.table.to_text());
    std::fs::write("results/TUNING.md", sweep_markdown(&r)).expect("write TUNING.md");
    let mut out = String::from("## Kernel tuning\n\n");
    let _ = writeln!(
        out,
        "swept {} grid points across {} sites; winners -> results/TUNED_KERNELS.txt, sweep -> results/TUNING.md",
        r.sweep.len(),
        r.generic.len()
    );
    for (geom, f) in &r.table.gemm {
        let _ = writeln!(
            out,
            "- gemm {}x{}x{}: j_unroll={} k_unroll={} cache_a={}",
            geom.m, geom.k, geom.n, f.j_unroll, f.k_unroll, f.cache_a as u8
        );
    }
    for (cols, f) in &r.table.ln {
        let _ = writeln!(out, "- ln cols={}: unroll={}", cols, f.unroll);
    }
    out
}

/// `paper check-tuning` (wired into `scripts/verify.sh` and CI):
/// re-derives the tuned table and fails on any drift from the artefact
/// the running binary was compiled with, on drift from the on-disk
/// `results/TUNED_KERNELS.txt`, and on any tuned kernel slower than the
/// generic kernel it replaces.
///
/// # Panics
///
/// Panics (failing the verify run) on any of the three conditions, or
/// when the on-disk artefact is missing or does not parse.
pub fn check() -> String {
    let r = tune();
    let embedded = TunedKernels::embedded();
    assert_eq!(
        embedded, r.table,
        "committed TUNED_KERNELS.txt is stale: a fresh `paper tune-kernels` sweep \
         derives a different table — regenerate and rebuild"
    );
    let on_disk = baseline::TUNED_KERNELS
        .load_with(TunedKernels::parse)
        .unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(
        on_disk, r.table,
        "results/TUNED_KERNELS.txt on disk differs from a fresh sweep"
    );
    let mut lines = String::from("## Tuning gate\n\n");
    for (geom, f) in &r.table.gemm {
        let site = format!("gemm {}x{}x{}", geom.m, geom.k, geom.n);
        let generic = result_cycles(&r, &site);
        let (tuned, _) = gemm_micro(geom, Some(f));
        assert!(
            tuned <= generic,
            "{site}: tuned kernel ({tuned} cycles) is slower than generic ({generic})"
        );
        let _ = writeln!(
            lines,
            "- {site}: tuned {tuned} <= generic {generic} cycles ({:.2}x)",
            generic as f64 / tuned as f64
        );
    }
    for (cols, f) in &r.table.ln {
        let site = format!("ln cols={cols}");
        let generic = result_cycles(&r, &site);
        let (tuned, _) = ln_micro(*cols, Some(f));
        assert!(
            tuned <= generic,
            "{site}: tuned kernel ({tuned} cycles) is slower than generic ({generic})"
        );
        let _ = writeln!(
            lines,
            "- {site}: tuned {tuned} <= generic {generic} cycles ({:.2}x)",
            generic as f64 / tuned as f64
        );
    }
    lines
        .push_str("\ntuner deterministic, artefact in sync, no tuned kernel slower than generic\n");
    lines
}

fn result_cycles(r: &TuneResult, site: &str) -> u64 {
    r.generic
        .iter()
        .find(|(s, _)| s == site)
        .map(|(_, c)| *c)
        .expect("site measured")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grids_are_deterministic_and_nonempty() {
        let c = KwtConfig::kwt_tiny();
        let sites = gemm_sites(&c);
        assert!(sites.len() >= 5, "kwt-tiny has >= 5 distinct GEMM sites");
        for geom in &sites {
            let grid = factor_grid(geom);
            assert!(!grid.is_empty(), "{geom:?} has candidates");
            assert_eq!(grid, factor_grid(geom), "grid enumeration deterministic");
        }
        assert!(!ln_grid(c.dim).is_empty());
    }

    #[test]
    fn micro_harness_is_deterministic() {
        let geom = gemm_sites(&KwtConfig::kwt_tiny())[0];
        let a = gemm_micro(&geom, None);
        let b = gemm_micro(&geom, None);
        assert_eq!(a, b);
    }
}
