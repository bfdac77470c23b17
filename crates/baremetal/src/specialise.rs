//! Emit-time kernel specialiser: a geometry-driven mini-compiler for
//! the A8 (fully-INT8) kernel set.
//!
//! PR 4's fused `attention_a8` emitter proved that baking one concrete
//! geometry into the instruction stream — loop bounds as immediates,
//! fully unrolled inner dot products, offset addressing instead of
//! pointer arithmetic — is worth ~1.5× on the Ibex timing model. This
//! module promotes that pattern into a small kernel generator over the
//! shared [`kwt_rvasm::emit`] helpers:
//!
//! * [`emit_gemm_a8_spec`] — a `kdot4.i8` GEMM specialised for one
//!   `(M, K, N)` geometry: the K dimension is fully (or block-)
//!   unrolled with straight-line tails, the activation row can be
//!   cached in callee-saved registers (one `lw` per four MACs instead
//!   of two), the N loop is column-blocked or fully unrolled with
//!   weight/bias/output strides folded into immediates, and every
//!   output ends in the fused `ksat.i16` + `kclip 7` requantising
//!   epilogue. Odd `K` compiles to straight-line scalar MACs; runtime
//!   misaligned bases dispatch to the generic `matmul_a8`, which stays
//!   in every image verbatim as the differential oracle and fallback.
//! * [`emit_ln_a8_spec`] — the fused LayerNorm with the column count
//!   baked in: all three passes (dequantise+sum, variance, normalise+
//!   requantise) are unrolled by a factor with offset addressing, the
//!   inline `rsqrt` unchanged. The arithmetic sequence is exactly the
//!   generic `ln_a8`'s, so results are bit-identical by construction.
//!
//! The unroll/blocking factors ([`GemmFactors`], [`LnFactors`]) are
//! **tuned, not guessed**: `paper tune-kernels` enumerates the factor
//! space per model geometry on the deterministic cycle counter, checks
//! every candidate bit-identical against the generic kernel, and
//! records the winners in `results/TUNED_KERNELS.txt` — a committed
//! artefact this module embeds ([`TunedKernels::embedded`]) and
//! [`crate::InferenceImage::build_a8`] consumes for every GEMM/LN call
//! site. `paper check-tuning` re-derives the table in CI and fails on
//! divergence (tuner determinism) or on any tuned kernel slower than
//! the generic one it replaces.

use crate::mathlib::{epilogue, li_f32, prologue};
use crate::BuildError;
use kwt_model::KwtConfig;
use kwt_rvasm::{emit, Asm, Inst, Label, PackedOp, Reg};

use Reg::{Zero, A0, A1, A2, A3, A4, A5, A6, A7, T0, T1, T2, T3, T4, T5, T6};
use Reg::{S0, S1, S10, S11, S2, S3, S4, S5, S6, S7, S8, S9};

/// Callee-saved registers available for caching an activation row
/// (`K/4` words), in allocation order.
const GEMM_CACHE_REGS: [Reg; 8] = [S2, S3, S4, S5, S6, S7, S8, S9];

/// Instruction budget for one specialised row body — keeps generated
/// kernels a sane size (the image RAM budget is 64 kB) and every
/// emitted branch comfortably inside the B-type ±4 kB range.
const MAX_BODY_INSTS: usize = 2000;

/// One concrete GEMM geometry to specialise for. The emitted kernel
/// keeps the generic `matmul_a8` ABI (`a0=A, a1=Wt, a2=bias|0, a3=out,
/// a4=M, a5=K, a6=N, a7=shift`) so call sites are drop-in, but
/// `a4`/`a5`/`a6` are ignored on the specialised path — the caller
/// must pass exactly this geometry (the runtime values still matter
/// when a misaligned base dispatches to the generic fallback).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct GemmGeom {
    /// Rows of `A` (runtime loop, count baked as an immediate).
    pub m: usize,
    /// Depth (fully unrolled; `K % 4 == 0` takes the packed path).
    pub k: usize,
    /// Columns of the output / rows of the transposed weights.
    pub n: usize,
    /// Whether the kernel loads a bias word per output (`a2` must be a
    /// valid pointer) or starts each accumulator at zero (`a2` = 0).
    pub has_bias: bool,
}

/// Tuning factors of one specialised GEMM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct GemmFactors {
    /// Column blocking: outputs emitted straight-line per j-loop
    /// iteration. `>= n` means the whole row is straight-line code.
    pub j_unroll: usize,
    /// Depth unrolling in `kdot4.i8` blocks (4 MACs each) per k-loop
    /// iteration. `>= k/4` means the dot product is fully unrolled
    /// (always the case on the scalar odd-`K` path, which ignores
    /// this).
    pub k_unroll: usize,
    /// Cache the activation row in callee-saved registers (one weight
    /// load per 4 MACs). Requires the packed path and `k/4 <=` the
    /// cache register count; implies a fully unrolled dot.
    pub cache_a: bool,
}

/// Tuning factors of one specialised LayerNorm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct LnFactors {
    /// Elements emitted straight-line per pass-loop iteration
    /// (`>= cols` unrolls each pass fully).
    pub unroll: usize,
}

impl GemmGeom {
    fn packed(&self) -> bool {
        self.k > 0 && self.k.is_multiple_of(4)
    }
}

/// How the inner dot product of one output is emitted.
#[derive(Debug, Clone, Copy)]
enum DotKind {
    /// Activation row cached in registers, weights offset-addressed.
    Cached,
    /// Both operands offset-addressed, fully unrolled.
    PackedFull,
    /// Pointer-walking k-loop of `u` packed blocks plus a straight-line
    /// block/scalar tail.
    PackedLoop(usize),
    /// Straight-line scalar byte MACs (odd `K`).
    Scalar,
}

fn dot_kind(geom: &GemmGeom, f: &GemmFactors) -> DotKind {
    if !geom.packed() {
        DotKind::Scalar
    } else if f.cache_a {
        DotKind::Cached
    } else if f.k_unroll >= geom.k / 4 {
        DotKind::PackedFull
    } else {
        DotKind::PackedLoop(f.k_unroll)
    }
}

/// Instruction count of one emitted output (bias load + dot + epilogue
/// + store).
fn output_insts(geom: &GemmGeom, f: &GemmFactors) -> usize {
    let blocks = geom.k / 4;
    let dot = match dot_kind(geom, f) {
        DotKind::Cached => 2 * blocks,
        DotKind::PackedFull => 3 * blocks,
        DotKind::PackedLoop(u) => 3 + 3 * u + 4 + 3 * (blocks % u),
        DotKind::Scalar => 4 * geom.k,
    };
    1 + dot + 2 + 1
}

/// Static instruction count of one row body (j loop + remainder +
/// row-cache loads + row advance), the quantity bounded by
/// [`MAX_BODY_INSTS`].
fn body_insts(geom: &GemmGeom, f: &GemmFactors) -> usize {
    let per_out = output_insts(geom, f);
    let cache_loads = if matches!(dot_kind(geom, f), DotKind::Cached) {
        geom.k / 4
    } else {
        0
    };
    let full_blocks = geom.n / f.j_unroll;
    let outputs = if full_blocks >= 2 {
        // blocked loop body + loop management + straight-line remainder
        f.j_unroll * per_out + 6 + (geom.n % f.j_unroll) * per_out
    } else {
        geom.n * per_out
    };
    cache_loads + outputs + 5
}

impl GemmFactors {
    /// Checks that these factors can be emitted for `geom`: cache
    /// capacity, immediate-offset ranges and the row-body instruction
    /// budget.
    ///
    /// # Errors
    ///
    /// Returns a human-readable reason when the combination is not
    /// emittable (the tuner skips such grid points).
    pub fn validate(&self, geom: &GemmGeom) -> Result<(), String> {
        if geom.m == 0 || geom.n == 0 || geom.k == 0 {
            return Err(format!("degenerate geometry {geom:?}"));
        }
        if self.j_unroll == 0 || self.k_unroll == 0 {
            return Err("zero unroll factor".into());
        }
        // bounding K and N first keeps the offset arithmetic below from
        // overflowing on hostile table entries
        if geom.k > 2047 || geom.n > 2047 {
            return Err("operand stride exceeds the I-type immediate range".into());
        }
        if self.cache_a {
            if !geom.packed() {
                return Err("cache_a needs the packed path (K % 4 == 0)".into());
            }
            if geom.k / 4 > GEMM_CACHE_REGS.len() {
                return Err(format!(
                    "cache_a needs K/4 <= {} registers, got {}",
                    GEMM_CACHE_REGS.len(),
                    geom.k / 4
                ));
            }
            if self.k_unroll < geom.k / 4 {
                return Err("cache_a implies a fully unrolled dot".into());
            }
        }
        // widest immediate the emitted code uses: the last weight byte
        // of the widest straight-line span
        let span = if geom.n / self.j_unroll >= 2 {
            self.j_unroll
        } else {
            geom.n
        };
        let max_w_off = (span - 1) * geom.k + geom.k.saturating_sub(1);
        if max_w_off > 2047 || span * geom.k > 2047 {
            return Err(format!(
                "weight offset {max_w_off} exceeds the I-type immediate range"
            ));
        }
        if 4 * (span - 1) > 2047 || span > 2047 {
            return Err("operand stride exceeds the I-type immediate range".into());
        }
        let body = body_insts(geom, self);
        if body > MAX_BODY_INSTS {
            return Err(format!(
                "row body of {body} instructions exceeds the {MAX_BODY_INSTS} budget"
            ));
        }
        Ok(())
    }

    /// Divisors of `n` in descending order — the column-blocking
    /// candidates the tuner enumerates.
    pub fn j_candidates(n: usize) -> Vec<usize> {
        let mut v: Vec<usize> = (1..=n).filter(|j| n.is_multiple_of(*j)).collect();
        v.reverse();
        v
    }
}

/// The GEMM call sites of a KWT forward pass, in call order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum GemmSite {
    /// Patch projection of the input frames.
    Proj,
    /// Per layer: QKV projection.
    Qkv,
    /// Per layer: attention output projection.
    Out,
    /// Per layer: MLP hidden.
    Mlp1,
    /// Per layer: MLP out.
    Mlp2,
    /// Classifier head on the class-token row.
    Head,
}

impl GemmSite {
    const ALL: [GemmSite; 6] = [
        GemmSite::Proj,
        GemmSite::Qkv,
        GemmSite::Out,
        GemmSite::Mlp1,
        GemmSite::Mlp2,
        GemmSite::Head,
    ];

    /// This site's geometry in a forward pass over `c`.
    pub(crate) fn geom(self, c: &KwtConfig) -> GemmGeom {
        let s = c.seqlen();
        let (m, k, n) = match self {
            GemmSite::Proj => (c.input_time, c.input_freq, c.dim),
            GemmSite::Qkv => (s, c.dim, 3 * c.dim_head),
            GemmSite::Out => (s, c.dim_head, c.dim),
            GemmSite::Mlp1 => (s, c.dim, c.mlp_dim),
            GemmSite::Mlp2 => (s, c.mlp_dim, c.dim),
            GemmSite::Head => (1, c.dim, c.num_classes),
        };
        GemmGeom {
            m,
            k,
            n,
            has_bias: true,
        }
    }
}

/// The distinct GEMM geometries of a KWT forward pass over `c`, in call
/// order. The A8 image specialises one kernel per entry and
/// `paper tune-kernels` tunes them.
pub fn gemm_sites(c: &KwtConfig) -> Vec<GemmGeom> {
    let mut out: Vec<GemmGeom> = Vec::new();
    for geom in GemmSite::ALL.map(|site| site.geom(c)) {
        if !out.contains(&geom) {
            out.push(geom);
        }
    }
    out
}

/// The untuned defaults for a geometry: full unrolling and row caching
/// whenever they fit, falling back to the largest column block that
/// does. Used for geometries absent from the committed tuning table
/// (the tuner itself starts from these and has, so far, always
/// confirmed them).
pub fn default_gemm_factors(geom: &GemmGeom) -> GemmFactors {
    let k_unroll = if geom.packed() { geom.k / 4 } else { geom.k }.max(1);
    for &cache_a in &[true, false] {
        for j_unroll in GemmFactors::j_candidates(geom.n) {
            let f = GemmFactors {
                j_unroll,
                k_unroll,
                cache_a,
            };
            if f.validate(geom).is_ok() {
                return f;
            }
        }
    }
    GemmFactors {
        j_unroll: 1,
        k_unroll: 1,
        cache_a: false,
    }
}

/// The untuned LayerNorm default: fully unrolled passes when the body
/// fits, else the largest divisor of `cols` that does.
pub fn default_ln_factors(cols: usize) -> LnFactors {
    for unroll in GemmFactors::j_candidates(cols.max(1)) {
        let f = LnFactors { unroll };
        if f.validate(cols).is_ok() {
            return f;
        }
    }
    LnFactors { unroll: 1 }
}

impl LnFactors {
    /// Checks the factor against the pass-body instruction budget and
    /// immediate ranges.
    ///
    /// # Errors
    ///
    /// Returns a human-readable reason when the combination is not
    /// emittable.
    pub fn validate(&self, cols: usize) -> Result<(), String> {
        if cols == 0 || self.unroll == 0 {
            return Err("degenerate LayerNorm geometry".into());
        }
        let span = self.unroll.min(cols);
        if cols > 2047 || 4 * span > 2047 {
            return Err("element offset exceeds the I-type immediate range".into());
        }
        // pass 3 is the widest body: 11 instructions per element
        let body = 11 * span + 8;
        if body > MAX_BODY_INSTS {
            return Err(format!(
                "pass body of {body} instructions exceeds the {MAX_BODY_INSTS} budget"
            ));
        }
        Ok(())
    }
}

/// Emits a GEMM specialised for `geom` with factors `f`, returning its
/// entry label. ABI-compatible with the generic `matmul_a8` (which
/// `fallback` must point at): on the packed path a runtime check
/// dispatches misaligned `A`/`Wt` bases to `fallback` with all
/// arguments intact.
///
/// # Panics
///
/// Panics if `f.validate(geom)` fails — callers (the image builder and
/// the tuner) validate first.
pub fn emit_gemm_a8_spec(
    asm: &mut Asm,
    geom: &GemmGeom,
    f: &GemmFactors,
    fallback: Label,
) -> Label {
    f.validate(geom).expect("validated factors");
    let entry = asm.here(&format!("k_matmul_a8_m{}k{}n{}", geom.m, geom.k, geom.n));
    let kind = dot_kind(geom, f);

    // runtime alignment dispatch (packed path only): misaligned bases
    // take the generic kernel, which re-checks and runs its scalar loop
    if geom.packed() {
        let ok = asm.new_label();
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
        asm.branch_to(
            Inst::Beq {
                rs1: T0,
                rs2: Zero,
                offset: 0,
            },
            ok,
        );
        asm.jump_to(fallback);
        asm.bind(ok).expect("fresh");
    }

    let cache_words = geom.k / 4;
    let saves: Vec<Reg> = match kind {
        DotKind::Cached => GEMM_CACHE_REGS[..cache_words].to_vec(),
        DotKind::PackedLoop(_) => vec![S2, S3],
        _ => Vec::new(),
    };
    let frame = if saves.is_empty() {
        0
    } else {
        prologue(asm, &saves)
    };

    asm.li(A4, 7); // kclip range operand
    asm.li(A5, geom.m as i32); // row counter
    let row = asm.new_label();
    let exit = asm.new_label();
    asm.bind(row).expect("fresh");

    if matches!(kind, DotKind::Cached) {
        for (i, &r) in GEMM_CACHE_REGS[..cache_words].iter().enumerate() {
            asm.emit(Inst::Lw {
                rd: r,
                rs1: A0,
                imm: 4 * i as i32,
            });
        }
    }

    // one output: bias init, inner dot, fused requant epilogue, store
    let emit_output =
        |asm: &mut Asm, pw: Reg, w_off: i32, pb: Reg, b_off: i32, po: Reg, o_off: i32| {
            if geom.has_bias {
                asm.emit(Inst::Lw {
                    rd: T2,
                    rs1: pb,
                    imm: b_off,
                });
            } else {
                asm.li(T2, 0);
            }
            match kind {
                DotKind::Cached => {
                    emit::dot4_i8_cached(asm, T2, &GEMM_CACHE_REGS[..cache_words], pw, T1, w_off);
                }
                DotKind::PackedFull => {
                    emit::dot4_i8_unrolled(asm, T2, A0, pw, T0, T1, cache_words, 0, w_off);
                }
                DotKind::PackedLoop(u) => {
                    let trips = cache_words / u;
                    let tail = cache_words % u;
                    asm.mv(S2, A0);
                    if w_off == 0 {
                        asm.mv(S3, pw);
                    } else {
                        asm.emit(Inst::Addi {
                            rd: S3,
                            rs1: pw,
                            imm: w_off,
                        });
                    }
                    asm.li(A6, trips as i32);
                    let kl = asm.new_label();
                    asm.bind(kl).expect("fresh");
                    emit::dot4_i8_unrolled(asm, T2, S2, S3, T0, T1, u, 0, 0);
                    asm.emit(Inst::Addi {
                        rd: S2,
                        rs1: S2,
                        imm: 4 * u as i32,
                    });
                    asm.emit(Inst::Addi {
                        rd: S3,
                        rs1: S3,
                        imm: 4 * u as i32,
                    });
                    asm.emit(Inst::Addi {
                        rd: A6,
                        rs1: A6,
                        imm: -1,
                    });
                    asm.branch_to(
                        Inst::Bne {
                            rs1: A6,
                            rs2: Zero,
                            offset: 0,
                        },
                        kl,
                    );
                    emit::dot4_i8_unrolled(asm, T2, S2, S3, T0, T1, tail, 0, 0);
                }
                DotKind::Scalar => {
                    emit::mac_i8_scalar(asm, T2, A0, pw, T0, T1, geom.k, 0, w_off);
                }
            }
            emit::sat_clip_i8(asm, T2, A7, A4);
            asm.emit(Inst::Sb {
                rs2: T2,
                rs1: po,
                imm: o_off,
            });
        };

    let full_blocks = geom.n / f.j_unroll;
    if full_blocks >= 2 {
        // column-blocked j loop over walking pointers, then the
        // remainder straight-line from where they stopped
        asm.mv(T4, A1);
        if geom.has_bias {
            asm.mv(T5, A2);
        }
        asm.mv(T6, A3);
        asm.li(T3, full_blocks as i32);
        let jblk = asm.new_label();
        asm.bind(jblk).expect("fresh");
        for jj in 0..f.j_unroll {
            emit_output(
                asm,
                T4,
                (jj * geom.k) as i32,
                T5,
                4 * jj as i32,
                T6,
                jj as i32,
            );
        }
        asm.emit(Inst::Addi {
            rd: T4,
            rs1: T4,
            imm: (f.j_unroll * geom.k) as i32,
        });
        if geom.has_bias {
            asm.emit(Inst::Addi {
                rd: T5,
                rs1: T5,
                imm: 4 * f.j_unroll as i32,
            });
        }
        asm.emit(Inst::Addi {
            rd: T6,
            rs1: T6,
            imm: f.j_unroll as i32,
        });
        asm.emit(Inst::Addi {
            rd: T3,
            rs1: T3,
            imm: -1,
        });
        asm.branch_to(
            Inst::Bne {
                rs1: T3,
                rs2: Zero,
                offset: 0,
            },
            jblk,
        );
        for jj in 0..geom.n % f.j_unroll {
            emit_output(
                asm,
                T4,
                (jj * geom.k) as i32,
                T5,
                4 * jj as i32,
                T6,
                jj as i32,
            );
        }
    } else {
        // the whole row straight-line off the argument registers
        for j in 0..geom.n {
            emit_output(asm, A1, (j * geom.k) as i32, A2, 4 * j as i32, A3, j as i32);
        }
    }

    // advance to the next A / output row
    asm.emit(Inst::Addi {
        rd: A0,
        rs1: A0,
        imm: geom.k as i32,
    });
    asm.emit(Inst::Addi {
        rd: A3,
        rs1: A3,
        imm: geom.n as i32,
    });
    asm.emit(Inst::Addi {
        rd: A5,
        rs1: A5,
        imm: -1,
    });
    // branch-over-jump row back-edge: the body can exceed the B-type
    // ±4 kB range, the J-type jump cannot
    asm.branch_to(
        Inst::Beq {
            rs1: A5,
            rs2: Zero,
            offset: 0,
        },
        exit,
    );
    asm.jump_to(row);
    asm.bind(exit).expect("fresh");
    if saves.is_empty() {
        asm.ret();
    } else {
        epilogue(asm, &saves, frame);
    }
    entry
}

/// Emits a fused LayerNorm specialised for `cols` with pass unrolling
/// `f.unroll`, returning its entry label. ABI-compatible with the
/// generic `ln_a8` (`a0=x, a1=gamma, a2=beta, a3=rows, a4=cols,
/// a5=params`; `a4` is ignored — the caller must pass exactly `cols`).
/// The arithmetic sequence is the generic kernel's op for op, so
/// results are bit-identical for every factor.
///
/// # Panics
///
/// Panics if `f.validate(cols)` fails.
pub fn emit_ln_a8_spec(asm: &mut Asm, cols: usize, f: &LnFactors) -> Label {
    use PackedOp::{Kclip, KcvtF2H, KcvtH2F, KfaddT, KfmulT, KfsubT};
    f.validate(cols).expect("validated factors");
    let entry = asm.here(&format!("k_ln_a8_c{cols}"));
    let saves = [S0, S1, S2, S3, S4, S5, S6, S7, S8, S9, S10, S11];
    let frame = prologue(asm, &saves);
    let row_loop = asm.new_label();
    let row_go = asm.new_label();
    let done = asm.new_label();

    asm.mv(S0, A0); // x row
    asm.mv(S1, A1); // gamma
    asm.mv(S2, A2); // beta
    asm.mv(S3, A3); // rows counter
    asm.mv(S5, A5); // params
    asm.emit(Inst::Lw {
        rd: S6,
        rs1: S5,
        imm: crate::kernels::a8_ln_params::DEQ,
    });
    // hoist every per-row constant into the argument registers (the
    // same allocation as the generic kernel)
    asm.emit(Inst::Lw {
        rd: A0,
        rs1: S5,
        imm: crate::kernels::a8_ln_params::SCRATCH,
    });
    asm.emit(Inst::Lw {
        rd: A1,
        rs1: S5,
        imm: crate::kernels::a8_ln_params::REQ,
    });
    asm.emit(Inst::Lw {
        rd: A2,
        rs1: S5,
        imm: crate::kernels::a8_ln_params::INV_N,
    });
    asm.emit(Inst::Lw {
        rd: A3,
        rs1: S5,
        imm: crate::kernels::a8_ln_params::EPS,
    });
    li_f32(asm, A4, 1.5);
    li_f32(asm, A5, 0.5);
    asm.emit(Inst::Lui {
        rd: A6,
        imm: 0x8000_0000u32 as i32,
    }); // sign bit
    asm.li(A7, 0x5F37_59DFu32 as i32); // rsqrt magic seed
    asm.li(T3, 7);

    // emits one (possibly loop-blocked) pass over the row: `body(asm,
    // i)` must address element `i` relative to the current walker
    // values; `advance` bumps the walkers by one block
    let unrolled_pass =
        |asm: &mut Asm, advance: &[(Reg, i32)], body: &mut dyn FnMut(&mut Asm, usize)| {
            let u = f.unroll.min(cols);
            if cols <= f.unroll {
                for i in 0..cols {
                    body(asm, i);
                }
                return;
            }
            asm.li(S10, (cols / u) as i32);
            let lp = asm.new_label();
            asm.bind(lp).expect("fresh");
            for i in 0..u {
                body(asm, i);
            }
            for &(r, step) in advance {
                asm.emit(Inst::Addi {
                    rd: r,
                    rs1: r,
                    imm: step,
                });
            }
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
                lp,
            );
            for i in 0..cols % u {
                body(asm, i);
            }
        };

    asm.bind(row_loop).expect("fresh");
    asm.branch_to(
        Inst::Bne {
            rs1: S3,
            rs2: Zero,
            offset: 0,
        },
        row_go,
    );
    asm.jump_to(done);
    asm.bind(row_go).expect("fresh");

    // pass 1: cache conv(x) in the scratch row, sum -> mean
    asm.li(S8, 0);
    asm.mv(S9, S0);
    asm.mv(S11, A0);
    unrolled_pass(
        asm,
        &[(S9, f.unroll as i32), (S11, 4 * f.unroll as i32)],
        &mut |asm, i| {
            asm.emit(Inst::Lb {
                rd: T1,
                rs1: S9,
                imm: i as i32,
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
                imm: 4 * i as i32,
            });
            asm.emit(Inst::Packed {
                op: KfaddT,
                rd: S8,
                rs1: T1,
                rs2: S8,
            });
        },
    );
    asm.emit(Inst::Packed {
        op: KfmulT,
        rd: S7,
        rs1: S8,
        rs2: A2,
    }); // mean

    // pass 2: var = (Σ (x̂ - mean)²) * inv_n
    asm.li(S8, 0);
    asm.mv(S11, A0);
    unrolled_pass(asm, &[(S11, 4 * f.unroll as i32)], &mut |asm, i| {
        asm.emit(Inst::Lw {
            rd: T1,
            rs1: S11,
            imm: 4 * i as i32,
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
    });
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
    asm.mv(T4, A0); // scratch walker
    asm.mv(T5, S1); // gamma walker
    asm.mv(T6, S2); // beta walker
    unrolled_pass(
        asm,
        &[
            (T4, 4 * f.unroll as i32),
            (T5, 4 * f.unroll as i32),
            (T6, 4 * f.unroll as i32),
            (S9, f.unroll as i32),
        ],
        &mut |asm, i| {
            asm.emit(Inst::Lw {
                rd: T1,
                rs1: T4,
                imm: 4 * i as i32,
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
            asm.emit(Inst::Lw {
                rd: T2,
                rs1: T5,
                imm: 4 * i as i32,
            });
            asm.emit(Inst::Packed {
                op: KfmulT,
                rd: T1,
                rs1: T1,
                rs2: T2,
            });
            asm.emit(Inst::Lw {
                rd: T2,
                rs1: T6,
                imm: 4 * i as i32,
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
                imm: i as i32,
            });
        },
    );

    asm.emit(Inst::Addi {
        rd: S0,
        rs1: S0,
        imm: cols as i32,
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

// =====================================================================
// The committed tuning artefact.
// =====================================================================

/// The tuned factor table: winners of the `paper tune-kernels` sweep,
/// committed as `results/TUNED_KERNELS.txt` and embedded into this
/// crate at compile time. The image builder looks geometries up here
/// and falls back to [`default_gemm_factors`] / [`default_ln_factors`]
/// for anything untuned.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TunedKernels {
    /// Tuned GEMM factors per geometry.
    pub gemm: Vec<(GemmGeom, GemmFactors)>,
    /// Tuned LayerNorm factors per column count.
    pub ln: Vec<(usize, LnFactors)>,
}

/// The committed artefact text embedded at compile time.
pub const TUNED_KERNELS_TEXT: &str = include_str!("../../../results/TUNED_KERNELS.txt");

impl TunedKernels {
    /// The committed table shipped with the crate (what
    /// [`crate::InferenceImage::build_a8`] consumes).
    ///
    /// # Panics
    ///
    /// Panics if the committed artefact does not parse — a build-time
    /// artefact corruption, not a runtime condition.
    pub fn embedded() -> Self {
        Self::parse(TUNED_KERNELS_TEXT).expect("committed results/TUNED_KERNELS.txt parses")
    }

    /// Parses the artefact format: one `gemm`/`ln` line per tuned
    /// geometry, `#` comments, blank lines ignored.
    ///
    /// ```text
    /// gemm m=26 k=16 n=12 bias=1 | j_unroll=12 k_unroll=4 cache_a=1
    /// ln cols=12 | unroll=12
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::Model`] on any malformed line.
    pub fn parse(text: &str) -> crate::Result<Self> {
        let mut table = TunedKernels::default();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let bad = |what: &str| {
                BuildError::Model(format!(
                    "TUNED_KERNELS line {}: {what}: `{line}`",
                    lineno + 1
                ))
            };
            let mut fields = std::collections::BTreeMap::new();
            let (kind, rest) = line.split_once(' ').ok_or_else(|| bad("missing fields"))?;
            for part in rest.split([' ', '|']) {
                if part.is_empty() {
                    continue;
                }
                let (key, val) = part.split_once('=').ok_or_else(|| bad("missing `=`"))?;
                let v: usize = val.parse().map_err(|_| bad("non-numeric value"))?;
                fields.insert(key.to_string(), v);
            }
            let get = |key: &str| fields.get(key).copied().ok_or_else(|| bad("missing key"));
            match kind {
                "gemm" => {
                    let geom = GemmGeom {
                        m: get("m")?,
                        k: get("k")?,
                        n: get("n")?,
                        has_bias: get("bias")? != 0,
                    };
                    let f = GemmFactors {
                        j_unroll: get("j_unroll")?,
                        k_unroll: get("k_unroll")?,
                        cache_a: get("cache_a")? != 0,
                    };
                    f.validate(&geom).map_err(|e| bad(&e))?;
                    table.gemm.push((geom, f));
                }
                "ln" => {
                    let cols = get("cols")?;
                    let f = LnFactors {
                        unroll: get("unroll")?,
                    };
                    f.validate(cols).map_err(|e| bad(&e))?;
                    table.ln.push((cols, f));
                }
                other => return Err(bad(&format!("unknown kind `{other}`"))),
            }
        }
        Ok(table)
    }

    /// Serialises the table to the artefact format (the tuner's
    /// writer; [`Self::parse`] round-trips it).
    pub fn to_text(&self) -> String {
        let mut out = String::from(
            "# Tuned A8 kernel factors — generated by `paper tune-kernels`, consumed by\n\
             # InferenceImage::build_a8 via kwt_baremetal::specialise::TunedKernels::embedded().\n\
             # Regenerate with `cargo run --release -p kwt-bench --bin paper tune-kernels`;\n\
             # `paper check-tuning` fails CI if this file drifts from a fresh derivation.\n",
        );
        for (g, f) in &self.gemm {
            out.push_str(&format!(
                "gemm m={} k={} n={} bias={} | j_unroll={} k_unroll={} cache_a={}\n",
                g.m, g.k, g.n, g.has_bias as u8, f.j_unroll, f.k_unroll, f.cache_a as u8
            ));
        }
        for (cols, f) in &self.ln {
            out.push_str(&format!("ln cols={} | unroll={}\n", cols, f.unroll));
        }
        out
    }

    /// Factors for a GEMM geometry: the tuned entry, or the defaults.
    pub fn gemm_factors(&self, geom: &GemmGeom) -> GemmFactors {
        self.gemm
            .iter()
            .find(|(g, _)| g == geom)
            .map(|(_, f)| *f)
            .unwrap_or_else(|| default_gemm_factors(geom))
    }

    /// Factors for a LayerNorm column count: the tuned entry, or the
    /// defaults.
    pub fn ln_factors(&self, cols: usize) -> LnFactors {
        self.ln
            .iter()
            .find(|(c, _)| *c == cols)
            .map(|(_, f)| *f)
            .unwrap_or_else(|| default_ln_factors(cols))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::A8Kernels;
    use kwt_rv32::{Machine, Platform};
    use kwt_tensor::{qops, Mat};
    use proptest::prelude::*;

    const IN_A: u32 = 0xA000;
    const IN_B: u32 = 0xA800;
    const BIAS: u32 = 0xB000;
    const OUT: u32 = 0xB400;
    const PARAMS: u32 = 0xB800;
    const FROW: u32 = 0xBC00;

    fn i8s(v: &[i8]) -> Vec<u8> {
        v.iter().map(|&x| x as u8).collect()
    }
    fn i32s(v: &[i32]) -> Vec<u8> {
        v.iter().flat_map(|x| x.to_le_bytes()).collect()
    }
    fn f32s(v: &[f32]) -> Vec<u8> {
        v.iter().flat_map(|x| x.to_bits().to_le_bytes()).collect()
    }

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Saturation-heavy i8 stream: every 8th value is an extreme, so
    /// the `ksat`/`kclip` epilogue edges get exercised.
    fn rand_i8(state: &mut u64) -> i8 {
        let r = splitmix(state);
        match r % 8 {
            0 => {
                if r & 0x100 == 0 {
                    127
                } else {
                    -128
                }
            }
            _ => (r >> 8) as i8,
        }
    }

    /// Jumps over the generic A8 kernel set plus whatever `emit_extra`
    /// adds, loads `args` into `a0..`, calls the returned label, runs
    /// to the breakpoint.
    fn run_kernel(
        emit_extra: impl FnOnce(&mut Asm, &A8Kernels) -> Label,
        inputs: &[(u32, Vec<u8>)],
        args: &[i32],
    ) -> Machine {
        const ARGS: [Reg; 8] = [A0, A1, A2, A3, A4, A5, A6, A7];
        let mut asm = Asm::new(0, 0x8000);
        let over = asm.new_label();
        asm.jump_to(over);
        let generic = A8Kernels::emit(&mut asm, 8, 4);
        let target = emit_extra(&mut asm, &generic);
        asm.bind(over).expect("fresh");
        asm.here("entry");
        for (i, &v) in args.iter().enumerate() {
            asm.li(ARGS[i], v);
        }
        asm.call(target);
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

    fn read_i8s(m: &Machine, addr: u32, len: usize) -> Vec<i8> {
        m.cpu
            .mem
            .read_bytes(addr, len)
            .iter()
            .map(|&b| b as i8)
            .collect()
    }

    /// Runs either the generic `matmul_a8` (`factors: None`) or a
    /// specialised kernel on the same operands; `misalign` offsets the
    /// `A` base to force the runtime fallback dispatch.
    #[allow(clippy::too_many_arguments)]
    fn gemm_outputs(
        geom: &GemmGeom,
        factors: Option<&GemmFactors>,
        a: &Mat<i8>,
        w: &Mat<i8>,
        bias: Option<&[i32]>,
        shift: u32,
        misalign: u32,
    ) -> Vec<i8> {
        let a_base = IN_A + misalign;
        let mut inputs = vec![
            (a_base, i8s(a.as_slice())),
            (IN_B, i8s(w.transpose().as_slice())),
        ];
        if let Some(b) = bias {
            inputs.push((BIAS, i32s(b)));
        }
        let m = run_kernel(
            |asm, gk| match factors {
                Some(f) => emit_gemm_a8_spec(asm, geom, f, gk.matmul_a8),
                None => gk.matmul_a8,
            },
            &inputs,
            &[
                a_base as i32,
                IN_B as i32,
                if bias.is_some() { BIAS as i32 } else { 0 },
                OUT as i32,
                geom.m as i32,
                geom.k as i32,
                geom.n as i32,
                shift as i32,
            ],
        );
        read_i8s(&m, OUT, geom.m * geom.n)
    }

    fn gemm_data(geom: &GemmGeom, seed: u64) -> (Mat<i8>, Mat<i8>, Vec<i32>) {
        let mut st = seed;
        let a = Mat::from_fn(geom.m, geom.k, |_, _| rand_i8(&mut st));
        let w = Mat::from_fn(geom.k, geom.n, |_, _| rand_i8(&mut st));
        let bias: Vec<i32> = (0..geom.n)
            .map(|_| (splitmix(&mut st) % 4001) as i32 - 2000)
            .collect();
        (a, w, bias)
    }

    /// The A8 image's GEMM call sites (KWT-Tiny geometry) — the same
    /// list the tuner sweeps.
    fn model_sites() -> Vec<GemmGeom> {
        vec![
            GemmGeom {
                m: 26,
                k: 16,
                n: 12,
                has_bias: true,
            }, // patch projection
            GemmGeom {
                m: 27,
                k: 12,
                n: 24,
                has_bias: true,
            }, // qkv / mlp1
            GemmGeom {
                m: 27,
                k: 8,
                n: 12,
                has_bias: true,
            }, // attention out
            GemmGeom {
                m: 27,
                k: 24,
                n: 12,
                has_bias: true,
            }, // mlp2
            GemmGeom {
                m: 1,
                k: 12,
                n: 2,
                has_bias: true,
            }, // classifier head
        ]
    }

    /// Every valid factor combination for a geometry — the tuner's
    /// grid, reused here so the whole grid is covered differentially.
    fn factor_grid(geom: &GemmGeom) -> Vec<GemmFactors> {
        let blocks = if geom.packed() { geom.k / 4 } else { geom.k };
        let mut ks: Vec<usize> = vec![1, 2, blocks.max(1)];
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
                    if f.validate(geom).is_ok() {
                        out.push(f);
                    }
                }
            }
        }
        out.sort();
        out.dedup();
        out
    }

    #[test]
    fn spec_gemm_matches_generic_across_model_grid() {
        for geom in model_sites() {
            let (a, w, bias) = gemm_data(&geom, 0xA8A8 + geom.k as u64);
            let shift = 6;
            let want = gemm_outputs(&geom, None, &a, &w, Some(&bias), shift, 0);
            let (oracle, _) = qops::matmul_i8_i8(&a, &w, Some(&bias), shift).unwrap();
            assert_eq!(want, oracle.as_slice(), "generic vs oracle at {geom:?}");
            for f in factor_grid(&geom) {
                let got = gemm_outputs(&geom, Some(&f), &a, &w, Some(&bias), shift, 0);
                assert_eq!(got, want, "{geom:?} with {f:?}");
            }
        }
    }

    #[test]
    fn spec_gemm_odd_k_and_no_bias_match_generic() {
        for geom in [
            GemmGeom {
                m: 3,
                k: 7,
                n: 5,
                has_bias: false,
            },
            GemmGeom {
                m: 2,
                k: 13,
                n: 3,
                has_bias: true,
            },
            GemmGeom {
                m: 4,
                k: 1,
                n: 2,
                has_bias: false,
            },
            GemmGeom {
                m: 1,
                k: 4,
                n: 1,
                has_bias: true,
            },
        ] {
            let (a, w, bias) = gemm_data(&geom, 0x0DD + geom.k as u64);
            let bias_opt = geom.has_bias.then_some(&bias[..]);
            let shift = 4;
            let want = gemm_outputs(&geom, None, &a, &w, bias_opt, shift, 0);
            let (oracle, _) = qops::matmul_i8_i8(&a, &w, bias_opt, shift).unwrap();
            assert_eq!(want, oracle.as_slice(), "generic vs oracle at {geom:?}");
            for f in factor_grid(&geom) {
                let got = gemm_outputs(&geom, Some(&f), &a, &w, bias_opt, shift, 0);
                assert_eq!(got, want, "{geom:?} with {f:?}");
            }
        }
    }

    #[test]
    fn spec_gemm_misaligned_base_falls_back_to_generic() {
        // a packed geometry with a byte-misaligned A base must take the
        // fallback dispatch and still match the host oracle
        let geom = GemmGeom {
            m: 3,
            k: 8,
            n: 4,
            has_bias: true,
        };
        let f = default_gemm_factors(&geom);
        let (a, w, bias) = gemm_data(&geom, 0xA117);
        let (oracle, _) = qops::matmul_i8_i8(&a, &w, Some(&bias), 5).unwrap();
        for misalign in [1u32, 2, 3] {
            let got = gemm_outputs(&geom, Some(&f), &a, &w, Some(&bias), 5, misalign);
            assert_eq!(got, oracle.as_slice(), "misalign {misalign}");
        }
    }

    #[test]
    fn spec_gemm_saturation_edges_match_generic() {
        // shift 0 with extreme operands drives the accumulator far past
        // the i8 range on both sides
        let geom = GemmGeom {
            m: 2,
            k: 8,
            n: 2,
            has_bias: false,
        };
        let a = Mat::from_fn(geom.m, geom.k, |_, c| if c % 2 == 0 { 127i8 } else { -128 });
        let w = Mat::from_fn(
            geom.k,
            geom.n,
            |r, c| {
                if (r + c) % 2 == 0 {
                    127i8
                } else {
                    -128
                }
            },
        );
        let want = gemm_outputs(&geom, None, &a, &w, None, 0, 0);
        for f in factor_grid(&geom) {
            let got = gemm_outputs(&geom, Some(&f), &a, &w, None, 0, 0);
            assert_eq!(got, want, "{f:?}");
        }
    }

    /// Runs either the generic `ln_a8` (`unroll: None`) or a
    /// specialised kernel; LayerNorm is in-place on `x`.
    fn ln_outputs(
        rows: usize,
        cols: usize,
        unroll: Option<usize>,
        x: &Mat<i8>,
        gamma: &[f32],
        beta: &[f32],
    ) -> Vec<i8> {
        let params: Vec<i32> = vec![
            0.0625f32.to_bits() as i32,
            16.0f32.to_bits() as i32,
            (1.0 / cols as f32).to_bits() as i32,
            1e-5f32.to_bits() as i32,
            FROW as i32,
        ];
        let m = run_kernel(
            |asm, gk| match unroll {
                Some(u) => emit_ln_a8_spec(asm, cols, &LnFactors { unroll: u }),
                None => gk.ln_a8,
            },
            &[
                (IN_A, i8s(x.as_slice())),
                (IN_B, f32s(gamma)),
                (BIAS, f32s(beta)),
                (PARAMS, i32s(&params)),
            ],
            &[
                IN_A as i32,
                IN_B as i32,
                BIAS as i32,
                rows as i32,
                cols as i32,
                PARAMS as i32,
            ],
        );
        read_i8s(&m, IN_A, rows * cols)
    }

    #[test]
    fn spec_ln_matches_generic_for_every_unroll() {
        for cols in [5usize, 12] {
            let rows = 3usize;
            let mut st = 0x17 + cols as u64;
            let x = Mat::from_fn(rows, cols, |_, _| rand_i8(&mut st));
            let gamma: Vec<f32> = (0..cols).map(|i| 0.5 + i as f32 * 0.2).collect();
            let beta: Vec<f32> = (0..cols).map(|i| -0.3 + i as f32 * 0.1).collect();
            let want = ln_outputs(rows, cols, None, &x, &gamma, &beta);
            for unroll in 1..=cols + 2 {
                if (LnFactors { unroll }).validate(cols).is_err() {
                    continue;
                }
                let got = ln_outputs(rows, cols, Some(unroll), &x, &gamma, &beta);
                assert_eq!(got, want, "cols {cols} unroll {unroll}");
            }
        }
    }

    #[test]
    fn tuned_kernels_text_round_trips() {
        let table = TunedKernels {
            gemm: vec![
                (
                    GemmGeom {
                        m: 26,
                        k: 16,
                        n: 12,
                        has_bias: true,
                    },
                    GemmFactors {
                        j_unroll: 12,
                        k_unroll: 4,
                        cache_a: true,
                    },
                ),
                (
                    GemmGeom {
                        m: 3,
                        k: 7,
                        n: 5,
                        has_bias: false,
                    },
                    GemmFactors {
                        j_unroll: 5,
                        k_unroll: 7,
                        cache_a: false,
                    },
                ),
            ],
            ln: vec![(12, LnFactors { unroll: 12 })],
        };
        let parsed = TunedKernels::parse(&table.to_text()).expect("round trip");
        assert_eq!(parsed, table);
        assert!(TunedKernels::parse("bogus line\n").is_err());
        assert!(TunedKernels::parse("# comment\n\n")
            .expect("empty ok")
            .gemm
            .is_empty());
        // the committed artefact always parses
        let _ = TunedKernels::embedded();
    }

    #[test]
    fn parse_rejects_overflowing_fields_without_panicking() {
        for line in [
            "gemm m=1 k=9223372036854775808 n=6 bias=0 | j_unroll=3 k_unroll=1 cache_a=0",
            "ln cols=4611686018427387904 | unroll=4611686018427387904",
        ] {
            let err = TunedKernels::parse(line).expect_err(line);
            assert!(
                matches!(&err, BuildError::Model(m) if m.contains("immediate range")),
                "{err:?}"
            );
        }
    }

    #[test]
    fn factor_lookup_falls_back_to_valid_defaults() {
        let table = TunedKernels::default();
        for geom in model_sites() {
            let f = table.gemm_factors(&geom);
            f.validate(&geom).expect("defaults validate");
        }
        for cols in [1usize, 5, 12, 64, 200] {
            let f = table.ln_factors(cols);
            f.validate(cols).expect("ln defaults validate");
        }
        // odd-K and bias-free geometries too
        for geom in [
            GemmGeom {
                m: 3,
                k: 7,
                n: 5,
                has_bias: false,
            },
            GemmGeom {
                m: 27,
                k: 200,
                n: 40,
                has_bias: true,
            },
        ] {
            table
                .gemm_factors(&geom)
                .validate(&geom)
                .expect("defaults validate");
        }
    }

    /// Table field values: small, near the immediate limits, huge.
    fn field() -> impl Strategy<Value = usize> {
        prop_oneof![
            0usize..8,
            0usize..4200,
            any::<usize>(),
            Just(usize::MAX),
            Just(1usize << 62),
            Just(1usize << 63),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Any field values parse to a table or a typed error, never a
        /// panic, and whatever parses validates.
        #[test]
        fn parse_never_panics(v in collection::vec(field(), 9)) {
            let text = format!(
                "gemm m={} k={} n={} bias={} | j_unroll={} k_unroll={} cache_a={}\nln cols={} | unroll={}\n",
                v[0], v[1], v[2], v[3], v[4], v[5], v[6], v[7], v[8]
            );
            if let Ok(table) = TunedKernels::parse(&text) {
                for (geom, f) in &table.gemm {
                    prop_assert!(f.validate(geom).is_ok());
                }
                for (cols, f) in &table.ln {
                    prop_assert!(f.validate(*cols).is_ok());
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Random geometries (odd K, tiny shapes, random factors picked
        /// from the valid grid, saturation-heavy data): specialised and
        /// generic kernels agree bit for bit, and both match the oracle.
        #[test]
        fn spec_gemm_matches_generic_random(seed in any::<u32>()) {
            let mut st = seed as u64 ^ 0x5EED;
            let geom = GemmGeom {
                m: 1 + (splitmix(&mut st) % 4) as usize,
                k: 1 + (splitmix(&mut st) % 20) as usize,
                n: 1 + (splitmix(&mut st) % 8) as usize,
                has_bias: splitmix(&mut st).is_multiple_of(2),
            };
            let grid = factor_grid(&geom);
            let f = grid[(splitmix(&mut st) % grid.len() as u64) as usize];
            let (a, w, bias) = gemm_data(&geom, splitmix(&mut st));
            let bias_opt = geom.has_bias.then_some(&bias[..]);
            let shift = (splitmix(&mut st) % 8) as u32;
            let want = gemm_outputs(&geom, None, &a, &w, bias_opt, shift, 0);
            let (oracle, _) = qops::matmul_i8_i8(&a, &w, bias_opt, shift).unwrap();
            prop_assert_eq!(&want, oracle.as_slice());
            let got = gemm_outputs(&geom, Some(&f), &a, &w, bias_opt, shift, 0);
            prop_assert_eq!(got, want);
        }

        /// Random column counts and unrolls: the specialised LayerNorm
        /// is bit-identical to the generic kernel.
        #[test]
        fn spec_ln_matches_generic_random(seed in any::<u32>()) {
            let mut st = seed as u64 ^ 0x1A1A;
            let cols = 1 + (splitmix(&mut st) % 16) as usize;
            let rows = 1 + (splitmix(&mut st) % 3) as usize;
            let unroll = 1 + (splitmix(&mut st) % (cols as u64 + 2)) as usize;
            prop_assume!((LnFactors { unroll }).validate(cols).is_ok());
            let x = Mat::from_fn(rows, cols, |_, _| rand_i8(&mut st));
            let gamma: Vec<f32> = (0..cols).map(|_| (splitmix(&mut st) % 100) as f32 / 50.0 - 1.0).collect();
            let beta: Vec<f32> = (0..cols).map(|_| (splitmix(&mut st) % 100) as f32 / 100.0 - 0.5).collect();
            let want = ln_outputs(rows, cols, None, &x, &gamma, &beta);
            let got = ln_outputs(rows, cols, Some(unroll), &x, &gamma, &beta);
            prop_assert_eq!(got, want);
        }
    }
}
