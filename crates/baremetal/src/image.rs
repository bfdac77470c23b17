//! Complete bare-metal inference images and the host harness that runs
//! them on the simulator.
//!
//! An [`InferenceImage`] is a fully linked program (code + weights +
//! buffers) for one of four flavours, each built by
//! [`InferenceImage::build`] from an [`ImageSpec`]:
//!
//! | Flavour                 | Spec                               | Paper model            | Table IX row |
//! |-------------------------|------------------------------------|------------------------|--------------|
//! | [`Flavor::Float`]       | [`ImageSpec::Float`]               | KWT-Tiny (soft-float)  | 26 M cycles  |
//! | [`Flavor::Quantized`]   | [`ImageSpec::Quant`]               | KWT-Tiny-Q             | 13 M cycles  |
//! | [`Flavor::Accelerated`] | [`ImageSpec::Quant`] (LUT model)   | KWT-Tiny-Q (+Hardware) | 5.5 M cycles |
//! | [`Flavor::A8`]          | [`ImageSpec::A8`]                  | beyond the paper: INT8 activations over `kdot4.i8` | — |
//!
//! One emitter writes the KWT forward graph for all of them; a flavour
//! supplies only its weight storage format, its kernel library and the
//! per-op argument blocks. Activations live in the paper's two static
//! banks (§V), sized `SEQLEN x MLP_DIM` and `SEQLEN x DIM_HEAD x 3`
//! elements; the builder's bump allocators prove at build time that no
//! stage overflows them.

use crate::banks::Bank;
use crate::kernels::{
    a8_attn_params, a8_ln_params, attn_params, gelu_params, ln_params, pop_region, push_region,
    A8Kernels, Kernels,
};
use crate::mathlib::MathLib;
use crate::regions::{
    self, BLOCK_ATTENTION, BLOCK_MLP, BLOCK_TOP, OP_GELU, OP_LAYERNORM, OP_MATMUL, OP_OTHER,
};
use crate::softfloat::SoftFloat;
use crate::specialise::{self, GemmGeom, GemmSite, TunedKernels};
use crate::{BuildError, Result};
use kwt_model::{KwtConfig, KwtParams};
use kwt_quant::{A8Config, A8Consts, A8Kwt, Nonlinearity, QuantConfig, QuantizedKwt};
use kwt_rv32::{Machine, Platform, ProfileReport, RunResult};
use kwt_rvasm::{Asm, Inst, Label, Program, Reg};
use kwt_tensor::{qops, Mat};

/// Which inference pipeline the image implements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flavor {
    /// Float weights, soft-float everything.
    Float,
    /// INT8 weights / INT16 residuals, float non-linearities.
    Quantized,
    /// Quantised pipeline + custom-instruction SoftMax/GELU.
    Accelerated,
    /// Fully-INT8 (A8W8) pipeline over `kdot4.i8`, LUT non-linearities
    /// and the fused attention row pipeline — the only flavour that uses
    /// the custom-2 packed-MAC extension.
    A8,
}

/// A built inference program plus everything needed to run it.
#[derive(Debug, Clone)]
pub struct InferenceImage {
    /// The pipeline flavour.
    pub flavor: Flavor,
    /// The linked program (text + data).
    pub program: Program,
    /// Model architecture.
    pub config: KwtConfig,
    /// Quantisation scales (i16 quantised flavours only).
    pub qconfig: Option<QuantConfig>,
    /// A8 exponent configuration ([`Flavor::A8`] only).
    pub a8config: Option<A8Config>,
    input_addr: u32,
    logits_addr: u32,
    /// `(high_water, capacity)` for bank 1 and bank 2.
    pub bank_usage: [(usize, usize); 2],
    /// `(addr, len)` byte ranges the program writes at run time (input,
    /// activations, logits, scratch). Everything else in the image —
    /// text and weight banks — is static, and its build-time checksums
    /// anchor [`DeviceSession::recover`].
    mutable_ranges: Vec<(u32, u32)>,
    /// The simulated platform this image was linked against (RAM size /
    /// stack budget). The paper's 64 kB Ibex by default; KWT-1-scale
    /// images use [`Platform::ibex_with_ram`] (same timing model).
    platform: Platform,
}

const TEXT_BASE: u32 = 0x0;
const DATA_BASE: u32 = 0x8000;

/// What [`InferenceImage::build`] lowers: the model in one device
/// flavour, carrying exactly the settings that flavour uses.
#[derive(Debug, Clone, Copy)]
pub enum ImageSpec<'a> {
    /// Float weights over the soft-float kernels ([`Flavor::Float`]).
    Float(&'a KwtParams),
    /// The INT8-weight / INT16-activation pipeline over the scalar RV32IM
    /// integer kernels: [`Flavor::Accelerated`] when the model uses the
    /// custom-instruction non-linearities ([`Nonlinearity::FixedLut`]),
    /// else [`Flavor::Quantized`].
    Quant(&'a QuantizedKwt),
    /// The fully-INT8 A8W8 pipeline ([`Flavor::A8`], over the custom-2
    /// packed-MAC extension; every INT8 weight matrix is stored
    /// **transposed**, `N×K` row-major). With a tuned-factor table the builder
    /// emits a specialised kernel for every distinct GEMM geometry and
    /// the LayerNorm width (the table's factors when valid, defaults
    /// otherwise) and points the call sites at it; the generic kernels
    /// stay in the image as the runtime misalignment fallback. `None`
    /// calls the generic kernels everywhere.
    A8(&'a A8Kwt, Option<&'a TunedKernels>),
}

/// One weight tensor in its device storage format.
enum Tensor<'a> {
    F32(&'a [f32]),
    I32(&'a [i32]),
    I16(&'a [i16]),
    I8(&'a [i8]),
    /// An INT8 matrix stored transposed (`N×K`, word-aligned) for the
    /// A8 GEMMs.
    I8T(&'a Mat<i8>),
}

impl Tensor<'_> {
    fn emit(&self, asm: &mut Asm) -> u32 {
        match *self {
            Tensor::F32(v) => asm.data_words_f32(v),
            Tensor::I32(v) => asm.data_words_i32(v),
            Tensor::I16(v) => asm.data_halves_i16(v),
            Tensor::I8(v) => asm.data_bytes_i8(v),
            Tensor::I8T(m) => {
                asm.data_align(4);
                asm.data_bytes_i8(m.transpose().as_slice())
            }
        }
    }
}

/// Weight tensors per encoder layer, in emission order.
const LAYER_TENSORS: usize = 12;

/// One quantised encoder layer's tensors, as `layer_tensors` borrows them.
type IntLayer<'a> = (
    &'a Mat<i8>,
    &'a [i32],
    &'a Mat<i8>,
    &'a [i32],
    &'a [f32],
    &'a [f32],
    &'a Mat<i8>,
    &'a [i32],
    &'a Mat<i8>,
    &'a [i32],
    &'a [f32],
    &'a [f32],
);

/// The weight list of a quantised flavour: INT8 matrices in `mat`'s
/// layout, `i32` biases, float LayerNorm parameters.
fn int_weights<'a>(
    mat: impl Fn(&'a Mat<i8>) -> Tensor<'a>,
    [w_proj, w_head]: [&'a Mat<i8>; 2],
    [b_proj, b_head]: [&'a [i32]; 2],
    [pos, cls]: [Tensor<'a>; 2],
    layers: impl Iterator<Item = IntLayer<'a>>,
) -> Vec<Tensor<'a>> {
    use Tensor::{F32, I32};
    let mut out = vec![mat(w_proj), I32(b_proj), pos, cls];
    for (wq, bq, wo, bo, g1, be1, w1, b1, w2, b2, g2, be2) in layers {
        out.extend([
            mat(wq),
            I32(bq),
            mat(wo),
            I32(bo),
            F32(g1),
            F32(be1),
            mat(w1),
            I32(b1),
            mat(w2),
            I32(b2),
            F32(g2),
            F32(be2),
        ]);
    }
    out.extend([mat(w_head), I32(b_head)]);
    out
}

impl<'a> ImageSpec<'a> {
    /// Every weight tensor in emission order: patch projection (weights,
    /// bias), positional embeddings, class token; per layer QKV, output
    /// projection, LN1 γ/β, MLP hidden, MLP out, LN2 γ/β (weights before
    /// biases); then the head.
    fn weights(&self) -> Vec<Tensor<'a>> {
        use Tensor::{F32, I16, I8, I8T};
        match *self {
            ImageSpec::Float(p) => {
                let m = |w: &'a Mat<f32>| F32(w.as_slice());
                let mut out = vec![
                    m(&p.w_proj),
                    F32(&p.b_proj),
                    m(&p.pos_emb),
                    F32(&p.class_token),
                ];
                for l in &p.layers {
                    out.extend([
                        m(&l.w_qkv),
                        F32(&l.b_qkv),
                        m(&l.w_out),
                        F32(&l.b_out),
                        F32(&l.ln1_gamma),
                        F32(&l.ln1_beta),
                        m(&l.w_mlp1),
                        F32(&l.b_mlp1),
                        m(&l.w_mlp2),
                        F32(&l.b_mlp2),
                        F32(&l.ln2_gamma),
                        F32(&l.ln2_beta),
                    ]);
                }
                out.extend([m(&p.w_head), F32(&p.b_head)]);
                out
            }
            ImageSpec::Quant(qm) => {
                let (wp, bp, pe, ct, wh, bh) = qm.tensors();
                let mat = |w: &'a Mat<i8>| I8(w.as_slice());
                let layers = (0..qm.config.depth).map(|i| qm.layer_tensors(i));
                int_weights(
                    mat,
                    [wp, wh],
                    [bp, bh],
                    [I16(pe.as_slice()), I16(ct)],
                    layers,
                )
            }
            ImageSpec::A8(qm, _) => {
                let (wp, bp, pe, ct, wh, bh) = qm.tensors();
                let layers = (0..qm.config.depth).map(|i| qm.layer_tensors(i));
                int_weights(I8T, [wp, wh], [bp, bh], [I8(pe.as_slice()), I8(ct)], layers)
            }
        }
    }
}

/// A flavour's kernel library as the graph emitter calls it: the entry
/// points shared by every flavour plus the per-op arguments that differ.
struct Lowering {
    config: KwtConfig,
    copy_bytes: Label,
    copy_strided: Label,
    /// Element-wise (saturating) add: positions and residuals.
    add: Label,
    /// Bytes of the attention kernel's score-row scratch.
    row_bytes: usize,
    lib: Library,
}

enum Library {
    Float {
        k: Kernels,
        inv_sqrt_dh: u32,
        inv_dim: u32,
        eps: u32,
    },
    Quant {
        k: Kernels,
        yw: u32,
        attn_p: u32,
        ln_p: u32,
        gelu_p: u32,
    },
    A8 {
        k: A8Kernels,
        consts: A8Consts,
        /// Specialised GEMM kernels by geometry (the rest call
        /// `matmul_a8`).
        gemm: Vec<(GemmGeom, Label)>,
        ln: Label,
        attn_p: u32,
        ln_p0: u32,
        ln_p: u32,
    },
}

/// Loads up to 8 arguments into `a0..a7` and calls `label`.
fn call(asm: &mut Asm, label: Label, args: &[u32]) {
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
    assert!(args.len() <= 8, "at most 8 register arguments");
    for (reg, &v) in ARGS.iter().zip(args) {
        asm.li(*reg, v as i32);
    }
    asm.call(label);
}

/// Emits `body` inside the profiler region `tag`.
fn in_region(asm: &mut Asm, tag: u32, body: impl FnOnce(&mut Asm)) {
    push_region(asm, tag);
    body(asm);
    pop_region(asm);
}

/// Emits a parameter block of 32-bit words, returning its address.
fn param_block(asm: &mut Asm, words: &[u32]) -> u32 {
    let words: Vec<i32> = words.iter().map(|&w| w as i32).collect();
    asm.data_words_i32(&words)
}

impl Lowering {
    /// Reserves the flavour's scratch rows and parameter blocks (pushing
    /// the run-time-written ones onto `mutable`), then emits its kernel
    /// library into the text section.
    fn emit(
        spec: &ImageSpec<'_>,
        config: KwtConfig,
        asm: &mut Asm,
        mutable: &mut Vec<(u32, u32)>,
    ) -> Self {
        let c = &config;
        let (s, dim, mlp, dh) = (c.seqlen(), c.dim, c.mlp_dim, c.dim_head);
        let kp = (s + 3) & !3;
        let inv_sqrt_dh = (1.0 / (dh as f32).sqrt()).to_bits();
        let inv_dim = (1.0 / dim as f32).to_bits();
        let eps = c.ln_eps.to_bits();
        let soft_kernels = |asm: &mut Asm| {
            let sf = SoftFloat::emit(asm);
            let math = MathLib::emit(asm, &sf);
            Kernels::emit(asm, &sf, &math)
        };
        let (copy_bytes, copy_strided, add, row_bytes, lib) = match *spec {
            ImageSpec::Float(_) => {
                let k = soft_kernels(asm);
                let lib = Library::Float {
                    k,
                    inv_sqrt_dh,
                    inv_dim,
                    eps,
                };
                (k.copy_bytes, k.copy_strided, k.add_f32, s * 4, lib)
            }
            ImageSpec::Quant(qm) => {
                let ya = qm.qconfig.input_bits;
                let deq = (1.0f32 / (1u32 << ya) as f32).to_bits();
                let req = ((1u32 << ya) as f32).to_bits();
                let nl = u32::from(qm.nonlinearity == Nonlinearity::FixedLut);
                // shared float scratch row: max(S, mlp, dim) floats
                let scratch_len = s.max(mlp).max(dim) * 4;
                let scratch = asm.data_reserve(scratch_len, 4);
                mutable.push((scratch, scratch_len as u32));
                let attn_p = param_block(asm, &[ya, inv_sqrt_dh, deq, req, scratch, nl]);
                debug_assert_eq!(attn_params::SIZE, 24);
                let ln_p = param_block(asm, &[deq, req, inv_dim, eps, scratch]);
                debug_assert_eq!(ln_params::SIZE, 20);
                let gelu_p = param_block(asm, &[deq, req, scratch, nl]);
                debug_assert_eq!(gelu_params::SIZE, 16);
                let k = soft_kernels(asm);
                let lib = Library::Quant {
                    k,
                    yw: qm.qconfig.weight_bits,
                    attn_p,
                    ln_p,
                    gelu_p,
                };
                // the score-row scratch holds KP = S rounded up to a
                // multiple of 4 entries; the scalar kernel uses the first S
                (k.copy_bytes, k.copy_strided, k.add_sat_i16, kp * 2, lib)
            }
            ImageSpec::A8(qm, tuned) => {
                let consts = qm.consts;
                // shared float/Q8.24 scratch row: the fused attention
                // pipeline needs `s` words, the LayerNorm row cache `dim`
                let rowf = asm.data_reserve(s.max(dim) * 4, 4);
                let vt = asm.data_reserve(dh * kp, 4);
                mutable.extend([(rowf, (s.max(dim) * 4) as u32), (vt, (dh * kp) as u32)]);
                let attn_p = param_block(
                    asm,
                    &[
                        consts.shift_scores,
                        consts.score_deq_bits,
                        consts.prob_req_bits,
                        consts.shift_ctx,
                        rowf,
                        vt,
                    ],
                );
                debug_assert_eq!(a8_attn_params::SIZE, 24);
                // LayerNorm parameter blocks: layer 0's LN1 dequantises the
                // coarse stream0 exponent, every other LN the stream
                // exponent. Both reuse the attention row scratch as their
                // float row cache (the kernels never run concurrently).
                let ln_block = |asm: &mut Asm, deq| {
                    let words = [
                        deq,
                        consts.ln_req_bits,
                        consts.inv_n_bits,
                        consts.eps_bits,
                        rowf,
                    ];
                    param_block(asm, &words)
                };
                let ln_p0 = ln_block(asm, consts.ln_deq0_bits);
                let ln_p = ln_block(asm, consts.ln_deq_bits);
                debug_assert_eq!(a8_ln_params::SIZE, 20);
                let k = A8Kernels::emit(asm, s, dh);
                // specialised kernels for every distinct GEMM geometry and
                // the LayerNorm width, with the generic kernels as fallback
                let mut gemm = Vec::new();
                let mut ln = k.ln_a8;
                if let Some(table) = tuned {
                    for geom in specialise::gemm_sites(c) {
                        let factors = table.gemm_factors(&geom);
                        if factors.validate(&geom).is_ok() {
                            let label =
                                specialise::emit_gemm_a8_spec(asm, &geom, &factors, k.matmul_a8);
                            gemm.push((geom, label));
                        }
                    }
                    let lf = table.ln_factors(dim);
                    if lf.validate(dim).is_ok() {
                        ln = specialise::emit_ln_a8_spec(asm, dim, &lf);
                    }
                }
                let lib = Library::A8 {
                    k,
                    consts,
                    gemm,
                    ln,
                    attn_p,
                    ln_p0,
                    ln_p,
                };
                (k.copy_bytes, k.copy_strided, k.add_sat_i8, kp, lib)
            }
        };
        Lowering {
            config,
            copy_bytes,
            copy_strided,
            add,
            row_bytes,
            lib,
        }
    }

    /// `out = a @ w + b` at GEMM `site` of encoder layer `layer`.
    fn gemm(&self, asm: &mut Asm, site: GemmSite, layer: usize, [a, w, b, out]: [u32; 4]) {
        let geom = site.geom(&self.config);
        let mut args = vec![a, w, b, out, geom.m as u32, geom.k as u32, geom.n as u32];
        let label = match &self.lib {
            Library::Float { k, .. } => k.matmul_f32,
            Library::Quant { k, yw, .. } => {
                args.push(*yw);
                k.matmul_q
            }
            Library::A8 {
                k, consts, gemm, ..
            } => {
                args.push(match site {
                    GemmSite::Proj => consts.shift_proj,
                    GemmSite::Qkv if layer == 0 => consts.shift_qkv0,
                    GemmSite::Qkv => consts.shift_qkv,
                    GemmSite::Out if layer == 0 => consts.shift_out0,
                    GemmSite::Out => consts.shift_out,
                    GemmSite::Mlp1 => consts.shift_mlp1,
                    GemmSite::Mlp2 => consts.shift_mlp2,
                    GemmSite::Head => consts.shift_head,
                });
                gemm.iter()
                    .find(|(g, _)| *g == geom)
                    .map_or(k.matmul_a8, |(_, l)| *l)
            }
        };
        let block = match site {
            GemmSite::Proj | GemmSite::Head => BLOCK_TOP,
            GemmSite::Qkv | GemmSite::Out => BLOCK_ATTENTION,
            GemmSite::Mlp1 | GemmSite::Mlp2 => BLOCK_MLP,
        };
        in_region(asm, block | OP_MATMUL, |asm| call(asm, label, &args));
    }

    /// Single-head attention of `q`, `kk`, `v` into `sa`, with the score
    /// row in `row` (the kernels tag their own profiler regions).
    fn attention(&self, asm: &mut Asm, [q, kk, v, sa, row]: [u32; 5]) {
        let (s, dh) = (self.config.seqlen() as u32, self.config.dim_head as u32);
        match &self.lib {
            Library::Float { k, inv_sqrt_dh, .. } => call(
                asm,
                k.attention_f32,
                &[q, kk, v, sa, s, dh, row, *inv_sqrt_dh],
            ),
            Library::Quant { k, attn_p, .. } => {
                call(asm, k.attention_q, &[q, kk, v, sa, s, dh, row, *attn_p])
            }
            Library::A8 { k, attn_p, .. } => {
                call(asm, k.attention_a8, &[q, kk, v, sa, row, *attn_p])
            }
        }
    }

    /// In-place LayerNorm of the residual stream `x`; `stream0` marks the
    /// first layer's LN1, whose input is still at the coarse embedding
    /// exponent on the A8 path.
    fn layer_norm(&self, asm: &mut Asm, [x, g, b]: [u32; 3], stream0: bool) {
        let c = &self.config;
        let mut args = vec![x, g, b, c.seqlen() as u32, c.dim as u32];
        let label = match &self.lib {
            Library::Float {
                k, inv_dim, eps, ..
            } => {
                args.extend([*inv_dim, *eps]);
                k.layer_norm_f32
            }
            Library::Quant { k, ln_p, .. } => {
                args.push(*ln_p);
                k.ln_q
            }
            Library::A8 {
                ln, ln_p0, ln_p, ..
            } => {
                args.push(if stream0 { *ln_p0 } else { *ln_p });
                *ln
            }
        };
        in_region(asm, BLOCK_TOP | OP_LAYERNORM, |asm| call(asm, label, &args));
    }

    /// In-place GELU of the MLP hidden activations.
    fn gelu(&self, asm: &mut Asm, hidden: u32) {
        let (s, mlp) = (self.config.seqlen() as u32, self.config.mlp_dim as u32);
        let (label, args) = match &self.lib {
            Library::Float { k, .. } => (k.gelu_f32, vec![hidden, s * mlp]),
            Library::Quant { k, gelu_p, .. } => (k.gelu_q, vec![hidden, s, mlp, *gelu_p]),
            Library::A8 { k, consts, .. } => (
                k.gelu_a8,
                vec![hidden, s * mlp, consts.gelu_deq_bits, consts.gelu_req_bits],
            ),
        };
        in_region(asm, BLOCK_MLP | OP_GELU, |asm| call(asm, label, &args));
    }

    /// `x += src` over the whole `S x dim` residual stream.
    fn residual(&self, asm: &mut Asm, x: u32, src: u32) {
        let n = (self.config.seqlen() * self.config.dim) as u32;
        in_region(asm, BLOCK_TOP | OP_OTHER, |asm| {
            call(asm, self.add, &[x, src, n])
        });
    }
}

impl InferenceImage {
    /// Builds the image `spec` describes, linked against `platform` —
    /// [`Platform::ibex`] for the paper's 64 kB part,
    /// [`Platform::ibex_with_ram`] for KWT-1-scale weight sets (same
    /// timing model, so simulated cycles stay comparable).
    ///
    /// Every flavour lowers the same KWT forward graph: patch projection,
    /// class token and positions, then per layer QKV → split → attention
    /// → output projection → residual → LN → MLP → GELU → MLP → residual
    /// → LN, then the classifier head on the class-token row. Only the
    /// storage formats and the kernels behind each op differ.
    /// Activations live in the paper's two static banks, sized
    /// `SEQLEN x MLP_DIM` and `SEQLEN x DIM_HEAD x 3` elements.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::Model`] for unsupported configurations
    /// (`heads != 1`; for A8 also `dim_head % 4 != 0`),
    /// [`BuildError::BankOverflow`] if an activation does not fit the
    /// banks, or [`BuildError::RamBudget`] if the image exceeds
    /// `platform`.
    pub fn build(spec: ImageSpec<'_>, platform: Platform) -> Result<Self> {
        // element bytes and the image header each flavour carries
        let (c, e, flavor, qconfig, a8config) = match spec {
            ImageSpec::Float(p) => (p.config, 4, Flavor::Float, None, None),
            ImageSpec::Quant(qm) => {
                let flavor = if qm.nonlinearity == Nonlinearity::FixedLut {
                    Flavor::Accelerated
                } else {
                    Flavor::Quantized
                };
                (qm.config, 2, flavor, Some(qm.qconfig), None)
            }
            ImageSpec::A8(qm, _) => (qm.config, 1, Flavor::A8, None, Some(qm.a8)),
        };
        if c.heads != 1 {
            return Err(BuildError::Model(format!(
                "bare-metal images support heads = 1 (both paper configs), got {}",
                c.heads
            )));
        }
        if flavor == Flavor::A8 && !c.dim_head.is_multiple_of(4) {
            return Err(BuildError::Model(format!(
                "the A8 fused attention kernel needs dim_head % 4 == 0, got {}",
                c.dim_head
            )));
        }
        let (s, dim, mlp, dh) = (c.seqlen(), c.dim, c.mlp_dim, c.dim_head);
        let mut asm = Asm::new(TEXT_BASE, DATA_BASE);

        // ---- data: weights, then the mailboxes ----
        let weights: Vec<u32> = spec.weights().iter().map(|w| w.emit(&mut asm)).collect();
        // every run-time-written region; the rest of the image is static
        let mut mutable_ranges = Vec::new();
        let mut mailbox = |asm: &mut Asm, len: usize| {
            let addr = asm.data_reserve(len, 4);
            mutable_ranges.push((addr, len as u32));
            addr
        };
        let input = mailbox(&mut asm, c.input_time * c.input_freq * e);
        let x = mailbox(&mut asm, s * dim * e);
        let logits = mailbox(&mut asm, c.num_classes * e);

        // ---- code: the kernel library (and its scratch), jumped over ----
        let over = asm.new_label();
        asm.jump_to(over);
        let ops = Lowering::emit(&spec, c, &mut asm, &mut mutable_ranges);
        asm.bind(over)?;
        // the paper's two banks
        let mut bank1 = Bank::new("bank1", asm.data_reserve(s * mlp * e, 4), s * mlp * e);
        let mut bank2 = Bank::new("bank2", asm.data_reserve(s * dh * 3 * e, 4), s * dh * 3 * e);
        for bank in [&bank1, &bank2] {
            mutable_ranges.push((bank.base(), bank.size() as u32));
        }
        asm.here("entry");

        let &[w_proj, b_proj, pos, cls, ref layers @ .., w_head, b_head] = weights.as_slice()
        else {
            unreachable!("every weight list holds the projection and the head");
        };
        // tokens = input @ Wp + bp, written into x rows 1..
        let tokens = x + (dim * e) as u32;
        ops.gemm(&mut asm, GemmSite::Proj, 0, [input, w_proj, b_proj, tokens]);
        // class token + positional embeddings
        in_region(&mut asm, BLOCK_TOP | OP_OTHER, |asm| {
            call(asm, ops.copy_bytes, &[x, cls, (dim * e) as u32]);
            call(asm, ops.add, &[x, pos, (s * dim) as u32]);
        });

        for (idx, layer) in layers.chunks_exact(LAYER_TENSORS).enumerate() {
            let &[w_qkv, b_qkv, w_out, b_out, g1, be1, w1, b1, w2, b2, g2, be2] = layer else {
                unreachable!("chunks_exact yields {LAYER_TENSORS} tensors");
            };
            bank1.reset();
            bank2.reset();
            let qkv = bank1.alloc(s * 3 * dh * e, 4)?;
            ops.gemm(&mut asm, GemmSite::Qkv, idx, [x, w_qkv, b_qkv, qkv]);
            // split into contiguous Q, K, V (bank2 = S x dh x 3 exactly)
            let q = bank2.alloc(s * dh * e, 4)?;
            let kk = bank2.alloc(s * dh * e, 4)?;
            let v = bank2.alloc(s * dh * e, 4)?;
            let head_bytes = (dh * e) as u32;
            in_region(&mut asm, BLOCK_ATTENTION | OP_OTHER, |asm| {
                for (part, dst) in (0..).zip([q, kk, v]) {
                    let src = qkv + part * head_bytes;
                    let args = [dst, src, s as u32, 3 * head_bytes, head_bytes];
                    call(asm, ops.copy_strided, &args);
                }
            });
            // qkv buffer is dead: reuse bank1 for attention scratch
            bank1.reset();
            let sa = bank1.alloc(s * dh * e, 4)?;
            let row = bank1.alloc(ops.row_bytes, 4)?;
            let attn_out = bank1.alloc(s * dim * e, 4)?;
            ops.attention(&mut asm, [q, kk, v, sa, row]);
            // output projection + residual + LN1
            ops.gemm(&mut asm, GemmSite::Out, idx, [sa, w_out, b_out, attn_out]);
            ops.residual(&mut asm, x, attn_out);
            ops.layer_norm(&mut asm, [x, g1, be1], idx == 0);
            // MLP
            bank1.reset();
            bank2.reset();
            let hidden = bank1.alloc(s * mlp * e, 4)?;
            let mlp_out = bank2.alloc(s * dim * e, 4)?;
            ops.gemm(&mut asm, GemmSite::Mlp1, idx, [x, w1, b1, hidden]);
            ops.gelu(&mut asm, hidden);
            ops.gemm(&mut asm, GemmSite::Mlp2, idx, [hidden, w2, b2, mlp_out]);
            ops.residual(&mut asm, x, mlp_out);
            ops.layer_norm(&mut asm, [x, g2, be2], false);
        }

        // classification head on the class-token row
        ops.gemm(&mut asm, GemmSite::Head, 0, [x, w_head, b_head, logits]);
        asm.li(Reg::A0, logits as i32);
        asm.emit(Inst::Ebreak);

        let program = asm.finish()?;
        check_ram(&program, &platform)?;
        Ok(InferenceImage {
            flavor,
            program,
            config: c,
            qconfig,
            a8config,
            input_addr: input,
            logits_addr: logits,
            bank_usage: [
                (bank1.high_water(), bank1.size()),
                (bank2.high_water(), bank2.size()),
            ],
            mutable_ranges,
            platform,
        })
    }

    /// The paper's float image ([`ImageSpec::Float`]) on the 64 kB Ibex.
    ///
    /// # Errors
    ///
    /// Same contract as [`Self::build`].
    pub fn build_float(params: &KwtParams) -> Result<Self> {
        Self::build(ImageSpec::Float(params), Platform::ibex())
    }

    /// The paper's quantised image ([`ImageSpec::Quant`]) on the 64 kB
    /// Ibex.
    ///
    /// # Errors
    ///
    /// Same contract as [`Self::build`].
    pub fn build_quant(qm: &QuantizedKwt) -> Result<Self> {
        Self::build(ImageSpec::Quant(qm), Platform::ibex())
    }

    /// The A8 image ([`ImageSpec::A8`]) with the committed tuning table
    /// ([`TunedKernels::embedded`]) on the 64 kB Ibex: i8 activations end
    /// to end over `kdot4.i8` GEMMs, the fused scores→softmax→context
    /// attention row pipeline, fused LayerNorm/GELU boundaries and LUT
    /// non-linearities. Device logits are bit-identical to the host
    /// golden model [`A8Kwt::forward_a8_into`].
    ///
    /// # Errors
    ///
    /// Same contract as [`Self::build`].
    pub fn build_a8(qm: &A8Kwt) -> Result<Self> {
        Self::build(
            ImageSpec::A8(qm, Some(&TunedKernels::embedded())),
            Platform::ibex(),
        )
    }

    /// Total image footprint in bytes (the paper's "Program Size").
    pub fn program_bytes(&self) -> usize {
        self.program.total_bytes()
    }

    /// The simulated platform this image was linked against — the 64 kB
    /// Ibex for every paper flavour, a [`Platform::ibex_with_ram`]
    /// variant for KWT-1-scale builds (see [`Self::build`]).
    pub fn platform(&self) -> Platform {
        self.platform
    }

    /// Build-time FNV-1a-64 digest of every **static** byte of the image
    /// — code and weight banks, excluding the run-time-mutable buffers
    /// (input, activations, logits, scratch). [`DeviceSession::recover`]
    /// re-validates the loaded machine against per-bank checksums of the
    /// same byte set, so a session whose static state matches this digest
    /// is bit-identical to a fresh [`session`](Self::session).
    pub fn integrity_checksum(&self) -> u64 {
        self.integrity_banks()
            .iter()
            .fold(FNV_OFFSET, |h, bank| fnv1a64_update(h, &bank.pristine))
    }

    /// The `(addr, len)` byte ranges covered by the integrity checksum:
    /// code and weight banks, minus the run-time-mutable buffers. Fault
    /// harnesses aim bit flips here to exercise the *detectable*
    /// corruption class (a flip inside these ranges either traps or is
    /// caught by [`DeviceSession::recover`]).
    pub fn static_ranges(&self) -> Vec<(u32, u32)> {
        let p = &self.program;
        let text_span = (p.text_base, (p.text.len() * 4) as u32);
        let data_span = (p.data_base, p.data.len() as u32);
        [text_span, data_span]
            .iter()
            .flat_map(|&span| subtract_ranges(span, &self.mutable_ranges))
            .collect()
    }

    /// The static image split into checksummed ≤1 kB banks.
    pub(crate) fn integrity_banks(&self) -> Vec<IntegrityBank> {
        let mut banks = Vec::new();
        for (addr, len) in self.static_ranges() {
            let mut off = 0;
            while off < len {
                let n = (len - off).min(INTEGRITY_BANK_BYTES);
                let bytes = program_bytes_at(&self.program, addr + off, n);
                banks.push(IntegrityBank {
                    addr: addr + off,
                    checksum: fnv1a64(&bytes),
                    pristine: bytes.into(),
                });
                off += n;
            }
        }
        banks
    }

    /// Address of the input buffer (for custom harnesses).
    pub fn input_addr(&self) -> u32 {
        self.input_addr
    }

    /// Address of the logits buffer.
    pub fn logits_addr(&self) -> u32 {
        self.logits_addr
    }

    /// Runs one inference on the simulator.
    ///
    /// Convenience wrapper over a throwaway [`DeviceSession`] — loads a
    /// fresh machine, runs once, and returns float logits, the run
    /// statistics and the profiler report. Repeated callers should keep a
    /// [`session`](Self::session) alive instead: it reuses one machine
    /// (and its warm decode cache) across calls.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::Model`] for a wrong input shape or
    /// [`BuildError::Trap`] if the program faults.
    pub fn run(&self, mfcc: &Mat<f32>) -> Result<(Vec<f32>, RunResult, ProfileReport)> {
        let mut session = self.session()?;
        let mut logits = Vec::new();
        let result = session.run_into(mfcc, &mut logits)?;
        let report = session.profile_report();
        Ok((logits, result, report))
    }

    /// Opens a persistent simulator session on this image: the program is
    /// loaded into a [`Machine`] **once**, and every
    /// [`DeviceSession::run`] after the first merely resets the
    /// architectural registers ([`Machine::reset_cpu`]) — weights stay in
    /// simulated RAM and the pre-decode execution cache stays warm, which
    /// is what makes repeated device-side inference fast.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::Trap`] if the image does not fit the
    /// platform RAM.
    pub fn session(&self) -> Result<DeviceSession> {
        let mut machine = Machine::load(&self.program, self.platform)?;
        for (id, name) in regions::region_names() {
            machine.name_region(id, &name);
        }
        Ok(DeviceSession {
            machine,
            flavor: self.flavor,
            config: self.config,
            qconfig: self.qconfig,
            a8config: self.a8config,
            input_addr: self.input_addr,
            logits_addr: self.logits_addr,
            runs: 0,
            integrity: self.integrity_banks(),
        })
    }
}

/// A persistent inference session on one [`InferenceImage`] (see
/// [`InferenceImage::session`]).
///
/// Safe to reuse across inputs: the generated programs write every
/// activation buffer before reading it and never store to the weight
/// region, so a register reset is a complete re-arm — the
/// `session_is_stateless_across_inputs` test proves logits are
/// bit-identical to a freshly loaded machine, in any input order.
#[derive(Debug, Clone)]
pub struct DeviceSession {
    machine: Machine,
    flavor: Flavor,
    config: KwtConfig,
    qconfig: Option<QuantConfig>,
    a8config: Option<A8Config>,
    input_addr: u32,
    logits_addr: u32,
    runs: u64,
    integrity: Vec<IntegrityBank>,
}

impl DeviceSession {
    /// The image flavour this session runs.
    pub fn flavor(&self) -> Flavor {
        self.flavor
    }

    /// The model configuration this session runs.
    pub fn config(&self) -> &KwtConfig {
        &self.config
    }

    /// Inferences completed so far.
    pub fn runs(&self) -> u64 {
        self.runs
    }

    /// The power-of-two input exponent of a pre-quantising front end —
    /// `Some` only for [`Flavor::A8`] images, whose `i8` input tensor the
    /// host can produce directly (see
    /// [`run_prequantized_into`](Self::run_prequantized_into)).
    pub fn input_exponent(&self) -> Option<i32> {
        match self.flavor {
            Flavor::A8 => Some(
                self.a8config
                    .expect("A8 flavour carries a8config")
                    .input_exponent(),
            ),
            _ => None,
        }
    }

    /// [`run_into`](Self::run_into) over an input already quantised to
    /// the image's `i8` format at [`input_exponent`](Self::input_exponent)
    /// — the upload path for front ends that emit device-ready features
    /// (`MfccExtractor::extract_padded_a8_into`), skipping the session's
    /// own host-side quantisation pass. Feeding features quantised with
    /// the same floor-and-saturate rule is **bit-identical** to
    /// [`run_into`](Self::run_into) on the float features.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::Model`] for a wrong input shape or a
    /// non-A8 image, and [`BuildError::Trap`] if the program faults.
    pub fn run_prequantized_into(
        &mut self,
        input: &Mat<i8>,
        logits: &mut Vec<f32>,
    ) -> Result<RunResult> {
        let c = self.config;
        if self.flavor != Flavor::A8 {
            return Err(BuildError::Model(format!(
                "pre-quantised input requires an A8 image, this session runs {:?}",
                self.flavor
            )));
        }
        if input.shape() != (c.input_time, c.input_freq) {
            return Err(BuildError::Model(format!(
                "input shape {:?}, expected ({}, {})",
                input.shape(),
                c.input_time,
                c.input_freq
            )));
        }
        self.machine.reset_cpu();
        self.machine.write_i8s(self.input_addr, input.as_slice());
        let cycles0 = self.machine.cpu.cycles;
        let instret0 = self.machine.cpu.instret;
        let result = self.run_machine(cycles0)?;
        self.runs += 1;
        logits.clear();
        let scale = self
            .a8config
            .expect("A8 flavour carries a8config")
            .consts(&c)
            .expect("validated at build time")
            .logit_scale;
        logits.extend(
            self.machine
                .read_i8s(self.logits_addr, c.num_classes)
                .into_iter()
                .map(|v| v as f32 * scale),
        );
        Ok(RunResult {
            cycles: result.cycles - cycles0,
            instructions: result.instructions - instret0,
            exit_code: result.exit_code,
        })
    }

    /// Runs one inference, writing float logits into `logits` (cleared
    /// first). The returned [`RunResult`] counts only **this** run's
    /// cycles and instructions, not the session totals.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::Model`] for a wrong input shape or
    /// [`BuildError::Trap`] if the program faults.
    pub fn run_into(&mut self, mfcc: &Mat<f32>, logits: &mut Vec<f32>) -> Result<RunResult> {
        let c = self.config;
        if mfcc.shape() != (c.input_time, c.input_freq) {
            return Err(BuildError::Model(format!(
                "input shape {:?}, expected ({}, {})",
                mfcc.shape(),
                c.input_time,
                c.input_freq
            )));
        }
        // Unconditional: on a fresh load this equals the load state, and
        // after a trapped run it re-arms instead of resuming the fault.
        self.machine.reset_cpu();
        write_clip_input(
            &mut self.machine,
            self.flavor,
            self.qconfig,
            self.a8config,
            self.input_addr,
            mfcc,
        );
        let cycles0 = self.machine.cpu.cycles;
        let instret0 = self.machine.cpu.instret;
        let result = self.run_machine(cycles0)?;
        self.runs += 1;
        read_clip_logits(
            &self.machine,
            self.flavor,
            self.qconfig,
            self.a8config,
            &c,
            self.logits_addr,
            logits,
        );
        Ok(RunResult {
            cycles: result.cycles - cycles0,
            instructions: result.instructions - instret0,
            exit_code: result.exit_code,
        })
    }

    /// [`run_into`](Self::run_into) returning fresh vectors.
    ///
    /// # Errors
    ///
    /// Same contract as [`run_into`](Self::run_into).
    pub fn run(&mut self, mfcc: &Mat<f32>) -> Result<(Vec<f32>, RunResult)> {
        let mut logits = Vec::new();
        let result = self.run_into(mfcc, &mut logits)?;
        Ok((logits, result))
    }

    /// Runs the loaded program and promotes any trap into a structured
    /// [`DeviceError`](crate::DeviceError) with pc / cycle / flavour
    /// context.
    fn run_machine(&mut self, cycles0: u64) -> Result<RunResult> {
        self.machine.run(2_000_000_000).map_err(|trap| {
            crate::DeviceError {
                trap,
                pc: self.machine.cpu.pc,
                cycles: self.machine.cpu.cycles - cycles0,
                image_flavor: self.flavor,
            }
            .into()
        })
    }

    /// Re-arms the session after a fault and re-validates image
    /// integrity against the build-time bank checksums.
    ///
    /// Four steps, all idempotent:
    ///
    /// 1. architectural reset ([`Machine::reset_cpu`]);
    /// 2. disarm any still-pending injected faults and drop the fault
    ///    log;
    /// 3. restore the LUT ROMs if they no longer match the default set;
    /// 4. checksum every static bank (code + weights) against its
    ///    build-time digest and rewrite **only** the dirty banks from
    ///    the pristine copy, invalidating the decode cache for each.
    ///
    /// After `recover()` the session is bit-identical to a freshly
    /// loaded [`InferenceImage::session`] (proven by the A-B-A
    /// `recovered_session_is_bit_identical_to_fresh` test): mutable
    /// buffers need no scrubbing because the generated programs write
    /// every activation before reading it. The configured cycle budget
    /// (if any) is deliberately left armed — it is session policy, not
    /// fault state.
    pub fn recover(&mut self) -> RecoveryReport {
        recover_machine(&mut self.machine, &self.integrity)
    }

    /// Checksums every static bank without repairing anything: `true`
    /// if the loaded image still matches its build-time digests.
    pub fn verify_integrity(&self) -> bool {
        self.integrity.iter().all(|bank| {
            fnv1a64(
                self.machine
                    .cpu
                    .mem
                    .read_bytes(bank.addr, bank.pristine.len()),
            ) == bank.checksum
        })
    }

    /// Arms (or with `None` disarms) a per-run cycle watchdog: any
    /// single inference consuming more than `budget` simulated cycles
    /// stops with [`Trap::WatchdogExpired`](kwt_rv32::Trap), surfaced
    /// as a [`DeviceError`](crate::DeviceError).
    pub fn set_cycle_budget(&mut self, budget: Option<u64>) {
        self.machine.set_cycle_watchdog(budget);
    }

    /// The armed per-run cycle budget, if any.
    pub fn cycle_budget(&self) -> Option<u64> {
        self.machine.cycle_watchdog()
    }

    /// Arms a deterministic [`FaultPlan`](kwt_rv32::FaultPlan) for the
    /// next run(s) — the chaos-harness entry point.
    pub fn inject_faults(&mut self, plan: kwt_rv32::FaultPlan) {
        self.machine.set_fault_plan(plan);
    }

    /// Faults that actually fired, in injection order (cleared by
    /// [`recover`](Self::recover)).
    pub fn fault_log(&self) -> &[kwt_rv32::FaultRecord] {
        self.machine.fault_log()
    }

    /// Profiler report accumulated over every run of this session.
    pub fn profile_report(&self) -> ProfileReport {
        self.machine.profile_report()
    }

    /// The underlying machine, for register/memory inspection.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Arms or disarms the simulator's per-instruction-class retirement
    /// counting (off by default; see [`Machine::class_histogram`]).
    pub fn set_class_histogram_enabled(&mut self, enabled: bool) {
        self.machine.set_class_histogram_enabled(enabled);
    }
}

/// Outcome of a [`DeviceSession::recover`] pass: how much of the image
/// had to be repaired to get back to the pristine build state.
///
/// `banks_dirty > 0` means the fault was **detected** — some static
/// bank (code or weights) no longer matched its build-time checksum and
/// was rewritten from the pristine copy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct RecoveryReport {
    /// Static banks scanned (all of them, every recover).
    pub banks_checked: usize,
    /// Banks whose checksum no longer matched the build and were
    /// rewritten from the pristine copy.
    pub banks_dirty: usize,
    /// Total bytes rewritten.
    pub bytes_restored: usize,
    /// Whether the LUT ROMs had been corrupted and were restored.
    pub luts_restored: bool,
    /// Pending (unfired) injected faults that were disarmed.
    pub faults_cleared: usize,
}

impl RecoveryReport {
    /// Whether the scan found any divergence from the pristine image
    /// (dirty banks or corrupted LUT ROMs).
    pub fn detected_corruption(&self) -> bool {
        self.banks_dirty > 0 || self.luts_restored
    }
}

/// Integrity-bank granularity: small enough to localise a flip, large
/// enough that a full scan of a ~50 kB image stays ~50 checksums.
const INTEGRITY_BANK_BYTES: u32 = 1024;

/// One build-time-checksummed slice of the static image (code or
/// weights), with a pristine copy shared across session clones.
#[derive(Debug, Clone)]
pub(crate) struct IntegrityBank {
    pub(crate) addr: u32,
    pub(crate) checksum: u64,
    pub(crate) pristine: std::sync::Arc<[u8]>,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv1a64_update(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_update(FNV_OFFSET, bytes)
}

/// Quantises (flavour-appropriately) and writes one clip into a loaded
/// machine's input mailbox — the single input path shared by
/// [`DeviceSession`] and [`crate::ClusterSession`], so the two can never
/// disagree on quantisation.
pub(crate) fn write_clip_input(
    machine: &mut Machine,
    flavor: Flavor,
    qconfig: Option<QuantConfig>,
    a8config: Option<A8Config>,
    input_addr: u32,
    mfcc: &Mat<f32>,
) {
    match flavor {
        Flavor::Float => machine.write_f32s(input_addr, mfcc.as_slice()),
        Flavor::Quantized | Flavor::Accelerated => {
            let ya = qconfig.expect("quant flavours carry qconfig").input_bits;
            let (q, _) = qops::quantize_i16(mfcc, ya);
            machine.write_i16s(input_addr, q.as_slice());
        }
        Flavor::A8 => {
            let yi = a8config.expect("A8 flavour carries a8config").input_bits;
            let mut q = Mat::default();
            qops::quantize_i8_scaled_into(mfcc, yi, &mut q);
            machine.write_i8s(input_addr, q.as_slice());
        }
    }
}

/// Reads float logits back out of a loaded machine (cleared first) —
/// the readback twin of [`write_clip_input`].
pub(crate) fn read_clip_logits(
    machine: &Machine,
    flavor: Flavor,
    qconfig: Option<QuantConfig>,
    a8config: Option<A8Config>,
    config: &KwtConfig,
    logits_addr: u32,
    logits: &mut Vec<f32>,
) {
    logits.clear();
    match flavor {
        Flavor::Float => {
            logits.extend(machine.read_f32s(logits_addr, config.num_classes));
        }
        Flavor::Quantized | Flavor::Accelerated => {
            let ya = qconfig.expect("quant flavours carry qconfig").input_bits;
            logits.extend(
                machine
                    .read_i16s(logits_addr, config.num_classes)
                    .into_iter()
                    .map(|v| v as f32 / (1u32 << ya) as f32),
            );
        }
        Flavor::A8 => {
            // the same derived constant the host golden model reads,
            // so the two readback paths can never disagree
            let scale = a8config
                .expect("A8 flavour carries a8config")
                .consts(config)
                .expect("validated at build time")
                .logit_scale;
            logits.extend(
                machine
                    .read_i8s(logits_addr, config.num_classes)
                    .into_iter()
                    .map(|v| v as f32 * scale),
            );
        }
    }
}

/// The shared recovery pass behind [`DeviceSession::recover`] and
/// [`crate::ClusterSession::recover`]: architectural reset, fault-plan
/// and log disarm, LUT restore, and checksum-driven repair of the
/// static banks (only dirty banks are rewritten).
pub(crate) fn recover_machine(
    machine: &mut Machine,
    integrity: &[IntegrityBank],
) -> RecoveryReport {
    let mut report = RecoveryReport {
        faults_cleared: machine.pending_faults().len(),
        ..RecoveryReport::default()
    };
    machine.reset_cpu();
    machine.clear_fault_plan();
    machine.clear_fault_log();
    let full = kwt_quant::LutSet::new();
    if machine.cpu.luts() != &full {
        machine.cpu.set_luts(full);
        report.luts_restored = true;
    }
    for bank in integrity {
        report.banks_checked += 1;
        let live = machine.cpu.mem.read_bytes(bank.addr, bank.pristine.len());
        if fnv1a64(live) != bank.checksum {
            machine.cpu.mem.write_bytes(bank.addr, &bank.pristine);
            machine
                .cpu
                .invalidate_decode_cache(bank.addr, bank.pristine.len() as u32);
            report.banks_dirty += 1;
            report.bytes_restored += bank.pristine.len();
        }
    }
    report
}

/// `span` minus every overlapping hole, as sorted `(addr, len)` pieces.
fn subtract_ranges(span: (u32, u32), holes: &[(u32, u32)]) -> Vec<(u32, u32)> {
    let (base, len) = span;
    let end = base + len;
    let mut clipped: Vec<(u32, u32)> = holes
        .iter()
        .map(|&(a, l)| (a.max(base), (a + l).min(end)))
        .filter(|&(a, b)| a < b)
        .collect();
    clipped.sort_unstable();
    let mut out = Vec::new();
    let mut cur = base;
    for (a, b) in clipped {
        if a > cur {
            out.push((cur, a - cur));
        }
        cur = cur.max(b);
    }
    if cur < end {
        out.push((cur, end - cur));
    }
    out
}

/// Bytes of the linked program at `[addr, addr + len)`, straight from
/// the [`Program`] sections (text words are little-endian).
fn program_bytes_at(program: &Program, addr: u32, len: u32) -> Vec<u8> {
    let text_end = program.text_base + (program.text.len() * 4) as u32;
    (addr..addr + len)
        .map(|a| {
            if a >= program.text_base && a < text_end {
                let off = (a - program.text_base) as usize;
                (program.text[off / 4] >> ((off % 4) * 8)) as u8
            } else {
                program.data[(a - program.data_base) as usize]
            }
        })
        .collect()
}

fn check_ram(program: &Program, platform: &Platform) -> Result<()> {
    let needed =
        (program.data_base + program.data.len() as u32) as usize + platform.stack_bytes as usize;
    let available = platform.ram_size as usize;
    if needed > available {
        return Err(BuildError::RamBudget { needed, available });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use kwt_quant::QuantConfig;

    fn trained_ish() -> KwtParams {
        scaled_params(KwtConfig::kwt_tiny())
    }

    fn scaled_params(config: KwtConfig) -> KwtParams {
        let mut p = KwtParams::init(config, 77).unwrap();
        p.visit_mut(|s| s.iter_mut().for_each(|v| *v *= 0.6));
        p
    }

    fn test_input(seed: u64) -> Mat<f32> {
        Mat::from_fn(26, 16, |r, c| {
            let h = seed
                .wrapping_add((r * 16 + c) as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15);
            ((h >> 40) as f32 / (1u64 << 24) as f32 - 0.5) * 10.0
        })
    }

    #[test]
    fn float_image_matches_host_forward() {
        let params = trained_ish();
        let image = InferenceImage::build_float(&params).unwrap();
        for seed in [1u64, 2, 3] {
            let x = test_input(seed);
            let (logits, run, _) = image.run(&x).unwrap();
            let want = kwt_model::forward(&params, &x).unwrap();
            for (g, w) in logits.iter().zip(&want) {
                assert!(
                    (g - w).abs() < 2e-3 * w.abs().max(1.0),
                    "seed {seed}: device {g} vs host {w}"
                );
            }
            assert!(run.cycles > 100_000, "suspiciously fast: {}", run.cycles);
        }
    }

    #[test]
    fn quant_image_matches_host_qmodel() {
        let params = trained_ish();
        let qm = QuantizedKwt::quantize(&params, QuantConfig::paper_best());
        let image = InferenceImage::build_quant(&qm).unwrap();
        assert_eq!(image.flavor, Flavor::Quantized);
        let mut agree = 0;
        for seed in [10u64, 11, 12, 13, 14] {
            let x = test_input(seed);
            let (logits, _, _) = image.run(&x).unwrap();
            let host = qm.forward(&x).unwrap();
            let dev_arg = (logits[1] > logits[0]) as u32;
            let host_arg = (host[1] > host[0]) as u32;
            if dev_arg == host_arg {
                agree += 1;
            }
            // logits at the activation scale: allow a few quant steps
            for (g, w) in logits.iter().zip(&host) {
                assert!((g - w).abs() < 0.25, "seed {seed}: device {g} vs host {w}");
            }
        }
        assert!(agree >= 4, "argmax agreement {agree}/5");
    }

    #[test]
    fn accelerated_image_runs_and_is_fastest() {
        let params = trained_ish();
        let x = test_input(42);
        let float_img = InferenceImage::build_float(&params).unwrap();
        let qm = QuantizedKwt::quantize(&params, QuantConfig::paper_best());
        let quant_img = InferenceImage::build_quant(&qm).unwrap();
        let accel_qm = qm.clone().with_nonlinearity(Nonlinearity::FixedLut);
        let accel_img = InferenceImage::build_quant(&accel_qm).unwrap();
        assert_eq!(accel_img.flavor, Flavor::Accelerated);

        let (_, rf, _) = float_img.run(&x).unwrap();
        let (_, rq, _) = quant_img.run(&x).unwrap();
        let (_, ra, _) = accel_img.run(&x).unwrap();
        // Table IX ordering: float > quant > accelerated
        assert!(
            rf.cycles > rq.cycles && rq.cycles > ra.cycles,
            "cycle ordering violated: float {} quant {} accel {}",
            rf.cycles,
            rq.cycles,
            ra.cycles
        );
        // the headline: a large end-to-end speedup
        assert!(
            rf.cycles as f64 / ra.cycles as f64 > 3.0,
            "speedup too small: {} / {}",
            rf.cycles,
            ra.cycles
        );
    }

    #[test]
    fn scalar_accel_image_retires_no_custom2_ops() {
        // The paper's accelerated image runs on the plain Ibex plus the
        // custom-1 LUT ops; it never touches the custom-2 extension.
        use kwt_rv32::{FuncUnit, InstClass};
        let params = trained_ish();
        let qm = QuantizedKwt::quantize(&params, QuantConfig::paper_best())
            .with_nonlinearity(Nonlinearity::FixedLut);
        let image = InferenceImage::build_quant(&qm).unwrap();
        let mut session = image.session().unwrap();
        session.set_class_histogram_enabled(true);
        session.run(&test_input(9)).unwrap();
        let h = session.machine().class_histogram();
        assert!(h.count(InstClass::Lut) > 0, "the LUT ops still run");
        for class in InstClass::ALL {
            if class.unit() == FuncUnit::Simd {
                assert_eq!(h.count(class), 0, "{class:?}");
            }
        }
        assert_eq!(h.total_cycles(), session.machine().cpu.cycles);
    }

    #[test]
    fn every_custom2_op_is_emitted_and_freed_encodings_trap() {
        // Every op the custom-2 decoder accepts must appear in the text
        // of one of the KWT-Tiny images, so deleting the last emitter of
        // an op fails here instead of leaving a dead instruction behind.
        use kwt_quant::{A8Config, A8Kwt};
        use kwt_rv32::Trap;
        use kwt_rvasm::{PackedOp, OP_CUSTOM2};
        use std::collections::HashSet;
        let params = trained_ish();
        let qm = QuantizedKwt::quantize(&params, QuantConfig::paper_best());
        let accel = qm.clone().with_nonlinearity(Nonlinearity::FixedLut);
        let a8 = A8Kwt::quantize(&params, A8Config::paper_a8()).unwrap();
        let images = [
            InferenceImage::build_float(&params).unwrap(),
            InferenceImage::build_quant(&qm).unwrap(),
            InferenceImage::build_quant(&accel).unwrap(),
            InferenceImage::build_a8(&a8).unwrap(),
        ];
        let emitted: HashSet<PackedOp> = images
            .iter()
            .flat_map(|img| &img.program.text)
            .filter_map(|&w| match Inst::decode(w) {
                Some(Inst::Packed { op, .. }) => Some(op),
                _ => None,
            })
            .collect();
        let defined: Vec<PackedOp> = (0..8)
            .flat_map(|f3| (0..128).filter_map(move |f7| PackedOp::from_funct3_funct7(f3, f7)))
            .collect();
        for op in &defined {
            assert!(emitted.contains(op), "{op:?} has no emitter");
        }
        assert_eq!(emitted.len(), defined.len());

        // The unassigned custom-2 slots: R-type funct3 001 and the
        // I-type funct3 100 (any immediate) are illegal instructions.
        let custom2 = |top: u32, f3: u32| top << 20 | 11 << 15 | f3 << 12 | 10 << 7 | OP_CUSTOM2;
        for word in [custom2(12, 0b001), custom2(0, 0b100), custom2(0xFFE, 0b100)] {
            assert_eq!(Inst::decode(word), None, "{word:#010x}");
            let mut asm = Asm::new(TEXT_BASE, DATA_BASE);
            asm.here("entry");
            asm.emit(Inst::Addi {
                rd: Reg::Zero,
                rs1: Reg::Zero,
                imm: 0,
            });
            asm.emit(Inst::Ebreak);
            let mut m = Machine::load(&asm.finish().unwrap(), Platform::ibex()).unwrap();
            m.cpu.mem.write_bytes(TEXT_BASE, &word.to_le_bytes());
            m.cpu.invalidate_decode_cache(TEXT_BASE, 4);
            assert_eq!(
                m.run(10),
                Err(Trap::IllegalInstruction {
                    pc: TEXT_BASE,
                    word
                })
            );
        }
    }

    /// MFCC-shaped test inputs (large positive c0, decaying higher
    /// coefficients) matching the range the A8 exponents target.
    fn mfcc_like_input(seed: u64) -> Mat<f32> {
        Mat::from_fn(26, 16, |r, c| {
            let h = seed
                .wrapping_add((r * 16 + c) as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let u = (h >> 40) as f32 / (1u64 << 24) as f32 - 0.5;
            if c == 0 {
                35.0 + 50.0 * u
            } else {
                u * 16.0 / (1.0 + c as f32 * 0.4)
            }
        })
    }

    #[test]
    fn a8_image_bit_identical_to_host_golden_model() {
        // The A8 differential story: the device image must reproduce the
        // host golden model's logits bit-for-bit on every seed — the A8
        // numerics legitimately differ from the i16 path, so the oracle
        // is the host model, not another image.
        use kwt_quant::{A8Config, A8Kwt};
        let params = trained_ish();
        for a8cfg in [
            A8Config::paper_a8(),
            A8Config {
                stream_bits: 3,
                prob_bits: 6,
                logit_bits: 3,
                ..A8Config::paper_a8()
            },
        ] {
            let qm = A8Kwt::quantize(&params, a8cfg).unwrap();
            let image = InferenceImage::build_a8(&qm).unwrap();
            assert_eq!(image.flavor, Flavor::A8);
            let mut session = image.session().unwrap();
            for seed in 0..6u64 {
                let x = mfcc_like_input(seed * 31 + 7);
                let (dev, _) = session.run(&x).unwrap();
                let (host, _) = qm.forward_a8(&x).unwrap();
                assert_eq!(dev.len(), host.len());
                for (d, h) in dev.iter().zip(&host) {
                    assert_eq!(
                        d.to_bits(),
                        h.to_bits(),
                        "{a8cfg:?} seed {seed}: device {d} vs host {h}"
                    );
                }
            }
        }
    }

    #[test]
    fn a8_prequantized_input_bit_identical_to_float_path() {
        // The engine's zero-copy upload path: quantising the float
        // features host-side (the front end's `extract_a8_into` rule)
        // and writing them via `run_prequantized_into` must reproduce
        // `run_into`'s logits and cycles exactly.
        use kwt_quant::{A8Config, A8Kwt};
        use kwt_tensor::qops;
        let params = trained_ish();
        let a8 = A8Kwt::quantize(&params, A8Config::paper_a8()).unwrap();
        let image = InferenceImage::build_a8(&a8).unwrap();
        let mut float_session = image.session().unwrap();
        let mut q_session = image.session().unwrap();
        let y = q_session
            .input_exponent()
            .expect("A8 exposes its input exponent");
        assert_eq!(y, A8Config::paper_a8().input_bits);
        let mut q = Mat::default();
        let (mut lf, mut lq) = (Vec::new(), Vec::new());
        for seed in 0..4u64 {
            let x = mfcc_like_input(seed * 13 + 3);
            let rf = float_session.run_into(&x, &mut lf).unwrap();
            qops::quantize_i8_scaled_into(&x, y, &mut q);
            let rq = q_session.run_prequantized_into(&q, &mut lq).unwrap();
            assert_eq!(rf.cycles, rq.cycles, "seed {seed}");
            for (a, b) in lf.iter().zip(&lq) {
                assert_eq!(a.to_bits(), b.to_bits(), "seed {seed}");
            }
        }
        // non-A8 sessions reject the pre-quantised path
        let qm16 = QuantizedKwt::quantize(&params, QuantConfig::paper_best())
            .with_nonlinearity(Nonlinearity::FixedLut);
        let image16 = InferenceImage::build_quant(&qm16).unwrap();
        let mut s16 = image16.session().unwrap();
        assert_eq!(s16.input_exponent(), None);
        assert!(s16.run_prequantized_into(&q, &mut lq).is_err());
    }

    #[test]
    fn a8_image_is_fastest_variant() {
        // The whole point: kdot4 + the fused attention pipeline must
        // beat the scalar accelerated image (the paper's fastest) by a
        // wide margin, and land under the 0.30 M-cycle acceptance bar.
        use kwt_quant::{A8Config, A8Kwt};
        let params = trained_ish();
        let qm = QuantizedKwt::quantize(&params, QuantConfig::paper_best())
            .with_nonlinearity(Nonlinearity::FixedLut);
        let ximage = InferenceImage::build_quant(&qm).unwrap();
        let a8 = A8Kwt::quantize(&params, A8Config::paper_a8()).unwrap();
        let a8image = InferenceImage::build_a8(&a8).unwrap();
        let x = mfcc_like_input(42);
        let (_, rx, _) = ximage.run(&x).unwrap();
        let (_, ra, _) = a8image.run(&x).unwrap();
        assert!(
            ra.cycles * 5 < rx.cycles,
            "A8 should run ≥5x faster than the scalar accelerated image: {} vs {}",
            ra.cycles,
            rx.cycles
        );
        assert!(
            ra.cycles < 300_000,
            "A8 image over the 0.30 M cycle budget: {}",
            ra.cycles
        );
    }

    #[test]
    fn a8_session_is_stateless_and_histogram_attributes_kdot4() {
        use kwt_quant::{A8Config, A8Kwt};
        use kwt_rv32::InstClass;
        let params = trained_ish();
        let a8 = A8Kwt::quantize(&params, A8Config::paper_a8()).unwrap();
        let image = InferenceImage::build_a8(&a8).unwrap();
        let mut session = image.session().unwrap();
        session.set_class_histogram_enabled(true);
        let inputs = [mfcc_like_input(1), mfcc_like_input(2), mfcc_like_input(1)];
        for (i, x) in inputs.iter().enumerate() {
            let (logits, run) = session.run(x).unwrap();
            let (want, want_run, _) = image.run(x).unwrap();
            for (a, b) in logits.iter().zip(&want) {
                assert_eq!(a.to_bits(), b.to_bits(), "input {i}");
            }
            assert_eq!(run.cycles, want_run.cycles, "input {i}");
        }
        let h = session.machine().class_histogram();
        assert!(
            h.count(InstClass::PackedDot) > 10_000,
            "kdot4 in the hot loops"
        );
        assert!(
            h.count(InstClass::PackedCvt) > 1_000,
            "kcvt quant boundaries"
        );
        assert!(
            h.count(InstClass::PackedAlu) > 1_000,
            "ksat/kclip epilogues"
        );
    }

    #[test]
    fn profiler_reports_expected_hotspots() {
        let params = trained_ish();
        let image = InferenceImage::build_float(&params).unwrap();
        let (_, run, report) = image.run(&test_input(5)).unwrap();
        // most cycles must be attributed
        assert!(report.attributed_cycles > run.cycles * 9 / 10);
        let agg = crate::regions::aggregate_by_op(&report.regions);
        assert!(!agg.is_empty());
        // in the float model, matmul/gelu/softmax should dominate
        let top: Vec<&str> = agg.iter().take(3).map(|(n, _)| n.as_str()).collect();
        assert!(
            top.contains(&"matmul"),
            "matmul missing from top-3: {agg:?}"
        );
    }

    #[test]
    fn bank_discipline_reported_and_respected() {
        let params = trained_ish();
        let image = InferenceImage::build_float(&params).unwrap();
        for (hw, size) in image.bank_usage {
            assert!(hw <= size, "bank overflow escaped the builder");
            assert!(hw > 0, "banks unused?");
        }
        // image fits the 64 kB platform with the 4 kB stack
        assert!(image.program_bytes() < 60 * 1024);
    }

    #[test]
    fn session_is_stateless_across_inputs() {
        // A persistent session re-armed with reset_cpu must match a fresh
        // machine bit-for-bit on every flavour, in any input order —
        // including re-running an input the session has already seen.
        let params = trained_ish();
        let qm = QuantizedKwt::quantize(&params, QuantConfig::paper_best());
        let accel = qm.clone().with_nonlinearity(Nonlinearity::FixedLut);
        let images = [
            InferenceImage::build_float(&params).unwrap(),
            InferenceImage::build_quant(&qm).unwrap(),
            InferenceImage::build_quant(&accel).unwrap(),
        ];
        let inputs = [test_input(21), test_input(22), test_input(21)];
        for image in &images {
            let mut session = image.session().unwrap();
            for (i, x) in inputs.iter().enumerate() {
                let (logits, run) = session.run(x).unwrap();
                let (want, want_run, _) = image.run(x).unwrap();
                assert_eq!(logits.len(), want.len());
                for (a, b) in logits.iter().zip(&want) {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "{:?} input {i}: session {a} vs fresh {b}",
                        image.flavor
                    );
                }
                // per-run cycle deltas match a cold machine's full run
                assert_eq!(run.cycles, want_run.cycles, "{:?} input {i}", image.flavor);
                assert_eq!(run.instructions, want_run.instructions);
            }
            assert_eq!(session.runs(), 3);
        }
    }

    #[test]
    fn wrong_input_shape_rejected() {
        let params = trained_ish();
        let image = InferenceImage::build_float(&params).unwrap();
        assert!(matches!(
            image.run(&Mat::zeros(16, 26)),
            Err(BuildError::Model(_))
        ));
    }

    fn a8_image() -> InferenceImage {
        use kwt_quant::{A8Config, A8Kwt};
        let params = trained_ish();
        let qm = A8Kwt::quantize(&params, A8Config::paper_a8()).unwrap();
        InferenceImage::build_a8(&qm).unwrap()
    }

    #[test]
    fn integrity_checksum_is_reproducible_and_initially_clean() {
        let a = a8_image();
        let b = a8_image();
        assert_eq!(a.integrity_checksum(), b.integrity_checksum());
        let session = a.session().unwrap();
        assert!(session.verify_integrity(), "fresh session must be pristine");
    }

    #[test]
    fn recovered_session_is_bit_identical_to_fresh() {
        // The A-B-A test: fresh logits (A), corrupt a weight bank and
        // observe the damage (B), recover() and re-run — logits and
        // cycles must again match the fresh machine exactly (A).
        use kwt_rv32::FaultPlan;
        let image = a8_image();
        let x = mfcc_like_input(11);
        let (want, want_run, _) = image.run(&x).unwrap();

        let mut session = image.session().unwrap();
        // Flip a bit in the static weight region (data base holds
        // w_proj, well clear of the mutable buffers).
        let victim = image.program.data_base + 8;
        session.inject_faults(FaultPlan::new().flip_mem_bit(0, victim, 5));
        let corrupted = session.run(&x);
        if let Ok((logits, _)) = &corrupted {
            // a silent flip must at least be *detectable* below; a loud
            // one already surfaced as Err — both are acceptable here
            assert_eq!(logits.len(), want.len());
        }
        assert!(!session.verify_integrity(), "flip must be detectable");
        let report = session.recover();
        assert!(report.detected_corruption());
        assert_eq!(report.banks_dirty, 1, "one 1 kB bank holds the flip");
        assert!(report.bytes_restored <= 1024);
        assert!(session.verify_integrity());

        let (logits, run) = session.run(&x).unwrap();
        for (a, b) in logits.iter().zip(&want) {
            assert_eq!(a.to_bits(), b.to_bits(), "post-recover {a} vs fresh {b}");
        }
        assert_eq!(run.cycles, want_run.cycles);
        assert_eq!(run.instructions, want_run.instructions);
        // recover() on a clean session is a no-op scan
        let clean = session.recover();
        assert!(!clean.detected_corruption());
        assert_eq!(clean.banks_checked, report.banks_checked);
    }

    #[test]
    fn watchdog_budget_surfaces_as_device_error() {
        let image = a8_image();
        let mut session = image.session().unwrap();
        session.set_cycle_budget(Some(10_000));
        let err = session.run(&mfcc_like_input(3)).unwrap_err();
        match err {
            BuildError::Device(d) => {
                assert!(matches!(
                    d.trap,
                    kwt_rv32::Trap::WatchdogExpired { budget: 10_000, .. }
                ));
                assert_eq!(d.image_flavor, Flavor::A8);
                assert!(d.cycles > 10_000);
            }
            other => panic!("expected a device error, got {other}"),
        }
        // the budget is session policy: recover() keeps it armed
        session.recover();
        assert_eq!(session.cycle_budget(), Some(10_000));
        session.set_cycle_budget(None);
        let (logits, _) = session.run(&mfcc_like_input(3)).unwrap();
        let (want, _, _) = image.run(&mfcc_like_input(3)).unwrap();
        assert_eq!(logits, want);
    }

    /// FNV-1a-64 over everything a build decides: text, data, symbols,
    /// the mutable ranges (as a set — their order carries no meaning,
    /// [`InferenceImage::static_ranges`] sorts them), bank usage, the
    /// mailbox addresses, flavour, ISA and platform.
    fn image_digest(img: &InferenceImage) -> u64 {
        let mut h = FNV_OFFSET;
        for w in &img.program.text {
            h = fnv1a64_update(h, &w.to_le_bytes());
        }
        h = fnv1a64_update(h, &img.program.data);
        for (name, addr) in &img.program.symbols {
            h = fnv1a64_update(h, name.as_bytes());
            h = fnv1a64_update(h, &addr.to_le_bytes());
        }
        let mut ranges = img.mutable_ranges.clone();
        ranges.sort_unstable();
        let mut words: Vec<u64> = ranges
            .iter()
            .flat_map(|&(a, l)| [a as u64, l as u64])
            .collect();
        words.extend(
            img.bank_usage
                .iter()
                .flat_map(|&(h, c)| [h as u64, c as u64]),
        );
        words.extend([
            img.input_addr as u64,
            img.logits_addr as u64,
            img.platform.ram_size as u64,
            img.platform.stack_bytes as u64,
        ]);
        for w in words {
            h = fnv1a64_update(h, &w.to_le_bytes());
        }
        // the image header's flavour plus the ISA it implies (only A8
        // uses the custom-2 extension), spelled as when images carried
        // an ISA field so the recorded digests stay comparable
        let isa = if img.flavor == Flavor::A8 {
            "Xkwtdot"
        } else {
            "Rv32im"
        };
        fnv1a64_update(h, format!("{:?}/{isa}", img.flavor).as_bytes())
    }

    /// Every image flavour built from `params`, labelled for the pins.
    fn pinned_builds(params: &KwtParams) -> Vec<(String, InferenceImage)> {
        use kwt_quant::{A8Config, A8Kwt};
        let qm = QuantizedKwt::quantize(params, QuantConfig::paper_best());
        let accel = qm.clone().with_nonlinearity(Nonlinearity::FixedLut);
        let a8 = A8Kwt::quantize(params, A8Config::paper_a8()).unwrap();
        let mut out = vec![(
            "float".to_string(),
            InferenceImage::build_float(params).unwrap(),
        )];
        for model in [&qm, &accel] {
            let img = InferenceImage::build_quant(model).unwrap();
            out.push((format!("{:?}/Rv32im", img.flavor), img));
        }
        let tuned = TunedKernels::embedded();
        for (name, table) in [("a8/tuned", Some(&tuned)), ("a8/generic", None)] {
            let img = InferenceImage::build(ImageSpec::A8(&a8, table), Platform::ibex()).unwrap();
            out.push((name.to_string(), img));
        }
        out
    }

    #[test]
    fn every_image_build_is_pinned() {
        // Digests of every flavour's build, recorded before the three
        // builder bodies were folded into one graph emitter: refactors of
        // the builders must keep every image byte-identical. Depth 2
        // reaches the A8 layer >= 1 shifts and LayerNorm block, which
        // KWT-Tiny (depth 1) never emits. Re-record only for a
        // deliberate image change (the i16 digests were re-recorded twice,
        // when unused parameter words left those images: a 32-byte block,
        // then the last two words of the attention block).
        let tiny = KwtConfig::kwt_tiny();
        let deep = KwtConfig { depth: 2, ..tiny };
        let mut got = Vec::new();
        for (depth, config) in [(1, tiny), (2, deep)] {
            for (name, img) in pinned_builds(&scaled_params(config)) {
                got.push((format!("depth{depth}/{name}"), image_digest(&img)));
            }
        }
        // the cascade verifier's path: an untuned A8 image too large for
        // the paper's 64 kB part, linked against an enlarged platform
        let verifier = KwtConfig {
            depth: 1,
            num_classes: 2,
            ..KwtConfig::kwt1()
        };
        let a8 =
            kwt_quant::A8Kwt::quantize(&scaled_params(verifier), kwt_quant::A8Config::paper_a8())
                .unwrap();
        assert!(matches!(
            InferenceImage::build(ImageSpec::A8(&a8, None), Platform::ibex()),
            Err(BuildError::RamBudget { .. })
        ));
        let big = Platform::ibex_with_ram(1 << 20);
        let img = InferenceImage::build(ImageSpec::A8(&a8, None), big).unwrap();
        got.push((
            "kwt1-depth1/a8/generic@1MiB".to_string(),
            image_digest(&img),
        ));
        let want = [
            ("depth1/float", 0xec6b04d0e146ede8),
            ("depth1/Quantized/Rv32im", 0x70a8f5695ff446c2),
            ("depth1/Accelerated/Rv32im", 0xccd89e7606c2c3d8),
            ("depth1/a8/tuned", 0x3d47424d67f7f295),
            ("depth1/a8/generic", 0xb1f46a2b0c5fef75),
            ("depth2/float", 0xdbe0e9845d1e4ed7),
            ("depth2/Quantized/Rv32im", 0x49f181c134f81a9f),
            ("depth2/Accelerated/Rv32im", 0x199a8fe3ac6bc4d5),
            ("depth2/a8/tuned", 0x78b4f0aaf1d0b4e9),
            ("depth2/a8/generic", 0xf519e6c52c47d6e8),
            ("kwt1-depth1/a8/generic@1MiB", 0x0fceb8a44f7d8a6e),
        ];
        let names: Vec<&str> = got.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, want.map(|(n, _)| n));
        let changed: Vec<String> = got
            .iter()
            .zip(want)
            .filter(|((_, digest), (_, pinned))| digest != pinned)
            .map(|((name, digest), _)| format!("(\"{name}\", {digest:#018x}),"))
            .collect();
        assert!(changed.is_empty(), "images changed: {changed:#?}");
    }

    #[test]
    fn unsupported_shapes_are_rejected_by_every_flavour() {
        use kwt_quant::{A8Config, A8Kwt};
        let tiny = KwtConfig::kwt_tiny();
        let specs_for = |params: &KwtParams, check: &dyn Fn(&str, Result<InferenceImage>)| {
            let qm = QuantizedKwt::quantize(params, QuantConfig::paper_best());
            let a8 = A8Kwt::quantize(params, A8Config::paper_a8()).unwrap();
            let tuned = TunedKernels::embedded();
            for (name, spec) in [
                ("float", ImageSpec::Float(params)),
                ("quant", ImageSpec::Quant(&qm)),
                ("a8", ImageSpec::A8(&a8, Some(&tuned))),
                ("a8/generic", ImageSpec::A8(&a8, None)),
            ] {
                check(name, InferenceImage::build(spec, Platform::ibex()));
            }
        };
        let two_heads = scaled_params(KwtConfig { heads: 2, ..tiny });
        specs_for(&two_heads, &|name, built| {
            assert!(
                matches!(&built, Err(BuildError::Model(m)) if m.contains("heads = 1")),
                "{name}: heads = 2 must be rejected, got {:?}",
                built.map(|i| i.flavor)
            );
        });
        // only the A8 fused attention kernel needs dim_head % 4 == 0
        let odd_head = scaled_params(KwtConfig {
            dim_head: 6,
            ..tiny
        });
        specs_for(&odd_head, &|name, built| {
            if name.starts_with("a8") {
                assert!(
                    matches!(&built, Err(BuildError::Model(m)) if m.contains("dim_head % 4")),
                    "{name}: dim_head = 6 must be rejected, got {:?}",
                    built.map(|i| i.flavor)
                );
            } else {
                assert!(built.is_ok(), "{name}: dim_head = 6 builds");
            }
        });
    }

    #[test]
    fn truncated_luts_trap_and_recover() {
        use kwt_rv32::{FaultPlan, Trap};
        let image = a8_image();
        let x = mfcc_like_input(7);
        let (want, _, _) = image.run(&x).unwrap();
        let mut session = image.session().unwrap();
        session.inject_faults(FaultPlan::new().truncate_luts(0, 2));
        let err = session.run(&x).unwrap_err();
        match err {
            BuildError::Device(d) => {
                assert!(matches!(d.trap, Trap::LutIndexOutOfRange { .. }), "{d}");
            }
            other => panic!("expected a device error, got {other}"),
        }
        let report = session.recover();
        assert!(report.luts_restored);
        assert_eq!(report.banks_dirty, 0, "RAM was never touched");
        let (logits, _) = session.run(&x).unwrap();
        for (a, b) in logits.iter().zip(&want) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}
