//! Fully-INT8 (A8W8) inference: i8 activations at per-stage power-of-two
//! exponents, driving the Xkwtdot `kdot4.i8` packed dot product.
//!
//! The i16-residual scheme of [`crate::QuantizedKwt`] keeps one global
//! activation exponent because the i16 range (±32767) absorbs both the
//! large raw token stream and the fine post-LayerNorm residuals. An i8
//! pipeline has 8× less dynamic range, so this scheme gives **each
//! pipeline stage its own signed power-of-two exponent** ([`A8Config`]):
//! raw MFCC inputs and the pre-LayerNorm token stream may sit at coarse
//! (even negative) exponents while attention probabilities keep seven
//! fractional bits. Every rescale is still a power of two, so the device
//! path stays shift-only (integer matmul epilogues) or a single exact
//! float multiply (quantisation boundaries).
//!
//! [`A8Kwt::forward_a8_into`] is the **host golden model** of the
//! generated `kdot4.i8` device image: every arithmetic step mirrors the
//! device instruction stream exactly —
//!
//! * integer matmuls accumulate in wrapping i32 and narrow through the
//!   device's `ksat.i16` + `kclip 7` epilogue
//!   ([`kwt_tensor::qops::matmul_i8_i8_into`]);
//! * quantisation boundaries mirror `kcvt.h2f` + `kfmul.t` (exact
//!   int→float then a truncating multiply, [`kwt_tensor::softfp::mul`])
//!   and `kfmul.t` + `kcvt.f2h` + `kclip` (truncating multiply, floor,
//!   saturate);
//! * SoftMax and GELU are the Q8.24 LUT pipelines ([`crate::fixed_softmax`],
//!   [`crate::fixed_gelu`]) — the A8 model is **LUT-only** (the paper's
//!   "+Hardware" accelerated flavour), which is what makes a bit-exact
//!   host oracle possible without a soft-float `expf` model;
//! * LayerNorm mirrors the packed `kfadd.t`/`kfsub.t`/`kfmul.t` kernel
//!   op-for-op, with [`kwt_tensor::softfp::rsqrt`] standing in for the
//!   device math library's `rsqrtf` (pinned by a differential test).
//!
//! The bare-metal crate asserts device logits are **bit-identical** to
//! this model across seeds, which is the A8 analogue of the i16 path's
//! scalar-vs-packed differential story: the numerics legitimately differ
//! from the i16 pipeline, so the oracle moves host-side.

use crate::luts::LutSet;
use crate::{fixed_gelu, fixed_softmax, QuantError, Result};
use kwt_model::{KwtConfig, KwtParams};
use kwt_tensor::qops::{self, QuantStats};
use kwt_tensor::{softfp, Mat};

/// Per-stage activation exponents of the A8W8 scheme.
///
/// A tensor at exponent `y` stores a float value `x` as
/// `clamp(floor(x * 2^y))` in `i8`; negative exponents widen the
/// representable range for large-magnitude stages at the cost of
/// resolution. Weights stay at the unsigned `2^weight_bits` of the i16
/// scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct A8Config {
    /// Weight exponent `yw` (weights quantised to `i8` at `2^yw`).
    pub weight_bits: u32,
    /// Raw MFCC input exponent (host-side quantisation; may be negative —
    /// MFCC magnitudes reach the hundreds).
    pub input_bits: i32,
    /// Token/residual stream exponent **before the first LayerNorm**
    /// (patch projection output, class token, positional embeddings,
    /// first attention residual).
    pub stream0_bits: i32,
    /// Residual stream exponent after LayerNorm (post-LN activations are
    /// normalised, so this can be much finer than `stream0_bits`).
    pub stream_bits: i32,
    /// Q/K/V and attention-context exponent.
    pub attn_bits: i32,
    /// Attention score exponent (scores are dequantised for SoftMax
    /// immediately, so this mostly controls pre-SoftMax clipping).
    pub score_bits: i32,
    /// MLP hidden (pre/post GELU) exponent.
    pub hidden_bits: i32,
    /// Attention probability exponent (probabilities live in `[0, 1]`).
    pub prob_bits: i32,
    /// Logit exponent (device logits are read back as `i8 / 2^logit_bits`).
    pub logit_bits: i32,
}

impl A8Config {
    /// The tuned default, calibrated against the i16 quant path on the
    /// synthetic GSC binary task (top-1 agreement 99.9 % over 900
    /// train/val/test clips): weight scale 64 like Table V's best row, a
    /// half-scale input exponent absorbing the MFCC range (≈ ±64 on the
    /// synth set), a coarse pre-LayerNorm stream, and fine exponents for
    /// the normalised stages.
    pub fn paper_a8() -> Self {
        A8Config {
            weight_bits: 6,
            input_bits: -1,
            stream0_bits: 2,
            stream_bits: 4,
            attn_bits: 2,
            score_bits: 3,
            hidden_bits: 3,
            prob_bits: 7,
            logit_bits: 2,
        }
    }

    /// The raw-feature input exponent: float MFCC features are
    /// quantised to the device's `i8` input at `2^input_exponent`. Its
    /// one reader is the bare-metal session's input path
    /// (`kwt_baremetal`'s `write_clip_input`), the only place A8
    /// features are quantised.
    pub fn input_exponent(&self) -> i32 {
        self.input_bits
    }

    /// Derives every shift and float scale constant of the pipeline,
    /// validating that each integer epilogue shift lands in `[0, 31]`
    /// (the device `ksat.i16` shift operand).
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::Model`] if any derived shift is out of
    /// range.
    pub fn consts(&self, config: &KwtConfig) -> Result<A8Consts> {
        let yw = self.weight_bits as i32;
        let shift = |name: &str, v: i32| -> Result<u32> {
            if (0..32).contains(&v) {
                Ok(v as u32)
            } else {
                Err(QuantError::Model(format!(
                    "A8 shift `{name}` = {v} out of the device range [0, 31]"
                )))
            }
        };
        let bits = |y: i32| ((y as f64).exp2() as f32).to_bits();
        let inv_bits = |y: i32| ((-(y as f64)).exp2() as f32).to_bits();
        let inv_sqrt_dh = 1.0 / (config.dim_head as f32).sqrt();
        let score_deq = f32::from_bits(inv_bits(self.score_bits)) * inv_sqrt_dh;
        Ok(A8Consts {
            shift_proj: shift("proj", self.input_bits + yw - self.stream0_bits)?,
            shift_qkv0: shift("qkv (layer 0)", self.stream0_bits + yw - self.attn_bits)?,
            shift_qkv: shift("qkv", self.stream_bits + yw - self.attn_bits)?,
            shift_scores: shift("scores", 2 * self.attn_bits - self.score_bits)?,
            shift_ctx: shift("context", self.prob_bits)?,
            shift_out0: shift(
                "out-proj (layer 0)",
                self.attn_bits + yw - self.stream0_bits,
            )?,
            shift_out: shift("out-proj", self.attn_bits + yw - self.stream_bits)?,
            shift_mlp1: shift("mlp1", self.stream_bits + yw - self.hidden_bits)?,
            shift_mlp2: shift("mlp2", self.hidden_bits + yw - self.stream_bits)?,
            shift_head: shift("head", self.stream_bits + yw - self.logit_bits)?,
            score_deq_bits: score_deq.to_bits(),
            prob_req_bits: bits(self.prob_bits),
            ln_deq0_bits: inv_bits(self.stream0_bits),
            ln_deq_bits: inv_bits(self.stream_bits),
            ln_req_bits: bits(self.stream_bits),
            gelu_deq_bits: inv_bits(self.hidden_bits),
            gelu_req_bits: bits(self.hidden_bits),
            inv_n_bits: (1.0 / config.dim as f32).to_bits(),
            eps_bits: config.ln_eps.to_bits(),
            logit_scale: f32::from_bits(inv_bits(self.logit_bits)),
        })
    }
}

impl Default for A8Config {
    fn default() -> Self {
        Self::paper_a8()
    }
}

/// Every derived constant of one A8 pipeline: integer epilogue shifts
/// and the f32 bit patterns of the quantisation-boundary scale factors.
///
/// Host golden model and bare-metal image builder both read these, so
/// the two sides can never disagree on a constant.
#[derive(Debug, Clone, Copy)]
#[allow(missing_docs)]
pub struct A8Consts {
    pub shift_proj: u32,
    pub shift_qkv0: u32,
    pub shift_qkv: u32,
    pub shift_scores: u32,
    pub shift_ctx: u32,
    pub shift_out0: u32,
    pub shift_out: u32,
    pub shift_mlp1: u32,
    pub shift_mlp2: u32,
    pub shift_head: u32,
    /// Folded score dequantisation: `2^-score_bits / sqrt(dim_head)`.
    pub score_deq_bits: u32,
    pub prob_req_bits: u32,
    pub ln_deq0_bits: u32,
    pub ln_deq_bits: u32,
    pub ln_req_bits: u32,
    pub gelu_deq_bits: u32,
    pub gelu_req_bits: u32,
    pub inv_n_bits: u32,
    pub eps_bits: u32,
    /// `2^-logit_bits` — multiply read-back i8 logits by this.
    pub logit_scale: f32,
}

/// One A8-quantised transformer block.
#[derive(Debug, Clone)]
struct A8Layer {
    w_qkv: Mat<i8>,
    b_qkv: Vec<i32>,
    w_out: Mat<i8>,
    b_out: Vec<i32>,
    ln1_gamma: Vec<f32>,
    ln1_beta: Vec<f32>,
    w_mlp1: Mat<i8>,
    b_mlp1: Vec<i32>,
    w_mlp2: Mat<i8>,
    b_mlp2: Vec<i32>,
    ln2_gamma: Vec<f32>,
    ln2_beta: Vec<f32>,
}

/// Reusable activation arena for [`A8Kwt::forward_a8_into`].
#[derive(Debug, Clone, Default)]
pub struct A8Scratch {
    x_q: Mat<i8>,
    tokens: Mat<i8>,
    x: Mat<i8>,
    qkv: Mat<i8>,
    q: Vec<Mat<i8>>,
    k: Vec<Mat<i8>>,
    v: Vec<Mat<i8>>,
    score8: Vec<i8>,
    rowf: Vec<f32>,
    sa: Mat<i8>,
    attn: Mat<i8>,
    hidden: Mat<i8>,
    mlp_out: Mat<i8>,
    cls: Mat<i8>,
    logits_q: Mat<i8>,
}

/// The A8W8 model: i8 weights *and* i8 activations, LUT non-linearities.
///
/// Built straight from trained float parameters — weights quantise
/// identically to [`crate::QuantizedKwt`] (same `2^weight_bits` floor
/// rule), but biases, the class token and the positional embeddings are
/// requantised at the A8 per-stage exponents.
#[derive(Debug, Clone)]
pub struct A8Kwt {
    /// Architecture hyper-parameters.
    pub config: KwtConfig,
    /// The per-stage exponents.
    pub a8: A8Config,
    /// Derived shifts and scale constants (shared with the image builder).
    pub consts: A8Consts,
    w_proj: Mat<i8>,
    b_proj: Vec<i32>,
    pos_emb: Mat<i8>,
    class_token: Vec<i8>,
    layers: Vec<A8Layer>,
    w_head: Mat<i8>,
    b_head: Vec<i32>,
    luts: LutSet,
}

/// `floor(v * 2^y)` for a possibly negative exponent, saturated to i32 —
/// the A8 bias quantiser (biases sit at the combined input×weight scale).
fn quant_bias_a8(b: &[f32], combined: i32) -> Vec<i32> {
    let scale = (combined as f64).exp2() as f32;
    b.iter()
        .map(|&v| (v * scale).floor().clamp(i32::MIN as f32, i32::MAX as f32) as i32)
        .collect()
}

/// Host mirror of the device requantisation boundary: `kfmul.t` by the
/// scale (truncating), `kcvt.f2h` shift-0 (floor, saturate to i16), then
/// `kclip 7` (clamp to i8). Saturations are counted like the integer
/// kernels'.
fn requant8(bits: u32, scale_bits: u32, stats: &mut QuantStats) -> i8 {
    let prod_bits = softfp::mul(bits, scale_bits);
    let prod = f32::from_bits(prod_bits);
    let wide: i32 = if prod.is_nan() {
        if prod_bits >> 31 == 0 {
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
    let wide = wide.clamp(-32768, 32767);
    if !(-128..=127).contains(&wide) {
        stats.saturations += 1;
    }
    wide.clamp(-128, 127) as i8
}

/// Host mirror of the device dequantisation boundary: `kcvt.h2f` shift-0
/// (exact int→float) then `kfmul.t` by the scale.
fn dequant8(v: i8, scale_bits: u32) -> f32 {
    f32::from_bits(softfp::mul((v as f32).to_bits(), scale_bits))
}

/// Copies a `width`-column slice of `src` starting at `start` into `dst`.
fn copy_columns_into(src: &Mat<i8>, start: usize, width: usize, dst: &mut Mat<i8>) {
    dst.resize(src.rows(), width);
    for r in 0..src.rows() {
        dst.row_mut(r)
            .copy_from_slice(&src.row(r)[start..start + width]);
    }
}

impl A8Kwt {
    /// Quantises trained float parameters into the A8W8 scheme.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::Model`] if the exponent configuration
    /// produces an out-of-range device shift.
    pub fn quantize(params: &KwtParams, a8: A8Config) -> Result<Self> {
        let consts = a8.consts(&params.config)?;
        let yw = a8.weight_bits;
        let layers = params
            .layers
            .iter()
            .enumerate()
            .map(|(idx, l)| {
                let stream = if idx == 0 {
                    a8.stream0_bits
                } else {
                    a8.stream_bits
                };
                A8Layer {
                    w_qkv: qops::quantize_i8(&l.w_qkv, yw).0,
                    b_qkv: quant_bias_a8(&l.b_qkv, stream + yw as i32),
                    w_out: qops::quantize_i8(&l.w_out, yw).0,
                    b_out: quant_bias_a8(&l.b_out, a8.attn_bits + yw as i32),
                    ln1_gamma: l.ln1_gamma.clone(),
                    ln1_beta: l.ln1_beta.clone(),
                    w_mlp1: qops::quantize_i8(&l.w_mlp1, yw).0,
                    b_mlp1: quant_bias_a8(&l.b_mlp1, a8.stream_bits + yw as i32),
                    w_mlp2: qops::quantize_i8(&l.w_mlp2, yw).0,
                    b_mlp2: quant_bias_a8(&l.b_mlp2, a8.hidden_bits + yw as i32),
                    ln2_gamma: l.ln2_gamma.clone(),
                    ln2_beta: l.ln2_beta.clone(),
                }
            })
            .collect();
        Ok(A8Kwt {
            config: params.config,
            a8,
            consts,
            w_proj: qops::quantize_i8(&params.w_proj, yw).0,
            b_proj: quant_bias_a8(&params.b_proj, a8.input_bits + yw as i32),
            pos_emb: {
                let mut m = Mat::default();
                qops::quantize_i8_scaled_into(&params.pos_emb, a8.stream0_bits, &mut m);
                m
            },
            class_token: qops::quantize_slice_i8_scaled(&params.class_token, a8.stream0_bits).0,
            layers,
            w_head: qops::quantize_i8(&params.w_head, yw).0,
            b_head: quant_bias_a8(&params.b_head, a8.stream_bits + yw as i32),
            luts: LutSet::new(),
        })
    }

    /// Replaces the LUT set (threshold experiments).
    pub fn with_luts(mut self, luts: LutSet) -> Self {
        self.luts = luts;
        self
    }

    /// The LUT ROM of the SoftMax/GELU pipelines.
    pub fn luts(&self) -> &LutSet {
        &self.luts
    }

    /// Borrowed views of the top-level tensors, for the bare-metal image
    /// builder: `(w_proj, b_proj, pos_emb, class_token, w_head, b_head)`.
    #[allow(clippy::type_complexity)]
    pub fn tensors(&self) -> (&Mat<i8>, &[i32], &Mat<i8>, &[i8], &Mat<i8>, &[i32]) {
        (
            &self.w_proj,
            &self.b_proj,
            &self.pos_emb,
            &self.class_token,
            &self.w_head,
            &self.b_head,
        )
    }

    /// Borrowed views of one layer's tensors, in the same order as
    /// [`crate::QuantizedKwt::layer_tensors`].
    ///
    /// # Panics
    ///
    /// Panics if `idx >= depth`.
    #[allow(clippy::type_complexity)]
    pub fn layer_tensors(
        &self,
        idx: usize,
    ) -> (
        &Mat<i8>,
        &[i32],
        &Mat<i8>,
        &[i32],
        &[f32],
        &[f32],
        &Mat<i8>,
        &[i32],
        &Mat<i8>,
        &[i32],
        &[f32],
        &[f32],
    ) {
        let l = &self.layers[idx];
        (
            &l.w_qkv,
            &l.b_qkv,
            &l.w_out,
            &l.b_out,
            &l.ln1_gamma,
            &l.ln1_beta,
            &l.w_mlp1,
            &l.b_mlp1,
            &l.w_mlp2,
            &l.b_mlp2,
            &l.ln2_gamma,
            &l.ln2_beta,
        )
    }

    /// A8 inference returning float logits (`i8 logits / 2^logit_bits`).
    ///
    /// # Errors
    ///
    /// Same contract as [`forward_a8_into`](Self::forward_a8_into).
    pub fn forward_a8(&self, mfcc: &Mat<f32>) -> Result<(Vec<f32>, QuantStats)> {
        let mut logits = Vec::new();
        let stats = self.forward_a8_into(mfcc, &mut A8Scratch::default(), &mut logits)?;
        Ok((logits, stats))
    }

    /// Arg-max class prediction.
    ///
    /// # Errors
    ///
    /// Same contract as [`forward_a8_into`](Self::forward_a8_into).
    pub fn predict_a8(&self, mfcc: &Mat<f32>) -> Result<usize> {
        let (logits, _) = self.forward_a8(mfcc)?;
        Ok(logits
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite logits"))
            .map(|(i, _)| i)
            .expect("num_classes > 0"))
    }

    /// The single implementation of A8 inference — the host golden model
    /// the device image is differentially tested against (see the module
    /// docs for the instruction-level correspondence).
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::Model`] for a wrong input shape.
    pub fn forward_a8_into(
        &self,
        mfcc: &Mat<f32>,
        s: &mut A8Scratch,
        logits_out: &mut Vec<f32>,
    ) -> Result<QuantStats> {
        let c = &self.config;
        if mfcc.shape() != (c.input_time, c.input_freq) {
            return Err(QuantError::Model(format!(
                "input shape {:?} does not match configured ({}, {})",
                mfcc.shape(),
                c.input_time,
                c.input_freq
            )));
        }
        let k = &self.consts;
        let mut stats = QuantStats::default();
        let section = c.heads * c.dim_head;
        s.q.resize(c.heads, Mat::default());
        s.k.resize(c.heads, Mat::default());
        s.v.resize(c.heads, Mat::default());

        // 1. Quantise the MFCC input (host side on the device too).
        stats.merge(qops::quantize_i8_scaled_into(
            mfcc,
            self.a8.input_bits,
            &mut s.x_q,
        ));

        // 2. Patch projection, class token, positional embeddings — all
        // at the stream0 exponent.
        stats.merge(qops::matmul_i8_i8_into(
            &s.x_q,
            &self.w_proj,
            Some(&self.b_proj),
            k.shift_proj,
            &mut s.tokens,
        )?);
        s.x.resize(c.seqlen(), c.dim);
        s.x.row_mut(0).copy_from_slice(&self.class_token);
        for t in 0..s.tokens.rows() {
            let row = s.tokens.row(t);
            s.x.row_mut(t + 1).copy_from_slice(row);
        }
        stats.merge(qops::add_assign_sat_i8(&mut s.x, &self.pos_emb)?);

        // 3. Transformer blocks.
        for (idx, layer) in self.layers.iter().enumerate() {
            let first = idx == 0;
            let (shift_qkv, shift_out, ln1_deq) = if first {
                (k.shift_qkv0, k.shift_out0, k.ln_deq0_bits)
            } else {
                (k.shift_qkv, k.shift_out, k.ln_deq_bits)
            };
            stats.merge(qops::matmul_i8_i8_into(
                &s.x,
                &layer.w_qkv,
                Some(&layer.b_qkv),
                shift_qkv,
                &mut s.qkv,
            )?);
            for h in 0..c.heads {
                copy_columns_into(&s.qkv, h * c.dim_head, c.dim_head, &mut s.q[h]);
                copy_columns_into(&s.qkv, section + h * c.dim_head, c.dim_head, &mut s.k[h]);
                copy_columns_into(
                    &s.qkv,
                    2 * section + h * c.dim_head,
                    c.dim_head,
                    &mut s.v[h],
                );
            }

            // Fused per-row attention pipeline: scores → LUT softmax →
            // context, mirroring the device's `attention_a8` kernel.
            s.sa.resize(c.seqlen(), section);
            for h in 0..c.heads {
                stats.merge(self.attention_rows(
                    &s.q[h],
                    &s.k[h],
                    &s.v[h],
                    h * c.dim_head,
                    &mut s.sa,
                    &mut s.score8,
                    &mut s.rowf,
                ));
            }

            stats.merge(qops::matmul_i8_i8_into(
                &s.sa,
                &layer.w_out,
                Some(&layer.b_out),
                shift_out,
                &mut s.attn,
            )?);
            stats.merge(qops::add_assign_sat_i8(&mut s.x, &s.attn)?);

            // LayerNorm 1: stream0/stream → stream exponent.
            stats.merge(self.layer_norm_rows(
                &mut s.x,
                &layer.ln1_gamma,
                &layer.ln1_beta,
                ln1_deq,
                k.ln_req_bits,
            ));

            // MLP with the fused LUT-GELU boundary.
            stats.merge(qops::matmul_i8_i8_into(
                &s.x,
                &layer.w_mlp1,
                Some(&layer.b_mlp1),
                k.shift_mlp1,
                &mut s.hidden,
            )?);
            for v in s.hidden.as_mut_slice() {
                let f = dequant8(*v, k.gelu_deq_bits);
                let g = fixed_gelu(f, &self.luts);
                *v = requant8(g.to_bits(), k.gelu_req_bits, &mut stats);
            }
            stats.merge(qops::matmul_i8_i8_into(
                &s.hidden,
                &layer.w_mlp2,
                Some(&layer.b_mlp2),
                k.shift_mlp2,
                &mut s.mlp_out,
            )?);
            stats.merge(qops::add_assign_sat_i8(&mut s.x, &s.mlp_out)?);

            // LayerNorm 2: stream → stream.
            stats.merge(self.layer_norm_rows(
                &mut s.x,
                &layer.ln2_gamma,
                &layer.ln2_beta,
                k.ln_deq_bits,
                k.ln_req_bits,
            ));
        }

        // 4. Head on the class token.
        s.cls.resize(1, c.dim);
        s.cls.row_mut(0).copy_from_slice(s.x.row(0));
        stats.merge(qops::matmul_i8_i8_into(
            &s.cls,
            &self.w_head,
            Some(&self.b_head),
            k.shift_head,
            &mut s.logits_q,
        )?);
        logits_out.clear();
        logits_out.extend(
            s.logits_q
                .as_slice()
                .iter()
                .map(|&v| v as f32 * k.logit_scale),
        );
        Ok(stats)
    }

    /// One head's fused row pipeline: for every query row, integer
    /// scores (wrapping i32, `ksat`+`kclip` epilogue), the folded
    /// dequantise-and-scale (`kcvt.h2f` + one `kfmul.t` by
    /// `2^-score_bits / sqrt(dh)`), the LUT SoftMax, probability
    /// requantisation, and the integer context product — writing the
    /// head's column block of `sa`.
    #[allow(clippy::too_many_arguments)]
    fn attention_rows(
        &self,
        q: &Mat<i8>,
        kk: &Mat<i8>,
        v: &Mat<i8>,
        col0: usize,
        sa: &mut Mat<i8>,
        score8: &mut Vec<i8>,
        rowf: &mut Vec<f32>,
    ) -> QuantStats {
        let kc = &self.consts;
        let s_len = q.rows();
        let dh = q.cols();
        let mut stats = QuantStats::default();
        score8.resize(s_len, 0);
        rowf.resize(s_len, 0.0);
        for i in 0..s_len {
            let qrow = q.row(i);
            // scores_row = K · q_row, narrowed to i8 at the score scale
            for (j, sc) in score8.iter_mut().enumerate() {
                let krow = kk.row(j);
                let mut acc: i32 = 0;
                for (a, b) in qrow.iter().zip(krow) {
                    acc = acc.wrapping_add(*a as i32 * *b as i32);
                }
                stats.max_abs_acc = stats.max_abs_acc.max((acc as i64).abs());
                let narrowed = (acc >> kc.shift_scores).clamp(-128, 127);
                if narrowed != acc >> kc.shift_scores {
                    stats.saturations += 1;
                }
                *sc = narrowed as i8;
            }
            // dequantise + 1/sqrt(dh) in one truncating multiply
            for (f, &sc) in rowf.iter_mut().zip(score8.iter()) {
                *f = dequant8(sc, kc.score_deq_bits);
            }
            // Q8.24 LUT softmax (bit-exact vs the device `softmax_accel`)
            let probs = fixed_softmax(rowf, &self.luts);
            // requantise probabilities to i8
            for (p8, &p) in score8.iter_mut().zip(&probs) {
                *p8 = requant8(p.to_bits(), kc.prob_req_bits, &mut stats);
            }
            // context row: out[j] = (Σ_l V[l, j] · p8[l]) >> prob_bits
            let out_row = &mut sa.row_mut(i)[col0..col0 + dh];
            for (j, o) in out_row.iter_mut().enumerate() {
                let mut acc: i32 = 0;
                for (l, &p8) in score8.iter().enumerate() {
                    acc = acc.wrapping_add(v[(l, j)] as i32 * p8 as i32);
                }
                stats.max_abs_acc = stats.max_abs_acc.max((acc as i64).abs());
                let narrowed = (acc >> kc.shift_ctx).clamp(-128, 127);
                if narrowed != acc >> kc.shift_ctx {
                    stats.saturations += 1;
                }
                *o = narrowed as i8;
            }
        }
        stats
    }

    /// Host mirror of the device's fused `ln_a8` kernel: per row, the
    /// packed-LayerNorm float sequence (`kfadd`/`kfsub`/`kfmul` +
    /// `rsqrtf`) over on-the-fly dequantised elements, requantising the
    /// result straight back to i8.
    fn layer_norm_rows(
        &self,
        x: &mut Mat<i8>,
        gamma: &[f32],
        beta: &[f32],
        deq_bits: u32,
        req_bits: u32,
    ) -> QuantStats {
        let kc = &self.consts;
        let mut stats = QuantStats::default();
        for r in 0..x.rows() {
            let row = x.row_mut(r);
            // pass 1: sum → mean (truncating adds in element order)
            let mut sum = 0u32; // +0.0
            for &v in row.iter() {
                sum = softfp::add(dequant8(v, deq_bits).to_bits(), sum);
            }
            let mean = softfp::mul(sum, kc.inv_n_bits);
            // pass 2: Σ (x - mean)² → variance → inv_std
            let mut acc = 0u32;
            for &v in row.iter() {
                let d = softfp::sub(dequant8(v, deq_bits).to_bits(), mean);
                acc = softfp::add(softfp::mul(d, d), acc);
            }
            let var_eps = softfp::add(softfp::mul(acc, kc.inv_n_bits), kc.eps_bits);
            let inv_std = softfp::rsqrt(var_eps);
            // pass 3: normalise, scale, shift, requantise
            for (v, (&g, &b)) in row.iter_mut().zip(gamma.iter().zip(beta)) {
                let mut t = softfp::sub(dequant8(*v, deq_bits).to_bits(), mean);
                t = softfp::mul(t, inv_std);
                t = softfp::mul(t, g.to_bits());
                t = softfp::add(t, b.to_bits());
                *v = requant8(t, req_bits, &mut stats);
            }
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trained_ish_params() -> KwtParams {
        let mut p = KwtParams::init(KwtConfig::kwt_tiny(), 21).unwrap();
        p.visit_mut(|s| {
            for v in s {
                *v *= 0.7;
            }
        });
        p
    }

    /// MFCC-shaped test inputs: a large positive first cepstral
    /// coefficient and decaying higher coefficients, matching the range
    /// the exponents were calibrated on (the synthetic GSC front end
    /// produces values in roughly `[-7, 65]`).
    fn input(seed: u64) -> Mat<f32> {
        Mat::from_fn(26, 16, |r, c| {
            let h = seed
                .wrapping_add((r * 16 + c) as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let u = (h >> 40) as f32 / (1u64 << 24) as f32 - 0.5; // [-0.5, 0.5]
            if c == 0 {
                35.0 + 50.0 * u
            } else {
                u * 16.0 / (1.0 + c as f32 * 0.4)
            }
        })
    }

    #[test]
    fn consts_validate_shift_ranges() {
        let c = KwtConfig::kwt_tiny();
        assert!(A8Config::paper_a8().consts(&c).is_ok());
        // prob_bits drives the context shift; a negative one must be
        // rejected, as must a huge weight exponent pushing shifts past 31.
        let bad = A8Config {
            prob_bits: -1,
            ..A8Config::paper_a8()
        };
        assert!(bad.consts(&c).is_err());
        let bad = A8Config {
            weight_bits: 31,
            ..A8Config::paper_a8()
        };
        assert!(bad.consts(&c).is_err());
    }

    #[test]
    fn reused_scratch_matches_fresh_scratch() {
        let params = trained_ish_params();
        let qm = A8Kwt::quantize(&params, A8Config::paper_a8()).unwrap();
        let mut reused = A8Scratch::default();
        let mut logits_reused = Vec::new();
        for seed in 0..8 {
            let x = input(seed + 70);
            let stats_reused = qm
                .forward_a8_into(&x, &mut reused, &mut logits_reused)
                .unwrap();
            let (logits_fresh, stats_fresh) = qm.forward_a8(&x).unwrap();
            assert_eq!(logits_reused, logits_fresh, "seed {seed}");
            assert_eq!(stats_reused, stats_fresh, "seed {seed}");
        }
    }

    #[test]
    fn a8_tracks_the_i16_quant_path() {
        // The A8 numerics legitimately differ from the i16 pipeline, but
        // arg-max decisions must agree on the large majority of inputs.
        let params = trained_ish_params();
        let a8 = A8Kwt::quantize(&params, A8Config::paper_a8()).unwrap();
        let i16 = crate::QuantizedKwt::quantize(&params, crate::QuantConfig::paper_best());
        let mut agree = 0;
        for seed in 0..20 {
            let x = input(seed);
            if a8.predict_a8(&x).unwrap() == i16.predict(&x).unwrap() {
                agree += 1;
            }
        }
        assert!(agree >= 18, "only {agree}/20 argmax agreement");
    }

    #[test]
    fn wrong_shape_rejected() {
        let params = trained_ish_params();
        let qm = A8Kwt::quantize(&params, A8Config::paper_a8()).unwrap();
        assert!(matches!(
            qm.forward_a8(&Mat::zeros(16, 26)),
            Err(QuantError::Model(_))
        ));
    }

    #[test]
    fn forward_reports_stats_and_logits() {
        let params = trained_ish_params();
        let qm = A8Kwt::quantize(&params, A8Config::paper_a8()).unwrap();
        let (logits, stats) = qm.forward_a8(&input(3)).unwrap();
        assert_eq!(logits.len(), 2);
        assert!(stats.max_abs_acc > 0);
        assert!(logits.iter().all(|l| l.is_finite()));
    }
}
