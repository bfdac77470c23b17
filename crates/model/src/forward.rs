//! The float inference pass (paper Fig. 1).
//!
//! Three entry points share one implementation ([`forward_into`]):
//!
//! * [`forward`] — convenience path: packs the weight matrices on the fly
//!   (cheap relative to the matmuls) and runs the blocked kernels.
//! * [`forward_with`] — amortised path: takes
//!   [`PackedKwtWeights`](crate::PackedKwtWeights) produced once by
//!   [`KwtParams::pack_weights`] at model-load time, so repeated inference
//!   never re-packs.
//! * [`forward_into`] — the steady-state hot path: additionally threads a
//!   reusable [`Scratch`] arena holding every intermediate activation and
//!   writes the logits into a caller buffer, so repeated inference
//!   performs **no heap allocation** (the engine crate asserts this with
//!   an allocation-counting test).
//!
//! All three produce bit-identical logits: the wrappers only differ in
//! who owns the packed weights and the activation arena.

use crate::{KwtConfig, KwtParams, ModelError, PackedKwtWeights, Result};
use kwt_tensor::packed::{matrix_multiply_packed_into, Epilogue};
use kwt_tensor::{ops, Mat};

/// Reusable activation arena for [`forward_into`]: every intermediate of
/// one inference pass, sized for one model configuration.
///
/// Buffers are resized in place by the `_into` kernels, so a scratch built
/// for one config can even be reused across configs — it simply regrows on
/// the first pass. A fresh scratch and a heavily reused one produce
/// bit-identical logits (the buffers carry no state between calls; every
/// element is overwritten before it is read).
#[derive(Debug, Clone, Default)]
pub struct Scratch {
    tokens: Mat<f32>,
    x: Mat<f32>,
    qkv: Mat<f32>,
    /// Attention work: one head's `Kᵀ` and a row of scores.
    attn_work: Mat<f32>,
    sa: Mat<f32>,
    hidden: Mat<f32>,
    cls: Mat<f32>,
    logits: Mat<f32>,
}

impl Scratch {
    /// Pre-allocates every buffer for `config`, so even the first
    /// [`forward_into`] call allocates nothing.
    pub fn new(config: &KwtConfig) -> Self {
        let (s, t) = (config.seqlen(), config.input_time);
        let inner = config.heads * config.dim_head;
        Scratch {
            tokens: Mat::zeros(t, config.dim),
            x: Mat::zeros(s, config.dim),
            qkv: Mat::zeros(s, 3 * inner),
            attn_work: Mat::zeros(config.dim_head + 1, s),
            sa: Mat::zeros(s, inner),
            hidden: Mat::zeros(s, config.mlp_dim),
            cls: Mat::zeros(1, config.dim),
            logits: Mat::zeros(1, config.num_classes),
        }
    }
}

/// Runs one inference pass, returning the raw class logits.
///
/// Pipeline (paper Fig. 1, post-norm):
///
/// 1. project each time-frame patch: `tokens = X W0 + b0`
/// 2. prepend the class token, add positional embeddings
/// 3. per block: `x = LN1(x + W_out · SA(QKV(x)))`, then
///    `x = LN2(x + MLP(x))` with a GELU inside the MLP (eq. 6)
/// 4. logits = class-token row × head matrix (eq. 8)
///
/// Packs the weights on the fly; use [`forward_with`] to amortise packing
/// across calls.
///
/// # Errors
///
/// Returns [`ModelError::InputShape`] if `mfcc` is not
/// `input_time x input_freq`, or a propagated kernel error if the
/// parameter tensors are inconsistent.
pub fn forward(params: &KwtParams, mfcc: &Mat<f32>) -> Result<Vec<f32>> {
    let packed = params.pack_weights();
    forward_with(params, &packed, mfcc)
}

/// [`forward`] over weights packed once by [`KwtParams::pack_weights`] —
/// the amortised fast path for repeated inference.
///
/// # Errors
///
/// Same contract as [`forward`]; additionally propagates a shape error if
/// `packed` was produced from differently-shaped parameters.
pub fn forward_with(
    params: &KwtParams,
    packed: &PackedKwtWeights,
    mfcc: &Mat<f32>,
) -> Result<Vec<f32>> {
    let mut logits = Vec::new();
    forward_into(params, packed, mfcc, &mut Scratch::default(), &mut logits)?;
    Ok(logits)
}

/// The single implementation behind [`forward`] and [`forward_with`]: runs
/// one inference pass over pre-packed weights, keeping every intermediate
/// activation in the caller's [`Scratch`] arena and writing the logits
/// into `logits_out` (cleared first; capacity is reused).
///
/// Steady-state calls perform no heap allocation: all buffers are resized
/// in place within their existing capacity.
///
/// # Errors
///
/// Same contract as [`forward_with`].
pub fn forward_into(
    params: &KwtParams,
    packed: &PackedKwtWeights,
    mfcc: &Mat<f32>,
    scratch: &mut Scratch,
    logits_out: &mut Vec<f32>,
) -> Result<()> {
    let c = &params.config;
    if mfcc.shape() != (c.input_time, c.input_freq) {
        return Err(ModelError::InputShape {
            expected: (c.input_time, c.input_freq),
            got: mfcc.shape(),
        });
    }
    if packed.layers.len() != params.layers.len() {
        return Err(ModelError::InvalidConfig {
            field: "packed_weights",
            why: format!(
                "packed weights hold {} layers but the parameters have {} — \
                 re-pack with KwtParams::pack_weights after changing the model",
                packed.layers.len(),
                params.layers.len()
            ),
        });
    }

    // 1. Patch projection: T x F -> T x dim.
    ops::linear_packed_into(mfcc, &packed.w_proj, &params.b_proj, &mut scratch.tokens)?;

    // 2. Class token + positional embeddings: S x dim, S = T + 1.
    scratch.x.resize(c.seqlen(), c.dim);
    scratch.x.row_mut(0).copy_from_slice(&params.class_token);
    for t in 0..scratch.tokens.rows() {
        let row = scratch.tokens.row(t);
        scratch.x.row_mut(t + 1).copy_from_slice(row);
    }
    ops::add_assign(&mut scratch.x, &params.pos_emb)?;

    // 3. Transformer blocks (post-norm).
    for (layer, pl) in params.layers.iter().zip(&packed.layers) {
        // Self-attention branch.
        ops::linear_packed_into(&scratch.x, &pl.w_qkv, &layer.b_qkv, &mut scratch.qkv)?;
        ops::multi_head_attention_into(
            &scratch.qkv,
            c.heads,
            c.dim_head,
            &mut scratch.attn_work,
            &mut scratch.sa,
        )?;
        // x += SA W_out + b_out, in the GEMM's epilogue
        let residual = Epilogue::BiasResidual(&layer.b_out);
        matrix_multiply_packed_into(&scratch.sa, &pl.w_out, residual, &mut scratch.x)?;
        ops::layer_norm_rows(&mut scratch.x, &layer.ln1_gamma, &layer.ln1_beta, c.ln_eps)?;

        // MLP branch (eq. 6): GELU(x W1 + b1) W2 + b2.
        ops::linear_packed_into(&scratch.x, &pl.w_mlp1, &layer.b_mlp1, &mut scratch.hidden)?;
        ops::gelu(scratch.hidden.as_mut_slice());
        let residual = Epilogue::BiasResidual(&layer.b_mlp2);
        matrix_multiply_packed_into(&scratch.hidden, &pl.w_mlp2, residual, &mut scratch.x)?;
        ops::layer_norm_rows(&mut scratch.x, &layer.ln2_gamma, &layer.ln2_beta, c.ln_eps)?;
    }

    // 4. Classification head on the class token.
    scratch.cls.resize(1, c.dim);
    scratch.cls.row_mut(0).copy_from_slice(scratch.x.row(0));
    ops::linear_packed_into(
        &scratch.cls,
        &packed.w_head,
        &params.b_head,
        &mut scratch.logits,
    )?;
    logits_out.clear();
    logits_out.extend_from_slice(scratch.logits.as_slice());
    Ok(())
}

/// Softmax over logits — the class probability vector.
///
/// # Errors
///
/// Returns [`ModelError::InvalidLogits`] if `logits` is empty or contains
/// a non-finite value (either would silently softmax to NaN
/// probabilities).
pub fn softmax_probs(logits: &[f32]) -> Result<Vec<f32>> {
    let mut p = Vec::new();
    softmax_probs_into(logits, &mut p)?;
    Ok(p)
}

/// [`softmax_probs`] into a caller-provided vector (cleared first;
/// capacity is reused, so steady-state calls allocate nothing).
///
/// # Errors
///
/// Same contract as [`softmax_probs`].
pub fn softmax_probs_into(logits: &[f32], out: &mut Vec<f32>) -> Result<()> {
    if logits.is_empty() {
        return Err(ModelError::InvalidLogits {
            why: "empty logit vector".into(),
        });
    }
    if let Some(i) = logits.iter().position(|v| !v.is_finite()) {
        return Err(ModelError::InvalidLogits {
            why: format!("logit {i} is {} (not finite)", logits[i]),
        });
    }
    out.clear();
    out.extend_from_slice(logits);
    ops::softmax_normalized(out)?;
    Ok(())
}

/// Runs [`forward`] and returns the arg-max class index.
///
/// # Errors
///
/// Propagates [`forward`] errors.
pub fn predict(params: &KwtParams, mfcc: &Mat<f32>) -> Result<usize> {
    let logits = forward(params, mfcc)?;
    Ok(argmax(&logits))
}

/// [`predict`] over pre-packed weights — the amortised counterpart, used
/// by batch evaluation.
///
/// # Errors
///
/// Propagates [`forward_with`] errors.
pub fn predict_with(
    params: &KwtParams,
    packed: &PackedKwtWeights,
    mfcc: &Mat<f32>,
) -> Result<usize> {
    let logits = forward_with(params, packed, mfcc)?;
    Ok(argmax(&logits))
}

fn argmax(logits: &[f32]) -> usize {
    logits
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).expect("logits are finite"))
        .map(|(i, _)| i)
        .expect("num_classes > 0 enforced by config validation")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::KwtConfig;

    fn tiny() -> KwtParams {
        KwtParams::init(KwtConfig::kwt_tiny(), 42).unwrap()
    }

    fn tiny_input(seed: u64) -> Mat<f32> {
        Mat::from_fn(26, 16, |r, c| {
            let h = seed
                .wrapping_mul(31)
                .wrapping_add((r * 16 + c) as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15);
            ((h >> 40) as f32 / (1u64 << 24) as f32) - 0.5
        })
    }

    #[test]
    fn forward_produces_finite_logits() {
        let p = tiny();
        let logits = forward(&p, &tiny_input(0)).unwrap();
        assert_eq!(logits.len(), 2);
        assert!(logits.iter().all(|l| l.is_finite()));
    }

    #[test]
    fn forward_with_prepacked_weights_matches_forward() {
        let p = tiny();
        let packed = p.pack_weights();
        for s in 0..4 {
            let x = tiny_input(s);
            assert_eq!(
                forward(&p, &x).unwrap(),
                forward_with(&p, &packed, &x).unwrap()
            );
        }
    }

    #[test]
    fn forward_with_rejects_mismatched_depth() {
        let p = tiny();
        let mut packed = p.pack_weights();
        packed.layers.pop();
        assert!(forward_with(&p, &packed, &tiny_input(0)).is_err());
    }

    #[test]
    fn forward_is_deterministic() {
        let p = tiny();
        assert_eq!(
            forward(&p, &tiny_input(1)).unwrap(),
            forward(&p, &tiny_input(1)).unwrap()
        );
    }

    #[test]
    fn forward_depends_on_input() {
        let p = tiny();
        assert_ne!(
            forward(&p, &tiny_input(1)).unwrap(),
            forward(&p, &tiny_input(2)).unwrap()
        );
    }

    #[test]
    fn forward_rejects_wrong_shape() {
        let p = tiny();
        let bad = Mat::zeros(16, 26); // transposed
        assert!(matches!(
            forward(&p, &bad),
            Err(ModelError::InputShape { .. })
        ));
    }

    #[test]
    fn kwt1_forward_shapes_work() {
        let p = KwtParams::init(KwtConfig::kwt1(), 0).unwrap();
        let x = Mat::zeros(98, 40);
        let logits = forward(&p, &x).unwrap();
        assert_eq!(logits.len(), 35);
        assert!(logits.iter().all(|l| l.is_finite()));
    }

    #[test]
    fn softmax_probs_is_distribution() {
        let probs = softmax_probs(&[1.0, -2.0, 0.5]).unwrap();
        assert!((probs.iter().sum::<f32>() - 1.0).abs() < 1e-6);
        assert_eq!(probs.len(), 3);
    }

    #[test]
    fn softmax_probs_rejects_empty_and_non_finite() {
        assert!(matches!(
            softmax_probs(&[]),
            Err(ModelError::InvalidLogits { .. })
        ));
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let err = softmax_probs(&[0.5, bad, -1.0]).unwrap_err();
            assert!(
                matches!(err, ModelError::InvalidLogits { .. }),
                "{bad} accepted"
            );
            assert!(err.to_string().contains("logit 1"), "{err}");
        }
        // the checked path never hands NaN probabilities back
        let probs = softmax_probs(&[1e30, -1e30]).unwrap();
        assert!(probs.iter().all(|p| p.is_finite()));
    }

    /// The pre-refactor `forward_with` body, reconstructed from the same
    /// public kernels it used to call — the oracle proving the scratch
    /// path is bit-identical to the old allocating path.
    fn forward_old_path(params: &KwtParams, mfcc: &Mat<f32>) -> Vec<f32> {
        let c = &params.config;
        let packed = params.pack_weights();
        let tokens = ops::linear_packed(mfcc, &packed.w_proj, &params.b_proj).unwrap();
        let cls_row = Mat::from_vec(1, c.dim, params.class_token.clone()).unwrap();
        let mut x = cls_row.vstack(&tokens).unwrap();
        ops::add_assign(&mut x, &params.pos_emb).unwrap();
        for (layer, pl) in params.layers.iter().zip(&packed.layers) {
            let qkv = ops::linear_packed(&x, &pl.w_qkv, &layer.b_qkv).unwrap();
            let (q, k, v) = ops::split_into_qkv(&qkv, c.heads, c.dim_head).unwrap();
            let mut sa: Option<Mat<f32>> = None;
            for h in 0..c.heads {
                let head = ops::scaled_dot_product_attention(&q[h], &k[h], &v[h]).unwrap();
                sa = Some(match sa {
                    None => head,
                    Some(acc) => acc.hstack(&head).unwrap(),
                });
            }
            let attn_out = ops::linear_packed(&sa.unwrap(), &pl.w_out, &layer.b_out).unwrap();
            ops::add_assign(&mut x, &attn_out).unwrap();
            ops::layer_norm_rows(&mut x, &layer.ln1_gamma, &layer.ln1_beta, c.ln_eps).unwrap();
            let mut hidden = ops::linear_packed(&x, &pl.w_mlp1, &layer.b_mlp1).unwrap();
            ops::gelu(hidden.as_mut_slice());
            let mlp_out = ops::linear_packed(&hidden, &pl.w_mlp2, &layer.b_mlp2).unwrap();
            ops::add_assign(&mut x, &mlp_out).unwrap();
            ops::layer_norm_rows(&mut x, &layer.ln2_gamma, &layer.ln2_beta, c.ln_eps).unwrap();
        }
        let cls = Mat::from_vec(1, c.dim, x.row(0).to_vec()).unwrap();
        ops::linear_packed(&cls, &packed.w_head, &params.b_head)
            .unwrap()
            .into_vec()
    }

    #[test]
    fn scratch_forward_bit_identical_to_old_path() {
        for (config, t, f) in [(KwtConfig::kwt_tiny(), 26, 16), (KwtConfig::kwt1(), 98, 40)] {
            let p = KwtParams::init(config, 9).unwrap();
            for s in 0..3 {
                let x = Mat::from_fn(t, f, |r, c| {
                    let h = (s * 7919 + r * f + c) as u64;
                    ((h.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) as f32 / (1u64 << 24) as f32)
                        - 0.5
                });
                let new = forward(&p, &x).unwrap();
                let old = forward_old_path(&p, &x);
                assert_eq!(new.len(), old.len());
                for (a, b) in new.iter().zip(&old) {
                    assert_eq!(a.to_bits(), b.to_bits(), "seed {s}");
                }
            }
        }
    }

    #[test]
    fn reused_scratch_matches_fresh_scratch() {
        let p = tiny();
        let packed = p.pack_weights();
        let mut reused = Scratch::new(&p.config);
        let mut logits_reused = Vec::new();
        for s in 0..8 {
            let x = tiny_input(s);
            forward_into(&p, &packed, &x, &mut reused, &mut logits_reused).unwrap();
            let mut fresh = Scratch::new(&p.config);
            let mut logits_fresh = Vec::new();
            forward_into(&p, &packed, &x, &mut fresh, &mut logits_fresh).unwrap();
            assert_eq!(logits_reused, logits_fresh, "seed {s}");
        }
    }

    #[test]
    fn predict_returns_argmax() {
        let p = tiny();
        let x = tiny_input(3);
        let logits = forward(&p, &x).unwrap();
        let want = if logits[0] >= logits[1] { 0 } else { 1 };
        assert_eq!(predict(&p, &x).unwrap(), want);
    }

    #[test]
    fn positional_embeddings_matter() {
        // Zeroing the positional embeddings must change the logits of a
        // non-trivial input (sanity check that they are applied).
        let p = tiny();
        let mut q = p.clone();
        q.pos_emb = Mat::zeros(27, 12);
        assert_ne!(
            forward(&p, &tiny_input(5)).unwrap(),
            forward(&q, &tiny_input(5)).unwrap()
        );
    }

    #[test]
    fn class_token_row_is_used_for_logits() {
        // Change only the head bias: logits shift by exactly that amount.
        let p = tiny();
        let mut q = p.clone();
        q.b_head = vec![1.0, -1.0];
        let a = forward(&p, &tiny_input(6)).unwrap();
        let b = forward(&q, &tiny_input(6)).unwrap();
        assert!((b[0] - a[0] - 1.0).abs() < 1e-6);
        assert!((b[1] - a[1] + 1.0).abs() < 1e-6);
    }
}
