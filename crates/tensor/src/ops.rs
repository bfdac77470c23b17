//! Float (f32) kernels — the non-quantised flavour of the paper's Table VI
//! library. These are the reference semantics against which both the
//! quantised kernels ([`crate::qops`]) and the generated bare-metal RISC-V
//! programs (`kwt-baremetal`) are differentially tested.

use crate::math::gelu_exact;
use crate::{Mat, Result, TensorError};

/// Computes the mean and **population** variance of a vector
/// (paper: `computeMeanAndVariance()`, used by layer normalisation, eq. 4).
///
/// # Errors
///
/// Returns [`TensorError::Empty`] for an empty slice.
///
/// # Example
/// ```
/// let (m, v) = kwt_tensor::ops::compute_mean_and_variance(&[1.0, 2.0, 3.0])?;
/// assert_eq!(m, 2.0);
/// assert!((v - 2.0 / 3.0).abs() < 1e-6);
/// # Ok::<(), kwt_tensor::TensorError>(())
/// ```
pub fn compute_mean_and_variance(x: &[f32]) -> Result<(f32, f32)> {
    if x.is_empty() {
        return Err(TensorError::Empty {
            op: "compute_mean_and_variance",
        });
    }
    let n = x.len() as f32;
    let mean = x.iter().sum::<f32>() / n;
    let var = x.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / n;
    Ok((mean, var))
}

/// Normalises a vector in place and applies the learned scale and shift
/// (paper: `layerNorm()`, eqs. 4–5):
///
/// ```text
/// y_i = gamma_i * (x_i - mean) / sqrt(var + eps) + beta_i
/// ```
///
/// `eps` guards against zero variance; the paper's eq. (4) omits it but any
/// practical implementation (and Torch-KWT) includes one.
///
/// # Errors
///
/// Returns [`TensorError::Empty`] for empty input and
/// [`TensorError::ShapeMismatch`] when `gamma`/`beta` lengths differ from `x`.
pub fn layer_norm(x: &mut [f32], gamma: &[f32], beta: &[f32], eps: f32) -> Result<()> {
    if x.is_empty() {
        return Err(TensorError::Empty { op: "layer_norm" });
    }
    if gamma.len() != x.len() || beta.len() != x.len() {
        return Err(TensorError::ShapeMismatch {
            op: "layer_norm",
            lhs: (1, x.len()),
            rhs: (gamma.len(), beta.len()),
        });
    }
    let (mean, var) = compute_mean_and_variance(x)?;
    let inv_std = 1.0 / (var + eps).sqrt();
    for i in 0..x.len() {
        x[i] = gamma[i] * (x[i] - mean) * inv_std + beta[i];
    }
    Ok(())
}

/// Applies [`layer_norm`] independently to every row of a matrix.
pub fn layer_norm_rows(x: &mut Mat<f32>, gamma: &[f32], beta: &[f32], eps: f32) -> Result<()> {
    for r in 0..x.rows() {
        layer_norm(x.row_mut(r), gamma, beta, eps)?;
    }
    Ok(())
}

/// Dense matrix product `C = A * B` (paper: `matrixMultiply()`).
///
/// Packs `b` on the fly and runs the register-blocked microkernel of
/// [`crate::packed`]; outputs are bit-identical to the original streaming
/// kernel (kept as [`reference::matrix_multiply`]) because each output
/// element accumulates its products in the same ascending-`k` order.
/// Callers that reuse `b` across calls (weight matrices) should pack once
/// with [`crate::PackedMat::pack`] and use
/// [`crate::packed::matrix_multiply_packed`].
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] unless `a.cols() == b.rows()`.
pub fn matrix_multiply(a: &Mat<f32>, b: &Mat<f32>) -> Result<Mat<f32>> {
    if a.cols() != b.rows() {
        return Err(TensorError::ShapeMismatch {
            op: "matrix_multiply",
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    let packed = crate::PackedMat::pack(b);
    crate::packed::matrix_multiply_packed(a, &packed)
}

/// The original float kernels, kept as oracles for the packed fast paths.
pub mod reference {
    use crate::{Mat, Result, TensorError};

    /// The seed repository's streaming i-k-j product — the oracle for
    /// [`crate::packed::matrix_multiply_packed`].
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] unless `a.cols() == b.rows()`.
    pub fn matrix_multiply(a: &Mat<f32>, b: &Mat<f32>) -> Result<Mat<f32>> {
        if a.cols() != b.rows() {
            return Err(TensorError::ShapeMismatch {
                op: "matrix_multiply",
                lhs: a.shape(),
                rhs: b.shape(),
            });
        }
        let (m, k, n) = (a.rows(), a.cols(), b.cols());
        let mut c = Mat::zeros(m, n);
        for i in 0..m {
            let arow = a.row(i);
            let crow = c.row_mut(i);
            for (kk, &av) in arow.iter().enumerate().take(k) {
                let brow = b.row(kk);
                for j in 0..n {
                    crow[j] += av * brow[j];
                }
            }
        }
        Ok(c)
    }
}

/// In-place SoftMax over a vector, direct form of eq. (2):
/// `softmax(x)_i = exp(x_i) / sum_j exp(x_j)`.
///
/// Numerically fragile for large inputs — that is the point of the
/// normalised variant below, which the hardware uses. Kept for parity with
/// the paper's original C `Softmax()`.
///
/// # Errors
///
/// Returns [`TensorError::Empty`] for empty input.
pub fn softmax(x: &mut [f32]) -> Result<()> {
    if x.is_empty() {
        return Err(TensorError::Empty { op: "softmax" });
    }
    let mut sum = 0.0f32;
    for v in x.iter_mut() {
        *v = v.exp();
        sum += *v;
    }
    for v in x.iter_mut() {
        *v /= sum;
    }
    Ok(())
}

/// In-place max-normalised SoftMax, eq. (10):
/// `softmax(x)_i = exp(x_i - max(x)) / sum_j exp(x_j - max(x))`.
///
/// Mathematically identical to [`softmax`] but with all exponents in
/// `(-inf, 0]`, which (a) never overflows and (b) constrains the fixed-point
/// LUT domain to `[0, 10)` in the accelerated kernel.
///
/// # Errors
///
/// Returns [`TensorError::Empty`] for empty input.
pub fn softmax_normalized(x: &mut [f32]) -> Result<()> {
    if x.is_empty() {
        return Err(TensorError::Empty {
            op: "softmax_normalized",
        });
    }
    let max = x.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0f32;
    for v in x.iter_mut() {
        *v = (*v - max).exp();
        sum += *v;
    }
    let inv = 1.0 / sum;
    for v in x.iter_mut() {
        *v *= inv;
    }
    Ok(())
}

/// Applies exact GELU (eq. 7) element-wise in place
/// (paper: `gelu()`).
pub fn gelu(x: &mut [f32]) {
    for v in x.iter_mut() {
        *v = gelu_exact(*v);
    }
}

/// Affine map `Y = X * W + b` with the bias broadcast over rows
/// (paper: `linear()`, eq. 8).
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `x.cols() != w.rows()` or
/// `b.len() != w.cols()`.
pub fn linear(x: &Mat<f32>, w: &Mat<f32>, b: &[f32]) -> Result<Mat<f32>> {
    linear_packed(x, &crate::PackedMat::pack(w), b)
}

/// [`linear`] over a pre-packed weight matrix — the amortised fast path
/// used by the model crates, which pack every weight once at load time.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `x.cols()` does not match the
/// packed inner dimension or `b.len() != w.cols()`.
pub fn linear_packed(x: &Mat<f32>, w: &crate::PackedMat<f32>, b: &[f32]) -> Result<Mat<f32>> {
    let mut y = Mat::default();
    linear_packed_into(x, w, b, &mut y)?;
    Ok(y)
}

/// [`linear_packed`] writing into a caller-provided output matrix (resized
/// in place; allocation-free at steady state) — the kernel behind the
/// model scratch arenas.
///
/// # Errors
///
/// Same contract as [`linear_packed`].
pub fn linear_packed_into(
    x: &Mat<f32>,
    w: &crate::PackedMat<f32>,
    b: &[f32],
    out: &mut Mat<f32>,
) -> Result<()> {
    crate::packed::matrix_multiply_packed_into(x, w, crate::packed::Epilogue::Bias(b), out)
}

/// Splits the fused QKV projection output into per-head query, key and
/// value matrices (paper: `splitIntoQKV()`, eq. 3).
///
/// `x` has shape `S x (3 * heads * dim_head)` laid out `[Q | K | V]`, each
/// section holding `heads` contiguous blocks of `dim_head` columns. Returns
/// `(q, k, v)` where each is a `Vec` of `heads` matrices of shape
/// `S x dim_head`.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if
/// `x.cols() != 3 * heads * dim_head`, and
/// [`TensorError::InvalidParameter`] if `heads == 0` or `dim_head == 0`.
#[allow(clippy::type_complexity)]
pub fn split_into_qkv(
    x: &Mat<f32>,
    heads: usize,
    dim_head: usize,
) -> Result<(Vec<Mat<f32>>, Vec<Mat<f32>>, Vec<Mat<f32>>)> {
    if heads == 0 || dim_head == 0 {
        return Err(TensorError::InvalidParameter {
            op: "split_into_qkv",
            what: format!("heads ({heads}) and dim_head ({dim_head}) must be positive"),
        });
    }
    if x.cols() != 3 * heads * dim_head {
        return Err(TensorError::ShapeMismatch {
            op: "split_into_qkv",
            lhs: x.shape(),
            rhs: (3 * heads, dim_head),
        });
    }
    let section = heads * dim_head;
    let mut q = Vec::with_capacity(heads);
    let mut k = Vec::with_capacity(heads);
    let mut v = Vec::with_capacity(heads);
    for h in 0..heads {
        q.push(x.columns(h * dim_head, dim_head));
        k.push(x.columns(section + h * dim_head, dim_head));
        v.push(x.columns(2 * section + h * dim_head, dim_head));
    }
    Ok((q, k, v))
}

/// Scaled dot-product attention for a single head, eq. (1):
/// `SA = softmax(Q K^T / sqrt(dim_head)) V`.
///
/// Uses the max-normalised softmax of eq. (10), matching both the float
/// reference in Torch-KWT and the accelerated fixed-point kernel.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `q`, `k` and `v` do not share
/// the shape `S x dim_head`.
pub fn scaled_dot_product_attention(q: &Mat<f32>, k: &Mat<f32>, v: &Mat<f32>) -> Result<Mat<f32>> {
    if q.shape() != k.shape() || k.shape() != v.shape() {
        return Err(TensorError::ShapeMismatch {
            op: "scaled_dot_product_attention",
            lhs: q.shape(),
            rhs: k.shape(),
        });
    }
    if q.cols() == 0 {
        return Err(TensorError::Empty {
            op: "scaled_dot_product_attention",
        });
    }
    let scale = 1.0 / (q.cols() as f32).sqrt();
    let mut scores = matrix_multiply(q, &k.transpose())?;
    for val in scores.as_mut_slice() {
        *val *= scale;
    }
    for r in 0..scores.rows() {
        softmax_normalized(scores.row_mut(r))?;
    }
    matrix_multiply(&scores, v)
}

/// Full multi-head self-attention on a fused QKV activation: splits into
/// heads, runs [`scaled_dot_product_attention`] per head and concatenates
/// the outputs to shape `S x (heads * dim_head)`.
///
/// # Errors
///
/// Propagates errors from [`split_into_qkv`] and
/// [`scaled_dot_product_attention`].
pub fn multi_head_attention(x_qkv: &Mat<f32>, heads: usize, dim_head: usize) -> Result<Mat<f32>> {
    let mut work = Mat::default();
    let mut out = Mat::default();
    multi_head_attention_into(x_qkv, heads, dim_head, &mut work, &mut out)?;
    Ok(out)
}

/// [`multi_head_attention`] over a caller-provided work matrix and output
/// (both resized in place) — the allocation-free kernel behind the model
/// scratch arena. `work` becomes `(dim_head + 1) x S`: each head's `Kᵀ`
/// staged from the fused activation, then one row of scores.
///
/// Both products run lane-wise: a query row's scores accumulate over
/// `Kᵀ` rows across all keys at once, and its output accumulates
/// `score · V` rows across `dim_head`. Every score still sums its
/// `dim_head` products in ascending order and every output its `S` keys in
/// ascending order, the orders of the packed matmuls, so results are
/// **bit-identical** to the split + per-head
/// [`scaled_dot_product_attention`] composition.
///
/// # Errors
///
/// Same contract as [`multi_head_attention`].
pub fn multi_head_attention_into(
    x_qkv: &Mat<f32>,
    heads: usize,
    dim_head: usize,
    work: &mut Mat<f32>,
    out: &mut Mat<f32>,
) -> Result<()> {
    if heads == 0 || dim_head == 0 {
        return Err(TensorError::InvalidParameter {
            op: "split_into_qkv",
            what: format!("heads ({heads}) and dim_head ({dim_head}) must be positive"),
        });
    }
    if x_qkv.cols() != 3 * heads * dim_head {
        return Err(TensorError::ShapeMismatch {
            op: "split_into_qkv",
            lhs: x_qkv.shape(),
            rhs: (3 * heads, dim_head),
        });
    }
    let s = x_qkv.rows();
    let section = heads * dim_head;
    let scale = 1.0 / (dim_head as f32).sqrt();
    out.resize(s, section);
    work.resize(dim_head + 1, s);
    let (kt, scores) = work.as_mut_slice().split_at_mut(dim_head * s);
    for h in 0..heads {
        let qoff = h * dim_head;
        let koff = section + qoff;
        let voff = 2 * section + qoff;
        for (d, kt_row) in kt.chunks_exact_mut(s.max(1)).enumerate() {
            for (slot, row) in kt_row.iter_mut().zip(x_qkv.iter_rows()) {
                *slot = row[koff + d];
            }
        }
        for i in 0..s {
            // scores = (q_i Kᵀ) * 1/sqrt(dh), accumulating ascending over dh
            scores.fill(0.0);
            let q = &x_qkv.row(i)[qoff..qoff + dim_head];
            for (&qd, kt_row) in q.iter().zip(kt.chunks_exact(s)) {
                for (sc, &kv) in scores.iter_mut().zip(kt_row) {
                    *sc += qd * kv;
                }
            }
            for sc in scores.iter_mut() {
                *sc *= scale;
            }
            softmax_normalized(scores)?;
            // out row = scores · V, accumulating ascending over the S keys
            let orow = &mut out.row_mut(i)[qoff..qoff + dim_head];
            orow.fill(0.0);
            for (&sij, row) in scores.iter().zip(x_qkv.iter_rows()) {
                for (o, &v) in orow.iter_mut().zip(&row[voff..voff + dim_head]) {
                    *o += sij * v;
                }
            }
        }
    }
    Ok(())
}

/// Element-wise sum `a += b` (residual connection helper).
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if shapes differ.
pub fn add_assign(a: &mut Mat<f32>, b: &Mat<f32>) -> Result<()> {
    if a.shape() != b.shape() {
        return Err(TensorError::ShapeMismatch {
            op: "add_assign",
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    for (x, y) in a.as_mut_slice().iter_mut().zip(b.as_slice()) {
        *x += *y;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f32, b: f32, tol: f32) {
        assert!((a - b).abs() <= tol, "{a} != {b} (tol {tol})");
    }

    #[test]
    fn mean_variance_basic() {
        let (m, v) = compute_mean_and_variance(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]).unwrap();
        assert_close(m, 5.0, 1e-6);
        assert_close(v, 4.0, 1e-6);
    }

    #[test]
    fn mean_variance_constant_vector() {
        let (m, v) = compute_mean_and_variance(&[3.5; 17]).unwrap();
        assert_close(m, 3.5, 1e-6);
        assert_close(v, 0.0, 1e-9);
    }

    #[test]
    fn mean_variance_empty_errors() {
        assert!(matches!(
            compute_mean_and_variance(&[]),
            Err(TensorError::Empty { .. })
        ));
    }

    #[test]
    fn layer_norm_standardises() {
        let mut x = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        let g = vec![1.0; 5];
        let b = vec![0.0; 5];
        layer_norm(&mut x, &g, &b, 0.0).unwrap();
        let (m, v) = compute_mean_and_variance(&x).unwrap();
        assert_close(m, 0.0, 1e-6);
        assert_close(v, 1.0, 1e-5);
    }

    #[test]
    fn layer_norm_applies_gamma_beta() {
        let mut x = vec![-1.0, 1.0];
        layer_norm(&mut x, &[2.0, 2.0], &[10.0, 20.0], 0.0).unwrap();
        // standardised input is [-1, 1]
        assert_close(x[0], 8.0, 1e-5);
        assert_close(x[1], 22.0, 1e-5);
    }

    #[test]
    fn layer_norm_shape_errors() {
        let mut x = vec![1.0, 2.0];
        assert!(layer_norm(&mut x, &[1.0], &[0.0, 0.0], 0.0).is_err());
        assert!(layer_norm(&mut x, &[1.0, 1.0], &[0.0], 0.0).is_err());
        let mut e: Vec<f32> = vec![];
        assert!(layer_norm(&mut e, &[], &[], 0.0).is_err());
    }

    #[test]
    fn layer_norm_rows_is_per_row() {
        let mut m = Mat::from_vec(2, 3, vec![1.0, 2.0, 3.0, 30.0, 20.0, 10.0]).unwrap();
        layer_norm_rows(&mut m, &[1.0; 3], &[0.0; 3], 0.0).unwrap();
        // Both rows standardised independently: same magnitudes, mirrored.
        assert_close(m[(0, 0)], -m[(1, 0)], 1e-5);
        assert_close(m[(0, 2)], -m[(1, 2)], 1e-5);
    }

    #[test]
    fn matmul_identity() {
        let a = Mat::from_fn(3, 3, |r, c| (r * 3 + c) as f32);
        let id = Mat::from_fn(3, 3, |r, c| if r == c { 1.0 } else { 0.0 });
        assert_eq!(matrix_multiply(&a, &id).unwrap(), a);
        assert_eq!(matrix_multiply(&id, &a).unwrap(), a);
    }

    #[test]
    fn matmul_known_product() {
        let a = Mat::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let b = Mat::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]).unwrap();
        let c = matrix_multiply(&a, &b).unwrap();
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_shape_mismatch() {
        let a = Mat::<f32>::zeros(2, 3);
        let b = Mat::<f32>::zeros(2, 3);
        assert!(matches!(
            matrix_multiply(&a, &b),
            Err(TensorError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn softmax_sums_to_one() {
        let mut x = vec![0.1, 1.2, -3.0, 0.4];
        softmax(&mut x).unwrap();
        assert_close(x.iter().sum::<f32>(), 1.0, 1e-6);
        assert!(x.iter().all(|&v| v > 0.0));
    }

    #[test]
    fn softmax_normalized_equals_plain() {
        let orig = vec![0.3, -0.7, 2.0, 0.0, 1.1];
        let mut a = orig.clone();
        let mut b = orig;
        softmax(&mut a).unwrap();
        softmax_normalized(&mut b).unwrap();
        for (x, y) in a.iter().zip(&b) {
            assert_close(*x, *y, 1e-6);
        }
    }

    #[test]
    fn softmax_normalized_survives_large_inputs() {
        let mut x = vec![1000.0, 1001.0];
        softmax_normalized(&mut x).unwrap();
        assert!(x.iter().all(|v| v.is_finite()));
        assert_close(x.iter().sum::<f32>(), 1.0, 1e-6);
        // plain form overflows to NaN here — that's why eq. (10) exists
        let mut y = vec![1000.0f32, 1001.0];
        softmax(&mut y).unwrap();
        assert!(y.iter().any(|v| !v.is_finite()));
    }

    #[test]
    fn softmax_empty_errors() {
        let mut e: Vec<f32> = vec![];
        assert!(softmax(&mut e).is_err());
        assert!(softmax_normalized(&mut e).is_err());
    }

    #[test]
    fn gelu_matches_scalar() {
        let mut x = vec![-2.0, -0.5, 0.0, 0.5, 2.0];
        let want: Vec<f32> = x.iter().map(|&v| gelu_exact(v)).collect();
        gelu(&mut x);
        assert_eq!(x, want);
    }

    #[test]
    fn linear_applies_bias() {
        let x = Mat::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]).unwrap();
        let w = Mat::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let y = linear(&x, &w, &[10.0, 20.0, 30.0]).unwrap();
        assert_eq!(y.row(0), &[11.0, 22.0, 33.0]);
        assert_eq!(y.row(1), &[14.0, 25.0, 36.0]);
    }

    #[test]
    fn linear_bias_shape_checked() {
        let x = Mat::<f32>::zeros(1, 2);
        let w = Mat::<f32>::zeros(2, 3);
        assert!(linear(&x, &w, &[0.0, 0.0]).is_err());
    }

    #[test]
    fn split_qkv_layout() {
        // S=2, heads=2, dim_head=1 -> cols = 6, layout [Q0 Q1 | K0 K1 | V0 V1]
        let x = Mat::from_vec(
            2,
            6,
            vec![
                1.0, 2.0, 3.0, 4.0, 5.0, 6.0, //
                7.0, 8.0, 9.0, 10.0, 11.0, 12.0,
            ],
        )
        .unwrap();
        let (q, k, v) = split_into_qkv(&x, 2, 1).unwrap();
        assert_eq!(q[0].as_slice(), &[1.0, 7.0]);
        assert_eq!(q[1].as_slice(), &[2.0, 8.0]);
        assert_eq!(k[0].as_slice(), &[3.0, 9.0]);
        assert_eq!(k[1].as_slice(), &[4.0, 10.0]);
        assert_eq!(v[0].as_slice(), &[5.0, 11.0]);
        assert_eq!(v[1].as_slice(), &[6.0, 12.0]);
    }

    #[test]
    fn split_qkv_validates() {
        let x = Mat::<f32>::zeros(2, 6);
        assert!(split_into_qkv(&x, 0, 1).is_err());
        assert!(split_into_qkv(&x, 1, 0).is_err());
        assert!(split_into_qkv(&x, 2, 2).is_err()); // needs 12 cols
    }

    #[test]
    fn attention_uniform_when_scores_equal() {
        // If Q K^T is constant, softmax rows are uniform and the output is
        // the mean of V's rows.
        let q = Mat::filled(3, 2, 0.0f32);
        let k = Mat::filled(3, 2, 1.0f32);
        let v = Mat::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let sa = scaled_dot_product_attention(&q, &k, &v).unwrap();
        for r in 0..3 {
            assert_close(sa[(r, 0)], 3.0, 1e-5);
            assert_close(sa[(r, 1)], 4.0, 1e-5);
        }
    }

    #[test]
    fn attention_selects_matching_key() {
        // One-hot queries with strongly separated keys ≈ row lookup of V.
        let big = 30.0;
        let q = Mat::from_vec(2, 2, vec![big, 0.0, 0.0, big]).unwrap();
        let k = Mat::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]).unwrap();
        let v = Mat::from_vec(2, 2, vec![5.0, 6.0, 7.0, 8.0]).unwrap();
        let sa = scaled_dot_product_attention(&q, &k, &v).unwrap();
        assert_close(sa[(0, 0)], 5.0, 1e-3);
        assert_close(sa[(1, 1)], 8.0, 1e-3);
    }

    #[test]
    fn attention_shape_checked() {
        let a = Mat::<f32>::zeros(2, 2);
        let b = Mat::<f32>::zeros(3, 2);
        assert!(scaled_dot_product_attention(&a, &b, &a).is_err());
        let e = Mat::<f32>::zeros(2, 0);
        assert!(scaled_dot_product_attention(&e, &e, &e).is_err());
    }

    #[test]
    fn multi_head_concatenates() {
        let x = Mat::from_fn(3, 6, |r, c| ((r + 1) * (c + 1)) as f32 * 0.1);
        let out = multi_head_attention(&x, 2, 1).unwrap();
        assert_eq!(out.shape(), (3, 2));
        // Head outputs must match running SDPA manually per head.
        let (q, k, v) = split_into_qkv(&x, 2, 1).unwrap();
        let h0 = scaled_dot_product_attention(&q[0], &k[0], &v[0]).unwrap();
        let h1 = scaled_dot_product_attention(&q[1], &k[1], &v[1]).unwrap();
        for r in 0..3 {
            assert_eq!(out[(r, 0)], h0[(r, 0)]);
            assert_eq!(out[(r, 1)], h1[(r, 0)]);
        }
    }

    #[test]
    fn add_assign_residual() {
        let mut a = Mat::filled(2, 2, 1.0f32);
        let b = Mat::filled(2, 2, 0.5f32);
        add_assign(&mut a, &b).unwrap();
        assert!(a.as_slice().iter().all(|&x| x == 1.5));
        let c = Mat::<f32>::zeros(2, 3);
        assert!(add_assign(&mut a, &c).is_err());
    }
}
