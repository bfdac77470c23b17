//! Panel-packed weight layout and cache-blocked GEMM microkernels — the
//! fast path behind [`crate::ops::matrix_multiply`],
//! [`crate::qops::matmul_i16_i8`] and [`crate::qops::matmul_i16_i16`].
//!
//! # Why the naive kernels were slow
//!
//! The reference kernels (kept in [`crate::ops::reference`] and
//! [`crate::qops::reference`] as test oracles) walk the weight matrix
//! **column by column**: computing output element `(i, j)` reads
//! `w[(0, j)], w[(1, j)], …`, which for a row-major `K x N` matrix is a
//! stride-`N` access pattern — one cache line fetched per element, and no
//! opportunity for the compiler to vectorise the inner loop. The
//! quantised kernels additionally widened every product to `i64`
//! unconditionally, serialising the inner loop on 64-bit multiplies.
//!
//! # The packed layout
//!
//! [`PackedMat`] stores the weight operand transposed and **panel-packed**
//! once (at model-load time in the downstream crates): the `N` output
//! columns are grouped into panels of [`NR`] = 8, and within a panel the
//! entries are interleaved k-major:
//!
//! ```text
//! data[panel * K * NR + k * NR + j]  ==  W[(k, panel * NR + j)]
//! ```
//!
//! so the microkernel's inner loop reads **one contiguous `NR`-wide row
//! per k step** and keeps `NR` accumulators in registers. The last panel
//! is zero-padded; padded lanes have their own (discarded) accumulators
//! and never affect stored results.
//!
//! # Blocking and accumulator widths
//!
//! * `i16 x i8`: products are bounded by `2^22`, so up to [`KC`] = 256 of
//!   them fit an `i32` accumulator without overflow (`256 · 2^22 = 2^30`).
//!   The k loop therefore runs in blocks of `KC` with `NR` `i32`
//!   accumulators, widening the per-block partial sums into `i64` totals
//!   between blocks — the paper's exact `i64` semantics at a fraction of
//!   the cost.
//! * `i16 x i16`: a single product already reaches `2^30`, so two of them
//!   can overflow `i32`; the microkernel multiplies in `i32` (safe for one
//!   product) and widens every product into the `i64` lane accumulators.
//! * `f32`: floating-point addition is not associative, so the microkernel
//!   preserves the reference kernel's per-element accumulation order
//!   (ascending `k`) exactly — outputs are **bit-identical** to the
//!   reference, the speedup coming purely from contiguous reads and
//!   register-resident accumulators.
//!
//! Integer results and [`QuantStats`] are bit-identical to the reference
//! kernels by construction (integer addition is associative; `max_abs_acc`
//! and saturation checks are evaluated on the same final per-element
//! accumulator values) — `crates/tensor/tests/properties.rs` asserts this
//! across randomised shapes, including non-multiples of the block sizes.

use crate::qops::{sat_i16 as sat_i16_stats, QuantStats};
use crate::{Mat, Result, TensorError};

/// Panel width: number of output columns computed per microkernel pass.
pub const NR: usize = 8;

/// Row blocking: rows of `A` processed together by the float and
/// `i16 x i16` microkernels. Each row owns an independent set of `NR`
/// accumulators, so `MR` rows interleave `MR` independent dependency
/// chains and hide the accumulator add latency.
pub const MR: usize = 4;

/// k-blocking depth for the `i16 x i8` kernel: the largest number of
/// `i16·i8` products that cannot overflow an `i32` accumulator
/// (`KC · 2^22 ≤ 2^30 < i32::MAX`).
pub const KC: usize = 256;

/// A weight matrix repacked for the blocked microkernels: transposed and
/// panel-packed as described in the module docs.
///
/// Logically this is still the `K x N` operand `W` of `Y = X · W`; `get`
/// / `to_mat` recover the unpacked view for tests and serialisation.
#[derive(Debug, Clone, PartialEq)]
pub struct PackedMat<T> {
    k: usize,
    n: usize,
    data: Vec<T>,
}

impl<T: Copy + Default> Default for PackedMat<T> {
    fn default() -> Self {
        PackedMat {
            k: 0,
            n: 0,
            data: Vec::new(),
        }
    }
}

impl<T: Copy + Default> PackedMat<T> {
    /// Packs a `K x N` row-major weight matrix.
    pub fn pack(w: &Mat<T>) -> Self {
        let mut out = PackedMat::default();
        out.pack_into(w);
        out
    }

    /// Re-packs a `K x N` row-major weight matrix into `self`, reusing the
    /// existing backing buffer — the allocation-free counterpart of
    /// [`PackedMat::pack`] for per-call packing inside scratch arenas.
    pub fn pack_into(&mut self, w: &Mat<T>) {
        let (k, n) = w.shape();
        let panels = n.div_ceil(NR.max(1));
        self.k = k;
        self.n = n;
        self.data.clear();
        self.data.resize(panels * k * NR, T::default());
        for p in 0..panels {
            let base = p * k * NR;
            let width = (n - p * NR).min(NR);
            for kk in 0..k {
                let wrow = w.row(kk);
                for j in 0..width {
                    self.data[base + kk * NR + j] = wrow[p * NR + j];
                }
            }
        }
    }

    /// Packs the **transpose** of an `N x K` row-major matrix, i.e. builds
    /// the packed form of the logical `K x N` operand `srcᵀ` while reading
    /// `src` row-contiguously. This is the cheap way to feed `Q Kᵀ`-style
    /// products: `pack_transposed(&k_mat)` packs `k_matᵀ` without
    /// materialising the transpose.
    pub fn pack_transposed(src: &Mat<T>) -> Self {
        let mut out = PackedMat::default();
        out.pack_transposed_into(src);
        out
    }

    /// [`PackedMat::pack_transposed`] into `self`, reusing the backing
    /// buffer (no allocation once the buffer has grown to the panel size).
    pub fn pack_transposed_into(&mut self, src: &Mat<T>) {
        let (n, k) = src.shape();
        let panels = n.div_ceil(NR.max(1));
        self.k = k;
        self.n = n;
        self.data.clear();
        self.data.resize(panels * k * NR, T::default());
        for p in 0..panels {
            let base = p * k * NR;
            let width = (n - p * NR).min(NR);
            for j in 0..width {
                let srow = src.row(p * NR + j);
                for (kk, &v) in srow.iter().enumerate() {
                    self.data[base + kk * NR + j] = v;
                }
            }
        }
    }

    /// Inner dimension `K` (rows of the logical weight matrix).
    pub fn rows(&self) -> usize {
        self.k
    }

    /// Output dimension `N` (columns of the logical weight matrix).
    pub fn cols(&self) -> usize {
        self.n
    }

    /// `(K, N)` of the logical weight matrix.
    pub fn shape(&self) -> (usize, usize) {
        (self.k, self.n)
    }

    /// Element `(k, j)` of the logical weight matrix.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn get(&self, k: usize, j: usize) -> T {
        assert!(k < self.k && j < self.n, "packed index out of range");
        self.data[(j / NR) * self.k * NR + k * NR + (j % NR)]
    }

    /// Reconstructs the unpacked `K x N` matrix.
    pub fn to_mat(&self) -> Mat<T> {
        Mat::from_fn(self.k, self.n, |k, j| self.get(k, j))
    }

    /// Borrow of one packed panel (`K * NR` entries, k-major).
    pub(crate) fn panel(&self, p: usize) -> &[T] {
        &self.data[p * self.k * NR..(p + 1) * self.k * NR]
    }

    pub(crate) fn panels(&self) -> usize {
        self.n.div_ceil(NR.max(1))
    }
}

fn check_inner(op: &'static str, a_shape: (usize, usize), w: (usize, usize)) -> Result<()> {
    if a_shape.1 != w.0 {
        return Err(TensorError::ShapeMismatch {
            op,
            lhs: a_shape,
            rhs: w,
        });
    }
    Ok(())
}

/// Blocked quantised affine map `Y = (A · W + bias) >> shift` over a
/// pre-packed weight operand. Semantics (including [`QuantStats`]) are
/// bit-identical to [`crate::qops::reference::matmul_i16_i8`].
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] on inner-dimension or
/// bias-length mismatch.
pub fn matmul_i16_i8_packed(
    a: &Mat<i16>,
    w: &PackedMat<i8>,
    bias: Option<&[i32]>,
    shift: u32,
) -> Result<(Mat<i16>, QuantStats)> {
    let mut out = Mat::default();
    let stats = matmul_i16_i8_packed_into(a, w, bias, shift, &mut out)?;
    Ok((out, stats))
}

/// [`matmul_i16_i8_packed`] writing into a caller-provided output matrix,
/// which is resized to `M x N` in place — allocation-free once the buffer
/// has grown to the largest shape it has seen.
///
/// # Errors
///
/// Same contract as [`matmul_i16_i8_packed`].
pub fn matmul_i16_i8_packed_into(
    a: &Mat<i16>,
    w: &PackedMat<i8>,
    bias: Option<&[i32]>,
    shift: u32,
    out: &mut Mat<i16>,
) -> Result<QuantStats> {
    check_inner("matmul_i16_i8", a.shape(), w.shape())?;
    if let Some(b) = bias {
        if b.len() != w.cols() {
            return Err(TensorError::ShapeMismatch {
                op: "matmul_i16_i8 (bias)",
                lhs: (1, b.len()),
                rhs: w.shape(),
            });
        }
    }
    let (m, k, n) = (a.rows(), a.cols(), w.cols());
    let mut stats = QuantStats::default();
    out.resize(m, n);
    for i in 0..m {
        let arow = a.row(i);
        let orow = out.row_mut(i);
        for p in 0..w.panels() {
            let panel = w.panel(p);
            let col0 = p * NR;
            let width = (n - col0).min(NR);
            let mut acc = [0i64; NR];
            // k blocks of KC: partial sums stay in i32 (bound: KC · 2^22).
            let mut kk = 0;
            while kk < k {
                let kend = (kk + KC).min(k);
                let mut part = [0i32; NR];
                for (av, wrow) in arow[kk..kend]
                    .iter()
                    .zip(panel[kk * NR..kend * NR].chunks_exact(NR))
                {
                    let av = *av as i32;
                    for j in 0..NR {
                        part[j] += av * wrow[j] as i32;
                    }
                }
                for j in 0..NR {
                    acc[j] += part[j] as i64;
                }
                kk = kend;
            }
            for j in 0..width {
                let total = acc[j] + bias.map_or(0, |b| b[col0 + j] as i64);
                stats.max_abs_acc = stats.max_abs_acc.max(total.abs());
                orow[col0 + j] = sat_i16_stats(total >> shift, &mut stats);
            }
        }
    }
    Ok(stats)
}

/// Blocked quantised activation-activation product `Y = (A · B) >> shift`
/// over a pre-packed right operand. Semantics (including [`QuantStats`])
/// are bit-identical to [`crate::qops::reference::matmul_i16_i16`].
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] unless `a.cols()` matches the
/// packed operand's inner dimension.
pub fn matmul_i16_i16_packed(
    a: &Mat<i16>,
    b: &PackedMat<i16>,
    shift: u32,
) -> Result<(Mat<i16>, QuantStats)> {
    let mut out = Mat::default();
    let stats = matmul_i16_i16_packed_into(a, b, shift, &mut out)?;
    Ok((out, stats))
}

/// [`matmul_i16_i16_packed`] writing into a caller-provided output matrix
/// (resized to `M x N` in place; allocation-free at steady state).
///
/// # Errors
///
/// Same contract as [`matmul_i16_i16_packed`].
pub fn matmul_i16_i16_packed_into(
    a: &Mat<i16>,
    b: &PackedMat<i16>,
    shift: u32,
    out: &mut Mat<i16>,
) -> Result<QuantStats> {
    check_inner("matmul_i16_i16", a.shape(), b.shape())?;
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let mut stats = QuantStats::default();
    out.resize(m, n);
    // A single i16·i16 product reaches 2^30, so per-block i32 accumulation
    // is not safe here: multiply in i32 (one product always fits) and widen
    // every product into i64 lanes. MR rows run together so the widening
    // adds form MR independent dependency chains.
    let mut i = 0;
    while i + MR <= m {
        let rows: [&[i16]; MR] = [a.row(i), a.row(i + 1), a.row(i + 2), a.row(i + 3)];
        for p in 0..b.panels() {
            let panel = b.panel(p);
            let col0 = p * NR;
            let width = (n - col0).min(NR);
            let mut acc = [[0i64; NR]; MR];
            for (kk, brow) in panel.chunks_exact(NR).enumerate().take(k) {
                for r in 0..MR {
                    let av = rows[r][kk] as i32;
                    for j in 0..NR {
                        acc[r][j] += (av * brow[j] as i32) as i64;
                    }
                }
            }
            for (r, acc_row) in acc.iter().enumerate() {
                let orow = out.row_mut(i + r);
                for j in 0..width {
                    let total = acc_row[j];
                    stats.max_abs_acc = stats.max_abs_acc.max(total.abs());
                    orow[col0 + j] = sat_i16_stats(total >> shift, &mut stats);
                }
            }
        }
        i += MR;
    }
    while i < m {
        let arow = a.row(i);
        for p in 0..b.panels() {
            let panel = b.panel(p);
            let col0 = p * NR;
            let width = (n - col0).min(NR);
            let mut acc = [0i64; NR];
            for (av, brow) in arow.iter().zip(panel.chunks_exact(NR)).take(k) {
                let av = *av as i32;
                for j in 0..NR {
                    acc[j] += (av * brow[j] as i32) as i64;
                }
            }
            let orow = out.row_mut(i);
            for j in 0..width {
                let total = acc[j];
                stats.max_abs_acc = stats.max_abs_acc.max(total.abs());
                orow[col0 + j] = sat_i16_stats(total >> shift, &mut stats);
            }
        }
        i += 1;
    }
    Ok(stats)
}

/// What the float GEMM does with each finished accumulator `acc` of
/// output element `(i, j)` — the bias and residual adds of a linear layer,
/// folded into the one pass that stores the product.
#[derive(Debug, Clone, Copy)]
pub enum Epilogue<'a> {
    /// `out[(i, j)] = acc`.
    Store,
    /// `out[(i, j)] = acc + bias[j]`.
    Bias(&'a [f32]),
    /// `out[(i, j)] = out[(i, j)] + (acc + bias[j])`: a residual
    /// connection; `out` must already hold `M x N` values.
    BiasResidual(&'a [f32]),
}

impl Epilogue<'_> {
    /// Applies the epilogue to the `acc.len()` outputs starting at column
    /// `col0` of one row.
    #[inline(always)]
    fn apply(self, acc: &[f32], col0: usize, out: &mut [f32]) {
        let out = &mut out[col0..col0 + acc.len()];
        match self {
            Epilogue::Store => out.copy_from_slice(acc),
            Epilogue::Bias(b) => {
                for ((o, &a), &bv) in out.iter_mut().zip(acc).zip(&b[col0..]) {
                    *o = a + bv;
                }
            }
            Epilogue::BiasResidual(b) => {
                for ((o, &a), &bv) in out.iter_mut().zip(acc).zip(&b[col0..]) {
                    *o += a + bv;
                }
            }
        }
    }
}

/// Blocked float product `C = A · B` over a pre-packed right operand.
/// Bit-identical to [`crate::ops::reference::matrix_multiply`]: every
/// output element accumulates its products in ascending-`k` order, the
/// same order the reference uses, so no float reassociation occurs.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] unless `a.cols()` matches the
/// packed operand's inner dimension.
pub fn matrix_multiply_packed(a: &Mat<f32>, b: &PackedMat<f32>) -> Result<Mat<f32>> {
    let mut out = Mat::default();
    matrix_multiply_packed_into(a, b, Epilogue::Store, &mut out)?;
    Ok(out)
}

/// [`matrix_multiply_packed`] writing into a caller-provided output matrix
/// through `epilogue` — allocation-free at steady state. [`Epilogue::Store`]
/// and [`Epilogue::Bias`] resize `out` to `M x N` in place;
/// [`Epilogue::BiasResidual`] adds into its current contents. Each output
/// is `acc`, `acc + b` or `out + (acc + b)`, the values the separate
/// product, bias pass and residual [`crate::ops::add_assign`] store, so
/// outputs stay bit-identical to the reference kernel followed by those
/// passes.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] unless `a.cols()` matches the
/// packed operand's inner dimension, a bias holds `N` values, and a
/// residual `out` is `M x N`.
pub fn matrix_multiply_packed_into(
    a: &Mat<f32>,
    b: &PackedMat<f32>,
    epilogue: Epilogue<'_>,
    out: &mut Mat<f32>,
) -> Result<()> {
    check_inner("matrix_multiply", a.shape(), b.shape())?;
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    match epilogue {
        Epilogue::Store => out.resize(m, n),
        Epilogue::Bias(bias) | Epilogue::BiasResidual(bias) if bias.len() != n => {
            return Err(TensorError::ShapeMismatch {
                op: "linear",
                lhs: (1, bias.len()),
                rhs: b.shape(),
            });
        }
        Epilogue::Bias(_) => out.resize(m, n),
        Epilogue::BiasResidual(_) if out.shape() != (m, n) => {
            return Err(TensorError::ShapeMismatch {
                op: "add_assign",
                lhs: out.shape(),
                rhs: (m, n),
            });
        }
        Epilogue::BiasResidual(_) => {}
    }
    // MR independent rows per pass hide the float-add latency; each output
    // element still accumulates in ascending-k order (bit-exactness).
    let mut i = 0;
    while i + MR <= m {
        let rows: [&[f32]; MR] = [a.row(i), a.row(i + 1), a.row(i + 2), a.row(i + 3)];
        for p in 0..b.panels() {
            let panel = b.panel(p);
            let col0 = p * NR;
            let width = (n - col0).min(NR);
            let mut acc = [[0.0f32; NR]; MR];
            for (kk, brow) in panel.chunks_exact(NR).enumerate().take(k) {
                for r in 0..MR {
                    let av = rows[r][kk];
                    for j in 0..NR {
                        acc[r][j] += av * brow[j];
                    }
                }
            }
            for (r, acc_row) in acc.iter().enumerate() {
                epilogue.apply(&acc_row[..width], col0, out.row_mut(i + r));
            }
        }
        i += MR;
    }
    while i < m {
        let arow = a.row(i);
        for p in 0..b.panels() {
            let panel = b.panel(p);
            let col0 = p * NR;
            let width = (n - col0).min(NR);
            let mut acc = [0.0f32; NR];
            for (av, brow) in arow.iter().zip(panel.chunks_exact(NR)).take(k) {
                let av = *av;
                for j in 0..NR {
                    acc[j] += av * brow[j];
                }
            }
            epilogue.apply(&acc[..width], col0, out.row_mut(i));
        }
        i += 1;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mat_i8(rows: usize, cols: usize, seed: i32) -> Mat<i8> {
        Mat::from_fn(rows, cols, |r, c| {
            ((r as i32 * 31 + c as i32 * 17 + seed) % 255 - 127) as i8
        })
    }

    fn mat_i16(rows: usize, cols: usize, seed: i32) -> Mat<i16> {
        Mat::from_fn(rows, cols, |r, c| {
            ((r as i32 * 131 + c as i32 * 37 + seed * 7) % 4001 - 2000) as i16
        })
    }

    #[test]
    fn pack_round_trips() {
        for (k, n) in [(1, 1), (3, 8), (12, 24), (5, 7), (17, 9), (300, 13)] {
            let w = mat_i8(k, n, 3);
            let p = PackedMat::pack(&w);
            assert_eq!(p.shape(), (k, n));
            assert_eq!(p.to_mat(), w);
        }
    }

    #[test]
    fn pack_transposed_matches_pack_of_transpose() {
        for (n, k) in [(4, 4), (7, 5), (27, 8), (1, 9)] {
            let src = mat_i16(n, k, 11);
            let a = PackedMat::pack_transposed(&src);
            let b = PackedMat::pack(&src.transpose());
            assert_eq!(a, b);
        }
    }

    #[test]
    fn packed_get_matches_source() {
        let w = mat_i8(9, 11, 5);
        let p = PackedMat::pack(&w);
        for k in 0..9 {
            for j in 0..11 {
                assert_eq!(p.get(k, j), w[(k, j)]);
            }
        }
    }

    #[test]
    fn i16_i8_matches_reference_including_stats() {
        for (m, k, n) in [(1, 1, 1), (2, 3, 2), (27, 12, 24), (5, 300, 7), (3, 257, 9)] {
            let a = mat_i16(m, k, 1);
            let w = mat_i8(k, n, 2);
            let bias: Vec<i32> = (0..n as i32).map(|j| j * 1000 - 500).collect();
            let p = PackedMat::pack(&w);
            for (b, shift) in [(None, 0u32), (Some(bias.as_slice()), 6)] {
                let (c_ref, s_ref) =
                    crate::qops::reference::matmul_i16_i8(&a, &w, b, shift).unwrap();
                let (c_new, s_new) = matmul_i16_i8_packed(&a, &p, b, shift).unwrap();
                assert_eq!(c_new, c_ref, "m={m} k={k} n={n} shift={shift}");
                assert_eq!(s_new, s_ref, "stats m={m} k={k} n={n}");
            }
        }
    }

    #[test]
    fn i16_i16_matches_reference_including_stats() {
        for (m, k, n) in [(1, 1, 1), (27, 8, 27), (4, 65, 3), (2, 2, 17)] {
            let a = mat_i16(m, k, 3);
            let b = mat_i16(k, n, 4);
            let p = PackedMat::pack(&b);
            for shift in [0u32, 5] {
                let (c_ref, s_ref) = crate::qops::reference::matmul_i16_i16(&a, &b, shift).unwrap();
                let (c_new, s_new) = matmul_i16_i16_packed(&a, &p, shift).unwrap();
                assert_eq!(c_new, c_ref);
                assert_eq!(s_new, s_ref);
            }
        }
    }

    #[test]
    fn i16_i8_saturation_counted_like_reference() {
        let a = Mat::filled(1, 8, i16::MAX);
        let w = Mat::filled(8, 1, i8::MAX);
        let p = PackedMat::pack(&w);
        let (c, stats) = matmul_i16_i8_packed(&a, &p, None, 0).unwrap();
        assert_eq!(c[(0, 0)], i16::MAX);
        assert_eq!(stats.saturations, 1);
        assert!(stats.max_abs_acc > i16::MAX as i64);
    }

    #[test]
    fn kc_block_boundary_exact() {
        // K exactly at, below and above the i32 block depth.
        for k in [KC - 1, KC, KC + 1, 2 * KC + 3] {
            let a = Mat::filled(1, k, i16::MIN); // worst-case magnitude
            let w = Mat::filled(k, 1, i8::MIN);
            let p = PackedMat::pack(&w);
            let (c_ref, s_ref) = crate::qops::reference::matmul_i16_i8(&a, &w, None, 15).unwrap();
            let (c_new, s_new) = matmul_i16_i8_packed(&a, &p, None, 15).unwrap();
            assert_eq!(c_new, c_ref, "k={k}");
            assert_eq!(s_new, s_ref, "k={k}");
        }
    }

    #[test]
    fn f32_bit_identical_to_reference() {
        for (m, k, n) in [(1, 1, 1), (27, 12, 24), (9, 33, 7), (3, 100, 11)] {
            let a = Mat::from_fn(m, k, |r, c| ((r * k + c) as f32 * 0.731).sin() * 3.0);
            let b = Mat::from_fn(k, n, |r, c| ((r * n + c) as f32 * 0.377).cos() * 2.0);
            let p = PackedMat::pack(&b);
            let c_ref = crate::ops::reference::matrix_multiply(&a, &b).unwrap();
            let c_new = matrix_multiply_packed(&a, &p).unwrap();
            // Bit-identical, not approximately equal.
            for (x, y) in c_ref.as_slice().iter().zip(c_new.as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn f32_epilogues_match_separate_passes() {
        for (m, k, n) in [(1, 1, 1), (27, 8, 12), (5, 24, 9), (4, 3, 17)] {
            let a = Mat::from_fn(m, k, |r, c| ((r * k + c) as f32 * 0.731).sin() * 3.0);
            let w = Mat::from_fn(k, n, |r, c| ((r * n + c) as f32 * 0.377).cos() * 2.0);
            let bias: Vec<f32> = (0..n).map(|j| (j as f32 * 1.3).sin()).collect();
            let x0 = Mat::from_fn(m, n, |r, c| ((r * n + c) as f32 * 0.53).cos() * 5.0);
            let p = PackedMat::pack(&w);
            let mut want = crate::ops::reference::matrix_multiply(&a, &w).unwrap();
            for r in 0..m {
                for (v, b) in want.row_mut(r).iter_mut().zip(&bias) {
                    *v += b;
                }
            }
            let mut got = Mat::default();
            matrix_multiply_packed_into(&a, &p, Epilogue::Bias(&bias), &mut got).unwrap();
            assert_eq!(got.shape(), want.shape());
            for (x, y) in got.as_slice().iter().zip(want.as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits(), "bias m={m} k={k} n={n}");
            }
            let mut residual = x0.clone();
            matrix_multiply_packed_into(&a, &p, Epilogue::BiasResidual(&bias), &mut residual)
                .unwrap();
            let mut want_residual = x0.clone();
            crate::ops::add_assign(&mut want_residual, &want).unwrap();
            for (x, y) in residual.as_slice().iter().zip(want_residual.as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits(), "residual m={m} k={k} n={n}");
            }
            // a short bias or a misshapen residual is refused
            let short = &bias[..n - 1];
            assert!(matrix_multiply_packed_into(&a, &p, Epilogue::Bias(short), &mut got).is_err());
            let mut wrong = Mat::zeros(m + 1, n);
            let residual = Epilogue::BiasResidual(&bias);
            assert!(matrix_multiply_packed_into(&a, &p, residual, &mut wrong).is_err());
        }
    }

    #[test]
    fn into_variants_match_allocating_across_reused_buffers() {
        // One set of output/pack buffers reused across several shapes must
        // reproduce the allocating entry points exactly (stale contents
        // from a previous, larger shape must never leak through).
        let mut out16 = Mat::<i16>::default();
        let mut outf = Mat::<f32>::default();
        let mut packed8 = PackedMat::<i8>::default();
        let mut packed16 = PackedMat::<i16>::default();
        for (m, k, n) in [(9, 33, 17), (2, 3, 2), (27, 12, 24), (1, 1, 1)] {
            let a = mat_i16(m, k, 5);
            let w8 = mat_i8(k, n, 6);
            let b16 = mat_i16(k, n, 7);
            let af = Mat::from_fn(m, k, |r, c| ((r * k + c) as f32 * 0.31).sin());
            let bf = Mat::from_fn(k, n, |r, c| ((r * n + c) as f32 * 0.17).cos());

            packed8.pack_into(&w8);
            assert_eq!(packed8, PackedMat::pack(&w8));
            let (want, want_s) = matmul_i16_i8_packed(&a, &packed8, None, 4).unwrap();
            let got_s = matmul_i16_i8_packed_into(&a, &packed8, None, 4, &mut out16).unwrap();
            assert_eq!(out16, want);
            assert_eq!(got_s, want_s);

            packed16.pack_transposed_into(&b16.transpose());
            assert_eq!(packed16, PackedMat::pack(&b16));
            let (want, want_s) = matmul_i16_i16_packed(&a, &packed16, 3).unwrap();
            let got_s = matmul_i16_i16_packed_into(&a, &packed16, 3, &mut out16).unwrap();
            assert_eq!(out16, want);
            assert_eq!(got_s, want_s);

            let pf = PackedMat::pack(&bf);
            let want = matrix_multiply_packed(&af, &pf).unwrap();
            matrix_multiply_packed_into(&af, &pf, Epilogue::Store, &mut outf).unwrap();
            assert_eq!(outf, want);
        }
    }

    #[test]
    fn shape_errors_propagate() {
        let a = Mat::<i16>::zeros(2, 3);
        let w = PackedMat::pack(&Mat::<i8>::zeros(4, 2));
        assert!(matmul_i16_i8_packed(&a, &w, None, 0).is_err());
        let w_ok = PackedMat::pack(&Mat::<i8>::zeros(3, 2));
        assert!(matmul_i16_i8_packed(&a, &w_ok, Some(&[0]), 0).is_err());
        let b = PackedMat::pack(&Mat::<i16>::zeros(4, 2));
        assert!(matmul_i16_i16_packed(&a, &b, 0).is_err());
        let f = PackedMat::pack(&Mat::<f32>::zeros(4, 2));
        assert!(matrix_multiply_packed(&Mat::<f32>::zeros(2, 3), &f).is_err());
    }
}
