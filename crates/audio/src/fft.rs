//! Radix-2 iterative FFT over split real/imaginary `f64` buffers.
//!
//! A hand-rolled FFT keeps the front end dependency-free and is plenty for
//! the ≤1024-point transforms the KWT geometries need.
//!
//! Two flavours exist:
//!
//! * the generic complex transforms ([`fft_in_place`] /
//!   [`power_spectrum`]) — the seed implementation, kept as the reference
//!   oracle (mirroring `ops::reference` in the tensor crate);
//! * [`RealFftPlan`] — the fast path for real input, used by the MFCC
//!   extractor's hot loop: a half-size complex FFT with precomputed
//!   twiddle and bit-reversal tables plus an `O(n)` untangling step,
//!   roughly halving the arithmetic and touching half the memory. Equal to
//!   the reference up to f64 rounding (`~1e-12` relative — asserted by
//!   the `plan_matches_reference_spectrum` test).

use crate::{AudioError, Result};

fn check(re: &[f64], im: &[f64]) -> Result<usize> {
    if re.len() != im.len() {
        return Err(AudioError::FftBufferMismatch {
            re: re.len(),
            im: im.len(),
        });
    }
    let n = re.len();
    if n == 0 || !n.is_power_of_two() {
        return Err(AudioError::FftLengthNotPowerOfTwo { len: n });
    }
    Ok(n)
}

/// In-place decimation-in-time radix-2 FFT.
///
/// # Errors
///
/// Returns [`AudioError::FftLengthNotPowerOfTwo`] unless the length is a
/// power of two, and [`AudioError::FftBufferMismatch`] if the buffers
/// differ in length.
///
/// # Example
/// ```
/// # fn main() -> Result<(), kwt_audio::AudioError> {
/// // FFT of an impulse is flat.
/// let mut re = vec![1.0, 0.0, 0.0, 0.0];
/// let mut im = vec![0.0; 4];
/// kwt_audio::fft_in_place(&mut re, &mut im)?;
/// assert!(re.iter().all(|&x| (x - 1.0).abs() < 1e-12));
/// # Ok(())
/// # }
/// ```
pub fn fft_in_place(re: &mut [f64], im: &mut [f64]) -> Result<()> {
    let n = check(re, im)?;
    // Bit-reversal permutation.
    let mut j = 0usize;
    for i in 0..n {
        if i < j {
            re.swap(i, j);
            im.swap(i, j);
        }
        let mut bit = n >> 1;
        while bit > 0 && j & bit != 0 {
            j ^= bit;
            bit >>= 1;
        }
        j |= bit;
    }
    // Butterflies.
    let mut len = 2;
    while len <= n {
        let ang = -2.0 * std::f64::consts::PI / len as f64;
        let (wr, wi) = (ang.cos(), ang.sin());
        let mut i = 0;
        while i < n {
            let (mut cur_r, mut cur_i) = (1.0f64, 0.0f64);
            for k in 0..len / 2 {
                let (ur, ui) = (re[i + k], im[i + k]);
                let (vr0, vi0) = (re[i + k + len / 2], im[i + k + len / 2]);
                let vr = vr0 * cur_r - vi0 * cur_i;
                let vi = vr0 * cur_i + vi0 * cur_r;
                re[i + k] = ur + vr;
                im[i + k] = ui + vi;
                re[i + k + len / 2] = ur - vr;
                im[i + k + len / 2] = ui - vi;
                let next_r = cur_r * wr - cur_i * wi;
                cur_i = cur_r * wi + cur_i * wr;
                cur_r = next_r;
            }
            i += len;
        }
        len <<= 1;
    }
    Ok(())
}

/// In-place inverse FFT (conjugate / forward / conjugate / scale).
///
/// # Errors
///
/// Same contract as [`fft_in_place`].
pub fn ifft_in_place(re: &mut [f64], im: &mut [f64]) -> Result<()> {
    let n = check(re, im)?;
    for v in im.iter_mut() {
        *v = -*v;
    }
    fft_in_place(re, im)?;
    let inv = 1.0 / n as f64;
    for i in 0..n {
        re[i] *= inv;
        im[i] *= -inv;
    }
    Ok(())
}

/// One-sided power spectrum of a real frame, zero-padded to `n_fft`.
///
/// Returns `n_fft / 2 + 1` bins of `|X_k|^2`.
///
/// # Errors
///
/// Returns [`AudioError::FftLengthNotPowerOfTwo`] unless `n_fft` is a power
/// of two, and [`AudioError::SignalTooShort`]... never: frames shorter than
/// `n_fft` are zero-padded; frames longer are truncated.
pub fn power_spectrum(frame: &[f32], n_fft: usize) -> Result<Vec<f64>> {
    let (mut re, mut im, mut out) = (Vec::new(), Vec::new(), Vec::new());
    power_spectrum_into(frame, n_fft, &mut re, &mut im, &mut out)?;
    Ok(out)
}

/// [`power_spectrum`] over caller-provided FFT work buffers and output
/// vector — allocation-free once the buffers have grown to `n_fft`
/// elements, and bit-identical to [`power_spectrum`].
///
/// # Errors
///
/// Same contract as [`power_spectrum`].
pub fn power_spectrum_into(
    frame: &[f32],
    n_fft: usize,
    re: &mut Vec<f64>,
    im: &mut Vec<f64>,
    out: &mut Vec<f64>,
) -> Result<()> {
    if n_fft == 0 || !n_fft.is_power_of_two() {
        return Err(AudioError::FftLengthNotPowerOfTwo { len: n_fft });
    }
    re.clear();
    re.resize(n_fft, 0.0);
    im.clear();
    im.resize(n_fft, 0.0);
    for (i, &s) in frame.iter().take(n_fft).enumerate() {
        re[i] = s as f64;
    }
    fft_in_place(re, im)?;
    out.clear();
    out.extend((0..=n_fft / 2).map(|k| re[k] * re[k] + im[k] * im[k]));
    Ok(())
}

/// A precomputed plan for power spectra of real frames at one FFT size —
/// the front end's hot-loop transform (see the module docs).
///
/// The `n` real samples are packed into `n/2` complex values, transformed
/// by a half-size FFT over precomputed twiddle/bit-reversal tables, and
/// untangled into the `n/2 + 1` one-sided spectrum bins.
///
/// Two precisions coexist:
///
/// * the original `f64` single-frame path
///   ([`power_spectrum_into`](Self::power_spectrum_into)) — the
///   high-precision transform behind the float oracle;
/// * a **batched `f32` path**
///   ([`power_spectra_block_into`](Self::power_spectra_block_into))
///   processing flat contiguous frame blocks with size-specialised first
///   butterfly stages (the `len = 2` and `len = 4` stages of the fixed
///   512/256-point half-size transforms are multiplier-free) — the hot
///   loop of the fixed-point MFCC front end. Frames transform
///   independently, so block output is bit-identical to frame-at-a-time
///   output.
#[derive(Debug, Clone)]
pub struct RealFftPlan {
    n: usize,
    half: usize,
    bitrev: Vec<u32>,
    /// Stage twiddles of the half-size FFT, flattened: for each
    /// `len = 2, 4, .., half`, the `len/2` factors `e^{-2πij/len}`.
    tw_re: Vec<f64>,
    tw_im: Vec<f64>,
    /// Untangling twiddles `e^{-2πik/n}`, `k = 0 ..= half`.
    un_re: Vec<f64>,
    un_im: Vec<f64>,
    /// `f32` copies of the twiddle tables for the batched path.
    tw_re32: Vec<f32>,
    tw_im32: Vec<f32>,
    un_re32: Vec<f32>,
    un_im32: Vec<f32>,
}

impl RealFftPlan {
    /// Builds the tables for `n`-point transforms.
    ///
    /// # Errors
    ///
    /// Returns [`AudioError::FftLengthNotPowerOfTwo`] unless `n` is a
    /// power of two `>= 2`.
    pub fn new(n: usize) -> Result<Self> {
        if n < 2 || !n.is_power_of_two() {
            return Err(AudioError::FftLengthNotPowerOfTwo { len: n });
        }
        let half = n / 2;
        let mut bitrev = vec![0u32; half];
        let mut j = 0usize;
        for slot in bitrev.iter_mut() {
            *slot = j as u32;
            let mut bit = half >> 1;
            while bit > 0 && j & bit != 0 {
                j ^= bit;
                bit >>= 1;
            }
            j |= bit;
        }
        let mut tw_re = Vec::new();
        let mut tw_im = Vec::new();
        let mut len = 2;
        while len <= half {
            for k in 0..len / 2 {
                let ang = -2.0 * std::f64::consts::PI * k as f64 / len as f64;
                tw_re.push(ang.cos());
                tw_im.push(ang.sin());
            }
            len <<= 1;
        }
        let (mut un_re, mut un_im) = (Vec::with_capacity(half + 1), Vec::with_capacity(half + 1));
        for k in 0..=half {
            let ang = -2.0 * std::f64::consts::PI * k as f64 / n as f64;
            un_re.push(ang.cos());
            un_im.push(ang.sin());
        }
        let tw_re32 = tw_re.iter().map(|&v| v as f32).collect();
        let tw_im32 = tw_im.iter().map(|&v| v as f32).collect();
        let un_re32 = un_re.iter().map(|&v| v as f32).collect();
        let un_im32 = un_im.iter().map(|&v| v as f32).collect();
        Ok(RealFftPlan {
            n,
            half,
            bitrev,
            tw_re,
            tw_im,
            un_re,
            un_im,
            tw_re32,
            tw_im32,
            un_re32,
            un_im32,
        })
    }

    /// The planned FFT size.
    pub fn n(&self) -> usize {
        self.n
    }

    /// In-place half-size complex FFT over the precomputed tables.
    fn fft_half(&self, re: &mut [f64], im: &mut [f64]) {
        let m = self.half;
        for i in 0..m {
            let j = self.bitrev[i] as usize;
            if i < j {
                re.swap(i, j);
                im.swap(i, j);
            }
        }
        let mut tw_off = 0;
        let mut len = 2;
        while len <= m {
            let hl = len / 2;
            let tr = &self.tw_re[tw_off..tw_off + hl];
            let ti = &self.tw_im[tw_off..tw_off + hl];
            let mut i = 0;
            while i < m {
                for k in 0..hl {
                    let (ur, ui) = (re[i + k], im[i + k]);
                    let (vr0, vi0) = (re[i + k + hl], im[i + k + hl]);
                    let vr = vr0 * tr[k] - vi0 * ti[k];
                    let vi = vr0 * ti[k] + vi0 * tr[k];
                    re[i + k] = ur + vr;
                    im[i + k] = ui + vi;
                    re[i + k + hl] = ur - vr;
                    im[i + k + hl] = ui - vi;
                }
                i += len;
            }
            tw_off += hl;
            len <<= 1;
        }
    }

    /// In-place half-size complex `f32` FFT — the fixed-point front
    /// end's transform. Identical butterfly arithmetic to the radix-2
    /// `f64` path, but stages are **fused in pairs** so the data makes
    /// half as many passes through memory: the multiplier-free `len = 2`
    /// and `len = 4` stages run as one pass, then stages `(8, 16)`,
    /// `(32, 64)`, ... run pairwise with all four butterfly operands held
    /// in registers. Fusing only reorders *independent* butterflies, so
    /// the result is bit-identical to running the stages separately.
    ///
    /// Every pass is a lane-wise loop over equal-length slices (block
    /// quarters and their twiddles), so no index check survives and LLVM
    /// vectorises the butterflies without changing any element's
    /// operation order.
    fn fft_half_f32(&self, re: &mut [f32], im: &mut [f32]) {
        let m = self.half;
        let (re, im) = (&mut re[..m], &mut im[..m]);
        for (i, &j) in self.bitrev.iter().enumerate() {
            let j = j as usize;
            if i < j {
                re.swap(i, j);
                im.swap(i, j);
            }
        }
        if m >= 4 {
            first_pass(re, im);
        } else if m == 2 {
            let (ur, ui) = (re[0], im[0]);
            let (vr, vi) = (re[1], im[1]);
            re[0] = ur + vr;
            im[0] = ui + vi;
            re[1] = ur - vr;
            im[1] = ui - vi;
        }
        // Fused double stages (len, 2 * len) from len = 8 upward. The
        // flat twiddle table stores stage `len` at offset `len / 2 - 1`.
        let mut len = 8;
        while 2 * len <= m {
            let hl = len / 2;
            let w1 = self.twiddles(hl - 1, hl);
            let (w2, w3) = (self.twiddles(len - 1, hl), self.twiddles(len - 1 + hl, hl));
            for (rc, ic) in re
                .chunks_exact_mut(2 * len)
                .zip(im.chunks_exact_mut(2 * len))
            {
                // quarters: q0 = [0, hl), q1 = [hl, 2hl), q2, q3
                let (rh0, rh1) = rc.split_at_mut(len);
                let (ih0, ih1) = ic.split_at_mut(len);
                let (r0, r1) = rh0.split_at_mut(hl);
                let (i0, i1) = ih0.split_at_mut(hl);
                let (r2, r3) = rh1.split_at_mut(hl);
                let (i2, i3) = ih1.split_at_mut(hl);
                fused_stages(r0, i0, r1, i1, r2, i2, r3, i3, w1, w2, w3);
            }
            len *= 4;
        }
        // Lone final stage when the stage count past len = 4 is odd.
        if len <= m {
            let hl = len / 2;
            let w = self.twiddles(hl - 1, hl);
            for (rc, ic) in re.chunks_exact_mut(len).zip(im.chunks_exact_mut(len)) {
                let (r0, r1) = rc.split_at_mut(hl);
                let (i0, i1) = ic.split_at_mut(hl);
                radix2_stage(r0, i0, r1, i1, w);
            }
        }
    }

    /// `len` stage twiddles of the `f32` table from flat offset `off`.
    fn twiddles(&self, off: usize, len: usize) -> Twiddles<'_> {
        Twiddles {
            re: &self.tw_re32[off..off + len],
            im: &self.tw_im32[off..off + len],
        }
    }

    /// Batched `f32` one-sided power spectra over a flat contiguous frame
    /// block — the fixed-point front end's hot loop.
    ///
    /// `frames` holds `n_frames` rows of exactly `n` samples each
    /// (windowed and zero-padded by the caller); `out` receives
    /// `n_frames` rows of `n/2 + 1` bins of `|X_k|^2`, flat. `re`/`im`
    /// are reusable work buffers (grown to `n/2` once). Each frame's
    /// transform is independent, so the output is bit-identical whether
    /// the block holds one frame or a whole clip.
    ///
    /// # Panics
    ///
    /// Panics if `frames.len() != n_frames * n`.
    pub fn power_spectra_block_into(
        &self,
        frames: &[f32],
        n_frames: usize,
        re: &mut Vec<f32>,
        im: &mut Vec<f32>,
        out: &mut Vec<f32>,
    ) {
        assert_eq!(
            frames.len(),
            n_frames * self.n,
            "frame block must be n_frames * n samples"
        );
        let n_bins = self.half + 1;
        out.clear();
        out.resize(n_frames * n_bins, 0.0);
        re.clear();
        re.resize(self.half, 0.0);
        im.clear();
        im.resize(self.half, 0.0);
        for t in 0..n_frames {
            let frame = &frames[t * self.n..(t + 1) * self.n];
            for (j, pair) in frame.chunks_exact(2).enumerate() {
                re[j] = pair[0];
                im[j] = pair[1];
            }
            self.fft_half_f32(re, im);
            self.untangle_power(re, im, &mut out[t * n_bins..(t + 1) * n_bins]);
        }
    }

    /// Windowed batched power spectra straight from the raw signal — the
    /// front end's fused window + pack + FFT + untangle pass. Frame `t`
    /// covers `samples[t * hop .. t * hop + window.len())`, is multiplied
    /// by `window` and zero-padded to the planned size on the fly (no
    /// intermediate frame buffer), then transformed exactly like
    /// [`power_spectra_block_into`](Self::power_spectra_block_into) —
    /// the two paths are bit-identical.
    ///
    /// # Panics
    ///
    /// Panics if `window` is longer than the planned size or the last
    /// frame overruns `samples`.
    #[allow(clippy::too_many_arguments)] // the front end's one fused call
    pub fn power_spectra_windowed_into(
        &self,
        samples: &[f32],
        window: &[f32],
        hop: usize,
        n_frames: usize,
        re: &mut Vec<f32>,
        im: &mut Vec<f32>,
        out: &mut Vec<f32>,
    ) {
        let win = window.len();
        assert!(win <= self.n, "window longer than the planned FFT size");
        assert!(
            n_frames == 0 || (n_frames - 1) * hop + win <= samples.len(),
            "frame range exceeds the signal"
        );
        let n_bins = self.half + 1;
        out.clear();
        out.resize(n_frames * n_bins, 0.0);
        re.clear();
        re.resize(self.half, 0.0);
        im.clear();
        im.resize(self.half, 0.0);
        for t in 0..n_frames {
            let src = &samples[t * hop..t * hop + win];
            // window + pack x[2j] + i·x[2j+1], zero-padding past `win`
            let pairs = src.chunks_exact(2).zip(window.chunks_exact(2));
            for ((r, i), (x, w)) in re.iter_mut().zip(im.iter_mut()).zip(pairs) {
                *r = x[0] * w[0];
                *i = x[1] * w[1];
            }
            if win % 2 == 1 {
                let full = win / 2;
                re[full] = src[win - 1] * window[win - 1];
                im[full] = 0.0;
            }
            for j in win.div_ceil(2)..self.half {
                re[j] = 0.0;
                im[j] = 0.0;
            }
            self.fft_half_f32(re, im);
            self.untangle_power(re, im, &mut out[t * n_bins..(t + 1) * n_bins]);
        }
    }

    /// Untangles one transformed frame into its `n/2 + 1` power bins:
    /// `X_k = (Z_k + conj(Z_{m-k}))/2 - (i/2) e^{-2πik/n} (Z_k - conj(Z_{m-k}))`.
    /// Bins `k` and `m - k` share every intermediate (their even/odd
    /// parts are conjugates and `w_{m-k} = -conj(w_k)`), so the loop
    /// computes the pair together at just over half the cost of two
    /// independent bins: a lane-wise pass over `k = 1 .. m/2` reading and
    /// writing the mirrored bins `m - k` through reversed slices.
    fn untangle_power(&self, re: &[f32], im: &[f32], orow: &mut [f32]) {
        let m = self.half;
        // bins 0 and m from Z_0 alone (E = (re, 0), O = (0, im))
        let bin0 = |wr: f32, wi: f32| -> f32 {
            let (er, oi) = (re[0], im[0]);
            let (tr, ti) = (-oi * wi, oi * wr);
            let xr = er + ti;
            let xi = -tr;
            xr * xr + xi * xi
        };
        orow[0] = bin0(self.un_re32[0], self.un_im32[0]);
        orow[m] = bin0(self.un_re32[m], self.un_im32[m]);
        if m < 2 {
            return;
        }
        let mid = m / 2;
        // k = 1 + t and its mirror m - k = m - 1 - t, for t < mid - 1
        let (lo, hi) = orow[1..m].split_at_mut(mid - 1);
        let (centre, hi) = hi.split_first_mut().expect("m >= 2 leaves the middle bin");
        let (zr, zi) = (&re[1..mid], &im[1..mid]);
        let (cr, ci) = (&re[mid + 1..m], &im[mid + 1..m]);
        let (wr, wi) = (&self.un_re32[1..mid], &self.un_im32[1..mid]);
        untangle_pairs(zr, zi, cr, ci, wr, wi, lo, hi);
        // middle bin k = m/2 pairs with itself: E = (zr, 0), O = (0, zi)
        let (er, oi) = (re[mid], im[mid]);
        let (wr, wi) = (self.un_re32[mid], self.un_im32[mid]);
        let (tr, ti) = (-oi * wi, oi * wr);
        let xr = er + ti;
        let xi = -tr;
        *centre = xr * xr + xi * xi;
    }

    /// One-sided power spectrum of a real frame (zero-padded / truncated
    /// to the planned size), over caller work buffers — the
    /// allocation-free fast counterpart of [`power_spectrum_into`].
    /// Writes `n/2 + 1` bins of `|X_k|^2` into `out`.
    pub fn power_spectrum_into(
        &self,
        frame: &[f32],
        re: &mut Vec<f64>,
        im: &mut Vec<f64>,
        out: &mut Vec<f64>,
    ) {
        let half = self.half;
        re.clear();
        re.resize(half, 0.0);
        im.clear();
        im.resize(half, 0.0);
        // Pack x[2j] + i·x[2j+1] into the half-size complex buffer.
        let take = frame.len().min(self.n);
        for (j, pair) in frame[..take].chunks(2).enumerate() {
            re[j] = pair[0] as f64;
            im[j] = if pair.len() > 1 { pair[1] as f64 } else { 0.0 };
        }
        self.fft_half(re, im);
        // Untangle: X_k = (Z_k + conj(Z_{m-k}))/2 - (i/2) e^{-2πik/n} (Z_k - conj(Z_{m-k})).
        out.clear();
        for k in 0..=half {
            let (zr, zi) = if k == half {
                (re[0], im[0])
            } else {
                (re[k], im[k])
            };
            let kc = (half - k) % half;
            let (cr, ci) = (re[kc], -im[kc]);
            // even part (Z + Zc)/2, odd part (Z - Zc)/2
            let (er, ei) = ((zr + cr) * 0.5, (zi + ci) * 0.5);
            let (or_, oi) = ((zr - cr) * 0.5, (zi - ci) * 0.5);
            // w = e^{-2πik/n}; X = E + (-i) · w · O
            let (wr, wi) = (self.un_re[k], self.un_im[k]);
            let (tr, ti) = (or_ * wr - oi * wi, or_ * wi + oi * wr);
            let xr = er + ti;
            let xi = ei - tr;
            out.push(xr * xr + xi * xi);
        }
    }
}

/// A stage's twiddle factors `e^{-2πik/len}`, real and imaginary parts.
#[derive(Debug, Clone, Copy)]
struct Twiddles<'a> {
    re: &'a [f32],
    im: &'a [f32],
}

/// Stages `len = 2` and `len = 4` of the half-size FFT, fused, over every
/// 4-point block: twiddles 1 and -i, multiplier-free (w = -i maps
/// `(vr, vi)` to `(vi, -vr)`). Each lane is one block, so the adds run
/// across blocks.
fn first_pass(re: &mut [f32], im: &mut [f32]) {
    for (rc, ic) in re.chunks_exact_mut(4).zip(im.chunks_exact_mut(4)) {
        let (a0r, a0i) = (rc[0], ic[0]);
        let (a1r, a1i) = (rc[1], ic[1]);
        let (a2r, a2i) = (rc[2], ic[2]);
        let (a3r, a3i) = (rc[3], ic[3]);
        // stage 2
        let (b0r, b0i) = (a0r + a1r, a0i + a1i);
        let (b1r, b1i) = (a0r - a1r, a0i - a1i);
        let (b2r, b2i) = (a2r + a3r, a2i + a3i);
        let (b3r, b3i) = (a2r - a3r, a2i - a3i);
        // stage 4: (b0, b2) with w = 1, (b1, b3) with w = -i
        rc[0] = b0r + b2r;
        ic[0] = b0i + b2i;
        rc[2] = b0r - b2r;
        ic[2] = b0i - b2i;
        let (vr, vi) = (b3i, -b3r);
        rc[1] = b1r + vr;
        ic[1] = b1i + vi;
        rc[3] = b1r - vr;
        ic[3] = b1i - vi;
    }
}

/// Stages `len` and `2 len` fused over one `2 len` block held as four
/// `len / 2` quarters: stage `len` on `(q0, q1)` and `(q2, q3)` with
/// twiddles `w1`, then stage `2 len` on `(q0, q2)` with `w2` and `(q1, q3)`
/// with `w3`. The quarters arrive as separate arguments so LLVM knows
/// they do not overlap, and every slice is cut to the quarter length.
#[allow(clippy::too_many_arguments)] // four quarters, split re/im
#[inline(always)]
fn fused_stages(
    r0: &mut [f32],
    i0: &mut [f32],
    r1: &mut [f32],
    i1: &mut [f32],
    r2: &mut [f32],
    i2: &mut [f32],
    r3: &mut [f32],
    i3: &mut [f32],
    w1: Twiddles<'_>,
    w2: Twiddles<'_>,
    w3: Twiddles<'_>,
) {
    let n = r0.len();
    let (i0, r1, i1) = (&mut i0[..n], &mut r1[..n], &mut i1[..n]);
    let (r2, i2, r3, i3) = (&mut r2[..n], &mut i2[..n], &mut r3[..n], &mut i3[..n]);
    let (w1r, w1i, w2r, w2i) = (&w1.re[..n], &w1.im[..n], &w2.re[..n], &w2.im[..n]);
    let (w3r, w3i) = (&w3.re[..n], &w3.im[..n]);
    for k in 0..n {
        let (w1r, w1i) = (w1r[k], w1i[k]);
        // stage len on (q0, q1) and (q2, q3)
        let (vr, vi) = (r1[k] * w1r - i1[k] * w1i, r1[k] * w1i + i1[k] * w1r);
        let (b0r, b0i) = (r0[k] + vr, i0[k] + vi);
        let (b1r, b1i) = (r0[k] - vr, i0[k] - vi);
        let (vr, vi) = (r3[k] * w1r - i3[k] * w1i, r3[k] * w1i + i3[k] * w1r);
        let (b2r, b2i) = (r2[k] + vr, i2[k] + vi);
        let (b3r, b3i) = (r2[k] - vr, i2[k] - vi);
        // stage 2len: (b0, b2) with w2[k], (b1, b3) with w3[k] = tw2[k + hl]
        let (w2r, w2i) = (w2r[k], w2i[k]);
        let (ur, ui) = (b2r * w2r - b2i * w2i, b2r * w2i + b2i * w2r);
        r0[k] = b0r + ur;
        i0[k] = b0i + ui;
        r2[k] = b0r - ur;
        i2[k] = b0i - ui;
        let (w3r, w3i) = (w3r[k], w3i[k]);
        let (ur, ui) = (b3r * w3r - b3i * w3i, b3r * w3i + b3i * w3r);
        r1[k] = b1r + ur;
        i1[k] = b1i + ui;
        r3[k] = b1r - ur;
        i3[k] = b1i - ui;
    }
}

/// One radix-2 stage over one block held as two halves, with twiddles `w`.
#[inline(always)]
fn radix2_stage(r0: &mut [f32], i0: &mut [f32], r1: &mut [f32], i1: &mut [f32], w: Twiddles<'_>) {
    let n = r0.len();
    let (i0, r1, i1) = (&mut i0[..n], &mut r1[..n], &mut i1[..n]);
    let (tr, ti) = (&w.re[..n], &w.im[..n]);
    for k in 0..n {
        let (ur, ui) = (r0[k], i0[k]);
        let (vr0, vi0) = (r1[k], i1[k]);
        let vr = vr0 * tr[k] - vi0 * ti[k];
        let vi = vr0 * ti[k] + vi0 * tr[k];
        r0[k] = ur + vr;
        i0[k] = ui + vi;
        r1[k] = ur - vr;
        i1[k] = ui - vi;
    }
}

/// The paired bins of [`RealFftPlan::untangle_power`]: lane `t` is bin
/// `k = 1 + t` from `Z_k = (zr, zi)[t]`, `Z_{m-k} = (cr, ci)[n - 1 - t]`
/// and `w_k = (wr, wi)[t]`, written to `lo[t]`, and its mirror bin
/// `m - k`, written to `hi[n - 1 - t]`.
#[allow(clippy::too_many_arguments)] // split re/im inputs, two outputs
#[inline(always)]
fn untangle_pairs(
    zr: &[f32],
    zi: &[f32],
    cr: &[f32],
    ci: &[f32],
    wr: &[f32],
    wi: &[f32],
    lo: &mut [f32],
    hi: &mut [f32],
) {
    let n = lo.len();
    let (zr, zi, cr, ci) = (&zr[..n], &zi[..n], &cr[..n], &ci[..n]);
    let (wr, wi, hi) = (&wr[..n], &wi[..n], &mut hi[..n]);
    for t in 0..n {
        let r = n - 1 - t;
        let (zr, zi) = (zr[t], zi[t]);
        let (cr, ci) = (cr[r], ci[r]);
        let (er, ei) = ((zr + cr) * 0.5, (zi - ci) * 0.5);
        let (or_, oi) = ((zr - cr) * 0.5, (zi + ci) * 0.5);
        let (wr, wi) = (wr[t], wi[t]);
        let (tr, ti) = (or_ * wr - oi * wi, or_ * wi + oi * wr);
        // X_k = E + (-i) w O
        let xr = er + ti;
        let xi = ei - tr;
        lo[t] = xr * xr + xi * xi;
        // X_{m-k} = conj(E) + (-i) conj(w O)
        let xr = er - ti;
        let xi = -(ei + tr);
        hi[r] = xr * xr + xi * xi;
    }
}

/// The scalar `f32` kernels this module ran before its passes were
/// rewritten as lane-wise loops — the oracle the bit-identity tests hold
/// the vectorised kernels to.
#[cfg(test)]
mod scalar {
    use super::RealFftPlan;

    impl RealFftPlan {
        /// In-place half-size complex `f32` FFT — the fixed-point front
        /// end's transform. Identical butterfly arithmetic to the radix-2
        /// `f64` path, but stages are **fused in pairs** so the data makes
        /// half as many passes through memory: the multiplier-free `len = 2`
        /// and `len = 4` stages run as one pass, then stages `(8, 16)`,
        /// `(32, 64)`, ... run pairwise with all four butterfly operands held
        /// in registers. Fusing only reorders *independent* butterflies, so
        /// the result is bit-identical to running the stages separately.
        pub(super) fn scalar_fft_half_f32(&self, re: &mut [f32], im: &mut [f32]) {
            let m = self.half;
            for i in 0..m {
                let j = self.bitrev[i] as usize;
                if i < j {
                    re.swap(i, j);
                    im.swap(i, j);
                }
            }
            // Pass 1: stages len = 2 and len = 4 fused (twiddles 1 and -i —
            // multiplier-free; w = -i maps (vr, vi) to (vi, -vr)).
            if m >= 4 {
                for (rc, ic) in re.chunks_exact_mut(4).zip(im.chunks_exact_mut(4)) {
                    let (a0r, a0i) = (rc[0], ic[0]);
                    let (a1r, a1i) = (rc[1], ic[1]);
                    let (a2r, a2i) = (rc[2], ic[2]);
                    let (a3r, a3i) = (rc[3], ic[3]);
                    // stage 2
                    let (b0r, b0i) = (a0r + a1r, a0i + a1i);
                    let (b1r, b1i) = (a0r - a1r, a0i - a1i);
                    let (b2r, b2i) = (a2r + a3r, a2i + a3i);
                    let (b3r, b3i) = (a2r - a3r, a2i - a3i);
                    // stage 4: (b0, b2) with w = 1, (b1, b3) with w = -i
                    rc[0] = b0r + b2r;
                    ic[0] = b0i + b2i;
                    rc[2] = b0r - b2r;
                    ic[2] = b0i - b2i;
                    let (vr, vi) = (b3i, -b3r);
                    rc[1] = b1r + vr;
                    ic[1] = b1i + vi;
                    rc[3] = b1r - vr;
                    ic[3] = b1i - vi;
                }
            } else if m == 2 {
                let (ur, ui) = (re[0], im[0]);
                let (vr, vi) = (re[1], im[1]);
                re[0] = ur + vr;
                im[0] = ui + vi;
                re[1] = ur - vr;
                im[1] = ui - vi;
            }
            // Fused double stages (len, 2 * len) from len = 8 upward. The
            // flat twiddle table stores stage `len` at offset `len / 2 - 1`.
            let mut len = 8;
            while 2 * len <= m {
                let hl = len / 2;
                let tw1r = &self.tw_re32[hl - 1..hl - 1 + hl];
                let tw1i = &self.tw_im32[hl - 1..hl - 1 + hl];
                let tw2r = &self.tw_re32[len - 1..len - 1 + len];
                let tw2i = &self.tw_im32[len - 1..len - 1 + len];
                for (rc, ic) in re
                    .chunks_exact_mut(2 * len)
                    .zip(im.chunks_exact_mut(2 * len))
                {
                    // quarters: q0 = [0, hl), q1 = [hl, 2hl), q2, q3
                    let (rh0, rh1) = rc.split_at_mut(len);
                    let (ih0, ih1) = ic.split_at_mut(len);
                    let (r0, r1) = rh0.split_at_mut(hl);
                    let (i0, i1) = ih0.split_at_mut(hl);
                    let (r2, r3) = rh1.split_at_mut(hl);
                    let (i2, i3) = ih1.split_at_mut(hl);
                    for k in 0..hl {
                        let (w1r, w1i) = (tw1r[k], tw1i[k]);
                        // stage len on (q0, q1) and (q2, q3)
                        let (vr, vi) = (r1[k] * w1r - i1[k] * w1i, r1[k] * w1i + i1[k] * w1r);
                        let (b0r, b0i) = (r0[k] + vr, i0[k] + vi);
                        let (b1r, b1i) = (r0[k] - vr, i0[k] - vi);
                        let (vr, vi) = (r3[k] * w1r - i3[k] * w1i, r3[k] * w1i + i3[k] * w1r);
                        let (b2r, b2i) = (r2[k] + vr, i2[k] + vi);
                        let (b3r, b3i) = (r2[k] - vr, i2[k] - vi);
                        // stage 2len: (b0, b2) with tw2[k], (b1, b3) with tw2[k + hl]
                        let (w2r, w2i) = (tw2r[k], tw2i[k]);
                        let (ur, ui) = (b2r * w2r - b2i * w2i, b2r * w2i + b2i * w2r);
                        r0[k] = b0r + ur;
                        i0[k] = b0i + ui;
                        r2[k] = b0r - ur;
                        i2[k] = b0i - ui;
                        let (w2r, w2i) = (tw2r[hl + k], tw2i[hl + k]);
                        let (ur, ui) = (b3r * w2r - b3i * w2i, b3r * w2i + b3i * w2r);
                        r1[k] = b1r + ur;
                        i1[k] = b1i + ui;
                        r3[k] = b1r - ur;
                        i3[k] = b1i - ui;
                    }
                }
                len *= 4;
            }
            // Lone final stage when the stage count past len = 4 is odd.
            if len <= m {
                let hl = len / 2;
                let tr = &self.tw_re32[hl - 1..hl - 1 + hl];
                let ti = &self.tw_im32[hl - 1..hl - 1 + hl];
                for (rc, ic) in re.chunks_exact_mut(len).zip(im.chunks_exact_mut(len)) {
                    let (r0, r1) = rc.split_at_mut(hl);
                    let (i0, i1) = ic.split_at_mut(hl);
                    for k in 0..hl {
                        let (ur, ui) = (r0[k], i0[k]);
                        let (vr0, vi0) = (r1[k], i1[k]);
                        let vr = vr0 * tr[k] - vi0 * ti[k];
                        let vi = vr0 * ti[k] + vi0 * tr[k];
                        r0[k] = ur + vr;
                        i0[k] = ui + vi;
                        r1[k] = ur - vr;
                        i1[k] = ui - vi;
                    }
                }
            }
        }

        /// Untangles one transformed frame into its `n/2 + 1` power bins:
        /// `X_k = (Z_k + conj(Z_{m-k}))/2 - (i/2) e^{-2πik/n} (Z_k - conj(Z_{m-k}))`.
        /// Bins `k` and `m - k` share every intermediate (their even/odd
        /// parts are conjugates and `w_{m-k} = -conj(w_k)`), so the loop
        /// computes the pair together at just over half the cost of two
        /// independent bins.
        pub(super) fn scalar_untangle_power(&self, re: &[f32], im: &[f32], orow: &mut [f32]) {
            let m = self.half;
            // bins 0 and m from Z_0 alone (E = (re, 0), O = (0, im))
            let bin0 = |wr: f32, wi: f32| -> f32 {
                let (er, oi) = (re[0], im[0]);
                let (tr, ti) = (-oi * wi, oi * wr);
                let xr = er + ti;
                let xi = -tr;
                xr * xr + xi * xi
            };
            orow[0] = bin0(self.un_re32[0], self.un_im32[0]);
            orow[m] = bin0(self.un_re32[m], self.un_im32[m]);
            for k in 1..m.div_ceil(2) {
                let kc = m - k;
                let (zr, zi) = (re[k], im[k]);
                let (cr, ci) = (re[kc], im[kc]);
                let (er, ei) = ((zr + cr) * 0.5, (zi - ci) * 0.5);
                let (or_, oi) = ((zr - cr) * 0.5, (zi + ci) * 0.5);
                let (wr, wi) = (self.un_re32[k], self.un_im32[k]);
                let (tr, ti) = (or_ * wr - oi * wi, or_ * wi + oi * wr);
                // X_k = E + (-i) w O
                let xr = er + ti;
                let xi = ei - tr;
                orow[k] = xr * xr + xi * xi;
                // X_{m-k} = conj(E) + (-i) conj(w O)
                let xr = er - ti;
                let xi = -(ei + tr);
                orow[kc] = xr * xr + xi * xi;
            }
            if m >= 2 {
                // middle bin k = m/2 pairs with itself
                let k = m / 2;
                let (zr, zi) = (re[k], im[k]);
                let (er, oi) = (zr, zi); // E = (zr, 0), O = (0, zi)
                let (wr, wi) = (self.un_re32[k], self.un_im32[k]);
                let (tr, ti) = (-oi * wi, oi * wr);
                let xr = er + ti;
                let xi = -tr;
                orow[k] = xr * xr + xi * xi;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// O(n^2) reference DFT.
    fn naive_dft(re: &[f64], im: &[f64]) -> (Vec<f64>, Vec<f64>) {
        let n = re.len();
        let mut or = vec![0.0; n];
        let mut oi = vec![0.0; n];
        for k in 0..n {
            for t in 0..n {
                let ang = -2.0 * std::f64::consts::PI * (k * t) as f64 / n as f64;
                or[k] += re[t] * ang.cos() - im[t] * ang.sin();
                oi[k] += re[t] * ang.sin() + im[t] * ang.cos();
            }
        }
        (or, oi)
    }

    #[test]
    fn fft_matches_naive_dft() {
        let n = 64;
        let mut re: Vec<f64> = (0..n)
            .map(|i| ((i * 7 + 3) % 13) as f64 * 0.1 - 0.6)
            .collect();
        let mut im: Vec<f64> = (0..n).map(|i| ((i * 5 + 1) % 11) as f64 * 0.05).collect();
        let (wr, wi) = naive_dft(&re, &im);
        fft_in_place(&mut re, &mut im).unwrap();
        for k in 0..n {
            assert!((re[k] - wr[k]).abs() < 1e-9, "re[{k}]");
            assert!((im[k] - wi[k]).abs() < 1e-9, "im[{k}]");
        }
    }

    #[test]
    fn fft_of_sine_concentrates_energy() {
        let n = 256;
        let bin = 17;
        let mut re: Vec<f64> = (0..n)
            .map(|i| (2.0 * std::f64::consts::PI * bin as f64 * i as f64 / n as f64).sin())
            .collect();
        let mut im = vec![0.0; n];
        fft_in_place(&mut re, &mut im).unwrap();
        let mag: Vec<f64> = (0..n)
            .map(|k| (re[k] * re[k] + im[k] * im[k]).sqrt())
            .collect();
        let peak = mag
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert!(peak == bin || peak == n - bin);
        assert!((mag[bin] - n as f64 / 2.0).abs() < 1e-6);
    }

    #[test]
    fn ifft_inverts_fft() {
        let n = 128;
        let orig_re: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let orig_im: Vec<f64> = (0..n).map(|i| (i as f64 * 0.11).cos() * 0.3).collect();
        let mut re = orig_re.clone();
        let mut im = orig_im.clone();
        fft_in_place(&mut re, &mut im).unwrap();
        ifft_in_place(&mut re, &mut im).unwrap();
        for i in 0..n {
            assert!((re[i] - orig_re[i]).abs() < 1e-10);
            assert!((im[i] - orig_im[i]).abs() < 1e-10);
        }
    }

    #[test]
    fn parseval_theorem_holds() {
        let n = 512;
        let sig: Vec<f64> = (0..n)
            .map(|i| ((i * 31 + 7) % 97) as f64 / 97.0 - 0.5)
            .collect();
        let mut re = sig.clone();
        let mut im = vec![0.0; n];
        fft_in_place(&mut re, &mut im).unwrap();
        let time_energy: f64 = sig.iter().map(|x| x * x).sum();
        let freq_energy: f64 =
            (0..n).map(|k| re[k] * re[k] + im[k] * im[k]).sum::<f64>() / n as f64;
        assert!((time_energy - freq_energy).abs() < 1e-8 * time_energy.max(1.0));
    }

    #[test]
    fn rejects_bad_lengths() {
        let mut a = vec![0.0; 12];
        let mut b = vec![0.0; 12];
        assert!(matches!(
            fft_in_place(&mut a, &mut b),
            Err(AudioError::FftLengthNotPowerOfTwo { len: 12 })
        ));
        let mut c = vec![0.0; 8];
        assert!(matches!(
            fft_in_place(&mut a, &mut c),
            Err(AudioError::FftBufferMismatch { .. })
        ));
        let mut e: Vec<f64> = vec![];
        let mut e2: Vec<f64> = vec![];
        assert!(fft_in_place(&mut e, &mut e2).is_err());
    }

    #[test]
    fn plan_matches_reference_spectrum() {
        for n in [2usize, 4, 8, 64, 256, 512, 1024] {
            let plan = RealFftPlan::new(n).unwrap();
            for (name, frame) in [
                (
                    "noise",
                    (0..n)
                        .map(|i| (((i * 37 + 11) % 101) as f32 / 101.0) - 0.5)
                        .collect::<Vec<f32>>(),
                ),
                (
                    "short",
                    (0..n.max(2) / 2).map(|i| (i as f32 * 0.3).sin()).collect(),
                ),
                (
                    "long",
                    (0..2 * n).map(|i| (i as f32 * 0.17).cos()).collect(),
                ),
                ("impulse", {
                    let mut v = vec![0.0f32; n];
                    v[0] = 1.0;
                    v
                }),
            ] {
                let want = power_spectrum(&frame, n).unwrap();
                let (mut re, mut im, mut got) = (Vec::new(), Vec::new(), Vec::new());
                plan.power_spectrum_into(&frame, &mut re, &mut im, &mut got);
                assert_eq!(got.len(), want.len(), "n={n} {name}");
                let scale = want.iter().cloned().fold(1.0, f64::max);
                for (k, (a, b)) in got.iter().zip(&want).enumerate() {
                    assert!(
                        (a - b).abs() <= 1e-10 * scale,
                        "n={n} {name} bin {k}: plan {a} vs reference {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn f32_block_spectra_track_f64_reference() {
        for n in [2usize, 4, 8, 16, 64, 256, 512, 1024] {
            let plan = RealFftPlan::new(n).unwrap();
            let n_frames = 3;
            let mut frames = vec![0.0f32; n_frames * n];
            for t in 0..n_frames {
                for i in 0..n {
                    frames[t * n + i] = ((i * 37 + 11 + t * 101) % 103) as f32 / 103.0 - 0.5;
                }
            }
            let (mut re, mut im, mut out) = (Vec::new(), Vec::new(), Vec::new());
            plan.power_spectra_block_into(&frames, n_frames, &mut re, &mut im, &mut out);
            assert_eq!(out.len(), n_frames * (n / 2 + 1));
            for t in 0..n_frames {
                let want = power_spectrum(&frames[t * n..(t + 1) * n], n).unwrap();
                let scale = want.iter().cloned().fold(1e-20, f64::max);
                for (k, (&a, b)) in out[t * (n / 2 + 1)..(t + 1) * (n / 2 + 1)]
                    .iter()
                    .zip(&want)
                    .enumerate()
                {
                    assert!(
                        (a as f64 - b).abs() <= 1e-4 * scale,
                        "n={n} frame {t} bin {k}: f32 {a} vs f64 {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn f32_block_equals_frame_at_a_time() {
        // The bit-identity contract the streaming front end relies on.
        let n = 512;
        let plan = RealFftPlan::new(n).unwrap();
        let n_frames = 5;
        let frames: Vec<f32> = (0..n_frames * n)
            .map(|i| ((i * 29 + 3) % 97) as f32 / 97.0 - 0.5)
            .collect();
        let (mut re, mut im, mut block) = (Vec::new(), Vec::new(), Vec::new());
        plan.power_spectra_block_into(&frames, n_frames, &mut re, &mut im, &mut block);
        let mut one = Vec::new();
        for t in 0..n_frames {
            plan.power_spectra_block_into(
                &frames[t * n..(t + 1) * n],
                1,
                &mut re,
                &mut im,
                &mut one,
            );
            for (k, (a, b)) in one
                .iter()
                .zip(&block[t * (n / 2 + 1)..(t + 1) * (n / 2 + 1)])
                .enumerate()
            {
                assert_eq!(a.to_bits(), b.to_bits(), "frame {t} bin {k}");
            }
        }
    }

    /// Deterministic values spanning large, ordinary, tiny and subnormal
    /// magnitudes of both signs.
    fn wild(i: usize, salt: usize) -> f32 {
        let h = ((i * 2_654_435_761) ^ (salt * 40_503)).wrapping_mul(0x9E37_79B9) >> 7;
        let unit = (h % 10_007) as f32 / 10_007.0 - 0.5;
        match h % 11 {
            0 => unit * 1e12,
            1 => unit * 1e-30,
            2 => unit * 1e-41, // subnormal
            3 => 0.0,
            _ => unit,
        }
    }

    #[test]
    fn vectorised_fft_half_is_bit_identical_to_scalar() {
        for log in 1..=12 {
            let n = 1usize << log;
            let plan = RealFftPlan::new(n).unwrap();
            for salt in 0..3 {
                let re: Vec<f32> = (0..n / 2).map(|i| wild(i, salt)).collect();
                let im: Vec<f32> = (0..n / 2).map(|i| wild(i + n, salt)).collect();
                let (mut vr, mut vi) = (re.clone(), im.clone());
                let (mut sr, mut si) = (re, im);
                plan.fft_half_f32(&mut vr, &mut vi);
                plan.scalar_fft_half_f32(&mut sr, &mut si);
                for k in 0..n / 2 {
                    assert_eq!(vr[k].to_bits(), sr[k].to_bits(), "n={n} re[{k}]");
                    assert_eq!(vi[k].to_bits(), si[k].to_bits(), "n={n} im[{k}]");
                }
            }
        }
    }

    /// [`RealFftPlan::power_spectra_windowed_into`] over the scalar
    /// kernels: the same window and pack, then the scalar transform and
    /// untangle.
    fn scalar_windowed(
        plan: &RealFftPlan,
        samples: &[f32],
        window: &[f32],
        hop: usize,
        n_frames: usize,
    ) -> Vec<f32> {
        let (half, win) = (plan.n / 2, window.len());
        let mut out = vec![0.0; n_frames * (half + 1)];
        for (t, orow) in out.chunks_exact_mut(half + 1).enumerate() {
            let (mut re, mut im) = (vec![0.0f32; half], vec![0.0f32; half]);
            for i in 0..win {
                let x = samples[t * hop + i] * window[i];
                if i % 2 == 0 {
                    re[i / 2] = x;
                } else {
                    im[i / 2] = x;
                }
            }
            plan.scalar_fft_half_f32(&mut re, &mut im);
            plan.scalar_untangle_power(&re, &im, orow);
        }
        out
    }

    #[test]
    fn vectorised_windowed_spectra_are_bit_identical_to_scalar() {
        for log in 1..=12 {
            let n = 1usize << log;
            let plan = RealFftPlan::new(n).unwrap();
            // odd and even windows, full and partial
            for win in [n, n - 1, n / 2 + 1, 1] {
                let hop = win.div_ceil(3);
                let n_frames = 3;
                let samples: Vec<f32> = (0..(n_frames - 1) * hop + win)
                    .map(|i| wild(i, win))
                    .collect();
                let window: Vec<f32> = (0..win).map(|i| 0.5 + wild(i, 7) / 4.0).collect();
                let (mut re, mut im, mut got) = (Vec::new(), Vec::new(), Vec::new());
                plan.power_spectra_windowed_into(
                    &samples, &window, hop, n_frames, &mut re, &mut im, &mut got,
                );
                let want = scalar_windowed(&plan, &samples, &window, hop, n_frames);
                assert_eq!(got.len(), want.len());
                for (k, (a, b)) in got.iter().zip(&want).enumerate() {
                    assert_eq!(a.to_bits(), b.to_bits(), "n={n} win={win} bin {k}");
                }
            }
        }
    }

    #[test]
    fn plan_rejects_bad_lengths() {
        assert!(RealFftPlan::new(0).is_err());
        assert!(RealFftPlan::new(1).is_err());
        assert!(RealFftPlan::new(12).is_err());
        assert_eq!(RealFftPlan::new(512).unwrap().n(), 512);
    }

    #[test]
    fn power_spectrum_dc_and_length() {
        let frame = vec![1.0f32; 16];
        let ps = power_spectrum(&frame, 32).unwrap();
        assert_eq!(ps.len(), 17);
        // 16 ones zero-padded to 32: DC bin = 16^2
        assert!((ps[0] - 256.0).abs() < 1e-9);
        assert!(power_spectrum(&frame, 30).is_err());
    }
}
