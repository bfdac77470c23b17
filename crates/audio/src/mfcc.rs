//! The complete MFCC extractor and the paper's two input geometries.
//!
//! # The fixed-point block pipeline
//!
//! Since PR 5 the default extraction path
//! ([`MfccExtractor::extract_into`] and everything built on it) is
//! **block-vectorised and fixed-point** — the on-device shape of the
//! front end the paper runs ahead of its INT8 network:
//!
//! 1. all analysis windows of a clip are windowed and transformed in
//!    one fused pass by the batched `f32` real-FFT path
//!    ([`RealFftPlan::power_spectra_windowed_into`], with pair-fused,
//!    multiplier-free first butterfly stages);
//! 2. each frame's power spectrum is block-scaled into hi/lo `i32`
//!    words (a shared per-frame power-of-two exponent, ~58 bits of
//!    relative dynamic range) and multiplied by the **pre-packed banded
//!    Q15 mel filter bank** with exact `i64` accumulation
//!    ([`kwt_tensor::fixedpoint::MelBankQ15`]);
//! 3. the log-mel stage runs entirely in the integer domain — a
//!    count-leading-zeros + mantissa-LUT base-2 logarithm
//!    ([`kwt_tensor::fixedpoint::ln_q9_scaled`]), **no float
//!    transcendentals** — producing Q9 log-mel rows;
//! 4. the **pre-packed Q15 DCT-II matrix** maps log-mel rows to
//!    cepstral coefficients (exact `i64` accumulation), which are scaled
//!    back to `f32` by one exact power of two. The front end emits
//!    only `f32` features: the A8 device image's `i8` input is
//!    quantised from them by the device session's input path
//!    (`kwt-baremetal`), the one place A8 features are quantised.
//!
//! Every fixed-point stage is exact integer arithmetic with
//! row-independent outputs, so streaming extraction (one frame at a
//! time, [`MfccExtractor::compute_frame_into`]) is **bit-identical** to
//! batch extraction for any chunk split. The seed's double-precision pipeline
//! survives verbatim as [`MfccExtractor::extract_reference`] — the
//! oracle the golden-vector tests and the `paper check-frontend`
//! agreement gate compare against.

use crate::dct::dct_ii_matrix;
use crate::fft::{power_spectrum, RealFftPlan};
use crate::mel::MelFilterbank;
use crate::window::WindowKind;
use crate::{AudioError, Result};
use kwt_tensor::fixedpoint::{self, pow2_f64, MelBankQ15, Q15_BITS};
use kwt_tensor::{Mat, PackedMat};
use serde::{Deserialize, Serialize};

/// Fractional bits of the fixed-point log-mel rows.
const LOGMEL_FRAC_BITS: u32 = 9;

/// `2^-(Q15 + Q9)` — the exact scale returning DCT accumulators to
/// float cepstral coefficients.
const FEAT_SCALE: f32 = 1.0 / (1u64 << (Q15_BITS + LOGMEL_FRAC_BITS)) as f32;

/// Spectrum block scaling targets the frame maximum at `[2^29, 2^30)`.
const SPEC_TARGET_EXP: i32 = 29;

/// Largest per-frame spectrum shift (bounds the scaled log floor so the
/// extended band representation stays inside `i64`).
const MAX_SPEC_SHIFT: i32 = 75;

/// One power bin block-scaled into its hi word and 28-bit residual: one
/// exact product and one floor, the top word the hi spectrum, the low 28
/// bits the residual. The frame's shift keeps `0 <= p · 2^(shift + 28) <=
/// 2^58`, where the floor `as i64` is the floor `as u64`: the signed
/// conversion compiles to one instruction, the unsigned one to a branch.
#[inline(always)]
fn block_scale(p: f32, scale28: f64) -> (i32, i32) {
    let full = (p as f64 * scale28) as i64;
    ((full >> 28) as i32, (full & ((1 << 28) - 1)) as i32)
}

/// Reusable work buffers for the MFCC pipeline — one arena shared by every
/// frame an extractor computes. [`MfccExtractor::extract_into`] and
/// [`MfccExtractor::compute_frame_into`] thread one of these
/// through each call, so steady-state extraction performs no heap
/// allocation once the buffers have grown to the configured sizes.
#[derive(Debug, Clone, Default)]
pub struct MfccScratch {
    /// FFT work buffers (`n_fft / 2` each).
    re32: Vec<f32>,
    im32: Vec<f32>,
    /// Flat `n_frames x n_bins` power spectra.
    spec32: Vec<f32>,
    /// Block-scaled integer spectra (hi word at `2^shift`, lo word the
    /// `2^(shift + 28)` residual) and their per-frame shifts.
    spec_q: Mat<i32>,
    spec_lo: Mat<i32>,
    shifts: Vec<i32>,
    /// Mel band energies (exact `i64`; hi at `2^(shift + 15)`, lo at
    /// `2^(shift + 43)`).
    bands_q: Mat<i64>,
    bands_lo: Mat<i64>,
    /// Q9 log-mel rows.
    logmel_q: Mat<i16>,
    /// DCT accumulators (Q24).
    feat_q: Mat<i64>,
    /// Single-frame output staging for `compute_frame_into`.
    frame_mat: Mat<f32>,
    /// Padded clip staging for the `extract_padded*` entry points.
    padded: Vec<f32>,
}

impl MfccScratch {
    /// An empty scratch; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Configuration of the MFCC front end.
///
/// Use [`MfccConfig::default`] and adjust, or start from the paper presets
/// [`kwt1_frontend`] / [`kwt_tiny_frontend`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MfccConfig {
    /// Input sample rate in Hz.
    pub sample_rate: u32,
    /// FFT size (power of two, >= win_length is typical).
    pub n_fft: usize,
    /// Analysis window length in samples.
    pub win_length: usize,
    /// Hop between successive frames in samples.
    pub hop_length: usize,
    /// Number of mel filter bank channels.
    pub n_mels: usize,
    /// Number of cepstral coefficients kept (the `F` of `[F, T]`).
    pub n_mfcc: usize,
    /// Window function.
    pub window: WindowKind,
    /// Lowest filter bank frequency (Hz).
    pub fmin: f64,
    /// Highest filter bank frequency (Hz).
    pub fmax: f64,
    /// Floor added before the log to avoid `log(0)`.
    pub log_floor: f64,
    /// Nominal clip length in samples; [`MfccExtractor::extract_padded`]
    /// zero-pads or truncates to this length so the frame count is fixed.
    pub clip_samples: usize,
}

impl Default for MfccConfig {
    fn default() -> Self {
        MfccConfig {
            sample_rate: 16_000,
            n_fft: 512,
            win_length: 400,
            hop_length: 160,
            n_mels: 40,
            n_mfcc: 40,
            window: WindowKind::Hann,
            fmin: 20.0,
            fmax: 8_000.0,
            log_floor: 1e-10,
            clip_samples: 16_000,
        }
    }
}

impl MfccConfig {
    /// Number of frames produced from a clip of exactly
    /// [`MfccConfig::clip_samples`] samples.
    pub fn frames_per_clip(&self) -> usize {
        if self.clip_samples < self.win_length {
            0
        } else {
            1 + (self.clip_samples - self.win_length) / self.hop_length
        }
    }
}

/// Precomputed MFCC pipeline (window, filter bank, DCT) — see the
/// module docs for the fixed-point block pipeline the default
/// paths run.
///
/// # Example
///
/// ```
/// use kwt_audio::{MfccConfig, MfccExtractor};
///
/// # fn main() -> Result<(), kwt_audio::AudioError> {
/// let ex = MfccExtractor::new(MfccConfig::default())?;
/// let audio: Vec<f32> = (0..16_000)
///     .map(|i| (2.0 * std::f32::consts::PI * 440.0 * i as f32 / 16_000.0).sin())
///     .collect();
/// let m = ex.extract_padded(&audio)?;
/// assert_eq!(m.shape(), (98, 40)); // 98 frames x 40 coefficients
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct MfccExtractor {
    config: MfccConfig,
    window: Vec<f32>,
    filterbank: MelFilterbank,
    dct: Vec<Vec<f64>>,
    rfft: RealFftPlan,
    /// Pre-packed banded Q15 mel filter bank.
    mel_q15: MelBankQ15,
    /// Pre-packed Q15 DCT-II matrix (`n_mels x n_mfcc` logical shape).
    dct_q15: PackedMat<i16>,
    /// `round(ln(log_floor) * 2^9)` — the log-mel value of an exactly
    /// zero band energy.
    floor_ln_q9: i16,
}

impl MfccExtractor {
    /// Validates the configuration and precomputes the transforms.
    ///
    /// # Errors
    ///
    /// Returns [`AudioError::InvalidConfig`] for inconsistent parameters
    /// (zero hop, window longer than FFT, more coefficients than mel
    /// channels, ...).
    pub fn new(config: MfccConfig) -> Result<Self> {
        if config.hop_length == 0 {
            return Err(AudioError::InvalidConfig {
                field: "hop_length",
                why: "must be positive".into(),
            });
        }
        if config.win_length == 0 {
            return Err(AudioError::InvalidConfig {
                field: "win_length",
                why: "must be positive".into(),
            });
        }
        if config.win_length > config.n_fft {
            return Err(AudioError::InvalidConfig {
                field: "win_length",
                why: format!(
                    "window ({}) longer than FFT ({})",
                    config.win_length, config.n_fft
                ),
            });
        }
        if config.n_mfcc > config.n_mels {
            return Err(AudioError::InvalidConfig {
                field: "n_mfcc",
                why: format!(
                    "cannot keep {} coefficients from {} mel bands",
                    config.n_mfcc, config.n_mels
                ),
            });
        }
        if config.clip_samples < config.win_length {
            return Err(AudioError::InvalidConfig {
                field: "clip_samples",
                why: "clip shorter than one analysis window".into(),
            });
        }
        if !(config.log_floor.is_finite() && config.log_floor > 0.0) {
            return Err(AudioError::InvalidConfig {
                field: "log_floor",
                why: format!("must be positive and finite, got {}", config.log_floor),
            });
        }
        let filterbank = MelFilterbank::new(
            config.n_mels,
            config.n_fft,
            config.sample_rate as f64,
            config.fmin,
            config.fmax,
        )?;
        let window = config.window.coefficients(config.win_length);
        let dct = dct_ii_matrix(config.n_mfcc, config.n_mels);
        let rfft = RealFftPlan::new(config.n_fft)?;
        // Pack the fixed-point transforms: the mel bank banded (each
        // triangle keeps only its nonzero bin span), the DCT-II matrix
        // as the logical `n_mels x n_mfcc` right operand of
        // logmel-row x DCT^T. Both quantise to Q15 by rounding.
        let n_bins = filterbank.n_bins();
        let mel_q15 = MelBankQ15::pack(config.n_mels, n_bins, |m, k| filterbank.filter(m)[k]);
        let dct_q15 = PackedMat::pack(&Mat::from_fn(config.n_mels, config.n_mfcc, |j, k| {
            fixedpoint::quantize_q15(dct[k][j])
        }));
        let floor_ln_q9 = (config.log_floor.ln() * (1i64 << LOGMEL_FRAC_BITS) as f64)
            .round()
            .clamp(i16::MIN as f64, i16::MAX as f64) as i16;
        Ok(MfccExtractor {
            config,
            window,
            filterbank,
            dct,
            rfft,
            mel_q15,
            dct_q15,
            floor_ln_q9,
        })
    }

    /// The validated configuration.
    pub fn config(&self) -> &MfccConfig {
        &self.config
    }

    /// Frames produced for a nominal clip — the `T` of the model input.
    pub fn frames_per_clip(&self) -> usize {
        self.config.frames_per_clip()
    }

    /// Extracts MFCCs from a signal of arbitrary length (>= one window).
    ///
    /// Returns a `T x F` matrix: one row per frame, one column per
    /// coefficient — the orientation the transformer tokenises (each time
    /// frame becomes one patch, paper Table III `PATCH DIM = [F, 1]`).
    ///
    /// # Errors
    ///
    /// Returns [`AudioError::SignalTooShort`] if fewer samples than one
    /// window are supplied.
    pub fn extract(&self, samples: &[f32]) -> Result<Mat<f32>> {
        let mut out = Mat::default();
        self.extract_into(samples, &mut out, &mut MfccScratch::new())?;
        Ok(out)
    }

    /// [`extract`](Self::extract) into a caller-provided output matrix and
    /// scratch arena — the allocation-free steady-state path (bit-identical
    /// to [`extract`](Self::extract), which delegates here). Runs the
    /// fixed-point block pipeline of the module docs.
    ///
    /// # Errors
    ///
    /// Same contract as [`extract`](Self::extract).
    pub fn extract_into(
        &self,
        samples: &[f32],
        out: &mut Mat<f32>,
        scratch: &mut MfccScratch,
    ) -> Result<()> {
        let c = &self.config;
        validate_samples(samples)?;
        if samples.len() < c.win_length {
            return Err(AudioError::SignalTooShort {
                got: samples.len(),
                need: c.win_length,
            });
        }
        let n_frames = 1 + (samples.len() - c.win_length) / c.hop_length;
        self.fixed_pipeline_into(samples, n_frames, scratch, out);
        Ok(())
    }

    /// Computes the MFCC row of a single analysis window of exactly
    /// [`MfccConfig::win_length`] samples — the shared kernel behind batch
    /// and streaming extraction. The window runs the same
    /// fixed-point block pipeline with a one-frame block; every stage is
    /// exact, row-independent integer arithmetic, which is what makes
    /// incremental extraction bit-identical to [`extract`](Self::extract).
    ///
    /// # Errors
    ///
    /// Returns [`AudioError::SignalTooShort`] unless `samples` holds
    /// exactly one window and [`AudioError::InvalidConfig`] unless `out`
    /// has [`MfccConfig::n_mfcc`] elements.
    pub fn compute_frame_into(
        &self,
        samples: &[f32],
        out: &mut [f32],
        scratch: &mut MfccScratch,
    ) -> Result<()> {
        let c = &self.config;
        if samples.len() != c.win_length {
            return Err(AudioError::SignalTooShort {
                got: samples.len(),
                need: c.win_length,
            });
        }
        if out.len() != c.n_mfcc {
            return Err(AudioError::InvalidConfig {
                field: "out",
                why: format!("frame row holds {} values, need {}", out.len(), c.n_mfcc),
            });
        }
        let mut frame_mat = std::mem::take(&mut scratch.frame_mat);
        self.fixed_pipeline_into(samples, 1, scratch, &mut frame_mat);
        out.copy_from_slice(frame_mat.row(0));
        scratch.frame_mat = frame_mat;
        Ok(())
    }

    /// The fixed-point block pipeline over `n_frames` hop-spaced frames
    /// of `samples`: fused window + batched f32 FFT → block-scaled i32
    /// spectra → banded Q15 mel bank → integer log-mel → Q15 DCT GEMM →
    /// f32 rows of `out`.
    fn fixed_pipeline_into(
        &self,
        samples: &[f32],
        n_frames: usize,
        s: &mut MfccScratch,
        out: &mut Mat<f32>,
    ) {
        let c = &self.config;
        let n_bins = self.filterbank.n_bins();
        self.rfft.power_spectra_windowed_into(
            samples,
            &self.window,
            c.hop_length,
            n_frames,
            &mut s.re32,
            &mut s.im32,
            &mut s.spec32,
        );

        // Block-scale each frame's spectrum into a hi/lo i32 pair: the
        // hi word places the frame maximum in [2^29, 2^30) under a shared
        // per-frame power-of-two shift; the lo word carries the hi word's
        // truncation residual at 28 further fractional bits. Together the
        // pair preserves ~58 bits of relative dynamic range through the
        // mel product — enough for leakage-level bands to survive down to
        // the log floor, which a single 32-bit word cannot represent.
        s.spec_q.resize(n_frames, n_bins);
        s.spec_lo.resize(n_frames, n_bins);
        s.shifts.clear();
        for t in 0..n_frames {
            let row = &s.spec32[t * n_bins..(t + 1) * n_bins];
            let max = row.iter().cloned().fold(0.0f32, f32::max);
            let shift = if max > 0.0 {
                // Exponent from the f32 bit pattern (subnormals collapse
                // toward the cap, where the log floor dominates anyway).
                let e = ((max.to_bits() >> 23) & 0xFF) as i32 - 127;
                (SPEC_TARGET_EXP - e).min(MAX_SPEC_SHIFT)
            } else {
                0
            };
            s.shifts.push(shift);
            let scale28 = pow2_f64(shift + 28);
            let (hrow, lrow) = (s.spec_q.row_mut(t), s.spec_lo.row_mut(t));
            for ((q, lo), &p) in hrow.iter_mut().zip(lrow.iter_mut()).zip(row) {
                (*q, *lo) = block_scale(p, scale28);
            }
        }

        // Mel filter bank (banded Q15): exact i64 band energies, hi at
        // 2^(shift + 15) and lo at 2^(shift + 43).
        self.mel_q15
            .apply_block_into(&s.spec_q, &mut s.bands_q)
            .expect("mel bank shape fixed at construction");
        self.mel_q15
            .apply_block_into(&s.spec_lo, &mut s.bands_lo)
            .expect("mel bank shape fixed at construction");

        // Integer log-mel: ln(band + log_floor) in Q9, with the band
        // up-shifted for mantissa precision and the floor folded in at
        // the extended scale — no float transcendentals.
        s.logmel_q.resize(n_frames, c.n_mels);
        for t in 0..n_frames {
            let shift = s.shifts[t];
            let brow = s.bands_q.row(t);
            let lorow = s.bands_lo.row(t);
            let lrow = s.logmel_q.row_mut(t);
            for ((l, &hi), &lo) in lrow.iter_mut().zip(brow).zip(lorow) {
                *l = self.log_band_q9(hi, lo, shift);
            }
        }

        // DCT-II: exact i64 Q24 accumulators, scaled to f32 by one exact
        // power of two.
        fixedpoint::matmul_i16_q15_i64_packed_into(&s.logmel_q, &self.dct_q15, &mut s.feat_q)
            .expect("DCT shape fixed at construction");
        out.resize(n_frames, c.n_mfcc);
        for (o, &q) in out.as_mut_slice().iter_mut().zip(s.feat_q.as_slice()) {
            *o = q as f32 * FEAT_SCALE;
        }
    }

    /// One band's Q9 log-mel value from its hi/lo `i64` energy words
    /// (`hi` at `2^(shift + 15)`, `lo` at `2^(shift + 43)`): merge the
    /// words into one `u64` at the finest affordable scale, fold in the
    /// scaled log floor, and take the integer logarithm.
    fn log_band_q9(&self, hi: i64, lo: i64, shift: i32) -> i16 {
        // Merge: while the hi word is small the full 28 extra residual
        // bits fit next to it; a large hi word doesn't need them.
        let (v0, sp0) = if hi < (1 << 35) {
            (
                ((hi.max(0) as u64) << 28) + lo.max(0) as u64,
                shift + Q15_BITS as i32 + 28,
            )
        } else {
            (hi as u64, shift + Q15_BITS as i32)
        };
        if v0 == 0 {
            return self.floor_ln_q9;
        }
        // Up-shift for mantissa precision, then add the floor at the
        // extended scale. If the scaled floor overflows the safe range it
        // dwarfs any representable band — the result is ln(floor).
        let g = ((v0.leading_zeros() as i32) - 11).clamp(0, 12);
        let sp = sp0 + g;
        let floor_q = (self.config.log_floor * pow2_f64(sp)).round();
        if floor_q >= (1u64 << 62) as f64 {
            return self.floor_ln_q9;
        }
        let v = (v0 << g).saturating_add(floor_q as u64);
        fixedpoint::ln_q9_scaled(v, sp as i64).clamp(i16::MIN as i64, i16::MAX as i64) as i16
    }

    /// The seed repository's per-frame pipeline, kept verbatim as the
    /// double-precision oracle for the fixed-point path (mirroring
    /// `ops::reference` in the tensor crate): a generic complex f64 FFT,
    /// dense f64 mel/DCT products and true `ln`, with fresh buffers for
    /// every frame. The fixed-point [`extract`](Self::extract) tracks it
    /// to a few `1e-3` absolute (golden-vector tests pin the bound); the
    /// `paper check-frontend` gate asserts model-level top-1 agreement.
    ///
    /// # Errors
    ///
    /// Same contract as [`extract`](Self::extract).
    pub fn extract_reference(&self, samples: &[f32]) -> Result<Mat<f32>> {
        let c = &self.config;
        if samples.len() < c.win_length {
            return Err(AudioError::SignalTooShort {
                got: samples.len(),
                need: c.win_length,
            });
        }
        let n_frames = 1 + (samples.len() - c.win_length) / c.hop_length;
        let mut out = Mat::zeros(n_frames, c.n_mfcc);
        let mut frame = vec![0.0f32; c.win_length];
        for t in 0..n_frames {
            let start = t * c.hop_length;
            for i in 0..c.win_length {
                frame[i] = samples[start + i] * self.window[i];
            }
            let spec = power_spectrum(&frame, c.n_fft)?;
            let bands = self.filterbank.apply(&spec)?;
            let logs: Vec<f64> = bands.iter().map(|&e| (e + c.log_floor).ln()).collect();
            let row = out.row_mut(t);
            for (k, drow) in self.dct.iter().enumerate() {
                row[k] = drow.iter().zip(&logs).map(|(d, l)| d * l).sum::<f64>() as f32;
            }
        }
        Ok(out)
    }

    /// [`extract_reference`](Self::extract_reference) over a zero-padded /
    /// truncated clip — the one-shot seed path the engine benchmarks
    /// measure against.
    ///
    /// # Errors
    ///
    /// Same contract as [`extract_padded`](Self::extract_padded).
    pub fn extract_padded_reference(&self, samples: &[f32]) -> Result<Mat<f32>> {
        let n = self.config.clip_samples;
        let mut buf = vec![0.0f32; n];
        let take = samples.len().min(n);
        buf[..take].copy_from_slice(&samples[..take]);
        self.extract_reference(&buf)
    }

    /// Like [`extract`](Self::extract) but first zero-pads or truncates the
    /// signal to [`MfccConfig::clip_samples`], guaranteeing exactly
    /// [`frames_per_clip`](Self::frames_per_clip) rows.
    ///
    /// # Errors
    ///
    /// Propagates [`MfccExtractor::extract`] errors (cannot occur for a
    /// valid config since padding enforces the length).
    pub fn extract_padded(&self, samples: &[f32]) -> Result<Mat<f32>> {
        let mut out = Mat::default();
        self.extract_padded_into(samples, &mut out, &mut MfccScratch::new())?;
        Ok(out)
    }

    /// [`extract_padded`](Self::extract_padded) into a caller-provided
    /// output matrix and scratch arena (the padded clip buffer lives in the
    /// scratch) — the allocation-free steady-state path used by the
    /// inference engine's `classify`.
    ///
    /// # Errors
    ///
    /// Same contract as [`extract_padded`](Self::extract_padded).
    pub fn extract_padded_into(
        &self,
        samples: &[f32],
        out: &mut Mat<f32>,
        scratch: &mut MfccScratch,
    ) -> Result<()> {
        let n = self.config.clip_samples;
        let mut padded = std::mem::take(&mut scratch.padded);
        padded.clear();
        padded.resize(n, 0.0);
        let take = samples.len().min(n);
        padded[..take].copy_from_slice(&samples[..take]);
        let result = self.extract_into(&padded, out, scratch);
        scratch.padded = padded;
        result
    }
}

/// Rejects the first NaN, infinite or subnormal sample with a typed
/// [`AudioError::InvalidSample`] — the ingest guard shared by batch
/// extraction ([`MfccExtractor::extract_into`]) and streaming pushes
/// (`kwt-engine` and `kwt-serve`). Signed zeros pass; true subnormals
/// are rejected rather than flushed so a corrupted capture path is loud
/// instead of silently denormal-flushing into wrong features. Public so
/// ingest layers above the front end (the streaming engine and the serve
/// crate) can apply the
/// exact same gate before buffering a chunk.
///
/// # Errors
///
/// Returns [`AudioError::InvalidSample`] for the first offending sample.
pub fn validate_samples(samples: &[f32]) -> Result<()> {
    for (index, &s) in samples.iter().enumerate() {
        let why = if s.is_nan() {
            "NaN"
        } else if s.is_infinite() {
            "infinite"
        } else if s != 0.0 && s.abs() < f32::MIN_POSITIVE {
            "subnormal"
        } else {
            continue;
        };
        return Err(AudioError::InvalidSample { index, why });
    }
    Ok(())
}

/// The KWT-1 front end: `[F, T] = [40, 98]` (25 ms window, 10 ms hop,
/// 40 mel channels, 40 cepstral coefficients over a 1 s clip at 16 kHz).
///
/// # Errors
///
/// Never fails in practice; returns the constructor's validation error type
/// for API uniformity.
pub fn kwt1_frontend() -> Result<MfccExtractor> {
    MfccExtractor::new(MfccConfig::default())
}

/// The KWT-Tiny front end of §III: `[F, T] = [16, 26]` — the paper's
/// down-sampling of the input MFCC "from the original [40, 98] to
/// [16, 26]". 62.5 ms windows with 37.5 ms hop over the same 1 s clip give
/// 26 frames; 16 DCT coefficients are kept from 40 mel bands.
///
/// # Errors
///
/// Never fails in practice; returns the constructor's validation error type
/// for API uniformity.
pub fn kwt_tiny_frontend() -> Result<MfccExtractor> {
    MfccExtractor::new(MfccConfig {
        n_fft: 1024,
        win_length: 1000,
        hop_length: 600,
        n_mfcc: 16,
        ..MfccConfig::default()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tone(freq: f64, n: usize) -> Vec<f32> {
        (0..n)
            .map(|i| {
                let cycles = (i as f64 * freq / 16_000.0).fract();
                (2.0 * std::f64::consts::PI * cycles).sin() as f32
            })
            .collect()
    }

    #[test]
    fn block_scale_matches_the_unsigned_floor() {
        let unsigned = |p: f32, scale28: f64| {
            let full = (p as f64 * scale28) as u64;
            ((full >> 28) as i32, (full & ((1 << 28) - 1)) as i32)
        };
        // every shift a frame maximum of any f32 exponent gets, up to the
        // cap, with the maximum itself, the bins below it, and 0
        for shift in SPEC_TARGET_EXP - 127..=MAX_SPEC_SHIFT {
            let scale28 = pow2_f64(shift + 28);
            let e = SPEC_TARGET_EXP - shift;
            let low = f32::from_bits(((e + 127) as u32) << 23);
            let top = f32::from_bits(((e + 127) as u32) << 23 | 0x7F_FFFF);
            let full = top as f64 * scale28;
            assert!(full < (1u64 << 58) as f64 && full > (1u64 << 57) as f64);
            for p in [
                0.0,
                f32::from_bits(1),
                f32::MIN_POSITIVE,
                low / 3.0,
                low,
                top,
            ] {
                assert_eq!(
                    block_scale(p, scale28),
                    unsigned(p, scale28),
                    "p = {p:e}, shift {shift}"
                );
            }
        }
        // non-finite bins (an overflowed spectrum) agree too
        for p in [f32::INFINITY, f32::NAN] {
            assert_eq!(block_scale(p, 1.0), unsigned(p, 1.0), "p = {p}");
        }
    }

    #[test]
    fn kwt1_geometry() {
        let fe = kwt1_frontend().unwrap();
        assert_eq!(fe.frames_per_clip(), 98);
        assert_eq!(fe.config().n_mfcc, 40);
        let m = fe.extract_padded(&tone(440.0, 16_000)).unwrap();
        assert_eq!(m.shape(), (98, 40));
    }

    #[test]
    fn kwt_tiny_geometry() {
        let fe = kwt_tiny_frontend().unwrap();
        assert_eq!(fe.frames_per_clip(), 26);
        assert_eq!(fe.config().n_mfcc, 16);
        let m = fe.extract_padded(&tone(440.0, 16_000)).unwrap();
        assert_eq!(m.shape(), (26, 16));
    }

    #[test]
    fn fixed_extract_tracks_reference() {
        // The fixed-point block pipeline must agree with the seed's f64
        // path to the Q15/Q9 quantisation budget, for both geometries.
        // Realistic (noisy) clips track tightly; *pure* tones are the
        // adversarial case — their leakage bands sit far below the log
        // floor, on the f32 FFT noise floor, where band-level errors are
        // large in relative terms but clamped near `ln(log_floor)` — so
        // they get a coarser bound. tests/golden.rs pins the realistic
        // bound against frozen f64 vectors.
        for (noise_amp, bound) in [(0.05f64, 0.02f32), (0.0, 0.5)] {
            for fe in [kwt1_frontend().unwrap(), kwt_tiny_frontend().unwrap()] {
                let clip: Vec<f32> = (0..16_000u64)
                    .map(|i| {
                        let t = i as f64 / 16_000.0;
                        let h = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                        let noise = ((h >> 40) as f64 / (1u64 << 24) as f64) - 0.5;
                        ((2.0 * std::f64::consts::PI * 431.0 * t).sin() * 0.5
                            + (2.0 * std::f64::consts::PI * 1740.0 * t).sin() * 0.25
                            + noise * noise_amp) as f32
                    })
                    .collect();
                let fixed = fe.extract_padded(&clip).unwrap();
                let reference = fe.extract_padded_reference(&clip).unwrap();
                assert_eq!(fixed.shape(), reference.shape());
                let mut max_err = 0.0f32;
                for (a, b) in fixed.as_slice().iter().zip(reference.as_slice()) {
                    max_err = max_err.max((a - b).abs());
                }
                assert!(
                    max_err <= bound,
                    "fixed path deviates by {max_err} (noise {noise_amp}, bound {bound})"
                );
            }
        }
    }

    #[test]
    fn extract_padded_handles_short_and_long() {
        let fe = kwt_tiny_frontend().unwrap();
        let short = fe.extract_padded(&tone(300.0, 4_000)).unwrap();
        let long = fe.extract_padded(&tone(300.0, 40_000)).unwrap();
        assert_eq!(short.shape(), (26, 16));
        assert_eq!(long.shape(), (26, 16));
    }

    #[test]
    fn extract_rejects_too_short() {
        let fe = kwt1_frontend().unwrap();
        assert!(matches!(
            fe.extract(&[0.0; 10]),
            Err(AudioError::SignalTooShort { .. })
        ));
    }

    #[test]
    fn different_tones_produce_different_mfcc() {
        let fe = kwt_tiny_frontend().unwrap();
        let a = fe.extract_padded(&tone(300.0, 16_000)).unwrap();
        let b = fe.extract_padded(&tone(2_000.0, 16_000)).unwrap();
        let dist: f32 = a
            .as_slice()
            .iter()
            .zip(b.as_slice())
            .map(|(x, y)| (x - y) * (x - y))
            .sum();
        assert!(dist > 1.0, "tones should be separable, dist {dist}");
    }

    #[test]
    fn silence_is_uniformly_floored() {
        let fe = kwt_tiny_frontend().unwrap();
        let m = fe.extract_padded(&vec![0.0; 16_000]).unwrap();
        // all frames identical for silence
        let first = m.row(0).to_vec();
        for t in 1..m.rows() {
            assert_eq!(m.row(t), &first[..]);
        }
        // and the zero-band log floor matches the reference's ln(floor)
        let reference = fe.extract_padded_reference(&vec![0.0; 16_000]).unwrap();
        for (a, b) in m.as_slice().iter().zip(reference.as_slice()) {
            assert!((a - b).abs() < 0.05, "floored {a} vs reference {b}");
        }
    }

    #[test]
    fn mfcc_is_time_shift_stable_for_stationary_signal() {
        // 800 Hz has a 20-sample period; the 600-sample hop spans exactly 30
        // periods, so every interior frame sees a near-identical waveform
        // and the MFCC rows must match to the fixed-point resolution.
        let fe = kwt_tiny_frontend().unwrap();
        let m = fe.extract_padded(&tone(800.0, 16_000)).unwrap();
        let mid = m.row(10).to_vec();
        for t in 5..20 {
            for k in 0..16 {
                assert!(
                    (m[(t, k)] - mid[k]).abs() < 2e-2,
                    "frame {t} coeff {k} deviates"
                );
            }
        }
    }

    #[test]
    fn config_validation() {
        let bad_hop = MfccConfig {
            hop_length: 0,
            ..MfccConfig::default()
        };
        assert!(MfccExtractor::new(bad_hop).is_err());
        let bad_win = MfccConfig {
            win_length: 600,
            n_fft: 512,
            ..MfccConfig::default()
        };
        assert!(MfccExtractor::new(bad_win).is_err());
        let bad_mfcc = MfccConfig {
            n_mfcc: 50,
            n_mels: 40,
            ..MfccConfig::default()
        };
        assert!(MfccExtractor::new(bad_mfcc).is_err());
        let bad_clip = MfccConfig {
            clip_samples: 100,
            ..MfccConfig::default()
        };
        assert!(MfccExtractor::new(bad_clip).is_err());
        let zero_win = MfccConfig {
            win_length: 0,
            ..MfccConfig::default()
        };
        assert!(MfccExtractor::new(zero_win).is_err());
        let bad_floor = MfccConfig {
            log_floor: 0.0,
            ..MfccConfig::default()
        };
        assert!(MfccExtractor::new(bad_floor).is_err());
    }

    #[test]
    fn frames_formula_matches_extract() {
        for (win, hop, clip) in [(400, 160, 16_000), (1_000, 600, 16_000), (256, 128, 8_000)] {
            let cfg = MfccConfig {
                n_fft: 1024,
                win_length: win,
                hop_length: hop,
                clip_samples: clip,
                n_mfcc: 13,
                ..MfccConfig::default()
            };
            let fe = MfccExtractor::new(cfg).unwrap();
            let m = fe.extract_padded(&vec![0.1; clip]).unwrap();
            assert_eq!(m.rows(), fe.frames_per_clip());
        }
    }

    #[test]
    fn invalid_samples_get_typed_errors() {
        let fe = kwt_tiny_frontend().unwrap();
        let mut clip = tone(440.0, 16_000);
        clip[123] = f32::NAN;
        assert_eq!(
            fe.extract(&clip).unwrap_err(),
            AudioError::InvalidSample {
                index: 123,
                why: "NaN"
            }
        );
        clip[123] = f32::NEG_INFINITY;
        assert_eq!(
            fe.extract_padded(&clip).unwrap_err(),
            AudioError::InvalidSample {
                index: 123,
                why: "infinite"
            }
        );
        clip[123] = -f32::MIN_POSITIVE / 4.0;
        assert!(matches!(
            fe.extract(&clip).unwrap_err(),
            AudioError::InvalidSample {
                index: 123,
                why: "subnormal"
            }
        ));
        // signed zeros are ordinary silence
        clip[123] = -0.0;
        fe.extract(&clip).unwrap();
    }

    #[test]
    fn huge_amplitude_clips_stay_finite() {
        // Negative spectrum shifts (very loud input) and the i16 log-mel
        // clamp must keep the pipeline well-defined.
        let fe = kwt_tiny_frontend().unwrap();
        let loud: Vec<f32> = tone(700.0, 16_000).iter().map(|s| s * 1e6).collect();
        let m = fe.extract_padded(&loud).unwrap();
        assert!(m.as_slice().iter().all(|v| v.is_finite()));
        // At +120 dB the leakage bands sit on the f32 FFT noise floor, so
        // only coarse agreement with the f64 oracle is meaningful here.
        let reference = fe.extract_padded_reference(&loud).unwrap();
        for (a, b) in m.as_slice().iter().zip(reference.as_slice()) {
            assert!((a - b).abs() < 2.0, "loud clip: {a} vs {b}");
        }
    }
}
