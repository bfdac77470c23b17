//! # kwt-audio
//!
//! The audio front end of the KWT pipeline: raw waveform → Mel-frequency
//! cepstral coefficients (MFCC), the `X ∈ R^{T x F}` spectrogram the paper
//! feeds to the transformer (Fig. 1).
//!
//! The chain is the classic one: framing → window → FFT → power spectrum →
//! mel filter bank → log → DCT-II. Two presets reproduce the paper's input
//! geometries:
//!
//! * [`kwt1_frontend`] — `[40, 98]`: 40 coefficients, 98 frames (25 ms
//!   window / 10 ms hop over 1 s at 16 kHz)
//! * [`kwt_tiny_frontend`] — `[16, 26]`: the down-sampled input of §III
//!   (62.5 ms window / 37.5 ms hop), the paper's "reasonable balance
//!   between memory constraints and accuracy constraints"
//!
//! Since PR 5 the default extraction path is **block-vectorised and
//! fixed-point** — a batched `f32` real FFT with fused windowing, a
//! banded Q15 mel bank, an integer (LUT) log-mel and a Q15 DCT, with
//! the seed's double-precision pipeline kept verbatim as the oracle
//! ([`MfccExtractor::extract_reference`]). Features are always `f32`;
//! the A8 device image quantises them to `i8` in its own session input
//! path (`kwt-baremetal`). See the [`mfcc`](MfccExtractor) module docs
//! for the stage-by-stage story.
//! Frames computed one window at a time
//! ([`MfccExtractor::compute_frame_into`], which `kwt-engine`'s
//! streaming core runs over a [`SampleRing`]) are bit-identical to batch
//! extraction for any chunk split.
//!
//! # Example
//!
//! ```
//! use kwt_audio::kwt_tiny_frontend;
//!
//! # fn main() -> Result<(), kwt_audio::AudioError> {
//! let frontend = kwt_tiny_frontend()?;
//! let one_second = vec![0.0f32; 16_000];
//! let mfcc = frontend.extract_padded(&one_second)?;
//! assert_eq!(mfcc.shape(), (26, 16)); // T x F
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dct;
mod error;
mod fft;
mod mel;
mod mfcc;
mod ring;
mod window;

pub use dct::dct_ii_matrix;
pub use error::AudioError;
pub use fft::{fft_in_place, ifft_in_place, power_spectrum, power_spectrum_into, RealFftPlan};
pub use mel::{hz_to_mel, mel_to_hz, MelFilterbank};
pub use mfcc::{
    kwt1_frontend, kwt_tiny_frontend, validate_samples, MfccConfig, MfccExtractor, MfccScratch,
};
pub use ring::{RingOverflow, SampleRing};
pub use window::WindowKind;

/// Convenience alias for results returned by this crate.
pub type Result<T> = std::result::Result<T, AudioError>;
