//! Minimal RIFF/WAVE I/O for Google Speech Commands clips.
//!
//! GSC v2 ships every utterance as 16 kHz mono PCM16 WAV, so this module
//! implements exactly that profile — plus enough header tolerance
//! (`LIST`/`fact`/other chunks are skipped, `fmt ` may carry extension
//! bytes) to read files produced by common recorders. Anything else
//! (stereo, float PCM, other sample rates when the caller demands 16 kHz)
//! is reported as a typed [`WavError`] instead of being resampled: the
//! loader's job is to validate the dataset, not to repair it.
//!
//! Samples convert to `f32` in `[-1, 1)` by dividing by 32768, and back
//! with saturating round-to-nearest — the same convention the synthetic
//! path uses, so a clip that round-trips through
//! [`write_wav_16k_mono`] / [`read_wav_16k_mono`] feeds the MFCC front
//! end with at most 1/65536 of quantisation error.

use std::fmt;
use std::io::{Read, Write};

/// Sample rate every GSC v2 clip uses.
pub const GSC_SAMPLE_RATE: u32 = 16_000;

/// Errors from WAV parsing or encoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WavError {
    /// The file is not a RIFF/WAVE container.
    NotRiff,
    /// The file ended before a required chunk or field.
    Truncated,
    /// `fmt ` chunk missing before the `data` chunk.
    MissingFmt,
    /// No `data` chunk found.
    MissingData,
    /// Audio format is not integer PCM (format tag 1).
    NotPcm(u16),
    /// Not mono.
    NotMono(u16),
    /// Not 16-bit samples.
    Not16Bit(u16),
    /// Sample rate differs from the required one.
    WrongRate {
        /// Rate found in the header.
        found: u32,
        /// Rate the caller required.
        expected: u32,
    },
    /// An underlying I/O error (message only, to stay `Eq`).
    Io(String),
}

impl fmt::Display for WavError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WavError::NotRiff => write!(f, "not a RIFF/WAVE file"),
            WavError::Truncated => write!(f, "file truncated mid-chunk"),
            WavError::MissingFmt => write!(f, "missing `fmt ` chunk"),
            WavError::MissingData => write!(f, "missing `data` chunk"),
            WavError::NotPcm(tag) => write!(f, "format tag {tag} is not integer PCM"),
            WavError::NotMono(ch) => write!(f, "{ch} channels; GSC clips are mono"),
            WavError::Not16Bit(b) => write!(f, "{b}-bit samples; GSC clips are 16-bit"),
            WavError::WrongRate { found, expected } => {
                write!(f, "sample rate {found} Hz; expected {expected} Hz")
            }
            WavError::Io(msg) => write!(f, "i/o error: {msg}"),
        }
    }
}

impl std::error::Error for WavError {}

impl From<std::io::Error> for WavError {
    fn from(e: std::io::Error) -> Self {
        WavError::Io(e.to_string())
    }
}

fn rd_u16(b: &[u8], at: usize) -> Result<u16, WavError> {
    let s = b.get(at..at + 2).ok_or(WavError::Truncated)?;
    Ok(u16::from_le_bytes([s[0], s[1]]))
}

fn rd_u32(b: &[u8], at: usize) -> Result<u32, WavError> {
    let s = b.get(at..at + 4).ok_or(WavError::Truncated)?;
    Ok(u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
}

/// Decodes an in-memory WAV file as mono PCM16 at `expected_rate` Hz,
/// returning samples scaled to `[-1, 1)`.
///
/// Unknown chunks (`LIST`, `fact`, …) are skipped; the `fmt ` chunk may be
/// longer than 16 bytes (WAVE_FORMAT_EXTENSIBLE headers still carry the
/// base fields at the same offsets).
///
/// # Errors
///
/// Any container or format mismatch yields the corresponding [`WavError`].
pub fn decode_wav(bytes: &[u8], expected_rate: u32) -> Result<Vec<f32>, WavError> {
    if bytes.len() < 12 || &bytes[0..4] != b"RIFF" || &bytes[8..12] != b"WAVE" {
        return Err(WavError::NotRiff);
    }
    let mut at = 12usize;
    let mut fmt: Option<(u16, u16, u32, u16)> = None; // (tag, channels, rate, bits)
    let mut data: Option<&[u8]> = None;
    while at + 8 <= bytes.len() {
        let id = &bytes[at..at + 4];
        let len = rd_u32(bytes, at + 4)? as usize;
        let body = bytes.get(at + 8..at + 8 + len).ok_or(WavError::Truncated)?;
        match id {
            b"fmt " => {
                if len < 16 {
                    return Err(WavError::Truncated);
                }
                fmt = Some((
                    rd_u16(body, 0)?,
                    rd_u16(body, 2)?,
                    rd_u32(body, 4)?,
                    rd_u16(body, 14)?,
                ));
            }
            b"data" => {
                data = Some(body);
                // GSC files put `data` last; stop scanning once found.
                break;
            }
            _ => {}
        }
        // Chunks are word-aligned: odd lengths carry a pad byte.
        at += 8 + len + (len & 1);
    }
    let (tag, channels, rate, bits) = fmt.ok_or(WavError::MissingFmt)?;
    let data = data.ok_or(WavError::MissingData)?;
    if tag != 1 {
        return Err(WavError::NotPcm(tag));
    }
    if channels != 1 {
        return Err(WavError::NotMono(channels));
    }
    if bits != 16 {
        return Err(WavError::Not16Bit(bits));
    }
    if rate != expected_rate {
        return Err(WavError::WrongRate {
            found: rate,
            expected: expected_rate,
        });
    }
    let n = data.len() / 2;
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let v = i16::from_le_bytes([data[2 * i], data[2 * i + 1]]);
        out.push(v as f32 / 32768.0);
    }
    Ok(out)
}

/// Encodes mono `f32` samples in `[-1, 1]` as a 16 kHz PCM16 WAV file.
///
/// Values outside `[-1, 1]` saturate; conversion is round-to-nearest.
pub fn encode_wav_16k_mono(samples: &[f32]) -> Vec<u8> {
    let data_len = (samples.len() * 2) as u32;
    let mut out = Vec::with_capacity(44 + samples.len() * 2);
    out.extend_from_slice(b"RIFF");
    out.extend_from_slice(&(36 + data_len).to_le_bytes());
    out.extend_from_slice(b"WAVE");
    out.extend_from_slice(b"fmt ");
    out.extend_from_slice(&16u32.to_le_bytes());
    out.extend_from_slice(&1u16.to_le_bytes()); // PCM
    out.extend_from_slice(&1u16.to_le_bytes()); // mono
    out.extend_from_slice(&GSC_SAMPLE_RATE.to_le_bytes());
    out.extend_from_slice(&(GSC_SAMPLE_RATE * 2).to_le_bytes()); // byte rate
    out.extend_from_slice(&2u16.to_le_bytes()); // block align
    out.extend_from_slice(&16u16.to_le_bytes()); // bits
    out.extend_from_slice(b"data");
    out.extend_from_slice(&data_len.to_le_bytes());
    for &s in samples {
        let v = (s * 32768.0).round().clamp(-32768.0, 32767.0) as i16;
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Reads a 16 kHz mono PCM16 WAV file from disk.
///
/// # Errors
///
/// I/O failures and format mismatches yield [`WavError`].
pub fn read_wav_16k_mono(path: &std::path::Path) -> Result<Vec<f32>, WavError> {
    let mut bytes = Vec::new();
    std::fs::File::open(path)?.read_to_end(&mut bytes)?;
    decode_wav(&bytes, GSC_SAMPLE_RATE)
}

/// Writes mono `f32` samples to disk as a 16 kHz PCM16 WAV file.
///
/// # Errors
///
/// Propagates filesystem errors as [`WavError::Io`].
pub fn write_wav_16k_mono(path: &std::path::Path, samples: &[f32]) -> Result<(), WavError> {
    let bytes = encode_wav_16k_mono(samples);
    let mut f = std::fs::File::create(path)?;
    f.write_all(&bytes)?;
    Ok(())
}

/// Quantises samples exactly as [`encode_wav_16k_mono`] does, without the
/// container — the in-memory image of what a WAV round-trip preserves.
/// The subset generator uses it so checked-in audio and the manifest
/// checksums agree bit-for-bit with what the loader will read back.
pub fn quantize_pcm16(samples: &[f32]) -> Vec<f32> {
    samples
        .iter()
        .map(|&s| (s * 32768.0).round().clamp(-32768.0, 32767.0) as i16 as f32 / 32768.0)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn round_trip_is_pcm16_exact() {
        let wave: Vec<f32> = (0..1600).map(|i| (i as f32 * 0.013).sin() * 0.8).collect();
        let bytes = encode_wav_16k_mono(&wave);
        let back = decode_wav(&bytes, GSC_SAMPLE_RATE).unwrap();
        assert_eq!(back, quantize_pcm16(&wave));
        // Second round trip is lossless: PCM16 is a fixed point.
        let bytes2 = encode_wav_16k_mono(&back);
        assert_eq!(decode_wav(&bytes2, GSC_SAMPLE_RATE).unwrap(), back);
    }

    #[test]
    fn saturation_clamps() {
        let bytes = encode_wav_16k_mono(&[2.0, -2.0]);
        let back = decode_wav(&bytes, GSC_SAMPLE_RATE).unwrap();
        assert_eq!(back, vec![32767.0 / 32768.0, -1.0]);
    }

    #[test]
    fn skips_unknown_chunks() {
        let mut bytes = encode_wav_16k_mono(&[0.25; 8]);
        // Splice a LIST chunk between fmt and data (offset 36 = data hdr).
        let tail = bytes.split_off(36);
        bytes.extend_from_slice(b"LIST");
        bytes.extend_from_slice(&5u32.to_le_bytes());
        bytes.extend_from_slice(b"INFOx");
        bytes.push(0); // pad byte for odd length
        bytes.extend_from_slice(&tail);
        let riff_len = (bytes.len() - 8) as u32;
        bytes[4..8].copy_from_slice(&riff_len.to_le_bytes());
        let back = decode_wav(&bytes, GSC_SAMPLE_RATE).unwrap();
        assert_eq!(back.len(), 8);
    }

    #[test]
    fn format_mismatches_are_typed() {
        assert_eq!(decode_wav(b"nope", 16_000), Err(WavError::NotRiff));
        let good = encode_wav_16k_mono(&[0.0; 4]);
        let mut stereo = good.clone();
        stereo[22] = 2; // channel count
        assert_eq!(decode_wav(&stereo, 16_000), Err(WavError::NotMono(2)),);
        let mut eight = good.clone();
        eight[34] = 8; // bits per sample
        assert_eq!(decode_wav(&eight, 16_000), Err(WavError::Not16Bit(8)));
        assert_eq!(
            decode_wav(&good, 8_000),
            Err(WavError::WrongRate {
                found: 16_000,
                expected: 8_000
            }),
        );
        let mut truncated = good;
        truncated.truncate(40);
        assert!(decode_wav(&truncated, 16_000).is_err());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn arbitrary_bytes_never_panic_the_decoder(
            bytes in collection::vec(any::<u8>(), 0..256),
            preamble in 0usize..3,
            fmt_len in 0u32..64,
        ) {
            // Preambles carry the random bytes past the container check:
            // a valid RIFF/WAVE header, then also a `fmt ` chunk header
            // of a small length, so short and long format chunks are hit.
            let mut input = Vec::new();
            if preamble >= 1 {
                input.extend_from_slice(b"RIFF\0\0\0\0WAVE");
            }
            if preamble == 2 {
                input.extend_from_slice(b"fmt ");
                input.extend_from_slice(&fmt_len.to_le_bytes());
            }
            input.extend_from_slice(&bytes);
            if let Ok(samples) = decode_wav(&input, GSC_SAMPLE_RATE) {
                prop_assert!(samples.len() * 2 <= input.len());
            }
        }

        #[test]
        fn mutated_wav_files_never_panic_the_decoder(
            // (position modulo the length, new byte)
            edits in collection::vec((any::<usize>(), any::<u8>()), 1..8),
            cut in any::<usize>(),
        ) {
            let mut bytes = encode_wav_16k_mono(&[0.5, -0.25, 0.125, 0.0, -1.0]);
            let n = bytes.len();
            for &(at, b) in &edits {
                bytes[at % n] = b;
            }
            bytes.truncate(cut % (n + 1));
            if let Ok(samples) = decode_wav(&bytes, GSC_SAMPLE_RATE) {
                prop_assert!(samples.len() * 2 <= bytes.len());
                prop_assert!(samples.iter().all(|v| (-1.0..1.0).contains(v)));
            }
        }
    }
}
