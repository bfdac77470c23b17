//! Property tests for the fixed-point front end: the direct-to-`i8`
//! emission path (`extract_padded_a8_into`) equals quantising the float
//! features, bit-for-bit, for random exponents. (Streaming extraction
//! over the same kernels is property-tested against batch extraction in
//! `kwt-engine`'s `streaming_props`, where the streaming core lives.)

use kwt_audio::{MfccConfig, MfccExtractor};
use kwt_tensor::{qops, Mat};
use proptest::prelude::*;

fn wave(seed: u64, n: usize) -> Vec<f32> {
    (0..n as u64)
        .map(|i| {
            let h = (i ^ seed).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let noise = ((h >> 40) as f64 / (1u64 << 24) as f64) - 0.5;
            let t = i as f64 / 16_000.0;
            ((2.0 * std::f64::consts::PI * (250.0 + seed as f64 % 700.0) * t).sin() * 0.4
                + noise * 0.2) as f32
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn a8_emission_equals_quantised_float_features(
        seed in 0u64..1_000,
        input_exp in -4i32..6,
        clip_len in 2_000usize..20_000,
    ) {
        let extractor = MfccExtractor::new(MfccConfig {
            n_fft: 256,
            win_length: 200,
            hop_length: 100,
            n_mels: 12,
            n_mfcc: 8,
            clip_samples: 2_000,
            ..MfccConfig::default()
        })
        .unwrap();
        let clip = wave(seed, clip_len);
        let mut scratch = kwt_audio::MfccScratch::new();
        let mut direct = Mat::default();
        extractor
            .extract_padded_a8_into(&clip, input_exp, &mut direct, &mut scratch)
            .unwrap();
        let mut feats = Mat::default();
        extractor
            .extract_padded_into(&clip, &mut feats, &mut scratch)
            .unwrap();
        let mut via_float = Mat::default();
        qops::quantize_i8_scaled_into(&feats, input_exp, &mut via_float);
        prop_assert_eq!(direct, via_float);
    }
}
