//! Property tests for the streaming core and the scratch arenas:
//!
//! * frames from [`StreamCore`] == batch `extract`, bit-identically,
//!   across random window/hop geometries (including `hop > win`) and
//!   random chunk splits of the clip;
//! * `StreamingKws` decisions == an independent batch reference (extract
//!   the whole signal, classify every window ending at a stride boundary,
//!   smooth with a test-local majority vote), for random chunk splits,
//!   strides and vote windows;
//! * `forward` with a fresh scratch == `forward` with a heavily reused
//!   scratch on random inputs;
//! * the first streaming decision == one-shot `classify` of the same clip.

use kwt_audio::{kwt_tiny_frontend, MfccConfig, MfccExtractor, MfccScratch, WindowKind};
use kwt_engine::{
    Backend, BackendKind, Engine, Prediction, StreamCore, StreamDecision, StreamingConfig,
    StreamingKws,
};
use kwt_model::{KwtConfig, KwtParams, Scratch};
use kwt_tensor::Mat;
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

/// Splits `clip` at the given relative cut points and streams the chunks
/// through a [`StreamCore`] with `T = 1` and stride 1: every advance is a
/// boundary, and the window's only row is the frame just computed.
fn stream_rows(extractor: &MfccExtractor, clip: &[f32], cuts: &[usize]) -> Vec<Vec<f32>> {
    let c = extractor.config();
    let mut core = StreamCore::new(
        StreamCore::default_ring_samples(extractor),
        1,
        c.n_mfcc,
        1,
        StreamingConfig::default(),
    );
    let mut scratch = MfccScratch::new();
    let mut frame = vec![0.0; c.win_length];
    let mut row = vec![0.0; c.n_mfcc];
    let mut rows = Vec::new();
    let mut push = |mut chunk: &[f32]| {
        while !chunk.is_empty() {
            let n = chunk.len().min(core.ring().free());
            core.push(&chunk[..n]).unwrap();
            chunk = &chunk[n..];
            while core
                .advance(extractor, &mut scratch, &mut frame, &mut row)
                .unwrap()
            {
                rows.push(core.window().row(0).to_vec());
            }
        }
    };
    let mut off = 0;
    for &cut in cuts {
        let end = off + cut % (clip.len() - off).max(1);
        push(&clip[off..end]);
        off = end;
    }
    push(&clip[off..]);
    rows
}

fn trained_ish() -> KwtParams {
    let mut p = KwtParams::init(KwtConfig::kwt_tiny(), 77).unwrap();
    p.visit_mut(|s| {
        for v in s {
            *v *= 0.6;
        }
    });
    p
}

fn host_engine() -> Engine {
    Engine::host_float(trained_ish(), kwt_tiny_frontend().unwrap()).unwrap()
}

/// A test backend whose logits are a hash of the window's bits: a change
/// to any frame changes the decision, and with four unbiased classes the
/// majority vote ties often, so the tie-break is exercised too.
struct WindowHash(KwtConfig);

impl Backend for WindowHash {
    fn kind(&self) -> BackendKind {
        BackendKind::HostFloat
    }

    fn config(&self) -> &KwtConfig {
        &self.0
    }

    fn infer_into(&mut self, mfcc: &Mat<f32>, logits: &mut Vec<f32>) -> kwt_engine::Result<()> {
        let h = mfcc
            .as_slice()
            .iter()
            .fold(0xcbf2_9ce4_8422_2325u64, |h, v| {
                (h ^ u64::from(v.to_bits())).wrapping_mul(0x0100_0000_01b3)
            });
        logits.clear();
        logits.extend((0..self.0.num_classes).map(|c| ((h >> (8 * c)) & 0xff) as f32 / 64.0));
        Ok(())
    }
}

fn hash_engine() -> Engine {
    let config = KwtConfig {
        num_classes: 4,
        ..KwtConfig::kwt_tiny()
    };
    Engine::new(kwt_tiny_frontend().unwrap(), Box::new(WindowHash(config))).unwrap()
}

/// Independent reference for a decision stream: batch-extract the whole
/// signal, classify every `T`-row window ending at a stride boundary, and
/// smooth with [`majority`].
fn batch_reference(
    engine: &mut Engine,
    cfg: StreamingConfig,
    signal: &[f32],
) -> Vec<StreamDecision> {
    let frames = engine.frontend().extract(signal).unwrap();
    let (t, f) = (engine.config().input_time, engine.config().input_freq);
    let mut window = Mat::zeros(t, f);
    let mut pred = Prediction::default();
    let mut classes = Vec::new();
    let mut out = Vec::new();
    for end in (t..=frames.rows()).step_by(cfg.stride_frames) {
        for r in 0..t {
            window.row_mut(r).copy_from_slice(frames.row(end - t + r));
        }
        engine.classify_mfcc_into(&window, &mut pred).unwrap();
        classes.push(pred.class);
        let recent = &classes[classes.len().saturating_sub(cfg.vote_window)..];
        out.push(StreamDecision {
            frame_index: (end - 1) as u64,
            class: pred.class,
            score: pred.score,
            smoothed_class: majority(recent),
        });
    }
    out
}

/// The most frequent class in `votes`; ties go to the class voted most
/// recently.
fn majority(votes: &[usize]) -> usize {
    let count = |c: usize| votes.iter().filter(|&&v| v == c).count();
    let best = votes.iter().map(|&v| count(v)).max().unwrap();
    *votes.iter().rev().find(|&&v| count(v) == best).unwrap()
}

fn assert_decisions_match(got: &[StreamDecision], want: &[StreamDecision]) {
    assert_eq!(got.len(), want.len(), "decision count");
    for (g, w) in got.iter().zip(want) {
        assert_eq!(g.frame_index, w.frame_index);
        assert_eq!(g.class, w.class, "frame {}", w.frame_index);
        assert_eq!(
            g.score.to_bits(),
            w.score.to_bits(),
            "frame {}",
            w.frame_index
        );
        assert_eq!(
            g.smoothed_class, w.smoothed_class,
            "frame {}",
            w.frame_index
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn streaming_mfcc_equals_batch_for_random_geometry_and_splits(
        win_sel in 32usize..200,
        hop_sel in 8usize..300,
        clip_extra in 0usize..2_000,
        seed in 0u64..1_000,
        cuts in proptest::collection::vec(1usize..4_000, 0..6),
    ) {
        let config = MfccConfig {
            n_fft: 256,
            win_length: win_sel,
            hop_length: hop_sel,
            n_mels: 12,
            n_mfcc: 8,
            window: WindowKind::Hann,
            clip_samples: win_sel + 100,
            ..MfccConfig::default()
        };
        let extractor = MfccExtractor::new(config).unwrap();
        let clip = wave(seed, win_sel + 100 + clip_extra);
        let batch = extractor.extract(&clip).unwrap();
        let rows = stream_rows(&extractor, &clip, &cuts);
        prop_assert_eq!(rows.len(), batch.rows());
        for (t, row) in rows.iter().enumerate() {
            for (a, b) in row.iter().zip(batch.row(t)) {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "frame {}", t);
            }
        }
    }

    #[test]
    fn streaming_decisions_equal_batch_reference(
        seed in 0u64..1_000,
        len_extra in 0usize..8_000,
        cuts in proptest::collection::vec(1usize..6_000, 0..8),
        cfg in (1usize..4, 1usize..6).prop_map(|(s, v)| StreamingConfig {
            stride_frames: s,
            vote_window: v,
        }),
    ) {
        let signal = wave(seed, 16_000 + len_extra);
        for engine in [host_engine, hash_engine] {
            let mut kws = StreamingKws::new(engine(), cfg).unwrap();
            let mut got = Vec::new();
            let mut off = 0;
            for &cut in &cuts {
                let end = off + cut % (signal.len() - off).max(1);
                if end > off {
                    kws.push_with(&signal[off..end], |d| got.push(d)).unwrap();
                }
                off = end;
            }
            if off < signal.len() {
                kws.push_with(&signal[off..], |d| got.push(d)).unwrap();
            }
            let want = batch_reference(&mut engine(), cfg, &signal);
            prop_assert!(!want.is_empty());
            assert_decisions_match(&got, &want);
        }
    }

    #[test]
    fn fresh_and_reused_scratch_agree_on_random_inputs(
        seeds in proptest::collection::vec(0u64..10_000, 1..6),
    ) {
        let params = KwtParams::init(KwtConfig::kwt_tiny(), 3).unwrap();
        let packed = params.pack_weights();
        let mut reused = Scratch::new(&params.config);
        let mut out_reused = Vec::new();
        for seed in seeds {
            let x = Mat::from_fn(26, 16, |r, c| {
                let h = (seed + (r * 16 + c) as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                ((h >> 40) as f32 / (1u64 << 24) as f32) - 0.5
            });
            kwt_model::forward_into(&params, &packed, &x, &mut reused, &mut out_reused).unwrap();
            let fresh = kwt_model::forward_with(&params, &packed, &x).unwrap();
            prop_assert_eq!(&out_reused, &fresh);
        }
    }
}

#[test]
fn first_streaming_decision_equals_batch_classify() {
    let params = trained_ish();
    let fe = kwt_tiny_frontend().unwrap();
    let clip = wave(5, 16_000);
    let mut engine = Engine::host_float(params.clone(), fe.clone()).unwrap();
    let want = engine.classify(&clip).unwrap();

    let engine2 = Engine::host_float(params, fe).unwrap();
    let mut kws = StreamingKws::new(engine2, StreamingConfig::default()).unwrap();
    let mut decisions = Vec::new();
    for chunk in clip.chunks(1_234) {
        decisions.extend(kws.push(chunk).unwrap());
    }
    // One nominal clip yields exactly T frames -> exactly one decision,
    // whose window is bit-identical to the batch spectrogram.
    assert_eq!(decisions.len(), 1);
    let d = &decisions[0];
    assert_eq!(d.frame_index, 25);
    assert_eq!(d.class, want.class);
    assert_eq!(d.score.to_bits(), want.score.to_bits());
    assert_eq!(d.smoothed_class, want.class, "single vote: smoothed == raw");
}

#[test]
fn streaming_smoothing_suppresses_flicker() {
    // Alternate two very different signals chunk-by-chunk: raw decisions
    // may flip, the smoothed majority must be at least as stable.
    let params = KwtParams::init(KwtConfig::kwt_tiny(), 12).unwrap();
    let fe = kwt_tiny_frontend().unwrap();
    let engine = Engine::host_float(params, fe).unwrap();
    let mut kws = StreamingKws::new(
        engine,
        StreamingConfig {
            stride_frames: 2,
            vote_window: 7,
        },
    )
    .unwrap();
    let a = wave(1, 48_000);
    let mut decisions = Vec::new();
    for chunk in a.chunks(800) {
        decisions.extend(kws.push(chunk).unwrap());
    }
    assert!(decisions.len() > 10, "expected many decisions");
    let raw_flips = decisions
        .windows(2)
        .filter(|w| w[0].class != w[1].class)
        .count();
    let smooth_flips = decisions
        .windows(2)
        .filter(|w| w[0].smoothed_class != w[1].smoothed_class)
        .count();
    assert!(
        smooth_flips <= raw_flips,
        "smoothing increased flicker: {smooth_flips} > {raw_flips}"
    );
    // decision cadence respects the stride
    assert_eq!(decisions[0].frame_index, 25);
    assert_eq!(decisions[1].frame_index, 27);
}
