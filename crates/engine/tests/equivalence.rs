//! The engine's headline guarantees: every backend produces logits
//! bit-identical to the one-shot seed path it replaces, and batched
//! classification equals per-clip classification on all three backends.

use kwt_audio::kwt_tiny_frontend;
use kwt_baremetal::InferenceImage;
use kwt_engine::{BackendKind, Engine, EngineError, Prediction};
use kwt_model::{KwtConfig, KwtParams};
use kwt_quant::{Nonlinearity, QuantConfig, QuantizedKwt};

fn trained_ish() -> KwtParams {
    let mut p = KwtParams::init(KwtConfig::kwt_tiny(), 77).unwrap();
    p.visit_mut(|s| {
        for v in s {
            *v *= 0.6;
        }
    });
    p
}

fn quantized() -> QuantizedKwt {
    QuantizedKwt::quantize(&trained_ish(), QuantConfig::paper_best())
}

/// A deterministic 1 s clip: two tones plus pseudo-noise.
fn clip(seed: u64) -> Vec<f32> {
    (0..16_000u64)
        .map(|i| {
            let t = i as f64 / 16_000.0;
            let f1 = 200.0 + 37.0 * seed as f64;
            let f2 = 900.0 + 11.0 * seed as f64;
            let h =
                (i ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)).wrapping_mul(0x2545_F491_4F6C_DD1D);
            let noise = ((h >> 40) as f64 / (1u64 << 24) as f64) - 0.5;
            (0.5 * (2.0 * std::f64::consts::PI * f1 * t).sin()
                + 0.3 * (2.0 * std::f64::consts::PI * f2 * t).sin()
                + 0.05 * noise) as f32
        })
        .collect()
}

fn assert_bits_eq(a: &[f32], b: &[f32], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: logit {i}: {x} vs {y}");
    }
}

#[test]
fn host_float_engine_matches_one_shot_seed_path() {
    let params = trained_ish();
    let fe = kwt_tiny_frontend().unwrap();
    let mut engine = Engine::host_float(params.clone(), fe.clone()).unwrap();
    assert_eq!(engine.kind(), BackendKind::HostFloat);
    for seed in 0..5 {
        let audio = clip(seed);
        let pred = engine.classify(&audio).unwrap();
        // the pre-refactor one-shot path: extract, then forward
        let mfcc = fe.extract_padded(&audio).unwrap();
        let want = kwt_model::forward(&params, &mfcc).unwrap();
        assert_bits_eq(&pred.logits, &want, "host_float");
    }
}

#[test]
fn host_quant_engine_matches_one_shot_seed_path() {
    let qm = quantized();
    let fe = kwt_tiny_frontend().unwrap();
    let mut engine = Engine::host_quant(qm.clone(), fe.clone()).unwrap();
    assert_eq!(engine.kind(), BackendKind::HostQuant);
    for seed in 0..5 {
        let audio = clip(seed);
        let pred = engine.classify(&audio).unwrap();
        let mfcc = fe.extract_padded(&audio).unwrap();
        let want = qm.forward(&mfcc).unwrap();
        assert_bits_eq(&pred.logits, &want, "host_quant");
        let stats = engine
            .last_quant_stats()
            .expect("quant backend reports stats");
        assert!(stats.max_abs_acc > 0);
    }
}

#[test]
fn rv32_engine_matches_one_shot_image_run() {
    let qm = quantized().with_nonlinearity(Nonlinearity::FixedLut);
    let image = InferenceImage::build_quant(&qm).unwrap();
    let fe = kwt_tiny_frontend().unwrap();
    let mut engine = Engine::rv32_sim(&image, fe.clone()).unwrap();
    assert_eq!(engine.kind(), BackendKind::Rv32Sim);
    for seed in [3u64, 9] {
        let audio = clip(seed);
        let pred = engine.classify(&audio).unwrap();
        let mfcc = fe.extract_padded(&audio).unwrap();
        let (want, want_run, _) = image.run(&mfcc).unwrap();
        assert_bits_eq(&pred.logits, &want, "rv32_sim");
        let run = engine
            .last_device_run()
            .expect("device backend reports runs");
        assert_eq!(run.cycles, want_run.cycles, "per-run cycle accounting");
    }
}

#[test]
fn a8_engine_classify_batch_and_parallel_match_session_run_on_float_features() {
    // A8 engine classify/batch == `DeviceSession::run` on float
    // features: the engine hands the A8 device the same float MFCCs as
    // every other backend, and the session quantises them to i8 in its
    // one input path. Logits must be bit-identical to a bare session on
    // the front end's float features, on the serial and batch paths
    // alike.
    use kwt_quant::{A8Config, A8Kwt};
    let params = trained_ish();
    let a8 = A8Kwt::quantize(&params, A8Config::paper_a8()).unwrap();
    let image = InferenceImage::build_a8(&a8).unwrap();
    let fe = kwt_tiny_frontend().unwrap();
    let mut engine = Engine::rv32_sim(&image, fe.clone()).unwrap();
    let mut session = image.session().unwrap();
    let clips: Vec<Vec<f32>> = (0..4).map(clip).collect();
    let mut wants = Vec::new();
    for (i, audio) in clips.iter().enumerate() {
        let pred = engine.classify(audio).unwrap();
        let mfcc = fe.extract_padded(audio).unwrap();
        let (want, _) = session.run(&mfcc).unwrap();
        assert_bits_eq(&pred.logits, &want, &format!("a8 engine clip {i}"));
        wants.push(want);
    }
    let batch = engine.classify_batch(&clips).unwrap();
    for (i, (b, want)) in batch.iter().zip(&wants).enumerate() {
        assert_bits_eq(&b.logits, want, &format!("batch a8 clip {i}"));
    }
}

#[test]
fn classify_batch_matches_per_clip_on_all_backends() {
    let params = trained_ish();
    let qm = quantized();
    let image =
        InferenceImage::build_quant(&qm.clone().with_nonlinearity(Nonlinearity::FixedLut)).unwrap();
    let fe = kwt_tiny_frontend().unwrap();
    let clips: Vec<Vec<f32>> = (0..3).map(clip).collect();
    let engines: Vec<Engine> = vec![
        Engine::host_float(params, fe.clone()).unwrap(),
        Engine::host_quant(qm, fe.clone()).unwrap(),
        Engine::rv32_sim(&image, fe.clone()).unwrap(),
    ];
    for mut engine in engines {
        let kind = engine.kind();
        let batch = engine.classify_batch(&clips).unwrap();
        assert_eq!(batch.len(), clips.len());
        for (i, audio) in clips.iter().enumerate() {
            let single = engine.classify(audio).unwrap();
            assert_eq!(batch[i], single, "{} clip {i}", kind.as_str());
        }
    }
}

#[test]
fn predictions_are_well_formed() {
    let mut engine = Engine::host_float(trained_ish(), kwt_tiny_frontend().unwrap()).unwrap();
    let pred = engine.classify(&clip(1)).unwrap();
    assert_eq!(pred.logits.len(), 2);
    assert_eq!(pred.probs.len(), 2);
    assert!((pred.probs.iter().sum::<f32>() - 1.0).abs() < 1e-6);
    assert_eq!(pred.score, pred.probs[pred.class]);
    let other = 1 - pred.class;
    assert!(pred.probs[pred.class] >= pred.probs[other]);
    assert!(pred.logits[pred.class] >= pred.logits[other]);
}

#[test]
fn geometry_mismatch_rejected_at_construction() {
    // KWT-1 front end (98 x 40) cannot feed the KWT-Tiny model (26 x 16).
    let err = Engine::host_float(trained_ish(), kwt_audio::kwt1_frontend().unwrap());
    assert!(matches!(err, Err(EngineError::Config { .. })));
}

#[test]
fn short_and_long_clips_are_padded_like_the_seed_path() {
    let params = trained_ish();
    let fe = kwt_tiny_frontend().unwrap();
    let mut engine = Engine::host_float(params.clone(), fe.clone()).unwrap();
    for len in [4_000usize, 16_000, 40_000] {
        let audio: Vec<f32> = clip(4)[..].iter().cycle().take(len).copied().collect();
        let pred = engine.classify(&audio).unwrap();
        let mfcc = fe.extract_padded(&audio).unwrap();
        let want = kwt_model::forward(&params, &mfcc).unwrap();
        assert_bits_eq(&pred.logits, &want, "padded clip");
    }
}

#[test]
fn cluster_engine_batch_identical_to_serial_rv32_engine() {
    // The wave-sharded cluster path (4 harts, so 7 clips = a full wave
    // plus a partial one) must be bit-identical to the serial rv32
    // engine, and a single clip — hart 0 alone — must also be
    // cycle-identical to the serial session (the single-hart identity).
    use kwt_quant::{A8Config, A8Kwt};
    let a8 = A8Kwt::quantize(&trained_ish(), A8Config::paper_a8()).unwrap();
    let image = InferenceImage::build_a8(&a8).unwrap();
    let fe = kwt_tiny_frontend().unwrap();
    let mut serial = Engine::rv32_sim(&image, fe.clone()).unwrap();
    let mut cluster = Engine::rv32_cluster(&image, fe, 4).unwrap();
    assert_eq!(cluster.kind(), BackendKind::Rv32Cluster);
    let clips: Vec<Vec<f32>> = (0..7).map(clip).collect();
    let want = serial.classify_batch(&clips).unwrap();
    let got = cluster.classify_batch(&clips).unwrap();
    assert_eq!(got.len(), want.len());
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        assert_eq!(g.class, w.class, "cluster clip {i}");
        assert_bits_eq(&g.logits, &w.logits, &format!("cluster clip {i}"));
    }
    let a = serial.classify(&clips[0]).unwrap();
    let b = cluster.classify(&clips[0]).unwrap();
    assert_bits_eq(&a.logits, &b.logits, "cluster single clip");
    assert_eq!(
        serial.last_device_run().unwrap().cycles,
        cluster.last_device_run().unwrap().cycles,
        "a lone hart must be cycle-identical to the serial session"
    );
}

#[test]
fn cluster_engine_float_feature_path_matches_serial() {
    // The i16 flavours exercise the cluster's other mailbox format
    // (i16 quantisation in the shared input path, not A8's i8).
    let qm = quantized().with_nonlinearity(Nonlinearity::FixedLut);
    let image = InferenceImage::build_quant(&qm).unwrap();
    let fe = kwt_tiny_frontend().unwrap();
    let mut serial = Engine::rv32_sim(&image, fe.clone()).unwrap();
    let mut cluster = Engine::rv32_cluster(&image, fe, 2).unwrap();
    let clips: Vec<Vec<f32>> = (0..5).map(clip).collect();
    let want = serial.classify_batch(&clips).unwrap();
    let got = cluster.classify_batch(&clips).unwrap();
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        assert_eq!(g, w, "quant cluster clip {i}");
    }
}

#[test]
fn window_wave_entry_matches_per_window_classify() {
    // The serving layer's wave entry point: already-extracted windows
    // sharded across the backend must equal per-window classify_mfcc
    // bit-for-bit — on a host engine (wave width 1, the default serial
    // loop) and on the cluster (windows sharded one per hart, which also
    // reports the wave's SoC finish time).
    let fe = kwt_tiny_frontend().unwrap();
    let windows: Vec<_> = (0..5)
        .map(|s| fe.extract_padded(&clip(s)).unwrap())
        .collect();
    let mut host = Engine::host_float(trained_ish(), fe.clone()).unwrap();
    assert_eq!(host.wave_width(), 1);
    let mut out = vec![Prediction::default(); windows.len()];
    host.classify_window_wave_into(&windows, &mut out).unwrap();
    for (i, w) in windows.iter().enumerate() {
        let single = host.classify_mfcc(w).unwrap();
        assert_eq!(out[i], single, "host wave window {i}");
    }
    assert!(host.last_wave_device_cycles().is_none());

    let qm = quantized().with_nonlinearity(Nonlinearity::FixedLut);
    let image = InferenceImage::build_quant(&qm).unwrap();
    let mut serial = Engine::rv32_sim(&image, fe.clone()).unwrap();
    let mut cluster = Engine::rv32_cluster(&image, fe, 4).unwrap();
    assert_eq!(cluster.wave_width(), 4);
    cluster
        .classify_window_wave_into(&windows, &mut out)
        .unwrap();
    assert!(cluster.last_wave_device_cycles().unwrap() > 0);
    for (i, w) in windows.iter().enumerate() {
        let single = serial.classify_mfcc(w).unwrap();
        assert_bits_eq(
            &out[i].logits,
            &single.logits,
            &format!("cluster wave window {i}"),
        );
    }

    let mut short = vec![Prediction::default(); 2];
    assert!(matches!(
        host.classify_window_wave_into(&windows, &mut short),
        Err(EngineError::Config { .. })
    ));
}
