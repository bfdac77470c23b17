//! Image-level check of the simulator's block dispatch: every image
//! flavour (float, quantised, accelerated, A8) gives the same
//! `RunResult`, logits and profile report when its session runs through
//! straight-line blocks (the plain `Machine::run`) as when it runs one
//! `Cpu::step` per instruction (the class histogram armed, which keeps
//! `Machine::run` on the step path).

use kwt_baremetal::{DeviceSession, InferenceImage};
use kwt_model::{KwtConfig, KwtParams};
use kwt_quant::{A8Config, A8Kwt, Nonlinearity, QuantConfig, QuantizedKwt};
use kwt_tensor::Mat;

fn params() -> KwtParams {
    let mut p = KwtParams::init(KwtConfig::kwt_tiny(), 77).expect("valid preset");
    p.visit_mut(|s| s.iter_mut().for_each(|v| *v *= 0.6));
    p
}

/// A deterministic MFCC-shaped input.
fn mfcc(c: &KwtConfig, seed: usize) -> Mat<f32> {
    let data = (0..c.input_time * c.input_freq)
        .map(|i| (((i * 37 + seed * 11) % 101) as f32 - 50.0) / 12.5)
        .collect();
    Mat::from_vec(c.input_time, c.input_freq, data).expect("shape")
}

/// Two inferences on one session (cold, then warm): results, logits and
/// the cumulative profile report.
fn two_runs(session: &mut DeviceSession, c: &KwtConfig) -> (Vec<String>, u64) {
    let mut out = Vec::new();
    let mut logits = Vec::new();
    for seed in 0..2 {
        let run = session
            .run_into(&mfcc(c, seed), &mut logits)
            .expect("device run");
        let bits: Vec<u32> = logits.iter().map(|v| v.to_bits()).collect();
        out.push(format!("{run:?} {bits:?}"));
    }
    out.push(format!("{:?}", session.machine().profile_report()));
    (out, session.machine().cpu.decode_cache_stats().blocks_built)
}

#[test]
fn every_flavour_is_identical_through_blocks_and_through_step() {
    let p = params();
    let qm = QuantizedKwt::quantize(&p, QuantConfig::paper_best());
    let accel = qm.clone().with_nonlinearity(Nonlinearity::FixedLut);
    let a8 = A8Kwt::quantize(&p, A8Config::paper_a8()).expect("a8 exponents valid");
    let images = [
        ("float", InferenceImage::build_float(&p)),
        ("quant", InferenceImage::build_quant(&qm)),
        ("accel", InferenceImage::build_quant(&accel)),
        ("a8", InferenceImage::build_a8(&a8)),
    ];
    let c = KwtConfig::kwt_tiny();
    for (name, image) in images {
        let image = image.expect("image builds");
        let mut blocks = image.session().expect("session");
        let mut steps = image.session().expect("session");
        steps.set_class_histogram_enabled(true);
        let (got, built) = two_runs(&mut blocks, &c);
        let (want, built_by_step) = two_runs(&mut steps, &c);
        assert_eq!(got, want, "{name}: block dispatch changed the run");
        assert!(built > 0, "{name}: the plain run used blocks");
        assert_eq!(built_by_step, 0, "{name}: the monitored run stepped");
        let (b, s) = (
            blocks.machine().cpu.decode_cache_stats(),
            steps.machine().cpu.decode_cache_stats(),
        );
        assert_eq!(
            (b.hits, b.misses),
            (s.hits, s.misses),
            "{name}: decode hits"
        );
    }
}
