//! Scalar-vs-Xkwtdot inference image comparison: cycles, instructions,
//! the per-instruction-class histogram and the profiler region table for
//! the accelerated (quantised + LUT) image under both kernel ISAs.
//!
//! Run with `cargo run --release -p kwt-bench --example isa_ratio`.

use kwt_baremetal::{ImageSpec, InferenceImage, KernelIsa};
use kwt_model::{KwtConfig, KwtParams};
use kwt_quant::{Nonlinearity, QuantConfig, QuantizedKwt};
use kwt_rv32::Platform;
use kwt_tensor::Mat;

fn main() {
    let mut p = KwtParams::init(KwtConfig::kwt_tiny(), 77).unwrap();
    p.visit_mut(|s| {
        for v in s {
            *v *= 0.6;
        }
    });
    let x = Mat::from_fn(26, 16, |r, c| {
        let h = 31u64
            .wrapping_add((r * 16 + c) as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15);
        ((h >> 40) as f32 / (1u64 << 24) as f32 - 0.5) * 10.0
    });
    let accel = QuantizedKwt::quantize(&p, QuantConfig::paper_best())
        .with_nonlinearity(Nonlinearity::FixedLut);
    let mut cycles = Vec::new();
    for (name, isa) in [
        ("scalar", KernelIsa::Rv32im),
        ("xkwtdot", KernelIsa::Xkwtdot),
    ] {
        let img = InferenceImage::build(ImageSpec::Quant(&accel, isa), Platform::ibex()).unwrap();
        let mut sess = img.session().unwrap();
        sess.set_class_histogram_enabled(true);
        let (_, r) = sess.run(&x).unwrap();
        println!(
            "== accel {name}: {} cycles, {} instret",
            r.cycles, r.instructions
        );
        println!("{}", sess.machine().class_histogram().to_table());
        println!("{}", sess.profile_report().to_table());
        cycles.push(r.cycles);
    }
    println!(
        "cycle ratio scalar/xkwtdot: {:.2}x",
        cycles[0] as f64 / cycles[1] as f64
    );
}
