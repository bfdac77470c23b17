//! The zero-allocation steady state of a 4-hart cluster, counted on
//! every thread of the process: the cluster runs part of each wave's
//! harts on worker threads, which the per-thread counter of
//! `alloc_free.rs` never sees. One process-wide counter needs the
//! process to itself, so this binary holds exactly one test.

use kwt_audio::kwt_tiny_frontend;
use kwt_baremetal::InferenceImage;
use kwt_engine::{Engine, Rv32ClusterBackend};
use kwt_model::{KwtConfig, KwtParams};
use kwt_quant::{A8Config, A8Kwt};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

/// Allocations made by any thread of the process.
static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::SeqCst);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::SeqCst);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::SeqCst);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn clip(seed: u64) -> Vec<f32> {
    (0..16_000u64)
        .map(|i| {
            let t = i as f64 / 16_000.0;
            ((2.0 * std::f64::consts::PI * (300.0 + seed as f64 * 50.0) * t).sin() * 0.5) as f32
        })
        .collect()
}

#[test]
fn rv32_cluster_waves_allocate_nothing_on_any_thread() {
    let mut params = KwtParams::init(KwtConfig::kwt_tiny(), 77).unwrap();
    params.visit_mut(|s| s.iter_mut().for_each(|v| *v *= 0.6));
    let a8 = A8Kwt::quantize(&params, A8Config::paper_a8()).unwrap();
    let image = InferenceImage::build_a8(&a8).unwrap();
    let backend = Rv32ClusterBackend::new(&image, 4).unwrap();
    let mut engine = Engine::new(kwt_tiny_frontend().unwrap(), Box::new(backend)).unwrap();
    let clips: Vec<Vec<f32>> = (0..4).map(clip).collect();
    let mut out = Vec::new();
    // the first batch spawns the cluster's workers and grows every buffer
    engine.classify_batch_into(&clips, &mut out).unwrap();
    let before = ALLOCS.load(Ordering::SeqCst);
    for _ in 0..3 {
        engine.classify_batch_into(&clips, &mut out).unwrap();
    }
    let n = ALLOCS.load(Ordering::SeqCst) - before;
    assert_eq!(n, 0, "3 warm 4-hart batches allocated {n} times");
}
