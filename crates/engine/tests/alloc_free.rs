//! Proof of the zero-allocation steady state: wraps the global allocator
//! in a per-thread counter and asserts that, after warm-up, repeated
//! host-side `classify_into` calls, streaming pushes and simulated-device
//! inferences (every image flavour, one core or a 4-hart cluster) perform
//! **no heap allocation at all** — the property the scratch arenas, the
//! bounded streaming ring and the session-owned device buffers exist for.

use kwt_audio::kwt_tiny_frontend;
use kwt_baremetal::InferenceImage;
use kwt_engine::{
    Backend, BackendKind, Engine, Prediction, Rv32ClusterBackend, Rv32SimBackend, StreamDecision,
    StreamingConfig, StreamingKws,
};
use kwt_model::{KwtConfig, KwtParams};
use kwt_quant::{A8Config, A8Kwt, Nonlinearity, QuantConfig, QuantizedKwt};
use kwt_rv32::DecodeCacheStats;
use kwt_tensor::Mat;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

struct CountingAlloc;

thread_local! {
    // Per-thread, so tests running in parallel in this binary cannot
    // inflate each other's counts. Const-initialised with no destructor:
    // touching it never allocates.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation() {
    // `try_with` fails only while the thread is being torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap allocations `f` makes on the calling thread.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

#[test]
fn sibling_thread_allocations_are_not_counted() {
    // Regression: with one process-wide counter, a test allocating on
    // another thread made every measured hot loop look allocating.
    let stop = AtomicBool::new(false);
    let sibling_allocs = AtomicU64::new(0);
    std::thread::scope(|s| {
        s.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                std::hint::black_box(vec![0u8; 64]);
                sibling_allocs.fetch_add(1, Ordering::Relaxed);
            }
        });
        let n = allocations(|| {
            while sibling_allocs.load(Ordering::Relaxed) < 1_000 {
                std::hint::spin_loop();
            }
        });
        stop.store(true, Ordering::Relaxed);
        assert_eq!(n, 0, "sibling thread's allocations leaked into the count");
    });
    // The counter does see this thread's own allocations.
    assert!(allocations(|| drop(std::hint::black_box(vec![0u8; 64]))) > 0);
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

fn clip(seed: u64) -> Vec<f32> {
    (0..16_000u64)
        .map(|i| {
            let t = i as f64 / 16_000.0;
            ((2.0 * std::f64::consts::PI * (300.0 + seed as f64 * 50.0) * t).sin() * 0.5) as f32
        })
        .collect()
}

/// Warm the engine on every input it will see, then count allocations
/// over many steady-state iterations.
fn steady_state_allocs(engine: &mut Engine, clips: &[Vec<f32>]) -> u64 {
    let mut pred = Prediction::default();
    for audio in clips {
        engine.classify_into(audio, &mut pred).unwrap();
    }
    allocations(|| {
        for _ in 0..10 {
            for audio in clips {
                engine.classify_into(audio, &mut pred).unwrap();
            }
        }
    })
}

#[test]
fn host_float_steady_state_allocates_nothing() {
    let clips: Vec<Vec<f32>> = (0..3).map(clip).collect();
    let mut engine = Engine::host_float(trained_ish(), kwt_tiny_frontend().unwrap()).unwrap();
    let n = steady_state_allocs(&mut engine, &clips);
    assert_eq!(n, 0, "host_float hot loop allocated {n} times");
}

#[test]
fn host_quant_steady_state_allocates_nothing() {
    let qm = QuantizedKwt::quantize(&trained_ish(), QuantConfig::paper_best());
    let clips: Vec<Vec<f32>> = (0..3).map(clip).collect();
    let mut engine = Engine::host_quant(qm, kwt_tiny_frontend().unwrap()).unwrap();
    let n = steady_state_allocs(&mut engine, &clips);
    assert_eq!(n, 0, "host_quant hot loop allocated {n} times");
}

#[test]
fn batched_steady_state_allocates_nothing() {
    let clips: Vec<Vec<f32>> = (0..4).map(clip).collect();
    let mut engine = Engine::host_float(trained_ish(), kwt_tiny_frontend().unwrap()).unwrap();
    let mut out = Vec::new();
    engine.classify_batch_into(&clips, &mut out).unwrap();
    let n = allocations(|| {
        for _ in 0..5 {
            engine.classify_batch_into(&clips, &mut out).unwrap();
        }
    });
    assert_eq!(n, 0, "batched hot loop allocated {n} times");
}

#[test]
fn streaming_push_is_allocation_bounded() {
    // The warm-up pushes absorb every one-time buffer growth (ring
    // buffer, window, vote deque); after that the streaming steady state
    // must allocate nothing at all.
    let mut kws = StreamingKws::new(
        Engine::host_float(trained_ish(), kwt_tiny_frontend().unwrap()).unwrap(),
        StreamingConfig::default(),
    )
    .unwrap();
    let chunk = clip(2);
    // Warm up: several full clips through the window + one classify.
    for _ in 0..3 {
        kws.push_with(&chunk, |_| {}).unwrap();
    }
    let n = allocations(|| {
        for _ in 0..5 {
            kws.push_with(&chunk, |_| {}).unwrap();
        }
    });
    assert_eq!(n, 0, "streaming steady state allocated {n} times");
}

#[test]
fn one_large_push_matches_small_chunks_and_allocates_nothing() {
    // Any chunk size streams through the bounded ring in pieces: one 10 s
    // push yields the decisions of the same audio in 100 ms chunks, and
    // no buffer grows to hold the chunk.
    let streamer = || {
        StreamingKws::new(
            Engine::host_float(trained_ish(), kwt_tiny_frontend().unwrap()).unwrap(),
            StreamingConfig::default(),
        )
        .unwrap()
    };
    let (mut whole, mut chunked) = (streamer(), streamer());
    let warm_up = clip(7);
    for kws in [&mut whole, &mut chunked] {
        for chunk in warm_up.chunks(1_600) {
            kws.push_with(chunk, |_| {}).unwrap();
        }
    }
    let signal: Vec<f32> = (0..10).flat_map(clip).collect();
    let key = |d: StreamDecision| (d.frame_index, d.class, d.score.to_bits(), d.smoothed_class);
    let mut want = Vec::new();
    for chunk in signal.chunks(1_600) {
        chunked.push_with(chunk, |d| want.push(key(d))).unwrap();
    }
    let mut got = Vec::with_capacity(want.len());
    let n = allocations(|| whole.push_with(&signal, |d| got.push(key(d))).unwrap());
    assert_eq!(n, 0, "a 10 s push allocated {n} times");
    assert!(want.len() > 200, "expected a decision per hop");
    assert_eq!(got, want);
}

#[test]
fn streaming_reset_reuse_allocates_nothing() {
    // Session-slot reuse in the serving layer: a stream closes, the slot
    // is reset, and a different caller's audio runs through the same
    // stream object. After warm-up the whole reset-and-replay cycle must
    // not touch the allocator — reset() keeps every arena.
    let mut kws = StreamingKws::new(
        Engine::host_float(trained_ish(), kwt_tiny_frontend().unwrap()).unwrap(),
        StreamingConfig::default(),
    )
    .unwrap();
    let first = clip(1);
    let second = clip(5);
    for audio in [&first, &second] {
        kws.push_with(audio, |_| {}).unwrap();
        kws.reset();
    }
    let n = allocations(|| {
        for _ in 0..4 {
            kws.reset();
            kws.push_with(&first, |_| {}).unwrap();
            kws.reset();
            kws.push_with(&second, |_| {}).unwrap();
        }
    });
    assert_eq!(n, 0, "reset-reuse cycle allocated {n} times");
}

#[test]
fn window_wave_steady_state_allocates_nothing() {
    // The serving layer's batch entry point: classifying a wave of
    // staged windows into reused Predictions must be allocation-free
    // after the first (warming) wave.
    let mut engine = Engine::host_float(trained_ish(), kwt_tiny_frontend().unwrap()).unwrap();
    let windows: Vec<_> = (0..4)
        .map(|s| engine.frontend().extract_padded(&clip(s)).unwrap())
        .collect();
    let mut out = vec![Prediction::default(); windows.len()];
    engine
        .classify_window_wave_into(&windows, &mut out)
        .unwrap();
    let n = allocations(|| {
        for _ in 0..10 {
            engine
                .classify_window_wave_into(&windows, &mut out)
                .unwrap();
        }
    });
    assert_eq!(n, 0, "window wave hot loop allocated {n} times");
}

/// An rv32 backend that publishes its machine's decode-cache counters
/// after every inference (a copy into a preallocated slot: no heap).
struct CacheProbe {
    inner: Rv32SimBackend,
    stats: Arc<Mutex<DecodeCacheStats>>,
}

impl CacheProbe {
    fn publish(&self) {
        *self.stats.lock().unwrap() = self.inner.session().machine().cpu.decode_cache_stats();
    }
}

impl Backend for CacheProbe {
    fn kind(&self) -> BackendKind {
        self.inner.kind()
    }

    fn config(&self) -> &KwtConfig {
        self.inner.config()
    }

    fn infer_into(&mut self, mfcc: &Mat<f32>, logits: &mut Vec<f32>) -> kwt_engine::Result<()> {
        self.inner.infer_into(mfcc, logits)?;
        self.publish();
        Ok(())
    }
}

#[test]
fn rv32_sim_a8_steady_state_allocates_nothing() {
    // The A8 device path: MFCC extraction, quantisation into the
    // session's reused i8 staging buffer, the input-mailbox write, the
    // simulated inference and the logits readback. After warm-up none
    // of it may allocate, and the per-call mailbox write must leave
    // every straight-line block of the simulator cached.
    let a8 = A8Kwt::quantize(&trained_ish(), A8Config::paper_a8()).unwrap();
    let image = InferenceImage::build_a8(&a8).unwrap();
    let stats = Arc::new(Mutex::new(DecodeCacheStats::default()));
    let probe = CacheProbe {
        inner: Rv32SimBackend::new(&image).unwrap(),
        stats: Arc::clone(&stats),
    };
    let mut engine = Engine::new(kwt_tiny_frontend().unwrap(), Box::new(probe)).unwrap();
    let clips: Vec<Vec<f32>> = (0..3).map(clip).collect();
    let mut pred = Prediction::default();
    for _ in 0..2 {
        for audio in &clips {
            engine.classify_into(audio, &mut pred).unwrap();
        }
    }
    let warm = *stats.lock().unwrap();
    assert!(warm.blocks_built > 0, "the device ran through blocks");
    let n = allocations(|| {
        for _ in 0..10 {
            for audio in &clips {
                engine.classify_into(audio, &mut pred).unwrap();
            }
        }
    });
    assert_eq!(n, 0, "rv32_sim A8 hot loop allocated {n} times");
    let after = *stats.lock().unwrap();
    assert_eq!(
        after.blocks_built, warm.blocks_built,
        "mailbox writes rebuilt blocks"
    );
    assert_eq!(
        after.blocks_dropped, warm.blocks_dropped,
        "mailbox writes dropped blocks"
    );
    assert_eq!(after.misses, warm.misses, "warm calls re-decoded code");
    assert!(after.hits > warm.hits);
}

#[test]
fn rv32_sim_float_quant_accel_steady_state_allocates_nothing() {
    // The non-A8 device paths: float features written as f32, the quant
    // flavours' i16 quantisation into the session's reused staging, and
    // the logits read back in place. One clip each: the float image
    // retires millions of instructions per inference.
    let params = trained_ish();
    let qm = QuantizedKwt::quantize(&params, QuantConfig::paper_best());
    let accel = qm.clone().with_nonlinearity(Nonlinearity::FixedLut);
    let audio = clip(4);
    for (name, image) in [
        ("float", InferenceImage::build_float(&params).unwrap()),
        ("quant", InferenceImage::build_quant(&qm).unwrap()),
        ("accel", InferenceImage::build_quant(&accel).unwrap()),
    ] {
        let mut engine = Engine::rv32_sim(&image, kwt_tiny_frontend().unwrap()).unwrap();
        let mut pred = Prediction::default();
        engine.classify_into(&audio, &mut pred).unwrap();
        let n = allocations(|| engine.classify_into(&audio, &mut pred).unwrap());
        assert_eq!(n, 0, "rv32_sim {name} inference allocated {n} times");
    }
}

#[test]
fn rv32_cluster_a8_steady_state_allocates_nothing() {
    // 4-hart waves: the per-hart runs, their grant logs, the access
    // replay and the wave results all live in buffers the cluster and
    // its session reuse, grown by the first wave.
    let a8 = A8Kwt::quantize(&trained_ish(), A8Config::paper_a8()).unwrap();
    let image = InferenceImage::build_a8(&a8).unwrap();
    let backend = Rv32ClusterBackend::new(&image, 4).unwrap();
    let mut engine = Engine::new(kwt_tiny_frontend().unwrap(), Box::new(backend)).unwrap();
    let clips: Vec<Vec<f32>> = (0..4).map(clip).collect();
    let mut out = Vec::new();
    engine.classify_batch_into(&clips, &mut out).unwrap();
    let n = allocations(|| {
        for _ in 0..3 {
            engine.classify_batch_into(&clips, &mut out).unwrap();
        }
    });
    assert_eq!(n, 0, "4-hart cluster waves allocated {n} times");
}
