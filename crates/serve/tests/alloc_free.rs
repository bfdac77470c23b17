//! Proof that the serving steady state — admit, buffer, schedule,
//! batch-classify, deliver, close, reuse the slot — performs **zero heap
//! allocation** after warm-up. Same counting-allocator technique as the
//! engine's alloc_free test, one layer higher in the stack.

use kwt_audio::kwt_tiny_frontend;
use kwt_engine::{Engine, StreamingConfig};
use kwt_model::{KwtConfig, KwtParams};
use kwt_serve::{KwsServer, ServeConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

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

fn chunk(seed: u64) -> Vec<f32> {
    (0..1_600u64)
        .map(|i| {
            let t = i as f64 / 16_000.0;
            ((2.0 * std::f64::consts::PI * (300.0 + seed as f64 * 50.0) * t).sin() * 0.5) as f32
        })
        .collect()
}

#[test]
fn serve_steady_state_allocates_nothing() {
    let engine = Engine::host_float(trained_ish(), kwt_tiny_frontend().unwrap()).unwrap();
    let mut server = KwsServer::new(
        engine,
        ServeConfig {
            max_sessions: 8,
            streaming: StreamingConfig::default(),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let chunks: Vec<Vec<f32>> = (0..4).map(chunk).collect();
    let mut delivered = 0u64;
    let mut ids = Vec::with_capacity(6);

    // One full lifecycle, exercised twice to warm every arena: open a
    // fleet, stream enough audio through each session for several
    // decisions, then close everything (slots return to the pool). The
    // id buffer is reused so the measured loop is purely server work.
    let cycle = |server: &mut KwsServer, ids: &mut Vec<_>, delivered: &mut u64| {
        ids.clear();
        for _ in 0..6 {
            ids.push(server.open().unwrap());
        }
        for round in 0..12 {
            for (s, id) in ids.iter().enumerate() {
                server
                    .push(*id, &chunks[(s + round) % chunks.len()])
                    .unwrap();
            }
            *delivered += server.drive(|_| {}).unwrap() as u64;
        }
        for id in ids.drain(..) {
            server.close(id).unwrap();
        }
    };
    cycle(&mut server, &mut ids, &mut delivered);
    cycle(&mut server, &mut ids, &mut delivered);
    assert!(delivered > 0, "warm-up must produce decisions");

    // Steady state: the identical lifecycle — admission, buffering,
    // hop-aligned scheduling, fused waves, vote smoothing, delivery,
    // close-and-reuse — must not touch the allocator at all.
    let before = delivered;
    let n = allocations(|| {
        for _ in 0..3 {
            cycle(&mut server, &mut ids, &mut delivered);
        }
    });
    assert!(delivered > before, "steady state must produce decisions");
    assert_eq!(n, 0, "serving steady state allocated {n} times");
}

#[test]
fn reactor_polling_is_allocation_free_at_capacity() {
    use kwt_serve::{Reactor, Token};
    let mut reactor = Reactor::with_capacity(64);
    let mut fired: Vec<Token> = Vec::with_capacity(64);
    // Warm: fill to capacity once.
    for i in 0..64u64 {
        reactor.arm(i % 7, Token(i));
    }
    fired.clear();
    reactor.poll_into(7, &mut fired);
    let n = allocations(|| {
        for round in 0..50u64 {
            for i in 0..64u64 {
                reactor.arm(round + i % 5, Token(i));
            }
            fired.clear();
            reactor.poll_into(round + 5, &mut fired);
            while !reactor.is_empty() {
                let due = reactor.next_due().unwrap();
                reactor.poll_into(due, &mut fired);
            }
        }
    });
    assert_eq!(n, 0, "reactor hot loop allocated {n} times");
}
