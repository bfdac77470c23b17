//! The serving layer's headline guarantee, property-tested: N sessions
//! multiplexed through one server — arbitrary interleavings, arbitrary
//! chunk splits, slots reused across close/open — produce decision
//! streams **bit-identical** to running each stream through its own
//! standalone [`StreamingKws`], and both equal an independent batch
//! reference (the server and the streamer share one streaming core, so
//! agreeing with each other alone would prove little). Plus the
//! typed-backpressure and admission-control contracts at their exact
//! boundaries.

use kwt_audio::kwt_tiny_frontend;
use kwt_engine::{
    Backend, BackendKind, Engine, Prediction, StreamDecision, StreamingConfig, StreamingKws,
};
use kwt_model::{KwtConfig, KwtParams};
use kwt_serve::{KwsServer, ServeConfig, ServeError};
use kwt_tensor::Mat;
use proptest::prelude::*;

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

/// Ground truth: the standalone streamer over the whole signal (chunk
/// splits cannot matter — the front end is split-invariant by its own
/// property tests, and this test re-proves it end to end).
fn standalone(engine: Engine, cfg: StreamingConfig, signal: &[f32]) -> Vec<StreamDecision> {
    let mut kws = StreamingKws::new(engine, cfg).unwrap();
    kws.push(signal).unwrap()
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

/// Independent reference: batch-extract the whole signal, classify every
/// `T`-row window ending at a stride boundary, and smooth with
/// [`majority`].
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

fn assert_decisions_match(got: &[StreamDecision], want: &[StreamDecision], which: usize) {
    assert_eq!(got.len(), want.len(), "session {which}: decision count");
    for (g, w) in got.iter().zip(want) {
        assert_eq!(g.frame_index, w.frame_index, "session {which}");
        assert_eq!(g.class, w.class, "session {which} frame {}", w.frame_index);
        assert_eq!(
            g.score.to_bits(),
            w.score.to_bits(),
            "session {which} frame {}",
            w.frame_index
        );
        assert_eq!(
            g.smoothed_class, w.smoothed_class,
            "session {which} frame {}",
            w.frame_index
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn multiplexed_sessions_are_bit_identical_to_standalone(
        seeds in proptest::collection::vec(0u64..1_000, 2..5),
        len_extra in 0usize..6_000,
        chunk_sel in proptest::collection::vec(1usize..2_000, 1..8),
        rotate in 0usize..7,
        streaming in (1usize..3, 1usize..6).prop_map(|(s, v)| StreamingConfig {
            stride_frames: s,
            vote_window: v,
        }),
    ) {
        let signals: Vec<Vec<f32>> = seeds
            .iter()
            .enumerate()
            .map(|(i, &s)| wave(s, 16_000 + len_extra + i * 701))
            .collect();
        let n = signals.len();
        // The host model proves the real path; the window hash makes any
        // frame or vote difference visible.
        for engine in [host_engine, hash_engine] {
            let mut server = KwsServer::new(
                engine(),
                ServeConfig { max_sessions: n, streaming, ..ServeConfig::default() },
            ).unwrap();
            let ids: Vec<_> = (0..n).map(|_| server.open().unwrap()).collect();

            // Interleave: each pass pushes every still-live session's next
            // chunk (session order rotated per pass), then drives once — so
            // waves genuinely mix sessions.
            let mut got: Vec<Vec<StreamDecision>> = vec![Vec::new(); n];
            let mut offset = vec![0usize; n];
            let mut pass = 0usize;
            while offset.iter().zip(&signals).any(|(o, s)| *o < s.len()) {
                for k in 0..n {
                    let s = (k + rotate * pass) % n;
                    let end = (offset[s] + chunk_sel[(pass + k) % chunk_sel.len()])
                        .min(signals[s].len());
                    if offset[s] < end {
                        server.push(ids[s], &signals[s][offset[s]..end]).unwrap();
                        offset[s] = end;
                    }
                }
                server.drive(|d| {
                    let s = ids.iter().position(|&i| i == d.session).unwrap();
                    got[s].push(d.decision.clone());
                }).unwrap();
                pass += 1;
            }

            for (s, signal) in signals.iter().enumerate() {
                let want = batch_reference(&mut engine(), streaming, signal);
                prop_assert!(!want.is_empty());
                assert_decisions_match(&got[s], &want, s);
                assert_decisions_match(&standalone(engine(), streaming, signal), &want, s);
            }
            prop_assert_eq!(server.metrics().decisions as usize,
                got.iter().map(Vec::len).sum::<usize>());
        }
    }
}

#[test]
fn backpressure_fires_exactly_at_the_ring_boundary() {
    let mut server = KwsServer::new(
        host_engine(),
        ServeConfig {
            max_sessions: 2,
            ring_samples: 2_000,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let id = server.open().unwrap();
    let chunk = wave(3, 2_000);
    // exactly fills the ring
    server.push(id, &chunk).unwrap();
    assert_eq!(server.ring_free(id).unwrap(), 0);
    // one sample over: typed rejection, chunk refused whole
    match server.push(id, &chunk[..1]) {
        Err(ServeError::Backpressure {
            session,
            dropped,
            free,
        }) => {
            assert_eq!(session, id);
            assert_eq!(dropped, 1);
            assert_eq!(free, 0);
        }
        other => panic!("expected backpressure, got {other:?}"),
    }
    // draining makes room: 2000 samples hold frames [0,1000) and
    // [600,1600); everything before sample 1200 is then released
    server.drive(|_| {}).unwrap();
    assert_eq!(server.ring_free(id).unwrap(), 1_200);
    // a chunk one larger than the free space still rejects whole...
    match server.push(id, &chunk[..1_201]) {
        Err(ServeError::Backpressure { dropped, free, .. }) => {
            assert_eq!(dropped, 1_201);
            assert_eq!(free, 1_200);
        }
        other => panic!("expected backpressure, got {other:?}"),
    }
    // ...and an exactly-fitting one is accepted
    server.push(id, &chunk[..1_200]).unwrap();
    let m = server.metrics();
    assert_eq!(m.chunks_rejected, 2);
    assert_eq!(m.samples_dropped, 1_202);
    assert_eq!(m.chunks_accepted, 2);
}

#[test]
fn admission_control_and_generation_tags() {
    let mut server = KwsServer::new(
        host_engine(),
        ServeConfig {
            max_sessions: 2,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let a = server.open().unwrap();
    let b = server.open().unwrap();
    assert!(matches!(
        server.open(),
        Err(ServeError::SessionsFull { capacity: 2 })
    ));
    // closing frees the slot; the reused slot mints a new generation
    server.close(a).unwrap();
    let c = server.open().unwrap();
    assert_eq!(c.index(), a.index());
    assert_ne!(c.generation(), a.generation());
    // the stale handle can no longer touch the slot's new occupant
    for r in [
        server.push(a, &[0.1]).err(),
        server.close(a).err(),
        server.ring_free(a).err(),
    ] {
        assert!(matches!(r, Some(ServeError::StaleSession { session }) if session == a));
    }
    server.close(b).unwrap();
    server.close(c).unwrap();
    assert_eq!(server.active_sessions(), 0);
    assert_eq!(server.metrics().sessions_opened, 3);
    assert_eq!(server.metrics().sessions_closed, 3);
}

#[test]
fn invalid_samples_are_rejected_before_buffering() {
    let mut server = KwsServer::new(host_engine(), ServeConfig::default()).unwrap();
    let id = server.open().unwrap();
    server.push(id, &[0.25, 0.5]).unwrap();
    let free = server.ring_free(id).unwrap();
    assert!(matches!(
        server.push(id, &[0.1, f32::NAN, 0.2]),
        Err(ServeError::Audio(_))
    ));
    assert_eq!(
        server.ring_free(id).unwrap(),
        free,
        "rejected chunk must not be buffered"
    );
}

#[test]
fn slot_reuse_does_not_leak_the_previous_stream() {
    // Run a full stream through a slot, close it, reopen, run a
    // different stream: the second stream's decisions must equal its
    // standalone reference — nothing from the first occupant (window
    // rows, votes, ring tail) may bleed through.
    let cfg = StreamingConfig::default();
    let mut server = KwsServer::new(
        host_engine(),
        ServeConfig {
            max_sessions: 1,
            streaming: cfg,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let first = wave(11, 19_000);
    let second = wave(42, 21_500);
    for signal in [&first, &second] {
        let id = server.open().unwrap();
        let mut got = Vec::new();
        for chunk in signal.chunks(1_111) {
            server.push(id, chunk).unwrap();
            server.drive(|d| got.push(d.decision.clone())).unwrap();
        }
        let want = standalone(host_engine(), cfg, signal);
        assert_decisions_match(&got, &want, 0);
        server.close(id).unwrap();
    }
}

#[test]
fn cluster_server_matches_serial_streamers_and_fuses_waves() {
    // The tentpole path: a 4-hart cluster behind the server, several
    // sessions multiplexed so waves carry windows from different
    // sessions — decisions must still be bit-identical to standalone
    // streamers over the *serial* rv32 engine (single-device reference),
    // while the wave accounting shows genuine cross-session fusion.
    use kwt_baremetal::InferenceImage;
    use kwt_quant::{A8Config, A8Kwt};
    let a8 = A8Kwt::quantize(&trained_ish(), A8Config::paper_a8()).unwrap();
    let image = InferenceImage::build_a8(&a8).unwrap();
    let fe = kwt_tiny_frontend().unwrap();
    let cfg = StreamingConfig::default();
    let cluster = Engine::rv32_cluster(&image, fe.clone(), 4).unwrap();
    let mut server = KwsServer::new(
        cluster,
        ServeConfig {
            max_sessions: 5,
            streaming: cfg,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    assert_eq!(server.wave_width(), 4);

    let signals: Vec<Vec<f32>> = (0..5).map(|s| wave(100 + s as u64, 20_200)).collect();
    let ids: Vec<_> = (0..5).map(|_| server.open().unwrap()).collect();
    let mut got: Vec<Vec<StreamDecision>> = vec![Vec::new(); 5];
    let mut offset = 0usize;
    while offset < 20_200 {
        let end = (offset + 1_600).min(20_200);
        for (s, id) in ids.iter().enumerate() {
            server.push(*id, &signals[s][offset..end]).unwrap();
        }
        server
            .drive(|d| {
                let s = ids.iter().position(|&i| i == d.session).unwrap();
                got[s].push(d.decision.clone());
            })
            .unwrap();
        offset = end;
    }

    for (s, signal) in signals.iter().enumerate() {
        let serial = Engine::rv32_sim(&image, fe.clone()).unwrap();
        let want = standalone(serial, cfg, signal);
        assert!(!want.is_empty());
        assert_decisions_match(&got[s], &want, s);
    }
    let m = server.metrics();
    assert!(m.device_cycles > 0, "cluster waves must report SoC cycles");
    assert!(
        m.wave_occupancy() > 2.0,
        "five ready sessions must fuse into multi-window waves, got {:.2}",
        m.wave_occupancy()
    );
    assert!(m.sim_latency_cycles.count() == m.decisions);
}
