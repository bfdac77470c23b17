//! The clip workload's load loop: one closed-loop caller classifying seeded
//! one-second clips on the simulated device.

use crate::common::{BoxError, Digest, Stop};
use crate::trace::{span, SharedTracer};
use kwt_audio::{MfccExtractor, MfccScratch};
use kwt_engine::{Engine, Prediction};
use kwt_quant::{A8Kwt, A8Scratch};
use kwt_tensor::Mat;
use std::time::{Duration, Instant};

/// Expected logits per corpus clip from the host A8 golden model, which
/// the device image is bit-identical to.
#[derive(Debug, Clone)]
pub struct ClipOracle {
    logits: Vec<Vec<f32>>,
}

impl ClipOracle {
    /// Runs `A8Kwt::forward_a8_into` on the float features of every clip.
    ///
    /// # Errors
    ///
    /// Front-end or model failures.
    pub fn golden(a8: &A8Kwt, fe: &MfccExtractor, clips: &[Vec<f32>]) -> Result<Self, BoxError> {
        let (mut mfcc, mut scratch, mut s) =
            (Mat::default(), MfccScratch::new(), A8Scratch::default());
        let mut logits = Vec::with_capacity(clips.len());
        for clip in clips {
            fe.extract_padded_into(clip, &mut mfcc, &mut scratch)?;
            let mut l = Vec::new();
            a8.forward_a8_into(&mfcc, &mut s, &mut l)?;
            logits.push(l);
        }
        Ok(ClipOracle { logits })
    }

    fn matches(&self, clip: usize, got: &[f32]) -> bool {
        let want = &self.logits[clip];
        want.len() == got.len()
            && want
                .iter()
                .zip(got)
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }

    /// Flips one expected logit, for tests of the failure accounting.
    #[cfg(test)]
    pub fn perturb(&mut self, clip: usize) {
        self.logits[clip][0] += 1.0;
    }
}

/// What one measured phase of the clip workload did.
#[derive(Debug, Clone, Default)]
pub struct ClipTally {
    /// Classify calls made.
    pub attempted: u64,
    /// Calls that failed or disagreed with the oracle.
    pub failed: u64,
    /// Samples-to-decision latency of every call, ms.
    pub latencies_ms: Vec<f64>,
    /// Wall time of the phase.
    pub elapsed: Duration,
    /// Device cycles of every call, in call order.
    pub cycles: Vec<u64>,
    /// Digest of the delivered predictions and device cycles.
    pub digest: Digest,
}

/// Classifies `clips[order[i % n]]` for `i = 0, 1, ...` until `stop`.
/// The whole clip is due when the call is issued (closed loop), so a
/// decision's latency is the call's duration.
pub fn run(
    engine: &mut Engine,
    clips: &[Vec<f32>],
    order: &[u32],
    oracle: &ClipOracle,
    tracer: Option<&SharedTracer>,
    stop: Stop,
) -> ClipTally {
    let mut t = ClipTally::default();
    let mut pred = Prediction::default();
    let t0 = Instant::now();
    while !stop.reached(t.attempted) {
        let clip = order[t.attempted as usize % order.len()] as usize;
        let due = Instant::now();
        let r = span(tracer, "engine.classify", Some(t.attempted), || {
            engine.classify_into(&clips[clip], &mut pred)
        });
        let delivered = Instant::now();
        t.attempted += 1;
        let cycles = engine.last_device_run().map_or(0, |r| r.cycles);
        t.cycles.push(cycles);
        if r.is_ok() && oracle.matches(clip, &pred.logits) {
            t.latencies_ms
                .push(delivered.duration_since(due).as_secs_f64() * 1e3);
            t.digest.add(clip as u64);
            t.digest.add(pred.class as u64);
            pred.logits
                .iter()
                .for_each(|l| t.digest.add(u64::from(l.to_bits())));
            t.digest.add(cycles);
        } else {
            t.failed += 1;
        }
    }
    t.elapsed = t0.elapsed();
    t
}
