//! The serving workloads' load generator: a fleet of sessions pushing 100 ms
//! chunks into one `KwsServer`, in a closed loop or paced open loop.
//!
//! Chunks arrive in *groups*: group `g` carries the `g / slots`-th chunk
//! of every session in phase slot `g % slots` (see
//! [`Fleet::group_time`]). After each group the load loop calls `drive`
//! once, which drains every boundary the new audio completed. A decision
//! therefore always needs a sample of its session's newest chunk, so its
//! samples-to-decision latency runs from that group's due time to the
//! moment `drive` delivers it. In a closed loop a group is due when the
//! previous drive returns; in an open loop it is due on a wall-clock
//! schedule, whether or not the server has caught up.

use crate::common::{BoxError, Digest, Stop};
use crate::inputs::{Fleet, CHUNK};
use crate::trace::{span, SharedTracer};
use kwt_engine::{Engine, StreamDecision, StreamingConfig, StreamingKws};
use kwt_serve::{KwsServer, ServeConfig, SessionId};
use std::time::{Duration, Instant};

/// Waves (from the server's start) over which device cycles per decision
/// are taken, so the figure repeats exactly at a given seed however far
/// a timed run gets.
pub const CYCLE_WAVES: u64 = 256;

/// How arrival groups are paced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pace {
    /// The next group is sent as soon as the previous drive returns.
    Closed,
    /// Groups are due on a fixed wall-clock schedule offering this many
    /// chunks per second across the fleet.
    Open {
        /// Offered load, chunks per second.
        chunks_per_s: f64,
    },
}

/// One expected decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Expect {
    class: usize,
    smoothed: usize,
    score: u32,
}

impl Expect {
    fn of(d: &StreamDecision) -> Self {
        Expect {
            class: d.class,
            smoothed: d.smoothed_class,
            score: d.score.to_bits(),
        }
    }
}

/// Expected decisions per pool stream, from a standalone streamer.
#[derive(Debug, Clone)]
pub struct FleetOracle {
    first_frame: u64,
    per_stream: Vec<Vec<Expect>>,
}

impl FleetOracle {
    /// Plays every pool stream through one standalone `StreamingKws` over
    /// `engine` (reset between streams) in the fleet's chunk size.
    ///
    /// # Errors
    ///
    /// Streaming failures, or a reference whose decisions are not one per
    /// frame from its first.
    pub fn standalone(engine: Engine, fleet: &Fleet) -> Result<Self, BoxError> {
        let mut kws = StreamingKws::new(engine, StreamingConfig::default())?;
        let first_frame = kws.engine().config().input_time as u64 - 1;
        let mut per_stream = Vec::with_capacity(fleet.streams.len());
        for stream in &fleet.streams {
            kws.reset();
            let mut got = Vec::new();
            for chunk in stream.chunks(CHUNK) {
                kws.push_with(chunk, |d| got.push(d))?;
            }
            if got
                .iter()
                .enumerate()
                .any(|(j, d)| d.frame_index != first_frame + j as u64)
            {
                return Err("reference decisions are not one per frame".into());
            }
            per_stream.push(got.iter().map(Expect::of).collect());
        }
        Ok(FleetOracle {
            first_frame,
            per_stream,
        })
    }

    fn matches(&self, stream: u32, d: &StreamDecision) -> bool {
        d.frame_index
            .checked_sub(self.first_frame)
            .and_then(|j| self.per_stream[stream as usize].get(j as usize))
            .is_some_and(|e| *e == Expect::of(d))
    }

    /// Flips one expected class, for tests of the failure accounting.
    #[cfg(test)]
    pub fn perturb(&mut self, stream: usize, j: usize) {
        self.per_stream[stream][j].class ^= 1;
    }
}

/// What one phase of a serving workload did.
#[derive(Debug, Clone, Default)]
pub struct PhaseTally {
    /// Push calls, drive failures and decisions: the operations attempted.
    pub attempted: u64,
    /// Rejected or failed pushes, failed drives, and decisions that differ
    /// from the oracle or arrive out of frame order.
    pub failed: u64,
    /// Decisions delivered.
    pub decisions: u64,
    /// Arrival groups sent.
    pub groups: u64,
    /// Samples-to-decision latency of every correct decision, ms.
    pub latencies_ms: Vec<f64>,
    /// How late the generator sent each group, ms (0 in a closed loop).
    pub late_ms: Vec<f64>,
    /// Per chunk: due time to the start of the drive that consumes it, ms.
    pub wait_ms: Vec<f64>,
    /// Wall time of the phase.
    pub elapsed: Duration,
}

/// A live fleet: the server, its sessions and the checking state.
pub struct LiveFleet<'a> {
    server: KwsServer,
    fleet: &'a Fleet,
    oracle: &'a FleetOracle,
    tracer: Option<SharedTracer>,
    ids: Vec<SessionId>,
    /// Slab index to session number.
    session_at: Vec<u32>,
    /// Pool stream each session is playing.
    stream: Vec<u32>,
    /// Samples of its stream each session has pushed.
    pushed: Vec<usize>,
    /// Frame index each session's next decision must carry.
    next_frame: Vec<u64>,
    geometry: (u64, u64),
    group: u64,
    /// Server device cycles and decisions when its wave count first
    /// reached [`CYCLE_WAVES`].
    cycle_window: Option<(u64, u64)>,
    /// Digest of every delivered decision, in delivery order.
    pub digest: Digest,
}

impl<'a> LiveFleet<'a> {
    /// Builds the server slab around `engine` and opens one session per
    /// fleet member.
    ///
    /// # Errors
    ///
    /// Server configuration or admission failures.
    pub fn open(
        engine: Engine,
        fleet: &'a Fleet,
        oracle: &'a FleetOracle,
        tracer: Option<&SharedTracer>,
    ) -> Result<Self, BoxError> {
        let fc = engine.frontend().config();
        let geometry = (fc.hop_length as u64, fc.win_length as u64);
        let n = fleet.spec.sessions;
        let mut server = KwsServer::new(
            engine,
            ServeConfig {
                max_sessions: n,
                ..ServeConfig::default()
            },
        )?;
        let mut ids = Vec::with_capacity(n);
        let mut session_at = vec![0u32; n];
        for s in 0..n {
            let id = server.open()?;
            session_at[id.index() as usize] = s as u32;
            ids.push(id);
        }
        Ok(LiveFleet {
            server,
            fleet,
            oracle,
            tracer: tracer.cloned(),
            ids,
            session_at,
            stream: fleet.first_stream.clone(),
            pushed: vec![0; n],
            next_frame: vec![oracle.first_frame; n],
            geometry,
            group: 0,
            cycle_window: None,
            digest: Digest::default(),
        })
    }

    /// The server, for its metrics.
    pub fn server(&self) -> &KwsServer {
        &self.server
    }

    /// Simulated device cycles per decision over the server's first
    /// [`CYCLE_WAVES`] waves (over all waves so far if it has run fewer).
    pub fn device_cycles_per_decision(&self) -> f64 {
        let m = self.server.metrics();
        let (cycles, decisions) = self.cycle_window.unwrap_or((m.device_cycles, m.decisions));
        cycles as f64 / decisions.max(1) as f64
    }

    /// Sends arrival groups until `stop` (counting groups of this phase).
    pub fn run_phase(&mut self, pace: Pace, stop: Stop) -> PhaseTally {
        let mut t = PhaseTally::default();
        let t0 = Instant::now();
        let v0 = self.fleet.group_time(self.group);
        let sample_s = match pace {
            Pace::Closed => 0.0,
            Pace::Open { chunks_per_s } => {
                self.fleet.spec.sessions as f64 / (chunks_per_s * CHUNK as f64)
            }
        };
        let slots = self.fleet.spec.slots as u64;
        while !stop.reached(t.groups) {
            let g = self.group;
            let slot = (g % slots) as usize;
            let due = match pace {
                Pace::Closed => Instant::now(),
                Pace::Open { .. } => {
                    let at = (self.fleet.group_time(g) - v0) as f64 * sample_s;
                    let due = t0 + Duration::from_secs_f64(at);
                    if due >= stop.deadline {
                        break;
                    }
                    wait_until(due);
                    t.late_ms
                        .push(ms(Instant::now().saturating_duration_since(due)));
                    due
                }
            };
            let pushed = self.push_group(slot, &mut t);
            let wait = ms(Instant::now().saturating_duration_since(due));
            t.wait_ms.extend(std::iter::repeat_n(wait, pushed));
            self.drive(due, &mut t);
            self.restart_finished(slot, &mut t);
            self.group += 1;
            t.groups += 1;
            let m = self.server.metrics();
            if self.cycle_window.is_none() && m.waves >= CYCLE_WAVES {
                self.cycle_window = Some((m.device_cycles, m.decisions));
            }
        }
        t.elapsed = t0.elapsed();
        t
    }

    /// Pushes the next chunk of every session in `slot`; returns how many
    /// were accepted.
    fn push_group(&mut self, slot: usize, t: &mut PhaseTally) -> usize {
        let fleet = self.fleet;
        let mut accepted = 0;
        for &s in &fleet.members[slot] {
            let s = s as usize;
            let stream = &fleet.streams[self.stream[s] as usize];
            let (a, b) = (self.pushed[s], self.pushed[s] + CHUNK);
            let req = (s as u64) << 32 | (a / CHUNK) as u64;
            let server = &mut self.server;
            let id = self.ids[s];
            let r = span(self.tracer.as_ref(), "serve.push", Some(req), || {
                server.push(id, &stream[a..b])
            });
            t.attempted += 1;
            match r {
                Ok(()) => {
                    self.pushed[s] = b;
                    accepted += 1;
                }
                Err(_) => t.failed += 1,
            }
        }
        accepted
    }

    /// Drains the server, checking every decision against the oracle.
    fn drive(&mut self, due: Instant, t: &mut PhaseTally) {
        let (hop, win) = self.geometry;
        let Self {
            server,
            oracle,
            tracer,
            session_at,
            stream,
            pushed,
            next_frame,
            digest,
            group,
            ..
        } = self;
        let r = span(tracer.as_ref(), "serve.drive", Some(*group), || {
            server.drive(|d| {
                let delivered = Instant::now();
                let s = session_at[d.session.index() as usize] as usize;
                let f = d.decision.frame_index;
                // the decision's last sample must lie in the newest chunk
                let end = f * hop + win;
                let newest = end <= pushed[s] as u64 && end + CHUNK as u64 > pushed[s] as u64;
                let ok = newest && f == next_frame[s] && oracle.matches(stream[s], &d.decision);
                next_frame[s] = f + 1;
                t.attempted += 1;
                t.decisions += 1;
                if ok {
                    t.latencies_ms
                        .push(ms(delivered.saturating_duration_since(due)));
                } else {
                    t.failed += 1;
                }
                digest.add((s as u64) << 32 | f);
                digest.add(d.decision.class as u64);
                digest.add(d.decision.smoothed_class as u64);
                digest.add(u64::from(d.decision.score.to_bits()));
            })
        });
        if r.is_err() {
            t.attempted += 1;
            t.failed += 1;
        }
    }

    /// Reopens every session of `slot` that has played its whole stream,
    /// on the next pool stream.
    fn restart_finished(&mut self, slot: usize, t: &mut PhaseTally) {
        let fleet = self.fleet;
        for &s in &fleet.members[slot] {
            let s = s as usize;
            if self.pushed[s] < fleet.streams[self.stream[s] as usize].len() {
                continue;
            }
            t.attempted += 1;
            let reopened = self
                .server
                .close(self.ids[s])
                .and_then(|()| self.server.open());
            match reopened {
                Ok(id) => {
                    self.session_at[id.index() as usize] = s as u32;
                    self.ids[s] = id;
                }
                Err(_) => t.failed += 1,
            }
            self.stream[s] = (self.stream[s] + 1) % fleet.streams.len() as u32;
            self.pushed[s] = 0;
            self.next_frame[s] = self.oracle.first_frame;
        }
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Spins until `due`. The load loop never sleeps, so a group is late only
/// when the program itself (or a stall of its one thread) held it up, not
/// because the OS woke the generator late.
fn wait_until(due: Instant) {
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}
