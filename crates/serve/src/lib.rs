//! # kwt-serve
//!
//! The serving layer of the reproduction: a **session-multiplexed
//! ingest server** that drives thousands of concurrent keyword-spotting
//! streams through one engine on one event loop, batching windows
//! *across sessions* so wide backends (the simulated RV32 cluster) run
//! full waves instead of one stream's window at a time.
//!
//! The paper's deployment target is a single small device; the serving
//! question this crate answers is the production-scale inverse — many
//! microphones, one inference resource. The pieces:
//!
//! * **Slab sessions** ([`SessionId`]): every session is a slot holding
//!   one [`kwt_engine::StreamCore`] — a bounded [`kwt_audio::SampleRing`],
//!   the sliding `T x F` window, the vote state — allocated once when the
//!   server is built and reused through open/close cycles; the extractor
//!   scratch and frame buffers are shared by every session. Handles are generation-tagged, so an id
//!   held past `close` fails with [`ServeError::StaleSession`] instead
//!   of touching the slot's next occupant.
//! * **Explicit backpressure**: a chunk that does not fit its session's
//!   ring is rejected *whole* with [`ServeError::Backpressure`]
//!   (how many samples, how much room was left); admission beyond the
//!   slab is [`ServeError::SessionsFull`]. Nothing ever grows silently
//!   and nothing panics on overload.
//! * **Cross-session batch scheduling** ([`KwsServer::drive`]): each
//!   round advances every candidate session to its next hop-aligned
//!   classification boundary, then classifies all boundary-crossing
//!   windows together in backend waves of [`Engine::wave_width`]
//!   windows ([`Engine::classify_window_wave_into`]). On a 4-hart
//!   cluster a wave costs one SoC timeline instead of four serial runs —
//!   that is where the multiplexed throughput win comes from.
//! * **Bit-identity**: scheduling never changes results. Each session
//!   runs the same [`kwt_engine::StreamCore`] as a standalone
//!   [`kwt_engine::StreamingKws`] — one emission rule, one classify
//!   boundary, one vote — and the wave contract guarantees wave logits
//!   equal serial logits, so every delivered [`SessionDecision`] is
//!   bit-identical to the standalone streamer over the same audio, for
//!   any interleaving and any chunk split. The property tests check both
//!   against an independent batch reference.
//! * **Accounting** ([`ServeMetrics`]): decisions, wave occupancy,
//!   summed device cycles, and pre-allocated p50/p99/p999 histograms of
//!   wall-clock and simulated-cycle delivery latency.
//! * **Reactor** ([`Reactor`]): a dependency-free, deterministic
//!   virtual-time readiness queue used by the benches to interleave
//!   thousands of synthetic 16 kHz streams reproducibly.
//! * **Wake-word cascade** ([`CascadeServer`]): wraps the multiplexed
//!   server in the two-stage always-on story — the server's tiny
//!   detector decisions gate a KWT-1 verifier pass over one-second
//!   sample tails of the triggering sessions, with a per-session
//!   refractory period ([`CascadeServeConfig`], [`CascadeStats`]).
//!
//! After warm-up the whole admit → buffer → schedule → classify →
//! deliver path performs **zero heap allocation** (asserted by this
//! crate's allocation-counting test, like the engine's).
//!
//! # Example
//!
//! ```
//! use kwt_engine::Engine;
//! use kwt_model::{KwtConfig, KwtParams};
//! use kwt_serve::{KwsServer, ServeConfig};
//!
//! # fn main() -> Result<(), kwt_serve::ServeError> {
//! let params = KwtParams::init(KwtConfig::kwt_tiny(), 7).unwrap();
//! let engine = Engine::host_float(params, kwt_audio::kwt_tiny_frontend().unwrap())?;
//! let mut server = KwsServer::new(engine, ServeConfig::default())?;
//! let a = server.open()?;
//! let b = server.open()?;
//! let chunk = vec![0.1f32; 1_600]; // 100 ms at 16 kHz
//! for _ in 0..12 {
//!     server.push(a, &chunk)?;
//!     server.push(b, &chunk)?;
//!     server.drive(|d| println!("{}: class {}", d.session, d.decision.smoothed_class))?;
//! }
//! assert!(server.metrics().decisions > 0);
//! server.close(a)?;
//! server.close(b)?;
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cascade;
mod error;
mod metrics;
mod reactor;
mod server;
mod session;

pub use cascade::{CascadeEvent, CascadeServeConfig, CascadeServer, CascadeStats};
pub use error::ServeError;
pub use metrics::{LatencyHistogram, ServeMetrics};
pub use reactor::{Reactor, Token};
pub use server::{KwsServer, ServeConfig, SessionDecision};
pub use session::SessionId;

#[doc(no_inline)]
pub use kwt_engine::Engine;

/// Convenience alias for results returned by this crate.
pub type Result<T> = std::result::Result<T, ServeError>;
