//! # kwt-engine
//!
//! The unified inference engine: one servable runtime over every
//! inference flavour this reproduction implements. Where the lower crates
//! expose one-shot, allocation-heavy per-clip calls
//! (`MfccExtractor::extract`, `kwt_model::forward`,
//! `QuantizedKwt::forward`, `InferenceImage::run`), the engine owns all
//! per-call state — packed weights, activation scratch arenas, MFCC work
//! buffers, a persistent simulator machine — and reuses it across calls.
//!
//! # Backend matrix
//!
//! | [`BackendKind`] | Implementation                                   | Paper row (Table IX)    |
//! |-----------------|--------------------------------------------------|-------------------------|
//! | `HostFloat`     | `kwt_model::forward_into` + [`kwt_model::Scratch`] | KWT-Tiny (float)      |
//! | `HostQuant`     | `QuantizedKwt::forward_detailed_into` + [`kwt_quant::QuantScratch`] | KWT-Tiny-Q |
//! | `Rv32Sim`       | `kwt_baremetal::DeviceSession` (persistent machine, warm decode cache) | any flavour on the simulated Ibex |
//! | `Rv32Cluster`   | `kwt_baremetal::ClusterSession` (N harts, banked shared memory, batches sharded one clip per hart per wave) | any flavour, N cores |
//!
//! All of them sit behind [`Engine::classify`] / [`Engine::classify_batch`]
//! and produce logits bit-identical to their one-shot counterparts (the
//! equivalence tests prove it). The `Rv32Sim` backend runs whichever
//! image flavour it is given — including the fully-INT8
//! `kwt_baremetal::Flavor::A8` pipeline ([`Rv32SimBackend::flavor`]).
//!
//! # Scratch lifecycle
//!
//! Arenas are allocated once at engine construction and resized in place
//! thereafter; a fresh arena and a reused one are indistinguishable
//! (buffers carry no state between calls). Consequently the host
//! backends' `classify_into` steady state performs **zero heap
//! allocation** — `tests/alloc_free.rs` wraps the global allocator in a
//! counter and asserts it.
//!
//! # Fault tolerance
//!
//! [`ResilientBackend`] wraps any backend in the degradation ladder:
//! device faults (structured [`kwt_baremetal::DeviceError`]s, including
//! cycle-watchdog kills) trigger bounded recovery-and-retry
//! ([`Backend::recover`] re-validates the image against build-time bank
//! checksums and repairs only dirty banks), then ordered failover —
//! typically `Rv32Sim → HostQuant → HostFloat` — and finally quarantine.
//! Failover answers are bit-identical to running the fallback directly,
//! every decision is counted in [`FaultStats`]
//! ([`Engine::fault_stats`]), and deterministic fault injection is
//! available end to end through [`Backend::inject_faults`]. See the
//! [`resilient`](ResilientBackend) module docs for the ladder's exact
//! semantics.
//!
//! # Streaming semantics
//!
//! [`StreamCore`] is the one samples → decision state machine: a bounded
//! [`kwt_audio::SampleRing`] feeds hop-aligned MFCC frames (bit-identical
//! to batch extraction — same per-frame kernel), frames slide through a
//! `T x F` model window, every [`StreamingConfig::stride_frames`]-th
//! frame past `T` is a classification boundary, and decisions are
//! majority-vote smoothed over the last [`StreamingConfig::vote_window`]
//! raw classes. [`StreamingKws`] runs one core over an [`Engine`] and
//! accepts chunks of any size (fed through the ring in pieces that fit,
//! so nothing grows); `kwt-serve` runs one core per multiplexed session.
//! After exactly one nominal clip, the streamed window equals the batch
//! spectrogram bit-for-bit, so streamed and one-shot classifications
//! agree.
//!
//! # Wake-word cascade
//!
//! [`CascadeEngine`] chains two engines with independent front ends: an
//! always-on KWT-Tiny detector classifies every window, and only when
//! its wake-class probability crosses [`CascadeConfig::wake_threshold`]
//! does
//! the KWT-1 verifier run. With [`CascadeConfig::always_verify`] the
//! cascade is provably decision-identical to the plain verifier — the
//! gating changes economics (`paper bench-cascade`), never numerics.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backend;
mod cascade;
mod cluster;
#[allow(clippy::module_inception)]
mod engine;
mod error;
mod resilient;
mod streaming;

pub use backend::{Backend, BackendKind, HostFloatBackend, HostQuantBackend, Rv32SimBackend};
pub use cascade::{CascadeConfig, CascadeDecision, CascadeEngine};
pub use cluster::Rv32ClusterBackend;
pub use engine::{Engine, Prediction};
pub use error::EngineError;
pub use resilient::{BackendHealth, FaultStats, ResilientBackend, ResilientConfig};
pub use streaming::{StreamCore, StreamDecision, StreamingConfig, StreamingKws};

/// Convenience alias for results returned by this crate.
pub type Result<T> = std::result::Result<T, EngineError>;
