//! Graceful degradation: [`ResilientBackend`] wraps a primary
//! [`Backend`] with bounded retry-with-recovery and an ordered failover
//! ladder, so device faults surface as slower-but-correct answers
//! instead of errors.
//!
//! # The degradation ladder
//!
//! The paper's deployment story is a simulated Ibex device; this module
//! asks what happens when that device misbehaves (a bit flip in a
//! weight bank, a truncated LUT ROM, a runaway kernel). The answer is a
//! ladder:
//!
//! 1. **retry**: a device fault triggers [`Backend::recover`] — the
//!    session checksums every static bank against its build-time digest,
//!    rewrites only dirty ones, and re-runs. Up to
//!    [`ResilientConfig::max_recoveries`] times per request.
//! 2. **failover**: if the primary keeps faulting, the request is
//!    served by the first healthy fallback (typically
//!    `Rv32Sim → HostQuant → HostFloat`). Failover logits are
//!    **identical** to running the fallback directly: every backend on
//!    the ladder takes the same float MFCC matrix, and a device backend
//!    quantises it inside its own session, so a failed-over request
//!    hands the fallback exactly the input it would get on its own.
//! 3. **quarantine**: after [`ResilientConfig::quarantine_after`]
//!    consecutive failed requests the primary is no longer tried at all
//!    until [`ResilientBackend::reset_health`].
//!
//! Non-device errors (shape mismatches, configuration) are *not*
//! retried or failed over — they are caller bugs, not device faults,
//! and identical on every backend.
//!
//! Every decision is counted in [`FaultStats`], exposed through
//! [`Engine::fault_stats`](crate::Engine::fault_stats).

use crate::backend::{Backend, BackendKind};
use crate::{EngineError, Result};
use kwt_baremetal::BuildError;
use kwt_model::KwtConfig;
use kwt_rv32::{RunResult, Trap};
use kwt_tensor::Mat;

/// Health of the primary backend inside a [`ResilientBackend`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub enum BackendHealth {
    /// Last request was served by the primary without any fault.
    #[default]
    Healthy,
    /// The primary needed recovery (or the last request failed over),
    /// but it is still being tried.
    Degraded,
    /// The primary is no longer tried; every request goes straight to
    /// the fallbacks until [`ResilientBackend::reset_health`].
    Quarantined,
}

/// Counters of every resilience decision a [`ResilientBackend`] made.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct FaultStats {
    /// Inference requests served (or attempted).
    pub requests: u64,
    /// Device traps observed from the primary (including watchdog).
    pub traps_seen: u64,
    /// Watchdog budget expiries among those traps.
    pub budget_kills: u64,
    /// [`Backend::recover`] passes run on the primary.
    pub recoveries: u64,
    /// Requests ultimately served by a fallback backend.
    pub failovers: u64,
}

/// Policy knobs for a [`ResilientBackend`]. Construct with struct
/// update syntax over [`Default`] to stay source-compatible as knobs
/// are added.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResilientConfig {
    /// Recovery-and-retry attempts on the primary per request before
    /// failing over (0 = fail over on the first fault).
    pub max_recoveries: u32,
    /// Per-inference simulated-cycle budget armed on the primary (and
    /// on simulator fallbacks); `None` leaves watchdogs disarmed.
    pub cycle_budget: Option<u64>,
    /// Consecutive failed requests after which the primary is
    /// quarantined.
    pub quarantine_after: u32,
}

impl Default for ResilientConfig {
    fn default() -> Self {
        ResilientConfig {
            max_recoveries: 1,
            cycle_budget: None,
            quarantine_after: 3,
        }
    }
}

/// A [`Backend`] wrapper implementing the retry → failover → quarantine
/// ladder described at the top of this module.
///
/// [`kind`](Backend::kind) and [`config`](Backend::config) report the
/// *primary's* — the wrapper is a deployment policy around one logical
/// backend, not a fourth flavour.
pub struct ResilientBackend {
    primary: Box<dyn Backend>,
    fallbacks: Vec<Box<dyn Backend>>,
    rcfg: ResilientConfig,
    stats: FaultStats,
    health: BackendHealth,
    consecutive_failures: u32,
    /// Which backend served the last successful request: `None` = the
    /// primary, `Some(i)` = `fallbacks[i]`.
    served_by: Option<usize>,
}

impl ResilientBackend {
    /// Wraps `primary` with an ordered fallback ladder.
    ///
    /// Arms [`ResilientConfig::cycle_budget`] on every wrapped backend
    /// (a no-op for host backends).
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Config`] if any fallback's model
    /// configuration differs from the primary's — a failover must
    /// answer the *same* classification problem.
    pub fn new(
        mut primary: Box<dyn Backend>,
        mut fallbacks: Vec<Box<dyn Backend>>,
        rcfg: ResilientConfig,
    ) -> Result<Self> {
        let c = *primary.config();
        for (i, fb) in fallbacks.iter().enumerate() {
            if *fb.config() != c {
                return Err(EngineError::Config {
                    why: format!(
                        "fallback {} ({}) disagrees with the primary ({}) about the model \
                         configuration",
                        i,
                        fb.kind().as_str(),
                        primary.kind().as_str()
                    ),
                });
            }
        }
        if rcfg.cycle_budget.is_some() {
            primary.set_cycle_budget(rcfg.cycle_budget);
            for fb in &mut fallbacks {
                fb.set_cycle_budget(rcfg.cycle_budget);
            }
        }
        Ok(ResilientBackend {
            primary,
            fallbacks,
            rcfg,
            stats: FaultStats::default(),
            health: BackendHealth::default(),
            consecutive_failures: 0,
            served_by: None,
        })
    }

    /// The resilience policy in effect.
    pub fn resilient_config(&self) -> &ResilientConfig {
        &self.rcfg
    }

    /// Counters of every resilience decision so far.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// Current health of the primary.
    pub fn backend_health(&self) -> BackendHealth {
        self.health
    }

    /// Which backend flavour served the last successful request.
    pub fn last_served_by(&self) -> BackendKind {
        match self.served_by {
            None => self.primary.kind(),
            Some(i) => self.fallbacks[i].kind(),
        }
    }

    /// Un-quarantines the primary and zeroes the failure streak (the
    /// operator's "I replaced the board" lever). Statistics are kept.
    pub fn reset_health(&mut self) {
        self.health = BackendHealth::Healthy;
        self.consecutive_failures = 0;
    }

    /// Whether `e` is a device-side fault — the only class the ladder
    /// retries and fails over. Everything else (shapes, configuration)
    /// is a caller bug that would fail identically on every backend.
    fn is_device_fault(e: &EngineError) -> bool {
        matches!(
            e,
            EngineError::Device(BuildError::Device(_)) | EngineError::Device(BuildError::Trap(_))
        )
    }

    fn note_trap(&mut self, e: &EngineError) {
        self.stats.traps_seen += 1;
        if let EngineError::Device(BuildError::Device(d)) = e {
            if matches!(d.trap, Trap::WatchdogExpired { .. }) {
                self.stats.budget_kills += 1;
            }
        }
    }

    /// The ladder itself, behind [`Backend::infer_into`]: the primary
    /// with bounded recovery, then the fallbacks in order.
    fn serve(&mut self, mfcc: &Mat<f32>, logits: &mut Vec<f32>) -> Result<()> {
        self.stats.requests += 1;
        let mut last_err: Option<EngineError> = None;
        if self.health != BackendHealth::Quarantined {
            let mut recoveries_left = self.rcfg.max_recoveries;
            loop {
                match self.primary.infer_into(mfcc, logits) {
                    Ok(()) => {
                        self.consecutive_failures = 0;
                        // a request that needed recovery leaves the
                        // primary Degraded; a clean one restores Healthy
                        if recoveries_left == self.rcfg.max_recoveries {
                            self.health = BackendHealth::Healthy;
                        } else {
                            self.health = BackendHealth::Degraded;
                        }
                        self.served_by = None;
                        return Ok(());
                    }
                    Err(e) if Self::is_device_fault(&e) => {
                        self.note_trap(&e);
                        last_err = Some(e);
                        if recoveries_left == 0 {
                            break;
                        }
                        recoveries_left -= 1;
                        self.primary.recover();
                        self.stats.recoveries += 1;
                    }
                    Err(e) => return Err(e),
                }
            }
            self.consecutive_failures += 1;
            self.health = if self.consecutive_failures >= self.rcfg.quarantine_after {
                BackendHealth::Quarantined
            } else {
                BackendHealth::Degraded
            };
        }
        // failover ladder: first fallback that answers wins
        for i in 0..self.fallbacks.len() {
            match self.fallbacks[i].infer_into(mfcc, logits) {
                Ok(()) => {
                    self.stats.failovers += 1;
                    self.served_by = Some(i);
                    return Ok(());
                }
                Err(e) => last_err = Some(e),
            }
        }
        Err(last_err.unwrap_or_else(|| EngineError::Config {
            why: "resilient backend has a quarantined primary and no fallbacks".into(),
        }))
    }
}

impl Backend for ResilientBackend {
    fn kind(&self) -> BackendKind {
        self.primary.kind()
    }

    fn config(&self) -> &KwtConfig {
        self.primary.config()
    }

    fn infer_into(&mut self, mfcc: &Mat<f32>, logits: &mut Vec<f32>) -> Result<()> {
        self.serve(mfcc, logits)
    }

    // The trait's unused pre-quantised-input defaults are not
    // forwarded: every rung takes the float MFCCs, so a failed-over
    // request hands the fallback exactly the input it would get when
    // run directly — that is what makes failover logits provably
    // identical.

    fn last_device_run(&self) -> Option<RunResult> {
        match self.served_by {
            None => self.primary.last_device_run(),
            Some(i) => self.fallbacks[i].last_device_run(),
        }
    }

    fn last_quant_stats(&self) -> Option<kwt_tensor::qops::QuantStats> {
        match self.served_by {
            None => self.primary.last_quant_stats(),
            Some(i) => self.fallbacks[i].last_quant_stats(),
        }
    }

    fn clone_boxed(&self) -> Option<Box<dyn Backend>> {
        let primary = self.primary.clone_boxed()?;
        let mut fallbacks = Vec::with_capacity(self.fallbacks.len());
        for fb in &self.fallbacks {
            fallbacks.push(fb.clone_boxed()?);
        }
        Some(Box::new(ResilientBackend {
            primary,
            fallbacks,
            rcfg: self.rcfg,
            stats: self.stats,
            health: self.health,
            consecutive_failures: self.consecutive_failures,
            served_by: None,
        }))
    }

    fn recover(&mut self) -> Option<kwt_baremetal::RecoveryReport> {
        self.primary.recover()
    }

    fn set_cycle_budget(&mut self, budget: Option<u64>) {
        self.primary.set_cycle_budget(budget);
        for fb in &mut self.fallbacks {
            fb.set_cycle_budget(budget);
        }
    }

    fn inject_faults(&mut self, plan: kwt_rv32::FaultPlan) -> bool {
        self.primary.inject_faults(plan)
    }

    fn fault_stats(&self) -> Option<FaultStats> {
        Some(self.stats)
    }

    fn health(&self) -> Option<BackendHealth> {
        Some(self.health)
    }
}

impl std::fmt::Debug for ResilientBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResilientBackend")
            .field("primary", &self.primary.kind())
            .field(
                "fallbacks",
                &self.fallbacks.iter().map(|b| b.kind()).collect::<Vec<_>>(),
            )
            .field("health", &self.health)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}
