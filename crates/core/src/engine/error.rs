//! The unified evaluation-error taxonomy.
//!
//! Every way a candidate can fail to produce a result — a pass that
//! refuses a configuration, an ill-formed kernel, a launch that exceeds
//! SM resources, a simulator fault, a runaway simulation hitting its
//! fuel limit, a crashed worker, or a deliberately injected test fault —
//! is one [`EvalError`]. Errors are classified **transient** (worth
//! retrying: the same input may succeed on a fresh attempt) or
//! **permanent** (deterministic: retrying replays the failure), which is
//! what drives the engine's retry/quarantine split.

use std::error::Error;
use std::fmt;

use gpu_arch::LaunchError;
use gpu_ir::verify::VerifyError;
use gpu_passes::PassError;
use gpu_sim::timing::TimingError;
use gpu_sim::SimError;

use crate::space::CandidateSource;

/// Discriminant of an [`EvalError`], for report rows and counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EvalErrorKind {
    /// A transformation pass could not produce the configuration.
    Pass,
    /// The generated kernel failed IR verification.
    Verify,
    /// The launch exceeds SM resources (the paper's "invalid
    /// executable").
    Resource,
    /// The simulator raised a fault while executing the kernel.
    Sim,
    /// A shared-memory race was detected (statically or by the dynamic
    /// race oracle): the kernel's answer is interleaving-dependent on a
    /// real GPU even though the sequential interpreter reproduces it.
    Race,
    /// The simulation exceeded its fuel (step) limit.
    Fuel,
    /// The worker evaluating the candidate panicked or disappeared.
    WorkerLost,
    /// A fault injected by the test/fault plan.
    Injected,
}

impl fmt::Display for EvalErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Self::Pass => "pass-failed",
            Self::Verify => "verify-failed",
            Self::Resource => "resource-exceeded",
            Self::Sim => "sim-fault",
            Self::Race => "race-detected",
            Self::Fuel => "fuel-exhausted",
            Self::WorkerLost => "worker-lost",
            Self::Injected => "injected",
        })
    }
}

/// One candidate's evaluation failure.
#[derive(Debug, Clone, PartialEq)]
pub enum EvalError {
    /// A transformation pass rejected the configuration.
    PassFailed {
        /// Rendered [`PassError`].
        message: String,
    },
    /// The kernel failed static IR verification.
    VerifyFailed {
        /// Number of findings.
        findings: usize,
        /// Rendered first finding.
        first: String,
    },
    /// The launch configuration exceeds SM resources.
    ResourceExceeded {
        /// Rendered [`LaunchError`].
        message: String,
    },
    /// The simulator raised a fault.
    SimFault {
        /// Rendered [`SimError`] (or simulator-internal fault).
        message: String,
    },
    /// The static race detector or the dynamic race oracle found a
    /// shared-memory race.
    RaceDetected {
        /// Number of findings (1 for the dynamic oracle, which stops at
        /// the first conflict).
        findings: usize,
        /// Rendered first finding.
        first: String,
    },
    /// The simulation burned through its fuel budget without retiring.
    FuelExhausted {
        /// The fuel limit that was exceeded.
        fuel: u64,
    },
    /// The worker evaluating the candidate panicked or never reported a
    /// result.
    WorkerLost {
        /// Panic payload or loss description.
        detail: String,
    },
    /// A deterministic fault injected by the engine's fault plan.
    Injected {
        /// Whether the injected fault clears on a later attempt.
        transient: bool,
    },
}

impl EvalError {
    /// The error's kind, for counters and report rows.
    pub fn kind(&self) -> EvalErrorKind {
        match self {
            Self::PassFailed { .. } => EvalErrorKind::Pass,
            Self::VerifyFailed { .. } => EvalErrorKind::Verify,
            Self::ResourceExceeded { .. } => EvalErrorKind::Resource,
            Self::SimFault { .. } => EvalErrorKind::Sim,
            Self::RaceDetected { .. } => EvalErrorKind::Race,
            Self::FuelExhausted { .. } => EvalErrorKind::Fuel,
            Self::WorkerLost { .. } => EvalErrorKind::WorkerLost,
            Self::Injected { .. } => EvalErrorKind::Injected,
        }
    }

    /// Whether a fresh attempt at the same input may succeed. Lost
    /// workers are retried (the crash may be environmental); everything
    /// deterministic is permanent.
    pub fn is_transient(&self) -> bool {
        match self {
            Self::WorkerLost { .. } => true,
            Self::Injected { transient } => *transient,
            _ => false,
        }
    }

    /// Error for a worker that panicked or vanished.
    pub fn worker_lost(detail: impl Into<String>) -> Self {
        Self::WorkerLost { detail: detail.into() }
    }

    /// Error for a kernel that failed verification, from the verifier's
    /// findings. `findings` must be non-empty.
    pub fn from_verify(findings: &[VerifyError]) -> Self {
        Self::VerifyFailed {
            findings: findings.len(),
            first: findings.first().map(|e| format!("{e:?}")).unwrap_or_default(),
        }
    }

    /// Collapse a static race report into an evaluation error. The
    /// report must not be race-free.
    pub fn from_races(report: &gpu_ir::analysis::RaceReport) -> Self {
        Self::RaceDetected {
            findings: report.findings.len(),
            first: report.findings.first().map(|f| f.to_string()).unwrap_or_default(),
        }
    }
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::PassFailed { message } => write!(f, "pass failed: {message}"),
            Self::VerifyFailed { findings, first } => {
                write!(f, "IR verification failed ({findings} findings; first: {first})")
            }
            Self::ResourceExceeded { message } => write!(f, "resources exceeded: {message}"),
            Self::SimFault { message } => write!(f, "simulation fault: {message}"),
            Self::RaceDetected { findings, first } => {
                write!(f, "shared-memory race detected ({findings} findings; first: {first})")
            }
            Self::FuelExhausted { fuel } => {
                write!(f, "simulation exceeded its fuel limit of {fuel} steps")
            }
            Self::WorkerLost { detail } => write!(f, "evaluation worker lost: {detail}"),
            Self::Injected { transient } => {
                write!(f, "injected {} fault", if *transient { "transient" } else { "permanent" })
            }
        }
    }
}

impl Error for EvalError {}

impl From<PassError> for EvalError {
    fn from(e: PassError) -> Self {
        Self::PassFailed { message: e.to_string() }
    }
}

impl From<LaunchError> for EvalError {
    fn from(e: LaunchError) -> Self {
        Self::ResourceExceeded { message: e.to_string() }
    }
}

impl From<SimError> for EvalError {
    fn from(e: SimError) -> Self {
        match e {
            SimError::StepBudgetExhausted => {
                Self::FuelExhausted { fuel: gpu_sim::interp::DEFAULT_STEP_BUDGET }
            }
            race @ SimError::SharedRace { .. } => {
                Self::RaceDetected { findings: 1, first: race.to_string() }
            }
            other => Self::SimFault { message: other.to_string() },
        }
    }
}

impl From<TimingError> for EvalError {
    fn from(e: TimingError) -> Self {
        match e {
            TimingError::Launch(l) => l.into(),
            TimingError::FuelExhausted { fuel } => Self::FuelExhausted { fuel },
            TimingError::BarrierDeadlock | TimingError::NotAFamily => {
                Self::SimFault { message: e.to_string() }
            }
        }
    }
}

/// A candidate removed from the search after failing permanently (or
/// exhausting its retries): the degraded-mode report row.
#[derive(Debug, Clone, PartialEq)]
pub struct Quarantine {
    /// Candidate index in the search space.
    pub candidate: usize,
    /// Candidate label, for report rows.
    pub label: String,
    /// The final error that quarantined it.
    pub error: EvalError,
    /// How many evaluation attempts were made before giving up.
    pub attempts: u32,
}

impl Quarantine {
    /// The record for candidate `index` of `source`, named by the
    /// search's index for it ([`CandidateSource::ordinal`]).
    pub(crate) fn of(
        source: &dyn CandidateSource,
        index: usize,
        error: EvalError,
        attempts: u32,
    ) -> Self {
        Quarantine { candidate: source.ordinal(index), label: source.label(index), error, attempts }
    }
}

impl fmt::Display for Quarantine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "#{} {}: {} ({} attempt{})",
            self.candidate,
            self.label,
            self.error.kind(),
            self.attempts,
            if self.attempts == 1 { "" } else { "s" },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transiency_split_matches_the_taxonomy() {
        assert!(EvalError::worker_lost("panic").is_transient());
        assert!(EvalError::Injected { transient: true }.is_transient());
        assert!(!EvalError::Injected { transient: false }.is_transient());
        assert!(!EvalError::FuelExhausted { fuel: 10 }.is_transient());
        assert!(!EvalError::SimFault { message: "x".into() }.is_transient());
        assert!(!EvalError::ResourceExceeded { message: "x".into() }.is_transient());
        assert!(!EvalError::PassFailed { message: "x".into() }.is_transient());
        assert!(!EvalError::VerifyFailed { findings: 1, first: "x".into() }.is_transient());
    }

    #[test]
    fn conversions_pick_the_right_kind() {
        let e: EvalError = PassError::ZeroFactor.into();
        assert_eq!(e.kind(), EvalErrorKind::Pass);
        let e: EvalError = SimError::BarrierDivergence.into();
        assert_eq!(e.kind(), EvalErrorKind::Sim);
        let e: EvalError = SimError::StepBudgetExhausted.into();
        assert_eq!(e.kind(), EvalErrorKind::Fuel);
        let e: EvalError = TimingError::FuelExhausted { fuel: 7 }.into();
        assert_eq!(e, EvalError::FuelExhausted { fuel: 7 });
        let e: EvalError = TimingError::NotAFamily.into();
        assert_eq!(e.kind(), EvalErrorKind::Sim);
    }

    #[test]
    fn display_is_informative() {
        let q = Quarantine {
            candidate: 3,
            label: "16x16/u4".into(),
            error: EvalError::FuelExhausted { fuel: 1000 },
            attempts: 2,
        };
        let s = q.to_string();
        assert!(s.contains("#3") && s.contains("16x16/u4") && s.contains("fuel-exhausted"));
        assert!(s.contains("2 attempts"));
    }

    #[test]
    fn error_is_send_sync() {
        fn check<T: Send + Sync>() {}
        check::<EvalError>();
        check::<Quarantine>();
    }
}
