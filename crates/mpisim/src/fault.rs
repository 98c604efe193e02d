//! Deterministic fault injection and the recoverable failure surface.
//!
//! The simulator's historical failure semantics is *fail-stop*: a panicking
//! rank poisons every inbox and peers die in their own panics. That models
//! "the job is lost" — useless for recovery protocols. This module adds a
//! second, *recoverable* failure mode with two fault classes:
//!
//! * **Crashes** — armed on a rank with `Comm::arm_crash(k)`, the one crash
//!   mechanism: the rank stops before its k-th send from then on (counted
//!   across all communicators), broadcasts a `Failed` marker to every peer,
//!   and unwinds with [`CommError::Crashed`]. Peers that drain the marker
//!   unwind with [`CommError::PeerFailed`] instead of a plain panic, so a
//!   harness can [`catch_comm`] the error, run a recovery protocol, and
//!   resume.
//! * **Delay storms** — scheduled by a seeded [`FaultPlan`]: a
//!   deterministic, seed-derived subset of sends sleeps a bounded jitter
//!   before delivery. Message *order between a pair* is unchanged (channels
//!   are FIFO); only interleaving across pairs moves, which is exactly the
//!   nondeterminism a real fabric has.
//!
//! Everything is a pure function of `(seed, rank, operation index)`, so a
//! faulty run is exactly reproducible — the property the recovery model
//! test (`crates/core/tests/recovery.rs`) relies on when it compares a
//! stormed run with its unstormed twin.

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe, UnwindSafe};
use std::time::Duration;

/// A typed communication failure, surfaced to harnesses via [`catch_comm`].
///
/// Internally these travel as panic payloads: the collective call tree is
/// deep and infallible by signature, so the error unwinds to the nearest
/// [`catch_comm`] (batch granularity in the engine) instead of threading
/// `Result` through every send. An uncaught `CommError` behaves like any
/// panic: the runtime poisons the network and the job fails fast.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommError {
    /// A peer rank failed; the in-flight round on this rank was aborted.
    /// Survivors should run a recovery protocol before communicating again.
    PeerFailed {
        /// World rank of the failed peer.
        rank: usize,
    },
    /// *This* rank's armed crash fired (`Comm::arm_crash`). The harness's
    /// rank closure can catch this, rejoin as the replacement rank, and
    /// rebuild state from its peers.
    Crashed {
        /// World rank that crashed (the caller's own rank).
        rank: usize,
    },
    /// A deadline wait elapsed with the operation still incomplete. The
    /// operation is *still in flight* — the caller may retry the wait —
    /// which is what distinguishes a slow peer from a dead one.
    Timeout {
        /// How long the caller was blocked before giving up.
        waited: Duration,
    },
}

impl fmt::Display for CommError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommError::PeerFailed { rank } => write!(f, "peer rank {rank} failed"),
            CommError::Crashed { rank } => write!(f, "rank {rank} crashed (fault injection)"),
            CommError::Timeout { waited } => write!(f, "communication timed out after {waited:?}"),
        }
    }
}

impl std::error::Error for CommError {}

/// Runs `f`, converting an unwinding [`CommError`] into `Err`. Panics that
/// are *not* `CommError`s (genuine bugs) are re-raised unchanged, so
/// fail-stop semantics and test assertions keep working through this.
pub fn catch_comm<R>(f: impl FnOnce() -> R + UnwindSafe) -> Result<R, CommError> {
    match catch_unwind(f) {
        Ok(v) => Ok(v),
        Err(payload) => match payload.downcast::<CommError>() {
            Ok(err) => Err(*err),
            Err(other) => std::panic::resume_unwind(other),
        },
    }
}

/// [`catch_comm`] without the `UnwindSafe` bound, for closures that borrow
/// engine state mutably. The caller asserts that the borrowed state is left
/// consistent-enough on unwind for its own recovery path (the engine's
/// rollback discards and rebuilds everything the aborted batch touched).
pub fn catch_comm_mut<R>(f: impl FnOnce() -> R) -> Result<R, CommError> {
    catch_comm(AssertUnwindSafe(f))
}

/// Deterministic jitter schedule: every `every`-th eligible send (selected
/// by hash, not stride) sleeps up to `max_micros` before delivering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DelaySpec {
    /// Expected selection period (a send is delayed with probability
    /// `1/every`, chosen by seeded hash).
    pub every: u64,
    /// Upper bound on the injected sleep, in microseconds.
    pub max_micros: u64,
}

/// A seeded, deterministic delay schedule for one simulated run.
///
/// Build one with the fluent methods and hand it to
/// [`crate::run_with_faults`]. The same plan against the same program
/// produces the same delays, byte counts, and (for a deterministic program)
/// the same results — fault runs are replayable. Crashes are not part of a
/// plan: a program arms them with `Comm::arm_crash`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed mixed into every per-send selection hash.
    pub seed: u64,
    /// Deterministic delay jitter applied to every rank's sends.
    pub delay: Option<DelaySpec>,
}

impl FaultPlan {
    /// A plan with no delays scheduled; `seed` drives any schedule added
    /// later.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            ..Self::default()
        }
    }

    /// Adds deterministic delay jitter: roughly one in `every` sends
    /// sleeps up to `max_micros` microseconds.
    pub fn delay_storm(mut self, every: u64, max_micros: u64) -> Self {
        assert!(every >= 1);
        self.delay = Some(DelaySpec { every, max_micros });
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catch_comm_converts_comm_errors_only() {
        let err = catch_comm(|| std::panic::panic_any(CommError::PeerFailed { rank: 3 }));
        assert_eq!(err, Err(CommError::PeerFailed { rank: 3 }));
        let ok = catch_comm(|| 7u32);
        assert_eq!(ok, Ok(7));
        // A non-CommError panic passes through untouched.
        let passthrough = catch_unwind(|| {
            let _ = catch_comm(|| panic!("plain bug"));
        });
        assert!(passthrough.is_err());
    }

    #[test]
    fn plan_builders_compose() {
        let plan = FaultPlan::new(42).delay_storm(3, 50);
        assert_eq!(
            plan.delay,
            Some(DelaySpec {
                every: 3,
                max_micros: 50
            })
        );
    }
}
