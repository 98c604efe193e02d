//! Batch observers: the state a shared-mode
//! [`DynSpGemm`](crate::engine::DynSpGemm) keeps fresh beside `C = A · A`.
//!
//! The engine applies each batch once and hands its [`Observer`] the update
//! block before it ([`PendingBatch`]) and the product delta after it
//! ([`BatchDelta`]), in live commits and in replay alike. A change that
//! carries no delta — a static recompute, a migration, a recovery rollback —
//! re-runs [`Observer::bootstrap`] instead, and every publish freezes the
//! observer into the epoch ([`Observer::freeze`]). Callbacks run inside the
//! engine's collective calls, so they may use collectives; every rank must
//! hold the same observer.

use crate::distmat::DistMat;
use crate::dyn_general::PreparedGeneral;
use crate::exec::Exec;
use crate::grid::Grid;
use crate::snapshot::Snapshot;
use crate::DistDcsr;
use dspgemm_sparse::semiring::Semiring;
use dspgemm_sparse::Dcsr;

/// Read access to the session state handed to observer callbacks.
pub struct ViewCx<'a, S: Semiring> {
    /// The process grid (for collectives).
    pub grid: &'a Grid,
    /// The adjacency matrix — *old* in `pre_batch`, *new* in `post_batch`.
    pub a: &'a DistMat<S::Elem>,
    /// The maintained product `C = A·A` — old/new like `a`.
    pub c: &'a DistMat<S::Elem>,
    /// The session's kernel workspaces: observers that multiply (masked
    /// rescans) reuse them.
    pub exec: &'a Exec<S>,
}

/// A redistributed-but-unapplied batch: the observer's chance to see state
/// that is about to change (e.g. which update positions are new edges).
pub enum PendingBatch<'a, S: Semiring> {
    /// Algebraic insertions `A' = A + A*`.
    Algebraic {
        /// This rank's block of `A*` (block-local indices).
        star: &'a DistDcsr<S::Elem>,
    },
    /// General sets/deletes.
    General {
        /// This rank's prepared MERGE/MASK/pattern blocks.
        prep: &'a PreparedGeneral<S::Elem>,
    },
}

/// The shared change feed after a batch was applied.
pub enum BatchDelta<'a, S: Semiring> {
    /// Algebraic batch: `C* = A*·A' + A·A*` was *added* into `C`.
    Algebraic {
        /// This rank's `A*` block.
        star: &'a DistDcsr<S::Elem>,
        /// This rank's `C*` block: `(value delta, Bloom bits)` per entry.
        cstar: &'a Dcsr<(S::Elem, u64)>,
    },
    /// General batch: the masked positions of `C` were recomputed/deleted.
    General {
        /// This rank's prepared update blocks.
        prep: &'a PreparedGeneral<S::Elem>,
        /// The recomputed positions (`C*` pattern with Bloom bits).
        cstar_pattern: &'a Dcsr<u64>,
    },
}

/// What a session tells the state derived from it. Every callback but
/// `freeze` is collective.
pub trait Observer<S: Semiring> {
    /// One published epoch: the engine's `{A, C}` snapshot plus whatever the
    /// observer freezes beside it.
    type Epoch;

    /// Rebuilds the derived state from the current `A` and `C`: after a
    /// change that carries no delta.
    fn bootstrap(&mut self, cx: &ViewCx<'_, S>);

    /// Observes a redistributed batch before it is applied.
    fn pre_batch(&mut self, cx: &ViewCx<'_, S>, pending: &PendingBatch<'_, S>);

    /// Refreshes from the batch's change feed after it was applied.
    fn post_batch(&mut self, cx: &ViewCx<'_, S>, delta: &BatchDelta<'_, S>);

    /// Freezes the current readings beside `snapshot` into the epoch being
    /// published. Local-only: it runs on every publish.
    fn freeze(&mut self, snapshot: Snapshot<S::Elem>) -> Self::Epoch;
}

/// No observer: the plain engine, whose epochs are bare snapshots.
impl<S: Semiring> Observer<S> for () {
    type Epoch = Snapshot<S::Elem>;

    fn bootstrap(&mut self, _cx: &ViewCx<'_, S>) {}

    fn pre_batch(&mut self, _cx: &ViewCx<'_, S>, _pending: &PendingBatch<'_, S>) {}

    fn post_batch(&mut self, _cx: &ViewCx<'_, S>, _delta: &BatchDelta<'_, S>) {}

    fn freeze(&mut self, snapshot: Snapshot<S::Elem>) -> Snapshot<S::Elem> {
        snapshot
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Records the local nnz of every batch's `C*` (value delta or pattern),
    /// for tests of the shared arms.
    #[derive(Default)]
    pub(crate) struct DeltaLog(pub(crate) Vec<usize>);

    impl<S: Semiring> Observer<S> for DeltaLog {
        type Epoch = Snapshot<S::Elem>;

        fn bootstrap(&mut self, _cx: &ViewCx<'_, S>) {}

        fn pre_batch(&mut self, _cx: &ViewCx<'_, S>, _pending: &PendingBatch<'_, S>) {}

        fn post_batch(&mut self, _cx: &ViewCx<'_, S>, delta: &BatchDelta<'_, S>) {
            self.0.push(match delta {
                BatchDelta::Algebraic { cstar, .. } => cstar.nnz(),
                BatchDelta::General { cstar_pattern, .. } => cstar_pattern.nnz(),
            });
        }

        fn freeze(&mut self, snapshot: Snapshot<S::Elem>) -> Snapshot<S::Elem> {
            snapshot
        }
    }
}
