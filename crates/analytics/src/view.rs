//! The maintained-view abstraction.
//!
//! A view is a derived quantity over the session's dynamic graph (triangle
//! counts, link-prediction scores, degree/frontier vectors, …) that must stay
//! fresh as update batches stream in. Views never redistribute updates
//! themselves: the session redistributes each batch **once** into hypersparse
//! update matrices and hands every registered view the same shared artifacts
//! — the update block before application ([`PendingBatch`]) and the product
//! delta after it ([`BatchDelta`]) — so per-view refresh cost is decoupled
//! from per-batch communication cost.
//!
//! ## Collective discipline
//!
//! Sessions are SPMD objects: every rank registers the same views in the
//! same order and applies the same batches. View callbacks may therefore use
//! collectives (and the built-in views do — typically one small allreduce
//! per refresh); the fixed registry order keeps the collective call sequence
//! identical on all ranks.

use dspgemm_core::distmat::DistMat;
use dspgemm_core::dyn_general::PreparedGeneral;
use dspgemm_core::exec::Exec;
use dspgemm_core::grid::Grid;
use dspgemm_core::DistDcsr;
use dspgemm_sparse::semiring::Semiring;
use dspgemm_sparse::Dcsr;
use std::any::Any;
use std::sync::Arc;

/// A frozen, immutable reading of one view's state, captured into a
/// published session epoch (see
/// [`SessionSnapshot`](crate::snapshot::SessionSnapshot)). Downcast with
/// [`SessionSnapshot::view_as`](crate::snapshot::SessionSnapshot::view_as)
/// to the view's documented reading type (e.g.
/// [`TriangleReading`](crate::views::triangles::TriangleReading)).
pub type FrozenView = Arc<dyn Any + Send + Sync>;

/// Read access to the session state handed to view callbacks.
pub struct ViewCx<'a, S: Semiring> {
    /// The process grid (for collectives).
    pub grid: &'a Grid,
    /// The adjacency matrix — *old* in `pre_batch`, *new* in `post_batch`.
    pub a: &'a DistMat<S::Elem>,
    /// The maintained product `C = A·A` — old/new like `a`.
    pub c: &'a DistMat<S::Elem>,
    /// The session's local compute configuration: views that multiply
    /// (masked rescans) reuse the session's kernel workspaces through it.
    pub exec: &'a Exec<S>,
}

/// A redistributed-but-unapplied batch: the view's chance to observe state
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

/// A maintained analytics view. See the module docs for the callback
/// protocol and collective discipline.
pub trait View<S: Semiring>: 'static {
    /// Human-readable name (diagnostics and reports).
    fn name(&self) -> &str;

    /// Computes the initial state from the current `A` and `C`. Called once
    /// when the view is registered. Collective.
    fn bootstrap(&mut self, cx: &ViewCx<'_, S>);

    /// Observes a redistributed batch *before* it is applied (`cx` still
    /// shows the old state). Collective. Default: no-op.
    fn pre_batch(&mut self, _cx: &ViewCx<'_, S>, _pending: &PendingBatch<'_, S>) {}

    /// Refreshes the view *after* the batch was applied (`cx` shows the new
    /// state, `delta` the shared change feed). Collective.
    fn post_batch(&mut self, cx: &ViewCx<'_, S>, delta: &BatchDelta<'_, S>);

    /// Captures an immutable reading of the current state for epoch
    /// publishing — pinned readers query the frozen reading while the live
    /// view keeps refreshing. Local-only (no collectives): the session
    /// publishes after every batch and a collective here would tax every
    /// batch. Views with non-trivial state should keep the reading behind
    /// an `Arc` cache (invalidated on refresh) so an unchanged view is
    /// re-shared into the next epoch by refcount, like the matrix blocks.
    /// Default: a unit reading (the view is not snapshot-queryable).
    fn freeze(&mut self) -> FrozenView {
        Arc::new(())
    }

    /// Downcast support for typed access through the session registry.
    fn as_any(&self) -> &dyn Any;
}

/// Stable handle to a registered view.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ViewId(pub(crate) u64);
