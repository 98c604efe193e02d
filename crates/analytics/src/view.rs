//! The maintained-view abstraction.
//!
//! A view is a derived quantity over the session's dynamic graph (triangle
//! counts, link-prediction scores, degree/frontier vectors, …) that must stay
//! fresh as update batches stream in. Views never redistribute updates
//! themselves: the session's engine redistributes each batch **once** into
//! hypersparse update matrices and hands every registered view the same
//! shared artifacts — the update block before application ([`PendingBatch`])
//! and the product delta after it ([`BatchDelta`]) — so per-view refresh cost
//! is decoupled from per-batch communication cost. The registry is the
//! engine's [`dspgemm_core::Observer`]; the three types above are the
//! engine's, re-exported here.
//!
//! ## Collective discipline
//!
//! Sessions are SPMD objects: every rank registers the same views in the
//! same order and applies the same batches. View callbacks may therefore use
//! collectives (and the built-in views do — typically one small allreduce
//! per refresh); the fixed registry order keeps the collective call sequence
//! identical on all ranks.

pub use dspgemm_core::observer::{BatchDelta, PendingBatch, ViewCx};
use dspgemm_sparse::semiring::Semiring;
use std::any::Any;
use std::sync::Arc;

/// A frozen, immutable reading of one view's state, captured into a
/// published session epoch (see
/// [`SessionSnapshot`](crate::snapshot::SessionSnapshot)). Downcast with
/// [`SessionSnapshot::view_as`](crate::snapshot::SessionSnapshot::view_as)
/// to the view's documented reading type (e.g.
/// [`TriangleReading`](crate::views::triangles::TriangleReading)).
pub type FrozenView = Arc<dyn Any + Send + Sync>;

/// A maintained analytics view. See the module docs for the callback
/// protocol and collective discipline.
pub trait View<S: Semiring>: 'static {
    /// Human-readable name (diagnostics and reports).
    fn name(&self) -> &str;

    /// Computes the state from the current `A` and `C`, discarding any
    /// earlier state: at registration, and again after every change that
    /// carries no delta (a recompute or a recovery rollback).
    /// Collective.
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
