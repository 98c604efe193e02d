//! Pinned epochs of the serving session.
//!
//! Every publish of the session's engine produces a [`SessionSnapshot`]: the
//! engine's `{A, C, epoch}` snapshot plus a frozen reading of every
//! registered view, all immutable. Epochs number *publishes*: batches, view
//! registrations and migrations each publish one (epoch 0 is the initial
//! product). Queries pinned at epoch `e` ([`crate::AnalyticsSession::pin`])
//! are bit-identical to the state at its publish time however many batches
//! commit meanwhile, and queries right after a batch see exactly epoch
//! `e + 1`. Publishing and pinning move `Arc` handles, never matrix data
//! (see [`dspgemm_core::snapshot`]), and an old epoch lives as long as a pin.

use crate::view::{FrozenView, ViewId};
use dspgemm_core::snapshot::{Snapshot, SnapshotMat};
use dspgemm_sparse::semiring::Semiring;
use std::ops::Deref;

/// One published epoch of an [`crate::AnalyticsSession`]: `{A, C, views,
/// epoch}`, immutable. Clone (or keep the `Arc` from
/// [`crate::AnalyticsSession::pin`]) to hold the epoch alive.
///
/// The `{A, C, epoch}` triple is the engine's [`Snapshot`]: its matrix
/// queries and heap accounting apply through `Deref`.
#[derive(Clone)]
pub struct SessionSnapshot<S: Semiring> {
    inner: Snapshot<S::Elem>,
    views: Vec<(ViewId, String, FrozenView)>,
}

impl<S: Semiring> Deref for SessionSnapshot<S> {
    type Target = Snapshot<S::Elem>;

    fn deref(&self) -> &Snapshot<S::Elem> {
        &self.inner
    }
}

impl<S: Semiring> SessionSnapshot<S> {
    pub(crate) fn new(inner: Snapshot<S::Elem>, views: Vec<(ViewId, String, FrozenView)>) -> Self {
        Self { inner, views }
    }

    /// The pinned adjacency matrix.
    #[inline]
    pub fn adjacency(&self) -> &SnapshotMat<S::Elem> {
        self.inner.a()
    }

    /// The pinned product `C = A · A`.
    #[inline]
    pub fn product(&self) -> &SnapshotMat<S::Elem> {
        self.inner.c()
    }

    /// Typed access to the frozen reading of one view (e.g.
    /// `view_as::<TriangleReading>(tri)`; `None`: the view was registered
    /// after this epoch was published).
    pub fn view_as<T: 'static>(&self, id: ViewId) -> Option<&T> {
        let (_, _, reading) = self.views.iter().find(|(vid, _, _)| *vid == id)?;
        reading.downcast_ref::<T>()
    }
}
