//! Vector-shaped views: row aggregates via distributed SpMV.
//!
//! [`DegreeView`] is a thin maintained wrapper over
//! [`dspgemm_core::spmv`]: a refresh is one SpMV sweep — `O(nnz/p)` local
//! work and `O(n/√p · log √p)` communication, independent of the batch — so
//! it stays exact under arbitrary insert/delete batches without any
//! per-view bookkeeping.

use crate::view::{BatchDelta, FrozenView, View, ViewCx};
use dspgemm_core::grid::{owner_block, Grid};
use dspgemm_core::spmv::{spmv, DistVec};
use dspgemm_sparse::semiring::Semiring;
use dspgemm_sparse::Index;
use std::any::Any;
use std::sync::Arc;

/// The frozen reading of a [`DegreeView`] inside a published epoch: the
/// maintained vector at publish time (row-aligned like the live view's).
/// The vector is shared with the live view by refcount — freezing copies no
/// data.
#[derive(Debug, Clone)]
pub struct VectorReading<S: Semiring> {
    y: Option<Arc<DistVec<S::Elem>>>,
}

impl<S: Semiring> VectorReading<S> {
    /// The pinned vector (`None` only if the view was frozen before
    /// bootstrap, which the session registry never does).
    pub fn vector(&self) -> Option<&DistVec<S::Elem>> {
        self.y.as_deref()
    }

    /// The full pinned vector on every rank (one allgather). Collective;
    /// all ranks must hold the same epoch.
    pub fn to_global(&self, grid: &Grid) -> Option<Vec<S::Elem>> {
        self.y.as_deref().map(|y| y.to_global(grid))
    }
}

/// Maintained row-aggregate vector `y = A · x̄` for a constant `x̄` — with
/// unit edge values over `(+, ·)` this is the weighted out-degree of every
/// vertex; over `(min, +)` with `x̄ = 0` it is each vertex's lightest
/// incident edge.
pub struct DegreeView<S: Semiring> {
    one: S::Elem,
    /// Maintained vector, shared by refcount with frozen epoch readings.
    y: Option<Arc<DistVec<S::Elem>>>,
    /// Local flops spent across refreshes.
    pub flops: u64,
}

impl<S: Semiring> DegreeView<S> {
    /// A view multiplying `A` by the constant vector of `one`s.
    pub fn new(one: S::Elem) -> Self {
        Self {
            one,
            y: None,
            flops: 0,
        }
    }

    fn refresh(&mut self, cx: &ViewCx<'_, S>) {
        let x = DistVec::constant(cx.grid, cx.a.info().ncols, self.one);
        let (y, fl) = spmv::<S>(cx.grid, cx.a, &x);
        self.flops += fl;
        self.y = Some(Arc::new(y));
    }

    /// The maintained vector (row-aligned; `None` before bootstrap).
    pub fn vector(&self) -> Option<&DistVec<S::Elem>> {
        self.y.as_deref()
    }

    /// Collective point lookup of vertex `u`'s aggregate. `None` only
    /// before bootstrap. Every rank returns the same value.
    pub fn degree(&self, grid: &Grid, u: Index) -> Option<S::Elem> {
        let y = self.y.as_ref()?;
        let (b, lo) = owner_block(y.len(), grid.q(), u);
        // Row-aligned: every rank of grid row `b` holds the segment; let the
        // row's first member answer.
        let owner = grid.rank_of(b, 0);
        let mine = if grid.world().rank() == owner {
            Some(y.seg()[(u - lo) as usize])
        } else {
            None
        };
        Some(grid.world().bcast(owner, mine))
    }

    /// The full vector on every rank (one allgather). Collective.
    pub fn to_global(&self, grid: &Grid) -> Option<Vec<S::Elem>> {
        self.y.as_deref().map(|y| y.to_global(grid))
    }
}

impl<S: Semiring> View<S> for DegreeView<S> {
    fn name(&self) -> &str {
        "degree"
    }

    fn bootstrap(&mut self, cx: &ViewCx<'_, S>) {
        self.refresh(cx);
    }

    fn post_batch(&mut self, cx: &ViewCx<'_, S>, _delta: &BatchDelta<'_, S>) {
        self.refresh(cx);
    }

    fn freeze(&mut self) -> FrozenView {
        // Refcount clone of the maintained vector — no data copied.
        Arc::new(VectorReading::<S> { y: self.y.clone() })
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}
