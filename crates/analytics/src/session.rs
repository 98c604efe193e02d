//! The analytics serving session: a shared-mode [`DynSpGemm`] — one
//! distributed dynamic adjacency matrix `A`, the maintained product
//! `C = A · A` and its filter matrix `F`, so deletions are always
//! admissible — whose observer is the registry of [`View`]s
//! ([`ViewRegistry`]). Over a ring ([`Semiring::NEG`], the `U64Plus` every
//! shipped session runs on) `F` counts each entry's paths and a deletion is
//! an algebraic update; otherwise `F` holds Bloom bits and a deletion runs
//! Algorithm 2.
//!
//! One call to [`AnalyticsSession::insert_edges`] /
//! [`AnalyticsSession::apply_general`] is one engine batch: one
//! redistribution, every view's `pre_batch` against the old state, the
//! engine's shared arm (Algorithm 1, or Algorithm 2 for a general batch
//! without an inverse), every view's `post_batch` from the shared `C*`
//! delta, then the engine's publish of an immutable [`SessionSnapshot`]
//! epoch. Being the engine, a session takes its
//! recovery: [`AnalyticsSession::engine_mut`] hands out the engine beside
//! the session's grid, and `Deref` gives read access to it. Views
//! re-bootstrap after every change that carries no delta — a recompute or a
//! recovery rollback — and observe replayed batches like live ones.
//!
//! Queries read the latest published epoch, never the live matrices; a pin
//! ([`AnalyticsSession::pin`]) stays bit-stable while further batches
//! commit — see [`crate::snapshot`]. Sessions are SPMD: every method marked
//! *collective* must be called by all ranks in the same order.

use crate::snapshot::SessionSnapshot;
use crate::view::{BatchDelta, PendingBatch, View, ViewCx, ViewId};
use dspgemm_core::distmat::DistMat;
use dspgemm_core::dyn_general::GeneralUpdates;
use dspgemm_core::grid::Grid;
use dspgemm_core::snapshot::Snapshot;
use dspgemm_core::{meter, phase, BatchReport, DynSpGemm, Observer};
use dspgemm_mpi::Comm;
use dspgemm_sparse::semiring::Semiring;
use dspgemm_sparse::{Index, Triple};
use dspgemm_util::stats::PhaseTimer;
use std::ops::Deref;
use std::sync::Arc;

/// The registered views, in registration order: the session engine's
/// observer. Every callback visits every view in that order, so the
/// collectives views run line up on every rank. Each view is kept with the
/// epoch its registration published: an epoch older than that — one a
/// recovery replays from an earlier anchor — freezes without it.
pub struct ViewRegistry<S: Semiring> {
    views: Vec<(u64, Box<dyn View<S>>)>,
}

impl<S: Semiring> Observer<S> for ViewRegistry<S> {
    type Epoch = SessionSnapshot<S>;

    fn bootstrap(&mut self, cx: &ViewCx<'_, S>) {
        self.views.iter_mut().for_each(|(_, v)| v.bootstrap(cx));
    }

    fn pre_batch(&mut self, cx: &ViewCx<'_, S>, pending: &PendingBatch<'_, S>) {
        self.views
            .iter_mut()
            .for_each(|(_, v)| v.pre_batch(cx, pending));
    }

    fn post_batch(&mut self, cx: &ViewCx<'_, S>, delta: &BatchDelta<'_, S>) {
        self.views
            .iter_mut()
            .for_each(|(_, v)| v.post_batch(cx, delta));
    }

    fn freeze(&mut self, snapshot: Snapshot<S::Elem>) -> SessionSnapshot<S> {
        let epoch = snapshot.epoch();
        let readings = self.views.iter_mut().enumerate();
        let readings = readings
            .filter(|(_, (since, _))| *since <= epoch)
            .map(|(id, (_, v))| (ViewId(id as u64), v.name().to_string(), v.freeze()))
            .collect();
        SessionSnapshot::new(snapshot, readings)
    }
}

/// The engine under a session: shared mode, observed by the view registry.
pub type SessionEngine<S> = DynSpGemm<S, ViewRegistry<S>>;

/// A serving session: a shared-mode engine plus its view registry.
pub struct AnalyticsSession<S: Semiring> {
    grid: Grid,
    engine: SessionEngine<S>,
}

/// Read access to the engine: its counters, snapshot store and recovery
/// state.
impl<S: Semiring> Deref for AnalyticsSession<S> {
    type Target = SessionEngine<S>;

    fn deref(&self) -> &SessionEngine<S> {
        &self.engine
    }
}

impl<S: Semiring> AnalyticsSession<S> {
    /// Creates a session over an empty `n × n` graph. Collective.
    pub fn new(comm: &Comm, n: Index) -> Self {
        Self::from_triples(comm, n, 1, Vec::new())
    }

    /// Creates a session from rank-local, globally-indexed edge triples
    /// (redistributed to their owners) and computes the initial product.
    /// Collective.
    ///
    /// Adapter-frozen: `threads` must be 1; `benchmark/src/api.rs` passes it
    /// until the benchmark PR drops it (DESIGN.md, "One worker per rank").
    ///
    /// # Panics
    /// Panics if `threads != 1`.
    pub fn from_triples(
        comm: &Comm,
        n: Index,
        threads: usize,
        triples: Vec<Triple<S::Elem>>,
    ) -> Self {
        assert_eq!(
            threads, 1,
            "intra-rank threads are retired (DESIGN.md, \"One worker per rank\")"
        );
        let grid = Grid::new(comm);
        let a = DistMat::from_global_triples(&grid, n, n, triples, 1, &mut PhaseTimer::new());
        let registry = ViewRegistry { views: Vec::new() };
        let engine = DynSpGemm::shared(&grid, a, registry);
        Self { grid, engine }
    }

    /// The session's process grid.
    #[inline]
    pub fn grid(&self) -> &Grid {
        &self.grid
    }

    /// The engine beside the session's grid, for every engine call that
    /// changes state: `enable_recovery`, `try_apply`, `recover`. A batch
    /// applied here needs the engine's `publish` before the next query, as
    /// on any engine.
    pub fn engine_mut(&mut self) -> (&Grid, &mut SessionEngine<S>) {
        (&self.grid, &mut self.engine)
    }

    /// The dynamic adjacency matrix.
    #[inline]
    pub fn adjacency(&self) -> &DistMat<S::Elem> {
        &self.engine.a
    }

    /// The maintained product `C = A · A`.
    #[inline]
    pub fn product(&self) -> &DistMat<S::Elem> {
        &self.engine.c
    }

    /// Number of registered views.
    #[inline]
    pub fn view_count(&self) -> usize {
        self.engine.observer().views.len()
    }

    /// Registers a view, bootstrapping it from the current state, and
    /// returns its handle. Publishes a new epoch (so the view's frozen
    /// reading is pinnable immediately). Collective; all ranks must
    /// register the same views in the same order.
    pub fn register(&mut self, mut view: Box<dyn View<S>>) -> ViewId {
        let since = self.engine.snapshots().published();
        let (registry, cx) = self.engine.observe(&self.grid);
        view.bootstrap(&cx);
        let id = ViewId(registry.views.len() as u64);
        registry.views.push((since, view));
        self.engine.publish();
        id
    }

    /// Pins the current epoch: an immutable `{A, C, views, epoch}` the
    /// caller can query bit-stably while further batches commit. A pin is
    /// an `Arc` clone — O(1), no data copied; drop it to release the
    /// epoch's retained blocks.
    pub fn pin(&self) -> Arc<SessionSnapshot<S>> {
        Arc::clone(self.latest())
    }

    /// The current epoch number (0 = initial product; every batch and view
    /// registration increments it).
    pub fn epoch(&self) -> u64 {
        self.latest().epoch()
    }

    fn latest(&self) -> &Arc<SessionSnapshot<S>> {
        self.engine
            .snapshots()
            .latest()
            .expect("sessions publish epoch 0 at construction")
    }

    /// Typed read access to a registered view.
    pub fn view_as<T: 'static>(&self, id: ViewId) -> Option<&T> {
        let (_, view) = self.engine.observer().views.get(id.0 as usize)?;
        view.as_any().downcast_ref::<T>()
    }

    /// Applies a batch of **algebraic** edge insertions `A' = A + A*`
    /// (semiring addition; tuples carry global indices and may live on any
    /// rank), refreshing the product and every view from one shared
    /// redistribution, and commits an epoch: readers pinned at the previous
    /// epoch keep it, new queries see the batch exactly. Returns the
    /// batch's report, its publish a stage of it. Collective.
    pub fn insert_edges(&mut self, tuples: Vec<Triple<S::Elem>>) -> BatchReport {
        let report = self.engine.apply_algebraic(&self.grid, tuples, Vec::new());
        self.published(report)
    }

    /// Applies a batch of **general** updates (deletions and value writes
    /// incompatible with the semiring addition), refreshing the product and
    /// every view, and commits an epoch: over a ring as the algebraic update
    /// `new − old` (Algorithm 1 on path counts), otherwise via Algorithm 2.
    /// Returns the batch's report, its publish a stage of it. Collective.
    pub fn apply_general(&mut self, upd: GeneralUpdates<S::Elem>) -> BatchReport {
        let none = GeneralUpdates::new();
        let report = self.engine.apply_general(&self.grid, upd, none);
        self.published(report)
    }

    /// Deletes the given `(u, v)` positions from the graph (a general
    /// batch; over a ring, the algebraic update `−old`). Returns the batch's
    /// report. Collective.
    pub fn delete_edges(&mut self, pairs: Vec<(Index, Index)>) -> BatchReport {
        let mut upd = GeneralUpdates::new();
        upd.deletes = pairs;
        self.apply_general(upd)
    }

    /// Publishes the epoch a batch committed, metered as the batch's
    /// [`phase::PUBLISH`] stage.
    fn published(&mut self, mut report: BatchReport) -> BatchReport {
        let engine = &mut self.engine;
        let publish = |stages: &mut PhaseTimer| stages.time(phase::PUBLISH, || engine.publish());
        report.merge(&meter(self.grid.world(), publish).1);
        report
    }

    // ------------------------------------------------------------------
    // Query API — every query runs against the latest *pinned* epoch, not
    // the live matrices: the update path and the query path share no
    // mutable state. Pin an epoch yourself ([`AnalyticsSession::pin`]) for
    // repeatable reads across batches.
    // ------------------------------------------------------------------

    /// Point lookup `c(u, v)` in the maintained product at the current
    /// epoch: owner-local read + one single-element broadcast. Every rank
    /// returns the same value. Collective.
    pub fn product_entry(&self, u: Index, v: Index) -> Option<S::Elem> {
        timed_query("product_entry", || {
            self.latest().product_entry(&self.grid, u, v)
        })
    }

    /// The `k` heaviest entries of product row `u` under `score` (greater is
    /// better; ties broken by column for determinism) at the current epoch.
    /// The row's grid row merges its owners' `k` best and broadcasts them
    /// ([`SnapshotMat::row_topk`](dspgemm_core::SnapshotMat::row_topk)),
    /// and every rank returns the same list. `score` must be a pure
    /// function agreed on all ranks. Collective.
    pub fn product_row_topk(
        &self,
        u: Index,
        k: usize,
        score: impl Fn(&S::Elem) -> f64,
    ) -> Vec<(Index, S::Elem)> {
        timed_query("product_row_topk", || {
            self.latest().product_row_topk(&self.grid, u, k, score)
        })
    }

    /// Global aggregate over the maintained product at the current epoch:
    /// folds every entry (global coordinates, row-major order) into `init`
    /// and allreduces the per-rank folds with `combine`. Every rank returns
    /// the total. Collective.
    pub fn product_aggregate<T>(
        &self,
        init: T,
        fold: impl FnMut(T, Index, Index, S::Elem) -> T,
        combine: impl FnMut(T, T) -> T,
    ) -> T
    where
        T: Clone + Send + dspgemm_util::WireSize + dspgemm_util::WireDecode + 'static,
    {
        timed_query("product_aggregate", || {
            self.latest().c().aggregate(&self.grid, init, fold, combine)
        })
    }

    /// Global non-zero counts `(nnz(A), nnz(C))` at the current epoch.
    /// Collective.
    pub fn global_nnz(&self) -> (u64, u64) {
        timed_query("global_nnz", || self.latest().global_nnz(&self.grid))
    }
}

/// Runs a session-API query under a `query` trace span (staleness 0: the
/// session API always answers from the latest epoch); the span's duration
/// is the query's latency.
fn timed_query<T>(kind: &'static str, f: impl FnOnce() -> T) -> T {
    let _sp = dspgemm_obs::span("query", kind).attr("staleness", 0);
    f()
}
