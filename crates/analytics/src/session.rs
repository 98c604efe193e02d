//! The analytics serving session.
//!
//! [`AnalyticsSession`] owns one distributed dynamic adjacency matrix `A`,
//! the maintained product `C = A · A` (with its Bloom filter matrix `F`, so
//! deletions are always admissible), and a registry of [`View`]s. One call
//! to [`AnalyticsSession::insert_edges`] / [`AnalyticsSession::apply_general`]
//! drives everything:
//!
//! 1. the batch is redistributed **once** into hypersparse update matrices,
//!    every layout the step needs a lane of the same exchange (the only
//!    all-to-all of the whole step);
//! 2. every view observes the pending batch (`pre_batch`) against the old
//!    state;
//! 3. the shared-operand dynamic SpGEMM hook patches `A`, `C` and `F`
//!    (Algorithm 1 for algebraic inserts, Algorithm 2 for general updates)
//!    and surfaces this rank's product delta `C*`;
//! 4. every view refreshes from the shared delta (`post_batch`);
//! 5. the batch **commits**: the session publishes an immutable
//!    [`SessionSnapshot`] epoch (block-granular copy-on-write over `A` and
//!    `C`, plus a frozen reading of every view).
//!
//! Queries never touch the live matrices: the session's query API reads the
//! latest published epoch, and [`AnalyticsSession::pin`] hands out an epoch
//! handle that stays bit-stable while further batches commit — see
//! [`crate::snapshot`].
//!
//! Sessions are SPMD: construct and drive them identically on every rank of
//! a [`dspgemm_mpi::run`] closure. All public methods marked *collective*
//! must be called by all ranks in the same order.

use crate::snapshot::SessionSnapshot;
use crate::view::{BatchDelta, PendingBatch, View, ViewCx, ViewId};
use dspgemm_core::distmat::DistMat;
use dspgemm_core::dyn_algebraic::apply_shared_algebraic_prebuilt_tracked_exec;
use dspgemm_core::dyn_general::{
    apply_shared_general_prebuilt_exec, prepare_general_update_in, GeneralUpdates,
};
use dspgemm_core::exec::Exec;
use dspgemm_core::grid::Grid;
use dspgemm_core::snapshot::{record_epoch_publish, SnapshotMat, SnapshotStore};
use dspgemm_core::summa::summa_bloom_exec;
use dspgemm_core::update::{build_update_matrix_pair_in, Dedup};
use dspgemm_mpi::Comm;
use dspgemm_sparse::semiring::Semiring;
use dspgemm_sparse::{Index, Triple};
use dspgemm_util::stats::PhaseTimer;
use std::sync::Arc;

/// A serving session: dynamic graph + maintained product + view registry.
pub struct AnalyticsSession<S: Semiring> {
    grid: Grid,
    /// Kernel workspaces persisting across every batch and view refresh.
    exec: Exec<S>,
    a: DistMat<S::Elem>,
    c: DistMat<S::Elem>,
    f: DistMat<u64>,
    views: Vec<(ViewId, Box<dyn View<S>>)>,
    next_view: u64,
    /// Published epochs (latest held strongly; older epochs live while
    /// pinned). Every committed batch and every view registration publishes.
    store: SnapshotStore<SessionSnapshot<S>>,
    /// Accumulated phase timings across construction and every batch.
    pub timer: PhaseTimer,
    /// Accumulated local scalar multiplications.
    pub flops: u64,
    /// Update batches applied so far.
    pub batches_applied: u64,
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
        let grid = Grid::new(comm);
        assert_eq!(
            threads, 1,
            "intra-rank threads are retired (DESIGN.md, \"One worker per rank\")"
        );
        let exec = Exec::new();
        let mut timer = PhaseTimer::new();
        let a = DistMat::from_global_triples(&grid, n, n, triples, 1, &mut timer);
        let (c, f, flops) = summa_bloom_exec::<S>(&grid, &a, &a, &exec, &mut timer);
        let mut session = Self {
            grid,
            exec,
            a,
            c,
            f,
            views: Vec::new(),
            next_view: 0,
            store: SnapshotStore::new(),
            timer,
            flops,
            batches_applied: 0,
        };
        // Epoch 0: the initial product, queryable before any batch.
        session.publish();
        session
    }

    /// The session's process grid.
    #[inline]
    pub fn grid(&self) -> &Grid {
        &self.grid
    }

    /// The dynamic adjacency matrix.
    #[inline]
    pub fn adjacency(&self) -> &DistMat<S::Elem> {
        &self.a
    }

    /// The maintained product `C = A · A`.
    #[inline]
    pub fn product(&self) -> &DistMat<S::Elem> {
        &self.c
    }

    /// Number of registered views.
    #[inline]
    pub fn view_count(&self) -> usize {
        self.views.len()
    }

    fn cx(&self) -> ViewCx<'_, S> {
        ViewCx {
            grid: &self.grid,
            a: &self.a,
            c: &self.c,
            exec: &self.exec,
        }
    }

    /// Registers a view, bootstrapping it from the current state, and
    /// returns its handle. Publishes a new epoch (so the view's frozen
    /// reading is pinnable immediately). Collective; all ranks must
    /// register the same views in the same order.
    pub fn register(&mut self, mut view: Box<dyn View<S>>) -> ViewId {
        view.bootstrap(&self.cx());
        let id = ViewId(self.next_view);
        self.next_view += 1;
        self.views.push((id, view));
        self.publish();
        id
    }

    // ------------------------------------------------------------------
    // Epoch publishing & pinning (the serving interface)
    // ------------------------------------------------------------------

    /// Publishes the current `{A, C, views}` as the next epoch. Local-only
    /// (no collectives): the matrices publish copy-on-write — a block the
    /// last batch left alone is re-shared from the previous epoch, a touched
    /// one gets an image patched from the previous one — and each view
    /// freezes its current reading. SPMD callers publish in lockstep, so
    /// epoch numbers agree on every rank. The `epoch_publish` instant
    /// records how the images of `A` and `C` were built.
    fn publish(&mut self) {
        let (a, a_build) = SnapshotMat::publish(&mut self.a);
        let (c, c_build) = SnapshotMat::publish(&mut self.c);
        let views: Vec<_> = self
            .views
            .iter_mut()
            .map(|(id, v)| {
                let name = v.name().to_string();
                (*id, name, v.freeze())
            })
            .collect();
        let snap = self
            .store
            .publish_with(|epoch| SessionSnapshot::new(epoch, a, c, views));
        record_epoch_publish(snap.epoch(), self.flops, a_build, c_build);
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

    /// The snapshot registry (retention diagnostics: how many epochs are
    /// still pinned and their memory footprint).
    pub fn snapshots(&self) -> &SnapshotStore<SessionSnapshot<S>> {
        &self.store
    }

    fn latest(&self) -> &Arc<SessionSnapshot<S>> {
        self.store
            .latest()
            .expect("sessions publish epoch 0 at construction")
    }

    /// Read access to a registered view.
    pub fn view(&self, id: ViewId) -> Option<&dyn View<S>> {
        self.views
            .iter()
            .find(|(vid, _)| *vid == id)
            .map(|(_, v)| v.as_ref())
    }

    /// Typed read access to a registered view.
    pub fn view_as<T: 'static>(&self, id: ViewId) -> Option<&T> {
        self.view(id).and_then(|v| v.as_any().downcast_ref::<T>())
    }

    /// Applies a batch of **algebraic** edge insertions `A' = A + A*`
    /// (semiring addition; tuples carry global indices and may live on any
    /// rank), refreshing the product and every view from one shared
    /// redistribution. Collective.
    pub fn insert_edges(&mut self, tuples: Vec<Triple<S::Elem>>) {
        let _sp =
            dspgemm_obs::span("engine", "apply_algebraic").attr("updates", tuples.len() as u64);
        // One redistribution builds both blocks: the natural one feeds the
        // views and `A += A*`, the root one the round roots.
        let star = build_update_matrix_pair_in::<S>(
            &self.grid,
            self.a.info().layout(),
            tuples,
            Dedup::Add,
            &mut self.timer,
        );
        // Views peek at the old state (registry temporarily detached so the
        // session state can be borrowed immutably alongside it).
        let mut views = std::mem::take(&mut self.views);
        for (_, v) in &mut views {
            v.pre_batch(
                &self.cx(),
                &PendingBatch::Algebraic {
                    star: &star.natural,
                },
            );
        }
        let (cstar, flops) = apply_shared_algebraic_prebuilt_tracked_exec::<S>(
            &self.grid,
            &mut self.a,
            &mut self.c,
            &mut self.f,
            &star,
            &self.exec,
            &mut self.timer,
        );
        self.flops += flops;
        self.batches_applied += 1;
        for (_, v) in &mut views {
            v.post_batch(
                &self.cx(),
                &BatchDelta::Algebraic {
                    star: &star.natural,
                    cstar: &cstar,
                },
            );
        }
        self.views = views;
        // Commit: readers pinned at the previous epoch keep it; new queries
        // see this batch exactly.
        self.publish();
    }

    /// Applies a batch of **general** updates (deletions and value writes
    /// incompatible with the semiring addition) via Algorithm 2, refreshing
    /// the product and every view. Collective.
    pub fn apply_general(&mut self, upd: GeneralUpdates<S::Elem>) {
        let _sp = dspgemm_obs::span("engine", "apply_general").attr("updates", upd.len() as u64);
        let layout = self.a.info().layout();
        let prep = prepare_general_update_in::<S>(&self.grid, layout, upd, &mut self.timer);
        let mut views = std::mem::take(&mut self.views);
        for (_, v) in &mut views {
            v.pre_batch(&self.cx(), &PendingBatch::General { prep: &prep });
        }
        let (cstar_pattern, flops) = apply_shared_general_prebuilt_exec::<S>(
            &self.grid,
            &mut self.a,
            &mut self.c,
            &mut self.f,
            &prep,
            &self.exec,
            &mut self.timer,
        );
        self.flops += flops;
        self.batches_applied += 1;
        for (_, v) in &mut views {
            v.post_batch(
                &self.cx(),
                &BatchDelta::General {
                    prep: &prep,
                    cstar_pattern: &cstar_pattern,
                },
            );
        }
        self.views = views;
        // Commit: readers pinned at the previous epoch keep it; new queries
        // see this batch exactly.
        self.publish();
    }

    /// Deletes the given `(u, v)` positions from the graph (a general
    /// batch). Collective.
    pub fn delete_edges(&mut self, pairs: Vec<(Index, Index)>) {
        let mut upd = GeneralUpdates::new();
        upd.deletes = pairs;
        self.apply_general(upd);
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

    /// Point lookup `a(u, v)` in the adjacency matrix at the current
    /// epoch. Collective.
    pub fn adjacency_entry(&self, u: Index, v: Index) -> Option<S::Elem> {
        timed_query("adjacency_entry", || {
            self.latest().adjacency_entry(&self.grid, u, v)
        })
    }

    /// The `k` heaviest entries of product row `u` under `score` (greater is
    /// better; ties broken by column for determinism) at the current epoch.
    /// The row's owners contribute their local entries, one zero-copy
    /// allgather merges them, and every rank returns the same list. `score`
    /// must be a pure function agreed on all ranks. Collective.
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
            self.latest()
                .product_aggregate(&self.grid, init, fold, combine)
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
