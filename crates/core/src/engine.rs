//! The user-facing dynamic SpGEMM session.
//!
//! [`DynSpGemm`] owns the operand matrices `A` and `B`, the maintained
//! product `C = A · B`, and (optionally) the Bloom filter matrix `F` that
//! general updates require. Every call that moves that state — Algorithm 1
//! and Algorithm 2 batches, static recomputes, rebalancing migrations — is
//! one [`Batch`] through one commit path: write-ahead log (with recovery
//! on), apply, agreement fence. The session keeps the invariant `C = A · B`
//! after every batch — verified end-to-end by the integration tests against
//! static recomputation. A call a rank failure interrupts returns the
//! [`CommError`]; with recovery on, every rank hands it to the one
//! [`DynSpGemm::recover`], which serves survivors and the replacement alike.
//!
//! An algebraic or general batch runs its algorithm's one batch body
//! ([`crate::dyn_algebraic`], [`crate::dyn_general`]) in either shape; this
//! session is the bodies' one public entry. In **shared mode**
//! ([`DynSpGemm::shared`]) it maintains `C = A · A` with one stored operand
//! and `F` always tracked. An [`Observer`] watches every commit (a plain
//! engine observes with `()`): it sees each tracked algebraic or general
//! batch before and after it is applied, re-bootstraps after a recompute, a
//! migration or a rollback, and freezes its readings into every published
//! epoch. The analytics serving layer is a shared-mode session whose
//! observer is its view registry.

use crate::distmat::{DistMat, Elem, ImageBuild, ImagePath, MigrationStats};
use crate::dyn_algebraic::{algebraic_batch, build_star_operands};
use crate::dyn_general::{general_batch, prepare_general_batch, GeneralUpdates};
use crate::exec::Exec;
use crate::grid::Grid;
use crate::layout::Layout;
use crate::observer::{Observer, ViewCx};
use crate::rebalance::{imbalance, RebalanceConfig, Rebalancer};
use crate::recovery::{
    buddy_ring, Anchor, LoggedBatch, MatImage, RecoveryConfig, RecoveryReport, RecoveryState,
    ReplicaBundle, TAG_ANCHOR, TAG_REBUILD, TAG_WAL,
};
use crate::report::{meter, BatchReport};
use crate::snapshot::{Snapshot, SnapshotMat, SnapshotStore};
use crate::summa::{summa_bloom_exec, summa_exec};
use dspgemm_mpi::{catch_comm_mut, Comm, CommError};
use dspgemm_sparse::semiring::Semiring;
use dspgemm_sparse::{Index, Triple};
use dspgemm_util::stats::PhaseTimer;
use dspgemm_util::WireSize;
use std::sync::Arc;

/// One batch of a [`DynSpGemm`] session: every kind of call that moves the
/// maintained state. Update tuples carry global indices and may live on any
/// rank; each rank passes its own share.
#[derive(Debug, Clone)]
pub enum Batch<V> {
    /// Algorithm 1: `A' = A + A*`, `B' = B + B*` under the semiring addition.
    /// In shared mode the `B` side must be empty.
    Algebraic(Vec<Triple<V>>, Vec<Triple<V>>),
    /// Algorithm 2: value writes incompatible with the semiring addition,
    /// and deletions. Requires a session created with `track_filter`. In
    /// shared mode the `B` side must be empty.
    General(GeneralUpdates<V>, GeneralUpdates<V>),
    /// Recomputes `C = A · B` (and `F`) from scratch — the static strategy
    /// the paper's competitors are forced into; a baseline and a repair path.
    Recompute,
    /// Migrates `A`, `B`, `C` (and `F`) to the square layout with these cuts:
    /// a [`DynSpGemm::maybe_rebalance`] verdict, which replay re-applies
    /// instead of deciding again.
    Migrate(Vec<Index>),
}

/// A dynamic SpGEMM session maintaining `C = A · B` under batched updates,
/// or `C = A · A` in shared mode, where the observer `O` watches every
/// commit (none for the plain engine `DynSpGemm<S>`).
pub struct DynSpGemm<S: Semiring, O: Observer<S> = ()> {
    /// Left operand (dynamic). Mutating it directly (rather than through
    /// the batch calls) requires an explicit SPMD [`DynSpGemm::publish`]
    /// before the next [`DynSpGemm::snapshot`] — see the latter's docs.
    pub a: DistMat<S::Elem>,
    /// Right operand (dynamic). Same direct-mutation caveat as `a`. In
    /// shared mode an empty `0 × 0` placeholder: `A` is both operands.
    pub b: DistMat<S::Elem>,
    /// The maintained product. Same direct-mutation caveat as `a`.
    pub c: DistMat<S::Elem>,
    /// The Bloom filter matrix `F` (present iff the session tracks filters,
    /// which is required before general updates can be applied).
    pub f: Option<DistMat<u64>>,
    /// The kernel workspaces that persist across every update batch and
    /// recomputation of this session.
    pub exec: Exec<S>,
    /// Adapter-frozen: the engine writes nothing here — a batch's stages are
    /// in the [`BatchReport`] it returns. `benchmark/src/api.rs` passes it to
    /// `apply_algebraic_updates_prebuilt_exec` until the benchmark PR drops
    /// the `PhaseTimer` parameters.
    pub timer: PhaseTimer,
    /// Accumulated local scalar-multiplication count.
    pub flops: u64,
    /// Published epochs of `{A, C}` plus the observer's frozen readings (see
    /// [`crate::snapshot`]); the latest is held here, older ones live as
    /// long as a reader pins them.
    snapshots: SnapshotStore<O::Epoch>,
    /// Whether a batch committed since the last publish.
    dirty: bool,
    /// Shared mode: `C = A · A`, with `b` an unused placeholder.
    shared: bool,
    /// Watches every commit and replay (see [`crate::observer`]).
    observer: O,
    /// The dynamic inter-rank rebalancing policy (opt-in via
    /// [`DynSpGemm::enable_rebalancing`]; `None` keeps the distribution
    /// static). Its migrations are [`Batch::Migrate`] batches and its state
    /// is part of every recovery anchor, so it composes with recovery.
    rebalancer: Option<Rebalancer>,
    /// Epoch-anchored recovery state (opt-in via
    /// [`DynSpGemm::enable_recovery`]): every committed [`Batch`], of any
    /// kind, is write-ahead logged and replayed by recovery.
    recovery: Option<RecoveryState<S::Elem>>,
}

impl<S: Semiring> DynSpGemm<S> {
    /// Creates a session, computing the initial product `C = A · B` with
    /// sparse SUMMA (fused with Bloom tracking when `track_filter`).
    /// Collective over the grid.
    ///
    /// Adapter-frozen: `threads` must be 1; `benchmark/src/api.rs` passes it
    /// until the benchmark PR drops it (DESIGN.md, "One worker per rank").
    ///
    /// # Panics
    /// Panics if `threads != 1`.
    pub fn new(
        grid: &Grid,
        a: DistMat<S::Elem>,
        b: DistMat<S::Elem>,
        threads: usize,
        track_filter: bool,
    ) -> Self {
        assert_eq!(
            threads, 1,
            "intra-rank threads are retired (DESIGN.md, \"One worker per rank\")"
        );
        Self::start(grid, a, Some(b), track_filter, ())
    }
}

impl<S: Semiring, O: Observer<S>> DynSpGemm<S, O> {
    /// Creates a shared-mode session: `C = A · A` with one stored operand
    /// and the filter matrix `F` always tracked, so general batches are
    /// always admissible. `observer` bootstraps from the initial product and
    /// then watches every commit. Collective over the grid.
    ///
    /// # Panics
    /// Panics if `a` is not square.
    pub fn shared(grid: &Grid, a: DistMat<S::Elem>, observer: O) -> Self {
        let (n, m) = (a.info().nrows, a.info().ncols);
        assert_eq!(n, m, "shared mode maintains a square product C = A·A");
        Self::start(grid, a, None, true, observer)
    }

    /// Computes the initial product (`b` absent: shared mode), bootstraps
    /// the observer and publishes epoch 0. Collective.
    fn start(
        grid: &Grid,
        a: DistMat<S::Elem>,
        b: Option<DistMat<S::Elem>>,
        track_filter: bool,
        observer: O,
    ) -> Self {
        let exec = Exec::new();
        let right = b.as_ref().unwrap_or(&a);
        let stages = &mut PhaseTimer::new();
        let (c, f, flops) = Self::static_product(grid, &a, right, track_filter, &exec, stages);
        let mut eng = Self {
            shared: b.is_none(),
            b: b.unwrap_or_else(|| DistMat::empty(grid, 0, 0)),
            a,
            c,
            f,
            exec,
            timer: PhaseTimer::new(),
            flops,
            snapshots: SnapshotStore::new(),
            dirty: false,
            observer,
            rebalancer: None,
            recovery: None,
        };
        let (obs, cx) = eng.observe(grid);
        obs.bootstrap(&cx);
        // Epoch 0: the initial product, queryable before any batch.
        eng.publish();
        eng
    }

    /// The observer.
    pub fn observer(&self) -> &O {
        &self.observer
    }

    /// The observer beside read access to the state it observes — for
    /// changing the observer itself (a view registry bootstraps a view it
    /// registers from it). A change here is published by the next publish.
    pub fn observe<'a>(&'a mut self, grid: &'a Grid) -> (&'a mut O, ViewCx<'a, S>) {
        let cx = ViewCx {
            grid,
            a: &self.a,
            c: &self.c,
            exec: &self.exec,
        };
        (&mut self.observer, cx)
    }

    /// `C = A · B` (and `F`, when tracking) by sparse SUMMA, with its flops.
    fn static_product(
        grid: &Grid,
        a: &DistMat<S::Elem>,
        b: &DistMat<S::Elem>,
        track_filter: bool,
        exec: &Exec<S>,
        timer: &mut PhaseTimer,
    ) -> (DistMat<S::Elem>, Option<DistMat<u64>>, u64) {
        if track_filter {
            let (c, f, flops) = summa_bloom_exec::<S>(grid, a, b, exec, timer);
            (c, Some(f), flops)
        } else {
            let (c, flops) = summa_exec::<S>(grid, a, b, exec, timer);
            (c, None, flops)
        }
    }

    // ------------------------------------------------------------------
    // Epoch-versioned snapshots (the serving interface)
    // ------------------------------------------------------------------

    /// Publishes the current `{A, C}` and the observer's frozen readings as
    /// the next epoch and returns the pinned handle. Local-only (no
    /// collectives): a block the batches since the last publish left alone
    /// is re-shared copy-on-write from the previous epoch, a touched one gets
    /// an image patched from the previous one (see [`crate::snapshot`]).
    /// SPMD callers publish in lockstep, so epoch numbers agree on every
    /// rank.
    pub fn publish(&mut self) -> Arc<O::Epoch> {
        let (a, a_build) = SnapshotMat::publish(&mut self.a);
        let (c, c_build) = SnapshotMat::publish(&mut self.c);
        self.dirty = false;
        let observer = &mut self.observer;
        let snap = self
            .snapshots
            .publish_with(|epoch| observer.freeze(Snapshot::new(epoch, a, c)));
        // The `epoch_publish` instant: per operand, which path built the
        // image (`patched_*` / `rebuilt_*`, both 0 when it was re-shared),
        // the coordinates logged since the previous image (on a rebuild, the
        // length at which the log overflowed) and the image's entries.
        let is = |build: ImageBuild, path| u64::from(build.path == path);
        dspgemm_obs::instant(
            "engine",
            "epoch_publish",
            &[
                ("epoch", self.snapshots.published() - 1),
                ("flops", self.flops),
                ("patched_a", is(a_build, ImagePath::Patched)),
                ("rebuilt_a", is(a_build, ImagePath::Rebuilt)),
                ("touched_nnz_a", a_build.touched_nnz as u64),
                ("image_nnz_a", a_build.image_nnz as u64),
                ("patched_c", is(c_build, ImagePath::Patched)),
                ("rebuilt_c", is(c_build, ImagePath::Rebuilt)),
                ("touched_nnz_c", c_build.touched_nnz as u64),
                ("image_nnz_c", c_build.image_nnz as u64),
            ],
        );
        snap
    }

    /// Pins the current epoch: returns the latest published snapshot,
    /// publishing first if a [`Batch`] committed since the last publish — so
    /// the returned epoch always reflects every committed batch. Readers
    /// keep the returned `Arc` for as long as they need repeatable reads;
    /// batches never mutate a published epoch.
    ///
    /// The lazy-publish decision must be rank-uniform (publishing advances
    /// the epoch counter), so it keys on the *collective* batch calls: a
    /// direct mutation of the public matrix fields (e.g. `eng.a.block_mut()`)
    /// needs an explicit SPMD [`DynSpGemm::publish`] — a per-rank content
    /// check would let a rank whose block a batch left alone skip the
    /// publish its peers perform.
    pub fn snapshot(&mut self) -> Arc<O::Epoch> {
        if self.dirty || self.snapshots.latest().is_none() {
            self.publish()
        } else {
            Arc::clone(self.snapshots.latest().expect("published above"))
        }
    }

    /// The latest published epoch number (`None` before the first publish —
    /// unreachable through the public constructors, which publish epoch 0).
    pub fn epoch(&self) -> Option<u64> {
        let published = self.snapshots.published();
        self.snapshots.latest().map(|_| published - 1)
    }

    /// The snapshot registry (retention diagnostics: how many epochs are
    /// still pinned, and their memory footprint).
    pub fn snapshots(&self) -> &SnapshotStore<O::Epoch> {
        &self.snapshots
    }

    // ------------------------------------------------------------------
    // The batch lifecycle
    // ------------------------------------------------------------------

    /// Applies one batch through the session's one commit path and returns
    /// what the whole commit cost this rank: the log, the apply and the
    /// fence under one [`meter`]. Collective.
    /// Returns `Err` when a peer failure (or this rank's own injected crash)
    /// interrupts the batch; with recovery on, the caller then passes the
    /// error to [`DynSpGemm::recover`] — on every rank, survivor or crashed —
    /// and re-submits every batch the returned report says did not commit. The
    /// recovery log is keyed by published epoch: publish after every `Ok`
    /// before the next batch.
    ///
    /// # Panics
    /// Panics on a [`Batch::General`] in a session created without
    /// `track_filter`, on a batch with a `B` side in shared mode, and with
    /// recovery on if the previous batch was not published.
    pub fn try_apply(
        &mut self,
        grid: &Grid,
        batch: Batch<S::Elem>,
    ) -> Result<BatchReport, CommError> {
        assert!(
            self.f.is_some() || !matches!(batch, Batch::General(..)),
            "general updates require a session created with track_filter = true"
        );
        let b_side = matches!(&batch, Batch::Algebraic(_, b) if !b.is_empty())
            || matches!(&batch, Batch::General(_, b) if !b.is_empty());
        assert!(
            !(self.shared && b_side),
            "a shared-mode session has one operand: the B side of a batch must be empty"
        );
        let (work, report) = meter(grid.world(), |stages| self.commit(grid, batch, stages));
        let (flops, astar_nnz, cstar_nnz) = work?;
        Ok(BatchReport {
            flops,
            astar_nnz,
            cstar_nnz,
            ..report
        })
    }

    /// [`DynSpGemm::try_apply`] of a [`Batch::Algebraic`]: Algorithm 1, and
    /// its report. A communication failure unwinds as the [`CommError`] it
    /// arrived as.
    pub fn apply_algebraic(
        &mut self,
        grid: &Grid,
        a_updates: Vec<Triple<S::Elem>>,
        b_updates: Vec<Triple<S::Elem>>,
    ) -> BatchReport {
        self.apply(grid, Batch::Algebraic(a_updates, b_updates))
    }

    /// [`DynSpGemm::try_apply`] of a [`Batch::General`]: Algorithm 2, and its
    /// report. A communication failure unwinds as the [`CommError`] it
    /// arrived as.
    ///
    /// # Panics
    /// Panics if the session was created without `track_filter`.
    pub fn apply_general(
        &mut self,
        grid: &Grid,
        a_updates: GeneralUpdates<S::Elem>,
        b_updates: GeneralUpdates<S::Elem>,
    ) -> BatchReport {
        self.apply(grid, Batch::General(a_updates, b_updates))
    }

    fn apply(&mut self, grid: &Grid, batch: Batch<S::Elem>) -> BatchReport {
        self.try_apply(grid, batch)
            .unwrap_or_else(|e| std::panic::resume_unwind(Box::new(e)))
    }

    /// The one batch lifecycle, in order: with recovery on, refresh the
    /// anchor when due and write-ahead log the record locally and at the
    /// buddy rank; apply the record; with recovery on, pass the agreement
    /// fence (a failed rank cannot contribute, so completing it proves every
    /// rank logged and applied the batch). With recovery off it clones no
    /// batch and sends nothing beyond the batch's own traffic. Returns the
    /// record's work counts (see [`DynSpGemm::apply_record`]).
    fn commit(
        &mut self,
        grid: &Grid,
        batch: Batch<S::Elem>,
        stages: &mut PhaseTimer,
    ) -> Result<(u64, u64, u64), CommError> {
        let record = LoggedBatch {
            epoch: self.snapshots.published(),
            batch,
        };
        let Some(rec) = self.recovery.as_ref() else {
            return catch_comm_mut(|| self.apply_record(grid, record, stages));
        };
        assert!(
            !self.dirty,
            "recovery mode requires publish() after every committed batch"
        );
        // Deterministic anchor refresh at batch boundaries: the trigger keys
        // on the published-epoch counter, which moves in lockstep across
        // ranks, so every rank refreshes at the same batch. An epoch holds
        // at most one record, so a log never outgrows two anchor windows.
        if record.epoch - rec.own.newest.published >= rec.cfg.anchor_period {
            self.refresh_anchor(grid)?;
        }
        let world = grid.world();
        let (succ, pred) = buddy_ring(world);
        // Write-ahead: ship the record to the buddy before applying anything.
        // Local append happens only after the exchange completes, so a rank
        // that errors here retries the same batch cleanly after recovery.
        let got = catch_comm_mut(|| world.sendrecv(succ, record.clone(), pred, TAG_WAL))?;
        let rec = self.recovery.as_mut().expect("checked above");
        rec.own.log.push(record.clone());
        rec.replica.log.push(got);
        catch_comm_mut(|| {
            let work = self.apply_record(grid, record, stages);
            fence(world);
            work
        })
    }

    /// Applies one record to the live matrices — the body of every commit
    /// and of recovery replay, one arm per [`Batch`] kind. Collective. An
    /// algebraic or general batch runs its algorithm's one batch body, in
    /// either shape, and the observer sees a tracked one before and after it
    /// is applied; it re-bootstraps after a recompute or a migration, which
    /// carry no delta. Records its stages into `stages` and returns this
    /// rank's `(flops, nnz(A*), nnz(C*))` — the update counts are zero for a
    /// recompute or a migration.
    fn apply_record(
        &mut self,
        grid: &Grid,
        record: LoggedBatch<S::Elem>,
        stages: &mut PhaseTimer,
    ) -> (u64, u64, u64) {
        self.dirty = true;
        // A recompute or a migration carries no delta: the observer restarts.
        let restarts = matches!(record.batch, Batch::Recompute | Batch::Migrate(_));
        let _sp = match &record.batch {
            Batch::Algebraic(a, b) => dspgemm_obs::span("engine", "apply_algebraic")
                .attr("updates", (a.len() + b.len()) as u64),
            Batch::General(a, b) => dspgemm_obs::span("engine", "apply_general")
                .attr("updates", (a.len() + b.len()) as u64),
            Batch::Recompute => dspgemm_obs::span("engine", "recompute"),
            Batch::Migrate(_) => dspgemm_obs::span("engine", "migrate").attr("epoch", record.epoch),
        };
        // `B` unless shared mode stores one operand: `A` is both.
        let b = (!self.shared).then_some(&mut self.b);
        let (obs, exec) = (&mut self.observer, &self.exec);
        let work = match record.batch {
            Batch::Algebraic(a_ups, b_ups) => {
                let (a_star, b_star) =
                    build_star_operands::<S>(grid, &self.a, b.as_deref(), a_ups, b_ups, stages);
                let (a, c, f, b_star) =
                    (&mut self.a, &mut self.c, self.f.as_mut(), b_star.as_ref());
                let (flops, cstar_nnz) =
                    algebraic_batch::<S>(grid, a, b, c, f, &a_star, b_star, obs, exec, stages);
                (flops, a_star.natural.local_nnz() as u64, cstar_nnz)
            }
            Batch::General(a_ups, b_ups) => {
                let (a_prep, b_prep) =
                    prepare_general_batch::<S>(grid, &self.a, b.as_deref(), a_ups, b_ups, stages);
                let f = self.f.as_mut().expect("checked by try_apply");
                let (a, c, b_prep) = (&mut self.a, &mut self.c, b_prep.as_ref());
                let (flops, cstar_nnz) =
                    general_batch::<S>(grid, a, b, c, f, &a_prep, b_prep, obs, exec, stages);
                (flops, a_prep.star.local_nnz() as u64, cstar_nnz)
            }
            Batch::Recompute => {
                let track = self.f.is_some();
                let right = if self.shared { &self.a } else { &self.b };
                let (c, f, flops) =
                    Self::static_product(grid, &self.a, right, track, &self.exec, stages);
                (self.c, self.f) = (c, f);
                (flops, 0, 0)
            }
            Batch::Migrate(cuts) => {
                self.migrate(grid, record.epoch, cuts, stages);
                (0, 0, 0)
            }
        };
        self.flops += work.0;
        if restarts {
            let (obs, cx) = self.observe(grid);
            obs.bootstrap(&cx);
        }
        work
    }

    // ------------------------------------------------------------------
    // Dynamic inter-rank rebalancing
    // ------------------------------------------------------------------

    /// Opts this session into metrics-driven inter-rank rebalancing:
    /// [`DynSpGemm::maybe_rebalance`] becomes live with the given trigger
    /// configuration. Requires square operands (one square cut vector keeps
    /// `A`, `B`, `C`, `F` mutually SUMMA-conformal through every
    /// migration). Must be enabled rank-uniformly, at a batch boundary; with
    /// recovery on, the retained anchors (own and replicated) gain the fresh
    /// policy, so a rollback past this call keeps it.
    ///
    /// # Panics
    /// Panics if the session's matrices are not all square of one size.
    pub fn enable_rebalancing(&mut self, cfg: RebalanceConfig) {
        let (an, ac) = (self.a.info().nrows, self.a.info().ncols);
        let b = if self.shared { &self.a } else { &self.b };
        let (bn, bc) = (b.info().nrows, b.info().ncols);
        assert!(
            an == ac && bn == bc && an == bn,
            "rebalancing requires square operands of one size (got A {an}x{ac}, B {bn}x{bc})"
        );
        let reb = Rebalancer::new(cfg);
        if let Some(rec) = &mut self.recovery {
            rec.anchors_mut()
                .for_each(|anchor| anchor.rebalancer = Some(reb.clone()));
        }
        self.rebalancer = Some(reb);
    }

    /// The rebalancing policy state, when enabled (migration/byte counters
    /// and the last observed imbalance).
    pub fn rebalancer(&self) -> Option<&Rebalancer> {
        self.rebalancer.as_ref()
    }

    /// One rebalancing step: publishes the current epoch, allgathers every
    /// rank's own load (the nnz of its `A` and `C` blocks) and has every rank
    /// evaluate the same pure policy on that vector — max/mean nnz imbalance
    /// vs. the configured threshold, under the migration cooldown — and,
    /// when the verdict is a new cut vector, commits it as a
    /// [`Batch::Migrate`] and re-publishes under the new [`Layout`]. Returns
    /// whether it migrated (`Ok(false)` unless
    /// [`DynSpGemm::enable_rebalancing`] was called), or `Err` as
    /// [`DynSpGemm::try_apply`] does — hand it to [`DynSpGemm::recover`].
    /// Collective over the grid.
    ///
    /// Pinned pre-migration snapshots are untouched: they keep their own
    /// layout inside their [`crate::distmat::BlockInfo`], so epoch readers
    /// stay bit-stable across the remap.
    pub fn maybe_rebalance(&mut self, grid: &Grid) -> Result<bool, CommError> {
        if self.rebalancer.is_none() {
            return Ok(false);
        }
        // Decide at the publish fence: the cooldown counts published epochs.
        self.snapshot();
        let epoch = self.snapshots.published();
        // The load signal travels over `Comm`: it is this session's own, on
        // any transport, whatever else runs in the process.
        let mine = (self.a.local_nnz() + self.c.local_nnz()) as u64;
        let loads = catch_comm_mut(|| grid.world().allgather(mine))?;
        let reb = self.rebalancer.as_mut().expect("checked above");
        reb.note_decision(imbalance(&loads));
        let cuts = reb.decide(self.a.info().layout().row_cuts(), &loads, epoch);
        let Some(cuts) = cuts else { return Ok(false) };
        self.commit(grid, Batch::Migrate(cuts), &mut PhaseTimer::new())?;
        // Re-publish under the new layout: the next epoch carries the new
        // cuts, pinned pre-migration epochs keep the old ones.
        self.publish();
        Ok(true)
    }

    /// Migrates every session matrix to the square layout with `cuts` — the
    /// body of a [`Batch::Migrate`] whose publish is `epoch`. Migration wire
    /// cost is this rank's alltoall bytes under the [`meter`], summed
    /// network-wide and accumulated on the session's [`Rebalancer`]; with
    /// observability on, the `migrated` trace instant carries it too.
    fn migrate(&mut self, grid: &Grid, epoch: u64, cuts: Vec<Index>, stages: &mut PhaseTimer) {
        let new_layout = Arc::new(Layout::square(cuts));
        let (moved, metered) = meter(grid.world(), |timer| {
            let sa = self.a.migrate_to(grid, &new_layout, timer);
            let sb = match self.shared {
                true => MigrationStats::default(),
                false => self.b.migrate_to(grid, &new_layout, timer),
            };
            let sc = self.c.migrate_to(grid, &new_layout, timer);
            let sf = match &mut self.f {
                Some(f) => f.migrate_to(grid, &new_layout, timer),
                None => MigrationStats::default(),
            };
            sa.moved_in + sb.moved_in + sc.moved_in + sf.moved_in
        });
        stages.merge(&metered.stages);
        let sent = metered.comm.bytes[dspgemm_mpi::CommCategory::Alltoall as usize];
        let bytes = grid.world().allreduce(sent, |x, y| x + y);
        let moved_in = moved as u64;
        dspgemm_obs::instant(
            "engine",
            "migrated",
            &[("epoch", epoch), ("bytes", bytes), ("moved_in", moved_in)],
        );
        if let Some(reb) = self.rebalancer.as_mut() {
            reb.note_migration(epoch, bytes);
        }
    }

    // ------------------------------------------------------------------
    // Epoch-anchored recovery (see `crate::recovery` for the protocol)
    // ------------------------------------------------------------------

    /// Opts this session into epoch-anchored recovery: every batch is
    /// write-ahead logged and replicated to the buddy rank `(r + 1) mod p`,
    /// periodic anchors bound replay and the log (two anchor windows), and
    /// [`DynSpGemm::recover`] restores the grid after a rank failure.
    /// Collective over the grid: the initial anchor is exchanged
    /// buddy-to-buddy, then fenced. Requires a published, batch-free state —
    /// enable right after construction or after an explicit publish.
    ///
    /// Returns `Err` when a crash in the first batch reaches this rank still
    /// inside the fence; the session is then recoverable as after a failed
    /// batch — hand the error to [`DynSpGemm::recover`].
    ///
    /// # Panics
    /// Panics if recovery is already enabled or if a committed batch has not
    /// been published yet.
    pub fn enable_recovery(&mut self, grid: &Grid, cfg: RecoveryConfig) -> Result<(), CommError> {
        assert!(self.recovery.is_none(), "recovery is already enabled");
        assert!(
            !self.dirty,
            "publish() committed batches before enable_recovery()"
        );
        assert!(cfg.anchor_period >= 1, "anchor_period must be at least 1");
        self.reanchor(grid, cfg);
        // A rank passes the fence only once every rank holds its anchors, so
        // a crash in the first batch finds each peer recoverable, whether
        // still inside the fence or already past it.
        catch_comm_mut(|| fence(grid.world()))
    }

    /// The recovery state, when enabled (anchor/log diagnostics for tests
    /// and experiments).
    pub fn recovery(&self) -> Option<&RecoveryState<S::Elem>> {
        self.recovery.as_ref()
    }

    /// Captures a full rollback anchor of the current published state
    /// (copy-on-write: warm blocks re-share their snapshot `Arc`s).
    fn capture_anchor(&mut self) -> Anchor<S::Elem> {
        Anchor {
            published: self.snapshots.published(),
            flops: self.flops,
            a: MatImage::capture(&mut self.a),
            b: MatImage::capture(&mut self.b),
            c: MatImage::capture(&mut self.c),
            f: self.f.as_mut().map(MatImage::capture),
            rebalancer: self.rebalancer.clone(),
        }
    }

    /// Captures an anchor of the current published state and exchanges it
    /// around the buddy ring; returns `(own, predecessor's)`. Collective.
    fn exchange_anchor(&mut self, grid: &Grid) -> (Anchor<S::Elem>, Anchor<S::Elem>) {
        let (anchor, world) = (self.capture_anchor(), grid.world());
        let (succ, pred) = buddy_ring(world);
        let got = world.sendrecv(succ, anchor.clone(), pred, TAG_ANCHOR);
        (anchor, got)
    }

    /// Captures a new anchor and exchanges it with the buddy ring, then
    /// commits the two-window rotation on both the own and the replica
    /// side. Windows move only after the exchange completes: a crash racing
    /// the refresh leaves every surviving rank holding its old windows, and
    /// the rank-minimum rollback agreement in [`DynSpGemm::recover`] picks
    /// the anchor all ranks still share.
    fn refresh_anchor(&mut self, grid: &Grid) -> Result<(), CommError> {
        let _sp = dspgemm_obs::span("engine", "anchor_refresh")
            .attr("published", self.snapshots.published());
        let (anchor, got) = catch_comm_mut(|| self.exchange_anchor(grid))?;
        let rec = self.recovery.as_mut().expect("recovery enabled");
        rec.own.rotate(anchor);
        rec.replica.rotate(got);
        Ok(())
    }

    /// Stands the session at a rollback anchor — both recovery roles restore
    /// through it: each matrix is built from its image under the cuts it was
    /// captured with, the counters and rebalancing policy are the anchor's,
    /// and the observer re-bootstraps from the anchor's `A` and `C` before
    /// replay reaches it. A survivor keeps its workspaces and published
    /// epochs; the replacement keeps nothing but its launch parameters
    /// (shared mode and the observer it was launched with).
    /// Pinned epochs are untouched: images are shared copy-on-write.
    /// Collective.
    fn roll_back(&mut self, grid: &Grid, anchor: &Anchor<S::Elem>, replacement: bool) {
        self.a = anchor.a.build(grid);
        self.b = anchor.b.build(grid);
        self.c = anchor.c.build(grid);
        self.f = anchor.f.as_ref().map(|img| img.build(grid));
        self.flops = anchor.flops;
        self.rebalancer = anchor.rebalancer.clone();
        self.dirty = false;
        if replacement {
            self.exec = Exec::new();
            self.snapshots = SnapshotStore::new();
            self.snapshots.resume_at(anchor.published);
        }
        let (obs, cx) = self.observe(grid);
        obs.bootstrap(&cx);
    }

    /// Replays the committed window `[a_min, p_star)` from this rank's own
    /// log, epoch by epoch: the epoch's record, if any (an epoch without one
    /// was a publish that committed nothing), then a catch-up publish if this
    /// rank's counter has not reached the epoch (so epoch numbering realigns
    /// at the commit frontier). Collective: every rank replays the same kinds.
    fn replay(&mut self, grid: &Grid, log: Vec<LoggedBatch<S::Elem>>, a_min: u64, p_star: u64) {
        let mut log = log.into_iter().filter(|r| r.epoch >= a_min).peekable();
        for epoch in a_min..p_star {
            if let Some(record) = log.next_if(|r| r.epoch == epoch) {
                self.apply_record(grid, record, &mut PhaseTimer::new());
            }
            if self.snapshots.published() == epoch {
                self.publish();
            }
        }
        assert!(
            log.next().is_none_or(|r| r.epoch >= p_star),
            "the log holds one record per committed epoch"
        );
    }

    /// Captures a fresh anchor of the current published state, exchanges
    /// anchors around the buddy ring and starts every log window empty — the
    /// full recovery invariant, at enable time and after a recovery.
    /// Collective.
    fn reanchor(&mut self, grid: &Grid, cfg: RecoveryConfig) {
        let (own, predecessor) = self.exchange_anchor(grid);
        self.recovery = Some(RecoveryState {
            cfg,
            own: ReplicaBundle::anchored(own),
            replica: ReplicaBundle::anchored(predecessor),
        });
    }

    /// Recovers this rank from the `err` that [`DynSpGemm::try_apply`],
    /// [`DynSpGemm::maybe_rebalance`] or [`DynSpGemm::enable_recovery`]
    /// returned; the error picks the role:
    ///
    /// * on `CommError::PeerFailed` this rank survived: it runs the
    ///   recovery agreement (shipping the replica bundle to the replacement
    ///   if it is the failed rank's buddy), rolls back to the grid-minimum
    ///   anchor and replays to the grid-maximum commit frontier;
    /// * on its own `CommError::Crashed` it is the replacement: it rebuilds
    ///   `*self` from the bundle its buddy ships — rebalancing policy
    ///   included — at the agreed rollback anchor and replays its own logged
    ///   batches. Nothing of the crashed session is read but its launch
    ///   parameters: the [`RecoveryConfig`], shared mode and the observer,
    ///   which re-bootstraps.
    ///
    /// Collective: every rank calls it in the same incident. Returns an
    /// allreduced [`RecoveryReport`]; the caller re-submits every batch whose
    /// publish would be epoch `>= committed_publishes`. Recovery is a caller
    /// step, not a retry inside the batch call: only the caller knows where
    /// its program resumes, and it may run collectives of its own between
    /// batches.
    ///
    /// # Panics
    /// Panics without [`DynSpGemm::enable_recovery`], and on any other
    /// error (a timeout, another rank's crash reported as this rank's).
    pub fn recover(&mut self, grid: &Grid, err: CommError) -> RecoveryReport {
        let replacement = match err {
            CommError::PeerFailed { .. } => false,
            CommError::Crashed { rank } if rank == grid.world().rank() => true,
            other => panic!("recovery handles a peer failure or this rank's crash, not: {other}"),
        };
        let mut sp = dspgemm_obs::span("engine", "recover");
        if replacement {
            sp.set_attr("replacement", 1);
        }
        // The re-anchor that ends a recovery builds this state afresh, so
        // the agreement consumes it.
        let rec = self
            .recovery
            .take()
            .expect("enable_recovery() before recover()");
        let (cfg, published) = (rec.cfg, self.snapshots.published());
        let incident = agree_on_incident(grid, (!replacement).then_some((rec, published)));
        // (6) Stand at the rollback anchor. The replacement rolled back
        // nothing it still knows about.
        self.roll_back(
            grid,
            incident.own.rollback_anchor(incident.a_min),
            replacement,
        );
        let rolled_back = if replacement {
            0
        } else {
            published - incident.a_min
        };
        let world = grid.world();
        // (7) Deterministic replay of the committed window [A, P*) from this
        // rank's own logged batches.
        let replayed_batches = incident.p_star - incident.a_min;
        self.replay(grid, incident.own.log, incident.a_min, incident.p_star);
        // (8) Uniform re-anchor at the recovered frontier's epoch — on the
        // replacement this also rebuilds the replica it should hold for its
        // predecessor, which died with the crash.
        self.publish();
        self.reanchor(grid, cfg);
        // (9) Fence, then agree on the report numbers.
        world.barrier();
        let detect_ns = world.allreduce(incident.detect_local, |a, b| a.max(b));
        let rollback_epochs = world.allreduce(rolled_back, |a, b| a.max(b));
        sp.set_attr("failed_rank", incident.failed as u64);
        sp.set_attr("replayed_batches", replayed_batches);
        // Each rank records the allreduced, grid-agreed values.
        sp.set_attr("rollback_epochs", rollback_epochs);
        sp.set_attr("detect_ns", detect_ns);
        sp.set_attr("rebuild_bytes", incident.rebuild_bytes);
        RecoveryReport {
            failed_rank: incident.failed,
            committed_publishes: incident.p_star,
            rollback_epochs,
            replayed_batches,
            rebuild_bytes: incident.rebuild_bytes,
            detect_ns,
        }
    }
}

/// The agreement fence: an allreduce no failed rank can complete, so passing
/// it proves every rank reached it. Collective.
fn fence(world: &Comm) {
    let n = world.allreduce(1u64, |x, y| x + y);
    debug_assert_eq!(n as usize, world.size(), "the fence lost a rank");
}

/// What the grid agreed on in one failure incident — the outcome of steps
/// (1)–(5) of the recovery protocol (see [`crate::recovery`]) — and the
/// rollback windows this rank recovers from.
struct Incident<V> {
    failed: usize,
    rebuild_bytes: u64,
    /// The commit frontier `P*`: the furthest published count any rank
    /// reached. The agreement fence guarantees every batch below it is
    /// logged grid-wide.
    p_star: u64,
    /// The published count of the rollback anchor `A`: the newest anchor
    /// *every* rank still holds (two-window retention covers a crash racing
    /// a refresh).
    a_min: u64,
    /// This rank's own failure-detection latency (0 on the replacement).
    detect_local: u64,
    /// This rank's anchor windows and log: a survivor's live ones, the
    /// replacement's as its buddy replicated them.
    own: ReplicaBundle<V>,
}

/// Steps (1)–(5) of the recovery protocol — the one copy of the agreement
/// sequence every rank of the grid runs in an incident, so the two roles
/// cannot drift apart. `survivor` is a surviving rank's recovery state and
/// published count; the replacement (`None`) lost both with the crash, so it
/// contributes itself as the failure, then the identities, and receives the
/// bundle its buddy ships. Collective.
fn agree_on_incident<V: Elem>(
    grid: &Grid,
    survivor: Option<(RecoveryState<V>, u64)>,
) -> Incident<V> {
    let world = grid.world();
    let (p, me) = (world.size(), world.rank());
    assert!(p <= 64, "failure agreement uses a 64-bit rank mask");
    // (1) Enter the next recovery epoch and rendezvous under it: stale
    // traffic from the interrupted batch is dropped, early traffic from
    // ranks already recovering was buffered and now matches.
    grid.advance_recovery_epoch();
    world.barrier();
    // (2) Agree on the failed set: survivors OR in the failure markers they
    // consumed, the replacement *is* the failure.
    let mine = match survivor {
        Some(_) => world
            .take_failed_ranks()
            .iter()
            .fold(0, |m, &r| m | (1u64 << r)),
        None => 1u64 << me,
    };
    let mask = world.allreduce(mine, |a, b| a | b);
    assert_eq!(
        mask.count_ones(),
        1,
        "recovery handles one failure per incident (failed mask {mask:#x})"
    );
    let failed = mask.trailing_zeros() as usize;
    assert_eq!(
        failed == me,
        survivor.is_none(),
        "the crashed rank, and only it, recovers as the replacement (rank {failed} failed)"
    );
    // (3) The failed rank's buddy ships it the replica bundle.
    let (succ, pred) = buddy_ring(world);
    let (own, published, detect_local, shipped) = match survivor {
        Some((rec, published)) => {
            let shipped = if pred == failed {
                let bytes = rec.replica.wire_bytes();
                world.send(failed, TAG_REBUILD, rec.replica);
                bytes
            } else {
                0
            };
            (rec.own, published, world.last_failure_detect_ns(), shipped)
        }
        None => (world.recv(succ, TAG_REBUILD), 0, 0, 0),
    };
    let rebuild_bytes = world.allreduce(shipped, |a, b| a + b);
    // (4) Commit frontier, (5) rollback anchor.
    let p_star = world.allreduce(published, |a, b| a.max(b));
    let a_min = world.allreduce(own.newest.published, |a, b| a.min(b));
    Incident {
        failed,
        rebuild_bytes,
        p_star,
        a_min,
        detect_local,
        own,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dspgemm_mpi::run;
    use dspgemm_sparse::dense::Dense;
    use dspgemm_sparse::semiring::{MinPlus, U64Plus};
    use dspgemm_sparse::Index;
    use dspgemm_util::rng::{Rng, SplitMix64};

    fn random_triples(seed: u64, n: Index, count: usize) -> Vec<Triple<u64>> {
        let mut rng = SplitMix64::new(seed);
        (0..count)
            .map(|_| {
                Triple::new(
                    rng.gen_range(n as u64) as Index,
                    rng.gen_range(n as u64) as Index,
                    rng.gen_range(5) + 1,
                )
            })
            .collect()
    }

    #[test]
    fn session_maintains_product_through_mixed_batches() {
        let n: Index = 24;
        let out = run(4, move |comm| {
            let grid = Grid::new(comm);
            let mut timer = PhaseTimer::new();
            let feed = |s: u64| {
                if comm.rank() == 0 {
                    random_triples(s, n, 70)
                } else {
                    vec![]
                }
            };
            let a = DistMat::from_global_triples(&grid, n, n, feed(1), 1, &mut timer);
            let b = DistMat::from_global_triples(&grid, n, n, feed(2), 1, &mut timer);
            let mut eng = DynSpGemm::<U64Plus>::new(&grid, a, b, 1, true);
            // Algebraic batch.
            eng.apply_algebraic(
                &grid,
                random_triples(10 + comm.rank() as u64, n, 8),
                random_triples(20 + comm.rank() as u64, n, 8),
            );
            // General batch: delete some of A.
            let a_cur = eng.a.gather_to_root(comm);
            let a_upd = if comm.rank() == 0 {
                let cur = a_cur.unwrap();
                let mut upd = GeneralUpdates::new();
                for t in cur.iter().step_by(5) {
                    upd.deletes.push((t.row, t.col));
                }
                upd
            } else {
                GeneralUpdates::new()
            };
            eng.apply_general(&grid, a_upd, GeneralUpdates::new());
            // Another algebraic batch on top.
            eng.apply_algebraic(&grid, random_triples(30 + comm.rank() as u64, n, 8), vec![]);
            // Invariant: C == static A'·B'.
            let (c_static, _) =
                crate::summa::summa::<U64Plus>(&grid, &eng.a, &eng.b, 1, &mut timer);
            (
                eng.c.gather_to_root(comm),
                c_static.gather_to_root(comm),
                eng.flops,
            )
        });
        let (c_dyn, c_static, flops) = &out.results[0];
        let dd = Dense::from_triples::<U64Plus>(24, 24, c_dyn.as_ref().unwrap());
        let ds = Dense::from_triples::<U64Plus>(24, 24, c_static.as_ref().unwrap());
        assert_eq!(dd.diff(&ds), vec![]);
        assert!(*flops > 0);
    }

    #[test]
    fn untracked_session_rejects_general_updates() {
        let out = run(1, |comm| {
            let grid = Grid::new(comm);
            let a = DistMat::<u64>::empty(&grid, 8, 8);
            let b = DistMat::<u64>::empty(&grid, 8, 8);
            let mut eng = DynSpGemm::<U64Plus>::new(&grid, a, b, 1, false);
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                eng.apply_general(&grid, GeneralUpdates::new(), GeneralUpdates::new());
            }))
            .is_err()
        });
        assert!(out.results[0]);
    }

    #[test]
    fn recompute_static_restores_invariant() {
        let n: Index = 16;
        let out = run(4, move |comm| {
            let grid = Grid::new(comm);
            let mut timer = PhaseTimer::new();
            let t = if comm.rank() == 0 {
                random_triples(4, n, 40)
            } else {
                vec![]
            };
            let a = DistMat::from_global_triples(&grid, n, n, t.clone(), 1, &mut timer);
            let b = DistMat::from_global_triples(&grid, n, n, t, 1, &mut timer);
            let mut eng = DynSpGemm::<U64Plus>::new(&grid, a, b, 1, false);
            let before = eng.c.gather_to_root(comm);
            eng.try_apply(&grid, Batch::Recompute).expect("fault-free");
            before == eng.c.gather_to_root(comm)
        });
        assert!(out.results.iter().all(|&x| x));
    }

    #[test]
    fn min_plus_session_with_general_updates() {
        let n: Index = 14;
        let out = run(4, move |comm| {
            let grid = Grid::new(comm);
            let mut timer = PhaseTimer::new();
            let t: Vec<Triple<f64>> = if comm.rank() == 0 {
                let mut rng = SplitMix64::new(6);
                (0..50)
                    .map(|_| {
                        Triple::new(
                            rng.gen_range(n as u64) as Index,
                            rng.gen_range(n as u64) as Index,
                            (rng.gen_range(9) + 1) as f64,
                        )
                    })
                    .collect()
            } else {
                vec![]
            };
            let a = DistMat::from_global_triples(&grid, n, n, t.clone(), 1, &mut timer);
            let b = DistMat::from_global_triples(&grid, n, n, t, 1, &mut timer);
            let mut eng = DynSpGemm::<MinPlus>::new(&grid, a, b, 1, true);
            // Increase a value (general under min-plus).
            let a_cur = eng.a.gather_to_root(comm);
            let a_upd = if comm.rank() == 0 {
                let cur = a_cur.unwrap();
                let mut upd = GeneralUpdates::new();
                if let Some(t0) = cur.first() {
                    upd.sets.push(Triple::new(t0.row, t0.col, t0.val + 100.0));
                }
                upd
            } else {
                GeneralUpdates::new()
            };
            eng.apply_general(&grid, a_upd, GeneralUpdates::new());
            let (c_static, _) =
                crate::summa::summa::<MinPlus>(&grid, &eng.a, &eng.b, 1, &mut timer);
            eng.c.gather_to_root(comm) == c_static.gather_to_root(comm)
        });
        assert!(out.results.iter().all(|&x| x));
    }
}
