//! Epoch-versioned snapshots: immutable published matrix state.
//!
//! The engine alternates update batches with dynamic SpGEMM recomputation,
//! but a serving system cannot stall every analytics query while a batch
//! drains. This module removes the last mutable-shared-state coupling
//! between the update path and the query path:
//!
//! * the engine's `A` and `C` stay **private working copies** that the
//!   `apply_*` paths mutate freely;
//! * after committed batches the engine *publishes* an immutable
//!   [`Snapshot`] — `{A, C, epoch}` with each local block behind an
//!   `Arc<Csr>` handle, plus whatever a shared-mode session's observer
//!   freezes beside it. Epochs number *publishes*, not batches: a caller
//!   publishes explicitly or lazily on
//!   [`snapshot()`](crate::engine::DynSpGemm::snapshot) (several batches
//!   may fold into one epoch);
//! * readers *pin* an epoch by cloning the `Arc`. A pinned snapshot never
//!   changes: queries against epoch `e` are bit-identical to the state at
//!   its publish time no matter how many batches commit concurrently.
//!
//! ## Copy-on-write: re-shared blocks, patched images
//!
//! Publishing never deep-copies a matrix and never writes to an image it
//! handed out. [`DistMat`] keeps the image it last published next to its
//! DHB block, and a publish takes one of three paths
//! ([`ImagePath`](crate::distmat::ImagePath)):
//!
//! * **shared** — the block was not mutated: the previous epoch's `Arc` is
//!   re-shared by a refcount increment ([`Arc::ptr_eq`] across consecutive
//!   epochs — the property the snapshot tests assert). On a 2D grid a batch
//!   that routes no tuples to a rank leaves that rank's operand block shared
//!   across epochs.
//! * **patched** — every mutation since went through
//!   [`DistMat::block_mut_touching`], which logs the coordinates of the
//!   `Dcsr` that drives it (the update block of an apply operator, the
//!   `C*` of Algorithms 1 and 2). The new
//!   image is *base ⊕ touched pattern*: one streaming pass over the
//!   previous image in which untouched rows are copied in bulk, a touched
//!   row is merged with its touched columns, and only those columns are
//!   looked up in the DHB row — present means emit the live value, absent
//!   means the entry was deleted
//!   ([`DhbMatrix::patch_csr`](dspgemm_sparse::DhbMatrix::patch_csr)). Add,
//!   merge, mask and masked replace all follow from that one rule; the DHB
//!   block stays the single source of truth, no arithmetic is repeated and
//!   nothing is sorted, so a commit costs a copy of the image plus work
//!   proportional to the batch.
//! * **rebuilt** — a full conversion
//!   ([`DhbMatrix::to_csr`](dspgemm_sparse::DhbMatrix::to_csr)): the first
//!   publish, any mutation through the pattern-less
//!   [`DistMat::block_mut`] (initial SUMMA fill, migration, external
//!   callers), and a touched log that
//!   outgrew **half the base's entries** — a fixed rule, past which the
//!   merge stops beating the conversion. Base and log are dropped at that
//!   moment, so a session that never publishes logs nothing after its first
//!   batches and holds no extra memory.
//!
//! Both rebuilding paths allocate a fresh, exactly-sized image; pinned
//! epochs keep theirs bit for bit. In debug builds every patched image is
//! compared against the full conversion. The `epoch_publish` trace instant
//! records the path, the log length and the image size per operand.
//!
//! ## Retention
//!
//! [`SnapshotStore`] keeps one strong handle (the latest epoch) plus weak
//! handles to every epoch ever published. Old epochs therefore live exactly
//! as long as some reader pins them: drop the last pin and the epoch's
//! unshared blocks are freed immediately. [`SnapshotStore::retained`] and
//! [`Snapshot::heap_bytes`] feed the memory-bound regression test.

use crate::distmat::{BlockInfo, DistMat, Elem, ImageBuild};
use crate::grid::Grid;
use dspgemm_mpi::Comm;
use dspgemm_sparse::{Csr, Index, Triple};
use std::sync::{Arc, Weak};

/// One rank's immutable block of a published distributed matrix.
///
/// The block is a column-sorted CSR behind an `Arc`: cloning a
/// `SnapshotMat` (or the [`Snapshot`] holding it) is a refcount increment,
/// never a copy of the data. All read methods mirror the live
/// [`DistMat`] query surface so callers can move
/// from live reads to pinned reads without changing result types.
#[derive(Debug, Clone)]
pub struct SnapshotMat<V> {
    info: BlockInfo,
    block: Arc<Csr<V>>,
}

impl<V: Elem> SnapshotMat<V> {
    /// Wraps a published block (shape must match the placement info).
    pub fn new(info: BlockInfo, block: Arc<Csr<V>>) -> Self {
        assert_eq!(block.nrows(), info.local_rows(), "block shape mismatch");
        assert_eq!(block.ncols(), info.local_cols(), "block shape mismatch");
        Self { info, block }
    }

    /// Publishes `mat`'s current block ([`DistMat::publish_image`]) under
    /// its current placement; also returns how the image was built.
    pub fn publish(mat: &mut DistMat<V>) -> (Self, ImageBuild) {
        let (block, build) = mat.publish_image();
        (Self::new(mat.info().clone(), block), build)
    }

    /// Block placement info.
    #[inline]
    pub fn info(&self) -> &BlockInfo {
        &self.info
    }

    /// The immutable local block.
    #[inline]
    pub fn block(&self) -> &Csr<V> {
        &self.block
    }

    /// The shared block handle (for `Arc::ptr_eq` sharing checks and
    /// zero-copy hand-off to collectives).
    #[inline]
    pub fn block_shared(&self) -> Arc<Csr<V>> {
        Arc::clone(&self.block)
    }

    /// Local non-zero count.
    #[inline]
    pub fn local_nnz(&self) -> usize {
        self.block.nnz()
    }

    /// Global non-zero count (allreduce; collective over the grid).
    pub fn global_nnz(&self, grid: &Grid) -> u64 {
        grid.world()
            .allreduce(self.block.nnz() as u64, |a, b| a + b)
    }

    /// Reads a single global entry (local lookup; `None` when the
    /// coordinate belongs to another rank's block).
    pub fn get_local(&self, r: Index, c: Index) -> Option<Option<V>> {
        if self.info.row_range.contains(&r) && self.info.col_range.contains(&c) {
            let (lr, lc) = self.info.to_local(r, c);
            Some(self.block.get(lr, lc))
        } else {
            None
        }
    }

    /// Reads a single global entry from whichever rank owns it and
    /// broadcasts the result — the pinned-epoch point lookup. Collective;
    /// all ranks must hold the same epoch and pass the same coordinate.
    pub fn get_collective(&self, grid: &Grid, r: Index, c: Index) -> Option<V> {
        let owner = self.info.owner_rank(grid, r, c);
        let mine = if grid.world().rank() == owner {
            Some(self.get_local(r, c).expect("owner rank holds the block"))
        } else {
            None
        };
        grid.world().bcast(owner, mine)
    }

    /// This rank's entries of global row `u`, globally indexed (empty when
    /// the row lives on another grid row). Local; feed into a merge
    /// collective for the full row.
    pub fn row_local(&self, u: Index) -> Vec<(Index, V)> {
        if !self.info.row_range.contains(&u) {
            return Vec::new();
        }
        let lr = u - self.info.row_range.start;
        let (cols, vals) = self.block.row(lr);
        cols.iter()
            .zip(vals)
            .map(|(&lc, &v)| (lc + self.info.col_range.start, v))
            .collect()
    }

    /// The `k` heaviest entries of global row `u` under `score` (greater is
    /// better; ties broken by column). One zero-copy allgather merge; every
    /// rank returns the same list. `score` must be a pure function agreed on
    /// all ranks. Collective.
    pub fn row_topk(
        &self,
        grid: &Grid,
        u: Index,
        k: usize,
        score: impl Fn(&V) -> f64,
    ) -> Vec<(Index, V)> {
        let mine = self.row_local(u);
        let mut all: Vec<(Index, V)> = grid
            .world()
            .allgather_shared(Arc::new(mine))
            .iter()
            .flat_map(|part| part.iter().copied())
            .collect();
        all.sort_unstable_by(|(ca, va), (cb, vb)| {
            score(vb)
                .partial_cmp(&score(va))
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(ca.cmp(cb))
        });
        all.truncate(k);
        all
    }

    /// Folds every local entry (global coordinates) into `init` and
    /// allreduces the per-rank folds with `combine`. Every rank returns the
    /// total. Collective.
    pub fn aggregate<T>(
        &self,
        grid: &Grid,
        init: T,
        mut fold: impl FnMut(T, Index, Index, V) -> T,
        combine: impl FnMut(T, T) -> T,
    ) -> T
    where
        T: Clone + Send + dspgemm_util::WireSize + dspgemm_util::WireDecode + 'static,
    {
        let mut acc = init;
        for lr in 0..self.block.nrows() {
            let (cols, vals) = self.block.row(lr);
            for (&lc, &v) in cols.iter().zip(vals) {
                let (gr, gc) = self.info.to_global(lr, lc);
                acc = fold(acc, gr, gc, v);
            }
        }
        grid.world().allreduce(acc, combine)
    }

    /// Local entries as globally-indexed triples (row-major).
    pub fn to_global_triples(&self) -> Vec<Triple<V>> {
        self.block
            .to_triples()
            .into_iter()
            .map(|t| {
                let (r, c) = self.info.to_global(t.row, t.col);
                Triple::new(r, c, t.val)
            })
            .collect()
    }

    /// Gathers the whole published matrix to world rank 0 as sorted global
    /// triples (testing/diagnostics; collective over the grid).
    pub fn gather_to_root(&self, comm: &Comm) -> Option<Vec<Triple<V>>> {
        let mine = self.to_global_triples();
        comm.gather(0, mine).map(|parts| {
            let mut all: Vec<Triple<V>> = parts.into_iter().flatten().collect();
            dspgemm_sparse::triple::sort_row_major(&mut all);
            all
        })
    }

    /// Heap bytes of the underlying block. Blocks shared with another epoch
    /// count here too — use [`Snapshot::heap_bytes_unshared`] for
    /// deduplicated accounting across epochs.
    pub fn heap_bytes(&self) -> usize {
        self.block.heap_bytes()
    }

    /// Raw pointer identity of the shared block (COW sharing diagnostics).
    pub fn block_ptr(&self) -> *const Csr<V> {
        Arc::as_ptr(&self.block)
    }
}

/// One published epoch: the operand `A`, the maintained product `C`, and
/// the epoch number. Immutable; clone (refcount) to pin.
#[derive(Debug, Clone)]
pub struct Snapshot<V> {
    epoch: u64,
    a: SnapshotMat<V>,
    c: SnapshotMat<V>,
}

impl<V: Elem> Snapshot<V> {
    /// Assembles a published epoch.
    pub fn new(epoch: u64, a: SnapshotMat<V>, c: SnapshotMat<V>) -> Self {
        Self { epoch, a, c }
    }

    /// The epoch number: epoch `e` is the state after the `e`-th publish
    /// (epoch 0 is the initial product).
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The published operand matrix `A`.
    #[inline]
    pub fn a(&self) -> &SnapshotMat<V> {
        &self.a
    }

    /// The published product matrix `C`.
    #[inline]
    pub fn c(&self) -> &SnapshotMat<V> {
        &self.c
    }

    /// Point lookup `c(u, v)` at this epoch. Collective; all ranks must
    /// hold the same epoch and pass the same coordinate.
    pub fn product_entry(&self, grid: &Grid, u: Index, v: Index) -> Option<V> {
        self.c.get_collective(grid, u, v)
    }

    /// The `k` heaviest entries of product row `u` at this epoch
    /// ([`SnapshotMat::row_topk`]). Collective.
    pub fn product_row_topk(
        &self,
        grid: &Grid,
        u: Index,
        k: usize,
        score: impl Fn(&V) -> f64,
    ) -> Vec<(Index, V)> {
        self.c.row_topk(grid, u, k, score)
    }

    /// Global non-zero counts `(nnz(A), nnz(C))` at this epoch. Collective.
    pub fn global_nnz(&self, grid: &Grid) -> (u64, u64) {
        (self.a.global_nnz(grid), self.c.global_nnz(grid))
    }

    /// Heap bytes of this epoch's blocks, counting blocks shared with other
    /// epochs in full.
    pub fn heap_bytes(&self) -> usize {
        self.a.heap_bytes() + self.c.heap_bytes()
    }

    /// Heap bytes of this epoch's blocks, skipping any block whose pointer
    /// appears in `seen` (and recording the ones counted) — so summing over
    /// live epochs charges each COW-shared block once.
    pub fn heap_bytes_unshared(&self, seen: &mut Vec<*const ()>) -> usize {
        let mut total = 0;
        for ptr_bytes in [
            (self.a.block_ptr() as *const (), self.a.heap_bytes()),
            (self.c.block_ptr() as *const (), self.c.heap_bytes()),
        ] {
            if !seen.contains(&ptr_bytes.0) {
                seen.push(ptr_bytes.0);
                total += ptr_bytes.1;
            }
        }
        total
    }
}

/// The per-rank registry of published epochs: one strong handle to the
/// latest, weak handles to everything older — old epochs are dropped the
/// moment their last reader pin goes away.
#[derive(Debug)]
pub struct SnapshotStore<T> {
    latest: Option<Arc<T>>,
    history: Vec<Weak<T>>,
    published: u64,
}

impl<T> Default for SnapshotStore<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> SnapshotStore<T> {
    /// An empty store (no epoch published yet).
    pub fn new() -> Self {
        Self {
            latest: None,
            history: Vec::new(),
            published: 0,
        }
    }

    /// Number of epochs ever published (the next epoch number).
    #[inline]
    pub fn published(&self) -> u64 {
        self.published
    }

    /// Publishes the next epoch: the closure receives the epoch number that
    /// the payload must carry. The previous epoch is demoted to a weak
    /// handle (it stays alive only while some reader pins it); dead history
    /// entries are pruned so the store's own footprint stays bounded.
    pub fn publish_with(&mut self, build: impl FnOnce(u64) -> T) -> Arc<T> {
        let snap = Arc::new(build(self.published));
        self.published += 1;
        self.history.retain(|w| w.strong_count() > 0);
        self.history.push(Arc::downgrade(&snap));
        self.latest = Some(Arc::clone(&snap));
        snap
    }

    /// The latest published epoch (`None` before the first publish).
    #[inline]
    pub fn latest(&self) -> Option<&Arc<T>> {
        self.latest.as_ref()
    }

    /// Fast-forwards a *fresh* store's publish counter to `published`, so
    /// a replacement rank rebuilt from a recovery anchor numbers its
    /// replayed epochs exactly like the epochs the crashed rank published.
    /// (Pre-crash pins died with the crashed rank; its history starts
    /// empty.)
    ///
    /// # Panics
    /// Panics if the store has already published anything.
    pub fn resume_at(&mut self, published: u64) {
        assert!(
            self.latest.is_none() && self.published == 0 && self.history.is_empty(),
            "resume_at requires a fresh store"
        );
        self.published = published;
    }

    /// Number of epochs still alive: the latest plus every older epoch some
    /// reader still pins. The retention bound: with no outstanding pins this
    /// is at most 1 regardless of how many epochs were published.
    pub fn retained(&self) -> usize {
        self.history.iter().filter(|w| w.strong_count() > 0).count()
    }

    /// Strong handles to every live epoch, oldest first (memory accounting
    /// and diagnostics).
    pub fn live(&self) -> Vec<Arc<T>> {
        self.history.iter().filter_map(Weak::upgrade).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_retains_only_pinned_epochs() {
        let mut store: SnapshotStore<u64> = SnapshotStore::new();
        assert_eq!(store.retained(), 0);
        assert!(store.latest().is_none());

        let e0 = store.publish_with(|e| e);
        assert_eq!(*e0, 0);
        let pin0 = Arc::clone(store.latest().unwrap());
        for _ in 0..10 {
            store.publish_with(|e| e);
        }
        // Latest plus the explicit pins of epoch 0 (e0 and pin0).
        assert_eq!(store.published(), 11);
        assert_eq!(store.retained(), 2);
        assert_eq!(*store.latest().unwrap().as_ref(), 10);
        drop(pin0);
        drop(e0);
        // Unpinned: every intermediate epoch is gone, only the latest lives.
        assert_eq!(store.retained(), 1);
        assert_eq!(store.live().len(), 1);
    }

    #[test]
    fn history_is_pruned_on_publish() {
        let mut store: SnapshotStore<u64> = SnapshotStore::new();
        for _ in 0..100 {
            store.publish_with(|e| e);
        }
        // Dead weak handles are pruned as new epochs arrive: the history
        // cannot grow with the number of published epochs.
        assert!(store.history.len() <= 2);
    }
}
