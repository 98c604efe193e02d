//! Distributed matrices: a 2D-block-distributed shell around local storage.
//!
//! Every matrix in the framework is "fully distributed … each MPI process
//! stores a block of the matrix" (Section IV). [`DistMat`] is the *dynamic*
//! kind (DHB local block, supports in-place updates); [`DistDcsr`] holds
//! hypersparse static blocks (update matrices, SpGEMM intermediates). The
//! framework "requires the user to mark dynamic matrices and update matrices
//! appropriately" — in this reproduction the marking is the Rust type.

use crate::grid::{block_range, owner_block, Grid};
use crate::redistribute::redistribute;
use dspgemm_mpi::Comm;
use dspgemm_sparse::{Csr, Dcsr, DhbMatrix, Index, RowScan, Triple};
use dspgemm_util::stats::PhaseTimer;
use dspgemm_util::{WireDecode, WireSize};
use std::ops::Range;
use std::sync::Arc;

/// Bound alias for distributable element types.
pub trait Elem:
    Copy + Send + Sync + PartialEq + std::fmt::Debug + WireSize + WireDecode + 'static
{
}

impl<T> Elem for T where
    T: Copy + Send + Sync + PartialEq + std::fmt::Debug + WireSize + WireDecode + 'static
{
}

/// Shape and placement of this rank's block of a distributed matrix: the
/// uniform split of [`crate::grid::block_range`] of both dimensions, fixed
/// for the matrix's lifetime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockInfo {
    /// Global row count.
    pub nrows: Index,
    /// Global column count.
    pub ncols: Index,
    /// Global rows owned by this rank.
    pub row_range: Range<Index>,
    /// Global columns owned by this rank.
    pub col_range: Range<Index>,
}

impl BlockInfo {
    /// Computes this rank's block of an `nrows × ncols` matrix on `grid`.
    pub fn for_rank(grid: &Grid, nrows: Index, ncols: Index) -> Self {
        let (i, j) = grid.coords();
        Self {
            nrows,
            ncols,
            row_range: block_range(nrows, grid.q(), i),
            col_range: block_range(ncols, grid.q(), j),
        }
    }

    /// The world rank owning global position `(r, c)`.
    #[inline]
    pub fn owner_rank(&self, grid: &Grid, r: Index, c: Index) -> usize {
        let (bi, _) = owner_block(self.nrows, grid.q(), r);
        let (bj, _) = owner_block(self.ncols, grid.q(), c);
        grid.rank_of(bi, bj)
    }

    /// Local block height.
    #[inline]
    pub fn local_rows(&self) -> Index {
        self.row_range.end - self.row_range.start
    }

    /// Local block width.
    #[inline]
    pub fn local_cols(&self) -> Index {
        self.col_range.end - self.col_range.start
    }

    /// Converts a global coordinate (must lie in this block) to block-local.
    #[inline]
    pub fn to_local(&self, r: Index, c: Index) -> (Index, Index) {
        debug_assert!(self.row_range.contains(&r) && self.col_range.contains(&c));
        (r - self.row_range.start, c - self.col_range.start)
    }

    /// Converts a block-local coordinate to global.
    #[inline]
    pub fn to_global(&self, lr: Index, lc: Index) -> (Index, Index) {
        (lr + self.row_range.start, lc + self.col_range.start)
    }
}

/// Where a rank's published CSR image stands relative to its DHB block.
#[derive(Debug, Clone)]
enum ImageState<V> {
    /// No image the next publish could start from: none was built yet, a
    /// mutation recorded no pattern, or the touched log outgrew its bound
    /// (`logged` is the length it reached; 0 otherwise). The next publish
    /// converts the whole block.
    Stale { logged: usize },
    /// The image equals the block.
    Current(Arc<Csr<V>>),
    /// `base` equalled the block before the mutations whose coordinates
    /// `touched` holds: one row-major run per recorded mutation, appended
    /// in order (so sorted only while there is a single run).
    Patchable {
        base: Arc<Csr<V>>,
        touched: Vec<(Index, Index)>,
    },
}

/// Which way [`DistMat::publish_image`] obtained the image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ImagePath {
    /// Block unchanged: the previous image re-shared (`Arc::ptr_eq`).
    Shared,
    /// Previous image ⊕ touched pattern, see [`DhbMatrix::patch_csr`].
    Patched,
    /// Full conversion of the block ([`DhbMatrix::to_csr`]).
    Rebuilt,
}

/// What one [`DistMat::publish_image`] call did — the per-operand
/// attributes of the `epoch_publish` trace instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ImageBuild {
    /// The path taken.
    pub path: ImagePath,
    /// Coordinates logged since the previous image. On a
    /// [`ImagePath::Rebuilt`] publish: the length at which the log
    /// overflowed, 0 when a mutation without a pattern forced the rebuild.
    pub touched_nnz: usize,
    /// Entries of the published image.
    pub image_nnz: usize,
}

/// A dynamic distributed matrix: DHB blocks on a 2D grid.
///
/// Alongside the mutable DHB block the matrix keeps the shared CSR image of
/// the block it last published, for the snapshot layer. An unchanged block
/// re-shares that image into the next epoch by a refcount increment; a
/// mutation through [`DistMat::block_mut_touching`] demotes it to the *base*
/// of a patch and logs the touched coordinates, so the next
/// [`DistMat::publish_image`] costs one copy of the base plus a lookup per
/// touched entry; a mutation through [`DistMat::block_mut`] drops it and the
/// next publish converts the whole block (see [`crate::snapshot`]).
#[derive(Debug, Clone)]
pub struct DistMat<V> {
    info: BlockInfo,
    block: DhbMatrix<V>,
    image: ImageState<V>,
}

impl<V: Elem> DistMat<V> {
    /// An empty dynamic matrix of global shape `nrows × ncols`.
    pub fn empty(grid: &Grid, nrows: Index, ncols: Index) -> Self {
        let info = BlockInfo::for_rank(grid, nrows, ncols);
        let block = DhbMatrix::new(info.local_rows(), info.local_cols());
        Self {
            info,
            block,
            image: ImageState::Stale { logged: 0 },
        }
    }

    /// Builds from rank-local triples with **global** indices: redistributes
    /// them to their owners (two-phase counting-sort alltoall) and inserts
    /// them into the local dynamic block. Duplicate coordinates keep the
    /// last value, matching "insert" semantics. Collective over the grid.
    ///
    /// Adapter-frozen: `threads` must be 1; `benchmark/src/api.rs` passes it
    /// until the benchmark PR drops it (DESIGN.md, "One worker per rank").
    ///
    /// # Panics
    /// Panics if `threads != 1`.
    pub fn from_global_triples(
        grid: &Grid,
        nrows: Index,
        ncols: Index,
        triples: Vec<Triple<V>>,
        threads: usize,
        timer: &mut PhaseTimer,
    ) -> Self {
        assert_eq!(
            threads, 1,
            "intra-rank threads are retired (DESIGN.md, \"One worker per rank\")"
        );
        let mut mat = Self::empty(grid, nrows, ncols);
        mat.insert_global_triples(grid, triples, timer);
        mat
    }

    /// Redistributes globally-indexed triples and inserts them (last write
    /// wins). Collective over the grid.
    pub fn insert_global_triples(
        &mut self,
        grid: &Grid,
        triples: Vec<Triple<V>>,
        timer: &mut PhaseTimer,
    ) {
        let (nrows, ncols) = (self.info.nrows, self.info.ncols);
        let mine = redistribute(grid, nrows, ncols, triples, timer);
        let local = timer.time(crate::redistribute::phase::LOCAL_CONSTRUCT, || {
            self.to_local_triples(mine)
        });
        if local.is_empty() {
            return;
        }
        self.image = ImageState::Stale { logged: 0 };
        timer.time(crate::redistribute::phase::LOCAL_ADDITION, || {
            crate::update::apply_local_triples_set(&mut self.block, local);
        });
    }

    fn to_local_triples(&self, global: Vec<Triple<V>>) -> Vec<Triple<V>> {
        global
            .into_iter()
            .map(|t| {
                let (lr, lc) = self.info.to_local(t.row, t.col);
                Triple::new(lr, lc, t.val)
            })
            .collect()
    }

    /// Block placement info.
    #[inline]
    pub fn info(&self) -> &BlockInfo {
        &self.info
    }

    /// The local dynamic block (block-local indices).
    #[inline]
    pub fn block(&self) -> &DhbMatrix<V> {
        &self.block
    }

    /// Mutable access to the local block for a mutation of unknown extent
    /// (initial fills, external callers). Drops the published image and any
    /// pending patch: the next [`DistMat::publish_image`] converts the whole
    /// block. Callers that hold the mutation's pattern use
    /// [`DistMat::block_mut_touching`]; callers that can prove a batch
    /// leaves the block untouched (empty update block) skip the call
    /// instead, which keeps the image shared across epochs.
    #[inline]
    pub fn block_mut(&mut self) -> &mut DhbMatrix<V> {
        self.image = ImageState::Stale { logged: 0 };
        &mut self.block
    }

    /// Mutable access to the local block for a mutation confined to the
    /// stored coordinates of `pattern` (block-local, any value type): the
    /// update block of an apply operator, or the `C*` that drives a product
    /// patch. A current image becomes the base of a patch and the pattern's
    /// coordinates join the touched log, so the next
    /// [`DistMat::publish_image`] rebuilds only what they name. Entries the
    /// caller changes outside `pattern` would keep their old value in every
    /// later image.
    ///
    /// Once the log outgrows half the base's entries a patch no longer beats
    /// the full conversion: base and log are dropped, and nothing more is
    /// logged until the next publish.
    pub fn block_mut_touching<W: Copy>(&mut self, pattern: &Dcsr<W>) -> &mut DhbMatrix<V> {
        debug_assert_eq!(
            (pattern.nrows(), pattern.ncols()),
            (self.block.nrows(), self.block.ncols()),
            "pattern shape does not match the local block"
        );
        if let ImageState::Current(base) = &self.image {
            self.image = ImageState::Patchable {
                base: Arc::clone(base),
                touched: Vec::new(),
            };
        }
        if let ImageState::Patchable { base, touched } = &mut self.image {
            let logged = touched.len() + pattern.nnz();
            if logged > base.nnz() / 2 {
                self.image = ImageState::Stale { logged };
            } else {
                touched.reserve(pattern.nnz());
                for (r, cols, _) in pattern.iter_rows() {
                    touched.extend(cols.iter().map(|&c| (r, c)));
                }
            }
        }
        &mut self.block
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

    /// Reads a single global entry (local lookup; returns `None` when the
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
    /// broadcasts the result, so every rank returns the same value — the
    /// SPMD point-lookup `c(u, v)` of the analytics query API. One
    /// `O(log p)`-round broadcast of a single element. Collective over the
    /// grid; all ranks must pass the same coordinate.
    pub fn get_collective(&self, grid: &Grid, r: Index, c: Index) -> Option<V> {
        let owner = self.info.owner_rank(grid, r, c);
        let mine = if grid.world().rank() == owner {
            Some(self.get_local(r, c).expect("owner rank holds the block"))
        } else {
            None
        };
        grid.world().bcast(owner, mine)
    }

    /// Snapshot of the local block as a column-sorted CSR (used by SUMMA
    /// broadcasts).
    pub fn block_csr(&self) -> Csr<V> {
        self.block.to_csr()
    }

    /// Shared snapshot of the local block as a CSR, ready for the zero-copy
    /// broadcast rounds: the conversion allocates once, then every round
    /// moves the same `Arc` (one refcount increment per receiver instead of
    /// a deep clone per round).
    pub fn block_csr_shared(&self) -> Arc<Csr<V>> {
        match &self.image {
            ImageState::Current(image) => Arc::clone(image),
            _ => Arc::new(self.block.to_csr()),
        }
    }

    /// The shared CSR image of the local block for epoch publishing, and
    /// how it was obtained — the copy-on-write primitive behind
    /// [`crate::snapshot`]. An unchanged block re-shares the previous
    /// epoch's `Arc`; a block mutated through
    /// [`DistMat::block_mut_touching`] gets a fresh image patched from the
    /// previous one; anything else is converted in full. A published image
    /// is never written again: both rebuilding paths allocate a new,
    /// exactly-sized one.
    pub fn publish_image(&mut self) -> (Arc<Csr<V>>, ImageBuild) {
        let stale = ImageState::Stale { logged: 0 };
        let (image, path, touched_nnz) = match std::mem::replace(&mut self.image, stale) {
            ImageState::Current(image) => (image, ImagePath::Shared, 0),
            ImageState::Patchable { base, mut touched } => {
                if !touched.is_sorted() {
                    touched.sort_unstable();
                }
                touched.dedup();
                let image = self.block.patch_csr(&base, &touched);
                debug_assert!(
                    image == self.block.to_csr(),
                    "patched image diverged from the block: a mutation went unlogged"
                );
                (Arc::new(image), ImagePath::Patched, touched.len())
            }
            ImageState::Stale { logged } => {
                (Arc::new(self.block.to_csr()), ImagePath::Rebuilt, logged)
            }
        };
        let build = ImageBuild {
            path,
            touched_nnz,
            image_nnz: image.nnz(),
        };
        self.image = ImageState::Current(Arc::clone(&image));
        (image, build)
    }

    /// [`DistMat::publish_image`] without the build record.
    pub fn snapshot_csr(&mut self) -> Arc<Csr<V>> {
        self.publish_image().0
    }

    /// Whether the published image is current (i.e. the block was not
    /// mutated since the last [`DistMat::publish_image`]) — COW diagnostics
    /// for tests.
    #[inline]
    pub fn snapshot_cached(&self) -> bool {
        matches!(self.image, ImageState::Current(_))
    }

    /// Restores the local block from a previously published snapshot image
    /// — the rollback primitive of epoch-anchored recovery. Each dynamic
    /// row is filled straight from the image's column-sorted CSR row, and
    /// the image `Arc` itself becomes the current image, so the first
    /// post-rollback publish re-shares the anchor's image by refcount
    /// increment (no rebuild, bit-identical to the pinned epoch). Pinned
    /// snapshots of rolled-back epochs are untouched: only the working block
    /// is replaced.
    ///
    /// # Panics
    /// Panics if the image shape does not match this rank's block shape —
    /// recovery builds the matrix at the image's own global shape, so a
    /// mismatch is a protocol bug.
    pub fn restore_image(&mut self, image: Arc<Csr<V>>) {
        assert_eq!(
            (image.nrows(), image.ncols()),
            (self.info.local_rows(), self.info.local_cols()),
            "restore_image: anchor image shape does not match the local block"
        );
        let mut block = DhbMatrix::new(self.info.local_rows(), self.info.local_cols());
        image.scan_rows(|r, cols, vals| block.update_row(r, |row| row.fill_sorted(cols, vals)));
        self.block = block;
        self.image = ImageState::Current(image);
    }

    /// Local entries as globally-indexed triples (row-major).
    pub fn to_global_triples(&self) -> Vec<Triple<V>> {
        self.block
            .to_sorted_triples()
            .into_iter()
            .map(|t| {
                let (r, c) = self.info.to_global(t.row, t.col);
                Triple::new(r, c, t.val)
            })
            .collect()
    }

    /// Gathers the whole matrix to world rank 0 as sorted global triples
    /// (testing/diagnostics; collective over the grid).
    pub fn gather_to_root(&self, comm: &Comm) -> Option<Vec<Triple<V>>> {
        let mine = self.to_global_triples();
        comm.gather(0, mine).map(|parts| {
            let mut all: Vec<Triple<V>> = parts.into_iter().flatten().collect();
            dspgemm_sparse::triple::sort_row_major(&mut all);
            all
        })
    }
}

/// A distributed hypersparse matrix: DCSR blocks on the grid. This is the
/// type of update matrices `A*`, `B*` after redistribution.
///
/// The block is held in an `Arc`: update matrices are immutable after
/// redistribution, so a clone shares the block instead of copying it.
#[derive(Debug, Clone)]
pub struct DistDcsr<V> {
    info: BlockInfo,
    block: Arc<Dcsr<V>>,
}

impl<V: Elem> DistDcsr<V> {
    /// Wraps an already-local block of an `nrows × ncols` matrix (must
    /// match the rank's block shape).
    pub fn from_block(grid: &Grid, nrows: Index, ncols: Index, block: Dcsr<V>) -> Self {
        let info = BlockInfo::for_rank(grid, nrows, ncols);
        assert_eq!(block.nrows(), info.local_rows(), "block shape mismatch");
        assert_eq!(block.ncols(), info.local_cols(), "block shape mismatch");
        Self {
            info,
            block: Arc::new(block),
        }
    }

    /// Block placement info.
    #[inline]
    pub fn info(&self) -> &BlockInfo {
        &self.info
    }

    /// The local hypersparse block.
    #[inline]
    pub fn block(&self) -> &Dcsr<V> {
        &self.block
    }

    /// Local non-zero count.
    #[inline]
    pub fn local_nnz(&self) -> usize {
        self.block.nnz()
    }

    /// Global non-zero count (collective).
    pub fn global_nnz(&self, grid: &Grid) -> u64 {
        grid.world()
            .allreduce(self.block.nnz() as u64, |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dspgemm_mpi::run;
    use dspgemm_util::rng::{Rng, SplitMix64};

    #[test]
    fn block_info_partitions_square() {
        let out = run(4, |comm| {
            let grid = Grid::new(comm);
            let info = BlockInfo::for_rank(&grid, 10, 7);
            (info.row_range.clone(), info.col_range.clone())
        });
        assert_eq!(out.results[0], (0..5, 0..4));
        assert_eq!(out.results[1], (0..5, 4..7));
        assert_eq!(out.results[2], (5..10, 0..4));
        assert_eq!(out.results[3], (5..10, 4..7));
    }

    #[test]
    fn local_global_roundtrip() {
        let out = run(4, |comm| {
            let grid = Grid::new(comm);
            let info = BlockInfo::for_rank(&grid, 100, 100);
            for r in info.row_range.clone().step_by(13) {
                for c in info.col_range.clone().step_by(17) {
                    let (lr, lc) = info.to_local(r, c);
                    assert_eq!(info.to_global(lr, lc), (r, c));
                }
            }
            true
        });
        assert!(out.results.iter().all(|&x| x));
    }

    #[test]
    fn construction_from_global_triples_and_gather() {
        let n: Index = 50;
        for p in [1usize, 4, 9] {
            let out = run(p, move |comm| {
                let grid = Grid::new(comm);
                let mut rng = SplitMix64::new(77 + comm.rank() as u64);
                // Rank-local random triples with globally unique coordinates
                // per rank stripe.
                let mine: Vec<Triple<u64>> = (0..200)
                    .map(|_| {
                        let r = rng.gen_range(n as u64) as Index;
                        let c = rng.gen_range(n as u64) as Index;
                        Triple::new(r, c, (r * n + c) as u64)
                    })
                    .collect();
                let mut timer = PhaseTimer::new();
                let mat = DistMat::from_global_triples(&grid, n, n, mine.clone(), 1, &mut timer);
                // Every local entry value encodes its global coordinate.
                for t in mat.to_global_triples() {
                    assert_eq!(t.val, (t.row * n + t.col) as u64);
                }
                let gathered = mat.gather_to_root(comm);
                (mine, gathered, mat.global_nnz(&grid))
            });
            // Root's gathered set equals the union of inputs (dedup by coord).
            let mut expect: Vec<(Index, Index)> = out
                .results
                .iter()
                .flat_map(|(mine, _, _)| mine.iter().map(|t| (t.row, t.col)))
                .collect();
            expect.sort_unstable();
            expect.dedup();
            let gathered = out.results[0].1.as_ref().unwrap();
            let got: Vec<(Index, Index)> = gathered.iter().map(|t| (t.row, t.col)).collect();
            assert_eq!(got, expect, "p={p}");
            assert_eq!(out.results[0].2, expect.len() as u64);
        }
    }

    #[test]
    fn restore_image_round_trips_a_published_image() {
        let n: Index = 40;
        let out = run(4, move |comm| {
            let grid = Grid::new(comm);
            let mut rng = SplitMix64::new(5 + comm.rank() as u64);
            let mine: Vec<Triple<u64>> = (0..300)
                .map(|_| {
                    let (r, c) = (rng.gen_range(n as u64), rng.gen_range(n as u64));
                    Triple::new(r as Index, c as Index, rng.next_u64())
                })
                .collect();
            let mut mat =
                DistMat::from_global_triples(&grid, n, n, mine, 1, &mut PhaseTimer::new());
            // Removals swap entries out of column order inside the DHB rows.
            for t in mat.block().to_sorted_triples().iter().step_by(3) {
                mat.block_mut().remove(t.row, t.col);
            }
            let (image, _) = mat.publish_image();
            let (triples, nnz) = (mat.block().to_sorted_triples(), mat.local_nnz());
            // Drift away from the image, then roll back to it.
            mat.block_mut().set(0, 0, 7);
            mat.restore_image(Arc::clone(&image));
            assert_eq!(mat.block().to_sorted_triples(), triples);
            assert_eq!(mat.local_nnz(), nnz);
            assert!(mat.snapshot_cached());
            let (again, build) = mat.publish_image();
            assert_eq!(build.path, ImagePath::Shared);
            assert!(Arc::ptr_eq(&again, &image));
            nnz
        });
        assert!(out.results.iter().all(|&nnz| nnz > 0));
    }

    #[test]
    fn dist_dcsr_shape_checked() {
        let out = run(4, |comm| {
            let grid = Grid::new(comm);
            let info = BlockInfo::for_rank(&grid, 9, 9);
            let block = Dcsr::empty(info.local_rows(), info.local_cols());
            let d = DistDcsr::<u64>::from_block(&grid, 9, 9, block);
            (d.info().local_rows(), d.info().local_cols(), d.local_nnz())
        });
        // 9 split as 5+4.
        assert_eq!(out.results[0].0, 5);
        assert_eq!(out.results[3].0, 4);
        assert!(out.results.iter().all(|r| r.2 == 0));
    }
}
