//! CTF-like baseline: cyclic element layout with whole-tensor re-shuffles.
//!
//! Cyclops Tensor Framework distributes tensor elements cyclically over the
//! processor grid and, on sparse writes, **re-distributes the entire tensor**
//! into a fresh layout (its `write()` path sorts and shuffles all data).
//! That is the architectural reason the paper measures CTF "at least 55.15×
//! slower" on insertions: per batch it pays `O(nnz(A)/p)` communication and
//! a comparison sort of the whole local data, regardless of batch size.
//!
//! A write either accumulates (`insert`) or overwrites (`update`). An
//! overwrite cannot fold into the re-shuffle alone — the stored entry and
//! the new value arrive at the new owner from different ranks — so it first
//! routes the batch as a kill-list, then writes.
//!
//! SpGEMM first redistributes both operands into a blocked layout suitable
//! for SUMMA (another full-operand shuffle), then runs SUMMA — modelled here
//! by converting to [`crate::combblas::CombBlasMatrix`] via the global
//! redistribution and reusing the SUMMA baseline.

use crate::combblas::CombBlasMatrix;
use crate::{Competitor, Deletes};
use dspgemm_core::distmat::Elem;
use dspgemm_core::grid::Grid;
use dspgemm_sparse::semiring::Semiring;
use dspgemm_sparse::{Index, Triple};

/// A CTF-like distributed sparse matrix: elements stored cyclically.
///
/// The layout carries an *epoch*: CTF chooses a fresh mapping per write and
/// migrates all data into it, so every write epoch shifts the cyclic
/// assignment — that migration is precisely the cost the paper measures.
#[derive(Debug, Clone)]
pub struct CtfMatrix<V> {
    /// Global shape.
    pub nrows: Index,
    /// Global shape.
    pub ncols: Index,
    /// Current layout epoch (bumped by every write).
    epoch: u64,
    /// This rank's cyclically-assigned elements (globally indexed, sorted).
    elems: Vec<Triple<V>>,
}

/// Cyclic owner of a coordinate in a given layout epoch:
/// `((i + e) mod q, (j + e) mod q)` on the grid.
#[inline]
fn cyclic_owner(q: usize, epoch: u64, r: Index, c: Index) -> usize {
    let e = (epoch % q as u64) as usize;
    ((r as usize + e) % q) * q + ((c as usize + e) % q)
}

impl<V: Elem> CtfMatrix<V> {
    /// One write epoch: install a fresh cyclic layout, comparison-sort the
    /// entire existing local data together with `tuples`, re-shuffle
    /// **everything** through a global alltoall, and fold coinciding
    /// positions with `dedup`.
    fn write_epoch(
        &mut self,
        grid: &Grid,
        tuples: Vec<Triple<V>>,
        dedup: impl FnOnce(&mut Vec<Triple<V>>),
    ) {
        let q = grid.q();
        let p = grid.p();
        // A write epoch installs a fresh layout; all existing data migrates.
        self.epoch += 1;
        let epoch = self.epoch;
        let mut all = std::mem::take(&mut self.elems);
        all.extend(tuples);
        all.sort_by_key(|t| (cyclic_owner(q, epoch, t.row, t.col), t.key()));
        let mut chunks: Vec<Vec<Triple<V>>> = (0..p).map(|_| Vec::new()).collect();
        for t in all {
            chunks[cyclic_owner(q, epoch, t.row, t.col)].push(t);
        }
        let received = grid.world().alltoallv(chunks);
        let mut mine: Vec<Triple<V>> = received.into_iter().flatten().collect();
        dspgemm_sparse::triple::sort_row_major(&mut mine);
        dedup(&mut mine);
        self.elems = mine;
    }
}

impl<V: Elem> Competitor<V> for CtfMatrix<V> {
    type Product = CombBlasMatrix<V>;

    /// CTF `write` into an empty tensor: comparison sort + global shuffle
    /// into the cyclic layout, duplicates combined with the semiring add.
    fn construct<S: Semiring<Elem = V>>(
        grid: &Grid,
        nrows: Index,
        ncols: Index,
        tuples: Vec<Triple<V>>,
    ) -> Self {
        let mut m = Self {
            nrows,
            ncols,
            epoch: 0,
            elems: Vec::new(),
        };
        m.insert::<S>(grid, tuples);
        m
    }

    /// CTF `write` accumulating into the tensor: one write epoch that merges
    /// the batch with all existing data, adding coinciding positions.
    fn insert<S: Semiring<Elem = V>>(&mut self, grid: &Grid, tuples: Vec<Triple<V>>) {
        self.write_epoch(grid, tuples, dspgemm_sparse::triple::dedup_add::<S>);
    }

    /// CTF `write` overwriting the tensor's values: the batch's positions
    /// first travel as a kill-list to their current owners (the exchange
    /// [`Deletes::delete`] routes), then one write epoch re-shuffles the
    /// whole tensor with the batch, last write winning.
    fn update(&mut self, grid: &Grid, tuples: Vec<Triple<V>>) {
        self.delete(grid, tuples.clone());
        self.write_epoch(grid, tuples, dspgemm_sparse::triple::dedup_last_wins);
    }

    /// CTF contraction: re-layout both operands into a blocked distribution
    /// (full-operand global shuffles), then run SUMMA. The product stays
    /// blocked.
    fn spgemm<S: Semiring<Elem = V>>(grid: &Grid, a: &Self, b: &Self) -> (CombBlasMatrix<V>, u64) {
        // Re-layout: cyclic -> 2D blocked, paying a full shuffle per operand.
        let a_blocked =
            CombBlasMatrix::construct::<S>(grid, a.nrows, a.ncols, a.to_global_triples());
        let b_blocked =
            CombBlasMatrix::construct::<S>(grid, b.nrows, b.ncols, b.to_global_triples());
        CombBlasMatrix::spgemm::<S>(grid, &a_blocked, &b_blocked)
    }

    fn to_global_triples(&self) -> Vec<Triple<V>> {
        self.elems.clone()
    }
}

impl<V: Elem> Deletes<V> for CtfMatrix<V> {
    /// CTF sparse erase: route the kill-list to the cyclic owners and drop
    /// the positions (CTF has no in-place erase; the next write epoch
    /// re-shuffles what remains).
    fn delete(&mut self, grid: &Grid, positions: Vec<Triple<V>>) {
        let q = grid.q();
        let p = grid.p();
        let epoch = self.epoch;
        let mut chunks: Vec<Vec<Triple<V>>> = (0..p).map(|_| Vec::new()).collect();
        for t in positions {
            chunks[cyclic_owner(q, epoch, t.row, t.col)].push(t);
        }
        let received = grid.world().alltoallv(chunks);
        let mut kill: Vec<u64> = received.into_iter().flatten().map(|t| t.key()).collect();
        kill.sort_unstable();
        kill.dedup();
        self.elems.retain(|t| kill.binary_search(&t.key()).is_err());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dspgemm_mpi::run;
    use dspgemm_sparse::dense::Dense;
    use dspgemm_sparse::semiring::U64Plus;
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
    fn cyclic_layout_owns_correctly() {
        let out = run(4, |comm| {
            let grid = Grid::new(comm);
            let mine = random_triples(1 + comm.rank() as u64, 16, 50);
            let m = CtfMatrix::construct::<U64Plus>(&grid, 16, 16, mine);
            // Everything I hold is cyclically mine (in the current epoch).
            let q = grid.q();
            m.to_global_triples()
                .iter()
                .all(|t| cyclic_owner(q, m.epoch, t.row, t.col) == comm.rank())
        });
        assert!(out.results.iter().all(|&x| x));
    }

    #[test]
    fn write_shuffles_whole_tensor() {
        // Communication volume of a tiny batch is dominated by existing nnz.
        let n: Index = 64;
        let big = run(4, move |comm| {
            let grid = Grid::new(comm);
            let initial = if comm.rank() == 0 {
                random_triples(7, n, 4000)
            } else {
                vec![]
            };
            let mut m = CtfMatrix::construct::<U64Plus>(&grid, n, n, initial);
            // One tiny batch.
            let tiny = if comm.rank() == 0 {
                random_triples(8, n, 4)
            } else {
                vec![]
            };
            m.insert::<U64Plus>(&grid, tiny);
        });
        // A batch of 4 tuples must still have moved ~nnz data in the write
        // epoch: total alltoall volume far exceeds the two constructions.
        let alltoall = big.stats.bytes_in(dspgemm_mpi::CommCategory::Alltoall);
        assert!(alltoall > 2 * 4000 * 16 / 2, "alltoall volume {alltoall}");
    }

    #[test]
    fn delete_removes_positions() {
        let n: Index = 20;
        let out = run(4, move |comm| {
            let grid = Grid::new(comm);
            let initial: Vec<Triple<u64>> = if comm.rank() == 0 {
                (0..n).map(|i| Triple::new(i, i, 1)).collect()
            } else {
                vec![]
            };
            let mut m = CtfMatrix::construct::<U64Plus>(&grid, n, n, initial);
            let del: Vec<Triple<u64>> = if comm.rank() == 0 {
                (0..n).step_by(2).map(|i| Triple::new(i, i, 0)).collect()
            } else {
                vec![]
            };
            m.delete(&grid, del);
            m.gather_to_root(&grid).map(|all| all.len())
        });
        assert_eq!(out.results[0], Some(10));
    }

    #[test]
    fn spgemm_matches_dense() {
        let n: Index = 20;
        let out = run(4, move |comm| {
            let grid = Grid::new(comm);
            let feed = |s: u64| {
                if comm.rank() == 0 {
                    random_triples(s, n, 70)
                } else {
                    vec![]
                }
            };
            let a = CtfMatrix::construct::<U64Plus>(&grid, n, n, feed(11));
            let b = CtfMatrix::construct::<U64Plus>(&grid, n, n, feed(12));
            let (c, _) = CtfMatrix::spgemm::<U64Plus>(&grid, &a, &b);
            (
                a.gather_to_root(&grid),
                b.gather_to_root(&grid),
                c.gather_to_root(&grid),
            )
        });
        let (a, b, c) = &out.results[0];
        let da = Dense::from_triples::<U64Plus>(20, 20, a.as_ref().unwrap());
        let db = Dense::from_triples::<U64Plus>(20, 20, b.as_ref().unwrap());
        let dc = Dense::from_triples::<U64Plus>(20, 20, c.as_ref().unwrap());
        assert_eq!(dc.diff(&da.matmul::<U64Plus>(&db)), vec![]);
    }
}
