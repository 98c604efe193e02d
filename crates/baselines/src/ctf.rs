//! CTF-like baseline: cyclic element layout with whole-tensor re-shuffles.
//!
//! Cyclops Tensor Framework distributes tensor elements cyclically over the
//! processor grid and, on sparse writes, **re-distributes the entire tensor**
//! into a fresh layout (its `write()` path sorts and shuffles all data).
//! That is the architectural reason the paper measures CTF "at least 55.15×
//! slower" on insertions: per batch it pays `O(nnz(A)/p)` communication and
//! a comparison sort of the whole local data, regardless of batch size.
//!
//! SpGEMM first redistributes both operands into a blocked layout suitable
//! for SUMMA (another full-operand shuffle), then runs SUMMA — modelled here
//! by converting to [`crate::combblas::CombBlasMatrix`] via the global
//! redistribution and reusing the SUMMA baseline.

use crate::combblas::{self, CombBlasMatrix};
use dspgemm_core::grid::Grid;
use dspgemm_sparse::semiring::Semiring;
use dspgemm_sparse::{Index, Triple};
use dspgemm_util::{WireDecode, WireSize};

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

impl<V> CtfMatrix<V>
where
    V: Copy + Send + Sync + PartialEq + std::fmt::Debug + WireSize + WireDecode + 'static,
{
    /// Constructs from rank-local tuples: comparison sort + global shuffle
    /// into the cyclic layout, duplicates combined with the semiring add.
    pub fn construct<S: Semiring<Elem = V>>(
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
        m.write::<S>(grid, tuples);
        m
    }

    /// The CTF write path: merge new tuples with the entire existing local
    /// data, comparison-sort, and re-shuffle **everything** through a global
    /// alltoall into the (fresh) cyclic layout.
    pub fn write<S: Semiring<Elem = V>>(&mut self, grid: &Grid, tuples: Vec<Triple<V>>) {
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
        dspgemm_sparse::triple::dedup_add::<S>(&mut mine);
        self.elems = mine;
    }

    /// Deletion epoch: remove positions, then re-shuffle the whole tensor
    /// (CTF has no in-place erase either).
    pub fn delete<S: Semiring<Elem = V>>(&mut self, grid: &Grid, positions: Vec<Triple<V>>) {
        // Route the kill-list to the cyclic owners, then rebuild locally and
        // reshuffle to keep the layout invariant.
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

    /// Local element count.
    pub fn local_nnz(&self) -> usize {
        self.elems.len()
    }

    /// Global non-zero count (collective).
    pub fn global_nnz(&self, grid: &Grid) -> u64 {
        grid.world()
            .allreduce(self.elems.len() as u64, |a, b| a + b)
    }

    /// Globally-indexed triples held by this rank.
    pub fn to_global_triples(&self) -> Vec<Triple<V>> {
        self.elems.clone()
    }

    /// Gathers to world rank 0 (testing; collective).
    pub fn gather_to_root(&self, grid: &Grid) -> Option<Vec<Triple<V>>> {
        grid.world().gather(0, self.elems.clone()).map(|parts| {
            let mut all: Vec<Triple<V>> = parts.into_iter().flatten().collect();
            dspgemm_sparse::triple::sort_row_major(&mut all);
            all
        })
    }
}

/// CTF-like SpGEMM: re-layout both operands into a blocked distribution
/// (full-operand global shuffles), then run SUMMA. Returns the product as a
/// blocked matrix plus local flops.
pub fn spgemm<S: Semiring>(
    grid: &Grid,
    a: &CtfMatrix<S::Elem>,
    b: &CtfMatrix<S::Elem>,
) -> (CombBlasMatrix<S::Elem>, u64)
where
    S::Elem: Send + Sync + 'static,
{
    // Re-layout: cyclic -> 2D blocked, paying a full shuffle per operand.
    let a_blocked = CombBlasMatrix::construct::<S>(grid, a.nrows, a.ncols, a.to_global_triples());
    let b_blocked = CombBlasMatrix::construct::<S>(grid, b.nrows, b.ncols, b.to_global_triples());
    combblas::spgemm::<S>(grid, &a_blocked, &b_blocked)
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
            m.write::<U64Plus>(&grid, tiny);
            m.global_nnz(&grid)
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
            m.delete::<U64Plus>(&grid, del);
            m.global_nnz(&grid)
        });
        assert!(out.results.iter().all(|&nnz| nnz == 10));
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
            let (c, _) = spgemm::<U64Plus>(&grid, &a, &b);
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
