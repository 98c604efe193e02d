//! PETSc-like baseline: 1D row-block CSR with stash/assembly updates.
//!
//! Models PETSc's `MatMPIAIJ` as characterized by the paper:
//!
//! * **1D row-block distribution** — each world rank owns a contiguous band
//!   of rows in CSR (the grid's 2D structure goes unused);
//! * updates go through a **stash + assembly** cycle (`MatSetValues` +
//!   `MatAssemblyBegin/End`): tuples are routed to their row owner with a
//!   single alltoall, comparison-sorted, and the CSR is **rebuilt**;
//! * **no efficient deletions** (the paper excludes PETSc from the deletion
//!   experiment) — it does not implement [`crate::Deletes`] either;
//! * SpGEMM with the 1D algorithm: each rank fetches the remote rows of `B`
//!   that its `A` columns reference (request/response alltoalls), then
//!   multiplies locally. Real PETSc supports only the numeric `(+,·)`
//!   semiring; the emulation is generic for testing convenience but the
//!   benchmarks use `(+,·)` for it, as the paper does.

use crate::{Competitor, Fold};
use dspgemm_core::distmat::Elem;
use dspgemm_core::grid::Grid;
use dspgemm_mpi::Comm;
use dspgemm_sparse::semiring::Semiring;
use dspgemm_sparse::{Csr, Index, Triple};
use std::ops::Range;

/// A PETSc-like distributed matrix: 1D row-band CSR.
#[derive(Debug, Clone)]
pub struct PetscMatrix<V> {
    /// Global shape.
    pub nrows: Index,
    /// Global shape.
    pub ncols: Index,
    /// Rows owned by this rank.
    pub row_range: Range<Index>,
    block: Csr<V>,
}

/// The 1D row decomposition (same near-equal contiguous split as the grid).
fn row_band(nrows: Index, p: usize, rank: usize) -> Range<Index> {
    dspgemm_core::grid::block_range(nrows, p, rank)
}

fn row_owner(nrows: Index, p: usize, r: Index) -> usize {
    dspgemm_core::grid::owner_block(nrows, p, r).0
}

impl<V: Elem> PetscMatrix<V> {
    /// An empty matrix banded over `comm`. The 1D layout needs only the
    /// world communicator, so any rank count works, square or not.
    pub fn empty_on(comm: &Comm, nrows: Index, ncols: Index) -> Self {
        let row_range = row_band(nrows, comm.size(), comm.rank());
        Self {
            nrows,
            ncols,
            block: Csr::empty(row_range.end - row_range.start, ncols),
            row_range,
        }
    }

    /// [`Competitor::construct`] over `comm` alone (any rank count).
    pub fn construct_on<S: Semiring<Elem = V>>(
        comm: &Comm,
        nrows: Index,
        ncols: Index,
        tuples: Vec<Triple<V>>,
    ) -> Self {
        let mut m = Self::empty_on(comm, nrows, ncols);
        m.add_values::<S>(comm, tuples);
        m
    }

    /// `MatSetValues(ADD_VALUES)` + `MatAssemblyBegin/End`: routes tuples
    /// to row owners and **rebuilds** the CSR band with add-combine.
    pub fn add_values<S: Semiring<Elem = V>>(&mut self, comm: &Comm, tuples: Vec<Triple<V>>) {
        let mine = self.stash_exchange(comm, tuples);
        let mut local: Vec<Triple<V>> = self.block.to_triples();
        local.extend(
            mine.into_iter()
                .map(|t| Triple::new(t.row - self.row_range.start, t.col, t.val)),
        );
        // PETSc assembly comparison-sorts the stash.
        local.sort_by_key(Triple::key);
        dspgemm_sparse::triple::dedup_add::<S>(&mut local);
        self.block = Csr::from_sorted_triples(
            self.row_range.end - self.row_range.start,
            self.ncols,
            &local,
        );
    }

    fn stash_exchange(&self, comm: &Comm, tuples: Vec<Triple<V>>) -> Vec<Triple<V>> {
        let p = comm.size();
        let mut chunks: Vec<Vec<Triple<V>>> = (0..p).map(|_| Vec::new()).collect();
        for t in tuples {
            chunks[row_owner(self.nrows, p, t.row)].push(t);
        }
        comm.alltoallv(chunks).into_iter().flatten().collect()
    }
}

impl<V: Elem> Competitor<V> for PetscMatrix<V> {
    type Product = Self;

    /// `MatCreate` + `MatSetValues(ADD_VALUES)` + assembly.
    fn construct<S: Semiring<Elem = V>>(
        grid: &Grid,
        nrows: Index,
        ncols: Index,
        tuples: Vec<Triple<V>>,
    ) -> Self {
        Self::construct_on::<S>(grid.world(), nrows, ncols, tuples)
    }

    /// See [`PetscMatrix::add_values`].
    fn insert<S: Semiring<Elem = V>>(&mut self, grid: &Grid, tuples: Vec<Triple<V>>) {
        self.add_values::<S>(grid.world(), tuples);
    }

    /// `MatSetValues(INSERT_VALUES)` + `MatAssemblyBegin/End`: replacement
    /// semantics.
    fn update(&mut self, grid: &Grid, tuples: Vec<Triple<V>>) {
        let mine = self.stash_exchange(grid.world(), tuples);
        let mut incoming: Vec<Triple<V>> = mine
            .into_iter()
            .map(|t| Triple::new(t.row - self.row_range.start, t.col, t.val))
            .collect();
        incoming.sort_by_key(Triple::key);
        dspgemm_sparse::triple::dedup_last_wins(&mut incoming);
        let mut local = self.block.to_triples();
        // Replace coinciding entries, keep the rest.
        let keys: std::collections::BTreeSet<u64> = incoming.iter().map(Triple::key).collect();
        local.retain(|t| !keys.contains(&t.key()));
        local.extend(incoming);
        local.sort_by_key(Triple::key);
        self.block = Csr::from_sorted_triples(
            self.row_range.end - self.row_range.start,
            self.ncols,
            &local,
        );
    }

    /// `MatMatMult` with the 1D algorithm: every rank determines which
    /// remote rows of `B` its `A` columns touch, fetches them (request +
    /// response alltoalls), and multiplies locally. Communication is
    /// `O(nnz(B-rows-needed))` per rank — for dense column coverage this
    /// approaches replicating `B`, the 1D algorithm's known weakness on
    /// skewed graphs.
    fn spgemm<S: Semiring<Elem = V>>(grid: &Grid, a: &Self, b: &Self) -> (Self, u64) {
        assert_eq!(a.ncols, b.nrows, "dimension mismatch");
        let comm = grid.world();
        let p = comm.size();
        // Which global rows of B do I need? (= distinct columns of my A band.)
        let mut needed: Vec<Index> = Vec::new();
        {
            let nrows_local = a.row_range.end - a.row_range.start;
            for r in 0..nrows_local {
                let (cols, _) = a.block.row(r);
                needed.extend_from_slice(cols);
            }
            needed.sort_unstable();
            needed.dedup();
        }
        // Request phase: send each owner the list of rows I need from it.
        let mut requests: Vec<Vec<Index>> = (0..p).map(|_| Vec::new()).collect();
        for &gr in &needed {
            requests[row_owner(b.nrows, p, gr)].push(gr);
        }
        let incoming = comm.alltoallv(requests);
        // Response phase: ship the requested rows as triples.
        let mut replies: Vec<Vec<Triple<V>>> = (0..p).map(|_| Vec::new()).collect();
        for (src, rows) in incoming.iter().enumerate() {
            for &gr in rows {
                let lr = gr - b.row_range.start;
                let (cols, vals) = b.block.row(lr);
                for (&c, &v) in cols.iter().zip(vals) {
                    replies[src].push(Triple::new(gr, c, v));
                }
            }
        }
        // Build my local copy of the needed B rows.
        let mut triples: Vec<Triple<V>> = comm.alltoallv(replies).into_iter().flatten().collect();
        triples.sort_by_key(Triple::key);
        let b_rows = Csr::from_sorted_triples(b.nrows, b.ncols, &triples);
        // Local multiply: my A band times the fetched B rows.
        let partial = dspgemm_sparse::local_mm::spgemm::<S, _, _>(&a.block, &b_rows, 1);
        let mut c = Self::empty(grid, a.nrows, b.ncols);
        let triples: Vec<Triple<V>> = partial.result.to_triples();
        c.block = Csr::from_sorted_triples(c.row_range.end - c.row_range.start, c.ncols, &triples);
        (c, partial.flops)
    }

    fn to_global_triples(&self) -> Vec<Triple<V>> {
        self.block
            .to_triples()
            .into_iter()
            .map(|t| Triple::new(t.row + self.row_range.start, t.col, t.val))
            .collect()
    }
}

impl<V: Elem> Fold<V> for PetscMatrix<V> {
    /// `MatCreate` of an empty matrix: each world rank owns its row band.
    fn empty(grid: &Grid, nrows: Index, ncols: Index) -> Self {
        Self::empty_on(grid.world(), nrows, ncols)
    }

    /// `MatAXPY` on aligned row bands.
    fn merge_add_local<S: Semiring<Elem = V>>(&mut self, other: &Self) {
        assert_eq!(self.row_range, other.row_range, "distribution mismatch");
        self.block = self.block.add::<S>(&other.block);
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
    fn construction_1d_bands() {
        let out = run(4, |comm| {
            let grid = Grid::new(comm);
            let mine = random_triples(1 + comm.rank() as u64, 40, 60);
            let m = PetscMatrix::construct::<U64Plus>(&grid, 40, 40, mine);
            // Every local row is inside my band.
            let inside = m
                .to_global_triples()
                .iter()
                .all(|t| m.row_range.contains(&t.row));
            (inside, m.row_range.clone())
        });
        assert!(out.results.iter().all(|(inside, _)| *inside));
        // One band per world rank (1D over all p, not the grid's q rows),
        // together tiling the rows.
        let bands: Vec<_> = out.results.iter().map(|(_, b)| b.clone()).collect();
        assert_eq!(bands, vec![0..10, 10..20, 20..30, 30..40]);
    }

    #[test]
    fn add_then_insert_semantics() {
        let out = run(4, |comm| {
            let grid = Grid::new(comm);
            let mut m = PetscMatrix::empty(&grid, 10, 10);
            let mine = if comm.rank() == 0 {
                vec![Triple::new(0, 0, 5u64), Triple::new(9, 9, 1)]
            } else {
                vec![]
            };
            m.insert::<U64Plus>(&grid, mine);
            let more = if comm.rank() == 1 {
                vec![Triple::new(0, 0, 3u64)]
            } else {
                vec![]
            };
            m.insert::<U64Plus>(&grid, more);
            let replace = if comm.rank() == 0 {
                vec![Triple::new(9, 9, 100u64)]
            } else {
                vec![]
            };
            m.update(&grid, replace);
            m.gather_to_root(&grid)
        });
        let got = out.results[0].as_ref().unwrap();
        assert_eq!(got, &vec![Triple::new(0, 0, 8u64), Triple::new(9, 9, 100)]);
    }

    #[test]
    fn spgemm_matches_dense() {
        let n: Index = 24;
        let out = run(4, move |comm| {
            let grid = Grid::new(comm);
            let feed = |s: u64| {
                if comm.rank() == 0 {
                    random_triples(s, n, 90)
                } else {
                    vec![]
                }
            };
            let a = PetscMatrix::construct::<U64Plus>(&grid, n, n, feed(5));
            let b = PetscMatrix::construct::<U64Plus>(&grid, n, n, feed(6));
            let (c, _) = PetscMatrix::spgemm::<U64Plus>(&grid, &a, &b);
            (
                a.gather_to_root(&grid),
                b.gather_to_root(&grid),
                c.gather_to_root(&grid),
            )
        });
        let (a, b, c) = &out.results[0];
        let da = Dense::from_triples::<U64Plus>(24, 24, a.as_ref().unwrap());
        let db = Dense::from_triples::<U64Plus>(24, 24, b.as_ref().unwrap());
        let dc = Dense::from_triples::<U64Plus>(24, 24, c.as_ref().unwrap());
        assert_eq!(dc.diff(&da.matmul::<U64Plus>(&db)), vec![]);
    }

    #[test]
    fn works_on_non_square_rank_counts() {
        // 1D layout has no square-grid restriction: three ranks admit no
        // `Grid`, but the world communicator alone suffices.
        let out = run(3, |comm| {
            let mine = random_triples(2 + comm.rank() as u64, 30, 40);
            let m = PetscMatrix::construct_on::<U64Plus>(comm, 30, 30, mine);
            comm.allreduce(m.to_global_triples().len() as u64, |a, b| a + b)
        });
        assert!(out.results[0] > 0);
        assert_eq!(out.results[0], out.results[1]);
    }
}
