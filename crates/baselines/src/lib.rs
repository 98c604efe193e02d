//! # dspgemm-baselines — architectural emulations of the paper's competitors
//!
//! The paper compares against CombBLAS 2.0, CTF 1.35 and PETSc 3.17. Those
//! C/C++ frameworks cannot be linked here, so this crate re-implements the
//! *architectural decisions* the paper attributes to each — the decisions
//! that explain the measured gaps — on top of the same simulated MPI runtime
//! and the same local kernels, so that every difference in a benchmark is a
//! difference in algorithm/data-structure design, not in implementation
//! polish:
//!
//! | system | storage | update path | redistribution | SpGEMM |
//! |---|---|---|---|---|
//! | [`combblas`] | static doubly-compressed blocks on a 2D grid | full rebuild per batch | comparison sort + one global alltoall | sparse SUMMA (full operands broadcast) |
//! | [`ctf`] | cyclic element layout | full re-shuffle of the tensor per write epoch (a replacing write first routes a kill-list) | comparison sort + global alltoall | redistribute operands to blocked layout, then SUMMA |
//! | [`petsc`] | 1D row-block CSR | stash + assembly (rebuild) | single alltoall to row owners | 1D row algorithm fetching remote B rows; `(+,·)` only, no deletions |
//!
//! Every system implements one trait, so each §VII protocol is written once
//! with the system as its type parameter:
//!
//! | trait | operations | implemented by |
//! |---|---|---|
//! | [`Competitor`] | `construct` (duplicates add), `insert` (add), `update` (replace), static `spgemm`, `to_global_triples`, `gather_to_root` | all three |
//! | [`Deletes`] | `delete` | CombBLAS, CTF — PETSc has no deletion path, so Fig. 5b cannot name it |
//! | [`Fold`] | `empty`, `merge_add_local` — the Fig. 9 fold of a product increment | the product types: CombBLAS (its own and CTF's) and PETSc |
//!
//! Every system applies the same semantics, so the three compute the same
//! matrix on the same workload (`tests/baseline_equivalence.rs`).
//!
//! See `DESIGN.md` for the full substitution argument.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod combblas;
pub mod ctf;
pub mod petsc;

use dspgemm_core::distmat::Elem;
use dspgemm_core::grid::Grid;
use dspgemm_sparse::semiring::Semiring;
use dspgemm_sparse::{Index, Triple};

/// The operations the paper's §VII protocols run on a competitor system.
///
/// Batches are rank-local, globally indexed tuples on every rank. Where two
/// tuples of one batch share a position, addition folds them in any order
/// and replacement keeps the last in (world rank, batch) order.
pub trait Competitor<V: Elem>: Sized {
    /// What [`Competitor::spgemm`] returns (CTF multiplies in a blocked
    /// layout and hands back the blocked result).
    type Product: Fold<V>;

    /// Builds the matrix from rank-local, globally indexed tuples;
    /// duplicates combine with the semiring addition.
    fn construct<S: Semiring<Elem = V>>(
        grid: &Grid,
        nrows: Index,
        ncols: Index,
        tuples: Vec<Triple<V>>,
    ) -> Self;

    /// Inserts a batch: a position already stored, or repeated in the
    /// batch, combines with the semiring addition (Fig. 4).
    fn insert<S: Semiring<Elem = V>>(&mut self, grid: &Grid, tuples: Vec<Triple<V>>);

    /// Writes new values: a position already stored takes the batch's value
    /// (Fig. 5a, and the Fig. 10 operand writes).
    fn update(&mut self, grid: &Grid, tuples: Vec<Triple<V>>);

    /// The static product `a · b`, plus this rank's local flops.
    fn spgemm<S: Semiring<Elem = V>>(grid: &Grid, a: &Self, b: &Self) -> (Self::Product, u64);

    /// This rank's entries, globally indexed.
    fn to_global_triples(&self) -> Vec<Triple<V>>;

    /// Every entry, row-major sorted, on world rank 0 (testing; collective).
    fn gather_to_root(&self, grid: &Grid) -> Option<Vec<Triple<V>>> {
        grid.world()
            .gather(0, self.to_global_triples())
            .map(|parts| {
                let mut all: Vec<Triple<V>> = parts.into_iter().flatten().collect();
                dspgemm_sparse::triple::sort_row_major(&mut all);
                all
            })
    }
}

/// A competitor with a deletion path (Fig. 5b). PETSc has none, as in the
/// paper, and does not implement it.
pub trait Deletes<V: Elem>: Competitor<V> {
    /// Removes the batch's positions; the tuples' values are ignored.
    fn delete(&mut self, grid: &Grid, positions: Vec<Triple<V>>);
}

/// A product the Fig. 9 protocol folds increments into: it starts empty
/// and adds each batch's `A*·B` locally.
pub trait Fold<V: Elem>: Competitor<V> {
    /// An empty `nrows × ncols` matrix (no communication).
    fn empty(grid: &Grid, nrows: Index, ncols: Index) -> Self;

    /// Element-wise `self += other` on aligned local blocks (no
    /// communication).
    fn merge_add_local<S: Semiring<Elem = V>>(&mut self, other: &Self);
}
