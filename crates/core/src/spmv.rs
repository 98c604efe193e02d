//! Distributed sparse matrix–vector multiplication on the 2D grid.
//!
//! SpMV computes the vector-shaped analytics view (`DegreeView`'s row
//! aggregates) that `dspgemm-analytics` maintains next to the matrix-shaped
//! views of the product. The kernel reuses SUMMA's communication domains
//! (Section IV's row/column communicators) rather than introducing a new
//! distribution:
//!
//! * the input vector `x` is **column-aligned**: rank `(i, j)` holds the
//!   segment `x[cols(j)]` matching its block's column range, replicated down
//!   each grid column — exactly the operand every local block multiply needs,
//!   so the multiply itself is communication-free;
//! * partial results `y_part = A_{i,j} · x_j` are combined with one
//!   elementwise allreduce over the **row communicator** (`O(log √p)` rounds
//!   of `n/√p`-element messages), leaving `y` **row-aligned**: rank `(i, j)`
//!   holds `y[rows(i)]`, replicated across each grid row.
//!
//! Total volume per multiply is `O(n/√p · log √p)` per rank — independent of
//! `nnz(A)`, mirroring how the paper's dynamic SpGEMM avoids moving the big
//! operand.

use crate::distmat::{DistMat, Elem};
use crate::grid::{block_range, Grid};
use dspgemm_sparse::semiring::Semiring;
use dspgemm_sparse::{Index, RowScan};
use std::sync::Arc;

/// Which grid axis a [`DistVec`]'s segment follows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Align {
    /// Rank `(i, j)` holds the segment for column block `j` (replicated down
    /// each grid column) — the input alignment of [`spmv`].
    Col,
    /// Rank `(i, j)` holds the segment for row block `i` (replicated across
    /// each grid row) — the output alignment of [`spmv`].
    Row,
}

/// A dense vector distributed conformally with the 2D block distribution.
///
/// The segment is held in an `Arc`: SpMV's aggregation broadcast and
/// [`DistVec::to_global`]'s allgather move it zero-copy through the shared
/// collectives, and cloning a `DistVec` (views snapshotting their result)
/// is a refcount increment.
#[derive(Debug, Clone, PartialEq)]
pub struct DistVec<V> {
    n: Index,
    align: Align,
    seg: Arc<Vec<V>>,
}

impl<V: Elem> DistVec<V> {
    /// Builds a column-aligned vector from a generator evaluated at every
    /// global index of this rank's segment. `f` must be a pure function of
    /// the index (all ranks of a grid column evaluate it for the same
    /// indices), so no communication is needed.
    pub fn from_fn(grid: &Grid, n: Index, f: impl FnMut(Index) -> V) -> Self {
        let (_, j) = grid.coords();
        Self {
            n,
            align: Align::Col,
            seg: Arc::new(block_range(n, grid.q(), j).map(f).collect()),
        }
    }

    /// A column-aligned constant vector.
    pub fn constant(grid: &Grid, n: Index, value: V) -> Self {
        Self::from_fn(grid, n, |_| value)
    }

    /// Global length.
    #[inline]
    pub fn len(&self) -> Index {
        self.n
    }

    /// Whether the vector has length zero.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Current alignment.
    #[inline]
    pub fn align(&self) -> Align {
        self.align
    }

    /// This rank's segment.
    #[inline]
    pub fn seg(&self) -> &[V] {
        &self.seg
    }

    /// Assembles the full vector on every rank: one allgather along the
    /// communicator that spans the segments (testing/diagnostics; `O(n)`
    /// memory per rank). Collective over the grid.
    pub fn to_global(&self, grid: &Grid) -> Vec<V> {
        let comm = match self.align {
            // Column-aligned: the ranks of a grid row jointly hold all
            // segments in block order (row-comm member j holds block j).
            Align::Col => grid.row_comm(),
            Align::Row => grid.col_comm(),
        };
        // The shared ring moves `Arc` handles — statically incapable of
        // deep-cloning a segment.
        let parts = comm.allgather_shared(Arc::clone(&self.seg));
        let mut out = Vec::with_capacity(self.n as usize);
        for part in parts {
            out.extend_from_slice(&part);
        }
        out
    }
}

/// Computes `y = A · x` over semiring `S`. `x` must be column-aligned and
/// conform to `A`'s column count; the result is row-aligned (see the module
/// docs for the round structure). Returns `(y, local_flops)`. Collective
/// over the grid.
pub fn spmv<S: Semiring>(
    grid: &Grid,
    a: &DistMat<S::Elem>,
    x: &DistVec<S::Elem>,
) -> (DistVec<S::Elem>, u64) {
    assert_eq!(x.align, Align::Col, "spmv input must be column-aligned");
    assert_eq!(
        x.n,
        a.info().ncols,
        "SpMV input must match A's column count"
    );
    let local_rows = a.info().local_rows() as usize;
    debug_assert_eq!(a.info().local_cols() as usize, x.seg.len());

    // Local block multiply: one partial-result entry per local row.
    let mut y_part = vec![S::zero(); local_rows];
    let mut flops = 0u64;
    a.block().scan_rows(|r, cols, vals| {
        let acc = &mut y_part[r as usize];
        for (&c, &v) in cols.iter().zip(vals) {
            flops += 1;
            *acc = S::add(*acc, S::mul(v, x.seg[c as usize]));
        }
    });

    // Aggregate partials across the grid row (the k-sum of y_i = Σ_j A_ij x_j):
    // a merge-reduce onto row-comm rank 0 followed by a zero-copy broadcast
    // of the combined segment — same rounds and wire bytes as an allreduce,
    // but the result vector is never deep-cloned on its way back out.
    let reduced = grid.row_comm().reduce(0, y_part, |mut acc, other| {
        for (a_el, b_el) in acc.iter_mut().zip(other) {
            *a_el = S::add(*a_el, b_el);
        }
        acc
    });
    let seg = grid.row_comm().bcast_shared(0, reduced.map(Arc::new));
    (
        DistVec {
            n: a.info().nrows,
            align: Align::Row,
            seg,
        },
        flops,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use dspgemm_mpi::run;
    use dspgemm_sparse::semiring::{BoolOrAnd, MinPlus, U64Plus};
    use dspgemm_sparse::Triple;
    use dspgemm_util::rng::{Rng, SplitMix64};
    use dspgemm_util::stats::PhaseTimer;

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

    /// Dense reference: y[r] = Σ_c add(mul(a_rc, x_c)).
    fn reference_spmv(n: Index, triples: &[Triple<u64>], x: &[u64]) -> Vec<u64> {
        // Last write wins per coordinate, matching DistMat construction.
        let mut last = std::collections::BTreeMap::new();
        for t in triples {
            last.insert((t.row, t.col), t.val);
        }
        let mut y = vec![0u64; n as usize];
        for ((r, c), v) in last {
            y[r as usize] += v * x[c as usize];
        }
        y
    }

    #[test]
    fn spmv_matches_dense_reference_all_grids() {
        let n: Index = 37;
        for p in [1usize, 4, 9] {
            let triples = random_triples(11, n, 300);
            let t_in = triples.clone();
            let out = run(p, move |comm| {
                let grid = Grid::new(comm);
                let mut timer = PhaseTimer::new();
                let feed = if comm.rank() == 0 {
                    t_in.clone()
                } else {
                    vec![]
                };
                let a = DistMat::from_global_triples(&grid, n, n, feed, 1, &mut timer);
                let x = DistVec::from_fn(&grid, n, |i| (i as u64) % 7 + 1);
                let (y, flops) = spmv::<U64Plus>(&grid, &a, &x);
                assert!(flops as usize <= a.local_nnz());
                y.to_global(&grid)
            });
            let x: Vec<u64> = (0..n).map(|i| (i as u64) % 7 + 1).collect();
            let expect = reference_spmv(n, &triples, &x);
            for (rank, got) in out.results.iter().enumerate() {
                assert_eq!(got, &expect, "p={p} rank={rank}");
            }
        }
    }

    #[test]
    fn bool_semiring_khop_reachability() {
        // Path graph 0 - 1 - 2 - … (undirected): one hop (k = 1) from the
        // frontier {0, 4} under (∨, ∧) reaches exactly its neighbours.
        let n: Index = 10;
        let out = run(4, move |comm| {
            let grid = Grid::new(comm);
            let mut timer = PhaseTimer::new();
            let t: Vec<Triple<bool>> = if comm.rank() == 0 {
                (0..n - 1)
                    .flat_map(|i| [Triple::new(i, i + 1, true), Triple::new(i + 1, i, true)])
                    .collect()
            } else {
                vec![]
            };
            let a = DistMat::from_global_triples(&grid, n, n, t, 1, &mut timer);
            let frontier = DistVec::from_fn(&grid, n, |i| i == 0 || i == 4);
            let (y, _) = spmv::<BoolOrAnd>(&grid, &a, &frontier);
            y.to_global(&grid)
        });
        let expect: Vec<bool> = (0..10).map(|i| [1, 3, 5].contains(&i)).collect();
        assert!(out.results.iter().all(|v| *v == expect));
    }

    #[test]
    fn min_plus_spmv_relaxes_distances() {
        // One SSSP relaxation step under (min, +): y_v = min_u (d_u + w_uv)
        // over the *incoming* edges, i.e. y = Aᵀ·d; with the symmetric path
        // graph Aᵀ = A.
        let n: Index = 8;
        let out = run(4, move |comm| {
            let grid = Grid::new(comm);
            let mut timer = PhaseTimer::new();
            let t: Vec<Triple<f64>> = if comm.rank() == 0 {
                (0..n - 1)
                    .flat_map(|i| [Triple::new(i, i + 1, 1.0), Triple::new(i + 1, i, 1.0)])
                    .collect()
            } else {
                vec![]
            };
            let a = DistMat::from_global_triples(&grid, n, n, t, 1, &mut timer);
            let d = DistVec::from_fn(&grid, n, |i| if i == 0 { 0.0 } else { f64::INFINITY });
            let (y, _) = spmv::<MinPlus>(&grid, &a, &d);
            y.to_global(&grid)
        });
        // After one relaxation only vertex 1 (distance 1) is finite — y has
        // no self-loop term, matching pure matrix-vector semantics.
        for v in &out.results {
            assert_eq!(v[1], 1.0);
            assert!(v[0].is_infinite() && v[2..].iter().all(|x| x.is_infinite()));
        }
    }
}
