//! Distributed sparse matrix–vector multiplication on the 2D grid.
//!
//! SpMV is the workhorse of the vector-shaped analytics views (degrees,
//! k-hop frontiers, PageRank-style sweeps) that `dspgemm-analytics` maintains
//! next to the matrix-shaped SpGEMM views. The kernel reuses SUMMA's
//! communication domains (Section IV's row/column communicators) rather than
//! introducing a new distribution:
//!
//! * the input vector `x` is **column-aligned**: rank `(i, j)` holds the
//!   segment `x[cols(j)]` matching its block's column range, replicated down
//!   each grid column — exactly the operand every local block multiply needs,
//!   so the multiply itself is communication-free;
//! * partial results `y_part = A_{i,j} · x_j` are combined with one
//!   elementwise allreduce over the **row communicator** (`O(log √p)` rounds
//!   of `n/√p`-element messages), leaving `y` **row-aligned**: rank `(i, j)`
//!   holds `y[rows(i)]`, replicated across each grid row;
//! * chaining multiplications (`A^k x`) re-aligns `y` back to column
//!   alignment with the same transpose `sendrecv` exchange Algorithm 2 uses
//!   for `A^R`: segment `b` of a row-aligned vector lives on the
//!   ranks of grid row `b`, so peer `(j, i)` holds exactly the segment rank
//!   `(i, j)` needs next.
//!
//! Total volume per multiply is `O(n/√p · log √p)` per rank — independent of
//! `nnz(A)`, mirroring how the paper's dynamic SpGEMM avoids moving the big
//! operand.

use crate::distmat::{DistMat, Elem};
use crate::grid::{block_range, Grid};
use dspgemm_sparse::semiring::Semiring;
use dspgemm_sparse::{Index, RowScan};
use std::ops::Range;
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
/// The segment is held in an `Arc`: SpMV's aggregation broadcast and the
/// transpose re-alignment move it zero-copy through the shared collectives,
/// and cloning a `DistVec` (views snapshotting their result) is a refcount
/// increment. Local mutation goes through copy-on-write
/// ([`Arc::make_mut`]), which never copies while the segment is unshared.
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

    /// A column-aligned vector that is `zero` everywhere except at the given
    /// `(index, value)` entries. `entries` must be identical on all ranks
    /// (each rank keeps the ones falling in its segment).
    pub fn from_entries(grid: &Grid, n: Index, entries: &[(Index, V)], zero: V) -> Self {
        let mut v = Self::constant(grid, n, zero);
        let range = v.range(grid);
        let seg = Arc::make_mut(&mut v.seg);
        for &(idx, val) in entries {
            if range.contains(&idx) {
                seg[(idx - range.start) as usize] = val;
            }
        }
        v
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

    /// Global index range of this rank's segment.
    pub fn range(&self, grid: &Grid) -> Range<Index> {
        let (i, j) = grid.coords();
        let b = match self.align {
            Align::Col => j,
            Align::Row => i,
        };
        block_range(self.n, grid.q(), b)
    }

    /// Re-aligns between row and column alignment via the transpose
    /// exchange: peer `(j, i)` holds exactly the segment this rank needs
    /// under the other alignment. Prepost-irecv form: the receive is posted
    /// before the send, so both directions are in flight concurrently and
    /// the wait is pure arrival time. Diagonal ranks move nothing.
    /// Collective over the grid.
    pub fn realign(self, grid: &Grid) -> Self {
        const TAG_VEC: u64 = 105;
        let peer = grid.transpose_rank();
        let align = match self.align {
            Align::Col => Align::Row,
            Align::Row => Align::Col,
        };
        let seg = if peer == grid.world().rank() {
            self.seg
        } else {
            // `sendrecv` is itself in prepost-irecv form.
            grid.world().sendrecv(peer, self.seg, peer, TAG_VEC)
        };
        Self {
            n: self.n,
            align,
            seg,
        }
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

/// Computes `y = Aᵏ · x` by chaining [`spmv`] with re-alignment between
/// hops (requires a square matrix). `k = 0` returns `x` unchanged. The
/// result is column-aligned, ready for further multiplication. Returns
/// `(y, local_flops)`. Collective over the grid.
pub fn spmv_chain<S: Semiring>(
    grid: &Grid,
    a: &DistMat<S::Elem>,
    x: DistVec<S::Elem>,
    k: usize,
) -> (DistVec<S::Elem>, u64) {
    assert_eq!(
        a.info().nrows,
        a.info().ncols,
        "chained SpMV requires a square matrix"
    );
    let mut x = x;
    let mut flops = 0u64;
    for _ in 0..k {
        let (y, fl) = spmv::<S>(grid, a, &x);
        flops += fl;
        x = y.realign(grid);
    }
    (x, flops)
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
    fn chained_spmv_counts_walks() {
        // Directed cycle 0 → 1 → … → n-1 → 0: A^k x shifts x by k.
        let n: Index = 12;
        let out = run(4, move |comm| {
            let grid = Grid::new(comm);
            let mut timer = PhaseTimer::new();
            let t: Vec<Triple<u64>> = if comm.rank() == 0 {
                (0..n).map(|i| Triple::new(i, (i + 1) % n, 1)).collect()
            } else {
                vec![]
            };
            let a = DistMat::from_global_triples(&grid, n, n, t, 1, &mut timer);
            let x = DistVec::from_fn(&grid, n, |i| u64::from(i == 0));
            let (y, _) = spmv_chain::<U64Plus>(&grid, &a, x, 5);
            y.to_global(&grid)
        });
        // e_0 pushed 5 steps backwards along the cycle: A e_{i+1} = e_i.
        let expect: Vec<u64> = (0..n).map(|i| u64::from(i == n - 5)).collect();
        assert!(out.results.iter().all(|v| *v == expect));
    }

    #[test]
    fn realign_round_trips() {
        let n: Index = 23;
        let out = run(9, move |comm| {
            let grid = Grid::new(comm);
            let x = DistVec::from_fn(&grid, n, |i| i as u64 * 3);
            let back = x.clone().realign(&grid).realign(&grid);
            (x == back, x.to_global(&grid))
        });
        let expect: Vec<u64> = (0..23).map(|i| i as u64 * 3).collect();
        for (same, full) in &out.results {
            assert!(same);
            assert_eq!(full, &expect);
        }
    }

    #[test]
    fn bool_semiring_khop_reachability() {
        // Path graph 0 - 1 - 2 - … (undirected): 2 hops from vertex 0
        // reaches {0, 1, 2}.
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
            let seed = DistVec::from_entries(&grid, n, &[(0, true)], false);
            // Reachable within ≤ 2 hops: fold the frontier into the seed.
            let (h1, _) = spmv_chain::<BoolOrAnd>(&grid, &a, seed.clone(), 1);
            let (h2, _) = spmv_chain::<BoolOrAnd>(&grid, &a, seed.clone(), 2);
            let reach: Vec<bool> = seed
                .to_global(&grid)
                .iter()
                .zip(h1.to_global(&grid))
                .zip(h2.to_global(&grid))
                .map(|((&s, a), b)| s | a | b)
                .collect();
            reach
        });
        let expect: Vec<bool> = (0..10).map(|i| i <= 2).collect();
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
            let d = DistVec::from_entries(&grid, n, &[(0, 0.0)], f64::INFINITY);
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
