//! Static sparse SUMMA — the baseline SpGEMM and the producer of the initial
//! product.
//!
//! SUMMA runs `√p` rounds; in round `k` the blocks `A_{i,k}` are broadcast
//! along process rows and `B_{k,j}` along process columns, every rank
//! multiplies the received pair locally, and the partial results accumulate
//! *locally* into `C_{i,j}` (Section V: "the aggregation of partial results
//! into block (i,j) of the result is entirely local"). Its communication
//! volume is `O((nnz(A) + nnz(B))/√p)` — the full operands travel — which is
//! exactly what the dynamic algorithms avoid.
//!
//! [`summa_bloom`] additionally produces the Bloom filter matrix `F`
//! recording contributing inner indices, needed before general dynamic
//! updates can be applied (Section V-B). Over a ring, a tracking engine's
//! `F` holds path counts instead (`summa_counted_exec`, [`crate::ring`]).
//!
//! Every SUMMA-shaped product is one round body, `summa_rounds`,
//! differing in the kernel payload and the fold of each round's partial,
//! on the pipelined round scheduler ([`crate::pipeline`]):
//! round `k + 1`'s panel broadcasts are issued (nonblocking) before round
//! `k`'s local multiply, so their communication is in flight — and mostly
//! hidden — under the compute.

use crate::distmat::{DistMat, Elem};
use crate::dyn_algebraic::{add_cstar, add_cstar_counted, add_cstar_tracked, XYKernel};
use crate::exec::Exec;
use crate::grid::{block_range, Grid};
use crate::phase;
use crate::pipeline::{await_into_phase, run_rounds};
use dspgemm_sparse::local_mm::{spgemm_with, Bloom, Counted, Plain};
use dspgemm_sparse::semiring::Semiring;
use dspgemm_sparse::{Csr, Dcsr};
use dspgemm_util::stats::PhaseTimer;
use std::sync::Arc;

/// The SUMMA round structure: `√p` rounds of panel broadcasts — `A_{i,k}`
/// over the process row, `B_{k,j}` over the process column — and unmasked
/// local multiplies with payload `K`, each round's partial handed to `fold`
/// in round order. Returns the local flop count. Collective over the grid.
///
/// # Panics
/// Panics unless `A`'s column count equals `B`'s row count.
fn summa_rounds<S: Semiring, K: XYKernel<S>>(
    grid: &Grid,
    a: &DistMat<S::Elem>,
    b: &DistMat<S::Elem>,
    exec: &Exec<S>,
    timer: &mut PhaseTimer,
    mut fold: impl FnMut(Dcsr<K::Out>),
) -> u64 {
    let inner = a.info().ncols;
    assert_eq!(
        inner,
        b.info().nrows,
        "SUMMA contraction needs A's column count to equal B's row count"
    );
    let (i, j) = grid.coords();
    // One CSR snapshot per operand; the √p broadcast rounds then move only
    // `Arc` handles — zero payload copies in-process, identical wire volume.
    let a_local: Arc<Csr<S::Elem>> = a.block_csr_shared();
    let b_local: Arc<Csr<S::Elem>> = b.block_csr_shared();
    let mut flops = 0u64;
    run_rounds(
        &mut (timer, &mut flops),
        grid.q(),
        |_ctx, k| {
            let ra = grid
                .row_comm()
                .ibcast_shared(k, (j == k).then(|| Arc::clone(&a_local)));
            let rb = grid
                .col_comm()
                .ibcast_shared(k, (i == k).then(|| Arc::clone(&b_local)));
            (ra, rb)
        },
        |ctx, _k, (ra, rb)| {
            let a_blk = await_into_phase(ra, ctx.0, phase::BCAST);
            let b_blk = await_into_phase(rb, ctx.0, phase::BCAST);
            (a_blk, b_blk)
        },
        |ctx, k, (a_blk, b_blk)| {
            let (timer, flops) = ctx;
            // Bloom bits index the *global* inner dimension.
            let k_offset = block_range(inner, grid.q(), k).start;
            let partial = timer.time(phase::LOCAL_MULT, || {
                let ws = &mut K::workspace(exec);
                spgemm_with::<S, K, _, _, _>(&*a_blk, &*b_blk, &(), k_offset, ws)
            });
            **flops += partial.flops;
            timer.time(phase::LOCAL_UPDATE, || fold(partial.result));
        },
    );
    flops
}

/// An empty product of `a · b`.
fn empty_product<V: Elem, W: Elem>(grid: &Grid, a: &DistMat<V>, b: &DistMat<V>) -> DistMat<W> {
    DistMat::empty(grid, a.info().nrows, b.info().ncols)
}

/// Computes `C = A · B` with sparse SUMMA. Collective over the grid.
///
/// Returns the result as a dynamic distributed matrix (ready for dynamic
/// updates) plus the local flop count.
///
/// Adapter-frozen: `threads` must be 1; `benchmark/src/api.rs` passes it
/// until the benchmark PR drops it (DESIGN.md, "One worker per rank").
///
/// # Panics
/// Panics if `threads != 1`.
pub fn summa<S: Semiring>(
    grid: &Grid,
    a: &DistMat<S::Elem>,
    b: &DistMat<S::Elem>,
    threads: usize,
    timer: &mut PhaseTimer,
) -> (DistMat<S::Elem>, u64) {
    assert_eq!(
        threads, 1,
        "intra-rank threads are retired (DESIGN.md, \"One worker per rank\")"
    );
    summa_exec::<S>(grid, a, b, &Exec::new(), timer)
}

/// [`summa`] under an explicit [`Exec`] (persistent workspaces): the
/// engine/session entry point — kernel scratch lives across rounds *and*
/// across calls. Every round's partial is merged into `C` row by row, so
/// the product's rows start column-sorted and carry no hash index.
pub fn summa_exec<S: Semiring>(
    grid: &Grid,
    a: &DistMat<S::Elem>,
    b: &DistMat<S::Elem>,
    exec: &Exec<S>,
    timer: &mut PhaseTimer,
) -> (DistMat<S::Elem>, u64) {
    let mut c = empty_product(grid, a, b);
    let fold = |partial: Dcsr<S::Elem>| add_cstar::<S>(&mut c, &partial);
    let flops = summa_rounds::<S, Plain>(grid, a, b, exec, timer, fold);
    (c, flops)
}

/// SUMMA fused with Bloom-filter tracking: returns `(C, F, flops)` where
/// `F` holds, per non-zero of `C`, the ℓ=64-bit bitfield of contributing
/// inner indices (bit `k mod 64`).
///
/// Adapter-frozen: `threads` must be 1; `benchmark/src/api.rs` passes it
/// until the benchmark PR drops it (DESIGN.md, "One worker per rank").
///
/// # Panics
/// Panics if `threads != 1`.
pub fn summa_bloom<S: Semiring>(
    grid: &Grid,
    a: &DistMat<S::Elem>,
    b: &DistMat<S::Elem>,
    threads: usize,
    timer: &mut PhaseTimer,
) -> (DistMat<S::Elem>, DistMat<u64>, u64) {
    assert_eq!(
        threads, 1,
        "intra-rank threads are retired (DESIGN.md, \"One worker per rank\")"
    );
    summa_bloom_exec::<S>(grid, a, b, &Exec::new(), timer)
}

/// [`summa_bloom`] under an explicit [`Exec`] (see [`summa_exec`]).
pub fn summa_bloom_exec<S: Semiring>(
    grid: &Grid,
    a: &DistMat<S::Elem>,
    b: &DistMat<S::Elem>,
    exec: &Exec<S>,
    timer: &mut PhaseTimer,
) -> (DistMat<S::Elem>, DistMat<u64>, u64) {
    let mut c = empty_product(grid, a, b);
    let mut f = empty_product(grid, a, b);
    let fold = |partial: Dcsr<(S::Elem, u64)>| add_cstar_tracked::<S>(&mut c, &mut f, &partial);
    let flops = summa_rounds::<S, Bloom>(grid, a, b, exec, timer, fold);
    (c, f, flops)
}

/// SUMMA fused with path counting, for a tracking engine over a ring:
/// returns `(C, F, flops)` where `F` holds, per non-zero of `C`, the number
/// of products `a_ik · b_kj` that sum to it.
pub(crate) fn summa_counted_exec<S: Semiring>(
    grid: &Grid,
    a: &DistMat<S::Elem>,
    b: &DistMat<S::Elem>,
    exec: &Exec<S>,
    timer: &mut PhaseTimer,
) -> (DistMat<S::Elem>, DistMat<u64>, u64) {
    let mut c = empty_product(grid, a, b);
    let mut f = empty_product(grid, a, b);
    let fold = |partial: Dcsr<(S::Elem, u64)>| add_cstar_counted::<S>(&mut c, &mut f, &partial);
    let flops = summa_rounds::<S, Counted>(grid, a, b, exec, timer, fold);
    (c, f, flops)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dspgemm_mpi::run;
    use dspgemm_sparse::dense::Dense;
    use dspgemm_sparse::semiring::{MinPlus, U64Plus};
    use dspgemm_sparse::{Index, Triple};
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

    fn dedup_last(triples: &[Triple<u64>], n: Index) -> Vec<Triple<u64>> {
        let mut m = std::collections::BTreeMap::new();
        for t in triples {
            m.insert((t.row, t.col), t.val);
        }
        let _ = n;
        m.into_iter()
            .map(|((r, c), v)| Triple::new(r, c, v))
            .collect()
    }

    #[test]
    fn summa_matches_dense_reference() {
        let n: Index = 30;
        for p in [1usize, 4, 9] {
            let a_t = random_triples(50, n, 120);
            let b_t = random_triples(51, n, 120);
            let (a_ref, b_ref) = (a_t.clone(), b_t.clone());
            let out = run(p, move |comm| {
                let grid = Grid::new(comm);
                let mut timer = PhaseTimer::new();
                let feed = |t: &Vec<Triple<u64>>| {
                    if comm.rank() == 0 {
                        t.clone()
                    } else {
                        vec![]
                    }
                };
                let a = DistMat::from_global_triples(&grid, n, n, feed(&a_ref), 1, &mut timer);
                let b = DistMat::from_global_triples(&grid, n, n, feed(&b_ref), 1, &mut timer);
                let (c, flops) = summa::<U64Plus>(&grid, &a, &b, 1, &mut timer);
                (c.gather_to_root(comm), flops)
            });
            let da = Dense::from_triples::<U64Plus>(n, n, &dedup_last(&a_t, n));
            let db = Dense::from_triples::<U64Plus>(n, n, &dedup_last(&b_t, n));
            let expect = da.matmul::<U64Plus>(&db);
            let gathered = out.results[0].0.as_ref().unwrap();
            let got = Dense::from_triples::<U64Plus>(n, n, gathered);
            assert_eq!(got.diff(&expect), vec![], "p={p}");
        }
    }

    #[test]
    fn summa_min_plus() {
        let n: Index = 16;
        let out = run(4, move |comm| {
            let grid = Grid::new(comm);
            let mut timer = PhaseTimer::new();
            // Path graph weights: edge i -> i+1 of weight 1.
            let t: Vec<Triple<f64>> = if comm.rank() == 0 {
                (0..n - 1).map(|i| Triple::new(i, i + 1, 1.0)).collect()
            } else {
                vec![]
            };
            let a = DistMat::from_global_triples(&grid, n, n, t, 1, &mut timer);
            let (c, _) = summa::<MinPlus>(&grid, &a, &a, 1, &mut timer);
            c.gather_to_root(comm)
        });
        let got = out.results[0].as_ref().unwrap();
        // A² in (min,+) on a path: entries (i, i+2) with weight 2.
        assert_eq!(got.len(), (n - 2) as usize);
        assert!(got.iter().all(|t| t.col == t.row + 2 && t.val == 2.0));
    }

    #[test]
    fn summa_bloom_filter_consistency() {
        let n: Index = 24;
        let out = run(4, move |comm| {
            let grid = Grid::new(comm);
            let mut timer = PhaseTimer::new();
            let a_t = if comm.rank() == 0 {
                random_triples(60, n, 100)
            } else {
                vec![]
            };
            let b_t = if comm.rank() == 0 {
                random_triples(61, n, 100)
            } else {
                vec![]
            };
            let a = DistMat::from_global_triples(&grid, n, n, a_t, 1, &mut timer);
            let b = DistMat::from_global_triples(&grid, n, n, b_t, 1, &mut timer);
            let (c, f, _) = summa_bloom::<U64Plus>(&grid, &a, &b, 1, &mut timer);
            // F and C have identical patterns; every F value is non-zero.
            let ct = c.to_global_triples();
            let ft = f.to_global_triples();
            assert_eq!(ct.len(), ft.len());
            for (ce, fe) in ct.iter().zip(&ft) {
                assert_eq!((ce.row, ce.col), (fe.row, fe.col));
                assert_ne!(fe.val, 0);
            }
            // C itself matches the plain SUMMA result.
            let (c2, _) = summa::<U64Plus>(&grid, &a, &b, 1, &mut timer);
            assert_eq!(c.gather_to_root(comm), c2.gather_to_root(comm));
            true
        });
        assert!(out.results.iter().all(|&b| b));
    }

    #[test]
    fn summa_bcast_volume_scales_with_operands() {
        let n: Index = 64;
        let small = run(4, move |comm| {
            let grid = Grid::new(comm);
            let mut timer = PhaseTimer::new();
            let t = if comm.rank() == 0 {
                random_triples(70, n, 50)
            } else {
                vec![]
            };
            let a = DistMat::from_global_triples(&grid, n, n, t, 1, &mut timer);
            let (c, _) = summa::<U64Plus>(&grid, &a, &a, 1, &mut timer);
            c.local_nnz()
        });
        let big = run(4, move |comm| {
            let grid = Grid::new(comm);
            let mut timer = PhaseTimer::new();
            let t = if comm.rank() == 0 {
                random_triples(70, n, 2000)
            } else {
                vec![]
            };
            let a = DistMat::from_global_triples(&grid, n, n, t, 1, &mut timer);
            let (c, _) = summa::<U64Plus>(&grid, &a, &a, 1, &mut timer);
            c.local_nnz()
        });
        use dspgemm_mpi::CommCategory;
        assert!(
            big.stats.bytes_in(CommCategory::Bcast) > small.stats.bytes_in(CommCategory::Bcast)
        );
    }
}
