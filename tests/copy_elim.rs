//! Copy-elimination invariants, end to end: the shared (`Arc`) collectives
//! and the flat-buffer SpGEMM must produce bit-identical results and
//! identical wire-byte meters versus the clone-based paths — across
//! p ∈ {1, 4, 9} and both evaluated semirings.

use dspgemm::core::dyn_general::GeneralUpdates;
use dspgemm::core::spmv::{spmv, DistVec};
use dspgemm::core::summa::summa;
use dspgemm::core::{DistMat, DynSpGemm, Grid};
use dspgemm::sparse::local_mm::spgemm;
use dspgemm::sparse::semiring::{MinPlus, Semiring, U64Plus};
use dspgemm::sparse::{Csr, Index, RowScan, Triple};
use dspgemm::util::rng::{Rng, SplitMix64};
use dspgemm::util::stats::PhaseTimer;

fn random_triples<S: Semiring>(
    seed: u64,
    n: Index,
    count: usize,
    val: impl Fn(u64) -> S::Elem,
) -> Vec<Triple<S::Elem>> {
    let mut rng = SplitMix64::new(seed);
    (0..count)
        .map(|_| {
            Triple::new(
                rng.gen_range(n as u64) as Index,
                rng.gen_range(n as u64) as Index,
                val(rng.gen_range(9) + 1),
            )
        })
        .collect()
}

/// A clone-based sparse SUMMA replica: identical round structure and local
/// kernel to the library's [`summa`], but broadcasting owned blocks with
/// `bcast` (a deep copy per tree edge). The reference arm for meter-parity
/// checks.
fn summa_cloned<S: Semiring>(
    grid: &Grid,
    a: &DistMat<S::Elem>,
    b: &DistMat<S::Elem>,
) -> DistMat<S::Elem> {
    let q = grid.q();
    let (i, j) = grid.coords();
    let mut c = DistMat::empty(grid, a.info().nrows, b.info().ncols);
    let a_local: Csr<S::Elem> = a.block_csr();
    let b_local: Csr<S::Elem> = b.block_csr();
    for k in 0..q {
        let a_blk: Csr<S::Elem> = grid
            .row_comm()
            .bcast(k, if j == k { Some(a_local.clone()) } else { None });
        let b_blk: Csr<S::Elem> = grid
            .col_comm()
            .bcast(k, if i == k { Some(b_local.clone()) } else { None });
        let partial = spgemm::<S, _, _>(&a_blk, &b_blk, 1);
        let block = c.block_mut();
        partial.result.scan_rows(|r, cols, vals| {
            for (&cc, &v) in cols.iter().zip(vals) {
                block.add_entry::<S>(r, cc, v);
            }
        });
    }
    c
}

fn check_summa_parity<S: Semiring>(seed: u64, val: impl Fn(u64) -> S::Elem + Send + Sync + Copy) {
    let n: Index = 30;
    for p in [1usize, 4, 9] {
        let arm = |shared: bool| {
            dspgemm_mpi::run(p, move |comm| {
                let grid = Grid::new(comm);
                let mut timer = PhaseTimer::new();
                let feed = if comm.rank() == 0 {
                    random_triples::<S>(seed, n, 150, val)
                } else {
                    vec![]
                };
                let a = DistMat::from_global_triples(&grid, n, n, feed.clone(), 1, &mut timer);
                let b = DistMat::from_global_triples(&grid, n, n, feed, 1, &mut timer);
                let c = if shared {
                    summa::<S>(&grid, &a, &b, 1, &mut timer).0
                } else {
                    summa_cloned::<S>(&grid, &a, &b)
                };
                c.gather_to_root(comm)
            })
        };
        let cloned = arm(false);
        let shared = arm(true);
        // Bit-identical product, identical wire meters (bytes and messages,
        // every rank, every category).
        assert_eq!(cloned.results[0], shared.results[0], "p={p}");
        assert_eq!(cloned.stats.volume(), shared.stats.volume(), "p={p}");
    }
}

#[test]
fn summa_shared_matches_clone_replica_u64_plus() {
    check_summa_parity::<U64Plus>(11, |v| v);
}

#[test]
fn summa_shared_matches_clone_replica_min_plus() {
    check_summa_parity::<MinPlus>(13, |v| v as f64);
}

/// The full dynamic-update pipelines, on every grid and both semirings,
/// agree bit-identically with a static recomputation from scratch.
#[test]
fn algebraic_update_pipeline_is_zero_copy_and_exact() {
    let n: Index = 24;
    for p in [1usize, 4, 9] {
        let out = dspgemm_mpi::run(p, move |comm| {
            let grid = Grid::new(comm);
            let mut timer = PhaseTimer::new();
            let feed = if comm.rank() == 0 {
                random_triples::<U64Plus>(21, n, 100, |v| v)
            } else {
                vec![]
            };
            let a = DistMat::from_global_triples(&grid, n, n, feed.clone(), 1, &mut timer);
            let b = DistMat::from_global_triples(&grid, n, n, feed, 1, &mut timer);
            let mut eng = DynSpGemm::<U64Plus>::new(&grid, a, b, 1, false);
            for round in 0..2u64 {
                let ups = random_triples::<U64Plus>(50 + round + comm.rank() as u64, n, 12, |v| v);
                eng.apply_algebraic(&grid, ups, vec![]);
            }
            let (c_static, _) = summa::<U64Plus>(&grid, &eng.a, &eng.b, 1, &mut timer);
            eng.c.gather_to_root(comm) == c_static.gather_to_root(comm)
        });
        assert!(out.results.iter().all(|&eq| eq), "p={p}");
    }
}

#[test]
fn general_update_pipeline_is_zero_copy_and_exact_min_plus() {
    let n: Index = 20;
    for p in [1usize, 4, 9] {
        let out = dspgemm_mpi::run(p, move |comm| {
            let grid = Grid::new(comm);
            let mut timer = PhaseTimer::new();
            let feed = if comm.rank() == 0 {
                random_triples::<MinPlus>(31, n, 80, |v| v as f64)
            } else {
                vec![]
            };
            let a = DistMat::from_global_triples(&grid, n, n, feed.clone(), 1, &mut timer);
            let b = DistMat::from_global_triples(&grid, n, n, feed, 1, &mut timer);
            let mut eng = DynSpGemm::<MinPlus>::new(&grid, a, b, 1, true);
            // Value increases (min-plus-incompatible) plus deletions.
            let a_cur = eng.a.gather_to_root(comm);
            let upd = if comm.rank() == 0 {
                let cur = a_cur.unwrap();
                let mut upd = GeneralUpdates::new();
                for (idx, t) in cur.iter().enumerate() {
                    if idx % 3 == 0 {
                        upd.sets.push(Triple::new(t.row, t.col, t.val + 7.0));
                    } else if idx % 3 == 1 {
                        upd.deletes.push((t.row, t.col));
                    }
                }
                upd
            } else {
                GeneralUpdates::new()
            };
            eng.apply_general(&grid, upd, GeneralUpdates::new());
            let (c_static, _) = summa::<MinPlus>(&grid, &eng.a, &eng.b, 1, &mut timer);
            eng.c.gather_to_root(comm) == c_static.gather_to_root(comm)
        });
        assert!(out.results.iter().all(|&eq| eq), "p={p}");
    }
}

/// SpMV's reduce + zero-copy broadcast-back agrees value- and meter-wise
/// with a clone-based allreduce replica of the same aggregation.
#[test]
fn spmv_aggregation_matches_clone_based_allreduce() {
    let n: Index = 37;
    for p in [1usize, 4, 9] {
        let arm = |shared: bool| {
            dspgemm_mpi::run(p, move |comm| {
                let grid = Grid::new(comm);
                let mut timer = PhaseTimer::new();
                let feed = if comm.rank() == 0 {
                    random_triples::<U64Plus>(41, n, 200, |v| v)
                } else {
                    vec![]
                };
                let a = DistMat::from_global_triples(&grid, n, n, feed, 1, &mut timer);
                let x = DistVec::from_fn(&grid, n, |i| (i as u64) % 5 + 1);
                if shared {
                    let (y, _) = spmv::<U64Plus>(&grid, &a, &x);
                    y.to_global(&grid)
                } else {
                    // Replica: same local multiply, aggregation via the
                    // legacy clone-based allreduce (reduce + bcast, the
                    // pre-zero-copy wire pattern).
                    let mut y_part = vec![0u64; a.info().local_rows() as usize];
                    a.block().scan_rows(|r, cols, vals| {
                        for (&c, &v) in cols.iter().zip(vals) {
                            y_part[r as usize] += v * x.seg()[c as usize];
                        }
                    });
                    let reduced = grid.row_comm().reduce(0, y_part, |mut acc, other| {
                        for (a_el, b_el) in acc.iter_mut().zip(other) {
                            *a_el += b_el;
                        }
                        acc
                    });
                    let seg = grid.row_comm().bcast(0, reduced);
                    // Row-aligned: the grid column's ranks hold the blocks.
                    grid.col_comm()
                        .allgather(seg)
                        .into_iter()
                        .flatten()
                        .collect::<Vec<u64>>()
                }
            })
        };
        let cloned = arm(false);
        let shared = arm(true);
        assert_eq!(cloned.results, shared.results, "p={p}");
        assert_eq!(cloned.stats.volume(), shared.stats.volume(), "p={p}");
    }
}
