//! Edge cases of the two-phase update redistribution that the model-based
//! tests skip: per-rank empty tuple sets, total concentration of a batch
//! into a single block, index spaces smaller than the grid side (zero-width
//! blocks), the documented clean rejection of non-square process counts, the
//! order in which a lane of the shared exchange arrives, the global count a
//! counted lane delivers, and what a tuple and a tally cost on the wire.

use dspgemm_core::grid::{block_range, owner_block, Grid};
use dspgemm_core::redistribute::{redistribute, redistribute_lanes, Route, Routed};
use dspgemm_core::update::{apply_add, build_update_matrix, Dedup};
use dspgemm_core::DistMat;
use dspgemm_mpi::{run, CommCategory};
use dspgemm_sparse::semiring::U64Plus;
use dspgemm_sparse::{Index, Triple};
use dspgemm_util::rng::{Rng, SplitMix64};
use dspgemm_util::stats::PhaseTimer;

/// Only one rank (and not rank 0) contributes tuples; every other rank's
/// set is empty. Nothing may be lost, duplicated, or misrouted, and the
/// empty contributors must still complete both alltoall phases.
#[test]
fn single_nonzero_contributor_any_rank() {
    let n: Index = 30;
    for p in [4usize, 9] {
        for feeder in [1usize, p - 1] {
            let out = run(p, move |comm| {
                let grid = Grid::new(comm);
                let mine: Vec<Triple<u64>> = if comm.rank() == feeder {
                    (0..n)
                        .flat_map(|r| (0..n).map(move |c| Triple::new(r, c, (r * n + c) as u64)))
                        .collect()
                } else {
                    vec![]
                };
                let mut timer = PhaseTimer::new();
                let got = redistribute(&grid, n, n, mine, &mut timer);
                let (i, j) = grid.coords();
                let rr = block_range(n, grid.q(), i);
                let cr = block_range(n, grid.q(), j);
                assert!(got
                    .iter()
                    .all(|t| rr.contains(&t.row) && cr.contains(&t.col)));
                got.len()
            });
            let total: usize = out.results.iter().sum();
            assert_eq!(total, (n * n) as usize, "p={p} feeder={feeder}");
        }
    }
}

/// Every rank's whole batch targets one single block: that owner receives
/// everything (deduplicated correctly through the update-matrix build) and
/// all other ranks' update application is the no-op fast path that keeps
/// their blocks untouched.
#[test]
fn all_tuples_concentrated_in_one_block() {
    let n: Index = 30;
    let out = run(9, move |comm| {
        let grid = Grid::new(comm);
        let mut timer = PhaseTimer::new();
        // Target the last block: a cell owned by grid position (q-1, q-1).
        let target = n - 1;
        let mine: Vec<Triple<u64>> = (0..5)
            .map(|k| Triple::new(target, target - k, 1 + comm.rank() as u64))
            .collect();
        let mut mat = DistMat::<u64>::empty(&grid, n, n);
        let upd = build_update_matrix::<U64Plus>(&grid, n, n, mine, Dedup::Add, &mut timer);
        apply_add::<U64Plus>(&mut mat, &upd);
        (upd.local_nnz(), mat.local_nnz(), upd.global_nnz(&grid))
    });
    // Exactly one rank owns every tuple; the per-coordinate dedup summed
    // all 9 ranks' contributions into 5 stored entries.
    let owners: Vec<_> = out.results.iter().filter(|&&(u, _, _)| u > 0).collect();
    assert_eq!(owners.len(), 1);
    assert_eq!(owners[0].0, 5);
    assert_eq!(owners[0].1, 5);
    assert!(out.results.iter().all(|&(_, _, g)| g == 5));
    // Everyone else's dynamic block stayed empty (the no-op apply path).
    assert_eq!(out.results.iter().map(|&(_, m, _)| m).sum::<usize>(), 5);
}

/// An index space smaller than the grid side: `block_range(n, q, b)` hands
/// the trailing blocks width zero, so some grid rows/columns own nothing.
/// Routing must still deliver every tuple to the (unique) owning block and
/// zero-width ranks must receive nothing.
#[test]
fn index_space_smaller_than_grid_side() {
    let n: Index = 2; // q = 3 for p = 9: block widths are 1, 1, 0.
    let out = run(9, move |comm| {
        let grid = Grid::new(comm);
        let mut timer = PhaseTimer::new();
        let mine: Vec<Triple<u64>> = vec![
            Triple::new(0, 0, 1 + comm.rank() as u64),
            Triple::new(0, 1, 10),
            Triple::new(1, 0, 20),
            Triple::new(1, 1, 30),
        ];
        let got = redistribute(&grid, n, n, mine, &mut timer);
        let (i, j) = grid.coords();
        let rr = block_range(n, grid.q(), i);
        let cr = block_range(n, grid.q(), j);
        // Zero-width ranks receive nothing; owners receive their cell from
        // all 9 contributors.
        if rr.is_empty() || cr.is_empty() {
            assert!(got.is_empty());
        } else {
            assert_eq!(got.len(), 9, "each rank contributed my cell once");
            assert!(got
                .iter()
                .all(|t| rr.contains(&t.row) && cr.contains(&t.col)));
        }
        got.len()
    });
    let total: usize = out.results.iter().sum();
    assert_eq!(total, 4 * 9);
    // owner_block agrees with block_range on the degenerate decomposition.
    for x in 0..n {
        let (b, lo) = owner_block(n, 3, x);
        let r = block_range(n, 3, b);
        assert!(r.contains(&x));
        assert_eq!(lo, r.start);
    }
}

/// Empty batches on every rank still run both phases and build valid empty
/// update matrices whose application is a no-op (the COW fast path).
#[test]
fn empty_batches_everywhere_build_valid_empty_updates() {
    let out = run(4, |comm| {
        let grid = Grid::new(comm);
        let mut timer = PhaseTimer::new();
        let n: Index = 12;
        let mut mat = DistMat::from_global_triples(
            &grid,
            n,
            n,
            if comm.rank() == 0 {
                vec![Triple::new(1u32, 2u32, 7u64)]
            } else {
                vec![]
            },
            1,
            &mut timer,
        );
        let before = mat.snapshot_csr();
        let upd = build_update_matrix::<U64Plus>(&grid, n, n, vec![], Dedup::Add, &mut timer);
        apply_add::<U64Plus>(&mut mat, &upd);
        // The no-op apply left the cached snapshot image untouched: the
        // next publish re-shares the same `Arc` (COW) instead of
        // reconverting the block.
        let after = mat.snapshot_csr();
        (
            upd.local_nnz(),
            mat.local_nnz(),
            std::sync::Arc::ptr_eq(&before, &after),
        )
    });
    assert!(out.results.iter().all(|&(u, _, same)| u == 0 && same));
    assert_eq!(out.results.iter().map(|&(_, m, _)| m).sum::<usize>(), 1);
}

/// What grid position `(i, j)` feeds into lane `lane`: `count` draws from a
/// small index space, so coordinates repeat within and across ranks, each
/// value naming its origin and draw position — a reordering of equal
/// coordinates (the fold order of `Dedup::Add`) changes the sequence.
fn lane_input(
    dims: (Index, Index),
    q: usize,
    at: (usize, usize),
    lane: usize,
    count: usize,
) -> Vec<Triple<u64>> {
    let origin = (at.0 * q + at.1) as u64;
    let mut rng = SplitMix64::new(1000 * lane as u64 + origin);
    (0..count as u64)
        .map(|k| {
            let row = rng.gen_range(dims.0 as u64) as Index;
            let col = rng.gen_range(dims.1 as u64) as Index;
            Triple::new(row, col, (origin << 32) | k)
        })
        .collect()
}

/// The sequence two stable phases deliver to `(i, j)`: the column phase
/// concatenates by source grid column, and what each of those sources holds
/// after the row phase is concatenated by source grid row.
fn expected_arrival(
    route: &Route,
    q: usize,
    at: (usize, usize),
    input: impl Fn((usize, usize)) -> Vec<Triple<u64>>,
) -> Vec<Triple<u64>> {
    let owner = |t: &Triple<u64>| {
        let bi = owner_block(route.nrows, q, t.row).0;
        (bi, owner_block(route.ncols, q, t.col).0)
    };
    let mine = |t: &Triple<u64>| owner(t) == at;
    (0..q)
        .flat_map(|j| (0..q).map(move |i| (i, j)))
        .flat_map(|from| input(from).into_iter().filter(mine))
        .collect()
}

/// The lane exchange returns, per lane and *as a sequence*, exactly what one
/// `redistribute` per lane returns, and both return the closed-form arrival
/// order — so update matrices built from lanes fold duplicates in the order
/// separate builds did. Every rank learns each counted lane's global tuple
/// count, and no count for an uncounted one. Square and non-square shapes,
/// one with fewer columns than grid columns (a zero-width block), a lane of
/// the transposed shape, an empty lane, and a batch whose lanes are all
/// empty.
#[test]
fn lane_exchange_arrives_like_separate_redistributions() {
    let cases: [(usize, (Index, Index)); 4] =
        [(1, (23, 23)), (4, (23, 23)), (4, (19, 31)), (9, (30, 2))];
    for (p, (nrows, ncols)) in cases {
        for counts in [[40, 40, 0, 25], [0; 4]] {
            run(p, move |comm| {
                let grid = Grid::new(comm);
                let (q, at) = (grid.q(), grid.coords());
                let route = |(nrows, ncols), counted| Route {
                    nrows,
                    ncols,
                    counted,
                };
                let routes = [
                    route((nrows, ncols), false),
                    route((ncols, nrows), true),
                    route((nrows, ncols), true),
                    route((nrows, ncols), false),
                ];
                let input = |lane: usize, from: (usize, usize)| {
                    let Route { nrows, ncols, .. } = routes[lane];
                    lane_input((nrows, ncols), q, from, lane, counts[lane])
                };
                let mut timer = PhaseTimer::new();
                let lanes = (0..4).map(|lane| input(lane, at)).collect();
                let together = redistribute_lanes(&grid, &routes, lanes, &mut timer);
                assert_eq!(together.len(), 4);
                for (lane, Routed { tuples: got, count }) in together.into_iter().enumerate() {
                    let global = (p * counts[lane]) as u64;
                    assert_eq!(
                        count,
                        routes[lane].counted.then_some(global),
                        "p={p} lane={lane}"
                    );
                    let Route { nrows, ncols, .. } = routes[lane];
                    let alone = redistribute(&grid, nrows, ncols, input(lane, at), &mut timer);
                    let want = expected_arrival(&routes[lane], q, at, |from| input(lane, from));
                    assert_eq!(
                        got, want,
                        "p={p} lane={lane}: shared exchange moved the order"
                    );
                    assert_eq!(
                        alone, want,
                        "p={p} lane={lane}: lone exchange moved the order"
                    );
                }
            });
        }
    }
}

/// Counters only: uniform random `f64` tuples over n = 2^19 cost under
/// 12.75 B per tuple a phase moves off its rank — a lane bit-packs its
/// indices against the least row and column it holds, about 37 bits where
/// the fixed-width `Vec<Triple<f64>>` paid 64, beside the 8-byte value — and
/// the exchange stays `2·p·(√p − 1)` messages.
#[test]
fn alltoall_bytes_per_tuple_stay_packed() {
    const N: Index = 1 << 19;
    const PER_RANK: usize = 1 << 14;
    for p in [4usize, 9] {
        let out = run(p, move |comm| {
            let grid = Grid::new(comm);
            let (q, (i, j)) = (grid.q(), grid.coords());
            let mut rng = SplitMix64::new(0x9AC4 + comm.rank() as u64);
            let mine: Vec<Triple<f64>> = (0..PER_RANK)
                .map(|_| {
                    let row = rng.gen_range(N.into()) as Index;
                    let col = rng.gen_range(N.into()) as Index;
                    Triple::new(row, col, rng.gen_f64())
                })
                .collect();
            // The row phase moves a tuple off its grid row, the column phase
            // off its grid column; both decided by where it started.
            let moves = mine
                .iter()
                .map(|t| {
                    let off_row = owner_block(N, q, t.row).0 != i;
                    let off_col = owner_block(N, q, t.col).0 != j;
                    u64::from(off_row) + u64::from(off_col)
                })
                .sum::<u64>();
            let got = redistribute(&grid, N, N, mine, &mut PhaseTimer::new());
            (moves, got.len())
        });
        let moved: u64 = out.results.iter().map(|&(m, _)| m).sum();
        let kept: usize = out.results.iter().map(|&(_, k)| k).sum();
        assert_eq!(kept, p * PER_RANK, "p={p}: no tuple lost or duplicated");
        let q = (p as f64).sqrt() as u64;
        let (bytes, msgs) = (
            out.stats.bytes_in(CommCategory::Alltoall),
            out.stats.msgs_in(CommCategory::Alltoall),
        );
        assert_eq!(msgs, 2 * p as u64 * (q - 1), "p={p}: one exchange");
        let per_tuple = bytes as f64 / moved as f64;
        assert!(per_tuple < 12.75, "p={p}: {per_tuple:.3} B per tuple moved");
    }
}

/// Non-square process counts are rejected with the documented panic — the
/// clean fallback (the same restriction CombBLAS imposes), not a hang or a
/// wrong grid.
#[test]
#[should_panic(expected = "not a perfect square")]
fn non_square_process_count_rejected_cleanly() {
    run(8, |comm| {
        let _ = Grid::new(comm);
    });
}

/// A counted lane costs one 8-byte tally per message and nothing else: the
/// same tuples routed counted and uncounted send the same messages, and the
/// counted exchange `8` B more per message. Its count is global even when
/// one rank submits every tuple and the others nothing.
#[test]
fn a_tally_costs_eight_bytes_a_message() {
    let n: Index = 30;
    for p in [1usize, 4, 9] {
        let exchange = |counted: bool| {
            run(p, move |comm| {
                let grid = Grid::new(comm);
                let mine = match comm.rank() {
                    0 => lane_input((n, n), grid.q(), grid.coords(), 0, 50),
                    _ => Vec::new(),
                };
                let route = Route {
                    nrows: n,
                    ncols: n,
                    counted,
                };
                let mut timer = PhaseTimer::new();
                let mut got = redistribute_lanes(&grid, &[route], vec![mine], &mut timer);
                got.pop().expect("one lane")
            })
        };
        let (bare, counted) = (exchange(false), exchange(true));
        for (bare, counted) in bare.results.iter().zip(&counted.results) {
            assert_eq!(bare.tuples, counted.tuples, "p={p}");
            assert_eq!((bare.count, counted.count), (None, Some(50)), "p={p}");
        }
        let traffic = |out: &dspgemm_mpi::SimOutput<Routed<u64>>| {
            let cat = CommCategory::Alltoall;
            (out.stats.bytes_in(cat), out.stats.msgs_in(cat))
        };
        let (bare, counted) = (traffic(&bare), traffic(&counted));
        assert_eq!(counted.1, bare.1, "p={p}: messages");
        assert_eq!(counted.0, bare.0 + 8 * bare.1, "p={p}: bytes");
    }
}
