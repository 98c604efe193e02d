//! Pins what one batch through each update entry point — and the initial
//! product under it — puts on the wire and into `C`: per-category
//! `(bytes, messages)`, the flop count and a fingerprint of the gathered
//! product, at p = 4 with fixed seeds, against constants. A refactor of the
//! algorithm modules must leave every constant alone — same collectives,
//! same tags, same merge order, same program.

use dspgemm::analytics::AnalyticsSession;
use dspgemm::core::dyn_algebraic::{apply_algebraic_updates_mode_exec, TransposeMode};
use dspgemm::core::dyn_general::{apply_general_updates_mode_exec, GeneralUpdates};
use dspgemm::core::summa::{summa, summa_bloom};
use dspgemm::core::{DistMat, DynSpGemm, Grid};
use dspgemm::mpi::{Comm, CommCategory, NUM_CATEGORIES};
use dspgemm::sparse::semiring::U64Plus;
use dspgemm::sparse::{Index, Triple};
use dspgemm::util::rng::{Rng, SplitMix64};
use dspgemm::util::stats::PhaseTimer;

const P: usize = 4;
const N: Index = 48;

/// `(bytes, messages)` per [`CommCategory`], in index order: p2p, bcast,
/// gather, alltoall, reduce, barrier.
type Volume = [(u64, u64); NUM_CATEGORIES];

/// What one batch did, summed over ranks.
#[derive(Debug, PartialEq, Eq)]
struct Pinned {
    volume: Volume,
    flops: u64,
    c_nnz: usize,
    c_hash: u64,
}

fn triples(seed: u64, count: usize) -> Vec<Triple<u64>> {
    let mut rng = SplitMix64::new(seed);
    (0..count)
        .map(|_| {
            Triple::new(
                rng.gen_range(N as u64) as Index,
                rng.gen_range(N as u64) as Index,
                rng.gen_range(7) + 1,
            )
        })
        .collect()
}

/// Every third stored entry (by draw order) of the seed's matrix: positions
/// that exist, so deletions and overwrites change `C`.
fn existing(seed: u64, count: usize) -> Vec<(Index, Index)> {
    triples(seed, count)
        .iter()
        .step_by(3)
        .map(|t| (t.row, t.col))
        .collect()
}

/// FNV-1a over the root-gathered (row-major sorted) triples.
fn fingerprint(c: &[Triple<u64>]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for t in c {
        for word in [t.row as u64, t.col as u64, t.val] {
            for byte in word.to_le_bytes() {
                h = (h ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

/// This rank's own send counters. They move only on its own sends, so the
/// difference across a call is exact whatever the other ranks are doing.
fn own_volume(comm: &Comm) -> Volume {
    let stats = comm.comm_stats();
    let mine = &stats.per_rank[comm.rank()];
    let mut v = [(0, 0); NUM_CATEGORIES];
    for cat in CommCategory::all() {
        v[cat as usize] = (mine.bytes[cat as usize], mine.msgs[cat as usize]);
    }
    v
}

/// Runs `batch` between two fences and returns what it sent (this rank)
/// and the flops it added.
fn measure<T>(
    comm: &Comm,
    state: &mut T,
    flops: impl Fn(&T) -> u64,
    batch: impl FnOnce(&mut T),
) -> (Volume, u64) {
    comm.barrier();
    let (v0, f0) = (own_volume(comm), flops(state));
    batch(state);
    let (v1, f1) = (own_volume(comm), flops(state));
    comm.barrier();
    let mut d = [(0, 0); NUM_CATEGORIES];
    for k in 0..NUM_CATEGORIES {
        d[k] = (v1[k].0 - v0[k].0, v1[k].1 - v0[k].1);
    }
    (d, f1 - f0)
}

/// One rank's measurement: what it sent, the flops it added, and on rank 0
/// the gathered `C`.
type RankResult = (Volume, u64, Option<Vec<Triple<u64>>>);

/// Sums the per-rank measurements and fingerprints the gathered `C`.
fn pin(results: Vec<RankResult>) -> Pinned {
    let mut volume = [(0, 0); NUM_CATEGORIES];
    let mut flops = 0;
    for (v, f, _) in &results {
        for k in 0..NUM_CATEGORIES {
            volume[k].0 += v[k].0;
            volume[k].1 += v[k].1;
        }
        flops += f;
    }
    let c = results[0].2.as_ref().expect("rank 0 gathers C");
    Pinned {
        volume,
        flops,
        c_nnz: c.len(),
        c_hash: fingerprint(c),
    }
}

/// One batch through a two-operand engine. The engine runs the virtual
/// schedule; under [`TransposeMode::Physical`] the batch drives the
/// function-level entry on the engine's fields, then publishes as the engine
/// would.
fn engine_batch(
    track_filter: bool,
    mode: TransposeMode,
    batch: impl Fn(&mut DynSpGemm<U64Plus>, &Grid, &Comm, TransposeMode) + Send + Sync,
) -> Pinned {
    let out = dspgemm::mpi::run(P, |comm| {
        let grid = Grid::new(comm);
        let mut timer = PhaseTimer::new();
        let r = comm.rank() as u64;
        let a = DistMat::from_global_triples(&grid, N, N, triples(10 + r, 90), 1, &mut timer);
        let b = DistMat::from_global_triples(&grid, N, N, triples(20 + r, 90), 1, &mut timer);
        let mut eng = DynSpGemm::<U64Plus>::new(&grid, a, b, 1, track_filter);
        let (volume, flops) = measure(comm, &mut eng, |e| e.flops, |e| batch(e, &grid, comm, mode));
        (volume, flops, eng.c.gather_to_root(comm))
    });
    pin(out.results)
}

fn algebraic(eng: &mut DynSpGemm<U64Plus>, grid: &Grid, comm: &Comm, mode: TransposeMode) {
    let r = comm.rank() as u64;
    let (a_ups, b_ups) = (triples(30 + r, 24), triples(40 + r, 24));
    match mode {
        TransposeMode::Virtual => eng.apply_algebraic(grid, a_ups, b_ups),
        TransposeMode::Physical => {
            eng.flops += apply_algebraic_updates_mode_exec::<U64Plus>(
                grid,
                &mut eng.a,
                &mut eng.b,
                &mut eng.c,
                eng.f.as_mut(),
                a_ups,
                b_ups,
                mode,
                &eng.exec,
                &mut eng.timer,
            );
            eng.publish();
        }
    }
}

fn general(eng: &mut DynSpGemm<U64Plus>, grid: &Grid, comm: &Comm, mode: TransposeMode) {
    let r = comm.rank() as u64;
    let a_upd = GeneralUpdates {
        sets: triples(50 + r, 12),
        deletes: existing(10 + r, 90),
    };
    let b_upd = GeneralUpdates {
        sets: triples(60 + r, 12),
        deletes: existing(20 + r, 90).into_iter().take(8).collect(),
    };
    match mode {
        TransposeMode::Virtual => eng.apply_general(grid, a_upd, b_upd),
        TransposeMode::Physical => {
            eng.flops += apply_general_updates_mode_exec::<U64Plus>(
                grid,
                &mut eng.a,
                &mut eng.b,
                &mut eng.c,
                eng.f.as_mut().expect("general arms track the filter"),
                a_upd,
                b_upd,
                mode,
                &eng.exec,
                &mut eng.timer,
            );
            eng.publish();
        }
    }
}

/// One batch through the shared-operand analytics session.
fn session_batch(batch: impl Fn(&mut AnalyticsSession<U64Plus>, &Comm) + Send + Sync) -> Pinned {
    let out = dspgemm::mpi::run(P, |comm| {
        let r = comm.rank() as u64;
        let mut s = AnalyticsSession::<U64Plus>::from_triples(comm, N, 1, triples(70 + r, 90));
        let (volume, flops) = measure(comm, &mut s, |s| s.flops, |s| batch(s, comm));
        (volume, flops, s.product().gather_to_root(comm))
    });
    pin(out.results)
}

// Captured at the parent of the entry-point collapse (commit cf8556b), before
// any source file was edited. The physical arms differ from the virtual ones
// by the transpose exchange alone (p2p up, one redistribution per operand
// down); tracking the filter widens the merge-reduced partials, nothing else.

/// No path gathers or fences inside a batch.
fn volume(p2p: (u64, u64), bcast: (u64, u64), alltoall: (u64, u64), reduce: (u64, u64)) -> Volume {
    [p2p, bcast, (0, 0), alltoall, reduce, (0, 0)]
}

fn algebraic_pinned(p2p: (u64, u64), alltoall: (u64, u64), reduce_bytes: u64) -> Pinned {
    Pinned {
        volume: volume(p2p, (3912, 11), alltoall, (reduce_bytes, 11)),
        flops: 1443,
        c_nnz: 1812,
        c_hash: 16329019101903906533,
    }
}

#[test]
fn engine_algebraic_untracked() {
    assert_eq!(
        engine_batch(false, TransposeMode::Virtual, algebraic),
        algebraic_pinned((0, 0), (6304, 32), 10044)
    );
    assert_eq!(
        engine_batch(false, TransposeMode::Physical, algebraic),
        algebraic_pinned((1908, 4), (3104, 16), 10044)
    );
}

#[test]
fn engine_algebraic_tracked() {
    assert_eq!(
        engine_batch(true, TransposeMode::Virtual, algebraic),
        algebraic_pinned((0, 0), (6304, 32), 15420)
    );
    assert_eq!(
        engine_batch(true, TransposeMode::Physical, algebraic),
        algebraic_pinned((1908, 4), (3104, 16), 15420)
    );
}

#[test]
fn engine_general() {
    let pinned = |p2p, alltoall| Pinned {
        volume: volume(p2p, (15228, 21), alltoall, (21832, 17)),
        flops: 2868,
        c_nnz: 1309,
        c_hash: 17350063023210219168,
    };
    assert_eq!(
        engine_batch(true, TransposeMode::Virtual, general),
        pinned((2136, 2), (8320, 48))
    );
    assert_eq!(
        engine_batch(true, TransposeMode::Physical, general),
        pinned((4380, 6), (4176, 32))
    );
}

#[test]
fn session_insert_edges() {
    let got = session_batch(|s, comm| s.insert_edges(triples(80 + comm.rank() as u64, 24)));
    let want = Pinned {
        volume: volume((1152, 2), (4008, 11), (1568, 8), (17288, 11)),
        flops: 1371,
        c_nnz: 1746,
        c_hash: 14088288244150611198,
    };
    assert_eq!(got, want);
}

#[test]
fn session_delete_edges() {
    let got = session_batch(|s, comm| s.delete_edges(existing(70 + comm.rank() as u64, 90)));
    let want = Pinned {
        volume: volume((3000, 4), (13832, 21), (1952, 16), (13456, 17)),
        flops: 1621,
        c_nnz: 738,
        c_hash: 6929140722947548998,
    };
    assert_eq!(got, want);
}

/// The initial product on the engine arms' operands: `summa` and
/// `summa_bloom` move the same panels, count the same flops and build the
/// same `C` at any thread count; the fused one also fills `F`, pinned as
/// `(nnz, fingerprint)` of its gathered entries.
fn initial_product(bloom: bool, threads: usize) -> (Pinned, Option<(usize, u64)>) {
    let out = dspgemm::mpi::run(P, |comm| {
        let grid = Grid::new(comm);
        let mut timer = PhaseTimer::new();
        let r = comm.rank() as u64;
        let a = DistMat::from_global_triples(&grid, N, N, triples(10 + r, 90), 1, &mut timer);
        let b = DistMat::from_global_triples(&grid, N, N, triples(20 + r, 90), 1, &mut timer);
        let mut state = (0u64, None, None);
        let (volume, flops) = measure(
            comm,
            &mut state,
            |s| s.0,
            |s| {
                *s = if bloom {
                    let (c, f, flops) = summa_bloom::<U64Plus>(&grid, &a, &b, threads, &mut timer);
                    (flops, Some(c), Some(f))
                } else {
                    let (c, flops) = summa::<U64Plus>(&grid, &a, &b, threads, &mut timer);
                    (flops, Some(c), None)
                };
            },
        );
        let c = state.1.expect("the product ran").gather_to_root(comm);
        let f = state.2.and_then(|f| f.gather_to_root(comm));
        ((volume, flops, c), f)
    });
    let (per_rank, f): (Vec<RankResult>, Vec<_>) = out.results.into_iter().unzip();
    let f = f[0].as_ref().map(|f| (f.len(), fingerprint(f)));
    (pin(per_rank), f)
}

// Captured at commit 26260fe, before the kernel and round bodies were merged.
#[test]
fn initial_product_summa_and_summa_bloom() {
    let want = || Pinned {
        volume: volume((0, 0), (9732, 8), (0, 0), (0, 0)),
        flops: 2354,
        c_nnz: 1482,
        c_hash: 12397133111747597061,
    };
    for threads in [1, 3] {
        assert_eq!(
            initial_product(false, threads),
            (want(), None),
            "t={threads}"
        );
        let f = Some((1482, 2172929750072179624));
        assert_eq!(initial_product(true, threads), (want(), f), "t={threads}");
    }
}
