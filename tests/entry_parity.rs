//! Pins what one batch through each update entry point — and the initial
//! product under it — puts on the wire and into `C`: per-category
//! `(bytes, messages)`, the flop count and a fingerprint of the gathered
//! product, at p = 4 with fixed seeds, against constants. A refactor of the
//! algorithm modules must leave every constant alone — same collectives,
//! same tags, same merge order, same program.

use dspgemm::analytics::AnalyticsSession;
use dspgemm::core::dyn_general::GeneralUpdates;
use dspgemm::core::summa::{summa, summa_bloom};
use dspgemm::core::{DistMat, DynSpGemm, Grid};
use dspgemm::mpi::{Comm, CommCategory, NUM_CATEGORIES};
use dspgemm::sparse::semiring::{MinPlus, Semiring, U64Plus};
use dspgemm::sparse::{Index, Triple};
use dspgemm::util::rng::{Rng, SplitMix64};
use dspgemm::util::stats::PhaseTimer;
use std::sync::Arc;

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

/// FNV-1a over the little-endian bytes of `words`.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for word in words {
        for byte in word.to_le_bytes() {
            h = (h ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// FNV-1a over the root-gathered (row-major sorted) triples.
fn fingerprint(c: &[Triple<u64>]) -> u64 {
    fnv(c.iter().flat_map(|t| [t.row as u64, t.col as u64, t.val]))
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

/// A semiring an engine arm runs on: how a drawn value enters it, and how
/// a value of `C` enters the fingerprint.
trait Arm: Semiring {
    fn lift(v: u64) -> Self::Elem;
    fn bits(v: Self::Elem) -> u64;
}

impl Arm for U64Plus {
    fn lift(v: u64) -> u64 {
        v
    }

    fn bits(v: u64) -> u64 {
        v
    }
}

impl Arm for MinPlus {
    fn lift(v: u64) -> f64 {
        v as f64
    }

    fn bits(v: f64) -> u64 {
        v.to_bits()
    }
}

/// [`triples`] with its values in `S`.
fn drawn<S: Arm>(seed: u64, count: usize) -> Vec<Triple<S::Elem>> {
    let lift = |t: Triple<u64>| Triple::new(t.row, t.col, S::lift(t.val));
    triples(seed, count).into_iter().map(lift).collect()
}

/// One batch through a two-operand engine.
fn engine_batch<S: Arm>(
    track_filter: bool,
    batch: impl Fn(&mut DynSpGemm<S>, &Grid, &Comm) + Send + Sync,
) -> Pinned {
    let out = dspgemm::mpi::run(P, |comm| {
        let grid = Grid::new(comm);
        let mut timer = PhaseTimer::new();
        let r = comm.rank() as u64;
        let a = DistMat::from_global_triples(&grid, N, N, drawn::<S>(10 + r, 90), 1, &mut timer);
        let b = DistMat::from_global_triples(&grid, N, N, drawn::<S>(20 + r, 90), 1, &mut timer);
        let mut eng = DynSpGemm::<S>::new(&grid, a, b, 1, track_filter);
        let (volume, flops) = measure(comm, &mut eng, |e| e.flops, |e| batch(e, &grid, comm));
        let c = eng.c.gather_to_root(comm).map(|c| {
            let bits = |t: Triple<S::Elem>| Triple::new(t.row, t.col, S::bits(t.val));
            c.into_iter().map(bits).collect()
        });
        (volume, flops, c)
    });
    pin(out.results)
}

fn algebraic<S: Arm>(eng: &mut DynSpGemm<S>, grid: &Grid, comm: &Comm) {
    let r = comm.rank() as u64;
    eng.apply_algebraic(grid, drawn::<S>(30 + r, 24), drawn::<S>(40 + r, 24));
}

fn general<S: Arm>(eng: &mut DynSpGemm<S>, grid: &Grid, comm: &Comm) {
    let r = comm.rank() as u64;
    let a_upd = GeneralUpdates {
        sets: drawn::<S>(50 + r, 12),
        deletes: existing(10 + r, 90),
    };
    let b_upd = GeneralUpdates {
        sets: drawn::<S>(60 + r, 12),
        deletes: existing(20 + r, 90).into_iter().take(8).collect(),
    };
    eng.apply_general(grid, a_upd, b_upd);
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
// any source file was edited; tracking the filter widens the merge-reduced
// partials, nothing else. The `Alltoall` and `P2p` columns were re-pinned
// when every update matrix of a batch became a lane of one redistribution
// and the session moved onto the virtual schedule — one exchange of 8
// messages per batch, the `A^R` exchange of a general batch the only p2p.
// The byte counts of everything that ships a `Dcsr` — `Bcast`, `Reduce` and
// that `A^R` exchange — were re-pinned when its index structure became
// gap-coded varints; no message count, flop count or fingerprint moved.
// The `Alltoall` bytes were re-pinned when the redistribution's lanes began
// to travel bit-packed against their least row and column, in the order they
// were sent; nothing else moved. The `Gather` column appeared when the
// unmasked X pass began to gather each rank's star block and the `B′` rows
// it selects instead of merge-reducing its partial products: four messages
// per batch moved from `Reduce` to `Gather` (q rounds of q − 1 per process
// column), and the bytes of the two together fell; no flop count or
// fingerprint moved. The `Bcast`, `Reduce` and `Alltoall` columns were
// re-pinned when a batch's global update counts began to ride its
// redistribution: the nnz allreduce left (p − 1 = 3 messages each from
// `Bcast` and `Reduce`, of 16 B for a pair's `[u64; 2]` and 8 B for a
// session's `u64`), and each of the 8 `Alltoall` messages gained one 8-byte
// tally per root lane (two for a pair, one for a session); nothing else
// moved. The tracked and session rows were re-pinned when a tracked
// `U64Plus` engine began to count paths in `F` and to run both batch kinds
// through Algorithm 1 on each entry's `(new − old, Δpresence)`: its
// redistribution lost the root lanes (natural lanes only, each counted), a
// `P2p` exchange of the difference blocks to the transposed rank appeared
// (p − √p = 2 messages), its broadcast and gathered star blocks gained one
// byte per entry, and its general batch and session delete left the filter
// reduce, the `A^R` exchange and the masked rounds (fewer `Bcast` and
// `Reduce` messages, fewer flops). No `C` moved; `engine_general_min_plus`
// keeps Algorithm 2's row.

/// Nothing fences inside a batch.
fn volume(
    p2p: (u64, u64),
    bcast: (u64, u64),
    gather: (u64, u64),
    alltoall: (u64, u64),
    reduce: (u64, u64),
) -> Volume {
    [p2p, bcast, gather, alltoall, reduce, (0, 0)]
}

fn algebraic_pinned(volume: Volume) -> Pinned {
    Pinned {
        volume,
        flops: 1443,
        c_nnz: 1812,
        c_hash: 16329019101903906533,
    }
}

#[test]
fn engine_algebraic_untracked() {
    let want = volume((0, 0), (2010, 8), (3342, 4), (4293, 8), (2809, 4));
    assert_eq!(
        engine_batch(false, algebraic::<U64Plus>),
        algebraic_pinned(want)
    );
}

#[test]
fn engine_algebraic_tracked() {
    let want = volume((1094, 2), (2196, 8), (3436, 4), (2213, 8), (5105, 4));
    assert_eq!(
        engine_batch(true, algebraic::<U64Plus>),
        algebraic_pinned(want)
    );
}

#[test]
fn engine_general() {
    let want = Pinned {
        volume: volume((1332, 2), (2794, 8), (4612, 4), (3167, 8), (4078, 4)),
        flops: 1692,
        c_nnz: 1309,
        c_hash: 17350063023210219168,
    };
    assert_eq!(engine_batch(true, general::<U64Plus>), want);
}

/// Algorithm 2 itself, on a semiring without an exact inverse: the `U64Plus`
/// rows above count paths and run Algorithm 1 on every batch, so this row
/// holds the bytes of the filter reduce, the `A^R` exchange and the masked
/// rounds. Captured before tracked `U64Plus` batches left Algorithm 2, and
/// equal to `engine_general`'s row at that commit in all but the
/// fingerprint: every message is shaped by patterns, and `f64` and `u64`
/// values are both 8 B.
#[test]
fn engine_general_min_plus() {
    let want = Pinned {
        volume: volume((1268, 2), (6857, 18), (2166, 4), (5671, 8), (10834, 10)),
        flops: 2868,
        c_nnz: 1309,
        c_hash: 6616017446337550622,
    };
    assert_eq!(engine_batch(true, general::<MinPlus>), want);
}

#[test]
fn session_insert_edges() {
    let got = session_batch(|s, comm| drop(s.insert_edges(triples(80 + comm.rank() as u64, 24))));
    let want = Pinned {
        volume: volume((664, 2), (2216, 8), (3917, 4), (1150, 8), (6201, 4)),
        flops: 1371,
        c_nnz: 1746,
        c_hash: 14088288244150611198,
    };
    assert_eq!(got, want);
}

#[test]
fn session_delete_edges() {
    let got = session_batch(|s, comm| drop(s.delete_edges(existing(70 + comm.rank() as u64, 90))));
    let want = Pinned {
        volume: volume((648, 2), (2696, 8), (2763, 4), (1464, 8), (5674, 4)),
        flops: 1237,
        c_nnz: 738,
        c_hash: 6929140722947548998,
    };
    assert_eq!(got, want);
}

/// What a product call hands back: its flops, `C`, and `F` if it builds one.
type Product = (u64, DistMat<u64>, Option<DistMat<u64>>);

/// A product on the engine arms' operands: what it moved, its flops, `C`,
/// and `F` as `(nnz, fingerprint)` of its gathered entries.
fn product(
    run: impl Fn(&Grid, &DistMat<u64>, &DistMat<u64>, &mut PhaseTimer) -> Product + Send + Sync,
) -> (Pinned, Option<(usize, u64)>) {
    let out = dspgemm::mpi::run(P, |comm| {
        let grid = Grid::new(comm);
        let mut timer = PhaseTimer::new();
        let r = comm.rank() as u64;
        let a = DistMat::from_global_triples(&grid, N, N, triples(10 + r, 90), 1, &mut timer);
        let b = DistMat::from_global_triples(&grid, N, N, triples(20 + r, 90), 1, &mut timer);
        let mut out = None;
        let run = |out: &mut Option<Product>| *out = Some(run(&grid, &a, &b, &mut timer));
        let (volume, _) = measure(comm, &mut out, |_| 0, run);
        let (flops, c, f) = out.expect("the product ran");
        let f = f.and_then(|f| f.gather_to_root(comm));
        ((volume, flops, c.gather_to_root(comm)), f)
    });
    let (per_rank, f): (Vec<RankResult>, Vec<_>) = out.results.into_iter().unzip();
    let f = f[0].as_ref().map(|f| (f.len(), fingerprint(f)));
    (pin(per_rank), f)
}

/// `summa` and `summa_bloom` move the same panels, count the same flops and
/// build the same `C`; the fused one also fills `F`.
// Captured at commit 26260fe, before the kernel and round bodies were merged.
#[test]
fn initial_product_summa_and_summa_bloom() {
    let want = || Pinned {
        volume: volume((0, 0), (9732, 8), (0, 0), (0, 0), (0, 0)),
        flops: 2354,
        c_nnz: 1482,
        c_hash: 12397133111747597061,
    };
    let plain = product(|grid, a, b, timer| {
        let (c, flops) = summa::<U64Plus>(grid, a, b, 1, timer);
        (flops, c, None)
    });
    assert_eq!(plain, (want(), None));
    let fused = product(|grid, a, b, timer| {
        let (c, f, flops) = summa_bloom::<U64Plus>(grid, a, b, 1, timer);
        (flops, c, Some(f))
    });
    let f = Some((1482, 2172929750072179624));
    assert_eq!(fused, (want(), f));
}

/// `bcast` of a vector, `bcast_shared`, `alltoallv`, `allreduce` (with an
/// order-sensitive operator) and `allgather` on `c`, with non-zero roots and
/// rank-dependent sizes; returns what the calls returned, in call order.
fn collective_sequence(c: &Comm) -> Vec<u64> {
    let (p, me) = (c.size(), c.rank());
    let at = |root: usize, len: u64| (me == root).then(|| (0..len).map(|x| 3 * x + 1).collect());
    let mut got: Vec<u64> = c.bcast(p - 1, at(p - 1, 11));
    got.extend(c.bcast_shared(1, at(1, 5).map(Arc::new)).iter());
    let chunks = (0..p).map(|d| vec![(100 * me + d) as u64; (me + d) % 4]);
    got.extend(c.alltoallv(chunks.collect()).into_iter().flatten());
    got.push(c.allreduce(me as u64 + 1, |x, y| 31 * x + y));
    let mine = vec![me as u64; me % 3 + 1];
    got.extend(c.allgather(mine).into_iter().flatten());
    got
}

/// Runs the sequence on the world or on each rank's process row. One row
/// per rank: `(bytes, msgs)` it sent as bcast, gather, alltoall and reduce
/// (nothing else moves), then the fingerprint of what the calls returned.
fn collectives(p: usize, on_row: bool) -> Vec<[u64; 9]> {
    let out = dspgemm::mpi::run(p, |comm| {
        let grid = Grid::new(comm);
        let c = if on_row { grid.row_comm() } else { comm };
        let mut got = Vec::new();
        let (v, _) = measure(comm, &mut got, |_| 0, |got| *got = collective_sequence(c));
        assert_eq!((v[0], v[5]), ((0, 0), (0, 0)), "p2p and barrier are silent");
        let [b, g, a, r] = [v[1], v[2], v[3], v[4]];
        [b.0, b.1, g.0, g.1, a.0, a.1, r.0, r.1, fnv(got)]
    });
    out.results
}

// Captured at commit e715e38, while `bcast` / `bcast_shared` / `alltoallv`
// had blocking bodies of their own. Rows of the grid run the same program,
// so on the row communicators column `j`'s pin repeats down the grid.
#[test]
fn collective_sequence_volumes() {
    let world4 = [
        [16, 2, 64, 3, 72, 3, 0, 0, 521074666004141480],
        [192, 3, 56, 3, 56, 3, 8, 1, 631116340582806871],
        [8, 1, 72, 3, 72, 3, 8, 1, 11263259556473340496],
        [240, 3, 72, 3, 56, 3, 8, 1, 16918165154435520343],
    ];
    let row4 = [
        [8, 1, 16, 1, 16, 1, 0, 0, 223600696783109167],
        [144, 2, 24, 1, 16, 1, 8, 1, 3080606297268059530],
    ];
    let world9 = [
        [32, 4, 192, 8, 160, 8, 0, 0, 4924437565379474977],
        [288, 5, 184, 8, 152, 8, 8, 1, 14363332867447291202],
        [8, 1, 200, 8, 176, 8, 8, 1, 112617082569597417],
        [240, 3, 192, 8, 168, 8, 8, 1, 13390421993322310184],
        [16, 2, 184, 8, 160, 8, 8, 1, 16189442156791702673],
        [192, 3, 200, 8, 152, 8, 8, 1, 15849201811199467494],
        [8, 1, 192, 8, 176, 8, 8, 1, 14568610836811551441],
        [48, 1, 184, 8, 168, 8, 8, 1, 9358545875003526444],
        [384, 4, 200, 8, 160, 8, 8, 1, 12790223802613332705],
    ];
    let row9 = [
        [16, 2, 48, 2, 40, 2, 0, 0, 12090226120029204642],
        [96, 2, 40, 2, 48, 2, 8, 1, 16696043834005211374],
        [192, 2, 56, 2, 56, 2, 8, 1, 1032327266911162872],
    ];
    for (p, world, row) in [(4, &world4[..], &row4[..]), (9, &world9[..], &row9[..])] {
        assert_eq!(collectives(p, false), world, "p={p}");
        assert_eq!(collectives(p, true), row.repeat(row.len()), "p={p}");
    }
}
