//! Communication-volume assertions — the paper's headline claims, checked
//! as hard test invariants rather than just benchmarks.

use dspgemm::analytics::AnalyticsSession;
use dspgemm::core::dyn_general::GeneralUpdates;
use dspgemm::core::summa::summa;
use dspgemm::core::update::{apply_add, build_update_matrix, Dedup};
use dspgemm::core::{Batch, DistMat, DynSpGemm, Grid};
use dspgemm::graph::catalog::small_instances;
use dspgemm::graph::rmat::{self, RmatParams};
use dspgemm::mpi::{Comm, CommCategory, NUM_CATEGORIES};
use dspgemm::sparse::semiring::{F64Plus, U64Plus};
use dspgemm::sparse::{Csr, Dcsr, Index, Triple};
use dspgemm::util::rng::{Rng, SplitMix64};
use dspgemm::util::stats::PhaseTimer;
use dspgemm::util::WireSize;

fn instance_triples() -> (u32, Vec<Triple<f64>>) {
    let spec = &small_instances(1)[0];
    let edges = spec.undirected_edges();
    (
        spec.n,
        edges.iter().map(|&(u, v)| Triple::new(u, v, 1.0)).collect(),
    )
}

/// DCSR beats CSR on the wire for hypersparse blocks — the Section IV
/// justification for communicating update matrices in DCSR.
#[test]
fn dcsr_wire_size_beats_csr_when_hypersparse() {
    let n = 100_000u32;
    let triples: Vec<Triple<f64>> = (0..200).map(|i| Triple::new(i * 499, 3, 1.0)).collect();
    let csr = Csr::from_sorted_triples(n, n, &triples);
    let dcsr = Dcsr::from_sorted_triples(n, n, &triples);
    assert!(
        dcsr.wire_bytes() * 50 < csr.wire_bytes(),
        "dcsr {} vs csr {}",
        dcsr.wire_bytes(),
        csr.wire_bytes()
    );
}

/// Algorithm 1 on a hypersparse batch moves far fewer bytes than a static
/// recomputation on a real (proxy) workload.
#[test]
fn dynamic_update_volume_beats_static_recompute() {
    let (n, triples) = instance_triples();
    let batch: Vec<Triple<f64>> = triples.iter().copied().take(64).collect();
    let triples2 = triples.clone();
    let batch2 = batch.clone();
    // Dynamic: construction + initial product + one Algorithm-1 batch.
    let dynamic = dspgemm_mpi::run(4, move |comm| {
        let grid = Grid::new(comm);
        let mut timer = PhaseTimer::new();
        let feed = if comm.rank() == 0 {
            triples.clone()
        } else {
            vec![]
        };
        let a = DistMat::from_global_triples(&grid, n, n, feed.clone(), 1, &mut timer);
        let b = DistMat::from_global_triples(&grid, n, n, feed, 1, &mut timer);
        let mut eng = DynSpGemm::<F64Plus>::new(&grid, a, b, 1, false);
        let ups = if comm.rank() == 0 {
            batch.clone()
        } else {
            vec![]
        };
        eng.apply_algebraic(&grid, ups, vec![]);
        eng.c.local_nnz()
    });
    // Static: same prefix + update application + full SUMMA recomputation.
    let static_rerun = dspgemm_mpi::run(4, move |comm| {
        let grid = Grid::new(comm);
        let mut timer = PhaseTimer::new();
        let feed = if comm.rank() == 0 {
            triples2.clone()
        } else {
            vec![]
        };
        let mut a = DistMat::from_global_triples(&grid, n, n, feed.clone(), 1, &mut timer);
        let b = DistMat::from_global_triples(&grid, n, n, feed, 1, &mut timer);
        let (_, _) = summa::<F64Plus>(&grid, &a, &b, 1, &mut timer);
        let ups = if comm.rank() == 0 {
            batch2.clone()
        } else {
            vec![]
        };
        let upd = build_update_matrix::<F64Plus>(&grid, n, n, ups, Dedup::Add, &mut timer);
        apply_add::<F64Plus>(&mut a, &upd);
        let (c2, _) = summa::<F64Plus>(&grid, &a, &b, 1, &mut timer);
        c2.local_nnz()
    });
    let dyn_bytes = dynamic.stats.total_bytes();
    let stat_bytes = static_rerun.stats.total_bytes();
    assert!(
        dyn_bytes < stat_bytes,
        "dynamic volume {dyn_bytes} must be below static {stat_bytes}"
    );
}

/// The paper's bandwidth claim: Algorithm 1's broadcast volume scales with
/// the update size, not with the operand size.
#[test]
fn bcast_volume_scales_with_batch_not_operands() {
    let (n, triples) = instance_triples();
    let volume_for_batch = |batch_len: usize| {
        let triples = triples.clone();
        let base = dspgemm_mpi::run(4, {
            let triples = triples.clone();
            move |comm| {
                let grid = Grid::new(comm);
                let mut timer = PhaseTimer::new();
                let feed = if comm.rank() == 0 {
                    triples.clone()
                } else {
                    vec![]
                };
                let a = DistMat::from_global_triples(&grid, n, n, feed.clone(), 1, &mut timer);
                let b = DistMat::from_global_triples(&grid, n, n, feed, 1, &mut timer);
                let (c, _) = summa::<F64Plus>(&grid, &a, &b, 1, &mut timer);
                c.local_nnz()
            }
        });
        let full = dspgemm_mpi::run(4, move |comm| {
            let grid = Grid::new(comm);
            let mut timer = PhaseTimer::new();
            let feed = if comm.rank() == 0 {
                triples.clone()
            } else {
                vec![]
            };
            let a = DistMat::from_global_triples(&grid, n, n, feed.clone(), 1, &mut timer);
            let b = DistMat::from_global_triples(&grid, n, n, feed.clone(), 1, &mut timer);
            let mut eng = DynSpGemm::<F64Plus>::new(&grid, a, b, 1, false);
            let ups: Vec<Triple<f64>> = if comm.rank() == 0 {
                triples.iter().copied().take(batch_len).collect()
            } else {
                vec![]
            };
            eng.apply_algebraic(&grid, ups, vec![]);
            eng.c.local_nnz()
        });
        full.stats
            .bytes_in(dspgemm_mpi::CommCategory::Bcast)
            .saturating_sub(base.stats.bytes_in(dspgemm_mpi::CommCategory::Bcast))
    };
    let small = volume_for_batch(8);
    let big = volume_for_batch(512);
    // Bcast delta grows with the batch (update-driven), but both stay tiny
    // relative to broadcasting the operands like SUMMA would.
    assert!(
        big > small,
        "bcast volume must grow with batch: {small} vs {big}"
    );
}

/// `count` draws over a 40 × 40 index space.
fn draws(seed: u64, count: usize) -> Vec<Triple<u64>> {
    let mut rng = SplitMix64::new(seed);
    let mut coord = move || rng.gen_range(40) as Index;
    (0..count)
        .map(|_| Triple::new(coord(), coord(), 1))
        .collect()
}

/// `(bytes, messages)` per [`CommCategory`], in index order.
type Traffic = [(u64, u64); NUM_CATEGORIES];

/// What the ranks of a `p`-rank run sent inside `batch`, summed, and what
/// `batch` returned on each rank.
fn batch_traffic<T, R: Send>(
    p: usize,
    setup: impl Fn(&Comm) -> T + Send + Sync,
    batch: impl Fn(&mut T, &Comm) -> R + Send + Sync,
) -> (Traffic, Vec<R>) {
    let own = |comm: &Comm| {
        let mine = &comm.comm_stats().per_rank[comm.rank()];
        CommCategory::all().map(|cat| (mine.bytes[cat as usize], mine.msgs[cat as usize]))
    };
    let out = dspgemm::mpi::run(p, |comm| {
        let mut state = setup(comm);
        comm.barrier();
        let before = own(comm);
        let got = batch(&mut state, comm);
        let after = own(comm);
        comm.barrier();
        let sent = CommCategory::all().map(|cat| {
            let k = cat as usize;
            (after[k].0 - before[k].0, after[k].1 - before[k].1)
        });
        (sent, got)
    });
    let traffic = CommCategory::all().map(|cat| {
        let per_rank = out.results.iter().map(|(d, _)| d[cat as usize]);
        per_rank.fold((0, 0), |sum, d| (sum.0 + d.0, sum.1 + d.1))
    });
    (
        traffic,
        out.results.into_iter().map(|(_, got)| got).collect(),
    )
}

/// A batch redistributes once: `2·p·(√p − 1)` `ALLTOALLV` messages however
/// many lanes it carries — one (session insert), two (session delete, or a
/// tracked `U64Plus` engine's algebraic batch) or four (an untracked
/// Algorithm-1 batch, or that engine's general batch). An untracked batch
/// sends nothing
/// point-to-point — the transposed layouts ride the same exchange. A
/// tracked `U64Plus` engine and a session count paths over the ring ℤ/2⁶⁴:
/// each of their batches, insert or delete, sends its difference blocks to
/// the transposed rank, one message per off-diagonal rank.
#[test]
fn redistribution_is_one_exchange_per_batch() {
    type Engine = (Grid, DynSpGemm<U64Plus>);
    let engine = |track_filter: bool| {
        move |comm: &Comm| -> Engine {
            let grid = Grid::new(comm);
            let mut timer = PhaseTimer::new();
            let r = comm.rank() as u64;
            let a = DistMat::from_global_triples(&grid, 40, 40, draws(10 + r, 60), 1, &mut timer);
            let b = DistMat::from_global_triples(&grid, 40, 40, draws(20 + r, 60), 1, &mut timer);
            let eng = DynSpGemm::new(&grid, a, b, 1, track_filter);
            (grid, eng)
        }
    };
    let algebraic = |(grid, eng): &mut Engine, comm: &Comm| {
        let r = comm.rank() as u64;
        eng.apply_algebraic(grid, draws(30 + r, 20), draws(40 + r, 20));
    };
    let general = |(grid, eng): &mut Engine, comm: &Comm| {
        let r = comm.rank() as u64;
        let positions = |seed| draws(seed, 9).iter().map(|t| (t.row, t.col)).collect();
        let a_upd = GeneralUpdates {
            sets: draws(50 + r, 10),
            deletes: positions(10 + r),
        };
        let b_upd = GeneralUpdates {
            sets: draws(60 + r, 10),
            deletes: positions(20 + r),
        };
        eng.apply_general(grid, a_upd, b_upd);
    };
    let session = |comm: &Comm| {
        AnalyticsSession::<U64Plus>::from_triples(comm, 40, 1, draws(70 + comm.rank() as u64, 60))
    };
    let insert = |s: &mut AnalyticsSession<U64Plus>, comm: &Comm| {
        s.insert_edges(draws(80 + comm.rank() as u64, 20));
    };
    let delete = |s: &mut AnalyticsSession<U64Plus>, comm: &Comm| {
        let stored = draws(70 + comm.rank() as u64, 9);
        s.delete_edges(stored.iter().map(|t| (t.row, t.col)).collect());
    };
    let (a2a, p2p) = (CommCategory::Alltoall as usize, CommCategory::P2p as usize);
    for (p, q) in [(4u64, 2u64), (9, 3)] {
        let one_exchange = 2 * p * (q - 1);
        let got = batch_traffic(p as usize, engine(false), algebraic).0;
        assert_eq!(got[a2a].1, one_exchange, "p={p}: untracked batch");
        assert_eq!(got[p2p], (0, 0), "p={p}: untracked batch");
        let ring_batches = [
            (
                "tracked algebraic",
                batch_traffic(p as usize, engine(true), algebraic).0,
            ),
            (
                "tracked general",
                batch_traffic(p as usize, engine(true), general).0,
            ),
            (
                "session insert",
                batch_traffic(p as usize, session, insert).0,
            ),
            (
                "session delete",
                batch_traffic(p as usize, session, delete).0,
            ),
        ];
        for (name, got) in ring_batches {
            assert_eq!(
                (got[a2a].1, got[p2p].1),
                (one_exchange, p - q),
                "p={p}: {name}"
            );
        }
    }
}

/// The compact `Dcsr` wire form on the traffic it exists for: one seeded
/// Algorithm-1 batch (192 insertions into each operand of a catalog proxy)
/// ships its `X` / `Y` broadcasts, the X pass's gathered star blocks and
/// `B′` rows and the Y pass's merge-reduced `C*` partials in at most 0.85 ×
/// the bytes the fixed-width form (4 B per column, 12 B per stored row)
/// metered for the same batch, in the same messages.
#[test]
fn algebraic_batch_ships_compact_blocks() {
    let (n, triples) = instance_triples();
    let setup = |comm: &Comm| {
        let grid = Grid::new(comm);
        let mut timer = PhaseTimer::new();
        let feed = if comm.rank() == 0 {
            triples.clone()
        } else {
            vec![]
        };
        let a = DistMat::from_global_triples(&grid, n, n, feed.clone(), 1, &mut timer);
        let b = DistMat::from_global_triples(&grid, n, n, feed, 1, &mut timer);
        let eng = DynSpGemm::<F64Plus>::new(&grid, a, b, 1, false);
        (grid, eng)
    };
    let batch = |(grid, eng): &mut (Grid, DynSpGemm<F64Plus>), comm: &Comm| {
        let mut rng = SplitMix64::new(0xA161 + comm.rank() as u64);
        let mut draws = |count: usize| -> Vec<Triple<f64>> {
            let mut coord = || rng.gen_range(n as u64) as Index;
            (0..count)
                .map(|_| Triple::new(coord(), coord(), 1.0))
                .collect()
        };
        let per_rank = 192 / comm.size();
        eng.apply_algebraic(grid, draws(per_rank), draws(per_rank));
    };
    // `Bcast` + `Reduce` (bytes, messages) of this batch as the parent of the
    // compact form (69822f0) metered it; the X pass's partials have since
    // moved from `Reduce` to `Gather`, in as many messages, and the global
    // nnz allreduce (2(p − 1) messages of 16 B) is gone.
    for (p, fixed) in [(4, (28_200u64, 16u64)), (9, (45_924, 72))] {
        let (got, _) = batch_traffic(p, setup, batch);
        let [bcast, gather, reduce] = [
            CommCategory::Bcast,
            CommCategory::Gather,
            CommCategory::Reduce,
        ]
        .map(|cat| got[cat as usize]);
        assert_eq!(bcast.1 + gather.1 + reduce.1, fixed.1, "p={p}: messages");
        let compact = bcast.0 + gather.0 + reduce.0;
        assert!(
            compact * 100 <= fixed.0 * 85,
            "p={p}: {compact} B against {} B fixed-width",
            fixed.0
        );
    }
}

/// R-MAT scale of the X-pass pin's operands: 512 vertices.
const PIN_SCALE: u32 = 9;

/// Rank `rank`'s slice of a Graph500 R-MAT stream of `per_rank` edges,
/// weighted with non-integer values, so that a changed summation order
/// changes the fingerprint.
fn rmat_triples(seed: u64, rank: usize, per_rank: usize) -> Vec<Triple<f64>> {
    let edges = rmat::generate_local(
        &RmatParams::GRAPH500,
        PIN_SCALE,
        per_rank,
        seed,
        rank as u64,
    );
    let mut rng = SplitMix64::new(seed ^ (rank as u64) << 32);
    let weights = std::iter::repeat_with(move || 0.1 + rng.gen_f64());
    edges
        .into_iter()
        .zip(weights)
        .map(|((u, v), w)| Triple::new(u, v, w))
        .collect()
}

/// What one batch did, summed over ranks: `(bytes, messages)` per
/// category, the flops, and `C`'s nnz and FNV-1a fingerprint over its
/// gathered triples (values by their bits).
type BatchPin = (Traffic, u64, usize, u64);

/// One batch on a two-operand `F64Plus` engine over R-MAT operands:
/// `track_filter` as Algorithm 2 needs it, `batch` the batch.
fn rmat_batch(
    p: usize,
    track_filter: bool,
    batch: impl Fn(&mut DynSpGemm<F64Plus>, &Grid, usize) + Send + Sync,
) -> BatchPin {
    let setup = |comm: &Comm| {
        let grid = Grid::new(comm);
        let mut timer = PhaseTimer::new();
        let (n, r) = (1 << PIN_SCALE, comm.rank());
        let mut operand = |seed| {
            let mine = rmat_triples(seed, r, 4096 / p);
            DistMat::from_global_triples(&grid, n, n, mine, 1, &mut timer)
        };
        let (a, b) = (operand(1), operand(2));
        let eng = DynSpGemm::new(&grid, a, b, 1, track_filter);
        (grid, eng)
    };
    let (traffic, per_rank) = batch_traffic(p, setup, |(grid, eng), comm| {
        let flops = eng.flops;
        batch(eng, grid, comm.rank());
        (eng.flops - flops, eng.c.to_global_triples())
    });
    let flops = per_rank.iter().map(|(f, _)| f).sum();
    let mut c: Vec<Triple<f64>> = per_rank.into_iter().flat_map(|(_, c)| c).collect();
    c.sort_unstable_by_key(|t| (t.row, t.col));
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for t in &c {
        for word in [t.row as u64, t.col as u64, t.val.to_bits()] {
            for byte in word.to_le_bytes() {
                hash = (hash ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    (traffic, flops, c.len(), hash)
}

/// An untracked Algorithm-1 batch with `B*` empty — the X pass alone.
fn x_pass_batch(eng: &mut DynSpGemm<F64Plus>, grid: &Grid, r: usize) {
    eng.apply_algebraic(grid, rmat_triples(3, r, 256 / grid.world().size()), vec![]);
}

/// An Algorithm-2 batch: sets and deletes on both operands.
fn general_batch(eng: &mut DynSpGemm<F64Plus>, grid: &Grid, r: usize) {
    let per_rank = 128 / grid.world().size();
    let held = |seed| rmat_triples(seed, r, 4096 / grid.world().size());
    let deletes = |seed| {
        held(seed)
            .iter()
            .step_by(16)
            .map(|t| (t.row, t.col))
            .collect()
    };
    let a_upd = GeneralUpdates {
        sets: rmat_triples(4, r, per_rank),
        deletes: deletes(1),
    };
    let b_upd = GeneralUpdates {
        sets: rmat_triples(5, r, per_rank),
        deletes: deletes(2),
    };
    eng.apply_general(grid, a_upd, b_upd);
}

/// The X pass at p ∈ {4, 9, 16} on an R-MAT instance with non-integer
/// weights: an untracked Algorithm-1 batch (`B*` empty) and an Algorithm-2
/// batch against what they sent, computed and built while the X pass still
/// merge-reduced its partial products. Every category but `Gather` and
/// `Reduce` sends what it did; those two send as many messages as before
/// and strictly fewer bytes; flops and `C` are bit-identical.
#[test]
fn x_pass_ships_fewer_bytes_in_the_same_messages() {
    // `(bytes, messages)` per category (p2p, bcast, gather, alltoall,
    // reduce, barrier), flops, nnz(C), fingerprint — captured before the X
    // pass shipped operands, when nothing gathered. Re-pinned when a batch's
    // global update counts began to ride its redistribution: the `[u64; 2]`
    // nnz allreduce left `Bcast` and `Reduce` (p − 1 messages and 16 B
    // each), and every `Alltoall` message gained two 8-byte tallies, one
    // per operand's root lane.
    const PARENT: [(usize, [BatchPin; 2]); 3] = [
        (
            4,
            [
                (
                    [(0, 0), (2611, 4), (0, 0), (5986, 8), (18324, 4), (0, 0)],
                    9231,
                    45609,
                    12773393021311474032,
                ),
                (
                    [
                        (11612, 2),
                        (56401, 18),
                        (0, 0),
                        (16416, 8),
                        (183765, 14),
                        (0, 0),
                    ],
                    66440,
                    40971,
                    3018382686662450785,
                ),
            ],
        ),
        (
            9,
            [
                (
                    [(0, 0), (5356, 18), (0, 0), (9342, 36), (32466, 18), (0, 0)],
                    10034,
                    47756,
                    13979105264211087679,
                ),
                (
                    [
                        (13913, 6),
                        (119222, 78),
                        (0, 0),
                        (24884, 36),
                        (246224, 60),
                        (0, 0),
                    ],
                    70923,
                    42185,
                    8245445367843817085,
                ),
            ],
        ),
        (
            16,
            [
                (
                    [(0, 0), (8331, 48), (0, 0), (14356, 96), (69835, 48), (0, 0)],
                    9560,
                    48029,
                    4084590035212058393,
                ),
                (
                    [
                        (18640, 12),
                        (179886, 204),
                        (0, 0),
                        (33912, 96),
                        (466887, 156),
                        (0, 0),
                    ],
                    70924,
                    43164,
                    13428567640573196685,
                ),
            ],
        ),
    ];
    let (gather, reduce) = (CommCategory::Gather as usize, CommCategory::Reduce as usize);
    for (p, [alg1, alg2]) in PARENT {
        let got = [
            rmat_batch(p, false, x_pass_batch),
            rmat_batch(p, true, general_batch),
        ];
        for (name, got, want) in [("Algorithm 1", got[0], alg1), ("Algorithm 2", got[1], alg2)] {
            let at = format!("p={p}, {name}");
            let (sent, was) = (got.0, want.0);
            assert_eq!(
                (got.1, got.2, got.3),
                (want.1, want.2, want.3),
                "{at}: flops and C"
            );
            for cat in CommCategory::all().map(|cat| cat as usize) {
                if cat != gather && cat != reduce {
                    assert_eq!(sent[cat], was[cat], "{at}: category {cat}");
                }
            }
            let merged = |t: &Traffic| (t[gather].0 + t[reduce].0, t[gather].1 + t[reduce].1);
            let (now, before) = (merged(&sent), merged(&was));
            assert_eq!(now.1, before.1, "{at}: gather + reduce messages");
            assert!(
                now.0 < before.0,
                "{at}: gather + reduce {} B, was {} B",
                now.0,
                before.0
            );
        }
    }
}

/// An untracked Algorithm-1 batch that updates both operands.
fn both_operands_batch(eng: &mut DynSpGemm<F64Plus>, grid: &Grid, r: usize) {
    let per_rank = 256 / grid.world().size();
    eng.apply_algebraic(
        grid,
        rmat_triples(3, r, per_rank),
        rmat_triples(6, r, per_rank),
    );
}

/// An Algorithm-2 batch that updates `A` alone.
fn general_left_batch(eng: &mut DynSpGemm<F64Plus>, grid: &Grid, r: usize) {
    let held = rmat_triples(1, r, 4096 / grid.world().size());
    let a_upd = GeneralUpdates {
        sets: rmat_triples(4, r, 128 / grid.world().size()),
        deletes: held.iter().step_by(16).map(|t| (t.row, t.col)).collect(),
    };
    eng.apply_general(grid, a_upd, GeneralUpdates::new());
}

/// An Algorithm-2 batch empty on both operands.
fn empty_general_batch(eng: &mut DynSpGemm<F64Plus>, grid: &Grid, _r: usize) {
    eng.apply_general(grid, GeneralUpdates::new(), GeneralUpdates::new());
}

/// A static recompute of `C` (and `F`).
fn recompute_batch(eng: &mut DynSpGemm<F64Plus>, grid: &Grid, _r: usize) {
    eng.try_apply(grid, Batch::Recompute).expect("fault-free");
}

/// Every message of a batch and of a row query, in closed form at
/// p ∈ {4, 9, 16} with q = √p, summed over categories and ranks. A batch
/// redistributes once and each unmasked pass runs q rounds of a broadcast
/// and a collective onto the round root over q process rows or columns:
/// 2p(q − 1) messages each. Algorithm 2's repair adds the masked recompute
/// (q rounds of two broadcasts and a reduction), the filter's reduction and
/// broadcast-back over each process row, and the `A^R` exchange of every
/// off-diagonal rank. Nothing else: an empty operand's pass is skipped on
/// the global count its redistribution delivered, and a general batch empty
/// on both operands skips the repair too, leaving `C` as a static recompute
/// has it. A `row_topk` merges over the owning process row and broadcasts
/// to the world.
#[test]
fn batch_messages_follow_the_closed_form() {
    let messages = |t: &Traffic| t.iter().map(|&(_, msgs)| msgs).sum::<u64>();
    for (p, q) in [(4u64, 2u64), (9, 3), (16, 4)] {
        let pass = 2 * p * (q - 1);
        let repair = 3 * p * (q - 1) + 2 * q * (q - 1) + (p - q);
        let pp = p as usize;
        let batches = [
            (
                "Algorithm 1, A* alone",
                rmat_batch(pp, false, x_pass_batch),
                2 * pass,
            ),
            (
                "Algorithm 1, both",
                rmat_batch(pp, false, both_operands_batch),
                3 * pass,
            ),
            (
                "Algorithm 2, A alone",
                rmat_batch(pp, true, general_left_batch),
                2 * pass + repair,
            ),
            (
                "Algorithm 2, both",
                rmat_batch(pp, true, general_batch),
                3 * pass + repair,
            ),
        ];
        for (name, (traffic, ..), want) in batches {
            assert_eq!(messages(&traffic), want, "p={p}: {name}");
        }
        let (traffic, flops, nnz, hash) = rmat_batch(pp, true, empty_general_batch);
        assert_eq!(messages(&traffic), pass, "p={p}: Algorithm 2, empty");
        assert_eq!(flops, 0, "p={p}: Algorithm 2, empty");
        let (_, _, want_nnz, want_hash) = rmat_batch(pp, true, recompute_batch);
        assert_eq!(
            (nnz, hash),
            (want_nnz, want_hash),
            "p={p}: C after an empty batch"
        );
        let setup = |comm: &Comm| {
            let grid = Grid::new(comm);
            let mut timer = PhaseTimer::new();
            let n = 1 << PIN_SCALE;
            let mut operand = |seed| {
                let mine = rmat_triples(seed, comm.rank(), 4096 / comm.size());
                DistMat::from_global_triples(&grid, n, n, mine, 1, &mut timer)
            };
            let (a, b) = (operand(1), operand(2));
            let snap = DynSpGemm::<F64Plus>::new(&grid, a, b, 1, false).snapshot();
            (grid, snap)
        };
        let rows = [0, 1, 300];
        let (traffic, _) = batch_traffic(pp, setup, |(grid, snap), _| {
            for u in rows {
                snap.c().row_topk(grid, u, 5, |&v| v);
            }
        });
        let per_query = (q - 1) + (p - 1);
        assert_eq!(
            messages(&traffic),
            rows.len() as u64 * per_query,
            "p={p}: row_topk"
        );
    }
}

/// [`rmat_triples`] as a 0/1 pattern over `u64`.
fn rmat_pattern(seed: u64, rank: usize, per_rank: usize) -> Vec<Triple<u64>> {
    let unit = |t: &Triple<f64>| Triple::new(t.row, t.col, 1);
    rmat_triples(seed, rank, per_rank)
        .iter()
        .map(unit)
        .collect()
}

/// Every `step`-th of the positions [`rmat_pattern`] draws.
fn rmat_positions(seed: u64, rank: usize, per_rank: usize, step: usize) -> Vec<(Index, Index)> {
    let held = rmat_pattern(seed, rank, per_rank);
    held.iter().step_by(step).map(|t| (t.row, t.col)).collect()
}

/// The messages one batch sends on a tracked two-operand `U64Plus` engine
/// over R-MAT patterns, summed over ranks: a ring, so `F` counts paths.
fn ring_pair_messages(
    p: usize,
    batch: impl Fn(&mut DynSpGemm<U64Plus>, &Grid, usize) + Send + Sync,
) -> u64 {
    let setup = |comm: &Comm| {
        let grid = Grid::new(comm);
        let mut timer = PhaseTimer::new();
        let mut operand = |seed| {
            let mine = rmat_pattern(seed, comm.rank(), 4096 / p);
            DistMat::from_global_triples(&grid, 1 << PIN_SCALE, 1 << PIN_SCALE, mine, 1, &mut timer)
        };
        let (a, b) = (operand(1), operand(2));
        let eng = DynSpGemm::new(&grid, a, b, 1, true);
        (grid, eng)
    };
    let (traffic, _) = batch_traffic(p, setup, |(grid, eng), comm| batch(eng, grid, comm.rank()));
    traffic.iter().map(|&(_, msgs)| msgs).sum()
}

/// Every message of a batch over the ring ℤ/2⁶⁴, in closed form at
/// p ∈ {4, 9, 16} with q = √p. A tracked `U64Plus` engine counts paths in
/// `F` and runs every batch, algebraic or general, through Algorithm 1 on
/// the differences it makes: its redistribution (2p(q − 1) messages), one
/// unmasked pass per updated operand (2p(q − 1) each), and the exchange of
/// the difference blocks to the transposed rank (p − q, one per off-diagonal
/// rank, carrying every operand's block). A session's insert and delete
/// update the one operand that is both factors, so both passes run; a
/// serve-shaped round — an insert and a delete — sends twice that.
#[test]
fn ring_batches_follow_the_closed_form() {
    for (p, q) in [(4u64, 2u64), (9, 3), (16, 4)] {
        let (pass, exchange, pp) = (2 * p * (q - 1), p - q, p as usize);
        let inserts = |seed, r| rmat_pattern(seed, r, 256 / pp);
        let update = |r| GeneralUpdates {
            sets: rmat_pattern(4, r, 128 / pp),
            deletes: rmat_positions(1, r, 4096 / pp, 16),
        };
        let pairs = [
            (
                "algebraic, A* alone",
                2 * pass,
                ring_pair_messages(pp, |eng, grid, r| {
                    eng.apply_algebraic(grid, inserts(3, r), vec![]);
                }),
            ),
            (
                "general, A alone",
                2 * pass,
                ring_pair_messages(pp, |eng, grid, r| {
                    eng.apply_general(grid, update(r), GeneralUpdates::new());
                }),
            ),
            (
                "algebraic, both",
                3 * pass,
                ring_pair_messages(pp, |eng, grid, r| {
                    eng.apply_algebraic(grid, inserts(3, r), inserts(6, r));
                }),
            ),
            (
                "general, both",
                3 * pass,
                ring_pair_messages(pp, |eng, grid, r| {
                    eng.apply_general(grid, update(r), update(r));
                }),
            ),
        ];
        for (name, want, got) in pairs {
            assert_eq!(got, want + exchange, "p={p}: ring pair, {name}");
        }
        type Session = AnalyticsSession<U64Plus>;
        let insert = |s: &mut Session, r| drop(s.insert_edges(inserts(3, r)));
        let delete = |s: &mut Session, r| drop(s.delete_edges(rmat_positions(1, r, 4096 / pp, 16)));
        let session_messages = |batch: &(dyn Fn(&mut Session, usize) + Sync)| {
            let setup = |comm: &Comm| {
                let mine = rmat_pattern(1, comm.rank(), 4096 / pp);
                Session::from_triples(comm, 1 << PIN_SCALE, 1, mine)
            };
            let (traffic, _) = batch_traffic(pp, setup, |s, comm| batch(s, comm.rank()));
            traffic.iter().map(|&(_, msgs)| msgs).sum::<u64>()
        };
        let one = 3 * pass + exchange;
        assert_eq!(session_messages(&insert), one, "p={p}: session insert");
        assert_eq!(session_messages(&delete), one, "p={p}: session delete");
        let round = |s: &mut Session, r| {
            insert(s, r);
            delete(s, r);
        };
        assert_eq!(
            session_messages(&round),
            2 * one,
            "p={p}: serve-shaped round"
        );
    }
}
