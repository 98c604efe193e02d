//! Communication-volume assertions — the paper's headline claims, checked
//! as hard test invariants rather than just benchmarks.

use dspgemm::analytics::AnalyticsSession;
use dspgemm::core::dyn_general::GeneralUpdates;
use dspgemm::core::summa::summa;
use dspgemm::core::update::{apply_add, build_update_matrix, Dedup};
use dspgemm::core::{DistMat, DynSpGemm, Grid};
use dspgemm::graph::catalog::small_instances;
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

/// What the ranks of a `p`-rank run sent inside `batch`, summed.
fn batch_traffic<T>(
    p: usize,
    setup: impl Fn(&Comm) -> T + Send + Sync,
    batch: impl Fn(&mut T, &Comm) + Send + Sync,
) -> Traffic {
    let own = |comm: &Comm| {
        let mine = &comm.comm_stats().per_rank[comm.rank()];
        CommCategory::all().map(|cat| (mine.bytes[cat as usize], mine.msgs[cat as usize]))
    };
    let out = dspgemm::mpi::run(p, |comm| {
        let mut state = setup(comm);
        comm.barrier();
        let before = own(comm);
        batch(&mut state, comm);
        let after = own(comm);
        comm.barrier();
        CommCategory::all().map(|cat| {
            let k = cat as usize;
            (after[k].0 - before[k].0, after[k].1 - before[k].1)
        })
    });
    CommCategory::all().map(|cat| {
        let per_rank = out.results.iter().map(|d| d[cat as usize]);
        per_rank.fold((0, 0), |sum, d| (sum.0 + d.0, sum.1 + d.1))
    })
}

/// A batch redistributes once: `2·p·(√p − 1)` `ALLTOALLV` messages whether
/// it builds two update matrices (session insert), three (session delete),
/// four (Algorithm 1) or six (Algorithm 2). An algebraic batch sends nothing
/// point-to-point — the transposed layouts ride the same exchange — and a
/// general batch only its `A^R` exchange, one message per off-diagonal rank.
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
        let algebraic_batches = [
            batch_traffic(p as usize, engine(false), algebraic),
            batch_traffic(p as usize, engine(true), algebraic),
            batch_traffic(p as usize, session, insert),
        ];
        for got in algebraic_batches {
            assert_eq!(got[a2a].1, one_exchange, "p={p}: algebraic batch");
            assert_eq!(got[p2p], (0, 0), "p={p}: algebraic batch");
        }
        let general_batches = [
            batch_traffic(p as usize, engine(true), general),
            batch_traffic(p as usize, session, delete),
        ];
        for got in general_batches {
            assert_eq!(
                (got[a2a].1, got[p2p].1),
                (one_exchange, p - q),
                "p={p}: general batch"
            );
        }
    }
}

/// The compact `Dcsr` wire form on the traffic it exists for: one seeded
/// Algorithm-1 batch (192 insertions into each operand of a catalog proxy)
/// ships its `X` / `Y` broadcasts and merge-reduced `C*` partials in at most
/// 0.85 × the bytes the fixed-width form (4 B per column, 12 B per stored
/// row) metered for the same batch, in the same messages.
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
    // compact form (69822f0) metered it.
    for (p, fixed) in [(4, (28_296u64, 22u64)), (9, (46_180, 88))] {
        let got = batch_traffic(p, setup, batch);
        let (bcast, reduce) = (
            got[CommCategory::Bcast as usize],
            got[CommCategory::Reduce as usize],
        );
        assert_eq!(bcast.1 + reduce.1, fixed.1, "p={p}: messages");
        let compact = bcast.0 + reduce.0;
        assert!(
            compact * 100 <= fixed.0 * 85,
            "p={p}: {compact} B against {} B fixed-width",
            fixed.0
        );
    }
}
