//! The batch report counts what the batch did: per rank, its counters are
//! that rank's own counter delta over the call, category by category; its
//! stages and busy time fit in its wall time; its flops add up to the
//! engine's flop counter; and its nnz fields count the batch's update and
//! product delta. One Algorithm-1, one Algorithm-2 and one recompute batch,
//! at p ∈ {1, 4}.

use dspgemm_core::dyn_general::GeneralUpdates;
use dspgemm_core::{Batch, BatchReport, DistMat, DynSpGemm, Grid};
use dspgemm_mpi::{run, Comm, RankCommStats};
use dspgemm_sparse::semiring::U64Plus;
use dspgemm_sparse::{Index, Triple};
use dspgemm_util::rng::{Rng, SplitMix64};
use dspgemm_util::stats::PhaseTimer;
use std::collections::BTreeSet;
use std::time::Duration;

const N: Index = 24;

fn triples(seed: u64, count: usize) -> Vec<Triple<u64>> {
    let mut rng = SplitMix64::new(seed);
    let mut coord = || rng.gen_range(N as u64) as Index;
    (0..count)
        .map(|_| Triple::new(coord(), coord(), 1))
        .collect()
}

/// Every rank's share of one batch, from its seed: the algebraic batch's
/// `A` tuples and the general batch's sets and deletes.
fn shares(rank: usize) -> (Vec<Triple<u64>>, GeneralUpdates<u64>) {
    let r = rank as u64;
    let deletes = triples(30 + r, 6).iter().map(|t| (t.row, t.col)).collect();
    let general = GeneralUpdates {
        sets: triples(20 + r, 6),
        deletes,
    };
    (triples(10 + r, 12), general)
}

/// The distinct coordinates all ranks' shares of a batch touch.
fn distinct(p: usize, coords: impl Fn(usize) -> Vec<(Index, Index)>) -> u64 {
    (0..p).flat_map(coords).collect::<BTreeSet<_>>().len() as u64
}

/// Runs `batch` and checks its report against this rank's counters and
/// flop counter; returns the report.
fn checked(
    comm: &Comm,
    eng: &mut DynSpGemm<U64Plus>,
    grid: &Grid,
    batch: Batch<u64>,
) -> BatchReport {
    let own = || -> RankCommStats { comm.comm_stats().per_rank[comm.rank()].clone() };
    let (before, flops) = (own(), eng.flops);
    let report = eng.try_apply(grid, batch).expect("fault-free");
    let after = own();
    for k in 0..after.bytes.len() {
        assert_eq!(
            report.comm.bytes[k],
            after.bytes[k] - before.bytes[k],
            "bytes, category {k}"
        );
        assert_eq!(
            report.comm.msgs[k],
            after.msgs[k] - before.msgs[k],
            "msgs, category {k}"
        );
    }
    let staged: Duration = report.stages.entries().iter().map(|&(_, d)| d).sum();
    assert!(
        staged <= report.wall,
        "stages {staged:?} > wall {:?}",
        report.wall
    );
    assert!(report.busy_ns() <= report.wall.as_nanos() as u64);
    assert_eq!(
        report.flops,
        eng.flops - flops,
        "the report's flops are the batch's"
    );
    report
}

#[test]
fn reports_count_each_ranks_own_traffic_and_work() {
    for p in [1usize, 4] {
        let out = run(p, |comm| {
            let grid = Grid::new(comm);
            let b_mine = triples(1 + comm.rank() as u64, 40);
            let b = DistMat::from_global_triples(&grid, N, N, b_mine, 1, &mut PhaseTimer::new());
            let a = DistMat::empty(&grid, N, N);
            let mut eng = DynSpGemm::<U64Plus>::new(&grid, a, b, 1, true);
            let (algebraic, general) = shares(comm.rank());
            let alg = checked(comm, &mut eng, &grid, Batch::Algebraic(algebraic, vec![]));
            // `A` started empty, so `C` after the first batch is its `C*`.
            let c_nnz = eng.c.global_nnz(&grid);
            let gen = checked(
                comm,
                &mut eng,
                &grid,
                Batch::General(general, GeneralUpdates::new()),
            );
            let recompute = checked(comm, &mut eng, &grid, Batch::Recompute);
            (alg, c_nnz, gen, recompute)
        });
        let sum = |f: fn(&(BatchReport, u64, BatchReport, BatchReport)) -> u64| {
            out.results.iter().map(f).sum::<u64>()
        };
        let algebraic_coords = |r: usize| shares(r).0.iter().map(|t| (t.row, t.col)).collect();
        let general_coords = |r: usize| {
            let (_, g) = shares(r);
            g.sets
                .iter()
                .map(|t| (t.row, t.col))
                .chain(g.deletes)
                .collect()
        };
        assert_eq!(
            sum(|r| r.0.astar_nnz),
            distinct(p, algebraic_coords),
            "p={p}"
        );
        assert_eq!(sum(|r| r.0.cstar_nnz), out.results[0].1, "p={p}: nnz(C*)");
        assert!(
            sum(|r| r.0.cstar_nnz) > 0 && sum(|r| r.2.cstar_nnz) > 0,
            "p={p}"
        );
        assert_eq!(sum(|r| r.2.astar_nnz), distinct(p, general_coords), "p={p}");
        assert_eq!(sum(|r| r.3.astar_nnz + r.3.cstar_nnz), 0, "p={p}: no delta");
        assert!(sum(|r| r.3.flops) > 0, "p={p}: the recompute multiplies");
        if p > 1 {
            for (kind, msgs) in [
                ("algebraic", sum(|r| r.0.sent_msgs())),
                ("general", sum(|r| r.2.sent_msgs())),
            ] {
                assert!(msgs > 0, "p={p}: the {kind} batch communicated");
            }
        }
    }
}
