//! Balance ablation: skew-aware local-kernel scheduling (contiguous vs.
//! flop-balanced vs. work-stealing row assignment).
//!
//! The catalog's social/web proxies are power-law graphs, so equal-count
//! contiguous row ranges put wildly unequal flops on the intra-rank worker
//! threads; the flop-balanced and work-stealing schedules redistribute the
//! *work* while leaving the *output* bit-identical (per-range outputs are
//! concatenated in row order regardless of which worker produced them).
//! This experiment runs the same SUMMA (and a dynamic-update arm) under all
//! three [`RowSchedule`]s, asserts bit-identical `C` across arms, and
//! reports the per-thread flop imbalance (max/mean) plus the median
//! local-multiply wall-clock. The numbers land in `BENCH_pr4.json`.

use crate::experiments::{edges_to_triples, prepare_instances, rank_slice, Prepared};
use crate::measure::{median, timed_collective};
use crate::report::{ms, Table};
use crate::Config;
use dspgemm_core::dyn_algebraic::{apply_algebraic_updates_mode_exec, TransposeMode};
use dspgemm_core::summa::summa_exec;
use dspgemm_core::{DistMat, Exec, Grid};
use dspgemm_graph::stream::ReplacementDraws;
use dspgemm_sparse::semiring::F64Plus;
use dspgemm_sparse::Triple;
use dspgemm_util::par::RowSchedule;
use dspgemm_util::stats::{flop_imbalance, PhaseTimer};
use std::time::Duration;

/// Per-rank update batch size of the dynamic arm (matches the copy-elim and
/// overlap ablations so numbers are comparable across PRs).
const BALANCE_BATCH: usize = 4096;

/// The three schedules under test, with display names.
pub const ARMS: [(RowSchedule, &str); 3] = [
    (RowSchedule::Contiguous, "contiguous (before)"),
    (RowSchedule::FlopBalanced, "flop-balanced (after)"),
    (RowSchedule::WorkStealing, "work-stealing (after)"),
];

/// Outcome of one schedule arm.
#[derive(Debug, Clone)]
pub struct BalanceArm {
    /// Median wall time of the measured collective (rank 0's view).
    pub wall: Duration,
    /// Slowest rank's median local-multiply time (critical path).
    pub local_mult: Duration,
    /// Worst per-rank thread-flop imbalance (max/mean over the rank's
    /// worker threads, maximized over ranks).
    pub imbalance: f64,
    /// Total flops over all ranks and threads (schedule-invariant).
    pub total_flops: u64,
    /// Root gather of the result (identity check across arms).
    pub result: Vec<Triple<f64>>,
}

/// One static-SUMMA arm: full-adjacency `A·A` at `cfg.p` ranks ×
/// `cfg.threads` threads under `schedule`, 3 reps, median wall.
pub fn summa_arm(cfg: &Config, inst: &Prepared, schedule: RowSchedule) -> BalanceArm {
    let n = inst.n;
    let (p, threads) = (cfg.p, cfg.threads);
    let edges = &inst.edges;
    let reps = 3usize;
    let out = dspgemm_mpi::run(p, |comm| {
        let grid = Grid::new(comm);
        let mut build_t = PhaseTimer::new();
        let mine = edges_to_triples(&rank_slice(edges, comm.rank(), p));
        let a = DistMat::from_global_triples(&grid, n, n, mine, threads, &mut build_t);
        let exec = Exec::<F64Plus>::with_schedule(threads, schedule);
        let mut walls = Vec::new();
        let mut mults = Vec::new();
        let mut thread_flops: Vec<u64> = Vec::new();
        let mut c_gathered = None;
        for rep in 0..reps {
            let mut timer = PhaseTimer::new();
            let (c, d) = timed_collective(comm, || {
                summa_exec::<F64Plus>(&grid, &a, &a, &exec, &mut timer).0
            });
            walls.push(d);
            mults.push(timer.get(dspgemm_core::phase::LOCAL_MULT));
            if rep == 0 {
                thread_flops = timer.thread_flops().to_vec();
                comm.barrier();
                c_gathered = c.gather_to_root(comm);
            }
        }
        (median(&walls), median(&mults), thread_flops, c_gathered)
    });
    summarize(out, threads)
}

/// The dynamic arm: Algorithm-1 update batches through a session [`Exec`]
/// under `schedule` (same seeds in every arm, so gathered `C` must match
/// across schedules here too).
pub fn dynamic_arm(cfg: &Config, inst: &Prepared, schedule: RowSchedule) -> BalanceArm {
    let n = inst.n;
    let (p, threads, batches, seed) = (cfg.p, cfg.threads, cfg.batches.max(1), cfg.seed);
    let edges = &inst.edges;
    let out = dspgemm_mpi::run(p, |comm| {
        let grid = Grid::new(comm);
        let mut build_t = PhaseTimer::new();
        let mine = edges_to_triples(&rank_slice(edges, comm.rank(), p));
        let mut a = DistMat::from_global_triples(&grid, n, n, mine.clone(), threads, &mut build_t);
        let mut b = DistMat::from_global_triples(&grid, n, n, mine, threads, &mut build_t);
        let exec = Exec::<F64Plus>::with_schedule(threads, schedule);
        let (mut c, _) = summa_exec::<F64Plus>(&grid, &a, &b, &exec, &mut build_t);
        let mut a_draws = ReplacementDraws::new(BALANCE_BATCH, seed, comm.rank());
        let mut b_draws = ReplacementDraws::new(BALANCE_BATCH, seed ^ 0x9e37, comm.rank());
        let mut timer = PhaseTimer::new();
        let mut walls = Vec::new();
        for _ in 0..batches {
            let a_batch: Vec<Triple<f64>> = a_draws
                .next_batch(edges)
                .into_iter()
                .map(|(u, v)| Triple::new(u, v, 1.0))
                .collect();
            let b_batch: Vec<Triple<f64>> = b_draws
                .next_batch(edges)
                .into_iter()
                .map(|(u, v)| Triple::new(u, v, 1.0))
                .collect();
            let (_, d) = timed_collective(comm, || {
                apply_algebraic_updates_mode_exec::<F64Plus>(
                    &grid,
                    &mut a,
                    &mut b,
                    &mut c,
                    None,
                    a_batch,
                    b_batch,
                    TransposeMode::Virtual,
                    &exec,
                    &mut timer,
                )
            });
            walls.push(d);
        }
        let thread_flops = timer.thread_flops().to_vec();
        let mult = timer.get(dspgemm_core::phase::LOCAL_MULT);
        comm.barrier();
        let c_gathered = c.gather_to_root(comm);
        (median(&walls), mult, thread_flops, c_gathered)
    });
    summarize(out, threads)
}

type RankResult = (Duration, Duration, Vec<u64>, Option<Vec<Triple<f64>>>);

fn summarize(out: dspgemm_mpi::SimOutput<RankResult>, threads: usize) -> BalanceArm {
    let wall = out.results[0].0;
    let local_mult = out
        .results
        .iter()
        .map(|r| r.1)
        .max()
        .unwrap_or(Duration::ZERO);
    let imbalance = out
        .results
        .iter()
        .map(|r| {
            // A rank whose kernels all ran single-threaded reports a bare
            // total; pad to the configured width so idle threads count.
            let mut tf = r.2.clone();
            tf.resize(tf.len().max(threads), 0);
            flop_imbalance(&tf)
        })
        .fold(1.0f64, f64::max);
    let total_flops = out.results.iter().map(|r| r.2.iter().sum::<u64>()).sum();
    BalanceArm {
        wall,
        local_mult,
        imbalance,
        total_flops,
        result: out.results[0].3.clone().unwrap_or_default(),
    }
}

/// The `repro balance` table.
pub fn run(cfg: &Config) -> Table {
    // The schedules only differ with ≥ 2 workers; keep the configured value
    // otherwise so `--threads` drives scaling studies.
    let mut cfg = cfg.clone();
    cfg.threads = cfg.threads.max(2);
    let mut t = Table::new(
        format!(
            "Ablation: skew-aware local kernels (row schedules), p={} threads={}",
            cfg.p, cfg.threads
        ),
        &[
            "benchmark",
            "wall",
            "local mult (ms)",
            "flop imbalance (max/mean)",
            "flops",
        ],
    );
    // Instance 0 is the most skewed social proxy of the catalog slice
    // (Table-I order starts with LiveJournal).
    let inst = &prepare_instances(&cfg)[0];

    let static_arms: Vec<(&str, BalanceArm)> = ARMS
        .iter()
        .map(|&(schedule, name)| (name, summa_arm(&cfg, inst, schedule)))
        .collect();
    for (name, arm) in &static_arms {
        // Hard invariants: the schedule moves work between threads, never
        // values between entries.
        assert_eq!(
            arm.result, static_arms[0].1.result,
            "{name}: C must be bit-identical across schedules"
        );
        assert_eq!(
            arm.total_flops, static_arms[0].1.total_flops,
            "{name}: total flops are schedule-invariant"
        );
        t.push_row(vec![
            format!("static SUMMA, {name}"),
            ms(arm.wall),
            ms(arm.local_mult),
            format!("{:.2}", arm.imbalance),
            arm.total_flops.to_string(),
        ]);
    }

    let dynamic_arms: Vec<(&str, BalanceArm)> = ARMS
        .iter()
        .map(|&(schedule, name)| (name, dynamic_arm(&cfg, inst, schedule)))
        .collect();
    for (name, arm) in &dynamic_arms {
        assert_eq!(
            arm.result, dynamic_arms[0].1.result,
            "{name}: dynamic C must be bit-identical across schedules"
        );
        assert_eq!(
            arm.total_flops, dynamic_arms[0].1.total_flops,
            "{name}: dynamic total flops are schedule-invariant"
        );
        t.push_row(vec![
            format!("dynamic updates ({BALANCE_BATCH} / rank), {name}"),
            ms(arm.wall),
            ms(arm.local_mult),
            format!("{:.2}", arm.imbalance),
            arm.total_flops.to_string(),
        ]);
    }

    t.note("C and total flops are asserted identical across schedules (work moves, never values)");
    t.note(
        "flop imbalance = max/mean over per-thread flop counters, worst rank; \
         1.00 is a perfect split",
    );
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balance_smoke() {
        let mut cfg = Config::smoke();
        cfg.instances = 1;
        cfg.batches = 1;
        cfg.threads = 2;
        // The run itself asserts bit-identical C and flop parity per arm.
        let t = run(&cfg);
        assert_eq!(t.rows.len(), 6);
    }

    #[test]
    fn balanced_schedules_reduce_imbalance_on_skew() {
        // Deterministic at any host load: imbalance is a flop-count
        // property, not a timing property.
        let mut cfg = Config::smoke();
        cfg.instances = 1;
        cfg.threads = 4;
        let inst = &prepare_instances(&cfg)[0];
        let contiguous = summa_arm(&cfg, inst, RowSchedule::Contiguous);
        let balanced = summa_arm(&cfg, inst, RowSchedule::FlopBalanced);
        assert_eq!(contiguous.result, balanced.result);
        assert!(
            balanced.imbalance <= contiguous.imbalance,
            "flop-balanced {} vs contiguous {}",
            balanced.imbalance,
            contiguous.imbalance
        );
    }
}
