//! Overlap report: how much communication the pipelined (nonblocking,
//! double-buffered) round schedule hides.
//!
//! Round `k + 1`'s panels are in flight under round `k`'s multiply, so part
//! of each communication window is covered by compute instead of *exposed*
//! (ranks blocked waiting). This experiment reports that split for the
//! static product and for a dynamic batch stream from the exposed and
//! overlapped wait of every rank's [`BatchReport`]s, which count no fence:
//! the meter adds none. It asserts
//! nothing: that tracing leaves results and wire volume unchanged is
//! `tests/obs.rs`'s to show.

use crate::experiments::{edges_to_triples, prepare_instances, rank_slice, Prepared};
use crate::measure::{per_batch, quantile};
use crate::report::{ms, ratio, Table};
use crate::Config;
use dspgemm_core::summa::summa;
use dspgemm_core::{meter, BatchReport, DistMat, DynSpGemm, Grid};
use dspgemm_graph::stream::ReplacementDraws;
use dspgemm_sparse::semiring::F64Plus;
use dspgemm_sparse::Triple;
use dspgemm_util::stats::PhaseTimer;
use std::time::Duration;

/// Outcome of one arm.
#[derive(Debug, Clone, Default)]
pub struct OverlapArm {
    /// Median wall time of the measured call: the slowest rank's.
    pub wall: Duration,
    /// Wire bytes every rank sent in the measured region.
    pub bytes: u64,
    /// Messages every rank sent in the measured region.
    pub msgs: u64,
    /// Total ns all ranks spent blocked waiting for communication.
    pub exposed_ns: u64,
    /// Total ns of request lifetime hidden under compute.
    pub overlapped_ns: u64,
}

impl OverlapArm {
    /// The arm of a run whose ranks returned one report per measured call
    /// (`runs[rank][call]`): the median call's wall time, and the volume
    /// and waits of every rank over the first `region` calls.
    fn of(runs: &[Vec<BatchReport>], region: usize) -> Self {
        let walls = per_batch(runs).iter().map(|c| c.wall).collect();
        let mut arm = Self {
            wall: quantile(walls, 0.5),
            ..Self::default()
        };
        for r in runs.iter().flat_map(|rank| &rank[..region]) {
            arm.bytes += r.sent_bytes();
            arm.msgs += r.sent_msgs();
            arm.exposed_ns += r.comm.exposed_ns;
            arm.overlapped_ns += r.comm.overlapped_ns;
        }
        arm
    }

    /// `overlapped / (exposed + overlapped)` of the measured region.
    pub fn overlap_ratio(&self) -> f64 {
        let total = (self.exposed_ns + self.overlapped_ns) as f64;
        if total == 0.0 {
            0.0
        } else {
            self.overlapped_ns as f64 / total
        }
    }
}

/// One SUMMA arm at `p` ranks: full-adjacency `A·A`, `reps` repetitions
/// (median wall; volume and waits of the *first* rep).
pub fn summa_arm(inst: &Prepared, p: usize) -> OverlapArm {
    let n = inst.n;
    let edges = &inst.edges;
    let reps = 3usize;
    let out = dspgemm_mpi::run(p, |comm| {
        let grid = Grid::new(comm);
        let mut timer = PhaseTimer::new();
        let mine = edges_to_triples(&rank_slice(edges, comm.rank(), p));
        let a = DistMat::from_global_triples(&grid, n, n, mine, 1, &mut timer);
        let product = |stages: &mut PhaseTimer| summa::<F64Plus>(&grid, &a, &a, 1, stages);
        (0..reps).map(|_| meter(comm, product).1).collect()
    });
    OverlapArm::of(&out.results, 1)
}

/// The dynamic-update arm, reported for its achieved overlap ratio. Runs
/// through the [`DynSpGemm`] session and snapshots after every batch, so
/// a traced run carries the full batch lifecycle: redistribute and
/// apply-batch spans plus one `epoch_publish` instant per batch.
pub fn dynamic_arm(cfg: &Config, inst: &Prepared, p: usize) -> OverlapArm {
    let n = inst.n;
    let (batches, seed) = (cfg.batches.max(1), cfg.seed);
    let batch_size = cfg.batch_size;
    let edges = &inst.edges;
    let out = dspgemm_mpi::run(p, |comm| {
        let grid = Grid::new(comm);
        let mut timer = PhaseTimer::new();
        let mine = edges_to_triples(&rank_slice(edges, comm.rank(), p));
        let a = DistMat::from_global_triples(&grid, n, n, mine.clone(), 1, &mut timer);
        let b = DistMat::from_global_triples(&grid, n, n, mine, 1, &mut timer);
        let mut eng = DynSpGemm::<F64Plus>::new(&grid, a, b, 1, false);
        let mut a_draws = ReplacementDraws::new(batch_size, seed, comm.rank());
        let mut b_draws = ReplacementDraws::new(batch_size, seed ^ 0x9e37, comm.rank());
        let draw = |draws: &mut ReplacementDraws| -> Vec<Triple<f64>> {
            let batch = draws.next_batch(edges).into_iter();
            batch.map(|(u, v)| Triple::new(u, v, 1.0)).collect()
        };
        (0..batches)
            .map(|_| {
                let (a_batch, b_batch) = (draw(&mut a_draws), draw(&mut b_draws));
                let mut report = eng.apply_algebraic(&grid, a_batch, b_batch);
                // Commit the batch as the next epoch (local-only) — the
                // serving pattern, and the source of `epoch_publish`
                // events in a traced run.
                report.merge(&meter(comm, |_| eng.snapshot()).1);
                report
            })
            .collect()
    });
    OverlapArm::of(&out.results, batches)
}

fn ns_ms(ns: u64) -> String {
    format!("{:.2}", ns as f64 / 1e6)
}

/// The `repro overlap` table.
pub fn run(cfg: &Config) -> Table {
    let mut t = Table::new(
        format!(
            "Communication/compute overlap of the pipelined round schedule, p={}",
            cfg.p
        ),
        &[
            "benchmark",
            "wall",
            "wire bytes",
            "exposed comm (ms)",
            "overlapped comm (ms)",
            "overlap ratio",
        ],
    );
    let inst = &prepare_instances(cfg)[0];

    for (name, arm) in [
        (
            "static SUMMA, pipelined schedule".to_string(),
            summa_arm(inst, cfg.p),
        ),
        (
            format!("dynamic updates, pipelined ({} / rank)", cfg.batch_size),
            dynamic_arm(cfg, inst, cfg.p),
        ),
    ] {
        t.push_row(vec![
            name,
            ms(arm.wall),
            dspgemm_util::stats::format_bytes(arm.bytes),
            ns_ms(arm.exposed_ns),
            ns_ms(arm.overlapped_ns),
            ratio(arm.overlap_ratio()),
        ]);
    }

    t.note(
        "exposed = ranks blocked waiting; overlapped = issue-to-availability window covered by \
         compute",
    );
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlap_smoke() {
        let mut cfg = Config::smoke();
        cfg.instances = 1;
        cfg.batches = 1;
        let t = run(&cfg);
        assert_eq!(t.rows.len(), 2);
    }

    #[test]
    fn pipelined_summa_timing_is_consistent_at_p9() {
        // Whether a given run records *nonzero* overlap depends on OS
        // scheduling (the availability-based metric only credits panels
        // that arrived while a rank computed), so asserting overlap > 0
        // here would flake on a loaded CI runner — the deterministic
        // overlap property lives in tests/overlap.rs. This test pins the
        // deterministic facts of the p=9 pipelined arm: traffic was
        // measured and the timing split is well-formed.
        let mut cfg = Config::smoke();
        cfg.p = 9;
        cfg.instances = 1;
        let inst = &prepare_instances(&cfg)[0];
        let pipelined = summa_arm(inst, 9);
        assert!(pipelined.bytes > 0 && pipelined.msgs > 0);
        let ratio = pipelined.overlap_ratio();
        assert!((0.0..=1.0).contains(&ratio), "ratio {ratio} out of range");
    }
}
