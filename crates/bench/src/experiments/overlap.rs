//! Overlap report: how much communication the pipelined (nonblocking,
//! double-buffered) round schedule hides.
//!
//! Round `k + 1`'s panels are in flight under round `k`'s multiply, so part
//! of each communication window is covered by compute instead of *exposed*
//! (ranks blocked waiting). This experiment reports that split for the
//! static product and for a dynamic batch stream from the meter's
//! exposed/overlapped counters ([`dspgemm_mpi::CommStats`]). It asserts
//! nothing: that tracing leaves results and wire volume unchanged is
//! `tests/obs.rs`'s to show.

use crate::experiments::{edges_to_triples, prepare_instances, rank_slice, Prepared};
use crate::measure::{median, timed_collective};
use crate::report::{ms, ratio, Table};
use crate::Config;
use dspgemm_core::summa::summa;
use dspgemm_core::{DistMat, DynSpGemm, Grid};
use dspgemm_graph::stream::ReplacementDraws;
use dspgemm_sparse::semiring::F64Plus;
use dspgemm_sparse::Triple;
use dspgemm_util::stats::PhaseTimer;
use std::time::Duration;

/// Outcome of one arm.
#[derive(Debug, Clone)]
pub struct OverlapArm {
    /// Median wall time of the measured collective.
    pub wall: Duration,
    /// Total metered wire bytes of the measured region.
    pub bytes: u64,
    /// Total messages of the measured region.
    pub msgs: u64,
    /// Total ns all ranks spent blocked waiting for communication.
    pub exposed_ns: u64,
    /// Total ns of request lifetime hidden under compute.
    pub overlapped_ns: u64,
}

impl OverlapArm {
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
/// (median wall; stats of the *first* rep region).
pub fn summa_arm(inst: &Prepared, p: usize) -> OverlapArm {
    let n = inst.n;
    let edges = &inst.edges;
    let reps = 3usize;
    let out = dspgemm_mpi::run(p, |comm| {
        let grid = Grid::new(comm);
        let mut timer = PhaseTimer::new();
        let mine = edges_to_triples(&rank_slice(edges, comm.rank(), p));
        let a = DistMat::from_global_triples(&grid, n, n, mine, 1, &mut timer);
        let mut walls = Vec::new();
        let mut region = None;
        for _ in 0..reps {
            comm.barrier();
            let before = comm.comm_stats();
            let (_, d) = timed_collective(comm, || summa::<F64Plus>(&grid, &a, &a, 1, &mut timer));
            walls.push(d);
            region.get_or_insert_with(|| comm.comm_stats().delta_since(&before));
        }
        (median(&walls), region.expect("one rep ran"))
    });
    let (wall, region) = &out.results[0];
    OverlapArm {
        wall: *wall,
        bytes: region.total_bytes(),
        // Zero-byte barrier control messages are excluded: dissemination
        // rounds of the fencing barriers straddle the snapshots
        // nondeterministically (cf. `measure::measured_collective`).
        msgs: region
            .total_msgs()
            .saturating_sub(region.msgs_in(dspgemm_mpi::CommCategory::Barrier)),
        // Exposed/overlapped are summed across ranks from the region delta
        // of rank 0's snapshot (the snapshot covers the whole network).
        exposed_ns: region.total_exposed_ns(),
        overlapped_ns: region.total_overlapped_ns(),
    }
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
        comm.barrier();
        let before = comm.comm_stats();
        let mut times = Vec::new();
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
                eng.apply_algebraic(&grid, a_batch, b_batch);
                // Commit the batch as the next epoch (local-only) — the
                // serving pattern, and the source of `epoch_publish`
                // events in a traced run.
                eng.snapshot();
            });
            times.push(d);
        }
        let region = comm.comm_stats().delta_since(&before);
        (median(&times), region)
    });
    let (wall, region) = &out.results[0];
    OverlapArm {
        wall: *wall,
        bytes: region.total_bytes(),
        msgs: region.total_msgs(),
        exposed_ns: region.total_exposed_ns(),
        overlapped_ns: region.total_overlapped_ns(),
    }
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
