//! Communication-avoiding round structure ablation: virtual transposition
//! (Section V-C) and the depth-1 inter-batch redistribution lookahead.
//!
//! Three arms run the identical update stream through [`DynSpGemm`]:
//!
//! 1. **physical** — [`TransposeMode::Physical`]: every update SpGEMM
//!    starts with the Algorithm-1 transpose exchange (paired p2p sends of
//!    whole star blocks).
//! 2. **virtual** — [`TransposeMode::Virtual`] (the default): the
//!    redistribution builds each star in both layouts, so round roots
//!    transpose their *own* block locally and the p2p exchange disappears
//!    from the wire entirely. `C` must stay bit-identical.
//! 3. **lookahead** — virtual mode plus [`DynSpGemm::submit_algebraic`]:
//!    batch `k + 1`'s redistribution `IALLTOALLV`s are in flight under
//!    batch `k`'s SpGEMM rounds. Wire volume must stay byte-identical to
//!    the sequential virtual arm — the schedule moves redistribution time
//!    from exposed to overlapped, never bytes or values.
//!
//! The hard invariants (bit-identical `C`, zero transpose-exchange bytes,
//! byte-identical lookahead wire) are asserted here; the timing split is
//! reported (never asserted — exposed/overlapped attribution depends on OS
//! scheduling).

use crate::experiments::{edges_to_triples, prepare_instances, rank_slice, Prepared};
use crate::measure::timed_collective;
use crate::report::{ms, ratio, Table};
use crate::Config;
use dspgemm_core::dyn_algebraic::TransposeMode;
use dspgemm_core::redistribute::phase::REDIST_COMM;
use dspgemm_core::{DistMat, DynSpGemm, Grid};
use dspgemm_graph::stream::ReplacementDraws;
use dspgemm_mpi::CommCategory;
use dspgemm_sparse::semiring::F64Plus;
use dspgemm_sparse::Triple;
use dspgemm_util::stats::PhaseTimer;
use std::time::Duration;

/// Outcome of one schedule arm (one full batch loop).
#[derive(Debug, Clone)]
pub struct CommAvoidArm {
    /// Wall time of the whole measured batch loop.
    pub wall: Duration,
    /// Total metered wire bytes of the measured region.
    pub bytes: u64,
    /// Total messages of the measured region (barrier control excluded).
    pub msgs: u64,
    /// Bytes in the p2p category — the transpose exchange is its only
    /// traffic on this path, so virtual transposition must drive it to 0.
    pub p2p_bytes: u64,
    /// Redistribution communication the ranks actually waited for
    /// (engine-timer `redist. comm.` exposed, summed across ranks).
    pub redist_exposed: Duration,
    /// Redistribution communication hidden under compute (summed).
    pub redist_overlapped: Duration,
    /// Deepest lookahead observed (`DynSpGemm::pending_depth` max).
    pub max_depth: usize,
    /// Root gather of the final `C` (identity check across arms).
    pub result: Vec<Triple<f64>>,
}

impl CommAvoidArm {
    /// Fraction of redistribution communication hidden under compute.
    pub fn redist_overlap_ratio(&self) -> f64 {
        let total = (self.redist_exposed + self.redist_overlapped).as_secs_f64();
        if total == 0.0 {
            0.0
        } else {
            self.redist_overlapped.as_secs_f64() / total
        }
    }
}

/// Runs one arm: the full update-batch loop through a [`DynSpGemm`]
/// session in the given transpose mode, sequentially (`submit` + `flush`
/// per batch) or with the depth-1 lookahead (`submit` back-to-back, one
/// final `flush`). Both drive the same `submit_algebraic` code path so the
/// engine-timer redistribution accounting is symmetric across arms.
pub fn update_arm(
    cfg: &Config,
    inst: &Prepared,
    p: usize,
    mode: TransposeMode,
    lookahead: bool,
) -> CommAvoidArm {
    let n = inst.n;
    let (threads, batches, seed) = (cfg.threads, cfg.batches.max(1), cfg.seed);
    let batch_size = cfg.batch_size;
    let edges = &inst.edges;
    let out = dspgemm_mpi::run(p, |comm| {
        let grid = Grid::new(comm);
        let mut timer = PhaseTimer::new();
        let mine = edges_to_triples(&rank_slice(edges, comm.rank(), p));
        let a = DistMat::from_global_triples(&grid, n, n, mine.clone(), threads, &mut timer);
        let b = DistMat::from_global_triples(&grid, n, n, mine, threads, &mut timer);
        let mut eng = DynSpGemm::<F64Plus>::new(&grid, a, b, threads, false);
        eng.transpose_mode = mode;
        // Draw every batch up front: the stream is deterministic per rank,
        // so all arms see identical updates and the draw cost stays outside
        // the measured region.
        let mut a_draws = ReplacementDraws::new(batch_size, seed, comm.rank());
        let mut b_draws = ReplacementDraws::new(batch_size, seed ^ 0x9e37, comm.rank());
        type Batch = (Vec<Triple<f64>>, Vec<Triple<f64>>);
        let to_triples = |pairs: Vec<(u32, u32)>| -> Vec<Triple<f64>> {
            pairs
                .into_iter()
                .map(|(u, v)| Triple::new(u, v, 1.0))
                .collect()
        };
        let stream: Vec<Batch> = (0..batches)
            .map(|_| {
                (
                    to_triples(a_draws.next_batch(edges)),
                    to_triples(b_draws.next_batch(edges)),
                )
            })
            .collect();
        let base_exposed = eng.timer.comm_exposed(REDIST_COMM);
        let base_overlapped = eng.timer.comm_overlapped(REDIST_COMM);
        comm.barrier();
        let before = comm.comm_stats();
        let mut max_depth = 0usize;
        let (_, wall) = timed_collective(comm, || {
            for (a_batch, b_batch) in stream {
                eng.submit_algebraic(&grid, a_batch, b_batch);
                max_depth = max_depth.max(eng.pending_depth());
                if !lookahead {
                    eng.flush(&grid);
                }
            }
            // One publish per arm, after the last batch: the wall column
            // compares schedules, not publish counts.
            eng.flush(&grid);
            eng.snapshot();
        });
        let region = comm.comm_stats().delta_since(&before);
        // Fence before gathering: a fast rank's gather sends must not leak
        // into a slow rank's region snapshot.
        comm.barrier();
        let c = eng.c.gather_to_root(comm);
        let redist = (
            eng.timer.comm_exposed(REDIST_COMM) - base_exposed,
            eng.timer.comm_overlapped(REDIST_COMM) - base_overlapped,
        );
        (wall, region, c, redist, max_depth)
    });
    let (wall, region, c, _, _) = &out.results[0];
    // The engine timers are rank-local; sum the redistribution split over
    // all ranks (the region stats already cover the whole network).
    let (mut redist_exposed, mut redist_overlapped) = (Duration::ZERO, Duration::ZERO);
    let mut max_depth = 0usize;
    for (_, _, _, (e, o), d) in &out.results {
        redist_exposed += *e;
        redist_overlapped += *o;
        max_depth = max_depth.max(*d);
    }
    CommAvoidArm {
        wall: *wall,
        bytes: region.total_bytes(),
        // Zero-byte barrier control messages are excluded: dissemination
        // rounds of the fencing barriers straddle the snapshots
        // nondeterministically (cf. `measure::measured_collective`).
        msgs: region
            .total_msgs()
            .saturating_sub(region.msgs_in(CommCategory::Barrier)),
        p2p_bytes: region.bytes_in(CommCategory::P2p),
        redist_exposed,
        redist_overlapped,
        max_depth,
        result: c.clone().unwrap_or_default(),
    }
}

fn ns_ms(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64() * 1e3)
}

/// The `repro commavoid` table.
pub fn run(cfg: &Config) -> Table {
    let mut t = Table::new(
        format!(
            "Ablation: communication-avoiding rounds (virtual transposition + inter-batch \
             lookahead), p={}, batch={}",
            cfg.p, cfg.batch_size
        ),
        &[
            "benchmark",
            "wall",
            "wire bytes",
            "transpose exch. bytes",
            "exposed redist (ms)",
            "overlapped redist (ms)",
            "redist overlap",
        ],
    );
    let inst = &prepare_instances(cfg)[0];

    // The physical baseline runs with the tracer suppressed: an exported
    // trace of this ablation documents the *shipped* (virtual) schedule,
    // where `transpose_virtual` spans replace the exchange and no
    // `comm/send` p2p span may appear at all — the CI trace check asserts
    // exactly that. The wire meter (`comm_stats`) is unaffected.
    let was = dspgemm_obs::enabled();
    dspgemm_obs::set_enabled(false);
    let physical = update_arm(cfg, inst, cfg.p, TransposeMode::Physical, false);
    dspgemm_obs::set_enabled(was);
    let virtual_ = update_arm(cfg, inst, cfg.p, TransposeMode::Virtual, false);
    let lookahead = update_arm(cfg, inst, cfg.p, TransposeMode::Virtual, true);

    // Hard invariants of virtual transposition: same C, and the transpose
    // exchange — the only p2p traffic on this path — gone from the wire.
    assert_eq!(
        physical.result, virtual_.result,
        "virtual transposition must leave C bit-identical"
    );
    assert_eq!(
        virtual_.p2p_bytes, 0,
        "virtual transposition must eliminate the transpose exchange"
    );
    if cfg.p > 1 {
        assert!(
            physical.p2p_bytes > 0,
            "physical schedule must pay the transpose exchange at p > 1"
        );
    }
    // Hard invariants of the lookahead: same C, byte-identical wire — the
    // schedule moves redistribution time, never bytes or values.
    assert_eq!(
        virtual_.result, lookahead.result,
        "lookahead must leave C bit-identical"
    );
    assert_eq!(
        virtual_.bytes, lookahead.bytes,
        "lookahead must leave wire volume byte-identical"
    );
    assert_eq!(
        virtual_.msgs, lookahead.msgs,
        "lookahead must leave message count identical"
    );
    assert!(
        lookahead.max_depth <= 1,
        "lookahead depth must stay bounded at 1 (saw {})",
        lookahead.max_depth
    );

    for (name, arm) in [
        (
            "dynamic updates, physical transpose exchange (before)",
            &physical,
        ),
        ("dynamic updates, virtual transposition (after)", &virtual_),
        (
            "dynamic updates, virtual + inter-batch lookahead",
            &lookahead,
        ),
    ] {
        t.push_row(vec![
            name.to_string(),
            ms(arm.wall),
            dspgemm_util::stats::format_bytes(arm.bytes),
            dspgemm_util::stats::format_bytes(arm.p2p_bytes),
            ns_ms(arm.redist_exposed),
            ns_ms(arm.redist_overlapped),
            ratio(arm.redist_overlap_ratio()),
        ]);
    }

    t.note(
        "C is asserted bit-identical across all three arms; the virtual arms' transpose-exchange \
         (p2p) bytes are asserted zero",
    );
    t.note(
        "lookahead wire volume and message count are asserted byte-identical to the sequential \
         virtual arm; its pending depth is asserted <= 1",
    );
    t.note(
        "exposed = ranks blocked in redistribution waits; overlapped = in-flight redistribution \
         hidden under the previous batch's SpGEMM (reported, not asserted: the split depends on \
         OS scheduling)",
    );
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commavoid_smoke() {
        let mut cfg = Config::smoke();
        cfg.instances = 1;
        cfg.batches = 2;
        // The run itself asserts bit-identical C, zero transpose-exchange
        // bytes on the virtual arms, and lookahead wire parity.
        let t = run(&cfg);
        assert_eq!(t.rows.len(), 3);
    }

    #[test]
    fn commavoid_at_p9() {
        let mut cfg = Config::smoke();
        cfg.p = 9;
        cfg.instances = 1;
        cfg.batches = 2;
        let t = run(&cfg);
        assert_eq!(t.rows.len(), 3);
    }
}
