//! Communication-avoiding round structure ablation: virtual transposition
//! (Section V-C).
//!
//! Two arms run the identical update stream on a [`DynSpGemm`] session's
//! matrices:
//!
//! 1. **physical** — [`TransposeMode::Physical`]: every update SpGEMM
//!    starts with the Algorithm-1 transpose exchange (paired p2p sends of
//!    whole star blocks). The engine runs the virtual schedule, so this
//!    arm drives the function-level entry on the engine's fields.
//! 2. **virtual** — [`TransposeMode::Virtual`], what
//!    [`DynSpGemm::apply_algebraic`] runs: the redistribution builds each
//!    star in both layouts, so round roots transpose their *own* block
//!    locally and the p2p exchange disappears from the wire entirely. `C`
//!    must stay bit-identical.
//!
//! The hard invariants (bit-identical `C`, zero transpose-exchange bytes)
//! are asserted here; the wall clock is reported, never asserted.

use crate::experiments::{edges_to_triples, prepare_instances, rank_slice, Prepared};
use crate::measure::timed_collective;
use crate::report::{ms, Table};
use crate::Config;
use dspgemm_core::dyn_algebraic::{apply_algebraic_updates_mode_exec, TransposeMode};
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
    /// Bytes in the p2p category — the transpose exchange is its only
    /// traffic on this path, so virtual transposition must drive it to 0.
    pub p2p_bytes: u64,
    /// Root gather of the final `C` (identity check across arms).
    pub result: Vec<Triple<f64>>,
}

/// Runs one arm: the full update-batch loop on a [`DynSpGemm`] session in
/// the given transpose mode.
pub fn update_arm(cfg: &Config, inst: &Prepared, p: usize, mode: TransposeMode) -> CommAvoidArm {
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
        comm.barrier();
        let before = comm.comm_stats();
        let (_, wall) = timed_collective(comm, || {
            for (a_batch, b_batch) in stream {
                match mode {
                    TransposeMode::Virtual => eng.apply_algebraic(&grid, a_batch, b_batch),
                    TransposeMode::Physical => {
                        eng.flops += apply_algebraic_updates_mode_exec::<F64Plus>(
                            &grid,
                            &mut eng.a,
                            &mut eng.b,
                            &mut eng.c,
                            eng.f.as_mut(),
                            a_batch,
                            b_batch,
                            mode,
                            &eng.exec,
                            &mut eng.timer,
                        );
                    }
                }
            }
            // One publish per arm, after the last batch: the wall column
            // compares schedules, not publish counts.
            eng.publish();
        });
        let region = comm.comm_stats().delta_since(&before);
        // Fence before gathering: a fast rank's gather sends must not leak
        // into a slow rank's region snapshot.
        comm.barrier();
        let c = eng.c.gather_to_root(comm);
        (wall, region, c)
    });
    let (wall, region, c) = &out.results[0];
    CommAvoidArm {
        wall: *wall,
        bytes: region.total_bytes(),
        p2p_bytes: region.bytes_in(CommCategory::P2p),
        result: c.clone().unwrap_or_default(),
    }
}

/// The `repro commavoid` table.
pub fn run(cfg: &Config) -> Table {
    let mut t = Table::new(
        format!(
            "Ablation: communication-avoiding rounds (virtual transposition), p={}, batch={}",
            cfg.p, cfg.batch_size
        ),
        &["benchmark", "wall", "wire bytes", "transpose exch. bytes"],
    );
    let inst = &prepare_instances(cfg)[0];

    // The physical baseline runs with the tracer suppressed: an exported
    // trace of this ablation documents the *shipped* (virtual) schedule,
    // where `transpose_virtual` spans replace the exchange and no
    // `comm/send` p2p span may appear at all — the CI trace check asserts
    // exactly that. The wire meter (`comm_stats`) is unaffected.
    let was = dspgemm_obs::enabled();
    dspgemm_obs::set_enabled(false);
    let physical = update_arm(cfg, inst, cfg.p, TransposeMode::Physical);
    dspgemm_obs::set_enabled(was);
    let virtual_ = update_arm(cfg, inst, cfg.p, TransposeMode::Virtual);

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
    for (name, arm) in [
        (
            "dynamic updates, physical transpose exchange (before)",
            &physical,
        ),
        ("dynamic updates, virtual transposition (after)", &virtual_),
    ] {
        t.push_row(vec![
            name.to_string(),
            ms(arm.wall),
            dspgemm_util::stats::format_bytes(arm.bytes),
            dspgemm_util::stats::format_bytes(arm.p2p_bytes),
        ]);
    }

    t.note(
        "C is asserted bit-identical across the two arms; the virtual arm's transpose-exchange \
         (p2p) bytes are asserted zero",
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
        // The run itself asserts bit-identical C and zero transpose-exchange
        // bytes on the virtual arm.
        let t = run(&cfg);
        assert_eq!(t.rows.len(), 2);
    }

    #[test]
    fn commavoid_at_p9() {
        let mut cfg = Config::smoke();
        cfg.p = 9;
        cfg.instances = 1;
        cfg.batches = 2;
        let t = run(&cfg);
        assert_eq!(t.rows.len(), 2);
    }
}
