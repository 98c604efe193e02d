//! Fault injection & epoch-anchored recovery: what surviving a rank failure
//! costs.
//!
//! Two arms run the identical update workload through a recovery-enabled
//! [`DynSpGemm`] session (write-ahead logs and buddy-replicated anchors are
//! on in both, so their steady-state wire volume is comparable):
//!
//! * **fault-free** — no injected faults.
//! * **crash at batch k** — one rank is killed at its first send of batch
//!   [`CRASH_BATCH`]; survivors roll back to the agreed anchor, the dead
//!   rank rebuilds as a replacement from its buddy's replica, and replay +
//!   batch re-submission finish the workload.
//!
//! The table reports wall time, recoveries, rollback depth, replay length,
//! rebuild volume and detection latency per arm. It asserts nothing: that
//! recovery ends bit-identical to the fault-free run — and to a static
//! recompute — is the seeded model test's to show
//! (`crates/core/tests/recovery.rs`), over crashes at every send of the
//! steps this experiment can reach; that the `engine/recover` span carries
//! the returned report on every rank, and that a fault-free run records
//! none, is `tests/obs.rs`'s.

use crate::experiments::{
    batch_updates, edges_to_triples, prepare_instances, rank_slice, Prepared,
};
use crate::report::{ms, Table};
use crate::Config;
use dspgemm_core::recovery::RecoveryConfig;
use dspgemm_core::{Batch, DistMat, DynSpGemm, Grid, RecoveryReport};
use dspgemm_mpi::Comm;
use dspgemm_sparse::semiring::F64Plus;
use dspgemm_util::stats::PhaseTimer;
use std::time::Instant;

/// Batch at whose first send the crash arm kills rank `p / 2`.
pub const CRASH_BATCH: u64 = 1;

/// Committed epochs between copy-on-write recovery anchors.
pub const ANCHOR_PERIOD: u64 = 2;

/// Drives the workload on this rank, arming a crash at its first send of
/// batch `crash_batch`, recovering (survivors roll back + replay, the
/// victim rebuilds as the replacement) and re-submitting uncommitted
/// batches until all commit. Returns this rank's recoveries and the report
/// of the last one.
fn drive(
    cfg: &Config,
    inst: &Prepared,
    comm: &Comm,
    crash_batch: Option<u64>,
) -> (u64, Option<RecoveryReport>) {
    let (n, p, me) = (inst.n, comm.size(), comm.rank());
    let batches = cfg.batches.max(2) as u64;
    let grid = Grid::new(comm);
    let mut timer = PhaseTimer::new();
    let mine = edges_to_triples(&rank_slice(&inst.edges, me, p));
    let a = DistMat::from_global_triples(&grid, n, n, mine.clone(), 1, &mut timer);
    let b = DistMat::from_global_triples(&grid, n, n, mine, 1, &mut timer);
    let mut e = DynSpGemm::<F64Plus>::new(&grid, a, b, 1, false);
    let rcfg = RecoveryConfig {
        anchor_period: ANCHOR_PERIOD,
    };
    // A crash in batch 0 may reach a rank still inside the enable fence;
    // that error recovers like a batch's.
    let mut res = e.enable_recovery(&grid, rcfg);
    let (mut recoveries, mut report) = (0, None);
    let mut batch = 0;
    loop {
        if let Err(err) = res {
            let r = e.recover(&grid, err);
            recoveries += 1;
            batch = r.committed_publishes - 1;
            report = Some(r);
        }
        if batch == batches {
            return (recoveries, report);
        }
        if me == p / 2 && crash_batch == Some(batch) && recoveries == 0 {
            comm.arm_crash(1);
        }
        let (a_ups, b_ups) = batch_updates(n, cfg.batch_size.min(512), cfg.seed, batch, me);
        res = e.try_apply(&grid, Batch::Algebraic(a_ups, b_ups)).map(drop);
        if res.is_ok() {
            e.publish();
            batch += 1;
        }
    }
}

/// The `repro faults` table.
pub fn run(cfg: &Config) -> Table {
    let p = cfg.p;
    let batches = cfg.batches.max(2) as u64;
    let mut t = Table::new(
        format!(
            "Fault injection & epoch-anchored recovery: crash rank {} at batch {CRASH_BATCH} of \
             {batches}, p={p}, anchor period {ANCHOR_PERIOD}",
            p / 2,
        ),
        &[
            "benchmark",
            "wall",
            "recoveries",
            "rollback epochs",
            "replayed batches",
            "rebuild bytes",
            "detect latency",
        ],
    );
    let inst = &prepare_instances(cfg)[0];
    for (name, crash) in [
        ("fault-free", None),
        ("crash + rollback/replay", Some(CRASH_BATCH)),
    ] {
        let started = Instant::now();
        let out = dspgemm_mpi::run(p, |comm| drive(cfg, inst, comm, crash));
        let wall = started.elapsed();
        // Reports are allreduced: rank 0's stands for the grid.
        let (recoveries, report) = &out.results[0];
        let (rollback, replayed, rebuild, detect) = report
            .as_ref()
            .map(|r| {
                (
                    r.rollback_epochs.to_string(),
                    r.replayed_batches.to_string(),
                    dspgemm_util::stats::format_bytes(r.rebuild_bytes),
                    format!("{:.1} us", r.detect_ns as f64 / 1e3),
                )
            })
            .unwrap_or_else(|| ("0".into(), "0".into(), "-".into(), "-".into()));
        t.push_row(vec![
            name.to_string(),
            ms(wall),
            recoveries.to_string(),
            rollback,
            replayed,
            rebuild,
            detect,
        ]);
    }

    t.note(
        "both arms run with write-ahead logging and buddy-replicated anchors enabled; the crash \
         arm's survivors roll back to the agreed anchor and replay their logs, the victim \
         rebuilds as a replacement from its buddy's replica",
    );
    t.note(
        "detect latency = marker-to-detection time of the failure, max over ranks; rebuild bytes \
         = wire volume of the replica bundle shipped to the replacement",
    );
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn faults_smoke() {
        let mut cfg = Config::smoke();
        cfg.instances = 1;
        cfg.batches = 3;
        let t = run(&cfg);
        assert_eq!(t.rows.len(), 2);
        assert_eq!(t.rows[1][2], "1", "the crash arm recovers once");
    }
}
