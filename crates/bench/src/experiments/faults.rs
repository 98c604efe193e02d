//! Fault injection & epoch-anchored recovery: survive a rank failure with
//! deterministic replay, at zero cost to the maintained product's bits.
//!
//! Three arms run the identical update workload through a recovery-enabled
//! [`DynSpGemm`] session (write-ahead logs and buddy-replicated anchors are
//! on everywhere, so the arms' steady-state wire volume is comparable):
//!
//! * **fault-free** — no injected faults; the bit-reference.
//! * **crash at batch k** — one rank is killed at its first send of batch
//!   `--crash-batch`; survivors roll back to the agreed anchor, the dead
//!   rank rebuilds as a replacement from its buddy's replica, and replay +
//!   batch re-submission finish the workload.
//! * **delay storm** — a seeded jitter schedule perturbs every rank's send
//!   timing (no failures); exercises the claim that recovery determinism
//!   does not depend on message interleaving.
//!
//! Hard invariants, asserted per run:
//!
//! * the root-gathered final `C` and every rank's flop counter are
//!   **bit-identical** across all three arms;
//! * every per-batch local `C` observation made by an arm matches the
//!   fault-free arm's observation of the same batch (a survivor
//!   interrupted mid-batch may lack at most one observation per recovery);
//! * the epoch pinned at batch 0 stays bit-stable through crash, rollback
//!   and replay — on every rank that committed batch 0 locally before the
//!   failure interrupted it (the same ≤1-gap-per-recovery contract: a
//!   survivor the asynchronous marker catches inside batch 0 never takes
//!   the pin at all);
//! * the crash arm recovers exactly once on every rank, replays exactly
//!   the rolled-back window, and moves replica-rebuild bytes over the
//!   wire; the delay arm (and a disabled crash) recover zero times;
//! * fault-free and delay-storm arms transfer identical logical bytes
//!   (injected jitter models wasted time, not traffic).
//!
//! Detection latency, rollback depth, replay length and rebuild volume are
//! reported per arm; the `engine/recover` spans appear in an exported
//! trace only from the crash arm (the other arms run tracer-suppressed —
//! the CI trace check asserts presence here and absence when
//! `--crash-batch` is past the last batch).

use crate::experiments::{edges_to_triples, prepare_instances, rank_slice, Prepared};
use crate::report::{ms, Table};
use crate::Config;
use dspgemm_core::recovery::RecoveryConfig;
use dspgemm_core::{Batch, DistMat, DynSpGemm, Grid, RecoveryReport};
use dspgemm_mpi::{run_with_faults, Comm, FaultPlan};
use dspgemm_sparse::semiring::F64Plus;
use dspgemm_sparse::Triple;
use dspgemm_util::rng::{Rng, SplitMix64};
use dspgemm_util::stats::PhaseTimer;
use std::time::{Duration, Instant};

/// Rank-local update feed for one batch — a pure function of
/// `(seed, batch, rank)`, so a replayed or re-submitted batch regenerates
/// bit-identical inputs. Unit values keep `C` integer-valued in `f64`, so
/// cross-arm bit-identity is exact despite reordered accumulation.
pub(crate) fn batch_updates(
    n: u32,
    size: usize,
    seed: u64,
    batch: u64,
    rank: usize,
) -> (Vec<Triple<f64>>, Vec<Triple<f64>>) {
    let draw = |salt: u64| -> Vec<Triple<f64>> {
        let mut rng = SplitMix64::new(
            seed ^ salt ^ batch.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ ((rank as u64) << 17),
        );
        (0..size)
            .map(|_| {
                Triple::new(
                    rng.gen_range(n as u64) as u32,
                    rng.gen_range(n as u64) as u32,
                    1.0,
                )
            })
            .collect()
    };
    (draw(0xA), draw(0xB))
}

/// What one rank observed over a full driven run.
type ArmOutcome = (
    Vec<(u64, Vec<Triple<f64>>)>, // (batch, local C block) at each local commit
    Option<Vec<Triple<f64>>>,     // root-gathered final C
    u64,                          // final local flop counter
    u64,                          // final latest epoch number
    Option<Vec<Triple<f64>>>,     // pinned batch-0 snapshot's local C at run end
    //                               (None: interrupted before the pin)
    u64,                    // recoveries this rank performed
    Option<RecoveryReport>, // report of the (single) recovery, if any
);

/// One arm of the ablation.
#[derive(Debug, Clone)]
pub struct FaultArm {
    /// Wall time of the whole driven run (includes any recovery).
    pub wall: Duration,
    /// Network-wide logical wire bytes of the arm.
    pub total_bytes: u64,
    /// Per-rank outcomes.
    pub outcomes: Vec<ArmOutcome>,
}

/// Drives `batches` update batches through the fault-tolerant engine path,
/// optionally arming a crash of rank `crash.0` at batch `crash.1`,
/// recovering (survivors roll back + replay, the victim rebuilds as the
/// replacement) and re-submitting uncommitted batches until all commit.
pub fn fault_arm(
    cfg: &Config,
    inst: &Prepared,
    p: usize,
    crash: Option<(usize, u64)>,
    plan: FaultPlan,
) -> FaultArm {
    let n = inst.n;
    let batches = cfg.batches.max(2) as u64;
    let batch_size = cfg.batch_size.min(512);
    let seed = cfg.seed;
    let rcfg = RecoveryConfig {
        anchor_period: cfg.anchor_period.max(1),
    };
    let edges = &inst.edges;
    let started = Instant::now();
    let out = run_with_faults(p, plan, move |comm: &Comm| {
        let grid = Grid::new(comm);
        let me = comm.rank();
        let mut timer = PhaseTimer::new();
        let mine = edges_to_triples(&rank_slice(edges, me, p));
        let a = DistMat::from_global_triples(&grid, n, n, mine.clone(), 1, &mut timer);
        let b = DistMat::from_global_triples(&grid, n, n, mine, 1, &mut timer);
        let mut e = DynSpGemm::<F64Plus>::new(&grid, a, b, 1, false);
        // A crash in batch 0 may reach a rank still inside the enable fence;
        // that error recovers like a batch's.
        let mut res = e.enable_recovery(&grid, rcfg);

        let mut per_batch = Vec::new();
        let mut pinned = None;
        let mut armed = false;
        let mut recoveries = 0u64;
        let mut report = None;
        let mut b_idx = 0u64;
        loop {
            if let Err(err) = res {
                let r = e.recover(&grid, err);
                recoveries += 1;
                b_idx = r.committed_publishes - 1;
                report = Some(r);
            }
            if b_idx == batches {
                break;
            }
            if let Some((crank, cbatch)) = crash {
                if me == crank && b_idx == cbatch && !armed {
                    comm.arm_crash(1);
                    armed = true;
                }
            }
            let (a_ups, b_ups) = batch_updates(n, batch_size, seed, b_idx, me);
            res = e.try_apply(&grid, Batch::Algebraic(a_ups, b_ups));
            if res.is_ok() {
                e.publish();
                // Observe the committed batch locally from the published
                // snapshot (bit-stable; a cross-rank gather here would race
                // the asynchronous failure notification).
                let snap = e.snapshot();
                per_batch.push((b_idx, snap.c().block().to_triples()));
                if b_idx == 0 {
                    pinned = Some(snap);
                }
                b_idx += 1;
            }
        }
        let final_c = e.c.gather_to_root(comm);
        // A survivor the failure marker catches inside batch 0 never took
        // the pin: its absence is the one observation the gap contract
        // allows per recovery.
        let pin_content = pinned.map(|pin| pin.c().block().to_triples());
        (
            per_batch,
            final_c,
            e.flops,
            e.epoch().expect("published"),
            pin_content,
            recoveries,
            report,
        )
    });
    FaultArm {
        wall: started.elapsed(),
        total_bytes: out.stats.total_bytes(),
        outcomes: out.results,
    }
}

/// Cross-checks one arm against the fault-free reference and returns the
/// recovery totals `(recoveries, report)` of its rank 0.
fn check_arm(
    name: &str,
    batches: u64,
    reference: &FaultArm,
    arm: &FaultArm,
    expected_recoveries: u64,
) -> Option<RecoveryReport> {
    for (rank, ((pb_r, fc_r, fl_r, ep_r, pin_r, _, _), (pb_a, fc_a, fl_a, ep_a, pin_a, rec, _))) in
        reference.outcomes.iter().zip(&arm.outcomes).enumerate()
    {
        assert_eq!(fc_r, fc_a, "{name} rank={rank}: final C diverged");
        assert_eq!(fl_r, fl_a, "{name} rank={rank}: flop counters diverged");
        // The fault-free reference always pins; this arm may only lack the
        // pin when a recovery interrupted the rank inside batch 0.
        assert!(
            pin_r.is_some(),
            "{name} rank={rank}: reference arm lost its pin"
        );
        match pin_a {
            Some(_) => assert_eq!(
                pin_r, pin_a,
                "{name} rank={rank}: pinned batch-0 epoch diverged"
            ),
            None => assert!(
                expected_recoveries > 0,
                "{name} rank={rank}: pin missing without a recovery"
            ),
        }
        // Each recovery inserts exactly one uniform extra epoch.
        assert_eq!(*ep_a, ep_r + expected_recoveries, "{name} rank={rank}");
        assert_eq!(*rec, expected_recoveries, "{name} rank={rank}");
        // The reference observed every batch; this arm may lack at most one
        // observation per recovery (a survivor interrupted mid-batch never
        // locally publishes that epoch), and every observation it did make
        // must match bit-for-bit.
        assert_eq!(pb_r.len() as u64, batches);
        assert!(
            pb_a.len() as u64 >= batches - expected_recoveries,
            "{name} rank={rank}: more than one observation lost per recovery"
        );
        for (b, c_a) in pb_a {
            let (_, c_r) = &pb_r[*b as usize];
            assert_eq!(
                c_r, c_a,
                "{name} rank={rank} batch={b}: per-batch C diverged"
            );
        }
        assert_eq!(pb_a.last().map(|(b, _)| *b), Some(batches - 1));
    }
    arm.outcomes[0].6.clone()
}

/// The `repro faults` table.
pub fn run(cfg: &Config) -> Table {
    let p = cfg.p;
    let batches = cfg.batches.max(2) as u64;
    let crash_enabled = cfg.crash_batch < batches;
    let crash_rank = p / 2;
    let mut t = Table::new(
        format!(
            "Fault injection & epoch-anchored recovery: crash rank {crash_rank} at batch {} of \
             {batches}, p={p}, anchor period {}",
            cfg.crash_batch, cfg.anchor_period
        ),
        &[
            "benchmark",
            "wall",
            "recoveries",
            "rollback epochs",
            "replayed batches",
            "rebuild bytes",
            "detect latency",
            "final C",
        ],
    );
    let inst = &prepare_instances(cfg)[0];

    // Only the crash arm runs with the tracer live: an exported trace of
    // this experiment documents the recovery schedule, where the
    // `engine/recover` spans must appear — and must be absent when the
    // crash batch is past the end (the CI presence/absence checks).
    let was = dspgemm_obs::enabled();
    dspgemm_obs::set_enabled(false);
    let fault_free = fault_arm(cfg, inst, p, None, FaultPlan::new(cfg.seed));
    let delay = fault_arm(
        cfg,
        inst,
        p,
        None,
        FaultPlan::new(cfg.seed).delay_storm(3, 40),
    );
    dspgemm_obs::set_enabled(was);
    let crash = fault_arm(
        cfg,
        inst,
        p,
        crash_enabled.then_some((crash_rank, cfg.crash_batch)),
        FaultPlan::new(cfg.seed),
    );

    let expected = if crash_enabled { 1 } else { 0 };
    check_arm("delay-storm", batches, &fault_free, &delay, 0);
    let report = check_arm("crash", batches, &fault_free, &crash, expected);
    // Jitter models wasted time, never traffic: logical bytes match.
    assert_eq!(
        fault_free.total_bytes, delay.total_bytes,
        "delay storm must not change logical wire volume"
    );
    if let Some(r) = &report {
        assert_eq!(r.failed_rank, crash_rank);
        assert_eq!(
            r.replayed_batches, r.rollback_epochs,
            "replay must re-apply exactly the rolled-back window"
        );
        assert!(r.rebuild_bytes > 0, "replacement rebuild must move bytes");
    } else {
        assert!(
            !crash_enabled,
            "an enabled crash must produce a recovery report"
        );
    }

    for (name, arm, rep) in [
        ("fault-free (reference)", &fault_free, &None),
        ("crash + rollback/replay", &crash, &report),
        ("delay storm (seeded jitter)", &delay, &None),
    ] {
        let (rollback, replayed, rebuild, detect) = rep
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
            ms(arm.wall),
            arm.outcomes[0].5.to_string(),
            rollback,
            replayed,
            rebuild,
            detect,
            "bit-identical".to_string(),
        ]);
    }

    t.note(
        "all arms run with write-ahead logging and buddy-replicated anchors enabled; final C, \
         per-rank flops, every common per-batch observation and the pinned batch-0 epoch (on \
         every rank that committed batch 0 before being interrupted) are asserted bit-identical \
         across arms",
    );
    t.note(
        "the crash arm recovers exactly once per rank: survivors roll back to the agreed anchor \
         and replay their logs, the victim rebuilds as a replacement from its buddy's replica",
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
        cfg.crash_batch = 1;
        // The run itself asserts cross-arm bit-identity, single recovery,
        // replay-window equality and rebuild traffic.
        let t = run(&cfg);
        assert_eq!(t.rows.len(), 3);
    }

    #[test]
    fn faults_crash_at_batch_0() {
        let mut cfg = Config::smoke();
        cfg.instances = 1;
        cfg.batches = 3;
        cfg.crash_batch = 0;
        // No rank commits batch 0 before the crash: every rank resumes there.
        let t = run(&cfg);
        assert_eq!(t.rows.len(), 3);
        assert_eq!(t.rows[1][2], "1", "the crash arm recovers once");
    }

    #[test]
    fn faults_at_p9() {
        let mut cfg = Config::smoke();
        cfg.p = 9;
        cfg.instances = 1;
        cfg.batches = 3;
        cfg.crash_batch = 1;
        let t = run(&cfg);
        assert_eq!(t.rows.len(), 3);
    }

    #[test]
    fn faults_disabled_crash_recovers_zero_times() {
        let mut cfg = Config::smoke();
        cfg.instances = 1;
        cfg.batches = 2;
        cfg.crash_batch = 99; // past the last batch: the absence arm
        let t = run(&cfg);
        assert_eq!(t.rows.len(), 3);
    }
}
