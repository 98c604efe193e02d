//! Metrics-driven dynamic inter-rank rebalancing: adaptive 2D block cuts
//! with stripe migration, against the static uniform layout.
//!
//! Two arms run the identical workload through [`DynSpGemm`]: a roughly
//! uniform initial matrix (the permuted catalog proxy), then a *clustered,
//! non-permuted* update stream whose endpoints all land in a hot vertex
//! window `[0, n/8)`. Under the static uniform cuts that skew piles onto
//! the top-left corner of the grid; the adaptive arm allgathers the
//! per-rank block nnz after each epoch publish
//! ([`DynSpGemm::maybe_rebalance`]) and migrates boundary stripes when
//! max/mean imbalance crosses `--rebalance-threshold`. The static arm is
//! the plain engine path, publishing on the same cadence.
//!
//! The hard invariants are asserted here, per batch:
//!
//! * **bit-identical `C`** — the root-gathered product after every batch
//!   matches the static rerun exactly (all values are small integers in
//!   `f64`, so accumulation order — which a migration *does* change —
//!   cannot perturb bits);
//! * **pinned snapshots stay bit-stable** — an epoch pinned before the
//!   first migration gathers to the same triples after the run;
//! * **the skew actually moves** — the adaptive arm migrates at least
//!   once, its migration wire bytes are metered and non-zero, and both
//!   its final nnz imbalance and its whole-run max/mean per-rank *flop*
//!   imbalance land below the static arm's.
//!
//! Wall time and the imbalance trajectory are reported, never asserted.

use crate::experiments::{edges_to_triples, prepare_instances, rank_slice, Prepared};
use crate::measure::timed_collective;
use crate::report::{ms, Table};
use crate::Config;
use dspgemm_core::rebalance::imbalance;
use dspgemm_core::{DistMat, DynSpGemm, Grid, RebalanceConfig};
use dspgemm_sparse::semiring::F64Plus;
use dspgemm_sparse::Triple;
use dspgemm_util::rng::{Rng, SplitMix64};
use dspgemm_util::stats::PhaseTimer;
use std::time::Duration;

/// One batch of the clustered stream: the `A` and `B` update triples.
type Batch = (Vec<Triple<f64>>, Vec<Triple<f64>>);

/// Outcome of one layout arm (one full batch loop).
#[derive(Debug, Clone)]
pub struct RebalanceArm {
    /// Summed wall time of the measured batch steps (apply + policy).
    pub wall: Duration,
    /// Migrations the adaptive policy committed (0 for the static arm).
    pub migrations: u64,
    /// Network-wide wire bytes of those migrations.
    pub migrated_bytes: u64,
    /// Max/mean per-rank nnz imbalance after each batch (post-policy).
    pub trajectory: Vec<f64>,
    /// Max/mean per-rank SpGEMM flops over the whole measured region.
    pub flops_imbalance: f64,
    /// Root gather of `C` after every batch (identity check across arms).
    pub per_batch_c: Vec<Vec<Triple<f64>>>,
    /// Whether the epoch pinned before any update gathered to the same
    /// triples after the full run (root verdict).
    pub pinned_stable: bool,
}

/// Runs one arm: the clustered update-batch loop through a [`DynSpGemm`]
/// session, with (`adaptive`) or without the rebalancing policy enabled.
/// Streams are drawn identically in both arms.
pub fn rebalance_arm(cfg: &Config, inst: &Prepared, p: usize, adaptive: bool) -> RebalanceArm {
    let n = inst.n;
    let (batches, seed) = (cfg.batches.max(1), cfg.seed);
    let batch_size = cfg.batch_size;
    let (threshold, cooldown) = (cfg.rebalance_threshold, cfg.rebalance_cooldown);
    let edges = &inst.edges;
    let out = dspgemm_mpi::run(p, |comm| {
        let grid = Grid::new(comm);
        let mut timer = PhaseTimer::new();
        let mine = edges_to_triples(&rank_slice(edges, comm.rank(), p));
        let a = DistMat::from_global_triples(&grid, n, n, mine.clone(), 1, &mut timer);
        let b = DistMat::from_global_triples(&grid, n, n, mine, 1, &mut timer);
        let mut eng = DynSpGemm::<F64Plus>::new(&grid, a, b, 1, false);
        if adaptive {
            eng.enable_rebalancing(RebalanceConfig {
                threshold,
                cooldown,
            });
        }
        // The clustered, non-permuted stream: every endpoint in the hot
        // window. Unit values keep C integer-valued, so the cross-layout
        // bit-identity assert is exact despite reordered accumulation.
        let hot = (n / 8).max(1);
        let mut rng = SplitMix64::new(seed ^ 0x5EBA ^ comm.rank() as u64);
        let mut draw = |size: usize| -> Vec<Triple<f64>> {
            (0..size)
                .map(|_| {
                    Triple::new(
                        rng.gen_range(hot as u64) as u32,
                        rng.gen_range(hot as u64) as u32,
                        1.0,
                    )
                })
                .collect()
        };
        let stream: Vec<Batch> = (0..batches)
            .map(|_| (draw(batch_size), draw(batch_size)))
            .collect();
        // Pin the bootstrap epoch before any update: it must stay readable
        // and bit-stable across every later migration.
        let pinned = eng.snapshot();
        let pinned_c0 = pinned.c().gather_to_root(comm);
        let flops0 = eng.flops;
        let mut wall = Duration::ZERO;
        let mut trajectory = Vec::with_capacity(batches);
        let mut per_batch_c = Vec::with_capacity(batches);
        for (a_batch, b_batch) in stream {
            let (_, d) = timed_collective(comm, || {
                eng.apply_algebraic(&grid, a_batch, b_batch);
                if adaptive {
                    eng.maybe_rebalance(&grid).expect("fault-free");
                } else {
                    // Publish on the same cadence as the adaptive arm so
                    // the snapshot epochs stay comparable.
                    eng.snapshot();
                }
            });
            wall += d;
            // Measured here, after the policy acted and outside the timed
            // region: the same per-rank signal `maybe_rebalance` gathers.
            let load = (eng.a.local_nnz() + eng.c.local_nnz()) as u64;
            trajectory.push(imbalance(&comm.allgather(load)));
            per_batch_c.push(eng.c.gather_to_root(comm));
        }
        let flops_mine = eng.flops - flops0;
        let flops_all = comm.gather(0, flops_mine);
        // Re-gather the pinned epoch: bit-stability across migrations.
        let pinned_c1 = pinned.c().gather_to_root(comm);
        let pinned_stable = pinned_c0 == pinned_c1;
        let (migrations, migrated_bytes) = eng
            .rebalancer()
            .map(|r| (r.migrations(), r.migrated_bytes()))
            .unwrap_or((0, 0));
        (
            wall,
            trajectory,
            per_batch_c,
            flops_all,
            pinned_stable,
            migrations,
            migrated_bytes,
        )
    });
    let (wall, trajectory, per_batch_c, flops_all, pinned_stable, migrations, migrated_bytes) =
        &out.results[0];
    let loads: Vec<u64> = flops_all.clone().expect("rank 0 gathers");
    RebalanceArm {
        wall: *wall,
        migrations: *migrations,
        migrated_bytes: *migrated_bytes,
        trajectory: trajectory.clone(),
        flops_imbalance: imbalance(&loads),
        per_batch_c: per_batch_c
            .iter()
            .map(|c| c.clone().unwrap_or_default())
            .collect(),
        pinned_stable: *pinned_stable,
    }
}

fn imb(x: f64) -> String {
    format!("{x:.3}")
}

/// The `repro rebalance` table.
pub fn run(cfg: &Config) -> Table {
    let mut t = Table::new(
        format!(
            "Dynamic inter-rank rebalancing: adaptive 2D cuts vs. static uniform layout, p={}, \
             batch={}, threshold={}, cooldown={}",
            cfg.p, cfg.batch_size, cfg.rebalance_threshold, cfg.rebalance_cooldown
        ),
        &[
            "benchmark",
            "wall",
            "migrations",
            "migration bytes",
            "nnz imbalance (start -> end)",
            "flop imbalance",
        ],
    );
    let inst = &prepare_instances(cfg)[0];

    // The static baseline runs with the tracer suppressed: an exported
    // trace of this experiment documents the adaptive schedule, where
    // `engine/migrate` spans must appear — the CI trace check asserts
    // exactly that (and their absence when the threshold is unreachable).
    let was = dspgemm_obs::enabled();
    dspgemm_obs::set_enabled(false);
    let static_ = rebalance_arm(cfg, inst, cfg.p, false);
    dspgemm_obs::set_enabled(was);
    let adaptive = rebalance_arm(cfg, inst, cfg.p, true);

    // Hard invariant: migration never changes the maintained product.
    assert_eq!(static_.per_batch_c.len(), adaptive.per_batch_c.len());
    for (i, (s, a)) in static_
        .per_batch_c
        .iter()
        .zip(&adaptive.per_batch_c)
        .enumerate()
    {
        assert_eq!(
            s, a,
            "C after batch {i} must be bit-identical across static and adaptive arms"
        );
    }
    // Hard invariant: pinned pre-migration epochs stay bit-stable.
    assert!(
        adaptive.pinned_stable && static_.pinned_stable,
        "epochs pinned before a migration must gather bit-identically after it"
    );
    // Hard invariants of the policy itself, when the threshold is
    // reachable (the CI absence check runs with threshold 1e9).
    let reachable =
        cfg.rebalance_threshold <= static_.trajectory.iter().copied().fold(0.0f64, f64::max);
    if reachable {
        assert!(
            adaptive.migrations >= 1,
            "clustered skew above threshold must trigger a migration"
        );
        assert!(
            adaptive.migrated_bytes > 0,
            "stripe migration must move bytes over the wire"
        );
        assert!(
            adaptive.trajectory.last() < static_.trajectory.last(),
            "adaptive arm must end below the static arm's nnz imbalance \
             (adaptive {:?} vs static {:?})",
            adaptive.trajectory,
            static_.trajectory
        );
        assert!(
            adaptive.flops_imbalance < static_.flops_imbalance,
            "adaptive arm must beat the static arm's flop imbalance \
             (adaptive {} vs static {})",
            adaptive.flops_imbalance,
            static_.flops_imbalance
        );
    }

    for (name, arm) in [
        ("static uniform cuts (before)", &static_),
        ("adaptive cuts + stripe migration (after)", &adaptive),
    ] {
        t.push_row(vec![
            name.to_string(),
            ms(arm.wall),
            arm.migrations.to_string(),
            dspgemm_util::stats::format_bytes(arm.migrated_bytes),
            format!(
                "{} -> {}",
                imb(arm.trajectory.first().copied().unwrap_or(f64::NAN)),
                imb(arm.trajectory.last().copied().unwrap_or(f64::NAN))
            ),
            imb(arm.flops_imbalance),
        ]);
    }

    t.note(
        "C is asserted bit-identical across both arms after every batch, and the epoch pinned \
         before the first migration is asserted bit-stable after the run",
    );
    t.note(
        "when the clustered stream pushes the static arm over the threshold, the adaptive arm is \
         asserted to migrate (bytes > 0) and to finish below the static arm's nnz and flop \
         imbalance",
    );
    t.note(
        "nnz imbalance = max/mean of the per-rank nnz(A) + nnz(C) (the policy's own load signal), \
         allgathered after each batch's policy step; flop imbalance = max/mean of per-rank SpGEMM flops over the whole run",
    );
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rebalance_smoke() {
        let mut cfg = Config::smoke();
        cfg.instances = 1;
        cfg.batches = 3;
        // The run itself asserts bit-identical C, pinned-snapshot
        // stability, and (skew permitting) migration + imbalance wins.
        let t = run(&cfg);
        assert_eq!(t.rows.len(), 2);
    }

    #[test]
    fn rebalance_at_p9() {
        let mut cfg = Config::smoke();
        cfg.p = 9;
        cfg.instances = 1;
        cfg.batches = 3;
        let t = run(&cfg);
        assert_eq!(t.rows.len(), 2);
    }

    #[test]
    fn rebalance_unreachable_threshold_never_migrates() {
        let mut cfg = Config::smoke();
        cfg.instances = 1;
        cfg.batches = 2;
        cfg.rebalance_threshold = 1e9;
        let inst = &prepare_instances(&cfg)[0];
        let arm = rebalance_arm(&cfg, inst, cfg.p, true);
        assert_eq!(arm.migrations, 0);
        assert_eq!(arm.migrated_bytes, 0);
    }
}
