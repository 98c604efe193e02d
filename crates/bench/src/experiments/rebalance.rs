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
//! max/mean imbalance crosses the default policy's threshold
//! ([`RebalanceConfig::default`]). The static arm is the plain engine path,
//! publishing on the same cadence.
//!
//! The table reports wall time, migrations, their wire bytes and the
//! imbalance trajectory; it asserts nothing. That a migration leaves `C`
//! and pinned epochs bit-identical to a static rerun, and ends below the
//! static arm's nnz imbalance, is `crates/core/tests/layout_edges.rs`'s to
//! show; that the `engine/migrate` spans and `migrated` instants account
//! for every migrated byte is `tests/obs.rs`'s.

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
}

/// Runs one arm: the clustered update-batch loop through a [`DynSpGemm`]
/// session, with the rebalancing `policy` enabled (`Some`) or without it.
/// Streams are drawn identically in both arms.
pub fn rebalance_arm(
    cfg: &Config,
    inst: &Prepared,
    p: usize,
    policy: Option<RebalanceConfig>,
) -> RebalanceArm {
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
        let adaptive = policy.is_some();
        if let Some(policy) = policy {
            eng.enable_rebalancing(policy);
        }
        // The clustered, non-permuted stream: every endpoint in the hot
        // window.
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
        let flops0 = eng.flops;
        let mut wall = Duration::ZERO;
        let mut trajectory = Vec::with_capacity(batches);
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
        }
        let flops_all = comm.gather(0, eng.flops - flops0);
        let (migrations, migrated_bytes) = eng
            .rebalancer()
            .map(|r| (r.migrations(), r.migrated_bytes()))
            .unwrap_or((0, 0));
        (wall, trajectory, flops_all, migrations, migrated_bytes)
    });
    let (wall, trajectory, flops_all, migrations, migrated_bytes) = &out.results[0];
    RebalanceArm {
        wall: *wall,
        migrations: *migrations,
        migrated_bytes: *migrated_bytes,
        trajectory: trajectory.clone(),
        flops_imbalance: imbalance(flops_all.as_deref().expect("rank 0 gathers")),
    }
}

fn imb(x: f64) -> String {
    format!("{x:.3}")
}

/// The `repro rebalance` table.
pub fn run(cfg: &Config) -> Table {
    let policy = RebalanceConfig::default();
    let mut t = Table::new(
        format!(
            "Dynamic inter-rank rebalancing: adaptive 2D cuts vs. static uniform layout, p={}, \
             batch={}, threshold={}, cooldown={}",
            cfg.p, cfg.batch_size, policy.threshold, policy.cooldown
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
    for (name, policy) in [
        ("static uniform cuts (before)", None),
        ("adaptive cuts + stripe migration (after)", Some(policy)),
    ] {
        let arm = rebalance_arm(cfg, inst, cfg.p, policy);
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
        let inst = &prepare_instances(&cfg)[0];
        let policy = RebalanceConfig {
            threshold: 1e9,
            ..RebalanceConfig::default()
        };
        let arm = rebalance_arm(&cfg, inst, cfg.p, Some(policy));
        assert_eq!(arm.migrations, 0);
        assert_eq!(arm.migrated_bytes, 0);
    }
}
