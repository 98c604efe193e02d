//! Load-driven inter-rank rebalancing policy.
//!
//! The load signal is each rank's own block nnz (`A` plus `C`), allgathered
//! over the session's communicator at the publish fence. The [`Rebalancer`]
//! turns that signal into action: when the max/mean per-rank load imbalance
//! crosses a configurable threshold (and a cooldown of epochs has passed
//! since the last move), it solves for new cut points with
//! [`crate::layout::rebalance_cuts`] over the per-stripe load and the engine
//! migrates every session matrix to the new [`crate::layout::Layout`]
//! through the two-phase redistribution path — only boundary stripes cross
//! the wire.
//!
//! The *decision* must be rank-uniform (migration is collective): every rank
//! evaluates the pure, deterministic [`Rebalancer::decide`] on the same
//! allgathered load vector; see
//! [`crate::engine::DynSpGemm::maybe_rebalance`]. With observability on,
//! every publish's `epoch_publish` trace instant carries the block sizes
//! (`image_nnz_a`, `image_nnz_c`) for observers; nothing reads them back.
//! This module holds the pure policy pieces — testable without a grid.

use crate::layout::rebalance_cuts;
use dspgemm_sparse::Index;

/// When and how eagerly the engine migrates block boundaries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RebalanceConfig {
    /// Max/mean per-rank load ratio above which a migration is considered.
    /// `1.0` is perfect balance; the default `1.5` tolerates mild skew
    /// (migration is not free — it costs one stripe redistribution plus a
    /// full republish of the migrated blocks).
    pub threshold: f64,
    /// Minimum epochs between migrations: hysteresis so an oscillating
    /// stream cannot thrash stripes back and forth every batch.
    pub cooldown: u64,
}

impl Default for RebalanceConfig {
    fn default() -> Self {
        Self {
            threshold: 1.5,
            cooldown: 2,
        }
    }
}

dspgemm_util::impl_wire_fields!(RebalanceConfig {
    threshold,
    cooldown
});

/// The rebalancing policy state carried by a [`crate::DynSpGemm`] session
/// (opt-in via `enable_rebalancing`).
#[derive(Debug, Clone)]
pub struct Rebalancer {
    /// The trigger configuration.
    pub cfg: RebalanceConfig,
    /// Epoch of the last migration (`None` before the first).
    last_migration_epoch: Option<u64>,
    /// Migrations performed so far.
    migrations: u64,
    /// Total migration wire bytes (alltoall category, summed over ranks).
    migrated_bytes: u64,
    /// The max/mean load imbalance observed at the last decision.
    last_imbalance: f64,
}

dspgemm_util::impl_wire_fields!(Rebalancer {
    cfg,
    last_migration_epoch,
    migrations,
    migrated_bytes,
    last_imbalance
});

impl Rebalancer {
    /// A fresh policy with the given trigger configuration.
    pub fn new(cfg: RebalanceConfig) -> Self {
        Self {
            cfg,
            last_migration_epoch: None,
            migrations: 0,
            migrated_bytes: 0,
            last_imbalance: 1.0,
        }
    }

    /// Migrations performed so far.
    #[inline]
    pub fn migrations(&self) -> u64 {
        self.migrations
    }

    /// Total migration wire bytes so far (alltoall category, network-wide).
    #[inline]
    pub fn migrated_bytes(&self) -> u64 {
        self.migrated_bytes
    }

    /// The max/mean load imbalance at the last decision point.
    #[inline]
    pub fn last_imbalance(&self) -> f64 {
        self.last_imbalance
    }

    /// The policy decision: given the current square layout's cuts and the
    /// per-rank loads (row-major over the `q × q` grid) at `epoch`, returns
    /// the new cut vector — or `None` to stay put (balanced enough, inside
    /// the cooldown, no load at all, or the solver reproduced the current
    /// cuts). Pure and deterministic: every rank calls it on the same
    /// allgathered loads and reaches the same verdict.
    pub fn decide(&self, old_cuts: &[Index], loads: &[u64], epoch: u64) -> Option<Vec<Index>> {
        let q = old_cuts.len() - 1;
        assert_eq!(loads.len(), q * q, "one load per grid rank");
        if imbalance(loads) < self.cfg.threshold {
            return None;
        }
        if let Some(last) = self.last_migration_epoch {
            if epoch.saturating_sub(last) < self.cfg.cooldown {
                return None;
            }
        }
        let stripes = stripe_loads(loads, q);
        if stripes.iter().all(|&w| w == 0) {
            return None;
        }
        let cuts = rebalance_cuts(old_cuts, &stripes);
        if cuts == old_cuts {
            return None;
        }
        Some(cuts)
    }

    /// Records the imbalance observed at a decision point (every rank, so
    /// the diagnostic state stays rank-uniform).
    pub fn note_decision(&mut self, imbalance: f64) {
        self.last_imbalance = imbalance;
    }

    /// Records a completed migration at `epoch` costing `bytes` on the wire.
    pub fn note_migration(&mut self, epoch: u64, bytes: u64) {
        self.last_migration_epoch = Some(epoch);
        self.migrations += 1;
        self.migrated_bytes += bytes;
    }
}

/// Max/mean of the per-rank loads; `1.0` when nothing is loaded.
pub fn imbalance(loads: &[u64]) -> f64 {
    let total: u64 = loads.iter().sum();
    if total == 0 || loads.is_empty() {
        return 1.0;
    }
    let max = *loads.iter().max().expect("non-empty") as f64;
    max / (total as f64 / loads.len() as f64)
}

/// Per-stripe load for the square cut solver: stripe `k`'s weight is the
/// load of grid row `k` plus grid column `k`, because one square cut vector
/// bounds both the row and the column extent of every block.
pub fn stripe_loads(loads: &[u64], q: usize) -> Vec<u64> {
    let mut out = vec![0u64; q];
    for i in 0..q {
        for j in 0..q {
            let l = loads[i * q + j];
            out[i] += l;
            out[j] += l;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn imbalance_basics() {
        assert_eq!(imbalance(&[]), 1.0);
        assert_eq!(imbalance(&[0, 0, 0]), 1.0);
        assert_eq!(imbalance(&[5, 5, 5, 5]), 1.0);
        assert_eq!(imbalance(&[12, 0, 0, 0]), 4.0);
    }

    #[test]
    fn stripe_loads_sum_rows_and_cols() {
        // 2x2 grid, loads [[10, 2], [4, 0]]: stripe b sums grid row b and
        // grid column b — stripe 0 = (10 + 2) + (10 + 4), stripe 1 =
        // (4 + 0) + (2 + 0).
        let s = stripe_loads(&[10, 2, 4, 0], 2);
        assert_eq!(s, vec![26, 6]);
    }

    #[test]
    fn decide_respects_threshold_and_cooldown() {
        let old = vec![0u32, 3, 6, 9];
        let mut reb = Rebalancer::new(RebalanceConfig {
            threshold: 2.0,
            cooldown: 3,
        });
        // Balanced: no move.
        assert_eq!(reb.decide(&old, &[1; 9], 5), None);
        // Skewed beyond threshold: move.
        let mut skew = vec![0u64; 9];
        skew[0] = 900;
        let cuts = reb.decide(&old, &skew, 5).expect("must migrate");
        assert_ne!(cuts, old);
        reb.note_migration(5, 1024);
        assert_eq!(reb.migrations(), 1);
        assert_eq!(reb.migrated_bytes(), 1024);
        // Inside the cooldown the same skew is ignored...
        assert_eq!(reb.decide(&old, &skew, 6), None);
        assert_eq!(reb.decide(&old, &skew, 7), None);
        // ...and considered again once it expires.
        assert!(reb.decide(&old, &skew, 8).is_some());
    }

    #[test]
    fn decide_skips_no_op_cuts() {
        // Imbalance above threshold but the solver lands on the same cuts:
        // loads symmetric per stripe (heavy diagonal) on a tiny n.
        let reb = Rebalancer::new(RebalanceConfig {
            threshold: 1.0,
            cooldown: 0,
        });
        let old = vec![0u32, 1, 2, 3];
        // q=3, n=3: every stripe has width 1; equal stripe loads keep cuts.
        let loads = [9, 0, 0, 0, 9, 0, 0, 0, 9];
        assert_eq!(reb.decide(&old, &loads, 1), None);
        // All load at rank (0,0): even at width-1 stripes the solver
        // collapses the leading cuts onto the hot corner (zero-width
        // stripes 0 and 1), which is a real move.
        let mut corner = vec![0u64; 9];
        corner[0] = 36;
        assert_eq!(reb.decide(&old, &corner, 1), Some(vec![0, 0, 0, 3]));
    }

    #[test]
    fn zero_load_never_migrates() {
        let reb = Rebalancer::new(RebalanceConfig {
            threshold: 0.0,
            cooldown: 0,
        });
        assert_eq!(reb.decide(&[0, 3, 6, 9], &[0; 9], 1), None);
    }
}
