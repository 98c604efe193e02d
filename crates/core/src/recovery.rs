//! Epoch-anchored recovery: write-ahead logging, buddy replication and
//! deterministic replay for [`crate::engine::DynSpGemm`] sessions.
//!
//! ## Failure model
//!
//! One rank fail-stops per incident (a simulated crash injected by
//! [`dspgemm_mpi::FaultPlan`]); every other rank survives and observes the
//! failure as a typed [`dspgemm_mpi::CommError`] raised out of whatever
//! communication call it was blocked in. The failed rank's *thread* is still
//! alive in the simulator — it catches its own `Crashed` error and rejoins
//! the grid as the **replacement** for itself, rebuilding its lost state from
//! its buddy's replica.
//!
//! ## Protocol invariants
//!
//! * **Write-ahead discipline** — a batch is applied only after its inputs
//!   are logged locally *and* at the buddy rank `(r + 1) mod p`; a post-batch
//!   agreement fence (an allreduce no failed rank can complete) guarantees
//!   that a *committed* batch — one whose epoch any rank published — is
//!   logged everywhere. Replay therefore always finds the inputs it needs.
//! * **Epoch anchors** — every `anchor_period` committed batches each rank
//!   captures a full [`Anchor`] (copy-on-write `Arc` images of `A`, `B`, `C`
//!   and `F`, plus the published-epoch counter and the flop counter) and
//!   ships it to its buddy. The log is truncated to the window since the
//!   *previous* anchor: two anchor windows are always retained, so a crash
//!   racing an anchor refresh still leaves every rank holding the
//!   rank-minimum anchor the grid agrees to roll back to.
//! * **Deterministic replay** — recovery rolls every rank back to the agreed
//!   anchor `A` and re-applies the logged batches up to the agreed commit
//!   frontier `P*` (the maximum published count any rank reached). Each rank
//!   replays its *own* original inputs, so the collective schedule and the
//!   resulting matrices are bit-identical to the fault-free execution.
//!   Rolled-back epochs that readers still pin stay untouched (the snapshot
//!   layer is immutable), and catch-up publishes realign every rank's epoch
//!   counter at `P*`.
//!
//! Scope (asserted, not silently assumed): one failure per incident, the
//! buddy of a failed rank alive, recovery mutually exclusive with dynamic
//! rebalancing (anchors pin a layout).
//!
//! ## Wire form
//!
//! Everything shipped to a buddy — [`LoggedBatch`], [`MatImage`],
//! [`Anchor`], [`ReplicaBundle`] — is its fields in declaration order, each
//! in its own encoding, declared once per type with
//! [`dspgemm_util::impl_wire_fields!`]; `rebuild_bytes` and the WAL / anchor
//! traffic are metered from the same encoder the TCP backend ships.

use crate::distmat::{DistMat, Elem};
use crate::grid::Grid;
use crate::layout::Layout;
use dspgemm_mpi::Comm;
use dspgemm_sparse::{Csr, Index, Triple};
use std::sync::Arc;

/// User tag of the per-batch write-ahead-log buddy exchange.
pub(crate) const TAG_WAL: u64 = 110;
/// User tag of the anchor-refresh buddy exchange.
pub(crate) const TAG_ANCHOR: u64 = 111;
/// User tag of the replica shipment that rebuilds a replacement rank.
pub(crate) const TAG_REBUILD: u64 = 112;

/// This rank's neighbours `(successor, predecessor)` in the buddy ring:
/// logs and anchors are sent to `(r + 1) mod p`, which keeps them as the
/// replica of `r`.
pub(crate) fn buddy_ring(world: &Comm) -> (usize, usize) {
    let (p, me) = (world.size(), world.rank());
    ((me + 1) % p, (me + p - 1) % p)
}

/// Tuning knobs of the recovery layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryConfig {
    /// Committed batches between anchor captures. Smaller = cheaper replay,
    /// more anchor traffic.
    pub anchor_period: u64,
    /// Hard bound on the retained log window (entries since the previous
    /// anchor); reaching it forces an anchor refresh even mid-period.
    pub max_log: usize,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        Self {
            anchor_period: 4,
            max_log: 16,
        }
    }
}

/// One write-ahead-logged algebraic batch: the rank's *own* original inputs,
/// tagged with the epoch its commit publishes (the published-epoch counter at
/// append time). Replaying every rank's own entries in epoch order re-runs
/// the identical collective schedule.
#[derive(Debug, Clone)]
pub struct LoggedBatch<V> {
    /// The epoch this batch's publish produces.
    pub epoch: u64,
    /// This rank's share of the `A` updates, exactly as passed in.
    pub a_ups: Vec<Triple<V>>,
    /// This rank's share of the `B` updates, exactly as passed in.
    pub b_ups: Vec<Triple<V>>,
}

dspgemm_util::impl_wire_fields!(LoggedBatch<V> { epoch, a_ups, b_ups });

/// A shippable copy-on-write image of one rank's block of a distributed
/// matrix: the shared CSR the snapshot layer already maintains, plus enough
/// layout to rebuild the [`DistMat`] from nothing on a replacement rank.
#[derive(Debug, Clone)]
pub struct MatImage<V> {
    /// Global row count.
    pub nrows: Index,
    /// Global column count.
    pub ncols: Index,
    /// Row cut points of the layout the image was captured under.
    pub row_cuts: Vec<Index>,
    /// Column cut points of the layout the image was captured under.
    pub col_cuts: Vec<Index>,
    /// The rank's block content (shared — capture is a refcount increment
    /// whenever the snapshot cache is warm).
    pub image: Arc<Csr<V>>,
}

dspgemm_util::impl_wire_fields!(MatImage<V> { nrows, ncols, row_cuts, col_cuts, image });

impl<V: Elem> MatImage<V> {
    /// Captures the matrix's current block image (copy-on-write: warms the
    /// CSR cache if the last batch touched the block, re-shares it
    /// otherwise).
    pub(crate) fn capture(mat: &mut DistMat<V>) -> Self {
        let image = mat.snapshot_csr();
        let info = mat.info();
        let layout = info.layout();
        Self {
            nrows: info.nrows,
            ncols: info.ncols,
            row_cuts: layout.row_cuts().to_vec(),
            col_cuts: layout.col_cuts().to_vec(),
            image,
        }
    }

    /// Rolls an existing matrix back to this image. Recovery never migrates
    /// layouts, so the image's cuts must match the matrix's current ones.
    pub(crate) fn restore_into(&self, mat: &mut DistMat<V>, threads: usize) {
        let layout = mat.info().layout();
        assert!(
            layout.row_cuts() == &self.row_cuts[..] && layout.col_cuts() == &self.col_cuts[..],
            "anchor layout does not match the live matrix (recovery excludes rebalancing)"
        );
        mat.restore_image(Arc::clone(&self.image), threads);
    }

    /// Builds a fresh [`DistMat`] holding this image — the replacement-rank
    /// rebuild path, which has no prior matrix to roll back.
    pub(crate) fn build(&self, grid: &Grid, threads: usize) -> DistMat<V> {
        let layout = Arc::new(Layout::from_cuts(
            self.row_cuts.clone(),
            self.col_cuts.clone(),
        ));
        assert_eq!(
            (layout.nrows(), layout.ncols()),
            (self.nrows, self.ncols),
            "anchor image cuts inconsistent with its global shape"
        );
        let mut mat = DistMat::empty_in(grid, &layout);
        mat.restore_image(Arc::clone(&self.image), threads);
        mat
    }
}

/// A full rollback point: copy-on-write images of all session matrices plus
/// the counters replay must restart from. `published` is the value of the
/// published-epoch counter at capture — i.e. the epoch the *next* publish
/// produces — so replaying entries with `epoch >= published` on top of the
/// anchor reproduces the fault-free state exactly.
#[derive(Debug, Clone)]
pub struct Anchor<V> {
    /// Published-epoch counter at capture (= next epoch number).
    pub published: u64,
    /// Accumulated local flop counter at capture (replay re-adds the rest,
    /// so post-recovery totals match the fault-free run).
    pub flops: u64,
    /// Image of the rank's `A` block.
    pub a: MatImage<V>,
    /// Image of the rank's `B` block.
    pub b: MatImage<V>,
    /// Image of the rank's `C` block.
    pub c: MatImage<V>,
    /// Image of the rank's Bloom filter block (iff the session tracks one).
    pub f: Option<MatImage<u64>>,
}

dspgemm_util::impl_wire_fields!(Anchor<V> { published, flops, a, b, c, f });

/// Everything rank `r` holds on behalf of its predecessor `(r - 1) mod p`:
/// the predecessor's two anchor windows and its log entries since the older
/// one. Shipping this bundle to a replacement rank restores exactly the
/// state the crashed rank would have recovered from locally.
#[derive(Debug, Clone)]
pub struct ReplicaBundle<V> {
    /// The predecessor's newest anchor.
    pub newest: Anchor<V>,
    /// The predecessor's previous anchor (two-window retention), if any.
    pub prev: Option<Anchor<V>>,
    /// The predecessor's log entries since the older retained anchor.
    pub log: Vec<LoggedBatch<V>>,
}

dspgemm_util::impl_wire_fields!(ReplicaBundle<V> { newest, prev, log });

/// The retained anchor the grid agreed to roll back to: the newest one, or
/// — when a crash raced an anchor refresh — the previous window.
pub(crate) fn rollback_anchor<'a, V>(
    newest: &'a Anchor<V>,
    prev: Option<&'a Anchor<V>>,
    a_min: u64,
) -> &'a Anchor<V> {
    if newest.published == a_min {
        return newest;
    }
    let prev = prev.expect("rollback target predates the newest anchor but no prev window is held");
    assert_eq!(
        prev.published, a_min,
        "two-window retention must cover the agreed rollback anchor"
    );
    prev
}

/// The logged batches of the committed window `[a_min, p_star)`, which the
/// write-ahead discipline guarantees the log covers.
pub(crate) fn replay_window<V>(
    log: Vec<LoggedBatch<V>>,
    a_min: u64,
    p_star: u64,
) -> Vec<LoggedBatch<V>> {
    let entries: Vec<LoggedBatch<V>> = log
        .into_iter()
        .filter(|e| e.epoch >= a_min && e.epoch < p_star)
        .collect();
    assert_eq!(
        entries.len() as u64,
        p_star - a_min,
        "the log must cover every committed epoch past the rollback anchor"
    );
    entries
}

/// Per-session recovery state: this rank's own anchor windows and log, plus
/// the replica it keeps for its predecessor in the buddy ring.
#[derive(Debug)]
pub struct RecoveryState<V> {
    pub(crate) cfg: RecoveryConfig,
    /// Own newest anchor.
    pub(crate) newest: Anchor<V>,
    /// Own previous anchor (two-window retention across refreshes).
    pub(crate) prev: Option<Anchor<V>>,
    /// Own write-ahead log since the older retained anchor.
    pub(crate) log: Vec<LoggedBatch<V>>,
    /// Replica of the predecessor rank `(r - 1) mod p`.
    pub(crate) replica: ReplicaBundle<V>,
}

impl<V> RecoveryState<V> {
    /// The state right after an anchor exchange around the buddy ring: one
    /// window on either side, empty logs.
    pub(crate) fn anchored(cfg: RecoveryConfig, own: Anchor<V>, predecessor: Anchor<V>) -> Self {
        Self {
            cfg,
            newest: own,
            prev: None,
            log: Vec::new(),
            replica: ReplicaBundle {
                newest: predecessor,
                prev: None,
                log: Vec::new(),
            },
        }
    }

    /// The configured tuning knobs.
    pub fn config(&self) -> RecoveryConfig {
        self.cfg
    }

    /// Published-epoch counter of the newest own anchor.
    pub fn anchor_published(&self) -> u64 {
        self.newest.published
    }

    /// Published-epoch counter of the previous own anchor, if retained.
    pub fn prev_anchor_published(&self) -> Option<u64> {
        self.prev.as_ref().map(|a| a.published)
    }

    /// Own log length (bounded by two anchor windows).
    pub fn log_len(&self) -> usize {
        self.log.len()
    }

    /// Replicated predecessor log length.
    pub fn replica_log_len(&self) -> usize {
        self.replica.log.len()
    }
}

/// What a completed recovery did — allreduced, so every rank (including the
/// replacement) returns identical numbers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// The ranks that failed this incident (exactly one under the current
    /// single-failure scope).
    pub failed_ranks: Vec<usize>,
    /// The agreed commit frontier `P*`: the number of published epochs the
    /// recovered state reflects. Batches whose publish would be epoch
    /// `>= P*` did not commit and must be re-submitted by the caller.
    pub committed_publishes: u64,
    /// Maximum number of published epochs any rank rolled back (`P* - A`
    /// for the furthest-ahead rank).
    pub rollback_epochs: u64,
    /// Logged batches each rank replayed (`P* - A`, rank-uniform).
    pub replayed_batches: u64,
    /// Wire bytes of the replica bundle shipped to the replacement.
    pub rebuild_bytes: u64,
    /// Maximum failure-detection latency any rank observed (time from the
    /// crashed rank's failure marker send to its consumption), nanoseconds.
    pub detect_ns: u64,
    /// The communicator recovery epoch the grid advanced into.
    pub recovery_epoch: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use dspgemm_sparse::semiring::U64Plus;
    use dspgemm_util::{decode_from_slice, encode_to_vec, WireDecode, WireEncode, WireSize};

    #[test]
    fn config_default_is_sane() {
        let cfg = RecoveryConfig::default();
        assert!(cfg.anchor_period >= 1);
        assert!(cfg.max_log >= cfg.anchor_period as usize);
    }

    #[test]
    fn wire_sizes_compose() {
        let batch = LoggedBatch {
            epoch: 3,
            a_ups: vec![Triple::new(0, 0, 1u64)],
            b_ups: vec![],
        };
        // epoch (8) + a_ups (8 header + 16-byte triple) + b_ups (8 header).
        assert_eq!(batch.wire_bytes(), 8 + (8 + 16) + 8);
        let img = MatImage {
            nrows: 4,
            ncols: 4,
            row_cuts: vec![0, 2, 4],
            col_cuts: vec![0, 2, 4],
            image: Arc::new(Csr::<u64>::from_triples::<U64Plus>(2, 2, vec![])),
        };
        let anchor = Anchor {
            published: 1,
            flops: 0,
            a: img.clone(),
            b: img.clone(),
            c: img.clone(),
            f: None,
        };
        let bundle = ReplicaBundle {
            newest: anchor.clone(),
            prev: None,
            log: vec![batch],
        };
        // Sanity: nesting adds headers, never loses payload.
        assert!(bundle.wire_bytes() > anchor.wire_bytes());
        assert_eq!(
            anchor.wire_bytes(),
            8 + 8 + 3 * img.wire_bytes() + 1 // Option<None> = 1 byte
        );
        // Metered sizes as of d989652 (the last commit with hand-written size
        // formulas); `rebuild_bytes` of `tests/recovery.rs` is made of these.
        assert_eq!(img.wire_bytes(), 88);
        assert_eq!(anchor.wire_bytes(), 281);
        assert_eq!(bundle.wire_bytes(), 330);
        let tracked = Anchor {
            f: Some(img.clone()),
            ..anchor.clone()
        };
        assert_eq!(tracked.wire_bytes(), 369);
        let two_windows = ReplicaBundle {
            prev: Some(tracked.clone()),
            ..bundle.clone()
        };
        assert_eq!(two_windows.wire_bytes(), 699);
        // The meter is the encoder: every recovery type ships exactly the
        // bytes it is charged for, and decodes back to the same encoding.
        fn sized_roundtrip<T: WireEncode + WireDecode>(v: &T) {
            let bytes = encode_to_vec(v);
            assert_eq!(bytes.len() as u64, v.wire_bytes());
            let back: T = decode_from_slice(&bytes).expect("decode what we encoded");
            assert_eq!(encode_to_vec(&back), bytes);
        }
        sized_roundtrip(&bundle.log[0]);
        sized_roundtrip(&img);
        sized_roundtrip(&tracked);
        sized_roundtrip(&two_windows);
    }
}
