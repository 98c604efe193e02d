//! Epoch-anchored recovery: write-ahead logging, buddy replication and
//! deterministic replay for [`crate::engine::DynSpGemm`] sessions.
//!
//! ## Failure model
//!
//! One rank fail-stops per incident (a simulated crash armed with
//! [`dspgemm_mpi::Comm::arm_crash`]); every other rank survives and observes the
//! failure as a typed [`dspgemm_mpi::CommError`] raised out of whatever
//! communication call it was blocked in. The failed rank's *thread* is still
//! alive in the simulator — it catches its own `Crashed` error and rejoins
//! the grid as the **replacement** for itself, rebuilding its lost state from
//! its buddy's replica. Both roles run one call,
//! [`crate::engine::DynSpGemm::recover`], on the error their batch call
//! returned; the error picks the role.
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
//!   and `F`, and the published-epoch and flop counters) and ships it to its
//!   buddy. The log is truncated to the window since the *previous*
//!   anchor: two anchor windows are always retained, so a crash racing an
//!   anchor refresh still leaves every rank holding the rank-minimum anchor
//!   the grid agrees to roll back to. That also bounds the log: a refresh
//!   fires at the first commit `anchor_period` epochs past the newest
//!   anchor and an epoch holds at most one record, so a log, own or
//!   replica, holds at most 2·`anchor_period` records.
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
//! buddy of a failed rank alive. Every batch kind is covered — Algorithm 1
//! and Algorithm 2 batches and static recomputes are one [`LoggedBatch`]
//! record each. A publish that committed nothing leaves no record (it moves
//! no state); replay re-publishes it bare.
//!
//! ## Wire form
//!
//! Everything shipped to a buddy — [`LoggedBatch`], [`MatImage`],
//! [`Anchor`], [`ReplicaBundle`] — is its fields in declaration order, each
//! in its own encoding, declared once per type with
//! [`dspgemm_util::impl_wire_fields!`] (a [`Batch`] is a kind tag, then its
//! fields: [`dspgemm_util::impl_wire_enum!`]); `rebuild_bytes` and the WAL /
//! anchor traffic are metered from the same encoder the TCP backend ships.

use crate::distmat::{DistMat, Elem};
use crate::dyn_general::GeneralUpdates;
use crate::engine::Batch;
use crate::grid::Grid;
use dspgemm_mpi::Comm;
use dspgemm_sparse::{Csr, Index};
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
    /// more anchor traffic; the retained log holds at most twice this many
    /// records.
    pub anchor_period: u64,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        Self { anchor_period: 4 }
    }
}

/// One write-ahead-logged record: a committed [`Batch`] with the rank's
/// *own* original inputs, tagged with the epoch its commit publishes (the
/// published-epoch counter at append time). Replaying every rank's own
/// records in epoch order re-runs the identical collective schedule.
#[derive(Debug, Clone)]
pub struct LoggedBatch<V> {
    /// The epoch this batch's publish produces.
    pub epoch: u64,
    /// The batch, exactly as passed in.
    pub batch: Batch<V>,
}

dspgemm_util::impl_wire_fields!(LoggedBatch<V> { epoch, batch });
dspgemm_util::impl_wire_fields!(GeneralUpdates<V> { sets, deletes });

dspgemm_util::impl_wire_enum!(Batch<V> {
    0 => Algebraic(a, b), 1 => General(a, b), 2 => Recompute
});

/// A shippable copy-on-write image of one rank's block of a distributed
/// matrix: the shared CSR the snapshot layer already maintains, plus the
/// global shape that rebuilds the [`DistMat`] from nothing on a replacement
/// rank.
#[derive(Debug, Clone)]
pub struct MatImage<V> {
    /// Global row count.
    pub nrows: Index,
    /// Global column count.
    pub ncols: Index,
    /// The rank's block content (shared — capture is a refcount increment
    /// whenever the snapshot cache is warm).
    pub image: Arc<Csr<V>>,
}

dspgemm_util::impl_wire_fields!(MatImage<V> { nrows, ncols, image });

impl<V: Elem> MatImage<V> {
    /// Captures the matrix's current block image (copy-on-write: warms the
    /// CSR cache if the last batch touched the block, re-shares it
    /// otherwise).
    pub(crate) fn capture(mat: &mut DistMat<V>) -> Self {
        let image = mat.snapshot_csr();
        let info = mat.info();
        Self {
            nrows: info.nrows,
            ncols: info.ncols,
            image,
        }
    }

    /// Builds a fresh [`DistMat`] holding this image — the one rollback path
    /// of both recovery roles.
    pub(crate) fn build(&self, grid: &Grid) -> DistMat<V> {
        let mut mat = DistMat::empty(grid, self.nrows, self.ncols);
        mat.restore_image(Arc::clone(&self.image));
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
    /// Image of the rank's filter block (iff the session tracks one).
    pub f: Option<MatImage<u64>>,
}

dspgemm_util::impl_wire_fields!(Anchor<V> { published, flops, a, b, c, f });

/// A rank's anchor windows and its log since the older one. Rank `r` holds
/// two: its own, and the replica of its predecessor `(r - 1) mod p`'s.
/// Shipping the replica to a replacement rank restores exactly the state
/// the crashed rank would have recovered from locally.
#[derive(Debug, Clone)]
pub struct ReplicaBundle<V> {
    /// The newest anchor.
    pub newest: Anchor<V>,
    /// The previous anchor (two-window retention), if any.
    pub prev: Option<Anchor<V>>,
    /// The log records since the older retained anchor.
    pub log: Vec<LoggedBatch<V>>,
}

dspgemm_util::impl_wire_fields!(ReplicaBundle<V> { newest, prev, log });

impl<V> ReplicaBundle<V> {
    /// One anchor window and an empty log: the state right after an anchor
    /// exchange.
    pub(crate) fn anchored(newest: Anchor<V>) -> Self {
        Self {
            newest,
            prev: None,
            log: Vec::new(),
        }
    }

    /// Rotates in a new anchor: the newest becomes the previous window and
    /// the log keeps the records since it.
    pub(crate) fn rotate(&mut self, anchor: Anchor<V>) {
        let prev = std::mem::replace(&mut self.newest, anchor);
        self.log.retain(|r| r.epoch >= prev.published);
        self.prev = Some(prev);
    }

    /// The retained anchor the grid agreed to roll back to: the newest one,
    /// or — when a crash raced an anchor refresh — the previous window.
    pub(crate) fn rollback_anchor(&self, a_min: u64) -> &Anchor<V> {
        if self.newest.published == a_min {
            return &self.newest;
        }
        let prev = self
            .prev
            .as_ref()
            .expect("rollback target predates the newest anchor but no prev window is held");
        assert_eq!(
            prev.published, a_min,
            "two-window retention must cover the agreed rollback anchor"
        );
        prev
    }
}

/// Per-session recovery state: this rank's own anchor windows and log, plus
/// the replica it keeps for its predecessor in the buddy ring.
#[derive(Debug)]
pub struct RecoveryState<V> {
    /// Anchor cadence.
    pub cfg: RecoveryConfig,
    /// Own anchor windows and write-ahead log (bounded by two windows).
    pub own: ReplicaBundle<V>,
    /// Replica of the predecessor rank `(r - 1) mod p`.
    pub replica: ReplicaBundle<V>,
}

/// What a completed recovery did — allreduced, so every rank (including the
/// replacement) returns identical numbers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// The rank that failed this incident (one failure per incident is
    /// asserted).
    pub failed_rank: usize,
    /// The agreed commit frontier `P*`: the number of published epochs the
    /// recovered state reflects. Batches whose publish would be epoch
    /// `>= P*` did not commit and must be re-submitted by the caller.
    pub committed_publishes: u64,
    /// Maximum number of published epochs any rank rolled back (`P* - A`
    /// for the furthest-ahead rank).
    pub rollback_epochs: u64,
    /// Epochs each rank replayed (`P* - A`, rank-uniform): one logged batch
    /// each, or a bare publish for an epoch that committed nothing.
    pub replayed_batches: u64,
    /// Wire bytes of the replica bundle shipped to the replacement.
    pub rebuild_bytes: u64,
    /// Maximum failure-detection latency any rank observed (time from the
    /// crashed rank's failure marker send to its consumption), nanoseconds.
    pub detect_ns: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use dspgemm_sparse::semiring::U64Plus;
    use dspgemm_sparse::Triple;
    use dspgemm_util::{decode_from_slice, encode_to_vec, WireDecode, WireEncode, WireSize};

    #[test]
    fn config_default_is_sane() {
        let cfg = RecoveryConfig::default();
        assert!(cfg.anchor_period >= 1);
    }

    #[test]
    fn wire_sizes_compose() {
        let batch = LoggedBatch {
            epoch: 3,
            batch: Batch::Algebraic(vec![Triple::new(0, 0, 1u64)], vec![]),
        };
        // epoch (8) + kind (1) + a_ups (8 header + 16-byte triple) + b_ups
        // (8 header).
        assert_eq!(batch.wire_bytes(), 8 + 1 + (8 + 16) + 8);
        let img = MatImage {
            nrows: 4,
            ncols: 4,
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
            8 + 8 + 3 * img.wire_bytes() + 1 // Option<None>: 1 byte
        );
        // Metered sizes; `rebuild_bytes` of `tests/recovery.rs` is made of
        // these. An image is its shape (2 × 4) beside its CSR (40), and a
        // record leads with its batch kind (1 byte).
        assert_eq!(img.wire_bytes(), 48);
        assert_eq!(anchor.wire_bytes(), 161);
        assert_eq!(bundle.wire_bytes(), 211);
        let tracked = Anchor {
            f: Some(img.clone()),
            ..anchor.clone()
        };
        assert_eq!(tracked.wire_bytes(), 209);
        let two_windows = ReplicaBundle {
            prev: Some(tracked.clone()),
            ..bundle.clone()
        };
        assert_eq!(two_windows.wire_bytes(), 420);
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
        // Every batch kind round-trips too.
        let general = GeneralUpdates {
            sets: vec![Triple::new(1, 0, 2u64)],
            deletes: vec![(0, 1)],
        };
        for batch in [
            Batch::General(general, GeneralUpdates::new()),
            Batch::Recompute,
        ] {
            sized_roundtrip(&LoggedBatch { epoch: 5, batch });
        }
    }
}
