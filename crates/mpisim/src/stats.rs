//! Communication metering.
//!
//! Every byte that crosses the simulated wire is attributed to the sending
//! rank and a [`CommCategory`]. The benchmark harness uses these counters to
//! report communication volume — the paper's central cost metric — and the
//! per-category split behind the breakdown figures (Fig. 7 "redist. comm.",
//! Fig. 12 "send/recv" vs "bcast" vs "scatter/reduce-scatter").

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Traffic categories, mirroring the communication steps the paper reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum CommCategory {
    /// Point-to-point sends (e.g. the `A^R` exchange in Algorithm 2).
    P2p = 0,
    /// Broadcast trees (SUMMA and Algorithm 1/2 block broadcasts).
    Bcast = 1,
    /// Gather / allgather traffic.
    Gather = 2,
    /// All-to-all exchanges (update redistribution).
    Alltoall = 3,
    /// Reductions, including the sparse merge-reduce aggregation.
    Reduce = 4,
    /// Barrier control traffic (counted as messages; zero payload bytes).
    Barrier = 5,
}

/// Number of traffic categories.
pub const NUM_CATEGORIES: usize = 6;

const CATEGORY_NAMES: [&str; NUM_CATEGORIES] =
    ["p2p", "bcast", "gather", "alltoall", "reduce", "barrier"];

impl CommCategory {
    /// Human-readable category name.
    pub fn name(self) -> &'static str {
        CATEGORY_NAMES[self as usize]
    }

    /// All categories in index order.
    pub fn all() -> [CommCategory; NUM_CATEGORIES] {
        [
            CommCategory::P2p,
            CommCategory::Bcast,
            CommCategory::Gather,
            CommCategory::Alltoall,
            CommCategory::Reduce,
            CommCategory::Barrier,
        ]
    }
}

#[derive(Debug, Default)]
pub(crate) struct RankCounters {
    bytes: [AtomicU64; NUM_CATEGORIES],
    msgs: [AtomicU64; NUM_CATEGORIES],
    /// Nanoseconds this rank spent *blocked* waiting for communication
    /// (inside a blocking receive or a `Request::wait`) — the paper-relevant
    /// "exposed" communication time that serializes against compute.
    exposed_ns: AtomicU64,
    /// Nanoseconds of nonblocking-request lifetime hidden under local
    /// compute: for each completed request, `(completion - issue) -
    /// blocked`. Communication that progressed while the rank did useful
    /// work — the quantity the pipelined schedulers maximize.
    overlapped_ns: AtomicU64,
}

impl RankCounters {
    #[inline]
    pub(crate) fn record(&self, cat: CommCategory, bytes: u64) {
        self.bytes[cat as usize].fetch_add(bytes, Ordering::Relaxed);
        self.msgs[cat as usize].fetch_add(1, Ordering::Relaxed);
    }
}

/// Shared, thread-safe metering state for a network.
#[derive(Debug)]
pub(crate) struct Meter {
    per_rank: Vec<RankCounters>,
}

impl Meter {
    pub(crate) fn new(p: usize) -> Arc<Self> {
        Arc::new(Self {
            per_rank: (0..p).map(|_| RankCounters::default()).collect(),
        })
    }

    #[inline]
    pub(crate) fn record(&self, src_world: usize, cat: CommCategory, bytes: u64) {
        self.per_rank[src_world].record(cat, bytes);
    }

    /// Adds blocked-waiting time for `rank` (exposed communication).
    #[inline]
    pub(crate) fn record_exposed(&self, rank: usize, ns: u64) {
        self.per_rank[rank]
            .exposed_ns
            .fetch_add(ns, Ordering::Relaxed);
    }

    /// Adds compute-hidden request lifetime for `rank` (overlapped
    /// communication).
    #[inline]
    pub(crate) fn record_overlapped(&self, rank: usize, ns: u64) {
        self.per_rank[rank]
            .overlapped_ns
            .fetch_add(ns, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(&self) -> CommStats {
        CommStats {
            per_rank: self
                .per_rank
                .iter()
                .map(|rc| RankCommStats {
                    bytes: std::array::from_fn(|c| rc.bytes[c].load(Ordering::Relaxed)),
                    msgs: std::array::from_fn(|c| rc.msgs[c].load(Ordering::Relaxed)),
                    exposed_ns: rc.exposed_ns.load(Ordering::Relaxed),
                    overlapped_ns: rc.overlapped_ns.load(Ordering::Relaxed),
                })
                .collect(),
        }
    }
}

/// Immutable snapshot of per-rank communication counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RankCommStats {
    /// Bytes sent by this rank, per category.
    pub bytes: [u64; NUM_CATEGORIES],
    /// Messages sent by this rank, per category.
    pub msgs: [u64; NUM_CATEGORIES],
    /// Nanoseconds spent blocked waiting for communication (exposed).
    pub exposed_ns: u64,
    /// Nanoseconds of nonblocking-request lifetime hidden under compute
    /// (overlapped).
    pub overlapped_ns: u64,
}

impl RankCommStats {
    /// Total bytes sent by this rank across categories.
    pub fn total_bytes(&self) -> u64 {
        self.bytes.iter().sum()
    }

    /// Total messages sent by this rank across categories.
    pub fn total_msgs(&self) -> u64 {
        self.msgs.iter().sum()
    }
}

/// Snapshot of the whole network's communication counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CommStats {
    /// Per-world-rank counters.
    pub per_rank: Vec<RankCommStats>,
}

impl CommStats {
    /// Total bytes sent across all ranks and categories.
    pub fn total_bytes(&self) -> u64 {
        self.per_rank.iter().map(RankCommStats::total_bytes).sum()
    }

    /// Total messages across all ranks and categories.
    pub fn total_msgs(&self) -> u64 {
        self.per_rank.iter().map(RankCommStats::total_msgs).sum()
    }

    /// Total bytes in one category.
    pub fn bytes_in(&self, cat: CommCategory) -> u64 {
        self.per_rank.iter().map(|r| r.bytes[cat as usize]).sum()
    }

    /// Total messages in one category.
    pub fn msgs_in(&self, cat: CommCategory) -> u64 {
        self.per_rank.iter().map(|r| r.msgs[cat as usize]).sum()
    }

    /// The deterministic volume counters only: a copy with the wall-clock
    /// timing fields (`exposed_ns`, `overlapped_ns`) zeroed. Two runs of the
    /// same program have equal `volume()` but never equal timings — use this
    /// for byte/message-parity assertions.
    pub fn volume(&self) -> CommStats {
        CommStats {
            per_rank: self
                .per_rank
                .iter()
                .map(|r| RankCommStats {
                    bytes: r.bytes,
                    msgs: r.msgs,
                    exposed_ns: 0,
                    overlapped_ns: 0,
                })
                .collect(),
        }
    }
}

// Wire codec for stats snapshots: the TCP backend's child processes ship
// their counters back to the parent over the control socket.
dspgemm_util::impl_wire_fields!(RankCommStats {
    bytes,
    msgs,
    exposed_ns,
    overlapped_ns
});
dspgemm_util::impl_wire_fields!(CommStats { per_rank });

impl std::fmt::Display for CommStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let max_rank = self.per_rank.iter().map(RankCommStats::total_bytes).max();
        writeln!(
            f,
            "comm volume: {} total, {} max/rank, {} msgs",
            dspgemm_util::stats::format_bytes(self.total_bytes()),
            dspgemm_util::stats::format_bytes(max_rank.unwrap_or(0)),
            self.total_msgs()
        )?;
        for cat in CommCategory::all() {
            let b = self.bytes_in(cat);
            if b > 0 || self.msgs_in(cat) > 0 {
                writeln!(
                    f,
                    "  {:<9} {:>12}  ({} msgs)",
                    cat.name(),
                    dspgemm_util::stats::format_bytes(b),
                    self.msgs_in(cat)
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meter_records_and_snapshots() {
        let m = Meter::new(2);
        m.record(0, CommCategory::P2p, 100);
        m.record(0, CommCategory::P2p, 50);
        m.record(1, CommCategory::Bcast, 10);
        let s = m.snapshot();
        assert_eq!(s.per_rank[0].bytes[CommCategory::P2p as usize], 150);
        assert_eq!(s.per_rank[0].msgs[CommCategory::P2p as usize], 2);
        assert_eq!(s.per_rank[1].bytes[CommCategory::Bcast as usize], 10);
        assert_eq!(s.total_bytes(), 160);
        assert_eq!(s.total_msgs(), 3);
        assert_eq!(s.bytes_in(CommCategory::P2p), 150);
        assert!(s.to_string().contains("150 B max/rank"), "{s}");
    }

    #[test]
    fn display_lists_active_categories() {
        let m = Meter::new(1);
        m.record(0, CommCategory::Alltoall, 2048);
        let text = m.snapshot().to_string();
        assert!(text.contains("alltoall"));
        assert!(!text.contains("gather"));
    }
}
