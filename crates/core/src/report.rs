//! The one per-call meter. [`meter`] runs a closure between two reads of
//! the calling rank's own communication counters and hands it a
//! [`PhaseTimer`] for its stages. It sends nothing and reads no peer's
//! counters, so it may wrap any call on either transport without moving the
//! wire volume; and since a rank's counters move only on its own sends, the
//! delta is exact whatever a peer does around the call. Every engine batch
//! returns its [`BatchReport`]. No control path reads one.

use dspgemm_mpi::{Comm, CommCategory, RankCommStats};
use dspgemm_util::stats::PhaseTimer;
use std::time::{Duration, Instant};

/// What one call did on this rank.
#[derive(Debug, Clone, Default)]
pub struct BatchReport {
    /// The call's wall time.
    pub wall: Duration,
    /// Exposed wall time per stage, in first-use order; sums to at most
    /// `wall`.
    pub stages: PhaseTimer,
    /// This rank's sends per [`CommCategory`], its blocked wait
    /// (`exposed_ns`) and the request lifetime compute hid
    /// (`overlapped_ns`).
    pub comm: RankCommStats,
    /// Local scalar multiplications.
    pub flops: u64,
    /// Entries of this rank's block of `A*` (zero for a recompute).
    pub astar_nnz: u64,
    /// Entries of this rank's block of `C*` (zero for a recompute).
    pub cstar_nnz: u64,
}

impl BatchReport {
    /// Wall time this rank was not blocked on communication.
    pub fn busy_ns(&self) -> u64 {
        (self.wall.as_nanos() as u64).saturating_sub(self.comm.exposed_ns)
    }

    /// Bytes this rank sent, barrier control traffic excluded.
    pub fn sent_bytes(&self) -> u64 {
        self.comm.total_bytes() - self.comm.bytes[CommCategory::Barrier as usize]
    }

    /// Messages this rank sent, barrier control messages excluded.
    pub fn sent_msgs(&self) -> u64 {
        self.comm.total_msgs() - self.comm.msgs[CommCategory::Barrier as usize]
    }

    /// Adds a later call on this rank, such as the publish after a batch.
    pub fn merge(&mut self, later: &BatchReport) {
        self.wall += later.wall;
        self.stages.merge(&later.stages);
        self.comm = combine(&self.comm, &later.comm, |a, b| a + b);
        self.flops += later.flops;
        self.astar_nnz += later.astar_nnz;
        self.cstar_nnz += later.cstar_nnz;
    }
}

/// Runs `f` under the meter: its wall time, the stages it records and this
/// rank's counter delta. The work counts stay zero for the caller to fill.
pub fn meter<R>(comm: &Comm, f: impl FnOnce(&mut PhaseTimer) -> R) -> (R, BatchReport) {
    let own = || comm.comm_stats().per_rank.swap_remove(comm.rank());
    let (before, mut stages, t) = (own(), PhaseTimer::new(), Instant::now());
    let r = f(&mut stages);
    let wall = t.elapsed();
    let comm = combine(&own(), &before, |a, b| a - b);
    let report = BatchReport {
        wall,
        stages,
        comm,
        ..BatchReport::default()
    };
    (r, report)
}

/// `op` over every counter of `a` and `b`.
fn combine(a: &RankCommStats, b: &RankCommStats, op: fn(u64, u64) -> u64) -> RankCommStats {
    RankCommStats {
        bytes: std::array::from_fn(|k| op(a.bytes[k], b.bytes[k])),
        msgs: std::array::from_fn(|k| op(a.msgs[k], b.msgs[k])),
        exposed_ns: op(a.exposed_ns, b.exposed_ns),
        overlapped_ns: op(a.overlapped_ns, b.overlapped_ns),
    }
}
