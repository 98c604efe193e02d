//! Timing collectives inside the simulator.
//!
//! Wall time of a collective operation is measured on rank 0 between two
//! barriers: the entry barrier aligns all ranks (so set-up skew does not
//! leak in) and the exit barrier waits for the slowest rank (the paper's
//! times are end-to-end batch times, i.e. critical path).
//!
//! Volume is what the operation itself sends: each rank meters its own
//! sends between the barriers, barrier control messages excluded. A rank's
//! own counters move only on its own sends, so the count is exact and the
//! same on every run, whatever a peer does before or after its barrier.

use dspgemm_mpi::{Comm, CommCategory, RankCommStats};
use dspgemm_obs::Histogram;
use std::time::{Duration, Instant};

/// Modeled interconnect bandwidth: the paper's cluster uses 100 GBit
/// Omni-Path; 12.5 GB/s per link.
pub const MODEL_BANDWIDTH_BYTES_PER_SEC: f64 = 12.5e9;

/// Modeled per-message latency (switched fabric, small messages).
pub const MODEL_LATENCY: Duration = Duration::from_micros(1);

/// A measured batch: local wall time plus the exact traffic it generated.
#[derive(Debug, Clone)]
pub struct BatchCost {
    /// Measured wall time (local computation dominates in the simulator).
    pub wall: Duration,
    /// Critical-path bytes: the maximum sent by any single rank.
    pub crit_bytes: u64,
    /// Total messages.
    pub msgs: u64,
}

impl BatchCost {
    /// Wall time plus a simple α-β network model for the metered traffic.
    ///
    /// The simulator moves payloads by pointer, so measured wall time
    /// excludes network transfer almost entirely; adding
    /// `crit_bytes / bandwidth + msgs·α` restores the cost a real cluster
    /// pays — the cost the paper's dynamic algorithms are designed to avoid.
    pub fn modeled(&self) -> Duration {
        let transfer =
            Duration::from_secs_f64(self.crit_bytes as f64 / MODEL_BANDWIDTH_BYTES_PER_SEC);
        self.wall + transfer + MODEL_LATENCY * self.msgs as u32
    }
}

/// Times `op` as a collective on the world communicator `comm` and meters
/// the traffic it sends: every rank counts its own sends between the entry
/// and exit barriers (barrier messages excluded), then `crit_bytes` is the
/// maximum over ranks and `msgs` the sum. The closing allreduces run after
/// the timed interval and are not counted.
pub fn measured_collective<R>(comm: &Comm, op: impl FnOnce() -> R) -> (R, BatchCost) {
    let barrier = CommCategory::Barrier as usize;
    let own_sends = || {
        let me: RankCommStats = comm.comm_stats().per_rank.swap_remove(comm.rank());
        (
            me.total_bytes() - me.bytes[barrier],
            me.total_msgs() - me.msgs[barrier],
        )
    };
    comm.barrier();
    let (bytes_before, msgs_before) = own_sends();
    let t = Instant::now();
    let r = op();
    comm.barrier();
    let wall = t.elapsed();
    let (bytes_after, msgs_after) = own_sends();
    let crit_bytes = comm.allreduce(bytes_after - bytes_before, u64::max);
    let msgs = comm.allreduce(msgs_after - msgs_before, |a, b| a + b);
    (
        r,
        BatchCost {
            wall,
            crit_bytes,
            msgs,
        },
    )
}

/// Median of batch costs, component-wise (robust on a noisy host).
pub fn median_cost(costs: &[BatchCost]) -> BatchCost {
    BatchCost {
        wall: median(&costs.iter().map(|c| c.wall).collect::<Vec<_>>()),
        crit_bytes: median_u64(costs.iter().map(|c| c.crit_bytes)),
        msgs: median_u64(costs.iter().map(|c| c.msgs)),
    }
}

/// Median of a `u64` stream via the shared log-bucketed histogram (no
/// sample stored or sorted; ≤ one sub-bucket of error — see
/// [`dspgemm_obs::SUB_BITS`]).
fn median_u64(vals: impl Iterator<Item = u64>) -> u64 {
    let mut h = Histogram::new();
    for v in vals {
        h.record(v);
    }
    h.quantile(0.5)
}

/// Times `op` as a collective: barrier, run, barrier; returns the duration
/// measured on this rank (all ranks observe nearly the same value; use rank
/// 0's).
pub fn timed_collective<R>(comm: &Comm, op: impl FnOnce() -> R) -> (R, Duration) {
    comm.barrier();
    let t = Instant::now();
    let r = op();
    comm.barrier();
    (r, t.elapsed())
}

/// Mean duration of a slice.
pub fn mean(durations: &[Duration]) -> Duration {
    if durations.is_empty() {
        return Duration::ZERO;
    }
    durations.iter().sum::<Duration>() / durations.len() as u32
}

/// Median duration of a slice — the robust per-batch aggregate on an
/// oversubscribed host, where a descheduled rank occasionally inflates a
/// single batch by an order of magnitude. Computed through the shared
/// log-bucketed [`Histogram`] (same rank selection as the sort-based
/// estimator it replaced, within one sub-bucket of error).
pub fn median(durations: &[Duration]) -> Duration {
    let mut h = Histogram::new();
    for d in durations {
        h.record_duration(*d);
    }
    h.quantile_duration(0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_collective_reports_slowest_rank() {
        let out = dspgemm_mpi::run(4, |comm| {
            timed_collective(comm, || {
                let start = Instant::now();
                if comm.rank() == 3 {
                    std::thread::sleep(Duration::from_millis(30));
                }
                (start, Instant::now())
            })
        });
        // Every rank's measurement spans from before its own op to after
        // the slow rank finished: the window opens no later than `start`
        // and closes behind the exit barrier, which rank 3 enters only
        // after `slow_done`. Compared on instants, so a rank descheduled
        // before its `start` shortens both sides alike — no clock margin.
        let ((_, slow_done), _) = out.results[3];
        for (rank, &((start, _), d)) in out.results.iter().enumerate() {
            let must_cover = slow_done.saturating_duration_since(start);
            assert!(d >= must_cover, "rank {rank}: {d:?} < {must_cover:?}");
        }
    }

    #[test]
    fn measured_collective_counts_exact_volume() {
        // A fixed-size alltoallv, measured back to back: no peer's early
        // sends may leak into or out of any rank's interval.
        const P: usize = 4;
        let chunk: Vec<u64> = (0..32).collect();
        let chunk_bytes = dspgemm_util::WireSize::wire_bytes(&chunk);
        let out = dspgemm_mpi::run(P, |comm| {
            (0..20)
                .map(|_| {
                    let chunks = (0..P).map(|_| chunk.clone()).collect();
                    let (_, cost) = measured_collective(comm, || comm.alltoallv(chunks));
                    (cost.crit_bytes, cost.msgs)
                })
                .collect::<Vec<_>>()
        });
        let exact = ((P as u64 - 1) * chunk_bytes, (P * (P - 1)) as u64);
        for (rank, costs) in out.results.iter().enumerate() {
            for (i, &cost) in costs.iter().enumerate() {
                assert_eq!(cost, exact, "rank {rank}, measurement {i}");
            }
        }
    }

    #[test]
    fn mean_of_durations() {
        assert_eq!(
            mean(&[Duration::from_millis(2), Duration::from_millis(4)]),
            Duration::from_millis(3)
        );
        assert_eq!(mean(&[]), Duration::ZERO);
    }
}
