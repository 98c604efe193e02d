//! From per-rank reports to the numbers a table prints.
//!
//! Every experiment meters its calls with [`dspgemm_core::meter`]: our
//! engine and session return their own [`BatchReport`], and a competitor's
//! batch or a static product is wrapped in the meter the same way. The meter
//! reads only the calling rank's counters and sends nothing, so each rank
//! returns its reports and the projection happens after the run.
//!
//! One batch's [`BatchCost`] is the projection of every rank's report of it:
//! the paper's times are critical-path batch times, so the wall time, busy
//! time and flops are the slowest rank's; the volume is the largest sender's
//! bytes (the paper's bandwidth terms are per-process maxima) and every
//! rank's messages, barrier control traffic excluded; each stage is the
//! slowest rank's. A rank's own counters move only on its own sends, so the
//! volume is exact and the same on every run.

use dspgemm_core::BatchReport;
use dspgemm_util::stats::PhaseTimer;
use std::time::Duration;

/// Modeled interconnect bandwidth: the paper's cluster uses 100 GBit
/// Omni-Path; 12.5 GB/s per link.
pub const MODEL_BANDWIDTH_BYTES_PER_SEC: f64 = 12.5e9;

/// Modeled per-message latency (switched fabric, small messages).
pub const MODEL_LATENCY: Duration = Duration::from_micros(1);

/// One batch's cost over all ranks: the projection of their reports.
#[derive(Debug, Clone, Default)]
pub struct BatchCost {
    /// The slowest rank's wall time (local computation dominates in the
    /// simulator).
    pub wall: Duration,
    /// Critical-path bytes: the most any single rank sent.
    pub crit_bytes: u64,
    /// Messages, summed over ranks.
    pub msgs: u64,
    /// The largest busy time (wall minus exposed wait) of any rank.
    pub busy: Duration,
    /// The largest communication time local compute hid on any rank.
    pub hidden: Duration,
    /// The most local flops of any rank.
    pub flops: u64,
    /// Entries of the product delta `C*`, summed over ranks.
    pub cstar_nnz: u64,
    /// Per stage, the slowest rank's exposed wall time.
    pub stages: PhaseTimer,
}

impl BatchCost {
    /// Projects every rank's report of one batch.
    pub fn of<'a>(ranks: impl IntoIterator<Item = &'a BatchReport>) -> Self {
        let mut cost = Self::default();
        for r in ranks {
            cost.wall = cost.wall.max(r.wall);
            cost.crit_bytes = cost.crit_bytes.max(r.sent_bytes());
            cost.msgs += r.sent_msgs();
            cost.busy = cost.busy.max(Duration::from_nanos(r.busy_ns()));
            cost.hidden = cost.hidden.max(Duration::from_nanos(r.comm.overlapped_ns));
            cost.flops = cost.flops.max(r.flops);
            cost.cstar_nnz += r.cstar_nnz;
            cost.stages.merge_max(&r.stages);
        }
        cost
    }

    /// The median batch of `costs`, component-wise (robust on a noisy
    /// host); stages are left empty.
    pub fn median(costs: &[BatchCost]) -> Self {
        let mid = |f: fn(&BatchCost) -> u64| quantile(costs.iter().map(f).collect(), 0.5);
        let mid_time =
            |f: fn(&BatchCost) -> Duration| quantile(costs.iter().map(f).collect::<Vec<_>>(), 0.5);
        Self {
            wall: mid_time(|c| c.wall),
            crit_bytes: mid(|c| c.crit_bytes),
            msgs: mid(|c| c.msgs),
            busy: mid_time(|c| c.busy),
            hidden: mid_time(|c| c.hidden),
            flops: mid(|c| c.flops),
            cstar_nnz: mid(|c| c.cstar_nnz),
            stages: PhaseTimer::new(),
        }
    }

    /// The sum of `costs`, component-wise: a run's critical path when each
    /// cost is one of its batches.
    pub fn total(costs: &[BatchCost]) -> Self {
        let mut sum = Self::default();
        for c in costs {
            sum.wall += c.wall;
            sum.crit_bytes += c.crit_bytes;
            sum.msgs += c.msgs;
            sum.busy += c.busy;
            sum.hidden += c.hidden;
            sum.flops += c.flops;
            sum.cstar_nnz += c.cstar_nnz;
            sum.stages.merge(&c.stages);
        }
        sum
    }

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

/// The cost of each batch of a run in which every rank returned its reports
/// in batch order (`runs[rank][batch]`).
pub fn per_batch(runs: &[Vec<BatchReport>]) -> Vec<BatchCost> {
    let batches = runs.first().map_or(0, Vec::len);
    (0..batches)
        .map(|b| BatchCost::of(runs.iter().map(|rank| &rank[b])))
        .collect()
}

/// The exact `q`-quantile of `samples` (`q` in `[0, 1]`): the sorted
/// samples' entry at rank `round((n − 1)·q)`; the default value if there are
/// none.
pub fn quantile<T: Copy + Ord + Default>(mut samples: Vec<T>, q: f64) -> T {
    if samples.is_empty() {
        return T::default();
    }
    samples.sort_unstable();
    samples[((samples.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize]
}

/// Mean duration of a slice.
pub fn mean(durations: &[Duration]) -> Duration {
    if durations.is_empty() {
        return Duration::ZERO;
    }
    durations.iter().sum::<Duration>() / durations.len() as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use dspgemm_core::meter;

    #[test]
    fn projection_reports_slowest_rank() {
        let out = dspgemm_mpi::run(4, |comm| {
            meter(comm, |_| {
                if comm.rank() == 3 {
                    std::thread::sleep(Duration::from_millis(30));
                }
            })
            .1
        });
        // The projection is the slowest rank's call: it covers rank 3's
        // sleep, and no rank's own call is longer.
        let cost = BatchCost::of(&out.results);
        assert!(cost.wall >= Duration::from_millis(30), "{:?}", cost.wall);
        assert_eq!(Some(cost.wall), out.results.iter().map(|r| r.wall).max());
        for (rank, r) in out.results.iter().enumerate() {
            assert!(r.busy_ns() <= r.wall.as_nanos() as u64, "rank {rank}");
        }
    }

    #[test]
    fn meter_counts_exact_volume() {
        // A fixed-size alltoallv, metered back to back without a fence: no
        // peer's early sends may leak into or out of any rank's report.
        const P: usize = 4;
        let chunk: Vec<u64> = (0..32).collect();
        let chunk_bytes = dspgemm_util::WireSize::wire_bytes(&chunk);
        let out = dspgemm_mpi::run(P, |comm| {
            (0..20)
                .map(|_| {
                    let chunks = (0..P).map(|_| chunk.clone()).collect();
                    meter(comm, |_| comm.alltoallv(chunks)).1
                })
                .collect::<Vec<_>>()
        });
        let own = ((P as u64 - 1) * chunk_bytes, P as u64 - 1);
        for (rank, reports) in out.results.iter().enumerate() {
            for (i, r) in reports.iter().enumerate() {
                assert_eq!(
                    (r.sent_bytes(), r.sent_msgs()),
                    own,
                    "rank {rank}, call {i}"
                );
            }
        }
        let exact = ((P as u64 - 1) * chunk_bytes, (P * (P - 1)) as u64);
        for (i, cost) in per_batch(&out.results).iter().enumerate() {
            assert_eq!((cost.crit_bytes, cost.msgs), exact, "call {i}");
        }
    }

    #[test]
    fn quantile_is_the_sorted_sample_at_the_rounded_rank() {
        let samples = vec![9u64, 1, 7, 3, 5];
        assert_eq!(quantile(samples.clone(), 0.0), 1);
        assert_eq!(quantile(samples.clone(), 0.5), 5);
        assert_eq!(quantile(samples.clone(), 0.99), 9);
        assert_eq!(quantile(vec![4u64, 2], 0.5), 4, "rank round(0.5) = 1");
        assert_eq!(quantile(Vec::<u64>::new(), 0.5), 0);
        let ms = |v: u64| Duration::from_millis(v);
        assert_eq!(quantile(vec![ms(30), ms(10), ms(20)], 0.5), ms(20));
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
