//! Timing and measurement helpers for the benchmark harness.
//!
//! The paper reports per-phase breakdowns of its algorithms (Fig. 7: redist.
//! sort / redist. comm. / memory management / local construct / local
//! addition; Fig. 12: send-recv / bcast / local mult / scatter /
//! reduce-scatter). [`PhaseTimer`] accumulates named phase durations so the
//! reproduction can print the same breakdowns.
//!
//! Since the unified observability layer landed, [`PhaseTimer`] is a thin
//! facade over `dspgemm_obs`'s metrics primitives: every phase (and every
//! overlapped-communication entry) is an ordered nanosecond counter in an
//! [`obs_metrics::CounterBank`], and `merge`/`merge_max` are the bank's
//! sum/max reductions. The Duration-based API is unchanged;
//! [`PhaseTimer::export_into`] publishes the accumulated state into a
//! [`dspgemm_obs::Registry`] so benchmark artifacts render from registry
//! snapshots.

use dspgemm_obs::metrics as obs_metrics;
use obs_metrics::CounterBank;
use std::time::{Duration, Instant};

/// A simple wall-clock stopwatch.
#[derive(Debug, Clone)]
pub struct Timer {
    start: Instant,
}

impl Timer {
    /// Starts a new timer.
    pub fn start() -> Self {
        Self {
            start: Instant::now(),
        }
    }

    /// Elapsed time since start.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Restarts the timer and returns the lap duration.
    pub fn lap(&mut self) -> Duration {
        let now = Instant::now();
        let d = now - self.start;
        self.start = now;
        d
    }
}

/// Accumulates wall-clock time into named phases.
///
/// Phase names are interned in first-use order so breakdowns print in a
/// stable, caller-controlled order.
///
/// Communication phases additionally distinguish *exposed* time (the rank
/// was blocked waiting — recorded with [`PhaseTimer::add`]/`time`, counted
/// in [`PhaseTimer::total`]) from *overlapped* time (communication hidden
/// under another phase's compute — recorded with
/// [`PhaseTimer::add_overlapped`], excluded from `total`). Without the
/// split, a pipelined schedule would double-count hidden communication:
/// once under the compute phase whose wall clock covers it and once under
/// the communication phase. `comm_total` (= exposed + overlapped) keeps the
/// paper's Fig. 7/12 per-phase communication breakdowns reconstructible.
#[derive(Debug, Default, Clone)]
pub struct PhaseTimer {
    /// Exposed wall time per phase, nanoseconds, first-use order.
    phases: CounterBank,
    /// Per-phase communication time hidden under compute (never part of
    /// `total()`; a phase absent here has zero overlap). Nanoseconds.
    overlapped: CounterBank,
    /// Accumulated per-worker-thread flop counts of the local SpGEMM
    /// kernels (index = intra-rank thread id). The max/mean ratio over this
    /// vector is the thread-level load-imbalance metric of the `repro`
    /// reports.
    thread_flops: Vec<u64>,
}

/// Duration → nanosecond counter value (saturating; `u64` nanoseconds hold
/// ~585 years).
fn ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

impl PhaseTimer {
    /// Creates an empty phase timer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `d` to phase `name` (creating it if new).
    pub fn add(&mut self, name: &str, d: Duration) {
        self.phases.add(name, ns(d));
    }

    /// Times the closure and attributes the duration to `name`.
    pub fn time<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        let t = Timer::start();
        let r = f();
        self.add(name, t.elapsed());
        r
    }

    /// Total time of a phase (zero if absent).
    pub fn get(&self, name: &str) -> Duration {
        Duration::from_nanos(self.phases.get(name))
    }

    /// All `(phase, duration)` entries in first-use order. Durations are
    /// *exposed* wall time only; overlapped communication lives in
    /// [`PhaseTimer::comm_total`].
    pub fn entries(&self) -> Vec<(String, Duration)> {
        self.phases
            .entries()
            .iter()
            .map(|(n, v)| (n.clone(), Duration::from_nanos(*v)))
            .collect()
    }

    /// Sum of all phase durations (exposed wall time; phases partition the
    /// wall clock, so overlapped communication is deliberately excluded —
    /// its wall time already belongs to the compute phase that hid it).
    pub fn total(&self) -> Duration {
        Duration::from_nanos(self.phases.total())
    }

    /// Adds `d` of *overlapped* communication to phase `name`: time the
    /// operation was in flight while another phase's compute ran. Not
    /// counted in [`PhaseTimer::total`].
    pub fn add_overlapped(&mut self, name: &str, d: Duration) {
        self.overlapped.add(name, ns(d));
    }

    /// Exposed communication time of a phase — what the rank actually waited
    /// (identical to [`PhaseTimer::get`]; named accessor for breakdowns).
    pub fn comm_exposed(&self, name: &str) -> Duration {
        self.get(name)
    }

    /// Overlapped (compute-hidden) communication time of a phase.
    pub fn comm_overlapped(&self, name: &str) -> Duration {
        Duration::from_nanos(self.overlapped.get(name))
    }

    /// Total communication time of a phase: exposed + overlapped. The
    /// overlapped component ends at data *availability* (not at the wait),
    /// so this is the phase's issue→data-ready dependency latency — the
    /// Fig. 7/12-comparable per-phase communication cost. Pipelining moves
    /// time from exposed to overlapped (and can shrink the total when
    /// senders issue earlier); it never hides cost from this number.
    pub fn comm_total(&self, name: &str) -> Duration {
        self.get(name) + self.comm_overlapped(name)
    }

    /// Fraction of a phase's communication hidden under compute:
    /// `overlapped / (exposed + overlapped)`; zero for a phase with no
    /// recorded communication.
    pub fn overlap_ratio(&self, name: &str) -> f64 {
        let total = self.comm_total(name);
        if total.is_zero() {
            0.0
        } else {
            self.comm_overlapped(name).as_secs_f64() / total.as_secs_f64()
        }
    }

    /// Accumulates one kernel call's per-worker-thread flop counts
    /// (element-wise; the vector grows to the largest thread count seen).
    pub fn add_thread_flops(&mut self, per_thread: &[u64]) {
        if self.thread_flops.len() < per_thread.len() {
            self.thread_flops.resize(per_thread.len(), 0);
        }
        for (acc, &f) in self.thread_flops.iter_mut().zip(per_thread) {
            *acc += f;
        }
    }

    /// Accumulated per-worker-thread flop counts (empty if no kernel
    /// reported any).
    pub fn thread_flops(&self) -> &[u64] {
        &self.thread_flops
    }

    /// Thread-level flop imbalance: `max / mean` over the per-thread
    /// counters. 1.0 is a perfect split; `threads` is the worst case (all
    /// work on one thread). Returns 1.0 when fewer than two threads
    /// reported or no flops were recorded.
    pub fn flop_imbalance(&self) -> f64 {
        flop_imbalance(&self.thread_flops)
    }

    /// Merges another timer's phases into this one (summing shared phases).
    pub fn merge(&mut self, other: &PhaseTimer) {
        self.phases.merge_sum(&other.phases);
        self.overlapped.merge_sum(&other.overlapped);
        self.add_thread_flops(&other.thread_flops);
    }

    /// Element-wise maximum over phases: for per-rank timers this yields the
    /// critical-path view (the slowest rank per phase), which is what the
    /// paper's breakdown figures show.
    pub fn merge_max(&mut self, other: &PhaseTimer) {
        self.phases.merge_max(&other.phases);
        self.overlapped.merge_max(&other.overlapped);
        if self.thread_flops.len() < other.thread_flops.len() {
            self.thread_flops.resize(other.thread_flops.len(), 0);
        }
        for (acc, &f) in self.thread_flops.iter_mut().zip(&other.thread_flops) {
            *acc = (*acc).max(f);
        }
    }

    /// Publishes the accumulated state into a metrics registry under
    /// `prefix`: phase nanoseconds as `{prefix}.phase_ns.{name}`,
    /// overlapped nanoseconds as `{prefix}.overlapped_ns.{name}`, and
    /// per-thread flops as `{prefix}.thread_flops.{tid}` — the bridge that
    /// lets benchmark artifacts render from registry snapshots instead of
    /// hand-rolled aggregation.
    pub fn export_into(&self, reg: &dspgemm_obs::Registry, prefix: &str) {
        for (n, v) in self.phases.entries() {
            reg.counter_add(&format!("{prefix}.phase_ns.{n}"), *v);
        }
        for (n, v) in self.overlapped.entries() {
            reg.counter_add(&format!("{prefix}.overlapped_ns.{n}"), *v);
        }
        for (tid, f) in self.thread_flops.iter().enumerate() {
            reg.counter_add(&format!("{prefix}.thread_flops.{tid}"), *f);
        }
    }
}

/// `max / mean` over per-thread flop counters (see
/// [`PhaseTimer::flop_imbalance`]); usable directly on counters pooled
/// across ranks.
pub fn flop_imbalance(per_thread: &[u64]) -> f64 {
    let total: u64 = per_thread.iter().sum();
    if per_thread.len() < 2 || total == 0 {
        return 1.0;
    }
    let max = *per_thread.iter().max().expect("non-empty") as f64;
    let mean = total as f64 / per_thread.len() as f64;
    max / mean
}

/// Formats a byte count with binary units (`1.5 GiB`).
pub fn format_bytes(bytes: u64) -> String {
    const UNITS: [&str; 6] = ["B", "KiB", "MiB", "GiB", "TiB", "PiB"];
    let mut value = bytes as f64;
    let mut unit = 0;
    while value >= 1024.0 && unit + 1 < UNITS.len() {
        value /= 1024.0;
        unit += 1;
    }
    if unit == 0 {
        format!("{bytes} B")
    } else {
        format!("{value:.2} {}", UNITS[unit])
    }
}

/// Formats a duration compactly (`1.23 ms`, `4.5 s`).
pub fn format_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.2} s", ns as f64 / 1e9)
    }
}

/// Geometric mean of a slice of positive values. Returns `NaN` for empty
/// input. The paper's relative-performance summaries ("between 1.68× and
/// 2.59× faster … on average 1.15× faster") are geometric means.
pub fn geometric_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_timer_accumulates() {
        let mut pt = PhaseTimer::new();
        pt.add("sort", Duration::from_millis(3));
        pt.add("comm", Duration::from_millis(5));
        pt.add("sort", Duration::from_millis(2));
        assert_eq!(pt.get("sort"), Duration::from_millis(5));
        assert_eq!(pt.get("comm"), Duration::from_millis(5));
        assert_eq!(pt.get("absent"), Duration::ZERO);
        assert_eq!(pt.total(), Duration::from_millis(10));
        // Order of first use is preserved.
        let names: Vec<String> = pt.entries().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["sort", "comm"]);
    }

    #[test]
    fn phase_timer_time_closure() {
        let mut pt = PhaseTimer::new();
        let v = pt.time("work", || 42);
        assert_eq!(v, 42);
        assert!(pt.get("work") > Duration::ZERO || pt.get("work") == Duration::ZERO);
        assert_eq!(pt.entries().len(), 1);
    }

    #[test]
    fn merge_and_merge_max() {
        let mut a = PhaseTimer::new();
        a.add("x", Duration::from_millis(1));
        a.add("y", Duration::from_millis(10));
        let mut b = PhaseTimer::new();
        b.add("x", Duration::from_millis(5));
        b.add("z", Duration::from_millis(2));
        let mut sum = a.clone();
        sum.merge(&b);
        assert_eq!(sum.get("x"), Duration::from_millis(6));
        assert_eq!(sum.get("z"), Duration::from_millis(2));
        let mut mx = a.clone();
        mx.merge_max(&b);
        assert_eq!(mx.get("x"), Duration::from_millis(5));
        assert_eq!(mx.get("y"), Duration::from_millis(10));
        assert_eq!(mx.get("z"), Duration::from_millis(2));
    }

    #[test]
    fn overlapped_comm_not_double_counted() {
        let mut pt = PhaseTimer::new();
        // A pipelined round: 2 ms exposed bcast wait, 8 ms of the broadcast
        // hidden under 10 ms of local multiply.
        pt.add("bcast", Duration::from_millis(2));
        pt.add_overlapped("bcast", Duration::from_millis(8));
        pt.add("local mult.", Duration::from_millis(10));
        // total() partitions wall time: hidden comm is not double-counted.
        assert_eq!(pt.total(), Duration::from_millis(12));
        assert_eq!(pt.comm_exposed("bcast"), Duration::from_millis(2));
        assert_eq!(pt.comm_overlapped("bcast"), Duration::from_millis(8));
        assert_eq!(pt.comm_total("bcast"), Duration::from_millis(10));
        assert!((pt.overlap_ratio("bcast") - 0.8).abs() < 1e-12);
        assert_eq!(pt.overlap_ratio("local mult."), 0.0);
        // merge and merge_max carry the overlapped component along.
        let mut other = PhaseTimer::new();
        other.add_overlapped("bcast", Duration::from_millis(4));
        let mut sum = pt.clone();
        sum.merge(&other);
        assert_eq!(sum.comm_overlapped("bcast"), Duration::from_millis(12));
        let mut mx = pt.clone();
        mx.merge_max(&other);
        assert_eq!(mx.comm_overlapped("bcast"), Duration::from_millis(8));
    }

    #[test]
    fn thread_flop_counters_and_imbalance() {
        let mut pt = PhaseTimer::new();
        assert_eq!(pt.flop_imbalance(), 1.0);
        pt.add_thread_flops(&[10, 10]);
        pt.add_thread_flops(&[20, 0, 10]); // grows to 3 threads
        assert_eq!(pt.thread_flops(), &[30, 10, 10]);
        // max = 30, mean = 50/3.
        assert!((pt.flop_imbalance() - 30.0 / (50.0 / 3.0)).abs() < 1e-12);
        // merge sums element-wise; merge_max takes the element maximum.
        let mut other = PhaseTimer::new();
        other.add_thread_flops(&[5, 100]);
        let mut sum = pt.clone();
        sum.merge(&other);
        assert_eq!(sum.thread_flops(), &[35, 110, 10]);
        let mut mx = pt.clone();
        mx.merge_max(&other);
        assert_eq!(mx.thread_flops(), &[30, 100, 10]);
        // Free-function form for cross-rank pools.
        assert_eq!(flop_imbalance(&[7]), 1.0);
        assert!((flop_imbalance(&[4, 0, 0, 0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn export_into_registry() {
        let mut pt = PhaseTimer::new();
        pt.add("bcast", Duration::from_nanos(1500));
        pt.add_overlapped("bcast", Duration::from_nanos(500));
        pt.add_thread_flops(&[7, 9]);
        let reg = dspgemm_obs::Registry::new();
        pt.export_into(&reg, "t");
        pt.export_into(&reg, "t"); // counters accumulate
        assert_eq!(reg.counter("t.phase_ns.bcast"), 3000);
        assert_eq!(reg.counter("t.overlapped_ns.bcast"), 1000);
        assert_eq!(reg.counter("t.thread_flops.0"), 14);
        assert_eq!(reg.counter("t.thread_flops.1"), 18);
    }

    #[test]
    fn formatting() {
        assert_eq!(format_bytes(512), "512 B");
        assert_eq!(format_bytes(2048), "2.00 KiB");
        assert_eq!(format_bytes(3 * 1024 * 1024), "3.00 MiB");
        assert_eq!(format_duration(Duration::from_nanos(500)), "500 ns");
        assert_eq!(format_duration(Duration::from_micros(1500)), "1.50 ms");
        assert_eq!(format_duration(Duration::from_secs(2)), "2.00 s");
    }

    #[test]
    fn geo_mean() {
        assert!((geometric_mean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geometric_mean(&[3.0]) - 3.0).abs() < 1e-12);
        assert!(geometric_mean(&[]).is_nan());
    }

    #[test]
    fn timer_lap_moves_forward() {
        let mut t = Timer::start();
        let a = t.lap();
        let b = t.elapsed();
        assert!(a >= Duration::ZERO);
        assert!(b >= Duration::ZERO);
    }
}
