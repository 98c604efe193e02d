//! Timing and measurement helpers for the benchmark harness.
//!
//! The paper reports per-phase breakdowns of its algorithms (Fig. 7: redist.
//! sort / redist. comm. / memory management / local construct / local
//! addition; Fig. 12: send-recv / bcast / local mult / scatter /
//! reduce-scatter). [`PhaseTimer`] accumulates named phase durations so the
//! reproduction can print the same breakdowns.

use std::time::{Duration, Instant};

/// Accumulates *exposed* wall-clock time into named phases, in first-use
/// order so breakdowns print in a stable, caller-controlled order.
///
/// A communication phase records what the rank spent blocked on it. The
/// part of a request that local compute hid is no phase's time — its wall
/// clock already belongs to the compute phase that covered it; the meter
/// records it per rank (`RankCommStats` `overlapped_ns`). Phases therefore
/// partition the wall clock: their sum counts nothing twice.
#[derive(Debug, Default, Clone)]
pub struct PhaseTimer {
    phases: Vec<(&'static str, Duration)>,
}

impl PhaseTimer {
    /// Creates an empty phase timer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The accumulator of phase `name`, created at zero if new.
    fn slot(&mut self, name: &'static str) -> &mut Duration {
        let i = match self.phases.iter().position(|(n, _)| *n == name) {
            Some(i) => i,
            None => {
                self.phases.push((name, Duration::ZERO));
                self.phases.len() - 1
            }
        };
        &mut self.phases[i].1
    }

    /// Adds `d` to phase `name` (creating it if new).
    pub fn add(&mut self, name: &'static str, d: Duration) {
        *self.slot(name) += d;
    }

    /// Times the closure and attributes the duration to `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let r = f();
        self.add(name, start.elapsed());
        r
    }

    /// Total time of a phase (zero if absent).
    pub fn get(&self, name: &str) -> Duration {
        self.phases
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(Duration::ZERO, |&(_, d)| d)
    }

    /// All `(phase, duration)` entries in first-use order.
    pub fn entries(&self) -> &[(&'static str, Duration)] {
        &self.phases
    }

    /// Merges another timer's phases into this one (summing shared phases).
    pub fn merge(&mut self, other: &PhaseTimer) {
        for &(n, d) in &other.phases {
            self.add(n, d);
        }
    }

    /// Element-wise maximum over phases: for per-rank timers this yields the
    /// critical-path view (the slowest rank per phase), which is what the
    /// paper's breakdown figures show.
    pub fn merge_max(&mut self, other: &PhaseTimer) {
        for &(n, d) in &other.phases {
            let slot = self.slot(n);
            *slot = (*slot).max(d);
        }
    }
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
        // Order of first use is preserved.
        let names: Vec<&str> = pt.entries().iter().map(|&(n, _)| n).collect();
        assert_eq!(names, vec!["sort", "comm"]);
    }

    #[test]
    fn phase_timer_time_closure() {
        let mut pt = PhaseTimer::new();
        let outer = Instant::now();
        let v = pt.time("work", || {
            std::thread::sleep(Duration::from_millis(2));
            42
        });
        let bound = outer.elapsed();
        assert_eq!(v, 42);
        // The closure's own time, and nothing the caller spent around it.
        assert!(
            pt.get("work") >= Duration::from_millis(2),
            "{:?}",
            pt.get("work")
        );
        assert!(pt.get("work") <= bound, "{:?} > {bound:?}", pt.get("work"));
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
}
