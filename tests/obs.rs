//! Observability invariants, end to end: histogram merges must be
//! order-insensitive across simulated ranks (so a percentile never depends
//! on rank arrival order), `PhaseTimer` merges must carry every phase in
//! first-use order, and a traced engine run must export a schema-valid
//! Chrome trace containing the span taxonomy the docs promise and each
//! rank's block load.

use dspgemm::core::{DistMat, DynSpGemm, Grid};
use dspgemm::obs::Histogram;
use dspgemm::sparse::semiring::U64Plus;
use dspgemm::sparse::{Index, Triple};
use dspgemm::util::rng::{Rng, SplitMix64};
use dspgemm::util::stats::PhaseTimer;
use std::sync::Mutex;
use std::time::Duration;

/// The tracer is process-global; tests that toggle it serialise here.
fn tracer_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn random_triples(seed: u64, n: Index, count: usize) -> Vec<Triple<u64>> {
    let mut rng = SplitMix64::new(seed);
    (0..count)
        .map(|_| {
            Triple::new(
                rng.gen_range(n as u64) as Index,
                rng.gen_range(n as u64) as Index,
                rng.gen_range(5) + 1,
            )
        })
        .collect()
}

/// Each simulated rank records its own latency samples into a local
/// histogram; merging the per-rank histograms must be associative and
/// commutative — identical counts, sums, extrema, and quantiles for every
/// merge order.
#[test]
fn histogram_merge_is_associative_and_commutative_across_ranks() {
    let out = dspgemm::mpi::run(4, |comm| {
        let mut h = Histogram::new();
        let mut rng = SplitMix64::new(0xC0FFEE ^ comm.rank() as u64);
        for _ in 0..1000 {
            // Spread samples across many octaves (1 ns .. ~1 s).
            let v = rng.gen_range(1 << (10 + 2 * comm.rank() as u64)) + 1;
            h.record(v);
        }
        h
    });
    let ranks: Vec<Histogram> = out.results;

    // Left fold 0..3, right-ish fold, and a permuted fold.
    let fold = |order: &[usize]| {
        let mut acc = Histogram::new();
        for &i in order {
            acc.merge(&ranks[i]);
        }
        acc
    };
    let a = fold(&[0, 1, 2, 3]);
    let b = fold(&[3, 2, 1, 0]);
    let c = {
        // Associativity: (r0 + r1) + (r2 + r3) pairwise.
        let mut left = Histogram::new();
        left.merge(&ranks[0]);
        left.merge(&ranks[1]);
        let mut right = Histogram::new();
        right.merge(&ranks[2]);
        right.merge(&ranks[3]);
        let mut acc = Histogram::new();
        acc.merge(&right);
        acc.merge(&left);
        acc
    };
    for m in [&b, &c] {
        assert_eq!(a.count(), m.count());
        assert_eq!(a.sum(), m.sum());
        assert_eq!(a.min(), m.min());
        assert_eq!(a.max(), m.max());
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(a.quantile(q), m.quantile(q), "quantile {q} diverged");
        }
        assert_eq!(a.nonzero_buckets(), m.nonzero_buckets());
    }
}

/// The histogram quantile must agree with the sort-based estimator it
/// replaced (`samples[round((n-1)·q)]`) within the documented sub-bucket
/// error (≤ ~3.2% relative).
#[test]
fn histogram_quantiles_match_sorted_samples_within_bucket_error() {
    let mut rng = SplitMix64::new(42);
    let samples: Vec<u64> = (0..5000).map(|_| rng.gen_range(1 << 40) + 1).collect();
    let mut h = Histogram::new();
    let mut sorted = samples.clone();
    for &v in &samples {
        h.record(v);
    }
    sorted.sort_unstable();
    for q in [0.01, 0.5, 0.9, 0.99, 0.999] {
        let exact = sorted[((sorted.len() - 1) as f64 * q).round() as usize] as f64;
        let approx = h.quantile(q) as f64;
        let rel = (approx - exact).abs() / exact;
        assert!(rel <= 0.032, "q={q}: {approx} vs exact {exact} (rel {rel})");
    }
}

/// `PhaseTimer::merge` (sum) and `merge_max` (critical path) must carry
/// every phase — including one only some ranks recorded — in first-use
/// order.
#[test]
fn phase_timer_merge_carries_phase_and_overlap_counters() {
    let mut a = PhaseTimer::new();
    a.add("local_mult", Duration::from_nanos(100));
    let mut b = PhaseTimer::new();
    b.add("send_recv", Duration::from_nanos(60));
    b.add("local_mult", Duration::from_nanos(50));

    let mut sum = PhaseTimer::new();
    sum.merge(&a);
    sum.merge(&b);
    assert_eq!(sum.get("local_mult"), Duration::from_nanos(150));
    assert_eq!(sum.get("send_recv"), Duration::from_nanos(60));
    assert_eq!(sum.total(), Duration::from_nanos(210));

    let mut crit = PhaseTimer::new();
    crit.merge_max(&a);
    crit.merge_max(&b);
    assert_eq!(crit.get("local_mult"), Duration::from_nanos(100));
    assert_eq!(crit.get("send_recv"), Duration::from_nanos(60));

    // Both reductions keep first-use order: `a`'s phases, then `b`'s new ones.
    for merged in [&sum, &crit] {
        let names: Vec<&str> = merged.entries().iter().map(|&(n, _)| n).collect();
        assert_eq!(names, ["local_mult", "send_recv"]);
    }
}

/// A traced dynamic-SpGEMM run must export a schema-valid Chrome trace
/// whose events cover the documented span taxonomy: per-rank comm spans
/// with byte counts, per-round compute spans, engine batch spans, and one
/// `epoch_publish` instant per published epoch — all attributed to the
/// rank threads that produced them. The latest publish of each rank carries
/// that rank's block load: the nnz of its `C` block and its local flops.
#[test]
fn traced_engine_run_exports_valid_chrome_trace() {
    let _g = tracer_lock();
    let _ = dspgemm::obs::drain(); // events from other tests are not ours
    dspgemm::obs::set_enabled(true);
    let n: Index = 24;
    let out = dspgemm::mpi::run(4, move |comm| {
        let grid = Grid::new(comm);
        let mut timer = PhaseTimer::new();
        let feed = |s: u64| {
            if comm.rank() == 0 {
                random_triples(s, n, 60)
            } else {
                vec![]
            }
        };
        let a = DistMat::from_global_triples(&grid, n, n, feed(1), 1, &mut timer);
        let b = DistMat::from_global_triples(&grid, n, n, feed(2), 1, &mut timer);
        let mut eng = DynSpGemm::<U64Plus>::new(&grid, a, b, 1, false);
        eng.apply_algebraic(&grid, random_triples(10 + comm.rank() as u64, n, 8), vec![]);
        eng.snapshot();
        (eng.c.local_nnz() as u64, eng.flops)
    });
    dspgemm::obs::set_enabled(false);
    let events = dspgemm::obs::drain();

    let has = |phase: &str, name: &str| events.iter().any(|e| e.phase == phase && e.name == name);
    assert!(has("round", "round"), "per-round compute spans missing");
    assert!(has("engine", "redistribute"), "redistribute span missing");
    assert!(has("engine", "apply_algebraic"), "apply-batch span missing");
    assert!(
        has("engine", "epoch_publish"),
        "epoch_publish instant missing"
    );
    assert!(
        events.iter().any(|e| e.phase == "comm"
            && e.name == "bcast"
            && e.attrs.iter().any(|&(k, v)| k == "bytes" && v > 0)),
        "comm bcast span with a byte count missing"
    );
    // Every engine event is attributed to a simulated rank thread.
    assert!(events
        .iter()
        .filter(|e| e.phase == "engine")
        .all(|e| (0..4).contains(&e.rank)));
    let attr = |e: &dspgemm::obs::SpanEvent, key: &str| {
        e.attrs.iter().find(|&&(k, _)| k == key).map(|&(_, v)| v)
    };
    for (rank, &(c_nnz, flops)) in out.results.iter().enumerate() {
        let latest = events
            .iter()
            .filter(|e| e.name == "epoch_publish" && e.rank == rank as i32)
            .max_by_key(|e| attr(e, "epoch"))
            .expect("every rank publishes");
        assert_eq!(attr(latest, "image_nnz_c"), Some(c_nnz), "rank {rank}");
        assert_eq!(attr(latest, "flops"), Some(flops), "rank {rank}");
    }

    let json = dspgemm::obs::chrome_trace_json(&events);
    let summary = dspgemm::obs::validate_chrome_trace(&json).expect("schema-valid trace");
    assert!(summary.spans > 0 && summary.instants > 0);
}

/// The disabled tracer records nothing — the default path stays silent, so
/// instrumented library code is free to run everywhere.
#[test]
fn disabled_tracer_records_nothing() {
    let _g = tracer_lock();
    let _ = dspgemm::obs::drain();
    {
        let _sp = dspgemm::obs::span("comm", "send").attr("bytes", 1);
        dspgemm::obs::instant("engine", "epoch_publish", &[("epoch", 1)]);
    }
    assert!(dspgemm::obs::drain().is_empty());
}
