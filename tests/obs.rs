//! Observability invariants, end to end: `PhaseTimer` merges must carry
//! every phase in first-use order; a traced engine run must export a
//! schema-valid Chrome trace containing the span taxonomy the docs promise
//! and each rank's block load; tracing must change neither results nor wire
//! volume; and the engine's batch, migration and recovery events must carry
//! the numbers the engine returns.

use dspgemm::core::dyn_general::GeneralUpdates;
use dspgemm::core::recovery::RecoveryConfig;
use dspgemm::core::{Batch, DistMat, DynSpGemm, Grid, RebalanceConfig, RecoveryReport};
use dspgemm::mpi::Comm;
use dspgemm::obs::{EventKind, SpanEvent};
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

/// `e`'s attribute `key`, if it carries one.
fn attr(e: &SpanEvent, key: &str) -> Option<u64> {
    e.attrs.iter().find(|&&(k, _)| k == key).map(|&(_, v)| v)
}

/// Runs `f` on `p` ranks with the tracer on; returns the run's output and
/// every event it recorded.
fn traced<R: Send>(
    p: usize,
    f: impl Fn(&Comm) -> R + Send + Sync,
) -> (dspgemm::mpi::SimOutput<R>, Vec<SpanEvent>) {
    let _ = dspgemm::obs::drain(); // events from other tests are not ours
    dspgemm::obs::set_enabled(true);
    let out = dspgemm::mpi::run(p, f);
    dspgemm::obs::set_enabled(false);
    (out, dspgemm::obs::drain())
}

/// The events of one rank named `phase/name`, spans or instants.
fn named<'a>(
    events: &'a [SpanEvent],
    rank: usize,
    kind: EventKind,
    name: &'a str,
) -> impl Iterator<Item = &'a SpanEvent> + 'a {
    events.iter().filter(move |e| {
        e.rank == rank as i32 && e.kind == kind && e.phase == "engine" && e.name == name
    })
}

/// A pair engine over `n × n` operands that rank 0 feeds.
fn pair_engine(grid: &Grid, n: Index, track_filter: bool) -> DynSpGemm<U64Plus> {
    let mut timer = PhaseTimer::new();
    let feed = |s: u64| {
        if grid.world().rank() == 0 {
            random_triples(s, n, 60)
        } else {
            vec![]
        }
    };
    let a = DistMat::from_global_triples(grid, n, n, feed(1), 1, &mut timer);
    let b = DistMat::from_global_triples(grid, n, n, feed(2), 1, &mut timer);
    DynSpGemm::<U64Plus>::new(grid, a, b, 1, track_filter)
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
    let n: Index = 24;
    let (out, events) = traced(4, move |comm| {
        let grid = Grid::new(comm);
        let mut eng = pair_engine(&grid, n, false);
        eng.apply_algebraic(&grid, random_triples(10 + comm.rank() as u64, n, 8), vec![]);
        eng.snapshot();
        (eng.c.local_nnz() as u64, eng.flops)
    });

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

/// Tracing only reads clocks and counters: the same engine program — two
/// Algorithm-1 batches and one Algorithm-2 batch, each published — run with
/// the tracer off and then on must gather the same `C` and send exactly the
/// same bytes and messages.
#[test]
fn tracing_changes_neither_result_nor_wire_volume() {
    let _g = tracer_lock();
    let n: Index = 24;
    let program = |comm: &Comm| {
        let grid = Grid::new(comm);
        let me = comm.rank() as u64;
        let mut eng = pair_engine(&grid, n, true);
        for s in [10 + me, 20 + me] {
            eng.apply_algebraic(&grid, random_triples(s, n, 8), random_triples(s + 5, n, 8));
            eng.snapshot();
        }
        let upd = GeneralUpdates {
            sets: random_triples(40 + me, n, 6),
            deletes: random_triples(50 + me, n, 4)
                .into_iter()
                .map(|t| (t.row, t.col))
                .collect(),
        };
        eng.apply_general(&grid, upd, GeneralUpdates::new());
        eng.snapshot();
        eng.c.gather_to_root(comm)
    };
    let _ = dspgemm::obs::drain();
    let off = dspgemm::mpi::run(4, program);
    assert!(
        dspgemm::obs::drain().is_empty(),
        "the untraced run recorded"
    );
    let (on, events) = traced(4, program);
    assert!(!events.is_empty(), "the traced run recorded nothing");
    let c = off.results[0].as_ref().expect("root gathers");
    assert!(!c.is_empty());
    assert_eq!(Some(c), on.results[0].as_ref(), "tracing changed C");
    assert_eq!(
        off.stats.volume(),
        on.stats.volume(),
        "tracing changed the wire volume"
    );
}

/// The virtual transposition (§V-C) on the timeline: a pair engine's
/// Algorithm-1 batch routes both operands' update matrices, two lanes each,
/// through one redistribution, so every rank records one `redistribute`
/// span, and it carries four lanes.
#[test]
fn pair_algorithm_1_redistributes_four_lanes_at_once() {
    let _g = tracer_lock();
    let n: Index = 24;
    let (_, events) = traced(4, |comm| {
        let grid = Grid::new(comm);
        let mut eng = pair_engine(&grid, n, false);
        let s = 10 + comm.rank() as u64;
        eng.apply_algebraic(&grid, random_triples(s, n, 8), random_triples(s + 5, n, 8));
    });
    for rank in 0..4 {
        let lanes: Vec<Option<u64>> = named(&events, rank, EventKind::Span, "redistribute")
            .map(|e| attr(e, "lanes"))
            .collect();
        assert_eq!(lanes, [Some(4)], "rank {rank}");
    }
}

/// A session whose update stream all lands in the top-left corner
/// migrates, and the timeline accounts for it: `migrate` batch spans, and
/// `migrated` instants whose `bytes` add up, on every rank, to the wire
/// bytes the session's rebalancer metered. Under an unreachable threshold
/// the same stream records neither.
#[test]
fn migrations_are_traced_with_their_wire_bytes() {
    let _g = tracer_lock();
    let n: Index = 36;
    let session = |threshold: f64| {
        traced(4, move |comm| {
            let grid = Grid::new(comm);
            let mut timer = PhaseTimer::new();
            let mine: Vec<Triple<u64>> = if comm.rank() == 0 {
                (0..n).map(|i| Triple::new(i, (i + 1) % n, 1)).collect()
            } else {
                vec![]
            };
            let a = DistMat::from_global_triples(&grid, n, n, mine.clone(), 1, &mut timer);
            let b = DistMat::from_global_triples(&grid, n, n, mine, 1, &mut timer);
            let mut eng = DynSpGemm::<U64Plus>::new(&grid, a, b, 1, false);
            eng.enable_rebalancing(RebalanceConfig {
                threshold,
                cooldown: 0,
            });
            let hot = (n / 6) as u64;
            let mut rng = SplitMix64::new(0xBEEF ^ comm.rank() as u64);
            for _ in 0..4 {
                let batch: Vec<Triple<u64>> = (0..50)
                    .map(|_| {
                        Triple::new(rng.gen_range(hot) as Index, rng.gen_range(hot) as Index, 1)
                    })
                    .collect();
                eng.apply_algebraic(&grid, batch.clone(), batch);
                eng.maybe_rebalance(&grid).expect("fault-free");
            }
            eng.rebalancer().expect("enabled").migrated_bytes()
        })
    };
    let (out, events) = session(1.05);
    for (rank, &metered) in out.results.iter().enumerate() {
        assert!(metered > 0, "rank {rank}: the corner load did not migrate");
        assert!(
            named(&events, rank, EventKind::Span, "migrate").count() > 0,
            "rank {rank}: no migrate span"
        );
        let traced_bytes: u64 = named(&events, rank, EventKind::Instant, "migrated")
            .map(|e| attr(e, "bytes").expect("migrated carries bytes"))
            .sum();
        assert_eq!(traced_bytes, metered, "rank {rank}");
    }
    let (out, events) = session(1e9);
    assert!(out.results.iter().all(|&b| b == 0));
    assert!(
        !events
            .iter()
            .any(|e| e.phase == "engine" && (e.name == "migrate" || e.name == "migrated")),
        "an unreachable threshold still migrated"
    );
}

/// A recovery-enabled session that loses rank 1 at its first send of batch
/// 1 records one `recover` span on every rank — survivors and the
/// replacement — and each carries the [`RecoveryReport`] that rank's
/// `recover` returned; the replica bundle shipped is never empty. The same
/// run without the crash records no `recover` span.
#[test]
fn recovery_is_traced_with_its_report() {
    let _g = tracer_lock();
    let n: Index = 24;
    let session = |crash: bool| {
        traced(4, move |comm| {
            let grid = Grid::new(comm);
            let me = comm.rank();
            let mut eng = pair_engine(&grid, n, false);
            eng.enable_recovery(&grid, RecoveryConfig { anchor_period: 2 })
                .expect("no crash is armed yet");
            let mut report = None;
            let mut batch = 0u64;
            while batch < 3 {
                if crash && me == 1 && batch == 1 && report.is_none() {
                    comm.arm_crash(1);
                }
                let s = 97 * batch + me as u64;
                let ups = Batch::Algebraic(random_triples(s, n, 5), random_triples(s + 7, n, 5));
                match eng.try_apply(&grid, ups) {
                    Ok(_) => {
                        eng.publish();
                        batch += 1;
                    }
                    Err(err) => {
                        let r = eng.recover(&grid, err);
                        batch = r.committed_publishes - 1;
                        report = Some(r);
                    }
                }
            }
            report
        })
    };
    let (out, events) = session(true);
    for (rank, report) in out.results.iter().enumerate() {
        let report: &RecoveryReport = report.as_ref().expect("every rank recovers");
        let spans: Vec<&SpanEvent> = named(&events, rank, EventKind::Span, "recover").collect();
        assert_eq!(spans.len(), 1, "rank {rank}");
        let span = spans[0];
        for (key, want) in [
            ("failed_rank", report.failed_rank as u64),
            ("replayed_batches", report.replayed_batches),
            ("rollback_epochs", report.rollback_epochs),
            ("detect_ns", report.detect_ns),
            ("rebuild_bytes", report.rebuild_bytes),
        ] {
            assert_eq!(attr(span, key), Some(want), "rank {rank}: {key}");
        }
        assert!(report.rebuild_bytes > 0, "rank {rank}: nothing rebuilt");
    }
    let (out, events) = session(false);
    assert!(out.results.iter().all(Option::is_none));
    assert!(
        !events
            .iter()
            .any(|e| e.phase == "engine" && e.name == "recover"),
        "a fault-free run recorded a recover span"
    );
}
