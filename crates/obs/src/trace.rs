//! Span tracer and Chrome `trace_event` export.
//!
//! ## Recording model
//!
//! [`span`] returns a scope guard; on drop it records a
//! `(rank, phase, name, t_start, t_end, attrs)` event into a
//! **thread-local ring buffer** — no locks, no shared cache lines on the
//! hot path. Rings flush into a process-global sink when full and when the
//! thread calls [`flush_thread`] — which the simulator's and the TCP
//! backend's rank threads do as their body exits, so by the time
//! `mpisim::run` returns every rank's events are in the sink; [`drain`]
//! then takes the whole set for export. (The ring's TLS destructor flushes
//! too, but only as a backstop: `std::thread::scope` waits for a thread's
//! closure, not for its destructors.)
//!
//! ## Zero cost when disabled
//!
//! The tracer is off by default. When off, [`span`] performs one relaxed
//! atomic load and returns an inert guard — no clock is read, nothing is
//! allocated, nothing is recorded. Tracing only ever *reads* clocks and
//! counters, so enabling it cannot change results or communication volume;
//! `tests/obs.rs::tracing_changes_neither_result_nor_wire_volume` asserts
//! exactly that (bit-identical `C`, equal `CommStats::volume()`). Only the
//! `repro` binary's `--trace-out` switches it; library code only records.
//!
//! ## Export
//!
//! [`chrome_trace_json`] renders drained events as a Chrome
//! `trace_event` document (`{"traceEvents": [...]}` with sorted `B`/`E`
//! pairs and `i` instants, timestamps in microseconds) openable in
//! `chrome://tracing` or [Perfetto](https://ui.perfetto.dev). One
//! simulated rank maps to one trace thread (`tid` = rank).
//! [`validate_chrome_trace`] is the schema check used by tests and the CI
//! smoke job: well-formed events, non-decreasing timestamps, and matched
//! `B`/`E` pairs per thread.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Trace thread id used for events recorded outside any simulated rank.
pub const MAIN_TID: u64 = 1_000_000;

static ENABLED: AtomicBool = AtomicBool::new(false);
static SEQ: AtomicU64 = AtomicU64::new(0);
static SINK: Mutex<Vec<SpanEvent>> = Mutex::new(Vec::new());

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    u64::try_from(epoch().elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Enables or disables span recording process-wide.
///
/// Idempotent; affects only whether *new* spans record. Already-buffered
/// events stay buffered until [`drain`].
pub fn set_enabled(on: bool) {
    if on {
        // Pin the time base before the first span so timestamps are
        // monotone from zero.
        let _ = epoch();
    }
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether span recording is currently enabled.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// What a [`SpanEvent`] represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A duration span (`t_start..t_end`), exported as a `B`/`E` pair.
    Span,
    /// A point event (`t_start == t_end`), exported as an `i` instant.
    Instant,
}

/// One recorded trace event.
#[derive(Debug, Clone)]
pub struct SpanEvent {
    /// Simulated rank, or `-1` when recorded outside any rank thread.
    pub rank: i32,
    /// Phase taxonomy bucket (`comm`, `engine`, `round`, `query`, …);
    /// exported as the chrome-trace category.
    pub phase: &'static str,
    /// Span name within the phase (`send`, `bcast_wait`, `epoch_publish`…).
    pub name: &'static str,
    /// Start, nanoseconds since the process trace epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the process trace epoch (== `start_ns` for
    /// instants).
    pub end_ns: u64,
    /// Span or instant.
    pub kind: EventKind,
    /// Numeric attributes (`bytes`, `exposed_ns`, `overlapped_ns`, …).
    pub attrs: Vec<(&'static str, u64)>,
    /// Global record sequence number (completion order); used only to
    /// resolve equal-timestamp ordering during export.
    pub seq: u64,
}

thread_local! {
    static RANK: Cell<i32> = const { Cell::new(-1) };
    static RING: RefCell<Ring> = const { RefCell::new(Ring { buf: Vec::new() }) };
}

/// Per-thread bounded event buffer; spills to the global sink when full,
/// on [`flush_thread`], and — as a backstop nobody may wait on — when the
/// thread-local is dropped.
struct Ring {
    buf: Vec<SpanEvent>,
}

/// Ring capacity before a spill to the global sink (events, per thread).
const RING_CAP: usize = 4096;

impl Ring {
    fn push(&mut self, ev: SpanEvent) {
        if self.buf.capacity() == 0 {
            self.buf.reserve(RING_CAP);
        }
        self.buf.push(ev);
        if self.buf.len() >= RING_CAP {
            self.spill();
        }
    }

    fn spill(&mut self) {
        if !self.buf.is_empty() {
            let mut sink = SINK.lock().unwrap_or_else(|e| e.into_inner());
            sink.append(&mut self.buf);
        }
    }
}

impl Drop for Ring {
    fn drop(&mut self) {
        self.spill();
    }
}

fn record(ev: SpanEvent) {
    RING.with(|r| r.borrow_mut().push(ev));
}

/// Declares the current thread to be simulated rank `rank`; called by the
/// simulator when it spawns rank threads so every event recorded on this
/// thread is attributed to that rank.
pub fn set_thread_rank(rank: usize) {
    RANK.with(|r| r.set(i32::try_from(rank).unwrap_or(i32::MAX)));
}

/// Clears the current thread's rank attribution (events record rank `-1`).
pub fn clear_thread_rank() {
    RANK.with(|r| r.set(-1));
}

/// The simulated rank this thread's events are attributed to (`-1` outside
/// any rank thread).
fn thread_rank() -> i32 {
    RANK.with(|r| r.get())
}

/// Flushes the current thread's ring buffer into the global sink.
///
/// A thread whose events must be visible once it is joined or its scope
/// ends calls this as its last act (rank threads do); the main thread
/// calls it, or [`drain`], which does, before exporting.
pub fn flush_thread() {
    RING.with(|r| r.borrow_mut().spill());
}

/// Takes all buffered events out of the global sink (flushing the calling
/// thread's ring first).
///
/// Call after worker/rank threads have joined — a thread that is still
/// running may hold events in its own ring that this cannot see.
pub fn drain() -> Vec<SpanEvent> {
    flush_thread();
    std::mem::take(&mut *SINK.lock().unwrap_or_else(|e| e.into_inner()))
}

/// A scope guard recording one span from creation to drop.
///
/// Inert (no clock read, no allocation, nothing recorded) when the tracer
/// is disabled.
#[must_use = "a span records its duration when dropped"]
#[derive(Debug)]
pub struct Span {
    data: Option<SpanData>,
}

#[derive(Debug)]
struct SpanData {
    phase: &'static str,
    name: &'static str,
    start_ns: u64,
    attrs: Vec<(&'static str, u64)>,
}

impl Span {
    /// Attaches a numeric attribute (builder form).
    pub fn attr(mut self, key: &'static str, value: u64) -> Self {
        self.set_attr(key, value);
        self
    }

    /// Attaches a numeric attribute (for values only known mid-span).
    pub fn set_attr(&mut self, key: &'static str, value: u64) {
        if let Some(d) = &mut self.data {
            d.attrs.push((key, value));
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(d) = self.data.take() {
            record(SpanEvent {
                rank: thread_rank(),
                phase: d.phase,
                name: d.name,
                start_ns: d.start_ns,
                end_ns: now_ns(),
                kind: EventKind::Span,
                attrs: d.attrs,
                seq: SEQ.fetch_add(1, Ordering::Relaxed),
            });
        }
    }
}

/// Opens a span in phase `phase` named `name`; the span closes (and
/// records) when the returned guard drops.
#[inline]
pub fn span(phase: &'static str, name: &'static str) -> Span {
    if !enabled() {
        return Span { data: None };
    }
    Span {
        data: Some(SpanData {
            phase,
            name,
            start_ns: now_ns(),
            attrs: Vec::new(),
        }),
    }
}

/// Records a point event (e.g. an epoch publish) with attributes.
/// No-op when the tracer is disabled.
pub fn instant(phase: &'static str, name: &'static str, attrs: &[(&'static str, u64)]) {
    if !enabled() {
        return;
    }
    let t = now_ns();
    record(SpanEvent {
        rank: thread_rank(),
        phase,
        name,
        start_ns: t,
        end_ns: t,
        kind: EventKind::Instant,
        attrs: attrs.to_vec(),
        seq: SEQ.fetch_add(1, Ordering::Relaxed),
    });
}

// ---------------------------------------------------------------------------
// Chrome trace export
// ---------------------------------------------------------------------------

fn tid_of(rank: i32) -> u64 {
    if rank >= 0 {
        rank as u64
    } else {
        MAIN_TID
    }
}

/// One flattened chrome event before serialisation.
struct ChromeEvent {
    ts_ns: u64,
    tid: u64,
    ph: char,
    name: &'static str,
    cat: &'static str,
    args: Vec<(&'static str, u64)>,
}

/// An open span on the per-thread emission stack.
struct Frame {
    name: &'static str,
    cat: &'static str,
    end_ns: u64,
}

/// Emits `E` events for every stack frame that ends at or before `t`.
fn close_until(
    stack: &mut Vec<Frame>,
    flat: &mut Vec<ChromeEvent>,
    tid: u64,
    cursor: &mut u64,
    t: u64,
) {
    while let Some(top) = stack.last() {
        if top.end_ns > t {
            break;
        }
        let f = stack.pop().expect("non-empty");
        *cursor = (*cursor).max(f.end_ns);
        flat.push(ChromeEvent {
            ts_ns: *cursor,
            tid,
            ph: 'E',
            name: f.name,
            cat: f.cat,
            args: Vec::new(),
        });
    }
}

/// Renders events as a Chrome `trace_event` JSON document.
///
/// Spans become matched `B`/`E` pairs, instants become `i` events, and one
/// `M` (thread-name) metadata event labels each rank's track. Events are
/// globally sorted by timestamp; within a thread, equal timestamps keep a
/// nesting-consistent order (outer span opens first, inner closes first),
/// so the output always passes [`validate_chrome_trace`].
pub fn chrome_trace_json(events: &[SpanEvent]) -> String {
    use crate::json::escape;

    // Group events per trace thread.
    let mut tids: Vec<u64> = events.iter().map(|e| tid_of(e.rank)).collect();
    tids.sort_unstable();
    tids.dedup();

    // Per-tid emission with explicit stack simulation guarantees matched,
    // properly nested B/E pairs even for zero-length or boundary-sharing
    // spans.
    let mut flat: Vec<ChromeEvent> = Vec::with_capacity(events.len() * 2);
    for &tid in &tids {
        let mut spans: Vec<&SpanEvent> = events.iter().filter(|e| tid_of(e.rank) == tid).collect();
        // Start ascending; at equal starts longer spans (and, failing
        // that, later-completed = outer guards) open first.
        spans.sort_by(|a, b| {
            a.start_ns
                .cmp(&b.start_ns)
                .then(b.end_ns.cmp(&a.end_ns))
                .then(b.seq.cmp(&a.seq))
        });
        let mut stack: Vec<Frame> = Vec::new();
        let mut cursor = 0u64;
        for s in spans {
            close_until(&mut stack, &mut flat, tid, &mut cursor, s.start_ns);
            cursor = cursor.max(s.start_ns);
            match s.kind {
                EventKind::Instant => flat.push(ChromeEvent {
                    ts_ns: cursor,
                    tid,
                    ph: 'i',
                    name: s.name,
                    cat: s.phase,
                    args: s.attrs.clone(),
                }),
                EventKind::Span => {
                    // A child may not outlive its parent in the rendered
                    // nesting; clamp (only reachable if a span guard is
                    // held across unusual control flow).
                    let end = match stack.last() {
                        Some(parent) => s.end_ns.min(parent.end_ns),
                        None => s.end_ns,
                    };
                    flat.push(ChromeEvent {
                        ts_ns: cursor,
                        tid,
                        ph: 'B',
                        name: s.name,
                        cat: s.phase,
                        args: s.attrs.clone(),
                    });
                    stack.push(Frame {
                        name: s.name,
                        cat: s.phase,
                        end_ns: end.max(cursor),
                    });
                }
            }
        }
        close_until(&mut stack, &mut flat, tid, &mut cursor, u64::MAX);
    }

    // Global, stable sort by timestamp: per-tid relative order (and with
    // it stack correctness) is preserved for equal timestamps.
    flat.sort_by_key(|e| e.ts_ns);

    let mut out = String::with_capacity(flat.len() * 96 + 256);
    out.push_str("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
    let mut first = true;
    for &tid in &tids {
        let label = if tid == MAIN_TID {
            "main".to_string()
        } else {
            format!("rank {tid}")
        };
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str(&format!(
            "{{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": {tid}, \
             \"args\": {{\"name\": \"{}\"}}}}",
            escape(&label)
        ));
    }
    for e in &flat {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str(&format!(
            "{{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"{}\", \"ts\": {:.3}, \
             \"pid\": 1, \"tid\": {}",
            escape(e.name),
            escape(e.cat),
            e.ph,
            e.ts_ns as f64 / 1e3,
            e.tid
        ));
        if e.ph == 'i' {
            out.push_str(", \"s\": \"t\"");
        }
        if !e.args.is_empty() {
            out.push_str(", \"args\": {");
            for (i, (k, v)) in e.args.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!("\"{}\": {}", escape(k), v));
            }
            out.push('}');
        }
        out.push('}');
    }
    out.push_str("\n]}\n");
    out
}

/// Writes [`chrome_trace_json`] output to `path`.
pub fn write_chrome_trace(path: &std::path::Path, events: &[SpanEvent]) -> std::io::Result<()> {
    std::fs::write(path, chrome_trace_json(events))
}

/// Summary returned by a successful [`validate_chrome_trace`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceSummary {
    /// Total events in the document (including metadata).
    pub events: usize,
    /// Matched `B`/`E` span pairs.
    pub spans: usize,
    /// `i`/`I` instant events.
    pub instants: usize,
    /// Largest timestamp seen, microseconds.
    pub max_ts_us: f64,
}

/// Validates a Chrome `trace_event` JSON document.
///
/// Checks the properties the CI smoke job relies on: the document parses,
/// every event is an object carrying `name`/`ph` (and numeric
/// `ts`/`pid`/`tid` for non-metadata events), timestamps are
/// non-decreasing in document order, and every `B` is closed by a
/// matching same-name `E` on the same `(pid, tid)` with nothing left open
/// at the end.
pub fn validate_chrome_trace(json: &str) -> Result<TraceSummary, String> {
    use crate::json::{parse, Value};

    let doc = parse(json).map_err(|e| format!("trace is not valid JSON: {e}"))?;
    let events = match (&doc, doc.get("traceEvents")) {
        (_, Some(Value::Arr(a))) => a.as_slice(),
        (Value::Arr(a), _) => a.as_slice(),
        _ => return Err("expected a traceEvents array".to_string()),
    };

    let mut stacks: std::collections::BTreeMap<(u64, u64), Vec<String>> = Default::default();
    let mut last_ts = f64::NEG_INFINITY;
    let mut max_ts = 0.0f64;
    let mut spans = 0usize;
    let mut instants = 0usize;

    for (i, ev) in events.iter().enumerate() {
        let obj = ev
            .as_obj()
            .ok_or_else(|| format!("event {i}: not an object"))?;
        let ph = obj
            .get("ph")
            .and_then(|v| v.as_str())
            .ok_or_else(|| format!("event {i}: missing \"ph\""))?;
        let name = obj
            .get("name")
            .and_then(|v| v.as_str())
            .ok_or_else(|| format!("event {i}: missing \"name\""))?;
        if name.is_empty() {
            return Err(format!("event {i}: empty name"));
        }
        if ph == "M" {
            continue;
        }
        if !matches!(ph, "B" | "E" | "i" | "I" | "X") {
            return Err(format!("event {i}: unsupported phase type {ph:?}"));
        }
        let ts = obj
            .get("ts")
            .and_then(|v| v.as_num())
            .ok_or_else(|| format!("event {i}: missing numeric \"ts\""))?;
        if !ts.is_finite() || ts < 0.0 {
            return Err(format!("event {i}: bad ts {ts}"));
        }
        if ts < last_ts {
            return Err(format!(
                "event {i}: timestamps not monotone ({ts} after {last_ts})"
            ));
        }
        last_ts = ts;
        max_ts = max_ts.max(ts);
        let pid = obj
            .get("pid")
            .and_then(|v| v.as_num())
            .ok_or_else(|| format!("event {i}: missing numeric \"pid\""))?;
        let tid = obj
            .get("tid")
            .and_then(|v| v.as_num())
            .ok_or_else(|| format!("event {i}: missing numeric \"tid\""))?;
        let key = (pid as u64, tid as u64);
        match ph {
            "B" => stacks.entry(key).or_default().push(name.to_string()),
            "E" => {
                let open = stacks
                    .get_mut(&key)
                    .and_then(|s| s.pop())
                    .ok_or_else(|| format!("event {i}: E {name:?} with no open B"))?;
                if open != name {
                    return Err(format!(
                        "event {i}: E {name:?} closes B {open:?} (mismatched pair)"
                    ));
                }
                spans += 1;
            }
            "i" | "I" => instants += 1,
            _ => {} // X: complete event, self-contained
        }
    }
    for ((pid, tid), stack) in &stacks {
        if let Some(open) = stack.last() {
            return Err(format!(
                "unclosed B {open:?} on pid {pid} tid {tid} at end of trace"
            ));
        }
    }
    Ok(TraceSummary {
        events: events.len(),
        spans,
        instants,
        max_ts_us: max_ts,
    })
}

/// Reads and validates the trace file at `path`.
pub fn validate_chrome_trace_file(path: &std::path::Path) -> Result<TraceSummary, String> {
    let json =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    validate_chrome_trace(&json)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tracer is process-global state; tests touching it serialise.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let _g = lock();
        set_enabled(false);
        let _ = drain();
        {
            let s = span("comm", "send").attr("bytes", 10);
            drop(s);
            instant("engine", "epoch_publish", &[("epoch", 1)]);
        }
        assert!(drain().is_empty());
    }

    #[test]
    fn spans_nest_and_export_valid_chrome_trace() {
        let _g = lock();
        set_enabled(true);
        let _ = drain();
        set_thread_rank(3);
        {
            let _outer = span("round", "round");
            {
                let _inner = span("comm", "bcast_wait")
                    .attr("bytes", 1234)
                    .attr("exposed_ns", 5);
            }
            instant("engine", "epoch_publish", &[("epoch", 7)]);
        }
        clear_thread_rank();
        set_enabled(false);
        let events = drain();
        assert_eq!(events.len(), 3);
        assert!(events.iter().all(|e| e.rank == 3));
        let json = chrome_trace_json(&events);
        let sum = validate_chrome_trace(&json).expect("valid trace");
        assert_eq!(sum.spans, 2);
        assert_eq!(sum.instants, 1);
        assert!(json.contains("\"bytes\": 1234"));
        assert!(json.contains("\"epoch\": 7"));
        assert!(json.contains("rank 3"));
    }

    #[test]
    fn ring_spills_to_sink_when_full() {
        let _g = lock();
        set_enabled(true);
        let _ = drain();
        for _ in 0..(RING_CAP + 10) {
            let _s = span("t", "x");
        }
        set_enabled(false);
        let events = drain();
        assert_eq!(events.len(), RING_CAP + 10);
    }

    #[test]
    fn rank_threads_flush_on_exit() {
        let _g = lock();
        set_enabled(true);
        let _ = drain();
        std::thread::scope(|s| {
            for r in 0..4 {
                s.spawn(move || {
                    set_thread_rank(r);
                    drop(span("comm", "send").attr("bytes", r as u64));
                    // What a rank body does on exit; the scope does not
                    // wait for the ring's TLS destructor.
                    flush_thread();
                });
            }
        });
        set_enabled(false);
        let events = drain();
        assert_eq!(events.len(), 4);
        let mut ranks: Vec<i32> = events.iter().map(|e| e.rank).collect();
        ranks.sort_unstable();
        assert_eq!(ranks, vec![0, 1, 2, 3]);
        validate_chrome_trace(&chrome_trace_json(&events)).expect("valid");
    }

    #[test]
    fn validator_rejects_broken_traces() {
        // Not JSON.
        assert!(validate_chrome_trace("nope").is_err());
        // Unmatched B.
        let bad = r#"{"traceEvents": [
            {"name": "a", "ph": "B", "ts": 1, "pid": 1, "tid": 0}
        ]}"#;
        assert!(validate_chrome_trace(bad).unwrap_err().contains("unclosed"));
        // Mismatched pair.
        let bad = r#"{"traceEvents": [
            {"name": "a", "ph": "B", "ts": 1, "pid": 1, "tid": 0},
            {"name": "b", "ph": "E", "ts": 2, "pid": 1, "tid": 0}
        ]}"#;
        assert!(validate_chrome_trace(bad)
            .unwrap_err()
            .contains("mismatched"));
        // Non-monotone timestamps.
        let bad = r#"{"traceEvents": [
            {"name": "a", "ph": "B", "ts": 5, "pid": 1, "tid": 0},
            {"name": "a", "ph": "E", "ts": 4, "pid": 1, "tid": 0}
        ]}"#;
        assert!(validate_chrome_trace(bad).unwrap_err().contains("monotone"));
        // E with nothing open.
        let bad = r#"{"traceEvents": [
            {"name": "a", "ph": "E", "ts": 1, "pid": 1, "tid": 0}
        ]}"#;
        assert!(validate_chrome_trace(bad)
            .unwrap_err()
            .contains("no open B"));
        // Good minimal trace.
        let good = r#"{"traceEvents": [
            {"name": "a", "ph": "B", "ts": 1, "pid": 1, "tid": 0},
            {"name": "a", "ph": "E", "ts": 2, "pid": 1, "tid": 0}
        ]}"#;
        let sum = validate_chrome_trace(good).expect("valid");
        assert_eq!(sum.spans, 1);
        assert_eq!(sum.events, 2);
    }
}
