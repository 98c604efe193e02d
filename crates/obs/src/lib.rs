//! # dspgemm-obs — unified tracing for the dspgemm workspace
//!
//! One observability channel for every layer:
//!
//! * **[`trace`]** — a span tracer with thread-local ring buffers recording
//!   `(rank, phase, span, t_start, t_end, attrs)` and a Chrome
//!   `trace_event` exporter, so any `repro` run can emit a timeline
//!   openable in `chrome://tracing` / Perfetto. Spans and instants carry
//!   every number the layer records; there is no second, process-global
//!   metrics store. Zero-cost when disabled: one relaxed atomic load, no
//!   clock reads, nothing recorded.
//! * **[`json`]** — the dependency-free JSON writer/parser backing the
//!   exporter and the chrome-trace schema validator (the workspace builds
//!   fully offline; there is no serde).
//!
//! No percentile lives here: the benchmarks keep their few dozen samples
//! and take exact order statistics of them (`dspgemm_bench::measure`).
//!
//! This crate is deliberately **std-only with no workspace dependencies**,
//! so every other crate — the simulator, the engine, the analytics
//! session, the benches — can use it directly.
//!
//! ## Span taxonomy
//!
//! Phases (chrome-trace categories) are dot-free lowercase nouns:
//!
//! | phase    | spans / instants                                         |
//! |----------|----------------------------------------------------------|
//! | `comm`   | `send`, `recv`, `bcast`, `gather`, `allgather`, `alltoallv`, `reduce`, `barrier`; request waits `irecv`, `ibcast`, `ibcast_shared`, `ialltoallv`; instants `simulated_crash`, `peer_failed` — attrs: `bytes`; waits `window_ns`, `exposed_ns`, `overlapped_ns`, `timed_out`; instants `rank`, `detect_ns` |
//! | `engine` | `redistribute`, `apply_algebraic`, `apply_general`, `recompute`, `migrate`, `anchor_refresh`, `recover`; instants `epoch_publish`, `migrated` — attrs: `updates`, `lanes`, `published`, `failed_rank`, `replayed_batches`, `rollback_epochs`, `detect_ns`, `rebuild_bytes`, `replacement`; `epoch`, `flops`, `bytes`, `moved_in`, and per operand `patched_*`, `rebuilt_*`, `touched_nnz_*`, `image_nnz_*` |
//! | `round`  | `round` (one per SUMMA/pipeline round) — attrs: `round`   |
//! | `query`  | `global_nnz`, `product_entry`, `product_aggregate`, `product_row_topk` — attrs: `staleness` |
//!
//! ## Quick example
//!
//! ```
//! dspgemm_obs::set_enabled(true);
//! {
//!     let _s = dspgemm_obs::span("comm", "send").attr("bytes", 4096);
//!     // ... the traced work ...
//! }
//! dspgemm_obs::set_enabled(false);
//! let events = dspgemm_obs::drain();
//! let json = dspgemm_obs::chrome_trace_json(&events);
//! dspgemm_obs::validate_chrome_trace(&json).expect("schema-valid trace");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod trace;

pub use trace::{
    chrome_trace_json, clear_thread_rank, drain, enabled, flush_thread, instant, set_enabled,
    set_thread_rank, span, validate_chrome_trace, validate_chrome_trace_file, write_chrome_trace,
    EventKind, Span, SpanEvent, TraceSummary,
};
