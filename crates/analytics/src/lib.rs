//! # dspgemm-analytics — dynamic graph-analytics views on the SpGEMM engine
//!
//! The paper motivates dynamic SpGEMM with graph-mining kernels that must
//! stay fresh under streaming edge updates. This crate turns the engine into
//! a *serving layer* for that scenario: an [`AnalyticsSession`] is a
//! `dspgemm-core` engine in shared mode — one distributed dynamic adjacency
//! matrix `A` and the maintained product `C = A·A` — whose observer is a
//! registry of [`View`]s, all fed from a **single shared update batch** —
//! one redistribution, one dynamic-SpGEMM pass, one change feed, however
//! many views. Being the engine, a session also takes its recovery.
//!
//! * [`session`] — the session object: the engine, its view registry, and
//!   the query API (point lookups, per-row top-k, global aggregates) —
//!   every query served from the latest published epoch.
//! * [`snapshot`] — pinned epochs ([`SessionSnapshot`]): the engine's
//!   immutable `{A, C, epoch}` plus every view's frozen reading, published
//!   after every committed batch, so readers query bit-stable state while
//!   batches keep draining.
//! * [`view`] — the [`View`] trait and the shared batch/delta types.
//! * [`views`] — the built-in views: [`TriangleCountView`] (incremental
//!   masked-sum triangle counting), [`CommonNeighborsView`]
//!   (link-prediction scores over a candidate set, read from the maintained
//!   product), and [`DegreeView`] (row aggregates over the distributed SpMV
//!   kernel).
//!
//! ## Quickstart
//!
//! ```
//! use dspgemm_analytics::{AnalyticsSession, TriangleCountView};
//! use dspgemm_sparse::semiring::U64Plus;
//! use dspgemm_sparse::Triple;
//!
//! let out = dspgemm_mpi::run(4, |comm| {
//!     // A 4-vertex graph, fed from rank 0 (any rank may contribute).
//!     let edges = |list: &[(u32, u32)]| -> Vec<Triple<u64>> {
//!         if comm.rank() == 0 {
//!             list.iter().flat_map(|&(u, v)| {
//!                 [Triple::new(u, v, 1), Triple::new(v, u, 1)]
//!             }).collect()
//!         } else {
//!             vec![]
//!         }
//!     };
//!     let mut session = AnalyticsSession::<U64Plus>::from_triples(
//!         comm, 4, 1, edges(&[(0, 1), (1, 2), (0, 2)]));
//!     let tri = session.register(Box::new(TriangleCountView::new()));
//!     // One triangle so far; a second one appears dynamically.
//!     let before = session.view_as::<TriangleCountView>(tri).unwrap().count();
//!     session.insert_edges(edges(&[(2, 3), (0, 3)]));
//!     let after = session.view_as::<TriangleCountView>(tri).unwrap().count();
//!     (before, after)
//! });
//! assert!(out.results.iter().all(|&r| r == (1, 2)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod session;
pub mod snapshot;
pub mod view;
pub mod views;

pub use session::{AnalyticsSession, SessionEngine, ViewRegistry};
pub use snapshot::SessionSnapshot;
pub use view::{BatchDelta, FrozenView, PendingBatch, View, ViewCx, ViewId};
pub use views::common_neighbors::ScoreReading;
pub use views::triangles::TriangleReading;
pub use views::vector::VectorReading;
pub use views::{CommonNeighborsView, DegreeView, TriangleCountView};
