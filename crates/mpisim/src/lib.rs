//! # dspgemm-mpi — an in-process MPI-like message-passing runtime
//!
//! The paper targets MPI on a 16-node cluster. This crate substitutes a
//! faithful in-process simulator: each *rank* is an OS thread, point-to-point
//! messages and collectives follow MPI semantics (source/tag matching,
//! communicator isolation, `split` for row/column sub-communicators), and
//! every transfer is metered so experiments can report exact communication
//! volume per rank and per category — the quantity the paper's algorithms
//! optimize.
//!
//! ## What is faithful
//! * **Semantics**: blocking `send`/`recv` with source+tag matching and
//!   non-overtaking order per (source, tag); collectives (barrier, bcast,
//!   gather/allgather, alltoallv, reduce/allreduce, merge-reduce) with the
//!   same call-order contract as MPI (SPMD: all ranks of a communicator call
//!   the same collectives in the same order); nonblocking operations
//!   (`irecv`/`ibcast_shared`/`ialltoallv` returning [`Request`] handles
//!   with `wait`/`test`; sends are buffered, so `send` already completes at
//!   issue) whose progress happens inside blocking and polling calls,
//!   mirroring MPI's no-progress-thread model.
//! * **Cost structure**: message *counts* and *byte volumes* are exactly what
//!   a real MPI run would transfer (computed via [`dspgemm_util::WireSize`]);
//!   collective algorithms use the textbook trees (binomial bcast/reduce, ring
//!   allgather), so latency in units of communication rounds matches the
//!   paper's analysis (`O(sqrt(p) log p)` for the SpGEMM algorithms).
//!   [`CommStats`] is the only thing the network counts, and both
//!   transports report it.
//! * **Failure behaviour**: a panicking rank poisons the network so peers
//!   fail fast instead of deadlocking.
//!
//! ## What is simulated
//! Payloads move by pointer, not by copying through a NIC, so absolute
//! transfer times are optimistic. All performance claims in the reproduction
//! are therefore *relative* (algorithm A vs. algorithm B under identical
//! simulation), mirroring how the paper reports its results, and are
//! accompanied by measured communication volumes.
//!
//! ## Example
//! ```
//! use dspgemm_mpi::{run, CommCategory};
//!
//! let sim = run(4, |comm| {
//!     // Everyone contributes rank*10; allreduce sums it.
//!     comm.allreduce(comm.rank() as u64 * 10, |a, b| a + b)
//! });
//! assert_eq!(sim.results, vec![60, 60, 60, 60]);
//! assert!(sim.stats.total_bytes() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod comm;
mod fault;
mod message;
mod network;
mod request;
mod runtime;
mod stats;
#[cfg(feature = "tcp-transport")]
pub mod tcp;
mod transport;

pub use comm::Comm;
pub use fault::{catch_comm, catch_comm_mut, CommError, DelaySpec, FaultPlan};
pub use message::Tag;
pub use request::{Overlap, Request};
pub use runtime::{run, run_with_faults, SimOutput};
pub use stats::{CommCategory, CommStats, RankCommStats, NUM_CATEGORIES};
