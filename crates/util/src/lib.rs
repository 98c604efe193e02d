//! # dspgemm-util
//!
//! Shared low-level utilities for the `dspgemm` workspace:
//!
//! * [`hash`] — a fast, non-cryptographic hasher (FxHash-style) plus hash-map
//!   aliases used throughout the hot paths (per-row column tables, sparse
//!   accumulators, mask lookups).
//! * [`rng`] — deterministic pseudo-random number generation (SplitMix64 and
//!   Xoshiro256**) with uniform-range sampling and shuffles. Every experiment
//!   in the reproduction is seeded, so we avoid OS entropy in library code.
//! * [`sort`] — counting sort and LSD radix sort. The paper's redistribution
//!   (Section IV-B) explicitly relies on counting sort with `sqrt(p)` buckets
//!   instead of comparison sorting.
//! * [`stats`] — per-phase wall-time breakdowns and human-readable
//!   formatting used by the benchmark harness.
//! * [`wire`] — the wire codec: [`wire::WireEncode`] is the one description
//!   of a type's packed form and [`wire::WireDecode`] its inverse, which the
//!   real TCP transport moves bytes with. The simulator moves values in memory
//!   but meters exact communication volume through [`wire::WireSize`] — the
//!   same encoder run into a byte counter.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hash;
pub mod rng;
pub mod sort;
pub mod stats;
pub mod wire;

pub use hash::{FxBuildHasher, FxHashMap, FxHashSet};
pub use rng::{Rng, SplitMix64, Xoshiro256};
pub use stats::PhaseTimer;
pub use wire::{
    decode_from_slice, encode_to_vec, ByteCount, WireBytes, WireDecode, WireEncode, WireError,
    WireReader, WireSink, WireSize,
};
