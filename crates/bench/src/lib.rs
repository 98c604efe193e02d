//! # dspgemm-bench — the experiment harness
//!
//! One function per table/figure of the paper's evaluation (Section VII),
//! callable from the `repro` binary (`cargo run -p dspgemm-bench --release
//! --bin repro -- <experiment>`). Each experiment runs our system and the relevant baselines on identical
//! workloads (same seeds, same permutations — as the paper mandates) and
//! returns a printable [`report::Table`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod measure;
pub mod report;

/// Experiment scale and shape knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct Config {
    /// Catalog scale-down divisor (see `dspgemm_graph::catalog`); smaller =
    /// bigger proxies.
    pub divisor: u64,
    /// Simulated MPI ranks (a positive perfect square: every system runs on
    /// a square grid).
    pub p: usize,
    /// Batches per instance (the paper uses 10).
    pub batches: usize,
    /// Number of catalog instances to run (1..=12, by Table-I order).
    pub instances: usize,
    /// Master seed.
    pub seed: u64,
    /// Per-rank update batch size for the dynamic arms (`overlap`).
    pub batch_size: usize,
}

impl Default for Config {
    /// Defaults sized for a small (2-core) machine: 4 simulated ranks keep
    /// the thread count near the core count, so relative timings between
    /// systems stay meaningful. On a bigger box, raise `--p 16`.
    fn default() -> Self {
        Self {
            divisor: 4096,
            p: 4,
            batches: 10,
            instances: 6,
            seed: 0xD59E_2022,
            batch_size: 4096,
        }
    }
}

impl Config {
    /// A reduced configuration for smoke tests.
    pub fn smoke() -> Self {
        Self {
            divisor: 32768,
            p: 4,
            batches: 2,
            instances: 2,
            seed: 7,
            batch_size: 4096,
        }
    }
}
