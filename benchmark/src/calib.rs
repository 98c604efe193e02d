//! The calibration round: fixed work, owned by the benchmark, that every
//! sampled round's latency is divided by.
//!
//! The shared host this benchmark runs on changes speed by up to 1.7 x for
//! minutes at a time, memory-bound and register-bound code alike, and no
//! run is long enough to average that out. So the gated latency is
//! relative: a sampled round's wall time over the wall time of the
//! calibration round run right after it, by the same ranks on the same
//! cores between the same kind of fences. What slows the host slows both.
//!
//! The kernel mixes what a batch bottoms out in: drawing tuples, a
//! comparison sort, hashed scatter and gather over a table larger than the
//! private caches, and allocating and filling buffers. Of nine candidate
//! kernels timed beside the four workloads across host speed changes, these
//! three tracked the rounds most closely; streaming reads, plain copies and
//! register-only loops tracked them worst. It calls nothing of the
//! repository but the fence, so no later change can move it.

use crate::api::{self, Comm};
use std::time::Instant;

/// Table words per rank: 16 MiB, past the private caches.
const TABLE: usize = 1 << 21;
/// Keys drawn, sorted and hashed per slice.
const KEYS: usize = 12_288;
/// Buffers allocated and filled per slice, and their length in words.
const BUFFERS: usize = 4;
const BUFFER: usize = 64 << 10;
/// Slices per round, a fence after each: a batch has several collectives.
const SLICES: usize = 4;

pub struct Calib {
    table: Vec<u64>,
    x: u64,
    /// Keeps the optimiser from dropping the kernel.
    pub sink: u64,
}

impl Calib {
    pub fn new(rank: usize) -> Self {
        Self {
            table: vec![1; TABLE],
            x: 0x9e37_79b9_7f4a_7c15 ^ (rank as u64 + 1),
            sink: 0,
        }
    }

    fn draw(&mut self) -> u64 {
        self.x ^= self.x << 13;
        self.x ^= self.x >> 7;
        self.x ^= self.x << 17;
        self.x
    }

    fn slice(&mut self) {
        let mut keys: Vec<u64> = (0..KEYS).map(|_| self.draw()).collect();
        keys.sort_unstable();
        let mask = TABLE - 1;
        let mut acc = keys[KEYS / 2];
        for _ in 0..KEYS {
            let h = self.draw().wrapping_mul(0xff51_afd7_ed55_8ccd);
            self.table[(h >> 20) as usize & mask] += h & 0xff;
            acc = acc.wrapping_add(self.table[(h >> 41) as usize & mask]);
        }
        for _ in 0..BUFFERS {
            let filled = vec![acc; BUFFER];
            acc = acc.wrapping_add(std::hint::black_box(&filled)[BUFFER / 2]);
        }
        self.sink = self.sink.wrapping_add(acc);
    }

    /// One calibration round, timed like a workload round: opening fence,
    /// `t0`, the slices, closing fence, `t1`. Returns milliseconds.
    pub fn round(&mut self, comm: &Comm) -> f64 {
        api::barrier(comm);
        let t0 = Instant::now();
        for _ in 0..SLICES {
            self.slice();
            api::barrier(comm);
        }
        t0.elapsed().as_secs_f64() * 1e3
    }
}
