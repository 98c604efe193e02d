//! The 2D process grid and the block distribution of index space.
//!
//! Matrices are distributed over a `√p × √p` grid: rank `r` sits at grid
//! coordinates `(r / √p, r % √p)` and owns the block at that position
//! (Section IV). Row and column communicators — the communication domains of
//! SUMMA-style algorithms — are created once per grid via `split`.

use dspgemm_mpi::Comm;
use dspgemm_sparse::Index;
use std::ops::Range;

/// A square process grid with row/column sub-communicators.
pub struct Grid {
    /// Communicator over all `q*q` grid members (a private `dup`).
    world: Comm,
    /// Communicator over this rank's grid row (members ordered by column).
    row_comm: Comm,
    /// Communicator over this rank's grid column (members ordered by row).
    col_comm: Comm,
    q: usize,
    i: usize,
    j: usize,
}

impl Grid {
    /// Builds the grid from a communicator whose size is a perfect square.
    ///
    /// # Panics
    /// Panics if `comm.size()` is not a perfect square (the same restriction
    /// CombBLAS imposes and the paper adopts).
    pub fn new(comm: &Comm) -> Self {
        let p = comm.size();
        let q = (p as f64).sqrt().round() as usize;
        assert_eq!(
            q * q,
            p,
            "process count {p} is not a perfect square; a square grid is required"
        );
        let world = comm.dup();
        let rank = world.rank();
        let (i, j) = (rank / q, rank % q);
        let row_comm = world.split(i as u64, j as u64);
        let col_comm = world.split((q + j) as u64, i as u64);
        Self {
            world,
            row_comm,
            col_comm,
            q,
            i,
            j,
        }
    }

    /// Grid side length `√p`.
    #[inline]
    pub fn q(&self) -> usize {
        self.q
    }

    /// Total ranks `p = q²`.
    #[inline]
    pub fn p(&self) -> usize {
        self.q * self.q
    }

    /// This rank's grid coordinates `(i, j)`.
    #[inline]
    pub fn coords(&self) -> (usize, usize) {
        (self.i, self.j)
    }

    /// The grid-wide communicator.
    #[inline]
    pub fn world(&self) -> &Comm {
        &self.world
    }

    /// This rank's row communicator (rank within = grid column `j`).
    #[inline]
    pub fn row_comm(&self) -> &Comm {
        &self.row_comm
    }

    /// This rank's column communicator (rank within = grid row `i`).
    #[inline]
    pub fn col_comm(&self) -> &Comm {
        &self.col_comm
    }

    /// World rank of grid position `(i, j)`.
    #[inline]
    pub fn rank_of(&self, i: usize, j: usize) -> usize {
        debug_assert!(i < self.q && j < self.q);
        i * self.q + j
    }

    /// World rank of this rank's transposed position `(j, i)` — the peer of
    /// Algorithm 2's `A^R` exchange.
    #[inline]
    pub fn transpose_rank(&self) -> usize {
        self.rank_of(self.j, self.i)
    }

    /// Advances this rank into the next recovery epoch on every grid
    /// communicator after a detected failure: the endpoint-level advance
    /// (buffered-traffic purge + progress-table clear) runs once through
    /// the world dup, and all three communicators restart their collective
    /// sequences in lockstep. Local; callers must barrier afterwards (see
    /// `dspgemm_mpi::Comm::advance_recovery_epoch`). Returns the new epoch.
    pub fn advance_recovery_epoch(&self) -> u64 {
        let epoch = self.world.advance_recovery_epoch();
        self.row_comm.reset_collective_seq();
        self.col_comm.reset_collective_seq();
        epoch
    }
}

/// Contiguous block decomposition of `0..n` into `q` near-equal ranges:
/// the first `n mod q` blocks get one extra element.
#[inline]
pub fn block_range(n: Index, q: usize, b: usize) -> Range<Index> {
    debug_assert!(b < q);
    let n = n as usize;
    let base = n / q;
    let extra = n % q;
    let lo = b * base + b.min(extra);
    let len = base + usize::from(b < extra);
    (lo as Index)..((lo + len) as Index)
}

/// The block index owning global index `x` under [`block_range`]'s
/// decomposition, plus the offset of that block.
#[inline]
pub fn owner_block(n: Index, q: usize, x: Index) -> (usize, Index) {
    debug_assert!(x < n);
    let n_us = n as usize;
    let x_us = x as usize;
    let base = n_us / q;
    let extra = n_us % q;
    let big = base + 1;
    let b = if x_us < extra * big {
        x_us / big
    } else {
        match (x_us - extra * big).checked_div(base) {
            Some(q) => extra + q,
            // base == 0: all elements live in the first `extra` big blocks.
            None => extra.saturating_sub(1),
        }
    };
    let lo = b * base + b.min(extra);
    (b, lo as Index)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dspgemm_mpi::run;

    #[test]
    fn block_ranges_partition() {
        for n in [0u32, 1, 7, 64, 100, 1023] {
            for q in [1usize, 2, 3, 4, 7] {
                let mut covered = 0u32;
                let mut prev_end = 0u32;
                for b in 0..q {
                    let r = block_range(n, q, b);
                    assert_eq!(r.start, prev_end, "contiguous");
                    covered += r.end - r.start;
                    prev_end = r.end;
                }
                assert_eq!(covered, n);
                assert_eq!(prev_end, n);
            }
        }
    }

    #[test]
    fn owner_block_matches_ranges() {
        for n in [1u32, 7, 64, 100, 1023] {
            for q in [1usize, 2, 3, 4, 7] {
                for x in 0..n {
                    let (b, lo) = owner_block(n, q, x);
                    let r = block_range(n, q, b);
                    assert!(r.contains(&x), "n={n} q={q} x={x}: block {b} range {r:?}");
                    assert_eq!(lo, r.start);
                }
            }
        }
    }

    #[test]
    fn grid_coordinates_and_comms() {
        let out = run(9, |comm| {
            let grid = Grid::new(comm);
            let (i, j) = grid.coords();
            assert_eq!(grid.q(), 3);
            assert_eq!(grid.rank_of(i, j), comm.rank());
            // Row communicator: my rank within is my column.
            assert_eq!(grid.row_comm().rank(), j);
            assert_eq!(grid.row_comm().size(), 3);
            // Column communicator: my rank within is my row.
            assert_eq!(grid.col_comm().rank(), i);
            assert_eq!(grid.col_comm().size(), 3);
            // Row comm sums world ranks of my row: 3i + (0+1+2).
            let s = grid.row_comm().allreduce(comm.rank() as u64, |a, b| a + b);
            assert_eq!(s, (3 * i * 3 + 3) as u64);
            (i, j, grid.transpose_rank())
        });
        assert_eq!(out.results[5], (1, 2, 7)); // rank 5 = (1,2); transpose (2,1) = rank 7.
    }

    #[test]
    #[should_panic(expected = "not a perfect square")]
    fn non_square_rejected() {
        run(3, |comm| {
            let _ = Grid::new(comm);
        });
    }
}
