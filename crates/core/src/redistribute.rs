//! Two-phase update redistribution (Section IV-B).
//!
//! MPI processes generate update tuples `(i, j, x)` "independently and
//! without knowledge of the distribution of data across the MPI process
//! grid". Routing a tuple to the owner of block `(bi, bj)` takes two phases:
//!
//! 1. **row phase** — exchange across the rows of the grid (inside each
//!    *column* communicator), grouping tuples by destination grid row `bi`
//!    with a **counting sort over √p buckets**;
//! 2. **column phase** — exchange across the columns (inside each *row*
//!    communicator), grouping by destination grid column `bj`.
//!
//! Each `ALLTOALLV` involves only √p ranks and each counting sort only √p
//! buckets — the paper's stated advantage over the comparison-sort +
//! global-alltoall redistribution of CombBLAS/CTF (measured by
//! `repro ablation-redist`).

use crate::grid::Grid;
use crate::layout::Layout;
use crate::pipeline::await_into_phase;
use dspgemm_mpi::Request;
use dspgemm_sparse::{Index, Triple};
use dspgemm_util::stats::PhaseTimer;
use dspgemm_util::{WireDecode, WireSize};

/// Phase-name constants for the Fig. 7 breakdown.
pub mod phase {
    /// Counting sorts grouping tuples by destination.
    pub const REDIST_SORT: &str = "redist. sort";
    /// The two `ALLTOALLV` exchanges.
    pub const REDIST_COMM: &str = "redist. comm.";
    /// Buffer allocation / assembly of received tuples.
    pub const MEM_MANAGEMENT: &str = "mem. management";
    /// Building the local update matrix (DCSR).
    pub const LOCAL_CONSTRUCT: &str = "local construct.";
    /// Applying the update matrix to the local dynamic block.
    pub const LOCAL_ADDITION: &str = "local addition";
}

/// The in-flight first half of a [`redistribute`]: the row-phase
/// `IALLTOALLV` has been issued (its sends are on the wire and progress
/// under whatever the caller does next) but not yet awaited. Produced by
/// [`redistribute_start_in`], consumed by [`redistribute_finish_in`].
///
/// The split is what lets an update batch issue the row phases of all its
/// builds (`A*`, `B*`, and their transposed layouts) before completing any.
pub(crate) struct InflightRedist<V: Copy + Send + Sync + WireSize + WireDecode + 'static> {
    req: Request<Vec<Vec<Triple<V>>>>,
}

/// Routes every tuple to the rank owning its `(row, col)` position under the
/// grid's uniform 2D block distribution of an `nrows × ncols` matrix.
/// Returns this rank's tuples (still globally indexed). Phase durations are
/// accumulated into `timer`.
pub fn redistribute<V>(
    grid: &Grid,
    nrows: Index,
    ncols: Index,
    tuples: Vec<Triple<V>>,
    timer: &mut PhaseTimer,
) -> Vec<Triple<V>>
where
    V: Copy + Send + Sync + WireSize + WireDecode + 'static,
{
    redistribute_in(
        grid,
        &Layout::uniform(nrows, ncols, grid.q()),
        tuples,
        timer,
    )
}

/// Issues the first (row) phase of the two-phase redistribution
/// nonblocking: counting-sorts the tuples by destination grid row under the
/// cut points of `layout` and starts the column-communicator `IALLTOALLV`.
/// Collective over the grid (every rank must issue in the same order);
/// complete with [`redistribute_finish_in`].
pub(crate) fn redistribute_start_in<V>(
    grid: &Grid,
    layout: &Layout,
    tuples: Vec<Triple<V>>,
    timer: &mut PhaseTimer,
) -> InflightRedist<V>
where
    V: Copy + Send + Sync + WireSize + WireDecode + 'static,
{
    let q = grid.q();
    debug_assert_eq!(layout.q(), q, "layout must target the grid side");
    let chunks = timer.time(phase::REDIST_SORT, || {
        partition_by(tuples, q, |t| layout.row_owner(t.row).0)
    });
    InflightRedist {
        req: grid.col_comm().ialltoallv(chunks),
    }
}

/// Completes a redistribution started with [`redistribute_start_in`]:
/// awaits the row phase (blocked time goes into [`phase::REDIST_COMM`]
/// exposed, compute-hidden time into its overlapped share) and runs the
/// second (column) phase. Returns this rank's tuples, still globally
/// indexed.
pub(crate) fn redistribute_finish_in<V>(
    grid: &Grid,
    layout: &Layout,
    inflight: InflightRedist<V>,
    timer: &mut PhaseTimer,
) -> Vec<Triple<V>>
where
    V: Copy + Send + Sync + WireSize + WireDecode + 'static,
{
    let q = grid.q();
    debug_assert_eq!(layout.q(), q, "layout must target the grid side");
    let received = await_into_phase(inflight.req, timer, phase::REDIST_COMM);
    let tuples: Vec<Triple<V>> = timer.time(phase::MEM_MANAGEMENT, || {
        let total = received.iter().map(Vec::len).sum();
        let mut v = Vec::with_capacity(total);
        for chunk in received {
            v.extend(chunk);
        }
        v
    });
    // Phase 2: to the correct grid column, exchanging within my grid row.
    let chunks = timer.time(phase::REDIST_SORT, || {
        partition_by(tuples, q, |t| layout.col_owner(t.col).0)
    });
    let received = timer.time(phase::REDIST_COMM, || grid.row_comm().alltoallv(chunks));
    timer.time(phase::MEM_MANAGEMENT, || {
        let total = received.iter().map(Vec::len).sum();
        let mut v = Vec::with_capacity(total);
        for chunk in received {
            v.extend(chunk);
        }
        v
    })
}

/// Routes every tuple to the rank owning its `(row, col)` position under the
/// explicit cut points of `layout`: the nonblocking row phase and its
/// completion, back to back.
pub fn redistribute_in<V>(
    grid: &Grid,
    layout: &Layout,
    tuples: Vec<Triple<V>>,
    timer: &mut PhaseTimer,
) -> Vec<Triple<V>>
where
    V: Copy + Send + Sync + WireSize + WireDecode + 'static,
{
    let inflight = redistribute_start_in(grid, layout, tuples, timer);
    redistribute_finish_in(grid, layout, inflight, timer)
}

/// The counting-sort distribution pass: one counting pass for exact bucket
/// capacities, one scatter pass into per-bucket vectors. `O(n + buckets)`,
/// no comparisons — the paper's alternative to the competitors' comparison
/// sort.
fn partition_by<T>(items: Vec<T>, buckets: usize, mut key: impl FnMut(&T) -> usize) -> Vec<Vec<T>> {
    let offsets = dspgemm_util::sort::bucket_offsets(&items, buckets, &mut key);
    let mut out: Vec<Vec<T>> = (0..buckets)
        .map(|b| Vec::with_capacity(offsets[b + 1] - offsets[b]))
        .collect();
    for it in items {
        let k = key(&it);
        out[k].push(it);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dspgemm_mpi::run;

    #[test]
    fn partition_by_groups_and_preserves_order() {
        let v = vec![3, 1, 2, 1, 3, 3];
        let chunks = partition_by(v, 4, |&x| x as usize);
        assert_eq!(chunks, vec![vec![], vec![1, 1], vec![2], vec![3, 3, 3]]);
        // Empty input.
        let chunks = partition_by(Vec::<u32>::new(), 3, |&x| x as usize);
        assert_eq!(chunks, vec![vec![], vec![], vec![]]);
    }

    #[test]
    fn every_tuple_reaches_its_owner() {
        let n: Index = 37;
        for p in [1usize, 4, 9] {
            let out = run(p, move |comm| {
                let grid = Grid::new(comm);
                let q = grid.q();
                // Each rank contributes tuples covering the whole index
                // space, tagged with origin.
                let mine: Vec<Triple<u64>> = (0..n)
                    .flat_map(|r| (0..n).map(move |c| Triple::new(r, c, (r * n + c) as u64)))
                    .filter(|t| (t.val as usize) % comm.size() == comm.rank())
                    .collect();
                let mut timer = PhaseTimer::new();
                let got = redistribute(&grid, n, n, mine, &mut timer);
                // Everything I received belongs to my block.
                let (i, j) = grid.coords();
                let rr = crate::grid::block_range(n, q, i);
                let cr = crate::grid::block_range(n, q, j);
                for t in &got {
                    assert!(rr.contains(&t.row) && cr.contains(&t.col));
                    assert_eq!(t.val, (t.row * n + t.col) as u64);
                }
                got.len()
            });
            let total: usize = out.results.iter().sum();
            assert_eq!(
                total,
                (n * n) as usize,
                "p={p}: no tuple lost or duplicated"
            );
        }
    }

    #[test]
    fn layout_routing_matches_ownership() {
        // Deliberately skewed cuts, including a narrow middle stripe: every
        // tuple must land on the rank whose layout ranges contain it.
        let n: Index = 30;
        let out = run(9, move |comm| {
            let grid = Grid::new(comm);
            let layout = Layout::square(vec![0, 3, 5, n]);
            let mine: Vec<Triple<u64>> = (0..n)
                .flat_map(|r| (0..n).map(move |c| Triple::new(r, c, (r * n + c) as u64)))
                .filter(|t| (t.val as usize) % comm.size() == comm.rank())
                .collect();
            let mut timer = PhaseTimer::new();
            let got = redistribute_in(&grid, &layout, mine, &mut timer);
            let (i, j) = grid.coords();
            let (rr, cr) = (layout.row_range(i), layout.col_range(j));
            for t in &got {
                assert!(rr.contains(&t.row) && cr.contains(&t.col));
                assert_eq!(t.val, (t.row * n + t.col) as u64);
            }
            got.len()
        });
        let total: usize = out.results.iter().sum();
        assert_eq!(total, (n * n) as usize, "no tuple lost or duplicated");
    }

    #[test]
    fn communication_is_alltoall_category() {
        let out = run(4, |comm| {
            let grid = Grid::new(comm);
            let mine: Vec<Triple<u64>> = (0..100)
                .map(|k| Triple::new(k % 10, (k * 7) % 10, k as u64))
                .collect();
            let mut timer = PhaseTimer::new();
            redistribute(&grid, 10, 10, mine, &mut timer).len()
        });
        assert!(out.stats.bytes_in(dspgemm_mpi::CommCategory::Alltoall) > 0);
        assert_eq!(out.stats.bytes_in(dspgemm_mpi::CommCategory::Bcast), 0);
    }

    #[test]
    fn empty_input_everywhere() {
        let out = run(4, |comm| {
            let grid = Grid::new(comm);
            let mut timer = PhaseTimer::new();
            redistribute::<u64>(&grid, 10, 10, vec![], &mut timer).len()
        });
        assert!(out.results.iter().all(|&l| l == 0));
    }
}
