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
//!
//! A batch builds several update matrices (`A*` and its flipped copy, `B*`,
//! the MERGE / MASK / pattern matrices of a general batch). They share the
//! exchange as **lanes** of [`redistribute_lanes`]: one `ALLTOALLV` per
//! phase whose per-destination chunk holds one tuple vector per lane, so the
//! message count of a batch is `2·p·(√p − 1)` however many matrices it
//! builds. On the wire a chunk is a vector of [`TalliedLane`]s, one per lane:
//! each lane bit-packs its indices against the least row and column it holds
//! and keeps its tuples in the order the partition left them, so what arrives
//! is exactly the sequence that was sent.
//!
//! A **counted** lane (a [`Route`] with `counted`) also carries a tally in
//! every chunk: in the row phase the number of tuples its sender submitted,
//! in the column phase the sum of the tallies its sender received, which is
//! its grid column's total. So every rank leaves the exchange knowing the
//! lane's global tuple count, with no message of its own — the count a batch
//! needs to skip an update matrix that is empty everywhere. An uncounted
//! lane's chunks are the bare lane's bytes.

use crate::grid::{owner_block, Grid};
use dspgemm_sparse::{Index, TalliedLane, Triple, TripleLane};
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

/// Routes every tuple to the rank owning its `(row, col)` position under the
/// grid's uniform 2D block distribution of an `nrows × ncols` matrix: the
/// one-lane call of [`redistribute_lanes`], uncounted. Returns this rank's
/// tuples (still globally indexed). Phase durations are accumulated into
/// `timer`.
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
    let route = Route {
        nrows,
        ncols,
        counted: false,
    };
    let mut lanes = redistribute_lanes(grid, &[route], vec![tuples], timer);
    lanes.pop().expect("one lane in, one lane out").tuples
}

/// How one lane of [`redistribute_lanes`] travels.
#[derive(Debug, Clone, Copy)]
pub struct Route {
    /// Global row count of the matrix whose block owners receive the lane.
    pub nrows: Index,
    /// Global column count of that matrix.
    pub ncols: Index,
    /// Whether the lane's chunks carry its tally, so that every rank learns
    /// the lane's global tuple count.
    pub counted: bool,
}

/// One lane as [`redistribute_lanes`] delivers it to this rank.
#[derive(Debug, Clone, PartialEq)]
pub struct Routed<V> {
    /// This rank's tuples of the lane, still globally indexed.
    pub tuples: Vec<Triple<V>>,
    /// A counted lane's global tuple count: how many tuples all ranks
    /// submitted to it. `None` for an uncounted lane.
    pub count: Option<u64>,
}

/// Routes `lanes.len()` tuple sets through **one** two-phase exchange: lane
/// `l` routes to the block owners of a `routes[l].nrows × routes[l].ncols`
/// matrix, and each `ALLTOALLV` message carries one vector per lane, so a
/// batch that builds several update matrices — `A*`, its flipped copy
/// routed as an `ncols × nrows` matrix, `B*`, … — still sends
/// `2·p·(√p − 1)` messages in all. Returns this rank's tuples per lane,
/// still globally indexed, and each counted lane's global count.
///
/// The partitioning is stable and the per-source chunks are concatenated in
/// source order, lane by lane, so every lane arrives as the exact sequence
/// a [`redistribute`] of that lane alone returns — duplicates fold in the
/// same order whatever shares the exchange. Collective over the grid (same
/// lanes, counted alike, on every rank).
pub fn redistribute_lanes<V>(
    grid: &Grid,
    routes: &[Route],
    lanes: Vec<Vec<Triple<V>>>,
    timer: &mut PhaseTimer,
) -> Vec<Routed<V>>
where
    V: Copy + Send + Sync + WireSize + WireDecode + 'static,
{
    let q = grid.q();
    assert_eq!(routes.len(), lanes.len(), "one route per lane");
    let lanes = (lanes.into_iter().zip(routes))
        .map(|(tuples, route)| Routed {
            count: route.counted.then_some(tuples.len() as u64),
            tuples,
        })
        .collect();
    // Phase 1: to the correct grid row, exchanging within my grid column.
    let chunks = timer.time(phase::REDIST_SORT, || {
        partition_lanes(lanes, q, |l, t| owner_block(routes[l].nrows, q, t.row).0)
    });
    let received = timer.time(phase::REDIST_COMM, || grid.col_comm().alltoallv(chunks));
    let lanes = timer.time(phase::MEM_MANAGEMENT, || {
        concat_lanes(received, routes.len())
    });
    // Phase 2: to the correct grid column, exchanging within my grid row.
    let chunks = timer.time(phase::REDIST_SORT, || {
        partition_lanes(lanes, q, |l, t| owner_block(routes[l].ncols, q, t.col).0)
    });
    let received = timer.time(phase::REDIST_COMM, || grid.row_comm().alltoallv(chunks));
    timer.time(phase::MEM_MANAGEMENT, || {
        concat_lanes(received, routes.len())
    })
}

/// Counting-sorts every lane by destination and regroups the buckets as one
/// chunk per destination holding one [`TalliedLane`] per lane, each with
/// the count this rank knows of its lane — the `ALLTOALLV` payload of
/// [`redistribute_lanes`].
fn partition_lanes<V>(
    lanes: Vec<Routed<V>>,
    buckets: usize,
    mut key: impl FnMut(usize, &Triple<V>) -> usize,
) -> Vec<Vec<TalliedLane<V>>> {
    let mut out: Vec<Vec<TalliedLane<V>>> = (0..buckets)
        .map(|_| Vec::with_capacity(lanes.len()))
        .collect();
    for (l, Routed { tuples, count }) in lanes.into_iter().enumerate() {
        for (chunk, dst) in partition_by(tuples, buckets, |t| key(l, t))
            .into_iter()
            .zip(&mut out)
        {
            dst.push(TalliedLane {
                lane: TripleLane(chunk),
                tally: count,
            });
        }
    }
    out
}

/// Concatenates the received `[source][lane]` chunks lane by lane, in source
/// order, and sums each counted lane's tallies.
fn concat_lanes<V>(received: Vec<Vec<TalliedLane<V>>>, lanes: usize) -> Vec<Routed<V>> {
    assert!(
        received.iter().all(|src| src.len() == lanes),
        "every rank routes the same lanes"
    );
    let mut out: Vec<Routed<V>> = (0..lanes)
        .map(|l| Routed {
            tuples: Vec::with_capacity(received.iter().map(|src| src[l].lane.0.len()).sum()),
            count: None,
        })
        .collect();
    for src in received {
        for (routed, chunk) in out.iter_mut().zip(src) {
            routed.tuples.extend(chunk.lane.0);
            if let Some(tally) = chunk.tally {
                *routed.count.get_or_insert(0) += tally;
            }
        }
    }
    out
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
        // A non-square matrix with fewer columns than grid columns: the
        // last column stripe is zero-width, and every tuple must land on
        // the rank whose block ranges contain it.
        let (nrows, ncols): (Index, Index) = (31, 2);
        let out = run(9, move |comm| {
            let grid = Grid::new(comm);
            let q = grid.q();
            let mine: Vec<Triple<u64>> = (0..nrows)
                .flat_map(|r| (0..ncols).map(move |c| Triple::new(r, c, (r * ncols + c) as u64)))
                .filter(|t| (t.val as usize) % comm.size() == comm.rank())
                .collect();
            let mut timer = PhaseTimer::new();
            let got = redistribute(&grid, nrows, ncols, mine, &mut timer);
            let (i, j) = grid.coords();
            let rr = crate::grid::block_range(nrows, q, i);
            let cr = crate::grid::block_range(ncols, q, j);
            for t in &got {
                assert!(rr.contains(&t.row) && cr.contains(&t.col));
                assert_eq!(t.val, (t.row * ncols + t.col) as u64);
            }
            if cr.is_empty() {
                assert!(got.is_empty(), "a zero-width block receives nothing");
            }
            got.len()
        });
        let total: usize = out.results.iter().sum();
        assert_eq!(
            total,
            (nrows * ncols) as usize,
            "no tuple lost or duplicated"
        );
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
