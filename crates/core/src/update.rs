//! Dynamic updates: building update matrices and applying them (Section IV-A).
//!
//! The update protocol is exactly the paper's:
//!
//! 1. ranks hold arbitrary update tuples with global indices;
//! 2. [`build_update_matrix`] redistributes them (two-phase counting-sort
//!    alltoall) and assembles this rank's block of the hypersparse update
//!    matrix `A*` in DCSR layout — every block one batch needs (this rank's
//!    own blocks of `A*` and `B*` and the blocks its round roots broadcast,
//!    see [`StarPair`]) is a lane of the same exchange
//!    ([`crate::redistribute::redistribute_lanes_in`]), so a batch pays for
//!    one redistribution;
//! 3. one of the *purely local* application operators finishes the job —
//!    [`apply_add`] (`A += A*`), [`apply_merge`] (`MERGE`), or
//!    [`apply_mask`] (`MASK`) — each one pass over the update's stored
//!    rows.
//!
//! An update matrix empty on this rank is applied as a guaranteed no-op
//! that leaves the dynamic block — and its published image — untouched, so
//! the next published epoch re-shares the block copy-on-write; a non-empty
//! one is logged as the touched pattern the next publish patches the image
//! with (see [`crate::snapshot`]).

use crate::distmat::{DistDcsr, DistMat, Elem};
use crate::grid::Grid;
use crate::layout::{uniform_layout, Layout};
use crate::redistribute::{phase, redistribute_lanes_in};
use dspgemm_sparse::semiring::Semiring;
use dspgemm_sparse::{dhb::DhbRow, Dcsr, DhbMatrix, Index, Triple};
use dspgemm_util::stats::PhaseTimer;
use std::sync::Arc;

/// How duplicate coordinates within one update batch combine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dedup {
    /// Last write wins (MERGE / MASK batches).
    LastWins,
    /// Combine with the semiring addition (algebraic insertion batches).
    Add,
}

/// One lane of a batch's build: the unflipped, globally-indexed tuples of
/// one update matrix and the layout of the matrix it applies to (update
/// matrices always match that layout, possibly rebalanced). The kind of lane
/// fixes which block it builds at rank `(i, j)`.
pub(crate) enum Lane<V> {
    /// This rank's own block `A*_{i,j}` — what the local application reads.
    Natural(Arc<Layout>, Vec<Triple<V>>),
    /// The round root's block `A*_{j,i}` (Section V-C): the tuples route
    /// flipped `(r, c, v) → (c, r, v)` under [`Layout::transposed`], so rank
    /// `(i, j)` receives exactly the entries of `A*_{j,i}`, and assemble
    /// flipped back, in natural orientation.
    Root(Arc<Layout>, Vec<Triple<V>>),
}

/// What one [`Lane`] builds.
pub(crate) enum Built<V> {
    Natural(DistDcsr<V>),
    Root(Arc<Dcsr<V>>),
}

impl<V> Built<V> {
    pub(crate) fn into_natural(self) -> DistDcsr<V> {
        match self {
            Built::Natural(m) => m,
            Built::Root(_) => unreachable!("a root lane builds no DistDcsr"),
        }
    }

    pub(crate) fn into_root(self) -> Arc<Dcsr<V>> {
        match self {
            Built::Root(block) => block,
            Built::Natural(_) => unreachable!("a natural lane builds no root block"),
        }
    }
}

/// Builds one update matrix per lane from a single redistribution (see
/// [`redistribute_lanes_in`]), duplicates combining by `dedup` in every
/// lane. Collective over the grid.
///
/// Each lane's received tuples become block-local coordinates, are sorted
/// row-major and folded. The radix sort is stable, so duplicates fold in
/// arrival order, and a lane arrives in the order a redistribution of it
/// alone returns: a root block equals the transposed rank's natural block
/// bit for bit.
pub(crate) fn build_update_matrices_in<S: Semiring>(
    grid: &Grid,
    lanes: Vec<Lane<S::Elem>>,
    dedup: Dedup,
    timer: &mut PhaseTimer,
) -> Vec<Built<S::Elem>> {
    let updates = lanes.iter().map(|lane| match lane {
        Lane::Natural(_, t) | Lane::Root(_, t) => t.len() as u64,
    });
    let _sp = dspgemm_obs::span("engine", "redistribute")
        .attr("lanes", lanes.len() as u64)
        .attr("updates", updates.sum());
    let mut routes = Vec::with_capacity(lanes.len());
    let mut heads = Vec::with_capacity(lanes.len());
    let mut tuples = Vec::with_capacity(lanes.len());
    for lane in lanes {
        let (route, head, t) = match lane {
            Lane::Natural(layout, t) => (Arc::clone(&layout), (layout, false), t),
            Lane::Root(layout, t) => {
                let flipped = t.into_iter().map(|t| Triple::new(t.col, t.row, t.val));
                (layout.transposed(), (layout, true), flipped.collect())
            }
        };
        routes.push(route);
        heads.push(head);
        tuples.push(t);
    }
    let routes: Vec<&Layout> = routes.iter().map(|l| &**l).collect();
    let routed = redistribute_lanes_in(grid, &routes, tuples, timer);
    let (i, j) = grid.coords();
    heads
        .into_iter()
        .zip(routed)
        .map(|((layout, root), mine)| {
            timer.time(phase::LOCAL_CONSTRUCT, || {
                // A root lane's `(c, r, v)` is the entry `(r, c)` of
                // `A*_{j,i}`: a row of grid row `j`, a column of grid column
                // `i`.
                let (rows, cols) = if root {
                    (layout.row_range(j), layout.col_range(i))
                } else {
                    (layout.row_range(i), layout.col_range(j))
                };
                let mut local: Vec<Triple<S::Elem>> = mine
                    .into_iter()
                    .map(|t| {
                        let (r, c) = if root { (t.col, t.row) } else { (t.row, t.col) };
                        Triple::new(r - rows.start, c - cols.start, t.val)
                    })
                    .collect();
                dspgemm_sparse::triple::sort_row_major(&mut local);
                match dedup {
                    Dedup::LastWins => dspgemm_sparse::triple::dedup_last_wins(&mut local),
                    Dedup::Add => dspgemm_sparse::triple::dedup_add::<S>(&mut local),
                }
                let (nrows, ncols) = (rows.end - rows.start, cols.end - cols.start);
                let block = Dcsr::from_sorted_triples(nrows, ncols, &local);
                if root {
                    Built::Root(Arc::new(block))
                } else {
                    Built::Natural(DistDcsr::from_block_in(grid, &layout, block))
                }
            })
        })
        .collect()
}

/// Redistributes globally-indexed update tuples and assembles this rank's
/// hypersparse `A*` block under the uniform layout. Collective over the
/// grid.
pub fn build_update_matrix<S: Semiring>(
    grid: &Grid,
    nrows: Index,
    ncols: Index,
    tuples: Vec<Triple<S::Elem>>,
    dedup: Dedup,
    timer: &mut PhaseTimer,
) -> DistDcsr<S::Elem> {
    build_update_matrix_in::<S>(
        grid,
        &uniform_layout(nrows, ncols, grid.q()),
        tuples,
        dedup,
        timer,
    )
}

/// [`build_update_matrix`] under an explicit layout: a one-lane build.
pub fn build_update_matrix_in<S: Semiring>(
    grid: &Grid,
    layout: &Arc<Layout>,
    tuples: Vec<Triple<S::Elem>>,
    dedup: Dedup,
    timer: &mut PhaseTimer,
) -> DistDcsr<S::Elem> {
    let lane = Lane::Natural(Arc::clone(layout), tuples);
    let mut built = build_update_matrices_in::<S>(grid, vec![lane], dedup, timer);
    built
        .pop()
        .expect("one lane in, one matrix out")
        .into_natural()
}

/// The two builds of one update matrix that Algorithm 1 consumes.
///
/// `natural` is the standard `A*` (rank `(i, j)` holds `A*_{i,j}`; the
/// local `A += A*` application needs this layout). `root` is the block a
/// round root broadcasts (Section V-C): rank `(i, j)` holds `A*_{j,i}`, the
/// block the paper fetches from the transposed peer with a point-to-point
/// exchange (Fig. 1a). It is a root lane of the same redistribution, so
/// that exchange never runs.
#[derive(Debug, Clone)]
pub struct StarPair<V> {
    /// The natural-layout update matrix (`A*_{i,j}` at rank `(i, j)`).
    pub natural: DistDcsr<V>,
    /// The round root's block (`A*_{j,i}` at rank `(i, j)`).
    pub root: Arc<Dcsr<V>>,
}

/// One operand of a pair build: the layout of the matrix its update matrix
/// applies to, and the update's unflipped, globally-indexed tuples.
pub(crate) type Operand<V> = (Arc<Layout>, Vec<Triple<V>>);

/// Builds both blocks of `N` update matrices — one per [`Operand`] — from a
/// single redistribution of `2·N` lanes, a natural and a root lane per
/// operand. Collective over the grid.
pub(crate) fn build_star_pairs_in<S: Semiring, const N: usize>(
    grid: &Grid,
    operands: [Operand<S::Elem>; N],
    dedup: Dedup,
    timer: &mut PhaseTimer,
) -> [StarPair<S::Elem>; N] {
    let mut lanes = Vec::with_capacity(2 * N);
    for (layout, tuples) in operands {
        lanes.push(Lane::Natural(Arc::clone(&layout), tuples.clone()));
        lanes.push(Lane::Root(layout, tuples));
    }
    let mut built = build_update_matrices_in::<S>(grid, lanes, dedup, timer).into_iter();
    let mut next = || built.next().expect("two matrices per operand");
    std::array::from_fn(|_| StarPair {
        natural: next().into_natural(),
        root: next().into_root(),
    })
}

/// Builds both blocks of one update matrix (see [`StarPair`]) under an
/// explicit layout. Collective over the grid.
pub fn build_update_matrix_pair_in<S: Semiring>(
    grid: &Grid,
    layout: &Arc<Layout>,
    tuples: Vec<Triple<S::Elem>>,
    dedup: Dedup,
    timer: &mut PhaseTimer,
) -> StarPair<S::Elem> {
    let operand = (Arc::clone(layout), tuples);
    let [pair] = build_star_pairs_in::<S, 1>(grid, [operand], dedup, timer);
    pair
}

/// [`build_update_matrix_pair_in`] under the uniform layout. Adapter-frozen:
/// `benchmark/src/api.rs` names it; nothing in the workspace does.
pub fn build_update_matrix_pair<S: Semiring>(
    grid: &Grid,
    nrows: Index,
    ncols: Index,
    tuples: Vec<Triple<S::Elem>>,
    dedup: Dedup,
    timer: &mut PhaseTimer,
) -> StarPair<S::Elem> {
    let layout = uniform_layout(nrows, ncols, grid.q());
    build_update_matrix_pair_in::<S>(grid, &layout, tuples, dedup, timer)
}

/// The three local application operators of Section IV-A.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ApplyOp {
    Add,
    Merge,
    Mask,
}

/// Applies one stored row of an update block to the matching dynamic row.
fn apply_row<S: Semiring>(
    row: &mut DhbRow<S::Elem>,
    cols: &[Index],
    vals: &[S::Elem],
    op: ApplyOp,
) {
    match op {
        ApplyOp::Add => {
            for (&c, &v) in cols.iter().zip(vals) {
                row.combine(c, v, S::add);
            }
        }
        ApplyOp::Merge => {
            for (&c, &v) in cols.iter().zip(vals) {
                row.set(c, v);
            }
        }
        ApplyOp::Mask => {
            for &c in cols {
                row.remove(c);
            }
        }
    }
}

fn apply_update_matrix<S: Semiring>(
    mat: &mut DistMat<S::Elem>,
    upd: &DistDcsr<S::Elem>,
    op: ApplyOp,
) {
    assert_eq!(
        mat.info(),
        upd.info(),
        "matrix/update distribution mismatch"
    );
    if upd.local_nnz() == 0 {
        // Nothing routed to this rank: leave the block (and its published
        // image) untouched, so the next published epoch re-shares this
        // block copy-on-write instead of reconverting it.
        return;
    }
    // The update block is the mutation's pattern: logging it lets the next
    // publish patch the image instead of rebuilding it. Cost proportional to
    // the update, not to the block: only the update's stored rows are
    // visited.
    let block = mat.block_mut_touching(upd.block());
    for (r, cols, vals) in upd.block().iter_rows() {
        block.update_row(r, |row| apply_row::<S>(row, cols, vals, op));
    }
}

/// `A += A*` over the semiring addition (algebraic updates). Local-only.
pub fn apply_add<S: Semiring>(mat: &mut DistMat<S::Elem>, upd: &DistDcsr<S::Elem>) {
    apply_update_matrix::<S>(mat, upd, ApplyOp::Add);
}

/// `MERGE(A, A*)`: replaces the value of every position non-zero in `A*`
/// (inserting new entries). Local-only.
///
/// Adapter-frozen: `threads` must be 1; `benchmark/src/api.rs` passes it
/// until the benchmark PR drops it (DESIGN.md, "One worker per rank").
///
/// # Panics
/// Panics if `threads != 1`.
pub fn apply_merge<S: Semiring>(
    mat: &mut DistMat<S::Elem>,
    upd: &DistDcsr<S::Elem>,
    threads: usize,
) {
    assert_eq!(
        threads, 1,
        "intra-rank threads are retired (DESIGN.md, \"One worker per rank\")"
    );
    apply_update_matrix::<S>(mat, upd, ApplyOp::Merge);
}

/// `MASK(A, A*)`: deletes every position of `A` that is non-zero in `A*`.
/// Local-only.
///
/// Adapter-frozen: `threads` must be 1; `benchmark/src/api.rs` passes it
/// until the benchmark PR drops it (DESIGN.md, "One worker per rank").
///
/// # Panics
/// Panics if `threads != 1`.
pub fn apply_mask<S: Semiring>(
    mat: &mut DistMat<S::Elem>,
    upd: &DistDcsr<S::Elem>,
    threads: usize,
) {
    assert_eq!(
        threads, 1,
        "intra-rank threads are retired (DESIGN.md, \"One worker per rank\")"
    );
    apply_update_matrix::<S>(mat, upd, ApplyOp::Mask);
}

/// Inserts block-local triples into a DHB block, last write winning (used
/// during construction).
///
/// The triples are radix-sorted row-major in place (stable, so the last
/// write of a coordinate stays last), deduplicated, and each row is filled
/// through the bulk path ([`DhbRow::fill_sorted`]) from a slice of one flat
/// column / value pair — one reservation and one index build per row
/// instead of per-entry incremental growth.
pub(crate) fn apply_local_triples_set<V: Elem>(
    block: &mut DhbMatrix<V>,
    mut triples: Vec<Triple<V>>,
) {
    dspgemm_sparse::triple::sort_row_major(&mut triples);
    dspgemm_sparse::triple::dedup_last_wins(&mut triples);
    let cols: Vec<Index> = triples.iter().map(|t| t.col).collect();
    let vals: Vec<V> = triples.iter().map(|t| t.val).collect();
    let mut i = 0;
    while i < triples.len() {
        let row = triples[i].row;
        let j = i + triples[i..].partition_point(|t| t.row == row);
        block.update_row(row, |r| r.fill_sorted(&cols[i..j], &vals[i..j]));
        i = j;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dspgemm_mpi::run;
    use dspgemm_sparse::semiring::U64Plus;
    use dspgemm_util::rng::{Rng, SplitMix64};
    use std::collections::BTreeMap;

    const N: Index = 40;

    fn random_tuples(seed: u64, count: usize) -> Vec<Triple<u64>> {
        let mut rng = SplitMix64::new(seed);
        (0..count)
            .map(|_| {
                Triple::new(
                    rng.gen_range(N as u64) as Index,
                    rng.gen_range(N as u64) as Index,
                    rng.gen_range(100) + 1,
                )
            })
            .collect()
    }

    /// Reference model: apply the same global updates to a BTreeMap.
    fn model_apply(model: &mut BTreeMap<(Index, Index), u64>, upd: &[Triple<u64>], op: &str) {
        // Mirror Dedup first (Add for add-op batches, LastWins otherwise).
        let mut dedup: BTreeMap<(Index, Index), u64> = BTreeMap::new();
        for t in upd {
            match op {
                "add" => *dedup.entry((t.row, t.col)).or_insert(0) += t.val,
                _ => {
                    dedup.insert((t.row, t.col), t.val);
                }
            }
        }
        for ((r, c), v) in dedup {
            match op {
                "add" => *model.entry((r, c)).or_insert(0) += v,
                "merge" => {
                    model.insert((r, c), v);
                }
                "mask" => {
                    model.remove(&(r, c));
                }
                _ => unreachable!(),
            }
        }
    }

    fn check_against_model(p: usize, op: &'static str) {
        let out = run(p, move |comm| {
            let grid = Grid::new(comm);
            let mut timer = PhaseTimer::new();
            // Shared initial matrix, built identically on all ranks; rank 0
            // feeds the triples.
            let initial = if comm.rank() == 0 {
                random_tuples(1, 300)
            } else {
                vec![]
            };
            let mut mat = DistMat::from_global_triples(&grid, N, N, initial, 1, &mut timer);
            // Three update batches, each rank contributing its own draws.
            let mut all_batches = Vec::new();
            for round in 0..3u64 {
                let mine = random_tuples(100 + round * 10 + comm.rank() as u64, 50);
                let dedup = if op == "add" {
                    Dedup::Add
                } else {
                    Dedup::LastWins
                };
                let upd =
                    build_update_matrix::<U64Plus>(&grid, N, N, mine.clone(), dedup, &mut timer);
                match op {
                    "add" => apply_add::<U64Plus>(&mut mat, &upd),
                    "merge" => apply_merge::<U64Plus>(&mut mat, &upd, 1),
                    "mask" => apply_mask::<U64Plus>(&mut mat, &upd, 1),
                    _ => unreachable!(),
                }
                all_batches.push(mine);
            }
            (mat.gather_to_root(comm), all_batches)
        });
        // Rebuild the reference model from the union of all ranks' batches.
        let mut model: BTreeMap<(Index, Index), u64> = BTreeMap::new();
        for t in random_tuples(1, 300) {
            model.insert((t.row, t.col), t.val);
        }
        for round in 0..3usize {
            let mut batch: Vec<Triple<u64>> = Vec::new();
            for (_, batches) in &out.results {
                batch.extend(batches[round].iter().copied());
            }
            model_apply(&mut model, &batch, op);
        }
        let gathered = out.results[0].0.as_ref().unwrap();
        let got: Vec<((Index, Index), u64)> =
            gathered.iter().map(|t| ((t.row, t.col), t.val)).collect();
        let expect: Vec<((Index, Index), u64)> = model.into_iter().collect();
        if op == "add" {
            // Adds across ranks commute, totals must match.
            let sum_got: u64 = got.iter().map(|(_, v)| v).sum();
            let sum_expect: u64 = expect.iter().map(|(_, v)| v).sum();
            assert_eq!(sum_got, sum_expect, "p={p} op={op}");
            assert_eq!(
                got.iter().map(|(k, _)| *k).collect::<Vec<_>>(),
                expect.iter().map(|(k, _)| *k).collect::<Vec<_>>()
            );
        } else if p == 1 {
            // With one rank there is no cross-rank write race: exact match.
            assert_eq!(got, expect, "p={p} op={op}");
        } else {
            // MERGE/MASK across ranks: the surviving key set can depend on
            // cross-rank batch interleaving only when the same key is
            // written by two ranks in one round; values may differ there.
            // Keys written by a single rank must match the model.
            let got_keys: std::collections::BTreeSet<_> = got.iter().map(|(k, _)| *k).collect();
            let expect_keys: std::collections::BTreeSet<_> =
                expect.iter().map(|(k, _)| *k).collect();
            assert_eq!(got_keys, expect_keys, "p={p} op={op} key sets differ");
        }
    }

    #[test]
    fn add_matches_model() {
        check_against_model(1, "add");
        check_against_model(4, "add");
    }

    #[test]
    fn merge_matches_model() {
        check_against_model(1, "merge");
        check_against_model(4, "merge");
    }

    #[test]
    fn mask_matches_model() {
        check_against_model(1, "mask");
        check_against_model(4, "mask");
    }

    #[test]
    fn local_triples_set_last_write_wins() {
        let local: Vec<Triple<u64>> = random_tuples(9, 5000)
            .iter()
            .map(|t| Triple::new(t.row % 20, t.col % 20, t.val))
            .collect();
        let mut model = BTreeMap::new();
        for t in &local {
            model.insert((t.row, t.col), t.val);
        }
        let mut block = DhbMatrix::new(20, 20);
        apply_local_triples_set(&mut block, local);
        let got: Vec<((Index, Index), u64)> = block
            .to_sorted_triples()
            .iter()
            .map(|t| ((t.row, t.col), t.val))
            .collect();
        assert_eq!(got, model.into_iter().collect::<Vec<_>>());
        assert_eq!(block.nnz(), got.len());
    }

    #[test]
    fn update_matrix_is_hypersparse_dcsr() {
        let out = run(4, |comm| {
            let grid = Grid::new(comm);
            let mut timer = PhaseTimer::new();
            let mine = if comm.rank() == 0 {
                vec![Triple::new(0, 0, 5u64), Triple::new(39, 39, 6)]
            } else {
                vec![]
            };
            let upd =
                build_update_matrix::<U64Plus>(&grid, N, N, mine, Dedup::LastWins, &mut timer);
            (upd.local_nnz(), upd.global_nnz(&grid))
        });
        assert!(out.results.iter().all(|&(_, g)| g == 2));
        // (0,0) on rank 0's block; (39,39) on rank 3's.
        assert_eq!(out.results[0].0, 1);
        assert_eq!(out.results[3].0, 1);
        assert_eq!(out.results[1].0 + out.results[2].0, 0);
    }

    /// Layouts on a `q × q` grid, `q ∈ {2, 3}`: uniform `N × N`, rebalanced
    /// square cuts of `N × N`, and a non-square matrix whose row and column
    /// cuts differ.
    fn root_layouts(q: usize) -> [Arc<Layout>; 3] {
        let skewed = match q {
            2 => vec![0, 7, N],
            _ => vec![0, 3, 5, N],
        };
        let (rows, cols) = match q {
            2 => (vec![0, 17, 19], vec![0, 2, 31]),
            _ => (vec![0, 3, 5, 30], vec![0, 11, 11, 14]),
        };
        [
            uniform_layout(N, N, q),
            Arc::new(Layout::square(skewed)),
            Arc::new(Layout::from_cuts(rows, cols)),
        ]
    }

    /// This rank's `root` block against the natural block the transposed
    /// rank built, bit for bit, after a `sendrecv` between the two.
    fn assert_root_is_peer_natural(
        grid: &Grid,
        root: &Dcsr<f64>,
        natural: &DistDcsr<f64>,
        what: &str,
    ) {
        let peer = grid.transpose_rank();
        let mine = Arc::new(natural.block().clone());
        let theirs: Arc<Dcsr<f64>> = if peer == grid.world().rank() {
            mine
        } else {
            grid.world().sendrecv(peer, mine, peer, 7)
        };
        assert_eq!(
            root.map(f64::to_bits),
            theirs.map(f64::to_bits),
            "{what}: rank {} root block differs from rank {peer}'s natural block",
            grid.world().rank()
        );
    }

    /// A root lane builds at rank `(i, j)` exactly the natural build's block
    /// at `(j, i)`: for a `Dedup::Add` batch whose repeated coordinates fold
    /// non-integer values (so a different fold order shows in the bits), and
    /// for a general batch whose sets and deletes overlap.
    #[test]
    fn root_block_is_the_transposed_ranks_natural_block() {
        use crate::dyn_general::{prepare_general_update_in, GeneralUpdates};
        use dspgemm_sparse::semiring::F64Plus;
        for p in [4usize, 9] {
            run(p, move |comm| {
                let grid = Grid::new(comm);
                let mut timer = PhaseTimer::new();
                let seed = 1000 * p as u64 + comm.rank() as u64;
                for layout in root_layouts(grid.q()) {
                    let (nrows, ncols) = (layout.nrows(), layout.ncols());
                    let mut rng = SplitMix64::new(seed);
                    let mut draw = |count: usize| -> Vec<Triple<f64>> {
                        (0..count)
                            .map(|_| {
                                let r = rng.gen_range(nrows as u64 / 4) as Index;
                                let c = rng.gen_range(ncols as u64 / 4) as Index;
                                let v = (rng.gen_range(1000) + 1) as f64 / 7.0;
                                Triple::new(4 * r, 4 * c, v)
                            })
                            .collect()
                    };
                    let add = draw(120);
                    let pair = build_update_matrix_pair_in::<F64Plus>(
                        &grid,
                        &layout,
                        add,
                        Dedup::Add,
                        &mut timer,
                    );
                    assert_root_is_peer_natural(&grid, &pair.root, &pair.natural, "add");

                    let sets = draw(60);
                    let mut deletes: Vec<(Index, Index)> =
                        draw(40).iter().map(|t| (t.row, t.col)).collect();
                    deletes.extend(sets.iter().step_by(3).map(|t| (t.row, t.col)));
                    let upd = GeneralUpdates { sets, deletes };
                    let prep =
                        prepare_general_update_in::<F64Plus>(&grid, &layout, upd, &mut timer);
                    assert_root_is_peer_natural(&grid, &prep.star_root, &prep.star, "general");
                }
            });
        }
    }
}
