//! Dynamic updates: building update matrices and applying them (Section IV-A).
//!
//! The update protocol is exactly the paper's:
//!
//! 1. ranks hold arbitrary update tuples with global indices;
//! 2. [`build_update_matrix`] redistributes them (two-phase counting-sort
//!    alltoall) and assembles this rank's block of the hypersparse update
//!    matrix `A*` in DCSR layout — every update matrix one batch needs
//!    (both layouts of `A*` and `B*`, see [`StarPair`]) is a lane of the same
//!    exchange ([`crate::redistribute::redistribute_lanes_in`]), so a batch
//!    pays for one redistribution;
//! 3. one of the *purely local* application operators finishes the job —
//!    [`apply_add`] (`A += A*`), [`apply_merge`] (`MERGE`), or
//!    [`apply_mask`] (`MASK`) — each parallelized over `threads` shards by
//!    `row mod T`.
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
use dspgemm_util::par::parallel_for_each_shard;
use dspgemm_util::sort::counting_sort_by_key;
use dspgemm_util::stats::PhaseTimer;
use parking_lot::Mutex;
use std::sync::Arc;

/// How duplicate coordinates within one update batch combine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dedup {
    /// Last write wins (MERGE / MASK batches).
    LastWins,
    /// Combine with the semiring addition (algebraic insertion batches).
    Add,
}

/// Assembles this rank's hypersparse block from its already-routed,
/// globally-indexed tuples (the purely local tail of
/// [`build_update_matrix`]).
fn assemble_update_block<S: Semiring>(
    grid: &Grid,
    layout: &Arc<Layout>,
    mine: Vec<Triple<S::Elem>>,
    dedup: Dedup,
    timer: &mut PhaseTimer,
) -> DistDcsr<S::Elem> {
    timer.time(phase::LOCAL_CONSTRUCT, || {
        let info = crate::distmat::BlockInfo::for_rank_in(grid, layout);
        let mut local: Vec<Triple<S::Elem>> = mine
            .into_iter()
            .map(|t| {
                let (lr, lc) = info.to_local(t.row, t.col);
                Triple::new(lr, lc, t.val)
            })
            .collect();
        dspgemm_sparse::triple::sort_row_major(&mut local);
        match dedup {
            Dedup::LastWins => dspgemm_sparse::triple::dedup_last_wins(&mut local),
            Dedup::Add => dspgemm_sparse::triple::dedup_add::<S>(&mut local),
        }
        let block = Dcsr::from_sorted_triples(info.local_rows(), info.local_cols(), &local);
        DistDcsr::from_block_in(grid, layout, block)
    })
}

/// One lane of a batch's build: the tuples of one update matrix and the
/// layout they route and assemble under — update matrices always match the
/// (possibly rebalanced) layout of the matrix they apply to.
pub(crate) type Lane<V> = (Arc<Layout>, Vec<Triple<V>>);

/// Builds one update matrix per lane from a single redistribution (see
/// [`redistribute_lanes_in`]), duplicates combining by `dedup` in every
/// lane. Collective over the grid.
pub(crate) fn build_update_matrices_in<S: Semiring>(
    grid: &Grid,
    lanes: Vec<Lane<S::Elem>>,
    dedup: Dedup,
    timer: &mut PhaseTimer,
) -> Vec<DistDcsr<S::Elem>> {
    let _sp = dspgemm_obs::span("engine", "redistribute")
        .attr("lanes", lanes.len() as u64)
        .attr("updates", lanes.iter().map(|(_, t)| t.len() as u64).sum());
    let (layouts, tuples): (Vec<Arc<Layout>>, Vec<_>) = lanes.into_iter().unzip();
    let routes: Vec<&Layout> = layouts.iter().map(|l| &**l).collect();
    let routed = redistribute_lanes_in(grid, &routes, tuples, timer);
    layouts
        .iter()
        .zip(routed)
        .map(|(layout, mine)| assemble_update_block::<S>(grid, layout, mine, dedup, timer))
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
    let lane = (Arc::clone(layout), tuples);
    let mut built = build_update_matrices_in::<S>(grid, vec![lane], dedup, timer);
    built.pop().expect("one lane in, one matrix out")
}

/// The natural- and transposed-layout builds of one update matrix — what
/// the virtual-transposition rounds of Section V-C consume.
///
/// `natural` is the standard `A*` (rank `(i, j)` holds `A*_{i,j}`; the
/// local `A += A*` application needs this layout). `transposed` is
/// `(A*)ᵀ` built by routing the *flipped* tuples as a second lane of the
/// same redistribution, under [`Layout::transposed`], so rank `(i, j)` holds
/// `(A*_{j,i})ᵀ` — exactly the block it would have received from its
/// transposed peer in Algorithm 1's point-to-point exchange (Fig. 1a),
/// already transposed. A purely local counting-sort transposition
/// ([`Dcsr::transpose_into`]) recovers the broadcast payload `A*_{j,i}`
/// bit-for-bit, and that exchange never runs.
#[derive(Debug, Clone)]
pub struct StarPair<V> {
    /// The natural-layout update matrix (`A*_{i,j}` at rank `(i, j)`).
    pub natural: DistDcsr<V>,
    /// The transposed-layout build (`(A*_{j,i})ᵀ` at rank `(i, j)`).
    pub transposed: DistDcsr<V>,
}

/// Builds both layouts of `N` update matrices — one per `(layout, tuples)`
/// operand — from a single redistribution of `2·N` lanes. Collective over
/// the grid.
pub(crate) fn build_star_pairs_in<S: Semiring, const N: usize>(
    grid: &Grid,
    operands: [Lane<S::Elem>; N],
    dedup: Dedup,
    timer: &mut PhaseTimer,
) -> [StarPair<S::Elem>; N] {
    let mut lanes = Vec::with_capacity(2 * N);
    for (layout, tuples) in operands {
        // Flip (r, c, v) → (c, r, v) *before* routing: the transposed
        // layout is an ordinary update-matrix build of the flipped entry
        // set. Stable sorting + dedup then reproduce the exact values of
        // the natural build (same input order, same fold order), so the two
        // layouts are exact transposes of each other entry-for-entry.
        let flipped = tuples
            .iter()
            .map(|t| Triple::new(t.col, t.row, t.val))
            .collect();
        let transposed = layout.transposed();
        lanes.push((layout, tuples));
        lanes.push((transposed, flipped));
    }
    let mut built = build_update_matrices_in::<S>(grid, lanes, dedup, timer).into_iter();
    let mut next = || built.next().expect("two matrices per operand");
    std::array::from_fn(|_| StarPair {
        natural: next(),
        transposed: next(),
    })
}

/// Builds both layouts of one update matrix (see [`StarPair`]) under an
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

/// One stored row of an update block borrowed for application:
/// `(local row, columns, values)`.
type RowEntries<'a, V> = (Index, &'a [Index], &'a [V]);

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
    threads: usize,
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
    // publish patch the image instead of rebuilding it.
    let block = mat.block_mut_touching(upd.block());
    let threads = threads.max(1);
    if threads == 1 {
        // Cost proportional to the update, not to the block: only the
        // update's stored rows are visited.
        for (r, cols, vals) in upd.block().iter_rows() {
            block.update_row(r, |row| apply_row::<S>(row, cols, vals, op));
        }
        return;
    }
    // Group the update's stored rows by (row mod T) — the paper's partition
    // for lock-free parallel application.
    let mut grouped: Vec<Vec<RowEntries<'_, S::Elem>>> = (0..threads).map(|_| Vec::new()).collect();
    for (r, cols, vals) in upd.block().iter_rows() {
        grouped[r as usize % threads].push((r, cols, vals));
    }
    let shards = block.shard_rows_mut(threads);
    let shard_cells: Vec<Mutex<Vec<&mut DhbRow<S::Elem>>>> =
        shards.into_iter().map(Mutex::new).collect();
    parallel_for_each_shard(threads, |t| {
        let mut rows = shard_cells[t].lock();
        for &(r, cols, vals) in &grouped[t] {
            apply_row::<S>(&mut *rows[r as usize / threads], cols, vals, op);
        }
    });
    drop(shard_cells);
    block.recount_nnz();
}

/// `A += A*` over the semiring addition (algebraic updates). Local-only.
pub fn apply_add<S: Semiring>(mat: &mut DistMat<S::Elem>, upd: &DistDcsr<S::Elem>, threads: usize) {
    apply_update_matrix::<S>(mat, upd, ApplyOp::Add, threads);
}

/// `MERGE(A, A*)`: replaces the value of every position non-zero in `A*`
/// (inserting new entries). Local-only.
pub fn apply_merge<S: Semiring>(
    mat: &mut DistMat<S::Elem>,
    upd: &DistDcsr<S::Elem>,
    threads: usize,
) {
    apply_update_matrix::<S>(mat, upd, ApplyOp::Merge, threads);
}

/// `MASK(A, A*)`: deletes every position of `A` that is non-zero in `A*`.
/// Local-only.
pub fn apply_mask<S: Semiring>(
    mat: &mut DistMat<S::Elem>,
    upd: &DistDcsr<S::Elem>,
    threads: usize,
) {
    apply_update_matrix::<S>(mat, upd, ApplyOp::Mask, threads);
}

/// Inserts block-local triples into a DHB block with `(row mod T)`
/// parallelism, last write winning (used during construction).
///
/// Each shard radix-sorts its share row-major, deduplicates, and fills each
/// row through the bulk path ([`DhbRow::fill_sorted`]) — one reservation and
/// one index build per row instead of per-entry incremental growth.
pub fn apply_local_triples_set<V: Elem>(
    block: &mut DhbMatrix<V>,
    triples: &[Triple<V>],
    threads: usize,
) {
    let threads = threads.max(1);
    // Shard the triples by (row mod T) — the paper's partitioning.
    let (sorted, offsets) =
        counting_sort_by_key(triples.to_vec(), threads, |t| t.row as usize % threads);
    let shards = block.shard_rows_mut(threads);
    let shard_cells: Vec<Mutex<Vec<&mut DhbRow<V>>>> = shards.into_iter().map(Mutex::new).collect();
    parallel_for_each_shard(threads, |t| {
        let mut rows = shard_cells[t].lock();
        let mut mine: Vec<Triple<V>> = sorted[offsets[t]..offsets[t + 1]].to_vec();
        dspgemm_sparse::triple::sort_row_major(&mut mine);
        dspgemm_sparse::triple::dedup_last_wins(&mut mine);
        let mut i = 0;
        while i < mine.len() {
            let row = mine[i].row;
            let mut j = i + 1;
            while j < mine.len() && mine[j].row == row {
                j += 1;
            }
            let cols: Vec<dspgemm_sparse::Index> = mine[i..j].iter().map(|tr| tr.col).collect();
            let vals: Vec<V> = mine[i..j].iter().map(|tr| tr.val).collect();
            rows[row as usize / threads].fill_sorted(&cols, &vals);
            i = j;
        }
    });
    drop(shard_cells);
    block.recount_nnz();
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
            let mut mat = DistMat::from_global_triples(&grid, N, N, initial, 2, &mut timer);
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
                    "add" => apply_add::<U64Plus>(&mut mat, &upd, 3),
                    "merge" => apply_merge::<U64Plus>(&mut mat, &upd, 3),
                    "mask" => apply_mask::<U64Plus>(&mut mat, &upd, 3),
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
    fn local_triples_set_parallel_matches_serial() {
        let triples = random_tuples(9, 5000);
        let local: Vec<Triple<u64>> = triples
            .iter()
            .map(|t| Triple::new(t.row % 20, t.col % 20, t.val))
            .collect();
        let mut a = DhbMatrix::new(20, 20);
        apply_local_triples_set(&mut a, &local, 1);
        let mut b = DhbMatrix::new(20, 20);
        apply_local_triples_set(&mut b, &local, 4);
        assert_eq!(a.to_sorted_triples(), b.to_sorted_triples());
        assert_eq!(a.nnz(), b.nnz());
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
}
