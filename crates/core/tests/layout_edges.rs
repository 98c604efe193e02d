//! Edge cases of the fixed, uniform 2D block distribution that the unit
//! tests skip: point lookups on live and pinned matrices find the block
//! owner at p = 9 for square and non-square shapes, and an index space
//! smaller than the grid side (zero-width blocks) stores, serves and
//! multiplies like any other.

use dspgemm_core::grid::block_range;
use dspgemm_core::summa::summa;
use dspgemm_core::{DistMat, DynSpGemm, Grid, SnapshotMat};
use dspgemm_mpi::run;
use dspgemm_sparse::semiring::U64Plus;
use dspgemm_sparse::{Index, Triple};
use dspgemm_util::stats::PhaseTimer;

fn dense_triples(nrows: Index, ncols: Index) -> Vec<Triple<u64>> {
    (0..nrows)
        .flat_map(|r| (0..ncols).map(move |c| Triple::new(r, c, 1 + (r * ncols + c) as u64)))
        .collect()
}

/// A dense matrix fed from rank 0 lands block by block: every rank holds
/// exactly its block, and a point lookup — live or on a pinned image —
/// names the rank whose block ranges contain the coordinate and returns
/// its value on every rank. Row top-k merges on the owning grid row.
#[test]
fn pinned_lookups_find_the_block_owner_at_p9() {
    for (nrows, ncols) in [(30, 30), (30, 7)] {
        run(9, move |comm| {
            let grid = Grid::new(comm);
            let mut timer = PhaseTimer::new();
            let mine = match comm.rank() {
                0 => dense_triples(nrows, ncols),
                _ => vec![],
            };
            let mut mat = DistMat::from_global_triples(&grid, nrows, ncols, mine, 1, &mut timer);
            let info = mat.info().clone();
            assert_eq!(
                mat.local_nnz(),
                (info.local_rows() * info.local_cols()) as usize,
                "a dense matrix fills every block"
            );
            let (pinned, _) = SnapshotMat::publish(&mut mat);
            let (rr, cr) = (&info.row_range, &info.col_range);
            let ranges = comm.allgather(vec![rr.start, rr.end, cr.start, cr.end]);
            for (r, c) in [
                (0, 0),
                (nrows / 2, 1),
                (nrows - 1, ncols - 1),
                (11, ncols / 2),
            ] {
                let holder = ranges
                    .iter()
                    .position(|b| (b[0]..b[1]).contains(&r) && (b[2]..b[3]).contains(&c));
                assert_eq!(Some(pinned.info().owner_rank(&grid, r, c)), holder);
                let want = Some(1 + (r * ncols + c) as u64);
                assert_eq!(pinned.get_collective(&grid, r, c), want);
                assert_eq!(mat.get_collective(&grid, r, c), want);
            }
            let last = |r: Index| 1 + (r * ncols + ncols - 1) as u64;
            let top = pinned.row_topk(&grid, nrows - 1, 2, |v| *v as f64);
            let want = vec![
                (ncols - 1, last(nrows - 1)),
                (ncols - 2, last(nrows - 1) - 1),
            ];
            assert_eq!(top, want, "{nrows}x{ncols}: row top-k");
        });
    }
}

/// An index space smaller than the grid side (n = 2, q = 3): the trailing
/// blocks are zero-width. Such a matrix loses nothing, its zero-width ranks
/// hold nothing, every coordinate's lookup reaches its owner, and a session
/// on it maintains `C = A·B` through a batch.
#[test]
fn index_space_smaller_than_grid_side_serves_lookups() {
    let n: Index = 2;
    let out = run(9, move |comm| {
        let grid = Grid::new(comm);
        let mut timer = PhaseTimer::new();
        let mine = match comm.rank() {
            3 => dense_triples(n, n),
            _ => vec![],
        };
        let a = DistMat::from_global_triples(&grid, n, n, mine.clone(), 1, &mut timer);
        let b = DistMat::from_global_triples(&grid, n, n, mine, 1, &mut timer);
        let (i, j) = grid.coords();
        let zero_width =
            block_range(n, grid.q(), i).is_empty() || block_range(n, grid.q(), j).is_empty();
        if zero_width {
            assert_eq!(a.local_nnz(), 0, "a zero-width block holds nothing");
        }
        if let Some(all) = a.gather_to_root(comm) {
            assert_eq!(all, dense_triples(n, n), "nothing lost");
        }
        for (r, c) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
            assert_eq!(a.get_collective(&grid, r, c), Some(1 + (r * n + c) as u64));
        }
        let mut eng = DynSpGemm::<U64Plus>::new(&grid, a, b, 1, false);
        let ups = match comm.rank() {
            8 => vec![Triple::new(1, 0, 5u64)],
            _ => vec![],
        };
        eng.apply_algebraic(&grid, ups.clone(), ups);
        let (fresh, _) = summa::<U64Plus>(&grid, &eng.a, &eng.b, 1, &mut timer);
        assert_eq!(
            eng.c.gather_to_root(comm),
            fresh.gather_to_root(comm),
            "C diverged from the static product"
        );
        eng.c.local_nnz()
    });
    assert_eq!(out.results.iter().sum::<usize>(), 4, "C = A·B is dense");
}
