//! The maintained product's memory, by counters only: an untracked `C` is
//! built by SUMMA and kept by Algorithm 1 through sorted row merges, so its
//! rows hold adjacency arrays and no hash index. Each rank's block must fit
//! in twice its adjacency payload plus the row headers — a per-row index
//! (11–23 B per entry beside the 12 B of a `u64` entry) does not — and `C`
//! must still equal a static recompute of the final operands.

use dspgemm_core::engine::DynSpGemm;
use dspgemm_core::summa::summa;
use dspgemm_core::{DistMat, Grid};
use dspgemm_mpi::run;
use dspgemm_sparse::dhb::DhbRow;
use dspgemm_sparse::semiring::U64Plus;
use dspgemm_sparse::{Index, Triple};
use dspgemm_util::rng::{Rng, SplitMix64};
use dspgemm_util::stats::PhaseTimer;

/// Side of the square operands; 10 entries per operand row give `C`
/// about 82 entries per global row, so ≥ 32 per local row at p = 4.
const N: Index = 256;

fn triples(seed: u64, count: usize) -> Vec<Triple<u64>> {
    let mut rng = SplitMix64::new(seed);
    (0..count)
        .map(|_| {
            Triple::new(
                rng.gen_range(N as u64) as Index,
                rng.gen_range(N as u64) as Index,
                rng.gen_range(9) + 1,
            )
        })
        .collect()
}

fn product_heap_is_adjacency_only(p: usize) {
    let out = run(p, |comm| {
        let grid = Grid::new(comm);
        let mut timer = PhaseTimer::new();
        let root_feed = |seed: u64| {
            if comm.rank() == 0 {
                triples(seed, 10 * N as usize)
            } else {
                vec![]
            }
        };
        let a = DistMat::from_global_triples(&grid, N, N, root_feed(1), 1, &mut timer);
        let b = DistMat::from_global_triples(&grid, N, N, root_feed(2), 1, &mut timer);
        let mut eng = DynSpGemm::<U64Plus>::new(&grid, a, b, 1, false);
        for batch in 0..5u64 {
            let seed = 100 + 10 * batch + comm.rank() as u64;
            eng.apply_algebraic(&grid, triples(seed, 64), triples(seed + 5, 64));
        }
        let block = eng.c.block();
        let rows = block.nrows() as usize;
        assert!(
            block.nnz() >= 32 * rows,
            "rank {}: mean row {} < 32",
            comm.rank(),
            block.nnz() / rows
        );
        let entry = std::mem::size_of::<Index>() + std::mem::size_of::<u64>();
        let bound = 2 * entry * block.nnz() + rows * std::mem::size_of::<DhbRow<u64>>();
        assert!(
            block.heap_bytes() <= bound,
            "rank {}: C block holds {} B for {} entries, bound {} B",
            comm.rank(),
            block.heap_bytes(),
            block.nnz(),
            bound
        );
        let (c_static, _) = summa::<U64Plus>(&grid, &eng.a, &eng.b, 1, &mut timer);
        (eng.c.gather_to_root(comm), c_static.gather_to_root(comm))
    });
    let (dynamic, recomputed) = &out.results[0];
    let (mut dynamic, mut recomputed) = (dynamic.clone().unwrap(), recomputed.clone().unwrap());
    dynamic.sort_unstable_by_key(|t| (t.row, t.col));
    recomputed.sort_unstable_by_key(|t| (t.row, t.col));
    assert_eq!(dynamic, recomputed, "p = {p}: C != static recompute");
}

#[test]
fn product_heap_is_adjacency_only_p1() {
    product_heap_is_adjacency_only(1);
}

#[test]
fn product_heap_is_adjacency_only_p4() {
    product_heap_is_adjacency_only(4);
}
