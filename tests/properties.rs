//! Property-based integration tests: the core invariants under randomly
//! generated inputs.
//!
//! The seed repository drove these with the external `proptest` crate; this
//! workspace must build offline, so the same properties are exercised with a
//! seeded in-repo generator instead ([`SplitMix64`]): every property runs
//! `CASES` independently drawn inputs, with sizes drawn from the same ranges
//! proptest used. Failures print the offending case seed, which reproduces
//! the input deterministically.

use dspgemm::core::summa::summa;
use dspgemm::core::update::{apply_add, build_update_matrix, Dedup};
use dspgemm::core::{DistMat, DynSpGemm, Grid};
use dspgemm::sparse::dense::Dense;
use dspgemm::sparse::semiring::U64Plus;
use dspgemm::sparse::{Csr, Dcsr, DhbMatrix, Index, Triple};
use dspgemm::util::rng::{Rng, SplitMix64};
use dspgemm::util::stats::PhaseTimer;

const N: Index = 16;
const CASES: u64 = 24;

/// Draws `count` triples with coordinates in `0..n` and values in `1..10`
/// (the ranges of the original proptest strategy).
fn draw_triples(rng: &mut SplitMix64, n: Index, count: usize) -> Vec<Triple<u64>> {
    (0..count)
        .map(|_| {
            Triple::new(
                rng.gen_range(n as u64) as Index,
                rng.gen_range(n as u64) as Index,
                rng.gen_range(9) + 1,
            )
        })
        .collect()
}

/// Draws a collection size in `lo..hi` (`prop::collection::vec` bounds).
fn draw_len(rng: &mut SplitMix64, lo: usize, hi: usize) -> usize {
    lo + rng.gen_range((hi - lo) as u64) as usize
}

/// Redistribution never loses, duplicates, or misroutes a tuple.
#[test]
fn redistribution_is_a_routing_permutation() {
    for case in 0..CASES {
        let mut rng = SplitMix64::derive(0xA110C, case);
        let len = draw_len(&mut rng, 0, 200);
        let tuples = draw_triples(&mut rng, N, len);
        let tuples_in = tuples.clone();
        let out = dspgemm_mpi::run(4, move |comm| {
            let grid = Grid::new(comm);
            // Rank r contributes every 4th tuple.
            let mine: Vec<Triple<u64>> = tuples_in
                .iter()
                .copied()
                .skip(comm.rank())
                .step_by(4)
                .collect();
            let mut timer = PhaseTimer::new();
            let got = dspgemm::core::redistribute::redistribute(&grid, N, N, mine, &mut timer);
            // Ownership check.
            let info = dspgemm::core::distmat::BlockInfo::for_rank(&grid, N, N);
            for t in &got {
                assert!(info.row_range.contains(&t.row), "case {case}");
                assert!(info.col_range.contains(&t.col), "case {case}");
            }
            got
        });
        let mut all: Vec<(Index, Index, u64)> = out
            .results
            .iter()
            .flatten()
            .map(|t| (t.row, t.col, t.val))
            .collect();
        all.sort_unstable();
        let mut expect: Vec<(Index, Index, u64)> =
            tuples.iter().map(|t| (t.row, t.col, t.val)).collect();
        expect.sort_unstable();
        assert_eq!(all, expect, "case {case}");
    }
}

/// DistMat + update matrix addition equals a sequential reference.
#[test]
fn distributed_add_matches_reference() {
    for case in 0..CASES {
        let mut rng = SplitMix64::derive(0xADD0C, case);
        let len = draw_len(&mut rng, 0, 100);
        let initial = draw_triples(&mut rng, N, len);
        let len = draw_len(&mut rng, 0, 60);
        let updates = draw_triples(&mut rng, N, len);
        let (initial_c, updates_c) = (initial.clone(), updates.clone());
        let out = dspgemm_mpi::run(4, move |comm| {
            let grid = Grid::new(comm);
            let mut timer = PhaseTimer::new();
            let feed = if comm.rank() == 0 {
                initial_c.clone()
            } else {
                vec![]
            };
            let mut m = DistMat::empty(&grid, N, N);
            let init = build_update_matrix::<U64Plus>(&grid, N, N, feed, Dedup::Add, &mut timer);
            apply_add::<U64Plus>(&mut m, &init);
            let ups = if comm.rank() == 0 {
                updates_c.clone()
            } else {
                vec![]
            };
            let upd = build_update_matrix::<U64Plus>(&grid, N, N, ups, Dedup::Add, &mut timer);
            apply_add::<U64Plus>(&mut m, &upd);
            m.gather_to_root(comm)
        });
        let gathered = out.results[0].as_ref().unwrap();
        let got = Dense::from_triples::<U64Plus>(N, N, gathered);
        let mut reference = Dense::from_triples::<U64Plus>(N, N, &initial);
        reference = reference.add::<U64Plus>(&Dense::from_triples::<U64Plus>(N, N, &updates));
        assert_eq!(got.diff(&reference), vec![], "case {case}");
    }
}

/// Dynamic SpGEMM equals static recomputation for arbitrary batches.
#[test]
fn dynamic_spgemm_matches_static() {
    for case in 0..CASES {
        let mut rng = SplitMix64::derive(0xD_511, case);
        let len = draw_len(&mut rng, 1, 80);
        let a0 = draw_triples(&mut rng, N, len);
        let len = draw_len(&mut rng, 1, 80);
        let b0 = draw_triples(&mut rng, N, len);
        let len = draw_len(&mut rng, 0, 30);
        let a_ups = draw_triples(&mut rng, N, len);
        let len = draw_len(&mut rng, 0, 30);
        let b_ups = draw_triples(&mut rng, N, len);
        let (a0c, b0c, a_upsc, b_upsc) = (a0, b0, a_ups, b_ups);
        let out = dspgemm_mpi::run(4, move |comm| {
            let grid = Grid::new(comm);
            let mut timer = PhaseTimer::new();
            let feed = |v: &Vec<Triple<u64>>| {
                if comm.rank() == 0 {
                    v.clone()
                } else {
                    vec![]
                }
            };
            let a = DistMat::from_global_triples(&grid, N, N, feed(&a0c), 1, &mut timer);
            let b = DistMat::from_global_triples(&grid, N, N, feed(&b0c), 1, &mut timer);
            let mut eng = DynSpGemm::<U64Plus>::new(&grid, a, b, 1, false);
            eng.apply_algebraic(&grid, feed(&a_upsc), feed(&b_upsc));
            let (c_static, _) = summa::<U64Plus>(&grid, &eng.a, &eng.b, 1, &mut timer);
            (eng.c.gather_to_root(comm), c_static.gather_to_root(comm))
        });
        let (c_dyn, c_static) = &out.results[0];
        assert_eq!(c_dyn, c_static, "case {case}");
    }
}

/// DHB agrees with CSR/DCSR conversions on arbitrary contents.
#[test]
fn storage_conversions_roundtrip() {
    for case in 0..CASES {
        let mut rng = SplitMix64::derive(0x57_04A6E, case);
        let len = draw_len(&mut rng, 0, 300);
        let triples = draw_triples(&mut rng, 64, len);
        let mut dhb: DhbMatrix<u64> = DhbMatrix::new(64, 64);
        for t in &triples {
            dhb.set(t.row, t.col, t.val);
        }
        let sorted = dhb.to_sorted_triples();
        let csr = Csr::from_sorted_triples(64, 64, &sorted);
        let dcsr = Dcsr::from_sorted_triples(64, 64, &sorted);
        assert_eq!(csr.nnz(), dhb.nnz(), "case {case}");
        assert_eq!(dcsr.nnz(), dhb.nnz(), "case {case}");
        assert_eq!(csr.to_triples(), sorted.clone(), "case {case}");
        assert_eq!(dcsr.to_triples(), sorted, "case {case}");
        csr.validate().unwrap();
        dcsr.validate().unwrap();
    }
}

/// Local SpGEMM over CSR operands equals the dense oracle.
#[test]
fn local_spgemm_oracle() {
    for case in 0..CASES {
        let mut rng = SplitMix64::derive(0x9AC1E, case);
        let len = draw_len(&mut rng, 0, 120);
        let a_t = draw_triples(&mut rng, 20, len);
        let len = draw_len(&mut rng, 0, 120);
        let b_t = draw_triples(&mut rng, 20, len);
        let a = Csr::from_triples::<U64Plus>(20, 20, a_t.clone());
        let b = Csr::from_triples::<U64Plus>(20, 20, b_t.clone());
        let got = dspgemm::sparse::local_mm::spgemm::<U64Plus, _, _>(&a, &b, 1);
        let da = Dense::from_triples::<U64Plus>(20, 20, &a_t);
        let db = Dense::from_triples::<U64Plus>(20, 20, &b_t);
        let expect = da.matmul::<U64Plus>(&db);
        assert_eq!(
            Dense::from_dcsr::<U64Plus>(&got.result).diff(&expect),
            vec![],
            "case {case}"
        );
    }
}
