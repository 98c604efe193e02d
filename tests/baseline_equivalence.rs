//! Cross-system equivalence: all four implementations (ours, CombBLAS-like,
//! CTF-like, PETSc-like) must produce identical results on identical
//! workloads — differences in the benchmarks are then attributable to
//! architecture, not to semantics.

use dspgemm::baselines::{
    combblas, combblas::CombBlasMatrix, ctf, ctf::CtfMatrix, petsc, petsc::PetscMatrix,
};
use dspgemm::core::dyn_algebraic::apply_algebraic_updates_exec;
use dspgemm::core::summa::summa;
use dspgemm::core::{DistMat, Exec, Grid};
use dspgemm::sparse::semiring::U64Plus;
use dspgemm::sparse::{Index, Triple};
use dspgemm::util::rng::{Rng, SplitMix64};
use dspgemm::util::stats::PhaseTimer;

fn random_triples(seed: u64, n: Index, count: usize) -> Vec<Triple<u64>> {
    let mut rng = SplitMix64::new(seed);
    (0..count)
        .map(|_| {
            Triple::new(
                rng.gen_range(n as u64) as Index,
                rng.gen_range(n as u64) as Index,
                rng.gen_range(5) + 1,
            )
        })
        .collect()
}

/// Coordinate-unique random triples: removes the only semantic divergence
/// between dynamic construction (insert = last write wins) and the static
/// baselines' assembly (add-combine).
fn unique_random_triples(seed: u64, n: Index, count: usize) -> Vec<Triple<u64>> {
    let mut seen = std::collections::BTreeMap::new();
    for t in random_triples(seed, n, count) {
        seen.entry((t.row, t.col)).or_insert(t.val);
    }
    seen.into_iter()
        .map(|((r, c), v)| Triple::new(r, c, v))
        .collect()
}

#[test]
fn all_systems_agree_on_construction() {
    let n: Index = 40;
    let out = dspgemm_mpi::run(4, move |comm| {
        let grid = Grid::new(comm);
        let mut timer = PhaseTimer::new();
        // Same per-rank input everywhere; add-combine semantics everywhere.
        let mine = random_triples(1 + comm.rank() as u64, n, 120);
        let ours = {
            let mut m = DistMat::empty(&grid, n, n);
            let upd = dspgemm::core::update::build_update_matrix::<U64Plus>(
                &grid,
                n,
                n,
                mine.clone(),
                dspgemm::core::update::Dedup::Add,
                &mut timer,
            );
            dspgemm::core::update::apply_add::<U64Plus>(&mut m, &upd);
            m.gather_to_root(comm)
        };
        let cb =
            CombBlasMatrix::construct::<U64Plus>(&grid, n, n, mine.clone()).gather_to_root(&grid);
        let ct = CtfMatrix::construct::<U64Plus>(&grid, n, n, mine.clone()).gather_to_root(&grid);
        let pe = PetscMatrix::construct::<U64Plus>(comm, n, n, mine).gather_to_root(comm);
        (ours, cb, ct, pe)
    });
    let (ours, cb, ct, pe) = &out.results[0];
    assert_eq!(ours, cb, "ours vs CombBLAS-like");
    assert_eq!(ours, ct, "ours vs CTF-like");
    assert_eq!(ours, pe, "ours vs PETSc-like");
}

#[test]
fn all_systems_agree_on_spgemm() {
    let n: Index = 32;
    let out = dspgemm_mpi::run(4, move |comm| {
        let grid = Grid::new(comm);
        let mut timer = PhaseTimer::new();
        let feed_a = if comm.rank() == 0 {
            unique_random_triples(10, n, 100)
        } else {
            vec![]
        };
        let feed_b = if comm.rank() == 0 {
            unique_random_triples(11, n, 100)
        } else {
            vec![]
        };
        // Ours.
        let a = DistMat::from_global_triples(&grid, n, n, feed_a.clone(), 1, &mut timer);
        let b = DistMat::from_global_triples(&grid, n, n, feed_b.clone(), 1, &mut timer);
        let (c_ours, _) = summa::<U64Plus>(&grid, &a, &b, 1, &mut timer);
        // CombBLAS.
        let a_cb = CombBlasMatrix::construct::<U64Plus>(&grid, n, n, feed_a.clone());
        let b_cb = CombBlasMatrix::construct::<U64Plus>(&grid, n, n, feed_b.clone());
        let (c_cb, _) = combblas::spgemm::<U64Plus>(&grid, &a_cb, &b_cb);
        // CTF.
        let a_ct = CtfMatrix::construct::<U64Plus>(&grid, n, n, feed_a.clone());
        let b_ct = CtfMatrix::construct::<U64Plus>(&grid, n, n, feed_b.clone());
        let (c_ct, _) = ctf::spgemm::<U64Plus>(&grid, &a_ct, &b_ct);
        // PETSc.
        let a_pe = PetscMatrix::construct::<U64Plus>(comm, n, n, feed_a);
        let b_pe = PetscMatrix::construct::<U64Plus>(comm, n, n, feed_b);
        let (c_pe, _) = petsc::spgemm::<U64Plus>(comm, &a_pe, &b_pe);
        (
            c_ours.gather_to_root(comm),
            c_cb.gather_to_root(&grid),
            c_ct.gather_to_root(&grid),
            c_pe.gather_to_root(comm),
        )
    });
    let (ours, cb, ct, pe) = &out.results[0];
    assert_eq!(ours, cb, "ours vs CombBLAS-like product");
    assert_eq!(ours, ct, "ours vs CTF-like product");
    assert_eq!(ours, pe, "ours vs PETSc-like product");
}

#[test]
fn fig9_protocol_dynamic_equals_competitor_fold() {
    // The Fig. 9 protocol semantics: after k batches, our maintained C must
    // equal the competitors' C (sum of per-batch A*·B products).
    let n: Index = 28;
    let out = dspgemm_mpi::run(4, move |comm| {
        let grid = Grid::new(comm);
        let mut timer = PhaseTimer::new();
        let b_feed = if comm.rank() == 0 {
            unique_random_triples(20, n, 120)
        } else {
            vec![]
        };
        let mut b_ours = DistMat::from_global_triples(&grid, n, n, b_feed.clone(), 1, &mut timer);
        let mut a_ours: DistMat<u64> = DistMat::empty(&grid, n, n);
        let mut c_ours: DistMat<u64> = DistMat::empty(&grid, n, n);
        let b_cb = CombBlasMatrix::construct::<U64Plus>(&grid, n, n, b_feed);
        let mut c_cb = CombBlasMatrix::<u64>::empty(&grid, n, n);
        for round in 0..3u64 {
            let batch = random_triples(30 + round * 5 + comm.rank() as u64, n, 8);
            apply_algebraic_updates_exec::<U64Plus>(
                &grid,
                &mut a_ours,
                &mut b_ours,
                &mut c_ours,
                None,
                batch.clone(),
                vec![],
                &Exec::new(),
                &mut timer,
            );
            let a_star = CombBlasMatrix::construct::<U64Plus>(&grid, n, n, batch);
            let (delta, _) = combblas::spgemm::<U64Plus>(&grid, &a_star, &b_cb);
            c_cb.merge_add_local::<U64Plus>(&delta);
        }
        (c_ours.gather_to_root(comm), c_cb.gather_to_root(&grid))
    });
    let (ours, cb) = &out.results[0];
    assert_eq!(ours, cb);
}
