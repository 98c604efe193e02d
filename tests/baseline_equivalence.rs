//! Cross-system equivalence: all four implementations (ours, CombBLAS-like,
//! CTF-like, PETSc-like) must produce identical results on identical
//! workloads — differences in the benchmarks are then attributable to
//! architecture, not to semantics.
//!
//! Each check is one generic function over [`Competitor`], run for every
//! system that offers the operation.

use dspgemm::baselines::{
    combblas::CombBlasMatrix, ctf::CtfMatrix, petsc::PetscMatrix, Competitor, Deletes, Fold,
};
use dspgemm::core::dyn_general::GeneralUpdates;
use dspgemm::core::summa::summa;
use dspgemm::core::update::{apply_add, apply_mask, apply_merge, build_update_matrix, Dedup};
use dspgemm::core::{DistMat, DynSpGemm, Grid};
use dspgemm::sparse::semiring::{MinPlus, U64Plus};
use dspgemm::sparse::{Index, Triple};
use dspgemm::util::rng::{Rng, SplitMix64};
use dspgemm::util::stats::PhaseTimer;

const P: usize = 4;

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

/// A rank-local value batch: stored positions and fresh ones, all in rows
/// `≡ rank (mod P)` so no two ranks write one position, with repeats inside
/// the batch (the last one must win).
fn value_batch(stored: &[Triple<u64>], rank: usize, n: Index, seed: u64) -> Vec<Triple<u64>> {
    let mine = |t: &Triple<u64>| t.row as usize % P == rank;
    let mut batch: Vec<Triple<u64>> = stored
        .iter()
        .filter(|t| mine(t))
        .step_by(2)
        .map(|t| Triple::new(t.row, t.col, 100 + seed + t.val))
        .collect();
    batch.extend(
        random_triples(seed * 31 + rank as u64, n, 12)
            .into_iter()
            .filter(mine),
    );
    let repeats: Vec<Triple<u64>> = batch
        .iter()
        .step_by(3)
        .map(|t| Triple::new(t.row, t.col, t.val + 1000))
        .collect();
    batch.extend(repeats);
    batch
}

fn construction_agrees<M: Competitor<u64>>(system: &str) {
    let n: Index = 40;
    let out = dspgemm_mpi::run(P, move |comm| {
        let grid = Grid::new(comm);
        let mut timer = PhaseTimer::new();
        // Same per-rank input everywhere; add-combine semantics everywhere.
        let mine = random_triples(1 + comm.rank() as u64, n, 120);
        let mut ours = DistMat::empty(&grid, n, n);
        let upd = build_update_matrix::<U64Plus>(&grid, n, n, mine.clone(), Dedup::Add, &mut timer);
        apply_add::<U64Plus>(&mut ours, &upd);
        let theirs = M::construct::<U64Plus>(&grid, n, n, mine);
        (ours.gather_to_root(comm), theirs.gather_to_root(&grid))
    });
    let (ours, theirs) = &out.results[0];
    assert_eq!(ours, theirs, "ours vs {system}");
}

#[test]
fn all_systems_agree_on_construction() {
    construction_agrees::<CombBlasMatrix<u64>>("CombBLAS-like");
    construction_agrees::<CtfMatrix<u64>>("CTF-like");
    construction_agrees::<PetscMatrix<u64>>("PETSc-like");
}

fn spgemm_agrees<M: Competitor<u64>>(system: &str) {
    let n: Index = 32;
    let out = dspgemm_mpi::run(P, move |comm| {
        let grid = Grid::new(comm);
        let mut timer = PhaseTimer::new();
        let feed = |seed| {
            if comm.rank() == 0 {
                unique_random_triples(seed, n, 100)
            } else {
                vec![]
            }
        };
        let a = DistMat::from_global_triples(&grid, n, n, feed(10), 1, &mut timer);
        let b = DistMat::from_global_triples(&grid, n, n, feed(11), 1, &mut timer);
        let (ours, _) = summa::<U64Plus>(&grid, &a, &b, 1, &mut timer);
        let a = M::construct::<U64Plus>(&grid, n, n, feed(10));
        let b = M::construct::<U64Plus>(&grid, n, n, feed(11));
        let (theirs, _) = M::spgemm::<U64Plus>(&grid, &a, &b);
        (ours.gather_to_root(comm), theirs.gather_to_root(&grid))
    });
    let (ours, theirs) = &out.results[0];
    assert_eq!(ours, theirs, "ours vs {system} product");
}

#[test]
fn all_systems_agree_on_spgemm() {
    spgemm_agrees::<CombBlasMatrix<u64>>("CombBLAS-like");
    spgemm_agrees::<CtfMatrix<u64>>("CTF-like");
    spgemm_agrees::<PetscMatrix<u64>>("PETSc-like");
}

/// Two rounds of value writes on a matrix held from rank 0: ours merges
/// them (`apply_merge`, last write wins), the competitor runs `update`.
fn updates_agree<M: Competitor<u64>>(system: &str) {
    let n: Index = 24;
    let out = dspgemm_mpi::run(P, move |comm| {
        let grid = Grid::new(comm);
        let mut timer = PhaseTimer::new();
        let stored = unique_random_triples(40, n, 150);
        let feed = if comm.rank() == 0 {
            stored.clone()
        } else {
            vec![]
        };
        let mut ours = DistMat::from_global_triples(&grid, n, n, feed.clone(), 1, &mut timer);
        let mut theirs = M::construct::<U64Plus>(&grid, n, n, feed);
        for round in 1..=2 {
            let batch = value_batch(&stored, comm.rank(), n, round);
            let upd = build_update_matrix::<U64Plus>(
                &grid,
                n,
                n,
                batch.clone(),
                Dedup::LastWins,
                &mut timer,
            );
            apply_merge::<U64Plus>(&mut ours, &upd, 1);
            theirs.update(&grid, batch);
        }
        (ours.gather_to_root(comm), theirs.gather_to_root(&grid))
    });
    let (ours, theirs) = &out.results[0];
    assert_eq!(ours, theirs, "ours vs {system} after replacement updates");
}

#[test]
fn all_systems_agree_on_replacement_updates() {
    updates_agree::<CombBlasMatrix<u64>>("CombBLAS-like");
    updates_agree::<CtfMatrix<u64>>("CTF-like");
    updates_agree::<PetscMatrix<u64>>("PETSc-like");
}

/// Deletions of stored and absent positions: ours masks them out
/// (`apply_mask`), the competitor runs `delete`.
fn deletions_agree<M: Deletes<u64>>(system: &str) {
    let n: Index = 24;
    let out = dspgemm_mpi::run(P, move |comm| {
        let grid = Grid::new(comm);
        let mut timer = PhaseTimer::new();
        let stored = unique_random_triples(50, n, 150);
        let feed = if comm.rank() == 0 {
            stored.clone()
        } else {
            vec![]
        };
        let mut ours = DistMat::from_global_triples(&grid, n, n, feed.clone(), 1, &mut timer);
        let mut theirs = M::construct::<U64Plus>(&grid, n, n, feed);
        let batch = value_batch(&stored, comm.rank(), n, 3);
        let upd =
            build_update_matrix::<U64Plus>(&grid, n, n, batch.clone(), Dedup::LastWins, &mut timer);
        apply_mask::<U64Plus>(&mut ours, &upd, 1);
        theirs.delete(&grid, batch);
        (ours.gather_to_root(comm), theirs.gather_to_root(&grid))
    });
    let (ours, theirs) = &out.results[0];
    assert!(ours.as_ref().unwrap().len() < 150, "nothing deleted");
    assert_eq!(ours, theirs, "ours vs {system} after deletions");
}

#[test]
fn deleting_systems_agree_on_deletions() {
    deletions_agree::<CombBlasMatrix<u64>>("CombBLAS-like");
    deletions_agree::<CtfMatrix<u64>>("CTF-like");
}

/// The Fig. 9 protocol semantics: after k batches, our maintained C must
/// equal the competitor's C (sum of per-batch A*·B products).
fn fold_agrees<M: Competitor<u64>>(system: &str) {
    let n: Index = 28;
    let out = dspgemm_mpi::run(P, move |comm| {
        let grid = Grid::new(comm);
        let mut timer = PhaseTimer::new();
        let b_feed = if comm.rank() == 0 {
            unique_random_triples(20, n, 120)
        } else {
            vec![]
        };
        let b_ours = DistMat::from_global_triples(&grid, n, n, b_feed.clone(), 1, &mut timer);
        let a_ours: DistMat<u64> = DistMat::empty(&grid, n, n);
        let mut ours = DynSpGemm::<U64Plus>::new(&grid, a_ours, b_ours, 1, false);
        let b = M::construct::<U64Plus>(&grid, n, n, b_feed);
        let mut c = M::Product::empty(&grid, n, n);
        for round in 0..3u64 {
            let batch = random_triples(30 + round * 5 + comm.rank() as u64, n, 8);
            ours.apply_algebraic(&grid, batch.clone(), vec![]);
            let a_star = M::construct::<U64Plus>(&grid, n, n, batch);
            let (delta, _) = M::spgemm::<U64Plus>(&grid, &a_star, &b);
            c.merge_add_local::<U64Plus>(&delta);
        }
        (ours.c.gather_to_root(comm), c.gather_to_root(&grid))
    });
    let (ours, theirs) = &out.results[0];
    assert_eq!(ours, theirs, "ours vs {system} fold");
}

#[test]
fn fig9_protocol_dynamic_equals_competitor_fold() {
    fold_agrees::<CombBlasMatrix<u64>>("CombBLAS-like");
    fold_agrees::<CtfMatrix<u64>>("CTF-like");
    fold_agrees::<PetscMatrix<u64>>("PETSc-like");
}

/// The Fig. 10 protocol semantics under `(min,+)`: after k rounds of value
/// writes into `A'`, our Algorithm 2 must hold the `A'·B` the competitor
/// recomputes from scratch. Later rounds overwrite earlier values with
/// larger and smaller ones alike.
fn recompute_agrees<M: Competitor<f64>>(system: &str) {
    let n: Index = 24;
    let out = dspgemm_mpi::run(P, move |comm| {
        let grid = Grid::new(comm);
        let mut timer = PhaseTimer::new();
        let weighted = |ts: Vec<Triple<u64>>| -> Vec<Triple<f64>> {
            ts.into_iter()
                .map(|t| Triple::new(t.row, t.col, t.val as f64))
                .collect()
        };
        let b_feed = if comm.rank() == 0 {
            weighted(unique_random_triples(60, n, 150))
        } else {
            vec![]
        };
        let a_pool = unique_random_triples(61, n, 60);
        let b_ours = DistMat::from_global_triples(&grid, n, n, b_feed.clone(), 1, &mut timer);
        let a_ours: DistMat<f64> = DistMat::empty(&grid, n, n);
        let mut ours = DynSpGemm::<MinPlus>::new(&grid, a_ours, b_ours, 1, true);
        let b = M::construct::<MinPlus>(&grid, n, n, b_feed);
        let mut a = M::construct::<MinPlus>(&grid, n, n, vec![]);
        for round in 0..3u64 {
            let batch: Vec<Triple<f64>> = a_pool
                .iter()
                .filter(|t| t.row as usize % P == comm.rank())
                .map(|t| {
                    let w = (t.val + 7 * round + t.col as u64) % 11 + 1;
                    Triple::new(t.row, t.col, w as f64)
                })
                .collect();
            let mut upd = GeneralUpdates::new();
            upd.sets = batch.clone();
            ours.apply_general(&grid, upd, GeneralUpdates::new());
            a.update(&grid, batch);
        }
        let (c, _) = M::spgemm::<MinPlus>(&grid, &a, &b);
        (ours.c.gather_to_root(comm), c.gather_to_root(&grid))
    });
    let (ours, theirs) = &out.results[0];
    assert!(!ours.as_ref().unwrap().is_empty(), "empty product");
    assert_eq!(ours, theirs, "ours vs {system} recompute");
}

#[test]
fn fig10_protocol_dynamic_equals_competitor_recompute() {
    recompute_agrees::<CombBlasMatrix<f64>>("CombBLAS-like");
    recompute_agrees::<CtfMatrix<f64>>("CTF-like");
}
