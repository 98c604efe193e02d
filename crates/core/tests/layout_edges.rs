//! Edge cases of the explicit [`Layout`] model and stripe migration that
//! the unit tests skip: zero-width stripes after a full corner collapse at
//! p = 9, migration correctness when all load concentrates on one rank,
//! index spaces smaller than the grid side, randomized properties of the
//! weighted cut solver, the COW guarantee that a migration leaves
//! untouched blocks' cached snapshot images shared (`Arc::ptr_eq`), and
//! two sessions in one process each rebalancing on its own loads.

use dspgemm_core::layout::{owner_of, rebalance_cuts, uniform_cuts};
use dspgemm_core::rebalance::imbalance;
use dspgemm_core::{DistMat, DynSpGemm, Grid, Layout, RebalanceConfig, SnapshotMat};
use dspgemm_mpi::run;
use dspgemm_sparse::semiring::U64Plus;
use dspgemm_sparse::{Index, Triple};
use dspgemm_util::rng::{Rng, SplitMix64};
use dspgemm_util::stats::PhaseTimer;
use std::sync::Arc;

fn dense_triples(n: Index) -> Vec<Triple<u64>> {
    (0..n)
        .flat_map(|r| (0..n).map(move |c| Triple::new(r, c, 1 + (r * n + c) as u64)))
        .collect()
}

/// Migrating to a fully collapsed cut vector (`[0, n, n, n]` at q = 3)
/// concentrates the whole matrix on rank (0, 0); every other rank's ranges
/// are zero-width. Nothing may be lost and a second migration back to the
/// uniform cuts must restore the original distribution bit-identically.
#[test]
fn corner_collapse_and_back_at_p9() {
    let n: Index = 30;
    let out = run(9, move |comm| {
        let grid = Grid::new(comm);
        let mut timer = PhaseTimer::new();
        let mine = if comm.rank() == 0 {
            dense_triples(n)
        } else {
            vec![]
        };
        let mut mat = DistMat::from_global_triples(&grid, n, n, mine, 1, &mut timer);
        let before = mat.gather_to_root(comm);
        let uniform_nnz = mat.local_nnz();
        let collapsed = Arc::new(Layout::square(vec![0, n, n, n]));
        mat.migrate_to(&grid, &collapsed, &mut timer);
        let corner_nnz = mat.local_nnz();
        let mid = mat.gather_to_root(comm);
        // A pinned point lookup asks the layout it was published under:
        // rank (0, 0) owns every coordinate now, the uniform owner of
        // (n − 1, n − 1) holds nothing.
        let (pinned, _) = SnapshotMat::publish(&mut mat);
        for (r, c) in [(0, 0), (n / 2, 1), (n - 1, n - 1)] {
            assert_eq!(pinned.info().owner_rank(&grid, r, c), 0);
            let want = Some(1 + (r * n + c) as u64);
            assert_eq!(pinned.get_collective(&grid, r, c), want);
            assert_eq!(mat.get_collective(&grid, r, c), want);
        }
        // Zero-width ranks hold nothing; rank 0 holds everything.
        if comm.rank() == 0 {
            assert_eq!(corner_nnz, (n * n) as usize);
        } else {
            assert_eq!(corner_nnz, 0);
        }
        let back = Arc::new(Layout::square(uniform_cuts(n, grid.q())));
        mat.migrate_to(&grid, &back, &mut timer);
        assert_eq!(
            mat.local_nnz(),
            uniform_nnz,
            "round trip restores the split"
        );
        let after = mat.gather_to_root(comm);
        if comm.rank() == 0 {
            let b = before.expect("root");
            assert_eq!(b, mid.expect("root"), "collapse loses nothing");
            assert_eq!(b, after.expect("root"), "round trip is lossless");
        }
    });
    assert_eq!(out.results.len(), 9);
}

/// A dynamic session whose entire update stream lands on one rank's block:
/// with an aggressive threshold the adaptive session migrates, ends below
/// the static rerun's nnz imbalance, and its maintained `C` must stay
/// bit-identical to the static rerun of the same stream (u64 arithmetic —
/// exact regardless of accumulation order).
#[test]
fn all_load_on_one_rank_migrates_and_matches_static_rerun() {
    let n: Index = 36;
    let arm = |adaptive: bool| {
        run(4, move |comm| {
            let grid = Grid::new(comm);
            let mut timer = PhaseTimer::new();
            let mine = if comm.rank() == 0 {
                (0..n).map(|i| Triple::new(i, (i + 1) % n, 1u64)).collect()
            } else {
                vec![]
            };
            let a = DistMat::from_global_triples(&grid, n, n, mine.clone(), 1, &mut timer);
            let b = DistMat::from_global_triples(&grid, n, n, mine, 1, &mut timer);
            let mut eng = DynSpGemm::<U64Plus>::new(&grid, a, b, 1, false);
            if adaptive {
                eng.enable_rebalancing(RebalanceConfig {
                    threshold: 1.05,
                    cooldown: 0,
                });
            }
            // Every batch targets the top-left corner: all new load on the
            // rank owning stripe 0 until the cuts move.
            let hot = (n / 6).max(1) as u64;
            let mut rng = SplitMix64::new(0xBEEF ^ comm.rank() as u64);
            let mut cs = Vec::new();
            let mut reads = Vec::new();
            let mut moved_reads = 0usize;
            let mut migrated = 0u64;
            for _ in 0..4 {
                let batch: Vec<Triple<u64>> = (0..50)
                    .map(|_| {
                        Triple::new(rng.gen_range(hot) as Index, rng.gen_range(hot) as Index, 1)
                    })
                    .collect();
                eng.apply_algebraic(&grid, batch.clone(), batch);
                if adaptive {
                    eng.maybe_rebalance(&grid).expect("fault-free");
                    migrated = eng.rebalancer().expect("enabled").migrations();
                }
                cs.push(eng.c.gather_to_root(comm));
                // Pinned reads of the epoch this batch (and its migration)
                // published, along the ring `C = A·A` keeps at (i, i + 2)
                // and down the hot column: a point lookup must find the
                // owner under the cuts the epoch was published with.
                let snap = eng.snapshot();
                let uniform = uniform_cuts(n, grid.q());
                for r in 0..n {
                    for c in [(r + 2) % n, 0] {
                        let pinned = snap.c().get_collective(&grid, r, c);
                        assert_eq!(pinned, eng.c.get_collective(&grid, r, c));
                        let cuts = snap.c().info().layout().row_cuts();
                        moved_reads += usize::from(
                            owner_of(cuts, r).0 != owner_of(&uniform, r).0
                                || owner_of(cuts, c).0 != owner_of(&uniform, c).0,
                        );
                        reads.push(pinned);
                    }
                    reads.extend(
                        snap.c()
                            .row_topk(&grid, r, 2, |v| *v as f64)
                            .into_iter()
                            .map(|(_, v)| Some(v)),
                    );
                }
            }
            // The policy's own load signal, after the last policy step.
            let load = (eng.a.local_nnz() + eng.c.local_nnz()) as u64;
            let imbalance = imbalance(&comm.allgather(load));
            (cs, migrated, reads, moved_reads, imbalance)
        })
    };
    let static_ = arm(false);
    let adaptive = arm(true);
    let (cs_s, _, reads_s, _, imbalance_s) = &static_.results[0];
    let (cs_a, migrations, reads_a, moved_reads, imbalance_a) = &adaptive.results[0];
    assert!(
        *migrations >= 1,
        "corner-concentrated load above threshold must migrate"
    );
    assert!(
        imbalance_a < imbalance_s,
        "adaptive nnz imbalance {imbalance_a} not below static {imbalance_s}"
    );
    assert!(
        *moved_reads > 0,
        "no pinned read landed in a stripe the migration moved"
    );
    assert_eq!(
        reads_s, reads_a,
        "pinned reads differ from the static rerun"
    );
    for (i, (s, a)) in cs_s.iter().zip(cs_a).enumerate() {
        assert_eq!(
            s.as_ref().expect("root"),
            a.as_ref().expect("root"),
            "C after batch {i} differs from the static rerun"
        );
    }
}

/// Two sessions of one process, one balanced and one with all its load in a
/// corner, decide concurrently. Both have published before either decides,
/// so a decision read from any process-wide state would see the other
/// session's numbers. Each must act on the loads of its own ranks.
#[test]
fn concurrent_sessions_decide_on_their_own_loads() {
    let n: Index = 32;
    let both_published = std::sync::Barrier::new(2);
    let session = |skewed: bool| {
        run(4, |comm| {
            let grid = Grid::new(comm);
            let mut timer = PhaseTimer::new();
            let mine: Vec<Triple<u64>> = match (comm.rank(), skewed) {
                (0, true) => dense_triples(n / 4),
                (0, false) => (0..n)
                    .flat_map(|i| (0..4).map(move |k| Triple::new(i, (i + 5 * k) % n, 1)))
                    .collect(),
                _ => vec![],
            };
            let a = DistMat::from_global_triples(&grid, n, n, mine, 1, &mut timer);
            let b = a.clone();
            // The constructor publishes epoch 0.
            let mut eng = DynSpGemm::<U64Plus>::new(&grid, a, b, 1, false);
            eng.enable_rebalancing(RebalanceConfig {
                threshold: 1.5,
                cooldown: 0,
            });
            let loads = comm.allgather((eng.a.local_nnz() + eng.c.local_nnz()) as u64);
            comm.barrier();
            if comm.rank() == 0 {
                both_published.wait();
            }
            comm.barrier();
            let migrated = eng.maybe_rebalance(&grid).expect("fault-free");
            let seen = eng.rebalancer().expect("enabled").last_imbalance();
            (migrated, seen, imbalance(&loads))
        })
    };
    let (balanced, skewed) = std::thread::scope(|s| {
        let balanced = s.spawn(|| session(false));
        let skewed = s.spawn(|| session(true));
        (
            balanced.join().expect("balanced session"),
            skewed.join().expect("skewed session"),
        )
    });
    for &(migrated, seen, own) in &balanced.results {
        assert_eq!(seen, own, "balanced session decided on foreign loads");
        assert!(own < 1.5 && !migrated, "balanced session migrated at {own}");
    }
    for &(migrated, seen, own) in &skewed.results {
        assert_eq!(seen, own, "skewed session decided on foreign loads");
        assert!(own > 1.5 && migrated, "skewed session stayed put at {own}");
    }
}

/// An index space smaller than the grid side (n = 2, q = 3): the uniform
/// layout already carries zero-width trailing stripes, and migrating such
/// a matrix to a different degenerate cut vector must stay lossless.
#[test]
fn index_space_smaller_than_grid_side_migrates() {
    let n: Index = 2;
    let out = run(9, move |comm| {
        let grid = Grid::new(comm);
        let mut timer = PhaseTimer::new();
        let mine = if comm.rank() == 3 {
            dense_triples(n)
        } else {
            vec![]
        };
        let mut mat = DistMat::from_global_triples(&grid, n, n, mine, 1, &mut timer);
        let before = mat.gather_to_root(comm);
        // Shift the single populated cell boundary: stripes 0 and 1 swap
        // widths (1,1,0) -> (2,0,0).
        let shifted = Arc::new(Layout::square(vec![0, n, n, n]));
        mat.migrate_to(&grid, &shifted, &mut timer);
        let after = mat.gather_to_root(comm);
        if comm.rank() == 0 {
            assert_eq!(before.expect("root"), after.expect("root"));
        }
        mat.local_nnz()
    });
    assert_eq!(out.results.iter().sum::<usize>(), (2 * 2) as usize);
}

/// Randomized properties of the weighted cut solver: exactly `q + 1`
/// monotone cuts with pinned endpoints, zero-load fallback to the uniform
/// split, and a collapse of all load into one stripe splits that stripe.
#[test]
fn rebalance_cuts_properties() {
    let mut rng = SplitMix64::new(42);
    for _ in 0..200 {
        let q = 1 + rng.gen_range(6) as usize;
        let n = (q as u64 + rng.gen_range(500)) as Index;
        let old = uniform_cuts(n, q);
        let loads: Vec<u64> = (0..q).map(|_| rng.gen_range(1000)).collect();
        let new = rebalance_cuts(&old, &loads);
        assert_eq!(new.len(), q + 1);
        assert_eq!(new[0], 0);
        assert_eq!(*new.last().expect("q+1 cuts"), n);
        assert!(
            new.windows(2).all(|w| w[0] <= w[1]),
            "cuts must stay monotone: {new:?} from loads {loads:?}"
        );
        // Every stripe index remains addressable through owner_of.
        for x in [0, n / 2, n - 1] {
            let (b, lo) = owner_of(&new, x);
            assert!(new[b] <= x && x < new[b + 1]);
            assert_eq!(lo, new[b]);
        }
    }
    // All-zero loads: the documented uniform fallback.
    assert_eq!(
        rebalance_cuts(&[0, 10, 20, 30], &[0, 0, 0]),
        uniform_cuts(30, 3)
    );
    // All load on the first stripe: the solver splits it.
    let new = rebalance_cuts(&[0, 30, 60, 90], &[900, 0, 0]);
    assert_eq!(new[0], 0);
    assert_eq!(new[3], 90);
    assert!(new[1] < 30 && new[2] <= 30, "hot stripe splits: {new:?}");
}

/// The COW migration guarantee: a rank whose row/column ranges are
/// untouched by the new cuts keeps its block *and its cached CSR snapshot
/// image* — the same `Arc` before and after (`Arc::ptr_eq`), so the next
/// epoch publish re-shares it by refcount. A rank whose ranges moved gets
/// its cache dropped and rebuilt.
#[test]
fn migration_keeps_untouched_block_caches_shared() {
    let n: Index = 99;
    let out = run(9, move |comm| {
        let grid = Grid::new(comm);
        let mut timer = PhaseTimer::new();
        let mine = if comm.rank() == 0 {
            dense_triples(n)
        } else {
            vec![]
        };
        let mut mat = DistMat::from_global_triples(&grid, n, n, mine, 1, &mut timer);
        let before = mat.snapshot_csr();
        // Uniform cuts are [0, 33, 66, 99]; moving only the first interior
        // cut leaves every stripe-2 range untouched.
        let new = Arc::new(Layout::square(vec![0, 20, 66, 99]));
        let stats = mat.migrate_to(&grid, &new, &mut timer);
        let (i, j) = grid.coords();
        let untouched = i == 2 && j == 2;
        if untouched {
            assert!(!stats.changed, "stripe-2 ranges are identical");
            assert!(
                mat.snapshot_cached(),
                "unchanged block keeps its snapshot image"
            );
            assert!(
                Arc::ptr_eq(&before, &mat.snapshot_csr()),
                "COW: untouched block re-shares the pre-migration Arc"
            );
        } else {
            assert!(stats.changed, "rank ({i},{j}) ranges moved");
            assert!(
                !Arc::ptr_eq(&before, &mat.snapshot_csr()),
                "migrated block must rebuild its snapshot image"
            );
        }
        (untouched, mat.local_nnz())
    });
    assert_eq!(out.results.iter().filter(|&&(u, _)| u).count(), 1);
    assert_eq!(
        out.results.iter().map(|&(_, m)| m).sum::<usize>(),
        (n * n) as usize
    );
}
