//! Snapshot-isolation properties of the epoch-versioned serving layer.
//!
//! The contract under test (ISSUE 5 acceptance):
//!
//! * queries pinned at epoch `e` are **bit-identical** to the pre-batch
//!   state while further batches apply — for `p ∈ {1, 4, 9}`, under both
//!   `U64Plus` and `MinPlus`, through algebraic and general batches;
//! * queries after a batch see epoch `e + 1` **exactly**, bit-identical to
//!   a blocking rerun (a from-scratch recomputation of the updated graph);
//! * publishing is copy-on-write: an epoch re-shares (`Arc::ptr_eq`) every
//!   block the batch did not touch, and a touched block's image — patched
//!   from the previous image and the batch's logged pattern — equals the
//!   full conversion of the block bit for bit, whatever mix of apply
//!   operators, engine batches and rollbacks preceded it;
//! * retained-epoch memory is bounded by the outstanding pins: with no
//!   pins, exactly one epoch stays alive no matter how many were published.

use dspgemm::analytics::{AnalyticsSession, TriangleCountView, TriangleReading};
use dspgemm::core::distmat::ImagePath;
use dspgemm::core::dyn_general::GeneralUpdates;
use dspgemm::core::engine::DynSpGemm;
use dspgemm::core::grid::Grid;
use dspgemm::core::update::{apply_add, apply_mask, apply_merge, build_update_matrix, Dedup};
use dspgemm::core::DistMat;
use dspgemm::mpi::run;
use dspgemm::sparse::semiring::{MinPlus, Semiring, U64Plus};
use dspgemm::sparse::{Csr, Index, Triple};
use dspgemm::util::rng::{Rng, SplitMix64};
use dspgemm::util::stats::PhaseTimer;
use std::sync::Arc;

fn random_triples<S: Semiring>(
    seed: u64,
    n: Index,
    count: usize,
    mk: impl Fn(u64) -> S::Elem,
) -> Vec<Triple<S::Elem>> {
    let mut rng = SplitMix64::new(seed);
    (0..count)
        .map(|_| {
            Triple::new(
                rng.gen_range(n as u64) as Index,
                rng.gen_range(n as u64) as Index,
                mk(rng.gen_range(9) + 1),
            )
        })
        .collect()
}

/// Pin epoch 0, drive an algebraic and a general batch through the engine,
/// and assert the pinned epoch is bit-stable while each later epoch equals
/// the blocking rerun.
fn engine_isolation_case<S: Semiring>(p: usize, mk: impl Fn(u64) -> S::Elem + Copy + Send + Sync) {
    let n: Index = 24;
    let out = run(p, move |comm| {
        let grid = Grid::new(comm);
        let mut timer = PhaseTimer::new();
        let feed = |s: u64| {
            if comm.rank() == 0 {
                random_triples::<S>(s, n, 80, mk)
            } else {
                vec![]
            }
        };
        let a = DistMat::from_global_triples(&grid, n, n, feed(1), 1, &mut timer);
        let b = DistMat::from_global_triples(&grid, n, n, feed(2), 1, &mut timer);
        let mut eng = DynSpGemm::<S>::new(&grid, a, b, 1, true);

        // Pin epoch 0 and record its full state.
        let pin0 = eng.snapshot();
        assert_eq!(pin0.epoch(), 0);
        let a0 = pin0.a().gather_to_root(comm);
        let c0 = pin0.c().gather_to_root(comm);
        let probe = (n / 2, n / 3);
        let c0_entry = pin0.c().get_collective(&grid, probe.0, probe.1);

        // Batch 1 (algebraic): pinned epoch must not move.
        eng.apply_algebraic(
            &grid,
            random_triples::<S>(10 + comm.rank() as u64, n, 10, mk),
            random_triples::<S>(20 + comm.rank() as u64, n, 10, mk),
        );
        let pin1 = eng.snapshot();
        assert_eq!(pin1.epoch(), 1);

        // Batch 2 (general): delete a slice of A.
        let a_cur = eng.a.gather_to_root(comm);
        let a_upd = if comm.rank() == 0 {
            let mut upd = GeneralUpdates::new();
            for t in a_cur.unwrap().iter().step_by(7) {
                upd.deletes.push((t.row, t.col));
            }
            upd
        } else {
            GeneralUpdates::new()
        };
        eng.apply_general(&grid, a_upd, GeneralUpdates::new());
        let pin2 = eng.snapshot();
        assert_eq!(pin2.epoch(), 2);

        // Isolation: epoch 0 is bit-identical to its recorded state after
        // two committed batches (gathered matrices and point reads alike).
        assert!(pin0.a().gather_to_root(comm) == a0);
        assert!(pin0.c().gather_to_root(comm) == c0);
        assert!(pin0.c().get_collective(&grid, probe.0, probe.1) == c0_entry);
        // Epoch 1 still differs from epoch 2's A (the general batch
        // deleted), so the pins really are distinct states — judged on the
        // root, the only rank `gather_to_root` materializes on (the gathers
        // themselves are collective: every rank calls both).
        let a1 = pin1.a().gather_to_root(comm);
        let a2 = pin2.a().gather_to_root(comm);
        let distinct = comm.rank() != 0 || a1 != a2;

        // Freshness: the latest epoch equals a blocking rerun — a static
        // SUMMA recomputation of the updated operands.
        let (c_rerun, _) = dspgemm::core::summa::summa::<S>(&grid, &eng.a, &eng.b, 1, &mut timer);
        assert!(pin2.c().gather_to_root(comm) == c_rerun.gather_to_root(comm));

        // Live snapshot reads match the pinned latest epoch.
        assert!(
            pin2.c().get_collective(&grid, probe.0, probe.1)
                == c_rerun.get_collective(&grid, probe.0, probe.1)
        );
        distinct
    });
    assert!(
        out.results.iter().all(|&d| d),
        "p={p}: epochs 1 and 2 must be distinct states"
    );
}

/// `row_topk` merges each rank's own top `k`: on every row of a product
/// whose scores tie in threes, at p ∈ {1, 4, 9} and k ∈ {1, 3, 7, n}, it
/// equals the whole row sorted by score, then by column, and cut at `k`.
#[test]
fn row_topk_equals_full_row_sort_with_ties() {
    let n: Index = 30;
    for p in [1usize, 4, 9] {
        run(p, move |comm| {
            let grid = Grid::new(comm);
            let mut timer = PhaseTimer::new();
            let feed = |s: u64| {
                let mine = random_triples::<U64Plus>(s, n, 150, |v| v);
                if comm.rank() == 0 {
                    mine
                } else {
                    vec![]
                }
            };
            let a = DistMat::from_global_triples(&grid, n, n, feed(5), 1, &mut timer);
            let b = DistMat::from_global_triples(&grid, n, n, feed(6), 1, &mut timer);
            let mut eng = DynSpGemm::<U64Plus>::new(&grid, a, b, 1, false);
            let snap = eng.snapshot();
            let score = |v: &u64| (*v % 3) as f64;
            for u in 0..n {
                let mut row: Vec<(Index, u64)> = comm.allgather(snap.c().row_local(u)).concat();
                row.sort_unstable_by(|(ca, va), (cb, vb)| {
                    score(vb).total_cmp(&score(va)).then(ca.cmp(cb))
                });
                for k in [1, 3, 7, n as usize] {
                    let want = &row[..k.min(row.len())];
                    assert_eq!(
                        snap.c().row_topk(&grid, u, k, score),
                        want,
                        "p={p}, u={u}, k={k}"
                    );
                }
            }
        });
    }
}

#[test]
fn engine_pinned_epochs_bit_stable_u64plus() {
    for p in [1usize, 4, 9] {
        engine_isolation_case::<U64Plus>(p, |v| v);
    }
}

#[test]
fn engine_pinned_epochs_bit_stable_minplus() {
    for p in [1usize, 4, 9] {
        engine_isolation_case::<MinPlus>(p, |v| v as f64);
    }
}

/// A batch that touches only `B` must re-share every rank's `A` block into
/// the next epoch by refcount (`Arc::ptr_eq`), while `C` changes — the
/// block-granular copy-on-write property.
#[test]
fn publish_is_copy_on_write_per_block() {
    let n: Index = 16;
    for p in [1usize, 4] {
        let out = run(p, move |comm| {
            let grid = Grid::new(comm);
            let mut timer = PhaseTimer::new();
            // A = I so C = B: every B update changes C somewhere.
            let ident: Vec<Triple<u64>> = if comm.rank() == 0 {
                (0..n).map(|i| Triple::new(i, i, 1u64)).collect()
            } else {
                vec![]
            };
            let b_feed = if comm.rank() == 0 {
                random_triples::<U64Plus>(5, n, 60, |v| v)
            } else {
                vec![]
            };
            let a = DistMat::from_global_triples(&grid, n, n, ident, 1, &mut timer);
            let b = DistMat::from_global_triples(&grid, n, n, b_feed, 1, &mut timer);
            let mut eng = DynSpGemm::<U64Plus>::new(&grid, a, b, 1, false);
            let s0 = eng.snapshot();
            // Update only B.
            let b_upd = if comm.rank() == 0 {
                random_triples::<U64Plus>(6, n, 20, |v| v)
            } else {
                vec![]
            };
            eng.apply_algebraic(&grid, vec![], b_upd);
            let s1 = eng.snapshot();
            assert_eq!(s1.epoch(), s0.epoch() + 1);
            // A blocks re-shared on every rank; C changed globally.
            let a_shared = Arc::ptr_eq(&s0.a().block_shared(), &s1.a().block_shared());
            let c_changed = s0.c().gather_to_root(comm) != s1.c().gather_to_root(comm);
            (a_shared, c_changed)
        });
        assert!(
            out.results.iter().all(|&(shared, _)| shared),
            "p={p}: A blocks must be COW-shared across epochs"
        );
        assert!(
            out.results[0].1,
            "p={p}: C must actually change (the test is vacuous otherwise)"
        );
    }
}

/// Analytics sessions: queries pinned at epoch `e` stay bit-identical while
/// insert and delete batches commit; post-batch queries see `e + 1` exactly
/// and equal a from-scratch session over the same graph (blocking rerun).
#[test]
fn session_pinned_queries_bit_stable() {
    let n: Index = 20;
    for p in [1usize, 4, 9] {
        let out = run(p, move |comm| {
            let feed = if comm.rank() == 0 {
                let mut tri = Vec::new();
                for (u, v) in [(0u32, 1u32), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)] {
                    tri.push(Triple::new(u, v, 1u64));
                    tri.push(Triple::new(v, u, 1u64));
                }
                tri
            } else {
                vec![]
            };
            let mut session = AnalyticsSession::<U64Plus>::from_triples(comm, n, 1, feed);
            let tri = session.register(Box::new(TriangleCountView::new()));
            let grid_q = |s: &AnalyticsSession<U64Plus>| {
                (
                    s.product_entry(0, 2),
                    s.product_row_topk(0, 4, |&v| v as f64),
                    s.global_nnz(),
                )
            };

            // Pin after registration.
            let pin = session.pin();
            let e = pin.epoch();
            assert_eq!(session.epoch(), e);
            let before = (
                pin.product_entry(session.grid(), 0, 2),
                pin.product_row_topk(session.grid(), 0, 4, |&v| v as f64),
                pin.global_nnz(session.grid()),
                pin.view_as::<TriangleReading>(tri).unwrap().count(),
            );
            let live_before = grid_q(&session);

            // Batch 1: inserts closing new triangles. Epoch advances by 1.
            let ins = if comm.rank() == 0 {
                vec![
                    Triple::new(4u32, 5u32, 1u64),
                    Triple::new(5, 4, 1),
                    Triple::new(3, 5, 1),
                    Triple::new(5, 3, 1),
                ]
            } else {
                vec![]
            };
            session.insert_edges(ins);
            assert_eq!(session.epoch(), e + 1);
            // Batch 2: delete an edge (general path). Epoch advances again.
            session.delete_edges(if comm.rank() == 0 {
                vec![(0, 1), (1, 0)]
            } else {
                vec![]
            });
            assert_eq!(session.epoch(), e + 2);

            // Isolation: the pinned epoch answers exactly as before.
            let after = (
                pin.product_entry(session.grid(), 0, 2),
                pin.product_row_topk(session.grid(), 0, 4, |&v| v as f64),
                pin.global_nnz(session.grid()),
                pin.view_as::<TriangleReading>(tri).unwrap().count(),
            );
            assert!(after == before, "pinned epoch moved under batches");
            // The live session moved on (the batches were not a no-op).
            let live_after = grid_q(&session);
            assert!(live_after != live_before);

            // Freshness: a from-scratch session over the updated graph (the
            // blocking rerun) agrees bit-identically with the latest epoch.
            let latest = session.pin();
            let a_now = latest.adjacency().gather_to_root(comm);
            let rerun =
                AnalyticsSession::<U64Plus>::from_triples(comm, n, 1, a_now.unwrap_or_default());
            let rerun_pin = rerun.pin();
            assert!(
                latest.product().gather_to_root(comm) == rerun_pin.product().gather_to_root(comm)
            );
            true
        });
        assert!(out.results.iter().all(|&x| x), "p={p}");
    }
}

/// Retention regression: with no outstanding pins exactly one epoch stays
/// alive however many batches commit, and the live footprint is the latest
/// epoch's alone; a held pin keeps exactly one extra epoch alive until
/// dropped.
#[test]
fn retention_bounded_by_pins() {
    let n: Index = 20;
    let out = run(4, move |comm| {
        let feed = if comm.rank() == 0 {
            random_triples::<U64Plus>(3, n, 120, |v| v)
        } else {
            vec![]
        };
        let mut session = AnalyticsSession::<U64Plus>::from_triples(comm, n, 1, feed);
        // Six unpinned batches: old epochs must die as they are superseded.
        for round in 0..6u64 {
            let ins = if comm.rank() == 0 {
                random_triples::<U64Plus>(40 + round, n, 8, |v| v)
            } else {
                vec![]
            };
            session.insert_edges(ins);
            assert_eq!(session.snapshots().retained(), 1, "round {round}");
        }
        let solo_bytes: usize = {
            let mut seen = Vec::new();
            session
                .snapshots()
                .live()
                .iter()
                .map(|s| s.heap_bytes_unshared(&mut seen))
                .sum()
        };
        let latest_bytes = session.pin().heap_bytes();
        assert_eq!(solo_bytes, latest_bytes, "no-pin footprint = latest epoch");

        // Hold a pin across three batches: exactly one extra epoch lives,
        // and the combined unshared footprint stays within 2x the latest
        // epoch (shared COW blocks are charged once).
        let pin = session.pin();
        for round in 0..3u64 {
            let ins = if comm.rank() == 0 {
                random_triples::<U64Plus>(60 + round, n, 8, |v| v)
            } else {
                vec![]
            };
            session.insert_edges(ins);
            assert_eq!(session.snapshots().retained(), 2);
        }
        let pinned_bytes: usize = {
            let mut seen = Vec::new();
            session
                .snapshots()
                .live()
                .iter()
                .map(|s| s.heap_bytes_unshared(&mut seen))
                .sum()
        };
        let latest_bytes = session.pin().heap_bytes();
        assert!(
            pinned_bytes <= 2 * latest_bytes,
            "retained footprint {pinned_bytes} exceeds 2x latest {latest_bytes}"
        );
        drop(pin);
        // The pinned epoch dies with its last handle — no publish needed.
        assert_eq!(session.snapshots().retained(), 1);
        assert_eq!(session.snapshots().published(), 1 + 6 + 3);
        true
    });
    assert!(out.results.iter().all(|&x| x));
}

/// Publishes `mat`'s image, checks it against the full conversion of the
/// block and tallies the path taken (`[shared, patched, rebuilt]`).
fn publish_checked(mat: &mut DistMat<u64>, paths: &mut [usize; 3], what: &str) -> Arc<Csr<u64>> {
    let (image, build) = mat.publish_image();
    assert!(
        *image == mat.block_csr(),
        "{what}: published image differs from the block ({build:?})"
    );
    assert_eq!(build.image_nnz, mat.local_nnz(), "{what}");
    paths[build.path as usize] += 1;
    image
}

/// The patch oracle: through random interleavings of the three apply
/// operators (one- and multi-threaded), rollbacks to earlier images and
/// batches big enough to overflow the touched log, with 0–3
/// mutations between publishes, every published image equals the full
/// conversion of its block — and so do the `A` and `C` images of an engine
/// under random algebraic and general batches. All three publish paths must
/// occur, or the test would prove nothing.
#[test]
fn published_images_equal_full_conversion() {
    let n: Index = 96;
    for p in [1usize, 4] {
        let out = run(p, move |comm| {
            let grid = Grid::new(comm);
            let mut timer = PhaseTimer::new();
            let me = comm.rank() as u64;
            // `plan` drives the collective decisions and must agree on all
            // ranks; `draw` feeds each rank's own tuples.
            let mut plan = SplitMix64::new(0x5EED);
            let mut draw = SplitMix64::new(0xD1CE + me);
            let mut tuples = |count: usize| -> Vec<Triple<u64>> {
                (0..count)
                    .map(|_| {
                        Triple::new(
                            draw.gen_range(n as u64) as Index,
                            draw.gen_range(n as u64) as Index,
                            draw.gen_range(9) + 1,
                        )
                    })
                    .collect()
            };
            let feed = |s: u64| {
                if comm.rank() == 0 {
                    random_triples::<U64Plus>(s, n, 2400, |v| v)
                } else {
                    vec![]
                }
            };

            // --- A matrix under the apply operators and rollback.
            let mut paths = [0usize; 3];
            let mut mat = DistMat::from_global_triples(&grid, n, n, feed(1), 1, &mut timer);
            let mut anchors = vec![publish_checked(&mut mat, &mut paths, "initial")];
            for step in 0..150 {
                for _ in 0..plan.gen_range(4) {
                    let count = if plan.gen_range(12) == 0 { 3000 } else { 12 };
                    match plan.gen_range(7) {
                        op @ 0..=5 => {
                            let dedup = if op < 2 { Dedup::Add } else { Dedup::LastWins };
                            let upd = build_update_matrix::<U64Plus>(
                                &grid,
                                n,
                                n,
                                tuples(count),
                                dedup,
                                &mut timer,
                            );
                            match op {
                                0 | 1 => apply_add::<U64Plus>(&mut mat, &upd),
                                2 | 3 => apply_merge::<U64Plus>(&mut mat, &upd, 1),
                                _ => apply_mask::<U64Plus>(&mut mat, &upd, 1),
                            }
                        }
                        _ => {
                            let pick = plan.next_u64() as usize;
                            let anchor = &anchors[pick % anchors.len()];
                            mat.restore_image(Arc::clone(anchor));
                        }
                    }
                }
                let image = publish_checked(&mut mat, &mut paths, &format!("step {step}"));
                if anchors.len() < 4 {
                    anchors.push(image);
                }
            }

            // --- An engine's A and C under Algorithms 1 and 2.
            let a = DistMat::from_global_triples(&grid, n, n, feed(2), 1, &mut timer);
            let b = DistMat::from_global_triples(&grid, n, n, feed(3), 1, &mut timer);
            let mut eng = DynSpGemm::<U64Plus>::new(&grid, a, b, 1, true);
            for step in 0..40 {
                for _ in 0..plan.gen_range(4) {
                    if plan.gen_range(2) == 0 {
                        eng.apply_algebraic(&grid, tuples(6), tuples(6));
                    } else {
                        let mut upd = GeneralUpdates::new();
                        upd.sets = tuples(3);
                        upd.deletes = eng
                            .a
                            .to_global_triples()
                            .iter()
                            .skip(step)
                            .step_by(211)
                            .map(|t| (t.row, t.col))
                            .collect();
                        eng.apply_general(&grid, upd, GeneralUpdates::new());
                    }
                }
                let a_image = publish_checked(&mut eng.a, &mut paths, &format!("A, step {step}"));
                let c_image = publish_checked(&mut eng.c, &mut paths, &format!("C, step {step}"));
                // The epoch carries exactly these images.
                let snap = eng.publish();
                assert!(Arc::ptr_eq(&snap.a().block_shared(), &a_image));
                assert!(Arc::ptr_eq(&snap.c().block_shared(), &c_image));
            }
            paths
        });
        for (rank, &[shared, patched, rebuilt]) in out.results.iter().enumerate() {
            assert!(
                shared >= 10 && patched >= 60 && rebuilt >= 5,
                "p={p} rank {rank}: paths shared={shared} patched={patched} rebuilt={rebuilt}"
            );
        }
    }
}

/// A pinned epoch's images are byte-identical before and after three later
/// patched publishes (a patch never writes to its base), and a rank the
/// batches routed nothing to still re-shares the pinned `Arc`.
#[test]
fn patched_publishes_leave_pinned_images_alone() {
    let n: Index = 64;
    let out = run(4, move |comm| {
        let grid = Grid::new(comm);
        let mut timer = PhaseTimer::new();
        let feed = |s: u64| {
            if comm.rank() == 0 {
                random_triples::<U64Plus>(s, n, 900, |v| v)
            } else {
                vec![]
            }
        };
        let a = DistMat::from_global_triples(&grid, n, n, feed(1), 1, &mut timer);
        let b = DistMat::from_global_triples(&grid, n, n, feed(2), 1, &mut timer);
        let mut eng = DynSpGemm::<U64Plus>::new(&grid, a, b, 1, false);
        let pin = eng.snapshot();
        let (a0, c0) = (pin.a().block().clone(), pin.c().block().clone());
        let mut patched = 0;
        for round in 0..3u64 {
            // Updates confined to A's block (0, 0): only rank 0's A block
            // and the C blocks of grid row 0 (ranks 0 and 1) can change.
            let ups: Vec<Triple<u64>> = if comm.rank() == 0 {
                random_triples::<U64Plus>(70 + round, n / 2, 10, |v| v)
            } else {
                vec![]
            };
            eng.apply_algebraic(&grid, ups, vec![]);
            let (_, build) = eng.c.publish_image();
            patched += usize::from(build.path == ImagePath::Patched);
            eng.publish();
        }
        assert!(*pin.a().block() == a0, "pinned A image was written to");
        assert!(*pin.c().block() == c0, "pinned C image was written to");
        let latest = eng.snapshot();
        let a_shared = Arc::ptr_eq(&pin.a().block_shared(), &latest.a().block_shared());
        let c_shared = Arc::ptr_eq(&pin.c().block_shared(), &latest.c().block_shared());
        (patched, a_shared, c_shared)
    });
    let patched: Vec<usize> = out.results.iter().map(|r| r.0).collect();
    let a_shared: Vec<bool> = out.results.iter().map(|r| r.1).collect();
    let c_shared: Vec<bool> = out.results.iter().map(|r| r.2).collect();
    assert_eq!(patched, [3, 3, 0, 0], "C patched where C* landed");
    assert_eq!(a_shared, [false, true, true, true]);
    assert_eq!(c_shared, [false, false, true, true]);
}
