//! Property tests for the analytics subsystem: every registered view must
//! equal brute-force recomputation from the gathered graph after every
//! mixed insert/delete batch, on ER and R-MAT graphs, across semirings and
//! grid sizes — the acceptance invariant of the maintained-view design.

use dspgemm::analytics::{
    AnalyticsSession, CommonNeighborsView, DegreeView, ScoreReading, TriangleCountView,
};
use dspgemm::core::dyn_general::GeneralUpdates;
use dspgemm::graph::{er, rmat, symmetrize};
use dspgemm::sparse::dense::Dense;
use dspgemm::sparse::semiring::{MinPlus, Semiring, U64Plus};
use dspgemm::sparse::{Index, Triple};
use dspgemm::util::rng::{Rng, SplitMix64};

/// Brute-force `y = A · x` on the dense reference.
fn dense_spmv<S: Semiring>(a: &Dense<S::Elem>, x: &[S::Elem]) -> Vec<S::Elem> {
    let n = a.nrows();
    (0..n)
        .map(|r| {
            let mut acc = S::zero();
            for c in 0..n {
                acc = S::add(acc, S::mul(a.get(r, c), x[c as usize]));
            }
            acc
        })
        .collect()
}

/// Candidate pairs: a deterministic mix of likely edges and non-edges.
fn candidates(n: Index, seed: u64) -> Vec<(Index, Index)> {
    let mut rng = SplitMix64::new(seed);
    let mut pairs: Vec<(Index, Index)> = (0..30)
        .map(|_| {
            (
                rng.gen_range(n as u64) as Index,
                rng.gen_range(n as u64) as Index,
            )
        })
        .collect();
    pairs.sort_unstable();
    pairs.dedup();
    pairs
}

/// One full scenario over `u64`/`(+,·)`: 3 concurrent views, alternating
/// algebraic insert and general delete batches, brute-force checks after
/// every batch on every rank's returned values.
fn u64_scenario(p: usize, n: Index, base_edges: Vec<(u32, u32)>, seed: u64) {
    let cands = candidates(n, seed ^ 0xCAFE);
    let cands_in = cands.clone();
    let out = dspgemm_mpi::run(p, move |comm| {
        let triples: Vec<Triple<u64>> = if comm.rank() == 0 {
            base_edges
                .iter()
                .map(|&(u, v)| Triple::new(u, v, 1))
                .collect()
        } else {
            vec![]
        };
        let mut session = AnalyticsSession::<U64Plus>::from_triples(comm, n, 1, triples);
        let tri = session.register(Box::new(TriangleCountView::new()));
        let cn = session.register(Box::new(CommonNeighborsView::new(cands_in.clone())));
        let deg = session.register(Box::new(DegreeView::new(1u64)));
        assert_eq!(session.view_count(), 3);

        let mut checks: Vec<bool> = Vec::new();
        let mut witness: Vec<u64> = Vec::new();
        for round in 0..4u64 {
            if round % 2 == 0 {
                // Algebraic insert batch (every rank contributes).
                let fresh = symmetrize(&er::generate(
                    n,
                    6,
                    seed ^ (round * 17 + comm.rank() as u64),
                ));
                let batch: Vec<Triple<u64>> = fresh
                    .iter()
                    .filter(|&&(u, v)| u != v)
                    .map(|&(u, v)| Triple::new(u, v, 1))
                    .collect();
                session.insert_edges(batch);
            } else {
                // General delete batch drawn from the current global state.
                let cur = session.adjacency().gather_to_root(comm);
                let mut upd = GeneralUpdates::new();
                if let Some(cur) = cur {
                    let mut rng = SplitMix64::new(seed ^ (round * 31));
                    for _ in 0..5 {
                        if !cur.is_empty() {
                            let t = cur[rng.gen_index(cur.len())];
                            upd.deletes.push((t.row, t.col));
                        }
                    }
                }
                session.apply_general(upd);
            }

            // --- Brute-force references from the gathered state. ---
            let a_gathered = session.adjacency().gather_to_root(comm);
            let c_gathered = session.product().gather_to_root(comm);
            let tri_count = session.view_as::<TriangleCountView>(tri).unwrap().count();
            let degrees = session
                .view_as::<DegreeView<U64Plus>>(deg)
                .unwrap()
                .to_global(session.grid())
                .unwrap();
            let cn_view = session.view_as::<CommonNeighborsView<U64Plus>>(cn).unwrap();
            let scores: Vec<Option<u64>> = cands_in
                .iter()
                .map(|&(u, v)| cn_view.score(session.grid(), n, u, v))
                .collect();
            // Global aggregate over the maintained product plus point
            // lookups into the degree vector (both collective).
            let c_sum = session.product_aggregate(
                0u64,
                |acc, _r, _c, v| acc.wrapping_add(v),
                u64::wrapping_add,
            );
            let deg_view = session.view_as::<DegreeView<U64Plus>>(deg).unwrap();
            let deg_probe: Vec<u64> = [0, 1, n - 1]
                .iter()
                .map(|&u| deg_view.degree(session.grid(), u).unwrap())
                .collect();
            witness.push(tri_count);
            witness.push(c_sum);
            witness.extend(&deg_probe);

            if comm.rank() == 0 {
                let a_t = a_gathered.unwrap();
                let da = Dense::from_triples::<U64Plus>(n, n, &a_t);
                let dc_ref = da.matmul::<U64Plus>(&da);
                // Maintained product equals static recomputation.
                let dc = Dense::from_triples::<U64Plus>(n, n, &c_gathered.unwrap());
                checks.push(dc.diff(&dc_ref).is_empty());
                // Triangle view equals the brute-force masked sum.
                let mut masked = 0u64;
                for t in &a_t {
                    masked = masked.wrapping_add(dc_ref.get(t.row, t.col));
                }
                checks.push(tri_count == masked / 6);
                // Candidate scores equal the dense product (None ⇔ the
                // maintained product has no structural entry, whose dense
                // value must then be zero).
                for (&(u, v), score) in cands_in.iter().zip(&scores) {
                    let reference = dc_ref.get(u, v);
                    match score {
                        Some(s) => checks.push(*s == reference),
                        None => checks.push(reference == 0),
                    }
                }
                // Degrees equal A · 1, and the point lookups agree.
                let ones = vec![1u64; n as usize];
                let d = dense_spmv::<U64Plus>(&da, &ones);
                checks.push(deg_probe == vec![d[0], d[1], d[n as usize - 1]]);
                checks.push(degrees == d);
                // Aggregate equals the dense sum of all product entries.
                let mut dense_sum = 0u64;
                for r in 0..n {
                    for c in 0..n {
                        dense_sum = dense_sum.wrapping_add(dc_ref.get(r, c));
                    }
                }
                checks.push(c_sum == dense_sum);
            }
        }
        let view = session.view_as::<TriangleCountView>(tri).unwrap();
        let refreshes = (view.incremental_refreshes, view.full_refreshes);
        (checks, witness, session.epoch(), refreshes)
    });
    let (root_checks, root_witness, epoch, _) = &out.results[0];
    assert!(
        root_checks.iter().all(|&ok| ok),
        "p={p} n={n}: {} of {} brute-force checks failed",
        root_checks.iter().filter(|&&ok| !ok).count(),
        root_checks.len()
    );
    // Three view registrations and four batches each published an epoch.
    assert_eq!(*epoch, 3 + 4);
    // Every rank observed identical view values (SPMD agreement), and the
    // triangle view served every batch, deletions included, incrementally:
    // over the ring a session deletes by a negative algebraic update.
    for (rank, (_, witness, _, refreshes)) in out.results.iter().enumerate() {
        assert_eq!(witness, root_witness, "rank {rank} diverged");
        assert_eq!(*refreshes, (4, 0), "rank {rank}: (incremental, full)");
    }
}

#[test]
fn u64_views_match_brute_force_er() {
    let n: Index = 36;
    for p in [1usize, 4, 9] {
        let base = symmetrize(&er::generate(n, 90, 42));
        u64_scenario(p, n, base, 1000 + p as u64);
    }
}

#[test]
fn u64_views_match_brute_force_rmat() {
    let scale = 5; // 32 vertices, skewed degrees
    let n: Index = 1 << scale;
    for p in [1usize, 4, 9] {
        let base = symmetrize(&rmat::generate(&rmat::RmatParams::GRAPH500, scale, 80, 7));
        u64_scenario(p, n, base, 2000 + p as u64);
    }
}

/// MinPlus scenario: 2 concurrent views (triangle counting is `u64`-only)
/// under inserts, min-incompatible value increases and deletions.
#[test]
fn min_plus_views_match_brute_force() {
    let n: Index = 24;
    for p in [1usize, 4, 9] {
        let cands = candidates(n, 77);
        let cands_in = cands.clone();
        let out = dspgemm_mpi::run(p, move |comm| {
            let triples: Vec<Triple<f64>> = if comm.rank() == 0 {
                symmetrize(&er::generate(n, 60, 5))
                    .iter()
                    .map(|&(u, v)| Triple::new(u, v, ((u * 7 + v * 3) % 9 + 1) as f64))
                    .collect()
            } else {
                vec![]
            };
            let mut session = AnalyticsSession::<MinPlus>::from_triples(comm, n, 1, triples);
            let cn = session.register(Box::new(CommonNeighborsView::new(cands_in.clone())));
            let deg = session.register(Box::new(DegreeView::new(0.0f64)));
            assert_eq!(session.view_count(), 2);

            let mut checks: Vec<bool> = Vec::new();
            for round in 0..3u64 {
                match round {
                    0 => {
                        // Algebraic batch: min-combining inserts.
                        let batch: Vec<Triple<f64>> = if comm.rank() == 0 {
                            symmetrize(&er::generate(n, 8, 100))
                                .iter()
                                .filter(|&&(u, v)| u != v)
                                .map(|&(u, v)| Triple::new(u, v, 2.0))
                                .collect()
                        } else {
                            vec![]
                        };
                        session.insert_edges(batch);
                    }
                    _ => {
                        // General batch: value increases + deletions.
                        let cur = session.adjacency().gather_to_root(comm);
                        let mut upd = GeneralUpdates::new();
                        if let Some(cur) = cur {
                            let mut rng = SplitMix64::new(300 + round);
                            for _ in 0..4 {
                                if !cur.is_empty() {
                                    let t = cur[rng.gen_index(cur.len())];
                                    upd.sets.push(Triple::new(t.row, t.col, t.val + 10.0));
                                    let d = cur[rng.gen_index(cur.len())];
                                    upd.deletes.push((d.row, d.col));
                                }
                            }
                        }
                        session.apply_general(upd);
                    }
                }

                let a_gathered = session.adjacency().gather_to_root(comm);
                let c_gathered = session.product().gather_to_root(comm);
                let degrees = session
                    .view_as::<DegreeView<MinPlus>>(deg)
                    .unwrap()
                    .to_global(session.grid())
                    .unwrap();
                let cn_view = session.view_as::<CommonNeighborsView<MinPlus>>(cn).unwrap();
                let scores: Vec<Option<f64>> = cands_in
                    .iter()
                    .map(|&(u, v)| cn_view.score(session.grid(), n, u, v))
                    .collect();

                if comm.rank() == 0 {
                    let a_t = a_gathered.unwrap();
                    let da = Dense::from_triples::<MinPlus>(n, n, &a_t);
                    let dc_ref = da.matmul::<MinPlus>(&da);
                    let dc = Dense::from_triples::<MinPlus>(n, n, &c_gathered.unwrap());
                    checks.push(dc.diff(&dc_ref).is_empty());
                    for (&(u, v), score) in cands_in.iter().zip(&scores) {
                        let reference = dc_ref.get(u, v);
                        match score {
                            Some(s) => checks.push(*s == reference),
                            None => checks.push(reference == MinPlus::zero()),
                        }
                    }
                    let zeros = vec![0.0f64; n as usize];
                    checks.push(degrees == dense_spmv::<MinPlus>(&da, &zeros));
                }
            }
            checks
        });
        let root_checks = &out.results[0];
        assert!(
            root_checks.iter().all(|&ok| ok),
            "p={p}: {} of {} min-plus checks failed",
            root_checks.iter().filter(|&&ok| !ok).count(),
            root_checks.len()
        );
    }
}

/// `top_k` merges each rank's own `k` best: on a candidate set whose scores
/// tie in threes, at p ∈ {1, 4, 9} and k ∈ {1, 3, 7, all}, the live view and
/// its pinned reading both equal every candidate score sorted by score, then
/// by pair, and cut at `k`. A query is a reduction and a broadcast over the
/// world: `2·(p − 1)` messages.
#[test]
fn common_neighbors_top_k_equals_full_sort_with_ties() {
    let n: Index = 30;
    for p in [1usize, 4, 9] {
        let out = dspgemm_mpi::run(p, move |comm| {
            let edges = match comm.rank() {
                0 => symmetrize(&er::generate(n, 120, 0x70B)),
                _ => Vec::new(),
            };
            let triples = edges.iter().map(|&(u, v)| Triple::new(u, v, 1)).collect();
            let mut session = AnalyticsSession::<U64Plus>::from_triples(comm, n, 1, triples);
            let cands = (0..n)
                .flat_map(|u| (u + 1..n).map(move |v| (u, v)))
                .collect();
            let cn = session.register(Box::new(CommonNeighborsView::new(cands)));
            let pin = session.pin();
            let view = session.view_as::<CommonNeighborsView<U64Plus>>(cn).unwrap();
            let reading = pin.view_as::<ScoreReading<U64Plus>>(cn).unwrap();
            let score = |v: &u64| (*v % 3) as f64;
            let mine: Vec<(Index, Index, u64)> = view.local_scores().collect();
            let mut all = comm.allgather(mine).concat();
            all.sort_unstable_by(|(ua, va, sa), (ub, vb, sb)| {
                score(sb)
                    .total_cmp(&score(sa))
                    .then((ua, va).cmp(&(ub, vb)))
            });
            assert!(all.len() > 7, "p={p}: too few scores to cut");
            for k in [1, 3, 7, all.len() + 1] {
                let want = &all[..k.min(all.len())];
                let grid = session.grid();
                assert_eq!(view.top_k(grid, k, score), want, "p={p}, k={k}: live");
                assert_eq!(reading.top_k(grid, k, score), want, "p={p}, k={k}: pinned");
            }
            let sent = || comm.comm_stats().per_rank[comm.rank()].total_msgs();
            let before = sent();
            view.top_k(session.grid(), 3, score);
            sent() - before
        });
        let msgs: u64 = out.results.iter().sum();
        assert_eq!(msgs, 2 * (p as u64 - 1), "p={p}: messages of one query");
    }
}

/// Registration reads the maintained product: at p ∈ {4, 9, 16} a
/// `CommonNeighborsView` bootstraps without a message or a byte on the wire,
/// and every candidate's score equals the static `A·A` there.
#[test]
fn registering_common_neighbors_sends_nothing() {
    let n: Index = 40;
    for p in [4usize, 9, 16] {
        let cands = candidates(n, 0x5C0);
        let cands_in = cands.clone();
        let out = dspgemm_mpi::run(p, move |comm| {
            let edges = match comm.rank() {
                0 => symmetrize(&er::generate(n, 150, 0x5C1)),
                _ => Vec::new(),
            };
            let triples = edges.iter().map(|&(u, v)| Triple::new(u, v, 1)).collect();
            let mut session = AnalyticsSession::<U64Plus>::from_triples(comm, n, 1, triples);
            let sent = || {
                let me = &comm.comm_stats().per_rank[comm.rank()];
                (me.total_msgs(), me.total_bytes())
            };
            let before = sent();
            let cn = session.register(Box::new(CommonNeighborsView::new(cands_in.clone())));
            let after = sent();
            let view = session.view_as::<CommonNeighborsView<U64Plus>>(cn).unwrap();
            let scores: Vec<Option<u64>> = cands_in
                .iter()
                .map(|&(u, v)| view.score(session.grid(), n, u, v))
                .collect();
            let a = session.adjacency().gather_to_root(comm);
            ((after.0 - before.0, after.1 - before.1), scores, a)
        });
        for (rank, (moved, _, _)) in out.results.iter().enumerate() {
            assert_eq!(*moved, (0, 0), "p={p} rank={rank}: registration moved data");
        }
        let (_, scores, a) = &out.results[0];
        let da = Dense::from_triples::<U64Plus>(n, n, a.as_ref().unwrap());
        let want = da.matmul::<U64Plus>(&da);
        assert!(
            scores.iter().any(Option::is_some),
            "p={p}: no candidate scored"
        );
        for (&(u, v), score) in cands.iter().zip(scores) {
            assert_eq!(score.unwrap_or(0), want.get(u, v), "p={p} ({u}, {v})");
        }
    }
}
