//! Dynamic triangle counting — the classic algebraic-graph use of SpGEMM
//! (the paper's intro cites triangle counting as a motivating application),
//! served through the analytics layer.
//!
//! An [`AnalyticsSession`] owns the adjacency matrix and keeps `C = A·A`
//! maintained with the shared-operand dynamic algorithm; a registered
//! [`TriangleCountView`] turns the shared per-batch product delta into an
//! incrementally maintained count (`#triangles = (Σ_{(u,v) ∈ A} c_{u,v})/6`
//! for an undirected simple graph), and the session's query API answers
//! point lookups and per-row top-k straight from the maintained product.
//! A last batch deletes edges: over `u64` the session deletes by adding
//! `−1`, so the view serves it from the same delta, and the count it keeps
//! is checked against a fresh session on the surviving edges.
//!
//! ```sh
//! cargo run --release --example triangle_counting
//! ```

use dspgemm::analytics::{AnalyticsSession, TriangleCountView};
use dspgemm::graph::{er, symmetrize};
use dspgemm::sparse::semiring::U64Plus;
use dspgemm::sparse::Triple;

fn main() {
    let p = 4;
    let n: u32 = 600;
    let sim = dspgemm_mpi::run(p, |comm| {
        // Start with a sparse random graph; keep it simple (no loops, no
        // multi-edges — A must stay 0/1-valued for exact counting, and the
        // algebraic path *adds*, so rank 0 filters already-present edges).
        let mut seen: std::collections::HashSet<(u32, u32)> = std::collections::HashSet::new();
        let base = symmetrize(&er::generate(n, 1200, 9));
        let triples: Vec<Triple<u64>> = if comm.rank() == 0 {
            base.iter()
                .filter(|&&(u, v)| u != v && seen.insert((u, v)))
                .map(|&(u, v)| Triple::new(u, v, 1))
                .collect()
        } else {
            vec![]
        };

        let mut session = AnalyticsSession::<U64Plus>::from_triples(comm, n, 1, triples);
        let tri = session.register(Box::new(TriangleCountView::new()));
        let count_of = |s: &AnalyticsSession<U64Plus>, tri| {
            s.view_as::<TriangleCountView>(tri).unwrap().count()
        };
        let count = |s: &AnalyticsSession<U64Plus>| count_of(s, tri);
        let mut counts = vec![count(&session)];

        // Insert undirected edge batches dynamically; each batch patches C
        // once and the view refreshes from the shared delta.
        for round in 0..4u64 {
            let new_edges = symmetrize(&er::generate(n, 150, 100 + round));
            let batch: Vec<Triple<u64>> = if comm.rank() == 0 {
                new_edges
                    .iter()
                    .filter(|&&(u, v)| u != v && seen.insert((u, v)))
                    .map(|&(u, v)| Triple::new(u, v, 1))
                    .collect()
            } else {
                vec![]
            };
            session.insert_edges(batch);
            counts.push(count(&session));
        }

        // The query API serves straight from the maintained product.
        let busiest = session.product_row_topk(0, 3, |&v| v as f64);
        let c_01 = session.product_entry(0, 1);

        // Delete every fifth undirected edge, both directions, in one batch.
        let mut edges: Vec<(u32, u32)> = seen.iter().copied().filter(|&(u, v)| u < v).collect();
        edges.sort_unstable();
        let gone: Vec<(u32, u32)> = edges.iter().step_by(5).copied().collect();
        let pairs = gone.iter().flat_map(|&(u, v)| [(u, v), (v, u)]).collect();
        session.delete_edges(pairs);
        counts.push(count(&session));
        // A fresh session on the surviving edges counts the same triangles.
        for &(u, v) in &gone {
            seen.remove(&(u, v));
            seen.remove(&(v, u));
        }
        let survivors = seen.iter().map(|&(u, v)| Triple::new(u, v, 1)).collect();
        let mut fresh = AnalyticsSession::<U64Plus>::from_triples(comm, n, 1, survivors);
        let fresh_tri = fresh.register(Box::new(TriangleCountView::new()));
        let recount = count_of(&fresh, fresh_tri);

        let view = session.view_as::<TriangleCountView>(tri).unwrap();
        (
            counts,
            busiest,
            c_01,
            view.incremental_refreshes,
            view.full_refreshes,
            recount,
        )
    });

    let (counts, busiest, c_01, incr, full, recount) = &sim.results[0];
    println!("dynamic triangle counts after each batch: {counts:?}");
    println!("top-3 of product row 0 (co-neighbor counts): {busiest:?}");
    println!("point lookup c(0,1): {c_01:?}");
    println!("view refreshes: {incr} incremental, {full} full rescans");
    println!("a fresh session on the surviving edges counts {recount}");
    // Monotone under the insertions, falling under the deletion, equal to a
    // fresh count; every refresh, the deletion's too, took the incremental
    // path.
    let (last, inserted) = counts.split_last().expect("counts per batch");
    assert!(inserted.windows(2).all(|w| w[0] <= w[1]));
    assert!(last < inserted.last().expect("the initial count"));
    assert_eq!(last, recount);
    assert_eq!(*incr, 5);
    assert_eq!(*full, 0);
    // All ranks agree (SPMD views).
    assert!(sim.results.iter().all(|r| r.0 == *counts));
    println!(
        "communication: {}",
        dspgemm::util::stats::format_bytes(sim.stats.total_bytes())
    );
}
