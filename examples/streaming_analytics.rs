//! Sliding-window streaming analytics — the "continuously changing inputs"
//! scenario of the paper's introduction (recommender systems / online social
//! networks), served as **concurrent maintained views** on one
//! [`AnalyticsSession`].
//!
//! A window of recent interactions enters and expires: insertions add `+1`,
//! expirations delete, which over `u64` is adding `−1` — both run
//! Algorithm 1, with `F` counting each product entry's paths. Each
//! round redistributes one shared batch that simultaneously refreshes the
//! maintained product `C = A·A` and three registered views — the triangle
//! count, link-prediction scores over a candidate mask, and the degree
//! vector — while the per-round cost tracks the batch, never the graph.
//!
//! ```sh
//! cargo run --release --example streaming_analytics
//! ```

use dspgemm::analytics::{AnalyticsSession, CommonNeighborsView, DegreeView, TriangleCountView};
use dspgemm::core::dyn_general::GeneralUpdates;
use dspgemm::graph::rmat::{generate_local, RmatParams};
use dspgemm::sparse::semiring::U64Plus;
use dspgemm::sparse::Triple;
use dspgemm::util::stats::format_bytes;

const WINDOW: usize = 3; // batches kept live
const ROUNDS: u64 = 6;
const BATCH: usize = 400;

fn batch_edges(scale: u32, round: u64, rank: usize) -> Vec<(u32, u32)> {
    let mut e = generate_local(
        &RmatParams::GRAPH500,
        scale,
        BATCH,
        1000 + round,
        rank as u64,
    );
    e.dedup();
    e
}

fn main() {
    let p = 4;
    let scale = 11;
    let n = 1u32 << scale;

    let sim = dspgemm_mpi::run(p, |comm| {
        // The session starts from a warm base graph so the candidate mask
        // and product are non-trivial from round 0.
        let base: Vec<Triple<u64>> =
            generate_local(&RmatParams::GRAPH500, scale, 8_000, 5, comm.rank() as u64)
                .into_iter()
                .map(|(u, v)| Triple::new(u, v, 1))
                .collect();
        let mut session = AnalyticsSession::<U64Plus>::from_triples(comm, n, 1, base);

        // Three concurrent views fed from each round's single shared batch.
        let tri = session.register(Box::new(TriangleCountView::new()));
        let candidates: Vec<(u32, u32)> = (0..40).map(|i| (i, (i * 7 + 3) % 64)).collect();
        let cn = session.register(Box::new(CommonNeighborsView::new(candidates)));
        let deg = session.register(Box::new(DegreeView::new(1u64)));

        let mut series = Vec::new();
        for round in 0..ROUNDS {
            // New interactions arrive (algebraic inserts).
            let arriving: Vec<Triple<u64>> = batch_edges(scale, round, comm.rank())
                .into_iter()
                .map(|(u, v)| Triple::new(u, v, 1))
                .collect();
            session.insert_edges(arriving);
            // The oldest batch expires (general deletions).
            if round >= WINDOW as u64 {
                let expiring = batch_edges(scale, round - WINDOW as u64, comm.rank());
                let mut upd = GeneralUpdates::new();
                upd.deletes = expiring;
                session.apply_general(upd);
            }
            let (nnz_a, nnz_c) = session.global_nnz();
            let triangles = session.view_as::<TriangleCountView>(tri).unwrap().count();
            let hot_pair = session
                .view_as::<CommonNeighborsView<U64Plus>>(cn)
                .unwrap()
                .top_k(session.grid(), 1, |&s| s as f64)
                .first()
                .copied();
            let deg0 = session
                .view_as::<DegreeView<U64Plus>>(deg)
                .unwrap()
                .degree(session.grid(), 0)
                .unwrap();
            series.push((nnz_a, nnz_c, triangles, hot_pair, deg0));
        }
        series
    });

    println!("round | nnz(A-window) | nnz(C) | triangles | hottest candidate | deg(0)");
    for (i, (a, c, t, hot, d0)) in sim.results[0].iter().enumerate() {
        let hot = hot
            .map(|(u, v, s)| format!("({u},{v})={s}"))
            .unwrap_or_else(|| "-".into());
        println!("{i:>5} | {a:>13} | {c:>6} | {t:>9} | {hot:>17} | {d0:>6}");
    }
    // The window caps A's size: after warm-up it stays roughly flat.
    let series = &sim.results[0];
    let warm = series[WINDOW - 1].0;
    let last = series.last().unwrap().0;
    assert!(
        last < warm * 2,
        "window should bound nnz(A): warm {warm}, last {last}"
    );
    // All ranks serve identical view values.
    assert!(sim.results.iter().all(|s| s == series));
    println!(
        "\ndynamic maintenance communication: {}",
        format_bytes(sim.stats.total_bytes())
    );
    println!("{}", sim.stats);
}
