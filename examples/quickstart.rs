//! Quickstart: build a distributed dynamic graph, keep `C = A · B` fresh
//! under batched updates, and inspect the communication savings.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use dspgemm::core::{engine::DynSpGemm, DistMat, Grid};
use dspgemm::graph::rmat::{generate_local, RmatParams};
use dspgemm::sparse::semiring::F64Plus;
use dspgemm::sparse::Triple;
use dspgemm::util::stats::{format_bytes, PhaseTimer};

fn main() {
    let p = 4; // simulated MPI ranks (2x2 grid)
    let scale = 12; // 4096-vertex R-MAT graph
    let n = 1u32 << scale;

    let sim = dspgemm_mpi::run(p, |comm| {
        let grid = Grid::new(comm);
        let mut timer = PhaseTimer::new();

        // Every rank independently generates its share of the edge stream —
        // no rank needs to know the data distribution (Section IV-B).
        let edges = generate_local(&RmatParams::GRAPH500, scale, 20_000, 42, comm.rank() as u64);
        let triples: Vec<Triple<f64>> =
            edges.iter().map(|&(u, v)| Triple::new(u, v, 1.0)).collect();

        // B: the adjacency matrix, built through the two-phase redistribution.
        // (The `1` is the retired intra-rank thread count: a rank is the
        // parallel unit.)
        let b = DistMat::from_global_triples(&grid, n, n, triples, 1, &mut timer);
        // A: starts empty; we will grow it dynamically.
        let a = DistMat::empty(&grid, n, n);

        // The engine owns A, B, C and keeps C = A·B under updates.
        let mut engine = DynSpGemm::<F64Plus>::new(&grid, a, b, 1, false);

        // Stream five insertion batches into A.
        for round in 0..5u64 {
            let batch: Vec<Triple<f64>> = generate_local(
                &RmatParams::GRAPH500,
                scale,
                256,
                100 + round,
                comm.rank() as u64,
            )
            .into_iter()
            .map(|(u, v)| Triple::new(u, v, 1.0))
            .collect();
            engine.apply_algebraic(&grid, batch, vec![]);
        }

        let nnz_a = engine.a.global_nnz(&grid);
        let nnz_b = engine.b.global_nnz(&grid);
        let nnz_c = engine.c.global_nnz(&grid);
        if comm.rank() == 0 {
            println!("after 5 dynamic batches on a {p}-rank grid:");
            println!("  nnz(A') = {nnz_a}");
            println!("  nnz(B)  = {nnz_b}");
            println!("  nnz(C') = {nnz_c}   (maintained, never recomputed from scratch)");
            println!("  local flops on rank 0: {}", engine.flops);
            println!("  phase breakdown (rank 0):");
            for &(name, d) in engine.timer.entries() {
                println!(
                    "    {name:<18} {}",
                    dspgemm::util::stats::format_duration(d)
                );
            }
        }
        nnz_c
    });

    println!(
        "total simulated communication: {} over {} messages",
        format_bytes(sim.stats.total_bytes()),
        sim.stats.total_msgs()
    );
    println!("{}", sim.stats);
    assert!(sim.results.iter().all(|&x| x == sim.results[0]));
}
