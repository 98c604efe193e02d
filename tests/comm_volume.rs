//! Communication-volume assertions — the paper's headline claims, checked
//! as hard test invariants rather than just benchmarks.

use dspgemm::core::dyn_algebraic::{apply_algebraic_updates_mode_exec, TransposeMode};
use dspgemm::core::summa::summa;
use dspgemm::core::update::{apply_add, build_update_matrix, Dedup};
use dspgemm::core::{DistMat, Exec, Grid};
use dspgemm::graph::catalog::small_instances;
use dspgemm::sparse::semiring::F64Plus;
use dspgemm::sparse::{Csr, Dcsr, Triple};
use dspgemm::util::stats::PhaseTimer;
use dspgemm::util::WireSize;

fn instance_triples() -> (u32, Vec<Triple<f64>>) {
    let spec = &small_instances(1)[0];
    let edges = spec.undirected_edges();
    (
        spec.n,
        edges.iter().map(|&(u, v)| Triple::new(u, v, 1.0)).collect(),
    )
}

/// DCSR beats CSR on the wire for hypersparse blocks — the Section IV
/// justification for communicating update matrices in DCSR.
#[test]
fn dcsr_wire_size_beats_csr_when_hypersparse() {
    let n = 100_000u32;
    let triples: Vec<Triple<f64>> = (0..200).map(|i| Triple::new(i * 499, 3, 1.0)).collect();
    let csr = Csr::from_sorted_triples(n, n, &triples);
    let dcsr = Dcsr::from_sorted_triples(n, n, &triples);
    assert!(
        dcsr.wire_bytes() * 50 < csr.wire_bytes(),
        "dcsr {} vs csr {}",
        dcsr.wire_bytes(),
        csr.wire_bytes()
    );
}

/// Algorithm 1 on a hypersparse batch moves far fewer bytes than a static
/// recomputation on a real (proxy) workload.
#[test]
fn dynamic_update_volume_beats_static_recompute() {
    let (n, triples) = instance_triples();
    let batch: Vec<Triple<f64>> = triples.iter().copied().take(64).collect();
    let triples2 = triples.clone();
    let batch2 = batch.clone();
    // Dynamic: construction + initial product + one Algorithm-1 batch.
    let dynamic = dspgemm_mpi::run(4, move |comm| {
        let grid = Grid::new(comm);
        let mut timer = PhaseTimer::new();
        let feed = if comm.rank() == 0 {
            triples.clone()
        } else {
            vec![]
        };
        let mut a = DistMat::from_global_triples(&grid, n, n, feed.clone(), 1, &mut timer);
        let mut b = DistMat::from_global_triples(&grid, n, n, feed, 1, &mut timer);
        let (mut c, _) = summa::<F64Plus>(&grid, &a, &b, 1, &mut timer);
        let ups = if comm.rank() == 0 {
            batch.clone()
        } else {
            vec![]
        };
        apply_algebraic_updates_mode_exec::<F64Plus>(
            &grid,
            &mut a,
            &mut b,
            &mut c,
            None,
            ups,
            vec![],
            TransposeMode::Virtual,
            &Exec::new(1),
            &mut timer,
        );
        c.local_nnz()
    });
    // Static: same prefix + update application + full SUMMA recomputation.
    let static_rerun = dspgemm_mpi::run(4, move |comm| {
        let grid = Grid::new(comm);
        let mut timer = PhaseTimer::new();
        let feed = if comm.rank() == 0 {
            triples2.clone()
        } else {
            vec![]
        };
        let mut a = DistMat::from_global_triples(&grid, n, n, feed.clone(), 1, &mut timer);
        let b = DistMat::from_global_triples(&grid, n, n, feed, 1, &mut timer);
        let (_, _) = summa::<F64Plus>(&grid, &a, &b, 1, &mut timer);
        let ups = if comm.rank() == 0 {
            batch2.clone()
        } else {
            vec![]
        };
        let upd = build_update_matrix::<F64Plus>(&grid, n, n, ups, Dedup::Add, &mut timer);
        apply_add::<F64Plus>(&mut a, &upd, 1);
        let (c2, _) = summa::<F64Plus>(&grid, &a, &b, 1, &mut timer);
        c2.local_nnz()
    });
    let dyn_bytes = dynamic.stats.total_bytes();
    let stat_bytes = static_rerun.stats.total_bytes();
    assert!(
        dyn_bytes < stat_bytes,
        "dynamic volume {dyn_bytes} must be below static {stat_bytes}"
    );
}

/// The paper's bandwidth claim: Algorithm 1's broadcast volume scales with
/// the update size, not with the operand size.
#[test]
fn bcast_volume_scales_with_batch_not_operands() {
    let (n, triples) = instance_triples();
    let volume_for_batch = |batch_len: usize| {
        let triples = triples.clone();
        let base = dspgemm_mpi::run(4, {
            let triples = triples.clone();
            move |comm| {
                let grid = Grid::new(comm);
                let mut timer = PhaseTimer::new();
                let feed = if comm.rank() == 0 {
                    triples.clone()
                } else {
                    vec![]
                };
                let a = DistMat::from_global_triples(&grid, n, n, feed.clone(), 1, &mut timer);
                let b = DistMat::from_global_triples(&grid, n, n, feed, 1, &mut timer);
                let (c, _) = summa::<F64Plus>(&grid, &a, &b, 1, &mut timer);
                c.local_nnz()
            }
        });
        let full = dspgemm_mpi::run(4, move |comm| {
            let grid = Grid::new(comm);
            let mut timer = PhaseTimer::new();
            let feed = if comm.rank() == 0 {
                triples.clone()
            } else {
                vec![]
            };
            let mut a = DistMat::from_global_triples(&grid, n, n, feed.clone(), 1, &mut timer);
            let mut b = DistMat::from_global_triples(&grid, n, n, feed.clone(), 1, &mut timer);
            let (mut c, _) = summa::<F64Plus>(&grid, &a, &b, 1, &mut timer);
            let ups: Vec<Triple<f64>> = if comm.rank() == 0 {
                triples.iter().copied().take(batch_len).collect()
            } else {
                vec![]
            };
            apply_algebraic_updates_mode_exec::<F64Plus>(
                &grid,
                &mut a,
                &mut b,
                &mut c,
                None,
                ups,
                vec![],
                TransposeMode::Virtual,
                &Exec::new(1),
                &mut timer,
            );
            c.local_nnz()
        });
        full.stats
            .bytes_in(dspgemm_mpi::CommCategory::Bcast)
            .saturating_sub(base.stats.bytes_in(dspgemm_mpi::CommCategory::Bcast))
    };
    let small = volume_for_batch(8);
    let big = volume_for_batch(512);
    // Bcast delta grows with the batch (update-driven), but both stay tiny
    // relative to broadcasting the operands like SUMMA would.
    assert!(
        big > small,
        "bcast volume must grow with batch: {small} vs {big}"
    );
}
