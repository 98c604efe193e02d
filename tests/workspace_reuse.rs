//! Workspace-reuse properties of the local kernels.
//!
//! A kernel call runs on the workspace it is lent and leaves its scratch
//! there, so a workspace must be *reused* across calls — its heap stops
//! growing once the workload's high-water marks are reached — rather than
//! silently reallocated, on skewed R-MAT inputs, where rows differ in size
//! by orders of magnitude.

use dspgemm::core::summa::{summa, summa_exec};
use dspgemm::core::{DistMat, Exec, Grid};
use dspgemm::graph::rmat::{generate, RmatParams};
use dspgemm::sparse::local_mm::{spgemm_with, Plain};
use dspgemm::sparse::semiring::{Semiring, U64Plus};
use dspgemm::sparse::workspace::KernelWorkspace;
use dspgemm::sparse::{Csr, Index, Triple};
use dspgemm::util::stats::PhaseTimer;

/// A skewed (Graph500 R-MAT) square matrix: hub rows carry orders of
/// magnitude more work than tail rows.
fn skewed_csr<S: Semiring>(
    seed: u64,
    scale: u32,
    m: usize,
    val: impl Fn(u64) -> S::Elem,
) -> Csr<S::Elem> {
    let n: Index = 1 << scale;
    let triples: Vec<Triple<S::Elem>> = generate(&RmatParams::GRAPH500, scale, m, seed)
        .into_iter()
        .enumerate()
        .map(|(i, (u, v))| Triple::new(u, v, val(i as u64 % 9 + 1)))
        .collect();
    Csr::from_triples::<S>(n, n, triples)
}

/// Distributed equivalence: SUMMA through a session [`Exec`], cold and then
/// warm, matches the fresh-workspace entry point on every grid size.
#[test]
fn summa_exec_schedules_match_across_grids() {
    let scale = 6u32;
    let n: Index = 1 << scale;
    for p in [1usize, 4, 9] {
        let out = dspgemm::mpi::run(p, move |comm| {
            let grid = Grid::new(comm);
            let mut timer = PhaseTimer::new();
            let t: Vec<Triple<u64>> = if comm.rank() == 0 {
                generate(&RmatParams::GRAPH500, scale, 900, 17)
                    .into_iter()
                    .map(|(u, v)| Triple::new(u, v, u64::from(u % 5 + 1)))
                    .collect()
            } else {
                vec![]
            };
            let a = DistMat::from_global_triples(&grid, n, n, t, 1, &mut timer);
            let exec = Exec::<U64Plus>::new();
            let (cold, cold_flops) = summa_exec::<U64Plus>(&grid, &a, &a, &exec, &mut timer);
            let (warm, flops) = summa_exec::<U64Plus>(&grid, &a, &a, &exec, &mut timer);
            assert_eq!(flops, cold_flops);
            let (c_plain, flops_plain) = summa::<U64Plus>(&grid, &a, &a, 1, &mut timer);
            assert_eq!(flops, flops_plain);
            (
                cold.gather_to_root(comm),
                warm.gather_to_root(comm),
                c_plain.gather_to_root(comm),
            )
        });
        let (cold, warm, c_plain) = &out.results[0];
        assert!(c_plain.as_ref().is_some_and(|c| !c.is_empty()), "p={p}");
        assert_eq!(cold, c_plain, "p={p}: cold exec path != default path");
        assert_eq!(warm, c_plain, "p={p}: warm exec path != default path");
    }
}

/// Workspace-reuse regression: repeated identical kernel calls on one
/// workspace reach their high-water capacities in the first call and then
/// hold its heap exactly flat — the scratch is reused, not silently
/// reallocated.
#[test]
fn workspace_reused_across_rounds() {
    let a = skewed_csr::<U64Plus>(59, 7, 2000, |v| v);
    let b = skewed_csr::<U64Plus>(61, 7, 2000, |v| v);
    let mut ws: KernelWorkspace<u64> = KernelWorkspace::new();
    let first = spgemm_with::<U64Plus, Plain, _, _, _>(&a, &b, &(), 0, &mut ws);
    assert!(first.flops > 0);
    let mut heaps = vec![ws.heap_bytes()];
    // Enough rounds that a per-call leak would show.
    for _ in 1..24 {
        let out = spgemm_with::<U64Plus, Plain, _, _, _>(&a, &b, &(), 0, &mut ws);
        assert_eq!(out.result, first.result);
        assert_eq!(out.flops, first.flops);
        heaps.push(ws.heap_bytes());
    }
    assert!(heaps[0] > 0, "the workspace retains capacity");
    assert!(
        heaps[1..].iter().all(|&h| h == heaps[1]),
        "workspace heap regrew: {heaps:?}"
    );
}

/// The engine's session [`Exec`] keeps its workspaces across update batches
/// instead of reallocating per batch: after the first batch they hold
/// capacity, it stays bounded across further batches, and only the
/// workspace of the payload the batches run holds any.
#[test]
fn engine_exec_pools_persist_across_batches() {
    let scale = 6u32;
    let n: Index = 1 << scale;
    let out = dspgemm::mpi::run(4, move |comm| {
        let grid = Grid::new(comm);
        let mut timer = PhaseTimer::new();
        let t: Vec<Triple<u64>> = if comm.rank() == 0 {
            generate(&RmatParams::GRAPH500, scale, 1200, 23)
                .into_iter()
                .map(|(u, v)| Triple::new(u, v, u64::from(v % 7 + 1)))
                .collect()
        } else {
            vec![]
        };
        let a = DistMat::from_global_triples(&grid, n, n, t.clone(), 1, &mut timer);
        let b = DistMat::from_global_triples(&grid, n, n, t, 1, &mut timer);
        let mut eng = dspgemm::core::DynSpGemm::<U64Plus>::new(&grid, a, b, 1, false);
        let after_init = eng.exec.heap_bytes();
        let mut heaps = Vec::new();
        for round in 0..4u64 {
            let ups: Vec<Triple<u64>> = generate(&RmatParams::GRAPH500, scale, 64, 100 + round)
                .into_iter()
                .map(|(u, v)| Triple::new(u, v, 1))
                .collect();
            eng.apply_algebraic(&grid, ups, vec![]);
            // Plain-valued batches (no filter matrix) run the plain
            // workspace only.
            let exec = &eng.exec;
            let plain = exec.plain().heap_bytes();
            let others = (exec.fused().heap_bytes(), exec.pattern().heap_bytes());
            assert!(plain > 0, "round {round}");
            assert_eq!(others, (0, 0), "round {round}");
            heaps.push(exec.heap_bytes());
        }
        (after_init, heaps)
    });
    for (after_init, heaps) in &out.results {
        assert!(
            *after_init > 0,
            "initial SUMMA must leave workspace capacity behind"
        );
        // Capacities may still grow while batches discover their high-water
        // marks, but must never exceed a small multiple of the first batch
        // (no per-round fresh allocation: 4 rounds of fresh O(ncols) SPA
        // scratch would quadruple this).
        let last = *heaps.last().unwrap();
        assert!(
            last <= heaps[0].max(*after_init) * 2,
            "session workspaces regrew per batch: init={after_init} heaps={heaps:?}"
        );
    }
}
