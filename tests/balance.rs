//! Schedule-equivalence and workspace-reuse properties of the skew-aware
//! local kernels.
//!
//! The [`RowSchedule`]s (contiguous / flop-balanced / work-stealing) move
//! *work* between intra-rank worker threads, never values between entries:
//! every kernel flavor (plain, bloom, pattern, masked) must produce
//! bit-identical output and identical total flops under every schedule at
//! every thread count, for both evaluated semirings — on skewed R-MAT
//! inputs, where the schedules actually split differently. The pooled
//! workspaces must be *reused* across calls (pool heap stops growing after
//! the first call) rather than silently reallocated.

use dspgemm::core::summa::{summa, summa_exec};
use dspgemm::core::{DistMat, Exec, Grid};
use dspgemm::graph::rmat::{generate, RmatParams};
use dspgemm::sparse::local_mm::{
    spgemm_bloom_with, spgemm_pattern_with, spgemm_with, KernelPlan, MmOutput,
};
use dspgemm::sparse::masked_mm::{masked_spgemm_bloom_with, MaskSet};
use dspgemm::sparse::semiring::{MinPlus, Semiring, U64Plus};
use dspgemm::sparse::workspace::WorkspacePool;
use dspgemm::sparse::{Csr, Index, Triple};
use dspgemm::util::par::RowSchedule;
use dspgemm::util::stats::PhaseTimer;

const SCHEDULES: [RowSchedule; 3] = [
    RowSchedule::Contiguous,
    RowSchedule::FlopBalanced,
    RowSchedule::WorkStealing,
];

const THREAD_COUNTS: [usize; 3] = [1, 4, 9];

/// A skewed (Graph500 R-MAT) square matrix: hub rows carry orders of
/// magnitude more work than tail rows, so the three schedules produce
/// genuinely different splits.
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

fn assert_same<A: PartialEq + std::fmt::Debug + Copy>(
    base: &MmOutput<A>,
    got: &MmOutput<A>,
    what: &str,
) {
    assert_eq!(base.result, got.result, "{what}: result differs");
    assert_eq!(base.flops, got.flops, "{what}: flops differ");
    assert_eq!(
        base.flops,
        got.thread_flops.iter().sum::<u64>(),
        "{what}: thread flops must sum to the total"
    );
}

fn check_all_kernels<S: Semiring>(seed: u64, val: impl Fn(u64) -> S::Elem + Copy) {
    let a = skewed_csr::<S>(seed, 7, 1500, val);
    let b = skewed_csr::<S>(seed ^ 0xABCD, 7, 1500, val);
    // Baselines: contiguous, single thread.
    let plain0 = spgemm_with::<S, _, _>(
        &a,
        &b,
        KernelPlan::with_schedule(1, RowSchedule::Contiguous),
    );
    let bloom0 = spgemm_bloom_with::<S, _, _>(
        &a,
        &b,
        5,
        KernelPlan::with_schedule(1, RowSchedule::Contiguous),
    );
    let pattern0 = spgemm_pattern_with(
        &a,
        &b,
        5,
        KernelPlan::with_schedule(1, RowSchedule::Contiguous),
    );
    // Mask = half of the full product's pattern (a genuinely partial mask).
    let all = plain0.result.to_triples();
    let half: Vec<_> = all[..all.len() / 2].to_vec();
    let mask = MaskSet::from_pairs(half.iter().map(|t| (t.row, t.col)));
    let masked0 = masked_spgemm_bloom_with::<S, _, _>(
        &a,
        &b,
        &mask,
        5,
        KernelPlan::with_schedule(1, RowSchedule::Contiguous),
    );
    for &threads in &THREAD_COUNTS {
        for &schedule in &SCHEDULES {
            let tag = format!("{} t={threads} {schedule:?}", S::name());
            // Pooled and unpooled plans must agree too; exercise pooling.
            let pool_plain = WorkspacePool::new();
            let plan = KernelPlan::with_schedule(threads, schedule).pooled(&pool_plain);
            assert_same(
                &plain0,
                &spgemm_with::<S, _, _>(&a, &b, plan),
                &format!("plain {tag}"),
            );
            let pool_fused = WorkspacePool::new();
            let plan = KernelPlan::with_schedule(threads, schedule).pooled(&pool_fused);
            assert_same(
                &bloom0,
                &spgemm_bloom_with::<S, _, _>(&a, &b, 5, plan),
                &format!("bloom {tag}"),
            );
            let pool_pat = WorkspacePool::new();
            let plan = KernelPlan::with_schedule(threads, schedule).pooled(&pool_pat);
            assert_same(
                &pattern0,
                &spgemm_pattern_with(&a, &b, 5, plan),
                &format!("pattern {tag}"),
            );
            let plan = KernelPlan::with_schedule(threads, schedule).pooled(&pool_fused);
            assert_same(
                &masked0,
                &masked_spgemm_bloom_with::<S, _, _>(&a, &b, &mask, 5, plan),
                &format!("masked {tag}"),
            );
        }
    }
}

#[test]
fn schedules_bit_identical_u64_plus() {
    check_all_kernels::<U64Plus>(41, |v| v);
}

#[test]
fn schedules_bit_identical_min_plus() {
    check_all_kernels::<MinPlus>(43, |v| v as f64);
}

/// Distributed equivalence: SUMMA under every schedule-carrying [`Exec`]
/// matches the default path on every grid size.
#[test]
fn summa_exec_schedules_match_across_grids() {
    let scale = 6u32;
    let n: Index = 1 << scale;
    for p in [1usize, 4, 9] {
        let mut gathered: Vec<Vec<Triple<u64>>> = Vec::new();
        for schedule in SCHEDULES {
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
                let a = DistMat::from_global_triples(&grid, n, n, t, 2, &mut timer);
                let exec = Exec::<U64Plus>::with_schedule(4, schedule);
                let (c, flops) = summa_exec::<U64Plus>(&grid, &a, &a, &exec, &mut timer);
                // Per-thread counters cover the whole local flop count.
                assert_eq!(timer.thread_flops().iter().sum::<u64>(), flops);
                c.gather_to_root(comm)
            });
            gathered.push(out.results[0].clone().unwrap_or_default());
        }
        assert_eq!(
            gathered[0], gathered[1],
            "p={p}: flop-balanced != contiguous"
        );
        assert_eq!(
            gathered[0], gathered[2],
            "p={p}: work-stealing != contiguous"
        );
        // And against the plain threads-based entry point.
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
            let a = DistMat::from_global_triples(&grid, n, n, t, 2, &mut timer);
            let (c, _) = summa::<U64Plus>(&grid, &a, &a, 4, &mut timer);
            c.gather_to_root(comm)
        });
        assert_eq!(
            gathered[0],
            out.results[0].clone().unwrap_or_default(),
            "p={p}: exec path != default path"
        );
    }
}

/// Workspace-reuse regression: repeated identical kernel calls against one
/// pool must not keep growing its heap (pooled buffers are actually reused,
/// not silently reallocated), and the pool must converge to one workspace
/// per worker thread.
#[test]
fn workspace_pool_reused_across_rounds() {
    let a = skewed_csr::<U64Plus>(59, 7, 2000, |v| v);
    let b = skewed_csr::<U64Plus>(61, 7, 2000, |v| v);
    // The schedule-independent cap: no worker can need more than the one
    // worker that computes every row. Its accumulator state is what a
    // one-thread pool retains; its output buffers move into the result, so
    // their entry count is read off there, doubled for `Vec` growth.
    let solo_pool: WorkspacePool<u64> = WorkspacePool::new();
    let solo = spgemm_with::<U64Plus, _, _>(&a, &b, KernelPlan::new(1).pooled(&solo_pool)).result;
    let index_bytes = std::mem::size_of::<Index>();
    let solo_out_bytes = solo.nnz() * (index_bytes + std::mem::size_of::<u64>())
        + (solo.nrows_stored() + 1) * (index_bytes + std::mem::size_of::<usize>());
    let per_worker_cap = solo_pool.heap_bytes() + 2 * solo_out_bytes;
    for schedule in SCHEDULES {
        let threads = 4;
        let pool: WorkspacePool<u64> = WorkspacePool::new();
        let mut heaps = Vec::new();
        // Enough rounds that a per-call leak (the pre-fix stealing schedule
        // stashed a buffer set per chunk per call) outgrows the cap.
        for _ in 0..24 {
            let plan = KernelPlan::with_schedule(threads, schedule).pooled(&pool);
            let out = spgemm_with::<U64Plus, _, _>(&a, &b, plan);
            assert!(out.flops > 0);
            assert!(
                pool.stashed() <= threads,
                "{schedule:?}: pool grew past one workspace per worker"
            );
            heaps.push(pool.heap_bytes());
        }
        assert!(heaps[0] > 0, "{schedule:?}: pooled buffers retain capacity");
        // Which stashed workspace a worker leases, and which chunks it then
        // steals, is nondeterministic, so a workspace may still grow when
        // it first serves a heavier share than before; the regression
        // property is boundedness, not flatness.
        let last = *heaps.last().unwrap();
        assert!(
            last <= threads * per_worker_cap,
            "{schedule:?}: pool heap {heaps:?} exceeds {threads} x {per_worker_cap}"
        );
    }
}

/// The engine's session [`Exec`] accumulates leased workspaces across update
/// batches instead of reallocating per batch: after the first batch the
/// session pools hold capacity, and it stays flat across further batches.
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
        let a = DistMat::from_global_triples(&grid, n, n, t.clone(), 2, &mut timer);
        let b = DistMat::from_global_triples(&grid, n, n, t, 2, &mut timer);
        let mut eng =
            dspgemm::core::DynSpGemm::<U64Plus>::new_with_exec(&grid, a, b, Exec::new(2), false);
        let after_init = eng.exec.heap_bytes();
        let mut heaps = Vec::new();
        for round in 0..4u64 {
            let ups: Vec<Triple<u64>> = generate(&RmatParams::GRAPH500, scale, 64, 100 + round)
                .into_iter()
                .map(|(u, v)| Triple::new(u, v, 1))
                .collect();
            eng.apply_algebraic(&grid, ups, vec![]);
            heaps.push(eng.exec.heap_bytes());
        }
        (after_init, heaps)
    });
    for (after_init, heaps) in &out.results {
        assert!(
            *after_init > 0,
            "initial SUMMA must leave pooled capacity behind"
        );
        // Capacities may still grow while batches discover their high-water
        // marks, but must never exceed a small multiple of the first batch
        // (no per-round fresh allocation: 4 rounds of fresh O(ncols) SPA
        // scratch would quadruple this).
        let last = *heaps.last().unwrap();
        assert!(
            last <= heaps[0].max(*after_init) * 2,
            "session pools regrew per batch: init={after_init} heaps={heaps:?}"
        );
    }
}
