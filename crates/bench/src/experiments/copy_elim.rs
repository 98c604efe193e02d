//! Copy-elimination ablation: zero-copy collective payloads + flat-buffer
//! local SpGEMM.
//!
//! The simulated MPI layer used to deep-clone every broadcast payload once
//! per receiving rank, and the Gustavson assembly allocated one `Vec` per
//! output row. This experiment quantifies what eliminating those copies is
//! worth: it times the p-rank dynamic-SpGEMM update benchmark and a static
//! SUMMA, and reports the wire volume next to the wall time so the
//! zero-copy path can be checked against the invariant that *logical*
//! communication volume (the paper's Fig. 7/12 metric) is unchanged —
//! only memcpy work disappears.

use crate::experiments::{edges_to_triples, prepare_instances, rank_slice, Prepared};
use crate::measure::{median, timed_collective};
use crate::report::{ms, ratio, Table};
use crate::Config;
use dspgemm_core::dyn_algebraic::{apply_algebraic_updates_mode_exec, TransposeMode};
use dspgemm_core::summa::summa;
use dspgemm_core::{DistMat, Exec, Grid};
use dspgemm_graph::stream::ReplacementDraws;
use dspgemm_sparse::local_mm::{spgemm, MmOutput};
use dspgemm_sparse::semiring::{F64Plus, Semiring};
use dspgemm_sparse::spa::Spa;
use dspgemm_sparse::{Csr, Dcsr, Index, RowRead, RowScan, Triple};
use dspgemm_util::par::parallel_map_ranges;
use dspgemm_util::stats::{format_bytes, PhaseTimer};
use dspgemm_util::WireSize;
use std::sync::Arc;
use std::time::Duration;

/// Per-rank update batch size: large enough that broadcast payloads and
/// SPA drains dominate over fixed per-round costs.
pub const COPY_ELIM_BATCH: usize = 4096;

/// Outcome of one benchmark arm.
#[derive(Debug, Clone)]
pub struct ArmResult {
    /// Median per-batch (or per-multiply) wall time.
    pub wall: Duration,
    /// Total wire bytes of the whole run (logical volume; must be invariant
    /// under copy elimination).
    pub bytes: u64,
    /// Total messages of the whole run.
    pub msgs: u64,
    /// Payload deep-clones performed by clone-based collectives during the
    /// run (zero on the shared/`Arc` path).
    pub payload_clones: u64,
}

/// The p-rank dynamic-SpGEMM update benchmark: both operands hold the full
/// adjacency matrix, then `cfg.batches` algebraic batches of
/// [`COPY_ELIM_BATCH`] tuples per rank update both `A` and `B`, exercising
/// the transpose exchanges, both broadcast passes, the local multiplies and
/// the sparse merge-reductions of Algorithm 1.
pub fn update_benchmark(cfg: &Config, inst: &Prepared, p: usize) -> ArmResult {
    let n = inst.n;
    let (threads, batches, seed) = (cfg.threads, cfg.batches, cfg.seed);
    let edges = &inst.edges;
    let out = dspgemm_mpi::run(p, |comm| {
        let grid = Grid::new(comm);
        let mut timer = PhaseTimer::new();
        let mine = edges_to_triples(&rank_slice(edges, comm.rank(), p));
        let mut a = DistMat::from_global_triples(&grid, n, n, mine.clone(), threads, &mut timer);
        let mut b = DistMat::from_global_triples(&grid, n, n, mine, threads, &mut timer);
        let (mut c, _) = summa::<F64Plus>(&grid, &a, &b, threads, &mut timer);
        let mut a_draws = ReplacementDraws::new(COPY_ELIM_BATCH, seed, comm.rank());
        let mut b_draws = ReplacementDraws::new(COPY_ELIM_BATCH, seed ^ 0x9e37, comm.rank());
        let mut times = Vec::new();
        for _ in 0..batches {
            let a_batch: Vec<Triple<f64>> = a_draws
                .next_batch(edges)
                .into_iter()
                .map(|(u, v)| Triple::new(u, v, 1.0))
                .collect();
            let b_batch: Vec<Triple<f64>> = b_draws
                .next_batch(edges)
                .into_iter()
                .map(|(u, v)| Triple::new(u, v, 1.0))
                .collect();
            let (_, d) = timed_collective(comm, || {
                apply_algebraic_updates_mode_exec::<F64Plus>(
                    &grid,
                    &mut a,
                    &mut b,
                    &mut c,
                    None,
                    a_batch,
                    b_batch,
                    TransposeMode::Virtual,
                    &Exec::new(threads),
                    &mut timer,
                )
            });
            times.push(d);
        }
        median(&times)
    });
    ArmResult {
        wall: out.results[0],
        bytes: out.stats.total_bytes(),
        msgs: out.stats.total_msgs(),
        payload_clones: payload_clones(&out),
    }
}

/// Static SUMMA of the full adjacency product at `p` ranks — the arm where
/// broadcast payloads are largest (whole operand blocks travel every round).
pub fn summa_benchmark(cfg: &Config, inst: &Prepared, p: usize) -> ArmResult {
    let n = inst.n;
    let threads = cfg.threads;
    let edges = &inst.edges;
    let out = dspgemm_mpi::run(p, |comm| {
        let grid = Grid::new(comm);
        let mut timer = PhaseTimer::new();
        let mine = edges_to_triples(&rank_slice(edges, comm.rank(), p));
        let a = DistMat::from_global_triples(&grid, n, n, mine, threads, &mut timer);
        let (_, d) = timed_collective(comm, || {
            summa::<F64Plus>(&grid, &a, &a, threads, &mut timer)
        });
        d
    });
    ArmResult {
        wall: out.results[0],
        bytes: out.stats.total_bytes(),
        msgs: out.stats.total_msgs(),
        payload_clones: payload_clones(&out),
    }
}

fn payload_clones<R>(out: &dspgemm_mpi::SimOutput<R>) -> u64 {
    out.payload_clones
}

/// One before/after pair for the collective-payload arm: broadcast this
/// rank's full CSR block around the grid row for `rounds` rounds, once with
/// the legacy clone-based `bcast` and once with `bcast_shared`.
/// Returns `(wall, wire bytes, payload clones, bytes deep-cloned)` per arm.
#[allow(clippy::type_complexity)]
pub fn bcast_arms(
    cfg: &Config,
    inst: &Prepared,
    p: usize,
) -> ((Duration, u64, u64, u64), (Duration, u64, u64, u64)) {
    let n = inst.n;
    let threads = cfg.threads;
    let edges = &inst.edges;
    let rounds = 8usize;
    let run_arm = |shared: bool| {
        let out = dspgemm_mpi::run(p, |comm| {
            let grid = Grid::new(comm);
            let mut timer = PhaseTimer::new();
            let mine = edges_to_triples(&rank_slice(edges, comm.rank(), p));
            let a = DistMat::from_global_triples(&grid, n, n, mine, threads, &mut timer);
            let block: Arc<Csr<f64>> = a.block_csr_shared();
            // Fence before the snapshots so construction traffic (and any
            // clone a setup path might ever perform) cannot leak into the
            // measured deltas.
            comm.barrier();
            let before = comm.comm_stats();
            let clones_before = comm.payload_clones();
            let q = grid.q();
            let (_, j) = grid.coords();
            let (_, d) = timed_collective(comm, || {
                for _ in 0..rounds {
                    for k in 0..q {
                        if shared {
                            let got = grid.row_comm().bcast_shared(
                                k,
                                if j == k {
                                    Some(Arc::clone(&block))
                                } else {
                                    None
                                },
                            );
                            std::hint::black_box(got.nnz());
                        } else {
                            let got: Csr<f64> = grid
                                .row_comm()
                                .bcast(k, if j == k { Some((*block).clone()) } else { None });
                            std::hint::black_box(got.nnz());
                        }
                    }
                }
            });
            let delta = comm.comm_stats().delta_since(&before);
            let clones = comm.payload_clones() - clones_before;
            // Every clone in this region is a forward of some root's block;
            // this rank's block is root `rounds` times and is deep-cloned
            // once per other row-comm member each time (clone-based arm).
            let my_cloned_bytes = if shared {
                0
            } else {
                rounds as u64 * (q as u64 - 1) * block.wire_bytes()
            };
            (d, delta.total_bytes(), clones, my_cloned_bytes)
        });
        let (wall, bytes, clones, _) = out.results[0];
        let cloned_bytes: u64 = out.results.iter().map(|&(_, _, _, b)| b).sum();
        (wall, bytes, clones, cloned_bytes)
    };
    (run_arm(false), run_arm(true))
}

/// One produced output row of the per-row-`Vec` reference path.
type BoxedRow<A> = (Index, Vec<(Index, A)>);

/// Legacy per-row-`Vec` Gustavson assembly — the "before" arm of the local
/// SpGEMM comparison. Semantically identical to
/// [`dspgemm_sparse::local_mm::spgemm`]; kept here (not in the library) as
/// the ablation baseline.
pub fn spgemm_boxed<S, L, R>(a: &L, b: &R, threads: usize) -> MmOutput<S::Elem>
where
    S: Semiring,
    L: RowScan<S::Elem> + Sync,
    R: RowRead<S::Elem> + Sync,
{
    assert_eq!(a.ncols(), b.nrows(), "inner dimension mismatch");
    let nrows = a.nrows();
    let ncols = b.ncols();
    let parts = parallel_map_ranges(threads.max(1), nrows as usize, |range| {
        let mut spa: Spa<S::Elem> = Spa::for_width(ncols);
        let mut rows: Vec<BoxedRow<S::Elem>> = Vec::new();
        let mut flops = 0u64;
        a.scan_row_range(
            range.start as Index,
            range.end as Index,
            |i, acols, avals| {
                for (&k, &av) in acols.iter().zip(avals) {
                    let (bcols, bvals) = b.row(k);
                    flops += bcols.len() as u64;
                    for (&j, &bv) in bcols.iter().zip(bvals) {
                        spa.scatter(j, S::mul(av, bv), S::add);
                    }
                }
                if !spa.is_empty() {
                    let mut entries = Vec::new();
                    spa.drain_sorted(&mut entries);
                    rows.push((i, entries));
                }
            },
        );
        (rows, flops)
    });
    let flops = parts.iter().map(|(_, f)| *f).sum();
    let mut result = Dcsr::empty(nrows, ncols);
    let mut cols_buf: Vec<Index> = Vec::with_capacity(64);
    let mut vals_buf: Vec<S::Elem> = Vec::with_capacity(64);
    for (rows, _) in parts {
        for (r, entries) in rows {
            cols_buf.clear();
            vals_buf.clear();
            cols_buf.extend(entries.iter().map(|&(c, _)| c));
            vals_buf.extend(entries.iter().map(|&(_, v)| v));
            result.push_row(r, &cols_buf, &vals_buf);
        }
    }
    MmOutput {
        result,
        flops,
        thread_flops: Vec::new(),
    }
}

/// Local-kernel arm: full-adjacency square product `A·A`, per-row-`Vec`
/// assembly vs the flat-buffer path. Returns `(boxed wall, flat wall)`;
/// panics if the outputs are not bit-identical.
pub fn local_mm_arms(cfg: &Config, inst: &Prepared) -> (Duration, Duration) {
    let n = inst.n;
    let a = Csr::from_triples::<F64Plus>(n, n, edges_to_triples(&inst.edges));
    let reps = 3;
    let mut boxed_walls = Vec::new();
    let mut flat_walls = Vec::new();
    let mut boxed_out = None;
    let mut flat_out = None;
    for _ in 0..reps {
        let t0 = std::time::Instant::now();
        boxed_out = Some(spgemm_boxed::<F64Plus, _, _>(&a, &a, cfg.threads));
        boxed_walls.push(t0.elapsed());
        let t1 = std::time::Instant::now();
        flat_out = Some(spgemm::<F64Plus, _, _>(&a, &a, cfg.threads));
        flat_walls.push(t1.elapsed());
    }
    let (boxed_out, flat_out) = (boxed_out.expect("ran"), flat_out.expect("ran"));
    assert_eq!(
        boxed_out.result, flat_out.result,
        "flat-buffer SpGEMM must be bit-identical to the per-row-Vec path"
    );
    assert_eq!(boxed_out.flops, flat_out.flops);
    (median(&boxed_walls), median(&flat_walls))
}

/// The `repro copy-elim` table.
pub fn run(cfg: &Config) -> Table {
    let mut t = Table::new(
        format!(
            "Ablation: copy elimination (zero-copy collectives + flat SpGEMM), p={}",
            cfg.p
        ),
        &[
            "benchmark",
            "wall",
            "wire bytes",
            "msgs",
            "payload clones",
            "bytes cloned",
        ],
    );
    let inst = &prepare_instances(cfg)[0];

    // End-to-end arms: the whole stack now runs zero-copy / flat.
    let upd = update_benchmark(cfg, inst, cfg.p);
    t.push_row(vec![
        format!("dynamic updates ({} / rank)", COPY_ELIM_BATCH),
        ms(upd.wall),
        format_bytes(upd.bytes),
        upd.msgs.to_string(),
        upd.payload_clones.to_string(),
        "-".to_string(),
    ]);
    let sm = summa_benchmark(cfg, inst, cfg.p);
    t.push_row(vec![
        "static SUMMA (full operands)".to_string(),
        ms(sm.wall),
        format_bytes(sm.bytes),
        sm.msgs.to_string(),
        sm.payload_clones.to_string(),
        "-".to_string(),
    ]);

    // Before/after arm 1: clone-based vs shared broadcast of a full block.
    let ((cw, cb, cc, ccb), (sw, sb, sc, scb)) = bcast_arms(cfg, inst, cfg.p);
    assert_eq!(
        cb, sb,
        "zero-copy transport must leave wire volume byte-identical"
    );
    assert_eq!(sc, 0, "shared broadcast must not deep-clone");
    t.push_row(vec![
        "block bcast, clone-based (before)".to_string(),
        ms(cw),
        format_bytes(cb),
        "-".to_string(),
        cc.to_string(),
        format_bytes(ccb),
    ]);
    t.push_row(vec![
        "block bcast, Arc-shared (after)".to_string(),
        ms(sw),
        format_bytes(sb),
        "-".to_string(),
        sc.to_string(),
        format_bytes(scb),
    ]);

    // Before/after arm 2: per-row-Vec vs flat-buffer local SpGEMM.
    let (boxed, flat) = local_mm_arms(cfg, inst);
    t.push_row(vec![
        "local SpGEMM, per-row Vec (before)".to_string(),
        ms(boxed),
        "-".to_string(),
        "-".to_string(),
        "-".to_string(),
        "-".to_string(),
    ]);
    t.push_row(vec![
        format!(
            "local SpGEMM, flat buffers (after, {})",
            ratio(boxed.as_secs_f64() / flat.as_secs_f64())
        ),
        ms(flat),
        "-".to_string(),
        "-".to_string(),
        "-".to_string(),
        "-".to_string(),
    ]);
    t.note("wire bytes are logical packed-message volume: invariant under zero-copy transport");
    t.note(
        "payload clones: deep copies made by clone-based collectives (0 on the Arc-shared path)",
    );
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn copy_elim_smoke() {
        let mut cfg = Config::smoke();
        cfg.instances = 1;
        cfg.batches = 1;
        let t = run(&cfg);
        assert_eq!(t.rows.len(), 6);
        // The whole dynamic-update stack must run zero-copy.
        assert_eq!(t.rows[0][4], "0");
        assert_eq!(t.rows[1][4], "0");
    }
}
