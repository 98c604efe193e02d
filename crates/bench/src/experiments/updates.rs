//! Fig. 4–8: dynamic-update performance of the distributed data structure.

use crate::experiments::{edges_to_triples, prepare_instances, rank_slice, Prepared};
use crate::measure::{mean, median, timed_collective};
use crate::report::{ms, ratio, Table};
use crate::Config;
use dspgemm_baselines::{
    combblas::CombBlasMatrix, ctf::CtfMatrix, petsc::PetscMatrix, Competitor, Deletes,
};
use dspgemm_core::redistribute::phase as rphase;
use dspgemm_core::update::{apply_mask, apply_merge, build_update_matrix, Dedup};
use dspgemm_core::{DistMat, Grid};
use dspgemm_graph::rmat::{generate_local, RmatParams};
use dspgemm_graph::stream::{split_for_insertion, BatchedPool, ReplacementDraws};
use dspgemm_graph::Edge;
use dspgemm_sparse::semiring::F64Plus;
use dspgemm_sparse::Triple;
use dspgemm_util::hash::mix_pair;
use dspgemm_util::stats::PhaseTimer;
use std::time::Duration;

/// Per-batch-size defaults (per rank), scaled down from the paper's
/// 1024…131072 to match the proxy sizes.
pub const BATCH_SIZES: [usize; 4] = [64, 256, 1024, 4096];

/// The three update kinds of Section VII-B.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Fresh non-zeros from the withheld half (Fig. 4).
    Insert,
    /// New values for existing non-zeros (Fig. 5a).
    Update,
    /// Removal of existing non-zeros (Fig. 5b).
    Delete,
}

fn weighted(e: Edge, round: u64) -> Triple<f64> {
    Triple::new(e.0, e.1, 1.0 + (mix_pair(e.0, e.1) ^ round) as f64 % 97.0)
}

/// Draws rank-local update batches for `mode`, round by round.
fn draw_batch(
    mode: Mode,
    pool: &mut BatchedPool,
    existing: &[Edge],
    draws: &mut ReplacementDraws,
    round: u64,
) -> Vec<Triple<f64>> {
    match mode {
        Mode::Insert => pool
            .next_batch()
            .into_iter()
            .map(|e| Triple::new(e.0, e.1, 1.0))
            .collect(),
        Mode::Update => draws
            .next_batch(existing)
            .into_iter()
            .map(|e| weighted(e, round))
            .collect(),
        Mode::Delete => draws
            .next_batch(existing)
            .into_iter()
            .map(|e| Triple::new(e.0, e.1, 0.0))
            .collect(),
    }
}

/// Mean per-batch time of our dynamic structure, plus the critical-path
/// phase breakdown over all batches (per-phase maximum across ranks; for
/// Fig. 7).
pub fn ours_mean_batch(
    cfg: &Config,
    inst: &Prepared,
    mode: Mode,
    batch_size: usize,
    p: usize,
) -> (Duration, PhaseTimer) {
    let (initial, rest) = match mode {
        Mode::Insert => split_for_insertion(inst.edges.clone(), cfg.seed),
        _ => (inst.edges.clone(), inst.edges.clone()),
    };
    let n = inst.n;
    let batches = cfg.batches;
    let seed = cfg.seed;
    let out = dspgemm_mpi::run(p, |comm| {
        let grid = Grid::new(comm);
        let mut timer = PhaseTimer::new();
        let mine = edges_to_triples(&rank_slice(&initial, comm.rank(), p));
        let mut mat = DistMat::from_global_triples(&grid, n, n, mine, 1, &mut timer);
        // Fresh timer: measure only the update batches.
        let mut timer = PhaseTimer::new();
        let mut pool = BatchedPool::new(&rest, comm.rank(), p, batch_size, seed);
        let mut draws = ReplacementDraws::new(batch_size, seed, comm.rank());
        let mut times = Vec::new();
        for round in 0..batches as u64 {
            let batch = draw_batch(mode, &mut pool, &rest, &mut draws, round);
            let (_, d) = timed_collective(comm, || {
                let upd = build_update_matrix::<F64Plus>(
                    &grid,
                    n,
                    n,
                    batch.clone(),
                    Dedup::LastWins,
                    &mut timer,
                );
                timer.time(rphase::LOCAL_ADDITION, || match mode {
                    Mode::Delete => apply_mask::<F64Plus>(&mut mat, &upd, 1),
                    _ => apply_merge::<F64Plus>(&mut mat, &upd, 1),
                });
            });
            times.push(d);
        }
        (median(&times), timer)
    });
    let mut merged = PhaseTimer::new();
    for (_, pt) in &out.results {
        merged.merge_max(pt);
    }
    (out.results[0].0, merged)
}

/// How a competitor applies one rank-local batch of an update sweep.
type BatchOp<M> = fn(&mut M, &Grid, Vec<Triple<f64>>);

/// The operation a batch of `mode` runs on any competitor, or `None` for
/// deletions, which only a [`Deletes`] system offers.
fn write_op<M: Competitor<f64>>(mode: Mode) -> Option<BatchOp<M>> {
    match mode {
        Mode::Insert => Some(M::insert::<F64Plus>),
        Mode::Update => Some(M::update),
        Mode::Delete => None,
    }
}

/// The operation a batch of `mode` runs on a competitor that deletes.
fn batch_op<M: Deletes<f64>>(mode: Mode) -> BatchOp<M> {
    write_op(mode).unwrap_or(M::delete)
}

/// Median per-batch time of competitor `M` applying the `mode` batches of
/// [`ours_mean_batch`]'s protocol with `op`.
fn competitor_mean_batch<M: Competitor<f64>>(
    cfg: &Config,
    inst: &Prepared,
    mode: Mode,
    batch_size: usize,
    op: BatchOp<M>,
) -> Duration {
    let (initial, rest) = match mode {
        Mode::Insert => split_for_insertion(inst.edges.clone(), cfg.seed),
        _ => (inst.edges.clone(), inst.edges.clone()),
    };
    let (n, p, batches, seed) = (inst.n, cfg.p, cfg.batches, cfg.seed);
    dspgemm_mpi::run(p, |comm| {
        let grid = Grid::new(comm);
        let mine = edges_to_triples(&rank_slice(&initial, comm.rank(), p));
        let mut mat = M::construct::<F64Plus>(&grid, n, n, mine);
        let mut pool = BatchedPool::new(&rest, comm.rank(), p, batch_size, seed);
        let mut draws = ReplacementDraws::new(batch_size, seed, comm.rank());
        let mut times = Vec::new();
        for round in 0..batches as u64 {
            let batch = draw_batch(mode, &mut pool, &rest, &mut draws, round);
            let (_, d) = timed_collective(comm, || op(&mut mat, &grid, batch.clone()));
            times.push(d);
        }
        median(&times)
    })
    .results[0]
}

/// Figs. 4 / 5a / 5b: mean batch time vs batch size, ours vs CombBLAS, with
/// CTF/PETSc slowdown footnotes (as in the paper, which plots only the two
/// contenders and reports the others as lower bounds).
pub fn batch_size_sweep(cfg: &Config, mode: Mode) -> Table {
    let (fig, what) = match mode {
        Mode::Insert => ("Figure 4", "insertion"),
        Mode::Update => ("Figure 5a", "update"),
        Mode::Delete => ("Figure 5b", "deletion"),
    };
    let mut t = Table::new(
        format!("{fig}: mean {what} time per batch, p={}", cfg.p),
        &["batch/rank", "ours (ms)", "CombBLAS (ms)", "speedup"],
    );
    let instances = prepare_instances(cfg);
    let cb_op = batch_op::<CombBlasMatrix<f64>>(mode);
    for &bs in &BATCH_SIZES {
        let mut ours_all = Vec::new();
        let mut cb_all = Vec::new();
        for inst in &instances {
            ours_all.push(ours_mean_batch(cfg, inst, mode, bs, cfg.p).0);
            cb_all.push(competitor_mean_batch(cfg, inst, mode, bs, cb_op));
        }
        let o = mean(&ours_all);
        let c = mean(&cb_all);
        t.push_row(vec![
            bs.to_string(),
            ms(o),
            ms(c),
            ratio(c.as_secs_f64() / o.as_secs_f64()),
        ]);
    }
    // CTF / PETSc lower bounds at the largest batch size, first instance.
    let bs = *BATCH_SIZES.last().unwrap();
    let inst = &instances[0];
    let ours = ours_mean_batch(cfg, inst, mode, bs, cfg.p).0;
    let ctf = competitor_mean_batch(cfg, inst, mode, bs, batch_op::<CtfMatrix<f64>>(mode));
    t.note(format!(
        "CTF at least {} slower than ours ({}; paper: >=55x ins / >=59.8x upd / >=101x del)",
        ratio(ctf.as_secs_f64() / ours.as_secs_f64()),
        inst.name
    ));
    if let Some(op) = write_op::<PetscMatrix<f64>>(mode) {
        let petsc = competitor_mean_batch(cfg, inst, mode, bs, op);
        t.note(format!(
            "PETSc at least {} slower than ours ({}; paper: >=460x ins / >=477x upd)",
            ratio(petsc.as_secs_f64() / ours.as_secs_f64()),
            inst.name
        ));
    } else {
        t.note("PETSc does not support efficient deletions (excluded, as in the paper)");
    }
    t
}

/// Fig. 6: weak scalability of insertions — time per inserted non-zero for
/// p ∈ {1, 4, 16} (the paper's 1×4 / 4×4 / 16×4 node configurations).
pub fn fig6(cfg: &Config) -> Table {
    let mut t = Table::new(
        "Figure 6: weak scalability of insertions (time per non-zero)",
        &["p", "ns/nnz", "mean batch (ms)"],
    );
    let instances = prepare_instances(cfg);
    let bs = *BATCH_SIZES.last().unwrap();
    for p in [1usize, 4, 16] {
        let mut times = Vec::new();
        for inst in &instances {
            times.push(ours_mean_batch(cfg, inst, Mode::Insert, bs, p).0);
        }
        let m = mean(&times);
        let per_nnz = m.as_nanos() as f64 / (bs * p) as f64;
        t.push_row(vec![p.to_string(), format!("{per_nnz:.1}"), ms(m)]);
    }
    t.note("batch size fixed per rank; nnz/p constant = weak scaling (paper Fig. 6)");
    t
}

/// The rows of Fig. 7, in the paper's order.
const FIG7_PHASES: [&str; 5] = [
    rphase::REDIST_SORT,
    rphase::REDIST_COMM,
    rphase::MEM_MANAGEMENT,
    rphase::LOCAL_CONSTRUCT,
    rphase::LOCAL_ADDITION,
];

/// Fig. 7: breakdown of insertion time by phase, per rank count.
pub fn fig7(cfg: &Config) -> Table {
    let mut t = Table::new(
        "Figure 7: insertion time breakdown (critical path, ms over all batches)",
        &["phase", "p=1", "p=4", "p=16"],
    );
    let instances = prepare_instances(cfg);
    let bs = *BATCH_SIZES.last().unwrap();
    let mut per_p: Vec<PhaseTimer> = Vec::new();
    for p in [1usize, 4, 16] {
        let mut acc = PhaseTimer::new();
        for inst in &instances {
            acc.merge(&ours_mean_batch(cfg, inst, Mode::Insert, bs, p).1);
        }
        per_p.push(acc);
    }
    for phase in FIG7_PHASES {
        t.push_row(vec![
            phase.to_string(),
            ms(per_p[0].get(phase)),
            ms(per_p[1].get(phase)),
            ms(per_p[2].get(phase)),
        ]);
    }
    t.note("local operations dominate communication, as in the paper's Fig. 7");
    t
}

/// Fig. 8a/8b: parallel scalability of insertions on synthetic R-MAT graphs
/// (Graph500 parameters). Strong: fixed total insertions; weak: fixed
/// insertions per rank.
pub fn fig8(cfg: &Config, weak: bool) -> Table {
    // Paper: 2^30 total (strong) / 2^28 per rank (weak); scaled to this
    // machine: 2^20 total / 2^16 per rank.
    let scale = 16u32; // 65 536 vertices
    let total: usize = 1 << 20;
    let per_rank_weak: usize = 1 << 16;
    let batch = *BATCH_SIZES.last().unwrap();
    let title = if weak {
        format!("Figure 8b: weak scaling, R-MAT, {per_rank_weak} insertions/rank")
    } else {
        format!("Figure 8a: strong scaling, R-MAT, {total} insertions total")
    };
    let mut t = Table::new(title, &["p", "total (ms)", "ns/nnz", "speedup vs p=1"]);
    let seed = cfg.seed;
    let mut t1 = None;
    for p in [1usize, 4, 16] {
        let m_local = if weak { per_rank_weak } else { total / p };
        let out = dspgemm_mpi::run(p, |comm| {
            let grid = Grid::new(comm);
            let mut timer = PhaseTimer::new();
            let mut mat: DistMat<f64> = DistMat::empty(&grid, 1 << scale, 1 << scale);
            let edges = generate_local(
                &RmatParams::GRAPH500,
                scale,
                m_local,
                seed,
                comm.rank() as u64,
            );
            let (_, d) = timed_collective(comm, || {
                for chunk in edges.chunks(batch) {
                    let triples: Vec<Triple<f64>> =
                        chunk.iter().map(|&(u, v)| Triple::new(u, v, 1.0)).collect();
                    let upd = build_update_matrix::<F64Plus>(
                        &grid,
                        1 << scale,
                        1 << scale,
                        triples,
                        Dedup::LastWins,
                        &mut timer,
                    );
                    apply_merge::<F64Plus>(&mut mat, &upd, 1);
                }
            });
            d
        });
        let d = out.results[0];
        let inserted = m_local * p;
        let per_nnz = d.as_nanos() as f64 / inserted as f64;
        let speedup = match t1 {
            None => {
                t1 = Some(d);
                1.0
            }
            Some(base) => {
                if weak {
                    f64::NAN
                } else {
                    base.as_secs_f64() / d.as_secs_f64()
                }
            }
        };
        let speedup_s = if speedup.is_nan() {
            "-".to_string()
        } else {
            ratio(speedup)
        };
        t.push_row(vec![
            p.to_string(),
            ms(d),
            format!("{per_nnz:.1}"),
            speedup_s,
        ]);
    }
    if weak {
        t.note("time per non-zero should stay flat or fall (paper Fig. 8b)");
    } else {
        t.note("paper reaches 10.85x on 16 nodes (Fig. 8a)");
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_sweep_smoke() {
        let cfg = Config::smoke();
        let inst = &prepare_instances(&cfg)[0];
        let (d, phases) = ours_mean_batch(&cfg, inst, Mode::Insert, 32, cfg.p);
        assert!(d > Duration::ZERO);
        // Every Fig. 7 row is recorded.
        for phase in FIG7_PHASES {
            assert!(
                phases.entries().iter().any(|&(n, _)| n == phase),
                "{phase} missing from {:?}",
                phases.entries()
            );
        }
        let op = batch_op::<CombBlasMatrix<f64>>(Mode::Insert);
        let c = competitor_mean_batch(&cfg, inst, Mode::Insert, 32, op);
        assert!(c > Duration::ZERO);
    }

    #[test]
    fn update_and_delete_smoke() {
        let cfg = Config::smoke();
        let inst = &prepare_instances(&cfg)[0];
        assert!(ours_mean_batch(&cfg, inst, Mode::Update, 16, cfg.p).0 > Duration::ZERO);
        assert!(ours_mean_batch(&cfg, inst, Mode::Delete, 16, cfg.p).0 > Duration::ZERO);
        let ctf = batch_op::<CtfMatrix<f64>>(Mode::Update);
        assert!(competitor_mean_batch(&cfg, inst, Mode::Update, 16, ctf) > Duration::ZERO);
        let petsc = write_op::<PetscMatrix<f64>>(Mode::Update).unwrap();
        assert!(competitor_mean_batch(&cfg, inst, Mode::Update, 16, petsc) > Duration::ZERO);
    }
}
