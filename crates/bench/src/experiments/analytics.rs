//! Maintained-view serving vs. static recomputation.
//!
//! The analytics subsystem's claim: once `C = A·A` is maintained
//! dynamically, a whole registry of views (triangle count, link-prediction
//! candidates, degree vector) refreshes from one shared hypersparse batch —
//! so per-batch latency tracks the *batch*, not the graph. The static
//! strategy the baselines are forced into pays a full SUMMA product per
//! batch before it can re-derive any view.
//!
//! Both sides run identical workloads: the same alternating insert/delete
//! batch sequence, the same three maintained quantities, the same query
//! surface. Reported times are modeled end-to-end batch latencies (see
//! [`crate::measure::BatchCost::modeled`]); communication volume is exact.

use crate::experiments::{prepare_instances, rank_slice, Prepared};
use crate::measure::{per_batch, BatchCost};
use crate::report::{ms, ratio, Table};
use crate::Config;
use dspgemm_analytics::{AnalyticsSession, CommonNeighborsView, DegreeView, TriangleCountView};
use dspgemm_core::spmv::{spmv, DistVec};
use dspgemm_core::summa::summa_bloom;
use dspgemm_core::update::{apply_add, build_update_matrix, Dedup};
use dspgemm_core::{meter, BatchReport, DistMat, Grid};
use dspgemm_graph::stream::ReplacementDraws;
use dspgemm_graph::Edge;
use dspgemm_sparse::semiring::U64Plus;
use dspgemm_sparse::{Index, RowScan, Triple};
use dspgemm_util::stats::{format_bytes, PhaseTimer};

/// Candidate pairs for the link-prediction view: a fixed slice of the
/// instance's own edge list (realistic: "will these interactions recur?").
fn instance_candidates(inst: &Prepared) -> Vec<(Index, Index)> {
    let mut cands: Vec<(Index, Index)> = inst.edges.iter().take(64).copied().collect();
    cands.sort_unstable();
    cands.dedup();
    cands
}

/// One round's work: `(algebraic inserts, positions to delete)`.
pub(crate) type Round = (Vec<Triple<u64>>, Vec<(Index, Index)>);

/// The shared batch schedule (also [`crate::experiments::serve`]'s): per
/// round, either an insert batch (per-rank uniform draws) or the deletion of
/// the batch inserted two rounds earlier.
pub(crate) fn schedule(
    edges: &[Edge],
    rank: usize,
    batch_size: usize,
    rounds: usize,
    seed: u64,
) -> Vec<Round> {
    let mut draws = ReplacementDraws::new(batch_size, seed, rank);
    let mut inserted: Vec<Vec<Edge>> = Vec::new();
    let mut plan = Vec::new();
    for round in 0..rounds {
        if round % 2 == 0 {
            let batch = draws.next_batch(edges);
            inserted.push(batch.clone());
            plan.push((
                batch
                    .into_iter()
                    .map(|(u, v)| Triple::new(u, v, 1))
                    .collect(),
                Vec::new(),
            ));
        } else {
            // Expire the batch inserted in the previous insert round.
            let expiring = inserted[round / 2].clone();
            plan.push((Vec::new(), expiring));
        }
    }
    plan
}

/// Commits one round on the session: insertions for an insert round,
/// deletions for an expire round — over `u64` both algebraic updates,
/// Algorithm 1 on path counts. Collective.
pub(crate) fn commit_round(session: &mut AnalyticsSession<U64Plus>, round: Round) -> BatchReport {
    match round {
        (inserts, deletes) if deletes.is_empty() => session.insert_edges(inserts),
        (_, deletes) => session.delete_edges(deletes),
    }
}

/// One batch step of the *static* strategy: apply the updates to `A`, then
/// recompute the product and every view quantity from scratch.
fn static_step(
    grid: &Grid,
    a: &mut DistMat<u64>,
    inserts: Vec<Triple<u64>>,
    deletes: &[(Index, Index)],
    cands: &[(Index, Index)],
    timer: &mut PhaseTimer,
) -> (u64, u64) {
    let n = a.info().nrows;
    // Apply the updates (same redistribution machinery as the dynamic side).
    let star = build_update_matrix::<U64Plus>(grid, n, n, inserts, Dedup::Add, timer);
    apply_add::<U64Plus>(a, &star);
    let del_tuples: Vec<Triple<u64>> = deletes.iter().map(|&(r, c)| Triple::new(r, c, 0)).collect();
    let del = build_update_matrix::<U64Plus>(grid, n, n, del_tuples, Dedup::LastWins, timer);
    dspgemm_core::update::apply_mask::<U64Plus>(a, &del, 1);
    // Full product recomputation — the cost the dynamic engine avoids.
    let (c, _f, _) = summa_bloom::<U64Plus>(grid, a, a, 1, timer);
    // Re-derive the three view quantities.
    let mut masked = 0u64;
    a.block().scan_rows(|r, cols, _| {
        for &cc in cols {
            masked = masked.wrapping_add(c.block().get(r, cc).unwrap_or(0));
        }
    });
    let triangles = grid.world().allreduce(masked, u64::wrapping_add) / 6;
    let info = c.info();
    let mut cand_sum = 0u64;
    for &(u, v) in cands {
        if info.row_range.contains(&u) && info.col_range.contains(&v) {
            let (lr, lc) = info.to_local(u, v);
            cand_sum = cand_sum.wrapping_add(c.block().get(lr, lc).unwrap_or(0));
        }
    }
    let cand_sum = grid.world().allreduce(cand_sum, u64::wrapping_add);
    let x = DistVec::constant(grid, n, 1u64);
    let (_degrees, _) = spmv::<U64Plus>(grid, a, &x);
    (triangles, cand_sum)
}

/// Per-rank batch sizes, matching [`crate::experiments::spgemm`]'s choice:
/// the paper's hypersparse regime (`nnz(A*) ≪ nnz(A)`) at proxy scale.
pub const ANALYTICS_BATCHES: [usize; 3] = [16, 64, 256];

/// Per-batch view-refresh latency: maintained session vs. static
/// recomputation, per instance and batch size. Insert and expire rounds
/// are reported separately: an expiry removes entries of `C` whose path
/// count reaches zero, an insert only adds.
pub fn run(cfg: &Config) -> Table {
    let mut table = Table::new(
        "Analytics: maintained views vs. static recomputation (per batch)",
        &[
            "instance",
            "|batch|/rank",
            "insert (model)",
            "expire (model)",
            "static (model)",
            "speedup ins",
            "speedup exp",
            "insert bytes",
            "static bytes",
        ],
    );
    let instances = prepare_instances(cfg);
    for inst in &instances {
        for &batch_size in &ANALYTICS_BATCHES {
            let (ins, exp) = dynamic_cost(cfg, inst, batch_size);
            let (stat_ins, stat_exp) = static_cost(cfg, inst, batch_size);
            let stat = BatchCost::median(&[stat_ins.clone(), stat_exp.clone()]);
            table.push_row(vec![
                inst.name.into(),
                batch_size.to_string(),
                ms(ins.modeled()),
                ms(exp.modeled()),
                ms(stat.modeled()),
                ratio(stat.modeled().as_secs_f64() / ins.modeled().as_secs_f64().max(1e-9)),
                ratio(stat.modeled().as_secs_f64() / exp.modeled().as_secs_f64().max(1e-9)),
                format_bytes(ins.crit_bytes),
                format_bytes(stat.crit_bytes),
            ]);
        }
    }
    table.note(format!(
        "p = {}, {} alternating insert/expire batches; three maintained \
         views (triangles, 64-pair link prediction, degrees) refreshed every batch",
        cfg.p,
        cfg.batches.max(2)
    ));
    table.note(
        "modeled = wall + critical-path bytes / 12.5 GB/s + 1 us/message \
         (see measure.rs); bytes are exact metered volume (critical path)",
    );
    table.note(
        "the dynamic advantage needs the hypersparse regime nnz(A*) << nnz(A); \
         at proxy scale large batches approach the static crossover, as in Fig. 9",
    );
    table
}

/// Splits a run's per-round reports (`runs[rank][round]`) into the
/// insert-round and the expire-round median cost; the schedule alternates,
/// starting with an insert.
fn split_medians(runs: &[Vec<BatchReport>]) -> (BatchCost, BatchCost) {
    let costs = per_batch(runs);
    let ins: Vec<BatchCost> = costs.iter().step_by(2).cloned().collect();
    let exp: Vec<BatchCost> = costs.iter().skip(1).step_by(2).cloned().collect();
    (
        BatchCost::median(&ins),
        BatchCost::median(if exp.is_empty() { &ins } else { &exp }),
    )
}

fn dynamic_cost(cfg: &Config, inst: &Prepared, batch_size: usize) -> (BatchCost, BatchCost) {
    let n = inst.n;
    let (p, rounds, seed) = (cfg.p, cfg.batches.max(2), cfg.seed);
    let edges = &inst.edges;
    let cands = instance_candidates(inst);
    let out = dspgemm_mpi::run(p, |comm| {
        let base = rank_slice(edges, comm.rank(), p)
            .into_iter()
            .map(|(u, v)| Triple::new(u, v, 1u64))
            .collect();
        let mut session = AnalyticsSession::<U64Plus>::from_triples(comm, n, 1, base);
        session.register(Box::new(TriangleCountView::new()));
        session.register(Box::new(CommonNeighborsView::new(cands.clone())));
        session.register(Box::new(DegreeView::new(1u64)));
        let plan = schedule(edges, comm.rank(), batch_size, rounds, seed);
        let commit = |round| commit_round(&mut session, round);
        plan.into_iter().map(commit).collect()
    });
    split_medians(&out.results)
}

fn static_cost(cfg: &Config, inst: &Prepared, batch_size: usize) -> (BatchCost, BatchCost) {
    let n = inst.n;
    let (p, rounds, seed) = (cfg.p, cfg.batches.max(2), cfg.seed);
    let edges = &inst.edges;
    let cands = instance_candidates(inst);
    let out = dspgemm_mpi::run(p, |comm| {
        let grid = Grid::new(comm);
        let mut timer = PhaseTimer::new();
        let base: Vec<Triple<u64>> = rank_slice(edges, comm.rank(), p)
            .into_iter()
            .map(|(u, v)| Triple::new(u, v, 1u64))
            .collect();
        let mut a = DistMat::from_global_triples(&grid, n, n, base, 1, &mut timer);
        let plan = schedule(edges, comm.rank(), batch_size, rounds, seed);
        let batch = |(inserts, deletes): Round| {
            let step = |stages: &mut PhaseTimer| {
                static_step(&grid, &mut a, inserts, &deletes, &cands, stages)
            };
            meter(comm, step).1
        };
        plan.into_iter().map(batch).collect()
    });
    split_medians(&out.results)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The two strategies must agree on every derived quantity — the bench
    /// compares equal work.
    #[test]
    fn static_step_agrees_with_maintained_views() {
        let cfg = Config::smoke();
        let inst = &prepare_instances(&cfg)[0];
        let n = inst.n;
        let cands = instance_candidates(inst);
        let edges = &inst.edges;
        let cands_in = cands.clone();
        let out = dspgemm_mpi::run(4, |comm| {
            let base: Vec<Triple<u64>> = rank_slice(edges, comm.rank(), 4)
                .into_iter()
                .map(|(u, v)| Triple::new(u, v, 1u64))
                .collect();
            let mut session = AnalyticsSession::<U64Plus>::from_triples(comm, n, 1, base.clone());
            let tri = session.register(Box::new(TriangleCountView::new()));
            let cn = session.register(Box::new(CommonNeighborsView::new(cands_in.clone())));
            session.register(Box::new(DegreeView::new(1u64)));

            let grid = Grid::new(comm);
            let mut timer = PhaseTimer::new();
            let mut a_static = DistMat::from_global_triples(&grid, n, n, base, 1, &mut timer);

            let plan = schedule(edges, comm.rank(), 16, 4, cfg.seed);
            let mut agreed = true;
            for (inserts, deletes) in plan {
                if deletes.is_empty() {
                    session.insert_edges(inserts.clone());
                } else {
                    session.delete_edges(deletes.clone());
                }
                let (tri_static, cand_static) = static_step(
                    &grid,
                    &mut a_static,
                    inserts,
                    &deletes,
                    &cands_in,
                    &mut timer,
                );
                let tri_dyn = session.view_as::<TriangleCountView>(tri).unwrap().count();
                let cand_dyn = session
                    .view_as::<CommonNeighborsView<U64Plus>>(cn)
                    .unwrap()
                    .local_scores()
                    .fold(0u64, |acc, (_, _, s)| acc.wrapping_add(s));
                let cand_dyn = grid.world().allreduce(cand_dyn, u64::wrapping_add);
                agreed &= tri_dyn == tri_static && cand_dyn == cand_static;
            }
            agreed
        });
        assert!(out.results.iter().all(|&ok| ok));
    }
}
