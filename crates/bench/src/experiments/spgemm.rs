//! Fig. 9–12: dynamic SpGEMM performance.
//!
//! Protocol of Section VII-C: `C' = A'·B` where `B` is the full (static)
//! adjacency matrix and `A'` starts empty and grows by per-rank uniform
//! draws from the adjacency matrix, in batches. Our algorithms update `C`
//! dynamically; the competitors compute `A*·B` with their static SpGEMM and
//! fold it into `C` (algebraic case, Fig. 9), or recompute `A'·B` from
//! scratch (general case under `(min, +)`, Fig. 10).
//!
//! ## Reporting
//!
//! The simulator moves message payloads by pointer, so *measured* wall time
//! is local computation only — it misses exactly the cost the paper's
//! algorithms optimize (broadcasting the full operands over a real
//! interconnect). Every batch therefore reports both the measured time and a
//! **modeled** time = measured + critical-path bytes / 12.5 GB/s + 1 µs per
//! message (the paper's 100 GBit Omni-Path). Comparisons quote the modeled
//! numbers; tables include the raw components so nothing is hidden.

use crate::experiments::{
    edges_to_triples, edges_to_weighted, prepare_instances, rank_slice, Prepared,
};
use crate::measure::{measured_collective, median_cost, BatchCost};
use crate::report::{ms, ratio, Table};
use crate::Config;
use dspgemm_baselines::{
    combblas::CombBlasMatrix, ctf::CtfMatrix, petsc::PetscMatrix, Competitor, Fold,
};
use dspgemm_core::dyn_general::GeneralUpdates;
use dspgemm_core::{phase, DistMat, DynSpGemm, Grid};
use dspgemm_graph::stream::ReplacementDraws;
use dspgemm_sparse::semiring::{F64Plus, MinPlus, Semiring};
use dspgemm_sparse::Triple;
use dspgemm_util::hash::mix_pair;
use dspgemm_util::stats::{format_bytes, PhaseTimer};
use std::time::Duration;

/// Per-rank batch sizes. The paper uses 1024…8192 on graphs of 86 M – 3.6 B
/// non-zeros; keeping the paper's nnz(C*) ≪ nnz(B) regime at proxy scale
/// requires proportionally smaller batches.
pub const SPGEMM_BATCHES: [usize; 3] = [16, 64, 256];

fn unit_batch(draws: &mut ReplacementDraws, edges: &[(u32, u32)]) -> Vec<Triple<f64>> {
    draws
        .next_batch(edges)
        .into_iter()
        .map(|(u, v)| Triple::new(u, v, 1.0))
        .collect()
}

fn weighted_batch(
    draws: &mut ReplacementDraws,
    edges: &[(u32, u32)],
    round: u64,
) -> Vec<Triple<f64>> {
    draws
        .next_batch(edges)
        .into_iter()
        .map(|(u, v)| Triple::new(u, v, 1.0 + ((mix_pair(u, v) ^ round) % 97) as f64))
        .collect()
}

/// Median per-batch cost of our algebraic dynamic SpGEMM (Fig. 9 protocol),
/// plus Fig. 12's critical-path view over all batches: the exposed wall
/// time per phase and the communication time local compute hid (the
/// meter's per-rank `overlapped_ns`), each the maximum across ranks.
pub fn ours_algebraic(
    cfg: &Config,
    inst: &Prepared,
    batch_size: usize,
    p: usize,
) -> (BatchCost, PhaseTimer, Duration) {
    let n = inst.n;
    let (batches, seed) = (cfg.batches, cfg.seed);
    let edges = &inst.edges;
    let out = dspgemm_mpi::run(p, |comm| {
        let grid = Grid::new(comm);
        let mut timer = PhaseTimer::new();
        let b_mine = edges_to_triples(&rank_slice(edges, comm.rank(), p));
        let b = DistMat::from_global_triples(&grid, n, n, b_mine, 1, &mut timer);
        let a: DistMat<f64> = DistMat::empty(&grid, n, n);
        let mut eng = DynSpGemm::<F64Plus>::new(&grid, a, b, 1, false);
        // Fig. 12 shows batch phases only, not the initial product's.
        eng.timer = PhaseTimer::new();
        let hidden = || comm.comm_stats().per_rank[comm.rank()].overlapped_ns;
        let hidden_before = hidden();
        let mut draws = ReplacementDraws::new(batch_size, seed, comm.rank());
        let mut costs = Vec::new();
        for _ in 0..batches {
            let batch = unit_batch(&mut draws, edges);
            let (_, cost) = measured_collective(comm, || {
                eng.apply_algebraic(&grid, batch.clone(), vec![]);
            });
            costs.push(cost);
        }
        let hidden = Duration::from_nanos(hidden() - hidden_before);
        (median_cost(&costs), eng.timer, hidden)
    });
    let mut merged = PhaseTimer::new();
    let mut hidden = Duration::ZERO;
    for (_, pt, h) in &out.results {
        merged.merge_max(pt);
        hidden = hidden.max(*h);
    }
    (out.results[0].0.clone(), merged, hidden)
}

/// Median per-batch cost of competitor `M` on the Fig. 9 protocol: build
/// `A*`, compute `A*·B` with the static SpGEMM (full operands moved), and
/// fold it into the maintained `C`.
fn competitor_algebraic<M: Competitor<f64>>(
    cfg: &Config,
    inst: &Prepared,
    batch_size: usize,
) -> BatchCost {
    let n = inst.n;
    let (p, batches, seed) = (cfg.p, cfg.batches, cfg.seed);
    let edges = &inst.edges;
    dspgemm_mpi::run(p, |comm| {
        let grid = Grid::new(comm);
        let b_mine = edges_to_triples(&rank_slice(edges, comm.rank(), p));
        let b = M::construct::<F64Plus>(&grid, n, n, b_mine);
        let mut c = M::Product::empty(&grid, n, n);
        let mut draws = ReplacementDraws::new(batch_size, seed, comm.rank());
        let mut costs = Vec::new();
        for _ in 0..batches {
            let batch = unit_batch(&mut draws, edges);
            let (_, cost) = measured_collective(comm, || {
                let a_star = M::construct::<F64Plus>(&grid, n, n, batch.clone());
                let (delta, _) = M::spgemm::<F64Plus>(&grid, &a_star, &b);
                c.merge_add_local::<F64Plus>(&delta);
            });
            costs.push(cost);
        }
        median_cost(&costs)
    })
    .results
    .remove(0)
}

fn spgemm_table(
    title: String,
    rows: Vec<(usize, BatchCost, BatchCost, BatchCost, BatchCost)>,
) -> Table {
    let mut t = Table::new(
        title,
        &[
            "batch/rank",
            "ours local",
            "ours vol",
            "CB local",
            "CB vol",
            "ours model",
            "CB model",
            "CTF model",
            "PETSc model",
            "vs CB",
            "vs CTF",
            "vs PETSc",
        ],
    );
    for (bs, o, cb, ct, pe) in rows {
        let om = o.modeled();
        let cbm = cb.modeled();
        let ctm = ct.modeled();
        let pem = pe.modeled();
        t.push_row(vec![
            bs.to_string(),
            ms(o.wall),
            format_bytes(o.crit_bytes),
            ms(cb.wall),
            format_bytes(cb.crit_bytes),
            ms(om),
            ms(cbm),
            ms(ctm),
            ms(pem),
            ratio(cbm.as_secs_f64() / om.as_secs_f64()),
            ratio(ctm.as_secs_f64() / om.as_secs_f64()),
            ratio(pem.as_secs_f64() / om.as_secs_f64()),
        ]);
    }
    t.note("vol = critical-path bytes per batch (max over ranks)");
    t.note("model = local time + vol / 12.5 GB/s + 1 us per message (paper's 100 GBit fabric)");
    t
}

/// Fig. 9: dynamic SpGEMM, algebraic case, `(+,·)`.
pub fn fig9(cfg: &Config) -> Table {
    let instances = prepare_instances(cfg);
    let mut rows = Vec::new();
    for &bs in &SPGEMM_BATCHES {
        let mut o_all = Vec::new();
        let mut cb_all = Vec::new();
        let mut ct_all = Vec::new();
        let mut pe_all = Vec::new();
        for inst in &instances {
            o_all.push(ours_algebraic(cfg, inst, bs, cfg.p).0);
            cb_all.push(competitor_algebraic::<CombBlasMatrix<f64>>(cfg, inst, bs));
            ct_all.push(competitor_algebraic::<CtfMatrix<f64>>(cfg, inst, bs));
            pe_all.push(competitor_algebraic::<PetscMatrix<f64>>(cfg, inst, bs));
        }
        rows.push((
            bs,
            median_cost(&o_all),
            median_cost(&cb_all),
            median_cost(&ct_all),
            median_cost(&pe_all),
        ));
    }
    let mut t = spgemm_table(
        format!("Figure 9: dynamic SpGEMM (algebraic, (+,*)), p={}", cfg.p),
        rows,
    );
    t.note("paper: 3.41x-6.18x vs CombBLAS, >=11.73x vs CTF, >=5.2x vs PETSc; speedup shrinks with batch size");
    t
}

/// Median per-batch cost of our general dynamic SpGEMM under `(min,+)`
/// (Fig. 10 protocol: value writes drawn from the adjacency, replacement
/// semantics → general updates).
pub fn ours_general(cfg: &Config, inst: &Prepared, batch_size: usize, p: usize) -> BatchCost {
    let n = inst.n;
    let (batches, seed) = (cfg.batches, cfg.seed);
    let edges = &inst.edges;
    dspgemm_mpi::run(p, |comm| {
        let grid = Grid::new(comm);
        let mut timer = PhaseTimer::new();
        let b_mine = edges_to_weighted(&rank_slice(edges, comm.rank(), p));
        let b = DistMat::from_global_triples(&grid, n, n, b_mine, 1, &mut timer);
        let a: DistMat<f64> = DistMat::empty(&grid, n, n);
        let mut eng = DynSpGemm::<MinPlus>::new(&grid, a, b, 1, true);
        let mut draws = ReplacementDraws::new(batch_size, seed, comm.rank());
        let mut costs = Vec::new();
        for round in 0..batches as u64 {
            let mut upd = GeneralUpdates::new();
            upd.sets = weighted_batch(&mut draws, edges, round);
            let (_, cost) = measured_collective(comm, || {
                eng.apply_general(&grid, upd.clone(), GeneralUpdates::new());
            });
            costs.push(cost);
        }
        median_cost(&costs)
    })
    .results
    .remove(0)
}

/// Median per-batch cost of competitor `M` on the Fig. 10 protocol under
/// semiring `S`: write the batch's values into `A'`, then recompute `A'·B`
/// from scratch.
fn competitor_general<M: Competitor<f64>, S: Semiring<Elem = f64>>(
    cfg: &Config,
    inst: &Prepared,
    batch_size: usize,
) -> BatchCost {
    let n = inst.n;
    let (p, batches, seed) = (cfg.p, cfg.batches, cfg.seed);
    let edges = &inst.edges;
    dspgemm_mpi::run(p, |comm| {
        let grid = Grid::new(comm);
        let b_mine = edges_to_weighted(&rank_slice(edges, comm.rank(), p));
        let b = M::construct::<S>(&grid, n, n, b_mine);
        let mut a = M::construct::<S>(&grid, n, n, vec![]);
        let mut draws = ReplacementDraws::new(batch_size, seed, comm.rank());
        let mut costs = Vec::new();
        for round in 0..batches as u64 {
            let batch = weighted_batch(&mut draws, edges, round);
            let (_, cost) = measured_collective(comm, || {
                a.update(&grid, batch.clone());
                let _ = M::spgemm::<S>(&grid, &a, &b);
            });
            costs.push(cost);
        }
        median_cost(&costs)
    })
    .results
    .remove(0)
}

/// Fig. 10: dynamic SpGEMM, general case, `(min,+)`.
pub fn fig10(cfg: &Config) -> Table {
    let instances = prepare_instances(cfg);
    let mut rows = Vec::new();
    for &bs in &SPGEMM_BATCHES {
        let mut o_all = Vec::new();
        let mut cb_all = Vec::new();
        let mut ct_all = Vec::new();
        let mut pe_all = Vec::new();
        for inst in &instances {
            o_all.push(ours_general(cfg, inst, bs, cfg.p));
            cb_all.push(competitor_general::<CombBlasMatrix<f64>, MinPlus>(
                cfg, inst, bs,
            ));
            ct_all.push(competitor_general::<CtfMatrix<f64>, MinPlus>(cfg, inst, bs));
            // PETSc keeps (+,·) — it has no general semirings (paper).
            pe_all.push(competitor_general::<PetscMatrix<f64>, F64Plus>(
                cfg, inst, bs,
            ));
        }
        rows.push((
            bs,
            median_cost(&o_all),
            median_cost(&cb_all),
            median_cost(&ct_all),
            median_cost(&pe_all),
        ));
    }
    let mut t = spgemm_table(
        format!("Figure 10: dynamic SpGEMM (general, (min,+)), p={}", cfg.p),
        rows,
    );
    t.note(
        "paper: 2.39x-4.57x vs CombBLAS, >=14.58x vs CTF, >=6.9x vs PETSc (PETSc stays on (+,*))",
    );
    t
}

/// Fig. 11: weak scalability of dynamic SpGEMM (algebraic), modeled time per
/// inserted non-zero for p ∈ {1, 4, 16}.
pub fn fig11(cfg: &Config) -> Table {
    let mut t = Table::new(
        "Figure 11: weak scalability of dynamic SpGEMM (algebraic)",
        &["p", "us/nnz (model)", "batch local (ms)", "batch vol"],
    );
    // The paper excludes the largest instances at small node counts; use the
    // smaller half of the catalog.
    let mut cfg2 = cfg.clone();
    cfg2.instances = cfg.instances.min(3);
    let instances = prepare_instances(&cfg2);
    let bs = *SPGEMM_BATCHES.last().unwrap();
    for p in [1usize, 4, 16] {
        let mut costs = Vec::new();
        for inst in &instances {
            costs.push(ours_algebraic(cfg, inst, bs, p).0);
        }
        let m = median_cost(&costs);
        let per_nnz = m.modeled().as_nanos() as f64 / 1e3 / (bs * p) as f64;
        t.push_row(vec![
            p.to_string(),
            format!("{per_nnz:.2}"),
            ms(m.wall),
            format_bytes(m.crit_bytes),
        ]);
    }
    t.note("time per non-zero should fall with p (paper Fig. 11); on a 2-core host the local component saturates — see DESIGN.md, \"One worker per rank\"");
    t
}

/// The phases every Algorithm-1 batch records — the rows of Fig. 12.
const FIG12_PHASES: [&str; 5] = [
    phase::BCAST,
    phase::LOCAL_MULT,
    phase::SCATTER,
    phase::REDUCE_SCATTER,
    phase::LOCAL_UPDATE,
];

/// Fig. 12: breakdown of dynamic SpGEMM (algebraic) by phase.
pub fn fig12(cfg: &Config) -> Table {
    let mut t = Table::new(
        "Figure 12: dynamic SpGEMM time breakdown (critical path, ms over all batches)",
        &["phase", "p=1", "p=4", "p=16"],
    );
    let mut cfg2 = cfg.clone();
    cfg2.instances = cfg.instances.min(3);
    let instances = prepare_instances(&cfg2);
    let bs = *SPGEMM_BATCHES.last().unwrap();
    let mut per_p: Vec<(PhaseTimer, Duration)> = Vec::new();
    for p in [1usize, 4, 16] {
        let mut acc = PhaseTimer::new();
        let mut hidden = Duration::ZERO;
        for inst in &instances {
            let (_, pt, h) = ours_algebraic(cfg, inst, bs, p);
            acc.merge(&pt);
            hidden += h;
        }
        per_p.push((acc, hidden));
    }
    for ph in FIG12_PHASES {
        let mut row = vec![ph.to_string()];
        row.extend(per_p.iter().map(|(pt, _)| ms(pt.get(ph))));
        t.push_row(row);
    }
    let mut row = vec!["hidden comm.".to_string()];
    row.extend(per_p.iter().map(|&(_, h)| ms(h)));
    t.push_row(row);
    t.note("bcast grows with p; local mult / reduce-scatter scale down (paper Fig. 12)");
    t.note("phase rows are exposed wall time; hidden comm. = communication hidden under compute (meter overlapped_ns, max over ranks)");
    t.note("blocking collectives (start, then wait) add their small overlapped remainder to hidden comm.");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn algebraic_smoke() {
        let cfg = Config::smoke();
        let inst = &prepare_instances(&cfg)[0];
        let (cost, phases, _) = ours_algebraic(&cfg, inst, 16, cfg.p);
        assert!(cost.wall > Duration::ZERO);
        assert!(cost.modeled() >= cost.wall);
        // Every Fig. 12 row is recorded.
        for phase in FIG12_PHASES {
            assert!(
                phases.entries().iter().any(|&(n, _)| n == phase),
                "{phase} missing from {:?}",
                phases.entries()
            );
        }
        let cb = competitor_algebraic::<CombBlasMatrix<f64>>(&cfg, inst, 16);
        assert!(cb.wall > Duration::ZERO);
        // The headline claim holds in volume even at smoke scale: CombBLAS
        // broadcasts the full B, we broadcast the hypersparse updates.
        assert!(
            cost.crit_bytes < cb.crit_bytes,
            "ours {} vs CombBLAS {}",
            cost.crit_bytes,
            cb.crit_bytes
        );
    }

    #[test]
    fn general_smoke() {
        let cfg = Config::smoke();
        let inst = &prepare_instances(&cfg)[0];
        let o = ours_general(&cfg, inst, 8, cfg.p);
        let cb = competitor_general::<CombBlasMatrix<f64>, MinPlus>(&cfg, inst, 8);
        assert!(o.wall > Duration::ZERO);
        assert!(cb.wall > Duration::ZERO);
        assert!(o.crit_bytes > 0 && o.msgs > 0);
        // The volume advantage of the general algorithm needs realistic
        // proxy sizes (at smoke scale the C*/A^R/filter fixed costs rival a
        // tiny B); the full-scale claim is exercised by `repro fig10` and
        // the comm_volume integration tests.
    }
}
