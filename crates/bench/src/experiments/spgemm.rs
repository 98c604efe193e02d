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
use crate::measure::{per_batch, BatchCost};
use crate::report::{ms, ratio, Table};
use crate::Config;
use dspgemm_baselines::{
    combblas::CombBlasMatrix, ctf::CtfMatrix, petsc::PetscMatrix, Competitor, Fold,
};
use dspgemm_core::dyn_general::GeneralUpdates;
use dspgemm_core::{meter, phase, DistMat, DynSpGemm, Grid};
use dspgemm_graph::stream::ReplacementDraws;
use dspgemm_sparse::semiring::{F64Plus, MinPlus, Semiring};
use dspgemm_sparse::Triple;
use dspgemm_util::hash::mix_pair;
use dspgemm_util::stats::{format_bytes, PhaseTimer};

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

/// The cost of every batch of our algebraic dynamic SpGEMM (Fig. 9
/// protocol), from the reports the engine returns: their median is a Fig. 9
/// row, their total a Fig. 12 column.
pub fn ours_algebraic(
    cfg: &Config,
    inst: &Prepared,
    batch_size: usize,
    p: usize,
) -> Vec<BatchCost> {
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
        let mut draws = ReplacementDraws::new(batch_size, seed, comm.rank());
        (0..batches)
            .map(|_| eng.apply_algebraic(&grid, unit_batch(&mut draws, edges), vec![]))
            .collect()
    });
    per_batch(&out.results)
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
    let out = dspgemm_mpi::run(p, |comm| {
        let grid = Grid::new(comm);
        let b_mine = edges_to_triples(&rank_slice(edges, comm.rank(), p));
        let b = M::construct::<F64Plus>(&grid, n, n, b_mine);
        let mut c = M::Product::empty(&grid, n, n);
        let mut draws = ReplacementDraws::new(batch_size, seed, comm.rank());
        (0..batches)
            .map(|_| {
                let batch = unit_batch(&mut draws, edges);
                let metered = meter(comm, |_| {
                    let a_star = M::construct::<F64Plus>(&grid, n, n, batch);
                    let (delta, _) = M::spgemm::<F64Plus>(&grid, &a_star, &b);
                    c.merge_add_local::<F64Plus>(&delta);
                });
                metered.1
            })
            .collect()
    });
    BatchCost::median(&per_batch(&out.results))
}

/// One arm of Fig. 9 or Fig. 10: an instance's median batch at a batch size.
type Arm = fn(&Config, &Prepared, usize) -> BatchCost;

/// Fig. 9 / Fig. 10's table: per batch size, each arm's median over the
/// instances — ours, then CombBLAS, CTF and PETSc.
fn spgemm_table(title: String, cfg: &Config, arms: [Arm; 4]) -> Table {
    let mut t = Table::new(
        title,
        &[
            "batch/rank",
            "ours local",
            "ours vol",
            "ours nnz(C*)",
            "CB local",
            "CB vol",
            "CB nnz(C*)",
            "ours model",
            "CB model",
            "CTF model",
            "PETSc model",
            "vs CB",
            "vs CTF",
            "vs PETSc",
        ],
    );
    let instances = prepare_instances(cfg);
    for bs in SPGEMM_BATCHES {
        let [o, cb, ct, pe] = arms.map(|arm| {
            let per_instance: Vec<BatchCost> = instances.iter().map(|i| arm(cfg, i, bs)).collect();
            BatchCost::median(&per_instance)
        });
        let [om, cbm, ctm, pem] = [&o, &cb, &ct, &pe].map(BatchCost::modeled);
        t.push_row(vec![
            bs.to_string(),
            ms(o.wall),
            format_bytes(o.crit_bytes),
            o.cstar_nnz.to_string(),
            ms(cb.wall),
            format_bytes(cb.crit_bytes),
            "—".into(),
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
    t.note("nnz(C*) = entries of the product delta per batch; a static competitor forms no delta");
    t.note("model = local time + vol / 12.5 GB/s + 1 us per message (paper's 100 GBit fabric)");
    t
}

/// Fig. 9: dynamic SpGEMM, algebraic case, `(+,·)`.
pub fn fig9(cfg: &Config) -> Table {
    let mut t = spgemm_table(
        format!("Figure 9: dynamic SpGEMM (algebraic, (+,*)), p={}", cfg.p),
        cfg,
        [
            |cfg, inst, bs| BatchCost::median(&ours_algebraic(cfg, inst, bs, cfg.p)),
            competitor_algebraic::<CombBlasMatrix<f64>>,
            competitor_algebraic::<CtfMatrix<f64>>,
            competitor_algebraic::<PetscMatrix<f64>>,
        ],
    );
    t.note("paper: 3.41x-6.18x vs CombBLAS, >=11.73x vs CTF, >=5.2x vs PETSc; speedup shrinks with batch size");
    t
}

/// Median per-batch cost of our general dynamic SpGEMM under `(min,+)`
/// (Fig. 10 protocol: value writes drawn from the adjacency, replacement
/// semantics → general updates), from the reports the engine returns.
pub fn ours_general(cfg: &Config, inst: &Prepared, batch_size: usize, p: usize) -> BatchCost {
    let n = inst.n;
    let (batches, seed) = (cfg.batches, cfg.seed);
    let edges = &inst.edges;
    let out = dspgemm_mpi::run(p, |comm| {
        let grid = Grid::new(comm);
        let mut timer = PhaseTimer::new();
        let b_mine = edges_to_weighted(&rank_slice(edges, comm.rank(), p));
        let b = DistMat::from_global_triples(&grid, n, n, b_mine, 1, &mut timer);
        let a: DistMat<f64> = DistMat::empty(&grid, n, n);
        let mut eng = DynSpGemm::<MinPlus>::new(&grid, a, b, 1, true);
        let mut draws = ReplacementDraws::new(batch_size, seed, comm.rank());
        (0..batches as u64)
            .map(|round| {
                let mut upd = GeneralUpdates::new();
                upd.sets = weighted_batch(&mut draws, edges, round);
                eng.apply_general(&grid, upd, GeneralUpdates::new())
            })
            .collect()
    });
    BatchCost::median(&per_batch(&out.results))
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
    let out = dspgemm_mpi::run(p, |comm| {
        let grid = Grid::new(comm);
        let b_mine = edges_to_weighted(&rank_slice(edges, comm.rank(), p));
        let b = M::construct::<S>(&grid, n, n, b_mine);
        let mut a = M::construct::<S>(&grid, n, n, vec![]);
        let mut draws = ReplacementDraws::new(batch_size, seed, comm.rank());
        (0..batches as u64)
            .map(|round| {
                let batch = weighted_batch(&mut draws, edges, round);
                let metered = meter(comm, |_| {
                    a.update(&grid, batch);
                    let _ = M::spgemm::<S>(&grid, &a, &b);
                });
                metered.1
            })
            .collect()
    });
    BatchCost::median(&per_batch(&out.results))
}

/// Fig. 10: dynamic SpGEMM, general case, `(min,+)`.
pub fn fig10(cfg: &Config) -> Table {
    let mut t = spgemm_table(
        format!("Figure 10: dynamic SpGEMM (general, (min,+)), p={}", cfg.p),
        cfg,
        [
            |cfg, inst, bs| ours_general(cfg, inst, bs, cfg.p),
            competitor_general::<CombBlasMatrix<f64>, MinPlus>,
            competitor_general::<CtfMatrix<f64>, MinPlus>,
            // PETSc keeps (+,·) — it has no general semirings (paper).
            competitor_general::<PetscMatrix<f64>, F64Plus>,
        ],
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
        let costs: Vec<BatchCost> = instances
            .iter()
            .map(|inst| BatchCost::median(&ours_algebraic(cfg, inst, bs, p)))
            .collect();
        let m = BatchCost::median(&costs);
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
    let per_p: Vec<BatchCost> = [1usize, 4, 16]
        .into_iter()
        .map(|p| {
            let batches = instances
                .iter()
                .flat_map(|inst| ours_algebraic(cfg, inst, bs, p));
            BatchCost::total(&batches.collect::<Vec<_>>())
        })
        .collect();
    for ph in FIG12_PHASES {
        let mut row = vec![ph.to_string()];
        row.extend(per_p.iter().map(|total| ms(total.stages.get(ph))));
        t.push_row(row);
    }
    let mut row = vec!["hidden comm.".to_string()];
    row.extend(per_p.iter().map(|total| ms(total.hidden)));
    t.push_row(row);
    t.note("bcast grows with p; local mult / reduce-scatter scale down (paper Fig. 12)");
    t.note("per batch, each row is the slowest rank's, summed over batches; phase rows are exposed wall time, hidden comm. the communication hidden under compute (the report's overlapped_ns)");
    t.note("blocking collectives (start, then wait) add their small overlapped remainder to hidden comm.");
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn algebraic_smoke() {
        let cfg = Config::smoke();
        let inst = &prepare_instances(&cfg)[0];
        let batches = ours_algebraic(&cfg, inst, 16, cfg.p);
        let (cost, phases) = (
            BatchCost::median(&batches),
            BatchCost::total(&batches).stages,
        );
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
