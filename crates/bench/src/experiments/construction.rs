//! Fig. 2/3: matrix construction performance, relative to CombBLAS.

use crate::experiments::{edges_to_triples, prepare_instances, rank_slice};
use crate::measure::timed_collective;
use crate::report::{ms, ratio, Table};
use crate::Config;
use dspgemm_baselines::{combblas::CombBlasMatrix, ctf::CtfMatrix, petsc::PetscMatrix, Competitor};
use dspgemm_core::{DistMat, Grid};
use dspgemm_sparse::semiring::F64Plus;
use dspgemm_util::stats::{geometric_mean, PhaseTimer};
use std::time::Duration;

/// Times each system's full construction of an instance's adjacency matrix.
/// Best-of-`REPS` timing: on a small oversubscribed host a descheduled rank
/// inflates one-shot wall times by an order of magnitude; the minimum is the
/// robust estimator for a deterministic computation.
const REPS: usize = 3;

fn best_of<F: FnMut() -> Duration>(mut f: F) -> Duration {
    (0..REPS).map(|_| f()).min().unwrap()
}

fn construct_times(cfg: &Config, n: u32, edges: &[(u32, u32)]) -> [Duration; 4] {
    let p = cfg.p;
    let ours = best_of(|| {
        dspgemm_mpi::run(p, |comm| {
            let grid = Grid::new(comm);
            let mine = edges_to_triples(&rank_slice(edges, comm.rank(), p));
            let (_, d) = timed_collective(comm, || {
                let mut timer = PhaseTimer::new();
                DistMat::from_global_triples(&grid, n, n, mine.clone(), 1, &mut timer)
            });
            d
        })
        .results[0]
    });
    let cb = competitor_time::<CombBlasMatrix<f64>>(cfg, n, edges);
    let ctf = competitor_time::<CtfMatrix<f64>>(cfg, n, edges);
    let petsc = competitor_time::<PetscMatrix<f64>>(cfg, n, edges);
    [ours, cb, ctf, petsc]
}

/// Best-of-`REPS` construction time of competitor `M`.
fn competitor_time<M: Competitor<f64>>(cfg: &Config, n: u32, edges: &[(u32, u32)]) -> Duration {
    let p = cfg.p;
    best_of(|| {
        dspgemm_mpi::run(p, |comm| {
            let grid = Grid::new(comm);
            let mine = edges_to_triples(&rank_slice(edges, comm.rank(), p));
            let (_, d) =
                timed_collective(comm, || M::construct::<F64Plus>(&grid, n, n, mine.clone()));
            d
        })
        .results[0]
    })
}

/// Runs the construction experiment over the configured catalog subset.
pub fn run(cfg: &Config) -> Table {
    let mut t = Table::new(
        format!("Figure 3: construction, p={}, relative to CombBLAS", cfg.p),
        &[
            "instance",
            "ours (ms)",
            "CombBLAS",
            "CTF",
            "PETSc",
            "ours rel",
            "CTF rel",
            "PETSc rel",
        ],
    );
    let mut rels = Vec::new();
    for inst in prepare_instances(cfg) {
        let [ours, cb, ctf, petsc] = construct_times(cfg, inst.n, &inst.edges);
        let rel = cb.as_secs_f64() / ours.as_secs_f64();
        rels.push(rel);
        t.push_row(vec![
            inst.name.to_string(),
            ms(ours),
            ms(cb),
            ms(ctf),
            ms(petsc),
            ratio(rel),
            ratio(cb.as_secs_f64() / ctf.as_secs_f64()),
            ratio(cb.as_secs_f64() / petsc.as_secs_f64()),
        ]);
    }
    t.note(format!(
        "geo-mean speedup over CombBLAS: {} (paper: 1.68x-2.59x)",
        ratio(geometric_mean(&rels))
    ));
    t.note("relative performance >1 means faster than CombBLAS");
    t
}

#[cfg(test)]
mod tests {
    #[test]
    fn smoke() {
        let t = super::run(&crate::Config::smoke());
        assert_eq!(t.rows.len(), 2);
    }
}
