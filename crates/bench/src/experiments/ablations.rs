//! Ablations backing the paper's design-choice claims.
//!
//! * **redistribution** (§IV-B): two-phase √p counting-sort route vs the
//!   competitors' comparison-sort + single global alltoall;
//! * **bloom** (§V-B): how many non-zeros of `A'` the Bloom filter excludes
//!   from communication in the general algorithm;
//! * **aggregation** (§V-A): communication volume of Algorithm 1 vs a
//!   static SUMMA of the same product, as the update density grows — the
//!   crossover the paper predicts ("for large batch sizes … our algorithm
//!   is expected to perform worse than SUMMA").

use crate::experiments::{edges_to_triples, prepare_instances, rank_slice};
use crate::measure::timed_collective;
use crate::report::{ms, ratio, Table};
use crate::Config;
use dspgemm_baselines::combblas::{self, CombBlasMatrix};
use dspgemm_baselines::Competitor;
use dspgemm_core::redistribute::redistribute;
use dspgemm_core::{DistMat, DynSpGemm, Grid};
use dspgemm_graph::stream::ReplacementDraws;
use dspgemm_sparse::bloom::row_or_reduce;
use dspgemm_sparse::local_mm::{spgemm_with, Bloom, Pattern};
use dspgemm_sparse::ops::extract_filtered;
use dspgemm_sparse::semiring::F64Plus;
use dspgemm_sparse::workspace::KernelWorkspace;
use dspgemm_sparse::{Csr, Dcsr, Index, RowScan, Triple};
use dspgemm_util::rng::{Rng, SplitMix64};
use dspgemm_util::stats::{format_bytes, PhaseTimer};

/// §IV-B ablation: our two-phase counting-sort redistribution vs the global
/// comparison-sort route, on identical tuple streams.
pub fn redistribution(cfg: &Config) -> Table {
    let mut t = Table::new(
        format!("Ablation: update redistribution, p={}", cfg.p),
        &[
            "tuples/rank",
            "two-phase (ms)",
            "global (ms)",
            "speedup",
            "msgs 2ph",
            "msgs glob",
        ],
    );
    let n: Index = 1 << 16;
    for &per_rank in &[10_000usize, 100_000, 400_000] {
        let seed = cfg.seed;
        let p = cfg.p;
        let two = dspgemm_mpi::run(p, |comm| {
            let grid = Grid::new(comm);
            let mut rng = SplitMix64::derive(seed, comm.rank() as u64);
            let mine: Vec<Triple<f64>> = (0..per_rank)
                .map(|_| {
                    Triple::new(
                        rng.gen_range(n as u64) as Index,
                        rng.gen_range(n as u64) as Index,
                        1.0,
                    )
                })
                .collect();
            let mut timer = PhaseTimer::new();
            let (_, d) =
                timed_collective(comm, || redistribute(&grid, n, n, mine.clone(), &mut timer));
            d
        });
        let glob = dspgemm_mpi::run(p, |comm| {
            let grid = Grid::new(comm);
            let mut rng = SplitMix64::derive(seed, comm.rank() as u64);
            let mine: Vec<Triple<f64>> = (0..per_rank)
                .map(|_| {
                    Triple::new(
                        rng.gen_range(n as u64) as Index,
                        rng.gen_range(n as u64) as Index,
                        1.0,
                    )
                })
                .collect();
            let (_, d) = timed_collective(comm, || {
                combblas::redistribute_global(&grid, n, n, mine.clone())
            });
            d
        });
        let (d2, dg) = (two.results[0], glob.results[0]);
        t.push_row(vec![
            per_rank.to_string(),
            ms(d2),
            ms(dg),
            ratio(dg.as_secs_f64() / d2.as_secs_f64()),
            two.stats
                .msgs_in(dspgemm_mpi::CommCategory::Alltoall)
                .to_string(),
            glob.stats
                .msgs_in(dspgemm_mpi::CommCategory::Alltoall)
                .to_string(),
        ]);
    }
    t.note("two-phase: 2·p·(sqrt(p)-1) messages; global: p·(p-1) messages");
    t
}

/// §V-B ablation: fraction of `nnz(A')` that the Bloom filter keeps in
/// `A^R` after a deletion batch (single-rank analysis on catalog proxies).
pub fn bloom_filter(cfg: &Config) -> Table {
    let mut t = Table::new(
        "Ablation: Bloom-filtered extraction A^R after deletions",
        &["instance", "nnz(A')", "nnz(A^R)", "kept", "deletions"],
    );
    for inst in prepare_instances(cfg) {
        let n = inst.n;
        let triples = edges_to_triples(&inst.edges);
        let a = Csr::from_triples::<F64Plus>(n, n, triples.clone());
        let b = a.clone();
        // Full product with Bloom tracking -> F.
        let full =
            spgemm_with::<F64Plus, Bloom, _, _, _>(&a, &b, &(), 0, &mut KernelWorkspace::new());
        // Delete a 1% sample of A's entries.
        let mut rng = SplitMix64::new(cfg.seed);
        let all = a.to_triples();
        let dels: Vec<Triple<f64>> = (0..(all.len() / 100).max(1))
            .map(|_| all[rng.gen_index(all.len())])
            .collect();
        let a_star = Dcsr::from_triples::<F64Plus>(n, n, dels.clone());
        // A' = A minus deletions.
        let kill: std::collections::BTreeSet<u64> = dels.iter().map(Triple::key).collect();
        let a_new_triples: Vec<Triple<f64>> = all
            .iter()
            .copied()
            .filter(|t| !kill.contains(&t.key()))
            .collect();
        let a_new = Csr::from_sorted_triples(n, n, &a_new_triples);
        // Pattern of C* = A*·B (B unchanged => A·B* term empty); F* bits.
        let cstar = spgemm_with::<F64Plus, Pattern, _, _, _>(
            &a_star,
            &b,
            &(),
            0,
            &mut KernelWorkspace::new(),
        );
        // E = (F | F*) masked at C*; R = row-wise OR.
        let mut f_lookup: dspgemm_util::FxHashMap<u64, u64> = Default::default();
        full.result.scan_rows(|r, cols, vals| {
            for (&c, &(_, bits)) in cols.iter().zip(vals) {
                f_lookup.insert(((r as u64) << 32) | c as u64, bits);
            }
        });
        let mut e = Dcsr::empty(n, n);
        cstar.result.scan_rows(|r, cols, vals| {
            let evals: Vec<u64> = cols
                .iter()
                .zip(vals)
                .map(|(&c, &fstar)| {
                    fstar
                        | f_lookup
                            .get(&(((r as u64) << 32) | c as u64))
                            .copied()
                            .unwrap_or(0)
                })
                .collect();
            e.push_row(r, cols, &evals);
        });
        let filter = row_or_reduce(&e, n);
        let a_r = extract_filtered(&a_new, &filter, 0);
        t.push_row(vec![
            inst.name.to_string(),
            a_new.nnz().to_string(),
            a_r.nnz().to_string(),
            format!(
                "{:.1}%",
                100.0 * a_r.nnz() as f64 / a_new.nnz().max(1) as f64
            ),
            dels.len().to_string(),
        ]);
    }
    t.note(
        "the general algorithm ships only A^R; kept% is what the Bloom filter could not exclude",
    );
    t
}

/// §V-A ablation: communication volume of Algorithm 1 vs a static SUMMA of
/// `A*·B'`, as the update batch grows — locating the crossover.
pub fn aggregation(cfg: &Config) -> Table {
    let mut t = Table::new(
        format!(
            "Ablation: Algorithm 1 volume vs static SUMMA volume, p={}",
            cfg.p
        ),
        &["batch/rank", "dynamic bytes", "static bytes", "dyn/stat"],
    );
    let inst = &prepare_instances(cfg)[0];
    let n = inst.n;
    let edges = &inst.edges;
    for &bs in &[16usize, 256, 4096, 16384] {
        let (p, seed) = (cfg.p, cfg.seed);
        // Construction of `B`, then of the engine (its initial product of
        // the empty `A` with `B`), then `batches` Algorithm-1 batches.
        let engine = |batches: usize| {
            dspgemm_mpi::run(p, move |comm| {
                let grid = Grid::new(comm);
                let mut timer = PhaseTimer::new();
                let b_mine = edges_to_triples(&rank_slice(edges, comm.rank(), p));
                let b = DistMat::from_global_triples(&grid, n, n, b_mine, 1, &mut timer);
                let a: DistMat<f64> = DistMat::empty(&grid, n, n);
                let mut eng = DynSpGemm::<F64Plus>::new(&grid, a, b, 1, false);
                let mut draws = ReplacementDraws::new(bs, seed, comm.rank());
                for _ in 0..batches {
                    let batch: Vec<Triple<f64>> = draws
                        .next_batch(edges)
                        .into_iter()
                        .map(|(u, v)| Triple::new(u, v, 1.0))
                        .collect();
                    eng.apply_algebraic(&grid, batch, vec![]);
                }
                eng.c.local_nnz()
            })
        };
        // Baseline volume: construction only; dynamic: one batch on top.
        let (base, dynamic) = (engine(0), engine(1));
        // Static: construction + one CombBLAS-style A*·B.
        let cb_base = dspgemm_mpi::run(p, |comm| {
            let grid = Grid::new(comm);
            let b_mine = edges_to_triples(&rank_slice(edges, comm.rank(), p));
            CombBlasMatrix::construct::<F64Plus>(&grid, n, n, b_mine).local_nnz()
        });
        let cb = dspgemm_mpi::run(p, |comm| {
            let grid = Grid::new(comm);
            let b_mine = edges_to_triples(&rank_slice(edges, comm.rank(), p));
            let b = CombBlasMatrix::construct::<F64Plus>(&grid, n, n, b_mine);
            let mut draws = ReplacementDraws::new(bs, seed, comm.rank());
            let batch: Vec<Triple<f64>> = draws
                .next_batch(edges)
                .into_iter()
                .map(|(u, v)| Triple::new(u, v, 1.0))
                .collect();
            let a_star = CombBlasMatrix::construct::<F64Plus>(&grid, n, n, batch);
            let (delta, _) = CombBlasMatrix::spgemm::<F64Plus>(&grid, &a_star, &b);
            delta.local_nnz()
        });
        let dyn_bytes = dynamic.stats.total_bytes() - base.stats.total_bytes();
        let stat_bytes = cb.stats.total_bytes() - cb_base.stats.total_bytes();
        t.push_row(vec![
            bs.to_string(),
            format_bytes(dyn_bytes),
            format_bytes(stat_bytes),
            format!("{:.3}", dyn_bytes as f64 / stat_bytes.max(1) as f64),
        ]);
    }
    t.note("dynamic volume scales with nnz(A*)+nnz(C*); static with nnz(A)+nnz(B) — the paper's central trade-off");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn redistribution_smoke() {
        let mut cfg = Config::smoke();
        cfg.p = 4;
        cfg.instances = 1;
        let t = redistribution(&cfg);
        assert_eq!(t.rows.len(), 3);
    }

    #[test]
    fn bloom_smoke() {
        let mut cfg = Config::smoke();
        cfg.instances = 1;
        let t = bloom_filter(&cfg);
        assert_eq!(t.rows.len(), 1);
        // kept% column parses and is <= 100.
        let kept: f64 = t.rows[0][3].trim_end_matches('%').parse().unwrap();
        assert!(kept <= 100.0);
    }
}
