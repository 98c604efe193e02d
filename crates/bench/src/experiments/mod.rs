//! One module per group of paper artifacts. Every experiment but
//! [`transport`] is a report: it measures and prints, asserts nothing, and
//! leaves the tracer to `repro --trace-out`.
//!
//! | module | paper artifacts |
//! |---|---|
//! | [`table1`] | Table I (instance list) |
//! | [`construction`] | Fig. 2/3 (construction relative performance) |
//! | [`updates`] | Fig. 4 (insertions), Fig. 5a/5b (updates/deletions), Fig. 6/7 (weak scaling + breakdown), Fig. 8a/8b (R-MAT scaling) |
//! | [`spgemm`] | Fig. 9 (algebraic), Fig. 10 (general), Fig. 11/12 (scaling + breakdown) |
//! | [`ablations`] | §IV-B redistribution claim, §V-A aggregation claim, §V-B Bloom claim |
//! | [`overlap`] | the pipelined round schedule: exposed vs. compute-hidden communication time (beyond the paper) |
//! | [`faults`] | fault injection & epoch-anchored recovery: what a crash + rollback/replay costs beside the fault-free run (beyond the paper) |
//! | [`transport`] | transport backend parity: the dynamic batch stream on simulator threads vs. real TCP processes, bit-identical C and matching logical wire volume (beyond the paper) |
//! | [`analytics`] | maintained-view serving vs. static recomputation (the `dspgemm-analytics` layer; beyond the paper) |
//! | [`serve`] | snapshot-isolated query serving vs. blocking baseline: query p50/p99, stale-read distance, epoch retention (beyond the paper) |

pub mod ablations;
pub mod analytics;
pub mod construction;
pub mod faults;
pub mod overlap;
pub mod serve;
pub mod spgemm;
pub mod table1;
pub mod transport;
pub mod updates;

use crate::Config;
use dspgemm_graph::catalog::{instances_scaled, InstanceSpec};
use dspgemm_graph::perm::Permutation;
use dspgemm_graph::Edge;
use dspgemm_sparse::{Index, Triple};
use dspgemm_util::rng::{Rng, SplitMix64};

/// A generated, permuted, symmetrized workload instance.
pub struct Prepared {
    /// Instance name (Table I).
    pub name: &'static str,
    /// Vertex count (matrix dimension).
    pub n: Index,
    /// Undirected non-zero stream (both directions), indices permuted.
    pub edges: Vec<Edge>,
}

/// Generates the first `cfg.instances` catalog proxies with the paper's
/// random index permutation applied (same permutation for every system).
pub fn prepare_instances(cfg: &Config) -> Vec<Prepared> {
    instances_scaled(cfg.divisor)
        .into_iter()
        .take(cfg.instances)
        .map(|spec| prepare_one(&spec, cfg.seed))
        .collect()
}

/// Generates one prepared instance.
pub fn prepare_one(spec: &InstanceSpec, seed: u64) -> Prepared {
    let mut edges = spec.undirected_edges();
    let mut rng = SplitMix64::new(seed ^ spec.seed);
    let perm = Permutation::random(spec.n as usize, &mut rng);
    perm.apply_edges(&mut edges);
    Prepared {
        name: spec.name,
        n: spec.n,
        edges,
    }
}

/// Round-robin slice of a shared edge list for one rank (models each rank
/// generating its own share of the input).
pub fn rank_slice(edges: &[Edge], rank: usize, p: usize) -> Vec<Edge> {
    edges.iter().copied().skip(rank).step_by(p).collect()
}

/// Converts edges to unit-valued `f64` triples.
pub fn edges_to_triples(edges: &[Edge]) -> Vec<Triple<f64>> {
    edges.iter().map(|&(u, v)| Triple::new(u, v, 1.0)).collect()
}

/// Rank-local update feed for one batch — a pure function of
/// `(seed, batch, rank)`, so a replayed or re-submitted batch, and the same
/// batch on another transport, regenerates bit-identical inputs. Unit values
/// keep `C` integer-valued in `f64`, so comparisons of `C` are exact despite
/// reordered accumulation.
pub(crate) fn batch_updates(
    n: Index,
    size: usize,
    seed: u64,
    batch: u64,
    rank: usize,
) -> (Vec<Triple<f64>>, Vec<Triple<f64>>) {
    let draw = |salt: u64| -> Vec<Triple<f64>> {
        let mut rng = SplitMix64::new(
            seed ^ salt ^ batch.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ ((rank as u64) << 17),
        );
        (0..size)
            .map(|_| {
                Triple::new(
                    rng.gen_range(n as u64) as Index,
                    rng.gen_range(n as u64) as Index,
                    1.0,
                )
            })
            .collect()
    };
    (draw(0xA), draw(0xB))
}

/// Converts edges to weighted `f64` triples with deterministic weights in
/// `1.0..10.0` derived from the coordinates (so every system sees identical
/// values without sharing state).
pub fn edges_to_weighted(edges: &[Edge]) -> Vec<Triple<f64>> {
    edges
        .iter()
        .map(|&(u, v)| {
            let h = dspgemm_util::hash::mix_pair(u, v);
            Triple::new(u, v, 1.0 + (h % 9000) as f64 / 1000.0)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prepare_is_deterministic_and_permuted() {
        let cfg = Config::smoke();
        let a = prepare_instances(&cfg);
        let b = prepare_instances(&cfg);
        assert_eq!(a.len(), 2);
        assert_eq!(a[0].edges, b[0].edges);
        assert!(a[0].edges.iter().all(|&(u, v)| u < a[0].n && v < a[0].n));
    }

    #[test]
    fn rank_slices_partition() {
        let edges: Vec<Edge> = (0..100u32).map(|i| (i, i)).collect();
        let mut all: Vec<Edge> = (0..4).flat_map(|r| rank_slice(&edges, r, 4)).collect();
        all.sort_unstable();
        assert_eq!(all, edges);
    }

    #[test]
    fn weights_deterministic_in_range() {
        let e = vec![(1u32, 2u32), (3, 4)];
        let w1 = edges_to_weighted(&e);
        let w2 = edges_to_weighted(&e);
        assert_eq!(w1, w2);
        assert!(w1.iter().all(|t| t.val >= 1.0 && t.val < 10.0));
    }
}
