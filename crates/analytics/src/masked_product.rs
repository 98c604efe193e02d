//! Distributed masked SpGEMM: evaluate a product only at candidate positions.
//!
//! Computes `(A · B) ∘ M` where `M` is a per-rank output mask over this
//! rank's block of the product. It is sparse SUMMA's one round body
//! ([`summa_rounds`], pipelined like every other product) called with the
//! mask and a merging fold: operand blocks still travel — the mask cannot
//! prune *communication*, because a masked entry may draw contributions
//! from every inner block — but the local kernel runs under the mask, so
//! *compute* is pruned to `O(flops reaching masked positions)`, and a
//! product the mask rejects costs one load (`dspgemm_sparse::masked_mm`).
//!
//! The analytics layer uses this to bootstrap candidate-pair views
//! (link-prediction scores over a fixed candidate set) whose per-batch
//! refresh is then served from the maintained product's change feed.

use dspgemm_core::distmat::DistMat;
use dspgemm_core::exec::Exec;
use dspgemm_core::grid::Grid;
use dspgemm_core::summa::summa_rounds;
use dspgemm_sparse::local_mm::{Bloom, Payload};
use dspgemm_sparse::semiring::Semiring;
use dspgemm_sparse::Dcsr;
use dspgemm_util::stats::PhaseTimer;

/// Computes this rank's masked product block `(A · B) ∘ mask` with fused
/// Bloom tracking; entries carry `(value, bits)`. `mask` is a pattern in
/// block-local coordinates of this rank's `C` block. Returns the block plus
/// the local flop count. The kernels run on `exec`'s workspaces, so the
/// session's candidate-pair rescans reuse them. Collective over the grid.
pub fn masked_product<S: Semiring>(
    grid: &Grid,
    a: &DistMat<S::Elem>,
    b: &DistMat<S::Elem>,
    mask: &Dcsr<()>,
    exec: &Exec<S>,
    timer: &mut PhaseTimer,
) -> (Dcsr<(S::Elem, u64)>, u64) {
    let mut acc: Option<Dcsr<(S::Elem, u64)>> = None;
    let flops = summa_rounds::<S, Bloom>(grid, a, b, mask, exec, timer, |part| {
        acc = Some(match acc.take() {
            None => part,
            Some(prev) => Dcsr::merge_with(&prev, &part, <Bloom as Payload<S>>::merge),
        });
    });
    let block = acc.unwrap_or_else(|| Dcsr::empty(a.info().local_rows(), b.info().local_cols()));
    (block, flops)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dspgemm_core::summa::summa;
    use dspgemm_mpi::run;
    use dspgemm_sparse::semiring::U64Plus;
    use dspgemm_sparse::{Index, RowScan, Triple};
    use dspgemm_util::rng::{Rng, SplitMix64};

    fn random_triples(seed: u64, n: Index, count: usize) -> Vec<Triple<u64>> {
        let mut rng = SplitMix64::new(seed);
        (0..count)
            .map(|_| {
                Triple::new(
                    rng.gen_range(n as u64) as Index,
                    rng.gen_range(n as u64) as Index,
                    rng.gen_range(5) + 1,
                )
            })
            .collect()
    }

    #[test]
    fn masked_product_matches_summa_at_masked_positions() {
        let n: Index = 26;
        for p in [1usize, 4, 9] {
            let out = run(p, move |comm| {
                let grid = Grid::new(comm);
                let mut timer = PhaseTimer::new();
                let feed = |s: u64| {
                    if comm.rank() == 0 {
                        random_triples(s, n, 130)
                    } else {
                        vec![]
                    }
                };
                let a = DistMat::from_global_triples(&grid, n, n, feed(1), 1, &mut timer);
                let b = DistMat::from_global_triples(&grid, n, n, feed(2), 1, &mut timer);
                let (c_full, _) = summa::<U64Plus>(&grid, &a, &b, 1, &mut timer);
                // Mask = every third entry of the full product's local block,
                // plus a masked position the product never touches.
                let mut pairs = vec![(0, 0)];
                let mut picked = Vec::new();
                let mut idx = 0usize;
                c_full.block().scan_rows(|r, cols, vals| {
                    for (&cc, &v) in cols.iter().zip(vals) {
                        if idx.is_multiple_of(3) {
                            pairs.push((r, cc));
                            picked.push((r, cc, v));
                        }
                        idx += 1;
                    }
                });
                let info = c_full.info();
                let mask = Dcsr::from_pairs(info.local_rows(), info.local_cols(), pairs);
                let empty_probe_in_product = c_full.block().get(0, 0).is_some();
                let (got, flops) =
                    masked_product::<U64Plus>(&grid, &a, &b, &mask, &Exec::new(), &mut timer);
                // Every picked entry reproduced exactly.
                let mut got_map = std::collections::BTreeMap::new();
                got.scan_rows(|r, cols, vals| {
                    for (&cc, &(v, bits)) in cols.iter().zip(vals) {
                        assert_ne!(bits, 0);
                        got_map.insert((r, cc), v);
                    }
                });
                let all_match = picked
                    .iter()
                    .all(|&(r, cc, v)| got_map.get(&(r, cc)) == Some(&v));
                // Nothing outside the mask is produced.
                let within = got_map.keys().all(|&(r, cc)| mask.contains(r, cc));
                let probe_ok = empty_probe_in_product || !got_map.contains_key(&(0, 0));
                (all_match, within, probe_ok, flops)
            });
            for &(all_match, within, probe_ok, _) in &out.results {
                assert!(all_match && within && probe_ok, "p={p}");
            }
        }
    }
}
