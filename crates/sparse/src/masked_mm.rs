//! Output-masked SpGEMM for the general dynamic algorithm.
//!
//! Algorithm 2 recomputes only the entries of `C'` that may have changed —
//! those non-zero in `C*`. The local multiplication therefore takes `C*`'s
//! sparsity pattern as an *output mask*: a term `a_ik · b_kj` is accumulated
//! only if `(i, j)` is masked. Following Section VI-B, the mask is realized
//! as a local hash table over the `(row, col)` pairs of the `C*` block
//! (rebuilt per rank — the paper found rebuilding cheaper than broadcasting
//! the table itself, because hash tables are much larger than `nnz` due to
//! empty slots).
//!
//! [`MaskSet`] is an [`OutputMask`] of the one Gustavson loop nest,
//! [`spgemm_with`]; run with the [`Bloom`] payload it also emits the
//! *updated* Bloom filter `H` for the recomputed entries.

use crate::dcsr::Dcsr;
use crate::local_mm::{spgemm_with, Bloom, KernelPlan, MmOutput, OutputMask};
use crate::semiring::Semiring;
use crate::{Index, RowRead, RowScan};
use dspgemm_util::hash::FxHashSet;

/// A hash set over `(row, col)` index pairs, used as an output mask.
#[derive(Debug, Clone, Default)]
pub struct MaskSet {
    set: FxHashSet<u64>,
}

#[inline]
fn pack(r: Index, c: Index) -> u64 {
    ((r as u64) << 32) | c as u64
}

impl MaskSet {
    /// Builds the mask from the sparsity pattern of a block (values ignored).
    pub fn from_pattern<V: Copy>(block: &Dcsr<V>) -> Self {
        let mut set = FxHashSet::default();
        set.reserve(block.nnz());
        for (r, cols, _) in block.iter_rows() {
            for &c in cols {
                set.insert(pack(r, c));
            }
        }
        Self { set }
    }

    /// Builds the mask from explicit `(row, col)` pairs — the construction
    /// path for candidate-pair masks that exist independently of any matrix
    /// (e.g. link-prediction candidates in the analytics layer).
    pub fn from_pairs(pairs: impl IntoIterator<Item = (Index, Index)>) -> Self {
        let mut mask = Self::default();
        for (r, c) in pairs {
            mask.insert(r, c);
        }
        mask
    }

    /// Adds `(r, c)` to the mask. Returns `true` if it was not present.
    #[inline]
    pub fn insert(&mut self, r: Index, c: Index) -> bool {
        self.set.insert(pack(r, c))
    }

    /// Removes `(r, c)` from the mask. Returns `true` if it was present.
    #[inline]
    pub fn remove(&mut self, r: Index, c: Index) -> bool {
        self.set.remove(&pack(r, c))
    }

    /// Iterates the masked `(row, col)` pairs in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (Index, Index)> + '_ {
        self.set
            .iter()
            .map(|&k| ((k >> 32) as Index, (k & 0xFFFF_FFFF) as Index))
    }

    /// Whether `(r, c)` is masked (i.e. should be computed).
    #[inline]
    pub fn contains(&self, r: Index, c: Index) -> bool {
        self.set.contains(&pack(r, c))
    }

    /// Number of masked positions.
    pub fn len(&self) -> usize {
        self.set.len()
    }

    /// Whether the mask is empty.
    pub fn is_empty(&self) -> bool {
        self.set.is_empty()
    }
}

impl OutputMask for MaskSet {
    /// A product can never hold more entries than the mask.
    #[inline]
    fn capacity(&self) -> u64 {
        self.len() as u64
    }

    #[inline]
    fn admits(&self, i: Index, j: Index) -> bool {
        self.contains(i, j)
    }
}

/// Masked Gustavson SpGEMM with fused Bloom tracking: computes
/// `(A · B) masked at mask`, returning `(value, bloom)` entries for exactly
/// the masked positions that receive at least one contribution.
///
/// `k_offset` is the global index of `B`'s local row 0 (see
/// [`spgemm_with`], which this forwards to with an unpooled plan).
pub fn masked_spgemm_bloom<S, L, R>(
    a: &L,
    b: &R,
    mask: &MaskSet,
    k_offset: Index,
    threads: usize,
) -> MmOutput<(S::Elem, u64)>
where
    S: Semiring,
    L: RowScan<S::Elem> + Sync,
    R: RowRead<S::Elem> + Sync,
{
    spgemm_with::<S, Bloom, _, _, _>(a, b, mask, k_offset, KernelPlan::new(threads))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::Csr;
    use crate::semiring::U64Plus;
    use crate::triple::Triple;
    use dspgemm_util::rng::{Rng, SplitMix64};

    fn random_csr(rng: &mut SplitMix64, n: Index, nnz: usize) -> Csr<u64> {
        let triples: Vec<Triple<u64>> = (0..nnz)
            .map(|_| {
                Triple::new(
                    rng.gen_range(n as u64) as Index,
                    rng.gen_range(n as u64) as Index,
                    rng.gen_range(9) + 1,
                )
            })
            .collect();
        Csr::from_triples::<U64Plus>(n, n, triples)
    }

    #[test]
    fn mask_set_membership() {
        let block =
            Dcsr::from_triples::<U64Plus>(10, 10, vec![Triple::new(1, 2, 1), Triple::new(3, 4, 1)]);
        let mask = MaskSet::from_pattern(&block);
        assert_eq!(mask.len(), 2);
        assert!(mask.contains(1, 2));
        assert!(mask.contains(3, 4));
        assert!(!mask.contains(2, 1));
        assert!(!mask.contains(0, 0));
    }

    #[test]
    fn pair_construction_and_iteration() {
        let mut mask = MaskSet::from_pairs([(3, 4), (1, 2)]);
        assert!(mask.insert(9, 0));
        assert!(!mask.insert(9, 0), "duplicate insert");
        assert_eq!(mask.len(), 3);
        let mut pairs: Vec<(Index, Index)> = mask.iter().collect();
        pairs.sort_unstable();
        assert_eq!(pairs, vec![(1, 2), (3, 4), (9, 0)]);
        assert!(mask.remove(3, 4));
        assert!(!mask.remove(3, 4));
        assert!(!mask.contains(3, 4));
    }

    #[test]
    fn full_mask_equals_unmasked_product() {
        let mut rng = SplitMix64::new(5);
        let a = random_csr(&mut rng, 40, 200);
        let b = random_csr(&mut rng, 40, 200);
        let full = spgemm_with::<U64Plus, Bloom, _, _, _>(&a, &b, &(), 0, KernelPlan::new(2));
        let mask = MaskSet::from_pattern(&full.result);
        let masked = masked_spgemm_bloom::<U64Plus, _, _>(&a, &b, &mask, 0, 2);
        assert_eq!(masked.result, full.result);
        assert_eq!(masked.flops, full.flops);
    }

    #[test]
    fn partial_mask_restricts_output() {
        let mut rng = SplitMix64::new(6);
        let a = random_csr(&mut rng, 30, 150);
        let b = random_csr(&mut rng, 30, 150);
        let full = spgemm_with::<U64Plus, Bloom, _, _, _>(&a, &b, &(), 0, KernelPlan::new(1));
        // Mask = first half of the full product's entries.
        let all = full.result.to_triples();
        let half: Vec<_> = all[..all.len() / 2].to_vec();
        let mask_block = Dcsr::from_sorted_triples(30, 30, &half);
        let mask = MaskSet::from_pattern(&mask_block);
        let masked = masked_spgemm_bloom::<U64Plus, _, _>(&a, &b, &mask, 0, 1);
        let got = masked.result.to_triples();
        assert_eq!(got.len(), half.len());
        for (g, h) in got.iter().zip(&half) {
            assert_eq!((g.row, g.col), (h.row, h.col));
            assert_eq!(g.val, h.val, "masked value must equal full product value");
        }
        assert!(masked.flops < full.flops);
    }

    #[test]
    fn empty_mask_empty_output() {
        let mut rng = SplitMix64::new(8);
        let a = random_csr(&mut rng, 20, 100);
        let b = random_csr(&mut rng, 20, 100);
        let masked = masked_spgemm_bloom::<U64Plus, _, _>(&a, &b, &MaskSet::default(), 0, 2);
        assert_eq!(masked.result.nnz(), 0);
        assert_eq!(masked.flops, 0);
    }

    #[test]
    fn parallel_matches_sequential() {
        let mut rng = SplitMix64::new(9);
        let a = random_csr(&mut rng, 64, 400);
        let b = random_csr(&mut rng, 64, 400);
        let full = spgemm_with::<U64Plus, Bloom, _, _, _>(&a, &b, &(), 0, KernelPlan::new(1));
        let mask = MaskSet::from_pattern(&full.result);
        let seq = masked_spgemm_bloom::<U64Plus, _, _>(&a, &b, &mask, 0, 1);
        let par = masked_spgemm_bloom::<U64Plus, _, _>(&a, &b, &mask, 0, 4);
        assert_eq!(seq.result, par.result);
    }
}
