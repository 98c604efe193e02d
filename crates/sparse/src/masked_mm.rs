//! Output-masked SpGEMM for the general dynamic algorithm.
//!
//! Algorithm 2 recomputes only the entries of `C'` that may have changed —
//! those non-zero in `C*`. The local multiplication therefore takes `C*`'s
//! sparsity pattern as an *output mask*: a term `a_ik · b_kj` is accumulated
//! only if `(i, j)` is masked.
//!
//! **Departure from the paper.** Section VI-B realizes the mask as a local
//! hash table over the `(row, col)` pairs of the `C*` block, rebuilt on every
//! rank because the table is too large to broadcast. Here the mask *is* the
//! block: `C*` arrives as a [`Dcsr`] whose rows are sorted by id and whose
//! columns are sorted within each row, Gustavson's loop produces one output
//! row at a time, and so the kernel asks the mask for one row
//! ([`OutputMask::row`](crate::local_mm::OutputMask::row)) and works against
//! that sorted slice. Nothing is rebuilt per rank or per round, and the
//! per-product test no longer hashes: the row's columns are marked in a
//! column table of 4 B × block width that stays in L1 and lives in the
//! caller's workspace, all-zero between rows, so every recompute on that
//! workspace reuses it (see [`crate::workspace::KernelWorkspace`]). Each of
//! the ≈ 10 products rejected for every one admitted costs one load rather
//! than one probe of a table the size of `C*`. Blocks wider than
//! [`DENSE_SPA_MAX_WIDTH`](crate::spa::DENSE_SPA_MAX_WIDTH) keep no table
//! and binary-search the mask row instead — slower than the table, still
//! faster than the hash set it replaced.
//!
//! Every mask is a pattern [`Dcsr`]: the `C*` block as it arrives, or a
//! `Dcsr<()>` built from another block ([`Dcsr::from_pattern`]) or from
//! explicit pairs ([`Dcsr::from_pairs`], the analytics layer's candidate
//! pairs). All go through the one Gustavson loop nest, [`spgemm_with`]; run
//! with the [`Bloom`] payload it also emits the *updated* Bloom filter `H`
//! for the recomputed entries.

use crate::dcsr::Dcsr;
use crate::local_mm::{spgemm_with, Bloom, MmOutput};
use crate::semiring::Semiring;
use crate::triple::{self, Triple};
use crate::workspace::KernelWorkspace;
use crate::{Index, RowRead, RowScan};

/// A pattern-only [`Dcsr`], under the name the benchmark adapter imports
/// (adapter-frozen).
pub type MaskSet = Dcsr<()>;

impl Dcsr<()> {
    /// The sparsity pattern of `block` (values dropped). Its rows must be
    /// column-sorted — every kernel output and every block that crossed the
    /// wire is.
    pub fn from_pattern<V: Copy>(block: &Dcsr<V>) -> Self {
        block.map(|_| ())
    }

    /// The pattern of explicit `(row, col)` pairs in any order, duplicates
    /// allowed, in an `nrows × ncols` block.
    pub fn from_pairs(
        nrows: Index,
        ncols: Index,
        pairs: impl IntoIterator<Item = (Index, Index)>,
    ) -> Self {
        let mut unit: Vec<Triple<()>> = pairs
            .into_iter()
            .map(|(r, c)| Triple::new(r, c, ()))
            .collect();
        triple::sort_row_major(&mut unit);
        triple::dedup_last_wins(&mut unit);
        Self::from_sorted_triples(nrows, ncols, &unit)
    }
}

/// Masked Gustavson SpGEMM with fused Bloom tracking: computes
/// `(A · B) masked at mask`, returning `(value, bloom)` entries for exactly
/// the masked positions that receive at least one contribution.
///
/// `k_offset` is the global index of `B`'s local row 0 (see
/// [`spgemm_with`], which this forwards to on a fresh workspace).
/// Adapter-frozen: `threads` must be 1; `benchmark/src/api.rs` passes it
/// until the benchmark PR drops it (DESIGN.md, "One worker per rank").
///
/// # Panics
/// Panics if `threads != 1`.
pub fn masked_spgemm_bloom<S, L, R>(
    a: &L,
    b: &R,
    mask: &Dcsr<()>,
    k_offset: Index,
    threads: usize,
) -> MmOutput<(S::Elem, u64)>
where
    S: Semiring,
    L: RowScan<S::Elem>,
    R: RowRead<S::Elem>,
{
    assert_eq!(
        threads, 1,
        "intra-rank threads are retired (DESIGN.md, \"One worker per rank\")"
    );
    spgemm_with::<S, Bloom, _, _, _>(a, b, mask, k_offset, &mut KernelWorkspace::new())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::Csr;
    use crate::local_mm::OutputMask;
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
        let mask = Dcsr::from_pattern(&block);
        assert_eq!(mask.nnz(), 2);
        assert!(mask.contains(1, 2) && mask.contains(3, 4));
        assert!(!mask.contains(2, 1) && !mask.contains(0, 0));
    }

    #[test]
    fn pair_construction_and_iteration() {
        let mask = Dcsr::from_pairs(13, 13, [(3, 4), (9, 1), (1, 2), (3, 0), (3, 4), (1, 2)]);
        assert_eq!(mask.nnz(), 4, "duplicates collapse");
        let pairs: Vec<_> = mask.to_triples().iter().map(|t| (t.row, t.col)).collect();
        assert_eq!(pairs, [(1, 2), (3, 0), (3, 4), (9, 1)], "row-major order");
        // First, last and absent rows.
        assert_eq!(OutputMask::row(&mask, 1), Some(&[2][..]));
        assert_eq!(OutputMask::row(&mask, 3), Some(&[0, 4][..]));
        assert_eq!(OutputMask::row(&mask, 9), Some(&[1][..]));
        assert_eq!(OutputMask::row(&mask, 5), Some(&[][..]));
        assert!(mask.contains(3, 0) && mask.contains(9, 1));
        assert!(!mask.contains(3, 1) && !mask.contains(2, 2) && !mask.contains(10, 1));
    }

    #[test]
    fn full_mask_equals_unmasked_product() {
        let mut rng = SplitMix64::new(5);
        let a = random_csr(&mut rng, 40, 200);
        let b = random_csr(&mut rng, 40, 200);
        let full =
            spgemm_with::<U64Plus, Bloom, _, _, _>(&a, &b, &(), 0, &mut KernelWorkspace::new());
        let mask = Dcsr::from_pattern(&full.result);
        let masked = masked_spgemm_bloom::<U64Plus, _, _>(&a, &b, &mask, 0, 1);
        assert_eq!(masked.result, full.result);
        assert_eq!(masked.flops, full.flops);
    }

    #[test]
    fn partial_mask_restricts_output() {
        let mut rng = SplitMix64::new(6);
        let a = random_csr(&mut rng, 30, 150);
        let b = random_csr(&mut rng, 30, 150);
        let full =
            spgemm_with::<U64Plus, Bloom, _, _, _>(&a, &b, &(), 0, &mut KernelWorkspace::new());
        // Mask = first half of the full product's entries.
        let all = full.result.to_triples();
        let half: Vec<_> = all[..all.len() / 2].to_vec();
        let mask_block = Dcsr::from_sorted_triples(30, 30, &half);
        let mask = Dcsr::from_pattern(&mask_block);
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
        let masked = masked_spgemm_bloom::<U64Plus, _, _>(&a, &b, &Dcsr::empty(20, 20), 0, 1);
        assert_eq!(masked.result.nnz(), 0);
        assert_eq!(masked.flops, 0);
    }
}
