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
//! ([`OutputMask::row`]) and works against that sorted slice. Nothing is
//! rebuilt per rank or per round, and the per-product test no longer hashes:
//! the row's columns are marked in a column table of 4 B × block width that
//! stays in L1 and lives in the caller's workspace, all-zero between rows,
//! so every recompute on that workspace reuses it
//! (see [`crate::workspace::KernelWorkspace`]). Each of the
//! ≈ 10 products rejected for every one admitted costs one load rather than
//! one probe of a table the size of `C*`. Blocks wider than
//! [`DENSE_SPA_MAX_WIDTH`](crate::spa::DENSE_SPA_MAX_WIDTH) keep no table
//! and binary-search the mask row instead — slower than the table, still
//! faster than the hash set it replaced.
//!
//! [`MaskSet`] is the owned form of the same structure, for masks that are
//! not the pattern of a matrix at hand (candidate pairs in the analytics
//! layer). Both are [`OutputMask`]s of the one Gustavson loop nest,
//! [`spgemm_with`]; run with the [`Bloom`] payload it also emits the
//! *updated* Bloom filter `H` for the recomputed entries.

use crate::dcsr::Dcsr;
use crate::local_mm::{spgemm_with, Bloom, MmOutput, OutputMask};
use crate::semiring::Semiring;
use crate::workspace::KernelWorkspace;
use crate::{Index, RowRead, RowScan};

/// A set of `(row, col)` index pairs used as an output mask, stored like a
/// pattern-only [`Dcsr`]: the ids of its non-empty rows ascending, and per
/// row its columns ascending.
#[derive(Debug, Clone, Default)]
pub struct MaskSet {
    /// Ids of the non-empty rows, strictly ascending.
    rows: Vec<Index>,
    /// `row_end[i]` is where the columns of `rows[i]` end in `cols`; they
    /// start where the previous row's end (at 0 for the first).
    row_end: Vec<usize>,
    cols: Vec<Index>,
}

impl MaskSet {
    /// Builds the mask from the sparsity pattern of a block (values
    /// ignored), whose rows must be column-sorted — every kernel output and
    /// every block that crossed the wire is.
    pub fn from_pattern<V: Copy>(block: &Dcsr<V>) -> Self {
        let mut mask = Self::default();
        mask.rows.reserve(block.nrows_stored());
        mask.row_end.reserve(block.nrows_stored());
        mask.cols.reserve(block.nnz());
        for (r, cols, _) in block.iter_rows() {
            debug_assert!(cols.windows(2).all(|w| w[0] < w[1]), "unsorted row");
            mask.rows.push(r);
            mask.cols.extend_from_slice(cols);
            mask.row_end.push(mask.cols.len());
        }
        mask
    }

    /// Builds the mask from explicit `(row, col)` pairs in any order,
    /// duplicates allowed — the construction path for candidate-pair masks
    /// that exist independently of any matrix (e.g. link-prediction
    /// candidates in the analytics layer). One sort, then appends.
    pub fn from_pairs(pairs: impl IntoIterator<Item = (Index, Index)>) -> Self {
        let mut pairs: Vec<(Index, Index)> = pairs.into_iter().collect();
        pairs.sort_unstable();
        pairs.dedup();
        let mut mask = Self::default();
        mask.cols.reserve(pairs.len());
        for (r, c) in pairs {
            mask.append(r, c);
        }
        mask
    }

    /// Appends `(r, c)`, which must follow every stored pair in row-major
    /// order.
    fn append(&mut self, r: Index, c: Index) {
        if self.rows.last() != Some(&r) {
            self.rows.push(r);
            self.row_end.push(self.cols.len());
        }
        self.cols.push(c);
        *self.row_end.last_mut().expect("a row was just ensured") = self.cols.len();
    }

    /// Where the columns of stored row `i` (an index into `rows`) lie.
    fn span(&self, i: usize) -> std::ops::Range<usize> {
        let start = if i == 0 { 0 } else { self.row_end[i - 1] };
        start..self.row_end[i]
    }

    /// Adds `(r, c)` to the mask. Returns `true` if it was not present.
    ///
    /// A pair that follows every stored one in row-major order is appended
    /// in O(1); any other is inserted in place, which shifts the later
    /// columns and row ends — O(len). Build from unordered input with
    /// [`MaskSet::from_pairs`] instead.
    pub fn insert(&mut self, r: Index, c: Index) -> bool {
        let last = self.rows.last().zip(self.cols.last());
        if last.is_none_or(|(&lr, &lc)| (lr, lc) < (r, c)) {
            self.append(r, c);
            return true;
        }
        let i = match self.rows.binary_search(&r) {
            Ok(i) => i,
            Err(i) => {
                // A new row, empty until the column below goes in.
                let at = self.span(i).start;
                self.rows.insert(i, r);
                self.row_end.insert(i, at);
                i
            }
        };
        let span = self.span(i);
        match self.cols[span.clone()].binary_search(&c) {
            Ok(_) => false,
            Err(p) => {
                self.cols.insert(span.start + p, c);
                for end in &mut self.row_end[i..] {
                    *end += 1;
                }
                true
            }
        }
    }

    /// The masked columns of row `r`, ascending; empty if the row holds
    /// none.
    pub fn row(&self, r: Index) -> &[Index] {
        match self.rows.binary_search(&r) {
            Ok(i) => &self.cols[self.span(i)],
            Err(_) => &[],
        }
    }

    /// Iterates the masked `(row, col)` pairs in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (Index, Index)> + '_ {
        self.rows
            .iter()
            .enumerate()
            .flat_map(move |(i, &r)| self.cols[self.span(i)].iter().map(move |&c| (r, c)))
    }

    /// Whether `(r, c)` is masked (i.e. should be computed).
    pub fn contains(&self, r: Index, c: Index) -> bool {
        self.row(r).binary_search(&c).is_ok()
    }

    /// Number of masked positions.
    pub fn len(&self) -> usize {
        self.cols.len()
    }

    /// Whether the mask is empty.
    pub fn is_empty(&self) -> bool {
        self.cols.is_empty()
    }
}

impl OutputMask for MaskSet {
    #[inline]
    fn row(&self, i: Index) -> Option<&[Index]> {
        Some(MaskSet::row(self, i))
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
    mask: &MaskSet,
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
        let mut mask = MaskSet::from_pairs([(3, 4), (9, 1), (1, 2), (3, 0), (3, 4), (1, 2)]);
        assert_eq!(mask.len(), 4);
        let sorted = vec![(1, 2), (3, 0), (3, 4), (9, 1)];
        assert_eq!(mask.iter().collect::<Vec<_>>(), sorted, "row-major order");
        // First, last and absent rows.
        assert_eq!(mask.row(1), [2]);
        assert_eq!(mask.row(3), [0, 4]);
        assert_eq!(mask.row(9), [1]);
        assert!(mask.row(0).is_empty() && mask.row(5).is_empty() && mask.row(10).is_empty());
        assert_eq!(OutputMask::row(&mask, 5), Some(&[][..]));
        assert!(mask.contains(3, 0) && mask.contains(9, 1));
        assert!(!mask.contains(3, 1) && !mask.contains(2, 2) && !mask.contains(10, 1));
        // Ascending inserts append; anything else lands in place.
        assert!(mask.insert(9, 5));
        assert!(mask.insert(12, 0));
        assert!(!mask.insert(12, 0), "duplicate of the last pair");
        assert!(mask.insert(3, 2), "middle of a row");
        assert!(mask.insert(0, 7), "new first row");
        assert!(mask.insert(5, 5), "new middle row");
        assert!(mask.insert(9, 0), "front of a row");
        assert!(!mask.insert(3, 4), "duplicate in place");
        let all = vec![
            (0, 7),
            (1, 2),
            (3, 0),
            (3, 2),
            (3, 4),
            (5, 5),
            (9, 0),
            (9, 1),
            (9, 5),
            (12, 0),
        ];
        assert_eq!(mask.iter().collect::<Vec<_>>(), all);
        assert_eq!(mask.len(), all.len());
        assert_eq!(mask.row(9), [0, 1, 5]);
        // Insertion in any order builds what `from_pairs` builds.
        let mut scattered = MaskSet::default();
        for &(r, c) in all.iter().rev() {
            assert!(scattered.insert(r, c));
        }
        assert_eq!(scattered.iter().collect::<Vec<_>>(), all);
        assert_eq!(scattered.row(3), MaskSet::from_pairs(all).row(3));
    }

    #[test]
    fn full_mask_equals_unmasked_product() {
        let mut rng = SplitMix64::new(5);
        let a = random_csr(&mut rng, 40, 200);
        let b = random_csr(&mut rng, 40, 200);
        let full =
            spgemm_with::<U64Plus, Bloom, _, _, _>(&a, &b, &(), 0, &mut KernelWorkspace::new());
        let mask = MaskSet::from_pattern(&full.result);
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
        let masked = masked_spgemm_bloom::<U64Plus, _, _>(&a, &b, &MaskSet::default(), 0, 1);
        assert_eq!(masked.result.nnz(), 0);
        assert_eq!(masked.flops, 0);
    }
}
