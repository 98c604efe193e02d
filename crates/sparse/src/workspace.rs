//! Reusable kernel workspaces.
//!
//! A local multiply that built its own accumulator (an O(ncols) dense
//! scratch) and its own flat output buffers would, under SUMMA and the
//! dynamic algorithms, pay one full set of allocations *per round*. A
//! [`KernelWorkspace`] bundles all of a multiply's reusable state — the
//! dense SPA scratch (lazily sized), the sort-merge SPA's key and term
//! scratch (8 B + one payload per product of the longest sparse row), the
//! masked accumulator with its column table, and the flat
//! `(rows, row_ptr, cols, vals)` output buffers — and every kernel call
//! borrows one (`&mut`), so pipelined rounds, dynamic X/Y passes, masked
//! recomputes and analytics refreshes that pass the same workspace stop
//! reallocating.
//!
//! Lifecycle: a call accumulates every row through the per-row
//! dense-vs-sort choice ([`crate::spa::dense_row_profitable`]) and *moves*
//! the drained flat buffers into the result `Dcsr` (zero-copy wins over
//! reuse there); the SPA state stays in the workspace. Its capacities stop
//! growing once the workload's high-water marks are reached — the invariant
//! pinned by the workspace-reuse regression tests via
//! [`KernelWorkspace::heap_bytes`].

use crate::local_mm::FlatRows;
use crate::spa::{DenseSpa, SortSpa, DENSE_SPA_MAX_WIDTH};
use crate::Index;

/// Which accumulator the current row scatters into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Active {
    Dense,
    Sort,
}

/// One kernel call's reusable state: both SPA strategies for
/// unmasked output rows, the masked accumulator for masked ones, and the
/// flat output buffers.
///
/// The masked accumulator is keyed by *position in the mask row*, not by
/// column: `masked[p]` accumulates the admitted column `mask_row[p]`, so a
/// row uses as many slots as its mask row is long and drains in mask order,
/// which is already column order. `col_table` maps a column to its position: while a
/// masked row is open, `col_table[j] = p + 1` for each admitted column and
/// 0 everywhere else, so rejecting a product is one load from a table of
/// 4 B × block width (L1-resident at the widths the engine runs). Closing
/// the row zeroes the marked entries again — the table is all-zero between
/// rows. Above [`DENSE_SPA_MAX_WIDTH`] no table is kept and the position is
/// a binary search in the mask row.
#[derive(Debug)]
pub struct KernelWorkspace<A> {
    dense: DenseSpa<A>,
    sort: SortSpa<A>,
    active: Active,
    col_table: Vec<u32>,
    masked: Vec<Option<A>>,
    pub(crate) out: FlatRows<A>,
}

impl<A: Copy> KernelWorkspace<A> {
    /// A fresh workspace with no heap behind it yet.
    pub fn new() -> Self {
        Self {
            dense: DenseSpa::unsized_new(),
            sort: SortSpa::new(),
            active: Active::Sort,
            col_table: Vec::new(),
            masked: Vec::new(),
            out: FlatRows::new(),
        }
    }

    /// Starts a new output row: picks the dense or sort-merge accumulator
    /// from the row's flop upper bound (see
    /// [`crate::spa::dense_row_profitable`]) and sizes the dense scratch on
    /// first dense use.
    ///
    /// # Panics
    /// Panics if a sort-merge row is bound above `u32::MAX` products (the
    /// position half of its keys).
    #[inline]
    pub(crate) fn begin_row(&mut self, ncols: Index, est_flops: u64) {
        if crate::spa::dense_row_profitable(ncols, est_flops) {
            self.dense.ensure_width(ncols);
            self.active = Active::Dense;
        } else {
            assert!(
                est_flops <= u64::from(u32::MAX),
                "row bound {est_flops} exceeds the sort-merge accumulator's u32 positions"
            );
            self.active = Active::Sort;
        }
    }

    /// Scatters into the accumulator selected by [`KernelWorkspace::begin_row`].
    #[inline]
    pub(crate) fn scatter(&mut self, col: Index, value: A, combine: impl FnOnce(A, A) -> A) {
        match self.active {
            Active::Dense => self.dense.scatter(col, value, combine),
            Active::Sort => self.sort.scatter(col, value),
        }
    }

    /// Ends the current row: if anything accumulated, drains it
    /// (column-sorted, coinciding terms combined with `merge` in scatter
    /// order) into the flat output buffers and seals the row.
    #[inline]
    pub(crate) fn finish_row(&mut self, row: Index, merge: impl Fn(A, A) -> A) {
        match self.active {
            Active::Dense => {
                if self.dense.is_empty() {
                    return;
                }
                self.dense
                    .drain_sorted_split(&mut self.out.cols, &mut self.out.vals);
            }
            Active::Sort => {
                if self.sort.is_empty() {
                    return;
                }
                self.sort
                    .drain_sorted_split(&mut self.out.cols, &mut self.out.vals, merge);
            }
        }
        self.out.seal_row(row);
    }

    /// Opens a masked output row whose admitted columns are `mask_row`
    /// (strictly ascending, non-empty): marks them in the column table when
    /// the width admits one and sizes the accumulator to the mask row.
    ///
    /// # Panics
    /// Panics if the mask row names a column outside `0..ncols`.
    #[inline]
    pub(crate) fn begin_masked_row(&mut self, ncols: Index, mask_row: &[Index]) {
        debug_assert!(mask_row.windows(2).all(|w| w[0] < w[1]));
        assert!(
            mask_row.last().is_some_and(|&c| c < ncols),
            "mask column outside the product's {ncols} columns"
        );
        debug_assert!(self.col_table.iter().all(|&p| p == 0));
        debug_assert!(self.masked.iter().all(Option::is_none));
        if self.masked.len() < mask_row.len() {
            self.masked.resize(mask_row.len(), None);
        }
        if ncols > DENSE_SPA_MAX_WIDTH {
            return;
        }
        if self.col_table.len() < ncols as usize {
            self.col_table.resize(ncols as usize, 0);
        }
        for (p, &c) in mask_row.iter().enumerate() {
            self.col_table[c as usize] = p as u32 + 1;
        }
    }

    /// The accumulator slot of column `col` in the open masked row, `None`
    /// if the mask rejects it. `ncols` and `mask_row` are those passed to
    /// [`KernelWorkspace::begin_masked_row`].
    #[inline]
    pub(crate) fn masked_slot(
        &self,
        ncols: Index,
        mask_row: &[Index],
        col: Index,
    ) -> Option<usize> {
        if ncols > DENSE_SPA_MAX_WIDTH {
            return mask_row.binary_search(&col).ok();
        }
        (self.col_table[col as usize] as usize).checked_sub(1)
    }

    /// Combines `value` into `slot` of the open masked row.
    #[inline]
    pub(crate) fn combine_masked(
        &mut self,
        slot: usize,
        value: A,
        combine: impl FnOnce(A, A) -> A,
    ) {
        let acc = &mut self.masked[slot];
        *acc = Some(match *acc {
            Some(prev) => combine(prev, value),
            None => value,
        });
    }

    /// Closes the open masked row: drains the slots that received a term, in
    /// mask (= column) order, into the flat output buffers, seals the row if
    /// anything was drained, and clears the column table's marks.
    #[inline]
    pub(crate) fn finish_masked_row(&mut self, row: Index, ncols: Index, mask_row: &[Index]) {
        let before = self.out.cols.len();
        for (acc, &c) in self.masked.iter_mut().zip(mask_row) {
            if let Some(v) = acc.take() {
                self.out.cols.push(c);
                self.out.vals.push(v);
            }
        }
        if ncols <= DENSE_SPA_MAX_WIDTH {
            for &c in mask_row {
                self.col_table[c as usize] = 0;
            }
        }
        if self.out.cols.len() > before {
            self.out.seal_row(row);
        }
    }

    /// Moves the accumulated flat output out of the workspace, leaving empty
    /// (capacity-free) buffers behind. The SPA state stays for reuse.
    pub(crate) fn take_out(&mut self) -> FlatRows<A> {
        let mut out = std::mem::replace(&mut self.out, FlatRows::new());
        if out.row_ptr.is_empty() {
            out.row_ptr.push(0);
        }
        out
    }

    /// Bytes of heap currently held (capacity-based): the monotone-then-flat
    /// signal of the workspace-reuse regression tests.
    pub fn heap_bytes(&self) -> usize {
        self.dense.heap_bytes()
            + self.sort.heap_bytes()
            + self.col_table.capacity() * std::mem::size_of::<u32>()
            + self.masked.capacity() * std::mem::size_of::<Option<A>>()
            + self.out.heap_bytes()
    }
}

impl<A: Copy> Default for KernelWorkspace<A> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_accumulation_matches_spa_semantics() {
        let mut ws: KernelWorkspace<u64> = KernelWorkspace::new();
        // Dense row: wide enough estimate.
        ws.begin_row(16, 16);
        ws.scatter(5, 10, |a, b| a + b);
        ws.scatter(1, 2, |a, b| a + b);
        ws.scatter(5, 3, |a, b| a + b);
        ws.finish_row(0, |x, y| x + y);
        // Sort-merge row: estimate far below width/64.
        ws.begin_row(1 << 20, 3);
        ws.scatter(7, 4, |a, b| a + b);
        ws.scatter(9, 1, |a, b| a + b);
        ws.scatter(7, 5, |a, b| a + b);
        ws.finish_row(3, |x, y| x + y);
        // Empty row leaves no trace.
        ws.begin_row(16, 16);
        ws.finish_row(5, |x, y| x + y);
        let flat = ws.take_out();
        assert_eq!(flat.rows, vec![0, 3]);
        assert_eq!(flat.row_ptr, vec![0, 2, 4]);
        assert_eq!(flat.cols, vec![1, 5, 7, 9]);
        assert_eq!(flat.vals, vec![2, 13, 9, 1]);
        // After take_out the workspace starts a fresh output.
        assert!(ws.out.rows.is_empty() && ws.out.cols.is_empty());
    }

    #[test]
    fn dense_scratch_is_lazy_and_persistent() {
        let mut ws: KernelWorkspace<u64> = KernelWorkspace::new();
        // Sort-merge-only use allocates no dense scratch.
        ws.begin_row(1 << 20, 1);
        ws.scatter(0, 1, |a, b| a + b);
        ws.finish_row(0, |x, y| x + y);
        assert!(ws.heap_bytes() < (1 << 20));
        // First dense use sizes it; later narrower rows keep it.
        ws.begin_row(1024, 1024);
        ws.scatter(0, 1, |a, b| a + b);
        ws.finish_row(1, |x, y| x + y);
        let sized = ws.heap_bytes();
        ws.begin_row(512, 512);
        ws.scatter(0, 1, |a, b| a + b);
        ws.finish_row(2, |x, y| x + y);
        assert_eq!(ws.heap_bytes(), sized, "scratch never shrinks or regrows");
    }

    /// The sort-merge scratch — an 8 B key and one payload per product of
    /// the longest sparse row — is counted, and kept across rows.
    #[test]
    fn heap_bytes_counts_sort_scratch() {
        let mut ws: KernelWorkspace<(u64, u64)> = KernelWorkspace::new();
        let scratch = |ws: &KernelWorkspace<_>| ws.heap_bytes() - ws.out.heap_bytes();
        assert_eq!(scratch(&ws), 0);
        ws.begin_row(1 << 20, 100);
        for c in 0..100 {
            ws.scatter(c, (1, 1), |x, _| x);
        }
        ws.finish_row(0, |x, _| x);
        let held = scratch(&ws);
        assert!(held >= 100 * (8 + 16), "{held} B of scratch counted");
        ws.begin_row(1 << 20, 10);
        ws.scatter(0, (1, 1), |x, _| x);
        ws.finish_row(1, |x, _| x);
        assert_eq!(scratch(&ws), held, "kept, not regrown");
    }

    /// Masked multiplies through one workspace reach their high-water capacities
    /// in the first call (column table and masked accumulator included),
    /// and every call hands the column table back all-zero.
    #[test]
    fn masked_multiplies_reuse_the_workspace() {
        use crate::csr::Csr;
        use crate::dcsr::Dcsr;
        use crate::local_mm::{spgemm_with, Bloom};
        use crate::semiring::U64Plus;
        use crate::triple::Triple;

        let n: Index = 48;
        let entries = |stride: u32| -> Vec<Triple<u64>> {
            (0..n * 6)
                .map(|x| Triple::new(x % n, (x * stride + x / n) % n, u64::from(x) + 1))
                .collect()
        };
        let a = Csr::from_triples::<U64Plus>(n, n, entries(7));
        let b = Csr::from_triples::<U64Plus>(n, n, entries(11));
        let every_third = (0..n).flat_map(|r| (0..n).step_by(3).map(move |c| (r, c)));
        let mask = Dcsr::from_pairs(n, n, every_third);
        let mut ws: KernelWorkspace<(u64, u64)> = KernelWorkspace::new();
        let mut run = || {
            let out = spgemm_with::<U64Plus, Bloom, _, _, _>(&a, &b, &mask, 0, &mut ws);
            assert!(ws.col_table.iter().all(|&p| p == 0), "marks left behind");
            assert!(ws.masked.iter().all(Option::is_none), "slots left behind");
            (out.result, ws.heap_bytes())
        };
        let (first, heap) = run();
        assert!(first.nnz() > 0);
        assert!(
            heap >= n as usize * std::mem::size_of::<u32>(),
            "table is counted"
        );
        for _ in 0..3 {
            let (again, heap_again) = run();
            assert_eq!(again, first);
            assert_eq!(heap_again, heap, "workspace heap must not regrow");
        }
    }

    /// The unmasked twin: rows forced onto the sort-merge path by a block
    /// far wider than 64 × their flop bounds (and none of one product, so
    /// none is a scaled copy) reach their high-water scratch in the first
    /// call, leave it drained, and never size the dense scratch.
    #[test]
    fn unmasked_multiplies_reuse_the_workspace() {
        use crate::csr::Csr;
        use crate::local_mm::{spgemm_with, Bloom};
        use crate::semiring::U64Plus;
        use crate::triple::Triple;

        let n: Index = 48;
        let wide: Index = 1 << 20;
        let entries = |stride: u32, spread: u32| -> Vec<Triple<u64>> {
            (0..n * 6)
                .map(|x| {
                    let col = (x * stride + x / n) % n;
                    Triple::new(x % n, col * spread, u64::from(x) + 1)
                })
                .collect()
        };
        let a = Csr::from_triples::<U64Plus>(n, n, entries(7, 1));
        let b = Csr::from_triples::<U64Plus>(n, wide, entries(11, wide / n));
        let mut ws: KernelWorkspace<(u64, u64)> = KernelWorkspace::new();
        let mut run = || {
            let out = spgemm_with::<U64Plus, Bloom, _, _, _>(&a, &b, &(), 0, &mut ws);
            assert!(ws.sort.is_empty(), "terms left behind");
            assert_eq!(ws.dense.heap_bytes(), 0, "dense scratch sized");
            (out.result, ws.heap_bytes())
        };
        let (first, heap) = run();
        assert!(first.nnz() > 0);
        assert!(heap >= 6 * (8 + 16), "sort scratch is counted");
        for _ in 0..3 {
            let (again, heap_again) = run();
            assert_eq!(again, first);
            assert_eq!(heap_again, heap, "workspace heap must not regrow");
        }
    }
}
