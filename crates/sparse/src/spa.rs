//! Sparse accumulators (SPA) for row-wise SpGEMM.
//!
//! Gustavson's algorithm forms one output row at a time by scattering scaled
//! rows of `B` into an accumulator keyed by column. Two accumulators: a dense
//! generation-marked array ([`DenseSpa`]) for rows whose flop bound clears
//! `ncols / 64`, and a sort-merge one ([`SortSpa`]) below that bar; a kernel
//! workspace holds one of each and [`dense_row_profitable`] picks per output
//! row.
//!
//! **Departure from Section VI-A.** The paper accumulates a sparse row in "a
//! sparse accumulator based on a dynamic array combined with a hash table",
//! and this module did too — one hash-map entry per product, then a sort of
//! the distinct columns for the column-sorted output. That pays off when a
//! row's products pile onto few columns. The rows below the dense bar are
//! the opposite: on the update stars of the dynamic algorithms three rows in
//! four hold one entry, so a row's products almost never coincide (over an
//! `alg-insert` run the X partials hold 274.6 M entries for 278.1 M flops),
//! and the hash table costs a probe per product only to be sorted
//! afterwards anyway. [`SortSpa`] keeps the sort and drops the table: it
//! appends each product as a key `(col << 32) | position` and a term, sorts
//! the keys once and folds each column left in product order —
//! bit-identical to the hash table's `combine(prev, new)` sequence.
//! One-product rows skip the accumulator altogether (see
//! [`crate::local_mm`]). X-pass multiply wall per rank and call,
//! `alg-insert` seed 7, mean over all 310 batches × 4 ranks, range of six
//! interleaved instrumented runs per variant:
//!
//! | accumulator below the dense bar | X-pass multiply |
//! |---|---|
//! | hash table | 4.05–5.34 ms |
//! | sort-merge | 2.25–2.99 ms |
//! | sort-merge, one-product rows copied | 1.69–2.30 ms |
//!
//! Accumulators are generic over the accumulated payload `A`, so the same
//! code path serves plain values (`A = V`) and value+Bloom-filter fusion
//! (`A = (V, u64)`, Section V-B).

use crate::Index;

/// Dense accumulator: O(ncols) scratch with generation marking, O(1) scatter,
/// output gathered from the touched list. Reset is O(touched), so reuse
/// across rows is cheap.
#[derive(Debug)]
pub struct DenseSpa<A> {
    slots: Vec<Option<A>>,
    touched: Vec<Index>,
}

impl<A: Copy> DenseSpa<A> {
    /// Creates an accumulator with *no* scratch yet; [`DenseSpa::ensure_width`]
    /// sizes it on first dense use. Kernel workspaces start here so kernels
    /// whose rows all pick the sort-merge strategy never pay the O(ncols)
    /// allocation.
    pub fn unsized_new() -> Self {
        Self {
            slots: Vec::new(),
            touched: Vec::new(),
        }
    }

    /// Grows the scratch to cover columns `0..ncols` (never shrinks — a
    /// reused accumulator keeps the widest scratch it has ever needed).
    pub fn ensure_width(&mut self, ncols: Index) {
        if self.slots.len() < ncols as usize {
            self.slots.resize(ncols as usize, None);
        }
    }

    /// Bytes of heap the accumulator holds (capacity-based, for the
    /// workspace-reuse regression tests).
    pub fn heap_bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<Option<A>>()
            + self.touched.capacity() * std::mem::size_of::<Index>()
    }

    /// Scatters `value` into `col`, combining with any previous value.
    #[inline]
    pub fn scatter(&mut self, col: Index, value: A, combine: impl FnOnce(A, A) -> A) {
        let slot = &mut self.slots[col as usize];
        match slot {
            Some(prev) => *prev = combine(*prev, value),
            None => {
                *slot = Some(value);
                self.touched.push(col);
            }
        }
    }

    /// Number of distinct columns accumulated so far.
    #[inline]
    pub fn len(&self) -> usize {
        self.touched.len()
    }

    /// Whether nothing has been accumulated.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.touched.is_empty()
    }

    /// Drains the accumulated row, column-sorted, appending columns and
    /// values to two flat parallel buffers and resetting the accumulator.
    /// This is the allocation-flat output path of the SpGEMM kernels: one
    /// pair of buffers serves every row of a kernel call.
    pub fn drain_sorted_split(&mut self, cols: &mut Vec<Index>, vals: &mut Vec<A>) {
        self.touched.sort_unstable();
        cols.reserve(self.touched.len());
        vals.reserve(self.touched.len());
        for &c in &self.touched {
            let v = self.slots[c as usize].take().expect("touched slot");
            cols.push(c);
            vals.push(v);
        }
        self.touched.clear();
    }
}

/// Sort-merge accumulator: O(row products) memory and no per-product
/// lookup. A scatter appends the term and a key `(col << 32) | position`;
/// the drain sorts the keys and folds each column's terms left in position
/// (= product) order. The keys are unique, so the unstable sort is as
/// deterministic as a stable one.
#[derive(Debug)]
pub struct SortSpa<A> {
    keys: Vec<u64>,
    terms: Vec<A>,
}

impl<A: Copy> SortSpa<A> {
    /// Creates an empty accumulator (no heap until the first scatter).
    pub fn new() -> Self {
        Self {
            keys: Vec::new(),
            terms: Vec::new(),
        }
    }

    /// Appends the term `value` for `col`. Coinciding columns combine at
    /// the drain. A row may append at most `u32::MAX + 1` terms (the
    /// position half of the key).
    #[inline]
    pub fn scatter(&mut self, col: Index, value: A) {
        self.keys
            .push((u64::from(col) << 32) | self.terms.len() as u64);
        self.terms.push(value);
    }

    /// Number of terms appended since the last drain (not distinct columns).
    #[inline]
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// Whether nothing has been appended.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Drains the accumulated row into flat column/value buffers,
    /// column-sorted (see [`DenseSpa::drain_sorted_split`]), combining a
    /// column's terms as `merge(merge(t0, t1), t2)…` in the order they were
    /// scattered — the order the dense accumulator combines them in.
    pub fn drain_sorted_split(
        &mut self,
        cols: &mut Vec<Index>,
        vals: &mut Vec<A>,
        merge: impl Fn(A, A) -> A,
    ) {
        self.keys.sort_unstable();
        let term = |key: u64| self.terms[key as u32 as usize];
        if let Some((&first, rest)) = self.keys.split_first() {
            let mut col = (first >> 32) as Index;
            let mut acc = term(first);
            for &key in rest {
                let c = (key >> 32) as Index;
                if c == col {
                    acc = merge(acc, term(key));
                } else {
                    cols.push(col);
                    vals.push(acc);
                    col = c;
                    acc = term(key);
                }
            }
            cols.push(col);
            vals.push(acc);
        }
        self.keys.clear();
        self.terms.clear();
    }

    /// Bytes of heap the accumulator holds (capacity-based): 8 B of key
    /// plus one payload per product of the longest row seen.
    pub fn heap_bytes(&self) -> usize {
        self.keys.capacity() * std::mem::size_of::<u64>()
            + self.terms.capacity() * std::mem::size_of::<A>()
    }
}

impl<A: Copy> Default for SortSpa<A> {
    fn default() -> Self {
        Self::new()
    }
}

/// Width above which the dense scratch array is considered too large and the
/// sort-merge accumulator is used instead.
pub const DENSE_SPA_MAX_WIDTH: Index = 1 << 22;

/// A row prefers the dense scratch only when its flop upper bound reaches
/// `ncols / DENSE_SPA_SPARSITY_DIV`: below that, the row touches so few
/// columns that sorting its products beats streaming a cold O(ncols) array
/// through the cache (and an all-sparse kernel call never allocates the dense
/// scratch at all).
pub const DENSE_SPA_SPARSITY_DIV: u64 = 64;

/// The per-row dense-vs-sort strategy choice of the kernel: dense
/// iff the width admits a dense scratch *and* the row's estimated flops
/// clear the [`DENSE_SPA_SPARSITY_DIV`] density bar. Depends only on
/// `(ncols, est_flops)` — never on workspace state — so a fresh and a warm
/// workspace make identical choices (bit-identical output either way).
#[inline]
pub fn dense_row_profitable(ncols: Index, est_flops: u64) -> bool {
    ncols <= DENSE_SPA_MAX_WIDTH && est_flops.saturating_mul(DENSE_SPA_SPARSITY_DIV) >= ncols as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense<A: Copy>(ncols: Index) -> DenseSpa<A> {
        let mut spa = DenseSpa::unsized_new();
        spa.ensure_width(ncols);
        spa
    }

    /// Scatter with combine, sorted drain appending to pre-seeded buffers,
    /// and reuse after the drain.
    #[test]
    fn dense_scatter_combine_drain() {
        let mut spa = dense(16);
        spa.scatter(5, 10u64, |a, b| a + b);
        spa.scatter(1, 2, |a, b| a + b);
        spa.scatter(5, 3, |a, b| a + b);
        assert_eq!(spa.len(), 2);
        let (mut cols, mut vals) = (vec![99], vec![0]);
        spa.drain_sorted_split(&mut cols, &mut vals);
        assert_eq!((cols, vals), (vec![99, 1, 5], vec![0, 2, 13]));
        assert!(spa.is_empty());
        spa.scatter(0, 1, |a, b| a + b);
        let (mut cols, mut vals) = (Vec::new(), Vec::new());
        spa.drain_sorted_split(&mut cols, &mut vals);
        assert_eq!((cols, vals), (vec![0], vec![1]));
    }

    /// The same on the sort-merge accumulator, whose combine comes at the
    /// drain.
    #[test]
    fn sort_scatter_combine_drain() {
        let add = |a: u64, b: u64| a + b;
        let mut spa = SortSpa::new();
        spa.scatter(5, 10u64);
        spa.scatter(1, 2);
        spa.scatter(5, 3);
        assert_eq!(spa.len(), 3, "terms, not columns");
        let (mut cols, mut vals) = (vec![99], vec![0]);
        spa.drain_sorted_split(&mut cols, &mut vals, add);
        assert_eq!((cols, vals), (vec![99, 1, 5], vec![0, 2, 13]));
        assert!(spa.is_empty());
        let heap = spa.heap_bytes();
        assert!(heap >= 3 * (8 + 8), "key and term scratch kept");
        spa.scatter(0, 1);
        let (mut cols, mut vals) = (Vec::new(), Vec::new());
        spa.drain_sorted_split(&mut cols, &mut vals, add);
        assert_eq!((cols, vals), (vec![0], vec![1]));
        assert_eq!(spa.heap_bytes(), heap, "reuse allocates nothing");
    }

    /// A column's terms fold left in scatter order, exactly as the dense
    /// accumulator combines them — visible under `f64` addition, where
    /// `1e16 + 1.0` rounds back to `1e16`.
    #[test]
    fn sort_folds_in_scatter_order() {
        let add = |a: f64, b: f64| a + b;
        let fold = |terms: &[(Index, f64)]| {
            let mut sort = SortSpa::new();
            let mut dense = dense(8);
            for &(c, v) in terms {
                sort.scatter(c, v);
                dense.scatter(c, v, add);
            }
            let (mut cols, mut vals) = (Vec::new(), Vec::new());
            sort.drain_sorted_split(&mut cols, &mut vals, add);
            let (mut dcols, mut dvals) = (Vec::new(), Vec::new());
            dense.drain_sorted_split(&mut dcols, &mut dvals);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!((&cols, bits(&vals)), (&dcols, bits(&dvals)));
            (cols, vals)
        };
        let ordered = [(3, 1e16), (3, 1.0), (7, 2.0), (3, -1e16)];
        assert_eq!(fold(&ordered), (vec![3, 7], vec![0.0, 2.0]));
        let swapped = [(3, 1e16), (3, -1e16), (7, 2.0), (3, 1.0)];
        assert_eq!(fold(&swapped), (vec![3, 7], vec![1.0, 2.0]));
    }

    #[test]
    fn for_width_picks_strategy() {
        // Dense iff the width admits a scratch and the row is dense enough.
        assert!(dense_row_profitable(100, 2));
        assert!(!dense_row_profitable(100, 1));
        assert!(!dense_row_profitable(DENSE_SPA_MAX_WIDTH + 1, u64::MAX));
    }

    #[test]
    fn fused_bloom_payload() {
        let mut spa = dense::<(u64, u64)>(8);
        let combine = |(v1, b1): (u64, u64), (v2, b2): (u64, u64)| (v1 + v2, b1 | b2);
        spa.scatter(3, (5, 1 << 2), combine);
        spa.scatter(3, (7, 1 << 9), combine);
        let (mut cols, mut vals) = (Vec::new(), Vec::new());
        spa.drain_sorted_split(&mut cols, &mut vals);
        assert_eq!((cols, vals), (vec![3], vec![(12, (1 << 2) | (1 << 9))]));
    }

    #[test]
    fn dense_drain_sorts_touched() {
        let mut spa = dense(1000);
        for c in [999, 0, 500, 250, 750] {
            spa.scatter(c, 1u64, |a, b| a + b);
        }
        let (mut cols, mut vals) = (Vec::new(), Vec::new());
        spa.drain_sorted_split(&mut cols, &mut vals);
        assert_eq!(cols, vec![0, 250, 500, 750, 999]);
    }
}
