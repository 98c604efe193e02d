//! Sparse accumulators (SPA) for row-wise SpGEMM.
//!
//! Gustavson's algorithm forms one output row at a time by scattering scaled
//! rows of `B` into an accumulator keyed by column. The paper's local
//! multiplication uses "a sparse accumulator based on a dynamic array
//! combined with a hash table" (Section VI-A); this module provides that
//! hash-based accumulator plus a dense generation-marked variant that is
//! faster when the output width is small enough to afford an O(ncols)
//! scratch array; a pooled workspace holds one of each and
//! [`dense_row_profitable`] picks per output row.
//!
//! Accumulators are generic over the accumulated payload `A`, so the same
//! code path serves plain values (`A = V`) and value+Bloom-filter fusion
//! (`A = (V, u64)`, Section V-B).

use crate::Index;
use dspgemm_util::FxHashMap;

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
    /// sizes it on first dense use. Pooled workspaces start here so kernels
    /// whose rows all pick the hash strategy never pay the O(ncols)
    /// allocation.
    pub fn unsized_new() -> Self {
        Self {
            slots: Vec::new(),
            touched: Vec::new(),
        }
    }

    /// Grows the scratch to cover columns `0..ncols` (never shrinks — a
    /// pooled accumulator keeps the widest scratch it has ever needed).
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
    /// pair of buffers serves every row of a worker's range.
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

/// Hash accumulator: O(row nnz) memory, for very wide or hypersparse output
/// rows where a dense scratch array would not fit or would thrash caches.
#[derive(Debug)]
pub struct HashSpa<A> {
    map: FxHashMap<Index, A>,
    /// Reusable sort scratch for the split drain (kept across rows so the
    /// flat output path allocates nothing per row).
    scratch: Vec<(Index, A)>,
}

impl<A: Copy> HashSpa<A> {
    /// Creates an empty hash accumulator.
    pub fn new() -> Self {
        Self {
            map: FxHashMap::default(),
            scratch: Vec::new(),
        }
    }

    /// Scatters `value` into `col`, combining with any previous value.
    #[inline]
    pub fn scatter(&mut self, col: Index, value: A, combine: impl FnOnce(A, A) -> A) {
        match self.map.entry(col) {
            std::collections::hash_map::Entry::Occupied(mut e) => {
                let prev = *e.get();
                e.insert(combine(prev, value));
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(value);
            }
        }
    }

    /// Number of distinct columns accumulated so far.
    #[inline]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether nothing has been accumulated.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Drains the accumulated row into flat column/value buffers,
    /// column-sorted (see [`DenseSpa::drain_sorted_split`]). Sorting goes
    /// through an internal scratch vector reused across rows.
    pub fn drain_sorted_split(&mut self, cols: &mut Vec<Index>, vals: &mut Vec<A>) {
        self.scratch.clear();
        self.scratch.extend(self.map.drain());
        self.scratch.sort_unstable_by_key(|&(c, _)| c);
        cols.reserve(self.scratch.len());
        vals.reserve(self.scratch.len());
        for &(c, v) in &self.scratch {
            cols.push(c);
            vals.push(v);
        }
    }

    /// Bytes of heap the accumulator holds (capacity-based estimate; the
    /// hash map's bucket overhead is approximated by its entry size).
    pub fn heap_bytes(&self) -> usize {
        self.map.capacity() * (std::mem::size_of::<Index>() + std::mem::size_of::<A>())
            + self.scratch.capacity() * std::mem::size_of::<(Index, A)>()
    }
}

impl<A: Copy> Default for HashSpa<A> {
    fn default() -> Self {
        Self::new()
    }
}

/// Width above which the dense scratch array is considered too large and the
/// hash accumulator is used instead.
pub const DENSE_SPA_MAX_WIDTH: Index = 1 << 22;

/// A row prefers the dense scratch only when its flop upper bound reaches
/// `ncols / DENSE_SPA_SPARSITY_DIV`: below that, the row touches so few
/// columns that hash probes beat streaming a cold O(ncols) array through
/// the cache (and an all-sparse kernel call never allocates the dense
/// scratch at all).
pub const DENSE_SPA_SPARSITY_DIV: u64 = 64;

/// The per-row dense-vs-hash strategy choice of the pooled kernels: dense
/// iff the width admits a dense scratch *and* the row's estimated flops
/// clear the [`DENSE_SPA_SPARSITY_DIV`] density bar. Depends only on
/// `(ncols, est_flops)` — never on the thread count or pool state — so
/// every [`crate::local_mm::KernelPlan`] makes identical choices
/// (bit-identical output at any thread count).
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
    /// and reuse after the drain — the same on both accumulators.
    macro_rules! exercise {
        ($spa:expr) => {{
            let mut spa = $spa;
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
        }};
    }

    #[test]
    fn dense_scatter_combine_drain() {
        exercise!(dense(16));
    }

    #[test]
    fn hash_scatter_combine_drain() {
        exercise!(HashSpa::new());
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
