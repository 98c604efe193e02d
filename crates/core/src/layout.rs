//! Explicit 2D block layouts: the cut points of the distribution.
//!
//! The paper's distribution is the implicit uniform split of
//! [`crate::grid::block_range`]: block `b` of `0..n` is fixed by `n` and `q`
//! alone. That is oblivious to skew — a clustered update stream piles nnz and
//! flops onto the few ranks whose blocks cover the hot vertex range. This
//! module makes the cut points *data*: a [`Layout`] holds the `q + 1`
//! monotone row and column cuts, every matrix carries an `Arc<Layout>` in its
//! [`crate::distmat::BlockInfo`], and redistribution routes by the layout's
//! owner lookup instead of the closed-form [`crate::grid::owner_block`]. The
//! engine's [`crate::rebalance::Rebalancer`] moves the cuts at run time
//! (stripe migration) when the per-rank load gauges report imbalance above a
//! threshold — the inter-rank analogue of the intra-rank flop balancing in
//! [`dspgemm_util::par::split_ranges_by_weight`], whose prefix-sum cut rule
//! [`rebalance_cuts`] mirrors.
//!
//! Uniform layouts remain the common case: every constructor that does not
//! take a layout builds [`Layout::uniform`], which is bit-for-bit the
//! [`crate::grid::block_range`] decomposition, so all static paths are
//! unchanged.

use crate::grid::block_range;
use dspgemm_sparse::Index;
use std::ops::Range;
use std::sync::{Arc, OnceLock};

/// The cut points of a 2D block distribution over a `q × q` grid.
///
/// `row_cuts` and `col_cuts` each hold `q + 1` monotone non-decreasing
/// values starting at `0` and ending at the global dimension; grid row `i`
/// owns global rows `row_cuts[i]..row_cuts[i + 1]` (and columns likewise by
/// grid column). Zero-width stripes are legal — a rank may own an empty
/// block, exactly as the uniform split produces when `n < q`.
#[derive(Debug, Clone)]
pub struct Layout {
    row_cuts: Vec<Index>,
    col_cuts: Vec<Index>,
    /// [`Layout::transposed`], built on first use: every batch routes its
    /// flipped update tuples under it.
    transposed: OnceLock<Arc<Layout>>,
}

/// Two layouts are equal when their cuts are.
impl PartialEq for Layout {
    fn eq(&self, other: &Self) -> bool {
        self.row_cuts == other.row_cuts && self.col_cuts == other.col_cuts
    }
}

impl Eq for Layout {}

impl Layout {
    /// The uniform layout: bit-identical to the
    /// [`crate::grid::block_range`] decomposition of both dimensions.
    pub fn uniform(nrows: Index, ncols: Index, q: usize) -> Self {
        Self::new(uniform_cuts(nrows, q), uniform_cuts(ncols, q))
    }

    fn new(row_cuts: Vec<Index>, col_cuts: Vec<Index>) -> Self {
        Self {
            row_cuts,
            col_cuts,
            transposed: OnceLock::new(),
        }
    }

    /// Builds a layout from explicit cut vectors.
    ///
    /// # Panics
    /// Panics unless both vectors have the same length `q + 1 >= 2`, start
    /// at `0`, and are monotone non-decreasing.
    pub fn from_cuts(row_cuts: Vec<Index>, col_cuts: Vec<Index>) -> Self {
        validate_cuts(&row_cuts, "row");
        validate_cuts(&col_cuts, "col");
        assert_eq!(
            row_cuts.len(),
            col_cuts.len(),
            "row/col cut vectors must target the same grid side"
        );
        Self::new(row_cuts, col_cuts)
    }

    /// A square layout: the same cuts on both dimensions (the shape every
    /// dynamic `C = A·B` session with square operands migrates through, so
    /// that SUMMA's inner dimension stays conformal with both operands).
    pub fn square(cuts: Vec<Index>) -> Self {
        Self::from_cuts(cuts.clone(), cuts)
    }

    /// Grid side length this layout targets.
    #[inline]
    pub fn q(&self) -> usize {
        self.row_cuts.len() - 1
    }

    /// Global row count.
    #[inline]
    pub fn nrows(&self) -> Index {
        *self.row_cuts.last().expect("validated: q + 1 cuts")
    }

    /// Global column count.
    #[inline]
    pub fn ncols(&self) -> Index {
        *self.col_cuts.last().expect("validated: q + 1 cuts")
    }

    /// The row cut points (length `q + 1`).
    #[inline]
    pub fn row_cuts(&self) -> &[Index] {
        &self.row_cuts
    }

    /// The column cut points (length `q + 1`).
    #[inline]
    pub fn col_cuts(&self) -> &[Index] {
        &self.col_cuts
    }

    /// Global rows owned by grid row `b`.
    #[inline]
    pub fn row_range(&self, b: usize) -> Range<Index> {
        self.row_cuts[b]..self.row_cuts[b + 1]
    }

    /// Global columns owned by grid column `b`.
    #[inline]
    pub fn col_range(&self, b: usize) -> Range<Index> {
        self.col_cuts[b]..self.col_cuts[b + 1]
    }

    /// First global column of grid column `b`.
    #[inline]
    pub fn col_start(&self, b: usize) -> Index {
        self.col_cuts[b]
    }

    /// The grid row owning global row `x`, plus that stripe's start.
    /// Zero-width stripes are skipped — the returned stripe always
    /// contains `x`.
    #[inline]
    pub fn row_owner(&self, x: Index) -> (usize, Index) {
        owner_of(&self.row_cuts, x)
    }

    /// The grid column owning global column `x`, plus that stripe's start.
    #[inline]
    pub fn col_owner(&self, x: Index) -> (usize, Index) {
        owner_of(&self.col_cuts, x)
    }

    /// The transposed layout (row and column cuts swapped) — the layout of
    /// `Aᵀ` given the layout of `A`. Built once per layout and shared from
    /// then on.
    pub fn transposed(&self) -> Arc<Layout> {
        let built = || Arc::new(Self::new(self.col_cuts.clone(), self.row_cuts.clone()));
        Arc::clone(self.transposed.get_or_init(built))
    }

    /// Whether `self · rhs` is conformal at the block level: the inner
    /// dimension must be cut identically on both sides, or SUMMA's round
    /// panels would not line up.
    pub fn conformal_inner(&self, rhs: &Layout) -> bool {
        self.col_cuts == rhs.row_cuts
    }

    /// The layout of the product `self · rhs` (self's row cuts × rhs's
    /// column cuts).
    ///
    /// # Panics
    /// Panics unless the inner dimension is conformally cut.
    pub fn product(&self, rhs: &Layout) -> Self {
        assert!(
            self.conformal_inner(rhs),
            "product of non-conformal layouts: inner cuts {:?} vs {:?}",
            self.col_cuts,
            rhs.row_cuts
        );
        Self::new(self.row_cuts.clone(), rhs.col_cuts.clone())
    }
}

/// A shared uniform layout — the default carried by every matrix built
/// without an explicit layout.
pub fn uniform_layout(nrows: Index, ncols: Index, q: usize) -> Arc<Layout> {
    Arc::new(Layout::uniform(nrows, ncols, q))
}

/// The uniform cut vector over one dimension: bit-identical to the
/// [`crate::grid::block_range`] decomposition of `0..n` into `q` stripes.
pub fn uniform_cuts(n: Index, q: usize) -> Vec<Index> {
    let mut cuts = Vec::with_capacity(q + 1);
    for b in 0..q {
        cuts.push(block_range(n, q, b).start);
    }
    cuts.push(n);
    cuts
}

fn validate_cuts(cuts: &[Index], which: &str) {
    assert!(cuts.len() >= 2, "{which} cuts need at least 2 entries");
    assert_eq!(cuts[0], 0, "{which} cuts must start at 0");
    assert!(
        cuts.windows(2).all(|w| w[0] <= w[1]),
        "{which} cuts must be monotone non-decreasing: {cuts:?}"
    );
}

/// The stripe whose range contains `x`: the *last* stripe starting at or
/// before `x` skips any zero-width stripes sharing that start. Returns the
/// stripe index and its start cut.
#[inline]
pub fn owner_of(cuts: &[Index], x: Index) -> (usize, Index) {
    debug_assert!(x < *cuts.last().expect("validated: q + 1 cuts"));
    let b = cuts.partition_point(|&c| c <= x) - 1;
    (b, cuts[b])
}

/// New cut points balancing `loads` over the stripes of `old_cuts`: the
/// inter-rank twin of [`dspgemm_util::par::split_ranges_by_weight`].
///
/// `loads[b]` is the measured load of old stripe `old_cuts[b]..old_cuts[b+1]`
/// (per-rank nnz summed over the grid row/column). The solver places cut `k`
/// at the index whose load prefix reaches `k/q` of the total, interpolating
/// inside stripes under a piecewise-uniform density assumption — the finest
/// statement the per-stripe gauges support. Monotone by construction,
/// exactly `q + 1` cuts, endpoints pinned at `0` and `n`; all-zero loads
/// fall back to the uniform split (same rule as `split_ranges_by_weight`).
pub fn rebalance_cuts(old_cuts: &[Index], loads: &[u64]) -> Vec<Index> {
    let q = loads.len();
    assert_eq!(old_cuts.len(), q + 1, "need one load per stripe");
    let n = *old_cuts.last().expect("q + 1 cuts");
    let total: u128 = loads.iter().map(|&w| w as u128).sum();
    if total == 0 || q == 1 {
        return uniform_cuts(n, q);
    }
    let mut cuts: Vec<Index> = Vec::with_capacity(q + 1);
    cuts.push(0);
    // `before` is the load of stripes fully left of `stripe`; the targets
    // are non-decreasing, so one forward sweep places every cut.
    let mut stripe = 0usize;
    let mut before: u128 = 0;
    for k in 1..q {
        let target = total * k as u128 / q as u128;
        while stripe + 1 < q && before + loads[stripe] as u128 <= target {
            before += loads[stripe] as u128;
            stripe += 1;
        }
        let (lo, hi) = (old_cuts[stripe] as u128, old_cuts[stripe + 1] as u128);
        let w = loads[stripe] as u128;
        let need = target.saturating_sub(before).min(w);
        let pos = match ((hi - lo) * need).checked_div(w) {
            Some(off) => lo + off,
            None => lo,
        } as Index;
        cuts.push(pos.max(*cuts.last().expect("non-empty")).min(n));
    }
    cuts.push(n);
    cuts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::{block_range, owner_block};

    #[test]
    fn uniform_matches_block_range() {
        for n in [0u32, 1, 7, 9, 64, 1023] {
            for q in [1usize, 2, 3, 7] {
                let l = Layout::uniform(n, n, q);
                for b in 0..q {
                    assert_eq!(l.row_range(b), block_range(n, q, b));
                    assert_eq!(l.col_range(b), block_range(n, q, b));
                }
                for x in 0..n {
                    assert_eq!(l.row_owner(x), owner_block(n, q, x));
                    assert_eq!(l.col_owner(x), owner_block(n, q, x));
                }
            }
        }
    }

    #[test]
    fn owner_skips_zero_width_stripes() {
        let l = Layout::square(vec![0, 5, 5, 10]);
        assert_eq!(l.row_range(1), 5..5);
        for x in 0..5 {
            assert_eq!(l.row_owner(x), (0, 0));
        }
        for x in 5..10 {
            assert_eq!(l.row_owner(x), (2, 5));
        }
        // Leading zero-width stripe: index 0 belongs to the non-empty one.
        let l = Layout::square(vec![0, 0, 5, 10]);
        assert_eq!(l.row_owner(0), (1, 0));
        assert_eq!(l.row_owner(7), (2, 5));
    }

    #[test]
    fn transpose_and_product() {
        let l = Layout::from_cuts(vec![0, 2, 10], vec![0, 7, 8]);
        let t = l.transposed();
        assert_eq!(t.row_cuts(), &[0, 7, 8]);
        assert_eq!(t.col_cuts(), &[0, 2, 10]);
        assert!(l.conformal_inner(&t));
        let p = l.product(&t);
        assert_eq!(p.row_cuts(), &[0, 2, 10]);
        assert_eq!(p.col_cuts(), &[0, 2, 10]);
    }

    #[test]
    #[should_panic(expected = "monotone")]
    fn decreasing_cuts_rejected() {
        let _ = Layout::square(vec![0, 6, 5, 10]);
    }

    #[test]
    fn rebalance_cuts_properties() {
        // Property sweep: monotone, exactly q + 1 cuts, pinned endpoints.
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            state >> 33
        };
        for q in [1usize, 2, 3, 4, 9] {
            for n in [0u32, 1, 3, 9, 100, 1000] {
                for _case in 0..20 {
                    let old = uniform_cuts(n, q);
                    let loads: Vec<u64> = (0..q).map(|_| next() % 1000).collect();
                    let new = rebalance_cuts(&old, &loads);
                    assert_eq!(new.len(), q + 1);
                    assert_eq!(new[0], 0);
                    assert_eq!(*new.last().unwrap(), n);
                    assert!(new.windows(2).all(|w| w[0] <= w[1]), "{new:?}");
                    // Valid input for Layout.
                    let _ = Layout::square(new);
                }
            }
        }
    }

    #[test]
    fn rebalance_cuts_zero_weight_fallback() {
        let old = vec![0u32, 1, 2, 9];
        assert_eq!(rebalance_cuts(&old, &[0, 0, 0]), uniform_cuts(9, 3));
    }

    #[test]
    fn rebalance_cuts_splits_hot_stripe() {
        // All load on stripe 0: the new cuts subdivide it.
        let old = vec![0u32, 3, 6, 9];
        assert_eq!(rebalance_cuts(&old, &[90, 0, 0]), vec![0, 1, 2, 9]);
        // All load on the last stripe.
        assert_eq!(rebalance_cuts(&old, &[0, 0, 90]), vec![0, 7, 8, 9]);
        // Zero-weight middle stripe absorbed.
        assert_eq!(rebalance_cuts(&old, &[45, 0, 45]), vec![0, 2, 7, 9]);
        // Balanced load keeps the cuts in place.
        assert_eq!(rebalance_cuts(&old, &[30, 30, 30]), vec![0, 3, 6, 9]);
    }

    #[test]
    fn rebalance_cuts_balances_load() {
        // The rebalanced stripes carry near-equal load under the density
        // model: per-index density is loads[b] / width(b).
        let old = vec![0u32, 25, 50, 75, 100];
        let loads = [1000u64, 10, 10, 20];
        let new = rebalance_cuts(&old, &loads);
        let density = |x: u32| -> f64 {
            let b = old.partition_point(|&c| c <= x) - 1;
            loads[b] as f64 / (old[b + 1] - old[b]) as f64
        };
        let stripe_load = |lo: u32, hi: u32| -> f64 { (lo..hi).map(density).sum() };
        let total: f64 = stripe_load(0, 100);
        for b in 0..4 {
            let l = stripe_load(new[b], new[b + 1]);
            assert!(
                (l - total / 4.0).abs() <= total / 10.0,
                "stripe {b} ({:?}) load {l} vs target {}",
                new[b]..new[b + 1],
                total / 4.0
            );
        }
    }
}
