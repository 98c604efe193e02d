//! The unmasked kernel against its definition: `spgemm_with(A, B, ())` holds
//! exactly the positions some product term lands on, each the left fold
//! with `merge` of its terms in product order — rows of `A` ascending, then
//! the order `A`'s row stores its columns, then the order `B`'s row stores
//! its own — bit for bit (values and Bloom fields), with one flop per term.
//!
//! Seeded cases over the three payloads, `(+,·)` over `f64` with weights
//! whose sums depend on the order they are taken in, `(min,+)` and `(+,·)`
//! over `u64`; on a fresh and a warm workspace; left operands CSR, DCSR and
//! DHB in insertion order; right operands CSR and DHB with ascending rows
//! (one-product rows are their scaled `B` row) or descending ones (which
//! fall through to an accumulator). Each case has one-product rows over an
//! empty and over a stored `B` row, and runs in a block as wide as itself
//! (every row dense), one whose density bar splits its rows, and one past
//! the dense scratch's width gate (every row sort-merged); a quarter of the
//! cases are one column wide.

use dspgemm_sparse::bloom::bloom_bit;
use dspgemm_sparse::local_mm::{spgemm_with, Bloom, Pattern, Payload, Plain};
use dspgemm_sparse::semiring::{F64Plus, MinPlus, Semiring, U64Plus};
use dspgemm_sparse::spa::{dense_row_profitable, DENSE_SPA_MAX_WIDTH};
use dspgemm_sparse::workspace::KernelWorkspace;
use dspgemm_sparse::{Csr, Dcsr, DhbMatrix, Index, RowRead, RowScan, Triple};
use dspgemm_util::rng::{Rng, SplitMix64};
use std::collections::{BTreeMap, BTreeSet};

const CASES: u64 = 16;
const K_OFFSET: Index = 37;

/// A product's entries as `(row, col, value bits)`, row-major.
type Entries = Vec<(Index, Index, (u64, u64))>;

/// An output entry as raw bits, so `-0.0 != 0.0` and payloads compare alike.
trait Bits: Copy {
    fn bits(self) -> (u64, u64);
}

impl Bits for f64 {
    fn bits(self) -> (u64, u64) {
        (self.to_bits(), 0)
    }
}

impl Bits for u64 {
    fn bits(self) -> (u64, u64) {
        (self, 0)
    }
}

impl<V: Bits> Bits for (V, u64) {
    fn bits(self) -> (u64, u64) {
        (self.0.bits().0, self.1)
    }
}

/// The weights a case draws under each semiring.
trait Weights: Semiring {
    fn weight(rng: &mut SplitMix64) -> Self::Elem;
}

/// Magnitudes 32 orders apart: `1e16 + 1.0` rounds back to `1e16`, so a sum
/// taken in another order than the definition's shows in the bits.
impl Weights for F64Plus {
    fn weight(rng: &mut SplitMix64) -> f64 {
        [1e16, 1.0, -1e16, 0.5][rng.gen_range(4) as usize]
    }
}

impl Weights for MinPlus {
    fn weight(rng: &mut SplitMix64) -> f64 {
        0.1 + 7.3 * rng.gen_f64()
    }
}

impl Weights for U64Plus {
    fn weight(rng: &mut SplitMix64) -> u64 {
        rng.gen_range(1000) + 1
    }
}

/// `count` entries at distinct positions of a `rows x cols` matrix (fewer
/// if it is smaller), in drawn — not sorted — order.
fn draw_positions(
    rng: &mut SplitMix64,
    rows: Index,
    cols: Index,
    count: usize,
) -> Vec<(Index, Index)> {
    let mut seen = BTreeSet::new();
    let mut out = Vec::new();
    for _ in 0..count {
        let at = (
            rng.gen_range(u64::from(rows)) as Index,
            rng.gen_range(u64::from(cols)) as Index,
        );
        if seen.insert(at) {
            out.push(at);
        }
    }
    out
}

struct Case<V> {
    m: Index,
    k: Index,
    n: Index,
    a: Vec<Triple<V>>,
    b: Vec<Triple<V>>,
}

impl<V: Copy> Case<V> {
    fn draw<S: Weights<Elem = V>>(case: u64) -> Self {
        let mut rng = SplitMix64::derive(0x50A7, case);
        let m = 3 + rng.gen_range(10) as Index;
        let k = 2 + rng.gen_range(10) as Index;
        let n = if case.is_multiple_of(4) {
            1
        } else {
            2 + rng.gen_range(14) as Index
        };
        // The last row of B stays empty.
        let b_at = draw_positions(&mut rng, k - 1, n, 3 * k as usize);
        // Rows m-2 and m-1 of A hold one entry each: over the empty row of B
        // and over a stored one.
        let mut a_at = draw_positions(&mut rng, m - 2, k, 2 * m as usize);
        a_at.push((m - 2, k - 1));
        a_at.push((m - 1, b_at[0].0));
        let mut weighted = |at: Vec<(Index, Index)>| -> Vec<Triple<V>> {
            at.into_iter()
                .map(|(r, c)| Triple::new(r, c, S::weight(&mut rng)))
                .collect()
        };
        let a = weighted(a_at);
        let b = weighted(b_at);
        Self { m, k, n, a, b }
    }

    /// Product terms, from the entry lists alone.
    fn flops(&self) -> u64 {
        let per_row = |r: Index| self.b.iter().filter(|y| y.row == r).count() as u64;
        self.a.iter().map(|x| per_row(x.col)).sum()
    }

    /// The rows of `B`, column-sorted, with columns scaled by `spread`.
    fn b_rows(&self, spread: Index) -> BTreeMap<Index, Vec<(Index, V)>> {
        let mut rows: BTreeMap<Index, Vec<(Index, V)>> = BTreeMap::new();
        for t in &self.b {
            rows.entry(t.row).or_default().push((t.col * spread, t.val));
        }
        for row in rows.values_mut() {
            row.sort_by_key(|&(c, _)| c);
        }
        rows
    }
}

/// The definition: every term `P::term(a_ik, b_kj, bit(k))` in product
/// order, folded per position with `P::merge`.
fn reference<S, P, L, R>(left: &L, right: &R) -> Entries
where
    S: Semiring,
    P: Payload<S>,
    P::Out: Bits,
    L: RowScan<S::Elem>,
    R: RowRead<S::Elem>,
{
    let mut acc: BTreeMap<(Index, Index), P::Out> = BTreeMap::new();
    left.scan_rows(|i, acols, avals| {
        for (&k, &av) in acols.iter().zip(avals) {
            let bit = bloom_bit(k + K_OFFSET);
            let (bcols, bvals) = right.row(k);
            for (&j, &bv) in bcols.iter().zip(bvals) {
                let term = P::term(av, bv, bit);
                acc.entry((i, j))
                    .and_modify(|v| *v = P::merge(*v, term))
                    .or_insert(term);
            }
        }
    });
    acc.into_iter()
        .map(|((i, j), v)| (i, j, v.bits()))
        .collect()
}

fn entries<V: Bits>(m: &Dcsr<V>) -> Entries {
    m.to_triples()
        .iter()
        .map(|t| (t.row, t.col, t.val.bits()))
        .collect()
}

/// One left operand, one right operand, one payload: a fresh workspace and
/// the warm `ws` both give the definition's entries and the counted flops.
fn check_workspaces<S, P, L, R>(
    left: &L,
    right: &R,
    ws: &mut KernelWorkspace<P::Out>,
    flops: u64,
    tag: &str,
) where
    S: Semiring,
    P: Payload<S>,
    P::Out: Bits,
    L: RowScan<S::Elem>,
    R: RowRead<S::Elem>,
{
    let want = reference::<S, P, _, _>(left, right);
    for (ws, warm) in [(&mut KernelWorkspace::new(), false), (ws, true)] {
        let tag = format!("{tag} warm={warm}");
        let got = spgemm_with::<S, P, _, _, _>(left, right, &(), K_OFFSET, ws);
        got.result.validate().unwrap();
        assert_eq!(entries(&got.result), want, "{tag}");
        assert_eq!(got.flops, flops, "{tag}: flops");
    }
}

/// Every left and right operand form of one case under one payload, in a
/// block `ncols` wide with `B`'s columns scaled by `spread`.
fn check_operands<S, P>(case: &Case<S::Elem>, spread: Index, ncols: Index, tag: &str)
where
    S: Semiring,
    P: Payload<S>,
    P::Out: Bits,
{
    let b_rows = case.b_rows(spread);
    let b: Vec<Triple<S::Elem>> = b_rows
        .iter()
        .flat_map(|(&r, row)| row.iter().map(move |&(c, v)| Triple::new(r, c, v)))
        .collect();
    let csr_b = Csr::from_triples::<S>(case.k, ncols, b);
    let mut ascending = DhbMatrix::new(case.k, ncols);
    let mut descending = DhbMatrix::new(case.k, ncols);
    for (&r, row) in &b_rows {
        let (cols, vals): (Vec<Index>, Vec<S::Elem>) = row.iter().copied().unzip();
        ascending.update_row(r, |dhb| dhb.fill_sorted(&cols, &vals));
        for &(c, v) in row.iter().rev() {
            descending.set(r, c, v);
        }
    }
    let csr_a = Csr::from_triples::<S>(case.m, case.k, case.a.clone());
    let dcsr_a = Dcsr::from_triples::<S>(case.m, case.k, case.a.clone());
    // DHB rows keep the drawn order.
    let dhb_a = DhbMatrix::from_triples(case.m, case.k, &case.a);
    let flops = case.flops();
    let mut ws = KernelWorkspace::new();
    macro_rules! rights {
        ($left:expr, $name:literal) => {
            let tag = format!("{tag} A={}", $name);
            let ws = &mut ws;
            check_workspaces::<S, P, _, _>($left, &csr_b, ws, flops, &format!("{tag} B=CSR"));
            check_workspaces::<S, P, _, _>($left, &ascending, ws, flops, &format!("{tag} B=DHB↑"));
            check_workspaces::<S, P, _, _>($left, &descending, ws, flops, &format!("{tag} B=DHB↓"));
        };
    }
    rights!(&csr_a, "CSR");
    rights!(&dcsr_a, "DCSR");
    rights!(&dhb_a, "DHB");
}

/// Every case and payload under `S`, at the three widths. Returns how many
/// rows of two or more products fell on each side of the density bar in
/// the middle width.
fn check_semiring<S: Weights>() -> (usize, usize)
where
    S::Elem: Bits,
{
    let (mut dense, mut sparse) = (0, 0);
    for id in 0..CASES {
        let case = Case::<S::Elem>::draw::<S>(id);
        let split = 256u32.div_ceil(case.n);
        let widths = [
            (1, case.n),
            (split, split * case.n),
            (DENSE_SPA_MAX_WIDTH / case.n, DENSE_SPA_MAX_WIDTH + 1),
        ];
        for (spread, ncols) in widths {
            let tag = format!("{} case {id} ncols {ncols}", S::name());
            check_operands::<S, Plain>(&case, spread, ncols, &tag);
            check_operands::<S, Bloom>(&case, spread, ncols, &tag);
            check_operands::<S, Pattern>(&case, spread, ncols, &tag);
        }
        let b_len = |k: Index| case.b.iter().filter(|y| y.row == k).count() as u64;
        let mut bound: BTreeMap<Index, (u64, u64)> = BTreeMap::new();
        for x in &case.a {
            let (terms, row_bound) = bound.entry(x.row).or_default();
            *terms += 1;
            *row_bound += b_len(x.col);
        }
        for &(terms, row_bound) in bound.values() {
            if terms >= 2 && row_bound > 0 {
                if dense_row_profitable(split * case.n, row_bound) {
                    dense += 1;
                } else {
                    sparse += 1;
                }
            }
        }
    }
    (dense, sparse)
}

fn assert_both_sides((dense, sparse): (usize, usize)) {
    assert!(
        dense > 0 && sparse > 0,
        "{dense} dense rows, {sparse} sparse rows"
    );
}

#[test]
fn unmasked_is_the_product_order_fold_plus_times() {
    assert_both_sides(check_semiring::<F64Plus>());
}

#[test]
fn unmasked_is_the_product_order_fold_min_plus() {
    assert_both_sides(check_semiring::<MinPlus>());
}

#[test]
fn unmasked_is_the_product_order_fold_u64() {
    assert_both_sides(check_semiring::<U64Plus>());
}

/// The fold order, pinned by hand: three terms on one column whose `f64`
/// sum is `0.0` taken in `A`'s stored order and `1.0` in the order a DHB row
/// inserted as `k = 0, 2, 1` stores them — sort-merged (wide block) and
/// dense (narrow block) alike.
#[test]
fn fold_follows_the_left_rows_stored_order() {
    for ncols in [1, DENSE_SPA_MAX_WIDTH + 1] {
        let b = Csr::from_triples::<F64Plus>(
            3,
            ncols,
            vec![
                Triple::new(0, 0, 1e16),
                Triple::new(1, 0, 1.0),
                Triple::new(2, 0, -1e16),
            ],
        );
        let sorted =
            Csr::from_triples::<F64Plus>(1, 3, (0..3).map(|k| Triple::new(0, k, 1.0)).collect());
        let inserted = DhbMatrix::from_triples(1, 3, &[0, 2, 1].map(|k| Triple::new(0, k, 1.0)));
        let sum = |m: Dcsr<f64>| m.to_triples()[0].val.to_bits();
        let mut ws = KernelWorkspace::new();
        let ordered = spgemm_with::<F64Plus, Plain, _, _, _>(&sorted, &b, &(), 0, &mut ws);
        let reordered = spgemm_with::<F64Plus, Plain, _, _, _>(&inserted, &b, &(), 0, &mut ws);
        assert_eq!(sum(ordered.result), 0.0f64.to_bits(), "ncols {ncols}");
        assert_eq!(sum(reordered.result), 1.0f64.to_bits(), "ncols {ncols}");
    }
}
