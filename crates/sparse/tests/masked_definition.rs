//! The masked kernel against its definition: `masked(A, B, M)` is the
//! unmasked product with every entry outside `M` dropped — the same entries,
//! bit for bit (values and Bloom fields), and one flop per product term that
//! lands on `M`.
//!
//! Seeded cases over every left operand form, right operands whose rows are
//! in insertion order, both evaluated semirings with non-integer weights,
//! the three payloads, on a fresh and a warm workspace, the mask a pattern
//! [`Dcsr`] — and once more with the columns spread over a block one column
//! wider than the column table goes, where the kernel binary-searches the
//! mask row instead.

use dspgemm_sparse::local_mm::{spgemm_with, Bloom, Pattern, Payload, Plain};
use dspgemm_sparse::semiring::{F64Plus, MinPlus, Semiring};
use dspgemm_sparse::spa::DENSE_SPA_MAX_WIDTH;
use dspgemm_sparse::workspace::KernelWorkspace;
use dspgemm_sparse::{Csr, Dcsr, DhbMatrix, Index, RowScan, Triple};
use dspgemm_util::rng::{Rng, SplitMix64};
use std::collections::{BTreeMap, BTreeSet};

const CASES: u64 = 20;
const K_OFFSET: Index = 37;

type Pairs = BTreeSet<(Index, Index)>;

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
        (0, self)
    }
}

impl Bits for (f64, u64) {
    fn bits(self) -> (u64, u64) {
        (self.0.to_bits(), self.1)
    }
}

/// `(row, col / spread, bits)` of every entry, row-major.
fn entries<V: Bits>(m: &Dcsr<V>, spread: Index) -> Entries {
    m.to_triples()
        .iter()
        .map(|t| (t.row, t.col / spread, t.val.bits()))
        .collect()
}

/// `count` entries at distinct positions of a `rows x cols` matrix (fewer
/// if it is smaller), in drawn — not sorted — order, with non-integer
/// weights.
fn draw_entries(rng: &mut SplitMix64, rows: Index, cols: Index, count: usize) -> Vec<Triple<f64>> {
    let mut at: BTreeMap<(Index, Index), usize> = BTreeMap::new();
    let mut out = Vec::new();
    for _ in 0..count {
        let r = rng.gen_range(u64::from(rows)) as Index;
        let c = rng.gen_range(u64::from(cols)) as Index;
        let v = 0.1 + 7.3 * rng.gen_f64();
        match at.get(&(r, c)) {
            Some(&i) => out[i] = Triple::new(r, c, v),
            None => {
                at.insert((r, c), out.len());
                out.push(Triple::new(r, c, v));
            }
        }
    }
    out
}

struct Case {
    m: Index,
    k: Index,
    n: Index,
    a: Vec<Triple<f64>>,
    b: Vec<Triple<f64>>,
}

impl Case {
    fn draw(case: u64) -> Self {
        let mut rng = SplitMix64::derive(0x3A5C, case);
        let m = 2 + rng.gen_range(10) as Index;
        let k = 1 + rng.gen_range(10) as Index;
        let n = if case.is_multiple_of(4) {
            1
        } else {
            2 + rng.gen_range(14) as Index
        };
        // The last row of A stays empty: a mask row with no row in A.
        let a = draw_entries(&mut rng, m - 1, k, 3 * m as usize);
        let b = draw_entries(&mut rng, k, n, 4 * k as usize);
        Self { m, k, n, a, b }
    }

    /// The structural pattern of `A · B`, from the entry lists alone.
    fn product_pattern(&self) -> Pairs {
        let mut p = Pairs::new();
        for x in &self.a {
            for y in self.b.iter().filter(|y| y.row == x.col) {
                p.insert((x.row, y.col));
            }
        }
        p
    }

    /// Product terms landing on `mask`, from the entry lists alone.
    fn flops_on(&self, mask: &Pairs) -> u64 {
        let mut flops = 0;
        for x in &self.a {
            for y in self.b.iter().filter(|y| y.row == x.col) {
                flops += u64::from(mask.contains(&(x.row, y.col)));
            }
        }
        flops
    }

    /// The mask shapes of the issue, named.
    fn masks(&self, rng: &mut SplitMix64) -> Vec<(&'static str, Pairs)> {
        let pattern = self.product_pattern();
        let alternate: Pairs = pattern.iter().copied().step_by(2).collect();
        let mut superset = pattern.clone();
        for c in 0..self.n {
            superset.insert((self.m - 1, c));
        }
        for _ in 0..2 * self.m {
            superset.insert((
                rng.gen_range(u64::from(self.m)) as Index,
                rng.gen_range(u64::from(self.n)) as Index,
            ));
        }
        let no_row_in_a: Pairs = (0..self.n).map(|c| (self.m - 1, c)).collect();
        // One column per masked row, and only every other row of the
        // pattern masked at all: rows of A with no mask row.
        let mut one_column = Pairs::new();
        for &(r, c) in &pattern {
            if r % 2 == 0 && !one_column.iter().any(|&(mr, _)| mr == r) {
                one_column.insert((r, c));
            }
        }
        vec![
            ("empty", Pairs::new()),
            ("alternate", alternate),
            ("superset", superset),
            ("no-row-in-A", no_row_in_a),
            ("one-column", one_column),
            ("full", pattern),
        ]
    }
}

/// One left operand, one payload, one mask: every plan and both mask types
/// give the filtered unmasked product. Returns it as comparable entries.
fn check_plans<S, P, L>(
    left: &L,
    right: &DhbMatrix<f64>,
    pairs: &Pairs,
    spread: Index,
    ncols: Index,
    want_flops: u64,
    tag: &str,
) -> Entries
where
    S: Semiring<Elem = f64>,
    P: Payload<S>,
    P::Out: Bits,
    L: RowScan<f64>,
{
    let full =
        spgemm_with::<S, P, _, _, _>(left, right, &(), K_OFFSET, &mut KernelWorkspace::new());
    let want: Vec<_> = entries(&full.result, spread)
        .into_iter()
        .filter(|&(r, c, _)| pairs.contains(&(r, c)))
        .collect();
    let spread_pairs = pairs.iter().map(|&(r, c)| (r, c * spread));
    let mask = Dcsr::from_pairs(left.nrows(), ncols, spread_pairs);
    // One workspace, fresh on the first call and warm on the second.
    let mut ws = KernelWorkspace::new();
    for warm in [false, true] {
        let tag = format!("{tag} warm={warm}");
        let got = spgemm_with::<S, P, _, _, _>(left, right, &mask, K_OFFSET, &mut ws);
        got.result.validate().unwrap();
        assert_eq!(entries(&got.result, spread), want, "{tag}");
        assert_eq!(got.flops, want_flops, "{tag}: flops");
    }
    want
}

/// Every left operand form against one payload and one mask; `spread`
/// scales the columns of `B` and of the mask into a block `ncols` wide.
/// Returns the entries produced from the CSR left operand.
fn check_lefts<S, P>(case: &Case, pairs: &Pairs, spread: Index, ncols: Index, tag: &str) -> Entries
where
    S: Semiring<Elem = f64>,
    P: Payload<S>,
    P::Out: Bits,
{
    let b: Vec<Triple<f64>> = case
        .b
        .iter()
        .map(|t| Triple::new(t.row, t.col * spread, t.val))
        .collect();
    // DHB rows keep the drawn order.
    let right = DhbMatrix::from_triples(case.k, ncols, &b);
    let flops = case.flops_on(pairs);
    let csr = Csr::from_triples::<S>(case.m, case.k, case.a.clone());
    let dcsr = Dcsr::from_triples::<S>(case.m, case.k, case.a.clone());
    let dhb = DhbMatrix::from_triples(case.m, case.k, &case.a);
    let from_csr = check_plans::<S, P, _>(&csr, &right, pairs, spread, ncols, flops, tag);
    let from_dcsr = check_plans::<S, P, _>(&dcsr, &right, pairs, spread, ncols, flops, tag);
    check_plans::<S, P, _>(&dhb, &right, pairs, spread, ncols, flops, tag);
    assert_eq!(from_csr, from_dcsr, "{tag}: CSR and DCSR scan alike");
    from_csr
}

/// Every case, mask and payload under `S`, in blocks as wide as the case
/// (`wide = false`) or one column past the column table's width gate.
/// Returns every output, columns mapped back to the case's own.
fn check_semiring<S: Semiring<Elem = f64>>(wide: bool) -> Vec<Entries> {
    let mut outputs = Vec::new();
    for id in 0..CASES {
        let case = Case::draw(id);
        let (spread, ncols) = if wide {
            (DENSE_SPA_MAX_WIDTH / case.n, DENSE_SPA_MAX_WIDTH + 1)
        } else {
            (1, case.n)
        };
        let mut rng = SplitMix64::derive(0x3A5D, id);
        for (name, pairs) in case.masks(&mut rng) {
            let tag = format!("{} case {id} mask {name} ncols {ncols}", S::name());
            let plain = check_lefts::<S, Plain>(&case, &pairs, spread, ncols, &tag);
            let bloom = check_lefts::<S, Bloom>(&case, &pairs, spread, ncols, &tag);
            let pattern = check_lefts::<S, Pattern>(&case, &pairs, spread, ncols, &tag);
            assert_eq!(plain.len(), bloom.len(), "{tag}");
            assert_eq!(plain.len(), pattern.len(), "{tag}");
            if name == "empty" || name == "no-row-in-A" {
                assert!(plain.is_empty(), "{tag}");
            }
            outputs.extend([plain, bloom, pattern]);
        }
    }
    assert!(
        outputs.iter().any(|o| !o.is_empty()),
        "the cases must exercise non-empty outputs"
    );
    outputs
}

/// Narrow blocks (column table) and the same cases spread over blocks one
/// column wider than the table goes (binary search in the mask row): each
/// matches its own filtered unmasked product, and the two agree.
#[test]
fn masked_is_the_filtered_product_plus_times() {
    assert_eq!(
        check_semiring::<F64Plus>(false),
        check_semiring::<F64Plus>(true)
    );
}

#[test]
fn masked_is_the_filtered_product_min_plus() {
    assert_eq!(
        check_semiring::<MinPlus>(false),
        check_semiring::<MinPlus>(true)
    );
}
