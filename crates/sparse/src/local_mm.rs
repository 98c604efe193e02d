//! Local (per-rank) SpGEMM: Gustavson's row-wise algorithm over a semiring.
//!
//! `C[i, :] = Σ_k A[i, k] · B[k, :]` — iterate the non-empty rows of `A`,
//! scale the corresponding rows of `B`, and accumulate in a SPA: the dense
//! one when the row's flop bound clears the density bar, the sort-merge one
//! below it (see [`crate::spa`]). A row of `A` with one stored column `k`
//! whose `B` row is strictly ascending is that row scaled, so it is emitted
//! as it stands — no bound, no accumulator. On the update-star shapes of
//! the dynamic algorithms three rows in four are such rows. The one loop
//! nest, [`spgemm_with`], is generic over
//!
//! * the semiring `S`,
//! * the [`Payload`] an output entry carries: the value ([`Plain`]), the
//!   value fused with the ℓ=64-bit Bloom field of contributing inner indices
//!   `k` that the general dynamic algorithm needs (Section V-B; [`Bloom`]),
//!   that field alone ([`Pattern`]), or the value fused with the number of
//!   products it sums ([`Counted`], for a ring's path counts),
//! * the [`Entry`] type of each operand: a stored value, which stands for
//!   one path, or a `(value, Δpresence)` pair of a counted update block,
//! * the [`OutputMask`]: `()` for the full product; a pattern [`Dcsr`] —
//!   the `C*` block itself for Algorithm 2's recompute, or a `Dcsr<()>` of
//!   candidate pairs — for a masked one: a masked output row is combined in
//!   the workspace's masked accumulator, which rejects a product with one
//!   load (see [`crate::masked_mm`]),
//! * the left operand (anything that can [`RowScan`]: CSR, DCSR, DHB), and
//! * the right operand (anything with O(1) row access, [`RowRead`]: CSR,
//!   DHB — never DCSR, matching the paper's "no search for an index is ever
//!   necessary" invariant).
//!
//! A call is one loop over the stored rows of `A` on the one
//! [`KernelWorkspace`] its caller lends it (`&mut`). The paper gives each of
//! `T` OpenMP threads its own accumulator (Section VI-A); here the rank is
//! the unit of parallelism, the kernel runs no workers of its own (see
//! DESIGN.md, "One worker per rank"), and one workspace per payload is all a
//! rank needs.
//!
//! Output assembly is **allocation-flat**: the loop drains each row's
//! accumulator into one `(rows, row_ptr, cols, vals)` buffer set
//! (`FlatRows`), and the buffers move into the result [`Dcsr`] as they are —
//! no per-row `Vec`s, no copy through staging buffers.

use crate::bloom::bloom_bit;
use crate::dcsr::Dcsr;
use crate::semiring::Semiring;
use crate::workspace::KernelWorkspace;
use crate::{Index, RowRead, RowScan};

/// Result of a local multiplication: the product block plus the scalar
/// multiplication count (the paper's `flops` metric).
#[derive(Debug, Clone)]
pub struct MmOutput<A> {
    /// The product, hypersparse-friendly.
    pub result: Dcsr<A>,
    /// Number of scalar semiring multiplications performed.
    pub flops: u64,
}

/// An operand entry as a product term reads it: its value, and how many
/// paths it stands for, in ℤ/2⁶⁴. A stored value stands for one; an entry
/// of a counted update block carries its change in presence, `−1`, `0` or
/// `+1`, beside its change in value.
pub trait Entry<V>: Copy {
    /// The value.
    fn value(self) -> V;

    /// The paths it stands for.
    #[inline]
    fn count(self) -> u64 {
        1
    }
}

impl<V: Copy> Entry<V> for V {
    #[inline]
    fn value(self) -> V {
        self
    }
}

impl<V: Copy> Entry<V> for (V, i8) {
    #[inline]
    fn value(self) -> V {
        self.0
    }

    /// The change in presence, sign-extended: `−1` is `u64::MAX`.
    #[inline]
    fn count(self) -> u64 {
        self.1 as u64
    }
}

/// What one output entry of a multiply carries: the contribution of one
/// product term `a_ik · b_kj` and how coinciding contributions combine —
/// in the SPA, and again wherever partial blocks are merged.
pub trait Payload<S: Semiring>: 'static {
    /// Output entry type.
    type Out: Copy + Send;

    /// The contribution of `a · b`, where `bit` is the Bloom bit
    /// `1 << (k mod 64)` of the term's global inner index.
    fn term<A: Entry<S::Elem>, B: Entry<S::Elem>>(a: A, b: B, bit: u64) -> Self::Out;

    /// Combines coinciding entries.
    fn merge(a: Self::Out, b: Self::Out) -> Self::Out;
}

/// Values only.
#[derive(Debug)]
pub struct Plain;

impl<S: Semiring> Payload<S> for Plain {
    type Out = S::Elem;

    #[inline]
    fn term<A: Entry<S::Elem>, B: Entry<S::Elem>>(a: A, b: B, _bit: u64) -> S::Elem {
        S::mul(a.value(), b.value())
    }

    #[inline]
    fn merge(a: S::Elem, b: S::Elem) -> S::Elem {
        S::add(a, b)
    }
}

/// Values fused with the Bloom bitfield of contributing inner indices —
/// what maintaining the filter matrix `F` takes.
#[derive(Debug)]
pub struct Bloom;

impl<S: Semiring> Payload<S> for Bloom {
    type Out = (S::Elem, u64);

    #[inline]
    fn term<A: Entry<S::Elem>, B: Entry<S::Elem>>(a: A, b: B, bit: u64) -> (S::Elem, u64) {
        (S::mul(a.value(), b.value()), bit)
    }

    #[inline]
    fn merge(a: (S::Elem, u64), b: (S::Elem, u64)) -> (S::Elem, u64) {
        (S::add(a.0, b.0), a.1 | b.1)
    }
}

/// Structure and Bloom bits only, never touching values — the
/// `COMPUTE_PATTERN` kernel of the general dynamic algorithm (Section V-B):
/// "we do not require the values of C* for our algorithm; computing the
/// sparsity structure of C* is enough".
#[derive(Debug)]
pub struct Pattern;

impl<S: Semiring> Payload<S> for Pattern {
    type Out = u64;

    #[inline]
    fn term<A: Entry<S::Elem>, B: Entry<S::Elem>>(_a: A, _b: B, bit: u64) -> u64 {
        bit
    }

    #[inline]
    fn merge(a: u64, b: u64) -> u64 {
        a | b
    }
}

/// Values fused with the number of products they sum — the path count a
/// ring keeps in `F` (the counting algorithm of incremental view
/// maintenance). A term counts the product of its operands' counts: one for
/// two stored entries, an update entry's change in presence against a
/// stored one. Counts add in ℤ/2⁶⁴, so a negative change cancels exactly.
#[derive(Debug)]
pub struct Counted;

impl<S: Semiring> Payload<S> for Counted {
    type Out = (S::Elem, u64);

    #[inline]
    fn term<A: Entry<S::Elem>, B: Entry<S::Elem>>(a: A, b: B, _bit: u64) -> (S::Elem, u64) {
        (
            S::mul(a.value(), b.value()),
            a.count().wrapping_mul(b.count()),
        )
    }

    #[inline]
    fn merge(a: (S::Elem, u64), b: (S::Elem, u64)) -> (S::Elem, u64) {
        (S::add(a.0, b.0), a.1.wrapping_add(b.1))
    }
}

/// Which output positions a multiply may write, handed to the kernel one
/// output row at a time: the kernel asks once per row of `A`, never per
/// product, so a mask costs a row lookup plus whatever the masked
/// accumulator charges a rejected term (one load; see
/// [`crate::masked_mm`]).
pub trait OutputMask {
    /// The admitted columns of output row `i`, strictly ascending and all
    /// below the product's width (the kernel panics on one that is not) —
    /// empty when the mask holds nothing in that row, so the kernel skips
    /// the row without reading `B`. `None` means the row is unrestricted.
    fn row(&self, i: Index) -> Option<&[Index]>;
}

/// No mask: the full product.
impl OutputMask for () {
    #[inline]
    fn row(&self, _i: Index) -> Option<&[Index]> {
        None
    }
}

/// A pattern is its own mask: the admitted positions are its stored
/// entries (values ignored), one binary search over the stored rows per
/// output row. Its rows must be column-sorted — every kernel output and
/// every block decoded from the wire is. Algorithm 2 passes the broadcast
/// `C*` block as it arrives.
impl<V: Copy> OutputMask for Dcsr<V> {
    #[inline]
    fn row(&self, i: Index) -> Option<&[Index]> {
        Some(self.row_cols(i))
    }
}

/// The rows one kernel call produces, in the flat `(rows, row_ptr, cols,
/// vals)` form of [`Dcsr::from_parts`]. The loop drains each row's
/// accumulator straight into these buffers — no per-row `Vec`, no
/// intermediate `(col, val)` pairs. A new one holds no heap: `row_ptr`
/// gets its leading 0 when the first row is sealed
/// (`KernelWorkspace::take_out` adds it to an empty output).
#[derive(Debug)]
pub(crate) struct FlatRows<A> {
    pub(crate) rows: Vec<Index>,
    pub(crate) row_ptr: Vec<usize>,
    pub(crate) cols: Vec<Index>,
    pub(crate) vals: Vec<A>,
    pub(crate) flops: u64,
}

impl<A> FlatRows<A> {
    pub(crate) fn new() -> Self {
        Self {
            rows: Vec::new(),
            row_ptr: Vec::new(),
            cols: Vec::new(),
            vals: Vec::new(),
            flops: 0,
        }
    }

    /// Closes the current row after its entries were drained into
    /// `cols`/`vals`.
    #[inline]
    pub(crate) fn seal_row(&mut self, row: Index) {
        if self.row_ptr.is_empty() {
            self.row_ptr.push(0);
        }
        self.rows.push(row);
        self.row_ptr.push(self.cols.len());
    }

    /// Appends a whole row of column-sorted entries, sealing it unless it
    /// is empty.
    #[inline]
    pub(crate) fn push_row(&mut self, row: Index, cols: &[Index], vals: impl Iterator<Item = A>) {
        if cols.is_empty() {
            return;
        }
        self.cols.extend_from_slice(cols);
        self.vals.extend(vals);
        self.seal_row(row);
    }

    /// Capacity-held heap bytes (workspace-reuse accounting).
    pub(crate) fn heap_bytes(&self) -> usize {
        self.rows.capacity() * std::mem::size_of::<Index>()
            + self.row_ptr.capacity() * std::mem::size_of::<usize>()
            + self.cols.capacity() * std::mem::size_of::<Index>()
            + self.vals.capacity() * std::mem::size_of::<A>()
    }
}

/// Upper bound on one row's flops (and therefore its output non-zeros):
/// `Σ_k |B[k, :]|` over the row's stored columns — what the per-row
/// dense-vs-sort SPA choice reads.
#[inline]
fn row_flop_bound<VB, R: RowRead<VB>>(b: &R, acols: &[Index]) -> u64 {
    acols.iter().map(|&k| b.row(k).0.len() as u64).sum()
}

/// Gustavson SpGEMM: `A · B` over semiring `S` on a workspace of its own
/// (see [`spgemm_with`] for payload, mask and workspace control).
/// Adapter-frozen: `threads` must be 1; `benchmark/src/api.rs` passes it
/// until the benchmark PR drops it (DESIGN.md, "One worker per rank").
///
/// # Panics
/// Panics if the inner dimensions disagree or `threads != 1`.
pub fn spgemm<S, L, R>(a: &L, b: &R, threads: usize) -> MmOutput<S::Elem>
where
    S: Semiring,
    L: RowScan<S::Elem>,
    R: RowRead<S::Elem>,
{
    assert_eq!(
        threads, 1,
        "intra-rank threads are retired (DESIGN.md, \"One worker per rank\")"
    );
    spgemm_with::<S, Plain, _, _, _>(a, b, &(), 0, &mut KernelWorkspace::new())
}

/// The Gustavson loop nest: `(A · B)` at the positions `mask` admits, with
/// entries of payload `P` from operand entries `A` and `B`, on the
/// workspace `ws` for the whole call.
/// Returns exactly the admitted positions that receive at least one
/// contribution. The output buffers move into the result; the accumulator
/// scratch stays in `ws` for the next call.
///
/// `k_offset` translates the local inner index into the *global* row index
/// of `B` (`=` global column index of `A`), so that Bloom bits are
/// consistent across the blocks of a distributed matrix.
///
/// # Panics
/// Panics if the inner dimensions disagree.
pub fn spgemm_with<S, P, M, A, B>(
    a: &impl RowScan<A>,
    b: &impl RowRead<B>,
    mask: &M,
    k_offset: Index,
    ws: &mut KernelWorkspace<P::Out>,
) -> MmOutput<P::Out>
where
    S: Semiring,
    P: Payload<S>,
    M: OutputMask,
    A: Entry<S::Elem>,
    B: Entry<S::Elem>,
{
    assert_eq!(
        a.ncols(),
        b.nrows(),
        "inner dimension mismatch: {}x{} times {}x{}",
        a.nrows(),
        a.ncols(),
        b.nrows(),
        b.ncols()
    );
    let ncols = b.ncols();
    a.scan_rows(|i, acols, avals| {
        let Some(admitted) = mask.row(i) else {
            if let ([k], [av]) = (acols, avals) {
                // One product per column: the row is `B[k, :]` scaled, if
                // that row is in column order.
                let (bcols, bvals) = b.row(*k);
                if bcols.windows(2).all(|w| w[0] < w[1]) {
                    let bit = bloom_bit(k + k_offset);
                    ws.out.flops += bcols.len() as u64;
                    let terms = bvals.iter().map(|&bv| P::term(*av, bv, bit));
                    ws.out.push_row(i, bcols, terms);
                    return;
                }
            }
            let est = row_flop_bound(b, acols);
            ws.begin_row(ncols, est);
            for (&k, &av) in acols.iter().zip(avals) {
                let bit = bloom_bit(k + k_offset);
                let (bcols, bvals) = b.row(k);
                for (&j, &bv) in bcols.iter().zip(bvals) {
                    // One flop per term: `est` in all.
                    ws.out.flops += 1;
                    ws.scatter(j, P::term(av, bv, bit), P::merge);
                }
            }
            ws.finish_row(i, P::merge);
            return;
        };
        if admitted.is_empty() {
            return;
        }
        ws.begin_masked_row(ncols, admitted);
        for (&k, &av) in acols.iter().zip(avals) {
            let bit = bloom_bit(k + k_offset);
            let (bcols, bvals) = b.row(k);
            for (&j, &bv) in bcols.iter().zip(bvals) {
                // One flop per admitted term; a rejected one costs the slot
                // lookup and nothing else.
                if let Some(slot) = ws.masked_slot(ncols, admitted, j) {
                    ws.out.flops += 1;
                    ws.combine_masked(slot, P::term(av, bv, bit), P::merge);
                }
            }
        }
        ws.finish_masked_row(i, ncols, admitted);
    });
    let out = ws.take_out();
    MmOutput {
        result: Dcsr::from_parts(a.nrows(), ncols, out.rows, out.row_ptr, out.cols, out.vals),
        flops: out.flops,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::Csr;
    use crate::dense::Dense;
    use crate::dhb::DhbMatrix;
    use crate::semiring::{MinPlus, U64Plus};
    use crate::triple::Triple;
    use dspgemm_util::rng::{Rng, SplitMix64};

    fn random_triples(
        rng: &mut SplitMix64,
        nrows: Index,
        ncols: Index,
        n: usize,
    ) -> Vec<Triple<u64>> {
        (0..n)
            .map(|_| {
                Triple::new(
                    rng.gen_range(nrows as u64) as Index,
                    rng.gen_range(ncols as u64) as Index,
                    rng.gen_range(10) + 1,
                )
            })
            .collect()
    }

    #[test]
    fn tiny_known_product() {
        // A = [1 2; 0 3], B = [4 0; 5 6] -> C = [14 12; 15 18].
        let a = Csr::from_triples::<U64Plus>(
            2,
            2,
            vec![
                Triple::new(0, 0, 1),
                Triple::new(0, 1, 2),
                Triple::new(1, 1, 3),
            ],
        );
        let b = Csr::from_triples::<U64Plus>(
            2,
            2,
            vec![
                Triple::new(0, 0, 4),
                Triple::new(1, 0, 5),
                Triple::new(1, 1, 6),
            ],
        );
        let out = spgemm::<U64Plus, _, _>(&a, &b, 1);
        let c = out.result.to_triples();
        assert_eq!(
            c,
            vec![
                Triple::new(0, 0, 14),
                Triple::new(0, 1, 12),
                Triple::new(1, 0, 15),
                Triple::new(1, 1, 18),
            ]
        );
        // flops: row0 scans B rows 0 (1 entry) and 1 (2 entries) = 3; row1
        // scans B row 1 (2 entries) = 2.
        assert_eq!(out.flops, 5);
    }

    #[test]
    fn matches_dense_reference_u64() {
        let mut rng = SplitMix64::new(7);
        for _ in 0..10 {
            let a_t = random_triples(&mut rng, 20, 30, 60);
            let b_t = random_triples(&mut rng, 30, 25, 80);
            let a = Csr::from_triples::<U64Plus>(20, 30, a_t.clone());
            let b = Csr::from_triples::<U64Plus>(30, 25, b_t.clone());
            let da = Dense::from_triples::<U64Plus>(20, 30, &a_t);
            let db = Dense::from_triples::<U64Plus>(30, 25, &b_t);
            let expect = da.matmul::<U64Plus>(&db);
            let got = spgemm::<U64Plus, _, _>(&a, &b, 1);
            assert_eq!(Dense::from_dcsr::<U64Plus>(&got.result), expect);
        }
    }

    #[test]
    fn min_plus_semiring_product() {
        // Shortest 2-hop paths.
        let inf = f64::INFINITY;
        let a = Csr::from_triples::<MinPlus>(
            3,
            3,
            vec![
                Triple::new(0, 1, 1.0),
                Triple::new(1, 2, 2.0),
                Triple::new(0, 2, 10.0),
            ],
        );
        let out = spgemm::<MinPlus, _, _>(&a, &a, 1);
        // Path 0->1->2 has length 3 (beats nothing structurally: entry (0,2)
        // of A^2 is min over k of a0k + ak2 = a01 + a12 = 3).
        let c = Dense::from_dcsr::<MinPlus>(&out.result);
        assert_eq!(c.get(0, 2), 3.0);
        assert_eq!(c.get(0, 0), inf);
    }

    #[test]
    fn dcsr_times_dhb_hypersparse_left() {
        // The Algorithm-1 shape: hypersparse A* (DCSR) times dynamic B (DHB).
        let mut rng = SplitMix64::new(11);
        let a_t = random_triples(&mut rng, 1000, 50, 15); // hypersparse
        let b_t = random_triples(&mut rng, 50, 40, 300);
        let a = Dcsr::from_triples::<U64Plus>(1000, 50, a_t.clone());
        let mut b = DhbMatrix::new(50, 40);
        for t in &b_t {
            b.add_entry::<U64Plus>(t.row, t.col, t.val);
        }
        let got = spgemm::<U64Plus, _, _>(&a, &b, 1);
        let expect = Dense::from_triples::<U64Plus>(1000, 50, &a_t)
            .matmul::<U64Plus>(&Dense::from_triples::<U64Plus>(50, 40, &b_t));
        assert_eq!(Dense::from_dcsr::<U64Plus>(&got.result), expect);
    }

    #[test]
    fn empty_operands() {
        let a: Csr<u64> = Csr::empty(4, 5);
        let b: Csr<u64> = Csr::empty(5, 6);
        let out = spgemm::<U64Plus, _, _>(&a, &b, 1);
        assert_eq!(out.result.nnz(), 0);
        assert_eq!(out.flops, 0);
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn dimension_mismatch_panics() {
        let a: Csr<u64> = Csr::empty(4, 5);
        let b: Csr<u64> = Csr::empty(6, 6);
        let _ = spgemm::<U64Plus, _, _>(&a, &b, 1);
    }

    #[test]
    fn bloom_bits_track_contributing_k() {
        // A row 0 has entries at k=1 and k=65; both contribute to output
        // column 0. Bits (1 % 64) and (65 % 64) coincide -> single bit.
        let a = Csr::from_triples::<U64Plus>(
            1,
            100,
            vec![
                Triple::new(0, 1, 1),
                Triple::new(0, 65, 1),
                Triple::new(0, 2, 1),
            ],
        );
        let b = Csr::from_triples::<U64Plus>(
            100,
            1,
            vec![
                Triple::new(1, 0, 1),
                Triple::new(65, 0, 1),
                Triple::new(2, 0, 1),
            ],
        );
        let out =
            spgemm_with::<U64Plus, Bloom, _, _, _>(&a, &b, &(), 0, &mut KernelWorkspace::new());
        let triples = out.result.to_triples();
        assert_eq!(triples.len(), 1);
        let (val, bloom) = triples[0].val;
        assert_eq!(val, 3);
        assert_eq!(bloom, (1u64 << 1) | (1u64 << 2)); // bits 1 (k=1,65) and 2 (k=2)
    }

    #[test]
    fn bloom_k_offset_shifts_bits() {
        let a = Csr::from_triples::<U64Plus>(1, 4, vec![Triple::new(0, 0, 1)]);
        let b = Csr::from_triples::<U64Plus>(4, 1, vec![Triple::new(0, 0, 1)]);
        let out0 =
            spgemm_with::<U64Plus, Bloom, _, _, _>(&a, &b, &(), 0, &mut KernelWorkspace::new());
        let out5 =
            spgemm_with::<U64Plus, Bloom, _, _, _>(&a, &b, &(), 5, &mut KernelWorkspace::new());
        assert_eq!(out0.result.to_triples()[0].val.1, 1 << 0);
        assert_eq!(out5.result.to_triples()[0].val.1, 1 << 5);
    }

    #[test]
    fn pattern_matches_bloom_structure() {
        let mut rng = SplitMix64::new(21);
        let a_t = random_triples(&mut rng, 60, 60, 400);
        let b_t = random_triples(&mut rng, 60, 60, 400);
        let a = Csr::from_triples::<U64Plus>(60, 60, a_t);
        let b = Csr::from_triples::<U64Plus>(60, 60, b_t);
        let fused =
            spgemm_with::<U64Plus, Bloom, _, _, _>(&a, &b, &(), 3, &mut KernelWorkspace::new());
        let pattern =
            spgemm_with::<U64Plus, Pattern, _, _, _>(&a, &b, &(), 3, &mut KernelWorkspace::new());
        assert_eq!(pattern.result, fused.result.map(|(_, bits)| bits));
        assert_eq!(pattern.flops, fused.flops);
    }

    #[test]
    fn dcsr_row_reader_as_right_operand() {
        // The A·B* shape of Algorithm 1: DHB left, hypersparse DCSR right.
        let mut rng = SplitMix64::new(23);
        let a_t = random_triples(&mut rng, 40, 500, 200);
        let b_t = random_triples(&mut rng, 500, 30, 25); // hypersparse
        let mut a = DhbMatrix::new(40, 500);
        for t in &a_t {
            a.add_entry::<U64Plus>(t.row, t.col, t.val);
        }
        let b = Dcsr::from_triples::<U64Plus>(500, 30, b_t.clone());
        let got = spgemm::<U64Plus, _, _>(&a, &b.row_reader(), 1);
        let da = Dense::from_sparse::<U64Plus, _>(&a);
        let db = Dense::from_triples::<U64Plus>(500, 30, &b_t);
        assert_eq!(
            Dense::from_dcsr::<U64Plus>(&got.result),
            da.matmul::<U64Plus>(&db)
        );
    }

    /// A counted product carries the plain product's values and, per entry,
    /// the number of products summed: the plain product of the 0/1
    /// patterns. An update operand's `−1` presence negates its paths.
    #[test]
    fn counted_terms_count_paths() {
        let mut rng = SplitMix64::new(19);
        let a_t = random_triples(&mut rng, 40, 40, 200);
        let b_t = random_triples(&mut rng, 40, 40, 200);
        let a = Csr::from_triples::<U64Plus>(40, 40, a_t);
        let b = Csr::from_triples::<U64Plus>(40, 40, b_t);
        let ones = |m: &Csr<u64>| {
            let t = m
                .to_triples()
                .iter()
                .map(|t| Triple::new(t.row, t.col, 1))
                .collect();
            Csr::from_triples::<U64Plus>(40, 40, t)
        };
        let plain = spgemm::<U64Plus, _, _>(&a, &b, 1).result;
        let paths = spgemm::<U64Plus, _, _>(&ones(&a), &ones(&b), 1).result;
        let counted =
            spgemm_with::<U64Plus, Counted, _, _, _>(&a, &b, &(), 0, &mut KernelWorkspace::new());
        assert_eq!(counted.result.map(|(v, _)| v), plain);
        assert_eq!(counted.result.map(|(_, n)| n), paths);
        let gone = Dcsr::from_triples::<U64Plus>(40, 40, a.to_triples()).map(|v| (v, -1i8));
        let lost = spgemm_with::<U64Plus, Counted, _, _, _>(
            &gone,
            &b,
            &(),
            0,
            &mut KernelWorkspace::new(),
        );
        assert_eq!(lost.result.map(|(_, n)| n.wrapping_neg()), paths);
    }

    #[test]
    fn bloom_values_match_plain_product() {
        let mut rng = SplitMix64::new(17);
        let a_t = random_triples(&mut rng, 50, 50, 300);
        let b_t = random_triples(&mut rng, 50, 50, 300);
        let a = Csr::from_triples::<U64Plus>(50, 50, a_t);
        let b = Csr::from_triples::<U64Plus>(50, 50, b_t);
        let plain = spgemm::<U64Plus, _, _>(&a, &b, 1);
        let fused =
            spgemm_with::<U64Plus, Bloom, _, _, _>(&a, &b, &(), 0, &mut KernelWorkspace::new());
        assert_eq!(plain.flops, fused.flops);
        assert_eq!(plain.result, fused.result.map(|(v, _)| v));
    }
}
