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
//!   or that field alone ([`Pattern`]),
//! * the [`OutputMask`]: `()` for the full product; a
//!   [`MaskSet`](crate::masked_mm::MaskSet) or the `C*` pattern [`Dcsr`]
//!   itself for Algorithm 2's recompute — a masked output row is combined in
//!   the workspace's masked accumulator, which rejects a product with one
//!   load (see [`crate::masked_mm`]),
//! * the left operand (anything that can [`RowScan`]: CSR, DCSR, DHB), and
//! * the right operand (anything with O(1) row access, [`RowRead`]: CSR,
//!   DHB — never DCSR, matching the paper's "no search for an index is ever
//!   necessary" invariant),
//!
//! and is parallelized over contiguous, flop-balanced row ranges of `A`
//! (the paper's shared-memory parallelization of different output rows,
//! Section VI-A).
//!
//! Output assembly is **allocation-flat**: each worker range drains its SPA
//! into one reusable `(rows, row_ptr, cols, vals)` buffer set (`FlatRows`)
//! and the final [`Dcsr`] is built by bulk moves/appends with exact `nnz`
//! reservation — no per-row `Vec`s, no double copy through staging buffers.

use crate::bloom::bloom_bit;
use crate::dcsr::Dcsr;
use crate::semiring::Semiring;
use crate::workspace::{KernelWorkspace, WorkspaceLease, WorkspacePool};
use crate::{Index, RowRead, RowScan};
use dspgemm_util::par::{parallel_map_ranges_init, split_ranges_by_weight};

/// Result of a local multiplication: the product block plus the scalar
/// multiplication count (the paper's `flops` metric).
#[derive(Debug, Clone)]
pub struct MmOutput<A> {
    /// The product, hypersparse-friendly.
    pub result: Dcsr<A>,
    /// Number of scalar semiring multiplications performed.
    pub flops: u64,
    /// Per-worker-thread split of `flops` (index = intra-rank thread id;
    /// length = the call's thread count). `max/mean` over this vector is the
    /// kernel's load-imbalance metric.
    pub thread_flops: Vec<u64>,
}

/// What one output entry of a multiply carries: the contribution of one
/// product term `a_ik · b_kj` and how coinciding contributions combine —
/// in the SPA, and again wherever partial blocks are merged.
pub trait Payload<S: Semiring>: 'static {
    /// Output entry type.
    type Out: Copy + Send;

    /// The contribution of `av · bv`, where `bit` is the Bloom bit
    /// `1 << (k mod 64)` of the term's global inner index.
    fn term(av: S::Elem, bv: S::Elem, bit: u64) -> Self::Out;

    /// Combines coinciding entries.
    fn merge(a: Self::Out, b: Self::Out) -> Self::Out;
}

/// Values only.
#[derive(Debug)]
pub struct Plain;

impl<S: Semiring> Payload<S> for Plain {
    type Out = S::Elem;

    #[inline]
    fn term(av: S::Elem, bv: S::Elem, _bit: u64) -> S::Elem {
        S::mul(av, bv)
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
    fn term(av: S::Elem, bv: S::Elem, bit: u64) -> (S::Elem, u64) {
        (S::mul(av, bv), bit)
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
    fn term(_av: S::Elem, _bv: S::Elem, bit: u64) -> u64 {
        bit
    }

    #[inline]
    fn merge(a: u64, b: u64) -> u64 {
        a | b
    }
}

/// Which output positions a multiply may write, handed to the kernel one
/// output row at a time: the kernel asks once per row of `A`, never per
/// product, so a mask costs a row lookup plus whatever the masked
/// accumulator charges a rejected term (one load; see
/// [`crate::masked_mm`]).
pub trait OutputMask: Sync {
    /// Upper bound on the entries the whole product can hold — caps output
    /// reservations, whose flop bounds cannot see the mask's pruning.
    fn capacity(&self) -> u64;

    /// The admitted columns of output row `i`, strictly ascending and all
    /// below the product's width (the kernel panics on one that is not) —
    /// empty when the mask holds nothing in that row, so the kernel skips
    /// the row without reading `B`. `None` means the row is unrestricted.
    fn row(&self, i: Index) -> Option<&[Index]>;
}

/// No mask: the full product.
impl OutputMask for () {
    #[inline]
    fn capacity(&self) -> u64 {
        u64::MAX
    }

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
impl<V: Copy + Sync> OutputMask for Dcsr<V> {
    #[inline]
    fn capacity(&self) -> u64 {
        self.nnz() as u64
    }

    #[inline]
    fn row(&self, i: Index) -> Option<&[Index]> {
        Some(self.row_cols(i))
    }
}

/// Workspace context for one kernel call: the intra-rank thread count and
/// (optionally) the workspace pool buffers are leased from. `Copy`, so call
/// sites pass it by value.
#[derive(Debug, Clone, Copy)]
pub struct KernelPlan<'p, A> {
    /// Intra-rank worker threads (the paper's OpenMP `T`).
    pub threads: usize,
    /// Pool to lease per-thread workspaces from; `None` builds ephemeral
    /// workspaces (one allocation set per call).
    pub pool: Option<&'p WorkspacePool<A>>,
}

impl<'p, A: Copy> KernelPlan<'p, A> {
    /// Unpooled plan — what the `threads`-only [`spgemm`] runs under.
    pub fn new(threads: usize) -> Self {
        Self {
            threads,
            pool: None,
        }
    }

    /// Attaches a workspace pool.
    pub fn pooled(mut self, pool: &'p WorkspacePool<A>) -> Self {
        self.pool = Some(pool);
        self
    }

    fn lease(&self) -> PlanLease<'p, A> {
        match self.pool {
            Some(pool) => PlanLease::Pooled(pool.lease()),
            None => PlanLease::Owned(KernelWorkspace::new()),
        }
    }
}

/// A workspace obtained through a [`KernelPlan`]: pooled (returns on drop)
/// or ephemeral.
enum PlanLease<'p, A: Copy> {
    Pooled(WorkspaceLease<'p, A>),
    Owned(KernelWorkspace<A>),
}

impl<A: Copy> std::ops::Deref for PlanLease<'_, A> {
    type Target = KernelWorkspace<A>;
    fn deref(&self) -> &KernelWorkspace<A> {
        match self {
            PlanLease::Pooled(l) => l,
            PlanLease::Owned(w) => w,
        }
    }
}

impl<A: Copy> std::ops::DerefMut for PlanLease<'_, A> {
    fn deref_mut(&mut self) -> &mut KernelWorkspace<A> {
        match self {
            PlanLease::Pooled(l) => &mut *l,
            PlanLease::Owned(w) => w,
        }
    }
}

/// Worker result: the rows produced by one contiguous range, in the flat
/// `(rows, row_ptr, cols, vals)` form of [`Dcsr::from_parts`]. Each worker
/// drains its SPA straight into these buffers — no per-row `Vec`, no
/// intermediate `(col, val)` pairs.
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
            row_ptr: vec![0],
            cols: Vec::new(),
            vals: Vec::new(),
            flops: 0,
        }
    }

    /// Closes the current row after its entries were drained into
    /// `cols`/`vals`.
    #[inline]
    pub(crate) fn seal_row(&mut self, row: Index) {
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

    /// Empties the buffers, keeping their capacity (pool recycling).
    pub(crate) fn clear(&mut self) {
        self.rows.clear();
        self.row_ptr.clear();
        self.row_ptr.push(0);
        self.cols.clear();
        self.vals.clear();
        self.flops = 0;
    }

    /// Capacity-held heap bytes (workspace-reuse accounting).
    pub(crate) fn heap_bytes(&self) -> usize {
        self.rows.capacity() * std::mem::size_of::<Index>()
            + self.row_ptr.capacity() * std::mem::size_of::<usize>()
            + self.cols.capacity() * std::mem::size_of::<Index>()
            + self.vals.capacity() * std::mem::size_of::<A>()
    }
}

/// Concatenates per-range flat outputs (one per worker) into one [`Dcsr`].
/// The single-range case moves the buffers into the result without copying;
/// multi-range output is assembled with exact `nnz`/row reservations and one
/// bulk append per range, after which the parts' buffers are recycled into
/// `pool`.
fn assemble<A: Copy>(
    nrows: Index,
    ncols: Index,
    mut parts: Vec<FlatRows<A>>,
    pool: Option<&WorkspacePool<A>>,
) -> MmOutput<A> {
    let thread_flops: Vec<u64> = parts.iter().map(|p| p.flops).collect();
    let flops = thread_flops.iter().sum();
    if parts.len() == 1 {
        let p = parts.pop().expect("one part");
        let result = Dcsr::from_parts(nrows, ncols, p.rows, p.row_ptr, p.cols, p.vals);
        return MmOutput {
            result,
            flops,
            thread_flops,
        };
    }
    let nnz: usize = parts.iter().map(|p| p.cols.len()).sum();
    let stored_rows: usize = parts.iter().map(|p| p.rows.len()).sum();
    let mut result = Dcsr::with_capacity(nrows, ncols, stored_rows, nnz);
    for p in &parts {
        result.append_rows_flat(&p.rows, &p.row_ptr, &p.cols, &p.vals);
    }
    if let Some(pool) = pool {
        for p in parts {
            pool.put_flat(p);
        }
    }
    MmOutput {
        result,
        flops,
        thread_flops,
    }
}

/// Upper bound on one row's flops (and therefore its output non-zeros):
/// `Σ_k |B[k, :]|` over the row's stored columns. Drives both the
/// flop-weighted range split and the per-row dense-vs-sort SPA choice.
#[inline]
fn row_flop_bound<VB, R: RowRead<VB>>(b: &R, acols: &[Index]) -> u64 {
    acols.iter().map(|&k| b.row(k).0.len() as u64).sum()
}

/// Per-stored-row flop upper bounds of `a · b`, as ascending
/// `(row, weight)` pairs — the input of [`split_ranges_by_weight`]. One
/// O(nnz(A)) pass with O(1) row-length lookups into `b`.
fn stored_row_weights<VA, VB>(a: &impl RowScan<VA>, b: &impl RowRead<VB>) -> Vec<(usize, u64)> {
    let mut weights = Vec::new();
    a.scan_rows(|i, acols, _| {
        weights.push((i as usize, row_flop_bound(b, acols)));
    });
    weights
}

/// The kernel driver: runs `body` over row ranges with one (leased)
/// [`KernelWorkspace`] per worker and assembles the per-range flat outputs
/// in row order — so the result is bit-identical across thread counts.
///
/// One thread runs `body` inline over every row. More threads get
/// contiguous ranges of near-equal estimated flops from `weights` (never
/// invoked on the inline path); its per-range capped sums double as
/// output-capacity reservations, additionally clamped to `reservation_cap`,
/// the caller's bound on its *total* output. `body` recomputes the bound
/// of each row that goes through an accumulator inline (it needs it for
/// the SPA choice at every thread count; a one-product row copied as its
/// scaled `B` row computes none) — with several threads that repeats the
/// O(1) row-length lookups of the estimation pass, a deliberate trade: the
/// lookups touch exactly the `B` row headers the multiply reads next, and
/// threading the weights vector into the body would buy that O(nnz(A)) back
/// at the cost of cursor plumbing.
fn run_scheduled<A, W, F>(
    plan: KernelPlan<'_, A>,
    nrows: Index,
    ncols: Index,
    reservation_cap: u64,
    weights: W,
    body: F,
) -> MmOutput<A>
where
    A: Copy + Send,
    W: FnOnce() -> Vec<(usize, u64)>,
    F: Fn(&mut KernelWorkspace<A>, std::ops::Range<usize>) + Sync,
{
    let threads = plan.threads.max(1);
    let n = nrows as usize;
    if threads == 1 || n == 0 {
        let mut ws = plan.lease();
        body(&mut ws, 0..n);
        return assemble(nrows, ncols, vec![ws.take_out()], plan.pool);
    }
    let w = weights();
    let ranges = split_ranges_by_weight(n, threads, &w);
    // Output-capacity upper bounds per range: a row emits at most
    // min(w_i, ncols) entries, so the per-row-capped sum is tight even when
    // a hub row's flop bound dwarfs ncols (the uncapped sum could reserve
    // orders of magnitude too much, and pooled buffers never shrink). One
    // pass over `w`: ranges are sorted, disjoint and cover 0..n, and `w` is
    // ascending by row.
    let mut reservations = vec![0u64; ranges.len()];
    let mut ri = 0;
    for &(row, wt) in &w {
        while !ranges[ri].contains(&row) {
            ri += 1;
        }
        reservations[ri] += wt.min(ncols as u64);
    }
    let parts = parallel_map_ranges_init(
        ranges,
        |t| {
            let mut ws = plan.lease();
            let bound = reservations[t].min(reservation_cap);
            ws.reserve_out(bound.min(isize::MAX as u64 / 16) as usize);
            ws
        },
        |ws, range| {
            body(ws, range);
            ws.take_out()
        },
    );
    assemble(nrows, ncols, parts, plan.pool)
}

/// Gustavson SpGEMM: `A · B` over semiring `S`, parallelized over `threads`
/// flop-balanced row ranges of `A` (see [`spgemm_with`] for payload, mask
/// and workspace control).
///
/// # Panics
/// Panics if the inner dimensions disagree.
pub fn spgemm<S, L, R>(a: &L, b: &R, threads: usize) -> MmOutput<S::Elem>
where
    S: Semiring,
    L: RowScan<S::Elem> + Sync,
    R: RowRead<S::Elem> + Sync,
{
    spgemm_with::<S, Plain, _, _, _>(a, b, &(), 0, KernelPlan::new(threads))
}

/// The Gustavson loop nest: `(A · B)` at the positions `mask` admits, with
/// entries of payload `P`, under an explicit [`KernelPlan`]. Returns
/// exactly the admitted positions that receive at least one contribution.
///
/// `k_offset` translates the local inner index into the *global* row index
/// of `B` (`=` global column index of `A`), so that Bloom bits are
/// consistent across the blocks of a distributed matrix.
///
/// # Panics
/// Panics if the inner dimensions disagree.
pub fn spgemm_with<S, P, M, L, R>(
    a: &L,
    b: &R,
    mask: &M,
    k_offset: Index,
    plan: KernelPlan<'_, P::Out>,
) -> MmOutput<P::Out>
where
    S: Semiring,
    P: Payload<S>,
    M: OutputMask,
    L: RowScan<S::Elem> + Sync,
    R: RowRead<S::Elem> + Sync,
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
    let nrows = a.nrows();
    let ncols = b.ncols();
    run_scheduled(
        plan,
        nrows,
        ncols,
        mask.capacity(),
        || stored_row_weights(a, b),
        |ws, range| {
            a.scan_row_range(
                range.start as Index,
                range.end as Index,
                |i, acols, avals| {
                    let Some(admitted) = mask.row(i) else {
                        if let ([k], [av]) = (acols, avals) {
                            // One product per column: the row is `B[k, :]`
                            // scaled, if that row is in column order.
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
                            // One flop per admitted term; a rejected one
                            // costs the slot lookup and nothing else.
                            if let Some(slot) = ws.masked_slot(ncols, admitted, j) {
                                ws.out.flops += 1;
                                ws.combine_masked(slot, P::term(av, bv, bit), P::merge);
                            }
                        }
                    }
                    ws.finish_masked_row(i, ncols, admitted);
                },
            );
        },
    )
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
            let got = spgemm::<U64Plus, _, _>(&a, &b, 3);
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
        let got = spgemm::<U64Plus, _, _>(&a, &b, 2);
        let expect = Dense::from_triples::<U64Plus>(1000, 50, &a_t)
            .matmul::<U64Plus>(&Dense::from_triples::<U64Plus>(50, 40, &b_t));
        assert_eq!(Dense::from_dcsr::<U64Plus>(&got.result), expect);
    }

    #[test]
    fn empty_operands() {
        let a: Csr<u64> = Csr::empty(4, 5);
        let b: Csr<u64> = Csr::empty(5, 6);
        let out = spgemm::<U64Plus, _, _>(&a, &b, 2);
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
    fn parallel_matches_sequential() {
        let mut rng = SplitMix64::new(13);
        let a_t = random_triples(&mut rng, 200, 200, 2000);
        let b_t = random_triples(&mut rng, 200, 200, 2000);
        let a = Csr::from_triples::<U64Plus>(200, 200, a_t);
        let b = Csr::from_triples::<U64Plus>(200, 200, b_t);
        let seq = spgemm::<U64Plus, _, _>(&a, &b, 1);
        let par = spgemm::<U64Plus, _, _>(&a, &b, 4);
        assert_eq!(seq.result, par.result);
        assert_eq!(seq.flops, par.flops);
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
        let out = spgemm_with::<U64Plus, Bloom, _, _, _>(&a, &b, &(), 0, KernelPlan::new(1));
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
        let out0 = spgemm_with::<U64Plus, Bloom, _, _, _>(&a, &b, &(), 0, KernelPlan::new(1));
        let out5 = spgemm_with::<U64Plus, Bloom, _, _, _>(&a, &b, &(), 5, KernelPlan::new(1));
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
        let fused = spgemm_with::<U64Plus, Bloom, _, _, _>(&a, &b, &(), 3, KernelPlan::new(2));
        let pattern = spgemm_with::<U64Plus, Pattern, _, _, _>(&a, &b, &(), 3, KernelPlan::new(2));
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
        let got = spgemm::<U64Plus, _, _>(&a, &b.row_reader(), 2);
        let da = Dense::from_sparse::<U64Plus, _>(&a);
        let db = Dense::from_triples::<U64Plus>(500, 30, &b_t);
        assert_eq!(
            Dense::from_dcsr::<U64Plus>(&got.result),
            da.matmul::<U64Plus>(&db)
        );
    }

    #[test]
    fn bloom_values_match_plain_product() {
        let mut rng = SplitMix64::new(17);
        let a_t = random_triples(&mut rng, 50, 50, 300);
        let b_t = random_triples(&mut rng, 50, 50, 300);
        let a = Csr::from_triples::<U64Plus>(50, 50, a_t);
        let b = Csr::from_triples::<U64Plus>(50, 50, b_t);
        let plain = spgemm::<U64Plus, _, _>(&a, &b, 2);
        let fused = spgemm_with::<U64Plus, Bloom, _, _, _>(&a, &b, &(), 0, KernelPlan::new(2));
        assert_eq!(plain.flops, fused.flops);
        assert_eq!(plain.result, fused.result.map(|(v, _)| v));
    }
}
