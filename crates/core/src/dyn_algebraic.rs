//! Algorithm 1: MPI-parallel dynamic SpGEMM for algebraic updates.
//!
//! Given `A' = A + A*` and `B' = B + B*` (sums in the SpGEMM semiring), the
//! distributive law gives
//!
//! ```text
//! C' = C + C*,   C* := A*·B' + A·B*              (Eq. 1)
//! ```
//!
//! The algorithm computes `C*` **without broadcasting `A` or `B'`** — only
//! the hypersparse update blocks move:
//!
//! 1. process `(i,j)` sends `A*_{i,j}` and `B*_{i,j}` to its transposed peer
//!    `(j,i)` (one point-to-point round so the later broadcasts can run in
//!    parallel — Fig. 1a);
//! 2. `√p` rounds: in round `k`, `A*_{k,i}` is broadcast over process row
//!    `i` and `B*_{j,k}` over process column `j`; every rank multiplies
//!    locally (`Xⁱ_{k,j} = A*_{k,i}·B'_{i,j}` and `Yʲ_{i,k} = A_{i,j}·B*_{j,k}`,
//!    Fig. 1b);
//! 3. partial blocks are **aggregated non-locally**: `Xⁱ_{k,j}` reduces over
//!    column `j` onto process `(k,j)`, `Yʲ_{i,k}` over row `i` onto `(i,k)`
//!    (Fig. 1c) — a sparse merge-reduction, the price paid for not moving
//!    the big operands.
//!
//! Communication volume: `O(max(nnz(A*)+nnz(B*), nnz(C*))/√p)` versus
//! SUMMA's `O((nnz(A)+nnz(B'))/√p)` — the whole point of the paper.
//!
//! **Virtual transposition (Section V-C).** Step 1's point-to-point
//! exchange exists only to park each update block at its transposed grid
//! position before the broadcasts. The communication-avoiding variant
//! ([`TransposeMode::Virtual`], the default) removes that wire round
//! entirely: the update batch is redistributed *twice* — once in natural
//! layout (the local `A += A*` application needs it) and once with flipped
//! tuples and swapped dimensions ([`crate::update::build_update_matrix_pair`]),
//! so every rank's transposed-layout block already **is** its
//! transposed-position block, just transposed. A purely local counting-sort
//! transposition recovers the broadcast payload bit-for-bit
//! ([`StarView::Transposed`]), the `send/recv` phase carries zero
//! point-to-point bytes, and `C` is bit-identical by construction — the
//! `repro commavoid` ablation asserts both.
//!
//! The module is generic over an [`XYKernel`] so the identical communication
//! structure also serves the Bloom-fused variant (engine sessions that
//! maintain the filter matrix `F`) and `COMPUTE_PATTERN` of Algorithm 2.

use crate::distmat::{DistDcsr, DistMat, Elem};
use crate::exec::Exec;
use crate::grid::Grid;
use crate::layout::uniform_layout;
use crate::phase;
use crate::pipeline::{await_into_phase, run_rounds, Schedule};
use crate::update::{
    apply_add_exec, build_update_matrix_in, build_update_matrix_pair_in, start_update_matrix_in,
    start_update_matrix_pair_in, Dedup, StarPair,
};
use dspgemm_mpi::Request;
use dspgemm_sparse::local_mm::{
    spgemm_bloom_with, spgemm_pattern_with, spgemm_with, KernelPlan, MmOutput,
};
use dspgemm_sparse::semiring::Semiring;
use dspgemm_sparse::{Dcsr, DhbMatrix, Index, RowScan, Triple};
use dspgemm_util::stats::PhaseTimer;
use std::sync::Arc;

/// The local multiply/merge flavor plugged into the round structure. Each
/// kernel selects its payload-matching workspace pool from the session's
/// [`Exec`] via [`XYKernel::plan`], so every flavor runs scheduled and
/// pooled.
pub trait XYKernel<S: Semiring>: 'static {
    /// Partial-block element type.
    type Out: Elem;

    /// The [`KernelPlan`] (schedule + pooled workspaces) this flavor runs
    /// under, drawn from the session's [`Exec`].
    fn plan(exec: &Exec<S>) -> KernelPlan<'_, Self::Out>;

    /// `X = A*_{k,i} · B'_{i,j}` (hypersparse left, dynamic right).
    fn mul_x(
        a_star: &Dcsr<S::Elem>,
        b_new: &DhbMatrix<S::Elem>,
        k_offset: Index,
        plan: KernelPlan<'_, Self::Out>,
    ) -> MmOutput<Self::Out>;

    /// `Y = A_{i,j} · B*_{j,k}` (dynamic left, hypersparse right via the
    /// O(1) row-reader adapter).
    fn mul_y(
        a_old: &DhbMatrix<S::Elem>,
        b_star: &Dcsr<S::Elem>,
        k_offset: Index,
        plan: KernelPlan<'_, Self::Out>,
    ) -> MmOutput<Self::Out>;

    /// Combines coinciding entries during aggregation.
    fn merge(a: Self::Out, b: Self::Out) -> Self::Out;
}

/// Values only — the production algebraic path.
#[derive(Debug)]
pub struct PlainKernel;

impl<S: Semiring> XYKernel<S> for PlainKernel {
    type Out = S::Elem;

    fn plan(exec: &Exec<S>) -> KernelPlan<'_, S::Elem> {
        exec.plain()
    }

    fn mul_x(
        a_star: &Dcsr<S::Elem>,
        b_new: &DhbMatrix<S::Elem>,
        _k_offset: Index,
        plan: KernelPlan<'_, S::Elem>,
    ) -> MmOutput<S::Elem> {
        spgemm_with::<S, _, _>(a_star, b_new, plan)
    }

    fn mul_y(
        a_old: &DhbMatrix<S::Elem>,
        b_star: &Dcsr<S::Elem>,
        _k_offset: Index,
        plan: KernelPlan<'_, S::Elem>,
    ) -> MmOutput<S::Elem> {
        spgemm_with::<S, _, _>(a_old, &b_star.row_reader(), plan)
    }

    fn merge(a: S::Elem, b: S::Elem) -> S::Elem {
        S::add(a, b)
    }
}

/// Values fused with Bloom bitfields — for engine sessions maintaining `F`.
#[derive(Debug)]
pub struct BloomKernel;

impl<S: Semiring> XYKernel<S> for BloomKernel {
    type Out = (S::Elem, u64);

    fn plan(exec: &Exec<S>) -> KernelPlan<'_, (S::Elem, u64)> {
        exec.fused()
    }

    fn mul_x(
        a_star: &Dcsr<S::Elem>,
        b_new: &DhbMatrix<S::Elem>,
        k_offset: Index,
        plan: KernelPlan<'_, (S::Elem, u64)>,
    ) -> MmOutput<(S::Elem, u64)> {
        spgemm_bloom_with::<S, _, _>(a_star, b_new, k_offset, plan)
    }

    fn mul_y(
        a_old: &DhbMatrix<S::Elem>,
        b_star: &Dcsr<S::Elem>,
        k_offset: Index,
        plan: KernelPlan<'_, (S::Elem, u64)>,
    ) -> MmOutput<(S::Elem, u64)> {
        spgemm_bloom_with::<S, _, _>(a_old, &b_star.row_reader(), k_offset, plan)
    }

    fn merge(a: (S::Elem, u64), b: (S::Elem, u64)) -> (S::Elem, u64) {
        (S::add(a.0, b.0), a.1 | b.1)
    }
}

/// Structure + Bloom bits only, no values — `COMPUTE_PATTERN` of Algorithm 2.
#[derive(Debug)]
pub struct PatternKernel;

impl<S: Semiring> XYKernel<S> for PatternKernel {
    type Out = u64;

    fn plan(exec: &Exec<S>) -> KernelPlan<'_, u64> {
        exec.pattern()
    }

    fn mul_x(
        a_star: &Dcsr<S::Elem>,
        b_new: &DhbMatrix<S::Elem>,
        k_offset: Index,
        plan: KernelPlan<'_, u64>,
    ) -> MmOutput<u64> {
        spgemm_pattern_with(a_star, b_new, k_offset, plan)
    }

    fn mul_y(
        a_old: &DhbMatrix<S::Elem>,
        b_star: &Dcsr<S::Elem>,
        k_offset: Index,
        plan: KernelPlan<'_, u64>,
    ) -> MmOutput<u64> {
        spgemm_pattern_with(a_old, &b_star.row_reader(), k_offset, plan)
    }

    fn merge(a: u64, b: u64) -> u64 {
        a | b
    }
}

/// How Algorithm 1's round roots obtain the transposed-position update
/// blocks they broadcast.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransposeMode {
    /// Physical point-to-point exchange with the transposed peer rank
    /// (Fig. 1a; the pre-Section-V-C schedule) — kept as the
    /// `repro commavoid` ablation baseline.
    Physical,
    /// Virtual transposition (Section V-C, the default): the update batch
    /// is additionally built in transposed layout, so every round root
    /// recovers its broadcast payload by a purely local transposition of
    /// its own block. The transpose-exchange phase moves zero bytes.
    #[default]
    Virtual,
}

/// One update-matrix operand of the `C*` round structure, tagged with its
/// layout — the `Transposed` operand view of the communication-avoiding
/// schedulers.
#[derive(Debug, Clone, Copy)]
pub enum StarView<'a, V: Elem> {
    /// `A*` in natural layout (`A*_{i,j}` at rank `(i, j)`): the round
    /// roots' blocks are obtained with the point-to-point transpose
    /// exchange.
    Natural(&'a DistDcsr<V>),
    /// `(A*)ᵀ` as built by [`crate::update::build_update_matrix_pair`]
    /// (`(A*_{j,i})ᵀ` at rank `(i, j)`): the round roots' blocks are
    /// recovered by a local counting-sort transposition — zero wire bytes.
    Transposed(&'a DistDcsr<V>),
}

impl<'a, V: Elem> StarView<'a, V> {
    /// The underlying distributed matrix, whatever its layout.
    fn dist(&self) -> &'a DistDcsr<V> {
        match self {
            StarView::Natural(d) | StarView::Transposed(d) => d,
        }
    }

    /// Local non-zero count (the global sum is layout-independent, so the
    /// collective empty-batch elision agrees across modes).
    pub fn local_nnz(&self) -> usize {
        self.dist().local_nnz()
    }
}

/// The update-matrix build(s) one operand of a batch needs under a given
/// [`TransposeMode`] — what [`apply_algebraic_updates_prebuilt_exec`]
/// consumes and the engine's lookahead queue completes in the background.
pub enum StarBuild<V: Elem> {
    /// Natural layout only; rounds resolve via the physical exchange.
    Physical(DistDcsr<V>),
    /// Natural + transposed layouts; rounds resolve locally (Section V-C).
    Virtual(StarPair<V>),
}

impl<V: Elem> StarBuild<V> {
    /// The natural-layout matrix (what `A += A*` applies).
    pub fn natural(&self) -> &DistDcsr<V> {
        match self {
            StarBuild::Physical(d) => d,
            StarBuild::Virtual(p) => &p.natural,
        }
    }

    /// The operand view the round structure consumes.
    pub fn view(&self) -> StarView<'_, V> {
        match self {
            StarBuild::Physical(d) => StarView::Natural(d),
            StarBuild::Virtual(p) => StarView::Transposed(&p.transposed),
        }
    }
}

/// Builds one operand's update matrix (or matrix pair) from
/// globally-indexed tuples under the given mode, routed by the uniform
/// layout. Collective over the grid.
pub fn build_star<S: Semiring>(
    grid: &Grid,
    nrows: dspgemm_sparse::Index,
    ncols: dspgemm_sparse::Index,
    tuples: Vec<Triple<S::Elem>>,
    mode: TransposeMode,
    timer: &mut PhaseTimer,
) -> StarBuild<S::Elem> {
    build_star_in::<S>(
        grid,
        &uniform_layout(nrows, ncols, grid.q()),
        tuples,
        mode,
        timer,
    )
}

/// [`build_star`] under an explicit [`crate::layout::Layout`] — update
/// operands must route
/// under the same (possibly rebalanced) cuts as the matrix they patch.
/// Collective over the grid.
pub fn build_star_in<S: Semiring>(
    grid: &Grid,
    layout: &Arc<crate::layout::Layout>,
    tuples: Vec<Triple<S::Elem>>,
    mode: TransposeMode,
    timer: &mut PhaseTimer,
) -> StarBuild<S::Elem> {
    match mode {
        TransposeMode::Physical => StarBuild::Physical(build_update_matrix_in::<S>(
            grid,
            layout,
            tuples,
            Dedup::Add,
            timer,
        )),
        TransposeMode::Virtual => StarBuild::Virtual(build_update_matrix_pair_in::<S>(
            grid,
            layout,
            tuples,
            Dedup::Add,
            timer,
        )),
    }
}

/// Resolves up to two [`StarView`] operands into the blocks Algorithm 1's
/// round roots broadcast (`A*_{j,i}` at rank `(i, j)`). One helper serves
/// the two-operand and the shared-operand paths:
///
/// * [`StarView::Natural`] items run the physical transpose exchange, both
///   directions of every item posted nonblocking (irecvs first, then the
///   buffered sends) under [`phase::SEND_RECV`], so concurrent items cross
///   the wire together instead of serializing;
/// * [`StarView::Transposed`] items never touch the wire: the rank's own
///   block already *is* the transposed-position block in transposed form,
///   and a pooled local counting-sort transposition
///   ([`Dcsr::transpose_into`] through the session's [`Exec`]) recovers the
///   payload bit-for-bit under [`phase::TRANSPOSE_LOCAL`] (Section V-C).
///
/// `None` items (globally empty update sides) stay `None`.
fn resolve_star_blocks<S: Semiring>(
    grid: &Grid,
    exec: &Exec<S>,
    timer: &mut PhaseTimer,
    items: [Option<(StarView<'_, S::Elem>, u64)>; 2],
) -> [Option<Arc<Dcsr<S::Elem>>>; 2] {
    let mut out: [Option<Arc<Dcsr<S::Elem>>>; 2] = [None, None];
    // Transposed views first: purely local, no peer coordination needed.
    for (slot, item) in out.iter_mut().zip(&items) {
        if let Some((StarView::Transposed(t), _)) = item {
            let _sp =
                dspgemm_obs::span("engine", "transpose_virtual").attr("nnz", t.local_nnz() as u64);
            *slot = Some(timer.time(phase::TRANSPOSE_LOCAL, || {
                let mut ws = exec.transpose_ws();
                Arc::new(t.block().transpose_into(&mut ws))
            }));
        }
    }
    // Natural views: the transpose exchange of Fig. 1a.
    let peer = grid.transpose_rank();
    if peer == grid.world().rank() {
        for (slot, item) in out.iter_mut().zip(&items) {
            if let Some((StarView::Natural(d), _)) = item {
                *slot = Some(d.block_shared());
            }
        }
        return out;
    }
    if !items
        .iter()
        .any(|i| matches!(i, Some((StarView::Natural(_), _))))
    {
        return out;
    }
    timer.time(phase::SEND_RECV, || {
        type BlockRecv<V> = Option<Request<Arc<Dcsr<V>>>>;
        let mut recvs: [BlockRecv<S::Elem>; 2] = [None, None];
        for (r, item) in recvs.iter_mut().zip(&items) {
            if let Some((StarView::Natural(_), tag)) = item {
                *r = Some(grid.world().irecv_shared::<Dcsr<S::Elem>>(peer, *tag));
            }
        }
        for item in &items {
            if let Some((StarView::Natural(d), tag)) = item {
                grid.world()
                    .isend_shared(peer, *tag, d.block_shared())
                    .wait();
            }
        }
        for (slot, r) in out.iter_mut().zip(recvs) {
            if let Some(req) = r {
                *slot = Some(req.wait());
            }
        }
    });
    out
}

/// Runs the transpose exchange (or its local virtual replacement), `√p`
/// broadcast rounds, local multiplications and sparse merge-reductions of
/// Algorithm 1, returning this rank's block of `C* = A*·B' + A·B*` plus the
/// local flop count. Collective over the grid.
///
/// Inputs obey Eq. 1's timing: `a_old` is `A` *before* its updates, `b_new`
/// is `B'` *after* its updates. The update operands arrive as [`StarView`]s,
/// so callers choose per operand whether round roots resolve their blocks
/// physically (wire exchange) or virtually (local transposition).
pub fn compute_cstar<S: Semiring, K: XYKernel<S>>(
    grid: &Grid,
    a_old: &DistMat<S::Elem>,
    b_new: &DistMat<S::Elem>,
    a_star: StarView<'_, S::Elem>,
    b_star: StarView<'_, S::Elem>,
    threads: usize,
    timer: &mut PhaseTimer,
) -> (Dcsr<K::Out>, u64) {
    compute_cstar_exec::<S, K>(
        grid,
        a_old,
        b_new,
        a_star,
        b_star,
        &Exec::new(threads),
        timer,
    )
}

/// [`compute_cstar`] under an explicit [`Exec`] (persistent workspace pools
/// + row schedule).
pub fn compute_cstar_exec<S: Semiring, K: XYKernel<S>>(
    grid: &Grid,
    a_old: &DistMat<S::Elem>,
    b_new: &DistMat<S::Elem>,
    a_star: StarView<'_, S::Elem>,
    b_star: StarView<'_, S::Elem>,
    exec: &Exec<S>,
    timer: &mut PhaseTimer,
) -> (Dcsr<K::Out>, u64) {
    let q = grid.q();
    let (i, j) = grid.coords();
    let my_block_rows = a_old.info().local_rows();
    let my_block_cols = b_new.info().local_cols();

    // Empty-side elision: a globally empty update matrix contributes nothing
    // to Eq. 1, so its whole pass (transpose resolution, broadcasts,
    // multiplies, reductions) is skipped. The decision is collective-safe
    // because it is made from the allreduced global nnz, agreed on all ranks
    // (and layout-independent: natural and transposed builds hold the same
    // global entry set). This is the common case in the paper's Fig. 9
    // protocol, where `B` is static.
    let (a_star_nnz, b_star_nnz) = {
        let both = grid.world().allreduce(
            [a_star.local_nnz() as u64, b_star.local_nnz() as u64],
            |x, y| [x[0] + y[0], x[1] + y[1]],
        );
        (both[0], both[1])
    };

    // Step 1: round roots obtain their transposed-position blocks — a wire
    // exchange for natural views, a local transposition for transposed ones.
    const TAG_AT: u64 = 101;
    const TAG_BT: u64 = 102;
    let [at_blk, bt_blk] = resolve_star_blocks::<S>(
        grid,
        exec,
        timer,
        [
            (a_star_nnz != 0).then_some((a_star, TAG_AT)),
            (b_star_nnz != 0).then_some((b_star, TAG_BT)),
        ],
    );

    // Step 2 + 3: √p rounds of broadcasts, local multiplies, aggregation —
    // pipelined: round k+1's update-block broadcasts are in flight while
    // round k multiplies and merge-reduces (the progress engine forwards
    // their tree edges even while ranks are blocked inside the reductions).
    let mut flops = 0u64;
    let mut x_mine: Option<Dcsr<K::Out>> = None;
    let mut y_mine: Option<Dcsr<K::Out>> = None;
    type UpdFlight<V> = (Option<Request<Arc<Dcsr<V>>>>, Option<Request<Arc<Dcsr<V>>>>);
    run_rounds(
        &mut (timer, &mut flops, &mut x_mine, &mut y_mine),
        q,
        Schedule::Overlap,
        |_ctx, k| -> UpdFlight<S::Elem> {
            // A*_{k,i} over process row i (its holder after the transpose
            // exchange is (i,k), i.e. row-comm member k); B*_{j,k} over
            // process column j (holder (k,j) = col-comm member k).
            let ra = at_blk.as_ref().map(|at| {
                grid.row_comm()
                    .ibcast_shared(k, if j == k { Some(Arc::clone(at)) } else { None })
            });
            let rb = bt_blk.as_ref().map(|bt| {
                grid.col_comm()
                    .ibcast_shared(k, if i == k { Some(Arc::clone(bt)) } else { None })
            });
            (ra, rb)
        },
        |ctx, _k, (ra, rb)| {
            let a_bcast = ra.map(|r| await_into_phase(r, ctx.0, phase::BCAST));
            let b_bcast = rb.map(|r| await_into_phase(r, ctx.0, phase::BCAST));
            (a_bcast, b_bcast)
        },
        |ctx, k, (a_bcast, b_bcast)| {
            let (timer, flops, x_mine, y_mine) = ctx;
            // X pass: multiply into B', reduce onto (k,j) via column j.
            if let Some(a_bcast) = a_bcast {
                let x_part = timer.time(phase::LOCAL_MULT, || {
                    K::mul_x(
                        &a_bcast,
                        b_new.block(),
                        b_new.info().row_range.start,
                        K::plan(exec),
                    )
                });
                timer.add_thread_flops(&x_part.thread_flops);
                **flops += x_part.flops;
                let x_red = timer.time(phase::REDUCE_SCATTER, || {
                    grid.col_comm()
                        .reduce(k, x_part.result, |a, b| Dcsr::merge_with(&a, &b, K::merge))
                });
                if let Some(x) = x_red {
                    debug_assert_eq!(i, k);
                    **x_mine = Some(x);
                }
            }
            // Y pass: multiply from A, reduce onto (i,k) via row i.
            if let Some(b_bcast) = b_bcast {
                let y_part = timer.time(phase::LOCAL_MULT, || {
                    K::mul_y(
                        a_old.block(),
                        &b_bcast,
                        a_old.info().col_range.start,
                        K::plan(exec),
                    )
                });
                timer.add_thread_flops(&y_part.thread_flops);
                **flops += y_part.flops;
                let y_red = timer.time(phase::REDUCE_SCATTER, || {
                    grid.row_comm()
                        .reduce(k, y_part.result, |a, b| Dcsr::merge_with(&a, &b, K::merge))
                });
                if let Some(y) = y_red {
                    debug_assert_eq!(j, k);
                    **y_mine = Some(y);
                }
            }
        },
    );
    let cstar = match (x_mine, y_mine) {
        (Some(x), Some(y)) => Dcsr::merge_with(&x, &y, K::merge),
        (Some(x), None) => x,
        (None, Some(y)) => y,
        (None, None) => Dcsr::empty(my_block_rows, my_block_cols),
    };
    (cstar, flops)
}

/// Shared-operand variant of [`compute_cstar`]: this rank's block of
/// `C* = A*·A' + A·A*` for a maintained *square* product `C = A · A`, where
/// both Eq.-1 terms draw on the **same** stored matrix. Collective.
///
/// The interleaved round structure of [`compute_cstar`] needs the old `A`
/// (for the `Y` pass) and the new `A'` (for the `X` pass) simultaneously,
/// which a single stored operand cannot provide. Instead of cloning the
/// whole matrix, the two passes are sequenced around the update itself:
///
/// 1. `√p` `Y` rounds with the *old* `A`: `Yʲ_{i,k} = A_{i,j}·A*_{j,k}`,
///    reduced over row `i` onto `(i,k)`;
/// 2. `apply` turns `A` into `A'` in place (purely local);
/// 3. `√p` `X` rounds with the *new* `A'`: `Xⁱ_{k,j} = A*_{k,i}·A'_{i,j}`,
///    reduced over column `j` onto `(k,j)`.
///
/// One transpose exchange of the single update block replaces Algorithm 1's
/// two, and the communication volume is halved relative to maintaining a
/// lock-stepped clone of `A` as the second operand (each update batch is
/// redistributed, exchanged and broadcast once instead of twice).
pub fn compute_cstar_shared<S: Semiring, K: XYKernel<S>>(
    grid: &Grid,
    a: &mut DistMat<S::Elem>,
    star: StarView<'_, S::Elem>,
    apply: impl FnOnce(&mut DistMat<S::Elem>),
    threads: usize,
    timer: &mut PhaseTimer,
) -> (Dcsr<K::Out>, u64) {
    compute_cstar_shared_exec::<S, K>(grid, a, star, apply, &Exec::new(threads), timer)
}

/// [`compute_cstar_shared`] under an explicit [`Exec`].
pub fn compute_cstar_shared_exec<S: Semiring, K: XYKernel<S>>(
    grid: &Grid,
    a: &mut DistMat<S::Elem>,
    star: StarView<'_, S::Elem>,
    apply: impl FnOnce(&mut DistMat<S::Elem>),
    exec: &Exec<S>,
    timer: &mut PhaseTimer,
) -> (Dcsr<K::Out>, u64) {
    assert_eq!(
        a.info().nrows,
        a.info().ncols,
        "shared-operand dynamic SpGEMM maintains a square product C = A·A"
    );
    let q = grid.q();
    let (i, j) = grid.coords();
    let my_block_rows = a.info().local_rows();
    let my_block_cols = a.info().local_cols();

    // Empty-batch elision, agreed collectively (cf. `compute_cstar`).
    let star_nnz = grid
        .world()
        .allreduce(star.local_nnz() as u64, |x, y| x + y);
    if star_nnz == 0 {
        timer.time(phase::LOCAL_UPDATE, || apply(a));
        return (Dcsr::empty(my_block_rows, my_block_cols), 0);
    }

    // One transposed-block resolution serves both passes: rank (i,j)
    // obtains A*_{j,i} — by wire exchange (natural view) or by local
    // transposition of its own transposed-layout block (virtual view) — so
    // in round k the row-comm member k of row i holds A*_{k,i} and the
    // col-comm member k of column j holds A*_{k,j}, exactly as in
    // Algorithm 1.
    const TAG_SHARED: u64 = 104;
    let [star_t, _] = resolve_star_blocks::<S>(grid, exec, timer, [Some((star, TAG_SHARED)), None]);
    let star_t: Arc<Dcsr<S::Elem>> = star_t.expect("nonempty operand resolves to a block");

    let mut flops = 0u64;

    // Y pass against the old A — pipelined (round k+1's broadcast of the
    // transposed update block is in flight while round k multiplies and
    // reduces).
    let mut y_mine: Option<Dcsr<K::Out>> = None;
    {
        let a_ref = &*a;
        run_rounds(
            &mut (&mut *timer, &mut flops, &mut y_mine),
            q,
            Schedule::Overlap,
            |_ctx, k| {
                grid.col_comm().ibcast_shared(
                    k,
                    if i == k {
                        Some(Arc::clone(&star_t))
                    } else {
                        None
                    },
                )
            },
            |ctx, _k, req| await_into_phase(req, ctx.0, phase::BCAST),
            |ctx, k, b_bcast| {
                let (timer, flops, y_mine) = ctx;
                let y_part = timer.time(phase::LOCAL_MULT, || {
                    K::mul_y(
                        a_ref.block(),
                        &b_bcast,
                        a_ref.info().col_range.start,
                        K::plan(exec),
                    )
                });
                timer.add_thread_flops(&y_part.thread_flops);
                **flops += y_part.flops;
                let y_red = timer.time(phase::REDUCE_SCATTER, || {
                    grid.row_comm()
                        .reduce(k, y_part.result, |x, y| Dcsr::merge_with(&x, &y, K::merge))
                });
                if let Some(y) = y_red {
                    debug_assert_eq!(j, k);
                    **y_mine = Some(y);
                }
            },
        );
    }

    // A → A' (purely local).
    timer.time(phase::LOCAL_UPDATE, || apply(a));

    // X pass against the new A' — pipelined likewise.
    let mut x_mine: Option<Dcsr<K::Out>> = None;
    {
        let a_ref = &*a;
        run_rounds(
            &mut (&mut *timer, &mut flops, &mut x_mine),
            q,
            Schedule::Overlap,
            |_ctx, k| {
                grid.row_comm().ibcast_shared(
                    k,
                    if j == k {
                        Some(Arc::clone(&star_t))
                    } else {
                        None
                    },
                )
            },
            |ctx, _k, req| await_into_phase(req, ctx.0, phase::BCAST),
            |ctx, k, a_bcast| {
                let (timer, flops, x_mine) = ctx;
                let x_part = timer.time(phase::LOCAL_MULT, || {
                    K::mul_x(
                        &a_bcast,
                        a_ref.block(),
                        a_ref.info().row_range.start,
                        K::plan(exec),
                    )
                });
                timer.add_thread_flops(&x_part.thread_flops);
                **flops += x_part.flops;
                let x_red = timer.time(phase::REDUCE_SCATTER, || {
                    grid.col_comm()
                        .reduce(k, x_part.result, |x, y| Dcsr::merge_with(&x, &y, K::merge))
                });
                if let Some(x) = x_red {
                    debug_assert_eq!(i, k);
                    **x_mine = Some(x);
                }
            },
        );
    }

    let cstar = match (x_mine, y_mine) {
        (Some(x), Some(y)) => Dcsr::merge_with(&x, &y, K::merge),
        (Some(x), None) => x,
        (None, Some(y)) => y,
        (None, None) => Dcsr::empty(my_block_rows, my_block_cols),
    };
    (cstar, flops)
}

/// `C += C*` on this rank's block of the maintained product — the local
/// tail of every untracked Algorithm-1 variant. `C*` is recorded as the
/// touched pattern, so the next publish patches `C`'s image; an empty `C*`
/// leaves block and image alone (the epoch re-shares them).
fn add_cstar<S: Semiring>(c: &mut DistMat<S::Elem>, cstar: &Dcsr<S::Elem>) {
    if cstar.nnz() == 0 {
        return;
    }
    let block = c.block_mut_touching(cstar);
    cstar.scan_rows(|r, cols, vals| {
        for (&cc, &v) in cols.iter().zip(vals) {
            block.add_entry::<S>(r, cc, v);
        }
    });
}

/// [`add_cstar`] for the Bloom-tracked variants: `C*` carries
/// `(value, bitfield)` pairs and the bits are OR-ed into `F`. `F` is never
/// published, so it takes no pattern.
fn add_cstar_tracked<S: Semiring>(
    c: &mut DistMat<S::Elem>,
    f: &mut DistMat<u64>,
    cstar: &Dcsr<(S::Elem, u64)>,
) {
    if cstar.nnz() == 0 {
        return;
    }
    let c_block = c.block_mut_touching(cstar);
    let f_block = f.block_mut();
    cstar.scan_rows(|r, cols, vals| {
        for (&cc, &(v, bits)) in cols.iter().zip(vals) {
            c_block.add_entry::<S>(r, cc, v);
            f_block.combine_entry(r, cc, bits, |x, y| x | y);
        }
    });
}

/// Shared-operand algebraic update from a **pre-built** update matrix:
/// maintains `C = A · A` through `A' = A + A*` and returns this rank's
/// `C*` block (the local delta merged into `C`) plus the flop count — the
/// delta lets callers (the analytics session's views) observe exactly which
/// product entries changed without a second pass. Collective.
///
/// The caller performs the redistribution once
/// ([`crate::update::build_update_matrix`] with [`Dedup::Add`]) and may feed
/// the same `A*` to any number of consumers; this is the "one redistribution
/// pays for all views" contract.
pub fn apply_shared_algebraic_prebuilt<S: Semiring>(
    grid: &Grid,
    a: &mut DistMat<S::Elem>,
    c: &mut DistMat<S::Elem>,
    star: &DistDcsr<S::Elem>,
    threads: usize,
    timer: &mut PhaseTimer,
) -> (Dcsr<S::Elem>, u64) {
    apply_shared_algebraic_prebuilt_exec::<S>(grid, a, c, star, &Exec::new(threads), timer)
}

/// [`apply_shared_algebraic_prebuilt`] under an explicit [`Exec`] — the
/// analytics session's entry point, so view refreshes reuse the session's
/// pooled workspaces.
pub fn apply_shared_algebraic_prebuilt_exec<S: Semiring>(
    grid: &Grid,
    a: &mut DistMat<S::Elem>,
    c: &mut DistMat<S::Elem>,
    star: &DistDcsr<S::Elem>,
    exec: &Exec<S>,
    timer: &mut PhaseTimer,
) -> (Dcsr<S::Elem>, u64) {
    apply_shared_algebraic_view_exec::<S>(grid, a, c, StarView::Natural(star), star, exec, timer)
}

/// [`apply_shared_algebraic_prebuilt_exec`] from a prebuilt [`StarPair`]:
/// the round roots resolve their blocks by local transposition instead of
/// the wire exchange (Section V-C), and the natural half feeds `A += A*`.
pub fn apply_shared_algebraic_prebuilt_pair_exec<S: Semiring>(
    grid: &Grid,
    a: &mut DistMat<S::Elem>,
    c: &mut DistMat<S::Elem>,
    pair: &StarPair<S::Elem>,
    exec: &Exec<S>,
    timer: &mut PhaseTimer,
) -> (Dcsr<S::Elem>, u64) {
    apply_shared_algebraic_view_exec::<S>(
        grid,
        a,
        c,
        StarView::Transposed(&pair.transposed),
        &pair.natural,
        exec,
        timer,
    )
}

/// Common body of the shared plain variants: `view` drives the round
/// structure, `natural` drives the in-place `A += A*`.
fn apply_shared_algebraic_view_exec<S: Semiring>(
    grid: &Grid,
    a: &mut DistMat<S::Elem>,
    c: &mut DistMat<S::Elem>,
    view: StarView<'_, S::Elem>,
    natural: &DistDcsr<S::Elem>,
    exec: &Exec<S>,
    timer: &mut PhaseTimer,
) -> (Dcsr<S::Elem>, u64) {
    let (cstar, flops) = compute_cstar_shared_exec::<S, PlainKernel>(
        grid,
        a,
        view,
        |m| apply_add_exec::<S>(m, natural, exec),
        exec,
        timer,
    );
    timer.time(phase::LOCAL_UPDATE, || add_cstar::<S>(c, &cstar));
    (cstar, flops)
}

/// Like [`apply_shared_algebraic_prebuilt`], additionally maintaining the
/// Bloom filter matrix `F` (required when general updates may follow). The
/// returned `C*` block carries `(value, bitfield)` pairs. Collective.
pub fn apply_shared_algebraic_prebuilt_tracked<S: Semiring>(
    grid: &Grid,
    a: &mut DistMat<S::Elem>,
    c: &mut DistMat<S::Elem>,
    f: &mut DistMat<u64>,
    star: &DistDcsr<S::Elem>,
    threads: usize,
    timer: &mut PhaseTimer,
) -> (Dcsr<(S::Elem, u64)>, u64) {
    apply_shared_algebraic_prebuilt_tracked_exec::<S>(
        grid,
        a,
        c,
        f,
        star,
        &Exec::new(threads),
        timer,
    )
}

/// [`apply_shared_algebraic_prebuilt_tracked`] under an explicit [`Exec`].
pub fn apply_shared_algebraic_prebuilt_tracked_exec<S: Semiring>(
    grid: &Grid,
    a: &mut DistMat<S::Elem>,
    c: &mut DistMat<S::Elem>,
    f: &mut DistMat<u64>,
    star: &DistDcsr<S::Elem>,
    exec: &Exec<S>,
    timer: &mut PhaseTimer,
) -> (Dcsr<(S::Elem, u64)>, u64) {
    apply_shared_algebraic_tracked_view_exec::<S>(
        grid,
        a,
        c,
        f,
        StarView::Natural(star),
        star,
        exec,
        timer,
    )
}

/// [`apply_shared_algebraic_prebuilt_tracked_exec`] from a prebuilt
/// [`StarPair`] (virtual transposition, Section V-C).
#[allow(clippy::too_many_arguments)]
pub fn apply_shared_algebraic_prebuilt_tracked_pair_exec<S: Semiring>(
    grid: &Grid,
    a: &mut DistMat<S::Elem>,
    c: &mut DistMat<S::Elem>,
    f: &mut DistMat<u64>,
    pair: &StarPair<S::Elem>,
    exec: &Exec<S>,
    timer: &mut PhaseTimer,
) -> (Dcsr<(S::Elem, u64)>, u64) {
    apply_shared_algebraic_tracked_view_exec::<S>(
        grid,
        a,
        c,
        f,
        StarView::Transposed(&pair.transposed),
        &pair.natural,
        exec,
        timer,
    )
}

/// Common body of the shared tracked variants (cf.
/// `apply_shared_algebraic_view_exec`).
#[allow(clippy::too_many_arguments)]
fn apply_shared_algebraic_tracked_view_exec<S: Semiring>(
    grid: &Grid,
    a: &mut DistMat<S::Elem>,
    c: &mut DistMat<S::Elem>,
    f: &mut DistMat<u64>,
    view: StarView<'_, S::Elem>,
    natural: &DistDcsr<S::Elem>,
    exec: &Exec<S>,
    timer: &mut PhaseTimer,
) -> (Dcsr<(S::Elem, u64)>, u64) {
    let (cstar, flops) = compute_cstar_shared_exec::<S, BloomKernel>(
        grid,
        a,
        view,
        |m| apply_add_exec::<S>(m, natural, exec),
        exec,
        timer,
    );
    timer.time(phase::LOCAL_UPDATE, || add_cstar_tracked::<S>(c, f, &cstar));
    (cstar, flops)
}

/// Full algebraic-update step on an `(A, B, C)` triple: builds the update
/// matrices from globally-indexed tuples, applies them, and patches `C` via
/// Algorithm 1. Returns the local flop count. Collective over the grid.
#[allow(clippy::too_many_arguments)]
pub fn apply_algebraic_updates<S: Semiring>(
    grid: &Grid,
    a: &mut DistMat<S::Elem>,
    b: &mut DistMat<S::Elem>,
    c: &mut DistMat<S::Elem>,
    a_tuples: Vec<Triple<S::Elem>>,
    b_tuples: Vec<Triple<S::Elem>>,
    threads: usize,
    timer: &mut PhaseTimer,
) -> u64 {
    apply_algebraic_updates_exec::<S>(
        grid,
        a,
        b,
        c,
        a_tuples,
        b_tuples,
        &Exec::new(threads),
        timer,
    )
}

/// [`apply_algebraic_updates`] under an explicit [`Exec`] — the engine's
/// entry point, so consecutive update batches reuse the session pools.
/// Defaults to [`TransposeMode::Virtual`] (Section V-C); `C` is
/// bit-identical across modes.
#[allow(clippy::too_many_arguments)]
pub fn apply_algebraic_updates_exec<S: Semiring>(
    grid: &Grid,
    a: &mut DistMat<S::Elem>,
    b: &mut DistMat<S::Elem>,
    c: &mut DistMat<S::Elem>,
    a_tuples: Vec<Triple<S::Elem>>,
    b_tuples: Vec<Triple<S::Elem>>,
    exec: &Exec<S>,
    timer: &mut PhaseTimer,
) -> u64 {
    apply_algebraic_updates_mode_exec::<S>(
        grid,
        a,
        b,
        c,
        a_tuples,
        b_tuples,
        TransposeMode::default(),
        exec,
        timer,
    )
}

/// [`apply_algebraic_updates_exec`] under an explicit [`TransposeMode`] —
/// the `repro commavoid` ablation switch.
#[allow(clippy::too_many_arguments)]
pub fn apply_algebraic_updates_mode_exec<S: Semiring>(
    grid: &Grid,
    a: &mut DistMat<S::Elem>,
    b: &mut DistMat<S::Elem>,
    c: &mut DistMat<S::Elem>,
    a_tuples: Vec<Triple<S::Elem>>,
    b_tuples: Vec<Triple<S::Elem>>,
    mode: TransposeMode,
    exec: &Exec<S>,
    timer: &mut PhaseTimer,
) -> u64 {
    let (a_star, b_star) = build_star_operands::<S>(grid, a, b, a_tuples, b_tuples, mode, timer);
    apply_algebraic_updates_prebuilt_exec::<S>(grid, a, b, c, &a_star, &b_star, exec, timer)
}

/// Builds both operands' update matrices under [`phase::SCATTER`], issuing
/// both row-phase `IALLTOALLV`s before completing either so the
/// redistributions cross the wire concurrently. Collective.
fn build_star_operands<S: Semiring>(
    grid: &Grid,
    a: &DistMat<S::Elem>,
    b: &DistMat<S::Elem>,
    a_tuples: Vec<Triple<S::Elem>>,
    b_tuples: Vec<Triple<S::Elem>>,
    mode: TransposeMode,
    timer: &mut PhaseTimer,
) -> (StarBuild<S::Elem>, StarBuild<S::Elem>) {
    let a_layout = Arc::clone(a.info().layout());
    let b_layout = Arc::clone(b.info().layout());
    timer.time(phase::SCATTER, || {
        let mut inner = PhaseTimer::new();
        match mode {
            TransposeMode::Physical => {
                let pa =
                    start_update_matrix_in::<S>(grid, &a_layout, a_tuples, Dedup::Add, &mut inner);
                let pb =
                    start_update_matrix_in::<S>(grid, &b_layout, b_tuples, Dedup::Add, &mut inner);
                (
                    StarBuild::Physical(pa.finish(grid, &mut inner)),
                    StarBuild::Physical(pb.finish(grid, &mut inner)),
                )
            }
            TransposeMode::Virtual => {
                let pa = start_update_matrix_pair_in::<S>(
                    grid,
                    &a_layout,
                    a_tuples,
                    Dedup::Add,
                    &mut inner,
                );
                let pb = start_update_matrix_pair_in::<S>(
                    grid,
                    &b_layout,
                    b_tuples,
                    Dedup::Add,
                    &mut inner,
                );
                (
                    StarBuild::Virtual(pa.finish(grid, &mut inner)),
                    StarBuild::Virtual(pb.finish(grid, &mut inner)),
                )
            }
        }
    })
}

/// Algebraic-update step from **pre-built** update operands: applies
/// `B += B*`, runs Algorithm 1's rounds, applies `A += A*` and patches `C`.
/// The engine's inter-batch lookahead completes builds in the background
/// and drains them through this entry point. Collective.
#[allow(clippy::too_many_arguments)]
pub fn apply_algebraic_updates_prebuilt_exec<S: Semiring>(
    grid: &Grid,
    a: &mut DistMat<S::Elem>,
    b: &mut DistMat<S::Elem>,
    c: &mut DistMat<S::Elem>,
    a_star: &StarBuild<S::Elem>,
    b_star: &StarBuild<S::Elem>,
    exec: &Exec<S>,
    timer: &mut PhaseTimer,
) -> u64 {
    // Eq. 1 ordering: B must be B' during the multiplication, A must still
    // be the old A.
    timer.time(phase::LOCAL_UPDATE, || {
        apply_add_exec::<S>(b, b_star.natural(), exec);
    });
    let (cstar, flops) =
        compute_cstar_exec::<S, PlainKernel>(grid, a, b, a_star.view(), b_star.view(), exec, timer);
    timer.time(phase::LOCAL_UPDATE, || {
        apply_add_exec::<S>(a, a_star.natural(), exec);
        add_cstar::<S>(c, &cstar);
    });
    flops
}

/// Algebraic-update step that also maintains the Bloom filter matrix `F`
/// (required when general updates may follow). Identical communication
/// structure; partial blocks carry `(value, bitfield)` pairs.
#[allow(clippy::too_many_arguments)]
pub fn apply_algebraic_updates_tracked<S: Semiring>(
    grid: &Grid,
    a: &mut DistMat<S::Elem>,
    b: &mut DistMat<S::Elem>,
    c: &mut DistMat<S::Elem>,
    f: &mut DistMat<u64>,
    a_tuples: Vec<Triple<S::Elem>>,
    b_tuples: Vec<Triple<S::Elem>>,
    threads: usize,
    timer: &mut PhaseTimer,
) -> u64 {
    apply_algebraic_updates_tracked_exec::<S>(
        grid,
        a,
        b,
        c,
        f,
        a_tuples,
        b_tuples,
        &Exec::new(threads),
        timer,
    )
}

/// [`apply_algebraic_updates_tracked`] under an explicit [`Exec`]. Defaults
/// to [`TransposeMode::Virtual`] (Section V-C).
#[allow(clippy::too_many_arguments)]
pub fn apply_algebraic_updates_tracked_exec<S: Semiring>(
    grid: &Grid,
    a: &mut DistMat<S::Elem>,
    b: &mut DistMat<S::Elem>,
    c: &mut DistMat<S::Elem>,
    f: &mut DistMat<u64>,
    a_tuples: Vec<Triple<S::Elem>>,
    b_tuples: Vec<Triple<S::Elem>>,
    exec: &Exec<S>,
    timer: &mut PhaseTimer,
) -> u64 {
    apply_algebraic_updates_tracked_mode_exec::<S>(
        grid,
        a,
        b,
        c,
        f,
        a_tuples,
        b_tuples,
        TransposeMode::default(),
        exec,
        timer,
    )
}

/// [`apply_algebraic_updates_tracked_exec`] under an explicit
/// [`TransposeMode`].
#[allow(clippy::too_many_arguments)]
pub fn apply_algebraic_updates_tracked_mode_exec<S: Semiring>(
    grid: &Grid,
    a: &mut DistMat<S::Elem>,
    b: &mut DistMat<S::Elem>,
    c: &mut DistMat<S::Elem>,
    f: &mut DistMat<u64>,
    a_tuples: Vec<Triple<S::Elem>>,
    b_tuples: Vec<Triple<S::Elem>>,
    mode: TransposeMode,
    exec: &Exec<S>,
    timer: &mut PhaseTimer,
) -> u64 {
    let (a_star, b_star) = build_star_operands::<S>(grid, a, b, a_tuples, b_tuples, mode, timer);
    apply_algebraic_updates_tracked_prebuilt_exec::<S>(
        grid, a, b, c, f, &a_star, &b_star, exec, timer,
    )
}

/// Tracked analog of [`apply_algebraic_updates_prebuilt_exec`]: also
/// maintains the Bloom filter matrix `F`. Collective.
#[allow(clippy::too_many_arguments)]
pub fn apply_algebraic_updates_tracked_prebuilt_exec<S: Semiring>(
    grid: &Grid,
    a: &mut DistMat<S::Elem>,
    b: &mut DistMat<S::Elem>,
    c: &mut DistMat<S::Elem>,
    f: &mut DistMat<u64>,
    a_star: &StarBuild<S::Elem>,
    b_star: &StarBuild<S::Elem>,
    exec: &Exec<S>,
    timer: &mut PhaseTimer,
) -> u64 {
    timer.time(phase::LOCAL_UPDATE, || {
        apply_add_exec::<S>(b, b_star.natural(), exec);
    });
    let (cstar, flops) =
        compute_cstar_exec::<S, BloomKernel>(grid, a, b, a_star.view(), b_star.view(), exec, timer);
    timer.time(phase::LOCAL_UPDATE, || {
        apply_add_exec::<S>(a, a_star.natural(), exec);
        add_cstar_tracked::<S>(c, f, &cstar);
    });
    flops
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::summa::summa;
    use crate::update::apply_add;
    use dspgemm_mpi::run;
    use dspgemm_sparse::dense::Dense;
    use dspgemm_sparse::semiring::U64Plus;
    use dspgemm_util::rng::{Rng, SplitMix64};

    fn random_triples(seed: u64, n: Index, count: usize) -> Vec<Triple<u64>> {
        let mut rng = SplitMix64::new(seed);
        (0..count)
            .map(|_| {
                Triple::new(
                    rng.gen_range(n as u64) as Index,
                    rng.gen_range(n as u64) as Index,
                    rng.gen_range(5) + 1,
                )
            })
            .collect()
    }

    /// End-to-end: dynamic result after several batches must equal a static
    /// recomputation of A'·B' from scratch.
    fn check_dynamic_equals_static(p: usize, n: Index, batches: usize) {
        let out = run(p, move |comm| {
            let grid = Grid::new(comm);
            let mut timer = PhaseTimer::new();
            let feed = |s: u64, count: usize| {
                if comm.rank() == 0 {
                    random_triples(s, n, count)
                } else {
                    vec![]
                }
            };
            let mut a = DistMat::from_global_triples(&grid, n, n, feed(1, 80), 2, &mut timer);
            let mut b = DistMat::from_global_triples(&grid, n, n, feed(2, 80), 2, &mut timer);
            let (mut c, _) = summa::<U64Plus>(&grid, &a, &b, 2, &mut timer);
            for round in 0..batches as u64 {
                // Every rank contributes its own update tuples.
                let a_ups = random_triples(100 + round * 7 + comm.rank() as u64, n, 15);
                let b_ups = random_triples(500 + round * 7 + comm.rank() as u64, n, 15);
                apply_algebraic_updates::<U64Plus>(
                    &grid, &mut a, &mut b, &mut c, a_ups, b_ups, 2, &mut timer,
                );
            }
            // Static recomputation from the final A', B'.
            let (c_static, _) = summa::<U64Plus>(&grid, &a, &b, 2, &mut timer);
            (
                c.gather_to_root(comm),
                c_static.gather_to_root(comm),
                a.gather_to_root(comm),
                b.gather_to_root(comm),
            )
        });
        let (c_dyn, c_static, a_fin, b_fin) = &out.results[0];
        let c_dyn = c_dyn.as_ref().unwrap();
        let c_static = c_static.as_ref().unwrap();
        let n_us = n;
        let dd = Dense::from_triples::<U64Plus>(n_us, n_us, c_dyn);
        let ds = Dense::from_triples::<U64Plus>(n_us, n_us, c_static);
        assert_eq!(dd.diff(&ds), vec![], "p={p}: dynamic != static");
        // Also check against a fully independent dense reference.
        let da = Dense::from_triples::<U64Plus>(n_us, n_us, a_fin.as_ref().unwrap());
        let db = Dense::from_triples::<U64Plus>(n_us, n_us, b_fin.as_ref().unwrap());
        let dref = da.matmul::<U64Plus>(&db);
        assert_eq!(dd.diff(&dref), vec![], "p={p}: dynamic != dense reference");
    }

    #[test]
    fn dynamic_equals_static_p1() {
        check_dynamic_equals_static(1, 24, 3);
    }

    #[test]
    fn dynamic_equals_static_p4() {
        check_dynamic_equals_static(4, 24, 3);
    }

    #[test]
    fn dynamic_equals_static_p9() {
        check_dynamic_equals_static(9, 30, 2);
    }

    #[test]
    fn tracked_variant_matches_plain_and_fills_f() {
        let n: Index = 20;
        let out = run(4, move |comm| {
            let grid = Grid::new(comm);
            let mut timer = PhaseTimer::new();
            let feed = |s: u64| {
                if comm.rank() == 0 {
                    random_triples(s, n, 60)
                } else {
                    vec![]
                }
            };
            let mut a = DistMat::from_global_triples(&grid, n, n, feed(11), 1, &mut timer);
            let mut b = DistMat::from_global_triples(&grid, n, n, feed(12), 1, &mut timer);
            let (mut c, mut f, _) =
                crate::summa::summa_bloom::<U64Plus>(&grid, &a, &b, 1, &mut timer);
            let mut a2 = a.clone();
            let mut b2 = b.clone();
            let mut c2 = c.clone();
            let a_ups = random_triples(31 + comm.rank() as u64, n, 10);
            let b_ups = random_triples(41 + comm.rank() as u64, n, 10);
            apply_algebraic_updates_tracked::<U64Plus>(
                &grid,
                &mut a,
                &mut b,
                &mut c,
                &mut f,
                a_ups.clone(),
                b_ups.clone(),
                1,
                &mut timer,
            );
            apply_algebraic_updates::<U64Plus>(
                &grid, &mut a2, &mut b2, &mut c2, a_ups, b_ups, 1, &mut timer,
            );
            // C identical either way; F covers C's pattern.
            let ct = c.to_global_triples();
            let ft = f.to_global_triples();
            let same_c = c.gather_to_root(comm) == c2.gather_to_root(comm);
            let f_keys: std::collections::BTreeSet<_> = ft.iter().map(|t| (t.row, t.col)).collect();
            let covers = ct.iter().all(|t| f_keys.contains(&(t.row, t.col)));
            (same_c, covers)
        });
        assert!(out.results.iter().all(|&(s, c)| s && c));
    }

    #[test]
    fn empty_updates_are_noops() {
        let n: Index = 16;
        let out = run(4, move |comm| {
            let grid = Grid::new(comm);
            let mut timer = PhaseTimer::new();
            let t = if comm.rank() == 0 {
                random_triples(3, n, 50)
            } else {
                vec![]
            };
            let mut a = DistMat::from_global_triples(&grid, n, n, t, 1, &mut timer);
            let mut b = a.clone();
            let (mut c, _) = summa::<U64Plus>(&grid, &a, &b, 1, &mut timer);
            let before = c.gather_to_root(comm);
            apply_algebraic_updates::<U64Plus>(
                &grid,
                &mut a,
                &mut b,
                &mut c,
                vec![],
                vec![],
                1,
                &mut timer,
            );
            before == c.gather_to_root(comm)
        });
        assert!(out.results.iter().all(|&x| x));
    }

    /// Shared-operand maintenance of C = A·A must agree with the
    /// two-operand engine driven with identical batches on a clone.
    #[test]
    fn shared_operand_matches_cloned_operands() {
        let n: Index = 22;
        for p in [1usize, 4, 9] {
            let out = run(p, move |comm| {
                let grid = Grid::new(comm);
                let mut timer = PhaseTimer::new();
                let t = if comm.rank() == 0 {
                    random_triples(7, n, 70)
                } else {
                    vec![]
                };
                let mut a = DistMat::from_global_triples(&grid, n, n, t, 1, &mut timer);
                let mut a2 = a.clone();
                let mut b2 = a.clone();
                let (mut c, _) = summa::<U64Plus>(&grid, &a, &a, 1, &mut timer);
                let mut c2 = c.clone();
                for round in 0..3u64 {
                    let ups = random_triples(40 + round + comm.rank() as u64, n, 9);
                    let star = crate::update::build_update_matrix::<U64Plus>(
                        &grid,
                        n,
                        n,
                        ups.clone(),
                        crate::update::Dedup::Add,
                        &mut timer,
                    );
                    let (cstar, flops) = apply_shared_algebraic_prebuilt::<U64Plus>(
                        &grid, &mut a, &mut c, &star, 1, &mut timer,
                    );
                    assert!(cstar.nnz() == 0 || flops > 0);
                    apply_algebraic_updates::<U64Plus>(
                        &grid,
                        &mut a2,
                        &mut b2,
                        &mut c2,
                        ups.clone(),
                        ups,
                        1,
                        &mut timer,
                    );
                }
                (
                    a.gather_to_root(comm) == a2.gather_to_root(comm),
                    c.gather_to_root(comm) == c2.gather_to_root(comm),
                )
            });
            assert!(
                out.results.iter().all(|&(a_eq, c_eq)| a_eq && c_eq),
                "p={p}"
            );
        }
    }

    /// The tracked shared path maintains C identically and fills F over C's
    /// pattern.
    #[test]
    fn shared_tracked_maintains_filter() {
        let n: Index = 18;
        let out = run(4, move |comm| {
            let grid = Grid::new(comm);
            let mut timer = PhaseTimer::new();
            let t = if comm.rank() == 0 {
                random_triples(5, n, 60)
            } else {
                vec![]
            };
            let mut a = DistMat::from_global_triples(&grid, n, n, t, 1, &mut timer);
            let (mut c, mut f, _) =
                crate::summa::summa_bloom::<U64Plus>(&grid, &a, &a, 1, &mut timer);
            let ups = random_triples(61 + comm.rank() as u64, n, 12);
            let star = crate::update::build_update_matrix::<U64Plus>(
                &grid,
                n,
                n,
                ups,
                crate::update::Dedup::Add,
                &mut timer,
            );
            apply_shared_algebraic_prebuilt_tracked::<U64Plus>(
                &grid, &mut a, &mut c, &mut f, &star, 1, &mut timer,
            );
            // Invariant C = A·A against static recomputation; F covers C.
            let (c_static, _) = summa::<U64Plus>(&grid, &a, &a, 1, &mut timer);
            let f_keys: std::collections::BTreeSet<_> = f
                .to_global_triples()
                .iter()
                .map(|t| (t.row, t.col))
                .collect();
            let covers = c
                .to_global_triples()
                .iter()
                .all(|t| f_keys.contains(&(t.row, t.col)));
            (
                c.gather_to_root(comm) == c_static.gather_to_root(comm),
                covers,
            )
        });
        assert!(out.results.iter().all(|&(eq, cov)| eq && cov));
    }

    /// The headline property: dynamic updates move far fewer bytes than a
    /// static SUMMA recomputation when updates are hypersparse.
    #[test]
    fn dynamic_volume_below_static_recompute() {
        let n: Index = 128;
        let nnz_initial = 4000;
        let batch = 8; // hypersparse update
        let dynamic = run(4, move |comm| {
            let grid = Grid::new(comm);
            let mut timer = PhaseTimer::new();
            let t = if comm.rank() == 0 {
                random_triples(21, n, nnz_initial)
            } else {
                vec![]
            };
            let mut a = DistMat::from_global_triples(&grid, n, n, t.clone(), 1, &mut timer);
            let mut b = DistMat::from_global_triples(&grid, n, n, t, 1, &mut timer);
            let (mut c, _) = summa::<U64Plus>(&grid, &a, &b, 1, &mut timer);
            let before = dspgemm_mpi::CommCategory::all();
            let _ = before;
            // Measure only the update step: reset via snapshot is not
            // available inside; instead, run the update and report the
            // volume of the whole run minus a baseline run (handled by the
            // caller comparing totals of two runs that differ only in the
            // update step).
            let ups = random_triples(77 + comm.rank() as u64, n, batch);
            apply_algebraic_updates::<U64Plus>(
                &grid,
                &mut a,
                &mut b,
                &mut c,
                ups,
                vec![],
                1,
                &mut timer,
            );
            c.local_nnz()
        });
        let static_rerun = run(4, move |comm| {
            let grid = Grid::new(comm);
            let mut timer = PhaseTimer::new();
            let t = if comm.rank() == 0 {
                random_triples(21, n, nnz_initial)
            } else {
                vec![]
            };
            let mut a = DistMat::from_global_triples(&grid, n, n, t.clone(), 1, &mut timer);
            let b = DistMat::from_global_triples(&grid, n, n, t, 1, &mut timer);
            let (c0, _) = summa::<U64Plus>(&grid, &a, &b, 1, &mut timer);
            // Static strategy: apply updates, recompute from scratch.
            let ups = random_triples(77 + comm.rank() as u64, n, batch);
            let a_star = crate::update::build_update_matrix::<U64Plus>(
                &grid,
                n,
                n,
                ups,
                Dedup::Add,
                &mut timer,
            );
            apply_add::<U64Plus>(&mut a, &a_star, 1);
            let (c1, _) = summa::<U64Plus>(&grid, &a, &b, 1, &mut timer);
            let _ = (c0, c1);
            0usize
        });
        // Both runs share construction + initial SUMMA; the static rerun adds
        // a full SUMMA, the dynamic run adds Algorithm 1. Compare totals.
        assert!(
            dynamic.stats.total_bytes() < static_rerun.stats.total_bytes(),
            "dynamic {} >= static {}",
            dynamic.stats.total_bytes(),
            static_rerun.stats.total_bytes()
        );
    }
}
