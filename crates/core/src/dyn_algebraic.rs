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
//! 1. the round root of `A*_{k,i}` in process row `i` is `(i,k)`, the
//!    transposed position of its owner (so the `√p` broadcasts of a round can
//!    run in parallel — Fig. 1a). The paper parks the block there with a
//!    point-to-point exchange; here it is already there (see below);
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
//! **Virtual transposition (Section V-C).** Step 1's exchange never runs.
//! The batch's one redistribution carries every update matrix in two lanes —
//! the tuples in natural layout (the local `A += A*` application needs it)
//! and the flipped tuples under the transposed layout (a [`StarPair`]) — so
//! every rank's transposed-layout block already **is** its
//! transposed-position block, just transposed. A purely local counting-sort
//! transposition recovers the broadcast payload bit-for-bit, no
//! point-to-point byte moves, and an Algorithm-1 batch sends one two-phase
//! `ALLTOALLV` pair however many operands it updates
//! (`tests/comm_volume.rs` asserts both).
//!
//! The module is generic over an [`XYKernel`] so the identical communication
//! structure also serves the Bloom-fused variant (engine sessions that
//! maintain the filter matrix `F`) and `COMPUTE_PATTERN` of Algorithm 2.
//!
//! There is one body per shape — [`compute_cstar_exec`] interleaves an X and
//! a Y pass per round for two operands, [`compute_cstar_shared_exec`] runs
//! the same two passes as Y rounds → apply → X rounds for `C = A·A` — and
//! one entry point per level: [`apply_algebraic_updates_exec`] from tuples,
//! [`apply_algebraic_prebuilt_exec`] from built update operands,
//! [`apply_shared_algebraic_prebuilt_tracked_exec`] for the shared shape.

use crate::distmat::{DistDcsr, DistMat, Elem};
use crate::exec::Exec;
use crate::grid::Grid;
use crate::phase;
use crate::pipeline::{await_into_phase, run_rounds};
use crate::update::{apply_add, build_star_pairs_in, Dedup, StarPair};
use dspgemm_mpi::Request;
use dspgemm_sparse::local_mm::{spgemm_with, Bloom, KernelPlan, Pattern, Payload, Plain};
use dspgemm_sparse::semiring::Semiring;
use dspgemm_sparse::{Dcsr, Index, RowScan, Triple};
use dspgemm_util::stats::PhaseTimer;
use std::sync::Arc;

/// A [`Payload`] the round structure can run: its entries travel between
/// ranks, and it names the session pool its multiplies lease from — so
/// every flavor runs scheduled and pooled.
pub trait XYKernel<S: Semiring>: Payload<S, Out: Elem> {
    /// The payload-matching plan of the session's [`Exec`].
    fn plan(exec: &Exec<S>) -> KernelPlan<'_, Self::Out>;
}

/// Values only — the production algebraic path.
impl<S: Semiring> XYKernel<S> for Plain {
    fn plan(exec: &Exec<S>) -> KernelPlan<'_, S::Elem> {
        exec.plain()
    }
}

/// Values fused with Bloom bitfields — for engine sessions maintaining `F`.
impl<S: Semiring> XYKernel<S> for Bloom {
    fn plan(exec: &Exec<S>) -> KernelPlan<'_, (S::Elem, u64)> {
        exec.fused()
    }
}

/// Structure + Bloom bits only — `COMPUTE_PATTERN` of Algorithm 2.
impl<S: Semiring> XYKernel<S> for Pattern {
    fn plan(exec: &Exec<S>) -> KernelPlan<'_, u64> {
        exec.pattern()
    }
}

/// The one transposition schedule, as a name. Adapter-frozen:
/// `benchmark/src/api.rs` spells `TransposeMode::Virtual`; nothing in the
/// workspace takes a mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransposeMode {
    /// Virtual transposition (Section V-C): every update matrix is also
    /// built in transposed layout, so every round root recovers its
    /// broadcast payload by a purely local transposition of its own block.
    #[default]
    Virtual,
}

/// A [`StarPair`] under the name `benchmark/src/api.rs` builds it with.
/// Adapter-frozen; the workspace passes [`StarPair`]s.
pub enum StarBuild<V: Elem> {
    /// Natural + transposed layouts of one update matrix.
    Virtual(StarPair<V>),
}

impl<V: Elem> StarBuild<V> {
    fn pair(&self) -> &StarPair<V> {
        let StarBuild::Virtual(pair) = self;
        pair
    }

    /// The natural-layout matrix (what `A += A*` applies).
    pub fn natural(&self) -> &DistDcsr<V> {
        &self.pair().natural
    }
}

/// Builds both layouts of both operands' update matrices under
/// [`phase::SCATTER`] — four lanes of one redistribution. Update operands
/// route under the layout, possibly rebalanced, of the matrix they patch.
/// Collective.
fn build_star_operands<S: Semiring>(
    grid: &Grid,
    a: &DistMat<S::Elem>,
    b: &DistMat<S::Elem>,
    a_tuples: Vec<Triple<S::Elem>>,
    b_tuples: Vec<Triple<S::Elem>>,
    timer: &mut PhaseTimer,
) -> [StarPair<S::Elem>; 2] {
    timer.time(phase::SCATTER, || {
        let operands = [
            (Arc::clone(a.info().layout()), a_tuples),
            (Arc::clone(b.info().layout()), b_tuples),
        ];
        build_star_pairs_in::<S, 2>(grid, operands, Dedup::Add, &mut PhaseTimer::new())
    })
}

/// The block Algorithm 1's round roots broadcast (`A*_{j,i}` at rank
/// `(i, j)`), recovered from the transposed-layout build `star_t`
/// (`(A*_{j,i})ᵀ` at rank `(i, j)`): this rank's own block already *is* the
/// transposed-position block in transposed form, and a pooled local
/// counting-sort transposition ([`Dcsr::transpose_into`] through the
/// session's [`Exec`]) recovers the payload bit-for-bit under
/// [`phase::TRANSPOSE_LOCAL`] (Section V-C). Local-only.
fn transpose_star<S: Semiring>(
    star_t: &DistDcsr<S::Elem>,
    exec: &Exec<S>,
    timer: &mut PhaseTimer,
) -> Arc<Dcsr<S::Elem>> {
    let _sp =
        dspgemm_obs::span("engine", "transpose_virtual").attr("nnz", star_t.local_nnz() as u64);
    timer.time(phase::TRANSPOSE_LOCAL, || {
        let mut ws = exec.transpose_ws();
        Arc::new(star_t.block().transpose_into(&mut ws))
    })
}

/// One round's update-block broadcast in flight.
type StarFlight<V> = Request<Arc<Dcsr<V>>>;

/// Issues round `k`'s X-pass broadcast: `A*_{k,i}` over process row `i`.
/// Its holder after the transpose resolution is `(i,k)`, i.e. row-comm
/// member `k`.
fn issue_x<V: Elem>(grid: &Grid, k: usize, at_blk: &Arc<Dcsr<V>>) -> StarFlight<V> {
    let (_, j) = grid.coords();
    grid.row_comm()
        .ibcast_shared(k, (j == k).then(|| Arc::clone(at_blk)))
}

/// Issues round `k`'s Y-pass broadcast: `B*_{j,k}` over process column `j`,
/// from its holder `(k,j)` = col-comm member `k`.
fn issue_y<V: Elem>(grid: &Grid, k: usize, bt_blk: &Arc<Dcsr<V>>) -> StarFlight<V> {
    let (i, _) = grid.coords();
    grid.col_comm()
        .ibcast_shared(k, (i == k).then(|| Arc::clone(bt_blk)))
}

/// The X pass of round `k`: `Xⁱ_{k,j} = A*_{k,i}·B'_{i,j}` against the
/// post-update right operand, merge-reduced over process column `j` onto
/// `(k,j)` — which gets the reduced block back.
fn x_round<S: Semiring, K: XYKernel<S>>(
    grid: &Grid,
    k: usize,
    a_bcast: &Dcsr<S::Elem>,
    b_new: &DistMat<S::Elem>,
    exec: &Exec<S>,
    timer: &mut PhaseTimer,
    flops: &mut u64,
) -> Option<Dcsr<K::Out>> {
    let x_part = timer.time(phase::LOCAL_MULT, || {
        let k_offset = b_new.info().row_range.start;
        spgemm_with::<S, K, _, _, _>(a_bcast, b_new.block(), &(), k_offset, K::plan(exec))
    });
    timer.add_thread_flops(&x_part.thread_flops);
    *flops += x_part.flops;
    let x_red = timer.time(phase::REDUCE_SCATTER, || {
        grid.col_comm()
            .reduce(k, x_part.result, |a, b| Dcsr::merge_with(&a, &b, K::merge))
    });
    debug_assert!(x_red.is_none() || grid.coords().0 == k);
    x_red
}

/// The Y pass of round `k`: `Yʲ_{i,k} = A_{i,j}·B*_{j,k}` against the
/// pre-update left operand, merge-reduced over process row `i` onto `(i,k)`.
fn y_round<S: Semiring, K: XYKernel<S>>(
    grid: &Grid,
    k: usize,
    a_old: &DistMat<S::Elem>,
    b_bcast: &Dcsr<S::Elem>,
    exec: &Exec<S>,
    timer: &mut PhaseTimer,
    flops: &mut u64,
) -> Option<Dcsr<K::Out>> {
    let y_part = timer.time(phase::LOCAL_MULT, || {
        let b_rows = b_bcast.row_reader();
        let k_offset = a_old.info().col_range.start;
        spgemm_with::<S, K, _, _, _>(a_old.block(), &b_rows, &(), k_offset, K::plan(exec))
    });
    timer.add_thread_flops(&y_part.thread_flops);
    *flops += y_part.flops;
    let y_red = timer.time(phase::REDUCE_SCATTER, || {
        grid.row_comm()
            .reduce(k, y_part.result, |a, b| Dcsr::merge_with(&a, &b, K::merge))
    });
    debug_assert!(y_red.is_none() || grid.coords().1 == k);
    y_red
}

/// This rank's `C*` block from the X and Y partials reduced onto it.
fn merge_xy<S: Semiring, K: XYKernel<S>>(
    x_mine: Option<Dcsr<K::Out>>,
    y_mine: Option<Dcsr<K::Out>>,
    block_rows: Index,
    block_cols: Index,
) -> Dcsr<K::Out> {
    match (x_mine, y_mine) {
        (Some(x), Some(y)) => Dcsr::merge_with(&x, &y, K::merge),
        (Some(x), None) => x,
        (None, Some(y)) => y,
        (None, None) => Dcsr::empty(block_rows, block_cols),
    }
}

/// The two-operand round structure of Algorithm 1: the local transposition
/// that stands in for the transpose exchange, `√p` rounds that each run an X
/// and a Y pass, and the sparse merge-reductions, returning this rank's
/// block of `C* = A*·B' + A·B*` plus the local flop count. Collective over
/// the grid.
///
/// Inputs obey Eq. 1's timing: `a_old` is `A` *before* its updates, `b_new`
/// is `B'` *after* its updates. The update operands arrive as their
/// transposed-layout builds ([`StarPair::transposed`]). `exec` carries the
/// thread count and pooled workspaces.
pub fn compute_cstar_exec<S: Semiring, K: XYKernel<S>>(
    grid: &Grid,
    a_old: &DistMat<S::Elem>,
    b_new: &DistMat<S::Elem>,
    a_star_t: &DistDcsr<S::Elem>,
    b_star_t: &DistDcsr<S::Elem>,
    exec: &Exec<S>,
    timer: &mut PhaseTimer,
) -> (Dcsr<K::Out>, u64) {
    // Empty-side elision: a globally empty update matrix contributes nothing
    // to Eq. 1, so its whole pass (transposition, broadcasts, multiplies,
    // reductions) is skipped. The decision is collective-safe because it is
    // made from the allreduced global nnz, agreed on all ranks. This is the
    // common case in the paper's Fig. 9 protocol, where `B` is static.
    let [a_star_nnz, b_star_nnz] = grid.world().allreduce(
        [a_star_t.local_nnz() as u64, b_star_t.local_nnz() as u64],
        |x, y| [x[0] + y[0], x[1] + y[1]],
    );

    // Step 1: round roots recover their transposed-position blocks locally.
    let at_blk = (a_star_nnz != 0).then(|| transpose_star(a_star_t, exec, timer));
    let bt_blk = (b_star_nnz != 0).then(|| transpose_star(b_star_t, exec, timer));

    // Step 2 + 3: √p rounds of broadcasts, local multiplies, aggregation —
    // pipelined: round k+1's update-block broadcasts are in flight while
    // round k multiplies and merge-reduces (the progress engine forwards
    // their tree edges even while ranks are blocked inside the reductions).
    let mut flops = 0u64;
    let mut x_mine: Option<Dcsr<K::Out>> = None;
    let mut y_mine: Option<Dcsr<K::Out>> = None;
    run_rounds(
        &mut (timer, &mut flops, &mut x_mine, &mut y_mine),
        grid.q(),
        |_ctx, k| {
            (
                at_blk.as_ref().map(|at| issue_x(grid, k, at)),
                bt_blk.as_ref().map(|bt| issue_y(grid, k, bt)),
            )
        },
        |ctx, _k, (ra, rb)| {
            let a_bcast = ra.map(|r| await_into_phase(r, ctx.0, phase::BCAST));
            let b_bcast = rb.map(|r| await_into_phase(r, ctx.0, phase::BCAST));
            (a_bcast, b_bcast)
        },
        |ctx, k, (a_bcast, b_bcast)| {
            let (timer, flops, x_mine, y_mine) = ctx;
            if let Some(a_bcast) = a_bcast {
                if let Some(x) = x_round::<S, K>(grid, k, &a_bcast, b_new, exec, timer, flops) {
                    **x_mine = Some(x);
                }
            }
            if let Some(b_bcast) = b_bcast {
                if let Some(y) = y_round::<S, K>(grid, k, a_old, &b_bcast, exec, timer, flops) {
                    **y_mine = Some(y);
                }
            }
        },
    );
    let cstar = merge_xy::<S, K>(
        x_mine,
        y_mine,
        a_old.info().local_rows(),
        b_new.info().local_cols(),
    );
    (cstar, flops)
}

/// The shared-operand round structure: this rank's block of
/// `C* = A*·A' + A·A*` for a maintained *square* product `C = A · A`, where
/// both Eq.-1 terms draw on the **same** stored matrix. Collective.
///
/// The interleaved rounds of [`compute_cstar_exec`] need the old `A` (for
/// the Y pass) and the new `A'` (for the X pass) simultaneously, which a
/// single stored operand cannot provide. Instead of cloning the whole
/// matrix, the same two passes are sequenced around the update itself:
///
/// 1. `√p` Y rounds with the *old* `A`;
/// 2. `apply` turns `A` into `A'` in place (purely local);
/// 3. `√p` X rounds with the *new* `A'`.
///
/// One transposition of the single update block replaces Algorithm 1's
/// two, and the communication volume is halved relative to maintaining a
/// lock-stepped clone of `A` as the second operand (each update batch is
/// redistributed and broadcast once instead of twice). `star_t` is the
/// update matrix's transposed-layout build.
pub fn compute_cstar_shared_exec<S: Semiring, K: XYKernel<S>>(
    grid: &Grid,
    a: &mut DistMat<S::Elem>,
    star_t: &DistDcsr<S::Elem>,
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
    let block_rows = a.info().local_rows();
    let block_cols = a.info().local_cols();

    // Empty-batch elision, agreed collectively (cf. `compute_cstar_exec`).
    let star_nnz = grid
        .world()
        .allreduce(star_t.local_nnz() as u64, |x, y| x + y);
    if star_nnz == 0 {
        timer.time(phase::LOCAL_UPDATE, || apply(a));
        return (Dcsr::empty(block_rows, block_cols), 0);
    }

    // One transposition serves both passes: rank (i,j) recovers A*_{j,i}
    // from its own transposed-layout block, so in round k the row-comm
    // member k of row i holds A*_{k,i} and the col-comm member k of column
    // j holds A*_{k,j}, exactly as in Algorithm 1.
    let star_t = transpose_star(star_t, exec, timer);

    let mut flops = 0u64;

    // Y rounds against the old A — pipelined (round k+1's broadcast of the
    // transposed update block is in flight while round k multiplies and
    // reduces).
    let mut y_mine: Option<Dcsr<K::Out>> = None;
    run_rounds(
        &mut (&mut *timer, &mut flops, &mut y_mine),
        q,
        |_ctx, k| issue_y(grid, k, &star_t),
        |ctx, _k, req| await_into_phase(req, ctx.0, phase::BCAST),
        |ctx, k, b_bcast| {
            let (timer, flops, y_mine) = ctx;
            if let Some(y) = y_round::<S, K>(grid, k, a, &b_bcast, exec, timer, flops) {
                **y_mine = Some(y);
            }
        },
    );

    // A → A' (purely local).
    timer.time(phase::LOCAL_UPDATE, || apply(a));

    // X rounds against the new A' — pipelined likewise.
    let mut x_mine: Option<Dcsr<K::Out>> = None;
    run_rounds(
        &mut (&mut *timer, &mut flops, &mut x_mine),
        q,
        |_ctx, k| issue_x(grid, k, &star_t),
        |ctx, _k, req| await_into_phase(req, ctx.0, phase::BCAST),
        |ctx, k, a_bcast| {
            let (timer, flops, x_mine) = ctx;
            if let Some(x) = x_round::<S, K>(grid, k, &a_bcast, a, exec, timer, flops) {
                **x_mine = Some(x);
            }
        },
    );

    let cstar = merge_xy::<S, K>(x_mine, y_mine, block_rows, block_cols);
    (cstar, flops)
}

/// `C += C*` on this rank's block of the maintained product — the local
/// tail of an untracked Algorithm-1 batch, and the sink of every SUMMA
/// round's partial. `C*` is recorded as the touched pattern, so the next
/// publish patches `C`'s image; an empty `C*` leaves block and image alone
/// (the epoch re-shares them).
pub(crate) fn add_cstar<S: Semiring>(c: &mut DistMat<S::Elem>, cstar: &Dcsr<S::Elem>) {
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

/// [`add_cstar`] for a Bloom-tracked batch: `C*` carries
/// `(value, bitfield)` pairs and the bits are OR-ed into `F`. `F` is never
/// published, so it takes no pattern.
pub(crate) fn add_cstar_tracked<S: Semiring>(
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

/// Algorithm 1 on an `(A, B, C)` triple from globally-indexed update
/// tuples: builds both operands' update matrices from one redistribution,
/// then runs [`apply_algebraic_prebuilt_exec`]. Returns the local flop
/// count. Collective over the grid.
#[allow(clippy::too_many_arguments)]
pub fn apply_algebraic_updates_exec<S: Semiring>(
    grid: &Grid,
    a: &mut DistMat<S::Elem>,
    b: &mut DistMat<S::Elem>,
    c: &mut DistMat<S::Elem>,
    f: Option<&mut DistMat<u64>>,
    a_tuples: Vec<Triple<S::Elem>>,
    b_tuples: Vec<Triple<S::Elem>>,
    exec: &Exec<S>,
    timer: &mut PhaseTimer,
) -> u64 {
    let [a_star, b_star] = build_star_operands::<S>(grid, a, b, a_tuples, b_tuples, timer);
    apply_algebraic_prebuilt_exec::<S>(grid, a, b, c, f, &a_star, &b_star, exec, timer)
}

/// Algorithm 1 from **pre-built** update operands: applies `B += B*`, runs
/// the rounds, applies `A += A*` and patches `C`. With `f` the batch also
/// maintains the Bloom filter matrix `F` (required when general updates may
/// follow): identical communication structure, partial blocks carry
/// `(value, bitfield)` pairs. Collective.
#[allow(clippy::too_many_arguments)]
pub fn apply_algebraic_prebuilt_exec<S: Semiring>(
    grid: &Grid,
    a: &mut DistMat<S::Elem>,
    b: &mut DistMat<S::Elem>,
    c: &mut DistMat<S::Elem>,
    f: Option<&mut DistMat<u64>>,
    a_star: &StarPair<S::Elem>,
    b_star: &StarPair<S::Elem>,
    exec: &Exec<S>,
    timer: &mut PhaseTimer,
) -> u64 {
    match f {
        Some(f) => {
            apply_prebuilt_with::<S, Bloom>(grid, a, b, a_star, b_star, exec, timer, |cstar| {
                add_cstar_tracked::<S>(c, f, cstar)
            })
        }
        None => apply_prebuilt_with::<S, Plain>(grid, a, b, a_star, b_star, exec, timer, |cstar| {
            add_cstar::<S>(c, cstar)
        }),
    }
}

/// The batch sequence both kernels of [`apply_algebraic_prebuilt_exec`]
/// share; `add_cstar` folds this rank's `C*` block into the product.
#[allow(clippy::too_many_arguments)]
fn apply_prebuilt_with<S: Semiring, K: XYKernel<S>>(
    grid: &Grid,
    a: &mut DistMat<S::Elem>,
    b: &mut DistMat<S::Elem>,
    a_star: &StarPair<S::Elem>,
    b_star: &StarPair<S::Elem>,
    exec: &Exec<S>,
    timer: &mut PhaseTimer,
    add_cstar: impl FnOnce(&Dcsr<K::Out>),
) -> u64 {
    // Eq. 1 ordering: B must be B' during the multiplication, A must still
    // be the old A.
    timer.time(phase::LOCAL_UPDATE, || {
        apply_add::<S>(b, &b_star.natural, exec.threads);
    });
    let (a_star_t, b_star_t) = (&a_star.transposed, &b_star.transposed);
    let (cstar, flops) = compute_cstar_exec::<S, K>(grid, a, b, a_star_t, b_star_t, exec, timer);
    timer.time(phase::LOCAL_UPDATE, || {
        apply_add::<S>(a, &a_star.natural, exec.threads);
        add_cstar(&cstar);
    });
    flops
}

/// [`apply_algebraic_prebuilt_exec`] without a filter matrix, on
/// [`StarBuild`]s. Adapter-frozen: `benchmark/src/api.rs` names it; nothing
/// in the workspace does.
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
    let (a_star, b_star) = (a_star.pair(), b_star.pair());
    apply_algebraic_prebuilt_exec::<S>(grid, a, b, c, None, a_star, b_star, exec, timer)
}

/// Shared-operand Algorithm 1 from a **pre-built** update operand:
/// maintains `C = A · A` and its filter matrix `F` through `A' = A + A*`
/// and returns this rank's `C*` block (`(value, bitfield)` pairs — the
/// local delta merged into `C`) plus the flop count. The delta lets callers
/// (the analytics session's views) observe exactly which product entries
/// changed without a second pass. Collective.
///
/// The caller performs the redistribution once and may feed the same `A*`
/// to any number of consumers — the "one redistribution pays for all views"
/// contract.
pub fn apply_shared_algebraic_prebuilt_tracked_exec<S: Semiring>(
    grid: &Grid,
    a: &mut DistMat<S::Elem>,
    c: &mut DistMat<S::Elem>,
    f: &mut DistMat<u64>,
    star: &StarPair<S::Elem>,
    exec: &Exec<S>,
    timer: &mut PhaseTimer,
) -> (Dcsr<(S::Elem, u64)>, u64) {
    let (cstar, flops) = compute_cstar_shared_exec::<S, Bloom>(
        grid,
        a,
        &star.transposed,
        |m| apply_add::<S>(m, &star.natural, exec.threads),
        exec,
        timer,
    );
    timer.time(phase::LOCAL_UPDATE, || add_cstar_tracked::<S>(c, f, &cstar));
    (cstar, flops)
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
                apply_algebraic_updates_exec::<U64Plus>(
                    &grid,
                    &mut a,
                    &mut b,
                    &mut c,
                    None,
                    a_ups,
                    b_ups,
                    &Exec::new(2),
                    &mut timer,
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
            apply_algebraic_updates_exec::<U64Plus>(
                &grid,
                &mut a,
                &mut b,
                &mut c,
                Some(&mut f),
                a_ups.clone(),
                b_ups.clone(),
                &Exec::new(1),
                &mut timer,
            );
            apply_algebraic_updates_exec::<U64Plus>(
                &grid,
                &mut a2,
                &mut b2,
                &mut c2,
                None,
                a_ups,
                b_ups,
                &Exec::new(1),
                &mut timer,
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
            apply_algebraic_updates_exec::<U64Plus>(
                &grid,
                &mut a,
                &mut b,
                &mut c,
                None,
                vec![],
                vec![],
                &Exec::new(1),
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
                let (mut c, mut f, _) =
                    crate::summa::summa_bloom::<U64Plus>(&grid, &a, &a, 1, &mut timer);
                let mut c2 = c.clone();
                let exec = Exec::new(1);
                for round in 0..3u64 {
                    let ups = random_triples(40 + round + comm.rank() as u64, n, 9);
                    let star = crate::update::build_update_matrix_pair_in::<U64Plus>(
                        &grid,
                        a.info().layout(),
                        ups.clone(),
                        Dedup::Add,
                        &mut timer,
                    );
                    let (cstar, flops) = apply_shared_algebraic_prebuilt_tracked_exec::<U64Plus>(
                        &grid, &mut a, &mut c, &mut f, &star, &exec, &mut timer,
                    );
                    assert!(cstar.nnz() == 0 || flops > 0);
                    apply_algebraic_updates_exec::<U64Plus>(
                        &grid,
                        &mut a2,
                        &mut b2,
                        &mut c2,
                        None,
                        ups.clone(),
                        ups,
                        &Exec::new(1),
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
            let star = crate::update::build_update_matrix_pair_in::<U64Plus>(
                &grid,
                a.info().layout(),
                ups,
                Dedup::Add,
                &mut timer,
            );
            apply_shared_algebraic_prebuilt_tracked_exec::<U64Plus>(
                &grid,
                &mut a,
                &mut c,
                &mut f,
                &star,
                &Exec::new(1),
                &mut timer,
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
            let ups = random_triples(77 + comm.rank() as u64, n, batch);
            apply_algebraic_updates_exec::<U64Plus>(
                &grid,
                &mut a,
                &mut b,
                &mut c,
                None,
                ups,
                vec![],
                &Exec::new(1),
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
