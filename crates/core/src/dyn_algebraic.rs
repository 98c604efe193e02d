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
//! 2. `√p` rounds per pass: in round `k` of the X pass `A*_{k,i}` is
//!    broadcast over process row `i`, in round `k` of the Y pass `B*_{j,k}`
//!    over process column `j`; every rank multiplies locally
//!    (`Xⁱ_{k,j} = A*_{k,i}·B'_{i,j}` and `Yʲ_{i,k} = A_{i,j}·B*_{j,k}`,
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
//! The batch's one redistribution carries every update matrix in two lanes
//! (a [`StarPair`]): a natural lane builds this rank's own block, which the
//! local `A += A*` application needs, and a root lane routes the flipped
//! tuples under the transposed layout, so rank `(i, j)` receives exactly the
//! entries of `A*_{j,i}` and assembles them as the broadcast payload. No
//! point-to-point byte moves, and an Algorithm-1 batch sends one two-phase
//! `ALLTOALLV` pair however many operands it updates
//! (`tests/comm_volume.rs` asserts both).
//!
//! The module is generic over an [`XYKernel`] so the identical communication
//! structure also serves the Bloom-fused variant (engine sessions that
//! maintain the filter matrix `F`) and `COMPUTE_PATTERN` of Algorithm 2.
//!
//! **One round body.** Both shapes, `C = A·B` and `C = A·A`, run the Y pass
//! against the old `A`, then the local update application, then the X pass
//! against the new right operand: Y reads only `A` and `B*`, X only `A*` and
//! `B'`, so the order is legal for two operands and lets the shared shape
//! update its one stored matrix in place between the passes. Algorithm 2's
//! masked recompute is the X pass again, under a broadcast output mask.
//! Entry points, one per level: [`apply_algebraic_updates_exec`] from
//! tuples, [`apply_algebraic_prebuilt_exec`] from built update operands,
//! [`apply_shared_algebraic_prebuilt_tracked_exec`] for the shared shape.

use crate::distmat::{DistDcsr, DistMat, Elem};
use crate::exec::Exec;
use crate::grid::Grid;
use crate::phase;
use crate::pipeline::{await_into_phase, run_rounds};
use crate::update::{apply_add, build_star_pairs_in, Dedup, StarPair};
use dspgemm_sparse::local_mm::{spgemm_with, Bloom, Pattern, Payload, Plain};
use dspgemm_sparse::semiring::Semiring;
use dspgemm_sparse::workspace::KernelWorkspace;
use dspgemm_sparse::{Dcsr, RowScan, Triple};
use dspgemm_util::stats::PhaseTimer;
use std::cell::RefMut;
use std::sync::Arc;

/// A [`Payload`] the round structure can run: its entries travel between
/// ranks, and it names the session workspace its multiplies run on — so
/// every flavor reuses its scratch across rounds and batches.
pub trait XYKernel<S: Semiring>: Payload<S, Out: Elem> {
    /// The payload-matching workspace of the session's [`Exec`].
    fn workspace(exec: &Exec<S>) -> RefMut<'_, KernelWorkspace<Self::Out>>;
}

/// Values only — the production algebraic path.
impl<S: Semiring> XYKernel<S> for Plain {
    fn workspace(exec: &Exec<S>) -> RefMut<'_, KernelWorkspace<S::Elem>> {
        exec.plain()
    }
}

/// Values fused with Bloom bitfields — for engine sessions maintaining `F`.
impl<S: Semiring> XYKernel<S> for Bloom {
    fn workspace(exec: &Exec<S>) -> RefMut<'_, KernelWorkspace<(S::Elem, u64)>> {
        exec.fused()
    }
}

/// Structure + Bloom bits only — `COMPUTE_PATTERN` of Algorithm 2.
impl<S: Semiring> XYKernel<S> for Pattern {
    fn workspace(exec: &Exec<S>) -> RefMut<'_, KernelWorkspace<u64>> {
        exec.pattern()
    }
}

/// The one transposition schedule, as a name. Adapter-frozen:
/// `benchmark/src/api.rs` spells `TransposeMode::Virtual`; nothing in the
/// workspace takes a mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransposeMode {
    /// Virtual transposition (Section V-C): every update matrix is also
    /// built as its round roots' blocks, so no round root fetches its
    /// broadcast payload.
    #[default]
    Virtual,
}

/// A [`StarPair`] under the name `benchmark/src/api.rs` builds it with.
/// Adapter-frozen; the workspace passes [`StarPair`]s.
pub enum StarBuild<V: Elem> {
    /// The natural and the round-root blocks of one update matrix.
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

/// Builds both blocks of both operands' update matrices under
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

/// The operands of one `C*` computation, with the blocks their round roots
/// broadcast ([`StarPair::root`]).
pub(crate) enum Operands<'m, V: Elem> {
    /// `C = A·B`: each operand has its own update matrix.
    Pair {
        a: &'m mut DistMat<V>,
        b: &'m mut DistMat<V>,
        a_root: &'m Arc<Dcsr<V>>,
        b_root: &'m Arc<Dcsr<V>>,
    },
    /// `C = A·A`: one stored matrix and one update matrix serve both sides.
    Shared {
        a: &'m mut DistMat<V>,
        root: &'m Arc<Dcsr<V>>,
    },
}

impl<V: Elem> Operands<'_, V> {
    /// The left operand `A`.
    fn left(&self) -> &DistMat<V> {
        match self {
            Operands::Pair { a, .. } | Operands::Shared { a, .. } => a,
        }
    }

    /// The right operand: `B`, or `A` again for the shared shape.
    fn right(&self) -> &DistMat<V> {
        match self {
            Operands::Pair { b, .. } => b,
            Operands::Shared { a, .. } => a,
        }
    }
}

/// The broadcast payloads of the X and Y passes.
type Payloads<V> = (Option<Arc<Dcsr<V>>>, Option<Arc<Dcsr<V>>>);

/// Step 1 of [`compute_cstar`]: the round roots' broadcast payloads, as
/// the batch's redistribution built them. A globally empty update matrix
/// contributes nothing to Eq. 1, so its pass gets no payload and is skipped
/// whole — decided from the allreduced global nnz, so all ranks agree. This
/// is the common case in the paper's Fig. 9 protocol, where `B` is static.
fn star_payloads<V: Elem>(grid: &Grid, ops: &Operands<'_, V>) -> Payloads<V> {
    match ops {
        Operands::Pair { a_root, b_root, .. } => {
            let [a_nnz, b_nnz] = grid
                .world()
                .allreduce([a_root.nnz() as u64, b_root.nnz() as u64], |x, y| {
                    [x[0] + y[0], x[1] + y[1]]
                });
            let x = (a_nnz != 0).then(|| Arc::clone(a_root));
            let y = (b_nnz != 0).then(|| Arc::clone(b_root));
            (x, y)
        }
        Operands::Shared { a, root } => {
            assert_eq!(
                a.info().nrows,
                a.info().ncols,
                "shared-operand dynamic SpGEMM maintains a square product C = A·A"
            );
            // One block serves both passes: rank (i,j) holds A*_{j,i}, the
            // X payload of row i and the Y payload of column j.
            let nnz = grid.world().allreduce(root.nnz() as u64, |x, y| x + y);
            let star = (nnz != 0).then(|| Arc::clone(root));
            (star.clone(), star)
        }
    }
}

/// The X pass: in round `k`, row-comm member `k` broadcasts `star`
/// (`A*_{k,i}` over process row `i`), every rank multiplies
/// `Xⁱ_{k,j} = A*_{k,i}·right_{i,j}` and the partials merge-reduce over
/// process column `j` onto `(k,j)`. With `mask`, col-comm member `k` also
/// broadcasts its mask block and the multiply keeps only the masked
/// positions — Algorithm 2's recompute. Pipelined: round `k + 1`'s
/// broadcasts are in flight while round `k` multiplies and reduces (the
/// progress engine forwards their tree edges even while ranks are blocked
/// inside the reductions). Returns this rank's reduced block. Collective.
pub(crate) fn x_pass<S: Semiring, K: XYKernel<S>>(
    grid: &Grid,
    star: &Arc<Dcsr<S::Elem>>,
    right: &DistMat<S::Elem>,
    mask: Option<&Arc<Dcsr<()>>>,
    exec: &Exec<S>,
    timer: &mut PhaseTimer,
    flops: &mut u64,
) -> Option<Dcsr<K::Out>> {
    let (i, j) = grid.coords();
    let k_offset = right.info().row_range.start;
    let mut mine = None;
    run_rounds(
        &mut (timer, flops, &mut mine),
        grid.q(),
        |_ctx, k| {
            let star = grid
                .row_comm()
                .ibcast_shared(k, (j == k).then(|| Arc::clone(star)));
            let mask = mask.map(|m| {
                grid.col_comm()
                    .ibcast_shared(k, (i == k).then(|| Arc::clone(m)))
            });
            (star, mask)
        },
        |ctx, _k, (star, mask)| {
            let star = await_into_phase(star, ctx.0, phase::BCAST);
            let mask = mask.map(|req| await_into_phase(req, ctx.0, phase::BCAST));
            (star, mask)
        },
        |(timer, flops, mine), k, (star, mask)| {
            let b = right.block();
            let part = timer.time(phase::LOCAL_MULT, || {
                let ws = &mut K::workspace(exec);
                match mask {
                    Some(mask) => spgemm_with::<S, K, _, _, _>(&*star, b, &*mask, k_offset, ws),
                    None => spgemm_with::<S, K, _, _, _>(&*star, b, &(), k_offset, ws),
                }
            });
            **flops += part.flops;
            let red = timer.time(phase::REDUCE_SCATTER, || {
                grid.col_comm()
                    .reduce(k, part.result, |a, b| Dcsr::merge_with(&a, &b, K::merge))
            });
            if red.is_some() {
                debug_assert_eq!(i, k);
                **mine = red;
            }
        },
    );
    mine
}

/// The Y pass, the X pass mirrored: in round `k`, col-comm member `k`
/// broadcasts `star` (`B*_{j,k}` over process column `j`), every rank
/// multiplies `Yʲ_{i,k} = left_{i,j}·B*_{j,k}` and the partials
/// merge-reduce over process row `i` onto `(i,k)`. Pipelined like
/// [`x_pass`]. Returns this rank's reduced block. Collective.
fn y_pass<S: Semiring, K: XYKernel<S>>(
    grid: &Grid,
    left: &DistMat<S::Elem>,
    star: &Arc<Dcsr<S::Elem>>,
    exec: &Exec<S>,
    timer: &mut PhaseTimer,
    flops: &mut u64,
) -> Option<Dcsr<K::Out>> {
    let (i, j) = grid.coords();
    let k_offset = left.info().col_range.start;
    let mut mine = None;
    run_rounds(
        &mut (timer, flops, &mut mine),
        grid.q(),
        |_ctx, k| {
            grid.col_comm()
                .ibcast_shared(k, (i == k).then(|| Arc::clone(star)))
        },
        |ctx, _k, star| await_into_phase(star, ctx.0, phase::BCAST),
        |(timer, flops, mine), k, star| {
            let part = timer.time(phase::LOCAL_MULT, || {
                let star_rows = star.row_reader();
                let ws = &mut K::workspace(exec);
                spgemm_with::<S, K, _, _, _>(left.block(), &star_rows, &(), k_offset, ws)
            });
            **flops += part.flops;
            let red = timer.time(phase::REDUCE_SCATTER, || {
                grid.row_comm()
                    .reduce(k, part.result, |a, b| Dcsr::merge_with(&a, &b, K::merge))
            });
            if red.is_some() {
                debug_assert_eq!(j, k);
                **mine = red;
            }
        },
    );
    mine
}

/// This rank's block of `C* = A*·B' + A·B*` (Eq. 1) plus the local flop
/// count — the one round body of both Algorithm-1 shapes and of
/// `COMPUTE_PATTERN`. Collective over the grid.
///
/// 1. The round roots take their broadcast payloads ([`star_payloads`]).
/// 2. The Y pass against the old `A`.
/// 3. `apply` turns the operands into `A'` (and `B'`) in place, under
///    [`phase::LOCAL_UPDATE`].
/// 4. The X pass against the new right operand `B'` (`A'` when shared).
/// 5. The X and Y partials merge, X first.
pub(crate) fn compute_cstar<'m, S: Semiring, K: XYKernel<S>>(
    grid: &Grid,
    mut ops: Operands<'m, S::Elem>,
    apply: impl FnOnce(&mut Operands<'m, S::Elem>),
    exec: &Exec<S>,
    timer: &mut PhaseTimer,
) -> (Dcsr<K::Out>, u64) {
    let (x_star, y_star) = star_payloads(grid, &ops);
    let mut flops = 0u64;
    let y =
        y_star.and_then(|star| y_pass::<S, K>(grid, ops.left(), &star, exec, timer, &mut flops));
    timer.time(phase::LOCAL_UPDATE, || apply(&mut ops));
    let x = x_star
        .and_then(|star| x_pass::<S, K>(grid, &star, ops.right(), None, exec, timer, &mut flops));
    let (rows, cols) = (
        ops.left().info().local_rows(),
        ops.right().info().local_cols(),
    );
    let cstar = match (x, y) {
        (Some(x), Some(y)) => Dcsr::merge_with(&x, &y, K::merge),
        (x, y) => x.or(y).unwrap_or_else(|| Dcsr::empty(rows, cols)),
    };
    (cstar, flops)
}

/// `C += C*` on this rank's block of the maintained product — the local
/// tail of an untracked Algorithm-1 batch, and the sink of every SUMMA
/// round's partial. Each of `C*`'s column-sorted rows is merged into its
/// row of `C` ([`dspgemm_sparse::DhbMatrix::merge_row`]), which keeps
/// those rows sorted and free of a hash index (DESIGN.md, "Product rows are
/// merged, not hashed"). `C*` is recorded as the touched pattern, so the
/// next publish patches `C`'s image; an empty `C*` leaves block and image
/// alone (the epoch re-shares them).
pub(crate) fn add_cstar<S: Semiring>(c: &mut DistMat<S::Elem>, cstar: &Dcsr<S::Elem>) {
    if cstar.nnz() == 0 {
        return;
    }
    let block = c.block_mut_touching(cstar);
    let mut scratch = Vec::new();
    cstar.scan_rows(|r, cols, vals| {
        block.merge_row(r, cols, |i| vals[i], S::add, &mut scratch);
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

/// Algorithm 1 from **pre-built** update operands: runs the Y pass, applies
/// `A += A*` and `B += B*`, runs the X pass and patches `C`. With `f` the
/// batch also maintains the Bloom filter matrix `F` (required when general
/// updates may follow): identical communication structure, partial blocks
/// carry `(value, bitfield)` pairs. Collective.
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
    let ops = Operands::Pair {
        a,
        b,
        a_root: &a_star.root,
        b_root: &b_star.root,
    };
    let apply = |ops: &mut Operands<S::Elem>| {
        let Operands::Pair { a, b, .. } = ops else {
            unreachable!("built as a pair")
        };
        apply_add::<S>(a, &a_star.natural);
        apply_add::<S>(b, &b_star.natural);
    };
    match f {
        Some(f) => {
            let (cstar, flops) = compute_cstar::<S, Bloom>(grid, ops, apply, exec, timer);
            timer.time(phase::LOCAL_UPDATE, || add_cstar_tracked::<S>(c, f, &cstar));
            flops
        }
        None => {
            let (cstar, flops) = compute_cstar::<S, Plain>(grid, ops, apply, exec, timer);
            timer.time(phase::LOCAL_UPDATE, || add_cstar::<S>(c, &cstar));
            flops
        }
    }
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
    let ops = Operands::Shared {
        a,
        root: &star.root,
    };
    let apply = |ops: &mut Operands<S::Elem>| {
        let Operands::Shared { a, .. } = ops else {
            unreachable!("built as shared")
        };
        apply_add::<S>(a, &star.natural);
    };
    let (cstar, flops) = compute_cstar::<S, Bloom>(grid, ops, apply, exec, timer);
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
    use dspgemm_sparse::Index;
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
    /// recomputation of A'·B' from scratch — with both update matrices, with
    /// `A*` alone (the X pass alone) and with `B*` alone (the Y pass alone).
    fn check_dynamic_equals_static(p: usize, n: Index, batches: usize) {
        for (a_count, b_count) in [(15, 15), (15, 0), (0, 15)] {
            check_sides(p, n, batches, a_count, b_count);
        }
    }

    fn check_sides(p: usize, n: Index, batches: usize, a_count: usize, b_count: usize) {
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
            let mut a = DistMat::from_global_triples(&grid, n, n, feed(1, 80), 1, &mut timer);
            let mut b = DistMat::from_global_triples(&grid, n, n, feed(2, 80), 1, &mut timer);
            let (mut c, _) = summa::<U64Plus>(&grid, &a, &b, 1, &mut timer);
            for round in 0..batches as u64 {
                // Every rank contributes its own update tuples.
                let a_ups = random_triples(100 + round * 7 + comm.rank() as u64, n, a_count);
                let b_ups = random_triples(500 + round * 7 + comm.rank() as u64, n, b_count);
                apply_algebraic_updates_exec::<U64Plus>(
                    &grid,
                    &mut a,
                    &mut b,
                    &mut c,
                    None,
                    a_ups,
                    b_ups,
                    &Exec::new(),
                    &mut timer,
                );
            }
            // Static recomputation from the final A', B'.
            let (c_static, _) = summa::<U64Plus>(&grid, &a, &b, 1, &mut timer);
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
        let sides = format!("p={p}, |A*|={a_count}, |B*|={b_count}");
        assert_eq!(dd.diff(&ds), vec![], "{sides}: dynamic != static");
        // Also check against a fully independent dense reference.
        let da = Dense::from_triples::<U64Plus>(n_us, n_us, a_fin.as_ref().unwrap());
        let db = Dense::from_triples::<U64Plus>(n_us, n_us, b_fin.as_ref().unwrap());
        let dref = da.matmul::<U64Plus>(&db);
        assert_eq!(
            dd.diff(&dref),
            vec![],
            "{sides}: dynamic != dense reference"
        );
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
                &Exec::new(),
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
                &Exec::new(),
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
                &Exec::new(),
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
                let exec = Exec::new();
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
                        &Exec::new(),
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
                &Exec::new(),
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
                &Exec::new(),
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
            apply_add::<U64Plus>(&mut a, &a_star);
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
