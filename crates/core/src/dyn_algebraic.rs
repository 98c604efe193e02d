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
//! 3. the round's contributions are **aggregated non-locally** onto one
//!    rank. `Yʲ_{i,k}` merge-reduces over row `i` onto `(i,k)` (Fig. 1c).
//!    The X pass departs from the paper here: instead of reducing its
//!    partial `Xⁱ_{k,j}`, rank `(i,j)` gathers to `(k,j)` the star block it
//!    received and the rows of `B'_{i,j}` that the block's columns select,
//!    and after the last round `(k,j)` multiplies each pair and folds the
//!    partials in the reduction's bracket order. On edge-sampled updates the star's columns
//!    repeat hub vertices and the products hardly merge, so a partial is
//!    about twice its operands. The masked recompute of Algorithm 2 still
//!    reduces: its mask bounds the partials.
//!
//! Communication volume: the broadcasts and the X pass's gathers move
//! `O((nnz(A*) + nnz(B*) + nnz(B'[cols(A*), :]))/√p)`, the Y pass's
//! reduction `O(nnz(A·B*)/√p)`, against SUMMA's `O((nnz(A)+nnz(B'))/√p)`:
//! the whole point of the paper.
//!
//! **Virtual transposition (Section V-C).** Step 1's exchange never runs.
//! The batch's one redistribution carries every update matrix in two lanes
//! (a [`StarPair`]): a natural lane builds this rank's own block, which the
//! local `A += A*` application needs, and a root lane routes the flipped
//! tuples as entries of the transposed matrix, so rank `(i, j)` receives
//! exactly the entries of `A*_{j,i}` and assembles them as the broadcast
//! payload. No point-to-point byte moves, and an Algorithm-1 batch sends
//! one two-phase `ALLTOALLV` pair however many operands it updates
//! (`tests/comm_volume.rs` asserts both). A batch over a ring is the
//! exception ([`crate::ring`]): its round roots broadcast each entry's
//! difference, which exists only once the owner has read the old block, so
//! they receive it in the paper's step-1 exchange, `p − √p` messages.
//!
//! **No control collective.** The root lanes are counted
//! ([`crate::redistribute::Route`]): every rank leaves the redistribution
//! knowing each update's global tuple count, so a pass whose update matrix
//! is empty on every rank is skipped without a message of its own
//! ([`StarPair::global_tuples`]). An untracked batch on one operand sends
//! `4p(√p − 1)` messages, on both `6p(√p − 1)`.
//!
//! The module is generic over an [`XYKernel`] so the identical communication
//! structure also serves the Bloom-fused variant (engine sessions that
//! maintain the filter matrix `F`), the path-counting variant (such
//! sessions over a ring, where every batch, deletions included, is
//! algebraic) and `COMPUTE_PATTERN` of Algorithm 2.
//!
//! **One batch body.** Eq. 1 covers `C = A·A` as the case `B = A`,
//! `B* = A*`, so both shapes run one body, `algebraic_batch` (on a
//! filter-tracked engine `tracked_batch`, which also lands `F` and shows the
//! batch to observers), that takes `B` as an `Option`: absent, `A` is both
//! operands and its one update matrix serves both passes. Its round schedule, `compute_cstar`, runs the Y pass
//! against the old `A`, then the local update application, then the X pass
//! against the new right operand: Y reads only `A` and `B*`, X only `A*` and
//! `B'`, so the order is legal for two operands and lets the shared shape
//! update its one stored matrix in place between the passes. Algorithm 2
//! ([`crate::dyn_general`]) runs the same schedule, and its masked recompute
//! is the X pass again, under a broadcast output mask. The one public entry
//! is [`crate::engine::DynSpGemm::apply_algebraic`]: a batch builds its
//! update matrices from one redistribution and runs the body.

use crate::distmat::{DistDcsr, DistMat, Elem};
use crate::exec::Exec;
use crate::grid::{block_range, Grid};
use crate::observer::{BatchDelta, Observer, PendingBatch, ViewCx};
use crate::phase;
use crate::pipeline::{await_into_phase, run_rounds};
use crate::update::{apply_add, build_star_pairs, Dedup, StarPair};
use dspgemm_mpi::Comm;
use dspgemm_sparse::local_mm::{spgemm_with, Bloom, Counted, Entry, Pattern, Payload, Plain};
use dspgemm_sparse::semiring::Semiring;
use dspgemm_sparse::workspace::KernelWorkspace;
use dspgemm_sparse::{Dcsr, Index, RowRead, RowScan, Triple};
use dspgemm_util::stats::PhaseTimer;
use std::cell::RefMut;
use std::sync::Arc;

/// A [`Payload`] the round structure can run: its entries travel between
/// ranks, and it names the session workspace its multiplies run on — so
/// every flavor reuses its scratch across rounds and batches.
pub trait XYKernel<S: Semiring>: Payload<S, Out: Elem> {
    /// What an entry of an update block carries: its value, or over a ring
    /// its change in value and in presence.
    type Star: Elem + Entry<S::Elem>;

    /// What an entry of a `B′` row carries when the unmasked X pass ships
    /// it to a round root: the value, or nothing for a kernel that never
    /// reads it.
    type Row: Elem;

    /// The payload-matching workspace of the session's [`Exec`].
    fn workspace(exec: &Exec<S>) -> RefMut<'_, KernelWorkspace<Self::Out>>;

    /// `v` as a shipped row entry.
    fn ship(v: S::Elem) -> Self::Row;

    /// Shipped rows as the kernel reads them.
    fn unship(rows: Dcsr<Self::Row>) -> Dcsr<S::Elem>;
}

/// Values only — the production algebraic path.
impl<S: Semiring> XYKernel<S> for Plain {
    type Star = S::Elem;
    type Row = S::Elem;

    fn workspace(exec: &Exec<S>) -> RefMut<'_, KernelWorkspace<S::Elem>> {
        exec.plain()
    }

    fn ship(v: S::Elem) -> S::Elem {
        v
    }

    fn unship(rows: Dcsr<S::Elem>) -> Dcsr<S::Elem> {
        rows
    }
}

/// Values fused with Bloom bitfields — for engine sessions maintaining `F`.
impl<S: Semiring> XYKernel<S> for Bloom {
    type Star = S::Elem;
    type Row = S::Elem;

    fn workspace(exec: &Exec<S>) -> RefMut<'_, KernelWorkspace<(S::Elem, u64)>> {
        exec.fused()
    }

    fn ship(v: S::Elem) -> S::Elem {
        v
    }

    fn unship(rows: Dcsr<S::Elem>) -> Dcsr<S::Elem> {
        rows
    }
}

/// Structure + Bloom bits only — `COMPUTE_PATTERN` of Algorithm 2. Its rows
/// ship columns alone; [`Pattern::term`] never reads the zero the receiver
/// fills in.
impl<S: Semiring> XYKernel<S> for Pattern {
    type Star = S::Elem;
    type Row = ();

    fn workspace(exec: &Exec<S>) -> RefMut<'_, KernelWorkspace<u64>> {
        exec.pattern()
    }

    fn ship(_v: S::Elem) {}

    fn unship(rows: Dcsr<()>) -> Dcsr<S::Elem> {
        rows.map(|()| S::zero())
    }
}

/// Values fused with path counts — for engines over a ring
/// ([`crate::ring`]): an update block carries each entry's change in value
/// and in presence, and a product entry its change in value and in count.
impl<S: Semiring> XYKernel<S> for Counted {
    type Star = (S::Elem, i8);
    type Row = S::Elem;

    fn workspace(exec: &Exec<S>) -> RefMut<'_, KernelWorkspace<(S::Elem, u64)>> {
        exec.fused()
    }

    fn ship(v: S::Elem) -> S::Elem {
        v
    }

    fn unship(rows: Dcsr<S::Elem>) -> Dcsr<S::Elem> {
        rows
    }
}

/// A payload that tracks `F` beside `C`: what an Algorithm-1 batch of a
/// filter-tracked engine carries beside each value, and how its `C*` lands.
pub(crate) trait Tracked<S: Semiring>: XYKernel<S, Out = (S::Elem, u64)> {
    /// `C += C*`, and `F` in step with it.
    fn land(c: &mut DistMat<S::Elem>, f: &mut DistMat<u64>, cstar: &Dcsr<(S::Elem, u64)>);
}

impl<S: Semiring> Tracked<S> for Bloom {
    fn land(c: &mut DistMat<S::Elem>, f: &mut DistMat<u64>, cstar: &Dcsr<(S::Elem, u64)>) {
        add_cstar_tracked::<S>(c, f, cstar);
    }
}

impl<S: Semiring> Tracked<S> for Counted {
    fn land(c: &mut DistMat<S::Elem>, f: &mut DistMat<u64>, cstar: &Dcsr<(S::Elem, u64)>) {
        add_cstar_counted::<S>(c, f, cstar);
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

    /// The natural update matrix (what `A += A*` applies).
    pub fn natural(&self) -> &DistDcsr<V> {
        &self.pair().natural
    }
}

/// Builds both blocks of the update matrix of every stored operand under
/// [`phase::SCATTER`]: two lanes of one redistribution per operand — four
/// for `C = A·B`, two for `C = A·A` (`b` absent, `b_tuples` ignored). Update
/// matrices take the shape of the matrix they patch. Collective.
pub(crate) fn build_star_operands<S: Semiring>(
    grid: &Grid,
    a: &DistMat<S::Elem>,
    b: Option<&DistMat<S::Elem>>,
    a_tuples: Vec<Triple<S::Elem>>,
    b_tuples: Vec<Triple<S::Elem>>,
    timer: &mut PhaseTimer,
) -> (StarPair<S::Elem>, Option<StarPair<S::Elem>>) {
    timer.time(phase::SCATTER, || {
        let shape = |m: &DistMat<S::Elem>| (m.info().nrows, m.info().ncols);
        let mut operands = vec![(shape(a), a_tuples)];
        operands.extend(b.map(|b| (shape(b), b_tuples)));
        let built = build_star_pairs::<S>(grid, operands, Dedup::Add, &mut PhaseTimer::new());
        let mut built = built.into_iter();
        (built.next().expect("A's update matrix"), built.next())
    })
}

/// An operand's built update, as the round schedule consumes it.
pub(crate) trait Update<S: Semiring> {
    /// What an entry of the round root's block carries.
    type Star: Elem;

    /// The block this rank broadcasts as a round root (`M*_{j,i}` at rank
    /// `(i, j)`, Section V-C), or `None` when the update is empty on every
    /// rank — decided from the global tuple count its redistribution
    /// delivered, so all ranks agree.
    fn root(&self) -> Option<&Arc<Dcsr<Self::Star>>>;

    /// Turns this rank's block of the operand into its updated form.
    fn apply(&self, m: &mut DistMat<S::Elem>);
}

/// Algorithm 1's update: `M += M*`.
impl<S: Semiring> Update<S> for StarPair<S::Elem> {
    type Star = S::Elem;

    fn root(&self) -> Option<&Arc<Dcsr<S::Elem>>> {
        (self.global_tuples != 0).then_some(&self.root)
    }

    fn apply(&self, m: &mut DistMat<S::Elem>) {
        apply_add::<S>(m, &self.natural);
    }
}

/// The operands of one `C*` computation, each beside its built update: `A`,
/// and `B` unless `A` is both operands (`C = A·A`), when `A`'s one update
/// serves both passes.
pub(crate) struct Operands<'m, V: Elem, U> {
    a: (&'m mut DistMat<V>, &'m U),
    b: Option<(&'m mut DistMat<V>, &'m U)>,
}

impl<'m, V: Elem, U> Operands<'m, V, U> {
    /// Pairs `A` and, when present, `B` with their updates.
    ///
    /// # Panics
    /// Panics if only one of `b` and `b_upd` is present.
    pub(crate) fn new(
        a: &'m mut DistMat<V>,
        a_upd: &'m U,
        b: Option<&'m mut DistMat<V>>,
        b_upd: Option<&'m U>,
    ) -> Self {
        assert_eq!(b.is_some(), b_upd.is_some(), "B comes with its update");
        Self {
            a: (a, a_upd),
            b: b.zip(b_upd),
        }
    }

    /// The left operand `A`.
    pub(crate) fn left(&self) -> &DistMat<V> {
        self.a.0
    }

    /// The right operand: `B`, or `A` again in the shared shape.
    pub(crate) fn right(&self) -> &DistMat<V> {
        self.b.as_ref().map_or(self.a.0, |(b, _)| b)
    }
}

/// The broadcast payloads of the X and Y passes.
type Payloads<V> = (Option<Arc<Dcsr<V>>>, Option<Arc<Dcsr<V>>>);

/// Step 1 of [`compute_cstar`]: the round roots' broadcast payloads, as
/// the batch built them. A globally empty update matrix
/// contributes nothing to Eq. 1, so its pass gets no payload and is skipped
/// whole ([`Update::root`]): every rank knows the global tuple count from
/// the redistribution, so the skip costs no message. This is the common
/// case in the paper's Fig. 9 protocol, where `B` is static.
fn star_payloads<S: Semiring, U: Update<S>>(a: &U, b: Option<&U>) -> Payloads<U::Star> {
    let x_star = a.root().cloned();
    match b {
        Some(b) => (x_star, b.root().cloned()),
        // One block serves both passes: rank (i,j) holds A*_{j,i}, the X
        // payload of row i and the Y payload of column j.
        None => (x_star.clone(), x_star),
    }
}

/// The X pass: in round `k`, row-comm member `k` broadcasts `star`
/// (`A*_{k,i}` over process row `i`) and the round's products
/// `Xⁱ_{k,j} = A*_{k,i}·right_{i,j}` are summed onto `(k,j)`. Unmasked,
/// every rank ships the round root its operands ([`ship_operands`]), and
/// each root multiplies and sums its round's pieces after the last round
/// ([`sum_products`]), so no rank's sends wait behind the products of the
/// round it roots. With `mask`, col-comm member `k` also broadcasts its
/// mask block, every rank multiplies, keeping only the masked positions,
/// and the partials merge-reduce over process column `j` onto `(k,j)` —
/// Algorithm 2's recompute, whose mask bounds the partials. Pipelined:
/// round `k + 1`'s broadcasts are in flight while round `k` works (the
/// progress engine forwards their tree edges even while ranks are blocked
/// inside the collectives). Returns this rank's summed block. Collective.
pub(crate) fn x_pass<S: Semiring, K: XYKernel<S>>(
    grid: &Grid,
    star: &Arc<Dcsr<K::Star>>,
    right: &DistMat<S::Elem>,
    mask: Option<&Arc<Dcsr<()>>>,
    exec: &Exec<S>,
    timer: &mut PhaseTimer,
    flops: &mut u64,
) -> Option<Dcsr<K::Out>> {
    let (i, j) = grid.coords();
    let k_offset = right.info().row_range.start;
    let (mut mine, mut pieces) = (None, None);
    run_rounds(
        &mut (&mut *timer, &mut *flops, &mut mine, &mut pieces),
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
        |(timer, flops, mine, pieces), k, (star, mask)| {
            let Some(mask) = mask else {
                let got = ship_operands::<S, K>(grid, k, star, right, timer);
                if got.is_some() {
                    **pieces = got;
                }
                return;
            };
            let part = timer.time(phase::LOCAL_MULT, || {
                let ws = &mut K::workspace(exec);
                spgemm_with::<S, K, _, _, _>(&*star, right.block(), &*mask, k_offset, ws)
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
    pieces
        .map(|pieces| sum_products::<S, K>(i, pieces, right, exec, timer, flops))
        .or(mine)
}

/// What a rank ships to a round root of the unmasked X pass: the star block
/// it received, and the `B'` rows the star's columns select.
type Piece<V, R> = (Arc<Dcsr<V>>, Dcsr<R>);

/// Round `k` of the unmasked X pass: rank `(i,j)` gathers to `(k,j)`, over
/// process column `j`, its `star` (`A*_{k,i}`) and the rows of
/// `right_{i,j}` that the star's columns select
/// ([`DhbMatrix::select_rows`], values as the kernel ships them). These
/// operands are the size of the update; the partial products they make,
/// on edge-sampled updates, about twice that: the star's columns repeat hub
/// vertices, and the products hardly merge. Returns the round's pieces,
/// one per process row, at the root; `None` elsewhere. Collective over the
/// column.
///
/// [`DhbMatrix::select_rows`]: dspgemm_sparse::DhbMatrix::select_rows
fn ship_operands<S: Semiring, K: XYKernel<S>>(
    grid: &Grid,
    k: usize,
    star: Arc<Dcsr<K::Star>>,
    right: &DistMat<S::Elem>,
    timer: &mut PhaseTimer,
) -> Option<Vec<Piece<K::Star, K::Row>>> {
    let block = right.block();
    let rows = if grid.coords().0 == k {
        // The root's own value is not sent, and it multiplies against its
        // block: an empty one stands in.
        Dcsr::empty(block.nrows(), block.ncols())
    } else {
        timer.time(phase::LOCAL_MULT, || {
            let mut inner: Vec<Index> = star
                .iter_rows()
                .flat_map(|(_, cols, _)| cols)
                .copied()
                .collect();
            inner.sort_unstable();
            inner.dedup();
            block.select_rows(&inner, K::ship)
        })
    };
    timer.time(phase::REDUCE_SCATTER, || {
        grid.col_comm().gather(k, (star, rows))
    })
}

/// `Σ_i A*_{k,i}·right_{i,j}` at the root `(k,j)` of round `k`, from the
/// [`ship_operands`] pieces: its own against its block, every other as its
/// sender would have multiplied it, with the first global row of the
/// sender's block of `right` as the Bloom offset. The partials fold in the
/// bracket order of the merge-reduction this replaces
/// ([`Comm::fold_in_reduce_order`]), so the block, its flops and the
/// message count are the reduction's; only the bytes fall.
///
/// [`Comm::fold_in_reduce_order`]: dspgemm_mpi::Comm::fold_in_reduce_order
fn sum_products<S: Semiring, K: XYKernel<S>>(
    k: usize,
    pieces: Vec<Piece<K::Star, K::Row>>,
    right: &DistMat<S::Elem>,
    exec: &Exec<S>,
    timer: &mut PhaseTimer,
    flops: &mut u64,
) -> Dcsr<K::Out> {
    let (n, q) = (right.info().nrows, pieces.len());
    let parts = pieces.into_iter().enumerate().map(|(i, (star, rows))| {
        let k_offset = block_range(n, q, i).start;
        if i == k {
            return multiply::<S, K>(&star, right.block(), k_offset, exec, timer, flops);
        }
        let rows = K::unship(rows);
        multiply::<S, K>(&star, &rows.row_reader(), k_offset, exec, timer, flops)
    });
    let parts = parts.collect();
    timer.time(phase::REDUCE_SCATTER, || {
        Comm::fold_in_reduce_order(parts, k, |a, b| Dcsr::merge_with(&a, &b, K::merge))
    })
}

/// `star · b` on the payload's workspace, under [`phase::LOCAL_MULT`], with
/// `k_offset` the global row of `b`'s first row; adds its flops to `flops`.
fn multiply<S: Semiring, K: XYKernel<S>>(
    star: &Dcsr<K::Star>,
    b: &impl RowRead<S::Elem>,
    k_offset: Index,
    exec: &Exec<S>,
    timer: &mut PhaseTimer,
    flops: &mut u64,
) -> Dcsr<K::Out> {
    let part = timer.time(phase::LOCAL_MULT, || {
        spgemm_with::<S, K, _, _, _>(star, b, &(), k_offset, &mut K::workspace(exec))
    });
    *flops += part.flops;
    part.result
}

/// The Y pass, the X pass mirrored: in round `k`, col-comm member `k`
/// broadcasts `star` (`B*_{j,k}` over process column `j`), every rank
/// multiplies `Yʲ_{i,k} = left_{i,j}·B*_{j,k}` and the partials
/// merge-reduce over process row `i` onto `(i,k)`. Pipelined like
/// [`x_pass`]. Returns this rank's reduced block. Collective.
fn y_pass<S: Semiring, K: XYKernel<S>>(
    grid: &Grid,
    left: &DistMat<S::Elem>,
    star: &Arc<Dcsr<K::Star>>,
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
/// count — the one round schedule of both algorithms and both shapes.
/// Collective over the grid.
///
/// 1. The round roots take their broadcast payloads ([`star_payloads`]).
/// 2. The Y pass against the old `A`.
/// 3. Each operand takes its update in place ([`Update::apply`]), under
///    [`phase::LOCAL_UPDATE`].
/// 4. The X pass against the new right operand `B'` (`A'` when shared).
/// 5. The X and Y partials merge, X first.
pub(crate) fn compute_cstar<S: Semiring, K: XYKernel<S>, U: Update<S, Star = K::Star>>(
    grid: &Grid,
    ops: &mut Operands<'_, S::Elem, U>,
    exec: &Exec<S>,
    timer: &mut PhaseTimer,
) -> (Dcsr<K::Out>, u64) {
    let (x_star, y_star) = star_payloads(ops.a.1, ops.b.as_ref().map(|&(_, upd)| upd));
    let mut flops = 0u64;
    let y =
        y_star.and_then(|star| y_pass::<S, K>(grid, ops.left(), &star, exec, timer, &mut flops));
    timer.time(phase::LOCAL_UPDATE, || {
        ops.a.1.apply(ops.a.0);
        if let Some((b, upd)) = &mut ops.b {
            upd.apply(b);
        }
    });
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

/// [`add_cstar`] for a ring's counted batch: `C*` carries `(value delta,
/// count delta)` pairs, `C` takes the first and `F`'s path count the
/// second, and an entry whose count reaches zero leaves both — the entry a
/// static recompute does not have. `F` is never published, so it takes no
/// pattern.
pub(crate) fn add_cstar_counted<S: Semiring>(
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
        for (&cc, &(v, n)) in cols.iter().zip(vals) {
            let paths = f_block.get(r, cc).unwrap_or(0).wrapping_add(n);
            if paths == 0 {
                let left = S::add(c_block.remove(r, cc).unwrap_or(S::zero()), v);
                debug_assert!(S::is_zero(left), "a pathless entry keeps a value");
                f_block.remove(r, cc);
            } else {
                c_block.add_entry::<S>(r, cc, v);
                f_block.set(r, cc, paths);
            }
        }
    });
}

/// Algorithm 1, one batch of either shape: runs the Y pass, applies the
/// update in place (`A += A*`, and `B += B*`), runs the X pass and adds `C*`
/// into `C` — `C = A·B`, or `C = A·A` when `b` is `None` and `A`'s update
/// serves both passes. Returns the local flop count and the entries of this
/// rank's `C*` block. Collective.
#[allow(clippy::too_many_arguments)]
pub(crate) fn algebraic_batch<S: Semiring>(
    grid: &Grid,
    a: &mut DistMat<S::Elem>,
    b: Option<&mut DistMat<S::Elem>>,
    c: &mut DistMat<S::Elem>,
    a_star: &StarPair<S::Elem>,
    b_star: Option<&StarPair<S::Elem>>,
    exec: &Exec<S>,
    timer: &mut PhaseTimer,
) -> (u64, u64) {
    let mut ops = Operands::new(a, a_star, b, b_star);
    let (cstar, flops) = compute_cstar::<S, Plain, _>(grid, &mut ops, exec, timer);
    timer.time(phase::LOCAL_UPDATE, || add_cstar::<S>(c, &cstar));
    (flops, cstar.nnz() as u64)
}

/// [`algebraic_batch`] on a filter-tracked engine: the payload `K` carries
/// beside each value the Bloom bits of its inner indices ([`Bloom`], which
/// Algorithm 2 reads later) or, over a ring, its path count ([`Counted`],
/// whose updates carry each entry's change and arrive at the round roots
/// from [`crate::ring`]), and lands `C*` in `C` and `F` ([`Tracked`]). The
/// communication structure is the same for both. With `star`, this rank's
/// block of `A' − A`, `obs` sees the update before it is applied and this
/// rank's `C*` after; without it no observer watches. Returns the local flop
/// count and the entries of this rank's `C*` block. Collective.
#[allow(clippy::too_many_arguments)]
pub(crate) fn tracked_batch<S: Semiring, K: Tracked<S>, U: Update<S, Star = K::Star>>(
    grid: &Grid,
    a: &mut DistMat<S::Elem>,
    b: Option<&mut DistMat<S::Elem>>,
    c: &mut DistMat<S::Elem>,
    f: &mut DistMat<u64>,
    a_upd: &U,
    b_upd: Option<&U>,
    star: Option<&DistDcsr<S::Elem>>,
    obs: &mut impl Observer<S>,
    exec: &Exec<S>,
    timer: &mut PhaseTimer,
) -> (u64, u64) {
    let mut ops = Operands::new(a, a_upd, b, b_upd);
    if let Some(star) = star {
        let a = ops.left();
        obs.pre_batch(&ViewCx { grid, a, c }, &PendingBatch::Algebraic { star });
    }
    let (cstar, flops) = compute_cstar::<S, K, _>(grid, &mut ops, exec, timer);
    timer.time(phase::LOCAL_UPDATE, || K::land(c, f, &cstar));
    if let Some(star) = star {
        let (a, cstar) = (ops.left(), &cstar);
        obs.post_batch(
            &ViewCx { grid, a, c },
            &BatchDelta::Algebraic { star, cstar },
        );
    }
    (flops, cstar.nnz() as u64)
}

/// [`DynSpGemm::apply_algebraic`](crate::engine::DynSpGemm::apply_algebraic)'s
/// batch body on loose, pre-built [`StarBuild`]s, without a filter matrix.
/// Adapter-frozen: `benchmark/src/api.rs` names it; nothing in the
/// workspace does.
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
    let (a_star, b_star) = (a_star.pair(), Some(b_star.pair()));
    algebraic_batch::<S>(grid, a, Some(b), c, a_star, b_star, exec, timer).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dyn_general::GeneralUpdates;
    use crate::engine::DynSpGemm;
    use crate::observer::tests::DeltaLog;
    use crate::report::BatchReport;
    use crate::summa::summa;
    use crate::update::apply_add;
    use dspgemm_mpi::run;
    use dspgemm_sparse::dense::Dense;
    use dspgemm_sparse::semiring::{MinPlus, U64Plus};
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
            let a = DistMat::from_global_triples(&grid, n, n, feed(1, 80), 1, &mut timer);
            let b = DistMat::from_global_triples(&grid, n, n, feed(2, 80), 1, &mut timer);
            let mut eng = DynSpGemm::<U64Plus>::new(&grid, a, b, 1, false);
            for round in 0..batches as u64 {
                // Every rank contributes its own update tuples.
                let a_ups = random_triples(100 + round * 7 + comm.rank() as u64, n, a_count);
                let b_ups = random_triples(500 + round * 7 + comm.rank() as u64, n, b_count);
                eng.apply_algebraic(&grid, a_ups, b_ups);
            }
            let (a, b, c) = (&eng.a, &eng.b, &eng.c);
            // Static recomputation from the final A', B'.
            let (c_static, _) = summa::<U64Plus>(&grid, a, b, 1, &mut timer);
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

    /// `t` with its values as `S` holds them.
    fn lifted<S: Semiring>(t: Vec<Triple<u64>>, lift: fn(u64) -> S::Elem) -> Vec<Triple<S::Elem>> {
        t.into_iter()
            .map(|t| Triple::new(t.row, t.col, lift(t.val)))
            .collect()
    }

    /// A tracked engine's algebraic batch leaves `C` as an untracked one's
    /// and `F` over `C`'s pattern.
    fn check_tracked_matches_plain<S: Semiring>(lift: fn(u64) -> S::Elem) {
        let n: Index = 20;
        let out = run(4, move |comm| {
            let grid = Grid::new(comm);
            let mut timer = PhaseTimer::new();
            let feed = |s: u64| {
                if comm.rank() == 0 {
                    lifted::<S>(random_triples(s, n, 60), lift)
                } else {
                    vec![]
                }
            };
            let a = DistMat::from_global_triples(&grid, n, n, feed(11), 1, &mut timer);
            let b = DistMat::from_global_triples(&grid, n, n, feed(12), 1, &mut timer);
            let mut tracked = DynSpGemm::<S>::new(&grid, a.clone(), b.clone(), 1, true);
            let mut plain = DynSpGemm::<S>::new(&grid, a, b, 1, false);
            let a_ups = lifted::<S>(random_triples(31 + comm.rank() as u64, n, 10), lift);
            let b_ups = lifted::<S>(random_triples(41 + comm.rank() as u64, n, 10), lift);
            tracked.apply_algebraic(&grid, a_ups.clone(), b_ups.clone());
            plain.apply_algebraic(&grid, a_ups, b_ups);
            let (c, f, c2) = (&tracked.c, tracked.f.as_ref().unwrap(), &plain.c);
            // C identical either way; F's pattern is C's.
            let same_c = c.gather_to_root(comm) == c2.gather_to_root(comm);
            let f_keys = f.to_global_triples().into_iter().map(|t| (t.row, t.col));
            let c_keys = c.to_global_triples().into_iter().map(|t| (t.row, t.col));
            (same_c, c_keys.eq(f_keys))
        });
        assert!(
            out.results.iter().all(|&(s, c)| s && c),
            "{}: {:?}",
            S::name(),
            out.results
        );
    }

    /// Over `U64Plus` the tracked batch counts paths, over `MinPlus` it
    /// fills Bloom bits.
    #[test]
    fn tracked_variant_matches_plain_and_fills_f() {
        check_tracked_matches_plain::<U64Plus>(|x| x);
        check_tracked_matches_plain::<MinPlus>(|x| x as f64);
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
            let a = DistMat::from_global_triples(&grid, n, n, t, 1, &mut timer);
            let mut eng = DynSpGemm::<U64Plus>::new(&grid, a.clone(), a, 1, false);
            let before = eng.c.gather_to_root(comm);
            eng.apply_algebraic(&grid, vec![], vec![]);
            let c = &eng.c;
            before == c.gather_to_root(comm)
        });
        assert!(out.results.iter().all(|&x| x));
    }

    /// Whether a pass runs follows the global tuple count that rides the
    /// redistribution, at p ∈ {1, 4, 9}: a batch whose `A` tuples all come
    /// from one rank runs the X pass everywhere; a batch empty on both
    /// operands sends only its redistribution and leaves `C`'s block and
    /// published image shared; and `+1.0` and `−1.0` at one coordinate,
    /// which fold to a stored zero, still run the X pass. Each leaves `C`
    /// equal to a static recompute of the updated operands.
    #[test]
    fn passes_follow_the_global_tuple_count() {
        use dspgemm_sparse::semiring::F64Plus;
        let n: Index = 24;
        for p in [1usize, 4, 9] {
            let out = run(p, move |comm| {
                let grid = Grid::new(comm);
                let mut timer = PhaseTimer::new();
                let (rank, last) = (comm.rank(), comm.size() - 1);
                let feed = |seed: u64, count: usize| -> Vec<Triple<f64>> {
                    let t = random_triples(seed, n, count);
                    t.iter()
                        .map(|t| Triple::new(t.row, t.col, t.val as f64))
                        .collect()
                };
                let a = DistMat::from_global_triples(&grid, n, n, feed(1, 80), 1, &mut timer);
                let b = DistMat::from_global_triples(&grid, n, n, feed(2, 80), 1, &mut timer);
                let mut eng = DynSpGemm::<F64Plus>::new(&grid, a, b, 1, false);
                let matches_static = |eng: &DynSpGemm<F64Plus>, timer: &mut PhaseTimer| {
                    let (c_static, _) = summa::<F64Plus>(&grid, &eng.a, &eng.b, 1, timer);
                    let dense = |m: &DistMat<f64>| {
                        m.gather_to_root(comm)
                            .map(|t| Dense::from_triples::<F64Plus>(n, n, &t))
                    };
                    let (got, want) = (dense(&eng.c), dense(&c_static));
                    got.zip(want)
                        .is_none_or(|(got, want)| got.diff(&want).is_empty())
                };
                let mut sent = Vec::new();
                // (1) One rank submits every `A` tuple.
                let ups = if rank == last { feed(3, 30) } else { vec![] };
                sent.push(eng.apply_algebraic(&grid, ups, vec![]).sent_msgs());
                let one_feeder = matches_static(&eng, &mut timer);
                // (2) Empty on both operands.
                let before = eng.publish();
                sent.push(eng.apply_algebraic(&grid, vec![], vec![]).sent_msgs());
                let after = eng.publish();
                let shared = before.c().block_ptr() == after.c().block_ptr()
                    && before.a().block_ptr() == after.a().block_ptr();
                // (3) Duplicates that cancel to a stored zero.
                let cancel = match rank {
                    0 => vec![Triple::new(5, 7, 1.0)],
                    _ => vec![],
                };
                let cancel = if rank == last {
                    [cancel, vec![Triple::new(5, 7, -1.0)]].concat()
                } else {
                    cancel
                };
                sent.push(eng.apply_algebraic(&grid, cancel, vec![]).sent_msgs());
                let cancelled = matches_static(&eng, &mut timer);
                (sent, one_feeder && cancelled, shared)
            });
            let q = (p as f64).sqrt() as u64;
            let exchange = 2 * p as u64 * (q - 1);
            let total = |batch: usize| out.results.iter().map(|(s, ..)| s[batch]).sum::<u64>();
            assert_eq!(total(0), 2 * exchange, "p={p}: one feeder runs the X pass");
            assert_eq!(
                total(1),
                exchange,
                "p={p}: an empty batch only redistributes"
            );
            assert_eq!(
                total(2),
                2 * exchange,
                "p={p}: a cancelled tuple runs the X pass"
            );
            for (_, equal, shared) in &out.results {
                assert!(equal, "p={p}: C differs from the static recompute");
                assert!(shared, "p={p}: an empty batch republished C");
            }
        }
    }

    /// One batch body per algorithm: a shared-mode engine maintaining
    /// `C = A·A` and a pair engine on clones (`B = A`, every batch's `B` side
    /// equal to its `A` side) agree bit for bit on `A`, `C` and `F` through
    /// algebraic and general batches, and their reports name the same stages.
    fn check_shared_matches_cloned<S: Semiring>(lift: fn(u64) -> S::Elem) {
        let n: Index = 22;
        for p in [1usize, 4, 9] {
            let out = run(p, move |comm| {
                let grid = Grid::new(comm);
                let mut timer = PhaseTimer::new();
                let t = if comm.rank() == 0 {
                    lifted::<S>(random_triples(7, n, 70), lift)
                } else {
                    vec![]
                };
                let a = DistMat::from_global_triples(&grid, n, n, t, 1, &mut timer);
                let mut pair = DynSpGemm::<S>::new(&grid, a.clone(), a.clone(), 1, true);
                let mut eng = DynSpGemm::<S, DeltaLog>::shared(&grid, a, DeltaLog::default());
                let rank = comm.rank() as u64;
                let stages = |r: &BatchReport| {
                    r.stages
                        .entries()
                        .iter()
                        .map(|&(n, _)| n)
                        .collect::<Vec<_>>()
                };
                for round in 0..3u64 {
                    let ups = lifted::<S>(random_triples(40 + round + rank, n, 9), lift);
                    let flops = eng.flops;
                    let shared = eng.apply_algebraic(&grid, ups.clone(), vec![]);
                    let cstar_nnz = *eng.observer().0.last().expect("one delta per batch");
                    assert!(cstar_nnz == 0 || eng.flops > flops);
                    let cloned = pair.apply_algebraic(&grid, ups.clone(), ups);
                    assert_eq!(stages(&shared), stages(&cloned), "p={p}: algebraic stages");
                    // Deletes of entries this rank holds, and sets.
                    let held = eng.a.to_global_triples();
                    let upd = GeneralUpdates {
                        sets: lifted::<S>(random_triples(70 + round + rank, n, 5), lift),
                        deletes: held.iter().step_by(4).map(|t| (t.row, t.col)).collect(),
                    };
                    let shared = eng.apply_general(&grid, upd.clone(), GeneralUpdates::new());
                    let cloned = pair.apply_general(&grid, upd.clone(), upd);
                    assert_eq!(stages(&shared), stages(&cloned), "p={p}: general stages");
                }
                let (f, f2) = (eng.f.as_ref().unwrap(), pair.f.as_ref().unwrap());
                (
                    eng.a.gather_to_root(comm) == pair.a.gather_to_root(comm),
                    eng.c.gather_to_root(comm) == pair.c.gather_to_root(comm),
                    f.gather_to_root(comm) == f2.gather_to_root(comm),
                )
            });
            for (a_eq, c_eq, f_eq) in out.results {
                let name = S::name();
                assert!(
                    a_eq && c_eq && f_eq,
                    "{name} p={p}: A {a_eq}, C {c_eq}, F {f_eq}"
                );
            }
        }
    }

    /// Both paths: Algorithm 1 for every batch over the ring `U64Plus`;
    /// Algorithm 1 and Algorithm 2 over `MinPlus`.
    #[test]
    fn shared_operand_matches_cloned_operands() {
        check_shared_matches_cloned::<U64Plus>(|x| x);
        check_shared_matches_cloned::<MinPlus>(|x| x as f64);
    }

    /// The shared arm maintains C identically and fills F over C's pattern.
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
            let a = DistMat::from_global_triples(&grid, n, n, t, 1, &mut timer);
            let mut eng = DynSpGemm::<U64Plus>::shared(&grid, a, ());
            let ups = random_triples(61 + comm.rank() as u64, n, 12);
            eng.apply_algebraic(&grid, ups, vec![]);
            // Invariant C = A·A against static recomputation; F covers C.
            let (c_static, _) = summa::<U64Plus>(&grid, &eng.a, &eng.a, 1, &mut timer);
            let f_keys: std::collections::BTreeSet<_> = eng
                .f
                .as_ref()
                .expect("shared mode tracks F")
                .to_global_triples()
                .iter()
                .map(|t| (t.row, t.col))
                .collect();
            let covers = eng
                .c
                .to_global_triples()
                .iter()
                .all(|t| f_keys.contains(&(t.row, t.col)));
            (
                eng.c.gather_to_root(comm) == c_static.gather_to_root(comm),
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
            let a = DistMat::from_global_triples(&grid, n, n, t.clone(), 1, &mut timer);
            let b = DistMat::from_global_triples(&grid, n, n, t, 1, &mut timer);
            let mut eng = DynSpGemm::<U64Plus>::new(&grid, a, b, 1, false);
            let ups = random_triples(77 + comm.rank() as u64, n, batch);
            eng.apply_algebraic(&grid, ups, vec![]);
            let c = &eng.c;
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
