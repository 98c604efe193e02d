//! Rings count paths: in a ring, a deletion is an algebraic update.
//!
//! Over a semiring with an exact additive inverse ([`Semiring::NEG`]) a
//! delete is the update `−old` and a re-weight `new − old`, so a
//! filter-tracked engine runs both batch kinds through Algorithm 1's one
//! body with the [`Counted`](dspgemm_sparse::local_mm::Counted) payload, and
//! `F` counts the products that sum to each entry of `C` (the counting
//! algorithm of incremental view maintenance); an entry leaves `C` when its
//! count reaches zero. DESIGN.md, "Rings count paths", has the whole
//! mechanism.
//!
//! This module builds such a batch's updates (`build_ring_operands`): one
//! redistribution of counted natural lanes; at each owner the per-entry
//! difference `(new − old, Δpresence)` against the old block; and one
//! `sendrecv` to the transposed rank that hands each round root its block
//! of it — the paper's step-1 exchange, `p − √p` messages. The update
//! applies in the round schedule, as any batch's does, in one pass over
//! that difference.

use crate::distmat::{DistDcsr, DistMat, Elem};
use crate::dyn_algebraic::Update;
use crate::engine::Batch;
use crate::grid::Grid;
use crate::phase;
use crate::update::{build_update_matrices, Built, Dedup, Lane};
use dspgemm_sparse::semiring::Semiring;
use dspgemm_sparse::{Dcsr, RowScan, Triple};
use dspgemm_util::stats::PhaseTimer;
use std::sync::Arc;

/// The tag of a ring batch's one point-to-point exchange: every operand's
/// difference block to the grid-transposed rank.
const TAG_STAR: u64 = 101;

/// A block of an operand's difference: `(new − old, Δpresence)` per entry.
type Diff<V> = Arc<Dcsr<(V, i8)>>;

/// One operand's update in a ring engine: the difference the batch makes to
/// its block, as this rank and its round root need it. The difference is the
/// whole update: applying it adds `new − old` where the entry stays or
/// arrives and removes it where it leaves.
pub(crate) struct RingUpdate<V> {
    /// This rank's block of the difference: `(new − old, Δpresence)` at
    /// every position whose value or presence the batch moves.
    diff: Diff<V>,
    /// The block this rank broadcasts as a round root: the transposed
    /// rank's difference. `None` when the update is empty on every rank.
    root: Option<Diff<V>>,
    /// How many positions the batch named on this rank.
    pub(crate) named: u64,
}

impl<V: Elem> RingUpdate<V> {
    /// The difference's values alone, on `m`'s block split: `A' − A` as an
    /// observer reads it.
    pub(crate) fn values(&self, grid: &Grid, m: &DistMat<V>) -> DistDcsr<V> {
        let (rows, cols) = (m.info().nrows, m.info().ncols);
        DistDcsr::from_block(grid, rows, cols, self.diff.map(|(v, _)| v))
    }
}

impl<S: Semiring> Update<S> for RingUpdate<S::Elem> {
    type Star = (S::Elem, i8);

    fn root(&self) -> Option<&Diff<S::Elem>> {
        self.root.as_ref()
    }

    fn apply(&self, m: &mut DistMat<S::Elem>) {
        if self.diff.nnz() == 0 {
            // Nothing moves here: the block and its published image stay
            // shared.
            return;
        }
        let block = m.block_mut_touching(&*self.diff);
        self.diff.scan_rows(|r, cols, vals| {
            block.update_row(r, |row| {
                for (&c, &(dv, dn)) in cols.iter().zip(vals) {
                    if dn < 0 {
                        row.remove(c);
                    } else {
                        row.combine(c, dv, S::add);
                    }
                }
            });
        });
    }
}

/// Builds the update of every stored operand of a ring batch — `A`'s, and
/// `B`'s unless `b` is absent (`C = A·A`) — from one redistribution of
/// counted natural lanes (an algebraic batch's `A*`, or a general batch's
/// sets and deletes, per operand), under [`phase::SCATTER`], and one
/// exchange of the difference blocks, under [`phase::SEND_RECV`].
/// Collective over the grid.
///
/// # Panics
/// Panics on a [`Batch::Recompute`], which carries no update.
pub(crate) fn build_ring_operands<S: Semiring>(
    grid: &Grid,
    a: &DistMat<S::Elem>,
    b: Option<&DistMat<S::Elem>>,
    batch: Batch<S::Elem>,
    timer: &mut PhaseTimer,
) -> (RingUpdate<S::Elem>, Option<RingUpdate<S::Elem>>) {
    let mats: Vec<&DistMat<S::Elem>> = std::iter::once(a).chain(b).collect();
    let shape = |m: &DistMat<S::Elem>| (m.info().nrows, m.info().ncols);
    let mut lanes = Vec::with_capacity(2 * mats.len());
    let general = matches!(batch, Batch::General(..));
    match batch {
        Batch::Algebraic(a_ups, b_ups) => {
            for (m, tuples) in mats.iter().zip([a_ups, b_ups]) {
                lanes.push(Lane::Counted(shape(m), tuples));
            }
        }
        Batch::General(a_upd, b_upd) => {
            for (m, upd) in mats.iter().zip([a_upd, b_upd]) {
                let deletes = upd
                    .deletes
                    .iter()
                    .map(|&(r, c)| Triple::new(r, c, S::zero()));
                lanes.push(Lane::Counted(shape(m), upd.sets));
                lanes.push(Lane::Counted(shape(m), deletes.collect()));
            }
        }
        Batch::Recompute => unreachable!("a recompute carries no update"),
    }
    let dedup = if general { Dedup::LastWins } else { Dedup::Add };
    let built = timer.time(phase::SCATTER, || {
        build_update_matrices::<S>(grid, lanes, dedup, &mut PhaseTimer::new())
    });
    let mut built = built.into_iter().map(Built::into_counted);
    let mut next = || built.next().expect("every operand's lanes");
    let zero = S::zero();
    // Each operand's difference against its old block, with the global
    // count of the tuples that named it.
    let diffs: Vec<_> = (mats.iter())
        .map(|m| {
            if general {
                let ((sets, writes), (deletes, dels)) = (next(), next());
                // MERGE then MASK: a position a batch both writes and
                // deletes ends absent.
                let (sets, deletes) = (sets.block().map(Some), deletes.block().map(|_| None));
                let named = Dcsr::merge_with(&sets, &deletes, |_, gone| gone);
                (difference::<S, _>(m, &named, |_, new| new), writes + dels)
            } else {
                let (star, count) = next();
                let add = |old: Option<S::Elem>, x| Some(S::add(old.unwrap_or(zero), x));
                (difference::<S, _>(m, star.block(), add), count)
            }
        })
        .collect();
    // Every rank knows which operands are empty everywhere, so all agree on
    // what the exchange carries, and skip it when nothing is left.
    let mine: Vec<_> = (diffs.iter())
        .filter(|(_, count)| *count != 0)
        .map(|((diff, _), _)| Arc::clone(diff))
        .collect();
    let peer = grid.transpose_rank();
    let roots = timer.time(phase::SEND_RECV, || {
        if mine.is_empty() || peer == grid.world().rank() {
            mine
        } else {
            grid.world().sendrecv(peer, mine, peer, TAG_STAR)
        }
    });
    let mut roots = roots.into_iter();
    let mut updates = diffs.into_iter().map(|((diff, named), count)| RingUpdate {
        diff,
        root: (count != 0).then(|| roots.next().expect("a root block per live operand")),
        named,
    });
    let a_upd = updates.next().expect("A's update");
    (a_upd, updates.next())
}

/// This rank's block of the difference a batch makes to `m` — `(new − old,
/// Δpresence)` at every position whose value or presence moves — and how
/// many positions the batch names. `named` holds what the batch names at
/// each position, and `new` turns the old entry and that into the new one.
/// Reads `m` before the batch.
fn difference<S: Semiring, W: Copy>(
    m: &DistMat<S::Elem>,
    named: &Dcsr<W>,
    new: impl Fn(Option<S::Elem>, W) -> Option<S::Elem>,
) -> (Diff<S::Elem>, u64) {
    let neg = S::NEG.expect("a ring names its additive inverse");
    let (block, zero) = (m.block(), S::zero());
    let mut out = Vec::new();
    named.scan_rows(|r, cols, vals| {
        for (&c, &w) in cols.iter().zip(vals) {
            let old = block.get(r, c);
            let new = new(old, w);
            let dv = S::add(new.unwrap_or(zero), neg(old.unwrap_or(zero)));
            let dn = i8::from(new.is_some()) - i8::from(old.is_some());
            if dn != 0 || !S::is_zero(dv) {
                out.push(Triple::new(r, c, (dv, dn)));
            }
        }
    });
    let info = m.info();
    let diff = Dcsr::from_sorted_triples(info.local_rows(), info.local_cols(), &out);
    (Arc::new(diff), named.nnz() as u64)
}
