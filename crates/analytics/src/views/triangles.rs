//! Maintained triangle counting.
//!
//! For a simple undirected graph stored as a 0/1 adjacency matrix `A` over
//! `(+, ·)`, the triangle count is `(Σ_{(u,v) ∈ A} c_{u,v}) / 6` with
//! `C = A·A` — the masked sum evaluates `tr(A³)` while every `A` entry and
//! its matching `C` entry live in the *same* local block, so the sum is
//! embarrassingly local and needs one scalar allreduce.
//!
//! The view maintains the masked sum **incrementally**: a batch that moves
//! `A` only at the positions `T` of its update block `A*` changes it by
//!
//! ```text
//! ΔS = Σ_{p ∈ (C* ∩ A') \ T} c*_p  +  Σ_{p ∈ T ∩ A'} c'_p  −  Σ_{p ∈ T ∩ A} c_p
//! ```
//!
//! — outside `T` the mask stands still and each entry moves by its `C*`
//! value delta; inside it, the new entry under the new mask replaces the old
//! one under the old. `pre_batch` sums the last term while the old `A` and
//! `C` are still observable, and all three are local over the shared `C*`
//! delta and the (hypersparse) batch: `O(nnz(C*) + batch)` work instead of
//! the `O(nnz(A))` full rescan. Every algebraic batch takes this path, and
//! over `u64` that is every batch: the ring ℤ/2⁶⁴ deletes by adding `−old`
//! (`Semiring::NEG`). The rescan is left for a general batch of a
//! semiring without an inverse, whose `C*` carries a recomputed pattern,
//! not value deltas.

use crate::view::{BatchDelta, FrozenView, PendingBatch, View, ViewCx};
use dspgemm_sparse::semiring::Semiring;
use dspgemm_sparse::RowScan;
use std::any::Any;
use std::sync::Arc;

/// The frozen reading of a [`TriangleCountView`] inside a published epoch:
/// the maintained count at publish time, immutable forever after.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TriangleReading {
    masked_sum: u64,
}

impl TriangleReading {
    /// The triangle count at the pinned epoch.
    #[inline]
    pub fn count(&self) -> u64 {
        self.masked_sum / 6
    }

    /// The raw masked sum at the pinned epoch (each triangle counted 6
    /// times).
    #[inline]
    pub fn masked_sum(&self) -> u64 {
        self.masked_sum
    }
}

/// Maintained global triangle count over a `u64`-valued session (unit edge
/// weights assumed; see the module docs).
#[derive(Debug, Default)]
pub struct TriangleCountView {
    /// Global masked sum `Σ_{(u,v) ∈ A} c_{u,v}` (agreed on all ranks).
    masked_sum: u64,
    /// This rank's `Σ_{p ∈ T ∩ A} c_p` over the pending batch's positions
    /// `T`, read before the batch is applied.
    pending_old: u64,
    /// Refreshes served by the incremental path.
    pub incremental_refreshes: u64,
    /// Refreshes that fell back to the full local rescan.
    pub full_refreshes: u64,
}

impl TriangleCountView {
    /// A fresh, unregistered view.
    pub fn new() -> Self {
        Self::default()
    }

    /// The maintained triangle count.
    #[inline]
    pub fn count(&self) -> u64 {
        self.masked_sum / 6
    }

    /// The raw maintained masked sum (each triangle counted 6 times).
    #[inline]
    pub fn masked_sum(&self) -> u64 {
        self.masked_sum
    }

    fn full_rescan<S: Semiring<Elem = u64>>(&mut self, cx: &ViewCx<'_, S>) {
        let mut local = 0u64;
        cx.a.block().scan_rows(|r, cols, _| {
            for &cc in cols {
                local = local.wrapping_add(cx.c.block().get(r, cc).unwrap_or(0));
            }
        });
        self.masked_sum = cx.grid.world().allreduce(local, u64::wrapping_add);
        self.full_refreshes += 1;
    }
}

impl<S: Semiring<Elem = u64>> View<S> for TriangleCountView {
    fn name(&self) -> &str {
        "triangle-count"
    }

    fn bootstrap(&mut self, cx: &ViewCx<'_, S>) {
        self.full_rescan(cx);
        // Bootstrap is not a refresh.
        self.full_refreshes -= 1;
    }

    fn pre_batch(&mut self, cx: &ViewCx<'_, S>, pending: &PendingBatch<'_, S>) {
        self.pending_old = 0;
        if let PendingBatch::Algebraic { star } = pending {
            // The old entries under the old mask at the batch's positions.
            star.block().scan_rows(|r, cols, _| {
                for &cc in cols {
                    if cx.a.block().get(r, cc).is_some() {
                        let c = cx.c.block().get(r, cc).unwrap_or(0);
                        self.pending_old = self.pending_old.wrapping_add(c);
                    }
                }
            });
        }
    }

    fn post_batch(&mut self, cx: &ViewCx<'_, S>, delta: &BatchDelta<'_, S>) {
        match delta {
            BatchDelta::Algebraic { star, cstar } => {
                let (a, star) = (cx.a.block(), star.block());
                let mut local = self.pending_old.wrapping_neg();
                // Outside the batch the mask stands still: each entry under
                // it moves by its value delta.
                cstar.scan_rows(|r, cols, vals| {
                    for (&cc, &(dv, _)) in cols.iter().zip(vals) {
                        if a.get(r, cc).is_some() && !star.contains(r, cc) {
                            local = local.wrapping_add(dv);
                        }
                    }
                });
                // Inside it, the new entries under the new mask.
                star.scan_rows(|r, cols, _| {
                    for &cc in cols {
                        if a.get(r, cc).is_some() {
                            local = local.wrapping_add(cx.c.block().get(r, cc).unwrap_or(0));
                        }
                    }
                });
                let total = cx.grid.world().allreduce(local, u64::wrapping_add);
                self.masked_sum = self.masked_sum.wrapping_add(total);
                self.incremental_refreshes += 1;
            }
            BatchDelta::General { .. } => {
                // A recomputed pattern carries no value deltas: recount
                // from scratch — still local work plus one allreduce.
                self.full_rescan(cx);
            }
        }
    }

    fn freeze(&mut self) -> FrozenView {
        // A `Copy` scalar: nothing worth caching.
        Arc::new(TriangleReading {
            masked_sum: self.masked_sum,
        })
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}
