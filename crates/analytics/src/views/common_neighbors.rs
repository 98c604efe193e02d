//! Maintained common-neighbor / link-prediction scores over candidate pairs.
//!
//! For an unweighted undirected graph, `(A·A)_{u,v}` is the number of common
//! neighbors of `u` and `v` — the classic link-prediction score. The view
//! tracks a *fixed candidate set* of `(u, v)` pairs (e.g. non-edges proposed
//! by a recommender) and reads every score from the session's maintained
//! product `C = A·A`: registration reads each owned candidate once, and
//! afterwards each batch re-reads only the candidates that the shared `C*`
//! delta proves changed — `O(nnz(C*))` mask probes and `O(1)` lookups, no
//! communication at all.

use crate::view::{BatchDelta, FrozenView, View, ViewCx};
use dspgemm_core::grid::{owner_block, Grid};
use dspgemm_core::reduce_topk;
use dspgemm_sparse::semiring::Semiring;
use dspgemm_sparse::{Dcsr, Index, RowScan};
use dspgemm_util::FxHashMap;
use std::any::Any;
use std::sync::Arc;

#[inline]
fn pack(u: Index, v: Index) -> u64 {
    ((u as u64) << 32) | v as u64
}

/// The frozen reading of a [`CommonNeighborsView`] inside a published
/// epoch: this rank's candidate scores at publish time, behind an `Arc`
/// shared with the view's freeze cache — pinning copies no score data. The
/// merge collectives ([`ScoreReading::top_k`]) work exactly like the live
/// view's, but against the pinned scores.
#[derive(Debug, Clone)]
pub struct ScoreReading<S: Semiring> {
    local: Arc<Vec<(Index, Index, S::Elem)>>,
}

impl<S: Semiring> ScoreReading<S> {
    /// Locally-owned candidates with a structurally non-zero score at the
    /// pinned epoch, as `(u, v, score)`.
    pub fn local_scores(&self) -> &[(Index, Index, S::Elem)] {
        &self.local
    }

    /// The `k` best-scoring candidates at the pinned epoch (same contract
    /// as [`CommonNeighborsView::top_k`]). Collective; all ranks must hold
    /// the same epoch.
    pub fn top_k(
        &self,
        grid: &Grid,
        k: usize,
        rank_of: impl Fn(&S::Elem) -> f64,
    ) -> Vec<(Index, Index, S::Elem)> {
        merge_topk::<S>(grid, self.local.iter().copied(), k, rank_of)
    }
}

/// The merge behind live and pinned `top_k`: every rank's `k` best, merged
/// at world rank 0 ([`reduce_topk`]) and broadcast back — `2·(p − 1)`
/// messages of at most `k` scores each.
fn merge_topk<S: Semiring>(
    grid: &Grid,
    mine: impl IntoIterator<Item = (Index, Index, S::Elem)>,
    k: usize,
    rank_of: impl Fn(&S::Elem) -> f64,
) -> Vec<(Index, Index, S::Elem)> {
    let order = |(ua, va, sa): &(Index, Index, S::Elem), (ub, vb, sb): &(Index, Index, S::Elem)| {
        rank_of(sb)
            .partial_cmp(&rank_of(sa))
            .unwrap_or(std::cmp::Ordering::Equal)
            .then((ua, va).cmp(&(ub, vb)))
    };
    let merged = reduce_topk(grid.world(), 0, mine, k, order);
    Arc::unwrap_or_clone(grid.world().bcast_shared(0, merged.map(Arc::new)))
}

/// Maintained `(A·A)_{u,v}` scores for a fixed, replicated candidate set.
pub struct CommonNeighborsView<S: Semiring> {
    /// The global candidate pairs (identical on every rank).
    candidates: Vec<(Index, Index)>,
    /// Block-local mask over this rank's owned candidates.
    local_mask: Dcsr<()>,
    /// Packed global pair → current score, for locally-owned candidates
    /// whose product entry is structurally present.
    scores: FxHashMap<u64, S::Elem>,
    /// Cached frozen reading, rebuilt only after the scores change — an
    /// unchanged view is re-shared into the next epoch by refcount.
    frozen: Option<FrozenView>,
}

impl<S: Semiring> CommonNeighborsView<S> {
    /// A view over the given candidate pairs. `candidates` must be identical
    /// on every rank (each rank serves the pairs its block owns).
    pub fn new(candidates: Vec<(Index, Index)>) -> Self {
        Self {
            candidates,
            local_mask: Dcsr::empty(0, 0),
            scores: FxHashMap::default(),
            frozen: None,
        }
    }

    /// The candidate set.
    pub fn candidates(&self) -> &[(Index, Index)] {
        &self.candidates
    }

    /// Locally-owned candidates with a structurally non-zero score, as
    /// `(u, v, score)` (arbitrary order).
    pub fn local_scores(&self) -> impl Iterator<Item = (Index, Index, S::Elem)> + '_ {
        self.scores
            .iter()
            .map(|(&p, &s)| ((p >> 32) as Index, (p & 0xFFFF_FFFF) as Index, s))
    }

    /// Collective point lookup of one candidate's score (`None`: the pair is
    /// not a candidate or its product entry is structurally zero). Every
    /// rank returns the same value; one single-element broadcast.
    pub fn score(&self, grid: &Grid, n: Index, u: Index, v: Index) -> Option<S::Elem> {
        let (bi, bj) = (owner_block(n, grid.q(), u).0, owner_block(n, grid.q(), v).0);
        let owner = grid.rank_of(bi, bj);
        let mine = if grid.world().rank() == owner {
            Some(self.scores.get(&pack(u, v)).copied())
        } else {
            None
        };
        grid.world().bcast(owner, mine)
    }

    /// The `k` best-scoring candidates under `rank_of` (greater is better,
    /// ties broken by pair order). Each rank's `k` best are merged at one
    /// rank and broadcast back; every rank returns the same list.
    /// Candidates with structurally zero scores never appear. Collective.
    pub fn top_k(
        &self,
        grid: &Grid,
        k: usize,
        rank_of: impl Fn(&S::Elem) -> f64,
    ) -> Vec<(Index, Index, S::Elem)> {
        merge_topk::<S>(grid, self.local_scores(), k, rank_of)
    }

    /// Refreshes one owned candidate from the maintained product.
    fn refresh_at(&mut self, cx: &ViewCx<'_, S>, lr: Index, lc: Index) {
        let info = cx.c.info();
        let (gu, gv) = info.to_global(lr, lc);
        match cx.c.block().get(lr, lc) {
            Some(v) => {
                self.scores.insert(pack(gu, gv), v);
            }
            None => {
                self.scores.remove(&pack(gu, gv));
            }
        }
        self.frozen = None;
    }
}

impl<S: Semiring> View<S> for CommonNeighborsView<S> {
    fn name(&self) -> &str {
        "common-neighbors"
    }

    fn bootstrap(&mut self, cx: &ViewCx<'_, S>) {
        // Which candidates does this rank's product block own?
        let info = cx.c.info();
        self.local_mask = Dcsr::from_pairs(
            info.local_rows(),
            info.local_cols(),
            self.candidates
                .iter()
                .filter(|&&(u, v)| info.row_range.contains(&u) && info.col_range.contains(&v))
                .map(|&(u, v)| info.to_local(u, v)),
        );
        // Read them from the maintained product, the source post_batch
        // refreshes from.
        self.scores.clear();
        self.frozen = None;
        let c = cx.c.block();
        self.local_mask.scan_rows(|lr, cols, _| {
            for &lc in cols {
                if let Some(v) = c.get(lr, lc) {
                    let (gu, gv) = info.to_global(lr, lc);
                    self.scores.insert(pack(gu, gv), v);
                }
            }
        });
    }

    fn post_batch(&mut self, cx: &ViewCx<'_, S>, delta: &BatchDelta<'_, S>) {
        // The shared C* delta names every product position that changed;
        // probe it against the candidate mask and re-read survivors.
        let mut touched: Vec<(Index, Index)> = Vec::new();
        match delta {
            BatchDelta::Algebraic { cstar, .. } => cstar.scan_rows(|lr, cols, _| {
                for &lc in cols {
                    if self.local_mask.contains(lr, lc) {
                        touched.push((lr, lc));
                    }
                }
            }),
            BatchDelta::General { cstar_pattern, .. } => cstar_pattern.scan_rows(|lr, cols, _| {
                for &lc in cols {
                    if self.local_mask.contains(lr, lc) {
                        touched.push((lr, lc));
                    }
                }
            }),
        }
        for (lr, lc) in touched {
            self.refresh_at(cx, lr, lc);
        }
    }

    fn freeze(&mut self) -> FrozenView {
        // Rebuilt only when a batch actually touched a candidate score;
        // otherwise the cached reading is re-shared by refcount.
        if self.frozen.is_none() {
            let mut local: Vec<(Index, Index, S::Elem)> = self.local_scores().collect();
            local.sort_unstable_by_key(|&(u, v, _)| (u, v));
            self.frozen = Some(Arc::new(ScoreReading::<S> {
                local: Arc::new(local),
            }));
        }
        self.frozen.clone().expect("cache filled above")
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}
