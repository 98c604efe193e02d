//! Maintained common-neighbor / link-prediction scores over candidate pairs.
//!
//! For an unweighted undirected graph, `(A·A)_{u,v}` is the number of common
//! neighbors of `u` and `v` — the classic link-prediction score. The view
//! tracks a *fixed candidate set* of `(u, v)` pairs (e.g. non-edges proposed
//! by a recommender): registration evaluates the candidates with one
//! masked product ([`mod@crate::masked_product`], built on the
//! `sparse::masked_mm` kernel, pruning local flops to candidate rows);
//! afterwards each batch refreshes only the candidates that the shared `C*`
//! delta proves changed — `O(nnz(C*))` mask probes and `O(1)` lookups into
//! the maintained product, no extra communication at all.

use crate::masked_product::masked_product;
use crate::view::{BatchDelta, FrozenView, View, ViewCx};
use dspgemm_core::grid::{owner_block, Grid};
use dspgemm_core::Layout;
use dspgemm_sparse::semiring::Semiring;
use dspgemm_sparse::{Dcsr, Index, RowScan};
use dspgemm_util::stats::PhaseTimer;
use dspgemm_util::FxHashMap;
use std::any::Any;
use std::sync::Arc;

#[inline]
fn pack(u: Index, v: Index) -> u64 {
    ((u as u64) << 32) | v as u64
}

/// The frozen reading of a [`CommonNeighborsView`] inside a published
/// epoch: this rank's candidate scores at publish time, behind an `Arc`
/// shared with the view's freeze cache — pinning and querying copy no
/// score data. The merge collectives ([`ScoreReading::top_k`]) work
/// exactly like the live view's, but against the pinned scores.
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
        merge_topk::<S>(grid, Arc::clone(&self.local), k, rank_of)
    }
}

/// The shared zero-copy allgather merge behind live and pinned `top_k`:
/// the ring moves the `Arc` handle, never a copy of the score list.
fn merge_topk<S: Semiring>(
    grid: &Grid,
    mine: Arc<Vec<(Index, Index, S::Elem)>>,
    k: usize,
    rank_of: impl Fn(&S::Elem) -> f64,
) -> Vec<(Index, Index, S::Elem)> {
    let mut all: Vec<(Index, Index, S::Elem)> = grid
        .world()
        .allgather_shared(mine)
        .iter()
        .flat_map(|part| part.iter().copied())
        .collect();
    all.sort_unstable_by(|(ua, va, sa), (ub, vb, sb)| {
        rank_of(sb)
            .partial_cmp(&rank_of(sa))
            .unwrap_or(std::cmp::Ordering::Equal)
            .then((ua, va).cmp(&(ub, vb)))
    });
    all.truncate(k);
    all
}

/// Maintained `(A·A)_{u,v}` scores for a fixed, replicated candidate set.
pub struct CommonNeighborsView<S: Semiring> {
    /// The global candidate pairs (identical on every rank).
    candidates: Vec<(Index, Index)>,
    /// Block-local mask over this rank's owned candidates.
    local_mask: Dcsr<()>,
    /// The product layout the masks and scores were built against (captured
    /// at bootstrap; point lookups route owners by it, so they stay correct
    /// when the session runs under rebalanced cuts).
    layout: Option<Arc<Layout>>,
    /// Packed global pair → current score, for locally-owned candidates
    /// whose product entry is structurally present.
    scores: FxHashMap<u64, S::Elem>,
    /// Cached frozen reading, rebuilt only after the scores change — an
    /// unchanged view is re-shared into the next epoch by refcount.
    frozen: Option<FrozenView>,
    /// Local flops spent by the bootstrap masked product.
    pub bootstrap_flops: u64,
    /// Candidate scores refreshed across all batches (diagnostics).
    pub refreshed_entries: u64,
}

impl<S: Semiring> CommonNeighborsView<S> {
    /// A view over the given candidate pairs. `candidates` must be identical
    /// on every rank (each rank serves the pairs its block owns).
    pub fn new(candidates: Vec<(Index, Index)>) -> Self {
        Self {
            candidates,
            local_mask: Dcsr::empty(0, 0),
            layout: None,
            scores: FxHashMap::default(),
            frozen: None,
            bootstrap_flops: 0,
            refreshed_entries: 0,
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
        let (bi, bj) = match &self.layout {
            Some(l) => (l.row_owner(u).0, l.col_owner(v).0),
            None => (owner_block(n, grid.q(), u).0, owner_block(n, grid.q(), v).0),
        };
        let owner = grid.rank_of(bi, bj);
        let mine = if grid.world().rank() == owner {
            Some(self.scores.get(&pack(u, v)).copied())
        } else {
            None
        };
        grid.world().bcast(owner, mine)
    }

    /// The `k` best-scoring candidates under `rank_of` (greater is better,
    /// ties broken by pair order). One allgather of the per-rank score
    /// lists; every rank returns the same list. Candidates with structurally
    /// zero scores never appear. Collective.
    pub fn top_k(
        &self,
        grid: &Grid,
        k: usize,
        rank_of: impl Fn(&S::Elem) -> f64,
    ) -> Vec<(Index, Index, S::Elem)> {
        // Zero-copy merge: the ring moves `Arc` handles of the per-rank
        // score lists, never deep-cloning a list on a forward.
        merge_topk::<S>(grid, Arc::new(self.local_scores().collect()), k, rank_of)
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
        self.refreshed_entries += 1;
    }
}

impl<S: Semiring> View<S> for CommonNeighborsView<S> {
    fn name(&self) -> &str {
        "common-neighbors"
    }

    fn bootstrap(&mut self, cx: &ViewCx<'_, S>) {
        // Which candidates does this rank's product block own?
        let info = cx.c.info();
        self.layout = Some(Arc::clone(info.layout()));
        self.local_mask = Dcsr::from_pairs(
            info.local_rows(),
            info.local_cols(),
            self.candidates
                .iter()
                .filter(|&&(u, v)| info.row_range.contains(&u) && info.col_range.contains(&v))
                .map(|&(u, v)| info.to_local(u, v)),
        );
        // Evaluate them with one masked product (flops pruned to candidate
        // rows; see crate::masked_product for the communication trade).
        let mut timer = PhaseTimer::new();
        let (block, flops) =
            masked_product::<S>(cx.grid, cx.a, cx.a, &self.local_mask, cx.exec, &mut timer);
        self.bootstrap_flops = flops;
        self.scores.clear();
        self.frozen = None;
        block.scan_rows(|lr, cols, vals| {
            for (&lc, &(v, _)) in cols.iter().zip(vals) {
                let (gu, gv) = info.to_global(lr, lc);
                self.scores.insert(pack(gu, gv), v);
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
