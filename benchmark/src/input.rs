//! Seeded inputs: the graph, its scrambling permutation and the per-rank
//! pools that update draws come from. Everything is a function of `--seed`.
//!
//! Each rank generates the tuples it will feed, and no two ranks ever hold
//! the same coordinate: before scrambling, the low bits of an edge's second
//! endpoint are rewritten so that `(u + v) mod p` names the feeding rank.
//! That keeps concurrent batches free of cross-rank conflicts (one rank
//! deleting what another overwrites), so every postcondition is decidable
//! from the feeder's own bookkeeping.

use crate::api::{self, Comm, Grid, Index, Rng, Xoshiro256};

/// The four ranks of the smallest grid that communicates.
pub const RANKS: usize = 4;

const GRAPH_SALT: u64 = 0x0067_7261_7068;
const PERM_SALT: u64 = 0x7065_726d;
const DRAW_SALT: u64 = 0x6472_6177;

/// What a rank's SPMD body knows about its place in the run.
pub struct Ctx<'a> {
    pub comm: &'a Comm,
    pub grid: Grid,
    pub rank: usize,
    pub seed: u64,
    /// `--smoke`: graph scale reduced by 2.
    pub smoke: bool,
}

impl<'a> Ctx<'a> {
    pub fn new(comm: &'a Comm, seed: u64, smoke: bool) -> Self {
        assert_eq!(comm.size(), RANKS, "the benchmark runs on a 2 x 2 grid");
        Self {
            comm,
            grid: api::grid(comm),
            rank: comm.rank(),
            seed,
            smoke,
        }
    }

    /// `(log2 n, undirected draws per rank)` for a workload's full-size
    /// graph; `--smoke` divides both `n` and the draws by four.
    pub fn size(&self, scale: u32, draws_per_rank: usize) -> (u32, usize) {
        if self.smoke {
            (scale - 2, draws_per_rank / 4)
        } else {
            (scale, draws_per_rank)
        }
    }

    /// The rank's stream of update draws.
    pub fn draw_rng(&self) -> Xoshiro256 {
        Xoshiro256::derive(self.seed ^ DRAW_SALT, self.rank as u64)
    }
}

/// This rank's undirected edges `{u, v}` (stored `u < v`) of an R-MAT graph
/// on `2^scale` vertices: self-loops dropped, duplicates removed, ids
/// scrambled by the run's permutation, order shuffled. Disjoint from every
/// other rank's edges.
pub fn rank_edges(ctx: &Ctx<'_>, scale: u32, draws: usize) -> Vec<(Index, Index)> {
    assert!(RANKS.is_power_of_two());
    let low = RANKS as u32 - 1;
    let mut rng = Xoshiro256::derive(ctx.seed ^ GRAPH_SALT, ctx.rank as u64);
    let mut edges: Vec<(Index, Index)> = (0..draws)
        .filter_map(|_| {
            let (u, v) = api::rmat_p2p_edge(scale, &mut rng);
            let v = (v & !low) | ((ctx.rank as u32).wrapping_sub(u) & low);
            (u != v).then_some((u.min(v), u.max(v)))
        })
        .collect();
    edges.sort_unstable();
    edges.dedup();
    let perm = api::permutation(1 << scale, &mut Xoshiro256::new(ctx.seed ^ PERM_SALT));
    for e in &mut edges {
        let (u, v) = (perm[e.0 as usize], perm[e.1 as usize]);
        *e = (u.min(v), u.max(v));
    }
    rng.shuffle(&mut edges);
    edges
}

/// Both directions of every edge, shuffled: the rank's slice of the
/// symmetrised matrix as directed entries.
pub fn symmetrised(ctx: &Ctx<'_>, edges: &[(Index, Index)]) -> Vec<(Index, Index)> {
    let mut entries: Vec<(Index, Index)> =
        edges.iter().flat_map(|&(u, v)| [(u, v), (v, u)]).collect();
    Xoshiro256::derive(ctx.seed ^ GRAPH_SALT ^ 1, ctx.rank as u64).shuffle(&mut entries);
    entries
}

/// A rank's coordinates split into those currently in the matrix and those
/// currently not. A round takes `k` from each side and swaps them, so both
/// sides keep their size and every round has the same composition.
pub struct Pool {
    pub present: Vec<(Index, Index)>,
    pub absent: Vec<(Index, Index)>,
}

impl Pool {
    /// The first `present` coordinates are in, the rest are out.
    pub fn split(mut coords: Vec<(Index, Index)>, present: usize) -> Self {
        let absent = coords.split_off(present);
        Self {
            present: coords,
            absent,
        }
    }

    /// Moves `k` uniformly drawn coordinates to the front of `side`.
    fn draw_front(side: &mut [(Index, Index)], k: usize, rng: &mut impl Rng) {
        assert!(k <= side.len(), "pool smaller than one batch");
        for i in 0..k {
            let j = i + rng.gen_index(side.len() - i);
            side.swap(i, j);
        }
    }

    /// Draws `leave + stay` distinct present coordinates to the front of
    /// `present` (the first `leave` will be deleted, the next `stay`
    /// overwritten) and `leave` absent ones to the front of `absent` (to be
    /// inserted).
    pub fn draw(&mut self, leave: usize, stay: usize, rng: &mut impl Rng) {
        Self::draw_front(&mut self.present, leave + stay, rng);
        Self::draw_front(&mut self.absent, leave, rng);
    }

    /// After the round: the `k` deleted coordinates and the `k` inserted
    /// ones change sides.
    pub fn swap_front(&mut self, k: usize) {
        self.present[..k].swap_with_slice(&mut self.absent[..k]);
    }
}

/// A weight in `1..=1024` that is a function of the coordinate and the
/// round, integer-valued so that sums and minima of weights are exact.
pub fn hashed_weight(u: Index, v: Index, round: u64) -> f64 {
    let mut x = ((u as u64) << 32 | v as u64) ^ round.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    (x % 1024 + 1) as f64
}
