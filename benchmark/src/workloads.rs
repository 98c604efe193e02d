//! The four workloads. Each is one SPMD state machine: set-up, then rounds
//! of identical composition, then an oracle. `run` is the round as a user
//! of the system would issue it; `run_traced` is the same round driven
//! through the stage-level calls the engine composes, a span around each.
//!
//! Where a composed call hides a stage (the redistribution inside an
//! update-matrix build, the update-matrix assembly inside Algorithm 2, the
//! CSR rebuild inside a session commit), the traced round times that stage
//! alone on a copy of the tuples, as a `probe.*` span. Probe time is taken
//! out of the round before shares are computed.

use crate::api::{
    self, Elem, Engine, F64Plus, GeneralUpdates, Index, Mat, MinPlus, Pin, Rng, Semiring, Session,
    Triple, U64Plus, ViewId, Xoshiro256,
};
use crate::input::{hashed_weight, rank_edges, symmetrised, Ctx, Pool};
use crate::report::{RankReport, Tracer};
use std::collections::VecDeque;

pub trait Workload: Sized {
    const NAME: &'static str;
    /// Ranks are OS processes over the socket mesh, not threads.
    const TCP: bool = false;
    /// Unsampled rounds that end set-up (pools, lazy caches).
    const WARM: usize;
    /// Sampled rounds of a run of the nominal length.
    const SAMPLED: usize;
    type Batch;

    /// Graph generation, distribution, initial product.
    fn setup(ctx: &Ctx<'_>, tr: &mut Tracer) -> Self;
    /// The rank's tuples for the next round, generated before its fence.
    fn next_batch(&mut self, ctx: &Ctx<'_>) -> Self::Batch;
    /// Update tuples in a batch.
    fn updates(batch: &Self::Batch) -> u64;
    fn run(&mut self, ctx: &Ctx<'_>, batch: Self::Batch);
    /// `counts` takes what the round counts at the layer boundaries, summed
    /// over the rank's traced rounds.
    fn run_traced(
        &mut self,
        ctx: &Ctx<'_>,
        batch: Self::Batch,
        tr: &mut Tracer,
        counts: &mut RankReport,
    );
    /// After the closing fence, outside the timed window: the round's
    /// postcondition and the pool bookkeeping. `false` fails the round.
    fn after_round(&mut self, _ctx: &Ctx<'_>) -> bool {
        true
    }
    /// Scalar multiplications so far on this rank.
    fn flops(&self) -> u64 {
        0
    }
    /// Epochs published so far.
    fn epochs(&self) -> u64 {
        0
    }
    /// Workload-specific layer counters and kernel replays, after the rounds.
    fn layer_report(&mut self, _ctx: &Ctx<'_>, _rep: &mut RankReport) {}
    /// The oracle. Collective; every rank returns the same verdict.
    fn verify(&mut self, ctx: &Ctx<'_>, corrupt: bool) -> bool;
}

fn triples<V: Copy>(coords: &[(Index, Index)], val: impl Fn(Index, Index) -> V) -> Vec<Triple<V>> {
    coords
        .iter()
        .map(|&(u, v)| Triple::new(u, v, val(u, v)))
        .collect()
}

fn flipped<V: Copy>(tuples: &[Triple<V>]) -> Vec<Triple<V>> {
    tuples
        .iter()
        .map(|t| Triple::new(t.col, t.row, t.val))
        .collect()
}

/// A fence before a collective probe, so that the probe times the stage and
/// not the skew the ranks arrive with; the wait is booked as fence time.
fn sync(ctx: &Ctx<'_>, tr: &mut Tracer) {
    tr.time("fence", || api::barrier(ctx.comm));
}

/// Times the two-phase redistribution alone, on a copy of the tuples the
/// span `under` has just routed, and books its traffic.
fn probe_redistribute<V: Elem>(
    ctx: &Ctx<'_>,
    n: Index,
    tuples: Vec<Triple<V>>,
    under: u32,
    tr: &mut Tracer,
    c: &mut RankReport,
) {
    sync(ctx, tr);
    let before = api::sent(ctx.comm);
    c.add("redistribute.tuples", tuples.len() as f64);
    tr.probe("probe.redistribute", under, || {
        api::redistribute_only(&ctx.grid, n, tuples)
    });
    let d = api::sent(ctx.comm).since(&before);
    c.add("redistribute.bytes", d.bytes as f64);
    c.add("redistribute.msgs", d.msgs as f64);
}

/// One thread's replay of the local multiply on this rank's operand blocks,
/// plain and masked, reported as Mflop/s.
fn replay_local_mm<S: Semiring>(
    right: &Mat<S::Elem>,
    sample: &[Triple<S::Elem>],
    rep: &mut RankReport,
) {
    const REPS: usize = 9;
    let left = api::replay_operand(right, sample);
    let mut plain = Vec::with_capacity(REPS);
    let mut flops = 0;
    for _ in 0..REPS {
        let t = std::time::Instant::now();
        flops = api::replay_spgemm::<S>(&left, right);
        plain.push(t.elapsed().as_secs_f64());
    }
    let (mask, masked_flops) = api::replay_masked::<S>(&left, right);
    let mut masked = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let t = std::time::Instant::now();
        api::replay_masked_with::<S>(&left, right, &mask);
        masked.push(t.elapsed().as_secs_f64());
    }
    rep.put(
        "local_mm.spgemm_mflops_per_s",
        flops as f64 / 1e6 / crate::stats::median(&plain),
    );
    rep.put(
        "local_mm.masked_mflops_per_s",
        masked_flops as f64 / 1e6 / crate::stats::median(&masked),
    );
}

// ---------------------------------------------------------------------------
// ingest-tcp: the dynamic distributed matrix alone, over real sockets.
// ---------------------------------------------------------------------------

/// Tuples per rank in each of a round's three batches.
const INGEST_BATCH: usize = 32_768;

pub struct Ingest {
    n: Index,
    mat: Mat<f64>,
    pool: Pool,
    rng: Xoshiro256,
    round: u64,
}

pub struct IngestBatch {
    inserts: Vec<Triple<f64>>,
    overwrites: Vec<Triple<f64>>,
    deletes: Vec<Triple<f64>>,
}

impl Ingest {
    fn value(&self, u: Index, v: Index) -> f64 {
        hashed_weight(u, v, self.round)
    }

    /// Coordinates of the current round, by what happens to them.
    fn parts(&self) -> [&[(Index, Index)]; 3] {
        let k = INGEST_BATCH;
        [
            &self.pool.absent[..k],
            &self.pool.present[k..2 * k],
            &self.pool.present[..k],
        ]
    }
}

impl Workload for Ingest {
    const NAME: &'static str = "ingest-tcp";
    const TCP: bool = true;
    const WARM: usize = 10;
    const SAMPLED: usize = 150;
    type Batch = IngestBatch;

    fn setup(ctx: &Ctx<'_>, tr: &mut Tracer) -> Self {
        let (scale, draws) = ctx.size(19, 1 << 20);
        let n = 1 << scale;
        let entries = tr.time("graph.generate", || {
            symmetrised(ctx, &rank_edges(ctx, scale, draws))
        });
        // Seven eighths are in the matrix; the rest waits to be inserted.
        let present = (entries.len() / 8 * 7).max(2 * INGEST_BATCH);
        let pool = Pool::split(entries, present);
        let initial = triples(&pool.present, |u, v| hashed_weight(u, v, 0));
        let mat = tr.time("distmat.construct", || {
            api::mat_construct(&ctx.grid, n, initial)
        });
        Self {
            n,
            mat,
            pool,
            rng: ctx.draw_rng(),
            round: 0,
        }
    }

    fn next_batch(&mut self, _ctx: &Ctx<'_>) -> IngestBatch {
        self.round += 1;
        self.pool.draw(INGEST_BATCH, INGEST_BATCH, &mut self.rng);
        let [ins, over, del] = self.parts();
        IngestBatch {
            inserts: triples(ins, |u, v| self.value(u, v)),
            overwrites: triples(over, |u, v| self.value(u, v)),
            deletes: triples(del, |_, _| 0.0),
        }
    }

    fn updates(b: &IngestBatch) -> u64 {
        (b.inserts.len() + b.overwrites.len() + b.deletes.len()) as u64
    }

    /// The Fig. 4 / 5a / 5b protocol: build the update matrix, apply it.
    fn run(&mut self, ctx: &Ctx<'_>, b: IngestBatch) {
        let g = &ctx.grid;
        let star = api::star_build::<F64Plus>(g, self.n, b.inserts, false);
        api::star_merge::<F64Plus>(&mut self.mat, &star);
        let star = api::star_build::<F64Plus>(g, self.n, b.overwrites, false);
        api::star_merge::<F64Plus>(&mut self.mat, &star);
        let star = api::star_build::<F64Plus>(g, self.n, b.deletes, false);
        api::star_mask::<F64Plus>(&mut self.mat, &star);
    }

    fn run_traced(&mut self, ctx: &Ctx<'_>, b: IngestBatch, tr: &mut Tracer, c: &mut RankReport) {
        let g = &ctx.grid;
        for (tuples, mask) in [(b.inserts, false), (b.overwrites, false), (b.deletes, true)] {
            let copy = tuples.clone();
            let star = tr.time("update.build", || {
                api::star_build::<F64Plus>(g, self.n, tuples, false)
            });
            probe_redistribute(ctx, self.n, copy, tr.last(), tr, c);
            c.add("update.star_nnz", api::star_local_nnz(&star) as f64);
            tr.time("update.apply", || {
                if mask {
                    api::star_mask::<F64Plus>(&mut self.mat, &star);
                } else {
                    api::star_merge::<F64Plus>(&mut self.mat, &star);
                }
            });
        }
    }

    /// On the tuples this rank both submitted and owns: inserted and
    /// overwritten values are there, deleted entries are gone.
    fn after_round(&mut self, _ctx: &Ctx<'_>) -> bool {
        let [ins, over, del] = self.parts();
        let written = ins.iter().chain(over).all(|&(u, v)| {
            api::mat_get_local(&self.mat, u, v).is_none_or(|e| e == Some(self.value(u, v)))
        });
        let gone = del
            .iter()
            .all(|&(u, v)| api::mat_get_local(&self.mat, u, v).is_none_or(|e| e.is_none()));
        self.pool.swap_front(INGEST_BATCH);
        written && gone
    }

    /// The matrix holds exactly the present side of every rank's pool.
    fn verify(&mut self, ctx: &Ctx<'_>, corrupt: bool) -> bool {
        if corrupt && ctx.rank == 0 {
            let owned = self
                .pool
                .present
                .iter()
                .find(|&&(u, v)| api::mat_get_local(&self.mat, u, v).is_some());
            if let Some(&(u, v)) = owned {
                api::mat_remove_local(&mut self.mat, u, v);
            }
        }
        let owned_present = self
            .pool
            .present
            .iter()
            .all(|&(u, v)| api::mat_get_local(&self.mat, u, v).is_none_or(|e| e.is_some()));
        let nnz = api::all_sum(ctx.comm, api::mat_local_nnz(&self.mat));
        let expected = api::all_sum(ctx.comm, self.pool.present.len() as u64);
        api::all_true(ctx.comm, owned_present && nnz == expected)
    }
}

// ---------------------------------------------------------------------------
// alg-insert: Algorithm 1 alone, the snapshot layer idle.
// ---------------------------------------------------------------------------

const ALG_BATCH: usize = 2_048;

pub struct AlgInsert {
    n: Index,
    eng: Engine<F64Plus>,
    /// This rank's entries of `B`; draws come from here, with replacement.
    slice: Vec<(Index, Index)>,
    rng: Xoshiro256,
}

impl Workload for AlgInsert {
    const NAME: &'static str = "alg-insert";
    const WARM: usize = 20;
    const SAMPLED: usize = 250;
    type Batch = Vec<Triple<f64>>;

    fn setup(ctx: &Ctx<'_>, tr: &mut Tracer) -> Self {
        let (scale, draws) = ctx.size(14, 60_000);
        let n = 1 << scale;
        let slice = tr.time("graph.generate", || {
            symmetrised(ctx, &rank_edges(ctx, scale, draws))
        });
        let (a, b) = tr.time("distmat.construct", || {
            let a0 = triples(&slice[..slice.len() / 2], |_, _| 1.0);
            let full = triples(&slice, |_, _| 1.0);
            (
                api::mat_construct(&ctx.grid, n, a0),
                api::mat_construct(&ctx.grid, n, full),
            )
        });
        let eng = tr.time("summa.initial", || api::engine_new(&ctx.grid, a, b, false));
        Self {
            n,
            eng,
            slice,
            rng: ctx.draw_rng(),
        }
    }

    fn next_batch(&mut self, _ctx: &Ctx<'_>) -> Vec<Triple<f64>> {
        (0..ALG_BATCH)
            .map(|_| {
                let (u, v) = self.slice[self.rng.gen_index(self.slice.len())];
                Triple::new(u, v, 1.0)
            })
            .collect()
    }

    fn updates(b: &Vec<Triple<f64>>) -> u64 {
        b.len() as u64
    }

    fn run(&mut self, ctx: &Ctx<'_>, b: Vec<Triple<f64>>) {
        api::engine_apply_algebraic(&mut self.eng, &ctx.grid, b, Vec::new());
    }

    fn run_traced(
        &mut self,
        ctx: &Ctx<'_>,
        b: Vec<Triple<f64>>,
        tr: &mut Tracer,
        c: &mut RankReport,
    ) {
        // The pair build routes the tuples and their transposes.
        let (copy, copy_t) = (b.clone(), flipped(&b));
        let (a_star, b_star) = tr.time("update.build", || {
            (
                api::star_pair_build::<F64Plus>(&ctx.grid, self.n, b),
                api::star_pair_build::<F64Plus>(&ctx.grid, self.n, Vec::new()),
            )
        });
        let built = tr.last();
        probe_redistribute(ctx, self.n, copy, built, tr, c);
        probe_redistribute(ctx, self.n, copy_t, built, tr, c);
        c.add("update.star_nnz", api::star_pair_local_nnz(&a_star) as f64);
        let before = api::sent(ctx.comm);
        tr.time("dyn_algebraic.apply", || {
            api::engine_apply_prebuilt(&mut self.eng, &ctx.grid, &a_star, &b_star)
        });
        let d = api::sent(ctx.comm).since(&before);
        c.add("dyn_algebraic.bcast_bytes", d.bcast_bytes as f64);
        c.add("dyn_algebraic.reduce_bytes", d.reduce_bytes as f64);
    }

    fn flops(&self) -> u64 {
        api::engine_flops(&self.eng)
    }

    fn epochs(&self) -> u64 {
        api::engine_epoch(&self.eng)
    }

    fn layer_report(&mut self, ctx: &Ctx<'_>, rep: &mut RankReport) {
        if ctx.rank == 0 {
            let sample = triples(&self.slice[..self.slice.len().min(16_384)], |_, _| 1.0);
            replay_local_mm::<F64Plus>(api::engine_b(&self.eng), &sample, rep);
        }
    }

    /// Unit values keep `C` integer-valued, so equality is exact.
    fn verify(&mut self, ctx: &Ctx<'_>, corrupt: bool) -> bool {
        if corrupt && ctx.rank == 0 {
            api::engine_corrupt_c(&mut self.eng, -1.0);
        }
        api::engine_matches_static(&self.eng, &ctx.grid)
    }
}

// ---------------------------------------------------------------------------
// gen-mixed: Algorithm 2, masked and Bloom-filtered.
// ---------------------------------------------------------------------------

/// Per rank and round: entries deleted, as many fresh ones inserted (so the
/// matrix keeps its size), and twice as many existing ones re-weighted.
const GEN_MOVE: usize = 128;
const GEN_REWEIGHT: usize = 256;

pub struct GenMixed {
    n: Index,
    eng: Engine<MinPlus>,
    pool: Pool,
    rng: Xoshiro256,
    round: u64,
}

impl Workload for GenMixed {
    const NAME: &'static str = "gen-mixed";
    const WARM: usize = 30;
    const SAMPLED: usize = 150;
    type Batch = GeneralUpdates<f64>;

    fn setup(ctx: &Ctx<'_>, tr: &mut Tracer) -> Self {
        let (scale, draws) = ctx.size(13, 20_000);
        let n = 1 << scale;
        let slice = tr.time("graph.generate", || {
            symmetrised(ctx, &rank_edges(ctx, scale, draws))
        });
        let (a, b) = tr.time("distmat.construct", || {
            let a0 = triples(&slice[..slice.len() / 2], |u, v| hashed_weight(u, v, 0));
            let full = triples(&slice, |u, v| hashed_weight(v, u, 0));
            (
                api::mat_construct(&ctx.grid, n, a0),
                api::mat_construct(&ctx.grid, n, full),
            )
        });
        let eng = tr.time("summa.initial", || api::engine_new(&ctx.grid, a, b, true));
        let present = slice.len() / 2;
        Self {
            n,
            eng,
            pool: Pool::split(slice, present),
            rng: ctx.draw_rng(),
            round: 0,
        }
    }

    fn next_batch(&mut self, _ctx: &Ctx<'_>) -> GeneralUpdates<f64> {
        self.round += 1;
        self.pool.draw(GEN_MOVE, GEN_REWEIGHT, &mut self.rng);
        let mut upd = GeneralUpdates::new();
        upd.deletes = self.pool.present[..GEN_MOVE].to_vec();
        let written = self.pool.present[GEN_MOVE..GEN_MOVE + GEN_REWEIGHT]
            .iter()
            .chain(&self.pool.absent[..GEN_MOVE]);
        upd.sets = written
            .map(|&(u, v)| Triple::new(u, v, hashed_weight(u, v, self.round)))
            .collect();
        upd
    }

    fn updates(b: &GeneralUpdates<f64>) -> u64 {
        (b.sets.len() + b.deletes.len()) as u64
    }

    fn run(&mut self, ctx: &Ctx<'_>, b: GeneralUpdates<f64>) {
        api::engine_apply_general(&mut self.eng, &ctx.grid, b, GeneralUpdates::new());
    }

    fn run_traced(
        &mut self,
        ctx: &Ctx<'_>,
        b: GeneralUpdates<f64>,
        tr: &mut Tracer,
        c: &mut RankReport,
    ) {
        let copy = b.clone();
        let before = api::sent(ctx.comm);
        tr.time("dyn_general.apply", || {
            api::engine_apply_general(&mut self.eng, &ctx.grid, b, GeneralUpdates::new())
        });
        c.add(
            "dyn_general.bytes",
            api::sent(ctx.comm).since(&before).bytes as f64,
        );
        // Algorithm 2 hides the update-matrix assembly, which in turn routes
        // the sets, the deletes and the transposed pattern.
        let deletes = triples(&copy.deletes, |_, _| 0.0);
        let mut pattern_t = flipped(&deletes);
        pattern_t.extend(flipped(&copy.sets));
        let sets = copy.sets.clone();
        let applied = tr.last();
        sync(ctx, tr);
        let star = tr.probe("probe.prepare", applied, || {
            api::general_prepare_only::<MinPlus>(&ctx.grid, self.n, copy)
        });
        c.add("update.star_nnz", star as f64);
        let prepared = tr.last();
        probe_redistribute(ctx, self.n, sets, prepared, tr, c);
        probe_redistribute(ctx, self.n, deletes, prepared, tr, c);
        probe_redistribute(ctx, self.n, pattern_t, prepared, tr, c);
    }

    fn after_round(&mut self, _ctx: &Ctx<'_>) -> bool {
        self.pool.swap_front(GEN_MOVE);
        true
    }

    fn flops(&self) -> u64 {
        api::engine_flops(&self.eng)
    }

    fn epochs(&self) -> u64 {
        api::engine_epoch(&self.eng)
    }

    fn layer_report(&mut self, ctx: &Ctx<'_>, rep: &mut RankReport) {
        if ctx.rank == 0 {
            let k = self.pool.present.len().min(16_384);
            let sample = triples(&self.pool.present[..k], |u, v| hashed_weight(u, v, 0));
            replay_local_mm::<MinPlus>(api::engine_b(&self.eng), &sample, rep);
        }
    }

    /// Integer weights keep every sum and minimum exact.
    fn verify(&mut self, ctx: &Ctx<'_>, corrupt: bool) -> bool {
        if corrupt && ctx.rank == 0 {
            api::engine_corrupt_c(&mut self.eng, -1.0);
        }
        api::engine_matches_static(&self.eng, &ctx.grid)
    }
}

// ---------------------------------------------------------------------------
// serve-publish: reads beside writes, an epoch per commit.
// ---------------------------------------------------------------------------

/// Undirected edges per rank inserted, and deleted, each round; both
/// directions are written, so twice as many tuples.
const SERVE_EDGES: usize = 64;
const POINT_QUERIES: usize = 16;
const TOPK_QUERIES: usize = 4;
const TOPK: usize = 8;
/// Rounds the laggard reader keeps its pin.
const LAGGARD_ROUNDS: usize = 3;

pub struct ServePublish {
    n: Index,
    session: Session,
    triangles: ViewId,
    /// Undirected edges `{u, v}`, `u < v`.
    pool: Pool,
    rng: Xoshiro256,
    /// The query stream, identical on every rank (queries are collective).
    queries: Xoshiro256,
    pins: VecDeque<Pin>,
}

pub struct ServeBatch {
    inserts: Vec<Triple<u64>>,
    deletes: Vec<(Index, Index)>,
    points: Vec<(Index, Index)>,
    rows: Vec<Index>,
}

fn both_ways(edges: &[(Index, Index)]) -> impl Iterator<Item = (Index, Index)> + '_ {
    edges.iter().flat_map(|&(u, v)| [(u, v), (v, u)])
}

impl ServePublish {
    fn hold(&mut self, pin: Pin) {
        self.pins.push_back(pin);
        if self.pins.len() > LAGGARD_ROUNDS {
            self.pins.pop_front();
        }
    }
}

impl Workload for ServePublish {
    const NAME: &'static str = "serve-publish";
    const WARM: usize = 16;
    const SAMPLED: usize = 80;
    type Batch = ServeBatch;

    fn setup(ctx: &Ctx<'_>, tr: &mut Tracer) -> Self {
        let (scale, draws) = ctx.size(13, 20_000);
        let n = 1 << scale;
        let edges = tr.time("graph.generate", || rank_edges(ctx, scale, draws));
        let present = edges.len() / 2;
        let pool = Pool::split(edges, present);
        let a0: Vec<Triple<u64>> = both_ways(&pool.present)
            .map(|(u, v)| Triple::new(u, v, 1))
            .collect();
        // The session's constructor distributes and multiplies in one call.
        let mut session = tr.time("summa.initial", || api::session_new(ctx.comm, n, a0));
        let triangles = api::session_register_triangles(&mut session);
        Self {
            n,
            session,
            triangles,
            pool,
            rng: ctx.draw_rng(),
            queries: Xoshiro256::new(ctx.seed ^ 0x0071_7565_7279),
            pins: VecDeque::new(),
        }
    }

    fn next_batch(&mut self, _ctx: &Ctx<'_>) -> ServeBatch {
        self.pool.draw(SERVE_EDGES, 0, &mut self.rng);
        let n = self.n as usize;
        ServeBatch {
            inserts: both_ways(&self.pool.absent[..SERVE_EDGES])
                .map(|(u, v)| Triple::new(u, v, 1))
                .collect(),
            deletes: both_ways(&self.pool.present[..SERVE_EDGES]).collect(),
            points: (0..POINT_QUERIES)
                .map(|_| {
                    (
                        self.queries.gen_index(n) as Index,
                        self.queries.gen_index(n) as Index,
                    )
                })
                .collect(),
            rows: (0..TOPK_QUERIES)
                .map(|_| self.queries.gen_index(n) as Index)
                .collect(),
        }
    }

    fn updates(b: &ServeBatch) -> u64 {
        (b.inserts.len() + b.deletes.len()) as u64
    }

    fn run(&mut self, _ctx: &Ctx<'_>, b: ServeBatch) {
        api::session_insert(&mut self.session, b.inserts);
        api::session_delete(&mut self.session, b.deletes);
        let pin = api::session_pin(&self.session);
        let grid = api::session_grid(&self.session);
        for &(u, v) in &b.points {
            std::hint::black_box(api::pin_point(&pin, grid, u, v));
        }
        for &u in &b.rows {
            std::hint::black_box(api::pin_topk(&pin, grid, u, TOPK));
        }
        self.hold(pin);
    }

    fn run_traced(&mut self, ctx: &Ctx<'_>, b: ServeBatch, tr: &mut Tracer, c: &mut RankReport) {
        // Each commit hides a redistribution of its tuples and the CSR
        // rebuild of the epoch it publishes.
        let copy = b.inserts.clone();
        let before = api::sent(ctx.comm);
        tr.time("dyn_algebraic.apply", || {
            api::session_insert(&mut self.session, b.inserts)
        });
        let d = api::sent(ctx.comm).since(&before);
        c.add("dyn_algebraic.bcast_bytes", d.bcast_bytes as f64);
        c.add("dyn_algebraic.reduce_bytes", d.reduce_bytes as f64);
        let inserted = tr.last();
        tr.probe("probe.publish", inserted, || {
            api::session_publish_probe(&self.session)
        });
        probe_redistribute(ctx, self.n, copy, inserted, tr, c);
        let copy = triples(&b.deletes, |_, _| 0u64);
        let before = api::sent(ctx.comm);
        tr.time("dyn_general.apply", || {
            api::session_delete(&mut self.session, b.deletes)
        });
        c.add(
            "dyn_general.bytes",
            api::sent(ctx.comm).since(&before).bytes as f64,
        );
        let deleted = tr.last();
        tr.probe("probe.publish", deleted, || {
            api::session_publish_probe(&self.session)
        });
        probe_redistribute(ctx, self.n, copy, deleted, tr, c);
        let pin = api::session_pin(&self.session);
        let grid = api::session_grid(&self.session);
        for &(u, v) in &b.points {
            tr.time("analytics.point_query", || {
                std::hint::black_box(api::pin_point(&pin, grid, u, v))
            });
        }
        for &u in &b.rows {
            tr.time("analytics.topk", || {
                std::hint::black_box(api::pin_topk(&pin, grid, u, TOPK))
            });
        }
        self.hold(pin);
    }

    fn after_round(&mut self, _ctx: &Ctx<'_>) -> bool {
        self.pool.swap_front(SERVE_EDGES);
        true
    }

    fn flops(&self) -> u64 {
        api::session_flops(&self.session)
    }

    fn epochs(&self) -> u64 {
        api::session_epoch(&self.session)
    }

    fn layer_report(&mut self, ctx: &Ctx<'_>, rep: &mut RankReport) {
        let (retained, bytes) = api::session_retention(&self.session);
        rep.put("snapshot.retained_epochs", retained as f64);
        rep.put("snapshot.live_bytes", bytes as f64);
        if ctx.rank == 0 {
            let k = self.pool.present.len().min(8_192);
            let sample: Vec<Triple<u64>> = both_ways(&self.pool.present[..k])
                .map(|(u, v)| Triple::new(u, v, 1))
                .collect();
            replay_local_mm::<U64Plus>(api::session_adjacency(&self.session), &sample, rep);
        }
    }

    /// The session offers no mutable access to `C`, so the corruption hook
    /// skews the recount instead of the maintained side.
    fn verify(&mut self, _ctx: &Ctx<'_>, corrupt: bool) -> bool {
        let maintained = api::session_triangle_sum(&self.session, self.triangles);
        let recount = api::session_triangle_recount(&self.session) + u64::from(corrupt);
        api::session_matches_static(&self.session) && maintained == recount
    }
}
