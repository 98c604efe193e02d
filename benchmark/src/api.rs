//! The adapter: the only file of the benchmark that names functions of the
//! repository. Workloads, traced stages and kernel floors call through it.
//!
//! ROADMAP items 3 and 4 will collapse the `_exec` / `_prebuilt` / `_mode`
//! entry points and retire `PhaseTimer`; when they do, the benchmark is
//! repaired by editing this file alone, and the numbers stay comparable
//! because the harness around it does not move.

use crate::report::{RankReport, Span};
use dspgemm_analytics::{AnalyticsSession, SessionSnapshot, TriangleCountView};
use dspgemm_core::dyn_algebraic::TransposeMode;
use dspgemm_core::dyn_algebraic::{apply_algebraic_updates_prebuilt_exec, StarBuild};
use dspgemm_core::dyn_general::prepare_general_update_mode;
use dspgemm_core::redistribute::redistribute;
use dspgemm_core::summa::{summa, summa_bloom};
use dspgemm_core::update::{
    apply_mask, apply_merge, build_update_matrix, build_update_matrix_pair, Dedup,
};
use dspgemm_core::{DistDcsr, DistMat, DynSpGemm};
use dspgemm_graph::rmat::{rmat_edge, RmatParams};
use dspgemm_mpi::tcp::{run_tcp, Reexec, TcpConfig};
use dspgemm_mpi::CommCategory;
use dspgemm_sparse::local_mm::spgemm;
use dspgemm_sparse::masked_mm::{masked_spgemm_bloom, MaskSet};
use dspgemm_sparse::{Dcsr, DhbMatrix, RowScan};
use dspgemm_util::rng::random_permutation;
use dspgemm_util::sort::counting_sort_by_key;
use dspgemm_util::{decode_from_slice, encode_to_vec, PhaseTimer};
use std::sync::Arc;
use std::time::Duration;

pub use dspgemm_analytics::ViewId;
pub use dspgemm_core::distmat::Elem;
pub use dspgemm_core::dyn_general::GeneralUpdates;
pub use dspgemm_core::Grid;
pub use dspgemm_mpi::Comm;
pub use dspgemm_sparse::{F64Plus, Index, MinPlus, Semiring, Triple, U64Plus};
pub use dspgemm_util::{Rng, Xoshiro256};

/// Intra-rank threads: four ranks already share two cores.
const THREADS: usize = 1;

/// A distributed dynamic matrix.
pub type Mat<V> = DistMat<V>;
/// A built update matrix (one operand's `A*`).
pub type Star<V> = DistDcsr<V>;
/// Both layouts of an update matrix, as Algorithm 1's rounds consume them.
pub type StarPair<V> = StarBuild<V>;
/// The dynamic SpGEMM engine.
pub type Engine<S> = DynSpGemm<S>;
/// The serving session of the `serve-publish` workload.
pub type Session = AnalyticsSession<U64Plus>;
/// A pinned epoch of a [`Session`].
pub type Pin = Arc<SessionSnapshot<U64Plus>>;

// ---------------------------------------------------------------------------
// Worlds: the simulator and the TCP mesh.
// ---------------------------------------------------------------------------

/// Runs `f` on `p` simulated ranks (threads of this process).
pub fn run_sim<F>(p: usize, f: F) -> Vec<RankReport>
where
    F: Fn(&Comm) -> RankReport + Send + Sync,
{
    dspgemm_mpi::run(p, f).results
}

/// Whether this process is a rank child of a TCP job. A child must reach
/// [`run_tcp_world`] before doing anything a parent does.
pub fn is_tcp_child() -> bool {
    dspgemm_mpi::tcp::is_child()
}

/// The control socket carries nested 2- and 3-tuples only.
type WireReport = (
    Vec<(String, Vec<f64>)>,
    Vec<(String, f64)>,
    Vec<((u64, u64), (u64, u64))>,
);

fn to_wire(r: RankReport) -> WireReport {
    let spans = r
        .spans
        .iter()
        .map(|s| {
            (
                (((s.name as u64) << 32) | s.parent as u64, s.round as u64),
                (s.start_ns, s.end_ns),
            )
        })
        .collect();
    (r.series, r.scalars, spans)
}

fn from_wire((series, scalars, spans): WireReport) -> RankReport {
    let spans = spans
        .into_iter()
        .map(|((np, round), (start_ns, end_ns))| Span {
            name: (np >> 32) as u32,
            parent: np as u32,
            round: round as u32,
            start_ns,
            end_ns,
        })
        .collect();
    RankReport {
        series,
        scalars,
        spans,
    }
}

/// Runs `f` on `p` ranks, each an OS process re-executed from this binary's
/// argv, over the localhost socket mesh. Returns the per-rank reports and the
/// number of socket frames written. In a child this never returns. Past
/// `deadline` the parent kills every child and panics.
pub fn run_tcp_world<F>(p: usize, deadline: Duration, f: F) -> (Vec<RankReport>, u64)
where
    F: FnOnce(&Comm) -> RankReport + Send + 'static,
{
    let mut cfg = TcpConfig::new(p);
    cfg.deadline = deadline;
    let out = run_tcp(Reexec::SameArgv, cfg, move |comm| to_wire(f(comm)));
    let reports = out
        .results
        .into_iter()
        .map(|r| from_wire(r.expect("every rank reports")))
        .collect();
    (reports, out.frames)
}

/// What this rank has sent so far.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sent {
    pub bytes: u64,
    pub msgs: u64,
    /// Messages with the barrier tokens: what socket frames compare with.
    pub all_msgs: u64,
    pub bcast_bytes: u64,
    pub reduce_bytes: u64,
    pub exposed_ns: u64,
    pub overlapped_ns: u64,
}

impl Sent {
    pub fn since(&self, earlier: &Sent) -> Sent {
        Sent {
            bytes: self.bytes - earlier.bytes,
            msgs: self.msgs - earlier.msgs,
            all_msgs: self.all_msgs - earlier.all_msgs,
            bcast_bytes: self.bcast_bytes - earlier.bcast_bytes,
            reduce_bytes: self.reduce_bytes - earlier.reduce_bytes,
            exposed_ns: self.exposed_ns - earlier.exposed_ns,
            overlapped_ns: self.overlapped_ns - earlier.overlapped_ns,
        }
    }
}

/// This rank's own send counters (logical `WireSize` bytes). The harness's
/// fences are left out: barrier tokens are not traffic of the program.
pub fn sent(comm: &Comm) -> Sent {
    let stats = comm.comm_stats();
    let mine = &stats.per_rank[comm.rank()];
    let barrier = CommCategory::Barrier as usize;
    Sent {
        bytes: mine.total_bytes() - mine.bytes[barrier],
        msgs: mine.total_msgs() - mine.msgs[barrier],
        all_msgs: mine.total_msgs(),
        bcast_bytes: mine.bytes[CommCategory::Bcast as usize],
        reduce_bytes: mine.bytes[CommCategory::Reduce as usize],
        exposed_ns: mine.exposed_ns,
        overlapped_ns: mine.overlapped_ns,
    }
}

pub fn grid(comm: &Comm) -> Grid {
    Grid::new(comm)
}

pub fn barrier(comm: &Comm) {
    comm.barrier();
}

pub fn all_sum(comm: &Comm, x: u64) -> u64 {
    comm.allreduce(x, |a, b| a + b)
}

pub fn all_true(comm: &Comm, x: bool) -> bool {
    comm.allreduce(x, |a, b| a && b)
}

// ---------------------------------------------------------------------------
// Input generation.
// ---------------------------------------------------------------------------

/// One R-MAT draw with the catalog's peer-to-peer parameters.
pub fn rmat_p2p_edge(scale: u32, rng: &mut impl Rng) -> (u32, u32) {
    rmat_edge(&RmatParams::P2P, scale, rng)
}

pub fn permutation(n: usize, rng: &mut impl Rng) -> Vec<u32> {
    random_permutation(n, rng)
}

// ---------------------------------------------------------------------------
// core.distmat / core.redistribute / core.update
// ---------------------------------------------------------------------------

pub fn mat_construct<V: Elem>(grid: &Grid, n: Index, triples: Vec<Triple<V>>) -> Mat<V> {
    DistMat::from_global_triples(grid, n, n, triples, THREADS, &mut PhaseTimer::new())
}

pub fn mat_get_local<V: Elem>(mat: &Mat<V>, r: Index, c: Index) -> Option<Option<V>> {
    mat.get_local(r, c)
}

pub fn mat_local_nnz<V: Elem>(mat: &Mat<V>) -> u64 {
    mat.local_nnz() as u64
}

pub fn mat_remove_local(mat: &mut Mat<f64>, r: Index, c: Index) {
    let (lr, lc) = mat.info().to_local(r, c);
    mat.block_mut().remove(lr, lc);
}

/// The two-phase redistribution alone; returns how many tuples this rank
/// received.
pub fn redistribute_only<V>(grid: &Grid, n: Index, tuples: Vec<Triple<V>>) -> usize
where
    V: Elem,
{
    redistribute(grid, n, n, tuples, &mut PhaseTimer::new()).len()
}

/// Redistribution plus assembly of this rank's block of the update matrix.
/// Duplicates combine by the semiring addition when `add`, else the last
/// write wins.
pub fn star_build<S: Semiring>(
    grid: &Grid,
    n: Index,
    tuples: Vec<Triple<S::Elem>>,
    add: bool,
) -> Star<S::Elem> {
    let dedup = if add { Dedup::Add } else { Dedup::LastWins };
    build_update_matrix::<S>(grid, n, n, tuples, dedup, &mut PhaseTimer::new())
}

pub fn star_local_nnz<V: Elem>(star: &Star<V>) -> u64 {
    star.local_nnz() as u64
}

/// `MERGE(A, A*)`, local.
pub fn star_merge<S: Semiring>(mat: &mut Mat<S::Elem>, star: &Star<S::Elem>) {
    apply_merge::<S>(mat, star, THREADS);
}

/// `MASK(A, A*)`, local.
pub fn star_mask<S: Semiring>(mat: &mut Mat<S::Elem>, star: &Star<S::Elem>) {
    apply_mask::<S>(mat, star, THREADS);
}

// ---------------------------------------------------------------------------
// core.engine / core.dyn_algebraic / core.dyn_general / core.summa
// ---------------------------------------------------------------------------

/// Initial SUMMA (fused with the Bloom filter matrix when `track_filter`)
/// and epoch 0.
pub fn engine_new<S: Semiring>(
    grid: &Grid,
    a: Mat<S::Elem>,
    b: Mat<S::Elem>,
    track_filter: bool,
) -> Engine<S> {
    DynSpGemm::new(grid, a, b, THREADS, track_filter)
}

pub fn engine_flops<S: Semiring>(eng: &Engine<S>) -> u64 {
    eng.flops
}

pub fn engine_epoch<S: Semiring>(eng: &Engine<S>) -> u64 {
    eng.epoch().expect("the constructor publishes epoch 0")
}

/// Algorithm 1 as a user calls it.
pub fn engine_apply_algebraic<S: Semiring>(
    eng: &mut Engine<S>,
    grid: &Grid,
    a_tuples: Vec<Triple<S::Elem>>,
    b_tuples: Vec<Triple<S::Elem>>,
) {
    eng.apply_algebraic(grid, a_tuples, b_tuples);
}

/// Stage 1 of Algorithm 1: both layouts of one operand's update matrix.
pub fn star_pair_build<S: Semiring>(
    grid: &Grid,
    n: Index,
    tuples: Vec<Triple<S::Elem>>,
) -> StarPair<S::Elem> {
    StarBuild::Virtual(build_update_matrix_pair::<S>(
        grid,
        n,
        n,
        tuples,
        Dedup::Add,
        &mut PhaseTimer::new(),
    ))
}

pub fn star_pair_local_nnz<V: Elem>(pair: &StarPair<V>) -> u64 {
    pair.natural().local_nnz() as u64
}

/// Stage 2 of Algorithm 1: rounds, merge-reduce, local apply.
pub fn engine_apply_prebuilt<S: Semiring>(
    eng: &mut Engine<S>,
    grid: &Grid,
    a_star: &StarPair<S::Elem>,
    b_star: &StarPair<S::Elem>,
) {
    eng.flops += apply_algebraic_updates_prebuilt_exec::<S>(
        grid,
        &mut eng.a,
        &mut eng.b,
        &mut eng.c,
        a_star,
        b_star,
        &eng.exec,
        &mut eng.timer,
    );
}

/// Algorithm 2 as a user calls it.
pub fn engine_apply_general<S: Semiring>(
    eng: &mut Engine<S>,
    grid: &Grid,
    a_upd: GeneralUpdates<S::Elem>,
    b_upd: GeneralUpdates<S::Elem>,
) {
    eng.apply_general(grid, a_upd, b_upd);
}

/// The update-matrix assembly of Algorithm 2 alone (MERGE, MASK, pattern and
/// transposed pattern); returns the local pattern size.
pub fn general_prepare_only<S: Semiring>(
    grid: &Grid,
    n: Index,
    upd: GeneralUpdates<S::Elem>,
) -> u64 {
    let prep = prepare_general_update_mode::<S>(
        grid,
        n,
        n,
        upd,
        TransposeMode::Virtual,
        &mut PhaseTimer::new(),
    );
    prep.star.local_nnz() as u64
}

/// A static product of the engine's current operands, compared block for
/// block with the maintained `C`. Collective; every rank gets the verdict.
pub fn engine_matches_static<S: Semiring>(eng: &Engine<S>, grid: &Grid) -> bool
where
    S::Elem: PartialEq,
{
    let mut timer = PhaseTimer::new();
    let fresh = if eng.f.is_some() {
        summa_bloom::<S>(grid, &eng.a, &eng.b, THREADS, &mut timer).0
    } else {
        summa::<S>(grid, &eng.a, &eng.b, THREADS, &mut timer).0
    };
    let same = fresh.block_csr() == eng.c.block_csr();
    all_true(grid.world(), same)
}

/// Test hook: overwrites one stored entry of this rank's `C` block.
pub fn engine_corrupt_c<S: Semiring>(eng: &mut Engine<S>, with: S::Elem) {
    let first = eng.c.block().to_sorted_triples().into_iter().next();
    if let Some(t) = first {
        eng.c.block_mut().set(t.row, t.col, with);
    }
}

// ---------------------------------------------------------------------------
// analytics.session / core.snapshot
// ---------------------------------------------------------------------------

pub fn session_new(comm: &Comm, n: Index, triples: Vec<Triple<u64>>) -> Session {
    AnalyticsSession::from_triples(comm, n, THREADS, triples)
}

pub fn session_register_triangles(s: &mut Session) -> ViewId {
    s.register(Box::new(TriangleCountView::new()))
}

pub fn session_grid(s: &Session) -> &Grid {
    s.grid()
}

/// Algebraic insertions; commits an epoch.
pub fn session_insert(s: &mut Session, tuples: Vec<Triple<u64>>) {
    s.insert_edges(tuples);
}

/// Deletions (a general batch); commits an epoch.
pub fn session_delete(s: &mut Session, pairs: Vec<(Index, Index)>) {
    s.delete_edges(pairs);
}

pub fn session_pin(s: &Session) -> Pin {
    s.pin()
}

pub fn pin_point(pin: &Pin, grid: &Grid, u: Index, v: Index) -> Option<u64> {
    pin.product_entry(grid, u, v)
}

pub fn pin_topk(pin: &Pin, grid: &Grid, u: Index, k: usize) -> Vec<(Index, u64)> {
    pin.product_row_topk(grid, u, k, |&v| v as f64)
}

pub fn session_epoch(s: &Session) -> u64 {
    s.epoch()
}

pub fn session_flops(s: &Session) -> u64 {
    s.flops
}

/// `(epochs still alive, their heap bytes with shared blocks counted once)`.
pub fn session_retention(s: &Session) -> (u64, u64) {
    let store = s.snapshots();
    let mut seen = Vec::new();
    let bytes: usize = store
        .live()
        .iter()
        .map(|e| e.heap_bytes_unshared(&mut seen))
        .sum();
    (store.retained() as u64, bytes as u64)
}

/// The session's `publish` is private. This performs the conversion it
/// performs — a CSR image of the local `A` and `C` blocks — and returns the
/// entries converted, so the traced run can time it next to each commit.
pub fn session_publish_probe(s: &Session) -> u64 {
    let a = s.adjacency().block_csr();
    let c = s.product().block_csr();
    (std::hint::black_box(a).nnz() + std::hint::black_box(c).nnz()) as u64
}

/// The maintained masked sum of the triangle view (six per triangle).
pub fn session_triangle_sum(s: &Session, id: ViewId) -> u64 {
    s.view_as::<TriangleCountView>(id)
        .expect("registered at set-up")
        .masked_sum()
}

/// The same sum counted again from the live `A` and `C`. Collective.
pub fn session_triangle_recount(s: &Session) -> u64 {
    let c = s.product().block();
    let mut local = 0u64;
    s.adjacency().block().scan_rows(|r, cols, _| {
        for &cc in cols {
            local = local.wrapping_add(c.get(r, cc).unwrap_or(0));
        }
    });
    s.grid().world().allreduce(local, u64::wrapping_add)
}

/// A static `A · A` of the session's adjacency matrix compared block for
/// block with the maintained product. Collective.
pub fn session_matches_static(s: &Session) -> bool {
    let a = s.adjacency();
    let fresh = summa_bloom::<U64Plus>(s.grid(), a, a, THREADS, &mut PhaseTimer::new()).0;
    let same = fresh.block_csr() == s.product().block_csr();
    all_true(s.grid().world(), same)
}

// ---------------------------------------------------------------------------
// Kernel floors: sparse.dhb, sparse.local_mm, util.sort, util.wire, mpisim.
// ---------------------------------------------------------------------------

pub type Dhb = DhbMatrix<f64>;

pub fn dhb_insert(n: Index, triples: &[Triple<f64>]) -> Dhb {
    let mut m = DhbMatrix::new(n, n);
    for t in triples {
        m.set(t.row, t.col, t.val);
    }
    m
}

pub fn dhb_to_csr(m: &Dhb) -> usize {
    std::hint::black_box(m.to_csr()).nnz()
}

pub fn counting_sort(items: Vec<Triple<f64>>, buckets: usize, n: Index) -> usize {
    let width = n.div_ceil(buckets as Index);
    let (sorted, _) = counting_sort_by_key(items, buckets, |t| (t.row / width) as usize);
    std::hint::black_box(sorted).len()
}

pub fn wire_encode(items: &Vec<Triple<f64>>) -> Vec<u8> {
    encode_to_vec(items)
}

pub fn wire_decode(bytes: &[u8]) -> usize {
    let items: Vec<Triple<f64>> = decode_from_slice(bytes).expect("own encoding");
    std::hint::black_box(items).len()
}

pub fn alltoallv(comm: &Comm, chunks: Vec<Vec<Triple<f64>>>) -> usize {
    comm.alltoallv(chunks).iter().map(Vec::len).sum()
}

pub fn bcast(comm: &Comm, root: usize, payload: Option<Arc<Vec<u64>>>) -> usize {
    comm.bcast_shared(root, payload).len()
}

/// Operand blocks for a one-thread replay of the local multiply: the tuples
/// of `sample` that fall into this rank's block as a hypersparse left
/// operand, against this rank's block of `right`.
pub fn replay_operand<V: Elem>(right: &Mat<V>, sample: &[Triple<V>]) -> Dcsr<V> {
    let info = right.info();
    let mut local: Vec<Triple<V>> = sample
        .iter()
        .filter(|t| info.row_range.contains(&t.row) && info.col_range.contains(&t.col))
        .map(|t| {
            let (lr, lc) = info.to_local(t.row, t.col);
            Triple::new(lr, lc, t.val)
        })
        .collect();
    dspgemm_sparse::triple::sort_row_major(&mut local);
    dspgemm_sparse::triple::dedup_last_wins(&mut local);
    Dcsr::from_sorted_triples(info.local_rows(), info.local_cols(), &local)
}

/// Gustavson SpGEMM `left · block(right)`; returns the flops.
pub fn replay_spgemm<S: Semiring>(left: &Dcsr<S::Elem>, right: &Mat<S::Elem>) -> u64 {
    spgemm::<S, _, _>(left, right.block(), THREADS).flops
}

/// The masked, Bloom-fused kernel over the same operands, masked at the
/// pattern of their own product; returns the flops.
pub fn replay_masked<S: Semiring>(left: &Dcsr<S::Elem>, right: &Mat<S::Elem>) -> (MaskSet, u64) {
    let pattern = spgemm::<S, _, _>(left, right.block(), THREADS).result;
    let mask = MaskSet::from_pattern(&pattern);
    let flops = masked_spgemm_bloom::<S, _, _>(left, right.block(), &mask, 0, THREADS).flops;
    (mask, flops)
}

pub fn replay_masked_with<S: Semiring>(
    left: &Dcsr<S::Elem>,
    right: &Mat<S::Elem>,
    mask: &MaskSet,
) -> u64 {
    masked_spgemm_bloom::<S, _, _>(left, right.block(), mask, 0, THREADS).flops
}

pub fn engine_b<S: Semiring>(eng: &Engine<S>) -> &Mat<S::Elem> {
    &eng.b
}

pub fn session_adjacency(s: &Session) -> &Mat<u64> {
    s.adjacency()
}
