//! The serving layer on the engine's batch lifecycle: an `AnalyticsSession`
//! is a shared-mode `DynSpGemm`, so it takes recovery as it is. Seeded
//! programs of inserts, general batches, deletions, recomputes, bare
//! publishes and pins, each with one crash, run under recovery; after every
//! step and every recovery `A` and `C` must equal
//! the static `A · A`, `F`'s pattern `C`'s, every view reading must equal a
//! fresh bootstrap on that static product, and every pinned epoch must stay
//! bit-stable. The programs run over the ring `U64Plus`, where every batch
//! is Algorithm 1 and `F` must hold the path counts of the product, and over
//! `MinPlus`, where a general batch is Algorithm 2 and `F` holds Bloom bits.

use dspgemm::analytics::{
    AnalyticsSession, BatchDelta, CommonNeighborsView, FrozenView, ScoreReading, SessionSnapshot,
    TriangleCountView, TriangleReading, View, ViewCx, ViewId,
};
use dspgemm::core::distmat::Elem;
use dspgemm::core::dyn_general::GeneralUpdates;
use dspgemm::core::recovery::{RecoveryConfig, RecoveryReport};
use dspgemm::core::summa::summa_bloom;
use dspgemm::core::{Batch, DistMat};
use dspgemm::mpi::{catch_comm_mut, run, Comm, CommError};
use dspgemm::sparse::semiring::{MinPlus, Semiring, U64Plus};
use dspgemm::sparse::{Index, Triple};
use dspgemm::util::rng::{Rng, SplitMix64};
use dspgemm::util::stats::PhaseTimer;
use std::any::Any;
use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc};
use std::time::Duration;

const N: Index = 24;

type Matrix<V> = BTreeMap<(Index, Index), V>;
type Session = AnalyticsSession<U64Plus>;

const RECOVERY: RecoveryConfig = RecoveryConfig { anchor_period: 3 };

/// A semiring the session model runs on.
trait Model: Semiring {
    /// A drawn integer as a value.
    fn lift(x: u64) -> Self::Elem;

    /// A fresh triangle-count view, where the semiring serves one.
    fn triangle_view() -> Option<Box<dyn View<Self>>>;
}

impl Model for U64Plus {
    fn lift(x: u64) -> u64 {
        x
    }

    fn triangle_view() -> Option<Box<dyn View<Self>>> {
        Some(Box::new(TriangleCountView::new()))
    }
}

impl Model for MinPlus {
    fn lift(x: u64) -> f64 {
        x as f64
    }

    fn triangle_view() -> Option<Box<dyn View<Self>>> {
        None
    }
}

/// `a · b` over `S`, entry by entry.
fn product<S: Semiring>(a: &Matrix<S::Elem>, b: &Matrix<S::Elem>) -> Matrix<S::Elem> {
    let mut c = Matrix::new();
    for (&(i, k), &x) in a {
        for (&(_, j), &y) in b.range((k, 0)..(k + 1, 0)) {
            add_into::<S>(&mut c, (i, j), S::mul(x, y));
        }
    }
    c
}

/// `m[k] += x` over `S`, an absent entry standing for `S::zero()`.
fn add_into<S: Semiring>(m: &mut Matrix<S::Elem>, k: (Index, Index), x: S::Elem) {
    let e = m.entry(k).or_insert(S::zero());
    *e = S::add(*e, x);
}

fn triples_of<V: Copy>(m: &Matrix<V>) -> Vec<Triple<V>> {
    m.iter().map(|(&(i, j), &v)| Triple::new(i, j, v)).collect()
}

/// Algebraic tuples, every other one in the top-left third: a skewed
/// stream.
fn algebraic_tuples<S: Model>(rng: &mut SplitMix64, count: usize) -> Vec<Triple<S::Elem>> {
    (0..count)
        .map(|t| {
            let span = if t % 2 == 0 { N as u64 / 3 } else { N as u64 };
            let (i, j) = (rng.gen_range(span), rng.gen_range(span));
            Triple::new(i as Index, j as Index, S::lift(rng.gen_range(3) + 1))
        })
        .collect()
}

/// General updates of `m` by `rank`: deletions of present entries and value
/// writes, all in the rows `i ≡ rank (mod p)` and on distinct positions, so
/// no two ranks' updates of one batch conflict.
fn general_updates<S: Model>(
    m: &Matrix<S::Elem>,
    rng: &mut SplitMix64,
    p: usize,
    rank: usize,
) -> GeneralUpdates<S::Elem> {
    let mut upd = GeneralUpdates::new();
    let present: Vec<_> = m
        .keys()
        .filter(|k| k.0 as usize % p == rank)
        .copied()
        .collect();
    let rows: Vec<Index> = (0..N).filter(|&i| i as usize % p == rank).collect();
    for _ in 0..2 {
        if !present.is_empty() {
            let k = present[rng.gen_range(present.len() as u64) as usize];
            if !upd.deletes.contains(&k) {
                upd.deletes.push(k);
            }
        }
    }
    for _ in 0..2 {
        let i = rows[rng.gen_range(rows.len() as u64) as usize];
        let j = rng.gen_range(N as u64) as Index;
        if !upd.deletes.contains(&(i, j)) && !upd.sets.iter().any(|t| (t.row, t.col) == (i, j)) {
            upd.sets
                .push(Triple::new(i, j, S::lift(rng.gen_range(9) + 1)));
        }
    }
    upd
}

/// One step of a session program. Every step publishes exactly one epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Op {
    /// The engine's `try_apply` of an algebraic batch.
    Insert,
    /// The session's own `insert_edges`.
    SessionInsert,
    /// The engine's `try_apply` of a general batch.
    General,
    /// The session's own `delete_edges`.
    SessionDelete,
    /// The engine's `try_apply` of a static recompute.
    Recompute,
    /// A publish with nothing committed since the last one.
    Publish,
}

const OPS: [Op; 6] = [
    Op::Insert,
    Op::SessionInsert,
    Op::General,
    Op::SessionDelete,
    Op::Recompute,
    Op::Publish,
];

#[derive(Debug, Clone)]
struct Step {
    op: Op,
    /// Pin the epoch this step publishes.
    pin: bool,
    /// Drop the oldest pin after this step.
    unpin: bool,
    /// Arm a crash of `rank` before its `k`-th send, ahead of this step.
    crash: Option<(usize, u64)>,
}

/// One rank's share of one step's updates.
#[derive(Debug, Clone)]
enum Input<V> {
    Algebraic(Vec<Triple<V>>),
    General(GeneralUpdates<V>),
    Nothing,
}

/// A session program: its steps, every rank's inputs, the candidate pairs
/// of the common-neighbour view, and the oracle — `A` before the first step
/// and after each.
struct Program<S: Model> {
    steps: Vec<Step>,
    /// `inputs[step][rank]`.
    inputs: Vec<Vec<Input<S::Elem>>>,
    candidates: Vec<(Index, Index)>,
    expected: Vec<Matrix<S::Elem>>,
}

impl<S: Model> Program<S> {
    /// A seeded program of `len` random steps with one crash at a random
    /// step, rank and send.
    fn random(p: usize, seed: u64, len: usize) -> Self {
        let mut rng = SplitMix64::new(seed);
        let crash_step = rng.gen_range(len as u64) as usize;
        let steps: Vec<Step> = (0..len)
            .map(|s| Step {
                op: OPS[rng.gen_range(OPS.len() as u64) as usize],
                pin: rng.gen_range(3) == 0,
                unpin: rng.gen_range(3) == 0,
                crash: (s == crash_step)
                    .then(|| (rng.gen_range(p as u64) as usize, rng.gen_range(60) + 1)),
            })
            .collect();
        let mut a = Matrix::new();
        for t in algebraic_tuples::<S>(&mut rng, 70) {
            a.insert((t.row, t.col), t.val);
        }
        let candidates = (0..40)
            .map(|_| {
                let u = rng.gen_range(N as u64) as Index;
                (u, rng.gen_range(N as u64) as Index)
            })
            .collect();
        let mut expected = vec![a.clone()];
        let mut inputs = Vec::new();
        for step in &steps {
            let per_rank: Vec<Input<S::Elem>> = (0..p)
                .map(|rank| match step.op {
                    Op::Insert | Op::SessionInsert => {
                        Input::Algebraic(algebraic_tuples::<S>(&mut rng, 4))
                    }
                    Op::General => Input::General(general_updates::<S>(&a, &mut rng, p, rank)),
                    Op::SessionDelete => {
                        let upd = general_updates::<S>(&a, &mut rng, p, rank);
                        Input::General(GeneralUpdates {
                            sets: Vec::new(),
                            deletes: upd.deletes,
                        })
                    }
                    _ => Input::Nothing,
                })
                .collect();
            for input in &per_rank {
                match input {
                    Input::Algebraic(ts) => {
                        for t in ts {
                            add_into::<S>(&mut a, (t.row, t.col), t.val);
                        }
                    }
                    Input::General(upd) => {
                        for k in &upd.deletes {
                            a.remove(k);
                        }
                        for t in &upd.sets {
                            a.insert((t.row, t.col), t.val);
                        }
                    }
                    Input::Nothing => {}
                }
            }
            inputs.push(per_rank);
            expected.push(a.clone());
        }
        Self {
            steps,
            inputs,
            candidates,
            expected,
        }
    }

    fn crash_step(&self) -> usize {
        self.steps.iter().position(|s| s.crash.is_some()).unwrap()
    }
}

/// The views every program registers: the triangle count where the
/// semiring serves one, and the common-neighbour scores.
struct Views {
    tri: Option<ViewId>,
    cn: ViewId,
}

/// This rank's candidate scores from a common-neighbour reading, in
/// candidate order.
fn sorted_scores<V>(mut scores: Vec<(Index, Index, V)>) -> Vec<(Index, Index, V)> {
    scores.sort_unstable_by_key(|&(u, w, _)| (u, w));
    scores
}

fn live_tri<S: Semiring>(s: &AnalyticsSession<S>, v: &Views) -> Option<u64> {
    let tri = |id| s.view_as::<TriangleCountView>(id).unwrap().masked_sum();
    v.tri.map(tri)
}

fn live_cn<S: Semiring>(s: &AnalyticsSession<S>, v: &Views) -> Vec<(Index, Index, S::Elem)> {
    let view = s.view_as::<CommonNeighborsView<S>>(v.cn).unwrap();
    sorted_scores(view.local_scores().collect())
}

/// What an epoch reads: this rank's `C` block, the triangle view's masked
/// sum and this rank's common-neighbour scores.
#[derive(Debug, PartialEq)]
struct Reading<V> {
    c: Vec<Triple<V>>,
    tri: Option<u64>,
    cn: Vec<(Index, Index, V)>,
}

fn read_epoch<S: Semiring>(snap: &SessionSnapshot<S>, v: &Views) -> Reading<S::Elem> {
    let cn = snap.view_as::<ScoreReading<S>>(v.cn).unwrap();
    let tri = |id| snap.view_as::<TriangleReading>(id).unwrap().masked_sum();
    Reading {
        c: snap.product().block().to_triples(),
        tri: v.tri.map(tri),
        cn: sorted_scores(cn.local_scores().to_vec()),
    }
}

/// One pinned epoch and what it read at pin time.
struct Pin<S: Semiring> {
    snap: Arc<SessionSnapshot<S>>,
    seen: Reading<S::Elem>,
}

fn pin<S: Semiring>(s: &AnalyticsSession<S>, v: &Views) -> Pin<S> {
    let snap = s.pin();
    let seen = read_epoch(&snap, v);
    Pin { snap, seen }
}

/// Asserts that this rank's block of `mat` is `want`'s.
fn check_block<V: Elem>(mat: &DistMat<V>, want: &Matrix<V>, what: &str) {
    let info = mat.info();
    let mine: Vec<Triple<V>> = want
        .iter()
        .filter(|(k, _)| info.row_range.contains(&k.0) && info.col_range.contains(&k.1))
        .map(|(&(i, j), &x)| Triple::new(i, j, x))
        .collect();
    assert_eq!(mat.to_global_triples(), mine, "{what}");
}

/// Asserts, locally, that this rank's blocks of `A` and `C` equal the
/// oracle's, that `F`'s pattern is `C`'s — and over a ring that `F` holds
/// every entry's path count, the `U64Plus` product of `A`'s 0/1 pattern with
/// itself — that each view reads what a bootstrap on the oracle's `A` and
/// `A · A` reads (the triangle view's full masked sum; the common-neighbour
/// view's candidates this rank's block owns, with their product entries),
/// that the latest epoch froze those readings, and that every pin is
/// unchanged.
fn check_state<S: Model>(
    s: &AnalyticsSession<S>,
    v: &Views,
    cands: &[(Index, Index)],
    a: &Matrix<S::Elem>,
    pins: &[Pin<S>],
    at: &str,
) {
    let c = product::<S>(a, a);
    check_block(
        s.adjacency(),
        a,
        &format!("{at}: A diverged from the static A·A"),
    );
    check_block(
        s.product(),
        &c,
        &format!("{at}: C diverged from the static A·A"),
    );
    let f = s.f.as_ref().expect("a session tracks F");
    if S::NEG.is_some() {
        let ones: Matrix<u64> = a.keys().map(|&k| (k, 1)).collect();
        let counts = product::<U64Plus>(&ones, &ones);
        check_block(
            f,
            &counts,
            &format!("{at}: F diverged from the path counts"),
        );
    }
    let f_keys = f.to_global_triples().into_iter().map(|t| (t.row, t.col));
    let c_keys = s
        .product()
        .to_global_triples()
        .into_iter()
        .map(|t| (t.row, t.col));
    assert!(f_keys.eq(c_keys), "{at}: F's pattern is not C's");
    let masked = a.keys().fold(S::zero(), |acc, k| {
        S::add(acc, c.get(k).copied().unwrap_or(S::zero()))
    });
    assert_eq!(
        live_tri(s, v).map(S::lift),
        v.tri.map(|_| masked),
        "{at}: the triangle view diverged from a bootstrap"
    );
    let info = s.product().info();
    let mut owned = sorted_scores(
        cands
            .iter()
            .filter(|&&(u, w)| info.row_range.contains(&u) && info.col_range.contains(&w))
            .filter_map(|&(u, w)| c.get(&(u, w)).map(|&x| (u, w, x)))
            .collect(),
    );
    owned.dedup();
    assert_eq!(
        live_cn(s, v),
        owned,
        "{at}: the common-neighbour view diverged from a bootstrap"
    );
    let latest = read_epoch(&s.pin(), v);
    assert_eq!(
        (latest.tri, &latest.cn),
        (live_tri(s, v), &live_cn(s, v)),
        "{at}: the latest epoch did not freeze the live readings"
    );
    for p in pins {
        assert_eq!(
            read_epoch(&p.snap, v),
            p.seen,
            "{at}: pinned epoch {} moved",
            p.snap.epoch()
        );
    }
}

/// Bootstraps fresh views on a static recompute of the session's `A` and
/// asserts the live views read the same. Collective.
fn check_fresh_bootstrap<S: Model>(
    s: &AnalyticsSession<S>,
    v: &Views,
    cands: &[(Index, Index)],
    at: &str,
) {
    let grid = s.grid();
    let a = s.adjacency();
    let (c, _, _) = summa_bloom::<S>(grid, a, a, 1, &mut PhaseTimer::new());
    let cx = ViewCx { grid, a, c: &c };
    let tri = S::triangle_view().map(|mut tri| {
        tri.bootstrap(&cx);
        let tri = tri.as_any().downcast_ref::<TriangleCountView>();
        tri.expect("a triangle view").masked_sum()
    });
    let mut cn = CommonNeighborsView::<S>::new(cands.to_vec());
    cn.bootstrap(&cx);
    assert_eq!(live_tri(s, v), tri, "{at}: triangle view");
    assert_eq!(
        live_cn(s, v),
        sorted_scores(cn.local_scores().collect()),
        "{at}: common-neighbour view"
    );
}

/// Runs one step's operation and its publish.
fn apply_step<S: Model>(
    s: &mut AnalyticsSession<S>,
    op: Op,
    input: &Input<S::Elem>,
) -> Result<(), CommError> {
    match (op, input.clone()) {
        (Op::SessionInsert, Input::Algebraic(t)) => {
            return catch_comm_mut(|| s.insert_edges(t)).map(drop)
        }
        (Op::SessionDelete, Input::General(upd)) => {
            return catch_comm_mut(|| s.delete_edges(upd.deletes)).map(drop)
        }
        _ => {}
    }
    let (grid, e) = s.engine_mut();
    match (op, input.clone()) {
        (Op::Insert, Input::Algebraic(t)) => drop(e.try_apply(grid, Batch::Algebraic(t, vec![]))?),
        (Op::General, Input::General(upd)) => {
            drop(e.try_apply(grid, Batch::General(upd, GeneralUpdates::new()))?)
        }
        (Op::Recompute, _) => drop(e.try_apply(grid, Batch::Recompute)?),
        (Op::Publish, _) => {}
        (op, input) => panic!("{op:?} cannot take {input:?}"),
    }
    e.publish();
    Ok(())
}

/// What one rank observed over a program.
#[derive(Debug)]
struct Outcome<V> {
    reports: Vec<RecoveryReport>,
    final_c: Option<Vec<Triple<V>>>,
}

/// Drives `prog` on this rank with recovery on: recovers from the armed
/// crash, resumes at the step after the commit frontier, and checks the
/// state after every step and every recovery. Fresh bootstraps are
/// collective, so they run where no crash can land in them: before the
/// crash step, after the recovery, at the end.
fn drive<S: Model>(comm: &Comm, prog: &Program<S>) -> Outcome<S::Elem> {
    let me = comm.rank();
    let feed = if me == 0 {
        triples_of(&prog.expected[0])
    } else {
        vec![]
    };
    let mut s = AnalyticsSession::<S>::from_triples(comm, N, 1, feed);
    let v = Views {
        tri: S::triangle_view().map(|tri| s.register(tri)),
        cn: s.register(Box::new(CommonNeighborsView::new(prog.candidates.clone()))),
    };
    let cands = &prog.candidates;
    let mut res = {
        let (grid, e) = s.engine_mut();
        e.enable_recovery(grid, RECOVERY)
    };
    let crash_step = prog.crash_step();
    let mut pins: VecDeque<Pin<S>> = VecDeque::new();
    let mut reports = Vec::new();
    // Step `st` publishes epoch `base.1 + (st - base.0)`: the construction
    // and each registration published the epochs before it.
    let (mut st, mut base) = (0usize, (0usize, s.epoch() + 1));
    let mut armed = false;
    loop {
        if let Err(err) = res {
            let (grid, e) = s.engine_mut();
            let report = e.recover(grid, err);
            st = base.0 + (report.committed_publishes - base.1) as usize;
            base = (st, report.committed_publishes + 1);
            reports.push(report);
            let at = format!("recovery to step {st}");
            check_state(
                &s,
                &v,
                cands,
                &prog.expected[st],
                pins.make_contiguous(),
                &at,
            );
            check_fresh_bootstrap(&s, &v, cands, &at);
        }
        let step = prog.steps.get(st);
        match step.and_then(|x| x.crash) {
            Some((rank, k)) if rank == me && !armed => {
                comm.arm_crash(k);
                armed = true;
            }
            _ => {}
        }
        if step.is_none() {
            comm.disarm_crash();
        }
        res = match step {
            Some(x) => apply_step(&mut s, x.op, &prog.inputs[st][me]),
            None => catch_comm_mut(|| comm.barrier()),
        };
        if res.is_ok() {
            let Some(x) = step else { break };
            let at = format!("step {st} ({:?})", x.op);
            check_state(
                &s,
                &v,
                cands,
                &prog.expected[st + 1],
                pins.make_contiguous(),
                &at,
            );
            if st < crash_step || !reports.is_empty() {
                check_fresh_bootstrap(&s, &v, cands, &at);
            }
            if x.pin {
                pins.push_back(pin(&s, &v));
            }
            if x.unpin {
                pins.pop_front();
            }
            st += 1;
        }
    }
    check_fresh_bootstrap(&s, &v, cands, "the end");
    Outcome {
        reports,
        final_c: s.product().gather_to_root(comm),
    }
}

/// Prints the program of a failing test.
struct SeedGuard(String);

impl Drop for SeedGuard {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!("failing session program: {}", self.0);
        }
    }
}

/// Runs `prog` at `p` under a watchdog (a rank that skips a collective its
/// peers run deadlocks the grid) and asserts what must agree across ranks.
fn check_program<S: Model>(p: usize, prog: Program<S>) -> Vec<Outcome<S::Elem>> {
    let prog = Arc::new(prog);
    let (tx, rx) = mpsc::channel();
    let shared = Arc::clone(&prog);
    std::thread::spawn(move || {
        let out = catch_unwind(AssertUnwindSafe(|| {
            run(p, |comm| drive(comm, &shared)).results
        }));
        let _ = tx.send(out);
    });
    let results = match rx.recv_timeout(Duration::from_secs(120)) {
        Ok(Ok(results)) => results,
        Ok(Err(panic)) => resume_unwind(panic),
        Err(_) => panic!("the session program deadlocked"),
    };
    let first = &results[0];
    for (rank, o) in results.iter().enumerate() {
        assert_eq!(
            o.reports, first.reports,
            "rank {rank}: recovery reports differ"
        );
        assert!(o.reports.len() <= 1, "one crash, at most one recovery");
    }
    let last = prog.expected.last().expect("initial state");
    let want = triples_of(&product::<S>(last, last));
    assert_eq!(first.final_c.as_ref(), Some(&want), "final C diverged");
    results
}

/// Runs the seeded programs at p ∈ {4, 9}, recovery on, one crash each,
/// over `S`.
fn check_programs<S: Model>() {
    let mut recovered = 0;
    for (p, seeds) in [(4usize, 1..=8u64), (9, 1..=4)] {
        for seed in seeds {
            let _guard = SeedGuard(format!("{} p={p} seed={seed}", S::name()));
            let out = check_program(p, Program::<S>::random(p, seed, 14));
            recovered += out[0].reports.len();
        }
    }
    // The programs exercise what they claim to.
    assert!(recovered >= 6, "only {recovered} programs recovered");
}

/// The session model test over `U64Plus`: every batch runs Algorithm 1 on
/// path counts, and the triangle view serves every batch.
#[test]
fn session_programs_match_static_recompute() {
    check_programs::<U64Plus>();
}

/// The session model test over `MinPlus`: general batches and deletions run
/// Algorithm 2, and its change feed refreshes the common-neighbour view.
#[test]
fn session_programs_match_static_recompute_min_plus() {
    check_programs::<MinPlus>();
}

/// Counts its freezes since its last bootstrap. Every publish freezes every
/// view it shows once, and publishes number epochs consecutively, so the
/// freezes since a bootstrap went into the epochs `latest − freezes + 1`
/// through the latest.
struct FreezeLog {
    freezes: u64,
}

impl View<U64Plus> for FreezeLog {
    fn name(&self) -> &str {
        "freeze-log"
    }

    fn bootstrap(&mut self, _cx: &ViewCx<'_, U64Plus>) {
        self.freezes = 0;
    }

    fn post_batch(&mut self, _cx: &ViewCx<'_, U64Plus>, _delta: &BatchDelta<'_, U64Plus>) {}

    fn freeze(&mut self) -> FrozenView {
        self.freezes += 1;
        Arc::new(self.freezes)
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// A view registered after the rollback anchor is frozen into no epoch
/// older than its registration, though a recovery replays those epochs: a
/// p = 4 session anchors, commits a batch, registers the view, and crashes
/// rank 1 in the next batch.
#[test]
fn replayed_epochs_omit_views_registered_after_them() {
    let out = run(4, |comm| {
        let mut rng = SplitMix64::new(31 + comm.rank() as u64);
        let mut s = Session::new(comm, N);
        s.register(Box::new(TriangleCountView::new()));
        let (grid, e) = s.engine_mut();
        e.enable_recovery(grid, RECOVERY).expect("fault-free");
        s.insert_edges(algebraic_tuples::<U64Plus>(&mut rng, 6));
        let log = s.register(Box::new(FreezeLog { freezes: 0 }));
        let registered = s.epoch();
        let published = registered + 1;
        // Past the barrier every rank has left the previous batch, so the
        // crash can only interrupt the barrier or this batch.
        let err = catch_comm_mut(|| {
            comm.barrier();
            if comm.rank() == 1 {
                comm.arm_crash(1);
            }
            s.insert_edges(algebraic_tuples::<U64Plus>(&mut rng, 6));
        })
        .expect_err("rank 1 crashed in the batch");
        let (grid, e) = s.engine_mut();
        let report = e.recover(grid, err);
        let anchor = published - report.rollback_epochs;
        let freezes = s.view_as::<FreezeLog>(log).expect("registered").freezes;
        let first_frozen = s.epoch() + 1 - freezes;
        let latest_reads = s.pin().view_as::<u64>(log).is_some();
        (anchor, registered, first_frozen, latest_reads)
    });
    for (rank, &(anchor, registered, first_frozen, latest_reads)) in out.results.iter().enumerate()
    {
        assert!(
            anchor < registered,
            "rank {rank}: the rollback anchor must predate the view"
        );
        assert!(
            first_frozen >= registered,
            "rank {rank}: the view was frozen into epoch {first_frozen}, registered at {registered}"
        );
        assert!(latest_reads, "rank {rank}: the latest epoch shows the view");
    }
}
