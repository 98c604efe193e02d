//! End-to-end epoch-anchored recovery: a rank crashes mid-batch, the
//! survivors roll back to the agreed anchor, the crashed rank rebuilds as a
//! replacement from its buddy's replica, and deterministic replay makes the
//! final state bit-identical to the fault-free execution.
//!
//! This file is the repository's one recovery oracle. Its seeded model runs
//! every program twice — with its crash and as the crash-free twin — and
//! checks each step against a static recompute, each crashed run against
//! its twin, delay storms against the unstormed wire volume, and crashes at
//! every send of the steps a batch stream can crash in: the first batch and
//! an anchor refresh.

use dspgemm_core::distmat::Elem;
use dspgemm_core::dyn_general::GeneralUpdates;
use dspgemm_core::engine::DynSpGemm;
use dspgemm_core::recovery::{RecoveryConfig, RecoveryReport};
use dspgemm_core::{Batch, DistMat, Grid, Snapshot};
use dspgemm_mpi::{catch_comm_mut, run, run_with_faults, Comm, CommError, CommStats, FaultPlan};
use dspgemm_sparse::semiring::{MinPlus, Semiring, U64Plus};
use dspgemm_sparse::{Index, Triple};
use dspgemm_util::rng::{Rng, SplitMix64};
use dspgemm_util::stats::PhaseTimer;
use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc};
use std::time::Duration;

const N: Index = 20;

fn triples(seed: u64, count: usize) -> Vec<Triple<u64>> {
    let mut rng = SplitMix64::new(seed);
    (0..count)
        .map(|_| {
            Triple::new(
                rng.gen_range(N as u64) as Index,
                rng.gen_range(N as u64) as Index,
                rng.gen_range(5) + 1,
            )
        })
        .collect()
}

/// Rank-local update feed for one batch — a pure function of
/// `(batch, rank)`, so a replayed or re-submitted batch gets bit-identical
/// inputs.
fn batch_updates(batch: u64, rank: usize) -> (Vec<Triple<u64>>, Vec<Triple<u64>>) {
    let s = batch * 97 + rank as u64;
    (triples(1_000 + s, 5), triples(2_000 + s, 5))
}

/// What one rank observed over a full driven run.
type Outcome = (
    Vec<(u64, Vec<Triple<u64>>)>, // (batch, local C block) at each local commit
    Option<Vec<Triple<u64>>>,     // root-gathered final C
    u64,                          // final local flop counter
    u64,                          // final latest epoch number
    Vec<Triple<u64>>,             // pinned pre-crash snapshot's local C content at run end
    u64,                          // pinned epoch number
    u64,                          // recoveries this rank performed
    Option<RecoveryReport>,       // the report of that recovery
);

/// Drives `batches` algebraic batches through the fault-tolerant path,
/// optionally arming a crash on `crash = (rank, batch)`, recovering and
/// re-submitting uncommitted batches until all commit.
fn drive(comm: &Comm, batches: u64, crash: Option<(usize, u64)>, cfg: RecoveryConfig) -> Outcome {
    let grid = Grid::new(comm);
    let me = comm.rank();
    let mut timer = PhaseTimer::new();
    let feed = |s: u64| if me == 0 { triples(s, 60) } else { vec![] };
    let a = DistMat::from_global_triples(&grid, N, N, feed(1), 1, &mut timer);
    let b = DistMat::from_global_triples(&grid, N, N, feed(2), 1, &mut timer);
    let mut e = DynSpGemm::<U64Plus>::new(&grid, a, b, 1, false);
    e.enable_recovery(&grid, cfg)
        .expect("no crash lands before batch 1");

    let mut per_batch = Vec::new();
    let mut pinned = None;
    let mut armed = false;
    let mut recoveries = 0u64;
    let mut last_report = None;
    let mut b_idx = 0u64;
    while b_idx < batches {
        if let Some((crank, cbatch)) = crash {
            if me == crank && b_idx == cbatch && !armed {
                comm.arm_crash(1);
                armed = true;
            }
        }
        let (a_ups, b_ups) = batch_updates(b_idx, me);
        match e.try_apply(&grid, Batch::Algebraic(a_ups, b_ups)) {
            Ok(_) => {
                e.publish();
                // Observe each committed batch from the published snapshot:
                // a local, bit-stable read. (A cross-rank gather here would
                // race the asynchronous failure notification — collectives
                // between batches must sit inside a failure-aware region,
                // which is exactly the serving-path reason reads go through
                // snapshots.) A rank interrupted mid-batch never locally
                // publishes that epoch — replay realigns its state, but the
                // observation for that one batch is genuinely absent, so
                // entries carry their batch index.
                let snap = e.snapshot();
                per_batch.push((b_idx, snap.c().block().to_triples()));
                drop(snap);
                if b_idx == 0 {
                    // Pin the epoch of batch 0: it must stay bit-stable
                    // through the crash, rollback and replay.
                    pinned = Some(e.snapshot());
                }
                b_idx += 1;
            }
            Err(err) => {
                let report = e.recover(&grid, err);
                assert_eq!(report.failed_rank, crash.expect("injected failure").0);
                // The furthest-ahead rank rolled back exactly the window
                // replay re-applies.
                assert_eq!(report.replayed_batches, report.rollback_epochs);
                recoveries += 1;
                b_idx = report.committed_publishes - 1;
                last_report = Some(report);
            }
        }
    }
    let final_c = e.c.gather_to_root(comm);
    let flops = e.flops;
    let epoch = e.epoch().expect("published");
    let pinned = pinned.expect("batch 0 always commits before any crash at batch >= 1");
    // Retention: the pin keeps exactly one extra epoch alive on ranks whose
    // store survived; the replacement's fresh store holds only its latest
    // (the pinned Arc outlives the old store independently).
    let crashed_here = crash.map(|(r, _)| r == me).unwrap_or(false);
    assert_eq!(e.snapshots().retained(), if crashed_here { 1 } else { 2 });
    let pin_content = pinned.c().block().to_triples();
    let pin_epoch = pinned.epoch();
    drop(pinned);
    assert_eq!(
        e.snapshots().retained(),
        1,
        "dropping the pin frees the epoch"
    );
    (
        per_batch,
        final_c,
        flops,
        epoch,
        pin_content,
        pin_epoch,
        recoveries,
        last_report,
    )
}

/// Crash vs. fault-free must agree bit-for-bit: per-batch root-gathered C,
/// final C, flop counters, and pinned pre-crash epochs. Exercised both with
/// the crash landing on a write-ahead-log exchange (anchor_period large) and
/// on an anchor refresh (anchor_period small, two-window rollback).
#[test]
fn crash_recovery_matches_fault_free_run() {
    for (p, crash_rank) in [(4usize, 2usize), (9, 4)] {
        for anchor_period in [2u64, 4] {
            let batches = 6u64;
            let cfg = RecoveryConfig { anchor_period };
            let baseline = run(p, move |comm| drive(comm, batches, None, cfg));
            let crashed = run(p, move |comm| {
                drive(comm, batches, Some((crash_rank, 2)), cfg)
            });
            for rank in 0..p {
                let (pb_ff, fc_ff, fl_ff, ep_ff, pin_ff, pe_ff, rec_ff, rep_ff) =
                    &baseline.results[rank];
                let (pb_cr, fc_cr, fl_cr, ep_cr, pin_cr, pe_cr, rec_cr, rep_cr) =
                    &crashed.results[rank];
                // The fault-free arm observed every batch; the crash arm may
                // lack at most one observation per recovery (a survivor
                // interrupted mid-batch never locally publishes that epoch),
                // and every observation it did make must match bit-for-bit.
                assert_eq!(pb_ff.len() as u64, batches);
                assert!(
                    pb_cr.len() as u64 >= batches - rec_cr,
                    "p={p} ap={anchor_period} rank={rank}: more than one observation lost per recovery"
                );
                for (b, c_cr) in pb_cr {
                    let (_, c_ff) = &pb_ff[*b as usize];
                    assert_eq!(
                        c_ff, c_cr,
                        "p={p} ap={anchor_period} rank={rank} batch={b}: per-batch C diverged"
                    );
                }
                assert_eq!(pb_cr.last().map(|(b, _)| *b), Some(batches - 1));
                assert_eq!(
                    fc_ff, fc_cr,
                    "p={p} ap={anchor_period} rank={rank}: final C diverged"
                );
                assert_eq!(
                    fl_ff, fl_cr,
                    "p={p} ap={anchor_period} rank={rank}: flops diverged"
                );
                // Recovery inserts exactly one uniform extra epoch.
                assert_eq!(*ep_cr, ep_ff + 1, "p={p} ap={anchor_period} rank={rank}");
                assert_eq!(
                    pin_ff, pin_cr,
                    "p={p} ap={anchor_period} rank={rank}: pinned epoch content diverged"
                );
                assert_eq!(pe_ff, pe_cr);
                assert_eq!(*rec_ff, 0);
                assert_eq!(*rec_cr, 1);
                // The recovery protocol's agreed numbers are pinned, rank by
                // rank. `rebuild_bytes` is one replica bundle holding one
                // anchor of three images. `detect_ns` is a clock and stays
                // unpinned.
                assert_eq!(*rep_ff, None);
                let rep_cr = rep_cr.as_ref().expect("one recovery, one report");
                assert_eq!(
                    RecoveryReport {
                        detect_ns: 0,
                        ..rep_cr.clone()
                    },
                    RecoveryReport {
                        failed_rank: crash_rank,
                        committed_publishes: 3,
                        rollback_epochs: 2,
                        replayed_batches: 2,
                        rebuild_bytes: if p == 4 { 1512 } else { 1008 },
                        detect_ns: 0,
                    },
                    "p={p} ap={anchor_period} rank={rank}: recovery report moved"
                );
            }
            // The fault-free arm sent no failure traffic at all.
            assert_eq!(baseline.results.len(), p);
        }
    }
}

/// The write-ahead discipline is asserted, not assumed: applying a second
/// batch without publishing the first panics.
#[test]
fn try_apply_requires_publish_between_batches() {
    let out = run(1, |comm| {
        let grid = Grid::new(comm);
        let a = DistMat::<u64>::empty(&grid, 8, 8);
        let b = DistMat::<u64>::empty(&grid, 8, 8);
        let mut eng = DynSpGemm::<U64Plus>::new(&grid, a, b, 1, false);
        eng.enable_recovery(&grid, RecoveryConfig::default())
            .expect("fault-free");
        eng.try_apply(
            &grid,
            Batch::Algebraic(vec![Triple::new(0, 0, 1u64)], vec![]),
        )
        .expect("fault-free");
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = eng.try_apply(&grid, Batch::Recompute);
        }))
        .is_err()
    });
    assert!(out.results[0]);
}

/// The log stays bounded by the two-anchor window: after many batches with a
/// small anchor period, both the own log and the replica log hold at most
/// two windows of entries.
#[test]
fn log_stays_bounded_by_anchor_windows() {
    let out = run(4, |comm| {
        let grid = Grid::new(comm);
        let me = comm.rank();
        let mut timer = PhaseTimer::new();
        let feed = |s: u64| if me == 0 { triples(s, 60) } else { vec![] };
        let a = DistMat::from_global_triples(&grid, N, N, feed(1), 1, &mut timer);
        let b = DistMat::from_global_triples(&grid, N, N, feed(2), 1, &mut timer);
        let mut eng = DynSpGemm::<U64Plus>::new(&grid, a, b, 1, false);
        eng.enable_recovery(&grid, RecoveryConfig { anchor_period: 3 })
            .expect("fault-free");
        let mut longest = 0usize;
        for batch in 0..20u64 {
            let (a_ups, b_ups) = batch_updates(batch, me);
            eng.try_apply(&grid, Batch::Algebraic(a_ups, b_ups))
                .expect("fault-free");
            eng.publish();
            let rec = eng.recovery().expect("enabled");
            longest = longest.max(rec.own.log.len()).max(rec.replica.log.len());
        }
        let rec = eng.recovery().expect("enabled");
        // Anchors advanced with the batches (initial anchor is at counter 1).
        (
            longest,
            rec.own.newest.published > 1,
            rec.own.prev.is_some(),
        )
    });
    for (longest, advanced, has_prev) in out.results {
        assert!(
            longest <= 2 * 3,
            "log grew past two anchor windows: {longest}"
        );
        assert!(advanced && has_prev);
    }
}

// ---------------------------------------------------------------------------
// The batch-lifecycle model: seeded operation sequences over every batch
// kind, publishes, pins and crashes, checked after every
// step against a single-process static recompute. It runs over the ring
// `U64Plus`, where every batch is Algorithm 1 and `F` counts paths, and over
// `MinPlus`, where a general batch is Algorithm 2 and `F` holds Bloom bits.
// ---------------------------------------------------------------------------

/// A semiring the model runs on.
trait Model: Semiring {
    /// A drawn integer as a value.
    fn lift(x: u64) -> Self::Elem;
}

impl Model for U64Plus {
    fn lift(x: u64) -> u64 {
        x
    }
}

impl Model for MinPlus {
    fn lift(x: u64) -> f64 {
        x as f64
    }
}

/// One step of a model program. Every step publishes exactly one epoch, so a
/// recovery's commit frontier names the step to resume from.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Op {
    /// `try_apply` of an algebraic batch.
    Algebraic,
    /// The infallible `apply_algebraic`.
    PlainAlgebraic,
    /// `try_apply` of a general batch.
    General,
    /// The infallible `apply_general`.
    PlainGeneral,
    /// `try_apply` of a static recompute.
    Recompute,
    /// A publish with nothing committed since the last one.
    Publish,
}

const OPS: [Op; 6] = [
    Op::Algebraic,
    Op::PlainAlgebraic,
    Op::General,
    Op::PlainGeneral,
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

impl Step {
    fn new(op: Op) -> Self {
        Self {
            op,
            pin: false,
            unpin: false,
            crash: None,
        }
    }

    fn crash(self, rank: usize, k: u64) -> Self {
        Self {
            crash: Some((rank, k)),
            ..self
        }
    }
}

/// One rank's share of one step's updates.
#[derive(Debug, Clone)]
enum Input<V> {
    Algebraic(Vec<Triple<V>>, Vec<Triple<V>>),
    General(GeneralUpdates<V>, GeneralUpdates<V>),
    Nothing,
}

type Matrix<V> = BTreeMap<(Index, Index), V>;

/// A model program: its steps, every rank's inputs, and the oracle — the
/// operands and their static product before the first step and after each.
struct Program<S: Model> {
    steps: Vec<Step>,
    /// `inputs[step][rank]`.
    inputs: Vec<Vec<Input<S::Elem>>>,
    /// `expected[s]` = `[A, B, C]` after the first `s` steps.
    expected: Vec<[Matrix<S::Elem>; 3]>,
}

const MODEL_RECOVERY: RecoveryConfig = RecoveryConfig { anchor_period: 3 };

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

fn apply_general_model<V: Copy>(m: &mut Matrix<V>, upd: &GeneralUpdates<V>) {
    for &k in &upd.deletes {
        m.remove(&k);
    }
    for t in &upd.sets {
        m.insert((t.row, t.col), t.val);
    }
}

impl<S: Model> Program<S> {
    /// Draws every rank's inputs for `steps` and runs the oracle over them.
    fn new(p: usize, seed: u64, steps: Vec<Step>) -> Self {
        let mut rng = SplitMix64::new(seed ^ 0x5EED);
        let draw = |rng: &mut SplitMix64| {
            let mut m = Matrix::new();
            for t in algebraic_tuples::<S>(rng, 60) {
                m.insert((t.row, t.col), t.val);
            }
            m
        };
        let (mut a, mut b) = (draw(&mut rng), draw(&mut rng));
        let mut expected = vec![[a.clone(), b.clone(), product::<S>(&a, &b)]];
        let mut inputs = Vec::new();
        for step in &steps {
            let per_rank: Vec<Input<S::Elem>> = (0..p)
                .map(|rank| match step.op {
                    Op::Algebraic | Op::PlainAlgebraic => Input::Algebraic(
                        algebraic_tuples::<S>(&mut rng, 4),
                        algebraic_tuples::<S>(&mut rng, 4),
                    ),
                    Op::General | Op::PlainGeneral => Input::General(
                        general_updates::<S>(&a, &mut rng, p, rank),
                        general_updates::<S>(&b, &mut rng, p, rank),
                    ),
                    _ => Input::Nothing,
                })
                .collect();
            for input in &per_rank {
                match input {
                    Input::Algebraic(ta, tb) => {
                        for (m, ts) in [(&mut a, ta), (&mut b, tb)] {
                            for t in ts {
                                add_into::<S>(m, (t.row, t.col), t.val);
                            }
                        }
                    }
                    Input::General(ua, ub) => {
                        apply_general_model(&mut a, ua);
                        apply_general_model(&mut b, ub);
                    }
                    Input::Nothing => {}
                }
            }
            inputs.push(per_rank);
            expected.push([a.clone(), b.clone(), product::<S>(&a, &b)]);
        }
        Self {
            steps,
            inputs,
            expected,
        }
    }

    /// The same program with its crash removed: the fault-free twin.
    fn crash_free(&self) -> Self {
        let steps = self.steps.iter().map(|st| Step {
            crash: None,
            ..st.clone()
        });
        Self {
            steps: steps.collect(),
            inputs: self.inputs.clone(),
            expected: self.expected.clone(),
        }
    }

    /// A seeded program of `len` random steps with one crash at a random
    /// step, rank and send.
    fn random(p: usize, seed: u64, len: usize) -> Self {
        let mut rng = SplitMix64::new(seed);
        let crash_step = rng.gen_range(len as u64) as usize;
        let steps = (0..len)
            .map(|s| {
                let mut step = Step::new(OPS[rng.gen_range(OPS.len() as u64) as usize]);
                step.pin = rng.gen_range(3) == 0;
                step.unpin = rng.gen_range(3) == 0;
                if s == crash_step {
                    step = step.crash(rng.gen_range(p as u64) as usize, rng.gen_range(40) + 1);
                }
                step
            })
            .collect();
        Self::new(p, seed, steps)
    }
}

fn triples_of<V: Copy>(m: &Matrix<V>) -> Vec<Triple<V>> {
    m.iter().map(|(&(i, j), &v)| Triple::new(i, j, v)).collect()
}

/// What one rank observed over a model run.
#[derive(Debug)]
struct ModelOutcome<V> {
    reports: Vec<RecoveryReport>,
    final_c: Option<Vec<Triple<V>>>,
    /// The final flop counter and latest epoch.
    flops: u64,
    epoch: u64,
    /// Whether this rank's armed crash fired.
    crashed: bool,
    /// For each step that committed, the messages this rank sent in it and
    /// its newest anchor's publish count after it. Indexed by step in a run
    /// without recoveries.
    per_step: Vec<(u64, u64)>,
}

type Pins<V> = VecDeque<(Arc<Snapshot<V>>, Vec<Triple<V>>)>;

/// Asserts that this rank's block of `mat` is `want`'s.
fn check_block<V: Elem>(mat: &DistMat<V>, want: &Matrix<V>, what: &str) {
    let info = mat.info();
    let mine: Vec<Triple<V>> = want
        .iter()
        .filter(|(k, _)| info.row_range.contains(&k.0) && info.col_range.contains(&k.1))
        .map(|(&(i, j), &v)| Triple::new(i, j, v))
        .collect();
    assert_eq!(mat.to_global_triples(), mine, "{what}");
}

/// Asserts this rank's blocks of `A`, `B` and `C` equal the oracle's, `F`'s
/// pattern `C`'s — and over a ring `F` every entry's path count, the
/// `U64Plus` product of `A`'s and `B`'s 0/1 patterns — every pinned epoch
/// its content at pin time, and its own and replica logs within two anchor
/// windows. Local: no collectives.
fn check_state<S: Model>(
    e: &DynSpGemm<S>,
    want: &[Matrix<S::Elem>; 3],
    pins: &Pins<S::Elem>,
    at: &str,
) {
    for (name, mat, want) in [
        ("A", &e.a, &want[0]),
        ("B", &e.b, &want[1]),
        ("C", &e.c, &want[2]),
    ] {
        check_block(
            mat,
            want,
            &format!("{at}: {name} diverged from the static recompute"),
        );
    }
    let f = e.f.as_ref().expect("the model tracks F");
    if S::NEG.is_some() {
        let pattern = |m: &Matrix<S::Elem>| m.keys().map(|&k| (k, 1)).collect();
        let counts = product::<U64Plus>(&pattern(&want[0]), &pattern(&want[1]));
        check_block(
            f,
            &counts,
            &format!("{at}: F diverged from the path counts"),
        );
    }
    let f_keys = f.to_global_triples().into_iter().map(|t| (t.row, t.col));
    let c_keys = e.c.to_global_triples().into_iter().map(|t| (t.row, t.col));
    assert!(f_keys.eq(c_keys), "{at}: F's pattern is not C's");
    for (pin, content) in pins {
        assert_eq!(
            &pin.c().block().to_triples(),
            content,
            "{at}: pinned epoch {} moved",
            pin.epoch()
        );
    }
    // Two anchor windows bound the log: an epoch holds at most one record.
    let rec = e.recovery().expect("recovery enabled");
    let bound = 2 * rec.cfg.anchor_period as usize;
    for (side, log) in [("own", &rec.own.log), ("replica", &rec.replica.log)] {
        assert!(
            log.len() <= bound,
            "{at}: {side} log holds {} records, past two anchor windows ({bound})",
            log.len()
        );
    }
}

/// Runs one step's operation and its publish.
fn apply_step<S: Model>(
    grid: &Grid,
    e: &mut DynSpGemm<S>,
    op: Op,
    input: &Input<S::Elem>,
) -> Result<(), CommError> {
    match (op, input.clone()) {
        (Op::Algebraic, Input::Algebraic(a, b)) => drop(e.try_apply(grid, Batch::Algebraic(a, b))?),
        (Op::PlainAlgebraic, Input::Algebraic(a, b)) => {
            drop(catch_comm_mut(|| e.apply_algebraic(grid, a, b))?)
        }
        (Op::General, Input::General(a, b)) => drop(e.try_apply(grid, Batch::General(a, b))?),
        (Op::PlainGeneral, Input::General(a, b)) => {
            drop(catch_comm_mut(|| e.apply_general(grid, a, b))?)
        }
        (Op::Recompute, _) => drop(e.try_apply(grid, Batch::Recompute)?),
        (Op::Publish, _) => {}
        (op, input) => panic!("{op:?} cannot take {input:?}"),
    }
    e.publish();
    Ok(())
}

/// Drives `prog` on this rank with recovery and filter tracking on:
/// recovers from the armed crash (survivors roll back and replay, the
/// crashed rank rebuilds as the replacement), resumes at the step after the
/// commit frontier, and checks the state after every step and every
/// recovery. A final barrier surfaces a failure no later step detected.
fn drive_model<S: Model>(comm: &Comm, prog: &Program<S>) -> ModelOutcome<S::Elem> {
    let grid = Grid::new(comm);
    let me = comm.rank();
    let mut timer = PhaseTimer::new();
    let feed = |m: &Matrix<S::Elem>| if me == 0 { triples_of(m) } else { vec![] };
    let [a0, b0, _] = &prog.expected[0];
    let a = DistMat::from_global_triples(&grid, N, N, feed(a0), 1, &mut timer);
    let b = DistMat::from_global_triples(&grid, N, N, feed(b0), 1, &mut timer);
    let mut e = DynSpGemm::<S>::new(&grid, a, b, 1, true);
    // A crash in step 0 may reach a rank still inside the enable fence; that
    // error recovers like a step's.
    let mut res = e.enable_recovery(&grid, MODEL_RECOVERY);
    let mut pins = Pins::new();
    let (mut reports, mut per_step) = (Vec::new(), Vec::new());
    let sent = || comm.comm_stats().per_rank[me].total_msgs();
    // Step `s` publishes epoch `base.1 + (s - base.0)`.
    let (mut s, mut base) = (0usize, (0usize, 1u64));
    let mut armed = false;
    loop {
        if let Err(err) = res {
            let report = e.recover(&grid, err);
            s = base.0 + (report.committed_publishes - base.1) as usize;
            base = (s, report.committed_publishes + 1);
            reports.push(report);
            check_state(
                &e,
                &prog.expected[s],
                &pins,
                &format!("recovery to step {s}"),
            );
        }
        let step = prog.steps.get(s);
        match step.and_then(|st| st.crash) {
            Some((rank, k)) if rank == me && !armed => {
                comm.arm_crash(k);
                armed = true;
            }
            _ => {}
        }
        if step.is_none() {
            comm.disarm_crash();
        }
        let sent_before = sent();
        res = match step {
            Some(st) => apply_step(&grid, &mut e, st.op, &prog.inputs[s][me]),
            None => catch_comm_mut(|| comm.barrier()),
        };
        if res.is_ok() {
            let Some(st) = step else { break };
            let anchor = e.recovery().expect("recovery enabled").own.newest.published;
            per_step.push((sent() - sent_before, anchor));
            check_state(
                &e,
                &prog.expected[s + 1],
                &pins,
                &format!("step {s} ({:?})", st.op),
            );
            if st.pin {
                let snap = e.snapshot();
                let content = snap.c().block().to_triples();
                pins.push_back((snap, content));
            }
            if st.unpin {
                pins.pop_front();
            }
            s += 1;
        }
    }
    ModelOutcome {
        reports,
        final_c: e.c.gather_to_root(comm),
        flops: e.flops,
        epoch: e.epoch().expect("published"),
        crashed: comm.has_crashed(),
        per_step,
    }
}

/// Prints the model run of a failing test.
struct SeedGuard(String);

impl Drop for SeedGuard {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!("failing model run: {}", self.0);
        }
    }
}

/// Runs `prog` at `p` under `plan` and asserts what must agree across
/// ranks: the recovery reports, and the final product against the oracle.
/// A recovery happens exactly when the armed crash fired, and names the
/// rank it fired on. A rank that skips a collective its peers run
/// deadlocks the grid; the watchdog turns that hang into a failure.
/// Returns every rank's outcome and the run's wire volume.
fn run_model<S: Model>(
    p: usize,
    prog: Program<S>,
    plan: FaultPlan,
) -> (Vec<ModelOutcome<S::Elem>>, CommStats) {
    let prog = Arc::new(prog);
    let (tx, rx) = mpsc::channel();
    let shared = Arc::clone(&prog);
    std::thread::spawn(move || {
        let out = catch_unwind(AssertUnwindSafe(|| {
            let out = run_with_faults(p, plan, |comm| drive_model(comm, &shared));
            (out.results, out.stats.volume())
        }));
        let _ = tx.send(out);
    });
    let (results, volume) = match rx.recv_timeout(Duration::from_secs(60)) {
        Ok(Ok(out)) => out,
        Ok(Err(panic)) => resume_unwind(panic),
        Err(_) => panic!("the model run deadlocked"),
    };
    let first = &results[0];
    let fired: Vec<usize> = (0..p).filter(|&r| results[r].crashed).collect();
    assert!(fired.len() <= 1, "one crash, at most one rank crashed");
    for (rank, o) in results.iter().enumerate() {
        assert_eq!(
            o.reports, first.reports,
            "rank {rank}: recovery reports differ"
        );
    }
    assert_eq!(
        first.reports.len(),
        fired.len(),
        "a recovery happens exactly when the armed crash fires"
    );
    for (report, &rank) in first.reports.iter().zip(&fired) {
        assert_eq!(report.failed_rank, rank);
        assert_eq!(
            report.replayed_batches, report.rollback_epochs,
            "replay re-applies exactly the rolled-back window"
        );
        assert!(
            report.rebuild_bytes > 0,
            "the replacement rebuild moves bytes"
        );
    }
    let want = triples_of(&prog.expected.last().expect("initial state")[2]);
    assert_eq!(first.final_c.as_ref(), Some(&want), "final C diverged");
    (results, volume)
}

/// Runs `prog`'s crash-free twin, unstormed — and, when `plan` storms,
/// stormed too, which must send the same wire volume — then checks `prog`
/// under `plan` against it. Returns the crashed run's outcomes.
fn check_model<S: Model>(
    p: usize,
    prog: Program<S>,
    plan: FaultPlan,
) -> Vec<ModelOutcome<S::Elem>> {
    let twin_prog = || prog.crash_free();
    let (twin, volume) = run_model(p, twin_prog(), FaultPlan::default());
    if plan.delay.is_some() {
        let (_, stormed) = run_model(p, twin_prog(), plan.clone());
        assert_eq!(stormed, volume, "a delay storm changed the wire volume");
    }
    check_against_twin(p, prog, plan, &twin)
}

/// Runs `prog` under `plan` and asserts, rank by rank, that it ends with
/// its crash-free twin's flops, at the twin's final epoch plus one per
/// recovery.
fn check_against_twin<S: Model>(
    p: usize,
    prog: Program<S>,
    plan: FaultPlan,
    twin: &[ModelOutcome<S::Elem>],
) -> Vec<ModelOutcome<S::Elem>> {
    let (crashed, _) = run_model(p, prog, plan);
    let recoveries = crashed[0].reports.len() as u64;
    for (rank, (c, t)) in crashed.iter().zip(twin).enumerate() {
        assert_eq!(
            c.flops, t.flops,
            "rank {rank}: flops diverged from the twin"
        );
        assert_eq!(
            c.epoch,
            t.epoch + recoveries,
            "rank {rank}: each recovery publishes one extra epoch"
        );
    }
    crashed
}

/// The CI sweep's seeds: at p = 4 these programs also run under a delay
/// storm.
const STORM_SEEDS: [u64; 5] = [11, 22, 33, 44, 55];

/// The batch-lifecycle model test: seeded sequences over algebraic and general
/// batches (both the fallible and the infallible forms), static recomputes,
/// bare publishes, pins and unpins, each with one crash
/// at a seeded rank and send. After every step and every recovery `C` (and
/// `A`, `B`) must equal the static recompute, every pin must be bit-stable
/// and each log must hold at most 2·`anchor_period` records; recovery
/// reports must be rank-uniform, and each run must end where its crash-free
/// twin does. The storm seeds rerun at p = 4 under seeded delay jitter.
/// Over `U64Plus` every batch runs Algorithm 1 on path counts.
#[test]
fn model_sequences_match_static_recompute() {
    let plain = FaultPlan::default;
    let storm = |seed| FaultPlan::new(seed).delay_storm(3, 40);
    let runs = (1..=16u64)
        .map(|seed| (4usize, seed, plain()))
        .chain(STORM_SEEDS.map(|seed| (4, seed, storm(seed))))
        .chain((1..=8).map(|seed| (9, seed, plain())));
    for (p, seed, plan) in runs {
        let _guard = SeedGuard(format!("p={p} seed={seed} {plan:?}"));
        check_model(p, Program::<U64Plus>::random(p, seed, 14), plan);
    }
}

/// The model test over `MinPlus`, where a general batch runs Algorithm 2
/// and `F` holds Bloom bits: crashes land in its filter reduction, its
/// `A^R` exchange and its masked rounds, and replay re-runs them.
#[test]
fn model_sequences_match_static_recompute_min_plus() {
    let plain = FaultPlan::default;
    let storm = |seed| FaultPlan::new(seed).delay_storm(3, 40);
    let runs = (1..=8u64)
        .map(|seed| (4usize, seed, plain()))
        .chain(STORM_SEEDS[..2].iter().map(|&seed| (4, seed, storm(seed))))
        .chain((1..=4).map(|seed| (9, seed, plain())));
    for (p, seed, plan) in runs {
        let _guard = SeedGuard(format!("MinPlus p={p} seed={seed} {plan:?}"));
        check_model(p, Program::<MinPlus>::random(p, seed, 14), plan);
    }
}

/// Sweeps a crash of `rank` over every send it makes in step `at` of
/// `steps` — the count read off the crash-free twin's meter — and checks
/// each crashed run against the twin. Returns the twin.
fn sweep_crash<S: Model>(
    seed: u64,
    steps: &[Step],
    at: usize,
    rank: usize,
) -> Vec<ModelOutcome<S::Elem>> {
    let program = |crash: Option<u64>| {
        let mut steps = steps.to_vec();
        if let Some(k) = crash {
            steps[at] = steps[at].clone().crash(rank, k);
        }
        Program::<S>::new(4, seed, steps)
    };
    let plan = FaultPlan::default;
    let (twin, _) = run_model(4, program(None), plan());
    let sends = twin[rank].per_step[at].0;
    assert!(sends > 0, "step {at} sends nothing on rank {rank}");
    for k in 1..=sends {
        let _guard = SeedGuard(format!(
            "seed={seed} crash of rank {rank} at send {k} of step {at}"
        ));
        let crashed = check_against_twin(4, program(Some(k)), plan(), &twin);
        assert_eq!(
            crashed[0].reports.len(),
            1,
            "every send of the step can crash"
        );
    }
    twin
}

/// A crash at every send of the first batch recovers: the first peers to
/// notice it may still stand inside `enable_recovery`'s fence.
#[test]
fn every_send_of_the_first_batch_recovers() {
    let steps = [Op::Algebraic, Op::General, Op::Algebraic].map(Step::new);
    sweep_crash::<U64Plus>(5, &steps, 0, 2);
}

/// A crash at every send of an Algorithm-2 batch (`MinPlus`) recovers: the
/// interrupted batch rolls back and replays to the crash-free twin's state.
#[test]
fn every_send_of_an_algorithm_2_batch_recovers() {
    let steps = [Op::Algebraic, Op::General, Op::Algebraic].map(Step::new);
    sweep_crash::<MinPlus>(5, &steps, 1, 2);
}

/// A crash at every send of the step that refreshes the anchor recovers,
/// whether it lands before, inside or after the anchor exchange.
#[test]
fn every_send_of_an_anchor_refresh_recovers() {
    let steps = [Op::Algebraic; 5].map(Step::new);
    let twin = sweep_crash::<U64Plus>(9, &steps, 3, 2);
    let anchors: Vec<u64> = twin[2].per_step.iter().map(|s| s.1).collect();
    assert!(
        anchors[3] > anchors[2],
        "step 3 refreshes the anchor: {anchors:?}"
    );
}

/// A committed batch of every kind inside the rollback window recovers: an
/// `apply_general` batch, a plain `apply_algebraic` batch, a static recompute
/// and a publish that committed nothing. Replay must reach the commit
/// frontier through each of them, over `U64Plus` and over `MinPlus` (whose
/// `apply_general` batch is Algorithm 2).
#[test]
fn every_batch_kind_in_the_anchor_window_recovers() {
    every_batch_kind_in_the_window::<U64Plus>();
    every_batch_kind_in_the_window::<MinPlus>();
}

fn every_batch_kind_in_the_window<S: Model>() {
    for op in [
        Op::PlainGeneral,
        Op::PlainAlgebraic,
        Op::Recompute,
        Op::Publish,
    ] {
        let _guard = SeedGuard(format!("{} {op:?} in the window", S::name()));
        let steps = vec![
            Step::new(Op::Algebraic),
            Step::new(op),
            Step::new(Op::Algebraic).crash(2, 1),
            Step::new(Op::Algebraic),
        ];
        let out = check_model(4, Program::<S>::new(4, 7, steps), FaultPlan::default());
        let report = out[0].reports.first().expect("the crash recovers");
        assert_eq!(report.failed_rank, 2);
        // The anchor stands before step 0: both committed steps replay.
        assert_eq!(
            (report.committed_publishes, report.replayed_batches),
            (3, 2)
        );
    }
}
