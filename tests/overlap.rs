//! Overlap invariants, end to end: the pipelined (nonblocking,
//! double-buffered) dynamic paths maintain exactly the product a static
//! recompute builds — across p ∈ {1, 4, 9} and both evaluated semirings —
//! and a payload that arrives under compute records overlapped time. (That
//! pipelined `summa` equals a round-by-round blocking loop in bytes and `C`
//! is `tests/copy_elim.rs`'s check, against its in-test replica.)

use dspgemm::core::dyn_general::GeneralUpdates;
use dspgemm::core::summa::summa;
use dspgemm::core::{DistMat, DynSpGemm, Grid};
use dspgemm::sparse::semiring::{MinPlus, Semiring, U64Plus};
use dspgemm::sparse::{Index, Triple};
use dspgemm::util::rng::{Rng, SplitMix64};
use dspgemm::util::stats::PhaseTimer;

fn random_triples<S: Semiring>(
    seed: u64,
    n: Index,
    count: usize,
    val: impl Fn(u64) -> S::Elem,
) -> Vec<Triple<S::Elem>> {
    let mut rng = SplitMix64::new(seed);
    (0..count)
        .map(|_| {
            Triple::new(
                rng.gen_range(n as u64) as Index,
                rng.gen_range(n as u64) as Index,
                val(rng.gen_range(9) + 1),
            )
        })
        .collect()
}

/// Dynamic algebraic updates on the pipelined engine maintain exactly the
/// product a from-scratch SUMMA computes — for both semirings and every
/// grid size. (The static recomputation is the independent reference.)
fn check_dynamic_updates<S: Semiring>(val: impl Fn(u64) -> S::Elem + Send + Sync + Copy) {
    let n: Index = 26;
    for p in [1usize, 4, 9] {
        let out = dspgemm::mpi::run(p, move |comm| {
            let grid = Grid::new(comm);
            let mut timer = PhaseTimer::new();
            let feed = |s: u64| {
                if comm.rank() == 0 {
                    random_triples::<S>(s, n, 90, val)
                } else {
                    vec![]
                }
            };
            let a = DistMat::from_global_triples(&grid, n, n, feed(1), 1, &mut timer);
            let b = DistMat::from_global_triples(&grid, n, n, feed(2), 1, &mut timer);
            let mut eng = DynSpGemm::<S>::new(&grid, a, b, 1, false);
            for round in 0..3u64 {
                let a_ups = random_triples::<S>(100 + round + comm.rank() as u64, n, 12, val);
                let b_ups = random_triples::<S>(200 + round + comm.rank() as u64, n, 12, val);
                eng.apply_algebraic(&grid, a_ups, b_ups);
            }
            let (c_static, _) = summa::<S>(&grid, &eng.a, &eng.b, 1, &mut timer);
            (eng.c.gather_to_root(comm), c_static.gather_to_root(comm))
        });
        let (c_dyn, c_static) = &out.results[0];
        assert_eq!(
            c_dyn, c_static,
            "p={p}: pipelined dynamic updates != static recompute"
        );
    }
}

#[test]
fn dynamic_updates_match_blocking_reference_u64plus() {
    check_dynamic_updates::<U64Plus>(|v| v);
}

#[test]
fn dynamic_updates_match_blocking_reference_minplus() {
    check_dynamic_updates::<MinPlus>(|v| v as f64);
}

/// General (deletion-carrying) updates through the pipelined
/// `COMPUTE_PATTERN` + masked-recompute rounds agree with the static
/// recomputation, for the min-plus semiring where additive patching is
/// impossible.
#[test]
fn general_updates_match_blocking_reference() {
    let n: Index = 20;
    for p in [1usize, 4, 9] {
        let out = dspgemm::mpi::run(p, move |comm| {
            let grid = Grid::new(comm);
            let mut timer = PhaseTimer::new();
            let t = if comm.rank() == 0 {
                random_triples::<MinPlus>(5, n, 3 * n as usize, |v| v as f64)
            } else {
                vec![]
            };
            let a = DistMat::from_global_triples(&grid, n, n, t.clone(), 1, &mut timer);
            let b = DistMat::from_global_triples(&grid, n, n, t, 1, &mut timer);
            let mut eng = DynSpGemm::<MinPlus>::new(&grid, a, b, 1, true);
            // Deletions + value increases drawn from the current state.
            let a_cur = eng.a.gather_to_root(comm);
            let a_upd = if comm.rank() == 0 {
                let cur = a_cur.unwrap();
                let mut upd = GeneralUpdates::new();
                for t in cur.iter().step_by(4) {
                    upd.deletes.push((t.row, t.col));
                }
                for t in cur.iter().skip(1).step_by(5) {
                    upd.sets.push(Triple::new(t.row, t.col, t.val + 7.5));
                }
                upd
            } else {
                GeneralUpdates::new()
            };
            eng.apply_general(&grid, a_upd, GeneralUpdates::new());
            let (c_static, _) = summa::<MinPlus>(&grid, &eng.a, &eng.b, 1, &mut timer);
            (eng.c.gather_to_root(comm), c_static.gather_to_root(comm))
        });
        let (c_dyn, c_static) = &out.results[0];
        assert_eq!(c_dyn, c_static, "p={p}");
    }
}

/// A request whose payload is sent *after* issue while the receiver
/// computes records overlapped communication time; a p = 1 pipelined run
/// records none (short-circuited broadcasts never touch the request
/// machinery).
///
/// The overlap side is a deterministic two-rank program (the receiver
/// signals its issue before the root sends, then computes until the wait)
/// rather than a SUMMA run: under the honest availability-based metric,
/// whether a tiny SUMMA run overlaps depends on OS scheduling, but this
/// dependency structure guarantees a nonzero compute-covered window.
#[test]
fn pipelined_runs_record_overlap() {
    let out = dspgemm::mpi::run(2, |comm| {
        // Broadcast on a dup so the signaling send/recv on the world
        // communicator cannot perturb the collective tag sequence.
        let d = comm.dup();
        if comm.rank() == 0 {
            // Wait until rank 1 has issued its ibcast, then send.
            let () = comm.recv(1, 9);
            std::thread::sleep(std::time::Duration::from_millis(2));
            d.ibcast_shared(0, Some(std::sync::Arc::new(vec![7u64; 256])))
                .wait()
                .len()
        } else {
            let req = d.ibcast_shared::<Vec<u64>>(0, None);
            comm.send(0, 9, ());
            // "Compute" while the broadcast is in flight.
            let spin = std::time::Instant::now();
            while spin.elapsed() < std::time::Duration::from_millis(8) {
                std::hint::spin_loop();
            }
            req.wait().len()
        }
    });
    assert!(out.results.iter().all(|&l| l == 256));
    assert!(
        out.stats.per_rank.iter().any(|r| r.overlapped_ns > 0),
        "compute-covered broadcast recorded no overlap"
    );

    // p = 1: the whole pipelined stack short-circuits — zero overlap.
    let n: Index = 36;
    let single = dspgemm::mpi::run(1, move |comm| {
        let grid = Grid::new(comm);
        let mut timer = PhaseTimer::new();
        let t = random_triples::<U64Plus>(3, n, 600, |v| v);
        let a = DistMat::from_global_triples(&grid, n, n, t, 1, &mut timer);
        let (c, _) = summa::<U64Plus>(&grid, &a, &a, 1, &mut timer);
        c.local_nnz()
    });
    assert_eq!(
        single.stats.per_rank[0].overlapped_ns, 0,
        "p=1 must not touch the request machinery"
    );
}
