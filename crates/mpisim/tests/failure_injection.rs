//! Failure-surface coverage: every blocking entry point of the simulator
//! must wake up when a peer fails — recoverably (typed [`CommError`]) for an
//! injected crash, fatally for a genuine panic (poison) — plus deadline
//! timeouts that leave the operation retryable, epoch hygiene after a
//! recovery, and determinism of the seeded fault schedules.

use std::sync::Arc;
use std::time::Duration;

use dspgemm_mpi::{catch_comm_mut, run, run_with_faults, Comm, CommError, FaultPlan};

/// One blocking collective round, selected by name so a single harness can
/// sweep every entry point.
fn collective_round(c: &Comm, kind: &str) {
    let p = c.size();
    let me = c.rank();
    match kind {
        "barrier" => c.barrier(),
        "allreduce" => {
            c.allreduce(me as u64 + 1, |a, b| a + b);
        }
        "bcast" => {
            let v = if me == 0 { Some(99u64) } else { None };
            c.bcast(0, v);
        }
        "gather" => {
            c.gather(0, me as u64);
        }
        "alltoallv" => {
            let chunks: Vec<Vec<u64>> = (0..p).map(|d| vec![(me * 10 + d) as u64]).collect();
            c.alltoallv(chunks);
        }
        "sendrecv" => {
            let dst = (me + 1) % p;
            let src = (me + p - 1) % p;
            c.sendrecv::<u64, u64>(dst, me as u64, src, 7);
        }
        other => panic!("unknown collective kind {other}"),
    }
}

/// An armed crash wakes every survivor out of whatever blocking collective
/// it is in, as a catchable [`CommError::PeerFailed`]; the victim unwinds
/// with [`CommError::Crashed`]. The trailing barrier makes the contract
/// uniform across roles (a bcast root or tree leaf may legitimately finish
/// its own part of the round; no rank can finish a barrier that includes
/// the victim — and a recv-only role in the collective still triggers the
/// victim's armed crash at its first barrier send).
#[test]
fn blocking_collectives_wake_recoverably_on_crash() {
    for kind in [
        "barrier",
        "allreduce",
        "bcast",
        "gather",
        "alltoallv",
        "sendrecv",
    ] {
        let p = 4;
        let victim = 3;
        let out = run(p, move |c| {
            if c.rank() == victim {
                c.arm_crash(1);
            }
            let res = catch_comm_mut(|| {
                collective_round(c, kind);
                c.barrier();
            });
            let failed = c.take_failed_ranks();
            // The documented recovery contract: every rank (victim included)
            // advances the epoch and fences before communicating again — or
            // exiting, since a rank that returns early closes its inbox
            // while peers may still be sending to it.
            c.advance_recovery_epoch();
            c.barrier();
            (res, c.has_crashed(), failed)
        });
        for (rank, (res, crashed, failed)) in out.results.iter().enumerate() {
            if rank == victim {
                assert_eq!(
                    res,
                    &Err(CommError::Crashed { rank: victim }),
                    "kind={kind}"
                );
                assert!(crashed);
            } else {
                assert_eq!(
                    res,
                    &Err(CommError::PeerFailed { rank: victim }),
                    "kind={kind} rank={rank}"
                );
                assert!(!crashed);
                assert_eq!(failed, &vec![victim], "kind={kind} rank={rank}");
            }
        }
    }
}

/// In-flight nonblocking operations: a `wait` on a posted `ialltoallv`
/// must wake recoverably when a contributor dies mid-round.
#[test]
fn inflight_ialltoallv_wait_wakes_on_failure() {
    let p = 4;
    let victim = 2;
    let out = run(p, move |c| {
        let me = c.rank();
        if me == victim {
            c.arm_crash(1);
        }
        let res = catch_comm_mut(|| {
            let chunks: Vec<Vec<u64>> = (0..p).map(|d| vec![(me * 10 + d) as u64; 3]).collect();
            let req = c.ialltoallv(chunks);
            req.wait();
        });
        c.advance_recovery_epoch();
        c.barrier();
        res
    });
    assert_eq!(
        out.results[victim],
        Err(CommError::Crashed { rank: victim })
    );
    for (rank, res) in out.results.iter().enumerate() {
        if rank != victim {
            assert_eq!(
                res,
                &Err(CommError::PeerFailed { rank: victim }),
                "rank={rank}"
            );
        }
    }
}

/// Same for a shared-payload broadcast: the root dies before (or during)
/// its tree sends, and every waiting subscriber wakes with `PeerFailed`.
#[test]
fn inflight_ibcast_wait_wakes_on_root_failure() {
    let p = 4;
    let root = 1;
    let out = run(p, move |c| {
        if c.rank() == root {
            c.arm_crash(1);
        }
        let res = catch_comm_mut(|| {
            let v = if c.rank() == root {
                Some(Arc::new(vec![5u64; 100]))
            } else {
                None
            };
            let req = c.ibcast_shared(root, v);
            req.wait();
        });
        c.advance_recovery_epoch();
        c.barrier();
        res
    });
    assert_eq!(out.results[root], Err(CommError::Crashed { rank: root }));
    for (rank, res) in out.results.iter().enumerate() {
        if rank != root {
            assert_eq!(
                res,
                &Err(CommError::PeerFailed { rank: root }),
                "rank={rank}"
            );
        }
    }
}

/// Fail-stop is preserved: a *genuine* panic (not an injected crash)
/// poisons the network, the poison is **not** catchable as a `CommError`,
/// and the whole job dies instead of deadlocking.
#[test]
fn genuine_panic_poisons_the_job_uncatchably() {
    let result = std::panic::catch_unwind(|| {
        run(3, |c| {
            if c.rank() == 0 {
                panic!("genuine bug on rank 0");
            }
            // catch_comm must re-raise the poison panic, so control never
            // reaches the line after it on the survivors either.
            let _ = catch_comm_mut(|| c.barrier());
            panic!("poison leaked through catch_comm as a CommError");
        })
    });
    assert!(result.is_err(), "a poisoned job must fail fast");
}

/// A deadline wait times out with a typed error while leaving the
/// operation in flight: the same request can be waited again and complete.
#[test]
fn timeout_leaves_the_operation_retryable() {
    let out = run(2, |c| {
        if c.rank() == 0 {
            let mut req = c.irecv::<u64>(1, 9);
            let first = req.wait_deadline(Duration::from_millis(5));
            let timed_out = matches!(first, Err(CommError::Timeout { .. }));
            // Only now release the sender: the first wait deterministically
            // timed out before any data existed.
            c.send(1, 1, 0u64);
            let (v, _) = req
                .wait_deadline(Duration::from_secs(10))
                .expect("retried wait completes once the sender runs");
            (timed_out, v)
        } else {
            let _: u64 = c.recv(0, 1);
            c.send(0, 9, 77u64);
            (true, 77)
        }
    });
    assert_eq!(out.results, vec![(true, 77), (true, 77)]);
}

/// Epoch hygiene after a recovery: advancing the recovery epoch drops
/// stale traffic of the aborted round (even on matching (src, tag)),
/// resets the collective sequence uniformly, and lets the full collective
/// surface run again — including on the crashed rank, which rejoins as
/// the replacement.
#[test]
fn epoch_advance_drops_stale_traffic_and_resumes_collectives() {
    let p = 3;
    let victim = 1;
    let out = run(p, move |c| {
        let me = c.rank();
        if me == 0 {
            // A pre-crash message nobody receives before the incident: it
            // must never satisfy a post-recovery receive on the same tag.
            c.send(2, 5, 111u64);
        }
        if me == victim {
            c.arm_crash(1);
        }
        let res = catch_comm_mut(|| {
            c.allreduce(1u64, |a, b| a + b);
            c.barrier();
        });
        assert!(res.is_err(), "the aborted round must not complete");
        // --- recovery protocol: drain detections, advance, fence. ---
        let failed = c.take_failed_ranks();
        if me != victim {
            assert_eq!(failed, vec![victim]);
            assert!(c.last_failure_detect_ns() > 0);
        }
        let epoch = c.advance_recovery_epoch();
        assert_eq!(epoch, 1);
        c.barrier();
        // --- the whole surface works again, in the new epoch. ---
        let sum = c.allreduce(me as u64, |a, b| a + b);
        let bc = c.bcast(victim, if me == victim { Some(42u64) } else { None });
        let chunks: Vec<Vec<u64>> = (0..p).map(|d| vec![(me + d) as u64]).collect();
        let routed = c.alltoallv(chunks);
        let fresh = if me == 0 {
            c.send(2, 5, 222u64);
            222
        } else if me == 2 {
            c.recv::<u64>(0, 5)
        } else {
            222
        };
        (sum, bc, routed[me][0], fresh, c.recovery_epoch())
    });
    for (rank, &(sum, bc, diag, fresh, epoch)) in out.results.iter().enumerate() {
        assert_eq!(sum, 3, "rank={rank}");
        assert_eq!(bc, 42, "rank={rank}");
        assert_eq!(diag, 2 * rank as u64, "rank={rank}");
        assert_eq!(fresh, 222, "stale pre-crash message leaked past the epoch");
        assert_eq!(epoch, 1);
    }
}

/// Delay storms are pure functions of the seed: two identical faulty runs
/// produce identical results, and the *logical* wire volume matches the
/// fault-free run bit-for-bit (delays move time, not traffic).
#[test]
fn fault_schedules_are_deterministic_and_byte_neutral() {
    let program = |c: &Comm| {
        let p = c.size();
        let me = c.rank();
        let mut acc = 0u64;
        for round in 0..3u64 {
            let chunks: Vec<Vec<u64>> = (0..p)
                .map(|d| vec![me as u64 + d as u64 + round; 4])
                .collect();
            let routed = c.alltoallv(chunks);
            let local: u64 = routed.iter().flatten().sum();
            acc = acc
                .wrapping_mul(31)
                .wrapping_add(c.allreduce(local, |a, b| a + b));
        }
        acc
    };
    let plan = FaultPlan::new(1234).delay_storm(3, 40);
    let clean = run(4, program);
    let faulty_a = run_with_faults(4, plan.clone(), program);
    let faulty_b = run_with_faults(4, plan, program);
    assert_eq!(faulty_a.results, faulty_b.results);
    assert_eq!(faulty_a.results, clean.results);
    // Byte parity: injected faults never show up as application traffic.
    assert_eq!(clean.stats.total_bytes(), faulty_a.stats.total_bytes());
    assert_eq!(clean.stats.total_msgs(), faulty_a.stats.total_msgs());
}
