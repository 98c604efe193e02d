//! Property tests for the nonblocking request layer.
//!
//! Every nonblocking collective must be *bit-identical in result* and
//! *byte-identical in metered wire volume* to its blocking counterpart,
//! across p ∈ {1, 4, 9} — the schedule moves communication time, never
//! bytes or values. Plus the request
//! lifecycle contracts: out-of-order wait, test-driven completion, progress
//! while blocked in unrelated collectives, drop-without-wait (panics or
//! completes deterministically, never deadlocks), and the exposed-time
//! split between the meter and the request.

use dspgemm_mpi::{run, CommError, SimOutput};
use std::sync::Arc;
use std::time::Duration;

const PS: [usize; 3] = [1, 4, 9];

/// Deterministic per-rank payload.
fn payload(rank: usize, len: usize) -> Vec<u64> {
    (0..len as u64).map(|x| x * 31 + rank as u64).collect()
}

/// Asserts the two runs agree on results and wire volume.
fn assert_parity<R: PartialEq + std::fmt::Debug>(
    blocking: &SimOutput<R>,
    nonblocking: &SimOutput<R>,
    what: &str,
) {
    assert_eq!(
        blocking.results, nonblocking.results,
        "{what}: results differ"
    );
    assert_eq!(
        blocking.stats.volume(),
        nonblocking.stats.volume(),
        "{what}: metered wire volume differs"
    );
}

#[test]
fn ibcast_matches_bcast_shared_all_roots_and_sizes() {
    for p in PS {
        for root in 0..p {
            let blocking = run(p, |c| {
                let v = if c.rank() == root {
                    Some(Arc::new(payload(root, 500)))
                } else {
                    None
                };
                (*c.bcast_shared(root, v)).clone()
            });
            let nonblocking = run(p, |c| {
                let v = if c.rank() == root {
                    Some(Arc::new(payload(root, 500)))
                } else {
                    None
                };
                (*c.ibcast_shared(root, v).wait()).clone()
            });
            assert_parity(
                &blocking,
                &nonblocking,
                &format!("ibcast p={p} root={root}"),
            );
        }
    }
}

#[test]
fn ialltoallv_matches_alltoallv() {
    for p in PS {
        let chunks = |rank: usize| -> Vec<Vec<u64>> {
            (0..p)
                .map(|dst| vec![(rank * 10 + dst) as u64; rank + 1])
                .collect()
        };
        let blocking = run(p, move |c| c.alltoallv(chunks(c.rank())));
        let nonblocking = run(p, move |c| c.ialltoallv(chunks(c.rank())).wait());
        assert_parity(&blocking, &nonblocking, &format!("ialltoallv p={p}"));
    }
}

#[test]
fn isend_irecv_match_send_recv() {
    for p in PS {
        let blocking = run(p, |c| {
            let right = (c.rank() + 1) % c.size();
            let left = (c.rank() + c.size() - 1) % c.size();
            if p == 1 {
                return payload(c.rank(), 64);
            }
            c.send(right, 7, payload(c.rank(), 64));
            c.recv::<Vec<u64>>(left, 7)
        });
        let nonblocking = run(p, |c| {
            let right = (c.rank() + 1) % c.size();
            let left = (c.rank() + c.size() - 1) % c.size();
            if p == 1 {
                return payload(c.rank(), 64);
            }
            // Prepost the receive, then send — the overlap-friendly order.
            let r = c.irecv::<Vec<u64>>(left, 7);
            c.send(right, 7, payload(c.rank(), 64));
            r.wait()
        });
        assert_parity(&blocking, &nonblocking, &format!("send/irecv p={p}"));
    }
}

#[test]
fn allgather_shared_matches_allgather() {
    for p in PS {
        let blocking = run(p, |c| c.allgather(payload(c.rank(), 100)));
        let shared = run(p, |c| {
            c.allgather_shared(Arc::new(payload(c.rank(), 100)))
                .iter()
                .map(|part| (**part).clone())
                .collect::<Vec<_>>()
        });
        assert_parity(&blocking, &shared, &format!("allgather_shared p={p}"));
    }
}

#[test]
fn out_of_order_wait_completes() {
    let out = run(2, |c| {
        if c.rank() == 0 {
            c.send(1, 1, 10u64);
            c.send(1, 2, 20u64);
            0
        } else {
            let r1 = c.irecv::<u64>(0, 1);
            let r2 = c.irecv::<u64>(0, 2);
            // Wait the later-posted request first; r1's envelope fills r1 as
            // it is drained, and r1's wait finds it done.
            let b = r2.wait();
            let a = r1.wait();
            (b - a) as usize
        }
    });
    assert_eq!(out.results[1], 10);
}

#[test]
fn test_drives_completion_without_blocking() {
    let out = run(2, |c| {
        if c.rank() == 0 {
            c.barrier();
            c.send(1, 3, 99u32);
            c.barrier();
            0
        } else {
            let mut r = c.irecv::<u32>(0, 3);
            // Nothing sent yet: test must report not-ready without blocking.
            assert!(!r.test());
            c.barrier();
            // Sender releases the value after the barrier; poll until ready.
            while !r.test() {
                std::hint::spin_loop();
            }
            c.barrier();
            r.wait()
        }
    });
    assert_eq!(out.results[1], 99);
}

#[test]
fn progress_forwards_tree_edges_while_blocked_elsewhere() {
    // p = 8 gives the binomial tree depth 3, so interior ranks must forward
    // the payload. Between issue and wait every rank runs an unrelated
    // allreduce — the progress engine has to advance the broadcast from
    // inside the allreduce's blocking receives (or at the final wait).
    for p in [4usize, 8, 9] {
        let out = run(p, |c| {
            let v = if c.rank() == 2 % p {
                Some(Arc::new(payload(7, 4096)))
            } else {
                None
            };
            let req = c.ibcast_shared(2 % p, v);
            let s = c.allreduce(c.rank() as u64, |a, b| a + b);
            let got = req.wait();
            (s, got.len())
        });
        let rank_sum: u64 = (0..p as u64).sum();
        assert!(out.results.iter().all(|&(s, l)| s == rank_sum && l == 4096));
    }
}

#[test]
fn interleaved_pipelined_rounds_match_blocking() {
    // A miniature double-buffered SUMMA schedule: issue round k+1's
    // broadcast before "computing" round k. Must produce exactly the
    // blocking schedule's values and volume.
    let rounds = 5usize;
    for p in PS {
        let blocking = run(p, move |c| {
            let mut acc = 0u64;
            for k in 0..rounds {
                let root = k % c.size();
                let v = if c.rank() == root {
                    Some(Arc::new(payload(k, 64)))
                } else {
                    None
                };
                let got = c.bcast_shared(root, v);
                acc = acc.wrapping_mul(31).wrapping_add(got.iter().sum::<u64>());
            }
            acc
        });
        let pipelined = run(p, move |c| {
            let mut acc = 0u64;
            let issue = |k: usize| {
                let root = k % c.size();
                let v = if c.rank() == root {
                    Some(Arc::new(payload(k, 64)))
                } else {
                    None
                };
                c.ibcast_shared(root, v)
            };
            let mut flight = Some(issue(0));
            for k in 0..rounds {
                let got = flight.take().expect("round in flight").wait();
                if k + 1 < rounds {
                    flight = Some(issue(k + 1));
                }
                acc = acc.wrapping_mul(31).wrapping_add(got.iter().sum::<u64>());
            }
            acc
        });
        assert_parity(&blocking, &pipelined, &format!("pipelined rounds p={p}"));
    }
}

#[test]
#[should_panic]
fn dropping_incomplete_request_panics_without_deadlock() {
    run(2, |c| {
        if c.rank() == 1 {
            // An irecv whose message never arrives: dropping it must panic
            // deterministically (poisoning wakes rank 0), not deadlock.
            let r = c.irecv::<u64>(0, 5);
            drop(r);
        } else {
            // Block on something rank 1 will never send; rank 1's drop-panic
            // poisons the network and wakes this receive.
            let _: u64 = c.recv(1, 6);
        }
    });
}

#[test]
fn dropping_completed_request_is_fine() {
    let out = run(2, |c| {
        if c.rank() == 0 {
            c.send(1, 4, 5u8);
        } else {
            let mut r = c.irecv::<u8>(0, 4);
            while !r.test() {
                std::hint::spin_loop();
            }
            // Completed but value never claimed: drop is clean.
            drop(r);
        }
        c.barrier();
        true
    });
    assert!(out.results.iter().all(|&b| b));
}

/// The calling rank's exposed time so far, from the meter.
fn exposed_ns(c: &dspgemm_mpi::Comm) -> u64 {
    c.comm_stats().per_rank[c.rank()].exposed_ns
}

#[test]
fn barrier_wait_is_unexposed_and_blocking_recv_is_exposed() {
    let out = run(2, |c| {
        if c.rank() == 1 {
            std::thread::sleep(Duration::from_millis(60));
            c.barrier();
            std::thread::sleep(Duration::from_millis(60));
            c.send(0, 3, 7u64);
            (0, 0)
        } else {
            let before = exposed_ns(c);
            c.barrier();
            let after_barrier = exposed_ns(c);
            let v: u64 = c.recv(1, 3);
            assert_eq!(v, 7);
            (after_barrier - before, exposed_ns(c) - after_barrier)
        }
    });
    let (barrier_ns, recv_ns) = out.results[0];
    assert_eq!(
        barrier_ns, 0,
        "the barrier's wait is synchronization, not communication"
    );
    assert!(
        recv_ns >= 25_000_000,
        "a blocking recv behind a 60 ms sender exposed only {recv_ns} ns"
    );
}

#[test]
fn timed_out_wait_counts_toward_the_request_exposed_time() {
    let out = run(2, |c| {
        if c.rank() == 1 {
            std::thread::sleep(Duration::from_millis(120));
            c.send(0, 4, 9u64);
            None
        } else {
            let before = exposed_ns(c);
            let mut req = c.irecv::<u64>(1, 4);
            let first = req.wait_deadline(Duration::from_millis(10));
            assert!(
                matches!(first, Err(CommError::Timeout { .. })),
                "the sender is still asleep: {first:?}"
            );
            let (v, timing) = req.wait_timed();
            assert_eq!(v, 9);
            let meter = exposed_ns(c) - before;
            Some((timing.exposed.as_nanos() as u64, meter))
        }
    });
    let (request_ns, meter_ns) = out.results[0].expect("rank 0 reports");
    assert_eq!(
        request_ns, meter_ns,
        "the request's exposed time and the meter's differ"
    );
}

#[test]
fn inflight_ialltoallv_survives_sibling_collectives() {
    // A property of the collective, whoever issues it (the engine's batches
    // complete each `alltoallv` before starting the next): while an
    // `ialltoallv` is in flight on one communicator, broadcasts, reductions
    // and barriers run on a *sibling* communicator split from the same
    // world. The in-flight request must neither lose messages nor steal the
    // siblings' traffic.
    for p in [4usize, 9] {
        let q = (p as f64).sqrt() as usize;
        let chunks = |rank: usize| -> Vec<Vec<u64>> {
            (0..p)
                .map(|dst| vec![(rank * 100 + dst) as u64; rank % 3 + 1])
                .collect()
        };
        let sequential = run(p, move |c| {
            let redist = c.alltoallv(chunks(c.rank()));
            let row = c.split((c.rank() / q) as u64, (c.rank() % q) as u64);
            let col = c.split((c.rank() % q) as u64, (c.rank() / q) as u64);
            let mut acc = 0u64;
            for k in 0..q {
                let v = row.bcast(k, (row.rank() == k).then(|| payload(k, 48)));
                acc = acc.wrapping_add(col.allreduce(v.iter().sum::<u64>(), |x, y| x + y));
                c.barrier();
            }
            (redist, acc)
        });
        let overlapped = run(p, move |c| {
            let redist = c.ialltoallv(chunks(c.rank()));
            let row = c.split((c.rank() / q) as u64, (c.rank() % q) as u64);
            let col = c.split((c.rank() % q) as u64, (c.rank() / q) as u64);
            let mut acc = 0u64;
            for k in 0..q {
                let v = row.bcast(k, (row.rank() == k).then(|| payload(k, 48)));
                acc = acc.wrapping_add(col.allreduce(v.iter().sum::<u64>(), |x, y| x + y));
                c.barrier();
            }
            (redist.wait(), acc)
        });
        assert_parity(
            &sequential,
            &overlapped,
            &format!("ialltoallv across sibling collectives p={p}"),
        );
    }
}
