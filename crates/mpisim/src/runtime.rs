//! The rank-per-thread runtime.

use crate::comm::Comm;
use crate::fault::{CommError, FaultPlan};
use crate::network::Network;
use crate::stats::CommStats;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

/// Result of a simulated run: the per-rank return values (indexed by world
/// rank) and the communication counters accumulated during the run — the
/// same two things a TCP run reports (`TcpOutput`), so nothing a caller
/// reads from a run depends on the transport.
#[derive(Debug)]
pub struct SimOutput<R> {
    /// `f`'s return value on each rank, in rank order.
    pub results: Vec<R>,
    /// Communication volume/message counters for the whole run.
    pub stats: CommStats,
}

/// Default stack size per rank thread. Local SpGEMM on skewed graphs can
/// build large temporary rows; 16 MiB is comfortable and still cheap.
const DEFAULT_STACK: usize = 16 << 20;

/// Runs `f` as an SPMD program on `p` simulated MPI ranks and waits for all
/// of them.
///
/// Each rank executes `f(comm)` on its own OS thread with a world
/// communicator. The closure may borrow from the caller's scope (the run is
/// fully scoped). If any rank panics, the network is poisoned so blocked
/// peers fail fast, and the first panic is re-raised on the caller.
///
/// ```
/// let out = dspgemm_mpi::run(4, |comm| comm.rank() * 2);
/// assert_eq!(out.results, vec![0, 2, 4, 6]);
/// ```
pub fn run<R, F>(p: usize, f: F) -> SimOutput<R>
where
    R: Send,
    F: Fn(&Comm) -> R + Send + Sync,
{
    run_with_faults(p, FaultPlan::default(), f)
}

/// Like [`run`] with a deterministic [`FaultPlan`] driving the network's
/// seeded delay injection. Under either runner a crash armed with
/// [`Comm::arm_crash`] surfaces recoverably (typed [`crate::CommError`]s
/// instead of poison-panic; see [`crate::catch_comm`]). `f` is responsible for catching the errors and
/// running a recovery protocol — an uncaught `CommError` unwinds the rank
/// like any panic and fail-stops the job, re-raised here as a panic that
/// names the rank and the error.
pub fn run_with_faults<R, F>(p: usize, plan: FaultPlan, f: F) -> SimOutput<R>
where
    R: Send,
    F: Fn(&Comm) -> R + Send + Sync,
{
    let mut network = Network::new_with_plan(p, plan);
    let endpoints: Vec<_> = (0..p).map(|r| network.endpoint(r)).collect();

    let mut results: Vec<Option<R>> = Vec::with_capacity(p);
    let mut panics: Vec<(usize, Box<dyn std::any::Any + Send>)> = Vec::new();

    std::thread::scope(|scope| {
        let handles: Vec<_> = endpoints
            .into_iter()
            .enumerate()
            .map(|(rank, endpoint)| {
                let f = &f;
                std::thread::Builder::new()
                    .name(format!("rank-{rank}"))
                    .stack_size(DEFAULT_STACK)
                    .spawn_scoped(scope, move || {
                        // Attribute every trace span recorded on this
                        // thread to its simulated rank.
                        dspgemm_obs::set_thread_rank(rank);
                        let comm = Comm::world(endpoint, p);
                        let outcome = catch_unwind(AssertUnwindSafe(|| f(&comm)));
                        if outcome.is_err() {
                            comm.poison_network();
                        }
                        // Hand the rank's trace events over at body exit:
                        // the ring's TLS destructor runs after the point a
                        // thread scope waits for.
                        dspgemm_obs::flush_thread();
                        outcome
                    })
                    .expect("failed to spawn rank thread")
            })
            .collect();
        for (rank, handle) in handles.into_iter().enumerate() {
            match handle.join().expect("rank thread join failed") {
                Ok(r) => results.push(Some(r)),
                Err(e) => {
                    results.push(None);
                    panics.push((rank, e));
                }
            }
        }
    });

    // A `CommError` unwinds without the panic hook (it is recoverable where
    // it is caught), so one that no rank caught has printed nothing: it is
    // the failure to report, ahead of the poison it set off in its peers.
    let uncaught = panics
        .iter()
        .find_map(|(rank, p)| Some((rank, p.downcast_ref::<CommError>()?)));
    if let Some((rank, err)) = uncaught {
        panic!("mpisim: rank {rank} failed with an uncaught communication error: {err}");
    }
    if let Some((rank, payload)) = panics.into_iter().next() {
        eprintln!("mpisim: rank {rank} panicked; re-raising");
        resume_unwind(payload);
    }

    SimOutput {
        results: results.into_iter().map(|o| o.expect("result")).collect(),
        stats: network.stats(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::CommCategory;

    #[test]
    fn rank_and_size_visible() {
        let out = run(5, |c| (c.rank(), c.size()));
        for (r, &(rank, size)) in out.results.iter().enumerate() {
            assert_eq!(rank, r);
            assert_eq!(size, 5);
        }
    }

    #[test]
    fn p2p_ping_pong() {
        let out = run(2, |c| {
            if c.rank() == 0 {
                c.send(1, 7, 123u64);
                c.recv::<u64>(1, 8)
            } else {
                let v: u64 = c.recv(0, 7);
                c.send(0, 8, v + 1);
                v
            }
        });
        assert_eq!(out.results, vec![124, 123]);
        assert_eq!(out.stats.bytes_in(CommCategory::P2p), 16);
        assert_eq!(out.stats.msgs_in(CommCategory::P2p), 2);
    }

    #[test]
    fn tag_matching_out_of_order() {
        // Rank 0 sends tags 1 then 2; rank 1 receives tag 2 first.
        let out = run(2, |c| {
            if c.rank() == 0 {
                c.send(1, 1, 10u32);
                c.send(1, 2, 20u32);
                0
            } else {
                let b: u32 = c.recv(0, 2);
                let a: u32 = c.recv(0, 1);
                (b - a) as usize
            }
        });
        assert_eq!(out.results[1], 10);
    }

    #[test]
    fn non_overtaking_same_tag() {
        let out = run(2, |c| {
            if c.rank() == 0 {
                for i in 0..100u32 {
                    c.send(1, 3, i);
                }
                vec![]
            } else {
                (0..100).map(|_| c.recv::<u32>(0, 3)).collect::<Vec<u32>>()
            }
        });
        assert_eq!(out.results[1], (0..100).collect::<Vec<u32>>());
    }

    #[test]
    fn sendrecv_transpose_exchange() {
        // 2x2 grid flattened: rank (i,j) = 2i + j swaps with (j,i).
        let out = run(4, |c| {
            let (i, j) = (c.rank() / 2, c.rank() % 2);
            let peer = 2 * j + i;
            c.sendrecv::<u64, u64>(peer, c.rank() as u64, peer, 0)
        });
        assert_eq!(out.results, vec![0, 2, 1, 3]);
    }

    #[test]
    fn barrier_all_sizes() {
        for p in [1, 2, 3, 4, 7, 8] {
            let out = run(p, |c| {
                c.barrier();
                c.barrier();
                true
            });
            assert!(out.results.iter().all(|&b| b));
        }
    }

    #[test]
    fn bcast_all_roots_and_sizes() {
        for p in [1, 2, 3, 5, 8] {
            for root in 0..p {
                let out = run(p, |c| {
                    let v = if c.rank() == root {
                        Some(42u64 + root as u64)
                    } else {
                        None
                    };
                    c.bcast(root, v)
                });
                assert!(out.results.iter().all(|&v| v == 42 + root as u64));
            }
        }
    }

    #[test]
    fn bcast_vector_payload_volume() {
        let out = run(4, |c| {
            let v = if c.rank() == 0 {
                Some(vec![1u32; 1000])
            } else {
                None
            };
            c.bcast(0, v).len()
        });
        assert!(out.results.iter().all(|&l| l == 1000));
        // Binomial tree over 4 ranks sends the payload exactly 3 times.
        assert_eq!(out.stats.msgs_in(CommCategory::Bcast), 3);
        assert_eq!(out.stats.bytes_in(CommCategory::Bcast), 3 * (8 + 4000));
    }

    #[test]
    fn gather_collects_in_rank_order() {
        let out = run(6, |c| c.gather(2, c.rank() as u64 * 3));
        for (r, res) in out.results.iter().enumerate() {
            if r == 2 {
                assert_eq!(res.as_ref().unwrap(), &vec![0, 3, 6, 9, 12, 15]);
            } else {
                assert!(res.is_none());
            }
        }
    }

    #[test]
    fn allgather_ring() {
        for p in [1, 2, 5, 8] {
            let out = run(p, |c| c.allgather((c.rank() as u32, c.rank() as u32 + 100)));
            let expect: Vec<(u32, u32)> = (0..p as u32).map(|r| (r, r + 100)).collect();
            assert!(out.results.iter().all(|v| *v == expect));
        }
    }

    #[test]
    fn alltoallv_routes_chunks() {
        let p = 4;
        let out = run(p, |c| {
            let chunks: Vec<Vec<u64>> = (0..p)
                .map(|dst| vec![(c.rank() * 10 + dst) as u64; c.rank() + 1])
                .collect();
            c.alltoallv(chunks)
        });
        for (dst, received) in out.results.iter().enumerate() {
            for (src, chunk) in received.iter().enumerate() {
                assert_eq!(chunk, &vec![(src * 10 + dst) as u64; src + 1]);
            }
        }
        // Self-chunks never touch the wire.
        assert_eq!(
            out.stats.msgs_in(CommCategory::Alltoall),
            (p * (p - 1)) as u64
        );
    }

    #[test]
    fn reduce_and_allreduce() {
        for p in [1, 2, 3, 6, 8] {
            let out = run(p, |c| c.reduce(0, c.rank() as u64 + 1, |a, b| a + b));
            let expect: u64 = (1..=p as u64).sum();
            assert_eq!(out.results[0], Some(expect));
            assert!(out.results[1..].iter().all(|r| r.is_none()));

            let out = run(p, |c| c.allreduce(c.rank() as u64 + 1, |a, b| a + b));
            assert!(out.results.iter().all(|&v| v == expect));
        }
    }

    #[test]
    fn reduce_non_zero_root() {
        let out = run(5, |c| c.reduce(3, 1u64, |a, b| a + b));
        assert_eq!(out.results[3], Some(5));
    }

    #[test]
    fn reduce_with_merge_semantics() {
        // Reduce with a set-union op — exercises non-numeric reduction as used
        // by the sparse aggregation.
        let out = run(4, |c| {
            c.allreduce(vec![c.rank() as u32], |mut a, b| {
                a.extend(b);
                a.sort_unstable();
                a
            })
        });
        assert!(out.results.iter().all(|v| *v == vec![0, 1, 2, 3]));
    }

    #[test]
    fn split_into_rows_and_columns() {
        // 2x2 grid: row comm and col comm.
        let out = run(4, |c| {
            let (i, j) = (c.rank() / 2, c.rank() % 2);
            let row = c.split(i as u64, j as u64);
            let col = c.split(j as u64, i as u64);
            // Sum of world ranks within my row / column.
            let row_sum = row.allreduce(c.rank() as u64, |a, b| a + b);
            let col_sum = col.allreduce(c.rank() as u64, |a, b| a + b);
            (
                row.rank(),
                row.size(),
                row_sum,
                col.rank(),
                col.size(),
                col_sum,
            )
        });
        // Rank layout: 0=(0,0) 1=(0,1) 2=(1,0) 3=(1,1).
        assert_eq!(out.results[0], (0, 2, 1, 0, 2, 2));
        assert_eq!(out.results[1], (1, 2, 1, 0, 2, 4));
        assert_eq!(out.results[2], (0, 2, 5, 1, 2, 2));
        assert_eq!(out.results[3], (1, 2, 5, 1, 2, 4));
    }

    #[test]
    fn split_key_orders_group() {
        // Reverse ordering via key.
        let out = run(4, |c| {
            let g = c.split(0, (10 - c.rank()) as u64);
            g.rank()
        });
        assert_eq!(out.results, vec![3, 2, 1, 0]);
    }

    #[test]
    fn dup_isolates_tags() {
        let out = run(2, |c| {
            let d = c.dup();
            if c.rank() == 0 {
                c.send(1, 5, 1u32);
                d.send(1, 5, 2u32);
                0
            } else {
                // Receive from the dup first: must get the dup's message even
                // though the world message arrived first.
                let from_dup: u32 = d.recv(0, 5);
                let from_world: u32 = c.recv(0, 5);
                (from_dup * 10 + from_world) as usize
            }
        });
        assert_eq!(out.results[1], 21);
    }

    #[test]
    fn concurrent_collectives_on_disjoint_comms() {
        // Rows do broadcasts while columns reduce; no interference.
        let out = run(4, |c| {
            let (i, j) = (c.rank() / 2, c.rank() % 2);
            let row = c.split(i as u64, j as u64);
            let col = c.split(j as u64, i as u64);
            let b = row.bcast(
                0,
                if row.rank() == 0 {
                    Some(i as u64)
                } else {
                    None
                },
            );
            let s = col.allreduce(1u64, |a, x| a + x);
            (b, s)
        });
        assert_eq!(out.results, vec![(0, 2), (0, 2), (1, 2), (1, 2)]);
    }

    #[test]
    #[should_panic]
    fn rank_panic_propagates_without_deadlock() {
        run(4, |c| {
            if c.rank() == 2 {
                panic!("injected failure");
            }
            // Other ranks block on a message that will never come; poison
            // must wake them.
            let _: u64 = c.recv(2, 9);
        });
    }

    #[test]
    fn stress_many_collectives() {
        let out = run(8, |c| {
            let mut acc = 0u64;
            for round in 0..50 {
                let v = c.allreduce(round + c.rank() as u64, |a, b| a.max(b));
                acc += v;
                c.barrier();
            }
            acc
        });
        let expect: u64 = (0..50).map(|r| r + 7).sum();
        assert!(out.results.iter().all(|&v| v == expect));
    }
}
