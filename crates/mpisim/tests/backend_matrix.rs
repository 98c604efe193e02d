//! Cross-backend parity matrix: every case is one SPMD program run on the
//! in-process simulator and — with `--features tcp-transport` — on real OS
//! processes over the TCP mesh, at p ∈ {1, 4}. The backends must produce
//! identical per-rank results *and* identical logical wire volume (bytes
//! and message counts per rank per category): the TCP backend meters
//! logical `WireSize` bytes on the sender exactly like the simulator, so
//! any divergence is a transport bug, not measurement noise. At p = 4 the
//! bytes written to the sockets as `VALUE` payloads must also equal that
//! metered volume: `WireSize` is the encoder run into a counter.

use dspgemm_mpi::Comm;
use std::sync::Arc;

/// Expands each case into a module with `sim_p1`/`sim_p4` tests (always)
/// and `tcp_p1`/`tcp_p4` parity tests (feature `tcp-transport`). The TCP
/// tests re-execute this test binary per rank, so `run_tcp` runs first in
/// the test body — the child processes exit inside it.
macro_rules! backend_matrix {
    ($($name:ident($comm:ident) -> $ret:ty $body:block)*) => {
        $(
            mod $name {
                use super::*;

                fn case($comm: &Comm) -> $ret $body

                fn sim(p: usize) -> (Vec<$ret>, dspgemm_mpi::CommStats) {
                    let out = dspgemm_mpi::run(p, case);
                    (out.results, out.stats.volume())
                }

                #[test]
                fn sim_p1() {
                    sim(1);
                }

                #[test]
                fn sim_p4() {
                    sim(4);
                }

                #[cfg(feature = "tcp-transport")]
                fn tcp_parity(p: usize, fn_name: &str) {
                    use dspgemm_mpi::tcp::{run_tcp, test_path, Reexec, TcpConfig};
                    let out = run_tcp(
                        Reexec::Test(test_path(module_path!(), fn_name)),
                        TcpConfig::new(p),
                        case,
                    );
                    let (sim_results, sim_volume) = sim(p);
                    let tcp_results: Vec<$ret> = out
                        .results
                        .into_iter()
                        .map(|r| r.expect("every rank reports"))
                        .collect();
                    assert_eq!(tcp_results, sim_results, "results differ across backends");
                    assert_eq!(
                        out.stats.volume(),
                        sim_volume,
                        "logical wire volume differs across backends"
                    );
                    if p == 1 {
                        // Loopback short-circuit: a single rank never
                        // touches a socket.
                        assert_eq!(out.frames, 0, "p=1 sent socket frames");
                        assert_eq!(out.payload_bytes, 0, "p=1 wrote payload bytes");
                    } else {
                        // No case sends to itself at p > 1, so every metered
                        // byte crossed a socket: the meter is the encoder.
                        assert_eq!(
                            out.payload_bytes,
                            out.stats.total_bytes(),
                            "socket payload bytes differ from the metered volume"
                        );
                    }
                }

                #[cfg(feature = "tcp-transport")]
                #[test]
                fn tcp_p1() {
                    tcp_parity(1, "tcp_p1");
                }

                #[cfg(feature = "tcp-transport")]
                #[test]
                fn tcp_p4() {
                    tcp_parity(4, "tcp_p4");
                }
            }
        )*
    };
}

backend_matrix! {
    allreduce_scalars(comm) -> (u64, u64) {
        let sum = comm.allreduce(comm.rank() as u64 + 1, |a, b| a + b);
        comm.barrier();
        let max = comm.allreduce(comm.rank() as u64 * 3 + 7, |a: u64, b| a.max(b));
        (sum, max)
    }

    bcast_vector(comm) -> Vec<u64> {
        let v = if comm.rank() == 0 {
            Some((0..257u64).map(|i| i * i + 1).collect::<Vec<u64>>())
        } else {
            None
        };
        comm.bcast(0, v)
    }

    alltoallv_ragged(comm) -> Vec<Vec<u64>> {
        let p = comm.size();
        let chunks: Vec<Vec<u64>> = (0..p)
            .map(|dst| vec![(comm.rank() * 100 + dst) as u64; comm.rank() + 2 * dst + 1])
            .collect();
        comm.alltoallv(chunks)
    }

    sendrecv_ring(comm) -> (u64, Vec<u64>) {
        let p = comm.size();
        let next = (comm.rank() + 1) % p;
        let prev = (comm.rank() + p - 1) % p;
        let from_prev = comm.sendrecv::<u64, u64>(next, comm.rank() as u64, prev, 9);
        let gathered = comm.allgather(from_prev);
        (from_prev, gathered)
    }

    tags_match_out_of_order(comm) -> (u32, u32) {
        if comm.size() == 1 {
            return (0, 0);
        }
        if comm.rank() == 0 {
            for dst in 1..comm.size() {
                comm.send(dst, 1, 10u32 + dst as u32);
                comm.send(dst, 2, 20u32 + dst as u32);
            }
            (0, 0)
        } else {
            // Wait for tag 2 before tag 1: exercises the pending buffer on
            // both backends.
            let r2 = comm.irecv::<u32>(0, 2);
            let r1 = comm.irecv::<u32>(0, 1);
            let b = r2.wait();
            let a = r1.wait();
            (a, b)
        }
    }

    same_key_receives_match_in_post_order(comm) -> (u64, u64, u64) {
        if comm.size() == 1 {
            return (1, 2, 3);
        }
        if comm.rank() == 0 {
            for dst in 1..comm.size() {
                for v in 1..=3u64 {
                    comm.send(dst, 7, v);
                }
            }
            (1, 2, 3)
        } else {
            // Two posted receives and a blocking one under one key, the
            // second waited first: matching follows post order, not wait
            // order.
            let a = comm.irecv::<u64>(0, 7);
            let b = comm.irecv::<u64>(0, 7);
            let c: u64 = comm.recv(0, 7);
            let b = b.wait();
            let a = a.wait();
            assert_eq!((a, b, c), (1, 2, 3), "same-key receives matched out of post order");
            (a, b, c)
        }
    }

    shared_panels(comm) -> (Vec<u64>, u64) {
        let root_panel = if comm.rank() == 0 {
            Some(Arc::new((0..123u64).map(|i| i ^ 0xA5).collect::<Vec<u64>>()))
        } else {
            None
        };
        let panel = comm.ibcast_shared(0, root_panel).wait();
        let p = comm.size();
        let chunks: Vec<Vec<u64>> = (0..p)
            .map(|dst| vec![(comm.rank() + dst) as u64; dst + 1])
            .collect();
        let exchanged = comm.ialltoallv(chunks).wait();
        let checksum = exchanged.into_iter().flatten().sum::<u64>()
            + panel.iter().sum::<u64>();
        ((*panel).clone(), checksum)
    }

    gather_reduce(comm) -> (Option<Vec<u64>>, Option<u64>) {
        let gathered = comm.gather(1 % comm.size(), comm.rank() as u64 * 5);
        let reduced = comm.reduce(0, comm.rank() as u64 + 11, |a, b| a + b);
        (gathered, reduced)
    }
}
