//! The zero-copy (`Arc`-payload) collectives: value equality, wire-meter
//! parity with the clone-based paths, and the no-copy facts held at the
//! type level (`NoClone` compiles only where no clone is possible;
//! `CloneSpy` counts every clone a collective makes).

use dspgemm_mpi::{run, CommCategory};
use dspgemm_util::rng::{Rng, SplitMix64};
use dspgemm_util::{WireDecode, WireEncode, WireError, WireReader, WireSink};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A payload with **no `Clone` impl**: merely compiling a `bcast_shared` of
/// this type proves that collective cannot deep-clone.
#[derive(Debug, PartialEq)]
struct NoClone(Vec<u64>);

dspgemm_util::impl_wire_fields!(NoClone { 0 });

/// A payload whose `Clone` impl counts — the clone counter, at the type
/// level: a collective's clones are exactly the spy's count.
#[derive(Debug)]
struct CloneSpy(u64, &'static AtomicU64);

impl Clone for CloneSpy {
    fn clone(&self) -> Self {
        self.1.fetch_add(1, Ordering::Relaxed);
        CloneSpy(self.0, self.1)
    }
}

impl WireEncode for CloneSpy {
    fn wire_encode<S: WireSink>(&self, out: &mut S) {
        self.0.wire_encode(out);
    }
}

// A `CloneSpy` holds a process-local counter reference, so it cannot
// rematerialize on a remote rank. The sim backend never decodes (payloads
// move by pointer), so this impl only satisfies the collective bounds.
impl WireDecode for CloneSpy {
    fn wire_decode(_r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Err(WireError::Invalid("CloneSpy is process-local"))
    }
}

#[test]
fn bcast_shared_delivers_root_value_all_roots_and_sizes() {
    for case in 0..24u64 {
        let mut rng = SplitMix64::derive(0x5A4ED, case);
        let p = 1 + rng.gen_range(9) as usize;
        let root = rng.gen_range(16) as usize % p;
        let payload: Vec<u64> = (0..rng.gen_range(50)).map(|_| rng.next_u64()).collect();
        let expect = payload.clone();
        let out = run(p, move |comm| {
            let v = if comm.rank() == root {
                Some(Arc::new(payload.clone()))
            } else {
                None
            };
            comm.bcast_shared(root, v).as_ref().clone()
        });
        assert!(out.results.iter().all(|v| *v == expect), "case {case}");
    }
}

#[test]
fn bcast_shared_works_without_clone_and_shares_one_allocation() {
    let out = run(5, |comm| {
        let v = if comm.rank() == 2 {
            Some(Arc::new(NoClone(vec![7, 8, 9])))
        } else {
            None
        };
        let got = comm.bcast_shared(2, v);
        // Every rank holds the same allocation, not a copy.
        (got.0.clone(), Arc::as_ptr(&got) as usize)
    });
    assert!(out.results.iter().all(|(v, _)| *v == vec![7, 8, 9]));
    let first_ptr = out.results[0].1;
    assert!(out.results.iter().all(|&(_, p)| p == first_ptr));
}

/// Wire parity: byte and message counters of `bcast_shared` are identical to
/// `bcast` of the same payload on every size and root — zero-copy transport
/// must not distort the paper's communication-volume reproduction.
#[test]
fn bcast_shared_meter_matches_clone_based_bcast() {
    for p in [1usize, 2, 3, 4, 7, 9] {
        for root in [0, p - 1] {
            let payload: Vec<u32> = (0..1000).collect();
            let cloned = run(p, {
                let payload = payload.clone();
                move |comm| {
                    let v = if comm.rank() == root {
                        Some(payload.clone())
                    } else {
                        None
                    };
                    comm.bcast(root, v).len()
                }
            });
            let shared = run(p, {
                let payload = payload.clone();
                move |comm| {
                    let v = if comm.rank() == root {
                        Some(Arc::new(payload.clone()))
                    } else {
                        None
                    };
                    comm.bcast_shared(root, v).len()
                }
            });
            assert_eq!(cloned.results, shared.results);
            assert_eq!(
                cloned.stats.volume(),
                shared.stats.volume(),
                "p={p} root={root}"
            );
        }
    }
}

/// Copies per collective at p = 8: the broadcast tree clones once per
/// edge (p − 1), the ring once per forward (p·(p − 1)), and their `Arc`
/// instantiations never.
#[test]
fn clone_spy_counts_clone_collective_copies_only() {
    static TREE: AtomicU64 = AtomicU64::new(0);
    static SHARED_TREE: AtomicU64 = AtomicU64::new(0);
    static RING: AtomicU64 = AtomicU64::new(0);
    static SHARED_RING: AtomicU64 = AtomicU64::new(0);
    let p = 8;
    run(p, |comm| {
        let v = if comm.rank() == 0 {
            Some(CloneSpy(42, &TREE))
        } else {
            None
        };
        assert_eq!(comm.bcast(0, v).0, 42);
    });
    run(p, |comm| {
        let v = if comm.rank() == 0 {
            Some(Arc::new(CloneSpy(42, &SHARED_TREE)))
        } else {
            None
        };
        assert_eq!(comm.bcast_shared(0, v).0, 42);
    });
    run(p, |comm| {
        let all = comm.allgather(CloneSpy(comm.rank() as u64, &RING));
        assert!(all.iter().enumerate().all(|(r, v)| v.0 == r as u64));
    });
    run(p, |comm| {
        let all = comm.allgather_shared(Arc::new(CloneSpy(comm.rank() as u64, &SHARED_RING)));
        assert!(all.iter().enumerate().all(|(r, v)| v.0 == r as u64));
    });
    assert_eq!(TREE.load(Ordering::Relaxed), (p - 1) as u64);
    assert_eq!(SHARED_TREE.load(Ordering::Relaxed), 0);
    assert_eq!(RING.load(Ordering::Relaxed), (p * (p - 1)) as u64);
    assert_eq!(SHARED_RING.load(Ordering::Relaxed), 0);
}

/// Satellite regression: on a single-rank communicator both broadcast
/// flavors short-circuit — no messages, no bytes, no clones. A 1×1-grid run
/// pays zero communication overhead.
#[test]
fn single_rank_bcast_is_entirely_free() {
    static SPY: AtomicU64 = AtomicU64::new(0);
    let out = run(1, |comm| {
        let a = comm.bcast(0, Some(vec![1u64, 2, 3]));
        assert_eq!(comm.bcast(0, Some(CloneSpy(9, &SPY))).0, 9);
        let b = comm.bcast_shared(0, Some(Arc::new(NoClone(vec![4, 5]))));
        let r = comm.allreduce(7u64, |x, y| x + y);
        (a, b.0.clone(), r)
    });
    assert_eq!(out.results[0].0, vec![1, 2, 3]);
    assert_eq!(out.results[0].1, vec![4, 5]);
    assert_eq!(out.results[0].2, 7);
    assert_eq!(out.stats.total_msgs(), 0, "single-rank run sent messages");
    assert_eq!(out.stats.total_bytes(), 0);
    assert_eq!(out.stats.msgs_in(CommCategory::Bcast), 0);
    assert_eq!(SPY.load(Ordering::Relaxed), 0, "single-rank bcast cloned");
}
