//! Property-based tests: every collective must agree with its sequential
//! reference on arbitrary inputs, sizes and roots.
//!
//! Driven by the in-repo seeded generator (the workspace builds offline, so
//! the external `proptest` crate the seed used is unavailable); each property
//! runs `CASES` independently drawn inputs, reproducible from the case seed.

use dspgemm_mpi::{run, Comm};
use dspgemm_util::rng::{Rng, SplitMix64};

const CASES: u64 = 24;

#[test]
fn bcast_delivers_root_value() {
    for case in 0..CASES {
        let mut rng = SplitMix64::derive(0xBCA57, case);
        let p = 1 + rng.gen_range(8) as usize;
        let root = rng.gen_range(9) as usize % p;
        let value = rng.next_u64();
        let out = run(p, move |comm| {
            comm.bcast(
                root,
                if comm.rank() == root {
                    Some(value)
                } else {
                    None
                },
            )
        });
        assert!(out.results.iter().all(|&v| v == value), "case {case}");
    }
}

#[test]
fn allgather_orders_by_rank() {
    for case in 0..CASES {
        let mut rng = SplitMix64::derive(0xA11, case);
        let p = 1 + rng.gen_range(8) as usize;
        let base = rng.next_u64() as u32;
        let out = run(p, move |comm| {
            comm.allgather(base.wrapping_add(comm.rank() as u32))
        });
        let expect: Vec<u32> = (0..p as u32).map(|r| base.wrapping_add(r)).collect();
        assert!(out.results.iter().all(|v| *v == expect), "case {case}");
    }
}

#[test]
fn allreduce_matches_fold() {
    for case in 0..CASES {
        let mut rng = SplitMix64::derive(0xA11_2ED, case);
        let p = 1 + rng.gen_range(8) as usize;
        let values: Vec<u64> = (0..9).map(|_| rng.next_u64()).collect();
        let vals = values.clone();
        let out = run(p, move |comm| {
            comm.allreduce(vals[comm.rank()], |a, b| a ^ b)
        });
        let expect = values[..p].iter().fold(0u64, |a, &b| a ^ b);
        assert!(out.results.iter().all(|&v| v == expect), "case {case}");
    }
}

#[test]
fn alltoallv_is_a_transpose() {
    for case in 0..CASES {
        let mut rng = SplitMix64::derive(0xA2A, case);
        let p = 1 + rng.gen_range(5) as usize;
        let seed = rng.next_u64();
        let out = run(p, move |comm| {
            let chunks: Vec<Vec<u64>> = (0..p)
                .map(|dst| vec![seed ^ ((comm.rank() * p + dst) as u64)])
                .collect();
            comm.alltoallv(chunks)
        });
        for dst in 0..p {
            for src in 0..p {
                assert_eq!(
                    out.results[dst][src][0],
                    seed ^ ((src * p + dst) as u64),
                    "case {case}"
                );
            }
        }
    }
}

#[test]
fn gather_preserves_order() {
    for case in 0..CASES {
        let mut rng = SplitMix64::derive(0x6A7_8E4, case);
        let p = 1 + rng.gen_range(8) as usize;
        let root = rng.gen_range(9) as usize % p;
        let out = run(p, move |comm| comm.gather(root, comm.rank() as u64 * 7));
        let expect: Vec<u64> = (0..p as u64).map(|r| r * 7).collect();
        assert_eq!(out.results[root].as_ref(), Some(&expect), "case {case}");
        for (r, res) in out.results.iter().enumerate() {
            if r != root {
                assert!(res.is_none(), "case {case}");
            }
        }
    }
}

#[test]
fn reduce_totals_commutative_op() {
    for case in 0..CASES {
        let mut rng = SplitMix64::derive(0x2ED_0CE, case);
        let p = 1 + rng.gen_range(8) as usize;
        let values: Vec<u32> = (0..9).map(|_| rng.next_u64() as u32).collect();
        let vals = values.clone();
        let out = run(p, move |comm| {
            comm.reduce(0, vals[comm.rank()] as u64, |a, b| a + b)
        });
        let expect: u64 = values[..p].iter().map(|&v| v as u64).sum();
        assert_eq!(out.results[0], Some(expect), "case {case}");
    }
}

/// `Comm::fold_in_reduce_order` over gathered values equals `Comm::reduce`
/// at every root of every p ≤ 4 under a non-commutative, non-associative
/// operator that records its brackets.
#[test]
fn fold_in_reduce_order_matches_reduce() {
    let op = |a: String, b: String| format!("({a} {b})");
    for p in 1..=4 {
        for root in 0..p {
            let out = run(p, move |comm| {
                let mine = format!("x{}", comm.rank());
                let gathered = comm.gather(root, mine.clone());
                let reduced = comm.reduce(root, mine, op);
                (gathered, reduced)
            });
            let (gathered, reduced) = out.results[root].clone();
            let folded = Comm::fold_in_reduce_order(gathered.expect("root gathers"), root, op);
            assert_eq!(Some(folded), reduced, "p={p}, root={root}");
        }
    }
}
