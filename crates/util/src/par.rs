//! Scoped-thread data parallelism.
//!
//! Stands in for the paper's intra-process OpenMP parallelism: each simulated
//! MPI rank may additionally run `T` shared-memory worker threads (the paper
//! uses `T = 6` per rank). Because ranks are already threads in this
//! reproduction, intra-rank parallelism is kept explicit and bounded: callers
//! pass the desired thread count, and `threads == 1` runs inline with zero
//! overhead.
//!
//! The primitives here mirror the paper's usage:
//! * [`parallel_for_each_shard`] — the `i mod T` partitioning used to insert
//!   update tuples into local dynamic matrices in parallel (Section IV-B);
//! * [`parallel_map_ranges`] — row-range parallelism for local Gustavson
//!   multiplication (Section VI-A).
//!
//! On the paper's power-law inputs, equal-*count* row ranges put wildly
//! unequal *work* on the workers (one hub row can carry orders of magnitude
//! more flops than a thousand tail rows), so the SpGEMM kernels split rows
//! by estimated flops ([`split_ranges_by_weight`]) and run one worker per
//! range ([`parallel_map_ranges_init`]). Ranges are contiguous and ascending,
//! so concatenating per-range outputs yields the same result at every
//! thread count.

/// Runs `f(t)` for every shard id `t in 0..threads`, in parallel when
/// `threads > 1`. Each shard conventionally processes the items with
/// `key % threads == t`, which is exactly the paper's `(i mod T)` update
/// partitioning scheme.
///
/// Panics in any shard propagate to the caller.
pub fn parallel_for_each_shard<F>(threads: usize, f: F)
where
    F: Fn(usize) + Sync,
{
    assert!(threads >= 1, "need at least one thread");
    if threads == 1 {
        f(0);
        return;
    }
    std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = (0..threads).map(|t| scope.spawn(move || f(t))).collect();
        for h in handles {
            h.join().expect("parallel shard panicked");
        }
    });
}

/// Splits `0..n` into `threads` contiguous ranges of near-equal size and maps
/// each range through `f` in parallel, returning per-range results in order.
///
/// Used for row-parallel local SpGEMM: each worker produces the output rows of
/// its range, and the caller concatenates them (preserving row order).
pub fn parallel_map_ranges<R, F>(threads: usize, n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(std::ops::Range<usize>) -> R + Sync,
{
    assert!(threads >= 1);
    let ranges = split_ranges(n, threads);
    if threads == 1 || n == 0 {
        return ranges.into_iter().map(&f).collect();
    }
    std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = ranges
            .into_iter()
            .map(|r| scope.spawn(move || f(r)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("parallel range worker panicked"))
            .collect()
    })
}

/// Splits `0..n` into `parts` contiguous ranges whose sizes differ by at most
/// one. Ranges may be empty when `parts > n`.
pub fn split_ranges(n: usize, parts: usize) -> Vec<std::ops::Range<usize>> {
    assert!(parts >= 1);
    let base = n / parts;
    let extra = n % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for i in 0..parts {
        let len = base + usize::from(i < extra);
        out.push(start..start + len);
        start += len;
    }
    out
}

/// Splits `0..n` into exactly `parts` contiguous ranges of near-equal total
/// *weight*, given per-row weights for the non-empty rows as ascending
/// `(row, weight)` pairs (rows absent from `weighted` have weight zero).
///
/// Boundary `j` is placed after the first row whose running weight reaches
/// `total · j / parts` — a prefix-sum walk, O(|weighted|). A single row
/// heavier than `total / parts` cannot be split (row granularity), so its
/// range simply absorbs the overshoot; trailing ranges may be empty. Falls
/// back to [`split_ranges`] when all weights are zero.
pub fn split_ranges_by_weight(
    n: usize,
    parts: usize,
    weighted: &[(usize, u64)],
) -> Vec<std::ops::Range<usize>> {
    assert!(parts >= 1);
    debug_assert!(weighted.windows(2).all(|w| w[0].0 < w[1].0));
    let total: u128 = weighted.iter().map(|&(_, w)| w as u128).sum();
    if parts == 1 || total == 0 {
        return split_ranges(n, parts);
    }
    let mut out = Vec::with_capacity(parts);
    let mut start = 0usize;
    let mut acc: u128 = 0;
    for &(row, w) in weighted {
        acc += w as u128;
        if out.len() + 1 < parts && acc * parts as u128 >= total * (out.len() as u128 + 1) {
            // Cut after this row: stored rows are ascending, so row >= start
            // and the range is non-empty.
            out.push(start..row + 1);
            start = row + 1;
        }
    }
    out.push(start..n);
    while out.len() < parts {
        out.push(n..n);
    }
    out
}

/// Maps the given contiguous ranges through `f` in parallel (one worker per
/// range), returning per-range results in order. `init(t)` builds worker
/// `t`'s private state (scratch buffers, leased workspaces) once, before its
/// range is processed — [`parallel_map_ranges`] for caller-chosen ranges.
pub fn parallel_map_ranges_init<W, R, I, F>(
    ranges: Vec<std::ops::Range<usize>>,
    init: I,
    f: F,
) -> Vec<R>
where
    R: Send,
    I: Fn(usize) -> W + Sync,
    F: Fn(&mut W, std::ops::Range<usize>) -> R + Sync,
{
    if ranges.len() <= 1 {
        return ranges.into_iter().map(|r| f(&mut init(0), r)).collect();
    }
    std::thread::scope(|scope| {
        let (init, f) = (&init, &f);
        let handles: Vec<_> = ranges
            .into_iter()
            .enumerate()
            .map(|(t, r)| scope.spawn(move || f(&mut init(t), r)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("parallel range worker panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn shards_all_run_once() {
        let counter = AtomicUsize::new(0);
        let seen = (0..8).map(|_| AtomicUsize::new(0)).collect::<Vec<_>>();
        parallel_for_each_shard(8, |t| {
            counter.fetch_add(1, Ordering::SeqCst);
            seen[t].fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(counter.load(Ordering::SeqCst), 8);
        assert!(seen.iter().all(|s| s.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn single_thread_runs_inline() {
        let touched = AtomicUsize::new(0);
        parallel_for_each_shard(1, |t| {
            assert_eq!(t, 0);
            touched.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(touched.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn map_ranges_covers_everything_in_order() {
        let results = parallel_map_ranges(4, 103, |r| r.collect::<Vec<usize>>());
        let flat: Vec<usize> = results.into_iter().flatten().collect();
        assert_eq!(flat, (0..103).collect::<Vec<_>>());
    }

    #[test]
    fn map_ranges_more_threads_than_items() {
        let results = parallel_map_ranges(8, 3, |r| r.len());
        assert_eq!(results.iter().sum::<usize>(), 3);
        assert_eq!(results.len(), 8);
    }

    #[test]
    fn split_ranges_balanced() {
        let rs = split_ranges(10, 3);
        assert_eq!(rs, vec![0..4, 4..7, 7..10]);
        let rs = split_ranges(0, 2);
        assert_eq!(rs, vec![0..0, 0..0]);
    }

    #[test]
    #[should_panic(expected = "parallel shard panicked")]
    fn shard_panic_propagates() {
        parallel_for_each_shard(2, |t| {
            if t == 1 {
                panic!("boom");
            }
        });
    }

    #[test]
    fn weighted_split_covers_and_balances() {
        // Row 0 carries half the weight; rows 1..10 share the rest.
        let mut weighted = vec![(0usize, 90u64)];
        weighted.extend((1..10).map(|r| (r, 10)));
        let rs = split_ranges_by_weight(10, 3, &weighted);
        assert_eq!(rs.len(), 3);
        // Contiguous cover of 0..10.
        let mut pos = 0;
        for r in &rs {
            assert_eq!(r.start, pos);
            pos = r.end;
        }
        assert_eq!(pos, 10);
        // The hub row is alone in its range; the tail is split by weight.
        assert_eq!(rs[0], 0..1);
        let w_of = |r: &std::ops::Range<usize>| -> u64 {
            weighted
                .iter()
                .filter(|&&(row, _)| r.contains(&row))
                .map(|&(_, w)| w)
                .sum()
        };
        assert!(w_of(&rs[1]) > 0 && w_of(&rs[2]) > 0);
    }

    #[test]
    fn weighted_split_zero_weight_falls_back() {
        assert_eq!(split_ranges_by_weight(10, 3, &[]), split_ranges(10, 3));
        assert_eq!(split_ranges_by_weight(10, 1, &[(2, 5)]), vec![0..10]);
    }

    #[test]
    fn weighted_split_pads_empty_tail_ranges() {
        // All weight in row 0: every boundary lands immediately.
        let rs = split_ranges_by_weight(4, 4, &[(0, 100)]);
        assert_eq!(rs.len(), 4);
        assert_eq!(rs[0], 0..1);
        assert_eq!(rs.last().unwrap().end, 4);
        let total: usize = rs.iter().map(|r| r.len()).sum();
        assert_eq!(total, 4);
    }

    #[test]
    fn ranges_init_builds_state_per_worker() {
        let ranges = split_ranges(100, 4);
        let results = parallel_map_ranges_init(
            ranges,
            |t| (t, Vec::<usize>::new()),
            |(t, scratch), r| {
                scratch.extend(r.clone());
                (*t, scratch.len())
            },
        );
        assert_eq!(results.len(), 4);
        for (t, (worker, len)) in results.iter().enumerate() {
            assert_eq!(t, *worker);
            assert_eq!(*len, 25);
        }
    }
}
