//! Counting sort and radix sort.
//!
//! The paper's update-redistribution routine groups tuples by destination rank
//! with a *counting sort over √p buckets* before each `ALLTOALL` (Section
//! IV-B) — explicitly avoiding the comparison sort its competitors use. These
//! are the sorting kernels backing that claim, plus an LSD radix sort used to
//! order triples by `(row, col)` when building CSR/DCSR blocks.

/// Stable counting sort of `items` by a small integer key.
///
/// `key(item) < buckets` must hold for every item. Returns the permuted items
/// together with the bucket boundary offsets (`offsets.len() == buckets + 1`),
/// so callers (e.g. all-to-all packing) can slice per-bucket ranges without a
/// second pass.
///
/// Runs in `O(n + buckets)` time and `O(n + buckets)` extra space.
pub fn counting_sort_by_key<T, F>(items: Vec<T>, buckets: usize, mut key: F) -> (Vec<T>, Vec<usize>)
where
    F: FnMut(&T) -> usize,
{
    let offsets = bucket_offsets(&items, buckets, &mut key);
    // Gather into per-bucket vectors (exact capacity), then concatenate —
    // two moves per item, no placeholder writes.
    let mut groups: Vec<Vec<T>> = (0..buckets)
        .map(|b| Vec::with_capacity(offsets[b + 1] - offsets[b]))
        .collect();
    for it in items {
        let k = key(&it);
        debug_assert!(k < buckets, "key {k} out of range (buckets={buckets})");
        groups[k].push(it);
    }
    let mut result = Vec::with_capacity(offsets[buckets]);
    for g in groups {
        result.extend(g);
    }
    (result, offsets)
}

/// Computes per-bucket counts and exclusive prefix offsets for `items` keyed
/// by `key`, without moving anything. `offsets.len() == buckets + 1`.
pub fn bucket_offsets<T, F>(items: &[T], buckets: usize, mut key: F) -> Vec<usize>
where
    F: FnMut(&T) -> usize,
{
    let mut counts = vec![0usize; buckets + 1];
    for it in items {
        let k = key(it);
        debug_assert!(k < buckets);
        counts[k + 1] += 1;
    }
    for b in 0..buckets {
        counts[b + 1] += counts[b];
    }
    counts
}

/// Stable LSD radix sort of `items` by a `u64` key, 8 bits per pass.
///
/// Only the passes covering `max_key` are executed, so sorting by keys known
/// to fit 32 bits costs 4 passes. `O(n)` per pass, two buffers.
pub fn radix_sort_by_key<T: Clone, F>(items: &mut Vec<T>, max_key: u64, mut key: F)
where
    F: FnMut(&T) -> u64,
{
    if items.len() <= 1 {
        return;
    }
    let passes = if max_key == 0 {
        1
    } else {
        (64 - max_key.leading_zeros() as usize).div_ceil(8)
    };
    let mut src: Vec<T> = std::mem::take(items);
    let mut dst: Vec<T> = Vec::with_capacity(src.len());
    for pass in 0..passes {
        let shift = pass * 8;
        let mut counts = [0usize; 257];
        for it in &src {
            let b = ((key(it) >> shift) & 0xff) as usize;
            counts[b + 1] += 1;
        }
        for b in 0..256 {
            counts[b + 1] += counts[b];
        }
        dst.clear();
        dst.resize_with(src.len(), || src[0].clone());
        for it in src.drain(..) {
            let b = ((key(&it) >> shift) & 0xff) as usize;
            dst[counts[b]] = it;
            counts[b] += 1;
        }
        std::mem::swap(&mut src, &mut dst);
    }
    *items = src;
}

/// Returns `true` if `slice` is sorted by the extracted key (non-decreasing).
pub fn is_sorted_by_key<T, K: Ord, F: FnMut(&T) -> K>(slice: &[T], mut key: F) -> bool {
    slice.windows(2).all(|w| key(&w[0]) <= key(&w[1]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{Rng, SplitMix64};

    #[test]
    fn counting_sort_sorts_and_is_stable() {
        // (key, original position) pairs.
        let items: Vec<(usize, usize)> =
            vec![(2, 0), (0, 1), (1, 2), (2, 3), (0, 4), (1, 5), (0, 6)];
        let (sorted, offsets) = counting_sort_by_key(items, 3, |it| it.0);
        assert_eq!(
            sorted,
            vec![(0, 1), (0, 4), (0, 6), (1, 2), (1, 5), (2, 0), (2, 3)]
        );
        assert_eq!(offsets, vec![0, 3, 5, 7]);
    }

    #[test]
    fn counting_sort_empty_and_single() {
        let (s, off) = counting_sort_by_key(Vec::<u32>::new(), 4, |&x| x as usize);
        assert!(s.is_empty());
        assert_eq!(off, vec![0, 0, 0, 0, 0]);
        let (s, off) = counting_sort_by_key(vec![2u32], 4, |&x| x as usize);
        assert_eq!(s, vec![2]);
        assert_eq!(off, vec![0, 0, 0, 1, 1]);
    }

    #[test]
    fn counting_sort_random_matches_std() {
        let mut rng = SplitMix64::new(17);
        let items: Vec<u32> = (0..10_000).map(|_| rng.gen_range(64) as u32).collect();
        let (sorted, _) = counting_sort_by_key(items.clone(), 64, |&x| x as usize);
        let mut expect = items;
        expect.sort();
        assert_eq!(sorted, expect);
    }

    #[test]
    fn bucket_offsets_match_counting_sort() {
        let mut rng = SplitMix64::new(18);
        let items: Vec<u32> = (0..5_000).map(|_| rng.gen_range(16) as u32).collect();
        let off = bucket_offsets(&items, 16, |&x| x as usize);
        let (_, off2) = counting_sort_by_key(items, 16, |&x| x as usize);
        assert_eq!(off, off2);
    }

    #[test]
    fn radix_sort_matches_std_sort() {
        let mut rng = SplitMix64::new(19);
        let mut items: Vec<u64> = (0..20_000).map(|_| rng.next_u64() >> 16).collect();
        let mut expect = items.clone();
        expect.sort_unstable();
        radix_sort_by_key(&mut items, u64::MAX >> 16, |&x| x);
        assert_eq!(items, expect);
    }

    #[test]
    fn radix_sort_stability() {
        // Sort (key, tag) by key only; equal keys must preserve tag order.
        let items_raw: Vec<(u64, usize)> = vec![(5, 0), (3, 1), (5, 2), (3, 3), (1, 4), (5, 5)];
        let mut items = items_raw;
        radix_sort_by_key(&mut items, 5, |it| it.0);
        assert_eq!(items, vec![(1, 4), (3, 1), (3, 3), (5, 0), (5, 2), (5, 5)]);
    }

    #[test]
    fn radix_sort_small_max_key_fewer_passes() {
        let mut items = vec![3u64, 1, 2, 0, 3, 1];
        radix_sort_by_key(&mut items, 3, |&x| x);
        assert_eq!(items, vec![0, 1, 1, 2, 3, 3]);
    }

    #[test]
    fn radix_sort_pair_key_row_col() {
        // The triple-sorting use case: key = row << 32 | col.
        let mut rng = SplitMix64::new(23);
        let mut items: Vec<(u32, u32)> = (0..5000)
            .map(|_| (rng.gen_range(100) as u32, rng.gen_range(100) as u32))
            .collect();
        let mut expect = items.clone();
        expect.sort();
        radix_sort_by_key(&mut items, (100u64 << 32) | 100, |&(r, c)| {
            ((r as u64) << 32) | c as u64
        });
        assert_eq!(items, expect);
    }

    #[test]
    fn is_sorted_detects() {
        assert!(is_sorted_by_key(&[1, 2, 2, 3], |&x| x));
        assert!(!is_sorted_by_key(&[1, 3, 2], |&x| x));
        assert!(is_sorted_by_key::<u32, u32, _>(&[], |&x| x));
    }
}
