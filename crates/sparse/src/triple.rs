//! `(row, col, value)` triples — the interchange format.
//!
//! Updates travel between ranks as triples (the paper's `(i, j, x)` tuples,
//! Section IV-B); matrices are constructed from triple streams; DCSR blocks
//! are built from row-major-sorted triples.

use crate::semiring::Semiring;
use crate::Index;
use dspgemm_util::sort::radix_sort_by_key;

/// A single non-zero entry (or update tuple).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Triple<V> {
    /// Row index.
    pub row: Index,
    /// Column index.
    pub col: Index,
    /// Value.
    pub val: V,
}

impl<V> Triple<V> {
    /// Creates a triple.
    #[inline]
    pub fn new(row: Index, col: Index, val: V) -> Self {
        Self { row, col, val }
    }

    /// The `(row, col)` key packed into a `u64` for radix sorting.
    #[inline]
    pub fn key(&self) -> u64 {
        ((self.row as u64) << 32) | self.col as u64
    }
}

dspgemm_util::impl_wire_fields!(Triple<V> { row, col, val });

/// Sorts triples into row-major `(row, col)` order.
///
/// Uses an LSD radix sort on a densely packed `(row, col)` key: the column
/// field is packed into just enough low bits for the largest column present,
/// so small local blocks sort in 3–4 byte passes instead of 8.
pub fn sort_row_major<V: Clone>(triples: &mut Vec<Triple<V>>) {
    let (mut max_row, mut max_col) = (0u32, 0u32);
    for t in triples.iter() {
        max_row = max_row.max(t.row);
        max_col = max_col.max(t.col);
    }
    let col_bits = 32 - max_col.leading_zeros().min(31);
    let max_key = ((max_row as u64) << col_bits) | max_col as u64;
    radix_sort_by_key(triples, max_key, |t| {
        ((t.row as u64) << col_bits) | t.col as u64
    });
    debug_assert!(dspgemm_util::sort::is_sorted_by_key(triples, Triple::key));
}

/// Returns `true` if `triples` is sorted row-major with no duplicate
/// `(row, col)` keys.
pub fn is_sorted_dedup<V>(triples: &[Triple<V>]) -> bool {
    triples.windows(2).all(|w| w[0].key() < w[1].key())
}

/// Collapses duplicate `(row, col)` keys in *sorted* triples, keeping the
/// **last** occurrence (MPI assembly semantics for "set value" updates:
/// the most recent write wins).
pub fn dedup_last_wins<V: Copy>(triples: &mut Vec<Triple<V>>) {
    debug_assert!(dspgemm_util::sort::is_sorted_by_key(triples, Triple::key));
    if triples.len() <= 1 {
        return;
    }
    let mut w = 0usize;
    for r in 0..triples.len() {
        if w > 0 && triples[w - 1].key() == triples[r].key() {
            triples[w - 1] = triples[r];
        } else {
            triples[w] = triples[r];
            w += 1;
        }
    }
    triples.truncate(w);
}

/// Collapses duplicate `(row, col)` keys in *sorted* triples by combining
/// values with the semiring addition (assembly semantics for "add value"
/// updates; also used when symmetrizing graphs that contain both `(u,v)`
/// and `(v,u)` inputs).
pub fn dedup_add<S: Semiring>(triples: &mut Vec<Triple<S::Elem>>) {
    debug_assert!(dspgemm_util::sort::is_sorted_by_key(triples, Triple::key));
    if triples.len() <= 1 {
        return;
    }
    let mut w = 0usize;
    for r in 0..triples.len() {
        if w > 0 && triples[w - 1].key() == triples[r].key() {
            triples[w - 1].val = S::add(triples[w - 1].val, triples[r].val);
        } else {
            triples[w] = triples[r];
            w += 1;
        }
    }
    triples.truncate(w);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semiring::U64Plus;
    use dspgemm_util::rng::{Rng, SplitMix64};
    use dspgemm_util::WireSize;

    fn t(r: Index, c: Index, v: u64) -> Triple<u64> {
        Triple::new(r, c, v)
    }

    #[test]
    fn key_orders_row_major() {
        assert!(t(0, 5, 0).key() < t(1, 0, 0).key());
        assert!(t(2, 3, 0).key() < t(2, 4, 0).key());
    }

    #[test]
    fn sort_row_major_random() {
        let mut rng = SplitMix64::new(42);
        let mut triples: Vec<Triple<u64>> = (0..5000)
            .map(|i| t(rng.gen_range(64) as Index, rng.gen_range(64) as Index, i))
            .collect();
        let mut expect = triples.clone();
        expect.sort_by_key(|x| (x.key(), x.val));
        sort_row_major(&mut triples);
        // Radix sort is stable, so equal keys keep insertion (val) order —
        // matching the sort_by_key above since vals are insertion-unique.
        assert_eq!(triples, expect);
    }

    #[test]
    fn dedup_last_wins_behaviour() {
        let mut v = vec![t(0, 0, 1), t(0, 0, 2), t(0, 1, 3), t(1, 0, 4), t(1, 0, 5)];
        dedup_last_wins(&mut v);
        assert_eq!(v, vec![t(0, 0, 2), t(0, 1, 3), t(1, 0, 5)]);
    }

    #[test]
    fn dedup_add_behaviour() {
        let mut v = vec![t(0, 0, 1), t(0, 0, 2), t(0, 1, 3), t(2, 2, 4), t(2, 2, 6)];
        dedup_add::<U64Plus>(&mut v);
        assert_eq!(v, vec![t(0, 0, 3), t(0, 1, 3), t(2, 2, 10)]);
    }

    #[test]
    fn dedup_empty_and_single() {
        let mut v: Vec<Triple<u64>> = vec![];
        dedup_last_wins(&mut v);
        assert!(v.is_empty());
        let mut v = vec![t(1, 1, 9)];
        dedup_add::<U64Plus>(&mut v);
        assert_eq!(v, vec![t(1, 1, 9)]);
    }

    #[test]
    fn is_sorted_dedup_checks() {
        assert!(is_sorted_dedup(&[t(0, 0, 1), t(0, 1, 1), t(1, 0, 1)]));
        assert!(!is_sorted_dedup(&[t(0, 1, 1), t(0, 0, 1)]));
        assert!(!is_sorted_dedup(&[t(0, 0, 1), t(0, 0, 2)]));
    }

    #[test]
    fn wire_size() {
        assert_eq!(t(0, 0, 0).wire_bytes(), 16);
        let v: Vec<Triple<u64>> = vec![t(0, 0, 0); 3];
        assert_eq!(v.wire_bytes(), 8 + 48);
    }
}
