//! The Bloom-guided extraction `A^R` of the general dynamic SpGEMM.
//!
//! Keep row `i` iff `r_i ≠ 0` and, within it, column `k` iff bit `k mod 64`
//! of `r_i` is set (Section V-B). The local update operators of Section IV-A
//! (`A += A*`, MERGE, MASK) live with the distributed apply that calls them,
//! `dspgemm_core::update`.

use crate::bloom::may_contain;
use crate::dcsr::Dcsr;
use crate::{Index, RowScan};

/// Extracts `A^R` from a local block of `A'`: keeps row `i` iff
/// `filter[i] ≠ 0`, and within a kept row keeps column `k` iff
/// `filter[i]` may contain global column `k = col + col_offset`.
///
/// The paper chooses to filter (and broadcast) `A'` rather than `B'` because
/// matrices are stored row-wise, making row extraction + column subsetting
/// cheap (Section V-B). Output entries are column-sorted.
pub fn extract_filtered<V: Copy, M: RowScan<V>>(
    a: &M,
    filter: &[u64],
    col_offset: Index,
) -> Dcsr<V> {
    assert_eq!(a.nrows() as usize, filter.len(), "filter length mismatch");
    let mut out = Dcsr::empty(a.nrows(), a.ncols());
    // Per-row scratch, reused across rows: the kept entries, and — only for
    // a row that is not already in column order — their sorted copy.
    let mut cols_buf: Vec<Index> = Vec::new();
    let mut vals_buf: Vec<V> = Vec::new();
    let mut order: Vec<usize> = Vec::new();
    let mut sorted_cols: Vec<Index> = Vec::new();
    let mut sorted_vals: Vec<V> = Vec::new();
    a.scan_rows(|r, cols, vals| {
        let bits = filter[r as usize];
        if bits == 0 {
            return;
        }
        cols_buf.clear();
        vals_buf.clear();
        for (&c, &v) in cols.iter().zip(vals) {
            if may_contain(bits, c + col_offset) {
                cols_buf.push(c);
                vals_buf.push(v);
            }
        }
        if cols_buf.is_empty() {
            return;
        }
        // Row entries may be unsorted (DHB keeps insertion order, and only a
        // bulk-filled row is in column order); sort by column for a
        // canonical DCSR.
        if cols_buf.windows(2).all(|w| w[0] < w[1]) {
            out.push_row(r, &cols_buf, &vals_buf);
            return;
        }
        order.clear();
        order.extend(0..cols_buf.len());
        order.sort_unstable_by_key(|&i| cols_buf[i]);
        sorted_cols.clear();
        sorted_cols.extend(order.iter().map(|&i| cols_buf[i]));
        sorted_vals.clear();
        sorted_vals.extend(order.iter().map(|&i| vals_buf[i]));
        out.push_row(r, &sorted_cols, &sorted_vals);
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bloom::bloom_bit;
    use crate::dhb::DhbMatrix;
    use crate::semiring::U64Plus;
    use crate::triple::Triple;

    fn t(r: Index, c: Index, v: u64) -> Triple<u64> {
        Triple::new(r, c, v)
    }

    #[test]
    fn extract_filtered_rows_and_cols() {
        let a = Dcsr::from_triples::<U64Plus>(
            4,
            200,
            vec![
                t(0, 1, 10),
                t(0, 65, 11),
                t(0, 2, 12),
                t(1, 1, 13),
                t(3, 5, 14),
            ],
        );
        // Row 0: allow k with bit (1 mod 64) -> keeps cols 1 and 65 (alias).
        // Row 1: zero filter -> dropped. Row 3: allow bit of col 5.
        let filter = vec![bloom_bit(1), 0, 0, bloom_bit(5)];
        let out = extract_filtered(&a, &filter, 0);
        assert_eq!(
            out.to_triples(),
            vec![t(0, 1, 10), t(0, 65, 11), t(3, 5, 14)]
        );
        out.validate().unwrap();
    }

    #[test]
    fn extract_filtered_col_offset() {
        let a = Dcsr::from_triples::<U64Plus>(1, 10, vec![t(0, 0, 1), t(0, 1, 2)]);
        // Global col of local col 0 is 7; allow only global 8 (= local 1).
        let out = extract_filtered(&a, &[bloom_bit(8)], 7);
        assert_eq!(out.to_triples(), vec![t(0, 1, 2)]);
    }

    #[test]
    fn extract_filtered_from_dhb_sorts_rows() {
        let mut a: DhbMatrix<u64> = DhbMatrix::new(2, 10);
        a.set(0, 7, 1);
        a.set(0, 3, 2);
        a.set(0, 5, 3);
        let out = extract_filtered(&a, &[u64::MAX, 0], 0);
        let cols: Vec<Index> = out.to_triples().iter().map(|x| x.col).collect();
        assert_eq!(cols, vec![3, 5, 7]);
    }

    #[test]
    fn unsorted_and_sorted_rows_extract_alike() {
        // The same matrix with rows in insertion order (sort path) and
        // bulk-filled in column order (copy path), under a filter that
        // drops a column from the middle of each row.
        let entries = [
            (0, vec![(9, 1u64), (2, 2), (70, 3), (5, 4), (66, 5)]),
            (1, vec![(3, 6)]),
            (2, vec![(64, 7), (0, 8), (1, 9)]),
        ];
        let mut unsorted: DhbMatrix<u64> = DhbMatrix::new(3, 100);
        let mut triples = Vec::new();
        for (r, row) in &entries {
            for &(c, v) in row {
                unsorted.set(*r, c, v);
                triples.push(t(*r, c, v));
            }
        }
        let sorted = Dcsr::from_triples::<U64Plus>(3, 100, triples);
        let filter = [!bloom_bit(5), u64::MAX, !bloom_bit(1)];
        let want = vec![
            t(0, 2, 2),
            t(0, 9, 1),
            t(0, 66, 5),
            t(0, 70, 3),
            t(1, 3, 6),
            t(2, 0, 8),
            t(2, 64, 7),
        ];
        for off in [0, 64] {
            let from_unsorted = extract_filtered(&unsorted, &filter, off);
            from_unsorted.validate().unwrap();
            assert_eq!(from_unsorted.to_triples(), want);
            assert_eq!(from_unsorted, extract_filtered(&sorted, &filter, off));
        }
    }

    #[test]
    fn extract_full_filter_keeps_everything() {
        let a = Dcsr::from_triples::<U64Plus>(3, 3, vec![t(0, 0, 1), t(1, 2, 2), t(2, 1, 3)]);
        let out = extract_filtered(&a, &[u64::MAX; 3], 0);
        assert_eq!(out.to_triples(), a.to_triples());
    }
}
