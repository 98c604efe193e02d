//! Compressed sparse row storage for static matrices.
//!
//! On the wire a `Csr` is a 16-byte header (`nrows: u32`, `ncols: u32`,
//! `nnz: u64`) followed by `row_ptr`, `cols` and `vals` back to back; every
//! array length follows from the header, and the decoder checks each against
//! the bytes remaining before allocating and re-validates the invariants.

use crate::semiring::Semiring;
use crate::triple::{self, Triple};
use crate::{Index, RowRead, RowScan};
use dspgemm_util::wire::{decode_elems, encode_elems};
use dspgemm_util::{WireDecode, WireEncode, WireError, WireReader, WireSink};

/// A static sparse matrix in CSR layout.
///
/// Row entries are stored in ascending column order when built through
/// [`Csr::from_triples`]; kernels do not rely on that order (the paper does
/// not sort static layouts either), but sorted order makes merges and tests
/// deterministic.
#[derive(Debug, Clone, PartialEq)]
pub struct Csr<V> {
    nrows: Index,
    ncols: Index,
    row_ptr: Vec<usize>,
    cols: Vec<Index>,
    vals: Vec<V>,
}

impl<V: Copy> Csr<V> {
    /// An empty matrix of the given shape.
    pub fn empty(nrows: Index, ncols: Index) -> Self {
        Self {
            nrows,
            ncols,
            row_ptr: vec![0; nrows as usize + 1],
            cols: Vec::new(),
            vals: Vec::new(),
        }
    }

    /// Builds from triples in arbitrary order; duplicates are combined with
    /// the semiring addition.
    pub fn from_triples<S: Semiring<Elem = V>>(
        nrows: Index,
        ncols: Index,
        mut triples: Vec<Triple<V>>,
    ) -> Self {
        triple::sort_row_major(&mut triples);
        triple::dedup_add::<S>(&mut triples);
        Self::from_sorted_triples(nrows, ncols, &triples)
    }

    /// Builds from row-major-sorted, duplicate-free triples.
    ///
    /// # Panics
    /// In debug builds, panics if the input is not sorted and deduplicated,
    /// or if an index is out of range.
    pub fn from_sorted_triples(nrows: Index, ncols: Index, triples: &[Triple<V>]) -> Self {
        debug_assert!(
            triple::is_sorted_dedup(triples),
            "input must be sorted+dedup"
        );
        let mut row_ptr = vec![0usize; nrows as usize + 1];
        for t in triples {
            debug_assert!(t.row < nrows && t.col < ncols, "index out of range");
            row_ptr[t.row as usize + 1] += 1;
        }
        for r in 0..nrows as usize {
            row_ptr[r + 1] += row_ptr[r];
        }
        let mut cols = Vec::with_capacity(triples.len());
        let mut vals = Vec::with_capacity(triples.len());
        for t in triples {
            cols.push(t.col);
            vals.push(t.val);
        }
        Self {
            nrows,
            ncols,
            row_ptr,
            cols,
            vals,
        }
    }

    /// Builds a matrix directly from its storage arrays, taking ownership
    /// without copying (cf. [`crate::Dcsr::from_parts`]) — the path of
    /// producers that already emit rows in order, such as the DHB
    /// conversions.
    ///
    /// `row_ptr` has `nrows + 1` elements, starts at 0, is non-decreasing
    /// and ends at `cols.len()`; `cols` and `vals` are parallel. Invariants
    /// are debug-asserted ([`Csr::validate`]).
    pub fn from_parts(
        nrows: Index,
        ncols: Index,
        row_ptr: Vec<usize>,
        cols: Vec<Index>,
        vals: Vec<V>,
    ) -> Self {
        let m = Self {
            nrows,
            ncols,
            row_ptr,
            cols,
            vals,
        };
        debug_assert_eq!(m.validate(), Ok(()));
        m
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> Index {
        self.nrows
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> Index {
        self.ncols
    }

    /// Number of structural non-zeros.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.cols.len()
    }

    /// The row pointers: row `r` spans `row_ptr()[r]..row_ptr()[r + 1]` of
    /// [`Csr::cols`] and [`Csr::vals`].
    #[inline]
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// The column indices of all rows, concatenated in row order.
    #[inline]
    pub fn cols(&self) -> &[Index] {
        &self.cols
    }

    /// The values of all rows, parallel to [`Csr::cols`].
    #[inline]
    pub fn vals(&self) -> &[V] {
        &self.vals
    }

    /// The non-zeros of row `r` as parallel `(cols, vals)` slices.
    #[inline]
    pub fn row(&self, r: Index) -> (&[Index], &[V]) {
        let lo = self.row_ptr[r as usize];
        let hi = self.row_ptr[r as usize + 1];
        (&self.cols[lo..hi], &self.vals[lo..hi])
    }

    /// Looks up entry `(r, c)` by scanning row `r` (O(row degree); CSR has no
    /// per-row index — dynamic lookups belong to `DhbMatrix`).
    pub fn get(&self, r: Index, c: Index) -> Option<V> {
        let (cols, vals) = self.row(r);
        cols.iter().position(|&x| x == c).map(|i| vals[i])
    }

    /// All entries as row-major triples.
    pub fn to_triples(&self) -> Vec<Triple<V>> {
        let mut out = Vec::with_capacity(self.nnz());
        for r in 0..self.nrows {
            let (cols, vals) = self.row(r);
            for (&c, &v) in cols.iter().zip(vals) {
                out.push(Triple::new(r, c, v));
            }
        }
        out
    }

    /// Element-wise addition over a semiring (used by static baselines that
    /// rebuild `A + A*` from scratch).
    pub fn add<S: Semiring<Elem = V>>(&self, other: &Csr<V>) -> Csr<V> {
        assert_eq!(self.nrows, other.nrows);
        assert_eq!(self.ncols, other.ncols);
        let mut triples = self.to_triples();
        triples.extend(other.to_triples());
        Csr::from_triples::<S>(self.nrows, self.ncols, triples)
    }

    /// Heap bytes held by the three storage arrays (capacity, not length) —
    /// the snapshot-retention regression signal: a published epoch's memory
    /// footprint is the sum of its blocks' `heap_bytes`.
    pub fn heap_bytes(&self) -> usize {
        self.row_ptr.capacity() * std::mem::size_of::<usize>()
            + self.cols.capacity() * std::mem::size_of::<Index>()
            + self.vals.capacity() * std::mem::size_of::<V>()
    }

    /// Internal consistency check (row pointers monotone, indices in range).
    pub fn validate(&self) -> Result<(), String> {
        if self.row_ptr.len() != self.nrows as usize + 1 {
            return Err("row_ptr length mismatch".into());
        }
        if *self.row_ptr.last().unwrap() != self.cols.len() || self.cols.len() != self.vals.len() {
            return Err("nnz bookkeeping mismatch".into());
        }
        for w in self.row_ptr.windows(2) {
            if w[0] > w[1] {
                return Err("row_ptr not monotone".into());
            }
        }
        if self.cols.iter().any(|&c| c >= self.ncols) {
            return Err("column index out of range".into());
        }
        Ok(())
    }
}

impl<V: Copy> RowRead<V> for Csr<V> {
    #[inline]
    fn nrows(&self) -> Index {
        self.nrows
    }

    #[inline]
    fn ncols(&self) -> Index {
        self.ncols
    }

    #[inline]
    fn row(&self, r: Index) -> (&[Index], &[V]) {
        Csr::row(self, r)
    }
}

impl<V: Copy> RowScan<V> for Csr<V> {
    #[inline]
    fn nrows(&self) -> Index {
        self.nrows
    }

    #[inline]
    fn ncols(&self) -> Index {
        self.ncols
    }

    #[inline]
    fn nnz(&self) -> usize {
        self.cols.len()
    }

    fn scan_rows(&self, mut f: impl FnMut(Index, &[Index], &[V])) {
        for r in 0..self.nrows {
            let (cols, vals) = self.row(r);
            if !cols.is_empty() {
                f(r, cols, vals);
            }
        }
    }

    fn scan_row_range(&self, lo: Index, hi: Index, mut f: impl FnMut(Index, &[Index], &[V])) {
        for r in lo..hi {
            let (cols, vals) = self.row(r);
            if !cols.is_empty() {
                f(r, cols, vals);
            }
        }
    }
}

impl<V: WireEncode> WireEncode for Csr<V> {
    /// Packed form: a 16-byte header (`nrows: u32`, `ncols: u32`, `nnz: u64`)
    /// and then the three arrays back to back with no length prefixes —
    /// 8 B per row pointer (`nrows + 1` of them), 4 B per column index, the
    /// value payload. This is what `MPI_Send` of a packed CSR would move.
    fn wire_encode<S: WireSink>(&self, out: &mut S) {
        self.nrows.wire_encode(out);
        self.ncols.wire_encode(out);
        self.cols.len().wire_encode(out);
        encode_elems(&self.row_ptr, out);
        encode_elems(&self.cols, out);
        encode_elems(&self.vals, out);
    }
}

impl<V: WireDecode> WireDecode for Csr<V> {
    /// Decoding validates the CSR invariants before constructing, so a
    /// corrupt or mismatched stream surfaces as a [`WireError`] instead of
    /// an out-of-bounds panic deep inside a kernel. The array lengths follow
    /// from the header, and `decode_elems` holds each against the bytes
    /// remaining before allocating for it.
    fn wire_decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let nrows = Index::wire_decode(r)?;
        let ncols = Index::wire_decode(r)?;
        let nnz = usize::wire_decode(r)?;
        let row_ptr: Vec<usize> = decode_elems(r, nrows as usize + 1)?;
        let cols: Vec<Index> = decode_elems(r, nnz)?;
        let vals: Vec<V> = decode_elems(r, nnz)?;
        if row_ptr.first() != Some(&0)
            || row_ptr.last() != Some(&nnz)
            || row_ptr.windows(2).any(|w| w[0] > w[1])
            || cols.iter().any(|&c| c >= ncols)
        {
            return Err(WireError::Invalid("csr invariants"));
        }
        Ok(Self {
            nrows,
            ncols,
            row_ptr,
            cols,
            vals,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semiring::U64Plus;
    use dspgemm_util::WireSize;

    fn t(r: Index, c: Index, v: u64) -> Triple<u64> {
        Triple::new(r, c, v)
    }

    fn sample() -> Csr<u64> {
        // 3x4:
        // [10  0 11  0]
        // [ 0  0  0  0]
        // [12 13  0 14]
        Csr::from_triples::<U64Plus>(
            3,
            4,
            vec![
                t(2, 3, 14),
                t(0, 0, 10),
                t(2, 0, 12),
                t(0, 2, 11),
                t(2, 1, 13),
            ],
        )
    }

    #[test]
    fn construction_and_rows() {
        let m = sample();
        assert_eq!(m.nnz(), 5);
        assert_eq!(m.row(0), (&[0u32, 2][..], &[10u64, 11][..]));
        assert_eq!(m.row(1), (&[][..], &[][..]));
        assert_eq!(m.row(2), (&[0u32, 1, 3][..], &[12u64, 13, 14][..]));
        m.validate().unwrap();
    }

    #[test]
    fn duplicates_combine_with_add() {
        let m = Csr::from_triples::<U64Plus>(2, 2, vec![t(0, 0, 1), t(0, 0, 2), t(1, 1, 5)]);
        assert_eq!(m.get(0, 0), Some(3));
        assert_eq!(m.get(1, 1), Some(5));
        assert_eq!(m.get(0, 1), None);
        assert_eq!(m.nnz(), 2);
    }

    #[test]
    fn triples_roundtrip() {
        let m = sample();
        let back = Csr::from_sorted_triples(3, 4, &m.to_triples());
        assert_eq!(m, back);
    }

    #[test]
    fn add_elementwise() {
        let a = Csr::from_triples::<U64Plus>(2, 2, vec![t(0, 0, 1), t(0, 1, 2)]);
        let b = Csr::from_triples::<U64Plus>(2, 2, vec![t(0, 0, 10), t(1, 1, 3)]);
        let c = a.add::<U64Plus>(&b);
        assert_eq!(c.get(0, 0), Some(11));
        assert_eq!(c.get(0, 1), Some(2));
        assert_eq!(c.get(1, 1), Some(3));
        assert_eq!(c.nnz(), 3);
    }

    #[test]
    fn empty_matrix() {
        let m: Csr<u64> = Csr::empty(5, 5);
        assert_eq!(m.nnz(), 0);
        m.validate().unwrap();
        assert_eq!(m.to_triples(), vec![]);
    }

    #[test]
    fn scan_rows_skips_empty() {
        let m = sample();
        let mut rows = vec![];
        RowScan::scan_rows(&m, |r, cols, _| {
            rows.push((r, cols.len()));
        });
        assert_eq!(rows, vec![(0, 2), (2, 3)]);
    }

    #[test]
    fn scan_row_range() {
        let m = sample();
        let mut rows = vec![];
        RowScan::scan_row_range(&m, 1, 3, |r, _, _| rows.push(r));
        assert_eq!(rows, vec![2]);
    }

    #[test]
    fn wire_bytes_formula() {
        let m = sample();
        // 16 header + 8*4 row_ptr + 4*5 cols + 8*5 vals.
        assert_eq!(m.wire_bytes(), 16 + 32 + 20 + 40);
    }
}
