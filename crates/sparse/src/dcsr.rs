//! Doubly compressed sparse row storage for hypersparse matrices.
//!
//! A hypersparse matrix has `nnz ≪ n`: most rows are empty, so CSR's dense
//! `n + 1` row-pointer array dominates its footprint *and its wire size*.
//! DCSR stores pointers only for non-empty rows (the row-id array `rows` plus
//! a compressed `row_ptr`), which "can substantially decrease communication
//! volume when hypersparse matrices need to be communicated" (Section IV).
//!
//! Update matrices (`A*`, `B*`), SpGEMM partial blocks (`Xᵢ`, `Yⱼ`) and the
//! pattern/filter blocks of the general algorithm are all DCSR. The
//! algorithms scan a DCSR; the one lookup — the `C*` pattern serving as an
//! output mask, one row per output row ([`Dcsr::row_cols`]) — is a binary
//! search over the sorted row ids, so no per-row lookup structure is kept.
//!
//! On the wire a `Dcsr` is a 12-byte header (`nrows`, `ncols`, stored-row
//! count, `u32` each), then the index structure gap-coded as varints — per
//! stored row its id gap, its length and its column gaps, typically 3 B per
//! row and 1–2 B per entry — then the values at fixed width. `row_ptr` is not
//! sent. The grammar is on [`Dcsr::wire_encode`]; the decoder checks every
//! count against the bytes remaining before allocating for it.

use crate::semiring::Semiring;
use crate::triple::{self, Triple};
use crate::workspace::TransposeWorkspace;
use crate::{Index, RowScan};
use dspgemm_util::wire::{decode_elems, encode_elems, put_varint};
use dspgemm_util::{WireDecode, WireEncode, WireError, WireReader, WireSink};

/// A hypersparse matrix: row ids + compressed row pointers + column/value
/// arrays.
#[derive(Debug, Clone, PartialEq)]
pub struct Dcsr<V> {
    nrows: Index,
    ncols: Index,
    /// Sorted ids of non-empty rows.
    rows: Vec<Index>,
    /// `row_ptr[i]..row_ptr[i+1]` spans the entries of `rows[i]`.
    row_ptr: Vec<usize>,
    cols: Vec<Index>,
    vals: Vec<V>,
}

impl<V: Copy> Dcsr<V> {
    /// An empty matrix of the given shape.
    pub fn empty(nrows: Index, ncols: Index) -> Self {
        Self {
            nrows,
            ncols,
            rows: Vec::new(),
            row_ptr: vec![0],
            cols: Vec::new(),
            vals: Vec::new(),
        }
    }

    /// An empty matrix with capacity for `rows_cap` stored rows and
    /// `nnz_cap` entries, so bulk appends ([`Dcsr::append_rows_flat`]) never
    /// reallocate.
    pub fn with_capacity(nrows: Index, ncols: Index, rows_cap: usize, nnz_cap: usize) -> Self {
        let mut row_ptr = Vec::with_capacity(rows_cap + 1);
        row_ptr.push(0);
        Self {
            nrows,
            ncols,
            rows: Vec::with_capacity(rows_cap),
            row_ptr,
            cols: Vec::with_capacity(nnz_cap),
            vals: Vec::with_capacity(nnz_cap),
        }
    }

    /// Builds a matrix directly from its flat storage arrays, taking
    /// ownership without copying — the bulk-construction path of the SpGEMM
    /// kernels, which drain their accumulators straight into these buffers.
    ///
    /// `rows` are the strictly increasing ids of the non-empty rows;
    /// `row_ptr` has one more element than `rows`, starts at 0, is strictly
    /// increasing and ends at `cols.len()`; `cols` and `vals` are parallel.
    /// Invariants are debug-asserted ([`Dcsr::validate`]).
    pub fn from_parts(
        nrows: Index,
        ncols: Index,
        rows: Vec<Index>,
        row_ptr: Vec<usize>,
        cols: Vec<Index>,
        vals: Vec<V>,
    ) -> Self {
        let m = Self {
            nrows,
            ncols,
            rows,
            row_ptr,
            cols,
            vals,
        };
        debug_assert_eq!(m.validate(), Ok(()));
        m
    }

    /// Bulk-appends a block of rows given in the flat `(rows, row_ptr,
    /// cols, vals)` form of [`Dcsr::from_parts`], except that `row_ptr` may
    /// start anywhere (offsets are taken relative to its first element, so a
    /// span of another matrix's stored rows appends as it stands). All
    /// appended row ids must exceed the last stored row id — the
    /// concatenation path for per-range kernel outputs, which arrive in
    /// disjoint increasing row ranges. One `memcpy` per array, no per-row
    /// work.
    pub fn append_rows_flat(
        &mut self,
        rows: &[Index],
        row_ptr: &[usize],
        cols: &[Index],
        vals: &[V],
    ) {
        debug_assert_eq!(row_ptr.len(), rows.len() + 1);
        let base = row_ptr[0];
        debug_assert_eq!(row_ptr[rows.len()] - base, cols.len());
        debug_assert_eq!(cols.len(), vals.len());
        if rows.is_empty() {
            return;
        }
        debug_assert!(self.rows.last().is_none_or(|&last| last < rows[0]));
        debug_assert!(rows.windows(2).all(|w| w[0] < w[1]));
        let offset = self.cols.len();
        self.rows.extend_from_slice(rows);
        self.cols.extend_from_slice(cols);
        self.vals.extend_from_slice(vals);
        self.row_ptr
            .extend(row_ptr[1..].iter().map(|&p| offset + (p - base)));
    }

    /// Builds from triples in arbitrary order, combining duplicates with the
    /// semiring addition.
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
    pub fn from_sorted_triples(nrows: Index, ncols: Index, triples: &[Triple<V>]) -> Self {
        debug_assert!(
            triple::is_sorted_dedup(triples),
            "input must be sorted+dedup"
        );
        let mut m = Self::empty(nrows, ncols);
        m.cols.reserve(triples.len());
        m.vals.reserve(triples.len());
        for t in triples {
            debug_assert!(t.row < nrows && t.col < ncols, "index out of range");
            m.push_row_entry(t.row, t.col, t.val);
        }
        m
    }

    /// Appends an entry; `row` must be ≥ the last appended row (row-major
    /// append order). Used by kernels that emit output rows in order.
    #[inline]
    pub fn push_row_entry(&mut self, row: Index, col: Index, val: V) {
        match self.rows.last() {
            Some(&last) if last == row => {}
            Some(&last) => {
                debug_assert!(last < row, "rows must be appended in increasing order");
                self.rows.push(row);
                self.row_ptr.push(self.cols.len());
            }
            None => {
                self.rows.push(row);
                self.row_ptr.push(self.cols.len());
            }
        }
        self.cols.push(col);
        self.vals.push(val);
        *self.row_ptr.last_mut().unwrap() = self.cols.len();
    }

    /// Appends a whole row (cols/vals parallel slices); rows must arrive in
    /// increasing order and must be non-empty.
    pub fn push_row(&mut self, row: Index, cols: &[Index], vals: &[V]) {
        debug_assert!(!cols.is_empty());
        debug_assert_eq!(cols.len(), vals.len());
        debug_assert!(self.rows.last().is_none_or(|&last| last < row));
        self.rows.push(row);
        self.cols.extend_from_slice(cols);
        self.vals.extend_from_slice(vals);
        self.row_ptr.push(self.cols.len());
    }

    /// Number of rows (logical shape, not stored rows).
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

    /// Number of non-empty rows.
    #[inline]
    pub fn nrows_stored(&self) -> usize {
        self.rows.len()
    }

    /// Iterates `(row, cols, vals)` over non-empty rows in increasing row
    /// order.
    pub fn iter_rows(&self) -> impl Iterator<Item = (Index, &[Index], &[V])> + '_ {
        self.rows.iter().enumerate().map(move |(i, &r)| {
            let lo = self.row_ptr[i];
            let hi = self.row_ptr[i + 1];
            (r, &self.cols[lo..hi], &self.vals[lo..hi])
        })
    }

    /// The columns of row `r`, ascending — empty if the row stores nothing.
    /// A binary search over the stored row ids: `O(log stored rows)`.
    pub fn row_cols(&self, r: Index) -> &[Index] {
        match self.rows.binary_search(&r) {
            Ok(i) => &self.cols[self.row_ptr[i]..self.row_ptr[i + 1]],
            Err(_) => &[],
        }
    }

    /// All entries as row-major triples.
    pub fn to_triples(&self) -> Vec<Triple<V>> {
        let mut out = Vec::with_capacity(self.nnz());
        for (r, cols, vals) in self.iter_rows() {
            for (&c, &v) in cols.iter().zip(vals) {
                out.push(Triple::new(r, c, v));
            }
        }
        out
    }

    /// Maps the values (keeping the pattern).
    pub fn map<W: Copy>(&self, mut f: impl FnMut(V) -> W) -> Dcsr<W> {
        Dcsr {
            nrows: self.nrows,
            ncols: self.ncols,
            rows: self.rows.clone(),
            row_ptr: self.row_ptr.clone(),
            cols: self.cols.clone(),
            vals: self.vals.iter().map(|&v| f(v)).collect(),
        }
    }

    /// The transposed matrix in canonical (row-major sorted, duplicate-free)
    /// form, through a reusable [`TransposeWorkspace`] (counting sort by
    /// column; `O(nnz + ncols)` — the `O(ncols)` cursor scratch is reused,
    /// so a per-round virtual transposition allocates its output only).
    ///
    /// Canonicality is the bit-identity lemma of the virtual-transposition
    /// path: the output's stored rows are the input's distinct columns in
    /// ascending order, entries within each output row follow the input's
    /// ascending row order, and the input is duplicate-free — so the result
    /// equals `Dcsr::from_sorted_triples` over the flipped entry set,
    /// exactly what a physically exchanged transposed block would contain.
    pub fn transpose_into(&self, ws: &mut TransposeWorkspace) -> Dcsr<V> {
        let n_out = self.ncols as usize;
        let counts = &mut ws.counts;
        counts.clear();
        counts.resize(n_out, 0);
        for &c in &self.cols {
            counts[c as usize] += 1;
        }
        let mut rows = Vec::new();
        let mut row_ptr = vec![0];
        // Compact the counts into the stored-row list and turn them into
        // per-column start cursors in the same pass.
        let mut cum = 0usize;
        for (c, count) in counts.iter_mut().enumerate() {
            let k = *count;
            if k > 0 {
                rows.push(c as Index);
                cum += k;
                row_ptr.push(cum);
            }
            *count = cum - k;
        }
        let mut cols = vec![0; self.nnz()];
        // Fill with placeholder then overwrite by position.
        let mut vals = self.vals.clone();
        for (r, rcols, rvals) in self.iter_rows() {
            for (&c, &v) in rcols.iter().zip(rvals) {
                let pos = counts[c as usize];
                cols[pos] = r;
                vals[pos] = v;
                counts[c as usize] += 1;
            }
        }
        let m = Dcsr {
            nrows: self.ncols,
            ncols: self.nrows,
            rows,
            row_ptr,
            cols,
            vals,
        };
        debug_assert_eq!(m.validate(), Ok(()));
        m
    }

    /// [`Dcsr::transpose_into`] with a throwaway workspace.
    pub fn transpose(&self) -> Dcsr<V> {
        self.transpose_into(&mut TransposeWorkspace::new())
    }

    /// Merges two DCSR matrices, combining coinciding entries with `combine`.
    ///
    /// This is the kernel of the sparse aggregation (reduce) in Algorithm 1:
    /// partial blocks `Xᵢ` with different sparsity patterns are merged
    /// pairwise up the reduction tree. Both inputs must have entries in
    /// column-sorted order within each row (true for all kernel outputs);
    /// the result preserves that order. Runs in `O(nnz(a) + nnz(b))`: a run
    /// of rows only one side stores, and whatever is left of either side,
    /// is one bulk copy per array; a row both store is a two-pointer merge
    /// of its column runs that pushes one `row_ptr` entry.
    pub fn merge_with(a: &Dcsr<V>, b: &Dcsr<V>, mut combine: impl FnMut(V, V) -> V) -> Dcsr<V> {
        assert_eq!(a.nrows, b.nrows, "shape mismatch");
        assert_eq!(a.ncols, b.ncols, "shape mismatch");
        let mut out = Dcsr::with_capacity(
            a.nrows,
            a.ncols,
            a.rows.len() + b.rows.len(),
            a.nnz() + b.nnz(),
        );
        let (mut ia, mut ib) = (0, 0);
        while ia < a.rows.len() && ib < b.rows.len() {
            let (ra, rb) = (a.rows[ia], b.rows[ib]);
            if ra < rb {
                let run = ia + run_below(&a.rows[ia..], rb);
                out.append_stored(a, ia..run);
                ia = run;
            } else if rb < ra {
                let run = ib + run_below(&b.rows[ib..], ra);
                out.append_stored(b, ib..run);
                ib = run;
            } else {
                let (acols, avals) = a.stored_row(ia);
                let (bcols, bvals) = b.stored_row(ib);
                let (mut ja, mut jb) = (0, 0);
                while ja < acols.len() && jb < bcols.len() {
                    let (ca, cb) = (acols[ja], bcols[jb]);
                    if ca < cb {
                        out.cols.push(ca);
                        out.vals.push(avals[ja]);
                        ja += 1;
                    } else if cb < ca {
                        out.cols.push(cb);
                        out.vals.push(bvals[jb]);
                        jb += 1;
                    } else {
                        out.cols.push(ca);
                        out.vals.push(combine(avals[ja], bvals[jb]));
                        ja += 1;
                        jb += 1;
                    }
                }
                out.cols.extend_from_slice(&acols[ja..]);
                out.vals.extend_from_slice(&avals[ja..]);
                out.cols.extend_from_slice(&bcols[jb..]);
                out.vals.extend_from_slice(&bvals[jb..]);
                out.rows.push(ra);
                out.row_ptr.push(out.cols.len());
                ia += 1;
                ib += 1;
            }
        }
        out.append_stored(a, ia..a.rows.len());
        out.append_stored(b, ib..b.rows.len());
        out
    }

    /// The entries of the `i`-th stored row.
    #[inline]
    fn stored_row(&self, i: usize) -> (&[Index], &[V]) {
        let (lo, hi) = (self.row_ptr[i], self.row_ptr[i + 1]);
        (&self.cols[lo..hi], &self.vals[lo..hi])
    }

    /// Bulk-appends the stored rows `span` of `src`, whose ids must exceed
    /// the last stored row id.
    fn append_stored(&mut self, src: &Dcsr<V>, span: std::ops::Range<usize>) {
        let (lo, hi) = (src.row_ptr[span.start], src.row_ptr[span.end]);
        self.append_rows_flat(
            &src.rows[span.clone()],
            &src.row_ptr[span.start..=span.end],
            &src.cols[lo..hi],
            &src.vals[lo..hi],
        );
    }

    /// Merge-add over a semiring (the common case of [`Dcsr::merge_with`]).
    pub fn merge_add<S: Semiring<Elem = V>>(a: &Dcsr<V>, b: &Dcsr<V>) -> Dcsr<V> {
        Self::merge_with(a, b, S::add)
    }

    /// Builds an O(1) row-access adapter over this matrix.
    ///
    /// The paper's invariant is that its algorithms never *search* inside a
    /// DCSR. The `A · B*` pass of Algorithm 1 iterates the rows of `A` and
    /// needs the matching rows of the broadcast hypersparse `B*` block; this
    /// adapter provides them in O(1) via a dense row-position table built in
    /// `O(local rows + stored rows)` — a local scratch structure, never
    /// communicated, so the DCSR wire-size benefit is untouched.
    pub fn row_reader(&self) -> DcsrRowReader<'_, V> {
        let mut pos = vec![u32::MAX; self.nrows as usize];
        for (i, &r) in self.rows.iter().enumerate() {
            pos[r as usize] = i as u32;
        }
        DcsrRowReader { d: self, pos }
    }

    /// Internal consistency check.
    pub fn validate(&self) -> Result<(), String> {
        if self.row_ptr.len() != self.rows.len() + 1 {
            return Err("row_ptr length mismatch".into());
        }
        if *self.row_ptr.last().unwrap() != self.cols.len() || self.cols.len() != self.vals.len() {
            return Err("nnz bookkeeping mismatch".into());
        }
        if !self.rows.windows(2).all(|w| w[0] < w[1]) {
            return Err("row ids not strictly increasing".into());
        }
        if self.rows.iter().any(|&r| r >= self.nrows) {
            return Err("row id out of range".into());
        }
        if self.cols.iter().any(|&c| c >= self.ncols) {
            return Err("column index out of range".into());
        }
        for w in self.row_ptr.windows(2) {
            if w[0] >= w[1] {
                return Err("empty row stored".into());
            }
        }
        Ok(())
    }
}

impl<V: Copy> RowScan<V> for Dcsr<V> {
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
        for (r, cols, vals) in self.iter_rows() {
            f(r, cols, vals);
        }
    }
}

/// O(1) row access into a [`Dcsr`] via a dense row-position table (see
/// [`Dcsr::row_reader`]). Empty rows return empty slices.
#[derive(Debug)]
pub struct DcsrRowReader<'a, V> {
    d: &'a Dcsr<V>,
    pos: Vec<u32>,
}

impl<V: Copy> crate::RowRead<V> for DcsrRowReader<'_, V> {
    #[inline]
    fn nrows(&self) -> Index {
        self.d.nrows
    }

    #[inline]
    fn ncols(&self) -> Index {
        self.d.ncols
    }

    #[inline]
    fn row(&self, r: Index) -> (&[Index], &[V]) {
        let i = self.pos[r as usize];
        if i == u32::MAX {
            (&[], &[])
        } else {
            let lo = self.d.row_ptr[i as usize];
            let hi = self.d.row_ptr[i as usize + 1];
            (&self.d.cols[lo..hi], &self.d.vals[lo..hi])
        }
    }
}

impl<V: WireEncode> WireEncode for Dcsr<V> {
    /// Packed form — index structure first, as varints, then the values:
    ///
    /// ```text
    /// nrows: u32   ncols: u32   stored: u32            12-byte header
    /// per stored row, in order:
    ///     varint(row id − previous row id − 1)         the first: its id
    ///     varint(entries − 1)
    ///     varint(first column)
    ///     varint(column − previous column − 1) …       entries − 1 of them
    /// vals, fixed width, back to back                  as `encode_elems`
    /// ```
    ///
    /// Rows and columns are strictly increasing, so the gaps are what is
    /// left to say: a `C*` partial with tens of entries per row pays about
    /// one byte per column where the fixed-width form paid four, and a
    /// stored row pays 3 B or a little more where `rows` + `row_ptr` paid
    /// twelve. `row_ptr` is never sent; it is the running sum of the
    /// lengths. The worst case is 5 B per index (a gap of 2^28 or more), one
    /// over fixed width. Values stay columnar and fixed-width behind the
    /// index so their decode remains one copy loop. This is the only form:
    /// no tag, no fixed-width fallback.
    fn wire_encode<S: WireSink>(&self, out: &mut S) {
        self.nrows.wire_encode(out);
        self.ncols.wire_encode(out);
        // Stored rows are distinct ids below `nrows`, so the count fits.
        (self.rows.len() as Index).wire_encode(out);
        let mut next_row = 0;
        for (&row, span) in self.rows.iter().zip(self.row_ptr.windows(2)) {
            let cols = &self.cols[span[0]..span[1]];
            put_varint(u64::from(row - next_row), out);
            next_row = row + 1;
            put_varint(cols.len() as u64 - 1, out);
            put_varint(u64::from(cols[0]), out);
            for pair in cols.windows(2) {
                put_varint(u64::from(pair[1] - pair[0] - 1), out);
            }
        }
        encode_elems(&self.vals, out);
    }
}

/// Length of the prefix of the ascending `rows` below `bound`.
#[inline]
fn run_below(rows: &[Index], bound: Index) -> usize {
    rows.iter().position(|&r| r >= bound).unwrap_or(rows.len())
}

/// Reads one gap and returns the index it lands on, `next + gap`, which must
/// stay below `bound`.
#[inline(always)]
fn take_index(
    r: &mut WireReader<'_>,
    next: u64,
    bound: Index,
    what: &'static str,
) -> Result<Index, WireError> {
    match next.checked_add(r.take_varint()?) {
        Some(index) if index < u64::from(bound) => Ok(index as Index),
        _ => Err(WireError::Invalid(what)),
    }
}

impl<V: WireDecode> WireDecode for Dcsr<V> {
    /// The inverse of the grammar on [`Dcsr::wire_encode`], total on
    /// arbitrary bytes. Counts are held against the bytes remaining before
    /// anything is reserved for them — the stored-row count at ≥ 3 B per
    /// row, each row length at ≥ 1 B per column — and every sum is checked.
    /// The gap code cannot spell an unsorted or duplicate index, so what is
    /// left to validate is the bounds: row ids below `nrows`, columns below
    /// `ncols`. `row_ptr` is rebuilt from the lengths.
    fn wire_decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let nrows = Index::wire_decode(r)?;
        let ncols = Index::wire_decode(r)?;
        let stored = Index::wire_decode(r)? as usize;
        r.ensure(stored, 3)?;
        let mut rows = Vec::with_capacity(stored);
        let mut row_ptr = Vec::with_capacity(stored + 1);
        row_ptr.push(0);
        // Every stored row holds an entry; longer rows grow it as they come.
        let mut cols: Vec<Index> = Vec::with_capacity(stored);
        // One past the last index read: the gaps count from there.
        let mut next_row = 0;
        for _ in 0..stored {
            let row = take_index(r, next_row, nrows, "dcsr row id out of range")?;
            next_row = u64::from(row) + 1;
            let len = usize::try_from(r.take_varint()?)
                .ok()
                .and_then(|more| more.checked_add(1))
                .ok_or(WireError::Invalid("dcsr row length overflow"))?;
            r.ensure(len, 1)?;
            let mut next_col = 0;
            for _ in 0..len {
                let col = take_index(r, next_col, ncols, "dcsr column out of range")?;
                next_col = u64::from(col) + 1;
                cols.push(col);
            }
            rows.push(row);
            row_ptr.push(cols.len());
        }
        let vals: Vec<V> = decode_elems(r, cols.len())?;
        Ok(Self {
            nrows,
            ncols,
            rows,
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

    fn sample() -> Dcsr<u64> {
        Dcsr::from_triples::<U64Plus>(
            1000,
            1000,
            vec![
                t(999, 3, 14),
                t(0, 0, 10),
                t(999, 0, 12),
                t(0, 2, 11),
                t(500, 1, 13),
            ],
        )
    }

    #[test]
    fn construction_hypersparse() {
        let m = sample();
        assert_eq!(m.nnz(), 5);
        assert_eq!(m.nrows_stored(), 3);
        let rows: Vec<_> = m.iter_rows().map(|(r, c, _)| (r, c.len())).collect();
        assert_eq!(rows, vec![(0, 2), (500, 1), (999, 2)]);
        m.validate().unwrap();
    }

    #[test]
    fn triples_roundtrip() {
        let m = sample();
        let back = Dcsr::from_sorted_triples(1000, 1000, &m.to_triples());
        assert_eq!(m, back);
    }

    #[test]
    fn duplicates_combine() {
        let m = Dcsr::from_triples::<U64Plus>(10, 10, vec![t(3, 3, 1), t(3, 3, 2)]);
        assert_eq!(m.nnz(), 1);
        assert_eq!(m.to_triples(), vec![t(3, 3, 3)]);
    }

    #[test]
    fn transpose_matches_canonical_flipped_build() {
        // The bit-identity lemma of the virtual-transposition path: a local
        // counting-sort transpose of a canonical block equals the canonical
        // build over the flipped entry set (what a physically exchanged
        // transposed block would contain).
        let m = sample();
        let mut flipped: Vec<Triple<u64>> = m
            .to_triples()
            .into_iter()
            .map(|t| Triple::new(t.col, t.row, t.val))
            .collect();
        triple::sort_row_major(&mut flipped);
        let reference = Dcsr::from_sorted_triples(1000, 1000, &flipped);
        assert_eq!(m.transpose(), reference);
    }

    #[test]
    fn transpose_involution_and_reuse() {
        let m = sample();
        assert_eq!(m.transpose().transpose(), m);
        let e: Dcsr<u64> = Dcsr::empty(7, 3);
        assert_eq!(e.transpose().nrows(), 3);
        assert_eq!(e.transpose().nnz(), 0);
        // Reuse cycle: the cursor scratch must not regrow.
        let mut ws = TransposeWorkspace::new();
        m.transpose_into(&mut ws);
        let steady = ws.heap_bytes();
        assert!(steady > 0);
        for _ in 0..3 {
            assert_eq!(m.transpose_into(&mut ws), m.transpose());
            assert_eq!(ws.heap_bytes(), steady, "workspace heap must not regrow");
        }
    }

    #[test]
    fn transpose_non_square_shapes() {
        let m = Dcsr::from_triples::<U64Plus>(4, 9, vec![t(0, 8, 1), t(3, 0, 2), t(3, 8, 3)]);
        let tr = m.transpose();
        assert_eq!((tr.nrows(), tr.ncols()), (9, 4));
        assert_eq!(tr.to_triples(), vec![t(0, 3, 2), t(8, 0, 1), t(8, 3, 3)]);
        tr.validate().unwrap();
    }

    #[test]
    fn merge_add_disjoint_and_overlapping() {
        let a = Dcsr::from_triples::<U64Plus>(10, 10, vec![t(1, 1, 1), t(2, 1, 2), t(2, 3, 3)]);
        let b = Dcsr::from_triples::<U64Plus>(10, 10, vec![t(0, 5, 7), t(2, 1, 10), t(2, 2, 4)]);
        let m = Dcsr::merge_add::<U64Plus>(&a, &b);
        assert_eq!(
            m.to_triples(),
            vec![t(0, 5, 7), t(1, 1, 1), t(2, 1, 12), t(2, 2, 4), t(2, 3, 3)]
        );
        m.validate().unwrap();
    }

    #[test]
    fn merge_with_empty() {
        let a = sample();
        let e = Dcsr::empty(1000, 1000);
        assert_eq!(Dcsr::merge_add::<U64Plus>(&a, &e), a);
        assert_eq!(Dcsr::merge_add::<U64Plus>(&e, &a), a);
        assert_eq!(Dcsr::merge_add::<U64Plus>(&e, &e).nnz(), 0);
    }

    /// Rows stored on one side only (single and in runs, interleaved and as
    /// either side's tail), rows both store with identical, disjoint and
    /// overlapping columns — against an entry-wise reference, with a
    /// `combine` that shows its argument order.
    #[test]
    fn merge_interleaved_disjoint_and_identical_rows() {
        let combine = |x: u64, y: u64| 10 * x + y;
        let a = Dcsr::from_triples::<U64Plus>(
            20,
            9,
            vec![
                t(0, 1, 1),
                t(2, 0, 2),
                t(2, 4, 3),
                t(4, 2, 4),
                t(5, 3, 5),
                t(6, 1, 6),
                t(6, 5, 7),
                t(9, 0, 8),
                t(9, 8, 9),
                t(11, 2, 1),
                t(11, 3, 2),
            ],
        );
        let b = Dcsr::from_triples::<U64Plus>(
            20,
            9,
            vec![
                t(1, 7, 1),
                t(2, 0, 2),
                t(2, 4, 3),
                t(3, 6, 4),
                t(6, 0, 5),
                t(6, 2, 6),
                t(6, 8, 7),
                t(9, 1, 8),
                t(9, 8, 9),
                t(15, 0, 1),
                t(17, 5, 2),
                t(19, 8, 3),
            ],
        );
        let mut want = std::collections::BTreeMap::new();
        for x in a.to_triples() {
            want.insert((x.row, x.col), x.val);
        }
        for y in b.to_triples() {
            want.entry((y.row, y.col))
                .and_modify(|v| *v = combine(*v, y.val))
                .or_insert(y.val);
        }
        let want: Vec<_> = want.into_iter().map(|((r, c), v)| t(r, c, v)).collect();
        let m = Dcsr::merge_with(&a, &b, combine);
        m.validate().unwrap();
        assert_eq!(m.to_triples(), want);
        assert_eq!(m.rows, vec![0, 1, 2, 3, 4, 5, 6, 9, 11, 15, 17, 19]);
        // Swapped sides: the same pattern, `combine` sees `b` first.
        let swapped = Dcsr::merge_with(&b, &a, |x, y| combine(y, x));
        assert_eq!(swapped, m);
    }

    #[test]
    fn merge_is_commutative_for_add() {
        let a = Dcsr::from_triples::<U64Plus>(8, 8, vec![t(0, 0, 1), t(5, 7, 2), t(7, 0, 3)]);
        let b = Dcsr::from_triples::<U64Plus>(8, 8, vec![t(0, 0, 9), t(5, 6, 5)]);
        assert_eq!(
            Dcsr::merge_add::<U64Plus>(&a, &b),
            Dcsr::merge_add::<U64Plus>(&b, &a)
        );
    }

    #[test]
    fn map_preserves_pattern() {
        let m = sample();
        let mapped = m.map(|v| v * 2);
        assert_eq!(mapped.nnz(), m.nnz());
        assert_eq!(mapped.to_triples()[0].val, m.to_triples()[0].val * 2);
    }

    #[test]
    fn wire_size_beats_csr_for_hypersparse() {
        use crate::csr::Csr;
        let triples: Vec<Triple<u64>> = (0..10).map(|i| t(i * 100, 0, 1)).collect();
        let d = Dcsr::from_sorted_triples(1000, 1000, &triples);
        let c = Csr::from_sorted_triples(1000, 1000, &triples);
        assert!(
            d.wire_bytes() * 4 < c.wire_bytes(),
            "dcsr {} vs csr {}",
            d.wire_bytes(),
            c.wire_bytes()
        );
    }

    #[test]
    fn push_row_entry_same_row_accumulates_run() {
        let mut m: Dcsr<u64> = Dcsr::empty(5, 5);
        m.push_row_entry(1, 0, 10);
        m.push_row_entry(1, 3, 11);
        m.push_row_entry(4, 2, 12);
        assert_eq!(m.nrows_stored(), 2);
        assert_eq!(m.nnz(), 3);
        m.validate().unwrap();
    }

    #[test]
    fn from_parts_and_append_flat_roundtrip() {
        let m = sample();
        // Rebuild via from_parts from the flat form of the sample.
        let mut rows = Vec::new();
        let mut row_ptr = vec![0usize];
        let mut cols = Vec::new();
        let mut vals = Vec::new();
        for (r, cs, vs) in m.iter_rows() {
            rows.push(r);
            cols.extend_from_slice(cs);
            vals.extend_from_slice(vs);
            row_ptr.push(cols.len());
        }
        let rebuilt = Dcsr::from_parts(1000, 1000, rows, row_ptr, cols, vals);
        assert_eq!(rebuilt, m);
        // Rebuild again by appending two flat chunks (split after row 0).
        let mut appended = Dcsr::with_capacity(1000, 1000, 3, 5);
        appended.append_rows_flat(&[0], &[0, 2], &[0, 2], &[10, 11]);
        appended.append_rows_flat(&[], &[0], &[], &[]); // empty part is a no-op
        appended.append_rows_flat(&[500, 999], &[0, 1, 3], &[1, 0, 3], &[13, 12, 14]);
        assert_eq!(appended, m);
        appended.validate().unwrap();
    }

    #[test]
    fn validate_catches_corruption() {
        let mut m = sample();
        // Manually corrupt: out-of-range column.
        m.cols[0] = 5000;
        assert!(m.validate().is_err());
    }
}
