//! DHB-style dynamic sparse matrix storage.
//!
//! The paper stores dynamic matrices in the DHB data structure (reference
//! \[27\]): one *adjacency array* per row holding `(column, value)` entries,
//! plus — for sufficiently heavy rows — a per-row hash table mapping column
//! index → position in the adjacency array. This gives:
//!
//! * expected **O(1)** lookup, insert, value update and delete of a non-zero;
//! * cache-friendly row iteration (plain array scans) for SpGEMM;
//! * no global rebuilds — the property that makes batch updates so much
//!   cheaper than the rebuild-on-update strategy of the static competitors.
//!
//! Light rows (degree < [`INDEX_THRESHOLD`]) skip the hash table: a linear
//! scan of ≤ 8 entries beats hashing and saves memory on the long tail of
//! low-degree vertices in skewed graphs.
//!
//! **Where this departs from the DHB reference.** The index is built on
//! demand, by the point operations ([`DhbRow::set`], [`DhbRow::combine`],
//! [`DhbRow::remove`]) and the bulk fill, not kept by every heavy row. A
//! column-sorted, duplicate-free run applied with [`DhbRow::merge_sorted`]
//! leaves its row column-sorted and *unindexed*: a merge needs no slot
//! lookup, and the index costs 11–23 B per entry beside the adjacency
//! array's 12. The maintained product is only ever mutated by such runs
//! (`C*`, SUMMA partials), so its rows carry no index at all. One invariant
//! ties the two forms together: **a heavy row without an index is strictly
//! column-sorted**, so [`DhbRow::find`] binary-searches it and the first
//! point write on it builds the index, as the 8th push on a light row does.
use crate::csr::Csr;
use crate::dcsr::Dcsr;
use crate::semiring::Semiring;
use crate::triple::Triple;
use crate::{Index, RowRead, RowScan};
use dspgemm_util::hash::mix64;

/// Row degree at which a per-row hash index is built.
pub const INDEX_THRESHOLD: usize = 8;

/// Hash-table load factor limit (× 100).
const MAX_LOAD_PERCENT: usize = 70;

const EMPTY: Index = Index::MAX;

/// Per-row open-addressing hash index: column → slot in the adjacency array.
/// Linear probing, power-of-two capacity, back-shift deletion (no
/// tombstones).
#[derive(Debug, Clone, Default)]
struct RowIndex {
    /// `(col, slot)`; `col == EMPTY` marks a free bucket.
    table: Vec<(Index, u32)>,
    len: usize,
}

impl RowIndex {
    fn with_capacity_for(entries: usize) -> Self {
        let cap = (entries * 100 / MAX_LOAD_PERCENT + 1)
            .next_power_of_two()
            .max(16);
        Self {
            table: vec![(EMPTY, 0); cap],
            len: 0,
        }
    }

    #[inline]
    fn mask(&self) -> usize {
        self.table.len() - 1
    }

    #[inline]
    fn bucket_of(&self, col: Index) -> usize {
        mix64(col as u64) as usize & self.mask()
    }

    fn find(&self, col: Index) -> Option<u32> {
        let mask = self.mask();
        let mut b = self.bucket_of(col);
        loop {
            let (c, slot) = self.table[b];
            if c == col {
                return Some(slot);
            }
            if c == EMPTY {
                return None;
            }
            b = (b + 1) & mask;
        }
    }

    /// Inserts a mapping; `col` must not be present.
    fn insert(&mut self, col: Index, slot: u32) {
        if (self.len + 1) * 100 > self.table.len() * MAX_LOAD_PERCENT {
            self.grow();
        }
        let mask = self.mask();
        let mut b = self.bucket_of(col);
        loop {
            if self.table[b].0 == EMPTY {
                self.table[b] = (col, slot);
                self.len += 1;
                return;
            }
            debug_assert_ne!(self.table[b].0, col, "duplicate insert");
            b = (b + 1) & mask;
        }
    }

    /// Updates the slot of an existing mapping (after a swap-remove moved an
    /// entry within the adjacency array).
    fn update_slot(&mut self, col: Index, slot: u32) {
        let mask = self.mask();
        let mut b = self.bucket_of(col);
        loop {
            if self.table[b].0 == col {
                self.table[b].1 = slot;
                return;
            }
            debug_assert_ne!(self.table[b].0, EMPTY, "update of missing column");
            b = (b + 1) & mask;
        }
    }

    /// Removes a mapping with back-shift compaction of the probe cluster.
    fn remove(&mut self, col: Index) {
        let mask = self.mask();
        let mut i = self.bucket_of(col);
        loop {
            if self.table[i].0 == col {
                break;
            }
            debug_assert_ne!(self.table[i].0, EMPTY, "remove of missing column");
            i = (i + 1) & mask;
        }
        self.len -= 1;
        // Back-shift: close the hole without tombstones.
        let mut j = i;
        loop {
            j = (j + 1) & mask;
            let (cj, _) = self.table[j];
            if cj == EMPTY {
                self.table[i] = (EMPTY, 0);
                return;
            }
            let k = mix64(cj as u64) as usize & mask;
            // Move table[j] into the hole unless its ideal bucket k lies
            // cyclically within (i, j] — in that case it must stay.
            let stays = if j > i {
                k > i && k <= j
            } else {
                k > i || k <= j
            };
            if !stays {
                self.table[i] = self.table[j];
                i = j;
            }
        }
    }

    fn grow(&mut self) {
        let new_cap = (self.table.len() * 2).max(16);
        let old = std::mem::replace(&mut self.table, vec![(EMPTY, 0); new_cap]);
        self.len = 0;
        for (c, s) in old {
            if c != EMPTY {
                self.insert(c, s);
            }
        }
    }
}

/// Position of the first entry of the sorted `cols` not below `c`, found
/// by doubling steps from the front, then a binary search of the last step.
#[inline]
fn gallop(cols: &[Index], c: Index) -> usize {
    let mut bound = 1;
    while bound <= cols.len() && cols[bound - 1] < c {
        bound *= 2;
    }
    let (start, end) = (bound / 2, bound.min(cols.len()));
    start + cols[start..end].partition_point(|&x| x < c)
}

/// The slot half of a `(col << 32 | slot)` sort key.
#[inline]
fn key_slot(key: u64) -> usize {
    (key & u64::from(u32::MAX)) as usize
}

/// One row of a [`DhbMatrix`]: an adjacency array (parallel `cols`/`vals`)
/// plus an optional hash index for heavy rows.
#[derive(Debug, Clone)]
pub struct DhbRow<V> {
    cols: Vec<Index>,
    vals: Vec<V>,
    index: Option<RowIndex>,
}

impl<V> Default for DhbRow<V> {
    fn default() -> Self {
        Self {
            cols: Vec::new(),
            vals: Vec::new(),
            index: None,
        }
    }
}

impl<V: Copy> DhbRow<V> {
    /// Number of non-zeros in the row.
    #[inline]
    pub fn len(&self) -> usize {
        self.cols.len()
    }

    /// Whether the row has no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.cols.is_empty()
    }

    /// The row's entries as parallel `(cols, vals)` slices (insertion order).
    #[inline]
    pub fn entries(&self) -> (&[Index], &[V]) {
        (&self.cols, &self.vals)
    }

    /// Position of `col` in the adjacency array, if present. Expected O(1);
    /// a binary search on a heavy row a sorted merge left unindexed.
    #[inline]
    pub fn find(&self, col: Index) -> Option<usize> {
        match &self.index {
            Some(idx) => idx.find(col).map(|s| s as usize),
            None if self.cols.len() >= INDEX_THRESHOLD => self.cols.binary_search(&col).ok(),
            None => self.cols.iter().position(|&c| c == col),
        }
    }

    /// The value at `col`, if present.
    #[inline]
    pub fn get(&self, col: Index) -> Option<V> {
        self.find(col).map(|i| self.vals[i])
    }

    /// Builds the index of a heavy row that has none. Inlined, so a point
    /// operation on an indexed or light row pays two loads and a branch.
    #[inline]
    fn maybe_build_index(&mut self) {
        if self.index.is_none() && self.cols.len() >= INDEX_THRESHOLD {
            self.build_index();
        }
    }

    #[cold]
    #[inline(never)]
    fn build_index(&mut self) {
        let mut idx = RowIndex::with_capacity_for(self.cols.len());
        for (slot, &c) in self.cols.iter().enumerate() {
            idx.insert(c, slot as u32);
        }
        self.index = Some(idx);
    }

    fn push_new(&mut self, col: Index, val: V) {
        let slot = self.cols.len() as u32;
        self.cols.push(col);
        self.vals.push(val);
        if let Some(idx) = &mut self.index {
            idx.insert(col, slot);
        } else {
            self.maybe_build_index();
        }
    }

    /// Sets `col` to `val`, inserting if absent (MERGE semantics). Returns
    /// `true` if the entry is new.
    pub fn set(&mut self, col: Index, val: V) -> bool {
        self.maybe_build_index();
        match self.find(col) {
            Some(i) => {
                self.vals[i] = val;
                false
            }
            None => {
                self.push_new(col, val);
                true
            }
        }
    }

    /// Combines `val` into `col` with `combine(old, new)`, inserting `val`
    /// if absent (matrix-addition semantics). Returns `true` if new.
    pub fn combine(&mut self, col: Index, val: V, combine: impl FnOnce(V, V) -> V) -> bool {
        self.maybe_build_index();
        match self.find(col) {
            Some(i) => {
                self.vals[i] = combine(self.vals[i], val);
                false
            }
            None => {
                self.push_new(col, val);
                true
            }
        }
    }

    /// Bulk-extends an **empty** row with column-sorted, duplicate-free
    /// entries, building the hash index once at the end — the fast path for
    /// matrix construction (one reservation, no incremental index growth).
    /// Falls back to per-entry [`DhbRow::set`] if the row is non-empty.
    pub fn fill_sorted(&mut self, cols: &[Index], vals: &[V]) {
        debug_assert_eq!(cols.len(), vals.len());
        if !self.is_empty() {
            for (&c, &v) in cols.iter().zip(vals) {
                self.set(c, v);
            }
            return;
        }
        debug_assert!(
            cols.windows(2).all(|w| w[0] < w[1]),
            "sorted + dedup required"
        );
        self.cols.reserve_exact(cols.len());
        self.vals.reserve_exact(vals.len());
        self.cols.extend_from_slice(cols);
        self.vals.extend_from_slice(vals);
        self.maybe_build_index();
    }

    /// Removes `col` (MASK semantics). Returns the removed value, if any.
    /// Expected O(1): swap-remove in the adjacency array + hash fix-up.
    pub fn remove(&mut self, col: Index) -> Option<V> {
        self.maybe_build_index();
        let i = self.find(col)?;
        let val = self.vals[i];
        self.cols.swap_remove(i);
        self.vals.swap_remove(i);
        if let Some(idx) = &mut self.index {
            idx.remove(col);
            if i < self.cols.len() {
                // The former last entry moved into slot i.
                idx.update_slot(self.cols[i], i as u32);
            }
        }
        Some(val)
    }

    /// Combines a column-sorted, duplicate-free run into the row: entry `j`
    /// of the run is `(cols[j], val(j))`, and a column the row holds becomes
    /// `combine(old, val(j))`. Returns how many entries were new.
    ///
    /// The row ends column-sorted and unindexed (an indexed or unsorted row
    /// is sorted once, first). One exponential search per run column, each
    /// starting from the previous hit, finds it: a hit combines in place,
    /// and a new column's run index and insert position go to `scratch`.
    /// If any are new, the row grows by their count and merges them in from
    /// the back, so only the suffix after the first new column moves, in
    /// one block per new column.
    pub fn merge_sorted(
        &mut self,
        cols: &[Index],
        val: impl Fn(usize) -> V,
        combine: impl Fn(V, V) -> V,
        scratch: &mut Vec<u32>,
    ) -> usize {
        debug_assert!(
            cols.windows(2).all(|w| w[0] < w[1]),
            "sorted + dedup required"
        );
        self.sort_unindexed();
        let len = self.len();
        scratch.clear();
        let mut lo = 0;
        for (j, &c) in cols.iter().enumerate() {
            let p = lo + gallop(&self.cols[lo..], c);
            if p < len && self.cols[p] == c {
                self.vals[p] = combine(self.vals[p], val(j));
                lo = p + 1;
            } else {
                scratch.extend([j as u32, p as u32]);
                lo = p;
            }
        }
        let new = scratch.len() / 2;
        if new == 0 {
            return 0;
        }
        if len == 0 {
            self.cols.extend_from_slice(cols);
            self.vals.extend((0..cols.len()).map(&val));
            return new;
        }
        // Back merge: the old entries at or past a new column's insert
        // position move up by the number of new columns at or below it.
        self.cols.resize(len + new, 0);
        self.vals.resize(len + new, self.vals[0]);
        let (mut i, mut w) = (len, len + new);
        for pair in scratch.chunks_exact(2).rev() {
            let (j, p) = (pair[0] as usize, pair[1] as usize);
            let n = i - p;
            self.cols.copy_within(p..i, w - n);
            self.vals.copy_within(p..i, w - n);
            w -= n + 1;
            self.cols[w] = cols[j];
            self.vals[w] = val(j);
            i = p;
        }
        debug_assert_eq!(w, i, "back merge ends where the untouched prefix does");
        new
    }

    /// Drops the index and puts the row in column order, unless it already
    /// is: a heavy unindexed row is by the invariant, and is not scanned.
    /// Otherwise `(col, slot)` keys are sorted and the values gathered
    /// through the slots.
    fn sort_unindexed(&mut self) {
        let heavy_unindexed = self.index.take().is_none() && self.len() >= INDEX_THRESHOLD;
        if heavy_unindexed || self.is_sorted() {
            return;
        }
        let mut keys = Vec::new();
        self.sorted_keys(&mut keys);
        let vals: Vec<V> = keys.iter().map(|&k| self.vals[key_slot(k)]).collect();
        for (c, &k) in self.cols.iter_mut().zip(&keys) {
            *c = (k >> 32) as Index;
        }
        self.vals.copy_from_slice(&vals);
    }

    fn is_sorted(&self) -> bool {
        self.cols.windows(2).all(|w| w[0] < w[1])
    }

    /// Fills `keys` with the row's `(col << 32 | slot)` keys in column order.
    fn sorted_keys(&self, keys: &mut Vec<u64>) {
        keys.clear();
        keys.extend(
            self.cols
                .iter()
                .enumerate()
                .map(|(slot, &c)| ((c as u64) << 32) | slot as u64),
        );
        keys.sort_unstable();
    }

    /// Appends the row's entries to `cols`/`vals` in ascending column order,
    /// each value mapped by `f`. A row that already is in column order
    /// (merged, or bulk-filled and only appended to since) is copied as it
    /// stands; otherwise its sorted keys are built in `scratch` and the
    /// values gathered through the slots.
    fn append_sorted<W>(
        &self,
        cols: &mut Vec<Index>,
        vals: &mut Vec<W>,
        f: impl Fn(V) -> W,
        scratch: &mut Vec<u64>,
    ) {
        if self.is_sorted() {
            cols.extend_from_slice(&self.cols);
            vals.extend(self.vals.iter().map(|&v| f(v)));
            return;
        }
        self.sorted_keys(scratch);
        for &key in scratch.iter() {
            cols.push((key >> 32) as Index);
            vals.push(f(self.vals[key_slot(key)]));
        }
    }

    /// Approximate heap bytes used by this row (adjacency + index).
    pub fn heap_bytes(&self) -> usize {
        self.cols.capacity() * std::mem::size_of::<Index>()
            + self.vals.capacity() * std::mem::size_of::<V>()
            + self.index.as_ref().map_or(0, |i| {
                i.table.capacity() * std::mem::size_of::<(Index, u32)>()
            })
    }
}

/// A dynamic sparse matrix: one [`DhbRow`] per row.
///
/// This is the storage for every *dynamic* matrix in the framework — local
/// blocks of distributed adjacency matrices and of SpGEMM results `C'`.
#[derive(Debug, Clone)]
pub struct DhbMatrix<V> {
    nrows: Index,
    ncols: Index,
    rows: Vec<DhbRow<V>>,
    nnz: usize,
}

impl<V: Copy> DhbMatrix<V> {
    /// An empty dynamic matrix of the given shape.
    pub fn new(nrows: Index, ncols: Index) -> Self {
        Self {
            nrows,
            ncols,
            rows: (0..nrows).map(|_| DhbRow::default()).collect(),
            nnz: 0,
        }
    }

    /// Builds from triples (arbitrary order); duplicate keys keep the last
    /// value.
    pub fn from_triples(nrows: Index, ncols: Index, triples: &[Triple<V>]) -> Self {
        let mut m = Self::new(nrows, ncols);
        for t in triples {
            m.set(t.row, t.col, t.val);
        }
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
        self.nnz
    }

    /// The value at `(r, c)`, if present. Expected O(1).
    #[inline]
    pub fn get(&self, r: Index, c: Index) -> Option<V> {
        self.rows[r as usize].get(c)
    }

    /// Sets `(r, c)` to `val` (insert-or-assign / MERGE). Returns `true` if
    /// the entry is new.
    pub fn set(&mut self, r: Index, c: Index, val: V) -> bool {
        debug_assert!(r < self.nrows && c < self.ncols, "index out of range");
        let new = self.rows[r as usize].set(c, val);
        self.nnz += usize::from(new);
        new
    }

    /// Combines `val` into `(r, c)` with the semiring addition, inserting if
    /// absent (matrix addition `A += A*`). Returns `true` if new.
    pub fn add_entry<S: Semiring<Elem = V>>(&mut self, r: Index, c: Index, val: V) -> bool {
        debug_assert!(r < self.nrows && c < self.ncols, "index out of range");
        let new = self.rows[r as usize].combine(c, val, S::add);
        self.nnz += usize::from(new);
        new
    }

    /// Combines `val` into `(r, c)` with an arbitrary operator, inserting if
    /// absent (e.g. bitwise-OR for Bloom filter matrices). Returns `true`
    /// if new.
    pub fn combine_entry(
        &mut self,
        r: Index,
        c: Index,
        val: V,
        combine: impl FnOnce(V, V) -> V,
    ) -> bool {
        debug_assert!(r < self.nrows && c < self.ncols, "index out of range");
        let new = self.rows[r as usize].combine(c, val, combine);
        self.nnz += usize::from(new);
        new
    }

    /// Removes `(r, c)` (MASK). Returns the removed value, if any.
    pub fn remove(&mut self, r: Index, c: Index) -> Option<V> {
        let old = self.rows[r as usize].remove(c);
        self.nnz -= usize::from(old.is_some());
        old
    }

    /// [`DhbRow::merge_sorted`] on row `r`, keeping the cached nnz in step.
    /// Returns how many entries were new.
    pub fn merge_row(
        &mut self,
        r: Index,
        cols: &[Index],
        val: impl Fn(usize) -> V,
        combine: impl Fn(V, V) -> V,
        scratch: &mut Vec<u32>,
    ) -> usize {
        debug_assert!(
            r < self.nrows && cols.last().is_none_or(|&c| c < self.ncols),
            "index out of range"
        );
        let new = self.rows[r as usize].merge_sorted(cols, val, combine, scratch);
        self.nnz += new;
        new
    }

    /// Runs `f` on row `r` with mutable access and keeps the cached nnz in
    /// step with whatever `f` inserted or removed — a whole row's worth of
    /// updates behind one row lookup.
    pub fn update_row<T>(&mut self, r: Index, f: impl FnOnce(&mut DhbRow<V>) -> T) -> T {
        let row = &mut self.rows[r as usize];
        let before = row.len();
        let out = f(row);
        self.nnz = self.nnz + row.len() - before;
        out
    }

    /// All entries as row-major, column-sorted triples.
    pub fn to_sorted_triples(&self) -> Vec<Triple<V>> {
        let mut out = Vec::with_capacity(self.nnz);
        for (r, row) in self.rows.iter().enumerate() {
            let start = out.len();
            let (cols, vals) = row.entries();
            for (&c, &v) in cols.iter().zip(vals) {
                out.push(Triple::new(r as Index, c, v));
            }
            out[start..].sort_unstable_by_key(|t| t.col);
        }
        out
    }

    /// Converts to CSR (column-sorted rows): one pass, each row copied
    /// straight into the exactly-sized output and sorted there.
    pub fn to_csr(&self) -> Csr<V> {
        let mut row_ptr = Vec::with_capacity(self.rows.len() + 1);
        row_ptr.push(0);
        let mut cols = Vec::with_capacity(self.nnz);
        let mut vals = Vec::with_capacity(self.nnz);
        let mut scratch = Vec::new();
        for row in &self.rows {
            row.append_sorted(&mut cols, &mut vals, |v| v, &mut scratch);
            row_ptr.push(cols.len());
        }
        Csr::from_parts(self.nrows, self.ncols, row_ptr, cols, vals)
    }

    /// The rows `rows` (strictly ascending) as a [`Dcsr`] of this matrix's
    /// shape: each row column-sorted like [`DhbMatrix::to_csr`]'s, its
    /// values mapped by `f`, and an empty row left out. What a rank ships
    /// to a peer that multiplies an update block against the rows its
    /// columns select.
    pub fn select_rows<W: Copy>(&self, rows: &[Index], f: impl Fn(V) -> W) -> Dcsr<W> {
        debug_assert!(rows.windows(2).all(|w| w[0] < w[1]), "rows ascend");
        let (mut ids, mut row_ptr) = (Vec::new(), vec![0]);
        let (mut cols, mut vals, mut scratch) = (Vec::new(), Vec::new(), Vec::new());
        for &r in rows {
            let row = &self.rows[r as usize];
            if row.is_empty() {
                continue;
            }
            row.append_sorted(&mut cols, &mut vals, &f, &mut scratch);
            ids.push(r);
            row_ptr.push(cols.len());
        }
        Dcsr::from_parts(self.nrows, self.ncols, ids, row_ptr, cols, vals)
    }

    /// The CSR image of this matrix — equal to [`DhbMatrix::to_csr`] —
    /// built from `base`, the image of an earlier state, and `touched`, the
    /// row-major sorted, duplicate-free coordinates of every entry inserted,
    /// overwritten or removed since `base` was taken.
    ///
    /// One streaming pass over `base`: runs of untouched rows are copied in
    /// bulk with shifted row pointers; a touched row is a two-pointer merge
    /// of its base row with its touched columns, and only those columns are
    /// looked up here (`Some(v)` is emitted, `None` means the entry is gone).
    /// Nothing is sorted and the output is exactly sized. A coordinate
    /// missing from `touched` silently keeps its `base` state, so callers
    /// must log every mutation.
    pub fn patch_csr(&self, base: &Csr<V>, touched: &[(Index, Index)]) -> Csr<V> {
        assert_eq!(
            (base.nrows(), base.ncols()),
            (self.nrows, self.ncols),
            "patch base shape mismatch"
        );
        debug_assert!(
            touched.windows(2).all(|w| w[0] < w[1]),
            "touched coordinates must be sorted and duplicate-free"
        );
        let (base_ptr, base_cols, base_vals) = (base.row_ptr(), base.cols(), base.vals());
        let mut row_ptr = Vec::with_capacity(self.rows.len() + 1);
        row_ptr.push(0);
        let mut cols: Vec<Index> = Vec::with_capacity(self.nnz);
        let mut vals: Vec<V> = Vec::with_capacity(self.nnz);
        // Copies base rows `lo..hi` unchanged.
        let copy_rows = |lo: usize,
                         hi: usize,
                         row_ptr: &mut Vec<usize>,
                         cols: &mut Vec<Index>,
                         vals: &mut Vec<V>| {
            let (start, end) = (base_ptr[lo], base_ptr[hi]);
            let shifted = cols.len();
            row_ptr.extend(base_ptr[lo + 1..=hi].iter().map(|&p| p - start + shifted));
            cols.extend_from_slice(&base_cols[start..end]);
            vals.extend_from_slice(&base_vals[start..end]);
        };
        let mut next_row = 0usize;
        let mut rest = touched;
        while let Some(&(r, _)) = rest.first() {
            let in_row = rest.partition_point(|&(tr, _)| tr == r);
            let (row_touched, tail) = rest.split_at(in_row);
            rest = tail;
            let r = r as usize;
            copy_rows(next_row, r, &mut row_ptr, &mut cols, &mut vals);
            let live = &self.rows[r];
            let mut bc = &base_cols[base_ptr[r]..base_ptr[r + 1]];
            let mut bv = &base_vals[base_ptr[r]..base_ptr[r + 1]];
            for &(_, c) in row_touched {
                let keep = bc.partition_point(|&x| x < c);
                cols.extend_from_slice(&bc[..keep]);
                vals.extend_from_slice(&bv[..keep]);
                // The base's own entry at `c`, if any, is superseded.
                let skip = keep + usize::from(bc.get(keep) == Some(&c));
                bc = &bc[skip..];
                bv = &bv[skip..];
                if let Some(v) = live.get(c) {
                    cols.push(c);
                    vals.push(v);
                }
            }
            cols.extend_from_slice(bc);
            vals.extend_from_slice(bv);
            row_ptr.push(cols.len());
            next_row = r + 1;
        }
        copy_rows(
            next_row,
            self.rows.len(),
            &mut row_ptr,
            &mut cols,
            &mut vals,
        );
        Csr::from_parts(self.nrows, self.ncols, row_ptr, cols, vals)
    }

    /// Approximate heap bytes (adjacency arrays + hash indices).
    pub fn heap_bytes(&self) -> usize {
        self.rows.iter().map(DhbRow::heap_bytes).sum::<usize>()
            + self.rows.capacity() * std::mem::size_of::<DhbRow<V>>()
    }
}

impl<V: Copy> RowRead<V> for DhbMatrix<V> {
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
        self.rows[r as usize].entries()
    }
}

impl<V: Copy> RowScan<V> for DhbMatrix<V> {
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
        self.nnz
    }

    fn scan_rows(&self, mut f: impl FnMut(Index, &[Index], &[V])) {
        for (r, row) in self.rows.iter().enumerate() {
            if !row.is_empty() {
                let (cols, vals) = row.entries();
                f(r as Index, cols, vals);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semiring::U64Plus;
    use dspgemm_util::rng::{Rng, SplitMix64};
    use std::collections::BTreeMap;

    #[test]
    fn set_get_remove_small_row() {
        let mut m: DhbMatrix<u64> = DhbMatrix::new(4, 4);
        assert!(m.set(1, 2, 10));
        assert!(!m.set(1, 2, 20), "overwrite is not new");
        assert_eq!(m.get(1, 2), Some(20));
        assert_eq!(m.nnz(), 1);
        assert_eq!(m.remove(1, 2), Some(20));
        assert_eq!(m.remove(1, 2), None);
        assert_eq!(m.nnz(), 0);
    }

    #[test]
    fn add_entry_combines() {
        let mut m: DhbMatrix<u64> = DhbMatrix::new(2, 2);
        m.add_entry::<U64Plus>(0, 0, 5);
        m.add_entry::<U64Plus>(0, 0, 7);
        assert_eq!(m.get(0, 0), Some(12));
        assert_eq!(m.nnz(), 1);
    }

    #[test]
    fn index_kicks_in_beyond_threshold() {
        let mut row: DhbRow<u64> = DhbRow::default();
        for c in 0..INDEX_THRESHOLD as Index {
            row.set(c, c as u64);
        }
        assert!(row.index.is_some(), "index built at threshold");
        for c in 0..INDEX_THRESHOLD as Index {
            assert_eq!(row.get(c), Some(c as u64));
        }
    }

    #[test]
    fn heavy_row_operations() {
        let mut row: DhbRow<u64> = DhbRow::default();
        for c in 0..10_000 {
            assert!(row.set(c, c as u64 * 3));
        }
        assert_eq!(row.len(), 10_000);
        for c in (0..10_000).step_by(7) {
            assert_eq!(row.get(c), Some(c as u64 * 3));
        }
        // Remove every third entry.
        for c in (0..10_000).step_by(3) {
            assert_eq!(row.remove(c), Some(c as u64 * 3));
        }
        for c in 0..10_000 {
            if c % 3 == 0 {
                assert_eq!(row.get(c), None);
            } else {
                assert_eq!(row.get(c), Some(c as u64 * 3));
            }
        }
    }

    #[test]
    fn random_ops_match_btreemap_model() {
        let mut rng = SplitMix64::new(2024);
        let mut dhb: DhbMatrix<u64> = DhbMatrix::new(64, 64);
        let mut model: BTreeMap<(Index, Index), u64> = BTreeMap::new();
        for step in 0..50_000 {
            let r = rng.gen_range(64) as Index;
            let c = rng.gen_range(64) as Index;
            match rng.gen_range(4) {
                0 => {
                    let v = rng.next_u64();
                    dhb.set(r, c, v);
                    model.insert((r, c), v);
                }
                1 => {
                    let v = rng.gen_range(1000);
                    dhb.add_entry::<U64Plus>(r, c, v);
                    *model.entry((r, c)).or_insert(0) += v;
                }
                2 => {
                    let a = dhb.remove(r, c);
                    let b = model.remove(&(r, c));
                    assert_eq!(a, b, "remove mismatch at step {step}");
                }
                _ => {
                    assert_eq!(dhb.get(r, c), model.get(&(r, c)).copied());
                }
            }
            assert_eq!(dhb.nnz(), model.len(), "nnz drift at step {step}");
        }
        // Final full comparison via sorted triples.
        let triples: Vec<((Index, Index), u64)> = dhb
            .to_sorted_triples()
            .into_iter()
            .map(|t| ((t.row, t.col), t.val))
            .collect();
        let expect: Vec<((Index, Index), u64)> = model.into_iter().collect();
        assert_eq!(triples, expect);
    }

    /// The row invariant: a heavy row without an index is strictly
    /// column-sorted.
    fn assert_row_invariant<V: Copy>(row: &DhbRow<V>, step: usize) {
        if row.index.is_none() && row.len() >= INDEX_THRESHOLD {
            assert!(
                row.is_sorted(),
                "unindexed heavy row unsorted at step {step}"
            );
        }
    }

    /// Sorted runs interleaved with point `set` / `combine` / `remove` on
    /// rows that start indexed, unindexed and sorted, or light and unsorted.
    /// Values are drawn from {1e16, 1, −1e16} and folded with `+` or `−`,
    /// so a fold out of `combine(old, new)` order changes the bits. After
    /// every step: the row invariant, nnz, the returned new count, `to_csr`
    /// and `patch_csr` against a `BTreeMap`.
    #[test]
    fn merge_row_matches_btreemap_model() {
        const NROWS: Index = 12;
        const NCOLS: Index = 160;
        const VALUES: [f64; 3] = [1e16, 1.0, -1e16];
        let folds: [fn(f64, f64) -> f64; 2] = [|o, n| o + n, |o, n| o - n];
        let mut rng = SplitMix64::new(37);
        let mut m: DhbMatrix<f64> = DhbMatrix::new(NROWS, NCOLS);
        let mut model: BTreeMap<(Index, Index), f64> = BTreeMap::new();
        // Rows 0..4 bulk-filled (indexed), 4..8 merged into empty (sorted,
        // unindexed), 8..12 light and set in descending column order.
        for r in 0..NROWS {
            let cols: Vec<Index> = match r / 4 {
                0 | 1 => (0..20).map(|i| i * 7 + r).collect(),
                _ => (0..5).rev().map(|i| i * 11 + r).collect(),
            };
            let vals: Vec<f64> = cols.iter().map(|&c| VALUES[c as usize % 3]).collect();
            match r / 4 {
                0 => m.update_row(r, |row| row.fill_sorted(&cols, &vals)),
                1 => {
                    m.merge_row(r, &cols, |j| vals[j], folds[0], &mut Vec::new());
                }
                _ => {
                    for (&c, &v) in cols.iter().zip(&vals) {
                        m.set(r, c, v);
                    }
                }
            }
            for (&c, &v) in cols.iter().zip(&vals) {
                model.insert((r, c), v);
            }
        }
        assert!(m.rows[0].index.is_some() && m.rows[4].index.is_none());
        assert!(!m.rows[8].is_sorted());
        // Merges seen into: [indexed, unindexed heavy, light unsorted,
        // light that the run makes heavy].
        let mut seen = [0usize; 4];
        let mut image = m.to_csr();
        let mut scratch = Vec::new();
        for step in 0..4_000 {
            let r = rng.gen_range(u64::from(NROWS)) as Index;
            let mut touched: Vec<(Index, Index)> = Vec::new();
            let fold = folds[rng.gen_range(2) as usize];
            let value = |rng: &mut SplitMix64| VALUES[rng.gen_range(3) as usize];
            let op = rng.gen_range(20);
            match op {
                // A sorted run, half its columns drawn from the row.
                0..=5 => {
                    let held: Vec<Index> =
                        model.range((r, 0)..(r + 1, 0)).map(|(k, _)| k.1).collect();
                    let mut cols: Vec<Index> = (0..rng.gen_range(24) + 1)
                        .map(|_| match (rng.gen_range(2), held.is_empty()) {
                            (0, false) => held[rng.gen_range(held.len() as u64) as usize],
                            _ => rng.gen_range(u64::from(NCOLS)) as Index,
                        })
                        .collect();
                    cols.sort_unstable();
                    cols.dedup();
                    let vals: Vec<f64> = cols.iter().map(|_| value(&mut rng)).collect();
                    let row = &m.rows[r as usize];
                    let before = row.len();
                    let kind = if row.index.is_some() {
                        0
                    } else if before >= INDEX_THRESHOLD {
                        1
                    } else if !row.is_sorted() {
                        2
                    } else {
                        3
                    };
                    let mut expect_new = 0;
                    for (&c, &v) in cols.iter().zip(&vals) {
                        match model.get_mut(&(r, c)) {
                            Some(old) => *old = fold(*old, v),
                            None => {
                                model.insert((r, c), v);
                                expect_new += 1;
                            }
                        }
                        touched.push((r, c));
                    }
                    let new = m.merge_row(r, &cols, |j| vals[j], fold, &mut scratch);
                    assert_eq!(new, expect_new, "new count at step {step}");
                    if kind < 3 || before + new >= INDEX_THRESHOLD {
                        seen[kind] += 1;
                    }
                    let row = &m.rows[r as usize];
                    assert!(
                        row.index.is_none() && row.is_sorted(),
                        "merge leaves the row sorted and unindexed"
                    );
                }
                6..=8 => {
                    let (c, v) = (rng.gen_range(u64::from(NCOLS)) as Index, value(&mut rng));
                    m.set(r, c, v);
                    model.insert((r, c), v);
                    touched.push((r, c));
                }
                9..=11 => {
                    let (c, v) = (rng.gen_range(u64::from(NCOLS)) as Index, value(&mut rng));
                    m.combine_entry(r, c, v, fold);
                    match model.get_mut(&(r, c)) {
                        Some(old) => *old = fold(*old, v),
                        None => {
                            model.insert((r, c), v);
                        }
                    }
                    touched.push((r, c));
                }
                12..=18 => {
                    let c = rng.gen_range(u64::from(NCOLS)) as Index;
                    assert_eq!(
                        m.remove(r, c),
                        model.remove(&(r, c)),
                        "remove at step {step}"
                    );
                    touched.push((r, c));
                }
                // Drain the row, so it can start light again.
                _ => {
                    let held: Vec<Index> =
                        model.range((r, 0)..(r + 1, 0)).map(|(k, _)| k.1).collect();
                    for &c in held.iter().rev() {
                        assert_eq!(m.remove(r, c), model.remove(&(r, c)));
                        touched.push((r, c));
                    }
                }
            }
            assert_eq!(m.nnz(), model.len(), "nnz drift at step {step}");
            let row = &m.rows[r as usize];
            assert!(
                op <= 5 || row.index.is_some() || row.len() < INDEX_THRESHOLD,
                "a point operation leaves a heavy row unindexed at step {step}"
            );
            for row in &m.rows {
                assert_row_invariant(row, step);
            }
            let full = m.to_csr();
            let got: Vec<(Index, Index, u64)> = (0..NROWS)
                .flat_map(|r| {
                    let (cols, vals) = full.row(r);
                    cols.iter()
                        .zip(vals)
                        .map(move |(&c, &v)| (r, c, v.to_bits()))
                        .collect::<Vec<_>>()
                })
                .collect();
            let want: Vec<(Index, Index, u64)> = model
                .iter()
                .map(|(&(r, c), &v)| (r, c, v.to_bits()))
                .collect();
            assert_eq!(got, want, "to_csr at step {step}");
            touched.sort_unstable();
            touched.dedup();
            assert_eq!(
                m.patch_csr(&image, &touched),
                full,
                "patch_csr at step {step}"
            );
            image = full;
        }
        assert!(seen.iter().all(|&n| n > 0), "merge states seen: {seen:?}");
    }

    #[test]
    fn conversions_sorted() {
        let mut m: DhbMatrix<u64> = DhbMatrix::new(4, 4);
        m.set(2, 3, 1);
        m.set(2, 0, 2);
        m.set(0, 1, 3);
        let t = m.to_sorted_triples();
        assert_eq!(
            t,
            vec![
                Triple::new(0, 1, 3),
                Triple::new(2, 0, 2),
                Triple::new(2, 3, 1)
            ]
        );
        assert_eq!(m.to_csr().nnz(), 3);
    }

    /// The direct conversions agree with the triple-based constructors on a
    /// matrix whose rows are partly in column order and partly not.
    #[test]
    fn direct_conversions_match_sorted_triples() {
        let mut rng = SplitMix64::new(77);
        let mut m: DhbMatrix<u64> = DhbMatrix::new(50, 300);
        m.update_row(3, |row| row.fill_sorted(&[1, 5, 9], &[10, 50, 90]));
        for _ in 0..4_000 {
            let (r, c) = (rng.gen_range(50) as Index, rng.gen_range(300) as Index);
            if r % 7 != 3 {
                m.set(r, c, rng.next_u64());
            }
        }
        let triples = m.to_sorted_triples();
        let csr = m.to_csr();
        assert_eq!(csr, Csr::from_sorted_triples(50, 300, &triples));
        assert_eq!(csr.heap_bytes(), {
            let n = m.nnz();
            51 * 8 + n * 4 + n * 8
        });
    }

    /// `select_rows` equals the matching rows of `to_csr()`, values mapped,
    /// on a light unsorted row, an indexed row that swap-removes left
    /// unsorted and a merged heavy row — and leaves empty rows out.
    #[test]
    fn select_rows_match_csr_rows() {
        let mut m: DhbMatrix<u64> = DhbMatrix::new(6, 64);
        for (c, v) in [(9, 1), (2, 2), (5, 3)] {
            m.set(0, c, v);
        }
        for c in 0..20 {
            m.set(2, 3 * c, c as u64 + 10);
        }
        for c in [0, 9, 21] {
            m.remove(2, c);
        }
        let heavy: Vec<Index> = (0..12).map(|c| 5 * c + 1).collect();
        m.merge_row(3, &heavy, |j| j as u64 + 40, |x, y| x + y, &mut Vec::new());
        m.set(4, 7, 99);
        let unsorted = |r: usize| !m.rows[r].is_sorted();
        assert!(
            unsorted(0) && unsorted(2),
            "rows 0 and 2 are out of column order"
        );
        assert!(m.rows[2].index.is_some(), "row 2 is indexed");
        assert!(m.rows[3].index.is_none() && m.rows[3].len() >= INDEX_THRESHOLD);
        let csr = m.to_csr();
        let picked = m.select_rows(&[0, 1, 2, 3, 5], |v| 2 * v);
        assert_eq!((picked.nrows(), picked.ncols()), (6, 64));
        let rows: Vec<Index> = picked.iter_rows().map(|(r, _, _)| r).collect();
        assert_eq!(rows, [0, 2, 3], "empty rows are left out");
        for (r, cols, vals) in picked.iter_rows() {
            let (want_cols, want_vals) = RowRead::row(&csr, r);
            assert_eq!(cols, want_cols, "row {r}");
            let doubled: Vec<u64> = want_vals.iter().map(|v| 2 * v).collect();
            assert_eq!(vals, doubled, "row {r}");
        }
        let pattern = m.select_rows(&[2, 4], |_| ());
        assert_eq!(pattern.row_cols(2), RowRead::row(&csr, 2).0);
        assert_eq!(pattern.row_cols(4), [7]);
    }

    /// Random set / add / remove rounds: the image patched from the previous
    /// round's image and the touched coordinates equals the full conversion,
    /// is exactly sized, and a dropped coordinate is detected.
    #[test]
    fn patch_csr_matches_full_conversion() {
        let mut rng = SplitMix64::new(4242);
        let (nrows, ncols): (Index, Index) = (40, 64);
        let mut m: DhbMatrix<u64> = DhbMatrix::new(nrows, ncols);
        let mut image = m.to_csr();
        for round in 0..60 {
            let mut touched: Vec<(Index, Index)> = Vec::new();
            // Rounds alternate between a few scattered coordinates and a
            // dense burst in one row; round 0 starts from the empty image.
            let count = if round % 3 == 0 { 120 } else { 9 };
            for _ in 0..count {
                let r = if round % 3 == 0 {
                    (round % nrows as usize) as Index
                } else {
                    rng.gen_range(nrows as u64) as Index
                };
                let c = rng.gen_range(ncols as u64) as Index;
                match rng.gen_range(3) {
                    0 => {
                        m.set(r, c, rng.next_u64());
                    }
                    1 => {
                        m.add_entry::<U64Plus>(r, c, rng.gen_range(9) + 1);
                    }
                    _ => {
                        m.remove(r, c);
                    }
                }
                touched.push((r, c));
            }
            touched.sort_unstable();
            touched.dedup();
            let full = m.to_csr();
            let patched = m.patch_csr(&image, &touched);
            assert_eq!(patched, full, "round {round}");
            assert_eq!(patched.heap_bytes(), full.heap_bytes(), "round {round}");
            if let Some(i) = touched
                .iter()
                .position(|&(r, c)| image.get(r, c) != m.get(r, c))
            {
                touched.remove(i);
                assert_ne!(m.patch_csr(&image, &touched), full, "round {round}");
            }
            image = full;
        }
    }

    #[test]
    fn row_read_trait_unordered() {
        let mut m: DhbMatrix<u64> = DhbMatrix::new(2, 8);
        m.set(0, 5, 1);
        m.set(0, 2, 2);
        let (cols, vals) = RowRead::row(&m, 0);
        assert_eq!(cols.len(), 2);
        assert_eq!(vals.len(), 2);
        let mut pairs: Vec<(Index, u64)> = cols.iter().copied().zip(vals.iter().copied()).collect();
        pairs.sort_unstable();
        assert_eq!(pairs, vec![(2, 2), (5, 1)]);
    }

    #[test]
    fn heap_bytes_positive_and_grows() {
        let mut m: DhbMatrix<u64> = DhbMatrix::new(8, 1024);
        let before = m.heap_bytes();
        for c in 0..1024 {
            m.set(3, c, 1);
        }
        assert!(m.heap_bytes() > before);
    }

    #[test]
    fn backshift_deletion_stress() {
        // Force many collisions then delete in adversarial order to exercise
        // the back-shift path.
        let mut row: DhbRow<u64> = DhbRow::default();
        let cols: Vec<Index> = (0..2000).map(|i| i * 64).collect();
        for &c in &cols {
            row.set(c, c as u64);
        }
        for &c in cols.iter().rev() {
            assert_eq!(row.remove(c), Some(c as u64));
            // All remaining entries must stay findable.
            if c % 640 == 0 {
                for &c2 in cols.iter().filter(|&&c2| c2 < c) {
                    assert_eq!(row.get(c2), Some(c2 as u64), "lost {c2} after removing {c}");
                }
            }
        }
        assert!(row.is_empty());
    }
}
