//! `(row, col, value)` triples — the interchange format.
//!
//! Updates travel between ranks as triples (the paper's `(i, j, x)` tuples,
//! Section IV-B) — on the wire as bit-packed [`TripleLane`]s, in the order
//! they were sent; matrices are constructed from triple streams; DCSR blocks
//! are built from row-major-sorted triples.

use crate::semiring::Semiring;
use crate::Index;
use dspgemm_util::sort::radix_sort_by_key;
use dspgemm_util::{WireDecode, WireEncode, WireError, WireReader, WireSink};

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

/// A run of triples that travels **bit-packed, in its own order**: one lane
/// of a redistribution chunk (`dspgemm_core::redistribute`). In memory it is
/// the plain vector; only its wire form differs from `Vec<Triple<V>>`'s
/// 16 fixed-width bytes per `f64` triple. The grammar is on
/// [`TripleLane::wire_encode`].
#[derive(Debug, Clone, PartialEq)]
pub struct TripleLane<V>(pub Vec<Triple<V>>);

/// Bit length of `span`: the width that holds every offset up to it.
#[inline]
fn bit_width(span: Index) -> u32 {
    Index::BITS - span.leading_zeros()
}

/// The low `width` bits of a word, `width ≤ 64`.
#[inline(always)]
fn low_bits(word: u64, width: u32) -> u64 {
    word & ((1u128 << width) - 1) as u64
}

/// A [`TripleLane`] and the tally a counted redistribution lane carries
/// beside it: one element of a redistribution chunk. In memory the pair; on
/// the wire the lane's own frame, whose length word says whether a tally
/// follows (grammar on [`TripleLane::wire_encode`]). Without a tally the
/// frame is the bare lane's, byte for byte.
#[derive(Debug, Clone, PartialEq)]
pub struct TalliedLane<V> {
    /// The tuples.
    pub lane: TripleLane<V>,
    /// The count that rides with them, if the lane is counted.
    pub tally: Option<u64>,
}

/// The bit of a lane frame's length word that says a tally follows it.
const TALLY_BIT: u64 = 1 << 63;

impl<V: WireEncode> WireEncode for TripleLane<V> {
    /// Packed form — a frame of reference for the indices, then the values:
    ///
    /// ```text
    /// len: u64        bit 63 set: a TalliedLane's tally follows
    /// if bit 63:  tally: u64
    /// if len > 0:
    ///     row_base: u32   col_base: u32   row_bits: u8   col_bits: u8
    ///     ⌈len·(row_bits + col_bits) / 8⌉ bytes: per triple, in order,
    ///         (row − row_base) in row_bits, then (col − col_base) in
    ///         col_bits, packed LSB first, the last byte zero-padded
    ///     vals, fixed width, back to back            as `encode_elems`
    /// ```
    ///
    /// The bases are the least row and column of the run and the widths the
    /// bit lengths of the spans to the largest, so a chunk bound for one grid
    /// block pays for the block's extent, not for 32-bit indices. Every pair
    /// takes the same width whatever its neighbours, so the form needs no
    /// sort and is total on any order, duplicates included: a lane arrives as
    /// the sequence it was sent, which is what lets duplicates fold in the
    /// same order whatever shares the exchange. At most 10 B longer than the
    /// fixed-width `Vec<Triple<V>>` (the header; a pair never exceeds 64
    /// bits), and the meter charges it by running this encoder into a
    /// [`ByteCount`](dspgemm_util::ByteCount) like every other type. A
    /// tally costs its 8 bytes.
    fn wire_encode<S: WireSink>(&self, out: &mut S) {
        self.encode_frame(None, out);
    }
}

impl<V: WireEncode> WireEncode for TalliedLane<V> {
    /// The lane's frame with the tally in it ([`TripleLane::wire_encode`]).
    fn wire_encode<S: WireSink>(&self, out: &mut S) {
        self.lane.encode_frame(self.tally, out);
    }
}

impl<V: WireEncode> TripleLane<V> {
    /// The frame of [`TripleLane::wire_encode`], with `tally` in it.
    fn encode_frame<S: WireSink>(&self, tally: Option<u64>, out: &mut S) {
        let triples = &self.0;
        let len = triples.len() as u64;
        match tally {
            None => len.wire_encode(out),
            Some(tally) => {
                (len | TALLY_BIT).wire_encode(out);
                tally.wire_encode(out);
            }
        }
        let Some(first) = triples.first() else {
            return;
        };
        let (mut lo, mut hi) = ((first.row, first.col), (first.row, first.col));
        for t in triples {
            lo = (lo.0.min(t.row), lo.1.min(t.col));
            hi = (hi.0.max(t.row), hi.1.max(t.col));
        }
        let (row_bits, col_bits) = (bit_width(hi.0 - lo.0), bit_width(hi.1 - lo.1));
        lo.0.wire_encode(out);
        lo.1.wire_encode(out);
        (row_bits as u8).wire_encode(out);
        (col_bits as u8).wire_encode(out);
        // Whole words go to the sink as they fill; a pair is ≤ 64 bits and
        // fewer than 64 wait, so the accumulator never overflows.
        let (mut acc, mut filled) = (0u128, 0u32);
        for t in triples {
            let pair = u64::from(t.row - lo.0) | u64::from(t.col - lo.1) << row_bits;
            acc |= u128::from(pair) << filled;
            filled += row_bits + col_bits;
            if filled >= 64 {
                out.put(&(acc as u64).to_le_bytes());
                acc >>= 64;
                filled -= 64;
            }
        }
        out.put(&(acc as u64).to_le_bytes()[..filled.div_ceil(8) as usize]);
        for t in triples {
            t.val.wire_encode(out);
        }
    }
}

/// LSB-first reader over the packed pairs of a [`TripleLane`] frame.
struct BitReader<'a> {
    bytes: &'a [u8],
    acc: u128,
    avail: u32,
}

impl BitReader<'_> {
    /// The next `width ≤ 64` bits. The caller sized `bytes` to hold every
    /// pair it reads, so a refill always finds a byte.
    #[inline(always)]
    fn take(&mut self, width: u32) -> u64 {
        while self.avail < width {
            if let Some((word, rest)) = self.bytes.split_first_chunk::<8>() {
                self.acc |= u128::from(u64::from_le_bytes(*word)) << self.avail;
                self.avail += 64;
                self.bytes = rest;
            } else {
                let (&byte, rest) = self
                    .bytes
                    .split_first()
                    .expect("frame sized for every pair");
                self.acc |= u128::from(byte) << self.avail;
                self.avail += 8;
                self.bytes = rest;
            }
        }
        let bits = low_bits(self.acc as u64, width);
        self.acc >>= width;
        self.avail -= width;
        bits
    }
}

/// `base + offset`, which must stay an [`Index`]. The offset is at most 32
/// bits wide (the decoder refuses wider fields), so the cast is exact.
#[inline(always)]
fn rebase(base: Index, offset: u64) -> Result<Index, WireError> {
    base.checked_add(offset as Index)
        .ok_or(WireError::Invalid("lane index out of range"))
}

impl<V: WireDecode> WireDecode for TripleLane<V> {
    /// The inverse of the grammar on [`TripleLane::wire_encode`], total on
    /// arbitrary bytes. The packed block is taken whole before anything is
    /// reserved, and the count is then held against the bytes left for the
    /// values (for zero-width pairs of zero-byte values, against the frame's
    /// length — the rule of [`WireReader::ensure`]). Widths above 32 bits
    /// and indices past `u32::MAX` are [`WireError::Invalid`], and so is a
    /// tally: a bare lane carries none.
    fn wire_decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match TripleLane::decode_frame(r)? {
            TalliedLane { lane, tally: None } => Ok(lane),
            TalliedLane { tally: Some(_), .. } => Err(WireError::Invalid("tally on a bare lane")),
        }
    }
}

impl<V: WireDecode> WireDecode for TalliedLane<V> {
    /// The inverse of [`TalliedLane::wire_encode`], as total as the lane's.
    fn wire_decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        TripleLane::decode_frame(r)
    }
}

impl<V: WireDecode> TripleLane<V> {
    /// A frame of the grammar on [`TripleLane::wire_encode`], tally and all.
    fn decode_frame(r: &mut WireReader<'_>) -> Result<TalliedLane<V>, WireError> {
        let word = u64::wire_decode(r)?;
        let tally = match word & TALLY_BIT {
            0 => None,
            _ => Some(u64::wire_decode(r)?),
        };
        let lane = |triples| TalliedLane {
            lane: TripleLane(triples),
            tally,
        };
        let len =
            usize::try_from(word & !TALLY_BIT).map_err(|_| WireError::Invalid("usize overflow"))?;
        if len == 0 {
            return Ok(lane(Vec::new()));
        }
        let row_base = Index::wire_decode(r)?;
        let col_base = Index::wire_decode(r)?;
        let row_bits = u32::from(u8::wire_decode(r)?);
        let col_bits = u32::from(u8::wire_decode(r)?);
        if row_bits > Index::BITS || col_bits > Index::BITS {
            return Err(WireError::Invalid("lane index width"));
        }
        let width = row_bits + col_bits;
        let packed = len
            .checked_mul(width as usize)
            .ok_or(WireError::Invalid("lane length overflow"))?;
        let mut pairs = BitReader {
            bytes: r.take(packed.div_ceil(8))?,
            acc: 0,
            avail: 0,
        };
        r.ensure(len, usize::from(std::mem::size_of::<V>() != 0))?;
        let mut triples = Vec::with_capacity(len);
        for _ in 0..len {
            let pair = pairs.take(width);
            let row = rebase(row_base, low_bits(pair, row_bits))?;
            let col = rebase(col_base, pair >> row_bits)?;
            triples.push(Triple::new(row, col, V::wire_decode(r)?));
        }
        Ok(lane(triples))
    }
}

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
