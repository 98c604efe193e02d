//! The wire codec, and the wire-size accounting derived from it.
//!
//! The MPI simulator transfers values by moving them in memory, but the
//! experiments must report *communication volume* — the central quantity the
//! paper optimizes ("our dynamic SpGEMM reduces the communication volume
//! significantly") — and the TCP transport backend has to *move* those
//! bytes. Both read one description per type:
//!
//! * [`WireEncode`] states a type's packed form once, generic over the
//!   [`WireSink`] the bytes go to;
//! * [`WireSize`] is implemented exactly once, for every `WireEncode` type,
//!   as that encoder run into a [`ByteCount`]. The metered size of a value
//!   is therefore the length of its encoding *by construction*: no type can
//!   state a size of its own (a second `impl WireSize` is a coherence
//!   error), and a format change moves the meter with it;
//! * [`WireDecode`] is the receive-side inverse for owned (`Sized`) types.
//!   The split is deliberate: borrowed payloads like `&[T]` have a wire size
//!   and an encoding but no owned decoding, which the type system then
//!   rejects at the receive call sites instead of at runtime.
//!
//! Types that are a list of fields declare that list once with
//! [`impl_wire_fields!`](crate::impl_wire_fields), which emits the encoder
//! and the decoder; only types with an invariant to validate (the sparse
//! blocks) write the pair by hand.
//!
//! The format is little-endian and self-delimiting per field: scalars at
//! their natural width (`usize`/`isize` always as 8 bytes), sequences as a
//! `u64` length followed by the elements, `Option` as a one-byte tag. No
//! framing, versioning or field names — both ends are the same binary, and
//! the transport's envelope header carries the routing metadata.
//!
//! Two payloads are exceptions to "natural width", and in both only the
//! indices are:
//!
//! * the index structure of a hypersparse block (`Dcsr`, the payload of
//!   every per-batch broadcast and reduction) is written as *varints* —
//!   [`put_varint`] / [`WireReader::take_varint`]: unsigned LEB128, seven
//!   value bits per byte, low group first, the high bit set on every byte but
//!   the last. A `u64` takes 1–10 bytes; the decoder accepts exactly one
//!   spelling per value (no trailing zero group, nothing past bit 63);
//! * the `(row, col)` pairs of a redistribution lane (`TripleLane`, every
//!   chunk of the update exchange) are bit-packed against the lane's least
//!   row and column, each pair at the same width, so the lane keeps the
//!   order it was sent in.
//!
//! Everything else, values included, stays fixed-width so its decode is a
//! straight copy loop.

use std::fmt;
use std::sync::Arc;

/// Error produced by [`WireDecode`] on malformed or truncated input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the value was complete.
    Truncated {
        /// Bytes the decoder needed next.
        needed: usize,
        /// Bytes that were actually left.
        remaining: usize,
    },
    /// The bytes were present but do not form a valid value.
    Invalid(&'static str),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { needed, remaining } => {
                write!(
                    f,
                    "wire input truncated: needed {needed} B, had {remaining} B"
                )
            }
            WireError::Invalid(what) => write!(f, "invalid wire input: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

/// A cursor over a received byte buffer for [`WireDecode`] implementations.
#[derive(Debug)]
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Starts reading at the beginning of `buf`.
    #[inline]
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Consumes the next `n` bytes, or errors if fewer remain.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated {
                needed: n,
                remaining: self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Errors unless `len` more elements of at least `min_elem` bytes each
    /// can still follow — the check that keeps a corrupt count from driving
    /// a huge allocation. Elements that encode to nothing (`min_elem == 0`)
    /// take no bytes, so nothing left in the buffer bounds them and the
    /// decode loop itself would be the attack; their count is held to the
    /// length of the whole frame instead. The zero-byte arrays the transport
    /// carries are the value arrays of pattern blocks, one element per
    /// column index already read from the same frame.
    #[inline]
    pub fn ensure(&self, len: usize, min_elem: usize) -> Result<(), WireError> {
        if min_elem == 0 {
            if len > self.buf.len() {
                return Err(WireError::Invalid(
                    "more zero-byte elements than frame bytes",
                ));
            }
        } else if len > self.remaining() / min_elem {
            return Err(WireError::Truncated {
                needed: len.saturating_mul(min_elem),
                remaining: self.remaining(),
            });
        }
        Ok(())
    }

    /// Decodes a `u64` length prefix and sanity-checks it against the bytes
    /// left: a sequence of `len` elements needs at least `len * min_elem`
    /// more bytes.
    #[inline]
    pub fn take_len(&mut self, min_elem: usize) -> Result<usize, WireError> {
        let len = u64::wire_decode(self)?;
        let len = usize::try_from(len).map_err(|_| WireError::Invalid("length overflow"))?;
        self.ensure(len, min_elem)?;
        Ok(len)
    }

    /// Decodes one varint written by [`put_varint`]. A value has exactly one
    /// accepted spelling: a trailing zero group (`0x80 0x00`) or anything
    /// past bit 63 (an eleventh byte, or more than one bit in the tenth) is
    /// [`WireError::Invalid`]; a buffer that ends on a continuation byte is
    /// [`WireError::Truncated`].
    #[inline(always)]
    pub fn take_varint(&mut self) -> Result<u64, WireError> {
        // One- and two-byte varints — nearly every gap of a sparse block —
        // decode here, inlined, without a branch on which of the two it is:
        // a mix of them is exactly what a branch predictor cannot learn.
        if let [first, second, ..] = self.buf[self.pos..] {
            let two = first >> 7;
            if (two == 0) | (second.wrapping_sub(1) < 0x7f) {
                self.pos += 1 + two as usize;
                return Ok(u64::from(first & 0x7f) | u64::from(second * two) << 7);
            }
        }
        self.take_varint_bytewise()
    }

    /// The general case of [`WireReader::take_varint`]: three bytes and
    /// more, the last byte of a buffer, and every malformed spelling.
    #[cold]
    fn take_varint_bytewise(&mut self) -> Result<u64, WireError> {
        let rest = &self.buf[self.pos..];
        let mut value = 0u64;
        for (i, &byte) in rest.iter().take(MAX_VARINT_BYTES).enumerate() {
            // The tenth group holds bit 63 alone.
            if i == MAX_VARINT_BYTES - 1 && byte > 1 {
                break;
            }
            value |= u64::from(byte & 0x7f) << (7 * i);
            if byte < 0x80 {
                if byte == 0 && i != 0 {
                    return Err(WireError::Invalid("non-canonical varint"));
                }
                self.pos += i + 1;
                return Ok(value);
            }
        }
        if rest.len() < MAX_VARINT_BYTES {
            return Err(WireError::Truncated {
                needed: rest.len() + 1,
                remaining: rest.len(),
            });
        }
        Err(WireError::Invalid("varint exceeds 64 bits"))
    }
}

/// Where an encoder puts its bytes: a buffer (the TCP path) or a counter
/// (the meter). One encoder per type serves both, so a type cannot state a
/// size that differs from its encoding.
pub trait WireSink {
    /// Accepts the next `bytes` of the encoding.
    fn put(&mut self, bytes: &[u8]);
}

impl WireSink for Vec<u8> {
    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

/// The metering sink: counts the bytes an encoder emits and keeps none.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ByteCount(pub u64);

impl WireSink for ByteCount {
    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        self.0 += bytes.len() as u64;
    }
}

/// Packs a value into the byte form the TCP transport moves. This is the one
/// place a type states its wire format; [`WireSize`] and [`encode_to_vec`]
/// are this encoder run into a [`ByteCount`] and a `Vec<u8>`.
pub trait WireEncode {
    /// Emits the packed encoding of `self` into `out`.
    fn wire_encode<S: WireSink>(&self, out: &mut S);
}

/// Unpacks a value previously packed with [`WireEncode`].
///
/// A separate trait because borrowed types (`&[T]`) are metered and
/// encodable but have no owned decoding; receive call sites carry this bound
/// explicitly.
pub trait WireDecode: Sized {
    /// Reads one packed value from `r`.
    fn wire_decode(r: &mut WireReader<'_>) -> Result<Self, WireError>;
}

/// Number of bytes a value occupies in a packed message. Implemented once,
/// for every [`WireEncode`] type, as the length of its encoding — a second
/// `impl WireSize` anywhere is a coherence error.
pub trait WireSize: WireEncode {
    /// Packed byte size of `self`: exactly `encode_to_vec(self).len()`.
    fn wire_bytes(&self) -> u64;
}

impl<T: WireEncode + ?Sized> WireSize for T {
    #[inline]
    fn wire_bytes(&self) -> u64 {
        let mut n = ByteCount(0);
        self.wire_encode(&mut n);
        n.0
    }
}

/// Packs `value` into a fresh buffer.
pub fn encode_to_vec<T: WireEncode + ?Sized>(value: &T) -> Vec<u8> {
    let mut out = Vec::new();
    value.wire_encode(&mut out);
    out
}

/// Unpacks one `T` from `buf`, requiring the buffer to be fully consumed
/// (trailing bytes mean the sender and receiver disagree about the type —
/// exactly the bug class this check exists to catch).
pub fn decode_from_slice<T: WireDecode>(buf: &[u8]) -> Result<T, WireError> {
    let mut r = WireReader::new(buf);
    let v = T::wire_decode(&mut r)?;
    if r.remaining() != 0 {
        return Err(WireError::Invalid("trailing bytes after value"));
    }
    Ok(v)
}

/// An already-encoded payload travelling through a transport.
///
/// The TCP backend packs typed values into `WireBytes` at the communicator
/// layer (once per destination) and unpacks them at the matched receive; the
/// in-process simulator never constructs one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireBytes(pub Vec<u8>);

macro_rules! impl_wire_scalar {
    ($($t:ty),*) => {
        $(
            impl WireEncode for $t {
                #[inline]
                fn wire_encode<S: WireSink>(&self, out: &mut S) {
                    out.put(&self.to_le_bytes());
                }
            }
            impl WireDecode for $t {
                #[inline]
                fn wire_decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
                    let b = r.take(std::mem::size_of::<$t>())?;
                    Ok(<$t>::from_le_bytes(b.try_into().expect("sized take")))
                }
            }
        )*
    };
}

impl_wire_scalar!(u8, u16, u32, u64, i8, i16, i32, i64, f32, f64);

/// Declares the wire format of a field-list type: the fields, in wire order,
/// each in its own encoding and nothing else. Emits the encoder and the
/// decoder from the one list, so the two cannot disagree on order.
///
/// `impl_wire_fields!(Name<V> { a, b, c })` covers a struct (type parameters
/// are bounded by the trait being implemented; tuple structs list `0, 1`);
/// `impl_wire_fields!((A.0, B.1))` covers a tuple.
#[macro_export]
macro_rules! impl_wire_fields {
    ($ty:ident $(<$($g:ident),+>)? { $($field:tt),+ $(,)? }) => {
        impl$(<$($g: $crate::WireEncode),+>)? $crate::WireEncode for $ty$(<$($g),+>)? {
            #[inline]
            fn wire_encode<S: $crate::WireSink>(&self, out: &mut S) {
                $($crate::WireEncode::wire_encode(&self.$field, out);)+
            }
        }
        impl$(<$($g: $crate::WireDecode),+>)? $crate::WireDecode for $ty$(<$($g),+>)? {
            #[inline]
            fn wire_decode(
                r: &mut $crate::WireReader<'_>,
            ) -> Result<Self, $crate::WireError> {
                Ok(Self { $($field: $crate::WireDecode::wire_decode(r)?),+ })
            }
        }
    };
    (($($g:ident . $idx:tt),+)) => {
        impl<$($g: $crate::WireEncode),+> $crate::WireEncode for ($($g,)+) {
            #[inline]
            fn wire_encode<S: $crate::WireSink>(&self, out: &mut S) {
                $($crate::WireEncode::wire_encode(&self.$idx, out);)+
            }
        }
        impl<$($g: $crate::WireDecode),+> $crate::WireDecode for ($($g,)+) {
            #[inline]
            fn wire_decode(
                r: &mut $crate::WireReader<'_>,
            ) -> Result<Self, $crate::WireError> {
                Ok(($(<$g as $crate::WireDecode>::wire_decode(r)?,)+))
            }
        }
    };
}

/// Declares the wire format of an enum of tuple and unit variants: a one-byte
/// tag, then the variant's fields in order, each in its own encoding. Tags
/// are listed with the variants, so reordering the declaration cannot change
/// the format.
///
/// `impl_wire_enum!(Name<V> { 0 => Pair(a, b), 1 => Empty })` binds each
/// field to a name of the caller's choosing.
#[macro_export]
macro_rules! impl_wire_enum {
    ($ty:ident $(<$($g:ident),+>)? { $($tag:literal => $var:ident $(($($f:ident),+))?),+ $(,)? }) => {
        impl$(<$($g: $crate::WireEncode),+>)? $crate::WireEncode for $ty$(<$($g),+>)? {
            #[inline]
            fn wire_encode<S: $crate::WireSink>(&self, out: &mut S) {
                match self {
                    $(Self::$var $(($($f),+))? => {
                        out.put(&[$tag]);
                        $($($crate::WireEncode::wire_encode($f, out);)+)?
                    })+
                }
            }
        }
        impl$(<$($g: $crate::WireDecode),+>)? $crate::WireDecode for $ty$(<$($g),+>)? {
            #[inline]
            fn wire_decode(
                r: &mut $crate::WireReader<'_>,
            ) -> Result<Self, $crate::WireError> {
                match <u8 as $crate::WireDecode>::wire_decode(r)? {
                    $($tag => Ok(Self::$var $(($({
                        let $f = $crate::WireDecode::wire_decode(r)?;
                        $f
                    }),+))?),)+
                    _ => Err($crate::WireError::Invalid(concat!(stringify!($ty), " tag"))),
                }
            }
        }
    };
}

impl_wire_fields!((A.0, B.1));
impl_wire_fields!((A.0, B.1, C.2));

// `usize`/`isize` travel as fixed 8-byte integers: the wire format must not
// depend on the host's pointer width.
impl WireEncode for usize {
    #[inline]
    fn wire_encode<S: WireSink>(&self, out: &mut S) {
        (*self as u64).wire_encode(out);
    }
}

impl WireDecode for usize {
    #[inline]
    fn wire_decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        usize::try_from(u64::wire_decode(r)?).map_err(|_| WireError::Invalid("usize overflow"))
    }
}

impl WireEncode for isize {
    #[inline]
    fn wire_encode<S: WireSink>(&self, out: &mut S) {
        (*self as i64).wire_encode(out);
    }
}

impl WireDecode for isize {
    #[inline]
    fn wire_decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        isize::try_from(i64::wire_decode(r)?).map_err(|_| WireError::Invalid("isize overflow"))
    }
}

impl WireEncode for bool {
    #[inline]
    fn wire_encode<S: WireSink>(&self, out: &mut S) {
        out.put(&[*self as u8]);
    }
}

impl WireDecode for bool {
    #[inline]
    fn wire_decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match u8::wire_decode(r)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::Invalid("bool byte")),
        }
    }
}

impl WireEncode for () {
    #[inline]
    fn wire_encode<S: WireSink>(&self, _out: &mut S) {}
}

impl WireDecode for () {
    #[inline]
    fn wire_decode(_r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(())
    }
}

impl<T: WireEncode> WireEncode for Option<T> {
    #[inline]
    fn wire_encode<S: WireSink>(&self, out: &mut S) {
        match self {
            None => out.put(&[0]),
            Some(v) => {
                out.put(&[1]);
                v.wire_encode(out);
            }
        }
    }
}

impl<T: WireDecode> WireDecode for Option<T> {
    #[inline]
    fn wire_decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match u8::wire_decode(r)? {
            0 => Ok(None),
            1 => Ok(Some(T::wire_decode(r)?)),
            _ => Err(WireError::Invalid("option tag")),
        }
    }
}

/// Most bytes a varint takes: ⌈64 / 7⌉.
const MAX_VARINT_BYTES: usize = 10;

/// The high bit of every byte of a word: "another group follows".
const CONTINUATION_BITS: u64 = 0x8080_8080_8080_8080;

/// Moves the eight 7-bit groups of the low 56 bits of `value` into the low
/// seven bits of the eight bytes of a word, low group in the low byte.
#[inline]
fn spread_groups(value: u64) -> u64 {
    let v = (value & 0x0000_0000_0fff_ffff) | ((value & 0x00ff_ffff_f000_0000) << 4);
    let v = (v & 0x0000_3fff_0000_3fff) | ((v & 0x0fff_c000_0fff_c000) << 2);
    (v & 0x007f_007f_007f_007f) | ((v & 0x3f80_3f80_3f80_3f80) << 1)
}

/// Emits `value` as a varint (unsigned LEB128, see the module docs): one
/// byte below 2^7, two below 2^14, … ten from 2^63. No loop over the bytes:
/// the length comes from the leading zeros and the groups are placed with
/// three shift-and-mask steps, so the same code metering into a
/// [`ByteCount`] — which the simulator does on every send — reduces to a
/// handful of branch-free instructions per value.
#[inline]
pub fn put_varint<S: WireSink>(value: u64, out: &mut S) {
    if value >> 56 != 0 {
        // Eight full groups, then the one or two bytes that are left.
        out.put(&(spread_groups(value) | CONTINUATION_BITS).to_le_bytes());
        return put_varint(value >> 56, out);
    }
    // ⌈bit width / 7⌉ bytes, 0 taking one like 1 does: 1..=8 of them.
    let len = (70 - (value | 1).leading_zeros() as usize) / 7;
    let continued = CONTINUATION_BITS & !(u64::MAX << (8 * (len - 1)));
    out.put(&(spread_groups(value) | continued).to_le_bytes()[..len]);
}

/// Emits `items` back to back with no length prefix — the body of every
/// sequence encoding, and of a block type's arrays whose lengths its header
/// implies.
#[inline]
pub fn encode_elems<T: WireEncode, S: WireSink>(items: &[T], out: &mut S) {
    for v in items {
        v.wire_encode(out);
    }
}

/// Reads `len` elements laid out by [`encode_elems`], checking `len` against
/// the bytes remaining before allocating for it: ≥ 1 B each, or for
/// elements that encode to zero bytes (`()`) the rule of
/// [`WireReader::ensure`].
pub fn decode_elems<T: WireDecode>(
    r: &mut WireReader<'_>,
    len: usize,
) -> Result<Vec<T>, WireError> {
    r.ensure(len, usize::from(std::mem::size_of::<T>() != 0))?;
    let mut v = Vec::with_capacity(len);
    for _ in 0..len {
        v.push(T::wire_decode(r)?);
    }
    Ok(v)
}

fn encode_seq<T: WireEncode, S: WireSink>(items: &[T], out: &mut S) {
    (items.len() as u64).wire_encode(out);
    encode_elems(items, out);
}

impl<T: WireEncode, const N: usize> WireEncode for [T; N] {
    #[inline]
    fn wire_encode<S: WireSink>(&self, out: &mut S) {
        encode_elems(self, out);
    }
}

impl<T: WireDecode, const N: usize> WireDecode for [T; N] {
    fn wire_decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        decode_elems(r, N)?
            .try_into()
            .map_err(|_| WireError::Invalid("array length"))
    }
}

impl<T: WireEncode> WireEncode for Vec<T> {
    #[inline]
    fn wire_encode<S: WireSink>(&self, out: &mut S) {
        encode_seq(self, out);
    }
}

impl<T: WireDecode> WireDecode for Vec<T> {
    fn wire_decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        // `decode_elems` holds the length against the bytes remaining.
        let len = usize::wire_decode(r)?;
        decode_elems(r, len)
    }
}

impl<T: WireEncode> WireEncode for &[T] {
    #[inline]
    fn wire_encode<S: WireSink>(&self, out: &mut S) {
        encode_seq(self, out);
    }
}

impl<T: WireEncode> WireEncode for Box<T> {
    #[inline]
    fn wire_encode<S: WireSink>(&self, out: &mut S) {
        (**self).wire_encode(out);
    }
}

impl<T: WireDecode> WireDecode for Box<T> {
    #[inline]
    fn wire_decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(Box::new(T::wire_decode(r)?))
    }
}

impl<T: WireEncode + ?Sized> WireEncode for Arc<T> {
    /// Encoding an `Arc` packs the pointee — serialization is where the
    /// zero-copy sharing of the simulated collectives genuinely ends, and
    /// the meter charges the pointee's size, so metered volume is identical
    /// between the clone-based and `Arc`-shared paths.
    #[inline]
    fn wire_encode<S: WireSink>(&self, out: &mut S) {
        (**self).wire_encode(out);
    }
}

impl<T: WireDecode> WireDecode for Arc<T> {
    /// Decoding rebuilds a fresh, unshared `Arc` around the pointee.
    #[inline]
    fn wire_decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(Arc::new(T::wire_decode(r)?))
    }
}

impl WireEncode for String {
    #[inline]
    fn wire_encode<S: WireSink>(&self, out: &mut S) {
        encode_seq(self.as_bytes(), out);
    }
}

impl WireDecode for String {
    fn wire_decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let len = r.take_len(1)?;
        let bytes = r.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::Invalid("utf-8 string"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: WireEncode + WireDecode + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = encode_to_vec(&v);
        assert_eq!(decode_from_slice::<T>(&bytes).expect("decode"), v);
    }

    #[test]
    fn scalar_sizes() {
        assert_eq!(0u8.wire_bytes(), 1);
        assert_eq!(0u32.wire_bytes(), 4);
        assert_eq!(0u64.wire_bytes(), 8);
        assert_eq!(0f64.wire_bytes(), 8);
        assert_eq!(true.wire_bytes(), 1);
        assert_eq!(().wire_bytes(), 0);
    }

    #[test]
    fn composite_sizes() {
        assert_eq!((1u32, 2u32, 3.0f64).wire_bytes(), 16);
        assert_eq!(vec![1u32; 10].wire_bytes(), 8 + 40);
        assert_eq!(Vec::<u64>::new().wire_bytes(), 8);
        assert_eq!(Some(5u64).wire_bytes(), 9);
        assert_eq!(None::<u64>.wire_bytes(), 1);
        assert_eq!("abc".to_string().wire_bytes(), 11);
    }

    #[test]
    fn nested_vec_of_tuples() {
        let v: Vec<(u32, u32, f64)> = vec![(0, 0, 0.0); 4];
        assert_eq!(v.wire_bytes(), 8 + 4 * 16);
    }

    #[test]
    fn arc_is_transparent() {
        let v = vec![1u32; 10];
        let inner = v.wire_bytes();
        assert_eq!(Arc::new(v).wire_bytes(), inner);
        assert_eq!(Arc::new(7u64).wire_bytes(), 8);
    }

    #[test]
    fn scalar_round_trips() {
        round_trip(0x0123_4567_89ab_cdefu64);
        round_trip(-42i64);
        round_trip(7usize);
        round_trip(-7isize);
        round_trip(1.5f32);
        round_trip(f64::NEG_INFINITY);
        round_trip(true);
        round_trip(());
    }

    #[test]
    fn composite_round_trips() {
        round_trip((1u32, 2u64));
        round_trip((1u8, -2i32, 3.0f64));
        round_trip(Some(vec![1u16, 2, 3]));
        round_trip(None::<u64>);
        round_trip([1u64, 2, 3]);
        round_trip("héllo wïre".to_string());
        round_trip(Box::new((9usize, false)));
        round_trip(Vec::<()>::from([(), (), ()]));
    }

    #[test]
    fn arc_round_trip_rebuilds_pointee() {
        let v = Arc::new(vec![3u32, 1, 4]);
        let bytes = encode_to_vec(&v);
        let back: Arc<Vec<u32>> = decode_from_slice(&bytes).expect("decode");
        assert_eq!(*back, *v);
        assert_eq!(Arc::strong_count(&back), 1);
    }

    #[test]
    fn encoded_length_matches_wire_bytes_for_packed_types() {
        // The codec emits exactly the metered bytes: the logical volume the
        // simulator reports is the physical volume the TCP backend moves.
        fn check<T: WireEncode + ?Sized>(v: &T) {
            assert_eq!(encode_to_vec(v).len() as u64, v.wire_bytes());
        }
        check(&7u64);
        check(&vec![1u32, 2, 3]);
        check(&(1u32, 2u32, 3.0f64));
        check(&Some(4u8));
        check(&"abc".to_string());
        check(&&[1u16, 2][..]);
        check(&[(1usize, true); 3]);
        check(&Arc::new(Box::new(vec![(); 5])));
    }

    #[test]
    fn field_list_macro_covers_structs_and_tuple_structs() {
        #[derive(Debug, PartialEq)]
        struct Named<V> {
            id: u32,
            vals: Vec<V>,
        }
        impl_wire_fields!(Named<V> { id, vals });
        #[derive(Debug, PartialEq)]
        struct Pair(u8, Option<u64>);
        impl_wire_fields!(Pair { 0, 1 });

        let n = Named {
            id: 9,
            vals: vec![1u16, 2],
        };
        // Fields in declaration order, each in its own encoding.
        assert_eq!(encode_to_vec(&n), encode_to_vec(&(9u32, vec![1u16, 2])));
        assert_eq!(n.wire_bytes(), 4 + 8 + 4);
        round_trip(n);
        assert_eq!(Pair(1, Some(2)).wire_bytes(), 1 + 9);
        round_trip(Pair(1, None));
    }

    #[test]
    fn enum_macro_tags_each_variant() {
        #[derive(Debug, Clone, PartialEq)]
        enum Shape<V> {
            Pair(V, Vec<V>),
            Empty,
            One(u8),
        }
        impl_wire_enum!(Shape<V> { 0 => Pair(a, b), 1 => Empty, 7 => One(x) });
        assert_eq!(encode_to_vec(&Shape::<u16>::Empty), vec![1]);
        assert_eq!(Shape::One::<u16>(3).wire_bytes(), 2);
        assert_eq!(Shape::Pair(5u16, vec![1, 2]).wire_bytes(), 1 + 2 + 8 + 4);
        round_trip(Shape::Pair(5u16, vec![1, 2]));
        round_trip(Shape::<u16>::Empty);
        round_trip(Shape::<u16>::One(9));
        assert_eq!(
            decode_from_slice::<Shape<u16>>(&[2]),
            Err(WireError::Invalid("Shape tag"))
        );
    }

    #[test]
    fn truncated_input_is_an_error_not_a_panic() {
        let bytes = encode_to_vec(&vec![1u64, 2, 3]);
        for cut in 0..bytes.len() {
            assert!(decode_from_slice::<Vec<u64>>(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = encode_to_vec(&5u32);
        bytes.push(0);
        assert_eq!(
            decode_from_slice::<u32>(&bytes),
            Err(WireError::Invalid("trailing bytes after value"))
        );
    }

    #[test]
    fn corrupt_length_prefix_cannot_overallocate() {
        let mut bytes = Vec::new();
        u64::MAX.wire_encode(&mut bytes);
        assert!(matches!(
            decode_from_slice::<Vec<u64>>(&bytes),
            Err(WireError::Truncated { .. }) | Err(WireError::Invalid(_))
        ));
    }

    /// A count of zero-byte elements is bounded by nothing left in the
    /// buffer; it must be refused before the decode loop runs, not after
    /// 2^64 iterations of it (which only the unoptimised build executes).
    #[test]
    fn hostile_count_of_zero_byte_elements_is_rejected_up_front() {
        for len in [u64::MAX, 1 << 40, 9] {
            let frame = len.to_le_bytes();
            assert!(decode_from_slice::<Vec<()>>(&frame).is_err());
            assert!(decode_from_slice::<Vec<((), ())>>(&frame).is_err());
            assert!(decode_from_slice::<Vec<[(); 3]>>(&frame).is_err());
        }
        // Up to the frame's own length they still round-trip.
        round_trip(vec![(); 8]);
        round_trip(vec![((), ()); 2]);
        round_trip((7u64, Vec::<()>::from([(); 16])));
    }

    fn varint(value: u64) -> Vec<u8> {
        let mut out = Vec::new();
        put_varint(value, &mut out);
        out
    }

    #[test]
    fn varint_lengths_and_round_trips() {
        assert_eq!(varint(0), [0]);
        assert_eq!(varint(127), [0x7f]);
        assert_eq!(varint(128), [0x80, 0x01]);
        assert_eq!(varint(300), [0xac, 0x02]);
        assert_eq!(varint(u64::MAX).len(), MAX_VARINT_BYTES);
        let mut rng = crate::rng::SplitMix64::new(0x7A61);
        let edges = (0..64).flat_map(|b| [(1u64 << b) - 1, 1 << b, (1 << b) + 1]);
        let random = (0..2000).map(|i| crate::rng::Rng::next_u64(&mut rng) >> (i % 64));
        let values: Vec<u64> = edges.chain(random).chain([u64::MAX]).collect();
        let (mut stream, mut counted) = (Vec::new(), ByteCount(0));
        for &value in &values {
            let bytes = varint(value);
            let bits = 64 - (value | 1).leading_zeros() as usize;
            assert_eq!(bytes.len(), bits.div_ceil(7), "{value}");
            // Alone in its buffer, so the decoder cannot look past it.
            let mut r = WireReader::new(&bytes);
            assert_eq!(r.take_varint(), Ok(value));
            assert_eq!(r.remaining(), 0);
            stream.extend(bytes);
            put_varint(value, &mut counted);
        }
        // And back to back, where it can.
        assert_eq!(counted.0, stream.len() as u64);
        let mut r = WireReader::new(&stream);
        for &value in &values {
            assert_eq!(r.take_varint(), Ok(value));
        }
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn varint_has_one_spelling_per_value() {
        let take = |bytes: &[u8]| WireReader::new(bytes).take_varint();
        // Trailing zero groups: 0 and 1 spelt in two bytes, 2^7 in three.
        for padded in [&[0x80, 0x00][..], &[0x81, 0x00], &[0x80, 0x81, 0x00]] {
            assert_eq!(
                take(padded),
                Err(WireError::Invalid("non-canonical varint"))
            );
        }
        // Past bit 63: a second bit in the tenth byte, and an eleventh byte.
        let mut wide = [0xff; 11];
        wide[9] = 0x02;
        assert!(matches!(take(&wide[..10]), Err(WireError::Invalid(_))));
        wide[9] = 0x81;
        wide[10] = 0x00;
        assert!(matches!(take(&wide), Err(WireError::Invalid(_))));
        // Cut on a continuation byte, at every length.
        let max = varint(u64::MAX);
        for cut in 0..max.len() {
            assert!(matches!(
                take(&max[..cut]),
                Err(WireError::Truncated { .. })
            ));
        }
        assert_eq!(take(&max), Ok(u64::MAX));
    }

    #[test]
    fn invalid_bool_and_option_tags_rejected() {
        assert_eq!(
            decode_from_slice::<bool>(&[2]),
            Err(WireError::Invalid("bool byte"))
        );
        assert_eq!(
            decode_from_slice::<Option<u8>>(&[9, 1]),
            Err(WireError::Invalid("option tag"))
        );
    }
}
