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
    /// are not bounded by the buffer.
    #[inline]
    fn ensure(&self, len: usize, min_elem: usize) -> Result<(), WireError> {
        if len
            .checked_mul(min_elem)
            .is_none_or(|b| b > self.remaining())
        {
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
/// the bytes remaining before allocating for it. Elements can encode to zero
/// bytes (`()`), so only the others are held to ≥ 1 B each.
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
        let len = r.take_len(0)?;
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
