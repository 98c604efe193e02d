//! Wire-codec property tests over the payload types the transport actually
//! carries: seeded-random round-trips (encode → decode must reproduce the
//! value and consume every byte), degenerate matrix blocks, and corruption
//! rejection. Deterministic via the in-repo `SplitMix64` — no external
//! property-testing machinery.

use dspgemm_sparse::semiring::U64Plus;
use dspgemm_sparse::{Csr, Dcsr, Index, TalliedLane, Triple, TripleLane};
use dspgemm_util::rng::{Rng, SplitMix64};
use dspgemm_util::wire::put_varint;
use dspgemm_util::{decode_from_slice, encode_to_vec, WireDecode, WireEncode, WireError, WireSize};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

/// The system allocator, noting the largest single request each thread makes
/// — how the hostile-frame cases show that a corrupt count was refused
/// *before* anything was reserved for it.
struct NotingAlloc;

thread_local! {
    static LARGEST_REQUEST: Cell<usize> = const { Cell::new(0) };
}

fn note_request(bytes: usize) {
    // No destructor to outlive, but an allocator must not panic regardless.
    let _ = LARGEST_REQUEST.try_with(|largest| largest.set(largest.get().max(bytes)));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; noting the size touches a `Cell<usize>` only.
unsafe impl GlobalAlloc for NotingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_request(layout.size());
        // SAFETY: the caller's `layout`, passed through.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_request(new_size);
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: NotingAlloc = NotingAlloc;

/// Runs `f` and returns its result with the largest allocation it asked for.
fn largest_request_in<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST_REQUEST.with(|largest| largest.set(0));
    let out = f();
    (out, LARGEST_REQUEST.with(Cell::get))
}

fn roundtrip<T>(value: &T) -> T
where
    T: WireEncode + WireDecode,
{
    let bytes = encode_to_vec(value);
    decode_from_slice::<T>(&bytes).expect("decode what we encoded")
}

/// Encoded length must equal the metered `WireSize` for every wire type
/// (what keeps logical metering equal to real socket bytes).
fn assert_sized_roundtrip<T>(value: &T)
where
    T: WireEncode + WireDecode + WireSize + PartialEq + std::fmt::Debug,
{
    let bytes = encode_to_vec(value);
    assert_eq!(
        bytes.len() as u64,
        value.wire_bytes(),
        "encoded length != metered wire size"
    );
    assert_eq!(&roundtrip(value), value);
}

fn random_triples(rng: &mut SplitMix64, n: usize, nrows: u32, ncols: u32) -> Vec<Triple<u64>> {
    (0..n)
        .map(|_| {
            Triple::new(
                rng.gen_range(nrows.max(1) as u64) as Index,
                rng.gen_range(ncols.max(1) as u64) as Index,
                rng.next_u64(),
            )
        })
        .collect()
}

/// The 5 × 7 two-entry block of the size pins: two stored rows, one entry
/// each.
fn pin_entries() -> Vec<Triple<u64>> {
    vec![Triple::new(1, 2, 10), Triple::new(3, 6, 20)]
}

/// `wire_bytes()` of one fixed sample per wire type. The meter is what the
/// gated `wire_bytes_per_batch` reads, so a constant here moves only with a
/// deliberate format change: all but the `Dcsr` ones are as metered at
/// d989652 (the last commit with hand-written size formulas); the `Dcsr`
/// ones moved with the compact form (12-byte header, 3 B per stored row
/// here, no `row_ptr`) from 72 / 56 / 88 and 24 for the empty block.
#[test]
fn metered_sizes_are_pinned() {
    assert_eq!(Triple::new(1, 2, 3u64).wire_bytes(), 16);
    let triples: Vec<Triple<f64>> = (0..3).map(|i| Triple::new(i, i, 0.5)).collect();
    assert_eq!(triples.wire_bytes(), 56);
    assert_eq!(Some((1u64, 2u64)).wire_bytes(), 17);
    assert_eq!(None::<(u64, u64)>.wire_bytes(), 1);
    assert_eq!([7u64; 6].wire_bytes(), 48);
    assert_eq!(Arc::new(vec![1u64, 2, 3, 4]).wire_bytes(), 40);
    assert_eq!("wire".to_string().wire_bytes(), 12);
    assert_eq!((&[1u32, 2, 3][..]).wire_bytes(), 20);
    let csr = Csr::from_triples::<U64Plus>(5, 7, pin_entries());
    assert_eq!(csr.wire_bytes(), 88);
    let dcsr = Dcsr::from_triples::<U64Plus>(5, 7, pin_entries());
    assert_eq!(dcsr.wire_bytes(), 34);
    assert_eq!(dcsr.map(|_| ()).wire_bytes(), 18);
    assert_eq!(dcsr.map(|v| (v, v)).wire_bytes(), 50);
    assert_eq!(Csr::<u64>::empty(0, 0).wire_bytes(), 24);
    assert_eq!(Dcsr::<u64>::empty(9, 0).wire_bytes(), 12);
}

#[test]
fn generated_tuples_roundtrip() {
    let mut rng = SplitMix64::new(0x71E5);
    for _ in 0..200 {
        assert_sized_roundtrip(&(rng.next_u64(), rng.next_u64() as u32));
        assert_sized_roundtrip(&(
            rng.next_u64(),
            f64::from_bits(0x3FF0_0000_0000_0000 | (rng.next_u64() >> 12)),
            rng.gen_range(2) == 1,
        ));
        let v: Vec<(u32, u64)> = (0..rng.gen_range(17))
            .map(|_| (rng.next_u64() as u32, rng.next_u64()))
            .collect();
        assert_sized_roundtrip(&v);
        let opt = if rng.gen_range(2) == 0 {
            None
        } else {
            Some((rng.next_u64(), rng.next_u64()))
        };
        assert_sized_roundtrip(&opt);
    }
}

#[test]
fn extreme_scalar_values_roundtrip() {
    for v in [0u64, 1, u64::MAX, u64::MAX - 1, 1 << 48, (1 << 48) - 1] {
        assert_sized_roundtrip(&v);
    }
    for v in [i64::MIN, -1, 0, i64::MAX] {
        assert_sized_roundtrip(&v);
    }
    for v in [f64::MIN, -0.0, 0.0, f64::MAX, f64::INFINITY] {
        assert_sized_roundtrip(&v);
    }
    // NaN round-trips bit-exactly even though it is not `==` to itself.
    let bytes = encode_to_vec(&f64::NAN);
    assert_eq!(
        decode_from_slice::<f64>(&bytes).unwrap().to_bits(),
        f64::NAN.to_bits()
    );
}

#[test]
fn generated_triples_roundtrip() {
    let mut rng = SplitMix64::new(0x7219);
    for case in 0..50 {
        let triples = random_triples(&mut rng, case * 7 % 400, 1000, 1000);
        assert_sized_roundtrip(&triples);
    }
}

#[test]
fn csr_blocks_roundtrip_including_degenerate() {
    let mut rng = SplitMix64::new(0xC5A);
    // Degenerate shapes: no rows, no cols, no nnz, single cell.
    for c in [
        Csr::<u64>::empty(0, 0),
        Csr::empty(0, 17),
        Csr::empty(17, 0),
        Csr::empty(1000, 1000),
        Csr::from_triples::<U64Plus>(1, 1, vec![Triple::new(0, 0, 42)]),
    ] {
        assert_sized_roundtrip(&c);
    }
    // Random blocks, including tall/thin and wide/flat.
    for case in 0..30 {
        let (nr, nc) = match case % 3 {
            0 => (1 + rng.gen_range(64) as u32, 1 + rng.gen_range(64) as u32),
            1 => (1 + rng.gen_range(2000) as u32, 1 + rng.gen_range(3) as u32),
            _ => (1 + rng.gen_range(3) as u32, 1 + rng.gen_range(2000) as u32),
        };
        let n = rng.gen_range(300) as usize;
        let c = Csr::from_triples::<U64Plus>(nr, nc, random_triples(&mut rng, n, nr, nc));
        assert_sized_roundtrip(&c);
        roundtrip(&c)
            .validate()
            .expect("decoded block passes validation");
    }
}

#[test]
fn dcsr_blocks_roundtrip_including_degenerate() {
    let mut rng = SplitMix64::new(0xDC5);
    for d in [
        Dcsr::<u64>::empty(0, 0),
        Dcsr::empty(0, 9),
        Dcsr::empty(9, 0),
        Dcsr::empty(1 << 20, 1 << 20),
    ] {
        assert_sized_roundtrip(&d);
        assert_sized_roundtrip(&d.map(|_| ()));
    }
    for _ in 0..30 {
        // Sparse row support: most rows absent — DCSR's reason to exist.
        let (nr, nc) = (1 << 16, 1 + rng.gen_range(512) as u32);
        let n = rng.gen_range(200) as usize;
        let d = Dcsr::from_triples::<U64Plus>(nr, nc, random_triples(&mut rng, n, nr, nc));
        assert_sized_roundtrip(&d);
        // The pattern and the value-pair blocks the general algorithm ships.
        assert_sized_roundtrip(&d.map(|_| ()));
        assert_sized_roundtrip(&d.map(|v| (v, !v)));
        roundtrip(&d)
            .validate()
            .expect("decoded block passes validation");
    }
}

/// Flips every single byte of `bytes`; decode must *never* produce an
/// invalid block (it either errors or yields a value `valid` accepts).
fn assert_byte_flips_stay_valid<T: WireDecode>(bytes: &[u8], valid: impl Fn(&T) -> bool) {
    assert!(decode_from_slice::<T>(bytes).is_ok());
    for i in 0..bytes.len() {
        for delta in [1u8, 0x80] {
            let mut corrupt = bytes.to_vec();
            corrupt[i] = corrupt[i].wrapping_add(delta);
            if let Ok(block) = decode_from_slice::<T>(&corrupt) {
                assert!(valid(&block), "decoder accepted an invalid block");
            }
        }
    }
}

#[test]
fn csr_decode_rejects_corrupted_invariants() {
    let entries = vec![
        Triple::new(0, 1, 5u64),
        Triple::new(2, 0, 7),
        Triple::new(3, 3, 9),
    ];
    let csr = Csr::from_triples::<U64Plus>(4, 4, entries.clone());
    assert_byte_flips_stay_valid(&encode_to_vec(&csr), |c: &Csr<u64>| c.validate().is_ok());
    let dcsr = Dcsr::from_triples::<U64Plus>(4, 4, entries);
    assert_byte_flips_stay_valid(&encode_to_vec(&dcsr), |d: &Dcsr<u64>| d.validate().is_ok());
    let pattern = dcsr.map(|_| ());
    assert_byte_flips_stay_valid(&encode_to_vec(&pattern), |d: &Dcsr<()>| {
        d.validate().is_ok()
    });
    let pairs = dcsr.map(|v| (v, !v));
    assert_byte_flips_stay_valid(&encode_to_vec(&pairs), |d: &Dcsr<(u64, u64)>| {
        d.validate().is_ok()
    });
}

/// Every proper prefix of `bytes` must fail to decode, and so must `bytes`
/// with trailing garbage (a frame must be consumed exactly).
fn assert_only_exact_frame_decodes<T: WireDecode>(bytes: &[u8]) {
    for cut in 0..bytes.len() {
        assert!(
            decode_from_slice::<T>(&bytes[..cut]).is_err(),
            "truncated at {cut} of {} decoded successfully",
            bytes.len()
        );
    }
    let mut padded = bytes.to_vec();
    padded.push(0);
    assert!(decode_from_slice::<T>(&padded).is_err());
}

#[test]
fn truncation_never_panics_and_always_errors() {
    let mut rng = SplitMix64::new(0x7A11);
    let entries = random_triples(&mut rng, 30, 8, 8);
    let c = Csr::from_triples::<U64Plus>(8, 8, entries.clone());
    assert_only_exact_frame_decodes::<Csr<u64>>(&encode_to_vec(&c));
    let d = Dcsr::from_triples::<U64Plus>(8, 8, entries);
    assert_only_exact_frame_decodes::<Dcsr<u64>>(&encode_to_vec(&d));
    assert_only_exact_frame_decodes::<Dcsr<()>>(&encode_to_vec(&d.map(|_| ())));
    assert_only_exact_frame_decodes::<Dcsr<(u64, u64)>>(&encode_to_vec(&d.map(|v| (v, !v))));
}

/// A `Dcsr` frame spelt by hand: the 12-byte header, `index` as varints,
/// then `tail` verbatim.
fn dcsr_frame(shape: (u32, u32), stored: u32, index: &[u64], tail: &[u8]) -> Vec<u8> {
    let mut bytes = encode_to_vec(&(shape.0, shape.1, stored));
    for &value in index {
        put_varint(value, &mut bytes);
    }
    bytes.extend_from_slice(tail);
    bytes
}

#[test]
fn dcsr_frame_grammar_is_as_documented() {
    // Rows 1 and 3 (gaps 1, 1), one entry each (length − 1 = 0), columns 2
    // and 6, then the two values.
    let vals = encode_to_vec(&[10u64, 20]);
    let bytes = dcsr_frame((5, 7), 2, &[1, 0, 2, 1, 0, 6], &vals);
    let block = Dcsr::from_triples::<U64Plus>(5, 7, pin_entries());
    assert_eq!(encode_to_vec(&block), bytes);
    assert_eq!(decode_from_slice::<Dcsr<u64>>(&bytes), Ok(block));
    // One row of three entries: columns 3, 4 and 300 are gaps 3, 0, 295.
    let bytes = dcsr_frame((1, 301), 1, &[0, 2, 3, 0, 295], &[]);
    let block: Dcsr<()> = decode_from_slice(&bytes).expect("a valid pattern block");
    let cols: Vec<Index> = block.to_triples().iter().map(|t| t.col).collect();
    assert_eq!(cols, [3, 4, 300]);
    assert_eq!(encode_to_vec(&block), bytes);
}

/// Decoding `bytes` as a `Dcsr<V>` must fail — with `Truncated` if
/// `truncated`, else `Invalid` — without asking for more memory than a small
/// multiple of the frame's own length (the in-memory arrays are wider than
/// their varints, up to 4 B per frame byte).
fn assert_dcsr_rejected<V: WireDecode>(bytes: &[u8], truncated: bool) {
    let (got, largest) = largest_request_in(|| decode_from_slice::<Dcsr<V>>(bytes).map(drop));
    match got {
        Err(WireError::Truncated { .. }) => assert!(truncated, "{bytes:?}: {got:?}"),
        Err(WireError::Invalid(_)) => assert!(!truncated, "{bytes:?}: {got:?}"),
        Ok(()) => panic!("hostile frame {bytes:?} decoded"),
    }
    assert!(
        largest <= 8 * bytes.len(),
        "asked for {largest} B decoding a {} B frame",
        bytes.len()
    );
}

/// The block headers carry the counts every array length follows from, and a
/// `Dcsr`'s rows carry their own; a corrupt one must be rejected against the
/// bytes remaining, before anything is allocated for it.
#[test]
fn corrupt_block_counts_are_rejected_against_bytes_remaining() {
    fn frame(nrows: u32, ncols: u32, count: u64, body: &[u64]) -> Vec<u8> {
        let mut bytes = encode_to_vec(&(nrows, ncols, count));
        for word in body {
            bytes.extend(encode_to_vec(word));
        }
        bytes
    }
    let truncated = |r: Result<(), WireError>| matches!(r, Err(WireError::Truncated { .. }));
    // A row count the frame cannot hold row pointers for.
    let bytes = frame(u32::MAX, 1, 0, &[0]);
    assert!(truncated(decode_from_slice::<Csr<u64>>(&bytes).map(drop)));
    // An entry count the frame cannot hold columns for.
    let bytes = frame(1, 1, u64::MAX, &[0, u64::MAX]);
    assert!(truncated(decode_from_slice::<Csr<u64>>(&bytes).map(drop)));
    assert!(truncated(decode_from_slice::<Csr<()>>(&bytes).map(drop)));

    let (small, wide) = ((8, 8), (1 << 20, 1 << 20));
    let last_row = u64::from(u32::MAX) - 1;
    let eleven_bytes = [
        0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x81, 0,
    ];
    let hostile = [
        // A stored-row count the frame cannot hold 3 B each for.
        (dcsr_frame(small, u32::MAX, &[0, 0, 0], &[]), true),
        (dcsr_frame(wide, 1 << 20, &[0; 64], &[]), true),
        // One stored row promising 2^63 entries, and one promising 2^64.
        (dcsr_frame(small, 1, &[3, (1 << 63) - 1, 0], &[]), true),
        (dcsr_frame(small, 1, &[3, u64::MAX, 0], &[]), false),
        // Row-id gaps that leave `nrows`, `u32` and `u64`.
        (dcsr_frame(small, 1, &[8, 0, 0], &[0; 16]), false),
        (
            dcsr_frame(small, 2, &[3, 0, 0, 1 << 32, 0, 0], &[0; 32]),
            false,
        ),
        (
            dcsr_frame(small, 2, &[3, 0, 0, u64::MAX, 0, 0], &[0; 32]),
            false,
        ),
        (
            dcsr_frame((u32::MAX, 8), 2, &[last_row, 0, 0, 0, 0, 0], &[0; 32]),
            false,
        ),
        // Column gaps that leave `ncols` and `u64`.
        (dcsr_frame(small, 1, &[0, 1, 7, 0], &[0; 32]), false),
        (dcsr_frame(small, 1, &[0, 1, 0, u64::MAX], &[0; 32]), false),
        // An eleven-byte varint and a padded zero where the row gap goes.
        (dcsr_frame(wide, 1, &[], &eleven_bytes), false),
        (dcsr_frame(wide, 1, &[], &[0x80, 0x00, 0, 0]), false),
        // Frames that end inside a varint: the row gap's, then a column's.
        (dcsr_frame(wide, 1, &[], &[0x80, 0x80, 0x80]), true),
        (dcsr_frame(wide, 1, &[0, 1, 5], &[0xff]), true),
    ];
    for (bytes, truncated) in &hostile {
        assert_dcsr_rejected::<u64>(bytes, *truncated);
        assert_dcsr_rejected::<()>(bytes, *truncated);
        assert_dcsr_rejected::<(u64, u64)>(bytes, *truncated);
    }
}

/// Bytes of `d`'s encoding that are neither header nor values, per entry.
fn index_bytes_per_entry<V: WireEncode + Copy>(d: &Dcsr<V>) -> f64 {
    let values = (std::mem::size_of::<V>() * d.nnz()) as u64;
    (d.wire_bytes() - 12 - values) as f64 / d.nnz() as f64
}

/// The compact form is a volume *budget*, not only a pin: on any block up to
/// 2^28 columns wide it is never longer than the fixed-width form it
/// replaced (16-byte header, 4 + 8 B per stored row and a closing row
/// pointer, 4 B per column), whatever the shape.
#[test]
fn compact_dcsr_is_never_longer_than_fixed_width() {
    fn fixed_width<V: Copy>(d: &Dcsr<V>) -> u64 {
        let entry = 4 + std::mem::size_of::<V>();
        (16 + 12 * d.nrows_stored() + 8 + entry * d.nnz()) as u64
    }
    fn check(d: &Dcsr<u64>) {
        assert!(d.wire_bytes() <= fixed_width(d), "{d:?}");
        let (pattern, pairs) = (d.map(|_| ()), d.map(|v| (v, !v)));
        assert!(pattern.wire_bytes() <= fixed_width(&pattern), "{d:?}");
        assert!(pairs.wire_bytes() <= fixed_width(&pairs), "{d:?}");
    }
    for shape in [(0, 0), (0, 9), (9, 0), (1, 1), (u32::MAX, 1 << 28)] {
        check(&Dcsr::empty(shape.0, shape.1));
    }
    // The widest gaps the bound covers, between rows and between columns.
    let corners =
        [(0, 0), (0, (1 << 28) - 1), (u32::MAX - 1, 0)].map(|(r, c)| Triple::new(r, c, 1));
    check(&Dcsr::from_triples::<U64Plus>(
        u32::MAX,
        1 << 28,
        corners.to_vec(),
    ));
    let mut rng = SplitMix64::new(0xB0D6E7);
    for case in 0..200 {
        let (row_bits, col_bits) = (rng.gen_range(33), rng.gen_range(29));
        let nrows = rng.gen_range(1 << row_bits).max(1) as u32;
        let ncols = 1 + rng.gen_range(1 << col_bits) as u32;
        let n = [0, 1, 2, 17, 300][case % 5];
        check(&Dcsr::from_triples::<U64Plus>(
            nrows,
            ncols,
            random_triples(&mut rng, n, nrows, ncols),
        ));
    }
}

/// The two shapes an Algorithm-1 batch ships, 8 192 wide as a block of the
/// benchmark's grid is: a star-shaped update matrix (one or two entries per
/// stored row) within 5 index bytes per entry where fixed width paid 10–16,
/// and a `C*`-shaped partial (about thirty per row) within 2 where it paid
/// 4.4.
#[test]
fn compact_dcsr_meets_the_shape_budgets() {
    const WIDE: u32 = 8192;
    let mut rng = SplitMix64::new(0x5A4E);
    let star = Dcsr::from_triples::<U64Plus>(WIDE, WIDE, random_triples(&mut rng, 400, WIDE, WIDE));
    let per_row = star.nnz() as f64 / star.nrows_stored() as f64;
    assert!((1.0..1.1).contains(&per_row), "star rows hold {per_row}");
    assert!(index_bytes_per_entry(&star) <= 5.0);
    assert!(index_bytes_per_entry(&star.map(|_| ())) <= 5.0);
    // 256 stored rows of ≈ 30 uniformly placed entries each.
    let mut partial = Vec::new();
    for row in (0..WIDE).step_by(32) {
        partial.extend(
            random_triples(&mut rng, 30, 1, WIDE)
                .iter()
                .map(|t| Triple::new(row, t.col, t.val)),
        );
    }
    let partial = Dcsr::from_triples::<U64Plus>(WIDE, WIDE, partial);
    let per_row = partial.nnz() as f64 / partial.nrows_stored() as f64;
    assert!(
        (29.0..=30.0).contains(&per_row),
        "partial rows hold {per_row}"
    );
    assert!(index_bytes_per_entry(&partial) <= 2.0);
}

/// A `TripleLane` frame spelt by hand: the length, the 10-byte header (a
/// non-empty lane's only), then `packed` and `tail` verbatim.
fn lane_frame(len: u64, bases: (u32, u32), bits: (u8, u8), packed: &[u8], tail: &[u8]) -> Vec<u8> {
    let mut bytes = encode_to_vec(&(len, bases.0, bases.1));
    bytes.extend([bits.0, bits.1]);
    bytes.extend_from_slice(packed);
    bytes.extend_from_slice(tail);
    bytes
}

/// Round-trips `triples` as a lane of `u64`s, of patterns and of value
/// pairs: the sequence comes back as it went, order and duplicates included.
fn assert_lane_roundtrips(triples: &[Triple<u64>]) {
    fn with<V>(triples: &[Triple<u64>], f: impl Fn(u64) -> V) -> TripleLane<V> {
        TripleLane(
            triples
                .iter()
                .map(|t| Triple::new(t.row, t.col, f(t.val)))
                .collect(),
        )
    }
    assert_sized_roundtrip(&with(triples, |v| v));
    assert_sized_roundtrip(&with(triples, |_| ()));
    assert_sized_roundtrip(&with(triples, |v| (v, !v)));
}

#[test]
fn triple_lanes_roundtrip_in_any_order() {
    const MAX: Index = Index::MAX;
    let t = Triple::new;
    let cases: Vec<Vec<Triple<u64>>> = vec![
        vec![],
        vec![t(7, 9, 1)],
        // Zero-width indices: one row, one column, one cell repeated.
        (0..5).map(|c| t(3, 100 * c, c.into())).collect(),
        (0..5).map(|r| t(100 * r, 3, r.into())).collect(),
        vec![t(4, 4, 1); 6],
        // Indices at both ends of `u32`: full 32-bit spans, and bases at
        // the top.
        vec![t(0, MAX, 1), t(MAX, 0, 2), t(MAX, MAX, 3), t(0, 0, 4)],
        vec![t(MAX, MAX, 5); 3],
        vec![t(MAX - 1, MAX, 6), t(MAX, MAX - 1, 7)],
        // Unsorted, with duplicates out of order.
        vec![
            t(5, 1, 1),
            t(2, 8, 2),
            t(5, 1, 3),
            t(0, 3, 4),
            t(5, 1, 5),
            t(2, 8, 6),
        ],
    ];
    for triples in &cases {
        assert_lane_roundtrips(triples);
    }
    let mut rng = SplitMix64::new(0x1A4E);
    for case in 0..100 {
        let (nrows, ncols) = (
            1 + rng.gen_range(1 << 20) as u32,
            1 + rng.gen_range(300) as u32,
        );
        let n = [0, 1, 2, 17, 300][case % 5];
        assert_lane_roundtrips(&random_triples(&mut rng, n, nrows, ncols));
    }
}

#[test]
fn triple_lane_frame_grammar_is_as_documented() {
    // Rows 5, 7, 5 against base 5 take 2 bits, columns 10, 13, 11 against
    // base 10 take 2 bits: pairs 0b00_00, 0b11_10 and 0b01_00, packed LSB
    // first into 0xe0 0x04, then the values in order.
    let lane = TripleLane(vec![
        Triple::new(5, 10, 1u64),
        Triple::new(7, 13, 2),
        Triple::new(5, 11, 3),
    ]);
    let bytes = lane_frame(
        3,
        (5, 10),
        (2, 2),
        &[0xe0, 0x04],
        &encode_to_vec(&[1u64, 2, 3]),
    );
    assert_eq!(encode_to_vec(&lane), bytes);
    assert_eq!(decode_from_slice::<TripleLane<u64>>(&bytes), Ok(lane));
    // An empty lane is its length alone; a one-cell lane has no packed bytes.
    assert_eq!(
        encode_to_vec(&TripleLane::<u64>(vec![])),
        0u64.to_le_bytes()
    );
    let cell = TripleLane(vec![Triple::new(9, 4, ()); 2]);
    assert_eq!(
        encode_to_vec(&cell),
        lane_frame(2, (9, 4), (0, 0), &[], &[])
    );
    // Full-width pairs: 32 row bits, then 32 column bits, a word each.
    let corners = TripleLane(vec![
        Triple::new(0, u32::MAX, ()),
        Triple::new(u32::MAX, 0, ()),
    ]);
    let packed = encode_to_vec(&[u64::from(u32::MAX) << 32, u64::from(u32::MAX)]);
    assert_eq!(
        encode_to_vec(&corners),
        lane_frame(2, (0, 0), (32, 32), &packed, &[])
    );
}

#[test]
fn truncated_lanes_always_error() {
    let mut rng = SplitMix64::new(0x7A12);
    let lane = TripleLane(random_triples(&mut rng, 40, 1000, 70));
    assert_only_exact_frame_decodes::<TripleLane<u64>>(&encode_to_vec(&lane));
    let pattern = TripleLane(vec![Triple::new(3, 3, ()); 5]);
    assert_only_exact_frame_decodes::<TripleLane<()>>(&encode_to_vec(&pattern));
    let chunk = vec![lane.clone(), TripleLane(vec![]), lane];
    assert_only_exact_frame_decodes::<Vec<TripleLane<u64>>>(&encode_to_vec(&chunk));
}

/// A tallied lane is the bare lane's frame with bit 63 of its length word
/// set and the tally after it: 8 bytes more, nothing else moved. Without a
/// tally it is the bare lane's frame byte for byte. A bare lane refuses a
/// tally, and every truncation of a tallied frame errors.
#[test]
fn tallied_lanes_carry_eight_bytes_more() {
    let mut rng = SplitMix64::new(0x7A17);
    for n in [0, 1, 40] {
        let lane = TripleLane(random_triples(&mut rng, n, 1000, 70));
        let bare = encode_to_vec(&lane);
        let untallied = TalliedLane {
            lane: lane.clone(),
            tally: None,
        };
        assert_eq!(encode_to_vec(&untallied), bare, "n={n}");
        assert_sized_roundtrip(&untallied);
        for tally in [0, 7, u64::MAX] {
            let tallied = TalliedLane {
                lane: lane.clone(),
                tally: Some(tally),
            };
            let bytes = encode_to_vec(&tallied);
            let mut want = (n as u64 | 1 << 63).to_le_bytes().to_vec();
            want.extend(tally.to_le_bytes());
            want.extend(&bare[8..]);
            assert_eq!(bytes, want, "n={n}, tally={tally}");
            assert_sized_roundtrip(&tallied);
            assert_only_exact_frame_decodes::<TalliedLane<u64>>(&bytes);
            assert_eq!(
                decode_from_slice::<TripleLane<u64>>(&bytes),
                Err(WireError::Invalid("tally on a bare lane"))
            );
        }
    }
}

/// A lane's count is held against the packed block and the values before
/// anything is reserved for it. Zero-width pairs of zero-byte values take no
/// bytes at all, so only the frame's own length bounds them.
#[test]
fn hostile_lane_count_cannot_drive_an_allocation() {
    for len in [u64::MAX, 1 << 40, 1 << 20, 64] {
        let frames = [
            lane_frame(len, (0, 0), (0, 0), &[], &[]),
            lane_frame(len, (0, 0), (1, 0), &[0; 8], &[]),
            lane_frame(len, (0, 0), (32, 32), &[0; 16], &[]),
        ];
        for bytes in &frames {
            let (got, largest) =
                largest_request_in(|| decode_from_slice::<TripleLane<()>>(bytes).map(drop));
            assert!(got.is_err(), "len {len}: {bytes:?} decoded");
            assert!(
                largest <= 8 * bytes.len(),
                "len {len}: asked for {largest} B"
            );
            let (got, largest) =
                largest_request_in(|| decode_from_slice::<TripleLane<u64>>(bytes).map(drop));
            assert!(got.is_err(), "len {len}: {bytes:?} decoded");
            assert!(
                largest <= 8 * bytes.len(),
                "len {len}: asked for {largest} B"
            );
        }
    }
    // Widths past 32 bits and indices past `u32::MAX` are refused.
    let wide = lane_frame(1, (0, 0), (33, 0), &[0; 5], &[]);
    assert_eq!(
        decode_from_slice::<TripleLane<()>>(&wide),
        Err(WireError::Invalid("lane index width"))
    );
    let past = lane_frame(1, (u32::MAX, 0), (1, 0), &[1], &[]);
    assert_eq!(
        decode_from_slice::<TripleLane<()>>(&past),
        Err(WireError::Invalid("lane index out of range"))
    );
}

/// The packed lane is a volume *budget*: on any lane, in any order, it is at
/// most its 10-byte header longer than the fixed-width `Vec<Triple<V>>` it
/// replaced, since no pair exceeds 64 bits.
#[test]
fn packed_lane_is_never_longer_than_fixed_width_plus_header() {
    fn check<V: WireEncode + Clone>(triples: &[Triple<V>]) {
        let fixed = triples.to_vec().wire_bytes();
        let packed = TripleLane(triples.to_vec()).wire_bytes();
        assert!(packed <= fixed + 10, "{packed} B packed, {fixed} B fixed");
    }
    let mut rng = SplitMix64::new(0xB0D7);
    let index = |rng: &mut SplitMix64, base: u32, bits: u64| {
        (u64::from(base) + rng.gen_range(1 << bits)).min(u64::from(u32::MAX)) as Index
    };
    for case in 0..300 {
        let (row_base, col_base) = (rng.next_u64() as u32, rng.next_u64() as u32);
        let (row_bits, col_bits) = (rng.gen_range(33), rng.gen_range(33));
        let triples: Vec<Triple<u64>> = (0..[0, 1, 2, 17, 300][case % 5])
            .map(|_| {
                let row = index(&mut rng, row_base, row_bits);
                let col = index(&mut rng, col_base, col_bits);
                Triple::new(row, col, rng.next_u64())
            })
            .collect();
        check(&triples);
        check(
            &triples
                .iter()
                .map(|t| Triple::new(t.row, t.col, ()))
                .collect::<Vec<_>>(),
        );
    }
}
