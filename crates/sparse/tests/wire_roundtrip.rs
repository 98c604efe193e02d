//! Wire-codec property tests over the payload types the transport actually
//! carries: seeded-random round-trips (encode → decode must reproduce the
//! value and consume every byte), degenerate matrix blocks, and corruption
//! rejection. Deterministic via the in-repo `SplitMix64` — no external
//! property-testing machinery.

use dspgemm_sparse::semiring::U64Plus;
use dspgemm_sparse::{Csr, Dcsr, Index, Triple};
use dspgemm_util::rng::{Rng, SplitMix64};
use dspgemm_util::{decode_from_slice, encode_to_vec, WireDecode, WireEncode, WireError, WireSize};
use std::sync::Arc;

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

/// `wire_bytes()` of one fixed sample per wire type, as metered at d989652
/// (the last commit with hand-written size formulas). The meter is what the
/// gated `wire_bytes_per_batch` reads; deriving it from the encoder must not
/// move any of these.
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
    assert_eq!(dcsr.wire_bytes(), 72);
    assert_eq!(dcsr.map(|_| ()).wire_bytes(), 56);
    assert_eq!(dcsr.map(|v| (v, v)).wire_bytes(), 88);
    assert_eq!(Csr::<u64>::empty(0, 0).wire_bytes(), 24);
    assert_eq!(Dcsr::<u64>::empty(9, 0).wire_bytes(), 24);
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
}

/// The block headers carry the counts every array length follows from; a
/// corrupt one must be rejected against the bytes remaining, before anything
/// is allocated for it.
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
    // A stored-row count the frame cannot hold row ids for.
    let bytes = frame(8, 8, u64::MAX, &[0]);
    assert!(truncated(decode_from_slice::<Dcsr<u64>>(&bytes).map(drop)));
    // One stored row (id 3) whose last row pointer promises 2^63 entries.
    let mut bytes = frame(8, 8, 1, &[]);
    bytes.extend(encode_to_vec(&(3u32, 0u64, 1u64 << 63)));
    assert!(truncated(decode_from_slice::<Dcsr<u64>>(&bytes).map(drop)));
    assert!(truncated(decode_from_slice::<Dcsr<()>>(&bytes).map(drop)));
}
