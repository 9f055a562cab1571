//! Differential suite for the sharded multi-core engine.
//!
//! The engine must be an *invisible* parallelization: for every block
//! size, segment geometry and thread count, `Engine::encode` is
//! bit-identical to the serial `Encoder::encode_stream`, and `9CSF` frame
//! bytes are independent of the thread count. Corrupt frames — bad magic,
//! flipped CRC bytes, truncation, arbitrary byte salad — must come back as
//! typed [`DecodeError`]s, never panics.

use ninec::code::CodeTable;
use ninec::encode::Encoder;
use ninec::engine::{frame, Engine, FrameError};
use ninec::session::DecodeSession;
use ninec::{DecodeError, StreamDecoder};
use ninec_testdata::trit::{Trit, TritVec};
use proptest::prelude::*;

/// Block sizes the differential sweep covers (issue spec).
const K_DIFF: [usize; 4] = [4, 8, 16, 32];

/// Thread counts the sweep covers (1 = the serial in-caller fallback).
const THREADS: [usize; 3] = [1, 2, 8];

fn arb_trit() -> impl Strategy<Value = Trit> {
    prop_oneof![
        3 => Just(Trit::X),
        1 => Just(Trit::Zero),
        1 => Just(Trit::One),
    ]
}

fn arb_stream(max_len: usize) -> impl Strategy<Value = TritVec> {
    proptest::collection::vec(arb_trit(), 0..max_len).prop_map(TritVec::from_iter)
}

/// Segment geometries for block size `k`: a single block per segment, a
/// deliberately ragged size (not a multiple of `k`, so the builder's
/// block-alignment and the tail segment both get exercised), and a size
/// so large the whole stream is one segment (4096 blocks).
fn segment_sweeps(k: usize) -> [usize; 3] {
    [k, 3 * k + 1, 4096 * k]
}

/// Block sizes the packed-kernel sweep covers: the smallest, halves
/// that are not a power of two, and halves wider than a 32-trit word.
const K_KERNEL: [usize; 8] = [4, 6, 8, 10, 16, 32, 64, 130];

/// Codeword lengths the packed-kernel sweep covers: the paper's code, a
/// permutation of it, a Kraft sum below 1 (some prefixes match nothing)
/// and two 16-trit codewords (far past the kernel's lookup width).
const TABLES: [[u8; 9]; 4] = [
    [1, 2, 5, 5, 5, 5, 5, 5, 4],
    [5, 2, 5, 5, 1, 5, 5, 4, 5],
    [2, 3, 4, 5, 6, 7, 8, 9, 9],
    [1, 2, 3, 4, 5, 6, 7, 16, 16],
];

/// The reference frame decode the packed kernel must reproduce: strict
/// parse, then `unpack_payload` + `StreamDecoder` per data segment in
/// stream order, the first error winning.
fn oracle_decode(bytes: &[u8]) -> Result<TritVec, DecodeError> {
    let parsed = frame::parse(bytes)?;
    let table = CodeTable::from_lengths(&parsed.table_lengths)
        .map_err(|_| DecodeError::Frame(FrameError::BadTable))?;
    let mut out = TritVec::new();
    for (i, seg) in parsed.segments.iter().enumerate() {
        let payload = frame::unpack_payload(seg, i)?;
        StreamDecoder::new(
            payload.as_slice().iter(),
            seg.k,
            table.clone(),
            seg.source_trits,
        )?
        .run_into(&mut out)?;
    }
    Ok(out)
}

/// A one-segment v2 frame around verbatim packed payload bytes — a
/// CRC-valid segment from a buggy or hostile writer.
fn forged_frame(
    lengths: [u8; 9],
    k: usize,
    source_trits: usize,
    payload_trits: usize,
    payload: &[u8],
) -> Vec<u8> {
    let mut out = Vec::new();
    frame::write_header(&mut out, lengths, 1, source_trits as u64);
    frame::write_segment_packed(&mut out, k, source_trits, payload_trits, payload).unwrap();
    out
}

/// Packs trit codes (`0..4`, `3` being the reserved `11`) LSB-first.
fn pack_codes(codes: &[u8]) -> Vec<u8> {
    let mut bytes = vec![0u8; codes.len().div_ceil(4)];
    for (i, &c) in codes.iter().enumerate() {
        bytes[i / 4] |= (c & 3) << (2 * (i % 4));
    }
    bytes
}

fn engine(threads: usize, segment_bits: usize) -> Engine {
    Engine::builder()
        .threads(threads)
        .segment_bits(segment_bits)
        .build()
}

proptest! {
    /// `Engine::encode` is bit-identical to the serial encoder — stream,
    /// stats, everything — for every (K, segment, threads) combination.
    #[test]
    fn parallel_encode_equals_serial(stream in arb_stream(700)) {
        for k in K_DIFF {
            let serial = Encoder::new(k).unwrap().encode_stream(&stream);
            for seg in segment_sweeps(k) {
                for threads in THREADS {
                    prop_assert_eq!(
                        &engine(threads, seg).encode(k, &stream).unwrap(),
                        &serial,
                        "K={} seg={} threads={}", k, seg, threads
                    );
                }
            }
        }
    }

    /// `9CSF` frame bytes are a pure function of (stream, K, segmenting):
    /// the thread count never shows through, and frames roundtrip through
    /// the session decoder preserving every care bit.
    #[test]
    fn frame_bytes_independent_of_threads(stream in arb_stream(500)) {
        for k in K_DIFF {
            for seg in segment_sweeps(k) {
                let reference = engine(1, seg).encode_frame(k, &stream).unwrap();
                for threads in THREADS {
                    prop_assert_eq!(
                        &engine(threads, seg).encode_frame(k, &stream).unwrap(),
                        &reference,
                        "K={} seg={} threads={}", k, seg, threads
                    );
                }
                for threads in THREADS {
                    let back = DecodeSession::new()
                        .threads(threads)
                        .decode_frame(&reference, ninec::Policy::Strict)
                        .unwrap()
                        .trits;
                    prop_assert_eq!(back.len(), stream.len());
                    for i in 0..stream.len() {
                        let s = stream.get(i).unwrap();
                        if s.is_care() {
                            prop_assert_eq!(Some(s), back.get(i), "care bit {}", i);
                        }
                    }
                }
            }
        }
    }

    /// Arbitrary byte salad fed to the frame decoder is a typed error (or,
    /// vanishingly rarely, a valid frame) — never a panic.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        for threads in [1usize, 4] {
            let _ = engine(threads, 4096).decode_frame(&bytes);
        }
    }

    /// Single byte corruption of a valid frame: either caught as a typed
    /// error or still decodes to the promised length (flips confined to
    /// payload bits that survive the CRC are impossible — the CRC covers
    /// the payload — so any accepted decode is the untouched frame).
    #[test]
    fn corrupting_one_byte_never_panics(stream in arb_stream(300), pos in 0usize..1024, xor in 1u8..=255) {
        let bytes = engine(2, 64).encode_frame(8, &stream).unwrap();
        prop_assume!(!bytes.is_empty());
        let mut corrupt = bytes.clone();
        let i = pos % corrupt.len();
        corrupt[i] ^= xor;
        match engine(4, 64).decode_frame(&corrupt) {
            Ok(out) => prop_assert_eq!(out.len(), stream.len()),
            Err(e) => prop_assert!(!e.to_string().is_empty()),
        }
    }

    /// Every strict prefix of a valid frame is rejected with a typed
    /// error — truncation can never fabricate output.
    #[test]
    fn truncated_frames_are_typed_errors(stream in arb_stream(200)) {
        prop_assume!(!stream.is_empty());
        let bytes = engine(1, 48).encode_frame(8, &stream).unwrap();
        for cut in 0..bytes.len() {
            let err = engine(2, 48).decode_frame(&bytes[..cut]).unwrap_err();
            prop_assert!(
                matches!(
                    err,
                    DecodeError::TruncatedStream { .. } | DecodeError::Frame(_)
                ),
                "cut at {}: unexpected error {:?}", cut, err
            );
        }
    }
}

proptest! {
    /// The packed kernel behind `Engine::decode_frame` equals the
    /// reference `unpack_payload` + `StreamDecoder` decode on clean frames
    /// for every K, code table (16-trit codewords and Kraft sums below 1
    /// included), ragged final block, parity setting and thread count.
    #[test]
    fn packed_kernel_equals_reference_on_clean_frames(stream in arb_stream(400)) {
        for k in K_KERNEL {
            for lengths in TABLES {
                let table = CodeTable::from_lengths(&lengths).unwrap();
                for parity in [None, Some((4u8, 1u8))] {
                    let build = |threads| {
                        let b = Engine::builder()
                            .threads(threads)
                            .segment_bits(3 * k + 1)
                            .table(table.clone());
                        match parity {
                            Some((g, r)) => b.parity(g, r),
                            None => b,
                        }
                        .build()
                    };
                    let bytes = build(1).encode_frame(k, &stream).unwrap();
                    let want = oracle_decode(&bytes).unwrap();
                    prop_assert_eq!(want.len(), stream.len());
                    for threads in THREADS {
                        prop_assert_eq!(
                            &build(threads).decode_frame(&bytes).unwrap(),
                            &want,
                            "K={} table={:?} parity={:?} threads={}", k, lengths, parity, threads
                        );
                    }
                }
            }
        }
    }

    /// CRC-valid segments carrying arbitrary 2-bit codes — reserved `11`s,
    /// X inside codewords, truncated mismatch payloads, too few blocks,
    /// header lengths that disagree with what the stream needs — come
    /// back with exactly the reference decoder's result: the same output,
    /// or the same typed error (variant, offset and precedence).
    #[test]
    fn packed_kernel_errors_equal_reference_on_forged_segments(
        codes in proptest::collection::vec(prop_oneof![
            6 => Just(0u8), 6 => Just(1u8), 3 => Just(2u8), 1 => Just(3u8)
        ], 0..90),
        k_idx in 0usize..5,
        table_idx in 0usize..4,
        source in 0usize..200,
    ) {
        let k = [4usize, 6, 8, 10, 16][k_idx];
        let lengths = TABLES[table_idx];
        let source = source.min(codes.len() * k);
        let bytes = forged_frame(lengths, k, source, codes.len(), &pack_codes(&codes));
        for threads in [1usize, 2] {
            prop_assert_eq!(
                engine(threads, 4096).decode_frame(&bytes),
                oracle_decode(&bytes),
                "codes={:?} k={} source={}", codes, k, source
            );
        }
    }

    /// `PackedSink` writes exactly `pack_payload(encode_stream(..))`.
    #[test]
    fn packed_sink_equals_pack_payload(stream in arb_stream(600), table_idx in 0usize..4) {
        let table = CodeTable::from_lengths(&TABLES[table_idx]).unwrap();
        for k in K_KERNEL {
            let enc = Encoder::with_table(k, table.clone()).unwrap();
            let mut sink = frame::PackedSink::default();
            let mut se = enc.stream_encoder(&mut sink);
            se.feed(stream.as_slice());
            se.finish();
            let oracle = enc.encode_stream(&stream);
            prop_assert_eq!(sink.len(), oracle.stream().len());
            let (bytes, trits) = sink.finish();
            prop_assert_eq!(trits, oracle.stream().len());
            prop_assert_eq!(bytes, frame::pack_payload(oracle.stream()), "K={}", k);
        }
    }
}

/// Hand-forged CRC-valid segments hitting each reference error once, at
/// K=4 with the paper's code (C1 = `0`, C9 = `1100`), with the
/// precedence the reference path defines: a reserved `11` anywhere in
/// the payload is `Malformed` before any 9C error.
#[test]
fn forged_segment_errors_keep_the_reference_precedence() {
    let malformed = Err(DecodeError::Frame(FrameError::Malformed {
        segment: 0,
        what: "invalid trit code 11 in payload",
    }));
    let cases: [(&[u8], usize, Result<TritVec, DecodeError>); 7] = [
        // C1 twice: eight zeros.
        (&[0, 0], 8, Ok("00000000".parse().unwrap())),
        // A reserved code in trailing trits the decode never reaches.
        (&[0, 0, 3], 8, malformed.clone()),
        // X inside the first codeword, then a reserved code.
        (&[1, 2, 0, 3], 4, malformed),
        // X inside the second codeword.
        (
            &[0, 1, 2, 0],
            8,
            Err(DecodeError::XInCodeword { offset: 2 }),
        ),
        // C9's second mismatch half starts at trit 6 and has one trit.
        (
            &[1, 1, 0, 0, 0, 1, 2],
            4,
            Err(DecodeError::TruncatedPayload { offset: 6 }),
        ),
        // One C9 block where two were promised.
        (
            &[1, 1, 0, 0, 0, 1, 0, 1],
            8,
            Err(DecodeError::TooShort {
                produced: 4,
                required: 8,
            }),
        ),
        // The stream ends inside the second codeword.
        (&[0, 1, 1], 8, Err(DecodeError::BadCodeword { offset: 1 })),
    ];
    for (codes, source, want) in cases {
        let bytes = forged_frame(TABLES[0], 4, source, codes.len(), &pack_codes(codes));
        assert_eq!(oracle_decode(&bytes), want, "{codes:?}");
        for threads in THREADS {
            assert_eq!(engine(threads, 64).decode_frame(&bytes), want, "{codes:?}");
        }
    }
    // A Kraft sum below 1 leaves prefixes no codeword starts with.
    let sparse = forged_frame(TABLES[2], 4, 4, 9, &pack_codes(&[1; 9]));
    let want = Err(DecodeError::BadCodeword { offset: 0 });
    assert_eq!(oracle_decode(&sparse), want);
    assert_eq!(engine(1, 64).decode_frame(&sparse), want);
}

#[test]
fn bad_magic_bad_crc_and_truncation_are_distinct_typed_errors() {
    let stream: TritVec = "0X0X01X001X0101X111111110000X1111X0110XX"
        .repeat(12)
        .parse()
        .unwrap();
    let eng = engine(4, 160);
    let bytes = eng.encode_frame(8, &stream).unwrap();
    assert!(frame::is_frame(&bytes));

    let mut bad_magic = bytes.clone();
    bad_magic[0] = b'?';
    assert!(matches!(
        eng.decode_frame(&bad_magic),
        Err(DecodeError::Frame(FrameError::BadMagic))
    ));

    let mut bad_version = bytes.clone();
    bad_version[4] = 0x7f;
    assert!(matches!(
        eng.decode_frame(&bad_version),
        Err(DecodeError::Frame(FrameError::UnsupportedVersion {
            found: 0x7f
        }))
    ));

    let mut bad_crc = bytes.clone();
    let last = bad_crc.len() - 1;
    bad_crc[last] ^= 0x80;
    assert!(matches!(
        eng.decode_frame(&bad_crc),
        Err(DecodeError::Frame(FrameError::BadCrc { .. }))
    ));

    assert!(matches!(
        eng.decode_frame(&bytes[..bytes.len() - 1]),
        Err(DecodeError::TruncatedStream { .. })
    ));
}

/// The geometry floor of the issue spec: exactly one block per segment at
/// every K still agrees with the serial encoder, on a stream whose tail is
/// ragged (length not a multiple of any K in the sweep).
#[test]
fn one_block_segments_with_ragged_tail() {
    let stream: TritVec = "01X".repeat(211).parse().unwrap(); // 633 trits
    for k in K_DIFF {
        assert!(
            !stream.len().is_multiple_of(k),
            "tail must be ragged at K={k}"
        );
        let serial = Encoder::new(k).unwrap().encode_stream(&stream);
        for threads in THREADS {
            assert_eq!(
                engine(threads, k).encode(k, &stream).unwrap(),
                serial,
                "K={k} threads={threads}"
            );
        }
    }
}
