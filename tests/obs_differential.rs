//! Differential test between the two stats pipelines: the local
//! [`EncodeStats`] tally returned with every [`Encoded`] and the global
//! `ninec.encode.case.C*` counters that [`StreamEncoder::finish`] flushes
//! into the [`ninec_obs`] registry.
//!
//! Both are fed by the same classification loop, but through different
//! plumbing (struct fields vs batched atomic adds), so this is the place
//! a divergence would show up. The test measures registry *deltas* around
//! each encode, which makes it independent of whatever other activity
//! already populated the process-global registry.
//!
//! The decode side gets the same treatment: the packed segment kernel
//! behind `Engine::decode_frame` must publish exactly the
//! `ninec.decode.*` deltas the reference `StreamDecoder` publishes when it
//! is dropped, and tick the per-segment latency histogram once per
//! decoded segment.
//!
//! The registry is process global, so every test in this binary holds
//! [`REGISTRY`] while it measures: a concurrently-running encode or
//! decode would perturb the deltas.
//!
//! [`EncodeStats`]: ninec::encode::EncodeStats
//! [`Encoded`]: ninec::encode::Encoded
//! [`StreamEncoder::finish`]: ninec::encode::StreamEncoder::finish

use ninec::code::CodeTable;
use ninec::encode::Encoder;
use ninec::engine::{frame, Engine};
use ninec::{metrics, StreamDecoder};
use ninec_testdata::trit::{Trit, TritVec};
use proptest::prelude::*;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Serialises the tests of this binary around the global registry.
static REGISTRY: Mutex<()> = Mutex::new(());

fn registry_lock() -> MutexGuard<'static, ()> {
    REGISTRY.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The four `ninec.decode.*` counters.
fn decode_counts() -> [u64; 4] {
    [
        metrics::DECODE_RUNS,
        metrics::DECODE_BLOCKS,
        metrics::DECODE_BITS_IN,
        metrics::DECODE_SYMBOLS_OUT,
    ]
    .map(|name| ninec_obs::counter(name).get())
}

/// Samples recorded in the per-segment decode latency histogram.
fn segment_decode_samples() -> u64 {
    ninec_obs::snapshot()
        .histogram(metrics::ENGINE_SEG_DECODE_NS)
        .map_or(0, |h| h.count)
}

fn delta(before: [u64; 4], after: [u64; 4]) -> [u64; 4] {
    std::array::from_fn(|i| after[i] - before[i])
}

/// Decodes every data segment of `bytes` with the reference path
/// (`unpack_payload` + `StreamDecoder`), stopping at the first error.
fn reference_decode(bytes: &[u8]) {
    let parsed = frame::parse(bytes).unwrap();
    let table = CodeTable::from_lengths(&parsed.table_lengths).unwrap();
    for (i, seg) in parsed.segments.iter().enumerate() {
        let payload = frame::unpack_payload(seg, i).unwrap();
        let mut out = TritVec::new();
        let dec = StreamDecoder::new(
            payload.as_slice().iter(),
            seg.k,
            table.clone(),
            seg.source_trits,
        )
        .unwrap();
        if dec.run_into(&mut out).is_err() {
            return;
        }
    }
}

/// Asserts that `Engine::decode_frame` of `bytes` publishes the reference
/// decode's counter deltas and `ticks` latency samples. The caller holds
/// [`REGISTRY`].
fn assert_decode_counters_match(bytes: &[u8], threads: usize, ticks: u64) {
    let before = decode_counts();
    reference_decode(bytes);
    let mid = decode_counts();
    let samples = segment_decode_samples();
    let _ = Engine::builder()
        .threads(threads)
        .build()
        .decode_frame(bytes);
    let after = decode_counts();
    let ticked = segment_decode_samples() - samples;
    if ninec_obs::is_compiled() {
        assert_eq!(delta(mid, after), delta(before, mid), "threads {threads}");
        assert_eq!(ticked, ticks, "threads {threads}");
    } else {
        assert_eq!(after, [0; 4]);
        assert_eq!(ticked, 0);
    }
}

/// Reads the nine case counters plus the block counter from the global
/// registry.
fn registry_counts() -> ([u64; 9], u64) {
    let mut cases = [0u64; 9];
    for (i, slot) in cases.iter_mut().enumerate() {
        *slot = ninec_obs::counter(&metrics::case_counter_name(i)).get();
    }
    (cases, ninec_obs::counter(metrics::ENCODE_BLOCKS).get())
}

fn to_stream(raw: &[u8]) -> TritVec {
    raw.iter()
        .map(|b| match b % 3 {
            0 => Trit::Zero,
            1 => Trit::One,
            _ => Trit::X,
        })
        .collect()
}

proptest! {
    #[test]
    fn registry_case_counters_match_encode_stats(
        raw in proptest::collection::vec(0u8..3, 1..600),
        k_idx in 0usize..4,
        bias in 0u8..3,
    ) {
        let k = [4usize, 8, 16, 32][k_idx];
        // Bias some inputs towards runs of a single symbol so the
        // non-mismatch cases C1–C4 actually fire.
        let stream = match bias {
            0 => to_stream(&raw),
            1 => to_stream(&vec![raw[0]; raw.len()]),
            _ => {
                let mut v = raw.clone();
                for c in v.chunks_mut(k) {
                    let lead = c[0];
                    for s in c.iter_mut() {
                        *s = lead;
                    }
                }
                to_stream(&v)
            }
        };
        let encoder = Encoder::new(k).unwrap();

        let _guard = registry_lock();
        let (cases_before, blocks_before) = registry_counts();
        let encoded = encoder.encode_stream(&stream);
        let (cases_after, blocks_after) = registry_counts();
        let stats = encoded.stats();

        if ninec_obs::is_compiled() {
            for i in 0..9 {
                prop_assert_eq!(
                    cases_after[i] - cases_before[i],
                    stats.case_counts[i],
                    "case C{} delta diverged from EncodeStats (k={})",
                    i + 1,
                    k
                );
            }
            prop_assert_eq!(blocks_after - blocks_before, stats.blocks);
            // The per-case counters and the block counter are two
            // independent accumulations of the same loop.
            let total: u64 = stats.case_counts.iter().sum();
            prop_assert_eq!(total, stats.blocks);
        } else {
            // Compiled out: the registry stays silent, the local tally
            // still works.
            prop_assert_eq!(cases_after, [0u64; 9]);
            prop_assert_eq!(blocks_after, 0);
            prop_assert!(stats.blocks > 0);
        }
    }

    /// Clean frames: every segment decodes, so the kernel publishes one
    /// run per non-empty segment and one latency sample per segment.
    #[test]
    fn decode_counters_match_the_reference_decoder(
        raw in proptest::collection::vec(0u8..3, 0..600),
        k_idx in 0usize..4,
        segment_bits in 1usize..300,
        threads in 1usize..3,
    ) {
        let k = [4usize, 8, 16, 130][k_idx];
        let _guard = registry_lock();
        let bytes = Engine::builder()
            .threads(1)
            .segment_bits(segment_bits)
            .parity(4, 1)
            .build()
            .encode_frame(k, &to_stream(&raw))
            .unwrap();
        let segments = frame::parse(&bytes).unwrap().segments.len() as u64;
        assert_decode_counters_match(&bytes, threads, segments);
    }
}

/// A CRC-valid segment that fails after one decoded block: the failing
/// segment publishes the reference decoder's partial tally (the kernel
/// hands failures to the reference path) and records no latency sample.
#[test]
fn failing_segment_publishes_the_reference_partial_counters() {
    let _guard = registry_lock();
    // K=4, paper code: C9 ("1100") + one payload half, then an X inside
    // the second block's codeword.
    let mut bytes = Vec::new();
    frame::write_header(&mut bytes, CodeTable::paper().lengths(), 1, 8);
    frame::write_segment_packed(
        &mut bytes,
        4,
        8,
        10,
        &[0b0000_0101, 0b0100_0100, 0b0000_0010],
    )
    .unwrap();
    assert!(Engine::builder()
        .threads(1)
        .build()
        .decode_frame(&bytes)
        .is_err());
    for threads in [1, 2] {
        assert_decode_counters_match(&bytes, threads, 0);
    }
}
