//! Word-level text codec for trit streams.
//!
//! Cube files, `.te` data lines and the serve bodies spell a trit stream
//! as one ASCII byte per symbol: `0`, `1`, `X` (the parser also accepts
//! `x` and `-` for `X`). This module converts between that text and the
//! packed care/value planes 64 symbols at a time:
//!
//! - the writer reads one care word and one value word per 64 trits and
//!   maps each `(care, value)` bit pair through the 4-entry glyph table
//!   `X 0 X 1`, applied eight trits per step as byte-lane arithmetic
//!   (`'X' - 0x28·care + value`, each plane byte spread to eight lanes by
//!   a 256-entry table), into a pre-sized buffer;
//! - the parser classifies eight bytes per step with SWAR byte
//!   compares, packs the care and value bits of 64 bytes into two words
//!   and appends each word to its plane with one word operation.
//!
//! A short last word is padded with `X`, so both directions have one
//! code path. Every text conversion in the crate goes through here:
//! [`TritVec`](crate::trit::TritVec)'s and [`TritSlice`]'s `Display` and
//! `FromStr`, [`crate::io`]'s cube-file reader and writers, and
//! [`TestSet`](crate::cube::TestSet)'s `Display`. The per-symbol versions
//! they replaced live on in `tests/text_oracle.rs` as differential
//! oracles.

use crate::bits::BitVec;
use crate::slice::TritSlice;
use crate::trit::{ParseTritError, Trit};

/// `SPREAD[b]` has byte lane `k` set to bit `k` of `b`.
const SPREAD: [u64; 256] = {
    let mut table = [0u64; 256];
    let mut b = 0;
    while b < 256 {
        let mut k = 0;
        while k < 8 {
            table[b] |= ((b as u64) >> k & 1) << (8 * k);
            k += 1;
        }
        b += 1;
    }
    table
};

/// Symbols rendered per stack-buffer chunk by [`write_chunks`].
const CHUNK: usize = 4096;

/// Every byte lane set to `b`.
const fn lanes(b: u8) -> u64 {
    b as u64 * 0x0101_0101_0101_0101
}

/// Glyphs of eight trits from one care byte and one value byte: lane by
/// lane `X`, `0` or `1`, as `'X' - 0x28 * care + value` (no lane carries
/// or borrows). Value bits outside the care bits are dropped, so an `X`
/// always reads `X`, as [`TritSlice::get`] has it.
fn glyphs8(care: u8, value: u8) -> [u8; 8] {
    (lanes(b'X') - SPREAD[care as usize] * u64::from(b'X' - b'0') + SPREAD[(value & care) as usize])
        .to_le_bytes()
}

/// The high bit of every byte lane of `x` that equals `b`.
fn eq_lanes(x: u64, b: u8) -> u64 {
    let t = x ^ lanes(b);
    // A lane is non-zero iff adding 0x7F to its low seven bits carries
    // into bit 7, or bit 7 is already set; no lane carries into the next.
    !(((t & lanes(0x7F)) + lanes(0x7F)) | t) & lanes(0x80)
}

/// Packs the high bits of the eight byte lanes into the low eight bits,
/// lane 0 first.
fn pack_lanes(high: u64) -> u64 {
    (high >> 7).wrapping_mul(0x0102_0408_1020_4080) >> 56
}

/// Care bits, value bits and validity of eight text bytes (lane 0 =
/// first byte).
fn classify8(x: u64) -> (u64, u64, bool) {
    // `0`/`1` differ only in bit 0; `X`/`x` only in bit 5.
    let care = eq_lanes(x & lanes(0xFE), b'0');
    let one = eq_lanes(x, b'1');
    let x_spelled = eq_lanes(x | lanes(0x20), b'x') | eq_lanes(x, b'-');
    (
        pack_lanes(care),
        pack_lanes(one),
        care | x_spelled == lanes(0x80),
    )
}

/// Writes the text of `trits` into `out`, one byte per symbol.
fn encode_into(trits: TritSlice<'_>, out: &mut [u8]) {
    debug_assert_eq!(out.len(), trits.len(), "one text byte per trit");
    let mut spill = [0u8; 64];
    for (w, bytes) in out.chunks_mut(64).enumerate() {
        let n = bytes.len();
        // Past the view the planes read as X: a short last word renders
        // into `spill`, and only its first `n` glyphs are kept.
        let care = trits.care_word(w * 64, n).to_le_bytes();
        let value = trits.value_word(w * 64, n).to_le_bytes();
        let word: &mut [u8; 64] = match (&mut *bytes).try_into() {
            Ok(full) => full,
            Err(_) => &mut spill,
        };
        for (g, lane) in word.chunks_exact_mut(8).enumerate() {
            lane.copy_from_slice(&glyphs8(care[g], value[g]));
        }
        if n < 64 {
            bytes.copy_from_slice(&spill[..n]);
        }
    }
}

/// Appends the text of `trits` to `out` (one allocation at most: the
/// buffer grows once to fit).
pub fn push_text(out: &mut Vec<u8>, trits: TritSlice<'_>) {
    let start = out.len();
    out.resize(start + trits.len(), 0);
    encode_into(trits, &mut out[start..]);
}

/// Renders `trits` through a stack buffer, handing `sink` one chunk of
/// at most 4096 symbols at a time; stops at the first error `sink`
/// returns.
///
/// # Errors
///
/// Returns the first error `sink` returns.
pub(crate) fn write_chunks<E>(
    trits: TritSlice<'_>,
    mut sink: impl FnMut(&str) -> Result<(), E>,
) -> Result<(), E> {
    let mut buf = [0u8; CHUNK];
    let mut from = 0;
    while from < trits.len() {
        let to = (from + CHUNK).min(trits.len());
        let bytes = &mut buf[..to - from];
        encode_into(trits.subslice(from, to), bytes);
        sink(std::str::from_utf8(bytes).expect("glyphs are ASCII"))?;
        from = to;
    }
    Ok(())
}

/// Appends the trits spelled by `s` to the `care`/`value` planes, one
/// word operation per plane per 64 bytes. On error the planes may hold a
/// partial prefix of `s`; the caller rolls them back or discards them.
///
/// # Errors
///
/// Returns [`ParseTritError`] naming the first character of `s` that is
/// not `0`, `1`, `X`, `x` or `-` (a multi-byte character is reported
/// whole).
pub(crate) fn parse_into(
    care: &mut BitVec,
    value: &mut BitVec,
    s: &str,
) -> Result<(), ParseTritError> {
    let bytes = s.as_bytes();
    care.reserve(bytes.len());
    value.reserve(bytes.len());
    let mut words = bytes.chunks_exact(64);
    for (w, word) in words.by_ref().enumerate() {
        append_word(care, value, s, w * 64, word, 64)?;
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        // A short last word is padded with X, whose bits are not kept.
        let mut padded = [b'X'; 64];
        padded[..tail.len()].copy_from_slice(tail);
        append_word(
            care,
            value,
            s,
            bytes.len() - tail.len(),
            &padded,
            tail.len(),
        )?;
    }
    Ok(())
}

/// Classifies the 64 bytes of `word` (text of `s` from byte `at`) and
/// appends the care and value bits of the first `n` to the planes.
// Forced inline: with two call sites the compiler outlined it, and the
// full-word loop lost its constant `n` (parse ≈ 20% slower on 16 Mtrit).
#[inline(always)]
fn append_word(
    care: &mut BitVec,
    value: &mut BitVec,
    s: &str,
    at: usize,
    word: &[u8],
    n: usize,
) -> Result<(), ParseTritError> {
    let (mut c, mut v, mut valid) = (0u64, 0u64, true);
    for (g, lane) in word.chunks_exact(8).enumerate() {
        let mut eight = [0u8; 8];
        eight.copy_from_slice(lane);
        let (lc, lv, ok) = classify8(u64::from_le_bytes(eight));
        c |= lc << (8 * g);
        v |= lv << (8 * g);
        valid &= ok;
    }
    if !valid {
        return Err(first_bad(&s[at..]));
    }
    care.push_bits_lsb(c, n);
    value.push_bits_lsb(v, n);
    Ok(())
}

/// The error for the first character of `rest` that spells no trit.
/// `rest` starts where a word with an invalid byte starts; every byte
/// before it was an ASCII trit, so it starts on a character and a
/// multi-byte offender is named whole.
#[cold]
fn first_bad(rest: &str) -> ParseTritError {
    rest.chars()
        .find_map(|ch| Trit::try_from(ch).err())
        .expect("an invalid byte spells no trit")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trit::TritVec;

    #[test]
    fn lane_classes_match_the_trit_spellings() {
        for b in 0..=255u8 {
            let want = if b.is_ascii() {
                Trit::try_from(b as char).ok()
            } else {
                None
            };
            // Every lane, whatever the neighbouring lanes hold.
            for lane in 0..8 {
                for fill in [b'0', b'1', b'X', 0xFF, 0x00] {
                    let mut eight = [fill; 8];
                    eight[lane] = b;
                    let (c, v, valid) = classify8(u64::from_le_bytes(eight));
                    let fill_ok = matches!(fill, b'0' | b'1' | b'X');
                    assert_eq!(
                        valid,
                        want.is_some() && fill_ok,
                        "byte {b:#04x} lane {lane}"
                    );
                    if let (true, Some(t)) = (valid, want) {
                        assert_eq!(c >> lane & 1 == 1, t.is_care(), "byte {b:#04x}");
                        assert_eq!(v >> lane & 1 == 1, t == Trit::One, "byte {b:#04x}");
                    }
                }
            }
        }
    }

    #[test]
    fn lane_packing_is_exact() {
        for bits in 0..=255u64 {
            let high = (0..8).fold(0u64, |acc, k| acc | (bits >> k & 1) << (8 * k + 7));
            assert_eq!(pack_lanes(high), bits);
        }
    }

    #[test]
    fn glyph_lanes_match_the_glyph_table() {
        // Indexed by `care | value << 1`; a value bit without its care
        // bit reads as X.
        const GLYPH: [u8; 4] = [b'X', b'0', b'X', b'1'];
        for care in 0..=255u8 {
            for value in 0..=255u8 {
                for (k, &g) in glyphs8(care, value).iter().enumerate() {
                    let idx = (care >> k & 1) | (value >> k & 1) << 1;
                    assert_eq!(
                        g, GLYPH[idx as usize],
                        "care {care:#04x} value {value:#04x}"
                    );
                }
            }
        }
    }

    #[test]
    fn chunked_writer_crosses_buffer_boundaries() {
        let text: String = "01X".repeat(CHUNK); // three buffers' worth
        let tv: TritVec = text.parse().unwrap();
        let mut back = String::new();
        write_chunks(tv.slice_view(1, tv.len()), |s| {
            back.push_str(s);
            Ok::<(), ()>(())
        })
        .unwrap();
        assert_eq!(back, text[1..]);
    }

    #[test]
    fn error_names_the_whole_multibyte_char() {
        let s = format!("{}é1", "0".repeat(70));
        let err = s.parse::<TritVec>().unwrap_err();
        assert_eq!(err.found, 'é');
    }
}
