//! The packed-domain 9C segment kernel.
//!
//! Decodes one `9CSF` data segment straight from its 2-bit wire bytes
//! (`00` = 0, `01` = 1, `10` = X, trit `i` at bits `2(i % 4)` of byte
//! `i / 4`) into the care/value planes of the output — no intermediate
//! payload [`TritVec`], no per-trit closure calls.
//!
//! - **Codeword lookup.** A [`Lookup`] built once per code (and cached)
//!   maps the next `W = min(max_len, 6)` payload trits — `2W` packed bits
//!   — to `(left spec, right spec, len)`, to "an X or no codeword", or to
//!   "longer than `W`". The paper's Kraft-complete code has `max_len = 5`,
//!   so its 1024-entry table always fixes the codeword in one lookup.
//! - **Longer codewords** (custom tables go up to 16 trits) continue
//!   from the lookup's `W` bits with a canonical per-length walk: the
//!   codes of one length are consecutive, so each extra trit is one range
//!   test.
//! - **Halves.** Uniform halves are word fills; mismatch halves are read
//!   32 trits per `u64` and split into the care and value planes with an
//!   even/odd bit unzip. Both planes fill through a 64-bit accumulator.
//!
//! The kernel only ever answers "decoded" or "the reference decoder
//! would fail here". Errors are reported by re-running the reference path
//! ([`frame::unpack_payload`] + [`StreamDecoder`](crate::decode::StreamDecoder))
//! on the failed segment, so every typed error keeps the oracle's exact
//! variant, offset and precedence — a reserved `11` code anywhere in the
//! payload is still [`FrameError::Malformed`](super::FrameError) before any 9C
//! error — and the decode counters of a failed segment are the ones the
//! oracle publishes.

use super::frame::{self, le_word, spread_even, ParsedSegment};
use crate::code::{CodeTable, HalfSpec, ALL_CASES};
use crate::decode::{DecodeError, StreamDecoder};
use ninec_testdata::trit::TritVec;
use std::sync::{Arc, Mutex, PoisonError};

/// Widest codeword prefix the lookup covers, in trits: at most
/// `4^6 = 4096` one-byte entries per code.
const MAX_LOOKUP_TRITS: usize = 6;

/// Lookup entry: an X (or reserved `11`) before any codeword completed,
/// or a prefix no codeword starts with.
const BAD: u8 = 0;

/// Lookup entry: the `W` trits are all bits but no codeword of length
/// `<= W` matches — continue with the canonical walk.
const LONGER: u8 = 0xFF;

/// Distinct codes kept in the lookup cache (oldest evicted first).
const CACHE_CODES: usize = 8;

/// Every code's lookup, keyed by its codeword lengths (a [`CodeTable`]
/// is canonical, so its lengths determine it).
static CACHE: Mutex<Vec<([u8; 9], Arc<Lookup>)>> = Mutex::new(Vec::new());

/// The 2-bit encoding of a half spec inside a lookup entry.
fn spec_bits(spec: HalfSpec) -> u8 {
    match spec {
        HalfSpec::Zero => 0,
        HalfSpec::One => 1,
        HalfSpec::Mismatch => 2,
    }
}

/// Codeword lookup for one code (see the module docs). A hit entry is
/// `left spec | right spec << 2 | len << 4`.
#[derive(Debug)]
pub(crate) struct Lookup {
    /// Trits the table is indexed by (`W`).
    width: usize,
    /// `4^W` entries, indexed by the next `W` trits' codes.
    entries: Vec<u8>,
    /// Longest codeword length.
    max_len: usize,
    /// Per length: the first canonical code, how many codewords have
    /// that length, and where they start in `specs`.
    first: [u32; 17],
    count: [u32; 17],
    start: [usize; 17],
    /// Hit-entry spec bits of every case, sorted by `(len, code)`.
    specs: [u8; 9],
}

impl Lookup {
    fn build(table: &CodeTable) -> Self {
        let mut words: Vec<(usize, u32, u8)> = ALL_CASES
            .iter()
            .map(|&case| {
                let w = table.codeword(case);
                let code = w.iter_bits().fold(0u32, |acc, b| acc << 1 | u32::from(b));
                let (l, r) = case.halves();
                (w.len(), code, spec_bits(l) | spec_bits(r) << 2)
            })
            .collect();
        words.sort_unstable();
        let max_len = words.iter().map(|w| w.0).max().unwrap_or(1);
        let width = max_len.min(MAX_LOOKUP_TRITS);
        let mut entries = vec![BAD; 1 << (2 * width)];
        if max_len > width {
            for bits in 0..1u64 << width {
                entries[spread_even(bits) as usize] = LONGER;
            }
        }
        let (mut first, mut count, mut start) = ([0u32; 17], [0u32; 17], [0usize; 17]);
        let mut specs = [0u8; 9];
        for (i, &(len, code, spec)) in words.iter().enumerate() {
            specs[i] = spec;
            if count[len] == 0 {
                first[len] = code;
                start[len] = i;
            }
            // Canonical codes of one length are consecutive.
            debug_assert_eq!(code, first[len] + count[len]);
            count[len] += 1;
            if len <= width {
                // The codeword's bits, first-sent trit lowest, then every
                // possible continuation of the remaining `W - len` trits.
                let prefix = (0..len).fold(0usize, |acc, j| {
                    acc | ((code >> (len - 1 - j) & 1) as usize) << (2 * j)
                });
                let hit = spec | (len as u8) << 4;
                for rest in 0..1usize << (2 * (width - len)) {
                    entries[prefix | rest << (2 * len)] = hit;
                }
            }
        }
        Self {
            width,
            entries,
            max_len,
            first,
            count,
            start,
            specs,
        }
    }

    /// The cached lookup for `table`'s code, built on first use.
    pub(crate) fn of(table: &CodeTable) -> Arc<Lookup> {
        let lengths = table.lengths();
        let mut cache = CACHE.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some((_, hit)) = cache.iter().find(|(l, _)| *l == lengths) {
            return Arc::clone(hit);
        }
        let built = Arc::new(Lookup::build(table));
        if cache.len() >= CACHE_CODES {
            cache.remove(0);
        }
        cache.push((lengths, Arc::clone(&built)));
        built
    }

    /// Matches the codeword at trit `pos` given `window` (the 32 trits
    /// from `pos`), returning its half specs (left in bits 0..2, right in
    /// bits 2..4) and length, or `None` where the reference decoder fails
    /// (X, no codeword, or past `n` trits).
    #[inline]
    fn codeword(&self, bytes: &[u8], pos: usize, window: u64, n: usize) -> Option<(u8, usize)> {
        let mask = (1u64 << (2 * self.width)) - 1;
        let (specs, len) = match self.entries.get((window & mask) as usize).copied()? {
            BAD => return None,
            LONGER => self.walk(bytes, pos, window, n)?,
            hit => (hit & 0xF, usize::from(hit >> 4)),
        };
        (pos + len <= n).then_some((specs, len))
    }

    /// The canonical per-length walk past the lookup's `W` trits (all of
    /// them bits, or the entry would not say [`LONGER`]).
    #[cold]
    fn walk(&self, bytes: &[u8], pos: usize, window: u64, n: usize) -> Option<(u8, usize)> {
        let mut code =
            (0..self.width).fold(0u32, |acc, j| acc << 1 | (window >> (2 * j) & 1) as u32);
        for len in self.width + 1..=self.max_len {
            if pos + len > n {
                return None;
            }
            let t = trit_code(bytes, pos + len - 1)?;
            if t & 0b10 != 0 {
                return None;
            }
            code = code << 1 | u32::from(t & 1);
            let rank = code.wrapping_sub(self.first[len]);
            if rank < self.count[len] {
                let specs = self.specs.get(self.start[len] + rank as usize).copied()?;
                return Some((specs, len));
            }
        }
        None
    }
}

/// The 2-bit code of trit `i`, or `None` past the bytes.
#[inline]
fn trit_code(bytes: &[u8], i: usize) -> Option<u8> {
    bytes.get(i / 4).map(|b| b >> (2 * (i % 4)) & 0b11)
}

/// The 32 trits starting at trit `pos`, as codes (trit `j` at bits
/// `2j`); bytes past the end read as zero.
#[inline]
fn peek(bytes: &[u8], pos: usize) -> u64 {
    let at = pos / 4;
    let shift = 2 * (pos % 4);
    let mut w = [0u8; 9];
    match bytes.get(at..at + 9) {
        Some(s) => w.copy_from_slice(s),
        None => {
            let tail = bytes.get(at..).unwrap_or(&[]);
            w[..tail.len()].copy_from_slice(tail);
        }
    }
    // `<< 1 << (63 - shift)` is `<< (64 - shift)` without overflowing at 0.
    le_word(&w) >> shift | u64::from(w[8]) << 1 << (63 - shift)
}

/// Gathers the even bits of `x` into its low 32 bits (bit `2i` moves to
/// bit `i`): with trit codes, the even bits are the value plane and the
/// odd bits the X flags.
#[inline]
fn unzip_even(x: u64) -> u64 {
    let mut x = x & 0x5555_5555_5555_5555;
    x = (x | x >> 1) & 0x3333_3333_3333_3333;
    x = (x | x >> 2) & 0x0F0F_0F0F_0F0F_0F0F;
    x = (x | x >> 4) & 0x00FF_00FF_00FF_00FF;
    x = (x | x >> 8) & 0x0000_FFFF_0000_FFFF;
    (x | x >> 16) & 0xFFFF_FFFF
}

/// Mask of the low `n <= 64` bits.
#[inline]
fn low_bits(n: usize) -> u64 {
    if n >= 64 {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

/// `true` when any of the first `trits` codes in `bytes` is the reserved
/// `11` (`bytes` holds at least `trits.div_ceil(4)` bytes).
fn has_reserved_code(bytes: &[u8], trits: usize) -> bool {
    let whole = &bytes[..trits / 4];
    let mut chunks = whole.chunks_exact(8);
    let mut acc = 0u64;
    for c in &mut chunks {
        let w = le_word(c);
        acc |= w & w >> 1;
    }
    for &b in chunks.remainder() {
        acc |= u64::from(b & b >> 1);
    }
    if !trits.is_multiple_of(4) {
        let b = bytes[trits / 4] & ((1u8 << (2 * (trits % 4))) - 1);
        acc |= u64::from(b & b >> 1);
    }
    acc & 0x5555_5555_5555_5555 != 0
}

/// The output care/value planes, filled through 64-bit accumulators.
struct Planes {
    care: Vec<u64>,
    value: Vec<u64>,
    acc_care: u64,
    acc_value: u64,
    /// Bits pending in the accumulators (`0..64`).
    fill: usize,
}

impl Planes {
    fn with_capacity(trits: usize) -> Self {
        let words = trits.div_ceil(64);
        Self {
            care: Vec::with_capacity(words),
            value: Vec::with_capacity(words),
            acc_care: 0,
            acc_value: 0,
            fill: 0,
        }
    }

    /// Appends `n <= 64` trits (nothing set at or above bit `n`).
    #[inline]
    fn push(&mut self, care: u64, value: u64, n: usize) {
        self.acc_care |= care << self.fill;
        self.acc_value |= value << self.fill;
        let fill = self.fill + n;
        if fill >= 64 {
            self.care.push(self.acc_care);
            self.value.push(self.acc_value);
            let used = 64 - self.fill;
            (self.acc_care, self.acc_value) = if used == 64 {
                (0, 0)
            } else {
                (care >> used, value >> used)
            };
            self.fill = fill - 64;
        } else {
            self.fill = fill;
        }
    }

    /// Appends `n` copies of a care bit.
    #[inline]
    fn run(&mut self, one: bool, mut n: usize) {
        let value = if one { u64::MAX } else { 0 };
        while n > 0 {
            let take = n.min(64);
            let mask = low_bits(take);
            self.push(mask, value & mask, take);
            n -= take;
        }
    }

    /// Appends the `n` packed trits starting at trit `pos` of `bytes`.
    #[inline]
    fn copy_packed(&mut self, bytes: &[u8], mut pos: usize, mut n: usize) {
        while n > 0 {
            let take = n.min(32);
            let codes = peek(bytes, pos);
            let mask = low_bits(take);
            let value = unzip_even(codes) & mask;
            let x = unzip_even(codes >> 1) & mask;
            self.push(!x & mask, value, take);
            pos += take;
            n -= take;
        }
    }

    fn finish(mut self, len: usize) -> TritVec {
        if self.fill > 0 {
            self.care.push(self.acc_care);
            self.value.push(self.acc_value);
        }
        TritVec::from_plane_words(self.care, self.value, len)
    }
}

/// A segment the kernel decoded, with the tallies the reference decoder
/// would publish for it.
pub(crate) struct Decoded {
    /// The segment's `source_trits` decoded trits.
    pub(crate) trits: TritVec,
    /// Blocks decoded.
    pub(crate) blocks: u64,
    /// Payload trits consumed (codewords plus mismatch halves).
    pub(crate) consumed: usize,
}

/// The reference decode of one segment: [`frame::unpack_payload`] into a
/// [`TritVec`], then [`StreamDecoder`]. It is the kernel's differential
/// oracle and the source of every typed error (attributed to segment
/// `index`) and of the decode counters of a failing segment.
pub(crate) fn reference(
    seg: &ParsedSegment<'_>,
    index: usize,
    table: &CodeTable,
) -> Result<TritVec, DecodeError> {
    let payload = frame::unpack_payload(seg, index)?;
    let dec = StreamDecoder::new(
        payload.as_slice().iter(),
        seg.k,
        table.clone(),
        seg.source_trits,
    )?;
    let mut out = TritVec::with_capacity(seg.source_trits);
    dec.run_into(&mut out)?;
    Ok(out)
}

/// Decodes `seg` from its packed bytes, or returns `None` exactly when
/// the reference path ([`frame::unpack_payload`] + `StreamDecoder`)
/// would report an error for it. Publishes nothing.
pub(crate) fn decode(seg: &ParsedSegment<'_>, lookup: &Lookup) -> Option<Decoded> {
    let (bytes, n, source) = (seg.payload, seg.payload_trits, seg.source_trits);
    if bytes.len() < n.div_ceil(4) || has_reserved_code(bytes, n) {
        return None;
    }
    if seg.k < 4 || !seg.k.is_multiple_of(2) {
        return None;
    }
    let half = seg.k / 2;
    let mut out = Planes::with_capacity(source);
    let (mut pos, mut produced, mut blocks) = (0usize, 0usize, 0u64);
    while produced < source {
        if pos >= n {
            return None;
        }
        let (specs, len) = lookup.codeword(bytes, pos, peek(bytes, pos), n)?;
        pos += len;
        for spec in [specs & 0b11, specs >> 2] {
            // Clip to the promised source length; pad trits are consumed
            // but dropped.
            let take = half.min(source.saturating_sub(produced));
            match spec {
                0 => out.run(false, take),
                1 => out.run(true, take),
                _ => {
                    if pos + half > n {
                        return None;
                    }
                    out.copy_packed(bytes, pos, take);
                    pos += half;
                }
            }
            produced += half;
        }
        blocks += 1;
    }
    Some(Decoded {
        trits: out.finish(source),
        blocks,
        consumed: pos,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::code::PAPER_LENGTHS;

    fn check(seg: &ParsedSegment<'_>, table: &CodeTable) {
        let got = decode(seg, &Lookup::of(table)).map(|d| d.trits);
        assert_eq!(got, reference(seg, 0, table).ok(), "{seg:?}");
    }

    #[test]
    fn paper_lookup_is_1024_entries_and_fixes_every_codeword() {
        let table = CodeTable::paper();
        let lookup = Lookup::of(&table);
        assert_eq!(lookup.entries.len(), 1024);
        assert!(!lookup.entries.contains(&LONGER));
        for case in ALL_CASES {
            let w = table.codeword(case);
            let mut index = 0usize;
            for (j, bit) in w.iter_bits().enumerate() {
                index |= usize::from(bit) << (2 * j);
            }
            let (l, r) = case.halves();
            assert_eq!(
                lookup.entries[index],
                spec_bits(l) | spec_bits(r) << 2 | (w.len() as u8) << 4
            );
        }
    }

    #[test]
    fn cache_returns_the_same_lookup() {
        let a = Lookup::of(&CodeTable::paper());
        let b = Lookup::of(&CodeTable::paper());
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn peek_reads_any_alignment_and_zero_fills() {
        let bytes: Vec<u8> = (0u8..12).map(|i| i.wrapping_mul(37) & 0x55).collect();
        for pos in 0..48 {
            let w = peek(&bytes, pos);
            for j in 0..32 {
                let want = trit_code(&bytes, pos + j).unwrap_or(0);
                assert_eq!((w >> (2 * j) & 3) as u8, want, "pos {pos} trit {j}");
            }
        }
    }

    #[test]
    fn reserved_code_scan_stops_at_the_trit_count() {
        // Trit 5 is `11`: visible at 6+ trits, invisible below.
        let bytes = [0u8, 0b0000_1100, 0, 0, 0, 0, 0, 0, 0, 0];
        assert!(!has_reserved_code(&bytes, 5));
        assert!(has_reserved_code(&bytes, 6));
        assert!(has_reserved_code(&bytes, 40));
        let mut late = [0u8; 20];
        late[17] = 0b1100_0000;
        assert!(!has_reserved_code(&late, 71));
        assert!(has_reserved_code(&late, 72));
    }

    #[test]
    fn every_short_payload_matches_the_reference() {
        // All payloads of up to 6 trits over all four codes, against a
        // range of source lengths, K, and a long-codeword custom table.
        let mut long = PAPER_LENGTHS;
        long.swap(0, 2); // C1 gets a 5-trit codeword
        let tables = [
            CodeTable::paper(),
            CodeTable::from_lengths(&long).unwrap(),
            CodeTable::from_lengths(&[2, 3, 4, 5, 6, 7, 8, 9, 9]).unwrap(),
        ];
        for trits in 0..=6usize {
            for codes in 0..1u32 << (2 * trits) {
                let mut bytes = vec![0u8; trits.div_ceil(4)];
                for j in 0..trits {
                    bytes[j / 4] |= ((codes >> (2 * j) & 3) as u8) << (2 * (j % 4));
                }
                for (k, source) in [(4, 0), (4, 2), (4, 4), (4, 9), (6, 6), (8, 5)] {
                    let seg = ParsedSegment {
                        k,
                        source_trits: source,
                        payload_trits: trits,
                        payload: &bytes,
                    };
                    for table in &tables {
                        check(&seg, table);
                    }
                }
            }
        }
    }

    #[test]
    fn sixteen_trit_codewords_walk_canonically() {
        // Kraft-valid with a 16-trit codeword, far past the lookup width.
        let table = CodeTable::from_lengths(&[1, 2, 3, 4, 5, 6, 7, 16, 16]).unwrap();
        assert_eq!(Lookup::of(&table).width, MAX_LOOKUP_TRITS);
        let src: TritVec = "0101XX01XX10X0X1".repeat(9).parse().unwrap();
        let enc = crate::encode::Encoder::with_table(4, table.clone())
            .unwrap()
            .encode_stream(&src);
        let bytes = frame::pack_payload(enc.stream());
        let seg = ParsedSegment {
            k: 4,
            source_trits: src.len(),
            payload_trits: enc.stream().len(),
            payload: &bytes,
        };
        check(&seg, &table);
        // Every truncation of the payload fails exactly where the oracle does.
        for n in 0..enc.stream().len() {
            check(
                &ParsedSegment {
                    payload_trits: n,
                    ..seg
                },
                &table,
            );
        }
    }

    #[test]
    fn payload_bytes_shorter_than_claimed_fail_like_the_oracle() {
        let bytes = [0u8; 2];
        let seg = ParsedSegment {
            k: 8,
            source_trits: 8,
            payload_trits: 12,
            payload: &bytes,
        };
        assert!(decode(&seg, &Lookup::of(&CodeTable::paper())).is_none());
        check(&seg, &CodeTable::paper());
    }
}
