//! Differential oracles for the word-level text codec and X-fill.
//!
//! The `oracle` module keeps the symbol-at-a-time implementations the
//! word-level code replaced — `Display`/`FromStr` of a trit stream, the
//! cube-file reader and writer, `fill_trits`, `covers` and
//! `compatible_with` — and the properties below check the shipped code
//! against them: same text, same planes, same fills, and the same errors
//! (variant, 1-based line and offending `char`).

use ninec_testdata::cube::TestSet;
use ninec_testdata::fill::{fill_trits, FillStrategy};
use ninec_testdata::io::{format_test_set, parse_test_set, write_test_set_file, ReadTestSetError};
use ninec_testdata::trit::{ParseTritError, Trit, TritVec};
use proptest::prelude::*;

/// The per-symbol reference implementations.
mod oracle {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    pub fn display(trits: impl IntoIterator<Item = Trit>) -> String {
        let mut out = String::new();
        for t in trits {
            out.push(t.to_char());
        }
        out
    }

    pub fn from_str(s: &str) -> Result<TritVec, ParseTritError> {
        let mut v = TritVec::with_capacity(s.len());
        for c in s.chars() {
            v.push(Trit::try_from(c)?);
        }
        Ok(v)
    }

    pub fn parse_test_set(text: &str) -> Result<TestSet, ReadTestSetError> {
        let mut set: Option<TestSet> = None;
        for (line_no, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let cube = from_str(line).map_err(|source| ReadTestSetError::Parse {
                line: line_no + 1,
                source,
            })?;
            let set = set.get_or_insert_with(|| TestSet::new(cube.len().max(1)));
            set.push_pattern(&cube)
                .map_err(|e| ReadTestSetError::Length {
                    line: line_no + 1,
                    expected: e.expected,
                    found: e.found,
                })?;
        }
        set.ok_or(ReadTestSetError::Empty)
    }

    pub fn format_test_set(set: &TestSet) -> String {
        let mut out = format!(
            "# {} patterns x {} cells\n",
            set.num_patterns(),
            set.pattern_len()
        );
        out.push_str(&set_display(set));
        out
    }

    pub fn set_display(set: &TestSet) -> String {
        let mut out = String::new();
        for p in set.patterns() {
            out.push_str(&display(p.iter()));
            out.push('\n');
        }
        out
    }

    pub fn fill_trits(trits: &TritVec, strategy: FillStrategy) -> TritVec {
        match strategy {
            FillStrategy::Zero => fill_const(trits, Trit::Zero),
            FillStrategy::One => fill_const(trits, Trit::One),
            FillStrategy::Random { seed } => {
                let mut rng = StdRng::seed_from_u64(seed);
                trits
                    .iter()
                    .map(|t| {
                        if t.is_x() {
                            Trit::from(rng.gen_bool(0.5))
                        } else {
                            t
                        }
                    })
                    .collect()
            }
            FillStrategy::MinTransition => {
                let first_care = trits.iter().find(|t| t.is_care()).unwrap_or(Trit::Zero);
                let mut last = first_care;
                trits
                    .iter()
                    .map(|t| {
                        if t.is_care() {
                            last = t;
                            t
                        } else {
                            last
                        }
                    })
                    .collect()
            }
        }
    }

    fn fill_const(trits: &TritVec, fill: Trit) -> TritVec {
        trits
            .iter()
            .map(|t| if t.is_x() { fill } else { t })
            .collect()
    }

    pub fn covers(a: &TritVec, b: &TritVec) -> bool {
        a.iter().zip(b.iter()).all(|(a, b)| b.is_x() || a == b)
    }

    pub fn compatible_with(a: &TritVec, b: &TritVec) -> bool {
        a.iter().zip(b.iter()).all(|(a, b)| a.compatible_with(b))
    }
}

fn arb_trit() -> impl Strategy<Value = Trit> {
    prop_oneof![
        2 => Just(Trit::X),
        1 => Just(Trit::Zero),
        1 => Just(Trit::One),
    ]
}

/// Streams of 0–300 trits: every alignment against the 64-trit words.
fn arb_stream() -> impl Strategy<Value = TritVec> {
    proptest::collection::vec(arb_trit(), 0..301).prop_map(TritVec::from_iter)
}

/// Trit spellings the parser accepts, with the canonical one weighted up.
fn spell(t: Trit, pick: u8) -> char {
    match (t, pick % 4) {
        (Trit::Zero, _) => '0',
        (Trit::One, _) => '1',
        (Trit::X, 0) => 'x',
        (Trit::X, 1) => '-',
        (Trit::X, _) => 'X',
    }
}

/// Characters that spell no trit, non-ASCII ones included.
const INVALID: [char; 8] = ['2', 'Z', ' ', '\t', 'é', '€', '💥', '\u{a0}'];

/// Debug text of a reader result: compares variant, line and `found`.
fn outcome(r: &Result<TestSet, ReadTestSetError>) -> String {
    match r {
        Ok(set) => format!("Ok({set:?}, {})", format_test_set(set)),
        Err(e) => format!("Err({e:?})"),
    }
}

/// A cube file built from `cubes`: varied spellings, CRLF or LF line
/// ends, surrounding whitespace, comment and blank lines.
fn cube_file(cubes: &[TritVec], knobs: &[u8]) -> String {
    let mut text = String::new();
    for (i, cube) in cubes.iter().enumerate() {
        let knob = knobs[i % knobs.len()];
        if knob & 1 != 0 {
            text.push_str("# a comment line\n");
        }
        if knob & 2 != 0 {
            text.push_str(" \t\r\n");
        }
        if knob & 4 != 0 {
            text.push_str("  ");
        }
        for (j, t) in cube.iter().enumerate() {
            text.push(spell(t, knob.wrapping_add(j as u8)));
        }
        if knob & 8 != 0 {
            text.push('\t');
        }
        text.push_str(if knob & 16 != 0 { "\r\n" } else { "\n" });
    }
    text
}

proptest! {
    /// `Display` of a vector and of views at every bit offset.
    #[test]
    fn display_matches_oracle(tv in arb_stream(), cut in 0usize..140, keep in 0usize..301) {
        prop_assert_eq!(tv.to_string(), oracle::display(tv.iter()));
        let start = cut.min(tv.len());
        let end = (start + keep).min(tv.len());
        let view = tv.slice_view(start, end);
        prop_assert_eq!(view.to_string(), oracle::display(view.iter()));
        prop_assert_eq!(format!("{view:?}"), format!("TritSlice(\"{}\")", oracle::display(view.iter())));
    }

    /// `FromStr` on every spelling, and on a string with one invalid
    /// character anywhere (later 64-byte chunks and multi-byte chars
    /// included): same planes, same error.
    #[test]
    fn from_str_matches_oracle(
        tv in arb_stream(),
        pick in any::<u8>(),
        bad_at in 0usize..301,
        bad in 0usize..INVALID.len(),
        poison in any::<bool>(),
    ) {
        let mut s: String = tv
            .iter()
            .enumerate()
            .map(|(j, t)| spell(t, pick.wrapping_add(j as u8)))
            .collect();
        if poison {
            s.insert(bad_at.min(s.len()), INVALID[bad]);
        }
        let got = s.parse::<TritVec>();
        prop_assert_eq!(&got, &oracle::from_str(&s));
        if !poison {
            prop_assert_eq!(got.unwrap(), tv);
        }
    }

    /// Appending text keeps the prefix and rolls back on error.
    #[test]
    fn extend_from_text_appends_or_rolls_back(
        head in arb_stream(),
        tail in arb_stream(),
        poison in any::<bool>(),
    ) {
        let mut text = tail.to_string();
        if poison {
            text.push('é');
        }
        let mut got = head.clone();
        let r = got.extend_from_text(&text);
        if poison {
            prop_assert_eq!(r, Err(ParseTritError { found: 'é' }));
            prop_assert_eq!(got, head);
        } else {
            let mut want = head.clone();
            want.extend_from_tritvec(&tail);
            prop_assert_eq!(r, Ok(()));
            prop_assert_eq!(got, want);
        }
    }

    /// The cube-file writers: `format_test_set`, the streaming
    /// `write_test_set_file` and `TestSet`'s `Display`.
    #[test]
    fn set_writers_match_oracle(stream in arb_stream(), width in 1usize..150) {
        let n = stream.len() / width * width;
        let set = TestSet::from_stream(width, stream.slice(0, n));
        let want = oracle::format_test_set(&set);
        prop_assert_eq!(format_test_set(&set), want.clone());
        let path = std::env::temp_dir().join(format!("ninec_text_oracle_{}.cubes", std::process::id()));
        write_test_set_file(&path, &set).unwrap();
        prop_assert_eq!(std::fs::read_to_string(&path).unwrap(), want);
        std::fs::remove_file(&path).ok();
        prop_assert_eq!(set.to_string(), oracle::set_display(&set));
    }

    /// The cube-file reader on well-formed files with every spelling,
    /// CRLF, whitespace and comments.
    #[test]
    fn parse_test_set_matches_oracle(
        stream in arb_stream(),
        width in 1usize..150,
        knobs in proptest::collection::vec(any::<u8>(), 1..8),
    ) {
        let n = stream.len() / width * width;
        let cubes: Vec<TritVec> = stream.slice(0, n).chunks(width).map(|c| c.to_tritvec()).collect();
        let text = cube_file(&cubes, &knobs);
        let got = parse_test_set(&text);
        prop_assert_eq!(outcome(&got), outcome(&oracle::parse_test_set(&text)));
        if !cubes.is_empty() {
            prop_assert_eq!(got.unwrap().into_stream(), stream.slice(0, n));
        }
    }

    /// The reader's errors: an invalid character or a short or long line
    /// anywhere gives the oracle's variant, line and `found`.
    #[test]
    fn parse_test_set_errors_match_oracle(
        stream in arb_stream(),
        width in 1usize..150,
        knobs in proptest::collection::vec(any::<u8>(), 1..8),
        victim in 0usize..8,
        at in 0usize..150,
        bad in 0usize..INVALID.len(),
        kind in 0u8..3,
    ) {
        let n = stream.len() / width * width;
        let mut cubes: Vec<TritVec> = stream.slice(0, n).chunks(width).map(|c| c.to_tritvec()).collect();
        let mut text = cube_file(&cubes, &knobs);
        if !cubes.is_empty() {
            let victim = victim % cubes.len();
            match kind {
                // A longer or a shorter pattern line.
                0 => cubes[victim].push(Trit::One),
                1 => cubes[victim].truncate(width - 1),
                _ => {}
            }
            text = cube_file(&cubes, &knobs);
            if kind == 2 {
                // An invalid character inside the victim's line.
                let line = text
                    .split_inclusive('\n')
                    .scan(0, |off, l| { let s = *off; *off += l.len(); Some((s, l)) })
                    .filter(|(_, l)| !l.trim().is_empty() && !l.trim().starts_with('#'))
                    .nth(victim);
                if let Some((start, l)) = line {
                    let lead = l.len() - l.trim_start().len();
                    let body = l.trim().len();
                    text.insert(start + lead + at.min(body), INVALID[bad]);
                }
            }
        }
        prop_assert_eq!(outcome(&parse_test_set(&text)), outcome(&oracle::parse_test_set(&text)));
    }

    /// Every fill strategy over several seeds, on vectors whose length
    /// crosses word boundaries.
    #[test]
    fn fill_matches_oracle(tv in arb_stream(), seed in any::<u64>()) {
        for strategy in [
            FillStrategy::Zero,
            FillStrategy::One,
            FillStrategy::MinTransition,
            FillStrategy::Random { seed },
            FillStrategy::Random { seed: seed ^ 1 },
            FillStrategy::Random { seed: 7 },
        ] {
            let got = fill_trits(&tv, strategy);
            prop_assert_eq!(&got, &oracle::fill_trits(&tv, strategy));
            prop_assert_eq!(got.count_x(), 0);
        }
    }

    /// Word-level `covers`/`compatible_with` against the per-trit rule,
    /// on unrelated pairs and on a fill of the same cube.
    #[test]
    fn covers_and_compatible_match_oracle(a in arb_stream(), b in arb_stream(), seed in any::<u64>()) {
        let n = a.len().min(b.len());
        let (a, b) = (a.slice(0, n), b.slice(0, n));
        prop_assert_eq!(a.covers(&b), oracle::covers(&a, &b));
        prop_assert_eq!(a.compatible_with(&b), oracle::compatible_with(&a, &b));
        let filled = fill_trits(&a, FillStrategy::Random { seed });
        prop_assert!(filled.covers(&a));
        prop_assert!(filled.compatible_with(&a));
        prop_assert_eq!(a.covers(&filled), oracle::covers(&a, &filled));
    }
}

/// Fixed cases the properties may not hit: X-only and care-only words,
/// runs ending exactly on a word boundary, and errors past the first
/// 64-byte chunk.
#[test]
fn word_boundary_cases_match_oracle() {
    for len in [0usize, 1, 63, 64, 65, 127, 128, 129, 192] {
        for text in [
            "X".repeat(len),
            "1".repeat(len),
            "0".repeat(len),
            format!("{}{}", "1".repeat(len / 2), "X".repeat(len - len / 2)),
            format!("{}{}", "X".repeat(len / 2), "0".repeat(len - len / 2)),
        ] {
            let tv: TritVec = text.parse().unwrap();
            assert_eq!(tv.to_string(), text);
            for strategy in [
                FillStrategy::Zero,
                FillStrategy::One,
                FillStrategy::MinTransition,
                FillStrategy::Random { seed: 3 },
            ] {
                assert_eq!(
                    fill_trits(&tv, strategy),
                    oracle::fill_trits(&tv, strategy),
                    "{strategy:?} on {text:?}"
                );
            }
        }
    }
    // The invalid character sits in the third 64-byte chunk.
    let text = format!("{}é{}", "01X".repeat(50), "1".repeat(20));
    let want = oracle::from_str(&text).unwrap_err();
    assert_eq!(want.found, 'é');
    assert_eq!(text.parse::<TritVec>().unwrap_err(), want);
    // Line 4 has as many characters as the others, one of them invalid.
    let file = format!("# c\n{0}\n{0}\n{text}\n", "0".repeat(171));
    assert_eq!(
        outcome(&parse_test_set(&file)),
        outcome(&oracle::parse_test_set(&file))
    );
    assert!(matches!(
        parse_test_set(&file),
        Err(ReadTestSetError::Parse {
            line: 4,
            source: ParseTritError { found: 'é' }
        })
    ));
}
