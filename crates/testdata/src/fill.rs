//! Don't-care fill strategies.
//!
//! A key selling point of the 9C technique is that many don't-cares survive
//! compression ("leftover X") and can be filled *after* decompression:
//! randomly to catch non-modeled faults, or transition-minimizing to cut
//! scan-in power. This module implements the fill policies discussed in the
//! paper's Sections I and IV.

use crate::bits::BitVec;
use crate::cube::TestSet;
use crate::trit::TritVec;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Policy for replacing `X` symbols with care bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FillStrategy {
    /// Every `X` becomes `0`.
    Zero,
    /// Every `X` becomes `1`.
    One,
    /// Every `X` becomes an independent fair coin flip, seeded for
    /// reproducibility (the paper's "filled randomly to detect non-modeled
    /// faults").
    Random {
        /// RNG seed.
        seed: u64,
    },
    /// Minimum-transition fill: each `X` repeats the nearest specified bit
    /// to its left (the first run repeats the first care bit; an all-`X`
    /// vector becomes all zeros). Minimizes scan-chain transitions and
    /// therefore shift power.
    MinTransition,
}

/// Fills every `X` in `trits` according to `strategy`, returning a fully
/// specified vector. Care bits are never altered.
///
/// Every strategy works on the packed planes a word at a time: `Zero`
/// and `One` are pure word operations, `MinTransition` walks the care
/// runs of each word with `trailing_zeros`, and `Random` draws one
/// `gen_bool(0.5)` per `X` in index order (the same draws, in the same
/// order, as a symbol-by-symbol fill).
///
/// # Examples
///
/// ```
/// use ninec_testdata::fill::{fill_trits, FillStrategy};
/// use ninec_testdata::trit::TritVec;
///
/// let cube: TritVec = "X1XX0X".parse()?;
/// assert_eq!(fill_trits(&cube, FillStrategy::Zero).to_string(), "010000");
/// assert_eq!(fill_trits(&cube, FillStrategy::MinTransition).to_string(), "111100");
/// # Ok::<(), ninec_testdata::trit::ParseTritError>(())
/// ```
pub fn fill_trits(trits: &TritVec, strategy: FillStrategy) -> TritVec {
    let len = trits.len();
    let view = trits.as_slice();
    let (care, value) = (view.care_words(), view.value_words());
    // Bits past `len` in the last word are X by the planes' zero tail;
    // `BitVec::from_words` clears whatever a fill put there.
    let filled: Vec<u64> = match strategy {
        // By the plane invariant an X already has value 0.
        FillStrategy::Zero => value.to_vec(),
        FillStrategy::One => care.iter().zip(value).map(|(&c, &v)| v | !c).collect(),
        FillStrategy::Random { seed } => {
            let mut rng = StdRng::seed_from_u64(seed);
            care.iter()
                .zip(value)
                .enumerate()
                .map(|(w, (&c, &v))| {
                    let mut xs = !c & live_mask(w, len);
                    let mut out = v;
                    while xs != 0 {
                        if rng.gen_bool(0.5) {
                            out |= xs & xs.wrapping_neg();
                        }
                        xs &= xs - 1;
                    }
                    out
                })
                .collect()
        }
        FillStrategy::MinTransition => fill_min_transition(care, value),
    };
    TritVec::from_planes(BitVec::repeat(true, len), BitVec::from_words(filled, len))
}

/// The bits of word `w` that hold one of the first `len` symbols.
fn live_mask(w: usize, len: usize) -> u64 {
    match len.saturating_sub(w * 64) {
        n if n >= 64 => u64::MAX,
        n => (1u64 << n) - 1,
    }
}

/// Bits `[from, to)` of a word, `from <= to <= 64`.
fn bit_range(from: u32, to: u32) -> u64 {
    if from >= to {
        0
    } else {
        u64::MAX >> (64 - (to - from)) << from
    }
}

/// Minimum-transition fill of the value plane: each X run takes the
/// value of the care bit before it, or of the first care bit when it
/// leads (0 when there is none).
fn fill_min_transition(care: &[u64], value: &[u64]) -> Vec<u64> {
    let mut last = care
        .iter()
        .zip(value)
        .find(|(&c, _)| c != 0)
        .is_some_and(|(&c, &v)| v >> c.trailing_zeros() & 1 == 1);
    care.iter()
        .zip(value)
        .map(|(&c, &v)| {
            let mut out = 0u64;
            let mut pos = 0u32;
            loop {
                // X run [pos, start) repeats `last`.
                let start = (c & u64::MAX << pos).trailing_zeros();
                if last {
                    out |= bit_range(pos, start);
                }
                if start == 64 {
                    break out;
                }
                // Care run [start, end) keeps its values.
                let end = (!c & u64::MAX << start).trailing_zeros();
                out |= v & bit_range(start, end);
                last = v >> (end - 1) & 1 == 1;
                if end == 64 {
                    break out;
                }
                pos = end;
            }
        })
        .collect()
}

/// Fills every cube of a test set independently (MT-fill state does not leak
/// across pattern boundaries — each scan load starts fresh).
pub fn fill_test_set(set: &TestSet, strategy: FillStrategy) -> TestSet {
    let mut out = TestSet::new(set.pattern_len());
    for (i, cube) in set.patterns().enumerate() {
        // Derive a distinct sub-seed per pattern so random fill is not
        // identical across cubes yet stays deterministic overall.
        let strategy = match strategy {
            FillStrategy::Random { seed } => FillStrategy::Random {
                seed: seed
                    .wrapping_add(i as u64)
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15),
            },
            other => other,
        };
        out.push_pattern(&fill_trits(&cube, strategy))
            .expect("fill preserves length");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cube(s: &str) -> TritVec {
        s.parse().unwrap()
    }

    #[test]
    fn zero_one_fill() {
        let c = cube("X0X1X");
        assert_eq!(fill_trits(&c, FillStrategy::Zero).to_string(), "00010");
        assert_eq!(fill_trits(&c, FillStrategy::One).to_string(), "10111");
    }

    #[test]
    fn fills_cover_the_original() {
        let c = cube("X0XX1XX0");
        for strategy in [
            FillStrategy::Zero,
            FillStrategy::One,
            FillStrategy::Random { seed: 3 },
            FillStrategy::MinTransition,
        ] {
            let filled = fill_trits(&c, strategy);
            assert_eq!(filled.count_x(), 0, "{strategy:?} left an X");
            assert!(filled.covers(&c), "{strategy:?} altered a care bit");
        }
    }

    #[test]
    fn random_fill_is_deterministic() {
        let c = cube("XXXXXXXXXXXXXXXX");
        let a = fill_trits(&c, FillStrategy::Random { seed: 9 });
        let b = fill_trits(&c, FillStrategy::Random { seed: 9 });
        let d = fill_trits(&c, FillStrategy::Random { seed: 10 });
        assert_eq!(a, b);
        assert_ne!(a, d);
    }

    #[test]
    fn min_transition_repeats_left_neighbor() {
        assert_eq!(
            fill_trits(&cube("0XX1X0XX"), FillStrategy::MinTransition).to_string(),
            "00011000"
        );
    }

    #[test]
    fn min_transition_leading_run_uses_first_care_bit() {
        assert_eq!(
            fill_trits(&cube("XXX1X"), FillStrategy::MinTransition).to_string(),
            "11111"
        );
    }

    #[test]
    fn min_transition_all_x_is_zeros() {
        assert_eq!(
            fill_trits(&cube("XXXX"), FillStrategy::MinTransition).to_string(),
            "0000"
        );
    }

    #[test]
    fn set_fill_random_differs_across_patterns() {
        let ts = TestSet::from_patterns(8, ["XXXXXXXX", "XXXXXXXX"]).unwrap();
        let filled = fill_test_set(&ts, FillStrategy::Random { seed: 1 });
        assert_ne!(filled.pattern(0), filled.pattern(1));
        assert!(filled.covers(&ts));
    }

    #[test]
    fn set_fill_preserves_dimensions() {
        let ts = TestSet::from_patterns(4, ["X1XX", "0XX1", "XXXX"]).unwrap();
        let filled = fill_test_set(&ts, FillStrategy::MinTransition);
        assert_eq!(filled.num_patterns(), 3);
        assert_eq!(filled.pattern_len(), 4);
        assert_eq!(filled.x_density(), 0.0);
    }
}
