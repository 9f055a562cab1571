//! Scan test sets: fixed-width collections of test cubes.
//!
//! A *test cube* is one scan pattern over {0, 1, X}; a [`TestSet`] is the
//! ordered set of cubes a core vendor ships (the paper's `T_D`). All cubes
//! in a set share the scan length (number of scan cells).

use crate::slice::Chunks;
use crate::trit::{ParseTritError, TritVec};
use std::fmt;

/// An ordered set of equal-length test cubes.
///
/// # Examples
///
/// ```
/// use ninec_testdata::cube::TestSet;
///
/// let ts = TestSet::from_patterns(4, ["01XX", "X1X0"])?;
/// assert_eq!(ts.num_patterns(), 2);
/// assert_eq!(ts.total_bits(), 8);
/// assert_eq!(ts.pattern(1).to_string(), "X1X0");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct TestSet {
    pattern_len: usize,
    data: TritVec,
}

impl TestSet {
    /// Creates an empty set whose cubes will be `pattern_len` symbols wide.
    ///
    /// # Panics
    ///
    /// Panics if `pattern_len == 0`.
    pub fn new(pattern_len: usize) -> Self {
        assert!(pattern_len > 0, "pattern length must be positive");
        Self {
            pattern_len,
            data: TritVec::new(),
        }
    }

    /// Builds a set from string patterns over `0`, `1`, `X`/`-`.
    ///
    /// # Errors
    ///
    /// Returns [`BuildTestSetError`] if a pattern has the wrong length or an
    /// invalid character.
    pub fn from_patterns<I, S>(pattern_len: usize, patterns: I) -> Result<Self, BuildTestSetError>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut ts = TestSet::new(pattern_len);
        for (index, p) in patterns.into_iter().enumerate() {
            let cube: TritVec = p
                .as_ref()
                .parse()
                .map_err(|source| BuildTestSetError::Parse { index, source })?;
            ts.push_pattern(&cube)
                .map_err(|_| BuildTestSetError::Length {
                    index,
                    expected: pattern_len,
                    found: p.as_ref().len(),
                })?;
        }
        Ok(ts)
    }

    /// Scan length (symbols per cube).
    pub fn pattern_len(&self) -> usize {
        self.pattern_len
    }

    /// Number of cubes.
    pub fn num_patterns(&self) -> usize {
        self.data.len() / self.pattern_len
    }

    /// Total number of symbols (`num_patterns * pattern_len`) — the paper's
    /// `|T_D|`.
    pub fn total_bits(&self) -> usize {
        self.data.len()
    }

    /// Fraction of symbols that are don't-cares.
    pub fn x_density(&self) -> f64 {
        self.data.x_density()
    }

    /// Appends a cube.
    ///
    /// # Errors
    ///
    /// Returns [`PatternLengthError`] if `cube.len() != self.pattern_len()`.
    pub fn push_pattern(&mut self, cube: &TritVec) -> Result<(), PatternLengthError> {
        if cube.len() != self.pattern_len {
            return Err(PatternLengthError {
                expected: self.pattern_len,
                found: cube.len(),
            });
        }
        self.data.extend_from_tritvec(cube);
        Ok(())
    }

    /// Copies the `i`-th cube out of the set.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.num_patterns()`.
    pub fn pattern(&self, i: usize) -> TritVec {
        assert!(i < self.num_patterns(), "pattern index {i} out of range");
        self.data
            .slice(i * self.pattern_len, (i + 1) * self.pattern_len)
    }

    /// Iterates over the cubes.
    pub fn patterns(&self) -> Patterns<'_> {
        Patterns {
            set: self,
            index: 0,
        }
    }

    /// Iterates over zero-copy views of the cubes, in order.
    pub(crate) fn pattern_slices(&self) -> Chunks<'_> {
        self.data.chunks(self.pattern_len)
    }

    /// The whole set as one flat symbol stream, pattern after pattern —
    /// the order in which a single scan chain consumes it.
    pub fn as_stream(&self) -> &TritVec {
        &self.data
    }

    /// Consumes the set, returning the flat stream.
    pub fn into_stream(self) -> TritVec {
        self.data
    }

    /// Reassembles a set from a flat stream.
    ///
    /// # Panics
    ///
    /// Panics if `pattern_len == 0` or the stream length is not a multiple
    /// of `pattern_len`.
    pub fn from_stream(pattern_len: usize, stream: TritVec) -> Self {
        assert!(pattern_len > 0, "pattern length must be positive");
        assert_eq!(
            stream.len() % pattern_len,
            0,
            "stream length {} is not a multiple of pattern length {pattern_len}",
            stream.len()
        );
        Self {
            pattern_len,
            data: stream,
        }
    }

    /// `true` if every cube of `self` covers the corresponding cube of
    /// `other` (same counts/lengths, all care bits of `other` preserved).
    pub fn covers(&self, other: &TestSet) -> bool {
        self.pattern_len == other.pattern_len
            && self.data.len() == other.data.len()
            && self.data.covers(&other.data)
    }
}

impl fmt::Debug for TestSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "TestSet({} patterns x {} cells, {:.1}% X)",
            self.num_patterns(),
            self.pattern_len,
            self.x_density() * 100.0
        )
    }
}

impl fmt::Display for TestSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for p in self.pattern_slices() {
            fmt::Display::fmt(&p, f)?;
            f.write_str("\n")?;
        }
        Ok(())
    }
}

/// Iterator over the cubes of a [`TestSet`].
#[derive(Debug, Clone)]
pub struct Patterns<'a> {
    set: &'a TestSet,
    index: usize,
}

impl Iterator for Patterns<'_> {
    type Item = TritVec;

    fn next(&mut self) -> Option<TritVec> {
        if self.index >= self.set.num_patterns() {
            return None;
        }
        let p = self.set.pattern(self.index);
        self.index += 1;
        Some(p)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.set.num_patterns() - self.index;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for Patterns<'_> {}

/// Error returned when a cube's length does not match its set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatternLengthError {
    /// The set's pattern length.
    pub expected: usize,
    /// The offered cube's length.
    pub found: usize,
}

impl fmt::Display for PatternLengthError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "pattern length mismatch: expected {}, found {}",
            self.expected, self.found
        )
    }
}

impl std::error::Error for PatternLengthError {}

/// Error returned by [`TestSet::from_patterns`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildTestSetError {
    /// A pattern failed to parse.
    Parse {
        /// Index of the offending pattern.
        index: usize,
        /// The parse failure.
        source: ParseTritError,
    },
    /// A pattern had the wrong length.
    Length {
        /// Index of the offending pattern.
        index: usize,
        /// Expected length.
        expected: usize,
        /// Actual length.
        found: usize,
    },
}

impl fmt::Display for BuildTestSetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildTestSetError::Parse { index, source } => {
                write!(f, "pattern {index}: {source}")
            }
            BuildTestSetError::Length {
                index,
                expected,
                found,
            } => {
                write!(
                    f,
                    "pattern {index}: expected length {expected}, found {found}"
                )
            }
        }
    }
}

impl std::error::Error for BuildTestSetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BuildTestSetError::Parse { source, .. } => Some(source),
            BuildTestSetError::Length { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_iterate() {
        let ts = TestSet::from_patterns(3, ["01X", "1X0", "XXX"]).unwrap();
        assert_eq!(ts.num_patterns(), 3);
        assert_eq!(ts.total_bits(), 9);
        let all: Vec<String> = ts.patterns().map(|p| p.to_string()).collect();
        assert_eq!(all, vec!["01X", "1X0", "XXX"]);
    }

    #[test]
    fn rejects_wrong_length() {
        let err = TestSet::from_patterns(3, ["01"]).unwrap_err();
        assert!(matches!(
            err,
            BuildTestSetError::Length {
                index: 0,
                expected: 3,
                found: 2
            }
        ));
    }

    #[test]
    fn rejects_bad_char() {
        let err = TestSet::from_patterns(3, ["01Z"]).unwrap_err();
        assert!(matches!(err, BuildTestSetError::Parse { index: 0, .. }));
    }

    #[test]
    fn stream_roundtrip() {
        let ts = TestSet::from_patterns(2, ["01", "X1"]).unwrap();
        let stream = ts.clone().into_stream();
        assert_eq!(stream.to_string(), "01X1");
        let back = TestSet::from_stream(2, stream);
        assert_eq!(back, ts);
    }

    #[test]
    fn covering() {
        let cubes = TestSet::from_patterns(3, ["0XX", "X1X"]).unwrap();
        let filled = TestSet::from_patterns(3, ["010", "110"]).unwrap();
        assert!(filled.covers(&cubes));
        assert!(!cubes.covers(&filled));
    }

    #[test]
    fn x_density_of_set() {
        let ts = TestSet::from_patterns(4, ["XXXX", "0101"]).unwrap();
        assert!((ts.x_density() - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn from_stream_checks_multiple() {
        let stream: TritVec = "011".parse().unwrap();
        let _ = TestSet::from_stream(2, stream);
    }
}
