//! Text serialization of test sets.
//!
//! The format is the de-facto academic "cube file": optional `#` comment
//! lines, then one pattern per line over `0`, `1`, `X`/`-`. All lines must
//! have equal length. This is close enough to Mintest-style dumps that real
//! test sets can be dropped in when available.

use crate::cube::TestSet;
use crate::text;
use crate::trit::TritVec;
use std::fmt;
use std::fs;
use std::io::{self, Write};
use std::path::Path;

/// Parses a test set from cube-file text.
///
/// Each pattern line is appended straight into the set's packed planes
/// by the word-level parser in [`crate::text`].
///
/// # Errors
///
/// Returns [`ReadTestSetError`] if no patterns are present, a line fails to
/// parse, or line lengths disagree.
///
/// # Examples
///
/// ```
/// use ninec_testdata::io::parse_test_set;
///
/// let text = "# two cubes\n01XX\nX-10\n";
/// let ts = parse_test_set(text)?;
/// assert_eq!(ts.num_patterns(), 2);
/// assert_eq!(ts.pattern(1).to_string(), "XX10");
/// # Ok::<(), ninec_testdata::io::ReadTestSetError>(())
/// ```
pub fn parse_test_set(text: &str) -> Result<TestSet, ReadTestSetError> {
    // One symbol per byte at most: a single allocation per plane.
    let mut data = TritVec::with_capacity(text.len());
    let mut pattern_len = 0;
    for (line_no, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let before = data.len();
        data.extend_from_text(line)
            .map_err(|source| ReadTestSetError::Parse {
                line: line_no + 1,
                source,
            })?;
        let found = data.len() - before;
        if pattern_len == 0 {
            pattern_len = found;
        } else if found != pattern_len {
            return Err(ReadTestSetError::Length {
                line: line_no + 1,
                expected: pattern_len,
                found,
            });
        }
    }
    if pattern_len == 0 {
        return Err(ReadTestSetError::Empty);
    }
    Ok(TestSet::from_stream(pattern_len, data))
}

/// The cube file's first line: `# <n> patterns x <len> cells`.
fn header(set: &TestSet) -> String {
    format!(
        "# {} patterns x {} cells\n",
        set.num_patterns(),
        set.pattern_len()
    )
}

/// Renders a test set as cube-file text (one pattern per line) into one
/// pre-sized buffer.
pub fn format_test_set(set: &TestSet) -> String {
    let header = header(set);
    let mut out = Vec::with_capacity(header.len() + set.total_bits() + set.num_patterns());
    out.extend_from_slice(header.as_bytes());
    for p in set.pattern_slices() {
        text::push_text(&mut out, p);
        out.push(b'\n');
    }
    String::from_utf8(out).expect("header and glyphs are ASCII")
}

/// Reads a cube file from disk.
///
/// # Errors
///
/// I/O failures and format errors are both reported via
/// [`ReadTestSetError`].
pub fn read_test_set_file<P: AsRef<Path>>(path: P) -> Result<TestSet, ReadTestSetError> {
    let text = fs::read_to_string(path).map_err(ReadTestSetError::Io)?;
    parse_test_set(&text)
}

/// Writes a cube file to disk (the bytes of [`format_test_set`]),
/// streaming it through a buffered writer instead of building the whole
/// text first.
///
/// # Errors
///
/// Returns any underlying I/O error.
pub fn write_test_set_file<P: AsRef<Path>>(path: P, set: &TestSet) -> io::Result<()> {
    let mut w = io::BufWriter::new(fs::File::create(path)?);
    w.write_all(header(set).as_bytes())?;
    for p in set.pattern_slices() {
        text::write_chunks(p, |s| w.write_all(s.as_bytes()))?;
        w.write_all(b"\n")?;
    }
    w.flush()
}

/// Error returned when reading a cube file fails.
#[derive(Debug)]
pub enum ReadTestSetError {
    /// The file contained no patterns.
    Empty,
    /// A line contained an invalid character.
    Parse {
        /// 1-based line number.
        line: usize,
        /// Underlying parse failure.
        source: crate::trit::ParseTritError,
    },
    /// A line's length disagreed with the first pattern's.
    Length {
        /// 1-based line number.
        line: usize,
        /// Expected pattern length.
        expected: usize,
        /// Actual line length.
        found: usize,
    },
    /// The file could not be read.
    Io(io::Error),
}

impl fmt::Display for ReadTestSetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReadTestSetError::Empty => write!(f, "cube file contains no patterns"),
            ReadTestSetError::Parse { line, source } => write!(f, "line {line}: {source}"),
            ReadTestSetError::Length {
                line,
                expected,
                found,
            } => {
                write!(f, "line {line}: expected length {expected}, found {found}")
            }
            ReadTestSetError::Io(e) => write!(f, "cube file i/o error: {e}"),
        }
    }
}

impl std::error::Error for ReadTestSetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReadTestSetError::Parse { source, .. } => Some(source),
            ReadTestSetError::Io(e) => Some(e),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_skips_comments_and_blanks() {
        let ts = parse_test_set("# header\n\n01X\n# mid\n1-0\n").unwrap();
        assert_eq!(ts.num_patterns(), 2);
        assert_eq!(ts.pattern_len(), 3);
    }

    #[test]
    fn format_parse_roundtrip() {
        let ts = TestSet::from_patterns(5, ["01XX1", "XXXXX", "10101"]).unwrap();
        let text = format_test_set(&ts);
        let back = parse_test_set(&text).unwrap();
        assert_eq!(back, ts);
    }

    #[test]
    fn empty_is_an_error() {
        assert!(matches!(
            parse_test_set("# nothing\n"),
            Err(ReadTestSetError::Empty)
        ));
    }

    #[test]
    fn length_mismatch_reports_line() {
        let err = parse_test_set("01X\n0101\n").unwrap_err();
        match err {
            ReadTestSetError::Length {
                line,
                expected,
                found,
            } => {
                assert_eq!((line, expected, found), (2, 3, 4));
            }
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn bad_char_reports_line() {
        let err = parse_test_set("01X\n0z1\n").unwrap_err();
        assert!(matches!(err, ReadTestSetError::Parse { line: 2, .. }));
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("ninec_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cubes.txt");
        let ts = TestSet::from_patterns(3, ["01X", "XX1"]).unwrap();
        write_test_set_file(&path, &ts).unwrap();
        let back = read_test_set_file(&path).unwrap();
        assert_eq!(back, ts);
        std::fs::remove_file(&path).ok();
    }
}
