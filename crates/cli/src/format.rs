//! The `.te` compressed-stream file format.
//!
//! A small, self-describing text container for a 9C-compressed test set:
//!
//! ```text
//! # ninec compressed test stream
//! k: 8
//! source-len: 23754
//! pattern-len: 214
//! lengths: 1 2 5 5 5 5 5 5 4
//! data:
//! 0110100111010...
//! ```
//!
//! `lengths` records the (possibly frequency-reassigned) codeword lengths
//! so the matching decoder can be reconstructed; `data` lines may contain
//! `X` when the leftover don't-cares were kept for fill-at-the-ATE flows.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use ninec::code::CodeTable;
use ninec::encode::Encoded;
use ninec_testdata::text;
use ninec_testdata::trit::TritVec;
use std::fmt;

/// A parsed `.te` file.
#[derive(Debug, Clone, PartialEq)]
pub struct TeFile {
    /// Block size `K`.
    pub k: usize,
    /// `|T_D|` — decoded length in symbols.
    pub source_len: usize,
    /// Scan length of the original set (0 when unknown).
    pub pattern_len: usize,
    /// The code table (from its lengths).
    pub table: CodeTable,
    /// The compressed stream (may contain `X`).
    pub stream: TritVec,
}

impl TeFile {
    /// Captures an [`Encoded`] value (plus the originating pattern length)
    /// into a `.te` structure.
    pub fn from_encoded(encoded: &Encoded, pattern_len: usize) -> Self {
        Self {
            k: encoded.k(),
            source_len: encoded.source_len(),
            pattern_len,
            table: encoded.table().clone(),
            stream: encoded.stream().clone(),
        }
    }

    /// Renders the file; data lines hold 72 trits each.
    pub fn to_text(&self) -> String {
        let lengths: Vec<String> = self.table.lengths().iter().map(u8::to_string).collect();
        let header = format!(
            "# ninec compressed test stream\nk: {}\nsource-len: {}\npattern-len: {}\n\
             lengths: {}\ndata:\n",
            self.k,
            self.source_len,
            self.pattern_len,
            lengths.join(" ")
        );
        let n = self.stream.len();
        let mut out = Vec::with_capacity(header.len() + n + n.div_ceil(72));
        out.extend_from_slice(header.as_bytes());
        for line in self.stream.chunks(72) {
            text::push_text(&mut out, line);
            out.push(b'\n');
        }
        // The header and the trit glyphs are ASCII, so the lossy branch
        // never runs; it keeps the conversion total.
        String::from_utf8(out)
            .unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned())
    }

    /// Parses a `.te` file.
    ///
    /// # Errors
    ///
    /// Returns [`ParseTeError`] on missing/invalid headers or bad data
    /// characters.
    pub fn parse(text: &str) -> Result<Self, ParseTeError> {
        let mut k = None;
        let mut source_len = None;
        let mut pattern_len = 0usize;
        let mut lengths: Option<[u8; 9]> = None;
        let mut lines = text.lines().enumerate();
        let mut has_data = false;
        for (no, raw) in lines.by_ref() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if line == "data:" {
                has_data = true;
                break;
            }
            let (key, value) = line
                .split_once(':')
                .ok_or(ParseTeError::Malformed { line: no + 1 })?;
            let value = value.trim();
            match key.trim() {
                "k" => k = Some(parse_usize(value, no + 1)?),
                "source-len" => source_len = Some(parse_usize(value, no + 1)?),
                "pattern-len" => pattern_len = parse_usize(value, no + 1)?,
                "lengths" => {
                    let parts: Vec<u8> = value
                        .split_whitespace()
                        .map(|p| p.parse::<u8>())
                        .collect::<Result<_, _>>()
                        .map_err(|_| ParseTeError::Malformed { line: no + 1 })?;
                    let arr: [u8; 9] = parts
                        .try_into()
                        .map_err(|_| ParseTeError::Malformed { line: no + 1 })?;
                    lengths = Some(arr);
                }
                _ => return Err(ParseTeError::UnknownKey { line: no + 1 }),
            }
        }
        if !has_data {
            return Err(ParseTeError::MissingField { field: "data" });
        }
        let mut stream = TritVec::new();
        for (no, raw) in lines {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            stream
                .extend_from_text(line)
                .map_err(|_| ParseTeError::Malformed { line: no + 1 })?;
        }
        let lengths = lengths.ok_or(ParseTeError::MissingField { field: "lengths" })?;
        let table = CodeTable::from_lengths(&lengths).map_err(|_| ParseTeError::BadLengths)?;
        Ok(Self {
            k: k.ok_or(ParseTeError::MissingField { field: "k" })?,
            source_len: source_len.ok_or(ParseTeError::MissingField {
                field: "source-len",
            })?,
            pattern_len,
            table,
            stream,
        })
    }

    /// Decodes the stream back to `|T_D|` symbols.
    ///
    /// # Errors
    ///
    /// Propagates [`ninec::decode::DecodeError`].
    pub fn decode(&self) -> Result<TritVec, ninec::decode::DecodeError> {
        ninec::session::DecodeSession::new()
            .k(self.k)
            .table(self.table.clone())
            .source_len(self.source_len)
            .decode_trits(&self.stream)
    }
}

fn parse_usize(s: &str, line: usize) -> Result<usize, ParseTeError> {
    s.parse().map_err(|_| ParseTeError::Malformed { line })
}

/// Error parsing a `.te` file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseTeError {
    /// Line did not match the expected structure.
    Malformed {
        /// 1-based line number.
        line: usize,
    },
    /// Unknown header key.
    UnknownKey {
        /// 1-based line number.
        line: usize,
    },
    /// A required header was missing.
    MissingField {
        /// The missing field's name.
        field: &'static str,
    },
    /// The codeword lengths violate the Kraft inequality.
    BadLengths,
}

impl fmt::Display for ParseTeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseTeError::Malformed { line } => write!(f, "line {line}: malformed"),
            ParseTeError::UnknownKey { line } => write!(f, "line {line}: unknown header key"),
            ParseTeError::MissingField { field } => write!(f, "missing required field {field:?}"),
            ParseTeError::BadLengths => write!(f, "codeword lengths are not a valid prefix code"),
        }
    }
}

impl std::error::Error for ParseTeError {}

#[cfg(test)]
mod tests {
    use super::*;
    use ninec::encode::Encoder;
    use ninec_testdata::gen::SyntheticProfile;

    #[test]
    fn roundtrip_through_text() {
        let ts = SyntheticProfile::new("te", 10, 60, 0.7).generate(1);
        let encoded = Encoder::new(8).unwrap().encode_set(&ts);
        let te = TeFile::from_encoded(&encoded, ts.pattern_len());
        let text = te.to_text();
        let back = TeFile::parse(&text).unwrap();
        assert_eq!(back, te);
        let decoded = back.decode().unwrap();
        assert_eq!(decoded.len(), ts.total_bits());
    }

    #[test]
    fn long_streams_wrap_lines() {
        let ts = SyntheticProfile::new("wrap", 10, 200, 0.4).generate(2);
        let encoded = Encoder::new(8).unwrap().encode_set(&ts);
        let te = TeFile::from_encoded(&encoded, ts.pattern_len());
        let text = te.to_text();
        assert!(text.lines().all(|l| l.len() <= 72));
        assert_eq!(TeFile::parse(&text).unwrap().stream, te.stream);
    }

    #[test]
    fn missing_fields_rejected() {
        assert_eq!(
            TeFile::parse("k: 8\ndata:\n0\n"),
            Err(ParseTeError::MissingField { field: "lengths" })
        );
        assert_eq!(
            TeFile::parse("k: 8\n"),
            Err(ParseTeError::MissingField { field: "data" })
        );
    }

    #[test]
    fn bad_headers_rejected() {
        assert!(matches!(
            TeFile::parse("k: eight\ndata:\n"),
            Err(ParseTeError::Malformed { line: 1 })
        ));
        assert!(matches!(
            TeFile::parse("frobnicate: 1\ndata:\n"),
            Err(ParseTeError::UnknownKey { line: 1 })
        ));
        assert_eq!(
            TeFile::parse("k: 8\nsource-len: 8\nlengths: 1 1 5 5 5 5 5 5 4\ndata:\n0\n"),
            Err(ParseTeError::BadLengths)
        );
    }

    #[test]
    fn keeps_x_in_data() {
        let te_text =
            "k: 8\nsource-len: 8\npattern-len: 8\nlengths: 1 2 5 5 5 5 5 5 4\ndata:\n1110001X\n0\n";
        // "11100" = C5, payload "01X0"? Construct consistently instead:
        let te = TeFile::parse(te_text).unwrap();
        assert_eq!(te.stream.count_x(), 1);
    }
}
