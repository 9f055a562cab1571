//! Length-prefixed request/response framing for the codec service.
//!
//! Every message is `[u32 le length][payload]` where `length` counts the
//! payload bytes that follow the prefix. A request payload is
//! `[op u8][body]`; a response payload is `[status u8][flags u8][body]`.
//! The frame length is capped ([`DEFAULT_MAX_MESSAGE_BYTES`], overridable
//! per reader) so a hostile peer cannot make either side allocate
//! unboundedly off a four-byte header — the same discipline
//! [`DecodeLimits`](ninec::engine::DecodeLimits) applies to `9CSF` frame
//! headers, applied one layer down.
//!
//! Response statuses deliberately mirror the CLI exit-code contract
//! (`0` ok / `2` bad request / `3` failed / `4` io / `5` partial
//! recovery) so a thin client can `exit(status)` and scripts observe the
//! same numbers either way; `6` (busy), `7` (rate limited) and `8`
//! (deadline exceeded) extend the contract with outcomes that only exist
//! over the wire.
//!
//! ## Per-request deadlines (HELLO-negotiated)
//!
//! A client that wants deadline propagation appends capability tokens to
//! its `HELLO` body: `tenant_name deadline` (whitespace-separated). A
//! server that supports the capability echoes `caps deadline` in its
//! greeting; from then on, every **non-HELLO** request body on that
//! connection is prefixed with `[deadline_ms u32 le]` (`0` = none), and
//! the server decodes under `min(client deadline, max_request_time)`.
//! Old clients send a bare tenant name and are byte-for-byte unaffected.

use ninec_testdata::slice::TritSlice;
use ninec_testdata::text;
use std::io::{Read, Write};

/// Default per-message size cap, request and response alike (64 MiB).
pub const DEFAULT_MAX_MESSAGE_BYTES: usize = 64 << 20;

/// Wire protocol revision, exchanged in the `HELLO` greeting.
pub const PROTOCOL_VERSION: u8 = 1;

/// Response flag bit: the server answered in degraded (strict-only) mode.
pub const FLAG_DEGRADED: u8 = 0b0000_0001;

/// `HELLO` capability token requesting per-request deadline prefixes.
pub const CAP_DEADLINE: &str = "deadline";

/// Splits a deadline-capable request body into `(deadline_ms, rest)`.
/// Only called on connections that negotiated [`CAP_DEADLINE`]; a body
/// shorter than the 4-byte prefix is `None` (malformed).
#[must_use]
pub fn split_deadline(body: &[u8]) -> Option<(u32, &[u8])> {
    if body.len() < 4 {
        return None;
    }
    let ms = u32::from_le_bytes([body[0], body[1], body[2], body[3]]);
    Some((ms, &body[4..]))
}

/// Request verbs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Op {
    /// Bind the connection to a tenant: body = tenant name (UTF-8).
    Hello = 1,
    /// Encode a trit stream: body = `[k u16 le][trit text]`, response
    /// body = `9CSF` frame bytes.
    Compress = 2,
    /// Decode a `9CSF` frame: body = `[policy u8][frame bytes]`,
    /// response body = `[rung u8][damaged u32 le][trit text]`.
    Decode = 3,
    /// Summarise a frame without decoding payloads: body = frame bytes,
    /// response body = human-readable text.
    Info = 4,
    /// Sugar for [`Op::Decode`] with the repair policy: body = frame
    /// bytes, same response body as decode.
    Repair = 5,
    /// Random-access decode of a trit range from the server's hosted
    /// `9CA` archive: body = `[frame u32 le][start u64 le][len u64 le]`
    /// (see [`encode_archive_range`]), response body = trit text. Only
    /// the referenced segments are read and decoded — the point of the
    /// archive's seek index, carried over the wire.
    ArchiveRange = 6,
}

impl Op {
    /// Parses a request opcode byte.
    #[must_use]
    pub fn from_byte(byte: u8) -> Option<Self> {
        match byte {
            1 => Some(Op::Hello),
            2 => Some(Op::Compress),
            3 => Some(Op::Decode),
            4 => Some(Op::Info),
            5 => Some(Op::Repair),
            6 => Some(Op::ArchiveRange),
            _ => None,
        }
    }
}

/// Builds an [`Op::ArchiveRange`] body: frame index, then the trit
/// range's start and length, all little-endian.
#[must_use]
pub fn encode_archive_range(frame: u32, start: u64, len: u64) -> [u8; 20] {
    let mut body = [0u8; 20];
    body[..4].copy_from_slice(&frame.to_le_bytes());
    body[4..12].copy_from_slice(&start.to_le_bytes());
    body[12..].copy_from_slice(&len.to_le_bytes());
    body
}

/// Inverse of [`encode_archive_range`]; `None` for a body that is not
/// exactly the 20-byte coordinate triple.
#[must_use]
pub fn split_archive_range(body: &[u8]) -> Option<(u32, u64, u64)> {
    let coords: &[u8; 20] = body.try_into().ok()?;
    let frame = u32::from_le_bytes([coords[0], coords[1], coords[2], coords[3]]);
    let mut start = [0u8; 8];
    start.copy_from_slice(&coords[4..12]);
    let mut len = [0u8; 8];
    len.copy_from_slice(&coords[12..]);
    Some((frame, u64::from_le_bytes(start), u64::from_le_bytes(len)))
}

/// Response statuses. `Ok`/`BadRequest`/`Failed`/`Io`/`Partial` carry the
/// same numbers as the CLI exit-code contract; `Busy` and `RateLimited`
/// are the service's two load-shedding refusals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Status {
    /// Request succeeded; body is the verb's payload.
    Ok = 0,
    /// The request itself was malformed (unknown tenant, bad policy
    /// byte, unparseable trit text). Mirrors CLI exit code 2.
    BadRequest = 2,
    /// The operation ran and failed (typed codec error); body is the
    /// error text. Mirrors CLI exit code 3.
    Failed = 3,
    /// An I/O-level problem on the server side. Mirrors CLI exit code 4.
    Io = 4,
    /// Decode succeeded lossily (salvage erased damage to `X`); body is
    /// the normal decode payload. Mirrors CLI exit code 5.
    Partial = 5,
    /// Load shed: the server refused the work before starting it.
    /// Retry later — nothing was decoded.
    Busy = 6,
    /// The tenant's token bucket is empty. Retry after a pause.
    RateLimited = 7,
    /// The request's deadline (client-sent or the server's
    /// `max_request_time`) passed before the decode finished; in-flight
    /// work was cancelled at the next segment boundary.
    DeadlineExceeded = 8,
}

impl Status {
    /// Parses a response status byte.
    #[must_use]
    pub fn from_byte(byte: u8) -> Option<Self> {
        match byte {
            0 => Some(Status::Ok),
            2 => Some(Status::BadRequest),
            3 => Some(Status::Failed),
            4 => Some(Status::Io),
            5 => Some(Status::Partial),
            6 => Some(Status::Busy),
            7 => Some(Status::RateLimited),
            8 => Some(Status::DeadlineExceeded),
            _ => None,
        }
    }

    /// `true` for the two statuses that deliver a decode payload
    /// ([`Status::Ok`] and [`Status::Partial`]).
    #[must_use]
    pub fn carries_payload(self) -> bool {
        matches!(self, Status::Ok | Status::Partial)
    }
}

/// Decode policy bytes carried in [`Op::Decode`] bodies.
#[must_use]
pub fn policy_to_byte(policy: ninec::Policy) -> u8 {
    match policy {
        ninec::Policy::Strict => 0,
        ninec::Policy::Repair => 1,
        ninec::Policy::Salvage => 2,
        // `Policy` is non-exhaustive; unknown future rungs degrade to
        // strict, the fail-closed end of the ladder.
        _ => 0,
    }
}

/// Inverse of [`policy_to_byte`]; `None` for bytes no rung answers to.
#[must_use]
pub fn policy_from_byte(byte: u8) -> Option<ninec::Policy> {
    match byte {
        0 => Some(ninec::Policy::Strict),
        1 => Some(ninec::Policy::Repair),
        2 => Some(ninec::Policy::Salvage),
        _ => None,
    }
}

/// Ladder-rung bytes carried in decode response bodies.
#[must_use]
pub fn rung_to_byte(rung: ninec::RungKind) -> u8 {
    match rung {
        ninec::RungKind::None => 0,
        ninec::RungKind::Strict => 1,
        ninec::RungKind::Repaired => 2,
        ninec::RungKind::Salvaged => 3,
    }
}

/// Inverse of [`rung_to_byte`]; `None` for unknown bytes.
#[must_use]
pub fn rung_from_byte(byte: u8) -> Option<ninec::RungKind> {
    match byte {
        0 => Some(ninec::RungKind::None),
        1 => Some(ninec::RungKind::Strict),
        2 => Some(ninec::RungKind::Repaired),
        3 => Some(ninec::RungKind::Salvaged),
        _ => None,
    }
}

/// A parsed response frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// The outcome class (mirrors the CLI exit-code contract).
    pub status: Status,
    /// Raw flag byte; see [`FLAG_DEGRADED`].
    pub flags: u8,
    /// Verb-specific payload, or UTF-8 error text on failure statuses.
    pub body: Vec<u8>,
}

impl Response {
    /// `true` when the server answered in degraded (strict-only) mode.
    #[must_use]
    pub fn degraded(&self) -> bool {
        self.flags & FLAG_DEGRADED != 0
    }

    /// The body as UTF-8 text (lossy), for error statuses and `INFO`.
    #[must_use]
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// Typed framing failures, split the same way the `9CSF` byte parser
/// splits them: transport errors, torn frames, cap violations and
/// out-of-grammar bytes each get their own variant.
#[derive(Debug)]
#[non_exhaustive]
pub enum WireError {
    /// The underlying socket failed.
    Io(std::io::Error),
    /// The peer closed mid-message (a clean close *between* messages is
    /// not an error — see [`read_request`]).
    Truncated,
    /// The length prefix claims more than the configured cap.
    TooLarge {
        /// Claimed payload length.
        claimed: usize,
        /// The enforced ceiling.
        max: usize,
    },
    /// A zero-length payload (every message carries at least an opcode
    /// or a status byte).
    Empty,
    /// Unknown request opcode.
    UnknownOp(u8),
    /// Unknown response status byte.
    UnknownStatus(u8),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "socket error: {e}"),
            WireError::Truncated => write!(f, "peer closed the connection mid-message"),
            WireError::TooLarge { claimed, max } => {
                write!(f, "message claims {claimed} bytes, cap is {max}")
            }
            WireError::Empty => write!(f, "zero-length message"),
            WireError::UnknownOp(b) => write!(f, "unknown request opcode {b}"),
            WireError::UnknownStatus(b) => write!(f, "unknown response status {b}"),
        }
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WireError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

/// Reads exactly `buf.len()` bytes; maps a mid-read EOF to
/// [`WireError::Truncated`].
fn read_exact(r: &mut impl Read, buf: &mut [u8]) -> Result<(), WireError> {
    r.read_exact(buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            WireError::Truncated
        } else {
            WireError::Io(e)
        }
    })
}

/// Reads one length prefix + payload, enforcing `max` payload bytes.
/// Returns `None` on a clean EOF *before* the first prefix byte — the
/// peer hung up between messages, which is how every conversation ends.
fn read_message(r: &mut impl Read, max: usize) -> Result<Option<Vec<u8>>, WireError> {
    let mut prefix = [0u8; 4];
    let mut got = 0usize;
    while got < prefix.len() {
        match r.read(&mut prefix[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => return Err(WireError::Truncated),
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    let len = u32::from_le_bytes(prefix) as usize;
    if len == 0 {
        return Err(WireError::Empty);
    }
    if len > max {
        return Err(WireError::TooLarge { claimed: len, max });
    }
    let mut payload = vec![0u8; len];
    read_exact(r, &mut payload)?;
    Ok(Some(payload))
}

/// Writes one length prefix + payload (`parts` concatenated).
fn write_message(w: &mut impl Write, parts: &[&[u8]]) -> std::io::Result<()> {
    let len: usize = parts.iter().map(|p| p.len()).sum();
    let len = u32::try_from(len).map_err(|_| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "message exceeds u32 length",
        )
    })?;
    w.write_all(&len.to_le_bytes())?;
    for part in parts {
        w.write_all(part)?;
    }
    w.flush()
}

/// Writes one request frame.
///
/// # Errors
///
/// Propagates socket errors; fails without writing when `body` exceeds
/// the `u32` length prefix.
pub fn write_request(w: &mut impl Write, op: Op, body: &[u8]) -> std::io::Result<()> {
    write_request_parts(w, op, &[body])
}

/// Writes one request frame whose body is `parts` concatenated, without
/// joining them into one buffer first (a large text body is sent from
/// where it lies).
///
/// # Errors
///
/// As [`write_request`].
pub fn write_request_parts(w: &mut impl Write, op: Op, parts: &[&[u8]]) -> std::io::Result<()> {
    let op = [op as u8];
    let mut all = Vec::with_capacity(parts.len() + 1);
    all.push(&op[..]);
    all.extend_from_slice(parts);
    write_message(w, &all)
}

/// Reads one request frame. `Ok(None)` means the peer closed cleanly
/// between messages.
///
/// # Errors
///
/// [`WireError`] on socket failure, a torn/oversized/empty frame, or an
/// unknown opcode.
pub fn read_request(r: &mut impl Read, max: usize) -> Result<Option<(Op, Vec<u8>)>, WireError> {
    let Some(mut payload) = read_message(r, max)? else {
        return Ok(None);
    };
    let op = Op::from_byte(payload[0]).ok_or(WireError::UnknownOp(payload[0]))?;
    // The body moves down in place: a text body is not copied.
    payload.drain(..1);
    Ok(Some((op, payload)))
}

/// Writes one response frame.
///
/// # Errors
///
/// Propagates socket errors; fails without writing when `body` exceeds
/// the `u32` length prefix.
pub fn write_response(
    w: &mut impl Write,
    status: Status,
    flags: u8,
    body: &[u8],
) -> std::io::Result<()> {
    write_message(w, &[&[status as u8, flags], body])
}

/// Trits rendered per write by [`write_text_response`].
const TEXT_CHUNK_TRITS: usize = 16 * 1024;

/// Writes one response frame whose body is `head` followed by the trit
/// text of `trits` (one byte per trit), rendering the text in bounded
/// chunks as it goes: the same bytes as [`write_response`] of the joined
/// body, without ever holding the whole text.
///
/// # Errors
///
/// As [`write_response`].
pub fn write_text_response(
    w: &mut impl Write,
    status: Status,
    flags: u8,
    head: &[u8],
    trits: TritSlice<'_>,
) -> std::io::Result<()> {
    let len = u32::try_from(2 + head.len() + trits.len()).map_err(|_| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "message exceeds u32 length",
        )
    })?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(&[status as u8, flags])?;
    w.write_all(head)?;
    let mut chunk = Vec::with_capacity(TEXT_CHUNK_TRITS.min(trits.len()));
    let mut at = 0;
    while at < trits.len() {
        let end = (at + TEXT_CHUNK_TRITS).min(trits.len());
        chunk.clear();
        text::push_text(&mut chunk, trits.subslice(at, end));
        w.write_all(&chunk)?;
        at = end;
    }
    w.flush()
}

/// Reads one response frame. `Ok(None)` means the server closed cleanly.
///
/// # Errors
///
/// [`WireError`] on socket failure, a torn/oversized/empty frame, or an
/// unknown status byte.
pub fn read_response(r: &mut impl Read, max: usize) -> Result<Option<Response>, WireError> {
    let Some(mut payload) = read_message(r, max)? else {
        return Ok(None);
    };
    let status = Status::from_byte(payload[0]).ok_or(WireError::UnknownStatus(payload[0]))?;
    let flags = payload.get(1).copied().unwrap_or(0);
    // The body moves down in place: a text body is not copied.
    payload.drain(..payload.len().min(2));
    Ok(Some(Response {
        status,
        flags,
        body: payload,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrips_through_a_buffer() {
        let mut buf = Vec::new();
        write_request(&mut buf, Op::Decode, b"payload").unwrap();
        let (op, body) = read_request(&mut buf.as_slice(), DEFAULT_MAX_MESSAGE_BYTES)
            .unwrap()
            .unwrap();
        assert_eq!(op, Op::Decode);
        assert_eq!(body, b"payload");
    }

    #[test]
    fn response_roundtrips_and_reports_flags() {
        let mut buf = Vec::new();
        write_response(&mut buf, Status::Partial, FLAG_DEGRADED, b"text").unwrap();
        let resp = read_response(&mut buf.as_slice(), DEFAULT_MAX_MESSAGE_BYTES)
            .unwrap()
            .unwrap();
        assert_eq!(resp.status, Status::Partial);
        assert!(resp.degraded());
        assert_eq!(resp.text(), "text");
    }

    #[test]
    fn text_response_matches_the_joined_body() {
        let trits: ninec_testdata::trit::TritVec =
            "01X".repeat(TEXT_CHUNK_TRITS / 2 + 7).parse().unwrap();
        let head = [3u8, 1, 0, 0, 0];
        let mut body = head.to_vec();
        text::push_text(&mut body, trits.as_slice());
        let mut joined = Vec::new();
        write_response(&mut joined, Status::Partial, FLAG_DEGRADED, &body).unwrap();
        let mut streamed = Vec::new();
        write_text_response(
            &mut streamed,
            Status::Partial,
            FLAG_DEGRADED,
            &head,
            trits.as_slice(),
        )
        .unwrap();
        assert_eq!(streamed, joined);
    }

    #[test]
    fn clean_eof_is_none_torn_prefix_is_truncated() {
        let empty: &[u8] = &[];
        assert!(matches!(read_request(&mut { empty }, 1024), Ok(None)));
        let torn: &[u8] = &[7, 0]; // half a length prefix
        assert!(matches!(
            read_request(&mut { torn }, 1024),
            Err(WireError::Truncated)
        ));
        let body_cut: &[u8] = &[5, 0, 0, 0, 3]; // claims 5, delivers 1
        assert!(matches!(
            read_request(&mut { body_cut }, 1024),
            Err(WireError::Truncated)
        ));
    }

    #[test]
    fn length_bomb_is_rejected_before_allocating() {
        let bomb: &[u8] = &[0xFF, 0xFF, 0xFF, 0x7F, 0];
        assert!(matches!(
            read_request(&mut { bomb }, 1024),
            Err(WireError::TooLarge { claimed, max: 1024 }) if claimed == 0x7FFF_FFFF
        ));
    }

    #[test]
    fn zero_length_and_unknown_bytes_are_typed() {
        let empty_msg: &[u8] = &[0, 0, 0, 0];
        assert!(matches!(
            read_request(&mut { empty_msg }, 1024),
            Err(WireError::Empty)
        ));
        let bad_op: &[u8] = &[1, 0, 0, 0, 99];
        assert!(matches!(
            read_request(&mut { bad_op }, 1024),
            Err(WireError::UnknownOp(99))
        ));
        let bad_status: &[u8] = &[1, 0, 0, 0, 99];
        assert!(matches!(
            read_response(&mut { bad_status }, 1024),
            Err(WireError::UnknownStatus(99))
        ));
    }

    #[test]
    fn policy_and_rung_bytes_roundtrip() {
        for policy in [
            ninec::Policy::Strict,
            ninec::Policy::Repair,
            ninec::Policy::Salvage,
        ] {
            assert_eq!(policy_from_byte(policy_to_byte(policy)), Some(policy));
        }
        assert_eq!(policy_from_byte(9), None);
        for rung in [
            ninec::RungKind::None,
            ninec::RungKind::Strict,
            ninec::RungKind::Repaired,
            ninec::RungKind::Salvaged,
        ] {
            assert_eq!(rung_from_byte(rung_to_byte(rung)), Some(rung));
        }
        assert_eq!(rung_from_byte(9), None);
    }

    #[test]
    fn statuses_mirror_the_cli_exit_codes() {
        assert_eq!(Status::Ok as u8, 0);
        assert_eq!(Status::BadRequest as u8, 2);
        assert_eq!(Status::Failed as u8, 3);
        assert_eq!(Status::Io as u8, 4);
        assert_eq!(Status::Partial as u8, 5);
        assert_eq!(Status::Busy as u8, 6);
        assert_eq!(Status::RateLimited as u8, 7);
        assert_eq!(Status::DeadlineExceeded as u8, 8);
        assert_eq!(Status::from_byte(8), Some(Status::DeadlineExceeded));
        assert!(!Status::DeadlineExceeded.carries_payload());
    }

    #[test]
    fn archive_range_coordinates_roundtrip() {
        let body = encode_archive_range(7, 1 << 40, 96);
        assert_eq!(split_archive_range(&body), Some((7, 1 << 40, 96)));
        assert_eq!(split_archive_range(&body[..19]), None);
        assert_eq!(split_archive_range(&[0u8; 21]), None);
        assert_eq!(Op::from_byte(6), Some(Op::ArchiveRange));
    }

    #[test]
    fn deadline_prefix_splits_and_rejects_short_bodies() {
        let mut body = 1500u32.to_le_bytes().to_vec();
        body.extend_from_slice(b"frame");
        assert_eq!(split_deadline(&body), Some((1500, &b"frame"[..])));
        assert_eq!(split_deadline(&0u32.to_le_bytes()), Some((0, &[][..])));
        assert_eq!(split_deadline(&[1, 2, 3]), None);
    }
}
