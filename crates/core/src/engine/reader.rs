//! Bounded-memory streaming `9CSF` frame ingestion.
//!
//! [`FrameReader`] pulls a frame incrementally from any [`io::Read`](std::io::Read) —
//! a pipe, a socket, a file too large to map — and yields one
//! [`StreamItem`] per segment without ever materializing the whole
//! frame. Memory is bounded by the [`DecodeLimits`]: the internal
//! window never holds more than one maximal segment
//! ([`DecodeLimits::max_shard_bytes`]) plus one read chunk.
//!
//! The reader is *scan-shaped*, not parse-shaped: segment-level damage
//! (a bad CRC, a torn write, a truncated tail) never fails the stream.
//! Instead the reader resynchronises — probing forward inside its
//! window for the next CRC-valid segment or parity marker, the
//! streaming twin of the in-memory salvage scan, with the same
//! [`DecodeLimits::max_resync_probes`] budget — and reports the skipped
//! bytes as a [`StreamItem::Damaged`] entry. Strict consumers (the
//! engine's [`Engine::decode_stream`]) turn damage into typed errors;
//! salvage consumers may keep going.
//!
//! Two ceilings guard against hostile or wedged sources:
//!
//! - every header-claimed size is checked against the `DecodeLimits`
//!   *before* the bytes are buffered (the same allocation-bomb guards
//!   as the in-memory parser);
//! - an optional per-read timeout ([`FrameReader::timeout`]) bounds how
//!   long any single underlying `read` may stall before the stream is
//!   abandoned with [`ReadError::TimedOut`].
//!
//! Repair needs random access to a whole parity group, whose members
//! are interleaved across the entire frame — so the streaming path
//! offers strict decode only. For the repair/salvage rungs, buffer the
//! frame and run [`Engine::build_plan`] + [`Engine::execute_plan`].

use crate::code::CodeTable;
use crate::decode::DecodeError;
use crate::engine::frame::{
    self, DamageReason, DecodeLimits, FrameError, HEADER_BYTES, HEADER_BYTES_V3, MAGIC,
    PARITY_MARKER, SEGMENT_HEADER_BYTES, VERSION_V3,
};
use crate::engine::{pool, Engine};
use ninec_testdata::trit::TritVec;
use std::fmt;
use std::io::Read;
use std::ops::Range;
use std::time::{Duration, Instant};

/// Bytes requested from the underlying reader per `read` call.
const READ_CHUNK: usize = 64 * 1024;

/// Error from streaming frame ingestion or streaming decode.
#[derive(Debug)]
#[non_exhaustive]
pub enum ReadError {
    /// The underlying reader failed.
    Io(std::io::Error),
    /// The frame structure is invalid (file-level damage, an exceeded
    /// limit, or — in strict decode — segment-level damage).
    Frame(FrameError),
    /// A CRC-valid segment still failed 9C decoding.
    Decode(DecodeError),
    /// A single underlying `read` stalled longer than the configured
    /// [`FrameReader::timeout`] budget.
    TimedOut {
        /// The configured per-read budget that was exceeded.
        limit: Duration,
    },
}

impl fmt::Display for ReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReadError::Io(e) => write!(f, "stream read failed: {e}"),
            ReadError::Frame(e) => write!(f, "{e}"),
            ReadError::Decode(e) => write!(f, "{e}"),
            ReadError::TimedOut { limit } => {
                write!(f, "stream read stalled past {limit:?}")
            }
        }
    }
}

impl std::error::Error for ReadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReadError::Io(e) => Some(e),
            ReadError::Frame(e) => Some(e),
            ReadError::Decode(e) => Some(e),
            ReadError::TimedOut { .. } => None,
        }
    }
}

impl From<std::io::Error> for ReadError {
    fn from(e: std::io::Error) -> Self {
        ReadError::Io(e)
    }
}

impl From<FrameError> for ReadError {
    fn from(e: FrameError) -> Self {
        ReadError::Frame(e)
    }
}

impl From<DecodeError> for ReadError {
    fn from(e: DecodeError) -> Self {
        ReadError::Decode(e)
    }
}

/// The frame's file header, as seen by a [`FrameReader`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamHeader {
    /// Codeword lengths of the stored 9C table.
    pub table_lengths: [u8; 9],
    /// Claimed data segment count.
    pub segments: usize,
    /// Claimed parity segment count (0 for v2 frames).
    pub parity_segments: usize,
    /// Total source trits the frame decodes to.
    pub source_len: usize,
    /// Frame version (2 or 3).
    pub version: u8,
    /// Data segments per parity group (0 = no parity).
    pub parity_g: u8,
    /// Parity shards per group.
    pub parity_r: u8,
}

/// One data segment pulled off the stream, owning its bytes
/// (header + payload — re-parseable and CRC-verifiable in isolation).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OwnedSegment {
    /// Walk position (segment index for undamaged streams).
    pub index: usize,
    /// Block size `K` the segment was encoded with.
    pub k: usize,
    /// Source trits the segment decodes to.
    pub source_trits: usize,
    /// Encoded payload trits.
    pub payload_trits: usize,
    /// The segment's full wire bytes.
    pub bytes: Vec<u8>,
}

/// One parity segment pulled off the stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OwnedParity {
    /// Parity group this shard protects.
    pub group: usize,
    /// Parity index within the group.
    pub pindex: usize,
    /// The GF(256) shard bytes (payload only).
    pub shard: Vec<u8>,
}

/// One classified region of the streamed frame body.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum StreamItem {
    /// A CRC-valid data segment.
    Data(OwnedSegment),
    /// A CRC-valid v3 parity segment.
    Parity(OwnedParity),
    /// A byte range that failed to parse and was resynchronised past.
    Damaged {
        /// Absolute byte range of the damage in the stream.
        byte_range: Range<usize>,
        /// What failed.
        reason: DamageReason,
        /// The damaged segment header's claimed source trits, when the
        /// header was readable (untrusted).
        claimed_source_trits: Option<usize>,
    },
}

/// Reader state: before, inside and after the frame body.
enum State {
    Header,
    Body,
    Done,
}

/// Incremental, bounded-memory `9CSF` frame reader (see module docs).
pub struct FrameReader<R> {
    inner: R,
    limits: DecodeLimits,
    timeout: Option<Duration>,
    /// Window of not-yet-consumed stream bytes.
    buf: Vec<u8>,
    /// Absolute stream offset of `buf[0]`.
    pos: usize,
    /// The underlying reader reported end-of-input.
    eof: bool,
    /// High-water mark of `buf.len()`, for bounded-memory assertions.
    peak: usize,
    /// Items yielded so far (also the next walk index).
    items: usize,
    /// Parsed file header, cached so [`FrameReader::header`] stays
    /// answerable after the stream has been fully consumed.
    head: Option<StreamHeader>,
    state: State,
}

impl<R: Read> FrameReader<R> {
    /// Wraps `inner` with [`DecodeLimits::default`] and no timeout.
    pub fn new(inner: R) -> Self {
        Self::with_limits(inner, DecodeLimits::default())
    }

    /// Wraps `inner` with caller-chosen limits.
    pub fn with_limits(inner: R, limits: DecodeLimits) -> Self {
        FrameReader {
            inner,
            limits,
            timeout: None,
            buf: Vec::new(),
            pos: 0,
            eof: false,
            peak: 0,
            items: 0,
            head: None,
            state: State::Header,
        }
    }

    /// Bounds how long any single underlying `read` may take. When a
    /// read's wall-clock exceeds the budget (including retry loops on
    /// [`std::io::ErrorKind::WouldBlock`]), the stream fails with
    /// [`ReadError::TimedOut`]. Best-effort: a blocking `read` that
    /// never returns cannot be interrupted from safe code — the check
    /// fires as soon as it does return.
    #[must_use]
    pub fn timeout(mut self, timeout: Duration) -> Self {
        self.timeout = Some(timeout);
        self
    }

    /// The limits bounding this reader's buffering.
    #[must_use]
    pub fn limits(&self) -> &DecodeLimits {
        &self.limits
    }

    /// Absolute stream offset of the next unconsumed byte.
    #[must_use]
    pub fn position(&self) -> usize {
        self.pos
    }

    /// High-water mark of the internal window, in bytes — never exceeds
    /// [`DecodeLimits::max_shard_bytes`] + one segment header + one read
    /// chunk.
    #[must_use]
    pub fn peak_buffered(&self) -> usize {
        self.peak
    }

    /// Ceiling the internal window is allowed to reach.
    fn window_cap(&self) -> usize {
        self.limits
            .max_shard_bytes()
            .saturating_add(SEGMENT_HEADER_BYTES)
            .saturating_add(READ_CHUNK)
            .max(HEADER_BYTES_V3)
    }

    /// Reads until the window holds at least `target` bytes or the
    /// input ends. `target` callers keep within [`window_cap`](Self::window_cap).
    fn fill(&mut self, target: usize) -> Result<(), ReadError> {
        let mut chunk = [0u8; READ_CHUNK];
        while self.buf.len() < target && !self.eof {
            let want = READ_CHUNK.min(target.saturating_sub(self.buf.len()).max(512));
            let started = Instant::now();
            loop {
                match self.inner.read(&mut chunk[..want]) {
                    Ok(0) => {
                        self.eof = true;
                        break;
                    }
                    Ok(n) => {
                        self.buf.extend_from_slice(&chunk[..n]);
                        self.peak = self.peak.max(self.buf.len());
                        break;
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        if let Some(limit) = self.timeout {
                            if started.elapsed() > limit {
                                return Err(ReadError::TimedOut { limit });
                            }
                        }
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    Err(e) => return Err(ReadError::Io(e)),
                }
                if let Some(limit) = self.timeout {
                    if started.elapsed() > limit {
                        return Err(ReadError::TimedOut { limit });
                    }
                }
            }
            if let Some(limit) = self.timeout {
                if started.elapsed() > limit {
                    return Err(ReadError::TimedOut { limit });
                }
            }
        }
        Ok(())
    }

    /// Drops `n` consumed bytes off the front of the window.
    fn consume(&mut self, n: usize) {
        self.buf.drain(..n.min(self.buf.len()));
        self.pos += n;
    }

    /// Reads and validates the file header, if not done yet.
    ///
    /// # Errors
    ///
    /// File-level problems are fatal: I/O errors, a stalled read, bad
    /// magic/version/header-CRC, or header claims beyond the limits.
    pub fn header(&mut self) -> Result<StreamHeader, ReadError> {
        if let Some(head) = self.head {
            return Ok(head);
        }
        if matches!(self.state, State::Done) {
            return Err(ReadError::Frame(FrameError::Truncated { offset: self.pos }));
        }
        self.fill(HEADER_BYTES)?;
        // v3 headers are two bytes longer; sniff the version byte.
        if self.buf.get(4) == Some(&VERSION_V3) {
            self.fill(HEADER_BYTES_V3)?;
        }
        if self.eof && self.buf.len() < HEADER_BYTES {
            // Short input: a magic prefix (or nothing at all) is a torn
            // header; anything else simply is not a frame.
            let n = self.buf.len().min(MAGIC.len());
            let err = if self.buf[..n] == MAGIC[..n] {
                FrameError::Truncated {
                    offset: self.pos + self.buf.len(),
                }
            } else {
                FrameError::BadMagic
            };
            return Err(ReadError::Frame(err));
        }
        let head = frame::parse_file_header(&self.buf, &self.limits)?;
        let info = StreamHeader {
            table_lengths: head.table_lengths,
            segments: head.claimed_segments,
            parity_segments: head.parity_segments(),
            source_len: head.source_len,
            version: head.version,
            parity_g: head.parity_g,
            parity_r: head.parity_r,
        };
        self.consume(head.header_bytes);
        self.head = Some(info);
        self.state = State::Body;
        Ok(info)
    }

    /// Pulls the next classified item off the stream, or `None` at a
    /// clean end of input.
    ///
    /// # Errors
    ///
    /// I/O failures, a stalled read, file-level header problems, an
    /// exhausted [`DecodeLimits::max_resync_probes`] budget, or more
    /// scanned items than [`DecodeLimits::max_segments`] allows.
    /// Segment-level damage is yielded as [`StreamItem::Damaged`], not
    /// an error.
    pub fn next_item(&mut self) -> Result<Option<StreamItem>, ReadError> {
        let head = match self.state {
            State::Done => return Ok(None),
            _ => self.header()?,
        };
        // Need at least one segment header to go on; a shorter non-empty
        // tail is damage.
        self.fill(SEGMENT_HEADER_BYTES)?;
        if self.buf.is_empty() && self.eof {
            self.state = State::Done;
            return Ok(None);
        }
        // Adversarial streams must not yield unboundedly many items.
        let scan_cap = self
            .limits
            .max_segments
            .saturating_add(head.parity_segments.min(self.limits.max_segments))
            .saturating_add(1);
        if self.items >= scan_cap {
            return Err(ReadError::Frame(FrameError::LimitExceeded {
                what: "scanned segment count",
                requested: self.items + 1,
                limit: scan_cap,
            }));
        }
        let index = self.items;
        let item = self.classify(&head, index)?;
        if let StreamItem::Damaged {
            byte_range,
            claimed_source_trits,
            ..
        } = &item
        {
            // Flight-recorder breadcrumbs: the damaged byte range (as a
            // resync hop) and the untrusted header claim, keyed by the
            // walk index of the damaged item.
            let seg = u32::try_from(index).unwrap_or(u32::MAX);
            ninec_obs::trace_instant(
                "crc_verdict",
                seg,
                ninec_obs::RungKind::None,
                ninec_obs::TracePayload::Crc {
                    ok: false,
                    claimed_trits: u32::try_from(claimed_source_trits.unwrap_or(0))
                        .unwrap_or(u32::MAX),
                },
            );
            ninec_obs::trace_instant(
                "resync",
                seg,
                ninec_obs::RungKind::None,
                ninec_obs::TracePayload::Resync {
                    from: u32::try_from(byte_range.start).unwrap_or(u32::MAX),
                    to: u32::try_from(byte_range.end).unwrap_or(u32::MAX),
                },
            );
        }
        self.items += 1;
        Ok(Some(item))
    }

    /// Classifies the bytes at the window start as one item, consuming
    /// them (resynchronising first if they are damaged).
    fn classify(&mut self, head: &StreamHeader, index: usize) -> Result<StreamItem, ReadError> {
        let v3 = head.version == VERSION_V3;
        if self.buf.len() < SEGMENT_HEADER_BYTES {
            // EOF inside a header: everything left is torn tail.
            let range = self.pos..self.pos + self.buf.len();
            let n = self.buf.len();
            self.consume(n);
            self.state = State::Done;
            return Ok(StreamItem::Damaged {
                byte_range: range,
                reason: DamageReason::Truncated,
                claimed_source_trits: None,
            });
        }
        let is_parity = v3 && self.buf.get(..2) == Some(&PARITY_MARKER.to_le_bytes());
        // Both header layouts carry their payload size claim at +8.
        let claimed =
            u32::from_le_bytes([self.buf[8], self.buf[9], self.buf[10], self.buf[11]]) as usize;
        let claimed_bytes = if is_parity {
            claimed
        } else {
            frame::trit_alloc_bytes(claimed)
        };
        let claimed_trits = (!is_parity).then(|| {
            u32::from_le_bytes([self.buf[4], self.buf[5], self.buf[6], self.buf[7]]) as usize
        });
        if claimed_bytes > self.limits.max_shard_bytes() {
            // A bomb claim never buffers: resynchronise instead.
            return self.resync(DamageReason::LimitExceeded("segment size claim"), None, v3);
        }
        let total = SEGMENT_HEADER_BYTES + claimed_bytes;
        self.fill(total)?;
        if self.buf.len() < total && self.eof {
            // Torn tail: could still be a valid *shorter* segment whose
            // size claim is itself corrupt — probe within what we have.
            return self.resync(DamageReason::Truncated, claimed_trits, v3);
        }
        if is_parity {
            match frame::parity_at(&self.buf, 0, index, &self.limits) {
                Ok((par, next)) => {
                    let item = StreamItem::Parity(OwnedParity {
                        group: par.group,
                        pindex: par.pindex,
                        shard: par.payload.to_vec(),
                    });
                    self.consume(next);
                    Ok(item)
                }
                Err(e) => self.resync(damage_reason(&e), Some(0), v3),
            }
        } else {
            match frame::segment_at(&self.buf, 0, index, &self.limits) {
                Ok((seg, next)) => {
                    let item = StreamItem::Data(OwnedSegment {
                        index,
                        k: seg.k,
                        source_trits: seg.source_trits,
                        payload_trits: seg.payload_trits,
                        bytes: self.buf[..next].to_vec(),
                    });
                    self.consume(next);
                    Ok(item)
                }
                Err(e) => self.resync(damage_reason(&e), claimed_trits, v3),
            }
        }
    }

    /// Scans forward for the next parseable segment, consuming the
    /// damaged range and returning its [`StreamItem::Damaged`] entry.
    /// The window slides as needed, so memory stays bounded; probe count
    /// is capped by [`DecodeLimits::max_resync_probes`].
    fn resync(
        &mut self,
        reason: DamageReason,
        claimed_source_trits: Option<usize>,
        v3: bool,
    ) -> Result<StreamItem, ReadError> {
        let damage_start = self.pos;
        let mut probes = 0usize;
        // Relative probe position within the current window.
        let mut p = 1usize;
        loop {
            // Ensure a candidate header at `p` is in the window (or EOF).
            self.fill(p + SEGMENT_HEADER_BYTES)?;
            if p + SEGMENT_HEADER_BYTES > self.buf.len() {
                // No positions left: the rest of the input is the damage.
                let n = self.buf.len();
                self.consume(n);
                self.state = State::Done;
                return Ok(StreamItem::Damaged {
                    byte_range: damage_start..self.pos,
                    reason,
                    claimed_source_trits,
                });
            }
            if probes >= self.limits.max_resync_probes {
                return Err(ReadError::Frame(FrameError::LimitExceeded {
                    what: "resync probes",
                    requested: probes + 1,
                    limit: self.limits.max_resync_probes,
                }));
            }
            probes += 1;
            // Candidate size claim (offset +8 in both header layouts).
            let is_parity = v3 && self.buf.get(p..p + 2) == Some(&PARITY_MARKER.to_le_bytes());
            let claim = u32::from_le_bytes([
                self.buf[p + 8],
                self.buf[p + 9],
                self.buf[p + 10],
                self.buf[p + 11],
            ]) as usize;
            let claim_bytes = if is_parity {
                claim
            } else {
                frame::trit_alloc_bytes(claim)
            };
            if claim_bytes > self.limits.max_shard_bytes() {
                p += 1; // bomb claim: failed probe, nothing buffered
                continue;
            }
            let total = SEGMENT_HEADER_BYTES + claim_bytes;
            if p + total > self.window_cap() {
                // Slide the window so the candidate fits: the probed
                // prefix is definitively damage.
                self.consume(p);
                p = 0;
                // The slide freed room; re-run this position (the probe
                // was already counted).
                probes -= 1;
                continue;
            }
            self.fill(p + total)?;
            let parses = if is_parity {
                frame::parity_at(&self.buf, p, 0, &self.limits).is_ok()
            } else {
                frame::data_segment_parses(&self.buf, p, &self.limits)
            };
            if parses {
                self.consume(p);
                return Ok(StreamItem::Damaged {
                    byte_range: damage_start..self.pos,
                    reason,
                    claimed_source_trits,
                });
            }
            p += 1;
        }
    }
}

/// Maps a segment-level parse error onto the damage taxonomy.
fn damage_reason(e: &FrameError) -> DamageReason {
    match e {
        FrameError::BadCrc { .. } => DamageReason::BadCrc,
        FrameError::Truncated { .. } => DamageReason::Truncated,
        FrameError::Malformed { what, .. } => DamageReason::Malformed(what),
        FrameError::LimitExceeded { what, .. } => DamageReason::LimitExceeded(what),
        _ => DamageReason::Malformed("unparseable segment"),
    }
}

impl Engine {
    /// Decodes a `9CSF` frame **strictly** from any [`io::Read`](std::io::Read) source
    /// without materializing the frame: segments stream through a
    /// bounded window ([`DecodeLimits::max_shard_bytes`] + one chunk)
    /// and decode in thread-count batches on the pool. The output is
    /// byte-identical to [`decode_frame`](Engine::decode_frame) on the
    /// same bytes, at every thread count.
    ///
    /// Parity segments of v3 frames are validated for order and skipped
    /// — streaming cannot repair (parity groups interleave across the
    /// whole frame); buffer the bytes and run
    /// [`build_plan`](Engine::build_plan) +
    /// [`execute_plan`](Engine::execute_plan) for the ladder.
    ///
    /// # Errors
    ///
    /// [`ReadError::Io`] / [`ReadError::TimedOut`] from the source;
    /// [`ReadError::Frame`] for structural damage (this entry is
    /// fail-closed, like the in-memory strict decode);
    /// [`ReadError::Decode`] when a CRC-valid segment fails 9C decoding
    /// or a worker panics.
    pub fn decode_stream<R: Read>(&self, inner: R) -> Result<TritVec, ReadError> {
        let mut fr = FrameReader::with_limits(inner, *self.limits());
        self.decode_stream_reader(&mut fr)
    }

    /// [`decode_stream`](Engine::decode_stream) over a caller-configured
    /// [`FrameReader`] (custom limits or a read timeout).
    pub fn decode_stream_reader<R: Read>(
        &self,
        fr: &mut FrameReader<R>,
    ) -> Result<TritVec, ReadError> {
        let _span = ninec_obs::span("engine_decode_stream");
        let head = fr.header()?;
        let table = CodeTable::from_lengths(&head.table_lengths)
            .map_err(|_| FrameError::BadTable)
            .map_err(ReadError::Frame)?;
        let limits = *fr.limits();
        let mut out = TritVec::with_capacity(head.source_len.min(1 << 24));
        // Budget bookkeeping shared with the plan builder: the same
        // charge order and the same typed error as the in-memory ladder.
        let mut budget = crate::engine::plan::StrictState::new(head.source_len, &limits);
        let mut covered = 0usize;
        let mut data_seen = 0usize;
        let mut parity_seen = 0usize;
        let mut batch: Vec<OwnedSegment> = Vec::new();
        let batch_cap = self.threads().max(1);
        loop {
            let item = fr.next_item()?;
            match item {
                Some(StreamItem::Data(seg)) => {
                    if data_seen >= head.segments {
                        return Err(ReadError::Frame(FrameError::Malformed {
                            segment: seg.index,
                            what: "trailing bytes after the last segment",
                        }));
                    }
                    if parity_seen > 0 {
                        return Err(ReadError::Frame(FrameError::Malformed {
                            segment: seg.index,
                            what: "data segment after a parity segment",
                        }));
                    }
                    budget
                        .charge_data(seg.source_trits, seg.payload_trits)
                        .map_err(ReadError::Frame)?;
                    covered = covered.saturating_add(seg.source_trits);
                    data_seen += 1;
                    batch.push(seg);
                    if batch.len() >= batch_cap {
                        self.drain_batch(&mut batch, &table, &mut out)?;
                    }
                }
                Some(StreamItem::Parity(par)) => {
                    let r = head.parity_r as usize;
                    let groups = frame::group_count(head.segments, head.parity_g);
                    let expect = (parity_seen / r.max(1), parity_seen % r.max(1));
                    if parity_seen >= head.parity_segments
                        || r == 0
                        || (par.group, par.pindex) != expect
                        || par.group >= groups
                    {
                        return Err(ReadError::Frame(FrameError::Malformed {
                            segment: head.segments + parity_seen,
                            what: "parity segment out of (group, pindex) order",
                        }));
                    }
                    parity_seen += 1;
                }
                Some(StreamItem::Damaged {
                    byte_range, reason, ..
                }) => {
                    // Strict mode: damage is fatal, with a typed error
                    // mirroring the in-memory parse.
                    return Err(ReadError::Frame(match reason {
                        DamageReason::Truncated => FrameError::Truncated {
                            offset: byte_range.end,
                        },
                        DamageReason::BadCrc => FrameError::BadCrc {
                            segment: data_seen + parity_seen,
                        },
                        DamageReason::Malformed(what) => FrameError::Malformed {
                            segment: data_seen + parity_seen,
                            what,
                        },
                        DamageReason::LimitExceeded(what) => FrameError::LimitExceeded {
                            what,
                            requested: 0,
                            limit: 0,
                        },
                        _ => FrameError::Malformed {
                            segment: data_seen + parity_seen,
                            what: "damaged segment in strict streaming decode",
                        },
                    }));
                }
                None => break,
            }
        }
        self.drain_batch(&mut batch, &table, &mut out)?;
        if data_seen != head.segments || parity_seen != head.parity_segments {
            return Err(ReadError::Frame(FrameError::Truncated {
                offset: fr.position(),
            }));
        }
        if covered != head.source_len {
            return Err(ReadError::Frame(FrameError::Malformed {
                segment: head.segments,
                what: "segment source lengths do not sum to the header total",
            }));
        }
        Ok(out)
    }

    /// Decodes one batch of streamed segments on the pool (panic
    /// isolation included) and appends them, in order, to `out`.
    fn drain_batch(
        &self,
        batch: &mut Vec<OwnedSegment>,
        table: &CodeTable,
        out: &mut TritVec,
    ) -> Result<(), ReadError> {
        if batch.is_empty() {
            return Ok(());
        }
        let results = pool::try_map_indexed(self.threads(), batch.len(), |i| {
            let owned = &batch[i];
            // The segment was CRC-verified once, when `classify` pulled
            // it off the stream — rebuild the borrowed view from the
            // owned fields instead of re-parsing (and re-CRC'ing) it.
            let payload_end = SEGMENT_HEADER_BYTES + owned.payload_trits.div_ceil(4);
            let seg = frame::ParsedSegment {
                k: owned.k,
                source_trits: owned.source_trits,
                payload_trits: owned.payload_trits,
                payload: owned
                    .bytes
                    .get(SEGMENT_HEADER_BYTES..payload_end)
                    .unwrap_or(&[]),
            };
            self.decode_one_segment(&seg, owned.index, table)
        });
        for (i, r) in results.into_iter().enumerate() {
            match r {
                Ok(Ok(trits)) => out.extend_from_tritvec(&trits),
                Ok(Err(e)) => return Err(ReadError::Decode(e)),
                Err(_panic) => {
                    return Err(ReadError::Decode(DecodeError::WorkerPanicked {
                        segment: batch[i].index,
                    }))
                }
            }
        }
        batch.clear();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn tv(s: &str) -> TritVec {
        s.parse().expect("valid trit literal")
    }

    fn sample_stream() -> TritVec {
        tv(&"0X0X01X001X0101X111111110000X1111X0110XX".repeat(30))
    }

    /// A reader that hands out at most `chunk` bytes per `read` call —
    /// exercising every partial-header/partial-payload path.
    struct Dribble<R> {
        inner: R,
        chunk: usize,
    }

    impl<R: Read> Read for Dribble<R> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = self.chunk.min(buf.len()).max(1);
            self.inner.read(&mut buf[..n])
        }
    }

    #[test]
    fn streamed_decode_is_byte_identical_to_in_memory() {
        let stream = sample_stream();
        for (g, r) in [(0u8, 0u8), (4, 1)] {
            let engine = Engine::builder()
                .threads(2)
                .segment_bits(64)
                .parity(g, r)
                .build();
            let frame_bytes = engine.encode_frame(8, &stream).expect("valid K");
            let in_memory = engine.decode_frame(&frame_bytes).expect("decodes");
            for threads in [1usize, 8] {
                let e = Engine::builder().threads(threads).segment_bits(64).build();
                for chunk in [1usize, 7, 64, 4096] {
                    let src = Dribble {
                        inner: Cursor::new(frame_bytes.clone()),
                        chunk,
                    };
                    let out = e.decode_stream(src).expect("streams");
                    assert_eq!(
                        out, in_memory,
                        "g={g} r={r} threads={threads} chunk={chunk}"
                    );
                }
            }
        }
    }

    #[test]
    fn reader_yields_classified_items_in_order() {
        let stream = sample_stream();
        let engine = Engine::builder()
            .threads(1)
            .segment_bits(64)
            .parity(2, 1)
            .build();
        let frame_bytes = engine.encode_frame(8, &stream).expect("valid K");
        let parsed = frame::parse(&frame_bytes).expect("parses");
        let mut fr = FrameReader::new(Cursor::new(frame_bytes.clone()));
        let head = fr.header().expect("header reads");
        assert_eq!(head.segments, parsed.segments.len());
        assert_eq!(head.parity_segments, parsed.parity.len());
        assert_eq!((head.parity_g, head.parity_r), (2, 1));
        let mut data = 0;
        let mut parity = 0;
        while let Some(item) = fr.next_item().expect("clean stream") {
            match item {
                StreamItem::Data(seg) => {
                    assert_eq!(seg.index, data);
                    // Owned bytes re-parse and re-CRC in isolation.
                    assert!(frame::segment_at(&seg.bytes, 0, seg.index, fr.limits()).is_ok());
                    data += 1;
                }
                StreamItem::Parity(par) => {
                    assert_eq!(par.group, parity); // r = 1: one shard per group
                    assert_eq!(par.pindex, 0);
                    assert_eq!(par.shard, parsed.parity[parity].payload);
                    parity += 1;
                }
                StreamItem::Damaged { .. } => panic!("clean frame has no damage"),
            }
        }
        assert_eq!(data, head.segments);
        assert_eq!(parity, head.parity_segments);
        assert_eq!(fr.position(), frame_bytes.len());
    }

    #[test]
    fn window_stays_bounded_by_the_limits() {
        let stream = sample_stream();
        let engine = Engine::builder().threads(1).segment_bits(64).build();
        let frame_bytes = engine.encode_frame(8, &stream).expect("valid K");
        // Tight-but-sufficient limits: segments are 64 source trits, and
        // 9C payloads can expand past the source length (case codes), so
        // leave expansion headroom while staying far below the default.
        let limits = DecodeLimits {
            max_segment_trits: 512,
            ..DecodeLimits::default()
        };
        let mut fr = FrameReader::with_limits(Cursor::new(frame_bytes.clone()), limits);
        let out = Engine::builder()
            .threads(1)
            .limits(limits)
            .build()
            .decode_stream_reader(&mut fr)
            .expect("streams under tight limits");
        assert_eq!(out, engine.decode_frame(&frame_bytes).expect("decodes"));
        assert!(
            fr.peak_buffered() <= limits.max_shard_bytes() + SEGMENT_HEADER_BYTES + READ_CHUNK,
            "peak {} exceeds the window cap",
            fr.peak_buffered()
        );
    }

    #[test]
    fn corrupt_segment_streams_as_damage_and_fails_strict() {
        let stream = sample_stream();
        let engine = Engine::builder().threads(1).segment_bits(64).build();
        let mut bad = engine.encode_frame(8, &stream).expect("valid K");
        bad[HEADER_BYTES + SEGMENT_HEADER_BYTES] ^= 0x55;

        // Strict streaming decode fails closed, like the in-memory one.
        let err = engine
            .decode_stream(Cursor::new(bad.clone()))
            .expect_err("strict fails");
        assert!(matches!(err, ReadError::Frame(_)), "{err:?}");

        // The raw reader classifies: damage, then intact segments.
        let mut fr = FrameReader::new(Cursor::new(bad.clone()));
        let first = fr.next_item().expect("reads").expect("has items");
        match first {
            StreamItem::Damaged {
                byte_range,
                reason,
                claimed_source_trits,
            } => {
                assert_eq!(byte_range.start, HEADER_BYTES);
                assert_eq!(reason, DamageReason::BadCrc);
                assert_eq!(claimed_source_trits, Some(64));
            }
            other => panic!("expected damage first, got {other:?}"),
        }
        let mut rest = 0usize;
        while let Some(item) = fr.next_item().expect("reads") {
            assert!(matches!(item, StreamItem::Data(_)));
            rest += 1;
        }
        assert_eq!(rest, fr.header().expect("header").segments - 1);
    }

    #[test]
    fn truncated_stream_ends_in_a_torn_tail_item() {
        let stream = sample_stream();
        let engine = Engine::builder().threads(1).segment_bits(64).build();
        let frame_bytes = engine.encode_frame(8, &stream).expect("valid K");
        let cut = frame_bytes.len() - 3;
        let mut fr = FrameReader::new(Cursor::new(frame_bytes[..cut].to_vec()));
        let mut last = None;
        while let Some(item) = fr.next_item().expect("reads") {
            last = Some(item);
        }
        match last.expect("items were yielded") {
            StreamItem::Damaged {
                reason, byte_range, ..
            } => {
                assert_eq!(reason, DamageReason::Truncated);
                assert_eq!(byte_range.end, cut);
            }
            other => panic!("expected torn tail, got {other:?}"),
        }
        // Strict decode: typed truncation error.
        assert!(matches!(
            engine.decode_stream(Cursor::new(frame_bytes[..cut].to_vec())),
            Err(ReadError::Frame(FrameError::Truncated { .. }))
        ));
    }

    #[test]
    fn resync_probe_cap_applies_to_streams() {
        let stream = sample_stream();
        let engine = Engine::builder().threads(1).segment_bits(64).build();
        let mut bad = engine.encode_frame(8, &stream).expect("valid K");
        bad[HEADER_BYTES + SEGMENT_HEADER_BYTES] ^= 0x55;
        let tight = DecodeLimits {
            max_resync_probes: 1,
            ..DecodeLimits::default()
        };
        let mut fr = FrameReader::with_limits(Cursor::new(bad), tight);
        let err = fr.next_item().expect_err("probe cap fires");
        assert!(matches!(
            err,
            ReadError::Frame(FrameError::LimitExceeded {
                what: "resync probes",
                ..
            })
        ));
    }

    #[test]
    fn not_a_frame_is_a_typed_header_error() {
        let mut fr = FrameReader::new(Cursor::new(b"this is not a frame at all".to_vec()));
        assert!(matches!(
            fr.header(),
            Err(ReadError::Frame(FrameError::BadMagic))
        ));
        let empty: &[u8] = &[];
        let mut fr = FrameReader::new(empty);
        assert!(matches!(
            fr.header(),
            Err(ReadError::Frame(FrameError::Truncated { .. }))
        ));
    }

    #[test]
    fn stalled_read_times_out() {
        /// Never yields data, never ends: a wedged pipe.
        struct Stalled;
        impl Read for Stalled {
            fn read(&mut self, _buf: &mut [u8]) -> std::io::Result<usize> {
                std::thread::sleep(Duration::from_millis(5));
                Err(std::io::Error::new(std::io::ErrorKind::WouldBlock, "stall"))
            }
        }
        let mut fr = FrameReader::new(Stalled).timeout(Duration::from_millis(20));
        let err = fr.header().expect_err("stall must time out");
        assert!(matches!(err, ReadError::TimedOut { .. }), "{err:?}");
    }

    #[test]
    fn trailing_garbage_fails_strict_streaming() {
        let stream = sample_stream();
        let engine = Engine::builder().threads(1).segment_bits(64).build();
        let mut bytes = engine.encode_frame(8, &stream).expect("valid K");
        // Append a whole duplicate of the last segment: parseable, but
        // beyond the claimed count.
        let parsed = frame::parse(&bytes).expect("parses");
        let last_len =
            SEGMENT_HEADER_BYTES + parsed.segments.last().expect("nonempty").payload.len();
        let tail = bytes[bytes.len() - last_len..].to_vec();
        bytes.extend_from_slice(&tail);
        let err = engine
            .decode_stream(Cursor::new(bytes))
            .expect_err("trailing data fails strict");
        assert!(
            matches!(
                err,
                ReadError::Frame(FrameError::Malformed {
                    what: "trailing bytes after the last segment",
                    ..
                })
            ),
            "{err:?}"
        );
    }

    #[test]
    fn errors_display_and_chain() {
        let io = ReadError::Io(std::io::Error::new(std::io::ErrorKind::BrokenPipe, "x"));
        let frame = ReadError::Frame(FrameError::BadMagic);
        let decode = ReadError::Decode(DecodeError::MissingParameter { what: "k" });
        let timeout = ReadError::TimedOut {
            limit: Duration::from_secs(1),
        };
        for e in [&io, &frame, &decode, &timeout] {
            assert!(!e.to_string().is_empty());
        }
        use std::error::Error as _;
        assert!(io.source().is_some());
        assert!(timeout.source().is_none());
    }
}
