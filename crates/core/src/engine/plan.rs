//! Plan-then-execute decode pipeline: one scan pass, one ladder.
//!
//! A [`FramePlan`] is the one in-memory model of a parsed frame. It is
//! built by **one** pass over the frame body — header parse, limits
//! check, per-segment CRC verdict, parity membership and byte ranges —
//! and every rung executes against it:
//!
//! - **strict** decodes only [`PlanEntry::Data`] entries (the CRC
//!   verdicts are already in the plan, nothing is re-verified) and fails
//!   closed on the plan's [`strict_error`](FramePlan::strict_error);
//! - **repair** feeds the plan's erasure positions straight to
//!   [`ParityCoder::reconstruct`](crate::engine::ecc::ParityCoder) —
//!   no re-scan, and each rebuilt shard is parsed exactly once;
//! - **salvage** materialises X-runs from the same entries.
//!
//! [`Engine::build_plan`] + [`Engine::execute_plan`] are the only way to
//! run a rung, and the entry the decode ladder
//! ([`crate::session::DecodeSession`], the CLI) drives: build one plan,
//! try [`Policy::Strict`], fall back to [`Policy::Repair`] or
//! [`Policy::Salvage`] **on the same plan** — one header/CRC pass for
//! the whole ladder, proven by the `ninec.frame.scan_passes` counter.
//!
//! The strict verdict is computed *during* the walk by replaying
//! [`frame::parse_limited`]'s checks in exactly its order (bomb check,
//! per-segment budget and overflow, source-length sum, parity `(group,
//! pindex)` order, trailing bytes), so a plan-based strict decode
//! reports byte-for-byte the same typed error the eager parser would.
//! [`frame::parse_limited`] itself remains as the independent reference
//! oracle — this module's tests diff the two verdicts on every
//! single-byte mutation and every truncation of a v2 and a v3 frame.

use crate::code::CodeTable;
use crate::decode::DecodeError;
use crate::engine::frame::{self, DecodeLimits, FrameError, ParsedParity, ParsedSegment};
use crate::engine::{cancel, pool, Engine, SalvageReport};
use ninec_testdata::trit::TritVec;
use std::ops::Range;

/// Which rung of the decode ladder to run against a [`FramePlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum Policy {
    /// Fail-closed: any damage is a typed error (the plan's strict
    /// verdict), byte-identical to [`Engine::decode_frame`].
    Strict,
    /// Rebuild damaged segments from v3 parity groups first, then
    /// salvage whatever could not be reconstructed.
    Repair,
    /// Skip parity reconstruction: intact segments decode, damage is
    /// erased to `X` runs.
    Salvage,
}

/// How a plan build reacts to the first strict-order deviation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BuildMode {
    /// Stop at the first deviation without resync probing — the
    /// fast-fail shape of [`frame::parse_limited`], used by
    /// [`Engine::decode_frame`]. The resulting plan carries the strict
    /// verdict but no salvage-grade damage map.
    FailFast,
    /// Walk the whole body, resynchronising past damage, so the same
    /// plan serves strict, repair and salvage.
    Full,
}

/// One classified byte range of a [`FramePlan`].
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum PlanEntry<'a> {
    /// A CRC-valid data segment within the decode allocation budget.
    Data {
        /// The parsed (already CRC-verified) segment.
        seg: ParsedSegment<'a>,
        /// The bytes it occupies (header + payload).
        byte_range: Range<usize>,
    },
    /// A CRC-valid data segment whose decode would bust the running
    /// [`DecodeLimits::max_total_alloc`] budget — strict decode rejects
    /// the frame, salvage erases this range instead of decoding it.
    OverBudget {
        /// The parsed segment (not decoded — too expensive).
        seg: ParsedSegment<'a>,
        /// The bytes it occupies.
        byte_range: Range<usize>,
    },
    /// A CRC-valid v3 parity shard (contributes no output trits; feeds
    /// the repair rung).
    Parity {
        /// The parsed parity shard.
        par: ParsedParity<'a>,
        /// The bytes it occupies (header + shard).
        byte_range: Range<usize>,
    },
    /// A byte range that could not be parsed as a valid segment, up to
    /// the resynchronisation point.
    Damaged {
        /// The bytes written off.
        byte_range: Range<usize>,
        /// The `source_trits` field the (untrusted) header claimed, if
        /// the 16 header bytes were at least present. Parity headers
        /// carry no source trits — their claim is zero.
        claimed_source_trits: Option<usize>,
        /// The verbatim parse error, exactly as the data- or
        /// parity-segment parser reported it.
        error: FrameError,
    },
}

impl<'a> PlanEntry<'a> {
    /// The byte range this entry covers.
    #[must_use]
    pub fn byte_range(&self) -> Range<usize> {
        match self {
            PlanEntry::Data { byte_range, .. }
            | PlanEntry::OverBudget { byte_range, .. }
            | PlanEntry::Parity { byte_range, .. }
            | PlanEntry::Damaged { byte_range, .. } => byte_range.clone(),
        }
    }
}

/// A frame's complete decode plan: every body byte classified in one
/// header/CRC scan pass, plus the strict verdict the eager parser would
/// have reported. Built by [`Engine::build_plan`], consumed by
/// [`Engine::execute_plan`] at any [`Policy`].
#[derive(Debug, Clone)]
pub struct FramePlan<'a> {
    pub(crate) bytes: &'a [u8],
    pub(crate) table_lengths: [u8; 9],
    pub(crate) source_len: usize,
    pub(crate) claimed_segments: usize,
    pub(crate) version: u8,
    pub(crate) parity_g: u8,
    pub(crate) parity_r: u8,
    pub(crate) limits: DecodeLimits,
    pub(crate) entries: Vec<PlanEntry<'a>>,
    pub(crate) strict_error: Option<FrameError>,
}

impl<'a> FramePlan<'a> {
    /// The frame bytes the plan indexes into.
    #[must_use]
    pub fn bytes(&self) -> &'a [u8] {
        self.bytes
    }

    /// Codeword lengths of C1..C9, as stored in the (CRC-valid) header.
    #[must_use]
    pub fn table_lengths(&self) -> [u8; 9] {
        self.table_lengths
    }

    /// Total source trits the header claims.
    #[must_use]
    pub fn source_len(&self) -> usize {
        self.source_len
    }

    /// Data-segment count the header claims.
    #[must_use]
    pub fn claimed_segments(&self) -> usize {
        self.claimed_segments
    }

    /// Frame version byte ([`frame::VERSION`] or [`frame::VERSION_V3`]).
    #[must_use]
    pub fn version(&self) -> u8 {
        self.version
    }

    /// Data segments per parity group (0 = unprotected / v2 frame).
    #[must_use]
    pub fn parity_g(&self) -> u8 {
        self.parity_g
    }

    /// Parity segments per group.
    #[must_use]
    pub fn parity_r(&self) -> u8 {
        self.parity_r
    }

    /// The [`DecodeLimits`] the plan was built under.
    #[must_use]
    pub fn limits(&self) -> &DecodeLimits {
        &self.limits
    }

    /// The classified byte ranges, in stream order.
    #[must_use]
    pub fn entries(&self) -> &[PlanEntry<'a>] {
        &self.entries
    }

    /// The typed error a strict ([`frame::parse_limited`]-shaped) parse
    /// of these bytes reports, or `None` when the frame is strictly
    /// valid.
    #[must_use]
    pub fn strict_error(&self) -> Option<&FrameError> {
        self.strict_error.as_ref()
    }

    /// Number of intact data segments in the plan.
    #[must_use]
    pub fn intact_count(&self) -> usize {
        self.entries
            .iter()
            .filter(|e| matches!(e, PlanEntry::Data { .. }))
            .count()
    }

    /// Number of parity groups the header geometry implies.
    #[must_use]
    pub fn groups(&self) -> usize {
        frame::group_count(self.claimed_segments, self.parity_g)
    }

    /// Total parity segments the header geometry implies.
    #[must_use]
    pub fn claimed_parity_segments(&self) -> usize {
        self.groups() * self.parity_r as usize
    }
}

/// Strict-decode resource bookkeeping shared by the plan walk and the
/// streaming reader: the running allocation budget and covered-trits
/// total, charged in exactly [`frame::parse_limited`]'s order.
pub(crate) struct StrictState {
    alloc_budget: usize,
    covered: usize,
    max_total_alloc: usize,
}

impl StrictState {
    pub(crate) fn new(source_len: usize, limits: &DecodeLimits) -> Self {
        Self {
            alloc_budget: frame::trit_alloc_bytes(source_len),
            covered: 0,
            max_total_alloc: limits.max_total_alloc,
        }
    }

    /// Charges one data segment's decode allocation (output + scratch)
    /// against the budget.
    pub(crate) fn charge_data(
        &mut self,
        source_trits: usize,
        payload_trits: usize,
    ) -> Result<(), FrameError> {
        self.alloc_budget = self
            .alloc_budget
            .saturating_add(frame::trit_alloc_bytes(source_trits))
            .saturating_add(frame::trit_alloc_bytes(payload_trits));
        self.check_budget()
    }

    /// Charges one parity shard's bytes against the budget.
    pub(crate) fn charge_parity(&mut self, shard_bytes: usize) -> Result<(), FrameError> {
        self.alloc_budget = self.alloc_budget.saturating_add(shard_bytes);
        self.check_budget()
    }

    fn check_budget(&self) -> Result<(), FrameError> {
        if self.alloc_budget > self.max_total_alloc {
            return Err(FrameError::LimitExceeded {
                what: "total decode allocation",
                requested: self.alloc_budget,
                limit: self.max_total_alloc,
            });
        }
        Ok(())
    }

    /// [`charge_data`](Self::charge_data) plus the covered-trits
    /// accumulation, overflow-checked and attributed like the strict
    /// parser's data loop.
    fn on_data(
        &mut self,
        source_trits: usize,
        payload_trits: usize,
        segment: usize,
    ) -> Result<(), FrameError> {
        self.charge_data(source_trits, payload_trits)?;
        self.covered = self
            .covered
            .checked_add(source_trits)
            .ok_or(FrameError::Malformed {
                segment,
                what: "segment source lengths overflow",
            })?;
        Ok(())
    }

    fn covered(&self) -> usize {
        self.covered
    }
}

/// The error [`frame::segment_at`] reports on parity-marker bytes in a
/// data-segment slot: the marker's trailing group bytes hit the
/// reserved-bytes check first, then the odd sentinel `K`.
fn marker_in_data_slot(bytes: &[u8], at: usize, segment: usize) -> FrameError {
    let reserved_nonzero = bytes
        .get(at + 2..at + 4)
        .is_some_and(|b| b.iter().any(|&x| x != 0));
    if reserved_nonzero {
        FrameError::Malformed {
            segment,
            what: "reserved segment-header bytes are nonzero",
        }
    } else {
        FrameError::Malformed {
            segment,
            what: "segment block size must be even and at least 4",
        }
    }
}

/// Replays [`frame::parse_limited`]'s validation order over plan entries
/// as the walk produces them, pinning the strict verdict without a
/// second pass. Every check and its attribution mirrors the eager
/// parser check-for-check.
struct StrictTracker {
    n: usize,
    p: usize,
    r: usize,
    groups: usize,
    source_len: usize,
    v3: bool,
    state: StrictState,
    /// Strict slot of the next entry: data for `0..n`, parity for
    /// `n..n + p`, trailing beyond.
    pos: usize,
    verdict: Option<FrameError>,
}

impl StrictTracker {
    fn new(bytes_len: usize, head: &frame::FileHeader, limits: &DecodeLimits) -> Self {
        let n = head.claimed_segments;
        let p = head.parity_segments();
        // Bomb check: each claimed segment needs at least a 16-byte
        // header in the body — same precondition the eager parser
        // enforces before allocating.
        let body = bytes_len - head.header_bytes;
        let verdict = match n
            .checked_add(p)
            .and_then(|t| t.checked_mul(frame::SEGMENT_HEADER_BYTES))
        {
            Some(need) if need <= body => None,
            _ => Some(FrameError::Truncated { offset: bytes_len }),
        };
        Self {
            n,
            p,
            r: (head.parity_r as usize).max(1),
            groups: head.groups(),
            source_len: head.source_len,
            v3: head.version == frame::VERSION_V3,
            state: StrictState::new(head.source_len, limits),
            pos: 0,
            verdict,
        }
    }

    fn verdict(&self) -> Option<&FrameError> {
        self.verdict.as_ref()
    }

    fn check_covered(&self) -> Result<(), FrameError> {
        if self.state.covered() != self.source_len {
            return Err(FrameError::Malformed {
                segment: self.n,
                what: "segment source lengths do not sum to the header total",
            });
        }
        Ok(())
    }

    fn has_marker(&self, bytes: &[u8], at: usize) -> bool {
        bytes.get(at..at + 2) == Some(&frame::PARITY_MARKER.to_le_bytes())
    }

    fn header_fits(bytes: &[u8], at: usize) -> bool {
        at.checked_add(frame::SEGMENT_HEADER_BYTES)
            .is_some_and(|end| end <= bytes.len())
    }

    fn on_entry(&mut self, bytes: &[u8], entry: &PlanEntry<'_>) {
        if self.verdict.is_some() {
            return;
        }
        if self.pos == self.n {
            // Crossing from the data region: the source-length sum is
            // checked before the first parity (or trailing) entry.
            if let Err(e) = self.check_covered() {
                self.verdict = Some(e);
                return;
            }
        }
        let segment = self.pos;
        if segment < self.n {
            match entry {
                PlanEntry::Data { seg, .. } | PlanEntry::OverBudget { seg, .. } => {
                    if let Err(e) = self
                        .state
                        .on_data(seg.source_trits, seg.payload_trits, segment)
                    {
                        self.verdict = Some(e);
                        return;
                    }
                }
                PlanEntry::Parity { byte_range, .. } => {
                    // A valid parity shard where the strict parser runs
                    // `segment_at`: the marker bytes fail its checks.
                    self.verdict = Some(marker_in_data_slot(bytes, byte_range.start, segment));
                    return;
                }
                PlanEntry::Damaged {
                    byte_range, error, ..
                } => {
                    let start = byte_range.start;
                    self.verdict = if self.v3
                        && self.has_marker(bytes, start)
                        && Self::header_fits(bytes, start)
                    {
                        // The walk parsed this with `parity_at`; the
                        // strict data loop would have run `segment_at`.
                        Some(marker_in_data_slot(bytes, start, segment))
                    } else {
                        Some(error.clone())
                    };
                    return;
                }
            }
        } else if segment < self.n + self.p {
            match entry {
                PlanEntry::Parity { par, .. } => {
                    if let Err(e) = self.state.charge_parity(par.payload.len()) {
                        self.verdict = Some(e);
                        return;
                    }
                    let slot = segment - self.n;
                    if par.group != slot / self.r
                        || par.pindex != slot % self.r
                        || par.group >= self.groups
                    {
                        self.verdict = Some(FrameError::Malformed {
                            segment,
                            what: "parity segment out of (group, pindex) order",
                        });
                        return;
                    }
                }
                PlanEntry::Data { .. } | PlanEntry::OverBudget { .. } => {
                    self.verdict = Some(FrameError::Malformed {
                        segment,
                        what: "not a parity segment (missing marker)",
                    });
                    return;
                }
                PlanEntry::Damaged {
                    byte_range, error, ..
                } => {
                    let start = byte_range.start;
                    self.verdict = if !Self::header_fits(bytes, start) {
                        Some(FrameError::Truncated { offset: start })
                    } else if !self.has_marker(bytes, start) {
                        Some(FrameError::Malformed {
                            segment,
                            what: "not a parity segment (missing marker)",
                        })
                    } else {
                        // The walk already ran `parity_at` here — its
                        // verbatim error is the strict parser's too.
                        Some(error.clone())
                    };
                    return;
                }
            }
        } else {
            self.verdict = Some(FrameError::Malformed {
                segment: self.n,
                what: "trailing bytes after the last segment",
            });
            return;
        }
        self.pos += 1;
    }

    /// The verdict once the walk reaches the end of the input.
    fn finish(mut self, bytes_len: usize) -> Option<FrameError> {
        if let Some(v) = self.verdict.take() {
            return Some(v);
        }
        if self.pos < self.n {
            // The strict data loop would parse at end-of-input next.
            return Some(FrameError::Truncated { offset: bytes_len });
        }
        if self.pos == self.n {
            if let Err(e) = self.check_covered() {
                return Some(e);
            }
        }
        if self.pos < self.n + self.p {
            return Some(FrameError::Truncated { offset: bytes_len });
        }
        None
    }
}

/// Builds a [`FramePlan`] in one header/CRC scan pass over `bytes`.
///
/// # Errors
///
/// Only file-level problems are fatal — bad magic, short or CRC-invalid
/// file header, unsupported version, file-level bomb claims, and (in
/// [`BuildMode::Full`]) an exhausted scan or resync-probe budget.
/// Segment-level damage lands in the plan, never in an `Err`.
pub(crate) fn build<'a>(
    bytes: &'a [u8],
    limits: &DecodeLimits,
    mode: BuildMode,
) -> Result<FramePlan<'a>, FrameError> {
    let head = match frame::parse_file_header(bytes, limits) {
        Ok(h) => h,
        Err(e) => {
            frame::publish_failure_metrics(&e);
            return Err(e);
        }
    };
    crate::metrics::publish_scan_passes(1);
    let v3 = head.version == frame::VERSION_V3;
    let fail_fast = mode == BuildMode::FailFast;
    let mut tracker = StrictTracker::new(bytes.len(), &head, limits);
    let mut entries: Vec<PlanEntry<'a>> = Vec::new();
    // The walk's own allocation budget for classifying over-budget
    // segments. Unlike the tracker's strict budget it keeps running past
    // damage — salvage skips expensive segments individually.
    let mut walk_budget = frame::trit_alloc_bytes(head.source_len);
    let scan_cap = limits
        .max_segments
        .saturating_add(head.parity_segments().min(limits.max_segments));
    let mut at = head.header_bytes;
    while at < bytes.len() {
        if fail_fast && tracker.verdict().is_some() {
            // The strict verdict is fixed; nothing downstream needs the
            // rest of the walk.
            break;
        }
        if !fail_fast && entries.len() >= scan_cap {
            let e = FrameError::LimitExceeded {
                what: "scanned segment count",
                requested: entries.len() + 1,
                limit: scan_cap,
            };
            frame::publish_failure_metrics(&e);
            return Err(e);
        }
        let index = entries.len();
        let is_parity = v3 && bytes.get(at..at + 2) == Some(&frame::PARITY_MARKER.to_le_bytes());
        let result = if is_parity {
            match frame::parity_at(bytes, at, index, limits) {
                Ok((par, next)) => {
                    let entry = PlanEntry::Parity {
                        par,
                        byte_range: at..next,
                    };
                    tracker.on_entry(bytes, &entry);
                    entries.push(entry);
                    at = next;
                    continue;
                }
                Err(e) => Err(e),
            }
        } else {
            frame::segment_at(bytes, at, index, limits)
        };
        match result {
            Ok((seg, next)) => {
                let add = frame::trit_alloc_bytes(seg.source_trits)
                    .saturating_add(frame::trit_alloc_bytes(seg.payload_trits));
                let entry = if walk_budget.saturating_add(add) > limits.max_total_alloc {
                    // Too expensive to decode — classified, not charged.
                    if !fail_fast {
                        crate::metrics::publish_limit_rejections(1);
                        ninec_obs::trace_instant(
                            "over_budget",
                            u32::try_from(index).unwrap_or(u32::MAX),
                            ninec_obs::RungKind::None,
                            ninec_obs::TracePayload::None,
                        );
                    }
                    PlanEntry::OverBudget {
                        seg,
                        byte_range: at..next,
                    }
                } else {
                    walk_budget = walk_budget.saturating_add(add);
                    PlanEntry::Data {
                        seg,
                        byte_range: at..next,
                    }
                };
                tracker.on_entry(bytes, &entry);
                entries.push(entry);
                at = next;
            }
            Err(e) => {
                if !fail_fast {
                    frame::publish_failure_metrics(&e);
                }
                // The header fields are untrusted but still useful as a
                // *claim* for sizing the erasure run.
                let claimed = if is_parity {
                    Some(0)
                } else {
                    frame::le_u32(bytes, at + 4).map(|v| v as usize)
                };
                let resync = if fail_fast {
                    // No probing: the verdict below ends the walk.
                    bytes.len()
                } else {
                    match frame::find_resync(bytes, at, v3, limits) {
                        Ok(r) => r,
                        Err(e2) => {
                            frame::publish_failure_metrics(&e2);
                            return Err(e2);
                        }
                    }
                };
                if !fail_fast {
                    // The per-segment CRC verdict and the resync probe it
                    // forced, on the flight-recorder timeline.
                    ninec_obs::trace_instant(
                        "crc_verdict",
                        u32::try_from(index).unwrap_or(u32::MAX),
                        ninec_obs::RungKind::None,
                        ninec_obs::TracePayload::Crc {
                            ok: false,
                            claimed_trits: u32::try_from(claimed.unwrap_or(0)).unwrap_or(u32::MAX),
                        },
                    );
                    ninec_obs::trace_instant(
                        "resync",
                        u32::try_from(index).unwrap_or(u32::MAX),
                        ninec_obs::RungKind::None,
                        ninec_obs::TracePayload::Resync {
                            from: u32::try_from(at).unwrap_or(u32::MAX),
                            to: u32::try_from(resync).unwrap_or(u32::MAX),
                        },
                    );
                }
                let entry = PlanEntry::Damaged {
                    byte_range: at..resync,
                    claimed_source_trits: claimed,
                    error: e,
                };
                tracker.on_entry(bytes, &entry);
                entries.push(entry);
                at = resync;
            }
        }
    }
    let strict_error = tracker.finish(bytes.len());
    if fail_fast {
        // The fail-fast build reports health metrics like the eager
        // parser: once, for the final verdict. (The full walk publishes
        // per damaged range instead, like the salvage scan always did.)
        if let Some(e) = &strict_error {
            frame::publish_failure_metrics(e);
        }
    }
    Ok(FramePlan {
        bytes,
        table_lengths: head.table_lengths,
        source_len: head.source_len,
        claimed_segments: head.claimed_segments,
        version: head.version,
        parity_g: head.parity_g,
        parity_r: head.parity_r,
        limits: *limits,
        entries,
        strict_error,
    })
}

/// Executes the strict rung against a plan: fail closed on the strict
/// verdict, otherwise decode the `Data` entries concurrently — the CRC
/// verdicts are already in the plan, so nothing is scanned twice.
pub(crate) fn execute_strict(
    engine: &Engine,
    plan: &FramePlan<'_>,
) -> Result<SalvageReport, DecodeError> {
    if let Some(e) = &plan.strict_error {
        return Err(e.clone().into());
    }
    // A strictly valid plan is exactly `n` data entries followed by the
    // parity segments, so the data ordinal equals the segment index.
    let segs: Vec<ParsedSegment<'_>> = plan
        .entries
        .iter()
        .filter_map(|e| match e {
            PlanEntry::Data { seg, .. } => Some(*seg),
            _ => None,
        })
        .collect();
    let trits = decode_segments(engine, &plan.table_lengths, &segs, plan.source_len)?;
    Ok(SalvageReport {
        trits,
        recovered_segments: segs.len(),
        total_segments: segs.len(),
        damaged: Vec::new(),
    })
}

/// The decode-and-merge half of the strict rung, shared with the
/// archive's range reads: decodes CRC-verified, budget-charged segments
/// concurrently (segment `i` of `segs` is decoded and attributed as
/// segment `i`) and concatenates their trits in order. Fails closed on
/// the first failing segment, a worker panic or cancellation.
pub(crate) fn decode_segments(
    engine: &Engine,
    table_lengths: &[u8; 9],
    segs: &[ParsedSegment<'_>],
    source_len: usize,
) -> Result<TritVec, DecodeError> {
    let table = CodeTable::from_lengths(table_lengths).map_err(|_| FrameError::BadTable)?;
    let results =
        pool::cancellable_map_indexed(engine.threads(), segs.len(), engine.cancel(), |i| {
            let _seg_span = ninec_obs::trace_span_scope(
                "segment_decode",
                u32::try_from(i).unwrap_or(u32::MAX),
                ninec_obs::TracePayload::None,
            );
            engine.decode_one_segment(&segs[i], i, &table)
        });
    let mut parts = Vec::with_capacity(results.len());
    let mut first_err: Option<DecodeError> = None;
    let mut panics = 0u64;
    let mut cancelled = 0u64;
    for (i, r) in results.into_iter().enumerate() {
        match r {
            pool::JobOutcome::Done(Ok(seg_out)) => parts.push(seg_out),
            pool::JobOutcome::Done(Err(e)) => {
                if first_err.is_none() {
                    first_err = Some(e);
                }
            }
            pool::JobOutcome::Panicked(_) => {
                panics += 1;
                if first_err.is_none() {
                    first_err = Some(DecodeError::WorkerPanicked { segment: i });
                }
            }
            pool::JobOutcome::Cancelled => cancelled += 1,
        }
    }
    crate::metrics::publish_worker_panics(panics);
    crate::metrics::publish_cancelled_jobs(cancelled);
    if cancelled > 0 {
        // Cancellation beats per-segment errors in the strict verdict:
        // the caller asked us to stop, so say so — with the trip cause
        // (deadline vs explicit hang-up) typed.
        let trip = engine
            .cancel()
            .and_then(cancel::CancelToken::trip)
            .unwrap_or(cancel::Trip::Cancelled);
        return Err(trip.decode_error());
    }
    if let Some(e) = first_err {
        return Err(e);
    }
    // A one-segment frame's trits are the whole stream: no copy.
    Ok(match <[TritVec; 1]>::try_from(parts) {
        Ok([only]) => only,
        Err(parts) => {
            let mut trits = TritVec::with_capacity(source_len);
            for seg_out in &parts {
                trits.extend_from_tritvec(seg_out);
            }
            trits
        }
    })
}

impl Engine {
    /// Builds the complete decode plan for a `9CSF` frame in **one**
    /// header/CRC scan pass: every body byte classified, parity
    /// membership resolved, and the strict verdict pinned. Feed the plan
    /// to [`execute_plan`](Engine::execute_plan) — running the whole
    /// strict → repair → salvage ladder against one plan costs exactly
    /// one scan pass (the `ninec.frame.scan_passes` counter proves it).
    ///
    /// # Errors
    ///
    /// Only file-level problems: bad magic, a short or CRC-invalid file
    /// header, an unsupported version, file-level
    /// [`DecodeError::LimitExceeded`] bombs (including an exhausted
    /// resync-probe budget). Segment-level damage lands in the plan.
    pub fn build_plan<'a>(&self, bytes: &'a [u8]) -> Result<FramePlan<'a>, DecodeError> {
        let _span = ninec_obs::span("engine_build_plan");
        build(bytes, self.limits(), BuildMode::Full).map_err(DecodeError::from)
    }

    /// Executes one rung of the decode ladder against a plan built by
    /// [`build_plan`](Engine::build_plan) — without re-scanning the
    /// frame. [`Policy::Strict`] fails closed exactly like
    /// [`decode_frame`](Engine::decode_frame). [`Policy::Repair`] rebuilds
    /// damaged v3 segments from parity (byte-exact, each rebuild
    /// re-verified against its own CRC) and erases to `X` what parity
    /// cannot reach; [`Policy::Salvage`] skips parity and erases every
    /// damaged range. Segment-level problems — bad CRCs, truncated
    /// tails, malformed or limit-busting headers, payloads that fail 9C
    /// decoding, a worker panic — become damage-map entries, and the
    /// report's `trits` is always exactly the header's `source_len` long.
    ///
    /// # Errors
    ///
    /// [`Policy::Strict`]: the plan's strict verdict or any per-segment
    /// decode failure. [`Policy::Repair`] / [`Policy::Salvage`]: only a
    /// Kraft-invalid stored code table — everything else degrades into
    /// the report's damage map.
    pub fn execute_plan(
        &self,
        plan: &FramePlan<'_>,
        policy: Policy,
    ) -> Result<SalvageReport, DecodeError> {
        let _span = ninec_obs::span("engine_execute_plan");
        match policy {
            Policy::Strict => execute_strict(self, plan),
            Policy::Repair => super::salvage::execute(self, plan, true),
            Policy::Salvage => super::salvage::execute(self, plan, false),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::frame::{HEADER_BYTES, HEADER_BYTES_V3, SEGMENT_HEADER_BYTES};

    fn tv(s: &str) -> TritVec {
        s.parse().expect("valid trit literal")
    }

    fn sample_stream() -> TritVec {
        tv(&"0X0X01X001X0101X111111110000X1111X0110XX".repeat(12))
    }

    fn engine() -> Engine {
        Engine::builder().threads(2).segment_bits(64).build()
    }

    fn v3_engine(g: u8, r: u8) -> Engine {
        Engine::builder()
            .threads(2)
            .segment_bits(64)
            .parity(g, r)
            .build()
    }

    /// The strict verdict of a plan build (either mode), folded with the
    /// build's own fatal errors so it compares 1:1 against
    /// `parse_limited`'s result.
    fn plan_verdict(bytes: &[u8], mode: BuildMode) -> Option<String> {
        match build(bytes, &DecodeLimits::default(), mode) {
            Ok(plan) => plan.strict_error.map(|e| e.to_string()),
            Err(e) => Some(e.to_string()),
        }
    }

    fn parse_verdict(bytes: &[u8]) -> Option<String> {
        frame::parse_limited(bytes, &DecodeLimits::default())
            .err()
            .map(|e| e.to_string())
    }

    #[test]
    fn clean_frames_plan_with_no_strict_error() {
        let stream = sample_stream();
        for e in [engine(), v3_engine(4, 1)] {
            let bytes = e.encode_frame(8, &stream).expect("valid K");
            let plan = e.build_plan(&bytes).expect("plans");
            assert!(plan.strict_error().is_none());
            let parsed = frame::parse(&bytes).expect("parses");
            assert_eq!(plan.intact_count(), parsed.segments.len());
            assert_eq!(
                plan.entries().len(),
                parsed.segments.len() + parsed.parity.len()
            );
            // Strict execution against the plan matches decode_frame.
            let report = e.execute_plan(&plan, Policy::Strict).expect("decodes");
            assert_eq!(report.trits, e.decode_frame(&bytes).expect("decodes"));
            assert!(report.damaged.is_empty());
        }
    }

    #[test]
    fn strict_verdict_matches_parse_limited_on_every_single_byte_mutation() {
        let stream = sample_stream();
        for e in [engine(), v3_engine(2, 1)] {
            let bytes = e.encode_frame(8, &stream).expect("valid K");
            for flip in [0x01u8, 0xFF] {
                for i in 0..bytes.len() {
                    let mut bad = bytes.clone();
                    bad[i] ^= flip;
                    let want = parse_verdict(&bad);
                    for mode in [BuildMode::FailFast, BuildMode::Full] {
                        assert_eq!(
                            plan_verdict(&bad, mode),
                            want,
                            "byte {i} flip {flip:#04x} mode {mode:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn strict_verdict_matches_parse_limited_on_every_truncation() {
        let stream = sample_stream();
        for e in [engine(), v3_engine(2, 1)] {
            let bytes = e.encode_frame(8, &stream).expect("valid K");
            for cut in 0..bytes.len() {
                let want = parse_verdict(&bytes[..cut]);
                for mode in [BuildMode::FailFast, BuildMode::Full] {
                    assert_eq!(
                        plan_verdict(&bytes[..cut], mode),
                        want,
                        "cut {cut} {mode:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn one_plan_drives_the_whole_ladder() {
        let stream = sample_stream();
        let e = v3_engine(4, 1);
        let bytes = e.encode_frame(8, &stream).expect("valid K");
        let clean = e.decode_frame(&bytes).expect("decodes");
        let mut bad = bytes.clone();
        bad[HEADER_BYTES_V3 + SEGMENT_HEADER_BYTES] ^= 0x55;
        // Build once; strict fails, repair on the same plan is bit-exact.
        let plan = e.build_plan(&bad).expect("plans");
        assert!(matches!(
            e.execute_plan(&plan, Policy::Strict),
            Err(DecodeError::Frame(FrameError::BadCrc { segment: 0 }))
        ));
        let repaired = e.execute_plan(&plan, Policy::Repair).expect("repairs");
        assert!(repaired.is_full_recovery());
        assert_eq!(repaired.trits, clean);
        assert_eq!(repaired.repaired_segments(), 1);
        // Salvage from the same plan erases instead.
        let salvaged = e.execute_plan(&plan, Policy::Salvage).expect("salvages");
        assert!(!salvaged.is_full_recovery());
        assert_eq!(salvaged.trits.len(), clean.len());
    }

    #[test]
    fn fail_fast_build_stops_at_the_first_damage() {
        let stream = sample_stream();
        let e = engine();
        let bytes = e.encode_frame(8, &stream).expect("valid K");
        let mut bad = bytes.clone();
        bad[HEADER_BYTES + SEGMENT_HEADER_BYTES] ^= 0x55;
        let fast = build(&bad, &DecodeLimits::default(), BuildMode::FailFast).expect("plans");
        assert_eq!(fast.entries.len(), 1, "stops at the damaged entry");
        assert!(matches!(
            fast.strict_error,
            Some(FrameError::BadCrc { segment: 0 })
        ));
        let full = build(&bad, &DecodeLimits::default(), BuildMode::Full).expect("plans");
        assert!(full.entries.len() > 1, "full walk resynchronises");
        assert_eq!(fast.strict_error, full.strict_error);
    }

    #[test]
    fn damaged_entry_keeps_the_verbatim_error() {
        let stream = sample_stream();
        let e = v3_engine(4, 1);
        let bytes = e.encode_frame(8, &stream).expect("valid K");
        let mut bad = bytes.clone();
        bad[HEADER_BYTES_V3 + SEGMENT_HEADER_BYTES] ^= 0x55;
        let plan = e.build_plan(&bad).expect("plans");
        let clean = e.build_plan(&bytes).expect("plans");
        assert_eq!(plan.entries().len(), clean.entries().len());
        assert_eq!(plan.intact_count() + 1, clean.intact_count());
        assert!(matches!(
            plan.entries()[0],
            PlanEntry::Damaged {
                error: FrameError::BadCrc { segment: 0 },
                ..
            }
        ));
    }
}
