//! Pieces every workload shares: the run context, seeded choices, output
//! oracles, layer replays and the traced-run bookkeeping.

use crate::pace::{Paced, Pacer};
use crate::report::Report;
use crate::stats;
use crate::trace::{self, Recorder};
use ninec::code::CodeTable;
use ninec::engine::{frame, Engine, FramePlan, PlanEntry, DEFAULT_SEGMENT_BITS};
use ninec::{Encoder, StreamDecoder};
use ninec_testdata::trit::TritVec;
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Block size every workload encodes at.
pub const K: usize = 8;

/// Set-ups measured per run; `setup_s` is their median.
pub const SETUPS: usize = 9;

/// Iterations a timed loop runs even when `--seconds` is already spent.
pub const MIN_ITERS: usize = 3;

/// One run's parameters.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Engine threads, CLI `--threads` and client connections of every
    /// timed op: one, so a run needs one core of a shared host and does
    /// not time the scheduler.
    pub threads: usize,
    /// `available_parallelism()`: the traced `frame-dense` run measures
    /// the executor at this many threads against one.
    pub nproc: usize,
    /// Scratch directory inside the checkout, removed at exit.
    pub work: PathBuf,
    /// Where the traced run writes its spans.
    pub spans_out: PathBuf,
    pub epoch: Instant,
}

impl Ctx {
    /// Runs `body(i)` until `--seconds` have passed (at least
    /// [`MIN_ITERS`] times) and returns the loop's wall time.
    pub fn timed_loop(&self, mut body: impl FnMut(usize)) -> Duration {
        let start = Instant::now();
        let mut i = 0;
        while i < MIN_ITERS || start.elapsed().as_secs_f64() < self.seconds {
            body(i);
            i += 1;
        }
        start.elapsed()
    }
}

/// A small deterministic generator (SplitMix64) for seeded choices.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x6A09_E667_F3BC_C909)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Seconds spent in `f`, with its result.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = std::hint::black_box(f());
    (out, t.elapsed().as_secs_f64())
}

/// [`time`] for a timed operation: its heap use also counts towards
/// `peak_heap_mib`. Check the output only after this returns.
pub fn measure<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let window = crate::heap::window();
    let out = time(f);
    window.close();
    out
}

/// Care-bit oracle: `decoded` has the source's length and agrees with it
/// on every care trit.
pub fn care_bits_match(what: &str, decoded: &TritVec, source: &TritVec) -> Option<String> {
    if decoded.len() != source.len() {
        return Some(format!(
            "{what}: decoded {} trits, source has {}",
            decoded.len(),
            source.len()
        ));
    }
    (!decoded.covers(source)).then(|| format!("{what}: a care bit differs from the source"))
}

/// Payload oracle: the frame's data-segment payloads add up to the serial
/// reference encoder's output length, and every segment is intact.
pub fn payload_matches(what: &str, plan: &FramePlan<'_>, reference_len: usize) -> Option<String> {
    let total: usize = data_segments(plan).map(|(_, seg)| seg.payload_trits).sum();
    if plan.intact_count() != plan.claimed_segments() {
        return Some(format!("{what}: frame has damaged segments"));
    }
    (total != reference_len)
        .then(|| format!("{what}: payload {total} trits, serial reference encodes {reference_len}"))
}

/// The serial reference encoder's output length for `stream`.
pub fn reference_len(stream: &TritVec) -> usize {
    Encoder::new(K)
        .expect("K is a valid block size")
        .encode_stream(stream)
        .compressed_len()
}

/// Data segments of a plan in stream order, with their byte ranges.
pub fn data_segments<'p, 'a>(
    plan: &'p FramePlan<'a>,
) -> impl Iterator<Item = (std::ops::Range<usize>, frame::ParsedSegment<'a>)> + 'p {
    plan.entries().iter().filter_map(|e| match e {
        PlanEntry::Data { seg, byte_range } => Some((byte_range.clone(), *seg)),
        _ => None,
    })
}

/// One data segment per parity group of a `groups`-group frame, on a
/// diagonal (group `q` loses the member in shard slot `q`), so no two
/// damaged segments are neighbours in the stream.
pub fn diagonal_victims(data_segments: usize, groups: usize) -> Vec<usize> {
    (0..groups)
        .map(|q| {
            let members: Vec<usize> = frame::group_members(q, data_segments, groups).collect();
            members[q % members.len()]
        })
        .collect()
}

/// Flips one seeded payload byte in each of the `victims` data segments
/// of a fresh v3 frame.
pub fn damage(bytes: &[u8], engine: &Engine, victims: &[usize], rng: &mut Rng) -> Vec<u8> {
    let plan = engine
        .build_plan(bytes)
        .expect("a fresh parity frame plans");
    let data: Vec<_> = data_segments(&plan).map(|(r, _)| r).collect();
    let mut out = bytes.to_vec();
    for &v in victims {
        let range = &data[v];
        let header = frame::SEGMENT_HEADER_BYTES;
        out[range.start + header + rng.below(range.len() - header)] ^= 0x5A;
    }
    out
}

/// Repairs a copy of `bytes` with two neighbouring data segments damaged,
/// each in a different parity group (within the parity budget), and
/// returns how many segments came back lost instead of rebuilt.
pub fn adjacent_damage_lost(bytes: &[u8], engine: &Engine, rng: &mut Rng) -> usize {
    let damaged = damage(bytes, engine, &[0, 1], rng);
    match ninec::DecodeSession::new()
        .threads(engine.threads())
        .decode_frame(&damaged, ninec::Policy::Repair)
    {
        Ok(o) => o.report.map_or(0, |r| {
            r.damaged.iter().filter(|d| !d.reason.is_repaired()).count()
        }),
        Err(_) => 2,
    }
}

/// Compression ratio in the paper's sense, from the written frame bytes
/// (headers and parity included).
pub fn cr_pct(source_trits: usize, frame_bytes: usize) -> f64 {
    (source_trits as f64 - (frame_bytes * 8) as f64) / source_trits as f64 * 100.0
}

/// Process high-water resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Segment boundaries the engine uses for `len` source trits at `K`.
pub fn segment_ranges(len: usize) -> Vec<(usize, usize)> {
    let seg = (DEFAULT_SEGMENT_BITS / K * K).max(K);
    (0..len.div_ceil(seg))
        .map(|i| (i * seg, ((i + 1) * seg).min(len)))
        .collect()
}

/// Replays the encode layers of one frame encode under `parent`: the
/// serial kernel, the 2-bit pack and the CRC, segment by segment. Returns
/// the bytes the CRC covered and a verdict: each replayed payload must
/// equal the matching segment payload of `frame`, the real encode's plan.
pub fn replay_encode(
    rec: &mut Recorder,
    parent: usize,
    req: u64,
    stream: &TritVec,
    frame: &FramePlan<'_>,
) -> (usize, Option<String>) {
    let encoder = Encoder::new(K).expect("K is a valid block size");
    let real: Vec<&[u8]> = data_segments(frame).map(|(_, seg)| seg.payload).collect();
    let ranges = segment_ranges(stream.len());
    let mut verdict = (real.len() != ranges.len()).then(|| {
        format!(
            "encode replay: {} segments, the real frame has {}",
            ranges.len(),
            real.len()
        )
    });
    let mut crc_bytes = 0;
    for (i, (start, end)) in ranges.into_iter().enumerate() {
        let slice = stream.slice(start, end);
        let (encoded, _) = rec.time("encode.kernel", Some(parent), req, || {
            encoder.encode_stream(&slice)
        });
        let (packed, _) = rec.time("frame.pack", Some(parent), req, || {
            frame::pack_payload(encoded.stream())
        });
        let mut covered = Vec::with_capacity(12 + packed.len());
        covered.extend_from_slice(&[0u8; 12]);
        covered.extend_from_slice(&packed);
        rec.time("frame.crc", Some(parent), req, || frame::crc32(&covered));
        crc_bytes += covered.len();
        if verdict.is_none() && real.get(i) != Some(&packed.as_slice()) {
            verdict = Some(format!(
                "encode replay: segment {i} payload differs from the frame"
            ));
        }
    }
    (crc_bytes, verdict)
}

/// Replays `unpack_payload` and `StreamDecoder::run_into` for every data
/// segment of `plan` under `parent`. Returns a verdict: the replayed
/// segments, concatenated, must equal `real`, the real decode's output.
pub fn replay_decode(
    rec: &mut Recorder,
    parent: usize,
    req: u64,
    plan: &FramePlan<'_>,
    real: &TritVec,
) -> Option<String> {
    let table = CodeTable::paper();
    let mut all = TritVec::with_capacity(real.len());
    for (i, (_, seg)) in data_segments(plan).enumerate() {
        let (payload, _) = rec.time("frame.unpack", Some(parent), req, || {
            frame::unpack_payload(&seg, i).expect("intact segment unpacks")
        });
        let (out, _) = rec.time("decode.stream", Some(parent), req, || {
            let mut out = TritVec::with_capacity(seg.source_trits);
            StreamDecoder::new(
                payload.as_slice().iter(),
                seg.k,
                table.clone(),
                seg.source_trits,
            )
            .expect("K is a valid block size")
            .run_into(&mut out)
            .expect("intact segment decodes");
            out
        });
        all.extend_from_tritvec(&out);
    }
    (all != *real).then(|| "decode replay: output differs from the real decode".to_string())
}

/// Consecutive blocks `serve_p90_ms` and `serve_req_s` split a run's ops
/// into; each reports the median over the blocks, so one slow stretch of
/// the run moves one block, not the figure.
const BLOCKS: usize = 8;

/// One untraced run's end-to-end figures. Every workload has a compress
/// op, a decode op and a third op (repair or range read). Timings are
/// reported normalised by `pacer` (see [`crate::pace`]).
pub struct EndToEnd<'a> {
    pub pacer: &'a Pacer,
    pub setups: &'a [Paced],
    /// Every compress, decode and third op, in that order.
    pub ops: [&'a [Paced]; 3],
    /// Every op of all three kinds, in the order issued.
    pub sequence: &'a [Paced],
    /// Source Mbit one op of each kind carries.
    pub mbit: [f64; 3],
    /// Ops answered correctly during the loop.
    pub completed: usize,
    pub cr_pct: f64,
}

impl EndToEnd<'_> {
    /// Reports every end-to-end metric but `success_rate` (see
    /// [`Report::finish`]).
    pub fn report(&self, rep: &mut Report) {
        println!("{}", self.pacer.describe());
        let norm = |xs: &[Paced]| xs.iter().map(|&x| self.pacer.normalize(x)).collect::<Vec<_>>();
        let raw = |xs: &[Paced]| xs.iter().map(|x| x.raw).collect::<Vec<_>>();
        let ms = |xs: Vec<f64>| xs.into_iter().map(|x| x * 1e3).collect::<Vec<_>>();
        let rate = |xs: Vec<f64>, mbit: f64| xs.into_iter().map(|x| mbit / x).collect::<Vec<_>>();
        let [c, d, t] = self.ops;
        rep.timing("setup_s", &norm(self.setups), &raw(self.setups));
        rep.timing("compress_s", &norm(c), &raw(c));
        rep.timing("decompress_s", &norm(d), &raw(d));
        for (name, op, mbit) in [
            ("encode_mbit_s", c, self.mbit[0]),
            ("decode_mbit_s", d, self.mbit[1]),
            ("repair_mbit_s", t, self.mbit[2]),
        ] {
            rep.timing(name, &rate(norm(op), mbit), &rate(raw(op), mbit));
        }
        // Ops answered correctly per second spent inside ops (so the
        // benchmark's own oracles and reference slices are not counted),
        // as the median over the same blocks as `serve_p90_ms`.
        let ok_share = self.completed as f64 / self.sequence.len() as f64;
        let req_s = |xs: Vec<f64>| ok_share / stats::blocked_mean(&xs, BLOCKS);
        rep.set("serve_req_s", req_s(norm(self.sequence)));
        println!("  raw {:.4} 1/s", req_s(raw(self.sequence)));
        rep.timing("serve_decode_p50_ms", &ms(norm(d)), &ms(raw(d)));
        rep.timing("serve_compress_p50_ms", &ms(norm(c)), &ms(raw(c)));
        rep.timing("serve_range_p50_ms", &ms(norm(t)), &ms(raw(t)));
        let tail = |xs: Vec<f64>, q| stats::blocked_quantile(&ms(xs), BLOCKS, q);
        rep.set("serve_p90_ms", tail(norm(self.sequence), 0.90));
        println!("  raw {:.4} ms", tail(raw(self.sequence), 0.90));
        println!(
            "  blocked p95 {:.4} / p99 {:.4} ms (raw {:.4} / {:.4}; not gated, see README)",
            tail(norm(self.sequence), 0.95),
            tail(norm(self.sequence), 0.99),
            tail(raw(self.sequence), 0.95),
            tail(raw(self.sequence), 0.99)
        );
        rep.set("cr_pct", self.cr_pct);
        rep.set("peak_heap_mib", crate::heap::window_peak_mib());
    }
}

/// Counters of one operation, from `ninec_obs::snapshot()` deltas.
pub struct ObsCounts(ninec_obs::Snapshot);

const COUNTS: [(&str, &str); 4] = [
    ("ninec.frame.scan_passes", "obs.frame.scan_passes"),
    ("ninec.engine.segments", "obs.engine.segments"),
    ("ninec.engine.steals", "obs.engine.steals"),
    ("ninec.decode.blocks", "obs.decode.blocks"),
];

impl ObsCounts {
    pub fn start() -> Self {
        ObsCounts(ninec_obs::snapshot())
    }

    /// Reports each counter's growth since [`start`](ObsCounts::start).
    pub fn report(self, rep: &mut Report) {
        let now = ninec_obs::snapshot();
        for (counter, metric) in COUNTS {
            let before = self.0.counter(counter).unwrap_or(0);
            let after = now.counter(counter).unwrap_or(0);
            rep.set(metric, after.saturating_sub(before) as f64);
        }
    }
}

/// Collects the traced run's span logs and turns them into layer metrics.
#[derive(Default)]
pub struct Traced {
    logs: Vec<Recorder>,
    /// Untraced end-to-end samples of each root operation (ms).
    bare: BTreeMap<&'static str, Vec<f64>>,
    /// Bytes one iteration's `frame.crc` spans cover.
    pub crc_bytes: usize,
}

impl Traced {
    pub fn add_log(&mut self, rec: Recorder) {
        self.logs.push(rec);
    }

    /// Records an untraced run of root operation `root`.
    pub fn bare(&mut self, root: &'static str, secs: f64) {
        self.bare.entry(root).or_default().push(secs * 1e3);
    }

    pub fn bare_samples(&self, root: &str) -> &[f64] {
        self.bare.get(root).map_or(&[], Vec::as_slice)
    }

    /// Reconciles every log, reports the layer metrics, the signed
    /// remainders and the tracing overhead, and writes the spans out.
    /// Returns the reconciled roots for workload-specific metrics.
    pub fn finish(&self, ctx: &Ctx, rep: &mut Report) -> Vec<trace::Reconciled> {
        let mut roots = Vec::new();
        // Per iteration (log, request id): each layer's self time summed
        // over the iteration's roots.
        let mut per_req: BTreeMap<(usize, u64), BTreeMap<&str, f64>> = BTreeMap::new();
        let mut jsonl = String::new();
        for (log, rec) in self.logs.iter().enumerate() {
            rec.write_jsonl(log, &mut jsonl);
            match trace::reconcile(rec.spans()) {
                Ok(rs) => {
                    for r in &rs {
                        let layers = per_req.entry((log, r.req)).or_default();
                        for (name, ns) in &r.layers {
                            *layers.entry(name).or_insert(0.0) += *ns as f64 / 1e6;
                        }
                    }
                    roots.extend(rs);
                }
                Err(e) => rep.check(Some(format!("reconciliation: {e}"))),
            }
        }
        if let Err(e) = std::fs::write(&ctx.spans_out, jsonl) {
            eprintln!("cannot write {}: {e}", ctx.spans_out.display());
        }
        println!(
            "reconciliation: {} roots, layers + unattributed = end-to-end for each; spans in {}",
            roots.len(),
            ctx.spans_out.display()
        );
        rep.set("trace.reconciled_roots", roots.len() as f64);
        // Each layer span name `<layer>` is reported as `<layer>_ms`.
        let layers: BTreeSet<&str> = per_req.values().flat_map(|m| m.keys().copied()).collect();
        for layer in layers {
            let samples: Vec<f64> = per_req
                .values()
                .filter_map(|m| m.get(layer))
                .copied()
                .collect();
            rep.samples(&format!("{layer}_ms"), &samples);
            if layer == "frame.crc" && self.crc_bytes > 0 {
                let mib = self.crc_bytes as f64 / f64::from(1 << 20);
                rep.set("frame.crc_mib_s", mib / (stats::median(&samples) / 1e3));
            }
        }
        let mut traced_ms: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        let mut unattributed: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for r in &roots {
            traced_ms
                .entry(r.name)
                .or_default()
                .push(r.e2e_ns as f64 / 1e6);
            unattributed
                .entry(r.name)
                .or_default()
                .push(r.unattributed_ns as f64 / 1e6);
        }
        for (root, samples) in &unattributed {
            rep.samples(&format!("{root}.unattributed_ms"), samples);
        }
        // Where each operation's time went: median self time per layer.
        for (root, e2e) in &traced_ms {
            let mut line = format!(
                "breakdown {root}: end-to-end {:.3} ms =",
                stats::median(e2e)
            );
            let mine: Vec<_> = roots.iter().filter(|r| r.name == *root).collect();
            let layers: BTreeSet<&str> =
                mine.iter().flat_map(|r| r.layers.keys().copied()).collect();
            for layer in layers {
                let ms: Vec<f64> = mine
                    .iter()
                    .map(|r| r.layers.get(layer).copied().unwrap_or(0) as f64 / 1e6)
                    .collect();
                line.push_str(&format!(" {layer} {:.3} +", stats::median(&ms)));
            }
            line.push_str(&format!(
                " unattributed {:.3} (medians)",
                stats::median(&unattributed[root])
            ));
            println!("{line}");
        }
        // Tracing overhead: traced end-to-end minus untraced, summed over
        // the root operations that have both.
        let (mut traced_sum, mut bare_sum) = (0.0, 0.0);
        for (root, traced) in &traced_ms {
            let bare = self.bare_samples(root);
            if bare.is_empty() {
                continue;
            }
            let (tm, bm) = (stats::median(traced), stats::median(bare));
            println!(
                "tracing overhead {root}: traced {tm:.3} ms - untraced {bm:.3} ms = {:+.3} ms",
                tm - bm
            );
            traced_sum += tm;
            bare_sum += bm;
        }
        if bare_sum > 0.0 {
            rep.set("trace.overhead_pct", (traced_sum / bare_sum - 1.0) * 100.0);
        }
        roots
    }
}
