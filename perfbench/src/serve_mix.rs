//! `serve-mix`: an in-process `ninec_serve::Server` on loopback, on its
//! shipped `ServeConfig` defaults, hosting a small `.9ca` archive, driven
//! by one closed-loop client connection with a seeded mix — 60%
//! strict decode of a ≈256 Kbit frame, 25% compress of same-size text,
//! 15% archive range reads of 512-trit windows.
//!
//! The decode requests carry frames as `ninec compress` writes them by
//! default, and the archive holds the same frames, as `ninec archive`
//! stores them. Compress replies use the server's own default segment
//! size and parity.

use crate::common::{self, time, Ctx, ObsCounts, Rng, Traced, K};
use crate::pace::{Paced, Pacer};
use crate::report::Report;
use crate::stats;
use crate::trace::Recorder;
use ninec::engine::{Archive, Engine};
use ninec::{DecodeSession, Policy};
use ninec_serve::{wire, Client, Op, ServeConfig, Server, Status};
use ninec_testdata::gen::ibm_profiles;
use ninec_testdata::trit::TritVec;

/// Set-ups per run. One takes about ten milliseconds, much of it in the
/// archive's fsyncs, whose latency varies widely, so a larger sample
/// steadies the median.
const SERVE_SETUPS: usize = 64;
/// Distinct inputs per run; each is ≈256 Kbit.
const INPUTS: usize = 8;
const PATTERNS: usize = 32;
const CELLS: usize = 8192;
/// Trits per archive range read.
const WINDOW: usize = 512;
const OPS: [&str; 3] = ["serve.decode", "serve.compress", "serve.range"];

/// One input and every reply the service must give for it.
struct Input {
    text: String,
    /// The input as `ninec compress` writes it by default.
    frame: Vec<u8>,
    /// The server's compress reply: the in-process encode on the
    /// server's segment size and parity.
    compressed: Vec<u8>,
    /// `Engine::decode_frame` of `frame`, as text.
    decoded: String,
    /// `decoded` agrees with the source on every care bit.
    decoded_ok: bool,
}

/// One request as a client sends it and the reply it must get.
struct Request {
    op: usize,
    input: usize,
    start: usize,
}

impl Request {
    fn draw(rng: &mut Rng) -> Self {
        let op = match rng.below(100) {
            0..=59 => 0,
            60..=84 => 1,
            _ => 2,
        };
        Request {
            op,
            input: rng.below(INPUTS),
            start: rng.below(PATTERNS * CELLS - WINDOW),
        }
    }

    /// Sends the request; returns the oracle verdict. Decode and range
    /// replies are compared with the in-process decode, which stands for
    /// the care-bit check only while that decode passed it.
    fn send(&self, client: &mut Client, inputs: &[Input]) -> Option<String> {
        let inp = &inputs[self.input];
        let verdict = match self.op {
            0 => match client.decode(&inp.frame, Policy::Strict) {
                Ok(r) if r.partial || r.trits != inp.decoded => {
                    Some("serve decode: reply differs from Engine::decode_frame".into())
                }
                Ok(_) => None,
                Err(e) => Some(format!("serve decode: {e}")),
            },
            1 => match client.compress(K as u16, &inp.text) {
                Ok(f) if f != inp.compressed => {
                    Some("serve compress: frame differs from the in-process encode".into())
                }
                Ok(_) => None,
                Err(e) => Some(format!("serve compress: {e}")),
            },
            _ => match client.archive_range(self.input as u32, self.start as u64, WINDOW as u64) {
                Ok(t) if t != inp.decoded[self.start..self.start + WINDOW] => {
                    Some("serve range: reply differs from the full decode's slice".into())
                }
                Ok(_) => None,
                Err(e) => Some(format!("serve range: {e}")),
            },
        };
        match verdict {
            None if self.op != 1 && !inp.decoded_ok => {
                Some("serve: the in-process decode of this input is wrong".into())
            }
            v => v,
        }
    }

    /// Request and response bodies on the wire.
    fn bodies(&self, inp: &Input) -> (Op, Vec<u8>, Vec<u8>) {
        match self.op {
            0 => {
                let mut req = vec![wire::policy_to_byte(Policy::Strict)];
                req.extend_from_slice(&inp.frame);
                let mut resp = vec![wire::rung_to_byte(ninec::RungKind::Strict), 0, 0, 0, 0];
                resp.extend_from_slice(inp.decoded.as_bytes());
                (Op::Decode, req, resp)
            }
            1 => {
                let mut req = (K as u16).to_le_bytes().to_vec();
                req.extend_from_slice(inp.text.as_bytes());
                (Op::Compress, req, inp.compressed.clone())
            }
            _ => {
                let req =
                    wire::encode_archive_range(self.input as u32, self.start as u64, WINDOW as u64);
                let resp = inp.decoded.as_bytes()[self.start..self.start + WINDOW].to_vec();
                (Op::ArchiveRange, req.to_vec(), resp)
            }
        }
    }

    /// Request plus response body bytes; equals the lengths of
    /// [`bodies`](Request::bodies) without building them.
    fn body_bytes(&self, inp: &Input) -> usize {
        match self.op {
            0 => 1 + inp.frame.len() + 5 + inp.decoded.len(),
            1 => 2 + inp.text.len() + inp.compressed.len(),
            _ => wire::encode_archive_range(0, 0, 0).len() + WINDOW,
        }
    }

    /// Source trits the request carries.
    fn trits(&self) -> usize {
        if self.op == 2 {
            WINDOW
        } else {
            PATTERNS * CELLS
        }
    }
}

/// The in-process engines that stand for the two ends of the service.
struct Engines {
    /// `ninec compress`'s defaults: it writes the decode inputs.
    client: Engine,
    /// The server's defaults: it answers compress requests.
    server: Engine,
}

/// Replays the layers of one traced request under `root`: wire framing
/// on in-memory buffers, the in-process codec work and the text bodies.
/// Returns a verdict: each replay's output must equal the reply the
/// request had to get.
fn replay(
    rec: &mut Recorder,
    root: usize,
    req: u64,
    q: &Request,
    inp: &Input,
    engines: &Engines,
    archive: &Archive,
) -> Option<String> {
    let (op, body, resp) = q.bodies(inp);
    let (wired, _) = rec.time("serve.wire", Some(root), req, || {
        let max = wire::DEFAULT_MAX_MESSAGE_BYTES;
        let mut buf = Vec::with_capacity(body.len() + 8);
        wire::write_request(&mut buf, op, &body).expect("in-memory write");
        let got = wire::read_request(&mut buf.as_slice(), max).expect("in-memory read");
        let mut out = Vec::with_capacity(resp.len() + 8);
        wire::write_response(&mut out, Status::Ok, 0, &resp).expect("in-memory write");
        (
            got,
            wire::read_response(&mut out.as_slice(), max).expect("in-memory read"),
        )
    });
    let wire_ok = match wired {
        (Some((o, b)), Some(r)) => {
            o == op && b == body && r.body == resp && b.len() + resp.len() == q.body_bytes(inp)
        }
        _ => false,
    };
    let text_ok = match q.op {
        0 => {
            let session = DecodeSession::new().threads(engines.client.threads());
            let (outcome, _) = rec.time("serve.codec", Some(root), req, || {
                session
                    .decode_frame(&inp.frame, Policy::Strict)
                    .expect("decode")
            });
            let (text, _) = rec.time("serve.text", Some(root), req, || outcome.trits.to_string());
            text == inp.decoded
        }
        1 => {
            let (stream, _) = rec.time("serve.text", Some(root), req, || {
                inp.text.parse::<TritVec>().expect("trit text")
            });
            let (frame, _) = rec.time("serve.codec", Some(root), req, || {
                engines.server.encode_frame(K, &stream).expect("encode")
            });
            frame == inp.compressed
        }
        _ => {
            let (trits, _) = rec.time("archive.decode_range", Some(root), req, || {
                archive
                    .decode_range(q.input, q.start, WINDOW)
                    .expect("range decode")
            });
            let (text, _) = rec.time("serve.text", Some(root), req, || trits.to_string());
            text == inp.decoded[q.start..q.start + WINDOW]
        }
    };
    match (wire_ok, text_ok) {
        (true, true) => None,
        (false, _) => Some(format!("{} replay: wire bodies changed", OPS[q.op])),
        (true, false) => Some(format!(
            "{} replay: output differs from the reply",
            OPS[q.op]
        )),
    }
}

/// The shipped defaults, with the engine's thread count made explicit
/// and the set-up's archive hosted.
fn config(ctx: &Ctx, archive: &std::path::Path) -> ServeConfig {
    ServeConfig {
        decode_threads: ctx.threads,
        archive: Some(archive.display().to_string()),
        ..ServeConfig::default()
    }
}

pub fn run(ctx: &Ctx, rep: &mut Report) {
    let defaults = ServeConfig::default();
    let engines = Engines {
        client: Engine::builder().threads(ctx.threads).build(),
        server: Engine::builder()
            .threads(ctx.threads)
            .segment_bits(defaults.segment_bits)
            .parity(defaults.parity.0, defaults.parity.1)
            .build(),
    };
    // CKT1's statistics (96.8% X, long care bursts) at request size.
    let mut profile = ibm_profiles()
        .into_iter()
        .find(|p| p.name == "CKT1")
        .expect("the CKT1 profile exists");
    profile.name = "serve-mix".to_string();
    profile.num_patterns = PATTERNS;
    profile.pattern_len = CELLS;
    let mut inputs = Vec::with_capacity(INPUTS);
    let (mut source_trits, mut frame_bytes, mut compressed_bytes) = (0, 0, 0);
    for i in 0..INPUTS {
        let set = profile.generate(ctx.seed.wrapping_mul(INPUTS as u64).wrapping_add(i as u64));
        let reference = common::reference_len(set.as_stream());
        let mut encode = |engine: &Engine, what: &str| {
            let frame = engine.encode_frame(K, set.as_stream()).expect("encode");
            let plan = engine.build_plan(&frame).expect("fresh frame plans");
            rep.check(common::payload_matches(what, &plan, reference));
            frame
        };
        let frame = encode(&engines.client, "input encode");
        let compressed = encode(&engines.server, "server-side encode");
        let decoded = engines
            .client
            .decode_frame(&frame)
            .expect("fresh frame decodes");
        let decode_err = common::care_bits_match("input decode", &decoded, set.as_stream());
        let decoded_ok = decode_err.is_none();
        rep.check(decode_err);
        source_trits += set.total_bits();
        frame_bytes += frame.len();
        compressed_bytes += compressed.len();
        inputs.push(Input {
            text: set.as_stream().to_string(),
            decoded: decoded.to_string(),
            decoded_ok,
            frame,
            compressed,
        });
    }
    println!(
        "input: {INPUTS} CKT1-like {PATTERNS}x{CELLS} sets, K={K}; decode and archive frames \
         as `ninec compress` writes them (segment_bits={}, no parity); server on ServeConfig \
         defaults (compress segment_bits={}, parity {}:{}), engine threads={}, one \
         closed-loop client, mix 60% decode / 25% compress / 15% range({WINDOW})",
        ninec::engine::DEFAULT_SEGMENT_BITS,
        defaults.segment_bits,
        defaults.parity.0,
        defaults.parity.1,
        ctx.threads,
    );
    let compress_cr = common::cr_pct(source_trits, compressed_bytes);

    // Set-up: archive create + append, Server::start, connect + HELLO.
    let mut pacer = Pacer::new();
    let mut append_ms = Vec::new();
    let mut live = None;
    let mut setups = Vec::new();
    for j in 0..SERVE_SETUPS {
        drop(live.take()); // shut the previous server down first
        let path = ctx.work.join(format!("setup{j}.9ca"));
        let ((server, client), op) = pacer.cpu(|| {
            let mut archive = Archive::create(&path, &engines.client).expect("create archive");
            for inp in &inputs {
                let (r, secs) = time(|| archive.append_frame(&inp.frame));
                r.expect("append frame");
                append_ms.push(secs * 1e3);
            }
            drop(archive);
            let server = Server::start(config(ctx, &path)).expect("server starts");
            let mut client = Client::connect(server.addr()).expect("connect");
            client.hello("default").expect("hello");
            (server, client)
        });
        setups.push(op);
        live = Some((server, client, path));
    }
    let (server, mut client, path) = live.expect("at least one set-up");
    let archive = Archive::open(&path, &engines.client).expect("open archive");

    if ctx.traced {
        let counts = ObsCounts::start();
        let q = Request {
            op: 0,
            input: 0,
            start: 0,
        };
        rep.check(q.send(&mut client, &inputs));
        counts.report(rep);
    }
    let before = server.stats();
    let mut rng = Rng::new(ctx.seed ^ (1 << 40));
    let mut rec = ctx.traced.then(|| Recorder::new(ctx.epoch));
    let mut lat: [Vec<Paced>; 3] = Default::default();
    let mut sequence = Vec::new();
    let (mut ok, mut body_bytes, mut trits) = (0usize, 0usize, 0usize);
    // One heap window over the loop: the server runs beside the client,
    // and the in-loop oracles only compare.
    let window = crate::heap::window();
    ctx.timed_loop(|n| {
        let n = n as u64;
        let q = Request::draw(&mut rng);
        let (verdict, op) = pacer.time(|| q.send(&mut client, &inputs));
        lat[q.op].push(op);
        sequence.push(op);
        ok += usize::from(verdict.is_none());
        rep.check(verdict);
        body_bytes += q.body_bytes(&inputs[q.input]);
        trits += q.trits();
        if let Some(rec) = rec.as_mut() {
            let (verdict, root) = rec.time(OPS[q.op], None, n, || q.send(&mut client, &inputs));
            rep.check(verdict);
            let inp = &inputs[q.input];
            rep.check(replay(rec, root, n, &q, inp, &engines, &archive));
        }
    });
    window.close();
    let after = server.stats();
    drop(client);
    drop(server);

    if ctx.traced {
        let mut traced = Traced::default();
        for (op, samples) in lat.iter().enumerate() {
            for p in samples {
                traced.bare(OPS[op], p.raw);
            }
        }
        traced.add_log(rec.expect("the traced run records spans"));
        let roots = traced.finish(ctx, rep);
        let raw = |xs: &[Paced]| xs.iter().map(|p| p.raw).collect::<Vec<_>>();
        for (op, name) in OPS.iter().enumerate() {
            let inproc: Vec<f64> = roots
                .iter()
                .filter(|r| r.name == *name)
                .map(|r| {
                    ["serve.codec", "serve.text", "archive.decode_range"]
                        .iter()
                        .filter_map(|l| r.layers.get(l))
                        .sum::<i64>() as f64
                        / 1e6
                })
                .collect();
            if !lat[op].is_empty() && !inproc.is_empty() {
                let metric = format!("{}.overhead_ms", name);
                rep.set(
                    &metric,
                    stats::median(&raw(&lat[op])) * 1e3 - stats::median(&inproc),
                );
            }
        }
        rep.samples("archive.append_ms", &append_ms);
        rep.set(
            "serve.body_bytes_per_trit",
            body_bytes as f64 / trits as f64,
        );
        rep.set("serve.busy", (after.busy - before.busy) as f64);
        rep.set("serve.shed", (after.shed - before.shed) as f64);
        rep.set("serve.failed", (after.failed - before.failed) as f64);
        rep.set("serve.compress_cr_pct", compress_cr);
        return;
    }

    println!(
        "server counters: busy {} shed {} failed {} ({ok} of {} requests answered correctly)",
        after.busy - before.busy,
        after.shed - before.shed,
        after.failed - before.failed,
        sequence.len(),
    );
    println!(
        "known defect: serve.compress_cr_pct {compress_cr:.2} (the server's default \
         {}-trit segments make every compress reply larger than its source)",
        defaults.segment_bits
    );
    let [d, c, r] = &lat;
    let frame_mbit = (PATTERNS * CELLS) as f64 / 1e6;
    common::EndToEnd {
        pacer: &pacer,
        setups: &setups,
        ops: [c, d, r],
        sequence: &sequence,
        mbit: [frame_mbit, frame_mbit, WINDOW as f64 / 1e6],
        completed: ok,
        cr_pct: common::cr_pct(source_trits, frame_bytes),
    }
    .report(rep);
}
