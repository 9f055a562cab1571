//! `cli-ckt1`: the 16 Mbit CKT1 stream through `ninec_cli::run`, in
//! process — `compress cubes -> .9cf` (v2, no parity), `decompress .9cf ->
//! cubes`, and a repair `decompress` of a parity frame with one damaged
//! segment per group.

use crate::common::{self, time, Ctx, Rng, Traced, K, SETUPS};
use crate::pace::{Paced, Pacer};
use crate::report::Report;
use crate::trace::Recorder;
use ninec::engine::Engine;
use ninec::{DecodeSession, Policy};
use ninec_testdata::cube::TestSet;
use ninec_testdata::fill::{fill_trits, FillStrategy};
use ninec_testdata::gen::ibm_profiles;
use ninec_testdata::io;
use std::fs;
use std::path::Path;

/// What `ninec decompress` does to leftover X without `--fill`/`--seed`.
const CLI_FILL: FillStrategy = FillStrategy::Random { seed: 1 };

fn cli(args: &[String]) -> Result<(), String> {
    ninec_cli::run(args, &mut std::io::sink()).map_err(|e| e.report())
}

fn path(p: &Path) -> String {
    p.display().to_string()
}

/// Checks a written frame against the serial reference; returns the
/// verdict and the frame's size in bytes.
fn check_frame(out: &Path, reference: usize, engine: &Engine) -> (Option<String>, usize) {
    let bytes = match fs::read(out) {
        Ok(b) => b,
        Err(e) => return (Some(format!("compress: reading output: {e}")), 0),
    };
    let verdict = match engine.build_plan(&bytes) {
        Ok(plan) => common::payload_matches("compress", &plan, reference),
        Err(e) => Some(format!("compress: output is not a frame: {e}")),
    };
    (verdict, bytes.len())
}

/// Checks a decompressed cube file against the source; returns the
/// verdict and the number of source pattern boundaries it lost.
fn check_cubes(what: &str, out: &Path, source: &TestSet) -> (Option<String>, usize) {
    match io::read_test_set_file(out) {
        Ok(back) => (
            common::care_bits_match(what, back.as_stream(), source.as_stream()),
            source.num_patterns().abs_diff(back.num_patterns()),
        ),
        Err(e) => (Some(format!("{what}: reading output: {e}")), 0),
    }
}

pub fn run(ctx: &Ctx, rep: &mut Report) {
    let profile = ibm_profiles()
        .into_iter()
        .find(|p| p.name == "CKT1")
        .expect("the CKT1 profile exists");
    let set = profile.generate(ctx.seed);
    let source_trits = set.total_bits();
    let mbit = source_trits as f64 / 1e6;
    let cubes = ctx.work.join("in.cubes");
    io::write_test_set_file(&cubes, &set).expect("write the input cube file");
    let reference = common::reference_len(set.as_stream());
    let engine = Engine::builder().threads(ctx.threads).build();
    let threads = ctx.threads.to_string();
    let compress = |out: &Path, parity: bool| -> Vec<String> {
        let mut a: Vec<String> = ["compress", &path(&cubes), "-o", &path(out), "-k"]
            .map(String::from)
            .into();
        a.extend([K.to_string(), "--threads".into(), threads.clone()]);
        if parity {
            a.extend(["--parity".into(), "4:1".into()]);
        }
        a
    };
    let decompress = |input: &Path, out: &Path| -> Vec<String> {
        [
            "decompress",
            &path(input),
            "-o",
            &path(out),
            "--threads",
            &threads,
        ]
        .map(String::from)
        .into()
    };
    println!(
        "input: CKT1 {}x{} ({source_trits} trits, {:.1}% X), K={K}, cli threads={}",
        set.num_patterns(),
        set.pattern_len(),
        set.x_density() * 100.0,
        ctx.threads
    );

    // Set-up: the repair op's input, a v3 parity frame written by the CLI.
    let parity_frame = ctx.work.join("parity.9cf");
    let mut pacer = Pacer::new();
    let setups: Vec<Paced> = (0..SETUPS)
        .map(|_| {
            let (r, op) = pacer.cpu(|| cli(&compress(&parity_frame, true)));
            r.expect("set-up compress succeeds");
            op
        })
        .collect();
    let damaged = ctx.work.join("damaged.9cf");
    let mut rng = Rng::new(ctx.seed);
    let parity_bytes = fs::read(&parity_frame).expect("read the parity frame");
    let plan = engine
        .build_plan(&parity_bytes)
        .expect("the parity frame plans");
    let victims = common::diagonal_victims(plan.intact_count(), plan.groups());
    let bytes = common::damage(&parity_bytes, &engine, &victims, &mut rng);
    fs::write(&damaged, bytes).expect("write the damaged frame");

    let out_frame = ctx.work.join("out.9cf");
    let back = ctx.work.join("back.cubes");
    let repaired = ctx.work.join("repaired.cubes");
    let mut geometry_lost = 0;
    let mut frame_bytes = 0;
    if ctx.traced {
        let mut traced = Traced::default();
        let mut rec = Recorder::new(ctx.epoch);
        // Replays run at the CLI's thread count.
        let session = DecodeSession::new().threads(ctx.threads);
        ctx.timed_loop(|i| {
            let req = i as u64;
            // Compress: untraced, then traced with its layers replayed.
            let (r, secs) = time(|| cli(&compress(&out_frame, false)));
            traced.bare("cli.compress", secs);
            rep.check(
                r.err()
                    .or_else(|| check_frame(&out_frame, reference, &engine).0),
            );
            let (r, root) = rec.time("cli.compress", None, req, || {
                cli(&compress(&out_frame, false))
            });
            rep.check(
                r.err()
                    .or_else(|| check_frame(&out_frame, reference, &engine).0),
            );
            let (text, _) = rec.time("cli.read", Some(root), req, || {
                fs::read_to_string(&cubes).expect("read cubes")
            });
            let (parsed, _) = rec.time("testdata.io.parse", Some(root), req, || {
                io::parse_test_set(&text).expect("parse cubes")
            });
            let bytes = fs::read(&out_frame).expect("read frame");
            let real = engine.build_plan(&bytes).expect("the written frame plans");
            let (crc_bytes, verdict) =
                common::replay_encode(&mut rec, root, req, parsed.as_stream(), &real);
            traced.crc_bytes = crc_bytes;
            rep.check(verdict);
            let scratch = ctx.work.join("replay.9cf");
            rec.time("cli.write", Some(root), req, || {
                fs::write(&scratch, &bytes).expect("write scratch frame")
            });

            // Decompress: untraced, then traced.
            let counts = (i == 0).then(common::ObsCounts::start);
            let (r, secs) = time(|| cli(&decompress(&out_frame, &back)));
            if let Some(c) = counts {
                c.report(rep);
            }
            traced.bare("cli.decompress", secs);
            rep.check(r.err().or_else(|| check_cubes("decompress", &back, &set).0));
            let (r, root) = rec.time("cli.decompress", None, req, || {
                cli(&decompress(&out_frame, &back))
            });
            let (verdict, lost) = check_cubes("decompress", &back, &set);
            geometry_lost = lost;
            rep.check(r.err().or(verdict));
            let (bytes, _) = rec.time("cli.read", Some(root), req, || {
                fs::read(&out_frame).expect("read frame")
            });
            let (plan, _) = rec.time("plan.build", Some(root), req, || {
                session.plan(&bytes).expect("frame plans")
            });
            let (report, exec) = rec.time("plan.execute", Some(root), req, || {
                session
                    .execute_plan(&plan, Policy::Strict)
                    .expect("strict decode")
            });
            rep.check(common::replay_decode(
                &mut rec,
                exec,
                req,
                &plan,
                &report.trits,
            ));
            let (filled, _) = rec.time("testdata.fill", Some(root), req, || {
                fill_trits(&report.trits, CLI_FILL)
            });
            let decoded = TestSet::from_stream(filled.len(), filled);
            let (text, _) = rec.time("testdata.io.format", Some(root), req, || {
                io::format_test_set(&decoded)
            });
            rep.check(
                (fs::read_to_string(&back).ok().as_ref() != Some(&text))
                    .then(|| "decompress replay: text differs from the CLI's output".into()),
            );
            let scratch = ctx.work.join("replay.cubes");
            rec.time("cli.write", Some(root), req, || {
                fs::write(&scratch, &text).expect("write scratch cubes")
            });
        });
        traced.add_log(rec);
        traced.finish(ctx, rep);
        rep.set("cli.geometry_lost", geometry_lost as f64);
        return;
    }

    let (mut c, mut d, mut t, mut seq) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let failed_before = rep.failed;
    ctx.timed_loop(|_| {
        let (r, op) = pacer.measure(|| cli(&compress(&out_frame, false)));
        c.push(op);
        seq.push(op);
        let (verdict, size) = check_frame(&out_frame, reference, &engine);
        frame_bytes = size;
        rep.check(r.err().or(verdict));

        let (r, op) = pacer.measure(|| cli(&decompress(&out_frame, &back)));
        d.push(op);
        seq.push(op);
        let (verdict, lost) = check_cubes("decompress", &back, &set);
        geometry_lost = lost;
        rep.check(r.err().or(verdict));

        let (r, op) = pacer.measure(|| cli(&decompress(&damaged, &repaired)));
        t.push(op);
        seq.push(op);
        rep.check(r.err().or_else(|| check_cubes("repair", &repaired, &set).0));
    });
    println!(
        "known defect: geometry_lost {geometry_lost} (source {}x{} patterns; decompress \
         returned {} pattern(s))",
        set.num_patterns(),
        set.pattern_len(),
        set.num_patterns().saturating_sub(geometry_lost).max(1)
    );
    common::EndToEnd {
        pacer: &pacer,
        setups: &setups,
        ops: [&c, &d, &t],
        sequence: &seq,
        mbit: [mbit; 3],
        completed: c.len() + d.len() + t.len() - (rep.failed - failed_before) as usize,
        cr_pct: common::cr_pct(source_trits, frame_bytes),
    }
    .report(rep);
}
