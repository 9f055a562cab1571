//! `frame-dense`: in-memory `Engine::encode_frame`, strict
//! `Engine::decode_frame` and a repair decode of a copy with one damaged
//! data segment per parity group, on a 16 Mbit mintest-like stream
//! (≈70% X, mean care run 6) at K=8, parity 4:1, one engine thread. The
//! traced run also times the ops at nproc threads for the `exec` layer.

use crate::common::{self, time, Ctx, Rng, Traced, K, SETUPS};
use crate::pace::{Paced, Pacer};
use crate::report::Report;
use crate::stats;
use crate::trace::Recorder;
use ninec::engine::{frame, Engine, FramePlan, ParityCoder, PlanEntry};
use ninec::{DecodeSession, Policy, RungKind};
use ninec_testdata::gen::SyntheticProfile;
use ninec_testdata::trit::TritVec;

const PARITY: (u8, u8) = (4, 1);

/// Interleaved on/off pairs per iteration for each `obs` switch.
const OBS_PAIRS: usize = 2;

fn build_engine(threads: usize) -> Engine {
    Engine::builder()
        .threads(threads)
        .parity(PARITY.0, PARITY.1)
        .build()
}

/// A v3 frame's parity groups: member segment bytes and parity shards.
struct Groups<'a> {
    members: Vec<Vec<&'a [u8]>>,
    parity: Vec<Vec<&'a [u8]>>,
}

impl<'a> Groups<'a> {
    fn of(plan: &FramePlan<'a>) -> Self {
        let bytes = plan.bytes();
        let data: Vec<&[u8]> = common::data_segments(plan)
            .map(|(r, _)| &bytes[r])
            .collect();
        let groups = plan.groups();
        let members = (0..groups)
            .map(|q| {
                frame::group_members(q, data.len(), groups)
                    .map(|i| data[i])
                    .collect()
            })
            .collect();
        let mut parity = vec![Vec::new(); groups];
        for e in plan.entries() {
            if let PlanEntry::Parity { par, .. } = e {
                parity[par.group].push(par.payload);
            }
        }
        Groups { members, parity }
    }

    /// Replays `ParityCoder::encode` for every group; the replayed shards
    /// must equal the frame's parity shards.
    fn replay_encode(
        &self,
        coder: &ParityCoder,
        rec: &mut Recorder,
        parent: usize,
        req: u64,
    ) -> Option<String> {
        let mut verdict = None;
        for (q, members) in self.members.iter().enumerate() {
            let shard_len = members.iter().map(|m| m.len()).max().unwrap_or(0);
            let (shards, _) = rec.time("ecc.encode", Some(parent), req, || {
                coder.encode(members, shard_len)
            });
            if verdict.is_none()
                && !shards
                    .iter()
                    .map(Vec::as_slice)
                    .eq(self.parity[q].iter().copied())
            {
                verdict = Some(format!(
                    "ecc replay: group {q} parity differs from the frame"
                ));
            }
        }
        verdict
    }

    /// Replays `ParityCoder::reconstruct` of data segment `victim`; the
    /// rebuilt shard must equal the intact segment.
    fn replay_reconstruct(
        &self,
        coder: &ParityCoder,
        victim: usize,
        rec: &mut Recorder,
        parent: usize,
        req: u64,
    ) -> Option<String> {
        let groups = self.members.len();
        let (q, slot) = (
            frame::group_of(victim, groups),
            frame::position_in_group(victim, groups),
        );
        let members = &self.members[q];
        let mut shards: Vec<Option<&[u8]>> = (0..coder.g())
            .map(|s| match members.get(s) {
                _ if s == slot => None,
                Some(m) => Some(*m),
                None => Some(&[][..]),
            })
            .collect();
        shards.extend(self.parity[q].iter().map(|p| Some(*p)));
        let shard_len = self.parity[q].first().map_or(0, |p| p.len());
        let (rebuilt, _) = rec.time("ecc.reconstruct", Some(parent), req, || {
            coder
                .reconstruct(&shards, shard_len)
                .expect("one erasure per group rebuilds")
        });
        let intact = members[slot];
        match rebuilt.as_slice() {
            [(s, bytes)] if *s == slot && bytes.get(..intact.len()) == Some(intact) => None,
            _ => Some(format!("ecc replay: segment {victim} rebuilt wrong")),
        }
    }
}

pub fn run(ctx: &Ctx, rep: &mut Report) {
    let set = SyntheticProfile::new("frame-dense", 2000, 8000, 0.70).generate(ctx.seed);
    let source = set.as_stream();
    let mbit = source.len() as f64 / 1e6;
    let reference = common::reference_len(source);
    println!(
        "input: mintest-like {}x{} ({} trits, {:.1}% X), K={K}, parity {}:{}, threads={}",
        set.num_patterns(),
        set.pattern_len(),
        source.len(),
        set.x_density() * 100.0,
        PARITY.0,
        PARITY.1,
        ctx.threads
    );

    // Set-up: engine build plus the encode that makes the decode inputs.
    let mut built = None;
    let mut pacer = Pacer::new();
    let setups: Vec<Paced> = (0..SETUPS)
        .map(|_| {
            let (out, op) = pacer.cpu(|| {
                let engine = build_engine(ctx.threads);
                let frame = engine.encode_frame(K, source).expect("encode succeeds");
                (engine, frame)
            });
            built = Some(out);
            op
        })
        .collect();
    let (engine, frame) = built.expect("at least one set-up");
    let plan = engine.build_plan(&frame).expect("fresh frame plans");
    rep.check(common::payload_matches("set-up encode", &plan, reference));
    let expected = engine.decode_frame(&frame).expect("fresh frame decodes");
    let expected_err = common::care_bits_match("set-up decode", &expected, source);
    // Timed decodes are compared with `expected` (a cheap equality); that
    // stands for the care-bit check only while `expected` itself passed it.
    let expected_ok = expected_err.is_none();
    rep.check(expected_err);
    let victims = common::diagonal_victims(plan.intact_count(), plan.groups());
    let mut rng = Rng::new(ctx.seed);
    let damaged = common::damage(&frame, &engine, &victims, &mut rng);
    let adjacent_lost = common::adjacent_damage_lost(&frame, &engine, &mut rng);
    println!(
        "known defect: ecc.adjacent_lost {adjacent_lost} (of 2 neighbouring damaged segments \
         in different parity groups, within the parity budget, not rebuilt by repair)"
    );
    let session = DecodeSession::new().threads(ctx.threads);

    let check_encode = |r: Result<Vec<u8>, _>| match r {
        Ok(f) if f == frame => None,
        Ok(_) => Some("encode: frame bytes differ from the set-up encode".to_string()),
        Err(e) => Some(format!("encode: {e}")),
    };
    let check_decode = |what: &str, r: Result<TritVec, _>| match r {
        Ok(t) if expected_ok && t == expected => None,
        Ok(t) => Some(
            common::care_bits_match(what, &t, source)
                .unwrap_or_else(|| format!("{what}: output differs from Engine::decode_frame")),
        ),
        Err(e) => Some(format!("{what}: {e}")),
    };
    let check_repair = |r: Result<ninec::DecodeOutcome, _>| match r {
        Ok(o) if o.rung != RungKind::Repaired => Some(format!("repair: resolved {:?}", o.rung)),
        Ok(o) => check_decode("repair", Ok::<_, ninec::DecodeError>(o.trits)),
        Err(e) => Some(format!("repair: {e}")),
    };

    if ctx.traced {
        let parallel = build_engine(ctx.nproc);
        let coder = ParityCoder::new(PARITY.0.into(), PARITY.1.into()).expect("valid geometry");
        let groups = Groups::of(&plan);
        let mut traced = Traced::default();
        let mut rec = Recorder::new(ctx.epoch);
        let (mut en, mut dn) = (Vec::new(), Vec::new());
        let (mut metrics_on, mut recorder_on) = (Vec::new(), Vec::new());
        ctx.timed_loop(|i| {
            let req = i as u64;
            // Encode at nproc and at 1 thread, then traced at 1 thread.
            let (r, secs) = time(|| parallel.encode_frame(K, source));
            en.push(secs);
            rep.check(check_encode(r));
            let (r, secs) = time(|| engine.encode_frame(K, source));
            traced.bare("engine.encode", secs);
            rep.check(check_encode(r));
            let (r, root) = rec.time("engine.encode", None, req, || {
                engine.encode_frame(K, source)
            });
            rep.check(check_encode(r));
            let (crc_bytes, verdict) = common::replay_encode(&mut rec, root, req, source, &plan);
            traced.crc_bytes = crc_bytes;
            rep.check(verdict);
            rep.check(groups.replay_encode(&coder, &mut rec, root, req));

            // Strict decode, the same way.
            let counts = (i == 0).then(common::ObsCounts::start);
            let (r, secs) = time(|| parallel.decode_frame(&frame));
            if let Some(c) = counts {
                c.report(rep);
            }
            dn.push(secs);
            rep.check(check_decode("decode", r));
            let (r, secs) = time(|| engine.decode_frame(&frame));
            traced.bare("engine.decode", secs);
            rep.check(check_decode("decode", r));
            let (r, root) = rec.time("engine.decode", None, req, || engine.decode_frame(&frame));
            rep.check(check_decode("decode", r));
            let (p, _) = rec.time("plan.build", Some(root), req, || {
                engine.build_plan(&frame).expect("frame plans")
            });
            let (out, exec) = rec.time("plan.execute", Some(root), req, || {
                engine
                    .execute_plan(&p, Policy::Strict)
                    .expect("strict decode")
            });
            rep.check(check_decode("decode replay", Ok(out.trits)));
            rep.check(common::replay_decode(&mut rec, exec, req, &p, &expected));

            // Repair decode at 1 thread: every segment is decoded once,
            // intact or rebuilt, after one reconstruct per damaged group.
            let (r, secs) = time(|| session.decode_frame(&damaged, Policy::Repair));
            traced.bare("engine.repair", secs);
            rep.check(check_repair(r));
            let (r, root) = rec.time("engine.repair", None, req, || {
                session.decode_frame(&damaged, Policy::Repair)
            });
            rep.check(check_repair(r));
            let (dp, _) = rec.time("plan.build", Some(root), req, || {
                session.plan(&damaged).expect("damaged frame plans")
            });
            let (out, exec) = rec.time("plan.execute", Some(root), req, || {
                session
                    .execute_plan(&dp, Policy::Repair)
                    .expect("repair")
            });
            rep.check(check_decode("repair replay", Ok(out.trits)));
            for &v in &victims {
                rep.check(groups.replay_reconstruct(&coder, v, &mut rec, exec, req));
            }
            rep.check(common::replay_decode(&mut rec, exec, req, &plan, &expected));

            // obs switches at nproc threads: interleaved on/off pairs,
            // order alternating.
            for (set, out) in [
                (ninec_obs::set_runtime_enabled as fn(bool), &mut metrics_on),
                (ninec_obs::set_trace_enabled, &mut recorder_on),
            ] {
                for p in 0..OBS_PAIRS {
                    let on_first = (i + p) % 2 == 0;
                    let mut t = [0.0; 2];
                    for on in [on_first, !on_first] {
                        set(on);
                        let (r, secs) = time(|| parallel.decode_frame(&frame));
                        rep.check(check_decode("decode", r));
                        t[usize::from(on)] = secs;
                    }
                    set(true);
                    out.push((t[1] / t[0] - 1.0) * 100.0);
                }
            }
        });
        let e1 = traced.bare_samples("engine.encode").to_vec();
        let d1 = traced.bare_samples("engine.decode").to_vec();
        traced.add_log(rec);
        traced.finish(ctx, rep);
        // Bare samples are in ms, the nproc ones in seconds.
        rep.set(
            "exec.encode_speedup",
            stats::median(&e1) / 1e3 / stats::median(&en),
        );
        rep.set(
            "exec.decode_speedup",
            stats::median(&d1) / 1e3 / stats::median(&dn),
        );
        rep.samples("obs.metrics_overhead_pct", &metrics_on);
        rep.samples("obs.trace_overhead_pct", &recorder_on);
        rep.set(
            "obs.trace_overhead_q1_pct",
            stats::quantile(&recorder_on, 0.25),
        );
        rep.set(
            "obs.trace_overhead_q3_pct",
            stats::quantile(&recorder_on, 0.75),
        );
        rep.set("ecc.adjacent_lost", adjacent_lost as f64);
        return;
    }

    let (mut e, mut d, mut r, mut seq) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let failed_before = rep.failed;
    ctx.timed_loop(|_| {
        let (out, op) = pacer.measure(|| engine.encode_frame(K, source));
        e.push(op);
        seq.push(op);
        rep.check(check_encode(out));
        let (out, op) = pacer.measure(|| engine.decode_frame(&frame));
        d.push(op);
        seq.push(op);
        rep.check(check_decode("decode", out));
        let (out, op) = pacer.measure(|| session.decode_frame(&damaged, Policy::Repair));
        r.push(op);
        seq.push(op);
        rep.check(check_repair(out));
    });
    common::EndToEnd {
        pacer: &pacer,
        setups: &setups,
        ops: [&e, &d, &r],
        sequence: &seq,
        mbit: [mbit; 3],
        completed: e.len() + d.len() + r.len() - (rep.failed - failed_before) as usize,
        cr_pct: common::cr_pct(source.len(), frame.len()),
    }
    .report(rep);
}
