//! Ladder-equivalence suite: every rung of the plan-then-execute
//! pipeline ([`Engine::build_plan`] + [`Engine::execute_plan`]) is pinned
//! on *every* input — same decoded trits, same typed errors (hence the
//! same CLI exit codes), same damage maps.
//!
//! - **Strict** is diffed live against the fail-fast
//!   [`Engine::decode_frame`], which runs its own plan build.
//! - **Repair** and **salvage** are pinned by the committed golden
//!   `tests/golden/ladder/digests.txt`: per input family and policy, one
//!   FNV-1a-64 digest folded in sweep order over a canonical dump of
//!   every `execute_plan` result (trits as text, recovered/total segment
//!   counts, each damage entry's index, byte range, trit range and
//!   reason — or the error's `Debug`). The golden was written by the
//!   ignored `bless_ladder_golden` test; re-bless only for an intended
//!   change of ladder output, and say so in the change log.
//!
//! Input families:
//!
//! 1. replay of every committed corpus frame (`tests/corpus/*.9cf`) at
//!    threads `{1, 8}`;
//! 2. an exhaustive single-byte mutation sweep over a golden v2 and a
//!    golden v3 frame (every offset × two mutation values), plus every
//!    truncation length of a golden v3 frame;
//! 3. proptest campaigns across `K ∈ {4, 8, 16, 32}` × threads
//!    `{1, 8}` with random multi-site corruption, checked against the
//!    ladder's invariants.
//!
//! [`Engine::build_plan`]: ninec::Engine::build_plan
//! [`Engine::execute_plan`]: ninec::Engine::execute_plan
//! [`Engine::decode_frame`]: ninec::Engine::decode_frame

use ninec::{DecodeError, Engine, Policy, SalvageReport};
use ninec_testdata::gen::SyntheticProfile;
use ninec_testdata::trit::TritVec;
use proptest::prelude::*;
use std::path::PathBuf;

fn engine(threads: usize) -> Engine {
    Engine::builder().threads(threads).segment_bits(256).build()
}

fn engine_v3(threads: usize, g: u8, r: u8) -> Engine {
    Engine::builder()
        .threads(threads)
        .segment_bits(256)
        .parity(g, r)
        .build()
}

fn golden(seed: u64) -> Vec<u8> {
    let set = SyntheticProfile::new("ladder", 24, 64, 0.72).generate(seed);
    engine(1)
        .encode_frame(8, set.as_stream())
        .expect("golden frame encodes")
}

fn golden_v3(seed: u64, g: u8, r: u8) -> Vec<u8> {
    let set = SyntheticProfile::new("ladder", 24, 64, 0.72).generate(seed);
    engine_v3(1, g, r)
        .encode_frame(8, set.as_stream())
        .expect("golden v3 frame encodes")
}

/// The rungs the golden pins, in file order.
const POLICIES: [(Policy, &str); 2] = [(Policy::Repair, "repair"), (Policy::Salvage, "salvage")];

/// The input families the golden pins, in file order.
const FAMILIES: [&str; 4] = ["corpus", "v2_mutations", "v3_mutations", "v3_truncations"];

/// FNV-1a-64, folded over every case of a family in sweep order.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// The canonical text dump of one rung's result.
fn dump(result: &Result<SalvageReport, DecodeError>) -> String {
    match result {
        Err(e) => format!("err {e:?}\n"),
        Ok(report) => {
            let mut s = format!(
                "ok {}\n{} {}\n",
                report.trits, report.recovered_segments, report.total_segments
            );
            for d in &report.damaged {
                s.push_str(&format!(
                    "{} {:?} {:?} {:?}\n",
                    d.index, d.byte_range, d.trit_range, d.reason
                ));
            }
            s
        }
    }
}

/// Runs the whole ladder on `bytes`: asserts that the plan's strict rung
/// matches the fail-fast [`Engine::decode_frame`] byte for byte and error
/// for error, and folds the repair and salvage results into `digests`.
fn ladder_case(engine: &Engine, bytes: &[u8], digests: &mut [Fnv; 2]) {
    let strict_direct = engine.decode_frame(bytes);
    match engine.build_plan(bytes) {
        Err(plan_err) => {
            // File-level damage: every rung fails with the same error
            // the plan build reports.
            assert_eq!(strict_direct, Err(plan_err.clone()), "strict vs plan build");
            for digest in digests.iter_mut() {
                digest.write(dump(&Err(plan_err.clone())).as_bytes());
            }
        }
        Ok(plan) => {
            let strict_plan = engine.execute_plan(&plan, Policy::Strict).map(|r| r.trits);
            assert_eq!(strict_plan, strict_direct, "strict rung diverged");
            for ((policy, _), digest) in POLICIES.iter().zip(digests.iter_mut()) {
                digest.write(dump(&engine.execute_plan(&plan, *policy)).as_bytes());
            }
        }
    }
}

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus")
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/ladder/digests.txt")
}

/// Sweeps one input family and returns its `[repair, salvage]` digests.
fn family_digests(family: &str) -> [u64; 2] {
    let mut digests = [Fnv::new(), Fnv::new()];
    match family {
        "corpus" => {
            let mut paths: Vec<PathBuf> = std::fs::read_dir(corpus_dir())
                .expect("corpus dir exists")
                .map(|e| e.expect("corpus entry").path())
                .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("9cf"))
                .collect();
            paths.sort();
            assert!(
                paths.len() >= 9,
                "corpus shrank to {} frames — wrong directory?",
                paths.len()
            );
            for path in &paths {
                let bytes = std::fs::read(path).expect("corpus frame reads");
                for threads in [1, 8] {
                    ladder_case(&engine(threads), &bytes, &mut digests);
                }
            }
        }
        "v2_mutations" | "v3_mutations" => {
            let (clean, eng) = if family == "v2_mutations" {
                (golden(7), engine(2))
            } else {
                (golden_v3(7, 2, 1), engine_v3(2, 2, 1))
            };
            for at in 0..clean.len() {
                for val in [0x01u8, 0xFF] {
                    let mut mutant = clean.clone();
                    mutant[at] ^= val;
                    ladder_case(&eng, &mutant, &mut digests);
                }
            }
        }
        "v3_truncations" => {
            let clean = golden_v3(11, 2, 1);
            let eng = engine_v3(2, 2, 1);
            for len in 0..clean.len() {
                ladder_case(&eng, &clean[..len], &mut digests);
            }
        }
        other => panic!("unknown ladder family {other}"),
    }
    digests.map(|d| d.0)
}

/// The committed `[repair, salvage]` digests of `family`.
fn golden_digests(family: &str) -> [u64; 2] {
    let text = std::fs::read_to_string(golden_path()).expect("ladder golden exists");
    POLICIES.map(|(_, policy)| {
        let line = text
            .lines()
            .find(|l| {
                let mut f = l.split_whitespace();
                f.next() == Some(family) && f.next() == Some(policy)
            })
            .unwrap_or_else(|| panic!("golden has no {family} {policy} line"));
        let hex = line.split_whitespace().nth(2).expect("digest column");
        u64::from_str_radix(hex, 16).expect("hex digest")
    })
}

fn assert_family_matches_golden(family: &str) {
    let got = family_digests(family);
    let want = golden_digests(family);
    for (i, (_, policy)) in POLICIES.iter().enumerate() {
        assert_eq!(
            format!("{:016x}", got[i]),
            format!("{:016x}", want[i]),
            "{family} {policy} ladder output diverged from the golden"
        );
    }
}

/// Writes `tests/golden/ladder/digests.txt` from the current ladder.
/// Run with `cargo test --test ladder_equivalence -- --ignored`.
#[test]
#[ignore = "writes the ladder golden; run explicitly to re-bless"]
fn bless_ladder_golden() {
    let mut out = String::from(
        "# family policy fnv1a64 — canonical execute_plan dumps, folded in sweep order\n",
    );
    for family in FAMILIES {
        let digests = family_digests(family);
        for ((_, policy), d) in POLICIES.iter().zip(digests) {
            out.push_str(&format!("{family} {policy} {d:016x}\n"));
        }
    }
    let path = golden_path();
    std::fs::create_dir_all(path.parent().expect("golden dir")).expect("golden dir writable");
    std::fs::write(&path, out).expect("golden writes");
}

// ---------------------------------------------------------------------------
// 1. Corpus replay.
// ---------------------------------------------------------------------------

#[test]
fn corpus_frames_ladder_identically_through_the_plan() {
    assert_family_matches_golden("corpus");
}

// ---------------------------------------------------------------------------
// 2. Exhaustive single-byte mutation sweep + truncations.
// ---------------------------------------------------------------------------

#[test]
fn every_single_byte_mutation_ladders_identically_v2() {
    assert_family_matches_golden("v2_mutations");
}

#[test]
fn every_single_byte_mutation_ladders_identically_v3() {
    assert_family_matches_golden("v3_mutations");
}

#[test]
fn every_truncation_ladders_identically() {
    assert_family_matches_golden("v3_truncations");
}

// ---------------------------------------------------------------------------
// 3. Proptest campaigns: K × threads × random corruption.
// ---------------------------------------------------------------------------

fn to_stream(raw: &[u8]) -> TritVec {
    raw.iter()
        .map(|b| match b % 3 {
            0 => ninec_testdata::trit::Trit::Zero,
            1 => ninec_testdata::trit::Trit::One,
            _ => ninec_testdata::trit::Trit::X,
        })
        .collect()
}

/// The ladder's invariants on arbitrary input: strict through the plan
/// equals the fail-fast decode; repair and salvage fail only where the
/// plan build fails, always cover exactly the header's source length,
/// and agree with strict on a strictly valid frame.
fn assert_ladder_invariants(engine: &Engine, bytes: &[u8]) {
    let strict_direct = engine.decode_frame(bytes);
    let Ok(plan) = engine.build_plan(bytes) else {
        assert!(strict_direct.is_err(), "plan build failed, strict decoded");
        return;
    };
    let strict_plan = engine.execute_plan(&plan, Policy::Strict);
    assert_eq!(
        strict_plan
            .as_ref()
            .map(|r| r.trits.clone())
            .map_err(Clone::clone),
        strict_direct,
        "strict rung diverged"
    );
    for (policy, name) in POLICIES {
        let report = engine
            .execute_plan(&plan, policy)
            .unwrap_or_else(|e| panic!("{name} failed on a planned frame: {e:?}"));
        assert_eq!(report.trits.len(), plan.source_len(), "{name} length");
        if let Ok(strict) = &strict_plan {
            assert_eq!(
                &report, strict,
                "{name} diverged from strict on a clean frame"
            );
        }
    }
}

proptest! {
    #[test]
    fn random_corruption_ladders_identically(
        raw in proptest::collection::vec(0u8..3, 64..1024),
        k_idx in 0usize..4,
        threads_idx in 0usize..2,
        parity_idx in 0usize..3,
        offsets in proptest::collection::vec(0usize..4096, 1..5),
        xors in proptest::collection::vec(1u8..255, 1..5),
    ) {
        let k = [4usize, 8, 16, 32][k_idx];
        let threads = [1usize, 8][threads_idx];
        let (g, r) = [(0u8, 0u8), (2, 1), (4, 1)][parity_idx];
        let eng = engine_v3(threads, g, r);
        let clean = eng.encode_frame(k, &to_stream(&raw)).expect("frame encodes");
        let mut mutant = clean.clone();
        for (at, val) in offsets.iter().zip(xors.iter()) {
            let at = at % mutant.len();
            mutant[at] ^= val;
        }
        assert_ladder_invariants(&eng, &mutant);
        // The clean frame must also agree (and decode at all).
        assert_ladder_invariants(&eng, &clean);
    }
}
