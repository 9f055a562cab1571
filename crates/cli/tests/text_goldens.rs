//! Byte goldens for the cube-file and `.te` text the CLI writes.
//!
//! The files under `tests/golden/text_codec/` were written by the
//! symbol-at-a-time text code, before the word-level codec replaced it.
//! Each set runs `generate → compress .9cf → decompress` (default random
//! fill with `--seed 7`, `--fill mt`, `--fill keep`) and
//! `compress .te → decompress` in process and compares every output
//! file with its golden byte for byte.

use std::path::{Path, PathBuf};

fn golden_dir(set: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden/text_codec")
        .join(set)
}

fn run(args: &[&str]) {
    let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
    ninec_cli::run(&args, &mut std::io::sink())
        .unwrap_or_else(|e| panic!("ninec {args:?}: {}", e.report()));
}

fn check_set(set: &str, spec: &str) {
    let dir = std::env::temp_dir().join(format!("ninec_text_goldens_{set}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let p = |name: &str| dir.join(name).to_str().expect("utf-8 path").to_owned();
    run(&["generate", spec, "-o", &p("source.cubes")]);
    run(&["compress", &p("source.cubes"), "-o", &p("source.9cf")]);
    run(&[
        "decompress",
        &p("source.9cf"),
        "-o",
        &p("decompress_seed7.cubes"),
        "--seed",
        "7",
    ]);
    run(&[
        "decompress",
        &p("source.9cf"),
        "-o",
        &p("decompress_mt.cubes"),
        "--fill",
        "mt",
    ]);
    run(&[
        "decompress",
        &p("source.9cf"),
        "-o",
        &p("decompress_keep.cubes"),
        "--fill",
        "keep",
    ]);
    run(&[
        "compress",
        &p("source.cubes"),
        "-o",
        &p("compress_seed7.te"),
        "--seed",
        "7",
    ]);
    run(&[
        "compress",
        &p("source.cubes"),
        "-o",
        &p("compress_keep.te"),
        "--fill",
        "keep",
    ]);
    run(&[
        "decompress",
        &p("compress_keep.te"),
        "-o",
        &p("te_decompress_keep.cubes"),
        "--fill",
        "keep",
    ]);
    run(&[
        "decompress",
        &p("compress_keep.te"),
        "-o",
        &p("te_decompress_seed7.cubes"),
        "--seed",
        "7",
    ]);
    for name in [
        "source.cubes",
        "source.9cf",
        "decompress_seed7.cubes",
        "decompress_mt.cubes",
        "decompress_keep.cubes",
        "compress_seed7.te",
        "compress_keep.te",
        "te_decompress_keep.cubes",
        "te_decompress_seed7.cubes",
    ] {
        let golden = golden_dir(set).join(name);
        let want = std::fs::read(&golden).unwrap_or_else(|e| panic!("{}: {e}", golden.display()));
        let got = std::fs::read(dir.join(name)).expect("output written");
        assert!(got == want, "{set}/{name} differs from its golden");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn three_by_100_matches_goldens() {
    check_set("p3x100", "custom:3,100,75");
}

#[test]
fn four_by_130_matches_goldens() {
    check_set("p4x130", "custom:4,130,20");
}
