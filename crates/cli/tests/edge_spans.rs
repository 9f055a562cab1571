//! `--stats` on `decompress` explains where the wall time went: the
//! edge spans (`cli_read`, `cli_parse`, `cli_fill`, `cli_format`,
//! `cli_write`) and the engine's decode spans together cover at least
//! 95% of the `cli_decompress` span.

use std::path::{Path, PathBuf};
use std::process::Command;

/// Child spans of `cli_decompress`, edge and engine.
const CHILDREN: [&str; 8] = [
    "cli_read",
    "cli_parse",
    "cli_fill",
    "cli_format",
    "cli_write",
    "engine_build_plan",
    "engine_execute_plan",
    "decode_session",
];

fn ninec(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_ninec"))
        .args(args)
        .output()
        .expect("run the ninec binary");
    assert!(out.status.success(), "ninec {args:?}: {out:?}");
    String::from_utf8(out.stdout).expect("utf-8 output")
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ninec_edge_spans_{name}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn s(p: &Path) -> &str {
    p.to_str().expect("utf-8 path")
}

/// Total nanoseconds of `span.<name>.ns` in a `--stats json` document.
fn span_ns(doc: &serde_json::Value, name: &str) -> f64 {
    doc["histograms"][format!("span.{name}.ns").as_str()]["sum"]
        .as_f64()
        .unwrap_or(0.0)
}

/// Runs `decompress --stats json` on `input` and returns the share of
/// `cli_decompress` its child spans cover, plus the spans that fired.
fn coverage(input: &Path, out: &Path) -> (f64, Vec<&'static str>) {
    let text = ninec(&[
        "--stats",
        "json",
        "decompress",
        s(input),
        "-o",
        s(out),
        "--threads",
        "1",
    ]);
    let doc: serde_json::Value =
        serde_json::from_str(&text[text.find('{').expect("a JSON document")..])
            .expect("--stats json parses");
    let root = span_ns(&doc, "cli_decompress");
    assert!(root > 0.0, "no cli_decompress span: {text}");
    let fired: Vec<&str> = CHILDREN
        .into_iter()
        .filter(|c| span_ns(&doc, c) > 0.0)
        .collect();
    let covered: f64 = CHILDREN.iter().map(|c| span_ns(&doc, c)).sum();
    (covered / root, fired)
}

#[test]
fn decompress_child_spans_cover_the_command() {
    if !ninec_obs::is_compiled() {
        return; // Telemetry compiled out: no spans to account for.
    }
    let dir = scratch("cover");
    let cubes = dir.join("in.cubes");
    let frame = dir.join("in.9cf");
    let te = dir.join("in.te");
    ninec(&["generate", "custom:100,2000,75", "-o", s(&cubes)]);
    ninec(&["compress", s(&cubes), "-o", s(&frame)]);
    ninec(&["compress", s(&cubes), "-o", s(&te), "--fill", "keep"]);

    let (share, fired) = coverage(&frame, &dir.join("frame.cubes"));
    assert_eq!(
        fired,
        [
            "cli_read",
            "cli_fill",
            "cli_format",
            "cli_write",
            "engine_build_plan",
            "engine_execute_plan"
        ]
    );
    assert!(
        share >= 0.95,
        "frame decompress: child spans cover {share:.3}"
    );

    let (share, fired) = coverage(&te, &dir.join("te.cubes"));
    assert_eq!(
        fired,
        [
            "cli_read",
            "cli_parse",
            "cli_fill",
            "cli_format",
            "cli_write",
            "decode_session"
        ]
    );
    assert!(
        share >= 0.95,
        ".te decompress: child spans cover {share:.3}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
