//! Metric catalog, the human-readable report and the final JSON line.

use crate::stats::{self, Summary};
use std::collections::BTreeMap;

/// End-to-end metrics `(name, unit)`; every workload reports all of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("compress_s", "s"),
    ("decompress_s", "s"),
    ("encode_mbit_s", "Mbit/s"),
    ("decode_mbit_s", "Mbit/s"),
    ("repair_mbit_s", "Mbit/s"),
    ("serve_req_s", "1/s"),
    ("serve_decode_p50_ms", "ms"),
    ("serve_compress_p50_ms", "ms"),
    ("serve_range_p50_ms", "ms"),
    ("serve_p90_ms", "ms"),
    ("cr_pct", "%"),
    ("peak_heap_mib", "MiB"),
    ("success_rate", "ratio"),
];

/// Per-layer metrics `(name, unit)` of the traced run. A layer a workload
/// does not exercise reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("testdata.io.parse_ms", "ms"),
    ("testdata.io.format_ms", "ms"),
    ("testdata.fill_ms", "ms"),
    ("cli.read_ms", "ms"),
    ("cli.write_ms", "ms"),
    ("cli.compress.unattributed_ms", "ms"),
    ("cli.decompress.unattributed_ms", "ms"),
    ("cli.geometry_lost", "count"),
    ("encode.kernel_ms", "ms"),
    ("frame.pack_ms", "ms"),
    ("frame.crc_ms", "ms"),
    ("frame.crc_mib_s", "MiB/s"),
    ("frame.unpack_ms", "ms"),
    ("plan.build_ms", "ms"),
    ("plan.execute_ms", "ms"),
    ("decode.stream_ms", "ms"),
    ("ecc.encode_ms", "ms"),
    ("ecc.reconstruct_ms", "ms"),
    ("ecc.adjacent_lost", "count"),
    ("engine.encode.unattributed_ms", "ms"),
    ("engine.decode.unattributed_ms", "ms"),
    ("engine.repair.unattributed_ms", "ms"),
    ("exec.encode_speedup", "x"),
    ("exec.decode_speedup", "x"),
    ("obs.metrics_overhead_pct", "%"),
    ("obs.trace_overhead_pct", "%"),
    ("obs.trace_overhead_q1_pct", "%"),
    ("obs.trace_overhead_q3_pct", "%"),
    ("obs.frame.scan_passes", "count"),
    ("obs.engine.segments", "count"),
    ("obs.engine.steals", "count"),
    ("obs.decode.blocks", "count"),
    ("archive.append_ms", "ms"),
    ("archive.decode_range_ms", "ms"),
    ("serve.wire_ms", "ms"),
    ("serve.text_ms", "ms"),
    ("serve.codec_ms", "ms"),
    ("serve.decode.overhead_ms", "ms"),
    ("serve.compress.overhead_ms", "ms"),
    ("serve.range.overhead_ms", "ms"),
    ("serve.decode.unattributed_ms", "ms"),
    ("serve.compress.unattributed_ms", "ms"),
    ("serve.range.unattributed_ms", "ms"),
    ("serve.body_bytes_per_trit", "B/trit"),
    ("serve.busy", "count"),
    ("serve.shed", "count"),
    ("serve.failed", "count"),
    ("serve.compress_cr_pct", "%"),
    ("trace.overhead_pct", "%"),
    ("trace.reconciled_roots", "count"),
];

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Report {
    metrics: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failed: u64,
    /// First few oracle failures, printed before the result line.
    failures: Vec<String>,
}

/// The catalog's `(name, unit)` entry for `name`.
fn entry(name: &str) -> (&'static str, &'static str) {
    *END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("metric {name} is not in the catalog"))
}

impl Report {
    /// Records one scalar metric and prints it.
    pub fn set(&mut self, name: &str, value: f64) {
        let (name, unit) = entry(name);
        println!("{name:<34} {value:>14.4} {unit}");
        self.metrics.insert(name, value);
    }

    /// Records the median of `samples` and prints it with its quartiles,
    /// the highest well-supported tail percentile and the sample count.
    pub fn samples(&mut self, name: &str, samples: &[f64]) {
        let (name, unit) = entry(name);
        let Some(s) = stats::summarize(samples) else {
            panic!("metric {name} has no samples");
        };
        println!("{name:<34} {:>14.4} {unit}  {}", s.median, describe(&s));
        self.metrics.insert(name, s.median);
    }

    /// [`samples`](Report::samples) for host-normalised timings; prints the
    /// same summary of the `raw` measured samples below.
    pub fn timing(&mut self, name: &str, normalised: &[f64], raw: &[f64]) {
        self.samples(name, normalised);
        if let Some(s) = stats::summarize(raw) {
            println!("  raw {:.4} {}  {}", s.median, entry(name).1, describe(&s));
        }
    }

    /// Counts one checked operation; `err` is its oracle verdict.
    pub fn check(&mut self, err: Option<String>) {
        self.attempted += 1;
        if let Some(e) = err {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(e);
            }
        }
    }

    /// Prints the failures and the final result line: every catalog
    /// metric of the run's kind, by name, with its unit.
    pub fn finish(&mut self, traced: bool) {
        assert!(self.attempted > 0, "the run checked no operation");
        let error_rate = self.failed as f64 / self.attempted as f64;
        if !traced {
            self.set("success_rate", 1.0 - error_rate);
        }
        for f in &self.failures {
            println!("oracle failure: {f}");
        }
        println!(
            "error_rate {error_rate:.6} ({} failed of {} attempted)",
            self.failed, self.attempted
        );
        let catalog = if traced { PER_LAYER } else { END_TO_END };
        let mut parts = Vec::with_capacity(catalog.len());
        for (name, unit) in catalog {
            let value = match self.metrics.get(name) {
                Some(v) => *v,
                None if traced => 0.0,
                None => panic!("end-to-end metric {name} was not measured"),
            };
            assert!(value.is_finite(), "metric {name} is not finite: {value}");
            parts.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            parts.join(", ")
        );
    }
}

fn describe(s: &Summary) -> String {
    let tail = match s.tail {
        Some((p, v, beyond)) => format!(", p{p} {v:.4} ({beyond} beyond)"),
        None => String::new(),
    };
    format!("[n={}, q1 {:.4}, q3 {:.4}{tail}]", s.n, s.q1, s.q3)
}
