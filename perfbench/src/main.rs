//! The ninec benchmark: one command per workload, every output checked,
//! every end-to-end metric printed by name with its unit; `--trace 1`
//! gives the per-layer numbers instead.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload cli-ckt1 --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.

mod cli_ckt1;
mod common;
mod frame_dense;
mod heap;
mod pace;
mod report;
mod serve_mix;
mod stats;
mod trace;

use common::Ctx;
use report::Report;
use std::path::PathBuf;
use std::time::Instant;

#[global_allocator]
static ALLOC: heap::Counting = heap::Counting;

const WORKLOADS: [&str; 3] = ["cli-ckt1", "frame-dense", "serve-mix"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| "--seconds takes a number")?);
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        traced: traced.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if cfg!(debug_assertions) {
        eprintln!("perfbench: refusing to time a debug build; build with --release");
        std::process::exit(2);
    }
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let out_dir = PathBuf::from(".bench_out");
    let work = out_dir.join(format!(
        "work-{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {}: {e}", work.display());
        std::process::exit(1);
    }
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
        threads: 1,
        nproc,
        spans_out: out_dir.join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed)),
        work: work.clone(),
        epoch: Instant::now(),
    };
    println!(
        "env: workload={} seed={} seconds={} trace={} nproc={} threads={} \
         rustc=\"{}\" profile={} obs=default-on",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.traced),
        nproc,
        ctx.threads,
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_PROFILE"),
    );
    let mut rep = Report::default();
    match args.workload.as_str() {
        "cli-ckt1" => cli_ckt1::run(&ctx, &mut rep),
        "frame-dense" => frame_dense::run(&ctx, &mut rep),
        _ => serve_mix::run(&ctx, &mut rep),
    }
    println!(
        "process VmHWM {:.1} MiB (informational; see peak_heap_mib)",
        common::peak_rss_mib()
    );
    let _ = std::fs::remove_dir_all(&work);
    rep.finish(args.traced);
}
