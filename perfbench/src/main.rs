//! Command-line entry point of the benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Prints the run's metadata, every metric by
//! name with its unit, and as the last line one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.

use perfbench::{run, Ctx, Size, Workload};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str =
    "usage: perfbench --workload <flat-gnp|tree-arena-rmat|churn-serve|fault-resume> \
                     --seed <u64> --seconds <s> --trace <0|1>";

/// Parsed command line.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// The checked-out commit, read from `.git` in the working directory, or
/// `"none"` where the checkout carries no git metadata.
fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "none".to_string();
    };
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(name)
        .or_else(|| {
            read("packed-refs")?
                .lines()
                .find(|l| l.ends_with(name))
                .map(|l| l.split(' ').next().unwrap_or_default().to_string())
        })
        .map_or_else(|| "unknown".to_string(), |sha| sha.trim().to_string())
}

/// A digest of the program's sources under the working directory, so a
/// report names the code it measured even where there is no git metadata.
fn source_digest() -> String {
    fn walk(dir: &std::path::Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
                files.push(path);
            }
        }
    }
    let mut files = Vec::new();
    for root in ["crates", "vendor", "src"] {
        walk(std::path::Path::new(root), &mut files);
    }
    files.sort();
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for path in &files {
        let bytes = std::fs::read(path).unwrap_or_default();
        for b in path.to_string_lossy().bytes().chain(bytes) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    format!("src-{h:016x} ({} files)", files.len())
}

/// A finite number as JSON (non-finite values have no JSON form).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn main() -> ExitCode {
    let Args {
        workload,
        seed,
        seconds,
        trace,
    } = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    // The pool is pinned here, to the host's core count.
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(nproc)
        .build()
        .expect("the pool cannot fail to build");
    let ctx = Ctx {
        workload,
        seed,
        seconds,
        trace,
        size: Size::Full,
        scratch: PathBuf::from(".perfbench"),
        workers: pool.current_num_threads(),
    };
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    println!(
        "{{\"meta\": {{\"workload\": \"{}\", \"seed\": {seed}, \"seconds\": {seconds}, \"trace\": {trace}, \
         \"nproc\": {nproc}, \"workers\": {}, \"commit\": \"{}\", \"source\": \"{}\", \"profile\": \"{profile}\"}}}}",
        workload.name(),
        ctx.workers,
        git_commit(),
        source_digest()
    );
    let out = match pool.install(|| run(&ctx)) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for note in &out.notes {
        println!("{note}");
    }
    for e in &out.errors {
        println!("FAILED: {e}");
    }
    println!(
        "failed_frac {} ({} of {} ops)",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    );
    let mut correct = out.failed == 0 && out.attempted > 0;
    let mut fields = Vec::with_capacity(out.metrics.len());
    for m in &out.metrics {
        println!("{:<36} {:>16} {}", m.name, json_number(m.value), m.unit);
        correct &= m.value.is_finite();
        fields.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(m.value),
            m.unit
        ));
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        fields.join(", ")
    );
    ExitCode::SUCCESS
}
