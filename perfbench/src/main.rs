//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! [--trace-out <path>]`
//!
//! Prints the provenance stamp, every metric with its unit and sample
//! count, every correctness check, and as the last line one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. Exits 1 when a
//! check fails and 2 when the run cannot complete.

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use perfbench::run::{run, self_time_table, Options};
use perfbench::stamp::Stamp;
use perfbench::untraced::{measure_child, ChildOut};
use perfbench::workload::{Sizes, Workload, WORKLOADS};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(args.iter().cloned()) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--trace-out <path>]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    if let Some(k) = opts.child {
        return match measure_child(&opts.options, k) {
            Ok(out) => {
                print!("{}", out.to_lines());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(2)
            }
        };
    }
    let opts = opts.options;
    let stamp = Stamp::collect(opts.workload.name(), opts.seed);
    println!("stamp {}", stamp.to_json());
    let (report, spans) = match run(&opts, |k| spawn_child(&args, k)) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if !spans.is_empty() {
        println!(
            "spans {:<38} {:>7} {:>12} {:>12}",
            "name", "count", "total_ms", "self_ms"
        );
        for (name, count, total, own) in self_time_table(&spans) {
            println!("spans {name:<38} {count:>7} {total:>12.3} {own:>12.3}");
        }
        if let Some(p) = &opts.trace_out {
            println!("spans written to {}", p.display());
        }
    }
    for line in report.lines() {
        println!("{line}");
    }
    println!("{}", report.result_json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Measures in process `k`: this executable, rerun with `--child k`.
fn spawn_child(args: &[String], k: usize) -> Result<ChildOut, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let out = Command::new(exe)
        .args(args)
        .args(["--child", &k.to_string()])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("start measuring process {k}: {e}"))?;
    if !out.status.success() {
        return Err(format!("measuring process {k} failed: {}", out.status));
    }
    let text = String::from_utf8(out.stdout).map_err(|e| format!("process {k} output: {e}"))?;
    ChildOut::parse(&text).map_err(|e| format!("process {k} output: {e}"))
}

/// Parsed command line.
struct Cli {
    options: Options,
    /// Set in a measuring process of an untraced run.
    child: Option<usize>,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Cli, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut trace_out = None;
    let mut child = None;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!(
                        "--seconds must be a non-negative number, got {value}"
                    ));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            "--trace-out" => trace_out = Some(PathBuf::from(value)),
            "--child" => {
                child = Some(
                    value
                        .parse::<usize>()
                        .map_err(|e| format!("--child: {e}"))?,
                )
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seed = seed.ok_or("--seed is required")?;
    let trace = trace.unwrap_or(false);
    let trace_out = trace_out.or_else(|| {
        trace.then(|| {
            let dir = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| ".bench_build".into());
            PathBuf::from(dir)
                .join("perfbench")
                .join(format!("trace_{}_{seed}.jsonl", workload.name()))
        })
    });
    Ok(Cli {
        options: Options {
            workload,
            seed,
            seconds: seconds.ok_or("--seconds is required")?,
            trace,
            sizes: Sizes::standard(),
            trace_out,
        },
        child,
    })
}
