//! `rzu_bench --workload <name> --seed <n> [--seconds <s>] [--trace <0|1>]`
//!
//! Builds the inputs from the seed, runs one workload, checks its
//! outputs and prints every metric by name with its unit. The last line
//! of standard output is one JSON object: `correct`, `attempted`,
//! `failed`, and `metrics` — the gated end-to-end metrics of an untraced
//! run, the per-layer metrics (the ungated timings first) of a traced
//! one. The line before it, `timing: {...}`, carries the ungated timings
//! of either kind of run, for `aa.sh`.

use rzu_bench::alloc::CountingAlloc;
use rzu_bench::run::{Metric, Report, RunArgs};
use rzu_bench::{host, trace};
use std::fmt::Write as _;
use std::process::ExitCode;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Default measured seconds: 12 s paced + 12 s saturate.
const DEFAULT_SECONDS: f64 = 24.0;

struct Cli {
    workload: String,
    args: RunArgs,
}

fn parse_cli() -> Result<Cli, String> {
    let mut workload = None;
    let mut args = RunArgs {
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => workload = Some(value("a name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_owned());
                }
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: {other:?} is neither 0 nor 1")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or(format!(
        "--workload is required; one of {:?}",
        rzu_bench::WORKLOADS
    ))?;
    Ok(Cli { workload, args })
}

fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("{title}:");
    for m in metrics {
        match m.window_iqr {
            Some(iqr) => {
                println!(
                    "  {:<36} {:>16.4} {:<6} (windows' IQR {:.4})",
                    m.name, m.value, m.unit, iqr
                )
            }
            None => println!("  {:<36} {:>16.4} {}", m.name, m.value, m.unit),
        }
    }
}

/// `{"name": {"value": v, "unit": "u"}, ...}`
fn metrics_json<'a>(metrics: impl Iterator<Item = &'a Metric>) -> String {
    let mut json = String::from("{");
    for (i, m) in metrics.enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    json.push('}');
    json
}

/// Outputs go under this package's `target/benchmark/`, whatever
/// directory Cargo itself builds into.
fn write_trace(report: &Report, seed: u64, env_line: &str) -> std::io::Result<std::path::PathBuf> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("target/benchmark");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{}-seed{seed}-trace.json", report.workload));
    let metrics: Vec<(&str, f64, &str)> = report
        .timing
        .iter()
        .chain(&report.per_layer)
        .map(|m| (m.name, m.value, m.unit))
        .collect();
    let json = trace::render_json(
        report.workload,
        seed,
        env_line,
        &metrics,
        &report.spans,
        report.dropped_spans,
    );
    std::fs::write(&path, json)?;
    Ok(path)
}

fn main() -> ExitCode {
    // Noise rule (a): pin before anything spawns, so every tier's
    // thread inherits the mask.
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let pinned = host::pin_to_highest_cpu();
    let cli = match parse_cli() {
        Ok(cli) => cli,
        Err(why) => {
            eprintln!("rzu_bench: {why}");
            return ExitCode::from(2);
        }
    };
    let env = host::Env::record(nproc, pinned);
    println!("env: {}", env.line());
    println!(
        "run: workload={} seed={} seconds={} trace={}",
        cli.workload, cli.args.seed, cli.args.seconds, cli.args.trace
    );
    let report = match rzu_bench::run_workload(&cli.workload, &cli.args) {
        Ok(report) => report,
        Err(why) => {
            eprintln!("rzu_bench: {why}");
            return ExitCode::FAILURE;
        }
    };
    for why in &report.failures {
        println!("failure: {why}");
    }
    print_metrics("end-to-end", &report.end_to_end);
    print_metrics("end-to-end timing (not gated)", &report.timing);
    if cli.args.trace {
        print_metrics("per-layer", &report.per_layer);
        match write_trace(&report, cli.args.seed, &env.line()) {
            Ok(path) => println!("trace: {} spans -> {}", report.spans.len(), path.display()),
            Err(why) => println!("trace: not written ({why})"),
        }
    }
    println!("timing: {}", metrics_json(report.timing.iter()));
    let metrics = if cli.args.trace {
        metrics_json(report.timing.iter().chain(&report.per_layer))
    } else {
        metrics_json(report.end_to_end.iter())
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        report.correct, report.attempted, report.failed
    );
    ExitCode::SUCCESS
}
