//! The qdc benchmark.
//!
//! ```text
//! perfbench --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]
//! perfbench report
//! perfbench pins
//! ```
//!
//! A run generates its workload from `--seed`, drives the program
//! through its public API for `--seconds`, checks every output, and
//! prints one JSON result line: the end-to-end metrics with `--trace 0`,
//! the per-layer metrics (from spans around each layer's calls) with
//! `--trace 1`. `report` runs every workload over ten seeds in
//! child processes and prints each metric's median and quartiles.
//! `pins` prints the default-seed outputs that `pins.json` holds.
//!
//! Scratch files live under `.perfbench/` in the working directory and
//! are removed when the run ends; only the span file of a traced run
//! and the report are kept.

mod campaign;
mod pins;
mod report;
mod service;
mod stats;
mod trace;
mod workload;

use stats::{metric, RunResult};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Seconds one run measures when `--seconds` is not given: the
/// `run_seconds` of `BENCHMARK.json`.
pub const RUN_SECONDS: f64 = 20.0;

/// Named metric values produced by a workload run.
pub type Values = Vec<(&'static str, f64)>;

/// The end-to-end metrics (untraced runs) with their units.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("points_per_s", "1/s"),
    ("sim_msgs_per_s", "1/s"),
    ("sim_rounds_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("ttfb_ms_p50", "ms"),
    ("ttfb_ms_p90", "ms"),
    ("job_ms_p50", "ms"),
    ("job_ms_p90", "ms"),
];

/// The per-layer metrics (traced runs) with their units. A layer the
/// workload does not exercise reports 0.
pub const PER_LAYER: [(&str, &str); 30] = [
    ("graph.build_ms", "ms"),
    ("congest.run_ms", "ms"),
    ("congest.ns_per_msg", "ns"),
    ("congest.rounds", "count"),
    ("congest.messages", "count"),
    ("congest.bits", "count"),
    ("congest.delivery_ratio", "ratio"),
    ("telemetry.stream_ms", "ms"),
    ("telemetry.archive_bytes", "bytes"),
    ("simthm.audit_ms", "ms"),
    ("simthm.trace_msgs", "count"),
    ("algos.broadcast_ms", "ms"),
    ("algos.msgs_per_node", "count"),
    ("harness.point_ms_p50", "ms"),
    ("harness.point_ms_max", "ms"),
    ("harness.point_self_ms", "ms"),
    ("harness.encode_us_p50", "us"),
    ("harness.journal_append_us_p50", "us"),
    ("harness.journal_append_us_p90", "us"),
    ("harness.journal_bytes", "bytes"),
    ("harness.parallel_efficiency", "ratio"),
    ("harness.commit_share", "ratio"),
    ("service.status_ms_p50", "ms"),
    ("service.submit_ms_p50", "ms"),
    ("service.submit_ms_p90", "ms"),
    ("service.first_record_wait_ms_p50", "ms"),
    ("service.stream_chunks", "count"),
    ("service.refused", "count"),
    ("failed_frac", "ratio"),
    ("trace.overhead_ms", "ms"),
];

/// Per-name medians over several value sets (e.g. one per traced pass).
pub fn median_by_name(sets: &[Values]) -> Values {
    let Some(first) = sets.first() else {
        return Vec::new();
    };
    first
        .iter()
        .map(|&(name, _)| {
            let xs: Vec<f64> = sets
                .iter()
                .filter_map(|s| s.iter().find(|(n, _)| *n == name).map(|&(_, v)| v))
                .collect();
            (name, stats::median(&xs))
        })
        .collect()
}

/// The benchmark's directory for scratch and kept files.
pub fn out_dir() -> PathBuf {
    PathBuf::from(".perfbench")
}

struct RunArgs {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn flag<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match args.iter().position(|a| a == name) {
        None => Ok(default),
        Some(i) => args
            .get(i + 1)
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("{name} needs a valid value")),
    }
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let workload: String = flag(args, "--workload", String::new())?;
    if !workload::WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            workload::WORKLOADS.join(", ")
        ));
    }
    let trace: u8 = flag(args, "--trace", 0)?;
    let seconds: f64 = flag(args, "--seconds", RUN_SECONDS)?;
    if trace > 1 || seconds.is_nan() || seconds <= 0.0 {
        return Err("--trace takes 0 or 1 and --seconds a positive number".into());
    }
    Ok(RunArgs {
        workload,
        seed: flag(args, "--seed", workload::DEFAULT_SEED)?,
        seconds,
        trace: trace == 1,
    })
}

/// One benchmark run in this process; `work` is its scratch directory.
fn run(a: &RunArgs, work: &Path) -> RunResult {
    let spans = out_dir().join(format!("spans_{}_seed{}.jsonl", a.workload, a.seed));
    let (mut res, values) = match (a.workload.as_str(), a.trace) {
        ("service_loop", false) => service::run_untraced(a.seed, a.seconds, work),
        ("service_loop", true) => service::run_traced(a.seed, a.seconds, work, &spans),
        (name, false) => campaign::run_untraced(name, a.seconds, work),
        (name, true) => campaign::run_traced(name, a.seconds, work, &spans),
    };
    let wanted: &[(&'static str, &'static str)] = if a.trace { &PER_LAYER } else { &END_TO_END };
    for &(name, unit) in wanted {
        let value = values.iter().find(|(n, _)| *n == name).map(|&(_, v)| v);
        if value.is_none() && !a.trace {
            res.problem(format!("no value for {name}"));
        }
        res.metrics.push(metric(name, value.unwrap_or(0.0), unit));
    }
    if let Some((name, _)) = values
        .iter()
        .find(|(n, _)| !wanted.iter().any(|(w, _)| w == n))
    {
        res.problem(format!("{name} is not a declared metric"));
    }
    if res.attempted == 0 {
        res.problem("no operation was attempted");
    }
    res
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("report") => return report::main(),
        Some("pins") => return print_pins(),
        _ => {}
    }
    let a = match parse_run(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let work = out_dir().join(format!("work-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {}: {e}", work.display());
        return ExitCode::from(2);
    }
    let res = run(&a, &work);
    let _ = std::fs::remove_dir_all(&work);
    for p in res.problems.iter().take(20) {
        eprintln!("perfbench: check failed: {p}");
    }
    println!("{}", res.to_json());
    if res.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Prints the default-seed outputs of every workload in `pins.json` form.
fn print_pins() -> ExitCode {
    let work = out_dir().join(format!("pins-{}", std::process::id()));
    let mut fields = Vec::new();
    for name in workload::WORKLOADS {
        let pin = if name == "service_loop" {
            service::pool_pin(&work)
        } else {
            campaign::pin(name, &work)
        };
        match pin {
            Ok(pin) => fields.push((name.to_string(), pin.to_json())),
            Err(e) => {
                eprintln!("perfbench: {name}: {e}");
                let _ = std::fs::remove_dir_all(&work);
                return ExitCode::FAILURE;
            }
        }
    }
    let _ = std::fs::remove_dir_all(&work);
    println!("{}", qdc_harness::Json::Obj(fields).to_json());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let doc: String = include_str!("../../BENCHMARK.json")
            .split_whitespace()
            .collect();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert!(doc.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            doc.matches("\"name\":").count(),
            END_TO_END.len() + PER_LAYER.len() + workload::WORKLOADS.len()
        );
        let run_seconds = format!("\"run_seconds\":{},", RUN_SECONDS);
        assert!(
            doc.contains(&run_seconds),
            "BENCHMARK.json lacks {run_seconds}"
        );
        for w in workload::WORKLOADS {
            assert!(doc.contains(&format!("\"name\":\"{w}\"")), "{w}");
        }
    }
}
