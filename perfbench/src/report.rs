//! `perfbench report`: runs every workload over several seeds, each run
//! in its own child process (so `peak_rss_mb` is that run's alone), and
//! prints for each metric its unit, median, quartiles and sample count.
//! The same table is written as JSON. There is no combined score.

use crate::stats::{json_number, median, quartiles};
use crate::workload::WORKLOADS;
use std::fmt::Write as _;
use std::process::{Command, ExitCode};

/// A JSON value, as far as result lines need one.
#[derive(Debug)]
enum J {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Obj(Vec<(String, J)>),
}

impl J {
    fn get(&self, key: &str) -> Option<&J> {
        match self {
            J::Obj(f) => f.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
    fn num(&self) -> Option<f64> {
        match self {
            J::Num(n) => Some(*n),
            _ => None,
        }
    }
}

/// Parses the subset of JSON the result line uses (no arrays, no
/// escapes).
fn parse(text: &str) -> Option<J> {
    fn ws(s: &[u8], i: &mut usize) {
        while *i < s.len() && s[*i].is_ascii_whitespace() {
            *i += 1;
        }
    }
    fn value(s: &[u8], i: &mut usize) -> Option<J> {
        ws(s, i);
        match *s.get(*i)? {
            b'{' => {
                *i += 1;
                let mut fields = Vec::new();
                loop {
                    ws(s, i);
                    if s.get(*i) == Some(&b'}') {
                        *i += 1;
                        return Some(J::Obj(fields));
                    }
                    if !fields.is_empty() {
                        (s.get(*i) == Some(&b',')).then_some(())?;
                        *i += 1;
                    }
                    let J::Str(k) = value(s, i)? else { return None };
                    ws(s, i);
                    (s.get(*i) == Some(&b':')).then_some(())?;
                    *i += 1;
                    fields.push((k, value(s, i)?));
                }
            }
            b'"' => {
                let end = *i + 1 + s[*i + 1..].iter().position(|&b| b == b'"')?;
                let out = std::str::from_utf8(&s[*i + 1..end]).ok()?.to_string();
                *i = end + 1;
                Some(J::Str(out))
            }
            _ => {
                let end = *i
                    + s[*i..]
                        .iter()
                        .position(|&b| matches!(b, b',' | b'}' | b' '))
                        .unwrap_or(s.len() - *i);
                let word = std::str::from_utf8(&s[*i..end]).ok()?;
                *i = end;
                match word {
                    "true" => Some(J::Bool(true)),
                    "false" => Some(J::Bool(false)),
                    "null" => Some(J::Null),
                    w => w.parse().ok().map(J::Num),
                }
            }
        }
    }
    let s = text.as_bytes();
    let mut i = 0;
    let v = value(s, &mut i)?;
    ws(s, &mut i);
    (i == s.len()).then_some(v)
}

/// One child run's parsed result line.
struct Run {
    correct: bool,
    metrics: Vec<(String, f64, String)>,
}

fn run_child(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<Run, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    let doc = parse(line).ok_or_else(|| format!("no result line (exit {})", out.status))?;
    let mut metrics = Vec::new();
    if let Some(J::Obj(fields)) = doc.get("metrics") {
        for (name, m) in fields {
            let value = m.get("value").and_then(J::num).unwrap_or(f64::NAN);
            let unit = match m.get("unit") {
                Some(J::Str(u)) => u.clone(),
                _ => String::new(),
            };
            metrics.push((name.clone(), value, unit));
        }
    }
    Ok(Run {
        correct: matches!(doc.get("correct"), Some(J::Bool(true))) && out.status.success(),
        metrics,
    })
}

/// Per-metric summary over runs.
struct Summary {
    name: String,
    unit: String,
    median: f64,
    q: [f64; 3],
    n: usize,
}

fn summarize(runs: &[Run]) -> Vec<Summary> {
    let Some(first) = runs.first() else {
        return Vec::new();
    };
    first
        .metrics
        .iter()
        .map(|(name, _, unit)| {
            let xs: Vec<f64> = runs
                .iter()
                .filter_map(|r| r.metrics.iter().find(|m| &m.0 == name).map(|m| m.1))
                .collect();
            Summary {
                name: name.clone(),
                unit: unit.clone(),
                median: median(&xs),
                q: quartiles(&xs),
                n: xs.len(),
            }
        })
        .collect()
}

fn summaries_json(out: &mut String, list: &[Summary]) {
    out.push('{');
    for (i, s) in list.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        write!(
            out,
            "\"{}\": {{\"unit\": \"{}\", \"median\": {}, \"q1\": {}, \"q3\": {}, \"n\": {}}}",
            s.name,
            s.unit,
            json_number(s.median),
            json_number(s.q[0]),
            json_number(s.q[2]),
            s.n
        )
        .expect("writing to a String cannot fail");
    }
    out.push('}');
}

fn print_table(kind: &str, list: &[Summary]) {
    for s in list {
        let spread = if s.median != 0.0 {
            format!("{:.3}", (s.q[2] - s.q[0]) / s.median.abs())
        } else {
            "-".to_string()
        };
        println!(
            "  {kind:<9} {:<34} {:>6} {:>14.6} {:>14.6} {:>14.6} {:>3} {:>7}",
            s.name, s.unit, s.median, s.q[0], s.q[2], s.n, spread
        );
    }
}

/// Untraced and traced runs per workload. The seeds start at the
/// default seed; each run measures `RUN_SECONDS`.
const RUNS: usize = 10;
const TRACED_RUNS: usize = 2;

/// Entry point of `perfbench report`.
pub fn main() -> ExitCode {
    let seconds = crate::RUN_SECONDS;
    let first_seed = crate::workload::DEFAULT_SEED;
    let out_path = crate::out_dir().join("report.json");
    let mut json = String::from("{");
    let mut all_correct = true;
    for (wi, workload) in WORKLOADS.iter().enumerate() {
        let mut e2e = Vec::new();
        let mut traced = Vec::new();
        for (r, trace) in (0..RUNS)
            .map(|r| (r, false))
            .chain((0..TRACED_RUNS).map(|r| (r, true)))
        {
            let seed = first_seed + r as u64;
            match run_child(workload, seed, seconds, trace) {
                Ok(run) => {
                    all_correct &= run.correct;
                    if !run.correct {
                        eprintln!("perfbench report: {workload} seed {seed}: checks failed");
                    }
                    if trace { &mut traced } else { &mut e2e }.push(run);
                }
                Err(e) => {
                    all_correct = false;
                    eprintln!("perfbench report: {workload} seed {seed}: {e}");
                }
            }
        }
        let e2e = summarize(&e2e);
        let traced = summarize(&traced);
        println!(
            "{workload}  ({RUNS} untraced + {TRACED_RUNS} traced runs, {seconds} s each, seeds from {first_seed})"
        );
        println!(
            "  {:<9} {:<34} {:>6} {:>14} {:>14} {:>14} {:>3} {:>7}",
            "kind", "metric", "unit", "median", "q1", "q3", "n", "iqr/med"
        );
        print_table("e2e", &e2e);
        print_table("layer", &traced);
        if wi > 0 {
            json.push_str(", ");
        }
        write!(json, "\"{workload}\": {{\"end_to_end\": ").expect("String write");
        summaries_json(&mut json, &e2e);
        json.push_str(", \"per_layer\": ");
        summaries_json(&mut json, &traced);
        json.push('}');
    }
    json.push_str("}\n");
    let _ = std::fs::create_dir_all(crate::out_dir());
    if let Err(e) = std::fs::write(&out_path, json) {
        eprintln!("perfbench report: writing {}: {e}", out_path.display());
        return ExitCode::FAILURE;
    }
    println!("wrote {}", out_path.display());
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_result_line() {
        let line = "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
                    {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}";
        let doc = parse(line).expect("parses");
        assert!(matches!(doc.get("correct"), Some(J::Bool(true))));
        let m = doc
            .get("metrics")
            .and_then(|m| m.get("setup_s"))
            .expect("metric");
        assert_eq!(m.get("value").and_then(J::num), Some(0.25));
        assert!(parse("{\"a\": 1} trailing").is_none());
    }
}
