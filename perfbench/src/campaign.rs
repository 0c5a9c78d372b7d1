//! The campaign workloads (`thm35_grid`, `gamma_scale`):
//! the untraced loop behind the end-to-end metrics, the traced pass
//! behind the per-layer metrics, and the output checks both share.

use crate::pins::Pin;
use crate::stats::{digest, max, median, peak_rss_mb, percentile, RunResult};
use crate::trace::Tracer;
use crate::workload::{self, CampaignWorkload, Size};
use crate::Values;
use qdc_algos::flood::{chaos_round_budget, robust_broadcast_with};
use qdc_congest::{ChaosConfig, CongestConfig, NullTelemetry, RunOptions as SimOptions};
use qdc_graph::{generate, NodeId};
use qdc_harness::point::execute_point_sharded;
use qdc_harness::{
    parse_spec, record_json, run_campaign_journaled, spec_to_json, validate_record_line,
    CancelToken, JournalConfig, JournalOutcome, PointSpec, RunOptions, StreamTelemetry,
    TelemetryMode,
};
use qdc_simthm::campaign::run_point;
use qdc_simthm::network::SimulationNetwork;
use qdc_simthm::simulate::audit_trace;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Set-ups timed after each rep (after one untimed), so that samples
/// spread over the whole run.
const SETUP_BATCH: usize = 5;

/// What one campaign rep produced, once its outputs checked out.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RepOutput {
    pub points: u64,
    pub rounds: u64,
    pub messages: u64,
    pub bits: u64,
    pub journal_digest: String,
    /// Digest and size of the streamed telemetry archives, if any.
    pub archive_digest: Option<String>,
    pub archive_bytes: u64,
}

impl RepOutput {
    /// The pinned form of this output.
    pub fn pin(&self) -> Pin {
        Pin {
            rounds: self.rounds,
            messages: self.messages,
            bits: self.bits,
            digest: self.journal_digest.clone(),
            archive_digest: self.archive_digest.clone(),
        }
    }
}

/// The timed set-up of a campaign, as a user meets it: parse the spec
/// from its JSON text (the form the `campaign` CLI and the service
/// receive), validate it and expand its points. Making the output
/// directory is left out: one `mkdir` on a journaling file system can
/// vary between 10 and 100 µs, more than the rest of set-up.
fn setup(text: &str) {
    let spec = parse_spec(text).expect("a generated spec parses");
    spec.validate().expect("generated specs are valid");
    std::hint::black_box((spec.points(), spec));
}

/// Makes `dir` a fresh, empty directory to run a rep in.
fn fresh(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("create the rep directory");
}

fn options(w: &CampaignWorkload, dir: &Path, threads: usize) -> RunOptions {
    RunOptions {
        threads,
        telemetry: if w.stream_telemetry {
            TelemetryMode::Stream(StreamTelemetry::new(path_str(&dir.join("tel"))))
        } else {
            TelemetryMode::Off
        },
        ..RunOptions::default()
    }
}

fn path_str(p: &Path) -> String {
    p.to_string_lossy().into_owned()
}

/// Runs one journaled campaign into `dir`. Returns the outcome, the
/// wall time of the call and the time to the first committed journal
/// byte (seen by a thread polling the journal's length).
pub fn run_once(
    w: &CampaignWorkload,
    dir: &Path,
    threads: usize,
) -> (JournalOutcome, Duration, Option<Duration>) {
    let journal = dir.join("journal.jsonl");
    let config = JournalConfig {
        out_path: path_str(&journal),
        with_wall: false,
        ..JournalConfig::default()
    };
    let opts = options(w, dir, threads);
    let done = AtomicBool::new(false);
    let start = Instant::now();
    std::thread::scope(|s| {
        let watcher = s.spawn(|| loop {
            // Read the flag first: a byte written before the campaign
            // returned is still seen by the check after it.
            let finished = done.load(Ordering::SeqCst);
            if std::fs::metadata(&journal).is_ok_and(|m| m.len() > 0) {
                return Some(start.elapsed());
            }
            if finished {
                return None;
            }
            // Poll at about 1/64 of the time waited so far: fine enough
            // for sub-millisecond first bytes, and rare enough not to slow
            // a worker that shares the watcher's CPU.
            let pause = start.elapsed() / 64;
            std::thread::sleep(pause.clamp(Duration::from_micros(50), Duration::from_millis(1)));
        });
        let outcome = run_campaign_journaled(&w.spec, &opts, &config, &CancelToken::new())
            .expect("a generated campaign runs");
        let wall = start.elapsed();
        done.store(true, Ordering::SeqCst);
        let ttfb = watcher.join().expect("journal watcher");
        (outcome, wall, ttfb)
    })
}

/// Checks one rep's outputs: every journal line validates, every point
/// was committed and accepted, and nothing failed. Returns the output
/// summary, or every problem found.
pub fn check_rep(
    w: &CampaignWorkload,
    dir: &Path,
    outcome: &JournalOutcome,
) -> Result<RepOutput, Vec<String>> {
    let mut problems = Vec::new();
    let points = w.spec.points().len() as u64;
    let agg = &outcome.aggregate;
    if outcome.interrupted || outcome.executed as u64 != points {
        problems.push(format!("{} of {points} points executed", outcome.executed));
    }
    if agg.accepted != points || agg.points_failed != 0 || agg.errors != 0 || agg.rejected != 0 {
        problems.push(format!(
            "aggregate: accepted {} of {points}, failed {}, errors {}, rejected {}",
            agg.accepted, agg.points_failed, agg.errors, agg.rejected
        ));
    }
    let bytes = std::fs::read(dir.join("journal.jsonl")).unwrap_or_default();
    let text = String::from_utf8_lossy(&bytes);
    let mut lines = 0u64;
    for (i, line) in text.lines().enumerate() {
        lines += 1;
        if let Err(e) = validate_record_line(line) {
            problems.push(format!("journal line {}: {e}", i + 1));
        }
    }
    if lines != points {
        problems.push(format!("journal holds {lines} lines for {points} points"));
    }
    let (archive_digest, archive_bytes) = if w.stream_telemetry {
        let mut all = Vec::new();
        for i in 0..points as usize {
            let path = qdc_harness::stream_telemetry_path(&path_str(&dir.join("tel")), i);
            match std::fs::read(&path) {
                Ok(b) => all.extend_from_slice(&b),
                Err(e) => problems.push(format!("archive {path}: {e}")),
            }
        }
        (Some(digest(&all)), all.len() as u64)
    } else {
        (None, 0)
    };
    if !problems.is_empty() {
        return Err(problems);
    }
    Ok(RepOutput {
        points,
        rounds: agg.rounds,
        messages: agg.messages,
        bits: agg.bits,
        journal_digest: digest(&bytes),
        archive_digest,
        archive_bytes,
    })
}

/// Compares a rep with the run's first rep (every rep of a run has the
/// same inputs) and with the pin.
fn compare(res: &mut RunResult, w: &CampaignWorkload, first: &Option<RepOutput>, out: &RepOutput) {
    if let Some(first) = first {
        if first != out {
            res.problem(format!(
                "rep output {out:?} differs from the first rep {first:?}"
            ));
        }
    }
    match crate::pins::get(&w.spec.name) {
        Some(pin) if pin == out.pin() => {}
        Some(pin) => res.problem(format!("output {:?} differs from pin {pin:?}", out.pin())),
        None => res.problem(format!("no pin for {}", w.spec.name)),
    }
}

/// The untraced run: set up and run the campaign over and over until
/// `seconds` have passed, checking every rep's outputs.
pub fn run_untraced(name: &str, seconds: f64, work: &Path) -> (RunResult, Values) {
    let mut res = RunResult {
        correct: true,
        ..RunResult::default()
    };
    let w = workload::campaign(name, Size::Full).expect("campaign workload");
    let text = spec_to_json(&w.spec).to_json();
    let mut setups = Vec::new();

    let (mut jobs, mut ttfbs, mut pps, mut mps, mut rps) = (vec![], vec![], vec![], vec![], vec![]);
    let mut peak_rss = 0.0;
    let mut first: Option<RepOutput> = None;
    let start = Instant::now();
    let mut k = 0;
    while k == 0 || start.elapsed().as_secs_f64() < seconds {
        let dir = work.join(format!("rep_{k}"));
        fresh(&dir);

        let (outcome, wall, ttfb) = run_once(&w, &dir, w.threads);
        let points = w.spec.points().len() as u64;
        res.attempted += points;
        res.failed += points.saturating_sub(outcome.aggregate.accepted);
        match check_rep(&w, &dir, &outcome) {
            Ok(out) => {
                compare(&mut res, &w, &first, &out);
                let s = wall.as_secs_f64();
                jobs.push(s * 1e3);
                pps.push(out.points as f64 / s);
                mps.push(out.messages as f64 / s);
                rps.push(out.rounds as f64 / s);
                match ttfb {
                    Some(t) => ttfbs.push(t.as_secs_f64() * 1e3),
                    None => res.problem("no journal byte seen during the run"),
                }
                first.get_or_insert(out);
            }
            Err(problems) => problems.into_iter().for_each(|p| res.problem(p)),
        }
        let _ = std::fs::remove_dir_all(&dir);
        if k == 0 {
            // Later reps only add allocator leftovers of earlier ones.
            peak_rss = peak_rss_mb();
        }
        for i in 0..=SETUP_BATCH {
            let t = Instant::now();
            setup(&text);
            if i > 0 {
                setups.push(t.elapsed().as_secs_f64());
            }
        }
        k += 1;
    }

    let values = vec![
        ("setup_s", median(&setups)),
        ("points_per_s", median(&pps)),
        ("sim_msgs_per_s", median(&mps)),
        ("sim_rounds_per_s", median(&rps)),
        ("peak_rss_mb", peak_rss),
        ("ttfb_ms_p50", median(&ttfbs)),
        ("ttfb_ms_p90", percentile(&ttfbs, 90.0)),
        ("job_ms_p50", median(&jobs)),
        ("job_ms_p90", percentile(&jobs, 90.0)),
    ];
    (res, values)
}

/// Per-layer figures of one traced pass.
#[derive(Default)]
pub struct Pass {
    build_ms: f64,
    congest_ms: f64,
    audit_ms: f64,
    broadcast_ms: f64,
    stream_ms: f64,
    trace_msgs: u64,
    rounds: u64,
    messages: u64,
    bits: u64,
    dropped: u64,
    broadcast_nodes: u64,
    broadcast_msgs: u64,
    point_ms: Vec<f64>,
    self_ms: Vec<f64>,
    encode_us: Vec<f64>,
    append_us: Vec<f64>,
    journal_bytes: u64,
}

impl Pass {
    /// Folds another pass in, as if its points had run in this one.
    pub fn merge(&mut self, o: Pass) {
        self.build_ms += o.build_ms;
        self.congest_ms += o.congest_ms;
        self.audit_ms += o.audit_ms;
        self.broadcast_ms += o.broadcast_ms;
        self.stream_ms += o.stream_ms;
        self.trace_msgs += o.trace_msgs;
        self.rounds += o.rounds;
        self.messages += o.messages;
        self.bits += o.bits;
        self.dropped += o.dropped;
        self.broadcast_nodes += o.broadcast_nodes;
        self.broadcast_msgs += o.broadcast_msgs;
        self.point_ms.extend(o.point_ms);
        self.self_ms.extend(o.self_ms);
        self.encode_us.extend(o.encode_us);
        self.append_us.extend(o.append_us);
        self.journal_bytes += o.journal_bytes;
    }
}

/// The per-layer metrics one traced pass yields on its own.
pub fn layer_values(p: &Pass) -> Values {
    vec![
        ("graph.build_ms", p.build_ms),
        ("congest.run_ms", p.congest_ms),
        (
            "congest.ns_per_msg",
            p.congest_ms * 1e6 / p.messages.max(1) as f64,
        ),
        ("congest.rounds", p.rounds as f64),
        ("congest.messages", p.messages as f64),
        ("congest.bits", p.bits as f64),
        (
            "congest.delivery_ratio",
            p.messages as f64 / (p.messages + p.dropped).max(1) as f64,
        ),
        ("telemetry.stream_ms", p.stream_ms),
        ("simthm.audit_ms", p.audit_ms),
        ("simthm.trace_msgs", p.trace_msgs as f64),
        ("algos.broadcast_ms", p.broadcast_ms),
        (
            "algos.msgs_per_node",
            p.broadcast_msgs as f64 / p.broadcast_nodes.max(1) as f64,
        ),
        ("harness.point_ms_p50", median(&p.point_ms)),
        ("harness.point_ms_max", max(&p.point_ms)),
        ("harness.point_self_ms", median(&p.self_ms)),
        ("harness.encode_us_p50", median(&p.encode_us)),
        ("harness.journal_append_us_p50", median(&p.append_us)),
        (
            "harness.journal_append_us_p90",
            percentile(&p.append_us, 90.0),
        ),
        ("harness.journal_bytes", p.journal_bytes as f64),
    ]
}

/// Builds the network a simthm point runs on, with the same Γ bump the
/// campaign adapter applies when the track count would be odd.
fn simthm_network(gamma: usize, l: usize) -> SimulationNetwork {
    let net = SimulationNetwork::build(gamma, l);
    if net.track_count() % 2 == 1 {
        SimulationNetwork::build(gamma + 1, l)
    } else {
        net
    }
}

/// One sequential traced pass over every point of `w`: the outer call
/// each point makes (`execute_point`), then its inner layers called
/// again on the same input, then encode and journal append. Returns the
/// pass figures and the traced journal's bytes.
pub fn traced_pass(
    tr: &mut Tracer,
    w: &CampaignWorkload,
    dir: &Path,
    pass: u64,
) -> Result<(Pass, Vec<u8>), String> {
    let mut p = Pass::default();
    let journal_path = dir.join("traced.jsonl");
    let mut journal =
        qdc_harness::Journal::create(&path_str(&journal_path)).map_err(|e| e.to_string())?;
    let off = TelemetryMode::Off;
    let stream = w
        .stream_telemetry
        .then(|| TelemetryMode::Stream(StreamTelemetry::new(path_str(&dir.join("traced_tel")))));
    for (i, spec) in w.spec.points().iter().enumerate() {
        let id = pass << 32 | i as u64;
        let mode = stream.as_ref().unwrap_or(&off);
        let (out, outer) = tr.span("harness.point", id, None, || {
            execute_point_sharded(i, spec, mode, SimOptions::default())
        });
        let (rec, _, _) = out.map_err(|f| format!("point {i} failed: {}", f.error))?;
        p.point_ms.push(tr.ms(outer));
        let mut point_off_ms = tr.ms(outer);
        if stream.is_some() {
            let (_, plain) = tr.span("harness.point_off", id, Some(outer), || {
                execute_point_sharded(i, spec, &off, SimOptions::default())
            });
            point_off_ms = tr.ms(plain);
            p.stream_ms += tr.ms(outer) - point_off_ms;
        }
        let inner_ms = match spec {
            PointSpec::SimThm(sp) => {
                let (outcome, run) = tr.span("simthm.run_point", id, Some(outer), || run_point(sp));
                let (net, build) = tr.span("graph.build", id, Some(run), || {
                    simthm_network(sp.gamma, sp.l)
                });
                let (audit, aud) = tr.span("simthm.audit", id, Some(run), || {
                    audit_trace(&net, &outcome.trace, sp.bandwidth)
                });
                if audit.max_paid_per_round != outcome.max_paid_per_round {
                    return Err(format!("point {i}: audit differs from the point's own"));
                }
                p.trace_msgs += outcome
                    .trace
                    .rounds
                    .iter()
                    .map(|r| r.len() as u64)
                    .sum::<u64>();
                p.build_ms += tr.ms(build);
                p.audit_ms += tr.ms(aud);
                p.congest_ms += tr.ms(run) - tr.ms(build) - tr.ms(aud);
                tr.ms(run)
            }
            PointSpec::Chaos {
                nodes,
                extra_edges,
                drop_pm,
                seed,
                bandwidth,
            } => {
                let (graph, build) = tr.span("graph.build", id, Some(outer), || {
                    generate::random_connected(*nodes, *extra_edges, *seed)
                });
                let drop_prob = f64::from(*drop_pm) / 1000.0;
                let give_up = chaos_round_budget(*nodes, drop_prob);
                let chaos = ChaosConfig {
                    seed: *seed,
                    drop_prob,
                    crash_schedule: Vec::new(),
                    corrupt_prob: 0.0,
                    max_rounds_watchdog: give_up + 5,
                };
                let (flood, bc) = tr.span("algos.broadcast", id, Some(outer), || {
                    robust_broadcast_with(
                        &graph,
                        CongestConfig::classical(*bandwidth),
                        SimOptions::default(),
                        NodeId(0),
                        &chaos,
                        give_up,
                        &mut NullTelemetry,
                    )
                });
                let flood = flood.map_err(|e| format!("point {i}: broadcast failed: {e}"))?;
                if flood.report.metrics() != rec.metrics {
                    return Err(format!("point {i}: broadcast differs from the point's own"));
                }
                p.build_ms += tr.ms(build);
                p.broadcast_ms += tr.ms(bc);
                // The engine runs inside the broadcast; without probes in
                // the program the two cannot be told apart.
                p.congest_ms += tr.ms(bc);
                p.broadcast_nodes += *nodes as u64;
                p.broadcast_msgs += rec.metrics.messages_sent + rec.metrics.messages_dropped;
                tr.ms(build) + tr.ms(bc)
            }
            _ => return Err(format!("point {i}: kind not used by any workload")),
        };
        p.self_ms.push(point_off_ms - inner_ms);
        p.rounds += rec.metrics.rounds;
        p.messages += rec.metrics.messages_sent;
        p.bits += rec.metrics.bits_sent;
        p.dropped += rec.metrics.messages_dropped;

        let (line, enc) = tr.span("harness.encode", id, Some(outer), || {
            record_json(&w.spec.name, &rec, false)
        });
        p.encode_us.push(tr.ms(enc) * 1e3);
        let (appended, app) = tr.span("harness.journal_append", id, Some(outer), || {
            journal.append_line(&line)
        });
        appended.map_err(|e| format!("journal append: {e}"))?;
        p.append_us.push(tr.ms(app) * 1e3);
    }
    drop(journal);
    let bytes = std::fs::read(&journal_path).map_err(|e| e.to_string())?;
    p.journal_bytes = bytes.len() as u64;
    Ok((p, bytes))
}

/// The calls a traced pass wraps in its outer spans (`execute_point`,
/// `record_json`, `Journal::append_line`) made without spans, point by
/// point. Returns their wall time in ms and the journal's bytes.
fn plain_pass(w: &CampaignWorkload, dir: &Path) -> Result<(f64, Vec<u8>), String> {
    let journal_path = dir.join("plain.jsonl");
    let mut journal =
        qdc_harness::Journal::create(&path_str(&journal_path)).map_err(|e| e.to_string())?;
    let mode = if w.stream_telemetry {
        TelemetryMode::Stream(StreamTelemetry::new(path_str(&dir.join("plain_tel"))))
    } else {
        TelemetryMode::Off
    };
    let start = Instant::now();
    for (i, spec) in w.spec.points().iter().enumerate() {
        let (rec, _, _) = execute_point_sharded(i, spec, &mode, SimOptions::default())
            .map_err(|f| format!("point {i} failed: {}", f.error))?;
        journal
            .append_line(&record_json(&w.spec.name, &rec, false))
            .map_err(|e| format!("journal append: {e}"))?;
    }
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    drop(journal);
    let bytes = std::fs::read(&journal_path).map_err(|e| e.to_string())?;
    Ok((wall_ms, bytes))
}

/// The traced run: passes of (untraced campaign at the workload's
/// thread count, then a sequential traced pass and a sequential
/// untraced pass over the same points, in alternating order) until
/// `seconds` have passed. Per-layer figures are medians over passes.
pub fn run_traced(name: &str, seconds: f64, work: &Path, spans: &Path) -> (RunResult, Values) {
    let mut res = RunResult {
        correct: true,
        ..RunResult::default()
    };
    let w = workload::campaign(name, Size::Full).expect("campaign workload");
    let mut tr = Tracer::default();
    let mut per_pass: Vec<Values> = Vec::new();
    let mut first: Option<RepOutput> = None;
    let start = Instant::now();
    let mut k = 0u64;
    while k == 0 || start.elapsed().as_secs_f64() < seconds {
        let dir = work.join(format!("pass_{k}"));
        fresh(&dir);
        let ((outcome, wall, _), _) = tr.span("harness.campaign", k, None, || {
            run_once(&w, &dir, w.threads)
        });
        let points = w.spec.points().len() as u64;
        res.attempted += points;
        res.failed += points.saturating_sub(outcome.aggregate.accepted);
        let out = match check_rep(&w, &dir, &outcome) {
            Ok(out) => out,
            Err(problems) => {
                problems.into_iter().for_each(|p| res.problem(p));
                break;
            }
        };
        compare(&mut res, &w, &first, &out);
        // Alternating the order keeps a warm-up or cool-down effect out
        // of the traced-minus-untraced difference.
        let (traced, plain) = if k.is_multiple_of(2) {
            let t = traced_pass(&mut tr, &w, &dir, k);
            (t, plain_pass(&w, &dir))
        } else {
            let pl = plain_pass(&w, &dir);
            (traced_pass(&mut tr, &w, &dir, k), pl)
        };
        let ((p, traced_bytes), (plain_ms, plain_bytes)) = match (traced, plain) {
            (Ok(t), Ok(pl)) => (t, pl),
            (Err(e), _) | (_, Err(e)) => {
                res.problem(e);
                break;
            }
        };
        if digest(&traced_bytes) != out.journal_digest || digest(&plain_bytes) != out.journal_digest
        {
            res.problem("sequential journal bytes differ from the campaign's journal");
        }
        let wall_ms = wall.as_secs_f64() * 1e3;
        let point_total: f64 = p.point_ms.iter().sum();
        let append_total_ms: f64 = p.append_us.iter().sum::<f64>() / 1e3;
        let outer_ms = point_total + p.encode_us.iter().sum::<f64>() / 1e3 + append_total_ms;
        let mut values = layer_values(&p);
        values.extend([
            ("telemetry.archive_bytes", out.archive_bytes as f64),
            (
                "harness.parallel_efficiency",
                point_total / (w.threads as f64 * wall_ms),
            ),
            ("harness.commit_share", append_total_ms / wall_ms),
            ("trace.overhead_ms", outer_ms - plain_ms),
        ]);
        per_pass.push(values);
        first.get_or_insert(out);
        let _ = std::fs::remove_dir_all(&dir);
        k += 1;
    }
    let mut values = crate::median_by_name(&per_pass);
    values.push((
        "failed_frac",
        res.failed as f64 / res.attempted.max(1) as f64,
    ));
    if let Err(e) = tr.write_jsonl(spans) {
        res.problem(format!("writing spans: {e}"));
    }
    (res, values)
}

/// Runs `name` once and returns its pinned form.
pub fn pin(name: &str, work: &Path) -> Result<crate::pins::Pin, String> {
    let w = workload::campaign(name, Size::Full).ok_or("no such workload")?;
    let dir = work.join(name);
    std::fs::create_dir_all(work).map_err(|e| e.to_string())?;
    fresh(&dir);
    let (outcome, _, _) = run_once(&w, &dir, w.threads);
    let out = check_rep(&w, &dir, &outcome).map_err(|p| p.join("; "))?;
    let _ = std::fs::remove_dir_all(&dir);
    Ok(out.pin())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("perfbench-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        dir
    }

    /// The shrunk campaign workloads plus the service pool's chaos job as
    /// a campaign of its own, so the broadcast path is covered too.
    fn shrunk() -> Vec<CampaignWorkload> {
        let chaos = workload::service_pool(Size::Shrunk)
            .into_iter()
            .find(|s| matches!(s.grid, qdc_harness::CampaignGrid::Chaos { .. }))
            .expect("the pool has a chaos job");
        ["thm35_grid", "gamma_scale"]
            .iter()
            .map(|name| workload::campaign(name, Size::Shrunk).expect("workload"))
            .chain([CampaignWorkload {
                spec: chaos,
                threads: 1,
                stream_telemetry: false,
            }])
            .collect()
    }

    #[test]
    fn shrunk_campaigns_pass_the_checks_and_agree_across_thread_counts() {
        for w in shrunk() {
            let name = &w.spec.name;
            let mut outputs = Vec::new();
            for threads in [1, workload::nproc().max(2)] {
                let dir = scratch(&format!("{name}-{threads}"));
                let (outcome, _, ttfb) = run_once(&w, &dir, threads);
                let out = check_rep(&w, &dir, &outcome).unwrap_or_else(|p| panic!("{name}: {p:?}"));
                assert!(ttfb.is_some(), "{name}: first journal byte seen");
                outputs.push(out);
                std::fs::remove_dir_all(&dir).expect("clean up");
            }
            assert_eq!(outputs[0], outputs[1], "{name}: 1 vs N threads");
        }
    }

    #[test]
    fn sequential_passes_rebuild_the_campaign_journal_byte_for_byte() {
        for w in shrunk() {
            let name = &w.spec.name;
            let dir = scratch(&format!("traced-{name}"));
            let (outcome, _, _) = run_once(&w, &dir, w.threads);
            let out = check_rep(&w, &dir, &outcome).expect("checks pass");
            let mut tr = Tracer::default();
            let (pass, bytes) = traced_pass(&mut tr, &w, &dir, 0).expect("traced pass");
            assert_eq!(digest(&bytes), out.journal_digest, "{name}");
            assert_eq!(pass.messages, out.messages, "{name}");
            assert_eq!(pass.point_ms.len() as u64, out.points, "{name}");
            let (_, plain) = plain_pass(&w, &dir).expect("plain pass");
            assert_eq!(digest(&plain), out.journal_digest, "{name}");
            std::fs::remove_dir_all(&dir).expect("clean up");
        }
    }

    #[test]
    fn full_size_specs_are_valid() {
        for name in ["thm35_grid", "gamma_scale"] {
            let w = workload::campaign(name, Size::Full).expect("workload");
            assert!(w.spec.validate().is_ok(), "{name}");
        }
        for spec in workload::service_pool(Size::Full) {
            assert!(spec.validate().is_ok(), "{}", spec.name);
        }
    }
}
