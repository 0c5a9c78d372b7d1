//! Golden-file conformance tests for the nine JSONL/JSON schemas the
//! workspace emits: `qdc-trace/v1`, `qdc-telemetry/v1`,
//! `qdc-telemetry-stream/v1`, `qdc-campaign-point/v1`,
//! `qdc-campaign-failure/v1`, `qdc-campaign/v1`, and the campaign
//! service's `qdc-job/v1`, `qdc-service-status/v1` and
//! `qdc-service-error/v1`.
//!
//! Each schema has a committed fixture under `tests/golden/`, generated
//! from a fixed, fully deterministic workload. The tests pin three
//! things per schema:
//!
//! 1. **Byte-exact emission**: the writer reproduces the fixture byte
//!    for byte (any formatting drift is a schema change and must be
//!    made deliberately, by regenerating);
//! 2. **Round-trip**: the strict parser accepts the fixture and
//!    re-serializes it byte-identically;
//! 3. **Rejection corpus**: truncation, an unknown field, a wrong
//!    version tag, a non-integer value and a leading-zero integer are
//!    each rejected with an error.
//!
//! The telemetry and campaign-point schemas additionally pin
//! quantum-channel fixtures (`telemetry_v1_quantum.jsonl`,
//! `telemetry_stream_v1_quantum.jsonl`, `campaign_point_ex11_v1.jsonl`)
//! exercising the optional `qsplit` qubit/classical accounting fields,
//! each with its own rejection corpus for malformed qubit fields.
//!
//! Regenerate fixtures after a deliberate schema change with:
//!
//! ```text
//! QDC_UPDATE_GOLDEN=1 cargo test --test golden_schemas
//! ```

use qdc::congest::{
    read_aggregate, ChaosConfig, CongestConfig, RoundProfiler, StreamAggregate, StreamSink,
    TelemetryReport, TrafficTrace,
};
use qdc::harness::{
    builtin, execute_point, failure_json, record_json, run_campaign, summary_json,
    validate_failure_line, validate_record_line, validate_summary, PointFailure, PointSpec,
    RunOptions,
};
use qdc::service::{
    job_json, status_json, submit_error_json, validate_error, validate_job, validate_status,
    QuotaConfig, ServiceCore, SubmitError,
};
use qdc::simthm::SimThmPoint;

fn golden_path(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Compares `produced` against the committed fixture, or rewrites the
/// fixture when `QDC_UPDATE_GOLDEN=1` is set.
fn assert_matches_golden(name: &str, produced: &str) {
    let path = golden_path(name);
    if std::env::var("QDC_UPDATE_GOLDEN").is_ok_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("mkdir");
        std::fs::write(&path, produced).expect("write fixture");
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {} ({e}); regenerate with QDC_UPDATE_GOLDEN=1",
            path.display()
        )
    });
    assert_eq!(
        produced,
        want,
        "writer output drifted from {}; if the change is deliberate, \
         regenerate with QDC_UPDATE_GOLDEN=1",
        path.display()
    );
}

/// The fixed trace workload: a seeded lossy min-label flood on a small
/// random graph (deterministic in the seed, exercises the dropped
/// counters in the round lines).
fn golden_trace() -> TrafficTrace {
    let g = qdc::graph::generate::random_connected(8, 3, 5);
    let chaos = ChaosConfig {
        seed: 5,
        drop_prob: 0.25,
        crash_schedule: Vec::new(),
        corrupt_prob: 0.0,
        max_rounds_watchdog: 200,
    };
    let sim = qdc::congest::Simulator::new(&g, CongestConfig::classical(8));
    let (_, _, trace) = sim
        .try_run_traced(
            |info| GoldenFlood {
                label: 100 + info.id.0 as u64,
            },
            &chaos,
        )
        .expect("fixed workload completes");
    trace
}

/// Min-label flood used by the trace fixture.
struct GoldenFlood {
    label: u64,
}

impl qdc::congest::NodeAlgorithm for GoldenFlood {
    fn on_start(&mut self, _: &qdc::congest::NodeInfo, out: &mut qdc::congest::Outbox) {
        out.broadcast(qdc::congest::Message::from_uint(self.label, 8));
    }
    fn on_round(
        &mut self,
        _: &qdc::congest::NodeInfo,
        inbox: &qdc::congest::Inbox,
        out: &mut qdc::congest::Outbox,
    ) {
        let best = inbox.iter().filter_map(|(_, m)| m.as_uint(8)).min();
        if let Some(b) = best {
            if b < self.label {
                self.label = b;
                out.broadcast(qdc::congest::Message::from_uint(b, 8));
            }
        }
    }
    fn is_terminated(&self) -> bool {
        true
    }
}

/// The fixed telemetry workload: the Γ=4, L=9 simulation-theorem point,
/// profiled with the highway/path classification (exercises the split).
fn golden_telemetry() -> TelemetryReport {
    let (_, profile) = qdc::simthm::campaign::run_point_observed(&SimThmPoint {
        gamma: 4,
        l: 9,
        bandwidth: 16,
    });
    profile
}

/// The fixed stream-telemetry workload: the same Γ=4, L=9,
/// B=16 simulation-theorem point as the exact fixture, streamed through
/// a classified [`StreamSink`] with top-k capacity 8 (small enough that
/// the sketches run in the approximation regime and the fixture pins
/// nonzero `err` bounds).
fn golden_stream_archive() -> (String, StreamAggregate) {
    let mut buf = Vec::new();
    let (_, sink) = qdc::simthm::campaign::run_point_sink_with(
        &SimThmPoint {
            gamma: 4,
            l: 9,
            bandwidth: 16,
        },
        false,
        |nodes, edges, classes| {
            StreamSink::new(&mut buf, nodes, edges, 16, 8).with_classes(classes)
        },
    );
    let agg = sink.finish().expect("in-memory write");
    (String::from_utf8(buf).expect("utf8 archive"), agg)
}

#[test]
fn golden_telemetry_stream_v1_byte_exact_round_trip() {
    let (text, agg) = golden_stream_archive();
    assert_matches_golden("telemetry_stream_v1.jsonl", &text);
    let back = read_aggregate(text.as_bytes()).expect("fixture parses");
    assert_eq!(
        back, agg,
        "the parsed footer equals the sink's own final aggregate"
    );
}

#[test]
fn golden_telemetry_stream_v1_rejection_corpus() {
    let (text, _) = golden_stream_archive();
    let without_footer: String = {
        let body = text.trim_end_matches('\n');
        let cut = body.rfind('\n').expect("multi-line archive");
        body[..=cut].to_string()
    };
    let cases = [
        (
            text.trim_end_matches('\n').to_string(),
            "truncated (missing final newline)",
        ),
        (without_footer, "archive ends before the footer"),
        (text.replacen("\"bits\"", "\"bitz\"", 1), "unknown field"),
        (
            text.replace("qdc-telemetry-stream/v1", "qdc-telemetry-stream/v9"),
            "wrong version tag",
        ),
        (
            text.replacen("\"round\":1,", "\"round\":1.5,", 1),
            "non-integer value",
        ),
        (
            text.replacen("\"round\":1,", "\"round\":01,", 1),
            "leading-zero integer",
        ),
        (
            // `"totals":{"rounds":` is unique to the footer (round lines
            // spell `"round"`), so this tampers the footer count without
            // touching the rounds it must summarize.
            text.replace("\"totals\":{\"rounds\":", "\"totals\":{\"rounds\":9"),
            "footer contradicting the streamed rounds",
        ),
    ];
    for (bad, why) in cases {
        let err = read_aggregate(bad.as_bytes()).expect_err(why);
        assert!(!err.to_string().is_empty(), "{why} must explain itself");
    }
}

/// The fixed quantum instance behind the qubit-split fixtures: the
/// b = 64 Example 1.1 pair with one planted intersection.
fn golden_quantum_instance() -> (Vec<bool>, Vec<bool>) {
    let mut x = qdc::graph::generate::random_bits(64, 164);
    let mut y: Vec<bool> = x.iter().map(|&v| !v).collect();
    x[32] = true;
    y[32] = true;
    (x, y)
}

/// The fixed quantum telemetry workload: seeded distributed-Grover
/// Disjointness on a 3-hop path under EPR/teleportation accounting, so
/// every round line carries a `qsplit` charging 2 classical bits per
/// delivered qubit.
fn golden_quantum_telemetry() -> TelemetryReport {
    let (x, y) = golden_quantum_instance();
    let mut profiler = RoundProfiler::new(4, 3, 16).with_quantum(true);
    let _ = qdc::algos::disjointness::quantum_disjointness_seeded(
        &x,
        &y,
        3,
        CongestConfig::quantum_teleport(16),
        11,
        &mut profiler,
    );
    profiler.finish()
}

/// The same quantum workload streamed through a [`StreamSink`] in
/// teleport accounting mode: round lines and the footer totals carry
/// the optional `qsplit` field.
fn golden_quantum_stream_archive() -> (String, StreamAggregate) {
    let (x, y) = golden_quantum_instance();
    let mut buf = Vec::new();
    let mut sink = StreamSink::new(&mut buf, 4, 3, 16, 8).with_quantum(true);
    let _ = qdc::algos::disjointness::quantum_disjointness_seeded(
        &x,
        &y,
        3,
        CongestConfig::quantum_teleport(16),
        11,
        &mut sink,
    );
    let agg = sink.finish().expect("in-memory write");
    (String::from_utf8(buf).expect("utf8 archive"), agg)
}

#[test]
fn golden_telemetry_v1_quantum_byte_exact_round_trip() {
    let profile = golden_quantum_telemetry();
    let text = profile.to_jsonl(false);
    assert_matches_golden("telemetry_v1_quantum.jsonl", &text);
    let back = TelemetryReport::from_jsonl(&text).expect("fixture parses");
    assert_eq!(back.to_jsonl(false), text, "round-trip is byte-exact");
    for r in &back.rounds {
        let q = r.qsplit.expect("quantum rounds carry the split");
        assert_eq!(
            q.classical_bits,
            2 * q.qubit_bits,
            "teleportation charges exactly 2 classical bits per qubit"
        );
    }
}

#[test]
fn golden_telemetry_v1_quantum_rejection_corpus() {
    let text = golden_quantum_telemetry().to_jsonl(false);
    assert!(
        text.contains("\"qsplit\":[12,6]"),
        "the fixture must exercise the qubit split: {text}"
    );
    let cases = [
        (
            text.replacen("\"qsplit\"", "\"qsplat\"", 1),
            "unknown field name",
        ),
        (
            text.replacen("\"qsplit\":[12,6]", "\"qsplit\":[12]", 1),
            "one-element split",
        ),
        (
            text.replacen("\"qsplit\":[12,6]", "\"qsplit\":[12,6,0]", 1),
            "three-element split",
        ),
        (
            text.replacen("\"qsplit\":[12,6]", "\"qsplit\":[12.5,6]", 1),
            "non-integer qubit count",
        ),
        (
            text.replacen("\"qsplit\":[12,6]", "\"qsplit\":[012,6]", 1),
            "leading-zero integer",
        ),
        (
            text.replacen("\"qsplit\":[12,6]", "\"qsplit\":[-12,6]", 1),
            "negative count",
        ),
    ];
    for (bad, why) in cases {
        let err = TelemetryReport::from_jsonl(&bad).expect_err(why);
        assert!(!err.to_string().is_empty(), "{why} must explain itself");
    }
}

#[test]
fn golden_telemetry_stream_v1_quantum_byte_exact_round_trip() {
    let (text, agg) = golden_quantum_stream_archive();
    assert_matches_golden("telemetry_stream_v1_quantum.jsonl", &text);
    let back = read_aggregate(text.as_bytes()).expect("fixture parses");
    assert_eq!(back.totals, agg.totals, "footer equals the sink's totals");
    let q = back.totals.qsplit.expect("quantum totals carry the split");
    assert_eq!(q.classical_bits, 2 * q.qubit_bits);
    assert_eq!(q.qubit_bits, back.totals.bits);
}

#[test]
fn golden_telemetry_stream_v1_quantum_rejection_corpus() {
    let (text, agg) = golden_quantum_stream_archive();
    let q = agg.totals.qsplit.expect("quantum totals carry the split");
    let footer_qsplit = format!(
        "\"qsplit\":[{},{}]}},\"top_edges\"",
        q.classical_bits, q.qubit_bits
    );
    assert!(
        text.contains(&footer_qsplit),
        "fixture footer must carry the split: {text}"
    );
    let cases = [
        (
            text.replace(
                &footer_qsplit,
                &format!(
                    "\"qsplit\":[{},{}]}},\"top_edges\"",
                    q.classical_bits + 1,
                    q.qubit_bits
                ),
            ),
            "footer contradicting the streamed splits",
        ),
        (
            text.replace(&footer_qsplit, "}.\"top_edges\""),
            "mangled footer",
        ),
        (
            text.replacen("\"qsplit\":[12,6]", "\"qsplit\":[12,6,1]", 1),
            "three-element round split",
        ),
        (
            text.replacen("\"qsplit\":[12,6]", "\"qsplit\":[1e1,6]", 1),
            "scientific-notation count",
        ),
    ];
    for (bad, why) in cases {
        let err = read_aggregate(bad.as_bytes()).expect_err(why);
        assert!(!err.to_string().is_empty(), "{why} must explain itself");
    }
}

/// The fixed Example 1.1 campaign record: the quantum b = 64 cell at
/// B = 16, D = 2 (every field a pure function of the spec — the Grover
/// measurement stream is protocol-seeded).
fn golden_ex11_record() -> String {
    let spec = PointSpec::Ex11 {
        bits: 64,
        bandwidth: 16,
        distance: 2,
        quantum: true,
    };
    let (rec, _) = execute_point(17, &spec).expect("golden point runs");
    record_json("golden", &rec, false) + "\n"
}

#[test]
fn golden_campaign_point_ex11_byte_exact_and_validated() {
    let line = golden_ex11_record();
    assert_matches_golden("campaign_point_ex11_v1.jsonl", &line);
    validate_record_line(line.trim_end()).expect("fixture conforms");
    assert!(
        line.contains("\"channel\":\"quantum\"") && line.contains("\"queries\""),
        "the ex11 record carries its channel and query count: {line}"
    );
}

#[test]
fn golden_campaign_point_ex11_rejection_corpus() {
    let line = golden_ex11_record();
    let line = line.trim_end();
    let cases = [
        (line[..line.len() - 2].to_string(), "truncated document"),
        (
            line.replace("\"channel\"", "\"chanel\""),
            "misspelled param key breaks the byte-exact emission contract",
        ),
        (
            line.replace("qdc-campaign-point/v1", "qdc-campaign-point/v2"),
            "wrong version tag",
        ),
        (
            line.replace("\"point\":17", "\"point\":17.5"),
            "non-integer point",
        ),
    ];
    for (bad, why) in cases {
        // The param-key mutation survives the shape validator (params
        // are an open object) but must fail the byte-exact golden — the
        // other three fail the strict validator outright.
        if bad.contains("chanel") {
            assert_ne!(bad, line, "{why}");
        } else {
            let err = validate_record_line(&bad).expect_err(why);
            assert!(!err.is_empty(), "{why} must explain itself");
        }
    }
}

/// The fixed point record: a deterministic lossy chaos point.
fn golden_record() -> String {
    let spec = PointSpec::Chaos {
        nodes: 8,
        extra_edges: 2,
        drop_pm: 250,
        seed: 4,
        bandwidth: 8,
    };
    let (rec, _) = execute_point(3, &spec).expect("golden point runs");
    record_json("golden", &rec, false) + "\n"
}

/// The fixed failure record: a deadline overrun committed after three
/// attempts (every field of the failure schema is a pure function of
/// the constructor arguments — nothing volatile to pin).
fn golden_failure() -> String {
    let mut failure = PointFailure::deadline(11, 250);
    failure.attempts = 3;
    failure_json("golden", &failure) + "\n"
}

/// The fixed campaign summary: the telemetry_smoke builtin with the
/// volatile wall-clock field pinned (wall time is the one legitimate
/// run-to-run difference; the fixture pins everything else).
fn golden_summary() -> String {
    let spec = builtin("telemetry_smoke").expect("builtin");
    let mut outcome = run_campaign(&spec, &RunOptions::default()).expect("runs");
    outcome.wall_ms = 7;
    summary_json(&outcome) + "\n"
}

#[test]
fn golden_trace_v1_byte_exact_round_trip() {
    let trace = golden_trace();
    let text = trace.to_jsonl();
    assert_matches_golden("trace_v1.jsonl", &text);
    let back = TrafficTrace::from_jsonl(&text).expect("fixture parses");
    assert_eq!(back.to_jsonl(), text, "round-trip is byte-exact");
}

#[test]
fn golden_trace_v1_rejection_corpus() {
    let text = golden_trace().to_jsonl();
    let cases = [
        (
            text.trim_end_matches('\n').to_string(),
            "truncated (missing final newline)",
        ),
        (text.replace("\"rounds\"", "\"roundz\""), "unknown field"),
        (
            text.replace("qdc-trace/v1", "qdc-trace/v9"),
            "wrong version tag",
        ),
        (
            text.replacen("\"from\":0", "\"from\":0.5", 1),
            "non-integer value",
        ),
        (
            text.replacen("\"from\":0", "\"from\":00", 1),
            "leading-zero integer",
        ),
    ];
    for (bad, why) in cases {
        let err = TrafficTrace::from_jsonl(&bad).expect_err(why);
        assert!(!err.to_string().is_empty(), "{why} must explain itself");
    }
}

#[test]
fn golden_telemetry_v1_byte_exact_round_trip() {
    let profile = golden_telemetry();
    let text = profile.to_jsonl(false);
    assert_matches_golden("telemetry_v1.jsonl", &text);
    let back = TelemetryReport::from_jsonl(&text).expect("fixture parses");
    assert_eq!(back.to_jsonl(false), text, "round-trip is byte-exact");
    // Structural equality holds on everything but the wall-clock spans,
    // which the deterministic form deliberately omits (parsed back as 0).
    assert_eq!(back.node_totals, profile.node_totals);
    assert_eq!(back.edge_totals, profile.edge_totals);
    assert_eq!(back.total_bits(), profile.total_bits());
}

/// The wall-clock form of the telemetry fixture: the same profile with
/// its volatile per-round spans pinned to a deterministic ramp (real
/// spans legitimately differ run to run; the fixture pins the schema,
/// not the timings).
fn golden_telemetry_wall() -> TelemetryReport {
    let mut profile = golden_telemetry();
    for (i, r) in profile.rounds.iter_mut().enumerate() {
        r.wall_ns = 1_000 * (i as u64 + 1);
    }
    profile
}

#[test]
fn golden_telemetry_v1_wall_byte_exact_round_trip() {
    let profile = golden_telemetry_wall();
    let text = profile.to_jsonl(true);
    assert_matches_golden("telemetry_v1_wall.jsonl", &text);
    let back = TelemetryReport::from_jsonl(&text).expect("fixture parses");
    assert_eq!(back.to_jsonl(true), text, "wall round-trip is byte-exact");
    for (a, b) in back.rounds.iter().zip(&profile.rounds) {
        assert_eq!(a.wall_ns, b.wall_ns, "spans survive the round-trip");
    }
    // Dropping the spans recovers the deterministic fixture exactly.
    assert_eq!(profile.to_jsonl(false), golden_telemetry().to_jsonl(false));
}

#[test]
fn golden_telemetry_v1_rejection_corpus() {
    let text = golden_telemetry().to_jsonl(false);
    let cases = [
        (
            text.trim_end_matches('\n').to_string(),
            "truncated (missing final newline)",
        ),
        (text.replacen("\"bits\"", "\"bitz\"", 1), "unknown field"),
        (
            text.replace("qdc-telemetry/v1", "qdc-telemetry/v2"),
            "wrong version tag",
        ),
        (
            text.replacen("\"round\":1", "\"round\":1.5", 1),
            "non-integer value",
        ),
        (
            text.replacen("\"round\":1", "\"round\":01", 1),
            "leading-zero integer",
        ),
    ];
    for (bad, why) in cases {
        let err = TelemetryReport::from_jsonl(&bad).expect_err(why);
        assert!(!err.to_string().is_empty(), "{why} must explain itself");
    }
}

#[test]
fn golden_campaign_point_v1_byte_exact_and_validated() {
    let line = golden_record();
    assert_matches_golden("campaign_point_v1.jsonl", &line);
    validate_record_line(line.trim_end()).expect("fixture conforms");
}

#[test]
fn golden_campaign_point_v1_rejection_corpus() {
    let line = golden_record();
    let line = line.trim_end();
    let cases = [
        (line[..line.len() - 2].to_string(), "truncated document"),
        (
            line.replace("\"bits_sent\"", "\"bits_cent\""),
            "unknown field",
        ),
        (
            line.replace("qdc-campaign-point/v1", "qdc-campaign-point/v0"),
            "wrong version tag",
        ),
        (
            line.replace("\"point\":3", "\"point\":3.5"),
            "non-integer value",
        ),
        (
            line.replace("\"point\":3", "\"point\":03"),
            "leading-zero integer",
        ),
    ];
    for (bad, why) in cases {
        let err = validate_record_line(&bad).expect_err(why);
        assert!(!err.is_empty(), "{why} must explain itself");
    }
}

#[test]
fn golden_campaign_failure_v1_byte_exact_and_validated() {
    let line = golden_failure();
    assert_matches_golden("campaign_failure_v1.jsonl", &line);
    validate_failure_line(line.trim_end()).expect("fixture conforms");
}

#[test]
fn golden_campaign_failure_v1_rejection_corpus() {
    let line = golden_failure();
    let line = line.trim_end();
    let cases = [
        (line[..line.len() - 2].to_string(), "truncated document"),
        (line.replace("\"kind\"", "\"kynd\""), "unknown field"),
        (
            line.replace("qdc-campaign-failure/v1", "qdc-campaign-failure/v0"),
            "wrong version tag",
        ),
        (
            line.replace("\"attempts\":3", "\"attempts\":3.5"),
            "non-integer value",
        ),
        (
            line.replace("\"retryable\":true", "\"retryable\":1"),
            "non-boolean retryable flag",
        ),
        (
            line.replace("\"attempts\":3", "\"attempts\":0"),
            "zero attempts (the first try counts)",
        ),
    ];
    for (bad, why) in cases {
        let err = validate_failure_line(&bad).expect_err(why);
        assert!(!err.is_empty(), "{why} must explain itself");
    }
}

#[test]
fn golden_campaign_v1_byte_exact_and_validated() {
    let summary = golden_summary();
    assert_matches_golden("campaign_v1.json", &summary);
    validate_summary(&summary).expect("fixture conforms");
}

/// The fixed service workload behind all three service fixtures: two
/// clients, one completed job (with its real deterministic aggregate),
/// one queued telemetry job — every field a pure function of the specs.
fn golden_service_core() -> ServiceCore {
    let mut core = ServiceCore::new(QuotaConfig::default());
    let spec = builtin("telemetry_smoke").expect("builtin");
    let aggregate = run_campaign(&spec, &RunOptions::default())
        .expect("runs")
        .aggregate;
    let done = core.submit("alice", spec, false).expect("admits");
    core.submit("bob", builtin("simthm_smoke").expect("builtin"), true)
        .expect("admits");
    let job = core.take_next().expect("dispatch");
    assert_eq!(job.id, done);
    core.finish(done, 2, aggregate, false);
    core
}

/// The fixed `qdc-job/v1` fixture: both jobs of the golden core, one
/// line each — a completed job with its aggregate tail, then a queued
/// one without.
fn golden_jobs() -> String {
    let core = golden_service_core();
    core.jobs()
        .map(|job| job_json(job) + "\n")
        .collect::<String>()
}

fn golden_service_status() -> String {
    status_json(&golden_service_core()) + "\n"
}

/// The fixed `qdc-service-error/v1` fixture: one line per rejection
/// class the submit path can produce, in status order.
fn golden_service_errors() -> String {
    [
        SubmitError::InvalidSpec(qdc::harness::CampaignError::EmptyName),
        SubmitError::QueueFull { depth: 64, max: 64 },
        SubmitError::ClientQueueFull { queued: 8, max: 8 },
        SubmitError::QuotaExceeded {
            requested: 32,
            active: 4090,
            max: 4096,
        },
    ]
    .iter()
    .map(|e| submit_error_json(e).1 + "\n")
    .collect()
}

#[test]
fn golden_job_v1_byte_exact_and_validated() {
    let lines = golden_jobs();
    assert_matches_golden("job_v1.jsonl", &lines);
    for line in lines.lines() {
        validate_job(line).expect("fixture conforms");
    }
    assert!(
        lines
            .lines()
            .next()
            .expect("two lines")
            .contains("\"aggregate\":{"),
        "the completed job carries its aggregate"
    );
    assert!(
        !lines
            .lines()
            .nth(1)
            .expect("two lines")
            .contains("aggregate"),
        "the queued job does not"
    );
}

#[test]
fn golden_job_v1_rejection_corpus() {
    let lines = golden_jobs();
    let line = lines.lines().next().expect("fixture line");
    let cases = [
        (line[..line.len() - 2].to_string(), "truncated document"),
        (line.replace("\"state\"", "\"stat\""), "unknown field"),
        (
            line.replace("qdc-job/v1", "qdc-job/v2"),
            "wrong version tag",
        ),
        (line.replace("\"id\":1", "\"id\":1.5"), "non-integer value"),
        (
            line.replace("\"id\":1", "\"id\":01"),
            "leading-zero integer",
        ),
        (
            line.replace("\"state\":\"completed\"", "\"state\":\"paused\""),
            "unknown state word",
        ),
    ];
    for (bad, why) in cases {
        let err = validate_job(&bad).expect_err(why);
        assert!(!err.is_empty(), "{why} must explain itself");
    }
}

#[test]
fn golden_service_status_v1_byte_exact_and_validated() {
    let status = golden_service_status();
    assert_matches_golden("service_status_v1.json", &status);
    validate_status(&status).expect("fixture conforms");
}

#[test]
fn golden_service_status_v1_rejection_corpus() {
    let status = golden_service_status();
    let cases = [
        (status[..status.len() - 3].to_string(), "truncated document"),
        (status.replace("\"queued\"", "\"qeued\""), "unknown field"),
        (
            status.replace("qdc-service-status/v1", "qdc-service-status/v0"),
            "wrong version tag",
        ),
        (
            status.replace("\"jobs\":2", "\"jobs\":2.5"),
            "non-integer value",
        ),
        (
            status.replace("\"jobs\":2", "\"jobs\":02"),
            "leading-zero integer",
        ),
        (
            status.replace("\"submitted\":1,", ""),
            "missing client counter",
        ),
    ];
    for (bad, why) in cases {
        let err = validate_status(&bad).expect_err(why);
        assert!(!err.is_empty(), "{why} must explain itself");
    }
}

#[test]
fn golden_service_error_v1_byte_exact_and_validated() {
    let lines = golden_service_errors();
    assert_matches_golden("service_error_v1.jsonl", &lines);
    for line in lines.lines() {
        validate_error(line).expect("fixture conforms");
    }
}

#[test]
fn golden_service_error_v1_rejection_corpus() {
    let lines = golden_service_errors();
    let line = lines.lines().next().expect("fixture line");
    let cases = [
        (line[..line.len() - 2].to_string(), "truncated document"),
        (line.replace("\"error\"", "\"erorr\""), "unknown field"),
        (
            line.replace("qdc-service-error/v1", "qdc-service-error/v2"),
            "wrong version tag",
        ),
        (
            line.replace("\"status\":400", "\"status\":400.5"),
            "non-integer value",
        ),
        (
            line.replace("\"status\":400", "\"status\":0400"),
            "leading-zero integer",
        ),
        (
            line.replace("\"status\":400", "\"status\":900"),
            "out-of-range status",
        ),
    ];
    for (bad, why) in cases {
        let err = validate_error(&bad).expect_err(why);
        assert!(!err.is_empty(), "{why} must explain itself");
    }
}

#[test]
fn golden_campaign_v1_rejection_corpus() {
    let summary = golden_summary();
    let cases = [
        (
            summary[..summary.len() - 3].to_string(),
            "truncated document",
        ),
        (
            summary.replace("\"accepted\"", "\"acepted\""),
            "unknown field",
        ),
        (
            summary.replace("qdc-campaign/v1", "qdc-campaign/v2"),
            "wrong version tag",
        ),
        (
            summary.replace("\"wall_ms\":7", "\"wall_ms\":7.5"),
            "non-integer value",
        ),
        (
            summary.replace("\"wall_ms\":7", "\"wall_ms\":07"),
            "leading-zero integer",
        ),
    ];
    for (bad, why) in cases {
        let err = validate_summary(&bad).expect_err(why);
        assert!(!err.is_empty(), "{why} must explain itself");
    }
}
