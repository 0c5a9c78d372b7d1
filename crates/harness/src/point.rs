//! Executing one expanded point and rendering its record.
//!
//! [`execute_point`] is the single dispatch site from a [`PointSpec`]
//! to the underlying experiment code: the simulation-theorem adapter
//! ([`qdc_simthm::campaign`]), the robust-broadcast chaos stack
//! ([`qdc_algos::flood`]), the gadget adapter plus distributed verifier
//! ([`qdc_gadgets::campaign`] + [`qdc_algos::verify`]), or the Example
//! 1.1 Disjointness protocols ([`qdc_algos::disjointness`], classical
//! streaming vs quantum Grover round trips). Every path folds into the
//! same [`PointRecord`] shape so the runner can aggregate without
//! caring which kind it ran.
//!
//! Record serialization keeps wall-clock time in a **separate, final**
//! field ([`record_json`] can omit it), because wall time is the one
//! thing that legitimately differs between runs of the same campaign —
//! everything else is covered by the byte-identical determinism
//! contract.

use crate::json::Json;
use crate::spec::{PointSpec, FAILURE_SCHEMA, POINT_SCHEMA};
use qdc_algos::disjointness::{
    classical_disjointness_observed, classical_rounds, quantum_disjointness_seeded, quantum_rounds,
    DisjointnessRun,
};
use qdc_algos::flood::{chaos_round_budget, robust_broadcast_observed};
use qdc_algos::verify::verify_hamiltonian_cycle;
use qdc_congest::{
    ChaosConfig, CongestConfig, NullTelemetry, RoundProfiler, RunMetrics, RunOptions, RunReport,
    SimError, StreamSink, Telemetry, TelemetryReport, TrafficTrace,
};
use qdc_graph::{generate, Graph, GraphBuilder, NodeId, Subgraph};
use qdc_simthm::campaign::run_point_sink_with;

/// The Grover measurement stream of every quantum ex11 point comes from
/// this fixed protocol seed, so records are reproducible grid-wide.
const EX11_PROTOCOL_SEED: u64 = 11;

/// Quiescence slack on the classical streaming pipeline: the engine
/// spends up to two extra rounds draining the final chunk and observing
/// global termination beyond the closed-form `D + ⌈b/B⌉ − 1`.
const EX11_CLASSICAL_SLACK: u64 = 2;

/// Runs one Example 1.1 point's protocol: the classical streaming
/// pipeline or the seeded Grover round-trip bounce, under the given
/// telemetry sink.
fn run_ex11<T: Telemetry>(
    x: &[bool],
    y: &[bool],
    d: usize,
    cfg: CongestConfig,
    quantum: bool,
    telemetry: &mut T,
) -> (DisjointnessRun, RunReport) {
    if quantum {
        quantum_disjointness_seeded(x, y, d, cfg, EX11_PROTOCOL_SEED, telemetry)
    } else {
        classical_disjointness_observed(x, y, d, cfg, telemetry)
    }
}

/// How the runner observes each point of a campaign.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub enum TelemetryMode {
    /// No sink — the zero-overhead [`NullTelemetry`] hot path.
    #[default]
    Off,
    /// Exact buffered profiling: a [`RoundProfiler`] rides along and the
    /// full [`TelemetryReport`] comes back in the outcome (memory grows
    /// with run length; the committer archives it after the fact).
    Exact,
    /// O(1)-memory streaming: a [`StreamSink`] writes
    /// `<dir>/point_<i>.telemetry.jsonl` incrementally *during* the run
    /// — round lines land the moment each round commits, and memory
    /// stays flat however long the horizon. Gadget points compose
    /// several simulator stages with no single run to observe, so they
    /// produce no archive in this mode (exactly as they yield no report
    /// in [`Exact`](TelemetryMode::Exact) mode).
    Stream(StreamTelemetry),
}

/// Where and how [`TelemetryMode::Stream`] archives land.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StreamTelemetry {
    /// Directory receiving one `point_<i>.telemetry.jsonl` per point
    /// (created on demand).
    pub dir: String,
    /// Capacity of the hottest-edge / hottest-node sketches.
    pub top_k: usize,
    /// Include the volatile `wall_ns` fields (off is the byte-identical
    /// deterministic form).
    pub with_wall: bool,
}

impl StreamTelemetry {
    /// A deterministic stream config over `dir` with the default sketch
    /// capacity (16).
    pub fn new(dir: impl Into<String>) -> StreamTelemetry {
        StreamTelemetry {
            dir: dir.into(),
            top_k: 16,
            with_wall: false,
        }
    }
}

/// The archive path of a streamed point — the same naming scheme the
/// exact-mode committer uses, so downstream consumers (the service's
/// telemetry endpoints, `profile query`) need not care which sink wrote
/// the file.
pub fn stream_telemetry_path(dir: &str, index: usize) -> String {
    format!("{dir}/point_{index}.telemetry.jsonl")
}

/// Staged write of one streamed archive: bytes go to a `.part` sibling
/// and are renamed into place only after the footer lands, so a file at
/// the final path is always a complete archive — a retried or failed
/// attempt can never leave a torn one behind.
struct StreamStage {
    part: String,
    final_path: String,
}

impl StreamStage {
    /// Creates the staging file (and the directory, on demand).
    fn begin(
        index: usize,
        cfg: &StreamTelemetry,
    ) -> Result<(StreamStage, std::fs::File), PointFailure> {
        let final_path = stream_telemetry_path(&cfg.dir, index);
        let part = format!("{final_path}.part");
        std::fs::create_dir_all(&cfg.dir)
            .and_then(|()| {
                // Remove before create so an attempt abandoned by the
                // deadline watchdog keeps writing its own orphaned
                // inode instead of interleaving with ours.
                match std::fs::remove_file(&part) {
                    Err(e) if e.kind() != std::io::ErrorKind::NotFound => Err(e),
                    _ => std::fs::File::create(&part),
                }
            })
            .map(|file| (StreamStage { part, final_path }, file))
            .map_err(|e| PointFailure::from_io(index, &e))
    }

    /// Finishes the sink (footer + flush) and renames the archive into
    /// place.
    fn commit(self, index: usize, sink: StreamSink<std::fs::File>) -> Result<(), PointFailure> {
        sink.finish()
            .and_then(|_| std::fs::rename(&self.part, &self.final_path))
            .map_err(|e| {
                let _ = std::fs::remove_file(&self.part);
                PointFailure::from_io(index, &e)
            })
    }

    /// Drops the staging file after a failed attempt.
    fn abandon(self) {
        let _ = std::fs::remove_file(&self.part);
    }
}

/// The outcome of one executed point, in kind-independent shape.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PointRecord {
    /// Index of the point in the expanded grid (stable across thread
    /// counts; names the record in the JSONL output).
    pub index: usize,
    /// Experiment kind: `"simthm"`, `"chaos"`, `"gadget"` or `"ex11"`.
    pub kind: &'static str,
    /// The grid coordinates of the point, as stable key/value pairs.
    pub params: Vec<(&'static str, Json)>,
    /// The run's traffic accounting.
    pub metrics: RunMetrics,
    /// The point's pass/fail verdict, when it has one: budget adherence
    /// (simthm), full dissemination (chaos), verifier-vs-prediction
    /// agreement (gadget). `None` when the run errored before deciding.
    pub accept: Option<bool>,
    /// Kind-specific extra observations (paid bits, informed counts, …).
    pub extra: Vec<(&'static str, Json)>,
    /// Retained for schema stability: the `qdc-campaign-point/v1` field
    /// order pins an `error` slot, but the supervised runner now turns
    /// every structured error into a [`PointFailure`] record instead, so
    /// freshly written records always carry `null` here. Historical
    /// archives (pre-failure-schema) may still carry strings.
    pub error: Option<String>,
    /// Wall-clock time of this point in microseconds. Excluded from the
    /// determinism contract.
    pub wall_us: u64,
}

/// Why one point produced no [`PointRecord`]: its (final) attempt
/// panicked, returned a structured [`SimError`], or exceeded the
/// supervised runner's wall-clock deadline. Serialized as one
/// `qdc-campaign-failure/v1` line in the campaign journal, occupying the
/// failed point's index slot so recovery stays index-contiguous.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PointFailure {
    /// Index of the point in the expanded grid.
    pub index: usize,
    /// Stable failure kind: one of [`SimError::kind`]'s names, or
    /// `"panic"` (unclassifiable panic payload), or `"deadline"`.
    pub kind: &'static str,
    /// Whether the supervised runner may retry this kind of failure
    /// (see [`SimError::is_retryable`]; panics and deadlines are treated
    /// as transient, protocol violations as permanent).
    pub retryable: bool,
    /// How many attempts were made before giving up (≥ 1; the first try
    /// counts).
    pub attempts: u32,
    /// Human-readable failure message (panic payload or error Display).
    pub error: String,
}

impl PointFailure {
    /// Wraps a structured simulator error from a fallible entry point.
    pub fn from_sim_error(index: usize, e: &SimError) -> PointFailure {
        PointFailure {
            index,
            kind: e.kind(),
            retryable: e.is_retryable(),
            attempts: 1,
            error: e.to_string(),
        }
    }

    /// Classifies a caught panic payload. Panicking simulator APIs emit
    /// exactly the [`SimError`] Display text, so those map back to the
    /// structured kind; anything else is a generic `"panic"`, treated as
    /// transient (a supervisor cannot prove a foreign panic is
    /// deterministic, and retrying a deterministic one only costs the
    /// bounded attempt budget).
    pub fn from_panic(index: usize, payload: &(dyn std::any::Any + Send)) -> PointFailure {
        let message = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "panic with non-string payload".to_string());
        let (kind, retryable) = SimError::classify_message(&message).unwrap_or(("panic", true));
        PointFailure {
            index,
            kind,
            retryable,
            attempts: 1,
            error: message,
        }
    }

    /// A point that exceeded the supervised runner's wall-clock deadline.
    pub fn deadline(index: usize, deadline_ms: u64) -> PointFailure {
        PointFailure {
            index,
            kind: "deadline",
            retryable: true,
            attempts: 1,
            error: format!("point exceeded the {deadline_ms} ms wall-clock deadline"),
        }
    }

    /// An archive write failed mid-point (streaming telemetry). Treated
    /// as transient: a full disk stays full, but the bounded attempt
    /// budget caps the cost, and the other classic causes (fd pressure,
    /// a racing cleanup) do clear.
    pub fn from_io(index: usize, e: &std::io::Error) -> PointFailure {
        PointFailure {
            index,
            kind: "io",
            retryable: true,
            attempts: 1,
            error: format!("telemetry archive write failed: {e}"),
        }
    }
}

/// Re-embeds a gadget instance as a subnetwork `M` of a connected host
/// network (the CONGEST setup Definition 3.3 assumes): the host carries
/// every instance edge plus a node path `0–1–…–(n−1)` so the verifier
/// can communicate even when `M` splits into several cycles.
fn embed_in_connected_host(instance: &Graph) -> (Graph, Subgraph) {
    let n = instance.node_count();
    let mut b = GraphBuilder::new(n);
    let m_edges: Vec<_> = instance
        .edges()
        .map(|e| {
            let (u, v) = instance.endpoints(e);
            b.add_edge(u, v)
        })
        .collect();
    for i in 0..n.saturating_sub(1) {
        b.add_edge_if_absent(NodeId(i as u32), NodeId(i as u32 + 1));
    }
    let host = b.build();
    let sub = Subgraph::from_edges(&host, m_edges);
    (host, sub)
}

/// Runs one point. Returns the record plus, for traced kinds, the
/// per-round traffic trace (archivable via [`TrafficTrace::to_jsonl`]),
/// or a structured [`PointFailure`] when a fallible entry point errored
/// (the supervised runner decides whether to retry or journal it).
///
/// Wall time is measured here but stored separately so callers can
/// compare the deterministic parts of two runs byte for byte.
pub fn execute_point(
    index: usize,
    spec: &PointSpec,
) -> Result<(PointRecord, Option<TrafficTrace>), PointFailure> {
    let (record, trace, _) = execute_point_impl(index, spec, &TelemetryMode::Off, true)?;
    Ok((record, trace))
}

/// Forwards to `execute_point_impl` with the trace kept. Kept only so
/// the frozen `perfbench` benchmark, its one caller, builds unmodified;
/// delete it at the next benchmark change.
#[doc(hidden)]
pub fn execute_point_sharded(
    index: usize,
    spec: &PointSpec,
    telemetry: &TelemetryMode,
    _: RunOptions,
) -> Result<(PointRecord, Option<TrafficTrace>, Option<TelemetryReport>), PointFailure> {
    execute_point_impl(index, spec, telemetry, true)
}

/// [`execute_point`] with a [`RoundProfiler`] observing the run.
///
/// Simulation-theorem points are profiled with the highway/path node
/// classification ([`qdc_simthm::campaign::run_point_observed`]); chaos
/// points are profiled unclassified. Gadget points compose several
/// simulator stages with no single run to profile, so they yield `None`.
/// A broadcast that errors yields a [`PointFailure`] (its partial
/// profile is discarded with the failed attempt).
///
/// Telemetry observes, never perturbs: the record is bit-for-bit the
/// one [`execute_point`] produces (modulo `wall_us`).
pub fn execute_point_with_telemetry(
    index: usize,
    spec: &PointSpec,
) -> Result<(PointRecord, Option<TrafficTrace>, Option<TelemetryReport>), PointFailure> {
    execute_point_impl(index, spec, &TelemetryMode::Exact, true)
}

/// The shared body of the `execute_point*` entry points. `keep_trace`
/// asks traced kinds for their [`TrafficTrace`]; the campaign runner
/// passes `false` unless the campaign keeps or archives traces, and the
/// trace slot is then `None`. The record is the same either way: the
/// Theorem 3.5 audit is folded during the run, not replayed from the
/// trace.
pub(crate) fn execute_point_impl(
    index: usize,
    spec: &PointSpec,
    telemetry_mode: &TelemetryMode,
    keep_trace: bool,
) -> Result<(PointRecord, Option<TrafficTrace>, Option<TelemetryReport>), PointFailure> {
    let start = std::time::Instant::now();
    let (kind, params, metrics, accept, extra, error, trace, telemetry) = match spec {
        PointSpec::SimThm(p) => {
            let (out, telemetry) = match telemetry_mode {
                TelemetryMode::Off => {
                    let (out, _) = run_point_sink_with(p, keep_trace, |_, _, _| NullTelemetry);
                    (out, None)
                }
                TelemetryMode::Exact => {
                    let (out, profiler) =
                        run_point_sink_with(p, keep_trace, |nodes, edges, classes| {
                            RoundProfiler::new(nodes, edges, p.bandwidth).with_classes(classes)
                        });
                    (out, Some(profiler.finish()))
                }
                TelemetryMode::Stream(scfg) => {
                    let (stage, file) = StreamStage::begin(index, scfg)?;
                    let (out, sink) =
                        run_point_sink_with(p, keep_trace, |nodes, edges, classes| {
                            StreamSink::new(file, nodes, edges, p.bandwidth, scfg.top_k)
                                .with_classes(classes)
                                .with_wall(scfg.with_wall)
                        });
                    stage.commit(index, sink)?;
                    (out, None)
                }
            };
            (
                "simthm",
                vec![
                    ("gamma", Json::Num(p.gamma as u64)),
                    ("l", Json::Num(p.l as u64)),
                    ("bandwidth", Json::Num(p.bandwidth as u64)),
                ],
                out.metrics,
                Some(out.within_budget),
                vec![
                    ("node_count", Json::Num(out.node_count)),
                    ("highways", Json::Num(out.highways)),
                    ("horizon", Json::Num(out.horizon)),
                    ("paid_bits", Json::Num(out.paid_bits)),
                    ("max_paid_per_round", Json::Num(out.max_paid_per_round)),
                    ("per_round_budget", Json::Num(out.per_round_budget)),
                ],
                None,
                keep_trace.then_some(out.trace),
                telemetry,
            )
        }
        PointSpec::Chaos {
            nodes,
            extra_edges,
            drop_pm,
            seed,
            bandwidth,
        } => {
            let graph = generate::random_connected(*nodes, *extra_edges, *seed);
            let drop_prob = f64::from(*drop_pm) / 1000.0;
            let give_up = chaos_round_budget(*nodes, drop_prob);
            let chaos = ChaosConfig {
                seed: *seed,
                drop_prob,
                crash_schedule: Vec::new(),
                corrupt_prob: 0.0,
                max_rounds_watchdog: give_up + 5,
            };
            let params = vec![
                ("nodes", Json::Num(*nodes as u64)),
                ("extra_edges", Json::Num(*extra_edges as u64)),
                ("drop_pm", Json::Num(u64::from(*drop_pm))),
                ("seed", Json::Num(*seed)),
                ("bandwidth", Json::Num(*bandwidth as u64)),
            ];
            let cfg = CongestConfig::classical(*bandwidth);
            let (result, telemetry) = match telemetry_mode {
                TelemetryMode::Off => (
                    robust_broadcast_observed(
                        &graph,
                        cfg,
                        NodeId(0),
                        &chaos,
                        give_up,
                        &mut NullTelemetry,
                    ),
                    None,
                ),
                TelemetryMode::Exact => {
                    let mut profiler =
                        RoundProfiler::new(graph.node_count(), graph.edge_count(), *bandwidth);
                    let result = robust_broadcast_observed(
                        &graph,
                        cfg,
                        NodeId(0),
                        &chaos,
                        give_up,
                        &mut profiler,
                    );
                    (result, Some(profiler.finish()))
                }
                TelemetryMode::Stream(scfg) => {
                    let (stage, file) = StreamStage::begin(index, scfg)?;
                    let mut sink = StreamSink::new(
                        file,
                        graph.node_count(),
                        graph.edge_count(),
                        *bandwidth,
                        scfg.top_k,
                    )
                    .with_wall(scfg.with_wall);
                    let result = robust_broadcast_observed(
                        &graph,
                        cfg,
                        NodeId(0),
                        &chaos,
                        give_up,
                        &mut sink,
                    );
                    // A failed attempt commits no archive — the `.part`
                    // staging file is dropped with it.
                    match &result {
                        Ok(_) => stage.commit(index, sink)?,
                        Err(_) => stage.abandon(),
                    }
                    (result, None)
                }
            };
            match result {
                Ok(out) => {
                    let informed = out.informed.iter().filter(|&&i| i).count() as u64;
                    (
                        "chaos",
                        params,
                        out.report.metrics(),
                        Some(informed == *nodes as u64),
                        vec![
                            ("informed", Json::Num(informed)),
                            ("give_up", Json::Num(give_up as u64)),
                        ],
                        None,
                        None,
                        telemetry,
                    )
                }
                // A structured simulator error (a watchdog trip under
                // pathological loss, say) is a *failure*, not a result:
                // the supervised runner journals it as a
                // `qdc-campaign-failure/v1` record and the rest of the
                // grid keeps running.
                Err(e) => return Err(PointFailure::from_sim_error(index, &e)),
            }
        }
        PointSpec::Gadget { point, bandwidth } => {
            let exp = qdc_gadgets::campaign::run_point(point);
            let (host, sub) = embed_in_connected_host(exp.instance.graph());
            let run = verify_hamiltonian_cycle(&host, CongestConfig::classical(*bandwidth), &sub);
            // The verifier composes several complete simulator stages;
            // its Ledger is the natural metrics source (no single trace
            // exists, so max_bits_per_round is not defined here).
            let metrics = RunMetrics {
                rounds: run.ledger.rounds as u64,
                completed: 1,
                messages_sent: run.ledger.messages,
                bits_sent: run.ledger.bits,
                ..RunMetrics::default()
            };
            (
                "gadget",
                vec![
                    ("family", Json::Str(point.family.name().to_string())),
                    ("bits", Json::Num(point.bits as u64)),
                    ("seed", Json::Num(point.seed)),
                    ("bandwidth", Json::Num(*bandwidth as u64)),
                ],
                metrics,
                Some(run.accept == exp.expected_ham && exp.prediction_holds),
                vec![
                    ("expected_ham", Json::Bool(exp.expected_ham)),
                    ("verifier_accept", Json::Bool(run.accept)),
                    ("predicted_cycles", Json::Num(exp.predicted_cycles)),
                    ("stages", Json::Num(run.ledger.stages as u64)),
                ],
                None,
                None,
                None,
            )
        }
        PointSpec::Ex11 {
            bits,
            bandwidth,
            distance,
            quantum,
        } => {
            // The same deterministic instance family as the
            // `ex11_disjointness` bin: a pseudorandom `x`, its
            // complement as `y` (disjoint by construction), with one
            // planted intersection for b ≥ 256 so both verdicts occur
            // across the grid.
            let x = generate::random_bits(*bits, 100 + *bits as u64);
            let mut y: Vec<bool> = x.iter().map(|&v| !v).collect();
            if *bits >= 256 {
                y[*bits / 2] = x[*bits / 2];
            }
            let planted = x.iter().zip(&y).any(|(&a, &c)| a && c);
            let cfg = if *quantum {
                CongestConfig::quantum(*bandwidth)
            } else {
                CongestConfig::classical(*bandwidth)
            };
            // Path topology: D hops, D + 1 nodes, D edges.
            let (nodes, edges) = (*distance + 1, *distance);
            let ((run, report), telemetry) = match telemetry_mode {
                TelemetryMode::Off => (
                    run_ex11(&x, &y, *distance, cfg, *quantum, &mut NullTelemetry),
                    None,
                ),
                TelemetryMode::Exact => {
                    let mut profiler = RoundProfiler::new(nodes, edges, *bandwidth);
                    if *quantum {
                        profiler = profiler.with_quantum(false);
                    }
                    let out = run_ex11(&x, &y, *distance, cfg, *quantum, &mut profiler);
                    (out, Some(profiler.finish()))
                }
                TelemetryMode::Stream(scfg) => {
                    let (stage, file) = StreamStage::begin(index, scfg)?;
                    let mut sink = StreamSink::new(file, nodes, edges, *bandwidth, scfg.top_k)
                        .with_wall(scfg.with_wall);
                    if *quantum {
                        sink = sink.with_quantum(false);
                    }
                    let out = run_ex11(&x, &y, *distance, cfg, *quantum, &mut sink);
                    stage.commit(index, sink)?;
                    (out, None)
                }
            };
            let metrics = report.metrics();
            // The measured curve must match the closed form: the quantum
            // bounce is exact (2·D rounds per query); the classical
            // pipeline may spend bounded quiescence slack on top.
            let predicted = if *quantum {
                quantum_rounds(*bits, *distance)
            } else {
                classical_rounds(*bits, *distance, *bandwidth)
            } as u64;
            let rounds_ok = if *quantum {
                metrics.rounds == predicted
            } else {
                (predicted..=predicted + EX11_CLASSICAL_SLACK).contains(&metrics.rounds)
            };
            let mut extra = vec![
                ("predicted_rounds", Json::Num(predicted)),
                ("planted", Json::Bool(planted)),
            ];
            if *quantum {
                extra.push(("queries", Json::Num(predicted / (2 * *distance as u64))));
                extra.push((
                    "width",
                    Json::Num(qdc_algos::widths::bits_for(bits.saturating_sub(1) as u64) as u64),
                ));
            }
            (
                "ex11",
                vec![
                    ("bits", Json::Num(*bits as u64)),
                    ("bandwidth", Json::Num(*bandwidth as u64)),
                    ("distance", Json::Num(*distance as u64)),
                    (
                        "channel",
                        Json::Str(if *quantum { "quantum" } else { "classical" }.to_string()),
                    ),
                ],
                metrics,
                Some(run.disjoint != planted && rounds_ok),
                extra,
                None,
                None,
                telemetry,
            )
        }
    };
    let record = PointRecord {
        index,
        kind,
        params,
        metrics,
        accept,
        extra,
        error,
        wall_us: start.elapsed().as_micros() as u64,
    };
    Ok((record, trace, telemetry))
}

/// Renders one failure as a single `qdc-campaign-failure/v1` JSON
/// document with a stable field order. Failure records carry no
/// wall-clock field at all — every field is deterministic under the
/// determinism contract (`attempts` only varies when deadlines, which
/// are wall-clock by nature, are in play).
pub fn failure_json(campaign: &str, failure: &PointFailure) -> String {
    Json::obj([
        ("schema", Json::Str(FAILURE_SCHEMA.to_string())),
        ("campaign", Json::Str(campaign.to_string())),
        ("point", Json::Num(failure.index as u64)),
        ("kind", Json::Str(failure.kind.to_string())),
        ("retryable", Json::Bool(failure.retryable)),
        ("attempts", Json::Num(u64::from(failure.attempts))),
        ("error", Json::Str(failure.error.clone())),
    ])
    .to_json()
}

/// Strict conformance check for one `qdc-campaign-failure/v1` line: the
/// exact field list in the exact order, the schema tag, a non-empty
/// kind, a boolean retryability and an attempt count of at least one.
pub fn validate_failure_line(line: &str) -> Result<(), String> {
    let doc = crate::json::parse(line)?;
    crate::json::require_keys(
        &doc,
        &[
            "schema",
            "campaign",
            "point",
            "kind",
            "retryable",
            "attempts",
            "error",
        ],
        &[],
    )?;
    match doc.get("schema") {
        Some(Json::Str(s)) if s == FAILURE_SCHEMA => {}
        _ => return Err(format!("schema tag must be `{FAILURE_SCHEMA}`")),
    }
    for key in ["campaign", "error"] {
        if !matches!(doc.get(key), Some(Json::Str(_))) {
            return Err(format!("`{key}` must be a string"));
        }
    }
    match doc.get("kind") {
        Some(Json::Str(k)) if !k.is_empty() => {}
        _ => return Err("`kind` must be a non-empty string".into()),
    }
    if doc.get("point").and_then(Json::as_u64).is_none() {
        return Err("`point` must be an unsigned integer".into());
    }
    if !matches!(doc.get("retryable"), Some(Json::Bool(_))) {
        return Err("`retryable` must be a boolean".into());
    }
    match doc.get("attempts").and_then(Json::as_u64) {
        Some(n) if n >= 1 => {}
        _ => return Err("`attempts` must be an integer of at least 1".into()),
    }
    Ok(())
}

fn metrics_json(m: &RunMetrics) -> Json {
    Json::obj([
        ("rounds", Json::Num(m.rounds)),
        ("completed", Json::Num(m.completed)),
        ("messages_sent", Json::Num(m.messages_sent)),
        ("bits_sent", Json::Num(m.bits_sent)),
        ("max_bits_per_round", Json::Num(m.max_bits_per_round)),
        ("messages_dropped", Json::Num(m.messages_dropped)),
        ("nodes_crashed", Json::Num(m.nodes_crashed)),
        ("bits_corrupted", Json::Num(m.bits_corrupted)),
    ])
}

/// Renders one record as a single JSON document with a stable field
/// order. With `with_wall = false` the volatile `wall_us` field is
/// omitted — that form is the one covered by the byte-identical
/// determinism contract.
pub fn record_json(campaign: &str, rec: &PointRecord, with_wall: bool) -> String {
    let mut fields = vec![
        ("schema".to_string(), Json::Str(POINT_SCHEMA.to_string())),
        ("campaign".to_string(), Json::Str(campaign.to_string())),
        ("point".to_string(), Json::Num(rec.index as u64)),
        ("kind".to_string(), Json::Str(rec.kind.to_string())),
        (
            "params".to_string(),
            Json::Obj(
                rec.params
                    .iter()
                    .map(|(k, v)| (k.to_string(), v.clone()))
                    .collect(),
            ),
        ),
        ("metrics".to_string(), metrics_json(&rec.metrics)),
        (
            "accept".to_string(),
            match rec.accept {
                Some(b) => Json::Bool(b),
                None => Json::Null,
            },
        ),
        (
            "extra".to_string(),
            Json::Obj(
                rec.extra
                    .iter()
                    .map(|(k, v)| (k.to_string(), v.clone()))
                    .collect(),
            ),
        ),
        (
            "error".to_string(),
            match &rec.error {
                Some(e) => Json::Str(e.clone()),
                None => Json::Null,
            },
        ),
    ];
    if with_wall {
        fields.push(("wall_us".to_string(), Json::Num(rec.wall_us)));
    }
    Json::Obj(fields).to_json()
}

/// Strict conformance check for one `qdc-campaign-point/v1` record line:
/// the exact field list in the exact order (with `wall_us` as the only
/// optional, trailing field), the schema tag, integer-only metrics, and
/// the `accept`/`error` nullability rules. The campaign binary runs
/// this over every line it writes before declaring success.
pub fn validate_record_line(line: &str) -> Result<(), String> {
    let doc = crate::json::parse(line)?;
    crate::json::require_keys(
        &doc,
        &[
            "schema", "campaign", "point", "kind", "params", "metrics", "accept", "extra", "error",
        ],
        &["wall_us"],
    )?;
    match doc.get("schema") {
        Some(Json::Str(s)) if s == POINT_SCHEMA => {}
        _ => return Err(format!("schema tag must be `{POINT_SCHEMA}`")),
    }
    for key in ["campaign", "kind"] {
        if !matches!(doc.get(key), Some(Json::Str(_))) {
            return Err(format!("`{key}` must be a string"));
        }
    }
    if doc.get("point").and_then(Json::as_u64).is_none() {
        return Err("`point` must be an unsigned integer".into());
    }
    for key in ["params", "extra"] {
        if !matches!(doc.get(key), Some(Json::Obj(_))) {
            return Err(format!("`{key}` must be an object"));
        }
    }
    let metrics = doc.get("metrics").expect("checked above");
    crate::json::require_keys(
        metrics,
        &[
            "rounds",
            "completed",
            "messages_sent",
            "bits_sent",
            "max_bits_per_round",
            "messages_dropped",
            "nodes_crashed",
            "bits_corrupted",
        ],
        &[],
    )
    .map_err(|e| format!("metrics: {e}"))?;
    if let Json::Obj(fields) = metrics {
        for (k, v) in fields {
            if v.as_u64().is_none() {
                return Err(format!("metric `{k}` must be an unsigned integer"));
            }
        }
    }
    if !matches!(doc.get("accept"), Some(Json::Bool(_) | Json::Null)) {
        return Err("`accept` must be a boolean or null".into());
    }
    if !matches!(doc.get("error"), Some(Json::Str(_) | Json::Null)) {
        return Err("`error` must be a string or null".into());
    }
    if let Some(w) = doc.get("wall_us") {
        if w.as_u64().is_none() {
            return Err("`wall_us` must be an unsigned integer".into());
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::spec::builtin;

    #[test]
    fn point_simthm_record_matches_direct_run() {
        let spec = builtin("simthm_smoke").expect("builtin");
        let points = spec.points();
        let (rec, trace) = execute_point(0, &points[0]).expect("point runs");
        let PointSpec::SimThm(p) = &points[0] else {
            panic!("smoke grid is simthm");
        };
        let direct = qdc_simthm::campaign::run_point(p);
        assert_eq!(rec.metrics, direct.metrics);
        assert_eq!(rec.accept, Some(direct.within_budget));
        assert_eq!(trace.expect("simthm is traced").rounds, direct.trace.rounds);
        assert!(rec.error.is_none());
    }

    #[test]
    fn point_chaos_record_reports_dissemination() {
        let spec = PointSpec::Chaos {
            nodes: 12,
            extra_edges: 4,
            drop_pm: 200,
            seed: 3,
            bandwidth: 8,
        };
        let (rec, trace) = execute_point(7, &spec).expect("point runs");
        assert_eq!(rec.kind, "chaos");
        assert_eq!(rec.index, 7);
        assert!(trace.is_none());
        assert_eq!(rec.accept, Some(true), "error: {:?}", rec.error);
        assert!(
            rec.metrics.messages_dropped > 0,
            "20% loss must drop something"
        );
    }

    #[test]
    fn point_gadget_record_cross_checks_verifier() {
        let spec = PointSpec::Gadget {
            point: qdc_gadgets::GadgetPoint {
                family: qdc_gadgets::GadgetFamily::Ipmod3,
                bits: 4,
                seed: 1,
            },
            bandwidth: 32,
        };
        let (rec, _) = execute_point(0, &spec).expect("point runs");
        assert_eq!(rec.accept, Some(true));
        assert!(rec.metrics.rounds > 0);
        assert!(rec.metrics.bits_sent > 0);
    }

    #[test]
    fn point_telemetry_observes_without_perturbing() {
        let spec = builtin("simthm_smoke").expect("builtin");
        let point = &spec.points()[0];
        let (plain, _) = execute_point(0, point).expect("point runs");
        let (observed, _, telemetry) = execute_point_with_telemetry(0, point).expect("point runs");
        let telemetry = telemetry.expect("simthm points are profiled");
        assert_eq!(
            record_json("t", &plain, false),
            record_json("t", &observed, false)
        );
        assert_eq!(telemetry.total_messages(), observed.metrics.messages_sent);
        assert_eq!(telemetry.total_bits(), observed.metrics.bits_sent);
        assert_eq!(telemetry.rounds.len() as u64, observed.metrics.rounds);
        assert!(
            telemetry.classified,
            "simthm profiles carry the traffic split"
        );
    }

    #[test]
    fn point_chaos_telemetry_attributes_faults() {
        let spec = PointSpec::Chaos {
            nodes: 12,
            extra_edges: 4,
            drop_pm: 200,
            seed: 3,
            bandwidth: 8,
        };
        let (plain, _) = execute_point(7, &spec).expect("point runs");
        let (rec, _, telemetry) = execute_point_with_telemetry(7, &spec).expect("point runs");
        let telemetry = telemetry.expect("chaos points are profiled");
        assert_eq!(
            record_json("t", &plain, false),
            record_json("t", &rec, false)
        );
        assert_eq!(telemetry.total_dropped(), rec.metrics.messages_dropped);
        assert_eq!(telemetry.total_bits(), rec.metrics.bits_sent);
        assert!(!telemetry.classified, "chaos hosts have no highway layout");
    }

    #[test]
    fn point_gadget_has_no_single_run_to_profile() {
        let spec = PointSpec::Gadget {
            point: qdc_gadgets::GadgetPoint {
                family: qdc_gadgets::GadgetFamily::GapEq,
                bits: 4,
                seed: 2,
            },
            bandwidth: 32,
        };
        let (_, _, telemetry) = execute_point_with_telemetry(0, &spec).expect("point runs");
        assert!(telemetry.is_none());
    }

    #[test]
    fn point_validator_accepts_real_records_and_rejects_mutants() {
        let spec = PointSpec::Chaos {
            nodes: 8,
            extra_edges: 2,
            drop_pm: 0,
            seed: 1,
            bandwidth: 4,
        };
        let (rec, _) = execute_point(2, &spec).expect("point runs");
        validate_record_line(&record_json("t", &rec, false)).expect("deterministic form conforms");
        validate_record_line(&record_json("t", &rec, true)).expect("wall form conforms");

        let line = record_json("t", &rec, true);
        for (broken, why) in [
            (
                line.replace("qdc-campaign-point/v1", "qdc-campaign-point/v2"),
                "wrong schema tag",
            ),
            (
                line.replace("\"accept\":true", "\"accept\":1"),
                "non-boolean accept",
            ),
            (
                line.replace("\"rounds\"", "\"rundes\""),
                "unknown metric key",
            ),
            (
                line.replace("\"wall_us\":", "\"wall_ms\":"),
                "unknown trailing key",
            ),
            (
                line.replace("\"point\":2", "\"point\":2.5"),
                "non-integer point",
            ),
            (line[..line.len() - 4].to_string(), "truncated document"),
        ] {
            assert!(
                validate_record_line(&broken).is_err(),
                "should reject {why}: {broken}"
            );
        }
    }

    #[test]
    fn point_watchdog_trip_maps_to_a_retryable_failure() {
        // Satellite regression: a WatchdogTripped inside a point must
        // become a structured, retryable failure record — never an
        // abort. The chaos Err arm routes through from_sim_error, which
        // this pins for the watchdog variant.
        let e = qdc_congest::SimError::WatchdogTripped { rounds: 40 };
        let f = PointFailure::from_sim_error(9, &e);
        assert_eq!(f.index, 9);
        assert_eq!(f.kind, "watchdog_tripped");
        assert!(f.retryable, "watchdog trips are transient by taxonomy");
        assert_eq!(f.attempts, 1);
        assert!(f.error.contains("watchdog tripped"));
        validate_failure_line(&failure_json("t", &f)).expect("failure line conforms");
    }

    #[test]
    fn point_panic_payloads_classify_back_to_sim_error_kinds() {
        // The panicking simulator APIs emit exactly the SimError Display
        // text, so a caught panic recovers the structured kind…
        let budget = qdc_congest::SimError::BudgetExceeded { bits: 9, budget: 1 };
        let payload: Box<dyn std::any::Any + Send> = Box::new(budget.to_string());
        let f = PointFailure::from_panic(4, payload.as_ref());
        assert_eq!(f.kind, "budget_exceeded");
        assert!(!f.retryable, "protocol violations are permanent");
        // …while a foreign panic stays generic and transient.
        let payload: Box<dyn std::any::Any + Send> = Box::new("index out of bounds");
        let f = PointFailure::from_panic(4, payload.as_ref());
        assert_eq!(f.kind, "panic");
        assert!(f.retryable);
        // Non-string payloads still produce a message.
        let payload: Box<dyn std::any::Any + Send> = Box::new(17u32);
        let f = PointFailure::from_panic(4, payload.as_ref());
        assert_eq!(f.error, "panic with non-string payload");
    }

    #[test]
    fn point_failure_validator_accepts_real_lines_and_rejects_mutants() {
        let f = PointFailure::deadline(5, 250);
        assert_eq!(f.kind, "deadline");
        assert!(f.retryable);
        let line = failure_json("t", &f);
        validate_failure_line(&line).expect("real failure line conforms");
        for (broken, why) in [
            (
                line.replace("qdc-campaign-failure/v1", "qdc-campaign-failure/v0"),
                "wrong schema tag",
            ),
            (
                line.replace("\"retryable\":true", "\"retryable\":1"),
                "non-boolean retryable",
            ),
            (
                line.replace("\"attempts\":1", "\"attempts\":0"),
                "zero attempts",
            ),
            (
                line.replace("\"kind\":\"deadline\"", "\"kind\":\"\""),
                "empty kind",
            ),
            (line[..line.len() - 2].to_string(), "truncated document"),
        ] {
            assert!(
                validate_failure_line(&broken).is_err(),
                "should reject {why}: {broken}"
            );
        }
    }

    #[test]
    fn point_record_json_is_stable_and_parses() {
        let spec = PointSpec::Chaos {
            nodes: 8,
            extra_edges: 2,
            drop_pm: 0,
            seed: 1,
            bandwidth: 4,
        };
        let (rec, _) = execute_point(2, &spec).expect("point runs");
        let deterministic = record_json("t", &rec, false);
        assert_eq!(deterministic, record_json("t", &rec, false));
        assert!(!deterministic.contains("wall_us"));
        let with_wall = record_json("t", &rec, true);
        let doc = json::parse(&with_wall).expect("record is valid JSON");
        assert_eq!(doc.get("point").and_then(Json::as_u64), Some(2));
        assert_eq!(doc.get("kind"), Some(&Json::Str("chaos".into())));
        assert!(doc.get("wall_us").is_some());
        let metrics = doc.get("metrics").expect("metrics present");
        assert_eq!(
            metrics.get("messages_dropped").and_then(Json::as_u64),
            Some(0)
        );
    }
}
