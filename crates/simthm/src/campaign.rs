//! Campaign adapter: one Γ×L parameter point → one runnable experiment.
//!
//! The campaign harness (`qdc-harness`) sweeps whole grids of
//! simulation-theorem networks; this module is the bridge it uses. A
//! [`SimThmPoint`] is plain `Send` data naming one grid cell; and
//! [`run_point`] executes it: build `N(Γ, L)`, embed a
//! Hamiltonian-matching subnetwork `M`, run the min-label component
//! flood (the core of a Ham verifier) up to the Theorem 3.5 horizon,
//! and audit the Carol/David-paid traffic against the `6kB` budget. The
//! audit is folded per delivery while the run executes; the per-round
//! trace is only an archive, built when the caller keeps it.
//! [`experiment`] wraps the same work as a `FnOnce() + Send` closure
//! for harnesses that ship work to worker threads.
//!
//! Everything here is deterministic: a point's outcome is a pure
//! function of `(gamma, l, bandwidth)`, which is what lets the harness
//! promise bit-identical aggregates regardless of thread count.

use crate::network::SimulationNetwork;
use crate::simulate::{OnlineAudit, ThreePartyAudit};
use qdc_congest::{
    CongestConfig, Inbox, Message, NodeAlgorithm, NodeClass, NodeInfo, NullTelemetry, Outbox,
    RoundProfiler, RunMetrics, RunReport, Simulator, Telemetry, TelemetryReport, TrafficTrace,
};
use qdc_graph::generate;

/// One cell of a Γ×L campaign grid.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SimThmPoint {
    /// Requested number of paths Γ (bumped by one internally when the
    /// track count `Γ + k` would be odd — the matching embedding needs
    /// an even number of tracks, exactly as the suite binaries do).
    pub gamma: usize,
    /// Requested path length L (rounded up to `2^k + 1` by the network
    /// builder).
    pub l: usize,
    /// CONGEST bandwidth `B` in qubits (the run is accounted under the
    /// quantum channel, the paper's strongest model).
    pub bandwidth: usize,
}

/// What one simulation-theorem point produced.
#[derive(Clone, Debug)]
pub struct SimThmOutcome {
    /// Traffic accounting of the run (capped at the horizon).
    pub metrics: RunMetrics,
    /// Nodes in the realized network (after Γ/L adjustment).
    pub node_count: u64,
    /// Highway count `k` of the realized network.
    pub highways: u64,
    /// The Theorem 3.5 horizon `L/2 − 2` the run was capped at.
    pub horizon: u64,
    /// Total bits Carol and David paid under the ownership schedule.
    pub paid_bits: u64,
    /// Maximum Carol+David paid bits in any single round.
    pub max_paid_per_round: u64,
    /// The theorem's per-round budget `6kB`.
    pub per_round_budget: u64,
    /// Whether every audited round stayed within the budget (the
    /// Theorem 3.5 claim; a campaign exists to observe this at scale).
    pub within_budget: bool,
    /// The per-round message trace, so the harness can archive the run
    /// with [`TrafficTrace::to_jsonl`] and replay it offline. Empty when
    /// the run was not asked to keep it (`keep_trace = false` in
    /// [`run_point_sink_with`]); the audit fields above never depend on
    /// it.
    pub trace: TrafficTrace,
}

/// Event-driven min-label flood along the embedded subnetwork `M` — the
/// component-labeling core of a Ham verifier, the same workload the
/// Theorem 3.5 suite binaries audit.
struct ComponentFlood {
    label: u64,
    active_ports: Vec<bool>,
    width: usize,
}

impl ComponentFlood {
    fn send_all(&self, out: &mut Outbox) {
        for p in 0..self.active_ports.len() {
            if self.active_ports[p] {
                out.send(p, Message::from_uint(self.label, self.width));
            }
        }
    }
}

impl NodeAlgorithm for ComponentFlood {
    fn on_start(&mut self, _info: &NodeInfo, out: &mut Outbox) {
        self.send_all(out);
    }
    fn on_round(&mut self, _info: &NodeInfo, inbox: &Inbox, out: &mut Outbox) {
        let mut improved = false;
        for (port, msg) in inbox.iter() {
            if self.active_ports[port] {
                if let Some(v) = msg.as_uint(self.width) {
                    if v < self.label {
                        self.label = v;
                        improved = true;
                    }
                }
            }
        }
        if improved {
            self.send_all(out);
        }
    }
    fn is_terminated(&self) -> bool {
        true
    }
}

/// Executes one grid point: network, embedding, audited run, trace.
///
/// The run is capped at the horizon `L/2 − 2` — Theorem 3.5 only speaks
/// about runs within it, so `metrics.completed` is usually 0 and that is
/// the expected shape, not a failure.
///
/// # Panics
///
/// Panics if `gamma == 0` or `l < 3` (the network builder's own
/// preconditions). Campaign specs are validated before any point runs,
/// so the harness never reaches this.
pub fn run_point(point: &SimThmPoint) -> SimThmOutcome {
    let net = build_network(point);
    run_on(&net, point, true, &mut NullTelemetry)
}

/// [`run_point`] with a [`RoundProfiler`] observing the run, classified
/// by [`highway_classes`] so the resulting [`TelemetryReport`] carries
/// the highway-vs-path traffic split of Figs. 8–10. Telemetry observes,
/// never perturbs: the outcome is bit-for-bit that of [`run_point`].
pub fn run_point_observed(point: &SimThmPoint) -> (SimThmOutcome, TelemetryReport) {
    let (outcome, profiler) = run_point_sink_with(point, true, |nodes, edges, classes| {
        RoundProfiler::new(nodes, edges, point.bandwidth).with_classes(classes)
    });
    (outcome, profiler.finish())
}

/// The generic observed entry point behind [`run_point_observed`]:
/// realizes the point's network, asks `install` to build the sink from
/// the realized shape (node count, edge count, [`highway_classes`]
/// classification), runs observed, and hands the driven sink back.
///
/// This is how bounded-memory sinks attach — the campaign harness
/// installs a `qdc_congest::StreamSink` here for `--telemetry-stream`
/// runs, and exact mode keeps installing [`RoundProfiler`]. Whatever
/// the sink, observation never perturbs the outcome.
///
/// `keep_trace` decides whether [`SimThmOutcome::trace`] is built: the
/// harness passes `false` unless the campaign keeps or archives traces,
/// so a point's memory does not grow with the messages it delivers.
/// Every other field of the outcome is the same either way.
pub fn run_point_sink_with<T, F>(
    point: &SimThmPoint,
    keep_trace: bool,
    install: F,
) -> (SimThmOutcome, T)
where
    T: Telemetry,
    F: FnOnce(usize, usize, Vec<NodeClass>) -> T,
{
    let net = build_network(point);
    let mut sink = install(
        net.graph().node_count(),
        net.graph().edge_count(),
        highway_classes(&net),
    );
    let outcome = run_on(&net, point, keep_trace, &mut sink);
    (outcome, sink)
}

/// The node classification of `N(Γ, L)` for telemetry's traffic split:
/// tracks `0..Γ` are [`NodeClass::Path`], tracks `Γ..Γ+k` are
/// [`NodeClass::Highway`], indexed by node id.
pub fn highway_classes(net: &SimulationNetwork) -> Vec<NodeClass> {
    net.graph()
        .nodes()
        .map(|v| {
            if net.track(v) < net.path_count() {
                NodeClass::Path
            } else {
                NodeClass::Highway
            }
        })
        .collect()
}

/// Realizes a point's network, bumping Γ by one when the track count
/// `Γ + k` would be odd (the matching embedding needs an even number of
/// tracks, exactly as the suite binaries do).
fn build_network(point: &SimThmPoint) -> SimulationNetwork {
    let net = SimulationNetwork::build(point.gamma, point.l);
    if net.track_count() % 2 == 1 {
        SimulationNetwork::build(point.gamma + 1, point.l)
    } else {
        net
    }
}

/// The shared execution path behind the plain and observed entry points.
fn run_on<T: Telemetry>(
    net: &SimulationNetwork,
    point: &SimThmPoint,
    keep_trace: bool,
    telemetry: &mut T,
) -> SimThmOutcome {
    let (report, audit, trace) = run_audited(net, point, keep_trace, telemetry);
    SimThmOutcome {
        metrics: report.metrics(),
        node_count: net.graph().node_count() as u64,
        highways: net.highway_count() as u64,
        horizon: net.horizon() as u64,
        paid_bits: audit.total_paid(),
        max_paid_per_round: audit.max_paid_per_round,
        per_round_budget: audit.per_round_budget,
        within_budget: audit.within_budget,
        trace,
    }
}

/// Runs the component flood observed through an [`OnlineAudit`] wrapped
/// around `telemetry`, tracing only when `keep_trace` asks for it (the
/// trace is empty otherwise).
fn run_audited<T: Telemetry>(
    net: &SimulationNetwork,
    point: &SimThmPoint,
    keep_trace: bool,
    telemetry: &mut T,
) -> (RunReport, ThreePartyAudit, TrafficTrace) {
    let tracks = net.track_count();
    let (carol, david) = generate::hamiltonian_matching_pair(tracks);
    let m = net.embed_matchings(&carol, &david);
    let width = qdc_algos::widths::id_width(net.graph().node_count());
    let sim = Simulator::new(net.graph(), CongestConfig::quantum(point.bandwidth));
    let init = |info: &NodeInfo| ComponentFlood {
        label: info.id.0 as u64,
        active_ports: info.incident_edges.iter().map(|&e| m.contains(e)).collect(),
        width,
    };
    let mut audited = OnlineAudit::new(net, point.bandwidth, telemetry);
    let (report, trace) = if keep_trace {
        let (_, report, trace) = sim.run_traced_observed(init, net.horizon(), &mut audited);
        (report, trace)
    } else {
        let (_, report) = sim.run_observed(init, net.horizon(), &mut audited);
        (report, TrafficTrace::default())
    };
    (report, audited.finish(), trace)
}

/// Packages a point as a `FnOnce` experiment closure that can be shipped
/// to a worker thread — the shape the campaign harness shards.
pub fn experiment(point: SimThmPoint) -> impl FnOnce() -> SimThmOutcome + Send + 'static {
    move || run_point(&point)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulate::audit_trace;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The audit folded per delivery equals the offline replay of the
        /// run's trace on every field, whether or not the trace is kept.
        /// Random Γ of both parities exercises the odd-track bump.
        #[test]
        fn simthm_online_audit_equals_offline_audit(
            gamma in 1usize..=24,
            l in 5usize..=65,
            bandwidth in 12usize..=48,
        ) {
            let point = SimThmPoint { gamma, l, bandwidth };
            let net = build_network(&point);
            let (report, online, trace) = run_audited(&net, &point, true, &mut NullTelemetry);
            prop_assert_eq!(&online, &audit_trace(&net, &trace, bandwidth));
            prop_assert_eq!(online.rounds, report.rounds);
            let (untraced_report, untraced, empty) =
                run_audited(&net, &point, false, &mut NullTelemetry);
            prop_assert_eq!(&untraced, &online);
            prop_assert_eq!(untraced_report, report);
            prop_assert!(empty.rounds.is_empty() && empty.dropped.is_empty());
        }
    }

    #[test]
    fn simthm_point_is_deterministic_and_within_budget() {
        let p = SimThmPoint {
            gamma: 6,
            l: 17,
            bandwidth: 32,
        };
        let a = run_point(&p);
        let b = run_point(&p);
        assert_eq!(a.metrics, b.metrics);
        assert_eq!(a.paid_bits, b.paid_bits);
        assert_eq!(a.trace.rounds, b.trace.rounds);
        assert!(a.within_budget, "Theorem 3.5 budget must hold");
        assert!(a.metrics.rounds <= a.horizon);
        assert!(a.metrics.messages_sent > 0);
    }

    #[test]
    fn simthm_odd_track_count_is_adjusted_like_the_suite_binaries() {
        // Γ = 11, L = 17 → k = 4, 15 tracks (odd) → realized Γ = 12.
        let p = SimThmPoint {
            gamma: 11,
            l: 17,
            bandwidth: 16,
        };
        let out = run_point(&p);
        let net = SimulationNetwork::build(12, 17);
        assert_eq!(out.node_count, net.graph().node_count() as u64);
    }

    #[test]
    fn simthm_observed_point_matches_plain_and_splits_traffic() {
        let p = SimThmPoint {
            gamma: 4,
            l: 9,
            bandwidth: 16,
        };
        let plain = run_point(&p);
        let (observed, telemetry) = run_point_observed(&p);
        // Observation never perturbs the run.
        assert_eq!(plain.metrics, observed.metrics);
        assert_eq!(plain.paid_bits, observed.paid_bits);
        assert_eq!(plain.trace.rounds, observed.trace.rounds);
        // Dropping the trace changes neither the audit nor what the
        // sink sees.
        let (untraced, profiler) = run_point_sink_with(&p, false, |nodes, edges, classes| {
            RoundProfiler::new(nodes, edges, p.bandwidth).with_classes(classes)
        });
        assert_eq!(profiler.finish().to_jsonl(false), telemetry.to_jsonl(false));
        assert!(untraced.trace.rounds.is_empty());
        assert_eq!(
            (
                untraced.metrics,
                untraced.paid_bits,
                untraced.max_paid_per_round
            ),
            (plain.metrics, plain.paid_bits, plain.max_paid_per_round)
        );
        // The profile reproduces the run's totals…
        assert_eq!(telemetry.total_messages(), observed.metrics.messages_sent);
        assert_eq!(telemetry.total_bits(), observed.metrics.bits_sent);
        assert_eq!(telemetry.rounds.len() as u64, observed.metrics.rounds);
        // …and the highway/path split covers every delivered bit.
        assert!(telemetry.classified);
        let split: u64 = telemetry
            .rounds
            .iter()
            .map(|r| r.path_bits + r.highway_bits + r.cross_bits)
            .sum();
        assert_eq!(split, observed.metrics.bits_sent);
        // The boundary cliques guarantee cross-class traffic in a
        // component flood; pure path traffic flows along the paths.
        let cross: u64 = telemetry.rounds.iter().map(|r| r.cross_bits).sum();
        assert!(cross > 0, "path↔highway edges must carry traffic");
    }

    #[test]
    fn simthm_highway_classes_match_track_layout() {
        let net = SimulationNetwork::build(4, 9);
        let classes = highway_classes(&net);
        assert_eq!(classes.len(), net.graph().node_count());
        let highways = classes.iter().filter(|c| **c == NodeClass::Highway).count();
        let paths = classes.len() - highways;
        // Γ paths of L nodes; k highways thin out with height but share
        // the same class.
        assert_eq!(paths, net.path_count() * net.length());
        assert!(highways > 0);
    }

    #[test]
    fn simthm_experiment_closure_is_send() {
        fn assert_send<T: Send>(_: &T) {}
        let e = experiment(SimThmPoint {
            gamma: 4,
            l: 9,
            bandwidth: 8,
        });
        assert_send(&e);
        let out = e();
        assert!(out.within_budget);
    }
}
