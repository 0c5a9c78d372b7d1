//! The workloads, generated from `--seed`.
//!
//! Each workload is sized twice: `Full` is what a benchmark run
//! measures, `Shrunk` is the same shape small enough for the
//! self-test. Only the generated inputs reach the program.

use crate::stats::splitmix64;
use qdc_harness::{CampaignGrid, CampaignSpec};

/// The workload names, in presentation order.
pub const WORKLOADS: [&str; 3] = ["thm35_grid", "gamma_scale", "service_loop"];

/// The seed a run uses when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 0;

/// Full-size benchmark inputs or shrunk self-test inputs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    Full,
    #[cfg_attr(not(test), allow(dead_code))]
    Shrunk,
}

/// A workload that runs as a journaled campaign.
#[derive(Clone, Debug)]
pub struct CampaignWorkload {
    pub spec: CampaignSpec,
    /// Point-level worker threads.
    pub threads: usize,
    /// Whether points stream `qdc-telemetry-stream/v1` archives.
    pub stream_telemetry: bool,
}

/// The number of CPUs this process may use (read once: the lookup
/// reads cgroup files, which would otherwise land in timed set-ups).
pub fn nproc() -> usize {
    static NPROC: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *NPROC.get_or_init(|| std::thread::available_parallelism().map_or(1, usize::from))
}

/// The campaign-shaped workloads; `None` for `service_loop` and
/// unknown names. Their inputs do not depend on the seed, so their
/// outputs are checked against `pins.json` at every seed.
pub fn campaign(name: &str, size: Size) -> Option<CampaignWorkload> {
    let full = size == Size::Full;
    let (grid, stream_telemetry) = match name {
        // The Theorem 3.5 audit grid at one worker per CPU, largest
        // points first (so the first record waits on a real point, not
        // on thread wake-ups, and the last points are the short ones).
        "thm35_grid" => (
            CampaignGrid::SimThm {
                gammas: if full {
                    (7..=51).rev().step_by(4).collect()
                } else {
                    vec![11, 7]
                },
                lengths: if full {
                    vec![129, 65, 33, 17]
                } else {
                    vec![33, 17]
                },
                bandwidth: 32,
            },
            false,
        ),
        // One large Γ·L point with stream telemetry: the n ≥ 10⁴ regime.
        "gamma_scale" => (
            CampaignGrid::SimThm {
                gammas: vec![if full { 63 } else { 7 }],
                lengths: vec![if full { 257 } else { 33 }],
                bandwidth: 32,
            },
            true,
        ),
        _ => return None,
    };
    Some(CampaignWorkload {
        spec: CampaignSpec {
            name: name.to_string(),
            grid,
        },
        threads: nproc(),
        stream_telemetry,
    })
}

/// The distinct job specs `service_loop` clients submit: four six-point
/// simthm grids (three Γ summing to 26 × L ∈ {65, 33}, B = 32) and one
/// six-point robust-broadcast grid under loss (256 nodes, drop ∈ {0,
/// 100, 200}‰, two fault seeds, B = 8), the one place the chaos plane
/// and the `algos` layer run. They are sized against the service's
/// polls: a records request is served about 14 ms after its job was
/// admitted (the accept loop sleeps 15 ms after each accept) and then
/// every 25 ms. A simthm job (about 18-30 ms) ends at the first records
/// poll whether the machine runs a fifth faster or a quarter slower; the
/// broadcast job (about 6 ms) is done before the records request is
/// served. Jobs near either edge would end at one poll or the next
/// depending on the machine's speed, and the latency percentiles would
/// jump by 25 ms.
pub fn service_pool(size: Size) -> Vec<CampaignSpec> {
    let (gammas, chaos_nodes): (&[[usize; 3]], usize) = match size {
        Size::Full => (&[[7, 5, 14], [6, 6, 14], [7, 6, 13], [6, 5, 15]], 256),
        Size::Shrunk => (&[[4, 5, 6]], 32),
    };
    let simthm = gammas.iter().map(|g| CampaignSpec {
        name: format!("svc_g{}_{}_{}", g[0], g[1], g[2]),
        grid: CampaignGrid::SimThm {
            gammas: g.to_vec(),
            lengths: vec![65, 33],
            bandwidth: 32,
        },
    });
    let chaos = CampaignSpec {
        name: format!("svc_chaos_n{chaos_nodes}"),
        grid: CampaignGrid::Chaos {
            nodes: chaos_nodes,
            extra_edges: chaos_nodes / 4,
            drop_pm: vec![0, 100, 200],
            seeds: vec![1, 2],
            bandwidth: 8,
        },
    };
    simthm.chain([chaos]).collect()
}

/// The pool index of job `k` of client `client`: a seeded order, so a
/// held-out seed submits the same jobs in another interleaving.
pub fn job_choice(seed: u64, client: u64, k: u64, pool: usize) -> usize {
    (job_draw(seed, client, k) % pool as u64) as usize
}

/// The pause before job `k` of client `client`: 0-15 ms, seeded. Without
/// it each submission would land at the same phase of the service's
/// 15 ms accept poll as the last, that phase would drift slowly over a
/// run, and `ttfb_ms_p90` would depend on where it drifted.
pub fn think_time(seed: u64, client: u64, k: u64) -> std::time::Duration {
    std::time::Duration::from_micros(splitmix64(job_draw(seed, client, k)) % 15_000)
}

fn job_draw(seed: u64, client: u64, k: u64) -> u64 {
    splitmix64(splitmix64(seed ^ (client << 32)) ^ k)
}

/// Closed-loop client count of `service_loop`.
pub const SERVICE_CLIENTS: u64 = 2;
