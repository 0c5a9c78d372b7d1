//! The `service_loop` workload: an in-process `qdc-service` on an
//! ephemeral loopback port, driven by closed-loop clients that submit
//! six-point jobs and stream each job's records to the end.

use crate::campaign;
use crate::pins::Pin;
use crate::stats::{median, peak_rss_mb, percentile, Fnv, RunResult};
use crate::trace::Tracer;
use crate::workload::{self, job_choice, think_time, CampaignWorkload, Size, SERVICE_CLIENTS};
use crate::Values;
use qdc_harness::{
    run_campaign_journaled, spec_to_json, validate_record_line, CampaignSpec, CancelToken,
    JournalConfig, RunOptions,
};
use qdc_service::{Server, ServiceConfig};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::time::{Duration, Instant};

/// Server start-ups timed for `setup_s` between two loop segments. The
/// loop is cut into segments so that start-ups are sampled across the
/// whole run rather than in one burst.
const SETUP_BATCH: usize = 5;
const SEGMENTS: usize = 10;

/// One HTTP exchange's status and body.
struct Response {
    status: u16,
    body: Vec<u8>,
    /// When the first body chunk arrived (chunked responses only).
    first_chunk: Option<Instant>,
    chunks: u64,
}

fn send(stream: &mut TcpStream, method: &str, path: &str, client: &str, body: &str) {
    let req = format!(
        "{method} {path} HTTP/1.1\r\nHost: localhost\r\nx-qdc-client: {client}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    // A failed write surfaces as a failed read of the response.
    let _ = stream.write_all(req.as_bytes());
}

/// Reads one response: status line, headers, then a fixed-length or
/// chunked body.
fn read_response(stream: TcpStream) -> std::io::Result<Response> {
    let mut r = BufReader::new(stream);
    let mut line = String::new();
    r.read_line(&mut line)?;
    let status = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| std::io::Error::other(format!("bad status line {line:?}")))?;
    let mut chunked = false;
    loop {
        line.clear();
        r.read_line(&mut line)?;
        if line == "\r\n" || line.is_empty() {
            break;
        }
        let lower = line.to_ascii_lowercase();
        if lower.starts_with("transfer-encoding:") && lower.contains("chunked") {
            chunked = true;
        }
    }
    let mut resp = Response {
        status,
        body: Vec::new(),
        first_chunk: None,
        chunks: 0,
    };
    if !chunked {
        r.read_to_end(&mut resp.body)?;
        return Ok(resp);
    }
    loop {
        line.clear();
        r.read_line(&mut line)?;
        let size = usize::from_str_radix(line.trim(), 16)
            .map_err(|_| std::io::Error::other(format!("bad chunk size {line:?}")))?;
        if size == 0 {
            return Ok(resp);
        }
        let at = resp.body.len();
        resp.body.resize(at + size, 0);
        r.read_exact(&mut resp.body[at..])?;
        resp.first_chunk.get_or_insert_with(Instant::now);
        resp.chunks += 1;
        let mut crlf = [0u8; 2];
        r.read_exact(&mut crlf)?;
    }
}

fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    client: &str,
    body: &str,
) -> std::io::Result<Response> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    send(&mut stream, method, path, client, body);
    read_response(stream)
}

/// A running in-process service.
struct Running {
    addr: SocketAddr,
    cancel: CancelToken,
    handle: std::thread::JoinHandle<std::io::Result<()>>,
}

impl Running {
    fn stop(self) {
        self.cancel.cancel();
        let _ = self.handle.join();
    }
}

/// Starts a service on a fresh, empty data dir and times `setup_s`:
/// from `Server::bind` (which scans the data dir) until the first
/// `/status` answers. The status request is queued on the bound
/// listener before the accept loop starts, so the first accept finds it
/// at once. The dir is made before the clock starts: one `mkdir` can
/// vary more than the rest of start-up.
fn start(data_dir: &Path) -> Result<(Running, f64), String> {
    let _ = std::fs::remove_dir_all(data_dir);
    std::fs::create_dir_all(data_dir).map_err(|e| e.to_string())?;
    let cancel = CancelToken::new();
    let config = ServiceConfig {
        data_dir: data_dir.to_path_buf(),
        ..ServiceConfig::default()
    };
    let t = Instant::now();
    let server = Server::bind("127.0.0.1:0", config, cancel.clone()).map_err(|e| e.to_string())?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    let mut stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    send(&mut stream, "GET", "/status", "setup", "");
    let handle = std::thread::spawn(move || server.run());
    let status = read_response(stream).map_err(|e| e.to_string())?.status;
    let elapsed = t.elapsed().as_secs_f64();
    let running = Running {
        addr,
        cancel,
        handle,
    };
    if status != 200 {
        running.stop();
        return Err(format!("first /status answered {status}"));
    }
    Ok((running, elapsed))
}

/// What a direct deterministic run of one pool spec produced.
struct Expected {
    spec: CampaignSpec,
    bytes: Vec<u8>,
    points: u64,
    rounds: u64,
    messages: u64,
    bits: u64,
}

fn direct_run(spec: &CampaignSpec, work: &Path) -> Result<Expected, String> {
    let path = work.join(format!("expected_{}.jsonl", spec.name));
    let config = JournalConfig {
        out_path: path.to_string_lossy().into_owned(),
        with_wall: false,
        ..JournalConfig::default()
    };
    let out = run_campaign_journaled(spec, &RunOptions::default(), &config, &CancelToken::new())
        .map_err(|e| e.to_string())?;
    let bytes = std::fs::read(&path).map_err(|e| e.to_string())?;
    let _ = std::fs::remove_file(&path);
    Ok(Expected {
        spec: spec.clone(),
        bytes,
        points: out.aggregate.points,
        rounds: out.aggregate.rounds,
        messages: out.aggregate.messages,
        bits: out.aggregate.bits,
    })
}

/// The pinned form of the job pool: summed aggregates and the digest of
/// every spec's direct-run journal, in pool order.
fn fold_pin(pool: &[Expected]) -> Pin {
    let mut h = Fnv::default();
    pool.iter().for_each(|e| h.update(&e.bytes));
    Pin {
        rounds: pool.iter().map(|e| e.rounds).sum(),
        messages: pool.iter().map(|e| e.messages).sum(),
        bits: pool.iter().map(|e| e.bits).sum(),
        digest: h.hex(),
        archive_digest: None,
    }
}

fn direct_pool(work: &Path) -> Result<Vec<Expected>, String> {
    std::fs::create_dir_all(work).map_err(|e| e.to_string())?;
    workload::service_pool(Size::Full)
        .iter()
        .map(|spec| direct_run(spec, work).map_err(|e| format!("direct run of {}: {e}", spec.name)))
        .collect()
}

/// Runs every pool spec directly and returns the pool's pinned form.
pub fn pool_pin(work: &Path) -> Result<Pin, String> {
    Ok(fold_pin(&direct_pool(work)?))
}

/// One job as a client saw it.
#[derive(Default)]
struct Job {
    ok: bool,
    refused: bool,
    problem: Option<String>,
    pool: usize,
    t_submit: Option<Instant>,
    t_accepted: Option<Instant>,
    t_first: Option<Instant>,
    t_end: Option<Instant>,
    status_ms: Option<f64>,
    chunks: u64,
    id: u64,
}

fn ms(a: Option<Instant>, b: Option<Instant>) -> Option<f64> {
    Some(b?.saturating_duration_since(a?).as_secs_f64() * 1e3)
}

/// Milliseconds from submit to `at` for every job that checked out.
fn latencies<'a>(
    jobs: impl IntoIterator<Item = &'a Job>,
    at: fn(&Job) -> Option<Instant>,
) -> Vec<f64> {
    jobs.into_iter()
        .filter(|j| j.ok)
        .filter_map(|j| ms(j.t_submit, at(j)))
        .collect()
}

/// Submits one job and streams its records to the end; with `probe`, a
/// `/status` round trip is timed first.
fn one_job(addr: SocketAddr, client: &str, pool: usize, expected: &Expected, probe: bool) -> Job {
    let mut job = Job {
        pool,
        ..Job::default()
    };
    if probe {
        let t = Instant::now();
        match request(addr, "GET", "/status", client, "") {
            Ok(r) if r.status == 200 => job.status_ms = Some(t.elapsed().as_secs_f64() * 1e3),
            Ok(r) => job.problem = Some(format!("/status answered {}", r.status)),
            Err(e) => job.problem = Some(format!("/status: {e}")),
        }
    }
    let body = spec_to_json(&expected.spec).to_json();
    job.t_submit = Some(Instant::now());
    let sub = match request(addr, "POST", "/jobs", client, &body) {
        Ok(r) => r,
        Err(e) => {
            job.problem = Some(format!("POST /jobs: {e}"));
            return job;
        }
    };
    job.t_accepted = Some(Instant::now());
    if sub.status != 201 {
        job.refused = true;
        job.problem = Some(format!("POST /jobs answered {}", sub.status));
        return job;
    }
    let id = std::str::from_utf8(&sub.body)
        .ok()
        .and_then(|t| qdc_harness::json::parse(t.trim()).ok())
        .and_then(|d| d.get("id").and_then(qdc_harness::Json::as_u64));
    let Some(id) = id else {
        job.problem = Some("job document has no id".into());
        return job;
    };
    job.id = id;
    let rec = match request(addr, "GET", &format!("/jobs/{id}/records"), client, "") {
        Ok(r) => r,
        Err(e) => {
            job.problem = Some(format!("GET records: {e}"));
            return job;
        }
    };
    job.t_end = Some(Instant::now());
    job.t_first = rec.first_chunk;
    job.chunks = rec.chunks;
    if rec.status != 200 {
        job.problem = Some(format!("GET records answered {}", rec.status));
    } else if rec.body != expected.bytes {
        job.problem = Some(format!(
            "job {id}: streamed records differ from a direct run"
        ));
    } else if let Some(e) = String::from_utf8_lossy(&rec.body)
        .lines()
        .find_map(|l| validate_record_line(l).err())
    {
        job.problem = Some(format!("job {id}: {e}"));
    } else {
        job.ok = job.problem.is_none();
    }
    job
}

/// Runs the closed loop: each client submits its seeded job sequence
/// until `seconds` have passed. With `probe`, every other job of a
/// client (the even-numbered ones) is preceded by a timed `/status`.
/// Returns every job and the loop's wall.
fn client_loop(
    addr: SocketAddr,
    pool: &[Expected],
    seed: u64,
    seconds: f64,
    probe: bool,
    first_k: u64,
) -> (Vec<Job>, f64) {
    let start = Instant::now();
    let jobs = std::thread::scope(|s| {
        let handles: Vec<_> = (0..SERVICE_CLIENTS)
            .map(|c| {
                s.spawn(move || {
                    let client = format!("client{c}");
                    let mut jobs = Vec::new();
                    let mut k = first_k;
                    while k == first_k || start.elapsed().as_secs_f64() < seconds {
                        std::thread::sleep(think_time(seed, c, k));
                        let i = job_choice(seed, c, k, pool.len());
                        let probed = probe && k.is_multiple_of(2);
                        jobs.push(one_job(addr, &client, i, &pool[i], probed));
                        k += 1;
                    }
                    jobs
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect::<Vec<_>>()
    });
    (jobs, start.elapsed().as_secs_f64())
}

/// Computes the expected bytes of every pool spec and starts the
/// service the clients talk to.
fn prepare(work: &Path, res: &mut RunResult) -> Option<(Running, Vec<Expected>)> {
    let pool = match direct_pool(work) {
        Ok(pool) => pool,
        Err(e) => {
            res.problem(e);
            return None;
        }
    };
    // The pool does not depend on the seed (only the job order does), so
    // its pin holds at every seed.
    match crate::pins::get("service_loop") {
        Some(pin) if pin == fold_pin(&pool) => {}
        Some(pin) => res.problem(format!(
            "job pool {:?} differs from pin {pin:?}",
            fold_pin(&pool)
        )),
        None => res.problem("no pin for service_loop"),
    }
    match start(&work.join("data")) {
        Ok((server, _)) => Some((server, pool)),
        Err(e) => {
            res.problem(format!("service start: {e}"));
            None
        }
    }
}

/// Times `SETUP_BATCH` service start-ups (after one untimed) on fresh
/// data dirs before loop segment `seg`, stopping each server again.
fn time_starts(work: &Path, seg: usize, setups: &mut Vec<f64>, res: &mut RunResult) {
    let mut started = Vec::new();
    for k in 0..=SETUP_BATCH {
        match start(&work.join(format!("data_{seg}_{k}"))) {
            Ok((running, s)) => {
                if k > 0 {
                    setups.push(s);
                }
                running.cancel.cancel();
                started.push(running);
            }
            Err(e) => res.problem(format!("service start: {e}")),
        }
    }
    started.into_iter().for_each(Running::stop);
}

fn tally(res: &mut RunResult, jobs: &[Job]) {
    for j in jobs {
        res.attempted += 1;
        if !j.ok {
            res.failed += 1;
            if let Some(p) = &j.problem {
                res.problem(p.clone());
            }
        }
    }
}

/// The untraced run.
pub fn run_untraced(seed: u64, seconds: f64, work: &Path) -> (RunResult, Values) {
    let mut res = RunResult {
        correct: true,
        ..RunResult::default()
    };
    let Some((server, pool)) = prepare(work, &mut res) else {
        return (res, Vec::new());
    };
    // Every pool job once, one after the other, before the timed loop:
    // the peak RSS of that fixed sequence does not depend on how the
    // loop's threads happened to interleave. It includes the direct runs
    // in `prepare`: without them the service's own peak varied by a fifth
    // from run to run (with which of its threads allocated first), wider
    // than the bound, while the direct runs set a floor that holds steady.
    let warmup: Vec<Job> = (0..pool.len())
        .map(|i| one_job(server.addr, "warmup", i, &pool[i], false))
        .collect();
    let peak_rss = peak_rss_mb();
    tally(&mut res, &warmup);
    let (mut jobs, mut wall, mut setups) = (Vec::new(), 0.0, Vec::new());
    // 90th percentiles per segment, reported as their median: a burst of
    // outside load in part of a run then moves one segment's tail only.
    let (mut ttfb90, mut job90) = (Vec::new(), Vec::new());
    for seg in 0..SEGMENTS {
        time_starts(work, seg, &mut setups, &mut res);
        let first_k = (seg as u64) << 32;
        let (more, w) = client_loop(
            server.addr,
            &pool,
            seed,
            seconds / SEGMENTS as f64,
            false,
            first_k,
        );
        ttfb90.push(percentile(&latencies(&more, |j| j.t_first), 90.0));
        job90.push(percentile(&latencies(&more, |j| j.t_end), 90.0));
        jobs.extend(more);
        wall += w;
    }
    server.stop();
    tally(&mut res, &jobs);
    let ok: Vec<&Job> = jobs.iter().filter(|j| j.ok).collect();
    let sum = |f: fn(&Expected) -> u64| ok.iter().map(|j| f(&pool[j.pool])).sum::<u64>() as f64;
    let ttfb = latencies(&jobs, |j| j.t_first);
    let job = latencies(&jobs, |j| j.t_end);
    let values = vec![
        ("setup_s", median(&setups)),
        ("points_per_s", sum(|e| e.points) / wall),
        ("sim_msgs_per_s", sum(|e| e.messages) / wall),
        ("sim_rounds_per_s", sum(|e| e.rounds) / wall),
        ("peak_rss_mb", peak_rss),
        ("ttfb_ms_p50", median(&ttfb)),
        ("ttfb_ms_p90", median(&ttfb90)),
        ("job_ms_p50", median(&job)),
        ("job_ms_p90", median(&job90)),
    ];
    (res, values)
}

/// The traced run: the same closed loop with a timed `/status` probe
/// before every other job and spans around every request, then a traced
/// pass over each pool spec for the layers below the service. The
/// request metrics come from the unprobed jobs, which make the same
/// requests as the untraced run; the tracing overhead is the probed
/// jobs' median `job_ms` minus the unprobed jobs'.
pub fn run_traced(seed: u64, seconds: f64, work: &Path, spans: &Path) -> (RunResult, Values) {
    let mut res = RunResult {
        correct: true,
        ..RunResult::default()
    };
    let mut tr = Tracer::default();
    let Some((server, pool)) = prepare(work, &mut res) else {
        return (res, Vec::new());
    };
    let (jobs, _) = client_loop(server.addr, &pool, seed, seconds, true, 0);
    server.stop();
    tally(&mut res, &jobs);
    let (mut submit, mut wait, mut chunks) = (vec![], vec![], vec![]);
    for j in &jobs {
        let (Some(a), Some(b)) = (j.t_submit, j.t_accepted) else {
            continue;
        };
        let root = tr.record("service.submit", j.id, None, tr.ns_at(a), tr.ns_at(b));
        let (Some(first), Some(end)) = (j.t_first, j.t_end) else {
            continue;
        };
        let w = tr.record(
            "service.first_record_wait",
            j.id,
            Some(root),
            tr.ns_at(b),
            tr.ns_at(first),
        );
        tr.record(
            "service.records",
            j.id,
            Some(root),
            tr.ns_at(b),
            tr.ns_at(end),
        );
        if j.status_ms.is_none() {
            submit.push(tr.ms(root));
            wait.push(tr.ms(w));
            chunks.push(j.chunks as f64);
        }
    }
    let status: Vec<f64> = jobs.iter().filter_map(|j| j.status_ms).collect();
    let probed = latencies(jobs.iter().filter(|j| j.status_ms.is_some()), |j| j.t_end);
    let unprobed = latencies(jobs.iter().filter(|j| j.status_ms.is_none()), |j| j.t_end);

    // The layers below the service, on the same specs the jobs ran,
    // folded into one pass over the whole pool.
    let mut all = campaign::Pass::default();
    for (i, e) in pool.iter().enumerate() {
        let w = CampaignWorkload {
            spec: e.spec.clone(),
            threads: 1,
            stream_telemetry: false,
        };
        let dir = work.join(format!("traced_{i}"));
        let _ = std::fs::create_dir_all(&dir);
        match campaign::traced_pass(&mut tr, &w, &dir, i as u64) {
            Ok((p, bytes)) => {
                if bytes != e.bytes {
                    res.problem(format!(
                        "traced run of {} differs from a direct run",
                        e.spec.name
                    ));
                }
                all.merge(p);
            }
            Err(err) => res.problem(err),
        }
    }
    let mut values = campaign::layer_values(&all);
    values.extend([
        ("service.status_ms_p50", median(&status)),
        ("service.submit_ms_p50", median(&submit)),
        ("service.submit_ms_p90", percentile(&submit, 90.0)),
        ("service.first_record_wait_ms_p50", median(&wait)),
        ("service.stream_chunks", median(&chunks)),
        (
            "service.refused",
            jobs.iter().filter(|j| j.refused).count() as f64,
        ),
        ("trace.overhead_ms", median(&probed) - median(&unprobed)),
        (
            "failed_frac",
            res.failed as f64 / res.attempted.max(1) as f64,
        ),
    ]);
    if let Err(e) = tr.write_jsonl(spans) {
        res.problem(format!("writing spans: {e}"));
    }
    (res, values)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shrunk_service_loop_streams_the_bytes_of_a_direct_run() {
        let work = std::env::temp_dir().join(format!("perfbench-{}-service", std::process::id()));
        std::fs::create_dir_all(&work).expect("scratch dir");
        let pool: Vec<Expected> = workload::service_pool(Size::Shrunk)
            .iter()
            .map(|s| direct_run(s, &work).expect("direct run"))
            .collect();
        let (server, setup) = start(&work.join("data")).expect("service starts");
        assert!(setup > 0.0);
        // A zero-second loop runs exactly one job per client, probed.
        let (jobs, _) = client_loop(server.addr, &pool, 11, 0.0, true, 0);
        server.stop();
        assert_eq!(jobs.len() as u64, SERVICE_CLIENTS);
        for j in &jobs {
            assert!(j.ok, "{:?}", j.problem);
            assert!(j.status_ms.is_some() && j.t_first.is_some() && j.chunks > 0);
        }
        std::fs::remove_dir_all(&work).expect("clean up");
    }

    #[test]
    fn the_seed_drives_the_job_order() {
        let order = |seed| -> Vec<usize> { (0..16).map(|k| job_choice(seed, 0, k, 4)).collect() };
        assert_eq!(order(1), order(1));
        assert_ne!(order(1), order(2));
    }
}
