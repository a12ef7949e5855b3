//! End-to-end server tests over real sockets with a mock [`JobHandler`].
//!
//! The mock produces deterministic output from the submission body and
//! can be gated shut so tests can hold workers busy and observe queueing,
//! backpressure (`503` + `Retry-After`), coalescing, and shutdown
//! behaviour deterministically instead of racing real workloads.

use noisy_serve::handler::{JobHandler, Plan};
use noisy_serve::http::{self, Response};
use noisy_serve::{Server, ServerConfig, ServerHandle};
use std::io::Write;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, Weak};
use std::time::{Duration, Instant};

/// Opens (gate value `true`) or blocks (`false`) every `run` call.
#[derive(Clone)]
struct Gate(Arc<(Mutex<bool>, Condvar)>);

impl Gate {
    fn new(open: bool) -> Self {
        Gate(Arc::new((Mutex::new(open), Condvar::new())))
    }

    fn open(&self) {
        let (lock, cv) = &*self.0;
        *lock.lock().unwrap() = true;
        cv.notify_all();
    }

    fn wait(&self) {
        let (lock, cv) = &*self.0;
        let mut open = lock.lock().unwrap();
        while !*open {
            open = cv.wait(open).unwrap();
        }
    }
}

/// Deterministic mock workload: three lines derived from the body;
/// bodies starting with `fail` error instead, bodies starting with
/// `panic` panic, and bodies starting with `scoped-panic` panic in a
/// scoped thread, which `thread::scope` re-raises as `par_map` does.
#[derive(Clone)]
struct MockHandler {
    gate: Gate,
}

fn expected_output(body: &str) -> Vec<u8> {
    (0..3)
        .map(|i| format!("line {i} of {body}\n"))
        .collect::<String>()
        .into_bytes()
}

fn fnv1a(text: &str) -> u64 {
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for b in text.bytes() {
        digest = (digest ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
    }
    digest
}

impl JobHandler for MockHandler {
    type Job = String;

    fn plan(&self, body: &str) -> Result<Plan<String>, String> {
        if body.starts_with("bad") {
            return Err(format!("malformed job {body:?}"));
        }
        let digest = fnv1a(body);
        Ok(Plan { job: body.to_string(), digest })
    }

    fn run(&self, job: &String, sink: &mut dyn Write) -> Result<(), String> {
        self.gate.wait();
        if job.starts_with("fail") {
            return Err(format!("job {job:?} exploded"));
        }
        if job.starts_with("panic") {
            panic!("job {job:?} panicked on purpose");
        }
        if job.starts_with("scoped-panic") {
            std::thread::scope(|scope| {
                scope.spawn(|| panic!("a trial of {job:?} panicked on purpose"));
            });
        }
        sink.write_all(&expected_output(job)).map_err(|e| e.to_string())
    }

    fn run_cell(&self, _job: &String, _index: usize) -> Result<Vec<Vec<String>>, String> {
        unreachable!("mock plans have no cells")
    }

    fn render_cell(&self, _job: &String, _index: usize, _rows: &[Vec<String>]) -> String {
        unreachable!("mock plans have no cells")
    }
}

fn start(config: ServerConfig, gate: Gate) -> ServerHandle<MockHandler> {
    Server::start(config, MockHandler { gate }).expect("server starts")
}

fn test_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        ..ServerConfig::default()
    }
}

fn post(addr: SocketAddr, path: &str, body: &str) -> Response {
    http::request(addr, "POST", path, body.as_bytes()).expect("request completes")
}

fn get(addr: SocketAddr, path: &str) -> Response {
    http::request(addr, "GET", path, b"").expect("request completes")
}

/// Extracts `"key":value` for a numeric field from single-line JSON.
fn json_u64(json: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\":");
    let at = json.find(&pat).unwrap_or_else(|| panic!("no {key} in {json}"));
    json[at + pat.len()..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .unwrap_or_else(|_| panic!("non-numeric {key} in {json}"))
}

fn wait_for_done(addr: SocketAddr, id: u64) -> Response {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let status = get(addr, &format!("/v1/runs/{id}"));
        assert_eq!(status.status, 200, "status endpoint failed: {}", status.text());
        let text = status.text();
        if text.contains("\"done\"") || text.contains("\"failed\"") {
            return status;
        }
        assert!(Instant::now() < deadline, "job {id} never finished: {text}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn healthz_stats_and_unknown_routes() {
    let handle = start(test_config(), Gate::new(true));
    let addr = handle.addr();
    assert_eq!(get(addr, "/v1/healthz").text(), "{\"ok\":true}");
    let stats = get(addr, "/v1/stats");
    assert_eq!(stats.status, 200);
    assert_eq!(json_u64(&stats.text(), "queue_depth"), 0);
    assert_eq!(json_u64(&stats.text(), "workers"), 2);
    assert_eq!(get(addr, "/v1/nope").status, 404);
    assert_eq!(get(addr, "/v1/runs/999").status, 404);
    // The shutdown endpoint is disabled unless explicitly enabled.
    assert_eq!(post(addr, "/v1/shutdown", "").status, 404);
    handle.shutdown_and_wait();
}

#[test]
fn submit_poll_and_stream_round_trip() {
    let handle = start(test_config(), Gate::new(true));
    let addr = handle.addr();
    let accepted = post(addr, "/v1/runs", "alpha");
    assert_eq!(accepted.status, 202, "{}", accepted.text());
    let id = json_u64(&accepted.text(), "id");
    let done = wait_for_done(addr, id);
    assert!(done.text().contains("\"done\""), "{}", done.text());
    let stream = get(addr, &format!("/v1/runs/{id}/stream"));
    assert_eq!(stream.status, 200);
    assert_eq!(stream.body, expected_output("alpha"));
    // Streaming is repeatable once the job is done.
    let again = get(addr, &format!("/v1/runs/{id}/stream"));
    assert_eq!(again.body, expected_output("alpha"));
    handle.shutdown_and_wait();
}

#[test]
fn repeated_submissions_hit_the_cache() {
    let handle = start(test_config(), Gate::new(true));
    let addr = handle.addr();
    let first = post(addr, "/v1/runs", "cached-job");
    let id = json_u64(&first.text(), "id");
    wait_for_done(addr, id);
    let before = get(addr, "/v1/stats").text();
    assert_eq!(json_u64(&before, "hits"), 0, "{before}");

    let second = post(addr, "/v1/runs", "cached-job");
    assert_eq!(second.status, 202);
    assert!(second.text().contains("\"cached\":true"), "{}", second.text());
    let second_id = json_u64(&second.text(), "id");
    assert_ne!(second_id, id, "a cache hit still mints a fresh job id");
    let stream = get(addr, &format!("/v1/runs/{second_id}/stream"));
    assert_eq!(stream.body, expected_output("cached-job"));

    let after = get(addr, "/v1/stats").text();
    assert_eq!(json_u64(&after, "hits"), 1, "{after}");
    assert_eq!(json_u64(&after, "completed"), 1, "no recompute: {after}");
    handle.shutdown_and_wait();
}

#[test]
fn identical_inflight_submissions_coalesce() {
    let gate = Gate::new(false);
    let handle = start(test_config(), gate.clone());
    let addr = handle.addr();
    let first = post(addr, "/v1/runs", "slow-job");
    let second = post(addr, "/v1/runs", "slow-job");
    let first_id = json_u64(&first.text(), "id");
    let second_id = json_u64(&second.text(), "id");
    assert_eq!(first_id, second_id, "concurrent identical submissions share a job");
    assert!(second.text().contains("\"accepted\""), "{}", second.text());
    gate.open();
    wait_for_done(addr, first_id);
    let stats = get(addr, "/v1/stats").text();
    assert_eq!(json_u64(&stats, "coalesced"), 1, "{stats}");
    assert_eq!(json_u64(&stats, "completed"), 1, "{stats}");
    handle.shutdown_and_wait();
}

#[test]
fn queue_saturation_returns_503_with_retry_after() {
    let gate = Gate::new(false);
    let config = ServerConfig {
        workers: 1,
        queue_depth: 1,
        ..test_config()
    };
    let handle = start(config, gate.clone());
    let addr = handle.addr();

    // Job 1 occupies the single worker (gated shut); job 2 fills the
    // queue. Distinct bodies, so coalescing cannot absorb them.
    let running = post(addr, "/v1/runs", "job-running");
    assert_eq!(running.status, 202);
    // Wait until the worker has actually claimed job 1 off the queue.
    let deadline = Instant::now() + Duration::from_secs(5);
    while json_u64(&get(addr, "/v1/stats").text(), "in_flight") == 0 {
        assert!(Instant::now() < deadline, "worker never claimed the job");
        std::thread::sleep(Duration::from_millis(10));
    }
    let queued = post(addr, "/v1/runs", "job-queued");
    assert_eq!(queued.status, 202);

    let rejected = post(addr, "/v1/runs", "job-rejected");
    assert_eq!(rejected.status, 503, "{}", rejected.text());
    assert_eq!(rejected.header("retry-after"), Some("1"));
    let stats = get(addr, "/v1/stats").text();
    assert_eq!(json_u64(&stats, "rejected"), 1, "{stats}");

    // Draining the gate lets the accepted jobs finish; the rejected one
    // was never enqueued.
    gate.open();
    wait_for_done(addr, json_u64(&queued.text(), "id"));
    let stats = get(addr, "/v1/stats").text();
    assert_eq!(json_u64(&stats, "completed"), 2, "{stats}");
    handle.shutdown_and_wait();
}

#[test]
fn failed_jobs_report_errors_on_status_and_stream() {
    let handle = start(test_config(), Gate::new(true));
    let addr = handle.addr();
    let accepted = post(addr, "/v1/runs", "fail-me");
    let id = json_u64(&accepted.text(), "id");
    let status = wait_for_done(addr, id);
    assert!(status.text().contains("\"failed\""), "{}", status.text());
    assert!(status.text().contains("exploded"), "{}", status.text());
    let stream = get(addr, &format!("/v1/runs/{id}/stream"));
    assert_eq!(stream.status, 500, "{}", stream.text());
    handle.shutdown_and_wait();
}

#[test]
fn a_panicking_job_fails_and_its_worker_keeps_running() {
    // One worker: had a panic taken it down, the last job would never run.
    let config = ServerConfig {
        workers: 1,
        ..test_config()
    };
    let handle = start(config, Gate::new(true));
    let addr = handle.addr();
    for (body, message) in [
        (
            "panic-now",
            "the job panicked: job \\\"panic-now\\\" panicked on purpose",
        ),
        ("scoped-panic", "the job panicked: a scoped thread panicked"),
    ] {
        let id = json_u64(&post(addr, "/v1/runs", body).text(), "id");
        let status = wait_for_done(addr, id).text();
        assert!(status.contains("\"failed\""), "{status}");
        assert!(status.contains(message), "{status}");
        let stream = get(addr, &format!("/v1/runs/{id}/stream"));
        assert_eq!(stream.status, 500, "{}", stream.text());
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stats = get(addr, "/v1/stats").text();
        if json_u64(&stats, "in_flight") == 0 {
            assert_eq!(json_u64(&stats, "failed"), 2, "{stats}");
            break;
        }
        assert!(
            Instant::now() < deadline,
            "in_flight never returned to 0: {stats}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    let id = json_u64(&post(addr, "/v1/runs", "after the panics").text(), "id");
    assert!(wait_for_done(addr, id).text().contains("\"done\""));
    let stream = get(addr, &format!("/v1/runs/{id}/stream"));
    assert_eq!(stream.status, 200);
    assert_eq!(stream.body, expected_output("after the panics"));
    handle.shutdown_and_wait();
}

#[test]
fn plan_errors_are_bad_requests() {
    let handle = start(test_config(), Gate::new(true));
    let addr = handle.addr();
    let response = post(addr, "/v1/runs", "bad spec");
    assert_eq!(response.status, 400, "{}", response.text());
    assert!(response.text().contains("malformed job"), "{}", response.text());
    // Non-UTF-8 bodies are rejected before planning.
    let response = http::request(addr, "POST", "/v1/runs", &[0xff, 0xfe, 0x00])
        .expect("request completes");
    assert_eq!(response.status, 400, "{}", response.text());
    handle.shutdown_and_wait();
}

#[test]
fn shutdown_endpoint_drains_and_rejects_new_work() {
    let config = ServerConfig {
        enable_shutdown_endpoint: true,
        ..test_config()
    };
    let gate = Gate::new(false);
    let handle = start(config, gate.clone());
    let addr = handle.addr();
    let accepted = post(addr, "/v1/runs", "pre-shutdown");
    let id = json_u64(&accepted.text(), "id");

    // Connections that exist before shutdown keep being served while the
    // server drains. Each parks a partial request so the server cannot
    // mistake it for an idle keep-alive connection and close it.
    let submit_body = b"post-shutdown";
    let submit_head = format!(
        "POST /v1/runs HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
        submit_body.len()
    );
    let mut submit_conn = std::net::TcpStream::connect(addr).expect("connect");
    submit_conn.write_all(submit_head.as_bytes()).expect("send head");
    let mut stream_conn = std::net::TcpStream::connect(addr).expect("connect");
    stream_conn
        .write_all(format!("GET /v1/runs/{id}/stream HTTP/1.1\r\n").as_bytes())
        .expect("send request line");

    let response = post(addr, "/v1/shutdown", "");
    assert_eq!(response.status, 200);
    assert!(handle.shutdown_begun());
    // New connections are no longer accepted once the server drains, so
    // fresh submissions fail at connect or get refused in-band.
    assert!(
        std::net::TcpStream::connect(addr).is_err()
            || http::request(addr, "POST", "/v1/runs", b"late")
                .map(|r| r.status == 503)
                .unwrap_or(true),
        "new work must not be accepted during drain"
    );

    // The pre-shutdown submission connection completes its request and
    // is refused with backpressure semantics, not a dropped socket.
    submit_conn.write_all(submit_body).expect("send body");
    let refused = http::read_response(&mut submit_conn).expect("refusal arrives");
    assert_eq!(refused.status, 503, "{}", refused.text());
    assert_eq!(refused.header("retry-after"), Some("1"));

    // The queued job still runs to completion and its stream flushes
    // fully before the server exits.
    stream_conn.write_all(b"\r\n").expect("finish request");
    gate.open();
    let streamed = http::read_response(&mut stream_conn).expect("stream arrives");
    assert_eq!(streamed.status, 200);
    assert_eq!(streamed.body, expected_output("pre-shutdown"));
    handle.shutdown_and_wait();
}

/// Pins the determinism remediation: two servers driven through the
/// same operation sequence — submissions with distinct digests, a
/// cache budget small enough to force evictions, a replayed
/// submission for a hit — must report byte-identical `/v1/stats`
/// documents. With hash-ordered cache/job tables the eviction victim
/// (and so `bytes`/`entries`/`evictions`) could vary run to run; the
/// BTreeMap-backed tables make the whole document a pure function of
/// the operation history.
#[test]
fn stats_json_identical_across_identical_runs() {
    let run_once = || {
        let mut config = test_config();
        config.workers = 1; // serialize execution so counters can't race
        config.cache_bytes = 96; // tiny budget: every body is ~48 bytes, so later inserts evict
        let handle = start(config, Gate::new(true));
        let addr = handle.addr();
        let mut ids = Vec::new();
        for i in 0..6 {
            let resp = post(addr, "/v1/runs", &format!("job number {i}"));
            assert_eq!(resp.status, 202, "{}", resp.text());
            ids.push(json_u64(&resp.text(), "id"));
        }
        for id in ids {
            wait_for_done(addr, id);
        }
        // Replay the first body: digest-identical, exercises the cache
        // lookup path (hit or miss is decided by the eviction order,
        // which must itself be deterministic).
        let resp = post(addr, "/v1/runs", "job number 0");
        assert_eq!(resp.status, 202, "{}", resp.text());
        let id = json_u64(&resp.text(), "id");
        wait_for_done(addr, id);
        let stats = get(addr, "/v1/stats").text();
        handle.shutdown_and_wait();
        stats
    };
    let first = run_once();
    let second = run_once();
    assert_eq!(first, second, "stats document depends on something other than the op history");
}

/// A fresh connection is accepted at once: an acceptor that polled a
/// non-blocking listener would add up to one poll interval to each.
#[test]
fn a_fresh_connection_is_accepted_without_a_poll_wait() {
    let handle = start(test_config(), Gate::new(true));
    let addr = handle.addr();
    let mut round_trips: Vec<Duration> = (0..50)
        .map(|_| {
            let t0 = Instant::now();
            assert_eq!(get(addr, "/v1/healthz").status, 200);
            t0.elapsed()
        })
        .collect();
    round_trips.sort();
    let median = round_trips[round_trips.len() / 2];
    assert!(median < Duration::from_millis(5), "median healthz round trip {median:?}");
    handle.shutdown_and_wait();
}

/// Whether `handle.shutdown_and_wait()` returns within `limit`; a hung
/// shutdown fails the test instead of hanging it.
fn shuts_down_within<H: JobHandler>(handle: ServerHandle<H>, limit: Duration) -> bool {
    let (done, finished) = mpsc::channel();
    let waiter = std::thread::spawn(move || {
        handle.shutdown_and_wait();
        let _ = done.send(());
    });
    let in_time = finished.recv_timeout(limit).is_ok();
    if in_time {
        waiter.join().expect("shutdown thread");
    }
    in_time
}

#[test]
fn shutdown_wakes_an_idle_acceptor() {
    for addr in ["127.0.0.1:0", "0.0.0.0:0"] {
        let config = ServerConfig { addr: addr.to_string(), ..test_config() };
        let handle = start(config, Gate::new(true));
        assert!(shuts_down_within(handle, Duration::from_secs(1)), "bound to {addr}");
    }
    let config = ServerConfig { enable_shutdown_endpoint: true, ..test_config() };
    let handle = start(config, Gate::new(true));
    assert_eq!(post(handle.addr(), "/v1/shutdown", "").status, 200);
    assert!(shuts_down_within(handle, Duration::from_secs(1)), "after POST /v1/shutdown");
}

/// A mock whose jobs decompose into two cells, each held at the gate.
/// It counts the cell-key requests, and every job it plans carries a
/// strong reference to `token` for as long as the server keeps it.
struct ProbeHandler {
    gate: Gate,
    token: Weak<()>,
    cell_requests: Arc<AtomicUsize>,
}

struct ProbeJob {
    body: String,
    _token: Option<Arc<()>>,
}

fn probe_output(body: &str) -> Vec<u8> {
    format!("cell 0 of {body}\ncell 1 of {body}\n").into_bytes()
}

impl JobHandler for ProbeHandler {
    type Job = ProbeJob;

    fn plan(&self, body: &str) -> Result<Plan<ProbeJob>, String> {
        let job = ProbeJob { body: body.to_string(), _token: self.token.upgrade() };
        Ok(Plan { job, digest: fnv1a(body) })
    }

    fn cells(&self, job: &mut ProbeJob) -> Option<Vec<u64>> {
        self.cell_requests.fetch_add(1, Ordering::SeqCst);
        Some((0..2).map(|i| fnv1a(&format!("{}#{i}", job.body))).collect())
    }

    fn run(&self, _job: &ProbeJob, _sink: &mut dyn Write) -> Result<(), String> {
        unreachable!("probe jobs always decompose into cells")
    }

    fn run_cell(&self, job: &ProbeJob, index: usize) -> Result<Vec<Vec<String>>, String> {
        self.gate.wait();
        Ok(vec![vec![format!("cell {index} of {}", job.body)]])
    }

    fn render_cell(&self, _job: &ProbeJob, _index: usize, rows: &[Vec<String>]) -> String {
        rows.iter().map(|row| format!("{}\n", row.concat())).collect()
    }
}

/// What one computed job, a coalesced duplicate of it and a later cache
/// hit left behind.
struct ProbeRun {
    handle: ServerHandle<ProbeHandler>,
    token: Arc<()>,
    /// The computed, coalesced and cached job ids.
    ids: [u64; 3],
    /// Cell-key requests seen after each of those three submissions.
    cell_requests: [usize; 3],
}

/// Submits `probe` while the gate holds its run open, submits it again
/// (coalesced), opens the gate, waits for the run, and submits it a
/// third time (a cache hit).
fn computed_coalesced_and_hit() -> ProbeRun {
    let token = Arc::new(());
    let gate = Gate::new(false);
    let requests = Arc::new(AtomicUsize::new(0));
    let handler = ProbeHandler {
        gate: gate.clone(),
        token: Arc::downgrade(&token),
        cell_requests: Arc::clone(&requests),
    };
    let handle = Server::start(test_config(), handler).expect("server starts");
    let addr = handle.addr();

    let computed = post(addr, "/v1/runs", "probe");
    assert!(computed.text().contains("\"queued\""), "{}", computed.text());
    // The worker asks for the cell keys before it blocks in `run_cell`.
    let deadline = Instant::now() + Duration::from_secs(5);
    while requests.load(Ordering::SeqCst) == 0 {
        assert!(Instant::now() < deadline, "the worker never asked for cell keys");
        std::thread::sleep(Duration::from_millis(5));
    }
    let after_run = requests.load(Ordering::SeqCst);

    let coalesced = post(addr, "/v1/runs", "probe");
    assert!(coalesced.text().contains("\"accepted\""), "{}", coalesced.text());
    let after_coalesced = requests.load(Ordering::SeqCst);

    gate.open();
    wait_for_done(addr, json_u64(&computed.text(), "id"));
    let cached = post(addr, "/v1/runs", "probe");
    assert!(cached.text().contains("\"cached\":true"), "{}", cached.text());
    let after_hit = requests.load(Ordering::SeqCst);

    ProbeRun {
        handle,
        token,
        ids: [&computed, &coalesced, &cached].map(|r| json_u64(&r.text(), "id")),
        cell_requests: [after_run, after_coalesced, after_hit],
    }
}

#[test]
fn finished_cached_and_coalesced_jobs_keep_no_payload() {
    let probe = computed_coalesced_and_hit();
    assert_eq!(
        Arc::strong_count(&probe.token),
        1,
        "a finished job record still holds its payload"
    );
    let addr = probe.handle.addr();
    for id in probe.ids {
        let status = get(addr, &format!("/v1/runs/{id}")).text();
        assert!(status.contains("\"done\""), "job {id}: {status}");
        let stream = get(addr, &format!("/v1/runs/{id}/stream"));
        assert_eq!(stream.body, probe_output("probe"), "job {id}");
    }
    probe.handle.shutdown_and_wait();
}

#[test]
fn only_a_run_expands_cells_never_a_hit_or_a_coalesced_duplicate() {
    let probe = computed_coalesced_and_hit();
    assert_eq!(probe.cell_requests, [1, 1, 1]);
    probe.handle.shutdown_and_wait();
}
