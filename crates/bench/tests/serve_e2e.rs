//! End-to-end tests of the scenario service with the real workload:
//! an in-process [`Server`] running [`SpecService`], exercised over real
//! sockets with registry specs.
//!
//! The load-bearing assertion is byte-identity: the JSONL a client
//! streams from `/v1/runs/{id}/stream` must equal what `xp run <name>
//! --stream` writes to stdout, for the same spec and seed. The CLI path
//! is [`Runner::run_streamed`]; both are compared against it here.

use noisy_bench::registry;
use noisy_bench::runner::Runner;
use noisy_bench::service::SpecService;
use noisy_bench::spec::ScenarioSpec;
use noisy_bench::Scale;
use noisy_serve::http::{self, Response};
use noisy_serve::{Server, ServerConfig, ServerHandle};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

fn start_server() -> ServerHandle<SpecService> {
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        ..ServerConfig::default()
    };
    Server::start(config, SpecService).expect("server starts")
}

fn cli_stream_bytes(spec: &ScenarioSpec) -> Vec<u8> {
    let mut out = Vec::new();
    Runner::new(spec.clone())
        .and_then(|r| r.run_streamed(&mut out))
        .expect("reference run succeeds");
    out
}

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

fn submit(addr: SocketAddr, spec_text: &str) -> Response {
    let response =
        http::request(addr, "POST", "/v1/runs", spec_text.as_bytes()).expect("submit completes");
    assert_eq!(response.status, 202, "{}", response.text());
    response
}

fn wait_for_done(addr: SocketAddr, id: u64) {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let status = http::request(addr, "GET", &format!("/v1/runs/{id}"), b"")
            .expect("status completes");
        let text = status.text();
        assert!(!text.contains("\"failed\""), "job {id} failed: {text}");
        if text.contains("\"done\"") {
            return;
        }
        assert!(Instant::now() < deadline, "job {id} never finished: {text}");
        std::thread::sleep(Duration::from_millis(50));
    }
}

fn stream_bytes(addr: SocketAddr, id: u64) -> Vec<u8> {
    let response = http::request(addr, "GET", &format!("/v1/runs/{id}/stream"), b"")
        .expect("stream completes");
    assert_eq!(response.status, 200);
    response.body
}

fn stats(addr: SocketAddr) -> String {
    http::request(addr, "GET", "/v1/stats", b"")
        .expect("stats completes")
        .text()
}

/// The f2 experiment (quick scale) round-trips through the service
/// byte-for-byte, and resubmitting it is served from the cache without
/// recomputation.
#[test]
fn f2_stream_is_byte_identical_to_cli_and_cached_on_resubmit() {
    let spec = registry::find("f2")
        .expect("f2 registered")
        .spec(Scale::Quick)
        .expect("f2 is spec-backed");
    let expected = cli_stream_bytes(&spec);
    let handle = start_server();
    let addr = handle.addr();

    let first = submit(addr, &spec.to_text());
    let id = json_u64(&first.text(), "id");
    wait_for_done(addr, id);
    assert_eq!(
        stream_bytes(addr, id),
        expected,
        "served stream must match `xp run f2 --stream` byte-for-byte"
    );

    let second = submit(addr, &spec.to_text());
    assert!(second.text().contains("\"cached\":true"), "{}", second.text());
    assert_eq!(stream_bytes(addr, json_u64(&second.text(), "id")), expected);
    let stats = stats(addr);
    assert!(json_u64(&stats, "hits") >= 1, "{stats}");
    assert_eq!(json_u64(&stats, "completed"), 1, "no recompute: {stats}");
    handle.shutdown_and_wait();
}

/// A sweep and a later single-point spec that lands on one of the
/// sweep's grid cells share cached cells: the single-point run is
/// assembled from stored rows (a cell hit), and its bytes still match
/// its own CLI stream exactly.
#[test]
fn sweep_cells_are_reused_across_submissions() {
    let sweep = ScenarioSpec::from_text(
        "scenario = rumor\nsource = 0\nn = 300\nk = 2\nepsilon = 0.3\n\
         noise = uniform(0.3)\ntrials = 2\nseed = 11\nsweep.eps = 0.25, 0.3, 0.35\n",
    )
    .expect("valid sweep spec");
    let mut single = sweep.clone();
    single.sweep = Default::default();
    single.epsilon = 0.35;
    single.noise = single.noise.with_epsilon(0.35);

    let handle = start_server();
    let addr = handle.addr();

    let first = submit(addr, &sweep.to_text());
    wait_for_done(addr, json_u64(&first.text(), "id"));
    let after_sweep = stats(addr);
    assert_eq!(json_u64(&after_sweep, "cell_hits"), 0, "{after_sweep}");
    let warmed_misses = json_u64(&after_sweep, "cell_misses");
    assert_eq!(warmed_misses, 3, "one miss per grid point: {after_sweep}");

    let second = submit(addr, &single.to_text());
    let single_id = json_u64(&second.text(), "id");
    wait_for_done(addr, single_id);
    assert_eq!(stream_bytes(addr, single_id), cli_stream_bytes(&single));
    let after_single = stats(addr);
    assert_eq!(
        json_u64(&after_single, "cell_hits"),
        1,
        "the single-point run must reuse the sweep's cell: {after_single}"
    );
    assert_eq!(json_u64(&after_single, "cell_misses"), warmed_misses, "{after_single}");
    handle.shutdown_and_wait();
}

/// A spec that fails backend admission, or a `gap` spec with fewer than
/// two opinions (no network, so no admission, checks its k), is refused
/// at POST time with a 400, before it can reach (and kill) the only
/// worker: the next job still runs to completion.
#[test]
fn specs_failing_admission_are_refused_and_the_worker_stays_free() {
    let refused = "scenario = rumor\nn = 256\nk = 2\nepsilon = 0.3\n\
                   delivery = poisson\ntopology = ring\nbackend = agent\n";
    let gap_k1 = "scenario = gap\nell = 25\ndelta = 0.1\nn = 1\nk = 1\ntrials = 100\nseed = 1\n";
    let handle = Server::start(
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            ..ServerConfig::default()
        },
        SpecService,
    )
    .expect("server starts");
    let addr = handle.addr();
    for (body, reason) in [(refused, "agent backend"), (gap_k1, "two opinions")] {
        let response =
            http::request(addr, "POST", "/v1/runs", body.as_bytes()).expect("submit completes");
        assert_eq!(response.status, 400, "{}", response.text());
        assert!(response.text().contains(reason), "{}", response.text());
    }

    let next = submit(
        addr,
        &refused.replace("backend = agent", "backend = blockcounting"),
    );
    wait_for_done(addr, json_u64(&next.text(), "id"));
    handle.shutdown_and_wait();
}

/// Two 3 000-entry sweeps name 9·10⁶ grid points, which would take 2.4 GB
/// to expand. The spec is refused at POST time with a 400 that gives the
/// reason, before anything expands its grid: the server lives on and the
/// next job completes.
#[test]
fn an_oversized_grid_is_refused_at_post_and_the_next_job_completes() {
    let eps: Vec<String> = (1..=3_000).map(|i| format!("{:.4}", f64::from(i) * 1e-4)).collect();
    let ns: Vec<String> = (1_000..4_000).map(|n: u32| n.to_string()).collect();
    let oversized = format!(
        "scenario = rumor\nn = 1000\nk = 2\nbackend = agent\nsweep.eps = {}\nsweep.n = {}\n",
        eps.join(","),
        ns.join(","),
    );
    let handle = Server::start(
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            ..ServerConfig::default()
        },
        SpecService,
    )
    .expect("server starts");
    let addr = handle.addr();
    let response =
        http::request(addr, "POST", "/v1/runs", oversized.as_bytes()).expect("submit completes");
    assert_eq!(response.status, 400, "{}", response.text());
    assert!(response.text().contains("more than 65536 grid points"), "{}", response.text());

    let next = submit(addr, "scenario = rumor\nn = 256\nk = 2\nepsilon = 0.3\nseed = 3\n");
    wait_for_done(addr, json_u64(&next.text(), "id"));
    handle.shutdown_and_wait();
}

/// Polls `path` until its body contains `needle` (two minutes at most).
fn wait_for(addr: SocketAddr, path: &str, needle: &str) -> String {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let text = http::request(addr, "GET", path, b"").expect("GET completes").text();
        if text.contains(needle) {
            return text;
        }
        assert!(Instant::now() < deadline, "{path} never showed {needle}: {text}");
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// An agent population too large to allocate passes validation, but its
/// run ends in a typed error: the job fails, and the only worker lives on
/// to run the next job.
#[test]
fn an_unallocatable_population_fails_its_job_and_the_worker_survives() {
    let oversized = "scenario = rumor\nn = 4611686018427387904\nk = 3\nbackend = agent\ntrials = 1\n";
    let handle = Server::start(
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            ..ServerConfig::default()
        },
        SpecService,
    )
    .expect("server starts");
    let addr = handle.addr();
    let failed = json_u64(&submit(addr, oversized).text(), "id");
    let status = wait_for(addr, &format!("/v1/runs/{failed}"), "\"failed\"");
    assert!(status.contains("too large"), "{status}");
    // Every parameter passed validation: the run failed, nothing was invalid.
    assert!(status.contains("the run failed"), "{status}");
    assert!(!status.contains("invalid protocol parameters"), "{status}");

    let next = submit(addr, "scenario = rumor\nn = 256\nk = 2\nepsilon = 0.3\nseed = 3\n");
    wait_for_done(addr, json_u64(&next.text(), "id"));
    wait_for(addr, "/v1/stats", "\"in_flight\":0,");
    handle.shutdown_and_wait();
}
