//! `serve-mix`: the scenario service in-process, driven by two
//! closed-loop clients. One op is `POST /v1/runs` then
//! `GET /v1/runs/{id}/stream`, each on a fresh connection, with a mix of
//! whole-run cache hits, sweep-cell hits and fresh specs that compute.

use crate::gen::{self, ServeOp};
use crate::stats::{self, ServerStats};
use crate::trace::{now, secs, Span};
use crate::{Config, Measured};
use noisy_bench::runner::expand_grid;
use noisy_bench::service::SpecService;
use noisy_bench::{Runner, ScenarioSpec};
use noisy_serve::http;
use noisy_serve::{JobHandler, Server, ServerConfig, ServerHandle};
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Closed-loop clients (each holds at most one connection at a time).
const CLIENTS: usize = 2;
/// Ops generated per run; a run ends early if it gets through them all.
const MAX_OPS: usize = 200_000;
/// `503` answers a submission may get before it counts as failed.
const RETRIES: u32 = 50;

/// The generated inputs of one run.
struct Inputs {
    seed: u64,
    hits: Vec<String>,
    cells: Vec<String>,
    ops: Vec<ServeOp>,
}

impl Inputs {
    fn body(&self, op: ServeOp) -> String {
        match op {
            ServeOp::Hit(h) => self.hits[h as usize].clone(),
            ServeOp::Cell(c) => self.cells[c as usize].clone(),
            ServeOp::Miss(m) => gen::miss_text(self.seed, m),
        }
    }
}

/// Client-side timing of one traced op, in seconds.
#[derive(Debug, Clone, Copy, Default)]
struct Split {
    parse: f64,
    digest: f64,
    plan: f64,
    submit: f64,
    ttfb: f64,
    stream: f64,
    accept: f64,
}

/// One completed op.
struct Record {
    index: usize,
    op: ServeOp,
    latency: f64,
    /// Digest of the served stream, or why the op failed.
    served: Result<u64, String>,
    split: Option<(Split, Instant, Instant)>,
}

fn hit_texts(workload_seed: u64) -> Vec<String> {
    (0..gen::HIT_SPECS)
        .map(|h| gen::hit_text(workload_seed, h))
        .collect()
}

/// One set-up: parse, validate and expand every hit-set body, start the
/// server and fill its cache with the hit set. Returns the running server
/// and the seconds it took.
fn setup(cfg: &Config, hits: &[String]) -> Result<(ServerHandle<SpecService>, f64), String> {
    let t0 = now();
    for text in hits {
        let spec = ScenarioSpec::from_text(text).map_err(|e| e.to_string())?;
        spec.validate().map_err(|e| e.to_string())?;
        std::hint::black_box(expand_grid(&spec));
    }
    let config = ServerConfig {
        workers: cfg.threads,
        ..ServerConfig::default()
    };
    let server = Server::start(config, SpecService).map_err(|e| e.to_string())?;
    let filled = fill(server.addr(), hits);
    let took = secs(t0, now());
    if let Err(e) = filled {
        server.shutdown_and_wait();
        return Err(e);
    }
    Ok((server, took))
}

pub fn setup_only(cfg: &Config) -> Result<f64, String> {
    let (server, took) = setup(cfg, &hit_texts(cfg.seed))?;
    server.shutdown_and_wait();
    Ok(took)
}

pub fn run(cfg: &Config, m: &mut Measured) -> Result<(), String> {
    let cells = gen::cell_pool(cfg.seed);
    let inputs = Inputs {
        seed: cfg.seed,
        hits: hit_texts(cfg.seed),
        ops: gen::serve_ops(cfg.seed, MAX_OPS, cells.len()),
        cells,
    };
    let (server, took) = setup(cfg, &inputs.hits)?;
    m.setup_s.push(took);
    let addr = server.addr();

    let before = server_stats(addr);
    let next = AtomicUsize::new(0);
    let records: Mutex<Vec<Record>> = Mutex::new(Vec::new());
    let start = now();
    std::thread::scope(|scope| {
        for _ in 0..CLIENTS {
            scope.spawn(|| loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                if index >= inputs.ops.len() || secs(start, now()) >= cfg.seconds && index > 0 {
                    break;
                }
                let op = inputs.ops[index];
                let body = inputs.body(op);
                let traced = cfg.trace && index % 2 == 1;
                let record = client_op(addr, index, op, &body, traced);
                records.lock().expect("a client panicked").push(record);
            });
        }
    });
    m.wall_s = secs(start, now());
    let after = server_stats(addr);
    server.shutdown_and_wait();
    let mut records = records.into_inner().expect("all clients joined");
    records.sort_by_key(|r| r.index);

    let want = references(&inputs, &records, cfg)?;
    for r in &records {
        m.latencies_ms.push(r.latency * 1e3);
        let why = match &r.served {
            Err(e) => Some(format!("op {} ({:?}): {e}", r.index, r.op)),
            Ok(digest) if want.get(&r.op).map(|w| w.digest) != Some(*digest) => Some(format!(
                "op {} ({:?}): served stream differs from Runner::run_streamed",
                r.index, r.op
            )),
            Ok(_) => None,
        };
        m.tally(why);
    }
    if cfg.trace {
        traced_layers(cfg, m, &records, &want, before?, after?);
    }
    Ok(())
}

/// Posts every hit-set body once, from [`CLIENTS`] threads, so the
/// cache holds the hit set and all its sweep cells.
fn fill(addr: SocketAddr, hits: &[String]) -> Result<(), String> {
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|_| {
                scope.spawn(|| -> Result<(), String> {
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(body) = hits.get(i) else {
                            return Ok(());
                        };
                        post_and_stream(addr, body, None)?;
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .try_for_each(|w| w.join().map_err(|_| "a fill client panicked".to_string())?)
    })
}

fn server_stats(addr: SocketAddr) -> Result<ServerStats, String> {
    let resp = http::request(addr, "GET", "/v1/stats", b"").map_err(|e| e.to_string())?;
    ServerStats::parse(&resp.text())
}

/// Runs one op; a traced op also times the client-side spec calls, the
/// request phases and a health check on a fresh connection.
fn client_op(addr: SocketAddr, index: usize, op: ServeOp, body: &str, traced: bool) -> Record {
    let mut split = Split::default();
    if traced {
        let t0 = now();
        let spec = ScenarioSpec::from_text(body);
        let t1 = now();
        if let Ok(spec) = &spec {
            std::hint::black_box(spec.canonical_digest());
        }
        let t2 = now();
        std::hint::black_box(SpecService.plan(body).is_ok());
        let t3 = now();
        split.parse = secs(t0, t1);
        split.digest = secs(t1, t2);
        split.plan = secs(t2, t3);
    }
    let start = now();
    let served = post_and_stream(addr, body, traced.then_some(&mut split));
    let end = now();
    if traced {
        let t0 = now();
        let ok = http::request(addr, "GET", "/v1/healthz", b"").map(|r| r.status == 200);
        split.accept = secs(t0, now());
        if !matches!(ok, Ok(true)) {
            return Record {
                index,
                op,
                latency: secs(start, end),
                served: Err("health check failed".into()),
                split: None,
            };
        }
    }
    Record {
        index,
        op,
        latency: secs(start, end),
        served: served.map(|bytes| stats::fnv1a(&bytes)),
        split: traced.then_some((split, start, end)),
    }
}

/// `POST /v1/runs` (retrying `503`s), then `GET` the job's stream; each
/// on a fresh connection. With `split`, the phases are timed.
fn post_and_stream(
    addr: SocketAddr,
    body: &str,
    split: Option<&mut Split>,
) -> Result<Vec<u8>, String> {
    let t0 = now();
    let mut attempts = 0;
    let accepted = loop {
        let resp = http::request(addr, "POST", "/v1/runs", body.as_bytes())
            .map_err(|e| format!("POST: {e}"))?;
        if resp.status == 503 && attempts < RETRIES {
            attempts += 1;
            std::thread::sleep(Duration::from_millis(5));
            continue;
        }
        break resp;
    };
    if accepted.status != 202 {
        return Err(format!(
            "POST answered {}: {}",
            accepted.status,
            accepted.text()
        ));
    }
    let text = accepted.text();
    let id: u64 = text
        .split("\"id\":")
        .nth(1)
        .map(|rest| {
            rest.chars()
                .take_while(char::is_ascii_digit)
                .collect::<String>()
        })
        .and_then(|digits| digits.parse().ok())
        .ok_or_else(|| format!("POST answer has no job id: {text}"))?;
    let path = format!("/v1/runs/{id}/stream");
    let t1 = now();
    let (resp, first, last) = match split.is_some() {
        true => timed_get(addr, &path).map_err(|e| format!("GET: {e}"))?,
        false => {
            let resp = http::request(addr, "GET", &path, b"").map_err(|e| format!("GET: {e}"))?;
            (resp, t1, t1)
        }
    };
    if let Some(split) = split {
        split.submit = secs(t0, t1);
        split.ttfb = secs(t1, first);
        split.stream = secs(first, last);
    }
    if resp.status != 200 {
        return Err(format!("GET answered {}", resp.status));
    }
    Ok(resp.body)
}

/// A reader that keeps every byte and when each read returned.
struct MarkedRead {
    inner: TcpStream,
    raw: Vec<u8>,
    marks: Vec<(usize, Instant)>,
}

impl Read for MarkedRead {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.raw.extend_from_slice(&buf[..n]);
        self.marks.push((self.raw.len(), now()));
        Ok(n)
    }
}

/// `http::request`'s GET with the arrival times of the first and last
/// body bytes.
fn timed_get(addr: SocketAddr, path: &str) -> std::io::Result<(http::Response, Instant, Instant)> {
    let mut stream = TcpStream::connect(addr)?;
    let head = format!(
        "GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\nContent-Length: 0\r\n\r\n"
    );
    stream.write_all(head.as_bytes())?;
    stream.flush()?;
    let mut reader = MarkedRead {
        inner: stream,
        raw: Vec::new(),
        marks: Vec::new(),
    };
    let resp = http::read_response(&mut reader)?;
    // The first body byte follows the head and the first chunk-size line.
    let raw = &reader.raw;
    let body_at = find(raw, b"\r\n\r\n").map_or(0, |i| i + 4);
    let data_at = find(&raw[body_at..], b"\r\n").map_or(body_at, |i| body_at + i + 2);
    let last = reader.marks.last().map(|m| m.1).unwrap_or_else(now);
    let first = reader
        .marks
        .iter()
        .find(|(len, _)| *len > data_at)
        .map_or(last, |m| m.1);
    Ok((resp, first, last))
}

fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

/// The reference output of one body.
struct Reference {
    digest: u64,
    /// `SpecService::run` time, for misses.
    service_run: Option<f64>,
}

/// `Runner::run_streamed` of every distinct body the run served, outside
/// the timed window, across the program's threads. In traced mode misses
/// also go through `SpecService::run`, timed, which must give the same
/// bytes.
fn references(
    inputs: &Inputs,
    records: &[Record],
    cfg: &Config,
) -> Result<BTreeMap<ServeOp, Reference>, String> {
    let mut distinct: Vec<ServeOp> = records.iter().map(|r| r.op).collect();
    distinct.sort();
    distinct.dedup();
    let next = AtomicUsize::new(0);
    let done: Mutex<BTreeMap<ServeOp, Result<Reference, String>>> = Mutex::new(BTreeMap::new());
    std::thread::scope(|scope| {
        for _ in 0..cfg.threads {
            scope.spawn(|| {
                while let Some(&op) = distinct.get(next.fetch_add(1, Ordering::Relaxed)) {
                    let time_service = cfg.trace && matches!(op, ServeOp::Miss(_));
                    let reference = reference(&inputs.body(op), time_service);
                    done.lock()
                        .expect("a reference thread panicked")
                        .insert(op, reference);
                }
            });
        }
    });
    done.into_inner()
        .expect("all reference threads joined")
        .into_iter()
        .map(|(op, r)| r.map(|r| (op, r)))
        .collect()
}

fn reference(body: &str, time_service: bool) -> Result<Reference, String> {
    let spec = ScenarioSpec::from_text(body).map_err(|e| e.to_string())?;
    let mut out = Vec::new();
    Runner::new(spec)
        .and_then(|r| r.run_streamed(&mut out))
        .map_err(|e| e.to_string())?;
    let digest = stats::fnv1a(&out);
    let service_run = if time_service {
        let plan = SpecService.plan(body)?;
        let mut served = Vec::new();
        let t0 = now();
        SpecService.run(&plan.job, &mut served)?;
        let run = secs(t0, now());
        if stats::fnv1a(&served) != digest {
            return Err("SpecService::run differs from Runner::run_streamed".into());
        }
        Some(run)
    } else {
        None
    };
    Ok(Reference {
        digest,
        service_run,
    })
}

fn traced_layers(
    cfg: &Config,
    m: &mut Measured,
    records: &[Record],
    want: &BTreeMap<ServeOp, Reference>,
    before: ServerStats,
    after: ServerStats,
) {
    let traced: Vec<(&Record, &Split)> = records
        .iter()
        .filter_map(|r| r.split.as_ref().map(|(s, _, _)| (r, s)))
        .collect();
    let n = traced.len().max(1) as f64;
    let mean = |f: fn(&Split) -> f64| traced.iter().map(|(_, s)| f(s)).sum::<f64>() / n;
    let runs: Vec<f64> = want.values().filter_map(|r| r.service_run).collect();
    let untraced: Vec<f64> = records
        .iter()
        .filter(|r| r.split.is_none())
        .map(|r| r.latency)
        .collect();
    let traced_latency: f64 = traced.iter().map(|(r, _)| r.latency).sum::<f64>() / n;
    let covered: f64 = traced
        .iter()
        .map(|(_, s)| s.submit + s.ttfb + s.stream)
        .sum();
    let delta = after.since(&before);
    let l = &mut m.layers;
    l.insert("spec.parse_us", mean(|s| s.parse) * 1e6);
    l.insert("spec.digest_us", mean(|s| s.digest) * 1e6);
    l.insert("service.plan_us", mean(|s| s.plan) * 1e6);
    l.insert(
        "service.run_ms",
        runs.iter().sum::<f64>() / runs.len().max(1) as f64 * 1e3,
    );
    l.insert("serve.accept_ms", mean(|s| s.accept) * 1e3);
    l.insert("serve.submit_ms", mean(|s| s.submit) * 1e3);
    l.insert("serve.ttfb_ms", mean(|s| s.ttfb) * 1e3);
    l.insert("serve.stream_ms", mean(|s| s.stream) * 1e3);
    l.insert(
        "serve.cache_hit_ratio",
        stats::ratio(delta.hits, delta.misses),
    );
    l.insert(
        "serve.cell_hit_ratio",
        stats::ratio(delta.cell_hits, delta.cell_misses),
    );
    l.insert("serve.coalesced", delta.coalesced as f64);
    l.insert("serve.rejected", delta.rejected as f64);
    l.insert("serve.evictions", delta.evictions as f64);
    l.insert("serve.jobs_failed", delta.failed as f64);
    let untraced_mean = untraced.iter().sum::<f64>() / untraced.len().max(1) as f64;
    l.insert("trace.coverage", covered / (traced_latency * n));
    l.insert("trace.overhead", untraced_mean / traced_latency - 1.0);

    let mut spans = Vec::new();
    for (r, (s, start, end)) in records
        .iter()
        .filter_map(|r| r.split.as_ref().map(|x| (r, x)))
    {
        let op = r.index as u64;
        let at = |offset: f64| *start + Duration::from_secs_f64(offset);
        spans.push(Span {
            op,
            name: "op",
            parent: "",
            start: *start,
            end: *end,
        });
        spans.push(Span {
            op,
            name: "serve.submit",
            parent: "op",
            start: *start,
            end: at(s.submit),
        });
        spans.push(Span {
            op,
            name: "serve.ttfb",
            parent: "op",
            start: at(s.submit),
            end: at(s.submit + s.ttfb),
        });
        spans.push(Span {
            op,
            name: "serve.stream",
            parent: "op",
            start: at(s.submit + s.ttfb),
            end: at(s.submit + s.ttfb + s.stream),
        });
    }
    crate::write_trace(cfg, &spans);
}
