//! The scenario service: acceptor, worker pool, job table, routes.
//!
//! See the crate docs for the thread architecture. The HTTP surface:
//!
//! | Method/path              | Behaviour                                              |
//! |--------------------------|--------------------------------------------------------|
//! | `POST /v1/runs`          | Body = submission text. `202` + job id; `400` on a     |
//! |                          | plan error; `503` + `Retry-After` when the queue is    |
//! |                          | full or the server is shutting down.                   |
//! | `GET /v1/runs/{id}`      | Status JSON (`queued`/`running`/`done`/`failed`).      |
//! | `GET /v1/runs/{id}/stream` | Chunked JSONL of the job's output, following live    |
//! |                          | progress; truncated (no terminating chunk) on failure. |
//! | `GET /v1/healthz`        | Liveness probe.                                        |
//! | `GET /v1/stats`          | Queue depth, in-flight, cache hit/miss/eviction        |
//! |                          | counters.                                              |
//! | `POST /v1/shutdown`      | Graceful shutdown; `404` unless enabled in config.     |
//!
//! Identical concurrent submissions are **coalesced** onto one job,
//! and finished output is cached under the submission's content
//! digest, so a resubmission is answered `done` without recompute.

use crate::handler::{JobHandler, Plan};
use crate::http::{self, ChunkedWriter, Limits, Parsed, Request};
use crate::lru::LruCache;
use crate::queue::BoundedQueue;

use std::any::Any;
use std::collections::{BTreeMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

/// Server construction parameters; `Default` gives sensible
/// test-friendly values (ephemeral port, small pool).
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:0` for an ephemeral port.
    pub addr: String,
    /// Worker threads draining the job queue (min 1).
    pub workers: usize,
    /// Bounded queue capacity; beyond it submissions get `503`.
    pub queue_depth: usize,
    /// Byte budget of the content-addressed result cache.
    pub cache_bytes: usize,
    /// Whether `POST /v1/shutdown` is honoured (test/CI mode; in
    /// production shutdown comes from SIGTERM/ctrl-c).
    pub enable_shutdown_endpoint: bool,
    /// HTTP parser limits.
    pub limits: Limits,
    /// How many finished jobs stay queryable before the oldest are
    /// forgotten (bounds job-table memory).
    pub retain_jobs: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_depth: 64,
            cache_bytes: 64 * 1024 * 1024,
            enable_shutdown_endpoint: false,
            limits: Limits::default(),
            retain_jobs: 1024,
        }
    }
}

#[derive(Default)]
struct Stats {
    submitted: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    coalesced: AtomicU64,
    rejected: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    cell_hits: AtomicU64,
    cell_misses: AtomicU64,
    evictions: AtomicU64,
    in_flight: AtomicU64,
}

impl Stats {
    fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// A cached artifact: either a finished response body (whole-run
/// digest) or the data rows of one sweep cell (cell digest).
enum Cached {
    Body(Arc<Vec<u8>>),
    Rows(Arc<Vec<Vec<String>>>),
}

fn rows_cost(rows: &[Vec<String>]) -> usize {
    rows.iter()
        .map(|r| 16 + r.iter().map(|c| c.len() + 8).sum::<usize>())
        .sum()
}

enum JobState {
    Queued,
    Running(Vec<u8>),
    Done { out: Arc<Vec<u8>>, from_cache: bool },
    Failed { error: String },
}

/// A job's record in the table: what status and stream requests read.
/// It holds no payload, which travels to the worker in a [`QueueEntry`],
/// so a cached, coalesced or finished job costs only its state, whose
/// output is shared with the cache.
struct Job {
    id: u64,
    digest: u64,
    state: Mutex<JobState>,
    cond: Condvar,
}

/// The record a worker reports through and the payload it runs, which
/// is dropped when the run ends.
struct QueueEntry<J> {
    job: Arc<Job>,
    payload: J,
}

impl Job {
    fn new(id: u64, digest: u64, state: JobState) -> Self {
        Job { id, digest, state: Mutex::new(state), cond: Condvar::new() }
    }

    /// Locks the job state, recovering from poison: job state moves
    /// monotonically towards a terminal value and every transition
    /// writes a whole variant, so the state is valid after any panic
    /// elsewhere and refusing to serve it would only spread the
    /// failure.
    fn lock(&self) -> MutexGuard<'_, JobState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn set_running(&self) {
        let mut st = self.lock();
        *st = JobState::Running(Vec::new());
        self.cond.notify_all();
    }

    fn append(&self, bytes: &[u8]) {
        let mut st = self.lock();
        if let JobState::Running(out) = &mut *st {
            out.extend_from_slice(bytes);
        }
        self.cond.notify_all();
    }

    fn finish(&self) -> Arc<Vec<u8>> {
        let mut st = self.lock();
        let out = match std::mem::replace(&mut *st, JobState::Queued) {
            JobState::Running(out) => Arc::new(out),
            other => {
                // Finishing a job that never ran (should not happen);
                // preserve whatever terminal state existed.
                *st = other;
                Arc::new(Vec::new())
            }
        };
        *st = JobState::Done { out: Arc::clone(&out), from_cache: false };
        self.cond.notify_all();
        out
    }

    fn fail(&self, error: String) {
        let mut st = self.lock();
        *st = JobState::Failed { error };
        self.cond.notify_all();
    }

    /// Blocks until there is output past `offset`, the job reaches a
    /// terminal state, or `deadline` passes. Returns
    /// `(new bytes, terminal, error)`.
    fn await_output(
        &self,
        offset: usize,
        deadline: Instant,
    ) -> (Vec<u8>, bool, Option<String>) {
        let mut st = self.lock();
        loop {
            match &*st {
                JobState::Queued => {}
                JobState::Running(out) => {
                    if out.len() > offset {
                        return (out.get(offset..).unwrap_or_default().to_vec(), false, None);
                    }
                }
                JobState::Done { out, .. } => {
                    let chunk = out.get(offset..).unwrap_or_default().to_vec();
                    return (chunk, true, None);
                }
                JobState::Failed { error } => return (Vec::new(), true, Some(error.clone())),
            }
            // xlint: allow(determinism-source) — streaming deadlines are wall-clock by nature; no simulation state is derived from this read
            let now = Instant::now();
            if now >= deadline {
                return (Vec::new(), false, None);
            }
            let (guard, _timed_out) = self
                .cond
                .wait_timeout(st, deadline - now)
                .unwrap_or_else(PoisonError::into_inner);
            st = guard;
        }
    }

    fn status_json(&self) -> String {
        let st = self.lock();
        match &*st {
            JobState::Queued => format!(
                "{{\"id\":{},\"status\":\"queued\",\"stream\":\"/v1/runs/{}/stream\"}}",
                self.id, self.id
            ),
            JobState::Running(out) => format!(
                "{{\"id\":{},\"status\":\"running\",\"bytes\":{},\"stream\":\"/v1/runs/{}/stream\"}}",
                self.id,
                out.len(),
                self.id
            ),
            JobState::Done { out, from_cache } => format!(
                "{{\"id\":{},\"status\":\"done\",\"cached\":{},\"bytes\":{},\"stream\":\"/v1/runs/{}/stream\"}}",
                self.id,
                from_cache,
                out.len(),
                self.id
            ),
            JobState::Failed { error } => format!(
                "{{\"id\":{},\"status\":\"failed\",\"error\":\"{}\"}}",
                self.id,
                http::json_escape(error)
            ),
        }
    }
}

// Both job indexes are BTreeMaps: bounded by `retain_jobs`, keyed by
// plain u64s, and deterministically ordered so nothing observable
// (stats, retention sweeps, future debug dumps) depends on hash
// seeding.
#[derive(Default)]
struct JobTable {
    by_id: BTreeMap<u64, Arc<Job>>,
    /// digest -> id of a queued/running job, for coalescing identical
    /// concurrent submissions onto one execution.
    active_by_digest: BTreeMap<u64, u64>,
    /// Finished job ids, oldest first, for bounded retention.
    finished: VecDeque<u64>,
}

impl JobTable {
    /// Records job `id` as finished and forgets the oldest finished
    /// jobs beyond `retain`.
    fn push_finished(&mut self, id: u64, retain: usize) {
        self.finished.push_back(id);
        while self.finished.len() > retain.max(1) {
            if let Some(old) = self.finished.pop_front() {
                self.by_id.remove(&old);
            }
        }
    }
}

struct ConnTracker {
    n: Mutex<usize>,
    cv: Condvar,
}

struct ConnGuard(Arc<ConnTracker>);

impl ConnTracker {
    // Poison recovery below: the tracked value is a plain counter,
    // valid after any panic elsewhere.
    fn enter(self: &Arc<Self>) -> ConnGuard {
        *self.n.lock().unwrap_or_else(PoisonError::into_inner) += 1;
        ConnGuard(Arc::clone(self))
    }
}

impl Drop for ConnGuard {
    fn drop(&mut self) {
        let mut n = self.0.n.lock().unwrap_or_else(PoisonError::into_inner);
        *n = n.saturating_sub(1);
        self.0.cv.notify_all();
    }
}

struct Inner<H: JobHandler> {
    handler: H,
    config: ServerConfig,
    queue: BoundedQueue<QueueEntry<H::Job>>,
    jobs: Mutex<JobTable>,
    cache: Mutex<LruCache<Cached>>,
    stats: Stats,
    shutdown: AtomicBool,
    next_id: AtomicU64,
    conns: Arc<ConnTracker>,
    /// Where [`Inner::begin_shutdown`] connects to wake the acceptor.
    wake_addr: SocketAddr,
}

/// The address a local client reaches a listener bound to `bound` at:
/// the loopback address of the same family when `bound` is unspecified
/// (`0.0.0.0` or `::`), `bound` itself otherwise.
fn wake_addr(bound: SocketAddr) -> SocketAddr {
    let ip = match bound.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    SocketAddr::new(ip, bound.port())
}

// Lock ordering: `jobs` before `cache`; never hold either across a
// handler call or a queue `pop`.
impl<H: JobHandler> Inner<H> {
    /// The one shutdown path (`shutdown_and_wait`, `POST /v1/shutdown`,
    /// and SIGTERM through `xp serve`): refuse new work, close the
    /// queue so workers drain and exit, and wake the acceptor, which
    /// blocks in `accept`, with one connection of its own.
    fn begin_shutdown(&self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        self.queue.close();
        // A failed connect means the listener is gone: nothing to wake.
        let _ = TcpStream::connect_timeout(&self.wake_addr, Duration::from_secs(1));
    }

    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Locks the job table, recovering from poison (the table's
    /// operations never leave it half-updated across a panic point).
    fn lock_jobs(&self) -> MutexGuard<'_, JobTable> {
        self.jobs.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Locks the cache, recovering from poison (same reasoning).
    fn lock_cache(&self) -> MutexGuard<'_, LruCache<Cached>> {
        self.cache.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn retire(&self, job: &Job) {
        let mut jobs = self.lock_jobs();
        if jobs.active_by_digest.get(&job.digest) == Some(&job.id) {
            jobs.active_by_digest.remove(&job.digest);
        }
        jobs.push_finished(job.id, self.config.retain_jobs);
    }

    fn stats_json(&self) -> String {
        let s = &self.stats;
        let (bytes, entries, budget) = {
            let cache = self.lock_cache();
            (cache.bytes(), cache.entries(), cache.budget())
        };
        format!(
            "{{\"queue_depth\":{},\"queue_capacity\":{},\"in_flight\":{},\"workers\":{},\"shutting_down\":{},\
\"jobs\":{{\"submitted\":{},\"completed\":{},\"failed\":{},\"coalesced\":{},\"rejected\":{}}},\
\"cache\":{{\"hits\":{},\"misses\":{},\"cell_hits\":{},\"cell_misses\":{},\"evictions\":{},\"bytes\":{},\"entries\":{},\"budget\":{}}}}}",
            self.queue.len(),
            self.queue.capacity(),
            s.in_flight.load(Ordering::Relaxed),
            self.config.workers.max(1),
            self.shutting_down(),
            s.submitted.load(Ordering::Relaxed),
            s.completed.load(Ordering::Relaxed),
            s.failed.load(Ordering::Relaxed),
            s.coalesced.load(Ordering::Relaxed),
            s.rejected.load(Ordering::Relaxed),
            s.cache_hits.load(Ordering::Relaxed),
            s.cache_misses.load(Ordering::Relaxed),
            s.cell_hits.load(Ordering::Relaxed),
            s.cell_misses.load(Ordering::Relaxed),
            s.evictions.load(Ordering::Relaxed),
            bytes,
            entries,
            budget,
        )
    }
}

/// Entry point for starting a service instance.
pub struct Server;

impl Server {
    /// Binds the listener, spawns the acceptor and worker threads,
    /// and returns a handle for shutdown coordination.
    pub fn start<H: JobHandler>(
        config: ServerConfig,
        handler: H,
    ) -> io::Result<ServerHandle<H>> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let workers = config.workers.max(1);
        let inner = Arc::new(Inner {
            queue: BoundedQueue::new(config.queue_depth),
            jobs: Mutex::new(JobTable::default()),
            cache: Mutex::new(LruCache::new(config.cache_bytes)),
            stats: Stats::default(),
            shutdown: AtomicBool::new(false),
            next_id: AtomicU64::new(1),
            conns: Arc::new(ConnTracker { n: Mutex::new(0), cv: Condvar::new() }),
            wake_addr: wake_addr(addr),
            handler,
            config,
        });

        let mut threads = Vec::with_capacity(workers + 1);
        for w in 0..workers {
            let inner = Arc::clone(&inner);
            threads.push(
                thread::Builder::new()
                    .name(format!("serve-worker-{w}"))
                    .spawn(move || worker_loop(inner))?,
            );
        }
        {
            let inner = Arc::clone(&inner);
            threads.push(
                thread::Builder::new()
                    .name("serve-acceptor".to_string())
                    .spawn(move || acceptor_loop(listener, inner))?,
            );
        }
        Ok(ServerHandle { addr, inner, threads })
    }
}

/// Owns the service threads; dropping it does **not** stop the
/// server — call [`shutdown_and_wait`](ServerHandle::shutdown_and_wait).
pub struct ServerHandle<H: JobHandler> {
    addr: SocketAddr,
    inner: Arc<Inner<H>>,
    threads: Vec<thread::JoinHandle<()>>,
}

impl<H: JobHandler> ServerHandle<H> {
    /// The bound address (with the real port when `:0` was requested).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Whether graceful shutdown has been triggered (by this handle
    /// or by `POST /v1/shutdown`).
    pub fn shutdown_begun(&self) -> bool {
        self.inner.shutting_down()
    }

    /// Triggers graceful shutdown: stop accepting, drain the queue.
    pub fn begin_shutdown(&self) {
        self.inner.begin_shutdown();
    }

    /// Triggers shutdown and blocks until workers have drained every
    /// accepted job and all service threads have exited (open
    /// connections get a short grace period to finish streaming).
    pub fn shutdown_and_wait(mut self) {
        self.inner.begin_shutdown();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        // xlint: allow(determinism-source) — shutdown grace period is a real-time bound on operator-facing drain, not simulation state
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut n = self.inner.conns.n.lock().unwrap_or_else(PoisonError::into_inner);
        while *n > 0 {
            // xlint: allow(determinism-source) — ditto: measuring the remaining drain budget in wall-clock time
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            let (guard, _) = self
                .inner
                .conns
                .cv
                .wait_timeout(n, deadline - now)
                .unwrap_or_else(PoisonError::into_inner);
            n = guard;
        }
    }
}

fn worker_loop<H: JobHandler>(inner: Arc<Inner<H>>) {
    while let Some(QueueEntry { job, payload }) = inner.queue.pop() {
        Stats::bump(&inner.stats.in_flight);
        run_job(&inner, &job, payload);
        inner.stats.in_flight.fetch_sub(1, Ordering::Relaxed);
    }
}

struct JobWriter<'a> {
    job: &'a Job,
}

impl Write for JobWriter<'_> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.job.append(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Runs one job on the calling worker. A panic in the handler, or one
/// `par_map` re-raises from its scoped threads, fails the job with the
/// panic message and leaves the worker running: the server's own locks
/// recover from poison, and the payload the panic may have left half
/// updated is dropped here.
fn run_job<H: JobHandler>(inner: &Inner<H>, job: &Job, mut payload: H::Job) {
    job.set_running();
    let result = panic::catch_unwind(AssertUnwindSafe(|| {
        match inner.handler.cells(&mut payload) {
            Some(cells) => run_cells(inner, job, &payload, &cells),
            None => inner.handler.run(&payload, &mut JobWriter { job }),
        }
    }))
    .unwrap_or_else(|panic| Err(format!("the job panicked: {}", panic_message(&*panic))));
    // Dropped before the job turns terminal, so whoever sees it finished
    // sees its payload gone too.
    drop(payload);
    match result {
        Ok(()) => {
            let out = job.finish();
            let cost = out.len();
            let evicted = inner
                .lock_cache()
                .insert(job.digest, Cached::Body(Arc::clone(&out)), cost);
            inner.stats.evictions.fetch_add(evicted as u64, Ordering::Relaxed);
            Stats::bump(&inner.stats.completed);
        }
        Err(error) => {
            job.fail(error);
            Stats::bump(&inner.stats.failed);
        }
    }
    inner.retire(job);
}

/// The message a panic was raised with (`panic!` with a literal or with
/// format arguments), or a stand-in for any other payload.
fn panic_message(panic: &(dyn Any + Send)) -> &str {
    panic
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| panic.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("a panic without a message")
}

fn run_cells<H: JobHandler>(
    inner: &Inner<H>,
    job: &Job,
    payload: &H::Job,
    cells: &[u64],
) -> Result<(), String> {
    for (index, &key) in cells.iter().enumerate() {
        let cached = {
            let mut cache = inner.lock_cache();
            match cache.get(key) {
                Some(Cached::Rows(rows)) => Some(Arc::clone(rows)),
                // A Body under a cell key would be a digest collision
                // (cell keys are salted); treat it as a miss.
                _ => None,
            }
        };
        let rows = match cached {
            Some(rows) => {
                Stats::bump(&inner.stats.cell_hits);
                rows
            }
            None => {
                Stats::bump(&inner.stats.cell_misses);
                let rows = Arc::new(inner.handler.run_cell(payload, index)?);
                let cost = rows_cost(&rows);
                let evicted = inner
                    .lock_cache()
                    .insert(key, Cached::Rows(Arc::clone(&rows)), cost);
                inner.stats.evictions.fetch_add(evicted as u64, Ordering::Relaxed);
                rows
            }
        };
        let text = inner.handler.render_cell(payload, index, &rows);
        job.append(text.as_bytes());
    }
    Ok(())
}

/// Blocks in `accept` and spawns one thread per connection. Shutdown
/// wakes it with a connection of its own, which is dropped here
/// unanswered, and the listener closes with the loop.
fn acceptor_loop<H: JobHandler>(listener: TcpListener, inner: Arc<Inner<H>>) {
    loop {
        let accepted = listener.accept();
        if inner.shutting_down() {
            return;
        }
        match accepted {
            Ok((stream, _peer)) => {
                let inner = Arc::clone(&inner);
                let guard = inner.conns.enter();
                let spawned = thread::Builder::new()
                    .name("serve-conn".to_string())
                    .spawn(move || {
                        let _guard = guard;
                        handle_connection(inner, stream);
                    });
                if spawned.is_err() {
                    // Thread exhaustion: drop the connection; the
                    // guard (moved into the failed closure) is gone
                    // with it.
                }
            }
            // A real accept error, such as running out of file
            // descriptors: back off instead of spinning on it.
            Err(_) => thread::sleep(Duration::from_millis(10)),
        }
    }
}

fn handle_connection<H: JobHandler>(inner: Arc<Inner<H>>, mut stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
    let _ = stream.set_nodelay(true);
    let mut buf: Vec<u8> = Vec::new();
    let mut idle_polls = 0u32;
    loop {
        match http::parse_request(&buf, &inner.config.limits) {
            Ok(Parsed::Complete { request, consumed }) => {
                buf.drain(..consumed);
                idle_polls = 0;
                match route(&inner, &request, &mut stream) {
                    Ok(true) => continue,
                    _ => return,
                }
            }
            Ok(Parsed::Incomplete) => {
                let mut chunk = [0u8; 8192];
                match stream.read(&mut chunk) {
                    Ok(0) => return,
                    Ok(n) => {
                        buf.extend_from_slice(chunk.get(..n).unwrap_or_default());
                        idle_polls = 0;
                    }
                    Err(e)
                        if e.kind() == io::ErrorKind::WouldBlock
                            || e.kind() == io::ErrorKind::TimedOut =>
                    {
                        if inner.shutting_down() && buf.is_empty() {
                            return;
                        }
                        idle_polls += 1;
                        // ~30 s of silence (120 * 250 ms): drop the
                        // connection, slow-loris or idle keep-alive.
                        if idle_polls > 120 {
                            return;
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => return,
                }
            }
            Err(err) => {
                let (code, reason) = err.status();
                let body =
                    format!("{{\"error\":\"{}\"}}", http::json_escape(err.detail()));
                let _ = http::write_response(
                    &mut stream,
                    code,
                    reason,
                    &[("Content-Type", "application/json")],
                    body.as_bytes(),
                    false,
                );
                return;
            }
        }
    }
}

const JSON: (&str, &str) = ("Content-Type", "application/json");

fn respond(
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    extra: &[(&str, &str)],
    body: &str,
    keep_alive: bool,
) -> io::Result<bool> {
    http::write_response(stream, status, reason, extra, body.as_bytes(), keep_alive)?;
    Ok(keep_alive)
}

/// Handles one request; returns whether the connection stays open.
fn route<H: JobHandler>(
    inner: &Arc<Inner<H>>,
    req: &Request,
    stream: &mut TcpStream,
) -> io::Result<bool> {
    let keep = req.keep_alive && !inner.shutting_down();
    match (req.method.as_str(), req.route()) {
        ("GET", "/v1/healthz") => respond(stream, 200, "OK", &[JSON], "{\"ok\":true}", keep),
        ("GET", "/v1/stats") => {
            respond(stream, 200, "OK", &[JSON], &inner.stats_json(), keep)
        }
        ("POST", "/v1/shutdown") => {
            if inner.config.enable_shutdown_endpoint {
                inner.begin_shutdown();
                respond(stream, 200, "OK", &[JSON], "{\"shutting_down\":true}", false)
            } else {
                respond(
                    stream,
                    404,
                    "Not Found",
                    &[JSON],
                    "{\"error\":\"shutdown endpoint disabled\"}",
                    keep,
                )
            }
        }
        ("POST", "/v1/runs") => submit(inner, req, stream, keep),
        ("GET", path) if path.starts_with("/v1/runs/") => {
            let rest = path.get("/v1/runs/".len()..).unwrap_or_default();
            let (id_str, want_stream) = match rest.strip_suffix("/stream") {
                Some(id) => (id, true),
                None => (rest, false),
            };
            let job = id_str
                .parse::<u64>()
                .ok()
                .and_then(|id| inner.lock_jobs().by_id.get(&id).cloned());
            let Some(job) = job else {
                return respond(
                    stream,
                    404,
                    "Not Found",
                    &[JSON],
                    "{\"error\":\"no such job\"}",
                    keep,
                );
            };
            if want_stream {
                stream_job(&job, stream)
            } else {
                respond(stream, 200, "OK", &[JSON], &job.status_json(), keep)
            }
        }
        _ => respond(
            stream,
            404,
            "Not Found",
            &[JSON],
            "{\"error\":\"no such route\"}",
            keep,
        ),
    }
}

fn accepted_json(id: u64, status: &str, cached: bool) -> String {
    format!(
        "{{\"id\":{id},\"status\":\"{status}\",\"cached\":{cached},\"stream\":\"/v1/runs/{id}/stream\"}}"
    )
}

fn submit<H: JobHandler>(
    inner: &Arc<Inner<H>>,
    req: &Request,
    stream: &mut TcpStream,
    keep: bool,
) -> io::Result<bool> {
    if inner.shutting_down() {
        return respond(
            stream,
            503,
            "Service Unavailable",
            &[JSON, ("Retry-After", "1")],
            "{\"error\":\"server is shutting down\"}",
            false,
        );
    }
    let body = match std::str::from_utf8(&req.body) {
        Ok(s) => s,
        Err(_) => {
            return respond(
                stream,
                400,
                "Bad Request",
                &[JSON],
                "{\"error\":\"submission body must be UTF-8 spec text\"}",
                keep,
            )
        }
    };
    let plan = match inner.handler.plan(body) {
        Ok(plan) => plan,
        Err(msg) => {
            let body = format!("{{\"error\":\"{}\"}}", http::json_escape(&msg));
            return respond(stream, 400, "Bad Request", &[JSON], &body, keep);
        }
    };
    Stats::bump(&inner.stats.submitted);
    let Some((id, state, cached)) = admit(inner, plan) else {
        return respond(
            stream,
            503,
            "Service Unavailable",
            &[JSON, ("Retry-After", "1")],
            "{\"error\":\"job queue is full\"}",
            false,
        );
    };
    let body = accepted_json(id, state, cached);
    respond(stream, 202, "Accepted", &[JSON], &body, keep)
}

/// Takes in a planned submission and returns the id, status and cache
/// flag to answer with, or `None` when the queue is full. A duplicate of
/// a queued or running job coalesces onto it and a cache hit is recorded
/// as done, both from the digest alone; only a miss moves its payload
/// into the queue. Either way the plan is gone when this returns.
fn admit<H: JobHandler>(
    inner: &Inner<H>,
    plan: Plan<H::Job>,
) -> Option<(u64, &'static str, bool)> {
    let mut jobs = inner.lock_jobs();
    if let Some(&id) = jobs.active_by_digest.get(&plan.digest) {
        Stats::bump(&inner.stats.coalesced);
        return Some((id, "accepted", false));
    }
    let hit = match inner.lock_cache().get(plan.digest) {
        Some(Cached::Body(out)) => Some(Arc::clone(out)),
        _ => None,
    };
    let id = inner.next_id.fetch_add(1, Ordering::Relaxed);
    if let Some(out) = hit {
        Stats::bump(&inner.stats.cache_hits);
        let job = Job::new(id, plan.digest, JobState::Done { out, from_cache: true });
        jobs.by_id.insert(id, Arc::new(job));
        jobs.push_finished(id, inner.config.retain_jobs);
        return Some((id, "done", true));
    }
    Stats::bump(&inner.stats.cache_misses);
    let job = Arc::new(Job::new(id, plan.digest, JobState::Queued));
    let entry = QueueEntry { job: Arc::clone(&job), payload: plan.job };
    if inner.queue.try_push(entry).is_err() {
        Stats::bump(&inner.stats.rejected);
        return None;
    }
    jobs.by_id.insert(id, job);
    jobs.active_by_digest.insert(plan.digest, id);
    Some((id, "queued", false))
}

/// Streams a job's output as chunked JSONL, following live progress.
/// A job that fails after streaming began yields a truncated chunked
/// body (no terminating chunk), which clients detect as an error.
fn stream_job(job: &Job, stream: &mut TcpStream) -> io::Result<bool> {
    // A failure before any bytes were streamed gets a clean 500.
    {
        let st = job.lock();
        if let JobState::Failed { error } = &*st {
            let body = format!("{{\"error\":\"{}\"}}", http::json_escape(error));
            drop(st);
            http::write_response(
                stream,
                500,
                "Internal Server Error",
                &[JSON],
                body.as_bytes(),
                false,
            )?;
            return Ok(false);
        }
    }
    let mut writer = ChunkedWriter::start(
        stream,
        200,
        "OK",
        &[("Content-Type", "application/x-ndjson")],
    )?;
    let mut offset = 0usize;
    loop {
        // xlint: allow(determinism-source) — per-poll streaming deadline; wall-clock pacing of the chunked response, not simulation state
        let deadline = Instant::now() + Duration::from_millis(250);
        let (chunk, terminal, error) = job.await_output(offset, deadline);
        if !chunk.is_empty() {
            offset += chunk.len();
            writer.write_chunk(&chunk)?;
        }
        if let Some(_error) = error {
            // Mid-stream failure: close without the final chunk.
            return Ok(false);
        }
        if terminal {
            writer.finish()?;
            return Ok(false);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::wake_addr;
    use std::net::SocketAddr;

    #[test]
    fn the_wake_connects_to_loopback_when_bound_to_an_unspecified_address() {
        let cases = [
            ("0.0.0.0:7878", "127.0.0.1:7878"),
            ("[::]:7878", "[::1]:7878"),
            ("127.0.0.1:7878", "127.0.0.1:7878"),
            ("10.1.2.3:7878", "10.1.2.3:7878"),
            ("[::1]:7878", "[::1]:7878"),
        ];
        for (bound, wake) in cases {
            let bound: SocketAddr = bound.parse().expect("socket address");
            let wake: SocketAddr = wake.parse().expect("socket address");
            assert_eq!(wake_addr(bound), wake, "bound to {bound}");
        }
    }
}
