//! The domain-logic seam between the server and scenario execution.
//!
//! `noisy-serve` is deliberately ignorant of `ScenarioSpec` and
//! `Runner`; everything it needs from the domain is expressed by
//! [`JobHandler`]. The production implementation lives in
//! `noisy_bench::service` and wires submissions through the existing
//! `Runner`; tests use small mocks.

use std::io::Write;

/// The result of planning a submission body.
pub struct Plan<J> {
    /// The executable job.
    pub job: J,
    /// Stable content digest of the whole submission — the key under
    /// which the finished response body is cached. Two submissions
    /// with equal digests must produce identical output bytes.
    pub digest: u64,
}

/// Executes submitted jobs on behalf of the server.
///
/// Implementations must be shareable across worker threads. All
/// methods are called without any server lock held, so they may take
/// arbitrarily long.
///
/// A submission costs one [`plan`](Self::plan) on the connection
/// thread. Only a job that actually runs reaches a worker, which calls
/// [`cells`](Self::cells) once and then either [`run`](Self::run) or
/// `run_cell`/`render_cell` for each cell; a cache hit or a coalesced
/// duplicate is answered from the digest alone.
pub trait JobHandler: Send + Sync + 'static {
    /// The planned, validated job type. A job moves to the worker that
    /// runs it and is dropped when its run ends; the server keeps only
    /// its output.
    type Job: Send + 'static;

    /// Parses and validates a request body into a job plus its cache
    /// key. Errors become `400` responses with the message as body.
    /// Keep it cheap: every submission pays for it, cache hits included.
    fn plan(&self, body: &str) -> Result<Plan<Self::Job>, String>;

    /// Expands `job` into independently cacheable sweep cells, keeping
    /// in it whatever `run_cell`/`render_cell` need, and returns the
    /// per-cell content digests in output order. `None` (the default)
    /// means the job only runs monolithically via [`run`](Self::run).
    /// Called once per executed job, on the worker, before any other
    /// call on that job. Cell keys must not collide with whole-job
    /// digests (handlers salt them).
    fn cells(&self, _job: &mut Self::Job) -> Option<Vec<u64>> {
        None
    }

    /// Runs the whole job, streaming output to `sink`. Used when
    /// [`cells`](Self::cells) returned `None`, and expected to produce
    /// bytes identical to the concatenated rendered cells otherwise.
    fn run(&self, job: &Self::Job, sink: &mut dyn Write) -> Result<(), String>;

    /// Computes the data rows of cell `index` (0-based, in the order
    /// [`cells`](Self::cells) listed them). The returned rows must be
    /// position-independent: the same cell digest must yield the same
    /// rows no matter which submission computed them.
    fn run_cell(&self, job: &Self::Job, index: usize) -> Result<Vec<Vec<String>>, String>;

    /// Renders cell `index`'s rows (freshly computed or from cache)
    /// into the job's output byte stream.
    fn render_cell(&self, job: &Self::Job, index: usize, rows: &[Vec<String>]) -> String;
}
