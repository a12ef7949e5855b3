//! A dependency-free streaming scenario service.
//!
//! This crate implements the `xp serve` subsystem: a small HTTP/1.1
//! server hand-rolled on [`std::net::TcpListener`] that accepts job
//! submissions, runs them on a fixed worker pool behind a bounded
//! queue, and streams results back to clients as they are produced.
//! The workspace builds offline with vendored shims only, so there is
//! deliberately no external HTTP framework here.
//!
//! The crate knows nothing about scenario specs. Domain logic is
//! injected through the [`handler::JobHandler`] trait: the handler
//! parses a request body into a job, reports a stable content digest
//! for caching, splits a job that runs into cacheable cells, and
//! executes it against an [`std::io::Write`] sink. `noisy-bench`
//! provides the production handler that wires in its `Runner`; the
//! tests here use small mock handlers.
//!
//! Architecture, one thread group per concern:
//!
//! * an **acceptor** thread blocks in `accept` on the listener and
//!   spawns one connection thread per client (keep-alive and
//!   pipelining are supported by the incremental parser in [`http`]);
//! * **worker** threads drain the bounded [`queue::BoundedQueue`];
//!   when the queue is full, submissions are rejected with `503` and
//!   a `Retry-After` header instead of growing memory. A queue entry
//!   carries the job's payload to its worker, which drops it when the
//!   run ends: the job table keeps only ids, digests and states;
//! * finished results land in a content-addressed byte-budget LRU
//!   ([`lru::LruCache`]), so resubmitting a spec — or running a sweep
//!   that shares cells with a cached one — returns without recompute.
//!   A whole-run hit is answered from the submission's digest alone;
//!   only a job that runs is split into cells, on its worker.
//!
//! Graceful shutdown (SIGTERM/ctrl-c via [`signal`], or
//! `POST /v1/shutdown` when enabled) stops accepting work, wakes the
//! acceptor with one loopback connection, drains the queue, and joins
//! every worker.

// `unsafe` is denied crate-wide and re-allowed only on the one module
// that must declare the C `signal(2)` entry point (the offline
// workspace carries no libc crate). xlint rule R6 checks this shape;
// R5 requires the SAFETY comment on the block itself.
#![deny(unsafe_code)]

pub mod http;
pub mod handler;
pub mod loadtest;
pub mod lru;
pub mod queue;
pub mod server;
#[allow(unsafe_code)]
pub mod signal;

pub use handler::{JobHandler, Plan};
pub use server::{Server, ServerConfig, ServerHandle};
