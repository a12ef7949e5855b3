//! # gossip-analysis
//!
//! Statistics, confidence intervals, parameter sweeps and plain-text table
//! emitters for the noisy-plurality experiment harness.
//!
//! The experiments of this reproduction (`xp list` names them) all follow
//! the same shape: repeat a randomized protocol run over a grid of
//! parameters, estimate success rates and means with confidence intervals,
//! and print a table whose rows can be compared against the paper's
//! predictions. This crate provides those building blocks without pulling
//! in any external statistics dependency:
//!
//! * [`stats::SampleStats`] — online mean / variance / min / max.
//! * [`ci::WilsonInterval`] — Wilson score intervals for success
//!   probabilities ("w.h.p." claims are checked through these).
//! * [`sweep`] — derived per-cell seeds ([`sweep::derive_seed`]) and the
//!   ordered parallel map ([`sweep::par_map`]) that the experiment
//!   harness runs its trials and campaign seeds through.
//! * [`table`] — fixed-width plain-text tables, JSON lines and CSV output
//!   for `xp`.
//! * [`observe`] — ready-made observers for the core observation layer:
//!   per-phase trajectory recording ([`observe::TrajectoryRecorder`]),
//!   streaming per-phase aggregates over many runs
//!   ([`observe::OnlineStats`]) and live JSONL emission
//!   ([`observe::StreamSink`]).
//! * [`oracle`] — invariant oracles for fault-injection campaigns:
//!   per-run pass/fail judgments ([`oracle::Oracle`],
//!   [`oracle::OracleSuite`]) returning structured
//!   [`Violation`](oracle::Violation)s (count conservation, consensus
//!   correctness, bias monotonicity, the paper's round envelope).
//!
//! # Example
//!
//! ```
//! use gossip_analysis::stats::SampleStats;
//!
//! let mut stats = SampleStats::new();
//! for x in [1.0, 2.0, 3.0, 4.0] {
//!     stats.push(x);
//! }
//! assert_eq!(stats.mean(), 2.5);
//! assert_eq!(stats.len(), 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ci;
pub mod observe;
pub mod oracle;
pub mod stats;
pub mod sweep;
pub mod table;
