//! # noisy-plurality
//!
//! A faithful, laptop-scale reproduction of
//! *"Noisy Rumor Spreading and Plurality Consensus"* (Fraigniaud & Natale,
//! PODC 2016). The crate is a thin facade that re-exports the workspace
//! crates under one coherent namespace:
//!
//! * [`lp`] — a from-scratch dense simplex solver used by the
//!   majority-preservation test.
//! * [`noise`] — noise matrices over `k` opinions, standard families, and the
//!   (ε, δ)-majority-preserving membership test of Section 4.
//! * [`sim`] — the noisy uniform push model simulator with the three delivery
//!   semantics (processes **O**, **B**, **P**) used in the paper's analysis.
//! * [`protocol`] — the paper's two-stage rumor-spreading / plurality
//!   consensus protocol with its one entry point
//!   ([`Session::run`](protocol::Session::run) of an
//!   [`Instance`](protocol::Instance)), phase schedules, theoretical
//!   bounds, memory accounting, and the observation layer
//!   ([`Observer`](protocol::Observer) /
//!   [`StopCondition`](protocol::StopCondition)) that makes executions
//!   watchable phase by phase and stoppable early.
//! * [`dynamics`] — baseline opinion dynamics (voter, 3-majority, h-majority,
//!   undecided-state, median rule) running on the same substrate.
//! * [`analysis`] — statistics, derived seeds and the ordered parallel map
//!   the harness runs its trials through, table emitters and the built-in
//!   observers (trajectory recorder, streaming per-phase aggregates, JSONL
//!   stream sink) used by the experiment harness.
//! * [`mod@bench`] — the declarative scenario API
//!   ([`ScenarioSpec`](bench::spec::ScenarioSpec) +
//!   [`Runner`](bench::runner::Runner)) and the registry behind the `xp`
//!   experiment driver.
//!
//! See `README.md` for the system inventory and the paper-to-code map, and
//! `xp list` (the `noisy-bench` binary) for the registered experiments that
//! reproduce the paper's figures and tables.
//!
//! # Quickstart
//!
//! ```
//! use noisy_plurality::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // 3 opinions, uniform epsilon-noise, 1_000 nodes.
//! let noise = NoiseMatrix::uniform(3, 0.25)?;
//! let params = ProtocolParams::builder(1_000, 3)
//!     .epsilon(0.25)
//!     .seed(7)
//!     .build()?;
//! let protocol = TwoStageProtocol::new(params, noise)?;
//! let outcome = protocol.session().run(
//!     ExecutionBackend::Agent,
//!     Instance::Rumor(Opinion::new(0)),
//!     &mut NoObserver,
//! )?;
//! assert!(outcome.consensus_reached());
//! assert_eq!(outcome.winning_opinion(), Some(Opinion::new(0)));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use gossip_analysis as analysis;
pub use noisy_bench as bench;
pub use noisy_channel as noise;
pub use noisy_lp as lp;
pub use opinion_dynamics as dynamics;
pub use plurality_core as protocol;
pub use pushsim as sim;

/// Convenience prelude exporting the types used by virtually every
/// experiment and example.
pub mod prelude {
    pub use gossip_analysis::{
        ci::WilsonInterval,
        observe::{OnlineStats, StreamSink, TrajectoryRecorder},
        stats::SampleStats,
        table::Table,
    };
    pub use noisy_bench::{
        runner::{RunReport, Runner},
        spec::{InitSpec, Metric, ObserveMode, ScenarioKind, ScenarioSpec, SpecError, StopSpec},
    };
    pub use noisy_channel::{
        families, MpReport, NoiseError, NoiseMatrix, NoiseSpec, PairwiseMargin,
    };
    pub use opinion_dynamics::RuleSpec;
    pub use plurality_core::{
        bounds, ExecutionBackend, Instance, MemoryMeter, NoObserver, Observer, Outcome,
        PhaseRecord, PhaseSnapshot, ProtocolConstants, ProtocolError, ProtocolParams, Schedule,
        Session, StageId, StopCondition, TwoStageProtocol,
    };
    pub use pushsim::{
        AdoptionScope, BlockPhaseTally, CountingNetwork, DeliverySemantics, Inboxes, Network,
        NodeState, Opinion, OpinionDistribution, PhaseObservation, PhaseTally, PushBackend,
        RoundReport, SimConfig, SimError,
    };
}
