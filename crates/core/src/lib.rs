//! # plurality-core
//!
//! The two-stage **noisy rumor spreading / plurality consensus** protocol of
//! Fraigniaud & Natale, *Noisy Rumor Spreading and Plurality Consensus*
//! (PODC 2016), implemented on top of the [`pushsim`] uniform push model
//! simulator and the [`noisy_channel`] noise matrices.
//!
//! ## The protocol in one paragraph
//!
//! The system has `n` anonymous agents and `k` opinions; every transmitted
//! opinion is perturbed by an (ε, δ)-majority-preserving noise matrix. In
//! **Stage 1** (opinion acquisition), opinionated agents repeatedly push
//! their opinion and undecided agents adopt a uniformly random received
//! opinion at the end of each phase; phase lengths grow so that the number
//! of opinionated agents multiplies by `β/ε² + 1` per phase while the bias
//! towards the correct opinion only degrades geometrically, ending at
//! `Ω(√(log n / n))` once every agent is opinionated. In **Stage 2**
//! (sample-majority amplification), every agent pushes its opinion for `2ℓ`
//! rounds, samples `ℓ = Θ(1/ε²)` of the received messages and adopts the
//! sample majority; Proposition 1 shows each phase multiplies the bias by a
//! constant factor `> 1`, so after `⌈log(√n / log n)⌉` phases plus one long
//! final phase the whole system supports the correct opinion, w.h.p. The
//! total running time is `O(log n / ε²)` rounds and each agent uses
//! `O(log log n + log 1/ε)` bits (Theorems 1 and 2).
//!
//! ## Crate layout
//!
//! * [`ProtocolParams`] / [`ProtocolConstants`] / [`Schedule`] — run
//!   parameters and the phase schedules of both stages.
//! * [`TwoStageProtocol`] / [`Session`] / [`Instance`] — the protocol
//!   itself and its one entry point, [`Session::run`], which executes an
//!   instance (rumor spreading, plurality consensus, or Stage 2 alone) on
//!   a chosen backend.
//! * [`run_phases`] / [`Phase`] / [`Decision`] — the one phase driver every
//!   run goes through: a sequence of phases, each a stage label, a round
//!   count and one of the backend's decision operators. The protocol's
//!   two stages are such a sequence, and so is each baseline dynamics of
//!   the `opinion-dynamics` crate (one phase, over and over).
//! * [`Outcome`] / [`PhaseRecord`] — per-run and per-phase results
//!   (consensus, winner, bias trajectory, message counts).
//! * [`observe`] — the observation layer: watch a run phase
//!   by phase through an [`Observer`] (RNG-free, so attaching one never
//!   perturbs an execution) and stop it early with a composable
//!   [`StopCondition`] instead of a hard-coded round budget.
//! * [`MemoryMeter`] — per-node memory accounting in bits.
//! * [`bounds`] — the analytic quantities of the paper (the function
//!   `g(δ, ℓ)`, the Proposition 1 lower bound, Lemma 16's tail bound, the
//!   asymptotic round/memory scales).
//!
//! # Example
//!
//! ```
//! use noisy_channel::NoiseMatrix;
//! use plurality_core::{ExecutionBackend, Instance, NoObserver, ProtocolParams, TwoStageProtocol};
//! use pushsim::Opinion;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let noise = NoiseMatrix::uniform(3, 0.3)?;
//! let params = ProtocolParams::builder(500, 3).epsilon(0.3).seed(7).build()?;
//! let protocol = TwoStageProtocol::new(params, noise)?;
//! let outcome = protocol.session().run(
//!     ExecutionBackend::Agent,
//!     Instance::Rumor(Opinion::new(0)),
//!     &mut NoObserver,
//! )?;
//! assert!(outcome.succeeded());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bounds;
mod error;
mod memory;
pub mod observe;
mod params;
mod phase;
mod protocol;
mod record;
mod stage1;
mod stage2;

pub use error::ProtocolError;
pub use memory::MemoryMeter;
pub use observe::{Fanout, NoObserver, Observer, PhaseSnapshot, StopCondition};
pub use params::{ProtocolConstants, ProtocolParams, ProtocolParamsBuilder, Schedule};
pub use phase::{run_phases, Decision, Outcome, Phase};
pub use protocol::{Instance, Session, TwoStageProtocol};
/// Which backend a run executes on (defined by `pushsim`'s admission
/// table, re-exported here because every run entry point takes one).
pub use pushsim::ExecutionBackend;
pub use record::{PhaseRecord, StageId};
