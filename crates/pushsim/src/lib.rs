//! # pushsim
//!
//! A synchronous simulator of the **noisy uniform push model** used by
//! Fraigniaud & Natale, *Noisy Rumor Spreading and Plurality Consensus*
//! (PODC 2016).
//!
//! ## The model
//!
//! * `n` anonymous agents form a communication graph — the complete graph
//!   in the paper's model (the default), or any [`TopologySpec`] family
//!   (`ring`, `torus`, `regular(d)`, `er(p)`; see the [`topology`]
//!   module).
//! * Time proceeds in synchronous rounds. In each round, every *opinionated*
//!   agent may **push** its opinion (an integer in `{0, …, k−1}`) to an agent
//!   chosen uniformly at random (a uniformly random *neighbor* on
//!   non-complete topologies); senders and receivers never learn each
//!   other's identity.
//! * Every pushed opinion passes through a noisy channel described by a
//!   row-stochastic [`NoiseMatrix`](noisy_channel::NoiseMatrix): opinion `i`
//!   is received as `j` with probability `p_{i,j}`.
//! * Agents that do not yet support an opinion are **undecided** and may not
//!   push (they are "not actively aware that the system has started").
//! * Several messages may reach the same agent in one round; all are
//!   received (Appendix A of the paper).
//!
//! ## The three delivery semantics
//!
//! The paper's analysis revolves around three progressively simpler message
//! delivery processes (Section 3.2), all of which are implemented here behind
//! [`DeliverySemantics`]:
//!
//! * **Process O** ([`DeliverySemantics::Exact`]) — the real push process:
//!   each message is noised and delivered to a uniformly random agent in the
//!   round it is sent.
//! * **Process B** ([`DeliverySemantics::BallsIntoBins`]) — at the end of
//!   each *phase*, all messages sent during the phase are independently
//!   re-colored by the noise and thrown into agents chosen uniformly at
//!   random, like balls into bins (Definition 3; Claim 1 shows this is
//!   distributionally equivalent to process O at phase granularity).
//! * **Process P** ([`DeliverySemantics::Poissonized`]) — each agent receives
//!   an independent `Poisson(h_i / n)` number of copies of each opinion `i`,
//!   where `h_i` is the number of post-noise messages carrying opinion `i`
//!   in the phase (Definition 4; Lemma 3 transfers w.h.p. events back to
//!   process O).
//!
//! ## The three backends, one trait
//!
//! The simulator ships **three backends** over the same model, all
//! implementing the [`PushBackend`] trait (the shared phase lifecycle plus
//! the paper's decision operators — see the [`backend`] module docs for the
//! contract and the lemmas behind it):
//!
//! * [`Network`] — the **agent-level** backend: every agent is a
//!   [`NodeState`], inboxes are per-agent multisets. Memory and per-phase
//!   cost scale with `n` and the message volume. The only backend that
//!   handles every topology family and every fault.
//! * [`CountingNetwork`] — the **count-based** backend: agents are
//!   anonymous and exchangeable, so the population is represented as a
//!   `k`-vector of per-opinion counts and a phase costs O(k²) random draws
//!   (one multinomial per noise-matrix row) *independent of `n`* — the
//!   same reformulation the paper's own analysis uses (it reasons about
//!   the counts `h_i` of Definition 4, never about individuals).
//!   Complete-graph-only.
//! * [`BlockCountingNetwork`] — the **degree-class block-counting**
//!   backend: the count-based reformulation localized per degree class
//!   ([`DegreeClasses`](topology::DegreeClasses)), extending the O(k²·C)
//!   phase cost to sparse degree-homogeneous topologies (ring, torus,
//!   `regular(d)` — where `C = 1`); `er(p)` is accepted as an explicit,
//!   documented mean-field opt-in.
//!
//! The two count-level backends are one implementation,
//! [`CountLevelNetwork`](blockcounting::CountLevelNetwork): the complete
//! graph is its one-degree-class case, and the two names differ only in
//! the admission-table row their constructor checks. See the
//! [`blockcounting`] module.
//!
//! What each backend accepts — topologies, delivery processes, fault
//! families, temporal features — is one row of the [`admission`] table,
//! which also holds the semantics-preserving `Auto` policy
//! ([`ExecutionBackend`]) and the one generic build-and-visit dispatch
//! ([`build_and_visit`]).
//!
//! Code written against `PushBackend` (the `plurality-core` phase driver,
//! which runs the protocol's stages and every `opinion-dynamics` rule, and
//! the experiment harness) runs unchanged on any backend; each backend's phase result is exposed
//! through the [`PhaseObservation`] trait ([`Inboxes`] vs
//! [`BlockPhaseTally`], one [`PhaseTally`] per degree class).
//!
//! A backend simulates a delivery process *natively* when it samples the
//! process's distribution exactly (the batched paths are
//! distribution-preserving reformulations, checked empirically in
//! `tests/equivalence.rs`); the count-based backends run every other
//! process as process P, whose per-phase aggregate law the paper transfers
//! to the other processes w.h.p. Three bounded approximations qualify the
//! count-level backends' exactness: the Poisson
//! upper tail switches to a continuity-corrected normal approximation
//! beyond mean 600 (absolute error < 10⁻³; see
//! [`counting::poisson_tail_ge`]), bulk sample-majority adoption beyond
//! 65 536 switchers uses an empirical-frequency split (≈ 0.4%
//! perturbation; see [`counting::sample_majority_splits`]), and rules
//! that resample the *same* inbox more than once with replacement (only
//! the median baseline dynamics does) are mean-field approximated.
//!
//! ## Fault injection
//!
//! Beyond the ε-noisy channel, runs can inject classical faults through a
//! [`FaultSpec`] (`drop`, `dup`, `delay`, `crash`, `byz` — see the
//! [`fault`] module). All fault randomness is
//! drawn from a dedicated seed-derived RNG, so a disabled spec keeps every
//! RNG stream above bit-for-bit identical to the fault-free simulator.
//!
//! ## Temporal dynamics
//!
//! The paper's model is static; the [`temporal`] module makes its three
//! frozen assumptions configurable axes. A [`ChurnSpec`] moves the
//! *population* (fractional joins and departures at every phase boundary,
//! a one-shot departure burst) or the *graph* (`rewire(q)` independently
//! resamples a `regular(d)`/`er(p)` topology between phases); a
//! [`NoiseSchedule`] moves ε over phases (`step`/`burst`/`ramp`); a
//! [`ClockSpec`] desynchronizes the rounds themselves (`drift(ppm)` /
//! `skew(p)` per-agent participation). Like faults, all temporal
//! randomness comes from dedicated seed-salted RNGs,
//! so `ChurnSpec::default()` + `NoiseSchedule::Const` + `ClockSpec::Sync`
//! (the defaults) are **bit-for-bit** the static simulator (pinned by
//! `tests/temporal_network.rs`).
//!
//! Protocols built on top of this crate (see the `plurality-core` crate)
//! interact with the network through *phases*: they call
//! [`Network::begin_phase`], then [`Network::push_round`] once per round,
//! and finally [`Network::end_phase`], after which the per-agent received
//! multisets are available in the returned [`Inboxes`]. The count-level
//! backends mirror the shape through the [`PushBackend`] lifecycle, with
//! [`push_round_blocks`](blockcounting::CountLevelNetwork::push_round_blocks)
//! (counts in) and a [`BlockPhaseTally`] (counts out).
//!
//! # Example
//!
//! ```
//! use noisy_channel::NoiseMatrix;
//! use pushsim::{DeliverySemantics, Network, Opinion, SimConfig};
//!
//! # fn main() -> Result<(), pushsim::SimError> {
//! let noise = NoiseMatrix::uniform(3, 0.2).expect("valid noise");
//! let config = SimConfig::builder(100, 3).seed(42).build()?;
//! let mut net = Network::new(config, noise)?;
//! // One source with opinion 1, everybody else undecided.
//! net.set_opinion(0, Some(Opinion::new(1)));
//!
//! net.begin_phase();
//! for _ in 0..20 {
//!     net.push_round(|_, state| state.opinion());
//! }
//! let inboxes = net.end_phase();
//! // The source pushed 20 messages in total.
//! assert_eq!(inboxes.total_messages(), 20);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod backend;
pub mod blockcounting;
mod config;
pub mod counting;
mod distribution;
mod error;
pub mod fault;
mod inbox;
mod network;
mod opinion;
pub mod poisson;
pub mod temporal;
pub mod topology;

pub use admission::{admit, build_and_visit, BackendVisitor, ExecutionBackend, Resolved};
pub use backend::{AdoptionScope, PhaseObservation, PushBackend, TopologyCapability};
pub use blockcounting::{BlockCountingNetwork, BlockPhaseTally, CountingNetwork};
pub use config::{DeliverySemantics, SimConfig, SimConfigBuilder};
pub use counting::PhaseTally;
pub use distribution::OpinionDistribution;
pub use error::SimError;
pub use fault::{ByzantineFault, CrashFault, FaultSpec};
pub use inbox::Inboxes;
pub use network::{Network, RoundReport};
pub use opinion::{NodeState, Opinion};
pub use temporal::{
    BurstChurn, ChurnSpec, ClockSpec, NoiseSchedule, PopulationDelta, TemporalCapability,
};
pub use topology::{Topology, TopologySpec};
