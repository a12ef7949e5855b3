//! The backend abstraction: one phase-structured interface over both
//! simulators.
//!
//! The paper's whole analytic strategy is that the three delivery processes
//! are interchangeable at phase granularity: process **O** (the real push
//! process) and process **B** (balls-into-bins, Definition 3) are
//! distributionally equivalent per phase (**Claim 1**), and w.h.p. events
//! transfer between process **B** and the Poissonized process **P**
//! (Definition 4) in both directions (**Lemma 3**). Protocol rules only
//! ever look at the *multiset* of messages received during a phase, never
//! at arrival order or sender identity. [`PushBackend`] captures exactly
//! that contract, so the same protocol and dynamics code runs unchanged on
//! either substrate:
//!
//! * [`Network`] — the agent-level backend. Exact for whichever process the
//!   [`SimConfig`] requests (O, B or P); per-phase cost scales with `n` and
//!   the message volume. Its [`PhaseObservation`] is [`Inboxes`].
//! * [`CountingNetwork`](crate::CountingNetwork) and
//!   [`BlockCountingNetwork`](crate::BlockCountingNetwork) — the count-level
//!   backend, one [`CountLevelNetwork`](crate::blockcounting::CountLevelNetwork)
//!   behind two names: process P at the
//!   population level, aggregated per (degree class, opinion) block, in
//!   O(k²·C) random draws per phase regardless of `n`; justified for O/B
//!   configurations by Claim 1 + Lemma 3 (phase granularity). The complete
//!   graph and the sparse degree-homogeneous topologies (ring, torus,
//!   `regular(d)`) have a single class, `C = 1`. Its [`PhaseObservation`]
//!   is [`BlockPhaseTally`].
//!
//! What each backend accepts is its row of the
//! [`admission`](crate::admission) table; the two count-level names differ
//! only in the row their constructor checks.
//!
//! ## The phase lifecycle
//!
//! ```text
//! begin_phase → push_opinionated_round × r → end_phase → resolve_*(…)
//! ```
//!
//! [`end_phase`](PushBackend::end_phase) yields the backend's
//! [`PhaseObservation`] (per-opinion received totals, message volume, an
//! inbox-size ceiling for memory accounting). The `resolve_*` methods are
//! the paper's **decision operators** applied to the finished phase; each
//! backend implements them natively (per-agent loops vs closed count-level
//! forms):
//!
//! * [`resolve_uniform_adoption`](PushBackend::resolve_uniform_adoption) —
//!   adopt one uniformly random received message (Stage 1's adoption rule
//!   for [`AdoptionScope::UndecidedOnly`]; the voter model for
//!   [`AdoptionScope::AllAgents`]).
//! * [`resolve_sample_majority`](PushBackend::resolve_sample_majority) —
//!   agents with at least `L` received messages adopt the majority of a
//!   uniform without-replacement sample of `L` of them (Stage 2's rule,
//!   Section 3.1.2; also the h-majority dynamics).
//! * [`resolve_undecided_state`](PushBackend::resolve_undecided_state) —
//!   the undecided-state dynamics operator (one uniform draw; agreement
//!   keeps the opinion, disagreement resets to undecided, undecided agents
//!   adopt).
//! * [`resolve_median`](PushBackend::resolve_median) — the median-rule
//!   operator (two uniform draws with replacement; move to the median of
//!   own opinion and the two observations).
//!
//! All decision randomness flows through the explicit `rng` parameter so a
//! protocol can keep its own reproducible decision stream, separate from
//! the network's delivery RNG.

use crate::blockcounting::BlockPhaseTally;
use crate::config::SimConfig;
use crate::distribution::OpinionDistribution;
use crate::error::SimError;
use crate::inbox::Inboxes;
use crate::network::{Network, RoundReport};
use crate::opinion::{NodeState, Opinion};
use crate::topology::TopologySpec;
use noisy_channel::NoiseMatrix;
use rand::rngs::StdRng;

/// What a finished phase exposes to the layers above, unifying the
/// agent-level [`Inboxes`] and the count-level [`BlockPhaseTally`] behind
/// the aggregate queries the protocol actually asks.
pub trait PhaseObservation {
    /// Per-opinion totals of the messages observed in the phase (post-noise
    /// delivered counts on the agent backend, the `h_j` of Definition 4 on
    /// the count-level backends).
    fn received_totals(&self) -> Vec<u64>;

    /// Total number of messages observed in the phase.
    fn total_received(&self) -> u64;

    /// A ceiling on the largest single inbox of the phase: the observed
    /// maximum on the agent backend, a Chernoff-style w.h.p. ceiling on the
    /// count-level backends. Feeds the protocol's memory accounting.
    fn max_inbox(&self) -> u64;

    /// Mean number of messages received per agent this phase.
    fn mean_received(&self) -> f64;

    /// Population variance of the per-agent received counts: measured
    /// exactly on the agent backend (an O(n) scan of the inboxes), the
    /// Poisson-mixture closed form on the count-level backends (`Var = Λ =
    /// mean` with a single degree class). The
    /// F8 experiment compares these across processes O/B/P (Claim 1 and
    /// Lemma 3 predict they agree per node while the totals differ).
    fn received_variance(&self) -> f64;

    /// Fraction of agents that received at least one message this phase:
    /// measured on the agent backend, `1 − e^{−Λ}` per degree class on the
    /// count-level backends.
    fn fraction_with_messages(&self) -> f64;
}

impl PhaseObservation for Inboxes {
    fn received_totals(&self) -> Vec<u64> {
        self.totals_per_opinion()
    }

    fn total_received(&self) -> u64 {
        self.total_messages()
    }

    fn max_inbox(&self) -> u64 {
        self.max_received()
    }

    fn mean_received(&self) -> f64 {
        if self.num_nodes() == 0 {
            0.0
        } else {
            self.total_messages() as f64 / self.num_nodes() as f64
        }
    }

    fn received_variance(&self) -> f64 {
        let n = self.num_nodes();
        if n == 0 {
            return 0.0;
        }
        let mean = self.mean_received();
        (0..n)
            .map(|node| {
                let d = f64::from(self.received_total(node)) - mean;
                d * d
            })
            .sum::<f64>()
            / n as f64
    }

    fn fraction_with_messages(&self) -> f64 {
        let n = self.num_nodes();
        if n == 0 {
            return 0.0;
        }
        (0..n).filter(|&node| self.has_received(node)).count() as f64 / n as f64
    }
}

impl PhaseObservation for BlockPhaseTally {
    fn received_totals(&self) -> Vec<u64> {
        BlockPhaseTally::received_totals(self)
    }

    fn total_received(&self) -> u64 {
        self.total()
    }

    fn max_inbox(&self) -> u64 {
        self.typical_max_inbox()
    }

    fn mean_received(&self) -> f64 {
        self.mean_inbox()
    }

    fn received_variance(&self) -> f64 {
        // A Poisson mixture over the degree classes: law of total variance
        // (equals the mean when C = 1, where the mixture degenerates).
        BlockPhaseTally::received_variance(self)
    }

    fn fraction_with_messages(&self) -> f64 {
        BlockPhaseTally::fraction_with_messages(self)
    }
}

/// A set of topology families, ordered by inclusion:
/// `Complete ⊂ VertexTransitive ⊂ Any`. The [`admission`](crate::admission)
/// table uses it for the topologies each backend certifies and accepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TopologyCapability {
    /// Only the complete graph (the paper's model): the backend needs
    /// global agent exchangeability.
    Complete,
    /// Every degree-homogeneous family — complete, ring, torus,
    /// `regular(d)` (see [`TopologySpec::is_vertex_transitive`]): the
    /// backend needs exchangeability only within a degree class.
    VertexTransitive,
    /// Every family, including `er(p)`: the backend tracks individual
    /// agents and neighbor lists.
    Any,
}

impl TopologyCapability {
    /// `true` if `topology` belongs to this certified set.
    pub fn supports(self, topology: TopologySpec) -> bool {
        match self {
            TopologyCapability::Complete => topology.is_complete(),
            TopologyCapability::VertexTransitive => topology.is_vertex_transitive(),
            TopologyCapability::Any => true,
        }
    }
}

/// Which agents the uniform-adoption decision operator applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AdoptionScope {
    /// Only agents that are currently undecided adopt (Stage 1's rule:
    /// opinionated agents never change opinion during Stage 1).
    UndecidedOnly,
    /// Every agent that received at least one message re-adopts (the voter
    /// model's rule).
    AllAgents,
}

/// A simulation backend for the noisy uniform push model, driven in phases.
///
/// See the [module documentation](self) for the lifecycle and the paper
/// lemmas justifying each implementation's semantics. All methods that make
/// random *decisions* take an explicit `rng`; delivery randomness stays
/// inside the backend (seeded by its [`SimConfig`]).
pub trait PushBackend {
    /// The phase result type ([`Inboxes`] or [`BlockPhaseTally`]).
    type Observation: PhaseObservation;

    /// The simulation configuration.
    fn config(&self) -> &SimConfig;

    /// The noise matrix acting on every transmitted message.
    fn noise(&self) -> &NoiseMatrix;

    /// The number of agents `n`.
    fn num_nodes(&self) -> usize {
        self.config().num_nodes()
    }

    /// The number of opinions `k`.
    fn num_opinions(&self) -> usize {
        self.config().num_opinions()
    }

    /// The current opinion distribution. O(k) on both backends.
    fn distribution(&self) -> OpinionDistribution;

    /// `true` if every agent is opinionated on the same opinion. O(k) on
    /// both backends (the agent backend maintains population tallies
    /// incrementally), so it is cheap enough to poll every round.
    fn is_consensus(&self) -> bool {
        self.distribution().is_consensus()
    }

    /// Resets every agent to undecided (keeping round/message counters).
    fn clear_opinions(&mut self);

    /// Seeds a plurality instance: `counts[i]` agents adopt opinion `i`,
    /// the rest become undecided.
    ///
    /// # Errors
    ///
    /// Propagates the backend's validation errors (wrong length, counts
    /// exceeding `n`).
    fn seed_counts(&mut self, counts: &[usize]) -> Result<(), SimError>;

    /// Seeds a rumor instance: agent `source` adopts `opinion`, everyone
    /// else becomes undecided. (The count-level backends' agents are
    /// exchangeable within a degree class, so they only validate `source`
    /// and record the count in its class.)
    ///
    /// # Errors
    ///
    /// Propagates the backend's validation errors (source or opinion out of
    /// range).
    fn seed_rumor_at(&mut self, source: usize, opinion: Opinion) -> Result<(), SimError>;

    /// Starts a new phase.
    ///
    /// # Panics
    ///
    /// Panics if a phase is already open.
    fn begin_phase(&mut self);

    /// Executes one synchronous round in which every opinionated agent
    /// pushes its current opinion — the only push rule the protocol and all
    /// baseline dynamics use (opinions never change mid-phase, so pushing
    /// the live state equals pushing a begin-of-phase snapshot).
    ///
    /// # Panics
    ///
    /// Panics if no phase is open.
    fn push_opinionated_round(&mut self) -> RoundReport;

    /// Finishes the open phase and returns its observation.
    ///
    /// # Panics
    ///
    /// Panics if no phase is open.
    fn end_phase(&mut self) -> &Self::Observation;

    /// The observation of the most recently finished phase.
    fn observation(&self) -> &Self::Observation;

    /// Total number of rounds executed so far.
    fn rounds_executed(&self) -> u64;

    /// Total number of messages pushed so far.
    fn messages_sent(&self) -> u64;

    /// The backend's own (delivery) RNG, for callers that want one
    /// reproducible randomness source.
    fn rng_mut(&mut self) -> &mut StdRng;

    /// Decision operator: every agent in `scope` that received at least one
    /// message this phase adopts one uniformly random received message
    /// (counting multiplicities). Stage 1 adoption / voter model.
    fn resolve_uniform_adoption(&mut self, scope: AdoptionScope, rng: &mut StdRng);

    /// Decision operator: every agent that received at least `sample_size`
    /// messages draws that many without replacement and adopts the sample
    /// majority, ties broken uniformly at random. Stage 2 / h-majority.
    fn resolve_sample_majority(&mut self, sample_size: u64, rng: &mut StdRng);

    /// Decision operator of the undecided-state dynamics: each agent that
    /// received at least one message draws one uniformly; undecided agents
    /// adopt it, opinionated agents keep their opinion on agreement and
    /// become undecided on disagreement.
    fn resolve_undecided_state(&mut self, rng: &mut StdRng);

    /// Decision operator of the median rule: each agent that received at
    /// least one message draws two uniformly (with replacement) and moves
    /// to the median of its own opinion and the two observations; undecided
    /// agents adopt the first draw.
    fn resolve_median(&mut self, rng: &mut StdRng);
}

impl PushBackend for Network {
    type Observation = Inboxes;

    fn config(&self) -> &SimConfig {
        Network::config(self)
    }

    fn noise(&self) -> &NoiseMatrix {
        Network::noise(self)
    }

    fn num_nodes(&self) -> usize {
        // The live population (population churn moves it away from the
        // configured initial size).
        Network::num_nodes(self)
    }

    fn distribution(&self) -> OpinionDistribution {
        Network::distribution(self)
    }

    fn clear_opinions(&mut self) {
        Network::clear_opinions(self);
    }

    fn seed_counts(&mut self, counts: &[usize]) -> Result<(), SimError> {
        Network::seed_counts(self, counts)
    }

    fn seed_rumor_at(&mut self, source: usize, opinion: Opinion) -> Result<(), SimError> {
        Network::seed_rumor(self, source, opinion)
    }

    fn begin_phase(&mut self) {
        Network::begin_phase(self);
    }

    fn push_opinionated_round(&mut self) -> RoundReport {
        self.push_round(|_, state| state.opinion())
    }

    fn end_phase(&mut self) -> &Inboxes {
        Network::end_phase(self)
    }

    fn observation(&self) -> &Inboxes {
        self.inboxes()
    }

    fn rounds_executed(&self) -> u64 {
        Network::rounds_executed(self)
    }

    fn messages_sent(&self) -> u64 {
        Network::messages_sent(self)
    }

    fn rng_mut(&mut self) -> &mut StdRng {
        Network::rng_mut(self)
    }

    fn resolve_uniform_adoption(&mut self, scope: AdoptionScope, rng: &mut StdRng) {
        let mut changes: Vec<(usize, Opinion)> = Vec::new();
        for node in 0..self.num_nodes() {
            if self.fault_frozen(node) {
                continue;
            }
            if scope == AdoptionScope::UndecidedOnly && self.state(node).opinion().is_some() {
                continue;
            }
            if let Some(opinion) = self.inboxes().sample_one(node, rng) {
                changes.push((node, opinion));
            }
        }
        for (node, opinion) in changes {
            self.set_opinion(node, Some(opinion));
        }
    }

    fn resolve_sample_majority(&mut self, sample_size: u64, rng: &mut StdRng) {
        let sample_size_u32 = u32::try_from(sample_size).unwrap_or(u32::MAX);
        let mut changes: Vec<(usize, Opinion)> = Vec::new();
        for node in 0..self.num_nodes() {
            if self.fault_frozen(node) {
                continue;
            }
            let Some(sample) = self
                .inboxes()
                .sample_without_replacement(node, sample_size_u32, rng)
            else {
                continue;
            };
            if let Some(opinion) = Inboxes::majority_of_counts(&sample, rng) {
                changes.push((node, opinion));
            }
        }
        for (node, opinion) in changes {
            self.set_opinion(node, Some(opinion));
        }
    }

    fn resolve_undecided_state(&mut self, rng: &mut StdRng) {
        let mut changes: Vec<(usize, Option<Opinion>)> = Vec::new();
        for node in 0..self.num_nodes() {
            if self.fault_frozen(node) {
                continue;
            }
            let Some(message) = self.inboxes().sample_one(node, rng) else {
                continue;
            };
            match self.state(node) {
                NodeState::Undecided => changes.push((node, Some(message))),
                NodeState::Opinionated(own) if own != message => changes.push((node, None)),
                NodeState::Opinionated(_) => {}
            }
        }
        for (node, opinion) in changes {
            self.set_opinion(node, opinion);
        }
    }

    fn resolve_median(&mut self, rng: &mut StdRng) {
        let mut changes: Vec<(usize, Opinion)> = Vec::new();
        for node in 0..self.num_nodes() {
            if self.fault_frozen(node) {
                continue;
            }
            let Some(first) = self.inboxes().sample_one(node, rng) else {
                continue;
            };
            match self.state(node) {
                NodeState::Undecided => changes.push((node, first)),
                NodeState::Opinionated(own) => {
                    let second = self
                        .inboxes()
                        .sample_one(node, rng)
                        .expect("node has received at least one message");
                    let mut triple = [own.index(), first.index(), second.index()];
                    triple.sort_unstable();
                    changes.push((node, Opinion::new(triple[1])));
                }
            }
        }
        for (node, opinion) in changes {
            self.set_opinion(node, Some(opinion));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DeliverySemantics;
    use crate::CountingNetwork;
    use rand::SeedableRng;

    fn agent_net(n: usize, seed: u64) -> Network {
        let noise = NoiseMatrix::uniform(3, 0.2).unwrap();
        let config = SimConfig::builder(n, 3).seed(seed).build().unwrap();
        Network::new(config, noise).unwrap()
    }

    fn counting_net(n: usize, seed: u64) -> CountingNetwork {
        let noise = NoiseMatrix::uniform(3, 0.2).unwrap();
        let config = SimConfig::builder(n, 3)
            .seed(seed)
            .delivery(DeliverySemantics::Poissonized)
            .build()
            .unwrap();
        CountingNetwork::new(config, noise).unwrap()
    }

    /// One generic phase through the trait, usable with either backend.
    fn one_phase<B: PushBackend>(net: &mut B, rounds: u64) -> u64 {
        net.begin_phase();
        let mut messages = 0;
        for _ in 0..rounds {
            messages += net.push_opinionated_round().messages_sent();
        }
        net.end_phase().total_received();
        messages
    }

    #[test]
    fn generic_phase_drives_both_backends() {
        let mut agent = agent_net(300, 1);
        PushBackend::seed_counts(&mut agent, &[100, 50, 20]).unwrap();
        let pushed = one_phase(&mut agent, 3);
        assert_eq!(pushed, 3 * 170);
        assert_eq!(agent.observation().total_received(), 3 * 170);

        let mut counting = counting_net(300, 1);
        PushBackend::seed_counts(&mut counting, &[100, 50, 20]).unwrap();
        let pushed = one_phase(&mut counting, 3);
        assert_eq!(pushed, 3 * 170);
        assert_eq!(counting.observation().total_received(), 3 * 170);
    }

    #[test]
    fn agent_resolve_uniform_adoption_matches_scope() {
        let mut net = agent_net(200, 2);
        net.seed_counts(&[40, 20, 0]).unwrap();
        one_phase(&mut net, 4);
        let before = net.distribution();
        let mut rng = StdRng::seed_from_u64(3);
        net.resolve_uniform_adoption(AdoptionScope::UndecidedOnly, &mut rng);
        let after = net.distribution();
        // Opinionated agents never lose their opinion under UndecidedOnly.
        for o in 0..3 {
            assert!(after.counts()[o] >= before.counts()[o]);
        }
        assert!(after.undecided() <= before.undecided());
        assert_eq!(after.num_nodes(), 200);
    }

    #[test]
    fn counting_resolve_uniform_adoption_conserves_population() {
        let mut net = counting_net(10_000, 4);
        PushBackend::seed_counts(&mut net, &[4_000, 2_000, 1_000]).unwrap();
        one_phase(&mut net, 2);
        let mut rng = StdRng::seed_from_u64(5);
        net.resolve_uniform_adoption(AdoptionScope::AllAgents, &mut rng);
        assert_eq!(net.distribution().num_nodes(), 10_000);
        net.resolve_uniform_adoption(AdoptionScope::UndecidedOnly, &mut rng);
        assert_eq!(net.distribution().num_nodes(), 10_000);
    }

    #[test]
    fn resolve_sample_majority_conserves_population_on_both_backends() {
        let mut agent = agent_net(300, 6);
        PushBackend::seed_counts(&mut agent, &[150, 100, 50]).unwrap();
        one_phase(&mut agent, 10);
        let mut rng = StdRng::seed_from_u64(7);
        agent.resolve_sample_majority(5, &mut rng);
        assert_eq!(PushBackend::distribution(&agent).num_nodes(), 300);

        let mut counting = counting_net(300, 6);
        PushBackend::seed_counts(&mut counting, &[150, 100, 50]).unwrap();
        one_phase(&mut counting, 10);
        counting.resolve_sample_majority(5, &mut rng);
        assert_eq!(PushBackend::distribution(&counting).num_nodes(), 300);
    }

    #[test]
    fn counting_seed_rumor_at_validates_the_source() {
        let mut net = counting_net(50, 8);
        assert!(net.seed_rumor_at(49, Opinion::new(1)).is_ok());
        assert_eq!(net.opinion_counts(), vec![0, 1, 0]);
        assert!(matches!(
            net.seed_rumor_at(50, Opinion::new(1)),
            Err(SimError::NodeOutOfRange { .. })
        ));
    }

    #[test]
    fn phase_statistics_are_consistent_on_both_backends() {
        // Agent backend: measured moments over the real inboxes.
        let mut agent = agent_net(500, 11);
        PushBackend::seed_counts(&mut agent, &[200, 100, 50]).unwrap();
        one_phase(&mut agent, 4);
        let obs = PushBackend::observation(&agent);
        let n = 500.0;
        assert!((obs.mean_received() - obs.total_received() as f64 / n).abs() < 1e-12);
        let frac = obs.fraction_with_messages();
        assert!((0.0..=1.0).contains(&frac));
        assert!(frac > 0.5, "4 rounds of 350 pushers reach most of 500 nodes");
        assert!(obs.received_variance() > 0.0);

        // Counting backend: the Poisson closed forms.
        let mut counting = counting_net(500, 11);
        PushBackend::seed_counts(&mut counting, &[200, 100, 50]).unwrap();
        one_phase(&mut counting, 4);
        let obs = PushBackend::observation(&counting);
        let lambda = obs.mean_received();
        assert!((obs.received_variance() - lambda).abs() < 1e-12);
        assert!((obs.fraction_with_messages() - (1.0 - (-lambda).exp())).abs() < 1e-9);
    }

    #[test]
    fn is_consensus_matches_the_distribution_on_both_backends() {
        let mut agent = agent_net(100, 9);
        assert!(!PushBackend::is_consensus(&agent));
        PushBackend::seed_counts(&mut agent, &[100, 0, 0]).unwrap();
        assert!(PushBackend::is_consensus(&agent));

        let mut counting = counting_net(100, 9);
        assert!(!PushBackend::is_consensus(&counting));
        PushBackend::seed_counts(&mut counting, &[0, 100, 0]).unwrap();
        assert!(PushBackend::is_consensus(&counting));
    }
}
