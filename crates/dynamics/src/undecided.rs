//! The undecided-state dynamics.
//!
//! The **undecided-state dynamics** \[5, 8\] adapted to the push setting:
//! each agent looks at one uniformly random message it received this round
//! and
//!
//! * adopts it if the agent is currently undecided,
//! * becomes undecided if the message differs from the agent's opinion,
//! * keeps its opinion if the message agrees with it.
//!
//! Agents that received nothing do not change state. In the noiseless gossip
//! model this dynamics solves plurality consensus with polylogarithmic
//! convergence time provided the initial bias is large enough; under the
//! paper's channel noise, spurious disagreements constantly push agents back
//! to the undecided state, which is one of the failure modes experiment T1
//! quantifies.

use plurality_core::{Decision, Phase};

/// One undecided-state step: one push round, then the undecided-state
/// update.
pub(crate) const PHASE: Phase = Phase {
    stage: None,
    rounds: 1,
    decision: Decision::UndecidedState,
};

#[cfg(test)]
mod tests {
    use crate::tests::{run, steps};
    use crate::RuleSpec;
    use noisy_channel::NoiseMatrix;
    use pushsim::{CountingNetwork, DeliverySemantics, Network, Opinion, PushBackend, SimConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn agreement_is_absorbing_without_noise() {
        let noise = NoiseMatrix::identity(2).unwrap();
        let config = SimConfig::builder(50, 2).seed(1).build().unwrap();
        let mut net = Network::new(config, noise).unwrap();
        net.seed_counts(&[50, 0]).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        steps(RuleSpec::Undecided, &mut net, &mut rng, 20);
        assert!(net.distribution().is_consensus_on(Opinion::new(0)));
    }

    #[test]
    fn disagreement_creates_undecided_nodes() {
        // Two equal camps with no noise: after one round some agents must
        // have seen the other opinion and become undecided.
        let noise = NoiseMatrix::identity(2).unwrap();
        let config = SimConfig::builder(200, 2).seed(3).build().unwrap();
        let mut net = Network::new(config, noise).unwrap();
        net.seed_counts(&[100, 100]).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        steps(RuleSpec::Undecided, &mut net, &mut rng, 1);
        assert!(net.distribution().undecided() > 0);
    }

    #[test]
    fn counting_undecided_state_creates_undecided_under_disagreement() {
        // The same rule, on the counting backend.
        let noise = NoiseMatrix::uniform(2, 0.45).unwrap();
        let config = SimConfig::builder(10_000, 2)
            .seed(3)
            .delivery(DeliverySemantics::Poissonized)
            .build()
            .unwrap();
        let mut net = CountingNetwork::new(config, noise).unwrap();
        net.seed_counts(&[5_000, 5_000]).unwrap();
        let mut rng = StdRng::seed_from_u64(13);
        steps(RuleSpec::Undecided, &mut net, &mut rng, 1);
        let dist = net.distribution();
        assert!(dist.undecided() > 0, "balanced camps must produce undecided agents");
        assert_eq!(dist.num_nodes(), 10_000);
    }

    #[test]
    fn solves_plurality_with_three_opinions_without_noise() {
        let noise = NoiseMatrix::identity(3).unwrap();
        let config = SimConfig::builder(600, 3).seed(5).build().unwrap();
        let mut net = Network::new(config, noise).unwrap();
        net.seed_counts(&[300, 180, 120]).unwrap();
        let mut rng = StdRng::seed_from_u64(6);
        let outcome = run(RuleSpec::Undecided, &mut net, &mut rng, 3_000);
        assert!(outcome.consensus_reached());
        assert_eq!(outcome.winning_opinion(), Some(Opinion::new(0)));
    }
}
