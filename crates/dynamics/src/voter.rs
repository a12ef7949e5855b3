//! The voter model: adopt one uniformly random received opinion.
//!
//! The classic **voter model** adapted to the push setting: in every round
//! each opinionated agent pushes its opinion, and every agent that received
//! at least one message adopts one of the received opinions chosen uniformly
//! at random (counting multiplicities). Undecided agents join the process by
//! the same rule.
//!
//! Without noise the voter model reaches consensus in `O(n)` expected rounds
//! on the complete graph but offers only a weak plurality guarantee (the
//! probability of winning equals the initial share). With noise it has no
//! absorbing state at all — which is precisely why the paper's protocol
//! needs its sample-majority stage.

use plurality_core::{Decision, Phase};
use pushsim::AdoptionScope;

/// One voter step: one push round, then uniform adoption by every agent.
pub(crate) const PHASE: Phase = Phase {
    stage: None,
    rounds: 1,
    decision: Decision::UniformAdoption(AdoptionScope::AllAgents),
};

#[cfg(test)]
mod tests {
    use crate::tests::steps;
    use crate::RuleSpec;
    use noisy_channel::NoiseMatrix;
    use pushsim::{CountingNetwork, DeliverySemantics, Network, Opinion, PushBackend, SimConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn a_single_opinion_network_stays_put() {
        let noise = NoiseMatrix::identity(2).unwrap();
        let config = SimConfig::builder(40, 2).seed(1).build().unwrap();
        let mut net = Network::new(config, noise).unwrap();
        net.seed_counts(&[40, 0]).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        steps(RuleSpec::Voter, &mut net, &mut rng, 20);
        assert!(net.distribution().is_consensus_on(Opinion::new(0)));
    }

    #[test]
    fn undecided_nodes_are_recruited() {
        let noise = NoiseMatrix::identity(2).unwrap();
        let config = SimConfig::builder(60, 2).seed(3).build().unwrap();
        let mut net = Network::new(config, noise).unwrap();
        net.seed_counts(&[20, 10]).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let undecided_before = net.distribution().undecided();
        steps(RuleSpec::Voter, &mut net, &mut rng, 30);
        assert!(net.distribution().undecided() < undecided_before);
    }

    #[test]
    fn counting_voter_conserves_population_and_recruits_undecided() {
        // The same rule, on the counting backend.
        let noise = NoiseMatrix::uniform(3, 0.3).unwrap();
        let config = SimConfig::builder(50_000, 3)
            .seed(2)
            .delivery(DeliverySemantics::Poissonized)
            .build()
            .unwrap();
        let mut net = CountingNetwork::new(config, noise).unwrap();
        net.seed_counts(&[20_000, 10_000, 5_000]).unwrap();
        let mut rng = StdRng::seed_from_u64(12);
        steps(RuleSpec::Voter, &mut net, &mut rng, 30);
        let dist = net.distribution();
        assert_eq!(dist.num_nodes(), 50_000);
        assert!(dist.undecided() < 15_000, "undecided should shrink: {dist}");
    }

    #[test]
    fn name_is_stable() {
        assert_eq!(RuleSpec::Voter.to_string(), "voter");
    }
}
