//! The median rule of Doerr et al. (stabilizing consensus).
//!
//! The **median rule** \[15\]: opinions are treated as integers; in every
//! round each agent looks at two uniformly random received messages (with
//! replacement) and moves to the *median* of its own opinion and the two
//! observed values. Undecided agents adopt one random received opinion.
//!
//! In the noiseless setting the median rule solves stabilizing consensus in
//! `O(log n)` rounds and tolerates `O(√n)` adversarial corruptions per
//! round; under the paper's channel noise it converges to the median of the
//! initial opinions rather than the plurality, which is exactly the
//! behavioural difference experiment T1 illustrates.
//!
//! On the count-level backends the rule is mean-field approximated (the
//! two draws are treated as independent categorical observations; see
//! [`PushBackend::resolve_median`](pushsim::PushBackend::resolve_median)).

use plurality_core::{Decision, Phase};

/// One median-rule step: one push round, then the median update.
pub(crate) const PHASE: Phase = Phase {
    stage: None,
    rounds: 1,
    decision: Decision::Median,
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
    fn consensus_is_absorbing_without_noise() {
        let noise = NoiseMatrix::identity(3).unwrap();
        let config = SimConfig::builder(60, 3).seed(1).build().unwrap();
        let mut net = Network::new(config, noise).unwrap();
        net.seed_counts(&[0, 60, 0]).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        steps(RuleSpec::Median, &mut net, &mut rng, 10);
        assert!(net.distribution().is_consensus_on(Opinion::new(1)));
    }

    #[test]
    fn converges_to_the_median_opinion_not_the_plurality() {
        // Opinion 0 holds the plurality but opinion 1 is the median of the
        // initial multiset; the median rule should end on opinion 1.
        let noise = NoiseMatrix::identity(3).unwrap();
        let config = SimConfig::builder(900, 3).seed(3).build().unwrap();
        let mut net = Network::new(config, noise).unwrap();
        net.seed_counts(&[400, 350, 150]).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let outcome = run(RuleSpec::Median, &mut net, &mut rng, 2_000);
        assert!(outcome.consensus_reached());
        assert_eq!(outcome.winning_opinion(), Some(Opinion::new(1)));
    }

    #[test]
    fn counting_median_moves_to_the_median_opinion() {
        // The same rule on the counting backend: opinion 0 holds the
        // plurality but opinion 1 is the median of the initial multiset;
        // under a noiseless channel the median rule should concentrate
        // on 1.
        let noise = NoiseMatrix::identity(3).unwrap();
        let config = SimConfig::builder(90_000, 3)
            .seed(4)
            .delivery(DeliverySemantics::Poissonized)
            .build()
            .unwrap();
        let mut net = CountingNetwork::new(config, noise).unwrap();
        net.seed_counts(&[40_000, 35_000, 15_000]).unwrap();
        let mut rng = StdRng::seed_from_u64(14);
        let outcome = run(RuleSpec::Median, &mut net, &mut rng, 200);
        let dist = outcome.final_distribution();
        let share = dist.counts()[1] as f64 / dist.num_nodes() as f64;
        assert!(share > 0.9, "median share {share}: {dist}");
    }

    #[test]
    fn two_opinion_majority_is_recovered() {
        // With two opinions the median coincides with the majority.
        let noise = NoiseMatrix::identity(2).unwrap();
        let config = SimConfig::builder(400, 2).seed(5).build().unwrap();
        let mut net = Network::new(config, noise).unwrap();
        net.seed_counts(&[260, 140]).unwrap();
        let mut rng = StdRng::seed_from_u64(6);
        let outcome = run(RuleSpec::Median, &mut net, &mut rng, 2_000);
        assert!(outcome.consensus_reached());
        assert_eq!(outcome.winning_opinion(), Some(Opinion::new(0)));
    }
}
