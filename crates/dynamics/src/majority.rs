//! h-majority dynamics (and the classic 3-majority special case).
//!
//! The **h-majority dynamics** adapted to the push model: one step is a
//! mini-phase of `2h` push rounds (so that almost every agent receives at
//! least `h` messages); at the end of the step, every agent that received at
//! least `h` messages draws a uniform sample of `h` of them without
//! replacement and adopts the most frequent opinion in the sample, breaking
//! ties uniformly at random. Agents with fewer than `h` received messages do
//! not change state.
//!
//! The classic formulation of \[9\] lets each agent *pull* the opinions of
//! `h` uniformly random agents per round; in the paper's push-only,
//! noise-on-every-message model the equivalent information is only available
//! by accumulating pushed messages over a few rounds, which is exactly how
//! the paper's own Stage 2 gathers its samples. For `h = 3` this is the
//! **3-majority dynamics** \[9\], the comparator most often cited alongside
//! the paper; larger `h` interpolates towards Stage 2 (which uses
//! `ℓ = Θ(1/ε²)`).
//!
//! The update is the backend's sample-majority decision operator
//! ([`PushBackend::resolve_sample_majority`](pushsim::PushBackend::resolve_sample_majority))
//! — the very same operator Stage 2 of the protocol uses, on every backend.

use plurality_core::{Decision, Phase};

/// One h-majority step: `2h` push rounds, then the sample majority of `h`
/// received messages.
///
/// # Panics
///
/// Panics if `h == 0`.
pub(crate) fn phase(h: u32) -> Phase {
    assert!(h > 0, "the sample size h must be positive");
    Phase {
        stage: None,
        rounds: 2 * u64::from(h),
        decision: Decision::SampleMajority(u64::from(h)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::{run, steps};
    use crate::RuleSpec;
    use noisy_channel::NoiseMatrix;
    use pushsim::{CountingNetwork, DeliverySemantics, Network, Opinion, PushBackend, SimConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_sample_size_is_rejected() {
        let _ = phase(0);
    }

    #[test]
    fn a_step_spans_2h_rounds_and_samples_h_messages() {
        let step = RuleSpec::HMajority { h: 5 }.phase();
        assert_eq!((step.rounds, step.decision), (10, Decision::SampleMajority(5)));
        assert_eq!(RuleSpec::ThreeMajority.phase(), phase(3));
    }

    #[test]
    fn consensus_is_absorbing_without_noise() {
        let noise = NoiseMatrix::identity(3).unwrap();
        let config = SimConfig::builder(60, 3).seed(1).build().unwrap();
        let mut net = Network::new(config, noise).unwrap();
        net.seed_counts(&[60, 0, 0]).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        steps(RuleSpec::ThreeMajority, &mut net, &mut rng, 10);
        assert!(net.distribution().is_consensus_on(Opinion::new(0)));
    }

    #[test]
    fn three_majority_amplifies_a_clear_majority_quickly() {
        let noise = NoiseMatrix::identity(2).unwrap();
        let config = SimConfig::builder(400, 2).seed(3).build().unwrap();
        let mut net = Network::new(config, noise).unwrap();
        net.seed_counts(&[280, 120]).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let outcome = run(RuleSpec::ThreeMajority, &mut net, &mut rng, 500);
        assert!(outcome.consensus_reached());
        assert_eq!(outcome.winning_opinion(), Some(Opinion::new(0)));
        // 3-majority converges in polylogarithmic time on easy instances:
        // it should be dramatically faster than the round limit.
        assert!(outcome.rounds() < 200, "took {} rounds", outcome.rounds());
    }

    #[test]
    fn counting_majority_dynamics_amplify_a_plurality() {
        // The same rule, on the counting backend at a population size the
        // agent backend could not sweep.
        let noise = NoiseMatrix::uniform(2, 0.4).unwrap();
        let config = SimConfig::builder(100_000, 2)
            .seed(1)
            .delivery(DeliverySemantics::Poissonized)
            .build()
            .unwrap();
        let mut net = CountingNetwork::new(config, noise).unwrap();
        net.seed_counts(&[70_000, 30_000]).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let outcome = run(RuleSpec::ThreeMajority, &mut net, &mut rng, 600);
        let dist = outcome.final_distribution();
        let share = dist.counts()[0] as f64 / dist.num_nodes() as f64;
        assert!(share > 0.9, "plurality share {share}: {dist}");
        assert_eq!(dist.num_nodes(), 100_000, "population must be conserved");
    }

    #[test]
    fn larger_h_needs_fewer_update_steps() {
        // With a larger sample the dynamics needs at most as many *update
        // steps* (each step of h-majority spans 2h rounds).
        let steps_with = |h: u32| {
            let noise = NoiseMatrix::identity(2).unwrap();
            let config = SimConfig::builder(300, 2).seed(5).build().unwrap();
            let mut net = Network::new(config, noise).unwrap();
            net.seed_counts(&[200, 100]).unwrap();
            let mut rng = StdRng::seed_from_u64(6);
            let rounds = run(RuleSpec::HMajority { h }, &mut net, &mut rng, 2_000).rounds();
            rounds.div_ceil(u64::from(2 * h))
        };
        let s3 = steps_with(3);
        let s15 = steps_with(15);
        assert!(s15 <= s3, "h=15 took {s15} steps vs h=3 {s3}");
    }
}
