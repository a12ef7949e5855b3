//! Stage 2: sample-majority bias amplification (Section 3.1.2 of the paper).
//!
//! Each phase `j` of Stage 2 lasts `2L` rounds (`L = ℓ` for the first `T′`
//! phases, `L = ℓ′ = Θ(ε⁻² log n)` for the last one). During the phase every
//! opinionated agent pushes its current opinion in every round. At the end
//! of the phase, every agent that received at least `L` messages draws a
//! uniform random sample of `L` of them (without replacement) and switches
//! to the most frequent opinion in the sample, breaking ties uniformly at
//! random.
//!
//! Proposition 1 shows that each such phase multiplies the bias towards the
//! plurality opinion by a constant factor `> 1` (as long as the noise matrix
//! is (ε, δ)-majority-preserving), so after `T′ = ⌈log(√n / log n)⌉` phases
//! the bias exceeds 1/2 and the final long phase completes the convergence
//! (Lemma 12).
//!
//! Like Stage 1, the stage is a list of [`Phase`]s for the one phase
//! driver ([`run_phases`](crate::run_phases)), and hence
//! **backend-generic**: the sample-majority decision operator is
//! [`PushBackend::resolve_sample_majority`](pushsim::PushBackend::resolve_sample_majority),
//! which the agent-level backend implements per agent (a
//! multivariate-hypergeometric draw from the inbox) and the counting
//! backend implements with the count-level closed forms of process P (a
//! binomial threshold event plus `maj(Multinomial(L, h/H))` splits — see
//! `pushsim::counting`).

use crate::phase::{Decision, Phase};
use crate::record::StageId;

/// Stage 2's phases: one of `2L` rounds per entry `L` of `sample_sizes`,
/// each decided by the sample majority of `L` received messages.
pub(crate) fn phases(sample_sizes: &[u64]) -> impl Iterator<Item = Phase> + '_ {
    sample_sizes.iter().map(|&sample_size| Phase {
        stage: Some(StageId::Two),
        rounds: 2 * sample_size,
        decision: Decision::SampleMajority(sample_size),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observe::{NoObserver, StopCondition};
    use crate::phase::{run_phases, Outcome};
    use noisy_channel::NoiseMatrix;
    use pushsim::{
        CountingNetwork, DeliverySemantics, Network, Opinion, OpinionDistribution, PushBackend,
        SimConfig,
    };
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn network(n: usize, k: usize, eps: f64, seed: u64) -> Network {
        let noise = NoiseMatrix::uniform(k, eps).unwrap();
        let config = SimConfig::builder(n, k).seed(seed).build().unwrap();
        Network::new(config, noise).unwrap()
    }

    /// The stage alone, with no observer and no early stop.
    fn run_all<B: PushBackend>(
        net: &mut B,
        sample_sizes: &[u64],
        reference: Opinion,
        rng: &mut StdRng,
    ) -> Outcome {
        run_phases(
            net,
            phases(sample_sizes),
            reference,
            rng,
            &mut NoObserver,
            &StopCondition::ScheduleExhausted,
        )
    }

    #[test]
    fn stage2_amplifies_an_initial_bias_to_consensus() {
        let n = 600;
        let eps = 0.35;
        let mut net = network(n, 3, eps, 10);
        // 40% / 30% / 30% split: bias 0.1 towards opinion 0.
        net.seed_counts(&[240, 180, 180]).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        // A handful of amplification phases followed by one long phase.
        let ell = 61;
        let ell_final = 201;
        let sizes = vec![ell, ell, ell, ell, ell_final];
        let outcome = run_all(&mut net, &sizes, Opinion::new(0), &mut rng);
        let records = outcome.phase_records();
        assert_eq!(records.len(), sizes.len());
        let final_dist: OpinionDistribution = net.distribution();
        assert!(
            final_dist.is_consensus_on(Opinion::new(0)),
            "expected consensus on opinion 0, got {final_dist}"
        );
        assert_eq!(outcome.memory().max_sample_size(), ell_final);
    }

    #[test]
    fn bias_grows_monotonically_in_expectation() {
        // Run a single amplification phase many times and check that the
        // average bias after the phase exceeds the initial bias.
        let n = 500;
        let eps = 0.35;
        let initial_bias = 0.08;
        let majority = (n as f64 * (1.0 + initial_bias) / 2.0).round() as usize;
        let minority = n - majority;
        let mut total_bias_after = 0.0;
        let trials = 10;
        for seed in 0..trials {
            let mut net = network(n, 2, eps, 100 + seed);
            net.seed_counts(&[majority, minority]).unwrap();
            let mut rng = StdRng::seed_from_u64(200 + seed);
            let outcome = run_all(&mut net, &[41], Opinion::new(0), &mut rng);
            total_bias_after += outcome.phase_records()[0].bias_after().unwrap();
        }
        let avg = total_bias_after / trials as f64;
        let start = 2.0 * majority as f64 / n as f64 - 1.0;
        assert!(
            avg > start,
            "average bias after one phase ({avg:.3}) should exceed the initial bias ({start:.3})"
        );
    }

    #[test]
    fn counting_stage2_amplifies_an_initial_bias_to_consensus() {
        // The *same* generic run path, instantiated with the counting
        // backend.
        let n = 600;
        let eps = 0.35;
        let noise = NoiseMatrix::uniform(3, eps).unwrap();
        let config = SimConfig::builder(n, 3)
            .seed(10)
            .delivery(DeliverySemantics::Poissonized)
            .build()
            .unwrap();
        let mut net = CountingNetwork::new(config, noise).unwrap();
        net.seed_counts(&[240, 180, 180]).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let ell = 61;
        let ell_final = 201;
        let sizes = vec![ell, ell, ell, ell, ell_final];
        let outcome = run_all(&mut net, &sizes, Opinion::new(0), &mut rng);
        let records = outcome.phase_records();
        assert_eq!(records.len(), sizes.len());
        let final_dist = net.distribution();
        assert!(
            final_dist.is_consensus_on(Opinion::new(0)),
            "expected consensus on opinion 0, got {final_dist}"
        );
        assert_eq!(outcome.memory().max_sample_size(), ell_final);
        // Node conservation throughout.
        assert_eq!(final_dist.num_nodes(), n);
    }

    #[test]
    fn counting_stage2_conserves_population_even_with_scarce_messages() {
        // Tiny opinionated population, huge sample size: nobody can collect
        // enough messages, so nothing changes.
        let noise = NoiseMatrix::uniform(2, 0.3).unwrap();
        let config = SimConfig::builder(100, 2)
            .seed(12)
            .delivery(DeliverySemantics::Poissonized)
            .build()
            .unwrap();
        let mut net = CountingNetwork::new(config, noise).unwrap();
        net.seed_counts(&[2, 1]).unwrap();
        let before = net.distribution();
        let mut rng = StdRng::seed_from_u64(13);
        run_all(&mut net, &[1001], Opinion::new(0), &mut rng);
        assert_eq!(net.distribution().counts(), before.counts());
    }

    #[test]
    fn nodes_without_enough_messages_keep_their_opinion() {
        // With only 3 opinionated nodes and a huge sample size, nobody can
        // collect enough messages, so nothing changes.
        let mut net = network(100, 2, 0.3, 12);
        net.seed_counts(&[2, 1]).unwrap();
        let before = net.distribution();
        let mut rng = StdRng::seed_from_u64(13);
        run_all(&mut net, &[1001], Opinion::new(0), &mut rng);
        assert_eq!(net.distribution().counts(), before.counts());
    }

    #[test]
    fn undecided_nodes_are_recruited_by_stage2() {
        // Stage 2 is also what finishes off stragglers: undecided nodes that
        // receive enough messages adopt the sample majority.
        let n = 300;
        let mut net = network(n, 2, 0.4, 14);
        net.seed_counts(&[200, 40]).unwrap(); // 60 undecided
        let mut rng = StdRng::seed_from_u64(15);
        run_all(&mut net, &[31, 31, 101], Opinion::new(0), &mut rng);
        let dist = net.distribution();
        assert_eq!(dist.undecided(), 0, "stragglers should be recruited: {dist}");
        assert!(dist.is_consensus_on(Opinion::new(0)));
    }

    #[test]
    fn ties_do_not_crash_and_resolve_to_some_opinion() {
        // Perfectly tied initial configuration: Stage 2 still drives the
        // system to *some* consensus (symmetry is broken by randomness).
        let n = 200;
        let mut net = network(n, 2, 0.45, 16);
        net.seed_counts(&[100, 100]).unwrap();
        let mut rng = StdRng::seed_from_u64(17);
        let sizes = vec![31; 12];
        run_all(&mut net, &sizes, Opinion::new(0), &mut rng);
        let dist = net.distribution();
        assert_eq!(dist.undecided(), 0);
        // Not asserting *which* opinion wins — only that the system is in a
        // legal state and heavily concentrated.
        let max = dist.counts().iter().max().copied().unwrap();
        assert!(max as f64 / n as f64 > 0.9, "distribution {dist}");
    }
}
