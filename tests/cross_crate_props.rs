//! Cross-crate property-based tests: invariants that must hold across the
//! noise, simulator and protocol layers for randomly drawn configurations.
//!
//! The instances are kept deliberately small (a few hundred nodes, noiseless
//! or mildly noisy channels) so that the whole suite stays fast in debug
//! builds; the large-scale statistical claims live in the bench harness.

use noisy_plurality::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One unobserved run of `instance` on the agent backend.
fn run(
    params: &ProtocolParams,
    noise: &NoiseMatrix,
    instance: Instance<'_>,
) -> Result<Outcome, ProtocolError> {
    TwoStageProtocol::new(params.clone(), noise.clone())?
        .session()
        .run(ExecutionBackend::Agent, instance, &mut NoObserver)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Under a noiseless channel, the protocol always reaches consensus on
    /// the initial plurality opinion, whatever the (unique-plurality)
    /// initial configuration.
    #[test]
    fn noiseless_protocol_always_recovers_the_plurality(
        k in 2usize..5,
        seed in 0u64..1_000,
        shares in prop::collection::vec(10usize..60, 4),
    ) {
        // Build counts with a unique plurality on opinion 0.
        let mut counts: Vec<usize> = shares.into_iter().take(k).collect();
        while counts.len() < k {
            counts.push(10);
        }
        let max_other = counts[1..].iter().copied().max().unwrap_or(0);
        counts[0] = max_other + 20;
        let n: usize = counts.iter().sum::<usize>() + 50;

        let noise = NoiseMatrix::identity(k).unwrap();
        let params = ProtocolParams::builder(n, k)
            .epsilon(0.45)
            .seed(seed)
            .build()
            .unwrap();
        let outcome = run(&params, &noise, Instance::Plurality(&counts)).unwrap();
        prop_assert!(outcome.succeeded(), "counts {counts:?}: {}", outcome.final_distribution());
    }

    /// The bias reported in the final phase record always matches the final
    /// distribution, and message counts are consistent across records.
    #[test]
    fn outcome_bookkeeping_is_internally_consistent(
        seed in 0u64..1_000,
        eps_step in 1u32..4,
    ) {
        let eps = 0.25 + 0.05 * f64::from(eps_step);
        let noise = NoiseMatrix::uniform(3, eps).unwrap();
        let params = ProtocolParams::builder(300, 3)
            .epsilon(eps)
            .seed(seed)
            .build()
            .unwrap();
        let outcome = run(&params, &noise, Instance::Plurality(&[120, 90, 60])).unwrap();

        // Total messages = sum over phases.
        let total_from_records: u64 = outcome.phase_records().iter().map(|r| r.messages()).sum();
        prop_assert_eq!(total_from_records, outcome.messages());
        // Total rounds = sum over phases.
        let rounds_from_records: u64 = outcome.phase_records().iter().map(|r| r.rounds()).sum();
        prop_assert_eq!(rounds_from_records, outcome.rounds());
        // The last record's distribution equals the outcome's distribution.
        let last = outcome.phase_records().last().unwrap();
        prop_assert_eq!(last.distribution_after(), outcome.final_distribution());
        // Node conservation.
        let dist = outcome.final_distribution();
        prop_assert_eq!(dist.counts().iter().sum::<usize>() + dist.undecided(), 300);
    }

    /// For every matrix in the uniform family, the exact LP margin equals
    /// the closed-form `(ε + ε/(k−1))·δ`, and scaling δ scales the margin
    /// linearly — connecting the `noisy-lp`, `noisy-channel` and protocol
    /// layers on the quantity Theorem 1 depends on.
    #[test]
    fn uniform_family_margin_is_linear_in_delta(
        k in 2usize..6,
        eps_scale in 0.1f64..0.9,
        delta in 0.01f64..0.5,
    ) {
        let eps = eps_scale * (1.0 - 1.0 / k as f64);
        let p = NoiseMatrix::uniform(k, eps).unwrap();
        let closed_form = |d: f64| (eps + eps / (k as f64 - 1.0)) * d;
        let r1 = p.majority_preservation(0, delta).unwrap();
        let r2 = p.majority_preservation(0, delta / 2.0).unwrap();
        prop_assert!((r1.worst_margin() - closed_form(delta)).abs() < 1e-6);
        prop_assert!((r2.worst_margin() - closed_form(delta / 2.0)).abs() < 1e-6);
        prop_assert!((r1.worst_margin() - 2.0 * r2.worst_margin()).abs() < 1e-6);
    }

    /// The Stage 2 sample-majority operator, fed with samples drawn through
    /// the real simulator inboxes, amplifies a solid plurality rather than
    /// favouring a minority (Monte-Carlo check of the mechanism behind
    /// Proposition 1). The bias and sample size are chosen so the expected
    /// amplification dwarfs the sampling noise of one phase; a small
    /// statistical slack keeps the property deterministic in practice.
    #[test]
    fn sample_majority_never_favours_a_minority(
        seed in 0u64..1_000,
        bias_step in 2u32..6,
    ) {
        let bias = 0.05 * f64::from(bias_step);
        let n = 200usize;
        let majority = ((n as f64) * (1.0 + bias) / 2.0).round() as usize;
        let counts = [majority, n - majority];
        let noise = NoiseMatrix::uniform(2, 0.3).unwrap();
        let config = SimConfig::builder(n, 2).seed(seed).build().unwrap();
        let mut net = Network::new(config, noise).unwrap();
        net.seed_counts(&counts).unwrap();

        // One Stage-2-like phase: 2L rounds of pushing, then sample L.
        let sample_size = 61u32;
        net.begin_phase();
        for _ in 0..(2 * sample_size) {
            net.push_round(|_, s| s.opinion());
        }
        let inboxes = net.end_phase();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xABCD);
        let mut wins = [0u64; 2];
        for node in 0..n {
            if let Some(sample) = inboxes.sample_without_replacement(node, sample_size, &mut rng) {
                if let Some(winner) = Inboxes::majority_of_counts(&sample, &mut rng) {
                    wins[winner.index()] += 1;
                }
            }
        }
        // Allow 3-sigma slack on the node-level binomial fluctuation.
        let slack = 3.0 * (n as f64).sqrt();
        prop_assert!(
            wins[0] as f64 + slack >= wins[1] as f64,
            "bias {bias}: majority won {} nodes vs minority {}",
            wins[0],
            wins[1]
        );
    }
}
