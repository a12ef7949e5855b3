//! Statistical equivalence of the per-message and batched delivery paths,
//! plus exact conservation invariants for the batched engine.
//!
//! The batched engine replaces per-message channel draws with one
//! multinomial per opinion row (`end_phase` of processes B and P) and
//! replaces the agent-level population with counts (`CountingNetwork`).
//! Both transformations are distribution-preserving; these tests check
//! that empirically:
//!
//! * **conservation (exact)** — the batched process-B path delivers exactly
//!   the pushed message count, for every seed;
//! * **χ²-style equivalence (statistical)** — per-opinion delivery totals
//!   from the batched path match a hand-rolled per-message reference
//!   sampler, and the counting backend matches the agent-level backend,
//!   over many seeded phases with deterministic seeds (regression tests,
//!   not flaky ones).

use noisy_channel::NoiseMatrix;
use pushsim::{
    AdoptionScope, CountingNetwork, DeliverySemantics, Network, PushBackend, SimConfig,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn noise3() -> NoiseMatrix {
    NoiseMatrix::from_rows(vec![
        vec![0.7, 0.2, 0.1],
        vec![0.15, 0.6, 0.25],
        vec![0.05, 0.25, 0.7],
    ])
    .expect("valid noise")
}

/// Pooled chi-square statistic of observed vs expected category counts.
fn chi_square(observed: &[f64], expected: &[f64]) -> f64 {
    observed
        .iter()
        .zip(expected)
        .filter(|(_, &e)| e > 0.0)
        .map(|(&o, &e)| (o - e) * (o - e) / e)
        .sum()
}

#[test]
fn batched_delivery_conserves_messages_exactly() {
    // Conservation is an invariant, not a statistic: check it per seed.
    for seed in 0..200 {
        let config = SimConfig::builder(120, 3)
            .seed(seed)
            .delivery(DeliverySemantics::BallsIntoBins)
            .build()
            .unwrap();
        let mut net = Network::new(config, noise3()).unwrap();
        net.seed_counts(&[40, 25, 10]).unwrap();
        net.begin_phase();
        for _ in 0..3 {
            net.push_round(|_, s| s.opinion());
        }
        let inboxes = net.end_phase();
        assert_eq!(inboxes.total_messages(), 3 * 75, "seed {seed}");
        let per_node: u64 = (0..120).map(|u| u64::from(inboxes.received_total(u))).sum();
        assert_eq!(per_node, 3 * 75, "seed {seed}");
        let per_opinion: u64 = inboxes.totals_per_opinion().iter().sum();
        assert_eq!(per_opinion, 3 * 75, "seed {seed}");
    }
}

#[test]
fn counting_backend_conserves_pushes_exactly() {
    for seed in 0..200 {
        let config = SimConfig::builder(1_000, 3)
            .seed(seed)
            .delivery(DeliverySemantics::Poissonized)
            .build()
            .unwrap();
        let mut net = CountingNetwork::new(config, noise3()).unwrap();
        net.seed_counts(&[300, 200, 100]).unwrap();
        net.begin_phase();
        for _ in 0..2 {
            net.push_opinionated_round();
        }
        let tally = net.end_phase();
        // The noise re-colors but never creates or destroys messages.
        assert_eq!(tally.total(), 2 * 600, "seed {seed}");
        // And the population is conserved through an adoption step.
        let mut decide = StdRng::seed_from_u64(seed);
        net.resolve_uniform_adoption(AdoptionScope::UndecidedOnly, &mut decide);
        let live = net.opinion_counts().iter().sum::<u64>() + net.undecided();
        assert_eq!(live, 1_000, "seed {seed}");
    }
}

/// The batched multinomial recoloring must match a per-message reference
/// sampler in distribution. χ² over the k delivery categories, aggregated
/// over many phases; with deterministic seeds this is a regression test.
#[test]
fn batched_recoloring_matches_per_message_sampling_in_distribution() {
    let noise = noise3();
    let pending = [4_000u64, 2_500, 1_500];
    let phases = 60;

    // Reference: one channel draw per message (the pre-batching semantics).
    let mut rng = StdRng::seed_from_u64(1_234);
    let mut per_message_totals = [0u64; 3];
    for _ in 0..phases {
        for (opinion, &m) in pending.iter().enumerate() {
            for _ in 0..m {
                per_message_totals[noise.sample(opinion, &mut rng)] += 1;
            }
        }
    }

    // Batched: one multinomial per opinion row.
    let mut rng = StdRng::seed_from_u64(5_678);
    let mut batched_totals = [0u64; 3];
    for _ in 0..phases {
        for (opinion, &m) in pending.iter().enumerate() {
            for (t, c) in batched_totals
                .iter_mut()
                .zip(noise.sample_row_counts(opinion, m, &mut rng))
            {
                *t += c;
            }
        }
    }

    // Both must conserve and match the analytic expectation h = (c · P).
    let volume: u64 = pending.iter().sum::<u64>() * phases;
    assert_eq!(per_message_totals.iter().sum::<u64>(), volume);
    assert_eq!(batched_totals.iter().sum::<u64>(), volume);

    let pending_f: Vec<f64> = pending.iter().map(|&p| p as f64 * phases as f64).collect();
    let expected = noise.apply(&{
        let total: f64 = pending_f.iter().sum();
        pending_f.iter().map(|&p| p / total).collect::<Vec<_>>()
    });
    let expected_counts: Vec<f64> = expected.iter().map(|&e| e * volume as f64).collect();

    let obs_pm: Vec<f64> = per_message_totals.iter().map(|&c| c as f64).collect();
    let obs_b: Vec<f64> = batched_totals.iter().map(|&c| c as f64).collect();
    let chi_pm = chi_square(&obs_pm, &expected_counts);
    let chi_b = chi_square(&obs_b, &expected_counts);
    // 2 degrees of freedom: the 99.9th percentile is ≈ 13.8. Both samplers
    // must sit inside it, i.e. both are unbiased draws of the same
    // multinomial law.
    assert!(chi_pm < 13.8, "per-message sampler drifted: chi² {chi_pm:.2}");
    assert!(chi_b < 13.8, "batched sampler drifted: chi² {chi_b:.2}");
}

/// Process-P phase delivery: the counting backend's aggregate draw
/// (`Poisson(h_j)` + uniform scatter, collapsed to totals) must match the
/// agent-level backend's per-agent Poisson inboxes in distribution.
#[test]
fn counting_and_agent_poissonized_phases_agree_in_distribution() {
    let n = 800;
    let counts = [300usize, 200, 100];
    let phases = 120u64;

    let mut agent_totals = [0f64; 3];
    let mut agent_activated = 0f64;
    for seed in 0..phases {
        let config = SimConfig::builder(n, 3)
            .seed(seed)
            .delivery(DeliverySemantics::Poissonized)
            .build()
            .unwrap();
        let mut net = Network::new(config, noise3()).unwrap();
        net.seed_counts(&counts).unwrap();
        net.begin_phase();
        net.push_round(|_, s| s.opinion());
        let inboxes = net.end_phase();
        for (t, &c) in agent_totals.iter_mut().zip(&inboxes.totals_per_opinion()) {
            *t += c as f64;
        }
        agent_activated += (0..n).filter(|&u| inboxes.has_received(u)).count() as f64;
    }

    let mut counting_totals = [0f64; 3];
    let mut counting_adopted = 0u64;
    let mut counting_undecided = 0u64;
    for seed in 0..phases {
        let config = SimConfig::builder(n, 3)
            .seed(10_000 + seed)
            .delivery(DeliverySemantics::Poissonized)
            .build()
            .unwrap();
        let mut net = CountingNetwork::new(config, noise3()).unwrap();
        net.seed_counts(&counts).unwrap();
        net.begin_phase();
        net.push_opinionated_round();
        let tally = net.end_phase();
        // Expected delivered volume per opinion under process P is h_j (the
        // Poisson aggregate has mean h_j); use the realized post-noise
        // totals as the counting backend's delivery statistic.
        for (t, &h) in counting_totals.iter_mut().zip(&tally.received_totals()) {
            *t += h as f64;
        }
        // The counting backend's sampled activation: an undecided agent
        // adopts exactly when it received a message, so the adopted share of
        // the undecided agents estimates the activation probability.
        let before = net.undecided();
        let mut decide = StdRng::seed_from_u64(20_000 + seed);
        net.resolve_uniform_adoption(AdoptionScope::UndecidedOnly, &mut decide);
        counting_adopted += before - net.undecided();
        counting_undecided += before;
    }

    // Per-opinion mean delivered totals agree within a few standard errors.
    for j in 0..3 {
        let a = agent_totals[j] / phases as f64;
        let c = counting_totals[j] / phases as f64;
        let rel = (a - c).abs() / a.max(1.0);
        assert!(rel < 0.05, "opinion {j}: agent {a:.1} vs counting {c:.1}");
    }
    // Activation probability (≥ 1 message) agrees.
    let a_act = agent_activated / (phases as f64 * n as f64);
    let c_act = counting_adopted as f64 / counting_undecided as f64;
    assert!(
        (a_act - c_act).abs() < 0.02,
        "activation: agent {a_act:.4} vs counting {c_act:.4}"
    );
}

/// End-to-end: on identical instances, the two backends reach consensus on
/// the same opinion at comparable rates (the backend equivalence statement
/// at the level the experiments consume).
#[test]
fn backends_agree_on_protocol_scale_statistics() {
    // A biased instance both backends must solve essentially always: 60/25/15.
    let n = 600;
    let counts = [360usize, 150, 90];
    let trials = 10u64;
    let mut agent_wins = 0;
    let mut counting_wins = 0;
    for seed in 0..trials {
        let noise = NoiseMatrix::uniform(3, 0.35).unwrap();
        let config = SimConfig::builder(n, 3)
            .seed(seed)
            .delivery(DeliverySemantics::Poissonized)
            .build()
            .unwrap();
        // Mini-protocol: 8 sample-majority phases of the kind Stage 2 runs,
        // applied through each backend's native machinery.
        let mut agent = Network::new(config.clone(), noise.clone()).unwrap();
        agent.seed_counts(&counts).unwrap();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xFEED);
        for _ in 0..8 {
            let sample_size = 41u32;
            agent.begin_phase();
            for _ in 0..(2 * sample_size) {
                agent.push_round(|_, s| s.opinion());
            }
            let inboxes = agent.end_phase();
            let mut switches = Vec::new();
            for node in 0..n {
                if let Some(sample) =
                    inboxes.sample_without_replacement(node, sample_size, &mut rng)
                {
                    if let Some(op) = pushsim::Inboxes::majority_of_counts(&sample, &mut rng) {
                        switches.push((node, op));
                    }
                }
            }
            for (node, op) in switches {
                agent.set_opinion(node, Some(op));
            }
        }
        if agent.distribution().counts()[0] as f64 > 0.9 * n as f64 {
            agent_wins += 1;
        }

        let mut counting = CountingNetwork::new(config, noise).unwrap();
        counting.seed_counts(&counts).unwrap();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xFEED);
        for _ in 0..8 {
            let sample_size = 41u64;
            counting.begin_phase();
            for _ in 0..(2 * sample_size) {
                counting.push_opinionated_round();
            }
            counting.end_phase();
            counting.resolve_sample_majority(sample_size, &mut rng);
        }
        if counting.distribution().counts()[0] as f64 > 0.9 * n as f64 {
            counting_wins += 1;
        }
    }
    assert!(
        agent_wins >= trials - 1,
        "agent backend only won {agent_wins}/{trials}"
    );
    assert!(
        counting_wins >= trials - 1,
        "counting backend only won {counting_wins}/{trials}"
    );
}
