//! End-to-end integration tests spanning all workspace crates: the full
//! protocol under different noise families, opinion counts and delivery
//! semantics, checked against the majority-preservation analysis.

use noisy_plurality::prelude::*;

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

/// The headline claim of Theorem 1 at a simulable scale: rumor spreading
/// succeeds for k ∈ {2, 3, 5} under uniform ε-noise.
#[test]
fn rumor_spreading_succeeds_across_opinion_counts() {
    for &k in &[2usize, 3, 5] {
        let eps = 0.35;
        let noise = NoiseMatrix::uniform(k, eps).expect("valid noise");
        let params = ProtocolParams::builder(500, k)
            .epsilon(eps)
            .seed(100 + k as u64)
            .build()
            .expect("valid params");
        let protocol = TwoStageProtocol::new(params, noise).expect("compatible dimensions");
        let outcome = protocol
            .session()
            .run(
                ExecutionBackend::Agent,
                Instance::Rumor(Opinion::new(k - 1)),
                &mut NoObserver,
            )
            .expect("run completes");
        assert!(
            outcome.succeeded(),
            "k = {k}: expected success, final = {}",
            outcome.final_distribution()
        );
    }
}

/// Theorem 2 at a simulable scale: plurality consensus recovers the
/// plurality opinion even when it holds well under half of the votes.
#[test]
fn plurality_consensus_without_absolute_majority() {
    let eps = 0.35;
    let k = 4;
    let noise = NoiseMatrix::uniform(k, eps).expect("valid noise");
    let params = ProtocolParams::builder(800, k)
        .epsilon(eps)
        .seed(11)
        .build()
        .expect("valid params");
    // Plurality (35%) is far from an absolute majority.
    let outcome =
        run(&params, &noise, Instance::Plurality(&[280, 200, 180, 140])).expect("run completes");
    assert!(
        outcome.succeeded(),
        "final = {}",
        outcome.final_distribution()
    );
    assert_eq!(outcome.winning_opinion(), Some(Opinion::new(0)));
}

/// The protocol works identically under the three delivery semantics of
/// Section 3.2 (processes O, B, P) — the empirical face of Claim 1/Lemma 3.
#[test]
fn all_delivery_semantics_solve_the_same_instance() {
    let eps = 0.35;
    for semantics in DeliverySemantics::ALL {
        let noise = NoiseMatrix::uniform(3, eps).expect("valid noise");
        let params = ProtocolParams::builder(500, 3)
            .epsilon(eps)
            .seed(21)
            .delivery(semantics)
            .build()
            .expect("valid params");
        let outcome =
            run(&params, &noise, Instance::Plurality(&[200, 150, 150])).expect("run completes");
        assert!(
            outcome.succeeded(),
            "process {} failed: {}",
            semantics.label(),
            outcome.final_distribution()
        );
    }
}

/// The m.p. analysis and the protocol agree on the Section 4 counterexample:
/// the noise destroys the plurality, and the protocol indeed converges away
/// from it (consensus on a wrong opinion or no consensus at all).
#[test]
fn counterexample_noise_defeats_the_protocol_as_predicted() {
    let bad = families::diagonally_dominant_counterexample(0.05).expect("valid matrix");
    // The LP certifies that a 0.1-biased distribution towards opinion 0 is
    // not preserved.
    let report = bad.majority_preservation(0, 0.1).expect("analysis runs");
    assert!(!report.preserves_majority());

    let params = ProtocolParams::builder(500, 3)
        .epsilon(0.05)
        .seed(31)
        .build()
        .expect("valid params");
    let outcome = run(&params, &bad, Instance::Plurality(&[220, 180, 100])).expect("run completes");
    assert!(
        !outcome.succeeded(),
        "the protocol should not recover a plurality the channel destroys: {}",
        outcome.final_distribution()
    );
}

/// Conversely, a matrix certified m.p. by the LP lets the protocol succeed —
/// here the cyclic ("close opinion") noise family with a mild switching
/// probability. (With a larger switching probability the same family stops
/// being m.p. at small biases, which the LP also detects.)
#[test]
fn cyclic_noise_is_mp_and_the_protocol_succeeds_under_it() {
    let mild = families::cyclic(4, 0.05).expect("valid matrix");
    let report = mild.majority_preservation(2, 0.05).expect("analysis runs");
    assert!(report.preserves_majority());
    assert!(
        report.max_epsilon() > 0.3,
        "mild cyclic noise should leave a healthy margin, got {}",
        report.max_epsilon()
    );

    // The same family with heavy switching fails the m.p. test at small
    // biases: neighbours of the plurality opinion soak up its losses.
    let heavy = families::cyclic(4, 0.15).expect("valid matrix");
    let heavy_report = heavy.majority_preservation(2, 0.05).expect("analysis runs");
    assert!(!heavy_report.preserves_majority());

    let params = ProtocolParams::builder(600, 4)
        .epsilon(0.25)
        .seed(41)
        .build()
        .expect("valid params");
    let outcome =
        run(&params, &mild, Instance::Plurality(&[150, 150, 210, 90])).expect("run completes");
    assert!(outcome.succeeded(), "final = {}", outcome.final_distribution());
    assert_eq!(outcome.winning_opinion(), Some(Opinion::new(2)));
}

/// The measured per-node memory stays within a small constant factor of the
/// paper's `log log n + log 1/ε` scale (Theorems 1 and 2).
#[test]
fn memory_footprint_matches_the_theorem_scale() {
    let eps = 0.35;
    let noise = NoiseMatrix::uniform(2, eps).expect("valid noise");
    let params = ProtocolParams::builder(800, 2)
        .epsilon(eps)
        .seed(51)
        .build()
        .expect("valid params");
    let outcome = run(&params, &noise, Instance::Rumor(Opinion::new(0))).expect("run completes");
    let measured_bits = outcome.memory().bits_per_node() as f64;
    let scale = bounds::memory_bound_bits(800, eps);
    assert!(
        measured_bits <= 16.0 * scale,
        "measured {measured_bits} bits vs scale {scale}"
    );
}

/// Round counts stay within a constant factor of the `log n / ε²` scale and
/// grow with n (Theorem 1's complexity claim, qualitatively).
#[test]
fn rounds_scale_with_log_n_over_eps_squared() {
    let eps = 0.4;
    let noise = NoiseMatrix::uniform(2, eps).expect("valid noise");
    let mut measured = Vec::new();
    for &n in &[300usize, 1_200] {
        let params = ProtocolParams::builder(n, 2)
            .epsilon(eps)
            .seed(61)
            .build()
            .expect("valid params");
        let outcome =
            run(&params, &noise, Instance::Rumor(Opinion::new(0))).expect("run completes");
        assert!(outcome.succeeded());
        let normalized = outcome.rounds() as f64 / bounds::rounds_bound(n, eps);
        measured.push(normalized);
    }
    // The normalized constants should be of the same order of magnitude.
    let ratio = measured[1] / measured[0];
    assert!(
        ratio > 0.3 && ratio < 3.0,
        "normalized round constants diverge: {measured:?}"
    );
}

/// Stage 1's guarantees (Lemma 4): starting from a single source, at the end
/// of Stage 1 every node is opinionated and the bias towards the source's
/// opinion is positive.
#[test]
fn stage1_records_show_full_activation_and_positive_bias() {
    let eps = 0.35;
    let noise = NoiseMatrix::uniform(3, eps).expect("valid noise");
    let params = ProtocolParams::builder(600, 3)
        .epsilon(eps)
        .seed(71)
        .build()
        .expect("valid params");
    let protocol = TwoStageProtocol::new(params, noise).expect("compatible");
    let outcome = protocol
        .session()
        .run(
            ExecutionBackend::Agent,
            Instance::Rumor(Opinion::new(0)),
            &mut NoObserver,
        )
        .expect("run completes");
    let last_stage1 = outcome
        .stage_records(StageId::One)
        .last()
        .expect("stage 1 ran");
    assert!(
        (last_stage1.opinionated_fraction_after() - 1.0).abs() < 1e-9,
        "not everyone opinionated after Stage 1: {}",
        last_stage1.distribution_after()
    );
    assert!(last_stage1.bias_after().unwrap() > 0.0);
    // And Stage 2 amplifies that bias to 1 (consensus).
    let last = outcome.phase_records().last().unwrap();
    assert!((last.bias_after().unwrap() - 1.0).abs() < 1e-9);
}
