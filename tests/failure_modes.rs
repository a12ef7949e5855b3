//! Failure-injection and adversarial-configuration tests: the protocol and
//! its substrates must degrade predictably, not silently.

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

/// Resetting noise towards a fixed opinion overwhelms any plurality of a
/// different opinion: the m.p. analysis predicts it, and the protocol indeed
/// converges to the reset target instead of the initial plurality.
#[test]
fn reset_noise_hijacks_consensus_towards_its_target() {
    let noise = families::reset_to_opinion(3, 0.5, 2).expect("valid matrix");
    let report = noise.majority_preservation(0, 0.2).expect("analysis runs");
    assert!(!report.preserves_majority());

    let params = ProtocolParams::builder(500, 3)
        .epsilon(0.2)
        .seed(1)
        .build()
        .expect("valid params");
    let outcome =
        run(&params, &noise, Instance::Plurality(&[250, 150, 100])).expect("run completes");
    assert!(!outcome.succeeded());
    // The hijacker wins: the final plurality is the reset target.
    assert_eq!(outcome.winning_opinion(), Some(Opinion::new(2)));
}

/// Degenerate and malformed configurations are rejected with errors, never
/// panics.
#[test]
fn malformed_configurations_are_rejected_cleanly() {
    // k = 1 systems are meaningless.
    assert!(NoiseMatrix::uniform(1, 0.1).is_err());
    assert!(ProtocolParams::builder(100, 1).build().is_err());
    // Epsilon outside (0, 1).
    assert!(ProtocolParams::builder(100, 2).epsilon(0.0).build().is_err());
    assert!(ProtocolParams::builder(100, 2).epsilon(1.0).build().is_err());
    // Tied initial plurality.
    let noise = NoiseMatrix::uniform(2, 0.2).expect("valid noise");
    let params = ProtocolParams::builder(100, 2)
        .epsilon(0.2)
        .build()
        .expect("valid params");
    assert!(run(&params, &noise, Instance::Plurality(&[50, 50])).is_err());
    // Counts exceeding n.
    assert!(run(&params, &noise, Instance::Plurality(&[90, 20])).is_err());
    // Mismatched noise dimension.
    let wrong = NoiseMatrix::uniform(3, 0.2).expect("valid noise");
    assert!(TwoStageProtocol::new(params, wrong).is_err());
}

/// An all-undecided network (no initial opinions at all) is rejected for
/// plurality consensus rather than looping forever.
#[test]
fn empty_initial_opinion_set_is_rejected() {
    let noise = NoiseMatrix::uniform(2, 0.2).expect("valid noise");
    let params = ProtocolParams::builder(100, 2)
        .epsilon(0.2)
        .build()
        .expect("valid params");
    let err = run(&params, &noise, Instance::Plurality(&[0, 0])).unwrap_err();
    assert!(matches!(err, ProtocolError::BadInitialCounts { .. }));
}

/// Extremely weak noise margins (ε far below what the schedule was tuned
/// for) leave the outcome unreliable — but the run still terminates within
/// its schedule and reports an honest (non-)success.
#[test]
fn undersized_epsilon_terminates_and_reports_honestly() {
    // The channel barely preserves anything: eps_matrix = 0.02, while the
    // schedule is tuned for eps = 0.4 (far too optimistic).
    let noise = NoiseMatrix::uniform(2, 0.02).expect("valid noise");
    let params = ProtocolParams::builder(300, 2)
        .epsilon(0.4)
        .seed(3)
        .build()
        .expect("valid params");
    let schedule_rounds = params.schedule().total_rounds();
    let outcome = run(&params, &noise, Instance::Plurality(&[160, 120])).expect("run completes");
    assert_eq!(outcome.rounds(), schedule_rounds);
    // No assertion on success: the point is termination + honest reporting.
    let bias = outcome
        .final_distribution()
        .bias_towards(outcome.correct_opinion());
    assert!(bias.is_some());
}

/// Node-level invariants hold even under the hostile reset channel: node
/// counts are conserved and every agent ends in a legal state.
#[test]
fn node_conservation_under_hostile_noise() {
    let noise = families::reset_to_opinion(4, 0.9, 1).expect("valid matrix");
    let params = ProtocolParams::builder(400, 4)
        .epsilon(0.3)
        .seed(5)
        .build()
        .expect("valid params");
    let outcome =
        run(&params, &noise, Instance::Plurality(&[100, 90, 90, 80])).expect("run completes");
    let dist = outcome.final_distribution();
    assert_eq!(dist.num_nodes(), 400);
    assert_eq!(dist.counts().iter().sum::<usize>() + dist.undecided(), 400);
}

/// The Appendix D regime, qualitatively: if Stage 2 is run directly from a
/// tiny opinionated set whose size is far below Θ(log n / ε²), the guarantee
/// evaporates; with an adequately sized set it holds. (Theorem 2's |S|
/// requirement.)
#[test]
fn stage2_needs_a_large_enough_opinionated_set() {
    let eps = 0.35;
    let noise = NoiseMatrix::uniform(2, eps).expect("valid noise");
    let params = ProtocolParams::builder(800, 2)
        .epsilon(eps)
        .seed(7)
        .build()
        .expect("valid params");
    let protocol = TwoStageProtocol::new(params, noise).expect("compatible");

    // Adequate set: most of the network is opinionated with a solid bias —
    // the "majority consensus subroutine" setting of Theorem 2.
    let good = protocol
        .session()
        .run(
            ExecutionBackend::Agent,
            Instance::Stage2(&[480, 320]),
            &mut NoObserver,
        )
        .expect("run completes");
    assert!(good.succeeded(), "final = {}", good.final_distribution());

    // Tiny set: 8 opinionated nodes. Most agents never collect ell messages
    // in the early phases, and the per-phase majority signal is swamped by
    // noise; the protocol should not be able to certify success reliably.
    // We only assert the run terminates and stays in a legal state (the
    // quantitative version is experiment F7 in the bench harness).
    let tiny = protocol
        .session()
        .run(
            ExecutionBackend::Agent,
            Instance::Stage2(&[5, 3]),
            &mut NoObserver,
        )
        .expect("run completes");
    let dist = tiny.final_distribution();
    assert_eq!(dist.counts().iter().sum::<usize>() + dist.undecided(), 800);
}
