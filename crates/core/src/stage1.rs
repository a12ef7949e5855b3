//! Stage 1: opinion acquisition (Section 3.1.1 of the paper).
//!
//! During each phase of Stage 1,
//!
//! * every agent that already supported an opinion *at the beginning of the
//!   phase* pushes that opinion in every round of the phase;
//! * every agent that was undecided at the beginning of the phase and
//!   receives at least one message during the phase adopts, at the end of
//!   the phase, an opinion chosen uniformly at random (counting
//!   multiplicities) among the messages it received, and starts pushing it
//!   from the next phase on.
//!
//! Opinionated agents never change their opinion during Stage 1. The phase
//! lengths follow the schedule computed by
//! [`ProtocolParams::schedule`](crate::ProtocolParams::schedule): phase 0
//! has `(s/ε²)·ln n` rounds, phases `1..=T` have `β/ε²` rounds, and phase
//! `T+1` has `(φ/ε²)·ln n` rounds, so that the number of opinionated agents
//! multiplies by roughly `β/ε² + 1` per middle phase (Claims 2 and 3) while
//! the bias towards the correct opinion degrades by at most a factor `ε/2`
//! per phase (Lemma 7), ending at `Ω(√(log n / n))` (Lemma 4).
//!
//! The stage is a list of [`Phase`]s for the one phase driver
//! ([`run_phases`](crate::run_phases)), which runs them on any backend:
//! each phase pushes for its scheduled length and ends in
//! `resolve_uniform_adoption` over the undecided agents. Opinions never
//! change mid-phase — adoption happens strictly after `end_phase` — so
//! pushing the live state each round is exactly the paper's
//! "push the opinion held at the beginning of the phase" rule.

use crate::phase::{Decision, Phase};
use crate::record::StageId;
use pushsim::AdoptionScope;

/// Stage 1's phases: one per entry of `phase_lengths` (the Stage 1
/// schedule, in rounds), each decided by the undecided agents' uniform
/// adoption.
pub(crate) fn phases(phase_lengths: &[u64]) -> impl Iterator<Item = Phase> + '_ {
    phase_lengths.iter().map(|&rounds| Phase {
        stage: Some(StageId::One),
        rounds,
        decision: Decision::UniformAdoption(AdoptionScope::UndecidedOnly),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observe::{NoObserver, StopCondition};
    use crate::params::ProtocolParams;
    use crate::phase::{run_phases, Outcome};
    use noisy_channel::NoiseMatrix;
    use pushsim::{
        CountingNetwork, DeliverySemantics, Network, NodeState, Opinion, OpinionDistribution,
        PushBackend, SimConfig,
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
        phase_lengths: &[u64],
        reference: Opinion,
        rng: &mut StdRng,
    ) -> Outcome {
        run_phases(
            net,
            phases(phase_lengths),
            reference,
            rng,
            &mut NoObserver,
            &StopCondition::ScheduleExhausted,
        )
    }

    #[test]
    fn stage1_activates_every_node_from_a_single_source() {
        let n = 400;
        let eps = 0.3;
        let params = ProtocolParams::builder(n, 3).epsilon(eps).build().unwrap();
        let schedule = params.schedule();
        let mut net = network(n, 3, eps, 1);
        net.seed_rumor(0, Opinion::new(1)).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let outcome = run_all(
            &mut net,
            schedule.stage1_phase_lengths(),
            Opinion::new(1),
            &mut rng,
        );
        let records = outcome.phase_records();
        assert_eq!(records.len(), schedule.stage1_phases());
        let final_dist = net.distribution();
        assert_eq!(
            final_dist.undecided(),
            0,
            "all nodes should be opinionated after Stage 1: {final_dist}"
        );
        // The correct opinion should hold a positive bias at the end of
        // Stage 1 (Lemma 4). With these parameters the bias is comfortably
        // positive in practice.
        let bias = final_dist.bias_towards(Opinion::new(1)).unwrap();
        assert!(bias > 0.0, "bias {bias} should be positive");
        // Activation is monotone non-decreasing across phases.
        let mut last = 0.0;
        for r in records {
            assert!(r.opinionated_fraction_after() >= last);
            last = r.opinionated_fraction_after();
        }
        assert!(outcome.memory().max_phase_counter() > 0);
        assert_eq!(outcome.memory().num_phases() as usize, records.len());
    }

    #[test]
    fn opinionated_nodes_never_change_opinion_during_stage1() {
        let n = 200;
        let eps = 0.3;
        let mut net = network(n, 2, eps, 3);
        // Seed a sizeable minority of opinion 1 and majority of opinion 0.
        net.seed_counts(&[60, 40]).unwrap();
        let before: Vec<NodeState> = net.states().to_vec();
        let params = ProtocolParams::builder(n, 2).epsilon(eps).build().unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        run_all(
            &mut net,
            params.schedule().stage1_phase_lengths(),
            Opinion::new(0),
            &mut rng,
        );
        for (node, state) in before.iter().enumerate() {
            if let Some(o) = state.opinion() {
                assert_eq!(
                    net.state(node).opinion(),
                    Some(o),
                    "node {node} changed opinion during Stage 1"
                );
            }
        }
    }

    #[test]
    fn a_phase_with_no_senders_changes_nothing() {
        let mut net = network(50, 2, 0.3, 5);
        // Nobody is opinionated: no messages are ever sent.
        let mut rng = StdRng::seed_from_u64(6);
        let outcome = run_all(&mut net, &[10], Opinion::new(0), &mut rng);
        let records = outcome.phase_records();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].messages(), 0);
        let dist: OpinionDistribution = net.distribution();
        assert_eq!(dist.opinionated(), 0);
        assert_eq!(records[0].bias_after(), None);
    }

    #[test]
    fn counting_stage1_activates_every_node_from_a_single_source() {
        // The *same* generic run path, instantiated with the counting
        // backend instead of the agent-level one.
        let n = 400;
        let eps = 0.3;
        let params = ProtocolParams::builder(n, 3).epsilon(eps).build().unwrap();
        let schedule = params.schedule();
        let noise = NoiseMatrix::uniform(3, eps).unwrap();
        let config = SimConfig::builder(n, 3)
            .seed(1)
            .delivery(DeliverySemantics::Poissonized)
            .build()
            .unwrap();
        let mut net = CountingNetwork::new(config, noise).unwrap();
        net.seed_rumor_at(0, Opinion::new(1)).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let outcome = run_all(
            &mut net,
            schedule.stage1_phase_lengths(),
            Opinion::new(1),
            &mut rng,
        );
        let records = outcome.phase_records();
        assert_eq!(records.len(), schedule.stage1_phases());
        let final_dist = net.distribution();
        assert_eq!(
            final_dist.undecided(),
            0,
            "all nodes should be opinionated after counting Stage 1: {final_dist}"
        );
        assert!(final_dist.bias_towards(Opinion::new(1)).unwrap() > 0.0);
        // Activation is monotone non-decreasing across phases.
        let mut last = 0.0;
        for r in records {
            assert!(r.opinionated_fraction_after() >= last);
            last = r.opinionated_fraction_after();
        }
        assert!(outcome.memory().max_phase_counter() > 0);
    }

    #[test]
    fn newly_opinionated_nodes_do_not_push_within_their_adoption_phase() {
        // With exactly one opinionated node and one round per phase, at most
        // one message can be sent per phase, because adopters only start
        // pushing in the next phase.
        let mut net = network(50, 2, 0.3, 7);
        net.seed_rumor(0, Opinion::new(0)).unwrap();
        let mut rng = StdRng::seed_from_u64(8);
        let outcome = run_all(&mut net, &[1, 1], Opinion::new(0), &mut rng);
        let records = outcome.phase_records();
        assert_eq!(records[0].messages(), 1);
        // In phase 2 the source plus at most one adopter push.
        assert!(records[1].messages() <= 2);
    }
}
