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
//! The stage is **backend-generic**: it drives any
//! [`PushBackend`] through the shared phase lifecycle
//! (`begin_phase` → opinionated pushes → `end_phase` →
//! `resolve_uniform_adoption` over the undecided agents). Opinions never
//! change mid-phase — adoption happens strictly after `end_phase` — so
//! pushing the live state each round is exactly the paper's
//! "push the opinion held at the beginning of the phase" rule.

use crate::memory::MemoryMeter;
use crate::observe::{Observer, PhaseSnapshot, RunProgress, StopCondition};
use crate::record::{PhaseRecord, StageId};
use pushsim::{AdoptionScope, Opinion, PhaseObservation, PushBackend};
use rand::rngs::StdRng;

/// Runs Stage 1 phases on `net` (any [`PushBackend`]) until the schedule
/// is exhausted or `stop` fires at a phase boundary.
///
/// `phase_lengths` is the Stage 1 schedule (in rounds), `reference` is the
/// correct opinion used for bias bookkeeping, `rng` drives the agents'
/// adoption choices, and `meter` accumulates memory-footprint statistics.
/// `observer` is notified at every phase boundary with a cheap
/// [`PhaseSnapshot`]; observation never touches `rng` or the backend's
/// delivery RNG, so attaching any observer leaves the execution
/// bit-identical. `progress` carries the run's cumulative state for the
/// stop condition (shared with Stage 2).
///
/// Returns one [`PhaseRecord`] per executed phase.
#[allow(clippy::too_many_arguments)] // one argument per snapshot field
pub(crate) fn run<B: PushBackend>(
    net: &mut B,
    phase_lengths: &[u64],
    reference: Opinion,
    rng: &mut StdRng,
    meter: &mut MemoryMeter,
    observer: &mut dyn Observer,
    stop: &StopCondition,
    progress: &mut RunProgress,
) -> Vec<PhaseRecord> {
    let mut records = Vec::with_capacity(phase_lengths.len());
    for (phase_index, &length) in phase_lengths.iter().enumerate() {
        if stop.should_stop(progress) {
            break;
        }
        observer.on_phase_begin(Some(StageId::One), phase_index);
        net.begin_phase();
        let mut messages = 0u64;
        for _ in 0..length {
            messages += net.push_opinionated_round().messages_sent();
        }
        net.end_phase();

        // Undecided agents that received at least one message adopt one
        // uniformly random received opinion; they push from the next phase.
        net.resolve_uniform_adoption(AdoptionScope::UndecidedOnly, rng);

        meter.record_counter(net.observation().max_inbox());
        meter.record_phase();
        let record = PhaseRecord::new(
            StageId::One,
            phase_index,
            length,
            messages,
            net.distribution(),
            reference,
        );
        let snapshot = PhaseSnapshot::new(
            Some(StageId::One),
            phase_index,
            length,
            net.rounds_executed(),
            messages,
            net.messages_sent(),
            record.distribution_after().clone(),
            record.bias_after(),
        )
        .with_topology(net.config().topology().label());
        observer.on_phase_end(&snapshot);
        progress.note_phase(&snapshot);
        records.push(record);
    }
    records
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ProtocolParams;
    use noisy_channel::NoiseMatrix;
    use pushsim::{
        CountingNetwork, DeliverySemantics, Network, NodeState, OpinionDistribution, SimConfig,
    };
    use rand::SeedableRng;

    fn network(n: usize, k: usize, eps: f64, seed: u64) -> Network {
        let noise = NoiseMatrix::uniform(k, eps).unwrap();
        let config = SimConfig::builder(n, k).seed(seed).build().unwrap();
        Network::new(config, noise).unwrap()
    }

    /// The stage with no observer and no early stop (the pre-observation
    /// call shape).
    fn run_all<B: PushBackend>(
        net: &mut B,
        phase_lengths: &[u64],
        reference: Opinion,
        rng: &mut StdRng,
        meter: &mut MemoryMeter,
    ) -> Vec<PhaseRecord> {
        run(
            net,
            phase_lengths,
            reference,
            rng,
            meter,
            &mut crate::observe::NoObserver,
            &StopCondition::ScheduleExhausted,
            &mut RunProgress::new(),
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
        let mut meter = MemoryMeter::new(3);
        let records = run_all(
            &mut net,
            schedule.stage1_phase_lengths(),
            Opinion::new(1),
            &mut rng,
            &mut meter,
        );
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
        for r in &records {
            assert!(r.opinionated_fraction_after() >= last);
            last = r.opinionated_fraction_after();
        }
        assert!(meter.max_phase_counter() > 0);
        assert_eq!(meter.num_phases() as usize, records.len());
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
        let mut meter = MemoryMeter::new(2);
        run_all(
            &mut net,
            params.schedule().stage1_phase_lengths(),
            Opinion::new(0),
            &mut rng,
            &mut meter,
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
        let mut meter = MemoryMeter::new(2);
        let records = run_all(&mut net, &[10], Opinion::new(0), &mut rng, &mut meter);
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
        let mut meter = MemoryMeter::new(3);
        let records = run_all(
            &mut net,
            schedule.stage1_phase_lengths(),
            Opinion::new(1),
            &mut rng,
            &mut meter,
        );
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
        for r in &records {
            assert!(r.opinionated_fraction_after() >= last);
            last = r.opinionated_fraction_after();
        }
        assert!(meter.max_phase_counter() > 0);
    }

    #[test]
    fn newly_opinionated_nodes_do_not_push_within_their_adoption_phase() {
        // With exactly one opinionated node and one round per phase, at most
        // one message can be sent per phase, because adopters only start
        // pushing in the next phase.
        let mut net = network(50, 2, 0.3, 7);
        net.seed_rumor(0, Opinion::new(0)).unwrap();
        let mut rng = StdRng::seed_from_u64(8);
        let mut meter = MemoryMeter::new(2);
        let records = run_all(&mut net, &[1, 1], Opinion::new(0), &mut rng, &mut meter);
        assert_eq!(records[0].messages(), 1);
        // In phase 2 the source plus at most one adopter push.
        assert!(records[1].messages() <= 2);
    }
}
