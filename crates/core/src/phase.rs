//! The phase driver: the one loop behind every run.
//!
//! Every execution in the system is a sequence of [`Phase`]s — the
//! protocol's two stages and the baseline dynamics it is compared with
//! alike. A phase opens, every opinionated agent pushes its opinion in
//! each of the phase's rounds, the phase closes, and one [`Decision`] (one
//! of the backend's `resolve_*` operators) updates the opinions. Opinions
//! never change mid-phase, because the decision runs strictly after
//! `end_phase`, so pushing the live state each round is exactly the
//! paper's "push the opinion held at the beginning of the phase" rule.
//!
//! [`run_phases`] runs such a sequence on any [`PushBackend`] and alone
//! owns what happens at phase boundaries: the [`Observer`] calls, the
//! [`StopCondition`] checks, the [`PhaseSnapshot`]s, the [`PhaseRecord`]s
//! and the [`MemoryMeter`]. Stage 1 is one phase per scheduled length,
//! decided by the undecided agents' uniform adoption; Stage 2 is one phase
//! of `2ℓ` rounds per sample size `ℓ`, decided by sample majority; a
//! baseline dynamics is its rule's one phase, over and over.

use crate::memory::MemoryMeter;
use crate::observe::{Observer, PhaseSnapshot, RunProgress, StopCondition};
use crate::record::{PhaseRecord, StageId};
use pushsim::{AdoptionScope, Opinion, OpinionDistribution, PhaseObservation, PushBackend};
use rand::rngs::StdRng;

/// The decision operator that ends a phase: one of
/// [`PushBackend`]'s `resolve_*` operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// [`resolve_uniform_adoption`](PushBackend::resolve_uniform_adoption):
    /// Stage 1 over the undecided agents, the voter model over all agents.
    UniformAdoption(AdoptionScope),
    /// [`resolve_sample_majority`](PushBackend::resolve_sample_majority)
    /// with this sample size: Stage 2 and h-majority.
    SampleMajority(u64),
    /// [`resolve_undecided_state`](PushBackend::resolve_undecided_state):
    /// the undecided-state dynamics.
    UndecidedState,
    /// [`resolve_median`](PushBackend::resolve_median): the median rule.
    Median,
}

impl Decision {
    fn apply<B: PushBackend>(self, net: &mut B, rng: &mut StdRng) {
        match self {
            Decision::UniformAdoption(scope) => net.resolve_uniform_adoption(scope, rng),
            Decision::SampleMajority(sample_size) => {
                net.resolve_sample_majority(sample_size, rng);
            }
            Decision::UndecidedState => net.resolve_undecided_state(rng),
            Decision::Median => net.resolve_median(rng),
        }
    }
}

/// One phase of a run: push for `rounds` rounds, then apply `decision`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Phase {
    /// The protocol stage the phase belongs to; `None` for the steps of a
    /// baseline dynamics, which keep no [`PhaseRecord`] and leave the
    /// [`MemoryMeter`] alone.
    pub stage: Option<StageId>,
    /// Push rounds in the phase.
    pub rounds: u64,
    /// The operator that updates the opinions once the phase closes.
    pub decision: Decision,
}

/// The result of one run: a protocol execution or a baseline dynamics run.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    correct_opinion: Opinion,
    final_distribution: OpinionDistribution,
    rounds: u64,
    messages: u64,
    phase_records: Vec<PhaseRecord>,
    memory: MemoryMeter,
}

impl Outcome {
    /// The correct opinion of the instance: the source's opinion for rumor
    /// spreading, the initial plurality opinion for plurality consensus
    /// and the baseline dynamics.
    pub fn correct_opinion(&self) -> Opinion {
        self.correct_opinion
    }

    /// The opinion distribution at the end of the execution.
    pub fn final_distribution(&self) -> &OpinionDistribution {
        &self.final_distribution
    }

    /// `true` if every agent finished opinionated and supporting the same
    /// opinion (whichever it is).
    pub fn consensus_reached(&self) -> bool {
        self.final_distribution.is_consensus()
    }

    /// The final plurality opinion, if one exists (with consensus this is
    /// the unanimous opinion).
    pub fn winning_opinion(&self) -> Option<Opinion> {
        self.final_distribution.plurality()
    }

    /// `true` if the run succeeded: consensus was reached *on the correct
    /// opinion*.
    pub fn succeeded(&self) -> bool {
        self.final_distribution.is_consensus_on(self.correct_opinion)
    }

    /// Number of rounds the run executed.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Number of messages the run pushed.
    pub fn messages(&self) -> u64 {
        self.messages
    }

    /// Per-phase records of the staged phases, Stage 1 phases first.
    pub fn phase_records(&self) -> &[PhaseRecord] {
        &self.phase_records
    }

    /// The records of the given stage only.
    pub fn stage_records(&self, stage: StageId) -> impl Iterator<Item = &PhaseRecord> {
        self.phase_records.iter().filter(move |r| r.stage() == stage)
    }

    /// The bias towards the correct opinion at the end of every staged
    /// phase (`None` entries mean nobody was opinionated yet).
    pub fn bias_trajectory(&self) -> Vec<Option<f64>> {
        self.phase_records.iter().map(|r| r.bias_after()).collect()
    }

    /// The memory-accounting meter of the run.
    pub fn memory(&self) -> &MemoryMeter {
        &self.memory
    }
}

/// Runs `phases` on `net` (any [`PushBackend`]) until they run out or
/// `stop` fires at a phase boundary, and returns the run's [`Outcome`].
///
/// `reference` is the opinion the bias is measured against (the rumor's
/// opinion or the initial plurality), and `rng` drives the decisions.
/// Rounds and messages count from the call, whatever `net` ran before. The
/// stop condition is checked before every phase, on the state the last one
/// left (or the initial state), so a phase in progress always completes.
/// `observer` sees each phase begin and end, and a stage transition
/// between the last phase of one stage and the first of the next. It never
/// touches `rng` or the backend's delivery RNG, so attaching any observer
/// leaves the execution bit-identical. Staged phases keep a
/// [`PhaseRecord`] and feed the [`MemoryMeter`]; stage-less phases do
/// neither, so a dynamics run stays O(k) in memory however long it runs.
pub fn run_phases<B: PushBackend>(
    net: &mut B,
    phases: impl IntoIterator<Item = Phase>,
    reference: Opinion,
    rng: &mut StdRng,
    observer: &mut dyn Observer,
    stop: &StopCondition,
) -> Outcome {
    let (start_rounds, start_messages) = (net.rounds_executed(), net.messages_sent());
    let mut memory = MemoryMeter::new(net.num_opinions());
    let mut phase_records = Vec::new();
    let mut progress = RunProgress::for_stop(stop);
    progress.sync(0, net.is_consensus());
    // The previous phase's stage and index within that stage.
    let mut previous: Option<(Option<StageId>, usize)> = None;
    for phase in phases {
        if stop.should_stop(&progress) {
            break;
        }
        let index = match previous {
            Some((stage, index)) if stage == phase.stage => index + 1,
            _ => 0,
        };
        if let (Some((Some(from), _)), Some(to)) = (previous, phase.stage) {
            if from != to {
                observer.on_stage_transition(from, to);
            }
        }
        previous = Some((phase.stage, index));
        observer.on_phase_begin(phase.stage, index);
        net.begin_phase();
        let mut messages = 0u64;
        for _ in 0..phase.rounds {
            messages += net.push_opinionated_round().messages_sent();
        }
        net.end_phase();
        phase.decision.apply(net, rng);

        let distribution = net.distribution();
        let bias = distribution.bias_towards(reference);
        if let Some(stage) = phase.stage {
            if let Decision::SampleMajority(sample_size) = phase.decision {
                memory.record_sample_size(sample_size);
            }
            memory.record_counter(net.observation().max_inbox());
            memory.record_phase();
            phase_records.push(PhaseRecord::new(
                stage,
                index,
                phase.rounds,
                messages,
                distribution.clone(),
                reference,
            ));
        }
        let snapshot = PhaseSnapshot::new(
            phase.stage,
            index,
            phase.rounds,
            net.rounds_executed() - start_rounds,
            messages,
            net.messages_sent() - start_messages,
            distribution,
            bias,
        )
        .with_topology(net.config().topology().to_string());
        observer.on_phase_end(&snapshot);
        progress.note_phase(&snapshot);
    }
    let outcome = Outcome {
        correct_opinion: reference,
        final_distribution: net.distribution(),
        rounds: net.rounds_executed() - start_rounds,
        messages: net.messages_sent() - start_messages,
        phase_records,
        memory,
    };
    observer.on_finish();
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use noisy_channel::NoiseMatrix;
    use pushsim::{Network, SimConfig};
    use rand::SeedableRng;

    fn network(n: usize, seed: u64) -> Network {
        let noise = NoiseMatrix::uniform(2, 0.3).unwrap();
        let config = SimConfig::builder(n, 2).seed(seed).build().unwrap();
        let mut net = Network::new(config, noise).unwrap();
        net.seed_counts(&[120, 80]).unwrap();
        net
    }

    /// Every event the driver emits, in order.
    #[derive(Default)]
    struct Events(Vec<String>);

    impl Observer for Events {
        fn on_phase_begin(&mut self, stage: Option<StageId>, phase: usize) {
            self.0.push(format!("begin {stage:?} {phase}"));
        }
        fn on_phase_end(&mut self, snapshot: &PhaseSnapshot) {
            self.0.push(format!("end {}", snapshot.total_rounds()));
        }
        fn on_stage_transition(&mut self, from: StageId, to: StageId) {
            self.0.push(format!("{from} -> {to}"));
        }
        fn on_finish(&mut self) {
            self.0.push("finish".to_string());
        }
    }

    #[test]
    fn phases_are_indexed_per_stage_with_one_transition_between_stages() {
        let adopt = Decision::UniformAdoption(AdoptionScope::UndecidedOnly);
        let phase = |stage, rounds, decision| Phase {
            stage: Some(stage),
            rounds,
            decision,
        };
        let phases = [
            phase(StageId::One, 2, adopt),
            phase(StageId::One, 3, adopt),
            phase(StageId::Two, 6, Decision::SampleMajority(3)),
        ];
        let mut net = network(300, 1);
        let mut events = Events::default();
        let mut rng = StdRng::seed_from_u64(2);
        let stop = StopCondition::ScheduleExhausted;
        let outcome = run_phases(&mut net, phases, Opinion::new(0), &mut rng, &mut events, &stop);
        assert_eq!(
            events.0,
            [
                "begin Some(One) 0",
                "end 2",
                "begin Some(One) 1",
                "end 5",
                "stage 1 -> stage 2",
                "begin Some(Two) 0",
                "end 11",
                "finish"
            ]
        );
        assert_eq!(outcome.rounds(), 11);
        assert_eq!(outcome.phase_records().len(), 3);
        assert_eq!(outcome.memory().num_phases(), 3);
        assert_eq!(outcome.memory().max_sample_size(), 3);
    }

    #[test]
    fn stage_less_phases_keep_no_records_and_leave_the_meter_alone() {
        let step = Phase {
            stage: None,
            rounds: 1,
            decision: Decision::Median,
        };
        let mut net = network(300, 3);
        let mut events = Events::default();
        let mut rng = StdRng::seed_from_u64(4);
        let stop = StopCondition::MaxRounds(4);
        let outcome = run_phases(
            &mut net,
            std::iter::repeat(step),
            Opinion::new(0),
            &mut rng,
            &mut events,
            &stop,
        );
        assert_eq!(outcome.rounds(), 4, "the stop ends an endless sequence");
        assert_eq!(events.0.len(), 2 * 4 + 1);
        assert_eq!(events.0[6], "begin None 3");
        assert!(outcome.phase_records().is_empty());
        assert_eq!(outcome.memory(), &MemoryMeter::new(2));
    }

    #[test]
    fn a_stop_that_holds_up_front_runs_nothing() {
        let noise = NoiseMatrix::uniform(2, 0.3).unwrap();
        let config = SimConfig::builder(200, 2).seed(5).build().unwrap();
        let mut net = Network::new(config, noise).unwrap();
        net.seed_counts(&[200, 0]).unwrap();
        let mut rng = StdRng::seed_from_u64(6);
        let mut events = Events::default();
        let outcome = run_phases(
            &mut net,
            std::iter::repeat(Phase {
                stage: None,
                rounds: 1,
                decision: Decision::UndecidedState,
            }),
            Opinion::new(0),
            &mut rng,
            &mut events,
            &StopCondition::ConsensusReached,
        );
        assert_eq!(outcome.rounds(), 0);
        assert!(outcome.succeeded());
        assert_eq!(events.0, ["finish"]);
    }
}
