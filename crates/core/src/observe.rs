//! The observation layer: watch a run phase by phase, and stop it early.
//!
//! The protocol's most interesting claims are *trajectory-shaped* — the
//! per-phase bias amplification of Lemmas 7 and 12, Stage 1's activation
//! growth (Claims 2–3), the majority-preservation boundary — so executions
//! must be observable while they run, not only summarized afterwards. This
//! module provides the two pieces:
//!
//! * [`Observer`] — a callback trait notified at phase boundaries with a
//!   cheap [`PhaseSnapshot`] (built from the O(k) population tallies both
//!   simulation backends already maintain; no per-agent scan is ever
//!   performed for observation). Attaching an observer **never** touches
//!   any RNG stream: a run with an observer produces bit-for-bit the same
//!   [`Outcome`](crate::Outcome) as a run without one.
//! * [`StopCondition`] — a composable early-exit rule evaluated at phase
//!   boundaries, replacing hard-coded round budgets: stop after a maximum
//!   number of rounds, on consensus, once the bias towards the reference
//!   opinion reaches a threshold, or when the bias plateaus.
//!
//! Both are served by the one phase driver, [`run_phases`](crate::run_phases),
//! which every run goes through: protocol runs attach observers through
//! [`Session`](crate::Session), the baseline dynamics through
//! `RuleSpec::run` in the `opinion-dynamics` crate. The driver keeps the
//! run's progress (rounds, consensus, recent biases) so stop conditions
//! are evaluated without rescanning the population. Ready-made observers
//! (trajectory recording, streaming statistics, JSONL sinks) live in the
//! `gossip-analysis` crate.

use crate::record::StageId;
use pushsim::OpinionDistribution;

/// A cheap, self-contained snapshot of the system at the end of one phase.
///
/// Built from the backend's O(k) population tallies: constructing a
/// snapshot costs O(k) time and allocation, independent of the population
/// size, so per-phase observation is free relative to the phase itself
/// (which costs at least one full round of pushes).
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseSnapshot {
    stage: Option<StageId>,
    phase: usize,
    rounds: u64,
    total_rounds: u64,
    messages: u64,
    total_messages: u64,
    distribution: OpinionDistribution,
    bias: Option<f64>,
    topology: String,
}

impl PhaseSnapshot {
    /// Assembles a snapshot. `stage` is `None` for stage-less executions
    /// (the baseline dynamics); `bias` is measured towards the run's
    /// reference opinion and `None` while nobody is opinionated. The
    /// topology label defaults to `"complete"` (the paper's model); runs
    /// on other topologies attach theirs with
    /// [`with_topology`](Self::with_topology).
    #[allow(clippy::too_many_arguments)] // one argument per snapshot field
    pub fn new(
        stage: Option<StageId>,
        phase: usize,
        rounds: u64,
        total_rounds: u64,
        messages: u64,
        total_messages: u64,
        distribution: OpinionDistribution,
        bias: Option<f64>,
    ) -> Self {
        Self {
            stage,
            phase,
            rounds,
            total_rounds,
            messages,
            total_messages,
            distribution,
            bias,
            topology: "complete".to_string(),
        }
    }

    /// Attaches the label of the communication topology the run executes
    /// on (`"complete"`, `"ring"`, `"regular(8)"`, …), so trajectory
    /// output records which graph produced it.
    #[must_use]
    pub fn with_topology(mut self, label: impl Into<String>) -> Self {
        self.topology = label.into();
        self
    }

    /// The stage the phase belongs to (`None` for stage-less executions
    /// such as the baseline dynamics, where every step is one "phase").
    pub fn stage(&self) -> Option<StageId> {
        self.stage
    }

    /// The zero-based phase index within its stage (or the step index for
    /// stage-less executions).
    pub fn phase(&self) -> usize {
        self.phase
    }

    /// Rounds executed during this phase.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Rounds executed since the start of the run, this phase included.
    pub fn total_rounds(&self) -> u64 {
        self.total_rounds
    }

    /// Messages pushed during this phase.
    pub fn messages(&self) -> u64 {
        self.messages
    }

    /// Messages pushed since the start of the run, this phase included.
    pub fn total_messages(&self) -> u64 {
        self.total_messages
    }

    /// The opinion distribution at the end of the phase.
    pub fn distribution(&self) -> &OpinionDistribution {
        &self.distribution
    }

    /// The fraction of agents that were opinionated at the end of the
    /// phase.
    pub fn opinionated_fraction(&self) -> f64 {
        self.distribution.opinionated_fraction()
    }

    /// The bias towards the run's reference opinion at the end of the
    /// phase (Definition 1), or `None` if nobody was opinionated.
    pub fn bias(&self) -> Option<f64> {
        self.bias
    }

    /// The label of the communication topology the run executes on
    /// (`"complete"` unless the run attached another with
    /// [`with_topology`](Self::with_topology)).
    pub fn topology(&self) -> &str {
        &self.topology
    }

    /// `true` if every agent supported the same opinion at the end of the
    /// phase.
    pub fn is_consensus(&self) -> bool {
        self.distribution.is_consensus()
    }
}

/// A callback interface notified as a run progresses.
///
/// All methods have empty default bodies, so an observer implements only
/// the events it cares about. Observers receive immutable snapshots and no
/// RNG access: attaching one cannot perturb an execution.
pub trait Observer {
    /// A phase is about to start. `stage` is `None` for stage-less
    /// executions (the baseline dynamics).
    fn on_phase_begin(&mut self, stage: Option<StageId>, phase: usize) {
        let _ = (stage, phase);
    }

    /// A phase finished (its decision operator included); `snapshot`
    /// describes the system at the phase boundary.
    fn on_phase_end(&mut self, snapshot: &PhaseSnapshot) {
        let _ = snapshot;
    }

    /// The protocol moved from one stage to the next (emitted between the
    /// last Stage 1 phase and the first Stage 2 phase, unless a stop
    /// condition ended the run first).
    fn on_stage_transition(&mut self, from: StageId, to: StageId) {
        let _ = (from, to);
    }

    /// The run finished (schedule exhausted or a stop condition fired).
    fn on_finish(&mut self) {}
}

/// The do-nothing observer: the observer-free hot path.
///
/// Observer callbacks fire once per *phase* (never per round or per
/// agent), so even through dynamic dispatch the no-op calls vanish against
/// the cost of the phase itself; the `pushsim_observer_dispatch` benchmark
/// group guards this.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoObserver;

impl Observer for NoObserver {}

impl Observer for &mut dyn Observer {
    fn on_phase_begin(&mut self, stage: Option<StageId>, phase: usize) {
        (**self).on_phase_begin(stage, phase);
    }

    fn on_phase_end(&mut self, snapshot: &PhaseSnapshot) {
        (**self).on_phase_end(snapshot);
    }

    fn on_stage_transition(&mut self, from: StageId, to: StageId) {
        (**self).on_stage_transition(from, to);
    }

    fn on_finish(&mut self) {
        (**self).on_finish();
    }
}

/// Broadcasts every event to several observers, in order.
pub struct Fanout<'a> {
    observers: Vec<&'a mut dyn Observer>,
}

impl<'a> Fanout<'a> {
    /// Builds a fanout over the given observers.
    pub fn new(observers: Vec<&'a mut dyn Observer>) -> Self {
        Self { observers }
    }
}

impl Observer for Fanout<'_> {
    fn on_phase_begin(&mut self, stage: Option<StageId>, phase: usize) {
        for o in &mut self.observers {
            o.on_phase_begin(stage, phase);
        }
    }

    fn on_phase_end(&mut self, snapshot: &PhaseSnapshot) {
        for o in &mut self.observers {
            o.on_phase_end(snapshot);
        }
    }

    fn on_stage_transition(&mut self, from: StageId, to: StageId) {
        for o in &mut self.observers {
            o.on_stage_transition(from, to);
        }
    }

    fn on_finish(&mut self) {
        for o in &mut self.observers {
            o.on_finish();
        }
    }
}

/// A composable early-exit rule, evaluated at phase boundaries.
///
/// The default, [`ScheduleExhausted`](StopCondition::ScheduleExhausted),
/// never stops early: the run executes its full schedule exactly as the
/// budget-less API always did. All other variants end the run at the first
/// phase boundary where they hold; the run's
/// [`Outcome`](crate::Outcome) then simply contains fewer phase records
/// and rounds.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum StopCondition {
    /// Never stop early — run the complete schedule (the default).
    #[default]
    ScheduleExhausted,
    /// Stop once at least this many rounds have run (checked at phase
    /// boundaries, so a phase in progress always completes).
    MaxRounds(u64),
    /// Stop once every agent supports the same opinion.
    ConsensusReached,
    /// Stop once the bias towards the reference opinion reaches the given
    /// threshold.
    BiasAtLeast(f64),
    /// Stop once the bias has moved by no more than `tolerance` over the
    /// last `window` phase transitions (requires `window + 1` finished
    /// phases with a defined bias; `window = 0` never stops).
    Plateau {
        /// Number of most recent phase transitions inspected.
        window: usize,
        /// Maximum bias movement (max − min) tolerated over the window.
        tolerance: f64,
    },
    /// Stop when *any* of the inner conditions holds.
    Any(Vec<StopCondition>),
    /// Stop when *all* of the inner conditions hold (empty: never).
    All(Vec<StopCondition>),
}

impl StopCondition {
    /// Combines conditions into an [`Any`](StopCondition::Any), collapsing
    /// the empty list to [`ScheduleExhausted`](Self::ScheduleExhausted)
    /// and a singleton to the condition itself.
    pub fn any(mut conditions: Vec<StopCondition>) -> StopCondition {
        match conditions.len() {
            0 => StopCondition::ScheduleExhausted,
            1 => conditions.pop().expect("len checked"),
            _ => StopCondition::Any(conditions),
        }
    }

    /// The largest [`Plateau`](Self::Plateau) window anywhere in this
    /// condition — how much bias history its evaluation can ever inspect.
    pub fn max_plateau_window(&self) -> usize {
        match self {
            StopCondition::Plateau { window, .. } => *window,
            StopCondition::Any(conditions) | StopCondition::All(conditions) => conditions
                .iter()
                .map(StopCondition::max_plateau_window)
                .max()
                .unwrap_or(0),
            _ => 0,
        }
    }

    /// `true` if the run should stop given the progress so far.
    pub(crate) fn should_stop(&self, progress: &RunProgress) -> bool {
        match self {
            StopCondition::ScheduleExhausted => false,
            StopCondition::MaxRounds(limit) => progress.rounds() >= *limit,
            StopCondition::ConsensusReached => progress.is_consensus(),
            StopCondition::BiasAtLeast(threshold) => {
                progress.bias().is_some_and(|b| b >= *threshold)
            }
            StopCondition::Plateau { window, tolerance } => {
                progress.bias_plateaued(*window, *tolerance)
            }
            StopCondition::Any(conditions) => {
                conditions.iter().any(|c| c.should_stop(progress))
            }
            StopCondition::All(conditions) => {
                !conditions.is_empty() && conditions.iter().all(|c| c.should_stop(progress))
            }
        }
    }
}

/// What the phase driver tracks so [`StopCondition`]s can be evaluated in
/// O(1) (plus O(window) for plateaus) at every phase boundary.
#[derive(Debug, Clone, Default)]
pub(crate) struct RunProgress {
    rounds: u64,
    consensus: bool,
    /// Retained bias history; 0 means unbounded.
    keep: usize,
    biases: Vec<Option<f64>>,
}

impl RunProgress {
    /// Fresh progress retaining only as much bias history as `stop` can
    /// ever inspect (the largest plateau window + 1, at least one entry),
    /// so long runs — the baseline dynamics step once per round — stay
    /// O(1) memory instead of accumulating one entry per phase forever.
    pub fn for_stop(stop: &StopCondition) -> Self {
        Self {
            keep: stop.max_plateau_window() + 1,
            ..Self::default()
        }
    }

    /// Folds a finished phase into the progress.
    pub fn note_phase(&mut self, snapshot: &PhaseSnapshot) {
        self.rounds = snapshot.total_rounds();
        self.consensus = snapshot.is_consensus();
        self.biases.push(snapshot.bias());
        if self.keep > 0 && self.biases.len() > self.keep {
            let excess = self.biases.len() - self.keep;
            self.biases.drain(..excess);
        }
    }

    /// Synchronizes rounds/consensus with the system state without
    /// recording a phase (used to prime the progress before the first
    /// phase, so e.g. [`StopCondition::ConsensusReached`] can fire on an
    /// already-converged instance without executing anything).
    pub fn sync(&mut self, rounds: u64, consensus: bool) {
        self.rounds = rounds;
        self.consensus = consensus;
    }

    /// Rounds executed since the start of the run.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// `true` if the system was in consensus at the last observation.
    pub fn is_consensus(&self) -> bool {
        self.consensus
    }

    /// The bias after the most recent phase, if any phase finished and
    /// anyone was opinionated.
    pub fn bias(&self) -> Option<f64> {
        self.biases.last().copied().flatten()
    }

    /// `true` if the bias moved by at most `tolerance` over the last
    /// `window` phase transitions (all of which must have a defined bias).
    /// With a [`for_stop`](Self::for_stop)-bounded history, windows larger
    /// than the retained history never plateau (the retention covers every
    /// window the stop condition contains, so this only affects foreign
    /// queries).
    pub fn bias_plateaued(&self, window: usize, tolerance: f64) -> bool {
        if window == 0 || self.biases.len() < window + 1 {
            return false;
        }
        let recent = &self.biases[self.biases.len() - (window + 1)..];
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for bias in recent {
            let Some(b) = bias else { return false };
            min = min.min(*b);
            max = max.max(*b);
        }
        max - min <= tolerance
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot(
        total_rounds: u64,
        counts: Vec<usize>,
        undecided: usize,
        bias: Option<f64>,
    ) -> PhaseSnapshot {
        let distribution = OpinionDistribution::from_counts(counts, undecided).unwrap();
        PhaseSnapshot::new(
            Some(StageId::One),
            0,
            10,
            total_rounds,
            100,
            100,
            distribution,
            bias,
        )
    }

    #[test]
    fn snapshot_exposes_population_queries() {
        let s = snapshot(10, vec![60, 30, 10], 0, Some(0.3));
        assert_eq!(s.stage(), Some(StageId::One));
        assert_eq!(s.rounds(), 10);
        assert_eq!(s.total_rounds(), 10);
        assert_eq!(s.messages(), 100);
        assert_eq!(s.total_messages(), 100);
        assert!((s.opinionated_fraction() - 1.0).abs() < 1e-12);
        assert_eq!(s.bias(), Some(0.3));
        assert!(!s.is_consensus());
        assert_eq!(s.topology(), "complete", "the default label");
        assert_eq!(s.with_topology("ring").topology(), "ring");
        let c = snapshot(10, vec![100, 0, 0], 0, Some(1.0));
        assert!(c.is_consensus());
    }

    #[test]
    fn schedule_exhausted_never_stops() {
        let mut progress = RunProgress::default();
        progress.note_phase(&snapshot(1_000_000, vec![100, 0, 0], 0, Some(1.0)));
        assert!(!StopCondition::ScheduleExhausted.should_stop(&progress));
    }

    #[test]
    fn max_rounds_and_consensus_fire_when_reached() {
        let mut progress = RunProgress::default();
        assert!(!StopCondition::MaxRounds(10).should_stop(&progress));
        assert!(!StopCondition::ConsensusReached.should_stop(&progress));
        progress.note_phase(&snapshot(10, vec![50, 40, 10], 0, Some(0.1)));
        assert!(StopCondition::MaxRounds(10).should_stop(&progress));
        assert!(!StopCondition::ConsensusReached.should_stop(&progress));
        progress.note_phase(&snapshot(20, vec![100, 0, 0], 0, Some(1.0)));
        assert!(StopCondition::ConsensusReached.should_stop(&progress));
    }

    #[test]
    fn sync_primes_consensus_without_recording_a_phase() {
        let mut progress = RunProgress::default();
        progress.sync(0, true);
        assert!(StopCondition::ConsensusReached.should_stop(&progress));
        assert_eq!(progress.rounds(), 0);
        assert_eq!(progress.bias(), None);
    }

    #[test]
    fn bias_threshold_needs_a_defined_bias() {
        let mut progress = RunProgress::default();
        progress.note_phase(&snapshot(5, vec![0, 0, 0], 100, None));
        assert!(!StopCondition::BiasAtLeast(0.5).should_stop(&progress));
        progress.note_phase(&snapshot(10, vec![80, 10, 10], 0, Some(0.7)));
        assert!(StopCondition::BiasAtLeast(0.5).should_stop(&progress));
        assert!(!StopCondition::BiasAtLeast(0.9).should_stop(&progress));
    }

    #[test]
    fn plateau_requires_a_full_window_of_stable_biases() {
        let plateau = StopCondition::Plateau {
            window: 2,
            tolerance: 0.01,
        };
        let mut progress = RunProgress::default();
        progress.note_phase(&snapshot(1, vec![60, 40, 0], 0, Some(0.2)));
        progress.note_phase(&snapshot(2, vec![60, 40, 0], 0, Some(0.2)));
        // Only one transition so far: not enough history.
        assert!(!plateau.should_stop(&progress));
        progress.note_phase(&snapshot(3, vec![60, 40, 0], 0, Some(0.205)));
        assert!(plateau.should_stop(&progress));
        // A moving bias breaks the plateau.
        progress.note_phase(&snapshot(4, vec![80, 20, 0], 0, Some(0.6)));
        assert!(!plateau.should_stop(&progress));
        // window = 0 never stops.
        let degenerate = StopCondition::Plateau {
            window: 0,
            tolerance: 1.0,
        };
        assert!(!degenerate.should_stop(&progress));
    }

    #[test]
    fn plateau_window_longer_than_the_run_never_fires() {
        // A window of W needs W + 1 finished phases; a run shorter than
        // that must execute its complete schedule even with a perfectly
        // flat bias.
        let plateau = StopCondition::Plateau {
            window: 10,
            tolerance: 1.0,
        };
        let mut progress = RunProgress::for_stop(&plateau);
        for round in 1..=8u64 {
            progress.note_phase(&snapshot(round, vec![60, 40, 0], 0, Some(0.2)));
            assert!(
                !plateau.should_stop(&progress),
                "only {round} phases finished, the window needs 11"
            );
        }
        // Once enough history exists, the same flat bias does fire.
        for round in 9..=11u64 {
            progress.note_phase(&snapshot(round, vec![60, 40, 0], 0, Some(0.2)));
        }
        assert!(plateau.should_stop(&progress));
    }

    #[test]
    fn plateau_is_broken_by_undefined_biases() {
        let plateau = StopCondition::Plateau {
            window: 1,
            tolerance: 1.0,
        };
        let mut progress = RunProgress::default();
        progress.note_phase(&snapshot(1, vec![0, 0, 0], 100, None));
        progress.note_phase(&snapshot(2, vec![50, 0, 0], 100, Some(1.0)));
        assert!(!plateau.should_stop(&progress));
        progress.note_phase(&snapshot(3, vec![50, 0, 0], 100, Some(1.0)));
        assert!(plateau.should_stop(&progress));
    }

    #[test]
    fn any_and_all_compose() {
        let mut progress = RunProgress::default();
        progress.note_phase(&snapshot(50, vec![90, 10, 0], 0, Some(0.8)));
        let rounds = StopCondition::MaxRounds(10);
        let consensus = StopCondition::ConsensusReached;
        assert!(StopCondition::Any(vec![rounds.clone(), consensus.clone()])
            .should_stop(&progress));
        assert!(!StopCondition::All(vec![rounds.clone(), consensus.clone()])
            .should_stop(&progress));
        assert!(StopCondition::All(vec![rounds, StopCondition::BiasAtLeast(0.5)])
            .should_stop(&progress));
        assert!(!StopCondition::All(vec![]).should_stop(&progress));
        assert!(!StopCondition::Any(vec![]).should_stop(&progress));
    }

    #[test]
    fn any_constructor_collapses_trivial_lists() {
        assert_eq!(StopCondition::any(vec![]), StopCondition::ScheduleExhausted);
        assert_eq!(
            StopCondition::any(vec![StopCondition::MaxRounds(5)]),
            StopCondition::MaxRounds(5)
        );
        assert!(matches!(
            StopCondition::any(vec![
                StopCondition::MaxRounds(5),
                StopCondition::ConsensusReached
            ]),
            StopCondition::Any(_)
        ));
    }

    #[test]
    fn fanout_broadcasts_to_every_observer() {
        #[derive(Default)]
        struct Counter {
            begins: usize,
            ends: usize,
            transitions: usize,
            finishes: usize,
        }
        impl Observer for Counter {
            fn on_phase_begin(&mut self, _: Option<StageId>, _: usize) {
                self.begins += 1;
            }
            fn on_phase_end(&mut self, _: &PhaseSnapshot) {
                self.ends += 1;
            }
            fn on_stage_transition(&mut self, _: StageId, _: StageId) {
                self.transitions += 1;
            }
            fn on_finish(&mut self) {
                self.finishes += 1;
            }
        }
        let mut a = Counter::default();
        let mut b = Counter::default();
        {
            let mut fanout = Fanout::new(vec![&mut a, &mut b]);
            fanout.on_phase_begin(Some(StageId::One), 0);
            fanout.on_phase_end(&snapshot(1, vec![1, 0, 0], 9, Some(1.0)));
            fanout.on_stage_transition(StageId::One, StageId::Two);
            fanout.on_finish();
        }
        for c in [&a, &b] {
            assert_eq!((c.begins, c.ends, c.transitions, c.finishes), (1, 1, 1, 1));
        }
    }
}
