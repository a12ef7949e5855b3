//! Invariant oracles: structured pass/fail judgments over protocol runs.
//!
//! A fault-injection campaign (the `xp campaign` driver) executes many
//! seeded runs and needs a machine-checkable notion of "this run behaved".
//! An [`Oracle`] watches a run at phase granularity (through the core
//! observation layer's [`PhaseSnapshot`]s) and judges the finished
//! [`Outcome`]; when an invariant breaks it returns a structured
//! [`Violation`] naming the oracle, the phase, and what went wrong — the
//! campaign engine turns the first violating seed into a replay command.
//!
//! Built-in oracles:
//!
//! * [`CountConservation`] — the population follows its deterministic
//!   size trajectory: without churn every snapshot's distribution must
//!   account for exactly `n` agents; under population churn it must match
//!   the phase-indexed size the churn arithmetic prescribes
//!   ([`ChurnSpec::population_after`]). Message drops and duplications
//!   alter *message* counts, never *agent* counts, so this invariant must
//!   hold under every fault family (both backends fold crashed/Byzantine
//!   pools back into their reported distributions).
//! * [`ConsensusCorrectness`] — if the run converged, it converged on the
//!   planted opinion (the rumor source's opinion, or the initial
//!   plurality). Byzantine pushes towards a fixed wrong opinion are
//!   expected to break exactly this oracle once their fraction outweighs
//!   the initial bias.
//! * [`BiasMonotonicity`] — the bias towards the reference opinion never
//!   falls by more than a tolerance between consecutive observations once
//!   both are defined. The paper's analysis amplifies the bias phase over
//!   phase (Lemmas 7 and 12, Proposition 1); per-run fluctuations are
//!   real, so the tolerance absorbs them and only collapses are flagged.
//! * [`PaperBound`] — the run finished within `slack × ln(n)/ε²` rounds,
//!   the paper's Theorem 1/2 round envelope with an explicit slack
//!   constant. Most informative when the run stops on consensus (the
//!   campaign's default stop condition) so the measured round count is the
//!   actual convergence time rather than the fixed schedule length.
//!
//! Oracles are deliberately *observational*: they read snapshots and
//! outcomes, never RNG streams, so attaching them cannot perturb the run
//! they judge (the core observation layer guarantees this).

use plurality_core::bounds::rounds_bound;
use plurality_core::{Outcome, PhaseSnapshot};
use pushsim::ChurnSpec;

/// One broken invariant, reported by an [`Oracle`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    oracle: String,
    phase: Option<u64>,
    message: String,
}

impl Violation {
    /// Builds a violation detected at the end of the run.
    pub fn at_finish(oracle: &str, message: impl Into<String>) -> Self {
        Self {
            oracle: oracle.to_string(),
            phase: None,
            message: message.into(),
        }
    }

    /// Builds a violation detected at a phase boundary (`phase` is the
    /// cumulative observation index across both stages).
    pub fn at_phase(oracle: &str, phase: u64, message: impl Into<String>) -> Self {
        Self {
            oracle: oracle.to_string(),
            phase: Some(phase),
            message: message.into(),
        }
    }

    /// The name of the oracle that detected the violation.
    pub fn oracle(&self) -> &str {
        &self.oracle
    }

    /// The cumulative phase observation index at detection, or `None` if
    /// the violation was detected on the finished outcome.
    pub fn phase(&self) -> Option<u64> {
        self.phase
    }

    /// Human-readable description of what broke.
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.phase {
            Some(phase) => write!(f, "[{}] phase {}: {}", self.oracle, phase, self.message),
            None => write!(f, "[{}] at finish: {}", self.oracle, self.message),
        }
    }
}

/// An invariant judged over one protocol run.
///
/// The campaign engine calls [`observe`](Oracle::observe) at every phase
/// boundary (in observation order) and [`judge`](Oracle::judge) once on the
/// finished outcome; each may report at most one violation — an oracle that
/// has already tripped should stay silent (the first detection carries all
/// the signal, and the replay reproduces the rest). Oracles are stateful
/// and single-use: build a fresh set per run.
pub trait Oracle {
    /// The oracle's stable name (used in reports and replay output).
    fn name(&self) -> &'static str;

    /// Inspects one phase-boundary snapshot; `index` is the cumulative
    /// observation index across stages.
    fn observe(&mut self, index: u64, snapshot: &PhaseSnapshot) -> Option<Violation> {
        let _ = (index, snapshot);
        None
    }

    /// Judges the finished run.
    fn judge(&mut self, outcome: &Outcome) -> Option<Violation> {
        let _ = outcome;
        None
    }
}

/// Checks that every observed distribution accounts for exactly the
/// expected number of agents. See the module docs: faults redistribute
/// messages and freeze agents but never create or destroy them.
///
/// Under population churn the expected size is no longer a constant: the
/// churn arithmetic is deterministic (only *which* agents leave and *what*
/// joiners believe is random), so the oracle folds the configured
/// [`ChurnSpec`] forward with
/// [`population_after`](ChurnSpec::population_after) and demands that the
/// live population of the snapshot at cumulative phase index `i` equals
/// the population after exactly `i` churn boundaries — boundary `b`
/// precedes phase `b`, and boundary 0 never churns, so the end of phase
/// `i` has seen boundaries `1..=i`. Build the churn-aware form with
/// [`with_churn`](Self::with_churn); [`new`](Self::new) keeps the
/// constant-population contract.
#[derive(Debug, Clone)]
pub struct CountConservation {
    initial_nodes: usize,
    churn: ChurnSpec,
    observed: u64,
    tripped: bool,
}

impl CountConservation {
    /// An oracle expecting `expected_nodes` agents in every snapshot.
    pub fn new(expected_nodes: usize) -> Self {
        Self::with_churn(expected_nodes, ChurnSpec::default())
    }

    /// An oracle that tracks the deterministic population trajectory the
    /// churn spec induces from `initial_nodes` agents.
    pub fn with_churn(initial_nodes: usize, churn: ChurnSpec) -> Self {
        Self {
            initial_nodes,
            churn,
            observed: 0,
            tripped: false,
        }
    }

    /// The population this oracle expects at the end of the phase with
    /// cumulative index `phase` (boundaries `1..=phase` applied).
    pub fn expected_at(&self, phase: u64) -> usize {
        self.churn.population_after(self.initial_nodes, phase)
    }
}

impl Oracle for CountConservation {
    fn name(&self) -> &'static str {
        "count-conservation"
    }

    fn observe(&mut self, index: u64, snapshot: &PhaseSnapshot) -> Option<Violation> {
        self.observed = index + 1;
        if self.tripped {
            return None;
        }
        let expected = self.expected_at(index);
        let found = snapshot.distribution().num_nodes();
        if found != expected {
            self.tripped = true;
            return Some(Violation::at_phase(
                self.name(),
                index,
                format!("distribution accounts for {found} agents, expected {expected}"),
            ));
        }
        None
    }

    fn judge(&mut self, outcome: &Outcome) -> Option<Violation> {
        if self.tripped {
            return None;
        }
        // The final distribution is the last phase's: no further boundary
        // runs after the last phase, so the expectation is the one of the
        // last observation (or the initial size if nothing was observed).
        let expected = self.expected_at(self.observed.saturating_sub(1));
        let found = outcome.final_distribution().num_nodes();
        if found != expected {
            self.tripped = true;
            return Some(Violation::at_finish(
                self.name(),
                format!("final distribution accounts for {found} agents, expected {expected}"),
            ));
        }
        None
    }
}

/// Checks that a converged run converged on the planted opinion.
#[derive(Debug, Clone, Default)]
pub struct ConsensusCorrectness;

impl ConsensusCorrectness {
    /// A fresh consensus-correctness oracle.
    pub fn new() -> Self {
        Self
    }
}

impl Oracle for ConsensusCorrectness {
    fn name(&self) -> &'static str {
        "consensus-correctness"
    }

    fn judge(&mut self, outcome: &Outcome) -> Option<Violation> {
        if outcome.consensus_reached() && !outcome.succeeded() {
            let winner = outcome
                .winning_opinion()
                .map_or_else(|| "none".to_string(), |o| o.index().to_string());
            return Some(Violation::at_finish(
                self.name(),
                format!(
                    "consensus on opinion {winner}, but the planted opinion is {}",
                    outcome.correct_opinion().index()
                ),
            ));
        }
        None
    }
}

/// Checks that the bias towards the reference opinion never falls by more
/// than `tolerance` between consecutive defined observations.
#[derive(Debug, Clone)]
pub struct BiasMonotonicity {
    tolerance: f64,
    previous: Option<f64>,
    tripped: bool,
}

impl BiasMonotonicity {
    /// An oracle tolerating per-transition bias drops up to `tolerance`
    /// (a fraction of the population, like the bias itself).
    pub fn new(tolerance: f64) -> Self {
        Self {
            tolerance,
            previous: None,
            tripped: false,
        }
    }
}

impl Oracle for BiasMonotonicity {
    fn name(&self) -> &'static str {
        "bias-monotonicity"
    }

    fn observe(&mut self, index: u64, snapshot: &PhaseSnapshot) -> Option<Violation> {
        let bias = snapshot.bias()?;
        let previous = self.previous.replace(bias);
        if self.tripped {
            return None;
        }
        if let Some(prev) = previous {
            if bias < prev - self.tolerance {
                self.tripped = true;
                return Some(Violation::at_phase(
                    self.name(),
                    index,
                    format!(
                        "bias fell from {prev:.4} to {bias:.4} (tolerance {})",
                        self.tolerance
                    ),
                ));
            }
        }
        None
    }
}

/// Checks the paper's round envelope: the run must finish within
/// `slack × ln(n)/ε²` rounds (Theorems 1 and 2 prove `O(log n / ε²)`; the
/// slack constant makes the hidden constant explicit and testable).
#[derive(Debug, Clone)]
pub struct PaperBound {
    num_nodes: usize,
    epsilon: f64,
    slack: f64,
}

impl PaperBound {
    /// An oracle for an `n`-agent run at noise parameter `epsilon`,
    /// allowing `slack` times the bare `ln(n)/ε²` scale.
    pub fn new(num_nodes: usize, epsilon: f64, slack: f64) -> Self {
        Self {
            num_nodes,
            epsilon,
            slack,
        }
    }

    /// The maximum number of rounds this oracle accepts.
    pub fn max_rounds(&self) -> f64 {
        self.slack * rounds_bound(self.num_nodes, self.epsilon)
    }
}

impl Oracle for PaperBound {
    fn name(&self) -> &'static str {
        "paper-bound"
    }

    fn judge(&mut self, outcome: &Outcome) -> Option<Violation> {
        let limit = self.max_rounds();
        if (outcome.rounds() as f64) > limit {
            return Some(Violation::at_finish(
                self.name(),
                format!(
                    "run took {} rounds, over the {limit:.0}-round envelope \
                     (slack {} x ln({})/eps^2 at eps = {})",
                    outcome.rounds(),
                    self.slack,
                    self.num_nodes,
                    self.epsilon
                ),
            ));
        }
        None
    }
}

/// A set of oracles evaluated together over one run.
///
/// The suite implements the core [`Observer`](plurality_core::Observer)
/// trait, so it plugs straight into a [`Session`](plurality_core::Session)
/// run; afterwards, [`judge`](Self::judge) folds in the outcome checks and
/// returns every violation in detection order.
#[derive(Default)]
pub struct OracleSuite {
    oracles: Vec<Box<dyn Oracle>>,
    observed_phases: u64,
    violations: Vec<Violation>,
}

impl OracleSuite {
    /// An empty suite.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an oracle to the suite.
    #[must_use]
    pub fn with(mut self, oracle: impl Oracle + 'static) -> Self {
        self.oracles.push(Box::new(oracle));
        self
    }

    /// The standard campaign suite for an `n`-agent, `ε`-noise run: count
    /// conservation, consensus correctness, bias monotonicity at the given
    /// tolerance, and the paper round envelope at the given slack.
    pub fn standard(num_nodes: usize, epsilon: f64, tolerance: f64, slack: f64) -> Self {
        Self::standard_with_churn(num_nodes, epsilon, tolerance, slack, ChurnSpec::default())
    }

    /// The standard suite for a run under population churn: identical to
    /// [`standard`](Self::standard) except that count conservation tracks
    /// the deterministic population trajectory the churn spec induces
    /// instead of a constant `n`.
    pub fn standard_with_churn(
        num_nodes: usize,
        epsilon: f64,
        tolerance: f64,
        slack: f64,
        churn: ChurnSpec,
    ) -> Self {
        Self::new()
            .with(CountConservation::with_churn(num_nodes, churn))
            .with(ConsensusCorrectness::new())
            .with(BiasMonotonicity::new(tolerance))
            .with(PaperBound::new(num_nodes, epsilon, slack))
    }

    /// Number of phase boundaries observed so far.
    pub fn observed_phases(&self) -> u64 {
        self.observed_phases
    }

    /// Folds the finished outcome into every oracle and returns all
    /// violations in detection order (empty means the run passed).
    pub fn judge(mut self, outcome: &Outcome) -> Vec<Violation> {
        for oracle in &mut self.oracles {
            if let Some(v) = oracle.judge(outcome) {
                self.violations.push(v);
            }
        }
        self.violations
    }
}

impl std::fmt::Debug for OracleSuite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OracleSuite")
            .field("oracles", &self.oracles.iter().map(|o| o.name()).collect::<Vec<_>>())
            .field("observed_phases", &self.observed_phases)
            .field("violations", &self.violations)
            .finish()
    }
}

impl plurality_core::Observer for OracleSuite {
    fn on_phase_end(&mut self, snapshot: &PhaseSnapshot) {
        let index = self.observed_phases;
        self.observed_phases += 1;
        for oracle in &mut self.oracles {
            if let Some(v) = oracle.observe(index, snapshot) {
                self.violations.push(v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noisy_channel::NoiseMatrix;
    use plurality_core::{ExecutionBackend, Instance, ProtocolParams, TwoStageProtocol};
    use plurality_core::{NoObserver, Observer, StageId};
    use pushsim::OpinionDistribution;

    fn snapshot(counts: Vec<usize>, undecided: usize, bias: Option<f64>) -> PhaseSnapshot {
        let distribution = OpinionDistribution::from_counts(counts, undecided).unwrap();
        PhaseSnapshot::new(Some(StageId::One), 0, 5, 5, 50, 50, distribution, bias)
    }

    fn healthy_outcome() -> Outcome {
        let eps = 0.35;
        let params = ProtocolParams::builder(500, 3)
            .epsilon(eps)
            .seed(11)
            .build()
            .unwrap();
        let protocol =
            TwoStageProtocol::new(params, NoiseMatrix::uniform(3, eps).unwrap()).unwrap();
        protocol
            .session()
            .run(
                ExecutionBackend::Agent,
                Instance::Plurality(&[200, 120, 80]),
                &mut NoObserver,
            )
            .unwrap()
    }

    #[test]
    fn count_conservation_flags_a_shrunken_population() {
        let mut oracle = CountConservation::new(100);
        assert!(oracle.observe(0, &snapshot(vec![60, 40, 0], 0, Some(0.2))).is_none());
        let violation = oracle
            .observe(1, &snapshot(vec![50, 40, 0], 0, Some(0.1)))
            .expect("90 agents != 100");
        assert_eq!(violation.oracle(), "count-conservation");
        assert_eq!(violation.phase(), Some(1));
        // Latched: a second bad snapshot stays silent.
        assert!(oracle.observe(2, &snapshot(vec![1, 0, 0], 0, None)).is_none());
    }

    #[test]
    fn churn_aware_conservation_tracks_the_deterministic_trajectory() {
        let churn: ChurnSpec = "join(0.1)+leave(0.2)".parse().expect("valid churn");
        let mut oracle = CountConservation::with_churn(100, churn);
        // Boundary 0 never churns: phase 0 still has 100 agents.
        assert_eq!(oracle.expected_at(0), 100);
        assert!(oracle.observe(0, &snapshot(vec![60, 40, 0], 0, Some(0.2))).is_none());
        // Boundary 1: -20 leavers, +10 joiners.
        let expected = churn.population_after(100, 1);
        assert_eq!(expected, 90);
        assert!(oracle
            .observe(1, &snapshot(vec![50, 30, 0], 10, Some(0.2)))
            .is_none());
        // A population that ignores the churn arithmetic trips the oracle.
        let violation = oracle
            .observe(2, &snapshot(vec![50, 30, 0], 10, Some(0.2)))
            .expect("90 agents, but boundary 2 shrank the expectation");
        assert_eq!(violation.oracle(), "count-conservation");
        assert!(violation.message().contains(&format!(
            "expected {}",
            churn.population_after(100, 2)
        )));
    }

    #[test]
    fn consensus_correctness_accepts_healthy_runs() {
        let outcome = healthy_outcome();
        assert!(outcome.succeeded());
        assert!(ConsensusCorrectness::new().judge(&outcome).is_none());
    }

    #[test]
    fn bias_monotonicity_tolerates_small_dips_and_flags_collapses() {
        let mut oracle = BiasMonotonicity::new(0.1);
        assert!(oracle.observe(0, &snapshot(vec![60, 40, 0], 0, Some(0.5))).is_none());
        // Within tolerance.
        assert!(oracle.observe(1, &snapshot(vec![58, 42, 0], 0, Some(0.45))).is_none());
        // Undefined bias is skipped, not compared.
        assert!(oracle.observe(2, &snapshot(vec![0, 0, 0], 100, None)).is_none());
        // Collapse beyond tolerance.
        let violation = oracle
            .observe(3, &snapshot(vec![30, 70, 0], 0, Some(0.1)))
            .expect("0.45 -> 0.1 is a collapse");
        assert_eq!(violation.oracle(), "bias-monotonicity");
        assert_eq!(violation.phase(), Some(3));
    }

    #[test]
    fn paper_bound_flags_runs_over_the_envelope() {
        let outcome = healthy_outcome();
        // A generous slack accepts the calibrated schedule...
        assert!(PaperBound::new(500, 0.35, 100.0).judge(&outcome).is_none());
        // ...and a slack below the real constant rejects it.
        let violation = PaperBound::new(500, 0.35, 0.01)
            .judge(&outcome)
            .expect("0.01 x ln(n)/eps^2 is under any real run");
        assert_eq!(violation.oracle(), "paper-bound");
        assert_eq!(violation.phase(), None);
        assert!(violation.to_string().contains("at finish"));
    }

    #[test]
    fn suite_observes_a_real_run_and_passes_it() {
        let eps = 0.35;
        let params = ProtocolParams::builder(500, 3)
            .epsilon(eps)
            .seed(11)
            .build()
            .unwrap();
        let protocol =
            TwoStageProtocol::new(params, NoiseMatrix::uniform(3, eps).unwrap()).unwrap();
        let mut suite = OracleSuite::standard(500, eps, 1.0, 100.0);
        let outcome = protocol
            .session()
            .run(
                ExecutionBackend::Agent,
                Instance::Plurality(&[200, 120, 80]),
                &mut suite,
            )
            .unwrap();
        assert_eq!(
            suite.observed_phases() as usize,
            outcome.phase_records().len()
        );
        assert!(suite.judge(&outcome).is_empty(), "a fault-free run passes");
    }

    #[test]
    fn suite_collects_violations_in_detection_order() {
        let mut suite = OracleSuite::new()
            .with(CountConservation::new(100))
            .with(BiasMonotonicity::new(0.0));
        suite.on_phase_end(&snapshot(vec![60, 40, 0], 0, Some(0.5)));
        suite.on_phase_end(&snapshot(vec![30, 40, 0], 0, Some(0.1)));
        let outcome = healthy_outcome();
        let violations = suite.judge(&outcome);
        // Snapshot 1 trips both conservation (70 agents) and monotonicity
        // (0.5 -> 0.1); conservation was registered first.
        assert_eq!(violations.len(), 2);
        assert_eq!(violations[0].oracle(), "count-conservation");
        assert_eq!(violations[1].oracle(), "bias-monotonicity");
    }

    #[test]
    fn violations_render_with_phase_context() {
        let v = Violation::at_phase("count-conservation", 3, "lost 2 agents");
        assert_eq!(v.to_string(), "[count-conservation] phase 3: lost 2 agents");
        let v = Violation::at_finish("paper-bound", "too slow");
        assert_eq!(v.to_string(), "[paper-bound] at finish: too slow");
    }
}
