//! Declarative scenario specifications — experiment runs as *data*.
//!
//! A [`ScenarioSpec`] describes one complete experiment: what is being run
//! (rumor spreading, plurality consensus, a baseline dynamics rule,
//! Stage 2 alone, the Proposition 1 sample-majority gap, or single-phase
//! delivery statistics), on how many nodes and opinions, under which noise
//! family ([`NoiseSpec`]), delivery process and simulation backend, over
//! which sweep axes, for how many trials, from which base seed — and *how
//! the run is observed*: end-of-run summaries (the default), the full
//! per-phase trajectory (`observe.trajectory = true`), or per-phase
//! aggregates across trials (`observe.phases = true`), optionally ended
//! early by composable `stop.*` conditions instead of the full schedule.
//! The [`Runner`](crate::runner::Runner) executes any spec through the
//! generic protocol/dynamics stack and renders a result table.
//!
//! Specs have a line-oriented `key = value` textual form that round-trips
//! exactly ([`ScenarioSpec::to_text`] / [`ScenarioSpec::from_text`]), so a
//! new experiment is a spec file, not a new binary:
//!
//! ```text
//! # rumor spreading vs noise level
//! scenario = rumor
//! source = 0
//! n = 2000
//! k = 3
//! epsilon = 0.25
//! noise = uniform(0.25)
//! delivery = exact
//! topology = complete
//! backend = auto
//! trials = 5
//! seed = 242
//! sweep.eps = 0.1, 0.15, 0.2, 0.25, 0.3, 0.4
//! metrics = success, rounds, rounds_norm, messages
//! ```
//!
//! ## Topologies
//!
//! The `topology` key selects the communication graph pushes travel along
//! (see [`TopologySpec`]): `complete` (the paper's model; the default),
//! `ring`, `torus` (`n` must be a perfect square), `regular(d)` (a random
//! simple `d`-regular graph) or `er(p)` (Erdős–Rényi `G(n, p)`). The
//! `sweep.topology` axis sweeps it, e.g.
//! `sweep.topology = complete, ring, regular(8)`.
//! [`validate`](ScenarioSpec::validate) admits every grid point against
//! the backend it will run on ([`pushsim::admission`]), so a combination
//! no backend runs — process P on a ring on the agent backend, say — is
//! refused when the spec loads.
//!
//! ## Faults
//!
//! The `fault` key injects failures into the delivery path of protocol
//! scenarios (see [`FaultSpec`]): `drop(p)` loses each message with
//! probability `p`, `dup(p)` duplicates it, `delay(p)` defers it to the
//! next phase, `crash(f@s)` silences a fraction `f` of the agents after
//! phase `s`, and `byz(f:j)` makes a fraction `f` always push opinion `j`;
//! families combine with `+`. The `sweep.fault` axis sweeps fault specs,
//! e.g. `sweep.fault = none, drop(0.1), byz(0.1:1)`. The `xp campaign`
//! driver runs a spec's fault grid against invariant oracles over many
//! seeds.
//!
//! Run it with `xp run --spec path.spec` (see the `xp` binary), or from
//! code:
//!
//! ```
//! use noisy_bench::runner::Runner;
//! use noisy_bench::spec::ScenarioSpec;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let spec = ScenarioSpec::from_text(
//!     "scenario = rumor\n n = 400\n k = 2\n epsilon = 0.3\n trials = 2\n seed = 7",
//! )?;
//! let report = Runner::new(spec)?.run()?;
//! assert_eq!(report.points().len(), 1);
//! # Ok(())
//! # }
//! ```

use crate::runner;
use noisy_channel::{NoiseError, NoiseSpec};
use opinion_dynamics::RuleSpec;
use plurality_core::{ExecutionBackend, ProtocolConstants, ProtocolError, StopCondition};
use pushsim::{
    ChurnSpec, ClockSpec, DeliverySemantics, FaultSpec, NoiseSchedule, SimError, TopologySpec,
};
use std::collections::BTreeMap;
use std::fmt;

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds `bytes` into an FNV-1a 64-bit hash state. Hand-rolled so the
/// digest is stable across releases (unlike `DefaultHasher`, whose
/// algorithm is unspecified) and needs no external crate.
pub(crate) fn fnv1a64(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// How the initial opinion configuration of a plurality-style scenario is
/// specified.
#[derive(Debug, Clone, PartialEq)]
pub enum InitSpec {
    /// Everyone is opinionated; opinion 0 leads every rival by `bias`
    /// (as a fraction of `n`), the rest split evenly — see
    /// [`biased_counts`](crate::biased_counts).
    Biased {
        /// The initial bias towards opinion 0, in `[0, 1)`.
        bias: f64,
    },
    /// Explicit per-opinion counts (must have exactly `k` entries).
    Counts(Vec<usize>),
}

/// What kind of execution a scenario performs.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioKind {
    /// Rumor spreading: a single source node holds `source`, everyone else
    /// starts undecided (`scenario = rumor`).
    RumorSpreading {
        /// The source node's opinion index.
        source: usize,
    },
    /// Full two-stage plurality consensus from an initial configuration
    /// (`scenario = plurality`).
    PluralityConsensus {
        /// The initial opinion configuration.
        init: InitSpec,
    },
    /// Only Stage 2 (the amplification stage), from an initial
    /// configuration (`scenario = stage2`).
    Stage2Only {
        /// The initial opinion configuration.
        init: InitSpec,
    },
    /// A baseline opinion dynamics under the same noisy push model
    /// (`scenario = dynamics`).
    DynamicsRule {
        /// Which rule runs.
        rule: RuleSpec,
        /// The initial opinion configuration.
        init: InitSpec,
        /// Round budget; defaults to the two-stage protocol's own schedule
        /// length for the same `(n, k, ε)` when absent. The rule runs only
        /// the whole steps that fit in it (see [`RuleSpec::run`]).
        rounds: Option<u64>,
    },
    /// The Proposition 1 sample-majority gap, evaluated below the
    /// simulation level (`scenario = gap`): Monte-Carlo estimate of
    /// `Pr[maj = plurality] − Pr[maj = rival]` on a δ-biased received
    /// distribution vs the analytic lower bound, on a `k × ℓ × δ` grid
    /// (`sweep.k`, `sweep.ell`, `sweep.delta`). `trials` is the number of
    /// Monte-Carlo samples per grid cell.
    SampleMajorityGap {
        /// Base sample size ℓ (overridden per point by `sweep.ell`).
        ell: u64,
        /// Base received-distribution bias δ (overridden per point by
        /// `sweep.delta`).
        delta: f64,
    },
    /// Statistics of a single push phase on the agent-level backend
    /// (`scenario = phase`): seed an initial configuration, push for
    /// `rounds` rounds, and report the phase observation's per-node
    /// statistics plus the Stage 1 adoption rule — the Claim 1 / Lemma 3
    /// comparison across delivery processes (`sweep.delivery`). Always
    /// runs agent-level, because the per-node inbox moments it measures
    /// only exist there.
    PhaseStats {
        /// Rounds pushed in the single phase.
        rounds: u64,
        /// The initial opinion configuration.
        init: InitSpec,
    },
}

impl ScenarioKind {
    /// The `scenario = …` value naming this kind.
    pub fn name(&self) -> &'static str {
        match self {
            ScenarioKind::RumorSpreading { .. } => "rumor",
            ScenarioKind::PluralityConsensus { .. } => "plurality",
            ScenarioKind::Stage2Only { .. } => "stage2",
            ScenarioKind::DynamicsRule { .. } => "dynamics",
            ScenarioKind::SampleMajorityGap { .. } => "gap",
            ScenarioKind::PhaseStats { .. } => "phase",
        }
    }

    /// The initial-configuration spec, for the kinds that have one.
    pub fn init(&self) -> Option<&InitSpec> {
        match self {
            ScenarioKind::RumorSpreading { .. } | ScenarioKind::SampleMajorityGap { .. } => None,
            ScenarioKind::PluralityConsensus { init }
            | ScenarioKind::Stage2Only { init }
            | ScenarioKind::DynamicsRule { init, .. }
            | ScenarioKind::PhaseStats { init, .. } => Some(init),
        }
    }

    /// True for the kinds that execute full protocol runs (rumor spreading,
    /// plurality consensus, Stage 2 alone).
    pub fn is_protocol(&self) -> bool {
        matches!(
            self,
            ScenarioKind::RumorSpreading { .. }
                | ScenarioKind::PluralityConsensus { .. }
                | ScenarioKind::Stage2Only { .. }
        )
    }

    fn is_dynamics(&self) -> bool {
        matches!(self, ScenarioKind::DynamicsRule { .. })
    }
}

/// The sweep axes of a scenario: each non-empty axis contributes one output
/// column and the grid is the Cartesian product of all non-empty axes, in
/// the fixed order `k`, `n`, `eps`, `bias`, `ell`, `delta`, `delivery`,
/// `topology`, `fault`, `churn`, `schedule`, `clock`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SweepAxes {
    /// Opinion counts to sweep (`sweep.k = 2, 3, 5`).
    pub k: Vec<usize>,
    /// Network sizes to sweep (`sweep.n = …`).
    pub n: Vec<usize>,
    /// Noise/schedule ε values to sweep (`sweep.eps = …`). Sweeping ε
    /// re-parameterizes the noise family when it has an ε parameter
    /// ([`NoiseSpec::with_epsilon`]); otherwise only the schedule varies.
    pub eps: Vec<f64>,
    /// Initial biases to sweep (`sweep.bias = …`); requires a
    /// [`InitSpec::Biased`] initial configuration.
    pub bias: Vec<f64>,
    /// Sample sizes ℓ to sweep (`sweep.ell = …`); `gap` scenarios only.
    pub ell: Vec<u64>,
    /// Received-distribution biases δ to sweep (`sweep.delta = …`); `gap`
    /// scenarios only.
    pub delta: Vec<f64>,
    /// Delivery processes to sweep (`sweep.delivery = exact, balls,
    /// poisson`); `phase` scenarios only.
    pub delivery: Vec<DeliverySemantics>,
    /// Communication topologies to sweep
    /// (`sweep.topology = complete, ring, regular(8)`); any scenario that
    /// simulates a network (protocol kinds, dynamics, phase).
    pub topology: Vec<TopologySpec>,
    /// Fault specs to sweep (`sweep.fault = none, drop(0.1), byz(0.1:1)`);
    /// protocol scenarios only — the axis of fault-injection campaigns.
    pub fault: Vec<FaultSpec>,
    /// Churn specs to sweep
    /// (`sweep.churn = none, join(0.01)+leave(0.01), burst(0.3@2)`);
    /// protocol scenarios only.
    pub churn: Vec<ChurnSpec>,
    /// Noise schedules to sweep
    /// (`sweep.schedule = const, burst(0.45@2:1), ramp(0.1:0.4@6)`);
    /// protocol scenarios only.
    pub schedule: Vec<NoiseSchedule>,
    /// Clock models to sweep (`sweep.clock = sync, drift(20000)`);
    /// protocol scenarios only, agent backend.
    pub clock: Vec<ClockSpec>,
}

impl SweepAxes {
    /// True if no axis is swept (the run is a single grid point).
    pub fn is_empty(&self) -> bool {
        self.k.is_empty()
            && self.n.is_empty()
            && self.eps.is_empty()
            && self.bias.is_empty()
            && self.ell.is_empty()
            && self.delta.is_empty()
            && self.delivery.is_empty()
            && self.topology.is_empty()
            && self.fault.is_empty()
            && self.churn.is_empty()
            && self.schedule.is_empty()
            && self.clock.is_empty()
    }

    /// Number of grid points (product of non-empty axis lengths).
    pub fn num_points(&self) -> usize {
        self.k.len().max(1)
            * self.n.len().max(1)
            * self.eps.len().max(1)
            * self.bias.len().max(1)
            * self.ell.len().max(1)
            * self.delta.len().max(1)
            * self.delivery.len().max(1)
            * self.topology.len().max(1)
            * self.fault.len().max(1)
            * self.churn.len().max(1)
            * self.schedule.len().max(1)
            * self.clock.len().max(1)
    }
}

/// A result column a scenario can report.
///
/// Protocol scenarios (rumor / plurality / stage2) support every metric
/// but the `gap` and `phase` columns, the `mp_*` columns only with a
/// `bias = …` initial configuration;
/// dynamics scenarios support [`Consensus`](Metric::Consensus),
/// [`Correct`](Metric::Correct), [`Share`](Metric::Share) and
/// [`Rounds`](Metric::Rounds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Metric {
    /// Success rate (consensus on the correct opinion), Wilson interval.
    Success,
    /// Mean rounds to completion.
    Rounds,
    /// Mean rounds normalized by the paper's `ln n / ε²` bound.
    RoundsNorm,
    /// Mean messages sent.
    Messages,
    /// Mean bias towards the correct opinion at the end of Stage 1.
    Stage1Bias,
    /// Stage-1 end bias relative to the Stage 2 threshold `√(ln n / n)`.
    Stage1BiasNorm,
    /// Mean per-node memory footprint in bits.
    MemoryBits,
    /// Mean memory footprint normalized by the paper's
    /// `log₂ log₂ n + log₂(1/ε)` bound.
    MemoryBitsNorm,
    /// Exact-consensus rate (any opinion), Wilson interval.
    Consensus,
    /// Correct-plurality rate (the plurality opinion wins), Wilson interval.
    Correct,
    /// Mean final share of the plurality opinion.
    Share,
    /// The worst-case margin of the (ε, δ)-majority-preservation LP of the
    /// point's noise matrix at its initial bias δ (Section 4; protocol
    /// scenarios with a `bias = …` initial configuration).
    MpMargin,
    /// The largest ε for which that LP certifies majority preservation.
    MpMaxEps,
    /// Whether the point's noise matrix preserves the majority at its
    /// initial bias.
    MpHolds,
    /// Monte-Carlo sample-majority gap (`gap` scenarios).
    Gap,
    /// The Proposition 1 analytic lower bound (`gap` scenarios).
    GapBound,
    /// Exact binomial gap, defined for `k = 2` (`gap` scenarios).
    GapExact,
    /// Whether the measured gap dominates the bound up to the Monte-Carlo
    /// noise floor (`gap` scenarios).
    GapHolds,
    /// Total messages observed in the phase, ± 95% CI (`phase` scenarios).
    TotalReceived,
    /// Mean messages received per node (`phase` scenarios).
    MeanReceived,
    /// Per-node received-count variance (`phase` scenarios).
    VarReceived,
    /// Fraction of nodes that received at least one message (`phase`
    /// scenarios).
    FracReceived,
    /// Fraction of nodes whose Stage 1 adoption rule (one uniform received
    /// message) would pick opinion 0 (`phase` scenarios).
    Adopt0,
}

impl Metric {
    /// All metrics, in canonical order.
    pub const ALL: [Metric; 23] = [
        Metric::Success,
        Metric::Rounds,
        Metric::RoundsNorm,
        Metric::Messages,
        Metric::Stage1Bias,
        Metric::Stage1BiasNorm,
        Metric::MemoryBits,
        Metric::MemoryBitsNorm,
        Metric::Consensus,
        Metric::Correct,
        Metric::Share,
        Metric::MpMargin,
        Metric::MpMaxEps,
        Metric::MpHolds,
        Metric::Gap,
        Metric::GapBound,
        Metric::GapExact,
        Metric::GapHolds,
        Metric::TotalReceived,
        Metric::MeanReceived,
        Metric::VarReceived,
        Metric::FracReceived,
        Metric::Adopt0,
    ];

    /// The spec-file name of the metric (`metrics = success, rounds, …`).
    pub fn spec_name(self) -> &'static str {
        match self {
            Metric::Success => "success",
            Metric::Rounds => "rounds",
            Metric::RoundsNorm => "rounds_norm",
            Metric::Messages => "messages",
            Metric::Stage1Bias => "stage1_bias",
            Metric::Stage1BiasNorm => "stage1_bias_norm",
            Metric::MemoryBits => "memory_bits",
            Metric::MemoryBitsNorm => "memory_bits_norm",
            Metric::Consensus => "consensus",
            Metric::Correct => "correct",
            Metric::Share => "share",
            Metric::MpMargin => "mp_margin",
            Metric::MpMaxEps => "mp_max_eps",
            Metric::MpHolds => "mp_holds",
            Metric::Gap => "gap",
            Metric::GapBound => "gap_bound",
            Metric::GapExact => "gap_exact",
            Metric::GapHolds => "gap_holds",
            Metric::TotalReceived => "total_received",
            Metric::MeanReceived => "mean_received",
            Metric::VarReceived => "var_received",
            Metric::FracReceived => "frac_received",
            Metric::Adopt0 => "adopt0",
        }
    }

    /// The table column header of the metric.
    pub fn header(self) -> &'static str {
        match self {
            Metric::Success => "success",
            Metric::Rounds => "rounds",
            Metric::RoundsNorm => "rounds / (ln n / eps^2)",
            Metric::Messages => "messages",
            Metric::Stage1Bias => "stage-1 bias",
            Metric::Stage1BiasNorm => "stage-1 bias / threshold",
            Metric::MemoryBits => "memory bits/node",
            Metric::MemoryBitsNorm => "memory bits / (log log n + log 1/eps)",
            Metric::Consensus => "exact consensus",
            Metric::Correct => "correct plurality",
            Metric::Share => "mean plurality share",
            Metric::MpMargin => "LP margin",
            Metric::MpMaxEps => "max eps",
            Metric::MpHolds => "m.p.?",
            Metric::Gap => "measured gap",
            Metric::GapBound => "Prop.1 bound",
            Metric::GapExact => "exact (k=2)",
            Metric::GapHolds => "bound holds",
            Metric::TotalReceived => "total received",
            Metric::MeanReceived => "mean recv/node",
            Metric::VarReceived => "var recv/node",
            Metric::FracReceived => "frac >=1 msg",
            Metric::Adopt0 => "adopters of opinion 0",
        }
    }

    /// True if a dynamics scenario can report this metric.
    pub fn supports_dynamics(self) -> bool {
        matches!(
            self,
            Metric::Consensus | Metric::Correct | Metric::Share | Metric::Rounds
        )
    }

    /// True if `kind` can report this metric.
    pub fn supported_by(self, kind: &ScenarioKind) -> bool {
        let gap = matches!(
            self,
            Metric::Gap | Metric::GapBound | Metric::GapExact | Metric::GapHolds
        );
        let phase = matches!(
            self,
            Metric::TotalReceived
                | Metric::MeanReceived
                | Metric::VarReceived
                | Metric::FracReceived
                | Metric::Adopt0
        );
        let mp = matches!(self, Metric::MpMargin | Metric::MpMaxEps | Metric::MpHolds);
        match kind {
            ScenarioKind::SampleMajorityGap { .. } => gap,
            ScenarioKind::PhaseStats { .. } => phase,
            ScenarioKind::DynamicsRule { .. } => self.supports_dynamics(),
            _ => !gap && !phase && (!mp || matches!(kind.init(), Some(InitSpec::Biased { .. }))),
        }
    }

    fn from_spec_name(s: &str) -> Option<Metric> {
        Metric::ALL.into_iter().find(|m| m.spec_name() == s)
    }
}

impl fmt::Display for Metric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.spec_name())
    }
}

/// What a scenario reports per grid point (`observe.*` keys).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ObserveMode {
    /// End-of-run summaries, one row per grid point rendered through the
    /// spec's [`Metric`] columns (the default).
    #[default]
    Summary,
    /// The full per-phase trajectory of every execution
    /// (`observe.trajectory = true`): one row per phase per trial, through
    /// an attached `TrajectoryRecorder` — the shape of experiment F5.
    Trajectory,
    /// Per-phase aggregates across the trials
    /// (`observe.phases = true`): one row per phase index with streaming
    /// mean activation / growth / bias / amplification, through an
    /// attached `OnlineStats` — the shape of experiment T3.
    Phases,
}

/// Early-stop conditions of a scenario (`stop.*` keys), combined
/// disjunctively: the run ends at the first phase boundary where *any* set
/// condition holds. With no key set, runs execute their complete schedule
/// (protocol kinds) or their round budget (dynamics), exactly as before.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StopSpec {
    /// `stop.max_rounds = N` — stop once at least `N` rounds have run.
    pub max_rounds: Option<u64>,
    /// `stop.consensus = true` — stop once every agent agrees.
    pub consensus: bool,
    /// `stop.bias = B` — stop once the bias towards the reference opinion
    /// reaches `B`.
    pub bias: Option<f64>,
    /// `stop.plateau = W, T` — stop once the bias moved by at most `T`
    /// over the last `W` phase transitions.
    pub plateau: Option<(usize, f64)>,
}

impl StopSpec {
    /// True if no condition is set.
    pub fn is_empty(&self) -> bool {
        self.max_rounds.is_none() && !self.consensus && self.bias.is_none() && self.plateau.is_none()
    }

    /// The composed [`StopCondition`]
    /// ([`ScheduleExhausted`](StopCondition::ScheduleExhausted) when no
    /// key is set).
    pub fn to_condition(&self) -> StopCondition {
        let mut conditions = Vec::new();
        if let Some(rounds) = self.max_rounds {
            conditions.push(StopCondition::MaxRounds(rounds));
        }
        if self.consensus {
            conditions.push(StopCondition::ConsensusReached);
        }
        if let Some(bias) = self.bias {
            conditions.push(StopCondition::BiasAtLeast(bias));
        }
        if let Some((window, tolerance)) = self.plateau {
            conditions.push(StopCondition::Plateau { window, tolerance });
        }
        StopCondition::any(conditions)
    }
}

/// A complete, serializable description of one experiment run.
///
/// See the [module docs](self) for the textual form. Field defaults (used
/// by [`ScenarioSpec::new`] and when a key is absent from a spec file):
/// `epsilon = 0.2`, `noise = uniform(epsilon)`, `delivery = exact`,
/// `topology = complete`, `churn = none`, `schedule = const`,
/// `clock = sync`, `backend = auto`, default
/// [`ProtocolConstants`], `trials = 1`, `seed = 0`, no sweep axes,
/// default metrics for the kind, summary observation, no stop conditions.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// What is being run.
    pub kind: ScenarioKind,
    /// Base network size `n` (overridden per point by `sweep.n`).
    pub n: usize,
    /// Base opinion count `k` (overridden per point by `sweep.k`).
    pub k: usize,
    /// Base schedule ε (overridden per point by `sweep.eps`).
    pub epsilon: f64,
    /// The noise family and parameters.
    pub noise: NoiseSpec,
    /// Delivery semantics (process O, B or P).
    pub delivery: DeliverySemantics,
    /// Communication topology (overridden per point by `sweep.topology`).
    pub topology: TopologySpec,
    /// Injected faults (overridden per point by `sweep.fault`); all
    /// disabled by default. Protocol scenarios only.
    pub fault: FaultSpec,
    /// Population/edge churn (overridden per point by `sweep.churn`);
    /// disabled by default. Protocol scenarios only.
    pub churn: ChurnSpec,
    /// Noise schedule `ε(t)` (overridden per point by `sweep.schedule`);
    /// [`NoiseSchedule::Const`] by default. Protocol scenarios only.
    pub schedule: NoiseSchedule,
    /// Clock model (overridden per point by `sweep.clock`);
    /// [`ClockSpec::Sync`] by default. Protocol scenarios only.
    pub clock: ClockSpec,
    /// Requested simulation backend.
    pub backend: ExecutionBackend,
    /// Protocol constants (spec files override individual fields with
    /// `constants.<name> = value`).
    pub constants: ProtocolConstants,
    /// Independent trials per grid point.
    pub trials: u64,
    /// Base RNG seed.
    pub seed: u64,
    /// Sweep axes.
    pub sweep: SweepAxes,
    /// Result columns; empty means [`default_metrics`](Self::default_metrics).
    pub metrics: Vec<Metric>,
    /// What is reported per grid point (`observe.*` keys).
    pub observe: ObserveMode,
    /// Early-stop conditions (`stop.*` keys).
    pub stop: StopSpec,
}

impl ScenarioSpec {
    /// A single-point spec for `kind` with all other fields at their
    /// defaults (see the type-level docs).
    pub fn new(kind: ScenarioKind, n: usize, k: usize) -> Self {
        Self {
            kind,
            n,
            k,
            epsilon: 0.2,
            noise: NoiseSpec::Uniform { epsilon: 0.2 },
            delivery: DeliverySemantics::Exact,
            topology: TopologySpec::Complete,
            fault: FaultSpec::default(),
            churn: ChurnSpec::default(),
            schedule: NoiseSchedule::Const,
            clock: ClockSpec::Sync,
            backend: ExecutionBackend::Auto,
            constants: ProtocolConstants::default(),
            trials: 1,
            seed: 0,
            sweep: SweepAxes::default(),
            metrics: Vec::new(),
            observe: ObserveMode::default(),
            stop: StopSpec::default(),
        }
    }

    /// The metric columns used when [`metrics`](Self::metrics) is empty:
    /// `success, rounds, rounds_norm, messages` for protocol scenarios,
    /// `consensus, correct, share, rounds` for dynamics scenarios, and the
    /// kind-specific column sets for `gap` and `phase` scenarios.
    pub fn default_metrics(&self) -> Vec<Metric> {
        match &self.kind {
            ScenarioKind::DynamicsRule { .. } => {
                vec![Metric::Consensus, Metric::Correct, Metric::Share, Metric::Rounds]
            }
            ScenarioKind::SampleMajorityGap { .. } => {
                vec![Metric::Gap, Metric::GapBound, Metric::GapExact, Metric::GapHolds]
            }
            ScenarioKind::PhaseStats { .. } => vec![
                Metric::TotalReceived,
                Metric::MeanReceived,
                Metric::VarReceived,
                Metric::FracReceived,
                Metric::Adopt0,
            ],
            _ => vec![Metric::Success, Metric::Rounds, Metric::RoundsNorm, Metric::Messages],
        }
    }

    /// The metric columns this spec reports (explicit or default).
    pub fn effective_metrics(&self) -> Vec<Metric> {
        if self.metrics.is_empty() {
            self.default_metrics()
        } else {
            self.metrics.clone()
        }
    }

    /// Checks cross-field consistency (axis/kind compatibility, metric
    /// support, non-degenerate trials) and admits every grid point's
    /// simulator configuration against the backend the runner will use
    /// there. Noise and protocol parameters are validated by their
    /// builders when the run is materialized.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::Invalid`] describing the first inconsistency.
    pub fn validate(&self) -> Result<(), SpecError> {
        if self.trials == 0 {
            return Err(SpecError::Invalid("trials must be at least 1".into()));
        }
        let ks = if self.sweep.k.is_empty() {
            std::slice::from_ref(&self.k)
        } else {
            &self.sweep.k
        };
        // Gap points build no network, so no admission checks their k.
        if let (ScenarioKind::SampleMajorityGap { .. }, Some(&bad)) =
            (&self.kind, ks.iter().find(|&&k| k < 2))
        {
            return Err(SpecError::Invalid(format!(
                "gap scenarios need at least two opinions, not k = {bad}"
            )));
        }
        if let ScenarioKind::RumorSpreading { source } = self.kind {
            if let Some(&bad) = ks.iter().find(|&&k| source >= k) {
                return Err(SpecError::Invalid(format!(
                    "source opinion {source} is out of range for k = {bad}"
                )));
            }
            if !self.sweep.bias.is_empty() {
                return Err(SpecError::Invalid(
                    "sweep.bias applies only to scenarios with an initial configuration \
                     (plurality, stage2, dynamics)"
                        .into(),
                ));
            }
        }
        if let Some(init) = self.kind.init() {
            match init {
                InitSpec::Biased { bias } => {
                    let biases = if self.sweep.bias.is_empty() {
                        std::slice::from_ref(bias)
                    } else {
                        &self.sweep.bias
                    };
                    if let Some(&bad) =
                        biases.iter().find(|b| !(0.0..1.0).contains(*b) || !b.is_finite())
                    {
                        return Err(SpecError::Invalid(format!(
                            "initial bias {bad} must lie in [0, 1)"
                        )));
                    }
                }
                InitSpec::Counts(counts) => {
                    if !self.sweep.bias.is_empty() {
                        return Err(SpecError::Invalid(
                            "sweep.bias requires a `bias = …` initial configuration, \
                             not explicit counts"
                                .into(),
                        ));
                    }
                    if let Some(&bad) = ks.iter().find(|&&k| counts.len() != k) {
                        return Err(SpecError::Invalid(format!(
                            "counts has {} entries but k = {bad}",
                            counts.len()
                        )));
                    }
                    // The reference opinion of every scenario kind is the
                    // unique plurality; ties would make the correct/share
                    // metrics measure an arbitrary opinion.
                    let max = counts.iter().max().copied().unwrap_or(0);
                    if counts.iter().filter(|&&c| c == max).count() != 1 {
                        return Err(SpecError::Invalid(
                            "explicit counts must have a unique plurality opinion".into(),
                        ));
                    }
                }
            }
        }
        if let Some(bad) = self
            .effective_metrics()
            .into_iter()
            .find(|m| !m.supported_by(&self.kind))
        {
            return Err(SpecError::Invalid(format!(
                "metric {bad} is not reported by {} scenarios",
                self.kind.name()
            )));
        }
        self.validate_kind_specific_axes()?;
        self.validate_network_axes()?;
        self.validate_observe_and_stop()?;
        self.validate_grid()
    }

    /// Checks which kinds may set the network axes: the topology applies to
    /// every kind that simulates a network, faults and the temporal axes
    /// to protocol kinds only. Also rejects two combinations with no
    /// observable effect: a crash scheduled after the run's round budget,
    /// and a ramp schedule next to an ε sweep.
    fn validate_network_axes(&self) -> Result<(), SpecError> {
        let simulates = self.kind.is_protocol()
            || self.kind.is_dynamics()
            || matches!(self.kind, ScenarioKind::PhaseStats { .. });
        if !simulates && (!self.topology.is_complete() || !self.sweep.topology.is_empty()) {
            return Err(SpecError::Invalid(format!(
                "topology applies only to scenarios that simulate a network, not {}",
                self.kind.name()
            )));
        }
        let faults = runner::non_empty_or(&self.sweep.fault, self.fault);
        let schedules = runner::non_empty_or(&self.sweep.schedule, self.schedule);
        if !self.kind.is_protocol() {
            if !self.fault.is_none() || !self.sweep.fault.is_empty() {
                return Err(SpecError::Invalid(format!(
                    "fault / sweep.fault apply only to protocol scenarios \
                     (rumor, plurality, stage2), not {}",
                    self.kind.name()
                )));
            }
            let temporal = !self.churn.is_none()
                || !self.schedule.is_const()
                || !self.clock.is_sync()
                || !self.sweep.churn.is_empty()
                || !self.sweep.schedule.is_empty()
                || !self.sweep.clock.is_empty();
            if temporal {
                return Err(SpecError::Invalid(format!(
                    "churn / schedule / clock apply only to protocol scenarios \
                     (rumor, plurality, stage2), not {}",
                    self.kind.name()
                )));
            }
        }
        if let Some(max_rounds) = self.stop.max_rounds {
            // Completing phase s takes at least s + 1 rounds (every phase
            // runs at least one round), so a crash scheduled after phase s
            // can never act before the stop fires.
            if let Some(crash) = faults
                .iter()
                .filter_map(|f| f.crash)
                .find(|crash| crash.after_phase + 1 >= max_rounds)
            {
                return Err(SpecError::Invalid(format!(
                    "crash after phase {} can never activate: stop.max_rounds = \
                     {max_rounds} ends the run first",
                    crash.after_phase
                )));
            }
        }
        if !self.sweep.eps.is_empty() {
            if let Some(ramp) = schedules
                .iter()
                .find(|s| matches!(s, NoiseSchedule::Ramp { .. }))
            {
                return Err(SpecError::Invalid(format!(
                    "schedule {ramp} overrides ε in every phase, so sweep.eps \
                     would have no observable effect"
                )));
            }
        }
        Ok(())
    }

    /// Builds the simulator configuration of every grid point and admits
    /// it against the backend the runner will use there, so a spec that
    /// validates never fails admission at run time.
    fn validate_grid(&self) -> Result<(), SpecError> {
        let Some(backend) = runner::network_backend(self) else {
            return Ok(());
        };
        let invalid = |e: SimError| SpecError::Invalid(e.to_string());
        for point in runner::expand_grid(self) {
            let config = runner::point_config(&point).build().map_err(invalid)?;
            pushsim::admit(&config, backend).map_err(invalid)?;
        }
        Ok(())
    }

    /// Rejects sweep axes on kinds that cannot interpret them, and a
    /// dynamics budget shorter than one step of its rule (which would run
    /// nothing).
    fn validate_kind_specific_axes(&self) -> Result<(), SpecError> {
        let sweep = &self.sweep;
        if let ScenarioKind::DynamicsRule { rule, rounds, .. } = &self.kind {
            if *rule == (RuleSpec::HMajority { h: 0 }) {
                return Err(SpecError::Invalid("h-majority needs h of at least 1".into()));
            }
            let step = rule.phase().rounds;
            if let Some(rounds) = rounds.filter(|&rounds| rounds < step) {
                return Err(SpecError::Invalid(format!(
                    "rounds = {rounds} is below the {step}-round step of {rule}"
                )));
            }
        }
        match &self.kind {
            ScenarioKind::SampleMajorityGap { ell, delta } => {
                if !sweep.n.is_empty() || !sweep.eps.is_empty() || !sweep.bias.is_empty() {
                    return Err(SpecError::Invalid(
                        "gap scenarios sweep only k, ell and delta".into(),
                    ));
                }
                if !sweep.delivery.is_empty() {
                    return Err(SpecError::Invalid(
                        "sweep.delivery applies only to phase scenarios".into(),
                    ));
                }
                let ells = if sweep.ell.is_empty() {
                    std::slice::from_ref(ell)
                } else {
                    &sweep.ell
                };
                if ells.contains(&0) {
                    return Err(SpecError::Invalid("ell must be at least 1".into()));
                }
                let deltas = if sweep.delta.is_empty() {
                    std::slice::from_ref(delta)
                } else {
                    &sweep.delta
                };
                if let Some(&bad) =
                    deltas.iter().find(|d| !(0.0..1.0).contains(*d) || !d.is_finite())
                {
                    return Err(SpecError::Invalid(format!(
                        "delta {bad} must lie in [0, 1)"
                    )));
                }
            }
            ScenarioKind::PhaseStats { rounds, .. } => {
                if *rounds == 0 {
                    return Err(SpecError::Invalid(
                        "phase scenarios need at least one round".into(),
                    ));
                }
                if !sweep.ell.is_empty() || !sweep.delta.is_empty() {
                    return Err(SpecError::Invalid(
                        "sweep.ell / sweep.delta apply only to gap scenarios".into(),
                    ));
                }
                if !sweep.k.is_empty() || !sweep.n.is_empty() || !sweep.eps.is_empty()
                    || !sweep.bias.is_empty()
                {
                    return Err(SpecError::Invalid(
                        "phase scenarios sweep only the delivery process".into(),
                    ));
                }
            }
            _ => {
                if !sweep.ell.is_empty() || !sweep.delta.is_empty() {
                    return Err(SpecError::Invalid(
                        "sweep.ell / sweep.delta apply only to gap scenarios".into(),
                    ));
                }
                if !sweep.delivery.is_empty() {
                    return Err(SpecError::Invalid(
                        "sweep.delivery applies only to phase scenarios".into(),
                    ));
                }
            }
        }
        Ok(())
    }

    /// Checks the `observe.*` / `stop.*` keys against the kind.
    fn validate_observe_and_stop(&self) -> Result<(), SpecError> {
        let simulates = self.kind.is_protocol() || self.kind.is_dynamics();
        if self.observe != ObserveMode::Summary {
            if !simulates {
                return Err(SpecError::Invalid(format!(
                    "observe.* applies to protocol and dynamics scenarios, not {}",
                    self.kind.name()
                )));
            }
            if !self.metrics.is_empty() {
                return Err(SpecError::Invalid(
                    "metrics and observe.* are mutually exclusive (the observe mode \
                     fixes the columns)"
                        .into(),
                ));
            }
        }
        if !self.stop.is_empty() && !simulates {
            return Err(SpecError::Invalid(format!(
                "stop.* applies to protocol and dynamics scenarios, not {}",
                self.kind.name()
            )));
        }
        if let Some(rounds) = self.stop.max_rounds {
            if rounds == 0 {
                return Err(SpecError::Invalid("stop.max_rounds must be at least 1".into()));
            }
        }
        if let Some(bias) = self.stop.bias {
            if !bias.is_finite() || !(0.0..=1.0).contains(&bias) || bias == 0.0 {
                return Err(SpecError::Invalid(format!(
                    "stop.bias {bias} must lie in (0, 1]"
                )));
            }
        }
        if let Some((window, tolerance)) = self.stop.plateau {
            if window == 0 {
                return Err(SpecError::Invalid(
                    "stop.plateau needs a window of at least 1 phase".into(),
                ));
            }
            if !tolerance.is_finite() || tolerance < 0.0 {
                return Err(SpecError::Invalid(format!(
                    "stop.plateau tolerance {tolerance} must be finite and non-negative"
                )));
            }
        }
        Ok(())
    }

    /// Renders the spec in its canonical `key = value` textual form.
    ///
    /// The output parses back to an equal spec with
    /// [`from_text`](Self::from_text).
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let mut line = |k: &str, v: String| {
            let _ = writeln!(out, "{k} = {v}");
        };
        line("scenario", self.kind.name().to_string());
        match &self.kind {
            ScenarioKind::RumorSpreading { source } => line("source", source.to_string()),
            ScenarioKind::PluralityConsensus { init } | ScenarioKind::Stage2Only { init } => {
                init_lines(&mut line, init);
            }
            ScenarioKind::DynamicsRule { rule, init, rounds } => {
                line("rule", rule.to_string());
                init_lines(&mut line, init);
                if let Some(rounds) = rounds {
                    line("rounds", rounds.to_string());
                }
            }
            ScenarioKind::SampleMajorityGap { ell, delta } => {
                line("ell", ell.to_string());
                line("delta", delta.to_string());
            }
            ScenarioKind::PhaseStats { rounds, init } => {
                init_lines(&mut line, init);
                line("rounds", rounds.to_string());
            }
        }
        line("n", self.n.to_string());
        line("k", self.k.to_string());
        line("epsilon", self.epsilon.to_string());
        line("noise", self.noise.to_string());
        line("delivery", self.delivery.spec_name().to_string());
        line("topology", self.topology.to_string());
        if !self.fault.is_none() {
            line("fault", self.fault.to_string());
        }
        if !self.churn.is_none() {
            line("churn", self.churn.to_string());
        }
        if !self.schedule.is_const() {
            line("schedule", self.schedule.to_string());
        }
        if !self.clock.is_sync() {
            line("clock", self.clock.to_string());
        }
        line("backend", self.backend.to_string());
        line("trials", self.trials.to_string());
        line("seed", self.seed.to_string());
        let defaults = ProtocolConstants::default();
        for name in ProtocolConstants::FIELD_NAMES {
            let value = self.constants.get(name).expect("listed field");
            if value != defaults.get(name).expect("listed field") {
                line(&format!("constants.{name}"), value.to_string());
            }
        }
        if !self.sweep.k.is_empty() {
            line("sweep.k", join(&self.sweep.k));
        }
        if !self.sweep.n.is_empty() {
            line("sweep.n", join(&self.sweep.n));
        }
        if !self.sweep.eps.is_empty() {
            line("sweep.eps", join(&self.sweep.eps));
        }
        if !self.sweep.bias.is_empty() {
            line("sweep.bias", join(&self.sweep.bias));
        }
        if !self.sweep.ell.is_empty() {
            line("sweep.ell", join(&self.sweep.ell));
        }
        if !self.sweep.delta.is_empty() {
            line("sweep.delta", join(&self.sweep.delta));
        }
        if !self.sweep.delivery.is_empty() {
            let names: Vec<&str> = self.sweep.delivery.iter().map(|d| d.spec_name()).collect();
            line("sweep.delivery", names.join(", "));
        }
        if !self.sweep.topology.is_empty() {
            line("sweep.topology", join(&self.sweep.topology));
        }
        if !self.sweep.fault.is_empty() {
            line("sweep.fault", join(&self.sweep.fault));
        }
        if !self.sweep.churn.is_empty() {
            line("sweep.churn", join(&self.sweep.churn));
        }
        if !self.sweep.schedule.is_empty() {
            line("sweep.schedule", join(&self.sweep.schedule));
        }
        if !self.sweep.clock.is_empty() {
            line("sweep.clock", join(&self.sweep.clock));
        }
        if !self.metrics.is_empty() {
            line("metrics", join(&self.metrics));
        }
        match self.observe {
            ObserveMode::Summary => {}
            ObserveMode::Trajectory => line("observe.trajectory", "true".to_string()),
            ObserveMode::Phases => line("observe.phases", "true".to_string()),
        }
        if let Some(rounds) = self.stop.max_rounds {
            line("stop.max_rounds", rounds.to_string());
        }
        if self.stop.consensus {
            line("stop.consensus", "true".to_string());
        }
        if let Some(bias) = self.stop.bias {
            line("stop.bias", bias.to_string());
        }
        if let Some((window, tolerance)) = self.stop.plateau {
            line("stop.plateau", format!("{window}, {tolerance}"));
        }
        out
    }

    /// A stable 64-bit content digest of the spec: FNV-1a over the
    /// canonical [`to_text`](Self::to_text) form followed by the seed's
    /// little-endian bytes.
    ///
    /// Because the canonical text round-trips
    /// (`from_text(to_text(s)) == s`), any two specs with the same
    /// canonical form — regardless of comments, key order, or numeric
    /// formatting in the submitted text — share a digest, which makes
    /// it usable as a content-addressed cache key for results and for
    /// campaign/replay bookkeeping. The hash function is fixed: the
    /// digest is stable across processes, platforms, and releases that
    /// do not change the canonical form itself.
    pub fn canonical_digest(&self) -> u64 {
        let mut hash = fnv1a64(FNV_OFFSET_BASIS, self.to_text().as_bytes());
        hash = fnv1a64(hash, &self.seed.to_le_bytes());
        hash
    }

    /// Parses a spec from its textual form. `#` starts a comment; blank
    /// lines are ignored; keys may appear in any order but at most once.
    ///
    /// # Errors
    ///
    /// [`SpecError::Parse`] (with the 1-based line number) for syntax
    /// errors, unknown or duplicate keys, and malformed values;
    /// [`SpecError::Invalid`] if the assembled spec fails
    /// [`validate`](Self::validate).
    pub fn from_text(text: &str) -> Result<Self, SpecError> {
        let mut map: BTreeMap<&str, (usize, &str)> = BTreeMap::new();
        for (index, raw) in text.lines().enumerate() {
            let lineno = index + 1;
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let (key, value) = line.split_once('=').ok_or_else(|| SpecError::Parse {
                line: lineno,
                message: format!("expected `key = value`, got {line:?}"),
            })?;
            let (key, value) = (key.trim(), value.trim());
            if map.insert(key, (lineno, value)).is_some() {
                return Err(SpecError::Parse {
                    line: lineno,
                    message: format!("duplicate key {key:?}"),
                });
            }
        }

        let scenario = map.remove("scenario").ok_or(SpecError::Missing { key: "scenario" })?;
        let kind = match scenario.1 {
            "rumor" => ScenarioKind::RumorSpreading {
                source: take_parsed(&mut map, "source")?.unwrap_or(0),
            },
            "plurality" => ScenarioKind::PluralityConsensus {
                init: take_init(&mut map)?,
            },
            "stage2" => ScenarioKind::Stage2Only {
                init: take_init(&mut map)?,
            },
            "dynamics" => ScenarioKind::DynamicsRule {
                rule: take_from_str(&mut map, "rule")?.ok_or(SpecError::Missing { key: "rule" })?,
                init: take_init(&mut map)?,
                rounds: take_parsed(&mut map, "rounds")?,
            },
            "gap" => ScenarioKind::SampleMajorityGap {
                ell: take_parsed(&mut map, "ell")?.unwrap_or(25),
                delta: take_parsed(&mut map, "delta")?.unwrap_or(0.1),
            },
            "phase" => ScenarioKind::PhaseStats {
                rounds: take_parsed(&mut map, "rounds")?
                    .ok_or(SpecError::Missing { key: "rounds" })?,
                init: take_init(&mut map)?,
            },
            other => {
                return Err(SpecError::Parse {
                    line: scenario.0,
                    message: format!(
                        "unknown scenario {other:?} (expected rumor, plurality, stage2, \
                         dynamics, gap or phase)"
                    ),
                })
            }
        };

        let n = take_parsed(&mut map, "n")?.ok_or(SpecError::Missing { key: "n" })?;
        let k = take_parsed(&mut map, "k")?.ok_or(SpecError::Missing { key: "k" })?;
        let epsilon: f64 = take_parsed(&mut map, "epsilon")?.unwrap_or(0.2);
        let noise = take_from_str(&mut map, "noise")?.unwrap_or(NoiseSpec::Uniform { epsilon });
        let delivery = take_from_str(&mut map, "delivery")?.unwrap_or(DeliverySemantics::Exact);
        let topology = take_from_str(&mut map, "topology")?.unwrap_or(TopologySpec::Complete);
        let fault = take_from_str(&mut map, "fault")?.unwrap_or_default();
        let churn = take_from_str(&mut map, "churn")?.unwrap_or_default();
        let schedule = take_from_str(&mut map, "schedule")?.unwrap_or(NoiseSchedule::Const);
        let clock = take_from_str(&mut map, "clock")?.unwrap_or(ClockSpec::Sync);
        let backend = take_from_str(&mut map, "backend")?.unwrap_or(ExecutionBackend::Auto);

        let mut constants = ProtocolConstants::default();
        for name in ProtocolConstants::FIELD_NAMES {
            let key = format!("constants.{name}");
            if let Some((line, value)) = map.remove(key.as_str()) {
                let value: f64 = value.parse().map_err(|_| SpecError::Parse {
                    line,
                    message: format!("malformed number {value:?} for {key}"),
                })?;
                assert!(constants.set(name, value), "FIELD_NAMES entries are settable");
            }
        }

        let trials = take_parsed(&mut map, "trials")?.unwrap_or(1);
        let seed = take_parsed(&mut map, "seed")?.unwrap_or(0);
        let sweep = SweepAxes {
            k: take_list(&mut map, "sweep.k")?,
            n: take_list(&mut map, "sweep.n")?,
            eps: take_list(&mut map, "sweep.eps")?,
            bias: take_list(&mut map, "sweep.bias")?,
            ell: take_list(&mut map, "sweep.ell")?,
            delta: take_list(&mut map, "sweep.delta")?,
            delivery: take_list(&mut map, "sweep.delivery")?,
            topology: take_list(&mut map, "sweep.topology")?,
            fault: take_list(&mut map, "sweep.fault")?,
            churn: take_list(&mut map, "sweep.churn")?,
            schedule: take_list(&mut map, "sweep.schedule")?,
            clock: take_list(&mut map, "sweep.clock")?,
        };
        let observe = {
            let trajectory: bool =
                take_parsed(&mut map, "observe.trajectory")?.unwrap_or(false);
            let phases: bool = take_parsed(&mut map, "observe.phases")?.unwrap_or(false);
            match (trajectory, phases) {
                (true, true) => {
                    return Err(SpecError::Invalid(
                        "choose one of observe.trajectory and observe.phases".into(),
                    ))
                }
                (true, false) => ObserveMode::Trajectory,
                (false, true) => ObserveMode::Phases,
                (false, false) => ObserveMode::Summary,
            }
        };
        let stop = StopSpec {
            max_rounds: take_parsed(&mut map, "stop.max_rounds")?,
            consensus: take_parsed(&mut map, "stop.consensus")?.unwrap_or(false),
            bias: take_parsed(&mut map, "stop.bias")?,
            plateau: match map.remove("stop.plateau") {
                None => None,
                Some((line, value)) => {
                    let parts: Vec<&str> =
                        value.split(',').map(str::trim).filter(|s| !s.is_empty()).collect();
                    let parsed = match parts.as_slice() {
                        [window, tolerance] => window
                            .parse::<usize>()
                            .ok()
                            .zip(tolerance.parse::<f64>().ok()),
                        _ => None,
                    };
                    Some(parsed.ok_or_else(|| SpecError::Parse {
                        line,
                        message: format!(
                            "stop.plateau expects `window, tolerance`, got {value:?}"
                        ),
                    })?)
                }
            },
        };
        let metrics = match map.remove("metrics") {
            None => Vec::new(),
            Some((line, value)) => value
                .split(',')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .map(|s| {
                    Metric::from_spec_name(s).ok_or_else(|| SpecError::Parse {
                        line,
                        message: format!("unknown metric {s:?}"),
                    })
                })
                .collect::<Result<Vec<_>, _>>()?,
        };

        if let Some((&key, &(line, _))) = map.iter().next() {
            return Err(SpecError::Parse {
                line,
                message: format!("unknown key {key:?} for scenario {scenario}", scenario = kind.name()),
            });
        }

        let spec = ScenarioSpec {
            kind,
            n,
            k,
            epsilon,
            noise,
            delivery,
            topology,
            fault,
            churn,
            schedule,
            clock,
            backend,
            constants,
            trials,
            seed,
            sweep,
            metrics,
            observe,
            stop,
        };
        spec.validate()?;
        Ok(spec)
    }
}

fn init_lines(line: &mut impl FnMut(&str, String), init: &InitSpec) {
    match init {
        InitSpec::Biased { bias } => line("bias", bias.to_string()),
        InitSpec::Counts(counts) => line("counts", join(counts)),
    }
}

fn join<T: fmt::Display>(values: &[T]) -> String {
    values
        .iter()
        .map(|v| v.to_string())
        .collect::<Vec<_>>()
        .join(", ")
}

type RawMap<'a> = BTreeMap<&'a str, (usize, &'a str)>;

fn take_parsed<T: std::str::FromStr>(
    map: &mut RawMap<'_>,
    key: &'static str,
) -> Result<Option<T>, SpecError> {
    match map.remove(key) {
        None => Ok(None),
        Some((line, value)) => value.parse().map(Some).map_err(|_| SpecError::Parse {
            line,
            message: format!("malformed value {value:?} for {key}"),
        }),
    }
}

/// Takes a spelled value, whose parse error is the message.
fn take_from_str<T>(map: &mut RawMap<'_>, key: &'static str) -> Result<Option<T>, SpecError>
where
    T: std::str::FromStr,
    T::Err: fmt::Display,
{
    match map.remove(key) {
        None => Ok(None),
        Some((line, value)) => value.parse().map(Some).map_err(|e: T::Err| SpecError::Parse {
            line,
            message: e.to_string(),
        }),
    }
}

/// Takes a comma-separated list; an entry's parse error is kept after
/// the entry and the key.
fn take_list<T>(map: &mut RawMap<'_>, key: &'static str) -> Result<Vec<T>, SpecError>
where
    T: std::str::FromStr,
    T::Err: fmt::Display,
{
    match map.remove(key) {
        None => Ok(Vec::new()),
        Some((line, value)) => value
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(|s| {
                s.parse().map_err(|e: T::Err| SpecError::Parse {
                    line,
                    message: format!("malformed list entry {s:?} for {key}: {e}"),
                })
            })
            .collect(),
    }
}

fn take_init(map: &mut RawMap<'_>) -> Result<InitSpec, SpecError> {
    let bias: Option<f64> = take_parsed(map, "bias")?;
    let counts: Vec<usize> = take_list(map, "counts")?;
    match (bias, counts.is_empty()) {
        (Some(_), false) => Err(SpecError::Invalid(
            "give either `bias = …` or `counts = …`, not both".into(),
        )),
        (Some(bias), true) => Ok(InitSpec::Biased { bias }),
        (None, false) => Ok(InitSpec::Counts(counts)),
        (None, true) => Err(SpecError::Missing { key: "bias (or counts)" }),
    }
}

/// Errors from parsing, validating or executing a [`ScenarioSpec`].
#[derive(Debug)]
pub enum SpecError {
    /// A line of the textual form could not be parsed.
    Parse {
        /// 1-based line number in the input.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// A required key is absent.
    Missing {
        /// The missing key.
        key: &'static str,
    },
    /// The spec is syntactically fine but internally inconsistent.
    Invalid(String),
    /// Protocol parameter validation failed when materializing a run.
    Protocol(ProtocolError),
    /// Noise-matrix construction failed when materializing a run.
    Noise(NoiseError),
    /// Simulator configuration failed when materializing a run.
    Sim(SimError),
    /// Writing a streamed result row failed (the reader went away).
    Write(std::io::Error),
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::Parse { line, message } => write!(f, "spec line {line}: {message}"),
            SpecError::Missing { key } => write!(f, "spec is missing required key `{key}`"),
            SpecError::Invalid(message) => write!(f, "invalid spec: {message}"),
            // A simulator failure surfaces while the run goes, after
            // every parameter passed validation.
            SpecError::Protocol(ProtocolError::Simulation(message)) => {
                write!(f, "the run failed: {message}")
            }
            SpecError::Protocol(e) => write!(f, "invalid protocol parameters: {e}"),
            SpecError::Noise(e) => write!(f, "invalid noise matrix: {e}"),
            SpecError::Sim(e) => write!(f, "invalid simulation config: {e}"),
            SpecError::Write(e) => write!(f, "cannot write the result stream: {e}"),
        }
    }
}

impl std::error::Error for SpecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SpecError::Protocol(e) => Some(e),
            SpecError::Noise(e) => Some(e),
            SpecError::Sim(e) => Some(e),
            SpecError::Write(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ProtocolError> for SpecError {
    fn from(e: ProtocolError) -> Self {
        SpecError::Protocol(e)
    }
}

impl From<NoiseError> for SpecError {
    fn from(e: NoiseError) -> Self {
        SpecError::Noise(e)
    }
}

impl From<SimError> for SpecError {
    fn from(e: SimError) -> Self {
        SpecError::Sim(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rumor_spec() -> ScenarioSpec {
        let mut spec = ScenarioSpec::new(ScenarioKind::RumorSpreading { source: 1 }, 2_000, 3);
        spec.epsilon = 0.25;
        spec.noise = NoiseSpec::Uniform { epsilon: 0.25 };
        spec.trials = 5;
        spec.seed = 242;
        spec.sweep.eps = vec![0.1, 0.15, 0.2];
        spec.metrics = vec![Metric::Success, Metric::Rounds];
        spec
    }

    #[test]
    fn canonical_text_round_trips() {
        let spec = rumor_spec();
        let text = spec.to_text();
        let parsed = ScenarioSpec::from_text(&text).expect("canonical text parses");
        assert_eq!(parsed, spec);
    }

    #[test]
    fn dynamics_and_counts_round_trip() {
        let mut spec = ScenarioSpec::new(
            ScenarioKind::DynamicsRule {
                rule: RuleSpec::HMajority { h: 15 },
                init: InitSpec::Counts(vec![500, 300, 200]),
                rounds: Some(1_200),
            },
            1_000,
            3,
        );
        spec.constants.c = 12.0;
        spec.delivery = DeliverySemantics::Poissonized;
        spec.backend = ExecutionBackend::Counting;
        let parsed = ScenarioSpec::from_text(&spec.to_text()).unwrap();
        assert_eq!(parsed, spec);
    }

    #[test]
    fn topology_keys_round_trip_and_validate() {
        // The base key and the sweep axis round-trip through the text form.
        let mut spec = rumor_spec();
        spec.topology = TopologySpec::RandomRegular { degree: 8 };
        let parsed = ScenarioSpec::from_text(&spec.to_text()).unwrap();
        assert_eq!(parsed, spec);
        assert_eq!(parsed.topology, TopologySpec::RandomRegular { degree: 8 });

        let mut spec = rumor_spec();
        spec.sweep.topology = vec![
            TopologySpec::Complete,
            TopologySpec::Ring,
            TopologySpec::ErdosRenyi { p: 0.01 },
        ];
        let parsed = ScenarioSpec::from_text(&spec.to_text()).unwrap();
        assert_eq!(parsed, spec);
        assert_eq!(parsed.sweep.num_points(), 9, "3 eps x 3 topologies");

        // The key parses from a raw file too.
        let spec = ScenarioSpec::from_text(
            "scenario = rumor\nn = 100\nk = 2\ntopology = ring\n",
        )
        .unwrap();
        assert_eq!(spec.topology, TopologySpec::Ring);
    }

    #[test]
    fn topology_validation_rejects_inconsistent_combinations() {
        // Non-complete topologies never admit process B…
        let mut spec = rumor_spec();
        spec.topology = TopologySpec::Ring;
        spec.delivery = DeliverySemantics::BallsIntoBins;
        assert!(matches!(spec.validate(), Err(SpecError::Invalid(_))));
        // …admit process P only on the vertex-transitive families (ring is
        // fine — that is the block-counting backend's home turf — but
        // Erdős–Rényi is not)…
        let mut spec = rumor_spec();
        spec.topology = TopologySpec::Ring;
        spec.delivery = DeliverySemantics::Poissonized;
        assert!(spec.validate().is_ok());
        let mut spec = rumor_spec();
        spec.topology = TopologySpec::ErdosRenyi { p: 0.01 };
        spec.delivery = DeliverySemantics::Poissonized;
        assert!(matches!(spec.validate(), Err(SpecError::Invalid(_))));
        // …and cannot be forced onto the counting backend.
        let mut spec = rumor_spec();
        spec.sweep.topology = vec![TopologySpec::Ring];
        spec.backend = ExecutionBackend::Counting;
        assert!(matches!(spec.validate(), Err(SpecError::Invalid(_))));
        // Infeasible (topology, n) grid combinations fail statically.
        let mut spec = rumor_spec();
        spec.topology = TopologySpec::Torus2D;
        spec.n = 1_000; // not a perfect square
        assert!(matches!(spec.validate(), Err(SpecError::Invalid(_))));
        let mut spec = rumor_spec();
        spec.sweep.n = vec![1_024, 1_000];
        spec.sweep.topology = vec![TopologySpec::Torus2D];
        assert!(matches!(spec.validate(), Err(SpecError::Invalid(_))));
        // Below-simulation kinds have no network to shape.
        let mut spec = ScenarioSpec::new(
            ScenarioKind::SampleMajorityGap { ell: 25, delta: 0.1 },
            100,
            2,
        );
        spec.topology = TopologySpec::Ring;
        assert!(matches!(spec.validate(), Err(SpecError::Invalid(_))));
        // A feasible sparse spec passes.
        let mut spec = rumor_spec();
        spec.sweep.topology = vec![TopologySpec::Ring, TopologySpec::RandomRegular { degree: 4 }];
        assert!(spec.validate().is_ok());
    }

    #[test]
    fn fault_keys_round_trip_and_validate() {
        // The base key and the sweep axis round-trip through the text form.
        let mut spec = rumor_spec();
        spec.fault = "drop(0.1)+byz(0.05:0)".parse().unwrap();
        let parsed = ScenarioSpec::from_text(&spec.to_text()).unwrap();
        assert_eq!(parsed, spec);

        let mut spec = rumor_spec();
        spec.sweep.fault = vec![
            FaultSpec::default(),
            "drop(0.2)".parse().unwrap(),
            "crash(0.1@2)".parse().unwrap(),
        ];
        let parsed = ScenarioSpec::from_text(&spec.to_text()).unwrap();
        assert_eq!(parsed, spec);
        assert_eq!(parsed.sweep.num_points(), 9, "3 eps x 3 faults");

        // The key parses from a raw file too.
        let spec = ScenarioSpec::from_text(
            "scenario = rumor\nn = 100\nk = 2\nfault = dup(0.3)\n",
        )
        .unwrap();
        assert_eq!(spec.fault, "dup(0.3)".parse().unwrap());
    }

    #[test]
    fn fault_validation_rejects_inconsistent_combinations() {
        // Faults are protocol-only…
        let mut spec = ScenarioSpec::new(
            ScenarioKind::SampleMajorityGap { ell: 25, delta: 0.1 },
            100,
            2,
        );
        spec.fault = "drop(0.1)".parse().unwrap();
        assert!(matches!(spec.validate(), Err(SpecError::Invalid(_))));
        // …and complete-graph-only.
        let mut spec = rumor_spec();
        spec.fault = "drop(0.1)".parse().unwrap();
        spec.sweep.topology = vec![TopologySpec::Ring];
        assert!(matches!(spec.validate(), Err(SpecError::Invalid(_))));
        // A Byzantine opinion must exist at every swept k.
        let mut spec = rumor_spec();
        spec.fault = "byz(0.1:2)".parse().unwrap();
        spec.sweep.k = vec![3, 2];
        assert!(matches!(spec.validate(), Err(SpecError::Invalid(_))));
        spec.sweep.k = vec![3, 4];
        assert!(spec.validate().is_ok());
        // Delayed delivery cannot be forced onto the counting backend.
        let mut spec = rumor_spec();
        spec.fault = "delay(0.2)".parse().unwrap();
        spec.backend = ExecutionBackend::Counting;
        assert!(matches!(spec.validate(), Err(SpecError::Invalid(_))));
        spec.backend = ExecutionBackend::Auto;
        assert!(spec.validate().is_ok());
        // The block-counting backend rejects every enabled fault family.
        let mut spec = rumor_spec();
        spec.fault = "drop(0.1)".parse().unwrap();
        spec.backend = ExecutionBackend::BlockCounting;
        assert!(matches!(spec.validate(), Err(SpecError::Invalid(_))));
        // A crash the stop condition cuts off is dead weight.
        let mut spec = rumor_spec();
        spec.fault = "crash(0.1@50)".parse().unwrap();
        spec.stop.max_rounds = Some(20);
        assert!(matches!(spec.validate(), Err(SpecError::Invalid(_))));
        spec.stop.max_rounds = Some(2_000);
        assert!(spec.validate().is_ok());
        // An all-disabled spec composes with everything.
        let mut spec = rumor_spec();
        spec.fault = FaultSpec::default();
        spec.sweep.topology = vec![TopologySpec::Ring];
        assert!(spec.validate().is_ok());
    }

    #[test]
    fn temporal_keys_round_trip_and_validate() {
        // The base keys and the sweep axes round-trip through the text form.
        let mut spec = rumor_spec();
        spec.churn = "join(0.01:1)+leave(0.02)+burst(0.3@2)".parse().unwrap();
        spec.schedule = "burst(0.45@2:1)".parse().unwrap();
        spec.clock = "drift(20000)".parse().unwrap();
        spec.backend = ExecutionBackend::Agent;
        let parsed = ScenarioSpec::from_text(&spec.to_text()).unwrap();
        assert_eq!(parsed, spec);

        let mut spec = rumor_spec();
        spec.sweep.churn = vec![
            ChurnSpec::default(),
            "join(0.05)+leave(0.05)".parse().unwrap(),
            "burst(0.3@2)".parse().unwrap(),
        ];
        spec.sweep.schedule =
            vec![NoiseSchedule::Const, "step(0.4@2)".parse().unwrap()];
        let parsed = ScenarioSpec::from_text(&spec.to_text()).unwrap();
        assert_eq!(parsed, spec);
        assert_eq!(parsed.sweep.num_points(), 18, "3 eps x 3 churns x 2 schedules");

        // The keys parse from a raw file too.
        let spec = ScenarioSpec::from_text(
            "scenario = rumor\nn = 100\nk = 2\nchurn = leave(0.1)\nschedule = ramp(0.1:0.4@6)\n",
        )
        .unwrap();
        assert_eq!(spec.churn, "leave(0.1)".parse().unwrap());
        assert_eq!(spec.schedule, "ramp(0.1:0.4@6)".parse().unwrap());

        // Default temporal keys leave the canonical text untouched, so
        // every pre-temporal spec digest is preserved.
        let spec = rumor_spec();
        assert!(!spec.to_text().contains("churn"));
        assert!(!spec.to_text().contains("schedule"));
        assert!(!spec.to_text().contains("clock"));
    }

    #[test]
    fn temporal_validation_rejects_inconsistent_combinations() {
        // Temporal axes are protocol-only…
        let mut spec = ScenarioSpec::new(
            ScenarioKind::SampleMajorityGap { ell: 25, delta: 0.1 },
            100,
            2,
        );
        spec.churn = "leave(0.1)".parse().unwrap();
        assert!(matches!(spec.validate(), Err(SpecError::Invalid(_))));
        // …population churn is complete-graph-only…
        let mut spec = rumor_spec();
        spec.churn = "join(0.1)".parse().unwrap();
        spec.sweep.topology = vec![TopologySpec::Ring];
        assert!(matches!(spec.validate(), Err(SpecError::Invalid(_))));
        // …and cannot compose with identity-pinning faults.
        let mut spec = rumor_spec();
        spec.churn = "join(0.1)".parse().unwrap();
        spec.sweep.fault = vec!["crash(0.1@2)".parse().unwrap()];
        assert!(matches!(spec.validate(), Err(SpecError::Invalid(_))));
        spec.sweep.fault = vec!["drop(0.1)".parse().unwrap()];
        assert!(spec.validate().is_ok());
        // Edge churn needs a resampleable random topology…
        let mut spec = rumor_spec();
        spec.churn = "rewire(0.2)".parse().unwrap();
        assert!(matches!(spec.validate(), Err(SpecError::Invalid(_))));
        spec.topology = TopologySpec::RandomRegular { degree: 8 };
        assert!(spec.validate().is_ok());
        // …and only the agent backend simulates it.
        spec.backend = ExecutionBackend::BlockCounting;
        assert!(matches!(spec.validate(), Err(SpecError::Invalid(_))));
        // A join opinion must exist at every swept k.
        let mut spec = rumor_spec();
        spec.churn = "join(0.1:2)".parse().unwrap();
        spec.sweep.k = vec![3, 2];
        assert!(matches!(spec.validate(), Err(SpecError::Invalid(_))));
        spec.sweep.k = vec![3, 4];
        assert!(spec.validate().is_ok());
        // Scheduled ε values must keep the uniform matrix valid at every
        // swept k (ε ≤ 1 − 1/k: 0.6 is fine for k = 3, not for k = 2).
        let mut spec = rumor_spec();
        spec.schedule = "step(0.6@2)".parse().unwrap();
        spec.sweep.k = vec![3, 2];
        assert!(matches!(spec.validate(), Err(SpecError::Invalid(_))));
        spec.sweep.k = vec![3, 4];
        assert!(spec.validate().is_ok());
        // A ramp overrides ε in every phase, so sweeping eps is dead weight.
        let mut spec = rumor_spec();
        spec.schedule = "ramp(0.1:0.4@6)".parse().unwrap();
        assert!(matches!(spec.validate(), Err(SpecError::Invalid(_))));
        spec.sweep.eps = Vec::new();
        assert!(spec.validate().is_ok());
        // Drifting clocks cannot be forced onto the counting backends.
        let mut spec = rumor_spec();
        spec.clock = "drift(20000)".parse().unwrap();
        spec.backend = ExecutionBackend::Counting;
        assert!(matches!(spec.validate(), Err(SpecError::Invalid(_))));
        spec.backend = ExecutionBackend::Auto;
        assert!(spec.validate().is_ok());
        // An all-default temporal spec composes with everything.
        let mut spec = rumor_spec();
        spec.sweep.topology = vec![TopologySpec::Ring];
        assert!(spec.validate().is_ok());
    }

    #[test]
    fn comments_blank_lines_and_order_are_tolerated() {
        let spec = ScenarioSpec::from_text(
            "# a comment\n\n  k = 2\nscenario = plurality  # trailing comment\n bias = 0.1\n n = 500\n",
        )
        .unwrap();
        assert_eq!(spec.k, 2);
        assert_eq!(spec.n, 500);
        assert_eq!(
            spec.kind,
            ScenarioKind::PluralityConsensus {
                init: InitSpec::Biased { bias: 0.1 }
            }
        );
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let err = ScenarioSpec::from_text("scenario = rumor\nn = 100\nk = 2\nwobble = 3\n")
            .unwrap_err();
        match err {
            SpecError::Parse { line, message } => {
                assert_eq!(line, 4);
                assert!(message.contains("wobble"), "{message}");
            }
            other => panic!("expected parse error, got {other}"),
        }
        let err = ScenarioSpec::from_text("scenario = rumor\nn = 100\nn = 200\nk = 2\n").unwrap_err();
        assert!(matches!(err, SpecError::Parse { line: 3, .. }), "{err}");
    }

    #[test]
    fn a_bad_sweep_entry_reports_the_reason_its_scalar_key_gives() {
        let base = "scenario = rumor\nn = 100\nk = 2\nepsilon = 0.3\n";
        let parse_message = |text: String| match ScenarioSpec::from_text(&text) {
            Err(SpecError::Parse { line: 5, message }) => message,
            other => panic!("expected a parse error on line 5 of {text:?}, got {other:?}"),
        };
        for (key, good, bad) in [
            ("delivery", "exact", "sometimes"),
            ("topology", "ring", "ring(3)"),
            ("fault", "none", "drop(0)+drop(0.1)"),
            ("churn", "none", "leave(x)"),
            ("schedule", "const", "step(0.4)"),
            ("clock", "sync", "skew(x)"),
        ] {
            let reason = parse_message(format!("{base}{key} = {bad}\n"));
            let swept = parse_message(format!("{base}sweep.{key} = {good}, {bad}\n"));
            assert_eq!(swept, format!("malformed list entry {bad:?} for sweep.{key}: {reason}"));
        }
        let swept = parse_message(format!("{base}sweep.eps = 0.1, x\n"));
        assert_eq!(swept, "malformed list entry \"x\" for sweep.eps: invalid float literal");
    }

    #[test]
    fn missing_required_keys_are_reported() {
        assert!(matches!(
            ScenarioSpec::from_text("scenario = rumor\nk = 2\n"),
            Err(SpecError::Missing { key: "n" })
        ));
        assert!(matches!(
            ScenarioSpec::from_text("scenario = plurality\nn = 100\nk = 2\n"),
            Err(SpecError::Missing { .. })
        ));
        assert!(matches!(
            ScenarioSpec::from_text("scenario = dynamics\nn = 100\nk = 2\nbias = 0.1\n"),
            Err(SpecError::Missing { key: "rule" })
        ));
    }

    #[test]
    fn validation_rejects_inconsistent_specs() {
        let mut spec = rumor_spec();
        spec.sweep.bias = vec![0.1];
        assert!(matches!(spec.validate(), Err(SpecError::Invalid(_))));

        let mut spec = ScenarioSpec::new(ScenarioKind::RumorSpreading { source: 5 }, 100, 3);
        assert!(spec.validate().is_err());
        spec.kind = ScenarioKind::RumorSpreading { source: 2 };
        assert!(spec.validate().is_ok());

        let mut spec = ScenarioSpec::new(
            ScenarioKind::PluralityConsensus {
                init: InitSpec::Counts(vec![60, 40]),
            },
            100,
            3,
        );
        assert!(spec.validate().is_err(), "2 counts for k = 3");
        spec.k = 2;
        assert!(spec.validate().is_ok());
        spec.kind = ScenarioKind::PluralityConsensus {
            init: InitSpec::Counts(vec![50, 50]),
        };
        assert!(spec.validate().is_err(), "tied counts have no unique plurality");

        let mut spec = ScenarioSpec::new(
            ScenarioKind::DynamicsRule {
                rule: RuleSpec::Voter,
                init: InitSpec::Biased { bias: 0.1 },
                rounds: None,
            },
            100,
            2,
        );
        spec.metrics = vec![Metric::Stage1Bias];
        assert!(spec.validate().is_err(), "stage-1 bias is protocol-only");
        spec.metrics = vec![Metric::Share, Metric::Rounds];
        assert!(spec.validate().is_ok());
        // An explicit budget must fit at least one step of the rule: one
        // round, or 2h rounds for h-majority.
        for (rule, rounds, ok) in [
            (RuleSpec::Voter, 0, false),
            (RuleSpec::Voter, 1, true),
            (RuleSpec::HMajority { h: 15 }, 5, false),
            (RuleSpec::HMajority { h: 15 }, 29, false),
            (RuleSpec::HMajority { h: 15 }, 30, true),
            (RuleSpec::HMajority { h: 0 }, 30, false),
        ] {
            spec.kind = ScenarioKind::DynamicsRule {
                rule,
                init: InitSpec::Biased { bias: 0.1 },
                rounds: Some(rounds),
            };
            let result = spec.validate();
            assert_eq!(result.is_ok(), ok, "{rule} with rounds = {rounds}: {result:?}");
            if !ok {
                assert!(matches!(result, Err(SpecError::Invalid(_))));
            }
        }

        // The LP verdict needs an initial bias to evaluate the matrix at.
        let mut spec = rumor_spec();
        spec.metrics = vec![Metric::MpHolds];
        assert!(
            spec.validate().is_err(),
            "rumor scenarios have no initial bias"
        );
        spec.kind = ScenarioKind::PluralityConsensus {
            init: InitSpec::Counts(vec![60, 40]),
        };
        spec.k = 2;
        assert!(
            spec.validate().is_err(),
            "explicit counts carry no bias value"
        );
        spec.kind = ScenarioKind::PluralityConsensus {
            init: InitSpec::Biased { bias: 0.1 },
        };
        assert!(spec.validate().is_ok());

        // Gap points build no network, so no admission checks their k.
        let gap = "scenario = gap\nell = 25\ndelta = 0.1\nn = 1\n";
        for k in [
            "k = 1",
            "k = 0",
            "k = 2\nsweep.k = 2, 1",
            "k = 3\nsweep.k = 0",
        ] {
            let result = ScenarioSpec::from_text(&format!("{gap}{k}\n"));
            assert!(
                matches!(&result, Err(SpecError::Invalid(m)) if m.contains("two opinions")),
                "{k}: {result:?}"
            );
        }
        assert!(ScenarioSpec::from_text(&format!("{gap}k = 2\nsweep.k = 2, 3\n")).is_ok());
    }

    #[test]
    fn default_metrics_depend_on_the_kind() {
        let rumor = ScenarioSpec::new(ScenarioKind::RumorSpreading { source: 0 }, 100, 2);
        assert_eq!(
            rumor.default_metrics(),
            vec![Metric::Success, Metric::Rounds, Metric::RoundsNorm, Metric::Messages]
        );
        let dynamics = ScenarioSpec::new(
            ScenarioKind::DynamicsRule {
                rule: RuleSpec::Voter,
                init: InitSpec::Biased { bias: 0.1 },
                rounds: None,
            },
            100,
            2,
        );
        assert_eq!(
            dynamics.default_metrics(),
            vec![Metric::Consensus, Metric::Correct, Metric::Share, Metric::Rounds]
        );
    }

    #[test]
    fn noise_defaults_to_uniform_at_the_schedule_epsilon() {
        let spec =
            ScenarioSpec::from_text("scenario = rumor\nn = 100\nk = 2\nepsilon = 0.3\n").unwrap();
        assert_eq!(spec.noise, NoiseSpec::Uniform { epsilon: 0.3 });
    }

    #[test]
    fn sweep_axes_count_points() {
        let mut axes = SweepAxes::default();
        assert!(axes.is_empty());
        assert_eq!(axes.num_points(), 1);
        axes.k = vec![2, 3];
        axes.eps = vec![0.1, 0.2, 0.3];
        assert_eq!(axes.num_points(), 6);
    }
}
