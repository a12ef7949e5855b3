//! Execution of [`ScenarioSpec`]s through the generic protocol/dynamics
//! stack.
//!
//! A [`Runner`] expands a spec's sweep axes into a grid (their Cartesian
//! product, in the order of the crate's one sweep-axis table, `AXES` in
//! the `spec` module), executes every point for the requested number of
//! trials on the requested [`ExecutionBackend`], and returns a structured
//! [`RunReport`].
//! [`RunReport::to_table`] renders the report; [`headers`] and
//! [`point_rows`] render the same rows piecewise (the registry's variant
//! tables, the streaming path and the service's cell cache).
//!
//! What a point *reports* is the spec's [`ObserveMode`]:
//!
//! * [`Summary`](ObserveMode::Summary) — end-of-run aggregates, one row
//!   per point with the spec's metric columns (the default).
//! * [`Trajectory`](ObserveMode::Trajectory) — the full per-phase
//!   trajectory of every execution, recorded by an attached
//!   [`TrajectoryRecorder`]: one row per phase (per trial).
//! * [`Phases`](ObserveMode::Phases) — per-phase aggregates across the
//!   trials through a shared [`OnlineStats`] observer.
//!
//! [`Runner::run_streamed`] additionally emits every result row as a JSON
//! line the moment it exists — per completed point for summaries, *live
//! per phase* for trajectory runs (via a [`StreamSink`] attached to the
//! execution) — instead of holding everything for one final table.
//!
//! Protocol and dynamics scenarios run through the shared parallel trial
//! harness, so their statistics are bit-identical to the pre-spec harness
//! for the same parameters and seed (attached observers and
//! [`StopCondition::ScheduleExhausted`] provably leave RNG streams
//! untouched). Dynamics scenarios derive one seed per `(point, trial)`
//! cell with [`derive_seed`] and are likewise deterministic in the base
//! seed.

use crate::spec::{
    Axis, InitSpec, Metric, ObserveMode, ScenarioKind, ScenarioSpec, SpecError, AXES,
};
use crate::{biased_counts, run_trials, TrialSummary};
use gossip_analysis::observe::{
    OnlineStats, StreamSink, TrajectoryRecorder, PHASES_HEADERS, TRAJECTORY_HEADERS,
};
use gossip_analysis::stats::SampleStats;
use gossip_analysis::sweep::derive_seed;
use gossip_analysis::table::{json_line, Table};
use noisy_channel::{MpReport, NoiseMatrix};
use opinion_dynamics::RuleSpec;
use plurality_core::observe::{Fanout, NoObserver, Observer, StopCondition};
use plurality_core::{
    bounds, ExecutionBackend, Instance, Outcome, ProtocolError, ProtocolParams, TwoStageProtocol,
};
use pushsim::{
    BackendVisitor, ChurnSpec, ClockSpec, DeliverySemantics, FaultSpec, Network, NoiseSchedule,
    Opinion, PhaseObservation, PushBackend, SimConfig, SimConfigBuilder, SimError, TopologySpec,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::Write;

/// Salt mixed into the base seed for dynamics decision randomness, so the
/// decision RNG stream is unrelated to the delivery RNG stream.
const DECISION_SEED_SALT: u64 = 0xD0_0DAD;

/// Salt for the phase-statistics adoption probe (the "which opinion would
/// the Stage 1 rule pick" re-sample), keeping it independent of delivery.
const ADOPTION_SEED_SALT: u64 = 0x5AFE;

/// One grid point of a sweep: the resolved parameter values and the point's
/// position in the grid.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct GridPoint {
    /// Index of the point in row order.
    pub index: usize,
    /// Opinion count at this point.
    pub k: usize,
    /// Network size at this point.
    pub n: usize,
    /// Schedule ε at this point.
    pub eps: f64,
    /// Initial bias at this point (scenarios with a biased initial
    /// configuration only).
    pub bias: Option<f64>,
    /// Sample size ℓ at this point (`gap` scenarios only).
    pub ell: Option<u64>,
    /// Received-distribution bias δ at this point (`gap` scenarios only).
    pub delta: Option<f64>,
    /// Delivery process at this point (the spec's delivery unless a
    /// `phase` scenario sweeps it).
    pub delivery: DeliverySemantics,
    /// Communication topology at this point (the spec's topology unless
    /// `sweep.topology` overrides it).
    pub topology: TopologySpec,
    /// Fault-injection model at this point (the spec's `fault` unless
    /// `sweep.fault` makes it a campaign axis).
    pub fault: FaultSpec,
    /// Population/edge churn at this point (the spec's `churn` unless
    /// `sweep.churn` makes it a campaign axis).
    pub churn: ChurnSpec,
    /// Noise schedule `ε(t)` at this point (the spec's `schedule` unless
    /// `sweep.schedule` overrides it).
    pub schedule: NoiseSchedule,
    /// Clock model at this point (the spec's `clock` unless `sweep.clock`
    /// overrides it).
    pub clock: ClockSpec,
}

/// Result of a `gap` scenario at one grid point.
#[derive(Debug, Clone)]
pub struct GapSummary {
    /// Monte-Carlo estimate of the sample-majority gap; drawn only when
    /// the spec shows `gap` or `gap_holds`.
    pub measured: Option<f64>,
    /// The Proposition 1 analytic lower bound.
    pub bound: f64,
    /// The exact binomial gap (`k = 2` only).
    pub exact: Option<f64>,
    /// Whether the measured gap dominates the bound up to the Monte-Carlo
    /// noise floor `3/√trials`; `None` without an estimate.
    pub holds: Option<bool>,
}

/// Result of a `phase` scenario at one grid point (statistics over the
/// trials of one pushed phase).
#[derive(Debug, Clone)]
pub struct PhaseStatsSummary {
    /// Total messages observed.
    pub total: SampleStats,
    /// Mean messages received per node.
    pub mean_received: SampleStats,
    /// Per-node received-count variance.
    pub var_received: SampleStats,
    /// Fraction of nodes that received at least one message.
    pub frac_received: SampleStats,
    /// Fraction of nodes whose Stage 1 adoption rule would pick opinion 0.
    pub adopt0: SampleStats,
}

/// The recorded trajectories of one grid point, one recorder per trial
/// ([`ObserveMode::Trajectory`]).
#[derive(Debug, Clone)]
pub struct TrajectorySet {
    /// Per-trial recorders, in trial order.
    pub trials: Vec<TrajectoryRecorder>,
}

/// The per-point result, shaped by the scenario kind and the spec's
/// [`ObserveMode`].
#[derive(Debug, Clone)]
pub enum PointSummary {
    /// Result of a rumor / plurality / stage2 or dynamics scenario.
    Protocol(TrialSummary),
    /// Result of a `gap` scenario.
    Gap(GapSummary),
    /// Result of a `phase` scenario.
    PhaseStats(PhaseStatsSummary),
    /// Per-trial trajectories ([`ObserveMode::Trajectory`]).
    Trajectory(TrajectorySet),
    /// Per-phase aggregates across trials ([`ObserveMode::Phases`]).
    Phases(OnlineStats),
}

/// One executed grid point.
#[derive(Debug, Clone)]
pub struct PointResult {
    /// Where in the grid this result sits.
    pub point: GridPoint,
    /// The aggregated trial statistics.
    pub summary: PointSummary,
}

/// The structured outcome of executing a [`ScenarioSpec`].
#[derive(Debug, Clone)]
pub struct RunReport {
    spec: ScenarioSpec,
    points: Vec<PointResult>,
}

impl RunReport {
    /// The spec this report was produced from.
    pub fn spec(&self) -> &ScenarioSpec {
        &self.spec
    }

    /// The executed grid points, in row order.
    pub fn points(&self) -> &[PointResult] {
        &self.points
    }

    /// Renders the report as a table: one column per swept axis (in axis
    /// order) followed by the observe mode's data columns (the spec's
    /// metrics for summaries, the trajectory / phase-aggregate columns
    /// otherwise).
    pub fn to_table(&self) -> Table {
        let mut table = Table::new(headers(&self.spec));
        for result in &self.points {
            for row in point_rows(&self.spec, result) {
                table.push_row(row);
            }
        }
        table
    }
}

/// The axes shown as columns, in grid order: the swept ones. Trajectory
/// rows already end with the canonical `topology` column
/// ([`TRAJECTORY_HEADERS`]), so a swept topology axis is suppressed there
/// — otherwise every JSON row would carry two identical `topology` keys.
fn shown_axes(spec: &ScenarioSpec) -> impl Iterator<Item = &'static Axis> + '_ {
    AXES.iter().filter(move |axis| {
        (axis.len)(&spec.sweep) > 0
            && !(spec.observe == ObserveMode::Trajectory && axis.name == "topology")
    })
}

/// The names of the shown axes: the first columns of a result row.
pub(crate) fn axis_names(spec: &ScenarioSpec) -> Vec<String> {
    shown_axes(spec).map(|axis| axis.name.to_string()).collect()
}

/// The full header row of a spec's result table (axis columns + data
/// columns); shared by [`RunReport::to_table`] and the streaming path so
/// streamed rows and the final table are byte-compatible.
pub fn headers(spec: &ScenarioSpec) -> Vec<String> {
    let mut headers = axis_names(spec);
    match spec.observe {
        ObserveMode::Summary => {
            headers.extend(spec.effective_metrics().iter().map(|m| m.header().to_string()));
        }
        ObserveMode::Trajectory => {
            if spec.trials > 1 {
                headers.push("trial".to_string());
            }
            headers.extend(TRAJECTORY_HEADERS.iter().map(|h| h.to_string()));
            if tracks_population(spec) {
                headers.push("population".to_string());
            }
        }
        ObserveMode::Phases => {
            headers.extend(PHASES_HEADERS.iter().map(|h| h.to_string()));
        }
    }
    headers
}

/// True when trajectory rows should carry the live per-phase `population`
/// column: some grid point churns the population, so the node count is no
/// longer a constant of the run.
pub(crate) fn tracks_population(spec: &ScenarioSpec) -> bool {
    spec.observe == ObserveMode::Trajectory
        && (spec.churn.has_population_churn()
            || spec.sweep.churn.iter().any(|c| c.has_population_churn()))
}

/// The swept-axis cells of one grid point, in axis order. Together with
/// [`headers`] and [`point_rows`] this lets external drivers (the scenario
/// service's sweep-cell cache) re-render a point's rows byte-identically
/// to the streaming path.
pub fn axis_cells(spec: &ScenarioSpec, point: &GridPoint) -> Vec<String> {
    shown_axes(spec).map(|axis| (axis.cell)(point)).collect()
}

/// All result rows of one executed point (one row for summaries, one per
/// phase/trial for the observe modes), each prefixed with the point's
/// swept-axis cells.
pub fn point_rows(spec: &ScenarioSpec, result: &PointResult) -> Vec<Vec<String>> {
    let prefix = axis_cells(spec, &result.point);
    let with_prefix = |row: Vec<String>| -> Vec<String> {
        let mut cells = prefix.clone();
        cells.extend(row);
        cells
    };
    match &result.summary {
        PointSummary::Trajectory(set) => {
            let population = tracks_population(spec);
            let mut rows = Vec::new();
            for (trial, recorder) in set.trials.iter().enumerate() {
                for (mut row, snapshot) in
                    recorder.rows().into_iter().zip(recorder.snapshots())
                {
                    if population {
                        row.push(snapshot.distribution().num_nodes().to_string());
                    }
                    if spec.trials > 1 {
                        row.insert(0, trial.to_string());
                    }
                    rows.push(with_prefix(row));
                }
            }
            rows
        }
        PointSummary::Phases(stats) => stats
            .to_table()
            .rows()
            .iter()
            .map(|row| with_prefix(row.clone()))
            .collect(),
        _ => {
            let metrics = spec.effective_metrics();
            vec![with_prefix(
                metrics
                    .iter()
                    .map(|&m| format_metric(m, spec, result))
                    .collect(),
            )]
        }
    }
}

/// Renders one metric cell for one executed point.
fn format_metric(metric: Metric, spec: &ScenarioSpec, result: &PointResult) -> String {
    let point = &result.point;
    let mean_or_dash = |stats: &SampleStats, render: &dyn Fn(f64) -> String| {
        if stats.is_empty() {
            "-".to_string()
        } else {
            render(stats.mean())
        }
    };
    // The majority-preservation LP of the point's noise matrix at its
    // initial bias; "-" where it is undefined (a zero bias).
    let mp = |render: &dyn Fn(&MpReport) -> String| {
        point_noise(spec, point)
            .ok()
            .zip(point.bias)
            .and_then(|(matrix, bias)| matrix.majority_preservation(0, bias).ok())
            .map_or_else(|| "-".to_string(), |report| render(&report))
    };
    match &result.summary {
        PointSummary::Protocol(s) => match metric {
            Metric::Success => s.success.to_string(),
            Metric::Rounds => format!("{:.0}", s.rounds.mean()),
            Metric::RoundsNorm => {
                format!("{:.2}", s.rounds.mean() / bounds::rounds_bound(point.n, point.eps))
            }
            Metric::Messages => format!("{:.2e}", s.messages.mean()),
            Metric::Stage1Bias => mean_or_dash(&s.stage1_bias, &|m| format!("{m:.4}")),
            Metric::Stage1BiasNorm => {
                let threshold = ((point.n as f64).ln() / point.n as f64).sqrt();
                mean_or_dash(&s.stage1_bias, &|m| format!("{:.2}", m / threshold))
            }
            Metric::MemoryBits => format!("{:.1}", s.memory_bits.mean()),
            Metric::MemoryBitsNorm => format!(
                "{:.2}",
                s.memory_bits.mean() / bounds::memory_bound_bits(point.n, point.eps)
            ),
            Metric::Consensus => s.consensus.to_string(),
            Metric::Correct => s.correct.to_string(),
            Metric::Share => format!("{:.3}", s.share.mean()),
            Metric::MpMargin => mp(&|r| format!("{:+.4}", r.worst_margin())),
            Metric::MpMaxEps => mp(&|r| format!("{:.3}", r.max_epsilon())),
            Metric::MpHolds => mp(&|r| r.preserves_majority().to_string()),
            // validate() restricts metrics per kind.
            other => unreachable!("metric {other} on a protocol or dynamics scenario"),
        },
        PointSummary::Gap(s) => match metric {
            Metric::Gap => s.measured.map_or_else(|| "-".to_string(), |m| format!("{m:.4}")),
            Metric::GapBound => format!("{:.4}", s.bound),
            Metric::GapExact => {
                s.exact.map_or_else(|| "-".to_string(), |e| format!("{e:.4}"))
            }
            Metric::GapHolds => s.holds.map_or_else(|| "-".to_string(), |h| h.to_string()),
            other => unreachable!("metric {other} on a gap scenario"),
        },
        PointSummary::PhaseStats(s) => match metric {
            Metric::TotalReceived => {
                format!("{:.0} ± {:.0}", s.total.mean(), s.total.ci95_half_width())
            }
            Metric::MeanReceived => format!("{:.3}", s.mean_received.mean()),
            Metric::VarReceived => format!("{:.3}", s.var_received.mean()),
            Metric::FracReceived => format!("{:.4}", s.frac_received.mean()),
            Metric::Adopt0 => format!("{:.4}", s.adopt0.mean()),
            other => unreachable!("metric {other} on a phase scenario"),
        },
        PointSummary::Trajectory(_) | PointSummary::Phases(_) => {
            unreachable!("observe modes render rows, not metric cells")
        }
    }
}

/// Executes a validated [`ScenarioSpec`].
#[derive(Debug, Clone)]
pub struct Runner {
    spec: ScenarioSpec,
}

impl Runner {
    /// Validates the spec and prepares a runner for it.
    ///
    /// # Errors
    ///
    /// Returns the spec's [`validate`](ScenarioSpec::validate) error.
    pub fn new(spec: ScenarioSpec) -> Result<Self, SpecError> {
        spec.validate()?;
        Ok(Self { spec })
    }

    /// The spec this runner executes.
    pub fn spec(&self) -> &ScenarioSpec {
        &self.spec
    }

    /// The header row of this runner's result table.
    pub fn headers(&self) -> Vec<String> {
        headers(&self.spec)
    }

    /// Executes every grid point and returns the structured report.
    ///
    /// # Errors
    ///
    /// Propagates parameter/noise/simulator construction failures for the
    /// offending grid point ([`SpecError::Protocol`], [`SpecError::Noise`],
    /// [`SpecError::Sim`]).
    pub fn run(&self) -> Result<RunReport, SpecError> {
        self.run_inner(None::<&mut std::io::Sink>)
    }

    /// Executes the spec, emitting every result row to `out` as a JSON
    /// line the moment it exists: per completed grid point for summary
    /// runs, live per finished phase for trajectory runs (a
    /// [`StreamSink`] rides along the execution). The rows are exactly
    /// [`RunReport::to_table`]'s rows, so `--stream` output and the final
    /// table are byte-compatible; the full report is still returned.
    ///
    /// # Errors
    ///
    /// Same as [`run`](Self::run), and [`SpecError::Write`] with the first
    /// write error on `out`, returned at the next grid point boundary
    /// (after the trial, for trajectory specs): a run whose reader went
    /// away stops computing.
    pub fn run_streamed(&self, out: &mut dyn Write) -> Result<RunReport, SpecError> {
        self.run_inner(Some(out))
    }

    fn run_inner<W: Write + ?Sized>(
        &self,
        mut stream: Option<&mut W>,
    ) -> Result<RunReport, SpecError> {
        let spec = &self.spec;
        let mut points = Vec::new();
        for point in expand_grid(spec) {
            let summary = self.run_point(point, stream.as_deref_mut())?;
            let result = PointResult { point, summary };
            if let Some(out) = stream.as_mut() {
                // Trajectory rows already streamed live from inside the run.
                if spec.observe != ObserveMode::Trajectory {
                    emit_rows(out, spec, &result).map_err(SpecError::Write)?;
                }
            }
            points.push(result);
        }
        Ok(RunReport {
            spec: spec.clone(),
            points,
        })
    }

    fn run_point<W: Write + ?Sized>(
        &self,
        point: GridPoint,
        stream: Option<&mut W>,
    ) -> Result<PointSummary, SpecError> {
        let spec = &self.spec;

        // The below-simulation-level kinds first: no protocol parameters,
        // no noise matrix.
        if let ScenarioKind::SampleMajorityGap { .. } = &spec.kind {
            return Ok(PointSummary::Gap(self.gap_point(point)));
        }

        let (params, noise) = point_protocol(spec, &point)?;
        let counts = point_counts(&spec.kind, point);

        if let ScenarioKind::PhaseStats { rounds, .. } = &spec.kind {
            return Ok(PointSummary::PhaseStats(
                self.phase_stats_point(point, *rounds, &counts, &noise)?,
            ));
        }

        // Fail once, not once per trial.
        let plurality = if counts.is_empty() {
            None
        } else {
            Some(validate_counts(&params, &noise, &counts)?)
        };
        let trials = PointTrials {
            spec,
            point,
            params,
            noise,
            counts,
            plurality,
            stop: match spec.kind {
                ScenarioKind::DynamicsRule { .. } => stop_at_consensus(spec),
                _ => spec.stop.to_condition(),
            },
        };
        match spec.observe {
            ObserveMode::Summary => Ok(PointSummary::Protocol(run_trials(
                spec.trials,
                |trial| trials.run(trial, &mut NoObserver),
            )?)),
            ObserveMode::Trajectory | ObserveMode::Phases => {
                self.observed_point(&trials, stream)
            }
        }
    }

    /// Runs the observed (trajectory / per-phase aggregate) path of one
    /// protocol or dynamics point: sequential trials, one observer per
    /// trial (trajectory) or shared across trials (phases), optionally a
    /// live [`StreamSink`] riding along.
    fn observed_point<W: Write + ?Sized>(
        &self,
        trials: &PointTrials<'_>,
        mut stream: Option<&mut W>,
    ) -> Result<PointSummary, SpecError> {
        let spec = &self.spec;
        let point = trials.point;
        let mut trajectories: Vec<TrajectoryRecorder> = Vec::new();
        let mut aggregates = OnlineStats::new();

        for trial in 0..spec.trials {
            let mut recorder = TrajectoryRecorder::new();
            // Only trajectory mode streams live per-phase rows (they ARE
            // its result rows); phase aggregates only exist once the
            // point's trials are done and stream from `run_inner` then.
            let live = spec.observe == ObserveMode::Trajectory;
            let mut sink = stream.as_mut().filter(|_| live).map(|out| {
                let (mut prefix_headers, mut prefix) =
                    (axis_names(spec), axis_cells(spec, &point));
                if spec.trials > 1 {
                    prefix_headers.push("trial".to_string());
                    prefix.push(trial.to_string());
                }
                let sink = StreamSink::with_prefix(out, &prefix_headers, &prefix);
                if tracks_population(spec) {
                    sink.with_population()
                } else {
                    sink
                }
            });

            {
                let mut observers: Vec<&mut dyn Observer> = Vec::new();
                match spec.observe {
                    ObserveMode::Trajectory => observers.push(&mut recorder),
                    ObserveMode::Phases => observers.push(&mut aggregates),
                    ObserveMode::Summary => unreachable!("summary points take the other path"),
                }
                if let Some(sink) = sink.as_mut() {
                    observers.push(sink);
                }
                trials.run(trial, &mut Fanout::new(observers))?;
            }
            if let Some(e) = sink.as_ref().and_then(StreamSink::error) {
                return Err(SpecError::Write(std::io::Error::new(e.kind(), e.to_string())));
            }
            if spec.observe == ObserveMode::Trajectory {
                trajectories.push(recorder);
            }
        }
        Ok(match spec.observe {
            ObserveMode::Trajectory => PointSummary::Trajectory(TrajectorySet {
                trials: trajectories,
            }),
            ObserveMode::Phases => PointSummary::Phases(aggregates),
            ObserveMode::Summary => unreachable!("summary points take the other path"),
        })
    }

    /// The sample-majority gap of one `(k, ℓ, δ)` grid cell (Proposition 1
    /// / Lemmas 9–11). The Monte-Carlo estimate is drawn only when the
    /// spec shows `gap` or `gap_holds`: `spec.trials` is its number of
    /// samples, and each cell derives its own RNG from the base seed, so
    /// cells are independent of grid shape and order.
    fn gap_point(&self, point: GridPoint) -> GapSummary {
        let spec = &self.spec;
        let ell = point.ell.expect("gap points carry ell");
        let delta = point.delta.expect("gap points carry delta");
        let trials = spec.trials;
        let dist = biased_received_distribution(point.k, delta);
        let shown = spec.effective_metrics();
        let measured = shown
            .iter()
            .any(|m| matches!(m, Metric::Gap | Metric::GapHolds))
            .then(|| {
                let mut rng = StdRng::seed_from_u64(derive_seed(spec.seed, point.index, 0));
                bounds::sample_majority_gap(&dist, ell, 0, 1, trials, &mut rng)
            });
        let bound = bounds::proposition1_lower_bound(delta, ell, point.k);
        let exact = (point.k == 2).then(|| bounds::exact_majority_gap_binary(dist[0], ell));
        // Allow the Monte-Carlo noise floor when comparing.
        let holds = measured.map(|m| m >= bound - 3.0 / (trials as f64).sqrt());
        GapSummary {
            measured,
            bound,
            exact,
            holds,
        }
    }

    /// One pushed phase per trial on the agent-level backend, reporting
    /// the phase observation's statistics plus the Stage 1 adoption probe
    /// (experiment F8: Claim 1 / Lemma 3 across processes O, B, P). Always
    /// agent-level: the per-node moments only exist there.
    fn phase_stats_point(
        &self,
        point: GridPoint,
        rounds: u64,
        counts: &[usize],
        noise: &NoiseMatrix,
    ) -> Result<PhaseStatsSummary, SpecError> {
        let spec = &self.spec;
        let mut summary = PhaseStatsSummary {
            total: SampleStats::new(),
            mean_received: SampleStats::new(),
            var_received: SampleStats::new(),
            frac_received: SampleStats::new(),
            adopt0: SampleStats::new(),
        };
        for trial in 0..spec.trials {
            let config = point_config(&point)
                .seed(derive_seed(spec.seed, point.index, trial))
                .build()?;
            let mut net = Network::new(config, noise.clone())?;
            net.seed_counts(counts)?;
            net.begin_phase();
            for _ in 0..rounds {
                net.push_round(|_, s| s.opinion());
            }
            let inboxes = net.end_phase();
            summary.total.push(inboxes.total_received() as f64);
            summary.mean_received.push(inboxes.mean_received());
            summary.var_received.push(inboxes.received_variance());
            summary.frac_received.push(inboxes.fraction_with_messages());

            // The Stage 1 adoption rule applied as a probe: how many nodes
            // would adopt opinion 0 if they re-sampled one received
            // message (independent RNG, so delivery streams stay pure).
            let mut rng = StdRng::seed_from_u64(derive_seed(
                spec.seed ^ ADOPTION_SEED_SALT,
                point.index,
                trial,
            ));
            let adopted0 = (0..point.n)
                .filter(|&node| {
                    inboxes
                        .sample_one(node, &mut rng)
                        .map(|o| o.index() == 0)
                        .unwrap_or(false)
                })
                .count();
            summary.adopt0.push(adopted0 as f64 / point.n as f64);
        }
        Ok(summary)
    }
}

/// One simulated grid point's trial inputs, shared by the summary and
/// observed paths so both execute identical trials.
struct PointTrials<'a> {
    spec: &'a ScenarioSpec,
    point: GridPoint,
    params: ProtocolParams,
    noise: NoiseMatrix,
    counts: Vec<usize>,
    /// The validated plurality of `counts`; `None` for rumor spreading.
    plurality: Option<Opinion>,
    stop: StopCondition,
}

impl PointTrials<'_> {
    /// Executes trial `trial` with `observer` attached: protocol kinds
    /// through [`run_protocol`], dynamics through [`RuleSpec::run`] on a
    /// network whose delivery and decision seeds derive from the
    /// `(point, trial)` cell, so results are a pure function of the spec.
    fn run(&self, trial: u64, observer: &mut dyn Observer) -> Result<Outcome, SpecError> {
        let spec = self.spec;
        let ScenarioKind::DynamicsRule { rule, rounds, .. } = spec.kind else {
            let instance = protocol_instance(&spec.kind, &self.counts)
                .expect("gap and phase points run no trials");
            let seed = trial_seed(&self.params, trial);
            let stop = &self.stop;
            return Ok(run_protocol(
                &self.params, &self.noise, seed, spec.backend, instance, stop, observer,
            )?);
        };
        let index = self.point.index;
        let config = point_config(&self.point)
            .seed(derive_seed(spec.seed, index, trial))
            .build()?;
        let dynamics = DynamicsTrial {
            rule,
            counts: &self.counts,
            plurality: self.plurality.expect("dynamics start from validated counts"),
            budget: rounds.unwrap_or_else(|| self.params.schedule().total_rounds()),
            rng: StdRng::seed_from_u64(derive_seed(spec.seed ^ DECISION_SEED_SALT, index, trial)),
            stop: &self.stop,
            observer,
        };
        Ok(pushsim::build_and_visit(config, self.noise.clone(), spec.backend, dynamics)??)
    }
}

/// One dynamics trial waiting for its network.
struct DynamicsTrial<'a> {
    rule: RuleSpec,
    counts: &'a [usize],
    plurality: Opinion,
    budget: u64,
    rng: StdRng,
    stop: &'a StopCondition,
    observer: &'a mut dyn Observer,
}

impl BackendVisitor<Result<Outcome, SimError>> for DynamicsTrial<'_> {
    fn visit<B: PushBackend>(mut self, mut net: B) -> Result<Outcome, SimError> {
        net.seed_counts(self.counts)?;
        Ok(self.rule.run(
            &mut net,
            &mut self.rng,
            self.plurality,
            self.budget,
            self.stop,
            self.observer,
        ))
    }
}

/// The backend the runner builds a spec's networks on: the agent backend
/// for `phase` scenarios, whose per-node inbox moments only it has (see
/// `phase_stats_point`), the spec's own backend otherwise, and none for
/// `gap` scenarios, which simulate no network.
pub(crate) fn network_backend(spec: &ScenarioSpec) -> Option<ExecutionBackend> {
    match spec.kind {
        ScenarioKind::SampleMajorityGap { .. } => None,
        ScenarioKind::PhaseStats { .. } => Some(ExecutionBackend::Agent),
        _ => Some(spec.backend),
    }
}

/// The simulator configuration (without its seed) every network of
/// `point` is built from — and the one spec validation admits.
pub(crate) fn point_config(point: &GridPoint) -> SimConfigBuilder {
    SimConfig::builder(point.n, point.k)
        .delivery(point.delivery)
        .topology(point.topology)
        .fault(point.fault)
        .churn(point.churn)
        .schedule(point.schedule)
        .clock(point.clock)
}

/// The protocol parameters (at the spec's base seed) and the noise matrix
/// of one grid point — the per-point construction the runner and the
/// campaign engine share.
pub(crate) fn point_protocol(
    spec: &ScenarioSpec,
    point: &GridPoint,
) -> Result<(ProtocolParams, NoiseMatrix), SpecError> {
    let params = ProtocolParams::builder(point.n, point.k)
        .epsilon(point.eps)
        .seed(spec.seed)
        .delivery(spec.delivery)
        .topology(point.topology)
        .fault(point.fault)
        .churn(point.churn)
        .noise_schedule(point.schedule)
        .clock(point.clock)
        .constants(spec.constants)
        .build()?;
    Ok((params, point_noise(spec, point)?))
}

/// The noise matrix of one grid point. Sweeping `eps` re-parameterizes
/// ε-families of noise too.
fn point_noise(spec: &ScenarioSpec, point: &GridPoint) -> Result<NoiseMatrix, SpecError> {
    let noise = if spec.sweep.eps.is_empty() {
        spec.noise.clone()
    } else {
        spec.noise.with_epsilon(point.eps)
    };
    Ok(noise.build(point.k)?)
}

/// The initial counts of one grid point (empty for the kinds without an
/// initial configuration).
pub(crate) fn point_counts(kind: &ScenarioKind, point: GridPoint) -> Vec<usize> {
    kind.init()
        .map(|init| resolve_counts(init, point))
        .unwrap_or_default()
}

/// The core [`Instance`] a protocol scenario runs, over its point's
/// initial `counts`; `None` for the kinds that are not protocol runs.
pub(crate) fn protocol_instance<'a>(
    kind: &ScenarioKind,
    counts: &'a [usize],
) -> Option<Instance<'a>> {
    match kind {
        ScenarioKind::RumorSpreading { source } => Some(Instance::Rumor(Opinion::new(*source))),
        ScenarioKind::PluralityConsensus { .. } => Some(Instance::Plurality(counts)),
        ScenarioKind::Stage2Only { .. } => Some(Instance::Stage2(counts)),
        _ => None,
    }
}

/// The seed of trial `trial` at a point whose parameters carry the spec's
/// base seed: the same in the parallel summary path and the sequential
/// observed path, so both execute identical trials.
pub(crate) fn trial_seed(params: &ProtocolParams, trial: u64) -> u64 {
    params.seed().wrapping_add(trial)
}

/// Runs `instance` once on `params` reseeded to `seed`, on `backend` and
/// under `stop`, with `observer` attached: the harness's one call into
/// [`Session::run`], shared by the summary and observed paths and the
/// campaign engine.
///
/// [`Session::run`]: plurality_core::Session::run
pub(crate) fn run_protocol(
    params: &ProtocolParams,
    noise: &NoiseMatrix,
    seed: u64,
    backend: ExecutionBackend,
    instance: Instance<'_>,
    stop: &StopCondition,
    observer: &mut dyn Observer,
) -> Result<Outcome, ProtocolError> {
    TwoStageProtocol::new(params.with_seed(seed), noise.clone())?
        .session()
        .stop_when(stop.clone())
        .run(backend, instance, observer)
}

/// The spec's `stop.*` keys plus consensus: a dynamics trial ends there
/// (the classic end of a baseline run; its round budget is
/// [`RuleSpec::run`]'s own), and so does every campaign run (so the
/// round-envelope oracle judges convergence time rather than the fixed
/// schedule length).
pub(crate) fn stop_at_consensus(spec: &ScenarioSpec) -> StopCondition {
    let mut conditions = vec![StopCondition::ConsensusReached];
    let stop = spec.stop.to_condition();
    if stop != StopCondition::ScheduleExhausted {
        conditions.push(stop);
    }
    StopCondition::Any(conditions)
}

/// Streams all rows of one completed point as JSON lines, stopping at
/// the first write error.
fn emit_rows<W: Write + ?Sized>(
    out: &mut W,
    spec: &ScenarioSpec,
    result: &PointResult,
) -> std::io::Result<()> {
    let headers = headers(spec);
    for row in point_rows(spec, result) {
        writeln!(out, "{}", json_line(&headers, &row))?;
    }
    out.flush()
}

/// Expands a spec's sweep axes into the full grid: the Cartesian product
/// of the axes in the order of the crate's sweep-axis table (`AXES`), the
/// last axis varying fastest. Shared by the [`Runner`] and the campaign
/// engine, so a campaign cell index addresses exactly the point the plain
/// runner would execute at that index (and the scenario service's
/// per-cell cache keys address exactly these points).
pub fn expand_grid(spec: &ScenarioSpec) -> Vec<GridPoint> {
    let mut point = GridPoint::default();
    for axis in &AXES {
        (axis.set)(spec, 0, &mut point);
    }
    // The axes with more than one entry, each with its length and the
    // entry the point holds.
    let mut digits: Vec<(&Axis, usize, usize)> = AXES
        .iter()
        .map(|axis| (axis, (axis.len)(&spec.sweep), 0))
        .filter(|&(_, len, _)| len > 1)
        .collect();
    let mut points = vec![point];
    // Count up in mixed radix: step the last digit with an entry left,
    // wrap the ones after it, and set the point's value of each axis that
    // moved. The grid ends when every digit is at its last entry.
    while let Some(next) = digits.iter().rposition(|&(_, len, entry)| entry + 1 < len) {
        for (i, (axis, _, entry)) in digits.iter_mut().enumerate().skip(next) {
            *entry = if i == next { *entry + 1 } else { 0 };
            (axis.set)(spec, *entry, &mut point);
        }
        point.index = points.len();
        points.push(point);
    }
    points
}

/// Surfaces the protocol's own initial-counts validation as a recoverable
/// [`SpecError`] once per point, before its trials start, and returns the
/// validated unique plurality opinion.
pub(crate) fn validate_counts(
    params: &ProtocolParams,
    noise: &NoiseMatrix,
    counts: &[usize],
) -> Result<Opinion, SpecError> {
    let protocol = TwoStageProtocol::new(params.clone(), noise.clone())?;
    Ok(protocol.validate_initial_counts(counts)?)
}

/// Materializes the initial counts of one grid point ([`InitSpec::Biased`]
/// uses the point's bias, which the bias axis may have overridden).
pub(crate) fn resolve_counts(init: &InitSpec, point: GridPoint) -> Vec<usize> {
    match init {
        InitSpec::Biased { bias } => {
            biased_counts(point.n, point.k, point.bias.unwrap_or(*bias))
        }
        InitSpec::Counts(counts) => counts.clone(),
    }
}

/// A δ-biased received distribution over `k` opinions: opinion 0 gets
/// `1/k + δ(k−1)/k`, every other opinion `1/k − δ/k`, so that the gap
/// between opinion 0 and any rival is exactly δ (the configuration
/// Proposition 1 is stated for).
fn biased_received_distribution(k: usize, delta: f64) -> Vec<f64> {
    let base = 1.0 / k as f64;
    let mut dist = vec![base - delta / k as f64; k];
    dist[0] = base + delta * (k as f64 - 1.0) / k as f64;
    dist
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{InitSpec, Metric, ScenarioKind, ScenarioSpec, StopSpec};
    use noisy_channel::NoiseSpec;

    fn quick_spec(kind: ScenarioKind) -> ScenarioSpec {
        let mut spec = ScenarioSpec::new(kind, 400, 2);
        spec.epsilon = 0.3;
        spec.noise = NoiseSpec::Uniform { epsilon: 0.3 };
        spec.trials = 2;
        spec.seed = 11;
        spec
    }

    #[test]
    fn single_point_rumor_run_reports_one_row() {
        let spec = quick_spec(ScenarioKind::RumorSpreading { source: 0 });
        let report = Runner::new(spec).unwrap().run().unwrap();
        assert_eq!(report.points().len(), 1);
        let PointSummary::Protocol(summary) = &report.points()[0].summary else {
            panic!("rumor scenarios produce protocol summaries");
        };
        assert_eq!(summary.success.trials(), 2);
        let table = report.to_table();
        // No swept axis: only the four default metric columns.
        assert_eq!(table.headers().len(), 4);
        assert_eq!(table.num_rows(), 1);
    }

    #[test]
    fn sweeps_expand_to_the_cartesian_product_in_axis_order() {
        let mut spec = quick_spec(ScenarioKind::PluralityConsensus {
            init: InitSpec::Biased { bias: 0.2 },
        });
        spec.sweep.k = vec![2, 3];
        spec.sweep.bias = vec![0.1, 0.3];
        spec.metrics = vec![Metric::Success];
        let report = Runner::new(spec).unwrap().run().unwrap();
        assert_eq!(report.points().len(), 4);
        let points: Vec<(usize, f64)> = report
            .points()
            .iter()
            .map(|p| (p.point.k, p.point.bias.unwrap()))
            .collect();
        assert_eq!(points, vec![(2, 0.1), (2, 0.3), (3, 0.1), (3, 0.3)]);
        let table = report.to_table();
        assert_eq!(
            table.headers(),
            &["k".to_string(), "bias".to_string(), "success".to_string()]
        );
        assert_eq!(table.rows()[1][1], "0.3000");
    }

    #[test]
    fn runs_are_deterministic_in_the_spec() {
        let mut spec = quick_spec(ScenarioKind::DynamicsRule {
            rule: opinion_dynamics::RuleSpec::ThreeMajority,
            init: InitSpec::Biased { bias: 0.3 },
            rounds: Some(300),
        });
        spec.backend = ExecutionBackend::Agent;
        let a = Runner::new(spec.clone()).unwrap().run().unwrap().to_table();
        let b = Runner::new(spec).unwrap().run().unwrap().to_table();
        assert_eq!(a, b);
    }

    #[test]
    fn dynamics_run_on_both_backends() {
        for backend in [ExecutionBackend::Agent, ExecutionBackend::Counting] {
            let mut spec = quick_spec(ScenarioKind::DynamicsRule {
                rule: opinion_dynamics::RuleSpec::Voter,
                init: InitSpec::Counts(vec![300, 100]),
                rounds: Some(200),
            });
            spec.backend = backend;
            if backend == ExecutionBackend::Counting {
                spec.delivery = pushsim::DeliverySemantics::Poissonized;
            }
            let report = Runner::new(spec).unwrap().run().unwrap();
            let PointSummary::Protocol(summary) = &report.points()[0].summary else {
                panic!("dynamics scenarios aggregate into trial summaries");
            };
            assert_eq!(summary.share.len(), 2);
            assert_eq!(summary.stage1_bias.len(), 0, "dynamics have no stages");
        }
    }

    #[test]
    fn stage2_only_scenarios_run() {
        let spec = quick_spec(ScenarioKind::Stage2Only {
            init: InitSpec::Biased { bias: 0.3 },
        });
        let report = Runner::new(spec).unwrap().run().unwrap();
        let PointSummary::Protocol(summary) = &report.points()[0].summary else {
            panic!("stage2 scenarios produce protocol summaries");
        };
        assert_eq!(summary.rounds.len(), 2);
        // Stage 2 alone has no stage-1 records, so the bias stats are empty
        // and the metric renders as "-".
        assert_eq!(summary.stage1_bias.len(), 0);
    }

    #[test]
    fn invalid_counts_surface_as_spec_errors_not_panics() {
        // Tied counts are rejected statically (the reference plurality
        // would be arbitrary).
        let spec = quick_spec(ScenarioKind::PluralityConsensus {
            init: InitSpec::Counts(vec![100, 100]),
        });
        assert!(matches!(
            Runner::new(spec),
            Err(crate::spec::SpecError::Invalid(_))
        ));

        // Counts that pass static validation but violate the protocol's
        // n-dependent rules fail as a recoverable error at run time.
        for kind in [
            ScenarioKind::PluralityConsensus {
                init: InitSpec::Counts(vec![900, 100]),
            },
            ScenarioKind::Stage2Only {
                init: InitSpec::Counts(vec![900, 100]),
            },
            ScenarioKind::DynamicsRule {
                rule: opinion_dynamics::RuleSpec::Voter,
                init: InitSpec::Counts(vec![900, 100]),
                rounds: Some(10),
            },
        ] {
            let spec = quick_spec(kind); // n = 400 < 900 + 100
            let result = Runner::new(spec).unwrap().run();
            assert!(
                matches!(result, Err(crate::spec::SpecError::Protocol(_))),
                "oversized counts must fail cleanly"
            );
        }
    }

    #[test]
    fn eps_sweep_reparameterizes_eps_noise_families() {
        let mut spec = quick_spec(ScenarioKind::RumorSpreading { source: 0 });
        spec.sweep.eps = vec![0.2, 0.4];
        let report = Runner::new(spec).unwrap().run().unwrap();
        assert_eq!(report.points().len(), 2);
        // Higher eps => cleaner channel => no more rounds than the noisier
        // point (the schedule is shorter).
        let rounds: Vec<f64> = report
            .points()
            .iter()
            .map(|p| match &p.summary {
                PointSummary::Protocol(s) => s.rounds.mean(),
                _ => unreachable!(),
            })
            .collect();
        assert!(rounds[0] > rounds[1]);
    }

    #[test]
    fn gap_scenarios_sweep_k_ell_delta_and_check_the_bound() {
        let mut spec = quick_spec(ScenarioKind::SampleMajorityGap {
            ell: 25,
            delta: 0.1,
        });
        spec.trials = 20_000;
        spec.sweep.k = vec![2, 3];
        spec.sweep.ell = vec![9, 25];
        spec.sweep.delta = vec![0.05, 0.2];
        let report = Runner::new(spec).unwrap().run().unwrap();
        assert_eq!(report.points().len(), 8);
        for point in report.points() {
            let PointSummary::Gap(gap) = &point.summary else {
                panic!("gap scenarios produce gap summaries");
            };
            assert_eq!(gap.holds, Some(true), "Proposition 1 must hold at {:?}", point.point);
            assert_eq!(gap.exact.is_some(), point.point.k == 2);
            let measured = gap.measured.expect("the default metrics show the estimate");
            if let Some(exact) = gap.exact {
                assert!(
                    (measured - exact).abs() < 0.05,
                    "Monte-Carlo ({measured}) far from exact ({exact})"
                );
            }
        }
        let table = report.to_table();
        assert_eq!(table.headers()[..3], ["k", "ell", "delta"].map(String::from));
        assert_eq!(table.num_rows(), 8);
    }

    #[test]
    fn gap_cells_draw_the_estimate_only_when_shown() {
        let mut spec = quick_spec(ScenarioKind::SampleMajorityGap {
            ell: 25,
            delta: 0.1,
        });
        spec.trials = 2_000;
        let summary = |metrics: Vec<Metric>| {
            let mut spec = spec.clone();
            spec.metrics = metrics;
            let report = Runner::new(spec).unwrap().run().unwrap();
            match &report.points()[0].summary {
                PointSummary::Gap(gap) => gap.clone(),
                _ => panic!("gap scenarios produce gap summaries"),
            }
        };
        let exact_only = summary(vec![Metric::GapExact, Metric::GapBound]);
        assert_eq!((exact_only.measured, exact_only.holds), (None, None));
        assert!(exact_only.exact.is_some());
        for shown in [Metric::Gap, Metric::GapHolds] {
            let gap = summary(vec![Metric::GapExact, shown]);
            assert!(gap.measured.is_some() && gap.holds.is_some(), "{shown}");
            assert_eq!((gap.exact, gap.bound), (exact_only.exact, exact_only.bound));
        }
    }

    #[test]
    fn phase_scenarios_sweep_the_delivery_process() {
        let mut spec = quick_spec(ScenarioKind::PhaseStats {
            rounds: 5,
            init: InitSpec::Counts(vec![200, 100]),
        });
        spec.trials = 3;
        spec.sweep.delivery = DeliverySemantics::ALL.to_vec();
        let report = Runner::new(spec).unwrap().run().unwrap();
        assert_eq!(report.points().len(), 3);
        for point in report.points() {
            let PointSummary::PhaseStats(stats) = &point.summary else {
                panic!("phase scenarios produce phase summaries");
            };
            assert_eq!(stats.total.len(), 3);
            // 5 rounds × 300 pushers per trial for processes O and B; the
            // Poissonized totals fluctuate around it.
            assert!(stats.total.mean() > 1_000.0);
            let frac = stats.frac_received.mean();
            assert!((0.0..=1.0).contains(&frac) && frac > 0.5);
            let adopt = stats.adopt0.mean();
            // Opinion 0 holds 2/3 of the pushers; noise pulls the adopters
            // towards it but not all the way.
            assert!(adopt > 0.4 && adopt < 0.9, "adopt0 = {adopt}");
        }
        let table = report.to_table();
        assert_eq!(table.headers()[0], "delivery");
        assert_eq!(table.rows()[0][0], "exact");
        assert_eq!(table.rows()[2][0], "poisson");
    }

    #[test]
    fn topology_sweeps_expand_and_label_their_rows() {
        let mut spec = quick_spec(ScenarioKind::PluralityConsensus {
            init: InitSpec::Biased { bias: 0.3 },
        });
        spec.n = 400;
        spec.metrics = vec![Metric::Success, Metric::Share];
        spec.sweep.topology = vec![
            TopologySpec::Complete,
            TopologySpec::Ring,
            TopologySpec::RandomRegular { degree: 8 },
        ];
        let report = Runner::new(spec).unwrap().run().unwrap();
        assert_eq!(report.points().len(), 3);
        let table = report.to_table();
        assert_eq!(
            table.headers(),
            &[
                "topology".to_string(),
                "success".to_string(),
                "mean plurality share".to_string()
            ]
        );
        assert_eq!(table.rows()[0][0], "complete");
        assert_eq!(table.rows()[1][0], "ring");
        assert_eq!(table.rows()[2][0], "regular(8)");
        for point in report.points() {
            let PointSummary::Protocol(summary) = &point.summary else {
                panic!("plurality scenarios produce protocol summaries");
            };
            assert_eq!(summary.success.trials(), 2);
        }
        // The complete-graph point behaves like a topology-free run of the
        // same spec (same seeds, same RNG streams).
        let mut plain = quick_spec(ScenarioKind::PluralityConsensus {
            init: InitSpec::Biased { bias: 0.3 },
        });
        plain.n = 400;
        plain.metrics = vec![Metric::Success, Metric::Share];
        let plain_report = Runner::new(plain).unwrap().run().unwrap();
        assert_eq!(
            plain_report.to_table().rows()[0],
            table.rows()[0][1..].to_vec(),
            "complete sweep point ≡ unswept run"
        );
    }

    #[test]
    fn trajectory_mode_with_a_topology_sweep_has_one_topology_column() {
        // The swept axis and the canonical trajectory column would
        // otherwise both emit a "topology" key — duplicate keys in one
        // JSON object break strict parsers.
        let mut spec = quick_spec(ScenarioKind::RumorSpreading { source: 0 });
        spec.trials = 1;
        spec.observe = ObserveMode::Trajectory;
        spec.sweep.topology = vec![TopologySpec::Complete, TopologySpec::Ring];
        let runner = Runner::new(spec).unwrap();
        let headers = runner.headers();
        assert_eq!(
            headers.iter().filter(|h| *h == "topology").count(),
            1,
            "exactly one topology column: {headers:?}"
        );
        let mut out = Vec::new();
        let report = runner.run_streamed(&mut out).unwrap();
        let streamed = String::from_utf8(out).unwrap();
        assert_eq!(streamed, report.to_table().to_json_lines());
        // Every streamed row has exactly one "topology" key, labelled by
        // its point's graph.
        for line in streamed.lines() {
            assert_eq!(line.matches("\"topology\":").count(), 1, "{line}");
        }
        let table = report.to_table();
        let col = table.column_index("topology").unwrap();
        let labels: std::collections::HashSet<&str> =
            table.rows().iter().map(|r| r[col].as_str()).collect();
        assert_eq!(
            labels,
            ["complete", "ring"].into_iter().collect(),
            "both sweep points appear, each with its own label"
        );
    }

    #[test]
    fn trajectory_rows_carry_the_topology_label() {
        let mut spec = quick_spec(ScenarioKind::RumorSpreading { source: 0 });
        spec.trials = 1;
        spec.topology = TopologySpec::RandomRegular { degree: 8 };
        spec.observe = ObserveMode::Trajectory;
        let report = Runner::new(spec).unwrap().run().unwrap();
        let table = report.to_table();
        let topology_col = table.column_index("topology").unwrap();
        assert!(table.num_rows() > 0);
        for row in table.rows() {
            assert_eq!(row[topology_col], "regular(8)");
        }
    }

    #[test]
    fn trajectory_mode_reports_per_phase_rows() {
        let mut spec = quick_spec(ScenarioKind::RumorSpreading { source: 0 });
        spec.trials = 1;
        spec.observe = ObserveMode::Trajectory;
        let report = Runner::new(spec).unwrap().run().unwrap();
        let PointSummary::Trajectory(set) = &report.points()[0].summary else {
            panic!("trajectory mode produces trajectory summaries");
        };
        assert_eq!(set.trials.len(), 1);
        assert!(!set.trials[0].is_empty());
        let table = report.to_table();
        assert_eq!(table.headers(), &TRAJECTORY_HEADERS.map(String::from));
        assert_eq!(table.num_rows(), set.trials[0].len());
        // Two trials add a trial column.
        let mut spec = quick_spec(ScenarioKind::RumorSpreading { source: 0 });
        spec.trials = 2;
        spec.observe = ObserveMode::Trajectory;
        let runner = Runner::new(spec).unwrap();
        assert_eq!(runner.headers()[0], "trial");
        let table = runner.run().unwrap().to_table();
        assert_eq!(table.rows()[0][0], "0");
    }

    #[test]
    fn phases_mode_aggregates_across_trials() {
        let mut spec = quick_spec(ScenarioKind::RumorSpreading { source: 0 });
        spec.trials = 3;
        spec.observe = ObserveMode::Phases;
        let report = Runner::new(spec).unwrap().run().unwrap();
        let PointSummary::Phases(stats) = &report.points()[0].summary else {
            panic!("phases mode produces aggregate summaries");
        };
        assert_eq!(stats.runs(), 3);
        assert!(!stats.phases().is_empty());
        assert_eq!(stats.phases()[0].opinionated.len(), 3);
        let table = report.to_table();
        assert_eq!(table.num_rows(), stats.phases().len());
    }

    #[test]
    fn stop_conditions_truncate_protocol_schedules() {
        let full = quick_spec(ScenarioKind::RumorSpreading { source: 0 });
        let full_report = Runner::new(full.clone()).unwrap().run().unwrap();
        let PointSummary::Protocol(full_summary) = &full_report.points()[0].summary else {
            unreachable!()
        };
        let mut stopped = full;
        stopped.stop = StopSpec {
            max_rounds: Some(10),
            ..StopSpec::default()
        };
        let report = Runner::new(stopped).unwrap().run().unwrap();
        let PointSummary::Protocol(summary) = &report.points()[0].summary else {
            unreachable!()
        };
        assert!(
            summary.rounds.mean() < full_summary.rounds.mean(),
            "stop.max_rounds must truncate the schedule ({} vs {})",
            summary.rounds.mean(),
            full_summary.rounds.mean()
        );
    }

    #[test]
    fn streamed_rows_match_the_final_table() {
        let mut spec = quick_spec(ScenarioKind::RumorSpreading { source: 0 });
        spec.sweep.eps = vec![0.3, 0.4];
        let runner = Runner::new(spec).unwrap();
        let mut out = Vec::new();
        let report = runner.run_streamed(&mut out).unwrap();
        let streamed = String::from_utf8(out).unwrap();
        assert_eq!(streamed, report.to_table().to_json_lines());
        assert_eq!(streamed.lines().count(), 2);
    }

    #[test]
    fn streamed_trajectories_emit_rows_live_and_match_the_table() {
        let mut spec = quick_spec(ScenarioKind::RumorSpreading { source: 0 });
        spec.trials = 2;
        spec.observe = ObserveMode::Trajectory;
        let runner = Runner::new(spec).unwrap();
        let mut out = Vec::new();
        let report = runner.run_streamed(&mut out).unwrap();
        let streamed = String::from_utf8(out).unwrap();
        assert_eq!(streamed, report.to_table().to_json_lines());
        assert!(streamed.lines().count() > 2, "one row per phase per trial");
        assert!(streamed.lines().all(|l| l.starts_with("{\"trial\":")));
    }

    /// A reader that leaves after the first line: every write past it
    /// fails with a broken pipe, and the writer counts the write attempts
    /// made after its first failure.
    #[derive(Default)]
    struct LeavesAfterOneLine {
        lines: usize,
        failed: bool,
        attempts_after_failure: usize,
    }

    impl Write for LeavesAfterOneLine {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.failed {
                self.attempts_after_failure += 1;
            }
            if self.lines >= 1 {
                self.failed = true;
                return Err(std::io::ErrorKind::BrokenPipe.into());
            }
            self.lines += buf.iter().filter(|&&b| b == b'\n').count();
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_failed_stream_write_ends_the_run_with_that_error() {
        let mut summary = quick_spec(ScenarioKind::RumorSpreading { source: 0 });
        summary.sweep.eps = vec![0.3, 0.4, 0.5];
        let mut trajectory = quick_spec(ScenarioKind::RumorSpreading { source: 0 });
        trajectory.observe = ObserveMode::Trajectory;
        for spec in [summary, trajectory] {
            let observe = spec.observe;
            let mut out = LeavesAfterOneLine::default();
            let err = Runner::new(spec).unwrap().run_streamed(&mut out).unwrap_err();
            assert!(
                matches!(&err, SpecError::Write(e) if e.kind() == std::io::ErrorKind::BrokenPipe),
                "{observe:?}: {err}"
            );
            assert!(out.failed, "{observe:?}: the second line was attempted");
            assert_eq!(out.attempts_after_failure, 0, "{observe:?}: writing went on");
        }
    }

    #[test]
    fn streamed_phase_aggregates_match_the_final_table() {
        // Phases mode cannot stream live (aggregates only exist once the
        // trials are done); its rows stream per completed point and must
        // still match the final table byte for byte.
        let mut spec = quick_spec(ScenarioKind::RumorSpreading { source: 0 });
        spec.trials = 2;
        spec.observe = ObserveMode::Phases;
        let runner = Runner::new(spec).unwrap();
        let mut out = Vec::new();
        let report = runner.run_streamed(&mut out).unwrap();
        assert_eq!(
            String::from_utf8(out).unwrap(),
            report.to_table().to_json_lines()
        );
    }

    #[test]
    fn observed_runs_leave_outcomes_bit_identical() {
        // The same spec through the summary path and the trajectory path:
        // rounds/phase counts must agree because observation is RNG-free.
        let base = quick_spec(ScenarioKind::PluralityConsensus {
            init: InitSpec::Biased { bias: 0.3 },
        });
        let summary_report = Runner::new(base.clone()).unwrap().run().unwrap();
        let PointSummary::Protocol(summary) = &summary_report.points()[0].summary else {
            unreachable!()
        };
        let mut observed = base;
        observed.observe = ObserveMode::Trajectory;
        let report = Runner::new(observed).unwrap().run().unwrap();
        let PointSummary::Trajectory(set) = &report.points()[0].summary else {
            unreachable!()
        };
        for recorder in &set.trials {
            let total: u64 = recorder.snapshots().iter().map(|s| s.rounds()).sum();
            assert_eq!(total as f64, summary.rounds.mean(), "same schedule executed");
        }
    }
}
