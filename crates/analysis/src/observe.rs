//! Ready-made [`Observer`]s: trajectory recording, streaming per-phase
//! statistics, and JSONL sinks.
//!
//! These are the built-in consumers of the core observation layer
//! (`plurality_core::observe`): attach them to a
//! [`Session`](plurality_core::Session) run or a dynamics `RuleSpec::run` to
//! turn per-phase [`PhaseSnapshot`]s into tables, streaming aggregates, or
//! incrementally emitted JSON lines.
//!
//! * [`TrajectoryRecorder`] — collects every snapshot of one execution and
//!   renders the canonical trajectory table (stage, phase, rounds,
//!   activation, bias, per-phase bias amplification — the shape of
//!   experiment F5 / Lemmas 7 and 12).
//! * [`OnlineStats`] — streaming per-phase-index mean/CI aggregates over
//!   *many* executions via [`SampleStats`] (the shape of experiment T3 /
//!   Claims 2–3): attach one instance to every trial of a configuration.
//! * [`StreamSink`] — writes one JSON line per finished phase to any
//!   [`Write`], flushing as it goes, so long runs can be watched (or
//!   piped) live instead of waiting for the final table.
//! * [`DisseminationTime`] — records when the opinionated fraction first
//!   reaches a threshold (the rumor-spreading dissemination time of
//!   Theorem 1 when the threshold is 1).
//! * [`ReconvergenceTime`] — measures how long the system needs to win
//!   the bias threshold back after a temporal disruption (a noise burst,
//!   a churn burst, …) knocked it below; the observable behind the
//!   `burst` experiment.

use crate::stats::SampleStats;
use crate::table::{json_line, Table};
use plurality_core::observe::{Observer, PhaseSnapshot};
use plurality_core::StageId;
use std::io::Write;

/// The column headers of the canonical trajectory table. The final
/// `topology` column records which communication graph produced the
/// trajectory (`"complete"` for the paper's model).
pub const TRAJECTORY_HEADERS: [&str; 7] = [
    "stage",
    "phase",
    "rounds",
    "opinionated",
    "bias",
    "amplification",
    "topology",
];

/// The column headers of the per-phase aggregate table
/// ([`OnlineStats::to_table`]); shared with the experiment runner so
/// streamed rows and the final table stay byte-compatible.
pub const PHASES_HEADERS: [&str; 6] =
    ["stage", "phase", "opinionated", "growth", "bias", "amplification"];

/// Renders one canonical trajectory row for a finished phase.
///
/// `previous_bias` is the bias after the preceding phase (across stage
/// boundaries); the amplification column shows the ratio `bias /
/// previous_bias` for Stage 2 phases — the per-phase amplification factor
/// of Proposition 1 — and for stage-less (dynamics) steps, and `-`
/// elsewhere (Stage 1 degrades the bias by design, so a ratio there would
/// only invite misreading).
pub fn trajectory_row(snapshot: &PhaseSnapshot, previous_bias: Option<f64>) -> Vec<String> {
    let stage = snapshot
        .stage()
        .map_or_else(|| "-".to_string(), |s| s.to_string());
    let bias = snapshot.bias();
    let amplification = match (snapshot.stage(), previous_bias, bias) {
        (Some(StageId::Two) | None, Some(prev), Some(curr)) if prev > 0.0 => {
            format!("{:.2}x", curr / prev)
        }
        _ => "-".to_string(),
    };
    vec![
        stage,
        snapshot.phase().to_string(),
        snapshot.rounds().to_string(),
        format!("{:.3}", snapshot.opinionated_fraction()),
        bias.map_or_else(|| "-".to_string(), |b| format!("{b:+.4}")),
        amplification,
        snapshot.topology().to_string(),
    ]
}

/// Records the full per-phase trajectory of one execution.
///
/// The recorder keeps every [`PhaseSnapshot`] (O(k) memory per phase) and
/// renders them as the canonical trajectory table. Attaching it never
/// perturbs the run: observation is RNG-free by construction.
///
/// ```
/// use gossip_analysis::observe::TrajectoryRecorder;
/// use noisy_channel::NoiseMatrix;
/// use plurality_core::{ExecutionBackend, Instance, ProtocolParams, TwoStageProtocol};
/// use pushsim::Opinion;
///
/// # fn main() -> Result<(), plurality_core::ProtocolError> {
/// let noise = NoiseMatrix::uniform(2, 0.35).expect("valid noise");
/// let params = ProtocolParams::builder(400, 2).epsilon(0.35).seed(5).build()?;
/// let protocol = TwoStageProtocol::new(params, noise)?;
/// let mut recorder = TrajectoryRecorder::new();
/// let outcome = protocol.session().run(
///     ExecutionBackend::Auto,
///     Instance::Rumor(Opinion::new(0)),
///     &mut recorder,
/// )?;
/// assert_eq!(recorder.len(), outcome.phase_records().len());
/// let table = recorder.to_table();
/// assert_eq!(table.num_rows(), recorder.len());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct TrajectoryRecorder {
    snapshots: Vec<PhaseSnapshot>,
}

impl TrajectoryRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// The recorded snapshots, in execution order.
    pub fn snapshots(&self) -> &[PhaseSnapshot] {
        &self.snapshots
    }

    /// Number of recorded phases.
    pub fn len(&self) -> usize {
        self.snapshots.len()
    }

    /// `true` if nothing was recorded yet.
    pub fn is_empty(&self) -> bool {
        self.snapshots.is_empty()
    }

    /// Discards the recorded trajectory (for reuse across executions).
    pub fn clear(&mut self) {
        self.snapshots.clear();
    }

    /// The canonical trajectory rows (no headers), with the amplification
    /// column threaded across stage boundaries exactly like
    /// [`trajectory_row`].
    pub fn rows(&self) -> Vec<Vec<String>> {
        let mut previous_bias: Option<f64> = None;
        self.snapshots
            .iter()
            .map(|snapshot| {
                let row = trajectory_row(snapshot, previous_bias);
                previous_bias = snapshot.bias();
                row
            })
            .collect()
    }

    /// The canonical trajectory table
    /// ([`TRAJECTORY_HEADERS`] columns, one row per phase).
    pub fn to_table(&self) -> Table {
        let mut table = Table::new(TRAJECTORY_HEADERS.to_vec());
        for row in self.rows() {
            table.push_row(row);
        }
        table
    }
}

impl Observer for TrajectoryRecorder {
    fn on_phase_end(&mut self, snapshot: &PhaseSnapshot) {
        self.snapshots.push(snapshot.clone());
    }
}

/// Streaming per-phase aggregates over many executions of one
/// configuration.
///
/// Attach a single `OnlineStats` to every trial (its [`Observer::on_finish`]
/// hook separates runs); it accumulates, per phase index, the mean
/// activation, activation growth factor (Claims 2–3's `β/ε² + 1`), bias
/// and per-phase bias amplification, using [`SampleStats`]'s online
/// accumulators — memory stays O(phases), independent of the number of
/// runs.
#[derive(Debug, Clone, Default)]
pub struct OnlineStats {
    slots: Vec<PhaseSlot>,
    cursor: usize,
    runs: u64,
    previous_fraction: Option<f64>,
    previous_bias: Option<f64>,
}

/// The aggregates of one phase index across runs.
#[derive(Debug, Clone)]
pub struct PhaseSlot {
    /// The stage of the phase (`None` for stage-less executions).
    pub stage: Option<StageId>,
    /// The phase index within its stage.
    pub phase: usize,
    /// Fraction of opinionated agents at the end of the phase.
    pub opinionated: SampleStats,
    /// Activation growth factor over the preceding phase (recorded from
    /// the second phase of each run on, and only while the previous
    /// fraction is positive).
    pub growth: SampleStats,
    /// Bias towards the reference opinion (recorded when defined).
    pub bias: SampleStats,
    /// Bias amplification over the preceding phase (recorded when both
    /// biases are defined and the previous one is positive).
    pub amplification: SampleStats,
}

impl PhaseSlot {
    fn new(stage: Option<StageId>, phase: usize) -> Self {
        Self {
            stage,
            phase,
            opinionated: SampleStats::new(),
            growth: SampleStats::new(),
            bias: SampleStats::new(),
            amplification: SampleStats::new(),
        }
    }
}

impl OnlineStats {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// The per-phase aggregates, in phase order.
    pub fn phases(&self) -> &[PhaseSlot] {
        &self.slots
    }

    /// Number of finished runs folded in so far (runs are separated by
    /// [`Observer::on_finish`]).
    pub fn runs(&self) -> u64 {
        self.runs
    }

    /// Renders the aggregates as a table: one row per phase index with the
    /// mean of each statistic over the runs (blank where a statistic was
    /// never defined).
    pub fn to_table(&self) -> Table {
        let mut table = Table::new(PHASES_HEADERS.to_vec());
        for slot in &self.slots {
            let mean_or_dash = |stats: &SampleStats, render: &dyn Fn(f64) -> String| {
                if stats.is_empty() {
                    "-".to_string()
                } else {
                    render(stats.mean())
                }
            };
            table.push_row(vec![
                slot.stage.map_or_else(|| "-".to_string(), |s| s.to_string()),
                slot.phase.to_string(),
                format!("{:.4}", slot.opinionated.mean()),
                mean_or_dash(&slot.growth, &|m| format!("{m:.1}")),
                mean_or_dash(&slot.bias, &|m| format!("{m:+.4}")),
                mean_or_dash(&slot.amplification, &|m| format!("{m:.2}x")),
            ]);
        }
        table
    }
}

impl Observer for OnlineStats {
    fn on_phase_end(&mut self, snapshot: &PhaseSnapshot) {
        if self.cursor == self.slots.len() {
            self.slots
                .push(PhaseSlot::new(snapshot.stage(), snapshot.phase()));
        }
        let slot = &mut self.slots[self.cursor];
        let fraction = snapshot.opinionated_fraction();
        slot.opinionated.push(fraction);
        if let Some(previous) = self.previous_fraction {
            if previous > 0.0 {
                slot.growth.push(fraction / previous);
            }
        }
        if let Some(bias) = snapshot.bias() {
            slot.bias.push(bias);
            if let Some(previous) = self.previous_bias {
                if previous > 0.0 {
                    slot.amplification.push(bias / previous);
                }
            }
        }
        self.previous_fraction = Some(fraction);
        self.previous_bias = snapshot.bias();
        self.cursor += 1;
    }

    fn on_finish(&mut self) {
        self.cursor = 0;
        self.runs += 1;
        self.previous_fraction = None;
        self.previous_bias = None;
    }
}

/// Streams one JSON line per finished phase to a [`Write`], flushing after
/// every line, so a long run can be watched (or piped into `jq`, a
/// dashboard, …) while it executes instead of after it.
///
/// Rows use the canonical trajectory columns ([`TRAJECTORY_HEADERS`]),
/// optionally prefixed with fixed context cells (the sweep-point
/// coordinates, a trial index, …) via [`with_prefix`](Self::with_prefix);
/// the row format is byte-compatible with
/// [`Table::to_json_lines`].
///
/// Write errors do not interrupt the run (observers are infallible by
/// design); the first one is kept and can be inspected with
/// [`error`](Self::error).
///
/// ```
/// use gossip_analysis::observe::StreamSink;
/// use noisy_channel::NoiseMatrix;
/// use plurality_core::{ExecutionBackend, Instance, ProtocolParams, TwoStageProtocol};
/// use pushsim::Opinion;
///
/// # fn main() -> Result<(), plurality_core::ProtocolError> {
/// let noise = NoiseMatrix::uniform(2, 0.35).expect("valid noise");
/// let params = ProtocolParams::builder(400, 2).epsilon(0.35).seed(5).build()?;
/// let protocol = TwoStageProtocol::new(params, noise)?;
/// let mut out = Vec::new();
/// let mut sink = StreamSink::new(&mut out);
/// protocol.session().run(
///     ExecutionBackend::Auto,
///     Instance::Rumor(Opinion::new(0)),
///     &mut sink,
/// )?;
/// assert!(sink.error().is_none());
/// let text = String::from_utf8(out).expect("JSON lines are UTF-8");
/// assert!(text.lines().all(|l| l.starts_with("{\"stage\":")));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct StreamSink<W: Write> {
    out: W,
    headers: Vec<String>,
    prefix: Vec<String>,
    population: bool,
    previous_bias: Option<f64>,
    error: Option<std::io::Error>,
}

impl<W: Write> StreamSink<W> {
    /// A sink emitting bare trajectory rows.
    pub fn new(out: W) -> Self {
        Self::with_prefix::<&str>(out, &[], &[])
    }

    /// A sink whose every row starts with the given fixed context cells
    /// (`prefix_headers` and `prefix` must have equal lengths) before the
    /// trajectory columns.
    ///
    /// # Panics
    ///
    /// Panics if `prefix_headers` and `prefix` have different lengths.
    pub fn with_prefix<S: AsRef<str>>(out: W, prefix_headers: &[S], prefix: &[S]) -> Self {
        assert_eq!(
            prefix_headers.len(),
            prefix.len(),
            "one prefix cell per prefix header"
        );
        let mut headers: Vec<String> = prefix_headers
            .iter()
            .map(|s| s.as_ref().to_string())
            .collect();
        headers.extend(TRAJECTORY_HEADERS.iter().map(|h| h.to_string()));
        Self {
            out,
            headers,
            prefix: prefix.iter().map(|s| s.as_ref().to_string()).collect(),
            population: false,
            previous_bias: None,
            error: None,
        }
    }

    /// Appends a trailing `population` column carrying each snapshot's
    /// live node count — the per-phase population trajectory of a run
    /// under churn.
    pub fn with_population(mut self) -> Self {
        if !self.population {
            self.population = true;
            self.headers.push("population".to_string());
        }
        self
    }

    /// The first write error encountered, if any.
    pub fn error(&self) -> Option<&std::io::Error> {
        self.error.as_ref()
    }

    /// Consumes the sink and returns the writer.
    pub fn into_inner(self) -> W {
        self.out
    }
}

impl<W: Write> Observer for StreamSink<W> {
    fn on_phase_end(&mut self, snapshot: &PhaseSnapshot) {
        let mut row = self.prefix.clone();
        row.extend(trajectory_row(snapshot, self.previous_bias));
        if self.population {
            row.push(snapshot.distribution().num_nodes().to_string());
        }
        self.previous_bias = snapshot.bias();
        if self.error.is_none() {
            let result = writeln!(self.out, "{}", json_line(&self.headers, &row))
                .and_then(|()| self.out.flush());
            if let Err(e) = result {
                self.error = Some(e);
            }
        }
    }

    fn on_finish(&mut self) {
        self.previous_bias = None;
        if self.error.is_none() {
            if let Err(e) = self.out.flush() {
                self.error = Some(e);
            }
        }
    }
}

/// Records when the opinionated fraction first reaches a threshold.
///
/// With the threshold at `1.0` (the default) this is the *dissemination
/// time* of the paper's rumor-spreading problem — the number of rounds
/// until every agent holds some opinion. Under population churn the
/// fraction is measured against the *live* population of each snapshot, so
/// joiners arriving undecided push the crossing later, exactly like they
/// do in the real process.
///
/// The observer is single-crossing: once the threshold is reached the
/// recorded rounds never change, even if churn later dilutes the fraction
/// below the threshold again (dissemination is about the first time
/// everyone was reached). Reuse across runs via [`clear`](Self::clear).
#[derive(Debug, Clone)]
pub struct DisseminationTime {
    threshold: f64,
    rounds: Option<u64>,
    phases: Option<usize>,
    seen: usize,
}

impl Default for DisseminationTime {
    fn default() -> Self {
        Self::new()
    }
}

impl DisseminationTime {
    /// Records the first time *everyone* is opinionated (threshold 1.0).
    pub fn new() -> Self {
        Self::with_threshold(1.0)
    }

    /// Records the first time the opinionated fraction reaches
    /// `threshold` (clamped meaningfully to `(0, 1]` by the caller; the
    /// observer just compares).
    pub fn with_threshold(threshold: f64) -> Self {
        Self {
            threshold,
            rounds: None,
            phases: None,
            seen: 0,
        }
    }

    /// Total rounds elapsed when the threshold was first reached, or
    /// `None` if the run never got there.
    pub fn rounds(&self) -> Option<u64> {
        self.rounds
    }

    /// Number of finished phases (cumulative, across stages) when the
    /// threshold was first reached.
    pub fn phases(&self) -> Option<usize> {
        self.phases
    }

    /// Forgets the recorded crossing (for reuse across runs).
    pub fn clear(&mut self) {
        self.rounds = None;
        self.phases = None;
        self.seen = 0;
    }
}

impl Observer for DisseminationTime {
    fn on_phase_end(&mut self, snapshot: &PhaseSnapshot) {
        let index = self.seen;
        self.seen += 1;
        if self.rounds.is_none() && snapshot.opinionated_fraction() >= self.threshold {
            self.rounds = Some(snapshot.total_rounds());
            self.phases = Some(index);
        }
    }
}

/// One completed recovery recorded by [`ReconvergenceTime`]: the bias held
/// the threshold, fell below it, and climbed back.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reconvergence {
    /// Total rounds elapsed at the first observation *below* the
    /// threshold (when the disruption became visible).
    pub lost_at: u64,
    /// Total rounds elapsed at the first observation back *at or above*
    /// the threshold.
    pub recovered_at: u64,
}

impl Reconvergence {
    /// Rounds the system spent below the threshold.
    pub fn rounds(&self) -> u64 {
        self.recovered_at - self.lost_at
    }
}

/// Measures how long the system needs to win a bias threshold back after
/// a temporal disruption knocked it below.
///
/// The observer runs a three-state machine over the per-phase bias: it
/// waits for the bias to reach `threshold` the first time (initial
/// convergence — not counted as a recovery), then every excursion below
/// the threshold opens a disruption window that closes when the bias is
/// back at or above it. Each closed window becomes a [`Reconvergence`];
/// an undefined bias (nobody opinionated) counts as *below*. This is the
/// observable behind the `burst` experiment: schedule a noise or churn
/// burst mid-run and read off how many rounds the consensus needs to heal.
#[derive(Debug, Clone)]
pub struct ReconvergenceTime {
    threshold: f64,
    state: ReconvergenceState,
    events: Vec<Reconvergence>,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum ReconvergenceState {
    /// The bias has not yet reached the threshold at all.
    Converging,
    /// The bias is at or above the threshold.
    Holding,
    /// The bias fell below the threshold at the recorded round count.
    Disrupted { lost_at: u64 },
}

impl ReconvergenceTime {
    /// An observer for recoveries of the given bias threshold.
    pub fn new(threshold: f64) -> Self {
        Self {
            threshold,
            state: ReconvergenceState::Converging,
            events: Vec::new(),
        }
    }

    /// The completed recoveries, in order of occurrence.
    pub fn events(&self) -> &[Reconvergence] {
        &self.events
    }

    /// The slowest completed recovery, in rounds.
    pub fn max_rounds(&self) -> Option<u64> {
        self.events.iter().map(Reconvergence::rounds).max()
    }

    /// The round count at which a still-open disruption started, if the
    /// run ended (or currently stands) below the threshold after having
    /// reached it.
    pub fn unrecovered_since(&self) -> Option<u64> {
        match self.state {
            ReconvergenceState::Disrupted { lost_at } => Some(lost_at),
            _ => None,
        }
    }

    /// Forgets all recorded events and re-arms the initial convergence
    /// (for reuse across runs).
    pub fn clear(&mut self) {
        self.state = ReconvergenceState::Converging;
        self.events.clear();
    }
}

impl Observer for ReconvergenceTime {
    fn on_phase_end(&mut self, snapshot: &PhaseSnapshot) {
        let holds = snapshot.bias().is_some_and(|b| b >= self.threshold);
        self.state = match (self.state, holds) {
            (ReconvergenceState::Converging, true) => ReconvergenceState::Holding,
            (ReconvergenceState::Converging, false) => ReconvergenceState::Converging,
            (ReconvergenceState::Holding, true) => ReconvergenceState::Holding,
            (ReconvergenceState::Holding, false) => ReconvergenceState::Disrupted {
                lost_at: snapshot.total_rounds(),
            },
            (ReconvergenceState::Disrupted { lost_at }, true) => {
                self.events.push(Reconvergence {
                    lost_at,
                    recovered_at: snapshot.total_rounds(),
                });
                ReconvergenceState::Holding
            }
            (state @ ReconvergenceState::Disrupted { .. }, false) => state,
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pushsim::OpinionDistribution;

    fn snapshot(
        stage: Option<StageId>,
        phase: usize,
        counts: Vec<usize>,
        undecided: usize,
        bias: Option<f64>,
    ) -> PhaseSnapshot {
        let distribution = OpinionDistribution::from_counts(counts, undecided).unwrap();
        PhaseSnapshot::new(stage, phase, 10, 10, 50, 50, distribution, bias)
    }

    #[test]
    fn trajectory_rows_follow_the_f5_format() {
        // Stage 1 rows never show an amplification ratio.
        let s1 = snapshot(Some(StageId::One), 0, vec![40, 10], 50, Some(0.6));
        assert_eq!(
            trajectory_row(&s1, Some(0.3)),
            vec!["stage 1", "0", "10", "0.500", "+0.6000", "-", "complete"]
        );
        // Stage 2 rows show it once the previous bias is positive.
        let s2 = snapshot(Some(StageId::Two), 1, vec![90, 10], 0, Some(0.8));
        assert_eq!(
            trajectory_row(&s2, Some(0.4)),
            vec!["stage 2", "1", "10", "1.000", "+0.8000", "2.00x", "complete"]
        );
        assert_eq!(trajectory_row(&s2, None)[5], "-");
        assert_eq!(trajectory_row(&s2, Some(0.0))[5], "-");
        // Stage-less (dynamics) rows behave like Stage 2.
        let dynamics = snapshot(None, 3, vec![90, 10], 0, Some(0.8));
        let row = trajectory_row(&dynamics, Some(0.4));
        assert_eq!(row[0], "-");
        assert_eq!(row[5], "2.00x");
        // The topology label rides along in the final column.
        let ring = snapshot(Some(StageId::One), 0, vec![40, 10], 50, Some(0.6))
            .with_topology("ring");
        assert_eq!(trajectory_row(&ring, None)[6], "ring");
        // Undefined bias renders as a dash.
        let empty = snapshot(Some(StageId::One), 0, vec![0, 0], 100, None);
        assert_eq!(trajectory_row(&empty, None)[4], "-");
    }

    #[test]
    fn recorder_collects_snapshots_and_threads_the_previous_bias() {
        let mut recorder = TrajectoryRecorder::new();
        assert!(recorder.is_empty());
        recorder.on_phase_end(&snapshot(Some(StageId::One), 0, vec![40, 10], 50, Some(0.2)));
        recorder.on_phase_end(&snapshot(Some(StageId::Two), 0, vec![80, 20], 0, Some(0.6)));
        recorder.on_phase_end(&snapshot(Some(StageId::Two), 1, vec![100, 0], 0, Some(1.0)));
        assert_eq!(recorder.len(), 3);
        let table = recorder.to_table();
        assert_eq!(table.headers(), &TRAJECTORY_HEADERS.map(String::from));
        let rows = table.rows();
        assert_eq!(rows[0][5], "-");
        assert_eq!(rows[1][5], "3.00x", "0.2 -> 0.6 across the stage boundary");
        assert_eq!(rows[2][5], "1.67x");
        recorder.clear();
        assert!(recorder.is_empty());
    }

    #[test]
    fn online_stats_aggregate_across_runs() {
        let mut stats = OnlineStats::new();
        for run in 0..2u64 {
            let wobble = run as f64 * 0.1;
            stats.on_phase_end(&snapshot(Some(StageId::One), 0, vec![10, 0], 90, Some(1.0)));
            stats.on_phase_end(&snapshot(
                Some(StageId::One),
                1,
                vec![50, 0],
                50,
                Some(1.0 - wobble),
            ));
            stats.on_finish();
        }
        assert_eq!(stats.runs(), 2);
        let slots = stats.phases();
        assert_eq!(slots.len(), 2);
        assert_eq!(slots[0].opinionated.len(), 2);
        // Growth is only defined from the second phase of each run.
        assert_eq!(slots[0].growth.len(), 0);
        assert_eq!(slots[1].growth.len(), 2);
        assert!((slots[1].growth.mean() - 5.0).abs() < 1e-12);
        // Amplification 0.95/1.0 on the second run, 1.0 on the first.
        assert_eq!(slots[1].amplification.len(), 2);
        let table = stats.to_table();
        assert_eq!(table.num_rows(), 2);
        assert_eq!(table.rows()[1][3], "5.0");
    }

    #[test]
    fn online_stats_tolerate_runs_of_unequal_length() {
        // Stop conditions make per-run phase counts differ; the aggregates
        // must keep per-phase-index sample counts honest instead of
        // misaligning later runs.
        let mut stats = OnlineStats::new();
        // Run 1: three phases.
        stats.on_phase_end(&snapshot(Some(StageId::One), 0, vec![10, 0], 90, Some(1.0)));
        stats.on_phase_end(&snapshot(Some(StageId::One), 1, vec![50, 0], 50, Some(1.0)));
        stats.on_phase_end(&snapshot(Some(StageId::Two), 0, vec![90, 10], 0, Some(0.8)));
        stats.on_finish();
        // Run 2: stopped after one phase.
        stats.on_phase_end(&snapshot(Some(StageId::One), 0, vec![20, 0], 80, Some(1.0)));
        stats.on_finish();
        // Run 3: two phases.
        stats.on_phase_end(&snapshot(Some(StageId::One), 0, vec![10, 0], 90, Some(1.0)));
        stats.on_phase_end(&snapshot(Some(StageId::One), 1, vec![40, 0], 60, Some(1.0)));
        stats.on_finish();

        assert_eq!(stats.runs(), 3);
        let slots = stats.phases();
        assert_eq!(slots.len(), 3, "the longest run defines the phase axis");
        assert_eq!(slots[0].opinionated.len(), 3, "every run reached phase 0");
        assert_eq!(slots[1].opinionated.len(), 2, "two runs reached phase 1");
        assert_eq!(slots[2].opinionated.len(), 1, "one run reached phase 2");
        // Growth after a truncated run restarts cleanly: the short run
        // must not leak its last fraction into the next run's phase 0.
        assert_eq!(slots[0].growth.len(), 0);
        assert_eq!(slots[1].growth.len(), 2);
        // The rendered table still has one row per phase index.
        assert_eq!(stats.to_table().num_rows(), 3);
    }

    #[test]
    fn stream_sink_emits_one_flushed_json_line_per_phase() {
        let mut out = Vec::new();
        {
            let mut sink = StreamSink::with_prefix(&mut out, &["trial"], &["0"]);
            sink.on_phase_end(&snapshot(Some(StageId::One), 0, vec![40, 10], 50, Some(0.2)));
            sink.on_phase_end(&snapshot(Some(StageId::Two), 0, vec![80, 20], 0, Some(0.6)));
            sink.on_finish();
            assert!(sink.error().is_none());
        }
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            "{\"trial\":0,\"stage\":\"stage 1\",\"phase\":0,\"rounds\":10,\
             \"opinionated\":0.500,\"bias\":0.2000,\"amplification\":\"-\",\
             \"topology\":\"complete\"}"
        );
        assert!(lines[1].contains("\"amplification\":\"3.00x\""));
    }

    fn timed_snapshot(
        total_rounds: u64,
        counts: Vec<usize>,
        undecided: usize,
        bias: Option<f64>,
    ) -> PhaseSnapshot {
        let distribution = OpinionDistribution::from_counts(counts, undecided).unwrap();
        PhaseSnapshot::new(None, 0, 10, total_rounds, 50, 50, distribution, bias)
    }

    #[test]
    fn dissemination_time_records_the_first_crossing_only() {
        let mut obs = DisseminationTime::new();
        assert_eq!(obs.rounds(), None);
        obs.on_phase_end(&timed_snapshot(4, vec![30, 10], 60, Some(0.5)));
        assert_eq!(obs.rounds(), None, "still 60 undecided agents");
        obs.on_phase_end(&timed_snapshot(8, vec![80, 20], 0, Some(0.6)));
        assert_eq!(obs.rounds(), Some(8));
        assert_eq!(obs.phases(), Some(1));
        // Churn diluting the fraction afterwards does not reopen it.
        obs.on_phase_end(&timed_snapshot(12, vec![80, 20], 10, Some(0.6)));
        assert_eq!(obs.rounds(), Some(8));
        obs.clear();
        assert_eq!(obs.rounds(), None);
        // A lower threshold crosses earlier.
        let mut half = DisseminationTime::with_threshold(0.4);
        half.on_phase_end(&timed_snapshot(4, vec![30, 10], 60, Some(0.5)));
        assert_eq!(half.rounds(), Some(4));
        assert_eq!(half.phases(), Some(0));
    }

    #[test]
    fn reconvergence_time_tracks_disruption_windows() {
        let mut obs = ReconvergenceTime::new(0.5);
        // The initial climb to the threshold is not a recovery.
        obs.on_phase_end(&timed_snapshot(2, vec![40, 30], 30, Some(0.1)));
        obs.on_phase_end(&timed_snapshot(4, vec![80, 20], 0, Some(0.6)));
        assert!(obs.events().is_empty());
        assert_eq!(obs.unrecovered_since(), None);
        // A burst knocks the bias down...
        obs.on_phase_end(&timed_snapshot(6, vec![55, 45], 0, Some(0.1)));
        assert_eq!(obs.unrecovered_since(), Some(6));
        obs.on_phase_end(&timed_snapshot(8, vec![60, 40], 0, Some(0.2)));
        // ...and the system heals two observations later.
        obs.on_phase_end(&timed_snapshot(10, vec![85, 15], 0, Some(0.7)));
        assert_eq!(obs.events().len(), 1);
        assert_eq!(obs.events()[0].lost_at, 6);
        assert_eq!(obs.events()[0].recovered_at, 10);
        assert_eq!(obs.events()[0].rounds(), 4);
        assert_eq!(obs.max_rounds(), Some(4));
        assert_eq!(obs.unrecovered_since(), None);
        // An undefined bias counts as below the threshold.
        obs.on_phase_end(&timed_snapshot(12, vec![0, 0], 100, None));
        assert_eq!(obs.unrecovered_since(), Some(12));
        obs.on_phase_end(&timed_snapshot(13, vec![90, 10], 0, Some(0.8)));
        assert_eq!(obs.events().len(), 2);
        assert_eq!(obs.max_rounds(), Some(4), "the second recovery took 1 round");
        obs.clear();
        assert!(obs.events().is_empty());
    }

    #[test]
    fn stream_sink_records_write_errors_instead_of_panicking() {
        struct Broken;
        impl Write for Broken {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("pipe closed"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut sink = StreamSink::new(Broken);
        sink.on_phase_end(&snapshot(Some(StageId::One), 0, vec![1, 0], 9, Some(1.0)));
        assert!(sink.error().is_some());
    }
}
