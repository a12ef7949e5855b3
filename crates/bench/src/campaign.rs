//! Fault-injection campaign engine: (spec grid × seed range) sweeps with
//! invariant oracles and first-failing-seed replay.
//!
//! A campaign takes a protocol [`ScenarioSpec`] — typically one with a
//! `sweep.fault` axis — and runs every grid cell over a range of derived
//! seeds. Each run is watched by an [`OracleSuite`] (count conservation,
//! consensus correctness, bias monotonicity, the paper's round envelope;
//! see [`gossip_analysis::oracle`]) and judged pass/fail. The report
//! aggregates per-cell pass/fail counts and pins down the **first failing
//! seed** of every failing cell, so a violation found across thousands of
//! runs collapses to one ready-to-paste replay command:
//!
//! ```text
//! xp campaign --spec examples/specs/fault_campaign.spec --seeds 1000
//! xp campaign --replay examples/specs/fault_campaign.spec 0x4f3a… --seeds 1000
//! ```
//!
//! Replay re-runs exactly that `(cell, seed)` pair — the per-run seed is
//! [`derive_seed`]`(spec.seed, cell_index, seed_index)`, a pure function
//! of the spec, so the failing execution is reproduced bit-for-bit — and
//! dumps its full per-phase trajectory next to the violations.
//!
//! Campaign runs force a stop-on-consensus condition on top of the spec's
//! own `stop.*` keys: the round envelope oracle then measures actual
//! convergence time instead of the fixed schedule length.

use crate::runner::{
    axis_cells, axis_columns, expand_grid, point_counts, point_protocol, protocol_instance,
    run_protocol, stop_at_consensus, validate_counts, GridPoint,
};
use crate::spec::{ScenarioSpec, SpecError};
use gossip_analysis::observe::TrajectoryRecorder;
use gossip_analysis::oracle::{OracleSuite, Violation};
use gossip_analysis::sweep::{derive_seed, par_map};
use gossip_analysis::table::Table;
use noisy_channel::NoiseMatrix;
use plurality_core::observe::{Fanout, NoObserver, Observer, StopCondition};
use plurality_core::ProtocolParams;

/// Default number of seeds per campaign cell.
pub const DEFAULT_SEEDS: u64 = 100;

/// Default tolerance of the bias-monotonicity oracle: per-phase bias
/// fluctuations are O(1/√n), so a dip this deep on a healthy run would be
/// many standard deviations even at the smallest grid sizes.
pub const DEFAULT_TOLERANCE: f64 = 0.5;

/// Default slack multiplier of the paper-bound oracle (the envelope is
/// `slack · ln(n)/ε²` rounds). The paper's Theorem 2 hides its constant,
/// and this implementation's two-stage schedule is itself ≈ 17 · ln(n)/ε²
/// rounds with consensus typically landing in the final phases, so the
/// default sits well above the schedule constant: it catches gross
/// blow-ups (misconfigured schedules, runaway stop conditions), not
/// normal end-of-schedule convergence.
pub const DEFAULT_SLACK: f64 = 32.0;

/// Knobs of a campaign run (everything else comes from the spec).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CampaignOptions {
    /// Seeds per grid cell.
    pub seeds: u64,
    /// Bias-monotonicity tolerance.
    pub tolerance: f64,
    /// Paper-bound slack multiplier.
    pub slack: f64,
}

impl Default for CampaignOptions {
    fn default() -> Self {
        CampaignOptions {
            seeds: DEFAULT_SEEDS,
            tolerance: DEFAULT_TOLERANCE,
            slack: DEFAULT_SLACK,
        }
    }
}

/// The earliest failing seed of one campaign cell.
#[derive(Debug, Clone)]
pub struct FirstFailure {
    /// Position of the seed in the cell's seed range.
    pub seed_index: u64,
    /// The derived per-run seed (what `--replay` takes).
    pub seed: u64,
    /// The violations that run produced, in detection order.
    pub violations: Vec<Violation>,
}

/// Aggregated verdict of one grid cell.
#[derive(Debug, Clone)]
pub struct CellOutcome {
    /// The cell's grid point.
    pub point: GridPoint,
    /// Seeds executed.
    pub runs: u64,
    /// Seeds with at least one violation.
    pub failures: u64,
    /// The earliest failing seed, when any failed.
    pub first_failure: Option<FirstFailure>,
}

/// The structured outcome of a campaign.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    spec: ScenarioSpec,
    options: CampaignOptions,
    cells: Vec<CellOutcome>,
}

impl CampaignReport {
    /// The spec the campaign executed.
    pub fn spec(&self) -> &ScenarioSpec {
        &self.spec
    }

    /// The options the campaign ran with.
    pub fn options(&self) -> &CampaignOptions {
        &self.options
    }

    /// Per-cell verdicts, in grid order.
    pub fn cells(&self) -> &[CellOutcome] {
        &self.cells
    }

    /// Whether every run of every cell passed all oracles.
    pub fn passed(&self) -> bool {
        self.cells.iter().all(|c| c.failures == 0)
    }

    /// Renders the per-cell verdict table: the swept axis columns, then
    /// `runs`, `fail` and the first failing seed (the value `--replay`
    /// takes) plus the oracle that tripped.
    pub fn to_table(&self) -> Table {
        let mut headers: Vec<String> = axis_columns(&self.spec)
            .iter()
            .filter(|(_, shown)| *shown)
            .map(|(name, _)| name.to_string())
            .collect();
        if headers.is_empty() {
            headers.push("cell".to_string());
        }
        headers.extend(["runs", "fail", "first failing seed", "oracle"].map(String::from));
        let mut table = Table::new(headers);
        for cell in &self.cells {
            let mut row = axis_cells(&self.spec, &cell.point);
            if row.is_empty() {
                row.push(cell.point.index.to_string());
            }
            row.push(cell.runs.to_string());
            row.push(cell.failures.to_string());
            match &cell.first_failure {
                Some(failure) => {
                    row.push(failure.seed.to_string());
                    row.push(
                        failure
                            .violations
                            .first()
                            .map(|v| v.oracle().to_string())
                            .unwrap_or_default(),
                    );
                }
                None => {
                    row.push("-".to_string());
                    row.push("-".to_string());
                }
            }
            table.push_row(row);
        }
        table
    }

    /// Human-readable failure details: one block per failing cell with the
    /// first failing seed's violations and a ready-to-paste replay command.
    /// `source` is the spec argument of the original invocation (a path or
    /// a registered experiment name).
    pub fn failure_lines(&self, source: &str) -> Vec<String> {
        let mut lines = Vec::new();
        for cell in &self.cells {
            let Some(failure) = &cell.first_failure else {
                continue;
            };
            lines.push(format!(
                "FAIL {}: {}/{} seeds violated an oracle; first failing seed {}",
                cell_label(&self.spec, &cell.point),
                cell.failures,
                cell.runs,
                failure.seed,
            ));
            for violation in &failure.violations {
                lines.push(format!("  {violation}"));
            }
            lines.push(format!(
                "  replay: xp campaign --replay {source} {} --seeds {}",
                failure.seed, self.options.seeds,
            ));
        }
        lines
    }
}

/// One replayed `(cell, seed)` run: the violations it reproduced plus its
/// full per-phase trajectory.
#[derive(Debug, Clone)]
pub struct ReplayOutcome {
    /// The cell the seed belongs to.
    pub point: GridPoint,
    /// Position of the seed in the cell's seed range.
    pub seed_index: u64,
    /// The derived per-run seed.
    pub seed: u64,
    /// The violations the replay reproduced (empty if it passed).
    pub violations: Vec<Violation>,
    /// The replayed run's per-phase trajectory.
    pub trajectory: TrajectoryRecorder,
}

/// A campaign cell with everything its runs share pre-built and
/// pre-validated: the runner's parameters (at the spec's base seed) and
/// noise for the point, and its initial counts.
struct CellPlan {
    point: GridPoint,
    params: ProtocolParams,
    noise: NoiseMatrix,
    counts: Vec<usize>,
}

/// Runs the campaign: every grid cell × every seed in `0..options.seeds`,
/// in parallel across all cores, each run judged by the standard oracle
/// suite. Results are merged in `(cell, seed)` order, so the report is
/// bit-identical to a sequential sweep.
///
/// # Errors
///
/// [`SpecError::Invalid`] if the spec is not a protocol scenario (rumor,
/// plurality, stage2), fails its own validation, or asks for more runs
/// (cells × seeds) than a `u64` counts; construction errors
/// ([`SpecError::Protocol`], [`SpecError::Noise`]) for the offending cell.
pub fn run_campaign(
    spec: &ScenarioSpec,
    options: &CampaignOptions,
) -> Result<CampaignReport, SpecError> {
    let plans = prepare(spec, options)?;
    let seeds = options.seeds;
    let total = (plans.len() as u64).checked_mul(seeds).ok_or_else(|| {
        SpecError::Invalid(format!(
            "{} cells × {seeds} seeds is more runs than a campaign can count",
            plans.len()
        ))
    })?;
    let stop = stop_at_consensus(spec);

    let verdicts = par_map(total, |flat| {
        let plan = &plans[(flat / seeds) as usize];
        let seed = derive_seed(spec.seed, plan.point.index, flat % seeds);
        execute_one(spec, options, plan, &stop, seed, &mut NoObserver)
    })
    .into_iter()
    .collect::<Result<Vec<_>, _>>()?;

    let cells = plans
        .iter()
        .zip(verdicts.chunks(seeds as usize))
        .map(|(plan, verdicts)| {
            let first_failure = verdicts.iter().position(|v| !v.is_empty()).map(|index| {
                let seed_index = index as u64;
                FirstFailure {
                    seed_index,
                    seed: derive_seed(spec.seed, plan.point.index, seed_index),
                    violations: verdicts[index].clone(),
                }
            });
            CellOutcome {
                point: plan.point,
                runs: seeds,
                failures: verdicts.iter().filter(|v| !v.is_empty()).count() as u64,
                first_failure,
            }
        })
        .collect();
    Ok(CampaignReport {
        spec: spec.clone(),
        options: *options,
        cells,
    })
}

/// Replays one campaign run by its derived seed: locates the `(cell,
/// seed_index)` pair the seed belongs to, re-runs it with the oracle suite
/// *and* a trajectory recorder attached, and returns both.
///
/// # Errors
///
/// [`SpecError::Invalid`] if `seed` is not produced by any `(cell,
/// seed_index)` pair of this campaign (wrong spec, wrong base seed, or a
/// different `--seeds` range than the report that printed it).
pub fn replay(
    spec: &ScenarioSpec,
    options: &CampaignOptions,
    seed: u64,
) -> Result<ReplayOutcome, SpecError> {
    let plans = prepare(spec, options)?;
    let located = plans.iter().find_map(|plan| {
        (0..options.seeds)
            .find(|&s| derive_seed(spec.seed, plan.point.index, s) == seed)
            .map(|s| (plan, s))
    });
    let Some((plan, seed_index)) = located else {
        return Err(SpecError::Invalid(format!(
            "seed {seed} is not part of this campaign ({} cells × {} seeds from base seed {}); \
             pass the spec and --seeds value the report was produced with",
            plans.len(),
            options.seeds,
            spec.seed,
        )));
    };
    let stop = stop_at_consensus(spec);
    let mut recorder = TrajectoryRecorder::new();
    let violations = execute_one(spec, options, plan, &stop, seed, &mut recorder)?;
    Ok(ReplayOutcome {
        point: plan.point,
        seed_index,
        seed,
        violations,
        trajectory: recorder,
    })
}

/// Validates the spec for campaigning and pre-builds every cell's shared
/// state, so worker threads run infallibly.
fn prepare(spec: &ScenarioSpec, options: &CampaignOptions) -> Result<Vec<CellPlan>, SpecError> {
    spec.validate()?;
    if !spec.kind.is_protocol() {
        return Err(SpecError::Invalid(format!(
            "campaigns run protocol scenarios (rumor, plurality, stage2), not {}",
            spec.kind.name()
        )));
    }
    if options.seeds == 0 {
        return Err(SpecError::Invalid("campaigns need at least one seed".into()));
    }
    let mut plans = Vec::new();
    for point in expand_grid(spec) {
        let (params, noise) = point_protocol(spec, &point)?;
        let counts = point_counts(&spec.kind, point);
        if !counts.is_empty() {
            // Surface count/parameter mismatches per cell, before the
            // parallel sweep starts.
            validate_counts(&params, &noise, &counts)?;
        }
        plans.push(CellPlan {
            point,
            params,
            noise,
            counts,
        });
    }
    Ok(plans)
}

/// Executes one `(cell, seed)` run under the standard oracle suite, with
/// `extra` observing alongside it (the replay path's trajectory recorder;
/// [`NoObserver`] during the sweep). Returns the violations.
fn execute_one(
    spec: &ScenarioSpec,
    options: &CampaignOptions,
    plan: &CellPlan,
    stop: &StopCondition,
    seed: u64,
    extra: &mut dyn Observer,
) -> Result<Vec<Violation>, SpecError> {
    let point = &plan.point;
    let instance =
        protocol_instance(&spec.kind, &plan.counts).expect("prepare() admits protocol kinds only");
    // The churn-aware suite: count conservation tracks the cell's
    // deterministic population trajectory instead of a fixed node count.
    let mut suite = OracleSuite::standard_with_churn(
        point.n,
        point.eps,
        options.tolerance,
        options.slack,
        point.churn,
    );
    let outcome = {
        let mut fanout = Fanout::new(vec![&mut suite as &mut dyn Observer, extra]);
        run_protocol(
            &plan.params,
            &plan.noise,
            seed,
            spec.backend,
            instance,
            stop,
            &mut fanout,
        )?
    };
    Ok(suite.judge(&outcome))
}

/// A short human label of one cell ("k=3 fault=drop(0.2)", or "cell 0"
/// when nothing is swept).
fn cell_label(spec: &ScenarioSpec, point: &GridPoint) -> String {
    let cells = axis_cells(spec, point);
    let names: Vec<&str> = axis_columns(spec)
        .iter()
        .filter(|(_, shown)| *shown)
        .map(|(name, _)| *name)
        .collect();
    if names.is_empty() {
        return format!("cell {}", point.index);
    }
    names
        .iter()
        .zip(&cells)
        .map(|(name, value)| format!("{name}={value}"))
        .collect::<Vec<_>>()
        .join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{InitSpec, ScenarioKind};
    use noisy_channel::NoiseSpec;
    use pushsim::FaultSpec;

    fn campaign_spec() -> ScenarioSpec {
        let mut spec = ScenarioSpec::new(
            ScenarioKind::PluralityConsensus {
                init: InitSpec::Counts(vec![240, 160]),
            },
            400,
            2,
        );
        spec.epsilon = 0.3;
        spec.noise = NoiseSpec::Uniform { epsilon: 0.3 };
        spec.seed = 7;
        spec
    }

    #[test]
    fn fault_free_and_mild_fault_cells_pass_deterministically() {
        let mut spec = campaign_spec();
        spec.sweep.fault = vec![FaultSpec::default(), "drop(0.2)".parse().unwrap()];
        let options = CampaignOptions {
            seeds: 8,
            ..CampaignOptions::default()
        };
        let report = run_campaign(&spec, &options).unwrap();
        assert_eq!(report.cells().len(), 2);
        assert!(report.passed(), "healthy cells must pass: {:?}", report.cells());
        assert!(report.failure_lines("x.spec").is_empty());
        let again = run_campaign(&spec, &options).unwrap();
        assert_eq!(report.to_table(), again.to_table(), "campaigns are pure in the spec");
        let table = report.to_table();
        assert_eq!(
            table.headers(),
            &["fault", "runs", "fail", "first failing seed", "oracle"].map(String::from)
        );
        assert_eq!(table.rows()[0][0], "none");
        assert_eq!(table.rows()[1][0], "drop(0.2)");
        assert_eq!(table.rows()[0][2], "0");
    }

    #[test]
    fn violations_pin_the_first_failing_seed_and_replay_reproduces_them() {
        let spec = campaign_spec();
        // A vanishing round envelope makes every run violate the
        // paper-bound oracle, deterministically.
        let options = CampaignOptions {
            seeds: 5,
            slack: 1e-9,
            ..CampaignOptions::default()
        };
        let report = run_campaign(&spec, &options).unwrap();
        assert!(!report.passed());
        let cell = &report.cells()[0];
        assert_eq!(cell.failures, 5);
        let failure = cell.first_failure.as_ref().unwrap();
        assert_eq!(failure.seed_index, 0);
        assert_eq!(failure.seed, derive_seed(spec.seed, 0, 0));
        assert_eq!(failure.violations[0].oracle(), "paper-bound");
        let lines = report.failure_lines("broken.spec");
        assert!(lines[0].starts_with("FAIL cell 0: 5/5 seeds"), "{lines:?}");
        let replay_line = lines.last().unwrap();
        assert_eq!(
            replay_line.trim(),
            format!("replay: xp campaign --replay broken.spec {} --seeds 5", failure.seed)
        );

        let replayed = replay(&spec, &options, failure.seed).unwrap();
        assert_eq!(replayed.seed_index, 0);
        assert_eq!(replayed.point.index, 0);
        assert!(!replayed.trajectory.is_empty(), "replay dumps the trajectory");
        let rendered: Vec<String> =
            replayed.violations.iter().map(|v| v.to_string()).collect();
        let expected: Vec<String> =
            failure.violations.iter().map(|v| v.to_string()).collect();
        assert_eq!(rendered, expected, "replay reproduces the exact violations");
    }

    #[test]
    fn byzantine_cells_trip_the_consensus_oracle() {
        let mut spec = campaign_spec();
        // 40% Byzantine agents pushing the minority opinion: the honest
        // bias collapses below zero (bias-monotonicity) and runs either
        // converge wrong (consensus-correctness) or crawl past the round
        // envelope (paper-bound).
        spec.fault = "byz(0.4:1)".parse().unwrap();
        let options = CampaignOptions {
            seeds: 6,
            ..CampaignOptions::default()
        };
        let report = run_campaign(&spec, &options).unwrap();
        let cell = &report.cells()[0];
        assert!(cell.failures > 0, "byzantine sabotage must be detected");
        let failure = cell.first_failure.as_ref().unwrap();
        assert!(
            failure.violations.iter().any(|v| {
                v.oracle() == "bias-monotonicity" || v.oracle() == "consensus-correctness"
            }),
            "expected the sabotage itself to be flagged, got {:?}",
            failure.violations
        );
    }

    #[test]
    fn churn_cells_compose_with_faults_under_the_churn_aware_count_oracle() {
        let mut spec = campaign_spec();
        spec.sweep.fault = vec![FaultSpec::default(), "drop(0.1)".parse().unwrap()];
        spec.sweep.churn = vec![
            pushsim::ChurnSpec::default(),
            "join(0.05)+leave(0.05)".parse().unwrap(),
        ];
        let options = CampaignOptions {
            seeds: 4,
            ..CampaignOptions::default()
        };
        let report = run_campaign(&spec, &options).unwrap();
        assert_eq!(report.cells().len(), 4, "fault x churn grid");
        let table = report.to_table();
        assert_eq!(
            &table.headers()[..2],
            &["fault", "churn"].map(String::from),
            "churn is a first-class campaign axis"
        );
        // The count-conservation oracle follows each cell's deterministic
        // population trajectory, so steady churn alone never trips it.
        for cell in report.cells() {
            if let Some(failure) = &cell.first_failure {
                assert!(
                    failure.violations.iter().all(|v| v.oracle() != "count-conservation"),
                    "churn-aware conservation must track the trajectory: {:?}",
                    failure.violations
                );
            }
        }
    }

    #[test]
    fn adversarial_join_churn_induces_replayable_violations() {
        let mut spec = campaign_spec();
        // Every phase boundary floods in 40% fresh agents that all hold
        // the minority opinion: the plurality flips and runs converge on
        // the wrong opinion (or crawl past the round envelope).
        spec.churn = "join(0.4:1)".parse().unwrap();
        let options = CampaignOptions {
            seeds: 4,
            ..CampaignOptions::default()
        };
        let report = run_campaign(&spec, &options).unwrap();
        let cell = &report.cells()[0];
        assert!(cell.failures > 0, "adversarial churn must be detected");
        let failure = cell.first_failure.as_ref().unwrap();
        assert!(
            failure.violations.iter().all(|v| v.oracle() != "count-conservation"),
            "the failure is behavioural, not a bookkeeping artifact: {:?}",
            failure.violations
        );

        let replayed = replay(&spec, &options, failure.seed).unwrap();
        assert!(!replayed.trajectory.is_empty(), "replay dumps the trajectory");
        let rendered: Vec<String> =
            replayed.violations.iter().map(|v| v.to_string()).collect();
        let expected: Vec<String> =
            failure.violations.iter().map(|v| v.to_string()).collect();
        assert_eq!(rendered, expected, "replay reproduces the churn-induced violations");
    }

    #[test]
    fn run_counts_past_u64_are_rejected_at_once() {
        let mut spec = campaign_spec();
        spec.sweep.fault = vec![FaultSpec::default(), "drop(0.2)".parse().unwrap()];
        let options = CampaignOptions {
            seeds: u64::MAX,
            ..CampaignOptions::default()
        };
        let err = run_campaign(&spec, &options).unwrap_err();
        assert!(matches!(err, SpecError::Invalid(_)), "{err}");
        assert!(err.to_string().contains("2 cells"), "{err}");
    }

    #[test]
    fn campaigns_reject_non_protocol_specs_and_unknown_replay_seeds() {
        let spec = ScenarioSpec::new(
            ScenarioKind::SampleMajorityGap { ell: 25, delta: 0.1 },
            400,
            2,
        );
        let err = run_campaign(&spec, &CampaignOptions::default()).unwrap_err();
        assert!(matches!(err, SpecError::Invalid(_)), "{err}");

        let spec = campaign_spec();
        let options = CampaignOptions {
            seeds: 3,
            ..CampaignOptions::default()
        };
        let err = replay(&spec, &options, 0xDEAD_BEEF).unwrap_err();
        assert!(err.to_string().contains("not part of this campaign"), "{err}");
    }
}
