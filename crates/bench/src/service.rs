//! The production [`JobHandler`] wiring `noisy-serve` to the [`Runner`].
//!
//! [`SpecService`] turns an HTTP submission body (canonical spec text,
//! see [`ScenarioSpec::from_text`]) into a planned run. Whole runs are
//! content-addressed by [`ScenarioSpec::canonical_digest`]; protocol
//! scenarios observed as summaries additionally decompose into
//! **sweep cells** — one single-point spec per grid point — each with
//! its own salted digest, so a sweep sharing cells with anything the
//! server has already computed reuses those rows instead of
//! recomputing them.
//!
//! Cell reuse is restricted to `kind.is_protocol()` +
//! [`ObserveMode::Summary`] because only there is a point's result
//! independent of its grid position: protocol trials are seeded from
//! `spec.seed` alone (trial `t` runs at seed `spec.seed + t`), whereas the
//! dynamics/gap/phase paths derive per-`(point.index, trial)` seeds,
//! making their rows position-dependent and unsafe to share between
//! sweeps. For eligible specs the decomposed output is byte-identical
//! to [`Runner::run_streamed`] — `tests` below and the end-to-end
//! suite assert this.

use crate::runner::{self, GridPoint, Runner};
use crate::spec::{ObserveMode, ScenarioSpec, SweepAxes, AXES};
use gossip_analysis::table::json_line;
use noisy_serve::handler::{JobHandler, Plan};
use std::io::Write;

/// XORed into cell digests so a single-point spec's cell key can never
/// collide with its own whole-run digest (the server stores response
/// bodies under whole-run keys and row sets under cell keys).
pub const CELL_KEY_SALT: u64 = 0x9e37_79b9_7f4a_7c15;

/// Whether `spec`'s grid points may be cached and reused individually
/// (position-independent results; see the module docs).
pub fn cell_reuse_eligible(spec: &ScenarioSpec) -> bool {
    spec.kind.is_protocol() && spec.observe == ObserveMode::Summary
}

/// The standalone single-point spec equivalent to running `spec` at
/// `point`: sweeps cleared, base values pinned to the point's, the
/// noise family re-parameterized exactly as the runner's ε-sweep path
/// does, and the effective metrics materialized so the cell's canonical
/// text (and hence its digest) is independent of whether the parent
/// spelled its metrics out.
pub fn cell_spec(spec: &ScenarioSpec, point: &GridPoint) -> ScenarioSpec {
    let mut cell = spec.clone();
    for axis in &AXES {
        (axis.pin)(&mut cell, point);
    }
    cell.sweep = SweepAxes::default();
    cell.metrics = spec.effective_metrics();
    cell
}

struct PlannedCell {
    point: GridPoint,
    spec: ScenarioSpec,
    digest: u64,
}

/// A parsed, validated submission: the spec, plus its sweep-cell
/// decomposition once [`JobHandler::cells`] expanded it (empty until
/// then, and for specs that do not decompose).
pub struct PlannedRun {
    spec: ScenarioSpec,
    headers: Vec<String>,
    cells: Vec<PlannedCell>,
}

impl PlannedRun {
    /// The submitted spec.
    pub fn spec(&self) -> &ScenarioSpec {
        &self.spec
    }
}

/// The scenario service's job handler: parses spec text, runs it
/// through the [`Runner`], and exposes the sweep-cell decomposition to
/// the server's content-addressed cache.
#[derive(Debug, Default, Clone, Copy)]
pub struct SpecService;

impl JobHandler for SpecService {
    type Job = PlannedRun;

    /// Parses, validates and digests: all a cache hit needs. The grid is
    /// expanded only by [`cells`](JobHandler::cells), when the job runs.
    fn plan(&self, body: &str) -> Result<Plan<PlannedRun>, String> {
        let spec = ScenarioSpec::from_text(body).map_err(|e| e.to_string())?;
        let digest = spec.canonical_digest();
        let job = PlannedRun { spec, headers: Vec::new(), cells: Vec::new() };
        Ok(Plan { job, digest })
    }

    fn cells(&self, job: &mut PlannedRun) -> Option<Vec<u64>> {
        if !cell_reuse_eligible(&job.spec) {
            return None;
        }
        job.headers = runner::headers(&job.spec);
        job.cells = runner::expand_grid(&job.spec)
            .iter()
            .map(|point| {
                let spec = cell_spec(&job.spec, point);
                let digest = spec.canonical_digest() ^ CELL_KEY_SALT;
                PlannedCell { point: *point, spec, digest }
            })
            .collect();
        (!job.cells.is_empty()).then(|| job.cells.iter().map(|c| c.digest).collect())
    }

    fn run(&self, job: &PlannedRun, sink: &mut dyn Write) -> Result<(), String> {
        let runner = Runner::new(job.spec.clone()).map_err(|e| e.to_string())?;
        runner.run_streamed(sink).map_err(|e| e.to_string())?;
        Ok(())
    }

    fn run_cell(&self, job: &PlannedRun, index: usize) -> Result<Vec<Vec<String>>, String> {
        let cell = job
            .cells
            .get(index)
            .ok_or_else(|| format!("plan has no cell {index}"))?;
        let report = Runner::new(cell.spec.clone())
            .and_then(|r| r.run())
            .map_err(|e| e.to_string())?;
        let point = report
            .points()
            .first()
            .ok_or_else(|| "cell run produced no points".to_string())?;
        // The cell spec sweeps nothing, so these rows carry no axis
        // prefix: they are pure data cells, valid in any sweep whose
        // grid contains this cell.
        Ok(runner::point_rows(&cell.spec, point))
    }

    fn render_cell(&self, job: &PlannedRun, index: usize, rows: &[Vec<String>]) -> String {
        let mut out = String::new();
        // The server renders only the cells `cells` listed.
        let Some(cell) = job.cells.get(index) else {
            return out;
        };
        let prefix = runner::axis_cells(&job.spec, &cell.point);
        for row in rows {
            let mut cells = prefix.clone();
            cells.extend(row.iter().cloned());
            out.push_str(&json_line(&job.headers, &cells));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pushsim::{ChurnSpec, NoiseSchedule};

    fn sweep_spec() -> ScenarioSpec {
        ScenarioSpec::from_text(
            "scenario = rumor\nsource = 0\nn = 300\nk = 2\nepsilon = 0.3\n\
             noise = uniform(0.3)\ntrials = 2\nseed = 11\nsweep.eps = 0.25, 0.3, 0.35\n",
        )
        .expect("valid spec")
    }

    /// Plans `text` and expands its cells, as a worker does before a run.
    fn expand(text: &str) -> (Plan<PlannedRun>, Option<Vec<u64>>) {
        let mut plan = SpecService.plan(text).expect("plan");
        let keys = SpecService.cells(&mut plan.job);
        (plan, keys)
    }

    fn run_decomposed(plan: &Plan<PlannedRun>) -> String {
        let svc = SpecService;
        let mut out = String::new();
        for index in 0..plan.job.cells.len() {
            let rows = svc.run_cell(&plan.job, index).expect("cell runs");
            out.push_str(&svc.render_cell(&plan.job, index, &rows));
        }
        out
    }

    #[test]
    fn decomposed_cells_reproduce_streamed_bytes() {
        let svc = SpecService;
        let (plan, keys) = expand(&sweep_spec().to_text());
        assert!(keys.is_some(), "protocol summary sweeps decompose");
        let mut streamed = Vec::new();
        svc.run(&plan.job, &mut streamed).expect("whole run");
        assert_eq!(run_decomposed(&plan), String::from_utf8(streamed).unwrap());
    }

    #[test]
    fn planning_leaves_the_grid_unexpanded_and_cell_keys_stay_pinned() {
        let plan = SpecService.plan(&sweep_spec().to_text()).expect("plan");
        assert!(plan.job.cells.is_empty(), "a cache hit never expands the grid");
        assert_eq!(plan.digest, 0x060d_9063_6663_0bfb);
        // The keys cells were cached under while `plan` still expanded
        // the grid: cached cells stay valid across the move to `cells`.
        let (_, keys) = expand(&sweep_spec().to_text());
        assert_eq!(
            keys,
            Some(vec![0x702a_c475_4076_dd91, 0xdd42_ce5e_5dda_0049, 0x0818_c071_b259_8b67])
        );
    }

    #[test]
    fn temporal_sweep_cells_reproduce_streamed_bytes() {
        let svc = SpecService;
        let mut spec = sweep_spec();
        spec.sweep = SweepAxes::default();
        spec.sweep.churn = vec![ChurnSpec::default(), "leave(0.1)".parse().unwrap()];
        spec.sweep.schedule = vec![NoiseSchedule::Const, "step(0.4@1)".parse().unwrap()];
        let (plan, _) = expand(&spec.to_text());
        let mut streamed = Vec::new();
        svc.run(&plan.job, &mut streamed).expect("whole run");
        assert_eq!(run_decomposed(&plan), String::from_utf8(streamed).unwrap());
    }

    #[test]
    fn single_point_submission_shares_cell_keys_with_sweeps() {
        let svc = SpecService;
        let (sweep, sweep_keys) = expand(&sweep_spec().to_text());
        let mut single = sweep_spec();
        single.sweep = SweepAxes::default();
        single.epsilon = 0.35;
        single.noise = single.noise.with_epsilon(0.35);
        let (single_plan, single_keys) = expand(&single.to_text());
        let sweep_keys = sweep_keys.expect("sweep cells");
        let single_keys = single_keys.expect("single cell");
        assert_eq!(single_keys.len(), 1);
        assert_eq!(sweep_keys[2], single_keys[0]);
        // And the shared rows really are interchangeable.
        let sweep_rows = svc.run_cell(&sweep.job, 2).expect("sweep cell");
        let single_rows = svc.run_cell(&single_plan.job, 0).expect("single cell");
        assert_eq!(sweep_rows, single_rows);
    }

    #[test]
    fn cell_keys_never_equal_whole_run_digests() {
        let mut spec = sweep_spec();
        spec.sweep = SweepAxes::default();
        let (plan, keys) = expand(&spec.to_text());
        let keys = keys.expect("single-point protocol specs still decompose");
        assert_ne!(keys[0], plan.digest);
    }

    #[test]
    fn non_summary_and_non_protocol_specs_do_not_decompose() {
        let mut traj = sweep_spec();
        traj.observe = ObserveMode::Trajectory;
        traj.sweep = SweepAxes::default();
        assert!(expand(&traj.to_text()).1.is_none());
        let gap = ScenarioSpec::from_text(
            "scenario = gap\nn = 100\nk = 3\nell = 9\ndelta = 0.1\ntrials = 50\nseed = 3\n",
        )
        .expect("valid gap spec");
        assert!(expand(&gap.to_text()).1.is_none());
    }

    #[test]
    fn gap_rows_without_the_estimate_are_never_served_to_a_spec_showing_it() {
        // A gap cell draws its Monte-Carlo estimate only when `gap` or
        // `gap_holds` is shown. Its rows are cached whole, never per cell,
        // under a digest that carries the shown metrics.
        let svc = SpecService;
        let plan = |metrics: &str| {
            let base = "scenario = gap\nn = 100\nk = 2\nell = 9\ndelta = 0.1\ntrials = 50\n";
            svc.plan(&format!("{base}{metrics}")).expect("plan")
        };
        let run = |plan: &Plan<PlannedRun>| {
            let mut out = Vec::new();
            svc.run(&plan.job, &mut out).expect("run");
            String::from_utf8(out).unwrap()
        };
        let mut exact_only = plan("metrics = gap_exact\n");
        let shows_gap = plan("metrics = gap, gap_exact\n");
        let shows_holds = plan("metrics = gap_holds, gap_exact\n");
        let defaults = plan("");
        assert!(svc.cells(&mut exact_only.job).is_none());
        for other in [&shows_gap, &shows_holds, &defaults] {
            assert_ne!(other.digest, exact_only.digest);
        }
        assert!(!run(&exact_only).contains("measured gap"));
        assert!(run(&shows_gap).contains("\"measured gap\":0."));
    }

    #[test]
    fn plan_rejects_malformed_text_with_message() {
        let err = match SpecService.plan("scenario = nope\n") {
            Ok(_) => panic!("planning malformed text must fail"),
            Err(err) => err,
        };
        assert!(err.contains("line"), "error should carry context: {err}");
    }
}
