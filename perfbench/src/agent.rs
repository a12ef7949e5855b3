//! `agent-campaign`: one op is one `campaign::run_campaign` call — rumor
//! spreading at n = 2000, k = 2, 64 seeds — on the agent backend, where
//! every slow registry entry spends its time.

use crate::trace::{now, secs, SimTrace, Span, TimedObserver};
use crate::{expected, gen, stats, Config, Measured};
use gossip_analysis::oracle::OracleSuite;
use gossip_analysis::sweep::derive_seed;
use noisy_bench::campaign::{self, CampaignOptions};
use noisy_bench::runner::{expand_grid, GridPoint};
use noisy_bench::spec::ScenarioKind;
use noisy_bench::ScenarioSpec;
use plurality_core::observe::StopCondition;
use plurality_core::{Outcome, ProtocolParams, TwoStageProtocol};
use pushsim::Opinion;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

fn options(seeds: u64) -> CampaignOptions {
    CampaignOptions {
        seeds,
        ..CampaignOptions::default()
    }
}

fn op_spec(workload_seed: u64, i: u64) -> Result<ScenarioSpec, String> {
    ScenarioSpec::from_text(&gen::campaign_spec_text(gen::campaign_op_seed(
        workload_seed,
        i,
    )))
    .map_err(|e| e.to_string())
}

/// Checks one campaign report: every run passed its oracles and the
/// verdict table is the pinned one.
fn check(report: &campaign::CampaignReport, want_table: u64) -> Option<String> {
    let table = stats::fnv1a(report.to_table().to_json_lines().as_bytes());
    if !report.passed() {
        Some(format!(
            "campaign failed: {}",
            report.failure_lines("op").join("; ")
        ))
    } else if table != want_table {
        Some(format!(
            "campaign table digest {table:#018x}, want {want_table:#018x}"
        ))
    } else {
        None
    }
}

/// Seeds of the default workload seed's first op that the output pin
/// replays.
const PIN_SEEDS: u64 = 2;

/// Replays the first [`PIN_SEEDS`] runs of the default workload seed's
/// first op with `campaign::replay`, and compares a digest of their
/// trajectories with `want`. Each trajectory depends on its run's seed, so
/// a change to what a run computes fails here whatever `--seed` is.
fn pin_check(want: u64) -> Option<String> {
    let spec = match op_spec(gen::DEFAULT_SEED, 0) {
        Ok(spec) => spec,
        Err(e) => return Some(e),
    };
    let opts = options(gen::CAMPAIGN_SEEDS);
    let cell = expand_grid(&spec).first().map_or(0, |p| p.index);
    let mut rows = String::new();
    for seed_index in 0..PIN_SEEDS {
        let seed = derive_seed(spec.seed, cell, seed_index);
        match campaign::replay(&spec, &opts, seed) {
            Ok(r) if r.violations.is_empty() => {
                rows.push_str(&r.trajectory.to_table().to_json_lines());
            }
            Ok(_) => return Some(format!("the replay of seed {seed} violated an oracle")),
            Err(e) => return Some(format!("replay of seed {seed}: {e}")),
        }
    }
    let digest = stats::fnv1a(rows.as_bytes());
    (digest != want).then(|| format!("campaign replay digest {digest:#018x}, want {want:#018x}"))
}

/// One set-up: parse, validate and expand the warm-up spec, and run its
/// small campaign once. Returns the seconds it took.
fn setup() -> Result<f64, String> {
    let t0 = now();
    let spec = ScenarioSpec::from_text(&gen::campaign_spec_text(gen::WARMUP_SEED))
        .map_err(|e| e.to_string())?;
    spec.validate().map_err(|e| e.to_string())?;
    std::hint::black_box(expand_grid(&spec));
    let warm = campaign::run_campaign(&spec, &options(gen::CAMPAIGN_WARMUP_SEEDS))
        .map_err(|e| e.to_string())?;
    let took = secs(t0, now());
    if !warm.passed() {
        return Err("the set-up campaign violated an oracle".into());
    }
    Ok(took)
}

pub fn setup_only(_cfg: &Config) -> Result<f64, String> {
    setup()
}

pub fn run(cfg: &Config, m: &mut Measured) -> Result<(), String> {
    m.setup_s.push(setup()?);
    let mut traced = SimTrace::default();
    let start = now();
    let mut i = 0u64;
    while secs(start, now()) < cfg.seconds || i == 0 {
        let spec = op_spec(cfg.seed, i)?;
        let t0 = now();
        let report = campaign::run_campaign(&spec, &options(gen::CAMPAIGN_SEEDS));
        let latency = secs(t0, now());
        let mut why = match &report {
            Ok(report) => check(report, expected::CAMPAIGN_TABLE),
            Err(e) => Some(e.to_string()),
        };
        m.latencies_ms.push(latency * 1e3);
        if cfg.trace {
            why = why.or_else(|| traced_op(&mut traced, cfg, i, &spec, latency));
        }
        m.tally(why);
        i += 1;
    }
    m.wall_s = secs(start, now());
    m.check_pin(pin_check(expected::CAMPAIGN_REPLAY));
    if cfg.trace {
        traced.finish(cfg, &mut m.layers);
        let oracle = traced.per_op(&["analysis.oracle", "analysis.judge"]);
        m.layers.insert("analysis.oracle_us", oracle * 1e6);
    }
    Ok(())
}

/// Runs op `i` again with spans, checks it reproduces the untraced op,
/// and probes one stage-2 phase per cell.
fn traced_op(
    t: &mut SimTrace,
    cfg: &Config,
    i: u64,
    spec: &ScenarioSpec,
    untraced_s: f64,
) -> Option<String> {
    match t.spec_calls(&spec.to_text()) {
        Ok(parsed) if parsed == *spec => {}
        Ok(_) => return Some("traced op: the spec text does not round-trip".into()),
        Err(e) => return Some(format!("traced op: {e}")),
    }
    let opts = options(gen::CAMPAIGN_SEEDS);
    let start = now();
    let runs = match traced_campaign(cfg, i, spec, &opts) {
        Ok(runs) => runs,
        Err(e) => return Some(format!("traced op: {e}")),
    };
    t.op(i, start, now(), untraced_s, cfg.threads);
    let mut why = None;
    for run in runs {
        if !run.violations.is_empty() {
            why.get_or_insert(format!(
                "traced run {} violated {}",
                run.seed,
                run.violations.join(", ")
            ));
        }
        // The first seed of each cell, replayed by the campaign engine
        // itself, must take exactly the rounds the traced run took.
        if run.seed_index == 0 {
            match campaign::replay(spec, &opts, run.seed) {
                Ok(replayed) => {
                    let rounds = replayed
                        .trajectory
                        .snapshots()
                        .last()
                        .map_or(0, |s| s.total_rounds());
                    if rounds != run.outcome.rounds() || !replayed.violations.is_empty() {
                        why.get_or_insert(format!(
                            "traced run {} took {} rounds, the campaign's replay {rounds}",
                            run.seed,
                            run.outcome.rounds()
                        ));
                    }
                }
                Err(e) => {
                    why.get_or_insert(format!("replay of {}: {e}", run.seed));
                }
            }
        }
        if let Some(e) = t.run(run.rounds, run.phases, &run.outcome, run.spans) {
            why.get_or_insert(format!("traced run {}: {e}", run.seed));
        }
    }
    for point in expand_grid(spec) {
        let seed = derive_seed(spec.seed, point.index, u64::MAX);
        if let Some(e) = t.probe(spec, &point, seed) {
            why.get_or_insert(e);
        }
    }
    why
}

/// One traced campaign run.
struct TracedRun {
    seed_index: u64,
    seed: u64,
    outcome: Outcome,
    violations: Vec<String>,
    rounds: u64,
    phases: u64,
    spans: Vec<Span>,
}

/// The campaign of op `i`, run cell × seed like `run_campaign` does
/// (same derived seeds, stop condition and oracle suite, across the same
/// number of threads), with a [`TimedObserver`] around the oracle suite.
fn traced_campaign(
    cfg: &Config,
    i: u64,
    spec: &ScenarioSpec,
    opts: &CampaignOptions,
) -> Result<Vec<TracedRun>, String> {
    let ScenarioKind::RumorSpreading { source } = spec.kind else {
        return Err("agent-campaign runs rumor spreading".into());
    };
    let cells: Vec<(GridPoint, noisy_channel::NoiseMatrix)> = expand_grid(spec)
        .into_iter()
        .map(|p| spec.noise.build(p.k).map(|noise| (p, noise)))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    let mut conditions = vec![StopCondition::ConsensusReached];
    let extra = spec.stop.to_condition();
    if extra != StopCondition::ScheduleExhausted {
        conditions.push(extra);
    }
    let stop = StopCondition::Any(conditions);
    let total = cells.len() as u64 * opts.seeds;
    let next = AtomicU64::new(0);
    let done: Mutex<Vec<(u64, Result<TracedRun, String>)>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..(cfg.threads as u64).min(total) {
            scope.spawn(|| loop {
                let flat = next.fetch_add(1, Ordering::Relaxed);
                if flat >= total {
                    break;
                }
                let (point, noise) = &cells[(flat / opts.seeds) as usize];
                let run = traced_run(
                    i,
                    spec,
                    opts,
                    &stop,
                    point,
                    noise,
                    source,
                    flat % opts.seeds,
                );
                done.lock()
                    .expect("a traced worker panicked")
                    .push((flat, run));
            });
        }
    });
    let mut done = done.into_inner().expect("all traced workers joined");
    done.sort_by_key(|(flat, _)| *flat);
    done.into_iter().map(|(_, run)| run).collect()
}

#[allow(clippy::too_many_arguments)] // one argument per piece of campaign state
fn traced_run(
    op: u64,
    spec: &ScenarioSpec,
    opts: &CampaignOptions,
    stop: &StopCondition,
    point: &GridPoint,
    noise: &noisy_channel::NoiseMatrix,
    source: usize,
    seed_index: u64,
) -> Result<TracedRun, String> {
    let mut spans = Vec::new();
    let seed = derive_seed(spec.seed, point.index, seed_index);
    let t0 = now();
    let params = ProtocolParams::builder(point.n, point.k)
        .epsilon(point.eps)
        .seed(seed)
        .delivery(spec.delivery)
        .topology(point.topology)
        .fault(point.fault)
        .churn(point.churn)
        .noise_schedule(point.schedule)
        .clock(point.clock)
        .constants(spec.constants)
        .build()
        .map_err(|e| e.to_string())?;
    let protocol = TwoStageProtocol::new(params, noise.clone()).map_err(|e| e.to_string())?;
    let mut suite = OracleSuite::standard_with_churn(
        point.n,
        point.eps,
        opts.tolerance,
        opts.slack,
        point.churn,
    );
    let call = now();
    spans.push(Span {
        op,
        name: "campaign.prepare",
        parent: "op",
        start: t0,
        end: call,
    });
    let (outcome, rounds, phases) = {
        let mut timed =
            TimedObserver::new(op, call, Some((&mut suite, "analysis.oracle")), &mut spans);
        let outcome = protocol
            .session()
            .stop_when(stop.clone())
            .run_rumor_spreading_on(spec.backend, Opinion::new(source), &mut timed)
            .map_err(|e| e.to_string())?;
        let (rounds, phases) = timed.finish(call, now());
        (outcome, rounds, phases)
    };
    let t1 = now();
    let violations: Vec<String> = suite
        .judge(&outcome)
        .iter()
        .map(|v| v.to_string())
        .collect();
    spans.push(Span {
        op,
        name: "analysis.judge",
        parent: "op",
        start: t1,
        end: now(),
    });
    Ok(TracedRun {
        seed_index,
        seed,
        outcome,
        violations,
        rounds,
        phases,
        spans,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_campaign_pin_holds_and_a_flipped_pin_fails() {
        assert_eq!(pin_check(expected::CAMPAIGN_REPLAY), None);
        let why = pin_check(expected::CAMPAIGN_REPLAY ^ 1).expect("a flipped pin fails");
        assert!(why.contains("campaign replay digest"), "{why}");
    }
}
