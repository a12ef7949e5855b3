//! `counting-stream`: one op is one `Runner::run_streamed` of the
//! quick-scale `churn`, `burst` or `topoxl` registry spec (counting and
//! block-counting backends at n = 10⁶), reseeded from the workload seed.
//! Runs are whole cycles of the three specs, so every run times the same
//! mix.

use crate::trace::{now, secs, SimTrace, Span, TimedObserver};
use crate::{expected, gen, stats, Config, Measured};
use gossip_analysis::ci::WilsonInterval;
use gossip_analysis::observe::{StreamSink, TrajectoryRecorder, TRAJECTORY_HEADERS};
use gossip_analysis::stats::SampleStats;
use gossip_analysis::sweep::derive_seed;
use gossip_analysis::table::json_line;
use noisy_bench::runner::{
    axis_cells, expand_grid, headers, point_rows, PointResult, PointSummary,
};
use noisy_bench::spec::{InitSpec, ObserveMode, ScenarioKind};
use noisy_bench::{biased_counts, reseed, Runner, ScenarioSpec, TrialSummary};
use plurality_core::observe::{Fanout, Observer};
use plurality_core::{Outcome, ProtocolParams, StageId, TwoStageProtocol};
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::Mutex;

/// Runs one op: validate, then stream every row into memory.
fn stream(text: &str) -> Result<(Vec<u8>, noisy_bench::runner::RunReport), String> {
    let spec = ScenarioSpec::from_text(text).map_err(|e| e.to_string())?;
    let runner = Runner::new(spec).map_err(|e| e.to_string())?;
    let mut out = Vec::new();
    let report = runner.run_streamed(&mut out).map_err(|e| e.to_string())?;
    Ok((out, report))
}

/// The three op texts of a workload seed, in `COUNTING_SPECS` order.
fn op_texts(workload_seed: u64) -> Vec<String> {
    (0..gen::COUNTING_SPECS.len())
        .map(|which| gen::counting_op_text(workload_seed, which))
        .collect()
}

/// One set-up: parse, expand and build a runner for each op spec, then
/// stream the small warm-up op once. Returns the seconds it took.
fn setup(texts: &[String]) -> Result<f64, String> {
    let t0 = now();
    for text in texts {
        let spec = ScenarioSpec::from_text(text).map_err(|e| e.to_string())?;
        std::hint::black_box(expand_grid(&spec));
        Runner::new(spec).map_err(|e| e.to_string())?;
    }
    std::hint::black_box(stream(&gen::counting_warmup_text())?);
    Ok(secs(t0, now()))
}

pub fn setup_only(cfg: &Config) -> Result<f64, String> {
    setup(&op_texts(cfg.seed))
}

pub fn run(cfg: &Config, m: &mut Measured) -> Result<(), String> {
    run_against(cfg, &expected::COUNTING_STREAMS, m)
}

/// Streams the default workload seed's three ops and compares their
/// digests with `pinned`.
fn pin_check(pinned: &[u64]) -> Option<String> {
    for (text, want) in op_texts(gen::DEFAULT_SEED).iter().zip(pinned) {
        match stream(text) {
            Ok((bytes, _)) => {
                let digest = stats::fnv1a(&bytes);
                if digest != *want {
                    return Some(format!(
                        "default-seed stream digest {digest:#018x}, want {want:#018x}"
                    ));
                }
            }
            Err(e) => return Some(e),
        }
    }
    None
}

/// Runs the workload, then checks the default seed's streams against
/// `pinned`.
fn run_against(cfg: &Config, pinned: &[u64], m: &mut Measured) -> Result<(), String> {
    let texts = op_texts(cfg.seed);
    m.setup_s.push(setup(&texts)?);

    // Digest of each op's first stream: every repeat must match it.
    let mut seen: BTreeMap<usize, u64> = BTreeMap::new();
    let mut traced = SimTrace::default();
    let mut stream_bytes = 0usize;
    let start = now();
    let mut i = 0u64;
    while secs(start, now()) < cfg.seconds || i == 0 {
        // Whole cycles only: every run has the same number of each spec.
        for _ in 0..gen::COUNTING_SPECS.len() {
            let slot = (i % texts.len() as u64) as usize;
            let t0 = now();
            let result = stream(&texts[slot]);
            let latency = secs(t0, now());
            m.latencies_ms.push(latency * 1e3);
            let mut why = match &result {
                Ok((bytes, report)) => check(slot, bytes, report, &mut seen),
                Err(e) => Some(e.clone()),
            };
            if cfg.trace {
                if let Ok((bytes, _)) = &result {
                    stream_bytes += bytes.len();
                    why = why
                        .or_else(|| traced_op(&mut traced, cfg, i, &texts[slot], bytes, latency));
                }
            }
            m.tally(why);
            i += 1;
        }
    }
    m.wall_s = secs(start, now());
    m.check_pin(pin_check(pinned));
    if cfg.trace {
        traced.finish(cfg, &mut m.layers);
        let observe = traced.per_op(&["analysis.observe"]);
        m.layers.insert("analysis.observe_us", observe * 1e6);
        let bytes = stream_bytes as f64 / m.latencies_ms.len() as f64;
        m.layers.insert("runner.stream_bytes", bytes);
    }
    Ok(())
}

/// Output checks of one op.
fn check(
    slot: usize,
    bytes: &[u8],
    report: &noisy_bench::runner::RunReport,
    seen: &mut BTreeMap<usize, u64>,
) -> Option<String> {
    let digest = stats::fnv1a(bytes);
    let table = report.to_table().to_json_lines();
    let first = *seen.entry(slot).or_insert(digest);
    if table.as_bytes() != bytes {
        Some(format!(
            "op slot {slot}: streamed rows differ from the report's table"
        ))
    } else if first != digest {
        Some(format!(
            "op slot {slot}: stream digest {digest:#018x} differs from its first run {first:#018x}"
        ))
    } else {
        None
    }
}

/// Runs op `i` again through the session with spans, and checks the rows
/// it renders are the untraced op's bytes.
fn traced_op(
    t: &mut SimTrace,
    cfg: &Config,
    i: u64,
    text: &str,
    untraced: &[u8],
    untraced_s: f64,
) -> Option<String> {
    let spec = match t.spec_calls(text) {
        Ok(spec) => spec,
        Err(e) => return Some(format!("traced op: {e}")),
    };
    let start = now();
    let traced = traced_stream(cfg, i, &spec);
    let end = now();
    let TracedStream {
        bytes,
        runs,
        spans,
        threads,
    } = match traced {
        Ok(traced) => traced,
        Err(e) => return Some(format!("traced op: {e}")),
    };
    t.op(i, start, end, untraced_s, threads);
    t.extend(spans);
    let mut why = (bytes != untraced)
        .then(|| format!("traced op {i}: rendered rows differ from the streamed bytes"));
    for run in runs {
        if let Some(e) = t.run(run.rounds, run.phases, &run.outcome, run.spans) {
            why.get_or_insert(format!("traced op {i}: {e}"));
        }
    }
    if let Some(point) = expand_grid(&spec).first() {
        if let Some(e) = t.probe(&spec, point, derive_seed(spec.seed, 0, u64::MAX)) {
            why.get_or_insert(e);
        }
    }
    why
}

/// One traced session call.
struct TracedRun {
    outcome: Outcome,
    rounds: u64,
    phases: u64,
    spans: Vec<Span>,
}

/// A traced re-execution of one op.
struct TracedStream {
    /// The rows it rendered.
    bytes: Vec<u8>,
    runs: Vec<TracedRun>,
    /// Spans outside the session calls.
    spans: Vec<Span>,
    /// Threads the trials ran on.
    threads: usize,
}

/// Re-executes a plurality spec the way the runner does — the same
/// parameters, derived trial seeds and observers — with a
/// [`TimedObserver`] around each session call, and renders its rows.
fn traced_stream(cfg: &Config, op: u64, spec: &ScenarioSpec) -> Result<TracedStream, String> {
    let ScenarioKind::PluralityConsensus { init } = &spec.kind else {
        return Err("counting-stream runs plurality consensus".into());
    };
    let all_headers = headers(spec);
    let stop = spec.stop.to_condition();
    let mut out = Vec::new();
    let mut runs = Vec::new();
    let mut spans = Vec::new();
    let mut threads = 1;
    for point in expand_grid(spec) {
        let t0 = now();
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
            .build()
            .map_err(|e| e.to_string())?;
        let noise = if spec.sweep.eps.is_empty() {
            spec.noise.clone()
        } else {
            spec.noise.with_epsilon(point.eps)
        }
        .build(point.k)
        .map_err(|e| e.to_string())?;
        let counts = match init {
            InitSpec::Biased { bias } => {
                biased_counts(point.n, point.k, point.bias.unwrap_or(*bias))
            }
            InitSpec::Counts(counts) => counts.clone(),
        };
        spans.push(Span {
            op,
            name: "runner.prepare",
            parent: "op",
            start: t0,
            end: now(),
        });
        match spec.observe {
            ObserveMode::Trajectory => {
                // The runner's trajectory path: one sequential trial at a
                // time, a recorder and a live stream sink per trial.
                let population = all_headers.last().map(String::as_str) == Some("population");
                let trial_col = usize::from(spec.trials > 1);
                let axes = all_headers.len()
                    - TRAJECTORY_HEADERS.len()
                    - usize::from(population)
                    - trial_col;
                for trial in 0..spec.trials {
                    let mut prefix = axis_cells(spec, &point);
                    if trial_col == 1 {
                        prefix.push(trial.to_string());
                    }
                    let mut recorder = TrajectoryRecorder::new();
                    let sink = StreamSink::with_prefix(
                        &mut out,
                        &all_headers[..axes + trial_col],
                        &prefix,
                    );
                    let mut sink = if population {
                        sink.with_population()
                    } else {
                        sink
                    };
                    let mut fanout =
                        Fanout::new(vec![&mut recorder as &mut dyn Observer, &mut sink]);
                    let run = traced_trial(
                        op,
                        &params,
                        &noise,
                        spec,
                        &stop,
                        &counts,
                        trial,
                        Some((&mut fanout, "analysis.observe")),
                    )?;
                    runs.push(run);
                }
            }
            ObserveMode::Summary => {
                // The runner's summary path: trials across all threads,
                // merged in trial order, then one rendered row.
                threads = cfg.threads.min(spec.trials as usize).max(1);
                let next = std::sync::atomic::AtomicU64::new(0);
                let done: Mutex<Vec<(u64, Result<TracedRun, String>)>> = Mutex::new(Vec::new());
                std::thread::scope(|scope| {
                    for _ in 0..threads {
                        scope.spawn(|| loop {
                            let trial = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                            if trial >= spec.trials {
                                break;
                            }
                            let run = traced_trial(
                                op, &params, &noise, spec, &stop, &counts, trial, None,
                            );
                            done.lock()
                                .expect("a traced trial panicked")
                                .push((trial, run));
                        });
                    }
                });
                let mut done = done.into_inner().expect("all traced trials joined");
                done.sort_by_key(|(trial, _)| *trial);
                let trial_runs: Vec<TracedRun> =
                    done.into_iter().map(|(_, r)| r).collect::<Result<_, _>>()?;
                let t1 = now();
                let result = PointResult {
                    point,
                    summary: PointSummary::Protocol(summarize(&trial_runs, spec.trials)),
                };
                for row in point_rows(spec, &result) {
                    let _ = writeln!(out, "{}", json_line(&all_headers, &row));
                }
                spans.push(Span {
                    op,
                    name: "runner.emit",
                    parent: "op",
                    start: t1,
                    end: now(),
                });
                runs.extend(trial_runs);
            }
            ObserveMode::Phases => return Err("counting-stream has no phases-mode spec".into()),
        }
    }
    Ok(TracedStream {
        bytes: out,
        runs,
        spans,
        threads,
    })
}

#[allow(clippy::too_many_arguments)] // one argument per piece of run state
fn traced_trial(
    op: u64,
    params: &ProtocolParams,
    noise: &noisy_channel::NoiseMatrix,
    spec: &ScenarioSpec,
    stop: &plurality_core::observe::StopCondition,
    counts: &[usize],
    trial: u64,
    inner: Option<(&mut dyn Observer, &'static str)>,
) -> Result<TracedRun, String> {
    let mut spans = Vec::new();
    let t0 = now();
    let seeded = reseed(params, params.seed().wrapping_add(trial));
    let protocol = TwoStageProtocol::new(seeded, noise.clone()).map_err(|e| e.to_string())?;
    let call = now();
    spans.push(Span {
        op,
        name: "runner.prepare",
        parent: "op",
        start: t0,
        end: call,
    });
    let mut timed = TimedObserver::new(op, call, inner, &mut spans);
    let outcome = protocol
        .session()
        .stop_when(stop.clone())
        .run_plurality_consensus_on(spec.backend, counts, &mut timed)
        .map_err(|e| e.to_string())?;
    let (rounds, phases) = timed.finish(call, now());
    Ok(TracedRun {
        outcome,
        rounds,
        phases,
        spans,
    })
}

/// The runner's per-point trial aggregation, over outcomes in trial order.
fn summarize(runs: &[TracedRun], trials: u64) -> TrialSummary {
    let (mut successes, mut consensus, mut correct) = (0, 0, 0);
    let mut share = SampleStats::new();
    let mut rounds = SampleStats::new();
    let mut messages = SampleStats::new();
    let mut memory_bits = SampleStats::new();
    let mut stage1_bias = SampleStats::new();
    for run in runs {
        let o = &run.outcome;
        successes += u64::from(o.succeeded());
        consensus += u64::from(o.consensus_reached());
        correct += u64::from(o.winning_opinion() == Some(o.correct_opinion()));
        let dist = o.final_distribution();
        share.push(dist.counts()[o.correct_opinion().index()] as f64 / dist.num_nodes() as f64);
        rounds.push(o.rounds() as f64);
        messages.push(o.messages() as f64);
        memory_bits.push(o.memory().bits_per_node() as f64);
        if let Some(bias) = o
            .stage_records(StageId::One)
            .last()
            .and_then(|r| r.bias_after())
        {
            stage1_bias.push(bias);
        }
    }
    TrialSummary {
        success: WilsonInterval::from_trials(successes, trials),
        consensus: WilsonInterval::from_trials(consensus, trials),
        correct: WilsonInterval::from_trials(correct, trials),
        share,
        rounds,
        messages,
        memory_bits,
        stage1_bias,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Workload;

    #[test]
    fn a_flipped_pinned_digest_fails_a_run_of_any_seed() {
        // One whole cycle (the churn, burst and topoxl ops) of a seed
        // other than the default: the pins are checked all the same.
        let cfg = Config {
            workload: Workload::CountingStream,
            seed: gen::DEFAULT_SEED + 300,
            seconds: 0.0,
            trace: false,
            threads: 2,
            setup_only: false,
        };
        let mut clean = Measured::default();
        run_against(&cfg, &expected::COUNTING_STREAMS, &mut clean).expect("runs");
        assert_eq!(
            (clean.attempted, clean.failed),
            (3, 0),
            "{:?}",
            clean.failures
        );
        assert_eq!(clean.setup_s.len(), 1);

        let mut flipped = expected::COUNTING_STREAMS;
        flipped[1] ^= 1;
        let mut m = Measured::default();
        run_against(&cfg, &flipped, &mut m).expect("runs");
        assert!(
            m.failed as f64 / m.attempted as f64 > 0.0,
            "failed_frac must become > 0"
        );
        assert_eq!((m.attempted, m.failed), (3, 3), "{:?}", m.failures);
        assert!(m.failures[0].contains("output pin"), "{:?}", m.failures);
    }
}
