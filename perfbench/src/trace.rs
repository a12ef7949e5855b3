//! The traced mode's instruments: the clock, in-memory spans, a timing
//! [`Observer`] forwarder, and the pushsim phase probe.
//!
//! Every span is recorded here, in the benchmark, around a call into one
//! of the workspace's layers; nothing inside the program is instrumented.

use crate::Config;
use noisy_bench::runner::GridPoint;
use noisy_bench::service::SpecService;
use noisy_bench::{biased_counts, ScenarioSpec};
use noisy_serve::JobHandler;
use plurality_core::observe::{Observer, PhaseSnapshot};
use plurality_core::{Outcome, ProtocolParams, StageId};
use pushsim::{BlockCountingNetwork, CountingNetwork, Network, PushBackend, SimConfig, SimError};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Reads the wall clock: the benchmark's only clock read.
pub fn now() -> Instant {
    // xlint: allow(determinism-source) — benchmark timing; readings become latencies and spans, never simulation input
    Instant::now()
}

/// Seconds from `start` to `end`.
pub fn secs(start: Instant, end: Instant) -> f64 {
    end.saturating_duration_since(start).as_secs_f64()
}

/// One timed interval: which layer call, under which parent span, in
/// which op.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub op: u64,
    pub name: &'static str,
    pub parent: &'static str,
    pub start: Instant,
    pub end: Instant,
}

impl Span {
    fn secs(&self) -> f64 {
        secs(self.start, self.end)
    }
}

/// Container spans: they hold leaf spans and do not count towards
/// coverage themselves.
const CONTAINERS: [&str; 2] = ["op", "core.run"];

/// Sum of the durations of spans named `name`.
fn total(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::secs)
        .sum()
}

/// Sum of the durations of every leaf span.
fn leaf_total(spans: &[Span]) -> f64 {
    spans
        .iter()
        .filter(|s| !CONTAINERS.contains(&s.name))
        .map(Span::secs)
        .sum()
}

/// Writes spans as JSON lines, times in microseconds since `epoch`.
pub fn write_spans(path: &std::path::Path, epoch: Instant, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"op\":{},\"name\":\"{}\",\"parent\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3}}}",
            s.op,
            s.name,
            s.parent,
            secs(epoch, s.start) * 1e6,
            secs(epoch, s.end) * 1e6
        )?;
    }
    out.flush()
}

/// A timing forwarder for one session call: records backend build and
/// seeding (the call up to the first phase), each phase's span by stage,
/// core's own code between phases, and the time spent inside the wrapped
/// observer's callbacks.
pub struct TimedObserver<'s, 'o> {
    op: u64,
    inner: Option<(&'o mut dyn Observer, &'static str)>,
    spans: &'s mut Vec<Span>,
    mark: Instant,
    began: bool,
    phase: Option<(Instant, &'static str)>,
    rounds: u64,
    phases: u64,
}

impl<'s, 'o> TimedObserver<'s, 'o> {
    /// Starts timing a session call made right after `call`; `inner`, if
    /// any, is forwarded every event and its callbacks are recorded under
    /// the given layer name.
    pub fn new(
        op: u64,
        call: Instant,
        inner: Option<(&'o mut dyn Observer, &'static str)>,
        spans: &'s mut Vec<Span>,
    ) -> Self {
        TimedObserver {
            op,
            inner,
            spans,
            mark: call,
            began: false,
            phase: None,
            rounds: 0,
            phases: 0,
        }
    }

    fn push(&mut self, name: &'static str, start: Instant, end: Instant) {
        self.spans.push(Span {
            op: self.op,
            name,
            parent: "core.run",
            start,
            end,
        });
    }

    /// Closes the call at `returned`, and records the `core.run` span
    /// from `call`. Returns the rounds and phases the snapshots counted.
    pub fn finish(mut self, call: Instant, returned: Instant) -> (u64, u64) {
        self.push("core.boundary", self.mark, returned);
        self.spans.push(Span {
            op: self.op,
            name: "core.run",
            parent: "op",
            start: call,
            end: returned,
        });
        (self.rounds, self.phases)
    }

    /// Records core's code since the last mark as `gap`, then times
    /// `forward` on the inner observer.
    fn around(&mut self, gap: &'static str, forward: impl FnOnce(&mut dyn Observer)) -> Instant {
        let t0 = now();
        self.push(gap, self.mark, t0);
        self.forward_timed(t0, forward)
    }

    fn forward_timed(&mut self, t0: Instant, forward: impl FnOnce(&mut dyn Observer)) -> Instant {
        let Some((inner, layer)) = self.inner.as_mut() else {
            self.mark = t0;
            return t0;
        };
        let layer = *layer;
        forward(&mut **inner);
        let t1 = now();
        self.push(layer, t0, t1);
        self.mark = t1;
        t1
    }
}

impl Observer for TimedObserver<'_, '_> {
    fn on_phase_begin(&mut self, stage: Option<StageId>, phase: usize) {
        let gap = if self.began {
            "core.boundary"
        } else {
            "core.build_seed"
        };
        self.began = true;
        let start = self.around(gap, |o| o.on_phase_begin(stage, phase));
        let name = match stage {
            Some(StageId::One) => "core.stage1",
            _ => "core.stage2",
        };
        self.phase = Some((start, name));
    }

    fn on_phase_end(&mut self, snapshot: &PhaseSnapshot) {
        let t0 = now();
        if let Some((start, name)) = self.phase.take() {
            self.push(name, start, t0);
        }
        self.rounds += snapshot.rounds();
        self.phases += 1;
        self.forward_timed(t0, |o| o.on_phase_end(snapshot));
    }

    fn on_stage_transition(&mut self, from: StageId, to: StageId) {
        self.around("core.boundary", |o| o.on_stage_transition(from, to));
    }

    fn on_finish(&mut self) {
        self.around("core.boundary", |o| o.on_finish());
    }
}

/// Seconds spent in each pushsim call of one probed stage-2 phase.
#[derive(Debug, Clone, Copy, Default)]
struct Probe {
    /// Backend construction plus `seed_counts`.
    build: f64,
    /// One `push_opinionated_round` (the mean over the phase's 2L rounds).
    push_round: f64,
    /// One `end_phase`.
    end_phase: f64,
    /// One `resolve_sample_majority(L)`.
    decide: f64,
}

/// Drives one stage-2 phase by hand on the backend an op's grid point
/// resolves to: build and seed, `begin_phase`, 2L pushes, `end_phase`,
/// and the sample-majority decision with the schedule's first stage-2
/// sample size L.
fn phase_probe(spec: &ScenarioSpec, point: &GridPoint, seed: u64) -> Result<Probe, String> {
    let noise = if spec.sweep.eps.is_empty() {
        spec.noise.clone()
    } else {
        spec.noise.with_epsilon(point.eps)
    }
    .build(point.k)
    .map_err(|e| e.to_string())?;
    let params = ProtocolParams::builder(point.n, point.k)
        .epsilon(point.eps)
        .seed(seed)
        .delivery(point.delivery)
        .topology(point.topology)
        .constants(spec.constants)
        .build()
        .map_err(|e| e.to_string())?;
    let sample = params
        .schedule()
        .stage2_sample_sizes()
        .first()
        .copied()
        .unwrap_or(1);
    let config = SimConfig::builder(point.n, point.k)
        .seed(seed)
        .delivery(point.delivery)
        .topology(point.topology)
        .build()
        .map_err(|e| e.to_string())?;
    let counts = biased_counts(point.n, point.k, 0.2);
    let backend = spec.backend.resolve(
        point.n,
        point.k,
        point.delivery,
        point.topology,
        point.fault,
        point.churn,
        point.clock,
    );
    let probe = match backend {
        plurality_core::ExecutionBackend::Counting => probe_on(
            || CountingNetwork::new(config, noise),
            &counts,
            sample,
            seed,
        ),
        plurality_core::ExecutionBackend::BlockCounting => probe_on(
            || BlockCountingNetwork::new(config, noise),
            &counts,
            sample,
            seed,
        ),
        _ => probe_on(|| Network::new(config, noise), &counts, sample, seed),
    };
    probe.map_err(|e| e.to_string())
}

fn probe_on<B: PushBackend>(
    build: impl FnOnce() -> Result<B, SimError>,
    counts: &[usize],
    sample: u64,
    seed: u64,
) -> Result<Probe, SimError> {
    let t0 = now();
    let mut net = std::hint::black_box(build()?);
    net.seed_counts(counts)?;
    let t1 = now();
    net.begin_phase();
    let rounds = 2 * sample;
    let t2 = now();
    for _ in 0..rounds {
        std::hint::black_box(net.push_opinionated_round());
    }
    let t3 = now();
    std::hint::black_box(net.end_phase());
    let t4 = now();
    let mut rng = StdRng::seed_from_u64(seed);
    let t5 = now();
    net.resolve_sample_majority(sample, &mut rng);
    let t6 = now();
    std::hint::black_box(net.distribution());
    Ok(Probe {
        build: secs(t0, t1),
        push_round: secs(t2, t3) / rounds as f64,
        end_phase: secs(t3, t4),
        decide: secs(t5, t6),
    })
}

/// The spans and counters a traced simulation workload gathers.
#[derive(Default)]
pub struct SimTrace {
    spans: Vec<Span>,
    ops: u64,
    runs: u64,
    rounds: u64,
    phases: u64,
    probes: Vec<Probe>,
    parse_s: f64,
    digest_s: f64,
    plan_s: f64,
    untraced_s: f64,
    traced_s: f64,
    busy_s: f64,
}

impl SimTrace {
    /// Times parsing, digesting and planning one op's spec text.
    pub fn spec_calls(&mut self, text: &str) -> Result<ScenarioSpec, String> {
        let t0 = now();
        let spec = ScenarioSpec::from_text(text).map_err(|e| e.to_string())?;
        let t1 = now();
        std::hint::black_box(spec.canonical_digest());
        let t2 = now();
        SpecService.plan(text)?;
        self.parse_s += secs(t0, t1);
        self.digest_s += secs(t1, t2);
        self.plan_s += secs(t2, now());
        Ok(spec)
    }

    /// Records one traced op that ran from `start` to `end` on `threads`
    /// threads, next to the `untraced_s` seconds the same op took untraced.
    pub fn op(&mut self, op: u64, start: Instant, end: Instant, untraced_s: f64, threads: usize) {
        self.ops += 1;
        self.untraced_s += untraced_s;
        self.traced_s += secs(start, end);
        self.busy_s += secs(start, end) * threads as f64;
        self.spans.push(Span {
            op,
            name: "op",
            parent: "",
            start,
            end,
        });
    }

    /// Adds spans recorded outside session calls.
    pub fn extend(&mut self, spans: Vec<Span>) {
        self.spans.extend(spans);
    }

    /// Records one traced session call; the rounds its snapshots counted
    /// must be the rounds its outcome reports.
    pub fn run(
        &mut self,
        rounds: u64,
        phases: u64,
        outcome: &Outcome,
        spans: Vec<Span>,
    ) -> Option<String> {
        self.runs += 1;
        self.rounds += rounds;
        self.phases += phases;
        self.spans.extend(spans);
        (rounds != outcome.rounds()).then(|| {
            format!(
                "snapshots count {rounds} rounds, the outcome {}",
                outcome.rounds()
            )
        })
    }

    /// Probes one stage-2 phase at `point` (see [`phase_probe`]).
    pub fn probe(&mut self, spec: &ScenarioSpec, point: &GridPoint, seed: u64) -> Option<String> {
        match phase_probe(spec, point, seed) {
            Ok(probe) => {
                self.probes.push(probe);
                None
            }
            Err(e) => Some(format!("phase probe: {e}")),
        }
    }

    /// Mean seconds per traced op inside spans named `names`.
    pub fn per_op(&self, names: &[&str]) -> f64 {
        names.iter().map(|n| total(&self.spans, n)).sum::<f64>() / self.ops.max(1) as f64
    }

    /// Inserts the per-layer metrics both simulation workloads share and
    /// writes the spans out.
    pub fn finish(&self, cfg: &Config, l: &mut BTreeMap<&'static str, f64>) {
        let ops = self.ops.max(1) as f64;
        let rounds = self.rounds.max(1) as f64;
        l.insert("spec.parse_us", self.parse_s / ops * 1e6);
        l.insert("spec.digest_us", self.digest_s / ops * 1e6);
        l.insert("service.plan_us", self.plan_s / ops * 1e6);
        l.insert(
            "core.build_seed_us",
            total(&self.spans, "core.build_seed") / self.runs.max(1) as f64 * 1e6,
        );
        l.insert("core.stage1_ms", self.per_op(&["core.stage1"]) * 1e3);
        l.insert("core.stage2_ms", self.per_op(&["core.stage2"]) * 1e3);
        l.insert("core.rounds", self.rounds as f64 / ops);
        l.insert("core.phases", self.phases as f64 / ops);
        l.insert(
            "core.ns_per_round",
            self.per_op(&["core.stage1", "core.stage2"]) * ops / rounds * 1e9,
        );
        let n = self.probes.len().max(1) as f64;
        let mean = |f: fn(&Probe) -> f64| self.probes.iter().map(f).sum::<f64>() / n * 1e6;
        l.insert("pushsim.build_us", mean(|p| p.build));
        l.insert("pushsim.push_round_us", mean(|p| p.push_round));
        l.insert("pushsim.end_phase_us", mean(|p| p.end_phase));
        l.insert("pushsim.decide_us", mean(|p| p.decide));
        l.insert("trace.coverage", leaf_total(&self.spans) / self.busy_s);
        l.insert("trace.overhead", self.untraced_s / self.traced_s - 1.0);
        crate::write_trace(cfg, &self.spans);
    }
}
