//! The experiment registry: every figure/table of DESIGN.md §5, runnable by
//! name through the `xp` driver (`xp run f2`), plus the plumbing that turns
//! a [`ScenarioSpec`] + [`Cli`] into printed output.
//!
//! Two kinds of entries exist:
//!
//! * **Spec-backed** ([`ExperimentKind::Spec`]) — the experiment *is* one
//!   [`ScenarioSpec`] (scale-dependent grid sizes aside). `xp show <name>`
//!   prints the spec text; running it goes through the generic
//!   [`Runner`].
//! * **Composite** ([`ExperimentKind::Custom`]) — experiments that combine
//!   several spec runs into one bespoke table (T1's protocol-vs-baselines
//!   comparison, A1's constant ablations, …) or measure something below
//!   the scenario level (F8's delivery-semantics statistics, F4/T4's
//!   analytic bounds). These still honour the shared [`Cli`] flags.
//!
//! The registered names are `f1`–`f8`, `t1`–`t4`, `a1`, `topo`, `topoxl`,
//! `churn`, `burst` and `scale`.

use crate::runner::{PointResult, PointSummary, Runner};
use crate::spec::{InitSpec, Metric, ObserveMode, ScenarioKind, ScenarioSpec};
use crate::{Cli, Scale, TrialSummary};
use gossip_analysis::table::Table;
use noisy_channel::{NoiseMatrix, NoiseSpec};
use opinion_dynamics::RuleSpec;
use plurality_core::{
    bounds, ExecutionBackend, Instance, NoObserver, ProtocolParams, TwoStageProtocol,
};
use pushsim::{ChurnSpec, DeliverySemantics, NoiseSchedule, TopologySpec};
use std::error::Error;
use std::time::Instant;

/// How an [`Experiment`] is implemented.
pub enum ExperimentKind {
    /// The experiment is a single [`ScenarioSpec`], produced for the
    /// requested [`Scale`].
    Spec(fn(Scale) -> ScenarioSpec),
    /// A composite or sub-scenario experiment with its own run function.
    Custom(fn(&Cli) -> Result<(), Box<dyn Error>>),
}

/// One registered experiment.
pub struct Experiment {
    /// The short name used on the command line (`f1`, `t3`, `scale`, …).
    pub name: &'static str,
    /// A one-line description shown by `xp list`.
    pub title: &'static str,
    /// The implementation.
    pub kind: ExperimentKind,
}

impl Experiment {
    /// True for spec-backed entries (`xp show` can print their spec).
    pub fn is_spec(&self) -> bool {
        matches!(self.kind, ExperimentKind::Spec(_))
    }

    /// The experiment's [`ScenarioSpec`] at the given scale, for
    /// spec-backed entries.
    pub fn spec(&self, scale: Scale) -> Option<ScenarioSpec> {
        match self.kind {
            ExperimentKind::Spec(make) => Some(make(scale)),
            ExperimentKind::Custom(_) => None,
        }
    }
}

/// All registered experiments, in presentation order.
pub fn all() -> &'static [Experiment] {
    &EXPERIMENTS
}

/// Looks an experiment up by name.
pub fn find(name: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.name == name)
}

/// Runs one experiment with the shared CLI options.
///
/// # Errors
///
/// Propagates spec validation/execution errors and the composite
/// experiments' own failures.
pub fn run(experiment: &Experiment, cli: &Cli) -> Result<(), Box<dyn Error>> {
    run_to(experiment, cli, &mut std::io::stdout().lock())
}

/// Runs one experiment writing its output to a caller-supplied sink —
/// the sink-generic core of [`run`], shared by the CLI (stdout) and
/// the scenario service (HTTP response buffers). Spec-backed entries
/// stream or tabulate into `out`; composite ([`ExperimentKind::Custom`])
/// entries drive their own stdout output regardless of `out` and are
/// therefore only exposed through the CLI.
///
/// # Errors
///
/// Propagates spec validation/execution errors, write errors on `out`,
/// and the composite experiments' own failures.
pub fn run_to(
    experiment: &Experiment,
    cli: &Cli,
    out: &mut dyn std::io::Write,
) -> Result<(), Box<dyn Error>> {
    match experiment.kind {
        ExperimentKind::Spec(make) => {
            let heading = format!("{}: {}\n", experiment.name.to_uppercase(), experiment.title);
            run_spec_to(make(cli.scale), &heading, cli, out)
        }
        ExperimentKind::Custom(f) => f(cli),
    }
}

/// Runs one spec with the CLI's overrides, after a context heading (a
/// [`Cli::note_to`] line), writing to `out` — the one spec-run path of
/// registry entries and `xp run --spec` files.
///
/// # Errors
///
/// Propagates spec validation/execution errors and write errors on `out`.
pub fn run_spec_to(
    mut spec: ScenarioSpec,
    heading: &str,
    cli: &Cli,
    out: &mut dyn std::io::Write,
) -> Result<(), Box<dyn Error>> {
    apply_cli(&mut spec, cli);
    cli.note_to(heading, out)?;
    let runner = Runner::new(spec)?;
    if cli.stream {
        runner.run_streamed(out)?;
    } else {
        cli.emit_to(&runner.run()?.to_table(), out)?;
    }
    Ok(())
}

/// Applies the CLI's `--backend`, `--trials` and `--seed` overrides to a
/// spec (used for registry entries and `xp run --spec`).
pub fn apply_cli(spec: &mut ScenarioSpec, cli: &Cli) {
    if let Some(backend) = cli.backend {
        spec.backend = backend;
    }
    if let Some(trials) = cli.trials {
        spec.trials = trials;
    }
    if let Some(seed) = cli.seed {
        spec.seed = seed;
    }
}

static EXPERIMENTS: [Experiment; 18] = [
    Experiment {
        name: "f1",
        title: "rounds to consensus vs n (Theorem 1: O(log n / eps^2) rumor spreading)",
        kind: ExperimentKind::Spec(f1_spec),
    },
    Experiment {
        name: "f2",
        title: "rounds to consensus vs eps (Theorems 1-2: the 1/eps^2 scaling)",
        kind: ExperimentKind::Spec(f2_spec),
    },
    Experiment {
        name: "f3",
        title: "success rate vs initial bias (Theorem 2: the sqrt(log n / |S|) threshold)",
        kind: ExperimentKind::Spec(f3_spec),
    },
    Experiment {
        name: "f4",
        title: "sample-majority gap vs the Proposition 1 lower bound",
        kind: ExperimentKind::Spec(f4_spec),
    },
    Experiment {
        name: "f5",
        title: "per-phase bias trajectory (Lemmas 7 and 12)",
        kind: ExperimentKind::Spec(f5_spec),
    },
    Experiment {
        name: "f6",
        title: "(eps, delta)-majority-preservation vs end-to-end protocol success (Section 4)",
        kind: ExperimentKind::Custom(run_f6),
    },
    Experiment {
        name: "f7",
        title: "the small-epsilon regime of Appendix D",
        kind: ExperimentKind::Spec(f7_spec),
    },
    Experiment {
        name: "f8",
        title: "delivery-semantics comparison (Claim 1 and Lemma 3: processes O, B, P)",
        kind: ExperimentKind::Spec(f8_spec),
    },
    Experiment {
        name: "t1",
        title: "two-stage protocol vs baseline dynamics under identical noise",
        kind: ExperimentKind::Custom(run_t1),
    },
    Experiment {
        name: "t2",
        title: "per-node memory footprint vs the log log n + log 1/eps scale",
        kind: ExperimentKind::Custom(run_t2),
    },
    Experiment {
        name: "t3",
        title: "Stage 1 activation growth and end-of-stage bias (Claims 2-3, Lemma 4)",
        kind: ExperimentKind::Spec(t3_spec),
    },
    Experiment {
        name: "t4",
        title: "parity of the Stage 2 sample size (Lemma 17), exact evaluation",
        kind: ExperimentKind::Custom(run_t4),
    },
    Experiment {
        name: "a1",
        title: "protocol ablations: Stage 2 samples, Stage 1 final phase, schedule eps",
        kind: ExperimentKind::Custom(run_a1),
    },
    Experiment {
        name: "topo",
        title: "plurality consensus across communication topologies (complete vs sparse graphs)",
        kind: ExperimentKind::Spec(topo_spec),
    },
    Experiment {
        name: "topoxl",
        title: "sparse-topology consensus at n = 10^6 (10^7 with --full) on the block-counting backend",
        kind: ExperimentKind::Spec(topo_xl_spec),
    },
    Experiment {
        name: "churn",
        title: "plurality consensus under population churn at n = 10^6, per-phase population trajectory",
        kind: ExperimentKind::Spec(churn_spec),
    },
    Experiment {
        name: "burst",
        title: "reconvergence after a transient noise burst and a one-shot departure burst",
        kind: ExperimentKind::Spec(burst_spec),
    },
    Experiment {
        name: "scale",
        title: "full protocol at n = 10^7 (and 10^8 with --full) on the counting backend",
        kind: ExperimentKind::Custom(run_scale),
    },
];

// ---------------------------------------------------------------------------
// Spec-backed experiments.
// ---------------------------------------------------------------------------

/// F1 — Theorem 1: rumor spreading completes in `O(log n / ε²)` rounds for
/// any constant number of opinions. Sweeps `k × n` at fixed ε; success
/// should stay ≈ 1 and the normalized round count flat.
fn f1_spec(scale: Scale) -> ScenarioSpec {
    let mut spec = ScenarioSpec::new(ScenarioKind::RumorSpreading { source: 0 }, 4_000, 3);
    spec.epsilon = 0.25;
    spec.noise = NoiseSpec::Uniform { epsilon: 0.25 };
    spec.trials = scale.pick(5, 30);
    spec.seed = 0xF1;
    spec.sweep.k = vec![2, 3, 5];
    spec.sweep.n = scale.pick(
        vec![1_000, 2_000, 4_000],
        vec![1_000, 2_000, 4_000, 8_000, 16_000, 32_000, 64_000],
    );
    spec.metrics = vec![
        Metric::Success,
        Metric::Rounds,
        Metric::RoundsNorm,
        Metric::Stage1Bias,
    ];
    spec
}

/// F2 — Theorems 1 and 2: the round complexity scales as `1/ε²`. Fixes
/// `(n, k)` and sweeps ε; the normalized round count should stay flat.
///
/// This spec's fixed-seed quick-scale output is pinned bit-for-bit against
/// the pre-spec-API harness by `tests/registry_parity.rs`.
fn f2_spec(scale: Scale) -> ScenarioSpec {
    let mut spec =
        ScenarioSpec::new(ScenarioKind::RumorSpreading { source: 0 }, scale.pick(2_000, 10_000), 3);
    spec.epsilon = 0.25;
    spec.noise = NoiseSpec::Uniform { epsilon: 0.25 };
    spec.trials = scale.pick(5, 30);
    spec.seed = 0xF2;
    spec.sweep.eps = vec![0.1, 0.15, 0.2, 0.25, 0.3, 0.4];
    spec.metrics = vec![
        Metric::Success,
        Metric::Rounds,
        Metric::RoundsNorm,
        Metric::Messages,
    ];
    spec
}

/// F3 — Theorem 2: plurality consensus needs an initial bias of order
/// `√(log n / |S|)`. Sweeps `k ×` bias (multiples of the threshold, with
/// everyone opinionated so `|S| = n`); success jumps to ≈ 1 once the bias
/// comfortably exceeds the threshold.
fn f3_spec(scale: Scale) -> ScenarioSpec {
    let n = scale.pick(2_000, 20_000);
    let threshold = ((n as f64).ln() / n as f64).sqrt();
    let mut spec = ScenarioSpec::new(
        ScenarioKind::PluralityConsensus {
            init: InitSpec::Biased { bias: 0.1 },
        },
        n,
        3,
    );
    spec.epsilon = 0.25;
    spec.noise = NoiseSpec::Uniform { epsilon: 0.25 };
    spec.trials = scale.pick(6, 30);
    spec.seed = 0xF3;
    spec.sweep.k = vec![2, 4];
    spec.sweep.bias = [0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0]
        .iter()
        .map(|mult| (mult * threshold).min(0.9))
        .collect();
    spec.metrics = vec![Metric::Success];
    spec
}

/// F7 — Appendix D: for `ε = Θ(n^{−1/4−η})` Stage 1 leaves a bias near or
/// below the Stage 2 requirement and the protocol loses reliability, while
/// constant ε sits far above it. The ε sweep holds both regimes.
fn f7_spec(scale: Scale) -> ScenarioSpec {
    let n = scale.pick(3_000, 20_000);
    let eta = 0.05;
    // Rounded so the eps axis column prints compactly.
    let eps_small = format!("{:.4}", (n as f64).powf(-0.25 - eta))
        .parse::<f64>()
        .expect("rounded eps parses");
    let mut spec = ScenarioSpec::new(ScenarioKind::RumorSpreading { source: 0 }, n, 2);
    spec.epsilon = 0.25;
    spec.noise = NoiseSpec::Uniform { epsilon: 0.25 };
    spec.trials = scale.pick(5, 20);
    spec.seed = 0xF7;
    spec.sweep.eps = vec![0.25, eps_small];
    spec.metrics = vec![Metric::Stage1Bias, Metric::Stage1BiasNorm, Metric::Success];
    spec
}

/// F4 — Proposition 1 (and Lemmas 9–11): the sample-majority gap dominates
/// the analytic lower bound `√(2ℓ/π)·g(δ,ℓ)/4^{k−2}` on a `(k, ℓ, δ)`
/// grid. A pure `gap` spec: `trials` Monte-Carlo samples per cell, exact
/// binomial column for k = 2.
fn f4_spec(scale: Scale) -> ScenarioSpec {
    // The gap is evaluated below the simulation level; n is unused.
    let mut spec = ScenarioSpec::new(
        ScenarioKind::SampleMajorityGap { ell: 25, delta: 0.1 },
        1,
        2,
    );
    spec.trials = scale.pick(40_000, 400_000);
    spec.seed = 0xF4;
    spec.sweep.k = vec![2, 3, 4, 5];
    spec.sweep.ell = vec![9, 25, 51, 101];
    spec.sweep.delta = vec![0.02, 0.05, 0.1, 0.2];
    spec
}

/// F5 — Lemmas 7 and 12: a single seeded execution's full per-phase
/// trajectory — activation fraction, bias, and the Stage 2 per-phase
/// amplification ratio. A rumor spec under `observe.trajectory`.
///
/// This spec's fixed-seed quick-scale output is pinned bit-for-bit against
/// the pre-observation-API harness by `tests/registry_parity.rs`.
fn f5_spec(scale: Scale) -> ScenarioSpec {
    let mut spec = ScenarioSpec::new(
        ScenarioKind::RumorSpreading { source: 0 },
        scale.pick(5_000, 50_000),
        3,
    );
    spec.epsilon = 0.25;
    spec.noise = NoiseSpec::Uniform { epsilon: 0.25 };
    spec.trials = 1;
    spec.seed = 0xF5;
    spec.observe = ObserveMode::Trajectory;
    spec
}

/// F8 — Claim 1 and Lemma 3: one phase of pushing under each delivery
/// semantics, comparing received totals, per-node inbox statistics and the
/// Stage 1 adoption rule. A `phase` spec sweeping the delivery process;
/// always agent-level (the per-node moments it measures only exist there),
/// so `--backend` does not apply.
fn f8_spec(scale: Scale) -> ScenarioSpec {
    let n = scale.pick(2_000, 10_000);
    let counts = vec![n * 5 / 10, n * 3 / 10, n * 2 / 10];
    let mut spec = ScenarioSpec::new(
        ScenarioKind::PhaseStats {
            rounds: 10,
            init: InitSpec::Counts(counts),
        },
        n,
        3,
    );
    spec.epsilon = 0.2;
    spec.noise = NoiseSpec::Uniform { epsilon: 0.2 };
    spec.trials = scale.pick(20, 100);
    spec.seed = 0xF8;
    spec.sweep.delivery = DeliverySemantics::ALL.to_vec();
    spec
}

/// T3 — Claims 2–3 and Lemma 4: Stage 1's phase-by-phase activation growth
/// (predicted `β/ε² + 1` per middle phase) and end-of-stage bias
/// (`Ω(√(log n / n))`). A rumor spec under `observe.phases`: per-phase
/// activation/growth/bias aggregated over the trials.
fn t3_spec(scale: Scale) -> ScenarioSpec {
    let mut spec = ScenarioSpec::new(
        ScenarioKind::RumorSpreading { source: 0 },
        scale.pick(10_000, 50_000),
        3,
    );
    spec.epsilon = 0.2;
    spec.noise = NoiseSpec::Uniform { epsilon: 0.2 };
    spec.trials = scale.pick(3, 10);
    spec.seed = 0x74;
    spec.observe = ObserveMode::Phases;
    spec
}

/// `topo` — the new scenario family the topology subsystem opens: the same
/// plurality-consensus instance swept across communication topologies × ε
/// at fixed `(n, k)`. On the complete graph the paper's guarantees apply
/// and success is ≈ 1; on sparse graphs (ring, torus, `regular(8)`,
/// `er(p)`) the uniform-push mixing assumption breaks down and the
/// schedule's `O(log n / ε²)` budget stops being sufficient — exactly the
/// gap to the LOCAL-model literature the repo tracks. With the default
/// exact delivery every point runs the agent backend on the materialized
/// graph; [`topo_xl_spec`] re-runs the vertex-transitive families at
/// n = 10⁶–10⁷ under Poissonized delivery on the block-counting backend.
///
/// `n` is a perfect square at both scales so the torus points are
/// feasible; `er(0.01)` gives mean degree ≈ 10 at quick scale
/// (comfortably connected w.h.p.) and ≈ 100 at full scale.
fn topo_spec(scale: Scale) -> ScenarioSpec {
    let n = scale.pick(1_024, 10_000);
    let er_p = 0.01;
    let mut spec = ScenarioSpec::new(
        ScenarioKind::PluralityConsensus {
            init: InitSpec::Biased { bias: 0.2 },
        },
        n,
        3,
    );
    spec.epsilon = 0.25;
    spec.noise = NoiseSpec::Uniform { epsilon: 0.25 };
    spec.trials = scale.pick(3, 10);
    spec.seed = 0x70;
    spec.sweep.eps = scale.pick(vec![0.2, 0.3], vec![0.15, 0.25, 0.35]);
    spec.sweep.topology = vec![
        TopologySpec::Complete,
        TopologySpec::Ring,
        TopologySpec::Torus2D,
        TopologySpec::RandomRegular { degree: 8 },
        TopologySpec::ErdosRenyi { p: er_p },
    ];
    spec.metrics = vec![
        Metric::Success,
        Metric::Consensus,
        Metric::Share,
        Metric::Rounds,
    ];
    spec
}

/// `topoxl` — the `topo` scenario family at population scales only the
/// degree-class block-counting backend reaches: the same biased plurality
/// instance on the certified vertex-transitive families at n = 10⁶ (quick)
/// and n = 10⁷ (`--full`), pinned to `backend = blockcounting` with
/// Poissonized delivery so every phase costs O(k²·C) instead of O(n).
///
/// The torus needs a perfect square, so it appears only in the quick sweep
/// (10⁶ = 1000²; 10⁷ has no integer square root). Erdős–Rényi is outside
/// the backend's certified set and stays in the agent-backed `topo` run.
fn topo_xl_spec(scale: Scale) -> ScenarioSpec {
    let n = scale.pick(1_000_000, 10_000_000);
    let mut spec = ScenarioSpec::new(
        ScenarioKind::PluralityConsensus {
            init: InitSpec::Biased { bias: 0.2 },
        },
        n,
        3,
    );
    spec.epsilon = 0.25;
    spec.noise = NoiseSpec::Uniform { epsilon: 0.25 };
    spec.trials = scale.pick(2, 3);
    spec.seed = 0x71;
    spec.backend = ExecutionBackend::BlockCounting;
    spec.delivery = DeliverySemantics::Poissonized;
    spec.sweep.topology = scale.pick(
        vec![
            TopologySpec::Ring,
            TopologySpec::Torus2D,
            TopologySpec::RandomRegular { degree: 8 },
        ],
        vec![TopologySpec::Ring, TopologySpec::RandomRegular { degree: 8 }],
    );
    spec.metrics = vec![
        Metric::Success,
        Metric::Consensus,
        Metric::Share,
        Metric::Rounds,
    ];
    spec
}

/// `churn` — the temporal-dynamics subsystem's flagship scenario: the same
/// biased plurality instance at n = 10⁶ (10⁷ with `--full`) on the
/// counting backend, swept across steady population-churn regimes from the
/// static paper model (`none`, bit-for-bit the pre-temporal simulator)
/// through balanced turnover to a net-growing and a net-shrinking
/// population. Trajectory observation carries the live `population`
/// column, so the deterministic per-phase population trajectory is
/// visible next to the bias it dilutes: joiners draw opinions uniformly
/// and push the amplification Lemmas 7/12 predict for a *static*
/// population off its curve.
fn churn_spec(scale: Scale) -> ScenarioSpec {
    let mut spec = ScenarioSpec::new(
        ScenarioKind::PluralityConsensus {
            init: InitSpec::Biased { bias: 0.2 },
        },
        scale.pick(1_000_000, 10_000_000),
        3,
    );
    spec.epsilon = 0.25;
    spec.noise = NoiseSpec::Uniform { epsilon: 0.25 };
    spec.trials = 1;
    spec.seed = 0xC4;
    spec.backend = ExecutionBackend::Counting;
    spec.observe = ObserveMode::Trajectory;
    spec.sweep.churn = vec![
        ChurnSpec::none(),
        "join(0.05)+leave(0.05)".parse().expect("valid churn"),
        "join(0.04)+leave(0.01)".parse().expect("valid churn"),
        "join(0.01)+leave(0.04)".parse().expect("valid churn"),
    ];
    spec
}

/// `burst` — transient-disruption reconvergence on the counting backend at
/// n = 10⁶ (10⁷ with `--full`): a constant-ε baseline next to a 2-phase
/// noise burst to ε = 0.5 early (while the bias is still fragile) and the
/// same burst later (after the Stage 1 amplification has banked margin),
/// plus a one-shot departure burst removing 30% of the population. The
/// per-phase trajectories show the bias dip and the reconvergence window
/// after each disruption.
fn burst_spec(scale: Scale) -> ScenarioSpec {
    let mut spec = ScenarioSpec::new(
        ScenarioKind::PluralityConsensus {
            init: InitSpec::Biased { bias: 0.2 },
        },
        scale.pick(1_000_000, 10_000_000),
        3,
    );
    spec.epsilon = 0.25;
    spec.noise = NoiseSpec::Uniform { epsilon: 0.25 };
    spec.trials = 1;
    spec.seed = 0xB5;
    spec.backend = ExecutionBackend::Counting;
    spec.observe = ObserveMode::Trajectory;
    spec.sweep.schedule = vec![
        NoiseSchedule::Const,
        "burst(0.5@2:2)".parse().expect("valid schedule"),
        "burst(0.5@5:2)".parse().expect("valid schedule"),
    ];
    spec.sweep.churn = vec![
        ChurnSpec::none(),
        "burst(0.3@3)".parse().expect("valid churn"),
    ];
    spec
}

// ---------------------------------------------------------------------------
// Composite experiments (several spec runs merged into one bespoke table).
// ---------------------------------------------------------------------------

/// Runs a single-point spec and returns its protocol summary.
fn protocol_point(spec: ScenarioSpec) -> Result<TrialSummary, Box<dyn Error>> {
    let report = Runner::new(spec)?.run()?;
    match report.points() {
        [PointResult {
            summary: PointSummary::Protocol(summary),
            ..
        }] => Ok(summary.clone()),
        _ => unreachable!("single-point protocol spec"),
    }
}

/// T1 — headline comparison: the two-stage protocol vs the baseline
/// dynamics on the same instance, same noise, same round budget. Only the
/// protocol reliably reaches exact consensus on the correct opinion.
fn run_t1(cli: &Cli) -> Result<(), Box<dyn Error>> {
    let scale = cli.scale;
    let n = scale.pick(2_000, 10_000);
    let k = 3;
    let eps = 0.25;
    let bias = 0.1;
    let trials = cli.trials_or(scale.pick(5, 20));
    let budget = ProtocolParams::builder(n, k)
        .epsilon(eps)
        .build()?
        .schedule()
        .total_rounds();

    cli.note(&format!(
        "T1: two-stage protocol vs baseline dynamics (n = {n}, k = {k}, eps = {eps}, bias = {bias})"
    ));
    cli.note(&format!(
        "round budget per algorithm: {budget} (the protocol's schedule)\n"
    ));

    let base = |kind: ScenarioKind, seed: u64| {
        let mut spec = ScenarioSpec::new(kind, n, k);
        spec.epsilon = eps;
        spec.noise = NoiseSpec::Uniform { epsilon: eps };
        spec.trials = trials;
        spec.seed = seed;
        apply_cli(&mut spec, cli);
        spec
    };

    let mut table = Table::new(vec![
        "algorithm",
        "exact consensus",
        "correct plurality",
        "mean plurality share",
        "mean rounds",
    ]);

    // The two-stage protocol, as one plurality spec.
    let summary = protocol_point(base(
        ScenarioKind::PluralityConsensus {
            init: InitSpec::Biased { bias },
        },
        0x71,
    ))?;
    table.push_row(vec![
        "two-stage protocol".to_string(),
        summary.consensus.to_string(),
        summary.correct.to_string(),
        format!("{:.3}", summary.share.mean()),
        format!("{:.0}", summary.rounds.mean()),
    ]);

    // The baselines, one dynamics spec each, same budget.
    for rule in RuleSpec::ALL {
        let spec = base(
            ScenarioKind::DynamicsRule {
                rule,
                init: InitSpec::Biased { bias },
                rounds: Some(budget),
            },
            0x72,
        );
        let report = Runner::new(spec)?.run()?;
        let PointSummary::Dynamics(summary) = &report.points()[0].summary else {
            unreachable!("dynamics spec");
        };
        table.push_row(vec![
            rule.to_string(),
            summary.consensus.to_string(),
            summary.correct.to_string(),
            format!("{:.3}", summary.share.mean()),
            format!("{:.0}", summary.rounds.mean()),
        ]);
    }
    cli.emit(&table);
    Ok(())
}

/// T2 — the memory claim of Theorems 1 and 2: `O(log log n + log 1/ε)`
/// bits per node. Two spec sweeps (over n at fixed ε, over ε at fixed n)
/// merged with the theory-scale and ratio columns.
fn run_t2(cli: &Cli) -> Result<(), Box<dyn Error>> {
    let scale = cli.scale;
    let trials = cli.trials_or(scale.pick(3, 10));

    cli.note("T2: per-node memory footprint vs the log log n + log 1/eps scale\n");

    let mut table = Table::new(vec![
        "n",
        "eps",
        "measured bits/node",
        "theory scale (bits)",
        "ratio",
        "success",
    ]);

    let mut push_points = |report: &crate::runner::RunReport| {
        for point in report.points() {
            let PointSummary::Protocol(summary) = &point.summary else {
                unreachable!("rumor spec");
            };
            let scale_bits = bounds::memory_bound_bits(point.point.n, point.point.eps);
            table.push_row(vec![
                point.point.n.to_string(),
                point.point.eps.to_string(),
                format!("{:.1}", summary.memory_bits.mean()),
                format!("{scale_bits:.2}"),
                format!("{:.2}", summary.memory_bits.mean() / scale_bits),
                summary.success.to_string(),
            ]);
        }
    };

    // Sweep n at fixed eps.
    let mut spec = ScenarioSpec::new(ScenarioKind::RumorSpreading { source: 0 }, 2_000, 3);
    spec.epsilon = 0.25;
    spec.noise = NoiseSpec::Uniform { epsilon: 0.25 };
    spec.trials = trials;
    spec.seed = 0x72;
    spec.sweep.n = scale.pick(vec![1_000, 4_000, 16_000], vec![1_000, 4_000, 16_000, 64_000]);
    apply_cli(&mut spec, cli);
    push_points(&Runner::new(spec)?.run()?);

    // Sweep eps at fixed n.
    let mut spec =
        ScenarioSpec::new(ScenarioKind::RumorSpreading { source: 0 }, scale.pick(2_000, 10_000), 3);
    spec.trials = trials;
    spec.seed = 0x73;
    spec.sweep.eps = vec![0.1, 0.2, 0.4];
    apply_cli(&mut spec, cli);
    push_points(&Runner::new(spec)?.run()?);

    cli.emit(&table);
    cli.note("");
    cli.note(
        "(the ratio stays bounded by a modest constant across two orders of magnitude in n,\n\
         which is the O(log log n + log 1/eps) claim at simulable sizes)",
    );
    Ok(())
}

/// A1 — ablations of the protocol's design choices: each variant is the
/// same rumor spec with different `constants.*` overrides (or a schedule ε
/// decoupled from the channel ε), run against the same channel.
fn run_a1(cli: &Cli) -> Result<(), Box<dyn Error>> {
    let scale = cli.scale;
    let n = scale.pick(2_000, 10_000);
    let k = 3;
    let channel_eps = 0.2;
    let trials = cli.trials_or(scale.pick(5, 20));

    cli.note(&format!(
        "A1: protocol ablations (rumor spreading, n = {n}, k = {k}, channel eps = {channel_eps})\n"
    ));

    let mut table = Table::new(vec!["variant", "success", "rounds", "stage-1 bias"]);

    let defaults = plurality_core::ProtocolConstants::default();
    // (label, constant overrides, schedule eps) per ablation variant.
    type Variant = (&'static str, Vec<(&'static str, f64)>, f64);
    let variants: Vec<Variant> = vec![
        ("baseline (default constants)", vec![], channel_eps),
        ("tiny Stage-2 samples (c = 0.25)", vec![("c", 0.25)], channel_eps),
        ("large Stage-2 samples (c = 12)", vec![("c", 12.0)], channel_eps),
        (
            "short Stage-1 final phase (phi = 0.3)",
            vec![("s", 0.1), ("beta", 0.2), ("phi", 0.3)],
            channel_eps,
        ),
        ("schedule assumes eps = 0.4 (channel has 0.2)", vec![], 0.4),
    ];

    for (label, overrides, schedule_eps) in variants {
        let mut spec = ScenarioSpec::new(ScenarioKind::RumorSpreading { source: 0 }, n, k);
        spec.epsilon = schedule_eps;
        // The channel stays at eps = 0.2 even when the schedule assumes
        // more: the noise is pinned explicitly, not derived per point.
        spec.noise = NoiseSpec::Uniform {
            epsilon: channel_eps,
        };
        spec.constants = defaults;
        for (name, value) in overrides {
            assert!(spec.constants.set(name, value), "known constant name");
        }
        spec.trials = trials;
        spec.seed = 0xA1;
        apply_cli(&mut spec, cli);
        let summary = protocol_point(spec)?;
        table.push_row(vec![
            label.to_string(),
            summary.success.to_string(),
            format!("{:.0}", summary.rounds.mean()),
            format!("{:.4}", summary.stage1_bias.mean()),
        ]);
    }
    cli.emit(&table);
    cli.note("");
    cli.note(
        "(the baseline and the larger-sample variant succeed; starving Stage 2 samples, the\n\
         Stage-1 final phase, or the schedule's eps costs reliability — these are the design\n\
         choices the paper's constants protect)",
    );
    Ok(())
}

/// F6 — Section 4: the (ε, δ)-majority-preserving characterization. For
/// every matrix family the LP computes the worst-case margin; the same
/// [`NoiseSpec`] then drives an end-to-end plurality spec, and protocol
/// success should match the LP verdict.
fn run_f6(cli: &Cli) -> Result<(), Box<dyn Error>> {
    let scale = cli.scale;
    let n = scale.pick(1_500, 10_000);
    let trials = cli.trials_or(scale.pick(5, 20));
    let initial_bias = 0.1;

    let matrices: Vec<(&str, NoiseSpec)> = vec![
        ("uniform eps=0.2 (k=3)", NoiseSpec::Uniform { epsilon: 0.2 }),
        ("uniform eps=0.1 (k=3)", NoiseSpec::Uniform { epsilon: 0.1 }),
        (
            "diag-dominant counterexample eps=0.05",
            NoiseSpec::DiagonallyDominant { epsilon: 0.05 },
        ),
        (
            "diag-dominant counterexample eps=0.45",
            NoiseSpec::DiagonallyDominant { epsilon: 0.45 },
        ),
        ("cyclic lambda=0.05 (k=3)", NoiseSpec::Cyclic { lambda: 0.05 }),
        (
            "reset->1 lambda=0.4 (k=3)",
            NoiseSpec::Reset {
                lambda: 0.4,
                target: 1,
            },
        ),
        (
            "band p=0.5 q=[0.24,0.26] (k=3, Eq.17)",
            NoiseSpec::Band {
                p: 0.5,
                q_low: 0.24,
                q_high: 0.26,
            },
        ),
    ];

    cli.note("F6: (eps, delta)-majority-preservation vs end-to-end protocol success");
    cli.note(&format!(
        "(plurality consensus towards opinion 0, n = {n}, initial bias {initial_bias}, {trials} trials)\n"
    ));

    let mut table = Table::new(vec![
        "matrix",
        "LP margin (delta=0.1)",
        "max eps",
        "m.p.?",
        "protocol success",
    ]);

    for (name, noise_spec) in &matrices {
        let matrix = noise_spec.build(3)?;
        let report = matrix.majority_preservation(0, initial_bias)?;
        // End-to-end: provision the schedule for half the matrix's own
        // margin (a practitioner would leave headroom; the clamp keeps the
        // non-m.p. rows, whose margin is 0, on a finite schedule).
        let protocol_eps = (0.5 * report.max_epsilon()).clamp(0.05, 0.4);
        let mut spec = ScenarioSpec::new(
            ScenarioKind::PluralityConsensus {
                init: InitSpec::Biased { bias: initial_bias },
            },
            n,
            3,
        );
        spec.epsilon = protocol_eps;
        spec.noise = noise_spec.clone();
        spec.trials = trials;
        spec.seed = 0xF6;
        apply_cli(&mut spec, cli);
        let summary = protocol_point(spec)?;
        table.push_row(vec![
            name.to_string(),
            format!("{:+.4}", report.worst_margin()),
            format!("{:.3}", report.max_epsilon()),
            report.preserves_majority().to_string(),
            summary.success.to_string(),
        ]);
    }
    cli.emit(&table);
    cli.note("");
    cli.note(
        "paper prediction: rows with 'm.p.? = true' succeed with rate ~1, rows with\n\
         'm.p.? = false' fail (the plurality is destroyed by the channel itself)",
    );
    Ok(())
}

/// T4 — Lemma 17 (Appendix C): removing the parity assumption. Exact
/// binomial evaluation of `gap(ℓ) = gap(ℓ+1) ≤ gap(ℓ+2)` for odd ℓ.
fn run_t4(cli: &Cli) -> Result<(), Box<dyn Error>> {
    cli.note("T4: parity of the Stage 2 sample size (Lemma 17), exact binomial evaluation\n");
    let mut table = Table::new(vec![
        "p1",
        "ell (odd)",
        "gap(ell)",
        "gap(ell+1)",
        "gap(ell+2)",
        "gap(ell)=gap(ell+1)",
        "gap(ell+2)>=gap(ell)",
    ]);
    let mut all_hold = true;
    for &p1 in &[0.5, 0.52, 0.55, 0.6, 0.7, 0.9] {
        for &ell in &[5u64, 11, 21, 51, 101] {
            // Lemma 17 is stated for Pr[maj = 1]; the gap version
            // (Pr[maj=1] − Pr[maj=2]) inherits both relations because the
            // two probabilities sum to 1.
            let g0 = bounds::exact_majority_gap_binary(p1, ell);
            let g1 = bounds::exact_majority_gap_binary(p1, ell + 1);
            let g2 = bounds::exact_majority_gap_binary(p1, ell + 2);
            let equal = (g0 - g1).abs() < 1e-9;
            let monotone = g2 >= g0 - 1e-9;
            all_hold &= equal && monotone;
            table.push_row(vec![
                format!("{p1}"),
                ell.to_string(),
                format!("{g0:.6}"),
                format!("{g1:.6}"),
                format!("{g2:.6}"),
                equal.to_string(),
                monotone.to_string(),
            ]);
        }
    }
    cli.emit(&table);
    cli.note("");
    cli.note(&format!("all Lemma 17 relations hold: {all_hold}"));
    Ok(())
}

/// `scale` — the count-based backend at sizes the agent-level simulator
/// cannot touch: the full two-stage protocol at n = 10⁷ (and n = 10⁸ with
/// `--full`), timed end to end.
fn run_scale(cli: &Cli) -> Result<(), Box<dyn Error>> {
    let scale = cli.scale;
    let sizes: &[usize] = scale.pick(&[1_000_000, 10_000_000][..], &[10_000_000, 100_000_000][..]);
    let eps = 0.25;
    let k = 3;

    let mut table = Table::new(vec![
        "n", "backend", "rounds", "messages", "winner_share", "succeeded", "seconds",
    ]);
    for &n in sizes {
        let noise = NoiseMatrix::uniform(k, eps)?;
        // Poissonized delivery is requested *explicitly*: the counting
        // backend only implements process P, and the semantics-preserving
        // Auto policy no longer silently swaps an exact-delivery run onto
        // it — stating the process here keeps Auto resolving to the
        // O(k²)-per-phase engine these sizes need.
        let params = ProtocolParams::builder(n, k)
            .epsilon(eps)
            .seed(cli.seed_or(7))
            .delivery(DeliverySemantics::Poissonized)
            .build()?;
        let protocol = TwoStageProtocol::new(params, noise)?;
        let resolved = protocol.resolve(cli.backend_or_auto());
        // 40% / 30% / 30%: a plurality but far from an absolute majority.
        let counts = [n * 2 / 5, n * 3 / 10, n - n * 2 / 5 - n * 3 / 10];

        // xlint: allow(determinism-source) — the scale experiment reports wall-clock throughput; timing is the measurement, never an input to the run
        let start = Instant::now();
        let outcome = protocol.session().run(
            cli.backend_or_auto(),
            Instance::Plurality(&counts),
            &mut NoObserver,
        )?;
        let elapsed = start.elapsed().as_secs_f64();

        let dist = outcome.final_distribution();
        let share = dist.counts()[0] as f64 / dist.num_nodes() as f64;
        table.push_row(vec![
            format!("{n}"),
            resolved.to_string(),
            format!("{}", outcome.rounds()),
            format!("{:.3e}", outcome.messages() as f64),
            format!("{share:.4}"),
            format!("{}", outcome.succeeded()),
            format!("{elapsed:.2}"),
        ]);
    }
    cli.emit(&table);
    cli.note(
        "(phases cost O(k^2) draws on the counting backend; the same runs on the\n\
         agent-level backend would push ~n log n messages individually)",
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_findable() {
        let mut names: Vec<&str> = all().iter().map(|e| e.name).collect();
        assert_eq!(names.len(), 18, "all 18 experiments are registered");
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 18, "names are unique");
        assert!(find("f2").is_some());
        assert!(find("topo").is_some());
        assert!(find("topoxl").is_some());
        assert!(find("churn").is_some());
        assert!(find("burst").is_some());
        assert!(find("scale").is_some());
        assert!(find("f99").is_none());
    }

    #[test]
    fn churn_spec_tracks_the_population_on_the_counting_backend() {
        for scale in [Scale::Quick, Scale::Full] {
            let spec = churn_spec(scale);
            spec.validate().expect("churn spec validates");
            assert_eq!(spec.backend, ExecutionBackend::Counting);
            assert_eq!(spec.observe, ObserveMode::Trajectory);
            // The static paper model anchors the sweep; every other point
            // churns the population, so trajectory rows must carry the
            // live `population` column.
            assert!(spec.sweep.churn[0].is_none());
            assert!(spec.sweep.churn.iter().skip(1).all(|c| c.has_population_churn()));
            assert!(crate::runner::headers(&spec).contains(&"population".to_string()));
        }
        assert_eq!(churn_spec(Scale::Quick).n, 1_000_000);
        assert_eq!(churn_spec(Scale::Full).n, 10_000_000);
    }

    #[test]
    fn burst_spec_sweeps_disruptions_feasibly() {
        for scale in [Scale::Quick, Scale::Full] {
            let spec = burst_spec(scale);
            spec.validate().expect("burst spec validates");
            assert_eq!(spec.backend, ExecutionBackend::Counting);
            // const × none is the undisturbed baseline cell.
            assert!(spec.sweep.schedule[0].is_const());
            assert!(spec.sweep.churn[0].is_none());
            assert_eq!(spec.sweep.num_points(), 6, "3 schedules x 2 churns");
        }
    }

    #[test]
    fn topo_spec_sweeps_topologies_feasibly_at_both_scales() {
        for scale in [Scale::Quick, Scale::Full] {
            let spec = topo_spec(scale);
            spec.validate().expect("topo spec validates");
            assert_eq!(spec.sweep.topology.len(), 5);
            // n is a perfect square so the torus points are buildable.
            let side = (spec.n as f64).sqrt() as usize;
            assert_eq!(side * side, spec.n);
        }
    }

    #[test]
    fn topo_xl_spec_stays_on_the_certified_set_at_both_scales() {
        for scale in [Scale::Quick, Scale::Full] {
            let spec = topo_xl_spec(scale);
            spec.validate().expect("topoxl spec validates");
            assert_eq!(spec.backend, ExecutionBackend::BlockCounting);
            assert_eq!(spec.delivery, DeliverySemantics::Poissonized);
            for topology in &spec.sweep.topology {
                assert!(
                    topology.is_vertex_transitive(),
                    "{topology} is outside the block-counting certified set"
                );
                topology.check(spec.n).expect("feasible at the swept n");
            }
        }
        // The torus rides along only where n is a perfect square.
        assert_eq!(topo_xl_spec(Scale::Quick).sweep.topology.len(), 3);
        assert_eq!(topo_xl_spec(Scale::Full).sweep.topology.len(), 2);
        assert_eq!(topo_xl_spec(Scale::Full).n, 10_000_000);
    }

    #[test]
    fn spec_backed_entries_produce_round_trippable_specs() {
        for experiment in all() {
            let Some(spec) = experiment.spec(Scale::Quick) else {
                continue;
            };
            let text = spec.to_text();
            let parsed = ScenarioSpec::from_text(&text)
                .unwrap_or_else(|e| panic!("{} spec must parse: {e}", experiment.name));
            assert_eq!(parsed, spec, "{} round-trips", experiment.name);
        }
        assert!(find("f2").unwrap().is_spec());
        assert!(!find("t1").unwrap().is_spec());
    }

    #[test]
    fn cli_overrides_apply_to_specs() {
        let mut spec = f2_spec(Scale::Quick);
        let cli = Cli {
            backend: Some(plurality_core::ExecutionBackend::Counting),
            trials: Some(2),
            seed: Some(9),
            ..Cli::default()
        };
        apply_cli(&mut spec, &cli);
        assert_eq!(spec.backend, plurality_core::ExecutionBackend::Counting);
        assert_eq!(spec.trials, 2);
        assert_eq!(spec.seed, 9);
    }
}
