//! The experiment registry: every figure and table of the reproduction,
//! runnable by name through `xp` (`xp run f2`; `xp list` names them all),
//! plus the plumbing that turns a [`ScenarioSpec`] + [`Cli`] into printed
//! output.
//!
//! Every entry is data that the one spec path runs through the [`Runner`],
//! and `xp show <name>` prints its spec text. An entry is either
//!
//! * **one spec** ([`ExperimentKind::Spec`]) — the experiment *is* one
//!   [`ScenarioSpec`] (scale-dependent grid sizes aside); or
//! * **labelled variants** ([`ExperimentKind::Variants`]) — several specs
//!   whose rows share one table, the first column naming the [`Variant`]
//!   (T1's protocol-vs-baselines comparison, A1's constant ablations, F6's
//!   noise matrices, T2's two sweeps).
//!
//! The registered names are `f1`–`f8`, `t1`–`t4`, `a1`, `topo`, `topoxl`,
//! `churn`, `burst` and `scale`.

use crate::runner::{self, Runner};
use crate::spec::{InitSpec, Metric, ObserveMode, ScenarioKind, ScenarioSpec, SpecError};
use crate::{Cli, Scale};
use gossip_analysis::table::{json_line, Table};
use noisy_channel::NoiseSpec;
use opinion_dynamics::RuleSpec;
use plurality_core::ExecutionBackend;
use pushsim::{ChurnSpec, DeliverySemantics, NoiseSchedule, TopologySpec};
use std::error::Error;

/// How an [`Experiment`] is described.
pub enum ExperimentKind {
    /// The experiment is a single [`ScenarioSpec`], produced for the
    /// requested [`Scale`].
    Spec(fn(Scale) -> ScenarioSpec),
    /// The experiment is a list of labelled specs whose rows share one
    /// table (every variant reports the same columns).
    Variants(fn(Scale) -> Vec<Variant>),
}

/// One labelled spec of an [`ExperimentKind::Variants`] entry.
#[derive(Debug, Clone, PartialEq)]
pub struct Variant {
    /// The `variant` cell of this spec's rows.
    pub label: String,
    /// The spec the variant runs.
    pub spec: ScenarioSpec,
}

/// One registered experiment.
pub struct Experiment {
    /// The short name used on the command line (`f1`, `t3`, `scale`, …).
    pub name: &'static str,
    /// A one-line description shown by `xp list`.
    pub title: &'static str,
    /// The spec or specs the experiment runs.
    pub kind: ExperimentKind,
}

impl Experiment {
    /// True for single-spec entries (the ones `xp campaign` and `xp load`
    /// accept).
    pub fn is_spec(&self) -> bool {
        matches!(self.kind, ExperimentKind::Spec(_))
    }

    /// The experiment's [`ScenarioSpec`] at the given scale, for
    /// single-spec entries.
    pub fn spec(&self, scale: Scale) -> Option<ScenarioSpec> {
        match self.kind {
            ExperimentKind::Spec(make) => Some(make(scale)),
            ExperimentKind::Variants(_) => None,
        }
    }

    /// Every spec the experiment runs at the given scale: its variants, or
    /// its one spec labelled with the experiment's name.
    pub fn variants(&self, scale: Scale) -> Vec<Variant> {
        match self.kind {
            ExperimentKind::Spec(make) => vec![Variant {
                label: self.name.to_string(),
                spec: make(scale),
            }],
            ExperimentKind::Variants(make) => make(scale),
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
/// Propagates spec validation/execution errors and write errors on stdout.
pub fn run(experiment: &Experiment, cli: &Cli) -> Result<(), Box<dyn Error>> {
    run_to(experiment, cli, &mut std::io::stdout().lock())
}

/// Runs one experiment writing its output to a caller-supplied sink —
/// the sink-generic core of [`run`]. Every spec runs through the
/// [`Runner`]; a variant entry's rows share one table whose first column
/// is `variant`, and under `--json`/`--stream` each variant's JSON lines
/// are written when that variant finishes.
///
/// # Errors
///
/// Propagates spec validation/execution errors and write errors on `out`.
pub fn run_to(
    experiment: &Experiment,
    cli: &Cli,
    out: &mut dyn std::io::Write,
) -> Result<(), Box<dyn Error>> {
    let heading = format!("{}: {}\n", experiment.name.to_uppercase(), experiment.title);
    match experiment.kind {
        ExperimentKind::Spec(make) => run_spec_to(make(cli.scale), &heading, cli, out),
        ExperimentKind::Variants(make) => {
            cli.note_to(&heading, out)?;
            run_variants_to(make(cli.scale), cli, out)
        }
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
        // A write error stays an I/O error, as on the other output paths.
        runner.run_streamed(out).map_err(|e| match e {
            SpecError::Write(e) => Box::new(e) as Box<dyn Error>,
            e => e.into(),
        })?;
    } else {
        cli.emit_to(&runner.run()?.to_table(), out)?;
    }
    Ok(())
}

/// Runs each variant with the CLI's overrides and renders its rows
/// (`runner::headers`/`runner::point_rows`) behind a `variant` column:
/// as JSON lines per finished variant under `--json`/`--stream`, as one
/// aligned table at the end otherwise.
fn run_variants_to(
    variants: Vec<Variant>,
    cli: &Cli,
    out: &mut dyn std::io::Write,
) -> Result<(), Box<dyn Error>> {
    let mut table: Option<Table> = None;
    for Variant { label, mut spec } in variants {
        apply_cli(&mut spec, cli);
        let report = Runner::new(spec)?.run()?;
        let headers: Vec<String> = std::iter::once("variant".to_string())
            .chain(runner::headers(report.spec()))
            .collect();
        let rows = report.points().iter().flat_map(|result| {
            runner::point_rows(report.spec(), result)
                .into_iter()
                .map(|row| {
                    std::iter::once(label.clone())
                        .chain(row)
                        .collect::<Vec<_>>()
                })
        });
        if cli.json || cli.stream {
            for row in rows {
                writeln!(out, "{}", json_line(&headers, &row))?;
            }
            out.flush()?;
        } else {
            let table = table.get_or_insert_with(|| Table::new(headers));
            rows.for_each(|row| table.push_row(row));
        }
    }
    if let Some(table) = table {
        write!(out, "{table}")?;
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
        kind: ExperimentKind::Variants(f6_variants),
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
        kind: ExperimentKind::Variants(t1_variants),
    },
    Experiment {
        name: "t2",
        title: "per-node memory footprint vs the log log n + log 1/eps scale",
        kind: ExperimentKind::Variants(t2_variants),
    },
    Experiment {
        name: "t3",
        title: "Stage 1 activation growth and end-of-stage bias (Claims 2-3, Lemma 4)",
        kind: ExperimentKind::Spec(t3_spec),
    },
    Experiment {
        name: "t4",
        title: "parity of the Stage 2 sample size (Lemma 17), exact evaluation",
        kind: ExperimentKind::Spec(t4_spec),
    },
    Experiment {
        name: "a1",
        title: "protocol ablations: Stage 2 samples, Stage 1 final phase, schedule eps",
        kind: ExperimentKind::Variants(a1_variants),
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
        title: "full protocol at n = 10^6 and 10^7 (10^7 and 10^8 with --full) on the counting backend",
        kind: ExperimentKind::Spec(scale_spec),
    },
];

// ---------------------------------------------------------------------------
// Single-spec experiments.
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
        ChurnSpec::default(),
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
        ChurnSpec::default(),
        "burst(0.3@3)".parse().expect("valid churn"),
    ];
    spec
}

/// T4 — Lemma 17 (Appendix C): removing the parity assumption. A `k = 2`
/// `gap` spec reporting the exact binomial gap: each odd ℓ of the sweep
/// sits next to ℓ+1 and ℓ+2, and δ = 2p₁ − 1 for the majority-opinion
/// probabilities p₁ ∈ {0.5, 0.52, 0.55, 0.6, 0.7, 0.9}.
///
/// Lemma 17 predicts `gap(ℓ) = gap(ℓ+1) ≤ gap(ℓ+2)` for every odd ℓ. It is
/// stated for `Pr[maj = 1]`; the gap `Pr[maj = 1] − Pr[maj = 2]` inherits
/// both relations because the two probabilities sum to 1.
fn t4_spec(_scale: Scale) -> ScenarioSpec {
    // The gap is evaluated below the simulation level; n is unused.
    let mut spec = ScenarioSpec::new(ScenarioKind::SampleMajorityGap { ell: 5, delta: 0.0 }, 1, 2);
    spec.sweep.ell = [5, 11, 21, 51, 101]
        .into_iter()
        .flat_map(|ell| [ell, ell + 1, ell + 2])
        .collect();
    spec.sweep.delta = vec![0.0, 0.04, 0.1, 0.2, 0.4, 0.8];
    spec.metrics = vec![Metric::GapExact];
    spec
}

/// `scale` — the count-based backend at sizes the agent-level simulator
/// cannot touch: the full two-stage protocol at n = 10⁶ and 10⁷ (10⁷ and
/// 10⁸ with `--full`). `bias = 0.1` is exactly a 40% / 30% / 30% split: a
/// plurality but far from an absolute majority.
///
/// Poissonized delivery is requested *explicitly*: the counting backend
/// only implements process P, and the semantics-preserving `Auto` policy
/// never swaps an exact-delivery run onto it, so stating the process keeps
/// `Auto` resolving to the O(k²)-per-phase engine these sizes need. The
/// same runs on the agent-level backend would push ~n log n messages
/// individually.
fn scale_spec(scale: Scale) -> ScenarioSpec {
    let sizes = scale.pick(vec![1_000_000, 10_000_000], vec![10_000_000, 100_000_000]);
    let mut spec = ScenarioSpec::new(
        ScenarioKind::PluralityConsensus {
            init: InitSpec::Biased { bias: 0.1 },
        },
        sizes[0],
        3,
    );
    spec.epsilon = 0.25;
    spec.noise = NoiseSpec::Uniform { epsilon: 0.25 };
    spec.delivery = DeliverySemantics::Poissonized;
    spec.seed = 7;
    spec.sweep.n = sizes;
    spec.metrics = vec![
        Metric::Rounds,
        Metric::Messages,
        Metric::Share,
        Metric::Success,
    ];
    spec
}

// ---------------------------------------------------------------------------
// Variant experiments (labelled specs sharing one table).
// ---------------------------------------------------------------------------

/// T1 — headline comparison: the two-stage protocol vs the baseline
/// dynamics on the same instance (k = 3, ε = 0.25, initial bias 0.1), same
/// noise, same round budget: a dynamics spec without `rounds` runs for the
/// protocol's schedule length. Only the protocol reliably reaches exact
/// consensus on the correct opinion.
fn t1_variants(scale: Scale) -> Vec<Variant> {
    let init = InitSpec::Biased { bias: 0.1 };
    let variant = |label: String, kind: ScenarioKind, seed: u64| {
        let mut spec = ScenarioSpec::new(kind, scale.pick(2_000, 10_000), 3);
        spec.epsilon = 0.25;
        spec.noise = NoiseSpec::Uniform { epsilon: 0.25 };
        spec.trials = scale.pick(5, 20);
        spec.seed = seed;
        spec.metrics = vec![
            Metric::Consensus,
            Metric::Correct,
            Metric::Share,
            Metric::Rounds,
        ];
        Variant { label, spec }
    };
    let protocol = ScenarioKind::PluralityConsensus { init: init.clone() };
    std::iter::once(variant("two-stage protocol".into(), protocol, 0x71))
        .chain(RuleSpec::ALL.into_iter().map(|rule| {
            let kind = ScenarioKind::DynamicsRule {
                rule,
                init: init.clone(),
                rounds: None,
            };
            variant(rule.to_string(), kind, 0x72)
        }))
        .collect()
}

/// T2 — the memory claim of Theorems 1 and 2: `O(log log n + log 1/ε)`
/// bits per node. Two rumor sweeps, over n at ε = 0.25 and over ε at fixed
/// n, each with an `n` and an `eps` column; `memory_bits_norm` divides the
/// measured bits by `log₂ log₂ n + log₂(1/ε)`. The ratio stays bounded by a
/// modest constant across two orders of magnitude in n, which is the
/// claim at simulable sizes.
fn t2_variants(scale: Scale) -> Vec<Variant> {
    let variant = |label: &str, mut spec: ScenarioSpec, seed: u64| {
        spec.trials = scale.pick(3, 10);
        spec.seed = seed;
        spec.metrics = vec![Metric::MemoryBits, Metric::MemoryBitsNorm, Metric::Success];
        Variant {
            label: label.to_string(),
            spec,
        }
    };
    let mut over_n = ScenarioSpec::new(ScenarioKind::RumorSpreading { source: 0 }, 2_000, 3);
    over_n.epsilon = 0.25;
    over_n.noise = NoiseSpec::Uniform { epsilon: 0.25 };
    over_n.sweep.n = scale.pick(
        vec![1_000, 4_000, 16_000],
        vec![1_000, 4_000, 16_000, 64_000],
    );
    over_n.sweep.eps = vec![0.25];
    let n = scale.pick(2_000, 10_000);
    let mut over_eps = ScenarioSpec::new(ScenarioKind::RumorSpreading { source: 0 }, n, 3);
    over_eps.sweep.n = vec![n];
    over_eps.sweep.eps = vec![0.1, 0.2, 0.4];
    vec![
        variant("n sweep", over_n, 0x72),
        variant("eps sweep", over_eps, 0x73),
    ]
}

/// A1 — ablations of the protocol's design choices: each variant is the
/// same rumor spec with different `constants.*` overrides (or a schedule ε
/// decoupled from the channel ε), run against the same ε = 0.2 channel.
/// The baseline and the larger-sample variant succeed; starving Stage 2
/// samples, the Stage-1 final phase, or the schedule's ε costs reliability
/// — these are the design choices the paper's constants protect.
fn a1_variants(scale: Scale) -> Vec<Variant> {
    let channel_eps = 0.2;
    let variant = |label: &str, overrides: &[(&str, f64)], schedule_eps: f64| {
        let n = scale.pick(2_000, 10_000);
        let mut spec = ScenarioSpec::new(ScenarioKind::RumorSpreading { source: 0 }, n, 3);
        spec.epsilon = schedule_eps;
        // The channel stays at ε = 0.2 even when the schedule assumes
        // more: the noise is pinned explicitly, not derived per point.
        spec.noise = NoiseSpec::Uniform {
            epsilon: channel_eps,
        };
        for &(name, value) in overrides {
            assert!(spec.constants.set(name, value), "known constant name");
        }
        spec.trials = scale.pick(5, 20);
        spec.seed = 0xA1;
        spec.metrics = vec![Metric::Success, Metric::Rounds, Metric::Stage1Bias];
        Variant {
            label: label.to_string(),
            spec,
        }
    };
    vec![
        variant("baseline (default constants)", &[], channel_eps),
        variant(
            "tiny Stage-2 samples (c = 0.25)",
            &[("c", 0.25)],
            channel_eps,
        ),
        variant(
            "large Stage-2 samples (c = 12)",
            &[("c", 12.0)],
            channel_eps,
        ),
        variant(
            "short Stage-1 final phase (phi = 0.3)",
            &[("s", 0.1), ("beta", 0.2), ("phi", 0.3)],
            channel_eps,
        ),
        variant("schedule assumes eps = 0.4 (channel has 0.2)", &[], 0.4),
    ]
}

/// F6 — Section 4: the (ε, δ)-majority-preserving characterization. One
/// plurality spec (towards opinion 0, initial bias δ = 0.1) per noise
/// matrix family; the `mp_*` columns give the LP's worst-case margin, the
/// largest certified ε and its verdict, next to end-to-end success.
///
/// The paper predicts that rows with `m.p.? = true` succeed with rate ~1
/// and rows with `m.p.? = false` fail: the plurality is destroyed by the
/// channel itself.
fn f6_variants(scale: Scale) -> Vec<Variant> {
    let bias = 0.1;
    let variant = |label: &str, noise: &str| {
        let noise: NoiseSpec = noise.parse().expect("valid noise spec");
        let report = noise
            .build(3)
            .and_then(|matrix| matrix.majority_preservation(0, bias))
            .expect("a valid k = 3 matrix");
        let mut spec = ScenarioSpec::new(
            ScenarioKind::PluralityConsensus {
                init: InitSpec::Biased { bias },
            },
            scale.pick(1_500, 10_000),
            3,
        );
        // Provision the schedule for half the matrix's own margin (a
        // practitioner would leave headroom; the clamp keeps the non-m.p.
        // rows, whose margin is 0, on a finite schedule).
        spec.epsilon = (0.5 * report.max_epsilon()).clamp(0.05, 0.4);
        spec.noise = noise;
        spec.trials = scale.pick(5, 20);
        spec.seed = 0xF6;
        spec.metrics = vec![
            Metric::MpMargin,
            Metric::MpMaxEps,
            Metric::MpHolds,
            Metric::Success,
        ];
        Variant {
            label: label.to_string(),
            spec,
        }
    };
    vec![
        variant("uniform eps=0.2 (k=3)", "uniform(0.2)"),
        variant("uniform eps=0.1 (k=3)", "uniform(0.1)"),
        variant("diag-dominant counterexample eps=0.05", "diag(0.05)"),
        variant("diag-dominant counterexample eps=0.45", "diag(0.45)"),
        variant("cyclic lambda=0.05 (k=3)", "cyclic(0.05)"),
        variant("reset->1 lambda=0.4 (k=3)", "reset(0.4, 1)"),
        variant(
            "band p=0.5 q=[0.24,0.26] (k=3, Eq.17)",
            "band(0.5, 0.24, 0.26)",
        ),
    ]
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
            assert_eq!(spec.sweep.num_points(), Some(6), "3 schedules x 2 churns");
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
            for Variant { label, spec } in experiment.variants(Scale::Quick) {
                let text = spec.to_text();
                let parsed = ScenarioSpec::from_text(&text)
                    .unwrap_or_else(|e| panic!("{} {label} spec must parse: {e}", experiment.name));
                assert_eq!(parsed, spec, "{} {label} round-trips", experiment.name);
            }
        }
        assert!(find("f2").unwrap().is_spec());
        assert!(!find("t1").unwrap().is_spec());
        assert!(find("t1").unwrap().spec(Scale::Quick).is_none());
    }

    #[test]
    fn the_variants_of_each_list_share_one_header_row() {
        for experiment in all().iter().filter(|e| !e.is_spec()) {
            for scale in [Scale::Quick, Scale::Full] {
                let variants = experiment.variants(scale);
                assert!(variants.len() >= 2, "{} lists variants", experiment.name);
                let first = crate::runner::headers(&variants[0].spec);
                for variant in &variants {
                    assert_eq!(
                        crate::runner::headers(&variant.spec),
                        first,
                        "{} {} at {scale:?}",
                        experiment.name,
                        variant.label
                    );
                }
            }
        }
    }

    #[test]
    fn t4_report_satisfies_lemma_17() {
        let report = Runner::new(t4_spec(Scale::Quick)).unwrap().run().unwrap();
        assert_eq!(report.points().len(), 90);
        let exact = |ell: u64, delta: f64| {
            report
                .points()
                .iter()
                .find(|p| p.point.ell == Some(ell) && p.point.delta == Some(delta))
                .and_then(|p| match &p.summary {
                    crate::runner::PointSummary::Gap(gap) => gap.exact,
                    _ => None,
                })
                .unwrap_or_else(|| panic!("no exact gap at ell = {ell}, delta = {delta}"))
        };
        let spec = report.spec();
        // The ℓ axis holds each odd ℓ next to ℓ+1 and ℓ+2.
        for triple in spec.sweep.ell.chunks(3) {
            let ell = triple[0];
            assert_eq!((ell % 2, triple), (1, &[ell, ell + 1, ell + 2][..]));
            for &delta in &spec.sweep.delta {
                let (g0, g1, g2) = (
                    exact(ell, delta),
                    exact(ell + 1, delta),
                    exact(ell + 2, delta),
                );
                assert!(
                    (g0 - g1).abs() < 1e-9,
                    "gap({ell}) != gap({}) at {delta}",
                    ell + 1
                );
                assert!(g2 >= g0 - 1e-9, "gap({}) < gap({ell}) at {delta}", ell + 2);
            }
        }
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
