//! Spec validation admits every grid point against the backend the runner
//! will use there, so a spec that validates never fails admission at run
//! time: the regression specs below used to validate and then panic (or
//! fail) mid-run, and the enumeration checks `validate()` against building
//! every grid point's network by hand.

use noisy_bench::registry;
use noisy_bench::runner::Runner;
use noisy_bench::service::SpecService;
use noisy_bench::spec::{InitSpec, ScenarioKind, ScenarioSpec, SpecError};
use noisy_bench::{Cli, Scale};
use noisy_channel::{NoiseMatrix, NoiseSpec};
use noisy_serve::JobHandler;
use opinion_dynamics::RuleSpec;
use plurality_core::ExecutionBackend;
use pushsim::{
    BlockCountingNetwork, ChurnSpec, ClockSpec, CountingNetwork, DeliverySemantics, FaultSpec,
    Network, NoiseSchedule, SimConfig, TopologySpec,
};

/// Process P on a ring, forced onto the agent backend, whose deferred
/// delivery is complete-graph-only.
const RUMOR_POISSON_RING_AGENT: &str = "\
scenario = rumor
n = 256
k = 2
epsilon = 0.3
delivery = poisson
topology = ring
backend = agent
";

fn invalid(result: Result<ScenarioSpec, SpecError>) -> String {
    match result {
        Err(SpecError::Invalid(message)) => message,
        other => panic!("expected SpecError::Invalid, got {other:?}"),
    }
}

#[test]
fn poisson_on_a_ring_is_refused_for_the_agent_backend_at_load() {
    let message = invalid(ScenarioSpec::from_text(RUMOR_POISSON_RING_AGENT));
    assert!(
        message.contains("ring") && message.contains("agent backend"),
        "the error names the rule: {message}"
    );
    // The service refuses it at POST time (400), before any worker runs it.
    assert!(SpecService.plan(RUMOR_POISSON_RING_AGENT).is_err());
    // The same run on the block-counting backend, or through Auto, is fine.
    for backend in ["blockcounting", "auto"] {
        let text =
            RUMOR_POISSON_RING_AGENT.replace("backend = agent", &format!("backend = {backend}"));
        ScenarioSpec::from_text(&text)
            .expect("process P on a ring runs on the block-counting backend");
    }
}

#[test]
fn topoxl_forced_onto_the_agent_backend_is_refused_by_the_runner() {
    let mut spec = registry::find("topoxl")
        .expect("topoxl registered")
        .spec(Scale::Quick)
        .expect("topoxl is spec-backed");
    let cli = Cli {
        backend: Some(ExecutionBackend::Agent),
        ..Cli::default()
    };
    registry::apply_cli(&mut spec, &cli);
    assert!(matches!(Runner::new(spec), Err(SpecError::Invalid(_))));
}

#[test]
fn phase_scenarios_admit_against_the_agent_backend() {
    // `phase` always runs agent-level, whatever `backend` says, so process
    // P on a ring is refused even though the block-counting backend could
    // run it.
    let mut spec = ScenarioSpec::new(
        ScenarioKind::PhaseStats {
            rounds: 4,
            init: InitSpec::Biased { bias: 0.2 },
        },
        256,
        2,
    );
    spec.delivery = DeliverySemantics::Poissonized;
    spec.topology = TopologySpec::Ring;
    for backend in [ExecutionBackend::Auto, ExecutionBackend::BlockCounting] {
        spec.backend = backend;
        assert!(
            matches!(spec.validate(), Err(SpecError::Invalid(_))),
            "{backend:?}"
        );
    }
    spec.delivery = DeliverySemantics::Exact;
    spec.validate()
        .expect("process O on a ring runs agent-level");
}

const N: usize = 64;
const K: usize = 3;
const TOPOLOGIES: [&str; 5] = ["complete", "ring", "torus", "regular(4)", "er(0.1)"];

/// Builds the network the runner builds for `spec` on `topology`, through
/// `SimConfigBuilder::build`, `ExecutionBackend::resolve` and the resolved
/// backend's constructor; `true` if every step accepts it.
fn network_builds(spec: &ScenarioSpec, topology: TopologySpec, noise: &NoiseMatrix) -> bool {
    let Ok(config) = SimConfig::builder(N, K)
        .seed(spec.seed)
        .delivery(spec.delivery)
        .topology(topology)
        .fault(spec.fault)
        .churn(spec.churn)
        .schedule(spec.schedule)
        .clock(spec.clock)
        .build()
    else {
        return false;
    };
    let requested = match spec.kind {
        ScenarioKind::PhaseStats { .. } => ExecutionBackend::Agent,
        _ => spec.backend,
    };
    let noise = noise.clone();
    match requested.resolve(
        N,
        K,
        spec.delivery,
        topology,
        spec.fault,
        spec.churn,
        spec.clock,
    ) {
        ExecutionBackend::Agent => Network::new(config, noise).is_ok(),
        ExecutionBackend::Counting => CountingNetwork::new(config, noise).is_ok(),
        ExecutionBackend::BlockCounting => BlockCountingNetwork::new(config, noise).is_ok(),
        ExecutionBackend::Auto => unreachable!("resolve returns a concrete backend"),
    }
}

#[test]
fn validation_accepts_a_spec_exactly_when_every_grid_point_builds() {
    let bias = InitSpec::Biased { bias: 0.2 };
    let kinds = [
        ScenarioKind::RumorSpreading { source: 0 },
        ScenarioKind::PluralityConsensus { init: bias.clone() },
        ScenarioKind::DynamicsRule {
            rule: RuleSpec::Voter,
            init: bias.clone(),
            rounds: None,
        },
        ScenarioKind::PhaseStats {
            rounds: 4,
            init: bias,
        },
    ];
    let noise = NoiseMatrix::uniform(K, 0.3).unwrap();
    let topologies: Vec<TopologySpec> = TOPOLOGIES.iter().map(|t| t.parse().unwrap()).collect();
    let mut checked = 0;
    for kind in kinds {
        for delivery in ["exact", "balls", "poisson"] {
            for backend in ["agent", "counting", "blockcounting", "auto"] {
                for fault in ["none", "drop(0.1)", "delay(0.1)", "crash(0.1@2)"] {
                    for churn in ["none", "join(0.01)", "rewire(0.1)"] {
                        for schedule in ["const", "step(0.3@2)"] {
                            for clock in ["sync", "drift(1000)"] {
                                let mut spec = ScenarioSpec::new(kind.clone(), N, K);
                                spec.epsilon = 0.3;
                                spec.noise = NoiseSpec::Uniform { epsilon: 0.3 };
                                spec.delivery = delivery.parse().unwrap();
                                spec.backend = backend.parse().unwrap();
                                spec.fault = fault.parse::<FaultSpec>().unwrap();
                                spec.churn = churn.parse::<ChurnSpec>().unwrap();
                                spec.schedule = schedule.parse::<NoiseSchedule>().unwrap();
                                spec.clock = clock.parse::<ClockSpec>().unwrap();
                                // Faults and the temporal axes are protocol-only,
                                // a kind rule checked before any network.
                                let kind_allows = kind.is_protocol()
                                    || (spec.fault.is_none()
                                        && spec.churn.is_none()
                                        && spec.schedule.is_const()
                                        && spec.clock.is_sync());
                                // One grid point per topology, then all five
                                // topologies as one sweep.
                                for &topology in &topologies {
                                    spec.topology = topology;
                                    let builds = network_builds(&spec, topology, &noise);
                                    assert_eq!(
                                        spec.validate().is_ok(),
                                        kind_allows && builds,
                                        "{}",
                                        spec.to_text()
                                    );
                                    checked += 1;
                                }
                                spec.topology = TopologySpec::Complete;
                                spec.sweep.topology = topologies.clone();
                                let all_build =
                                    topologies.iter().all(|&t| network_builds(&spec, t, &noise));
                                assert_eq!(
                                    spec.validate().is_ok(),
                                    kind_allows && all_build,
                                    "{}",
                                    spec.to_text()
                                );
                                checked += 1;
                            }
                        }
                    }
                }
            }
        }
    }
    assert_eq!(checked, 4 * 3 * 4 * 4 * 3 * 2 * 2 * 6);
}
