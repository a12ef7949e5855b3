//! The count-level backends against their recorded output:
//! `fixtures/count_level_n10000_k3.tsv` holds, for every combination below
//! at n = 10⁴, k = 3, a digest of the integer per-phase quantities of an
//! 8-phase run — the opinion counts and undecided count, the received
//! totals, the inbox ceiling, the messages pushed and the live population.
//!
//! The fixture was recorded while `CountingNetwork` still had a state
//! machine of its own, before it became the single-degree-class case of
//! the block-counting network; any drift in the seeding, the fault pools,
//! the churn boundary, the noise schedule, the RNG streams or the
//! count-level decision operators fails this test. The float mixture
//! moments of the phase observation are left out.

use noisy_channel::NoiseMatrix;
use pushsim::{
    AdoptionScope, BlockCountingNetwork, ChurnSpec, CountingNetwork, DeliverySemantics, FaultSpec,
    NoiseSchedule, Opinion, PhaseObservation, PushBackend, SimConfig, TopologySpec,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

const FIXTURE: &str = include_str!("fixtures/count_level_n10000_k3.tsv");

const N: usize = 10_000;
const K: usize = 3;
const PHASES: usize = 8;
const ROUNDS: usize = 4;
const SAMPLE_SIZE: u64 = 3;
const SEED: u64 = 11;

const INSTANCES: [&str; 2] = ["rumor", "plurality"];
const OPERATORS: [&str; 5] = [
    "adopt-undecided",
    "adopt-all",
    "sample-majority",
    "undecided-state",
    "median",
];
const FAULTS: [&str; 4] = ["none", "drop(0.1)+dup(0.1)", "crash(0.2@2)", "byz(0.1:1)"];
const CHURNS: [&str; 2] = ["none", "join(0.05)+leave(0.05)"];
const SCHEDULES: [&str; 2] = ["const", "burst(0.5@2:1)"];
const SPARSE_TOPOLOGIES: [&str; 4] = ["ring", "torus", "regular(8)", "er(0.01)"];

/// One fixture row's axes: backend, topology, instance, operator, fault,
/// churn and schedule.
type Axes = [&'static str; 7];

/// Every combination the fixture covers, in its row order: the counting
/// backend on the complete graph over every valid (fault, churn, schedule)
/// triple, then the block-counting backend over the sparse families.
fn combinations() -> Vec<Axes> {
    let mut rows = Vec::new();
    for instance in INSTANCES {
        for operator in OPERATORS {
            for fault in FAULTS {
                for churn in CHURNS {
                    for schedule in SCHEDULES {
                        let axes = [
                            "counting", "complete", instance, operator, fault, churn, schedule,
                        ];
                        if config(&axes).is_ok() {
                            rows.push(axes);
                        }
                    }
                }
            }
        }
    }
    for topology in SPARSE_TOPOLOGIES {
        for instance in INSTANCES {
            for operator in OPERATORS {
                for schedule in SCHEDULES {
                    rows.push([
                        "blockcounting",
                        topology,
                        instance,
                        operator,
                        "none",
                        "none",
                        schedule,
                    ]);
                }
            }
        }
    }
    rows
}

/// The configuration of one row: process P wherever the model defines it,
/// exact delivery (run as process P) on `er(p)`.
fn config(axes: &Axes) -> Result<SimConfig, pushsim::SimError> {
    let topology: TopologySpec = axes[1].parse().unwrap();
    let delivery = if topology.is_vertex_transitive() {
        DeliverySemantics::Poissonized
    } else {
        DeliverySemantics::Exact
    };
    SimConfig::builder(N, K)
        .seed(SEED)
        .delivery(delivery)
        .topology(topology)
        .fault(axes[4].parse::<FaultSpec>().unwrap())
        .churn(axes[5].parse::<ChurnSpec>().unwrap())
        .schedule(axes[6].parse::<NoiseSchedule>().unwrap())
        .build()
}

/// FNV-1a fold of the integer per-phase quantities of one run.
fn run_digest<B: PushBackend>(mut net: B, instance: &str, operator: &str) -> u64 {
    match instance {
        "rumor" => net.seed_rumor_at(0, Opinion::new(0)).unwrap(),
        _ => net.seed_counts(&[3_000, 2_500, 2_000]).unwrap(),
    }
    let mut decide = StdRng::seed_from_u64(SEED ^ 0xdec1de);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut fold = |value: u64| {
        h ^= value;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for _ in 0..PHASES {
        net.begin_phase();
        let messages: u64 = (0..ROUNDS)
            .map(|_| net.push_opinionated_round().messages_sent())
            .sum();
        let observation = net.end_phase();
        observation
            .received_totals()
            .into_iter()
            .for_each(&mut fold);
        fold(observation.max_inbox());
        fold(messages);
        match operator {
            "adopt-undecided" => {
                net.resolve_uniform_adoption(AdoptionScope::UndecidedOnly, &mut decide);
            }
            "adopt-all" => net.resolve_uniform_adoption(AdoptionScope::AllAgents, &mut decide),
            "sample-majority" => net.resolve_sample_majority(SAMPLE_SIZE, &mut decide),
            "undecided-state" => net.resolve_undecided_state(&mut decide),
            _ => net.resolve_median(&mut decide),
        }
        let distribution = net.distribution();
        distribution.counts().iter().for_each(|&c| fold(c as u64));
        fold(distribution.undecided() as u64);
        fold(net.num_nodes() as u64);
    }
    h
}

/// The fixture row of `axes`, digest included.
fn row(axes: &Axes) -> String {
    let config = config(axes).unwrap();
    let noise = NoiseMatrix::uniform(K, 0.2).unwrap();
    let digest = match axes[0] {
        "counting" => run_digest(
            CountingNetwork::new(config, noise).unwrap(),
            axes[2],
            axes[3],
        ),
        _ => run_digest(
            BlockCountingNetwork::new(config, noise).unwrap(),
            axes[2],
            axes[3],
        ),
    };
    format!("{}\t{digest:016x}", axes.join("\t"))
}

#[test]
fn count_level_runs_reproduce_the_fixture() {
    let recorded: Vec<&str> = FIXTURE.lines().filter(|l| !l.starts_with('#')).collect();
    let combinations = combinations();
    assert_eq!(combinations.len(), 200);
    assert_eq!(recorded.len(), combinations.len());
    for (line, axes) in recorded.iter().zip(&combinations) {
        assert_eq!(row(axes), *line);
    }
}
