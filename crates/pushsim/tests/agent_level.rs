//! The agent backend against its recorded output:
//! `fixtures/agent_level_n500_k3.tsv` holds, for every configuration below
//! that the agent backend admits, at n = 500, k = 3, a digest of a 4-phase
//! run — every agent's per-opinion inbox counts and the messages pushed in
//! every round, the opinion counts and undecided count after every
//! decision. The first three phases end in uniform adoption by the
//! undecided agents, the last in a sample-majority decision.
//!
//! The fixture was recorded from the per-agent push loop that tested the
//! faults, the clock gate, the topology and the delivery process for every
//! agent; any reordered or extra draw on the delivery, fault, clock or
//! decision stream — a faulty, clocked or sparse run included — fails this
//! test.

use noisy_channel::NoiseMatrix;
use pushsim::{
    admit, AdoptionScope, ClockSpec, DeliverySemantics, ExecutionBackend, FaultSpec, Network,
    PushBackend, SimConfig, SimError, TopologySpec,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

const FIXTURE: &str = include_str!("fixtures/agent_level_n500_k3.tsv");

const N: usize = 500;
const K: usize = 3;
const PHASES: usize = 4;
const ROUNDS: usize = 6;
const SAMPLE_SIZE: u64 = 3;
const SEED: u64 = 0xA6E7;

const TOPOLOGIES: [&str; 4] = ["complete", "ring", "regular(8)", "er(0.05)"];
const FAULTS: [&str; 4] = [
    "none",
    "drop(0.1)+dup(0.1)+delay(0.1)",
    "crash(0.2@1)",
    "byz(0.1:1)",
];
const CLOCKS: [&str; 3] = ["sync", "drift(200000)", "skew(0.2)"];
const DELIVERIES: [&str; 3] = ["exact", "balls", "poisson"];

/// One fixture row's axes: topology, fault, clock and delivery.
type Axes = [&'static str; 4];

/// Every combination the fixture covers, in its row order: the full grid
/// minus what the model or the agent backend's admission row refuses.
fn combinations() -> Vec<Axes> {
    let mut rows = Vec::new();
    for topology in TOPOLOGIES {
        for fault in FAULTS {
            for clock in CLOCKS {
                for delivery in DELIVERIES {
                    let axes = [topology, fault, clock, delivery];
                    if config(&axes).is_ok() {
                        rows.push(axes);
                    }
                }
            }
        }
    }
    rows
}

/// The configuration of one row, if the agent backend admits it.
fn config(axes: &Axes) -> Result<SimConfig, SimError> {
    let config = SimConfig::builder(N, K)
        .seed(SEED)
        .topology(axes[0].parse::<TopologySpec>().unwrap())
        .fault(axes[1].parse::<FaultSpec>().unwrap())
        .clock(axes[2].parse::<ClockSpec>().unwrap())
        .delivery(axes[3].parse::<DeliverySemantics>().unwrap())
        .build()?;
    admit(&config, ExecutionBackend::Agent)?;
    Ok(config)
}

/// FNV-1a fold of the per-phase inboxes and opinion counts of one run.
fn run_digest(config: SimConfig) -> u64 {
    let mut net = Network::new(config, NoiseMatrix::uniform(K, 0.2).unwrap()).unwrap();
    net.seed_counts(&[200, 100, 50]).unwrap();
    let mut decide = StdRng::seed_from_u64(SEED ^ 0xdec1de);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut fold = |value: u64| {
        h ^= value;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for phase in 0..PHASES {
        net.begin_phase();
        for _ in 0..ROUNDS {
            fold(net.push_round(|_, s| s.opinion()).messages_sent());
        }
        let inboxes = net.end_phase();
        for node in 0..inboxes.num_nodes() {
            inboxes
                .received(node)
                .iter()
                .for_each(|&c| fold(u64::from(c)));
        }
        fold(inboxes.total_messages());
        if phase + 1 < PHASES {
            net.resolve_uniform_adoption(AdoptionScope::UndecidedOnly, &mut decide);
        } else {
            net.resolve_sample_majority(SAMPLE_SIZE, &mut decide);
        }
        net.opinion_counts().iter().for_each(|&c| fold(c as u64));
        fold(net.undecided() as u64);
    }
    h
}

/// The fixture row of `axes`, digest included.
fn row(axes: &Axes) -> String {
    let digest = run_digest(config(axes).unwrap());
    format!("{}\t{digest:016x}", axes.join("\t"))
}

#[test]
fn agent_runs_reproduce_the_fixture() {
    let recorded: Vec<&str> = FIXTURE.lines().filter(|l| !l.starts_with('#')).collect();
    let combinations = combinations();
    assert_eq!(combinations.len(), 45);
    assert_eq!(recorded.len(), combinations.len());
    for (line, axes) in recorded.iter().zip(&combinations) {
        assert_eq!(row(axes), *line);
    }
}
