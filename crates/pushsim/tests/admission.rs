//! The admission table against the simulator as it behaved before the
//! table existed: `fixtures/admission_n64_k3.tsv` records, for every
//! combination of delivery, topology, requested backend, fault, churn,
//! schedule and clock at n = 64, k = 3, whether `SimConfigBuilder::build`
//! accepts it, which backend `ExecutionBackend::resolve` picks, and whether
//! that backend's constructor accepts the built config. README.md's support
//! matrices are rendered from the same table.

use noisy_channel::NoiseMatrix;
use pushsim::admission::{
    Capability, CostModel, DeliverySupport, FaultSupport, AGENT_NS_PER_AGENT_OPINION, CAPABILITIES,
    COUNTING_NS_PER_CELL, MODEL_DELIVERY_TOPOLOGIES,
};
use pushsim::{
    admit, BlockCountingNetwork, ChurnSpec, ClockSpec, CountingNetwork, DeliverySemantics,
    ExecutionBackend, FaultSpec, Network, NoiseSchedule, Resolved, SimConfig, TopologyCapability,
    TopologySpec,
};

const FIXTURE: &str = include_str!("fixtures/admission_n64_k3.tsv");

const DELIVERIES: [&str; 3] = ["exact", "balls", "poisson"];
const TOPOLOGIES: [&str; 5] = ["complete", "ring", "torus", "regular(4)", "er(0.1)"];
const BACKENDS: [&str; 4] = ["agent", "counting", "blockcounting", "auto"];
const FAULTS: [&str; 4] = ["none", "drop(0.1)", "delay(0.1)", "crash(0.1@2)"];
const CHURNS: [&str; 3] = ["none", "join(0.01)", "rewire(0.1)"];
const SCHEDULES: [&str; 2] = ["const", "step(0.3@2)"];
const CLOCKS: [&str; 2] = ["sync", "drift(1000)"];

/// Every combination of the axes, in the fixture's row order.
fn combinations() -> Vec<[&'static str; 7]> {
    let mut rows = Vec::new();
    for d in DELIVERIES {
        for t in TOPOLOGIES {
            for b in BACKENDS {
                for f in FAULTS {
                    for c in CHURNS {
                        for s in SCHEDULES {
                            for cl in CLOCKS {
                                rows.push([d, t, b, f, c, s, cl]);
                            }
                        }
                    }
                }
            }
        }
    }
    rows
}

#[test]
fn build_resolve_and_construction_reproduce_the_fixture() {
    let noise = NoiseMatrix::uniform(3, 0.3).unwrap();
    let recorded: Vec<&str> = FIXTURE.lines().filter(|l| !l.starts_with('#')).collect();
    let combinations = combinations();
    assert_eq!(recorded.len(), combinations.len());
    assert_eq!(combinations.len(), 2880);
    for (line, axes) in recorded.iter().zip(&combinations) {
        let fields: Vec<&str> = line.split('\t').collect();
        assert_eq!(
            fields[..7],
            axes[..],
            "fixture row out of enumeration order"
        );
        let [build, resolved, construct] = fields[7..] else {
            panic!("malformed fixture row: {line}");
        };
        let delivery: DeliverySemantics = axes[0].parse().unwrap();
        let topology: TopologySpec = axes[1].parse().unwrap();
        let backend: ExecutionBackend = axes[2].parse().unwrap();
        let fault: FaultSpec = axes[3].parse().unwrap();
        let churn: ChurnSpec = axes[4].parse().unwrap();
        let schedule: NoiseSchedule = axes[5].parse().unwrap();
        let clock: ClockSpec = axes[6].parse().unwrap();

        let resolved_now = backend.resolve(64, 3, delivery, topology, fault, churn, clock);
        assert_eq!(resolved_now.to_string(), resolved, "resolve: {line}");

        let built = SimConfig::builder(64, 3)
            .seed(7)
            .delivery(delivery)
            .topology(topology)
            .fault(fault)
            .churn(churn)
            .schedule(schedule)
            .clock(clock)
            .build();
        let Ok(config) = built else {
            assert_eq!((build, construct), ("err", "-"), "build: {line}");
            continue;
        };
        assert_eq!(build, "ok", "build: {line}");
        let constructed = match resolved_now {
            ExecutionBackend::Agent => Network::new(config.clone(), noise.clone()).is_ok(),
            ExecutionBackend::Counting => {
                CountingNetwork::new(config.clone(), noise.clone()).is_ok()
            }
            ExecutionBackend::BlockCounting => {
                BlockCountingNetwork::new(config.clone(), noise.clone()).is_ok()
            }
            ExecutionBackend::Auto => unreachable!("resolve returns a concrete backend"),
        };
        assert_eq!(constructed, construct == "ok", "construction: {line}");

        // The admission function agrees with the constructor, and resolves
        // to the backend `resolve` names.
        let admitted = admit(&config, backend);
        assert_eq!(admitted.is_ok(), constructed, "admission: {line}");
        if let Ok(resolved) = admitted {
            assert_eq!(
                ExecutionBackend::from(resolved),
                resolved_now,
                "admission: {line}"
            );
        }
    }
}

/// One markdown table: a header row, the separator, then the rows.
fn table(headers: &[&str], rows: &[(&str, Vec<String>)]) -> String {
    let mut out = format!(
        "| {} |\n|{}\n",
        headers.join(" | "),
        "---|".repeat(headers.len())
    );
    for (label, cells) in rows {
        out += &format!("| {label} | {} |\n", cells.join(" | "));
    }
    out
}

/// Renders one backend's cell of a table row from its capability row.
type Cell<'a> = &'a dyn Fn(&Capability) -> String;

/// A table with one column per backend, each row's cells computed from the
/// backend's capability row.
fn backend_table(corner: &str, rows: &[(&str, Cell)]) -> String {
    let mut headers = vec![corner];
    headers.extend(CAPABILITIES.iter().map(|row| column(row.backend)));
    let rows: Vec<(&str, Vec<String>)> = rows
        .iter()
        .map(|(label, cell)| (*label, CAPABILITIES.iter().map(cell).collect()))
        .collect();
    table(&headers, &rows)
}

fn column(backend: Resolved) -> &'static str {
    match backend {
        Resolved::Agent => "`Network` (agent)",
        Resolved::Counting => "`CountingNetwork` (counting)",
        Resolved::BlockCounting => "`BlockCountingNetwork` (block-counting)",
    }
}

fn topologies(capability: TopologyCapability) -> &'static str {
    match capability {
        TopologyCapability::Complete => "the complete graph",
        TopologyCapability::VertexTransitive => "vertex-transitive topologies",
        TopologyCapability::Any => "any topology",
    }
}

fn supported(yes: bool) -> String {
    if yes { "supported" } else { "**rejected**" }.to_string()
}

/// The support matrices README.md shows, rendered from the admission table.
fn support_matrices() -> [String; 5] {
    let processes = [
        "**O** — exact push",
        "**B** — balls-into-bins",
        "**P** — Poissonized",
    ];
    let mut headers = vec!["process", "defined on"];
    headers.extend(CAPABILITIES.iter().map(|row| column(row.backend)));
    let rows: Vec<(&str, Vec<String>)> = processes
        .iter()
        .enumerate()
        .map(|(i, label)| {
            let mut cells = vec![topologies(MODEL_DELIVERY_TOPOLOGIES[i]).to_string()];
            cells.extend(CAPABILITIES.iter().map(|row| match row.deliveries[i] {
                DeliverySupport::Native(TopologyCapability::Any) => "native".to_string(),
                DeliverySupport::Native(on) => format!("native on {}", topologies(on)),
                DeliverySupport::AsPoissonized => "runs as process P".to_string(),
            }));
            (*label, cells)
        })
        .collect();
    let deliveries = table(&headers, &rows);

    let on = |spec: TopologySpec| {
        move |row: &Capability| {
            if row.certified.supports(spec) {
                "certified".to_string()
            } else if row.accepted.supports(spec) {
                "explicit request only".to_string()
            } else {
                "**rejected**".to_string()
            }
        }
    };
    let topology = backend_table(
        "topology",
        &[
            ("`complete`", &on(TopologySpec::Complete)),
            ("`ring` / `torus` / `regular(d)`", &on(TopologySpec::Ring)),
            ("`er(p)`", &on(TopologySpec::ErdosRenyi { p: 0.1 })),
        ],
    );
    let faults = backend_table(
        "fault family",
        &[
            ("`drop` / `dup` / `crash` / `byz`", &|row| {
                supported(row.faults != FaultSupport::Nothing)
            }),
            ("`delay`", &|row| supported(row.faults == FaultSupport::All)),
        ],
    );
    let temporal = backend_table(
        "temporal axis",
        &[
            ("population churn (`join` / `leave` / `burst`)", &|row| {
                supported(row.temporal.population_churn)
            }),
            ("edge churn (`rewire`)", &|row| {
                supported(row.temporal.edge_churn)
            }),
            ("noise schedules", &|row| {
                supported(row.temporal.noise_schedule)
            }),
            ("clock models (`drift` / `skew`)", &|row| {
                supported(row.temporal.clock)
            }),
        ],
    );
    let cost = backend_table(
        "`Auto`",
        &[("cost per phase", &|row| match row.cost {
            CostModel::PerAgentOpinion => format!("{AGENT_NS_PER_AGENT_OPINION} ns · n · k"),
            CostModel::PerNoiseCell => format!("{COUNTING_NS_PER_CELL} ns · k²"),
        })],
    );
    [deliveries, topology, faults, temporal, cost]
}

#[test]
fn readme_matrices_match_the_admission_table() {
    let readme = include_str!("../../../README.md");
    let missing: Vec<String> = support_matrices()
        .into_iter()
        .filter(|matrix| !readme.contains(matrix))
        .collect();
    assert!(
        missing.is_empty(),
        "README.md is missing these support matrices, rendered from the admission table:\n\n{}",
        missing.join("\n")
    );
}
