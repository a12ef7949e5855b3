//! Backend admission: which backend may simulate which configuration.
//!
//! Two layers of rules decide whether a [`SimConfig`] runs, and on what:
//!
//! * **Model rules** hold for every backend, because the model itself gives
//!   the combination no meaning (process B on a sparse graph, faults off
//!   the complete graph, …). [`SimConfigBuilder::build`] enforces them, so
//!   every `SimConfig` satisfies them.
//! * **Backend capabilities** are data: one [`Capability`] row per backend
//!   in [`CAPABILITIES`] lists the topologies, delivery processes, fault
//!   families and temporal features it simulates, and what a phase costs.
//!
//! [`admit`] resolves a requested [`ExecutionBackend`] against a config: an
//! explicit request is checked against its row, [`Auto`] picks the cheapest
//! row that *certifies* the config (simulates its delivery process natively
//! on a certified topology), so `Auto` never changes the process that runs.
//! The answer is a [`Resolved`] backend or the [`SimError`] naming the rule
//! that rejected the request. The backend constructors and
//! [`build_and_visit`] — the one place a network of the resolved kind is
//! built — go through it.
//!
//! [`SimConfigBuilder::build`]: crate::SimConfigBuilder::build
//! [`Auto`]: ExecutionBackend::Auto

use crate::backend::{PushBackend, TopologyCapability};
use crate::blockcounting::{BlockCountingNetwork, CountingNetwork};
use crate::config::{DeliverySemantics, SimConfig};
use crate::error::SimError;
use crate::fault::FaultSpec;
use crate::network::Network;
use crate::temporal::{ChurnSpec, ClockSpec, TemporalCapability};
use crate::topology::TopologySpec;
use noisy_channel::NoiseMatrix;

/// Calibrated agent-backend phase cost: nanoseconds per (agent × opinion).
/// From `BENCH_pushsim.json` (`pushsim_phase_scaling/agent_batched_B`:
/// ≈ 460 µs per phase at n = 10⁵, k = 3).
pub const AGENT_NS_PER_AGENT_OPINION: f64 = 1.5;

/// Calibrated counting-backend phase cost: nanoseconds per noise-matrix
/// cell. From `BENCH_pushsim.json` (`pushsim_phase_scaling/counting_P`:
/// ≈ 470 ns per phase at k = 3, independent of n).
pub const COUNTING_NS_PER_CELL: f64 = 50.0;

/// Which simulation backend a run executes on.
///
/// * [`Agent`](ExecutionBackend::Agent) — the agent-level [`Network`]:
///   every agent is tracked individually and per-phase cost scales with the
///   message volume. This is the reference backend.
/// * [`Counting`](ExecutionBackend::Counting) — the count-based
///   [`CountingNetwork`]: the population is a `k`-vector of opinion counts,
///   each phase costs O(k²) random draws regardless of `n`, and the
///   dynamics follow the paper's Poissonized process P (Definition 4); at
///   phase granularity this is the process the paper's own analysis
///   transfers to the real push process (Claim 1, Lemma 3). Two bounded
///   approximations apply at large scale: Poisson tails beyond mean 600 use
///   a normal approximation (error < 10⁻³), and sample-majority adoption
///   beyond 65 536 switchers per phase uses an empirical-frequency bulk
///   split (≈ 0.4% perturbation); see the [`counting`](crate::counting)
///   docs.
/// * [`BlockCounting`](ExecutionBackend::BlockCounting) — the degree-class
///   [`BlockCountingNetwork`]: a `C × k` matrix of (degree-class, opinion)
///   counts, O(k²·C) draws per phase, process P restricted by the
///   class-to-class edge structure.
/// * [`Auto`](ExecutionBackend::Auto) — picks one of the three per run; see
///   [`admit`].
///
/// The two count-level backends are one network,
/// [`CountLevelNetwork`](crate::blockcounting::CountLevelNetwork), which
/// checks its configuration against the [`COUNTING`] or the
/// [`BLOCK_COUNTING`] row; a single-class configuration both rows admit
/// runs bit-for-bit the same on either. See the
/// [`blockcounting`](crate::blockcounting) docs.
///
/// What each backend accepts is its row of [`CAPABILITIES`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ExecutionBackend {
    /// Agent-level simulation (exact for the configured delivery process).
    #[default]
    Agent,
    /// Count-based simulation (process P at population level, O(k²)/phase).
    Counting,
    /// Degree-class block-counting simulation (process P per degree class,
    /// O(k²·C)/phase on sparse vertex-transitive topologies).
    BlockCounting,
    /// Choose automatically per run, **without changing semantics**: only
    /// backends that simulate the requested delivery process natively on a
    /// topology they certify are eligible, and the calibrated cost model
    /// picks the cheapest of them.
    Auto,
}

impl ExecutionBackend {
    /// Resolves this request to a concrete backend ([`Agent`](Self::Agent),
    /// [`Counting`](Self::Counting) or [`BlockCounting`](Self::BlockCounting)
    /// — never [`Auto`](Self::Auto)) for a run with `num_nodes` agents,
    /// `num_opinions` opinions and the given delivery, topology, fault,
    /// churn and clock.
    ///
    /// Explicit requests are returned unchanged; `Auto` follows the policy
    /// of [`admit`]. When no backend certifies the combination, `Auto`
    /// resolves to `Agent`, whose constructor then reports the rule that
    /// rejects it.
    // One parameter per resolution-relevant configuration axis; bundling
    // them into a struct would just move the field list one call up.
    #[allow(clippy::too_many_arguments)]
    pub fn resolve(
        self,
        num_nodes: usize,
        num_opinions: usize,
        delivery: DeliverySemantics,
        topology: TopologySpec,
        fault: FaultSpec,
        churn: ChurnSpec,
        clock: ClockSpec,
    ) -> ExecutionBackend {
        let config = SimConfig::builder(num_nodes, num_opinions)
            .delivery(delivery)
            .topology(topology)
            .fault(fault)
            .churn(churn)
            .clock(clock)
            .unchecked();
        choose(&config, self).into()
    }
}

impl std::str::FromStr for ExecutionBackend {
    type Err = String;

    /// Parses `"agent"`, `"counting"`, `"blockcounting"` (also spelled
    /// `"block-counting"` or `"block"`) or `"auto"` (case-insensitive) —
    /// the spelling of the `--backend` flag of `xp`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "agent" => Ok(ExecutionBackend::Agent),
            "counting" => Ok(ExecutionBackend::Counting),
            "blockcounting" | "block-counting" | "block" => Ok(ExecutionBackend::BlockCounting),
            "auto" => Ok(ExecutionBackend::Auto),
            other => Err(format!(
                "unknown backend {other:?} (expected agent, counting, blockcounting or auto)"
            )),
        }
    }
}

impl std::fmt::Display for ExecutionBackend {
    /// The spelling [`FromStr`](std::str::FromStr) accepts back.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ExecutionBackend::Agent => "agent",
            ExecutionBackend::Counting => "counting",
            ExecutionBackend::BlockCounting => "blockcounting",
            ExecutionBackend::Auto => "auto",
        })
    }
}

/// A concrete backend: what an [`ExecutionBackend`] request resolves to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Resolved {
    /// The agent-level [`Network`].
    Agent,
    /// The count-based [`CountingNetwork`].
    Counting,
    /// The degree-class [`BlockCountingNetwork`].
    BlockCounting,
}

impl Resolved {
    /// This backend's row of [`CAPABILITIES`].
    pub fn capability(self) -> &'static Capability {
        &CAPABILITIES[self as usize]
    }
}

impl From<Resolved> for ExecutionBackend {
    fn from(backend: Resolved) -> Self {
        match backend {
            Resolved::Agent => ExecutionBackend::Agent,
            Resolved::Counting => ExecutionBackend::Counting,
            Resolved::BlockCounting => ExecutionBackend::BlockCounting,
        }
    }
}

/// How a backend handles one delivery process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeliverySupport {
    /// Simulated exactly, on the given topologies.
    Native(TopologyCapability),
    /// Run as process P, which is phase-equivalent (Claim 1, Lemma 3):
    /// accepted on an explicit request, never chosen by `Auto`.
    AsPoissonized,
}

/// Which fault families a backend simulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSupport {
    /// Every family, including `delay`.
    All,
    /// `drop`, `dup`, `crash` and `byz` (see [`FaultSpec::aggregatable`]),
    /// but not `delay`, which needs per-message identity across the phase
    /// boundary.
    Aggregatable,
    /// No fault at all.
    Nothing,
}

/// What one phase costs on a backend, for the `Auto` cost model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CostModel {
    /// [`AGENT_NS_PER_AGENT_OPINION`] · n · k: message volume dominates.
    PerAgentOpinion,
    /// [`COUNTING_NS_PER_CELL`] · k²: one multinomial per noise-matrix row.
    ///
    /// The term leaves out the Stage-2 decision, which costs up to 65 536
    /// compositions of `k − 1` binomial draws each whatever `n` is
    /// ([`sample_majority_splits`](crate::counting::sample_majority_splits)),
    /// about 5.6–7.6 ms at k = 3. It stays k² on purpose, so that `Auto`'s
    /// picks do not move until the decision draws from its exact law and
    /// gets a cost term of its own.
    PerNoiseCell,
}

impl CostModel {
    /// Estimated nanoseconds per phase with `n` agents and `k` opinions.
    pub(crate) fn ns_per_phase(self, n: usize, k: usize) -> f64 {
        match self {
            CostModel::PerAgentOpinion => AGENT_NS_PER_AGENT_OPINION * n as f64 * k as f64,
            CostModel::PerNoiseCell => COUNTING_NS_PER_CELL * (k * k) as f64,
        }
    }
}

/// One backend's row of the admission table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Capability {
    /// The backend this row describes.
    pub backend: Resolved,
    /// The topologies on which the backend's law is certified: the only
    /// ones `Auto` routes it to.
    pub certified: TopologyCapability,
    /// The topologies an explicit request may use (a superset of
    /// `certified`: the block-counting backend buckets `er(p)` by exact
    /// degree, an uncertified mean-field approximation).
    pub accepted: TopologyCapability,
    /// How each delivery process (O, B, P, in
    /// [`DeliverySemantics::ALL`] order) is handled.
    pub deliveries: [DeliverySupport; 3],
    /// The fault families the backend simulates.
    pub faults: FaultSupport,
    /// The temporal features the backend simulates.
    pub temporal: TemporalCapability,
    /// What a phase costs.
    pub cost: CostModel,
}

/// The agent-level backend: everything, with deferred delivery (processes
/// B and P scatter into uniform bins) on the complete graph only.
pub const AGENT: Capability = Capability {
    backend: Resolved::Agent,
    certified: TopologyCapability::Any,
    accepted: TopologyCapability::Any,
    deliveries: [
        DeliverySupport::Native(TopologyCapability::Any),
        DeliverySupport::Native(TopologyCapability::Complete),
        DeliverySupport::Native(TopologyCapability::Complete),
    ],
    faults: FaultSupport::All,
    temporal: TemporalCapability::FULL,
    cost: CostModel::PerAgentOpinion,
};

/// The count-based backend: process P on the complete graph, whose global
/// agent exchangeability its whole reformulation rests on.
pub const COUNTING: Capability = Capability {
    backend: Resolved::Counting,
    certified: TopologyCapability::Complete,
    accepted: TopologyCapability::Complete,
    deliveries: [
        DeliverySupport::AsPoissonized,
        DeliverySupport::AsPoissonized,
        DeliverySupport::Native(TopologyCapability::Any),
    ],
    faults: FaultSupport::Aggregatable,
    temporal: TemporalCapability::AGGREGATE,
    cost: CostModel::PerNoiseCell,
};

/// The degree-class block-counting backend: process P per degree class,
/// certified where every class is exchangeable. It admits no fault: the
/// model runs faults on the complete graph only, where the [`COUNTING`]
/// row, over the same network, admits them.
pub const BLOCK_COUNTING: Capability = Capability {
    backend: Resolved::BlockCounting,
    certified: TopologyCapability::VertexTransitive,
    accepted: TopologyCapability::Any,
    deliveries: [
        DeliverySupport::AsPoissonized,
        DeliverySupport::AsPoissonized,
        DeliverySupport::Native(TopologyCapability::Any),
    ],
    faults: FaultSupport::Nothing,
    temporal: TemporalCapability::AGGREGATE,
    cost: CostModel::PerNoiseCell,
};

/// The admission table, one row per [`Resolved`] backend in declaration
/// order. Ties in the `Auto` cost model go to the earlier row.
pub const CAPABILITIES: [Capability; 3] = [AGENT, COUNTING, BLOCK_COUNTING];

/// The topologies on which the model defines each delivery process (O, B,
/// P, in [`DeliverySemantics::ALL`] order), whatever the backend: process
/// B is a uniform-bins notion with no sparse counterpart, and process P
/// localizes per degree class, which needs a degree-homogeneous family.
pub const MODEL_DELIVERY_TOPOLOGIES: [TopologyCapability; 3] = [
    TopologyCapability::Any,
    TopologyCapability::Complete,
    TopologyCapability::VertexTransitive,
];

impl Capability {
    /// Checks an explicit request for this backend.
    ///
    /// # Errors
    ///
    /// The [`SimError`] naming the first capability `config` exceeds.
    pub(crate) fn check(&self, config: &SimConfig) -> Result<(), SimError> {
        let backend = || format!("the {} backend", ExecutionBackend::from(self.backend));
        let (topology, fault) = (config.topology(), config.fault());
        let delivery_ok = match self.delivery(config) {
            DeliverySupport::Native(topologies) => topologies.supports(topology),
            DeliverySupport::AsPoissonized => true,
        };
        if !self.accepted.supports(topology) || !delivery_ok {
            let context = if delivery_ok {
                backend()
            } else {
                format!("{} with process {}", backend(), config.delivery().label())
            };
            return Err(SimError::UnsupportedTopology {
                topology: topology.to_string(),
                context,
            });
        }
        let faults_ok = match self.faults {
            FaultSupport::All => true,
            FaultSupport::Aggregatable => fault.aggregatable(),
            FaultSupport::Nothing => fault.is_none(),
        };
        if !faults_ok {
            return Err(SimError::UnsupportedFault {
                fault: fault.to_string(),
                context: backend(),
            });
        }
        let unsupported =
            self.temporal
                .first_unsupported(&config.churn(), &config.schedule(), &config.clock());
        match unsupported {
            Some(feature) => Err(SimError::UnsupportedTemporal {
                feature: feature.to_string(),
                context: backend(),
            }),
            None => Ok(()),
        }
    }

    /// `true` if `Auto` may route `config` here: the backend accepts it,
    /// simulates its delivery process natively, and certifies its topology.
    pub(crate) fn certifies(&self, config: &SimConfig) -> bool {
        matches!(self.delivery(config), DeliverySupport::Native(_))
            && self.certified.supports(config.topology())
            && self.check(config).is_ok()
    }

    fn delivery(&self, config: &SimConfig) -> DeliverySupport {
        self.deliveries[config.delivery() as usize]
    }
}

/// The model rules, checked by [`SimConfigBuilder::build`] for every
/// configuration whatever backend later runs it.
///
/// [`SimConfigBuilder::build`]: crate::SimConfigBuilder::build
pub(crate) fn check_model(config: &SimConfig) -> Result<(), SimError> {
    let (topology, delivery) = (config.topology(), config.delivery());
    let (fault, churn) = (config.fault(), config.churn());
    let temporal = |feature: &str, context: String| {
        Err(SimError::UnsupportedTemporal {
            feature: feature.to_string(),
            context,
        })
    };
    if !MODEL_DELIVERY_TOPOLOGIES[delivery as usize].supports(topology) {
        return Err(SimError::UnsupportedTopology {
            topology: topology.to_string(),
            context: format!("process {}", delivery.label()),
        });
    }
    // A duplicated, delayed or Byzantine message is re-scattered
    // uniformly, which needs every agent to reach every other.
    if !fault.is_none() && !topology.is_complete() {
        return Err(SimError::UnsupportedFault {
            fault: fault.to_string(),
            context: format!("topology {topology} (faults need the complete graph)"),
        });
    }
    // Arrivals and departures on a sparse graph are graph surgery with no
    // canonical semantics; crash/Byzantine/delay pin per-agent identity
    // that they would scramble.
    if churn.has_population_churn() && !topology.is_complete() {
        return temporal(
            "population churn",
            format!("topology {topology} (it needs the complete graph)"),
        );
    }
    let pins_identity = fault.crash.is_some() || fault.byzantine.is_some() || fault.delay != 0.0;
    if churn.has_population_churn() && pins_identity {
        return temporal(
            "population churn",
            format!("the identity-pinning fault spec {fault}"),
        );
    }
    // Rewiring resamples a random graph between rounds.
    if churn.has_edge_churn() && !topology.is_resampleable() {
        return temporal(
            "edge churn (rewire)",
            format!("the non-resampleable topology {topology}"),
        );
    }
    if churn.has_edge_churn() && delivery != DeliverySemantics::Exact {
        return temporal(
            "edge churn (rewire)",
            format!("process {}", delivery.label()),
        );
    }
    Ok(())
}

/// Resolves `requested` against `config` and checks that the resolved
/// backend accepts it.
///
/// An explicit request resolves to itself. `Auto` resolves to the cheapest
/// backend (by [`CostModel`], ties to the earlier row of [`CAPABILITIES`])
/// that *certifies* the config — accepts it, simulates its delivery
/// process natively and certifies its topology — so it is a speed choice
/// that never changes the simulated process: exact and
/// balls-into-bins delivery stay agent-level at every scale, process P on
/// a sparse vertex-transitive graph goes to the block-counting backend,
/// and process P on the complete graph goes to whichever of the agent and
/// counting backends the cost model prefers. When no backend certifies
/// the config, `Auto` falls back to the agent backend and its rejection.
///
/// # Errors
///
/// The [`SimError`] naming the first capability of the resolved backend
/// the config exceeds.
pub fn admit(config: &SimConfig, requested: ExecutionBackend) -> Result<Resolved, SimError> {
    let backend = choose(config, requested);
    backend.capability().check(config)?;
    Ok(backend)
}

/// The backend `requested` names, with `Auto` resolved by the cost model.
fn choose(config: &SimConfig, requested: ExecutionBackend) -> Resolved {
    match requested {
        ExecutionBackend::Agent => Resolved::Agent,
        ExecutionBackend::Counting => Resolved::Counting,
        ExecutionBackend::BlockCounting => Resolved::BlockCounting,
        ExecutionBackend::Auto => {
            let cost = |row: &&Capability| {
                row.cost
                    .ns_per_phase(config.num_nodes(), config.num_opinions())
            };
            CAPABILITIES
                .iter()
                .filter(|row| row.certifies(config))
                .min_by(|a, b| cost(a).total_cmp(&cost(b)))
                .map_or(Resolved::Agent, |row| row.backend)
        }
    }
}

/// A computation over a freshly built network of whichever backend a run
/// resolved to (see [`build_and_visit`]).
pub trait BackendVisitor<T> {
    /// Runs the computation on `net`.
    fn visit<B: PushBackend>(self, net: B) -> T;
}

/// The checks every backend constructor runs first: `noise` is defined
/// over the config's `k` opinions, and `backend` admits the config.
pub(crate) fn check_construction(
    config: &SimConfig,
    noise: &NoiseMatrix,
    backend: ExecutionBackend,
) -> Result<(), SimError> {
    if noise.num_opinions() != config.num_opinions() {
        return Err(SimError::NoiseDimensionMismatch {
            expected: config.num_opinions(),
            found: noise.num_opinions(),
        });
    }
    admit(config, backend).map(drop)
}

/// Admits `requested` against `config`, builds the resolved backend's
/// network and hands it to `visitor`: the one place a backend is chosen
/// and built.
///
/// # Errors
///
/// The admission error of [`admit`], or a constructor error.
pub fn build_and_visit<T>(
    config: SimConfig,
    noise: NoiseMatrix,
    requested: ExecutionBackend,
    visitor: impl BackendVisitor<T>,
) -> Result<T, SimError> {
    Ok(match admit(&config, requested)? {
        Resolved::Agent => visitor.visit(Network::new(config, noise)?),
        Resolved::Counting => visitor.visit(CountingNetwork::new(config, noise)?),
        Resolved::BlockCounting => visitor.visit(BlockCountingNetwork::new(config, noise)?),
    })
}
