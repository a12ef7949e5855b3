//! The complete two-stage protocol and its one entry point.

use crate::error::ProtocolError;
use crate::observe::{Observer, StopCondition};
use crate::params::ProtocolParams;
use crate::phase::{run_phases, Outcome};
use crate::{stage1, stage2};
use noisy_channel::NoiseMatrix;
use pushsim::{BackendVisitor, ExecutionBackend, Opinion, PushBackend, SimConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The two-stage noisy rumor-spreading / plurality-consensus protocol of
/// Fraigniaud & Natale (PODC 2016).
///
/// A `TwoStageProtocol` owns the run parameters and the noise matrix and can
/// execute independent runs through its [`Session`] (each run builds a
/// fresh network seeded from the parameters).
///
/// # Example
///
/// ```
/// use noisy_channel::NoiseMatrix;
/// use plurality_core::{ExecutionBackend, Instance, NoObserver, ProtocolParams, TwoStageProtocol};
/// use pushsim::Opinion;
///
/// # fn main() -> Result<(), plurality_core::ProtocolError> {
/// let noise = NoiseMatrix::uniform(3, 0.3).expect("valid noise");
/// let params = ProtocolParams::builder(500, 3).epsilon(0.3).seed(1).build()?;
/// let protocol = TwoStageProtocol::new(params, noise)?;
/// let outcome = protocol.session().run(
///     ExecutionBackend::Agent,
///     Instance::Rumor(Opinion::new(2)),
///     &mut NoObserver,
/// )?;
/// assert!(outcome.succeeded());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct TwoStageProtocol {
    params: ProtocolParams,
    noise: NoiseMatrix,
}

impl TwoStageProtocol {
    /// Creates a protocol instance.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::NoiseDimensionMismatch`] if the noise matrix
    /// is not over exactly `params.num_opinions()` opinions.
    pub fn new(params: ProtocolParams, noise: NoiseMatrix) -> Result<Self, ProtocolError> {
        if noise.num_opinions() != params.num_opinions() {
            return Err(ProtocolError::NoiseDimensionMismatch {
                expected: params.num_opinions(),
                found: noise.num_opinions(),
            });
        }
        Ok(Self { params, noise })
    }

    /// The run parameters.
    pub fn params(&self) -> &ProtocolParams {
        &self.params
    }

    /// The noise matrix applied to every message.
    pub fn noise(&self) -> &NoiseMatrix {
        &self.noise
    }

    /// Starts a [`Session`] over this protocol, the way every run starts:
    /// [`Session::run`] executes an [`Instance`] with an [`Observer`]
    /// attached, under the session's [`StopCondition`] (by default the
    /// whole schedule).
    pub fn session(&self) -> Session<'_> {
        Session {
            protocol: self,
            stop: StopCondition::ScheduleExhausted,
        }
    }

    /// Resolves an [`ExecutionBackend`] request against this protocol's
    /// parameters (see [`ExecutionBackend::resolve`]).
    pub fn resolve(&self, backend: ExecutionBackend) -> ExecutionBackend {
        backend.resolve(
            self.params.num_nodes(),
            self.params.num_opinions(),
            self.params.delivery(),
            self.params.topology(),
            self.params.fault(),
            self.params.churn(),
            self.params.clock(),
        )
    }

    /// Validates plurality-instance initial counts and returns the unique
    /// plurality opinion (the run's reference).
    ///
    /// [`Session::run`] applies it to every counts-seeded [`Instance`];
    /// public so callers that assemble runs from external data (the
    /// experiment harness's scenario specs) can surface the same
    /// validation before they start many runs.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::BadInitialCounts`] unless `initial_counts` has
    /// exactly `k` entries, sums to something in `1..=n`, and has a unique
    /// maximum (the plurality opinion the run measures success against).
    pub fn validate_initial_counts(
        &self,
        initial_counts: &[usize],
    ) -> Result<Opinion, ProtocolError> {
        let k = self.params.num_opinions();
        let n = self.params.num_nodes();
        if initial_counts.len() != k {
            return Err(ProtocolError::BadInitialCounts {
                reason: format!("expected {k} counts, got {}", initial_counts.len()),
            });
        }
        let total: usize = initial_counts.iter().sum();
        if total == 0 {
            return Err(ProtocolError::BadInitialCounts {
                reason: "at least one node must hold an opinion".to_string(),
            });
        }
        if total > n {
            return Err(ProtocolError::BadInitialCounts {
                reason: format!("counts sum to {total} but the network has only {n} nodes"),
            });
        }
        let max = *initial_counts.iter().max().expect("non-empty counts");
        let plurality: Vec<usize> = (0..k).filter(|&i| initial_counts[i] == max).collect();
        if plurality.len() != 1 {
            return Err(ProtocolError::BadInitialCounts {
                reason: "the plurality opinion must be unique".to_string(),
            });
        }
        Ok(Opinion::new(plurality[0]))
    }

    /// The run's [`SimConfig`] (the single place the protocol parameters
    /// map onto simulator knobs).
    fn sim_config(&self) -> Result<SimConfig, ProtocolError> {
        Ok(SimConfig::builder(self.params.num_nodes(), self.params.num_opinions())
            .seed(self.params.seed())
            .delivery(self.params.delivery())
            .topology(self.params.topology())
            .fault(self.params.fault())
            .churn(self.params.churn())
            .schedule(self.params.noise_schedule())
            .clock(self.params.clock())
            .build()?)
    }

    /// The RNG used for the protocol's own decisions (distinct from the
    /// network's delivery RNG but derived from the same seed so whole runs
    /// are reproducible).
    fn protocol_rng(&self) -> StdRng {
        StdRng::seed_from_u64(self.params.seed().wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x5DEE_CE66)
    }

    /// Runs the schedule on an already-seeded network — both stages, or
    /// Stage 2 alone — through the one phase driver shared by every
    /// backend. The observer is notified at every phase boundary and the
    /// stop condition is evaluated there; with [`NoObserver`](crate::NoObserver) and
    /// [`StopCondition::ScheduleExhausted`] this is byte-for-byte the
    /// schedule-driven execution (observation touches no RNG stream).
    fn execute<B: PushBackend>(
        &self,
        mut net: B,
        mut rng: StdRng,
        reference: Opinion,
        with_stage1: bool,
        observer: &mut dyn Observer,
        stop: &StopCondition,
    ) -> Outcome {
        let schedule = self.params.schedule();
        let stage1_lengths = if with_stage1 {
            schedule.stage1_phase_lengths()
        } else {
            &[]
        };
        let phases = stage1::phases(stage1_lengths)
            .chain(stage2::phases(schedule.stage2_sample_sizes()));
        run_phases(&mut net, phases, reference, &mut rng, observer, stop)
    }
}

/// An observable execution of a [`TwoStageProtocol`]: [`run`](Self::run)
/// executes an [`Instance`] with an [`Observer`] attached and stops at the
/// session's [`StopCondition`].
///
/// Built with [`TwoStageProtocol::session`]. A default session (no stop
/// condition) with [`NoObserver`](crate::NoObserver) executes the whole schedule, and
/// observation never touches an RNG stream, so attaching observers or a
/// stop condition that never fires leaves a run bit-for-bit unchanged.
///
/// # Example
///
/// ```
/// use noisy_channel::NoiseMatrix;
/// use plurality_core::{
///     ExecutionBackend, Instance, Observer, PhaseSnapshot, ProtocolParams, StopCondition,
///     TwoStageProtocol,
/// };
/// use pushsim::Opinion;
///
/// #[derive(Default)]
/// struct BiasTrace(Vec<Option<f64>>);
/// impl Observer for BiasTrace {
///     fn on_phase_end(&mut self, snapshot: &PhaseSnapshot) {
///         self.0.push(snapshot.bias());
///     }
/// }
///
/// # fn main() -> Result<(), plurality_core::ProtocolError> {
/// let noise = NoiseMatrix::uniform(2, 0.35).expect("valid noise");
/// let params = ProtocolParams::builder(500, 2).epsilon(0.35).seed(1).build()?;
/// let protocol = TwoStageProtocol::new(params, noise)?;
/// let mut trace = BiasTrace::default();
/// let outcome = protocol
///     .session()
///     .stop_when(StopCondition::ConsensusReached)
///     .run(ExecutionBackend::Auto, Instance::Rumor(Opinion::new(0)), &mut trace)?;
/// assert_eq!(trace.0.len(), outcome.phase_records().len());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Session<'p> {
    protocol: &'p TwoStageProtocol,
    stop: StopCondition,
}

impl Session<'_> {
    /// Sets the session's stop condition (evaluated at phase boundaries;
    /// the default, [`StopCondition::ScheduleExhausted`], never stops
    /// early).
    #[must_use]
    pub fn stop_when(mut self, stop: StopCondition) -> Self {
        self.stop = stop;
        self
    }

    /// The session's stop condition.
    pub fn stop(&self) -> &StopCondition {
        &self.stop
    }

    /// The protocol this session runs.
    pub fn protocol(&self) -> &TwoStageProtocol {
        self.protocol
    }

    /// Runs `instance` on a freshly built network of `backend`, admitted
    /// against the run's configuration ([`ExecutionBackend::Auto`]
    /// resolves per [`ExecutionBackend::resolve`]). `observer` is notified
    /// at every phase boundary and the session's stop condition may end
    /// the run early.
    ///
    /// # Errors
    ///
    /// * [`ProtocolError::OpinionOutOfRange`] if a rumor's source opinion
    ///   is out of range.
    /// * [`ProtocolError::BadInitialCounts`] if the initial counts have
    ///   the wrong length, sum to more than `n`, are all zero, or have no
    ///   unique plurality opinion (see
    ///   [`TwoStageProtocol::validate_initial_counts`]).
    /// * Simulator errors, including a backend the admission table
    ///   rejects, as [`ProtocolError::Simulation`].
    pub fn run(
        &self,
        backend: ExecutionBackend,
        instance: Instance<'_>,
        observer: &mut dyn Observer,
    ) -> Result<Outcome, ProtocolError> {
        let protocol = self.protocol;
        let reference = match instance {
            Instance::Rumor(source) => {
                let num_opinions = protocol.params.num_opinions();
                if source.index() >= num_opinions {
                    return Err(ProtocolError::OpinionOutOfRange {
                        opinion: source.index(),
                        num_opinions,
                    });
                }
                source
            }
            Instance::Plurality(counts) | Instance::Stage2(counts) => {
                protocol.validate_initial_counts(counts)?
            }
        };
        let run = Run {
            protocol,
            instance,
            reference,
            observer,
            stop: &self.stop,
        };
        pushsim::build_and_visit(protocol.sim_config()?, protocol.noise.clone(), backend, run)?
    }

    /// [`run`](Self::run) of [`Instance::Rumor`].
    ///
    /// # Errors
    ///
    /// Same as [`run`](Self::run).
    pub fn run_rumor_spreading_on(
        &self,
        backend: ExecutionBackend,
        source_opinion: Opinion,
        observer: &mut dyn Observer,
    ) -> Result<Outcome, ProtocolError> {
        self.run(backend, Instance::Rumor(source_opinion), observer)
    }

    /// [`run`](Self::run) of [`Instance::Plurality`].
    ///
    /// # Errors
    ///
    /// Same as [`run`](Self::run).
    pub fn run_plurality_consensus_on(
        &self,
        backend: ExecutionBackend,
        initial_counts: &[usize],
        observer: &mut dyn Observer,
    ) -> Result<Outcome, ProtocolError> {
        self.run(backend, Instance::Plurality(initial_counts), observer)
    }
}

/// The starting configuration a [`Session`] runs the protocol from: the
/// one choice that separates the paper's two problems, plus Stage 2 on its
/// own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Instance<'a> {
    /// Noisy **rumor spreading** (Theorem 1): a uniformly random source
    /// node holds the opinion, every other node is undecided, and the
    /// protocol must drive the whole system to that opinion.
    Rumor(Opinion),
    /// Noisy **plurality consensus** (Theorem 2): for every opinion `i`,
    /// `counts[i]` uniformly random nodes support `i`, the remaining nodes
    /// are undecided, and the protocol must drive the whole system to the
    /// plurality opinion.
    Plurality(&'a [usize]),
    /// Stage 2 alone from the same initial counts: the "majority
    /// consensus subroutine" view of the protocol, used by the Appendix D
    /// experiment (F7), where Stage 1 is deliberately skipped.
    Stage2(&'a [usize]),
}

/// One protocol run waiting for its network.
struct Run<'a> {
    protocol: &'a TwoStageProtocol,
    instance: Instance<'a>,
    /// The opinion the run measures success against.
    reference: Opinion,
    observer: &'a mut dyn Observer,
    stop: &'a StopCondition,
}

impl BackendVisitor<Result<Outcome, ProtocolError>> for Run<'_> {
    /// Seeds `net` for the instance and runs it, drawing the rumor source
    /// from the protocol's own decision RNG.
    fn visit<B: PushBackend>(self, mut net: B) -> Result<Outcome, ProtocolError> {
        let protocol = self.protocol;
        let mut rng = protocol.protocol_rng();
        match self.instance {
            Instance::Rumor(opinion) => {
                let source = rng.gen_range(0..protocol.params.num_nodes());
                net.seed_rumor_at(source, opinion)?;
            }
            Instance::Plurality(counts) | Instance::Stage2(counts) => net.seed_counts(counts)?,
        }
        let with_stage1 = !matches!(self.instance, Instance::Stage2(_));
        Ok(protocol.execute(
            net,
            rng,
            self.reference,
            with_stage1,
            self.observer,
            self.stop,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observe::NoObserver;
    use crate::params::ProtocolConstants;
    use crate::record::StageId;
    use pushsim::{ChurnSpec, ClockSpec, FaultSpec, TopologySpec};

    fn uniform_noise(k: usize, eps: f64) -> NoiseMatrix {
        NoiseMatrix::uniform(k, eps).unwrap()
    }

    /// One unobserved run of the whole schedule.
    fn run(
        protocol: &TwoStageProtocol,
        backend: ExecutionBackend,
        instance: Instance<'_>,
    ) -> Result<Outcome, ProtocolError> {
        protocol.session().run(backend, instance, &mut NoObserver)
    }

    #[test]
    fn rumor_spreading_succeeds_with_three_opinions() {
        let eps = 0.35;
        let params = ProtocolParams::builder(600, 3)
            .epsilon(eps)
            .seed(42)
            .build()
            .unwrap();
        let protocol = TwoStageProtocol::new(params, uniform_noise(3, eps)).unwrap();
        let outcome = run(
            &protocol,
            ExecutionBackend::Agent,
            Instance::Rumor(Opinion::new(1)),
        )
        .unwrap();
        assert!(outcome.consensus_reached());
        assert!(outcome.succeeded(), "final: {}", outcome.final_distribution());
        assert_eq!(outcome.winning_opinion(), Some(Opinion::new(1)));
        assert_eq!(outcome.correct_opinion(), Opinion::new(1));
        assert!(outcome.rounds() > 0);
        assert!(outcome.messages() > 0);
        assert!(!outcome.phase_records().is_empty());
        assert!(outcome.memory().bits_per_node() > 0);
    }

    #[test]
    fn plurality_consensus_recovers_the_initial_plurality() {
        let eps = 0.35;
        let params = ProtocolParams::builder(600, 3)
            .epsilon(eps)
            .seed(7)
            .build()
            .unwrap();
        let protocol = TwoStageProtocol::new(params, uniform_noise(3, eps)).unwrap();
        // Opinion 2 holds the plurality (but not the absolute majority).
        let outcome = run(
            &protocol,
            ExecutionBackend::Agent,
            Instance::Plurality(&[180, 150, 270]),
        )
        .unwrap();
        assert!(
            outcome.succeeded(),
            "final: {}",
            outcome.final_distribution()
        );
        assert_eq!(outcome.winning_opinion(), Some(Opinion::new(2)));
    }

    #[test]
    fn stage_records_are_split_correctly() {
        let eps = 0.4;
        let params = ProtocolParams::builder(300, 2)
            .epsilon(eps)
            .seed(3)
            .build()
            .unwrap();
        let schedule = params.schedule();
        let protocol = TwoStageProtocol::new(params, uniform_noise(2, eps)).unwrap();
        let outcome = run(
            &protocol,
            ExecutionBackend::Agent,
            Instance::Rumor(Opinion::new(0)),
        )
        .unwrap();
        let stage1_count = outcome.stage_records(StageId::One).count();
        let stage2_count = outcome.stage_records(StageId::Two).count();
        assert_eq!(stage1_count, schedule.stage1_phases());
        assert_eq!(stage2_count, schedule.stage2_phases());
        assert_eq!(
            outcome.phase_records().len(),
            stage1_count + stage2_count
        );
        assert_eq!(outcome.bias_trajectory().len(), outcome.phase_records().len());
    }

    #[test]
    fn invalid_inputs_are_rejected() {
        let params = ProtocolParams::builder(100, 3).epsilon(0.3).build().unwrap();
        let protocol = TwoStageProtocol::new(params.clone(), uniform_noise(3, 0.3)).unwrap();
        assert!(matches!(
            run(
                &protocol,
                ExecutionBackend::Agent,
                Instance::Rumor(Opinion::new(5))
            ),
            Err(ProtocolError::OpinionOutOfRange { .. })
        ));
        assert!(matches!(
            run(
                &protocol,
                ExecutionBackend::Agent,
                Instance::Plurality(&[1, 2])
            ),
            Err(ProtocolError::BadInitialCounts { .. })
        ));
        assert!(matches!(
            run(
                &protocol,
                ExecutionBackend::Agent,
                Instance::Plurality(&[0, 0, 0])
            ),
            Err(ProtocolError::BadInitialCounts { .. })
        ));
        assert!(matches!(
            run(
                &protocol,
                ExecutionBackend::Agent,
                Instance::Plurality(&[50, 50, 0])
            ),
            Err(ProtocolError::BadInitialCounts { .. })
        ));
        assert!(matches!(
            run(
                &protocol,
                ExecutionBackend::Agent,
                Instance::Plurality(&[200, 1, 0])
            ),
            Err(ProtocolError::BadInitialCounts { .. })
        ));
        assert!(matches!(
            TwoStageProtocol::new(params, uniform_noise(4, 0.3)),
            Err(ProtocolError::NoiseDimensionMismatch { .. })
        ));
    }

    #[test]
    fn counting_backend_solves_plurality_consensus() {
        let eps = 0.35;
        let params = ProtocolParams::builder(600, 3)
            .epsilon(eps)
            .seed(7)
            .build()
            .unwrap();
        let protocol = TwoStageProtocol::new(params, uniform_noise(3, eps)).unwrap();
        let outcome = run(
            &protocol,
            ExecutionBackend::Counting,
            Instance::Plurality(&[180, 150, 270]),
        )
        .unwrap();
        assert!(
            outcome.succeeded(),
            "final: {}",
            outcome.final_distribution()
        );
        assert_eq!(outcome.winning_opinion(), Some(Opinion::new(2)));
        assert_eq!(outcome.final_distribution().num_nodes(), 600);
        assert!(outcome.rounds() > 0);
        assert!(!outcome.phase_records().is_empty());
    }

    #[test]
    fn counting_backend_solves_rumor_spreading() {
        let eps = 0.35;
        let params = ProtocolParams::builder(600, 3)
            .epsilon(eps)
            .seed(42)
            .build()
            .unwrap();
        let protocol = TwoStageProtocol::new(params, uniform_noise(3, eps)).unwrap();
        let outcome = run(
            &protocol,
            ExecutionBackend::Counting,
            Instance::Rumor(Opinion::new(1)),
        )
        .unwrap();
        assert!(
            outcome.succeeded(),
            "final: {}",
            outcome.final_distribution()
        );
    }

    #[test]
    fn counting_backend_is_reproducible_per_seed() {
        let make = || {
            let params = ProtocolParams::builder(1_000, 2)
                .epsilon(0.4)
                .seed(99)
                .build()
                .unwrap();
            let protocol = TwoStageProtocol::new(params, uniform_noise(2, 0.4)).unwrap();
            run(
                &protocol,
                ExecutionBackend::Counting,
                Instance::Plurality(&[600, 300]),
            )
            .unwrap()
        };
        let a = make();
        let b = make();
        assert_eq!(a.final_distribution(), b.final_distribution());
        assert_eq!(a.bias_trajectory(), b.bias_trajectory());
    }

    #[test]
    fn auto_resolution_preserves_the_requested_semantics() {
        use pushsim::DeliverySemantics::{BallsIntoBins, Exact, Poissonized};
        let complete = TopologySpec::Complete;
        let no_fault = FaultSpec::default();
        let no_churn = ChurnSpec::default();
        let sync = ClockSpec::default();
        // Exact-semantics requests (processes O and B) stay agent-level at
        // *every* scale: the counting backend only implements process P,
        // so resolving them to it would change the delivery law, not just
        // the speed. (The historical policy did exactly that above
        // n = 10⁵.)
        assert_eq!(
            ExecutionBackend::Auto.resolve(1_000, 3, Exact, complete, no_fault, no_churn, sync),
            ExecutionBackend::Agent
        );
        assert_eq!(
            ExecutionBackend::Auto.resolve(10_000_000, 3, Exact, complete, no_fault, no_churn, sync),
            ExecutionBackend::Agent
        );
        assert_eq!(
            ExecutionBackend::Auto.resolve(50_000, 4, BallsIntoBins, complete, no_fault, no_churn, sync),
            ExecutionBackend::Agent
        );
        // Process P is native to the counting backend: the cost model picks
        // counting as soon as n·k message work exceeds k² draw work.
        assert_eq!(
            ExecutionBackend::Auto.resolve(10_000, 3, Poissonized, complete, no_fault, no_churn, sync),
            ExecutionBackend::Counting
        );
        assert_eq!(
            ExecutionBackend::Auto.resolve(30, 3, Poissonized, complete, no_fault, no_churn, sync),
            ExecutionBackend::Agent
        );
        // Non-complete topologies with exact delivery run agent-level,
        // whatever the scale — the count-based backends only implement
        // process P.
        assert_eq!(
            ExecutionBackend::Auto.resolve(10_000_000, 3, Exact, TopologySpec::Ring, no_fault, no_churn, sync),
            ExecutionBackend::Agent
        );
        // Poissonized runs on sparse vertex-transitive topologies resolve
        // to the block-counting backend — the only engine implementing
        // process P on those graphs — at every scale.
        for spec in [
            TopologySpec::Ring,
            TopologySpec::Torus2D,
            TopologySpec::RandomRegular { degree: 8 },
        ] {
            assert_eq!(
                ExecutionBackend::Auto.resolve(30, 3, Poissonized, spec, no_fault, no_churn, sync),
                ExecutionBackend::BlockCounting
            );
            assert_eq!(
                ExecutionBackend::Auto.resolve(10_000_000, 3, Poissonized, spec, no_fault, no_churn, sync),
                ExecutionBackend::BlockCounting
            );
        }
        // Erdős–Rényi is outside the block-counting backend's certified
        // capability (degree-inhomogeneous), so Auto falls back to Agent,
        // and any enabled fault keeps sparse runs agent-level too.
        assert_eq!(
            ExecutionBackend::Auto.resolve(
                10_000,
                3,
                Poissonized,
                TopologySpec::ErdosRenyi { p: 0.1 },
                no_fault,
                no_churn,
                sync
            ),
            ExecutionBackend::Agent
        );
        let dropper: FaultSpec = "drop(0.1)".parse().unwrap();
        assert_eq!(
            ExecutionBackend::Auto.resolve(10_000, 3, Poissonized, TopologySpec::Ring, dropper, no_churn, sync),
            ExecutionBackend::Agent
        );
        // Aggregatable faults keep the counting backend eligible; delayed
        // delivery forces the agent backend, which buffers real messages.
        let aggregatable: FaultSpec = "drop(0.1)+byz(0.05:0)".parse().unwrap();
        assert_eq!(
            ExecutionBackend::Auto.resolve(10_000, 3, Poissonized, complete, aggregatable, no_churn, sync),
            ExecutionBackend::Counting
        );
        let delayed: FaultSpec = "delay(0.2)".parse().unwrap();
        assert_eq!(
            ExecutionBackend::Auto.resolve(10_000, 3, Poissonized, complete, delayed, no_churn, sync),
            ExecutionBackend::Agent
        );
        // Per-agent temporal axes force the agent backend on every
        // topology; the aggregate axes (population churn, schedules) do
        // not change the resolution.
        let skew: ClockSpec = "skew(0.1)".parse().unwrap();
        assert_eq!(
            ExecutionBackend::Auto.resolve(10_000, 3, Poissonized, complete, no_fault, no_churn, skew),
            ExecutionBackend::Agent
        );
        let rewire: ChurnSpec = "rewire(0.5)".parse().unwrap();
        assert_eq!(
            ExecutionBackend::Auto.resolve(
                10_000,
                3,
                Poissonized,
                TopologySpec::RandomRegular { degree: 8 },
                no_fault,
                rewire,
                sync
            ),
            ExecutionBackend::Agent
        );
        let population: ChurnSpec = "join(0.01)+leave(0.01)".parse().unwrap();
        assert_eq!(
            ExecutionBackend::Auto.resolve(10_000, 3, Poissonized, complete, no_fault, population, sync),
            ExecutionBackend::Counting
        );
        // Explicit requests are never overridden.
        assert_eq!(
            ExecutionBackend::Agent.resolve(10_000_000, 3, Exact, complete, no_fault, no_churn, sync),
            ExecutionBackend::Agent
        );
        assert_eq!(
            ExecutionBackend::Counting.resolve(10, 2, Exact, complete, no_fault, no_churn, sync),
            ExecutionBackend::Counting
        );
        assert_eq!(
            ExecutionBackend::BlockCounting.resolve(10, 2, Exact, complete, no_fault, no_churn, sync),
            ExecutionBackend::BlockCounting
        );
    }

    #[test]
    fn sparse_topology_runs_resolve_to_agent_and_solve_rumor_spreading() {
        // End-to-end: the protocol runs on a random-regular graph through
        // Auto, which must resolve to the agent backend.
        let eps = 0.35;
        let params = ProtocolParams::builder(400, 2)
            .epsilon(eps)
            .seed(13)
            .topology(TopologySpec::RandomRegular { degree: 8 })
            .build()
            .unwrap();
        let protocol = TwoStageProtocol::new(params, uniform_noise(2, eps)).unwrap();
        assert_eq!(
            protocol.resolve(ExecutionBackend::Auto),
            ExecutionBackend::Agent
        );
        let outcome = run(
            &protocol,
            ExecutionBackend::Auto,
            Instance::Rumor(Opinion::new(0)),
        )
        .unwrap();
        assert!(outcome.rounds() > 0);
        assert_eq!(outcome.final_distribution().num_nodes(), 400);
        // An explicit counting request on a sparse topology fails loudly
        // instead of silently switching semantics.
        let err = run(
            &protocol,
            ExecutionBackend::Counting,
            Instance::Rumor(Opinion::new(0)),
        )
        .unwrap_err();
        assert!(
            matches!(&err, ProtocolError::Simulation(msg) if msg.contains("topology")),
            "expected an unsupported-topology error, got {err}"
        );
    }

    #[test]
    fn backend_parses_from_str() {
        assert_eq!("agent".parse(), Ok(ExecutionBackend::Agent));
        assert_eq!("Counting".parse(), Ok(ExecutionBackend::Counting));
        assert_eq!("blockcounting".parse(), Ok(ExecutionBackend::BlockCounting));
        assert_eq!("Block-Counting".parse(), Ok(ExecutionBackend::BlockCounting));
        assert_eq!("block".parse(), Ok(ExecutionBackend::BlockCounting));
        assert_eq!("AUTO".parse(), Ok(ExecutionBackend::Auto));
        assert!("gpu".parse::<ExecutionBackend>().is_err());
    }

    #[test]
    fn auto_matches_the_backend_it_delegates_to_bit_for_bit() {
        // Auto is a front door, not a third execution path: at a fixed seed
        // its outcome must be identical to running the resolved backend
        // explicitly — on both sides of the policy boundary.
        let eps = 0.35;
        // Small exact run: Auto resolves to Agent.
        let params = ProtocolParams::builder(500, 3)
            .epsilon(eps)
            .seed(33)
            .build()
            .unwrap();
        let protocol = TwoStageProtocol::new(params, uniform_noise(3, eps)).unwrap();
        assert_eq!(
            protocol.resolve(ExecutionBackend::Auto),
            ExecutionBackend::Agent
        );
        let auto = run(
            &protocol,
            ExecutionBackend::Auto,
            Instance::Plurality(&[200, 150, 100]),
        )
        .unwrap();
        let agent = run(
            &protocol,
            ExecutionBackend::Agent,
            Instance::Plurality(&[200, 150, 100]),
        )
        .unwrap();
        assert_eq!(auto, agent);

        // Poissonized run: Auto resolves to Counting.
        let params = ProtocolParams::builder(5_000, 3)
            .epsilon(eps)
            .seed(34)
            .delivery(pushsim::DeliverySemantics::Poissonized)
            .build()
            .unwrap();
        let protocol = TwoStageProtocol::new(params, uniform_noise(3, eps)).unwrap();
        assert_eq!(
            protocol.resolve(ExecutionBackend::Auto),
            ExecutionBackend::Counting
        );
        let auto = run(
            &protocol,
            ExecutionBackend::Auto,
            Instance::Rumor(Opinion::new(1)),
        )
        .unwrap();
        let counting = run(
            &protocol,
            ExecutionBackend::Counting,
            Instance::Rumor(Opinion::new(1)),
        )
        .unwrap();
        assert_eq!(auto, counting);

        // Sparse Poissonized run: Auto resolves to BlockCounting.
        let params = ProtocolParams::builder(2_000, 3)
            .epsilon(eps)
            .seed(35)
            .delivery(pushsim::DeliverySemantics::Poissonized)
            .topology(TopologySpec::RandomRegular { degree: 8 })
            .build()
            .unwrap();
        let protocol = TwoStageProtocol::new(params, uniform_noise(3, eps)).unwrap();
        assert_eq!(
            protocol.resolve(ExecutionBackend::Auto),
            ExecutionBackend::BlockCounting
        );
        let auto = run(
            &protocol,
            ExecutionBackend::Auto,
            Instance::Plurality(&[700, 500, 300]),
        )
        .unwrap();
        let block = run(
            &protocol,
            ExecutionBackend::BlockCounting,
            Instance::Plurality(&[700, 500, 300]),
        )
        .unwrap();
        assert_eq!(auto, block);
    }

    #[test]
    fn block_counting_backend_solves_sparse_poissonized_instances() {
        // End-to-end on every certified sparse family: the generic
        // two-stage protocol stack drives the block-counting backend to
        // consensus under Poissonized delivery.
        let eps = 0.35;
        for topology in [
            TopologySpec::Ring,
            TopologySpec::Torus2D, // 1600 = 40²
            TopologySpec::RandomRegular { degree: 8 },
        ] {
            let params = ProtocolParams::builder(1_600, 3)
                .epsilon(eps)
                .seed(77)
                .delivery(pushsim::DeliverySemantics::Poissonized)
                .topology(topology)
                .build()
                .unwrap();
            let protocol = TwoStageProtocol::new(params, uniform_noise(3, eps)).unwrap();
            let outcome = run(
                &protocol,
                ExecutionBackend::BlockCounting,
                Instance::Plurality(&[700, 500, 300]),
            )
            .unwrap();
            assert!(
                outcome.consensus_reached(),
                "no consensus on {topology:?}: {}",
                outcome.final_distribution()
            );
            assert_eq!(outcome.final_distribution().num_nodes(), 1_600);
            assert!(outcome.rounds() > 0);
            assert!(!outcome.phase_records().is_empty());
        }
    }

    #[test]
    fn plateau_stop_with_an_oversized_window_runs_the_full_schedule() {
        let eps = 0.35;
        let params = ProtocolParams::builder(400, 2)
            .epsilon(eps)
            .seed(17)
            .build()
            .unwrap();
        let schedule_rounds = params.schedule().total_rounds();
        let protocol = TwoStageProtocol::new(params, uniform_noise(2, eps)).unwrap();
        let plain = run(
            &protocol,
            ExecutionBackend::Agent,
            Instance::Rumor(Opinion::new(0)),
        )
        .unwrap();
        // A plateau window longer than the whole run can never accumulate
        // enough history: the session must behave exactly like the
        // stop-free run, not stall or stop early.
        let stopped = protocol
            .session()
            .stop_when(StopCondition::Plateau {
                window: 100_000,
                tolerance: 1.0,
            })
            .run(
                ExecutionBackend::Agent,
                Instance::Rumor(Opinion::new(0)),
                &mut NoObserver,
            )
            .unwrap();
        assert_eq!(stopped.rounds(), schedule_rounds);
        assert_eq!(stopped, plain);
    }

    #[test]
    fn stage2_only_runs_on_the_counting_backend_too() {
        let eps = 0.35;
        let params = ProtocolParams::builder(500, 2)
            .epsilon(eps)
            .seed(21)
            .build()
            .unwrap();
        let protocol = TwoStageProtocol::new(params, uniform_noise(2, eps)).unwrap();
        let outcome = run(
            &protocol,
            ExecutionBackend::Counting,
            Instance::Stage2(&[300, 200]),
        )
        .unwrap();
        assert!(
            outcome.succeeded(),
            "final: {}",
            outcome.final_distribution()
        );
        assert_eq!(outcome.final_distribution().num_nodes(), 500);
    }

    #[test]
    fn runs_are_reproducible_for_a_fixed_seed() {
        let eps = 0.4;
        let make = || {
            let params = ProtocolParams::builder(300, 2)
                .epsilon(eps)
                .seed(99)
                .build()
                .unwrap();
            let protocol = TwoStageProtocol::new(params, uniform_noise(2, eps)).unwrap();
            run(
                &protocol,
                ExecutionBackend::Agent,
                Instance::Rumor(Opinion::new(0)),
            )
            .unwrap()
        };
        let a = make();
        let b = make();
        assert_eq!(a.final_distribution(), b.final_distribution());
        assert_eq!(a.rounds(), b.rounds());
        assert_eq!(a.messages(), b.messages());
        assert_eq!(a.bias_trajectory(), b.bias_trajectory());
    }

    #[test]
    fn stage2_only_solves_an_already_biased_instance() {
        let eps = 0.35;
        let params = ProtocolParams::builder(500, 2)
            .epsilon(eps)
            .seed(21)
            .build()
            .unwrap();
        let protocol = TwoStageProtocol::new(params, uniform_noise(2, eps)).unwrap();
        let outcome = run(
            &protocol,
            ExecutionBackend::Agent,
            Instance::Stage2(&[300, 200]),
        )
        .unwrap();
        assert!(
            outcome.succeeded(),
            "final: {}",
            outcome.final_distribution()
        );
    }

    #[test]
    fn named_delegates_mirror_session_run() {
        let eps = 0.4;
        let params = ProtocolParams::builder(300, 2).epsilon(eps).seed(5).build().unwrap();
        let protocol = TwoStageProtocol::new(params, uniform_noise(2, eps)).unwrap();
        let session = protocol.session();
        let rumor = session
            .run_rumor_spreading_on(ExecutionBackend::Agent, Opinion::new(1), &mut NoObserver)
            .unwrap();
        assert_eq!(rumor.correct_opinion(), Opinion::new(1));
        assert_eq!(
            rumor,
            run(
                &protocol,
                ExecutionBackend::Agent,
                Instance::Rumor(Opinion::new(1))
            )
            .unwrap()
        );
        let plurality = session
            .run_plurality_consensus_on(ExecutionBackend::Agent, &[150, 100], &mut NoObserver)
            .unwrap();
        assert_eq!(plurality.correct_opinion(), Opinion::new(0));
        assert_eq!(
            plurality,
            run(
                &protocol,
                ExecutionBackend::Agent,
                Instance::Plurality(&[150, 100])
            )
            .unwrap()
        );
    }

    #[test]
    fn custom_constants_are_honoured_in_the_schedule() {
        let constants = ProtocolConstants {
            s: 0.5,
            beta: 1.0,
            phi: 2.0,
            c: 3.0,
            c_final: 1.0,
        };
        let params = ProtocolParams::builder(1_000, 2)
            .epsilon(0.3)
            .constants(constants)
            .build()
            .unwrap();
        let default_params = ProtocolParams::builder(1_000, 2).epsilon(0.3).build().unwrap();
        assert!(params.schedule().total_rounds() < default_params.schedule().total_rounds());
    }
}
