//! Protocol parameters and the phase schedules of the two stages.

use crate::error::ProtocolError;
use pushsim::{ChurnSpec, ClockSpec, DeliverySemantics, FaultSpec, NoiseSchedule, TopologySpec};

/// The protocol's tunable constants.
///
/// The paper (Section 3.1) leaves the constants of the phase lengths
/// unspecified, requiring only `φ > β > s > 0` for Stage 1 and a
/// "large-enough constant" `c` for Stage 2. The defaults here were calibrated
/// so that the protocol succeeds with high probability at the network sizes
/// the experiment harness simulates (`xp list`; see README); they can be
/// overridden through the [`ProtocolParamsBuilder`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProtocolConstants {
    /// Stage 1, phase 0 length multiplier: phase 0 has `(s/ε²)·ln n` rounds.
    pub s: f64,
    /// Stage 1, middle phase length multiplier: phases `1..=T` have `β/ε²`
    /// rounds.
    pub beta: f64,
    /// Stage 1, final phase length multiplier: phase `T+1` has `(φ/ε²)·ln n`
    /// rounds.
    pub phi: f64,
    /// Stage 2 sample size multiplier: each amplification phase samples
    /// `ℓ = ⌈c/ε²⌉` messages (and lasts `2ℓ` rounds).
    pub c: f64,
    /// Stage 2 final phase multiplier: the last phase samples
    /// `ℓ′ = ⌈c_final·ln(n)/ε²⌉` messages.
    pub c_final: f64,
}

impl Default for ProtocolConstants {
    fn default() -> Self {
        // Calibration: the Stage 2 amplification factor per phase behaves
        // like sqrt(2c/pi) x (received margin per unit of bias), so `c` must
        // be large enough that the factor comfortably exceeds e even for the
        // weaker multinomial margins at k > 2, and `c_final` must make the
        // per-node error probability of the last phase o(1/n). The values
        // below give >= 95% success across the registry's experiment grid
        // (`xp list`) while keeping the total round count within a small
        // constant of log n / eps^2.
        Self {
            s: 1.0,
            beta: 2.0,
            phi: 3.0,
            c: 8.0,
            c_final: 4.0,
        }
    }
}

impl ProtocolConstants {
    /// The names of the tunable constants, in canonical order — the key
    /// suffixes scenario spec files use (`constants.c = 8`, …).
    pub const FIELD_NAMES: [&'static str; 5] = ["s", "beta", "phi", "c", "c_final"];

    /// Reads a constant by its [`FIELD_NAMES`](Self::FIELD_NAMES) name.
    pub fn get(&self, name: &str) -> Option<f64> {
        match name {
            "s" => Some(self.s),
            "beta" => Some(self.beta),
            "phi" => Some(self.phi),
            "c" => Some(self.c),
            "c_final" => Some(self.c_final),
            _ => None,
        }
    }

    /// Overwrites a constant by name; returns `false` (and changes nothing)
    /// for an unknown name. Range validation still happens at
    /// [`ProtocolParamsBuilder::build`], the single validation point.
    pub fn set(&mut self, name: &str, value: f64) -> bool {
        match name {
            "s" => self.s = value,
            "beta" => self.beta = value,
            "phi" => self.phi = value,
            "c" => self.c = value,
            "c_final" => self.c_final = value,
            _ => return false,
        }
        true
    }

    fn validate(&self) -> Result<(), ProtocolError> {
        let checks = [
            ("s", self.s),
            ("beta", self.beta),
            ("phi", self.phi),
            ("c", self.c),
            ("c_final", self.c_final),
        ];
        for (name, value) in checks {
            if !(value.is_finite() && value > 0.0) {
                return Err(ProtocolError::InvalidConstant { name, value });
            }
        }
        if !(self.phi > self.beta && self.beta > self.s) {
            return Err(ProtocolError::InvalidConstant {
                name: "phi > beta > s",
                value: self.phi,
            });
        }
        Ok(())
    }
}

/// The complete round/phase schedule derived from the parameters.
///
/// Stage 1 phase lengths are in rounds. Stage 2 phases are described by
/// their sample sizes `ℓ`; each such phase lasts `2ℓ` rounds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    stage1_phase_lengths: Vec<u64>,
    stage2_sample_sizes: Vec<u64>,
}

impl Schedule {
    /// Round lengths of the Stage 1 phases (`0, 1, …, T, T+1`).
    pub fn stage1_phase_lengths(&self) -> &[u64] {
        &self.stage1_phase_lengths
    }

    /// Sample sizes `ℓ` of the Stage 2 phases (`0, …, T′`); the phase
    /// lengths in rounds are twice these values.
    pub fn stage2_sample_sizes(&self) -> &[u64] {
        &self.stage2_sample_sizes
    }

    /// The number `T + 2` of Stage 1 phases.
    pub fn stage1_phases(&self) -> usize {
        self.stage1_phase_lengths.len()
    }

    /// The number `T′ + 1` of Stage 2 phases.
    pub fn stage2_phases(&self) -> usize {
        self.stage2_sample_sizes.len()
    }

    /// Total number of rounds of Stage 1.
    pub fn stage1_rounds(&self) -> u64 {
        self.stage1_phase_lengths.iter().sum()
    }

    /// Total number of rounds of Stage 2.
    pub fn stage2_rounds(&self) -> u64 {
        self.stage2_sample_sizes.iter().map(|l| 2 * l).sum()
    }

    /// Total number of rounds of the whole protocol.
    pub fn total_rounds(&self) -> u64 {
        self.stage1_rounds() + self.stage2_rounds()
    }
}

/// Configuration of one protocol execution.
///
/// Construct with [`ProtocolParams::builder`]:
///
/// ```
/// use plurality_core::ProtocolParams;
///
/// # fn main() -> Result<(), plurality_core::ProtocolError> {
/// let params = ProtocolParams::builder(10_000, 3)
///     .epsilon(0.2)
///     .seed(7)
///     .build()?;
/// assert_eq!(params.num_nodes(), 10_000);
/// let schedule = params.schedule();
/// assert!(schedule.total_rounds() > 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ProtocolParams {
    num_nodes: usize,
    num_opinions: usize,
    epsilon: f64,
    seed: u64,
    delivery: DeliverySemantics,
    topology: TopologySpec,
    fault: FaultSpec,
    churn: ChurnSpec,
    schedule_noise: NoiseSchedule,
    clock: ClockSpec,
    constants: ProtocolConstants,
}

impl ProtocolParams {
    /// Starts building parameters for `num_nodes` agents and `num_opinions`
    /// opinions.
    pub fn builder(num_nodes: usize, num_opinions: usize) -> ProtocolParamsBuilder {
        ProtocolParamsBuilder {
            num_nodes,
            num_opinions,
            epsilon: 0.2,
            seed: 0,
            delivery: DeliverySemantics::Exact,
            topology: TopologySpec::Complete,
            fault: FaultSpec::default(),
            churn: ChurnSpec::default(),
            schedule_noise: NoiseSchedule::default(),
            clock: ClockSpec::default(),
            constants: ProtocolConstants::default(),
        }
    }

    /// The number of agents `n`.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// The number of opinions `k`.
    pub fn num_opinions(&self) -> usize {
        self.num_opinions
    }

    /// The noise-resilience parameter ε the schedule is tuned for (the noise
    /// matrix is expected to be (ε, δ)-majority-preserving for the relevant
    /// biases δ).
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// The RNG seed for the run.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// These parameters with `seed` in place of the run's seed, every
    /// other field unchanged (how trial harnesses derive per-run
    /// parameters).
    #[must_use]
    pub fn with_seed(&self, seed: u64) -> Self {
        let mut params = self.clone();
        params.seed = seed;
        params
    }

    /// The delivery semantics (process O, B or P) used by the simulation.
    pub fn delivery(&self) -> DeliverySemantics {
        self.delivery
    }

    /// The communication topology the run's network is built over (the
    /// complete graph — the paper's model — unless overridden).
    pub fn topology(&self) -> TopologySpec {
        self.topology
    }

    /// The faults injected into the run's network (all disabled — the
    /// paper's fault-free model — unless overridden).
    pub fn fault(&self) -> FaultSpec {
        self.fault
    }

    /// The population/edge churn applied to the run's network at phase
    /// boundaries (none — the paper's static model — unless overridden).
    pub fn churn(&self) -> ChurnSpec {
        self.churn
    }

    /// The noise schedule `ε(t)` the run's network follows (constant — the
    /// paper's time-invariant channel — unless overridden). Not to be
    /// confused with [`schedule`](Self::schedule), the round/phase plan.
    pub fn noise_schedule(&self) -> NoiseSchedule {
        self.schedule_noise
    }

    /// The clock model of the run's agents (synchronous — the paper's
    /// model — unless overridden).
    pub fn clock(&self) -> ClockSpec {
        self.clock
    }

    /// The tunable protocol constants.
    pub fn constants(&self) -> &ProtocolConstants {
        &self.constants
    }

    /// Computes the full phase schedule of the two stages (Section 3.1).
    ///
    /// * Stage 1 has `T + 2` phases with
    ///   `T = ⌊ln(n / (2(s/ε²)·ln n)) / ln(β/ε² + 1)⌋` (clamped at 0):
    ///   phase 0 lasts `(s/ε²)·ln n` rounds, phases `1..=T` last `β/ε²`
    ///   rounds, and phase `T+1` lasts `(φ/ε²)·ln n` rounds.
    /// * Stage 2 has `T′ + 1 = ⌈ln(√n / ln n)⌉ + 1` phases; phases
    ///   `0..T′` sample `ℓ = ⌈c/ε²⌉` messages (rounded up to an odd number)
    ///   and the final phase samples `ℓ′ = ⌈c_final·ln(n)/ε²⌉` messages.
    pub fn schedule(&self) -> Schedule {
        let n = self.num_nodes as f64;
        let eps2 = self.epsilon * self.epsilon;
        let ln_n = n.ln().max(1.0);
        let cst = &self.constants;

        let phase0 = (cst.s / eps2 * ln_n).ceil().max(1.0) as u64;
        let middle = (cst.beta / eps2).ceil().max(1.0) as u64;
        let last = (cst.phi / eps2 * ln_n).ceil().max(1.0) as u64;

        let growth = (cst.beta / eps2 + 1.0).ln();
        let ratio = n / (2.0 * (cst.s / eps2) * ln_n);
        let t = if ratio > 1.0 && growth > 0.0 {
            (ratio.ln() / growth).floor().max(0.0) as usize
        } else {
            0
        };

        let mut stage1 = Vec::with_capacity(t + 2);
        stage1.push(phase0);
        stage1.extend(std::iter::repeat_n(middle, t));
        stage1.push(last);

        let t_prime = ((n.sqrt() / ln_n).ln().ceil().max(1.0)) as usize;
        let ell = make_odd((cst.c / eps2).ceil().max(3.0) as u64);
        // The final phase is Θ(ε⁻² log n) and asymptotically dominates ℓ;
        // clamp it from below so the property also holds at tiny n where
        // c_final·ln n can drop under c.
        let ell_final = make_odd(((cst.c_final * ln_n / eps2).ceil().max(3.0) as u64).max(ell));
        let mut stage2 = vec![ell; t_prime];
        stage2.push(ell_final);

        Schedule {
            stage1_phase_lengths: stage1,
            stage2_sample_sizes: stage2,
        }
    }
}

/// Rounds `x` up to the next odd integer (the Stage 2 analysis assumes odd
/// sample sizes; Appendix C shows even sizes are never better).
fn make_odd(x: u64) -> u64 {
    if x.is_multiple_of(2) {
        x + 1
    } else {
        x
    }
}

/// Builder for [`ProtocolParams`].
#[derive(Debug, Clone)]
pub struct ProtocolParamsBuilder {
    num_nodes: usize,
    num_opinions: usize,
    epsilon: f64,
    seed: u64,
    delivery: DeliverySemantics,
    topology: TopologySpec,
    fault: FaultSpec,
    churn: ChurnSpec,
    schedule_noise: NoiseSchedule,
    clock: ClockSpec,
    constants: ProtocolConstants,
}

impl ProtocolParamsBuilder {
    /// Sets the noise-resilience parameter ε (default 0.2).
    pub fn epsilon(mut self, epsilon: f64) -> Self {
        self.epsilon = epsilon;
        self
    }

    /// Sets the RNG seed (default 0).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the delivery semantics (default [`DeliverySemantics::Exact`]).
    pub fn delivery(mut self, delivery: DeliverySemantics) -> Self {
        self.delivery = delivery;
        self
    }

    /// Sets the communication topology (default
    /// [`TopologySpec::Complete`]). Feasibility against `n` and the
    /// delivery process is validated when the run's network is built.
    pub fn topology(mut self, topology: TopologySpec) -> Self {
        self.topology = topology;
        self
    }

    /// Sets the injected faults (default `none`, the paper's
    /// fault-free model). Feasibility against `k`, the topology and the
    /// execution backend is validated when the run's network is built.
    pub fn fault(mut self, fault: FaultSpec) -> Self {
        self.fault = fault;
        self
    }

    /// Sets the population/edge churn (default `none`, the
    /// paper's static population). Feasibility against `k`, the topology,
    /// the faults and the execution backend is validated when the run's
    /// network is built.
    pub fn churn(mut self, churn: ChurnSpec) -> Self {
        self.churn = churn;
        self
    }

    /// Sets the noise schedule `ε(t)` (default `const`,
    /// the paper's time-invariant channel). Scheduled ε values are
    /// validated against the uniform family's domain when the run's
    /// network is built.
    pub fn noise_schedule(mut self, schedule: NoiseSchedule) -> Self {
        self.schedule_noise = schedule;
        self
    }

    /// Sets the clock model (default `sync`, the paper's
    /// synchronous rounds). Backend support is validated when the run's
    /// network is built.
    pub fn clock(mut self, clock: ClockSpec) -> Self {
        self.clock = clock;
        self
    }

    /// Overrides the protocol constants.
    pub fn constants(mut self, constants: ProtocolConstants) -> Self {
        self.constants = constants;
        self
    }

    /// Validates and builds the parameters.
    ///
    /// # Errors
    ///
    /// * [`ProtocolError::TooFewNodes`] / [`ProtocolError::TooFewOpinions`]
    ///   for degenerate systems.
    /// * [`ProtocolError::InvalidEpsilon`] unless `0 < ε < 1`.
    /// * [`ProtocolError::InvalidConstant`] if the constants violate
    ///   `φ > β > s > 0` or are not positive and finite.
    pub fn build(self) -> Result<ProtocolParams, ProtocolError> {
        if self.num_nodes < 2 {
            return Err(ProtocolError::TooFewNodes {
                found: self.num_nodes,
            });
        }
        if self.num_opinions < 2 {
            return Err(ProtocolError::TooFewOpinions {
                found: self.num_opinions,
            });
        }
        if !(self.epsilon.is_finite() && self.epsilon > 0.0 && self.epsilon < 1.0) {
            return Err(ProtocolError::InvalidEpsilon {
                value: self.epsilon,
            });
        }
        self.constants.validate()?;
        Ok(ProtocolParams {
            num_nodes: self.num_nodes,
            num_opinions: self.num_opinions,
            epsilon: self.epsilon,
            seed: self.seed,
            delivery: self.delivery,
            topology: self.topology,
            fault: self.fault,
            churn: self.churn,
            schedule_noise: self.schedule_noise,
            clock: self.clock,
            constants: self.constants,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_validates_inputs() {
        assert!(matches!(
            ProtocolParams::builder(1, 3).build(),
            Err(ProtocolError::TooFewNodes { .. })
        ));
        assert!(matches!(
            ProtocolParams::builder(100, 1).build(),
            Err(ProtocolError::TooFewOpinions { .. })
        ));
        assert!(matches!(
            ProtocolParams::builder(100, 3).epsilon(0.0).build(),
            Err(ProtocolError::InvalidEpsilon { .. })
        ));
        assert!(matches!(
            ProtocolParams::builder(100, 3).epsilon(1.5).build(),
            Err(ProtocolError::InvalidEpsilon { .. })
        ));
        let bad = ProtocolConstants {
            s: 3.0,
            beta: 2.0,
            phi: 1.0,
            c: 4.0,
            c_final: 2.0,
        };
        assert!(matches!(
            ProtocolParams::builder(100, 3).constants(bad).build(),
            Err(ProtocolError::InvalidConstant { .. })
        ));
    }

    #[test]
    fn with_seed_changes_only_the_seed() {
        let builder = ProtocolParams::builder(300, 3)
            .epsilon(0.3)
            .topology(TopologySpec::Ring)
            .fault("drop(0.1)+byz(0.05:0)".parse().unwrap())
            .churn("join(0.1)+leave(0.05)".parse().unwrap())
            .noise_schedule("burst(0.4@2:1)".parse().unwrap())
            .clock("drift(20000)".parse().unwrap());
        let params = builder.clone().seed(2).build().unwrap();
        assert_eq!(params.with_seed(99), builder.seed(99).build().unwrap());
        assert_eq!(params.with_seed(2), params);
    }

    #[test]
    fn schedule_shapes_match_the_paper() {
        let params = ProtocolParams::builder(10_000, 3).epsilon(0.2).build().unwrap();
        let schedule = params.schedule();
        // Stage 1 has at least phase 0 and phase T+1.
        assert!(schedule.stage1_phases() >= 2);
        // Stage 2 has at least the final long phase.
        assert!(schedule.stage2_phases() >= 2);
        // Phase 0 and the last Stage-1 phase are Θ(log n / ε²); the middle
        // phases are Θ(1/ε²) and therefore shorter.
        let lengths = schedule.stage1_phase_lengths();
        let first = lengths[0];
        let last = *lengths.last().unwrap();
        assert!(last >= first, "phi > s so the last phase is longer");
        for &middle in &lengths[1..lengths.len() - 1] {
            assert!(middle < first);
        }
        // All Stage 2 sample sizes are odd.
        for &l in schedule.stage2_sample_sizes() {
            assert_eq!(l % 2, 1);
        }
        // The final Stage-2 phase is the longest.
        let sizes = schedule.stage2_sample_sizes();
        assert!(sizes.last().unwrap() >= sizes.first().unwrap());
    }

    #[test]
    fn total_rounds_scale_like_log_n_over_eps_squared() {
        // Doubling 1/eps^2 roughly doubles the total number of rounds.
        let base = ProtocolParams::builder(50_000, 3).epsilon(0.2).build().unwrap();
        let finer = ProtocolParams::builder(50_000, 3)
            .epsilon(0.2 / std::f64::consts::SQRT_2)
            .build()
            .unwrap();
        let r1 = base.schedule().total_rounds() as f64;
        let r2 = finer.schedule().total_rounds() as f64;
        let ratio = r2 / r1;
        assert!(
            ratio > 1.6 && ratio < 2.4,
            "expected roughly 2x rounds, got {ratio}"
        );
    }

    #[test]
    fn schedule_is_well_defined_for_tiny_systems() {
        let params = ProtocolParams::builder(4, 2).epsilon(0.45).build().unwrap();
        let schedule = params.schedule();
        assert!(schedule.total_rounds() > 0);
        assert!(schedule.stage1_phases() >= 2);
    }

    #[test]
    fn theoretical_scales_are_monotone() {
        use crate::bounds::{memory_bound_bits, rounds_bound};
        assert!(rounds_bound(100_000, 0.2) > rounds_bound(1_000, 0.2));
        assert!(memory_bound_bits(100_000, 0.2) > memory_bound_bits(1_000, 0.2));
        assert!(rounds_bound(1_000, 0.05) > rounds_bound(1_000, 0.2));
    }

    #[test]
    fn default_constants_satisfy_ordering() {
        let c = ProtocolConstants::default();
        assert!(c.phi > c.beta && c.beta > c.s && c.s > 0.0);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn constants_are_addressable_by_name() {
        let mut c = ProtocolConstants::default();
        for name in ProtocolConstants::FIELD_NAMES {
            let value = c.get(name).expect("every listed field is readable");
            assert!(c.set(name, value + 0.5));
            assert_eq!(c.get(name), Some(value + 0.5));
        }
        assert_eq!(c.get("gamma"), None);
        assert!(!c.set("gamma", 1.0));
    }

    #[test]
    fn accessors_report_builder_values() {
        let params = ProtocolParams::builder(500, 4)
            .epsilon(0.3)
            .seed(11)
            .delivery(DeliverySemantics::Poissonized)
            .build()
            .unwrap();
        assert_eq!(params.num_nodes(), 500);
        assert_eq!(params.num_opinions(), 4);
        assert_eq!(params.epsilon(), 0.3);
        assert_eq!(params.seed(), 11);
        assert_eq!(params.delivery(), DeliverySemantics::Poissonized);
        assert_eq!(params.topology(), TopologySpec::Complete);
        assert!(params.fault().is_none());

        let fault: FaultSpec = "drop(0.1)".parse().unwrap();
        let params = ProtocolParams::builder(500, 4).fault(fault).build().unwrap();
        assert_eq!(params.fault(), fault);

        // The temporal axes default to off and pass through the builder
        // unvalidated (the run's network is the single validation point,
        // exactly like faults and topology).
        assert!(params.churn().is_none());
        assert!(params.noise_schedule().is_const());
        assert!(params.clock().is_sync());
        let churn: ChurnSpec = "join(0.01)+leave(0.02)".parse().unwrap();
        let schedule: NoiseSchedule = "burst(0.4@2:3)".parse().unwrap();
        let clock: ClockSpec = "skew(0.1)".parse().unwrap();
        let params = ProtocolParams::builder(500, 4)
            .churn(churn)
            .noise_schedule(schedule)
            .clock(clock)
            .build()
            .unwrap();
        assert_eq!(params.churn(), churn);
        assert_eq!(params.noise_schedule(), schedule);
        assert_eq!(params.clock(), clock);

        let params = ProtocolParams::builder(500, 4)
            .topology(TopologySpec::RandomRegular { degree: 8 })
            .build()
            .unwrap();
        assert_eq!(
            params.topology(),
            TopologySpec::RandomRegular { degree: 8 }
        );
    }
}
