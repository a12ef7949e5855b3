//! # opinion-dynamics
//!
//! Baseline opinion dynamics running under the same **noisy uniform push
//! model** as the main protocol, used by the experiment harness as
//! comparators (experiment T1; `xp show t1` prints its specs).
//!
//! The paper's related-work section points at several elementary dynamics
//! that solve (noiseless) plurality or majority consensus:
//!
//! * the **voter model** (adopt a random received opinion),
//! * the **3-majority dynamics** and its generalization **h-majority**
//!   (adopt the majority among a few sampled opinions) \[9, 13\],
//! * the **undecided-state dynamics** \[5, 8\],
//! * the **median rule** of Doerr et al. \[15\] (opinions as integers,
//!   move to the median of observed values).
//!
//! None of these were designed for the noisy channel studied by Fraigniaud &
//! Natale; running them under the same noise matrix shows where simple
//! dynamics break down and how much the two-stage protocol buys.
//!
//! All dynamics implement the **backend-generic** [`Dynamics`] trait: each
//! rule is written once against [`pushsim::PushBackend`] and runs unchanged
//! on the agent-level [`Network`] *and* the count-level network behind
//! [`CountingNetwork`](pushsim::CountingNetwork) and
//! [`BlockCountingNetwork`](pushsim::BlockCountingNetwork) (O(k²) random
//! draws per step on the complete graph, independent of the population
//! size). One [`step`](Dynamics::step) is a full synchronous update (every
//! opinionated agent pushes, then every agent applies the rule to the
//! messages it received), and [`run`](Dynamics::run) iterates until
//! consensus or a round limit.
//!
//! The per-backend mechanics live in the backend's decision operators
//! (`resolve_*` on [`pushsim::PushBackend`]): per-agent inbox sampling on
//! the agent backend, closed count-level forms of process P per degree
//! class on the count-level backends. The count-level forms are exact for
//! the voter, undecided-state and h-majority rules; the median rule's two
//! same-inbox draws are mean-field approximated (see
//! [`resolve_median`](pushsim::PushBackend::resolve_median)).
//!
//! # Example
//!
//! ```
//! use noisy_channel::NoiseMatrix;
//! use opinion_dynamics::{Dynamics, ThreeMajority};
//! use pushsim::{Network, Opinion, SimConfig};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let noise = NoiseMatrix::uniform(2, 0.4)?;
//! let config = SimConfig::builder(300, 2).seed(1).build()?;
//! let mut net = Network::new(config, noise)?;
//! net.seed_counts(&[200, 100])?;
//!
//! let mut rng = StdRng::seed_from_u64(2);
//! let outcome = ThreeMajority::new().run(&mut net, &mut rng, 2_000);
//! // Under channel noise the baseline has no absorbing state, so it hovers
//! // near — but not exactly at — consensus on the plurality opinion.
//! assert_eq!(outcome.winner(), Some(Opinion::new(0)));
//! let share = outcome.final_distribution().counts()[0] as f64 / 300.0;
//! assert!(share > 0.8);
//! # Ok(())
//! # }
//! ```
//!
//! The same dynamics on the counting backend at a population the agent
//! backend could not touch (the count-level network is driven through
//! [`pushsim::PushBackend`]):
//!
//! ```
//! use noisy_channel::NoiseMatrix;
//! use opinion_dynamics::{Dynamics, ThreeMajority};
//! use pushsim::{CountingNetwork, DeliverySemantics, PushBackend, SimConfig};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let noise = NoiseMatrix::uniform(2, 0.4)?;
//! let config = SimConfig::builder(1_000_000, 2)
//!     .seed(1)
//!     .delivery(DeliverySemantics::Poissonized)
//!     .build()?;
//! let mut net = CountingNetwork::new(config, noise)?;
//! net.seed_counts(&[700_000, 300_000])?;
//! let mut rng = StdRng::seed_from_u64(2);
//! let outcome = ThreeMajority::new().run(&mut net, &mut rng, 600);
//! let share = outcome.final_distribution().counts()[0] as f64 / 1e6;
//! assert!(share > 0.9);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod majority;
mod median;
mod outcome;
mod rule;
mod undecided;
mod voter;

pub use majority::{HMajority, ThreeMajority};
pub use median::MedianRule;
pub use outcome::DynamicsOutcome;
pub use rule::RuleSpec;
pub use undecided::UndecidedState;
pub use voter::Voter;

use plurality_core::observe::{NoObserver, Observer, PhaseSnapshot, RunProgress, StopCondition};
use pushsim::{Network, Opinion, PushBackend};
use rand::rngs::StdRng;

/// A synchronous opinion dynamics over the noisy uniform push model,
/// generic over the simulation backend.
///
/// Implementors define one update step in terms of the backend's phase
/// lifecycle and decision operators; the provided [`run`](Dynamics::run)
/// method iterates steps until consensus or a limit. The default backend
/// parameter keeps `Box<dyn Dynamics>` meaning "a dynamics over the
/// agent-level [`Network`]".
pub trait Dynamics<B: PushBackend = Network> {
    /// A short human-readable name for tables and plots.
    fn name(&self) -> &'static str;

    /// Executes one synchronous update: every opinionated agent pushes its
    /// opinion, messages are delivered through the noisy channel, and every
    /// agent applies the dynamics' update rule to its received multiset.
    /// Decision randomness comes from `rng` (delivery randomness from the
    /// backend's own RNG).
    fn step(&mut self, net: &mut B, rng: &mut StdRng);

    /// Runs the dynamics until the network reaches consensus or at least
    /// `max_rounds` rounds have been executed, whichever comes first (a step
    /// that was already in progress when the limit is hit is finished, so
    /// the actual round count can exceed `max_rounds` by one step).
    ///
    /// Equivalent to [`run_until`](Dynamics::run_until) with the stop
    /// condition `max-rounds OR consensus` and no observer; kept as the
    /// concise entry point for budgeted runs.
    fn run(&mut self, net: &mut B, rng: &mut StdRng, max_rounds: u64) -> DynamicsOutcome {
        self.run_until(
            net,
            rng,
            None,
            &StopCondition::Any(vec![
                StopCondition::MaxRounds(max_rounds),
                StopCondition::ConsensusReached,
            ]),
            &mut NoObserver,
        )
    }

    /// Runs the dynamics until `stop` fires, notifying `observer` after
    /// every step — the observable generalization of
    /// [`run`](Dynamics::run), mirroring the protocol's
    /// `Session` API.
    ///
    /// Each step is reported as one "phase" with `stage = None`;
    /// `reference` (usually the initial plurality opinion) is the opinion
    /// the snapshots' bias — and hence
    /// [`StopCondition::BiasAtLeast`] / [`StopCondition::Plateau`] — is
    /// measured against; with `None` the bias is undefined and those
    /// conditions never fire. Observation never touches `rng` or the
    /// backend's delivery RNG, so attaching any observer leaves the
    /// execution bit-identical.
    ///
    /// The stop condition is evaluated *before* each step on the current
    /// state (the consensus poll uses [`PushBackend::is_consensus`], O(k)
    /// on both backends), so a [`StopCondition::ScheduleExhausted`]
    /// condition — which never fires — would loop forever: budget the run
    /// with [`StopCondition::MaxRounds`] or a convergence condition.
    fn run_until(
        &mut self,
        net: &mut B,
        rng: &mut StdRng,
        reference: Option<Opinion>,
        stop: &StopCondition,
        observer: &mut dyn Observer,
    ) -> DynamicsOutcome {
        let start_rounds = net.rounds_executed();
        let start_messages = net.messages_sent();
        let mut progress = RunProgress::for_stop(stop);
        progress.sync(0, net.is_consensus());
        let mut step_index = 0usize;
        let mut messages_before = 0u64;
        while !stop.should_stop(&progress) {
            observer.on_phase_begin(None, step_index);
            self.step(net, rng);
            let distribution = net.distribution();
            let bias = reference.and_then(|r| distribution.bias_towards(r));
            let total_rounds = net.rounds_executed() - start_rounds;
            let total_messages = net.messages_sent() - start_messages;
            let snapshot = PhaseSnapshot::new(
                None,
                step_index,
                total_rounds - progress.rounds(),
                total_rounds,
                total_messages - messages_before,
                total_messages,
                distribution,
                bias,
            )
            .with_topology(net.config().topology().label());
            observer.on_phase_end(&snapshot);
            progress.note_phase(&snapshot);
            messages_before = total_messages;
            step_index += 1;
        }
        observer.on_finish();
        let final_distribution = net.distribution();
        DynamicsOutcome::new(
            self.name(),
            net.rounds_executed() - start_rounds,
            net.messages_sent() - start_messages,
            final_distribution,
        )
    }
}

/// Helper shared by the single-round dynamics: one phase of exactly one
/// push round, ready for a `resolve_*` decision operator.
pub(crate) fn one_round_phase<B: PushBackend>(net: &mut B) {
    net.begin_phase();
    net.push_opinionated_round();
    net.end_phase();
}

#[cfg(test)]
mod tests {
    use super::*;
    use noisy_channel::NoiseMatrix;
    use pushsim::{CountingNetwork, DeliverySemantics, Opinion, SimConfig};
    use rand::SeedableRng;

    fn biased_network(seed: u64) -> Network {
        // Noiseless channel: the classic setting in which all these dynamics
        // are known to reach consensus.
        let noise = NoiseMatrix::identity(2).unwrap();
        let config = SimConfig::builder(300, 2).seed(seed).build().unwrap();
        let mut net = Network::new(config, noise).unwrap();
        net.seed_counts(&[210, 90]).unwrap();
        net
    }

    /// Without noise, every baseline dynamics drives a strongly biased
    /// instance to consensus within a generous round budget, and the
    /// majority-seeking dynamics converge on the plurality opinion.
    #[test]
    fn all_dynamics_converge_without_noise() {
        let dynamics: Vec<(Box<dyn Dynamics>, bool)> = vec![
            // The voter model converges but its winner is only *likely* to be
            // the plurality opinion, so we do not assert the winner for it.
            (Box::new(Voter::new()), false),
            (Box::new(ThreeMajority::new()), true),
            (Box::new(HMajority::new(5)), true),
            (Box::new(UndecidedState::new()), true),
            (Box::new(MedianRule::new()), true),
        ];
        for (i, (mut dyn_, check_winner)) in dynamics.into_iter().enumerate() {
            let mut net = biased_network(40 + i as u64);
            let mut rng = StdRng::seed_from_u64(140 + i as u64);
            let outcome = dyn_.run(&mut net, &mut rng, 6_000);
            assert!(
                outcome.converged(),
                "{} did not converge: {}",
                dyn_.name(),
                outcome.final_distribution()
            );
            if check_winner {
                assert_eq!(
                    outcome.winner(),
                    Some(Opinion::new(0)),
                    "{} converged on the wrong opinion",
                    dyn_.name()
                );
            }
        }
    }

    /// The same trait objects, boxed over the *counting* backend: every
    /// rule is one generic implementation, so the whole baseline suite also
    /// runs count-based.
    #[test]
    fn all_dynamics_run_on_the_counting_backend() {
        let dynamics: Vec<Box<dyn Dynamics<CountingNetwork>>> = vec![
            Box::new(Voter::new()),
            Box::new(ThreeMajority::new()),
            Box::new(HMajority::new(5)),
            Box::new(UndecidedState::new()),
            Box::new(MedianRule::new()),
        ];
        for (i, mut dyn_) in dynamics.into_iter().enumerate() {
            let noise = NoiseMatrix::uniform(2, 0.3).unwrap();
            let config = SimConfig::builder(50_000, 2)
                .seed(70 + i as u64)
                .delivery(DeliverySemantics::Poissonized)
                .build()
                .unwrap();
            let mut net = CountingNetwork::new(config, noise).unwrap();
            net.seed_counts(&[35_000, 15_000]).unwrap();
            let mut rng = StdRng::seed_from_u64(170 + i as u64);
            let outcome = dyn_.run(&mut net, &mut rng, 120);
            let dist = outcome.final_distribution();
            assert_eq!(
                dist.num_nodes(),
                50_000,
                "{} does not conserve the population: {dist}",
                dyn_.name()
            );
        }
    }

    /// Under the paper's noise, the majority-seeking baselines still drive a
    /// strongly biased instance to near-consensus on the plurality opinion
    /// (they lack an absorbing state, so exact consensus is not guaranteed).
    #[test]
    fn majority_dynamics_reach_near_consensus_under_noise() {
        let noise = NoiseMatrix::uniform(2, 0.45).unwrap();
        let dynamics: Vec<Box<dyn Dynamics>> = vec![
            Box::new(ThreeMajority::new()),
            Box::new(HMajority::new(7)),
        ];
        for (i, mut dyn_) in dynamics.into_iter().enumerate() {
            let config = SimConfig::builder(300, 2).seed(60 + i as u64).build().unwrap();
            let mut net = Network::new(config, noise.clone()).unwrap();
            net.seed_counts(&[210, 90]).unwrap();
            let mut rng = StdRng::seed_from_u64(160 + i as u64);
            let outcome = dyn_.run(&mut net, &mut rng, 300);
            let dist = outcome.final_distribution();
            let plurality_share = dist.counts()[0] as f64 / dist.num_nodes() as f64;
            assert!(
                plurality_share > 0.85,
                "{} only reached a plurality share of {plurality_share}: {dist}",
                dyn_.name()
            );
        }
    }

    #[test]
    fn run_until_observes_every_step_and_honours_stop_conditions() {
        #[derive(Default)]
        struct Trace {
            steps: usize,
            last_bias: Option<f64>,
            finished: bool,
        }
        impl Observer for Trace {
            fn on_phase_end(&mut self, snapshot: &PhaseSnapshot) {
                assert_eq!(snapshot.stage(), None, "dynamics steps are stage-less");
                assert_eq!(snapshot.phase(), self.steps);
                self.steps += 1;
                self.last_bias = snapshot.bias();
            }
            fn on_finish(&mut self) {
                self.finished = true;
            }
        }

        let noise = NoiseMatrix::identity(2).unwrap();
        let config = SimConfig::builder(300, 2).seed(21).build().unwrap();
        let mut net = Network::new(config, noise).unwrap();
        net.seed_counts(&[210, 90]).unwrap();
        let mut rng = StdRng::seed_from_u64(22);
        let mut trace = Trace::default();
        let stop = StopCondition::Any(vec![
            StopCondition::BiasAtLeast(0.9),
            StopCondition::MaxRounds(5_000),
        ]);
        let outcome = ThreeMajority::new().run_until(
            &mut net,
            &mut rng,
            Some(Opinion::new(0)),
            &stop,
            &mut trace,
        );
        assert!(trace.finished);
        assert!(trace.steps > 0);
        assert!(
            trace.last_bias.unwrap() >= 0.9,
            "the bias threshold ended the run: {:?}",
            trace.last_bias
        );
        assert!(outcome.rounds() < 5_000, "stopped well before the budget");
    }

    #[test]
    fn run_until_with_an_observer_matches_run_bit_for_bit() {
        // Attaching an observer must not perturb the RNG streams: the same
        // seeds produce the same outcome with and without observation.
        let run_one = |observed: bool| {
            let noise = NoiseMatrix::uniform(2, 0.35).unwrap();
            let config = SimConfig::builder(400, 2).seed(31).build().unwrap();
            let mut net = Network::new(config, noise).unwrap();
            net.seed_counts(&[250, 100]).unwrap();
            let mut rng = StdRng::seed_from_u64(32);
            let stop = StopCondition::Any(vec![
                StopCondition::MaxRounds(200),
                StopCondition::ConsensusReached,
            ]);
            if observed {
                struct Count(usize);
                impl Observer for Count {
                    fn on_phase_end(&mut self, _: &PhaseSnapshot) {
                        self.0 += 1;
                    }
                }
                let mut count = Count(0);
                let outcome = Voter::new().run_until(
                    &mut net,
                    &mut rng,
                    Some(Opinion::new(0)),
                    &stop,
                    &mut count,
                );
                assert!(count.0 > 0);
                outcome
            } else {
                Voter::new().run(&mut net, &mut rng, 200)
            }
        };
        let plain = run_one(false);
        let observed = run_one(true);
        assert_eq!(plain.final_distribution(), observed.final_distribution());
        assert_eq!(plain.rounds(), observed.rounds());
        assert_eq!(plain.messages(), observed.messages());
    }

    #[test]
    fn run_stops_immediately_on_a_consensus_network() {
        let noise = NoiseMatrix::uniform(2, 0.3).unwrap();
        let config = SimConfig::builder(50, 2).seed(3).build().unwrap();
        let mut net = Network::new(config, noise).unwrap();
        net.seed_counts(&[50, 0]).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let outcome = Voter::new().run(&mut net, &mut rng, 100);
        assert!(outcome.converged());
        assert_eq!(outcome.rounds(), 0);
    }

    #[test]
    fn run_respects_the_round_limit() {
        // With zero opinionated nodes nothing can ever happen; the run must
        // stop at the limit and report no consensus (all nodes undecided).
        let noise = NoiseMatrix::uniform(2, 0.3).unwrap();
        let config = SimConfig::builder(50, 2).seed(5).build().unwrap();
        let mut net = Network::new(config, noise).unwrap();
        let mut rng = StdRng::seed_from_u64(6);
        let outcome = Voter::new().run(&mut net, &mut rng, 25);
        assert!(!outcome.converged());
        assert_eq!(outcome.rounds(), 25);

        // A dynamics whose step spans several rounds may overshoot by at
        // most one step.
        let mut net = Network::new(
            SimConfig::builder(50, 2).seed(7).build().unwrap(),
            NoiseMatrix::uniform(2, 0.3).unwrap(),
        )
        .unwrap();
        let outcome = ThreeMajority::new().run(&mut net, &mut rng, 25);
        assert!(!outcome.converged());
        assert!(outcome.rounds() >= 25 && outcome.rounds() < 25 + 6);
    }

    #[test]
    fn counting_run_stops_on_consensus_and_respects_the_limit() {
        let make = |seed| {
            let noise = NoiseMatrix::uniform(2, 0.3).unwrap();
            let config = SimConfig::builder(1_000, 2)
                .seed(seed)
                .delivery(DeliverySemantics::Poissonized)
                .build()
                .unwrap();
            CountingNetwork::new(config, noise).unwrap()
        };
        let mut net = make(5);
        net.seed_counts(&[1_000, 0]).unwrap();
        let mut rng = StdRng::seed_from_u64(15);
        let outcome = Voter::new().run(&mut net, &mut rng, 100);
        assert!(outcome.converged());
        assert_eq!(outcome.rounds(), 0);
        assert_eq!(outcome.winner(), Some(Opinion::new(0)));

        let mut net = make(6);
        let outcome = Voter::new().run(&mut net, &mut rng, 25);
        assert!(!outcome.converged());
        assert_eq!(outcome.rounds(), 25);
    }
}
