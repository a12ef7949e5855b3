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
//! Each rule is one [`RuleSpec`] and one [`Phase`](plurality_core::Phase):
//! a few push rounds, then one of the backend's decision operators
//! (`resolve_*` on [`pushsim::PushBackend`]). [`RuleSpec::run`] repeats
//! that phase through plurality-core's phase driver — the loop that also
//! runs the protocol's two stages — and returns the same
//! [`Outcome`](plurality_core::Outcome) a protocol run does. It runs
//! unchanged on the agent-level [`Network`](pushsim::Network) *and* the
//! count-level network behind [`CountingNetwork`](pushsim::CountingNetwork)
//! and [`BlockCountingNetwork`](pushsim::BlockCountingNetwork) (O(k²)
//! random draws per step on the complete graph, independent of the
//! population size). One step is a full synchronous update: every
//! opinionated agent pushes, then every agent applies the rule to the
//! messages it received.
//!
//! The per-backend mechanics live in the backend's decision operators:
//! per-agent inbox sampling on the agent backend, closed count-level forms
//! of process P per degree class on the count-level backends. The
//! count-level forms are exact for the voter, undecided-state and
//! h-majority rules; the median rule's two same-inbox draws are mean-field
//! approximated (see
//! [`resolve_median`](pushsim::PushBackend::resolve_median)).
//!
//! # Example
//!
//! ```
//! use noisy_channel::NoiseMatrix;
//! use opinion_dynamics::RuleSpec;
//! use plurality_core::{NoObserver, StopCondition};
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
//! let plurality = Opinion::new(0);
//! let until_consensus = StopCondition::ConsensusReached;
//! let outcome = RuleSpec::ThreeMajority.run(
//!     &mut net,
//!     &mut rng,
//!     plurality,
//!     2_000,
//!     &until_consensus,
//!     &mut NoObserver,
//! );
//! // Under channel noise the baseline has no absorbing state, so it hovers
//! // near — but not exactly at — consensus on the plurality opinion.
//! assert_eq!(outcome.winning_opinion(), Some(plurality));
//! let share = outcome.final_distribution().counts()[0] as f64 / 300.0;
//! assert!(share > 0.8);
//! # Ok(())
//! # }
//! ```
//!
//! The same rule on the counting backend at a population the agent
//! backend could not touch:
//!
//! ```
//! use noisy_channel::NoiseMatrix;
//! use opinion_dynamics::RuleSpec;
//! use plurality_core::{NoObserver, StopCondition};
//! use pushsim::{CountingNetwork, DeliverySemantics, Opinion, PushBackend, SimConfig};
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
//! let outcome = RuleSpec::ThreeMajority.run(
//!     &mut net,
//!     &mut rng,
//!     Opinion::new(0),
//!     600,
//!     &StopCondition::ConsensusReached,
//!     &mut NoObserver,
//! );
//! let share = outcome.final_distribution().counts()[0] as f64 / 1e6;
//! assert!(share > 0.9);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod majority;
mod median;
mod rule;
mod undecided;
mod voter;

pub use rule::RuleSpec;

#[cfg(test)]
mod tests {
    use super::*;
    use noisy_channel::NoiseMatrix;
    use plurality_core::{NoObserver, Observer, Outcome, PhaseSnapshot, StopCondition};
    use pushsim::{CountingNetwork, DeliverySemantics, Network, Opinion, PushBackend, SimConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The classic budgeted run: `rule` until consensus or `budget` rounds,
    /// with the bias measured towards opinion 0.
    pub(crate) fn run<B: PushBackend>(
        rule: RuleSpec,
        net: &mut B,
        rng: &mut StdRng,
        budget: u64,
    ) -> Outcome {
        let consensus = StopCondition::ConsensusReached;
        rule.run(net, rng, Opinion::new(0), budget, &consensus, &mut NoObserver)
    }

    /// Exactly `count` steps of `rule`, consensus or not.
    pub(crate) fn steps<B: PushBackend>(rule: RuleSpec, net: &mut B, rng: &mut StdRng, count: u64) {
        let budget = count * rule.phase().rounds;
        let never = StopCondition::ScheduleExhausted;
        rule.run(net, rng, Opinion::new(0), budget, &never, &mut NoObserver);
    }

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
        let rules = [
            // The voter model converges but its winner is only *likely* to be
            // the plurality opinion, so we do not assert the winner for it.
            (RuleSpec::Voter, false),
            (RuleSpec::ThreeMajority, true),
            (RuleSpec::HMajority { h: 5 }, true),
            (RuleSpec::Undecided, true),
            (RuleSpec::Median, true),
        ];
        for (i, (rule, check_winner)) in rules.into_iter().enumerate() {
            let mut net = biased_network(40 + i as u64);
            let mut rng = StdRng::seed_from_u64(140 + i as u64);
            let outcome = run(rule, &mut net, &mut rng, 6_000);
            assert!(
                outcome.consensus_reached(),
                "{rule} did not converge: {}",
                outcome.final_distribution()
            );
            if check_winner {
                assert_eq!(
                    outcome.winning_opinion(),
                    Some(Opinion::new(0)),
                    "{rule} converged on the wrong opinion"
                );
            }
        }
    }

    /// The same rules on the *counting* backend: every rule is one phase
    /// for the one driver, so the whole baseline suite also runs
    /// count-based.
    #[test]
    fn all_dynamics_run_on_the_counting_backend() {
        let rules = [
            RuleSpec::Voter,
            RuleSpec::ThreeMajority,
            RuleSpec::HMajority { h: 5 },
            RuleSpec::Undecided,
            RuleSpec::Median,
        ];
        for (i, rule) in rules.into_iter().enumerate() {
            let noise = NoiseMatrix::uniform(2, 0.3).unwrap();
            let config = SimConfig::builder(50_000, 2)
                .seed(70 + i as u64)
                .delivery(DeliverySemantics::Poissonized)
                .build()
                .unwrap();
            let mut net = CountingNetwork::new(config, noise).unwrap();
            net.seed_counts(&[35_000, 15_000]).unwrap();
            let mut rng = StdRng::seed_from_u64(170 + i as u64);
            let outcome = run(rule, &mut net, &mut rng, 120);
            let dist = outcome.final_distribution();
            assert_eq!(
                dist.num_nodes(),
                50_000,
                "{rule} does not conserve the population: {dist}"
            );
        }
    }

    /// Under the paper's noise, the majority-seeking baselines still drive a
    /// strongly biased instance to near-consensus on the plurality opinion
    /// (they lack an absorbing state, so exact consensus is not guaranteed).
    #[test]
    fn majority_dynamics_reach_near_consensus_under_noise() {
        let noise = NoiseMatrix::uniform(2, 0.45).unwrap();
        for (i, rule) in [RuleSpec::ThreeMajority, RuleSpec::HMajority { h: 7 }]
            .into_iter()
            .enumerate()
        {
            let config = SimConfig::builder(300, 2).seed(60 + i as u64).build().unwrap();
            let mut net = Network::new(config, noise.clone()).unwrap();
            net.seed_counts(&[210, 90]).unwrap();
            let mut rng = StdRng::seed_from_u64(160 + i as u64);
            let outcome = run(rule, &mut net, &mut rng, 300);
            let dist = outcome.final_distribution();
            let plurality_share = dist.counts()[0] as f64 / dist.num_nodes() as f64;
            assert!(
                plurality_share > 0.85,
                "{rule} only reached a plurality share of {plurality_share}: {dist}"
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
        let outcome = RuleSpec::ThreeMajority.run(
            &mut net,
            &mut rng,
            Opinion::new(0),
            5_000,
            &StopCondition::BiasAtLeast(0.9),
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
        assert!(outcome.phase_records().is_empty(), "steps keep no records");
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
            if observed {
                struct Count(usize);
                impl Observer for Count {
                    fn on_phase_end(&mut self, _: &PhaseSnapshot) {
                        self.0 += 1;
                    }
                }
                let mut count = Count(0);
                let outcome = RuleSpec::Voter.run(
                    &mut net,
                    &mut rng,
                    Opinion::new(0),
                    200,
                    &StopCondition::ConsensusReached,
                    &mut count,
                );
                assert!(count.0 > 0);
                outcome
            } else {
                run(RuleSpec::Voter, &mut net, &mut rng, 200)
            }
        };
        assert_eq!(run_one(false), run_one(true));
    }

    #[test]
    fn run_stops_immediately_on_a_consensus_network() {
        let noise = NoiseMatrix::uniform(2, 0.3).unwrap();
        let config = SimConfig::builder(50, 2).seed(3).build().unwrap();
        let mut net = Network::new(config, noise).unwrap();
        net.seed_counts(&[50, 0]).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let outcome = run(RuleSpec::Voter, &mut net, &mut rng, 100);
        assert!(outcome.consensus_reached());
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
        let outcome = run(RuleSpec::Voter, &mut net, &mut rng, 25);
        assert!(!outcome.consensus_reached());
        assert_eq!(outcome.rounds(), 25);

        // A dynamics whose step spans several rounds runs only the whole
        // steps within the budget: four 6-round steps of 3-majority.
        let mut net = Network::new(
            SimConfig::builder(50, 2).seed(7).build().unwrap(),
            NoiseMatrix::uniform(2, 0.3).unwrap(),
        )
        .unwrap();
        let outcome = run(RuleSpec::ThreeMajority, &mut net, &mut rng, 25);
        assert!(!outcome.consensus_reached());
        assert_eq!(outcome.rounds(), 24);
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
        let outcome = run(RuleSpec::Voter, &mut net, &mut rng, 100);
        assert!(outcome.consensus_reached());
        assert_eq!(outcome.rounds(), 0);
        assert_eq!(outcome.winning_opinion(), Some(Opinion::new(0)));

        let mut net = make(6);
        let outcome = run(RuleSpec::Voter, &mut net, &mut rng, 25);
        assert!(!outcome.consensus_reached());
        assert_eq!(outcome.rounds(), 25);
    }
}
