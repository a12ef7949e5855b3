//! Declarative selection of a baseline dynamics rule.
//!
//! A [`RuleSpec`] names one of this crate's dynamics together with its
//! parameters. Each rule is one [`Phase`] — a few push rounds and one of
//! the backend's decision operators — which [`RuleSpec::run`] repeats
//! through plurality-core's phase driver on whichever backend the run
//! resolves to. This is what makes the baselines configurable from
//! scenario spec files: the experiment layer stores the textual form
//! (`voter`, `h-majority(15)`, …), spelled through the one grammar of spec
//! values, [`noisy_channel::text`].
//!
//! ```
//! use opinion_dynamics::RuleSpec;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let spec: RuleSpec = "h-majority(15)".parse()?;
//! // One step: 30 push rounds, then the majority of a 15-message sample.
//! assert_eq!(spec.phase().rounds, 30);
//! // The canonical text form round-trips.
//! assert_eq!(spec.to_string().parse::<RuleSpec>()?, spec);
//! # Ok(())
//! # }
//! ```

use crate::{majority, median, undecided, voter};
use noisy_channel::text::{Form, Grammar};
use plurality_core::{run_phases, Observer, Outcome, Phase, StopCondition};
use pushsim::{Opinion, PushBackend};
use rand::rngs::StdRng;
use std::fmt;
use std::str::FromStr;

/// A baseline dynamics rule plus its parameters, independent of the
/// simulation backend.
///
/// Textual forms accepted by [`FromStr`] (and produced by `Display`, both
/// through [`noisy_channel::text`]), case-insensitive: `voter`,
/// `3-majority`, `h-majority(h)`, `undecided`, `median`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RuleSpec {
    /// The voter model: one push round, then every agent that received a
    /// message adopts one of them uniformly at random.
    Voter,
    /// The 3-majority dynamics: h-majority with `h = 3`.
    ThreeMajority,
    /// The h-majority dynamics: `2h` push rounds, then every agent that
    /// received at least `h` messages adopts the majority of a uniform
    /// sample of `h` of them.
    HMajority {
        /// Number of received opinions sampled per update.
        h: u32,
    },
    /// The undecided-state dynamics: one push round, then each agent looks
    /// at one received message, adopts it if undecided and becomes
    /// undecided if it disagrees.
    Undecided,
    /// The median rule: one push round, then each agent moves to the
    /// median of its own opinion and two received messages.
    Median,
}

impl RuleSpec {
    /// Every rule family at its default parameterization, in the order the
    /// experiment tables print them.
    pub const ALL: [RuleSpec; 5] = [
        RuleSpec::Voter,
        RuleSpec::ThreeMajority,
        RuleSpec::HMajority { h: 15 },
        RuleSpec::Undecided,
        RuleSpec::Median,
    ];

    /// The rule's one stage-less phase (a step): its push rounds and its
    /// decision operator.
    ///
    /// # Panics
    ///
    /// Panics for `HMajority { h: 0 }`, which [`FromStr`] never produces.
    pub fn phase(self) -> Phase {
        match self {
            RuleSpec::Voter => voter::PHASE,
            RuleSpec::ThreeMajority => majority::phase(3),
            RuleSpec::HMajority { h } => majority::phase(h),
            RuleSpec::Undecided => undecided::PHASE,
            RuleSpec::Median => median::PHASE,
        }
    }

    /// Runs the rule on `net` (any [`PushBackend`]) through the phase
    /// driver ([`run_phases`]): its [`phase`](Self::phase), once for every
    /// whole step that fits in `budget` rounds, or until `stop` fires at a
    /// step boundary. A run never exceeds its budget: an h-majority step
    /// spans `2h` rounds, so `h-majority(15)` on a 1977-round budget runs
    /// 65 steps, 1950 rounds.
    ///
    /// `reference` (usually the initial plurality opinion) is the opinion
    /// the bias — and hence [`StopCondition::BiasAtLeast`] and
    /// [`StopCondition::Plateau`] — is measured against, and `rng` drives
    /// the decisions. `observer` sees every step as a stage-less phase;
    /// it never touches `rng` or the backend's delivery RNG, so attaching
    /// one leaves the run bit-identical.
    pub fn run<B: PushBackend>(
        self,
        net: &mut B,
        rng: &mut StdRng,
        reference: Opinion,
        budget: u64,
        stop: &StopCondition,
        observer: &mut dyn Observer,
    ) -> Outcome {
        let step = self.phase();
        let steps = usize::try_from(budget / step.rounds).unwrap_or(usize::MAX);
        run_phases(net, std::iter::repeat_n(step, steps), reference, rng, observer, stop)
    }
}

const VOTER: Form = "voter";
const THREE_MAJORITY: Form = "3-majority";
const H_MAJORITY: Form = "h-majority(h)";
const UNDECIDED: Form = "undecided";
const MEDIAN: Form = "median";
const RULE: Grammar = Grammar::single(
    "dynamics rule",
    &[VOTER, THREE_MAJORITY, H_MAJORITY, UNDECIDED, MEDIAN],
);

impl fmt::Display for RuleSpec {
    /// The canonical textual form (parseable back via [`FromStr`]).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            RuleSpec::Voter => RULE.write(f, VOTER, &[]),
            RuleSpec::ThreeMajority => RULE.write(f, THREE_MAJORITY, &[]),
            RuleSpec::HMajority { h } => RULE.write(f, H_MAJORITY, &[&h]),
            RuleSpec::Undecided => RULE.write(f, UNDECIDED, &[]),
            RuleSpec::Median => RULE.write(f, MEDIAN, &[]),
        }
    }
}

impl FromStr for RuleSpec {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let term = RULE.parse(s)?;
        Ok(match term.form {
            VOTER => RuleSpec::Voter,
            THREE_MAJORITY => RuleSpec::ThreeMajority,
            H_MAJORITY => match term.arg(0)? {
                0 => return Err(format!("{H_MAJORITY} needs h >= 1")),
                h => RuleSpec::HMajority { h },
            },
            UNDECIDED => RuleSpec::Undecided,
            _ => RuleSpec::Median,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plurality_core::Decision;

    #[test]
    fn display_round_trips_for_every_rule() {
        for spec in RuleSpec::ALL {
            let text = spec.to_string();
            assert_eq!(text.parse::<RuleSpec>().unwrap(), spec, "round-trip {text}");
        }
    }

    #[test]
    fn single_round_rules_step_one_round_into_their_own_decision() {
        for (rule, decision) in [
            (RuleSpec::Voter, Decision::UniformAdoption(pushsim::AdoptionScope::AllAgents)),
            (RuleSpec::Undecided, Decision::UndecidedState),
            (RuleSpec::Median, Decision::Median),
        ] {
            let step = rule.phase();
            assert_eq!((step.stage, step.rounds, step.decision), (None, 1, decision), "{rule}");
        }
    }

    #[test]
    fn malformed_rules_are_rejected() {
        for text in ["", "votter", "h-majority", "h-majority()", "h-majority(0)", "h-majority(x)"] {
            assert!(text.parse::<RuleSpec>().is_err(), "{text:?} must not parse");
        }
    }
}
