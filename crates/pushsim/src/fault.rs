//! Fault injection for the push model.
//!
//! The paper's only perturbation is the ε-noisy channel; this module adds
//! the rest of the classical fault space — the perturbations the
//! LOCAL-model literature stresses algorithms with — as a declarative
//! [`FaultSpec`] applied *inside* the delivery path:
//!
//! * **drop** — every message is lost independently with probability `p`
//!   (after noise, before delivery).
//! * **dup** — every surviving message is duplicated independently with
//!   probability `p`; the copy lands on an independently chosen agent.
//! * **delay** — every surviving message is deferred independently with
//!   probability `p` and delivered at the *start of the next phase*
//!   instead of its own (a one-phase adversarial reordering).
//! * **crash(f@s)** — a fraction `f` of agents crash at the end of phase
//!   `s` (0-based): they participate normally through phase `s`, then
//!   never push or adopt again (they still *receive*, but ignore, later
//!   messages), keeping whatever opinion they held when they crashed.
//! * **byz(f:j)** — a fraction `f` of agents is Byzantine: they always
//!   push the fixed opinion `j` (before noise), never adopt, and ignore
//!   what they receive.
//!
//! Like [`TopologySpec`](crate::TopologySpec), a `FaultSpec` has a
//! canonical textual form that round-trips through `Display`/[`FromStr`]
//! (both through the one grammar of spec values, [`noisy_channel::text`])
//! and is the spelling scenario spec files use
//! (`fault = drop(0.1)+byz(0.05:0)`). The all-disabled spec prints as
//! `none`; each family appears at most once.
//!
//! ## Support boundaries
//!
//! The count-level network behind
//! [`CountingNetwork`](crate::CountingNetwork) simulates the
//! *aggregatable* families on the complete graph's single degree class:
//! drop/dup as binomial thinning/inflation of the post-noise per-opinion
//! counts, crash/Byzantine as count transfers between pools. Delayed delivery needs per-message identity across the
//! phase boundary. Which backend takes which family, and that faults need
//! the complete graph, are rules of the [`admission`](crate::admission)
//! module.
//!
//! All fault randomness is drawn from a **dedicated seed-derived RNG**
//! (`seed ^ FAULT_SEED_SALT`), so an all-disabled spec leaves every
//! existing RNG stream bit-for-bit intact — the fixed-seed fixtures of the
//! workspace remain valid under the fault-capable simulator.

use crate::error::SimError;
use noisy_channel::text::{Form, Grammar};
use std::fmt;
use std::str::FromStr;

/// Crashed agents: a fraction of the population falls silent at the end
/// of a given phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrashFault {
    /// The fraction of agents that crash, in `[0, 1]`.
    pub fraction: f64,
    /// The 0-based phase index *after* which the crashed agents are
    /// silent: they participate normally in phases `0..=after_phase` and
    /// are dead from phase `after_phase + 1` on.
    pub after_phase: u64,
}

/// Byzantine agents: a fraction of the population always pushes a fixed
/// opinion and never changes its own.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ByzantineFault {
    /// The fraction of agents that are Byzantine, in `[0, 1]`.
    pub fraction: f64,
    /// The opinion the Byzantine agents push every round (must be
    /// `< num_opinions`).
    pub opinion: usize,
}

/// A declarative description of the faults injected into a run.
///
/// The default value disables every fault family and is guaranteed not to
/// perturb any RNG stream of the simulation (`fault = none` is bit-for-bit
/// the pre-fault simulator). The textual form (`Display` / [`FromStr`])
/// round-trips exactly; families are joined with `+` in the fixed order
/// `drop`, `dup`, `delay`, `crash`, `byz`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FaultSpec {
    /// Per-message drop probability in `[0, 1]` (applied post-noise).
    pub drop: f64,
    /// Per-message duplication probability in `[0, 1]` (applied to
    /// messages that survive the drop coin; the copy is delivered to an
    /// independently chosen uniform agent).
    pub duplicate: f64,
    /// Per-message delay probability in `[0, 1]`: delayed messages are
    /// delivered at the start of the *next* phase. Agent backend only.
    pub delay: f64,
    /// Crashed agents, if any.
    pub crash: Option<CrashFault>,
    /// Byzantine agents, if any.
    pub byzantine: Option<ByzantineFault>,
}

impl FaultSpec {
    /// `true` when every fault family is disabled. A disabled spec is
    /// guaranteed not to perturb any RNG stream of the simulation.
    pub fn is_none(&self) -> bool {
        self.drop == 0.0
            && self.duplicate == 0.0
            && self.delay == 0.0
            && self.crash.is_none()
            && self.byzantine.is_none()
    }

    /// `true` when the spec only uses the aggregatable subset the
    /// count-based backend supports (everything except delayed delivery).
    pub fn aggregatable(&self) -> bool {
        self.delay == 0.0
    }

    /// Checks that this fault spec is well-formed for a system with
    /// `num_opinions` opinions.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidFault`] if a probability or fraction is outside
    /// `[0, 1]` (or non-finite), the Byzantine opinion is `>=
    /// num_opinions`, or the crashed and Byzantine fractions together
    /// exceed the whole population.
    pub fn check(&self, num_opinions: usize) -> Result<(), SimError> {
        let fail = |reason: String| Err(SimError::InvalidFault { reason });
        let probability = |name: &str, p: f64| {
            if p.is_finite() && (0.0..=1.0).contains(&p) {
                Ok(())
            } else {
                Err(SimError::InvalidFault {
                    reason: format!("{name} needs a probability in [0, 1], got {p}"),
                })
            }
        };
        probability(DROP, self.drop)?;
        probability(DUP, self.duplicate)?;
        probability(DELAY, self.delay)?;
        let mut faulty_fraction = 0.0;
        if let Some(crash) = self.crash {
            probability(CRASH, crash.fraction)?;
            faulty_fraction += crash.fraction;
        }
        if let Some(byz) = self.byzantine {
            probability(BYZ, byz.fraction)?;
            if byz.opinion >= num_opinions {
                return fail(format!(
                    "byz opinion {} is out of range for a system with {num_opinions} opinions",
                    byz.opinion
                ));
            }
            faulty_fraction += byz.fraction;
        }
        if faulty_fraction > 1.0 {
            return fail(format!(
                "crashed and Byzantine fractions sum to {faulty_fraction}, \
                 which exceeds the whole population"
            ));
        }
        Ok(())
    }
}

const DROP: Form = "drop(p)";
const DUP: Form = "dup(p)";
const DELAY: Form = "delay(p)";
const CRASH: Form = "crash(f@s)";
const BYZ: Form = "byz(f:j)";
const FAULT: Grammar = Grammar::joined("fault", "none", &[DROP, DUP, DELAY, CRASH, BYZ]);

impl fmt::Display for FaultSpec {
    /// The canonical spec-file spelling: `none`, or `+`-joined families in
    /// the fixed order `drop(p)`, `dup(p)`, `delay(p)`, `crash(f@s)`,
    /// `byz(f:j)`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = FAULT.joined_writer(f);
        if self.drop != 0.0 {
            out.family(DROP, &[&self.drop])?;
        }
        if self.duplicate != 0.0 {
            out.family(DUP, &[&self.duplicate])?;
        }
        if self.delay != 0.0 {
            out.family(DELAY, &[&self.delay])?;
        }
        if let Some(crash) = self.crash {
            out.family(CRASH, &[&crash.fraction, &crash.after_phase])?;
        }
        if let Some(byz) = self.byzantine {
            out.family(BYZ, &[&byz.fraction, &byz.opinion])?;
        }
        out.finish()
    }
}

impl FromStr for FaultSpec {
    type Err = String;

    /// Parses `none`, or `+`-joined families in any order.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut spec = FaultSpec::default();
        for term in FAULT.parse_joined(s)? {
            match term.form {
                DROP => spec.drop = term.arg(0)?,
                DUP => spec.duplicate = term.arg(0)?,
                DELAY => spec.delay = term.arg(0)?,
                CRASH => {
                    spec.crash = Some(CrashFault {
                        fraction: term.arg(0)?,
                        after_phase: term.arg(1)?,
                    })
                }
                _ => {
                    spec.byzantine = Some(ByzantineFault {
                        fraction: term.arg(0)?,
                        opinion: term.arg(1)?,
                    })
                }
            }
        }
        Ok(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full() -> FaultSpec {
        FaultSpec {
            drop: 0.1,
            duplicate: 0.05,
            delay: 0.25,
            crash: Some(CrashFault {
                fraction: 0.1,
                after_phase: 2,
            }),
            byzantine: Some(ByzantineFault {
                fraction: 0.05,
                opinion: 1,
            }),
        }
    }

    #[test]
    fn default_is_none_and_prints_none() {
        let spec = FaultSpec::default();
        assert!(spec.is_none());
        assert!(spec.aggregatable());
        assert_eq!(spec.to_string(), "none");
        assert_eq!("none".parse::<FaultSpec>().unwrap(), spec);
    }

    #[test]
    fn display_round_trips_through_from_str() {
        let cases = [
            FaultSpec {
                drop: 0.25,
                ..FaultSpec::default()
            },
            FaultSpec {
                duplicate: 0.5,
                ..FaultSpec::default()
            },
            FaultSpec {
                delay: 1.0,
                ..FaultSpec::default()
            },
            FaultSpec {
                crash: Some(CrashFault {
                    fraction: 0.3,
                    after_phase: 0,
                }),
                ..FaultSpec::default()
            },
            FaultSpec {
                byzantine: Some(ByzantineFault {
                    fraction: 0.01,
                    opinion: 2,
                }),
                ..FaultSpec::default()
            },
            full(),
        ];
        for spec in cases {
            let text = spec.to_string();
            assert_eq!(text.parse::<FaultSpec>().unwrap(), spec, "{text}");
        }
        assert_eq!(full().to_string(), "drop(0.1)+dup(0.05)+delay(0.25)+crash(0.1@2)+byz(0.05:1)");
    }

    #[test]
    fn parsing_is_case_insensitive_and_order_insensitive() {
        let spec: FaultSpec = "BYZ(0.05:1) + Drop(0.1)".parse().unwrap();
        assert_eq!(spec.drop, 0.1);
        assert_eq!(spec.byzantine.unwrap().opinion, 1);
    }

    #[test]
    fn parse_errors_are_informative() {
        assert!("teleport(0.1)".parse::<FaultSpec>().is_err());
        assert!("drop(0.1)+drop(0.2)".parse::<FaultSpec>().unwrap_err().contains("more than once"));
        assert!("crash(0.1)".parse::<FaultSpec>().unwrap_err().contains("crash(f@s)"));
        assert!("byz(0.1@2)".parse::<FaultSpec>().unwrap_err().contains("byz(f:j)"));
        assert!("drop(zero)".parse::<FaultSpec>().is_err());
    }

    #[test]
    fn check_rejects_out_of_range_parameters() {
        let bad_probability = FaultSpec {
            drop: 1.5,
            ..FaultSpec::default()
        };
        assert!(matches!(
            bad_probability.check(3),
            Err(SimError::InvalidFault { .. })
        ));
        let nan = FaultSpec {
            delay: f64::NAN,
            ..FaultSpec::default()
        };
        assert!(nan.check(3).is_err());
        let byz_out_of_range = FaultSpec {
            byzantine: Some(ByzantineFault {
                fraction: 0.1,
                opinion: 3,
            }),
            ..FaultSpec::default()
        };
        assert!(byz_out_of_range.check(3).is_err());
        assert!(byz_out_of_range.check(4).is_ok());
        let overfull = FaultSpec {
            crash: Some(CrashFault {
                fraction: 0.7,
                after_phase: 0,
            }),
            byzantine: Some(ByzantineFault {
                fraction: 0.5,
                opinion: 0,
            }),
            ..FaultSpec::default()
        };
        assert!(overfull.check(3).is_err());
        assert!(full().check(3).is_ok());
    }

    #[test]
    fn aggregatable_excludes_only_delay() {
        let mut spec = full();
        assert!(!spec.aggregatable());
        spec.delay = 0.0;
        assert!(spec.aggregatable());
    }
}
