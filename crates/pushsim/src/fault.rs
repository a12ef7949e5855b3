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
//! and is the spelling scenario spec files use
//! (`fault = drop(0.1)+byz(0.05:0)`). The all-disabled spec prints as
//! `none`.
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
use std::fmt;
use std::str::FromStr;

/// Crashed agents: a fraction of the population falls silent at the end
/// of a given phase.
#[derive(Debug, Clone, Copy)]
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
#[derive(Debug, Clone, Copy)]
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
#[derive(Debug, Clone, Copy, Default)]
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

impl PartialEq for FaultSpec {
    fn eq(&self, other: &Self) -> bool {
        // Bitwise comparison keeps Eq/Hash lawful (NaN never survives
        // `check`, which rejects non-finite probabilities).
        let pair = |a: Option<CrashFault>, b: Option<CrashFault>| match (a, b) {
            (None, None) => true,
            (Some(x), Some(y)) => {
                x.fraction.to_bits() == y.fraction.to_bits() && x.after_phase == y.after_phase
            }
            _ => false,
        };
        let byz = |a: Option<ByzantineFault>, b: Option<ByzantineFault>| match (a, b) {
            (None, None) => true,
            (Some(x), Some(y)) => {
                x.fraction.to_bits() == y.fraction.to_bits() && x.opinion == y.opinion
            }
            _ => false,
        };
        self.drop.to_bits() == other.drop.to_bits()
            && self.duplicate.to_bits() == other.duplicate.to_bits()
            && self.delay.to_bits() == other.delay.to_bits()
            && pair(self.crash, other.crash)
            && byz(self.byzantine, other.byzantine)
    }
}

impl Eq for FaultSpec {}

impl std::hash::Hash for FaultSpec {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.drop.to_bits().hash(state);
        self.duplicate.to_bits().hash(state);
        self.delay.to_bits().hash(state);
        if let Some(c) = self.crash {
            c.fraction.to_bits().hash(state);
            c.after_phase.hash(state);
        } else {
            u64::MAX.hash(state);
        }
        if let Some(b) = self.byzantine {
            b.fraction.to_bits().hash(state);
            b.opinion.hash(state);
        } else {
            u64::MAX.hash(state);
        }
    }
}

impl FaultSpec {
    /// The all-disabled spec (identical to `FaultSpec::default()`),
    /// spelled `none`.
    pub fn none() -> Self {
        FaultSpec::default()
    }

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

    /// The short human-readable label (identical to the `Display` form),
    /// recorded in result tables and error messages.
    pub fn label(&self) -> String {
        self.to_string()
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
        probability("drop(p)", self.drop)?;
        probability("dup(p)", self.duplicate)?;
        probability("delay(p)", self.delay)?;
        let mut faulty_fraction = 0.0;
        if let Some(crash) = self.crash {
            probability("crash(f@s)", crash.fraction)?;
            faulty_fraction += crash.fraction;
        }
        if let Some(byz) = self.byzantine {
            probability("byz(f:j)", byz.fraction)?;
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

impl fmt::Display for FaultSpec {
    /// The canonical spec-file spelling: `none`, or `+`-joined families in
    /// the fixed order `drop(p)`, `dup(p)`, `delay(p)`, `crash(f@s)`,
    /// `byz(f:j)`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_none() {
            return write!(f, "none");
        }
        let mut first = true;
        let mut sep = |f: &mut fmt::Formatter<'_>| -> fmt::Result {
            if first {
                first = false;
                Ok(())
            } else {
                write!(f, "+")
            }
        };
        if self.drop != 0.0 {
            sep(f)?;
            write!(f, "drop({})", self.drop)?;
        }
        if self.duplicate != 0.0 {
            sep(f)?;
            write!(f, "dup({})", self.duplicate)?;
        }
        if self.delay != 0.0 {
            sep(f)?;
            write!(f, "delay({})", self.delay)?;
        }
        if let Some(crash) = self.crash {
            sep(f)?;
            write!(f, "crash({}@{})", crash.fraction, crash.after_phase)?;
        }
        if let Some(byz) = self.byzantine {
            sep(f)?;
            write!(f, "byz({}:{})", byz.fraction, byz.opinion)?;
        }
        Ok(())
    }
}

impl FromStr for FaultSpec {
    type Err = String;

    /// Parses the canonical spelling (case-insensitive): `none`, or
    /// `+`-joined `drop(p)`, `dup(p)`, `delay(p)`, `crash(f@s)`,
    /// `byz(f:j)` in any order; each family at most once.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.trim();
        let lower = s.to_ascii_lowercase();
        if lower == "none" {
            return Ok(FaultSpec::default());
        }
        let mut spec = FaultSpec::default();
        for part in lower.split('+') {
            let part = part.trim();
            let parameterized = |name: &str| -> Option<&str> {
                part.strip_prefix(name)?.strip_prefix('(')?.strip_suffix(')')
            };
            let duplicate_family =
                |name: &str| -> String { format!("fault family {name} given more than once in {s:?}") };
            if let Some(arg) = parameterized("drop") {
                if spec.drop != 0.0 {
                    return Err(duplicate_family("drop"));
                }
                spec.drop = arg
                    .trim()
                    .parse::<f64>()
                    .map_err(|_| format!("drop(p) needs a number, got {arg:?}"))?;
            } else if let Some(arg) = parameterized("dup") {
                if spec.duplicate != 0.0 {
                    return Err(duplicate_family("dup"));
                }
                spec.duplicate = arg
                    .trim()
                    .parse::<f64>()
                    .map_err(|_| format!("dup(p) needs a number, got {arg:?}"))?;
            } else if let Some(arg) = parameterized("delay") {
                if spec.delay != 0.0 {
                    return Err(duplicate_family("delay"));
                }
                spec.delay = arg
                    .trim()
                    .parse::<f64>()
                    .map_err(|_| format!("delay(p) needs a number, got {arg:?}"))?;
            } else if let Some(arg) = parameterized("crash") {
                if spec.crash.is_some() {
                    return Err(duplicate_family("crash"));
                }
                let (fraction, phase) = arg
                    .split_once('@')
                    .ok_or_else(|| format!("crash needs the form crash(f@s), got crash({arg})"))?;
                let fraction = fraction
                    .trim()
                    .parse::<f64>()
                    .map_err(|_| format!("crash(f@s) needs a numeric fraction, got {fraction:?}"))?;
                let after_phase = phase
                    .trim()
                    .parse::<u64>()
                    .map_err(|_| format!("crash(f@s) needs an integer phase, got {phase:?}"))?;
                spec.crash = Some(CrashFault {
                    fraction,
                    after_phase,
                });
            } else if let Some(arg) = parameterized("byz") {
                if spec.byzantine.is_some() {
                    return Err(duplicate_family("byz"));
                }
                let (fraction, opinion) = arg
                    .split_once(':')
                    .ok_or_else(|| format!("byz needs the form byz(f:j), got byz({arg})"))?;
                let fraction = fraction
                    .trim()
                    .parse::<f64>()
                    .map_err(|_| format!("byz(f:j) needs a numeric fraction, got {fraction:?}"))?;
                let opinion = opinion
                    .trim()
                    .parse::<usize>()
                    .map_err(|_| format!("byz(f:j) needs an integer opinion, got {opinion:?}"))?;
                spec.byzantine = Some(ByzantineFault { fraction, opinion });
            } else {
                return Err(format!(
                    "unknown fault {part:?} in {s:?} (expected none, or +-joined \
                     drop(p), dup(p), delay(p), crash(f@s), byz(f:j))"
                ));
            }
        }
        Ok(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};

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
        assert_eq!(FaultSpec::none(), spec);
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
    fn eq_and_hash_are_consistent() {
        let hash = |spec: &FaultSpec| {
            let mut h = DefaultHasher::new();
            spec.hash(&mut h);
            h.finish()
        };
        assert_eq!(full(), full());
        assert_eq!(hash(&full()), hash(&full()));
        let mut other = full();
        other.crash = None;
        assert_ne!(full(), other);
    }

    #[test]
    fn aggregatable_excludes_only_delay() {
        let mut spec = full();
        assert!(!spec.aggregatable());
        spec.delay = 0.0;
        assert!(spec.aggregatable());
    }
}
