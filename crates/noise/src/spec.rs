//! Declarative noise-matrix specifications.
//!
//! A [`NoiseSpec`] names one of the paper's matrix [`families`](crate::families)
//! together with its parameters, *without* fixing the opinion count `k`:
//! the concrete [`NoiseMatrix`] is built later with [`NoiseSpec::build`].
//! This is what makes noise configurable from scenario spec files — the
//! experiment layer stores and round-trips the textual form
//! (`uniform(0.25)`, `cyclic(0.05)`, …) and materializes the matrix per
//! sweep point.
//!
//! The textual grammar is `family(arg, …)`, spelled through the
//! workspace's one grammar of spec values ([`text`](crate::text)):
//!
//! | text                  | family                                            |
//! |-----------------------|---------------------------------------------------|
//! | `uniform(eps)`        | [`families::uniform`]                             |
//! | `flip(eps)`           | [`families::binary_flip`] (k = 2 only)            |
//! | `cyclic(lambda)`      | [`families::cyclic`]                              |
//! | `reset(lambda, i)`    | [`families::reset_to_opinion`]                    |
//! | `diag(eps)`           | [`families::diagonally_dominant_counterexample`] (k = 3 only) |
//! | `band(p, q_l, q_u)`   | [`families::near_uniform_band`]                   |
//!
//! ```
//! use noisy_channel::NoiseSpec;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let spec: NoiseSpec = "uniform(0.25)".parse()?;
//! let matrix = spec.build(3)?;
//! assert!((matrix.entry(0, 0) - (1.0 / 3.0 + 0.25)).abs() < 1e-12);
//! // The canonical text form round-trips.
//! assert_eq!(spec.to_string().parse::<NoiseSpec>()?, spec);
//! # Ok(())
//! # }
//! ```

use crate::error::NoiseError;
use crate::families;
use crate::matrix::NoiseMatrix;
use crate::text::{Form, Grammar, Term};
use std::fmt;
use std::str::FromStr;

/// A noise-matrix family plus its parameters, independent of the opinion
/// count `k`.
///
/// The textual grammar (produced by `Display`, parsed by `FromStr`, both
/// through [`text`](crate::text)) is `family(arg, …)`, case-insensitive:
/// `uniform(eps)`, `flip(eps)` (k = 2 only),
/// `cyclic(lambda)`, `reset(lambda, target)`, `diag(eps)` (k = 3 only) and
/// `band(p, q_low, q_high)`, each mapping to the constructor of the same
/// family in [`families`].
#[derive(Debug, Clone, PartialEq)]
pub enum NoiseSpec {
    /// The uniform k-ary family: `1/k + ε` on the diagonal
    /// ([`families::uniform`]).
    Uniform {
        /// Diagonal boost ε.
        epsilon: f64,
    },
    /// The binary ε-flip of Eq. (1) ([`families::binary_flip`]); only valid
    /// for `k = 2`.
    BinaryFlip {
        /// Diagonal boost ε.
        epsilon: f64,
    },
    /// Cyclic "close opinion" noise ([`families::cyclic`]).
    Cyclic {
        /// Switch probability λ to each cyclic neighbour.
        lambda: f64,
    },
    /// Resetting noise towards a fixed opinion
    /// ([`families::reset_to_opinion`]).
    Reset {
        /// Reset probability λ.
        lambda: f64,
        /// The opinion every message is reset to.
        target: usize,
    },
    /// The diagonally-dominant counterexample of Section 4
    /// ([`families::diagonally_dominant_counterexample`]); only valid for
    /// `k = 3`.
    DiagonallyDominant {
        /// Diagonal boost ε.
        epsilon: f64,
    },
    /// A near-uniform band matrix of Eq. (17)
    /// ([`families::near_uniform_band`]).
    Band {
        /// Diagonal entry `p`.
        p: f64,
        /// Lower end of the off-diagonal band.
        q_low: f64,
        /// Upper end of the off-diagonal band.
        q_high: f64,
    },
}

impl NoiseSpec {
    /// Builds the concrete matrix for `k` opinions.
    ///
    /// # Errors
    ///
    /// Propagates the family constructor's validation errors; additionally
    /// rejects `flip` with `k ≠ 2` and `diag` with `k ≠ 3` (those families
    /// are defined at a fixed size) with [`NoiseError::InvalidSpec`].
    pub fn build(&self, k: usize) -> Result<NoiseMatrix, NoiseError> {
        match *self {
            NoiseSpec::Uniform { epsilon } => families::uniform(k, epsilon),
            NoiseSpec::BinaryFlip { epsilon } => {
                if k != 2 {
                    return Err(NoiseError::InvalidSpec(format!(
                        "flip(..) is a binary family and cannot serve k = {k} opinions"
                    )));
                }
                families::binary_flip(epsilon)
            }
            NoiseSpec::Cyclic { lambda } => families::cyclic(k, lambda),
            NoiseSpec::Reset { lambda, target } => families::reset_to_opinion(k, lambda, target),
            NoiseSpec::DiagonallyDominant { epsilon } => {
                if k != 3 {
                    return Err(NoiseError::InvalidSpec(format!(
                        "diag(..) is defined over exactly 3 opinions, not k = {k}"
                    )));
                }
                families::diagonally_dominant_counterexample(epsilon)
            }
            NoiseSpec::Band { p, q_low, q_high } => {
                families::near_uniform_band(k, p, q_low, q_high)
            }
        }
    }

    /// The family's noise-strength parameter, when it has a single scalar
    /// one that an ε-sweep can meaningfully vary (`uniform`, `flip`,
    /// `diag`).
    pub fn epsilon_parameter(&self) -> Option<f64> {
        match *self {
            NoiseSpec::Uniform { epsilon }
            | NoiseSpec::BinaryFlip { epsilon }
            | NoiseSpec::DiagonallyDominant { epsilon } => Some(epsilon),
            _ => None,
        }
    }

    /// This spec with its ε parameter replaced, for families that have one
    /// (see [`epsilon_parameter`](Self::epsilon_parameter)); other families
    /// are returned unchanged — an ε-sweep over them varies only the
    /// protocol schedule, not the channel.
    pub fn with_epsilon(&self, epsilon: f64) -> NoiseSpec {
        match *self {
            NoiseSpec::Uniform { .. } => NoiseSpec::Uniform { epsilon },
            NoiseSpec::BinaryFlip { .. } => NoiseSpec::BinaryFlip { epsilon },
            NoiseSpec::DiagonallyDominant { .. } => NoiseSpec::DiagonallyDominant { epsilon },
            ref other => other.clone(),
        }
    }
}

const UNIFORM: Form = "uniform(eps)";
const FLIP: Form = "flip(eps)";
const CYCLIC: Form = "cyclic(lambda)";
const RESET: Form = "reset(lambda, target)";
const DIAG: Form = "diag(eps)";
const BAND: Form = "band(p, q_low, q_high)";
const NOISE: Grammar = Grammar::single("noise", &[UNIFORM, FLIP, CYCLIC, RESET, DIAG, BAND]);

impl fmt::Display for NoiseSpec {
    /// The canonical textual form (parseable back via [`FromStr`]).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            NoiseSpec::Uniform { epsilon } => NOISE.write(f, UNIFORM, &[&epsilon]),
            NoiseSpec::BinaryFlip { epsilon } => NOISE.write(f, FLIP, &[&epsilon]),
            NoiseSpec::Cyclic { lambda } => NOISE.write(f, CYCLIC, &[&lambda]),
            NoiseSpec::Reset { lambda, target } => NOISE.write(f, RESET, &[&lambda, &target]),
            NoiseSpec::DiagonallyDominant { epsilon } => NOISE.write(f, DIAG, &[&epsilon]),
            NoiseSpec::Band { p, q_low, q_high } => NOISE.write(f, BAND, &[&p, &q_low, &q_high]),
        }
    }
}

impl FromStr for NoiseSpec {
    type Err = NoiseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let spec = |term: Term| -> Result<Self, String> {
            Ok(match term.form {
                UNIFORM => NoiseSpec::Uniform { epsilon: term.arg(0)? },
                FLIP => NoiseSpec::BinaryFlip { epsilon: term.arg(0)? },
                CYCLIC => NoiseSpec::Cyclic { lambda: term.arg(0)? },
                RESET => NoiseSpec::Reset {
                    lambda: term.arg(0)?,
                    target: term.arg(1)?,
                },
                DIAG => NoiseSpec::DiagonallyDominant { epsilon: term.arg(0)? },
                _ => NoiseSpec::Band {
                    p: term.arg(0)?,
                    q_low: term.arg(1)?,
                    q_high: term.arg(2)?,
                },
            })
        };
        NOISE.parse(s).and_then(spec).map_err(NoiseError::InvalidSpec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_specs() -> Vec<NoiseSpec> {
        vec![
            NoiseSpec::Uniform { epsilon: 0.25 },
            NoiseSpec::BinaryFlip { epsilon: 0.3 },
            NoiseSpec::Cyclic { lambda: 0.05 },
            NoiseSpec::Reset {
                lambda: 0.4,
                target: 1,
            },
            NoiseSpec::DiagonallyDominant { epsilon: 0.05 },
            NoiseSpec::Band {
                p: 0.5,
                q_low: 0.24,
                q_high: 0.26,
            },
        ]
    }

    #[test]
    fn display_round_trips_for_every_family() {
        for spec in all_specs() {
            let text = spec.to_string();
            let parsed: NoiseSpec = text.parse().expect("canonical text parses");
            assert_eq!(parsed, spec, "round-trip of {text}");
        }
    }

    #[test]
    fn build_matches_the_direct_family_constructors() {
        let spec = NoiseSpec::Uniform { epsilon: 0.2 };
        assert_eq!(spec.build(4).unwrap(), families::uniform(4, 0.2).unwrap());
        let spec = NoiseSpec::Reset {
            lambda: 0.3,
            target: 2,
        };
        assert_eq!(
            spec.build(3).unwrap(),
            families::reset_to_opinion(3, 0.3, 2).unwrap()
        );
    }

    #[test]
    fn fixed_size_families_reject_other_sizes() {
        assert!(NoiseSpec::BinaryFlip { epsilon: 0.3 }.build(3).is_err());
        assert!(NoiseSpec::BinaryFlip { epsilon: 0.3 }.build(2).is_ok());
        assert!(NoiseSpec::DiagonallyDominant { epsilon: 0.05 }.build(2).is_err());
        assert!(NoiseSpec::DiagonallyDominant { epsilon: 0.05 }.build(3).is_ok());
    }

    #[test]
    fn with_epsilon_reparameterizes_only_eps_families() {
        let uniform = NoiseSpec::Uniform { epsilon: 0.1 }.with_epsilon(0.4);
        assert_eq!(uniform, NoiseSpec::Uniform { epsilon: 0.4 });
        assert_eq!(uniform.epsilon_parameter(), Some(0.4));
        let cyclic = NoiseSpec::Cyclic { lambda: 0.05 };
        assert_eq!(cyclic.with_epsilon(0.4), cyclic);
        assert_eq!(cyclic.epsilon_parameter(), None);
    }

    #[test]
    fn malformed_specs_are_rejected() {
        for text in [
            "",
            "uniform",
            "uniform(",
            "uniform()",
            "uniform(a)",
            "uniform(0.1, 0.2)",
            "reset(0.1)",
            "warp(0.1)",
            "band(0.5, 0.2)",
        ] {
            assert!(text.parse::<NoiseSpec>().is_err(), "{text:?} must not parse");
        }
    }

    #[test]
    fn parsing_tolerates_whitespace() {
        let spec: NoiseSpec = "  reset( 0.4 ,  1 )  ".parse().unwrap();
        assert_eq!(
            spec,
            NoiseSpec::Reset {
                lambda: 0.4,
                target: 1
            }
        );
    }
}
