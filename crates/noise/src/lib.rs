//! # noisy-channel
//!
//! Noise matrices over `k` opinions for the **noisy uniform push model** of
//! Fraigniaud & Natale, *Noisy Rumor Spreading and Plurality Consensus*
//! (PODC 2016).
//!
//! In that model, every opinion `i ∈ {0, …, k−1}` transmitted over a link is
//! received as opinion `j` with probability `p_{i,j}`, where
//! `P = (p_{i,j})` is a row-stochastic **noise matrix**. The paper's central
//! structural definition is the *(ε, δ)-majority-preserving* property
//! (Definition 2): `P` is (ε, δ)-m.p. with respect to opinion `m` if for
//! every opinion distribution `c` that is δ-biased towards `m`,
//!
//! ```text
//! (c · P)_m − (c · P)_i  >  ε δ      for all i ≠ m.
//! ```
//!
//! This crate provides:
//!
//! * [`NoiseMatrix`] — a validated row-stochastic matrix with fast sampling
//!   of noisy outputs and distribution-level application `c ↦ c · P`;
//! * [`families`] — the standard matrix families discussed in the paper
//!   (the binary ε-flip of Eq. (1), its uniform k-ary generalization, the
//!   diagonally-dominant counterexample of Section 4, cyclic and resetting
//!   noise, near-uniform bands of Eq. (17), …);
//! * [`mp`] — the LP-based (ε, δ)-majority-preserving membership test of
//!   Section 4, together with the closed-form sufficient condition of
//!   Eq. (18);
//! * [`sampling`] — exact binomial/multinomial samplers, each split into
//!   a set-up and a draw, powering the simulator's batched count-based
//!   delivery (one multinomial per opinion row instead of one channel
//!   draw per message) and the count-level Stage-2 decision;
//! * [`NoiseSpec`] — a declarative, `k`-independent family-plus-parameters
//!   description with a round-trippable textual form (`uniform(0.25)`,
//!   `reset(0.4, 1)`, …), used by the experiment harness's scenario spec
//!   files;
//! * [`text`] — the one grammar of spec values (`family(args)`, `+`-joined
//!   families, case folding, error text), through which every spec value
//!   type of the workspace prints and parses.
//!
//! # Example
//!
//! ```
//! use noisy_channel::{families, NoiseMatrix};
//!
//! # fn main() -> Result<(), noisy_channel::NoiseError> {
//! // The paper's uniform k-ary noise: 1/k + eps on the diagonal.
//! let p = NoiseMatrix::uniform(4, 0.1)?;
//! assert_eq!(p.num_opinions(), 4);
//!
//! // It preserves any delta-biased plurality (Section 4).
//! let report = p.majority_preservation(0, 0.05)?;
//! assert!(report.is_majority_preserving(0.05));
//!
//! // The diagonally-dominant counterexample does not.
//! let bad = families::diagonally_dominant_counterexample(0.1)?;
//! let report = bad.majority_preservation(0, 0.1)?;
//! assert!(!report.preserves_majority());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
pub mod families;
mod matrix;
pub mod mp;
pub mod sampling;
mod spec;
pub mod spectral;
pub mod text;

pub use error::NoiseError;
pub use matrix::NoiseMatrix;
pub use spec::NoiseSpec;
pub use mp::{MpReport, PairwiseMargin};
pub use spectral::total_variation;

/// Numerical tolerance for stochasticity checks and margin comparisons.
pub const STOCHASTIC_TOLERANCE: f64 = 1e-9;
