//! The (ε, δ)-majority-preserving membership test (Section 4 of the paper).
//!
//! Definition 2 of the paper: a noise matrix `P` is **(ε, δ)-majority
//! preserving** with respect to opinion `m` if, for every opinion
//! distribution `c` that is δ-biased towards `m`
//! (`c_m − c_i ≥ δ` for all `i ≠ m`),
//!
//! ```text
//! (c · P)_m − (c · P)_i > ε δ     for every i ≠ m.
//! ```
//!
//! Section 4 observes that checking the property amounts to solving, for
//! every `i ≠ m`, the linear program
//!
//! ```text
//! minimize    (c · P)_m − (c · P)_i
//! subject to  Σ_j c_j = 1
//!             c_m − c_j ≥ δ        for all j ≠ m
//!             c_j ≥ 0
//! ```
//!
//! and checking that every optimum exceeds `ε δ`. The functions in this
//! module compute those optima exactly with the in-repo simplex solver
//! ([`noisy_lp`]), expose them as a [`MpReport`], and also provide the
//! closed-form sufficient condition of Eq. (18) for near-uniform matrices.

use crate::error::NoiseError;
use crate::matrix::NoiseMatrix;
use noisy_lp::{LinearProgram, LpError, Relation};

/// The worst-case margin for one "competitor" opinion `i ≠ m`:
/// the minimum of `(c · P)_m − (c · P)_i` over all δ-biased distributions.
#[derive(Debug, Clone, PartialEq)]
pub struct PairwiseMargin {
    /// The competitor opinion `i`.
    pub competitor: usize,
    /// The minimum of `(c · P)_m − (c · P)_i` over δ-biased `c`.
    pub margin: f64,
    /// A δ-biased distribution attaining (within numerical tolerance) the
    /// minimum — the *worst-case* opinion distribution for this competitor.
    pub worst_distribution: Vec<f64>,
}

/// Result of the majority-preservation analysis of a noise matrix with
/// respect to a plurality opinion `m` and a bias `δ`.
///
/// Produced by [`NoiseMatrix::majority_preservation`].
#[derive(Debug, Clone, PartialEq)]
pub struct MpReport {
    plurality: usize,
    delta: f64,
    margins: Vec<PairwiseMargin>,
}

impl MpReport {
    /// The plurality opinion `m` the analysis was run for.
    pub fn plurality(&self) -> usize {
        self.plurality
    }

    /// The bias `δ` the analysis was run for.
    pub fn delta(&self) -> f64 {
        self.delta
    }

    /// The per-competitor worst-case margins.
    pub fn margins(&self) -> &[PairwiseMargin] {
        &self.margins
    }

    /// The smallest margin over all competitors, i.e.
    /// `min_{i ≠ m} min_{δ-biased c} (c·P)_m − (c·P)_i`.
    pub fn worst_margin(&self) -> f64 {
        self.margins
            .iter()
            .map(|m| m.margin)
            .fold(f64::INFINITY, f64::min)
    }

    /// The competitor opinion attaining the worst margin.
    pub fn worst_competitor(&self) -> usize {
        self.margins
            .iter()
            .min_by(|a, b| a.margin.partial_cmp(&b.margin).expect("finite margins"))
            .map(|m| m.competitor)
            .expect("at least one competitor (k >= 2)")
    }

    /// `true` if the plurality opinion always stays strictly ahead of every
    /// competitor in expectation: the worst margin is strictly positive.
    ///
    /// This is the qualitative requirement discussed in Section 4: if it
    /// fails, there exists a δ-biased distribution from which the plurality
    /// cannot be recovered by any natural protocol without knowledge of `P`.
    pub fn preserves_majority(&self) -> bool {
        self.worst_margin() > 0.0
    }

    /// `true` if the matrix is (ε, δ)-majority-preserving per Definition 2:
    /// the worst margin strictly exceeds `ε · δ`.
    pub fn is_majority_preserving(&self, epsilon: f64) -> bool {
        self.worst_margin() > epsilon * self.delta
    }

    /// The largest `ε` for which the matrix is (ε, δ)-m.p. (i.e.
    /// `worst_margin / δ`), or 0 if the matrix does not even preserve the
    /// majority.
    pub fn max_epsilon(&self) -> f64 {
        (self.worst_margin() / self.delta).max(0.0)
    }
}

impl NoiseMatrix {
    /// Runs the (ε, δ)-majority-preservation analysis of Definition 2 /
    /// Section 4 with respect to plurality opinion `m` and bias `δ`,
    /// returning the worst-case margins for every competitor opinion.
    ///
    /// # Errors
    ///
    /// * [`NoiseError::OpinionOutOfRange`] if `m ≥ k`.
    /// * [`NoiseError::InvalidDelta`] unless `0 < δ ≤ 1`.
    /// * [`NoiseError::LpFailure`] if the underlying LP solver fails
    ///   unexpectedly (this indicates a bug, not a property of the matrix).
    ///
    /// # Example
    ///
    /// ```
    /// use noisy_channel::NoiseMatrix;
    /// # fn main() -> Result<(), noisy_channel::NoiseError> {
    /// let p = NoiseMatrix::binary_flip(0.2)?;
    /// let report = p.majority_preservation(0, 0.1)?;
    /// // For the binary flip matrix the worst margin is exactly 2 ε δ.
    /// assert!((report.worst_margin() - 2.0 * 0.2 * 0.1).abs() < 1e-7);
    /// assert!(report.is_majority_preserving(0.2));
    /// # Ok(())
    /// # }
    /// ```
    pub fn majority_preservation(&self, m: usize, delta: f64) -> Result<MpReport, NoiseError> {
        let k = self.num_opinions();
        if m >= k {
            return Err(NoiseError::OpinionOutOfRange {
                opinion: m,
                num_opinions: k,
            });
        }
        if !(delta.is_finite() && delta > 0.0 && delta <= 1.0) {
            return Err(NoiseError::InvalidDelta { value: delta });
        }
        let mut margins = Vec::with_capacity(k - 1);
        for i in (0..k).filter(|&i| i != m) {
            margins.push(self.pairwise_margin(m, i, delta)?);
        }
        Ok(MpReport {
            plurality: m,
            delta,
            margins,
        })
    }

    /// Solves the single-competitor LP: the minimum of
    /// `(c · P)_m − (c · P)_i` over δ-biased distributions `c`.
    fn pairwise_margin(
        &self,
        m: usize,
        i: usize,
        delta: f64,
    ) -> Result<PairwiseMargin, NoiseError> {
        let k = self.num_opinions();
        // (c·P)_m − (c·P)_i = Σ_j c_j (p_{j,m} − p_{j,i}).
        let objective: Vec<f64> = (0..k).map(|j| self.entry(j, m) - self.entry(j, i)).collect();
        let mut lp = LinearProgram::minimize(objective);
        let add = |lp: &mut LinearProgram,
                   coeffs: Vec<f64>,
                   rel: Relation,
                   rhs: f64|
         -> Result<(), NoiseError> {
            lp.add_constraint(coeffs, rel, rhs)
                .map(|_| ())
                .map_err(|e| NoiseError::LpFailure(e.to_string()))
        };
        // Σ_j c_j = 1.
        add(&mut lp, vec![1.0; k], Relation::Eq, 1.0)?;
        // c_m − c_j ≥ δ for all j ≠ m.
        for j in (0..k).filter(|&j| j != m) {
            let mut row = vec![0.0; k];
            row[m] = 1.0;
            row[j] = -1.0;
            add(&mut lp, row, Relation::Ge, delta)?;
        }
        match lp.solve() {
            Ok(solution) => Ok(PairwiseMargin {
                competitor: i,
                margin: solution.objective_value(),
                worst_distribution: solution.into_variables(),
            }),
            Err(LpError::Infeasible) => {
                // δ so large that no δ-biased distribution exists can only
                // happen for δ > 1, which was rejected above; treat as a bug.
                Err(NoiseError::LpFailure(
                    "majority-preservation LP unexpectedly infeasible".to_string(),
                ))
            }
            Err(e) => Err(NoiseError::LpFailure(e.to_string())),
        }
    }
}

/// The closed-form sufficient condition of Eq. (18): a matrix of the
/// near-uniform family of Eq. (17) — diagonal `p`, off-diagonal entries in
/// `[q_l, q_u]` — is `((p − q_u)/2, δ)`-m.p. provided
///
/// ```text
/// (p − q_u) · δ / 2  ≥  q_u − q_l.
/// ```
///
/// Returns `Some(ε)` with `ε = (p − q_u)/2` when the condition holds, and
/// `None` otherwise.
///
/// ```
/// use noisy_channel::mp::near_uniform_sufficient_epsilon;
/// // A perfectly uniform band (q_l = q_u) always qualifies.
/// assert!(near_uniform_sufficient_epsilon(0.4, 0.2, 0.2, 0.05).is_some());
/// // A band too wide for the requested bias does not.
/// assert!(near_uniform_sufficient_epsilon(0.4, 0.1, 0.3, 0.05).is_none());
/// ```
pub fn near_uniform_sufficient_epsilon(p: f64, q_l: f64, q_u: f64, delta: f64) -> Option<f64> {
    if p <= q_u || delta <= 0.0 || q_u < q_l {
        return None;
    }
    let epsilon = (p - q_u) / 2.0;
    if (p - q_u) * delta / 2.0 >= (q_u - q_l) - 1e-15 {
        Some(epsilon)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::families;

    #[test]
    fn binary_flip_margin_is_two_eps_delta() {
        // For P = [[1/2+e, 1/2-e], [1/2-e, 1/2+e]]:
        // (cP)_0 - (cP)_1 = 2e (c_0 - c_1), minimized at c_0 - c_1 = delta.
        for &(eps, delta) in &[(0.1, 0.05), (0.25, 0.5), (0.4, 1.0)] {
            let p = NoiseMatrix::binary_flip(eps).unwrap();
            let report = p.majority_preservation(0, delta).unwrap();
            assert!(
                (report.worst_margin() - 2.0 * eps * delta).abs() < 1e-7,
                "eps={eps} delta={delta}: margin {}",
                report.worst_margin()
            );
            assert!(report.is_majority_preserving(eps));
            assert!((report.max_epsilon() - 2.0 * eps).abs() < 1e-6);
        }
    }

    #[test]
    fn uniform_kary_margin_matches_closed_form() {
        // For the uniform family, (cP)_m - (cP)_i = (e + e/(k-1)) (c_m - c_i),
        // minimized at c_m - c_i = delta.
        let k = 4;
        let eps = 0.12;
        let delta = 0.2;
        let p = NoiseMatrix::uniform(k, eps).unwrap();
        let report = p.majority_preservation(1, delta).unwrap();
        let expected = (eps + eps / (k as f64 - 1.0)) * delta;
        assert!(
            (report.worst_margin() - expected).abs() < 1e-7,
            "margin {} expected {expected}",
            report.worst_margin()
        );
        // It is m.p. for every delta (Section 4): epsilon slack is positive.
        assert!(report.is_majority_preserving(eps));
    }

    #[test]
    fn uniform_family_is_mp_with_respect_to_every_opinion() {
        let p = NoiseMatrix::uniform(5, 0.1).unwrap();
        for m in 0..5 {
            let report = p.majority_preservation(m, 0.01).unwrap();
            assert!(report.preserves_majority(), "opinion {m}");
            assert_eq!(report.plurality(), m);
            assert_eq!(report.margins().len(), 4);
        }
    }

    #[test]
    fn diagonally_dominant_counterexample_fails_for_small_eps_delta() {
        // Section 4: for eps, delta < 1/6 the matrix does not preserve the
        // majority at all.
        let p = families::diagonally_dominant_counterexample(0.1).unwrap();
        let report = p.majority_preservation(0, 0.1).unwrap();
        assert!(report.worst_margin() < 0.0);
        assert!(!report.preserves_majority());
        assert!(!report.is_majority_preserving(0.1));
        assert_eq!(report.max_epsilon(), 0.0);
        // The worst-case distribution found by the LP must itself be
        // delta-biased and certify the violation.
        let worst = &report.margins()[report.worst_competitor() - 1].worst_distribution;
        let out = p.apply(worst);
        assert!(out[0] < out[report.worst_competitor()] + 1e-9);
    }

    #[test]
    fn diagonally_dominant_counterexample_recovers_for_large_eps() {
        // With eps close to 1/2 the same matrix becomes nearly noiseless and
        // preserves the majority again.
        let p = families::diagonally_dominant_counterexample(0.45).unwrap();
        let report = p.majority_preservation(0, 0.3).unwrap();
        assert!(report.preserves_majority());
    }

    #[test]
    fn identity_margin_is_exactly_delta() {
        let p = NoiseMatrix::identity(3).unwrap();
        let report = p.majority_preservation(2, 0.25).unwrap();
        assert!((report.worst_margin() - 0.25).abs() < 1e-7);
        assert!((report.max_epsilon() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn reset_noise_is_not_mp_towards_other_opinions() {
        // Resetting towards opinion 0 with probability 0.6 destroys any
        // small bias towards opinion 1.
        let p = families::reset_to_opinion(3, 0.6, 0).unwrap();
        let report = p.majority_preservation(1, 0.05).unwrap();
        assert!(!report.preserves_majority());
        // But it is trivially m.p. towards the reset target itself.
        let report0 = p.majority_preservation(0, 0.05).unwrap();
        assert!(report0.preserves_majority());
    }

    #[test]
    fn worst_distribution_is_delta_biased() {
        let p = NoiseMatrix::uniform(4, 0.15).unwrap();
        let delta = 0.1;
        let report = p.majority_preservation(0, delta).unwrap();
        for pm in report.margins() {
            let c = &pm.worst_distribution;
            let sum: f64 = c.iter().sum();
            assert!((sum - 1.0).abs() < 1e-6);
            for j in 1..4 {
                assert!(c[0] - c[j] >= delta - 1e-6, "c = {c:?}");
            }
        }
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        let p = NoiseMatrix::uniform(3, 0.1).unwrap();
        assert!(matches!(
            p.majority_preservation(3, 0.1),
            Err(NoiseError::OpinionOutOfRange { .. })
        ));
        assert!(matches!(
            p.majority_preservation(0, 0.0),
            Err(NoiseError::InvalidDelta { .. })
        ));
        assert!(matches!(
            p.majority_preservation(0, 1.5),
            Err(NoiseError::InvalidDelta { .. })
        ));
    }

    #[test]
    fn eq_18_sufficient_condition_implies_lp_verdict() {
        // Build matrices of the Eq. (17) family and check that whenever the
        // closed-form sufficient condition grants an epsilon, the exact LP
        // analysis confirms the matrix is (eps, delta)-m.p.
        let cases = [
            (4usize, 0.4, 0.18, 0.22, 0.4),
            (5usize, 0.5, 0.12, 0.125, 0.2),
            (3usize, 0.6, 0.2, 0.2, 0.05),
        ];
        for &(k, p_diag, q_l, q_u, delta) in &cases {
            let matrix = families::near_uniform_band(k, p_diag, q_l, q_u).unwrap();
            if let Some(eps) = near_uniform_sufficient_epsilon(p_diag, q_l, q_u, delta) {
                let report = matrix.majority_preservation(0, delta).unwrap();
                assert!(
                    report.worst_margin() > eps * delta - 1e-9,
                    "k={k}: margin {} vs eps*delta {}",
                    report.worst_margin(),
                    eps * delta
                );
            }
        }
    }
}
