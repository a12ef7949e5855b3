//! The validated row-stochastic noise matrix.

use crate::error::NoiseError;
use crate::{sampling, STOCHASTIC_TOLERANCE};
use rand::Rng;

/// Appends the Walker/Vose alias table of one matrix row to `table`: one
/// (acceptance probability, fallback outcome) pair per column, so that
/// sampling the received opinion is O(1) regardless of `k`.
///
/// Construction is the standard two-stack pairing of under-full and
/// over-full columns; sampling draws one uniform column index and one
/// uniform coin. Compared to the previous inverse-CDF binary search this
/// removes the `log k` factor *and* the data-dependent branch pattern from
/// the per-message hot path.
fn push_alias_row(weights: &[f64], table: &mut Vec<(f64, usize)>) {
    let k = weights.len();
    debug_assert!(k > 0);
    let total: f64 = weights.iter().sum();
    let mut scaled: Vec<f64> = weights.iter().map(|&w| w * k as f64 / total).collect();
    let mut prob = vec![0.0f64; k];
    let mut alias: Vec<usize> = (0..k).collect();
    let mut small: Vec<usize> = Vec::with_capacity(k);
    let mut large: Vec<usize> = Vec::with_capacity(k);
    for (j, &s) in scaled.iter().enumerate() {
        if s < 1.0 {
            small.push(j);
        } else {
            large.push(j);
        }
    }
    while let (Some(&s), Some(&l)) = (small.last(), large.last()) {
        small.pop();
        prob[s] = scaled[s];
        alias[s] = l;
        scaled[l] -= 1.0 - scaled[s];
        if scaled[l] < 1.0 {
            large.pop();
            small.push(l);
        }
    }
    // Leftovers on either stack are exactly-full columns up to rounding.
    for j in small.into_iter().chain(large) {
        prob[j] = 1.0;
    }
    table.extend(prob.into_iter().zip(alias));
}

/// A `k × k` row-stochastic noise matrix `P = (p_{i,j})`.
///
/// Entry `p_{i,j}` is the probability that an opinion `i` pushed over a link
/// is received as opinion `j` (Section 2.1 of the paper). Rows are validated
/// to be non-negative and to sum to one (within
/// [`STOCHASTIC_TOLERANCE`](crate::STOCHASTIC_TOLERANCE)) at construction,
/// and a Walker/Vose alias table is precomputed per row so that sampling a
/// noisy output ([`sample`](NoiseMatrix::sample)) is O(1), and re-coloring a
/// whole batch of identical messages
/// ([`sample_row_counts`](NoiseMatrix::sample_row_counts)) is one
/// multinomial draw — O(k) — independent of the batch size.
///
/// # Example
///
/// ```
/// use noisy_channel::NoiseMatrix;
///
/// # fn main() -> Result<(), noisy_channel::NoiseError> {
/// // The binary noise matrix of Eq. (1) with eps = 0.2.
/// let p = NoiseMatrix::binary_flip(0.2)?;
/// assert_eq!(p.num_opinions(), 2);
/// assert!((p.entry(0, 0) - 0.7).abs() < 1e-12);
///
/// // Applying it to a distribution computes c · P.
/// let out = p.apply(&[1.0, 0.0]);
/// assert!((out[0] - 0.7).abs() < 1e-12);
/// assert!((out[1] - 0.3).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct NoiseMatrix {
    /// Row-major entries.
    rows: Vec<Vec<f64>>,
    /// The alias tables of all rows in one flat row-major `k × k` array:
    /// entry `i·k + j` is column `j` of row `i`'s table, its acceptance
    /// probability and its fallback outcome. A sample reads one pair, with
    /// no pointer to follow per row.
    alias: Vec<(f64, usize)>,
}

impl NoiseMatrix {
    /// Builds a noise matrix from explicit rows.
    ///
    /// # Errors
    ///
    /// * [`NoiseError::TooFewOpinions`] if fewer than 2 rows are supplied.
    /// * [`NoiseError::NotSquare`] if any row has a different length than the
    ///   number of rows.
    /// * [`NoiseError::NonFiniteEntry`] if any entry is NaN or infinite.
    /// * [`NoiseError::NotStochastic`] if any entry is negative or a row does
    ///   not sum to 1.
    pub fn from_rows(rows: Vec<Vec<f64>>) -> Result<Self, NoiseError> {
        let k = rows.len();
        if k < 2 {
            return Err(NoiseError::TooFewOpinions { found: k });
        }
        for (i, row) in rows.iter().enumerate() {
            if row.len() != k {
                return Err(NoiseError::NotSquare {
                    rows: k,
                    row_len: row.len(),
                });
            }
            for (j, &v) in row.iter().enumerate() {
                if !v.is_finite() {
                    return Err(NoiseError::NonFiniteEntry { row: i, col: j });
                }
                if v < -STOCHASTIC_TOLERANCE {
                    return Err(NoiseError::NotStochastic {
                        row: i,
                        sum: row.iter().sum(),
                    });
                }
            }
            let sum: f64 = row.iter().sum();
            if (sum - 1.0).abs() > 1e-6 {
                return Err(NoiseError::NotStochastic { row: i, sum });
            }
        }
        let mut alias = Vec::with_capacity(k * k);
        for row in &rows {
            push_alias_row(row, &mut alias);
        }
        Ok(Self { rows, alias })
    }

    /// The identity (noise-free) matrix over `k` opinions.
    ///
    /// # Errors
    ///
    /// Returns [`NoiseError::TooFewOpinions`] if `k < 2`.
    pub fn identity(k: usize) -> Result<Self, NoiseError> {
        if k < 2 {
            return Err(NoiseError::TooFewOpinions { found: k });
        }
        let rows = (0..k)
            .map(|i| (0..k).map(|j| if i == j { 1.0 } else { 0.0 }).collect())
            .collect();
        Self::from_rows(rows)
    }

    /// The binary noise matrix of Eq. (1): an opinion is kept with
    /// probability `1/2 + ε` and flipped with probability `1/2 − ε`.
    ///
    /// # Errors
    ///
    /// Returns [`NoiseError::InvalidEpsilon`] unless `0 < ε ≤ 1/2`.
    pub fn binary_flip(epsilon: f64) -> Result<Self, NoiseError> {
        crate::families::binary_flip(epsilon)
    }

    /// The paper's uniform k-ary generalization of Eq. (1): the diagonal is
    /// `1/k + ε` and every off-diagonal entry is `1/k − ε/(k−1)`.
    ///
    /// # Errors
    ///
    /// Returns [`NoiseError::InvalidEpsilon`] unless `0 < ε ≤ 1 − 1/k`, and
    /// [`NoiseError::TooFewOpinions`] if `k < 2`.
    pub fn uniform(k: usize, epsilon: f64) -> Result<Self, NoiseError> {
        crate::families::uniform(k, epsilon)
    }

    /// The number of opinions `k` the matrix is defined over.
    pub fn num_opinions(&self) -> usize {
        self.rows.len()
    }

    /// The entry `p_{i,j}`.
    ///
    /// # Panics
    ///
    /// Panics if `i` or `j` is out of range.
    pub fn entry(&self, i: usize, j: usize) -> f64 {
        self.rows[i][j]
    }

    /// The `i`-th row of the matrix (the output distribution of input `i`).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.rows[i]
    }

    /// Iterates over the rows of the matrix.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f64]> {
        self.rows.iter().map(|r| r.as_slice())
    }

    /// Applies the matrix to an opinion distribution: returns `c · P`.
    ///
    /// This is Eq. (2) of the paper: if the opinion distribution at round `t`
    /// is `c`, the expected distribution of *received* opinions is `c · P`.
    ///
    /// # Panics
    ///
    /// Panics if `distribution.len()` differs from the number of opinions.
    pub fn apply(&self, distribution: &[f64]) -> Vec<f64> {
        assert_eq!(
            distribution.len(),
            self.num_opinions(),
            "distribution dimension must equal the number of opinions"
        );
        let k = self.num_opinions();
        let mut out = vec![0.0; k];
        for (ci, row) in distribution.iter().zip(&self.rows) {
            if *ci == 0.0 {
                continue;
            }
            for (o, pij) in out.iter_mut().zip(row) {
                *o += ci * pij;
            }
        }
        out
    }

    /// Samples the received opinion when opinion `input` is pushed through
    /// the noisy channel. O(1) via the precomputed alias table.
    ///
    /// # Panics
    ///
    /// Panics if `input` is out of range.
    // Inlined into every per-message loop, so the caller's generator can
    // stay in registers.
    #[inline(always)]
    pub fn sample<R: Rng + ?Sized>(&self, input: usize, rng: &mut R) -> usize {
        let k = self.rows.len();
        let j = rng.gen_range(0..k);
        let (accept, fallback) = self.alias[input * k + j];
        if rng.gen::<f64>() < accept {
            j
        } else {
            fallback
        }
    }

    /// Re-colors `count` identical copies of opinion `input` through the
    /// channel in one batch: returns per-opinion received counts drawn from
    /// `Multinomial(count, p_input)`, summing to exactly `count`.
    ///
    /// This is the count-level view used by the batched delivery engine:
    /// messages within a phase are exchangeable, so one multinomial draw per
    /// opinion row — O(k) conditional binomials — replaces `count`
    /// per-message channel samples.
    ///
    /// # Panics
    ///
    /// Panics if `input` is out of range.
    pub fn sample_row_counts<R: Rng + ?Sized>(
        &self,
        input: usize,
        count: u64,
        rng: &mut R,
    ) -> Vec<u64> {
        sampling::multinomial(count, &self.rows[input], rng)
    }

    /// Re-colors a whole phase's pending per-opinion counts through the
    /// channel: the sum of one [`sample_row_counts`](Self::sample_row_counts)
    /// draw per opinion row — O(k²) conditional binomials total, conserving
    /// the message count exactly. This is the shared noise-application step
    /// of both simulator backends' batched `end_phase`.
    ///
    /// # Panics
    ///
    /// Panics if `pending.len() ≠ num_opinions()`.
    pub fn recolor_counts<R: Rng + ?Sized>(&self, pending: &[u64], rng: &mut R) -> Vec<u64> {
        assert_eq!(
            pending.len(),
            self.num_opinions(),
            "pending counts must have one entry per opinion"
        );
        let mut post_noise = vec![0u64; self.num_opinions()];
        for (opinion, &m) in pending.iter().enumerate() {
            if m == 0 {
                continue;
            }
            for (total, c) in post_noise
                .iter_mut()
                .zip(self.sample_row_counts(opinion, m, rng))
            {
                *total += c;
            }
        }
        post_noise
    }

    /// Returns `true` if the matrix is the identity (no noise).
    pub fn is_identity(&self) -> bool {
        self.rows.iter().enumerate().all(|(i, row)| {
            row.iter()
                .enumerate()
                .all(|(j, &v)| (v - if i == j { 1.0 } else { 0.0 }).abs() < STOCHASTIC_TOLERANCE)
        })
    }

    /// Returns `true` if the matrix is doubly stochastic (columns also sum
    /// to one). All matrices of the paper's uniform family are doubly
    /// stochastic; the resetting family is not.
    pub fn is_doubly_stochastic(&self) -> bool {
        let k = self.num_opinions();
        (0..k).all(|j| {
            let col_sum: f64 = self.rows.iter().map(|r| r[j]).sum();
            (col_sum - 1.0).abs() < 1e-6
        })
    }

    /// Returns `true` if every diagonal entry strictly dominates every other
    /// entry of its row. Diagonal dominance is *not* sufficient for majority
    /// preservation (Section 4 of the paper exhibits a counterexample).
    pub fn is_diagonally_dominant(&self) -> bool {
        self.rows.iter().enumerate().all(|(i, row)| {
            row.iter()
                .enumerate()
                .all(|(j, &v)| i == j || row[i] > v + STOCHASTIC_TOLERANCE)
        })
    }

    /// The minimum diagonal entry of the matrix: the worst-case probability
    /// that an opinion survives the channel unchanged.
    pub fn min_survival_probability(&self) -> f64 {
        self.rows
            .iter()
            .enumerate()
            .map(|(i, row)| row[i])
            .fold(f64::INFINITY, f64::min)
    }

    /// Consumes the matrix and returns its rows.
    pub fn into_rows(self) -> Vec<Vec<f64>> {
        self.rows
    }
}

impl std::fmt::Display for NoiseMatrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "NoiseMatrix ({}x{}):", self.num_opinions(), self.num_opinions())?;
        for row in &self.rows {
            write!(f, "  [")?;
            for (j, v) in row.iter().enumerate() {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{v:.4}")?;
            }
            writeln!(f, "]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn from_rows_validates_shape_and_stochasticity() {
        assert!(matches!(
            NoiseMatrix::from_rows(vec![vec![1.0]]),
            Err(NoiseError::TooFewOpinions { found: 1 })
        ));
        assert!(matches!(
            NoiseMatrix::from_rows(vec![vec![1.0, 0.0], vec![1.0]]),
            Err(NoiseError::NotSquare { .. })
        ));
        assert!(matches!(
            NoiseMatrix::from_rows(vec![vec![0.6, 0.6], vec![0.5, 0.5]]),
            Err(NoiseError::NotStochastic { row: 0, .. })
        ));
        assert!(matches!(
            NoiseMatrix::from_rows(vec![vec![f64::NAN, 1.0], vec![0.5, 0.5]]),
            Err(NoiseError::NonFiniteEntry { row: 0, col: 0 })
        ));
        assert!(matches!(
            NoiseMatrix::from_rows(vec![vec![1.2, -0.2], vec![0.5, 0.5]]),
            Err(NoiseError::NotStochastic { .. })
        ));
    }

    #[test]
    fn identity_is_identity() {
        let p = NoiseMatrix::identity(3).unwrap();
        assert!(p.is_identity());
        assert!(p.is_doubly_stochastic());
        assert!(p.is_diagonally_dominant());
        assert_eq!(p.min_survival_probability(), 1.0);
        assert_eq!(p.apply(&[0.2, 0.3, 0.5]), vec![0.2, 0.3, 0.5]);
    }

    #[test]
    fn apply_matches_manual_matrix_vector_product() {
        let p = NoiseMatrix::from_rows(vec![
            vec![0.7, 0.2, 0.1],
            vec![0.1, 0.8, 0.1],
            vec![0.3, 0.3, 0.4],
        ])
        .unwrap();
        let c = [0.5, 0.25, 0.25];
        let out = p.apply(&c);
        let expected = [
            0.5 * 0.7 + 0.25 * 0.1 + 0.25 * 0.3,
            0.5 * 0.2 + 0.25 * 0.8 + 0.25 * 0.3,
            0.5 * 0.1 + 0.25 * 0.1 + 0.25 * 0.4,
        ];
        for (o, e) in out.iter().zip(&expected) {
            assert!((o - e).abs() < 1e-12);
        }
        // A distribution stays a distribution.
        let sum: f64 = out.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sampling_frequencies_match_the_row() {
        let p = NoiseMatrix::from_rows(vec![
            vec![0.6, 0.3, 0.1],
            vec![0.1, 0.1, 0.8],
            vec![1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0],
        ])
        .unwrap();
        let mut rng = StdRng::seed_from_u64(42);
        let trials = 200_000;
        for input in 0..3 {
            let mut counts = [0usize; 3];
            for _ in 0..trials {
                counts[p.sample(input, &mut rng)] += 1;
            }
            for (j, &count) in counts.iter().enumerate() {
                let freq = count as f64 / trials as f64;
                assert!(
                    (freq - p.entry(input, j)).abs() < 0.01,
                    "input {input}: frequency of {j} was {freq}, expected {}",
                    p.entry(input, j)
                );
            }
        }
    }

    #[test]
    fn sample_never_returns_out_of_range() {
        let p = NoiseMatrix::binary_flip(0.5).unwrap(); // deterministic channel
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            assert_eq!(p.sample(0, &mut rng), 0);
            assert_eq!(p.sample(1, &mut rng), 1);
        }
    }

    #[test]
    fn structural_predicates() {
        let uniform = NoiseMatrix::uniform(4, 0.1).unwrap();
        assert!(uniform.is_doubly_stochastic());
        assert!(uniform.is_diagonally_dominant());
        assert!(!uniform.is_identity());
        assert!((uniform.min_survival_probability() - (0.25 + 0.1)).abs() < 1e-12);

        let reset = crate::families::reset_to_opinion(3, 0.3, 0).unwrap();
        assert!(!reset.is_doubly_stochastic());
    }

    #[test]
    fn display_contains_all_entries() {
        let p = NoiseMatrix::binary_flip(0.25).unwrap();
        let text = p.to_string();
        assert!(text.contains("0.7500"));
        assert!(text.contains("0.2500"));
    }

    #[test]
    fn sample_row_counts_conserves_and_matches_the_row() {
        let p = NoiseMatrix::from_rows(vec![
            vec![0.6, 0.3, 0.1],
            vec![0.1, 0.1, 0.8],
            vec![1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0],
        ])
        .unwrap();
        let mut rng = StdRng::seed_from_u64(77);
        for input in 0..3 {
            let count = 200_000u64;
            let out = p.sample_row_counts(input, count, &mut rng);
            assert_eq!(out.iter().sum::<u64>(), count, "conservation violated");
            for (j, &c) in out.iter().enumerate() {
                let freq = c as f64 / count as f64;
                assert!(
                    (freq - p.entry(input, j)).abs() < 0.005,
                    "input {input}: frequency of {j} was {freq}, expected {}",
                    p.entry(input, j)
                );
            }
        }
        // Zero messages, zero output.
        assert_eq!(p.sample_row_counts(0, 0, &mut rng), vec![0, 0, 0]);
    }

    #[test]
    fn alias_table_handles_deterministic_rows() {
        // Rows with zero entries must never emit the zero-probability
        // outcome (identity matrix: alias fallbacks all point back at the
        // diagonal).
        let p = NoiseMatrix::identity(4).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        for input in 0..4 {
            for _ in 0..1_000 {
                assert_eq!(p.sample(input, &mut rng), input);
            }
            let counts = p.sample_row_counts(input, 1_000, &mut rng);
            assert_eq!(counts[input], 1_000);
        }
    }

    #[test]
    fn into_rows_round_trips() {
        let rows = vec![vec![0.9, 0.1], vec![0.2, 0.8]];
        let p = NoiseMatrix::from_rows(rows.clone()).unwrap();
        assert_eq!(p.into_rows(), rows);
    }
}
