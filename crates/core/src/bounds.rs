//! Theoretical quantities from the paper's analysis, used by tests and by
//! the experiment harness to compare measurements against predictions.
//!
//! * [`g`] — the function `g(δ, ℓ)` of Proposition 1 (see also Lemma 15 for
//!   its monotonicity properties).
//! * [`proposition1_lower_bound`] — the sample-majority gap lower bound
//!   `√(2ℓ/π) · g(δ, ℓ) / 4^{k−2}` of Proposition 1.
//! * [`exact_majority_gap_binary`] — the exact value of
//!   `Pr[maj_ℓ = 1] − Pr[maj_ℓ = 2]` for two opinions, computed from
//!   binomial sums (the quantity Lemma 9 lower-bounds).
//! * [`sample_majority_gap`] — a Monte-Carlo estimator of the same gap for
//!   arbitrary `k` (the quantity Proposition 1 lower-bounds).
//! * [`lemma16_tail_bound`] — the Chernoff-style tail bound of Lemma 16.
//! * [`rounds_bound`] and [`memory_bound_bits`] — the asymptotic complexity
//!   scales of Theorems 1 and 2.

use rand::Rng;

/// The function `g(δ, ℓ)` of Proposition 1:
///
/// ```text
/// g(δ, ℓ) = δ (1 − δ²)^{(ℓ−1)/2}            if δ < 1/√ℓ
///         = (1/√ℓ)(1 − 1/ℓ)^{(ℓ−1)/2}        otherwise.
/// ```
///
/// It is non-decreasing in `δ` and non-increasing in `ℓ` (Lemma 15).
///
/// # Panics
///
/// Panics if `delta` is not in `[0, 1]` or `ell < 1`.
pub fn g(delta: f64, ell: u64) -> f64 {
    assert!(
        (0.0..=1.0).contains(&delta),
        "delta must lie in [0, 1], got {delta}"
    );
    assert!(ell >= 1, "ell must be at least 1");
    let l = ell as f64;
    let exponent = (l - 1.0) / 2.0;
    if delta < 1.0 / l.sqrt() {
        delta * (1.0 - delta * delta).powf(exponent)
    } else {
        (1.0 / l.sqrt()) * (1.0 - 1.0 / l).powf(exponent)
    }
}

/// The Proposition 1 lower bound on the sample-majority gap
/// `Pr[maj_ℓ(u) = m] − Pr[maj_ℓ(u) = i]` when the received-opinion
/// distribution is δ-biased towards `m`:
///
/// ```text
/// √(2ℓ/π) · g(δ, ℓ) / 4^{k−2}.
/// ```
///
/// # Panics
///
/// Panics if `k < 2`, `ell < 1`, or `delta ∉ [0, 1]`.
pub fn proposition1_lower_bound(delta: f64, ell: u64, k: usize) -> f64 {
    assert!(k >= 2, "the bound is stated for k >= 2");
    (2.0 * ell as f64 / std::f64::consts::PI).sqrt() * g(delta, ell)
        / 4f64.powi(k as i32 - 2)
}

/// Exact value of `Pr[maj_ℓ = 1] − Pr[maj_ℓ = 2]` for `k = 2` opinions when
/// each of the `ℓ` sampled messages is opinion 1 independently with
/// probability `p1` (ties broken uniformly at random).
///
/// This is the quantity that Lemma 9 lower-bounds by `√(2ℓ/π)·g(2p1−1, ℓ)`.
///
/// A tie adds the same to both probabilities, and every count `i > ℓ/2`
/// of opinion 1 pairs with the count `i` of opinion 2, so the gap is
/// `Σ_{i > ℓ/2} C(ℓ, i)·(p1ⁱ·p2^(ℓ−i) − p2ⁱ·p1^(ℓ−i))` with `p2 = 1 − p1`.
/// Summing it pair by pair makes the result exactly `0` at `p1 = ½` and
/// exactly antisymmetric under swapping `p1` and `p2`.
///
/// # Panics
///
/// Panics if `p1 ∉ [0, 1]` or `ell` is 0 or too large for exact summation
/// (`ell > 10_000`).
pub fn exact_majority_gap_binary(p1: f64, ell: u64) -> f64 {
    assert!((0.0..=1.0).contains(&p1), "p1 must lie in [0, 1]");
    assert!((1..=10_000).contains(&ell), "ell must lie in [1, 10000]");
    let p2 = 1.0 - p1;
    // ln(xᵉ) in log space, against factorial overflow; x⁰ = 1 also at x = 0.
    let ln_pow = |x: f64, e: u64| if e == 0 { 0.0 } else { e as f64 * x.ln() };
    (ell / 2 + 1..=ell)
        .map(|i| {
            let ln_c = log_binomial(ell, i);
            let weight = |a: f64, b: f64| (ln_c + ln_pow(a, i) + ln_pow(b, ell - i)).exp();
            weight(p1, p2) - weight(p2, p1)
        })
        .sum()
}

/// `ln C(n, k)` via the log-gamma function (Stirling-series implementation,
/// accurate to ~1e-10 for the ranges used here).
fn log_binomial(n: u64, k: u64) -> f64 {
    if k > n {
        return f64::NEG_INFINITY;
    }
    ln_factorial(n) - ln_factorial(k) - ln_factorial(n - k)
}

/// `ln(n!)` — exact summation for small `n`, Stirling's series beyond.
fn ln_factorial(n: u64) -> f64 {
    if n < 64 {
        (2..=n).map(|i| (i as f64).ln()).sum()
    } else {
        let x = n as f64;
        // Stirling series with the first two correction terms.
        x * x.ln() - x + 0.5 * (2.0 * std::f64::consts::PI * x).ln() + 1.0 / (12.0 * x)
            - 1.0 / (360.0 * x.powi(3))
    }
}

/// Monte-Carlo estimate of the sample-majority gap
/// `Pr[maj_ℓ(u) = m] − Pr[maj_ℓ(u) = i]` when the `ℓ` sampled messages are
/// i.i.d. from `received_distribution` (the paper's `c · P`), with ties
/// broken uniformly at random.
///
/// Returns the estimated gap. Used by experiment F4 to compare the true gap
/// against [`proposition1_lower_bound`].
///
/// # Panics
///
/// Panics if the distribution is empty, has negative entries, does not sum
/// to ~1, or if `m`/`i` are out of range.
pub fn sample_majority_gap<R: Rng + ?Sized>(
    received_distribution: &[f64],
    ell: u64,
    m: usize,
    i: usize,
    trials: u64,
    rng: &mut R,
) -> f64 {
    let k = received_distribution.len();
    assert!(k >= 2, "need at least two opinions");
    assert!(m < k && i < k && m != i, "m and i must be distinct opinions");
    let sum: f64 = received_distribution.iter().sum();
    assert!(
        (sum - 1.0).abs() < 1e-6 && received_distribution.iter().all(|&p| p >= 0.0),
        "received_distribution must be a probability distribution"
    );
    // Precompute the cumulative distribution for inverse-CDF sampling.
    let mut cumulative = Vec::with_capacity(k);
    let mut acc = 0.0;
    for &p in received_distribution {
        acc += p;
        cumulative.push(acc);
    }
    *cumulative.last_mut().expect("non-empty") = 1.0;

    let mut wins_m = 0u64;
    let mut wins_i = 0u64;
    let mut counts = vec![0u32; k];
    for _ in 0..trials {
        counts.iter_mut().for_each(|c| *c = 0);
        for _ in 0..ell {
            let u: f64 = rng.gen();
            let idx = cumulative
                .iter()
                .position(|&c| u <= c)
                .unwrap_or(k - 1);
            counts[idx] += 1;
        }
        let max = *counts.iter().max().expect("non-empty");
        let tied: Vec<usize> = (0..k).filter(|&j| counts[j] == max).collect();
        let winner = tied[rng.gen_range(0..tied.len())];
        if winner == m {
            wins_m += 1;
        } else if winner == i {
            wins_i += 1;
        }
    }
    (wins_m as f64 - wins_i as f64) / trials as f64
}

/// The tail bound of Lemma 16: for `n` i.i.d. variables taking values in
/// `{−1, 0, +1}`,
///
/// ```text
/// Pr[ Σ X ≤ (1−θ) E[Σ X] − θ n ] ≤ exp( −(θ²/4)(E[Σ X] + n) ).
/// ```
///
/// Returns the right-hand side.
///
/// # Panics
///
/// Panics if `theta ∉ (0, 1)` or `n == 0`.
pub fn lemma16_tail_bound(theta: f64, expected_sum: f64, n: u64) -> f64 {
    assert!(theta > 0.0 && theta < 1.0, "theta must lie in (0, 1)");
    assert!(n > 0, "n must be positive");
    (-(theta * theta / 4.0) * (expected_sum + n as f64)).exp()
}

/// The asymptotic round-complexity scale of Theorems 1 and 2:
/// `ln(n) / ε²` (no constants).
pub fn rounds_bound(n: usize, epsilon: f64) -> f64 {
    (n as f64).ln() / (epsilon * epsilon)
}

/// The asymptotic memory scale of Theorems 1 and 2 in bits:
/// `log₂ log₂ n + log₂(1/ε)` (no constants).
pub fn memory_bound_bits(n: usize, epsilon: f64) -> f64 {
    ((n as f64).log2()).max(1.0).log2() + (1.0 / epsilon).log2()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn g_matches_definition_on_both_branches() {
        // Small-delta branch.
        let d: f64 = 0.05;
        let l = 25;
        let expected = d * (1.0 - d * d).powf((l as f64 - 1.0) / 2.0);
        assert!((g(d, l) - expected).abs() < 1e-12);
        // Large-delta branch (delta >= 1/sqrt(l) = 0.2).
        let d = 0.5;
        let expected = (1.0 / 5.0) * (1.0 - 1.0 / 25.0f64).powf(12.0);
        assert!((g(d, 25) - expected).abs() < 1e-12);
    }

    #[test]
    fn g_is_monotone_as_in_lemma_15() {
        // Non-decreasing in delta.
        let l = 49;
        let mut prev = 0.0;
        for step in 0..=20 {
            let d = step as f64 / 20.0;
            let value = g(d, l);
            assert!(value >= prev - 1e-12, "g must be non-decreasing in delta");
            prev = value;
        }
        // Non-increasing in ell for fixed delta.
        let d = 0.3;
        let mut prev = f64::INFINITY;
        for l in [1u64, 3, 9, 25, 81, 243] {
            let value = g(d, l);
            assert!(value <= prev + 1e-12, "g must be non-increasing in ell");
            prev = value;
        }
    }

    #[test]
    #[should_panic(expected = "delta")]
    fn g_rejects_invalid_delta() {
        let _ = g(1.5, 9);
    }

    #[test]
    fn proposition1_bound_decreases_with_k() {
        let b2 = proposition1_lower_bound(0.1, 25, 2);
        let b3 = proposition1_lower_bound(0.1, 25, 3);
        let b5 = proposition1_lower_bound(0.1, 25, 5);
        assert!(b2 > b3 && b3 > b5);
        assert!((b2 / b3 - 4.0).abs() < 1e-9);
    }

    #[test]
    fn exact_binary_gap_has_correct_extremes_and_symmetry() {
        // Unbiased sample: gap 0.
        assert!(exact_majority_gap_binary(0.5, 11).abs() < 1e-12);
        // Certain opinion 1: gap 1.
        assert!((exact_majority_gap_binary(1.0, 11) - 1.0).abs() < 1e-12);
        // Antisymmetry: gap(p) = -gap(1-p).
        let p = 0.62;
        let gap = exact_majority_gap_binary(p, 21);
        let neg = exact_majority_gap_binary(1.0 - p, 21);
        assert!((gap + neg).abs() < 1e-10);
        // Gap grows with the sample size for a fixed biased p.
        assert!(exact_majority_gap_binary(0.6, 51) > exact_majority_gap_binary(0.6, 11));
    }

    #[test]
    fn exact_binary_gap_is_exactly_zero_unbiased_and_exactly_antisymmetric() {
        for ell in 1..=101 {
            assert_eq!(exact_majority_gap_binary(0.5, ell).to_bits(), 0.0f64.to_bits());
            // 1 − p is exact for p ∈ [½, 1], so p1 and p2 swap exactly.
            for p in [0.51, 0.52, 0.55, 0.6, 0.62, 0.7, 0.9, 0.99, 1.0] {
                let gap = exact_majority_gap_binary(p, ell);
                let mirrored = exact_majority_gap_binary(1.0 - p, ell);
                assert_eq!(mirrored.to_bits(), (-gap).to_bits(), "ell {ell}, p {p}");
            }
        }
    }

    #[test]
    fn lemma9_lower_bound_holds_for_the_exact_binary_gap() {
        // Pr[maj=1] - Pr[maj=2] >= sqrt(2 l / pi) g(delta, l) where
        // delta = p1 - p2 (Lemma 9), for odd l.
        for &l in &[5u64, 11, 25, 51, 101] {
            for &p1 in &[0.51, 0.55, 0.6, 0.7, 0.9] {
                let delta = 2.0 * p1 - 1.0;
                let exact = exact_majority_gap_binary(p1, l);
                let bound = (2.0 * l as f64 / std::f64::consts::PI).sqrt() * g(delta, l);
                assert!(
                    exact >= bound - 1e-9,
                    "l={l} p1={p1}: exact {exact} < bound {bound}"
                );
            }
        }
    }

    #[test]
    fn monte_carlo_gap_matches_exact_binary_gap() {
        let mut rng = StdRng::seed_from_u64(7);
        let p1 = 0.6;
        let l = 15;
        let exact = exact_majority_gap_binary(p1, l);
        let estimate = sample_majority_gap(&[p1, 1.0 - p1], l, 0, 1, 200_000, &mut rng);
        assert!(
            (exact - estimate).abs() < 0.01,
            "exact {exact} vs estimate {estimate}"
        );
    }

    #[test]
    fn proposition1_bound_holds_empirically_for_three_opinions() {
        let mut rng = StdRng::seed_from_u64(8);
        let delta = 0.15;
        // Received distribution with bias delta towards opinion 0.
        let c = [1.0 / 3.0 + 2.0 * delta / 3.0, 1.0 / 3.0 - delta / 3.0, 1.0 / 3.0 - delta / 3.0];
        let l = 27;
        let gap = sample_majority_gap(&c, l, 0, 1, 150_000, &mut rng);
        let bound = proposition1_lower_bound(delta, l, 3);
        assert!(gap >= bound - 0.01, "gap {gap} vs bound {bound}");
    }

    #[test]
    fn lemma16_bound_decreases_with_theta_and_n() {
        let loose = lemma16_tail_bound(0.1, 100.0, 1_000);
        let tight = lemma16_tail_bound(0.5, 100.0, 1_000);
        assert!(tight < loose);
        let larger_n = lemma16_tail_bound(0.1, 100.0, 100_000);
        assert!(larger_n < loose);
        assert!(loose <= 1.0 && tight > 0.0);
    }

    #[test]
    fn asymptotic_scales_behave() {
        assert!(rounds_bound(100_000, 0.1) > rounds_bound(1_000, 0.1));
        assert!(rounds_bound(1_000, 0.05) > rounds_bound(1_000, 0.1));
        assert!(memory_bound_bits(1 << 20, 0.1) > memory_bound_bits(1 << 10, 0.1));
    }

    #[test]
    fn ln_factorial_is_accurate() {
        // Compare against direct summation for a value above the Stirling
        // threshold.
        let direct: f64 = (2..=100u64).map(|i| (i as f64).ln()).sum();
        assert!((ln_factorial(100) - direct).abs() < 1e-8);
        assert_eq!(ln_factorial(0), 0.0);
        assert_eq!(ln_factorial(1), 0.0);
    }
}
