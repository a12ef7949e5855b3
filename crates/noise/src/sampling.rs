//! Batched count-based sampling primitives: exact binomial and multinomial
//! draws.
//!
//! The paper's processes B and P (Definitions 3 and 4) act on *counts* of
//! exchangeable messages, not on individual messages: re-coloring `m`
//! pending copies of opinion `i` through row `p_i` of the noise matrix is
//! one draw from `Multinomial(m, p_i)`. This module provides the exact
//! samplers that make that reformulation O(k²) random draws per phase
//! instead of O(messages):
//!
//! * [`Binomial`] — exact `Binomial(n, p)`: BINV inversion for small
//!   `n·p`, Hörmann's BTRS transformed-rejection algorithm (1993) for
//!   large `n·p`. Both are exact samplers (BTRS is a rejection method, not
//!   an approximation), so the batched delivery paths are distributionally
//!   identical to per-message sampling — the property the
//!   `tests/equivalence.rs` suite in `pushsim` checks empirically.
//! * [`MultinomialPlan`] — decomposes `Multinomial(n, p)` into `k`
//!   conditional binomials; a draw always sums to exactly `n`
//!   (conservation of messages by construction).
//!
//! Each sampler is split into a set-up and a draw. [`Binomial::new`] does
//! everything that depends on `(n, p)` alone — the edge cases, the
//! `p > ½` complement, the choice of algorithm and its constants — and
//! [`Binomial::sample`] runs only the per-draw loop. [`MultinomialPlan::new`]
//! computes the chain of conditional probabilities from the weights alone;
//! its draws go into a buffer the caller owns. A caller that draws many
//! times from one law, such as the count-level Stage-2 decision (up to
//! 65 536 compositions per decision), sets it up once. The one-off
//! [`binomial`] and [`multinomial`] set up and draw in one call, and give
//! the same values from the same random words.

use rand::Rng;

/// Natural log of the Gamma function, via the Lanczos approximation
/// (g = 7, n = 9); absolute error below 1e-13 over the positive reals.
pub fn ln_gamma(x: f64) -> f64 {
    const COEFFS: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    assert!(x > 0.0, "ln_gamma requires a positive argument, got {x}");
    if x < 0.5 {
        // Reflection formula keeps the series in its accurate range.
        return std::f64::consts::PI.ln() - (std::f64::consts::PI * x).sin().ln()
            - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut acc = COEFFS[0];
    for (i, &c) in COEFFS.iter().enumerate().skip(1) {
        acc += c / (x + i as f64);
    }
    let t = x + 7.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + acc.ln()
}

/// The Stirling-series tail `ln(k!) − [ (k+½)ln(k+1) − (k+1) + ½ln(2π) ]`
/// used by BTRS's acceptance bound (exact table for `k ≤ 9`).
fn stirling_tail(k: u64) -> f64 {
    const TABLE: [f64; 10] = [
        0.081_061_466_795_327_2,
        0.041_340_695_955_409_2,
        0.027_677_925_684_998_3,
        0.020_790_672_103_765_1,
        0.016_644_691_189_821_1,
        0.013_876_128_823_070_7,
        0.011_896_709_945_891_7,
        0.010_411_265_261_972_0,
        0.009_255_462_182_712_73,
        0.008_330_563_433_362_87,
    ];
    if k < 10 {
        return TABLE[k as usize];
    }
    // In f64: k + 1 can exceed 2^32, whose square overflows u64 (seen at
    // the message volumes of the n = 10^7+ counting-backend runs).
    let kp1 = (k + 1) as f64;
    let kp1sq = kp1 * kp1;
    (1.0 / 12.0 - (1.0 / 360.0 - 1.0 / 1260.0 / kp1sq) / kp1sq) / kp1
}

/// BINV: sequential CDF inversion, exact, O(n·p) expected iterations.
/// Requires `p ≤ 0.5` and moderate `n·p` (so `(1−p)^n` does not underflow).
#[derive(Debug, Clone)]
struct Binv {
    n: u64,
    s: f64,
    a: f64,
    /// `(1−p)^n`, the probability of 0 and the start of every inversion.
    r0: f64,
}

impl Binv {
    fn new(n: u64, p: f64) -> Self {
        let q = 1.0 - p;
        let s = p / q;
        let a = (n as f64 + 1.0) * s;
        Binv {
            n,
            s,
            a,
            r0: q.powf(n as f64),
        }
    }

    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let mut r = self.r0;
        let mut u: f64 = rng.gen();
        let mut x = 0u64;
        while u > r {
            u -= r;
            x += 1;
            if x > self.n {
                // Floating-point leakage past the support; retry the draw.
                r = self.r0;
                u = rng.gen();
                x = 0;
                continue;
            }
            r *= self.a / x as f64 - self.s;
        }
        x
    }
}

/// BTRS (Hörmann 1993): transformed rejection with squeeze. Exact, O(1)
/// expected draws. Requires `p ≤ 0.5` and `n·p ≥ 10`.
#[derive(Debug, Clone)]
struct Btrs {
    n: u64,
    nf: f64,
    b: f64,
    a: f64,
    c: f64,
    v_r: f64,
    r: f64,
    alpha: f64,
    m: f64,
    /// The acceptance bound's three terms that depend on the mode `m`
    /// alone: `(m+½)·ln((m+1)/(r(n−m+1)))`, `stirling_tail(m)` and
    /// `stirling_tail(n−m)`. Kept apart, because the bound is one
    /// left-to-right sum and pre-adding them would round differently.
    t_m: f64,
    st_m: f64,
    st_n_m: f64,
}

impl Btrs {
    fn new(n: u64, p: f64) -> Self {
        let nf = n as f64;
        let q = 1.0 - p;
        let spq = (nf * p * q).sqrt();
        let b = 1.15 + 2.53 * spq;
        let a = -0.0873 + 0.0248 * b + 0.01 * p;
        let c = nf * p + 0.5;
        let v_r = 0.92 - 4.2 / b;
        let r = p / q;
        let alpha = (2.83 + 5.1 / b) * spq;
        let m = ((nf + 1.0) * p).floor();
        Btrs {
            n,
            nf,
            b,
            a,
            c,
            v_r,
            r,
            alpha,
            m,
            t_m: (m + 0.5) * ((m + 1.0) / (r * (nf - m + 1.0))).ln(),
            st_m: stirling_tail(m as u64),
            st_n_m: stirling_tail(n - m as u64),
        }
    }

    /// The log of the acceptance bound at the candidate `kf`, summed in
    /// its one order.
    fn log_bound(&self, kf: f64) -> f64 {
        let (nf, m, r) = (self.nf, self.m, self.r);
        let k = kf as u64;
        self.t_m
            + (nf + 1.0) * ((nf - m + 1.0) / (nf - kf + 1.0)).ln()
            + (kf + 0.5) * (r * (nf - kf + 1.0) / (kf + 1.0)).ln()
            + self.st_m
            + self.st_n_m
            - stirling_tail(k)
            - stirling_tail(self.n - k)
    }

    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        loop {
            let u: f64 = rng.gen::<f64>() - 0.5;
            let mut v: f64 = rng.gen();
            let us = 0.5 - u.abs();
            let kf = ((2.0 * self.a / us + self.b) * u + self.c).floor();
            if kf < 0.0 || kf > self.nf {
                continue;
            }
            // Squeeze: accept the bulk without evaluating logarithms.
            if us >= 0.07 && v <= self.v_r {
                return kf as u64;
            }
            v = (v * self.alpha / (self.a / (us * us) + self.b)).ln();
            if v <= self.log_bound(kf) {
                return kf as u64;
            }
        }
    }
}

#[derive(Debug, Clone)]
enum Method {
    /// Every draw is this value: 0 when `n = 0` or `p ≤ 0`, `n` when
    /// `p ≥ 1`.
    Constant(u64),
    Binv(Binv),
    Btrs(Btrs),
}

/// An exact `Binomial(n, p)` law, set up once and drawn from any number of
/// times.
///
/// Dispatch: trivial edges, then BINV for `n·min(p,q) < 10`, BTRS
/// otherwise. Every path is an exact sampler.
#[derive(Debug, Clone)]
pub struct Binomial {
    n: u64,
    /// Draws come from `Binomial(n, 1 − p)` and are reflected (`p > ½`).
    complement: bool,
    method: Method,
}

impl Binomial {
    /// Sets up `Binomial(n, p)`: everything that depends on `(n, p)`
    /// alone.
    ///
    /// # Panics
    ///
    /// Panics if `p` is NaN or outside `[0, 1]` by more than a rounding
    /// slack.
    pub fn new(n: u64, p: f64) -> Self {
        assert!(
            (-1e-9..=1.0 + 1e-9).contains(&p),
            "binomial probability must be in [0, 1], got {p}"
        );
        let constant = |x| Binomial {
            n,
            complement: false,
            method: Method::Constant(x),
        };
        if n == 0 || p <= 0.0 {
            return constant(0);
        }
        if p >= 1.0 {
            return constant(n);
        }
        let complement = p > 0.5;
        let p = if complement { 1.0 - p } else { p };
        let method = if n as f64 * p < 10.0 {
            Method::Binv(Binv::new(n, p))
        } else {
            Method::Btrs(Btrs::new(n, p))
        };
        Binomial {
            n,
            complement,
            method,
        }
    }

    /// One exact draw.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let x = match &self.method {
            Method::Constant(x) => return *x,
            Method::Binv(law) => law.sample(rng),
            Method::Btrs(law) => law.sample(rng),
        };
        if self.complement {
            self.n - x
        } else {
            x
        }
    }
}

/// An exact draw from `Binomial(n, p)`: [`Binomial::new`] and one
/// [`Binomial::sample`].
///
/// # Panics
///
/// Panics if `p` is NaN or outside `[0, 1]` by more than a rounding slack.
pub fn binomial<R: Rng + ?Sized>(n: u64, p: f64, rng: &mut R) -> u64 {
    Binomial::new(n, p).sample(rng)
}

/// `Multinomial(·, weights)` as a chain of conditional binomials, set up
/// once from the weights and drawn from for any number of trials.
///
/// Step `j` of the chain draws category `j`'s count from
/// `Binomial(remaining trials, p_j / remaining mass)`; the last category
/// takes the trials still unassigned. `weights` need not be normalized;
/// only the ratios matter.
#[derive(Debug, Clone)]
pub struct MultinomialPlan {
    /// Step `j`'s probability `p_j / remaining mass`, clamped to `[0, 1]`.
    /// The chain stops early once the remaining mass reaches 0.
    conditionals: Vec<f64>,
    categories: usize,
    /// Whether the last category takes the trials still unassigned: false
    /// when the mass ran out before it.
    last_takes_rest: bool,
    has_mass: bool,
}

impl MultinomialPlan {
    /// Computes the chain of conditional probabilities.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or contains a negative or non-finite
    /// weight.
    pub fn new(weights: &[f64]) -> Self {
        assert!(
            !weights.is_empty(),
            "multinomial needs at least one category"
        );
        let mut remaining_mass: f64 = weights
            .iter()
            .map(|&p| {
                assert!(p.is_finite() && p >= 0.0, "invalid multinomial weight {p}");
                p
            })
            .sum();
        let has_mass = remaining_mass > 0.0;
        let mut conditionals = Vec::with_capacity(weights.len() - 1);
        let mut last_takes_rest = true;
        for &pj in &weights[..weights.len() - 1] {
            conditionals.push((pj / remaining_mass).clamp(0.0, 1.0));
            remaining_mass = (remaining_mass - pj).max(0.0);
            if remaining_mass == 0.0 {
                // All residual mass was consumed (within rounding); any
                // remaining trials stay at categories already handled, which
                // can only happen through rounding on degenerate inputs.
                last_takes_rest = false;
                break;
            }
        }
        MultinomialPlan {
            conditionals,
            categories: weights.len(),
            last_takes_rest,
            has_mass,
        }
    }

    /// The chain's step probabilities, in category order: step `j` is
    /// `Binomial(remaining trials, conditionals()[j])`.
    pub fn conditionals(&self) -> &[f64] {
        &self.conditionals
    }

    /// Draws `Multinomial(n, weights)` into `counts`, one slot per
    /// category; the counts always sum to exactly `n`.
    ///
    /// # Panics
    ///
    /// Panics if the weights sum to zero while `n > 0`, or if `counts` does
    /// not have one slot per category.
    pub fn sample_into<R: Rng + ?Sized>(&self, n: u64, counts: &mut [u64], rng: &mut R) {
        self.sample_with(n, counts, |step, remaining| {
            binomial(remaining, self.conditionals[step], rng)
        });
    }

    /// [`sample_into`](Self::sample_into) with each step's binomial drawn
    /// by `draw(step, remaining)`, which must return a draw from
    /// `Binomial(remaining, conditionals()[step])`: a caller that keeps
    /// those laws set up across draws passes them in here. Steps run in
    /// category order and stop once no trials remain.
    ///
    /// # Panics
    ///
    /// Panics if the weights sum to zero while `n > 0`, or if `counts` does
    /// not have one slot per category.
    pub fn sample_with(&self, n: u64, counts: &mut [u64], mut draw: impl FnMut(usize, u64) -> u64) {
        assert!(
            n == 0 || self.has_mass,
            "multinomial weights must not all be zero"
        );
        assert_eq!(counts.len(), self.categories, "one count per category");
        counts.fill(0);
        let mut remaining = n;
        for (step, count) in counts.iter_mut().take(self.conditionals.len()).enumerate() {
            if remaining == 0 {
                return;
            }
            let x = draw(step, remaining);
            *count = x;
            remaining -= x;
        }
        if self.last_takes_rest {
            if let Some(last) = counts.last_mut() {
                *last = remaining;
            }
        }
    }
}

/// An exact draw from `Multinomial(n, probs)`: [`MultinomialPlan::new`]
/// and one [`MultinomialPlan::sample_into`]. The returned counts always
/// sum to exactly `n`.
///
/// `probs` need not be normalized; only the ratios matter. Runs in `O(k)`
/// binomial draws.
///
/// # Panics
///
/// Panics if `probs` is empty, contains a negative or non-finite weight, or
/// sums to zero while `n > 0`.
pub fn multinomial<R: Rng + ?Sized>(n: u64, probs: &[f64], rng: &mut R) -> Vec<u64> {
    let plan = MultinomialPlan::new(probs);
    let mut counts = vec![0u64; probs.len()];
    plan.sample_into(n, &mut counts, rng);
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ln_factorial(k: u64) -> f64 {
        ln_gamma(k as f64 + 1.0)
    }

    /// Exact Binomial(n, p) pmf via log-gamma.
    fn binom_pmf(n: u64, p: f64, k: u64) -> f64 {
        let (nf, kf) = (n as f64, k as f64);
        (ln_factorial(n) - ln_factorial(k) - ln_factorial(n - k)
            + kf * p.ln()
            + (nf - kf) * (1.0 - p).ln())
        .exp()
    }

    #[test]
    fn ln_gamma_matches_known_values() {
        // Γ(1) = Γ(2) = 1, Γ(5) = 24, Γ(0.5) = √π.
        assert!(ln_gamma(1.0).abs() < 1e-12);
        assert!(ln_gamma(2.0).abs() < 1e-12);
        assert!((ln_gamma(5.0) - 24f64.ln()).abs() < 1e-11);
        assert!((ln_gamma(0.5) - std::f64::consts::PI.sqrt().ln()).abs() < 1e-11);
        // Recurrence Γ(x+1) = xΓ(x) across the BTRS-relevant range.
        for &x in &[0.7, 3.3, 12.5, 100.0, 1e4] {
            let lhs = ln_gamma(x + 1.0);
            let rhs = x.ln() + ln_gamma(x);
            assert!((lhs - rhs).abs() < 1e-9, "x = {x}: {lhs} vs {rhs}");
        }
    }

    #[test]
    fn binomial_edge_cases() {
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(binomial(0, 0.5, &mut rng), 0);
        assert_eq!(binomial(100, 0.0, &mut rng), 0);
        assert_eq!(binomial(100, 1.0, &mut rng), 100);
        for _ in 0..100 {
            let x = binomial(10, 0.5, &mut rng);
            assert!(x <= 10);
        }
    }

    /// Chi-square goodness of fit against the exact pmf, exercising both
    /// the BINV path (np < 10) and the BTRS path (np ≥ 10).
    #[test]
    fn binomial_matches_exact_pmf() {
        for &(n, p, seed) in &[
            (20u64, 0.2f64, 11u64),  // BINV
            (50, 0.3, 12),           // BTRS (np = 15)
            (400, 0.5, 13),          // BTRS, symmetric
            (1000, 0.85, 14),        // complement + BTRS
        ] {
            let mut rng = StdRng::seed_from_u64(seed);
            let trials = 200_000usize;
            let mut counts = vec![0u64; n as usize + 1];
            for _ in 0..trials {
                counts[binomial(n, p, &mut rng) as usize] += 1;
            }
            // Pool bins with expected count < 5 into their neighbours.
            let mut chi2 = 0.0;
            let mut dof = 0i64;
            let mut pooled_obs = 0.0;
            let mut pooled_exp = 0.0;
            for k in 0..=n {
                let e = binom_pmf(n, p, k) * trials as f64;
                pooled_obs += counts[k as usize] as f64;
                pooled_exp += e;
                if pooled_exp >= 5.0 {
                    chi2 += (pooled_obs - pooled_exp).powi(2) / pooled_exp;
                    dof += 1;
                    pooled_obs = 0.0;
                    pooled_exp = 0.0;
                }
            }
            dof -= 1;
            // For the dof at play (tens of bins) the 99.9th percentile of
            // chi-square is below dof + 4·sqrt(2·dof) + 10; deterministic
            // seeds make this a regression test, not a flaky one.
            let budget = dof as f64 + 4.0 * (2.0 * dof as f64).sqrt() + 10.0;
            assert!(
                chi2 < budget,
                "n={n} p={p}: chi2 {chi2:.1} over budget {budget:.1} (dof {dof})"
            );
        }
    }

    #[test]
    fn binomial_moments_are_right_at_large_n() {
        let (n, p) = (1_000_000u64, 0.37);
        let mut rng = StdRng::seed_from_u64(21);
        let trials = 2_000;
        let samples: Vec<f64> = (0..trials)
            .map(|_| binomial(n, p, &mut rng) as f64)
            .collect();
        let mean = samples.iter().sum::<f64>() / trials as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / trials as f64;
        let (em, ev) = (n as f64 * p, n as f64 * p * (1.0 - p));
        assert!((mean - em).abs() / em < 1e-3, "mean {mean} vs {em}");
        assert!((var - ev).abs() / ev < 0.1, "var {var} vs {ev}");
    }

    #[test]
    fn multinomial_conserves_and_matches_proportions() {
        let mut rng = StdRng::seed_from_u64(31);
        let probs = [0.5, 0.2, 0.2, 0.1];
        let n = 100_000u64;
        let mut totals = [0u64; 4];
        let reps = 50;
        for _ in 0..reps {
            let draw = multinomial(n, &probs, &mut rng);
            assert_eq!(draw.iter().sum::<u64>(), n, "conservation violated");
            for (t, d) in totals.iter_mut().zip(&draw) {
                *t += d;
            }
        }
        for (j, &pj) in probs.iter().enumerate() {
            let freq = totals[j] as f64 / (n * reps) as f64;
            assert!((freq - pj).abs() < 2e-3, "category {j}: {freq} vs {pj}");
        }
    }

    /// Counts the words drawn from the wrapped generator.
    struct WordCounter {
        rng: StdRng,
        words: u64,
    }

    impl rand::RngCore for WordCounter {
        fn next_u64(&mut self) -> u64 {
            self.words += 1;
            self.rng.next_u64()
        }
    }

    fn counted(seed: u64) -> WordCounter {
        WordCounter {
            rng: StdRng::seed_from_u64(seed),
            words: 0,
        }
    }

    fn fnv_fold(h: u64, x: u64) -> u64 {
        (h ^ x).wrapping_mul(0x0000_0100_0000_01b3)
    }

    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

    /// 10 000 draws of `Binomial(n, p)` from seed 22, FNV-1a folded, and
    /// the number of words they consumed: one case per dispatch path
    /// (the edges, the complement, BINV, BTRS). The word count pins the
    /// rejection loops' decisions, not only what they returned.
    #[test]
    fn binomial_stream_is_pinned() {
        const PINS: [(u64, f64, u64, u64); 13] = [
            (0, 0.3, 0xa6e4_f072_3147_f065, 0),
            (100, 0.0, 0xa6e4_f072_3147_f065, 0),
            (100, 1.0, 0x8ea3_8c1c_1207_5ca5, 0),
            (129, 0.583, 0xeb05_6d0c_eb63_76b5, 25100),
            (20, 0.9, 0xf176_8920_b618_abd1, 10000),
            (129, 0.05, 0x319a_2031_25a6_e430, 10000),
            (20, 0.2, 0x7216_557a_26ca_e910, 10000),
            (99, 0.1, 0xdb2e_3c0f_beb5_a2a6, 10000),
            (129, 0.417, 0xac81_8eb9_7e29_b115, 25100),
            (54, 0.5, 0x8e16_c2a3_42ec_b1cb, 26282),
            (885, 0.417, 0x7aba_1f0e_28ef_a8db, 23586),
            (885, 0.208, 0x321f_622e_584e_f4b1, 23802),
            (1_000_000, 0.37, 0xc6a0_3aa6_a332_c56e, 22652),
        ];
        for (n, p, digest, words) in PINS {
            let mut rng = counted(22);
            let mut h = FNV_OFFSET;
            for _ in 0..10_000 {
                h = fnv_fold(h, binomial(n, p, &mut rng));
            }
            assert_eq!((h, rng.words), (digest, words), "Binomial({n}, {p})");
        }
    }

    /// BTRS's log acceptance bound at candidates below, at and above the
    /// mode, as the bits the one-expression bound
    /// `t_m + B(k) + C(k) + st(m) + st(n−m) − st(k) − st(n−k)` gave when
    /// set-up and draw were still one function. A draw-level pin almost
    /// never sees a one-ulp change of the bound (the draw must land within
    /// that ulp of it), so this pins the summation order itself: adding
    /// the three cached mode terms first changes 10 of these 13 values.
    #[test]
    fn btrs_bound_keeps_its_summation_order() {
        const PINS: [(u64, f64, u64, u64); 13] = [
            (129, 0.417, 30, 0xc023_1439_e182_dfe5),
            (129, 0.417, 54, 0x3cec_0000_0000_0000),
            (129, 0.417, 70, 0xc010_7ef2_e12d_476a),
            (129, 0.417, 100, 0xc041_19ab_7084_e901),
            (54, 0.5, 10, 0xc026_9cfb_85e5_77e9),
            (54, 0.5, 27, 0x0000_0000_0000_0000),
            (54, 0.5, 40, 0xc019_964e_7391_7434),
            (885, 0.417, 300, 0xc026_9471_fdbe_89a8),
            (885, 0.417, 369, 0xbd16_a002_0000_0000),
            (885, 0.417, 450, 0xc02e_09ac_b530_8ca9),
            (1_000_000, 0.37, 369_000, 0xc001_2974_5d66_94ea),
            (1_000_000, 0.37, 370_000, 0x3d64_f780_0004_0000),
            (1_000_000, 0.37, 371_500, 0xc013_4c30_a0d9_8cea),
        ];
        for (n, p, k, bits) in PINS {
            let law = Btrs::new(n, p);
            assert_eq!(
                law.log_bound(k as f64).to_bits(),
                bits,
                "Binomial({n}, {p}) at k = {k}"
            );
        }
    }

    /// 10 000 draws of `Multinomial(n, weights)` from seed 23, every count
    /// FNV-1a folded, and the words consumed: a general case, weights whose
    /// mass runs out before the last category, zero weights in front and
    /// in the middle, `n = 0`, one category, and fractional weights.
    #[test]
    fn multinomial_stream_is_pinned() {
        const PINS: [(u64, &[f64], u64, u64); 7] = [
            (129, &[583.0, 208.0, 209.0], 0x819a_24d6_0bec_925f, 51306),
            (129, &[3.0, 0.0, 0.0], 0x55c2_1f65_ef00_3fb5, 0),
            (129, &[0.0, 5.0, 0.0, 0.0], 0xe277_57c4_ddab_eca5, 0),
            (885, &[2.0, 0.0, 1.0], 0x877c_6cd6_7814_c841, 23676),
            (0, &[1.0, 1.0], 0x0ed9_e7ee_21f2_0da5, 0),
            (50, &[1.0], 0xf725_7fa7_7a57_de25, 0),
            (1_000, &[0.1, 0.2, 0.3, 0.4], 0xd628_9b79_79f5_31b5, 71734),
        ];
        for (n, weights, digest, words) in PINS {
            let mut rng = counted(23);
            let mut h = FNV_OFFSET;
            for _ in 0..10_000 {
                for c in multinomial(n, weights, &mut rng) {
                    h = fnv_fold(h, c);
                }
            }
            assert_eq!(
                (h, rng.words),
                (digest, words),
                "Multinomial({n}, {weights:?})"
            );
        }
    }

    #[test]
    fn multinomial_edge_cases() {
        let mut rng = StdRng::seed_from_u64(41);
        assert_eq!(multinomial(0, &[1.0, 1.0], &mut rng), vec![0, 0]);
        assert_eq!(multinomial(7, &[0.0, 1.0, 0.0], &mut rng), vec![0, 7, 0]);
        let d = multinomial(5, &[0.0, 0.0, 3.0], &mut rng);
        assert_eq!(d, vec![0, 0, 5]);
        // Unnormalized weights behave like their normalization.
        let d = multinomial(10_000, &[2.0, 2.0], &mut rng);
        assert_eq!(d.iter().sum::<u64>(), 10_000);
        assert!((d[0] as f64 - 5_000.0).abs() < 500.0);
    }
}
