//! The count-level rules: process P over exchangeable agent populations,
//! in closed form per population group.
//!
//! Agents in the noisy uniform push model are anonymous and exchangeable —
//! the paper's own analysis never tracks individuals, it works on opinion
//! *counts* (the Poissonized process P of Definition 4 is defined purely in
//! terms of the post-noise totals `h_i`). The count-level network
//! ([`CountLevelNetwork`](crate::blockcounting::CountLevelNetwork), behind
//! the names [`CountingNetwork`](crate::CountingNetwork) and
//! [`BlockCountingNetwork`](crate::BlockCountingNetwork)) keeps per-opinion
//! counts in place of `Vec<NodeState>` plus per-agent inboxes; this module
//! holds the rules it applies to a finished phase, once per degree class
//! (on the complete graph, once for the whole population).
//!
//! ## Semantics: process P, exactly
//!
//! The rules implement the **Poissonized** delivery process (process P) at
//! the population level, exactly:
//!
//! * pushed counts are re-colored through the noise with one
//!   `Multinomial(pending_i, p_i)` draw per opinion row (exchangeability);
//! * every agent's phase inbox is an independent Poisson vector with means
//!   `h_j / n`. All the per-agent protocol rules used in this workspace
//!   depend on the inbox only through (a) "received at least / at most m
//!   messages" events and (b) uniform draws from the received multiset —
//!   and for Poisson inboxes both have closed count-level forms:
//!   the number of agents in a group of size `g` receiving ≥ 1 message is
//!   `Binomial(g, 1 − e^{−Λ})` with `Λ = Σ_j h_j / n`, a uniformly drawn
//!   message is opinion `j` with probability `h_j / Σ h` independent of the
//!   inbox size (Poisson splitting), and a uniform sample of `L` messages
//!   without replacement from an inbox of size ≥ L has per-opinion counts
//!   `Multinomial(L, h / Σh)` (subsampling a multinomial composition).
//!
//! For configurations with
//! [`DeliverySemantics::Exact`](crate::DeliverySemantics::Exact) or
//! [`DeliverySemantics::BallsIntoBins`](crate::DeliverySemantics::BallsIntoBins),
//! the count-level backends still run
//! process P — the paper's Claim 1 and Lemma 3 are exactly the statement
//! that phase-granular w.h.p. behaviour transfers between the three
//! processes, and `pushsim/tests/equivalence.rs` checks the agreement
//! empirically against the agent-level backend.

use noisy_channel::sampling::{binomial, multinomial, Binomial, MultinomialPlan};
use rand::Rng;

/// The post-noise per-opinion message totals `h_j` (Definition 4's
/// parameters) one finished phase delivered to a population: a whole
/// complete graph, or one degree class of a
/// [`BlockPhaseTally`](crate::BlockPhaseTally).
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseTally {
    post_noise: Vec<u64>,
    num_nodes: usize,
}

impl PhaseTally {
    /// Builds a tally over a population of `num_nodes` agents. Crate-only:
    /// the count-level network assembles one tally per degree class (with
    /// `num_nodes` the class population `n_c`), reusing every closed-form
    /// query and count-level decision rule below per class.
    pub(crate) fn new(post_noise: Vec<u64>, num_nodes: usize) -> Self {
        Self {
            post_noise,
            num_nodes,
        }
    }

    /// The population the tally is over: the class population `n_c` (`n`
    /// on the complete graph, a single class).
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// The post-noise totals `h_j`: how many messages carrying opinion `j`
    /// the phase delivered in aggregate (before Poisson thinning).
    pub fn post_noise(&self) -> &[u64] {
        &self.post_noise
    }

    /// `H = Σ_j h_j`.
    pub fn total(&self) -> u64 {
        self.post_noise.iter().sum()
    }

    /// The per-agent mean inbox size `Λ = H / n` of process P.
    pub fn mean_inbox(&self) -> f64 {
        self.total() as f64 / self.num_nodes as f64
    }

    /// The probability that one agent receives at least one message:
    /// `1 − e^{−Λ}`.
    pub fn activation_probability(&self) -> f64 {
        -(-self.mean_inbox()).exp_m1()
    }

    /// The probability that one agent receives at least `m` messages:
    /// the upper tail of `Poisson(Λ)`.
    pub fn at_least_probability(&self, m: u64) -> f64 {
        poisson_tail_ge(self.mean_inbox(), m)
    }

    /// A Chernoff-style high-probability ceiling on the largest single
    /// inbox (`Λ + √(2Λ ln n) + ln n`), used for the memory-accounting
    /// meter where the agent-level backend records the observed maximum.
    pub fn typical_max_inbox(&self) -> u64 {
        let lambda = self.mean_inbox();
        let ln_n = (self.num_nodes.max(2) as f64).ln();
        (lambda + (2.0 * lambda * ln_n).sqrt() + ln_n).ceil() as u64
    }
}

/// The upper tail `P(Poisson(λ) ≥ m)`.
///
/// Exact pmf recurrence for moderate `λ`; a continuity-corrected normal
/// approximation beyond `λ = 600` (where `e^{−λ}` approaches the f64
/// underflow cliff and the absolute error of the approximation is below
/// `10⁻³`, far inside the w.h.p. regimes the protocol operates in).
pub fn poisson_tail_ge(lambda: f64, m: u64) -> f64 {
    assert!(
        lambda.is_finite() && lambda >= 0.0,
        "Poisson mean must be finite and non-negative, got {lambda}"
    );
    if m == 0 {
        return 1.0;
    }
    if lambda == 0.0 {
        return 0.0;
    }
    if lambda > 600.0 {
        let z = (m as f64 - 0.5 - lambda) / lambda.sqrt();
        return 1.0 - standard_normal_cdf(z);
    }
    // P(X < m) by the stable pmf recurrence p_{j+1} = p_j · λ/(j+1).
    let mut pmf = (-lambda).exp();
    let mut below = pmf;
    for j in 0..m - 1 {
        pmf *= lambda / (j + 1) as f64;
        below += pmf;
    }
    (1.0 - below).clamp(0.0, 1.0)
}

/// Φ(z) via the Abramowitz–Stegun 7.1.26 erf approximation (|error| < 2e-7).
fn standard_normal_cdf(z: f64) -> f64 {
    let x = z / std::f64::consts::SQRT_2;
    let t = 1.0 / (1.0 + 0.327_591_1 * x.abs());
    let poly = t
        * (0.254_829_592
            + t * (-0.284_496_736 + t * (1.421_413_741 + t * (-1.453_152_027 + t * 1.061_405_429))));
    let erf_abs = 1.0 - poly * (-x * x).exp();
    let erf = if x < 0.0 { -erf_abs } else { erf_abs };
    0.5 * (1.0 + erf)
}

/// The index of the largest count, ties broken uniformly at random — the
/// paper's `maj(·)` over a sampled composition.
fn majority_index<R: Rng + ?Sized>(counts: &[u64], rng: &mut R) -> usize {
    let max = *counts.iter().max().expect("non-empty counts");
    let tied = counts.iter().filter(|&&c| c == max).count();
    let mut pick = rng.gen_range(0..tied);
    for (i, &c) in counts.iter().enumerate() {
        if c == max {
            if pick == 0 {
                return i;
            }
            pick -= 1;
        }
    }
    unreachable!("pick indexes a tied maximum")
}

/// How many exact per-draw samples [`sample_majority_splits`] takes before
/// switching to the estimated-pmf bulk path.
const MAJORITY_EXACT_CAP: u64 = 65_536;

/// How many `Binomial` laws one [`LawTable`] keeps.
const LAW_SLOTS: usize = 64;

/// The `Binomial(n, p)` laws of one step of a multinomial chain, set up on
/// first use and kept for later draws: a bounded, direct-mapped table
/// keyed by the trial count `n`, which is the tag of its slot `n mod 64`.
///
/// Within one decision a later step's `n` is the count still unassigned,
/// which varies from draw to draw but clusters within a few standard
/// deviations of its mean, so nearly every draw finds its law set up. The
/// table stays at 64 laws whatever the sample size; a law per possible
/// count would cost ≈ 100 KB per decision at ℓ = 885.
struct LawTable {
    p: f64,
    /// The trial count each slot's law was set up for.
    tags: [u64; LAW_SLOTS],
    laws: Vec<Binomial>,
}

impl LawTable {
    fn new(p: f64) -> Self {
        // Every slot starts as the law of n = 0, its tag.
        LawTable {
            p,
            tags: [0; LAW_SLOTS],
            laws: vec![Binomial::new(0, p); LAW_SLOTS],
        }
    }

    /// `Binomial(n, p)`, set up now unless its slot already holds it.
    fn law(&mut self, n: u64) -> &Binomial {
        let slot = (n % LAW_SLOTS as u64) as usize;
        if self.tags[slot] != n {
            self.tags[slot] = n;
            self.laws[slot] = Binomial::new(n, self.p);
        }
        &self.laws[slot]
    }
}

/// Distributes `count` iid draws of `maj(Multinomial(sample_size, weights))`
/// over the opinions: the count-level form of Stage 2's sample-majority
/// adoption (and of h-majority dynamics).
///
/// Up to `MAJORITY_EXACT_CAP` (65 536) draws are sampled exactly (one multinomial
/// composition + tie-broken argmax each). Beyond the cap, the remaining
/// draws are split by a single multinomial over the empirical frequencies
/// of the exact draws — a `O(1/√cap) ≈ 0.4%` perturbation of the adoption
/// probabilities, far below the phase-level sampling noise at the
/// population sizes where the cap binds.
///
/// A composition costs `k − 1` binomial draws and one tie-break word, so a
/// decision costs up to 65 536 of them whatever `n` is. The laws are set
/// up once per decision, not once per draw: the chain of conditional
/// probabilities ([`MultinomialPlan`]) once, the first category's
/// `Binomial(sample_size, ·)` once, and a later category's law, whose
/// trial count is the count still unassigned, in a bounded table of 64
/// laws per category. Every composition is drawn into one reused buffer.
/// The draws, and the random words they consume, are those of one
/// [`multinomial`] call per composition.
///
/// Returns per-opinion adoption counts summing to exactly `count`.
pub fn sample_majority_splits<R: Rng + ?Sized>(
    count: u64,
    sample_size: u64,
    weights: &[u64],
    rng: &mut R,
) -> Vec<u64> {
    let k = weights.len();
    let mut out = vec![0u64; k];
    if count == 0 || sample_size == 0 || weights.iter().all(|&w| w == 0) {
        return out;
    }
    let weights_f: Vec<f64> = weights.iter().map(|&w| w as f64).collect();
    let chain = MultinomialPlan::new(&weights_f);
    // Step 0 always draws over `sample_size` trials, so its table holds
    // that one law.
    let mut laws: Vec<LawTable> = chain
        .conditionals()
        .iter()
        .map(|&p| LawTable::new(p))
        .collect();
    let mut composition = vec![0u64; k];
    let exact = count.min(MAJORITY_EXACT_CAP);
    for _ in 0..exact {
        chain.sample_with(sample_size, &mut composition, |step, remaining| {
            laws[step].law(remaining).sample(rng)
        });
        out[majority_index(&composition, rng)] += 1;
    }
    if count > exact {
        let freq: Vec<f64> = out.iter().map(|&c| c as f64).collect();
        let bulk = multinomial(count - exact, &freq, rng);
        for (o, b) in out.iter_mut().zip(bulk) {
            *o += b;
        }
    }
    out
}

/// Largest-remainder proportional allocation of `draw` agents over
/// population `groups` (exact: each share never exceeds its group and the
/// shares sum to `draw`). The count-level stand-in for drawing agents
/// uniformly without replacement — churn's leavers and the faulty pools —
/// with the composition pinned to its expectation, one more of the bounded
/// approximations the backend documents. Also spreads seeded opinion
/// counts over degree classes deterministically.
pub(crate) fn proportional_split(groups: &[u64], draw: u64) -> Vec<u64> {
    let population: u64 = groups.iter().sum();
    debug_assert!(draw <= population);
    if population == 0 {
        return vec![0; groups.len()];
    }
    let mut shares: Vec<u64> = Vec::with_capacity(groups.len());
    let mut remainders: Vec<(u128, usize)> = Vec::with_capacity(groups.len());
    let mut assigned = 0u64;
    for (i, &g) in groups.iter().enumerate() {
        let exact = u128::from(draw) * u128::from(g);
        let base = (exact / u128::from(population)) as u64;
        shares.push(base);
        assigned += base;
        remainders.push((exact % u128::from(population), i));
    }
    // Hand the leftover to the largest fractional remainders; a group
    // with remainder 0 has an integral (hence already met) quota.
    remainders.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    for &(remainder, i) in remainders.iter().take((draw - assigned) as usize) {
        debug_assert!(remainder > 0);
        shares[i] += 1;
    }
    shares
}

/// Computes the sample-majority population update against a finished phase:
/// `(leavers, joiners, undecided_delta)` for one population group — every
/// agent that collected at least `sample_size` messages this phase (a
/// `Binomial(group, P(Poisson(Λ) ≥ L))` event per opinion group, independent
/// of the agent's opinion) switches to `maj(Multinomial(L, h/H))`, the law
/// of the majority of a uniform without-replacement sample from a
/// Poisson-multinomial inbox.
///
/// The plan functions below are crate-visible so the count-level network
/// can apply them once per degree class (each class's tally plays the role
/// of the whole-network tally here).
pub(crate) fn sample_majority_plan<R: Rng + ?Sized>(
    counts: &[u64],
    undecided: u64,
    tally: &PhaseTally,
    sample_size: u64,
    rng: &mut R,
) -> (Vec<u64>, Vec<u64>, i64) {
    let p_pass = tally.at_least_probability(sample_size);
    let mut leavers = vec![0u64; counts.len()];
    let mut switchers = 0u64;
    for (leave, &group) in leavers.iter_mut().zip(counts) {
        *leave = binomial(group, p_pass, rng);
        switchers += *leave;
    }
    let undecided_pass = binomial(undecided, p_pass, rng);
    switchers += undecided_pass;
    let joiners = sample_majority_splits(switchers, sample_size, &tally.post_noise, rng);
    (leavers, joiners, -(undecided_pass as i64))
}

/// Computes the "adopt one uniformly received opinion" split for a group of
/// agents against a finished phase.
pub(crate) fn sample_one_plan<R: Rng + ?Sized>(
    tally: &PhaseTally,
    num_opinions: usize,
    group: u64,
    rng: &mut R,
) -> (Vec<u64>, u64) {
    let p_active = tally.activation_probability();
    let active = binomial(group, p_active, rng);
    let weights: Vec<f64> = tally.post_noise.iter().map(|&h| h as f64).collect();
    let split = if active == 0 {
        vec![0; num_opinions]
    } else {
        multinomial(active, &weights, rng)
    };
    (split, group - active)
}

/// Computes the voter-model update (every agent that received at least one
/// message re-adopts a uniform received message, independent of its current
/// state): `(leavers, joiners, undecided_delta)`.
pub(crate) fn uniform_adoption_all_plan<R: Rng + ?Sized>(
    counts: &[u64],
    undecided: u64,
    tally: &PhaseTally,
    rng: &mut R,
) -> (Vec<u64>, Vec<u64>, i64) {
    let p_active = tally.activation_probability();
    let weights: Vec<f64> = tally.post_noise.iter().map(|&h| h as f64).collect();
    let k = counts.len();
    let mut leavers = vec![0u64; k];
    let mut active_total = 0u64;
    for (leave, &group) in leavers.iter_mut().zip(counts) {
        *leave = binomial(group, p_active, rng);
        active_total += *leave;
    }
    let undecided_active = binomial(undecided, p_active, rng);
    active_total += undecided_active;
    let joiners = if active_total == 0 {
        vec![0; k]
    } else {
        multinomial(active_total, &weights, rng)
    };
    (leavers, joiners, -(undecided_active as i64))
}

/// Computes the undecided-state dynamics update (one uniform draw per
/// active agent: agreement keeps the opinion, disagreement resets to
/// undecided, undecided agents adopt): `(leavers, joiners,
/// undecided_delta)`.
pub(crate) fn undecided_state_plan<R: Rng + ?Sized>(
    counts: &[u64],
    undecided: u64,
    tally: &PhaseTally,
    rng: &mut R,
) -> (Vec<u64>, Vec<u64>, i64) {
    let p_active = tally.activation_probability();
    let weights: Vec<f64> = tally.post_noise.iter().map(|&h| h as f64).collect();
    let total_weight: f64 = weights.iter().sum();
    let k = counts.len();
    // Opinionated agents look at one received message: agreement keeps
    // the opinion, disagreement resets to undecided.
    let mut leavers = vec![0u64; k];
    let mut resets = 0u64;
    for (o, (leave, &group)) in leavers.iter_mut().zip(counts).enumerate() {
        let active = binomial(group, p_active, rng);
        if active == 0 {
            continue;
        }
        let p_agree = if total_weight > 0.0 {
            weights[o] / total_weight
        } else {
            0.0
        };
        let disagree = active - binomial(active, p_agree, rng);
        *leave = disagree;
        resets += disagree;
    }
    // Undecided agents adopt one received message.
    let undecided_active = binomial(undecided, p_active, rng);
    let joiners = if undecided_active == 0 {
        vec![0; k]
    } else {
        multinomial(undecided_active, &weights, rng)
    };
    (leavers, joiners, resets as i64 - undecided_active as i64)
}

/// Computes the count-level median-rule update. The two draws are treated
/// as independent categorical draws from the phase mix, ignoring an
/// `O(1/Λ)` correlation through the shared inbox size — the mean-field
/// limit the dynamics literature analyses. Returns `(leavers, joiners,
/// undecided_delta)`.
pub(crate) fn median_plan<R: Rng + ?Sized>(
    counts: &[u64],
    undecided: u64,
    tally: &PhaseTally,
    rng: &mut R,
) -> (Vec<u64>, Vec<u64>, i64) {
    let p_active = tally.activation_probability();
    let weights: Vec<f64> = tally.post_noise.iter().map(|&h| h as f64).collect();
    let total_weight: f64 = weights.iter().sum();
    let k = counts.len();
    // Pair distribution q ⊗ q over the k² (first, second) observations.
    let pair_weights: Vec<f64> = if total_weight > 0.0 {
        (0..k * k)
            .map(|cell| weights[cell / k] * weights[cell % k])
            .collect()
    } else {
        vec![0.0; k * k]
    };
    let mut leavers = vec![0u64; k];
    let mut joiners = vec![0u64; k];
    for (o, (leave, &group)) in leavers.iter_mut().zip(counts).enumerate() {
        let active = binomial(group, p_active, rng);
        if active == 0 {
            continue;
        }
        *leave = active;
        let pairs = multinomial(active, &pair_weights, rng);
        for a in 0..k {
            for b in 0..k {
                let mut triple = [o, a, b];
                triple.sort_unstable();
                joiners[triple[1]] += pairs[a * k + b];
            }
        }
    }
    let undecided_active = binomial(undecided, p_active, rng);
    if undecided_active > 0 {
        let adopted = multinomial(undecided_active, &weights, rng);
        for (j, a) in joiners.iter_mut().zip(adopted) {
            *j += a;
        }
    }
    (leavers, joiners, -(undecided_active as i64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::PushBackend;
    use crate::config::{DeliverySemantics, SimConfig};
    use crate::error::SimError;
    use crate::opinion::Opinion;
    use crate::CountingNetwork;
    use noisy_channel::NoiseMatrix;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn counting_net(n: usize, k: usize, eps: f64, seed: u64) -> CountingNetwork {
        let noise = NoiseMatrix::uniform(k, eps).unwrap();
        let config = SimConfig::builder(n, k)
            .seed(seed)
            .delivery(DeliverySemantics::Poissonized)
            .build()
            .unwrap();
        CountingNetwork::new(config, noise).unwrap()
    }

    #[test]
    fn noise_dimension_must_match() {
        let noise = NoiseMatrix::uniform(4, 0.2).unwrap();
        let config = SimConfig::builder(50, 3).build().unwrap();
        assert_eq!(
            CountingNetwork::new(config, noise).unwrap_err(),
            SimError::NoiseDimensionMismatch {
                expected: 3,
                found: 4
            }
        );
    }

    #[test]
    fn seeding_and_distribution() {
        let mut net = counting_net(100, 3, 0.2, 1);
        assert_eq!(net.num_classes(), 1, "the complete graph is one class");
        net.seed_counts(&[10, 5, 0]).unwrap();
        let dist = net.distribution();
        assert_eq!(dist.counts(), &[10, 5, 0]);
        assert_eq!(dist.undecided(), 85);
        assert!(net.seed_counts(&[200, 0, 0]).is_err());
        assert!(net.seed_counts(&[1, 1]).is_err());
        net.seed_rumor_at(99, Opinion::new(2)).unwrap();
        assert_eq!(net.distribution().counts(), &[0, 0, 1]);
        assert!(net.seed_rumor_at(0, Opinion::new(9)).is_err());
    }

    #[test]
    fn phase_conserves_pushed_messages_in_the_tally() {
        let mut net = counting_net(1_000, 3, 0.2, 2);
        net.seed_counts(&[500, 300, 100]).unwrap();
        net.begin_phase();
        for _ in 0..4 {
            let report = net.push_opinionated_round();
            assert_eq!(report.messages_sent(), 900);
        }
        let tally = net.end_phase().clone();
        // Noise re-colors but conserves: H = messages pushed.
        assert_eq!(tally.total(), 4 * 900);
        assert_eq!(net.messages_sent(), 4 * 900);
        assert_eq!(net.rounds_executed(), 4);
        assert!((tally.mean_inbox() - 3.6).abs() < 1e-12);
    }

    #[test]
    fn same_seed_gives_identical_phases() {
        let run = |seed| {
            let mut net = counting_net(500, 3, 0.25, seed);
            net.seed_counts(&[100, 80, 60]).unwrap();
            net.begin_phase();
            for _ in 0..5 {
                net.push_opinionated_round();
            }
            net.end_phase().received_totals()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }

    #[test]
    fn sample_one_adoptions_conserve_the_group() {
        let mut net = counting_net(1_000, 2, 0.3, 3);
        net.seed_counts(&[400, 200]).unwrap();
        net.begin_phase();
        net.push_opinionated_round();
        net.end_phase();
        let mut rng = StdRng::seed_from_u64(3);
        let (adopted, silent) = sample_one_plan(net.observation().class_tally(0), 2, 400, &mut rng);
        assert_eq!(adopted.iter().sum::<u64>() + silent, 400);
    }

    #[test]
    fn apply_deltas_balances_population() {
        let mut net = counting_net(100, 2, 0.3, 4);
        net.seed_counts(&[40, 20]).unwrap();
        // 10 agents leave opinion 0; 6 join opinion 1, 4 become undecided.
        net.apply_class_deltas(0, &[10, 0], &[0, 6], 4);
        assert_eq!(net.opinion_counts(), vec![30, 26]);
        assert_eq!(net.undecided(), 44);
        let dist = net.distribution();
        assert_eq!(dist.num_nodes(), 100);
    }

    #[test]
    #[should_panic(expected = "must balance")]
    fn unbalanced_deltas_panic() {
        let mut net = counting_net(100, 2, 0.3, 5);
        net.seed_counts(&[40, 20]).unwrap();
        net.apply_class_deltas(0, &[10, 0], &[0, 6], 0);
    }

    #[test]
    fn poisson_tail_matches_direct_summation() {
        // λ = 3, m = 2: P(X ≥ 2) = 1 − e⁻³(1 + 3) ≈ 0.800852.
        let p = poisson_tail_ge(3.0, 2);
        assert!((p - 0.800_851_7).abs() < 1e-6, "got {p}");
        assert_eq!(poisson_tail_ge(3.0, 0), 1.0);
        assert_eq!(poisson_tail_ge(0.0, 3), 0.0);
        // Large-λ normal branch agrees with the exact branch near the seam.
        let exact = poisson_tail_ge(599.0, 600);
        let approx = {
            let z = (600.0 - 0.5 - 601.0) / 601.0_f64.sqrt();
            1.0 - super::standard_normal_cdf(z)
        };
        let exact_601 = poisson_tail_ge(601.0, 600);
        assert!((exact_601 - approx).abs() < 5e-3, "{exact_601} vs {approx}");
        assert!(exact > 0.4 && exact < 0.6);
    }

    #[test]
    fn majority_splits_conserve_and_favour_the_majority() {
        let mut rng = StdRng::seed_from_u64(6);
        let weights = [70u64, 30];
        let splits = sample_majority_splits(10_000, 41, &weights, &mut rng);
        assert_eq!(splits.iter().sum::<u64>(), 10_000);
        // With a 70/30 received mix and sample size 41, the majority wins
        // essentially always.
        assert!(splits[0] > 9_900, "splits {splits:?}");
        // Degenerate cases.
        assert_eq!(
            sample_majority_splits(0, 41, &weights, &mut rng),
            vec![0, 0]
        );
        assert_eq!(
            sample_majority_splits(5, 41, &[0, 0], &mut rng),
            vec![0, 0]
        );
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

    /// `sample_majority_splits` from seed 24 for each weight vector and
    /// sample size ℓ: the splits of 0, 1, 10⁴ and 2·10⁵ switchers drawn
    /// one after the other, every count FNV-1a folded, and the words
    /// consumed. 2·10⁵ crosses `MAJORITY_EXACT_CAP` into the bulk split;
    /// the weights include ties and zeros, and the word count pins the
    /// tie-break word drawn even when one count leads.
    #[test]
    fn majority_splits_stream_is_pinned() {
        const PINS: [(&[u64], u64, u64, u64); 28] = [
            (&[583, 417], 1, 0xe70e_5635_50a1_f2ca, 151076),
            (&[583, 417], 5, 0x8d51_7671_676e_ded2, 151076),
            (&[583, 417], 129, 0x5f5e_7e4d_d8cf_12c8, 264721),
            (&[583, 417], 885, 0xfce7_0416_8a19_aadc, 253441),
            (&[1, 1], 1, 0x3bef_8b71_81e1_7dbc, 151076),
            (&[1, 1], 5, 0x3bef_8b71_81e1_7dbc, 151076),
            (&[1, 1], 129, 0x4a6b_b935_a742_2da4, 264117),
            (&[1, 1], 885, 0x5f8d_f475_852c_c9d0, 253239),
            (&[583, 208, 209], 1, 0x1722_2617_ce9b_460a, 182449),
            (&[583, 208, 209], 5, 0x9672_82f5_9055_eb7e, 221665),
            (&[583, 208, 209], 129, 0xef77_9827_8296_9432, 463145),
            (&[583, 208, 209], 885, 0xef77_9827_8296_9432, 435985),
            (&[400, 330, 270], 1, 0x9ce0_80ea_fec4_8e56, 196548),
            (&[400, 330, 270], 5, 0x70f0_8392_85ee_89ca, 225847),
            (&[400, 330, 270], 129, 0xd423_3016_f67a_dd34, 459123),
            (&[400, 330, 270], 885, 0x947f_d230_22fe_a5da, 434389),
            (&[0, 7, 7], 1, 0x4c74_f4c5_bc0c_2114, 151076),
            (&[0, 7, 7], 5, 0x4c74_f4c5_bc0c_2114, 151076),
            (&[0, 7, 7], 129, 0x7050_186f_f747_2834, 264117),
            (&[0, 7, 7], 885, 0x7fc7_7184_2335_00c8, 253239),
            (&[5, 0, 0], 1, 0xef77_9827_8296_9432, 75537),
            (&[5, 0, 0], 5, 0xef77_9827_8296_9432, 75537),
            (&[5, 0, 0], 129, 0xef77_9827_8296_9432, 75537),
            (&[5, 0, 0], 885, 0xef77_9827_8296_9432, 75537),
            (&[300, 0, 300, 200, 200], 1, 0x7fd6_1137_e51d_bf08, 234736),
            (&[300, 0, 300, 200, 200], 5, 0xd9fc_01e0_59bf_0078, 296107),
            (&[300, 0, 300, 200, 200], 129, 0xe260_c86b_740e_dca8, 658373),
            (&[300, 0, 300, 200, 200], 885, 0x358f_9452_aab3_c4e2, 616599),
        ];
        for (weights, sample_size, digest, words) in PINS {
            let mut rng = WordCounter {
                rng: StdRng::seed_from_u64(24),
                words: 0,
            };
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for switchers in [0, 1, 10_000, 200_000] {
                let splits = sample_majority_splits(switchers, sample_size, weights, &mut rng);
                assert_eq!(splits.iter().sum::<u64>(), switchers);
                for c in splits {
                    h = (h ^ c).wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
            assert_eq!(
                (h, rng.words),
                (digest, words),
                "weights {weights:?}, sample size {sample_size}"
            );
        }
    }

    #[test]
    fn majority_splits_bulk_path_stays_close_to_exact() {
        // Push past MAJORITY_EXACT_CAP to exercise the estimated-pmf bulk.
        let mut rng = StdRng::seed_from_u64(7);
        let weights = [55u64, 45];
        let n = 200_000u64;
        let splits = sample_majority_splits(n, 61, &weights, &mut rng);
        assert_eq!(splits.iter().sum::<u64>(), n);
        let frac = splits[0] as f64 / n as f64;
        // Exact adoption probability for maj(Multinomial(61, (0.55, 0.45)))
        // is P(Bin(61, 0.55) ≥ 31) ≈ 0.785.
        assert!((frac - 0.785).abs() < 0.02, "fraction {frac}");
    }
}
