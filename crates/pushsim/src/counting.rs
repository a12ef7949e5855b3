//! The count-based simulation backend: exchangeable agent populations as
//! per-opinion counts.
//!
//! Agents in the noisy uniform push model are anonymous and exchangeable —
//! the paper's own analysis never tracks individuals, it works on opinion
//! *counts* (the Poissonized process P of Definition 4 is defined purely in
//! terms of the post-noise totals `h_i`). [`CountingNetwork`] exploits that:
//! instead of `Vec<NodeState>` plus per-agent inboxes, the population is a
//! `k`-vector of opinion counts plus an undecided count, and a whole phase
//! costs **O(k²) random draws** (one multinomial per opinion row of the
//! noise matrix) regardless of `n` — so `n = 10⁷` or `10⁸` runs in the time
//! the agent-level backend needs for `n = 10⁴`.
//!
//! ## Semantics: process P, exactly
//!
//! The backend implements the **Poissonized** delivery process (process P)
//! at the population level, exactly:
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
//! the counting backend still runs
//! process P — the paper's Claim 1 and Lemma 3 are exactly the statement
//! that phase-granular w.h.p. behaviour transfers between the three
//! processes, and `pushsim/tests/equivalence.rs` checks the agreement
//! empirically against the agent-level backend.

use crate::admission::{self, ExecutionBackend};
use crate::config::SimConfig;
use crate::distribution::OpinionDistribution;
use crate::error::SimError;
use crate::fault::FaultSpec;
use crate::network::{membership_count, ChurnState, RoundReport, ScheduledNoise, FAULT_SEED_SALT};
use crate::opinion::Opinion;
use noisy_channel::sampling::{binomial, multinomial};
use noisy_channel::NoiseMatrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Aggregate result of one finished phase of a [`CountingNetwork`]: the
/// post-noise per-opinion message totals `h_j` (Definition 4's parameters).
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseTally {
    post_noise: Vec<u64>,
    num_nodes: usize,
}

impl PhaseTally {
    /// Builds a tally over a population of `num_nodes` agents. Crate-only:
    /// the block-counting backend assembles one tally per degree class
    /// (with `num_nodes` the class population `n_c`), reusing every
    /// closed-form query and count-level decision rule below per class.
    pub(crate) fn new(post_noise: Vec<u64>, num_nodes: usize) -> Self {
        Self {
            post_noise,
            num_nodes,
        }
    }

    /// The population the tally is over: `n` for a whole-network phase, a
    /// class population `n_c` for the block-counting backend's per-class
    /// tallies.
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
    let exact = count.min(MAJORITY_EXACT_CAP);
    for _ in 0..exact {
        let composition = multinomial(sample_size, &weights_f, rng);
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

/// The fault pools of a count-based network: Byzantine and crashed agents
/// are carved out of the live population as per-opinion count transfers
/// (the aggregatable reformulation of the agent backend's per-node flags).
#[derive(Debug, Clone)]
struct CountingFaults {
    spec: FaultSpec,
    rng: StdRng,
    /// Opinions the Byzantine agents were *seeded* with (they hold them
    /// forever and always push the fixed Byzantine opinion instead).
    byz_counts: Vec<u64>,
    byz_undecided: u64,
    /// Opinions the crashed agents held at the moment the crash phase
    /// ended; empty until then.
    crashed_counts: Vec<u64>,
    crashed_undecided: u64,
    crash_carved: bool,
    phases_completed: u64,
}

impl CountingFaults {
    fn byz_total(&self) -> u64 {
        self.byz_counts.iter().sum::<u64>() + self.byz_undecided
    }

    fn frozen_counts(&self) -> Vec<u64> {
        self.byz_counts
            .iter()
            .zip(&self.crashed_counts)
            .map(|(&b, &c)| b + c)
            .collect()
    }
}

/// The materialized temporal state of a count-based network: churn as
/// aggregate count transfers plus the scheduled noise swap. Built only
/// when at least one supported temporal axis is enabled (clock skew and
/// edge churn are rejected at construction), so temporal-off runs never
/// touch any temporal RNG stream.
#[derive(Debug, Clone)]
struct CountingTemporal {
    churn: Option<ChurnState>,
    schedule: Option<ScheduledNoise>,
    /// How many phases have fully ended; boundary `b` (preceding phase
    /// `b`) is applied when this equals `b` at `begin_phase`.
    phases_completed: u64,
}

/// Largest-remainder proportional allocation of `draw` agents over
/// population `groups` (exact: each share never exceeds its group and the
/// shares sum to `draw`). The count-level stand-in for drawing the faulty
/// agents uniformly without replacement — the composition of the faulty
/// pool is pinned to its expectation, one more of the bounded
/// approximations the backend documents. Also reused by the
/// block-counting backend to spread seeded opinion counts over degree
/// classes deterministically.
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

/// A complete synchronous network of anonymous agents, represented purely by
/// per-opinion population counts — the batched counterpart of
/// [`Network`](crate::Network).
///
/// Drive it in phases exactly like the agent-level backend:
/// [`begin_phase`](Self::begin_phase), one
/// [`push_round_batched`](Self::push_round_batched) per round (counts in),
/// then [`end_phase`](Self::end_phase) (a [`PhaseTally`] out). Population
/// updates between phases go through the count-level rule helpers
/// ([`PhaseTally::activation_probability`], [`sample_majority_splits`], …)
/// plus [`apply_deltas`](Self::apply_deltas).
///
/// See the module documentation for the exactness statement.
#[derive(Debug, Clone)]
pub struct CountingNetwork {
    config: SimConfig,
    noise: NoiseMatrix,
    counts: Vec<u64>,
    undecided: u64,
    rng: StdRng,
    pending: Vec<u64>,
    tally: PhaseTally,
    /// Fault pools; `None` when the config's [`FaultSpec`] is all-disabled,
    /// in which case no fault code path is entered and no fault RNG is
    /// seeded.
    faults: Option<CountingFaults>,
    /// Materialized temporal state; `None` when every temporal axis is
    /// disabled, in which case no temporal code path is ever entered.
    temporal: Option<CountingTemporal>,
    /// The live population: `config.num_nodes()` except under population
    /// churn, which moves it deterministically at phase boundaries.
    population: usize,
    phase_open: bool,
    rounds_executed: u64,
    messages_sent: u64,
}

impl CountingNetwork {
    /// Creates a network of undecided agents.
    ///
    /// # Errors
    ///
    /// * [`SimError::NoiseDimensionMismatch`] if the noise matrix is not
    ///   defined over exactly `config.num_opinions()` opinions.
    /// * The [`admission`] error if the counting
    ///   backend's capabilities do not cover the configuration.
    pub fn new(config: SimConfig, noise: NoiseMatrix) -> Result<Self, SimError> {
        admission::check_construction(&config, &noise, ExecutionBackend::Counting)?;
        let k = config.num_opinions();
        let schedule = ScheduledNoise::build(config.schedule(), &noise);
        let churn = ChurnState::build(config.churn(), config.seed());
        let temporal = (churn.is_some() || schedule.is_some()).then_some(CountingTemporal {
            churn,
            schedule,
            phases_completed: 0,
        });
        let faults = (!config.fault().is_none()).then(|| CountingFaults {
            spec: config.fault(),
            rng: StdRng::seed_from_u64(config.seed() ^ FAULT_SEED_SALT),
            byz_counts: vec![0; k],
            byz_undecided: 0,
            crashed_counts: vec![0; k],
            crashed_undecided: 0,
            crash_carved: false,
            phases_completed: 0,
        });
        Ok(Self {
            rng: StdRng::seed_from_u64(config.seed()),
            counts: vec![0; k],
            undecided: config.num_nodes() as u64,
            pending: vec![0; k],
            tally: PhaseTally {
                post_noise: vec![0; k],
                num_nodes: config.num_nodes(),
            },
            faults,
            temporal,
            population: config.num_nodes(),
            phase_open: false,
            rounds_executed: 0,
            messages_sent: 0,
            config,
            noise,
        })
    }

    /// The simulation configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// The number of agents `n` — the **live** population: equal to
    /// `config().num_nodes()` except under population churn, where joins
    /// and departures at phase boundaries move it away from the initial
    /// size (deterministically; see
    /// [`ChurnSpec::population_after`](crate::ChurnSpec::population_after)).
    pub fn num_nodes(&self) -> usize {
        self.population
    }

    /// The number of opinions `k`.
    pub fn num_opinions(&self) -> usize {
        self.config.num_opinions()
    }

    /// The noise matrix acting on every transmitted message.
    pub fn noise(&self) -> &NoiseMatrix {
        &self.noise
    }

    /// Per-opinion population counts of the **live** agents — under faults,
    /// Byzantine and already-crashed agents sit in frozen pools excluded
    /// from these counts (adoption rules only move live agents); use
    /// [`distribution`](Self::distribution) for the whole population.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// The number of live undecided agents (see [`counts`](Self::counts)).
    pub fn undecided(&self) -> u64 {
        self.undecided
    }

    /// The current opinion distribution of the whole population, frozen
    /// fault pools included (Byzantine and crashed agents count with the
    /// opinion they froze with, mirroring the agent-level backend).
    pub fn distribution(&self) -> OpinionDistribution {
        let mut counts: Vec<usize> = self.counts.iter().map(|&c| c as usize).collect();
        let mut undecided = self.undecided as usize;
        if let Some(f) = &self.faults {
            for (c, frozen) in counts.iter_mut().zip(f.frozen_counts()) {
                *c += frozen as usize;
            }
            undecided += (f.byz_undecided + f.crashed_undecided) as usize;
        }
        OpinionDistribution::from_counts(counts, undecided).expect("k >= 2 by construction")
    }

    /// Total number of rounds executed so far.
    pub fn rounds_executed(&self) -> u64 {
        self.rounds_executed
    }

    /// Total number of messages pushed so far.
    pub fn messages_sent(&self) -> u64 {
        self.messages_sent
    }

    /// The tally of the most recently finished phase.
    pub fn tally(&self) -> &PhaseTally {
        &self.tally
    }

    /// A mutable reference to the backend's RNG (for callers that want a
    /// single reproducible randomness source).
    pub fn rng_mut(&mut self) -> &mut StdRng {
        &mut self.rng
    }

    /// Resets every agent to undecided (keeping round/message counters).
    /// Under faults this dissolves the frozen pools; they are carved again
    /// at the next seeding (`seed_counts` / `seed_rumor`).
    pub fn clear_opinions(&mut self) {
        self.counts.iter_mut().for_each(|c| *c = 0);
        self.undecided = self.num_nodes() as u64;
        self.reset_fault_pools();
    }

    /// Zeroes the fault pools ahead of a wholesale repopulation of the
    /// live counts (the caller overwrites `counts`/`undecided` entirely).
    fn reset_fault_pools(&mut self) {
        if let Some(f) = self.faults.as_mut() {
            f.byz_counts.iter_mut().for_each(|c| *c = 0);
            f.byz_undecided = 0;
            f.crashed_counts.iter_mut().for_each(|c| *c = 0);
            f.crashed_undecided = 0;
            f.crash_carved = false;
        }
    }

    /// Carves the Byzantine pool out of the freshly seeded live
    /// population: a proportional (largest-remainder) share of every
    /// opinion group and of the undecided pool, matching the uniform
    /// membership draw of the agent-level backend in expectation.
    fn carve_byzantine(&mut self) {
        let Some(f) = self.faults.as_mut() else {
            return;
        };
        let Some(byz) = f.spec.byzantine else {
            return;
        };
        let byz_count = membership_count(byz.fraction, self.config.num_nodes()) as u64;
        let mut groups: Vec<u64> = self.counts.clone();
        groups.push(self.undecided);
        let shares = proportional_split(&groups, byz_count);
        for ((live, pool), &share) in self
            .counts
            .iter_mut()
            .zip(f.byz_counts.iter_mut())
            .zip(&shares)
        {
            *live -= share;
            *pool += share;
        }
        let undecided_share = shares[shares.len() - 1];
        self.undecided -= undecided_share;
        f.byz_undecided += undecided_share;
    }

    /// Carves the crashed pool out of the live population once the crash
    /// phase has fully ended (called from `end_phase`).
    fn carve_crashed(&mut self) {
        let Some(f) = self.faults.as_mut() else {
            return;
        };
        let Some(crash) = f.spec.crash else {
            return;
        };
        if f.crash_carved || f.phases_completed <= crash.after_phase {
            return;
        }
        let live: u64 = self.counts.iter().sum::<u64>() + self.undecided;
        let crash_count =
            (membership_count(crash.fraction, self.config.num_nodes()) as u64).min(live);
        let mut groups: Vec<u64> = self.counts.clone();
        groups.push(self.undecided);
        let shares = proportional_split(&groups, crash_count);
        for ((live, pool), &share) in self
            .counts
            .iter_mut()
            .zip(f.crashed_counts.iter_mut())
            .zip(&shares)
        {
            *live -= share;
            *pool += share;
        }
        let undecided_share = shares[shares.len() - 1];
        self.undecided -= undecided_share;
        f.crashed_undecided += undecided_share;
        f.crash_carved = true;
    }

    /// Seeds a plurality-consensus instance: `counts[i]` agents adopt
    /// opinion `i`, the rest become undecided. (Agents are exchangeable, so
    /// unlike the agent-level backend there is no placement to randomize.)
    ///
    /// # Errors
    ///
    /// * [`SimError::OpinionOutOfRange`] if `counts.len() ≠ num_opinions()`.
    /// * [`SimError::TooManyInitialOpinions`] if the counts sum to more than
    ///   `num_nodes()`.
    pub fn seed_counts(&mut self, counts: &[usize]) -> Result<(), SimError> {
        if counts.len() != self.num_opinions() {
            return Err(SimError::OpinionOutOfRange {
                opinion: counts.len(),
                num_opinions: self.num_opinions(),
            });
        }
        let total: usize = counts.iter().sum();
        if total > self.num_nodes() {
            return Err(SimError::TooManyInitialOpinions {
                requested: total,
                num_nodes: self.num_nodes(),
            });
        }
        self.reset_fault_pools();
        for (slot, &c) in self.counts.iter_mut().zip(counts) {
            *slot = c as u64;
        }
        self.undecided = (self.num_nodes() - total) as u64;
        self.carve_byzantine();
        Ok(())
    }

    /// Seeds a rumor-spreading instance: one agent adopts `opinion`, every
    /// other agent becomes undecided.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OpinionOutOfRange`] if the opinion index is out
    /// of range.
    pub fn seed_rumor(&mut self, opinion: Opinion) -> Result<(), SimError> {
        if opinion.index() >= self.num_opinions() {
            return Err(SimError::OpinionOutOfRange {
                opinion: opinion.index(),
                num_opinions: self.num_opinions(),
            });
        }
        self.clear_opinions();
        self.counts[opinion.index()] = 1;
        self.undecided -= 1;
        self.carve_byzantine();
        Ok(())
    }

    /// Starts a new phase, applying the pending temporal phase boundary
    /// (population churn as O(k) count transfers, a scheduled noise swap
    /// — a no-op when every temporal axis is off).
    ///
    /// # Panics
    ///
    /// Panics if a phase is already open.
    pub fn begin_phase(&mut self) {
        assert!(!self.phase_open, "begin_phase called while a phase is open");
        self.apply_phase_boundary();
        self.pending.iter_mut().for_each(|c| *c = 0);
        self.phase_open = true;
    }

    /// Applies the temporal phase boundary preceding the phase about to
    /// open. Churn magnitudes are deterministic
    /// ([`ChurnSpec::population_delta`](crate::ChurnSpec::population_delta));
    /// the *composition* of the leavers is the proportional
    /// (largest-remainder) share of every population group — the same
    /// pinned-to-expectation count-level stand-in for a uniform
    /// without-replacement draw that the fault pools use — while joiner
    /// opinions are drawn from the dedicated churn RNG (a uniform
    /// multinomial split, or the fixed adversarial opinion).
    fn apply_phase_boundary(&mut self) {
        let Some(temporal) = self.temporal.as_mut() else {
            return;
        };
        let boundary = temporal.phases_completed;
        if let Some(s) = temporal.schedule.as_ref() {
            self.noise = s.matrix_for(boundary, self.config.num_opinions());
        }
        let Some(c) = temporal.churn.as_mut() else {
            return;
        };
        if boundary == 0 {
            return;
        }
        let delta = c.spec.population_delta(self.population, boundary);
        if delta.leavers > 0 {
            let mut groups: Vec<u64> = self.counts.clone();
            groups.push(self.undecided);
            let shares = proportional_split(&groups, delta.leavers as u64);
            for (live, &share) in self.counts.iter_mut().zip(&shares) {
                *live -= share;
            }
            self.undecided -= shares[shares.len() - 1];
        }
        if delta.joiners > 0 {
            match c.spec.join_opinion {
                Some(opinion) => self.counts[opinion] += delta.joiners as u64,
                None => {
                    let weights = vec![1.0; self.counts.len()];
                    let split = multinomial(delta.joiners as u64, &weights, &mut c.rng);
                    for (count, j) in self.counts.iter_mut().zip(split) {
                        *count += j;
                    }
                }
            }
        }
        self.population = self.population - delta.leavers + delta.joiners;
    }

    /// Executes one synchronous round in which `senders[i]` **live** agents
    /// push opinion `i` — the counts-in counterpart of
    /// [`Network::push_round`](crate::Network::push_round). Under a
    /// Byzantine fault, the whole Byzantine pool additionally pushes its
    /// fixed opinion every round (included in the report's message count).
    ///
    /// # Panics
    ///
    /// Panics if no phase is open, if `senders.len() ≠ num_opinions()`, or
    /// if more agents push an opinion than exist in the network.
    pub fn push_round_batched(&mut self, senders: &[u64]) -> RoundReport {
        assert!(self.phase_open, "push_round_batched called outside a phase");
        assert_eq!(
            senders.len(),
            self.num_opinions(),
            "senders vector must have one entry per opinion"
        );
        let mut sent: u64 = senders.iter().sum();
        for (p, &s) in self.pending.iter_mut().zip(senders) {
            *p += s;
        }
        if let Some(f) = &self.faults {
            let byz_total = f.byz_total();
            if byz_total > 0 {
                let opinion = f.spec.byzantine.expect("byzantine pool implies a spec").opinion;
                self.pending[opinion] += byz_total;
                sent += byz_total;
            }
        }
        assert!(
            sent <= self.num_nodes() as u64,
            "{sent} senders exceed the {}-agent population",
            self.num_nodes()
        );
        self.messages_sent += sent;
        self.rounds_executed += 1;
        RoundReport::new(self.rounds_executed - 1, sent)
    }

    /// Convenience round: every opinionated agent pushes its current
    /// opinion (the rule of Stage 2 and of all baseline dynamics).
    pub fn push_round_all_opinionated(&mut self) -> RoundReport {
        let senders = self.counts.clone();
        self.push_round_batched(&senders)
    }

    /// Finishes the open phase: applies the noise at the count level (O(k²)
    /// multinomial draws), then any aggregatable faults — binomial thinning
    /// for `drop`, binomial inflation for `dup`, both from the dedicated
    /// fault RNG — and returns the post-noise tally. The crashed pool is
    /// carved out of the live population the first time the crash phase
    /// has fully ended.
    ///
    /// # Panics
    ///
    /// Panics if no phase is open.
    pub fn end_phase(&mut self) -> &PhaseTally {
        assert!(self.phase_open, "end_phase called without an open phase");
        let mut post_noise = self.noise.recolor_counts(&self.pending, &mut self.rng);
        if let Some(f) = self.faults.as_mut() {
            if f.spec.drop > 0.0 || f.spec.duplicate > 0.0 {
                for h in post_noise.iter_mut() {
                    let survivors = *h - binomial(*h, f.spec.drop, &mut f.rng);
                    *h = survivors + binomial(survivors, f.spec.duplicate, &mut f.rng);
                }
            }
            f.phases_completed += 1;
        }
        if let Some(t) = self.temporal.as_mut() {
            t.phases_completed += 1;
        }
        self.tally = PhaseTally {
            post_noise,
            num_nodes: self.num_nodes(),
        };
        self.phase_open = false;
        self.carve_crashed();
        &self.tally
    }

    /// Applies the **sample-majority rule** shared by Stage 2 of the
    /// protocol and the h-majority dynamics: every agent that collected at
    /// least `sample_size` messages this phase (a `Binomial(group,
    /// P(Poisson(Λ) ≥ L))` event per population group, independent of the
    /// agent's opinion) switches to `maj(Multinomial(L, h/H))` — the law of
    /// the majority of a uniform without-replacement sample from a
    /// Poisson-multinomial inbox. Conserves the population exactly.
    ///
    /// Randomness comes from the network's own RNG; use
    /// [`apply_sample_majority_with`](Self::apply_sample_majority_with) to
    /// supply an external decision RNG (as the generic
    /// [`PushBackend`](crate::PushBackend) rules do).
    pub fn apply_sample_majority(&mut self, sample_size: u64) {
        let (leavers, joiners, undecided_delta) = sample_majority_plan(
            &self.counts,
            self.undecided,
            &self.tally,
            sample_size,
            &mut self.rng,
        );
        self.apply_deltas(&leavers, &joiners, undecided_delta);
    }

    /// [`apply_sample_majority`](Self::apply_sample_majority) with an
    /// external decision RNG.
    pub fn apply_sample_majority_with<R: Rng + ?Sized>(&mut self, sample_size: u64, rng: &mut R) {
        let (leavers, joiners, undecided_delta) =
            sample_majority_plan(&self.counts, self.undecided, &self.tally, sample_size, rng);
        self.apply_deltas(&leavers, &joiners, undecided_delta);
    }

    /// Applies a population update: `leavers[i]` agents abandon opinion `i`,
    /// `joiners[i]` agents adopt it, and `undecided_delta` adjusts the
    /// undecided pool (agents must balance: the net flow out of the
    /// opinionated groups must equal the net flow into the undecided pool).
    ///
    /// # Panics
    ///
    /// Panics if any group would go negative or the flows do not balance.
    pub fn apply_deltas(&mut self, leavers: &[u64], joiners: &[u64], undecided_delta: i64) {
        assert_eq!(leavers.len(), self.num_opinions());
        assert_eq!(joiners.len(), self.num_opinions());
        let left: u64 = leavers.iter().sum();
        let joined: u64 = joiners.iter().sum();
        assert_eq!(
            joined as i128 + undecided_delta as i128,
            left as i128,
            "population flows must balance: {joined} joined + Δundecided {undecided_delta} ≠ {left} left"
        );
        for (c, &l) in self.counts.iter_mut().zip(leavers) {
            assert!(*c >= l, "more agents leave an opinion than support it");
            *c -= l;
        }
        for (c, &j) in self.counts.iter_mut().zip(joiners) {
            *c += j;
        }
        if undecided_delta >= 0 {
            self.undecided += undecided_delta as u64;
        } else {
            let drop = (-undecided_delta) as u64;
            assert!(self.undecided >= drop, "undecided pool would go negative");
            self.undecided -= drop;
        }
    }

    /// Count-level form of the "adopt one uniformly received opinion" rule
    /// (Stage 1 adoption, voter model): out of `group` agents, how many
    /// receive at least one message this phase, and which opinions do they
    /// draw? Returns `(per-opinion adoption counts, number of silent
    /// agents)`; adoptions + silent = `group`.
    pub fn sample_one_adoptions(&mut self, group: u64) -> (Vec<u64>, u64) {
        sample_one_plan(&self.tally, self.num_opinions(), group, &mut self.rng)
    }

    /// [`sample_one_adoptions`](Self::sample_one_adoptions) with an external
    /// decision RNG.
    pub fn sample_one_adoptions_with<R: Rng + ?Sized>(
        &mut self,
        group: u64,
        rng: &mut R,
    ) -> (Vec<u64>, u64) {
        sample_one_plan(&self.tally, self.num_opinions(), group, rng)
    }
}

/// Computes the sample-majority population update against a finished phase:
/// `(leavers, joiners, undecided_delta)` for
/// [`CountingNetwork::apply_deltas`].
///
/// The plan functions below are crate-visible so the block-counting
/// backend can apply the identical count-level decision rules once per
/// degree class (each class's tally plays the role of the whole-network
/// tally here).
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
    use crate::config::DeliverySemantics;

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
        net.seed_counts(&[10, 5, 0]).unwrap();
        let dist = net.distribution();
        assert_eq!(dist.counts(), &[10, 5, 0]);
        assert_eq!(dist.undecided(), 85);
        assert!(net.seed_counts(&[200, 0, 0]).is_err());
        assert!(net.seed_counts(&[1, 1]).is_err());
        net.seed_rumor(Opinion::new(2)).unwrap();
        assert_eq!(net.distribution().counts(), &[0, 0, 1]);
        assert!(net.seed_rumor(Opinion::new(9)).is_err());
    }

    #[test]
    fn phase_conserves_pushed_messages_in_the_tally() {
        let mut net = counting_net(1_000, 3, 0.2, 2);
        net.seed_counts(&[500, 300, 100]).unwrap();
        net.begin_phase();
        for _ in 0..4 {
            let report = net.push_round_all_opinionated();
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
                net.push_round_all_opinionated();
            }
            net.end_phase().post_noise().to_vec()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }

    #[test]
    fn sample_one_adoptions_conserve_the_group() {
        let mut net = counting_net(1_000, 2, 0.3, 3);
        net.seed_counts(&[400, 200]).unwrap();
        net.begin_phase();
        net.push_round_all_opinionated();
        net.end_phase();
        let (adopted, silent) = net.sample_one_adoptions(400);
        assert_eq!(adopted.iter().sum::<u64>() + silent, 400);
    }

    #[test]
    fn apply_deltas_balances_population() {
        let mut net = counting_net(100, 2, 0.3, 4);
        net.seed_counts(&[40, 20]).unwrap();
        // 10 agents leave opinion 0; 6 join opinion 1, 4 become undecided.
        net.apply_deltas(&[10, 0], &[0, 6], 4);
        assert_eq!(net.counts(), &[30, 26]);
        assert_eq!(net.undecided(), 44);
        let dist = net.distribution();
        assert_eq!(dist.num_nodes(), 100);
    }

    #[test]
    #[should_panic(expected = "must balance")]
    fn unbalanced_deltas_panic() {
        let mut net = counting_net(100, 2, 0.3, 5);
        net.seed_counts(&[40, 20]).unwrap();
        net.apply_deltas(&[10, 0], &[0, 6], 0);
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
