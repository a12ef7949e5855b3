//! The degree-class block-counting backend: count-level process P on
//! sparse topologies in O(k²·C) per phase.
//!
//! [`CountingNetwork`](crate::CountingNetwork) collapses the population to
//! one opinion-count vector, which is exact *only* on the complete graph:
//! there every agent is exchangeable with every other. On a sparse graph
//! that global symmetry is gone — but on a **degree-homogeneous** family
//! (ring, torus, `regular(d)`; [`TopologySpec::is_vertex_transitive`])
//! agents within a *degree class* are still exchangeable at the population
//! level: a uniform-neighbor push from a class-`c` node lands in class
//! `c'` with probability `E[c][c'] / (n_c · d_c)`, a function of the
//! class-to-class directed edge counts alone (see [`DegreeClasses`]).
//!
//! [`BlockCountingNetwork`] exploits that: state is a `C×k` matrix of
//! (degree class, opinion) counts plus a per-class undecided count, a push
//! round draws one destination-class multinomial per non-empty block, and
//! [`end_phase`](BlockCountingNetwork::end_phase) applies the noise as one
//! multinomial per (class, opinion) row — **O(k²·C) random draws per
//! phase** regardless of `n`, so `topo`-style experiments reach `n = 10⁷`
//! at complete-graph-counting speed. For the families the backend is
//! certified for, `C = 1` and a phase costs exactly what
//! `CountingNetwork` pays.
//!
//! ## Semantics
//!
//! Like `CountingNetwork`, the backend always runs the **Poissonized**
//! process P at phase granularity (the paper's Claim 1 + Lemma 3 transfer
//! w.h.p. phase behaviour between processes), localized per class: during
//! a phase each class-`c` agent's inbox is an independent Poisson vector
//! with means `h_j^{(c)} / n_c`, where `h^{(c)}` is the class's post-noise
//! tally. All decision operators are the count-level rules of
//! [`counting`](crate::counting), applied once per class against that
//! class's own tally.
//!
//! ## Certified vs accepted topologies
//!
//! The backend's certified set is
//! [`TopologyCapability::VertexTransitive`](crate::TopologyCapability):
//! on degree-homogeneous families the within-class aggregation matches the
//! agent-level model's population law (checked empirically by
//! `pushsim/tests/blockcounting_equivalence.rs`). The constructor
//! additionally *accepts* `er(p)` as an explicit opt-in, bucketing the
//! exact realization the agent backend would build (same seed, same graph)
//! by exact degree. That treats same-degree nodes as exchangeable even
//! though their neighborhoods differ — an annealed / mean-field
//! approximation of the quenched graph, standard in the dynamics
//! literature but *not* certified, so automatic backend selection never
//! routes `er(p)` here.
//!
//! Faults are rejected wholesale: the counting backend's crash/Byzantine
//! pools are carved from the global population and do not localize to
//! degree classes. The full list of what the backend accepts is its row
//! of the admission table,
//! [`BLOCK_COUNTING`](crate::admission::BLOCK_COUNTING).

use crate::admission::{self, ExecutionBackend};
use crate::config::SimConfig;
use crate::counting::{
    median_plan, proportional_split, sample_majority_plan, sample_one_plan, undecided_state_plan,
    uniform_adoption_all_plan, PhaseTally,
};
use crate::distribution::OpinionDistribution;
use crate::error::SimError;
use crate::network::{ChurnState, RoundReport, ScheduledNoise, TOPOLOGY_SEED_SALT};
use crate::opinion::Opinion;
use crate::topology::{DegreeClasses, TopologySpec};
use noisy_channel::sampling::multinomial;
use noisy_channel::NoiseMatrix;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Aggregate result of one finished phase of a [`BlockCountingNetwork`]:
/// one per-class [`PhaseTally`] (the class's post-noise totals
/// `h_j^{(c)}`, over its population `n_c`).
///
/// Whole-network statistics are the Poisson **mixture** moments: with
/// class weights `w_c = n_c / n` and per-class means `Λ_c`, the mean inbox
/// is `Σ w_c Λ_c`, the variance `Σ w_c (Λ_c + Λ_c²) − mean²` (law of total
/// variance over the class mixture), and the fraction of agents with at
/// least one message `Σ w_c (1 − e^{−Λ_c})`.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockPhaseTally {
    classes: Vec<PhaseTally>,
    num_nodes: usize,
}

impl BlockPhaseTally {
    fn empty(classes: &DegreeClasses, num_opinions: usize) -> Self {
        Self {
            classes: (0..classes.num_classes())
                .map(|c| PhaseTally::new(vec![0; num_opinions], classes.size(c) as usize))
                .collect(),
            num_nodes: classes.num_nodes(),
        }
    }

    /// The number of degree classes `C`.
    pub fn num_classes(&self) -> usize {
        self.classes.len()
    }

    /// The tally of class `class` (its `num_nodes` is the class population
    /// `n_c`).
    pub fn class_tally(&self, class: usize) -> &PhaseTally {
        &self.classes[class]
    }

    /// Per-opinion totals summed over all classes.
    pub fn received_totals(&self) -> Vec<u64> {
        let k = self.classes[0].post_noise().len();
        let mut totals = vec![0u64; k];
        for tally in &self.classes {
            for (t, &h) in totals.iter_mut().zip(tally.post_noise()) {
                *t += h;
            }
        }
        totals
    }

    /// `H = Σ_c Σ_j h_j^{(c)}`.
    pub fn total(&self) -> u64 {
        self.classes.iter().map(PhaseTally::total).sum()
    }

    /// The whole-network mean inbox `Σ w_c Λ_c = H / n`.
    pub fn mean_inbox(&self) -> f64 {
        self.total() as f64 / self.num_nodes as f64
    }

    /// The whole-network inbox variance of the Poisson mixture:
    /// `Σ w_c (Λ_c + Λ_c²) − mean²`.
    pub fn received_variance(&self) -> f64 {
        let n = self.num_nodes as f64;
        let mean = self.mean_inbox();
        let second_moment: f64 = self
            .classes
            .iter()
            .map(|t| {
                let lambda = t.mean_inbox();
                (t.num_nodes() as f64 / n) * (lambda + lambda * lambda)
            })
            .sum();
        (second_moment - mean * mean).max(0.0)
    }

    /// The fraction of agents with at least one message:
    /// `Σ w_c (1 − e^{−Λ_c})`.
    pub fn fraction_with_messages(&self) -> f64 {
        let n = self.num_nodes as f64;
        self.classes
            .iter()
            .map(|t| (t.num_nodes() as f64 / n) * t.activation_probability())
            .sum()
    }

    /// A Chernoff-style w.h.p. ceiling on the largest single inbox: the
    /// per-class ceiling `Λ_c + √(2 Λ_c ln n) + ln n` (with the global `n`
    /// for the union bound over all agents), maximized over classes.
    pub fn typical_max_inbox(&self) -> u64 {
        let ln_n = (self.num_nodes.max(2) as f64).ln();
        self.classes
            .iter()
            .map(|t| {
                let lambda = t.mean_inbox();
                (lambda + (2.0 * lambda * ln_n).sqrt() + ln_n).ceil() as u64
            })
            .max()
            .unwrap_or(0)
    }
}

/// The materialized temporal state of a block-counting network: the same
/// supported subset as the counting backend (population churn + noise
/// schedules; edge churn and clock skew are rejected at construction).
/// Population churn is pinned by `SimConfig` validation to the complete
/// topology, where `C = 1`, so churn always acts on the single class.
#[derive(Debug, Clone)]
struct BlockTemporal {
    churn: Option<ChurnState>,
    schedule: Option<ScheduledNoise>,
    /// How many phases have fully ended; boundary `b` (preceding phase
    /// `b`) is applied when this equals `b` at `begin_phase`.
    phases_completed: u64,
}

/// A synchronous network over a sparse topology, represented purely by
/// per-(degree class, opinion) population counts — the block-aggregated
/// counterpart of [`CountingNetwork`](crate::CountingNetwork), with the
/// same phase lifecycle and the same count-level decision operators
/// applied per class.
///
/// See the [module documentation](self) for semantics and the certified
/// vs accepted topology boundary.
#[derive(Debug, Clone)]
pub struct BlockCountingNetwork {
    config: SimConfig,
    noise: NoiseMatrix,
    classes: DegreeClasses,
    /// `C×k` row-major live opinion counts per class.
    counts: Vec<u64>,
    /// Per-class undecided counts.
    undecided: Vec<u64>,
    /// `C×C` row-major cached destination-class probabilities.
    dest_probs: Vec<f64>,
    rng: StdRng,
    /// `C×k` row-major pre-noise pending counts, bucketed by
    /// **destination** class.
    pending: Vec<u64>,
    /// Materialized temporal state; `None` when every temporal axis is
    /// disabled, in which case no temporal code path is ever entered.
    temporal: Option<BlockTemporal>,
    /// The live population: `config.num_nodes()` except under population
    /// churn, which moves it deterministically at phase boundaries.
    population: usize,
    tally: BlockPhaseTally,
    phase_open: bool,
    rounds_executed: u64,
    messages_sent: u64,
}

impl BlockCountingNetwork {
    /// Creates a network of undecided agents over the configured topology.
    ///
    /// Deterministic degree-homogeneous families never materialize the
    /// graph (their [`DegreeClasses`] are analytic), so construction is
    /// O(k·C) even at `n = 10⁷`; `er(p)` builds the same realization the
    /// agent backend would (same seed-salted topology RNG) and buckets it
    /// by exact degree.
    ///
    /// # Errors
    ///
    /// * [`SimError::NoiseDimensionMismatch`] if the noise matrix is not
    ///   defined over exactly `config.num_opinions()` opinions.
    /// * The [`admission`] error if the block-counting
    ///   backend's capabilities do not cover the configuration.
    /// * [`SimError::InvalidTopology`] if the topology parameters are
    ///   infeasible (propagated from [`DegreeClasses::build`]).
    pub fn new(config: SimConfig, noise: NoiseMatrix) -> Result<Self, SimError> {
        admission::check_construction(&config, &noise, ExecutionBackend::BlockCounting)?;
        let mut topology_rng = StdRng::seed_from_u64(config.seed() ^ TOPOLOGY_SEED_SALT);
        let classes = DegreeClasses::build(config.topology(), config.num_nodes(), &mut topology_rng)?;
        let c = classes.num_classes();
        let k = config.num_opinions();
        let dest_probs: Vec<f64> = (0..c)
            .flat_map(|from| classes.destination_probabilities(from))
            .collect();
        let undecided: Vec<u64> = (0..c).map(|cls| classes.size(cls)).collect();
        let tally = BlockPhaseTally::empty(&classes, k);
        let schedule = ScheduledNoise::build(config.schedule(), &noise);
        let churn = ChurnState::build(config.churn(), config.seed());
        let temporal = (churn.is_some() || schedule.is_some()).then_some(BlockTemporal {
            churn,
            schedule,
            phases_completed: 0,
        });
        Ok(Self {
            rng: StdRng::seed_from_u64(config.seed()),
            counts: vec![0; c * k],
            undecided,
            dest_probs,
            pending: vec![0; c * k],
            temporal,
            population: config.num_nodes(),
            tally,
            phase_open: false,
            rounds_executed: 0,
            messages_sent: 0,
            classes,
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

    /// The degree-class decomposition the backend aggregates over.
    pub fn degree_classes(&self) -> &DegreeClasses {
        &self.classes
    }

    /// The number of degree classes `C` (1 for every certified family).
    pub fn num_classes(&self) -> usize {
        self.classes.num_classes()
    }

    /// The per-opinion counts of class `class`.
    pub fn class_counts(&self, class: usize) -> &[u64] {
        let k = self.num_opinions();
        &self.counts[class * k..(class + 1) * k]
    }

    /// The undecided count of class `class`.
    pub fn class_undecided(&self, class: usize) -> u64 {
        self.undecided[class]
    }

    /// Per-opinion population counts summed over all classes.
    pub fn opinion_counts(&self) -> Vec<u64> {
        let k = self.num_opinions();
        let mut totals = vec![0u64; k];
        for row in self.counts.chunks_exact(k) {
            for (t, &c) in totals.iter_mut().zip(row) {
                *t += c;
            }
        }
        totals
    }

    /// The total number of undecided agents.
    pub fn undecided(&self) -> u64 {
        self.undecided.iter().sum()
    }

    /// The current opinion distribution of the whole population.
    pub fn distribution(&self) -> OpinionDistribution {
        let counts: Vec<usize> = self.opinion_counts().iter().map(|&c| c as usize).collect();
        OpinionDistribution::from_counts(counts, self.undecided() as usize)
            .expect("k >= 2 by construction")
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
    pub fn tally(&self) -> &BlockPhaseTally {
        &self.tally
    }

    /// A mutable reference to the backend's RNG (for callers that want a
    /// single reproducible randomness source).
    pub fn rng_mut(&mut self) -> &mut StdRng {
        &mut self.rng
    }

    /// Resets every agent to undecided (keeping round/message counters and
    /// the live per-class populations — under population churn a class may
    /// hold more or fewer agents than its initial size).
    pub fn clear_opinions(&mut self) {
        let k = self.num_opinions();
        let live: Vec<u64> = self
            .counts
            .chunks_exact(k)
            .zip(&self.undecided)
            .map(|(row, &u)| row.iter().sum::<u64>() + u)
            .collect();
        self.counts.iter_mut().for_each(|c| *c = 0);
        self.undecided = live;
    }

    /// Seeds a plurality-consensus instance: `counts[i]` agents adopt
    /// opinion `i`, the rest become undecided. Each opinion's count is
    /// spread over the degree classes by deterministic largest-remainder
    /// proportional allocation over the remaining class capacities — the
    /// count-level stand-in for the agent backend's random placement
    /// (placement within a class is irrelevant by exchangeability; only
    /// the per-class composition matters, and it is pinned to its
    /// expectation). With `C = 1` this is exactly
    /// [`CountingNetwork::seed_counts`](crate::CountingNetwork::seed_counts).
    ///
    /// # Errors
    ///
    /// * [`SimError::OpinionOutOfRange`] if `counts.len() ≠ num_opinions()`.
    /// * [`SimError::TooManyInitialOpinions`] if the counts sum to more
    ///   than `num_nodes()`.
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
        let k = self.num_opinions();
        // Live per-class capacities (equal to the initial class sizes
        // except under population churn).
        let mut free: Vec<u64> = self
            .counts
            .chunks_exact(k)
            .zip(&self.undecided)
            .map(|(row, &u)| row.iter().sum::<u64>() + u)
            .collect();
        self.counts.iter_mut().for_each(|slot| *slot = 0);
        for (o, &count) in counts.iter().enumerate() {
            let shares = proportional_split(&free, count as u64);
            for (cls, &share) in shares.iter().enumerate() {
                self.counts[cls * k + o] += share;
                free[cls] -= share;
            }
        }
        self.undecided = free;
        Ok(())
    }

    /// Seeds a rumor-spreading instance: the agent at `source` adopts
    /// `opinion` (placing the rumor in `source`'s degree class), every
    /// other agent becomes undecided.
    ///
    /// # Errors
    ///
    /// [`SimError::NodeOutOfRange`] / [`SimError::OpinionOutOfRange`] if an
    /// index is out of range.
    pub fn seed_rumor_at(&mut self, source: usize, opinion: Opinion) -> Result<(), SimError> {
        if source >= self.num_nodes() {
            return Err(SimError::NodeOutOfRange {
                node: source,
                num_nodes: self.num_nodes(),
            });
        }
        if opinion.index() >= self.num_opinions() {
            return Err(SimError::OpinionOutOfRange {
                opinion: opinion.index(),
                num_opinions: self.num_opinions(),
            });
        }
        self.clear_opinions();
        let k = self.num_opinions();
        let cls = self.classes.class_of(source);
        self.counts[cls * k + opinion.index()] = 1;
        self.undecided[cls] -= 1;
        Ok(())
    }

    /// Starts a new phase.
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
    /// open — the block-level mirror of the counting backend's boundary:
    /// the scheduled-noise swap plus aggregate population churn. Because
    /// `SimConfig` validation pins population churn to the complete
    /// topology, churn always acts on a single degree class (`C = 1`).
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
        debug_assert_eq!(
            self.classes.num_classes(),
            1,
            "population churn is complete-topology-only, hence single-class"
        );
        let delta = c.spec.population_delta(self.population, boundary);
        if delta.leavers > 0 {
            let mut groups: Vec<u64> = self.counts.clone();
            groups.push(self.undecided[0]);
            let shares = proportional_split(&groups, delta.leavers as u64);
            for (live, &share) in self.counts.iter_mut().zip(&shares) {
                *live -= share;
            }
            self.undecided[0] -= shares[shares.len() - 1];
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

    /// Executes one synchronous round in which `senders[cls·k + i]` agents
    /// of class `cls` push opinion `i`: each non-empty block is scattered
    /// over destination classes with one multinomial draw from the cached
    /// class-to-class edge probabilities (`C = 1` skips the draw — the
    /// whole block stays in the single class, exactly like the counting
    /// backend's uniform bin). Silent classes (degree 0, possible under
    /// `er(p)`) never push.
    ///
    /// # Panics
    ///
    /// Panics if no phase is open, if `senders.len() ≠ C·k`, or if more
    /// agents push than exist.
    pub fn push_round_blocks(&mut self, senders: &[u64]) -> RoundReport {
        assert!(self.phase_open, "push_round_blocks called outside a phase");
        let c = self.num_classes();
        let k = self.num_opinions();
        assert_eq!(
            senders.len(),
            c * k,
            "senders matrix must have one entry per (class, opinion)"
        );
        let mut sent: u64 = 0;
        for (cls, row) in senders.chunks_exact(k).enumerate() {
            if self.classes.degree(cls) == 0 {
                continue;
            }
            let block_total: u64 = row.iter().sum();
            if block_total == 0 {
                continue;
            }
            sent += block_total;
            if c == 1 {
                for (p, &s) in self.pending.iter_mut().zip(row) {
                    *p += s;
                }
            } else {
                let probs = &self.dest_probs[cls * c..(cls + 1) * c];
                for (o, &pushers) in row.iter().enumerate() {
                    if pushers == 0 {
                        continue;
                    }
                    let destinations = multinomial(pushers, probs, &mut self.rng);
                    for (dest, &landed) in destinations.iter().enumerate() {
                        self.pending[dest * k + o] += landed;
                    }
                }
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
        self.push_round_blocks(&senders)
    }

    /// Finishes the open phase: applies the noise independently per class
    /// (one multinomial per (class, opinion) row — O(k²·C) draws) and
    /// returns the per-class tally.
    ///
    /// # Panics
    ///
    /// Panics if no phase is open.
    pub fn end_phase(&mut self) -> &BlockPhaseTally {
        assert!(self.phase_open, "end_phase called without an open phase");
        let k = self.num_opinions();
        // Live class populations (= the initial class sizes except under
        // population churn): counts only move at phase boundaries and via
        // decision operators, never mid-phase.
        let class_pops: Vec<usize> = self
            .counts
            .chunks_exact(k)
            .zip(&self.undecided)
            .map(|(row, &u)| (row.iter().sum::<u64>() + u) as usize)
            .collect();
        let class_tallies = self
            .pending
            .chunks_exact(k)
            .enumerate()
            .map(|(cls, row)| {
                let post_noise = self.noise.recolor_counts(row, &mut self.rng);
                PhaseTally::new(post_noise, class_pops[cls])
            })
            .collect();
        self.tally = BlockPhaseTally {
            classes: class_tallies,
            num_nodes: self.num_nodes(),
        };
        if let Some(t) = self.temporal.as_mut() {
            t.phases_completed += 1;
        }
        self.phase_open = false;
        &self.tally
    }

    /// Applies a per-class population update with the same balance
    /// assertions as
    /// [`CountingNetwork::apply_deltas`](crate::CountingNetwork::apply_deltas).
    fn apply_class_deltas(
        &mut self,
        class: usize,
        leavers: &[u64],
        joiners: &[u64],
        undecided_delta: i64,
    ) {
        let k = self.num_opinions();
        let left: u64 = leavers.iter().sum();
        let joined: u64 = joiners.iter().sum();
        assert_eq!(
            joined as i128 + undecided_delta as i128,
            left as i128,
            "class {class} population flows must balance: \
             {joined} joined + Δundecided {undecided_delta} ≠ {left} left"
        );
        let row = &mut self.counts[class * k..(class + 1) * k];
        for (c, &l) in row.iter_mut().zip(leavers) {
            assert!(*c >= l, "more agents leave an opinion than support it");
            *c -= l;
        }
        for (c, &j) in row.iter_mut().zip(joiners) {
            *c += j;
        }
        if undecided_delta >= 0 {
            self.undecided[class] += undecided_delta as u64;
        } else {
            let drop = (-undecided_delta) as u64;
            assert!(
                self.undecided[class] >= drop,
                "undecided pool of class {class} would go negative"
            );
            self.undecided[class] -= drop;
        }
    }

    /// Per-class uniform adoption (Stage 1 / voter model): the counting
    /// backend's rule, applied to each class against its own tally.
    pub(crate) fn resolve_uniform_adoption_per_class(
        &mut self,
        scope: crate::AdoptionScope,
        rng: &mut StdRng,
    ) {
        let k = self.num_opinions();
        for cls in 0..self.num_classes() {
            match scope {
                crate::AdoptionScope::UndecidedOnly => {
                    let (adoptions, _silent) =
                        sample_one_plan(self.tally.class_tally(cls), k, self.undecided[cls], rng);
                    let adopted: u64 = adoptions.iter().sum();
                    let leavers = vec![0u64; k];
                    self.apply_class_deltas(cls, &leavers, &adoptions, -(adopted as i64));
                }
                crate::AdoptionScope::AllAgents => {
                    let (leavers, joiners, undecided_delta) = uniform_adoption_all_plan(
                        self.class_counts(cls),
                        self.undecided[cls],
                        self.tally.class_tally(cls),
                        rng,
                    );
                    self.apply_class_deltas(cls, &leavers, &joiners, undecided_delta);
                }
            }
        }
    }

    /// Per-class sample majority (Stage 2 / h-majority).
    pub(crate) fn resolve_sample_majority_per_class(
        &mut self,
        sample_size: u64,
        rng: &mut StdRng,
    ) {
        for cls in 0..self.num_classes() {
            let (leavers, joiners, undecided_delta) = sample_majority_plan(
                self.class_counts(cls),
                self.undecided[cls],
                self.tally.class_tally(cls),
                sample_size,
                rng,
            );
            self.apply_class_deltas(cls, &leavers, &joiners, undecided_delta);
        }
    }

    /// Per-class undecided-state dynamics operator.
    pub(crate) fn resolve_undecided_state_per_class(&mut self, rng: &mut StdRng) {
        for cls in 0..self.num_classes() {
            let (leavers, joiners, undecided_delta) = undecided_state_plan(
                self.class_counts(cls),
                self.undecided[cls],
                self.tally.class_tally(cls),
                rng,
            );
            self.apply_class_deltas(cls, &leavers, &joiners, undecided_delta);
        }
    }

    /// Per-class median-rule operator.
    pub(crate) fn resolve_median_per_class(&mut self, rng: &mut StdRng) {
        for cls in 0..self.num_classes() {
            let (leavers, joiners, undecided_delta) = median_plan(
                self.class_counts(cls),
                self.undecided[cls],
                self.tally.class_tally(cls),
                rng,
            );
            self.apply_class_deltas(cls, &leavers, &joiners, undecided_delta);
        }
    }
}

/// Convenience: `true` if the spec belongs to the backend's certified set
/// (used by tests and diagnostics; the authoritative constant is
/// `<BlockCountingNetwork as PushBackend>::TOPOLOGY_CAPABILITY`).
pub fn is_certified_topology(spec: TopologySpec) -> bool {
    spec.is_vertex_transitive()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DeliverySemantics;
    use crate::counting::CountingNetwork;
    use crate::fault::FaultSpec;

    fn block_net(spec: TopologySpec, n: usize, k: usize, seed: u64) -> BlockCountingNetwork {
        let noise = NoiseMatrix::uniform(k, 0.2).unwrap();
        let config = SimConfig::builder(n, k)
            .seed(seed)
            .topology(spec)
            .delivery(if spec.is_vertex_transitive() && !spec.is_complete() {
                DeliverySemantics::Poissonized
            } else {
                DeliverySemantics::Exact
            })
            .build()
            .unwrap();
        BlockCountingNetwork::new(config, noise).unwrap()
    }

    #[test]
    fn single_class_phase_matches_the_counting_backend_bit_for_bit() {
        // On any C = 1 family the block backend's delivery RNG stream is
        // identical to CountingNetwork's on the complete graph: same seed,
        // same pending totals, same recolor call.
        let n = 1_000;
        let seed = 42;
        let mut block = block_net(TopologySpec::Ring, n, 3, seed);
        let noise = NoiseMatrix::uniform(3, 0.2).unwrap();
        let config = SimConfig::builder(n, 3)
            .seed(seed)
            .delivery(DeliverySemantics::Poissonized)
            .build()
            .unwrap();
        let mut counting = CountingNetwork::new(config, noise).unwrap();
        block.seed_counts(&[500, 300, 100]).unwrap();
        counting.seed_counts(&[500, 300, 100]).unwrap();
        for _ in 0..3 {
            block.begin_phase();
            counting.begin_phase();
            for _ in 0..4 {
                let a = block.push_round_all_opinionated();
                let b = counting.push_round_all_opinionated();
                assert_eq!(a.messages_sent(), b.messages_sent());
            }
            let block_tally = block.end_phase().clone();
            let counting_tally = counting.end_phase().clone();
            assert_eq!(block_tally.num_classes(), 1);
            assert_eq!(
                block_tally.class_tally(0).post_noise(),
                counting_tally.post_noise(),
                "identical RNG stream ⇒ identical post-noise tallies"
            );
            // Decision operators from a cloned RNG produce identical
            // population updates.
            let mut rng_a = StdRng::seed_from_u64(7);
            let mut rng_b = rng_a.clone();
            block.resolve_sample_majority_per_class(5, &mut rng_a);
            counting.apply_sample_majority_with(5, &mut rng_b);
            assert_eq!(block.opinion_counts(), counting.counts());
            assert_eq!(block.undecided(), counting.undecided());
        }
    }

    #[test]
    fn phase_conserves_messages_across_classes() {
        let mut net = block_net(TopologySpec::ErdosRenyi { p: 0.01 }, 2_000, 3, 9);
        assert!(net.num_classes() > 1, "er(p) buckets by degree");
        net.seed_counts(&[800, 600, 400]).unwrap();
        // Silent (degree-0) nodes, if any, cannot push; everyone else does.
        let silent: u64 = (0..net.num_classes())
            .filter(|&c| net.degree_classes().degree(c) == 0)
            .map(|c| {
                net.class_counts(c).iter().sum::<u64>()
            })
            .sum();
        net.begin_phase();
        let report = net.push_round_all_opinionated();
        assert_eq!(report.messages_sent(), 1_800 - silent);
        let tally = net.end_phase().clone();
        assert_eq!(tally.total(), 1_800 - silent, "noise re-colors but conserves");
        let totals = tally.received_totals();
        assert_eq!(totals.iter().sum::<u64>(), 1_800 - silent);
        // Silent classes receive nothing.
        for cls in 0..net.num_classes() {
            if net.degree_classes().degree(cls) == 0 {
                assert_eq!(tally.class_tally(cls).total(), 0);
            }
        }
    }

    #[test]
    fn seeding_spreads_proportionally_and_round_trips() {
        let mut net = block_net(TopologySpec::ErdosRenyi { p: 0.05 }, 500, 2, 11);
        net.seed_counts(&[200, 100]).unwrap();
        assert_eq!(net.opinion_counts(), vec![200, 100]);
        assert_eq!(net.undecided(), 200);
        let dist = net.distribution();
        assert_eq!(dist.counts(), &[200, 100]);
        assert_eq!(dist.num_nodes(), 500);
        // Per-class populations stay intact.
        for cls in 0..net.num_classes() {
            let used: u64 = net.class_counts(cls).iter().sum::<u64>() + net.class_undecided(cls);
            assert_eq!(used, net.degree_classes().size(cls));
        }
        assert!(net.seed_counts(&[600, 0]).is_err());
        assert!(net.seed_counts(&[1, 1, 1]).is_err());
        net.clear_opinions();
        assert_eq!(net.undecided(), 500);
    }

    #[test]
    fn seed_rumor_lands_in_the_source_class() {
        let mut net = block_net(TopologySpec::ErdosRenyi { p: 0.05 }, 500, 3, 13);
        net.seed_rumor_at(123, Opinion::new(2)).unwrap();
        let cls = net.degree_classes().class_of(123);
        assert_eq!(net.class_counts(cls)[2], 1);
        assert_eq!(net.opinion_counts(), vec![0, 0, 1]);
        assert!(net.seed_rumor_at(500, Opinion::new(0)).is_err());
        assert!(net.seed_rumor_at(0, Opinion::new(3)).is_err());
    }

    #[test]
    fn faults_are_rejected_wholesale() {
        let noise = NoiseMatrix::uniform(2, 0.2).unwrap();
        let config = SimConfig::builder(100, 2)
            .seed(1)
            .fault(FaultSpec {
                drop: 0.1,
                ..FaultSpec::none()
            })
            .build()
            .unwrap();
        assert!(matches!(
            BlockCountingNetwork::new(config, noise),
            Err(SimError::UnsupportedFault { .. })
        ));
    }

    #[test]
    fn mixture_moments_reduce_to_poisson_for_a_single_class() {
        let mut net = block_net(TopologySpec::RandomRegular { degree: 8 }, 1_000, 3, 17);
        net.seed_counts(&[400, 300, 200]).unwrap();
        net.begin_phase();
        net.push_round_all_opinionated();
        let tally = net.end_phase();
        let lambda = tally.mean_inbox();
        assert!((lambda - 0.9).abs() < 1e-12);
        assert!((tally.received_variance() - lambda).abs() < 1e-12);
        assert!((tally.fraction_with_messages() - (1.0 - (-lambda).exp())).abs() < 1e-12);
        assert!(tally.typical_max_inbox() > 0);
    }
}
