//! The count-level backend: process P over (degree class, opinion)
//! population counts, O(k²·C) per phase.
//!
//! Agents in the noisy uniform push model are anonymous — the paper's own
//! analysis never tracks individuals, it works on opinion *counts* (the
//! Poissonized process P of Definition 4 is defined purely in terms of the
//! post-noise totals `h_i`). On the complete graph every agent is
//! exchangeable with every other, so the population collapses to one
//! opinion-count vector. On a sparse graph that global symmetry is gone —
//! but on a **degree-homogeneous** family (ring, torus, `regular(d)`; see
//! [`TopologySpec::is_vertex_transitive`](crate::TopologySpec::is_vertex_transitive))
//! agents within a *degree class* are still exchangeable at the population
//! level: a uniform-neighbor push from a class-`c` node lands in class `c'`
//! with probability `E[c][c'] / (n_c · d_c)`, a function of the
//! class-to-class directed edge counts alone (see [`DegreeClasses`]).
//!
//! [`CountLevelNetwork`] exploits that: state is a `C×k` matrix of
//! (degree class, opinion) counts plus a per-class undecided count, a push
//! round draws one destination-class multinomial per non-empty block, and
//! [`end_phase`](PushBackend::end_phase) applies the noise as one
//! multinomial per (class, opinion) row — **O(k²·C) random draws per
//! phase** regardless of `n`, so `n = 10⁷` or `10⁸` runs in the time the
//! agent-level backend needs for `n = 10⁴`. The complete graph and every
//! certified sparse family have a single class, `C = 1`.
//!
//! One network serves two backends, which differ only in the row of the
//! admission table their constructor checks:
//!
//! * [`CountingNetwork`] — the [`COUNTING`](crate::admission::COUNTING)
//!   row: the complete graph, with the aggregatable faults.
//! * [`BlockCountingNetwork`] — the
//!   [`BLOCK_COUNTING`](crate::admission::BLOCK_COUNTING) row: every
//!   topology family, without faults.
//!
//! ## Semantics
//!
//! The network always runs the **Poissonized** process P at phase
//! granularity (the paper's Claim 1 + Lemma 3 transfer w.h.p. phase
//! behaviour between processes, and `pushsim/tests/equivalence.rs` checks
//! the agreement empirically against the agent-level backend), localized
//! per class: during a phase each class-`c` agent's inbox is an independent
//! Poisson vector with means `h_j^{(c)} / n_c`, where `h^{(c)}` is the
//! class's post-noise tally. All decision operators are the count-level
//! rules of [`counting`](crate::counting), applied once per class against
//! that class's own tally.
//!
//! ## Certified vs accepted topologies
//!
//! The block-counting backend's certified set is
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
//! ## Faults
//!
//! The model pins faults to the complete graph, so they act on its single
//! degree class the way population churn does: `drop` and `dup` thin and
//! inflate the post-noise tally binomially, and Byzantine and crashed
//! agents are carved out of the live population into frozen per-opinion
//! pools, all from a dedicated fault RNG. `delay` needs per-message
//! identity across the phase boundary and has no count-level form. Which
//! name admits which family is its row of the admission table: the
//! `COUNTING` row admits the aggregatable families, the `BLOCK_COUNTING`
//! row admits none.

use crate::admission::{self, ExecutionBackend};
use crate::backend::{AdoptionScope, PushBackend};
use crate::config::SimConfig;
use crate::counting::{
    median_plan, proportional_split, sample_majority_plan, sample_one_plan, undecided_state_plan,
    uniform_adoption_all_plan, PhaseTally,
};
use crate::distribution::OpinionDistribution;
use crate::error::SimError;
use crate::fault::FaultSpec;
use crate::network::{
    membership_count, ChurnState, RoundReport, ScheduledNoise, FAULT_SEED_SALT, TOPOLOGY_SEED_SALT,
};
use crate::opinion::Opinion;
use crate::topology::DegreeClasses;
use noisy_channel::sampling::{binomial, multinomial};
use noisy_channel::NoiseMatrix;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Aggregate result of one finished phase of a [`CountLevelNetwork`]:
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

/// The count-based backend: a [`CountLevelNetwork`] admitted against the
/// [`COUNTING`](admission::COUNTING) row — the complete graph, one degree
/// class, so a phase costs O(k²) random draws (one multinomial per
/// noise-matrix row) regardless of `n`.
pub type CountingNetwork = CountLevelNetwork<false>;

/// The degree-class block-counting backend: a [`CountLevelNetwork`]
/// admitted against the [`BLOCK_COUNTING`](admission::BLOCK_COUNTING) row
/// — sparse topologies in O(k²·C) per phase.
pub type BlockCountingNetwork = CountLevelNetwork<true>;

/// The fault state of a count-level network: the spec, its dedicated RNG
/// and the frozen pools. A pool is a per-opinion count vector followed by
/// an undecided count, carved out of the live population of class 0 — the
/// only class, since the model pins faults to the complete graph.
#[derive(Debug, Clone)]
struct FaultPools {
    spec: FaultSpec,
    rng: StdRng,
    /// Carved at seeding: these agents hold their seeded opinion forever
    /// and push the fixed Byzantine opinion every round.
    byzantine: Vec<u64>,
    /// Carved once the crash phase has fully ended, with the opinions the
    /// crashed agents held; all zeros until then.
    crashed: Vec<u64>,
    crash_carved: bool,
}

impl FaultPools {
    /// Applies `drop` and `dup` to one class's post-noise totals: binomial
    /// thinning, then binomial inflation of the survivors.
    fn thin(&mut self, post_noise: &mut [u64]) {
        if self.spec.drop > 0.0 || self.spec.duplicate > 0.0 {
            for h in post_noise {
                let survivors = *h - binomial(*h, self.spec.drop, &mut self.rng);
                *h = survivors + binomial(survivors, self.spec.duplicate, &mut self.rng);
            }
        }
    }
}

/// A synchronous network represented purely by per-(degree class, opinion)
/// population counts, admitted against the
/// [`BLOCK_COUNTING`](admission::BLOCK_COUNTING) row when `BLOCK` is set
/// and the [`COUNTING`](admission::COUNTING) row otherwise.
/// Use it through its two names, [`CountingNetwork`] and
/// [`BlockCountingNetwork`], and drive it through [`PushBackend`].
///
/// See the [module documentation](self) for semantics, the certified vs
/// accepted topology boundary and the fault pools.
#[derive(Debug, Clone)]
pub struct CountLevelNetwork<const BLOCK: bool> {
    config: SimConfig,
    noise: NoiseMatrix,
    classes: DegreeClasses,
    /// `C×k` row-major live opinion counts per class.
    counts: Vec<u64>,
    /// Per-class live undecided counts.
    undecided: Vec<u64>,
    /// `C×C` row-major cached destination-class probabilities.
    dest_probs: Vec<f64>,
    rng: StdRng,
    /// `C×k` row-major pre-noise pending counts, bucketed by
    /// **destination** class.
    pending: Vec<u64>,
    /// Fault pools; `None` when the config's [`FaultSpec`] is all-disabled,
    /// in which case no fault code path is entered and no fault RNG is
    /// seeded.
    faults: Option<FaultPools>,
    /// Population churn; `None` when disabled, so churn-free runs never
    /// seed or touch the churn RNG.
    churn: Option<ChurnState>,
    /// The noise schedule; `None` when ε is constant.
    schedule: Option<ScheduledNoise>,
    /// How many phases have fully ended; boundary `b` (preceding phase
    /// `b`) is applied when this equals `b` at `begin_phase`.
    phases_completed: u64,
    /// The live population: `config.num_nodes()` except under population
    /// churn, which moves it deterministically at phase boundaries.
    population: usize,
    tally: BlockPhaseTally,
    phase_open: bool,
    rounds_executed: u64,
    messages_sent: u64,
}

impl<const BLOCK: bool> CountLevelNetwork<BLOCK> {
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
    /// * The [`admission`] error if the capabilities of the network's row
    ///   do not cover the configuration.
    /// * [`SimError::InvalidTopology`] if the topology parameters are
    ///   infeasible (propagated from [`DegreeClasses::build`]).
    pub fn new(config: SimConfig, noise: NoiseMatrix) -> Result<Self, SimError> {
        let backend = if BLOCK {
            ExecutionBackend::BlockCounting
        } else {
            ExecutionBackend::Counting
        };
        admission::check_construction(&config, &noise, backend)?;
        let mut topology_rng = StdRng::seed_from_u64(config.seed() ^ TOPOLOGY_SEED_SALT);
        let classes =
            DegreeClasses::build(config.topology(), config.num_nodes(), &mut topology_rng)?;
        let c = classes.num_classes();
        let k = config.num_opinions();
        let faults = (!config.fault().is_none()).then(|| FaultPools {
            spec: config.fault(),
            rng: StdRng::seed_from_u64(config.seed() ^ FAULT_SEED_SALT),
            byzantine: vec![0; k + 1],
            crashed: vec![0; k + 1],
            crash_carved: false,
        });
        Ok(Self {
            rng: StdRng::seed_from_u64(config.seed()),
            counts: vec![0; c * k],
            undecided: (0..c).map(|cls| classes.size(cls)).collect(),
            dest_probs: (0..c)
                .flat_map(|from| classes.destination_probabilities(from))
                .collect(),
            pending: vec![0; c * k],
            faults,
            churn: ChurnState::build(config.churn(), config.seed()),
            schedule: ScheduledNoise::build(config.schedule(), &noise),
            phases_completed: 0,
            population: config.num_nodes(),
            tally: BlockPhaseTally::empty(&classes, k),
            phase_open: false,
            rounds_executed: 0,
            messages_sent: 0,
            classes,
            config,
            noise,
        })
    }

    /// The degree-class decomposition the network aggregates over.
    pub fn degree_classes(&self) -> &DegreeClasses {
        &self.classes
    }

    /// The number of degree classes `C` (1 on the complete graph and every
    /// certified family).
    pub fn num_classes(&self) -> usize {
        self.classes.num_classes()
    }

    /// The per-opinion live counts of class `class`.
    pub fn class_counts(&self, class: usize) -> &[u64] {
        let k = self.config.num_opinions();
        &self.counts[class * k..(class + 1) * k]
    }

    /// The live undecided count of class `class`.
    pub fn class_undecided(&self, class: usize) -> u64 {
        self.undecided[class]
    }

    /// Per-opinion counts of the **live** agents, summed over all classes —
    /// Byzantine and crashed agents sit in frozen pools excluded from these
    /// counts (decision operators only move live agents); use
    /// [`distribution`](PushBackend::distribution) for the whole
    /// population.
    pub fn opinion_counts(&self) -> Vec<u64> {
        let k = self.config.num_opinions();
        let mut totals = vec![0u64; k];
        for row in self.counts.chunks_exact(k) {
            for (t, &c) in totals.iter_mut().zip(row) {
                *t += c;
            }
        }
        totals
    }

    /// The number of live undecided agents (see
    /// [`opinion_counts`](Self::opinion_counts)).
    pub fn undecided(&self) -> u64 {
        self.undecided.iter().sum()
    }

    /// Every class's population: its live agents plus, in class 0, the
    /// frozen fault pools.
    fn class_sizes(&self) -> Vec<u64> {
        let k = self.config.num_opinions();
        let mut sizes: Vec<u64> = self
            .counts
            .chunks_exact(k)
            .zip(&self.undecided)
            .map(|(row, &u)| row.iter().sum::<u64>() + u)
            .collect();
        if let Some(f) = &self.faults {
            sizes[0] += f.byzantine.iter().chain(&f.crashed).sum::<u64>();
        }
        sizes
    }

    /// Zeroes the fault pools ahead of a wholesale repopulation of the
    /// live counts.
    fn reset_fault_pools(&mut self) {
        if let Some(f) = self.faults.as_mut() {
            f.byzantine.fill(0);
            f.crashed.fill(0);
            f.crash_carved = false;
        }
    }

    /// Carves the Byzantine pool out of the freshly seeded population,
    /// matching the agent backend's uniform membership draw in
    /// expectation.
    fn carve_byzantine(&mut self) {
        let Some(f) = self.faults.as_mut() else {
            return;
        };
        let Some(byz) = f.spec.byzantine else {
            return;
        };
        let count = membership_count(byz.fraction, self.config.num_nodes()) as u64;
        let k = self.config.num_opinions();
        f.byzantine = remove_proportionally(&mut self.counts[..k], &mut self.undecided[0], count);
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
        if f.crash_carved || self.phases_completed <= crash.after_phase {
            return;
        }
        let k = self.config.num_opinions();
        let live = self.counts[..k].iter().sum::<u64>() + self.undecided[0];
        let count = (membership_count(crash.fraction, self.config.num_nodes()) as u64).min(live);
        f.crashed = remove_proportionally(&mut self.counts[..k], &mut self.undecided[0], count);
        f.crash_carved = true;
    }

    /// Applies the temporal phase boundary preceding the phase about to
    /// open: the scheduled-noise swap plus population churn. Churn
    /// magnitudes are deterministic
    /// ([`ChurnSpec::population_delta`](crate::ChurnSpec::population_delta));
    /// the leavers are a proportional share of every population group and
    /// the joiners' opinions come from the churn RNG (a uniform multinomial
    /// split, or the fixed adversarial opinion). `SimConfig` validation
    /// pins population churn to the complete topology, a single class.
    fn apply_phase_boundary(&mut self) {
        let boundary = self.phases_completed;
        let k = self.config.num_opinions();
        if let Some(s) = &self.schedule {
            self.noise = s.matrix_for(boundary, k);
        }
        let Some(churn) = self.churn.as_mut() else {
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
        let delta = churn.spec.population_delta(self.population, boundary);
        remove_proportionally(
            &mut self.counts[..k],
            &mut self.undecided[0],
            delta.leavers as u64,
        );
        if delta.joiners > 0 {
            match churn.spec.join_opinion {
                Some(opinion) => self.counts[opinion] += delta.joiners as u64,
                None => {
                    let split = multinomial(delta.joiners as u64, &vec![1.0; k], &mut churn.rng);
                    for (count, j) in self.counts.iter_mut().zip(split) {
                        *count += j;
                    }
                }
            }
        }
        self.population = self.population - delta.leavers + delta.joiners;
    }

    /// Executes one synchronous round in which `senders[cls·k + i]` live
    /// agents of class `cls` push opinion `i`: each non-empty block is
    /// scattered over destination classes with one multinomial draw from
    /// the cached class-to-class edge probabilities (`C = 1` skips the
    /// draw — the whole block stays in the single class). Silent classes
    /// (degree 0, possible under `er(p)`) never push. Under a Byzantine
    /// fault the whole Byzantine pool also pushes its fixed opinion
    /// (included in the report's message count).
    ///
    /// # Panics
    ///
    /// Panics if no phase is open, if `senders.len() ≠ C·k`, or if more
    /// agents push than exist.
    pub fn push_round_blocks(&mut self, senders: &[u64]) -> RoundReport {
        assert!(self.phase_open, "push_round_blocks called outside a phase");
        let c = self.num_classes();
        let k = self.config.num_opinions();
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
        if let Some(f) = &self.faults {
            if let Some(byz) = f.spec.byzantine {
                let pool: u64 = f.byzantine.iter().sum();
                self.pending[byz.opinion] += pool;
                sent += pool;
            }
        }
        assert!(
            sent <= self.population as u64,
            "{sent} senders exceed the {}-agent population",
            self.population
        );
        self.messages_sent += sent;
        self.rounds_executed += 1;
        RoundReport::new(self.rounds_executed - 1, sent)
    }

    /// Applies a per-class population update: `leavers[i]` agents of class
    /// `class` abandon opinion `i`, `joiners[i]` adopt it, and
    /// `undecided_delta` adjusts the class's undecided pool.
    ///
    /// # Panics
    ///
    /// Panics if any group would go negative or the flows do not balance.
    pub(crate) fn apply_class_deltas(
        &mut self,
        class: usize,
        leavers: &[u64],
        joiners: &[u64],
        undecided_delta: i64,
    ) {
        let k = self.config.num_opinions();
        assert_eq!(leavers.len(), k);
        assert_eq!(joiners.len(), k);
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

    /// Applies one count-level decision rule — a plan over a class's live
    /// counts, undecided count and tally, returning `(leavers, joiners,
    /// undecided_delta)` — to every class in turn.
    fn resolve_per_class(
        &mut self,
        mut plan: impl FnMut(&[u64], u64, &PhaseTally) -> (Vec<u64>, Vec<u64>, i64),
    ) {
        for cls in 0..self.num_classes() {
            let (leavers, joiners, undecided_delta) = plan(
                self.class_counts(cls),
                self.undecided[cls],
                self.tally.class_tally(cls),
            );
            self.apply_class_deltas(cls, &leavers, &joiners, undecided_delta);
        }
    }
}

impl<const BLOCK: bool> PushBackend for CountLevelNetwork<BLOCK> {
    type Observation = BlockPhaseTally;

    fn config(&self) -> &SimConfig {
        &self.config
    }

    fn noise(&self) -> &NoiseMatrix {
        &self.noise
    }

    /// The **live** population: `config().num_nodes()` except under
    /// population churn, where joins and departures at phase boundaries
    /// move it away from the initial size (deterministically; see
    /// [`ChurnSpec::population_after`](crate::ChurnSpec::population_after)).
    fn num_nodes(&self) -> usize {
        self.population
    }

    /// The whole population, frozen fault pools included (Byzantine and
    /// crashed agents count with the opinion they froze with, mirroring
    /// the agent-level backend).
    fn distribution(&self) -> OpinionDistribution {
        let mut groups = self.opinion_counts();
        groups.push(self.undecided());
        if let Some(f) = &self.faults {
            for ((g, b), c) in groups.iter_mut().zip(&f.byzantine).zip(&f.crashed) {
                *g += b + c;
            }
        }
        let undecided = groups.pop().unwrap_or(0) as usize;
        let counts = groups.into_iter().map(|c| c as usize).collect();
        OpinionDistribution::from_counts(counts, undecided).expect("k >= 2 by construction")
    }

    /// Resets every agent to undecided, keeping the round/message counters
    /// and the per-class populations (under population churn a class may
    /// hold more or fewer agents than its initial size). Under faults this
    /// dissolves the frozen pools; they are carved again at the next
    /// seeding.
    fn clear_opinions(&mut self) {
        self.undecided = self.class_sizes();
        self.counts.fill(0);
        self.reset_fault_pools();
    }

    /// Each opinion's count is spread over the degree classes by
    /// deterministic largest-remainder proportional allocation over the
    /// remaining class capacities — the count-level stand-in for the agent
    /// backend's random placement (placement within a class is irrelevant
    /// by exchangeability; only the per-class composition matters, and it
    /// is pinned to its expectation). Then the Byzantine pool is carved.
    fn seed_counts(&mut self, counts: &[usize]) -> Result<(), SimError> {
        let k = self.config.num_opinions();
        if counts.len() != k {
            return Err(SimError::OpinionOutOfRange {
                opinion: counts.len(),
                num_opinions: k,
            });
        }
        let total: usize = counts.iter().sum();
        if total > self.population {
            return Err(SimError::TooManyInitialOpinions {
                requested: total,
                num_nodes: self.population,
            });
        }
        let mut free = self.class_sizes();
        self.reset_fault_pools();
        self.counts.fill(0);
        for (o, &count) in counts.iter().enumerate() {
            let shares = proportional_split(&free, count as u64);
            for (cls, &share) in shares.iter().enumerate() {
                self.counts[cls * k + o] += share;
                free[cls] -= share;
            }
        }
        self.undecided = free;
        self.carve_byzantine();
        Ok(())
    }

    /// Places the rumor in `source`'s degree class, then carves the
    /// Byzantine pool.
    fn seed_rumor_at(&mut self, source: usize, opinion: Opinion) -> Result<(), SimError> {
        if source >= self.population {
            return Err(SimError::NodeOutOfRange {
                node: source,
                num_nodes: self.population,
            });
        }
        let k = self.config.num_opinions();
        if opinion.index() >= k {
            return Err(SimError::OpinionOutOfRange {
                opinion: opinion.index(),
                num_opinions: k,
            });
        }
        self.clear_opinions();
        // Population churn, which can move `source` past the initial size,
        // runs on the complete graph only: a single class.
        let cls = if self.num_classes() == 1 {
            0
        } else {
            self.classes.class_of(source)
        };
        self.counts[cls * k + opinion.index()] = 1;
        self.undecided[cls] -= 1;
        self.carve_byzantine();
        Ok(())
    }

    /// Starts a new phase, applying the pending temporal phase boundary
    /// (a no-op when every temporal axis is off).
    fn begin_phase(&mut self) {
        assert!(!self.phase_open, "begin_phase called while a phase is open");
        self.apply_phase_boundary();
        self.pending.fill(0);
        self.phase_open = true;
    }

    fn push_opinionated_round(&mut self) -> RoundReport {
        let senders = self.counts.clone();
        self.push_round_blocks(&senders)
    }

    /// Applies the noise independently per class (one multinomial per
    /// (class, opinion) row — O(k²·C) draws), then `drop` and `dup`, and
    /// carves the crashed pool the first time the crash phase has fully
    /// ended.
    fn end_phase(&mut self) -> &BlockPhaseTally {
        assert!(self.phase_open, "end_phase called without an open phase");
        let k = self.config.num_opinions();
        // Counts only move at phase boundaries and via decision operators,
        // never mid-phase.
        let sizes = self.class_sizes();
        let mut classes = Vec::with_capacity(sizes.len());
        for (row, &size) in self.pending.chunks_exact(k).zip(&sizes) {
            let mut post_noise = self.noise.recolor_counts(row, &mut self.rng);
            if let Some(f) = self.faults.as_mut() {
                f.thin(&mut post_noise);
            }
            classes.push(PhaseTally::new(post_noise, size as usize));
        }
        self.tally = BlockPhaseTally {
            classes,
            num_nodes: self.population,
        };
        self.phases_completed += 1;
        self.phase_open = false;
        self.carve_crashed();
        &self.tally
    }

    fn observation(&self) -> &BlockPhaseTally {
        &self.tally
    }

    fn rounds_executed(&self) -> u64 {
        self.rounds_executed
    }

    fn messages_sent(&self) -> u64 {
        self.messages_sent
    }

    fn rng_mut(&mut self) -> &mut StdRng {
        &mut self.rng
    }

    fn resolve_uniform_adoption(&mut self, scope: AdoptionScope, rng: &mut StdRng) {
        let k = self.config.num_opinions();
        match scope {
            AdoptionScope::UndecidedOnly => self.resolve_per_class(|_, undecided, tally| {
                let (adoptions, _silent) = sample_one_plan(tally, k, undecided, rng);
                let adopted: u64 = adoptions.iter().sum();
                (vec![0; k], adoptions, -(adopted as i64))
            }),
            AdoptionScope::AllAgents => self.resolve_per_class(|counts, undecided, tally| {
                uniform_adoption_all_plan(counts, undecided, tally, rng)
            }),
        }
    }

    fn resolve_sample_majority(&mut self, sample_size: u64, rng: &mut StdRng) {
        self.resolve_per_class(|counts, undecided, tally| {
            sample_majority_plan(counts, undecided, tally, sample_size, rng)
        });
    }

    fn resolve_undecided_state(&mut self, rng: &mut StdRng) {
        self.resolve_per_class(|counts, undecided, tally| {
            undecided_state_plan(counts, undecided, tally, rng)
        });
    }

    /// Count-level median rule (see `median_plan` in the counting module
    /// for the mean-field approximation it documents).
    fn resolve_median(&mut self, rng: &mut StdRng) {
        self.resolve_per_class(|counts, undecided, tally| {
            median_plan(counts, undecided, tally, rng)
        });
    }
}

/// Removes `draw` agents from one class's live population — its opinion
/// groups `live` and its `undecided` pool — and returns how many left each
/// group, the undecided pool last. The shares are the largest-remainder
/// proportional split: the count-level stand-in for a uniform draw without
/// replacement, pinned to its expectation. Churn's leavers and the fault
/// pools are drawn this way; both run on the complete graph only, a single
/// class.
fn remove_proportionally(live: &mut [u64], undecided: &mut u64, draw: u64) -> Vec<u64> {
    let mut groups = live.to_vec();
    groups.push(*undecided);
    let shares = proportional_split(&groups, draw);
    for (count, &share) in live.iter_mut().zip(&shares) {
        *count -= share;
    }
    *undecided -= shares[live.len()];
    shares
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DeliverySemantics;
    use crate::topology::TopologySpec;

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
                let a = block.push_opinionated_round();
                let b = counting.push_opinionated_round();
                assert_eq!(a.messages_sent(), b.messages_sent());
            }
            let block_tally = block.end_phase().clone();
            let counting_tally = counting.end_phase().clone();
            assert_eq!(block_tally.num_classes(), 1);
            assert_eq!(
                block_tally.class_tally(0).post_noise(),
                counting_tally.class_tally(0).post_noise(),
                "identical RNG stream ⇒ identical post-noise tallies"
            );
            // Decision operators from a cloned RNG produce identical
            // population updates.
            let mut rng_a = StdRng::seed_from_u64(7);
            let mut rng_b = rng_a.clone();
            block.resolve_sample_majority(5, &mut rng_a);
            counting.resolve_sample_majority(5, &mut rng_b);
            assert_eq!(block.opinion_counts(), counting.opinion_counts());
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
            .map(|c| net.class_counts(c).iter().sum::<u64>())
            .sum();
        net.begin_phase();
        let report = net.push_opinionated_round();
        assert_eq!(report.messages_sent(), 1_800 - silent);
        let tally = net.end_phase().clone();
        assert_eq!(
            tally.total(),
            1_800 - silent,
            "noise re-colors but conserves"
        );
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
                ..FaultSpec::default()
            })
            .build()
            .unwrap();
        // The BLOCK_COUNTING row admits no fault; the COUNTING row admits
        // the same configuration on the same network.
        assert!(matches!(
            BlockCountingNetwork::new(config.clone(), noise.clone()),
            Err(SimError::UnsupportedFault { .. })
        ));
        assert!(CountingNetwork::new(config, noise).is_ok());
    }

    #[test]
    fn mixture_moments_reduce_to_poisson_for_a_single_class() {
        let mut net = block_net(TopologySpec::RandomRegular { degree: 8 }, 1_000, 3, 17);
        net.seed_counts(&[400, 300, 200]).unwrap();
        net.begin_phase();
        net.push_opinionated_round();
        let tally = net.end_phase();
        let lambda = tally.mean_inbox();
        assert!((lambda - 0.9).abs() < 1e-12);
        assert!((tally.received_variance() - lambda).abs() < 1e-12);
        assert!((tally.fraction_with_messages() - (1.0 - (-lambda).exp())).abs() < 1e-12);
        assert!(tally.typical_max_inbox() > 0);
    }
}
