//! Temporal dynamics for the push model: population/edge churn, noise
//! schedules, and clock-skew asynchrony.
//!
//! The paper's world is static — a fixed population `n`, a fixed
//! communication graph, a constant channel parameter ε, and lockstep
//! synchronous rounds. This module makes each of those assumptions a
//! perturbable *axis*, described declaratively like
//! [`FaultSpec`](crate::FaultSpec) and applied inside the phase
//! lifecycle:
//!
//! * [`ChurnSpec`] — **population churn** (`join(r)`, `leave(r)`,
//!   `burst(f@p)`: agents arrive and depart at phase boundaries) and
//!   **edge churn** (`rewire(p)`: the randomized sparse graph is
//!   resampled at phase boundaries).
//! * [`NoiseSchedule`] — a time-varying channel `ε(t)` (`const`,
//!   `step(e@s)`, `burst(e@s:w)`, `ramp(e0:e1@p)`), swapping the uniform
//!   noise matrix per phase.
//! * [`ClockSpec`] — per-agent clock drift or skew (`sync`,
//!   `drift(ppm)`, `skew(p)`) producing asynchronous-round
//!   interleavings: an activation schedule decides which agents push
//!   each tick.
//!
//! Each axis has a canonical textual form that round-trips through
//! `Display`/[`FromStr`] (both through the one grammar of spec values,
//! [`noisy_channel::text`]) and is the spelling scenario spec files use
//! (`churn = join(0.02)+leave(0.05)`, `schedule = burst(0.05@3:2)`,
//! `clock = drift(200000)`).
//!
//! ## Determinism and the feature-off guarantee
//!
//! All churn and clock randomness is drawn from **dedicated seed-derived
//! RNGs** (`CHURN_SEED_SALT`, `CLOCK_SEED_SALT`); noise schedules are
//! deterministic functions of the phase index. The disabled values —
//! `churn = none`, `schedule = const`, `clock = sync` — are guaranteed
//! not to perturb any RNG stream of the simulation: a temporal-off run is
//! bit-for-bit the pre-temporal simulator, which keeps every fixed-seed
//! fixture in the workspace valid.
//!
//! Churn *magnitudes* are deterministic (the number of joiners and
//! leavers at a boundary is a pure function of the pre-boundary
//! population, see [`ChurnSpec::population_delta`]); only the
//! *composition* (which agents leave, which opinions joiners adopt) is
//! random. This makes the population trajectory exactly predictable —
//! the count-conservation oracle of the analysis layer checks it per
//! phase via [`ChurnSpec::population_after`].
//!
//! ## Support boundaries
//!
//! Which backend simulates which temporal feature, and how the features
//! compose with topologies, delivery and faults, are rules of the
//! [`admission`](crate::admission) module.

use crate::error::SimError;
use noisy_channel::text::{Form, Grammar};
use std::fmt;
use std::str::FromStr;

/// Salt folded into the simulation seed to derive the churn RNG stream
/// (`seed ^ CHURN_SEED_SALT`), keeping it independent of the push,
/// topology and fault streams.
pub(crate) const CHURN_SEED_SALT: u64 = 0xC4E0_5EED_CA0B_71ED;

/// Salt folded into the simulation seed to derive the clock RNG stream
/// (`seed ^ CLOCK_SEED_SALT`).
pub(crate) const CLOCK_SEED_SALT: u64 = 0xC10C_05EE_DD21_F7AD;

/// A departure burst: a fraction of the population leaves at once at a
/// scheduled phase boundary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurstChurn {
    /// The fraction of the population that departs, in `(0, 1)`.
    pub fraction: f64,
    /// The 0-based phase index *after* which the burst fires: the
    /// departure happens at the boundary between phases `after_phase`
    /// and `after_phase + 1`.
    pub after_phase: u64,
}

/// The deterministic churn magnitudes applied at one phase boundary.
///
/// Returned by [`ChurnSpec::population_delta`]; both backends and the
/// analysis layer's count-conservation oracle use the same numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PopulationDelta {
    /// Number of agents that depart at this boundary.
    pub leavers: usize,
    /// Number of agents that arrive at this boundary.
    pub joiners: usize,
}

/// A declarative description of population and edge churn.
///
/// The default value disables every churn family and is guaranteed not
/// to perturb any RNG stream of the simulation (`churn = none` is
/// bit-for-bit the churn-free simulator). The textual form (`Display` /
/// [`FromStr`]) round-trips exactly; families are joined with `+` in the
/// fixed order `join`, `leave`, `burst`, `rewire`.
///
/// Churn applies at **phase boundaries**: after a phase's decision
/// operator has resolved and before the next phase's first round. At
/// boundary `b` (1-based; boundary `b` precedes phase `b`) with
/// pre-boundary population `p`:
///
/// * `leave(r)` removes `⌊r·p⌋` uniformly chosen agents;
/// * `burst(f@s)` additionally removes `round(f·p)` agents at the single
///   boundary `s + 1` (i.e. right after phase `s`);
/// * `join(r)` adds `⌊r·p⌋` fresh agents. By default each joiner adopts
///   a uniformly random opinion; `join(r:j)` seeds every joiner
///   **adversarially** with the fixed opinion `j`.
/// * `rewire(q)` is **edge churn**: with probability `q` per boundary
///   the randomized sparse topology (`regular(d)` or `er(p)`) is
///   resampled wholesale from the churn RNG — phase-boundary graph
///   churn, the `rewire(p)/phase` knob of dynamic-network models.
///
/// Magnitudes are deterministic (see [`ChurnSpec::population_delta`]);
/// only which agents leave and what joiners believe is random, drawn
/// from the dedicated churn RNG.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ChurnSpec {
    /// Per-boundary join rate in `[0, 1)`: `⌊join·p⌋` agents arrive at
    /// every boundary.
    pub join: f64,
    /// How joiners are seeded: `None` — uniformly random opinion;
    /// `Some(j)` — every joiner adopts the fixed (adversarial) opinion
    /// `j` (must be `< num_opinions`).
    pub join_opinion: Option<usize>,
    /// Per-boundary leave rate in `[0, 1)`: `⌊leave·p⌋` uniformly
    /// chosen agents depart at every boundary.
    pub leave: f64,
    /// A scheduled departure burst, if any.
    pub burst: Option<BurstChurn>,
    /// Per-boundary probability in `[0, 1]` that the randomized sparse
    /// topology is resampled (edge churn). Agent backend only.
    pub rewire: f64,
}

impl ChurnSpec {
    /// `true` when every churn family is disabled. A disabled spec is
    /// guaranteed not to perturb any RNG stream of the simulation.
    pub fn is_none(&self) -> bool {
        self.join == 0.0 && self.leave == 0.0 && self.burst.is_none() && self.rewire == 0.0
    }

    /// `true` when agents join or leave (`join`, `leave` or `burst` is
    /// enabled). Population churn is complete-graph-only and supported
    /// by all three backends.
    pub fn has_population_churn(&self) -> bool {
        self.join != 0.0 || self.leave != 0.0 || self.burst.is_some()
    }

    /// `true` when the topology is resampled at phase boundaries
    /// (`rewire` is enabled). Edge churn needs a materialized graph and
    /// is agent-backend-only.
    pub fn has_edge_churn(&self) -> bool {
        self.rewire != 0.0
    }

    /// `true` when the spec only uses the aggregatable subset the
    /// count-based backends support (everything except edge churn).
    pub fn aggregatable(&self) -> bool {
        self.rewire == 0.0
    }

    /// Checks that this churn spec is well-formed for a system with
    /// `num_opinions` opinions.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidTemporal`] if a rate is outside its range (or
    /// non-finite), an adversarial join opinion is `>= num_opinions`, or
    /// the per-boundary leave rate and the burst fraction are large
    /// enough to empty the population in one boundary.
    pub fn check(&self, num_opinions: usize) -> Result<(), SimError> {
        let fail = |reason: String| Err(SimError::InvalidTemporal { reason });
        let rate = |name: &str, r: f64, max_exclusive: f64| {
            if r.is_finite() && (0.0..max_exclusive).contains(&r) {
                Ok(())
            } else {
                Err(SimError::InvalidTemporal {
                    reason: format!(
                        "{name} needs a rate in [0, {max_exclusive}), got {r}"
                    ),
                })
            }
        };
        rate(JOIN, self.join, 1.0)?;
        rate(LEAVE, self.leave, 1.0)?;
        if let Some(opinion) = self.join_opinion {
            if self.join == 0.0 {
                return fail(format!("{JOIN_AS} needs a join rate > 0"));
            }
            if opinion >= num_opinions {
                return fail(format!(
                    "join opinion {opinion} is out of range for a system with \
                     {num_opinions} opinions"
                ));
            }
        }
        let mut departing = self.leave;
        if let Some(burst) = self.burst {
            if !(burst.fraction.is_finite() && burst.fraction > 0.0 && burst.fraction < 1.0) {
                return fail(format!(
                    "{CHURN_BURST} needs a fraction in (0, 1), got {}",
                    burst.fraction
                ));
            }
            departing += burst.fraction;
        }
        if departing >= 1.0 {
            return fail(format!(
                "leave rate and burst fraction sum to {departing}, which would \
                 empty the population in one boundary"
            ));
        }
        if !(self.rewire.is_finite() && (0.0..=1.0).contains(&self.rewire)) {
            return fail(format!(
                "{REWIRE} needs a probability in [0, 1], got {}",
                self.rewire
            ));
        }
        Ok(())
    }

    /// The deterministic churn magnitudes at phase boundary `boundary`
    /// (1-based: boundary `b` precedes phase `b`; boundary 0 never
    /// churns), given the pre-boundary `population`.
    ///
    /// Leavers are `⌊leave·p⌋` plus `round(f·p)` when the burst fires at
    /// this boundary, capped so at least two agents always remain;
    /// joiners are `⌊join·p⌋` of the *pre-boundary* population. Both
    /// backends and the analysis layer's count-conservation oracle
    /// compute populations from this one function.
    pub fn population_delta(&self, population: usize, boundary: u64) -> PopulationDelta {
        if boundary == 0 {
            return PopulationDelta {
                leavers: 0,
                joiners: 0,
            };
        }
        let p = population as f64;
        let mut leavers = (self.leave * p).floor() as usize;
        if let Some(burst) = self.burst {
            if boundary == burst.after_phase + 1 {
                leavers += (burst.fraction * p).round() as usize;
            }
        }
        leavers = leavers.min(population.saturating_sub(2));
        let joiners = (self.join * p).floor() as usize;
        PopulationDelta { leavers, joiners }
    }

    /// The exact population after `phases_completed` phases, starting
    /// from `initial` agents (one churn boundary precedes each phase
    /// after the first). Pure fold over [`ChurnSpec::population_delta`].
    pub fn population_after(&self, initial: usize, phases_completed: u64) -> usize {
        let mut population = initial;
        for boundary in 1..=phases_completed {
            let delta = self.population_delta(population, boundary);
            population = population - delta.leavers + delta.joiners;
        }
        population
    }
}

const JOIN: Form = "join(r)";
const JOIN_AS: Form = "join(r:j)";
const LEAVE: Form = "leave(r)";
const CHURN_BURST: Form = "burst(f@p)";
const REWIRE: Form = "rewire(q)";
const CHURN: Grammar =
    Grammar::joined("churn", "none", &[JOIN, JOIN_AS, LEAVE, CHURN_BURST, REWIRE]);

impl fmt::Display for ChurnSpec {
    /// The canonical spec-file spelling: `none`, or `+`-joined families
    /// in the fixed order `join(r)`/`join(r:j)`, `leave(r)`,
    /// `burst(f@p)`, `rewire(q)`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = CHURN.joined_writer(f);
        if self.join != 0.0 {
            match self.join_opinion {
                Some(opinion) => out.family(JOIN_AS, &[&self.join, &opinion])?,
                None => out.family(JOIN, &[&self.join])?,
            }
        }
        if self.leave != 0.0 {
            out.family(LEAVE, &[&self.leave])?;
        }
        if let Some(burst) = self.burst {
            out.family(CHURN_BURST, &[&burst.fraction, &burst.after_phase])?;
        }
        if self.rewire != 0.0 {
            out.family(REWIRE, &[&self.rewire])?;
        }
        out.finish()
    }
}

impl FromStr for ChurnSpec {
    type Err = String;

    /// Parses `none`, or `+`-joined families in any order.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut spec = ChurnSpec::default();
        for term in CHURN.parse_joined(s)? {
            match term.form {
                JOIN => spec.join = term.arg(0)?,
                JOIN_AS => {
                    spec.join = term.arg(0)?;
                    spec.join_opinion = Some(term.arg(1)?);
                }
                LEAVE => spec.leave = term.arg(0)?,
                CHURN_BURST => {
                    spec.burst = Some(BurstChurn {
                        fraction: term.arg(0)?,
                        after_phase: term.arg(1)?,
                    })
                }
                _ => spec.rewire = term.arg(0)?,
            }
        }
        Ok(spec)
    }
}

/// A time-varying channel parameter `ε(t)`.
///
/// The default value, `const`, keeps the run's configured noise matrix
/// for every phase and is guaranteed not to perturb anything. Every
/// other variant **replaces** the channel with the uniform ε-noise
/// family [`NoiseMatrix::uniform(k, ε(t))`](noisy_channel::NoiseMatrix::uniform)
/// at the start of each phase `t` where `ε(t)` is scheduled, and
/// restores the configured matrix where it is not:
///
/// * `step(e@s)` — ε = `e` from phase `s` on (the configured matrix
///   before).
/// * `burst(e@s:w)` — ε = `e` during the `w` phases starting at phase
///   `s` (the configured matrix outside the window). A noise *burst*:
///   the channel degrades (or clears) for a bounded window, then
///   recovers.
/// * `ramp(e0:e1@p)` — ε interpolates linearly from `e0` (phase 0) to
///   `e1` (phase `p`), constant `e1` afterwards. A ramp overrides every
///   phase, so the configured noise family is never used.
///
/// The schedule is a deterministic function of the phase index — it
/// consumes no randomness. Scheduled ε values must lie in the uniform
/// family's domain `(0, 1 − 1/k]`; the upper bound is checked when the
/// backend is built (where `k` is known).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub enum NoiseSchedule {
    /// The configured noise matrix is used for every phase (the paper's
    /// constant-channel model).
    #[default]
    Const,
    /// ε switches to `epsilon` from phase `from_phase` on.
    Step {
        /// The scheduled channel parameter.
        epsilon: f64,
        /// The 0-based phase index from which `epsilon` applies.
        from_phase: u64,
    },
    /// ε = `epsilon` during phases `start_phase .. start_phase + width`.
    Burst {
        /// The channel parameter inside the burst window.
        epsilon: f64,
        /// The 0-based first phase of the window.
        start_phase: u64,
        /// The window length in phases (≥ 1).
        width: u64,
    },
    /// ε interpolates linearly from `start` at phase 0 to `end` at phase
    /// `over_phases`, and stays at `end` afterwards.
    Ramp {
        /// ε at phase 0.
        start: f64,
        /// ε from phase `over_phases` on.
        end: f64,
        /// The number of phases the interpolation spans (≥ 1).
        over_phases: u64,
    },
}

impl NoiseSchedule {
    /// `true` for the constant schedule, which never swaps the noise
    /// matrix and is guaranteed not to perturb anything.
    pub fn is_const(&self) -> bool {
        matches!(self, NoiseSchedule::Const)
    }

    /// Every ε value the schedule can produce (the interpolation of a
    /// ramp stays inside the closed interval of its endpoints, so the
    /// endpoints suffice for domain checks).
    pub(crate) fn scheduled_epsilons(&self) -> Vec<f64> {
        match *self {
            NoiseSchedule::Const => Vec::new(),
            NoiseSchedule::Step { epsilon, .. } | NoiseSchedule::Burst { epsilon, .. } => {
                vec![epsilon]
            }
            NoiseSchedule::Ramp { start, end, .. } => vec![start, end],
        }
    }

    /// Checks that this schedule is well-formed.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidTemporal`] if a scheduled ε is non-finite or
    /// outside `(0, 1)`, or a window/ramp length is zero. The uniform
    /// family's tighter upper bound `ε ≤ 1 − 1/k` is checked when the
    /// backend is built (where `k` is known).
    pub fn check(&self) -> Result<(), SimError> {
        let fail = |reason: String| Err(SimError::InvalidTemporal { reason });
        for epsilon in self.scheduled_epsilons() {
            if !(epsilon.is_finite() && epsilon > 0.0 && epsilon < 1.0) {
                return fail(format!(
                    "scheduled epsilon must lie in (0, 1), got {epsilon}"
                ));
            }
        }
        match *self {
            NoiseSchedule::Burst { width: 0, .. } => {
                fail(format!("{SCHEDULE_BURST} needs a window of at least one phase"))
            }
            NoiseSchedule::Ramp { over_phases: 0, .. } => {
                fail(format!("{RAMP} needs at least one phase to ramp over"))
            }
            _ => Ok(()),
        }
    }

    /// The scheduled ε for (0-based) phase `phase`, or `None` where the
    /// run's configured noise matrix applies.
    pub fn epsilon_at(&self, phase: u64) -> Option<f64> {
        match *self {
            NoiseSchedule::Const => None,
            NoiseSchedule::Step {
                epsilon,
                from_phase,
            } => (phase >= from_phase).then_some(epsilon),
            NoiseSchedule::Burst {
                epsilon,
                start_phase,
                width,
            } => (phase >= start_phase && phase - start_phase < width).then_some(epsilon),
            NoiseSchedule::Ramp {
                start,
                end,
                over_phases,
            } => {
                if phase >= over_phases {
                    Some(end)
                } else {
                    Some(start + (end - start) * phase as f64 / over_phases as f64)
                }
            }
        }
    }
}

const CONST: Form = "const";
const STEP: Form = "step(e@s)";
const SCHEDULE_BURST: Form = "burst(e@s:w)";
const RAMP: Form = "ramp(e0:e1@p)";
const SCHEDULE: Grammar = Grammar::single("noise schedule", &[CONST, STEP, SCHEDULE_BURST, RAMP]);

impl fmt::Display for NoiseSchedule {
    /// The canonical spec-file spelling: `const`, `step(e@s)`,
    /// `burst(e@s:w)` or `ramp(e0:e1@p)`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            NoiseSchedule::Const => SCHEDULE.write(f, CONST, &[]),
            NoiseSchedule::Step {
                epsilon,
                from_phase,
            } => SCHEDULE.write(f, STEP, &[&epsilon, &from_phase]),
            NoiseSchedule::Burst {
                epsilon,
                start_phase,
                width,
            } => SCHEDULE.write(f, SCHEDULE_BURST, &[&epsilon, &start_phase, &width]),
            NoiseSchedule::Ramp {
                start,
                end,
                over_phases,
            } => SCHEDULE.write(f, RAMP, &[&start, &end, &over_phases]),
        }
    }
}

impl FromStr for NoiseSchedule {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let term = SCHEDULE.parse(s)?;
        Ok(match term.form {
            CONST => NoiseSchedule::Const,
            STEP => NoiseSchedule::Step {
                epsilon: term.arg(0)?,
                from_phase: term.arg(1)?,
            },
            SCHEDULE_BURST => NoiseSchedule::Burst {
                epsilon: term.arg(0)?,
                start_phase: term.arg(1)?,
                width: term.arg(2)?,
            },
            _ => NoiseSchedule::Ramp {
                start: term.arg(0)?,
                end: term.arg(1)?,
                over_phases: term.arg(2)?,
            },
        })
    }
}

/// An activation schedule for asynchronous-round interleavings.
///
/// The default value, `sync`, is the paper's lockstep model: every
/// opinionated agent pushes every round. The other variants give each
/// agent its own clock, deciding **which agents push each tick** (the
/// receive path is unaffected — mailboxes stay open):
///
/// * `drift(ppm)` — each agent draws a fixed clock *rate*
///   `c_i = 1 + u_i` with `u_i` uniform in `± ppm × 10⁻⁶` at
///   construction. An agent pushes on global tick `t` iff its local
///   clock crosses an integer boundary, `⌊c_i (t+1)⌋ > ⌊c_i t⌋`: slow
///   clocks periodically skip a tick (pushes are capped at one per
///   tick, so fast clocks saturate at the lockstep rate).
/// * `skew(p)` — each agent's round boundary jitters independently
///   every tick: with probability `p` the agent misses the tick and
///   does not push.
///
/// Clock randomness comes from the dedicated clock RNG
/// (`CLOCK_SEED_SALT`); `sync` draws nothing and perturbs nothing.
/// Only the agent backend supports non-`sync` clocks — the count-based
/// backends have no per-agent identity to attach a clock to
/// ([`TemporalCapability::clock`]).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub enum ClockSpec {
    /// Lockstep synchronous rounds (the paper's model).
    #[default]
    Sync,
    /// Per-agent clock-rate drift, in parts per million.
    Drift {
        /// The drift magnitude in ppm: rates are uniform in
        /// `1 ± ppm × 10⁻⁶`. Must lie in `(0, 500 000]` (a rate may not
        /// reach 0 or 2).
        ppm: f64,
    },
    /// Per-tick activation jitter.
    Skew {
        /// The per-tick miss probability, in `(0, 1)`.
        miss: f64,
    },
}

impl ClockSpec {
    /// `true` for lockstep synchronous rounds, which draw no clock
    /// randomness and perturb nothing.
    pub fn is_sync(&self) -> bool {
        matches!(self, ClockSpec::Sync)
    }

    /// Checks that this clock spec is well-formed.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidTemporal`] if the drift is outside
    /// `(0, 500 000]` ppm or the skew miss probability is outside
    /// `(0, 1)` (or either is non-finite).
    pub fn check(&self) -> Result<(), SimError> {
        let fail = |reason: String| Err(SimError::InvalidTemporal { reason });
        match *self {
            ClockSpec::Sync => Ok(()),
            ClockSpec::Drift { ppm } => {
                if ppm.is_finite() && ppm > 0.0 && ppm <= 500_000.0 {
                    Ok(())
                } else {
                    fail(format!(
                        "{DRIFT} needs a drift in (0, 500000] ppm, got {ppm}"
                    ))
                }
            }
            ClockSpec::Skew { miss } => {
                if miss.is_finite() && miss > 0.0 && miss < 1.0 {
                    Ok(())
                } else {
                    fail(format!(
                        "{SKEW} needs a miss probability in (0, 1), got {miss}"
                    ))
                }
            }
        }
    }
}

const SYNC: Form = "sync";
const DRIFT: Form = "drift(ppm)";
const SKEW: Form = "skew(p)";
const CLOCK: Grammar = Grammar::single("clock", &[SYNC, DRIFT, SKEW]);

impl fmt::Display for ClockSpec {
    /// The canonical spec-file spelling: `sync`, `drift(ppm)` or
    /// `skew(p)`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ClockSpec::Sync => CLOCK.write(f, SYNC, &[]),
            ClockSpec::Drift { ppm } => CLOCK.write(f, DRIFT, &[&ppm]),
            ClockSpec::Skew { miss } => CLOCK.write(f, SKEW, &[&miss]),
        }
    }
}

impl FromStr for ClockSpec {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let term = CLOCK.parse(s)?;
        Ok(match term.form {
            SYNC => ClockSpec::Sync,
            DRIFT => ClockSpec::Drift { ppm: term.arg(0)? },
            _ => ClockSpec::Skew { miss: term.arg(0)? },
        })
    }
}

/// Which temporal features a backend supports: one column of the
/// [`admission`](crate::admission) table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TemporalCapability {
    /// Agents may join and leave at phase boundaries (`join`, `leave`,
    /// `burst`). The count-based backends realize this as O(k) count
    /// transfers.
    pub population_churn: bool,
    /// The sparse topology may be resampled at phase boundaries
    /// (`rewire`). Needs a materialized graph — agent backend only.
    pub edge_churn: bool,
    /// The noise matrix may be swapped per phase ([`NoiseSchedule`]).
    pub noise_schedule: bool,
    /// Agents may have skewed clocks ([`ClockSpec`]). Needs per-agent
    /// identity — agent backend only.
    pub clock: bool,
}

impl TemporalCapability {
    /// Everything is supported (the agent-level backend).
    pub const FULL: TemporalCapability = TemporalCapability {
        population_churn: true,
        edge_churn: true,
        noise_schedule: true,
        clock: true,
    };

    /// The aggregatable subset (the count-based backends): population
    /// churn and noise schedules, no edge churn, no clock skew.
    pub const AGGREGATE: TemporalCapability = TemporalCapability {
        population_churn: true,
        edge_churn: false,
        noise_schedule: true,
        clock: false,
    };

    /// The first enabled temporal feature of `(churn, schedule, clock)`
    /// this capability does **not** support, as a short feature label —
    /// or `None` when the combination is admitted.
    pub fn first_unsupported(
        &self,
        churn: &ChurnSpec,
        schedule: &NoiseSchedule,
        clock: &ClockSpec,
    ) -> Option<&'static str> {
        if churn.has_population_churn() && !self.population_churn {
            return Some("population churn");
        }
        if churn.has_edge_churn() && !self.edge_churn {
            return Some("edge churn (rewire)");
        }
        if !schedule.is_const() && !self.noise_schedule {
            return Some("noise schedules");
        }
        if !clock.is_sync() && !self.clock {
            return Some("clock skew");
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_churn() -> ChurnSpec {
        ChurnSpec {
            join: 0.05,
            join_opinion: Some(1),
            leave: 0.1,
            burst: Some(BurstChurn {
                fraction: 0.3,
                after_phase: 2,
            }),
            rewire: 0.25,
        }
    }

    #[test]
    fn default_churn_is_none_and_prints_none() {
        let spec = ChurnSpec::default();
        assert!(spec.is_none());
        assert!(!spec.has_population_churn());
        assert!(!spec.has_edge_churn());
        assert!(spec.aggregatable());
        assert_eq!(spec.to_string(), "none");
        assert_eq!("none".parse::<ChurnSpec>().unwrap(), spec);
    }

    #[test]
    fn churn_display_round_trips_through_from_str() {
        let cases = [
            ChurnSpec {
                join: 0.02,
                ..ChurnSpec::default()
            },
            ChurnSpec {
                join: 0.02,
                join_opinion: Some(2),
                ..ChurnSpec::default()
            },
            ChurnSpec {
                leave: 0.05,
                ..ChurnSpec::default()
            },
            ChurnSpec {
                burst: Some(BurstChurn {
                    fraction: 0.4,
                    after_phase: 0,
                }),
                ..ChurnSpec::default()
            },
            ChurnSpec {
                rewire: 1.0,
                ..ChurnSpec::default()
            },
            full_churn(),
        ];
        for spec in cases {
            let text = spec.to_string();
            assert_eq!(text.parse::<ChurnSpec>().unwrap(), spec, "{text}");
        }
        assert_eq!(
            full_churn().to_string(),
            "join(0.05:1)+leave(0.1)+burst(0.3@2)+rewire(0.25)"
        );
    }

    #[test]
    fn churn_parsing_is_case_and_order_insensitive() {
        let spec: ChurnSpec = "LEAVE(0.05) + Join(0.02:0)".parse().unwrap();
        assert_eq!(spec.leave, 0.05);
        assert_eq!(spec.join, 0.02);
        assert_eq!(spec.join_opinion, Some(0));
    }

    #[test]
    fn churn_parse_errors_are_informative() {
        assert!("teleport(0.1)".parse::<ChurnSpec>().is_err());
        assert!("join(0.1)+join(0.2)"
            .parse::<ChurnSpec>()
            .unwrap_err()
            .contains("more than once"));
        assert!("burst(0.1)".parse::<ChurnSpec>().unwrap_err().contains("burst(f@p)"));
        assert!("leave(lots)".parse::<ChurnSpec>().is_err());
    }

    #[test]
    fn churn_check_rejects_out_of_range_parameters() {
        let bad = |spec: ChurnSpec| {
            assert!(matches!(spec.check(3), Err(SimError::InvalidTemporal { .. })), "{spec}");
        };
        bad(ChurnSpec {
            join: 1.5,
            ..ChurnSpec::default()
        });
        bad(ChurnSpec {
            leave: f64::NAN,
            ..ChurnSpec::default()
        });
        bad(ChurnSpec {
            join: 0.1,
            join_opinion: Some(3),
            ..ChurnSpec::default()
        });
        bad(ChurnSpec {
            join_opinion: Some(0),
            ..ChurnSpec::default()
        });
        bad(ChurnSpec {
            burst: Some(BurstChurn {
                fraction: 1.0,
                after_phase: 0,
            }),
            ..ChurnSpec::default()
        });
        // leave + burst together may not empty the population.
        bad(ChurnSpec {
            leave: 0.6,
            burst: Some(BurstChurn {
                fraction: 0.5,
                after_phase: 1,
            }),
            ..ChurnSpec::default()
        });
        bad(ChurnSpec {
            rewire: -0.1,
            ..ChurnSpec::default()
        });
        assert!(full_churn().check(3).is_ok());
    }

    #[test]
    fn population_deltas_are_deterministic_and_fold_exactly() {
        let spec = ChurnSpec {
            join: 0.02,
            leave: 0.05,
            burst: Some(BurstChurn {
                fraction: 0.3,
                after_phase: 1,
            }),
            ..ChurnSpec::default()
        };
        // Boundary 0 never churns.
        assert_eq!(
            spec.population_delta(1000, 0),
            PopulationDelta {
                leavers: 0,
                joiners: 0
            }
        );
        // Boundary 1: rates only.
        assert_eq!(
            spec.population_delta(1000, 1),
            PopulationDelta {
                leavers: 50,
                joiners: 20
            }
        );
        // Boundary 2 = after phase 1: the burst fires on top of the rates.
        assert_eq!(
            spec.population_delta(1000, 2),
            PopulationDelta {
                leavers: 50 + 300,
                joiners: 20
            }
        );
        // The fold matches manual application.
        let after_one = 1000 - 50 + 20;
        assert_eq!(spec.population_after(1000, 1), after_one);
        let delta = spec.population_delta(after_one, 2);
        assert_eq!(
            spec.population_after(1000, 2),
            after_one - delta.leavers + delta.joiners
        );
        // Departures never empty the population.
        let drain = ChurnSpec {
            leave: 0.9,
            ..ChurnSpec::default()
        };
        assert!(drain.population_after(100, 50) >= 2);
    }

    #[test]
    fn default_schedule_is_const_and_prints_const() {
        let schedule = NoiseSchedule::default();
        assert!(schedule.is_const());
        assert_eq!(schedule.to_string(), "const");
        assert_eq!("const".parse::<NoiseSchedule>().unwrap(), schedule);
        for phase in 0..10 {
            assert_eq!(schedule.epsilon_at(phase), None);
        }
    }

    #[test]
    fn schedule_display_round_trips_through_from_str() {
        let cases = [
            NoiseSchedule::Step {
                epsilon: 0.4,
                from_phase: 3,
            },
            NoiseSchedule::Burst {
                epsilon: 0.05,
                start_phase: 2,
                width: 3,
            },
            NoiseSchedule::Ramp {
                start: 0.1,
                end: 0.4,
                over_phases: 8,
            },
        ];
        for schedule in cases {
            let text = schedule.to_string();
            assert_eq!(text.parse::<NoiseSchedule>().unwrap(), schedule, "{text}");
        }
        assert_eq!(
            NoiseSchedule::Burst {
                epsilon: 0.05,
                start_phase: 2,
                width: 3
            }
            .to_string(),
            "burst(0.05@2:3)"
        );
        assert!("sawtooth(0.1)".parse::<NoiseSchedule>().is_err());
        assert!("burst(0.1@2)".parse::<NoiseSchedule>().unwrap_err().contains("burst(e@s:w)"));
    }

    #[test]
    fn schedule_epsilon_at_matches_the_shapes() {
        let step = NoiseSchedule::Step {
            epsilon: 0.4,
            from_phase: 3,
        };
        assert_eq!(step.epsilon_at(2), None);
        assert_eq!(step.epsilon_at(3), Some(0.4));
        assert_eq!(step.epsilon_at(100), Some(0.4));

        let burst = NoiseSchedule::Burst {
            epsilon: 0.05,
            start_phase: 2,
            width: 3,
        };
        assert_eq!(burst.epsilon_at(1), None);
        assert_eq!(burst.epsilon_at(2), Some(0.05));
        assert_eq!(burst.epsilon_at(4), Some(0.05));
        assert_eq!(burst.epsilon_at(5), None);

        let ramp = NoiseSchedule::Ramp {
            start: 0.1,
            end: 0.5,
            over_phases: 4,
        };
        assert_eq!(ramp.epsilon_at(0), Some(0.1));
        let mid = ramp.epsilon_at(2).expect("mid-ramp phase is scheduled");
        assert!((mid - 0.3).abs() < 1e-12, "linear midpoint, got {mid}");
        assert_eq!(ramp.epsilon_at(4), Some(0.5));
        assert_eq!(ramp.epsilon_at(100), Some(0.5));
    }

    #[test]
    fn schedule_check_rejects_degenerate_shapes() {
        assert!(NoiseSchedule::Step {
            epsilon: 1.5,
            from_phase: 0
        }
        .check()
        .is_err());
        assert!(NoiseSchedule::Burst {
            epsilon: 0.2,
            start_phase: 0,
            width: 0
        }
        .check()
        .is_err());
        assert!(NoiseSchedule::Ramp {
            start: 0.1,
            end: 0.4,
            over_phases: 0
        }
        .check()
        .is_err());
        assert!(NoiseSchedule::Ramp {
            start: 0.1,
            end: 0.4,
            over_phases: 5
        }
        .check()
        .is_ok());
    }

    #[test]
    fn default_clock_is_sync_and_prints_sync() {
        let clock = ClockSpec::default();
        assert!(clock.is_sync());
        assert_eq!(clock.to_string(), "sync");
        assert_eq!("sync".parse::<ClockSpec>().unwrap(), clock);
    }

    #[test]
    fn clock_display_round_trips_through_from_str() {
        let cases = [
            ClockSpec::Drift { ppm: 200_000.0 },
            ClockSpec::Skew { miss: 0.1 },
        ];
        for clock in cases {
            let text = clock.to_string();
            assert_eq!(text.parse::<ClockSpec>().unwrap(), clock, "{text}");
        }
        assert!("warp(2)".parse::<ClockSpec>().is_err());
    }

    #[test]
    fn clock_check_rejects_out_of_range_parameters() {
        assert!(ClockSpec::Drift { ppm: 0.0 }.check().is_err());
        assert!(ClockSpec::Drift { ppm: 600_000.0 }.check().is_err());
        assert!(ClockSpec::Drift { ppm: f64::NAN }.check().is_err());
        assert!(ClockSpec::Skew { miss: 0.0 }.check().is_err());
        assert!(ClockSpec::Skew { miss: 1.0 }.check().is_err());
        assert!(ClockSpec::Drift { ppm: 100.0 }.check().is_ok());
        assert!(ClockSpec::Skew { miss: 0.5 }.check().is_ok());
    }

    #[test]
    fn capabilities_gate_the_expected_features() {
        let full = TemporalCapability::FULL;
        let aggregate = TemporalCapability::AGGREGATE;
        let sync = ClockSpec::Sync;
        let constant = NoiseSchedule::Const;
        let population = ChurnSpec {
            leave: 0.1,
            ..ChurnSpec::default()
        };
        let edge = ChurnSpec {
            rewire: 0.5,
            ..ChurnSpec::default()
        };
        assert_eq!(full.first_unsupported(&population, &constant, &sync), None);
        assert_eq!(full.first_unsupported(&edge, &constant, &sync), None);
        assert_eq!(
            aggregate.first_unsupported(&population, &constant, &sync),
            None
        );
        assert_eq!(
            aggregate.first_unsupported(&edge, &constant, &sync),
            Some("edge churn (rewire)")
        );
        assert_eq!(
            aggregate.first_unsupported(
                &ChurnSpec::default(),
                &constant,
                &ClockSpec::Skew { miss: 0.1 }
            ),
            Some("clock skew")
        );
        assert_eq!(
            aggregate.first_unsupported(
                &ChurnSpec::default(),
                &NoiseSchedule::Step {
                    epsilon: 0.3,
                    from_phase: 1
                },
                &sync
            ),
            None
        );
    }
}
