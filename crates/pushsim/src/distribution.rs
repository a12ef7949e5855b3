//! Opinion distributions and bias computations.

use crate::opinion::{NodeState, Opinion};
use std::fmt;

/// A snapshot of how many agents support each opinion, plus how many are
/// undecided.
///
/// Following Section 2.2 of the paper, the per-opinion *fractions* are taken
/// relative to the total number of agents `n`, the fraction of opinionated
/// agents is `a`, and the bias of the distribution towards an opinion `m` is
/// `min_{i ≠ m} (c_m − c_i)` where `c_i` is the fraction of agents (among
/// the opinionated ones) supporting `i`.
///
/// ```
/// use pushsim::{Opinion, OpinionDistribution};
///
/// let d = OpinionDistribution::from_counts(vec![60, 30, 10], 0).unwrap();
/// assert_eq!(d.plurality(), Some(Opinion::new(0)));
/// assert!((d.bias_towards(Opinion::new(0)).unwrap() - 0.3).abs() < 1e-12);
/// assert!(!d.is_consensus());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpinionDistribution {
    counts: Vec<usize>,
    undecided: usize,
}

impl OpinionDistribution {
    /// Builds a distribution from per-opinion counts and the number of
    /// undecided agents.
    ///
    /// Returns `None` if fewer than two opinions are given.
    pub fn from_counts(counts: Vec<usize>, undecided: usize) -> Option<Self> {
        if counts.len() < 2 {
            return None;
        }
        Some(Self { counts, undecided })
    }

    /// Builds a distribution by tallying a slice of node states over a
    /// system with `num_opinions` opinions.
    ///
    /// # Panics
    ///
    /// Panics if a state carries an opinion index `≥ num_opinions`.
    pub fn from_states(states: &[NodeState], num_opinions: usize) -> Self {
        let mut counts = vec![0usize; num_opinions];
        let mut undecided = 0usize;
        for s in states {
            match s {
                NodeState::Undecided => undecided += 1,
                NodeState::Opinionated(o) => {
                    assert!(
                        o.index() < num_opinions,
                        "state carries opinion {} but the system has {} opinions",
                        o.index(),
                        num_opinions
                    );
                    counts[o.index()] += 1;
                }
            }
        }
        Self { counts, undecided }
    }

    /// The number of opinions `k` of the system.
    pub fn num_opinions(&self) -> usize {
        self.counts.len()
    }

    /// The total number of agents (opinionated + undecided).
    pub fn num_nodes(&self) -> usize {
        self.undecided + self.counts.iter().sum::<usize>()
    }

    /// The number of agents supporting `opinion`.
    ///
    /// # Panics
    ///
    /// Panics if the opinion index is out of range.
    pub fn count(&self, opinion: Opinion) -> usize {
        self.counts[opinion.index()]
    }

    /// The per-opinion counts.
    pub fn counts(&self) -> &[usize] {
        &self.counts
    }

    /// The number of undecided agents.
    pub fn undecided(&self) -> usize {
        self.undecided
    }

    /// The number of opinionated agents.
    pub fn opinionated(&self) -> usize {
        self.counts.iter().sum()
    }

    /// The fraction `a` of agents that are opinionated.
    pub fn opinionated_fraction(&self) -> f64 {
        let n = self.num_nodes();
        if n == 0 {
            0.0
        } else {
            self.opinionated() as f64 / n as f64
        }
    }

    /// The fractions of *opinionated* agents supporting each opinion
    /// (the paper's `c_i` normalized by the number of opinionated agents;
    /// all zeros if nobody is opinionated).
    pub fn fractions(&self) -> Vec<f64> {
        let a = self.opinionated();
        if a == 0 {
            return vec![0.0; self.counts.len()];
        }
        self.counts.iter().map(|&c| c as f64 / a as f64).collect()
    }

    /// The fractions of *all* agents supporting each opinion (the paper's
    /// `c_i` when normalizing by `n`; these sum to `a`, the opinionated
    /// fraction).
    pub fn global_fractions(&self) -> Vec<f64> {
        let n = self.num_nodes();
        if n == 0 {
            return vec![0.0; self.counts.len()];
        }
        self.counts.iter().map(|&c| c as f64 / n as f64).collect()
    }

    /// The plurality opinion — the opinion supported by strictly more agents
    /// than any other — or `None` if there is a tie for the top or nobody is
    /// opinionated.
    pub fn plurality(&self) -> Option<Opinion> {
        let max = *self.counts.iter().max()?;
        if max == 0 {
            return None;
        }
        let mut top = self.counts.iter().enumerate().filter(|(_, &c)| c == max);
        let (idx, _) = top.next()?;
        if top.next().is_some() {
            None
        } else {
            Some(Opinion::new(idx))
        }
    }

    /// The bias of the distribution towards opinion `m`:
    /// `min_{i ≠ m} (c_m − c_i)` with fractions taken over opinionated
    /// agents (Definition 1 of the paper). Returns `None` if no agent is
    /// opinionated.
    pub fn bias_towards(&self, m: Opinion) -> Option<f64> {
        let a = self.opinionated();
        if a == 0 || m.index() >= self.counts.len() {
            return None;
        }
        let cm = self.counts[m.index()] as f64 / a as f64;
        let worst_other = self
            .counts
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != m.index())
            .map(|(_, &c)| c as f64 / a as f64)
            .fold(f64::NEG_INFINITY, f64::max);
        Some(cm - worst_other)
    }

    /// `true` if every agent is opinionated and they all support the same
    /// opinion.
    pub fn is_consensus(&self) -> bool {
        self.undecided == 0 && self.counts.iter().filter(|&&c| c > 0).count() == 1
    }

    /// `true` if every agent is opinionated and they all support `opinion`.
    pub fn is_consensus_on(&self, opinion: Opinion) -> bool {
        self.is_consensus() && self.counts[opinion.index()] > 0
    }
}

impl fmt::Display for OpinionDistribution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, c) in self.counts.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, "] (+{} undecided)", self.undecided)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_counts_requires_two_opinions() {
        assert!(OpinionDistribution::from_counts(vec![5], 0).is_none());
        assert!(OpinionDistribution::from_counts(vec![5, 5], 0).is_some());
    }

    #[test]
    fn from_states_tallies_correctly() {
        let states = vec![
            NodeState::Undecided,
            NodeState::Opinionated(Opinion::new(0)),
            NodeState::Opinionated(Opinion::new(1)),
            NodeState::Opinionated(Opinion::new(1)),
        ];
        let d = OpinionDistribution::from_states(&states, 3);
        assert_eq!(d.counts(), &[1, 2, 0]);
        assert_eq!(d.undecided(), 1);
        assert_eq!(d.num_nodes(), 4);
        assert_eq!(d.opinionated(), 3);
        assert!((d.opinionated_fraction() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn fractions_normalize_over_opinionated_agents() {
        let d = OpinionDistribution::from_counts(vec![30, 10], 60).unwrap();
        let f = d.fractions();
        assert!((f[0] - 0.75).abs() < 1e-12);
        assert!((f[1] - 0.25).abs() < 1e-12);
        let g = d.global_fractions();
        assert!((g[0] - 0.3).abs() < 1e-12);
        assert!((g[1] - 0.1).abs() < 1e-12);
    }

    #[test]
    fn plurality_and_ties() {
        let d = OpinionDistribution::from_counts(vec![5, 9, 2], 0).unwrap();
        assert_eq!(d.plurality(), Some(Opinion::new(1)));
        let tie = OpinionDistribution::from_counts(vec![5, 5, 2], 0).unwrap();
        assert_eq!(tie.plurality(), None);
        let empty = OpinionDistribution::from_counts(vec![0, 0], 10).unwrap();
        assert_eq!(empty.plurality(), None);
    }

    #[test]
    fn bias_matches_definition_1() {
        let d = OpinionDistribution::from_counts(vec![50, 30, 20], 0).unwrap();
        assert!((d.bias_towards(Opinion::new(0)).unwrap() - 0.2).abs() < 1e-12);
        assert!((d.bias_towards(Opinion::new(1)).unwrap() + 0.2).abs() < 1e-12);
        let empty = OpinionDistribution::from_counts(vec![0, 0], 3).unwrap();
        assert_eq!(empty.bias_towards(Opinion::new(0)), None);
    }

    #[test]
    fn consensus_detection() {
        let c = OpinionDistribution::from_counts(vec![0, 10, 0], 0).unwrap();
        assert!(c.is_consensus());
        assert!(c.is_consensus_on(Opinion::new(1)));
        assert!(!c.is_consensus_on(Opinion::new(0)));

        let with_undecided = OpinionDistribution::from_counts(vec![0, 10, 0], 1).unwrap();
        assert!(!with_undecided.is_consensus());

        let split = OpinionDistribution::from_counts(vec![1, 9, 0], 0).unwrap();
        assert!(!split.is_consensus());
    }

    #[test]
    fn display_shows_counts_and_undecided() {
        let d = OpinionDistribution::from_counts(vec![1, 2], 3).unwrap();
        assert_eq!(d.to_string(), "[1, 2] (+3 undecided)");
    }
}
