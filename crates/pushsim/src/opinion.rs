//! Opinions and per-node states.

use std::fmt;

/// One of the `k` opinions of the system, identified by an index in
/// `{0, …, k−1}`.
///
/// The paper numbers opinions `1, …, k`; this crate uses zero-based indices
/// so they can directly index count vectors and noise-matrix rows.
///
/// ```
/// use pushsim::Opinion;
/// let o = Opinion::new(2);
/// assert_eq!(o.index(), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Opinion(u32);

impl Opinion {
    /// Creates an opinion from its zero-based index.
    ///
    /// # Panics
    ///
    /// Panics if `index` exceeds `u32::MAX` (far beyond any simulable `k`).
    pub fn new(index: usize) -> Self {
        Self(u32::try_from(index).expect("opinion index fits in u32"))
    }

    /// The zero-based index of the opinion.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Opinion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "opinion#{}", self.0)
    }
}

impl From<Opinion> for usize {
    fn from(o: Opinion) -> usize {
        o.index()
    }
}

/// The state of a single agent: either undecided (holds no opinion, may not
/// push) or opinionated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum NodeState {
    /// The agent holds no opinion yet and does not push messages.
    #[default]
    Undecided,
    /// The agent supports the given opinion.
    Opinionated(Opinion),
}

impl NodeState {
    /// The opinion the agent supports, if any.
    pub fn opinion(self) -> Option<Opinion> {
        match self {
            NodeState::Undecided => None,
            NodeState::Opinionated(o) => Some(o),
        }
    }

    /// `true` if the agent supports some opinion.
    pub fn is_opinionated(self) -> bool {
        matches!(self, NodeState::Opinionated(_))
    }

    /// `true` if the agent holds no opinion.
    pub fn is_undecided(self) -> bool {
        matches!(self, NodeState::Undecided)
    }
}

impl fmt::Display for NodeState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeState::Undecided => write!(f, "undecided"),
            NodeState::Opinionated(o) => write!(f, "{o}"),
        }
    }
}

impl From<Opinion> for NodeState {
    fn from(o: Opinion) -> Self {
        NodeState::Opinionated(o)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opinion_round_trips_through_index() {
        for i in [0usize, 1, 7, 1000] {
            assert_eq!(Opinion::new(i).index(), i);
            assert_eq!(usize::from(Opinion::new(i)), i);
        }
    }

    #[test]
    fn opinions_are_ordered_by_index() {
        assert!(Opinion::new(0) < Opinion::new(1));
        assert_eq!(Opinion::new(3), Opinion::new(3));
    }

    #[test]
    fn node_state_predicates() {
        let u = NodeState::Undecided;
        assert!(u.is_undecided());
        assert!(!u.is_opinionated());
        assert_eq!(u.opinion(), None);

        let o = NodeState::from(Opinion::new(2));
        assert!(o.is_opinionated());
        assert_eq!(o.opinion(), Some(Opinion::new(2)));
    }

    #[test]
    fn default_state_is_undecided() {
        assert_eq!(NodeState::default(), NodeState::Undecided);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Opinion::new(4).to_string(), "opinion#4");
        assert_eq!(NodeState::Undecided.to_string(), "undecided");
        assert_eq!(
            NodeState::Opinionated(Opinion::new(1)).to_string(),
            "opinion#1"
        );
    }
}
