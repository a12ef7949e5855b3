//! Per-phase execution records.

use pushsim::{Opinion, OpinionDistribution};

/// Which of the two protocol stages a phase belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StageId {
    /// Stage 1: opinion acquisition / rumor spreading.
    One,
    /// Stage 2: sample-majority bias amplification.
    Two,
}

impl std::fmt::Display for StageId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StageId::One => write!(f, "stage 1"),
            StageId::Two => write!(f, "stage 2"),
        }
    }
}

/// A record of what one protocol phase did to the system, used by the
/// experiment harness to reconstruct activation-growth and bias
/// trajectories (experiments F5, T3).
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseRecord {
    stage: StageId,
    phase: usize,
    rounds: u64,
    messages: u64,
    distribution_after: OpinionDistribution,
    bias_after: Option<f64>,
}

impl PhaseRecord {
    /// Creates a record for a finished phase; `reference` is the correct /
    /// plurality opinion the bias is measured against.
    pub(crate) fn new(
        stage: StageId,
        phase: usize,
        rounds: u64,
        messages: u64,
        distribution_after: OpinionDistribution,
        reference: Opinion,
    ) -> Self {
        let bias_after = distribution_after.bias_towards(reference);
        Self {
            stage,
            phase,
            rounds,
            messages,
            distribution_after,
            bias_after,
        }
    }

    /// The stage the phase belongs to.
    pub fn stage(&self) -> StageId {
        self.stage
    }

    /// The zero-based phase index within its stage.
    pub fn phase(&self) -> usize {
        self.phase
    }

    /// The number of rounds the phase lasted.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// The number of messages pushed during the phase.
    pub fn messages(&self) -> u64 {
        self.messages
    }

    /// The opinion distribution at the end of the phase.
    pub fn distribution_after(&self) -> &OpinionDistribution {
        &self.distribution_after
    }

    /// The fraction of agents that were opinionated at the end of the phase.
    pub fn opinionated_fraction_after(&self) -> f64 {
        self.distribution_after.opinionated_fraction()
    }

    /// The bias towards the correct/plurality opinion at the end of the
    /// phase (Definition 1), or `None` if nobody was opinionated.
    pub fn bias_after(&self) -> Option<f64> {
        self.bias_after
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_computes_bias_and_fraction() {
        let dist = OpinionDistribution::from_counts(vec![60, 30, 10], 100).unwrap();
        let record = PhaseRecord::new(StageId::One, 2, 50, 5_000, dist, Opinion::new(0));
        assert_eq!(record.stage(), StageId::One);
        assert_eq!(record.phase(), 2);
        assert_eq!(record.rounds(), 50);
        assert_eq!(record.messages(), 5_000);
        assert!((record.opinionated_fraction_after() - 0.5).abs() < 1e-12);
        assert!((record.bias_after().unwrap() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn stage_display() {
        assert_eq!(StageId::One.to_string(), "stage 1");
        assert_eq!(StageId::Two.to_string(), "stage 2");
    }
}
