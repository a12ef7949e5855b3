//! Per-agent received-message multisets.

use crate::error::{checked_len, filled, SimError};
use crate::opinion::Opinion;
use rand::Rng;

/// The multiset of messages every agent received during one phase, stored as
/// per-agent, per-opinion counts.
///
/// The protocols of the paper never need the arrival *order* of messages
/// within a phase (their rules depend only on the received multiset
/// `R_j(u)` — this is exactly what makes Claim 1 work), so counts are a
/// faithful and memory-efficient representation: `n × k` `u32`s instead of
/// unbounded per-message logs.
///
/// [`Inboxes`] also offers the two sampling primitives protocols need:
///
/// * [`sample_one`](Inboxes::sample_one) — one message chosen uniformly at
///   random, counting multiplicities (Stage 1's rule);
/// * [`sample_without_replacement`](Inboxes::sample_without_replacement) —
///   a uniform random sample of fixed size from the multiset (Stage 2's
///   rule), implemented as a sequential multivariate-hypergeometric draw.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Inboxes {
    /// Flattened `num_nodes × num_opinions` counts.
    counts: Vec<u32>,
    num_opinions: usize,
    total_messages: u64,
}

impl Inboxes {
    /// Creates empty inboxes for `num_nodes` agents over `num_opinions`
    /// opinions.
    ///
    /// # Errors
    ///
    /// [`SimError::TooLarge`] if the `num_nodes × num_opinions` counts
    /// overflow or cannot be allocated.
    pub(crate) fn new(num_nodes: usize, num_opinions: usize) -> Result<Self, SimError> {
        let len = checked_len(num_nodes, num_opinions, "inbox counts")?;
        Ok(Self {
            counts: filled(len, 0, "inbox counts")?,
            num_opinions,
            total_messages: 0,
        })
    }

    /// Re-shapes the inboxes for a new number of agents (population
    /// churn changes `n` at phase boundaries); all counts reset. Keeps
    /// the allocation when the population shrinks.
    pub(crate) fn resize(&mut self, num_nodes: usize) {
        self.counts.clear();
        self.counts.resize(num_nodes * self.num_opinions, 0);
        self.total_messages = 0;
    }

    /// Clears all counts (reused between phases to avoid reallocation).
    pub(crate) fn clear(&mut self) {
        self.counts.iter_mut().for_each(|c| *c = 0);
        self.total_messages = 0;
    }

    /// Records the delivery of one message with `opinion` to `node`,
    /// leaving the phase's message total to
    /// [`add_delivered`](Self::add_delivered): a push round counts its
    /// deliveries in a local and adds them once.
    #[inline]
    pub(crate) fn deliver(&mut self, node: usize, opinion: usize) {
        self.counts[node * self.num_opinions + opinion] += 1;
    }

    /// Adds `count` messages recorded by [`deliver`](Self::deliver) to the
    /// phase's message total.
    pub(crate) fn add_delivered(&mut self, count: u64) {
        self.total_messages += count;
    }

    /// Records the delivery of `count` copies of `opinion` to `node`.
    /// (Kept for tests and future per-agent bulk paths; the batched
    /// deliveries go through [`scatter_uniform`](Self::scatter_uniform).)
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn deliver_many(&mut self, node: usize, opinion: usize, count: u32) {
        self.counts[node * self.num_opinions + opinion] += count;
        self.total_messages += u64::from(count);
    }

    /// Throws `totals[j]` exchangeable copies of each opinion `j` into
    /// uniformly random inboxes — the placement step of the batched
    /// process-B/P delivery. The noise has already been applied at the
    /// count level, so the inner loop is a bare `gen_range` + increment
    /// (no per-message channel sampling).
    pub(crate) fn scatter_uniform<R: Rng + ?Sized>(&mut self, totals: &[u64], rng: &mut R) {
        debug_assert_eq!(totals.len(), self.num_opinions);
        let n = self.num_nodes();
        let k = self.num_opinions;
        for (opinion, &h) in totals.iter().enumerate() {
            for _ in 0..h {
                let node = rng.gen_range(0..n);
                self.counts[node * k + opinion] += 1;
            }
            self.total_messages += h;
        }
    }

    /// The number of agents the inboxes were created for.
    pub fn num_nodes(&self) -> usize {
        self.counts.len().checked_div(self.num_opinions).unwrap_or(0)
    }

    /// The number of opinions `k`.
    pub fn num_opinions(&self) -> usize {
        self.num_opinions
    }

    /// Total number of messages delivered in the phase, over all agents.
    pub fn total_messages(&self) -> u64 {
        self.total_messages
    }

    /// Per-opinion received counts of one agent.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn received(&self, node: usize) -> &[u32] {
        &self.counts[node * self.num_opinions..(node + 1) * self.num_opinions]
    }

    /// The number of messages `node` received in the phase.
    pub fn received_total(&self, node: usize) -> u32 {
        self.received(node).iter().sum()
    }

    /// `true` if `node` received at least one message.
    pub fn has_received(&self, node: usize) -> bool {
        self.received(node).iter().any(|&c| c > 0)
    }

    /// The largest single inbox of the phase (the maximum over agents of
    /// [`received_total`](Self::received_total)) — the quantity the
    /// protocol's memory meter tracks.
    pub fn max_received(&self) -> u64 {
        self.counts
            .chunks_exact(self.num_opinions.max(1))
            .map(|chunk| chunk.iter().map(|&c| u64::from(c)).sum())
            .max()
            .unwrap_or(0)
    }

    /// Aggregated per-opinion counts over all agents.
    pub fn totals_per_opinion(&self) -> Vec<u64> {
        let mut totals = vec![0u64; self.num_opinions];
        for chunk in self.counts.chunks_exact(self.num_opinions) {
            for (t, &c) in totals.iter_mut().zip(chunk) {
                *t += u64::from(c);
            }
        }
        totals
    }

    /// Draws one message uniformly at random (counting multiplicities) from
    /// the multiset `node` received, or `None` if the agent received
    /// nothing.
    ///
    /// This is the opinion-adoption rule of Stage 1: "chosen u.a.r. (counting
    /// multiplicities) from the received opinions".
    pub fn sample_one<R: Rng + ?Sized>(&self, node: usize, rng: &mut R) -> Option<Opinion> {
        let row = self.received(node);
        let total: u32 = row.iter().sum();
        if total == 0 {
            return None;
        }
        let mut target = rng.gen_range(0..total);
        for (i, &c) in row.iter().enumerate() {
            if target < c {
                return Some(Opinion::new(i));
            }
            target -= c;
        }
        unreachable!("target is below the total count")
    }

    /// Draws a uniform random sample of `sample_size` messages *without
    /// replacement* from the multiset `node` received, returning per-opinion
    /// counts of the sample. Returns `None` if the agent received fewer than
    /// `sample_size` messages.
    ///
    /// This is the sampling step of Stage 2 ("starts drawing a random
    /// uniform sample S(u) of size L from R_j(u)"). The draw is a sequential
    /// multivariate-hypergeometric sample, exactly equivalent to shuffling
    /// the received multiset and taking a prefix, and runs in
    /// `O(k · sample_size)` time — negligible for the `ℓ = O(1/ε²)` sample
    /// sizes the protocol uses.
    pub fn sample_without_replacement<R: Rng + ?Sized>(
        &self,
        node: usize,
        sample_size: u32,
        rng: &mut R,
    ) -> Option<Vec<u32>> {
        let row = self.received(node);
        let total: u32 = row.iter().sum();
        if total < sample_size {
            return None;
        }
        let mut remaining_population = total;
        let mut remaining_sample = sample_size;
        let mut sample = vec![0u32; self.num_opinions];
        for (i, &available) in row.iter().enumerate() {
            if remaining_sample == 0 {
                break;
            }
            // Draw the number of copies of opinion i in the sample from the
            // hypergeometric conditional distribution by simulating the
            // sequential draws of this stratum.
            let drawn = hypergeometric_draw(available, remaining_population, remaining_sample, rng);
            sample[i] = drawn;
            remaining_sample -= drawn;
            remaining_population -= available;
        }
        Some(sample)
    }

    /// The most frequent opinion in the per-opinion count vector `counts`,
    /// breaking ties uniformly at random — the paper's `maj(·)` operator.
    pub fn majority_of_counts<R: Rng + ?Sized>(counts: &[u32], rng: &mut R) -> Option<Opinion> {
        let max = *counts.iter().max()?;
        if max == 0 {
            return None;
        }
        let tied: Vec<usize> = counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c == max)
            .map(|(i, _)| i)
            .collect();
        let pick = tied[rng.gen_range(0..tied.len())];
        Some(Opinion::new(pick))
    }
}

/// Number of marked items drawn when taking `sample_size` items uniformly
/// without replacement from a population of `population` items of which
/// `marked` are marked.
///
/// Sampled by the direct sequential method: walk through the `sample_size`
/// draws, each time drawing a marked item with probability
/// `remaining_marked / remaining_population`. This is exact and fast for the
/// sample sizes used by the protocol (`ℓ = O(1/ε²)`).
fn hypergeometric_draw<R: Rng + ?Sized>(
    marked: u32,
    population: u32,
    sample_size: u32,
    rng: &mut R,
) -> u32 {
    debug_assert!(marked <= population);
    debug_assert!(sample_size <= population);
    let mut remaining_marked = marked;
    let mut remaining_population = population;
    let mut drawn = 0;
    for _ in 0..sample_size {
        if remaining_marked == 0 {
            break;
        }
        if rng.gen_range(0..remaining_population) < remaining_marked {
            drawn += 1;
            remaining_marked -= 1;
        }
        remaining_population -= 1;
    }
    drawn
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn filled_inboxes() -> Inboxes {
        let mut inboxes = Inboxes::new(3, 3).unwrap();
        inboxes.deliver(0, 0);
        inboxes.deliver(0, 0);
        inboxes.deliver(0, 2);
        inboxes.add_delivered(3);
        inboxes.deliver_many(1, 1, 5);
        inboxes
    }

    #[test]
    fn delivery_and_accessors() {
        let inboxes = filled_inboxes();
        assert_eq!(inboxes.num_nodes(), 3);
        assert_eq!(inboxes.num_opinions(), 3);
        assert_eq!(inboxes.total_messages(), 8);
        assert_eq!(inboxes.received(0), &[2, 0, 1]);
        assert_eq!(inboxes.received(1), &[0, 5, 0]);
        assert_eq!(inboxes.received_total(0), 3);
        assert!(inboxes.has_received(1));
        assert!(!inboxes.has_received(2));
        assert_eq!(inboxes.totals_per_opinion(), vec![2, 5, 1]);
        assert_eq!(inboxes.max_received(), 5);
    }

    #[test]
    fn clear_resets_everything() {
        let mut inboxes = filled_inboxes();
        inboxes.clear();
        assert_eq!(inboxes.total_messages(), 0);
        assert!(!inboxes.has_received(0));
        assert_eq!(inboxes.totals_per_opinion(), vec![0, 0, 0]);
    }

    #[test]
    fn sample_one_respects_multiplicities() {
        let inboxes = filled_inboxes();
        let mut rng = StdRng::seed_from_u64(1);
        // Node 2 received nothing.
        assert_eq!(inboxes.sample_one(2, &mut rng), None);
        // Node 0 received {0, 0, 2}: opinion 0 should come up ~2/3 of the time.
        let trials = 30_000;
        let zeros = (0..trials)
            .filter(|_| inboxes.sample_one(0, &mut rng) == Some(Opinion::new(0)))
            .count();
        let frac = zeros as f64 / trials as f64;
        assert!((frac - 2.0 / 3.0).abs() < 0.02, "fraction {frac}");
        // Node 1 only ever received opinion 1.
        for _ in 0..100 {
            assert_eq!(inboxes.sample_one(1, &mut rng), Some(Opinion::new(1)));
        }
    }

    #[test]
    fn sample_without_replacement_is_exhaustive_at_full_size() {
        let inboxes = filled_inboxes();
        let mut rng = StdRng::seed_from_u64(2);
        // Sampling all 3 messages of node 0 returns exactly its counts.
        let s = inboxes.sample_without_replacement(0, 3, &mut rng).unwrap();
        assert_eq!(s, vec![2, 0, 1]);
        // Asking for more than was received fails.
        assert!(inboxes.sample_without_replacement(0, 4, &mut rng).is_none());
    }

    #[test]
    fn sample_without_replacement_has_hypergeometric_marginals() {
        // Node receives 6 copies of opinion 0 and 4 of opinion 1; sampling 5
        // without replacement, the expected number of opinion-0 copies is
        // 5 * 6/10 = 3.
        let mut inboxes = Inboxes::new(1, 2).unwrap();
        inboxes.deliver_many(0, 0, 6);
        inboxes.deliver_many(0, 1, 4);
        let mut rng = StdRng::seed_from_u64(3);
        let trials = 20_000;
        let mut sum = 0u64;
        for _ in 0..trials {
            let s = inboxes.sample_without_replacement(0, 5, &mut rng).unwrap();
            assert_eq!(s.iter().sum::<u32>(), 5);
            assert!(s[0] <= 6 && s[1] <= 4);
            sum += u64::from(s[0]);
        }
        let mean = sum as f64 / trials as f64;
        assert!((mean - 3.0).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn majority_breaks_ties_uniformly() {
        let mut rng = StdRng::seed_from_u64(4);
        assert_eq!(Inboxes::majority_of_counts(&[0, 0, 0], &mut rng), None);
        assert_eq!(
            Inboxes::majority_of_counts(&[1, 3, 2], &mut rng),
            Some(Opinion::new(1))
        );
        // Tie between opinions 0 and 2: each should win about half the time.
        let trials = 20_000;
        let zeros = (0..trials)
            .filter(|_| {
                Inboxes::majority_of_counts(&[4, 1, 4], &mut rng) == Some(Opinion::new(0))
            })
            .count();
        let frac = zeros as f64 / trials as f64;
        assert!((frac - 0.5).abs() < 0.02, "fraction {frac}");
    }

    #[test]
    fn hypergeometric_draw_edge_cases() {
        let mut rng = StdRng::seed_from_u64(5);
        assert_eq!(hypergeometric_draw(0, 10, 5, &mut rng), 0);
        assert_eq!(hypergeometric_draw(10, 10, 5, &mut rng), 5);
        assert_eq!(hypergeometric_draw(3, 3, 3, &mut rng), 3);
    }
}
