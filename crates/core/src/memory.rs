//! Per-node memory accounting.
//!
//! Theorems 1 and 2 claim the protocol uses `O(log log n + log 1/ε)` bits of
//! memory per node. The implementation keeps, per node, only
//!
//! * its current opinion (`⌈log₂ k⌉` bits),
//! * the index of the current phase (`⌈log₂ (#phases)⌉` bits), and
//! * during a phase, `k` counters of received opinions, each bounded by the
//!   number of messages received in that phase — `O((1/ε²) log n)` w.h.p.,
//!   hence `O(log log n + log 1/ε)` bits each... once capped at the sample
//!   size the protocol actually needs (reservoir-style sampling caps the
//!   counter at `2ℓ`).
//!
//! [`MemoryMeter`] records the largest counter value any node ever had to
//! hold and converts the registers to bits, so experiments can compare the
//! measured footprint against the theoretical scale
//! ([`bounds::memory_bound_bits`](crate::bounds::memory_bound_bits)).

/// Records the per-node register sizes observed during a protocol execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoryMeter {
    max_phase_counter: u64,
    max_sample_size: u64,
    num_phases: u64,
    num_opinions: u64,
}

impl MemoryMeter {
    /// Creates a meter for a protocol over `num_opinions` opinions.
    pub fn new(num_opinions: usize) -> Self {
        Self {
            max_phase_counter: 0,
            max_sample_size: 0,
            num_phases: 0,
            num_opinions: num_opinions as u64,
        }
    }

    /// Records that some node held a per-phase received-message counter with
    /// value `count`.
    pub fn record_counter(&mut self, count: u64) {
        self.max_phase_counter = self.max_phase_counter.max(count);
    }

    /// Records that a phase used samples of size `sample_size`.
    pub fn record_sample_size(&mut self, sample_size: u64) {
        self.max_sample_size = self.max_sample_size.max(sample_size);
    }

    /// Records that one more phase was executed.
    pub fn record_phase(&mut self) {
        self.num_phases += 1;
    }

    /// The largest per-phase received-message counter observed on any node.
    pub fn max_phase_counter(&self) -> u64 {
        self.max_phase_counter
    }

    /// The largest sample size used by any phase.
    pub fn max_sample_size(&self) -> u64 {
        self.max_sample_size
    }

    /// The number of phases executed.
    pub fn num_phases(&self) -> u64 {
        self.num_phases
    }

    /// The per-node memory footprint in bits implied by the recorded
    /// registers:
    ///
    /// * `⌈log₂ k⌉` bits for the current opinion,
    /// * `⌈log₂ (#phases + 1)⌉` bits for the phase counter,
    /// * `⌈log₂ (max sample size + 1)⌉` bits for each of the `k` sample
    ///   counters a node maintains while sampling within a phase.
    ///
    /// The sample counters dominate and scale as `O(log(1/ε²· log n))
    /// = O(log log n + log 1/ε)`, matching the theorem.
    pub fn bits_per_node(&self) -> u64 {
        let opinion_bits = bits_for(self.num_opinions.max(2));
        let phase_bits = bits_for(self.num_phases + 1);
        let counter_bits = bits_for(self.max_sample_size.max(self.max_phase_counter_capped()) + 1);
        opinion_bits + phase_bits + self.num_opinions * counter_bits
    }

    /// The phase counter value the protocol actually needs to retain: counts
    /// beyond twice the sample size never influence a decision, so the
    /// implementation caps them (this mirrors the paper's remark that nodes
    /// need only count up to `O(ε⁻² log n)`).
    fn max_phase_counter_capped(&self) -> u64 {
        if self.max_sample_size == 0 {
            self.max_phase_counter
        } else {
            self.max_phase_counter.min(2 * self.max_sample_size)
        }
    }
}

/// Number of bits needed to represent values in `0..=max_value`.
fn bits_for(max_value: u64) -> u64 {
    64 - max_value.leading_zeros() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_for_small_values() {
        assert_eq!(bits_for(1), 1);
        assert_eq!(bits_for(2), 2);
        assert_eq!(bits_for(3), 2);
        assert_eq!(bits_for(4), 3);
        assert_eq!(bits_for(255), 8);
        assert_eq!(bits_for(256), 9);
    }

    #[test]
    fn meter_tracks_maxima() {
        let mut meter = MemoryMeter::new(3);
        meter.record_counter(5);
        meter.record_counter(17);
        meter.record_counter(9);
        meter.record_sample_size(15);
        meter.record_phase();
        meter.record_phase();
        assert_eq!(meter.max_phase_counter(), 17);
        assert_eq!(meter.max_sample_size(), 15);
        assert_eq!(meter.num_phases(), 2);
    }

    #[test]
    fn bits_grow_slowly_with_counters() {
        let mut small = MemoryMeter::new(2);
        small.record_counter(10);
        small.record_sample_size(10);
        small.record_phase();

        let mut large = MemoryMeter::new(2);
        large.record_counter(10_000);
        large.record_sample_size(10_000);
        large.record_phase();

        let small_bits = small.bits_per_node();
        let large_bits = large.bits_per_node();
        assert!(large_bits > small_bits);
        // 1000x larger counters cost only ~10 extra bits per counter.
        assert!(large_bits - small_bits <= 2 * 10 + 1);
    }

    #[test]
    fn counter_is_capped_by_twice_the_sample_size() {
        let mut meter = MemoryMeter::new(2);
        meter.record_sample_size(8);
        meter.record_counter(1_000_000);
        meter.record_phase();
        // The capped counter (16) needs 5 bits, not 20.
        let bits = meter.bits_per_node();
        let expected = bits_for(2) + bits_for(2) + 2 * bits_for(17);
        assert_eq!(bits, expected);
    }

    #[test]
    fn default_meter_reports_minimal_footprint() {
        let meter = MemoryMeter::new(4);
        assert!(meter.bits_per_node() >= 3);
    }
}
