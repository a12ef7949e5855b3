//! Small numeric helpers: order statistics, digests and
//! the `/v1/stats` delta parser.

/// The median of `samples` (mean of the two middle values for an even
/// count); `NaN` when empty.
pub fn median(samples: &[f64]) -> f64 {
    let sorted = sorted(samples);
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The nearest-rank `pct`-th percentile of `samples` (the smallest value
/// with at least `pct` % of the samples at or below it); `NaN` when empty.
pub fn percentile(samples: &[f64], pct: f64) -> f64 {
    let sorted = sorted(samples);
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[rank(sorted.len(), pct) - 1]
}

/// The samples a tail percentile needs beyond it to be resolved.
pub const TAIL_MIN_BEYOND: usize = 10;

/// How many of `n` samples lie strictly beyond the nearest-rank
/// `pct`-th percentile.
pub fn beyond(n: usize, pct: f64) -> usize {
    n - rank(n, pct).min(n)
}

/// One-based nearest rank of `pct` among `n` samples.
fn rank(n: usize, pct: f64) -> usize {
    ((pct / 100.0 * n as f64).ceil() as usize).clamp(1, n.max(1))
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// 64-bit FNV-1a, the digest the benchmark pins outputs with.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The `/v1/stats` counters the benchmark reads.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    pub failed: u64,
    pub coalesced: u64,
    pub rejected: u64,
    pub hits: u64,
    pub misses: u64,
    pub cell_hits: u64,
    pub cell_misses: u64,
    pub evictions: u64,
}

impl ServerStats {
    /// Parses the counters out of a `/v1/stats` body. Keys are matched
    /// with their quotes, so `"misses"` never matches `"cell_misses"`.
    pub fn parse(body: &str) -> Result<ServerStats, String> {
        let field = |key: &str| -> Result<u64, String> {
            let needle = format!("\"{key}\":");
            let at = body
                .find(&needle)
                .ok_or_else(|| format!("/v1/stats has no {key:?}: {body}"))?;
            let digits: String = body[at + needle.len()..]
                .chars()
                .take_while(char::is_ascii_digit)
                .collect();
            digits
                .parse()
                .map_err(|_| format!("/v1/stats {key:?} is not a count: {body}"))
        };
        Ok(ServerStats {
            failed: field("failed")?,
            coalesced: field("coalesced")?,
            rejected: field("rejected")?,
            hits: field("hits")?,
            misses: field("misses")?,
            cell_hits: field("cell_hits")?,
            cell_misses: field("cell_misses")?,
            evictions: field("evictions")?,
        })
    }

    /// Counter growth from `before` to `self`.
    pub fn since(&self, before: &ServerStats) -> ServerStats {
        ServerStats {
            failed: self.failed.saturating_sub(before.failed),
            coalesced: self.coalesced.saturating_sub(before.coalesced),
            rejected: self.rejected.saturating_sub(before.rejected),
            hits: self.hits.saturating_sub(before.hits),
            misses: self.misses.saturating_sub(before.misses),
            cell_hits: self.cell_hits.saturating_sub(before.cell_hits),
            cell_misses: self.cell_misses.saturating_sub(before.cell_misses),
            evictions: self.evictions.saturating_sub(before.evictions),
        }
    }
}

/// `part / (part + rest)`, or 0 when both are 0.
pub fn ratio(part: u64, rest: u64) -> f64 {
    if part + rest == 0 {
        0.0
    } else {
        part as f64 / (part + rest) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_unsorted_input() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&samples, 50.0), 50.0);
        assert_eq!(percentile(&samples, 99.0), 99.0);
        assert_eq!(percentile(&samples, 100.0), 100.0);
        assert_eq!(percentile(&[5.0, 1.0], 99.0), 5.0);
    }

    #[test]
    fn beyond_counts_the_samples_past_the_nearest_rank() {
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(beyond(999, 99.0), 9, "p99 needs 1000 samples to resolve");
        assert_eq!(beyond(100, 90.0), 10);
        assert_eq!(beyond(50, 80.0), 10);
        assert_eq!(beyond(20, 50.0), 10);
        assert_eq!(beyond(19, 50.0), 9);
        assert_eq!(beyond(0, 50.0), 0);
        let samples: Vec<f64> = (1..=50).map(f64::from).collect();
        let p80 = percentile(&samples, 80.0);
        let past = samples.iter().filter(|&&v| v > p80).count();
        assert_eq!(past, beyond(samples.len(), 80.0));
    }

    #[test]
    fn stats_parser_reads_every_counter_and_deltas_saturate() {
        let body = "{\"queue_depth\":0,\"queue_capacity\":64,\"in_flight\":1,\"workers\":2,\
\"shutting_down\":false,\"jobs\":{\"submitted\":12,\"completed\":10,\"failed\":1,\
\"coalesced\":2,\"rejected\":3},\"cache\":{\"hits\":40,\"misses\":7,\"cell_hits\":5,\
\"cell_misses\":9,\"evictions\":4,\"bytes\":100,\"entries\":3,\"budget\":1000}}";
        let after = ServerStats::parse(body).expect("parses");
        assert_eq!(after.failed, 1);
        assert_eq!(after.coalesced, 2);
        assert_eq!(after.rejected, 3);
        assert_eq!(after.hits, 40);
        assert_eq!(after.misses, 7, "\"misses\" must not match \"cell_misses\"");
        assert_eq!(after.cell_hits, 5);
        assert_eq!(after.cell_misses, 9);
        assert_eq!(after.evictions, 4);

        let before = ServerStats {
            hits: 30,
            misses: 7,
            cell_misses: 10,
            ..after
        };
        let delta = after.since(&before);
        assert_eq!((delta.hits, delta.misses, delta.cell_misses), (10, 0, 0));
        assert_eq!(ratio(delta.hits, delta.misses), 1.0);
        assert_eq!(ratio(0, 0), 0.0);

        assert!(ServerStats::parse("{\"jobs\":{}}").is_err());
    }

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
