//! Deterministic parallel sweeps: derived per-cell seeds and one ordered
//! parallel map.
//!
//! Every `(point, repetition)` cell of a sweep gets a seed derived purely
//! from `(base_seed, point_index, rep)` by [`derive_seed`], and
//! [`par_map`] returns its results in index order whatever the thread
//! count or completion order, so a sweep's statistics are a function of
//! its inputs alone: running it across all cores produces exactly the
//! rows of a sequential loop.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

/// Derives the RNG seed of one `(point, repetition)` cell from the sweep's
/// base seed — a SplitMix64-style mix, so neighbouring cells get unrelated
/// streams.
pub fn derive_seed(base_seed: u64, point_index: usize, rep: u64) -> u64 {
    let mut z = base_seed
        .wrapping_add((point_index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(rep.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Maps `f` over `0..count` on one worker per available core and returns
/// the results in index order: exactly `(0..count).map(f).collect()`, for
/// an `f` whose result depends on its index alone.
///
/// Workers take the next index from a shared counter, so uneven jobs
/// balance themselves. The result vector grows as results arrive; nothing
/// is reserved up front, so a huge `count` costs memory only for the
/// results actually produced.
///
/// ```
/// use gossip_analysis::sweep::{derive_seed, par_map};
///
/// let seeds = par_map(8, |rep| derive_seed(42, 0, rep));
/// let sequential: Vec<u64> = (0..8).map(|rep| derive_seed(42, 0, rep)).collect();
/// assert_eq!(seeds, sequential);
/// ```
///
/// # Panics
///
/// Re-raises a panic of `f` once every worker has stopped.
pub fn par_map<T, F>(count: u64, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(u64) -> T + Sync,
{
    let workers = std::thread::available_parallelism()
        .map_or(1, |p| p.get() as u64)
        .min(count);
    let next = AtomicU64::new(0);
    let finished = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                if index >= count {
                    break;
                }
                let result = f(index);
                finished
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .push((index, result));
            });
        }
    });
    let mut results = finished
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    results.sort_unstable_by_key(|&(index, _)| index);
    results.into_iter().map(|(_, result)| result).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_seeds_are_deterministic_and_distinct() {
        assert_eq!(derive_seed(1, 2, 3), derive_seed(1, 2, 3));
        let mut seen = std::collections::HashSet::new();
        for base in 0..3u64 {
            for point in 0..10usize {
                for rep in 0..10u64 {
                    assert!(seen.insert(derive_seed(base, point, rep)));
                }
            }
        }
    }

    /// A deterministic pseudo-experiment: the result is a pure function of
    /// the index's derived seed, so the parallel and sequential maps must
    /// agree bit for bit.
    fn seed_driven(index: u64) -> (u64, f64) {
        let seed = derive_seed(42, (index / 16) as usize, index % 16);
        (seed, (seed % 1_000) as f64 / 1_000.0)
    }

    #[test]
    fn parallel_and_sequential_sweeps_agree_exactly() {
        let sequential: Vec<(u64, f64)> = (0..48).map(seed_driven).collect();
        assert_eq!(par_map(48, seed_driven), sequential);
    }

    #[test]
    fn sweep_visits_every_point_and_repetition() {
        // A 10-point × 7-rep sweep flattened to one index per cell: every
        // cell runs exactly once and the results come back in (point, rep)
        // order.
        let reps = 7;
        let visits: Vec<AtomicU64> = (0..70).map(|_| AtomicU64::new(0)).collect();
        let cells = par_map(70, |index| {
            visits[index as usize].fetch_add(1, Ordering::Relaxed);
            (index / reps, index % reps)
        });
        let expected: Vec<(u64, u64)> = (0..10)
            .flat_map(|point| (0..reps).map(move |rep| (point, rep)))
            .collect();
        assert_eq!(cells, expected);
        assert!(visits.iter().all(|v| v.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn run_par_visits_every_cell_once() {
        // Points 10 and 20, five reps each; later cells finish first, so
        // completion order differs from index order.
        let points = [10u64, 20];
        let reps = 5;
        let visits: Vec<AtomicU64> = (0..10).map(|_| AtomicU64::new(0)).collect();
        let values = par_map(10, |index| {
            visits[index as usize].fetch_add(1, Ordering::Relaxed);
            for _ in 0..(10 - index) {
                std::thread::yield_now();
            }
            points[(index / reps) as usize] + index % reps
        });
        assert!(visits.iter().all(|v| v.load(Ordering::Relaxed) == 1));
        assert_eq!(values, vec![10, 11, 12, 13, 14, 20, 21, 22, 23, 24]);
    }

    #[test]
    fn par_map_handles_empty_and_smaller_than_pool_counts() {
        assert!(par_map(0, |index| index).is_empty());
        assert_eq!(par_map(1, |index| index + 7), vec![7]);
        let workers = std::thread::available_parallelism().map_or(1, |p| p.get() as u64);
        let count = workers.saturating_sub(1).max(1);
        assert_eq!(
            par_map(count, |index| index * 2),
            (0..count).map(|i| i * 2).collect::<Vec<_>>()
        );
    }
}
