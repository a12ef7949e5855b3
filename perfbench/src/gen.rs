//! Workload generation: every spec text, per-op base seed and serve-mix
//! op order is a pure function of the workload seed.
//!
//! Generation hashes `(workload seed, stream, index)` with
//! [`derive_seed`], so op `i` of a workload never depends on how many
//! ops a run gets through, and no RNG state is shared between streams.

use gossip_analysis::sweep::derive_seed;
use noisy_bench::registry;
use noisy_bench::service::cell_spec;
use noisy_bench::{runner, Scale, ScenarioSpec};

/// The workload seed when `--seed` is not given. The pinned output
/// digests in [`crate::expected`] are for this seed.
pub const DEFAULT_SEED: u64 = 1;

// Hash streams of one workload seed. Within a workload every input draws
// from its own stream; counting-stream's three specs use streams 2-4,
// which only serve-mix reuses.
const AGENT_STREAM: usize = 1;
const COUNTING_STREAM: usize = 2;
const HIT_STREAM: usize = 3;
const CELL_STREAM: usize = 4;
const MISS_STREAM: usize = 5;
const MIX_STREAM: usize = 6;
const PICK_STREAM: usize = 7;

/// Seeds each agent-campaign op runs (`xp campaign --seeds 64`).
pub const CAMPAIGN_SEEDS: u64 = 64;

/// The agent-campaign spec: rumor spreading at n = 2000, k = 2, with
/// ε = 0.2 and exact delivery, which `backend = auto` resolves to the agent
/// backend. Only the base seed varies between ops.
///
/// One cell of k = 2, not a `k = 2, 3` sweep: at k = 3 stage 1 ends with a
/// bias only ≈ 3.9 standard deviations above 0 (mean 0.099, sd 0.026 over
/// 300 runs), so about one run in 10⁴ converges on a wrong opinion and
/// fails its campaign; at k = 2 the margin is ≈ 5 standard deviations.
pub fn campaign_spec_text(seed: u64) -> String {
    format!(
        "scenario = rumor\nsource = 0\nn = 2000\nk = 2\nepsilon = 0.2\nnoise = uniform(0.2)\n\
         delivery = exact\ntopology = complete\nbackend = auto\ntrials = 1\nseed = {seed}\n"
    )
}

/// Base seed of agent-campaign op `i`.
pub fn campaign_op_seed(workload_seed: u64, i: u64) -> u64 {
    derive_seed(workload_seed, AGENT_STREAM, i)
}

/// Seeds per cell of the small campaign each agent-campaign set-up runs
/// once, untimed.
pub const CAMPAIGN_WARMUP_SEEDS: u64 = 8;

/// Base seed of the set-up ops. It is fixed, not drawn from the workload
/// seed, so set-up does the same work in every run.
pub const WARMUP_SEED: u64 = 0x0005_E70B;

/// Registry specs the counting-stream workload rotates through, in op order.
pub const COUNTING_SPECS: [&str; 3] = ["churn", "burst", "topoxl"];

/// Spec text of the counting-stream op that runs `COUNTING_SPECS[which]`:
/// the quick-scale registry spec, reseeded from the workload seed. Op `i`
/// runs `which = i % 3`, so every whole triple of ops is the same mix.
pub fn counting_op_text(workload_seed: u64, which: usize) -> String {
    let mut spec = registry_spec(COUNTING_SPECS[which]);
    spec.seed = derive_seed(workload_seed, COUNTING_STREAM + which, 0);
    spec.to_text()
}

/// The small untimed op of a counting-stream set-up: the churn spec's
/// static point at n = 10⁵.
pub fn counting_warmup_text() -> String {
    let mut spec = registry_spec("churn");
    spec.n = 100_000;
    spec.sweep.churn.truncate(1);
    spec.seed = WARMUP_SEED;
    spec.to_text()
}

fn registry_spec(name: &str) -> ScenarioSpec {
    registry::find(name)
        .and_then(|e| e.spec(Scale::Quick))
        .unwrap_or_else(|| panic!("registry entry {name} is spec-backed"))
}

/// Sweeps in the serve-mix hit set (the bodies the set-up caches).
pub const HIT_SPECS: u64 = 16;
/// ε points per hit-set sweep; every point is a cacheable sweep cell.
pub const HIT_POINTS: u64 = 64;

/// One serve-mix operation: which body is posted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ServeOp {
    /// Resubmit hit-set sweep `h` (whole-run cache hit).
    Hit(u64),
    /// Submit the single-point spec of pool cell `c` (a cell of a cached
    /// sweep: a sweep-cell hit).
    Cell(u64),
    /// Submit fresh spec `m` (computes on a worker).
    Miss(u64),
}

/// Hit-set sweep `h`: small rumor-spreading sweeps whose cells the
/// cell-hit ops reuse.
pub fn hit_text(workload_seed: u64, h: u64) -> String {
    let eps: Vec<String> = (0..HIT_POINTS)
        .map(|p| format!("{:.3}", 0.3 + 0.002 * p as f64))
        .collect();
    format!(
        "scenario = rumor\nsource = 0\nn = 200\nk = 2\nepsilon = 0.3\nnoise = uniform(0.3)\n\
         delivery = exact\nbackend = auto\ntrials = 1\nseed = {}\nsweep.eps = {}\n",
        derive_seed(workload_seed, HIT_STREAM, h),
        eps.join(", ")
    )
}

/// The pool of cell-hit bodies: the single-point specs of every hit-set
/// sweep cell, in a seed-shuffled order. Each is posted at most once per
/// run, so each is a whole-run miss that is answered from cached cells.
pub fn cell_pool(workload_seed: u64) -> Vec<String> {
    let mut keyed: Vec<(u64, String)> = Vec::new();
    for h in 0..HIT_SPECS {
        let spec = ScenarioSpec::from_text(&hit_text(workload_seed, h))
            .expect("generated hit specs parse");
        for point in runner::expand_grid(&spec) {
            let text = cell_spec(&spec, &point).to_text();
            let key = derive_seed(workload_seed, CELL_STREAM, keyed.len() as u64);
            keyed.push((key, text));
        }
    }
    keyed.sort();
    keyed.into_iter().map(|(_, text)| text).collect()
}

/// Fresh spec `m`: a small agent-backed sweep (n = 500, two ε points, two
/// trials) never posted before in the run.
pub fn miss_text(workload_seed: u64, m: u64) -> String {
    format!(
        "scenario = rumor\nsource = 0\nn = 500\nk = 2\nepsilon = 0.2\nnoise = uniform(0.2)\n\
         delivery = exact\nbackend = auto\ntrials = 2\nseed = {}\nsweep.eps = 0.2, 0.25\n",
        derive_seed(workload_seed, MISS_STREAM, m)
    )
}

/// The serve-mix op sequence: ≈ 80 % hits, ≈ 10 % cell hits (while the
/// pool of `cells` lasts; then hits) and ≈ 10 % misses, in seed order.
pub fn serve_ops(workload_seed: u64, len: usize, cells: usize) -> Vec<ServeOp> {
    let mut next_cell = 0u64;
    let mut next_miss = 0u64;
    (0..len as u64)
        .map(|i| {
            let roll = derive_seed(workload_seed, MIX_STREAM, i) % 100;
            let hit = ServeOp::Hit(derive_seed(workload_seed, PICK_STREAM, i) % HIT_SPECS);
            if roll < 80 {
                hit
            } else if roll < 90 {
                if next_cell < cells as u64 {
                    next_cell += 1;
                    ServeOp::Cell(next_cell - 1)
                } else {
                    hit
                }
            } else {
                next_miss += 1;
                ServeOp::Miss(next_miss - 1)
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every generated input of one workload seed, as one byte string.
    fn op_list(seed: u64) -> String {
        let mut out = String::new();
        for i in 0..4 {
            out.push_str(&campaign_spec_text(campaign_op_seed(seed, i)));
        }
        for which in 0..COUNTING_SPECS.len() {
            out.push_str(&counting_op_text(seed, which));
        }
        out.push_str(&counting_warmup_text());
        let cells = cell_pool(seed);
        for op in serve_ops(seed, 500, cells.len()) {
            out.push_str(&match op {
                ServeOp::Hit(h) => hit_text(seed, h),
                ServeOp::Cell(c) => cells[c as usize].clone(),
                ServeOp::Miss(m) => miss_text(seed, m),
            });
        }
        out
    }

    #[test]
    fn one_seed_yields_the_same_op_list_and_another_seed_a_different_one() {
        assert_eq!(op_list(DEFAULT_SEED), op_list(DEFAULT_SEED));
        assert_ne!(op_list(DEFAULT_SEED), op_list(DEFAULT_SEED + 1));
        assert_ne!(
            serve_ops(DEFAULT_SEED, 200, 1024),
            serve_ops(DEFAULT_SEED + 1, 200, 1024)
        );
    }

    #[test]
    fn generated_specs_parse_and_validate() {
        let texts = [
            campaign_spec_text(campaign_op_seed(9, 0)),
            counting_op_text(9, 0),
            counting_op_text(9, 1),
            counting_op_text(9, 2),
            counting_warmup_text(),
            hit_text(9, 0),
            miss_text(9, 0),
        ];
        for text in texts {
            let spec = ScenarioSpec::from_text(&text).expect("parses");
            spec.validate().expect("validates");
        }
    }

    #[test]
    fn serve_mix_has_the_documented_shares_and_distinct_cells() {
        let ops = serve_ops(DEFAULT_SEED, 10_000, 1_000_000);
        let share = |f: fn(&ServeOp) -> bool| ops.iter().filter(|o| f(o)).count() as f64 / 1e4;
        assert!((share(|o| matches!(o, ServeOp::Hit(_))) - 0.8).abs() < 0.02);
        assert!((share(|o| matches!(o, ServeOp::Cell(_))) - 0.1).abs() < 0.02);
        assert!((share(|o| matches!(o, ServeOp::Miss(_))) - 0.1).abs() < 0.02);

        let pool = cell_pool(DEFAULT_SEED);
        assert_eq!(pool.len() as u64, HIT_SPECS * HIT_POINTS);
        let mut unique = pool.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), pool.len(), "every cell-hit body is distinct");

        let capped = serve_ops(DEFAULT_SEED, 10_000, 5);
        let cells = capped
            .iter()
            .filter(|o| matches!(o, ServeOp::Cell(_)))
            .count();
        assert_eq!(cells, 5, "an exhausted pool turns cell ops into hits");
    }
}
