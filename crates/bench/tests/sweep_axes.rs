//! Pins of the twelve sweep axes, recorded on the code before they were
//! declared in one table.
//!
//! * The verdict matrix: which of seven base specs accept each sweep axis,
//!   and each base value only some kinds may move off its default.
//! * One spec per kind family, sweeping every axis its kind accepts with
//!   two values each: its canonical text and digest, its header row, and
//!   a digest of its whole grid in grid order (every point's index, axis
//!   cells and sweep-cell key).

use noisy_bench::runner::{axis_cells, expand_grid, headers};
use noisy_bench::service::cell_spec;
use noisy_bench::spec::ScenarioSpec;

/// One base spec per scenario kind and initial configuration.
const BASES: [(&str, &str); 7] = [
    ("rumor", "scenario = rumor\nn = 1024\nk = 3\nepsilon = 0.3\n"),
    ("plurality(bias)", "scenario = plurality\nbias = 0.2\nn = 1024\nk = 3\nepsilon = 0.3\n"),
    (
        "plurality(counts)",
        "scenario = plurality\ncounts = 500, 300, 224\nn = 1024\nk = 3\nepsilon = 0.3\n",
    ),
    ("stage2", "scenario = stage2\nbias = 0.2\nn = 1024\nk = 3\nepsilon = 0.3\n"),
    ("dynamics", "scenario = dynamics\nrule = voter\nbias = 0.2\nn = 1024\nk = 3\nepsilon = 0.3\n"),
    ("gap", "scenario = gap\nell = 25\ndelta = 0.1\nn = 1024\nk = 3\n"),
    (
        "phase",
        "scenario = phase\nrounds = 5\ncounts = 500, 300, 224\nn = 1024\nk = 3\nepsilon = 0.3\n",
    ),
];

/// The keys tried on every base: the twelve sweep axes in grid order,
/// then the five base values that only some kinds may move off their
/// defaults.
const KEYS: [&str; 17] = [
    "sweep.k = 2, 3",
    "sweep.n = 1024, 4096",
    "sweep.eps = 0.2, 0.3",
    "sweep.bias = 0.1, 0.2",
    "sweep.ell = 9, 25",
    "sweep.delta = 0.05, 0.2",
    "sweep.delivery = exact, balls",
    "sweep.topology = complete, ring",
    "sweep.fault = none, drop(0.1)",
    "sweep.churn = none, leave(0.1)",
    "sweep.schedule = const, step(0.4@2)",
    "sweep.clock = sync, drift(20000)",
    "topology = ring",
    "fault = drop(0.1)",
    "churn = leave(0.1)",
    "schedule = step(0.4@2)",
    "clock = drift(20000)",
];

/// Whether `ScenarioSpec::from_text` accepts each base plus each key, in
/// `KEYS` order: `A` accepted, `r` refused.
const VERDICTS: [(&str, &str); 7] = [
    ("rumor", "AAArrrrAAAAAAAAAA"),
    ("plurality(bias)", "AAAArrrAAAAAAAAAA"),
    ("plurality(counts)", "rAArrrrAAAAAAAAAA"),
    ("stage2", "AAAArrrAAAAAAAAAA"),
    ("dynamics", "AAAArrrArrrrArrrr"),
    ("gap", "ArrrAArrrrrrrrrrr"),
    ("phase", "rrrrrrAArrrrArrrr"),
];

#[test]
fn each_kind_accepts_the_axes_it_accepted_before() {
    let mut found = Vec::new();
    for (name, base) in BASES {
        ScenarioSpec::from_text(base).unwrap_or_else(|e| panic!("base {name}: {e}"));
        let verdicts: String = KEYS
            .iter()
            .map(|key| match ScenarioSpec::from_text(&format!("{base}{key}\n")) {
                Ok(_) => 'A',
                Err(_) => 'r',
            })
            .collect();
        found.push((name, verdicts));
    }
    let want: Vec<(&str, String)> =
        VERDICTS.iter().map(|&(name, v)| (name, v.to_string())).collect();
    assert_eq!(found, want, "verdicts changed");
    let accepted = VERDICTS.iter().flat_map(|(_, v)| v.chars()).filter(|&c| c == 'A').count();
    assert_eq!((accepted, 7 * KEYS.len() - accepted), (65, 54));
}

/// FNV-1a 64 over `bytes`, continuing from `hash`.
fn fnv1a64(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The number of grid points and a digest of, for every point in grid
/// order, its index, its axis cells and its sweep-cell spec's digest.
fn grid_digest(spec: &ScenarioSpec) -> (usize, u64) {
    let points = expand_grid(spec);
    let mut hash = 0xcbf2_9ce4_8422_2325;
    for point in &points {
        hash = fnv1a64(hash, &(point.index as u64).to_le_bytes());
        for cell in axis_cells(spec, point) {
            hash = fnv1a64(hash, cell.as_bytes());
            hash = fnv1a64(hash, &[0x1f]);
        }
        hash = fnv1a64(hash, &cell_spec(spec, point).canonical_digest().to_le_bytes());
    }
    (points.len(), hash)
}

/// A canonical spec text with its digest, header row, point count and
/// grid digest.
struct Pin {
    text: &'static str,
    digest: u64,
    headers: &'static [&'static str],
    points: usize,
    grid: u64,
}

fn check(pin: &Pin) {
    let spec = ScenarioSpec::from_text(pin.text).expect("pinned spec parses");
    let found = (
        spec.to_text(),
        spec.canonical_digest(),
        headers(&spec),
        grid_digest(&spec),
    );
    let want = (
        pin.text.to_string(),
        pin.digest,
        pin.headers.iter().map(|h| h.to_string()).collect::<Vec<_>>(),
        (pin.points, pin.grid),
    );
    assert_eq!(found, want, "{:#x} {:#x}", found.1, (found.3).1);
}

/// Plurality from a bias sweeps the nine axes its kind accepts. Faults and
/// population churn need the complete graph, so both topology entries are
/// `complete`, moved off the base `ring`.
#[test]
fn a_plurality_sweep_over_nine_axes_is_pinned() {
    check(&Pin {
        text: "\
scenario = plurality
bias = 0.2
n = 1024
k = 3
epsilon = 0.3
noise = uniform(0.3)
delivery = exact
topology = ring
backend = auto
trials = 2
seed = 5
sweep.k = 2, 3
sweep.n = 1024, 4096
sweep.eps = 0.2, 0.3
sweep.bias = 0.1, 0.25
sweep.topology = complete, complete
sweep.fault = none, drop(0.1)
sweep.churn = none, leave(0.1)
sweep.schedule = const, step(0.4@2)
sweep.clock = sync, drift(20000)
",
        digest: 0x1881_cad9_b47f_15de,
        headers: &[
            "k",
            "n",
            "eps",
            "bias",
            "topology",
            "fault",
            "churn",
            "schedule",
            "clock",
            "success",
            "rounds",
            "rounds / (ln n / eps^2)",
            "messages",
        ],
        points: 512,
        grid: 0xac1c_5fbf_2bfe_79b5,
    });
}

#[test]
fn a_gap_sweep_over_k_ell_and_delta_is_pinned() {
    check(&Pin {
        text: "\
scenario = gap
ell = 25
delta = 0.1
n = 100
k = 3
epsilon = 0.2
noise = uniform(0.2)
delivery = exact
topology = complete
backend = auto
trials = 100
seed = 7
sweep.k = 2, 3
sweep.ell = 9, 25
sweep.delta = 0.05, 0.2
",
        digest: 0x2a0c_1c9b_8a3e_e056,
        headers: &[
            "k",
            "ell",
            "delta",
            "measured gap",
            "Prop.1 bound",
            "exact (k=2)",
            "bound holds",
        ],
        points: 8,
        grid: 0x0cd5_cbf5_27f1_b437,
    });
}

/// Process B runs only on the complete graph, so both topology entries
/// are `complete`, moved off the base `ring`.
#[test]
fn a_phase_sweep_over_delivery_and_topology_is_pinned() {
    check(&Pin {
        text: "\
scenario = phase
counts = 200, 100
rounds = 5
n = 400
k = 2
epsilon = 0.3
noise = uniform(0.3)
delivery = exact
topology = ring
backend = auto
trials = 3
seed = 9
sweep.delivery = exact, balls
sweep.topology = complete, complete
",
        digest: 0x8b27_915e_01d7_2513,
        headers: &[
            "delivery",
            "topology",
            "total received",
            "mean recv/node",
            "var recv/node",
            "frac >=1 msg",
            "adopters of opinion 0",
        ],
        points: 4,
        grid: 0xf76f_50a2_60dc_3aef,
    });
}

/// Trajectory rows end with their own `topology` column, so a swept
/// topology shows no axis column there.
#[test]
fn a_trajectory_sweep_shows_no_topology_axis_column() {
    check(&Pin {
        text: "\
scenario = rumor
source = 0
n = 400
k = 2
epsilon = 0.3
noise = uniform(0.3)
delivery = exact
topology = complete
backend = auto
trials = 1
seed = 3
sweep.eps = 0.3, 0.4
sweep.topology = complete, ring
observe.trajectory = true
",
        digest: 0xd98f_1146_00f7_797c,
        headers: &[
            "eps",
            "stage",
            "phase",
            "rounds",
            "opinionated",
            "bias",
            "amplification",
            "topology",
        ],
        points: 4,
        grid: 0x30d6_d69d_f806_fa29,
    });
}
