//! Fixed-seed parity tests for the baseline dynamics (`scenario =
//! dynamics`).
//!
//! `fixtures/dynamics_streams.txt` pins, section by section (each section
//! opens with a `# label` line):
//!
//! * the rows of `xp run t1 --json`, the protocol against the five rules;
//! * the streamed JSON lines of a dynamics spec for every rule on three
//!   backends (agent under exact delivery, counting and block-counting on
//!   `regular(8)` under Poissonized delivery), once as a summary and once
//!   with `observe.trajectory`;
//! * one spec that ends on `stop.bias` and one that ends on
//!   `stop.plateau`.
//!
//! Every round budget here (and t1's, the protocol's 1977-round schedule)
//! is a multiple of neither 3-majority's 6-round step nor
//! h-majority(15)'s 30-round step, so how a run treats a budget that ends
//! inside a step shows in its rows. Any drift in the seeds, the RNG
//! streams, the stop checks or the trial merge order fails this test.
//!
//! On a mismatch the rendered output is written next to the test binary's
//! scratch files (the path is in the failure message) for diffing.

use noisy_bench::registry;
use noisy_bench::runner::Runner;
use noisy_bench::{Cli, ScenarioSpec};
use opinion_dynamics::RuleSpec;

const FIXTURE: &str = include_str!("fixtures/dynamics_streams.txt");

/// The round budget of the per-rule specs.
const BUDGET: u64 = 47;

/// `(backend, delivery, topology)` of the per-rule specs.
const BACKENDS: [(&str, &str, &str); 3] = [
    ("agent", "exact", "complete"),
    ("counting", "poisson", "complete"),
    ("blockcounting", "poisson", "regular(8)"),
];

const STOP_BIAS_SPEC: &str = "\
scenario = dynamics
rule = 3-majority
bias = 0.2
n = 600
k = 2
epsilon = 0.5
noise = uniform(0.5)
backend = agent
rounds = 1001
trials = 3
seed = 43
stop.bias = 0.9
";

const STOP_PLATEAU_SPEC: &str = "\
scenario = dynamics
rule = voter
bias = 0.2
n = 20000
k = 3
epsilon = 0.3
noise = uniform(0.3)
delivery = poisson
backend = counting
rounds = 1001
trials = 1
seed = 44
observe.trajectory = true
stop.plateau = 4, 0.02
";

/// The per-rule spec on one backend, as a summary or a trajectory.
fn rule_spec(
    rule: RuleSpec,
    (backend, delivery, topology): (&str, &str, &str),
    trajectory: bool,
) -> String {
    let (trials, observe) = if trajectory {
        (1, "observe.trajectory = true\n")
    } else {
        (3, "")
    };
    format!(
        "scenario = dynamics\nrule = {rule}\nbias = 0.1\nn = 600\nk = 3\nepsilon = 0.25\n\
         noise = uniform(0.25)\ndelivery = {delivery}\ntopology = {topology}\n\
         backend = {backend}\nrounds = {BUDGET}\ntrials = {trials}\nseed = 41\n{observe}"
    )
}

/// The streamed JSON lines of one spec.
fn streamed(text: &str) -> String {
    let spec = ScenarioSpec::from_text(text).unwrap();
    let mut out = Vec::new();
    Runner::new(spec).unwrap().run_streamed(&mut out).unwrap();
    String::from_utf8(out).unwrap()
}

/// Every pinned section, labelled, in fixture order.
fn render() -> String {
    let mut sections = Vec::new();
    let cli = Cli {
        json: true,
        ..Cli::default()
    };
    let mut t1 = Vec::new();
    registry::run_to(registry::find("t1").unwrap(), &cli, &mut t1).unwrap();
    sections.push(("xp run t1 --json".to_string(), String::from_utf8(t1).unwrap()));
    for trajectory in [false, true] {
        for backend in BACKENDS {
            for rule in RuleSpec::ALL {
                let mode = if trajectory { "trajectory" } else { "summary" };
                let label = format!("{rule} {}/{}/{} {mode}", backend.0, backend.1, backend.2);
                sections.push((label, streamed(&rule_spec(rule, backend, trajectory))));
            }
        }
    }
    sections.push(("stop.bias".to_string(), streamed(STOP_BIAS_SPEC)));
    sections.push(("stop.plateau".to_string(), streamed(STOP_PLATEAU_SPEC)));
    let mut text = String::new();
    for (label, lines) in sections {
        text.push_str(&format!("# {label}\n{lines}"));
    }
    text
}

/// The fixture without its leading comment block.
fn pinned() -> String {
    let start = FIXTURE.find("\n# xp run t1").map_or(0, |i| i + 1);
    FIXTURE[start..].to_string()
}

#[test]
fn dynamics_rows_match_the_pinned_fixture() {
    let actual = render();
    let expected = pinned();
    if actual == expected {
        return;
    }
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("dynamics_streams.txt");
    std::fs::write(&path, &actual).unwrap();
    let mut section = "";
    for (line, (a, e)) in actual.lines().zip(expected.lines()).enumerate() {
        if e.starts_with("# ") {
            section = e;
        }
        assert_eq!(
            a,
            e,
            "line {} ({section}) differs; rendered output written to {}",
            line + 1,
            path.display()
        );
    }
    panic!(
        "rendered {} lines, the fixture has {}; rendered output written to {}",
        actual.lines().count(),
        expected.lines().count(),
        path.display()
    );
}

#[test]
fn the_stop_specs_end_before_their_budgets() {
    // Each stop spec pins its stop condition only if that condition, not
    // the 1001-round budget, ends the run.
    for text in [STOP_BIAS_SPEC, STOP_PLATEAU_SPEC] {
        let table = Runner::new(ScenarioSpec::from_text(text).unwrap())
            .unwrap()
            .run()
            .unwrap()
            .to_table();
        let rounds = table.column_index("rounds").unwrap();
        let cells = table.rows().iter().map(|row| row[rounds].parse::<f64>().unwrap());
        let executed = if text.contains("observe.trajectory") {
            cells.sum::<f64>()
        } else {
            cells.fold(0.0, f64::max)
        };
        assert!(executed < 1001.0, "{executed} rounds:\n{text}");
    }
}
