//! Fixed-seed parity tests for the protocol instances and harness paths
//! that `registry_parity.rs` (rumor spreading only) leaves unpinned.
//!
//! * `fixtures/plurality_agent_summary.jsonl` and
//!   `fixtures/stage2_agent_summary.jsonl` pin the summary rows of small
//!   plurality and Stage-2-only specs on the agent backend: the parallel
//!   trial harness, the per-trial reseeding and both counts-seeded
//!   instances, with a stop condition so the round and message means
//!   depend on every trial's RNG stream.
//! * `fixtures/fault_campaign_5_seeds.jsonl` pins the verdict table of
//!   `examples/specs/fault_campaign.spec` over 5 seeds per cell, and
//!   `fixtures/fault_campaign_replay.jsonl` the per-phase trajectory of
//!   that campaign's first failing seed.
//! * `fixtures/counting_fault_sweep_stream.jsonl` pins the streamed bytes
//!   of a fault sweep on the counting backend at n = 10⁵ (the sweep CI
//!   campaigns over): the count-level fault pools end to end. It was
//!   captured before the counting backend became the single-class case
//!   of the block-counting network.
//!
//! The fixtures were captured before the protocol's run methods collapsed
//! into `Session::run` and the harness's worker loops into one ordered
//! `par_map`; any drift in the seeds, the RNG streams or the merge order
//! fails these tests.

use noisy_bench::campaign::{self, CampaignOptions};
use noisy_bench::runner::Runner;
use noisy_bench::ScenarioSpec;

const PLURALITY_SUMMARY: &str = include_str!("fixtures/plurality_agent_summary.jsonl");
const STAGE2_SUMMARY: &str = include_str!("fixtures/stage2_agent_summary.jsonl");
const FAULT_CAMPAIGN: &str = include_str!("fixtures/fault_campaign_5_seeds.jsonl");
const FAULT_REPLAY: &str = include_str!("fixtures/fault_campaign_replay.jsonl");
const FAULT_CAMPAIGN_SPEC: &str = include_str!("../../../examples/specs/fault_campaign.spec");
const COUNTING_FAULT_SWEEP: &str = include_str!("fixtures/counting_fault_sweep_stream.jsonl");

const COUNTING_FAULT_SWEEP_SPEC: &str = "\
scenario = plurality
bias = 0.2
n = 100000
k = 3
epsilon = 0.3
delivery = poisson
backend = counting
seed = 23
sweep.fault = none, drop(0.1), dup(0.1), crash(0.05@3), byz(0.3:1)
";

const PLURALITY_SPEC: &str = "\
scenario = plurality
counts = 40, 30, 26
n = 400
k = 3
epsilon = 0.2
noise = uniform(0.2)
backend = agent
trials = 4
seed = 5
sweep.eps = 0.15, 0.25
stop.consensus = true
metrics = success, rounds, messages, stage1_bias, memory_bits, consensus, correct, share
";

const STAGE2_SPEC: &str = "\
scenario = stage2
counts = 215, 185
n = 400
k = 2
epsilon = 0.2
noise = uniform(0.2)
backend = agent
trials = 4
seed = 9
sweep.eps = 0.12, 0.3
stop.consensus = true
metrics = success, rounds, messages, consensus, correct, share
";

fn summary_json(text: &str) -> String {
    let spec = ScenarioSpec::from_text(text).unwrap();
    let report = Runner::new(spec).unwrap().run().unwrap();
    report.to_table().to_json_lines()
}

fn fault_campaign() -> (ScenarioSpec, CampaignOptions) {
    let spec = ScenarioSpec::from_text(FAULT_CAMPAIGN_SPEC).unwrap();
    let options = CampaignOptions {
        seeds: 5,
        ..CampaignOptions::default()
    };
    (spec, options)
}

#[test]
fn plurality_summary_rows_match_the_pinned_fixture() {
    assert_eq!(summary_json(PLURALITY_SPEC), PLURALITY_SUMMARY);
}

#[test]
fn stage2_summary_rows_match_the_pinned_fixture() {
    assert_eq!(summary_json(STAGE2_SPEC), STAGE2_SUMMARY);
}

#[test]
fn fault_campaign_table_and_replay_match_the_pinned_fixtures() {
    let (spec, options) = fault_campaign();
    let report = campaign::run_campaign(&spec, &options).unwrap();
    assert_eq!(report.to_table().to_json_lines(), FAULT_CAMPAIGN);

    let failure = report
        .cells()
        .iter()
        .find_map(|cell| cell.first_failure.as_ref())
        .expect("the Byzantine cell fails");
    let replayed = campaign::replay(&spec, &options, failure.seed).unwrap();
    assert_eq!(replayed.trajectory.to_table().to_json_lines(), FAULT_REPLAY);
    let rendered: Vec<String> = replayed.violations.iter().map(|v| v.to_string()).collect();
    let expected: Vec<String> = failure.violations.iter().map(|v| v.to_string()).collect();
    assert_eq!(
        rendered, expected,
        "the replay reproduces the campaign's violations"
    );
}

#[test]
fn counting_fault_sweep_streams_the_pinned_bytes() {
    let spec = ScenarioSpec::from_text(COUNTING_FAULT_SWEEP_SPEC).unwrap();
    let mut streamed = Vec::new();
    Runner::new(spec)
        .unwrap()
        .run_streamed(&mut streamed)
        .unwrap();
    assert_eq!(String::from_utf8(streamed).unwrap(), COUNTING_FAULT_SWEEP);
}
