//! Fixed-seed parity tests: the spec-API registry reproduces the
//! pre-redesign harnesses bit for bit.
//!
//! `fixtures/f2_quick_pre_redesign.jsonl` pins the numbers of the old
//! hand-wired `fig_f2_rounds_vs_eps` binary (quick grid, default
//! backend), captured immediately before the binaries were collapsed into
//! the registry. `fixtures/f5_quick_pre_redesign.jsonl` pins the `xp run
//! f5 --json` output of the *bespoke* F5 builder, captured immediately
//! before F5 became a `ScenarioSpec` with `observe.trajectory` — it pins
//! the whole observation path (Session → Observer → TrajectoryRecorder →
//! table) to the pre-redesign execution: same seeds, same RNG streams,
//! same per-phase numbers.
//!
//! Both fixtures were re-rendered (numbers verified unchanged field by
//! field) when `--json` switched from all-string cells to typed JSON
//! numbers and the trajectory table gained its `topology` column; the
//! *values* are still the pre-redesign ones, so any drift in the RNG
//! streams or the execution path fails these tests.
//!
//! Running the registry specs through the generic [`Runner`] must produce
//! identical rows in both cases.
//!
//! `fixtures/{churn,burst,topoxl}_quick.jsonl` pin the quick `xp run
//! <name> --json` bytes of the three count-level entries perfbench's
//! counting-stream workload runs: their Stage-2 decisions take the BTRS
//! binomial path and cross `sample_majority_splits`' exact-draw cap into
//! the bulk split, which the n = 10⁴, ℓ = 3 count-level fixture never
//! reaches.

use noisy_bench::registry;
use noisy_bench::runner::Runner;
use noisy_bench::Scale;

const F2_PRE_REDESIGN: &str = include_str!("fixtures/f2_quick_pre_redesign.jsonl");
const F5_PRE_REDESIGN: &str = include_str!("fixtures/f5_quick_pre_redesign.jsonl");
const CHURN_QUICK: &str = include_str!("fixtures/churn_quick.jsonl");
const BURST_QUICK: &str = include_str!("fixtures/burst_quick.jsonl");
const TOPOXL_QUICK: &str = include_str!("fixtures/topoxl_quick.jsonl");

fn registry_json(name: &str) -> String {
    let experiment = registry::find(name).expect("experiment is registered");
    let spec = experiment.spec(Scale::Quick).expect("experiment is spec-backed");
    let report = Runner::new(spec).unwrap().run().unwrap();
    report.to_table().to_json_lines()
}

#[test]
fn f2_registry_run_matches_the_pre_redesign_binary_output() {
    assert_eq!(
        registry_json("f2"),
        F2_PRE_REDESIGN,
        "registry f2 must reproduce the pre-redesign binary bit for bit"
    );
}

#[test]
fn f5_trajectory_spec_matches_the_pre_redesign_bespoke_output() {
    assert_eq!(
        registry_json("f5"),
        F5_PRE_REDESIGN,
        "the observe.trajectory spec must reproduce the bespoke F5 builder bit for bit"
    );
}

#[test]
fn f5_streamed_output_matches_the_pinned_fixture_too() {
    // `--stream` must emit exactly the same rows, just incrementally.
    let spec = registry::find("f5")
        .unwrap()
        .spec(Scale::Quick)
        .unwrap();
    let mut out = Vec::new();
    Runner::new(spec).unwrap().run_streamed(&mut out).unwrap();
    assert_eq!(String::from_utf8(out).unwrap(), F5_PRE_REDESIGN);
}

#[test]
fn scale_spec_reproduces_the_bespoke_scale_numbers() {
    // The rounds, messages and 1/1 success the bespoke `scale` table
    // printed (seed 7, n = 10⁶ and 10⁷, 40/30/30 split, Poissonized
    // delivery on the counting backend) before it became a plurality spec.
    assert_eq!(
        registry_json("scale"),
        "{\"n\":1000000,\"rounds\":4010,\"messages\":4.01e9,\"mean plurality share\":1.000,\
         \"success\":\"1/1 = 1.000 [0.207, 1.000]\"}\n\
         {\"n\":10000000,\"rounds\":4710,\"messages\":4.71e10,\"mean plurality share\":1.000,\
         \"success\":\"1/1 = 1.000 [0.207, 1.000]\"}\n"
    );
}

#[test]
fn count_level_entries_reproduce_their_pinned_bytes() {
    for (name, pinned) in [
        ("churn", CHURN_QUICK),
        ("burst", BURST_QUICK),
        ("topoxl", TOPOXL_QUICK),
    ] {
        assert_eq!(registry_json(name), pinned, "quick `xp run {name} --json`");
    }
}
