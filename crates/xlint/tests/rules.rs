//! Fixture-driven rule validation.
//!
//! Every file under `tests/fixtures/bad/` produces exactly its
//! expected `(rule, line)` findings when analyzed at a representative
//! workspace path; every file under `tests/fixtures/good/` is clean.
//! The fixture directory is excluded from the real lint walk (the
//! driver skips `fixtures/`), so the corpus can violate rules freely.

use xlint::analyze_source;

/// Runs a fixture as if it lived at `path` and returns `(code, line)`
/// pairs, sorted.
fn findings(path: &str, src: &str) -> Vec<(String, u32)> {
    let mut out: Vec<(String, u32)> = analyze_source(path, src)
        .into_iter()
        .map(|d| (d.rule.code().to_string(), d.line))
        .collect();
    out.sort();
    out
}

fn expect(path: &str, src: &str, want: &[(&str, u32)]) {
    let got = findings(path, src);
    let want: Vec<(String, u32)> =
        want.iter().map(|(c, l)| (c.to_string(), *l)).collect();
    assert_eq!(got, want, "findings mismatch for {path}");
}

#[test]
fn bad_sim_determinism() {
    // Sim crates: clocks and OS entropy are flagged even in tests.
    expect(
        "crates/pushsim/src/sim_determinism.rs",
        include_str!("fixtures/bad/sim_determinism.rs"),
        &[("R1", 6), ("R1", 11), ("R1", 19)],
    );
}

#[test]
fn bad_harness_rng() {
    // Harness crates: prod-only R1; R2 ignores test code entirely.
    expect(
        "crates/bench/src/harness_rng.rs",
        include_str!("fixtures/bad/harness_rng.rs"),
        &[("R1", 10), ("R2", 6)],
    );
}

#[test]
fn bad_map_order() {
    // Both mentions on the declaration line flag; the `use` line is
    // skipped so one waiver per use-site suffices.
    expect(
        "crates/core/src/map_order.rs",
        include_str!("fixtures/bad/map_order.rs"),
        &[("R3", 6), ("R3", 6)],
    );
}

#[test]
fn bad_serve_panics() {
    expect(
        "crates/serve/src/serve_panics.rs",
        include_str!("fixtures/bad/serve_panics.rs"),
        &[("R4", 4), ("R4", 5), ("R4", 6), ("R4", 8)],
    );
}

#[test]
fn serve_panics_only_apply_to_serve() {
    // The identical source in a sim crate draws no R4: panicking on a
    // violated invariant is correct outside the network boundary.
    let src = include_str!("fixtures/bad/serve_panics.rs");
    assert_eq!(findings("crates/pushsim/src/serve_panics.rs", src), vec![]);
}

#[test]
fn serve_panics_apply_to_the_bench_files_that_read_spec_text() {
    // The spec parser and the service's job handler read untrusted spec
    // text for the server, so R4 covers them; the rest of the bench
    // crate runs only validated specs.
    let src = include_str!("fixtures/bad/serve_panics.rs");
    let want = [("R4", 4), ("R4", 5), ("R4", 6), ("R4", 8)];
    expect("crates/bench/src/spec.rs", src, &want);
    expect("crates/bench/src/service.rs", src, &want);
    for path in ["crates/bench/src/runner.rs", "crates/bench/src/bin/xp.rs"] {
        assert_eq!(findings(path, src), vec![], "{path}");
    }
}

#[test]
fn bad_unsafe_unaudited() {
    expect(
        "crates/serve/src/unsafe_unaudited.rs",
        include_str!("fixtures/bad/unsafe_unaudited.rs"),
        &[("R5", 4)],
    );
}

#[test]
fn bad_missing_forbid() {
    expect(
        "crates/lp/src/lib.rs",
        include_str!("fixtures/bad/missing_forbid.rs"),
        &[("R6", 1)],
    );
    // Same content off the crate root is not R6's business.
    assert_eq!(
        findings("crates/lp/src/util.rs", include_str!("fixtures/bad/missing_forbid.rs")),
        vec![]
    );
}

#[test]
fn bad_allowlisted_wrong_level() {
    // serve is on the unsafe allowlist: `forbid` at its root would not
    // even compile with the signal module, so R6 demands `deny`.
    expect(
        "crates/serve/src/lib.rs",
        include_str!("fixtures/bad/allowlisted_wrong_level.rs"),
        &[("R6", 1)],
    );
}

#[test]
fn bad_waiver_hygiene() {
    expect(
        "crates/bench/src/waiver_hygiene.rs",
        include_str!("fixtures/bad/waiver_hygiene.rs"),
        &[("W1", 3), ("W1", 6), ("W1", 9), ("W2", 12)],
    );
}

#[test]
fn good_fixtures_are_clean() {
    for (path, src) in [
        ("crates/pushsim/src/sim_seeded.rs", include_str!("fixtures/good/sim_seeded.rs")),
        ("crates/serve/src/serve_graceful.rs", include_str!("fixtures/good/serve_graceful.rs")),
        ("crates/serve/src/unsafe_audited.rs", include_str!("fixtures/good/unsafe_audited.rs")),
        ("crates/lp/src/lib.rs", include_str!("fixtures/good/lib_forbid.rs")),
    ] {
        assert_eq!(findings(path, src), vec![], "expected clean fixture at {path}");
    }
}

#[test]
fn trailing_waiver_covers_its_own_line() {
    let src = "pub fn f() -> std::time::Instant {\n    \
               std::time::Instant::now() // xlint: allow(determinism-source) — timeout math is wall-clock\n\
               }\n";
    assert_eq!(findings("crates/bench/src/t.rs", src), vec![]);
}

#[test]
fn waiver_for_wrong_rule_does_not_suppress() {
    let src = "pub fn f() -> std::time::Instant {\n    \
               // xlint: allow(map-order) — wrong rule, must not suppress R1\n    \
               std::time::Instant::now()\n\
               }\n";
    // The R1 finding survives and the waiver reports unused.
    assert_eq!(
        findings("crates/bench/src/t.rs", src),
        vec![("R1".to_string(), 3), ("W2".to_string(), 2)]
    );
}

#[test]
fn cfg_not_test_is_production_code() {
    let src = "#[cfg(not(test))]\n\
               pub fn f() -> std::time::Instant {\n    \
               std::time::Instant::now()\n\
               }\n";
    assert_eq!(findings("crates/bench/src/t.rs", src), vec![("R1".to_string(), 3)]);
}

#[test]
fn multi_rule_waiver_suppresses_both() {
    let src = "use std::collections::HashMap;\n\
               pub fn f(seed: u64) -> usize {\n    \
               // xlint: allow(map-order, determinism-source) — scratch lookup table keyed per call; clock feeds only a log line\n    \
               let m: HashMap<u64, std::time::Instant> = HashMap::new();\n    \
               m.len()\n\
               }\n";
    assert_eq!(findings("crates/bench/src/t.rs", src), vec![]);
}

#[test]
fn strings_and_comments_are_not_code() {
    // Rule triggers inside literals and comments must not fire: the
    // lexer's whole job is keeping text out of the token stream.
    let src = "pub fn f() -> &'static str {\n    \
               // mentions Instant::now() and thread_rng and buf[0].unwrap()\n    \
               \"Instant::now() HashMap unsafe panic!(buf[0]).unwrap()\"\n\
               }\n";
    assert_eq!(findings("crates/pushsim/src/t.rs", src), vec![]);
    assert_eq!(findings("crates/serve/src/t.rs", src), vec![]);
}
