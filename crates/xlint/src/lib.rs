//! # xlint
//!
//! A dependency-free, project-specific static analyzer that
//! mechanically enforces the invariants every scientific claim in
//! this repository rests on: all randomness flows from the run seed,
//! no wall-clock or iteration-order nondeterminism reaches simulation
//! output, the serve crate never panics on untrusted bytes, and every
//! `unsafe` block is audited.
//!
//! The workspace builds offline, so there is no `syn` or rustc
//! integration here: a hand-rolled total [`lexer`] (raw strings,
//! nested block comments, char/byte literals) feeds a token-level
//! rule engine ([`rules`]) with structured diagnostics
//! ([`diag::Diagnostic`]: `file:line:col`, stable rule IDs, `--json`
//! output) and an inline-pragma waiver system so every exception is
//! visible and justified in-source:
//!
//! ```text
//! // xlint: allow(determinism-source) — wall-clock latency is the measurement here
//! ```
//!
//! The rules (see [`diag::Rule`] and `xlint --list-rules`):
//!
//! | Code | Name                | Invariant                                             |
//! |------|---------------------|-------------------------------------------------------|
//! | R1   | determinism-source  | no clocks/OS entropy in deterministic code             |
//! | R2   | rng-discipline      | RNG construction references the run seed               |
//! | R3   | map-order           | no hash-order containers in production code            |
//! | R4   | panic-path          | no unwrap/expect/panics/indexing on untrusted input    |
//! | R5   | safety-comment      | every `unsafe` carries a `// SAFETY:` comment          |
//! | R6   | forbid-coverage     | crate roots carry `#![forbid(unsafe_code)]`            |
//! | W1/W2| waiver hygiene      | pragmas parse, carry reasons, and suppress something   |
//!
//! Run locally with `cargo run -p xlint -- --deny all`; CI gates on
//! exactly that invocation.

#![forbid(unsafe_code)]

pub mod context;
pub mod diag;
pub mod lexer;
pub mod rules;

use context::FileContext;
use diag::{Diagnostic, Rule};

/// Analyzes one file's source as if it lived at the
/// workspace-relative `path` (which decides crate and role policy).
/// Returns the surviving diagnostics, waivers already applied,
/// including waiver-hygiene findings.
pub fn analyze_source(path: &str, src: &str) -> Vec<Diagnostic> {
    let tokens = lexer::lex(src);
    let ctx = FileContext::build(path, src, &tokens);
    let mut out: Vec<Diagnostic> = rules::run_all(&ctx, src, &tokens)
        .into_iter()
        .filter(|d| !ctx.waived(d.rule, d.line))
        .collect();
    out.extend(ctx.malformed.iter().cloned());
    for w in &ctx.waivers {
        if !w.used.get() {
            out.push(Diagnostic {
                file: path.to_string(),
                line: w.line,
                col: w.col,
                rule: Rule::UnusedWaiver,
                message: format!(
                    "waiver for {} suppresses nothing on line {}; remove it so the \
                     audit trail stays honest",
                    w.rules
                        .iter()
                        .map(|r| r.name())
                        .collect::<Vec<_>>()
                        .join(", "),
                    w.covers_line
                ),
            });
        }
    }
    out.sort_by_key(|a| (a.line, a.col, a.rule));
    out
}
