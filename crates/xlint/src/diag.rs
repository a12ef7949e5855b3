//! Diagnostics: stable rule identities and the finding record.

use std::fmt;

/// Stable identity of every check the engine can emit. Rule IDs are
/// part of the tool's interface: they appear in output, in waiver
/// pragmas, and in CI logs, so they never change meaning.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// R1: wall clocks and entropy sources in deterministic code.
    DeterminismSource,
    /// R2: RNG construction not derived from the run seed.
    RngDiscipline,
    /// R3: `HashMap`/`HashSet` where iteration order could leak out.
    MapOrder,
    /// R4: panic paths in the service's request handling and the spec
    /// parsing it runs.
    PanicPath,
    /// R5: `unsafe` without an adjacent `// SAFETY:` comment.
    SafetyComment,
    /// R6: crate root missing `#![forbid(unsafe_code)]`.
    ForbidCoverage,
    /// W1: a waiver pragma that does not parse or lacks a reason.
    MalformedWaiver,
    /// W2: a waiver pragma that matched no finding.
    UnusedWaiver,
}

/// All rules, in report order.
pub const ALL_RULES: [Rule; 8] = [
    Rule::DeterminismSource,
    Rule::RngDiscipline,
    Rule::MapOrder,
    Rule::PanicPath,
    Rule::SafetyComment,
    Rule::ForbidCoverage,
    Rule::MalformedWaiver,
    Rule::UnusedWaiver,
];

impl Rule {
    /// Short code (`R1`…`R6`, `W1`/`W2` for waiver hygiene).
    pub fn code(self) -> &'static str {
        match self {
            Rule::DeterminismSource => "R1",
            Rule::RngDiscipline => "R2",
            Rule::MapOrder => "R3",
            Rule::PanicPath => "R4",
            Rule::SafetyComment => "R5",
            Rule::ForbidCoverage => "R6",
            Rule::MalformedWaiver => "W1",
            Rule::UnusedWaiver => "W2",
        }
    }

    /// The kebab-case name used in waiver pragmas and output.
    pub fn name(self) -> &'static str {
        match self {
            Rule::DeterminismSource => "determinism-source",
            Rule::RngDiscipline => "rng-discipline",
            Rule::MapOrder => "map-order",
            Rule::PanicPath => "panic-path",
            Rule::SafetyComment => "safety-comment",
            Rule::ForbidCoverage => "forbid-coverage",
            Rule::MalformedWaiver => "malformed-waiver",
            Rule::UnusedWaiver => "unused-waiver",
        }
    }

    /// One-line description for `--list-rules`.
    pub fn summary(self) -> &'static str {
        match self {
            Rule::DeterminismSource => {
                "Instant::now/SystemTime::now/thread_rng/from_entropy are forbidden in \
                 simulation crates (everywhere) and in harness production code (waivable)"
            }
            Rule::RngDiscipline => {
                "RNG construction in production code must reference the run seed \
                 (derive_seed, a `seed` binding, or a *_SEED_SALT constant)"
            }
            Rule::MapOrder => {
                "HashMap/HashSet in production code risk nondeterministic iteration \
                 order; use BTreeMap/BTreeSet or waive with proof order never escapes"
            }
            Rule::PanicPath => {
                "unwrap/expect/panic!/unreachable!/assert!/indexing are forbidden in \
                 noisy-serve production code; untrusted input must become an error response"
            }
            Rule::SafetyComment => {
                "every `unsafe` needs a `// SAFETY:` comment on the same or one of the \
                 three preceding lines"
            }
            Rule::ForbidCoverage => {
                "every crate root must carry #![forbid(unsafe_code)] unless allowlisted \
                 (allowlisted crates use #![deny(unsafe_code)] + per-module allow)"
            }
            Rule::MalformedWaiver => {
                "an `// xlint: allow(...)` pragma must name known rules and carry a \
                 written reason"
            }
            Rule::UnusedWaiver => "a waiver that suppresses nothing must be removed",
        }
    }

    /// Parses a rule reference as written in a pragma (name or code,
    /// case-insensitive).
    pub fn parse(s: &str) -> Option<Rule> {
        let s = s.trim();
        ALL_RULES
            .into_iter()
            .find(|r| r.name().eq_ignore_ascii_case(s) || r.code().eq_ignore_ascii_case(s))
    }

    /// Whether a pragma may waive this rule. Waiver hygiene itself and
    /// crate-root coverage (whose allowlist is checked in, not
    /// in-source) cannot be waived.
    pub fn waivable(self) -> bool {
        !matches!(self, Rule::MalformedWaiver | Rule::UnusedWaiver | Rule::ForbidCoverage)
    }
}

/// One finding, pointing at a file position.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Workspace-relative path with `/` separators.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based byte column.
    pub col: u32,
    /// Which rule fired.
    pub rule: Rule,
    /// Human explanation of this occurrence.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: {}[{}]: {}",
            self.file,
            self.line,
            self.col,
            self.rule.code(),
            self.rule.name(),
            self.message
        )
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

impl Diagnostic {
    /// One JSON object, a stable machine interface for CI tooling.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"file\":\"{}\",\"line\":{},\"col\":{},\"code\":\"{}\",\"rule\":\"{}\",\"message\":\"{}\"}}",
            json_escape(&self.file),
            self.line,
            self.col,
            self.rule.code(),
            self.rule.name(),
            json_escape(&self.message)
        )
    }
}
