//! The six project-invariant rules, all token-level.
//!
//! Each rule walks the comment-free token stream of one file with its
//! [`FileContext`] and emits [`Diagnostic`]s. Waivers are applied by
//! the engine afterwards, so rules stay pure detectors.

use crate::context::{CrateKind, FileContext, FileRole, UNSAFE_ALLOWLIST};
use crate::diag::{Diagnostic, Rule};
use crate::lexer::{Token, TokenKind};

/// A token stream view with comments removed but source access kept.
pub struct Code<'s> {
    src: &'s str,
    toks: Vec<Token>,
}

impl<'s> Code<'s> {
    /// Filters comments out of `tokens`.
    pub fn new(src: &'s str, tokens: &[Token]) -> Code<'s> {
        Code {
            src,
            toks: tokens
                .iter()
                .copied()
                .filter(|t| !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment))
                .collect(),
        }
    }

    fn text(&self, i: usize) -> &'s str {
        self.toks.get(i).map(|t| t.text(self.src)).unwrap_or("")
    }

    fn kind(&self, i: usize) -> Option<TokenKind> {
        self.toks.get(i).map(|t| t.kind)
    }

    fn at(&self, i: usize) -> Option<&Token> {
        self.toks.get(i)
    }
}

fn diag(ctx: &FileContext, tok: &Token, rule: Rule, message: String) -> Diagnostic {
    Diagnostic { file: ctx.path.clone(), line: tok.line, col: tok.col, rule, message }
}

/// Runs every rule over one file.
pub fn run_all(ctx: &FileContext, src: &str, tokens: &[Token]) -> Vec<Diagnostic> {
    let code = Code::new(src, tokens);
    let mut out = Vec::new();
    determinism_source(ctx, &code, &mut out);
    rng_discipline(ctx, &code, &mut out);
    map_order(ctx, &code, &mut out);
    panic_path(ctx, &code, &mut out);
    safety_comment(ctx, src, tokens, &mut out);
    forbid_coverage(ctx, &code, &mut out);
    out
}

/// R1: wall clocks and OS entropy.
///
/// * Sim crates (pushsim, core, dynamics, noise, analysis, lp, the
///   facade and root tests): forbidden everywhere, tests included —
///   the fixed-seed digest suites must never see a clock.
/// * Harness crates (bench, serve, xlint): forbidden in production
///   code (timing/timeout sites carry waivers so each is visible and
///   justified); test code may use deadlines freely.
fn determinism_source(ctx: &FileContext, code: &Code<'_>, out: &mut Vec<Diagnostic>) {
    for i in 0..code.toks.len() {
        if code.kind(i) != Some(TokenKind::Ident) {
            continue;
        }
        let what = match code.text(i) {
            "thread_rng" => "OS-seeded RNG `thread_rng`",
            "from_entropy" => "OS-seeded RNG constructor `from_entropy`",
            "Instant" | "SystemTime" if code.text(i + 1) == ":" && code.text(i + 3) == "now" => {
                "wall-clock read"
            }
            _ => continue,
        };
        let tok = match code.at(i) {
            Some(t) => t,
            None => continue,
        };
        let in_scope = match ctx.kind {
            CrateKind::Sim => true,
            CrateKind::Harness => ctx.role == FileRole::Prod && !ctx.is_test_line(tok.line),
        };
        if !in_scope {
            continue;
        }
        let name = code.text(i);
        out.push(diag(
            ctx,
            tok,
            Rule::DeterminismSource,
            format!(
                "{what} `{name}` in {} code: simulation output must be a pure function of \
                 the run seed{}",
                ctx.crate_name,
                if ctx.kind == CrateKind::Harness {
                    "; harness timing sites need a written waiver"
                } else {
                    ""
                }
            ),
        ));
    }
}

/// RNG constructor names whose seed argument R2 inspects.
const RNG_CONSTRUCTORS: [&str; 3] = ["seed_from_u64", "from_seed", "from_rng"];

/// R2: RNG construction discipline.
///
/// In production code, every RNG constructor call must visibly flow
/// from the run seed: its argument tokens must reference
/// `derive_seed`, an identifier containing `seed`, or a `*_SEED_SALT`
/// constant. Test code is exempt — fixed literal seeds are exactly
/// what reproducible tests should use.
fn rng_discipline(ctx: &FileContext, code: &Code<'_>, out: &mut Vec<Diagnostic>) {
    for i in 0..code.toks.len() {
        if code.kind(i) != Some(TokenKind::Ident)
            || !RNG_CONSTRUCTORS.contains(&code.text(i))
            || code.text(i + 1) != "("
        {
            continue;
        }
        let tok = match code.at(i) {
            Some(t) => t,
            None => continue,
        };
        if ctx.role == FileRole::Test || ctx.is_test_line(tok.line) {
            continue;
        }
        // Scan the balanced argument list for a seed-ish reference.
        let mut depth = 0i32;
        let mut j = i + 1;
        let mut seeded = false;
        while let Some(k) = code.kind(j) {
            match (k, code.text(j)) {
                (TokenKind::Punct, "(") => depth += 1,
                (TokenKind::Punct, ")") => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                (TokenKind::Ident, name) => {
                    let lower = name.to_ascii_lowercase();
                    if lower.contains("seed") || lower.contains("salt") {
                        seeded = true;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        if !seeded {
            out.push(diag(
                ctx,
                tok,
                Rule::RngDiscipline,
                format!(
                    "RNG constructed by `{}` without a visible seed lineage: derive the \
                     seed via `derive_seed`/a seed-salted expression, or waive with the \
                     reason this stream is reproducible",
                    code.text(i)
                ),
            ));
        }
    }
}

/// R3: hash-order containers in production code.
///
/// `HashMap`/`HashSet` iterate in randomized order; anything that
/// formats output or feeds a digest must use `BTreeMap`/`BTreeSet` or
/// sort first. Import lines are skipped (the use site is what
/// matters); waivers are for collections that are provably
/// membership/lookup-only.
fn map_order(ctx: &FileContext, code: &Code<'_>, out: &mut Vec<Diagnostic>) {
    for i in 0..code.toks.len() {
        if code.kind(i) != Some(TokenKind::Ident)
            || !matches!(code.text(i), "HashMap" | "HashSet")
        {
            continue;
        }
        let tok = match code.at(i) {
            Some(t) => t,
            None => continue,
        };
        if ctx.role == FileRole::Test || ctx.is_test_line(tok.line) {
            continue;
        }
        // Skip `use …` declarations: flagging both the import and the
        // use sites would demand duplicate waivers.
        let first_on_line = code
            .toks
            .iter()
            .find(|t| t.line == tok.line)
            .map(|t| t.text(code.src))
            .unwrap_or("");
        if first_on_line == "use" || first_on_line == "pub" && line_starts_use(code, tok.line) {
            continue;
        }
        out.push(diag(
            ctx,
            tok,
            Rule::MapOrder,
            format!(
                "`{}` has nondeterministic iteration order; use the BTree equivalent, \
                 sort before anything ordered escapes, or waive with proof it is only \
                 used for membership/lookup",
                code.text(i)
            ),
        ));
    }
}

fn line_starts_use(code: &Code<'_>, line: u32) -> bool {
    let mut on_line = code.toks.iter().filter(|t| t.line == line);
    matches!(
        (on_line.next().map(|t| t.text(code.src)), on_line.next().map(|t| t.text(code.src))),
        (Some("pub"), Some("use")) | (Some("use"), _)
    )
}

/// Macros whose expansion is a panic (or compiles to one on failure).
const PANIC_MACROS: [&str; 6] =
    ["panic", "unreachable", "todo", "unimplemented", "assert", "assert_eq"];

/// The files outside `crates/serve` that read untrusted spec text: the
/// spec parser and validator, and the service's job handler.
const SPEC_READERS: [&str; 2] = ["crates/bench/src/spec.rs", "crates/bench/src/service.rs"];

/// R4: panic paths in the service.
///
/// Applies to production code of `crates/serve` and of the
/// [`SPEC_READERS`]: a worker or connection thread that panics on
/// untrusted bytes is a remote DoS, so `unwrap`/`expect`, panicking
/// macros, and bounds-checked indexing are all forbidden there. Test
/// modules are exempt.
fn panic_path(ctx: &FileContext, code: &Code<'_>, out: &mut Vec<Diagnostic>) {
    let untrusted = ctx.crate_name == "serve" || SPEC_READERS.contains(&ctx.path.as_str());
    if !untrusted || ctx.role != FileRole::Prod {
        return;
    }
    for i in 0..code.toks.len() {
        let tok = match code.at(i) {
            Some(t) => t,
            None => continue,
        };
        if ctx.is_test_line(tok.line) {
            continue;
        }
        match tok.kind {
            TokenKind::Ident => {
                let name = code.text(i);
                if matches!(name, "unwrap" | "expect")
                    && code.text(i + 1) == "("
                    && i > 0
                    && code.text(i - 1) == "."
                {
                    out.push(diag(
                        ctx,
                        tok,
                        Rule::PanicPath,
                        format!(
                            "`.{name}()` in request-handling code can panic a worker on \
                             untrusted input; return a typed error (400/500 response) instead"
                        ),
                    ));
                }
                if (PANIC_MACROS.contains(&name) || name == "assert_ne")
                    && code.text(i + 1) == "!"
                {
                    out.push(diag(
                        ctx,
                        tok,
                        Rule::PanicPath,
                        format!(
                            "`{name}!` in request-handling code aborts a worker thread; \
                             degrade to an error response instead"
                        ),
                    ));
                }
            }
            TokenKind::Punct if code.text(i) == "[" => {
                // Index/slice expression: `[` directly after an
                // identifier, `)`, or `]`. Array literals, types, and
                // attributes follow `=`, `(`, `,`, `&`, `#`, `!`, …
                // and are not flagged.
                if i == 0 {
                    continue;
                }
                let prev_is_expr = match code.kind(i - 1) {
                    Some(TokenKind::Ident) => !is_keyword_non_expr(code.text(i - 1)),
                    Some(TokenKind::Punct) => matches!(code.text(i - 1), ")" | "]"),
                    _ => false,
                };
                if prev_is_expr {
                    out.push(diag(
                        ctx,
                        tok,
                        Rule::PanicPath,
                        "indexing/slicing in request-handling code panics when out of \
                         bounds; use `.get(…)` and handle the miss"
                            .to_string(),
                    ));
                }
            }
            _ => {}
        }
    }
}

/// Keywords after which a `[` cannot be an index expression.
fn is_keyword_non_expr(text: &str) -> bool {
    matches!(
        text,
        "mut" | "ref" | "in" | "as" | "dyn" | "impl" | "where" | "return" | "break" | "const"
    )
}

/// R5: every `unsafe` keyword needs a `// SAFETY:` comment on the
/// same line or in the contiguous comment block directly above it
/// (a multi-line justification is encouraged, not penalized).
/// Applies everywhere, tests included — an unjustified `unsafe` is
/// never fine.
fn safety_comment(ctx: &FileContext, src: &str, tokens: &[Token], out: &mut Vec<Diagnostic>) {
    use std::collections::BTreeSet;
    let mut safety_lines: BTreeSet<u32> = BTreeSet::new();
    let mut comment_lines: BTreeSet<u32> = BTreeSet::new();
    let mut code_lines: BTreeSet<u32> = BTreeSet::new();
    for t in tokens {
        if matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment) {
            let text = t.text(src);
            for (off, line_text) in text.lines().enumerate() {
                let line = t.line + off as u32;
                comment_lines.insert(line);
                if line_text.contains("SAFETY:") {
                    safety_lines.insert(line);
                }
            }
        } else {
            code_lines.insert(t.line);
        }
    }
    for tok in tokens {
        if tok.kind != TokenKind::Ident || tok.text(src) != "unsafe" {
            continue;
        }
        let mut near = safety_lines.contains(&tok.line);
        // Walk upward through comment-only lines (blank lines break
        // the block: the justification must touch the unsafe code).
        let mut line = tok.line;
        while !near && line > 1 {
            line -= 1;
            if code_lines.contains(&line) || !comment_lines.contains(&line) {
                break;
            }
            near = safety_lines.contains(&line);
        }
        if !near {
            out.push(diag(
                ctx,
                tok,
                Rule::SafetyComment,
                "`unsafe` without an adjacent `// SAFETY:` comment; state the invariant \
                 that makes this sound"
                    .to_string(),
            ));
        }
    }
}

/// R6: crate roots must forbid `unsafe_code`.
///
/// Allowlisted crates (see [`UNSAFE_ALLOWLIST`]) must instead carry
/// `#![deny(unsafe_code)]` so exceptions are scoped per-module with
/// `#[allow(unsafe_code)]` and each block still answers to R5.
fn forbid_coverage(ctx: &FileContext, code: &Code<'_>, out: &mut Vec<Diagnostic>) {
    let is_crate_root = ctx.path == "src/lib.rs"
        || (ctx.path.starts_with("crates/") && ctx.path.ends_with("/src/lib.rs"));
    if !is_crate_root {
        return;
    }
    let allowlisted = UNSAFE_ALLOWLIST.contains(&ctx.crate_name.as_str());
    let wanted = if allowlisted { "deny" } else { "forbid" };
    let mut found = false;
    for i in 0..code.toks.len() {
        if code.text(i) == "#"
            && code.text(i + 1) == "!"
            && code.text(i + 2) == "["
            && code.text(i + 3) == wanted
            && code.text(i + 4) == "("
            && code.text(i + 5) == "unsafe_code"
        {
            found = true;
            break;
        }
    }
    if !found {
        let pos = Token { kind: TokenKind::Punct, start: 0, end: 0, line: 1, col: 1 };
        out.push(diag(
            ctx,
            &pos,
            Rule::ForbidCoverage,
            if allowlisted {
                format!(
                    "crate `{}` is on the unsafe allowlist and must carry \
                     `#![deny(unsafe_code)]` at the crate root (scoping exceptions with \
                     per-module `#[allow(unsafe_code)]`)",
                    ctx.crate_name
                )
            } else {
                format!(
                    "crate `{}` must carry `#![forbid(unsafe_code)]` at the crate root \
                     (or join the checked-in allowlist in xlint with a reason)",
                    ctx.crate_name
                )
            },
        ));
    }
}
