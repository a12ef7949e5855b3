//! The one grammar of spec values.
//!
//! Every axis of a scenario that is more than a number — the noise family,
//! the topology, faults, churn, the noise schedule, the clock and the
//! dynamics rule — is written the same way, and this module is where that
//! spelling lives:
//!
//! * a value is a bare word (`ring`, `sync`) or `name(args)`
//!   (`regular(8)`, `crash(0.1@2)`);
//! * a [`Form`] states one spelling, its placeholders separated by the
//!   characters the text uses between arguments: `@`, `:` or `,`
//!   (`ramp(e0:e1@p)`, `reset(lambda, target)`);
//! * fault and churn values join families with `+`, each family at most
//!   once by name, and spell the empty join with a word of its own
//!   (`none`);
//! * text is matched in ASCII lower case, with whitespace around names,
//!   arguments and separators ignored, so `UNIFORM(0.2)` and
//!   `H-Majority( 3 )` parse; canonical text is lower case;
//! * an error names the expected form.
//!
//! Each value type lists its forms once in a [`Grammar`], and both its
//! `Display` and its `FromStr` go through it, so printing and parsing
//! cannot drift apart:
//!
//! ```
//! use noisy_channel::text::{Form, Grammar};
//!
//! const SYNC: Form = "sync";
//! const DRIFT: Form = "drift(ppm)";
//! const CLOCK: Grammar = Grammar::single("clock", &[SYNC, DRIFT]);
//!
//! let term = CLOCK.parse(" Drift( 200 ) ").unwrap();
//! assert_eq!(term.form, DRIFT);
//! assert_eq!(term.arg::<f64>(0), Ok(200.0));
//! assert!(CLOCK.parse("drift(1@2)").unwrap_err().contains("drift(ppm)"));
//! ```

use std::fmt;
use std::str::FromStr;

/// One spelling of a family: a bare word such as `ring`, or
/// `name(args)` whose placeholders (runs of letters, digits and `_`) are
/// separated by `@`, `:` or `,`, such as `crash(f@s)` or
/// `reset(lambda, target)`. Printing copies the separators and the
/// spaces between placeholders as they stand in the form.
pub type Form = &'static str;

/// The characters that separate the arguments of a family.
const SEPARATORS: [char; 3] = ['@', ':', ','];

/// The forms of one kind of spec value.
#[derive(Debug, Clone, Copy)]
pub struct Grammar {
    what: &'static str,
    forms: &'static [Form],
    empty: Option<&'static str>,
}

/// One family of a parsed value: the form it matched and its arguments.
#[derive(Debug, PartialEq)]
pub struct Term {
    /// The matched form, one of its grammar's.
    pub form: Form,
    args: Vec<String>,
}

impl Grammar {
    /// A value of exactly one family out of `forms`; `what` names the
    /// value in error text (`"topology"`).
    pub const fn single(what: &'static str, forms: &'static [Form]) -> Self {
        Grammar {
            what,
            forms,
            empty: None,
        }
    }

    /// A value of `+`-joined families out of `forms`, each at most once,
    /// whose empty join is spelled `empty` (`"none"`).
    pub const fn joined(what: &'static str, empty: &'static str, forms: &'static [Form]) -> Self {
        Grammar {
            what,
            forms,
            empty: Some(empty),
        }
    }

    /// Parses a single-family value: the forms of its name and shape
    /// (bare word or `name(args)`) are the candidates, and the separators
    /// between its arguments pick one of them.
    ///
    /// # Errors
    ///
    /// Text naming no form of this grammar, or a family whose arguments
    /// do not fit its form, with the expected forms in the message.
    pub fn parse(&self, text: &str) -> Result<Term, String> {
        let text = text.trim();
        let lower = text.to_ascii_lowercase();
        let parts = call(&lower);
        let name = parts.map_or(lower.as_str(), |(name, _)| name);
        let candidates: Vec<Form> = self
            .forms
            .iter()
            .copied()
            .filter(|&form| family(form) == name && call(form).is_some() == parts.is_some())
            .collect();
        if candidates.is_empty() {
            return Err(self.unknown(text));
        }
        let args = parts.map_or("", |(_, args)| args);
        let separators = |s: &str| s.chars().filter(|c| SEPARATORS.contains(c)).collect::<String>();
        let form = candidates
            .iter()
            .copied()
            .find(|&form| separators(form) == separators(args))
            .ok_or_else(|| {
                format!("{name} needs the form {}, got {text}", candidates.join(" or "))
            })?;
        Ok(Term {
            form,
            args: args.split(SEPARATORS).map(|a| a.trim().to_string()).collect(),
        })
    }

    /// Parses a `+`-joined value: the empty word alone, or families in
    /// any order, each at most once by name.
    ///
    /// # Errors
    ///
    /// As [`parse`](Self::parse) for each family, and a family given
    /// more than once.
    pub fn parse_joined(&self, text: &str) -> Result<Vec<Term>, String> {
        let text = text.trim();
        if self.empty.is_some_and(|empty| text.eq_ignore_ascii_case(empty)) {
            return Ok(Vec::new());
        }
        let mut terms: Vec<Term> = Vec::new();
        for part in text.split('+') {
            let term = self.parse(part)?;
            let name = family(term.form);
            if terms.iter().any(|seen| family(seen.form) == name) {
                return Err(format!(
                    "{} family {name} given more than once in {text:?}",
                    self.what
                ));
            }
            terms.push(term);
        }
        Ok(terms)
    }

    /// Writes `form` with `args` in its placeholders, in order.
    pub fn write(
        &self,
        f: &mut fmt::Formatter<'_>,
        form: Form,
        args: &[&dyn fmt::Display],
    ) -> fmt::Result {
        debug_assert!(self.forms.contains(&form), "{form} is not a {} form", self.what);
        let Some((name, pattern)) = call(form) else {
            return f.write_str(form);
        };
        write!(f, "{name}(")?;
        let mut args = args.iter();
        let mut in_placeholder = false;
        for c in pattern.chars() {
            let placeholder = is_placeholder(c);
            if placeholder && !in_placeholder {
                let arg = args.next().expect("one argument per placeholder");
                write!(f, "{arg}")?;
            } else if !placeholder {
                write!(f, "{c}")?;
            }
            in_placeholder = placeholder;
        }
        debug_assert!(args.next().is_none(), "more arguments than placeholders in {form}");
        f.write_str(")")
    }

    /// A writer of a `+`-joined value onto `f`.
    pub fn joined_writer<'a, 'f>(&'a self, f: &'a mut fmt::Formatter<'f>) -> JoinedWriter<'a, 'f> {
        JoinedWriter {
            grammar: self,
            f,
            written: false,
        }
    }

    fn unknown(&self, text: &str) -> String {
        let expected = match (self.empty, self.forms.split_last()) {
            (Some(empty), _) => format!("{empty}, or +-joined {}", self.forms.join(", ")),
            (None, Some((last, rest))) if !rest.is_empty() => {
                format!("{} or {last}", rest.join(", "))
            }
            (None, _) => self.forms.join(""),
        };
        format!("unknown {} {text:?} (expected {expected})", self.what)
    }
}

impl Term {
    /// Argument `index` (0-based, in the form's placeholder order),
    /// parsed as `T`.
    ///
    /// # Errors
    ///
    /// An argument that does not parse as `T`, naming the form and the
    /// placeholder.
    ///
    /// # Panics
    ///
    /// Panics if the form has no placeholder `index`.
    pub fn arg<T: FromStr>(&self, index: usize) -> Result<T, String> {
        let text = &self.args[index];
        text.parse().map_err(|_| {
            let placeholder = call(self.form)
                .and_then(|(_, pattern)| pattern.split(SEPARATORS).nth(index))
                .map_or("", str::trim);
            format!("{} has a malformed {placeholder}: {text:?}", self.form)
        })
    }
}

/// Writes the families of a `+`-joined value in order, `+` between them,
/// and the grammar's empty word when [`finish`](Self::finish) comes
/// before any family.
pub struct JoinedWriter<'a, 'f> {
    grammar: &'a Grammar,
    f: &'a mut fmt::Formatter<'f>,
    written: bool,
}

impl JoinedWriter<'_, '_> {
    /// Writes one family, as [`Grammar::write`] does.
    pub fn family(&mut self, form: Form, args: &[&dyn fmt::Display]) -> fmt::Result {
        if self.written {
            self.f.write_str("+")?;
        }
        self.written = true;
        self.grammar.write(self.f, form, args)
    }

    /// Ends the value.
    pub fn finish(self) -> fmt::Result {
        match self.grammar.empty {
            Some(empty) if !self.written => self.f.write_str(empty),
            _ => Ok(()),
        }
    }
}

/// Splits `name(args)` into its trimmed name and argument text; `None`
/// for a bare word or text without a closing parenthesis at the end.
fn call(text: &str) -> Option<(&str, &str)> {
    let (name, rest) = text.split_once('(')?;
    Some((name.trim(), rest.strip_suffix(')')?))
}

/// The family a form belongs to: its name, or the bare word itself.
fn family(form: Form) -> &'static str {
    call(form).map_or(form, |(name, _)| name)
}

fn is_placeholder(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

#[cfg(test)]
mod tests {
    use super::*;

    const RING: Form = "ring";
    const CRASH: Form = "crash(f@s)";
    const BYZ: Form = "byz(f:j)";
    const JOIN: Form = "join(r)";
    const JOIN_AT: Form = "join(r:j)";
    const RESET: Form = "reset(lambda, target)";
    const RAMP: Form = "ramp(e0:e1@p)";
    const SINGLE: Grammar = Grammar::single("thing", &[RING, RESET, RAMP]);
    const JOINED: Grammar = Grammar::joined("fault", "none", &[CRASH, BYZ, JOIN, JOIN_AT]);

    /// Renders `form` with `args` through [`Grammar::write`].
    struct Shown(&'static Grammar, Form, Vec<f64>);

    impl fmt::Display for Shown {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            let args: Vec<&dyn fmt::Display> =
                self.2.iter().map(|a| a as &dyn fmt::Display).collect();
            self.0.write(f, self.1, &args)
        }
    }

    #[test]
    fn forms_print_their_separators_as_written() {
        assert_eq!(Shown(&SINGLE, RING, vec![]).to_string(), "ring");
        assert_eq!(Shown(&SINGLE, RESET, vec![0.4, 1.0]).to_string(), "reset(0.4, 1)");
        assert_eq!(Shown(&SINGLE, RAMP, vec![0.1, 0.4, 8.0]).to_string(), "ramp(0.1:0.4@8)");
    }

    #[test]
    fn parsing_folds_case_and_whitespace() {
        assert_eq!(SINGLE.parse(" RING ").unwrap().form, RING);
        let term = SINGLE.parse("Reset ( 0.4 ,1 )").unwrap();
        assert_eq!((term.form, term.arg::<f64>(0), term.arg::<usize>(1)), (RESET, Ok(0.4), Ok(1)));
        let term = SINGLE.parse("RAMP(1E-2:0.4@8)").unwrap();
        assert_eq!(term.arg::<f64>(0), Ok(0.01));
    }

    #[test]
    fn separators_pick_among_forms_of_one_name() {
        assert_eq!(JOINED.parse_joined("join(0.1)").unwrap()[0].form, JOIN);
        let terms = JOINED.parse_joined("join(0.1:2)").unwrap();
        assert_eq!((terms[0].form, terms[0].arg::<usize>(1)), (JOIN_AT, Ok(2)));
        let err = JOINED.parse_joined("join(0.1@2)").unwrap_err();
        assert!(err.contains("join(r) or join(r:j)"), "{err}");
    }

    #[test]
    fn joined_values_take_each_family_once_and_spell_none() {
        assert_eq!(JOINED.parse_joined(" NONE "), Ok(Vec::new()));
        let terms = JOINED.parse_joined("byz(0.1:1) + Crash(0.2@3)").unwrap();
        assert_eq!(terms.iter().map(|t| t.form).collect::<Vec<_>>(), [BYZ, CRASH]);
        for twice in ["crash(0@1)+crash(0.1@2)", "join(0.1)+join(0.2:1)"] {
            let err = JOINED.parse_joined(twice).unwrap_err();
            assert!(err.contains("more than once"), "{twice}: {err}");
        }
    }

    #[test]
    fn errors_name_the_expected_form() {
        let err = JOINED.parse_joined("crash(0.1)").unwrap_err();
        assert!(err.contains("crash(f@s)"), "{err}");
        let err = JOINED.parse_joined("crash(x@1)").unwrap().remove(0).arg::<f64>(0).unwrap_err();
        assert!(err.contains("crash(f@s)") && err.contains("malformed f"), "{err}");
        for text in ["", "warp(1)", "ring(", "ring()", "reset", "none+crash(0.1@1)"] {
            let err = SINGLE.parse(text).unwrap_err();
            assert!(err.contains("expected ring, reset(lambda, target) or ramp(e0:e1@p)"), "{text:?}: {err}");
        }
        let err = JOINED.parse_joined("teleport(1)").unwrap_err();
        assert!(err.contains("expected none, or +-joined crash(f@s), byz(f:j)"), "{err}");
    }
}
