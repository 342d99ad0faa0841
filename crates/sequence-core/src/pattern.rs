//! Patterns: sequences of fixed text and typed variable placeholders.
//!
//! A pattern is what the analyser mines from a group of messages and what the
//! parser matches new messages against, e.g.
//!
//! ```text
//! %action% from %srcip:ipv4% port %srcport:integer%
//! ```
//!
//! The textual format delimits variables with `%`, exactly like Sequence. A
//! placeholder is `%name%` (a free-text string variable) or `%name:type%`
//! where `type` is one of the [`TokenType`] placeholder names. Literal text
//! appears verbatim. Because Sequence-RTG records `is_space_before` on every
//! token, the textual form reproduces the original message spacing instead of
//! inserting a space between all tokens (limitation 3 in the paper).
//!
//! The paper documents that messages whose *static* text contains a `%` sign
//! "will cause an unknown tag error at parsing time"; [`Pattern::parse`]
//! reproduces that behaviour for a raw `%` by returning
//! [`PatternParseError::UnknownTag`]. [`Pattern::render`] closes the gap for
//! the patterns this crate writes: it escapes a literal `%` as `%%`, which
//! `parse` reads back as `%`, so every stored or served pattern parses.
//! [`Pattern::render_plain`] keeps the unescaped form for exports.

use crate::token::{Token, TokenType, TokenizedMessage};
use std::collections::HashMap;
use std::fmt;

/// One element of a pattern.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum PatternElement {
    /// Fixed text that must appear verbatim.
    Literal {
        /// The exact text.
        text: String,
        /// Whether a space precedes this element in the reconstructed form.
        space_before: bool,
    },
    /// A variable placeholder.
    Variable {
        /// The variable's name (used as the capture key and in exports).
        name: String,
        /// The token type the variable accepts.
        ty: TokenType,
        /// Whether a space precedes this element in the reconstructed form.
        space_before: bool,
    },
    /// Matches — and discards — all remaining tokens. Sequence-RTG appends
    /// this marker to patterns mined from multi-line messages so the parser
    /// ignores everything after the first line (limitation 6).
    IgnoreRest,
}

impl PatternElement {
    /// `true` for [`PatternElement::Variable`].
    pub fn is_variable(&self) -> bool {
        matches!(self, PatternElement::Variable { .. })
    }

    /// `true` for [`PatternElement::Literal`].
    pub fn is_literal(&self) -> bool {
        matches!(self, PatternElement::Literal { .. })
    }
}

/// A mined message pattern.
///
/// The shape facts the matcher consults on every candidate — fixed token
/// count and the ignore-rest flag — are computed once at construction;
/// `match_tokens` runs on every production message, so it must not rescan
/// the element list for them. (They are functions of `elements`, so the
/// derived equality/hash over all fields stays consistent.)
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Pattern {
    elements: Vec<PatternElement>,
    fixed: usize,
    ignore_rest: bool,
}

/// The result of matching a message against a pattern: variable captures in
/// pattern order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Captures {
    /// `(variable name, captured text)` pairs, in pattern order.
    pub values: Vec<(String, String)>,
}

impl Captures {
    /// Look up the first capture with the given name.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.values
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Errors from [`Pattern::parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PatternParseError {
    /// A `%...%` placeholder whose contents are not a valid tag. The paper
    /// notes this happens when static message text containing `%` ends up in
    /// a pattern.
    UnknownTag(String),
    /// A `%` with no closing `%`.
    UnterminatedTag,
    /// `%:type%` style placeholder with an empty name.
    EmptyName,
    /// An `IgnoreRest` marker appearing anywhere but the final position.
    MisplacedIgnoreRest,
}

impl fmt::Display for PatternParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PatternParseError::UnknownTag(t) => write!(f, "unknown tag: %{t}%"),
            PatternParseError::UnterminatedTag => write!(f, "unterminated % tag"),
            PatternParseError::EmptyName => write!(f, "empty variable name"),
            PatternParseError::MisplacedIgnoreRest => {
                write!(f, "ignore-rest marker must be the last element")
            }
        }
    }
}

impl std::error::Error for PatternParseError {}

/// The textual spelling of the ignore-rest marker.
pub const IGNORE_REST_TAG: &str = "%...%";

impl Pattern {
    /// Build a pattern from elements. Returns an error if an
    /// [`PatternElement::IgnoreRest`] appears before the final position.
    pub fn new(elements: Vec<PatternElement>) -> Result<Pattern, PatternParseError> {
        let last = elements.len().saturating_sub(1);
        for (i, el) in elements.iter().enumerate() {
            if matches!(el, PatternElement::IgnoreRest) && i != last {
                return Err(PatternParseError::MisplacedIgnoreRest);
            }
        }
        let ignore_rest = matches!(elements.last(), Some(PatternElement::IgnoreRest));
        let fixed = elements.len() - usize::from(ignore_rest);
        Ok(Pattern {
            elements,
            fixed,
            ignore_rest,
        })
    }

    /// The pattern's elements.
    pub fn elements(&self) -> &[PatternElement] {
        &self.elements
    }

    /// Number of message tokens the pattern consumes before an optional
    /// ignore-rest marker.
    pub fn fixed_token_count(&self) -> usize {
        self.fixed
    }

    /// Whether the pattern ends with an ignore-rest marker.
    pub fn has_ignore_rest(&self) -> bool {
        self.ignore_rest
    }

    /// Number of variable placeholders.
    pub fn variable_count(&self) -> usize {
        self.elements.iter().filter(|e| e.is_variable()).count()
    }

    /// Number of literal elements.
    pub fn literal_count(&self) -> usize {
        self.elements.iter().filter(|e| e.is_literal()).count()
    }

    /// The complexity score the paper attaches to each stored pattern: the
    /// fraction of the pattern that is variable. "Patterns that consist
    /// entirely of variables with no constant part are often overly
    /// patternised"; a score of 1.0 is the worst, 0.0 means fully static.
    pub fn complexity_score(&self) -> f64 {
        let total = self.fixed_token_count();
        if total == 0 {
            return 1.0;
        }
        self.variable_count() as f64 / total as f64
    }

    /// Match a tokenised message against this pattern, returning the variable
    /// captures on success.
    ///
    /// Matching is strict on token types: a `%x:integer%` variable only
    /// matches [`TokenType::Integer`] tokens and a plain `%x%` string
    /// variable only matches [`TokenType::Literal`] tokens. This strictness is
    /// faithful to Sequence and is the mechanism behind the Proxifier
    /// limitation discussed in §IV of the paper (a field that is sometimes
    /// alphanumeric and sometimes pure integer yields two patterns).
    pub fn match_tokens(&self, tokens: &[Token]) -> Option<Captures> {
        if !self.matches_tokens(tokens) {
            return None;
        }
        let values = self
            .elements
            .iter()
            .zip(tokens)
            .filter_map(|(el, tok)| match el {
                PatternElement::Variable { name, .. } => Some((name.clone(), tok.text.to_string())),
                _ => None,
            })
            .collect();
        Some(Captures { values })
    }

    /// Whether the tokens match this pattern — [`Pattern::match_tokens`]
    /// without building the captures.
    pub fn matches_tokens(&self, tokens: &[Token]) -> bool {
        let fits = if self.ignore_rest {
            tokens.len() >= self.fixed
        } else {
            tokens.len() == self.fixed
        };
        fits && self.elements.iter().zip(tokens).all(|(el, tok)| match el {
            PatternElement::Literal { text, .. } => *text == tok.text,
            PatternElement::Variable { ty, .. } => variable_accepts(*ty, tok),
            PatternElement::IgnoreRest => true,
        })
    }

    /// Convenience: match a whole [`TokenizedMessage`].
    pub fn match_message(&self, msg: &TokenizedMessage) -> Option<Captures> {
        self.match_tokens(&msg.tokens)
    }

    /// Parse the textual pattern format. See the module docs for the grammar.
    ///
    /// Literal runs are re-tokenised with the scanner so that the parsed
    /// element structure is token-granular — `pid=` becomes the two elements
    /// `pid` and `=`, exactly as a scanned message would produce them. This
    /// makes `parse(render(p))` structurally identical to `p` for patterns
    /// mined by the analyser.
    pub fn parse(s: &str) -> Result<Pattern, PatternParseError> {
        let mut elements = Vec::new();
        let bytes = s.as_bytes();
        let mut i = 0usize;
        let mut pending_space = false;
        let scanner = crate::scanner::Scanner::new();
        while i < bytes.len() {
            if bytes[i] == b'%' && bytes.get(i + 1) != Some(&b'%') {
                let close = s[i + 1..].find('%').map(|p| i + 1 + p);
                let close = match close {
                    Some(c) => c,
                    None => return Err(PatternParseError::UnterminatedTag),
                };
                let inner = &s[i + 1..close];
                if inner == "..." {
                    elements.push(PatternElement::IgnoreRest);
                } else {
                    let (name, ty) = match inner.split_once(':') {
                        Some((n, t)) => {
                            let ty = TokenType::from_placeholder_name(t)
                                .ok_or_else(|| PatternParseError::UnknownTag(inner.to_string()))?;
                            (n, ty)
                        }
                        None => (inner, TokenType::Literal),
                    };
                    if name.is_empty() {
                        return Err(PatternParseError::EmptyName);
                    }
                    if !name
                        .bytes()
                        .all(|c| c.is_ascii_alphanumeric() || c == b'_' || c == b'-')
                    {
                        return Err(PatternParseError::UnknownTag(inner.to_string()));
                    }
                    elements.push(PatternElement::Variable {
                        name: name.to_string(),
                        ty,
                        space_before: pending_space,
                    });
                }
                pending_space = false;
                i = close + 1;
                continue;
            }
            // Literal run: everything up to the next tag, with each `%%`
            // read as a literal `%`, re-tokenised.
            let mut run = String::new();
            let mut start = i;
            loop {
                while i < bytes.len() && bytes[i] != b'%' {
                    i += 1;
                }
                run.push_str(&s[start..i]);
                if bytes.get(i + 1) != Some(&b'%') {
                    break;
                }
                run.push('%');
                i += 2;
                start = i;
            }
            let scanned = scanner.scan(&run);
            for (k, tok) in scanned.tokens.iter().enumerate() {
                let sp = if k == 0 {
                    pending_space || tok.is_space_before
                } else {
                    tok.is_space_before
                };
                elements.push(PatternElement::Literal {
                    text: tok.text.to_string(),
                    space_before: sp,
                });
            }
            pending_space = run.ends_with(' ');
        }
        Pattern::new(elements)
    }

    /// Render the textual pattern format with exact spacing. A `%` in
    /// literal text is written `%%`, so the result always parses back:
    /// `Pattern::parse(&p.render()) == Ok(p)` for mined patterns.
    pub fn render(&self) -> String {
        self.render_with(true)
    }

    /// [`Pattern::render`] with literal text written verbatim (a `%` stays
    /// a single `%`). This is the form the export formats show, and what
    /// the paper's Sequence emitted; it does not parse back when the
    /// literal text holds a `%`.
    pub fn render_plain(&self) -> String {
        self.render_with(false)
    }

    fn render_with(&self, escape_percent: bool) -> String {
        let mut out = String::new();
        for (i, el) in self.elements.iter().enumerate() {
            let space = match el {
                PatternElement::Literal { space_before, .. }
                | PatternElement::Variable { space_before, .. } => *space_before,
                PatternElement::IgnoreRest => true,
            };
            if i > 0 && space {
                out.push(' ');
            }
            match el {
                PatternElement::Literal { text, .. } if escape_percent => {
                    out.push_str(&text.replace('%', "%%"))
                }
                PatternElement::Literal { text, .. } => out.push_str(text),
                PatternElement::Variable { name, ty, .. } => {
                    out.push('%');
                    out.push_str(name);
                    if *ty != TokenType::Literal {
                        out.push(':');
                        out.push_str(ty.placeholder_name());
                    }
                    out.push('%');
                }
                PatternElement::IgnoreRest => out.push_str(IGNORE_REST_TAG),
            }
        }
        out
    }

    /// A normalised form used for event-identity comparison in evaluation:
    /// literals verbatim, every variable as `<*>`, single-spaced.
    pub fn event_signature(&self) -> String {
        let mut parts = Vec::new();
        for el in &self.elements {
            match el {
                PatternElement::Literal { text, .. } => parts.push(text.clone()),
                PatternElement::Variable { .. } => parts.push("<*>".to_string()),
                PatternElement::IgnoreRest => parts.push("<...>".to_string()),
            }
        }
        parts.join(" ")
    }
}

impl fmt::Display for Pattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

impl std::str::FromStr for Pattern {
    type Err = PatternParseError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Pattern::parse(s)
    }
}

/// Does a variable of type `ty` accept token `tok`?
///
/// Scan-time types require an exact type match. Analysis-time refinements
/// (email, hostname) accept literal tokens whose text satisfies the
/// corresponding predicate, because the scanner itself never produces those
/// types.
pub fn variable_accepts(ty: TokenType, tok: &Token) -> bool {
    match ty {
        TokenType::Literal => tok.ty == TokenType::Literal,
        TokenType::Email => tok.ty == TokenType::Literal && crate::analyzer::is_email(&tok.text),
        TokenType::Hostname => {
            tok.ty == TokenType::Literal && crate::analyzer::is_hostname(&tok.text)
        }
        other => tok.ty == other,
    }
}

/// Counts of element kinds, used by quality reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PatternShape {
    /// Literal elements.
    pub literals: usize,
    /// Variable elements, by type.
    pub variables: usize,
    /// Whether an ignore-rest marker is present.
    pub ignore_rest: bool,
}

impl Pattern {
    /// Summarise the pattern's shape.
    pub fn shape(&self) -> PatternShape {
        PatternShape {
            literals: self.literal_count(),
            variables: self.variable_count(),
            ignore_rest: self.has_ignore_rest(),
        }
    }

    /// Group variables by type, counting each.
    pub fn variable_type_histogram(&self) -> HashMap<TokenType, usize> {
        let mut h = HashMap::new();
        for el in &self.elements {
            if let PatternElement::Variable { ty, .. } = el {
                *h.entry(*ty).or_insert(0) += 1;
            }
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scanner::Scanner;

    fn lit(text: &str, sp: bool) -> PatternElement {
        PatternElement::Literal {
            text: text.into(),
            space_before: sp,
        }
    }
    fn var(name: &str, ty: TokenType, sp: bool) -> PatternElement {
        PatternElement::Variable {
            name: name.into(),
            ty,
            space_before: sp,
        }
    }

    fn sample() -> Pattern {
        Pattern::new(vec![
            var("action", TokenType::Literal, false),
            lit("from", true),
            var("srcip", TokenType::Ipv4, true),
            lit("port", true),
            var("srcport", TokenType::Integer, true),
        ])
        .unwrap()
    }

    #[test]
    fn render_matches_paper_example() {
        assert_eq!(
            sample().render(),
            "%action% from %srcip:ipv4% port %srcport:integer%"
        );
    }

    #[test]
    fn parse_round_trip() {
        let p = sample();
        let reparsed = Pattern::parse(&p.render()).unwrap();
        assert_eq!(p, reparsed);
    }

    #[test]
    fn parse_rejects_unknown_tag() {
        // A literal `%` in static text produces an invalid tag — the paper's
        // documented "unknown tag error at parsing time".
        let err = Pattern::parse("load at 95% of %max:integer%").unwrap_err();
        assert!(matches!(err, PatternParseError::UnknownTag(_)));
    }

    #[test]
    fn literal_percent_is_escaped_and_parses_back() {
        let p = Pattern::new(vec![
            PatternElement::Literal {
                text: "load".into(),
                space_before: false,
            },
            PatternElement::Variable {
                name: "pct".into(),
                ty: TokenType::Integer,
                space_before: true,
            },
            PatternElement::Literal {
                text: "%".into(),
                space_before: false,
            },
            PatternElement::Variable {
                name: "rest".into(),
                ty: TokenType::Literal,
                space_before: false,
            },
        ])
        .unwrap();
        assert_eq!(p.render(), "load %pct:integer%%%%rest%");
        assert_eq!(p.render_plain(), "load %pct:integer%%%rest%");
        assert_eq!(Pattern::parse(&p.render()).unwrap(), p);
        assert_eq!(
            Pattern::parse("map 100%% reduce 50%%")
                .unwrap()
                .render_plain(),
            "map 100% reduce 50%"
        );
        // The raw form still fails exactly as the paper documents.
        assert!(matches!(
            Pattern::parse("map 100% reduce 50%").unwrap_err(),
            PatternParseError::UnknownTag(_)
        ));
    }

    #[test]
    fn parse_rejects_unterminated() {
        assert_eq!(
            Pattern::parse("50% done").unwrap_err(),
            PatternParseError::UnterminatedTag
        );
    }

    #[test]
    fn match_against_scanned_message() {
        let msg = Scanner::new().scan("accepted from 10.0.0.7 port 2201");
        let caps = sample().match_message(&msg).expect("should match");
        assert_eq!(caps.get("action"), Some("accepted"));
        assert_eq!(caps.get("srcip"), Some("10.0.0.7"));
        assert_eq!(caps.get("srcport"), Some("2201"));
    }

    #[test]
    fn strict_types_reject_mismatches() {
        // srcport is %integer%: an alphanumeric value must not match.
        let msg = Scanner::new().scan("accepted from 10.0.0.7 port 22a1");
        assert!(sample().match_message(&msg).is_none());
        // string variable does not accept integers (Proxifier behaviour).
        let p = Pattern::new(vec![lit("sent", false), var("n", TokenType::Literal, true)]).unwrap();
        let msg = Scanner::new().scan("sent 64");
        assert!(p.match_message(&msg).is_none());
        let msg = Scanner::new().scan("sent 64*");
        assert!(p.match_message(&msg).is_some());
    }

    #[test]
    fn length_must_match_exactly_without_ignore_rest() {
        let msg = Scanner::new().scan("accepted from 10.0.0.7 port 2201 extra");
        assert!(sample().match_message(&msg).is_none());
    }

    #[test]
    fn ignore_rest_matches_any_suffix() {
        let p = Pattern::new(vec![
            lit("panic", false),
            lit(":", false),
            PatternElement::IgnoreRest,
        ])
        .unwrap();
        let msg = Scanner::new().scan("panic: runtime error index out of range");
        assert!(p.match_message(&msg).is_some());
        let too_short = Scanner::new().scan("panic");
        assert!(p.match_message(&too_short).is_none());
    }

    #[test]
    fn ignore_rest_round_trip_and_placement() {
        let p = Pattern::parse("head %...%").unwrap();
        assert!(p.has_ignore_rest());
        assert_eq!(p.render(), "head %...%");
        assert_eq!(
            Pattern::parse("%...% tail").unwrap_err(),
            PatternParseError::MisplacedIgnoreRest
        );
    }

    #[test]
    fn complexity_score() {
        assert!((sample().complexity_score() - 0.6).abs() < 1e-9);
        let all_vars = Pattern::new(vec![
            var("a", TokenType::Literal, false),
            var("b", TokenType::Integer, true),
        ])
        .unwrap();
        assert_eq!(all_vars.complexity_score(), 1.0);
        let all_lit = Pattern::new(vec![lit("x", false)]).unwrap();
        assert_eq!(all_lit.complexity_score(), 0.0);
        assert_eq!(Pattern::default().complexity_score(), 1.0);
    }

    #[test]
    fn event_signature_masks_variables() {
        assert_eq!(sample().event_signature(), "<*> from <*> port <*>");
    }

    #[test]
    fn spacing_preserved_in_render() {
        // pid=%pid:integer% has no spaces around `=`.
        let p = Pattern::new(vec![
            lit("pid", false),
            lit("=", false),
            var("pid", TokenType::Integer, false),
        ])
        .unwrap();
        assert_eq!(p.render(), "pid=%pid:integer%");
        let reparsed = Pattern::parse(&p.render()).unwrap();
        assert_eq!(p, reparsed);
    }

    #[test]
    fn shape_and_histogram() {
        let s = sample().shape();
        assert_eq!(s.literals, 2);
        assert_eq!(s.variables, 3);
        assert!(!s.ignore_rest);
        let h = sample().variable_type_histogram();
        assert_eq!(h[&TokenType::Ipv4], 1);
        assert_eq!(h[&TokenType::Integer], 1);
        assert_eq!(h[&TokenType::Literal], 1);
    }
}
