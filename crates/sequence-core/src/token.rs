//! Token model for the Sequence scanner.
//!
//! A raw log message is broken into a sequence of [`Token`]s by the scanner
//! (see [`crate::scanner`]). Each token records the exact original text, the
//! type determined at scan time, and — a Sequence-RTG addition — whether the
//! token was preceded by whitespace in the original message
//! (`is_space_before`). The latter is what allows Sequence-RTG to reconstruct
//! patterns with the exact spacing of the source message instead of blindly
//! inserting a space between all tokens (limitation 3 in the paper).
//!
//! Token text is stored as a [`TokenText`] small string: texts up to 22 bytes
//! live inline, so scanning a typical message allocates nothing per token.

use crate::text::TokenText;
use std::borrow::Cow;
use std::fmt;

/// The type of a token, as determined by the scanner's finite state machines
/// (scan time) or refined by the analyser (analysis time).
///
/// Scan-time types are the ones the paper lists for the Sequence scanner:
/// `Time`, `IPv4`, `IPv6`, `Mac Address`, `Integer`, `Float`, `URL`, or
/// `Literal` (plus a generic hexadecimal string, which Sequence's hex FSM also
/// produces). `Email` and `Hostname` are "special types [...] detected during
/// the analysis phase". `Path` is this reproduction's implementation of the
/// paper's future-work item "a fourth finite state machine to deal with the
/// many variations of what can be considered as a path"; it is only produced
/// when [`crate::scanner::ScannerOptions::detect_paths`] is enabled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TokenType {
    /// Plain text: a word, punctuation, bracket, quote, ...
    Literal,
    /// A date, a time of day, or a combined date-time stamp.
    Time,
    /// A dotted-quad IPv4 address.
    Ipv4,
    /// An IPv6 address (including `::`-compressed forms).
    Ipv6,
    /// A MAC address (six `:`- or `-`-separated octet pairs).
    Mac,
    /// A decimal integer.
    Integer,
    /// A decimal floating point number.
    Float,
    /// A URL with a recognised scheme.
    Url,
    /// A hexadecimal string (e.g. a hash or an address) that is not a MAC or
    /// IPv6 address.
    Hex,
    /// A filesystem path (extension; see [`TokenType`] docs).
    Path,
    /// An email address (analysis-time refinement).
    Email,
    /// A host name such as `node-17.example.org` (analysis-time refinement).
    Hostname,
}

impl TokenType {
    /// `true` for every type other than [`TokenType::Literal`], i.e. token
    /// types that the analyser treats as variables without further evidence.
    pub fn is_typed(self) -> bool {
        self != TokenType::Literal
    }

    /// The lower-case name used inside `%...%` placeholders of the textual
    /// pattern format (e.g. `%integer%`).
    pub fn placeholder_name(self) -> &'static str {
        match self {
            TokenType::Literal => "string",
            TokenType::Time => "time",
            TokenType::Ipv4 => "ipv4",
            TokenType::Ipv6 => "ipv6",
            TokenType::Mac => "mac",
            TokenType::Integer => "integer",
            TokenType::Float => "float",
            TokenType::Url => "url",
            TokenType::Hex => "hex",
            TokenType::Path => "path",
            TokenType::Email => "email",
            TokenType::Hostname => "host",
        }
    }

    /// Inverse of [`TokenType::placeholder_name`].
    pub fn from_placeholder_name(name: &str) -> Option<TokenType> {
        Some(match name {
            "string" => TokenType::Literal,
            "time" => TokenType::Time,
            "ipv4" => TokenType::Ipv4,
            "ipv6" => TokenType::Ipv6,
            "mac" => TokenType::Mac,
            "integer" => TokenType::Integer,
            "float" => TokenType::Float,
            "url" => TokenType::Url,
            "hex" => TokenType::Hex,
            "path" => TokenType::Path,
            "email" => TokenType::Email,
            "host" => TokenType::Hostname,
            _ => return None,
        })
    }
}

impl fmt::Display for TokenType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.placeholder_name())
    }
}

/// A single token produced by the scanner.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Token {
    /// The exact text of the token as it appeared in the message.
    pub text: TokenText,
    /// The token's type as determined at scan time.
    pub ty: TokenType,
    /// Whether the token was preceded by whitespace in the original message.
    ///
    /// This is the `isSpaceBefore` property introduced by Sequence-RTG: "As
    /// each message is scanned, the previous character passed to the scanner
    /// is saved and if it is a space, this property is set to true."
    pub is_space_before: bool,
}

impl Token {
    /// Create a literal token.
    pub fn literal(text: impl Into<TokenText>, is_space_before: bool) -> Token {
        Token {
            text: text.into(),
            ty: TokenType::Literal,
            is_space_before,
        }
    }

    /// Create a token of an arbitrary type.
    pub fn new(text: impl Into<TokenText>, ty: TokenType, is_space_before: bool) -> Token {
        Token {
            text: text.into(),
            ty,
            is_space_before,
        }
    }
}

/// A scanned message: its token sequence, plus (optionally) the original
/// text.
///
/// The parse-only hot path — matching a production stream against the known
/// pattern database — needs the tokens but never the raw copy, so
/// [`crate::Scanner::scan_parse_only`] leaves `raw` as `None` and saves one
/// full-message allocation per record. Paths that store examples (the
/// analyser, the pattern database) scan with [`crate::Scanner::scan`], which
/// captures the raw text.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TokenizedMessage {
    /// The unaltered message text, when captured at scan time; `None` on the
    /// allocation-lean parse-only path.
    pub raw: Option<Box<str>>,
    /// The scanner's token sequence for (the first line of) the message.
    pub tokens: Vec<Token>,
    /// Whether the original message contained a line break and was truncated
    /// to its first line before tokenisation (Sequence-RTG's multi-line
    /// handling; limitation 6 in the paper).
    pub truncated_multiline: bool,
}

impl TokenizedMessage {
    /// The captured raw text, if the message was scanned with raw capture.
    pub fn raw_text(&self) -> Option<&str> {
        self.raw.as_deref()
    }

    /// The best available source text: the captured raw message, or a
    /// reconstruction from the tokens when the raw copy was skipped.
    pub fn source(&self) -> Cow<'_, str> {
        match &self.raw {
            Some(raw) => Cow::Borrowed(raw),
            None => Cow::Owned(self.reconstruct()),
        }
    }

    /// Reconstruct the message text from the tokens, using `is_space_before`
    /// to decide where a space goes. For single-spaced messages this is the
    /// exact original text (verified by property tests); runs of whitespace
    /// collapse to a single space.
    pub fn reconstruct(&self) -> String {
        let cap = self
            .tokens
            .iter()
            .map(|t| t.text.len() + 1)
            .sum::<usize>()
            .saturating_sub(1);
        let mut out = String::with_capacity(cap);
        for (i, tok) in self.tokens.iter().enumerate() {
            if i > 0 && tok.is_space_before {
                out.push(' ');
            }
            out.push_str(&tok.text);
        }
        out
    }

    /// The number of tokens — the quantity Sequence-RTG's second partitioning
    /// step groups messages by.
    pub fn token_count(&self) -> usize {
        self.tokens.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placeholder_names_round_trip() {
        let all = [
            TokenType::Literal,
            TokenType::Time,
            TokenType::Ipv4,
            TokenType::Ipv6,
            TokenType::Mac,
            TokenType::Integer,
            TokenType::Float,
            TokenType::Url,
            TokenType::Hex,
            TokenType::Path,
            TokenType::Email,
            TokenType::Hostname,
        ];
        for ty in all {
            assert_eq!(
                TokenType::from_placeholder_name(ty.placeholder_name()),
                Some(ty)
            );
        }
        assert_eq!(TokenType::from_placeholder_name("nonsense"), None);
    }

    #[test]
    fn literal_is_not_typed() {
        assert!(!TokenType::Literal.is_typed());
        assert!(TokenType::Integer.is_typed());
        assert!(TokenType::Time.is_typed());
    }

    #[test]
    fn reconstruct_uses_space_before() {
        let msg = TokenizedMessage {
            raw: Some("a b=c".into()),
            tokens: vec![
                Token::literal("a", false),
                Token::literal("b", true),
                Token::literal("=", false),
                Token::literal("c", false),
            ],
            truncated_multiline: false,
        };
        assert_eq!(msg.reconstruct(), "a b=c");
        assert_eq!(msg.raw_text(), Some("a b=c"));
        assert_eq!(msg.source(), "a b=c");
    }

    #[test]
    fn source_falls_back_to_reconstruction() {
        let msg = TokenizedMessage {
            raw: None,
            tokens: vec![Token::literal("x", false), Token::literal("y", true)],
            truncated_multiline: false,
        };
        assert_eq!(msg.raw_text(), None);
        assert_eq!(msg.source(), "x y");
    }

    #[test]
    fn token_count() {
        let msg = TokenizedMessage {
            raw: Some("x y".into()),
            tokens: vec![Token::literal("x", false), Token::literal("y", true)],
            truncated_multiline: false,
        };
        assert_eq!(msg.token_count(), 2);
    }
}
