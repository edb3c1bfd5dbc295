//! Lossless S-expression interchange for front-end artifacts, in the
//! styx compliance-grammar style: every node is
//! `(kind [start, end, line, col] payload...)`, strings are
//! JSON-escaped, and each document opens with a versioned header comment
//! (`; si-sexp 1 <document-kind>`). The format is language-neutral and
//! diff-friendly, so external implementations can consume — and test
//! against — our parse trees, state graphs and constraint reports
//! without linking any Rust. The grammar is documented in
//! `docs/interchange.md`.
//!
//! Three writers and one reader:
//!
//! - [`write_events`] dumps a [`ParseEvent`] stream (a parse tree);
//!   [`read_events`] reads such a dump back into the *identical* event
//!   stream, so `parse → events → sexp → read → tree` reproduces
//!   [`parse_astg_lenient`](crate::parse::parse_astg_lenient) bit for
//!   bit — the round-trip contract the compliance corpus and the fuzz
//!   oracle pin.
//! - [`write_state_graph`] dumps a [`StateGraph`] with its binary codes
//!   and labelled edges.
//! - [`SexpWriter`] is the shared low-level emitter; downstream crates
//!   (`si-lint` diagnostics, `si-core` constraint reports) build their
//!   own documents on it.

use std::error::Error;
use std::fmt;

use crate::events::{ParseEvent, ParseNodeKind};
use crate::lexer::{Token, TokenKind};
use crate::parse::{ParseAstgError, ParseErrorKind, Span};
use crate::sg::StateGraph;

/// The interchange format version, bumped on any grammar change. Written
/// into every document header; [`read_events`] rejects mismatches.
pub const SEXP_VERSION: u32 = 1;

/// Escapes a string for a double-quoted sexp payload (JSON rules:
/// `\" \\ \n \r \t`, other control characters as `\u00XX`).
#[must_use]
pub fn escape(s: &str) -> String {
    use fmt::Write;
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Low-level emitter for si-sexp documents: two-space indentation, one
/// node per line, leaves on a single line. [`SexpWriter::open`] starts a
/// child node, the payload helpers append onto the current line, and
/// [`SexpWriter::close`] ends the innermost node.
#[derive(Debug)]
pub struct SexpWriter {
    out: String,
    depth: usize,
}

impl SexpWriter {
    /// A writer primed with the versioned header for `document_kind`
    /// (e.g. `parse-tree`, `state-graph`, `lint-report`).
    #[must_use]
    pub fn new(document_kind: &str) -> Self {
        Self {
            out: format!("; si-sexp {SEXP_VERSION} {document_kind}\n"),
            depth: 0,
        }
    }

    /// Opens a node `(head`; nested opens indent by two spaces per level.
    pub fn open(&mut self, head: &str) {
        if self.depth > 0 || !self.out.ends_with('\n') {
            self.out.push('\n');
            for _ in 0..self.depth {
                self.out.push_str("  ");
            }
        }
        self.out.push('(');
        self.out.push_str(head);
        self.depth += 1;
    }

    /// Closes the innermost open node.
    pub fn close(&mut self) {
        self.depth = self.depth.saturating_sub(1);
        self.out.push(')');
        if self.depth == 0 {
            self.out.push('\n');
        }
    }

    /// Appends a bare atom (no quoting) to the current line.
    pub fn atom(&mut self, s: &str) {
        self.out.push(' ');
        self.out.push_str(s);
    }

    /// Appends a JSON-escaped, double-quoted string payload.
    pub fn string(&mut self, s: &str) {
        self.out.push_str(" \"");
        self.out.push_str(&escape(s));
        self.out.push('"');
    }

    /// Appends a span payload `[start, end, line, col]`.
    pub fn span(&mut self, span: Span) {
        use fmt::Write;
        let _ = write!(
            self.out,
            " [{}, {}, {}, {}]",
            span.start, span.end, span.line, span.col
        );
    }

    /// The finished document.
    #[must_use]
    pub fn finish(self) -> String {
        self.out
    }
}

/// The interchange atom of a defect kind.
fn kind_name(kind: ParseErrorKind) -> &'static str {
    match kind {
        ParseErrorKind::Syntax => "syntax",
        ParseErrorKind::UnknownSection => "unknown-section",
        ParseErrorKind::DummyUnsupported => "dummy-unsupported",
        ParseErrorKind::UndeclaredSignal => "undeclared-signal",
        ParseErrorKind::DuplicateSignal => "duplicate-signal",
        ParseErrorKind::DuplicateArc => "duplicate-arc",
    }
}

fn kind_of_name(name: &str) -> Option<ParseErrorKind> {
    Some(match name {
        "syntax" => ParseErrorKind::Syntax,
        "unknown-section" => ParseErrorKind::UnknownSection,
        "dummy-unsupported" => ParseErrorKind::DummyUnsupported,
        "undeclared-signal" => ParseErrorKind::UndeclaredSignal,
        "duplicate-signal" => ParseErrorKind::DuplicateSignal,
        "duplicate-arc" => ParseErrorKind::DuplicateArc,
        _ => return None,
    })
}

/// Serializes a [`ParseEvent`] stream as a `parse-tree` document.
/// Structural nodes nest; `model` carries its name as a string payload;
/// token leaves are `(name|node|entry [span] "text")`; defects are
/// `(defect [span] <kind> "message")` at their exact stream position.
#[must_use]
pub fn write_events(events: &[ParseEvent]) -> String {
    let mut w = SexpWriter::new("parse-tree");
    let leaf = |w: &mut SexpWriter, head: &str, token: &Token| {
        w.open(head);
        w.span(token.span);
        w.string(&token.text);
        w.close();
    };
    for event in events {
        match event {
            ParseEvent::Open { kind, span } => {
                w.open(kind.name());
                w.span(*span);
            }
            ParseEvent::Close { .. } => w.close(),
            ParseEvent::Token(token) => match token.kind {
                // The model name rides its node's own line.
                TokenKind::Model => w.string(&token.text),
                TokenKind::Name => leaf(&mut w, "name", token),
                TokenKind::Node => leaf(&mut w, "node", token),
                TokenKind::MarkingEntry => leaf(&mut w, "entry", token),
                // Marker kinds never appear inside event streams.
                _ => {}
            },
            ParseEvent::Defect(e) => {
                w.open("defect");
                w.span(e.span);
                w.atom(kind_name(e.kind));
                w.string(&e.message);
                w.close();
            }
        }
    }
    w.finish()
}

/// Serializes a [`StateGraph`] as a `state-graph` document: the signal
/// name table, one `(state i "code")` per state (bit `j` of the code
/// string is signal `j`, `0` printed first), and one
/// `(edge from "label" to)` per transition edge.
#[must_use]
pub fn write_state_graph(sg: &StateGraph, names: &[String]) -> String {
    let mut w = SexpWriter::new("state-graph");
    w.open("state-graph");
    w.open("signals");
    for name in names {
        w.string(name);
    }
    w.close();
    for i in 0..sg.state_count() {
        let code = sg.code(i);
        let bits: String = (0..names.len())
            .map(|b| if code & (1u64 << b) != 0 { '1' } else { '0' })
            .collect();
        w.open("state");
        w.atom(&i.to_string());
        w.string(&bits);
        w.close();
    }
    for i in 0..sg.state_count() {
        for &(t, j) in sg.edges(i) {
            w.open("edge");
            w.atom(&i.to_string());
            w.string(&sg.label(t).display(names).to_string());
            w.atom(&j.to_string());
            w.close();
        }
    }
    w.close();
    w.finish()
}

/// A malformed si-sexp document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SexpError {
    /// What is wrong.
    pub message: String,
    /// Byte offset of the offending character.
    pub offset: usize,
}

impl fmt::Display for SexpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "sexp parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl Error for SexpError {}

/// Reads a `parse-tree` document back into the [`ParseEvent`] stream
/// that produced it. Exact inverse of [`write_events`]: the returned
/// stream is event-for-event identical, so folding it through
/// [`tree_of_events`](crate::tree::tree_of_events) reproduces the
/// original [`LenientParse`](crate::parse::LenientParse).
///
/// # Errors
///
/// Returns a [`SexpError`] on malformed input or an unsupported
/// `; si-sexp <version>` header.
pub fn read_events(text: &str) -> Result<Vec<ParseEvent>, SexpError> {
    let mut reader = Reader { text, pos: 0 };
    reader.check_version()?;
    let mut out = Vec::new();
    loop {
        reader.skip_trivia();
        if reader.peek().is_none() {
            break;
        }
        reader.node(&mut out)?;
    }
    Ok(out)
}

struct Reader<'a> {
    text: &'a str,
    pos: usize,
}

impl Reader<'_> {
    fn err<T>(&self, message: impl Into<String>) -> Result<T, SexpError> {
        Err(SexpError {
            message: message.into(),
            offset: self.pos,
        })
    }

    fn peek(&self) -> Option<char> {
        self.text[self.pos..].chars().next()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += c.len_utf8();
        Some(c)
    }

    /// Skips whitespace and `;` line comments.
    fn skip_trivia(&mut self) {
        loop {
            match self.peek() {
                Some(c) if c.is_whitespace() => {
                    self.bump();
                }
                Some(';') => {
                    while let Some(c) = self.bump() {
                        if c == '\n' {
                            break;
                        }
                    }
                }
                _ => return,
            }
        }
    }

    /// Validates the `; si-sexp <version> <kind>` header if one leads
    /// the document (possibly after other comment lines).
    fn check_version(&mut self) -> Result<(), SexpError> {
        for line in self.text.lines() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let Some(rest) = line.strip_prefix(';') else {
                break; // content reached without a version header: tolerated
            };
            if let Some(v) = rest.trim().strip_prefix("si-sexp ") {
                let digits: String = v.chars().take_while(char::is_ascii_digit).collect();
                match digits.parse::<u32>() {
                    Ok(n) if n == SEXP_VERSION => return Ok(()),
                    Ok(n) => {
                        return self.err(format!(
                            "unsupported si-sexp version {n} (expected {SEXP_VERSION})"
                        ))
                    }
                    Err(_) => return self.err("malformed si-sexp version header"),
                }
            }
        }
        Ok(())
    }

    fn expect(&mut self, want: char) -> Result<(), SexpError> {
        self.skip_trivia();
        match self.peek() {
            Some(c) if c == want => {
                self.bump();
                Ok(())
            }
            Some(c) => self.err(format!("expected `{want}`, found `{c}`")),
            None => self.err(format!("expected `{want}`, found end of input")),
        }
    }

    fn atom(&mut self) -> Result<String, SexpError> {
        self.skip_trivia();
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c.is_alphanumeric() || c == '-' || c == '_' {
                self.bump();
            } else {
                break;
            }
        }
        if self.pos == start {
            return self.err("expected an atom");
        }
        Ok(self.text[start..self.pos].to_string())
    }

    fn number(&mut self) -> Result<usize, SexpError> {
        self.skip_trivia();
        let start = self.pos;
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.bump();
        }
        if self.pos == start {
            return self.err("expected a number");
        }
        self.text[start..self.pos].parse().map_err(|_| SexpError {
            message: "number out of range".to_string(),
            offset: start,
        })
    }

    fn span(&mut self) -> Result<Span, SexpError> {
        self.expect('[')?;
        let start = self.number()?;
        self.expect(',')?;
        let end = self.number()?;
        self.expect(',')?;
        let line = self.number()?;
        self.expect(',')?;
        let col = self.number()?;
        self.expect(']')?;
        Ok(Span {
            start,
            end,
            line,
            col,
        })
    }

    fn string(&mut self) -> Result<String, SexpError> {
        self.expect('"')?;
        let mut out = String::new();
        loop {
            let Some(c) = self.bump() else {
                return self.err("unterminated string");
            };
            match c {
                '"' => return Ok(out),
                '\\' => {
                    let Some(esc) = self.bump() else {
                        return self.err("unterminated escape");
                    };
                    match esc {
                        '"' => out.push('"'),
                        '\\' => out.push('\\'),
                        'n' => out.push('\n'),
                        'r' => out.push('\r'),
                        't' => out.push('\t'),
                        'u' => {
                            let hex = self.text.get(self.pos..self.pos + 4);
                            let Some(hex) = hex else {
                                return self.err("truncated \\u escape");
                            };
                            let Ok(n) = u32::from_str_radix(hex, 16) else {
                                return self.err("malformed \\u escape");
                            };
                            let Some(c) = char::from_u32(n) else {
                                return self.err("invalid \\u code point");
                            };
                            self.pos += 4;
                            out.push(c);
                        }
                        other => return self.err(format!("unknown escape `\\{other}`")),
                    }
                }
                c => out.push(c),
            }
        }
    }

    fn peek_is(&mut self, want: char) -> bool {
        self.skip_trivia();
        self.peek() == Some(want)
    }

    /// One node, emitted as events. Structural heads recurse; leaf heads
    /// (`name`, `node`, `entry`, `defect`) emit a single event.
    fn node(&mut self, out: &mut Vec<ParseEvent>) -> Result<(), SexpError> {
        self.expect('(')?;
        let head = self.atom()?;
        let structural = |name: &str| -> Option<ParseNodeKind> {
            Some(match name {
                "document" => ParseNodeKind::Document,
                "model" => ParseNodeKind::Model,
                "inputs" => ParseNodeKind::Inputs,
                "outputs" => ParseNodeKind::Outputs,
                "internal" => ParseNodeKind::Internal,
                "graph" => ParseNodeKind::Graph,
                "line" => ParseNodeKind::GraphLine,
                "marking" => ParseNodeKind::Marking,
                _ => return None,
            })
        };
        if let Some(kind) = structural(&head) {
            let span = self.span()?;
            out.push(ParseEvent::Open { kind, span });
            if kind == ParseNodeKind::Model && self.peek_is('"') {
                let text = self.string()?;
                out.push(ParseEvent::Token(Token {
                    kind: TokenKind::Model,
                    text,
                    span,
                }));
            }
            while !self.peek_is(')') {
                if self.peek().is_none() {
                    return self.err(format!("unclosed `{head}` node"));
                }
                self.node(out)?;
            }
            self.expect(')')?;
            out.push(ParseEvent::Close { kind });
            return Ok(());
        }
        let token_kind = match head.as_str() {
            "name" => Some(TokenKind::Name),
            "node" => Some(TokenKind::Node),
            "entry" => Some(TokenKind::MarkingEntry),
            _ => None,
        };
        if let Some(kind) = token_kind {
            let span = self.span()?;
            let text = self.string()?;
            self.expect(')')?;
            out.push(ParseEvent::Token(Token { kind, text, span }));
            return Ok(());
        }
        if head == "defect" {
            let span = self.span()?;
            let kind_atom = self.atom()?;
            let Some(kind) = kind_of_name(&kind_atom) else {
                return self.err(format!("unknown defect kind `{kind_atom}`"));
            };
            let message = self.string()?;
            self.expect(')')?;
            out.push(ParseEvent::Defect(ParseAstgError {
                kind,
                span,
                message,
            }));
            return Ok(());
        }
        self.err(format!("unknown node kind `{head}`"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::parse_events;
    use crate::parse::{parse_astg_lenient, IMEC_RAM_READ_SBUF_G};
    use crate::tree::tree_of_events;

    #[test]
    fn events_round_trip_through_the_interchange_format() {
        let events = parse_events(IMEC_RAM_READ_SBUF_G);
        let dump = write_events(&events);
        let back = read_events(&dump).expect("reader accepts writer output");
        assert_eq!(back, events);
        assert_eq!(
            tree_of_events(&back),
            parse_astg_lenient(IMEC_RAM_READ_SBUF_G)
        );
    }

    #[test]
    fn defective_specs_round_trip_too() {
        let text = ".model broken\n.inputs a a\n.weird\n.graph\na+ b+\np0 p1\n.marking x\n";
        let events = parse_events(text);
        let dump = write_events(&events);
        let back = read_events(&dump).expect("round trip");
        assert_eq!(back, events);
        assert_eq!(tree_of_events(&back), parse_astg_lenient(text));
    }

    #[test]
    fn strings_with_escapes_survive() {
        let text = ".model \"q\\u\"\n.graph\n\ta+\tb+\n.end\n";
        let events = parse_events(text);
        let back = read_events(&write_events(&events)).expect("round trip");
        assert_eq!(back, events);
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let dump = write_events(&parse_events(".graph\na+ b+\n.end\n"));
        let bumped = dump.replace("; si-sexp 1 ", "; si-sexp 99 ");
        let e = read_events(&bumped).unwrap_err();
        assert!(e.message.contains("version 99"));
    }

    #[test]
    fn malformed_documents_error_instead_of_panicking() {
        for text in [
            "(",
            ")",
            "(document",
            "(document [0, 0, 1, 1]",
            "(wat [0, 0, 1, 1])",
            "(defect [0, 0, 1, 1] nonsense \"m\")",
            "(name [0, 1, 1] \"x\")",
            "(name [0, 1, 1, 1] \"x)",
        ] {
            assert!(read_events(text).is_err(), "accepted {text:?}");
        }
    }
}
