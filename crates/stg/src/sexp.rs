//! S-expression dumps of front-end artifacts, in the styx
//! compliance-grammar style: every node is
//! `(kind [start, end, line, col] payload...)`, strings are
//! JSON-escaped, and each document opens with a versioned header comment
//! (`; si-sexp 1 <document-kind>`). The dumps are compliance fixtures:
//! two implementations of the `.g` front end agree exactly when their
//! dumps are byte-identical. The grammar is documented in
//! `docs/interchange.md`; every machine-readable report is JSON.
//!
//! - [`write_events`] dumps a [`ParseEvent`] stream (a parse tree) whole:
//!   every node, token, span and defect, in stream order — the bytes the
//!   compliance corpus pins.
//! - [`write_state_graph`] dumps a [`StateGraph`] with its binary codes
//!   and labelled edges.
//! - [`escape`] is the workspace's one string escaper, shared by these
//!   dumps and every JSON emitter.

use std::fmt;

use crate::events::{ParseEvent, Token, TokenKind};
use crate::parse::{ParseErrorKind, Span};
use crate::sg::StateGraph;

/// The interchange format version, bumped on any grammar change. Written
/// into every document header.
pub const SEXP_VERSION: u32 = 1;

/// Escapes a string for a double-quoted sexp payload or JSON string
/// literal, without the quotes (JSON rules: `\" \\ \n \r \t`, other
/// control characters as `\u00XX`). The workspace's one escaper; si-lint
/// re-exports it as `json_escape`.
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

/// The emitter both dumps share: two-space indentation, one node per
/// line, leaves on a single line. `open` starts a child node, the payload
/// helpers append onto the current line, and `close` ends the innermost
/// node.
struct SexpWriter {
    out: String,
    depth: usize,
}

impl SexpWriter {
    /// A writer primed with the versioned header for `document_kind`
    /// (`parse-tree` or `state-graph`).
    fn new(document_kind: &str) -> Self {
        Self {
            out: format!("; si-sexp {SEXP_VERSION} {document_kind}\n"),
            depth: 0,
        }
    }

    /// Opens a node `(head`; nested opens indent by two spaces per level.
    fn open(&mut self, head: &str) {
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
    fn close(&mut self) {
        self.depth = self.depth.saturating_sub(1);
        self.out.push(')');
        if self.depth == 0 {
            self.out.push('\n');
        }
    }

    /// Appends a bare atom (no quoting) to the current line.
    fn atom(&mut self, s: &str) {
        self.out.push(' ');
        self.out.push_str(s);
    }

    /// Appends a JSON-escaped, double-quoted string payload.
    fn string(&mut self, s: &str) {
        self.out.push_str(" \"");
        self.out.push_str(&escape(s));
        self.out.push('"');
    }

    /// Appends a span payload `[start, end, line, col]`.
    fn span(&mut self, span: Span) {
        use fmt::Write;
        let _ = write!(
            self.out,
            " [{}, {}, {}, {}]",
            span.start, span.end, span.line, span.col
        );
    }

    /// The finished document.
    fn finish(self) -> String {
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

/// Serializes a [`ParseEvent`] stream as a `parse-tree` document.
/// Structural nodes nest; `model` carries its name as a string payload;
/// token leaves are `(name|node|entry [span] "text")`; defects are
/// `(defect [span] <kind> "message")` at their exact stream position.
#[must_use]
pub fn write_events(events: &[ParseEvent<'_>]) -> String {
    let mut w = SexpWriter::new("parse-tree");
    let leaf = |w: &mut SexpWriter, head: &str, token: &Token<'_>| {
        w.open(head);
        w.span(token.span);
        w.string(token.text);
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
                TokenKind::Model => w.string(token.text),
                TokenKind::Name => leaf(&mut w, "name", token),
                TokenKind::Node => leaf(&mut w, "node", token),
                TokenKind::MarkingEntry => leaf(&mut w, "entry", token),
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::parse_events;

    #[test]
    fn the_writer_escapes_strings_as_json() {
        // A model name with quotes, a backslash, a tab and a control
        // character; tab-separated nodes.
        let text = ".model \"q\\u\"\t\u{1}x\n.graph\n\ta+\tb+\n.end\n";
        assert_eq!(
            write_events(&parse_events(text)),
            "; si-sexp 1 parse-tree\n\
             (document [0, 0, 1, 1]\n  \
               (model [0, 15, 1, 1] \"\\\"q\\\\u\\\"\\t\\u0001x\")\n  \
               (graph [16, 22, 2, 1]\n    \
                 (line [24, 29, 3, 2]\n      \
                   (node [24, 26, 3, 2] \"a+\")\n      \
                   (node [27, 29, 3, 5] \"b+\"))))\n"
        );
    }
}
