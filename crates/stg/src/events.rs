//! The event-stream layer of the `.g` front-end: the lexer's [`Token`]s
//! in, a flat stream of [`ParseEvent`]s out. Every fact the lenient
//! parser reports — section structure for
//! [`SpecSpans`](crate::parse::SpecSpans), declaration and node tokens,
//! every syntactic [`ParseAstgError`](crate::parse::ParseAstgError) —
//! rides the stream in source order, so folding it (see
//! [`tree_of_events`](crate::tree::tree_of_events)) builds the parse and
//! serializing it (see [`crate::sexp::write_events`]) dumps it whole.

use crate::lexer::{lex, Token, TokenKind};
use crate::parse::{ParseAstgError, ParseErrorKind, Span};
use crate::signal::SignalKind;

/// The kind of a structural node in the parse tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParseNodeKind {
    /// The whole specification.
    Document,
    /// A `.model` line.
    Model,
    /// A `.inputs` declaration line.
    Inputs,
    /// A `.outputs` declaration line.
    Outputs,
    /// An `.internal` declaration line.
    Internal,
    /// The `.graph` section (from its directive to the next section).
    Graph,
    /// One content line inside the `.graph` section.
    GraphLine,
    /// The `.marking` line.
    Marking,
}

impl ParseNodeKind {
    /// The node's interchange name (the head atom in sexp dumps).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Document => "document",
            Self::Model => "model",
            Self::Inputs => "inputs",
            Self::Outputs => "outputs",
            Self::Internal => "internal",
            Self::Graph => "graph",
            Self::GraphLine => "line",
            Self::Marking => "marking",
        }
    }
}

/// One event of the front-end. `Open`/`Close` pairs nest (document ⊃
/// sections ⊃ graph lines); `Token` carries the payload words, borrowed
/// from the source; `Defect` carries a lenient-parse diagnostic at its
/// exact position in the stream — defect *order* is part of the
/// contract.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseEvent<'a> {
    /// A structural node opens at `span`.
    Open {
        /// What opens.
        kind: ParseNodeKind,
        /// The directive/line span recorded in
        /// [`SpecSpans`](crate::parse::SpecSpans).
        span: Span,
    },
    /// The innermost open node of `kind` closes.
    Close {
        /// What closes.
        kind: ParseNodeKind,
    },
    /// A payload token ([`TokenKind::Model`], [`TokenKind::Name`],
    /// [`TokenKind::Node`] or [`TokenKind::MarkingEntry`]).
    Token(Token<'a>),
    /// A syntactic defect, in stream order.
    Defect(ParseAstgError),
}

/// The event stream under construction: the events so far and the open
/// nodes above the document, innermost last.
struct Nesting<'a> {
    out: Vec<ParseEvent<'a>>,
    stack: Vec<ParseNodeKind>,
}

impl<'a> Nesting<'a> {
    /// Closes open nodes, innermost first, stopping at the document.
    /// With `keep_graph`, an open `.graph` section survives — per-line
    /// nodes close at the next line, the section only at `.marking`,
    /// another `.graph`, `.end` or the end of the text.
    fn close_to(&mut self, keep_graph: bool) {
        while let Some(&kind) = self.stack.last() {
            if keep_graph && kind == ParseNodeKind::Graph {
                break;
            }
            self.stack.pop();
            self.out.push(ParseEvent::Close { kind });
        }
    }

    fn open(&mut self, kind: ParseNodeKind, span: Span) {
        self.stack.push(kind);
        self.out.push(ParseEvent::Open { kind, span });
    }

    fn defect(&mut self, kind: ParseErrorKind, span: Span, message: String) {
        self.out.push(ParseEvent::Defect(ParseAstgError {
            kind,
            span,
            message,
        }));
    }

    fn token(&mut self, token: Token<'a>) {
        match token.kind {
            TokenKind::Model => {
                self.close_to(true);
                self.open(ParseNodeKind::Model, token.span);
                self.out.push(ParseEvent::Token(token));
            }
            TokenKind::Decl(kind) => {
                self.close_to(true);
                let node = match kind {
                    SignalKind::Input => ParseNodeKind::Inputs,
                    SignalKind::Output => ParseNodeKind::Outputs,
                    SignalKind::Internal => ParseNodeKind::Internal,
                };
                self.open(node, token.span);
            }
            TokenKind::Name | TokenKind::Node | TokenKind::MarkingEntry => {
                self.out.push(ParseEvent::Token(token));
            }
            TokenKind::Graph => {
                self.close_to(false);
                self.open(ParseNodeKind::Graph, token.span);
            }
            TokenKind::GraphLine => {
                self.close_to(true);
                self.open(ParseNodeKind::GraphLine, token.span);
            }
            TokenKind::Marking => {
                self.close_to(false);
                self.open(ParseNodeKind::Marking, token.span);
            }
            TokenKind::MarkingMalformed => self.defect(
                ParseErrorKind::Syntax,
                token.span,
                "marking must be wrapped in `{ ... }`".to_string(),
            ),
            TokenKind::Dummy => {
                self.close_to(true);
                self.defect(
                    ParseErrorKind::DummyUnsupported,
                    token.span,
                    "`.dummy` transitions are not supported".to_string(),
                );
            }
            TokenKind::Unknown => {
                self.close_to(true);
                self.defect(
                    ParseErrorKind::UnknownSection,
                    token.span,
                    format!("unknown section `{}`", token.text),
                );
            }
            TokenKind::Junk => {
                self.close_to(true);
                self.defect(
                    ParseErrorKind::Syntax,
                    token.span,
                    format!("unexpected line outside `.graph`: `{}`", token.text),
                );
            }
            TokenKind::End => self.close_to(false),
        }
    }
}

/// The full event stream of `text`: the document opens, every token
/// becomes its events in source order, and a text without a `.graph`
/// directive gets its missing-section defect last, just before the
/// document closes.
#[must_use]
pub fn parse_events(text: &str) -> Vec<ParseEvent<'_>> {
    let mut nesting = Nesting {
        out: vec![ParseEvent::Open {
            kind: ParseNodeKind::Document,
            span: Span::point(0, 1, 1),
        }],
        stack: Vec::new(),
    };
    let mut saw_graph = false;
    for token in lex(text) {
        saw_graph |= token.kind == TokenKind::Graph;
        nesting.token(token);
    }
    nesting.close_to(false);
    if !saw_graph {
        nesting.defect(
            ParseErrorKind::Syntax,
            Span::point(0, 1, 1),
            "missing `.graph` section".to_string(),
        );
    }
    nesting.out.push(ParseEvent::Close {
        kind: ParseNodeKind::Document,
    });
    nesting.out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_stream_brackets_sections_and_orders_defects() {
        let events =
            parse_events(".model m\n.inputs a\n.graph\na+ a-\nstray\n.marking { <a-,a+> }\n.end\n");
        assert!(matches!(
            events.first(),
            Some(ParseEvent::Open {
                kind: ParseNodeKind::Document,
                ..
            })
        ));
        assert!(matches!(
            events.last(),
            Some(ParseEvent::Close {
                kind: ParseNodeKind::Document
            })
        ));
        let opens: Vec<ParseNodeKind> = events
            .iter()
            .filter_map(|e| match e {
                ParseEvent::Open { kind, .. } => Some(*kind),
                _ => None,
            })
            .collect();
        assert_eq!(
            opens,
            vec![
                ParseNodeKind::Document,
                ParseNodeKind::Model,
                ParseNodeKind::Inputs,
                ParseNodeKind::Graph,
                ParseNodeKind::GraphLine,
                ParseNodeKind::GraphLine,
                ParseNodeKind::Marking,
            ]
        );
        // `stray` is inside `.graph`, so it is a graph line, not junk.
        assert!(events.iter().all(|e| !matches!(e, ParseEvent::Defect(_))));
    }

    #[test]
    fn a_missing_graph_section_is_reported_last() {
        let events = parse_events(".model m\n");
        let defects: Vec<&ParseAstgError> = events
            .iter()
            .filter_map(|e| match e {
                ParseEvent::Defect(d) => Some(d),
                _ => None,
            })
            .collect();
        assert_eq!(defects.len(), 1);
        assert_eq!(defects[0].message, "missing `.graph` section");
        // It precedes only the document close.
        assert!(matches!(events[events.len() - 2], ParseEvent::Defect(_)));
    }

    #[test]
    fn every_open_has_a_matching_close() {
        let events = parse_events(".inputs a\n.graph\na+ a-\n.marking{}\n");
        let mut depth = 0i64;
        for event in &events {
            match event {
                ParseEvent::Open { .. } => depth += 1,
                ParseEvent::Close { .. } => depth -= 1,
                _ => {}
            }
            assert!(depth >= 0);
        }
        assert_eq!(depth, 0);
    }
}
