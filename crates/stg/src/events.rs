//! The line reader of the `.g` front-end: one whole source text in, a
//! flat stream of [`ParseEvent`]s out. Every fact the lenient parser
//! reports — section structure for
//! [`SpecSpans`](crate::parse::SpecSpans), declaration and node
//! [`Token`]s that borrow the source, every syntactic
//! [`ParseAstgError`](crate::parse::ParseAstgError) — rides the stream in
//! source order, so folding it (see
//! [`tree_of_events`](crate::tree::tree_of_events)) builds the parse and
//! serializing it (see [`crate::sexp::write_events`]) dumps it whole.
//!
//! The reader is line-oriented (the `.g` format anchors every construct
//! to a line): each line's directive decides which nodes it closes and
//! opens, which defect it reports and how the rest of the line splits
//! into tokens (`.model` keeps its whole trimmed rest as one name,
//! `.marking` bodies group `<a+,b->` entries with their internal
//! whitespace, declaration and graph lines split on whitespace). A
//! line's trailing `\r` is dropped before any span is computed, so byte
//! offsets index the text with every CRLF replaced by LF, and a CRLF
//! specification yields the same events, spans included, as its LF twin.
//! Columns count **characters**, not bytes, so diagnostics align on
//! non-ASCII names. Reading stops at `.end`.

use crate::parse::{ParseAstgError, ParseErrorKind, Span};

/// What a payload [`Token`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// A `.model` line's trimmed rest (the model name — possibly empty,
    /// possibly containing spaces), spanning the line.
    Model,
    /// One declared signal name on a declaration line.
    Name,
    /// One node (`req+`, `csc0-/2`, explicit place name) on a graph line.
    Node,
    /// One marking entry, raw (`p0`, `<a+,b->`, `<a+,b->=2`).
    MarkingEntry,
}

/// One spanned payload word, its text a slice of the source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token<'a> {
    /// What the token is.
    pub kind: TokenKind,
    /// The token's text.
    pub text: &'a str,
    /// Where it lives in the (CRLF-normalized) source.
    pub span: Span,
}

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
    /// A payload token.
    Token(Token<'a>),
    /// A syntactic defect, in stream order.
    Defect(ParseAstgError),
}

/// The declaration directives and the nodes they open.
const DECLARATIONS: [(&str, ParseNodeKind); 3] = [
    (".inputs", ParseNodeKind::Inputs),
    (".outputs", ParseNodeKind::Outputs),
    (".internal", ParseNodeKind::Internal),
];

/// The event stream under construction: the events so far, the open
/// nodes above the document (innermost last) and whether a `.graph`
/// directive was read.
struct Reader<'a> {
    out: Vec<ParseEvent<'a>>,
    stack: Vec<ParseNodeKind>,
    saw_graph: bool,
}

impl<'a> Reader<'a> {
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

    fn token(&mut self, kind: TokenKind, text: &'a str, span: Span) {
        self.out.push(ParseEvent::Token(Token { kind, text, span }));
    }

    /// Reads one complete (newline-free) line that starts at byte `abs` of
    /// the normalized text; returns whether it was the `.end` line.
    fn line(&mut self, raw: &'a str, abs: usize, lineno: usize) -> bool {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            return false;
        }
        let lead = raw.len() - raw.trim_start().len();
        let span = Span {
            start: abs + lead,
            end: abs + lead + line.len(),
            line: lineno,
            col: raw[..lead].chars().count() + 1,
        };
        // `rest` of the line after its first `n` bytes, and the point
        // where that rest starts (`n` is ASCII, so `n` columns on).
        let after = |n: usize| {
            (
                &line[n..],
                Span::point(span.start + n, lineno, span.col + n),
            )
        };
        // Every line closes the node its predecessor opened; `.graph`,
        // `.marking` and `.end` also close the graph section.
        self.close_to(true);
        if let Some(rest) = line.strip_prefix(".model") {
            self.open(ParseNodeKind::Model, span);
            self.token(TokenKind::Model, rest.trim(), span);
        } else if line.starts_with(".dummy") {
            self.defect(
                ParseErrorKind::DummyUnsupported,
                span,
                "`.dummy` transitions are not supported".to_string(),
            );
        } else if let Some(&(directive, node)) =
            DECLARATIONS.iter().find(|(d, _)| line.starts_with(d))
        {
            self.open(node, span);
            let (rest, at) = after(directive.len());
            self.words(rest, at, TokenKind::Name);
        } else if line == ".graph" {
            self.close_to(false);
            self.saw_graph = true;
            self.open(ParseNodeKind::Graph, span);
        } else if line.starts_with(".marking") {
            self.close_to(false);
            self.open(ParseNodeKind::Marking, span);
            let (rest, at) = after(".marking".len());
            self.marking(rest, at);
        } else if line == ".end" {
            return true;
        } else if line.starts_with('.') {
            self.defect(
                ParseErrorKind::UnknownSection,
                span,
                format!("unknown section `{line}`"),
            );
        } else if self.stack.first() == Some(&ParseNodeKind::Graph) {
            self.open(ParseNodeKind::GraphLine, span);
            self.words(line, span, TokenKind::Node);
        } else {
            self.defect(
                ParseErrorKind::Syntax,
                span,
                format!("unexpected line outside `.graph`: `{line}`"),
            );
        }
        false
    }

    /// The whitespace-separated words of `s`, which starts where `at`
    /// starts, as `kind` tokens.
    fn words(&mut self, s: &'a str, at: Span, kind: TokenKind) {
        let mut start: Option<(usize, usize)> = None; // (byte, char) of word start
                                                      // A space after the end closes the last word.
        for (chars_seen, (i, c)) in s.char_indices().chain([(s.len(), ' ')]).enumerate() {
            if !c.is_whitespace() {
                start = start.or(Some((i, chars_seen)));
            } else if let Some((b, bc)) = start.take() {
                let span = Span {
                    start: at.start + b,
                    end: at.start + i,
                    line: at.line,
                    col: at.col + bc,
                };
                self.token(kind, &s[b..i], span);
            }
        }
    }

    /// The body of a `.marking` line, which starts where `at` starts: one
    /// token per `<a+,b->` group (optionally `=k`, internal whitespace
    /// allowed inside the angle brackets) or bare place name. A body not
    /// wrapped in `{ ... }` is a defect spanning the trimmed rest.
    fn marking(&mut self, rest: &'a str, at: Span) {
        let trimmed = rest.trim();
        let lead = rest.len() - rest.trim_start().len();
        let lead_chars = rest[..lead].chars().count();
        let Some(body) = trimmed.strip_prefix('{').and_then(|b| b.strip_suffix('}')) else {
            let span = Span {
                start: at.start + lead,
                end: at.start + lead + trimmed.len(),
                line: at.line,
                col: at.col + lead_chars,
            };
            self.defect(
                ParseErrorKind::Syntax,
                span,
                "marking must be wrapped in `{ ... }`".to_string(),
            );
            return;
        };
        // The body starts one past the `{`.
        let (body_start, body_col) = (at.start + lead + 1, at.col + lead_chars + 1);
        let mut chars = body.char_indices().enumerate().peekable();
        while let Some((chars_seen, (start, c))) = chars.next() {
            if c.is_whitespace() {
                continue;
            }
            let mut end = start + c.len_utf8();
            let mut in_group = c == '<';
            while let Some(&(_, (i, ch))) = chars.peek() {
                if in_group {
                    in_group = ch != '>';
                } else if ch.is_whitespace() || ch == '<' {
                    break;
                }
                end = i + ch.len_utf8();
                chars.next();
            }
            let span = Span {
                start: body_start + start,
                end: body_start + end,
                line: at.line,
                col: body_col + chars_seen,
            };
            self.token(TokenKind::MarkingEntry, &body[start..end], span);
        }
    }
}

/// The full event stream of `text`: the document opens, every line up to
/// `.end` becomes its events in source order (a missing final newline is
/// tolerated), and a text without a `.graph` directive gets its
/// missing-section defect last, just before the document closes.
#[must_use]
pub fn parse_events(text: &str) -> Vec<ParseEvent<'_>> {
    let mut reader = Reader {
        out: vec![ParseEvent::Open {
            kind: ParseNodeKind::Document,
            span: Span::point(0, 1, 1),
        }],
        stack: Vec::new(),
        saw_graph: false,
    };
    // Byte offset of the current line in the CRLF-normalized source.
    let mut abs = 0;
    for (i, raw) in text.split('\n').enumerate() {
        let raw = raw.strip_suffix('\r').unwrap_or(raw);
        if reader.line(raw, abs, i + 1) {
            break;
        }
        abs += raw.len() + 1;
    }
    reader.close_to(false);
    if !reader.saw_graph {
        reader.defect(
            ParseErrorKind::Syntax,
            Span::point(0, 1, 1),
            "missing `.graph` section".to_string(),
        );
    }
    reader.out.push(ParseEvent::Close {
        kind: ParseNodeKind::Document,
    });
    reader.out
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

    #[test]
    fn crlf_lines_read_like_lf_lines() {
        let lf = ".model x\n.inputs a\n.graph\na+ a-\n.end\n";
        let crlf = lf.replace('\n', "\r\n");
        assert_eq!(parse_events(&crlf), parse_events(lf));
    }

    #[test]
    fn columns_count_characters_not_bytes() {
        // `möde+ ` is six characters (seven bytes): `äck+` starts at
        // character column 7.
        let events = parse_events(".graph\nmöde+ äck+\n");
        let nodes: Vec<&Token> = events
            .iter()
            .filter_map(|e| match e {
                ParseEvent::Token(t) if t.kind == TokenKind::Node => Some(t),
                _ => None,
            })
            .collect();
        assert_eq!(nodes.len(), 2);
        assert_eq!(nodes[1].text, "äck+");
        assert_eq!(nodes[1].span.col, 7);
        assert_eq!(nodes[1].span.start, 14); // bytes still index the text
    }

    #[test]
    fn everything_after_end_is_ignored() {
        let events = parse_events(".graph\n.end\n.inputs a\njunk\n");
        let kinds: Vec<Option<ParseNodeKind>> = events
            .iter()
            .map(|e| match e {
                ParseEvent::Open { kind, .. } => Some(*kind),
                _ => None,
            })
            .collect();
        // Document and graph open, then both close: no `.inputs` node and
        // no junk-line defect.
        assert_eq!(
            kinds,
            vec![
                Some(ParseNodeKind::Document),
                Some(ParseNodeKind::Graph),
                None,
                None
            ]
        );
    }

    /// The defect paths of the line reader, dumped whole: junk, `.dummy`
    /// and unknown sections before and inside `.graph`, a `.marking`
    /// without braces, text after `.end` (a `.graph` there does not
    /// count) and non-ASCII names. No compliance fixture has a defect, so
    /// these dumps pin the order, spans and text of every defect event.
    #[test]
    fn defect_paths_keep_their_events() {
        let cases = [
            (
                ".model démo\njunk before graph\n.dummy t\n.inputs a ä\n.outputs b\n.graph\n\
                 a+ b+\n.weird section\nb+ ä+ ä-\n.dummy u\n\tä- a-\n.marking a+ b+\n\
                 .marking { <b+,ä+> < a- , b+ >=2 p }\n.end\n.inputs late\ntext after end\n",
                r#"; si-sexp 1 parse-tree
(document [0, 0, 1, 1]
  (model [0, 12, 1, 1] "démo")
  (defect [13, 30, 2, 1] syntax "unexpected line outside `.graph`: `junk before graph`")
  (defect [31, 39, 3, 1] dummy-unsupported "`.dummy` transitions are not supported")
  (inputs [40, 52, 4, 1]
    (name [48, 49, 4, 9] "a")
    (name [50, 52, 4, 11] "ä"))
  (outputs [53, 63, 5, 1]
    (name [62, 63, 5, 10] "b"))
  (graph [64, 70, 6, 1]
    (line [71, 76, 7, 1]
      (node [71, 73, 7, 1] "a+")
      (node [74, 76, 7, 4] "b+"))
    (defect [77, 91, 8, 1] unknown-section "unknown section `.weird section`")
    (line [92, 102, 9, 1]
      (node [92, 94, 9, 1] "b+")
      (node [95, 98, 9, 4] "ä+")
      (node [99, 102, 9, 7] "ä-"))
    (defect [103, 111, 10, 1] dummy-unsupported "`.dummy` transitions are not supported")
    (line [113, 119, 11, 2]
      (node [113, 116, 11, 2] "ä-")
      (node [117, 119, 11, 5] "a-")))
  (marking [120, 134, 12, 1]
    (defect [129, 134, 12, 10] syntax "marking must be wrapped in `{ ... }`"))
  (marking [135, 172, 13, 1]
    (entry [146, 154, 13, 12] "<b+,ä+>")
    (entry [155, 168, 13, 20] "< a- , b+ >=2")
    (entry [169, 170, 13, 34] "p")))
"#,
            ),
            (
                ".model x\n.inputs a ä\n  ä+ a-\n.unknown\n.dummy\n.marking <a+,ä->\n.end\n\
                 .graph\na+ a-\n",
                r#"; si-sexp 1 parse-tree
(document [0, 0, 1, 1]
  (model [0, 8, 1, 1] "x")
  (inputs [9, 21, 2, 1]
    (name [17, 18, 2, 9] "a")
    (name [19, 21, 2, 11] "ä"))
  (defect [24, 30, 3, 3] syntax "unexpected line outside `.graph`: `ä+ a-`")
  (defect [31, 39, 4, 1] unknown-section "unknown section `.unknown`")
  (defect [40, 46, 5, 1] dummy-unsupported "`.dummy` transitions are not supported")
  (marking [47, 64, 6, 1]
    (defect [56, 64, 6, 10] syntax "marking must be wrapped in `{ ... }`"))
  (defect [0, 0, 1, 1] syntax "missing `.graph` section"))
"#,
            ),
        ];
        for (text, dump) in cases {
            let events = parse_events(text);
            assert_eq!(crate::sexp::write_events(&events), dump, "{text:?}");
            assert_eq!(parse_events(&text.replace('\n', "\r\n")), events);
        }
    }
}
