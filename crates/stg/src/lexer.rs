//! The lexer of the `.g` front-end: one whole source text in, spanned
//! [`Token`]s that borrow it out.
//!
//! The lexer is line-oriented (the `.g` format anchors every construct to
//! a line) and mode-aware: directive classification decides how the rest
//! of the line is tokenized (`.model` keeps its whole trimmed rest as one
//! name, `.marking` bodies group `<a+,b->` entries with their internal
//! whitespace, declaration and graph lines split on whitespace). Line
//! endings are normalized in this layer: a line's trailing `\r` is
//! dropped before any span is computed, so byte offsets index the text
//! with every CRLF replaced by LF, and a CRLF specification produces
//! byte-for-byte the same tokens — spans included — as its LF twin.
//! Columns count **characters**, not bytes, so diagnostics align on
//! non-ASCII names.

use crate::parse::Span;
use crate::signal::SignalKind;

/// What a [`Token`] is. Line-marker kinds (`Model`, `Decl`, `Graph`,
/// `GraphLine`, `Marking`, `Dummy`, `Unknown`, `Junk`, `End`,
/// `MarkingMalformed`) carry the classification of a whole line; the
/// payload kinds (`Name`, `Node`, `MarkingEntry`) carry one
/// whitespace-delimited word each and follow their line's marker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// A `.model` line; the token text is the trimmed rest (the model
    /// name — possibly empty, possibly containing spaces).
    Model,
    /// A `.inputs`/`.outputs`/`.internal` line marker (span = line).
    Decl(SignalKind),
    /// One declared signal name on a declaration line.
    Name,
    /// The `.graph` line.
    Graph,
    /// A content line inside the `.graph` section (span = line); the
    /// line's [`TokenKind::Node`] tokens follow.
    GraphLine,
    /// One node (`req+`, `csc0-/2`, explicit place name) on a graph line.
    Node,
    /// A `.marking` line marker (span = line).
    Marking,
    /// One marking entry, raw (`p0`, `<a+,b->`, `<a+,b->=2`).
    MarkingEntry,
    /// A `.marking` body not wrapped in `{ ... }` (span = trimmed rest).
    MarkingMalformed,
    /// A `.dummy` line (unsupported by the thesis flow).
    Dummy,
    /// An unrecognized `.section` line; the token text is the trimmed
    /// line.
    Unknown,
    /// A non-directive line outside the `.graph` section; the token text
    /// is the trimmed line.
    Junk,
    /// The `.end` line: lexing stops here, as the parser always has.
    End,
}

/// One spanned token, its text a slice of the source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token<'a> {
    /// What the token is.
    pub kind: TokenKind,
    /// The token's text (empty for pure markers).
    pub text: &'a str,
    /// Where it lives in the (CRLF-normalized) source.
    pub span: Span,
}

/// The tokens of `text`, line by line, up to and including `.end`
/// (everything after it is ignored). A missing final newline is
/// tolerated.
pub(crate) fn lex(text: &str) -> Vec<Token<'_>> {
    let mut out = Vec::new();
    let mut in_graph = false;
    // Byte offset of the current line in the CRLF-normalized source.
    let mut abs = 0;
    for (i, raw) in text.split('\n').enumerate() {
        let raw = raw.strip_suffix('\r').unwrap_or(raw);
        if lex_line(raw, abs, i + 1, &mut in_graph, &mut out) {
            break;
        }
        abs += raw.len() + 1;
    }
    out
}

/// Classifies and tokenizes one complete (newline-free) line; returns
/// whether it was the `.end` line.
fn lex_line<'a>(
    raw: &'a str,
    abs: usize,
    lineno: usize,
    in_graph: &mut bool,
    out: &mut Vec<Token<'a>>,
) -> bool {
    let line = raw.trim();
    if line.is_empty() || line.starts_with('#') {
        return false;
    }
    let lead = raw.len() - raw.trim_start().len();
    let lead_chars = raw[..lead].chars().count();
    let line_span = Span {
        start: abs + lead,
        end: abs + lead + line.len(),
        line: lineno,
        col: lead_chars + 1,
    };
    let mut marker = |kind: TokenKind, text: &'a str| {
        out.push(Token {
            kind,
            text,
            span: line_span,
        });
    };

    if let Some(rest) = line.strip_prefix(".model") {
        marker(TokenKind::Model, rest.trim());
        return false;
    }
    if line.starts_with(".dummy") {
        marker(TokenKind::Dummy, "");
        return false;
    }
    for (directive, kind) in [
        (".inputs", SignalKind::Input),
        (".outputs", SignalKind::Output),
        (".internal", SignalKind::Internal),
    ] {
        if let Some(rest) = line.strip_prefix(directive) {
            marker(TokenKind::Decl(kind), "");
            words(
                rest,
                abs + lead + directive.len(),
                lead_chars + directive.len(),
                lineno,
                TokenKind::Name,
                out,
            );
            return false;
        }
    }
    if line == ".graph" {
        *in_graph = true;
        marker(TokenKind::Graph, "");
        return false;
    }
    if let Some(rest) = line.strip_prefix(".marking") {
        *in_graph = false;
        marker(TokenKind::Marking, "");
        lex_marking(
            rest,
            abs + lead + ".marking".len(),
            lead_chars + ".marking".len(),
            lineno,
            out,
        );
        return false;
    }
    if line == ".end" {
        marker(TokenKind::End, "");
        return true;
    }
    if line.starts_with('.') {
        marker(TokenKind::Unknown, line);
        return false;
    }
    if !*in_graph {
        marker(TokenKind::Junk, line);
        return false;
    }
    marker(TokenKind::GraphLine, "");
    words(line, abs + lead, lead_chars, lineno, TokenKind::Node, out);
    false
}

/// Whitespace-separated words of `s` as `kind` tokens. `abs` is the byte
/// offset of `s` in the normalized source, `col0` the number of
/// characters preceding `s` on its line, `lineno` the 1-based line.
fn words<'a>(
    s: &'a str,
    abs: usize,
    col0: usize,
    lineno: usize,
    kind: TokenKind,
    out: &mut Vec<Token<'a>>,
) {
    let mut push = |b: usize, end: usize, bc: usize| {
        out.push(Token {
            kind,
            text: &s[b..end],
            span: Span {
                start: abs + b,
                end: abs + end,
                line: lineno,
                col: col0 + bc + 1,
            },
        });
    };
    let mut start: Option<(usize, usize)> = None; // (byte, char) of word start
    for (chars_seen, (i, c)) in s.char_indices().enumerate() {
        if c.is_whitespace() {
            if let Some((b, bc)) = start.take() {
                push(b, i, bc);
            }
        } else if start.is_none() {
            start = Some((i, chars_seen));
        }
    }
    if let Some((b, bc)) = start {
        push(b, s.len(), bc);
    }
}

/// Tokenizes the body of a `.marking` line: `<a+,b->` groups (optionally
/// `=k`, internal whitespace allowed inside the angle brackets) and bare
/// place names. A body not wrapped in `{ ... }` yields one
/// [`TokenKind::MarkingMalformed`] marker spanning the trimmed rest.
fn lex_marking<'a>(
    rest: &'a str,
    abs: usize,
    col0: usize,
    lineno: usize,
    out: &mut Vec<Token<'a>>,
) {
    let trimmed = rest.trim();
    let lead = rest.len() - rest.trim_start().len();
    let lead_chars = rest[..lead].chars().count();
    let body = trimmed.strip_prefix('{').and_then(|b| b.strip_suffix('}'));
    let Some(body) = body else {
        out.push(Token {
            kind: TokenKind::MarkingMalformed,
            text: "",
            span: Span {
                start: abs + lead,
                end: abs + lead + trimmed.len(),
                line: lineno,
                col: col0 + lead_chars + 1,
            },
        });
        return;
    };
    let body_abs = abs + lead + 1;
    let body_col0 = col0 + lead_chars + 1;

    let cis: Vec<(usize, char)> = body.char_indices().collect();
    let mut idx = 0usize;
    while idx < cis.len() {
        let (start, c) = cis[idx];
        if c.is_whitespace() {
            idx += 1;
            continue;
        }
        let start_chars = idx;
        let mut end = start;
        if c == '<' {
            while idx < cis.len() {
                let (i, ch) = cis[idx];
                end = i + ch.len_utf8();
                idx += 1;
                if ch == '>' {
                    break;
                }
            }
        }
        while idx < cis.len() {
            let (i, ch) = cis[idx];
            if ch.is_whitespace() || ch == '<' {
                break;
            }
            end = i + ch.len_utf8();
            idx += 1;
        }
        let token = &body[start..end];
        if token.is_empty() {
            break;
        }
        out.push(Token {
            kind: TokenKind::MarkingEntry,
            text: token,
            span: Span {
                start: body_abs + start,
                end: body_abs + end,
                line: lineno,
                col: body_col0 + start_chars + 1,
            },
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crlf_lines_lex_like_lf_lines() {
        let lf = ".model x\n.inputs a\n.graph\na+ a-\n.end\n";
        let crlf = lf.replace('\n', "\r\n");
        assert_eq!(lex(&crlf), lex(lf));
    }

    #[test]
    fn columns_count_characters_not_bytes() {
        // `möde+ ` is six characters (seven bytes): `äck+` starts at
        // character column 7.
        let toks = lex(".graph\nmöde+ äck+\n");
        let nodes: Vec<&Token> = toks.iter().filter(|t| t.kind == TokenKind::Node).collect();
        assert_eq!(nodes.len(), 2);
        assert_eq!(nodes[1].text, "äck+");
        assert_eq!(nodes[1].span.col, 7);
        assert_eq!(nodes[1].span.start, 14); // bytes still index the text
    }

    #[test]
    fn everything_after_end_is_ignored() {
        let toks = lex(".graph\n.end\n.inputs a\njunk\n");
        assert_eq!(toks.last().map(|t| t.kind), Some(TokenKind::End));
        assert_eq!(toks.len(), 2);
    }
}
