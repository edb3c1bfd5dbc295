//! Parser and writer for the `astg` / `.g` STG interchange format used by
//! petrify-era tools (thesis Sec. 7.3.1 shows a complete example).
//!
//! Supported sections: `.model`, `.inputs`, `.outputs`, `.internal`,
//! `.graph`, `.marking { ... }`, `.end`. Graph lines read
//! `src dst1 dst2 ...`; nodes are either signal transitions (`req+`,
//! `csc0-/2`) or explicit places (any other identifier). Arcs between two
//! transitions create an implicit place, markable as `<t1,t2>` in the
//! marking section.
//!
//! Two entry points share one implementation — both are thin facades
//! over the two-layer front-end (the line reader
//! [`parse_events`](crate::events::parse_events), which emits the
//! [`ParseEvent`](crate::events::ParseEvent) stream, and the
//! [`tree_of_events`](crate::tree::tree_of_events) fold):
//!
//! - [`parse_astg`] — strict: stops at the first fatal defect and returns
//!   it as a [`ParseAstgError`] carrying a byte [`Span`] with 1-based
//!   line/column.
//! - [`parse_astg_lenient`] — error-recovering: keeps parsing past
//!   recoverable defects (undeclared signals are assumed to be inputs,
//!   malformed lines are skipped, duplicate arcs are merged) and returns
//!   the best-effort [`Stg`] together with *every* defect found and a
//!   [`SpecSpans`] side table locating each signal, transition and place
//!   in the source — the front-end the `si-lint` static analyzer builds
//!   its diagnostics on.

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

use si_petri::{PlaceId, TransitionId};

use crate::signal::SignalKind;
use crate::stg::Stg;

/// A byte range in the source text plus the 1-based line and column of its
/// start. Byte offsets index the CRLF-normalized source (the text with
/// every CRLF replaced by LF, which is the text itself when it has no
/// CRLF); columns count **characters** within the line, so diagnostics
/// align on non-ASCII specifications.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Span {
    /// Byte offset of the first byte, inclusive.
    pub start: usize,
    /// Byte offset past the last byte, exclusive.
    pub end: usize,
    /// 1-based line number of `start`.
    pub line: usize,
    /// 1-based character column of `start` within its line.
    pub col: usize,
}

impl Span {
    /// A zero-width span at a position.
    pub fn point(offset: usize, line: usize, col: usize) -> Self {
        Self {
            start: offset,
            end: offset,
            line,
            col,
        }
    }

    /// Length in bytes (zero for point spans).
    pub fn len(&self) -> usize {
        self.end.saturating_sub(self.start)
    }

    /// Whether the span covers no bytes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// What category of defect a [`ParseAstgError`] reports. The lenient
/// parser recovers from every kind; the strict parser fails on every kind
/// except [`ParseErrorKind::DuplicateArc`] (which it has always merged
/// silently).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParseErrorKind {
    /// Malformed syntax: place-to-place arcs, bad marking bodies, graph
    /// lines outside `.graph`, a missing `.graph` section.
    Syntax,
    /// An unrecognized `.section` directive.
    UnknownSection,
    /// `.dummy` transitions (unsupported by the thesis flow).
    DummyUnsupported,
    /// A `.graph` transition on a signal no section declares.
    UndeclaredSignal,
    /// A signal declared in more than one place.
    DuplicateSignal,
    /// The same arc written twice (merged, never fatal).
    DuplicateArc,
}

impl ParseErrorKind {
    /// Whether strict [`parse_astg`] fails on this kind.
    pub fn is_fatal(self) -> bool {
        !matches!(self, ParseErrorKind::DuplicateArc)
    }
}

/// Errors from [`parse_astg`] / defects collected by
/// [`parse_astg_lenient`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseAstgError {
    /// Defect category.
    pub kind: ParseErrorKind,
    /// Where in the source text.
    pub span: Span,
    /// What went wrong.
    pub message: String,
}

impl ParseAstgError {
    /// 1-based line number (start of the span).
    pub fn line(&self) -> usize {
        self.span.line
    }

    /// 1-based character column (start of the span).
    pub fn col(&self) -> usize {
        self.span.col
    }
}

impl fmt::Display for ParseAstgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "astg parse error at line {}, column {}: {}",
            self.span.line, self.span.col, self.message
        )
    }
}

impl Error for ParseAstgError {}

/// Source locations of everything the parser created, indexed like the
/// [`Stg`]'s own tables: `signals[SignalId.0]`, `transitions[TransitionId.0]`,
/// `places[PlaceId.0]`. Implicit places carry the span of the arc token
/// that created them.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpecSpans {
    /// Declaration site of each signal (first use for undeclared-signal
    /// recoveries).
    pub signals: Vec<Span>,
    /// First occurrence of each transition in the `.graph` section.
    pub transitions: Vec<Span>,
    /// First occurrence of each place (explicit name or the arc that
    /// created the implicit place).
    pub places: Vec<Span>,
    /// The `.marking` line, if present.
    pub marking: Option<Span>,
    /// The `.model` line, if present.
    pub model: Option<Span>,
}

/// Result of [`parse_astg_lenient`]: a best-effort [`Stg`], every defect
/// found, and the source locations of the recovered structure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LenientParse {
    /// The recovered STG (undeclared signals assumed `.inputs`, malformed
    /// lines skipped, duplicate arcs merged).
    pub stg: Stg,
    /// Every defect, in source order.
    pub errors: Vec<ParseAstgError>,
    /// Where each signal/transition/place lives in the source.
    pub spans: SpecSpans,
}

impl LenientParse {
    /// The first defect the strict parser would have failed on.
    pub fn first_fatal(&self) -> Option<&ParseAstgError> {
        self.errors.iter().find(|e| e.kind.is_fatal())
    }
}

/// Parses an STG in the `.g` format, recovering from every defect: the
/// result carries the best-effort [`Stg`] plus all defects with spans.
/// Never panics, on any input.
///
/// This is a thin facade over the two-layer front-end —
/// [`parse_events`](crate::events::parse_events) reads the lines into the
/// event stream, [`tree_of_events`](crate::tree::tree_of_events) folds it.
pub fn parse_astg_lenient(text: &str) -> LenientParse {
    crate::tree::tree_of_events(&crate::events::parse_events(text))
}

/// Parses an STG in the `.g` format, strictly.
///
/// # Errors
///
/// Returns the first fatal [`ParseAstgError`] — unknown signals, malformed
/// sections, place-to-place arcs, `.dummy` transitions (unsupported by the
/// thesis flow) or unknown marking entries. Duplicate arcs are merged
/// silently, as the petrify-era tools do.
pub fn parse_astg(text: &str) -> Result<Stg, ParseAstgError> {
    let parsed = parse_astg_lenient(text);
    match parsed.errors.into_iter().find(|e| e.kind.is_fatal()) {
        Some(e) => Err(e),
        None => Ok(parsed.stg),
    }
}

/// Writes an STG in the `.g` format (implicit places for 1-in/1-out
/// anonymous places, explicit names otherwise).
///
/// The output is **canonical**: graph lines, the destinations within
/// each line, and marking entries are sorted by name, so the text
/// depends only on the net's structure — never on transition or place
/// numbering. `write_astg ∘ parse_astg` is therefore idempotent: writing
/// a just-parsed writer output reproduces it byte for byte.
pub fn write_astg(stg: &Stg) -> String {
    let mut out = String::new();
    out.push_str(&format!(".model {}\n", stg.name));
    for (section, kind) in [
        (".inputs", SignalKind::Input),
        (".outputs", SignalKind::Output),
        (".internal", SignalKind::Internal),
    ] {
        let names: Vec<&str> = stg
            .signals_of_kind(kind)
            .into_iter()
            .map(|s| stg.signal_name(s))
            .collect();
        if !names.is_empty() {
            out.push_str(&format!("{section} {}\n", names.join(" ")));
        }
    }
    out.push_str(".graph\n");

    let net = stg.net();
    let implicit = |p: PlaceId| -> Option<(TransitionId, TransitionId)> {
        let pre = net.place_pre(p);
        let post = net.place_post(p);
        if pre.len() == 1 && post.len() == 1 && net.place_name(p).starts_with('<') {
            Some((pre[0], post[0]))
        } else {
            None
        }
    };

    // Group implicit arcs by source transition.
    let mut lines: BTreeMap<String, Vec<String>> = BTreeMap::new();
    let mut order: Vec<String> = Vec::new();
    for t in net.transitions() {
        let name = net.transition_name(t).to_string();
        order.push(name.clone());
        lines.entry(name).or_default();
    }
    for p in net.places() {
        if let Some((a, b)) = implicit(p) {
            lines
                .get_mut(net.transition_name(a))
                .expect("known transition")
                .push(net.transition_name(b).to_string());
        } else {
            let pname = net.place_name(p).to_string();
            for &b in net.place_post(p) {
                lines
                    .entry(pname.clone())
                    .or_default()
                    .push(net.transition_name(b).to_string());
            }
            for &a in net.place_pre(p) {
                lines
                    .get_mut(net.transition_name(a))
                    .expect("known transition")
                    .push(pname.clone());
            }
            if !order.contains(&pname) {
                order.push(pname);
            }
        }
    }
    order.sort();
    for name in order {
        let mut dsts = lines[&name].clone();
        dsts.sort();
        if !dsts.is_empty() {
            out.push_str(&format!("{name} {}\n", dsts.join(" ")));
        }
    }

    // Marking.
    let m0 = net.initial_marking();
    let mut entries: Vec<String> = Vec::new();
    for p in net.places() {
        let k = m0[p.0];
        if k == 0 {
            continue;
        }
        let text = match implicit(p) {
            Some((a, b)) => {
                format!("<{},{}>", net.transition_name(a), net.transition_name(b))
            }
            None => net.place_name(p).to_string(),
        };
        if k == 1 {
            entries.push(text);
        } else {
            entries.push(format!("{text}={k}"));
        }
    }
    entries.sort();
    out.push_str(&format!(".marking {{ {} }}\n.end\n", entries.join(" ")));
    out
}

/// The complete `imec-ram-read-sbuf` STG printed verbatim in thesis
/// Sec. 7.3.1 — the one benchmark input the thesis reproduces in full.
pub const IMEC_RAM_READ_SBUF_G: &str = "\
.model imec-ram-read-sbuf
.inputs req precharged prnotin wenin wsldin
.outputs ack wsen prnot wen wsld
.internal csc0 map0 i0 i2 i4 i8
.graph
req+ i4+
i4+ prnot+
prnot+ prnotin+
precharged+ prnot+
prnotin+ wen+
wen+ precharged- wenin+
precharged- i0-
i0- ack+
wenin+ i0-
ack+ req-
req- i8+ wen-
i8+ csc0-
wen- wenin-
wsen- wenin-
wenin- wsld+ i4- i0+
i0+ ack-
i4- prnot-
wsld+ wsldin+ precharged+
wsldin+ csc0+
prnot- prnotin- precharged+
prnotin- i8-
i8- csc0+
wsld- wsldin-
wsldin- wsen+ map0+
ack- req+
wsen+ req+
csc0+ wsld- i2-
i2- wsen+
csc0- map0-
map0+ ack-
map0- i2+
i2+ wsen-
.marking { <i4+,prnot+> <precharged+,prnot+> }
.end
";

#[cfg(test)]
mod tests {
    use super::*;

    const HANDSHAKE: &str = "\
.model handshake
.inputs req
.outputs ack
.graph
req+ ack+
ack+ req-
req- ack-
ack- req+
.marking { <ack-,req+> }
.end
";

    #[test]
    fn parses_simple_handshake() {
        let stg = parse_astg(HANDSHAKE).expect("valid");
        assert_eq!(stg.name, "handshake");
        assert_eq!(stg.signal_count(), 2);
        assert_eq!(stg.net().transition_count(), 4);
        assert_eq!(stg.net().place_count(), 4);
        let m0 = stg.net().initial_marking();
        assert_eq!(m0.iter().sum::<u32>(), 1);
        assert!(stg.net().is_live(100).expect("small"));
        assert!(stg.net().is_safe(100).expect("small"));
    }

    #[test]
    fn parses_occurrence_indices() {
        let text = "\
.model multi
.inputs a
.outputs b
.graph
a+ b+
b+ a-
a- b+/2
b+/2 a+
.marking { <b+/2,a+> }
.end
";
        let stg = parse_astg(text).expect("valid");
        let b = stg.signal_by_name("b").expect("declared");
        assert_eq!(stg.transitions_of(b).len(), 2);
        let t = stg
            .net()
            .transition_by_name("b+/2")
            .expect("occurrence transition exists");
        assert_eq!(stg.label(t).occurrence, 2);
    }

    #[test]
    fn parses_thesis_imec_ram_read_sbuf() {
        let stg = parse_astg(IMEC_RAM_READ_SBUF_G).expect("valid");
        assert_eq!(stg.name, "imec-ram-read-sbuf");
        assert_eq!(stg.signals_of_kind(SignalKind::Input).len(), 5);
        assert_eq!(stg.signals_of_kind(SignalKind::Output).len(), 5);
        assert_eq!(stg.signals_of_kind(SignalKind::Internal).len(), 6);
        assert!(stg.net().is_live(100_000).expect("bounded"));
        assert!(stg.net().is_safe(100_000).expect("bounded"));
        // Thesis Table 7.2: 112 reachable markings.
        let reach = stg.net().reachability(100_000).expect("bounded");
        assert_eq!(reach.markings.len(), 112);
    }

    #[test]
    fn rejects_undeclared_signal() {
        let text = ".model x\n.inputs a\n.graph\na+ zz+\n.marking { }\n.end\n";
        let e = parse_astg(text).unwrap_err();
        assert!(e.message.contains("undeclared"));
        assert_eq!(e.kind, ParseErrorKind::UndeclaredSignal);
        assert_eq!(e.span.line, 4);
        assert_eq!(e.span.col, 4);
    }

    #[test]
    fn rejects_dummy_section() {
        let text = ".model x\n.dummy d\n.graph\n.end\n";
        assert!(parse_astg(text).is_err());
    }

    #[test]
    fn explicit_places_work() {
        let text = "\
.model choice
.inputs a b
.outputs c
.graph
p0 a+ b+
a+ c+
b+ c+
c+ p1
p1 a-
a- c-
c- p0
.marking { p0 }
.end
";
        let stg = parse_astg(text).expect("valid");
        assert!(stg.net().place_by_name("p0").is_some());
        let p0 = stg.net().place_by_name("p0").expect("exists");
        assert!(stg.net().is_choice_place(p0));
        assert!(stg.net().is_free_choice());
    }

    #[test]
    fn round_trips_through_writer() {
        let stg = parse_astg(IMEC_RAM_READ_SBUF_G).expect("valid");
        let text = write_astg(&stg);
        let stg2 = parse_astg(&text).expect("round trip");
        assert_eq!(stg2.signal_count(), stg.signal_count());
        assert_eq!(stg2.net().transition_count(), stg.net().transition_count());
        let r1 = stg.net().reachability(100_000).expect("bounded");
        let r2 = stg2.net().reachability(100_000).expect("bounded");
        assert_eq!(r1.markings.len(), r2.markings.len());
    }

    #[test]
    fn rejects_place_to_place_arcs() {
        let text = ".model x\n.inputs a\n.graph\np0 p1\n.end\n";
        let e = parse_astg(text).unwrap_err();
        assert!(e.message.contains("place-to-place"));
    }

    #[test]
    fn rejects_unknown_marking_entries() {
        let text = "\
.model x
.inputs a
.outputs b
.graph
a+ b+
b+ a-
a- b-
b- a+
.marking { <zz+,a+> }
.end
";
        assert!(parse_astg(text).is_err());
    }

    #[test]
    fn rejects_double_declaration() {
        let text = ".model x\n.inputs a\n.outputs a\n.graph\na+ a-\n.end\n";
        let e = parse_astg(text).unwrap_err();
        assert!(e.message.contains("twice"));
        assert_eq!(e.span.line, 3);
        assert_eq!(e.span.col, 10);
    }

    #[test]
    fn missing_graph_section_is_an_error() {
        assert!(parse_astg(".model x\n.inputs a\n.end\n").is_err());
    }

    #[test]
    fn duplicate_arcs_are_merged() {
        let text = "\
.model dup
.inputs a
.outputs b
.graph
a+ b+
a+ b+
b+ a-
a- b-
b- a+
.marking { <b-,a+> }
.end
";
        let stg = parse_astg(text).expect("valid");
        // Only one implicit place between a+ and b+.
        assert_eq!(stg.net().place_count(), 4);
        // The lenient parser reports the merge as a non-fatal defect.
        let parsed = parse_astg_lenient(text);
        assert_eq!(parsed.errors.len(), 1);
        assert_eq!(parsed.errors[0].kind, ParseErrorKind::DuplicateArc);
        assert!(parsed.first_fatal().is_none());
    }

    #[test]
    fn marking_with_counts() {
        let text = "\
.model counts
.inputs a
.outputs b
.graph
a+ b+
b+ a+
.marking { <b+,a+>=2 }
.end
";
        let stg = parse_astg(text).expect("valid");
        assert_eq!(stg.net().initial_marking().iter().sum::<u32>(), 2);
    }

    #[test]
    fn lenient_parse_recovers_and_reports_every_defect() {
        // Five distinct defects in one file; the strict parser would stop
        // at the first, the lenient one reports all and still recovers a
        // usable net from the well-formed remainder.
        let text = "\
.model broken
.inputs a a
.frequency 50
.dummy d0
.graph
a+ b+
b+ a-
a- b-
b- a+
p0 p1
.marking { <b-,a+> qq }
.end
";
        let parsed = parse_astg_lenient(text);
        let kinds: Vec<ParseErrorKind> = parsed.errors.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                ParseErrorKind::DuplicateSignal,
                ParseErrorKind::UnknownSection,
                ParseErrorKind::DummyUnsupported,
                ParseErrorKind::UndeclaredSignal,
                ParseErrorKind::Syntax, // place-to-place
                ParseErrorKind::Syntax, // unknown marking place
            ]
        );
        // Recovery: `b` was assumed to be an input, the ring is intact and
        // the marked implicit place got its token.
        let stg = &parsed.stg;
        assert_eq!(stg.signal_count(), 2);
        assert_eq!(stg.net().transition_count(), 4);
        assert_eq!(stg.net().initial_marking().iter().sum::<u32>(), 1);
        // Strict mode reports the first fatal defect.
        assert_eq!(
            parse_astg(text).unwrap_err().kind,
            ParseErrorKind::DuplicateSignal
        );
    }

    #[test]
    fn lenient_parse_records_spans_for_every_entity() {
        let parsed = parse_astg_lenient(HANDSHAKE);
        assert!(parsed.errors.is_empty());
        let spans = &parsed.spans;
        assert_eq!(spans.signals.len(), parsed.stg.signal_count());
        assert_eq!(spans.transitions.len(), parsed.stg.net().transition_count());
        assert_eq!(spans.places.len(), parsed.stg.net().place_count());
        // `.inputs req` is line 2; the name starts at column 9.
        assert_eq!(spans.signals[0].line, 2);
        assert_eq!(spans.signals[0].col, 9);
        // `req+` first occurs on line 5, column 1.
        assert_eq!(spans.transitions[0].line, 5);
        assert_eq!(spans.transitions[0].col, 1);
        assert_eq!(spans.marking.expect("present").line, 9);
        // Spans point back into the source text.
        let s = spans.signals[0];
        assert_eq!(&HANDSHAKE[s.start..s.end], "req");
    }

    #[test]
    fn lenient_parse_never_panics_on_garbage() {
        for text in [
            "",
            "\n\n\n",
            ".end",
            ".graph",
            ".marking { <a+ }",
            ".marking x",
            "a+ b+",
            ".inputs\n.graph\n+ -\n/ //\n.marking { = <,> x=y }\n.end",
            ".model \u{fe0f}\n.graph\n\u{fe0f}+ \u{fe0f}-\n.end",
        ] {
            let _ = parse_astg_lenient(text);
            let _ = parse_astg(text);
        }
    }

    #[test]
    fn crlf_input_parses_identically_to_lf() {
        let crlf = HANDSHAKE.replace('\n', "\r\n");
        // Spans included: the line reader normalizes CRLF to LF before
        // any offset is computed.
        assert_eq!(parse_astg_lenient(&crlf), parse_astg_lenient(HANDSHAKE));
    }

    #[test]
    fn missing_trailing_newline_parses_identically() {
        let trimmed = HANDSHAKE.trim_end_matches('\n');
        assert_eq!(parse_astg_lenient(trimmed), parse_astg_lenient(HANDSHAKE));
    }

    #[test]
    fn columns_count_characters_on_non_ascii_lines() {
        // `möde+ ` is six characters but seven bytes: `äck+` must be
        // reported at character column 7, not byte column 8.
        let text = ".model x\n.inputs möde\n.graph\nmöde+ äck+\n.end\n";
        let e = parse_astg(text).unwrap_err();
        assert_eq!(e.kind, ParseErrorKind::UndeclaredSignal);
        assert_eq!(e.span.line, 4);
        assert_eq!(e.span.col, 7);
        // Byte offsets still index the source text.
        assert_eq!(&text[e.span.start..e.span.end], "äck+");
    }

    #[test]
    fn writer_output_is_a_fixed_point_of_parse_then_write() {
        // The canonical (name-sorted) writer depends only on the net's
        // structure, so re-parsing and re-writing its own output is the
        // identity — even though the re-parse renumbers transitions.
        let first = write_astg(&parse_astg(IMEC_RAM_READ_SBUF_G).expect("valid"));
        let second = write_astg(&parse_astg(&first).expect("round trip"));
        assert_eq!(first, second);
    }
}
