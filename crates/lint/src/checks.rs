//! The static checks. Everything here is purely structural — no state
//! graph is ever explored — so linting a specification is linear-ish in
//! its size, never in its (exponential) marking space.
//!
//! Severity policy: a finding is an **error** only when the defect
//! *definitely* breaks the derivation flow (strict parse failure, or a
//! structural property the engine's well-formedness gate requires); it is
//! a **warning** when the structure is suspicious but a consistent token
//! game could still exist (e.g. rise/fall imbalance in a net with
//! choice). Lint-clean-of-errors therefore implies the strict parser
//! accepts the file.

use si_stg::{parse_astg_lenient, LenientParse, ParseErrorKind, Span, Stg};

use crate::diag::{Code, Diagnostic, LintReport, Severity};

/// Tuning knobs for the linter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LintOptions {
    /// The state-graph exploration budget the downstream engine will use,
    /// if known: enables the [`Code::SI016`] infeasibility estimate.
    pub state_budget: Option<usize>,
}

/// Lints a `.g` specification text with default options.
pub fn lint_text(text: &str) -> LintReport {
    lint_text_with(text, &LintOptions::default())
}

/// Lints a `.g` specification text.
pub fn lint_text_with(text: &str, opts: &LintOptions) -> LintReport {
    lint_parsed(&parse_astg_lenient(text), opts)
}

/// Lints an already-parsed (lenient) specification — the engine and the
/// suite pre-flight reuse their parse through this entry point.
pub fn lint_parsed(parsed: &LenientParse, opts: &LintOptions) -> LintReport {
    let mut report = LintReport {
        model: parsed.stg.name.clone(),
        diagnostics: Vec::new(),
    };
    parse_defects(parsed, &mut report);
    structural_checks(parsed, opts, &mut report);
    report.sort();
    report
}

/// The text between the first pair of backticks, if any — parser messages
/// quote the offending name this way.
fn backticked(message: &str) -> Option<&str> {
    let start = message.find('`')? + 1;
    let end = start + message[start..].find('`')?;
    Some(&message[start..end])
}

/// Maps every parser defect onto a diagnostic. Fatal parse kinds become
/// errors (so zero lint errors ⇒ the strict parser accepts the file),
/// merged duplicate arcs a warning.
fn parse_defects(parsed: &LenientParse, report: &mut LintReport) {
    for e in &parsed.errors {
        let (code, severity) = match e.kind {
            ParseErrorKind::Syntax => (Code::SI001, Severity::Error),
            ParseErrorKind::UnknownSection => (Code::SI002, Severity::Error),
            ParseErrorKind::DummyUnsupported => (Code::SI003, Severity::Error),
            ParseErrorKind::UndeclaredSignal => (Code::SI004, Severity::Error),
            ParseErrorKind::DuplicateSignal => (Code::SI005, Severity::Error),
            ParseErrorKind::DuplicateArc => (Code::SI007, Severity::Warning),
        };
        let mut d = Diagnostic::new(code, severity, Some(e.span), e.message.clone());
        match e.kind {
            ParseErrorKind::UnknownSection => {
                d = d.with_fix("remove the section or check the directive spelling");
            }
            ParseErrorKind::DummyUnsupported => {
                d = d.with_fix("expand dummy transitions into signal transitions");
            }
            ParseErrorKind::UndeclaredSignal => {
                if let Some(name) = backticked(&e.message) {
                    d = d.with_fix(format!(
                        "declare `{name}` in `.inputs`, `.outputs` or `.internal`"
                    ));
                }
            }
            ParseErrorKind::DuplicateSignal => {
                if let Some(name) = backticked(&e.message) {
                    // The parser kept the first declaration; point at it.
                    if let Some(first) = parsed
                        .stg
                        .signal_by_name(name)
                        .and_then(|s| parsed.spans.signals.get(s.0).copied())
                    {
                        d = d.with_related(first, "first declared here");
                    }
                    d = d.with_fix(format!("keep a single declaration of `{name}`"));
                }
            }
            ParseErrorKind::DuplicateArc => {
                d = d.with_fix("remove the repeated arc");
            }
            ParseErrorKind::Syntax => {}
        }
        report.diagnostics.push(d);
    }
}

fn signal_span(parsed: &LenientParse, idx: usize) -> Option<Span> {
    parsed.spans.signals.get(idx).copied()
}

fn transition_span(parsed: &LenientParse, idx: usize) -> Option<Span> {
    parsed.spans.transitions.get(idx).copied()
}

fn place_span(parsed: &LenientParse, idx: usize) -> Option<Span> {
    parsed.spans.places.get(idx).copied()
}

fn structural_checks(parsed: &LenientParse, opts: &LintOptions, report: &mut LintReport) {
    let stg = &parsed.stg;
    let net = stg.net();
    let push = |report: &mut LintReport, d: Diagnostic| report.diagnostics.push(d);

    // SI006: declared signals with no transitions in the graph.
    for s in stg.signal_ids() {
        if stg.transitions_of(s).is_empty() {
            let name = stg.signal_name(s);
            push(
                report,
                Diagnostic::new(
                    Code::SI006,
                    Severity::Warning,
                    signal_span(parsed, s.0),
                    format!("signal `{name}` is declared but never used in `.graph`"),
                )
                .with_fix(format!(
                    "remove the declaration of `{name}` or add its transitions"
                )),
            );
        }
    }

    // SI008: self-loop places (consumed and produced by one transition).
    for p in net.places() {
        if let Some(&t) = net
            .place_pre(p)
            .iter()
            .find(|t| net.place_post(p).contains(t))
        {
            push(
                report,
                Diagnostic::new(
                    Code::SI008,
                    Severity::Error,
                    place_span(parsed, p.0),
                    format!(
                        "place `{}` is both input and output of transition `{}`",
                        net.place_name(p),
                        net.transition_name(t)
                    ),
                )
                .with_related(
                    transition_span(parsed, t.0).unwrap_or(Span::point(0, 1, 1)),
                    "the looping transition first occurs here",
                )
                .with_fix("split the self-loop into separate request/acknowledge places"),
            );
        }
    }

    let m0 = net.initial_marking();
    let tokens: u32 = m0.iter().sum();

    // SI009: nothing is marked, so nothing can ever fire.
    if tokens == 0 && net.transition_count() > 0 {
        push(
            report,
            Diagnostic::new(
                Code::SI009,
                Severity::Error,
                parsed.spans.marking,
                "no place holds an initial token; no transition can ever fire",
            )
            .with_fix("mark at least one place in `.marking { ... }`"),
        );
    }

    // SI010: the initial marking is already not 1-safe.
    for p in net.places() {
        let k = m0[p.0];
        if k > 1 {
            push(
                report,
                Diagnostic::new(
                    Code::SI010,
                    Severity::Error,
                    place_span(parsed, p.0),
                    format!(
                        "place `{}` starts with {k} tokens; the derivation requires 1-safe nets",
                        net.place_name(p)
                    ),
                )
                .with_fix("reduce the initial marking of the place to at most one token"),
            );
        }
    }
    // Source transitions pump tokens without bound — also a safety hole.
    for t in net.transitions() {
        if net.transition_pre(t).is_empty() {
            push(
                report,
                Diagnostic::new(
                    Code::SI010,
                    Severity::Error,
                    transition_span(parsed, t.0),
                    format!(
                        "transition `{}` has no input places and can fire unboundedly",
                        net.transition_name(t)
                    ),
                )
                .with_fix("add an input place so the transition is token-controlled"),
            );
        }
    }

    // SI011: structurally dead transitions. Skipped when nothing is
    // marked at all — SI009 already says everything is dead.
    if tokens > 0 {
        let fireable = net.structurally_fireable();
        for t in net.transitions() {
            if !fireable[t.0] {
                push(
                    report,
                    Diagnostic::new(
                        Code::SI011,
                        Severity::Error,
                        transition_span(parsed, t.0),
                        format!(
                            "transition `{}` can never fire: its input places can never all be marked",
                            net.transition_name(t)
                        ),
                    )
                    .with_fix("check the arcs into the transition or the initial marking"),
                );
            }
        }
    }

    // SI012: the skeleton splits into disconnected pieces.
    let components = net.weakly_connected_components();
    if components.len() > 1 {
        let mut d = Diagnostic::new(
            Code::SI012,
            Severity::Warning,
            components
                .get(1)
                .and_then(|c| c.first())
                .and_then(|t| transition_span(parsed, t.0)),
            format!(
                "the specification splits into {} disconnected components",
                components.len()
            ),
        );
        for (i, c) in components.iter().enumerate() {
            if let Some(span) = c.first().and_then(|t| transition_span(parsed, t.0)) {
                d = d.with_related(
                    span,
                    format!(
                        "component {} starts at transition `{}`",
                        i + 1,
                        net.transition_name(c[0])
                    ),
                );
            }
        }
        push(
            report,
            d.with_fix("connect the components, or split them into separate specifications"),
        );
    }

    // SI013: rise/fall imbalance. Equal counts are necessary for
    // consistency on a marked graph (every transition fires once per
    // cycle); with choice the branches may balance dynamically, so the
    // finding is only a warning there.
    let is_mg = net.is_marked_graph();
    for s in stg.signal_ids() {
        let ts = stg.transitions_of(s);
        if ts.is_empty() {
            continue;
        }
        let plus = ts
            .iter()
            .filter(|&&t| stg.label(t).polarity == si_stg::Polarity::Plus)
            .count();
        let minus = ts.len() - plus;
        if plus != minus {
            let name = stg.signal_name(s);
            let severity = if is_mg {
                Severity::Error
            } else {
                Severity::Warning
            };
            push(
                report,
                Diagnostic::new(
                    Code::SI013,
                    severity,
                    signal_span(parsed, s.0),
                    format!(
                        "signal `{name}` has {plus} rising but {minus} falling transitions; \
                         consistent STGs alternate `+` and `-`"
                    ),
                )
                .with_fix(format!(
                    "balance the rising and falling transitions of `{name}`"
                )),
            );
        }
    }

    // SI014: free-choice violations — a choice place whose successor also
    // waits on other places defeats Hack's MG allocation.
    for p in net.places() {
        if !net.is_choice_place(p) {
            continue;
        }
        let offenders: Vec<_> = net
            .place_post(p)
            .iter()
            .copied()
            .filter(|&t| net.transition_pre(t).len() > 1)
            .collect();
        if offenders.is_empty() {
            continue;
        }
        let mut d = Diagnostic::new(
            Code::SI014,
            Severity::Error,
            place_span(parsed, p.0),
            format!(
                "choice place `{}` is not free-choice: {} of its successors also wait on other places",
                net.place_name(p),
                offenders.len()
            ),
        );
        for t in &offenders {
            if let Some(span) = transition_span(parsed, t.0) {
                d = d.with_related(
                    span,
                    format!(
                        "successor `{}` has {} input places",
                        net.transition_name(*t),
                        net.transition_pre(*t).len()
                    ),
                );
            }
        }
        push(
            report,
            d.with_fix(
                "give each successor the choice place as its only input, or remove the choice",
            ),
        );
    }

    // SI015: OR-causality misuse — a merge place whose sources are not
    // separated by any choice. In a choice-free net every fireable source
    // eventually fires, double-marking the place (definite error); with
    // choice present the branches may be mutually exclusive, so it is
    // only flagged as a warning.
    let has_choice = net.places().any(|p| net.is_choice_place(p));
    for p in net.places() {
        let sources = net.place_pre(p);
        if sources.len() <= 1 {
            continue;
        }
        let severity = if has_choice {
            Severity::Warning
        } else {
            Severity::Error
        };
        let detail = if has_choice {
            "verify the source transitions are mutually exclusive"
        } else {
            "in a choice-free net every source fires, double-marking the place"
        };
        let mut d = Diagnostic::new(
            Code::SI015,
            severity,
            place_span(parsed, p.0),
            format!(
                "merge place `{}` joins {} source transitions: {detail}",
                net.place_name(p),
                sources.len()
            ),
        );
        for t in sources {
            if let Some(span) = transition_span(parsed, t.0) {
                d = d.with_related(
                    span,
                    format!(
                        "source transition `{}` first occurs here",
                        net.transition_name(*t)
                    ),
                );
            }
        }
        push(
            report,
            d.with_fix("guard the sources by a common choice, or serialize them"),
        );
    }

    // SI016: the structural state-count lower bound already exceeds the
    // exploration budget — the derivation would burn the whole budget and
    // fail anyway.
    if let Some(budget) = opts.state_budget {
        let bound = net.transition_count();
        if bound > budget {
            push(
                report,
                Diagnostic::new(
                    Code::SI016,
                    Severity::Warning,
                    None,
                    format!(
                        "the state graph needs at least {bound} states (every marking on a \
                         cycle through all {bound} transitions is distinct) but the \
                         exploration budget is {budget}"
                    ),
                )
                .with_fix("raise the state-graph budget or decompose the specification"),
            );
        }
    }
}

/// Lints an already-built [`Stg`] (no source text, so no spans): used by
/// callers that assemble nets programmatically. Parse-level checks do not
/// apply; structural checks all run.
pub fn lint_stg(stg: &Stg, opts: &LintOptions) -> LintReport {
    let parsed = LenientParse {
        stg: stg.clone(),
        errors: Vec::new(),
        spans: si_stg::SpecSpans::default(),
    };
    lint_parsed(&parsed, opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Code;

    fn codes(report: &LintReport) -> Vec<Code> {
        report.diagnostics.iter().map(|d| d.code).collect()
    }

    const CLEAN: &str = "\
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
    fn clean_handshake_has_no_findings() {
        let report = lint_text(CLEAN);
        assert!(
            report.is_clean(),
            "unexpected findings: {:?}",
            report.diagnostics
        );
        assert_eq!(report.model, "handshake");
    }

    #[test]
    fn imec_benchmark_is_error_free() {
        let report = lint_text(si_stg::IMEC_RAM_READ_SBUF_G);
        assert!(
            !report.has_errors(),
            "unexpected errors: {:?}",
            report.diagnostics
        );
    }

    #[test]
    fn undeclared_signal_is_si004_with_fix() {
        let report = lint_text(
            ".model x\n.inputs a\n.graph\na+ b+\nb+ a-\na- b-\nb- a+\n.marking { <b-,a+> }\n.end\n",
        );
        assert_eq!(codes(&report), vec![Code::SI004]);
        let d = &report.diagnostics[0];
        assert_eq!(d.severity, Severity::Error);
        assert!(d.fix.as_deref().unwrap_or_default().contains("declare `b`"));
        assert_eq!(d.span.expect("span").line, 4);
    }

    #[test]
    fn duplicate_signal_points_at_first_declaration() {
        let report =
            lint_text(".model x\n.inputs a\n.outputs a b\n.graph\na+ b+\nb+ a-\na- b-\nb- a+\n.marking { <b-,a+> }\n.end\n");
        assert_eq!(codes(&report), vec![Code::SI005]);
        let d = &report.diagnostics[0];
        assert_eq!(d.related.len(), 1);
        assert_eq!(d.related[0].span.line, 2);
    }

    #[test]
    fn unused_signal_is_a_warning() {
        let report = lint_text(
            ".model x\n.inputs a zz\n.outputs b\n.graph\na+ b+\nb+ a-\na- b-\nb- a+\n.marking { <b-,a+> }\n.end\n",
        );
        assert_eq!(codes(&report), vec![Code::SI006]);
        assert_eq!(report.diagnostics[0].severity, Severity::Warning);
        assert!(!report.has_errors());
    }

    #[test]
    fn empty_marking_is_si009() {
        let report = lint_text(
            ".model x\n.inputs a\n.outputs b\n.graph\na+ b+\nb+ a-\na- b-\nb- a+\n.marking { }\n.end\n",
        );
        // Every transition is also structurally dead, but SI011 is
        // suppressed: SI009 already explains why.
        assert_eq!(codes(&report), vec![Code::SI009]);
    }

    #[test]
    fn overfilled_place_is_si010() {
        let report = lint_text(
            ".model x\n.inputs a\n.outputs b\n.graph\na+ b+\nb+ a-\na- b-\nb- a+\n.marking { <b-,a+>=2 }\n.end\n",
        );
        assert_eq!(codes(&report), vec![Code::SI010]);
    }

    #[test]
    fn dead_branch_is_si011() {
        // The main ring is marked; p_dead can only be fed by c-, which
        // itself needs c+ — a circular wait no token ever enters, so
        // both c transitions are structurally dead (though connected to
        // the ring through a+).
        let report = lint_text(
            "\
.model x
.inputs a c
.outputs b
.graph
a+ b+ c+
b+ a-
a- b-
b- a+
p_dead c+
c+ c-
c- p_dead
.marking { <b-,a+> }
.end
",
        );
        assert_eq!(codes(&report), vec![Code::SI011, Code::SI011]);
    }

    #[test]
    fn disconnected_rings_are_si012() {
        let report = lint_text(
            "\
.model x
.inputs a
.outputs b
.graph
a+ a-
a- a+
b+ b-
b- b+
.marking { <a-,a+> <b-,b+> }
.end
",
        );
        assert!(codes(&report).contains(&Code::SI012));
        let d = report
            .diagnostics
            .iter()
            .find(|d| d.code == Code::SI012)
            .expect("present");
        assert_eq!(d.severity, Severity::Warning);
        assert_eq!(d.related.len(), 2);
    }

    #[test]
    fn rise_fall_imbalance_is_si013_error_on_marked_graphs() {
        let report = lint_text(
            ".model x\n.inputs a\n.outputs b\n.graph\na+ b+\nb+ a+/2\na+/2 b-\nb- a+\n.marking { <b-,a+> }\n.end\n",
        );
        let d = report
            .diagnostics
            .iter()
            .find(|d| d.code == Code::SI013)
            .expect("imbalance found");
        assert_eq!(d.severity, Severity::Error);
        assert!(d.message.contains("`a`"));
    }

    #[test]
    fn free_choice_violation_is_si014() {
        // p0 chooses between a+ and b+, but b+ also waits on q — the
        // classic non-free-choice confusion.
        let report = lint_text(
            "\
.model x
.inputs a b
.outputs c
.graph
p0 a+ b+
q b+
a+ c+
b+ c+
c+ a-
a- b-
b- c-
c- p0 q
.marking { p0 q }
.end
",
        );
        assert!(codes(&report).contains(&Code::SI014));
        let d = report
            .diagnostics
            .iter()
            .find(|d| d.code == Code::SI014)
            .expect("present");
        assert_eq!(d.severity, Severity::Error);
        assert!(!d.related.is_empty());
    }

    #[test]
    fn merge_without_choice_is_si015_error() {
        // p_join has two producers and the net has no choice anywhere:
        // both a+ and b+ fire, so p_join collects two tokens.
        let report = lint_text(
            "\
.model x
.inputs a b
.outputs c
.graph
a+ p_join
b+ p_join
p_join c+
c+ a- b-
a- a+
b- b+
.marking { <a-,a+> <b-,b+> }
.end
",
        );
        let d = report
            .diagnostics
            .iter()
            .find(|d| d.code == Code::SI015)
            .expect("present");
        assert_eq!(d.severity, Severity::Error);
        assert_eq!(d.related.len(), 2);
    }

    #[test]
    fn merge_with_choice_is_si015_warning() {
        // The same merge, but guarded by a free choice: the sources are
        // mutually exclusive, so only a warning remains.
        let report = lint_text(
            "\
.model x
.inputs a b
.outputs c
.graph
p0 a+ b+
a+ p_join
b+ p_join
p_join c+
c+ c-
c- p0
.marking { p0 }
.end
",
        );
        let d = report
            .diagnostics
            .iter()
            .find(|d| d.code == Code::SI015)
            .expect("present");
        assert_eq!(d.severity, Severity::Warning);
    }

    #[test]
    fn budget_infeasibility_is_si016() {
        let opts = LintOptions {
            state_budget: Some(3),
        };
        let report = lint_text_with(CLEAN, &opts);
        assert_eq!(codes(&report), vec![Code::SI016]);
        assert_eq!(report.diagnostics[0].severity, Severity::Warning);
        // A generous budget stays silent.
        assert!(lint_text_with(
            CLEAN,
            &LintOptions {
                state_budget: Some(100)
            }
        )
        .is_clean());
    }

    #[test]
    fn lint_stg_runs_structural_checks_without_spans() {
        let stg = si_stg::parse_astg(CLEAN).expect("valid");
        let report = lint_stg(&stg, &LintOptions::default());
        assert!(report.is_clean());
    }

    #[test]
    fn all_parse_kinds_map_to_codes() {
        let report = lint_text(
            "\
.model broken
.inputs a a
.frequency 50
.dummy d0
.graph
a+ b+
a+ b+
b+ a-
a- b-
b- a+
p0 p1
.marking { <b-,a+> qq }
.end
",
        );
        let cs = codes(&report);
        for c in [
            Code::SI001,
            Code::SI002,
            Code::SI003,
            Code::SI004,
            Code::SI005,
            Code::SI007,
        ] {
            assert!(cs.contains(&c), "missing {c} in {cs:?}");
        }
        assert!(report.has_errors());
    }
}
