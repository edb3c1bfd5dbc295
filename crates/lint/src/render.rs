//! Renderers: a rustc-style human-readable text format with source
//! excerpts and carets, and a dependency-free JSON format for tooling.
//! Both are deterministic — the golden suite pins them byte-for-byte.

use std::fmt::Write as _;

pub use si_stg::sexp::escape as json_escape;

use crate::diag::{Diagnostic, LintReport};

/// Renders a report as human-readable text with source excerpts:
///
/// ```text
/// error[SI004]: undeclared signal `b`
///   --> spec.g:6:4
///    |
///  6 | a+ b+
///    |    ^^
///    = help: declare `b` in `.inputs`, `.outputs` or `.internal`
///
/// spec.g: 1 error(s), 0 warning(s)
/// ```
pub fn render_text(report: &LintReport, source: &str, origin: &str) -> String {
    let mut out = String::new();
    for d in &report.diagnostics {
        render_text_one(&mut out, d, source, origin);
        out.push('\n');
    }
    if report.is_clean() {
        let _ = writeln!(out, "{origin}: clean");
    } else {
        let _ = writeln!(
            out,
            "{origin}: {} error(s), {} warning(s)",
            report.error_count(),
            report.warning_count()
        );
    }
    out
}

fn render_text_one(out: &mut String, d: &Diagnostic, source: &str, origin: &str) {
    let _ = writeln!(out, "{}[{}]: {}", d.severity, d.code, d.message);
    if let Some(span) = d.span {
        let _ = writeln!(out, "  --> {origin}:{}:{}", span.line, span.col);
        if let Some(text) = source.lines().nth(span.line.saturating_sub(1)) {
            let gutter = span.line.to_string();
            let pad = " ".repeat(gutter.len());
            let _ = writeln!(out, " {pad} |");
            let _ = writeln!(out, " {gutter} | {text}");
            // Caret under the span, clamped to the visible line. Columns
            // count characters, so the caret prefix is built per character
            // (tabs kept as tabs to stay aligned under tab-indented lines)
            // and the caret width counts characters of the spanned text,
            // not bytes — multi-byte names get one caret per glyph.
            let col = span.col.max(1);
            let prefix: String = text
                .chars()
                .take(col - 1)
                .map(|c| if c == '\t' { '\t' } else { ' ' })
                .collect();
            let byte_off = text
                .char_indices()
                .nth(col - 1)
                .map_or(text.len(), |(i, _)| i);
            let span_text = text
                .get(byte_off..(byte_off + span.len()).min(text.len()))
                .unwrap_or("");
            let width = span_text.chars().count().max(1);
            let _ = writeln!(out, " {pad} | {prefix}{}", "^".repeat(width));
        }
    }
    for r in &d.related {
        let _ = writeln!(
            out,
            "   = note: {} ({origin}:{}:{})",
            r.message, r.span.line, r.span.col
        );
    }
    if let Some(fix) = &d.fix {
        let _ = writeln!(out, "   = help: {fix}");
    }
}

/// Renders the diagnostics as a JSON array, each line prefixed by
/// `indent` — embeddable inside a larger JSON document (the
/// `check_hazard --format json` payload uses this).
pub fn json_diagnostics(report: &LintReport, indent: &str) -> String {
    if report.diagnostics.is_empty() {
        return "[]".to_string();
    }
    let inner = format!("{indent}  ");
    let items: Vec<String> = report
        .diagnostics
        .iter()
        .map(|d| json_diagnostic(d, &inner))
        .collect();
    format!("[\n{}\n{indent}]", items.join(",\n"))
}

fn json_span(span: si_stg::Span) -> String {
    format!(
        "{{\"line\": {}, \"col\": {}, \"start\": {}, \"end\": {}}}",
        span.line, span.col, span.start, span.end
    )
}

fn json_diagnostic(d: &Diagnostic, indent: &str) -> String {
    let mut fields = vec![
        format!("\"code\": \"{}\"", d.code),
        format!("\"severity\": \"{}\"", d.severity),
        format!("\"title\": \"{}\"", json_escape(d.code.title())),
        format!("\"message\": \"{}\"", json_escape(&d.message)),
        format!(
            "\"span\": {}",
            d.span.map_or_else(|| "null".to_string(), json_span)
        ),
    ];
    if !d.related.is_empty() {
        let rels: Vec<String> = d
            .related
            .iter()
            .map(|r| {
                format!(
                    "{{\"message\": \"{}\", \"span\": {}}}",
                    json_escape(&r.message),
                    json_span(r.span)
                )
            })
            .collect();
        fields.push(format!("\"related\": [{}]", rels.join(", ")));
    }
    if let Some(fix) = &d.fix {
        fields.push(format!("\"fix\": \"{}\"", json_escape(fix)));
    }
    let body: Vec<String> = fields.iter().map(|f| format!("{indent}  {f}")).collect();
    format!("{indent}{{\n{}\n{indent}}}", body.join(",\n"))
}

/// Renders a complete report as a `lint-report` document in the
/// S-expression interchange format (`docs/interchange.md`). Spans ride in
/// the same `[start, end, line, col]` shape the parse-tree dumps use.
pub fn render_sexp(report: &LintReport, origin: &str) -> String {
    let mut w = si_stg::sexp::SexpWriter::new("lint-report");
    w.open("lint-report");
    w.string(origin);
    w.open("model");
    w.string(&report.model);
    w.close();
    w.open("errors");
    w.atom(&report.error_count().to_string());
    w.close();
    w.open("warnings");
    w.atom(&report.warning_count().to_string());
    w.close();
    for d in &report.diagnostics {
        w.open("diagnostic");
        w.atom(&d.code.to_string());
        w.atom(&d.severity.to_string());
        if let Some(span) = d.span {
            w.span(span);
        }
        w.string(&d.message);
        for r in &d.related {
            w.open("related");
            w.span(r.span);
            w.string(&r.message);
            w.close();
        }
        if let Some(fix) = &d.fix {
            w.open("fix");
            w.string(fix);
            w.close();
        }
        w.close();
    }
    w.close();
    w.finish()
}

/// Renders a complete report as a standalone JSON document.
pub fn render_json(report: &LintReport, origin: &str) -> String {
    format!(
        "{{\n  \"origin\": \"{}\",\n  \"model\": \"{}\",\n  \"errors\": {},\n  \"warnings\": {},\n  \"diagnostics\": {}\n}}\n",
        json_escape(origin),
        json_escape(&report.model),
        report.error_count(),
        report.warning_count(),
        json_diagnostics(report, "  ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::{Code, Diagnostic, LintReport, Severity};
    use si_stg::Span;

    fn sample() -> (LintReport, &'static str) {
        let source = ".model x\n.inputs a\n.graph\na+ b+\n.end\n";
        let span = Span {
            start: 30,
            end: 32,
            line: 4,
            col: 4,
        };
        let report = LintReport {
            model: "x".into(),
            diagnostics: vec![Diagnostic::new(
                Code::SI004,
                Severity::Error,
                Some(span),
                "undeclared signal `b`",
            )
            .with_fix("declare `b` in `.inputs`, `.outputs` or `.internal`")],
        };
        (report, source)
    }

    #[test]
    fn text_renderer_shows_excerpt_and_caret() {
        let (report, source) = sample();
        let text = render_text(&report, source, "spec.g");
        assert!(text.contains("error[SI004]: undeclared signal `b`"));
        assert!(text.contains("--> spec.g:4:4"));
        assert!(text.contains(" 4 | a+ b+"));
        assert!(text.contains("   |    ^^"));
        assert!(text.contains("= help: declare `b`"));
        assert!(text.ends_with("spec.g: 1 error(s), 0 warning(s)\n"));
    }

    #[test]
    fn clean_report_renders_a_clean_line() {
        let report = LintReport {
            model: "x".into(),
            diagnostics: vec![],
        };
        assert_eq!(render_text(&report, "", "spec.g"), "spec.g: clean\n");
        let json = render_json(&report, "spec.g");
        assert!(json.contains("\"diagnostics\": []"));
        assert!(json.contains("\"errors\": 0"));
    }

    #[test]
    fn json_renderer_is_well_formed() {
        let (report, _) = sample();
        let json = render_json(&report, "spec.g");
        assert!(json.contains("\"code\": \"SI004\""));
        assert!(json.contains("\"severity\": \"error\""));
        assert!(json.contains("\"span\": {\"line\": 4, \"col\": 4, \"start\": 30, \"end\": 32}"));
        // Balanced braces/brackets (a cheap well-formedness check).
        let balance = |open: char, close: char| {
            json.chars().filter(|&c| c == open).count()
                == json.chars().filter(|&c| c == close).count()
        };
        assert!(balance('{', '}'));
        assert!(balance('[', ']'));
    }

    #[test]
    fn json_escaping_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn caret_aligns_on_multibyte_and_tabbed_lines() {
        // `möde+ äck+` — `äck` starts at character column 7 but byte 8,
        // and `äck+` is 4 characters but 5 bytes. The caret must use the
        // character measures on both axes.
        let source = ".model x\n.inputs m\u{f6}de\n.graph\nm\u{f6}de+ \u{e4}ck+\n.end\n";
        let span = Span {
            start: 30,
            end: 35,
            line: 4,
            col: 7,
        };
        let report = LintReport {
            model: "x".into(),
            diagnostics: vec![Diagnostic::new(
                Code::SI004,
                Severity::Error,
                Some(span),
                "undeclared signal `\u{e4}ck`",
            )],
        };
        let text = render_text(&report, source, "spec.g");
        assert!(text.contains(" 4 | m\u{f6}de+ \u{e4}ck+"), "{text}");
        assert!(text.contains("   |       ^^^^"), "{text}");
        // A tab-indented line keeps its tab in the caret prefix so the
        // carets stay under the span in any tab-width rendering.
        let tabbed = ".model x\n.graph\n\ta+ b+\n.end\n";
        let tspan = Span {
            start: 20,
            end: 22,
            line: 3,
            col: 5,
        };
        let treport = LintReport {
            model: "x".into(),
            diagnostics: vec![Diagnostic::new(
                Code::SI004,
                Severity::Error,
                Some(tspan),
                "undeclared signal `b`",
            )],
        };
        let ttext = render_text(&treport, tabbed, "spec.g");
        assert!(ttext.contains(" 3 | \ta+ b+"), "{ttext}");
        assert!(ttext.contains("   | \t   ^^"), "{ttext}");
    }

    #[test]
    fn sexp_renderer_round_trips_the_report_shape() {
        let (report, _) = sample();
        let sexp = render_sexp(&report, "spec.g");
        assert!(sexp.starts_with("; si-sexp 1 lint-report\n"), "{sexp}");
        assert!(sexp.contains("(lint-report \"spec.g\""), "{sexp}");
        assert!(sexp.contains("(errors 1)"), "{sexp}");
        assert!(
            sexp.contains("(diagnostic SI004 error [30, 32, 4, 4] \"undeclared signal `b`\""),
            "{sexp}"
        );
        assert!(sexp.contains("(fix \"declare `b`"), "{sexp}");
        // Balanced parens outside string payloads.
        let bare: String = sexp.split('"').step_by(2).collect::<Vec<_>>().join("");
        assert_eq!(
            bare.chars().filter(|&c| c == '(').count(),
            bare.chars().filter(|&c| c == ')').count()
        );
    }
}
