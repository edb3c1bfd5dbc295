//! The layered front-end's load-bearing equivalences, pinned as
//! properties over the corpus generator's spec envelope:
//!
//! 1. CRLF line endings and a missing trailing newline parse identically
//!    to the plain LF text;
//! 2. the canonical writer is a fixed point of `parse → write` from the
//!    first application.

use proptest::prelude::*;
use si_corpus::{generate, strategies::corpus_case};
use si_stg::{parse_astg, parse_astg_lenient, write_astg, LenientParse};

/// Structural equality of two lenient parses: the rebuilt `Stg`, the
/// recorded spans and the ordered defect list all have to match.
fn assert_same_parse(a: &LenientParse, b: &LenientParse, what: &str) {
    assert_eq!(a.stg, b.stg, "{what}: Stg differs");
    assert_eq!(a.spans, b.spans, "{what}: spans differ");
    assert_eq!(a.errors, b.errors, "{what}: defects differ");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Property 1: CRLF line endings and a trimmed final newline are
    /// cosmetic — spans, defects and the rebuilt `Stg` all match the LF
    /// text byte-for-byte.
    #[test]
    fn line_ending_variants_parse_identically((spec, seed) in corpus_case()) {
        let text = generate(&spec, seed).g_text;
        let lf = parse_astg_lenient(&text);
        let crlf = text.replace('\n', "\r\n");
        assert_same_parse(&parse_astg_lenient(&crlf), &lf, "CRLF");
        let trimmed = text.strip_suffix('\n').unwrap_or(&text);
        assert_same_parse(&parse_astg_lenient(trimmed), &lf, "missing trailing newline");
    }

    /// Property 2: the canonical writer converges immediately —
    /// `write(parse(write(stg)))` equals `write(stg)`.
    #[test]
    fn writer_is_a_parse_write_fixed_point((spec, seed) in corpus_case()) {
        let stg = generate(&spec, seed).stg;
        let written = write_astg(&stg);
        let reparsed = parse_astg(&written).expect("writer output strict-parses");
        prop_assert_eq!(write_astg(&reparsed), written);
    }
}
