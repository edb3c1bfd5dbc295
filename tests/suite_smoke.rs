//! Smoke test over the bundled benchmark corpus: every Table 7.2 entry
//! must load and synthesize. This test is the first line of defence,
//! reporting every broken circuit at once.

#[test]
fn all_bundled_benchmarks_load() {
    let suite = si_redress::suite::benchmarks();
    assert_eq!(suite.len(), 13, "Table 7.2 has thirteen rows");
    let mut broken = Vec::new();
    for bench in &suite {
        if let Err(e) = bench.circuit() {
            broken.push(format!("{}: {e}", bench.name));
        }
    }
    assert!(
        broken.is_empty(),
        "broken bundled circuits:\n{}",
        broken.join("\n")
    );
}

#[test]
fn benchmark_names_are_unique_and_resolvable() {
    let suite = si_redress::suite::benchmarks();
    for bench in &suite {
        let found = si_redress::suite::benchmark(bench.name)
            .unwrap_or_else(|| panic!("{} not resolvable by name", bench.name));
        assert_eq!(found.name, bench.name);
    }
    let mut names: Vec<_> = suite.iter().map(|b| b.name).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), suite.len(), "duplicate benchmark names");
}
