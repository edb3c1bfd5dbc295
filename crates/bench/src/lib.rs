//! Shared plumbing for the table/figure regeneration binaries. Each
//! binary in `src/bin/` regenerates one table or figure of the paper's
//! evaluation chapter. Paper-vs-measured notes: the
//! README's "Gold reproduction target" section (the imec row) and
//! `table_7_2`'s footer, which prints the thesis totals next to the
//! measured ones.

use si_core::{AdversaryOracle, Constraint, ConstraintReport, Engine, EngineReport};
use si_stg::Stg;
use std::collections::BTreeSet;

/// A derived row of Table 7.2.
#[derive(Debug, Clone)]
pub struct TableRow {
    /// Benchmark name.
    pub name: String,
    /// Primary inputs.
    pub inputs: usize,
    /// Primary outputs.
    pub outputs: usize,
    /// Gates (non-input signals).
    pub gates: usize,
    /// Reachable states of the implementation STG.
    pub states: usize,
    /// Adversary-path constraints before relaxation.
    pub before: usize,
    /// Constraints after relaxation.
    pub after: usize,
    /// `≤ 5`-level constraints before / after.
    pub lvl5: (usize, usize),
    /// `≤ 3`-level constraints before / after.
    pub lvl3: (usize, usize),
    /// CPU seconds.
    pub cpu: f64,
}

/// Runs one benchmark from its `.g` (and `.eqn`) text to its report
/// through `engine` — the text front end, [`si_suite::run_corpus_entry`],
/// which is what the CPU column times — and classifies constraint levels
/// (Table 7.2 columns), keeping the whole [`EngineReport`] for
/// machine-readable output (`table_7_2 --json`). Batch drivers share one
/// engine, and with it its state-graph cache, across all thirteen rows.
///
/// # Errors
///
/// Propagates load and derivation errors as strings (harness-level
/// reporting).
pub fn table_row(
    engine: &Engine,
    bench: &si_suite::Benchmark,
) -> Result<(TableRow, EngineReport), String> {
    let started = std::time::Instant::now();
    let out = si_suite::run_corpus_entry(engine, &bench.entry())
        .map_err(|e| e.to_string())?
        .report;
    let cpu = started.elapsed().as_secs_f64();
    let stg = si_stg::parse_astg(bench.stg_text).map_err(|e| e.to_string())?;
    let report = &out.report;
    let oracle = AdversaryOracle::new(&stg);

    let within =
        |set: &BTreeSet<Constraint>, max: u32| oracle.constraints_within_level(set, max).len();
    let row = TableRow {
        name: bench.name.to_string(),
        inputs: stg.signals_of_kind(si_stg::SignalKind::Input).len(),
        outputs: stg.signals_of_kind(si_stg::SignalKind::Output).len(),
        gates: stg.gate_signals().len(),
        states: report.state_count,
        before: report.baseline.len(),
        after: report.constraints.len(),
        lvl5: (within(&report.baseline, 5), within(&report.constraints, 5)),
        lvl3: (within(&report.baseline, 3), within(&report.constraints, 3)),
        cpu,
    };
    Ok((row, out))
}

/// Adversary-path gate counts of the strong (gate-only) constraints of a
/// report — the per-constraint input of the error-rate model.
pub fn strong_constraint_gates(stg: &Stg, report: &ConstraintReport) -> Vec<u32> {
    let oracle = AdversaryOracle::new(stg);
    report
        .constraints
        .iter()
        .filter_map(|c| oracle.path_of(c))
        .filter(|path| !path.through_env)
        .map(|path| path.gates)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gold_row_matches_thesis_table() {
        let bench = si_suite::benchmark("imec-ram-read-sbuf").expect("bundled");
        let (row, _) = table_row(&Engine::default(), &bench).expect("derives");
        assert_eq!((row.before, row.after, row.states), (19, 12, 112));
        assert_eq!((row.inputs, row.outputs, row.gates), (5, 5, 11));
    }

    #[test]
    fn shared_engine_row_matches_fresh_engine_row() {
        // The table's one engine has served every row, this one included,
        // by the time it serves this row again.
        let bench = si_suite::benchmark("imec-ram-read-sbuf").expect("bundled");
        let engine = Engine::default();
        for other in si_suite::benchmarks() {
            table_row(&engine, &other).expect("derives");
        }
        let (row, out) = table_row(&engine, &bench).expect("derives");
        let (fresh_row, fresh) = table_row(&Engine::default(), &bench).expect("derives");
        assert_eq!(out.report, fresh.report);
        assert_eq!(
            (row.before, row.after, row.states),
            (fresh_row.before, fresh_row.after, fresh_row.states)
        );
    }

    #[test]
    fn level_buckets_are_nested() {
        // Before/after totals over the 13 rows.
        let (mut all, mut lvl5, mut lvl3) = ((0, 0), (0, 0), (0, 0));
        for bench in si_suite::benchmarks() {
            let (row, _) = table_row(&Engine::default(), &bench).expect("derives");
            assert!(
                row.lvl3.0 <= row.lvl5.0 && row.lvl5.0 <= row.before,
                "{row:?}"
            );
            assert!(
                row.lvl3.1 <= row.lvl5.1 && row.lvl5.1 <= row.after,
                "{row:?}"
            );
            all = (all.0 + row.before, all.1 + row.after);
            lvl5 = (lvl5.0 + row.lvl5.0, lvl5.1 + row.lvl5.1);
            lvl3 = (lvl3.0 + row.lvl3.0, lvl3.1 + row.lvl3.1);
        }
        // The Table 7.2 totals: 65.4 % overall, 45.8 % at ≤5, 45.5 % at ≤3.
        assert_eq!((all, lvl5, lvl3), ((104, 68), (24, 11), (22, 10)));
    }

    #[test]
    fn strong_constraints_exist_for_the_fifo() {
        let bench = si_suite::benchmark("fifo").expect("bundled");
        let (stg, library) = bench.circuit().expect("loads");
        let report = si_core::derive_timing_constraints(&stg, &library).expect("derives");
        let gates = strong_constraint_gates(&stg, &report);
        assert!(!gates.is_empty());
        assert!(gates.iter().all(|&g| g >= 1));
    }
}
