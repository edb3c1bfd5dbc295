//! Shared plumbing for the table/figure regeneration binaries and the
//! Criterion benches. Each binary in `src/bin/` regenerates one table or
//! figure of the paper's evaluation chapter; see `EXPERIMENTS.md` at the
//! workspace root for paper-vs-measured notes.

use si_core::{
    AdversaryOracle, Constraint, ConstraintReport, Engine, EngineConfig, EngineReport, Stage,
};
use si_stg::Stg;
use std::collections::BTreeSet;

/// One-line per-stage metrics summary of an engine run, shared by the
/// figure/table binaries so every driver reports the pipeline the same
/// way (jobs, fan-out wall, projection memo, state-graph and conformance
/// cache traffic).
pub fn engine_metrics_line(out: &EngineReport) -> String {
    let zero = |stage: Stage| {
        out.stage(stage)
            .copied()
            .unwrap_or_else(|| panic!("stage {} missing from report", stage.name()))
    };
    let project = zero(Stage::Project);
    let relax = zero(Stage::Relax);
    format!(
        "engine: {} jobs, fan-out {:.2?}; project {:.2?} (memo {}h/{}m), \
         relax {:.2?} (SG {}h/{}m, conf {}h/{}m)",
        out.jobs,
        out.fanout_wall,
        project.wall,
        project.proj_memo_hits,
        project.proj_memo_misses,
        relax.wall,
        relax.sg_cache_hits,
        relax.sg_cache_misses,
        relax.conf_cache_hits,
        relax.conf_cache_misses,
    )
}

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

/// Runs the full derivation for one benchmark through a fresh sequential
/// [`Engine`] and classifies constraint levels (Table 7.2 columns).
///
/// # Errors
///
/// Propagates derivation errors as strings (harness-level reporting).
pub fn table_row(bench: &si_suite::Benchmark) -> Result<(TableRow, ConstraintReport), String> {
    table_row_with(&Engine::new(EngineConfig::default()), bench)
}

/// [`table_row`] through a caller-supplied engine: batch drivers share one
/// engine (one cache, one job pool) across all thirteen rows.
///
/// # Errors
///
/// Propagates derivation errors as strings (harness-level reporting).
pub fn table_row_with(
    engine: &Engine,
    bench: &si_suite::Benchmark,
) -> Result<(TableRow, ConstraintReport), String> {
    let (row, out) = table_row_report(engine, bench)?;
    Ok((row, out.report))
}

/// [`table_row_with`] keeping the whole [`EngineReport`] — per-stage wall
/// times and cache traffic included — for machine-readable bench output
/// (`table_7_2 --json`).
///
/// # Errors
///
/// Propagates derivation errors as strings (harness-level reporting).
pub fn table_row_report(
    engine: &Engine,
    bench: &si_suite::Benchmark,
) -> Result<(TableRow, EngineReport), String> {
    let (stg, library) = bench
        .circuit_with_budget(engine.config().global_sg_budget)
        .map_err(|e| e.to_string())?;
    let started = std::time::Instant::now();
    let out = engine.run(&stg, &library).map_err(|e| e.to_string())?;
    let cpu = started.elapsed().as_secs_f64();
    let report = &out.report;
    let oracle = AdversaryOracle::new(&stg);

    let within = |set: &BTreeSet<Constraint>, max: u32| {
        report
            .constraints_within_level(set, &oracle, &stg, max)
            .len()
    };
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
        .filter_map(|c| {
            let x = label_of(stg, c, true)?;
            let y = label_of(stg, c, false)?;
            let path = oracle.path(x, y)?;
            (!path.through_env).then_some(path.gates)
        })
        .collect()
}

fn label_of(stg: &Stg, c: &Constraint, before: bool) -> Option<si_stg::TransitionLabel> {
    let a = if before { &c.before } else { &c.after };
    let sig = stg.signal_by_name(&a.signal)?;
    Some(si_stg::TransitionLabel::new(sig, a.polarity, a.occurrence))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gold_row_matches_thesis_table() {
        let bench = si_suite::benchmark("imec-ram-read-sbuf").expect("bundled");
        let (row, _) = table_row(&bench).expect("derives");
        assert_eq!((row.before, row.after, row.states), (19, 12, 112));
        assert_eq!((row.inputs, row.outputs, row.gates), (5, 5, 11));
    }

    #[test]
    fn shared_engine_row_matches_fresh_engine_row() {
        let bench = si_suite::benchmark("imec-ram-read-sbuf").expect("bundled");
        let engine = Engine::new(EngineConfig::parallel(2));
        let (row, report) = table_row_with(&engine, &bench).expect("derives");
        let (fresh_row, fresh_report) = table_row(&bench).expect("derives");
        assert_eq!(report, fresh_report);
        assert_eq!(
            (row.before, row.after, row.states),
            (fresh_row.before, fresh_row.after, fresh_row.states)
        );
    }

    #[test]
    fn level_buckets_are_nested() {
        for bench in si_suite::benchmarks() {
            let (row, _) = table_row(&bench).expect("derives");
            assert!(
                row.lvl3.0 <= row.lvl5.0 && row.lvl5.0 <= row.before,
                "{row:?}"
            );
            assert!(
                row.lvl3.1 <= row.lvl5.1 && row.lvl5.1 <= row.after,
                "{row:?}"
            );
        }
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
