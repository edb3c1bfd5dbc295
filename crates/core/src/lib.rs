//! Relative-timing constraint generation for speed-independent circuits
//! under the relaxed (intra-operator fork) timing assumption — the primary
//! contribution of the thesis (Ch. 5–6).
//!
//! Given an implementation STG and the circuit's gate netlist, the engine:
//!
//! 1. decomposes the STG into marked-graph components and projects each onto
//!    every gate's operator signals, yielding *local STGs*;
//! 2. classifies local arcs; input-to-input arcs between distinct signals
//!    (type 4) are orderings that rely on the isochronic fork;
//! 3. relaxes those arcs one at a time, tightest (shortest adversary path)
//!    first, re-checking *timing conformance* of the local state graph
//!    against the gate's pull-up/pull-down covers after each step;
//! 4. maps each relaxation into one of the four thesis cases: accept
//!    (case 1), make the transition concurrent with the output (case 2),
//!    decompose OR-causality into sub-STGs (cases 2/3, Ch. 6), or emit a
//!    relative timing constraint and keep the arc (case 4);
//! 5. reports both the derived constraint set and the baseline
//!    adversary-path constraint set of Keller et al. (ASYNC'09), which is
//!    exactly the set of type-4 arcs before relaxation.
//!
//! The headline reproduction target: the derived set is ≈ 40 % smaller than
//! the baseline (thesis Table 7.2).
//!
//! Two entry points expose the computation:
//!
//! - [`derive_timing_constraints`] — the classic monolithic call
//!   (sequential, uncached; the differential reference);
//! - [`Engine`] — the staged pipeline (parse → validate → decompose →
//!   project → relax → merge) with an explicit [`EngineConfig`],
//!   per-stage/per-gate metrics in the extended [`EngineReport`], and
//!   one reuse stack behind one switch ([`EngineConfig::cache`]):
//!   the allocation-free interning explorer on every state-graph miss, and
//!   one state-graph cache shared across gates and runs ([`SgCache`]),
//!   storing a graph on its second request. Projection is not memoized.
//!   With the switch off the engine runs the reference path, nothing
//!   memoized. Output is bit-identical to the monolithic call for every
//!   configuration.
//!
//! Both relax a circuit's gates one after another in the calling thread.
//! Parallel work is one level up: `si_suite::run_corpus` shards a corpus's
//! circuits over [`par_map`], the crate's one worker pool.
//!
//! One [`AdversaryOracle`] answers which adversary path realizes an
//! ordering, for the paper's three uses of those paths: the tightest-first
//! relaxation order (Sec. 5.5), the Table 7.2 level columns
//! ([`AdversaryOracle::constraints_within_level`]) and delay padding
//! ([`plan_padding`], Sec. 5.7). It is plain data built from the STG; a
//! constraint resolves to its path through [`AdversaryOracle::path_of`].
//!
//! # Example
//!
//! ```
//! use si_boolean::{parse_eqn, GateLibrary};
//! use si_core::derive_timing_constraints;
//! use si_stg::parse_astg;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let stg = parse_astg("\
//! .model celem
//! .inputs a b
//! .outputs c
//! .graph
//! a+ c+
//! b+ c+
//! c+ a- b-
//! a- c-
//! b- c-
//! c- a+ b+
//! .marking { <c-,a+> <c-,b+> }
//! .end
//! ")?;
//! let library = GateLibrary::from_netlist(&parse_eqn("c = a*b + a*c + b*c;")?);
//! let report = derive_timing_constraints(&stg, &library)?;
//! // A C-element acknowledges both inputs: no isochronic-fork orderings
//! // remain, so no constraints are needed in either set.
//! assert!(report.baseline.is_empty());
//! assert!(report.constraints.is_empty());
//! # Ok(())
//! # }
//! ```

mod cache;
mod check;
mod constraint;
mod engine;
mod error;
mod expand;
mod local;
mod orcausality;
mod padding;
mod paths;
mod pool;
mod relax;
mod report;
mod sched;

pub use cache::{CacheStats, SgCache};
pub use check::{
    classify_states, conformance, prerequisite_sets, ConformanceReport, Prerequisites,
    RelaxationCase, StateClass,
};
pub use constraint::{Constraint, ConstraintAtom};
pub use engine::{
    check_well_formed, Engine, EngineConfig, EngineReport, GateMetrics, LintPolicy, Stage,
    StageMetrics,
};
pub use error::CoreError;
pub use expand::{ExpandOutcome, RelaxationOrder, TraceEvent};
pub use local::{ArcType, GateContext, LocalStg};
pub use orcausality::{
    build_sub_stgs_case2, build_sub_stgs_case3, find_candidate_clauses, find_candidate_transitions,
    gen_group, initial_restrictions, insert_arc_with_token_rule, one_clause_take_over,
    or_causality_decomposition, two_clause_solver, Restriction,
};
pub use padding::{plan_padding, PaddingPlan, PaddingPosition};
pub use paths::{AdversaryOracle, AdversaryPath};
pub use pool::par_map;
pub use relax::relax_arc;
pub use report::{derive_timing_constraints, ConstraintReport, GateReport};
pub use sched::{DivergenceKind, DivergencePolicy, DivergenceWitness};
