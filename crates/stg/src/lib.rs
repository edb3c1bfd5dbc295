//! Signal transition graphs (STGs), the `astg`/`.g` interchange format,
//! marked-graph STG views, state graphs with excitation/quiescent regions,
//! and projection onto operator signals (thesis Ch. 3 and Sec. 5.2).
//!
//! An STG is an interpreted Petri net whose transitions are labelled with
//! signal edges (`req+`, `ack-`, `csc0+/2`, …). This crate layers those
//! labels over [`si_petri::PetriNet`], parses and writes the textual `.g`
//! format used by petrify-era tools, converts marked-graph components into
//! the transition-level [`MgStg`] form that the relaxation engine
//! manipulates, walks a whole STG's reachable markings once per run
//! ([`Stg::analyze`]: the state graph, the initial code, liveness and
//! safeness in one [`StgAnalysis`]), generates binary-coded state graphs
//! ([`StateGraph`], every edge in one flat array read per state through
//! [`StateGraph::edges`]) with the region machinery of thesis Sec. 3.4 — including the σ-space
//! explorer ([`StateGraph::of_mg_sigma`]) that keys marked-graph states by
//! normalized firing counts, works in per-thread scratch buffers and
//! allocates only the graph it returns, checked against the marking-keyed
//! [`StateGraph::of_mg`] — and implements the local-STG projection of
//! Algorithm 1 together with the shortcut-place redundancy check of
//! Algorithm 3.
//!
//! The `.g` front-end reads one whole text in three layers: a
//! line-oriented lexer yields spanned [`Token`]s that borrow the source,
//! [`parse_events`] turns them into a nested [`ParseEvent`] stream, and
//! [`tree_of_events`] folds that stream into the [`LenientParse`] the
//! [`parse_astg`]/[`parse_astg_lenient`] facades return. The [`sexp`]
//! module writes event streams and state graphs as the S-expression
//! dumps the compliance fixtures pin (`docs/interchange.md`), and holds
//! the workspace's one string escaper.

mod events;
mod lexer;
mod mg;
mod parse;
mod project;
pub mod sexp;
mod sg;
mod signal;
mod stg;
mod tree;
mod walk;

pub use events::{parse_events, ParseEvent, ParseNodeKind};
pub use lexer::{Token, TokenKind};
pub use mg::{extend_fingerprint, ArcAttr, MgStg, SgKey};
pub use parse::{
    parse_astg, parse_astg_lenient, write_astg, LenientParse, ParseAstgError, ParseErrorKind, Span,
    SpecSpans, IMEC_RAM_READ_SBUF_G,
};
pub use sg::{SgState, StateGraph};
pub use signal::{Polarity, SignalId, SignalKind, TransitionLabel};
pub use stg::{Stg, StgError, StgHealth, ALLOCATION_CAP, DEFAULT_GLOBAL_SG_BUDGET};
pub use tree::tree_of_events;
pub use walk::{whole_stg_walks, StgAnalysis};
