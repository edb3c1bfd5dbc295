//! Signal transition graphs (STGs), the `astg`/`.g` interchange format,
//! marked-graph STG views, state graphs with excitation/quiescent regions,
//! and projection onto operator signals (thesis Ch. 3 and Sec. 5.2).
//!
//! An STG is an interpreted Petri net whose transitions are labelled with
//! signal edges (`req+`, `ack-`, `csc0+/2`, …). This crate layers those
//! labels over [`si_petri::PetriNet`], parses and writes the textual `.g`
//! format used by petrify-era tools, converts marked-graph components into
//! the transition-level [`MgStg`] form that the relaxation engine
//! manipulates, generates binary-coded state graphs ([`StateGraph`]) with
//! the region machinery of thesis Sec. 3.4 — including the allocation-free
//! σ-space explorer ([`StateGraph::of_mg_sigma`]) that keys marked-graph
//! states by normalized firing counts, checked against the marking-keyed
//! [`StateGraph::of_mg`] — and implements the local-STG projection of
//! Algorithm 1 together with the shortcut-place redundancy check of
//! Algorithm 3.
//!
//! The `.g` front-end is layered for streaming: the incremental
//! [`Lexer`] yields spanned tokens from `&str` chunks, the
//! [`EventParser`] turns them into a nested [`ParseEvent`] stream, and
//! the [`TreeBuilder`] folds that stream into the [`LenientParse`] the
//! [`parse_astg`]/[`parse_astg_lenient`] facades return. The [`sexp`]
//! module serializes event streams (plus state graphs) into a lossless,
//! language-neutral S-expression interchange format and reads parse-tree
//! dumps back into events — see `docs/interchange.md`.

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

pub use events::{parse_events, EventParser, ParseEvent, ParseNodeKind};
pub use lexer::{normalize_source, Lexer, Token, TokenKind};
pub use mg::{extend_fingerprint, ArcAttr, MgStg, SgKey};
pub use parse::{
    parse_astg, parse_astg_lenient, write_astg, LenientParse, ParseAstgError, ParseErrorKind, Span,
    SpecSpans, IMEC_RAM_READ_SBUF_G,
};
pub use sg::{SgState, StateGraph};
pub use signal::{Polarity, SignalId, SignalKind, TransitionLabel};
pub use stg::{Stg, StgError, StgHealth};
pub use tree::{tree_of_events, TreeBuilder};
