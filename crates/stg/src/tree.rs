//! The tree-building layer of the `.g` front-end: folds the
//! [`ParseEvent`] stream into the [`Stg`] + [`SpecSpans`] + defect list
//! that [`parse_astg_lenient`](crate::parse::parse_astg_lenient) returns.
//! All semantic recovery lives here — auto-declaring undeclared signals
//! as inputs, merging duplicate arcs, resolving implicit `<t1,t2>` places
//! — while the line reader ([`parse_events`](crate::events::parse_events))
//! stays purely syntactic. Because
//! syntactic defects arrive as [`ParseEvent::Defect`] entries
//! *interleaved* with the tokens, the folded defect list is in source
//! order. Names are looked up by the `&str` slices the tokens borrow from
//! the source; signals by the [`Stg`]'s own table.

use std::collections::{BTreeMap, BTreeSet};

use si_petri::{PlaceId, TransitionId};

use crate::events::{ParseEvent, ParseNodeKind, Token, TokenKind};
use crate::parse::{LenientParse, ParseAstgError, ParseErrorKind, Span, SpecSpans};
use crate::signal::{Polarity, SignalKind, TransitionLabel};
use crate::stg::Stg;

/// What a `.graph` node token denotes, before resolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NodeRef<'a> {
    Transition(&'a str, Polarity, u32),
    Place(&'a str),
}

fn parse_node(token: &str) -> NodeRef<'_> {
    let (base, occurrence) = match token.split_once('/') {
        Some((b, occ)) => match occ.parse::<u32>() {
            Ok(n) if n >= 1 => (b, n),
            _ => return NodeRef::Place(token),
        },
        None => (token, 1),
    };
    if let Some(name) = base.strip_suffix('+') {
        if !name.is_empty() {
            return NodeRef::Transition(name, Polarity::Plus, occurrence);
        }
    }
    if let Some(name) = base.strip_suffix('-') {
        if !name.is_empty() {
            return NodeRef::Transition(name, Polarity::Minus, occurrence);
        }
    }
    NodeRef::Place(token)
}

#[derive(Debug, Clone, Copy)]
enum NodeKind {
    T(TransitionId),
    P(PlaceId),
}

impl NodeKind {
    /// A stable dedup key: transitions and places in disjoint ranges.
    fn key(self) -> (u8, usize) {
        match self {
            NodeKind::T(t) => (0, t.0),
            NodeKind::P(p) => (1, p.0),
        }
    }
}

/// The fold's state between events.
struct Fold<'a> {
    stg: Stg,
    transitions: BTreeMap<(&'a str, Polarity, u32), TransitionId>,
    places: BTreeMap<&'a str, PlaceId>,
    implicit: BTreeMap<(TransitionId, TransitionId), PlaceId>,
    arcs_seen: BTreeSet<((u8, usize), (u8, usize))>,
    errors: Vec<ParseAstgError>,
    spans: SpecSpans,
    /// Declaration kind of the open `.inputs`/`.outputs`/`.internal`
    /// node, if any.
    decl_kind: Option<SignalKind>,
    /// Source node of the open graph line (its first token), if resolved.
    graph_src: Option<NodeKind>,
}

impl<'a> Fold<'a> {
    fn push(&mut self, event: &ParseEvent<'a>) {
        match event {
            ParseEvent::Open { kind, span } => match kind {
                ParseNodeKind::Model => self.spans.model = Some(*span),
                ParseNodeKind::Inputs => self.decl_kind = Some(SignalKind::Input),
                ParseNodeKind::Outputs => self.decl_kind = Some(SignalKind::Output),
                ParseNodeKind::Internal => self.decl_kind = Some(SignalKind::Internal),
                ParseNodeKind::GraphLine => self.graph_src = None,
                ParseNodeKind::Marking => self.spans.marking = Some(*span),
                ParseNodeKind::Document | ParseNodeKind::Graph => {}
            },
            ParseEvent::Close { kind } => match kind {
                ParseNodeKind::Inputs | ParseNodeKind::Outputs | ParseNodeKind::Internal => {
                    self.decl_kind = None;
                }
                ParseNodeKind::GraphLine => self.graph_src = None,
                _ => {}
            },
            ParseEvent::Token(token) => self.token(token),
            ParseEvent::Defect(e) => self.errors.push(e.clone()),
        }
    }

    fn token(&mut self, token: &Token<'a>) {
        match token.kind {
            TokenKind::Model => self.stg.name = token.text.to_string(),
            TokenKind::Name => {
                // Outside a declaration node (possible only in hand-built
                // event streams) names default to inputs, the same
                // recovery the parser uses for undeclared signals.
                let kind = self.decl_kind.unwrap_or(SignalKind::Input);
                self.declare(kind, token.text, token.span);
            }
            TokenKind::Node => {
                let node = self.resolve_node(token.text, token.span);
                match self.graph_src {
                    None => self.graph_src = Some(node),
                    Some(src) => self.add_arc(src, node, token.span),
                }
            }
            TokenKind::MarkingEntry => self.marking_token(token.text, token.span),
        }
    }

    fn error(&mut self, kind: ParseErrorKind, span: Span, message: impl Into<String>) {
        self.errors.push(ParseAstgError {
            kind,
            span,
            message: message.into(),
        });
    }

    fn declare(&mut self, kind: SignalKind, name: &str, span: Span) {
        if self.stg.signal_by_name(name).is_some() {
            self.error(
                ParseErrorKind::DuplicateSignal,
                span,
                format!("signal `{name}` declared twice"),
            );
            return;
        }
        self.stg.add_signal(name, kind);
        self.spans.signals.push(span);
    }

    /// Resolves a transition node, auto-declaring undeclared signals as
    /// inputs (with an [`ParseErrorKind::UndeclaredSignal`] defect) so the
    /// rest of the specification can still be analyzed.
    fn resolve_transition(
        &mut self,
        name: &'a str,
        pol: Polarity,
        occ: u32,
        span: Span,
    ) -> TransitionId {
        if let Some(&t) = self.transitions.get(&(name, pol, occ)) {
            return t;
        }
        let sig = match self.stg.signal_by_name(name) {
            Some(sig) => sig,
            None => {
                self.error(
                    ParseErrorKind::UndeclaredSignal,
                    span,
                    format!("undeclared signal `{name}`"),
                );
                self.spans.signals.push(span);
                self.stg.add_signal(name, SignalKind::Input)
            }
        };
        let t = self.stg.add_transition(TransitionLabel::new(sig, pol, occ));
        self.transitions.insert((name, pol, occ), t);
        self.spans.transitions.push(span);
        t
    }

    fn resolve_place(&mut self, name: &'a str, span: Span) -> PlaceId {
        if let Some(&p) = self.places.get(name) {
            return p;
        }
        let p = self.stg.net_mut().add_place(name, 0);
        self.places.insert(name, p);
        self.spans.places.push(span);
        p
    }

    fn resolve_node(&mut self, token: &'a str, span: Span) -> NodeKind {
        match parse_node(token) {
            NodeRef::Transition(name, pol, occ) => {
                NodeKind::T(self.resolve_transition(name, pol, occ, span))
            }
            NodeRef::Place(name) => NodeKind::P(self.resolve_place(name, span)),
        }
    }

    /// Adds one `.graph` arc, merging duplicates (with a defect) and
    /// skipping place-to-place arcs (with a defect).
    fn add_arc(&mut self, src: NodeKind, dst: NodeKind, dst_span: Span) {
        if !self.arcs_seen.insert((src.key(), dst.key())) {
            let name = |n: NodeKind| match n {
                NodeKind::T(t) => self.stg.net().transition_name(t).to_string(),
                NodeKind::P(p) => self.stg.net().place_name(p).to_string(),
            };
            self.error(
                ParseErrorKind::DuplicateArc,
                dst_span,
                format!("duplicate arc `{} {}` is merged", name(src), name(dst)),
            );
            return;
        }
        match (src, dst) {
            // A first-seen transition pair has no implicit place yet.
            (NodeKind::T(a), NodeKind::T(b)) => {
                let pname = format!(
                    "<{},{}>",
                    self.stg.net().transition_name(a),
                    self.stg.net().transition_name(b)
                );
                let p = self.stg.net_mut().add_place(pname, 0);
                self.stg.net_mut().add_arc_tp(a, p);
                self.stg.net_mut().add_arc_pt(p, b);
                self.implicit.insert((a, b), p);
                self.spans.places.push(dst_span);
            }
            (NodeKind::T(a), NodeKind::P(p)) => self.stg.net_mut().add_arc_tp(a, p),
            (NodeKind::P(p), NodeKind::T(b)) => self.stg.net_mut().add_arc_pt(p, b),
            (NodeKind::P(_), NodeKind::P(_)) => {
                self.error(
                    ParseErrorKind::Syntax,
                    dst_span,
                    "place-to-place arcs are not allowed",
                );
            }
        }
    }

    /// One raw marking entry token (`p0`, `<a+,b->`, `<a+,b->=2`).
    fn marking_token(&mut self, token: &'a str, span: Span) {
        let (name, count) = match token.split_once('=') {
            Some((n, k)) => match k.parse::<u32>() {
                Ok(count) => (n, count),
                Err(_) => {
                    self.error(
                        ParseErrorKind::Syntax,
                        span,
                        format!("bad token count in `{token}`"),
                    );
                    return;
                }
            },
            None => (token, 1),
        };
        self.marking_entry(name, count, span);
    }

    fn marking_entry(&mut self, name: &'a str, count: u32, span: Span) {
        if let Some(inner) = name.strip_prefix('<').and_then(|n| n.strip_suffix('>')) {
            let Some((a, b)) = inner.split_once(',') else {
                self.error(
                    ParseErrorKind::Syntax,
                    span,
                    format!("bad implicit place `{name}`"),
                );
                return;
            };
            let mut lookup = |tok: &'a str| -> Option<TransitionId> {
                match parse_node(tok.trim()) {
                    NodeRef::Transition(n, pol, occ) => {
                        let t = self.transitions.get(&(n, pol, occ)).copied();
                        if t.is_none() {
                            self.error(
                                ParseErrorKind::Syntax,
                                span,
                                format!("unknown transition `{tok}` in marking"),
                            );
                        }
                        t
                    }
                    NodeRef::Place(_) => {
                        self.error(
                            ParseErrorKind::Syntax,
                            span,
                            format!("`{tok}` is not a transition"),
                        );
                        None
                    }
                }
            };
            let (Some(ta), Some(tb)) = (lookup(a), lookup(b)) else {
                return;
            };
            match self.implicit.get(&(ta, tb)).copied() {
                Some(p) => self.stg.net_mut().set_initial(p, count),
                None => self.error(
                    ParseErrorKind::Syntax,
                    span,
                    format!("no implicit place `{name}` in the graph"),
                ),
            }
        } else {
            match self.places.get(name).copied() {
                Some(p) => self.stg.net_mut().set_initial(p, count),
                None => self.error(
                    ParseErrorKind::Syntax,
                    span,
                    format!("unknown place `{name}` in marking"),
                ),
            }
        }
    }
}

/// Folds a complete event stream into a [`LenientParse`]: the second of
/// the front end's two layers, after the line reader
/// ([`parse_events`](crate::events::parse_events)). The `Stg` is named
/// `stg` unless a `.model` token names it. No synthetic defects are added
/// here — the line reader owns syntax, including the missing-`.graph`
/// check.
#[must_use]
pub fn tree_of_events(events: &[ParseEvent<'_>]) -> LenientParse {
    let mut fold = Fold {
        stg: Stg::new("stg"),
        transitions: BTreeMap::new(),
        places: BTreeMap::new(),
        implicit: BTreeMap::new(),
        arcs_seen: BTreeSet::new(),
        errors: Vec::new(),
        spans: SpecSpans::default(),
        decl_kind: None,
        graph_src: None,
    };
    for event in events {
        fold.push(event);
    }
    LenientParse {
        stg: fold.stg,
        errors: fold.errors,
        spans: fold.spans,
    }
}
