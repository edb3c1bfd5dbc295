//! Property-based tests over randomly generated marked-graph STGs.
//!
//! Generator: a random ring of `k` signals' rising/falling transitions
//! (each `s+` before `s-`), one token closing the ring, plus random
//! forward chords with zero tokens. Rings of this shape are always live,
//! safe and consistent; forward chords preserve all three (a chord is
//! parallel to a ring segment, so every cycle through it contains the
//! ring token). The thesis invariants are then checked on random
//! relaxations, projections and redundancy sweeps.

use proptest::prelude::*;
use si_redress::core::relax_arc;
use si_redress::stg::{MgStg, SignalKind, StateGraph, TransitionLabel};
use si_redress::stg::{Polarity, SignalId, Stg};
use std::collections::BTreeSet;

#[derive(Debug, Clone)]
struct RandomRing {
    signals: usize,
    order: Vec<usize>,           // permutation of 2k slots; slot -> signal
    chords: Vec<(usize, usize)>, // forward (i, j) positions, j > i + 1
}

fn ring_strategy() -> impl Strategy<Value = RandomRing> {
    (2usize..5)
        .prop_flat_map(|signals| {
            let slots = 2 * signals;
            let order = Just((0..signals).chain(0..signals).collect::<Vec<usize>>()).prop_shuffle();
            let chords = proptest::collection::vec(
                (0..slots, 0..slots).prop_filter_map("forward non-adjacent", move |(a, b)| {
                    let (lo, hi) = if a < b { (a, b) } else { (b, a) };
                    (hi > lo + 1 && hi < slots).then_some((lo, hi))
                }),
                0..4,
            );
            (Just(signals), order, chords)
        })
        .prop_map(|(signals, order, chords)| RandomRing {
            signals,
            order,
            chords,
        })
}

/// Materializes the random ring as an `MgStg`. The i-th occurrence of a
/// signal in the shuffled order is its rising edge, the second its
/// falling edge — guaranteeing consistency.
fn build(ring: &RandomRing) -> MgStg {
    let mut stg = Stg::new("random-ring");
    let ids: Vec<SignalId> = (0..ring.signals)
        .map(|i| stg.add_signal(format!("s{i}"), SignalKind::Input))
        .collect();
    let mut mg = MgStg::empty_like(&stg);
    let mut seen = vec![0usize; ring.signals];
    let mut tids = Vec::new();
    for &sig in &ring.order {
        let polarity = if seen[sig] == 0 {
            Polarity::Plus
        } else {
            Polarity::Minus
        };
        seen[sig] += 1;
        tids.push(mg.add_transition(TransitionLabel::first(ids[sig], polarity)));
    }
    let slots = tids.len();
    for i in 0..slots {
        let tokens = u32::from(i + 1 == slots);
        mg.insert_arc(tids[i], tids[(i + 1) % slots], tokens, false);
    }
    for &(a, b) in &ring.chords {
        if a != b {
            mg.insert_arc(tids[a], tids[b], 0, false);
        }
    }
    mg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn generated_rings_are_live_safe_consistent(ring in ring_strategy()) {
        let mg = build(&ring);
        prop_assert!(mg.is_live());
        prop_assert!(mg.is_safe());
        prop_assert!(StateGraph::of_mg(&mg, 100_000).is_ok());
    }

    #[test]
    fn redundancy_sweep_preserves_the_state_graph(ring in ring_strategy()) {
        let mg = build(&ring);
        let before = StateGraph::of_mg(&mg, 100_000).expect("consistent");
        let mut swept = mg.clone();
        swept.eliminate_redundant_arcs();
        let after = StateGraph::of_mg(&swept, 100_000).expect("consistent");
        // A redundant arc never constrains a firing: the same states,
        // numbered alike, with the same edges in the same order.
        prop_assert_eq!(before, after);
    }

    #[test]
    fn relaxation_preserves_liveness_and_consistency(ring in ring_strategy()) {
        // Thesis Lemma 1 on arbitrary ring chords.
        let mg = build(&ring);
        let arcs: Vec<(usize, usize)> = mg
            .arcs()
            .filter(|&((a, b), attr)| {
                attr.tokens == 0 && !mg.label(a).same_signal(&mg.label(b))
            })
            .map(|(k, _)| k)
            .collect();
        for (a, b) in arcs {
            let mut relaxed = mg.clone();
            if relax_arc(&mut relaxed.clone(), a, b).is_err() {
                continue;
            }
            relax_arc(&mut relaxed, a, b).expect("checked");
            prop_assert!(relaxed.is_live(), "relaxing {a}->{b} killed liveness");
            prop_assert!(StateGraph::of_mg(&relaxed, 200_000).is_ok());
        }
    }

    #[test]
    fn relaxation_never_shrinks_the_state_space(ring in ring_strategy()) {
        let mg = build(&ring);
        let base = StateGraph::of_mg(&mg, 100_000).expect("consistent").state_count();
        let arcs: Vec<(usize, usize)> = mg
            .arcs()
            .filter(|&((a, b), attr)| {
                attr.tokens == 0 && !mg.label(a).same_signal(&mg.label(b))
            })
            .map(|(k, _)| k)
            .collect();
        if let Some(&(a, b)) = arcs.first() {
            let mut relaxed = mg.clone();
            if relax_arc(&mut relaxed, a, b).is_ok() {
                let grown =
                    StateGraph::of_mg(&relaxed, 200_000).expect("consistent").state_count();
                prop_assert!(grown >= base, "{grown} < {base}");
            }
        }
    }

    #[test]
    fn projection_keeps_liveness_safety_and_kept_signal_order(ring in ring_strategy()) {
        let mg = build(&ring);
        // Keep a random-but-deterministic half of the signals.
        let keep: BTreeSet<SignalId> =
            (0..ring.signals).step_by(2).map(SignalId).collect();
        let projected = mg.project(&keep).expect("projects");
        prop_assert!(projected.is_live());
        prop_assert!(projected.is_safe());
        // Every kept transition survives; every hidden one is gone.
        for t in projected.transitions() {
            prop_assert!(keep.contains(&projected.label(t).signal));
        }
        let kept_count = mg
            .transitions()
            .into_iter()
            .filter(|&t| keep.contains(&mg.label(t).signal))
            .count();
        prop_assert_eq!(projected.transitions().len(), kept_count);
        // Projection preserves the firing order of kept transitions: the
        // unique ring sequence restricted to kept signals matches.
        let trace = |g: &MgStg, n: usize| -> Vec<String> {
            let mut m = g.initial_marking();
            let mut out = Vec::new();
            let mut guard = 0;
            while out.len() < n && guard < 10 * n {
                guard += 1;
                let Some(t) = g.transitions().into_iter().find(|&t| g.enabled_in(t, &m))
                else {
                    break;
                };
                if keep.contains(&g.label(t).signal) {
                    out.push(g.label_string(t));
                }
                m = g.fire_in(t, &m);
            }
            out
        };
        let n = 2 * kept_count.max(1);
        prop_assert_eq!(trace(&mg, n), trace(&projected, n));
    }

    #[test]
    fn min_token_path_is_a_triangle_inequality(ring in ring_strategy()) {
        let mg = build(&ring);
        let ts = mg.transitions();
        for &a in ts.iter().take(4) {
            for &b in ts.iter().take(4) {
                for &c in ts.iter().take(4) {
                    if a == b || b == c || a == c {
                        continue;
                    }
                    if let (Some(ab), Some(bc)) =
                        (mg.min_token_path(a, b, false), mg.min_token_path(b, c, false))
                    {
                        let ac = mg.min_token_path(a, c, false).expect("composable");
                        prop_assert!(ac <= ab + bc, "{ac} > {ab} + {bc}");
                    }
                }
            }
        }
    }
}

/// Serializes the random ring as `.g` text — the same structure
/// [`build`] creates in memory, but through the parser's front door, so
/// the linter sees spans and all.
fn astg_text(ring: &RandomRing) -> String {
    let mut labels = Vec::new();
    let mut seen = vec![0usize; ring.signals];
    for &sig in &ring.order {
        let polarity = if seen[sig] == 0 { '+' } else { '-' };
        seen[sig] += 1;
        labels.push(format!("s{sig}{polarity}"));
    }
    let slots = labels.len();
    let mut text = String::from(".model random-ring\n.inputs");
    for i in 0..ring.signals {
        text.push_str(&format!(" s{i}"));
    }
    text.push_str("\n.graph\n");
    for i in 0..slots {
        text.push_str(&format!("{} {}\n", labels[i], labels[(i + 1) % slots]));
    }
    for &(a, b) in &ring.chords {
        text.push_str(&format!("{} {}\n", labels[a], labels[b]));
    }
    text.push_str(&format!(
        ".marking {{ <{},{}> }}\n.end\n",
        labels[slots - 1],
        labels[0]
    ));
    text
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The linter never panics on — and never reports an error-severity
    /// finding for — a valid randomly generated marked graph. (Warnings
    /// are possible: a duplicated random chord is reported as SI007.)
    #[test]
    fn linter_accepts_every_generated_ring(ring in ring_strategy()) {
        let text = astg_text(&ring);
        let report = si_redress::lint::lint_text(&text);
        prop_assert!(
            !report.has_errors(),
            "lint errors on a valid MG:\n{}",
            si_redress::lint::render_text(&report, &text, "random-ring.g")
        );
        // And the rendered forms stay well-formed (no panics either).
        let _ = si_redress::lint::render_json(&report, "random-ring.g");
    }
}

/// What a [`TextEdit::Insert`] may add: whitespace (a tab, a bare
/// `\r`), non-ASCII characters (a two-byte letter, a variation selector,
/// an emoji) and fragments of the `.g` syntax.
const INSERTS: &[&str] = &[
    "\t",
    " ",
    "\n",
    "\r",
    "é",
    "\u{fe0f}",
    "😀",
    "+",
    "-",
    "/",
    "/0",
    "<",
    ">",
    ",",
    "=",
    "{",
    "}",
    "#",
    ".",
    ".graph\n",
    ".marking {",
    ".end\n",
    ".dummy",
    "a+",
    "=99999999999",
];

/// One edit of a `.g` text. Positions wrap around the text's length.
#[derive(Debug, Clone, Copy)]
enum TextEdit {
    /// One byte deleted; a broken UTF-8 sequence decodes to U+FFFD.
    DeleteByte(usize),
    /// `INSERTS[k]` inserted at the character boundary at or before a
    /// position.
    Insert(usize, usize),
    /// A line repeated right after itself.
    DuplicateLine(usize),
    /// Two lines swapped.
    SwapLines(usize, usize),
    /// Everything from the character boundary at or before a position
    /// cut.
    Truncate(usize),
}

fn text_edit() -> impl Strategy<Value = TextEdit> {
    (0u8..5, 0usize..1 << 20, 0usize..1 << 20).prop_map(|(kind, a, b)| match kind {
        0 => TextEdit::DeleteByte(a),
        1 => TextEdit::Insert(a, b % INSERTS.len()),
        2 => TextEdit::DuplicateLine(a),
        3 => TextEdit::SwapLines(a, b),
        _ => TextEdit::Truncate(a),
    })
}

/// The character boundary at or before `at`, wrapped into `0..=len`.
fn char_boundary(text: &str, at: usize) -> usize {
    let mut at = at % (text.len() + 1);
    while !text.is_char_boundary(at) {
        at -= 1;
    }
    at
}

fn apply_edit(text: &str, edit: TextEdit) -> String {
    let mut lines: Vec<&str> = text.split('\n').collect();
    let n = lines.len();
    match edit {
        TextEdit::DeleteByte(_) if text.is_empty() => String::new(),
        TextEdit::DeleteByte(at) => {
            let mut bytes = text.as_bytes().to_vec();
            bytes.remove(at % bytes.len());
            String::from_utf8_lossy(&bytes).into_owned()
        }
        TextEdit::Insert(at, k) => {
            let at = char_boundary(text, at);
            format!("{}{}{}", &text[..at], INSERTS[k], &text[at..])
        }
        TextEdit::DuplicateLine(i) => {
            lines.insert(i % n, lines[i % n]);
            lines.join("\n")
        }
        TextEdit::SwapLines(i, j) => {
            lines.swap(i % n, j % n);
            lines.join("\n")
        }
        TextEdit::Truncate(at) => text[..char_boundary(text, at)].to_string(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Malformed text through the one-shot front end, from mutants of the
    /// 13 bundled specs and of generated corpus specs: the lenient parse
    /// always returns, a defect the strict parser fails on is a lint
    /// error, and a mutant without `\r` parses exactly like its CRLF twin,
    /// spans and defects included.
    #[test]
    fn mutated_texts_parse_and_lint_consistently(
        ((spec, seed), pick, edits) in (
            si_redress::corpus::strategies::corpus_case(),
            0usize..26,
            proptest::collection::vec(text_edit(), 1..5),
        )
    ) {
        let mut text = match si_redress::suite::benchmarks().get(pick) {
            Some(bench) => bench.stg_text.to_string(),
            None => si_redress::corpus::generate(&spec, seed).g_text,
        };
        for &edit in &edits {
            text = apply_edit(&text, edit);
        }
        let parsed = si_redress::stg::parse_astg_lenient(&text);
        if let Some(fatal) = parsed.first_fatal() {
            let report = si_redress::lint::lint_parsed(&parsed, &Default::default());
            prop_assert!(report.has_errors(), "no lint error for `{fatal}` in {text:?}");
        }
        if !text.contains('\r') {
            let crlf = si_redress::stg::parse_astg_lenient(&text.replace('\n', "\r\n"));
            prop_assert_eq!(crlf, parsed);
        }
    }
}

/// One edit of a corpus STG: each can break a different well-formedness
/// property.
#[derive(Debug, Clone, Copy)]
enum Mutation {
    /// One more token on a place.
    AddToken(usize),
    /// One token off a marked place, onto another place.
    MoveToken(usize, usize),
    /// One token off a marked place.
    RemoveToken(usize),
    /// The arc from a place into its `k`-th consumer is dropped.
    DropConsumer(usize, usize),
    /// The arc into a place from its `k`-th producer is dropped.
    DropProducer(usize, usize),
    /// A transition's polarity is flipped.
    FlipPolarity(usize),
}

/// A copy of `stg` with `mutation` applied, rebuilt through the public
/// construction API.
fn mutate(stg: &Stg, mutation: Mutation) -> Stg {
    let net = stg.net();
    let mut out = Stg::new(stg.name.clone());
    for s in stg.signal_ids() {
        out.add_signal(stg.signal_name(s), stg.signal_kind(s));
    }
    for t in net.transitions() {
        let mut label = stg.label(t);
        if matches!(mutation, Mutation::FlipPolarity(u) if u == t.0) {
            label.polarity = match label.polarity {
                Polarity::Plus => Polarity::Minus,
                Polarity::Minus => Polarity::Plus,
            };
        }
        out.add_transition(label);
    }
    let m0 = net.initial_marking();
    for p in net.places() {
        let tokens = match mutation {
            Mutation::AddToken(q) if q == p.0 => m0[p.0] + 1,
            Mutation::MoveToken(from, _) | Mutation::RemoveToken(from) if from == p.0 => {
                m0[p.0] - 1
            }
            Mutation::MoveToken(_, to) if to == p.0 => m0[p.0] + 1,
            _ => m0[p.0],
        };
        let q = out.net_mut().add_place(net.place_name(p), tokens);
        for (k, &t) in net.place_pre(p).iter().enumerate() {
            if !matches!(mutation, Mutation::DropProducer(r, j) if r == p.0 && j == k) {
                out.net_mut().add_arc_tp(t, q);
            }
        }
        for (k, &t) in net.place_post(p).iter().enumerate() {
            if !matches!(mutation, Mutation::DropConsumer(r, j) if r == p.0 && j == k) {
                out.net_mut().add_arc_pt(q, t);
            }
        }
    }
    out
}

/// The state graph as the separate analyses built it: the initial values
/// from `Stg::initial_values`, then a marking walk (LIFO frontier,
/// transitions in id order) that checks every code. Returns each state's
/// code and edges.
#[allow(clippy::type_complexity)]
fn reference_state_graph(
    stg: &Stg,
    budget: usize,
) -> Result<(Vec<u64>, Vec<Vec<(usize, usize)>>), si_redress::stg::StgError> {
    use si_redress::petri::PetriError;
    use si_redress::stg::StgError;
    let values = stg.initial_values()?;
    let code0 = (0..values.len())
        .filter(|&i| values[i])
        .fold(0u64, |code, i| code | 1u64 << i);
    let net = stg.net();
    let mut index = std::collections::HashMap::new();
    let mut markings = vec![net.initial_marking()];
    index.insert(markings[0].clone(), 0usize);
    let mut codes = vec![code0];
    let mut edges: Vec<Vec<(usize, usize)>> = vec![Vec::new()];
    let mut frontier = vec![0usize];
    while let Some(i) = frontier.pop() {
        let m = markings[i].clone();
        for t in net.enabled_transitions(&m) {
            let label = stg.label(t);
            let bit = 1u64 << label.signal.0;
            let inconsistent = || StgError::Inconsistent {
                signal: stg.signal_name(label.signal).to_string(),
            };
            if (codes[i] & bit != 0) == label.polarity.target_value() {
                return Err(inconsistent());
            }
            let next = net.fire(t, &m);
            let j = match index.get(&next) {
                Some(&j) if codes[j] != codes[i] ^ bit => return Err(inconsistent()),
                Some(&j) => j,
                None => {
                    if markings.len() >= budget {
                        return Err(StgError::Petri(PetriError::StateBudgetExceeded { budget }));
                    }
                    index.insert(next.clone(), markings.len());
                    markings.push(next);
                    codes.push(codes[i] ^ bit);
                    edges.push(Vec::new());
                    frontier.push(markings.len() - 1);
                    markings.len() - 1
                }
            };
            edges[i].push((t.0, j));
        }
    }
    Ok((codes, edges))
}

/// `Stg::validate` as the separate analyses computed it: `is_live` and
/// `is_safe` on the net, then the reference state graph.
fn reference_health(
    stg: &Stg,
    budget: usize,
) -> Result<si_redress::stg::StgHealth, si_redress::stg::StgError> {
    use si_redress::stg::{StgError, StgHealth};
    let live = stg.net().is_live(budget)?;
    let safe = stg.net().is_safe(budget)?;
    let (consistent, states) = match reference_state_graph(stg, budget) {
        Ok((codes, _)) => (true, Some(codes.len())),
        Err(StgError::Inconsistent { .. }) => (false, None),
        Err(e) => return Err(e),
    };
    Ok(StgHealth {
        live,
        safe,
        free_choice: stg.net().is_free_choice(),
        consistent,
        states,
        transitions: stg.net().transition_count(),
        signals: stg.signal_count(),
    })
}

/// Corpus STGs at 6–12 signals, each with a draw of every mutation kind.
fn walk_inputs() -> Vec<(String, Stg)> {
    use si_redress::corpus::{generate, CorpusRng, CorpusSpec};
    let mut inputs = Vec::new();
    for seed in 1..=200u64 {
        let spec = CorpusSpec::from_seed(seed, 12);
        if spec.signals < 6 {
            continue;
        }
        let stg = generate(&spec, seed).stg;
        let net = stg.net();
        let mut rng = CorpusRng::new(seed);
        let places = net.place_count();
        let marked: Vec<usize> = (0..places)
            .filter(|&p| net.initial_marking()[p] > 0)
            .collect();
        let mut mutations = vec![
            Mutation::AddToken(rng.range(0, places - 1)),
            Mutation::FlipPolarity(rng.range(0, net.transition_count() - 1)),
        ];
        if !marked.is_empty() {
            let from = marked[rng.range(0, marked.len() - 1)];
            mutations.push(Mutation::RemoveToken(from));
            mutations.push(Mutation::MoveToken(from, rng.range(0, places - 1)));
        }
        let p = rng.range(0, places - 1);
        let place = si_redress::petri::PlaceId(p);
        if !net.place_post(place).is_empty() {
            let k = rng.range(0, net.place_post(place).len() - 1);
            mutations.push(Mutation::DropConsumer(p, k));
        }
        if !net.place_pre(place).is_empty() {
            let k = rng.range(0, net.place_pre(place).len() - 1);
            mutations.push(Mutation::DropProducer(p, k));
        }
        for mutation in mutations {
            inputs.push((format!("seed {seed} {mutation:?}"), mutate(&stg, mutation)));
        }
        inputs.push((format!("seed {seed}"), stg));
    }
    inputs
}

/// The one whole-STG walk (`Stg::analyze`, behind `StateGraph::of_stg`
/// and `Stg::validate`) against the separate analyses it replaced, on
/// corpus STGs and mutations of them at a small and a large budget.
/// Within the budget the state graph, the initial code, the health
/// summary and every error agree; over it, the walk reports the budget.
#[test]
fn one_walk_agrees_with_the_separate_analyses() {
    use si_redress::petri::PetriError;
    use si_redress::stg::StgError;
    let mut seen = std::collections::BTreeMap::<&str, usize>::new();
    for (name, stg) in walk_inputs() {
        for budget in [16, 2_000] {
            let analysis = stg.analyze(budget);
            if stg.net().reachability(budget).is_err() {
                let over = Err(StgError::Petri(PetriError::StateBudgetExceeded { budget }));
                assert_eq!(analysis.map(|_| ()), over, "{name} at {budget}");
                assert_eq!(StateGraph::of_stg(&stg, budget).map(|_| ()), over);
                assert_eq!(stg.validate(budget).map(|_| ()), over);
                *seen.entry("over budget").or_default() += 1;
                continue;
            }
            let analysis = analysis.expect("fits the budget");
            let expected_code = stg.initial_values().map(|values| {
                (0..values.len())
                    .filter(|&i| values[i])
                    .fold(0u64, |code, i| code | 1u64 << i)
            });
            assert_eq!(analysis.initial_code(), expected_code, "{name} at {budget}");
            let health = reference_health(&stg, budget);
            assert_eq!(stg.validate(budget), health, "{name} at {budget}");
            assert_eq!(analysis.health(), health, "{name} at {budget}");
            match (
                StateGraph::of_stg(&stg, budget),
                reference_state_graph(&stg, budget),
            ) {
                (Ok(sg), Ok((codes, edges))) => {
                    assert_eq!(sg.state_count(), codes.len(), "{name} at {budget}");
                    for (i, (code, out)) in codes.iter().zip(&edges).enumerate() {
                        assert_eq!(sg.code(i), *code, "{name} at {budget}: state {i}");
                        assert_eq!(sg.edges(i), &out[..], "{name} at {budget}: state {i}");
                    }
                    for t in stg.net().transitions() {
                        assert_eq!(sg.label(t.0), stg.label(t));
                    }
                }
                (new, reference) => assert_eq!(new.map(|_| ()), reference.map(|_| ())),
            }
            let h = health.as_ref();
            for (kind, hit) in [
                ("inconsistent", h.is_ok_and(|h| !h.consistent)),
                ("dead signal", matches!(h, Err(StgError::DeadSignal { .. }))),
                ("unsafe", h.is_ok_and(|h| !h.safe)),
                ("not live", h.is_ok_and(|h| !h.live)),
                ("well-formed", h.is_ok_and(|h| h.is_well_formed())),
            ] {
                if hit {
                    *seen.entry(kind).or_default() += 1;
                }
            }
        }
    }
    for kind in [
        "over budget",
        "inconsistent",
        "dead signal",
        "unsafe",
        "not live",
        "well-formed",
    ] {
        assert!(
            seen.get(kind).is_some_and(|&n| n > 0),
            "no {kind} input: {seen:?}"
        );
    }
}
