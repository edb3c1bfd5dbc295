//! OR-causality analysis and decomposition (thesis Ch. 6).
//!
//! When a relaxation lets more than one clause of a gate's pull-up/down
//! cover race to trigger the output, no safe marked graph can express the
//! race. The local STG is decomposed into sub-STGs, one per way the race
//! can be won: in each sub-STG, order-restriction (`#`) arcs force one
//! candidate clause to evaluate true first, and arcs from that clause's
//! candidate transitions to the output transition record the new
//! prerequisites. The union of the sub-STGs' reachable states covers every
//! state of the racing STG (thesis Sec. 6.2).

use std::collections::{BTreeMap, BTreeSet};

use si_boolean::Cube;
use si_stg::{Polarity, StateGraph, TransitionLabel};

use crate::check::Prerequisites;
use crate::error::CoreError;
use crate::local::LocalStg;
use crate::relax::relax_arc;

/// A pairwise order restriction `t ≺ t'` between two transition ids.
pub type Restriction = (usize, usize);

/// Whether `cube` has the literal matching transition label `l` (positive
/// literal for a rising transition, negative for falling).
fn clause_matches(local: &LocalStg, cube: &Cube, l: TransitionLabel) -> bool {
    local
        .ctx
        .var_map
        .iter()
        .position(|&s| s == l.signal)
        .is_some_and(|var| cube.literal(var) == Some(l.polarity.target_value()))
}

/// Whether `cube` contains literals for every prerequisite transition of
/// `t_out`.
fn clause_contains_epre(local: &LocalStg, cube: &Cube, t_out: usize, epre: &Prerequisites) -> bool {
    epre.of(t_out)
        .all(|t| clause_matches(local, cube, local.mg.label(t)))
}

/// Candidate clauses for the OR-causality on output transition `t_out`
/// (thesis Sec. 6.1): clauses that can newly become true inside the
/// quiescent region preceding `t_out` (criterion 1, judged on `sg`), plus
/// the clause containing all of `t_out`'s prerequisite transitions
/// (criterion 2, read from `epre`).
pub fn find_candidate_clauses(
    local: &LocalStg,
    sg: &StateGraph,
    t_out: usize,
    epre: &Prerequisites,
) -> Vec<usize> {
    let o = local.ctx.output;
    let pol = local.mg.label(t_out).polarity;
    let cover = match pol {
        Polarity::Plus => &local.ctx.gate.up,
        Polarity::Minus => &local.ctx.gate.down,
    };
    let quiescent_value = !pol.target_value();
    let in_qr = |s: usize| !sg.is_excited(s, o) && sg.value(s, o) == quiescent_value;
    let f = |s: usize| match pol {
        Polarity::Plus => local.ctx.eval_up(sg.code(s)),
        Polarity::Minus => local.ctx.eval_down(sg.code(s)),
    };

    let mut result = Vec::new();
    for (i, cube) in cover.cubes().iter().enumerate() {
        let mut is_candidate = clause_contains_epre(local, cube, t_out, epre);
        if !is_candidate {
            'scan: for s in 0..sg.state_count() {
                if !in_qr(s) || f(s) {
                    continue;
                }
                for &(_, s2) in sg.edges(s) {
                    if in_qr(s2) && f(s2) && cube.eval(local.ctx.pack(sg.code(s2))) {
                        is_candidate = true;
                        break 'scan;
                    }
                }
            }
        }
        if is_candidate {
            result.push(i);
        }
    }
    result
}

/// Candidate transitions of one clause (thesis Sec. 6.1): transitions whose
/// literal appears in the clause and which are concurrent with `t_out`,
/// plus the relaxed transition `x` itself.
pub fn find_candidate_transitions(
    local: &LocalStg,
    clause: usize,
    t_out: usize,
    x: usize,
    direction: Polarity,
) -> BTreeSet<usize> {
    let cover = match direction {
        Polarity::Plus => &local.ctx.gate.up,
        Polarity::Minus => &local.ctx.gate.down,
    };
    let cube = &cover.cubes()[clause];
    let o = local.ctx.output;
    local
        .mg
        .transitions()
        .into_iter()
        .filter(|&t| {
            let l = local.mg.label(t);
            l.signal != o
                && clause_matches(local, cube, l)
                && (t == x || local.mg.concurrent(t, t_out))
        })
        .collect()
}

/// The initial ordering restrictions among candidate transitions: every
/// pair already ordered by the current STG.
pub fn initial_restrictions(
    local: &LocalStg,
    candidates: &BTreeSet<usize>,
) -> BTreeSet<Restriction> {
    let mut init = BTreeSet::new();
    for &a in candidates {
        for &b in candidates {
            if a != b && local.mg.precedes(a, b) {
                init.insert((a, b));
            }
        }
    }
    init
}

/// Reachability in the initial-restriction digraph ("transitively
/// precedes" of Algorithm 6).
fn precedes_in(init: &BTreeSet<Restriction>, a: usize, b: usize) -> bool {
    let mut seen = BTreeSet::new();
    let mut stack = vec![a];
    while let Some(n) = stack.pop() {
        for &(p, q) in init {
            if p == n && seen.insert(q) {
                if q == b {
                    return true;
                }
                stack.push(q);
            }
        }
    }
    false
}

/// Algorithm 6: restriction sets making clause `a` evaluate true before
/// clause `b`. Each returned set contains pairwise orderings `t ≺ t'`.
pub fn two_clause_solver(
    a: &BTreeSet<usize>,
    b: &BTreeSet<usize>,
    init: &BTreeSet<Restriction>,
) -> Vec<BTreeSet<Restriction>> {
    // A' drops the common transitions; A'' additionally drops transitions
    // already ordered before some transition of B.
    let a_prime: Vec<usize> = a.iter().copied().filter(|t| !b.contains(t)).collect();
    let a1: Vec<usize> = a_prime
        .iter()
        .copied()
        .filter(|&t| !b.iter().any(|&t2| precedes_in(init, t, t2)))
        .collect();
    if a1.is_empty() {
        // Every A transition is shared or already ordered before B: clause
        // A wins with no extra restrictions.
        return vec![BTreeSet::new()];
    }
    // Drop from B: transitions that transitively precede a transition that
    // clause A still needs (A', the thesis prunes against the pre-ordering
    // set — such a B transition can never close a valid sequence).
    let b1: Vec<usize> = b
        .iter()
        .copied()
        .filter(|&t2| !a_prime.iter().any(|&t| precedes_in(init, t2, t)))
        .collect();
    b1.iter()
        .map(|&t2| a1.iter().map(|&t| (t, t2)).collect())
        .collect()
}

/// Algorithm 7: all combinations of one restriction set per group, skipping
/// groups already satisfied by the accumulated build.
pub fn gen_group(groups: &[Vec<BTreeSet<Restriction>>]) -> Vec<BTreeSet<Restriction>> {
    fn rec(
        groups: &[Vec<BTreeSet<Restriction>>],
        n: usize,
        build: BTreeSet<Restriction>,
        out: &mut BTreeSet<BTreeSet<Restriction>>,
    ) {
        if n == groups.len() {
            out.insert(build);
            return;
        }
        let g = &groups[n];
        if g.iter().any(|rs| rs.is_subset(&build)) {
            rec(groups, n + 1, build, out);
            return;
        }
        for rs in g {
            let mut b2 = build.clone();
            b2.extend(rs.iter().copied());
            rec(groups, n + 1, b2, out);
        }
    }
    let mut out = BTreeSet::new();
    rec(groups, 0, BTreeSet::new(), &mut out);
    out.into_iter().collect()
}

/// Algorithm 8: restriction sets letting the clause with candidate set `a`
/// evaluate true before every other candidate clause.
pub fn one_clause_take_over(
    a: &BTreeSet<usize>,
    all: &BTreeMap<usize, BTreeSet<usize>>,
    a_key: usize,
    init: &BTreeSet<Restriction>,
) -> Vec<BTreeSet<Restriction>> {
    let groups: Vec<Vec<BTreeSet<Restriction>>> = all
        .iter()
        .filter(|&(&k, _)| k != a_key)
        .map(|(_, b)| two_clause_solver(a, b, init))
        .collect();
    gen_group(&groups)
}

/// Algorithm 9: the full solution group — for every candidate clause, the
/// restriction sets under which it wins the race.
pub fn or_causality_decomposition(
    cands: &BTreeMap<usize, BTreeSet<usize>>,
    init: &BTreeSet<Restriction>,
) -> Vec<(usize, BTreeSet<Restriction>)> {
    let mut solution = Vec::new();
    for (&clause, a) in cands {
        for rs in one_clause_take_over(a, cands, clause, init) {
            solution.push((clause, rs));
        }
    }
    solution
}

/// Inserts an arc with the liveness-preserving token rule: the new arc
/// carries a token iff it would otherwise close a token-free cycle.
pub fn insert_arc_with_token_rule(
    mg: &mut si_stg::MgStg,
    src: usize,
    dst: usize,
    restriction: bool,
) {
    let tokens = u32::from(mg.has_path_within(dst, src, 0, false));
    mg.insert_arc(src, dst, tokens, restriction);
}

/// Builds the case-2 sub-STGs (thesis Sec. 6.2.2): for each solution entry,
/// add prerequisite arcs from the winning clause's candidates to `t_out`
/// and the `#` restriction arcs, then sweep redundancy.
pub fn build_sub_stgs_case2(
    base: &LocalStg,
    t_out: usize,
    solution: &[(usize, BTreeSet<Restriction>)],
    cands: &BTreeMap<usize, BTreeSet<usize>>,
) -> Vec<LocalStg> {
    solution
        .iter()
        .map(|(clause, restrictions)| {
            let mut sub = base.clone();
            for &t in &cands[clause] {
                insert_arc_with_token_rule(&mut sub.mg, t, t_out, false);
            }
            for &(p, q) in restrictions {
                insert_arc_with_token_rule(&mut sub.mg, p, q, true);
            }
            sub.mg.eliminate_redundant_arcs();
            sub
        })
        .collect()
}

/// Builds the case-3 sub-STGs: as case 2, but prerequisite arcs of `t_out`
/// whose literal does not belong to the winning clause are *relaxed*
/// (the winning clause takes over the triggering role, Sec. 6.2.2).
///
/// # Errors
///
/// Propagates relaxation errors.
pub fn build_sub_stgs_case3(
    base: &LocalStg,
    t_out: usize,
    solution: &[(usize, BTreeSet<Restriction>)],
    cands: &BTreeMap<usize, BTreeSet<usize>>,
) -> Result<Vec<LocalStg>, CoreError> {
    let o = local_output(base);
    let direction = base.mg.label(t_out).polarity;
    let cover = match direction {
        Polarity::Plus => base.ctx.gate.up.clone(),
        Polarity::Minus => base.ctx.gate.down.clone(),
    };
    let mut subs = Vec::new();
    for (clause, restrictions) in solution {
        let cube = cover.cubes()[*clause];
        let mut sub = base.clone();
        for &t in &cands[clause] {
            insert_arc_with_token_rule(&mut sub.mg, t, t_out, false);
        }
        // Relax prerequisites outside the winning clause.
        for z in sub.mg.preds(t_out) {
            let l = sub.mg.label(z);
            if l.signal == o || clause_matches(base, &cube, l) {
                continue;
            }
            if sub.mg.arc(z, t_out).is_some_and(|a| !a.restriction) {
                relax_arc(&mut sub.mg, z, t_out)?;
            }
        }
        for &(p, q) in restrictions {
            insert_arc_with_token_rule(&mut sub.mg, p, q, true);
        }
        sub.mg.eliminate_redundant_arcs();
        subs.push(sub);
    }
    Ok(subs)
}

fn local_output(local: &LocalStg) -> si_stg::SignalId {
    local.ctx.output
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(items: &[usize]) -> BTreeSet<usize> {
        items.iter().copied().collect()
    }

    fn pairs(items: &[(usize, usize)]) -> BTreeSet<Restriction> {
        items.iter().copied().collect()
    }

    #[test]
    fn solver_case_1_disjoint_unordered() {
        // Thesis case (1): A = {a,b,c}, B = {d,e,f}: one restriction set
        // per transition of B, each ordering all of A before it.
        let a = set(&[1, 2, 3]);
        let b = set(&[4, 5, 6]);
        let sol = two_clause_solver(&a, &b, &BTreeSet::new());
        assert_eq!(sol.len(), 3);
        assert!(sol.contains(&pairs(&[(1, 4), (2, 4), (3, 4)])));
        assert!(sol.contains(&pairs(&[(1, 5), (2, 5), (3, 5)])));
        assert!(sol.contains(&pairs(&[(1, 6), (2, 6), (3, 6)])));
    }

    #[test]
    fn solver_case_2_common_transitions() {
        // Thesis case (2): A = {a,b,c}, B = {a,d,e,f}; `a` is common and
        // needs no ordering.
        let a = set(&[1, 2, 3]);
        let b = set(&[1, 4, 5, 6]);
        let sol = two_clause_solver(&a, &b, &BTreeSet::new());
        assert_eq!(sol.len(), 4);
        assert!(sol.contains(&pairs(&[(2, 1), (3, 1)])));
        assert!(sol.contains(&pairs(&[(2, 4), (3, 4)])));
    }

    #[test]
    fn solver_case_3_initial_orderings() {
        // Thesis case (3): A = {a,b,c,g,h}, B = {a,d,e,f}, initial
        // orderings {c≺d, f≺c, e≺b, e≺g}. After pruning: A'' = {b,g,h},
        // B' = {a,d}; two restriction sets.
        let a = set(&[1, 2, 3, 7, 8]); // a,b,c,g,h
        let b = set(&[1, 4, 5, 6]); // a,d,e,f
        let init = pairs(&[(3, 4), (6, 3), (5, 2), (5, 7)]);
        let sol = two_clause_solver(&a, &b, &init);
        assert_eq!(sol.len(), 2);
        assert!(!sol.contains(&pairs(&[(2, 1), (3, 1), (7, 1), (8, 1)])));
        // A'' = {b,g,h} = {2,7,8}: c (3) is removed because c ≺ d ∈ B.
        assert!(sol.contains(&pairs(&[(2, 1), (7, 1), (8, 1)])));
        assert!(sol.contains(&pairs(&[(2, 4), (7, 4), (8, 4)])));
    }

    #[test]
    fn solver_empty_a_means_no_restrictions() {
        // All of A common with B: A wins trivially.
        let a = set(&[1, 2]);
        let b = set(&[1, 2, 3]);
        let sol = two_clause_solver(&a, &b, &BTreeSet::new());
        assert_eq!(sol, vec![BTreeSet::new()]);
    }

    #[test]
    fn solver_blocked_clause_has_no_solutions() {
        // Every transition of B precedes A: B always wins, A never can.
        let a = set(&[1]);
        let b = set(&[2]);
        let init = pairs(&[(2, 1)]);
        let sol = two_clause_solver(&a, &b, &init);
        assert!(sol.is_empty());
    }

    #[test]
    fn gen_group_cross_product_with_skip() {
        // Groups sharing a restriction set: picking it once satisfies both.
        let common = pairs(&[(1, 3), (2, 3)]);
        let g1 = vec![common.clone(), pairs(&[(1, 4), (2, 4)])];
        let g2 = vec![common.clone(), pairs(&[(1, 5), (2, 5)])];
        let groups = vec![g1, g2];
        let out = gen_group(&groups);
        // common alone satisfies both groups; the other combinations pair
        // the non-common sets (and mixed ones collapse by subset-skip).
        assert!(out.contains(&common));
        assert!(out
            .iter()
            .any(|s| s.contains(&(1, 4)) && s.contains(&(1, 5))));
    }

    #[test]
    fn thesis_fig_6_5_solution_group() {
        // Clauses x·y, z·k·y, m·n·y with candidates x = {x+}, zk = {z+,k+},
        // n = {n+} (y+, m+ not concurrent). Expected solution (Sec. 6.2):
        //   Sx  = {x+≺k+, x+≺n+}, {x+≺z+, x+≺n+}
        //   Szk = {z+≺x+, k+≺x+, z+≺n+, k+≺n+}
        //   Sn  = {n+≺x+, n+≺k+}, {n+≺x+, n+≺z+}
        // (total 5 sub-STGs, Fig. 6.5 (c)-(g))
        let (x, z, k, n) = (1usize, 2usize, 3usize, 4usize);
        let mut cands = BTreeMap::new();
        cands.insert(0usize, set(&[x]));
        cands.insert(1usize, set(&[z, k]));
        cands.insert(2usize, set(&[n]));
        let init = BTreeSet::new();
        let solution = or_causality_decomposition(&cands, &init);
        assert_eq!(solution.len(), 5);
        let for_clause = |c: usize| -> Vec<&BTreeSet<Restriction>> {
            solution
                .iter()
                .filter(|(k2, _)| *k2 == c)
                .map(|(_, s)| s)
                .collect()
        };
        let sx = for_clause(0);
        assert_eq!(sx.len(), 2);
        assert!(sx.contains(&&pairs(&[(x, k), (x, n)])));
        assert!(sx.contains(&&pairs(&[(x, z), (x, n)])));
        let szk = for_clause(1);
        assert_eq!(szk.len(), 1);
        assert_eq!(szk[0], &pairs(&[(z, x), (k, x), (z, n), (k, n)]));
        let sn = for_clause(2);
        assert_eq!(sn.len(), 2);
        assert!(sn.contains(&&pairs(&[(n, x), (n, k)])));
        assert!(sn.contains(&&pairs(&[(n, x), (n, z)])));
    }

    #[test]
    fn case2_sub_stgs_add_prerequisites_and_restrictions() {
        // Small OR gate instance (the case-3 STG shape doubles as a
        // convenient builder): after relaxing x+ => y+, build sub-STGs for
        // clauses {x} and {y} and check the inserted arcs.
        use crate::local::{GateContext, LocalStg};
        use si_boolean::{parse_eqn, GateLibrary};
        use si_stg::{parse_astg, MgStg};

        let text = "\
.model case3
.inputs x y
.outputs o
.graph
x+ o+
x+ y+
o+ x-
y+ x-
x- y-
y- o-
o- x+
.marking { <o-,x+> }
.end
";
        let stg = parse_astg(text).expect("valid");
        let lib = GateLibrary::from_netlist(&parse_eqn("o = x + y;").expect("valid"));
        let ctx = GateContext::bind(lib.gate("o").expect("present"), &stg).expect("binds");
        let component = MgStg::from_stg_mg(&stg).expect("mg");
        let mut local = LocalStg::project_from(&component, &ctx).expect("projects");
        let x = local.mg.transition_by_label("x+").expect("present");
        let y = local.mg.transition_by_label("y+").expect("present");
        crate::relax::relax_arc(&mut local.mg, x, y).expect("relaxes");
        let t_out = local.mg.transition_by_label("o+").expect("present");

        let mut cands: BTreeMap<usize, BTreeSet<usize>> = BTreeMap::new();
        cands.insert(0, set(&[x]));
        cands.insert(1, set(&[y]));
        let init = initial_restrictions(&local, &set(&[x, y]));
        let solution = or_causality_decomposition(&cands, &init);
        assert_eq!(solution.len(), 2);

        let subs = build_sub_stgs_case2(&local, t_out, &solution, &cands);
        assert_eq!(subs.len(), 2);
        for (sub, (clause, _)) in subs.iter().zip(&solution) {
            // The winning clause's candidate precedes o+ (the inserted
            // prerequisite arc may be swept when the restriction chain
            // already implies it).
            let winner = if *clause == 0 { x } else { y };
            let loser = if *clause == 0 { y } else { x };
            assert!(sub.mg.precedes(winner, t_out), "clause {clause}");
            // The restriction arc pins winner before loser.
            assert!(
                sub.mg.arc(winner, loser).is_some_and(|a| a.restriction),
                "clause {clause}: missing restriction arc"
            );
            assert!(sub.mg.is_live(), "clause {clause}");
        }
    }

    #[test]
    fn token_rule_marks_cycle_closing_arcs() {
        use si_stg::{MgStg, SignalKind, TransitionLabel};
        let mut stg = si_stg::Stg::new("toks");
        let a = stg.add_signal("a", SignalKind::Input);
        let b = stg.add_signal("b", SignalKind::Input);
        let mut mg = MgStg::empty_like(&stg);
        let ap = mg.add_transition(TransitionLabel::first(a, si_stg::Polarity::Plus));
        let bp = mg.add_transition(TransitionLabel::first(b, si_stg::Polarity::Plus));
        mg.insert_arc(ap, bp, 0, false);
        // b+ => a+ would close a token-free cycle: the rule adds a token.
        insert_arc_with_token_rule(&mut mg, bp, ap, false);
        assert_eq!(mg.arc(bp, ap).expect("inserted").tokens, 1);
        // A parallel arc a+ => b+ does not close a zero cycle (the back
        // path now carries a token): no token.
        let mut mg2 = mg.clone();
        mg2.remove_arc(ap, bp);
        insert_arc_with_token_rule(&mut mg2, ap, bp, false);
        assert_eq!(mg2.arc(ap, bp).expect("inserted").tokens, 0);
    }

    #[test]
    fn precedes_in_is_transitive() {
        let init = pairs(&[(1, 2), (2, 3)]);
        assert!(precedes_in(&init, 1, 3));
        assert!(!precedes_in(&init, 3, 1));
    }
}
