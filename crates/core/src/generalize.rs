//! Tag generalization — Algorithm 1 (§3.2) with the three-valued extension
//! of §3.4 and optional atom-implication enrichment.
//!
//! `GeneralizeTag` propagates a tag's assignments upward in the predicate
//! tree wherever Boolean implication allows:
//!
//! * (a) the parent is a NOT node;
//! * (b) the assignment is *true* and the parent is an OR node;
//! * (c) the assignment is *false* and the parent is an AND node;
//! * (d) the parent is an OR node and all its children are assigned
//!   false-or-unknown (3VL: the parent gets the OR-fold, e.g.
//!   `false OR unknown → unknown`);
//! * (e) the parent is an AND node and all its children are assigned
//!   true-or-unknown (AND-fold).
//!
//! `topmostAssignments` then keeps only assignments with no assigned
//! ancestor on *some* root path — an assignment is dropped only when
//! **every** instance (= every upward path, since duplicates share a DAG
//! node) is covered, which is what lets tagged execution evaluate each
//! duplicated predicate exactly once.

use std::collections::BTreeMap;

use basilisk_expr::subsume::Closure;
use basilisk_expr::{ExprId, NodeKind, PredicateTree};
use basilisk_types::Truth;

use crate::tag::Tag;

/// Pure Algorithm 1: generalize a tag by Boolean propagation only.
pub fn generalize_tag(tree: &PredicateTree, tag: &Tag) -> Tag {
    let mut asg = tag.to_map();
    propagate(tree, &mut asg);
    topmost(tree, &asg)
}

/// Generalize with the atom-implication closure applied first (the
/// "smart planner" variant used by the §3.3 tag-map builders): implied
/// atom assignments (`year > 2000 = T ⇒ year > 1980 = T`) are added before
/// upward propagation, which both shrinks the tag space further and
/// exposes root assignments earlier.
///
/// Returns `None` when the closure finds the assignment set
/// unsatisfiable — the corresponding relational slice is provably empty
/// and the planner can discard it outright.
pub fn generalize_tag_closed(
    tree: &PredicateTree,
    closure: Option<&Closure>,
    tag: &Tag,
) -> Option<Tag> {
    let mut asg = tag.to_map();
    if let Some(c) = closure {
        if !c.close(&mut asg) {
            return None;
        }
    }
    propagate(tree, &mut asg);
    Some(topmost(tree, &asg))
}

/// The truth value of the *root* (the query's whole predicate expression)
/// determined by a tag, if any. `Some(True)` means every tuple in the
/// slice belongs to the final result; `Some(False)`/`Some(Unknown)` means
/// none does (Precept 1 + §3.4); `None` means undetermined — more filters
/// are needed.
pub fn root_truth(tree: &PredicateTree, closure: Option<&Closure>, tag: &Tag) -> Option<Truth> {
    let mut asg = tag.to_map();
    if let Some(c) = closure {
        if !c.close(&mut asg) {
            // Unsatisfiable slice: treat as "never in the result".
            return Some(Truth::False);
        }
    }
    propagate(tree, &mut asg);
    asg.get(&tree.root()).copied()
}

/// Fringe-based upward propagation (the core loop of Algorithm 1).
fn propagate(tree: &PredicateTree, asg: &mut BTreeMap<ExprId, Truth>) {
    let mut fringe: Vec<ExprId> = asg.keys().copied().collect();
    while let Some(pred) = fringe.pop() {
        let value = asg[&pred];
        for &parent in tree.parents(pred) {
            if asg.contains_key(&parent) {
                continue;
            }
            let propagated = match tree.kind(parent) {
                // (a) NOT always propagates, negating.
                NodeKind::Not(_) => Some(value.not()),
                NodeKind::Or(children) => {
                    if value == Truth::True {
                        // (b) true short-circuits OR.
                        Some(Truth::True)
                    } else if children
                        .iter()
                        .all(|c| matches!(asg.get(c), Some(Truth::False) | Some(Truth::Unknown)))
                    {
                        // (d) all children false/unknown: 3VL OR-fold.
                        Some(Truth::any(children.iter().map(|c| asg[c])))
                    } else {
                        None
                    }
                }
                NodeKind::And(children) => {
                    if value == Truth::False {
                        // (c) false short-circuits AND.
                        Some(Truth::False)
                    } else if children
                        .iter()
                        .all(|c| matches!(asg.get(c), Some(Truth::True) | Some(Truth::Unknown)))
                    {
                        // (e) all children true/unknown: 3VL AND-fold.
                        Some(Truth::all(children.iter().map(|c| asg[c])))
                    } else {
                        None
                    }
                }
                NodeKind::Atom(_) => unreachable!("atoms have no children"),
            };
            if let Some(v) = propagated {
                asg.insert(parent, v);
                fringe.push(parent);
            }
        }
    }
}

/// Collect only the topmost assignments: walk down from the root, stopping
/// at the first assigned node on each path.
fn topmost(tree: &PredicateTree, asg: &BTreeMap<ExprId, Truth>) -> Tag {
    if asg.is_empty() {
        return Tag::empty();
    }
    let mut out: BTreeMap<ExprId, Truth> = BTreeMap::new();
    let mut visited = vec![false; tree.len()];
    collect_topmost(tree, tree.root(), asg, &mut out, &mut visited);
    Tag::from_map(&out)
}

fn collect_topmost(
    tree: &PredicateTree,
    node: ExprId,
    asg: &BTreeMap<ExprId, Truth>,
    out: &mut BTreeMap<ExprId, Truth>,
    visited: &mut [bool],
) {
    if let Some(&v) = asg.get(&node) {
        out.insert(node, v);
        return;
    }
    if visited[node.index()] {
        return;
    }
    visited[node.index()] = true;
    for &c in tree.children(node) {
        collect_topmost(tree, c, asg, out, visited);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use basilisk_expr::{and, col, not, or, Expr};

    /// Query 1's predicate tree:
    /// (P1: year>2000 ∧ P4: score>'7.0') ∨ (P2: year>1980 ∧ P3: score>'8.0')
    fn query1() -> (PredicateTree, [ExprId; 4], [ExprId; 2]) {
        let e = or(vec![
            and(vec![
                col("t", "year").gt(2000i64),
                col("mi_idx", "score").gt("7.0"),
            ]),
            and(vec![
                col("t", "year").gt(1980i64),
                col("mi_idx", "score").gt("8.0"),
            ]),
        ]);
        let tree = PredicateTree::build(&e);
        let find = |text: &str| {
            tree.atom_ids()
                .into_iter()
                .find(|&id| tree.display(id) == text)
                .unwrap()
        };
        let p1 = find("t.year > 2000");
        let p2 = find("t.year > 1980");
        let p3 = find("mi_idx.score > '8.0'");
        let p4 = find("mi_idx.score > '7.0'");
        // a1 = P1 ∧ P4, a2 = P2 ∧ P3
        let a1 = *tree.parents(p1).iter().find(|&&p| tree.is_and(p)).unwrap();
        let a2 = *tree.parents(p2).iter().find(|&&p| tree.is_and(p)).unwrap();
        (tree, [p1, p2, p3, p4], [a1, a2])
    }

    /// The paper's Figure 2 walkthrough: {P1=F, P2=T, P3=T} → {root = T}.
    #[test]
    fn figure2_walkthrough() {
        let (tree, [p1, p2, p3, _p4], _) = query1();
        let tag = Tag::from_pairs([(p1, Truth::False), (p2, Truth::True), (p3, Truth::True)]);
        let g = generalize_tag(&tree, &tag);
        assert_eq!(g, Tag::from_pairs([(tree.root(), Truth::True)]));
    }

    /// §3.3's example: {P1=F} generalizes to {P1∧P4 = F} (the false
    /// assignment climbs to the AND but no further).
    #[test]
    fn false_climbs_to_and_only() {
        let (tree, [p1, ..], [a1, _a2]) = query1();
        let tag = Tag::from_pairs([(p1, Truth::False)]);
        let g = generalize_tag(&tree, &tag);
        assert_eq!(g, Tag::from_pairs([(a1, Truth::False)]));
    }

    /// §3.3: {A1=F, P2=F} generalizes to root=F (movies before 1980 are
    /// out entirely) — Precept 1's discard signal.
    #[test]
    fn both_clauses_false_gives_root_false() {
        let (tree, [_, p2, ..], [a1, _]) = query1();
        let tag = Tag::from_pairs([(a1, Truth::False), (p2, Truth::False)]);
        let g = generalize_tag(&tree, &tag);
        assert_eq!(g, Tag::from_pairs([(tree.root(), Truth::False)]));
    }

    /// A true assignment alone cannot climb through an AND.
    #[test]
    fn true_does_not_climb_and_alone() {
        let (tree, [p1, ..], _) = query1();
        let tag = Tag::from_pairs([(p1, Truth::True)]);
        let g = generalize_tag(&tree, &tag);
        assert_eq!(g, tag, "no propagation possible");
    }

    #[test]
    fn empty_tag_stays_empty() {
        let (tree, ..) = query1();
        assert_eq!(generalize_tag(&tree, &Tag::empty()), Tag::empty());
    }

    /// Idempotence: generalizing twice changes nothing.
    #[test]
    fn idempotent() {
        let (tree, [p1, p2, p3, p4], _) = query1();
        for tag in [
            Tag::from_pairs([(p1, Truth::False)]),
            Tag::from_pairs([(p1, Truth::True), (p4, Truth::True)]),
            Tag::from_pairs([(p2, Truth::False), (p3, Truth::Unknown)]),
        ] {
            let g1 = generalize_tag(&tree, &tag);
            let g2 = generalize_tag(&tree, &g1);
            assert_eq!(g1, g2);
        }
    }

    /// 3VL propagation (§3.4): false OR unknown → unknown at the root.
    #[test]
    fn three_valued_or_fold() {
        let (tree, [p1, p2, _p3, p4], [a1, a2]) = query1();
        // A1 = F via P1=F; A2 unknown via P2=U (year NULL) and P3... —
        // drive A2 to U directly: P2=U, P3 must also be assigned for the
        // fold; use P2=U, P3=T: U AND T = U.
        let p3 = {
            // find P3 again from the tuple
            let _ = p4;
            tree.atom_ids()
                .into_iter()
                .find(|&id| tree.display(id) == "mi_idx.score > '8.0'")
                .unwrap()
        };
        let tag = Tag::from_pairs([(p1, Truth::False), (p2, Truth::Unknown), (p3, Truth::True)]);
        let g = generalize_tag(&tree, &tag);
        // A1=F (c); A2 = U∧T = U (e); root = F∨U = U (d).
        assert_eq!(g, Tag::from_pairs([(tree.root(), Truth::Unknown)]));
        let _ = (a1, a2);
    }

    /// NOT propagation (condition (a)) with negation of the value.
    #[test]
    fn not_propagation() {
        let e = and(vec![not(col("t", "x").is_null()), col("t", "y").gt(1i64)]);
        let tree = PredicateTree::build(&e);
        let isnull = tree
            .atom_ids()
            .into_iter()
            .find(|&id| tree.display(id) == "t.x IS NULL")
            .unwrap();
        let tag = Tag::from_pairs([(isnull, Truth::True)]);
        let g = generalize_tag(&tree, &tag);
        // IS NULL = T → NOT(...) = F → AND = F = root.
        assert_eq!(g, Tag::from_pairs([(tree.root(), Truth::False)]));
        // Unknown through NOT stays unknown (can't conclude root).
        let tag = Tag::from_pairs([(isnull, Truth::Unknown)]);
        let g = generalize_tag(&tree, &tag);
        let not_node = tree.parents(isnull)[0];
        assert_eq!(g, Tag::from_pairs([(not_node, Truth::Unknown)]));
    }

    /// Duplicate subexpressions: A appears in both clauses of
    /// (A∧B) ∨ (A∧C). A=F kills both clauses at once.
    #[test]
    fn duplicate_atom_false_kills_both_clauses() {
        let a = || col("t", "a").gt(1i64);
        let e = or(vec![
            and(vec![a(), col("t", "b").gt(2i64)]),
            and(vec![a(), col("t", "c").gt(3i64)]),
        ]);
        let tree = PredicateTree::build(&e);
        let a_id = tree
            .atom_ids()
            .into_iter()
            .find(|&id| tree.display(id) == "t.a > 1")
            .unwrap();
        let g = generalize_tag(&tree, &Tag::from_pairs([(a_id, Truth::False)]));
        assert_eq!(g, Tag::from_pairs([(tree.root(), Truth::False)]));
        // A=T propagates into neither clause; topmost keeps A itself
        // because at least one instance is uncovered.
        let g = generalize_tag(&tree, &Tag::from_pairs([(a_id, Truth::True)]));
        assert_eq!(g, Tag::from_pairs([(a_id, Truth::True)]));
    }

    /// Duplicate instance partially covered: assignment survives topmost
    /// because one path to the root is uncovered.
    #[test]
    fn partial_coverage_keeps_assignment() {
        let a = || col("t", "a").gt(1i64);
        let b = col("t", "b").gt(2i64);
        let c = col("t", "c").gt(3i64);
        let e = or(vec![and(vec![a(), b]), and(vec![a(), c])]);
        let tree = PredicateTree::build(&e);
        let find = |s: &str| {
            tree.atom_ids()
                .into_iter()
                .find(|&id| tree.display(id) == s)
                .unwrap()
        };
        let a_id = find("t.a > 1");
        let b_id = find("t.b > 2");
        // A=T, B=T → clause1 = T → root = T; everything collapses.
        let g = generalize_tag(
            &tree,
            &Tag::from_pairs([(a_id, Truth::True), (b_id, Truth::True)]),
        );
        assert_eq!(g, Tag::from_pairs([(tree.root(), Truth::True)]));
        // A=T, B=F → clause1 = F; A=T still visible through clause2's path.
        let g = generalize_tag(
            &tree,
            &Tag::from_pairs([(a_id, Truth::True), (b_id, Truth::False)]),
        );
        let and1 = tree
            .parents(b_id)
            .iter()
            .copied()
            .find(|&p| tree.is_and(p))
            .unwrap();
        assert_eq!(
            g,
            Tag::from_pairs([(and1, Truth::False), (a_id, Truth::True)])
        );
    }

    /// Closure-enriched generalization reproduces the paper's §2 example:
    /// with subsumption, {year>2000 = T, score>'8.0' = T} determines the
    /// root even though plain propagation cannot.
    #[test]
    fn closure_enrichment_determines_root() {
        let (tree, [p1, _p2, p3, _p4], _) = query1();
        let closure = Closure::new(&tree);
        let tag = Tag::from_pairs([(p1, Truth::True), (p3, Truth::True)]);
        // Plain Algorithm 1: stuck (each AND is missing a child).
        let plain = generalize_tag(&tree, &tag);
        assert_eq!(plain, tag);
        // With closure: P1=T ⇒ P2=T, P3=T ⇒ P4=T ⇒ both clauses true.
        let closed = generalize_tag_closed(&tree, Some(&closure), &tag).unwrap();
        assert_eq!(closed, Tag::from_pairs([(tree.root(), Truth::True)]));
        assert_eq!(root_truth(&tree, Some(&closure), &tag), Some(Truth::True));
        assert_eq!(root_truth(&tree, None, &tag), None);
    }

    /// Contradictory tags are flagged.
    #[test]
    fn contradiction_returns_none() {
        let e: Expr = or(vec![col("t", "x").lt(5i64), col("t", "x").gt(9i64)]);
        let tree = PredicateTree::build(&e);
        let find = |s: &str| {
            tree.atom_ids()
                .into_iter()
                .find(|&id| tree.display(id) == s)
                .unwrap()
        };
        let closure = Closure::new(&tree);
        let tag = Tag::from_pairs([
            (find("t.x < 5"), Truth::True),
            (find("t.x > 9"), Truth::True),
        ]);
        assert_eq!(generalize_tag_closed(&tree, Some(&closure), &tag), None);
        assert_eq!(
            root_truth(&tree, Some(&closure), &tag),
            Some(Truth::False),
            "unsatisfiable slice can never reach the output"
        );
    }

    /// root_truth on an already-rooted tag.
    #[test]
    fn root_truth_direct() {
        let (tree, ..) = query1();
        let t = Tag::from_pairs([(tree.root(), Truth::True)]);
        assert_eq!(root_truth(&tree, None, &t), Some(Truth::True));
        let t = Tag::from_pairs([(tree.root(), Truth::False)]);
        assert_eq!(root_truth(&tree, None, &t), Some(Truth::False));
        assert_eq!(root_truth(&tree, None, &Tag::empty()), None);
    }
}
