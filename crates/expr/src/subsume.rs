//! Implication closure between atoms on the same column.
//!
//! The paper's planner "was intelligent enough to realize that titles
//! produced after 2000 are also produced after 1980" (§2.2) — i.e. it
//! reasons about subsumption between comparison predicates so that the
//! filter for `t.year > 1980` is never run on the `{t.year > 2000 = T}`
//! slice, and so that join tag maps recognize which slice pairings satisfy
//! the overall predicate. This module implements that reasoning as a
//! fixpoint closure over a set of truth assignments:
//!
//! * range subsumption between comparisons (`x < 5 ⇒ x < 10`,
//!   `x > 2000 = T ⇒ x > 1980 = T`, `x > 1980 = F ⇒ x > 2000 = F`),
//! * point/list reasoning for `=`, `<>` and `IN`,
//! * NULL interplay: any definite comparison result implies `IS NULL = F`;
//!   `IS NULL = T` forces every other predicate on the column to Unknown.
//!
//! Three-valued semantics of an assignment (§3.4): `P = T` means the row's
//! value is non-null and satisfies `P`; `P = F` means non-null and fails
//! `P`; `P = U` means the evaluation was unknown (a NULL was involved).

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

use basilisk_types::{Truth, Value};

use crate::atom::{Atom, CmpOp};
use crate::tree::{ExprId, PredicateTree};

/// Precomputed closure engine for one predicate tree.
///
/// [`implied_truth`] compares column names and builds constraint sets
/// from literal values; the closure is asked for thousands of times per
/// planning call, so every answer is derived once here.
pub struct Closure {
    /// The tree's atoms in id order.
    atoms: Vec<ExprId>,
    /// `implies[3 * i + t]`: what atom `atoms[i]` having truth `TRUTHS[t]`
    /// implies — every other atom it determines, with its truth, in atom-id
    /// order.
    implies: Vec<Vec<(ExprId, Truth)>>,
}

/// Row order of [`Closure::implies`].
const TRUTHS: [Truth; 3] = [Truth::True, Truth::False, Truth::Unknown];

impl Closure {
    pub fn new(tree: &PredicateTree) -> Self {
        let atoms = tree.atom_ids();
        let mut implies = Vec::with_capacity(3 * atoms.len());
        for &src in &atoms {
            let src_atom = tree.atom(src).expect("atom id");
            for truth in TRUTHS {
                let row = atoms
                    .iter()
                    .filter(|&&dst| dst != src)
                    .filter_map(|&dst| {
                        let dst_atom = tree.atom(dst).expect("atom id");
                        implied_truth(src_atom, truth, dst_atom).map(|t| (dst, t))
                    })
                    .collect();
                implies.push(row);
            }
        }
        Closure { atoms, implies }
    }

    /// What `src = truth` implies, if `src` is an atom.
    fn implications(&self, src: ExprId, truth: Truth) -> &[(ExprId, Truth)] {
        match self.atoms.binary_search(&src) {
            Ok(i) => &self.implies[3 * i + truth_row(truth)],
            Err(_) => &[],
        }
    }

    /// Extend `assignments` with every implied atom assignment, to
    /// fixpoint. Returns `false` if a contradiction was found (the
    /// constrained set is empty — e.g. `x < 5 = T` together with
    /// `x > 9 = T`), in which case `assignments` may be partially extended.
    pub fn close(&self, assignments: &mut BTreeMap<ExprId, Truth>) -> bool {
        loop {
            let mut changed = false;
            for &src in &self.atoms {
                let Some(&truth) = assignments.get(&src) else {
                    continue;
                };
                for &(dst, implied) in self.implications(src, truth) {
                    if let Entry::Vacant(slot) = assignments.entry(dst) {
                        slot.insert(implied);
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        // Consistency check: no pair of assignments may contradict. Each
        // pair is checked one way, from the lower id to the higher.
        assignments.iter().all(|(&a, &ta)| {
            self.implications(a, ta)
                .iter()
                .filter(|&&(b, _)| b > a)
                .all(|(b, t)| assignments.get(b).is_none_or(|tb| tb == t))
        })
    }

    /// Would the closure of `assignments` determine `atom`? (Does not
    /// mutate the input.)
    pub fn implied(&self, assignments: &BTreeMap<ExprId, Truth>, atom: ExprId) -> Option<Truth> {
        if let Some(&t) = assignments.get(&atom) {
            return Some(t);
        }
        let mut work = assignments.clone();
        self.close(&mut work);
        work.get(&atom).copied()
    }
}

fn truth_row(truth: Truth) -> usize {
    match truth {
        Truth::True => 0,
        Truth::False => 1,
        Truth::Unknown => 2,
    }
}

/// What does `(src = truth)` imply about `dst` (a different atom)?
/// `None` means no implication.
pub fn implied_truth(src: &Atom, truth: Truth, dst: &Atom) -> Option<Truth> {
    if src.column() != dst.column() {
        return None;
    }

    // NULL interplay first.
    match (src, truth) {
        (Atom::IsNull { .. }, Truth::True) => {
            // Value is NULL: every other predicate on this column is U.
            return match dst {
                Atom::IsNull { .. } => None, // same atom would have same id
                _ => Some(Truth::Unknown),
            };
        }
        (Atom::IsNull { .. }, Truth::False) => {
            // Non-null, but no range information.
            return None;
        }
        (_, Truth::Unknown) => {
            // The source predicate was unknown. For single-column atoms
            // with non-null literals this means the column value is NULL.
            if atom_unknown_means_null(src) {
                return match dst {
                    Atom::IsNull { .. } => Some(Truth::True),
                    _ if atom_unknown_means_null(dst) => Some(Truth::Unknown),
                    _ => None,
                };
            }
            return None;
        }
        _ => {}
    }

    // src has a definite (T/F) result ⇒ the value is non-null.
    if let Atom::IsNull { .. } = dst {
        return Some(Truth::False);
    }

    // Range / point / list reasoning over the non-null value.
    let src_set = ConstraintSet::from_atom(src, truth == Truth::True)?;
    let dst_true = ConstraintSet::from_atom(dst, true)?;
    if src_set.subset_of(&dst_true) {
        return Some(Truth::True);
    }
    let dst_false = ConstraintSet::from_atom(dst, false)?;
    if src_set.subset_of(&dst_false) {
        return Some(Truth::False);
    }
    None
}

/// Everything a plan can depend on in a tree's literal *values*: the
/// [`Closure`] table — every `(src, truth) ⇒ (dst, implied)` between
/// distinct atoms, in atom-id order. Tag maps bake the closure in
/// at plan time, so a cached plan may only be re-driven over a rebound
/// tree ([congruent modulo values](PredicateTree::congruent_modulo_values),
/// hence the same atoms under the same ids) whose signature is equal —
/// rebinding `year > 2011 OR year > 1986` to literals that order the
/// other way flips which atom implies which.
pub fn implication_signature(tree: &PredicateTree) -> Vec<(ExprId, Truth, ExprId, Truth)> {
    let closure = Closure::new(tree);
    let mut out = Vec::new();
    for &src in &closure.atoms {
        for truth in TRUTHS {
            let implied = closure.implications(src, truth);
            out.extend(implied.iter().map(|&(dst, t)| (src, truth, dst, t)));
        }
    }
    out
}

/// Does an Unknown result for this atom imply the column value is NULL?
/// True for atoms whose literals are non-null (the only other source of
/// U would be a NULL column value).
fn atom_unknown_means_null(atom: &Atom) -> bool {
    match atom {
        Atom::Cmp { value, .. } => !value.is_null(),
        Atom::Like { .. } => true,
        Atom::IsNull { .. } => false, // IS NULL is never unknown
        Atom::InList { values, .. } => values.iter().all(|v| !v.is_null()),
    }
}

/// The set of non-null values satisfying an atom (or its negation).
enum ConstraintSet {
    /// `{x : x OP v}` for an order comparison.
    Range(CmpOp, Value),
    /// A finite set of values.
    Points(Vec<Value>),
    /// Complement of a finite set (over non-null values).
    NotPoints(Vec<Value>),
}

impl ConstraintSet {
    fn from_atom(atom: &Atom, positive: bool) -> Option<ConstraintSet> {
        match atom {
            Atom::Cmp { op, value, .. } => {
                if value.is_null() {
                    return None;
                }
                let op = if positive { *op } else { op.negate() };
                Some(match op {
                    CmpOp::Eq => ConstraintSet::Points(vec![value.clone()]),
                    CmpOp::Ne => ConstraintSet::NotPoints(vec![value.clone()]),
                    other => ConstraintSet::Range(other, value.clone()),
                })
            }
            Atom::InList { values, .. } => {
                if values.iter().any(Value::is_null) {
                    return None;
                }
                Some(if positive {
                    ConstraintSet::Points(values.clone())
                } else {
                    ConstraintSet::NotPoints(values.clone())
                })
            }
            // LIKE and IS NULL carry no ordered-set structure.
            Atom::Like { .. } | Atom::IsNull { .. } => None,
        }
    }

    /// Conservative subset test: `true` only when provably a subset.
    fn subset_of(&self, other: &ConstraintSet) -> bool {
        match (self, other) {
            (ConstraintSet::Range(op1, v1), ConstraintSet::Range(op2, v2)) => {
                range_implies(*op1, v1, *op2, v2)
            }
            (ConstraintSet::Points(ps), ConstraintSet::Range(op, v)) => {
                ps.iter().all(|p| point_satisfies(p, *op, v) == Some(true))
            }
            (ConstraintSet::Points(ps), ConstraintSet::Points(qs)) => ps
                .iter()
                .all(|p| qs.iter().any(|q| p.sql_eq(q) == Some(true))),
            (ConstraintSet::Points(ps), ConstraintSet::NotPoints(qs)) => ps
                .iter()
                .all(|p| qs.iter().all(|q| p.sql_eq(q) == Some(false))),
            (ConstraintSet::Range(op, v), ConstraintSet::NotPoints(qs)) => {
                qs.iter().all(|q| point_satisfies(q, *op, v) == Some(false))
            }
            // Complements of finite sets are unbounded; they are never
            // provably inside a range or a finite set.
            (ConstraintSet::NotPoints(_), _) => false,
            (ConstraintSet::Range(..), ConstraintSet::Points(_)) => false,
        }
    }
}

/// Is `{x : x op1 v1} ⊆ {x : x op2 v2}`? Conservative (false on
/// incomparable values).
fn range_implies(op1: CmpOp, v1: &Value, op2: CmpOp, v2: &Value) -> bool {
    use std::cmp::Ordering::*;
    let Some(ord) = v1.sql_cmp(v2) else {
        return false;
    };
    match (op1, op2) {
        (CmpOp::Lt, CmpOp::Lt) => ord != Greater, // v1 <= v2
        (CmpOp::Lt, CmpOp::Le) => ord != Greater,
        (CmpOp::Le, CmpOp::Le) => ord != Greater,
        (CmpOp::Le, CmpOp::Lt) => ord == Less, // v1 < v2
        (CmpOp::Gt, CmpOp::Gt) => ord != Less, // v1 >= v2
        (CmpOp::Gt, CmpOp::Ge) => ord != Less,
        (CmpOp::Ge, CmpOp::Ge) => ord != Less,
        (CmpOp::Ge, CmpOp::Gt) => ord == Greater, // v1 > v2
        _ => false,
    }
}

/// Does the point `p` satisfy `p op v`? (`None` when incomparable.)
fn point_satisfies(p: &Value, op: CmpOp, v: &Value) -> Option<bool> {
    use std::cmp::Ordering::*;
    let ord = p.sql_cmp(v)?;
    Some(match op {
        CmpOp::Eq => ord == Equal,
        CmpOp::Ne => ord != Equal,
        CmpOp::Lt => ord == Less,
        CmpOp::Le => ord != Greater,
        CmpOp::Gt => ord == Greater,
        CmpOp::Ge => ord != Less,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{and, col, or, Expr};

    fn tree_of(e: &Expr) -> PredicateTree {
        PredicateTree::build(e)
    }

    fn atom_id(tree: &PredicateTree, text: &str) -> ExprId {
        tree.atom_ids()
            .into_iter()
            .find(|&id| tree.atom(id).unwrap().to_string() == text)
            .unwrap_or_else(|| panic!("no atom {text}"))
    }

    /// The pairwise closure the table replaced: [`implied_truth`] asked
    /// afresh for every pair on every pass.
    fn close_pairwise(tree: &PredicateTree, asg: &mut BTreeMap<ExprId, Truth>) -> bool {
        let atoms = tree.atom_ids();
        loop {
            let mut changed = false;
            for &src in &atoms {
                let Some(&truth) = asg.get(&src) else {
                    continue;
                };
                for &dst in &atoms {
                    if dst == src || asg.contains_key(&dst) {
                        continue;
                    }
                    let implied =
                        implied_truth(tree.atom(src).unwrap(), truth, tree.atom(dst).unwrap());
                    if let Some(implied) = implied {
                        asg.insert(dst, implied);
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        for (i, (&a, &ta)) in asg.iter().enumerate() {
            for (&b, &tb) in asg.iter().skip(i + 1) {
                if implied_truth(tree.atom(a).unwrap(), ta, tree.atom(b).unwrap())
                    .is_some_and(|t| t != tb)
                {
                    return false;
                }
            }
        }
        true
    }

    /// The table-driven closure extends every assignment of one or two
    /// atoms exactly as the pairwise one does, contradictions included.
    #[test]
    fn table_closure_matches_pairwise_closure() {
        let e = or(vec![
            col("t", "x").lt(5i64),
            col("t", "x").le(5i64),
            col("t", "x").gt(9i64),
            col("t", "x").eq(7i64),
            col("t", "x").ne(7i64),
            col("t", "x").in_list(vec![Value::Int(1), Value::Int(7)]),
            col("t", "x").is_null(),
            col("t", "s").like("%a%"),
            col("t", "s").is_null(),
            col("u", "x").gt(3i64),
        ]);
        let tree = tree_of(&e);
        let closure = Closure::new(&tree);
        let atoms = tree.atom_ids();
        let mut starts = vec![BTreeMap::new()];
        for &a in &atoms {
            for ta in TRUTHS {
                starts.push(BTreeMap::from([(a, ta)]));
                for &b in atoms.iter().filter(|&&b| b > a) {
                    for tb in TRUTHS {
                        starts.push(BTreeMap::from([(a, ta), (b, tb)]));
                    }
                }
            }
        }
        let mut contradictions = 0;
        for start in starts {
            let (mut table, mut pairwise) = (start.clone(), start.clone());
            let ok = closure.close(&mut table);
            assert_eq!(ok, close_pairwise(&tree, &mut pairwise), "{start:?}");
            assert_eq!(table, pairwise, "{start:?}");
            contradictions += usize::from(!ok);
        }
        assert!(contradictions > 0);
    }

    /// Literal shifts that keep the atoms' order keep the signature; a
    /// binding that orders them the other way does not.
    #[test]
    fn implication_signature_tracks_literal_order() {
        let years = |a: i64, b: i64| {
            let e = or(vec![col("t", "year").gt(a), col("t", "year").gt(b)]);
            implication_signature(&tree_of(&e))
        };
        assert_eq!(years(2000, 1980), years(2011, 1986));
        assert_ne!(years(2000, 1980), years(1980, 2000));
        let other_columns = or(vec![col("t", "year").gt(1i64), col("s", "year").gt(2i64)]);
        assert!(implication_signature(&tree_of(&other_columns)).is_empty());
    }

    /// The paper's example: year > 2000 = T ⇒ year > 1980 = T.
    #[test]
    fn gt_subsumption_like_the_paper() {
        let e = or(vec![
            col("t", "year").gt(2000i64),
            col("t", "year").gt(1980i64),
        ]);
        let tree = tree_of(&e);
        let a2000 = atom_id(&tree, "t.year > 2000");
        let a1980 = atom_id(&tree, "t.year > 1980");
        let closure = Closure::new(&tree);

        let mut asg = BTreeMap::from([(a2000, Truth::True)]);
        assert!(closure.close(&mut asg));
        assert_eq!(asg.get(&a1980), Some(&Truth::True));

        // And the contrapositive: year > 1980 = F ⇒ year > 2000 = F.
        let mut asg = BTreeMap::from([(a1980, Truth::False)]);
        assert!(closure.close(&mut asg));
        assert_eq!(asg.get(&a2000), Some(&Truth::False));

        // But year > 2000 = F says nothing about year > 1980.
        let mut asg = BTreeMap::from([(a2000, Truth::False)]);
        assert!(closure.close(&mut asg));
        assert_eq!(asg.get(&a1980), None);
    }

    #[test]
    fn string_scores_subsume() {
        let e = or(vec![
            col("mi", "score").gt("8.0"),
            col("mi", "score").gt("7.0"),
        ]);
        let tree = tree_of(&e);
        let a8 = atom_id(&tree, "mi.score > '8.0'");
        let a7 = atom_id(&tree, "mi.score > '7.0'");
        let closure = Closure::new(&tree);
        let mut asg = BTreeMap::from([(a8, Truth::True)]);
        assert!(closure.close(&mut asg));
        assert_eq!(asg.get(&a7), Some(&Truth::True));
    }

    #[test]
    fn disjoint_ranges_imply_false() {
        let e = or(vec![col("t", "x").lt(5i64), col("t", "x").gt(9i64)]);
        let tree = tree_of(&e);
        let lt5 = atom_id(&tree, "t.x < 5");
        let gt9 = atom_id(&tree, "t.x > 9");
        let closure = Closure::new(&tree);
        let mut asg = BTreeMap::from([(lt5, Truth::True)]);
        assert!(closure.close(&mut asg));
        assert_eq!(asg.get(&gt9), Some(&Truth::False));
    }

    #[test]
    fn eq_point_implies_ranges() {
        let e = or(vec![
            col("t", "x").eq(7i64),
            col("t", "x").gt(5i64),
            col("t", "x").lt(6i64),
            col("t", "x").ne(7i64),
        ]);
        let tree = tree_of(&e);
        let closure = Closure::new(&tree);
        let mut asg = BTreeMap::from([(atom_id(&tree, "t.x = 7"), Truth::True)]);
        assert!(closure.close(&mut asg));
        assert_eq!(asg.get(&atom_id(&tree, "t.x > 5")), Some(&Truth::True));
        assert_eq!(asg.get(&atom_id(&tree, "t.x < 6")), Some(&Truth::False));
        assert_eq!(asg.get(&atom_id(&tree, "t.x <> 7")), Some(&Truth::False));
    }

    #[test]
    fn in_list_reasoning() {
        let e = or(vec![
            col("t", "x").in_list(vec![Value::Int(1), Value::Int(2)]),
            col("t", "x").lt(5i64),
            col("t", "x").in_list(vec![Value::Int(1), Value::Int(2), Value::Int(3)]),
        ]);
        let tree = tree_of(&e);
        let small = atom_id(&tree, "t.x IN (1, 2)");
        let big = atom_id(&tree, "t.x IN (1, 2, 3)");
        let lt5 = atom_id(&tree, "t.x < 5");
        let closure = Closure::new(&tree);
        let mut asg = BTreeMap::from([(small, Truth::True)]);
        assert!(closure.close(&mut asg));
        assert_eq!(asg.get(&lt5), Some(&Truth::True));
        assert_eq!(asg.get(&big), Some(&Truth::True));
        // Range excludes the whole list ⇒ IN = F.
        let mut asg = BTreeMap::from([(lt5, Truth::False)]);
        assert!(closure.close(&mut asg));
        assert_eq!(asg.get(&small), Some(&Truth::False));
        assert_eq!(
            asg.get(&big),
            Some(&Truth::False),
            "x >= 5 excludes all of 1,2,3"
        );
    }

    #[test]
    fn null_interplay() {
        let e = or(vec![
            col("t", "x").is_null(),
            col("t", "x").gt(5i64),
            col("t", "x").lt(3i64),
        ]);
        let tree = tree_of(&e);
        let isnull = atom_id(&tree, "t.x IS NULL");
        let gt5 = atom_id(&tree, "t.x > 5");
        let lt3 = atom_id(&tree, "t.x < 3");
        let closure = Closure::new(&tree);

        // IS NULL = T forces comparisons to U.
        let mut asg = BTreeMap::from([(isnull, Truth::True)]);
        assert!(closure.close(&mut asg));
        assert_eq!(asg.get(&gt5), Some(&Truth::Unknown));
        assert_eq!(asg.get(&lt3), Some(&Truth::Unknown));

        // A definite comparison result implies non-null.
        let mut asg = BTreeMap::from([(gt5, Truth::False)]);
        assert!(closure.close(&mut asg));
        assert_eq!(asg.get(&isnull), Some(&Truth::False));

        // An unknown comparison implies NULL, which cascades.
        let mut asg = BTreeMap::from([(gt5, Truth::Unknown)]);
        assert!(closure.close(&mut asg));
        assert_eq!(asg.get(&isnull), Some(&Truth::True));
        assert_eq!(asg.get(&lt3), Some(&Truth::Unknown));
    }

    #[test]
    fn contradiction_detected() {
        let e = or(vec![col("t", "x").lt(5i64), col("t", "x").gt(9i64)]);
        let tree = tree_of(&e);
        let lt5 = atom_id(&tree, "t.x < 5");
        let gt9 = atom_id(&tree, "t.x > 9");
        let closure = Closure::new(&tree);
        let mut asg = BTreeMap::from([(lt5, Truth::True), (gt9, Truth::True)]);
        assert!(!closure.close(&mut asg), "x<5 ∧ x>9 is unsatisfiable");
    }

    #[test]
    fn different_columns_do_not_interact() {
        let e = or(vec![col("t", "x").gt(5i64), col("t", "y").gt(1i64)]);
        let tree = tree_of(&e);
        let x = atom_id(&tree, "t.x > 5");
        let y = atom_id(&tree, "t.y > 1");
        let closure = Closure::new(&tree);
        let mut asg = BTreeMap::from([(x, Truth::True)]);
        assert!(closure.close(&mut asg));
        assert_eq!(asg.get(&y), None);
    }

    #[test]
    fn same_column_different_alias_does_not_interact() {
        // t1.x and t2.x are different columns even if named alike.
        let e = or(vec![col("t1", "x").gt(5i64), col("t2", "x").gt(1i64)]);
        let tree = tree_of(&e);
        let closure = Closure::new(&tree);
        let mut asg = BTreeMap::from([(atom_id(&tree, "t1.x > 5"), Truth::True)]);
        assert!(closure.close(&mut asg));
        assert_eq!(asg.len(), 1);
    }

    #[test]
    fn implied_probe_does_not_mutate() {
        let e = and(vec![col("t", "x").gt(5i64), col("t", "x").gt(3i64)]);
        let tree = tree_of(&e);
        let gt5 = atom_id(&tree, "t.x > 5");
        let gt3 = atom_id(&tree, "t.x > 3");
        let closure = Closure::new(&tree);
        let asg = BTreeMap::from([(gt5, Truth::True)]);
        assert_eq!(closure.implied(&asg, gt3), Some(Truth::True));
        assert_eq!(asg.len(), 1);
        assert_eq!(closure.implied(&asg, gt5), Some(Truth::True));
    }

    #[test]
    fn like_atoms_only_null_reasoning() {
        let e = or(vec![
            col("t", "s").like("%a%"),
            col("t", "s").like("%ab%"),
            col("t", "s").is_null(),
        ]);
        let tree = tree_of(&e);
        let a = atom_id(&tree, "t.s LIKE '%a%'");
        let ab = atom_id(&tree, "t.s LIKE '%ab%'");
        let closure = Closure::new(&tree);
        // No pattern subsumption (conservative)...
        let mut asg = BTreeMap::from([(ab, Truth::True)]);
        assert!(closure.close(&mut asg));
        assert_eq!(asg.get(&a), None);
        // ...but NULL reasoning applies.
        assert_eq!(asg.get(&atom_id(&tree, "t.s IS NULL")), Some(&Truth::False));
    }

    #[test]
    fn le_ge_boundaries() {
        let e = or(vec![
            col("t", "x").le(5i64),
            col("t", "x").lt(5i64),
            col("t", "x").ge(5i64),
            col("t", "x").gt(5i64),
            col("t", "x").le(6i64),
        ]);
        let tree = tree_of(&e);
        let closure = Closure::new(&tree);
        // x < 5 = T ⇒ x <= 5 = T, x <= 6 = T, x >= 5 = F, x > 5 = F.
        let mut asg = BTreeMap::from([(atom_id(&tree, "t.x < 5"), Truth::True)]);
        assert!(closure.close(&mut asg));
        assert_eq!(asg.get(&atom_id(&tree, "t.x <= 5")), Some(&Truth::True));
        assert_eq!(asg.get(&atom_id(&tree, "t.x <= 6")), Some(&Truth::True));
        assert_eq!(asg.get(&atom_id(&tree, "t.x >= 5")), Some(&Truth::False));
        assert_eq!(asg.get(&atom_id(&tree, "t.x > 5")), Some(&Truth::False));
        // x <= 5 = T does NOT imply x < 5.
        let mut asg = BTreeMap::from([(atom_id(&tree, "t.x <= 5"), Truth::True)]);
        assert!(closure.close(&mut asg));
        assert_eq!(asg.get(&atom_id(&tree, "t.x < 5")), None);
        assert_eq!(asg.get(&atom_id(&tree, "t.x > 5")), Some(&Truth::False));
    }
}
