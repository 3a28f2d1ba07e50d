//! The planners (§4.2) and traditional baselines (§5).
//!
//! All planners share the greedy smallest-output join ordering. The tagged
//! planners differ in where they place filter operators:
//!
//! * **TPushdown** — every base predicate pushed to its table, sorted per
//!   table in benefiting order (Appendix A).
//! * **TPullup** (Algorithm 2) — starts from TPushdown and considers
//!   pulling each filter up one node at a time, keeping cheaper plans.
//! * **TIterPush** — starts with every filter above all joins and pushes
//!   filters down to the base tables when that is cheaper.
//! * **TPushConj** — mimics a traditional conjunct-pushdown planner
//!   (single-table root conjuncts pushed, the rest after the joins); under
//!   tagged execution its tag maps naturally degenerate to
//!   traditional behaviour (no neg-tags on pushed filters, full Cartesian
//!   join maps), which is how the paper measures the model's overhead.
//! * **TCombined** — costs the plan of each tagged planner and picks the
//!   cheapest.
//!
//! Baselines (executed on the traditional engine):
//!
//! * **BDisj** — each root clause of a disjunction runs as an independent
//!   query (with per-clause pushdown) and a deduplicating union merges the
//!   results.
//! * **BPushConj** — conjunct pushdown: single-table root conjuncts are
//!   pushed, the remaining conjuncts run after all joins in increasing
//!   selectivity order.

use std::collections::BTreeMap;

use basilisk_catalog::Estimator;
use basilisk_core::TagMapBuilder;
use basilisk_expr::{ExprId, NodeKind, PredicateTree};
use basilisk_types::{BasiliskError, Result};

use crate::aplan::APlan;
use crate::benefit::benefiting_order;
use crate::cost::{
    annotate_tagged, annotate_tagged_below, cost_traditional, CostModel, TaggedAnnotation,
};
use crate::join_order::{greedy_join_tree, local_survival};
use crate::query::Query;

/// Which planner to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlannerKind {
    TPushdown,
    TPullup,
    /// Extension (not in the paper's TCombined): the optimization the
    /// paper suggests for TPullup — "a more optimized version of the
    /// planner which pulls filter nodes up to the next join juncture
    /// could substantially decrease planning time". Candidate plans are
    /// only costed when a filter lands directly on a join.
    TPullupJoin,
    TIterPush,
    TPushConj,
    TCombined,
    BDisj,
    BPushConj,
}

impl PlannerKind {
    pub const ALL_TAGGED: [PlannerKind; 4] = [
        PlannerKind::TPushdown,
        PlannerKind::TPullup,
        PlannerKind::TIterPush,
        PlannerKind::TPushConj,
    ];

    pub fn is_tagged(self) -> bool {
        !matches!(self, PlannerKind::BDisj | PlannerKind::BPushConj)
    }

    pub fn name(self) -> &'static str {
        match self {
            PlannerKind::TPushdown => "TPushdown",
            PlannerKind::TPullup => "TPullup",
            PlannerKind::TPullupJoin => "TPullupJoin",
            PlannerKind::TIterPush => "TIterPush",
            PlannerKind::TPushConj => "TPushConj",
            PlannerKind::TCombined => "TCombined",
            PlannerKind::BDisj => "BDisj",
            PlannerKind::BPushConj => "BPushConj",
        }
    }
}

impl std::fmt::Display for PlannerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Everything a planner needs.
pub struct PlannerInput<'a> {
    pub query: &'a Query,
    pub tree: &'a PredicateTree,
    pub est: &'a Estimator,
    pub builder: &'a TagMapBuilder<'a>,
    pub cm: &'a CostModel,
}

/// A planned query, ready for execution.
pub enum PlannedQuery {
    Tagged {
        aplan: APlan,
        ann: TaggedAnnotation,
        /// Which tagged planner produced the plan (TCombined records the
        /// winning subplanner).
        chosen: PlannerKind,
    },
    Traditional {
        aplan: APlan,
        cost: f64,
    },
}

impl PlannedQuery {
    pub fn estimated_cost(&self) -> f64 {
        match self {
            PlannedQuery::Tagged { ann, .. } => ann.cost,
            PlannedQuery::Traditional { cost, .. } => *cost,
        }
    }

    pub fn aplan(&self) -> &APlan {
        match self {
            PlannedQuery::Tagged { aplan, .. } => aplan,
            PlannedQuery::Traditional { aplan, .. } => aplan,
        }
    }
}

/// Plan `input.query` with the chosen planner.
pub fn plan(kind: PlannerKind, input: &PlannerInput<'_>) -> Result<PlannedQuery> {
    match kind {
        PlannerKind::TPushdown => tagged(input, t_pushdown(input)?, PlannerKind::TPushdown),
        PlannerKind::TPullup => t_pullup(input, false),
        PlannerKind::TPullupJoin => t_pullup(input, true),
        PlannerKind::TIterPush => t_iterpush(input),
        PlannerKind::TPushConj => tagged(input, conj_pushdown_plan(input)?, PlannerKind::TPushConj),
        PlannerKind::TCombined => t_combined(input),
        PlannerKind::BDisj => b_disj(input),
        PlannerKind::BPushConj => {
            let aplan = conj_pushdown_plan(input)?;
            let cost = cost_traditional(&aplan, input.tree, input.est, input.cm)?;
            Ok(PlannedQuery::Traditional { aplan, cost })
        }
    }
}

fn tagged(input: &PlannerInput<'_>, aplan: APlan, chosen: PlannerKind) -> Result<PlannedQuery> {
    let ann = annotate_tagged(&aplan, input.tree, input.builder, input.est, input.cm)?;
    Ok(PlannedQuery::Tagged { aplan, ann, chosen })
}

/// Annotate `candidate` if it is strictly cheaper than `best`, the walk's
/// own incumbent. Costing stops as soon as the candidate's running cost
/// reaches `best`'s, which cannot change the outcome: a walk accepts
/// only on a strict `<`. The bound is never another planner's cost — a
/// walk continues from the plans it accepts, so an outside bound would
/// change which candidates it visits.
fn cheaper_than(
    input: &PlannerInput<'_>,
    candidate: &APlan,
    best: &TaggedAnnotation,
) -> Result<Option<TaggedAnnotation>> {
    annotate_tagged_below(
        candidate,
        input.tree,
        input.builder,
        input.est,
        input.cm,
        best.cost,
    )
}

/// Atoms grouped by the alias they touch.
fn atoms_by_alias(tree: &PredicateTree) -> BTreeMap<String, Vec<ExprId>> {
    let mut map: BTreeMap<String, Vec<ExprId>> = BTreeMap::new();
    for id in tree.atom_ids() {
        let alias = tree.atom(id).expect("atom").table().to_owned();
        map.entry(alias).or_default().push(id);
    }
    map
}

/// Per-alias leaf plans with every atom pushed down (TPushdown's leaves):
/// filters stacked in benefiting order, cardinality scaled by the tagged
/// local-survival estimate.
fn pushdown_leaves(input: &PlannerInput<'_>) -> Result<Vec<(String, APlan, f64)>> {
    let by_alias = atoms_by_alias(input.tree);
    let mut leaves = Vec::new();
    for (alias, _) in &input.query.aliases {
        let mut plan = APlan::scan(alias.clone());
        if let Some(atoms) = by_alias.get(alias) {
            let ordered = benefiting_order(input.tree, input.est, atoms)?;
            // First in benefiting order runs first = innermost.
            for node in ordered {
                plan = APlan::filter(node, plan);
            }
        }
        let survival = local_survival(input.tree, input.est, alias)?;
        let card = input.est.rows(alias)? * survival;
        leaves.push((alias.clone(), plan, card.max(1.0)));
    }
    Ok(leaves)
}

/// TPushdown: push every predicate to the base tables, join greedily.
pub fn t_pushdown(input: &PlannerInput<'_>) -> Result<APlan> {
    let leaves = pushdown_leaves(input)?;
    greedy_join_tree(leaves, &input.query.joins, input.est)
}

/// TPullup (Algorithm 2): starting from TPushdown, consider pulling each
/// filter up one node at a time (in reverse benefiting order), keeping any
/// cheaper plan found.
///
/// With `junctures_only`, candidate plans are only costed when the pulled
/// filter lands directly above a join — the planning-time optimization
/// the paper proposes in §5.2 (extension; the faithful Algorithm 2 costs
/// every single-node pull).
pub fn t_pullup(input: &PlannerInput<'_>, junctures_only: bool) -> Result<PlannedQuery> {
    let base = t_pushdown(input)?;
    let mut best_ann = annotate_tagged(&base, input.tree, input.builder, input.est, input.cm)?;
    let mut best_plan = base;

    let mut order = benefiting_order(input.tree, input.est, &input.tree.atom_ids())?;
    order.reverse();
    for filter in order {
        let mut new_plan = best_plan.clone();
        while new_plan.can_pull_up(filter) {
            let Some(candidate) = new_plan.pull_up_filter(filter) else {
                break;
            };
            if !junctures_only || candidate.filter_sits_on_join(filter) {
                if let Some(cand_ann) = cheaper_than(input, &candidate, &best_ann)? {
                    best_plan = candidate.clone();
                    best_ann = cand_ann;
                }
            }
            new_plan = candidate;
        }
    }
    Ok(PlannedQuery::Tagged {
        aplan: best_plan,
        ann: best_ann,
        chosen: if junctures_only {
            PlannerKind::TPullupJoin
        } else {
            PlannerKind::TPullup
        },
    })
}

/// TIterPush: start with all joins first and every filter above them (in
/// benefiting order); push each filter down to its base table when that
/// yields a cheaper plan.
pub fn t_iterpush(input: &PlannerInput<'_>) -> Result<PlannedQuery> {
    // Base plan: raw scans joined greedily, filters stacked on top.
    let leaves: Vec<(String, APlan, f64)> = input
        .query
        .aliases
        .iter()
        .map(|(alias, _)| {
            Ok((
                alias.clone(),
                APlan::scan(alias.clone()),
                input.est.rows(alias)?,
            ))
        })
        .collect::<Result<_>>()?;
    let mut plan = greedy_join_tree(leaves, &input.query.joins, input.est)?;
    let order = benefiting_order(input.tree, input.est, &input.tree.atom_ids())?;
    // First in benefiting order runs first → innermost.
    for &node in &order {
        plan = APlan::filter(node, plan);
    }
    let mut best_ann = annotate_tagged(&plan, input.tree, input.builder, input.est, input.cm)?;
    let mut best_plan = plan;

    for &filter in &order {
        let alias = input
            .tree
            .atom(filter)
            .expect("atom filter")
            .table()
            .to_owned();
        let (removed, found) = best_plan.remove_filter(filter);
        if !found {
            continue;
        }
        let Some(candidate) = removed.insert_filter_above_scan(filter, &alias) else {
            continue;
        };
        if let Some(cand_ann) = cheaper_than(input, &candidate, &best_ann)? {
            best_plan = candidate;
            best_ann = cand_ann;
        }
    }
    Ok(PlannedQuery::Tagged {
        aplan: best_plan,
        ann: best_ann,
        chosen: PlannerKind::TIterPush,
    })
}

/// The conjunct-pushdown plan shape shared by TPushConj and BPushConj:
/// root-AND children whose atoms all live on one table are pushed to that
/// table; the remaining children run after all joins in increasing
/// selectivity order. Non-AND roots are treated as a single conjunct.
pub fn conj_pushdown_plan(input: &PlannerInput<'_>) -> Result<APlan> {
    let tree = input.tree;
    let root = tree.root();
    let conjuncts: Vec<ExprId> = match tree.kind(root) {
        NodeKind::And(cs) => cs.clone(),
        _ => vec![root],
    };

    let mut pushed: BTreeMap<String, Vec<ExprId>> = BTreeMap::new();
    let mut residual: Vec<ExprId> = Vec::new();
    for c in conjuncts {
        let tables = tree.tables(c);
        if tables.len() == 1 {
            let alias = tables.into_iter().next().unwrap().to_owned();
            pushed.entry(alias).or_default().push(c);
        } else {
            residual.push(c);
        }
    }

    // Leaves with pushed conjuncts; cardinality = rows × Π sel.
    let mut leaves = Vec::new();
    for (alias, _) in &input.query.aliases {
        let mut plan = APlan::scan(alias.clone());
        let mut card = input.est.rows(alias)?;
        if let Some(nodes) = pushed.get(alias) {
            for &n in nodes {
                plan = APlan::filter(n, plan);
                card *= input.est.node_selectivity(tree, n)?;
            }
        }
        leaves.push((alias.clone(), plan, card.max(1.0)));
    }
    let mut plan = greedy_join_tree(leaves, &input.query.joins, input.est)?;

    // Residual conjuncts in increasing selectivity order (most selective
    // first).
    let mut with_sel: Vec<(f64, ExprId)> = residual
        .into_iter()
        .map(|n| Ok((input.est.node_selectivity(tree, n)?, n)))
        .collect::<Result<_>>()?;
    with_sel.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
    for (_, n) in with_sel {
        plan = APlan::filter(n, plan);
    }
    Ok(plan)
}

/// TCombined: cost every tagged planner's plan, take the cheapest.
pub fn t_combined(input: &PlannerInput<'_>) -> Result<PlannedQuery> {
    let mut best: Option<PlannedQuery> = None;
    for kind in PlannerKind::ALL_TAGGED {
        let candidate = plan(kind, input)?;
        let better = match &best {
            None => true,
            Some(b) => candidate.estimated_cost() < b.estimated_cost(),
        };
        if better {
            best = Some(candidate);
        }
    }
    best.ok_or_else(|| BasiliskError::Plan("no tagged planner produced a plan".into()))
}

/// BDisj: every root clause of an OR-rooted predicate becomes an
/// independent subquery (with per-clause conjunct pushdown); a
/// deduplicating union merges the results. Non-OR roots fall back to
/// BPushConj.
pub fn b_disj(input: &PlannerInput<'_>) -> Result<PlannedQuery> {
    let tree = input.tree;
    let root = tree.root();
    let NodeKind::Or(clauses) = tree.kind(root) else {
        let aplan = conj_pushdown_plan(input)?;
        let cost = cost_traditional(&aplan, tree, input.est, input.cm)?;
        return Ok(PlannedQuery::Traditional { aplan, cost });
    };

    let mut children = Vec::with_capacity(clauses.len());
    for &clause in clauses {
        children.push(clause_plan(input, clause)?);
    }
    let aplan = APlan::Union { children };
    let cost = cost_traditional(&aplan, tree, input.est, input.cm)?;
    Ok(PlannedQuery::Traditional { aplan, cost })
}

/// One BDisj subquery: push the clause's single-table conjuncts, join all
/// tables greedily, apply cross-table conjuncts after the joins.
fn clause_plan(input: &PlannerInput<'_>, clause: ExprId) -> Result<APlan> {
    let tree = input.tree;
    let conjuncts: Vec<ExprId> = match tree.kind(clause) {
        NodeKind::And(cs) => cs.clone(),
        _ => vec![clause],
    };
    let mut pushed: BTreeMap<String, Vec<ExprId>> = BTreeMap::new();
    let mut residual = Vec::new();
    for c in conjuncts {
        let tables = tree.tables(c);
        if tables.len() == 1 {
            pushed
                .entry(tables.into_iter().next().unwrap().to_owned())
                .or_default()
                .push(c);
        } else {
            residual.push(c);
        }
    }
    let mut leaves = Vec::new();
    for (alias, _) in &input.query.aliases {
        let mut plan = APlan::scan(alias.clone());
        let mut card = input.est.rows(alias)?;
        if let Some(nodes) = pushed.get(alias) {
            for &n in nodes {
                plan = APlan::filter(n, plan);
                card *= input.est.node_selectivity(tree, n)?;
            }
        }
        leaves.push((alias.clone(), plan, card.max(1.0)));
    }
    let mut plan = greedy_join_tree(leaves, &input.query.joins, input.est)?;
    let mut with_sel: Vec<(f64, ExprId)> = residual
        .into_iter()
        .map(|n| Ok((input.est.node_selectivity(tree, n)?, n)))
        .collect::<Result<_>>()?;
    with_sel.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
    for (_, n) in with_sel {
        plan = APlan::filter(n, plan);
    }
    Ok(plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use basilisk_catalog::Catalog;
    use basilisk_core::TagMapStrategy;
    use basilisk_expr::{and, col, or, ColumnRef, Expr};
    use basilisk_storage::TableBuilder;
    use basilisk_types::DataType;

    struct Fixture {
        _catalog: Box<Catalog>,
        query: Query,
        tree: PredicateTree,
        est: Estimator,
        cm: CostModel,
    }

    fn fixture(predicate: Expr) -> Fixture {
        let mut cat = Catalog::new();
        let mut b = TableBuilder::new("title")
            .column("id", DataType::Int)
            .column("year", DataType::Int)
            .column("name", DataType::Str);
        for i in 0..500i64 {
            b.push_row(vec![
                i.into(),
                (1900 + i % 120).into(),
                format!("movie {i} {}", if i % 97 == 0 { "godfather" } else { "x" }).into(),
            ])
            .unwrap();
        }
        cat.add_table(b.finish().unwrap()).unwrap();
        let mut b = TableBuilder::new("scores")
            .column("movie_id", DataType::Int)
            .column("score", DataType::Float);
        for i in 0..800i64 {
            b.push_row(vec![(i % 500).into(), ((i % 100) as f64 / 10.0).into()])
                .unwrap();
        }
        cat.add_table(b.finish().unwrap()).unwrap();

        let query = Query::new(vec![
            ("t".into(), "title".into()),
            ("mi".into(), "scores".into()),
        ])
        .join(ColumnRef::new("t", "id"), ColumnRef::new("mi", "movie_id"))
        .filter(predicate);
        query.validate().unwrap();

        let est = Estimator::new(
            &cat,
            &[("t".into(), "title".into()), ("mi".into(), "scores".into())],
        )
        .unwrap();
        let tree = PredicateTree::build(query.predicate.as_ref().unwrap());
        Fixture {
            _catalog: Box::new(cat),
            query,
            tree,
            est,
            cm: CostModel::default(),
        }
    }

    fn dnf() -> Expr {
        or(vec![
            and(vec![
                col("t", "year").gt(2000i64),
                col("mi", "score").gt(7.0),
            ]),
            and(vec![
                col("t", "year").gt(1980i64),
                col("mi", "score").gt(8.0),
            ]),
        ])
    }

    fn cnf() -> Expr {
        and(vec![
            or(vec![
                col("t", "year").gt(2000i64),
                col("mi", "score").gt(7.0),
            ]),
            or(vec![
                col("t", "year").gt(1980i64),
                col("mi", "score").gt(8.0),
            ]),
        ])
    }

    fn run_planner(f: &Fixture, kind: PlannerKind) -> PlannedQuery {
        let builder =
            TagMapBuilder::new(&f.tree, TagMapStrategy::Generalized { use_closure: true });
        let input = PlannerInput {
            query: &f.query,
            tree: &f.tree,
            est: &f.est,
            builder: &builder,
            cm: &f.cm,
        };
        plan(kind, &input).unwrap()
    }

    #[test]
    fn tpushdown_pushes_all_atoms() {
        let f = fixture(dnf());
        let p = run_planner(&f, PlannerKind::TPushdown);
        let PlannedQuery::Tagged { aplan, ann, .. } = &p else {
            panic!("tagged plan expected")
        };
        assert_eq!(aplan.filters().len(), 4, "all four atoms pushed");
        // All filters below the join.
        let rendered = aplan.display(&f.tree);
        let join_pos = rendered.find("Join").unwrap();
        for line in rendered.lines().filter(|l| l.contains("Filter")) {
            let pos = rendered.find(line).unwrap();
            assert!(pos > join_pos, "filters under the join:\n{rendered}");
        }
        assert!(ann.cost > 0.0);
        assert!(!ann.projection.allowed.is_empty());
    }

    #[test]
    fn tpullup_never_worse_than_tpushdown() {
        let f = fixture(dnf());
        let push = run_planner(&f, PlannerKind::TPushdown);
        let pull = run_planner(&f, PlannerKind::TPullup);
        assert!(pull.estimated_cost() <= push.estimated_cost() + 1e-9);
    }

    /// The join-juncture extension: never worse than TPushdown, and its
    /// search visits a subset of TPullup's candidates, so it can't find a
    /// cheaper plan than TPullup.
    #[test]
    fn tpullup_join_juncture_variant() {
        for pred in [dnf(), cnf()] {
            let f = fixture(pred);
            let push = run_planner(&f, PlannerKind::TPushdown);
            let full = run_planner(&f, PlannerKind::TPullup);
            let fast = run_planner(&f, PlannerKind::TPullupJoin);
            assert!(fast.estimated_cost() <= push.estimated_cost() + 1e-9);
            assert!(full.estimated_cost() <= fast.estimated_cost() + 1e-9);
            let PlannedQuery::Tagged { chosen, .. } = fast else {
                panic!()
            };
            assert_eq!(chosen, PlannerKind::TPullupJoin);
        }
    }

    /// On the §4.2 pullup example the juncture variant finds the same
    /// winning plan as full TPullup (the winning position *is* above the
    /// join).
    #[test]
    fn tpullup_join_finds_the_section42_plan() {
        let f = fixture(and(vec![
            col("mi", "score").ge(9.9),
            col("t", "name").ilike("%godfather%"),
        ]));
        let fast = run_planner(&f, PlannerKind::TPullupJoin);
        let rendered = fast.aplan().display(&f.tree);
        assert!(
            rendered.find("Filter(t.name ILIKE").unwrap() < rendered.find("Join").unwrap(),
            "LIKE pulled above the join:\n{rendered}"
        );
    }

    #[test]
    fn titerpush_produces_valid_plan() {
        let f = fixture(dnf());
        let p = run_planner(&f, PlannerKind::TIterPush);
        let PlannedQuery::Tagged { aplan, .. } = &p else {
            panic!()
        };
        assert_eq!(aplan.filters().len(), 4);
        assert_eq!(aplan.scans().len(), 2);
    }

    #[test]
    fn tpullup_pulls_expensive_like_above_selective_join() {
        // The paper's §4.2 example: a highly selective score predicate
        // makes it cheaper to run the expensive LIKE after the join.
        let f = fixture(and(vec![
            col("mi", "score").ge(9.9),
            col("t", "name").ilike("%godfather%"),
        ]));
        let pull = run_planner(&f, PlannerKind::TPullup);
        let PlannedQuery::Tagged { aplan, .. } = &pull else {
            panic!()
        };
        let rendered = aplan.display(&f.tree);
        let like_pos = rendered.find("Filter(t.name ILIKE").unwrap();
        let join_pos = rendered.find("Join").unwrap();
        assert!(
            like_pos < join_pos,
            "LIKE should sit above the join:\n{rendered}"
        );
        let push = run_planner(&f, PlannerKind::TPushdown);
        assert!(pull.estimated_cost() < push.estimated_cost());
    }

    #[test]
    fn tcombined_picks_cheapest() {
        for pred in [dnf(), cnf()] {
            let f = fixture(pred);
            let combined = run_planner(&f, PlannerKind::TCombined);
            for kind in PlannerKind::ALL_TAGGED {
                let p = run_planner(&f, kind);
                assert!(
                    combined.estimated_cost() <= p.estimated_cost() + 1e-9,
                    "TCombined beat by {kind}"
                );
            }
            let PlannedQuery::Tagged { chosen, .. } = combined else {
                panic!()
            };
            assert!(chosen.is_tagged());
        }
    }

    #[test]
    fn bdisj_builds_union_of_clauses() {
        let f = fixture(dnf());
        let p = run_planner(&f, PlannerKind::BDisj);
        let PlannedQuery::Traditional { aplan, cost } = &p else {
            panic!("traditional plan expected")
        };
        let APlan::Union { children } = aplan else {
            panic!("BDisj must produce a union root")
        };
        assert_eq!(children.len(), 2);
        for c in children {
            assert_eq!(c.scans().len(), 2, "each clause joins all tables");
            assert_eq!(c.filters().len(), 2, "clause conjuncts pushed");
        }
        assert!(*cost > 0.0);
    }

    #[test]
    fn bdisj_falls_back_on_cnf() {
        let f = fixture(cnf());
        let p = run_planner(&f, PlannerKind::BDisj);
        let PlannedQuery::Traditional { aplan, .. } = &p else {
            panic!()
        };
        assert!(!matches!(aplan, APlan::Union { .. }));
    }

    #[test]
    fn bpushconj_cannot_push_cnf_cross_table_clauses() {
        // The §5.2 observation: every CNF clause spans two tables, so
        // BPushConj pushes nothing — all filters sit above the join.
        let f = fixture(cnf());
        let p = run_planner(&f, PlannerKind::BPushConj);
        let PlannedQuery::Traditional { aplan, .. } = &p else {
            panic!()
        };
        let rendered = aplan.display(&f.tree);
        let join_pos = rendered.find("Join").unwrap();
        for (pos, _) in rendered.match_indices("Filter") {
            assert!(pos < join_pos, "no filter below the join:\n{rendered}");
        }
    }

    #[test]
    fn bpushconj_pushes_single_table_conjuncts() {
        let f = fixture(and(vec![
            col("t", "year").gt(2000i64),
            or(vec![
                col("t", "year").gt(2010i64),
                col("mi", "score").gt(9.0),
            ]),
        ]));
        let p = run_planner(&f, PlannerKind::BPushConj);
        let rendered = p.aplan().display(&f.tree);
        let join_pos = rendered.find("Join").unwrap();
        let pushed_pos = rendered.find("Filter(t.year > 2000)").unwrap();
        let resid_pos = rendered.find("Filter(t.year > 2010 OR").unwrap();
        assert!(pushed_pos > join_pos, "single-table conjunct pushed");
        assert!(resid_pos < join_pos, "cross-table conjunct above join");
    }

    #[test]
    fn tpushconj_mimics_traditional_shape() {
        let f = fixture(cnf());
        let t = run_planner(&f, PlannerKind::TPushConj);
        let b = run_planner(&f, PlannerKind::BPushConj);
        assert_eq!(
            t.aplan().display(&f.tree),
            b.aplan().display(&f.tree),
            "same plan shape, different execution model"
        );
    }
}
