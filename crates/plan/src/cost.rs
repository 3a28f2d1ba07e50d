//! The §4.1 cost models.
//!
//! Tagged costs "are summations of the costs of individual relational
//! slices": the annotation pass simulates tag flow bottom-up through an
//! abstract plan, building every operator's tag map along the way and
//! tracking a cardinality estimate per tag. Filter cost is
//! `α Σ_{I∈M} F_P · |R[I]|`; join cost decomposes into hash build, hash
//! lookup and output-index build, with the build side chosen as the
//! cheaper of the two (footnote 4).

use std::sync::Arc;

use basilisk_catalog::Estimator;
use basilisk_core::{FilterTagMap, JoinTagMap, ProjectionTags, Tag, TagMapBuilder};
use basilisk_exec::{FxHashMap, FxHashSet};
use basilisk_expr::{ExprId, PredicateTree};
use basilisk_types::{BasiliskError, Result};

use crate::aplan::APlan;
use crate::benefit::filter_cost_factor;
use crate::query::JoinCond;

/// Calibration constants of the cost model.
///
/// Every constant must be non-negative: then every cost term is too (the
/// estimator clamps selectivities into `[0, 1]`), a running total never
/// falls, and the planners' walks may stop costing a candidate as soon as
/// its partial cost reaches their best plan's without changing any pick.
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    /// Calibrates filter cost against join cost (`α`).
    pub alpha: f64,
    pub f_hash_lookup: f64,
    pub f_hash_build: f64,
    pub f_index_build: f64,
    /// Per-tuple cost of the deduplicating union (BDisj plans).
    pub f_union: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            alpha: 1.0,
            f_hash_lookup: 1.0,
            f_hash_build: 1.5,
            f_index_build: 0.5,
            f_union: 1.0,
        }
    }
}

impl CostModel {
    fn is_non_negative(&self) -> bool {
        [
            self.alpha,
            self.f_hash_lookup,
            self.f_hash_build,
            self.f_index_build,
            self.f_union,
        ]
        .iter()
        .all(|&c| c >= 0.0)
    }
}

/// A tagged physical plan: the abstract tree with a tag map attached to
/// every filter and join, plus the projection's admitted tags. Maps are
/// shared with the [`TagMapBuilder`] memo that built them.
#[derive(Debug, Clone)]
pub enum TPlan {
    Scan {
        alias: String,
    },
    Filter {
        node: ExprId,
        map: Arc<FilterTagMap>,
        child: Box<TPlan>,
    },
    Join {
        cond: JoinCond,
        map: Arc<JoinTagMap>,
        left: Box<TPlan>,
        right: Box<TPlan>,
    },
}

/// The result of annotating an abstract plan for tagged execution.
#[derive(Debug, Clone)]
pub struct TaggedAnnotation {
    pub plan: TPlan,
    pub projection: ProjectionTags,
    /// Estimated total cost under the §4.1 model.
    pub cost: f64,
    /// Estimated output cardinality.
    pub out_rows: f64,
}

/// The tags flowing along one plan edge, each with its cardinality
/// estimate (`cards[i]` belongs to `tags[i]`).
#[derive(Default)]
struct Edge {
    tags: Vec<Tag>,
    cards: Vec<f64>,
}

impl Edge {
    /// Add `card` to `tag`'s estimate, appending the tag on first sight.
    fn add<'a>(&mut self, index: &mut FxHashMap<&'a Tag, usize>, tag: &'a Tag, card: f64) {
        let i = *index.entry(tag).or_insert_with(|| {
            self.tags.push(tag.clone());
            self.cards.push(0.0);
            self.tags.len() - 1
        });
        self.cards[i] += card;
    }

    fn by_tag(&self) -> FxHashMap<&Tag, f64> {
        self.tags.iter().zip(self.cards.iter().copied()).collect()
    }

    /// Sum of the estimates of the tags in `part`, in edge order.
    fn sum_of(&self, part: &FxHashSet<&Tag>) -> f64 {
        self.tags
            .iter()
            .zip(&self.cards)
            .filter(|(t, _)| part.contains(t))
            .map(|(_, c)| c)
            .sum()
    }
}

/// Annotate an abstract plan with tag maps and cost it (§4.1).
pub fn annotate_tagged(
    plan: &APlan,
    tree: &PredicateTree,
    builder: &TagMapBuilder<'_>,
    est: &Estimator,
    cm: &CostModel,
) -> Result<TaggedAnnotation> {
    let ann = Sim::new(tree, builder, est, cm, None).annotate(plan)?;
    Ok(ann.expect("an unbounded annotation is never cut short"))
}

/// [`annotate_tagged`] for a plan that only matters if it costs strictly
/// less than `bound`: `Ok(None)` means its cost is not below `bound`,
/// `Some` carries the annotation [`annotate_tagged`] returns, cost bits
/// included. Costing stops as soon as the running cost reaches `bound`;
/// that is exact because every cost term is non-negative (see
/// [`CostModel`]) and a float sum of non-negative terms never decreases.
pub(crate) fn annotate_tagged_below(
    plan: &APlan,
    tree: &PredicateTree,
    builder: &TagMapBuilder<'_>,
    est: &Estimator,
    cm: &CostModel,
    bound: f64,
) -> Result<Option<TaggedAnnotation>> {
    debug_assert!(cm.is_non_negative(), "pruning needs non-negative costs");
    Sim::new(tree, builder, est, cm, Some(bound)).annotate(plan)
}

/// One bottom-up simulation of tag flow through a plan.
struct Sim<'a> {
    tree: &'a PredicateTree,
    builder: &'a TagMapBuilder<'a>,
    est: &'a Estimator,
    cm: &'a CostModel,
    /// Cost of the operators simulated so far.
    total: f64,
    /// Give up once `total` reaches this.
    bound: Option<f64>,
}

impl<'a> Sim<'a> {
    fn new(
        tree: &'a PredicateTree,
        builder: &'a TagMapBuilder<'a>,
        est: &'a Estimator,
        cm: &'a CostModel,
        bound: Option<f64>,
    ) -> Self {
        Sim {
            tree,
            builder,
            est,
            cm,
            total: 0.0,
            bound,
        }
    }

    /// Is the running cost still strictly below the bound? Once it is
    /// not, the final cost is not either: later terms are non-negative
    /// (or NaN, which no comparison accepts).
    fn below_bound(&self) -> bool {
        self.bound.is_none_or(|b| self.total < b)
    }

    fn annotate(mut self, plan: &APlan) -> Result<Option<TaggedAnnotation>> {
        let Some((tplan, edge)) = self.sim(plan)? else {
            return Ok(None);
        };
        if !self.below_bound() {
            return Ok(None);
        }
        let projection = self.builder.projection_tags(&edge.tags);
        let out_rows = edge
            .tags
            .iter()
            .zip(&edge.cards)
            .filter(|(t, _)| projection.allowed.contains(t))
            .map(|(_, c)| c)
            .sum();
        Ok(Some(TaggedAnnotation {
            plan: tplan,
            projection,
            cost: self.total,
            out_rows,
        }))
    }

    /// Simulate `plan`, or `None` once the running cost reaches the bound.
    fn sim(&mut self, plan: &APlan) -> Result<Option<(TPlan, Edge)>> {
        let (tree, builder, est, cm) = (self.tree, self.builder, self.est, self.cm);
        match plan {
            APlan::Scan { alias } => {
                let rows = est.rows(alias)?;
                let edge = Edge {
                    tags: vec![Tag::empty()],
                    cards: vec![rows],
                };
                Ok(Some((
                    TPlan::Scan {
                        alias: alias.clone(),
                    },
                    edge,
                )))
            }
            APlan::Filter { node, child } => {
                let Some((tchild, input)) = self.sim(child)? else {
                    return Ok(None);
                };
                let map = builder.filter_map(*node, &input.tags);
                let f_p = filter_cost_factor(tree, *node);
                let sel = est.node_selectivity(tree, *node)?;

                let mut out = Edge::default();
                let mut index = FxHashMap::default();
                for (tag, &card) in input.tags.iter().zip(&input.cards) {
                    match map.entry_for(tag) {
                        None => out.add(&mut index, tag, card),
                        Some(e) => {
                            // Dead entries (no outputs) are dropped without
                            // evaluation; live entries cost α·F_P·|R[I]|.
                            if e.pos.is_some() || e.neg.is_some() || e.unk.is_some() {
                                self.total += cm.alpha * f_p * card;
                            }
                            if let Some(t) = &e.pos {
                                out.add(&mut index, t, card * sel);
                            }
                            if let Some(t) = &e.neg {
                                out.add(&mut index, t, card * (1.0 - sel));
                            }
                            // Unknown mass is not modelled separately (the
                            // estimator has no NULL statistics for
                            // predicates, so its cardinality share is folded
                            // into the negative branch above) — but the
                            // unknown TAG must still flow downstream: join
                            // tag maps are built from this tag set, and
                            // omitting the tag would discard the whole
                            // unknown slice at the next join.
                            if let Some(t) = &e.unk {
                                out.add(&mut index, t, 0.0);
                            }
                        }
                    }
                }
                if !self.below_bound() {
                    return Ok(None);
                }
                let tplan = TPlan::Filter {
                    node: *node,
                    map,
                    child: Box::new(tchild),
                };
                Ok(Some((tplan, out)))
            }
            APlan::Join { cond, left, right } => {
                let Some((tleft, l)) = self.sim(left)? else {
                    return Ok(None);
                };
                let Some((tright, r)) = self.sim(right)? else {
                    return Ok(None);
                };
                let map = builder.join_map(&l.tags, &r.tags);

                let (lmap, rmap) = (l.by_tag(), r.by_tag());

                // R'_left / R'_right: union of participating slices, summed
                // in the children's tag order — float addition is not
                // associative, so a sum in hash order would make near-tie
                // picks depend on the process's hash seed.
                let part_l: FxHashSet<&Tag> = map.entries.iter().map(|e| &e.left).collect();
                let part_r: FxHashSet<&Tag> = map.entries.iter().map(|e| &e.right).collect();
                let r_left = l.sum_of(&part_l);
                let r_right = r.sum_of(&part_r);
                let jsel = est.join_selectivity(&cond.left, &cond.right)?;

                // Output cardinalities per entry.
                let mut out = Edge::default();
                let mut index = FxHashMap::default();
                let mut out_total = 0.0;
                for e in &map.entries {
                    let (Some(&lc), Some(&rc)) = (lmap.get(&e.left), rmap.get(&e.right)) else {
                        continue;
                    };
                    let c = lc * rc * jsel;
                    out_total += c;
                    out.add(&mut index, &e.out, c);
                }

                // Build side: cheaper of the two (footnote 4).
                let unique_l = r_left.min(est.ndv(&cond.left)?);
                let unique_r = r_right.min(est.ndv(&cond.right)?);
                let build_left = cm.f_hash_lookup * r_left
                    + cm.f_hash_build * unique_l
                    + cm.f_hash_lookup * r_right;
                let build_right = cm.f_hash_lookup * r_right
                    + cm.f_hash_build * unique_r
                    + cm.f_hash_lookup * r_left;
                self.total += build_left.min(build_right) + cm.f_index_build * out_total;
                if !self.below_bound() {
                    return Ok(None);
                }

                let tplan = TPlan::Join {
                    cond: cond.clone(),
                    map,
                    left: Box::new(tleft),
                    right: Box::new(tright),
                };
                Ok(Some((tplan, out)))
            }
            APlan::Union { .. } => Err(BasiliskError::Plan(
                "union operators do not exist under tagged execution".into(),
            )),
        }
    }
}

/// Cost a traditional plan under the same constants (single cardinality
/// per edge instead of per-slice sums).
pub fn cost_traditional(
    plan: &APlan,
    tree: &PredicateTree,
    est: &Estimator,
    cm: &CostModel,
) -> Result<f64> {
    let mut total = 0.0;
    sim_traditional(plan, tree, est, cm, &mut total)?;
    Ok(total)
}

fn sim_traditional(
    plan: &APlan,
    tree: &PredicateTree,
    est: &Estimator,
    cm: &CostModel,
    total: &mut f64,
) -> Result<f64> {
    match plan {
        APlan::Scan { alias } => est.rows(alias),
        APlan::Filter { node, child } => {
            let rows = sim_traditional(child, tree, est, cm, total)?;
            *total += cm.alpha * filter_cost_factor(tree, *node) * rows;
            Ok(rows * est.node_selectivity(tree, *node)?)
        }
        APlan::Join { cond, left, right } => {
            let l = sim_traditional(left, tree, est, cm, total)?;
            let r = sim_traditional(right, tree, est, cm, total)?;
            let jsel = est.join_selectivity(&cond.left, &cond.right)?;
            let out = l * r * jsel;
            let unique_l = l.min(est.ndv(&cond.left)?);
            let unique_r = r.min(est.ndv(&cond.right)?);
            let build_left =
                cm.f_hash_lookup * l + cm.f_hash_build * unique_l + cm.f_hash_lookup * r;
            let build_right =
                cm.f_hash_lookup * r + cm.f_hash_build * unique_r + cm.f_hash_lookup * l;
            *total += build_left.min(build_right) + cm.f_index_build * out;
            Ok(out)
        }
        APlan::Union { children } => {
            let mut sum = 0.0;
            for c in children {
                sum += sim_traditional(c, tree, est, cm, total)?;
            }
            *total += cm.f_union * sum;
            Ok(sum)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use basilisk_catalog::Catalog;
    use basilisk_core::TagMapStrategy;
    use basilisk_expr::{and, col, or, ColumnRef};
    use basilisk_storage::TableBuilder;
    use basilisk_types::DataType;

    fn setup() -> (Catalog, Estimator, PredicateTree) {
        let mut cat = Catalog::new();
        let mut b = TableBuilder::new("t")
            .column("id", DataType::Int)
            .column("year", DataType::Int);
        for i in 0..100i64 {
            b.push_row(vec![i.into(), (1950 + i).into()]).unwrap();
        }
        cat.add_table(b.finish().unwrap()).unwrap();
        let mut b = TableBuilder::new("mi")
            .column("movie_id", DataType::Int)
            .column("score", DataType::Float);
        for i in 0..100i64 {
            b.push_row(vec![i.into(), ((i % 10) as f64).into()])
                .unwrap();
        }
        cat.add_table(b.finish().unwrap()).unwrap();
        let est = Estimator::new(
            &cat,
            &[("t".into(), "t".into()), ("mi".into(), "mi".into())],
        )
        .unwrap();
        let e = or(vec![
            and(vec![
                col("t", "year").gt(2000i64),
                col("mi", "score").gt(7.0),
            ]),
            and(vec![
                col("t", "year").gt(1980i64),
                col("mi", "score").gt(8.0),
            ]),
        ]);
        (cat, est, PredicateTree::build(&e))
    }

    fn find(tree: &PredicateTree, s: &str) -> ExprId {
        tree.atom_ids()
            .into_iter()
            .find(|&id| tree.display(id) == s)
            .unwrap()
    }

    fn pushdown_plan(tree: &PredicateTree) -> APlan {
        APlan::join(
            JoinCond::new(ColumnRef::new("t", "id"), ColumnRef::new("mi", "movie_id")),
            APlan::filter(
                find(tree, "t.year > 1980"),
                APlan::filter(find(tree, "t.year > 2000"), APlan::scan("t")),
            ),
            APlan::filter(
                find(tree, "mi.score > 7"),
                APlan::filter(find(tree, "mi.score > 8"), APlan::scan("mi")),
            ),
        )
    }

    #[test]
    fn annotate_builds_maps_and_costs() {
        let (_cat, est, tree) = setup();
        let builder = TagMapBuilder::new(&tree, TagMapStrategy::Generalized { use_closure: true });
        let cm = CostModel::default();
        let plan = pushdown_plan(&tree);
        let ann = annotate_tagged(&plan, &tree, &builder, &est, &cm).unwrap();
        assert!(ann.cost > 0.0);
        assert!(ann.out_rows > 0.0);
        assert!(!ann.projection.allowed.is_empty());
        // The annotated plan mirrors the abstract structure.
        let TPlan::Join { map, left, .. } = &ann.plan else {
            panic!("root is a join");
        };
        assert!(!map.entries.is_empty());
        let TPlan::Filter { map: fm, .. } = &**left else {
            panic!("left child is a filter");
        };
        // The outer-left filter is year>1980 over pushdown tags.
        assert!(fm.entries().len() <= 2);
    }

    #[test]
    fn pushdown_cheaper_than_no_pushdown_for_tagged() {
        let (_cat, est, tree) = setup();
        let builder = TagMapBuilder::new(&tree, TagMapStrategy::Generalized { use_closure: true });
        let cm = CostModel::default();
        let pushed = pushdown_plan(&tree);
        // All filters above the join.
        let mut unpushed = APlan::join(
            JoinCond::new(ColumnRef::new("t", "id"), ColumnRef::new("mi", "movie_id")),
            APlan::scan("t"),
            APlan::scan("mi"),
        );
        for f in pushed.filters() {
            unpushed = APlan::filter(f, unpushed);
        }
        let a = annotate_tagged(&pushed, &tree, &builder, &est, &cm).unwrap();
        let b = annotate_tagged(&unpushed, &tree, &builder, &est, &cm).unwrap();
        assert!(
            a.cost < b.cost,
            "pushdown {:.1} should beat pullup {:.1} on this selective workload",
            a.cost,
            b.cost
        );
        // Both estimates are for the same query; they need not agree
        // exactly (the independence assumption composes differently per
        // plan shape — the paper itself observes its cost model is
        // imperfect, §5.1), but both must be positive and same order of
        // magnitude.
        assert!(a.out_rows > 0.0 && b.out_rows > 0.0);
        let ratio = a.out_rows.max(b.out_rows) / a.out_rows.min(b.out_rows);
        assert!(
            ratio < 10.0,
            "estimates differ wildly: {} vs {}",
            a.out_rows,
            b.out_rows
        );
    }

    /// Every plan TPullup's and TIterPush's walks can visit on the
    /// fixture, deduplicated: everything reachable from the pushdown plan
    /// by pulling filters up one node at a time, and everything reachable
    /// from the all-filters-above-the-join plan by pushing filters down to
    /// their scans.
    fn walk_candidates(tree: &PredicateTree) -> Vec<APlan> {
        let pushdown = pushdown_plan(tree);
        let mut above = APlan::join(
            JoinCond::new(ColumnRef::new("t", "id"), ColumnRef::new("mi", "movie_id")),
            APlan::scan("t"),
            APlan::scan("mi"),
        );
        for f in pushdown.filters() {
            above = APlan::filter(f, above);
        }
        let mut seen = vec![pushdown, above];
        let mut next = 0;
        while next < seen.len() {
            let plan = seen[next].clone();
            next += 1;
            for f in plan.filters() {
                let alias = tree.atom(f).unwrap().table();
                let pushed = plan.remove_filter(f).0.insert_filter_above_scan(f, alias);
                for moved in [plan.pull_up_filter(f), pushed].into_iter().flatten() {
                    if !seen.contains(&moved) {
                        seen.push(moved);
                    }
                }
            }
        }
        seen
    }

    /// Bounded costing is unbounded costing cut short: pruned exactly
    /// when the full cost is not below the bound, the same cost bits
    /// otherwise — for every walk candidate against every candidate's
    /// cost (ties included), its successor, zero and infinity.
    #[test]
    fn bounded_costing_prunes_exactly_at_the_bound() {
        let (_cat, est, tree) = setup();
        let builder = TagMapBuilder::new(&tree, TagMapStrategy::Generalized { use_closure: true });
        let cm = CostModel::default();
        let candidates = walk_candidates(&tree);
        assert!(candidates.len() > 20, "{} candidates", candidates.len());
        let costs: Vec<f64> = candidates
            .iter()
            .map(|p| annotate_tagged(p, &tree, &builder, &est, &cm).unwrap().cost)
            .collect();
        let mut bounds = vec![0.0, f64::INFINITY];
        for &c in &costs {
            bounds.extend([c, c.next_up()]);
        }
        let mut pruned = 0;
        for (plan, &cost) in candidates.iter().zip(&costs) {
            for &bound in &bounds {
                let got = annotate_tagged_below(plan, &tree, &builder, &est, &cm, bound).unwrap();
                match got {
                    None => {
                        assert!(cost >= bound, "pruned {cost} under bound {bound}");
                        pruned += 1;
                    }
                    Some(ann) => {
                        assert!(cost < bound, "kept {cost} at bound {bound}");
                        assert_eq!(ann.cost.to_bits(), cost.to_bits());
                    }
                }
            }
        }
        assert!(pruned > 0 && pruned < candidates.len() * bounds.len());
    }

    #[test]
    fn traditional_cost_monotone_in_filters() {
        let (_cat, est, tree) = setup();
        let cm = CostModel::default();
        let join_only = APlan::join(
            JoinCond::new(ColumnRef::new("t", "id"), ColumnRef::new("mi", "movie_id")),
            APlan::scan("t"),
            APlan::scan("mi"),
        );
        let with_filter = APlan::filter(tree.root(), join_only.clone());
        let c0 = cost_traditional(&join_only, &tree, &est, &cm).unwrap();
        let c1 = cost_traditional(&with_filter, &tree, &est, &cm).unwrap();
        assert!(c1 > c0);
    }

    #[test]
    fn union_costs_per_tuple_and_rejected_in_tagged() {
        let (_cat, est, tree) = setup();
        let cm = CostModel::default();
        let u = APlan::Union {
            children: vec![APlan::scan("t"), APlan::scan("t")],
        };
        let c = cost_traditional(&u, &tree, &est, &cm).unwrap();
        assert!(c >= 200.0 * cm.f_union);
        let builder = TagMapBuilder::new(&tree, TagMapStrategy::Generalized { use_closure: true });
        assert!(annotate_tagged(&u, &tree, &builder, &est, &cm).is_err());
    }
}
