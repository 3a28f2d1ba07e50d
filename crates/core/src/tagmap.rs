//! Tag-map construction (§3.3) and the naive strategy (§3.1).
//!
//! The planner — not the engine — decides which tags exist and how each
//! operator transforms them. Two precepts drive the §3.3 construction:
//!
//! * **Precept 1** — never generate a tag whose generalization assigns
//!   *false* (or, under three-valued logic, *unknown*) to the root: those
//!   tuples can never reach the output, so drop them at the earliest
//!   operator.
//! * **Precept 2** — do not apply a filter to a slice it cannot refine:
//!   if every instance of the predicate has an assigned ancestor in the
//!   input tag (or the atom's value is already implied by subsumption),
//!   pass the slice through untouched.
//!
//! The §3.1 naive strategy (no generalization, no precepts) is kept behind
//! [`TagMapStrategy::Naive`] for the ablation benchmarks — it demonstrates
//! the exponential tag blowup the paper warns about.

use std::cell::RefCell;
use std::hash::{BuildHasher, Hash};
use std::sync::Arc;

use basilisk_exec::{FxBuildHasher, FxHashMap};
use basilisk_expr::subsume::Closure;
use basilisk_expr::{ExprId, PredicateTree};
use basilisk_types::Truth;

use crate::generalize::{generalize_tag, generalize_tag_closed, root_truth};
use crate::tag::Tag;

/// How tag maps are built.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TagMapStrategy {
    /// §3.3: tag generalization + both precepts. `use_closure` adds the
    /// atom-subsumption enrichment (`year>2000 ⇒ year>1980`); disabling it
    /// isolates that design choice for the ablation bench.
    Generalized { use_closure: bool },
    /// §3.1: every filter emits both outcomes for every input tag, joins
    /// take the full Cartesian product, nothing is pruned until projection.
    Naive,
}

/// One entry of a filter's tag map (§2.2):
/// `⟨in⟩ → {T: ⟨pos⟩, F: ⟨neg⟩, U: ⟨unk⟩}` with each output optional.
/// An entry with *no* outputs means the slice is provably dead (Precept 1
/// killed every branch): the executor drops it without evaluating.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FilterTagEntry {
    pub input: Tag,
    pub pos: Option<Tag>,
    pub neg: Option<Tag>,
    pub unk: Option<Tag>,
}

/// The tag map of one filter operator.
///
/// Construct via [`FilterTagMap::new`]: a hashed input-tag index is built
/// alongside the entry list so the executor's per-slice dispatch
/// ([`FilterTagMap::entry_for`]) is O(1) instead of a linear scan over
/// entries — tag maps on wide disjunctions can carry dozens of entries.
#[derive(Debug, Clone)]
pub struct FilterTagMap {
    /// The predicate-tree node this filter evaluates.
    pub node: ExprId,
    /// Kept private (with [`Self::entries`] as the read path) so the entry
    /// list cannot drift out of sync with the hashed index — build a new
    /// map instead of mutating.
    entries: Vec<FilterTagEntry>,
    index: FxHashMap<Tag, u32>,
}

impl FilterTagMap {
    pub fn new(node: ExprId, entries: Vec<FilterTagEntry>) -> FilterTagMap {
        let index = entries
            .iter()
            .enumerate()
            .map(|(i, e)| (e.input.clone(), i as u32))
            .collect();
        FilterTagMap {
            node,
            entries,
            index,
        }
    }

    /// The entries, in construction order.
    pub fn entries(&self) -> &[FilterTagEntry] {
        &self.entries
    }

    pub fn entry_for(&self, tag: &Tag) -> Option<&FilterTagEntry> {
        self.index.get(tag).map(|&i| &self.entries[i as usize])
    }
}

/// One entry of a join's tag map (§2.3):
/// `(⟨left⟩, ⟨right⟩) → ⟨out⟩`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinTagEntry {
    pub left: Tag,
    pub right: Tag,
    pub out: Tag,
}

/// The tag map of one join operator. Slice pairings without an entry are
/// never joined; slices without any entry are discarded (§2.3).
#[derive(Debug, Clone, Default)]
pub struct JoinTagMap {
    pub entries: Vec<JoinTagEntry>,
}

/// The tag set a projection admits (§2.4).
#[derive(Debug, Clone, Default)]
pub struct ProjectionTags {
    pub allowed: Vec<Tag>,
}

/// Memoization table: one `RefCell<FxHashMap>` per derived quantity.
type Memo<K, V> = RefCell<FxHashMap<K, V>>;

/// A memo whose owned keys are slices of tags, probed with the borrowed
/// form: entries are bucketed by the Fx hash of the borrowed key, so a
/// hit hashes `(node, &[Tag])` in place and costs a refcount bump — only
/// a miss builds an owned key.
struct SliceMemo<K, V> {
    buckets: Memo<u64, Vec<(K, Arc<V>)>>,
}

impl<K, V> SliceMemo<K, V> {
    fn new() -> Self {
        SliceMemo {
            buckets: Memo::default(),
        }
    }

    fn get(&self, hash: u64, is_key: impl Fn(&K) -> bool) -> Option<Arc<V>> {
        let buckets = self.buckets.borrow();
        let bucket = buckets.get(&hash)?;
        bucket
            .iter()
            .find(|(k, _)| is_key(k))
            .map(|(_, v)| Arc::clone(v))
    }

    fn insert(&self, hash: u64, key: K, value: Arc<V>) {
        self.buckets
            .borrow_mut()
            .entry(hash)
            .or_default()
            .push((key, value));
    }
}

fn fx_hash(key: impl Hash) -> u64 {
    FxBuildHasher::default().hash_one(key)
}

/// Plan-time tag-map builder for one query's predicate tree.
///
/// Generalization, redundancy checks and join-pair outputs are memoized:
/// planners (especially TPullup's pull-one-node search and TCombined's
/// four-way comparison) re-derive the same tags thousands of times while
/// costing candidate plans, and the closure fixpoint is the hot path.
/// Caches are per-builder, i.e. per planning invocation — matching how
/// the paper measures planning time per run.
pub struct TagMapBuilder<'t> {
    tree: &'t PredicateTree,
    closure: Option<Closure>,
    strategy: TagMapStrategy,
    three_valued: bool,
    finish_cache: Memo<Tag, Option<Tag>>,
    redundant_cache: Memo<(ExprId, Tag), bool>,
    pair_cache: Memo<(Tag, Tag), Option<Tag>>,
    root_cache: Memo<Tag, Option<Truth>>,
    filter_map_cache: SliceMemo<(ExprId, Vec<Tag>), FilterTagMap>,
    join_map_cache: SliceMemo<(Vec<Tag>, Vec<Tag>), JoinTagMap>,
}

impl<'t> TagMapBuilder<'t> {
    pub fn new(tree: &'t PredicateTree, strategy: TagMapStrategy) -> Self {
        let closure = match strategy {
            TagMapStrategy::Generalized { use_closure: true } => Some(Closure::new(tree)),
            _ => None,
        };
        TagMapBuilder {
            tree,
            closure,
            strategy,
            three_valued: false,
            finish_cache: Memo::default(),
            redundant_cache: Memo::default(),
            pair_cache: Memo::default(),
            root_cache: Memo::default(),
            filter_map_cache: SliceMemo::new(),
            join_map_cache: SliceMemo::new(),
        }
    }

    /// Enable unknown outputs on filters (§3.4). Off by default: workloads
    /// without NULLs never produce unknown, and the extra map entries are
    /// pure overhead.
    pub fn with_three_valued(mut self, enabled: bool) -> Self {
        self.three_valued = enabled;
        self
    }

    pub fn tree(&self) -> &PredicateTree {
        self.tree
    }

    pub fn strategy(&self) -> TagMapStrategy {
        self.strategy
    }

    /// Does Precept 1 reject this truth value at the root?
    fn root_value_dead(&self, v: Truth) -> bool {
        match v {
            Truth::False => true,
            Truth::Unknown => true, // §3.4 change 4
            Truth::True => false,
        }
    }

    /// Generalize (per strategy); `None` means the tag is unsatisfiable or
    /// its root assignment is dead — either way the slice never reaches
    /// the output. Memoized.
    fn finish_tag(&self, tag: Tag) -> Option<Tag> {
        match self.strategy {
            TagMapStrategy::Naive => Some(tag),
            TagMapStrategy::Generalized { .. } => {
                if let Some(hit) = self.finish_cache.borrow().get(&tag) {
                    return hit.clone();
                }
                let result = (|| {
                    let g = generalize_tag_closed(self.tree, self.closure.as_ref(), &tag)?;
                    if let Some(v) = g.get(self.tree.root()) {
                        if self.root_value_dead(v) {
                            return None;
                        }
                    }
                    Some(g)
                })();
                self.finish_cache.borrow_mut().insert(tag, result.clone());
                result
            }
        }
    }

    /// Is applying `node` to a slice tagged `input` pointless (Precept 2 /
    /// subsumption)? Memoized.
    fn filter_redundant(&self, input: &Tag, node: ExprId) -> bool {
        if input.get(node).is_some() {
            return true;
        }
        let key = (node, input.clone());
        if let Some(&hit) = self.redundant_cache.borrow().get(&key) {
            return hit;
        }
        // Precept 2: every instance has an assigned ancestor. Subsumption:
        // the atom's outcome is already implied (`{year>2000 = T}` never
        // needs `year>1980` applied).
        let result = self.tree.is_covered(node, &|id| input.contains(id))
            || match &self.closure {
                Some(closure) if self.tree.is_atom(node) => {
                    closure.implied(&input.to_map(), node).is_some()
                }
                _ => false,
            };
        self.redundant_cache.borrow_mut().insert(key, result);
        result
    }

    /// Build a filter's tag map for the given input tag set (§3.3).
    /// Memoized on `(node, input tag set)` — candidate plans share
    /// unchanged subtrees, so planners hit this cache constantly, and
    /// every hit shares the one map.
    pub fn filter_map(&self, node: ExprId, input_tags: &[Tag]) -> Arc<FilterTagMap> {
        let hash = fx_hash((node, input_tags));
        let is_key = |(n, tags): &(ExprId, Vec<Tag>)| *n == node && tags == input_tags;
        if let Some(hit) = self.filter_map_cache.get(hash, is_key) {
            return hit;
        }
        let map = Arc::new(self.filter_map_uncached(node, input_tags));
        self.filter_map_cache
            .insert(hash, (node, input_tags.to_vec()), Arc::clone(&map));
        map
    }

    fn filter_map_uncached(&self, node: ExprId, input_tags: &[Tag]) -> FilterTagMap {
        let mut entries = Vec::new();
        for input in input_tags {
            match self.strategy {
                TagMapStrategy::Naive => {
                    let pos = Some(input.with(node, Truth::True));
                    let neg = Some(input.with(node, Truth::False));
                    let unk = self.three_valued.then(|| input.with(node, Truth::Unknown));
                    entries.push(FilterTagEntry {
                        input: input.clone(),
                        pos,
                        neg,
                        unk,
                    });
                }
                TagMapStrategy::Generalized { .. } => {
                    if self.filter_redundant(input, node) {
                        continue; // pass-through, no entry
                    }
                    let pos = self.finish_tag(input.with(node, Truth::True));
                    let neg = self.finish_tag(input.with(node, Truth::False));
                    let unk = if self.three_valued {
                        self.finish_tag(input.with(node, Truth::Unknown))
                    } else {
                        None
                    };
                    entries.push(FilterTagEntry {
                        input: input.clone(),
                        pos,
                        neg,
                        unk,
                    });
                }
            }
        }
        FilterTagMap::new(node, entries)
    }

    /// The tag set flowing out of a filter: outputs of matched entries
    /// plus untouched pass-through tags, deduplicated in order.
    pub fn filter_output_tags(&self, map: &FilterTagMap, input_tags: &[Tag]) -> Vec<Tag> {
        let mut out: Vec<Tag> = Vec::new();
        let mut push = |t: &Tag| {
            if !out.contains(t) {
                out.push(t.clone());
            }
        };
        for input in input_tags {
            match map.entry_for(input) {
                None => push(input),
                Some(e) => {
                    if let Some(t) = &e.pos {
                        push(t);
                    }
                    if let Some(t) = &e.neg {
                        push(t);
                    }
                    if let Some(t) = &e.unk {
                        push(t);
                    }
                }
            }
        }
        out
    }

    /// Build a join's tag map over the Cartesian product of input tag
    /// sets, keeping only pairings that can still reach the output (§3.3).
    /// Memoized on the input tag sets; every hit shares the one map.
    pub fn join_map(&self, left_tags: &[Tag], right_tags: &[Tag]) -> Arc<JoinTagMap> {
        let hash = fx_hash((left_tags, right_tags));
        let is_key = |(l, r): &(Vec<Tag>, Vec<Tag>)| l == left_tags && r == right_tags;
        if let Some(hit) = self.join_map_cache.get(hash, is_key) {
            return hit;
        }
        let map = Arc::new(self.join_map_uncached(left_tags, right_tags));
        self.join_map_cache.insert(
            hash,
            (left_tags.to_vec(), right_tags.to_vec()),
            Arc::clone(&map),
        );
        map
    }

    fn join_map_uncached(&self, left_tags: &[Tag], right_tags: &[Tag]) -> JoinTagMap {
        let mut entries = Vec::new();
        for l in left_tags {
            for r in right_tags {
                let key = (l.clone(), r.clone());
                let cached = self.pair_cache.borrow().get(&key).cloned();
                let out = match cached {
                    Some(hit) => hit,
                    None => {
                        // Conflicting unions are impossible pairings;
                        // root-dead outputs are Precept 1 discards.
                        let computed = l.union(r).and_then(|u| self.finish_tag(u));
                        self.pair_cache.borrow_mut().insert(key, computed.clone());
                        computed
                    }
                };
                if let Some(out) = out {
                    entries.push(JoinTagEntry {
                        left: l.clone(),
                        right: r.clone(),
                        out,
                    });
                }
            }
        }
        JoinTagMap { entries }
    }

    /// Output tag set of a join map, deduplicated in order.
    pub fn join_output_tags(&self, map: &JoinTagMap) -> Vec<Tag> {
        let mut out: Vec<Tag> = Vec::new();
        for e in &map.entries {
            if !out.contains(&e.out) {
                out.push(e.out.clone());
            }
        }
        out
    }

    /// The projection's allowed tag set: tags that determine the root to
    /// *true* (§2.4 / §3.3 "restrict the set of allowed tags to only the
    /// tag with a true assignment to the root node").
    pub fn projection_tags(&self, tags: &[Tag]) -> ProjectionTags {
        let closure = match self.strategy {
            TagMapStrategy::Naive => None,
            _ => self.closure.as_ref(),
        };
        let allowed = tags
            .iter()
            .filter(|t| {
                if let Some(hit) = self.root_cache.borrow().get(*t) {
                    return *hit == Some(Truth::True);
                }
                let v = root_truth(self.tree, closure, t);
                self.root_cache.borrow_mut().insert((*t).clone(), v);
                v == Some(Truth::True)
            })
            .cloned()
            .collect();
        ProjectionTags { allowed }
    }

    /// Convenience for tests/diagnostics: generalize one tag under this
    /// builder's settings.
    pub fn generalize(&self, tag: &Tag) -> Option<Tag> {
        match self.strategy {
            TagMapStrategy::Naive => Some(generalize_tag(self.tree, tag)),
            TagMapStrategy::Generalized { .. } => {
                generalize_tag_closed(self.tree, self.closure.as_ref(), tag)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use basilisk_expr::{and, col, or, Expr};

    /// Query 1 plus handles to its parts.
    struct Q1 {
        tree: PredicateTree,
        p1: ExprId, // t.year > 2000
        p2: ExprId, // t.year > 1980
        p3: ExprId, // mi.score > '8.0'
        p4: ExprId, // mi.score > '7.0'
        a1: ExprId, // p1 ∧ p4
        #[allow(dead_code)]
        a2: ExprId, // p2 ∧ p3
    }

    fn query1() -> Q1 {
        let e: Expr = or(vec![
            and(vec![
                col("t", "year").gt(2000i64),
                col("mi", "score").gt("7.0"),
            ]),
            and(vec![
                col("t", "year").gt(1980i64),
                col("mi", "score").gt("8.0"),
            ]),
        ]);
        let tree = PredicateTree::build(&e);
        let find = |s: &str| {
            tree.atom_ids()
                .into_iter()
                .find(|&id| tree.display(id) == s)
                .unwrap()
        };
        let p1 = find("t.year > 2000");
        let p2 = find("t.year > 1980");
        let p3 = find("mi.score > '8.0'");
        let p4 = find("mi.score > '7.0'");
        let a1 = tree.parents(p1)[0];
        let a2 = tree.parents(p2)[0];
        Q1 {
            tree,
            p1,
            p2,
            p3,
            p4,
            a1,
            a2,
        }
    }

    fn builder(q: &Q1) -> TagMapBuilder<'_> {
        TagMapBuilder::new(&q.tree, TagMapStrategy::Generalized { use_closure: true })
    }

    /// The full §2.2/§2.3 walkthrough of Query 1 at the tag level.
    #[test]
    fn query1_filter_chain_matches_paper() {
        let q = query1();
        let b = builder(&q);

        // Filter P1 over the base [{}".
        let m1 = b.filter_map(q.p1, &[Tag::empty()]);
        assert_eq!(m1.entries.len(), 1);
        let e = &m1.entries[0];
        // pos: {P1=T} enriched by subsumption with P2=T.
        let pos = e.pos.as_ref().unwrap();
        assert_eq!(pos.get(q.p1), Some(Truth::True));
        assert_eq!(pos.get(q.p2), Some(Truth::True));
        // neg: {P1=F} generalizes to {A1=F} (the §3.3 example).
        let neg = e.neg.as_ref().unwrap();
        assert_eq!(neg, &Tag::from_pairs([(q.a1, Truth::False)]));

        let tags1 = b.filter_output_tags(&m1, &[Tag::empty()]);
        assert_eq!(tags1.len(), 2);

        // Filter P2: the pos slice already knows P2 (subsumption) →
        // pass-through; only {A1=F} gets an entry.
        let m2 = b.filter_map(q.p2, &tags1);
        assert_eq!(m2.entries.len(), 1);
        let e = &m2.entries[0];
        assert_eq!(e.input, Tag::from_pairs([(q.a1, Truth::False)]));
        // pos: {A1=F, P2=T}.
        assert_eq!(
            e.pos.as_ref().unwrap(),
            &Tag::from_pairs([(q.a1, Truth::False), (q.p2, Truth::True)])
        );
        // neg: P2=F ⇒ (closure) P1=F ⇒ A2=F ∧ A1=F ⇒ root=F → dropped
        // (Precept 1: "the planner should omit the negative output tag").
        assert_eq!(e.neg, None);

        let left_tags = b.filter_output_tags(&m2, &tags1);
        assert_eq!(left_tags.len(), 2);

        // Right side: P3 then P4 over mi's base.
        let m3 = b.filter_map(q.p3, &[Tag::empty()]);
        let tags3 = b.filter_output_tags(&m3, &[Tag::empty()]);
        let m4 = b.filter_map(q.p4, &tags3);
        assert_eq!(m4.entries.len(), 1, "{{P3=T}} slice passes through");
        let right_tags = b.filter_output_tags(&m4, &tags3);
        assert_eq!(right_tags.len(), 2);

        // Join: 2×2 pairings, one (both clauses dead) omitted — exactly
        // the entry the paper's §2.3 example leaves out.
        let jm = b.join_map(&left_tags, &right_tags);
        assert_eq!(jm.entries.len(), 3);
        for e in &jm.entries {
            assert_eq!(
                e.out,
                Tag::from_pairs([(q.tree.root(), Truth::True)]),
                "every surviving pairing fully satisfies Query 1"
            );
        }
        let outs = b.join_output_tags(&jm);
        assert_eq!(outs.len(), 1);

        // Projection admits the root-true tag.
        let proj = b.projection_tags(&outs);
        assert_eq!(proj.allowed, outs);
    }

    /// Without the subsumption closure, the engine does strictly more
    /// work: P2 must be applied to the {P1=T} slice too.
    #[test]
    fn without_closure_more_entries() {
        let q = query1();
        let b = TagMapBuilder::new(&q.tree, TagMapStrategy::Generalized { use_closure: false });
        let m1 = b.filter_map(q.p1, &[Tag::empty()]);
        let tags1 = b.filter_output_tags(&m1, &[Tag::empty()]);
        // pos tag is plain {P1=T} (no enrichment).
        assert!(tags1.contains(&Tag::from_pairs([(q.p1, Truth::True)])));
        let m2 = b.filter_map(q.p2, &tags1);
        assert_eq!(
            m2.entries.len(),
            2,
            "both slices get entries without subsumption"
        );
    }

    /// Precept 2 proper (ancestor coverage, no closure needed): applying
    /// P4 to a slice tagged {A1=F} where P4's only instance sits under A1…
    /// wait — P4 is under A1 only, so {A1=F} covers it.
    #[test]
    fn precept2_coverage_skips() {
        let q = query1();
        let b = TagMapBuilder::new(&q.tree, TagMapStrategy::Generalized { use_closure: false });
        let input = Tag::from_pairs([(q.a1, Truth::False)]);
        let m = b.filter_map(q.p4, std::slice::from_ref(&input));
        assert!(
            m.entries.is_empty(),
            "P4's only instance is under A1, which is assigned"
        );
        // But P3 (under A2) is NOT covered by {A1=F}.
        let m = b.filter_map(q.p3, &[input]);
        assert_eq!(m.entries.len(), 1);
    }

    /// Root-level semantics: a filter over the root node with a true
    /// assignment admits everything; tuples failing it are dropped.
    #[test]
    fn filter_on_root_node() {
        let q = query1();
        let b = builder(&q);
        let m = b.filter_map(q.tree.root(), &[Tag::empty()]);
        assert_eq!(m.entries.len(), 1);
        let e = &m.entries[0];
        assert_eq!(
            e.pos.as_ref().unwrap(),
            &Tag::from_pairs([(q.tree.root(), Truth::True)])
        );
        assert_eq!(e.neg, None, "root-false is dead by Precept 1");
    }

    /// Naive strategy (§3.1): both outcomes always, joins are full
    /// Cartesian products, tag count doubles per filter.
    #[test]
    fn naive_strategy_blows_up() {
        let q = query1();
        let b = TagMapBuilder::new(&q.tree, TagMapStrategy::Naive);
        let mut tags = vec![Tag::empty()];
        for node in [q.p1, q.p2] {
            let m = b.filter_map(node, &tags);
            assert_eq!(m.entries.len(), tags.len());
            tags = b.filter_output_tags(&m, &tags);
        }
        assert_eq!(tags.len(), 4, "2^2 tags after two filters");
        // Join with a 2-tag right side: full product.
        let right = vec![
            Tag::from_pairs([(q.p3, Truth::True)]),
            Tag::from_pairs([(q.p3, Truth::False)]),
        ];
        let jm = b.join_map(&tags, &right);
        assert_eq!(jm.entries.len(), 8);
        // Projection still prunes to satisfying combinations: only tags
        // with P2=T ∧ P3=T determine the root (clause 2) — clause 1 would
        // additionally need P4, which no filter has applied.
        let outs = b.join_output_tags(&jm);
        let proj = b.projection_tags(&outs);
        assert_eq!(proj.allowed.len(), 2);
        for t in &proj.allowed {
            assert_eq!(t.get(q.p2), Some(Truth::True));
            assert_eq!(t.get(q.p3), Some(Truth::True));
        }
    }

    /// Three-valued mode: filters emit unknown outputs; unknown at the
    /// root is dead (Precept 1 extension, §3.4 change 4).
    #[test]
    fn three_valued_filter_outputs() {
        let q = query1();
        let b = TagMapBuilder::new(&q.tree, TagMapStrategy::Generalized { use_closure: true })
            .with_three_valued(true);
        let m = b.filter_map(q.p1, &[Tag::empty()]);
        let e = &m.entries[0];
        // P1=U means year IS NULL ⇒ P2=U too ⇒ A1=U, A2 undetermined
        // until score known… A2 gets U∧? — P2=U alone doesn't finish A2.
        let unk = e.unk.as_ref().unwrap();
        assert_eq!(unk.get(q.p1).or(unk.get(q.a1)), Some(Truth::Unknown));
        // A filter on the root with 3VL: unknown output is dead.
        let m = b.filter_map(q.tree.root(), &[Tag::empty()]);
        assert_eq!(m.entries[0].unk, None);
    }

    /// Entries whose every output died signal "drop the slice".
    #[test]
    fn dead_entry_drops_slice() {
        // Single-predicate query: x < 5. Tag {} filtered by root.
        let e: Expr = col("t", "x").lt(5i64);
        let tree = PredicateTree::build(&e);
        let b = TagMapBuilder::new(&tree, TagMapStrategy::Generalized { use_closure: true });
        let m = b.filter_map(tree.root(), &[Tag::empty()]);
        let entry = &m.entries[0];
        assert!(entry.pos.is_some());
        assert!(entry.neg.is_none());
        // Now an impossible second filter: x > 9 on the {root=T} slice —
        // pos branch is contradictory, neg branch stays root-true.
        let e2: Expr = and(vec![col("t", "x").lt(5i64), col("t", "x").lt(100i64)]);
        let tree2 = PredicateTree::build(&e2);
        let b2 = TagMapBuilder::new(&tree2, TagMapStrategy::Generalized { use_closure: true });
        let find = |s: &str| {
            tree2
                .atom_ids()
                .into_iter()
                .find(|&id| tree2.display(id) == s)
                .unwrap()
        };
        let lt5 = find("t.x < 5");
        let lt100 = find("t.x < 100");
        // {lt5=T} already implies lt100=T → redundant, no entry.
        let input = Tag::from_pairs([(lt5, Truth::True)]);
        let m = b2.filter_map(lt100, &[input]);
        assert!(m.entries.is_empty());
    }

    /// Join entries with conflicting tag unions are skipped.
    #[test]
    fn join_conflicting_union_skipped() {
        let q = query1();
        let b = builder(&q);
        let l = vec![Tag::from_pairs([(q.p1, Truth::True)])];
        let r = vec![Tag::from_pairs([(q.p1, Truth::False)])];
        let jm = b.join_map(&l, &r);
        assert!(jm.entries.is_empty());
    }

    #[test]
    fn projection_requires_definite_true() {
        let q = query1();
        let b = builder(&q);
        let undetermined = Tag::from_pairs([(q.p1, Truth::True)]);
        let dead = Tag::from_pairs([(q.tree.root(), Truth::False)]);
        let alive = Tag::from_pairs([(q.tree.root(), Truth::True)]);
        let proj = b.projection_tags(&[undetermined.clone(), dead, alive.clone()]);
        // {P1=T} closure-implies P2=T but P3/P4 are unknown → undetermined.
        assert_eq!(proj.allowed, vec![alive]);
        let _ = undetermined;
    }
}
