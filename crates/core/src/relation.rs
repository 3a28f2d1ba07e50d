//! Tagged relations (§2.1, §2.5.1).
//!
//! > "Basilisk is a column-oriented system, so intermediate
//! > representations of relations contain tuples of indices rather than
//! > tuples of actual values. [...] tagged relations are constructed by
//! > creating an accompanying hash table of bitmaps. Tags serve as keys to
//! > the hash table, and each bitmap specifies which tuples belong to
//! > which relational slice."
//!
//! Slices are mutually exclusive; tuples that belong to no slice stay in
//! the index relation (filters never rewrite it — §2.5.2) but are invisible
//! to downstream operators.

use std::collections::HashMap;

use basilisk_exec::IdxRelation;
use basilisk_types::{Bitmap, MaskArena};

use crate::tag::Tag;

/// An index relation plus its tag → bitmap slice map.
#[derive(Clone)]
pub struct TaggedRelation {
    relation: IdxRelation,
    /// Slice list (kept in insertion order for deterministic execution)
    /// with a tag index for merging.
    slices: Vec<(Tag, Bitmap)>,
    by_tag: HashMap<Tag, usize>,
}

impl TaggedRelation {
    /// Wrap a base relation: one slice with the empty tag covering all
    /// tuples ("base tagged relations [...] contain only one relational
    /// slice with the 'empty' tag"). The all-tuples bitmap is drawn from
    /// `arena`, so even the pipeline's source bitmap is pooled.
    pub fn base_in(relation: IdxRelation, arena: &MaskArena) -> TaggedRelation {
        let all = arena.bitmap_ones(relation.len());
        if all.is_zero() {
            // Zero-row scan: `from_slices` drops empty slices without
            // recycling, which would leak the pooled bitmap — hand it
            // back and build the (sliceless) relation directly.
            arena.recycle_bitmap(all);
            return TaggedRelation::from_slices(relation, vec![]);
        }
        TaggedRelation::from_slices(relation, vec![(Tag::empty(), all)])
    }

    /// Assemble from explicit slices. Empty slices are dropped (the paper
    /// removes zero-tuple slices for performance); duplicate tags merge.
    pub fn from_slices(relation: IdxRelation, slices: Vec<(Tag, Bitmap)>) -> TaggedRelation {
        let mut out = TaggedRelation {
            relation,
            slices: Vec::new(),
            by_tag: HashMap::new(),
        };
        for (tag, bm) in slices {
            out.add_slice(tag, bm);
        }
        out
    }

    /// The underlying index relation (never rewritten by filters).
    pub fn relation(&self) -> &IdxRelation {
        &self.relation
    }

    /// Number of tuples in the underlying relation (tagged or not).
    pub fn num_tuples(&self) -> usize {
        self.relation.len()
    }

    /// The slices, in deterministic order.
    pub fn slices(&self) -> &[(Tag, Bitmap)] {
        &self.slices
    }

    pub fn num_slices(&self) -> usize {
        self.slices.len()
    }

    pub fn tags(&self) -> Vec<Tag> {
        self.slices.iter().map(|(t, _)| t.clone()).collect()
    }

    /// Bitmap of one slice, if present.
    pub fn slice(&self, tag: &Tag) -> Option<&Bitmap> {
        self.by_tag.get(tag).map(|&i| &self.slices[i].1)
    }

    /// Add (or merge into) a slice. Empty bitmaps are ignored.
    pub fn add_slice(&mut self, tag: Tag, bitmap: Bitmap) {
        assert_eq!(
            bitmap.len(),
            self.relation.len(),
            "slice bitmap length must match relation"
        );
        if bitmap.is_zero() {
            return;
        }
        match self.by_tag.get(&tag) {
            Some(&i) => self.slices[i].1.union_with(&bitmap),
            None => {
                self.by_tag.insert(tag.clone(), self.slices.len());
                self.slices.push((tag, bitmap));
            }
        }
    }

    /// Number of tuples belonging to any slice — the slices' popcounts,
    /// summed, since slices are mutually exclusive.
    pub fn num_tagged_tuples(&self) -> usize {
        self.slices.iter().map(|(_, bm)| bm.count_ones()).sum()
    }

    /// Union of the slices whose tags are in `tags` (missing tags are
    /// ignored: the planner may reference tags that turned out empty),
    /// into a buffer checked out of `arena` — recycle when done.
    pub fn union_of_in(&self, tags: &[Tag], arena: &MaskArena) -> Bitmap {
        let mut out = arena.bitmap(self.relation.len());
        for t in tags {
            if let Some(bm) = self.slice(t) {
                out.union_with(bm);
            }
        }
        out
    }

    /// Hand every slice bitmap — and the index relation's columns — back
    /// to `arena`, consuming the relation: the recycle step executors run
    /// once an operator has consumed its input. Index columns still
    /// `Arc`-shared with a downstream relation (filters never rewrite the
    /// relation, so their outputs alias their inputs' columns) are left
    /// to that holder's recycle; sole-owned columns are reclaimed via
    /// `Arc::try_unwrap` into the pool.
    pub fn recycle(self, arena: &MaskArena) {
        for (_, bm) in self.slices {
            arena.recycle_bitmap(bm);
        }
        self.relation.recycle(arena);
    }

    /// Per-tuple slice membership, in an index buffer checked out of
    /// `arena` (recycle it when done): entry `i` is the index (into
    /// [`slices`](Self::slices)) of the slice containing tuple `i`, or
    /// `u32::MAX` when tuple `i` is in no slice. Relies on mutual
    /// exclusivity.
    pub fn slice_membership(&self, arena: &MaskArena) -> Vec<u32> {
        let mut out = arena.indices();
        out.resize(self.relation.len(), u32::MAX);
        for (s, (_, bm)) in self.slices.iter().enumerate() {
            for i in bm.iter_ones() {
                debug_assert_eq!(out[i], u32::MAX, "slices must be mutually exclusive");
                out[i] = s as u32;
            }
        }
        out
    }

    /// Verify the §2.1 invariant that slices are pairwise disjoint
    /// (used by tests and debug assertions).
    pub fn check_mutually_exclusive(&self) -> bool {
        for i in 0..self.slices.len() {
            for j in (i + 1)..self.slices.len() {
                if !self.slices[i].1.is_disjoint(&self.slices[j].1) {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use basilisk_expr::ExprId;
    use basilisk_types::Truth;

    /// A base index relation over a throwaway arena.
    fn idx(rows: usize) -> IdxRelation {
        IdxRelation::base_in("t", rows, &MaskArena::new())
    }

    fn tag(n: u32) -> Tag {
        Tag::from_pairs([(ExprId(n), Truth::True)])
    }

    #[test]
    fn base_has_one_full_empty_tag_slice() {
        let tr = TaggedRelation::base_in(idx(5), &MaskArena::new());
        assert_eq!(tr.num_tuples(), 5);
        assert_eq!(tr.num_slices(), 1);
        assert_eq!(tr.slices()[0].0, Tag::empty());
        assert_eq!(tr.slices()[0].1.count_ones(), 5);
        assert_eq!(tr.num_tagged_tuples(), 5);
        assert!(tr.check_mutually_exclusive());
    }

    #[test]
    fn add_merge_and_drop_empty() {
        let mut tr = TaggedRelation::from_slices(idx(8), vec![]);
        assert_eq!(tr.num_slices(), 0);
        tr.add_slice(tag(1), Bitmap::from_indices(8, [0usize, 1]));
        tr.add_slice(tag(2), Bitmap::from_indices(8, [2usize]));
        tr.add_slice(tag(1), Bitmap::from_indices(8, [3usize]));
        tr.add_slice(tag(3), Bitmap::new(8)); // empty → dropped
        assert_eq!(tr.num_slices(), 2);
        assert_eq!(tr.slice(&tag(1)).unwrap().to_indices(), vec![0, 1, 3]);
        assert_eq!(tr.slice(&tag(2)).unwrap().to_indices(), vec![2]);
        assert!(tr.slice(&tag(3)).is_none());
        assert_eq!(tr.num_tagged_tuples(), 4);
    }

    #[test]
    fn union_of_selected_tags() {
        let tr = TaggedRelation::from_slices(
            idx(6),
            vec![
                (tag(1), Bitmap::from_indices(6, [0usize, 1])),
                (tag(2), Bitmap::from_indices(6, [3usize])),
                (tag(3), Bitmap::from_indices(6, [5usize])),
            ],
        );
        let u = tr.union_of_in(&[tag(1), tag(3), tag(9)], &MaskArena::new());
        assert_eq!(u.to_indices(), vec![0, 1, 5]);
        let all = tr.union_of_in(&tr.tags(), &MaskArena::new());
        assert_eq!(all.to_indices(), vec![0, 1, 3, 5]);
        assert_eq!(tr.num_tagged_tuples(), all.count_ones());
        assert_eq!(tr.tags().len(), 3);
    }

    #[test]
    fn membership_vector() {
        let tr = TaggedRelation::from_slices(
            idx(4),
            vec![
                (tag(1), Bitmap::from_indices(4, [2usize])),
                (tag(2), Bitmap::from_indices(4, [0usize])),
            ],
        );
        let arena = MaskArena::new();
        let membership = tr.slice_membership(&arena);
        assert_eq!(membership, vec![1, u32::MAX, 0, u32::MAX]);
        arena.recycle_indices(membership);
        assert_eq!(arena.outstanding(), 0);
        assert!(tr.check_mutually_exclusive());
    }

    #[test]
    fn exclusivity_violation_detected() {
        let mut tr = TaggedRelation::from_slices(idx(4), vec![]);
        tr.add_slice(tag(1), Bitmap::from_indices(4, [1usize, 2]));
        tr.add_slice(tag(2), Bitmap::from_indices(4, [2usize, 3]));
        assert!(!tr.check_mutually_exclusive());
    }

    #[test]
    #[should_panic(expected = "length")]
    fn wrong_bitmap_length_panics() {
        let mut tr = TaggedRelation::base_in(idx(4), &MaskArena::new());
        tr.add_slice(tag(1), Bitmap::new(5));
    }
}
