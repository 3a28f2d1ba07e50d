//! The tagged execution model (§2–§3) — the paper's primary contribution.
//!
//! In tagged execution, operators work on **tagged relations**: an
//! immutable index relation plus a set of mutually exclusive *relational
//! slices*, each annotated with a [`Tag`] — a set of truth assignments to
//! predicate-tree nodes. Filters and joins are driven by **tag maps** built
//! at plan time, which tell the engine exactly which slices to touch and
//! what to label the results, eliminating the redundant work traditional
//! engines do on disjunctive queries.
//!
//! Module map:
//!
//! * `tag` — tags and their rendering.
//! * `generalize` — **tag generalization** (Algorithm 1): upward
//!   propagation over the predicate tree with duplicate-instance handling
//!   and the three-valued extension of §3.4; optionally enriched by the
//!   atom implication closure of `basilisk-expr`.
//! * `relation` — tagged relations as bitmap-sliced index relations
//!   (§2.5.1).
//! * `tagmap` — tag-map construction (§3.3: Precepts 1 and 2) plus the
//!   naive strategy of §3.1 kept for ablation.
//! * `ops` — the tagged filter (§2.2/§2.5.2), the shared-hash-table
//!   tagged join (§2.3/§2.5.3) and the tag-filtered selection (§2.4);
//!   every operator runs against the caller's
//!   [`basilisk_exec::ExecCtx`] — serial or morsel-parallel by its
//!   `pool` — draws its mask/bitmap scratch from the context's arena
//!   and recycles it before returning, so steady-state pipelines are
//!   allocation-free. At the root of a `COUNT(*)` plan the filter, the
//!   join and the final selection emit only the admitted count
//!   ([`basilisk_exec::Emit`]).

#![forbid(unsafe_code)]

mod generalize;
mod ops;
mod relation;
mod tag;
mod tagmap;

pub use generalize::{generalize_tag, generalize_tag_closed, root_truth};
pub use ops::{tagged_filter, tagged_join, tagged_select_final};
pub use relation::TaggedRelation;
pub use tag::Tag;
pub use tagmap::{
    FilterTagEntry, FilterTagMap, JoinTagEntry, JoinTagMap, ProjectionTags, TagMapBuilder,
    TagMapStrategy,
};
