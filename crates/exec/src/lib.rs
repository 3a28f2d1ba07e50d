//! The traditional (untagged) execution engine.
//!
//! This is the baseline execution model of §1: operators consume and
//! produce plain relations. Like the paper's system, intermediates are
//! **index relations** (§2.5.1): an `n`-tuple is `n` row indices into the
//! `n` base tables it joins; values are only materialized at projection
//! time (or to evaluate a predicate / join key).
//!
//! The same [`IdxRelation`] / [`TableSet`] machinery is reused by the
//! tagged engine in `basilisk-core`, which differs only in carrying a
//! tag → bitmap map alongside the index relation.

#![forbid(unsafe_code)]

mod hash;
mod ops;
mod par;
mod relation;

pub use hash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher, JoinTable};
pub use ops::{combine, filter, hash_join, project_in, union_all_dedup};
pub use par::{Emit, ExecCtx};
pub use relation::{IdxRelation, RelProvider, TableSet};
