//! Planning for tagged execution (§4) and the traditional baselines (§5).
//!
//! * [`Query`] — the logical query: aliased tables, equi-join conditions,
//!   a predicate expression, and a projection list.
//! * [`APlan`] — the abstract operator tree planners manipulate (pull-up /
//!   push-down rewrites included).
//! * [`CostModel`] / [`annotate_tagged`] / [`cost_traditional`] — the §4.1
//!   cost models. Tagged costs are sums over relational slices; the tagged
//!   annotation pass simultaneously builds every operator's tag map by
//!   simulating tag flow bottom-up.
//! * [`benefit`] — the Appendix A benefit score (Algorithm 3) and
//!   "benefiting order".
//! * [`planners`] — TPushdown, TPullup (Algorithm 2), TIterPush,
//!   TPushConj, TCombined and the traditional baselines BDisj and
//!   BPushConj, all sharing the greedy smallest-output join ordering.
//! * [`QuerySession`] — one-stop API: build a session from a catalog and a
//!   query, plan under any planner, execute, and collect timings.

#![forbid(unsafe_code)]

mod aplan;
pub mod benefit;
mod cost;
mod executor;
mod join_order;
pub mod planners;
mod query;
mod session;

pub use aplan::APlan;
pub use cost::{annotate_tagged, cost_traditional, CostModel, TPlan, TaggedAnnotation};
pub use executor::{execute_tagged, execute_traditional};
pub use join_order::{greedy_join_tree, local_survival};
pub use planners::PlannerKind;
pub use query::{JoinCond, Query};
pub use session::{
    atom_has_null_literal, ExecContext, Plan, PlanTimings, QueryOutput, QuerySession,
};
