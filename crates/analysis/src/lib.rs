//! # ddb-analysis — static analysis for disjunctive databases
//!
//! This crate analyzes a [`Database`](ddb_logic::Database) *before* any
//! solver runs, so that dispatch can route easy fragments to polynomial
//! algorithms and `ddb check` can refuse malformed inputs with real
//! diagnostics:
//!
//! * the atom-level **dependency graph** with positive/negative edge
//!   labels and Tarjan SCC decomposition — re-exported from
//!   [`ddb_logic::depgraph`], which is the single canonical home of the
//!   stratification algorithm (`Database::stratification` delegates
//!   there, and so does this crate; Cargo's acyclic crate graph is why
//!   the algorithm lives in the substrate);
//! * a **fragment classifier** ([`Fragments`]) detecting Horn, definite,
//!   positive, deductive, stratified, head-cycle-free and tight databases;
//! * a **lint pass** ([`lint`]) emitting structured [`Diagnostic`]s with
//!   stable codes and severities (catalog in `docs/ANALYSIS.md`);
//! * the **shift** transformation ([`shift`]) that turns head-cycle-free
//!   disjunctive databases into equivalent normal programs;
//! * **query-relevant slicing** ([`relevant_slice`], [`demand_closure`]):
//!   the least sub-database that can influence a query formula — minus
//!   dead rules when pruning is sound — with the splitting-set closure
//!   check that decides when answering on the slice is exact;
//! * **bottom-up splitting evaluation** ([`peel`]): solve the
//!   deterministic bottom levels of the SCC condensation and partially
//!   evaluate their consequences into a smaller residual program;
//! * the **static query planner** ([`plan`]): the routing decision kernel
//!   ([`decide`]) dispatch executes, and the full predicted plan tree
//!   ([`build_plan`]) `ddb explain` prints, with binding-pattern
//!   adornments ([`adorn()`]) and the domain/cost estimators ([`cost`])
//!   feeding its class and oracle-call bounds;
//! * the **magic-sets rewrite** ([`magic`]): the guarded program
//!   transform ([`magic::rewrite`]) of a query's demand closure that
//!   `ddb rewrite` prints, with SIP strategy selection ([`sip`]);
//! * **prepared databases** ([`Prepared`]): the facts above that depend
//!   only on the database — fragments, stratification, the supportable
//!   closure, rule indexes, peels and islands — memoized per database, so
//!   a served database is analysed once, not on every query;
//! * an [`AnalysisReport`] bundling all of the above ([`analyze`]).

pub mod adorn;
pub mod cost;
pub mod fragments;
pub mod lints;
pub mod magic;
pub mod plan;
pub mod prepared;
pub mod report;
pub mod schedule;
pub mod sip;
pub mod slice;
pub mod splitting;
pub mod transform;

pub use adorn::{adorn, Adornments, PredicateAdornment};
pub use cost::{oracle_call_bound, DomainEstimate};
pub use ddb_logic::depgraph::{DepGraph, EdgeKind, Sccs};
pub use fragments::{classify, Fragment, Fragments};
pub use lints::{lint, Diagnostic, Severity};
pub use magic::{MagicProgram, MAGIC_PREFIX};
pub use plan::{
    admission, bound_query, build_plan, decide, decide_peel_residual, plan_lints, prunes_dead,
    tail_route, Admission, Decision, PlanData, PlanNode, PlanQuery, RouteKind, SemanticsTraits,
};
pub use prepared::{AsPrepared, Prepared};
pub use report::{analyze, AnalysisReport};
pub use schedule::islands;
pub use slice::{demand_closure, project_slice, project_top, relevant_slice, AtomMap, Slice};
pub use splitting::{layering, peel, peel_with, Layering, Peel};
pub use transform::shift;
