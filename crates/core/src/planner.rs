//! Bridge between [`SemanticsConfig`] and the semantics-agnostic planner
//! in [`ddb_analysis::plan`].
//!
//! The analysis crate's decision kernel ([`ddb_analysis::decide`]) knows
//! nothing about the ten semantics; everything semantics-specific is
//! funneled through [`SemanticsTraits`], and [`traits_for`] is the one
//! place those traits are derived from a [`SemanticsConfig`]:
//!
//! * the minimal-model determinedness of formula queries
//!   ([`mm_determined`], which `ddb slice` and `ddb rewrite` read too);
//! * the peel gate ([`crate::slicing::peel_mode`]);
//! * the HCF shift (DSM only) and the Horn collapse (default structure
//!   only);
//! * the routing mode and the `no_slice` inner-call marker;
//! * the paper's complexity class for the (semantics, problem) cell, in
//!   Table 1 and in Table 2 ([`crate::profile::paper_cell`]).
//!
//! `dispatch` calls the kernel on every query and executes the returned
//! [`Decision`]; `ddb explain` calls [`SemanticsConfig::plan`], which
//! builds the plan tree from the same kernel — both feed the *same* traits
//! into it, so the predicted route always matches the executed one.

use crate::dispatch::{RoutingMode, SemanticsConfig, SemanticsId};
use crate::profile::{paper_cell, Fragment, Problem};
use ddb_analysis::{Decision, Fragments, PlanQuery, Prepared, SemanticsTraits};
use ddb_logic::Database;

/// The paper's problem row a [`PlanQuery`] is scored against. Enumeration
/// has no row of its own; its gating (and its complexity floor) is the
/// existence problem's.
pub fn problem_of(q: &PlanQuery) -> Problem {
    match q {
        PlanQuery::Literal(_) => Problem::Literal,
        PlanQuery::Formula(_) => Problem::Formula,
        PlanQuery::Existence | PlanQuery::Enumeration => Problem::Existence,
    }
}

/// Whether a query's answer under `id` is determined by the
/// minimal-model set — the precondition of the positive-exact slice
/// admission and of dead-rule pruning. Literal answers are, under all ten
/// semantics. Formula answers are too, except under GCWA and CCWA: their
/// characteristic model sets keep **non-minimal** models, and a non-slice
/// rule whose head is inferred false turns into an invisible constraint
/// on them (`c :- a, b.` with `¬c` inferred prunes the non-minimal
/// `{a, b}`).
pub fn mm_determined(id: SemanticsId, literal_query: bool) -> bool {
    literal_query || !matches!(id, SemanticsId::Gcwa | SemanticsId::Ccwa)
}

/// Derives the routing-relevant traits of `cfg` for one problem — the
/// single source of the facts the planner kernel consumes.
pub fn traits_for(cfg: &SemanticsConfig, problem: Problem) -> SemanticsTraits {
    SemanticsTraits {
        name: cfg.id.name(),
        mm_determined_formulas: mm_determined(cfg.id, false),
        peel_negation: crate::slicing::peel_mode(cfg.id),
        hcf_shift: cfg.id == SemanticsId::Dsm,
        horn_collapse: cfg.has_default_structure(),
        reductions: cfg.routing == RoutingMode::Auto
            && !cfg.no_slice
            && cfg.has_default_structure(),
        generic_only: cfg.routing == RoutingMode::Generic,
        class_positive: paper_cell(cfg.id, problem, Fragment::Positive),
        class_general: paper_cell(cfg.id, problem, Fragment::General),
    }
}

/// The decision kernel, specialized to `cfg`, with `frags` already
/// computed for `db`.
pub fn decide(cfg: &SemanticsConfig, db: &Database, frags: &Fragments, q: &PlanQuery) -> Decision {
    let t = traits_for(cfg, problem_of(q));
    ddb_analysis::decide(&Prepared::borrowed(db).with_fragments(*frags), &t, q)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddb_analysis::{classify, RouteKind};
    use ddb_logic::parse::parse_program;

    #[test]
    fn traits_mirror_the_config() {
        let cfg = SemanticsConfig::new(SemanticsId::Gcwa);
        let t = traits_for(&cfg, Problem::Formula);
        assert!(!t.mm_determined_formulas);
        assert!(t.reductions && t.horn_collapse && !t.generic_only);
        assert_eq!(t.peel_negation, Some(false));
        let t = traits_for(&SemanticsConfig::new(SemanticsId::Dsm), Problem::Literal);
        assert!(t.hcf_shift && t.mm_determined_formulas);
        assert_eq!(t.peel_negation, Some(true));
        let t = traits_for(&SemanticsConfig::new(SemanticsId::Perf), Problem::Existence);
        assert_eq!(t.peel_negation, None);
        let generic = SemanticsConfig::new(SemanticsId::Egcwa).with_routing(RoutingMode::Generic);
        assert!(traits_for(&generic, Problem::Existence).generic_only);
    }

    #[test]
    fn inner_configs_lose_the_reductions() {
        let inner = crate::slicing::inner(&SemanticsConfig::new(SemanticsId::Dsm));
        let t = traits_for(&inner, Problem::Existence);
        assert!(!t.reductions, "no_slice must disable slice/split/islands");
        assert!(t.horn_collapse, "but the Horn collapse stays");
    }

    #[test]
    fn decide_routes_horn_on_horn_dbs() {
        let db = parse_program("a. b :- a. :- c.").unwrap();
        let frags = classify(&db);
        let cfg = SemanticsConfig::new(SemanticsId::Pdsm);
        let d = decide(&cfg, &db, &frags, &PlanQuery::Existence);
        assert_eq!(d.route, RouteKind::Horn);
    }

    #[test]
    fn positive_existence_reads_table_one() {
        let db = parse_program("a | b. c :- a, b.").unwrap();
        for id in SemanticsId::ALL {
            let plan = SemanticsConfig::new(id)
                .plan(&db, &PlanQuery::Existence)
                .unwrap();
            assert_eq!(plan.route, RouteKind::Positive, "{id}");
            assert_eq!((plan.class, plan.oracle_bound), ("O(1)", 0), "{id}");
            let generic = SemanticsConfig::new(id).with_routing(RoutingMode::Generic);
            let plan = generic.plan(&db, &PlanQuery::Existence).unwrap();
            assert_eq!(plan.route, RouteKind::Generic, "{id}");
            assert_eq!(
                plan.class, "O(1)",
                "{id}: the class is the cell's, not the route's"
            );
        }
    }
}
