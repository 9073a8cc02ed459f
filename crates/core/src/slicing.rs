//! Execution of the query-relevant slicing and splitting-set routes.
//!
//! Two complementary reductions that shrink the database a query
//! actually has to reason over, both driven by the static analyzer:
//!
//! * **Demand slicing** ([`ddb_analysis::demand_closure`]): a query
//!   formula mentions a handful of atoms; only the rules
//!   backward-reachable from them can influence its truth value. For
//!   bound queries (argument constants fixed by the query) on positive
//!   databases the closure also skips dead rules whose positive body can
//!   never be derived — the restriction of the magic-sets rewrite, sound
//!   there because a never-firing rule fires in no minimal model
//!   ([`ddb_analysis::prunes_dead`]). When the soundness precondition
//!   ([`Admission`]) holds, inference runs on the projected slice — a
//!   strictly smaller database, so the oracle sees strictly smaller CNFs
//!   (and may even collapse to the Horn fast path). Answering on the
//!   projected slice is answer-equivalent to running the guarded rewrite
//!   `ddb rewrite` prints.
//! * **Splitting-set peeling** ([`ddb_analysis::peel`]): the
//!   deterministic bottom components of the SCC condensation have a
//!   unique solution computable in polynomial time; partially evaluating
//!   it into the rest leaves a smaller residual program that answers the
//!   same queries after substituting the decided atoms into the formula.
//!
//! The *decision* of which route a query takes lives in the static
//! planner ([`crate::planner`], backed by [`ddb_analysis::decide`]):
//! dispatch asks the planner and hands the decision's payload — the
//! admitted [`Slice`] or the [`Peel`] — to the executors here
//! (`run_slice`, `run_peel`, `run_exist_split`). This module never
//! re-derives the analysis that justified the route; it only runs it and
//! records it in the `route.slice*` / `route.split*` counters surfaced by
//! `ddb profile`.
//!
//! # Soundness preconditions
//!
//! Slicing is admitted in exactly two situations, checked per query:
//!
//! 1. **Positive databases** ([`Admission::PositiveExact`]): no negation
//!    and no integrity clauses anywhere. Minimal models project onto the
//!    slice (`MM(DB)|_R = MM(slice)`), the non-slice part can never be
//!    inconsistent, and every minimal-model-determined answer is exact on
//!    the slice — even when the slice boundary is read by outside rules.
//!    GCWA and CCWA keep non-minimal models in their characteristic sets,
//!    so for them this admission is restricted to literal queries (see
//!    [`crate::planner::mm_determined`]).
//! 2. **Split-closed slices** ([`Admission::Product`]): no non-slice rule
//!    mentions a slice atom, so the database is a disjoint union and every
//!    semantics factors as a product. One correction is owed: when the
//!    non-slice part has an *empty* characteristic model set, cautious
//!    inference over the whole database is vacuously true whatever the
//!    slice says, so a `false` slice answer triggers one
//!    `has_model` check on the top part.
//!
//! Anything else ([`Admission::Blocked`]) falls back to the generic
//! whole-database procedure and bumps `route.slice.blocked`.
//!
//! Peeling is gated per semantics by [`peel_mode`]: negation-aware for
//! the stable-model family (DSM, PDSM), restricted to atoms never read
//! through negation for the model-theoretic rest, and disabled outright
//! for PERF and ICWA, whose priority relation and stratification are
//! computed from rules a peel would discharge; see
//! `ddb_analysis::splitting` for the construction. Both routes
//! additionally require the *default* semantics structure (minimize-all
//! partition, no varying atoms): with fixed or varying atoms an
//! underivable atom is no longer forced false, and the bottom solution
//! stops being unique.

use crate::dispatch::{SemanticsConfig, SemanticsId, Unsupported, Verdict};
use crate::planner::mm_determined;
use ddb_analysis::{project_slice, project_top, Fragments, Peel, Prepared, Slice};
use ddb_logic::{Database, Formula};
use ddb_models::Cost;
use ddb_obs::Governed;

pub use ddb_analysis::Admission;

/// Decides whether a query over `slice` may be answered on the slice
/// alone (shared with the `ddb slice` subcommand, which prints the
/// admitting or blocking precondition).
///
/// The positive-exact admission requires the query's answer to be
/// determined by the minimal-model set, which projects onto the slice;
/// [`crate::planner::mm_determined`] says when it is, the same fact the
/// planner's traits carry.
pub fn admission(
    id: SemanticsId,
    frags: &Fragments,
    slice: &Slice,
    literal_query: bool,
) -> Admission {
    ddb_analysis::admission(frags, slice, mm_determined(id, literal_query))
}

/// How the peel may run for this semantics: `None` when peeling is
/// unsound, `Some(peel_negation)` otherwise.
///
/// * The stable-model family (DSM, PDSM) peels through stratified
///   negation: *foundedness* makes every underivable atom false, even one
///   read through negation by an integrity clause.
/// * The classical CWA family (GCWA/EGCWA/CCWA/ECWA) and the
///   negation-free pair (DDR, PWS) are model-theoretic in the clause
///   theory, so the peel is sound but restricted to atoms never read
///   through negation (`:- not x.` forces an underivable `x` true
///   classically).
/// * PERF and ICWA are *syntax-sensitive*: the perfect-model priority
///   relation and the ICWA stratification are built from every rule,
///   including rules a peel would discharge as dead, so partial
///   evaluation can change their answers. No peel.
pub fn peel_mode(id: SemanticsId) -> Option<bool> {
    match id {
        SemanticsId::Perf | SemanticsId::Icwa => None,
        SemanticsId::Dsm | SemanticsId::Pdsm => Some(true),
        _ => Some(false),
    }
}

/// An inner configuration that must not re-enter the slice/split/island
/// routes (residual programs would otherwise recurse forever on atoms
/// whose rules were consumed by the peel).
pub(crate) fn inner(cfg: &SemanticsConfig) -> SemanticsConfig {
    SemanticsConfig {
        no_slice: true,
        ..cfg.clone()
    }
}

/// Folds an inner-call result into the route's three-way outcome:
/// a definite verdict is the route's answer, an `Unsupported` inner call
/// abandons the route (`Ok(None)` → generic fallback), and a budget
/// interrupt propagates (`Err`) so the top level reports `Unknown` instead
/// of silently re-running the whole database.
fn definite(r: Result<Verdict, Unsupported>) -> Governed<Option<bool>> {
    match r {
        Ok(Verdict::True) => Ok(Some(true)),
        Ok(Verdict::False) => Ok(Some(false)),
        Ok(Verdict::Unknown(i)) => Err(i),
        Err(_) => Ok(None),
    }
}

/// Records the taken peel in the `route.split*` counters.
fn note_split(p: &Peel) {
    ddb_obs::counter_bump("route.split", 1);
    ddb_obs::counter_bump("route.split.decided_atoms", p.num_decided as u64);
    ddb_obs::counter_bump("route.split.components", p.components_decided as u64);
}

/// Executes an admitted slice route for an inference query: project the
/// slice, re-enter the dispatcher on the sub-database (the recursive call
/// may still peel it or ride the Horn fast path), and apply the product
/// correction when a cautious `false` must survive an independent top
/// part. Renaming atoms keeps a one-literal query a literal, so the
/// recursive call plans it as one.
pub(crate) fn run_slice(
    cfg: &SemanticsConfig,
    db: &Database,
    slice: &Slice,
    admission: Admission,
    f: &Formula,
    cost: &mut Cost,
) -> Governed<Option<bool>> {
    ddb_obs::counter_bump("route.slice", 1);
    ddb_obs::counter_bump(
        "route.slice.dropped_rules",
        (db.len() - slice.rules.len()) as u64,
    );
    let (sub, map) = project_slice(db, slice);
    // Re-slicing the projected slice is a no-op (the closure is already
    // whole), so the recursive call may still peel it or ride the Horn
    // fast path.
    let f_sub = f.map_atoms(&mut |a| {
        Formula::Atom(map.to_sub[a.index()].expect("query atom is in its slice"))
    });
    let ans = definite(cfg.infers_formula(&sub, &f_sub, cost))?;
    let Some(ans) = ans else {
        return Ok(None);
    };
    if ans || admission == Admission::PositiveExact {
        return Ok(Some(ans));
    }
    // Product correction: a cautious `false` on the slice only transfers
    // to the whole database when the independent top part has a model at
    // all — an empty top model set makes every inference vacuously true.
    let (top, _) = project_top(db, slice);
    match definite(inner(cfg).has_model(&top, cost))? {
        Some(has) => Ok(Some(!has)),
        None => Ok(None),
    }
}

/// Executes a decided peel route for an inference query: substitute the
/// decided atoms into the formula and answer on the residual with an
/// inner (non-re-slicing) configuration. A literal over an undecided atom
/// stays a literal; over a decided one it becomes a constant.
pub(crate) fn run_peel(
    cfg: &SemanticsConfig,
    p: &Peel,
    f: &Formula,
    cost: &mut Cost,
) -> Governed<Option<bool>> {
    note_split(p);
    let f_res = f.map_atoms(&mut |a| match p.decided[a.index()] {
        Some(true) => Formula::True,
        Some(false) => Formula::False,
        None => Formula::Atom(a),
    });
    definite(inner(cfg).infers_formula(&p.residual, &f_res, cost))
}

/// Executes a decided peel route for model existence: solve the
/// deterministic bottom, then evaluate the residual's weakly-connected
/// islands (memoized with the peel in `prepared`) on the worker pool
/// ([`crate::parallel::islands_has_model`]); a single-island residual
/// falls through to an inner existence check.
pub(crate) fn run_exist_split(
    cfg: &SemanticsConfig,
    prepared: &Prepared,
    p: &Peel,
    cost: &mut Cost,
) -> Governed<Option<bool>> {
    note_split(p);
    let mode = peel_mode(cfg.id).expect("only peelable semantics take the split route");
    let parts = prepared.peel_islands(mode);
    if let Some(ans) = crate::parallel::islands_has_model(cfg, &p.residual, parts, cost)? {
        return Ok(Some(ans));
    }
    definite(inner(cfg).has_model(&p.residual, cost))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::RoutingMode;
    use ddb_logic::parse::{parse_formula, parse_program};

    /// The counters recorded while `f` runs.
    fn counters_after(f: impl FnOnce()) -> ddb_obs::CounterSnapshot {
        ddb_obs::record(false, f).1.counters
    }

    #[test]
    fn slice_route_answers_and_counts() {
        // Query c only needs the a|b block; the x|y block is dropped.
        let db = parse_program("a | b. c :- a. c :- b. x | y. z :- x.").unwrap();
        let f = parse_formula("c", db.symbols()).unwrap();
        let cfg = SemanticsConfig::new(SemanticsId::Egcwa);
        let mut cost = Cost::new();
        let mut ans = false;
        let spent =
            counters_after(|| ans = cfg.infers_formula(&db, &f, &mut cost).unwrap().definite());
        assert!(ans);
        assert!(spent.get("route.slice") > 0);
        assert_eq!(spent.get("route.slice.dropped_rules"), 2);
    }

    #[test]
    fn blocked_slice_falls_back_to_generic() {
        // Not positive (negation) and not split-closed: d :- not c reads
        // the slice of query c from outside.
        let db = parse_program("a | b. c :- a. d :- not c. e.").unwrap();
        let f = parse_formula("c", db.symbols()).unwrap();
        let cfg = SemanticsConfig::new(SemanticsId::Dsm);
        let mut cost = Cost::new();
        let spent = counters_after(|| {
            cfg.infers_formula(&db, &f, &mut cost).unwrap();
        });
        assert!(spent.get("route.slice.blocked") > 0);
        assert_eq!(spent.get("route.slice"), 0);
    }

    #[test]
    fn peel_route_substitutes_decided_atoms() {
        // The Horn prefix x0, x1 peels away; the query mixes decided and
        // open atoms.
        let db = parse_program("x0. x1 :- x0. a | b :- x1. q :- a. q :- b.").unwrap();
        let f = parse_formula("x1 & q", db.symbols()).unwrap();
        for id in SemanticsId::ALL {
            let cfg = SemanticsConfig::new(id);
            let mut cost = Cost::new();
            let mut ans = false;
            let spent =
                counters_after(|| ans = cfg.infers_formula(&db, &f, &mut cost).unwrap().definite());
            assert!(ans, "{id}");
            if peel_mode(id).is_some() {
                assert!(spent.get("route.split") > 0, "{id}");
            } else {
                // PERF/ICWA never peel; the whole-slice query falls back.
                assert!(spent.get("route.split") == 0, "{id}");
            }
        }
    }

    #[test]
    fn product_correction_catches_inconsistent_top() {
        // The slice for q is `a | b. q :- a. q :- b.` and infers neither
        // x nor ¬q issues; the independent top `t. :- t.` is
        // inconsistent, so the whole database cautiously infers
        // everything — including ¬q.
        let db = parse_program("a | b. q :- a. q :- b. t. :- t.").unwrap();
        let f = parse_formula("!q", db.symbols()).unwrap();
        for id in [SemanticsId::Gcwa, SemanticsId::Egcwa, SemanticsId::Dsm] {
            let cfg = SemanticsConfig::new(id);
            let mut cost = Cost::new();
            let auto = cfg.infers_formula(&db, &f, &mut cost).unwrap().definite();
            let generic = cfg
                .clone()
                .with_routing(RoutingMode::Generic)
                .infers_formula(&db, &f, &mut cost)
                .unwrap()
                .definite();
            assert_eq!(auto, generic, "{id}");
            assert!(auto, "inconsistent DB infers everything ({id})");
        }
    }

    #[test]
    fn has_model_rides_the_peel() {
        let db = parse_program("a. b :- a. c | d :- b. :- a, z.").unwrap();
        let cfg = SemanticsConfig::new(SemanticsId::Dsm);
        let mut cost = Cost::new();
        let mut ans = false;
        let spent = counters_after(|| ans = cfg.has_model(&db, &mut cost).unwrap().definite());
        assert!(ans);
        assert!(spent.get("route.split") > 0);
        // And a violated bottom constraint kills the model set.
        let bad = parse_program("a. b :- a. :- b. c | d.").unwrap();
        assert!(!cfg.has_model(&bad, &mut cost).unwrap().definite());
    }

    #[test]
    fn generic_mode_never_slices() {
        let db = parse_program("a | b. c :- a. x | y.").unwrap();
        let f = parse_formula("c", db.symbols()).unwrap();
        let cfg = SemanticsConfig::new(SemanticsId::Egcwa).with_routing(RoutingMode::Generic);
        let mut cost = Cost::new();
        let spent = counters_after(|| {
            cfg.infers_formula(&db, &f, &mut cost).unwrap();
        });
        assert_eq!(spent.get("route.slice"), 0);
        assert_eq!(spent.get("route.split"), 0);
        assert!(spent.get("route.generic") > 0);
    }
}
