//! The acceptance property of the static planner: on random databases,
//! for every semantics and every decision problem, the route the plan
//! tree predicts is exactly the route dispatch takes, and the observed
//! oracle calls never exceed the plan's static bound — a plan bounded by
//! zero (the positive existence leaf, the Horn collapse) makes no SAT
//! call at all.
//!
//! Both sides run through the same decision kernel
//! (`ddb_analysis::decide`), so a mismatch here means the plan
//! *interpreter* in dispatch diverged from the plan *builder* — the one
//! regression this layer must never allow.
//!
//! The sweep also tallies the routes it checks: every [`RouteKind`] must
//! be predicted and taken at least once, so no route escapes the
//! property. A second sweep holds the whole tree to the execution: each
//! route's `route.*` count is its node count in the plan.

use ddb_analysis::{Admission, PlanData, PlanNode, PlanQuery, RouteKind};
use ddb_core::profile::{profile_cell, Problem};
use ddb_core::{SemanticsConfig, SemanticsId};
use ddb_logic::{Atom, Database, Formula};
use ddb_models::Cost;
use ddb_workloads::random::{random_db, DbSpec};
use ddb_workloads::structured;
use std::collections::BTreeMap;

const SEEDS_PER_SPEC: u64 = 40;

/// Every route the planner can choose. The match below stops compiling
/// when a variant is added, so the coverage audit cannot miss it.
const ROUTES: [RouteKind; 7] = [
    RouteKind::Positive,
    RouteKind::Horn,
    RouteKind::Hcf,
    RouteKind::Slice,
    RouteKind::Split,
    RouteKind::Islands,
    RouteKind::Generic,
];

const _: fn(RouteKind) = |r| match r {
    RouteKind::Positive
    | RouteKind::Horn
    | RouteKind::Hcf
    | RouteKind::Slice
    | RouteKind::Split
    | RouteKind::Islands
    | RouteKind::Generic => {}
};

/// The swept databases: 120 random ones (`random` of them), then a Horn
/// chain and a tower family — random specs this small are never Horn, so
/// these make every route show up.
fn databases() -> Vec<(String, Database)> {
    let specs = [
        DbSpec::positive(8, 14),
        DbSpec::deductive(8, 14),
        DbSpec::normal(8, 14),
    ];
    let mut dbs: Vec<(String, Database)> = Vec::new();
    for (si, spec) in specs.iter().enumerate() {
        for seed in 0..SEEDS_PER_SPEC {
            let db = random_db(spec, 0xDDB_0800 + si as u64 * 1000 + seed);
            dbs.push((format!("spec {si} seed {seed}"), db));
        }
    }
    dbs.push(("horn_chain(8)".into(), structured::horn_chain(8)));
    dbs.push((
        "sliceable_towers(2,2)".into(),
        structured::sliceable_towers(2, 2),
    ));
    dbs
}

/// The three problems' cells: the problem, its plan query and the query
/// formula (existence ignores it).
fn cells() -> [(Problem, PlanQuery, Formula); 3] {
    let lit = Formula::from(Atom::new(0).pos());
    let f = Formula::Or(vec![
        Formula::Atom(Atom::new(1)),
        Formula::Atom(Atom::new(2)).negated(),
    ]);
    [
        (Problem::Literal, PlanQuery::of(&lit), lit),
        (Problem::Formula, PlanQuery::of(&f), f.clone()),
        (Problem::Existence, PlanQuery::Existence, f),
    ]
}

#[test]
fn predicted_route_and_bound_hold_on_random_dbs() {
    let dbs = databases();
    let random = dbs.len() - 2;
    let cells = cells();
    let mut checked = 0usize;
    // Routes checked, by label: each one was both predicted and taken,
    // since the two are asserted equal before it is counted.
    let mut routes: BTreeMap<&str, usize> = BTreeMap::new();
    for (name, db) in &dbs {
        for id in SemanticsId::ALL {
            let cfg = SemanticsConfig::new(id);
            for (problem, q, query) in &cells {
                let Ok(plan) = cfg.plan(db, q) else {
                    continue; // semantics not applicable to this class
                };
                let cell = profile_cell(&cfg, db, *problem, query, None);
                if cell.unsupported.is_some() {
                    continue; // problem-specific gap the planner can't see
                }
                assert_eq!(
                    cell.route,
                    Some(plan.route),
                    "{id:?} {problem:?} route mismatch ({name}) on {db:?}"
                );
                if plan.oracle_bound == 0 {
                    assert_eq!(
                        cell.cost.sat_calls, 0,
                        "{id:?} {problem:?}: a zero-bound plan called the oracle ({name})"
                    );
                }
                if plan.route == RouteKind::Positive {
                    assert_eq!(*problem, Problem::Existence, "{id:?} ({name})");
                    assert_eq!(cell.answer, Some(true), "{id:?} ({name})");
                    assert_eq!(plan.class, "O(1)", "{id:?} ({name})");
                }
                assert!(
                    cell.cost.sat_calls <= plan.oracle_bound,
                    "{id:?} {problem:?}: {} sat calls exceed static bound {} \
                     ({name}) on {db:?}",
                    cell.cost.sat_calls,
                    plan.oracle_bound,
                );
                *routes.entry(plan.route.label()).or_default() += 1;
                checked += 1;
            }
        }
    }
    assert!(random >= 100, "property swept only {random} databases");
    assert!(
        checked >= 1000,
        "too few supported cells checked: {checked}"
    );
    for route in ROUTES {
        assert!(
            routes.contains_key(route.label()),
            "route {} never predicted and taken: {routes:?}",
            route.label()
        );
    }
}

/// Tallies `node`'s subtree into `counts`: per route label, the nodes
/// execution always reaches and the nodes it may reach. The top-existence
/// child of a `Product` slice runs only on a `false` slice answer, so its
/// subtree is only "may".
fn tally(node: &PlanNode, optional: bool, counts: &mut BTreeMap<&'static str, (u64, u64)>) {
    let (must, may) = counts.entry(node.route.label()).or_default();
    *must += u64::from(!optional);
    *may += 1;
    let product = matches!(
        node.data,
        PlanData::Slice {
            admission: Admission::Product,
            ..
        }
    );
    for (i, child) in node.children.iter().enumerate() {
        tally(child, optional || (product && i == 1), counts);
    }
}

#[test]
fn every_plan_node_is_executed_once() {
    let mut dbs = databases();
    dbs.push((
        "sliceable_towers(3,3)".into(),
        structured::sliceable_towers(3, 3),
    ));
    let (mut equal, mut bounded) = (0usize, 0usize);
    for (name, db) in &dbs {
        for id in SemanticsId::ALL {
            let cfg = SemanticsConfig::new(id);
            for (problem, q, query) in &cells() {
                let Ok(plan) = cfg.plan(db, q) else {
                    continue;
                };
                let mut cost = Cost::new();
                let (outcome, recording) = ddb_obs::record(false, || match problem {
                    Problem::Existence => cfg.has_model(db, &mut cost),
                    _ => cfg.infers_formula(db, query, &mut cost),
                });
                if outcome.is_err() {
                    continue;
                }
                let mut counts = BTreeMap::new();
                tally(&plan, false, &mut counts);
                for route in ROUTES {
                    let (must, may) = counts.get(route.label()).copied().unwrap_or_default();
                    let got = recording.counters.get(route.counter());
                    assert!(
                        must <= got && got <= may,
                        "{id:?} {problem:?} ({name}): {} ran {got} times, the plan has \
                         {must} certain and {may} possible nodes\n{}",
                        route.counter(),
                        plan.render()
                    );
                    if must == may {
                        equal += 1;
                    } else {
                        bounded += 1;
                    }
                }
            }
        }
    }
    assert!(equal >= 10_000, "too few route counts checked: {equal}");
    assert!(bounded > 0, "no product slice's optional child was checked");
}
