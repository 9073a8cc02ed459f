//! The acceptance property of the static planner: on random databases,
//! for every semantics and every decision problem, the route the plan
//! tree predicts is exactly the route dispatch takes, and the observed
//! oracle calls never exceed the plan's static bound.
//!
//! Both sides run through the same decision kernel
//! (`ddb_analysis::decide`), so a mismatch here means the plan
//! *interpreter* in dispatch diverged from the plan *builder* — the one
//! regression this layer must never allow.
//!
//! The sweep also tallies the routes it checks: every [`RouteKind`] must
//! be predicted and taken at least once, so no route escapes the
//! property.

use ddb_analysis::{PlanQuery, RouteKind};
use ddb_core::profile::{profile_cell, Problem};
use ddb_core::{SemanticsConfig, SemanticsId};
use ddb_logic::{Atom, Database, Formula};
use ddb_workloads::random::{random_db, DbSpec};
use ddb_workloads::structured;
use std::collections::BTreeMap;

const SEEDS_PER_SPEC: u64 = 40;

/// Every route the planner can choose. The match below stops compiling
/// when a variant is added, so the coverage audit cannot miss it.
const ROUTES: [RouteKind; 6] = [
    RouteKind::Horn,
    RouteKind::Hcf,
    RouteKind::Slice,
    RouteKind::Split,
    RouteKind::Islands,
    RouteKind::Generic,
];

const _: fn(RouteKind) = |r| match r {
    RouteKind::Horn
    | RouteKind::Hcf
    | RouteKind::Slice
    | RouteKind::Split
    | RouteKind::Islands
    | RouteKind::Generic => {}
};

#[test]
fn predicted_route_and_bound_hold_on_random_dbs() {
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
    let random = dbs.len();
    // Random specs this small are never Horn; the corpus adds a Horn
    // chain and a tower family, so every route is exercised.
    dbs.push(("horn_chain(8)".into(), structured::horn_chain(8)));
    dbs.push((
        "sliceable_towers(2,2)".into(),
        structured::sliceable_towers(2, 2),
    ));
    let lit = Formula::from(Atom::new(0).pos());
    let f = Formula::Or(vec![
        Formula::Atom(Atom::new(1)),
        Formula::Atom(Atom::new(2)).negated(),
    ]);
    let cells = [
        (Problem::Literal, PlanQuery::of(&lit), &lit),
        (Problem::Formula, PlanQuery::of(&f), &f),
        (Problem::Existence, PlanQuery::Existence, &f),
    ];
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
                    Some(plan.route.label()),
                    "{id:?} {problem:?} route mismatch ({name}) on {db:?}"
                );
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
