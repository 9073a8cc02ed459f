//! The acceptance property of the static planner: on random databases,
//! for every semantics and every decision problem, the route the plan
//! tree predicts is exactly the route dispatch takes, and the observed
//! oracle calls never exceed the plan's static bound.
//!
//! Both sides run through the same decision kernel
//! (`ddb_analysis::decide`), so a mismatch here means the plan
//! *interpreter* in dispatch diverged from the plan *builder* — the one
//! regression this layer must never allow.

use ddb_analysis::PlanQuery;
use ddb_core::profile::{profile_cell, Problem};
use ddb_core::{SemanticsConfig, SemanticsId};
use ddb_logic::{Atom, Formula};
use ddb_workloads::random::{random_db, DbSpec};

const SEEDS_PER_SPEC: u64 = 40;

#[test]
fn predicted_route_and_bound_hold_on_random_dbs() {
    let specs = [
        DbSpec::positive(8, 14),
        DbSpec::deductive(8, 14),
        DbSpec::normal(8, 14),
    ];
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
    let mut dbs = 0usize;
    let mut checked = 0usize;
    for (si, spec) in specs.iter().enumerate() {
        for seed in 0..SEEDS_PER_SPEC {
            let db = random_db(spec, 0xDDB_0800 + si as u64 * 1000 + seed);
            dbs += 1;
            for id in SemanticsId::ALL {
                let cfg = SemanticsConfig::new(id);
                for (problem, q, query) in &cells {
                    let Ok(plan) = cfg.plan(&db, q) else {
                        continue; // semantics not applicable to this class
                    };
                    let cell = profile_cell(&cfg, &db, *problem, query, None);
                    if cell.unsupported.is_some() {
                        continue; // problem-specific gap the planner can't see
                    }
                    assert_eq!(
                        cell.route,
                        Some(plan.route.label()),
                        "{id:?} {problem:?} route mismatch (seed {seed}) on {db:?}"
                    );
                    assert!(
                        cell.cost.sat_calls <= plan.oracle_bound,
                        "{id:?} {problem:?}: {} sat calls exceed static bound {} \
                         (seed {seed}) on {db:?}",
                        cell.cost.sat_calls,
                        plan.oracle_bound,
                    );
                    checked += 1;
                }
            }
        }
    }
    assert!(dbs >= 100, "property swept only {dbs} databases");
    assert!(
        checked >= 1000,
        "too few supported cells checked: {checked}"
    );
}
