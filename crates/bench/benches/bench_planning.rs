//! `T1-planning` — the static query planner against the solve it
//! predicts, on the sliceable-towers corpus family.
//!
//! Two questions, answered per semantics:
//!
//! 1. **Overhead** — building the full plan tree (`SemanticsConfig::plan`:
//!    classification, slicing, peeling, the decision kernel recursion)
//!    must be a vanishing fraction of actually solving the cell. The
//!    hard assertion compares against the *generic* route (the cost the
//!    planner's decisions avoid) and requires `plan < 1%` of it; the
//!    plan-vs-routed-solve ratio is recorded as a metric only, since the
//!    routed solve on a sliced instance is itself nearly free.
//! 2. **Prediction quality** — before any timing, an untimed audit
//!    asserts the planned route is the route dispatch takes and the
//!    observed oracle calls stay under the static bound (the
//!    `ddb explain --execute` contract), and the observed/bound ratio is
//!    recorded in the `DDB_BENCH_JSON` summary as
//!    `T1-planning/<sem>_observed_calls` over `<sem>_predicted_bound`.
//!
//! Wall-clock bounds are hostile to CI hardware variance, so the 1%
//! gate uses medians over a fixed iteration count and the generic
//! baseline is the slowest cell of the sweep.

use ddb_analysis::PlanQuery;
use ddb_bench::microbench::{
    black_box, criterion_group, criterion_main, record_metric, BenchmarkId, Criterion,
};
use ddb_core::profile::{profile_cell, Problem};
use ddb_core::{RoutingMode, SemanticsConfig, SemanticsId};
use ddb_logic::{Atom, Database, Formula};
use ddb_models::Cost;
use ddb_workloads::structured;
use std::time::{Duration, Instant};

fn fast() -> bool {
    std::env::var_os("DDB_BENCH_FAST").is_some_and(|v| !v.is_empty() && v != "0")
}

fn config() -> Criterion {
    let (measure, warmup) = if fast() { (200, 50) } else { (600, 150) };
    Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_millis(measure))
        .warm_up_time(Duration::from_millis(warmup))
}

/// The `T1-slicing` corpus instance: independent disjunctive towers,
/// queried at tower 0's first-stage closure atom `c₁`.
fn workload() -> Database {
    structured::sliceable_towers(if fast() { 2 } else { 3 }, 3)
}

fn query_atom() -> Atom {
    Atom::new(4)
}

/// Median wall time of `iters` runs of `f`.
fn median_ns<F: FnMut()>(iters: usize, mut f: F) -> u64 {
    let mut samples: Vec<u64> = (0..iters)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as u64
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

fn bench_planning(c: &mut Criterion) {
    let db = workload();
    let f = Formula::from(query_atom().pos());
    let q = PlanQuery::of(&f);
    let ids = [SemanticsId::Ccwa, SemanticsId::Dsm, SemanticsId::Pdsm];
    let iters = if fast() { 20 } else { 50 };

    let mut g = c.benchmark_group("T1-planning");
    let mut plan_ns_worst = 0u64;
    let mut generic_ns_worst = 0u64;
    for id in ids {
        let cfg = SemanticsConfig::new(id);
        let name = cfg.id.name();

        // Untimed audit: the `ddb explain --execute` contract on every
        // bench run — predicted route taken, observed calls under bound.
        let plan = cfg.plan(&db, &q).expect("planable");
        let cell = profile_cell(&cfg, &db, Problem::Literal, &f, None);
        assert!(cell.unsupported.is_none(), "{name}: cell must run");
        assert_eq!(
            cell.route,
            Some(plan.route.label()),
            "{name}: dispatch must take the planned route"
        );
        assert!(
            cell.cost.sat_calls <= plan.oracle_bound,
            "{name}: observed {} oracle calls exceed the static bound {}",
            cell.cost.sat_calls,
            plan.oracle_bound
        );
        record_metric(
            "T1-planning",
            &format!("{name}_predicted_bound"),
            plan.oracle_bound as f64,
        );
        record_metric(
            "T1-planning",
            &format!("{name}_observed_calls"),
            cell.cost.sat_calls as f64,
        );
        eprintln!(
            "T1-planning {name}: route={} observed/bound = {}/{} oracle calls",
            plan.route.label(),
            cell.cost.sat_calls,
            plan.oracle_bound
        );

        // The overhead gate, on medians outside the timed loops.
        let plan_ns = median_ns(iters, || {
            black_box(cfg.plan(&db, &q).unwrap());
        });
        let generic = cfg.with_routing(RoutingMode::Generic);
        let generic_ns = median_ns(iters, || {
            let mut cost = Cost::new();
            black_box(generic.infers_formula(&db, &f, &mut cost).unwrap());
        });
        let routed_ns = median_ns(iters, || {
            let mut cost = Cost::new();
            let cfg = SemanticsConfig::new(id);
            black_box(cfg.infers_formula(&db, &f, &mut cost).unwrap());
        });
        plan_ns_worst = plan_ns_worst.max(plan_ns);
        generic_ns_worst = generic_ns_worst.max(generic_ns);
        record_metric("T1-planning", &format!("{name}_plan_ns"), plan_ns as f64);
        record_metric(
            "T1-planning",
            &format!("{name}_generic_solve_ns"),
            generic_ns as f64,
        );
        record_metric(
            "T1-planning",
            &format!("{name}_routed_solve_ns"),
            routed_ns as f64,
        );

        g.bench_with_input(BenchmarkId::new("plan", name), &name, |b, _| {
            let cfg = SemanticsConfig::new(id);
            b.iter(|| cfg.plan(&db, &q).unwrap())
        });
        g.bench_with_input(BenchmarkId::new("solve", name), &name, |b, _| {
            let cfg = SemanticsConfig::new(id);
            b.iter(|| {
                let mut cost = Cost::new();
                cfg.infers_formula(&db, &f, &mut cost).unwrap()
            })
        });
    }
    g.finish();

    // Even the slowest plan must be under 1% of the slowest generic
    // solve it lets dispatch avoid.
    let pct = 100.0 * plan_ns_worst as f64 / generic_ns_worst.max(1) as f64;
    record_metric("T1-planning", "plan_vs_generic_pct", pct);
    eprintln!(
        "T1-planning overhead: plan {plan_ns_worst}ns vs generic solve {generic_ns_worst}ns \
         ({pct:.3}%)"
    );
    assert!(
        pct < 1.0,
        "planner overhead must be \u{226a} 1% of the generic solve, got {pct:.3}%"
    );
}

criterion_group!(
    name = planning;
    config = config();
    targets = bench_planning
);
criterion_main!(planning);
