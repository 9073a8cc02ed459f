//! `T1-slicing` — the query-relevant slicing route against the generic
//! whole-database procedures on the sliceable-towers family.
//!
//! The query (tower 0's first-stage closure atom, or for PDSM the negation
//! of a goal that needs it) has a relevance slice of at most 6 atoms
//! however many towers exist, so the sliced route's cost stays
//! flat while the generic route pays for every minimal model of the
//! product database. Each timed pair is preceded by an untimed oracle
//! audit asserting the sliced route answers identically with strictly
//! fewer SAT calls — the acceptance bar for the route, enforced on every
//! bench run.

use ddb_bench::families;
use ddb_bench::microbench::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ddb_core::{RoutingMode, SemanticsConfig, SemanticsId};
use ddb_logic::{Atom, Database, Formula, Literal, Rule};
use ddb_models::Cost;
use std::time::Duration;

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_millis(700))
        .warm_up_time(Duration::from_millis(200))
}

/// Tower 0's first-stage closure atom `c₁` (layout: c₀ d₀ a₁ b₁ c₁ …).
fn query() -> Atom {
    Atom::new(4)
}

/// A benchmark case: the database and queried literal for a tower count.
type Case = fn(usize) -> (Database, Literal);

/// Tower 0's `c₁` as a positive literal.
fn c1_pos(towers: usize) -> (Database, Literal) {
    (families::sliceable(towers), query().pos())
}

/// `sliceable(towers)` plus `g :- c₁, d₀.` over a fresh atom `g`, queried
/// for `¬g`. `c₁` needs `c₀`, which excludes `d₀` in every minimal model,
/// so `¬g` is inferred, and a route that does not slice walks every
/// minimal model of the product database to show it.
fn not_goal(towers: usize) -> (Database, Literal) {
    let mut db = families::sliceable(towers);
    let g = db.symbols_mut().fresh_atom("g");
    db.add_rule(Rule::new([g], [query(), Atom::new(1)], []));
    (db, g.neg())
}

/// Asserts answer equality and strictly fewer oracle calls for the
/// sliced route, returning the two call counts for the report.
fn audit(id: SemanticsId, towers: usize, db: &Database, f: &Formula) -> (u64, u64) {
    let mut ca = Cost::new();
    let mut cg = Cost::new();
    let sliced = SemanticsConfig::new(id)
        .infers_formula(db, f, &mut ca)
        .unwrap();
    let generic = SemanticsConfig::new(id)
        .with_routing(RoutingMode::Generic)
        .infers_formula(db, f, &mut cg)
        .unwrap();
    assert_eq!(sliced, generic, "{id:?} on {towers} towers");
    assert!(
        ca.sat_calls < cg.sat_calls,
        "{id:?} on {towers} towers: sliced route must be strictly cheaper \
         ({} vs {} SAT calls)",
        ca.sat_calls,
        cg.sat_calls
    );
    (ca.sat_calls, cg.sat_calls)
}

fn bench_pair(c: &mut Criterion, group: &str, id: SemanticsId, case: Case, sizes: &[usize]) {
    let mut g = c.benchmark_group(group);
    for &towers in sizes {
        let (db, lit) = case(towers);
        let f = Formula::from(lit);
        let (sat_sliced, sat_generic) = audit(id, towers, &db, &f);
        eprintln!(
            "{group} towers={towers}: {sat_sliced} sliced vs {sat_generic} generic SAT calls"
        );
        g.bench_with_input(BenchmarkId::new("sliced", towers), &towers, |b, _| {
            let cfg = SemanticsConfig::new(id);
            b.iter(|| {
                let mut cost = Cost::new();
                cfg.infers_formula(&db, &f, &mut cost).unwrap()
            })
        });
        g.bench_with_input(BenchmarkId::new("generic", towers), &towers, |b, _| {
            let cfg = SemanticsConfig::new(id).with_routing(RoutingMode::Generic);
            b.iter(|| {
                let mut cost = Cost::new();
                cfg.infers_formula(&db, &f, &mut cost).unwrap()
            })
        });
    }
    g.finish();
}

/// CCWA literal inference enumerates characteristic models: the generic
/// route pays per minimal model of the whole product database.
fn bench_ccwa(c: &mut Criterion) {
    bench_pair(
        c,
        "T1-slicing-CCWA-lit (sliced vs generic)",
        SemanticsId::Ccwa,
        c1_pos,
        &[1, 2, 3],
    );
}

/// DSM cautious literal inference: the sliced stability checks see a
/// 5-atom program instead of the product database.
fn bench_dsm(c: &mut Criterion) {
    bench_pair(
        c,
        "T1-slicing-DSM-lit (sliced vs generic)",
        SemanticsId::Dsm,
        c1_pos,
        &[2, 4, 8],
    );
}

/// PDSM negative-literal inference over 3-valued stable models. The
/// query `¬g` is inferred, so the generic walk visits every truth-minimal
/// model of the product database while the slice keeps one tower stage.
fn bench_pdsm(c: &mut Criterion) {
    bench_pair(
        c,
        "T1-slicing-PDSM-neglit (sliced vs generic)",
        SemanticsId::Pdsm,
        not_goal,
        &[1, 2, 3, 4],
    );
}

criterion_group!(
    name = slicing;
    config = config();
    targets = bench_ccwa, bench_dsm, bench_pdsm
);
criterion_main!(slicing);
