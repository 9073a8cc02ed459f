//! Table 1's tractable cells: DDR and PWS literal inference on positive,
//! integrity-free databases — polynomial, zero oracle calls (Chan).
//!
//! Experiments: `T1-DDR-lit`, `T1-PWS-lit`, `T1-DDR-form`, `T1-PWS-form`.

use ddb_bench::families;
use ddb_bench::microbench::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ddb_core::{RoutingMode, SemanticsConfig, SemanticsId};
use ddb_logic::{Atom, Formula};
use ddb_models::Cost;
use ddb_workloads::queries;
use std::time::Duration;

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_millis(700))
        .warm_up_time(Duration::from_millis(200))
}

fn bench_ddr_literal(c: &mut Criterion) {
    let mut g = c.benchmark_group("T1-DDR-lit (in P, 0 oracle calls)");
    for n in [1_000usize, 4_000, 16_000] {
        let db = families::tractable_chain(n);
        let lit = Atom::new((n - 1) as u32).neg();
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                let mut cost = Cost::new();
                let ans = ddb_core::ddr::infers_literal(&db, lit, &mut cost);
                assert_eq!(cost.sat_calls, 0);
                ans
            })
        });
    }
    g.finish();
}

fn bench_pws_literal(c: &mut Criterion) {
    let mut g = c.benchmark_group("T1-PWS-lit (in P, 0 oracle calls)");
    for n in [1_000usize, 4_000, 16_000] {
        let db = families::tractable_chain(n);
        let lit = Atom::new((n / 2) as u32).neg();
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                let mut cost = Cost::new();
                ddb_core::pws::infers_literal(&db, lit, &mut cost)
            })
        });
    }
    g.finish();
}

fn bench_ddr_formula(c: &mut Criterion) {
    let mut g = c.benchmark_group("T1-DDR-form (coNP: one SAT refutation)");
    for n in [64usize, 128, 256] {
        let db = families::table1_random(n, 7);
        let f = queries::random_formula(n, 8, 11);
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                let mut cost = Cost::new();
                ddb_core::ddr::infers_formula(&db, &f, &mut cost)
            })
        });
    }
    g.finish();
}

fn bench_pws_formula(c: &mut Criterion) {
    let mut g = c.benchmark_group("T1-PWS-form (coNP: possible-model SAT)");
    for n in [64usize, 128, 256] {
        let db = families::table1_random(n, 7);
        let f = queries::random_formula(n, 8, 11);
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                let mut cost = Cost::new();
                ddb_core::pws::infers_formula(&db, &f, &mut cost)
            })
        });
    }
    g.finish();
}

fn bench_horn_routing(c: &mut Criterion) {
    // The same GCWA literal query on a Horn chain, dispatched with the
    // analysis-driven fast path (0 oracle calls) and with routing forced
    // to the generic Πᵖ₂ procedure.
    let mut g = c.benchmark_group("T1-Horn-routing (GCWA lit: routed vs generic)");
    for n in [200usize, 800] {
        let db = families::tractable_chain(n);
        let lit = Formula::from(Atom::new((n - 1) as u32).neg());
        let auto = SemanticsConfig::new(SemanticsId::Gcwa);
        let generic = SemanticsConfig::new(SemanticsId::Gcwa).with_routing(RoutingMode::Generic);
        let mut ca = Cost::new();
        let mut cg = Cost::new();
        assert_eq!(
            auto.infers_formula(&db, &lit, &mut ca).unwrap(),
            generic.infers_formula(&db, &lit, &mut cg).unwrap()
        );
        assert_eq!(ca.sat_calls, 0, "routed Horn path must be oracle-free");
        assert!(cg.sat_calls > 0, "generic path must pay oracle calls");
        g.bench_with_input(BenchmarkId::new("routed", n), &n, |b, _| {
            b.iter(|| {
                let mut cost = Cost::new();
                auto.infers_formula(&db, &lit, &mut cost).unwrap()
            })
        });
        g.bench_with_input(BenchmarkId::new("generic", n), &n, |b, _| {
            b.iter(|| {
                let mut cost = Cost::new();
                generic.infers_formula(&db, &lit, &mut cost).unwrap()
            })
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_ddr_literal, bench_pws_literal, bench_ddr_formula,
        bench_pws_formula, bench_horn_routing
}
criterion_main!(benches);
