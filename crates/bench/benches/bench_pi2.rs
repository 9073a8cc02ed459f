//! The Πᵖ₂-complete inference cells: GCWA / EGCWA / ECWA / ICWA / PERF /
//! DSM literal and formula inference.
//!
//! Two regimes per cell, matching how complexity theory reads the result:
//! the *average case* on random databases (often easy — CEGAR refutes
//! quickly), and the *worst case* on the valid-parity QBF family, where
//! the candidate count provably doubles per universal variable.
//!
//! Experiments: `T1-GCWA-lit`, `T1-EGCWA-lit/form`, `T1-ECWA-lit/form`,
//! `T1-ICWA-lit`, `T1-PERF-lit`, `T1-DSM-lit`, `T2-*` variants.

use ddb_bench::families;
use ddb_bench::microbench::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ddb_core::{SemanticsConfig, SemanticsId};
use ddb_logic::Formula;
use ddb_models::Cost;
use ddb_workloads::queries;
use std::time::Duration;

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_millis(700))
        .warm_up_time(Duration::from_millis(200))
}

fn bench_parity_worst_case(c: &mut Criterion) {
    let mut g = c.benchmark_group("T1-GCWA-lit worst case (parity 2QBF; candidates = 2^n)");
    for n in [2u32, 3, 4, 5] {
        let inst = families::qbf_parity_hard(n);
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                let mut cost = Cost::new();
                let ans =
                    ddb_core::gcwa::infers_literal(&inst.db, inst.w.neg(), &mut cost).unwrap();
                assert!(ans, "parity family is valid");
                ans
            })
        });
    }
    g.finish();
}

fn bench_mm_semantics_random(c: &mut Criterion) {
    let mut g = c.benchmark_group("T1 minimal-model rows, random positive DBs (lit)");
    for id in [
        SemanticsId::Gcwa,
        SemanticsId::Egcwa,
        SemanticsId::Ecwa,
        SemanticsId::Perf,
        SemanticsId::Dsm,
    ] {
        let cfg = SemanticsConfig::new(id);
        for n in [16usize, 32] {
            let db = families::table1_random(n, 13);
            let lit = Formula::from(queries::random_literal(n, 5));
            g.bench_with_input(BenchmarkId::new(id.name(), n), &n, |b, _| {
                b.iter(|| {
                    let mut cost = Cost::new();
                    cfg.infers_formula(&db, &lit, &mut cost).unwrap()
                })
            });
        }
    }
    g.finish();
}

fn bench_formula_inference_table2(c: &mut Criterion) {
    let mut g = c.benchmark_group("T2 formula inference (deductive DBs)");
    for id in [SemanticsId::Gcwa, SemanticsId::Egcwa, SemanticsId::Ecwa] {
        let cfg = SemanticsConfig::new(id);
        for n in [16usize, 32] {
            let db = families::table2_random(n, 13);
            let f = queries::random_formula(n, 6, 5);
            g.bench_with_input(BenchmarkId::new(id.name(), n), &n, |b, _| {
                b.iter(|| {
                    let mut cost = Cost::new();
                    cfg.infers_formula(&db, &f, &mut cost).unwrap()
                })
            });
        }
    }
    g.finish();
}

fn bench_icwa_stratified(c: &mut Criterion) {
    let mut g = c.benchmark_group("T2-ICWA-lit (stratified DBs)");
    for n in [8usize, 12, 16] {
        let db = families::stratified_random(n, 3);
        let lit = Formula::from(queries::random_literal(n, 5));
        let cfg = SemanticsConfig::new(SemanticsId::Icwa);
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                let mut cost = Cost::new();
                cfg.infers_formula(&db, &lit, &mut cost).unwrap()
            })
        });
    }
    g.finish();
}

fn bench_pdsm_inference(c: &mut Criterion) {
    let mut g = c.benchmark_group("T2-PDSM-lit (normal DBs, 3-valued)");
    for n in [4usize, 6, 8] {
        let db = families::normal_random(n, 3);
        let lit = Formula::from(queries::random_literal(n, 5));
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                let mut cost = Cost::new();
                ddb_core::pdsm::infers_formula(&db, &lit, &mut cost)
            })
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_parity_worst_case, bench_mm_semantics_random,
              bench_formula_inference_table2, bench_icwa_stratified,
              bench_pdsm_inference
}
criterion_main!(benches);
