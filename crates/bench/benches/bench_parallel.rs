//! `T1-parallel` — worker-pool scaling of the three pool-routed
//! surfaces: island-decomposed existence, batched formula inference, and
//! the profile matrix, each at 1/2/4/8 worker threads.
//!
//! The pool's contract is *determinism first*: answers, model sets and
//! oracle bills are byte-identical at every width (asserted by the
//! untimed audits here and by `crates/core/tests/parallel.rs`), so the
//! only thing allowed to vary is wall-clock time. Speedup is bounded by
//! the host: the committed `BENCH_parallel.json` records
//! `host_parallelism` next to the timings, and a 1-core container will
//! honestly show a flat (or pool-overhead) curve rather than a 2×
//! headline. Set `DDB_BENCH_FAST=1` for the CI smoke variant (smaller
//! instances, same coverage).

use ddb_bench::microbench::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ddb_core::{parallel, profile, SemanticsConfig, SemanticsId};
use ddb_logic::{Atom, Database, Formula};
use ddb_models::Cost;
use ddb_workloads::structured;
use std::time::Duration;

const WIDTHS: [usize; 4] = [1, 2, 4, 8];

fn fast() -> bool {
    std::env::var_os("DDB_BENCH_FAST").is_some_and(|v| !v.is_empty() && v != "0")
}

fn config() -> Criterion {
    let (measure, warmup) = if fast() { (200, 50) } else { (700, 200) };
    Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_millis(measure))
        .warm_up_time(Duration::from_millis(warmup))
}

/// The islands family: disjoint towers, one island each.
fn islands_db() -> Database {
    let towers = if fast() { 4 } else { 12 };
    structured::sliceable_towers(towers, 4)
}

/// Stable-model existence over many islands — every width must agree
/// with the sequential answer and oracle bill before anything is timed.
/// The audit also cross-checks the latency histograms against the
/// counters: every SAT call must record exactly one `sat.solve.ns`
/// sample, at every width.
fn bench_islands_exist(c: &mut Criterion) {
    let db = islands_db();
    let mut base = Cost::new();
    let reference = SemanticsConfig::new(SemanticsId::Dsm)
        .has_model(&db, &mut base)
        .unwrap();
    let mut g = c.benchmark_group("T1-parallel-DSM-exist (threads scaling)");
    for width in WIDTHS {
        let cfg = SemanticsConfig::new(SemanticsId::Dsm).with_threads(width);
        let mut cost = Cost::new();
        let (verdict, rec) = ddb_obs::record(false, || cfg.has_model(&db, &mut cost).unwrap());
        assert_eq!(verdict, reference);
        assert_eq!(cost.sat_calls, base.sat_calls, "width {width} oracle bill");
        let solves = rec.counters.get("sat.solves");
        let samples = rec.histograms.count("sat.solve.ns");
        assert_eq!(
            samples, solves,
            "width {width}: sat.solve.ns histogram samples vs sat.solves counter"
        );
        g.bench_with_input(BenchmarkId::new("exist", width), &width, |b, _| {
            b.iter(|| {
                let mut cost = Cost::new();
                cfg.has_model(&db, &mut cost).unwrap()
            })
        });
    }
    g.finish();
}

/// A batch of single-atom GCWA queries sharing one parse/analysis pass.
fn bench_batch_query(c: &mut Criterion) {
    let db = structured::sliceable_towers(2, 3);
    let formulas: Vec<Formula> = (0..if fast() { 4 } else { 8 })
        .map(|i| Formula::Atom(Atom::new(i as u32)))
        .collect();
    let reference =
        parallel::infers_formulas_batch(&SemanticsConfig::new(SemanticsId::Gcwa), &db, &formulas)
            .unwrap();
    let mut g = c.benchmark_group("T1-parallel-GCWA-batch (threads scaling)");
    for width in WIDTHS {
        let cfg = SemanticsConfig::new(SemanticsId::Gcwa).with_threads(width);
        let got = parallel::infers_formulas_batch(&cfg, &db, &formulas).unwrap();
        for ((v, c1), (rv, rc)) in got.iter().zip(reference.iter()) {
            assert_eq!(v, rv, "width {width} verdict");
            assert_eq!(c1.sat_calls, rc.sat_calls, "width {width} oracle bill");
        }
        g.bench_with_input(BenchmarkId::new("batch", width), &width, |b, _| {
            b.iter(|| parallel::infers_formulas_batch(&cfg, &db, &formulas).unwrap())
        });
    }
    g.finish();
}

/// The 30-cell profile matrix with independent cells fanned out.
fn bench_profile(c: &mut Criterion) {
    let db = structured::sliceable_towers(2, 2);
    let lit = Atom::new(0).pos();
    let f = Formula::Atom(Atom::new(0));
    let reference = profile::profile_all_budgeted(&db, lit, &f, None, 1);
    let mut g = c.benchmark_group("T1-parallel-profile (threads scaling)");
    for width in WIDTHS {
        let wide = profile::profile_all_budgeted(&db, lit, &f, None, width);
        assert_eq!(reference.len(), wide.len());
        for (r, w) in reference.iter().zip(wide.iter()) {
            assert_eq!(r.answer, w.answer, "width {width} cell answer");
        }
        g.bench_with_input(BenchmarkId::new("profile", width), &width, |b, _| {
            b.iter(|| profile::profile_all_budgeted(&db, lit, &f, None, width))
        });
    }
    g.finish();
}

criterion_group!(
    name = parallel_pool;
    config = config();
    targets = bench_islands_exist, bench_batch_query, bench_profile
);
criterion_main!(parallel_pool);
