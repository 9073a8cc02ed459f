//! The partition-parameterized rows (CCWA, ECWA/CIRC, ICWA): how the
//! ⟨P;Q;Z⟩ split shapes cost, plus the minimal-model engine ablation
//! (shrink-loop minimization vs full enumeration).
//!
//! Experiments: `T1-CCWA-lit`, `T1-ECWA-lit/form`, `T1-ICWA-lit`.

use ddb_bench::families;
use ddb_bench::microbench::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ddb_logic::{Atom, Formula};
use ddb_models::{circumscribe, classical, minimal, Cost, Partition};
use ddb_workloads::queries;
use std::time::Duration;

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_millis(700))
        .warm_up_time(Duration::from_millis(200))
}

/// Partition with the first `p_frac`/`q_frac` fractions of atoms in P/Q.
fn partition(n: usize, p_frac: f64, q_frac: f64) -> Partition {
    let p_end = (n as f64 * p_frac) as usize;
    let q_end = p_end + (n as f64 * q_frac) as usize;
    Partition::from_p_q(
        n,
        (0..p_end).map(|i| Atom::new(i as u32)),
        (p_end..q_end.min(n)).map(|i| Atom::new(i as u32)),
    )
}

fn bench_ccwa_partition_sweep(c: &mut Criterion) {
    let mut g = c.benchmark_group("T1-CCWA-lit by |P| fraction (n=24)");
    let n = 24usize;
    let db = families::table1_random(n, 31);
    let lit = Formula::from(queries::random_literal(n, 5));
    for (label, p_frac) in [("P=25%", 0.25), ("P=50%", 0.5), ("P=100%", 1.0)] {
        let part = partition(n, p_frac, (1.0 - p_frac) / 2.0);
        g.bench_with_input(BenchmarkId::from_parameter(label), &label, |b, _| {
            b.iter(|| {
                let mut cost = Cost::new();
                ddb_core::ccwa::infers_formula(&db, &part, &lit, &mut cost)
            })
        });
    }
    g.finish();
}

fn bench_ecwa_formula(c: &mut Criterion) {
    let mut g = c.benchmark_group("T1-ECWA-form (one Πᵖ₂ CEGAR query)");
    for n in [16usize, 24, 32] {
        let db = families::table1_random(n, 31);
        let part = partition(n, 0.5, 0.25);
        let f = queries::random_formula(n, 6, 9);
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                let mut cost = Cost::new();
                ddb_core::ecwa::infers_formula(&db, &part, &f, &mut cost)
            })
        });
    }
    g.finish();
}

fn bench_minimal_engine(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine ablation: CEGAR inference vs full MM enumeration");
    for n in [10usize, 14, 18] {
        let db = families::table1_random(n, 37);
        let f = queries::random_formula(n, 6, 9);
        g.bench_with_input(BenchmarkId::new("CEGAR", n), &n, |b, _| {
            b.iter(|| {
                let mut cost = Cost::new();
                circumscribe::holds_in_all_minimal_models(&db, &f, &mut cost)
            })
        });
        g.bench_with_input(BenchmarkId::new("enumerate-all", n), &n, |b, _| {
            b.iter(|| {
                let mut cost = Cost::new();
                minimal::minimal_models(&db, &mut cost)
                    .unwrap()
                    .iter()
                    .all(|m| f.eval(m))
            })
        });
    }
    g.finish();
}

fn bench_shrink_loop(c: &mut Criterion) {
    let mut g = c.benchmark_group("minimization ablation: incremental vs fresh solver per step");
    for n in [32usize, 64, 128] {
        let db = families::table1_random(n, 41);
        let part = ddb_models::Partition::minimize_all(n);
        g.bench_with_input(BenchmarkId::new("incremental", n), &n, |b, _| {
            b.iter(|| {
                let mut cost = Cost::new();
                let m = classical::some_model(&db, &mut cost)
                    .unwrap()
                    .expect("positive DB");
                minimal::pz_minimize(&db, &m, &part, &mut cost)
            })
        });
        g.bench_with_input(BenchmarkId::new("fresh", n), &n, |b, _| {
            b.iter(|| {
                let mut cost = Cost::new();
                let m = classical::some_model(&db, &mut cost)
                    .unwrap()
                    .expect("positive DB");
                minimal::pz_minimize_fresh(&db, &m, &part, &mut cost)
            })
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_ccwa_partition_sweep, bench_ecwa_formula,
              bench_minimal_engine, bench_shrink_loop
}
criterion_main!(benches);
