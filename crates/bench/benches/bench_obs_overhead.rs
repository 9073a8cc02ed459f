//! `T1-obs-overhead` — the observability tax on the solve stack.
//!
//! The spans, counters and latency histograms on the oracle hot path are
//! always compiled in; what varies at runtime is whether the enclosing
//! `ddb_obs::record` scope keeps trace events. Without events, a would-be
//! event costs one flag test in the thread's recorder and is never
//! constructed; with events, every span transition and counter bump is
//! materialized into the recorder's buffer. This bench times the same
//! EGCWA inference under `record(false, …)` and `record(true, …)`,
//! asserts the *semantics* are untouched — identical verdict, identical
//! oracle bill, one `sat.solve.ns` histogram sample per SAT call either
//! way, read off each run's `Recording` — and records the derived
//! ns-per-oracle-call delta as a synthetic `overhead/ns_per_call_delta`
//! metric in the `DDB_BENCH_JSON` summary.
//!
//! The delta is a guard rail, not a pass/fail gate: wall-clock bounds are
//! hostile to CI hardware variance, so the hard assertions here are only
//! about observational transparency (counts), never about time.

use ddb_bench::microbench::{black_box, criterion_group, criterion_main, record_metric, Criterion};
use ddb_core::{SemanticsConfig, SemanticsId};
use ddb_logic::{Atom, Database, Formula};
use ddb_models::Cost;
use ddb_obs::Recording;
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

fn workload() -> (Database, Formula) {
    let towers = if fast() { 2 } else { 4 };
    let db = structured::sliceable_towers(towers, 3);
    (db, Formula::Atom(Atom::new(0)))
}

/// One full inference under a `record` scope that keeps trace events or
/// not; returns the oracle bill and the recording.
fn run_once(cfg: &SemanticsConfig, db: &Database, f: &Formula, events: bool) -> (u64, Recording) {
    ddb_obs::record(events, || {
        let mut cost = Cost::new();
        black_box(cfg.infers_formula(db, f, &mut cost).unwrap());
        cost.sat_calls
    })
}

fn bench_obs_overhead(c: &mut Criterion) {
    let (db, f) = workload();
    let cfg = SemanticsConfig::new(SemanticsId::Egcwa);

    // Transparency audit: keeping events must ask the oracle the exact
    // same questions, and the histogram must catch every call.
    let (calls_off, off) = run_once(&cfg, &db, &f, false);
    assert_eq!(
        off.histograms.count("sat.solve.ns"),
        calls_off,
        "events off: one latency sample per SAT call"
    );
    let (calls_on, on) = run_once(&cfg, &db, &f, true);
    assert_eq!(
        calls_on, calls_off,
        "keeping events must not change the oracle bill"
    );
    assert_eq!(
        on.histograms.count("sat.solve.ns"),
        calls_on,
        "events on: one latency sample per SAT call"
    );
    assert!(calls_off > 0, "workload must exercise the oracle");

    let mut g = c.benchmark_group("T1-obs-overhead (events off vs on)");
    g.bench_function("events-off", |b| b.iter(|| run_once(&cfg, &db, &f, false)));
    g.bench_function("events-on", |b| b.iter(|| run_once(&cfg, &db, &f, true)));
    g.finish();

    // Derived guard-rail metric: ns per oracle call attributable to the
    // event stream, from a matched pair of untimed-by-criterion loops.
    let iters = if fast() { 20 } else { 60 };
    let timed = |events: bool| -> f64 {
        let start = Instant::now();
        for _ in 0..iters {
            black_box(run_once(&cfg, &db, &f, events));
        }
        let ns = start.elapsed().as_nanos() as f64;
        ns / (iters as f64 * calls_off as f64)
    };
    let off_ns_per_call = timed(false);
    let on_ns_per_call = timed(true);
    record_metric(
        "overhead",
        "ns_per_call_delta",
        on_ns_per_call - off_ns_per_call,
    );
    record_metric("overhead", "ns_per_call_events_off", off_ns_per_call);
    record_metric("overhead", "ns_per_call_events_on", on_ns_per_call);
}

criterion_group!(
    name = obs_overhead;
    config = config();
    targets = bench_obs_overhead
);
criterion_main!(obs_overhead);
