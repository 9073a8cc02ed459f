//! `bench_magic` — goal-directed (magic) grounding and the magic route
//! against whole-program grounding on the bound-chains family.
//!
//! The family (`bound_chains`) is `CHAINS` independent linear chains
//! with a disjunctive founder choice each, all sharing the same
//! recursive reachability rules keyed on the chain identifier; the
//! query is bound to chain 0's last node. Whole-program grounding pays
//! for every chain; the demand-driven grounder and the planner's magic
//! route confine the work to one. Each timed pair is preceded by an
//! untimed audit asserting byte-identical answers and — at depth ≥ 64 —
//! at least a 10× drop in grounded rule instances, the acceptance bar
//! for the rewrite, enforced on every bench run. The grounded-rule,
//! grounded-atom and SAT-call counts land in the `DDB_BENCH_JSON`
//! metrics file (`BENCH_magic.json` in the repository root).

use ddb_bench::microbench::{
    criterion_group, criterion_main, record_metric, BenchmarkId, Criterion,
};
use ddb_core::{RoutingMode, SemanticsConfig, SemanticsId, Verdict};
use ddb_ground::parse::parse_datalog;
use ddb_ground::{ground_magic, ground_reduced, DatalogProgram, PredAtom};
use ddb_logic::{Database, Formula};
use ddb_models::Cost;
use ddb_workloads::structured::bound_chains;
use std::time::Duration;

const CHAINS: usize = 16;
const LIMIT: usize = 1_000_000;
const DEPTHS: [usize; 3] = [16, 64, 128];

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_millis(700))
        .warm_up_time(Duration::from_millis(200))
}

fn family(depth: usize) -> (DatalogProgram, PredAtom, String) {
    let (source, query) = bound_chains(CHAINS, depth);
    let prog = parse_datalog(&source).expect("bound_chains parses");
    let q = parse_datalog(&format!("{query}."))
        .expect("query atom parses")
        .rules[0]
        .head[0]
        .clone();
    (prog, q, query)
}

fn infers(db: &Database, name: &str, id: SemanticsId, routing: RoutingMode) -> (Verdict, u64) {
    let atom = db.symbols().lookup(name).expect("query atom grounded");
    let mut cost = Cost::new();
    let answer = SemanticsConfig::new(id)
        .with_routing(routing)
        .infers_formula(db, &Formula::atom(atom), &mut cost)
        .expect("unbudgeted run cannot be interrupted");
    (answer, cost.sat_calls)
}

/// The acceptance audit: identical answers rewritten-vs-whole under a
/// minimal-model and a stable semantics, never more SAT calls on the
/// magic route, and ≥ 10× fewer grounded rules at depth ≥ 64. Records
/// the counts into the metrics file.
fn audit(depth: usize) {
    let (prog, q, name) = family(depth);
    let whole = ground_reduced(&prog, LIMIT).expect("whole grounding fits");
    let magic = ground_magic(&prog, &q, LIMIT).expect("magic grounding fits");
    record_metric(
        "bench_magic grounded rules",
        &format!("whole/{depth}"),
        whole.len() as f64,
    );
    record_metric(
        "bench_magic grounded rules",
        &format!("magic/{depth}"),
        magic.len() as f64,
    );
    record_metric(
        "bench_magic grounded atoms",
        &format!("whole/{depth}"),
        whole.num_atoms() as f64,
    );
    record_metric(
        "bench_magic grounded atoms",
        &format!("magic/{depth}"),
        magic.num_atoms() as f64,
    );
    if depth >= 64 {
        assert!(
            magic.len() * 10 <= whole.len(),
            "depth {depth}: goal-directed grounding must be >= 10x smaller \
             ({} vs {} rules)",
            magic.len(),
            whole.len()
        );
    }
    for id in [SemanticsId::Gcwa, SemanticsId::Dsm] {
        let (a_whole, sat_generic) = infers(&whole, &name, id, RoutingMode::Generic);
        let (a_route, sat_route) = infers(&whole, &name, id, RoutingMode::Auto);
        let (a_magic, sat_magic) = infers(&magic, &name, id, RoutingMode::Auto);
        assert_eq!(
            a_whole, a_route,
            "{id:?} depth {depth}: magic route flipped the answer"
        );
        assert_eq!(
            a_whole, a_magic,
            "{id:?} depth {depth}: magic grounding flipped the answer"
        );
        assert!(
            sat_route <= sat_generic,
            "{id:?} depth {depth}: magic route must not cost more SAT calls \
             ({sat_route} vs {sat_generic})"
        );
        let tag = id.name();
        record_metric(
            "bench_magic SAT calls",
            &format!("{tag}-generic/{depth}"),
            sat_generic as f64,
        );
        record_metric(
            "bench_magic SAT calls",
            &format!("{tag}-rewritten/{depth}"),
            sat_route as f64,
        );
        record_metric(
            "bench_magic SAT calls",
            &format!("{tag}-magic-grounded/{depth}"),
            sat_magic as f64,
        );
        eprintln!(
            "bench_magic depth={depth} {tag}: rules {} whole vs {} magic; \
             SAT {sat_generic} generic vs {sat_route} rewritten",
            whole.len(),
            magic.len(),
        );
    }
}

/// Grounding time: demand-driven vs whole-program instantiation.
fn bench_grounding(c: &mut Criterion) {
    let mut g = c.benchmark_group("bench_magic-grounding (magic vs whole)");
    for &depth in &DEPTHS {
        audit(depth);
        let (prog, q, _) = family(depth);
        g.bench_with_input(BenchmarkId::new("whole", depth), &depth, |b, _| {
            b.iter(|| ground_reduced(&prog, LIMIT).unwrap())
        });
        g.bench_with_input(BenchmarkId::new("magic", depth), &depth, |b, _| {
            b.iter(|| ground_magic(&prog, &q, LIMIT).unwrap())
        });
    }
    g.finish();
}

/// Query time on the whole grounding: the planner's magic route against
/// the generic whole-database procedure (GCWA cautious literal).
fn bench_query(c: &mut Criterion) {
    let mut g = c.benchmark_group("bench_magic-GCWA-lit (magic route vs generic)");
    for &depth in &DEPTHS {
        let (prog, _, name) = family(depth);
        let whole = ground_reduced(&prog, LIMIT).unwrap();
        let query = Formula::atom(whole.symbols().lookup(&name).unwrap());
        g.bench_with_input(BenchmarkId::new("magic-route", depth), &depth, |b, _| {
            let cfg = SemanticsConfig::new(SemanticsId::Gcwa);
            b.iter(|| {
                let mut cost = Cost::new();
                cfg.infers_formula(&whole, &query, &mut cost).unwrap()
            })
        });
        g.bench_with_input(BenchmarkId::new("generic", depth), &depth, |b, _| {
            let cfg = SemanticsConfig::new(SemanticsId::Gcwa).with_routing(RoutingMode::Generic);
            b.iter(|| {
                let mut cost = Cost::new();
                cfg.infers_formula(&whole, &query, &mut cost).unwrap()
            })
        });
    }
    g.finish();
}

criterion_group!(
    name = magic;
    config = config();
    targets = bench_grounding, bench_query
);
criterion_main!(magic);
