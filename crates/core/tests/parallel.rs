//! Determinism and budget-inheritance properties of component-parallel
//! evaluation: for every semantics and every database, the answers, the
//! model sets, and the oracle bills must be byte-identical at every
//! thread count — the worker pool may only change wall-clock time. A
//! parent budget that trips mid-run must stop every worker with a typed
//! interrupt and leave the thread in a clean, reusable state.

use ddb_core::{parallel, SemanticsConfig, SemanticsId, Verdict};
use ddb_logic::parse::parse_program;
use ddb_logic::{Atom, Database, Formula};
use ddb_models::Cost;
use ddb_obs::{Budget, Resource};
use ddb_workloads::random::{random_db, DbSpec};

/// Same corpus as the governance suite: the syntactic classes the ten
/// semantics split on.
const CORPUS: &[&str] = &[
    "a | b. c :- a, b.",
    "a | b. :- a, b. c :- a, b.",
    "a. b :- a. c | d :- b. :- c, d.",
    "p :- not q. q :- not p. r | s :- p.",
    "p :- not q. q :- not p. r :- not r.",
];

/// Thread counts the pool must be indistinguishable across.
const WIDTHS: [usize; 3] = [1, 2, 8];

fn corpus_and_random() -> Vec<Database> {
    let mut dbs: Vec<Database> = CORPUS.iter().map(|s| parse_program(s).unwrap()).collect();
    for seed in 0..100u64 {
        let spec = match seed % 3 {
            0 => DbSpec::positive(4, 7),
            1 => DbSpec::deductive(4, 7),
            _ => DbSpec::normal(4, 7),
        };
        dbs.push(random_db(&spec, seed));
    }
    dbs
}

/// One full pass over the paper's decision problems plus the oracle
/// accounting. `None` when the semantics does not support the class.
fn run_all(cfg: &SemanticsConfig, db: &Database) -> Option<(Verdict, Verdict, Verdict, Cost)> {
    let lit = Atom::new(0).neg();
    let f = Formula::Or(vec![
        Formula::Atom(Atom::new(0)),
        Formula::Atom(Atom::new(1)).negated(),
    ]);
    let mut cost = Cost::new();
    let l = cfg
        .infers_formula(db, &Formula::from(lit), &mut cost)
        .ok()?;
    let fo = cfg.infers_formula(db, &f, &mut cost).ok()?;
    let e = cfg.has_model(db, &mut cost).ok()?;
    Some((l, fo, e, cost))
}

#[test]
fn thread_count_never_changes_answers_or_oracle_bills() {
    for (di, db) in corpus_and_random().iter().enumerate() {
        for id in SemanticsId::ALL {
            let base = match run_all(&SemanticsConfig::new(id), db) {
                Some(r) => r,
                None => continue,
            };
            for width in [2, 8] {
                let cfg = SemanticsConfig::new(id).with_threads(width);
                let wide = run_all(&cfg, db).expect("applicability cannot depend on threads");
                assert_eq!(
                    (&base.0, &base.1, &base.2),
                    (&wide.0, &wide.1, &wide.2),
                    "{id} db {di} threads {width}: answers must be identical"
                );
                assert_eq!(
                    base.3.sat_calls, wide.3.sat_calls,
                    "{id} db {di} threads {width}: oracle-call totals must be identical"
                );
                assert_eq!(
                    base.3.candidates, wide.3.candidates,
                    "{id} db {di} threads {width}: candidate counts must be identical"
                );
            }
        }
    }
}

#[test]
fn thread_count_never_changes_model_sets() {
    for (di, src) in CORPUS.iter().enumerate() {
        let db = parse_program(src).unwrap();
        for id in SemanticsId::ALL {
            let mut cost = Cost::new();
            let base = match SemanticsConfig::new(id).models(&db, &mut cost) {
                Ok(e) => e,
                Err(_) => continue,
            };
            assert!(base.is_complete(), "{id} db {di}: ungoverned run completes");
            for width in [2, 8] {
                let cfg = SemanticsConfig::new(id).with_threads(width);
                let mut cost = Cost::new();
                let wide = cfg.models(&db, &mut cost).expect("same applicability");
                assert_eq!(
                    base.models, wide.models,
                    "{id} db {di} threads {width}: model sets must be identical"
                );
            }
        }
    }
}

#[test]
fn batch_inference_matches_sequential_loop_on_corpus() {
    let a = |i: u32| Formula::Atom(Atom::new(i));
    let formulas: Vec<Formula> = vec![
        a(0),
        a(1).negated(),
        Formula::Or(vec![a(0), a(1)]),
        Formula::And(vec![a(0), a(2).negated()]),
        a(1).implies(a(0)),
    ];
    for (di, src) in CORPUS.iter().enumerate() {
        let db = parse_program(src).unwrap();
        for id in SemanticsId::ALL {
            let sequential: Option<Vec<(Verdict, Cost)>> = formulas
                .iter()
                .map(|f| {
                    let mut c = Cost::new();
                    SemanticsConfig::new(id)
                        .infers_formula(&db, f, &mut c)
                        .ok()
                        .map(|v| (v, c))
                })
                .collect();
            for width in WIDTHS {
                let cfg = SemanticsConfig::new(id).with_threads(width);
                let batch = parallel::infers_formulas_batch(&cfg, &db, &formulas).ok();
                match (&sequential, &batch) {
                    (None, None) => {}
                    (Some(seq), Some(bat)) => {
                        assert_eq!(seq.len(), bat.len());
                        for (fi, ((sv, sc), (bv, bc))) in seq.iter().zip(bat.iter()).enumerate() {
                            assert_eq!(
                                sv, bv,
                                "{id} db {di} formula {fi} threads {width}: batch verdict"
                            );
                            assert_eq!(
                                sc.sat_calls, bc.sat_calls,
                                "{id} db {di} formula {fi} threads {width}: batch oracle bill"
                            );
                        }
                    }
                    _ => panic!("{id} db {di} threads {width}: applicability diverged"),
                }
            }
        }
    }
}

/// A database whose dependency graph is many disjoint islands, so
/// existence checks route through the worker pool at every width ≥ 2.
/// Each tower carries an integrity clause, so no island is positive:
/// every worker's existence check asks the oracle instead of taking the
/// `O(1)` positive leaf.
fn many_islands() -> Database {
    ddb_workloads::structured::guarded_towers(8, 3)
}

#[test]
fn parallel_islands_route_fires_and_agrees_with_sequential() {
    let db = many_islands();
    let cfg = SemanticsConfig::new(SemanticsId::Gcwa);
    let mut cost = Cost::new();
    let base = cfg.has_model(&db, &mut cost).unwrap();
    assert_eq!(base.as_bool(), Some(true));
    for width in [2, 8] {
        let cfg = SemanticsConfig::new(SemanticsId::Gcwa).with_threads(width);
        let mut cost = Cost::new();
        let (wide, rec) = ddb_obs::record(false, || cfg.has_model(&db, &mut cost).unwrap());
        assert_eq!(base, wide, "threads {width}");
        assert!(
            rec.counters.get("route.islands") > 0,
            "threads {width}: the islands route must actually fire"
        );
    }
}

#[test]
fn parent_fault_trip_interrupts_workers_with_typed_interrupt() {
    // The parent installs a budget that faults after a handful of
    // checkpoints. Workers inherit the shared trip state, so the fault
    // stops the whole pool: the verdict degrades to a typed Unknown,
    // never a wrong answer, and the thread is clean afterwards.
    let db = many_islands();
    for width in WIDTHS {
        let cfg = SemanticsConfig::new(SemanticsId::Gcwa).with_threads(width);
        let guard = Budget::unlimited().fail_after(3).install();
        let mut cost = Cost::new();
        let got = cfg.has_model(&db, &mut cost).unwrap();
        drop(guard);
        match got.as_bool() {
            Some(b) => assert!(b, "threads {width}: a definite answer must be correct"),
            None => assert_eq!(
                got.interrupted()
                    .expect("unknown carries its trip")
                    .resource,
                Resource::FaultInjection,
                "threads {width}"
            ),
        }
        // Clean state: an ungoverned re-run on this thread is definite.
        let mut cost = Cost::new();
        let after = cfg.has_model(&db, &mut cost).unwrap();
        assert_eq!(
            after.as_bool(),
            Some(true),
            "threads {width}: post-trip state"
        );
    }
}

#[test]
fn zero_oracle_budget_is_inherited_by_every_worker() {
    let db = many_islands();
    for width in [2, 8] {
        let cfg = SemanticsConfig::new(SemanticsId::Gcwa).with_threads(width);
        let guard = Budget::unlimited().with_max_oracle_calls(0).install();
        let mut cost = Cost::new();
        let got = cfg.has_model(&db, &mut cost).unwrap();
        drop(guard);
        let interrupt = got
            .interrupted()
            .expect("zero-oracle budget cannot answer a SAT question");
        assert_eq!(interrupt.resource, Resource::OracleCalls, "threads {width}");
    }
}

#[test]
fn batch_inference_stops_under_parent_trip_without_wrong_answers() {
    // Small island count: GCWA formula inference is exponential in the
    // number of towers, and this test is about interrupt plumbing, not
    // solver throughput.
    let db = ddb_workloads::structured::sliceable_towers(2, 2);
    let formulas: Vec<Formula> = (0..6).map(|i| Formula::Atom(Atom::new(i as u32))).collect();
    let cfg = SemanticsConfig::new(SemanticsId::Gcwa).with_threads(4);
    let mut baseline = Vec::new();
    for f in &formulas {
        let mut c = Cost::new();
        baseline.push(cfg.infers_formula(&db, f, &mut c).unwrap());
    }
    let guard = Budget::unlimited().fail_after(2).install();
    let governed = parallel::infers_formulas_batch(&cfg, &db, &formulas).unwrap();
    drop(guard);
    for (fi, ((v, _), truth)) in governed.iter().zip(baseline.iter()).enumerate() {
        match v.as_bool() {
            Some(b) => assert_eq!(
                Some(b),
                truth.as_bool(),
                "formula {fi}: interrupted batch may not flip a verdict"
            ),
            None => assert_eq!(
                v.interrupted().expect("unknown carries its trip").resource,
                Resource::FaultInjection,
                "formula {fi}"
            ),
        }
    }
}
