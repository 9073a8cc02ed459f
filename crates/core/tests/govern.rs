//! End-to-end property tests for resource-governed execution: budgeted
//! runs that complete are bit-for-bit identical to unbudgeted ones,
//! deterministic fault injection at every checkpoint never panics and
//! never produces a wrong definite verdict, and cooperative cancellation
//! from another thread degrades promptly to `Unknown` while leaving the
//! solver stack reusable. The same holds on the islands route and for a
//! batch of formulas.

use ddb_core::{infers_formulas_batch, SemanticsConfig, SemanticsId, Verdict};
use ddb_logic::parse::{parse_formula, parse_program};
use ddb_logic::{Atom, Database, Formula};
use ddb_models::Cost;
use ddb_obs::{budget, Budget, Resource};
use ddb_workloads::random::{random_db, DbSpec};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Fixed programs covering the syntactic classes the ten semantics
/// split on: positive, deductive, stratified, normal with loops.
const CORPUS: &[&str] = &[
    "a | b. c :- a, b.",
    "a | b. :- a, b. c :- a, b.",
    "a. b :- a. c | d :- b. :- c, d.",
    "p :- not q. q :- not p. r | s :- p.",
    "p :- not q. q :- not p. r :- not r.",
];

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

/// One full pass over the paper's three decision problems. `None` when
/// the semantics does not support the database's class.
fn run_all(
    cfg: &SemanticsConfig,
    db: &Database,
    cost: &mut Cost,
) -> Option<(Verdict, Verdict, Verdict)> {
    let lit = Atom::new(0).neg();
    let f = Formula::Or(vec![
        Formula::Atom(Atom::new(0)),
        Formula::Atom(Atom::new(1)).negated(),
    ]);
    let l = cfg.infers_formula(db, &Formula::from(lit), cost).ok()?;
    let fo = cfg.infers_formula(db, &f, cost).ok()?;
    let e = cfg.has_model(db, cost).ok()?;
    Some((l, fo, e))
}

#[test]
fn budgeted_runs_that_complete_agree_bit_for_bit() {
    for (di, db) in corpus_and_random().iter().enumerate() {
        for id in SemanticsId::ALL {
            let cfg = SemanticsConfig::new(id);
            let mut cost_free = Cost::new();
            let Some(free) = run_all(&cfg, db, &mut cost_free) else {
                continue;
            };
            assert!(
                free.0.is_definite() && free.1.is_definite() && free.2.is_definite(),
                "{id} db {di}: unbudgeted runs are always definite"
            );
            // A generous budget never trips, so the governed run must be
            // indistinguishable: same verdicts, same oracle accounting.
            let mut cost_gov = Cost::new();
            let guard = Budget::unlimited()
                .with_timeout(Duration::from_secs(600))
                .with_max_oracle_calls(10_000_000)
                .with_max_conflicts(1 << 40)
                .with_max_models(10_000_000)
                .install();
            let gov = run_all(&cfg, db, &mut cost_gov);
            drop(guard);
            let gov = gov.expect("applicability cannot depend on the budget");
            assert_eq!(free, gov, "{id} db {di}: answers must be identical");
            assert_eq!(
                cost_free.sat_calls, cost_gov.sat_calls,
                "{id} db {di}: oracle-call counts must be identical"
            );
            assert_eq!(
                cost_free.candidates, cost_gov.candidates,
                "{id} db {di}: candidate counts must be identical"
            );
        }
    }
}

#[test]
fn fault_injection_at_every_checkpoint_is_safe() {
    for src in CORPUS {
        let db = parse_program(src).unwrap();
        for id in SemanticsId::ALL {
            let cfg = SemanticsConfig::new(id);
            let mut cost = Cost::new();
            let Some(truth) = run_all(&cfg, &db, &mut cost) else {
                continue;
            };
            // Count the checkpoints of one full governed pass, then
            // re-run with a fault injected at every index in turn.
            let guard = Budget::unlimited().install();
            let mut c = Cost::new();
            run_all(&cfg, &db, &mut c);
            let total = budget::consumed().expect("governor installed").checkpoints;
            drop(guard);
            for k in 0..=total {
                let guard = Budget::unlimited().fail_after(k).install();
                let mut c = Cost::new();
                let got = run_all(&cfg, &db, &mut c);
                drop(guard);
                let got = got.expect("applicability cannot depend on the budget");
                for (slot, (g, t)) in [(&got.0, &truth.0), (&got.1, &truth.1), (&got.2, &truth.2)]
                    .into_iter()
                    .enumerate()
                {
                    match g.as_bool() {
                        // Work that completed before the injected fault
                        // must still be correct — never a wrong verdict.
                        Some(b) => assert_eq!(
                            b,
                            t.as_bool().expect("truth is definite"),
                            "{id} on `{src}` slot {slot} fail_after({k})"
                        ),
                        None => assert_eq!(
                            g.interrupted().expect("unknown carries its trip").resource,
                            Resource::FaultInjection,
                            "{id} on `{src}` slot {slot} fail_after({k})"
                        ),
                    }
                }
            }
            // The solver stack is clean after every interruption: an
            // unbudgeted re-run still produces the ground truth.
            let mut c = Cost::new();
            assert_eq!(
                run_all(&cfg, &db, &mut c).expect("still applicable"),
                truth,
                "{id} on `{src}`: state corrupted by injected faults"
            );
        }
    }
}

#[test]
fn exhausted_oracle_budget_is_unknown_for_every_semantics() {
    // A zero-oracle budget on a non-trivial disjunctive database: every
    // oracle-backed procedure degrades to Unknown, none panics, and the
    // trip is attributed to the right resource.
    let db = parse_program("a | b. :- a, b. c :- a, b.").unwrap();
    for id in SemanticsId::ALL {
        let cfg = SemanticsConfig::new(id).with_routing(ddb_core::RoutingMode::Generic);
        let guard = Budget::unlimited().with_max_oracle_calls(0).install();
        let mut cost = Cost::new();
        let got = cfg.infers_formula(&db, &Formula::from(Atom::new(2).neg()), &mut cost);
        drop(guard);
        if let Ok(v) = got {
            if let Some(i) = v.interrupted() {
                assert_eq!(i.resource, Resource::OracleCalls, "{id}");
            }
        }
    }
}

#[test]
fn cancellation_from_another_thread_is_prompt_and_leaves_clean_state() {
    // A tower family big enough that full minimal-model enumeration
    // takes far longer than the cancellation delay: 2^16 minimal models.
    let db = ddb_workloads::structured::sliceable_towers(16, 4);
    let flag = Arc::new(AtomicBool::new(false));
    let setter = {
        let flag = Arc::clone(&flag);
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            flag.store(true, Ordering::Relaxed);
        })
    };
    let cfg = SemanticsConfig::new(SemanticsId::Egcwa);
    let guard = Budget::unlimited()
        .with_cancel_flag(Arc::clone(&flag))
        .install();
    let started = std::time::Instant::now();
    let mut cost = Cost::new();
    let enumeration = cfg.models(&db, &mut cost).expect("EGCWA applies");
    let elapsed = started.elapsed();
    drop(guard);
    setter.join().unwrap();
    let interrupt = enumeration
        .interrupted
        .as_ref()
        .expect("2^16-model enumeration cannot finish before the cancel");
    assert_eq!(interrupt.resource, Resource::Cancelled);
    assert!(
        elapsed < Duration::from_secs(5),
        "cancellation must be prompt, took {elapsed:?}"
    );
    // Partial results are real: every model handed back before the trip
    // is a genuine minimal model of the database (sample the first few).
    for m in enumeration.models.iter().take(5) {
        let mut c = Cost::new();
        assert!(
            ddb_models::minimal::is_minimal_model(&db, m, &mut c).unwrap(),
            "interrupted enumeration leaked a non-minimal model"
        );
    }
    // The thread's governor stack is clean: a fresh unbudgeted query on
    // the same thread answers definitively and correctly.
    let small = ddb_workloads::structured::sliceable_towers(2, 2);
    let mut cost = Cost::new();
    let after = cfg.models(&small, &mut cost).expect("EGCWA applies");
    assert!(after.is_complete(), "post-cancel run must be ungoverned");
    assert!(!after.models.is_empty());
}

#[test]
fn one_degraded_answer_counts_one_unknown() {
    // Each query takes a reduction whose sub-databases all need the
    // oracle: a slice, a peel whose residual falls into two islands, and
    // three islands. A zero-oracle budget trips once, and the one public
    // call reports one `Unknown`, however many sub-databases it reached.
    let cases = [
        (
            "a | b. c :- a. c :- b. x | y. z :- x.",
            Some("c"),
            "route.slice",
        ),
        (
            "f. a | b :- f. :- a, b. x | y. :- x, y.",
            None,
            "route.split",
        ),
        (
            "a | b. :- a, b. x | y. :- x, y. p | q. :- p, q.",
            None,
            "route.islands",
        ),
    ];
    let cfg = SemanticsConfig::new(SemanticsId::Egcwa);
    for (src, query, route) in cases {
        let db = parse_program(src).unwrap();
        let f = query.map(|q| parse_formula(q, db.symbols()).unwrap());
        let guard = Budget::unlimited().with_max_oracle_calls(0).install();
        let mut cost = Cost::new();
        let (verdict, rec) = ddb_obs::record(false, || match &f {
            Some(f) => cfg.infers_formula(&db, f, &mut cost),
            None => cfg.has_model(&db, &mut cost),
        });
        drop(guard);
        assert!(
            matches!(verdict, Ok(Verdict::Unknown(_))),
            "{src}: {verdict:?}"
        );
        assert_eq!(rec.counters.get(route), 1, "{src}");
        assert_eq!(
            rec.counters.get("govern.interrupts.oracle_calls"),
            1,
            "{src}"
        );
        assert_eq!(rec.counters.get("govern.unknown"), 1, "{src}");
        assert_eq!(rec.counters.get("govern.unknown.oracle_calls"), 1, "{src}");
    }
}

/// A database whose model existence takes the islands route: eight
/// towers, each with an integrity clause, so every island asks the oracle.
fn many_islands() -> Database {
    ddb_workloads::structured::guarded_towers(8, 3)
}

#[test]
fn fault_trip_on_the_islands_route_is_a_typed_unknown() {
    // A fault after a handful of checkpoints degrades the verdict to a
    // typed Unknown, never a wrong answer, and the thread is clean
    // afterwards.
    let db = many_islands();
    let cfg = SemanticsConfig::new(SemanticsId::Gcwa);
    let guard = Budget::unlimited().fail_after(3).install();
    let mut cost = Cost::new();
    let got = cfg.has_model(&db, &mut cost).unwrap();
    drop(guard);
    match got.as_bool() {
        Some(b) => assert!(b, "a definite answer must be correct"),
        None => assert_eq!(
            got.interrupted()
                .expect("unknown carries its trip")
                .resource,
            Resource::FaultInjection
        ),
    }
    assert!(!budget::active(), "the guard uninstalled its budget");
    let mut cost = Cost::new();
    let after = cfg.has_model(&db, &mut cost).unwrap();
    assert_eq!(after.as_bool(), Some(true), "post-trip state");
}

#[test]
fn zero_oracle_budget_on_the_islands_route_reports_oracle_calls() {
    let db = many_islands();
    let cfg = SemanticsConfig::new(SemanticsId::Gcwa);
    let guard = Budget::unlimited().with_max_oracle_calls(0).install();
    let mut cost = Cost::new();
    let got = cfg.has_model(&db, &mut cost).unwrap();
    drop(guard);
    let interrupt = got
        .interrupted()
        .expect("zero-oracle budget cannot answer a SAT question");
    assert_eq!(interrupt.resource, Resource::OracleCalls);
}

#[test]
fn batch_inference_matches_one_query_at_a_time_on_corpus() {
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
            let cfg = SemanticsConfig::new(id);
            let one_at_a_time: Option<Vec<(Verdict, Cost)>> = formulas
                .iter()
                .map(|f| {
                    let mut c = Cost::new();
                    cfg.infers_formula(&db, f, &mut c).ok().map(|v| (v, c))
                })
                .collect();
            let batch = infers_formulas_batch(&cfg, &db, &formulas).ok();
            match (&one_at_a_time, &batch) {
                (None, None) => {}
                (Some(seq), Some(bat)) => {
                    assert_eq!(seq.len(), bat.len());
                    for (fi, ((sv, sc), (bv, bc))) in seq.iter().zip(bat).enumerate() {
                        assert_eq!(sv, bv, "{id} db {di} formula {fi}: batch verdict");
                        assert_eq!(
                            sc.sat_calls, bc.sat_calls,
                            "{id} db {di} formula {fi}: batch oracle bill"
                        );
                    }
                }
                _ => panic!("{id} db {di}: applicability diverged"),
            }
        }
    }
}

#[test]
fn batch_inference_stops_under_a_trip_without_wrong_answers() {
    // GCWA formula inference is exponential in the number of towers, and
    // this test is about interrupt plumbing, so two towers suffice.
    let db = ddb_workloads::structured::sliceable_towers(2, 2);
    let formulas: Vec<Formula> = (0..6).map(|i| Formula::Atom(Atom::new(i))).collect();
    let cfg = SemanticsConfig::new(SemanticsId::Gcwa);
    let mut baseline = Vec::new();
    for f in &formulas {
        let mut c = Cost::new();
        baseline.push(cfg.infers_formula(&db, f, &mut c).unwrap());
    }
    let guard = Budget::unlimited().fail_after(2).install();
    let governed = infers_formulas_batch(&cfg, &db, &formulas).unwrap();
    drop(guard);
    for (fi, ((v, _), truth)) in governed.iter().zip(&baseline).enumerate() {
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
