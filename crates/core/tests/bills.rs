//! One bill: the `Cost` a call returns and the counters its `record`
//! scope saw are two readouts of the same oracle work, so they must agree
//! — `sat.solves` with `Cost.sat_calls` and `models.circ.candidates` with
//! `Cost.candidates` — for all ten semantics on the three problems
//! (existence, inference, model enumeration) over random deductive and
//! normal databases. A recording is the call's alone: answered by eight
//! threads at once, every count a call records matches its uncontended
//! recording exactly.

use ddb_core::{SemanticsConfig, SemanticsId};
use ddb_logic::{Atom, Database, Formula};
use ddb_models::Cost;
use ddb_obs::{record, CounterSnapshot};
use ddb_workloads::random::{random_db, DbSpec};

#[derive(Clone, Copy, Debug)]
enum Problem {
    Exists,
    Query,
    Models,
}

const PROBLEMS: [Problem; 3] = [Problem::Exists, Problem::Query, Problem::Models];

fn databases() -> Vec<Database> {
    (0..40u64)
        .map(|seed| {
            let spec = if seed.is_multiple_of(2) {
                DbSpec::deductive(6, 8)
            } else {
                DbSpec::normal(6, 8)
            };
            random_db(&spec, seed)
        })
        .collect()
}

/// A literal query on even seeds and a two-atom disjunction on odd ones,
/// so both GCWA/DDR/PWS literal procedures and formula procedures run.
fn query(db: &Database, i: usize) -> Formula {
    let atom = |k: usize| Formula::Atom(Atom::new((k % db.num_atoms()) as u32));
    if i.is_multiple_of(2) {
        atom(i).negated()
    } else {
        Formula::Or(vec![atom(i), atom(i + 3).negated()])
    }
}

/// Answers one problem under its own scope: the call's bill and what it
/// recorded.
fn bill(id: SemanticsId, db: &Database, f: &Formula, problem: Problem) -> (Cost, CounterSnapshot) {
    let cfg = SemanticsConfig::new(id);
    let mut cost = Cost::new();
    let ((), rec) = record(false, || match problem {
        Problem::Exists => drop(cfg.has_model(db, &mut cost)),
        Problem::Query => drop(cfg.infers_formula(db, f, &mut cost)),
        Problem::Models => drop(cfg.models(db, &mut cost)),
    });
    (cost, rec.counters)
}

/// The counters whose values do not depend on timing.
fn counts(counters: &CounterSnapshot) -> Vec<(String, u64)> {
    counters
        .iter()
        .filter(|(name, _)| {
            (name.starts_with("sat.") && !name.ends_with(".ns"))
                || name.starts_with("route.")
                || name.starts_with("models.")
        })
        .map(|(name, value)| (name.to_owned(), value))
        .collect()
}

#[test]
fn recorded_counters_match_the_returned_bill() {
    let dbs = databases();
    let mut checked = 0;
    for (i, db) in dbs.iter().enumerate() {
        let f = query(db, i);
        for id in SemanticsId::ALL {
            for problem in PROBLEMS {
                let (cost, counters) = bill(id, db, &f, problem);
                let case = format!("db {i}, {id}, {problem:?}");
                assert_eq!(counters.get("sat.solves"), cost.sat_calls, "{case}");
                assert_eq!(
                    counters.get("models.circ.candidates"),
                    cost.candidates,
                    "{case}"
                );
                checked += 1;
            }
        }
    }
    assert_eq!(checked, 40 * 10 * 3);
}

#[test]
fn concurrent_recordings_match_uncontended_ones() {
    let dbs = databases();
    let cases = |i: usize, db: &Database| {
        let f = query(db, i);
        SemanticsId::ALL
            .into_iter()
            .flat_map(move |id| PROBLEMS.map(|p| (id, p)))
            .map(move |(id, p)| counts(&bill(id, db, &f, p).1))
            .collect::<Vec<_>>()
    };
    let alone: Vec<_> = dbs.iter().enumerate().map(|(i, db)| cases(i, db)).collect();
    assert!(
        alone.iter().flatten().any(|c| !c.is_empty()),
        "the calls must record something"
    );
    const THREADS: usize = 8;
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let (dbs, alone) = (&dbs, &alone);
            s.spawn(move || {
                for i in (t..dbs.len()).step_by(THREADS) {
                    assert_eq!(cases(i, &dbs[i]), alone[i], "db {i} on thread {t}");
                }
            });
        }
    });
}

/// Keeping trace events is observation only: under all ten semantics, a
/// scope that keeps them asks the oracle the same questions and records
/// the same counts as one that does not, and the latency histogram holds
/// one sample per SAT call either way.
#[test]
fn keeping_events_changes_no_count() {
    let db = ddb_workloads::structured::sliceable_towers(2, 3);
    let f = Formula::Atom(Atom::new(0));
    let mut total = 0;
    for id in SemanticsId::ALL {
        let cfg = SemanticsConfig::new(id);
        let run = |events| {
            let mut cost = Cost::new();
            let (_, rec) = record(events, || cfg.infers_formula(&db, &f, &mut cost));
            let samples = rec.histograms.count("sat.solve.ns");
            (cost.sat_calls, counts(&rec.counters), samples)
        };
        let quiet = run(false);
        assert_eq!(quiet.2, quiet.0, "{id}: one latency sample per SAT call");
        assert_eq!(run(true), quiet, "{id}: keeping events changed the bill");
        total += quiet.0;
    }
    assert!(total > 0, "the query must exercise the oracle");
}

/// `--explain` answers on the generic procedure: over the random
/// databases, for all ten semantics, `explain_formula` returns a
/// countermodel exactly when the generically routed query answers false,
/// and pays the same bill — except for the GCWA/DDR/PWS literal
/// procedures, which answer a one-literal query without a countermodel.
/// Every countermodel falsifies the query and belongs to the semantics'
/// model set.
#[test]
fn explain_pays_the_generic_query_bill() {
    use ddb_core::witness::{explain_formula, QueryOutcome};
    use ddb_core::RoutingMode;
    use ddb_logic::TruthValue;
    let dbs = databases();
    let (mut refuted, mut inferred) = (0, 0);
    for (i, db) in dbs.iter().enumerate() {
        let random = ddb_workloads::queries::random_formula(db.num_atoms(), 4, i as u64);
        for f in [query(db, i), random] {
            for id in SemanticsId::ALL {
                let cfg = SemanticsConfig::new(id).with_routing(RoutingMode::Generic);
                let case = format!("db {i}, {id}, {f:?}");
                let mut asked = Cost::new();
                let Ok(verdict) = cfg.infers_formula(db, &f, &mut asked) else {
                    continue; // DDR/PWS on negation, ICWA unstratified
                };
                let mut explained = Cost::new();
                let outcome = explain_formula(&cfg, db, &f, &mut explained).unwrap();
                assert_eq!(verdict.definite(), outcome.is_inferred(), "{case}");
                let shortcut = f.as_literal().is_some()
                    && matches!(id, SemanticsId::Gcwa | SemanticsId::Ddr | SemanticsId::Pws);
                if !shortcut {
                    assert_eq!(format!("{explained:?}"), format!("{asked:?}"), "{case}");
                }
                match outcome {
                    QueryOutcome::Inferred => inferred += 1,
                    QueryOutcome::Countermodel(m) => {
                        assert!(!f.eval(&m), "{case}: the countermodel must falsify");
                        let models = cfg.models(db, &mut Cost::new()).unwrap();
                        assert!(models.contains(&m), "{case}: the countermodel must belong");
                        refuted += 1;
                    }
                    QueryOutcome::CountermodelPartial(p) => {
                        assert_ne!(f.eval3(&p), TruthValue::True, "{case}");
                        let models = ddb_core::pdsm::models(db, &mut Cost::new()).unwrap();
                        assert!(models.contains(&p), "{case}: the countermodel must belong");
                        refuted += 1;
                    }
                    QueryOutcome::Unknown(i) => panic!("{case}: no budget installed, got {i}"),
                }
            }
        }
    }
    assert!(
        refuted > 100 && inferred > 100,
        "{refuted} refuted, {inferred} inferred"
    );
}
