//! The prepared-database memo changes costs, never answers: a query asked
//! through a shared `Prepared` entry — first when it fills the memo, then
//! again when it reads it — must return the verdict or model set the same
//! entry point returns on a plain `&Database`, with the same oracle bill
//! (`Cost.sat_calls`, `Cost.candidates`) and the same `route.*` counters
//! in its recording. The entry is shared across every
//! configuration of a database, including the generic routing mode, a
//! non-default CCWA/ECWA partition and ICWA varying atoms, so a fact
//! computed for the default structure cannot leak into them.

use ddb_core::{
    AsPrepared, Enumeration, Prepared, RoutingMode, SemanticsConfig, SemanticsId, Unsupported,
    Verdict,
};
use ddb_logic::parse::parse_program;
use ddb_logic::{Atom, Database, Formula, Interpretation};
use ddb_models::{Cost, Partition};
use ddb_workloads::random::{random_db, DbSpec};
use ddb_workloads::structured::{even_loops, horn_chain, layered_disjunctive};
use std::sync::{Arc, Barrier};

/// The syntactic classes the ten semantics split on, plus ground
/// (first-order-named) programs whose bound queries take the magic route,
/// and Horn programs, consistent and not.
const CORPUS: &[&str] = &[
    "a | b. c :- a, b.",
    "a | b. :- a, b. c :- a, b.",
    "a. b :- a. c | d :- b. :- c, d.",
    "p :- not q. q :- not p. r | s :- p.",
    "p :- not q. q :- not p. r :- not r.",
    "f. a | b :- f. x | y. z :- not x.",
    "a. b :- a. c :- b.",
    "a. b :- a. :- b.",
    "e(a,b). r(b) :- r(a), e(a,b). r(a). r(b) :- ghost(x). s(a) | s(b).",
    "q(a) :- p(a). p(a) | p(b). t(z) :- p(a). u(z) :- not q(a).",
    "reach(c0,n1) :- reach(c0,n0), edge(c0,n0,n1). edge(c0,n0,n1). \
     reach(c0,n0) :- start(c0,a). reach(c0,n0) :- start(c0,b). \
     start(c0,a) | start(c0,b). start(c1,a) | start(c1,b). \
     reach(c1,n0) :- start(c1,a).",
];

/// Every `route.*` counter dispatch bumps.
const ROUTES: [&str; 12] = [
    "route.generic",
    "route.hcf",
    "route.hcf.stability_checks",
    "route.horn",
    "route.islands",
    "route.islands.components",
    "route.slice",
    "route.slice.blocked",
    "route.slice.dropped_rules",
    "route.split",
    "route.split.components",
    "route.split.decided_atoms",
];

fn corpus_and_random() -> Vec<Database> {
    let mut dbs: Vec<Database> = CORPUS.iter().map(|s| parse_program(s).unwrap()).collect();
    for seed in 0..100u64 {
        let spec = match seed % 3 {
            0 => DbSpec::positive(5, 8),
            1 => DbSpec::deductive(5, 8),
            _ => DbSpec::normal(5, 8),
        };
        dbs.push(random_db(&spec, seed));
    }
    dbs
}

/// The configurations one database is asked under: the default, the
/// generic routing mode, and where the semantics has one, a non-default
/// structure.
fn configs(id: SemanticsId, n: usize) -> Vec<SemanticsConfig> {
    let mut out = vec![
        SemanticsConfig::new(id),
        SemanticsConfig::new(id).with_routing(RoutingMode::Generic),
    ];
    let half: Vec<Atom> = (0..n / 2).map(|i| Atom::new(i as u32)).collect();
    match id {
        SemanticsId::Ccwa | SemanticsId::Ecwa if n >= 2 => {
            let q = vec![Atom::new(n as u32 - 1)];
            out.push(SemanticsConfig::new(id).with_partition(Partition::from_p_q(n, half, q)));
        }
        SemanticsId::Icwa if n >= 2 => {
            let mut cfg = SemanticsConfig::new(id);
            cfg.icwa_varying = Some(Interpretation::from_atoms(n, half));
            out.push(cfg);
        }
        _ => {}
    }
    out
}

/// One query of the paper's problems: inference (of a literal when the
/// formula is one), existence and enumeration.
#[derive(Clone, Debug)]
enum Query {
    Formula(Formula),
    Existence,
    Enumeration,
}

fn queries(db: &Database) -> Vec<Query> {
    let n = db.num_atoms() as u32;
    let mut atoms: Vec<u32> = vec![0, n / 2, n.saturating_sub(1)];
    atoms.dedup();
    let mut out: Vec<Query> = atoms
        .iter()
        .map(|&i| Query::Formula(Atom::new(i).pos().into()))
        .collect();
    out.push(Query::Formula(Atom::new(0).neg().into()));
    out.push(Query::Formula(Formula::Or(vec![
        Formula::Atom(Atom::new(0)),
        Formula::Atom(Atom::new(n / 2)).negated(),
    ])));
    out.push(Query::Existence);
    out.push(Query::Enumeration);
    out
}

#[derive(Debug, PartialEq, Eq)]
enum Answer {
    Verdict(Verdict),
    Models(Enumeration),
}

/// Everything a query is allowed to show: its answer (or rejection), its
/// oracle bill and the route counters it recorded.
#[derive(Debug, PartialEq, Eq)]
struct Outcome {
    answer: Result<Answer, Unsupported>,
    sat_calls: u64,
    candidates: u64,
    routes: [u64; ROUTES.len()],
}

fn observe(run: impl FnOnce(&mut Cost) -> Result<Answer, Unsupported>) -> Outcome {
    let mut cost = Cost::new();
    let (answer, rec) = ddb_obs::record(false, || run(&mut cost));
    Outcome {
        answer,
        sat_calls: cost.sat_calls,
        candidates: cost.candidates,
        routes: ROUTES.map(|name| rec.counters.get(name)),
    }
}

/// Asks `q` of `db`, a plain database or a prepared entry.
fn ask(cfg: &SemanticsConfig, db: &impl AsPrepared, q: &Query) -> Outcome {
    observe(|c| match q {
        Query::Formula(f) => cfg.infers_formula(db, f, c).map(Answer::Verdict),
        Query::Existence => cfg.has_model(db, c).map(Answer::Verdict),
        Query::Enumeration => cfg.models(db, c).map(Answer::Models),
    })
}

#[test]
fn prepared_entries_answer_and_bill_like_the_plain_path() {
    for (di, db) in corpus_and_random().iter().enumerate() {
        // One entry per database, shared by every configuration and
        // query, as a served catalog entry is.
        let entry = Prepared::new(db.clone());
        for id in SemanticsId::ALL {
            for cfg in configs(id, db.num_atoms()) {
                for q in queries(db) {
                    let what = format!(
                        "db {di} {id} {:?}/{:?} {q:?}",
                        cfg.routing,
                        cfg.partition.is_some() || cfg.icwa_varying.is_some()
                    );
                    let want = ask(&cfg, db, &q);
                    assert_eq!(ask(&cfg, &entry, &q), want, "{what}: first ask");
                    assert_eq!(ask(&cfg, &entry, &q), want, "{what}: memo hit");
                }
                assert_eq!(
                    cfg.check_applicable(&entry),
                    cfg.check_applicable(db),
                    "db {di} {id}"
                );
            }
        }
    }
}

#[test]
fn plans_read_from_the_memo_match_the_plain_plans() {
    use ddb_analysis::PlanQuery;
    for (di, db) in corpus_and_random().iter().enumerate().take(40) {
        let entry = Prepared::new(db.clone());
        for id in SemanticsId::ALL {
            let cfg = SemanticsConfig::new(id);
            for q in [
                PlanQuery::Literal(Atom::new(0)),
                PlanQuery::Formula(vec![Atom::new(0), Atom::new(1)]),
                PlanQuery::Existence,
                PlanQuery::Enumeration,
            ] {
                let render = |p: Result<ddb_analysis::PlanNode, Unsupported>| p.map(|n| n.render());
                let want = render(cfg.plan(db, &q));
                assert_eq!(render(cfg.plan(&entry, &q)), want, "db {di} {id} {q:?}");
                assert_eq!(render(cfg.plan(&entry, &q)), want, "db {di} {id} {q:?}");
            }
        }
    }
}

/// All ten semantics × every query on `db` through `entry`, rendered.
fn transcript(entry: &Prepared, db: &Database) -> String {
    let mut out = String::new();
    for id in SemanticsId::ALL {
        let cfg = SemanticsConfig::new(id);
        for q in queries(db) {
            out.push_str(&format!("{id} {q:?} {:?}\n", ask(&cfg, entry, &q)));
        }
    }
    out
}

#[test]
fn eight_threads_share_one_entry_and_agree() {
    let dbs = [
        layered_disjunctive(2, 2),
        even_loops(2),
        horn_chain(40),
        parse_program(CORPUS[5]).unwrap(),
        parse_program(CORPUS[8]).unwrap(),
        parse_program(CORPUS[10]).unwrap(),
    ];
    for (di, db) in dbs.iter().enumerate() {
        // The reference: the plain path, one thread.
        let mut want = String::new();
        for id in SemanticsId::ALL {
            let cfg = SemanticsConfig::new(id);
            for q in queries(db) {
                want.push_str(&format!("{id} {q:?} {:?}\n", ask(&cfg, db, &q)));
            }
        }
        // Eight threads race to fill one fresh entry.
        let entry = Arc::new(Prepared::new(db.clone()));
        let start = Arc::new(Barrier::new(8));
        let got: Vec<String> = (0..8)
            .map(|_| {
                let (entry, start, db) = (Arc::clone(&entry), Arc::clone(&start), db.clone());
                std::thread::spawn(move || {
                    start.wait();
                    transcript(&entry, &db)
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().expect("query thread"))
            .collect();
        for (t, g) in got.iter().enumerate() {
            assert_eq!(g, &want, "db {di} thread {t}");
        }
    }
}

#[test]
fn supportable_atoms_and_active_atoms_are_one_closure() {
    let strip = |db: &Database| {
        let mut out = Database::new(db.symbols().clone());
        for r in db.rules() {
            out.add_rule(ddb_logic::Rule::new(
                r.head().to_vec(),
                r.body_pos().to_vec(),
                Vec::<Atom>::new(),
            ));
        }
        out
    };
    let mut reversed = Database::new(horn_chain(4000).symbols().clone());
    for r in horn_chain(4000).rules().iter().rev() {
        reversed.add_rule(r.clone());
    }
    let mut dbs = corpus_and_random();
    dbs.push(reversed.clone());
    for (di, db) in dbs.iter().enumerate() {
        // Negative bodies are ignored by the closure, so the DDR fixpoint
        // (defined without negation) is taken on the stripped database.
        assert_eq!(
            ddb_analysis::slice::supportable_atoms(db),
            ddb_models::fixpoint::active_atoms(&strip(db)),
            "db {di}"
        );
    }
    // The reversed chain still closes fully: every link is supportable.
    assert_eq!(
        ddb_analysis::slice::supportable_atoms(&reversed).count(),
        4000
    );
}
