//! Seeded property tests for the query-relevant slicing and splitting
//! routes: whatever reduction `RoutingMode::Auto` applies, the answers
//! must be identical to the generic whole-database procedures, for all
//! ten semantics, on the corpus and on random databases — including
//! databases engineered to *fail* the soundness preconditions, where the
//! fallback to the generic route must fire (and be observable in the
//! `route.slice.blocked` counter).

use ddb_core::{RoutingMode, SemanticsConfig, SemanticsId};
use ddb_logic::parse::parse_program;
use ddb_logic::rng::XorShift64Star;
use ddb_logic::{Atom, Database, Formula, Rule};
use ddb_models::Cost;

/// The gains of `counters` recorded while `f` runs. The recording is
/// this call's alone, so concurrently running tests cannot race it.
fn gained<const N: usize>(counters: [&'static str; N], f: impl FnOnce()) -> [u64; N] {
    let ((), rec) = ddb_obs::record(false, f);
    counters.map(|name| rec.counters.get(name))
}

/// Hand-picked databases covering every admission/peel path: positive
/// sliceable layers, the GCWA/CCWA non-minimal-model trap, blocked
/// slices, constraints riding the peel, unstratifiable negation, and a
/// flatly inconsistent program.
const CORPUS: &[&str] = &[
    "a | b. c :- a. c :- b. x | y. z :- x.",
    "a | b. c :- a, b.",
    "a | b. c :- a. d :- not c. e.",
    "a. b :- a. c | d :- b. :- a, z.",
    "x0. x1 :- x0. a | b :- x1. q :- a. q :- b.",
    "a :- not b. b :- not a. p | q :- a.",
    "t. :- t. a | b.",
    "p :- q, not u. p :- q, s. q. s.",
    "a | b. :- a. c :- b.",
    "a | b | c. d :- a. d :- b. e :- d, not c.",
];

fn query_formulas(db: &Database) -> Vec<Formula> {
    let mut fs = Vec::new();
    let n = db.num_atoms();
    if n >= 1 {
        fs.push(Formula::Atom(Atom::new(0)));
        fs.push(Formula::Atom(Atom::new(0)).negated());
    }
    if n >= 2 {
        fs.push(Formula::Or(vec![
            Formula::Atom(Atom::new(0)),
            Formula::Atom(Atom::new(1)).negated(),
        ]));
        fs.push(Formula::And(vec![
            Formula::Atom(Atom::new(0)),
            Formula::Atom(Atom::new(1)),
        ]));
    }
    fs
}

/// The heart of the suite: the auto-routed config (slice/split/Horn/HCF,
/// whichever applies) must agree with the generic one on every public
/// entry point.
fn assert_sliced_agrees(id: SemanticsId, db: &Database) {
    let auto = SemanticsConfig::new(id);
    let generic = SemanticsConfig::new(id).with_routing(RoutingMode::Generic);
    let mut ca = Cost::new();
    let mut cg = Cost::new();

    match (auto.has_model(db, &mut ca), generic.has_model(db, &mut cg)) {
        (Ok(a), Ok(g)) => assert_eq!(a, g, "{id:?} has_model on {db:?}"),
        (Err(_), Err(_)) => return, // unsupported either way
        _ => panic!("{id:?}: routed and generic disagree on applicability for {db:?}"),
    }

    for i in 0..db.num_atoms() as u32 {
        for lit in [Atom::new(i).pos(), Atom::new(i).neg()] {
            let f = Formula::from(lit);
            assert_eq!(
                auto.infers_formula(db, &f, &mut ca).unwrap(),
                generic.infers_formula(db, &f, &mut cg).unwrap(),
                "{id:?} literal {lit:?} on {db:?}"
            );
        }
    }
    for f in query_formulas(db) {
        assert_eq!(
            auto.infers_formula(db, &f, &mut ca).unwrap(),
            generic.infers_formula(db, &f, &mut cg).unwrap(),
            "{id:?} infers_formula {f:?} on {db:?}"
        );
    }
}

#[test]
fn corpus_sliced_answers_equal_generic_for_all_ten_semantics() {
    for src in CORPUS {
        let db = parse_program(src).unwrap();
        for id in SemanticsId::ALL {
            assert_sliced_agrees(id, &db);
        }
    }
}

const N: usize = 4;

fn random_db(rng: &mut XorShift64Star, allow_neg: bool) -> Database {
    let mut db = Database::with_fresh_atoms(N);
    for _ in 0..rng.gen_range(0, 6) {
        let h: Vec<u32> = (0..rng.gen_range(0, 3))
            .map(|_| rng.gen_range(0, N) as u32)
            .collect();
        let bp: Vec<u32> = (0..rng.gen_range(0, 3))
            .map(|_| rng.gen_range(0, N) as u32)
            .collect();
        let bn: Vec<u32> = (0..rng.gen_range(0, 1 + 2 * usize::from(allow_neg)))
            .map(|_| rng.gen_range(0, N) as u32)
            .collect();
        db.add_rule(Rule::new(
            h.into_iter().map(Atom::new),
            bp.into_iter().map(Atom::new),
            bn.into_iter().map(Atom::new),
        ));
    }
    db
}

#[test]
fn random_positive_dbs_sliced_answers_equal_generic() {
    let mut rng = XorShift64Star::seed_from_u64(0xDDB_0401);
    for _ in 0..50 {
        let db = random_db(&mut rng, false);
        for id in SemanticsId::ALL {
            assert_sliced_agrees(id, &db);
        }
    }
}

#[test]
fn random_normal_dbs_sliced_answers_equal_generic() {
    let mut rng = XorShift64Star::seed_from_u64(0xDDB_0402);
    for _ in 0..50 {
        let db = random_db(&mut rng, true);
        for id in SemanticsId::ALL {
            assert_sliced_agrees(id, &db);
        }
    }
}

/// A positive database of `layers` stacked disjunctive stages:
/// `c0 | d0.` then `a_i | b_i :- c_{i-1}. c_i :- a_i. c_i :- b_i.` — the
/// slice of a low-layer query drops every stage above it.
fn layered_db(layers: usize) -> Database {
    let n = 2 + 3 * layers;
    let mut db = Database::with_fresh_atoms(n);
    let c = |i: usize| Atom::new(if i == 0 { 0 } else { (3 * i + 1) as u32 });
    db.add_rule(Rule::new([Atom::new(0), Atom::new(1)], [], [])); // c0 | d0.
    for i in 1..=layers {
        let a = Atom::new((3 * i - 1) as u32);
        let b = Atom::new((3 * i) as u32);
        db.add_rule(Rule::new([a, b], [c(i - 1)], []));
        db.add_rule(Rule::new([c(i)], [a], []));
        db.add_rule(Rule::new([c(i)], [b], []));
    }
    db
}

#[test]
fn sliced_literal_inference_pays_strictly_fewer_oracle_calls() {
    let db = layered_db(4);
    // PDSM and ICWA refute ¬c1 on their first minimal candidate either
    // way, so they get an inferred query: `g :- c1, d0.` holds in no
    // minimal model (c1 needs c0, which excludes d0), and only the slice
    // avoids walking every minimal model to show ¬g.
    let mut with_goal = db.clone();
    let goal = with_goal.symbols_mut().fresh_atom("g");
    with_goal.add_rule(Rule::new([goal], [Atom::new(4), Atom::new(1)], []));
    // c1 (one stage up from the base) and its negation: the slice keeps 5
    // of 14 atoms, and the semantics whose literal procedures enumerate
    // characteristic models pay per model they no longer see.
    for (id, db, lit) in [
        (SemanticsId::Ccwa, &db, Atom::new(4).pos()),
        (SemanticsId::Icwa, &with_goal, goal.neg()),
        (SemanticsId::Dsm, &db, Atom::new(4).pos()),
        (SemanticsId::Pdsm, &with_goal, goal.neg()),
    ] {
        let mut ca = Cost::new();
        let mut cg = Cost::new();
        let auto = SemanticsConfig::new(id);
        let generic = SemanticsConfig::new(id).with_routing(RoutingMode::Generic);
        let f = Formula::from(lit);
        let a = auto.infers_formula(db, &f, &mut ca).unwrap();
        let g = generic.infers_formula(db, &f, &mut cg).unwrap();
        assert_eq!(a, g, "{id:?} on the layered family");
        assert!(
            ca.sat_calls < cg.sat_calls,
            "{id:?}: sliced route must be strictly cheaper ({} vs {} SAT calls)",
            ca.sat_calls,
            cg.sat_calls
        );
    }
}

#[test]
fn blocked_precondition_falls_back_and_counts_it() {
    // The slice of `c` is {a, b, c}, but `d :- not c.` reads `c` through
    // negation from outside: not split-closed, and the database is not
    // positive, so every admission is Blocked for DSM.
    let db = parse_program("a | b. c :- a. d :- not c. e.").unwrap();
    let [blocked] = gained(["route.slice.blocked"], || {
        assert_sliced_agrees(SemanticsId::Dsm, &db)
    });
    assert!(blocked > 0, "fallback must be observable");
}

#[test]
fn admitted_slices_and_peels_are_observable() {
    let db = parse_program("a | b. c :- a. c :- b. x | y. z :- x.").unwrap();
    let mut ans = false;
    let [sliced] = gained(["route.slice"], || {
        ans = SemanticsConfig::new(SemanticsId::Egcwa)
            .infers_formula(&db, &Formula::from(Atom::new(2).pos()), &mut Cost::new())
            .unwrap()
            .definite();
    });
    assert!(ans, "c holds in every minimal model");
    assert!(sliced > 0, "slice route taken");

    let db = parse_program("x0. x1 :- x0. a | b :- x1. q :- a. q :- b.").unwrap();
    let f = Formula::And(vec![
        Formula::Atom(Atom::new(1)),
        Formula::Atom(Atom::new(4)),
    ]);
    let [sliced, split] = gained(["route.slice", "route.split"], || {
        ans = SemanticsConfig::new(SemanticsId::Dsm)
            .infers_formula(&db, &f, &mut Cost::new())
            .unwrap()
            .definite();
    });
    assert!(ans, "x1 and q hold in every stable model");
    assert!(sliced + split > 0, "a reduction route must be taken");
}
