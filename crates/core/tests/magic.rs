//! Seeded property tests for goal-directed (magic) restriction: on
//! databases whose atoms carry ground argument tuples, bound queries may
//! be answered on their demand closure with dead rules pruned, and
//! whatever `RoutingMode::Auto` decides the answers must be identical to
//! the generic whole-database procedures — for all ten semantics, on the
//! corpus and on random structured databases, for bound and unbound
//! queries alike. Where the route is admitted it must never pay more
//! oracle calls, and both the admitted route and the blocked fallback
//! must be observable in the `route.slice*` counters.

use ddb_analysis::{demand_closure, Prepared};
use ddb_core::{RoutingMode, SemanticsConfig, SemanticsId};
use ddb_logic::parse::parse_program;
use ddb_logic::rng::XorShift64Star;
use ddb_logic::{Atom, Database, Formula};
use ddb_models::Cost;

/// The gains of `counters` recorded while `f` runs. The recording is
/// this call's alone, so concurrently running tests cannot race it.
fn gained<const N: usize>(counters: [&'static str; N], f: impl FnOnce()) -> [u64; N] {
    let ((), rec) = ddb_obs::record(false, f);
    counters.map(|name| rec.counters.get(name))
}

/// Hand-picked structured databases covering the admission paths: a
/// two-component ancestry program (pruned and admitted), negation read
/// into the restriction from outside (blocked for the stable family),
/// constraints riding the restriction, an inconsistent program,
/// unstratifiable negation, a propositional/structured mix, and a
/// program whose query component is everything (no savings, still
/// sound).
const CORPUS: &[&str] = &[
    "root(t1,a) | root(t1,b). anc(t1,a) :- root(t1,a). anc(t1,b) :- root(t1,b). \
     anc(t1,m) :- anc(t1,b). root(t2,x). anc(t2,x) :- root(t2,x).",
    "p(a) | p(b). q(a) :- p(a). r(b) :- not q(a). s(b).",
    "t(a). :- t(a), u(b). v(c) | w(c).",
    "x(a). :- x(a).",
    "a(p) :- not b(p). b(p) :- not a(p). c(q) | d(q) :- a(p).",
    "e. f(a) :- e. g(b).",
    "h(k) | i(k). j(k) :- h(k). j(k) :- i(k).",
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

/// The heart of the suite: the auto-routed config (slice, split, Horn —
/// whichever the planner picks) must agree with the generic one
/// on every public entry point. Literal queries over structured atoms
/// are the bound case; the formula queries and propositional atoms
/// exercise the unbound fallback.
fn assert_magic_agrees(id: SemanticsId, db: &Database) {
    let auto = SemanticsConfig::new(id);
    let generic = SemanticsConfig::new(id).with_routing(RoutingMode::Generic);
    let mut ca = Cost::new();
    let mut cg = Cost::new();

    match (auto.has_model(db, &mut ca), generic.has_model(db, &mut cg)) {
        (Ok(a), Ok(g)) => assert_eq!(a, g, "{id:?} has_model on {db:?}"),
        (Err(_), Err(_)) => return, // unsupported either way
        _ => panic!("{id:?}: routed and generic disagree on applicability for {db:?}"),
    }

    // Cap the sweep: the first atoms of a structured database are the
    // interesting bound-query targets; sweeping all ~12 atoms of the
    // random databases × ten semantics × 120 databases is pure runtime.
    for i in 0..db.num_atoms().min(6) as u32 {
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
fn corpus_magic_answers_equal_generic_for_all_ten_semantics() {
    for src in CORPUS {
        let db = parse_program(src).unwrap();
        for id in SemanticsId::ALL {
            assert_magic_agrees(id, &db);
        }
    }
}

/// A random ground structured program rendered as source text: three
/// predicates over two component keys and two values, so most atoms are
/// bound-queryable and components overlap often enough to exercise both
/// proper restrictions and whole-database ones.
fn random_structured_db(rng: &mut XorShift64Star, allow_neg: bool) -> Database {
    let pool: Vec<String> = (0..2)
        .flat_map(|p| (0..2).flat_map(move |k| (0..2).map(move |v| format!("p{p}(k{k},v{v})"))))
        .collect();
    let pick = |rng: &mut XorShift64Star| pool[rng.gen_range(0, pool.len())].clone();
    let mut src = String::new();
    for _ in 0..rng.gen_range(1, 6) {
        let heads: Vec<String> = (0..rng.gen_range(0, 3)).map(|_| pick(rng)).collect();
        let mut body: Vec<String> = (0..rng.gen_range(0, 3)).map(|_| pick(rng)).collect();
        for _ in 0..rng.gen_range(0, 1 + 2 * usize::from(allow_neg)) {
            body.push(format!("not {}", pick(rng)));
        }
        if heads.is_empty() && body.is_empty() {
            src.push_str("p0(k0,v0). ");
            continue;
        }
        src.push_str(&heads.join(" | "));
        if !body.is_empty() {
            src.push_str(" :- ");
            src.push_str(&body.join(", "));
        }
        src.push_str(". ");
    }
    parse_program(&src).unwrap()
}

#[test]
fn random_positive_structured_dbs_magic_answers_equal_generic() {
    let mut rng = XorShift64Star::seed_from_u64(0xDDB_0901);
    for _ in 0..60 {
        let db = random_structured_db(&mut rng, false);
        for id in SemanticsId::ALL {
            assert_magic_agrees(id, &db);
        }
    }
}

#[test]
fn random_normal_structured_dbs_magic_answers_equal_generic() {
    let mut rng = XorShift64Star::seed_from_u64(0xDDB_0902);
    for _ in 0..60 {
        let db = random_structured_db(&mut rng, true);
        for id in SemanticsId::ALL {
            assert_magic_agrees(id, &db);
        }
    }
}

/// A positive program of `components` independent derivation chains
/// sharing a vocabulary shape, where a bound query touches exactly one
/// component: `start(ci,a) | start(ci,b).` then `reach(ci,n0)` from
/// either founder and `reach(ci,nj) :- reach(ci,n{j-1})`.
fn chained_db(components: usize, depth: usize) -> (Database, String) {
    let mut src = String::new();
    for c in 0..components {
        src.push_str(&format!("start(c{c},a) | start(c{c},b). "));
        src.push_str(&format!("reach(c{c},n0) :- start(c{c},a). "));
        src.push_str(&format!("reach(c{c},n0) :- start(c{c},b). "));
        for j in 1..=depth {
            src.push_str(&format!("reach(c{c},n{j}) :- reach(c{c},n{}). ", j - 1));
        }
    }
    let query = format!("reach(c0,n{depth})");
    (parse_program(&src).unwrap(), query)
}

#[test]
fn magic_restriction_never_grows_the_rule_set_and_prunes_chains() {
    let (db, query) = chained_db(6, 4);
    let atom = db.symbols().lookup(&query).unwrap();
    let restriction = demand_closure(&Prepared::borrowed(&db), &[atom], true);
    assert!(
        restriction.rules.len() <= db.len(),
        "a restriction can never have more rules than the database"
    );
    // Six identical components, one demanded: the restriction keeps one
    // component's 7 rules out of 42.
    assert_eq!(restriction.rules.len(), 7);
    assert!(restriction.split_closed);
}

#[test]
fn admitted_magic_pays_no_more_oracle_calls_for_any_semantics() {
    let (db, query) = chained_db(4, 3);
    let atom = db.symbols().lookup(&query).unwrap();
    for id in SemanticsId::ALL {
        let auto = SemanticsConfig::new(id);
        let generic = SemanticsConfig::new(id).with_routing(RoutingMode::Generic);
        let mut ca = Cost::new();
        let mut cg = Cost::new();
        let (a, g) = match (
            auto.infers_formula(&db, &Formula::from(atom.pos()), &mut ca),
            generic.infers_formula(&db, &Formula::from(atom.pos()), &mut cg),
        ) {
            (Ok(a), Ok(g)) => (a, g),
            (Err(_), Err(_)) => continue,
            _ => panic!("{id:?}: routed and generic disagree on applicability"),
        };
        assert_eq!(a, g, "{id:?} on the chained family");
        assert!(
            ca.sat_calls <= cg.sat_calls,
            "{id:?}: the restricted route must never pay more oracle calls \
             ({} vs {} SAT calls)",
            ca.sat_calls,
            cg.sat_calls
        );
    }
}

#[test]
fn bound_query_takes_the_slice_route_and_counts_dropped_rules() {
    let (db, query) = chained_db(4, 3);
    let atom = db.symbols().lookup(&query).unwrap();
    let mut ans = false;
    let [taken, dropped] = gained(["route.slice", "route.slice.dropped_rules"], || {
        ans = SemanticsConfig::new(SemanticsId::Gcwa)
            .infers_formula(&db, &Formula::from(atom.pos()), &mut Cost::new())
            .unwrap()
            .definite();
    });
    assert!(ans, "the chain endpoint holds in every minimal model");
    assert!(taken > 0, "slice route taken");
    assert!(dropped > 0, "pruned rules must be counted");
}

#[test]
fn blocked_restriction_falls_back_and_counts_it() {
    // The restriction of `q(a)` is {p(a), p(b), q(a)}, but `r(b) :- not
    // q(a).` reads `q(a)` through negation from outside: not
    // split-closed, and the database is not positive, so the admission
    // is Blocked for DSM and the generic route must answer.
    let db = parse_program("p(a) | p(b). q(a) :- p(a). r(b) :- not q(a). s(b).").unwrap();
    let [blocked] = gained(["route.slice.blocked"], || {
        assert_magic_agrees(SemanticsId::Dsm, &db)
    });
    assert!(blocked > 0, "fallback must be observable");
}

#[test]
fn propositional_queries_never_prune_dead_rules() {
    // `b :- ghost.` is dead, but `b` carries no argument tuple: the query
    // is unbound, so the closure keeps the dead rule and its body and
    // drops only the unrelated `x | y.`.
    let db = parse_program("a | z. b :- a. b :- ghost. ghost :- ghost2. x | y.").unwrap();
    let atom = db.symbols().lookup("b").unwrap();
    let mut ans = false;
    let [taken, dropped] = gained(["route.slice", "route.slice.dropped_rules"], || {
        ans = SemanticsConfig::new(SemanticsId::Egcwa)
            .infers_formula(&db, &Formula::from(atom.pos()), &mut Cost::new())
            .unwrap()
            .definite();
    });
    assert!(!ans, "b fails in the minimal model {{z}}");
    assert!(taken > 0, "slice route taken");
    assert_eq!(dropped, 1, "only the unrelated island is dropped");
}
