//! Property tests for the grounder: on random safe programs, the reduced
//! (intelligent) grounding must equal an independent oracle computed from
//! the exact grounding, and must agree with the exact grounding under the
//! supported semantics, and under the minimal-model semantics for
//! positive programs. The programs recurse through derived predicates, so
//! the semi-naive rounds join derived tuples from earlier rounds. Driven
//! by the in-repo deterministic PRNG (formerly proptest).

use ddb_ground::{
    ground_full, ground_magic, ground_reduced, DatalogProgram, DatalogRule, PredAtom, Term,
};
use ddb_logic::rng::XorShift64Star;
use ddb_logic::{Database, Rule};
use ddb_models::Cost;
use std::collections::BTreeSet;

const CONSTS: [&str; 3] = ["a", "b", "c"];
const VARS: [&str; 2] = ["X", "Y"];
const CASES: usize = 60;

fn c(i: usize) -> Term {
    Term::Const(CONSTS[i % CONSTS.len()].to_owned())
}

fn random_ground_fact(rng: &mut XorShift64Star) -> DatalogRule {
    // p/1 facts and r/2 facts.
    if rng.gen_bool(0.5) {
        DatalogRule {
            head: vec![PredAtom {
                pred: "p".into(),
                args: vec![c(rng.gen_range(0, 3))],
            }],
            body_pos: vec![],
            body_neg: vec![],
            disequalities: vec![],
        }
    } else {
        DatalogRule {
            head: vec![PredAtom {
                pred: "r".into(),
                args: vec![c(rng.gen_range(0, 3)), c(rng.gen_range(0, 3))],
            }],
            body_pos: vec![],
            body_neg: vec![],
            disequalities: vec![],
        }
    }
}

/// A safe rule: positive body fixes the variables; head and negative body
/// reuse them.
fn random_safe_rule(rng: &mut XorShift64Star, allow_neg: bool) -> DatalogRule {
    // Body: r(X,Y) or p(X); head: one or two atoms over bound vars;
    // optional negated atom over bound vars.
    let body_kind = rng.gen_range(0, 2);
    let (body_pos, bound): (Vec<PredAtom>, Vec<&str>) = if body_kind == 0 {
        (
            vec![PredAtom {
                pred: "r".into(),
                args: vec![Term::Var(VARS[0].into()), Term::Var(VARS[1].into())],
            }],
            vec![VARS[0], VARS[1]],
        )
    } else {
        (
            vec![PredAtom {
                pred: "p".into(),
                args: vec![Term::Var(VARS[0].into())],
            }],
            vec![VARS[0]],
        )
    };
    let mk_head = |k: usize| -> PredAtom {
        match k {
            0 => PredAtom {
                pred: "q".into(),
                args: vec![Term::Var(bound[0].into())],
            },
            1 => PredAtom {
                pred: "s".into(),
                args: vec![Term::Var(bound[bound.len() - 1].into())],
            },
            _ => PredAtom {
                pred: "t".into(),
                args: vec![],
            },
        }
    };
    let head: Vec<PredAtom> = (0..rng.gen_range_inclusive(1, 2))
        .map(|_| mk_head(rng.gen_range(0, 3)))
        .collect();
    let body_neg = if allow_neg && rng.gen_bool(0.5) {
        vec![PredAtom {
            pred: "q".into(),
            args: vec![Term::Var(bound[0].into())],
        }]
    } else {
        vec![]
    };
    DatalogRule {
        head,
        body_pos,
        body_neg,
        disequalities: vec![],
    }
}

/// Predicates a joined rule's body ranges over, with their arities: the
/// base facts `p` and `r`, and every derived predicate.
const BODY_PREDS: [(&str, usize); 7] = [
    ("p", 1),
    ("r", 2),
    ("q", 1),
    ("s", 1),
    ("t", 0),
    ("path", 2),
    ("u", 1),
];

/// Predicates a joined rule derives.
const HEAD_PREDS: [(&str, usize); 5] = [("q", 1), ("s", 1), ("t", 0), ("path", 2), ("u", 1)];

/// Variables of a joined rule.
const JOIN_VARS: [&str; 3] = ["X", "Y", "Z"];

/// A term over the variables `bound` by the positive body (a constant
/// when there are none, and now and then anyway).
fn bound_term(rng: &mut XorShift64Star, bound: &[&str]) -> Term {
    if bound.is_empty() || rng.gen_bool(0.15) {
        c(rng.gen_range(0, 3))
    } else {
        Term::Var(bound[rng.gen_range(0, bound.len())].into())
    }
}

fn atom_over(rng: &mut XorShift64Star, (pred, arity): (&str, usize), bound: &[&str]) -> PredAtom {
    PredAtom {
        pred: pred.into(),
        args: (0..arity).map(|_| bound_term(rng, bound)).collect(),
    }
}

/// A safe rule joining one or two atoms over base *and derived*
/// predicates, so rules recurse and joins read tuples derived in earlier
/// rounds. Body arguments are variables (repeats included) or constants;
/// the head may be disjunctive, and a negated atom and a disequality may
/// follow.
fn random_joined_rule(rng: &mut XorShift64Star, allow_neg: bool) -> DatalogRule {
    let mut bound: Vec<&str> = Vec::new();
    let body_pos: Vec<PredAtom> = (0..rng.gen_range_inclusive(1, 2))
        .map(|_| {
            let (pred, arity) = BODY_PREDS[rng.gen_range(0, BODY_PREDS.len())];
            let args = (0..arity)
                .map(|_| {
                    if rng.gen_bool(0.2) {
                        return c(rng.gen_range(0, 3));
                    }
                    let v = JOIN_VARS[rng.gen_range(0, JOIN_VARS.len())];
                    if !bound.contains(&v) {
                        bound.push(v);
                    }
                    Term::Var(v.into())
                })
                .collect();
            PredAtom {
                pred: pred.into(),
                args,
            }
        })
        .collect();
    let heads = if rng.gen_bool(0.25) { 2 } else { 1 };
    let head = (0..heads)
        .map(|_| {
            let pred = HEAD_PREDS[rng.gen_range(0, HEAD_PREDS.len())];
            atom_over(rng, pred, &bound)
        })
        .collect();
    let body_neg = if allow_neg && rng.gen_bool(0.4) {
        let pred = BODY_PREDS[rng.gen_range(0, BODY_PREDS.len())];
        vec![atom_over(rng, pred, &bound)]
    } else {
        vec![]
    };
    let disequalities = if !bound.is_empty() && rng.gen_bool(0.3) {
        let v = Term::Var(bound[rng.gen_range(0, bound.len())].into());
        vec![(v, bound_term(rng, &bound))]
    } else {
        vec![]
    };
    DatalogRule {
        head,
        body_pos,
        body_neg,
        disequalities,
    }
}

/// A linear or doubly recursive step on `path`, `path(X,Z) :- path(X,Y),
/// e(Y,Z)` with `e` one of `r` and `path`, its body atoms in either order.
fn random_transitive_rule(rng: &mut XorShift64Star) -> DatalogRule {
    let var = |v: &str| Term::Var(v.into());
    let atom = |pred: &str, a: &str, b: &str| PredAtom {
        pred: pred.into(),
        args: vec![var(a), var(b)],
    };
    let step = if rng.gen_bool(0.5) { "r" } else { "path" };
    let mut body_pos = vec![atom("path", "X", "Y"), atom(step, "Y", "Z")];
    if rng.gen_bool(0.5) {
        body_pos.reverse();
    }
    DatalogRule {
        head: vec![atom("path", "X", "Z")],
        body_pos,
        body_neg: vec![],
        disequalities: vec![],
    }
}

/// `path(X,Y) :- r(X,Y).`: seeds the recursive predicate from the facts.
fn path_seed() -> DatalogRule {
    let var = |v: &str| Term::Var(v.into());
    DatalogRule {
        head: vec![PredAtom {
            pred: "path".into(),
            args: vec![var("X"), var("Y")],
        }],
        body_pos: vec![PredAtom {
            pred: "r".into(),
            args: vec![var("X"), var("Y")],
        }],
        body_neg: vec![],
        disequalities: vec![],
    }
}

fn random_program(rng: &mut XorShift64Star, allow_neg: bool) -> DatalogProgram {
    let facts: Vec<DatalogRule> = (0..rng.gen_range(2, 7))
        .map(|_| random_ground_fact(rng))
        .collect();
    let mut rules: Vec<DatalogRule> = (0..rng.gen_range(2, 6))
        .map(|_| match rng.gen_range(0, 4) {
            0 => random_safe_rule(rng, allow_neg),
            1 => random_transitive_rule(rng),
            _ => random_joined_rule(rng, allow_neg),
        })
        .collect();
    if rng.gen_bool(0.7) {
        rules.push(path_seed());
    }
    DatalogProgram {
        rules: facts.into_iter().chain(rules).collect(),
    }
}

/// A ground rule rendered with each part's names sorted, so two
/// groundings compare independently of their atom numbering.
fn render(head: &[&str], pos: &[&str], neg: &[&str]) -> String {
    let sorted = |names: &[&str]| -> Vec<String> {
        let mut out: Vec<String> = names.iter().map(|n| (*n).to_owned()).collect();
        out.sort();
        out
    };
    let body: Vec<String> = sorted(pos)
        .into_iter()
        .chain(sorted(neg).into_iter().map(|n| format!("not {n}")))
        .collect();
    format!("{} :- {}.", sorted(head).join(" | "), body.join(", "))
}

fn rendered_rules(db: &Database) -> BTreeSet<String> {
    let names = |atoms: &[ddb_logic::Atom]| -> Vec<&str> {
        atoms.iter().map(|&a| db.symbols().name(a)).collect()
    };
    db.rules()
        .iter()
        .map(|r: &Rule| render(&names(r.head()), &names(r.body_pos()), &names(r.body_neg())))
        .collect()
}

/// The oracle for [`ground_reduced`], from the exact grounding alone: its
/// rules whose positive body lies in the least closure of the exact
/// grounding (every head atom true, negation ignored), each negated atom
/// outside that closure dropped.
fn reduced_by_oracle(full: &Database) -> BTreeSet<String> {
    let mut closed = vec![false; full.num_atoms()];
    loop {
        let mut grew = false;
        for rule in full.rules() {
            if rule.body_pos().iter().all(|a| closed[a.index()]) {
                for h in rule.head() {
                    grew |= !std::mem::replace(&mut closed[h.index()], true);
                }
            }
        }
        if !grew {
            break;
        }
    }
    let name = |a: &ddb_logic::Atom| full.symbols().name(*a);
    full.rules()
        .iter()
        .filter(|r| r.body_pos().iter().all(|a| closed[a.index()]))
        .map(|r| {
            let head: Vec<&str> = r.head().iter().map(name).collect();
            let pos: Vec<&str> = r.body_pos().iter().map(name).collect();
            let neg: Vec<&str> = r
                .body_neg()
                .iter()
                .filter(|a| closed[a.index()])
                .map(name)
                .collect();
            render(&head, &pos, &neg)
        })
        .collect()
}

fn named_models(db: &Database, models: Vec<ddb_logic::Interpretation>) -> BTreeSet<Vec<String>> {
    models
        .into_iter()
        .map(|m| {
            let mut names: Vec<String> =
                m.iter().map(|a| db.symbols().name(a).to_owned()).collect();
            names.sort();
            names
        })
        .collect()
}

#[test]
fn stable_models_agree_full_vs_reduced() {
    let mut rng = XorShift64Star::seed_from_u64(0x6001);
    for case in 0..CASES {
        let prog = random_program(&mut rng, true);
        let full = ground_full(&prog, 100_000).unwrap();
        let reduced = ground_reduced(&prog, 100_000).unwrap();
        let mut cost = Cost::new();
        assert_eq!(
            named_models(&full, ddb_core::dsm::models(&full, &mut cost).unwrap()),
            named_models(
                &reduced,
                ddb_core::dsm::models(&reduced, &mut cost).unwrap()
            ),
            "case {case}"
        );
    }
}

#[test]
fn minimal_models_agree_on_positive_programs() {
    let mut rng = XorShift64Star::seed_from_u64(0x6002);
    for case in 0..CASES {
        let prog = random_program(&mut rng, false);
        let full = ground_full(&prog, 100_000).unwrap();
        let reduced = ground_reduced(&prog, 100_000).unwrap();
        let mut cost = Cost::new();
        assert_eq!(
            named_models(
                &full,
                ddb_models::minimal::minimal_models(&full, &mut cost).unwrap()
            ),
            named_models(
                &reduced,
                ddb_models::minimal::minimal_models(&reduced, &mut cost).unwrap()
            ),
            "case {case}"
        );
    }
}

#[test]
fn possible_models_agree_on_positive_programs() {
    let mut rng = XorShift64Star::seed_from_u64(0x6003);
    for case in 0..CASES {
        let prog = random_program(&mut rng, false);
        let full = ground_full(&prog, 100_000).unwrap();
        let reduced = ground_reduced(&prog, 100_000).unwrap();
        let mut cost = Cost::new();
        assert_eq!(
            named_models(&full, ddb_core::pws::models(&full, &mut cost).unwrap()),
            named_models(
                &reduced,
                ddb_core::pws::models(&reduced, &mut cost).unwrap()
            ),
            "case {case}"
        );
    }
}

#[test]
fn reduced_grounding_is_never_larger() {
    let mut rng = XorShift64Star::seed_from_u64(0x6004);
    for case in 0..CASES {
        let prog = random_program(&mut rng, true);
        let full = ground_full(&prog, 100_000).unwrap();
        let reduced = ground_reduced(&prog, 100_000).unwrap();
        assert!(reduced.len() <= full.len(), "case {case}");
        assert!(reduced.num_atoms() <= full.num_atoms(), "case {case}");
    }
}

#[test]
fn grounding_is_deterministic() {
    let mut rng = XorShift64Star::seed_from_u64(0x6005);
    for case in 0..CASES {
        let prog = random_program(&mut rng, true);
        let a = ground_reduced(&prog, 100_000).unwrap();
        let b = ground_reduced(&prog, 100_000).unwrap();
        assert_eq!(a.rules(), b.rules(), "case {case}");
    }
}

#[test]
fn reduced_grounding_equals_the_closure_oracle() {
    let mut rng = XorShift64Star::seed_from_u64(0x6006);
    let derived = |name: &str| {
        HEAD_PREDS
            .iter()
            .any(|(p, _)| name.split('(').next() == Some(*p))
    };
    let (mut joins_derived, mut recursive) = (0, 0);
    for case in 0..4 * CASES {
        let prog = random_program(&mut rng, true);
        let full = ground_full(&prog, 100_000).unwrap();
        let reduced = ground_reduced(&prog, 100_000).unwrap();
        let rules = rendered_rules(&reduced);
        assert_eq!(rules.len(), reduced.len(), "case {case}: duplicate rules");
        assert_eq!(rules, reduced_by_oracle(&full), "case {case}:\n{prog}");
        let name = |a: &ddb_logic::Atom| reduced.symbols().name(*a);
        joins_derived += usize::from(
            reduced
                .rules()
                .iter()
                .any(|r| r.body_pos().iter().any(|a| derived(name(a)))),
        );
        recursive += usize::from(reduced.rules().iter().any(|r| {
            let pred = |a: &ddb_logic::Atom| name(a).split('(').next().unwrap();
            r.head()
                .iter()
                .any(|h| r.body_pos().iter().any(|b| pred(b) == pred(h)))
        }));
    }
    // The premise: joins read derived tuples, and rules recurse.
    assert!(
        joins_derived >= 3 * CASES / 2,
        "only {joins_derived} cases join derived tuples"
    );
    assert!(recursive >= CASES, "only {recursive} cases recurse");
}

#[test]
fn magic_grounding_is_a_fragment_of_the_reduced_grounding() {
    let mut rng = XorShift64Star::seed_from_u64(0x6007);
    for case in 0..2 * CASES {
        let prog = random_program(&mut rng, true);
        let reduced = rendered_rules(&ground_reduced(&prog, 100_000).unwrap());
        let pred = HEAD_PREDS[rng.gen_range(0, HEAD_PREDS.len())];
        let query = atom_over(&mut rng, pred, &[]);
        let magic = rendered_rules(&ground_magic(&prog, &query, 100_000).unwrap());
        assert!(
            magic.is_subset(&reduced),
            "case {case}, query {query}:\n{prog}\nmagic only: {:?}",
            magic.difference(&reduced).collect::<Vec<_>>()
        );
    }
}
