//! Supported models (Clark completion) for normal programs — the
//! semantics behind the related-work results the paper cites from
//! Schaerf \[25, 26\] (weakly-supported / minimally-supported models of
//! non-Horn programs).
//!
//! `M` is a **supported model** of a normal program iff `M ⊨ DB` and every
//! atom `a ∈ M` has a rule `a ← body` whose body holds in `M` — i.e. `M`
//! is a model of Clark's completion. Unlike stability, support is *not*
//! well-founded: the positive loop `{a ← b, b ← a}` has the supported
//! model `{a, b}`. Supported models therefore sit strictly between
//! classical models and stable models:
//!
//! `DSM(DB) ⊆ SUPP(DB) ⊆ M(DB)` (both inclusions strict in general —
//! pinned by tests).
//!
//! Complexity shape (matching Schaerf's results quoted in the paper's
//! related work): existence and brave inference are **NP-complete**,
//! cautious inference **coNP-complete** — each a single SAT call on the
//! completion encoding, with no level mappings needed (acyclicity is
//! exactly what support does *not* require).

use ddb_logic::cnf::{Cnf, CnfBuilder};
use ddb_logic::{Database, Formula, Interpretation};
use ddb_models::Cost;
use ddb_obs::Governed;
use ddb_sat::Solver;

/// Whether every rule head is a single atom (supported models are a
/// normal-program notion; disjunctive generalizations diverge and are
/// out of scope).
pub fn is_normal_program(db: &Database) -> bool {
    db.rules().iter().all(|r| r.head().len() <= 1)
}

/// Builds the Clark-completion CNF: the program clauses plus, for each
/// atom, `a → ⋁_{rules a ← body} body` (bodies Tseitin-encoded).
/// Satisfying assignments projected to the vocabulary are exactly the
/// supported models.
pub fn completion_cnf(db: &Database) -> Cnf {
    assert!(
        is_normal_program(db),
        "supported models are defined for normal (singleton-head) programs"
    );
    let n = db.num_atoms();
    let mut b = CnfBuilder::new(n);
    b.add_database(db);
    for i in 0..n {
        let a = ddb_logic::Atom::new(i as u32);
        let mut supports: Vec<Formula> = Vec::new();
        for rule in db.rules() {
            if rule.head() != [a] {
                continue;
            }
            let body: Vec<Formula> = rule
                .body_pos()
                .iter()
                .map(|&x| Formula::atom(x))
                .chain(rule.body_neg().iter().map(|&x| Formula::atom(x).negated()))
                .collect();
            supports.push(Formula::And(body));
        }
        b.assert_formula(&Formula::atom(a).implies(Formula::Or(supports)));
    }
    b.finish()
}

/// Whether `m` is a supported model (polynomial check).
pub fn is_supported_model(db: &Database, m: &Interpretation) -> bool {
    assert!(is_normal_program(db));
    if !db.satisfied_by(m) {
        return false;
    }
    m.iter().all(|a| {
        db.rules()
            .iter()
            .any(|r| r.head() == [a] && r.body_holds(m))
    })
}

/// All supported models (projected SAT enumeration).
pub fn models(db: &Database, cost: &mut Cost) -> Governed<Vec<Interpretation>> {
    ddb_models::classical::enumerate_projected(&completion_cnf(db), db.num_atoms(), cost)
}

/// Model existence — one SAT call (NP-complete).
pub fn has_model(db: &Database, cost: &mut Cost) -> Governed<bool> {
    let mut solver = Solver::from_cnf(&completion_cnf(db));
    let result = solver.solve();
    cost.absorb(&solver);
    Ok(result?.is_sat())
}

/// Cautious formula inference: `F` true in every supported model — one
/// coNP check (vacuously true when none exists).
pub fn infers_formula(db: &Database, f: &Formula, cost: &mut Cost) -> Governed<bool> {
    let mut b = CnfBuilder::from(completion_cnf(db));
    b.assert_formula(&f.clone().negated());
    let mut solver = Solver::from_cnf(&b.finish());
    let result = solver.solve();
    cost.absorb(&solver);
    Ok(!result?.is_sat())
}

/// Brave formula inference: `F` true in some supported model — one NP
/// check.
pub fn brave_infers_formula(db: &Database, f: &Formula, cost: &mut Cost) -> Governed<bool> {
    let mut b = CnfBuilder::from(completion_cnf(db));
    b.assert_formula(f);
    let mut solver = Solver::from_cnf(&b.finish());
    let result = solver.solve();
    cost.absorb(&solver);
    Ok(result?.is_sat())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddb_logic::parse::{parse_formula, parse_program};

    fn interp(db: &Database, names: &[&str]) -> Interpretation {
        Interpretation::from_atoms(
            db.num_atoms(),
            names.iter().map(|n| db.symbols().lookup(n).unwrap()),
        )
    }

    #[test]
    fn positive_loop_is_supported_but_not_stable() {
        let db = parse_program("a :- b. b :- a.").unwrap();
        let mut cost = Cost::new();
        let supported = models(&db, &mut cost).unwrap();
        assert_eq!(supported, vec![interp(&db, &[]), interp(&db, &["a", "b"])]);
        // Only ∅ is stable.
        assert_eq!(
            crate::dsm::models(&db, &mut cost).unwrap(),
            vec![Interpretation::empty(2)]
        );
    }

    #[test]
    fn stable_implies_supported() {
        for src in [
            "a :- not b. b :- not a.",
            "p :- not q. r :- p.",
            "a. b :- a, not c.",
            "x :- y. y :- x. z :- not x.",
        ] {
            let db = parse_program(src).unwrap();
            let mut cost = Cost::new();
            let supported = models(&db, &mut cost).unwrap();
            for m in crate::dsm::models(&db, &mut cost).unwrap() {
                assert!(supported.contains(&m), "{src}: {m:?}");
            }
        }
    }

    #[test]
    fn supported_implies_model() {
        let db = parse_program("a :- not b. c :- a.").unwrap();
        let mut cost = Cost::new();
        for m in models(&db, &mut cost).unwrap() {
            assert!(db.satisfied_by(&m));
            assert!(is_supported_model(&db, &m));
        }
    }

    #[test]
    fn unsupported_atoms_excluded() {
        // {a} is a classical model of `a :- a.`… supported too (rule body
        // holds). But for a bare vocabulary atom with no rule, support
        // fails.
        let db = parse_program("a :- a. b :- z.").unwrap();
        let mut cost = Cost::new();
        let supported = models(&db, &mut cost).unwrap();
        let b_atom = db.symbols().lookup("b").unwrap();
        let z = db.symbols().lookup("z").unwrap();
        for m in &supported {
            assert!(!m.contains(z), "z has no rule at all");
            // b is only supported when z holds — never, since z can't.
            assert!(!m.contains(b_atom));
        }
    }

    #[test]
    fn odd_loop_has_no_supported_model() {
        // a :- not a: {a} unsupported? body ¬a false under {a} → a lacks
        // support → not supported. ∅ ⊭ the rule. So none.
        let db = parse_program("a :- not a.").unwrap();
        let mut cost = Cost::new();
        assert!(!has_model(&db, &mut cost).unwrap());
        assert!(models(&db, &mut cost).unwrap().is_empty());
        // Cautious inference is vacuous; brave is empty.
        let f = parse_formula("false", db.symbols()).unwrap();
        assert!(infers_formula(&db, &f, &mut cost).unwrap());
        assert!(!brave_infers_formula(&db, &f.clone().negated(), &mut cost).unwrap());
    }

    #[test]
    fn cautious_and_brave_match_enumeration() {
        let db = parse_program("a :- not b. b :- not a. c :- a. c :- b. d :- d.").unwrap();
        let mut cost = Cost::new();
        let supported = models(&db, &mut cost).unwrap();
        for text in ["c", "a", "d", "a | b", "d -> a"] {
            let f = parse_formula(text, db.symbols()).unwrap();
            assert_eq!(
                infers_formula(&db, &f, &mut cost).unwrap(),
                supported.iter().all(|m| f.eval(m)),
                "cautious {text}"
            );
            assert_eq!(
                brave_infers_formula(&db, &f, &mut cost).unwrap(),
                supported.iter().any(|m| f.eval(m)),
                "brave {text}"
            );
        }
    }

    #[test]
    fn single_oracle_call_per_query() {
        let db = parse_program("a :- not b. b :- not a.").unwrap();
        let f = parse_formula("a | b", db.symbols()).unwrap();
        let mut cost = Cost::new();
        infers_formula(&db, &f, &mut cost).unwrap();
        assert_eq!(cost.sat_calls, 1, "cautious inference is one coNP call");
    }

    #[test]
    #[should_panic(expected = "singleton-head")]
    fn rejects_disjunctive_programs() {
        let db = parse_program("a | b.").unwrap();
        let _ = completion_cnf(&db);
    }

    #[test]
    fn integrity_clauses_allowed() {
        let db = parse_program("a :- not b. b :- not a. :- a.").unwrap();
        let mut cost = Cost::new();
        assert_eq!(models(&db, &mut cost).unwrap(), vec![interp(&db, &["b"])]);
    }
}
