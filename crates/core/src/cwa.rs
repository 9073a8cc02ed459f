//! Reiter's Closed World Assumption (CWA) \[22\] — the baseline the
//! disjunctive semantics generalize.
//!
//! `CWA(DB) = DB ∪ {¬x : DB ⊭ x}`. On definite (Horn) databases this
//! pins down the least model; on disjunctive databases it is famously
//! **inconsistent** (from `a ∨ b` neither `a` nor `b` is entailed, so both
//! `¬a` and `¬b` get added). The paper's §3.1 recalls exactly this as the
//! motivation for GCWA, and notes that deciding whether `CWA(DB)` is
//! consistent is coNP-hard and in `P^{NP}[O(log n)]`, but not in coDᵖ
//! unless the polynomial hierarchy collapses (via \[7\], \[18\]).
//!
//! Procedures: the free-for-negation set takes `|V|` coNP entailment
//! queries; consistency is one more SAT call.

use ddb_logic::{Atom, Database, Formula, Interpretation, Literal};
use ddb_models::{classical, Cost};
use ddb_obs::Governed;

/// The atoms CWA closes off: `{x : DB ⊭ x}` (`|V|` coNP queries).
pub fn closed_atoms(db: &Database, cost: &mut Cost) -> Governed<Interpretation> {
    let n = db.num_atoms();
    let none = Interpretation::empty(n);
    let mut out = Interpretation::empty(n);
    for i in 0..n {
        let a = Atom::new(i as u32);
        if classical::countermodel(db, &none, &Formula::atom(a), cost)?.is_some() {
            out.insert(a);
        }
    }
    Ok(out)
}

/// Whether `CWA(DB)` is consistent: `DB ∪ {¬x : DB ⊭ x}` satisfiable.
pub fn is_consistent(db: &Database, cost: &mut Cost) -> Governed<bool> {
    let closed = closed_atoms(db, cost)?;
    let units: Vec<Literal> = closed.iter().map(|a| a.neg()).collect();
    Ok(classical::some_model_with(db, &units, cost)?.is_some())
}

/// The unique CWA model, if consistent: the atoms `DB ⊨ x`.
///
/// When `CWA(DB)` is consistent its model is unique — every atom is
/// either entailed (true) or closed (false).
pub fn model(db: &Database, cost: &mut Cost) -> Governed<Option<Interpretation>> {
    let closed = closed_atoms(db, cost)?;
    let units: Vec<Literal> = closed.iter().map(|a| a.neg()).collect();
    Ok(classical::some_model_with(db, &units, cost)?.map(|_| {
        let mut m = Interpretation::full(db.num_atoms());
        m.difference_with(&closed);
        m
    }))
}

/// Formula inference `CWA(DB) ⊨ F`: entailment from `DB` plus the closed
/// negations.
pub fn infers_formula(db: &Database, f: &Formula, cost: &mut Cost) -> Governed<bool> {
    let closed = closed_atoms(db, cost)?;
    Ok(classical::countermodel(db, &closed, f, cost)?.is_none())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddb_logic::parse::{parse_formula, parse_program};

    #[test]
    fn horn_db_cwa_is_least_model() {
        let db = parse_program("a. b :- a. c :- d.").unwrap();
        let mut cost = Cost::new();
        assert!(is_consistent(&db, &mut cost).unwrap());
        let m = model(&db, &mut cost).unwrap().unwrap();
        let names: Vec<&str> = m.iter().map(|a| db.symbols().name(a)).collect();
        assert_eq!(names, vec!["a", "b"]);
        // The CWA model is the least model: also the unique minimal model.
        let mm = ddb_models::minimal::minimal_models(&db, &mut cost).unwrap();
        assert_eq!(mm, vec![m]);
    }

    #[test]
    fn disjunction_makes_cwa_inconsistent() {
        // The motivating example: a ∨ b with neither entailed.
        let db = parse_program("a | b.").unwrap();
        let mut cost = Cost::new();
        assert!(!is_consistent(&db, &mut cost).unwrap());
        assert!(model(&db, &mut cost).unwrap().is_none());
        // Inconsistent CWA infers everything — including a and ¬a.
        let a = db.symbols().lookup("a").unwrap();
        assert!(infers_formula(&db, &Formula::from(a.pos()), &mut cost).unwrap());
        assert!(infers_formula(&db, &Formula::from(a.neg()), &mut cost).unwrap());
    }

    #[test]
    fn entailed_disjunct_keeps_cwa_consistent() {
        // a ∨ b plus a: a entailed, b closed → consistent.
        let db = parse_program("a | b. a.").unwrap();
        let mut cost = Cost::new();
        assert!(is_consistent(&db, &mut cost).unwrap());
        let m = model(&db, &mut cost).unwrap().unwrap();
        assert_eq!(m.count(), 1);
        assert!(m.contains(db.symbols().lookup("a").unwrap()));
    }

    #[test]
    fn gcwa_conservative_over_cwa_on_horn() {
        // On Horn databases GCWA = CWA (single minimal model).
        let db = parse_program("p. q :- p. r :- s.").unwrap();
        let mut cost = Cost::new();
        for name in ["p", "q", "r", "s"] {
            let a = db.symbols().lookup(name).unwrap();
            for sign in [true, false] {
                let lit = Literal::with_sign(a, sign);
                assert_eq!(
                    infers_formula(&db, &Formula::from(lit), &mut cost).unwrap(),
                    crate::gcwa::infers_literal(&db, lit, &mut cost).unwrap(),
                    "{name} {sign}"
                );
            }
        }
    }

    #[test]
    fn formula_inference() {
        let db = parse_program("a. c :- b.").unwrap();
        let mut cost = Cost::new();
        let f = parse_formula("a & !b & !c", db.symbols()).unwrap();
        assert!(infers_formula(&db, &f, &mut cost).unwrap());
    }

    #[test]
    fn unsat_db_is_inconsistent_cwa() {
        let db = parse_program("a. :- a.").unwrap();
        let mut cost = Cost::new();
        assert!(!is_consistent(&db, &mut cost).unwrap());
    }
}
