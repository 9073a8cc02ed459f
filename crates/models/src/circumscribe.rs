//! The Πᵖ₂ workhorse: inference in all ⟨P;Z⟩-minimal models.
//!
//! `MM(DB;P;Z) ⊨ F` is the paper's central upper-bound pattern (GCWA,
//! EGCWA, CCWA, ECWA/CIRC, ICWA and — via reducts — DSM all bottom out
//! here). It is a counterexample-guided (CEGAR) loop over the NP oracle:
//! the minimal-model [`walk`](crate::walk) with `extra = ¬F` and no check,
//! stopped at its first visit. Each round guesses a countermodel of
//! `DB ∧ ¬F`, minimizes it within `DB`, asks whether its ⟨P,Q⟩-signature
//! admits a model of `¬F` (a genuine minimal countermodel: answer **no**)
//! and otherwise blocks the signature's cone; the walk's module docs prove
//! that no countermodel is lost.
//!
//! The candidate count ([`crate::Cost::candidates`]) is the number of CEGAR
//! rounds — the quantity that blows up exactly on Πᵖ₂-hard instances,
//! which the benchmark harness measures. Each round is additionally one
//! governance checkpoint, so a deadline or cancellation budget interrupts
//! the loop between rounds even when individual oracle calls are cheap.

use crate::walk::first;
use crate::{Cost, Partition};
use ddb_logic::{Database, Formula, Interpretation};
use ddb_obs::budget::Governed;

/// Whether `F` holds in every ⟨P;Z⟩-minimal model of `DB`
/// (`MM(DB;P;Z) ⊨ F`). Vacuously true when `DB` is unsatisfiable.
/// `Err` when the installed [`ddb_obs::Budget`] trips mid-search.
///
/// ```
/// use ddb_logic::parse::{parse_formula, parse_program};
/// use ddb_models::{circumscribe, Cost, Partition};
/// let db = parse_program("a | b. c :- a, b.").unwrap();
/// let part = Partition::minimize_all(db.num_atoms());
/// let not_c = parse_formula("!c", db.symbols()).unwrap();
/// let mut cost = Cost::new();
/// assert!(circumscribe::holds_in_all_pz_minimal_models(&db, &part, &not_c, &mut cost).unwrap());
/// ```
pub fn holds_in_all_pz_minimal_models(
    db: &Database,
    part: &Partition,
    f: &Formula,
    cost: &mut Cost,
) -> Governed<bool> {
    let _span = ddb_obs::span("models.circ.holds_in_all");
    let counter = first(db, part, Some(&f.clone().negated()), cost, |_, _| Ok(true))?;
    Ok(counter.is_none())
}

/// Whether `F` holds in every (subset-)minimal model (`MM(DB) ⊨ F`).
pub fn holds_in_all_minimal_models(db: &Database, f: &Formula, cost: &mut Cost) -> Governed<bool> {
    holds_in_all_pz_minimal_models(db, &Partition::minimize_all(db.num_atoms()), f, cost)
}

/// Whether some ⟨P;Z⟩-minimal model satisfies `F` (the Σᵖ₂ dual).
pub fn exists_pz_minimal_model_satisfying(
    db: &Database,
    part: &Partition,
    f: &Formula,
    cost: &mut Cost,
) -> Governed<bool> {
    Ok(!holds_in_all_pz_minimal_models(
        db,
        part,
        &f.clone().negated(),
        cost,
    )?)
}

/// Returns a ⟨P;Z⟩-minimal model satisfying `F`, if one exists: the same
/// walk as [`holds_in_all_pz_minimal_models`] with `extra = F`,
/// materializing the witness.
pub fn find_pz_minimal_model_satisfying(
    db: &Database,
    part: &Partition,
    f: &Formula,
    cost: &mut Cost,
) -> Governed<Option<Interpretation>> {
    let _span = ddb_obs::span("models.circ.find_model");
    first(db, part, Some(f), cost, |_, _| Ok(true))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::minimal::is_pz_minimal_model;
    use ddb_logic::parse::{parse_formula, parse_program};

    #[test]
    fn gcwa_style_negative_inference() {
        // a ∨ b: minimal models {a},{b}; c is false in both.
        let db = parse_program("a | b. c :- a, b.").unwrap();
        let f = parse_formula("!c", db.symbols()).unwrap();
        let mut cost = Cost::new();
        assert!(holds_in_all_minimal_models(&db, &f, &mut cost).unwrap());
        // But a is not false in all minimal models, nor true in all.
        let fa = parse_formula("a", db.symbols()).unwrap();
        let nfa = parse_formula("!a", db.symbols()).unwrap();
        assert!(!holds_in_all_minimal_models(&db, &fa, &mut cost).unwrap());
        assert!(!holds_in_all_minimal_models(&db, &nfa, &mut cost).unwrap());
        // The disjunction itself holds.
        let ab = parse_formula("a | b", db.symbols()).unwrap();
        assert!(holds_in_all_minimal_models(&db, &ab, &mut cost).unwrap());
    }

    #[test]
    fn unsat_db_vacuous() {
        let db = parse_program("a. :- a.").unwrap();
        let f = parse_formula("false", db.symbols()).unwrap();
        let mut cost = Cost::new();
        assert!(holds_in_all_minimal_models(&db, &f, &mut cost).unwrap());
    }

    #[test]
    fn matches_enumeration_reference() {
        // Cross-check CEGAR against explicit minimal-model enumeration.
        let db = parse_program("a | b. b | c. :- a, c. d :- b.").unwrap();
        let mut cost = Cost::new();
        let mm = crate::minimal::minimal_models(&db, &mut cost).unwrap();
        assert!(!mm.is_empty());
        for text in ["a", "!a", "b", "d", "b & d", "a | c", "!(a & c)", "b -> d"] {
            let f = parse_formula(text, db.symbols()).unwrap();
            let expected = mm.iter().all(|m| f.eval(m));
            let got = holds_in_all_minimal_models(&db, &f, &mut cost).unwrap();
            assert_eq!(got, expected, "formula {text}");
        }
    }

    #[test]
    fn pz_inference_with_partition() {
        // P={a}, Q={b}, Z={c}: DB = a ∨ b ∨ c.
        let db = parse_program("a | b | c.").unwrap();
        let syms = db.symbols();
        let part = Partition::from_p_q(3, [syms.lookup("a").unwrap()], [syms.lookup("b").unwrap()]);
        let mut cost = Cost::new();
        // ¬a holds in all ⟨P;Z⟩-minimal models: for any Q-part, a model
        // with a=false exists (choose c or b true), so no minimal model has a.
        let na = parse_formula("!a", syms).unwrap();
        assert!(holds_in_all_pz_minimal_models(&db, &part, &na, &mut cost).unwrap());
        // But ¬c does not (e.g. {c} is minimal).
        let nc = parse_formula("!c", syms).unwrap();
        assert!(!holds_in_all_pz_minimal_models(&db, &part, &nc, &mut cost).unwrap());
    }

    #[test]
    fn find_witness_is_minimal_and_satisfying() {
        let db = parse_program("a | b. b | c.").unwrap();
        let part = Partition::minimize_all(3);
        let f = parse_formula("b", db.symbols()).unwrap();
        let mut cost = Cost::new();
        let w = find_pz_minimal_model_satisfying(&db, &part, &f, &mut cost)
            .unwrap()
            .expect("witness");
        assert!(f.eval(&w));
        assert!(is_pz_minimal_model(&db, &w, &part, &mut cost).unwrap());
        // No minimal model satisfies a ∧ c (minimal models are {b}, {a,c}...
        // wait: {a,c} is a model; is it minimal? {b} ⊄ {a,c}; {a} misses
        // b|c... {c} misses a|b; so yes {a,c} is minimal and satisfies a ∧ c.
        let g = parse_formula("a & c", db.symbols()).unwrap();
        assert!(find_pz_minimal_model_satisfying(&db, &part, &g, &mut cost)
            .unwrap()
            .is_some());
        // But nothing satisfies a ∧ ¬a.
        let h = parse_formula("a & !a", db.symbols()).unwrap();
        assert!(find_pz_minimal_model_satisfying(&db, &part, &h, &mut cost)
            .unwrap()
            .is_none());
    }

    #[test]
    fn exists_dual() {
        let db = parse_program("a | b.").unwrap();
        let part = Partition::minimize_all(2);
        let fa = parse_formula("a", db.symbols()).unwrap();
        let mut cost = Cost::new();
        assert!(exists_pz_minimal_model_satisfying(&db, &part, &fa, &mut cost).unwrap());
        let fab = parse_formula("a & b", db.symbols()).unwrap();
        assert!(!exists_pz_minimal_model_satisfying(&db, &part, &fab, &mut cost).unwrap());
    }

    #[test]
    fn candidates_counted() {
        let db = parse_program("a | b. c | d.").unwrap();
        let f = parse_formula("a & c", db.symbols()).unwrap();
        let mut cost = Cost::new();
        holds_in_all_minimal_models(&db, &f, &mut cost).unwrap();
        assert!(cost.candidates >= 1);
    }

    #[test]
    fn fault_injection_interrupts_cegar() {
        let db = parse_program("a | b. c | d.").unwrap();
        let f = parse_formula("a & c", db.symbols()).unwrap();
        let mut cost = Cost::new();
        let _g = ddb_obs::Budget::unlimited().fail_after(0).install();
        assert!(holds_in_all_minimal_models(&db, &f, &mut cost).is_err());
    }
}
