//! The Careful Closed World Assumption (CCWA), Gelfond & Przymusinska
//! \[11\].
//!
//! CCWA generalizes GCWA by a partition ⟨P;Q;Z⟩ of the vocabulary: only
//! atoms of `P` are closed off, falsity is judged against the
//! ⟨P;Z⟩-minimal models, and
//!
//! `CCWA(DB) = {M ∈ M(DB) : ∀x ∈ P. MM(DB;P;Z) ⊨ ¬x ⇒ M ⊨ ¬x}`.
//!
//! GCWA is the special case `P = V`, `Q = Z = ∅`, and runs here: the
//! dispatcher calls this module with [`Partition::minimize_all`] for it.
//!
//! * Formula (and literal) inference: compute the CCWA-false set
//!   `N ⊆ P` (`|P|` Σᵖ₂ queries — or `O(log n)` with the census ablation),
//!   then one coNP entailment `DB ∪ ¬N ⊨ F`, searched for as its
//!   countermodel ([`countermodel`]). The paper places this in
//!   `P^{Σᵖ₂}[O(log n)]` and proves Πᵖ₂-hardness; unlike GCWA, no
//!   literal-inference shortcut to a single Πᵖ₂ query is available, since
//!   a model in `CCWA(DB)` need not sit above a ⟨P;Z⟩-minimal model with
//!   the *same fixed part*.
//! * Model existence: `CCWA(DB) ⊇ MM(DB;P;Z)`, so nonemptiness is again
//!   plain satisfiability (one SAT call).
//! * Enumeration: the models of `DB ∪ ¬N`, the same clauses the
//!   countermodel search solves.

use ddb_logic::{Database, Formula, Interpretation};
use ddb_models::{circumscribe, classical, Cost, Partition};
use ddb_obs::Governed;

/// The CCWA-false atoms `N = {x ∈ P : MM(DB;P;Z) ⊨ ¬x}`.
pub fn false_atoms(db: &Database, part: &Partition, cost: &mut Cost) -> Governed<Interpretation> {
    let n = db.num_atoms();
    let mut out = Interpretation::empty(n);
    for a in part.p().iter() {
        let f = Formula::atom(a);
        if !circumscribe::exists_pz_minimal_model_satisfying(db, part, &f, cost)? {
            out.insert(a);
        }
    }
    Ok(out)
}

/// Formula inference `CCWA(DB) ⊨ F` as a countermodel search: compute
/// `N`, then look for a model of `DB ∪ ¬N ∧ ¬F` — a CCWA model falsifying
/// `F`. `None` means `F` is inferred.
pub fn countermodel(
    db: &Database,
    part: &Partition,
    f: &Formula,
    cost: &mut Cost,
) -> Governed<Option<Interpretation>> {
    let _span = ddb_obs::span("ccwa.countermodel");
    let n_set = false_atoms(db, part, cost)?;
    classical::countermodel(db, &n_set, f, cost)
}

/// Model existence: `CCWA(DB) ≠ ∅ ⟺ DB` satisfiable.
pub fn has_model(db: &Database, cost: &mut Cost) -> Governed<bool> {
    let _span = ddb_obs::span("ccwa.has_model");
    classical::is_satisfiable(db, cost)
}

/// The characteristic model set `CCWA(DB)`: the models of `DB ∪ ¬N`,
/// enumerated directly (exponentially many in the worst case).
pub fn models(db: &Database, part: &Partition, cost: &mut Cost) -> Governed<Vec<Interpretation>> {
    let _span = ddb_obs::span("ccwa.models");
    let n_set = false_atoms(db, part, cost)?;
    classical::models(db, &n_set, cost)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddb_logic::parse::{parse_formula, parse_program};
    use ddb_logic::{Atom, Literal};

    fn infers(db: &Database, part: &Partition, f: &Formula, cost: &mut Cost) -> Governed<bool> {
        Ok(countermodel(db, part, f, cost)?.is_none())
    }

    fn part_pq(db: &Database, p: &[&str], q: &[&str]) -> Partition {
        Partition::from_p_q(
            db.num_atoms(),
            p.iter().map(|n| db.symbols().lookup(n).unwrap()),
            q.iter().map(|n| db.symbols().lookup(n).unwrap()),
        )
    }

    #[test]
    fn reduces_to_gcwa_when_p_is_everything() {
        let db = parse_program("a | b. c :- a, b. d :- c.").unwrap();
        let part = Partition::minimize_all(db.num_atoms());
        let mut cost = Cost::new();
        for i in 0..db.num_atoms() {
            for sign in [true, false] {
                let l = Literal::with_sign(Atom::new(i as u32), sign);
                assert_eq!(
                    infers(&db, &part, &Formula::from(l), &mut cost).unwrap(),
                    crate::gcwa::infers_literal(&db, l, &mut cost).unwrap(),
                    "atom {i} sign {sign}"
                );
            }
        }
    }

    #[test]
    fn fixed_atoms_are_not_closed() {
        // a ∨ b with P={a}, Q={b}: ⟨P;Z⟩-minimal models are {b} (Q-part
        // {b}) and {a} (Q-part ∅, must take a). a occurs in a minimal
        // model, so ¬a is NOT CCWA-inferred; b is fixed and never closed.
        let db = parse_program("a | b.").unwrap();
        let part = part_pq(&db, &["a"], &["b"]);
        let mut cost = Cost::new();
        assert!(!infers(
            &db,
            &part,
            &Formula::from(db.symbols().lookup("a").unwrap().neg()),
            &mut cost
        )
        .unwrap());
        assert!(!infers(
            &db,
            &part,
            &Formula::from(db.symbols().lookup("b").unwrap().neg()),
            &mut cost
        )
        .unwrap());
    }

    #[test]
    fn varying_atoms_allow_closing() {
        // a ∨ b with P={a}, Z={b}: minimality compares across different
        // b-values, so {b} < {a}... both have same Q-part (∅), P-part of
        // {b} is ∅ ⊂ {a}. Hence no ⟨P;Z⟩-minimal model contains a → ¬a.
        let db = parse_program("a | b.").unwrap();
        let part = part_pq(&db, &["a"], &[]);
        let mut cost = Cost::new();
        assert!(infers(
            &db,
            &part,
            &Formula::from(db.symbols().lookup("a").unwrap().neg()),
            &mut cost
        )
        .unwrap());
    }

    #[test]
    fn formula_inference_matches_model_filter() {
        let db = parse_program("a | b. c | d :- a. :- b, d.").unwrap();
        let part = part_pq(&db, &["a", "c"], &["b"]);
        let mut cost = Cost::new();
        let cm = models(&db, &part, &mut cost).unwrap();
        assert!(!cm.is_empty());
        for text in ["!a | c", "b | a", "!(c & d)", "!c", "d -> a"] {
            let f = parse_formula(text, db.symbols()).unwrap();
            let expected = cm.iter().all(|m| f.eval(m));
            assert_eq!(
                infers(&db, &part, &f, &mut cost).unwrap(),
                expected,
                "{text}"
            );
        }
    }

    #[test]
    fn existence_is_satisfiability() {
        let mut cost = Cost::new();
        let db = parse_program("a | b. :- b.").unwrap();
        let part = part_pq(&db, &["a"], &[]);
        assert!(has_model(&db, &mut cost).unwrap());
        let _ = part;
        let bad = parse_program("a. :- a.").unwrap();
        assert!(!has_model(&bad, &mut cost).unwrap());
    }
}
