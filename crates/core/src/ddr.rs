//! The Disjunctive Database Rule (DDR), Ross & Topor \[23\] — equivalent
//! to the Weak GCWA of Rajasekar, Lobo & Minker \[21\].
//!
//! DDR adds `¬x` for every atom `x` not occurring in `T_DB ↑ ω`:
//! `DDR(DB) = {M ∈ M(DB) : M ⊨ ¬x for every non-occurring x}`. The
//! occurrence set is the polynomial *active-atom closure*
//! ([`ddb_models::fixpoint::active_atoms`]), so:
//!
//! * **negative-literal inference on integrity-free databases is in P with
//!   zero oracle calls** (Chan) — the only tractable cells of Table 1
//!   together with PWS: `DDR(DB) ⊨ ¬x ⟺ x ∉ active(DB)`, because the
//!   active set itself is then a model of `DB ∪ ¬N`;
//! * with integrity clauses, literal inference is one coNP entailment
//!   (coNP-complete — Table 2), and positive-literal inference is a coNP
//!   entailment in both tables;
//! * formula inference is one coNP entailment (coNP-complete);
//! * model existence: without integrity clauses `O(1)` (the active set is
//!   a model); otherwise one SAT call.
//!
//! DDR deliberately ignores integrity clauses when computing the
//! occurrence set (the paper's Example 3.1: from
//! `{a ∨ b, ← a∧b, c ← a∧b}` DDR does *not* infer `¬c`) — that behaviour
//! is inherited from the fixpoint module and pinned by tests there.
//!
//! DDR is a semantics for *deductive* databases (`DB ⊆ C⁺`); all functions
//! panic on negation.

use ddb_logic::{Database, Formula, Interpretation, Literal};
use ddb_models::{classical, fixpoint, Cost};
use ddb_obs::Governed;

/// The DDR-false atoms: `N = V ∖ atoms(T_DB ↑ ω)`. Polynomial, zero
/// oracle calls.
pub fn false_atoms(db: &Database) -> Interpretation {
    let mut n = Interpretation::full(db.num_atoms());
    n.difference_with(&fixpoint::active_atoms(db));
    n
}

/// Literal inference `DDR(DB) ⊨ ℓ`.
///
/// Fast path (zero oracle calls): negative literal over an integrity-free
/// database — `⊨ ¬x ⟺ x` inactive. Everything else is the countermodel
/// search of [`countermodel`].
pub fn infers_literal(db: &Database, lit: Literal, cost: &mut Cost) -> Governed<bool> {
    let _span = ddb_obs::span("ddr.infers_literal");
    assert!(
        !db.has_negation(),
        "DDR is defined for databases without negation"
    );
    if lit.is_negative() && !db.has_integrity_clauses() {
        return Ok(false_atoms(db).contains(lit.atom()));
    }
    Ok(countermodel(db, &lit.into(), cost)?.is_none())
}

/// Formula inference `DDR(DB) ⊨ F` as a countermodel search: a model of
/// `DB ∪ ¬N ∧ ¬F`, or `None` when `F` is inferred. One coNP check.
pub fn countermodel(
    db: &Database,
    f: &Formula,
    cost: &mut Cost,
) -> Governed<Option<Interpretation>> {
    let _span = ddb_obs::span("ddr.countermodel");
    assert!(
        !db.has_negation(),
        "DDR is defined for databases without negation"
    );
    classical::countermodel(db, &false_atoms(db), f, cost)
}

/// Model existence `DDR(DB) ≠ ∅`. `O(1)` without integrity clauses (the
/// active set is a model satisfying all DDR negations); one SAT call
/// otherwise.
pub fn has_model(db: &Database, cost: &mut Cost) -> Governed<bool> {
    let _span = ddb_obs::span("ddr.has_model");
    assert!(
        !db.has_negation(),
        "DDR is defined for databases without negation"
    );
    if !db.has_integrity_clauses() {
        return Ok(true);
    }
    let n_set = false_atoms(db);
    let units: Vec<Literal> = n_set.iter().map(|a| a.neg()).collect();
    Ok(classical::some_model_with(db, &units, cost)?.is_some())
}

/// The characteristic model set `DDR(DB)`: the models of `DB ∪ ¬N`,
/// enumerated directly (exponentially many in the worst case).
pub fn models(db: &Database, cost: &mut Cost) -> Governed<Vec<Interpretation>> {
    let _span = ddb_obs::span("ddr.models");
    assert!(
        !db.has_negation(),
        "DDR is defined for databases without negation"
    );
    classical::models(db, &false_atoms(db), cost)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddb_logic::parse::{parse_formula, parse_program};

    fn infers(db: &Database, f: &Formula, cost: &mut Cost) -> Governed<bool> {
        Ok(countermodel(db, f, cost)?.is_none())
    }

    fn lit(db: &Database, name: &str, positive: bool) -> Literal {
        Literal::with_sign(db.symbols().lookup(name).unwrap(), positive)
    }

    #[test]
    fn weaker_than_gcwa() {
        // DB = {a ∨ b, c ← a, c ← b}: GCWA infers nothing about c?
        // Minimal models {a,c},{b,c} — c true in all, so GCWA ⊨ c.
        // DDR: c active; DDR ⊨ c too (DB ⊨ c classically).
        // Separating example: DB = {a ∨ b, c ← a ∧ b}: GCWA ⊨ ¬c but
        // DDR ⊭ ¬c (c occurs via c∨a∨b... no wait: body a∧b, covering both
        // with a∨b: derived c ∨ b ∨ a → c active).
        let db = parse_program("a | b. c :- a, b.").unwrap();
        let mut cost = Cost::new();
        assert!(!infers_literal(&db, lit(&db, "c", false), &mut cost).unwrap());
        assert!(crate::gcwa::infers_literal(&db, lit(&db, "c", false), &mut cost).unwrap());
    }

    #[test]
    fn inactive_atoms_closed() {
        let db = parse_program("a. c :- b.").unwrap();
        let mut cost = Cost::new();
        assert!(infers_literal(&db, lit(&db, "b", false), &mut cost).unwrap());
        assert!(infers_literal(&db, lit(&db, "c", false), &mut cost).unwrap());
        assert!(!infers_literal(&db, lit(&db, "a", false), &mut cost).unwrap());
        assert_eq!(cost.sat_calls, 0, "tractable path must not use the oracle");
    }

    #[test]
    fn positive_literals_via_entailment() {
        let db = parse_program("a. b | c :- a.").unwrap();
        let mut cost = Cost::new();
        assert!(infers_literal(&db, lit(&db, "a", true), &mut cost).unwrap());
        assert!(!infers_literal(&db, lit(&db, "b", true), &mut cost).unwrap());
    }

    #[test]
    fn example_3_1_integrity_ignored_by_fixpoint() {
        // DDR(DB) ⊭ ¬c although c is unsatisfiable given the integrity
        // clause (Example 3.1).
        let db = parse_program("a | b. :- a, b. c :- a, b.").unwrap();
        let mut cost = Cost::new();
        // With integrity clauses, the coNP path decides: models of DB∪¬N
        // never contain c... wait: c is ACTIVE (occurs in T↑ω), so ¬c is
        // not added; but every model of DB satisfies ¬c anyway? No: the
        // integrity clause kills a∧b, so c is never *forced*, but a model
        // may still set c true freely! M = {a, c} ⊨ DB. Hence DDR ⊭ ¬c.
        assert!(!infers_literal(&db, lit(&db, "c", false), &mut cost).unwrap());
    }

    #[test]
    fn formula_inference_matches_model_filter() {
        let db = parse_program("a | b. d :- c. :- b, a.").unwrap();
        let mut cost = Cost::new();
        let dm = models(&db, &mut cost).unwrap();
        assert!(!dm.is_empty());
        for text in ["!c", "!d", "a | b", "!(a & b)", "c -> d"] {
            let f = parse_formula(text, db.symbols()).unwrap();
            let expected = dm.iter().all(|m| f.eval(m));
            assert_eq!(infers(&db, &f, &mut cost).unwrap(), expected, "{text}");
        }
    }

    #[test]
    fn existence() {
        let mut cost = Cost::new();
        assert!(has_model(&parse_program("a | b.").unwrap(), &mut cost).unwrap());
        assert_eq!(cost.sat_calls, 0);
        assert!(has_model(&parse_program("a | b. :- a, b.").unwrap(), &mut cost).unwrap());
        assert!(!has_model(&parse_program("a. :- a.").unwrap(), &mut cost).unwrap());
    }

    #[test]
    #[should_panic(expected = "without negation")]
    fn rejects_negation() {
        let db = parse_program("a :- not b.").unwrap();
        let mut cost = Cost::new();
        let _ = infers(&db, &Formula::True, &mut cost).unwrap();
    }

    #[test]
    fn ddr_models_superset_of_gcwa_models() {
        // WGCWA is weaker: N_DDR ⊆ N_GCWA, so DDR(DB) ⊇ GCWA(DB).
        let db = parse_program("a | b. c :- a, b. e :- d.").unwrap();
        let mut cost = Cost::new();
        let ddr = models(&db, &mut cost).unwrap();
        let all = ddb_models::Partition::minimize_all(db.num_atoms());
        let gcwa = crate::ccwa::models(&db, &all, &mut cost).unwrap();
        for m in &gcwa {
            assert!(ddr.contains(m));
        }
    }
}
