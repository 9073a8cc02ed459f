//! The Generalized Closed World Assumption (GCWA), Minker \[16\].
//!
//! `GCWA(DB) = {M ∈ M(DB) : ∀x ∈ V. MM(DB) ⊨ ¬x ⇒ M ⊨ ¬x}` — the models
//! of `DB` that also satisfy every negative literal `¬x` whose atom is
//! false in all minimal models (the *GCWA-false* atoms `N`).
//!
//! GCWA is CCWA with `P = V` (`Q = Z = ∅`), and the dispatcher runs it as
//! such: formula inference computes the GCWA-false set `N` (`|V|` Σᵖ₂
//! queries, [`crate::ccwa::false_atoms`]) and searches for a model of
//! `DB ∪ ¬N ∧ ¬F` (one coNP check); model existence is one SAT call
//! (`MM(DB) ⊆ GCWA(DB)`, and every satisfiable finite database has a
//! minimal model); enumeration lists the models of `DB ∪ ¬N`. This module
//! holds what GCWA has beyond CCWA:
//!
//! * **Literal inference is one Πᵖ₂ query** ([`infers_literal`]).
//!   `GCWA(DB) ⊨ ℓ ⟺ MM(DB) ⊨ ℓ` for literals of either sign: every model
//!   in `GCWA(DB)` contains a minimal model, and `MM(DB) ⊆ GCWA(DB)` (a
//!   minimal model trivially satisfies all GCWA-false negations). So a
//!   single [`ddb_models::circumscribe::holds_in_all_minimal_models`] call
//!   decides it — "it suffices to check a restricted set of DB models".
//! * **The census.** The `O(log n)`-query census variant of \[7\] counts
//!   `|N|` ([`census_false_atoms`], ablation AB-2).

use ddb_logic::{Atom, Database, Formula, Interpretation, Literal};
use ddb_models::{circumscribe, Cost, Partition};
use ddb_obs::Governed;

/// Counts `|N|` with `O(log |V|)` Σᵖ₂-style queries, the census technique
/// of Eiter & Gottlob \[7\]: binary-search the largest `k` such that some
/// collection of minimal models leaves at most `|V| − k` atoms … here
/// realized as the query "do at least `k` atoms occur in minimal models?",
/// decided by a single CEGAR search for a *set* of minimal models covering
/// `k` atoms.
///
/// This is an ablation target (AB-2 in the `tables` report): it demonstrates the
/// `P^{Σᵖ₂}[O(log n)]` upper-bound structure without being needed for
/// correctness (inference uses [`crate::ccwa::false_atoms`]).
pub fn census_false_atoms(db: &Database, cost: &mut Cost) -> Governed<usize> {
    let n = db.num_atoms();
    // Binary search on t = number of atoms occurring in some minimal model.
    let (mut lo, mut hi) = (0usize, n); // invariant: occ(t) true for t ≤ lo, false for t > hi
    while lo < hi {
        let mid = lo + (hi - lo).div_ceil(2);
        if at_least_k_atoms_occur(db, mid, cost)? {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    Ok(n - lo)
}

/// One census oracle query: "are there ≥ k atoms that each occur in some
/// minimal model?" — implemented as a greedy cover by CEGAR witnesses
/// (each witness is a minimal model; its atoms all occur).
fn at_least_k_atoms_occur(db: &Database, k: usize, cost: &mut Cost) -> Governed<bool> {
    if k == 0 {
        return Ok(true);
    }
    let n = db.num_atoms();
    let part = Partition::minimize_all(n);
    let mut occurring = Interpretation::empty(n);
    // Greedily find a minimal model containing an atom not yet covered.
    loop {
        if occurring.count() >= k {
            return Ok(true);
        }
        let uncovered: Vec<Formula> = (0..n)
            .map(|i| Atom::new(i as u32))
            .filter(|a| !occurring.contains(*a))
            .map(Formula::atom)
            .collect();
        if uncovered.is_empty() {
            return Ok(false);
        }
        let f = Formula::Or(uncovered);
        match circumscribe::find_pz_minimal_model_satisfying(db, &part, &f, cost)? {
            Some(m) => occurring.union_with(&m),
            None => return Ok(false),
        }
    }
}

/// Literal inference `GCWA(DB) ⊨ ℓ`: a single Πᵖ₂ CEGAR query
/// (`MM(DB) ⊨ ℓ`).
///
/// ```
/// use ddb_logic::parse::parse_program;
/// use ddb_models::Cost;
/// let db = parse_program("a | b. c :- a, b.").unwrap();
/// let c = db.symbols().lookup("c").unwrap();
/// let mut cost = Cost::new();
/// assert!(ddb_core::gcwa::infers_literal(&db, c.neg(), &mut cost).unwrap());
/// assert!(!ddb_core::gcwa::infers_literal(&db, c.pos(), &mut cost).unwrap());
/// ```
pub fn infers_literal(db: &Database, lit: Literal, cost: &mut Cost) -> Governed<bool> {
    let _span = ddb_obs::span("gcwa.infers_literal");
    circumscribe::holds_in_all_minimal_models(db, &lit.into(), cost)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RoutingMode, SemanticsConfig, SemanticsId};
    use ddb_logic::parse::{parse_formula, parse_program};
    use ddb_models::minimal;

    /// GCWA as the dispatcher runs it on the generic route.
    fn gcwa() -> SemanticsConfig {
        SemanticsConfig::new(SemanticsId::Gcwa).with_routing(RoutingMode::Generic)
    }

    /// The GCWA-false atoms: CCWA's at `P = V`.
    fn false_atoms(db: &Database, cost: &mut Cost) -> Governed<Interpretation> {
        crate::ccwa::false_atoms(db, &Partition::minimize_all(db.num_atoms()), cost)
    }

    /// Formula inference by the `N`-set procedure, also on literals.
    fn infers(db: &Database, f: &Formula, cost: &mut Cost) -> Governed<bool> {
        let part = Partition::minimize_all(db.num_atoms());
        Ok(crate::ccwa::countermodel(db, &part, f, cost)?.is_none())
    }

    fn lit(db: &Database, name: &str, positive: bool) -> Literal {
        Literal::with_sign(db.symbols().lookup(name).unwrap(), positive)
    }

    #[test]
    fn minker_classic() {
        // a ∨ b: GCWA infers neither ¬a nor ¬b (each occurs in a minimal
        // model), unlike naive CWA which would be inconsistent.
        let db = parse_program("a | b.").unwrap();
        let mut cost = Cost::new();
        assert!(!infers_literal(&db, lit(&db, "a", false), &mut cost).unwrap());
        assert!(!infers_literal(&db, lit(&db, "b", false), &mut cost).unwrap());
        assert!(!infers_literal(&db, lit(&db, "a", true), &mut cost).unwrap());
    }

    #[test]
    fn derived_atom_closed_off() {
        // a ∨ b, c ← a ∧ b: c is false in both minimal models.
        let db = parse_program("a | b. c :- a, b.").unwrap();
        let mut cost = Cost::new();
        assert!(infers_literal(&db, lit(&db, "c", false), &mut cost).unwrap());
        let n = false_atoms(&db, &mut cost).unwrap();
        assert_eq!(n.count(), 1);
        assert!(n.contains(db.symbols().lookup("c").unwrap()));
    }

    #[test]
    fn positive_literal_inference() {
        let db = parse_program("a. b | c :- a.").unwrap();
        let mut cost = Cost::new();
        assert!(infers_literal(&db, lit(&db, "a", true), &mut cost).unwrap());
        assert!(!infers_literal(&db, lit(&db, "b", true), &mut cost).unwrap());
    }

    #[test]
    fn formula_inference_uses_closed_world() {
        // a ∨ b, GCWA adds nothing; but with c: ¬c becomes derivable,
        // so ¬c ∨ a is inferred while ¬a is not.
        let db = parse_program("a | b. c :- a, b.").unwrap();
        let mut cost = Cost::new();
        let f = parse_formula("!c | a", db.symbols()).unwrap();
        assert!(infers(&db, &f, &mut cost).unwrap());
        let g = parse_formula("!a", db.symbols()).unwrap();
        assert!(!infers(&db, &g, &mut cost).unwrap());
        // a ∨ b is classical, hence GCWA-inferred.
        let h = parse_formula("a | b", db.symbols()).unwrap();
        assert!(infers(&db, &h, &mut cost).unwrap());
    }

    #[test]
    fn formula_vs_models_reference() {
        let db = parse_program("a | b. b | c. d :- a, c.").unwrap();
        let mut cost = Cost::new();
        let gm = gcwa().models(&db, &mut cost).unwrap();
        assert!(!gm.is_empty());
        for text in ["!d", "a | c", "b | (a & c)", "!a", "a -> !c"] {
            let f = parse_formula(text, db.symbols()).unwrap();
            let expected = gm.iter().all(|m| f.eval(m));
            assert_eq!(infers(&db, &f, &mut cost).unwrap(), expected, "{text}");
        }
    }

    #[test]
    fn literal_inference_matches_formula_inference() {
        // The two paths (single Πᵖ₂ query vs N-set + entailment) must agree
        // on literals.
        let db = parse_program("a | b. c :- a. :- b, c. d | e :- c.").unwrap();
        let mut cost = Cost::new();
        for name in ["a", "b", "c", "d", "e"] {
            for sign in [true, false] {
                let l = lit(&db, name, sign);
                assert_eq!(
                    infers_literal(&db, l, &mut cost).unwrap(),
                    infers(&db, &l.into(), &mut cost).unwrap(),
                    "{name} {sign}"
                );
            }
        }
    }

    #[test]
    fn model_existence_is_satisfiability() {
        let mut cost = Cost::new();
        let exists = |src: &str, cost: &mut Cost| {
            gcwa()
                .has_model(&parse_program(src).unwrap(), cost)
                .unwrap()
                .definite()
        };
        assert!(exists("a | b. :- a.", &mut cost));
        assert!(!exists("a. :- a.", &mut cost));
        assert_eq!(cost.sat_calls, 2, "one SAT call each");
    }

    #[test]
    fn census_matches_direct_count() {
        for src in [
            "a | b. c :- a, b.",
            "a | b. b | c. d :- a, c.",
            "a. b. c | d :- a. :- c.",
            "p | q. r | s. t :- p, r. u :- v.",
        ] {
            let db = parse_program(src).unwrap();
            let mut cost = Cost::new();
            let direct = false_atoms(&db, &mut cost).unwrap().count();
            let census = census_false_atoms(&db, &mut cost).unwrap();
            assert_eq!(census, direct, "program: {src}");
        }
    }

    #[test]
    fn gcwa_models_contain_minimal_models() {
        let db = parse_program("a | b. c | d :- a.").unwrap();
        let mut cost = Cost::new();
        let gm = gcwa().models(&db, &mut cost).unwrap();
        for m in minimal::minimal_models(&db, &mut cost).unwrap() {
            assert!(gm.contains(&m));
        }
        // And every GCWA model is a model of DB.
        for m in &gm {
            assert!(db.satisfied_by(m));
        }
    }
}
