//! The Extended Closed World Assumption (ECWA), Gelfond, Przymusinska &
//! Przymusinski \[12\] — equivalent, in the finite propositional case, to
//! McCarthy's circumscription as defined by Lifschitz \[14\] (CIRC).
//!
//! `ECWA_{P;Z}(DB) = MM(DB;P;Z) = CIRC_{P;Z}(DB)`: the ⟨P;Z⟩-minimal
//! models. EGCWA is the special case `P = V`, `Q = Z = ∅`, and runs here:
//! the dispatcher calls this module with [`Partition::minimize_all`] for
//! its inference and existence.
//!
//! Inference (literal and formula) is truth in all ⟨P;Z⟩-minimal models —
//! one Πᵖ₂ CEGAR query; the paper shows Πᵖ₂-completeness. Model existence
//! is satisfiability (every satisfiable database has a ⟨P;Z⟩-minimal
//! model: descend in the preorder, which is well-founded on finite
//! vocabularies).
//!
//! The circumscription reading is validated in tests: a model `M` satisfies
//! the circumscription axiom
//! `DB[P;Z] ∧ ¬∃P′Z′ (DB[P′;Z′] ∧ P′ < P)` exactly when `M` is
//! ⟨P;Z⟩-minimal ([`satisfies_circumscription`] evaluates the second-order
//! body by explicit search over ⟨P′,Z′⟩, test-sized).

use ddb_logic::{Database, Formula, Interpretation};
use ddb_models::{brute, circumscribe, classical, minimal, Cost, Partition};
use ddb_obs::Governed;

/// Formula inference `ECWA_{P;Z}(DB) ⊨ F` as a countermodel search: a
/// ⟨P;Z⟩-minimal model falsifying `F`, or `None` when `F` is inferred.
/// One Πᵖ₂ CEGAR query.
pub fn countermodel(
    db: &Database,
    part: &Partition,
    f: &Formula,
    cost: &mut Cost,
) -> Governed<Option<Interpretation>> {
    let _span = ddb_obs::span("ecwa.countermodel");
    circumscribe::find_pz_minimal_model_satisfying(db, part, &f.clone().negated(), cost)
}

/// Model existence: `MM(DB;P;Z) ≠ ∅ ⟺ DB` satisfiable. `O(1)` for
/// databases without integrity clauses or negation.
pub fn has_model(db: &Database, cost: &mut Cost) -> Governed<bool> {
    let _span = ddb_obs::span("ecwa.has_model");
    if !db.has_integrity_clauses() && !db.has_negation() {
        return Ok(true);
    }
    classical::is_satisfiable(db, cost)
}

/// The characteristic model set `ECWA_{P;Z}(DB) = MM(DB;P;Z)`.
pub fn models(db: &Database, part: &Partition, cost: &mut Cost) -> Governed<Vec<Interpretation>> {
    let _span = ddb_obs::span("ecwa.models");
    minimal::pz_minimal_models(db, part, cost)
}

/// Whether `m` satisfies the circumscription `Circ(DB; P; Z)` of Lifschitz
/// \[14\]: `m ⊨ DB` and there is **no** reassignment of `P ∪ Z` (fixing
/// `Q`) that still satisfies `DB` with a strictly smaller `P`-part. The
/// existential second-order body is evaluated by explicit enumeration —
/// test/example sized (`|P| + |Z| ≤ 20`).
pub fn satisfies_circumscription(db: &Database, part: &Partition, m: &Interpretation) -> bool {
    if !db.satisfied_by(m) {
        return false;
    }
    let free: Vec<ddb_logic::Atom> = part.p().iter().chain(part.z().iter()).collect();
    assert!(
        free.len() <= 20,
        "explicit circumscription check is test-sized"
    );
    for bits in 0u64..1 << free.len() {
        let mut m2 = m.clone();
        for (i, &a) in free.iter().enumerate() {
            m2.set(a, bits >> i & 1 == 1);
        }
        if db.satisfied_by(&m2) && part.lt(&m2, m) {
            return false;
        }
    }
    true
}

/// Cross-check helper: the circumscription models by the explicit axiom —
/// must coincide with [`models`] (used in tests; brute-force sized).
pub fn circ_models_brute(db: &Database, part: &Partition) -> Vec<Interpretation> {
    brute::models(db)
        .into_iter()
        .filter(|m| satisfies_circumscription(db, part, m))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddb_logic::parse::{parse_formula, parse_program};

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
    fn equals_egcwa_when_q_z_empty() {
        let db = parse_program("a | b. c :- a, b.").unwrap();
        let part = Partition::minimize_all(db.num_atoms());
        let mut cost = Cost::new();
        let mm = minimal::minimal_models(&db, &mut cost).unwrap();
        for text in ["!c", "!(a & b)", "a | b", "!a"] {
            let f = parse_formula(text, db.symbols()).unwrap();
            // EGCWA(DB) = MM(DB).
            let expected = mm.iter().all(|m| f.eval(m));
            assert_eq!(
                infers(&db, &part, &f, &mut cost).unwrap(),
                expected,
                "{text}"
            );
        }
    }

    #[test]
    fn circumscription_axiom_matches_pz_minimality() {
        let db = parse_program("a | b | c. b :- a. :- a, c.").unwrap();
        let part = part_pq(&db, &["a", "b"], &["c"]);
        let mut cost = Cost::new();
        assert_eq!(
            circ_models_brute(&db, &part),
            models(&db, &part, &mut cost).unwrap()
        );
    }

    #[test]
    fn circumscription_axiom_matches_on_random_partitions() {
        let db = parse_program("p | q. r :- p. s | t :- q, r.").unwrap();
        let n = db.num_atoms();
        let mut cost = Cost::new();
        // All 3^n partitions would be overkill; try a few systematic ones.
        for (p_names, q_names) in [
            (vec!["p", "q", "r", "s", "t"], vec![]),
            (vec!["p", "q"], vec!["r"]),
            (vec!["r", "s"], vec!["p", "q"]),
            (vec![], vec!["p"]),
        ] {
            let part = part_pq(&db, &p_names, &q_names);
            assert_eq!(
                circ_models_brute(&db, &part),
                models(&db, &part, &mut cost).unwrap(),
                "P={p_names:?} Q={q_names:?}"
            );
            let _ = n;
        }
    }

    #[test]
    fn ecwa_closes_more_than_ccwa() {
        // ECWA(DB) ⊆ CCWA(DB) (minimal models are CCWA-models), so ECWA
        // inference is stronger or equal.
        let db = parse_program("a | b. c | d :- b.").unwrap();
        let part = part_pq(&db, &["a", "c"], &["b"]);
        let mut cost = Cost::new();
        for text in ["!a", "!c", "!(a & c)", "b -> (c | d)"] {
            let f = parse_formula(text, db.symbols()).unwrap();
            if crate::ccwa::countermodel(&db, &part, &f, &mut cost)
                .unwrap()
                .is_none()
            {
                assert!(infers(&db, &part, &f, &mut cost).unwrap(), "{text}");
            }
        }
    }

    #[test]
    fn fixed_part_blocks_minimization() {
        // a ∨ b, Q = {b}: the model {b} cannot shrink a's way; both {a}
        // (Q-part ∅) and {b} (Q-part {b}) are ⟨P;Z⟩-minimal, so ¬a is not
        // inferred.
        let db = parse_program("a | b.").unwrap();
        let part = part_pq(&db, &["a"], &["b"]);
        let mut cost = Cost::new();
        let na = parse_formula("!a", db.symbols()).unwrap();
        assert!(!infers(&db, &part, &na, &mut cost).unwrap());
        // With b varying instead, ¬a is inferred.
        let part2 = part_pq(&db, &["a"], &[]);
        assert!(infers(&db, &part2, &na, &mut cost).unwrap());
    }

    #[test]
    fn existence() {
        let mut cost = Cost::new();
        let pos = parse_program("a | b.").unwrap();
        assert!(has_model(&pos, &mut cost).unwrap());
        assert_eq!(cost.sat_calls, 0);
        let unsat = parse_program("a. :- a.").unwrap();
        assert!(!has_model(&unsat, &mut cost).unwrap());
    }
}
