//! The Theorem-3.1-style reduction: Πᵖ₂-hardness of literal inference from
//! a **positive, integrity-free** DDB under minimal-model semantics.
//!
//! Given `Φ = ∀X ∃Y φ` (CNF matrix), build the positive DDB
//!
//! ```text
//! x ∨ x̄.                 for every x ∈ X        (exclusive choice)
//! y ∨ ȳ.                 for every y ∈ Y
//! y ← w.   ȳ ← w.        for every y ∈ Y        (w saturates Y)
//! w ← ¬̃c.                for every clause c ∈ φ (¬̃c = complements of c's
//!                                                 literals, as atoms)
//! ```
//!
//! **Claim**: `Φ` is valid iff `MM(DB) ⊨ ¬w` (equivalently, iff
//! `GCWA(DB) ⊨ ¬w`).
//!
//! *Why*: a minimal model either omits `w` — then it is an exact
//! assignment to `X ∪ Y` firing no `w`-rule, i.e. one satisfying `φ` — or
//! contains `w`, in which case it has the shape
//! `σ(X) ∪ {y, ȳ : y ∈ Y} ∪ {w}`. Such a saturated model is minimal
//! exactly when no proper submodel exists, i.e. when **every** exact
//! `Y`-assignment under `σ` falsifies `φ` (any satisfying one would give a
//! smaller `w`-free model inside it). Hence a minimal model containing `w`
//! exists iff `∃σ ∀Y ¬φ(σ, ·)` iff `Φ` is invalid.
//!
//! Because GCWA, EGCWA, ECWA (with `P = V`), ICWA (degenerate
//! stratification), PERF, DSM and PDSM all reduce to minimal-model
//! inference on positive databases, this single construction witnesses the
//! Πᵖ₂-hardness entries of their Table-1 rows — exactly how the paper
//! derives them.

use crate::qbf::ForallExistsCnf;
use ddb_logic::{Atom, Database, Rule, Symbols};

/// The output of the reduction: the database and the distinguished atom.
pub struct GcwaInstance {
    /// The positive, integrity-free disjunctive database.
    pub db: Database,
    /// The atom `w`: `Φ` is valid iff `MM(db) ⊨ ¬w`.
    pub w: Atom,
}

/// Builds the reduction instance from a `∀X∃Y`-CNF formula.
pub fn forall_exists_to_gcwa(qbf: &ForallExistsCnf) -> GcwaInstance {
    let mut symbols = Symbols::new();
    let n = qbf.num_vars();
    // Positive and negative atom for every QBF variable.
    let pos: Vec<Atom> = (0..n).map(|v| symbols.intern(&format!("v{v}"))).collect();
    let neg: Vec<Atom> = (0..n)
        .map(|v| symbols.intern(&format!("v{v}_bar")))
        .collect();
    let w = symbols.intern("w");
    let mut db = Database::new(symbols);

    let lit_atom = |(v, s): (u32, bool)| if s { pos[v as usize] } else { neg[v as usize] };

    for v in 0..n as usize {
        db.add_rule(Rule::fact([pos[v], neg[v]]));
    }
    for y in qbf.num_universal..n {
        let y = y as usize;
        db.add_rule(Rule::new([pos[y]], [w], []));
        db.add_rule(Rule::new([neg[y]], [w], []));
    }
    for clause in &qbf.clauses {
        // w ← complements of the clause's literals.
        let body: Vec<Atom> = clause.iter().map(|&(v, s)| lit_atom((v, !s))).collect();
        db.add_rule(Rule::new([w], body, []));
    }
    GcwaInstance { db, w }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qbf::random_forall_exists;
    use ddb_core::{SemanticsConfig, SemanticsId};
    use ddb_logic::Formula;
    use ddb_models::Cost;

    #[test]
    fn produces_positive_integrity_free_db() {
        let q = random_forall_exists(2, 2, 4, 3, 7);
        let inst = forall_exists_to_gcwa(&q);
        assert!(inst.db.is_positive());
        assert_eq!(inst.db.class(), ddb_logic::DbClass::Positive);
    }

    #[test]
    fn reduction_preserves_answers_gcwa() {
        for seed in 0..60 {
            let q = random_forall_exists(2, 2, 4, 2, seed);
            let inst = forall_exists_to_gcwa(&q);
            let mut cost = Cost::new();
            let inferred =
                ddb_core::gcwa::infers_literal(&inst.db, inst.w.neg(), &mut cost).unwrap();
            assert_eq!(inferred, q.valid_brute(), "seed {seed}: {q:?}");
        }
    }

    #[test]
    fn reduction_preserves_answers_across_mm_semantics() {
        // The same instance must give the same answer under every
        // minimal-model-based semantics (they coincide on positive DBs).
        for seed in [3u64, 11, 19, 42] {
            let q = random_forall_exists(2, 2, 3, 2, seed);
            let inst = forall_exists_to_gcwa(&q);
            let expected = q.valid_brute();
            let mut cost = Cost::new();
            for id in [
                SemanticsId::Gcwa,
                SemanticsId::Egcwa,
                SemanticsId::Ecwa,
                SemanticsId::Icwa,
                SemanticsId::Perf,
                SemanticsId::Dsm,
                SemanticsId::Pdsm,
            ] {
                let cfg = SemanticsConfig::new(id);
                let got = cfg
                    .infers_formula(&inst.db, &Formula::from(inst.w.neg()), &mut cost)
                    .expect("applicable on positive DBs");
                assert_eq!(got, expected, "seed {seed} semantics {id}");
            }
        }
    }

    #[test]
    fn valid_and_invalid_fixed_instances() {
        // ∀x∃y (x∨y)(¬x∨¬y): valid → ¬w inferred.
        let valid = ForallExistsCnf {
            num_universal: 1,
            num_existential: 1,
            clauses: vec![vec![(0, true), (1, true)], vec![(0, false), (1, false)]],
        };
        let inst = forall_exists_to_gcwa(&valid);
        let mut cost = Cost::new();
        assert!(ddb_core::gcwa::infers_literal(&inst.db, inst.w.neg(), &mut cost).unwrap());

        // ∀x∃y (x): invalid → some minimal model contains w.
        let invalid = ForallExistsCnf {
            num_universal: 1,
            num_existential: 1,
            clauses: vec![vec![(0, true)]],
        };
        let inst = forall_exists_to_gcwa(&invalid);
        assert!(!ddb_core::gcwa::infers_literal(&inst.db, inst.w.neg(), &mut cost).unwrap());
    }

    use crate::qbf::ForallExistsCnf;
}
