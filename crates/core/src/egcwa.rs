//! The Extended Generalized Closed World Assumption (EGCWA), Yahya &
//! Henschen \[30\].
//!
//! EGCWA strengthens GCWA by adding to `DB` every *integrity clause*
//! `¬a₁ ∨ … ∨ ¬aₙ` (equivalently `← a₁ ∧ … ∧ aₙ`) that is true in every
//! minimal model. The resulting model set is exactly the minimal models:
//! `EGCWA(DB) = MM(DB)` — the characterization the paper uses, and the one
//! implemented here.
//!
//! EGCWA is ECWA with `P = V` (`Q = Z = ∅`), and the dispatcher runs it
//! as such: inference (literal and formula) is truth in all minimal
//! models, one Πᵖ₂ CEGAR query (Πᵖ₂-complete; hardness via the 2QBF
//! reduction in `ddb-reductions`); model existence is `O(1)` for positive
//! databases and one SAT call with integrity clauses (NP-complete — Table
//! 2). This module holds what EGCWA has beyond ECWA:
//!
//! * **Partial-result enumeration** ([`models`]): the minimal-model walk
//!   verifies each model before yielding it, so a tripped budget still
//!   hands back the models found so far.
//! * **The derived integrity clauses** ([`derived_integrity_clauses`]),
//!   by hypergraph (Berge) dualization.

use crate::dispatch::{note_interrupt, Enumeration};
use ddb_logic::{Database, Interpretation};
use ddb_models::{minimal, Cost};
use ddb_obs::Governed;

/// The characteristic model set `EGCWA(DB) = MM(DB)`. An exhausted budget
/// yields the models verified before it tripped, with `interrupted` set.
pub fn models(db: &Database, cost: &mut Cost) -> Enumeration {
    let _span = ddb_obs::span("egcwa.models");
    let (models, interrupted) = minimal::minimal_models_partial(db, cost);
    if let Some(i) = &interrupted {
        note_interrupt(i);
    }
    Enumeration {
        models,
        interrupted,
    }
}

/// The integrity clauses EGCWA adds: the subset-minimal atom sets
/// `{a₁,…,aₙ}` such that `← a₁ ∧ … ∧ aₙ` holds in every minimal model
/// (no minimal model contains all of them).
///
/// Computed by **hypergraph dualization**: such sets are exactly the
/// minimal transversals of `{V ∖ M : M ∈ MM(DB)}`
/// ([`ddb_models::transversal`] spells out the equivalence). Returns
/// `None` when the `cap` on intermediate transversal sets is exceeded
/// (the output can be exponential); the trivial singleton-`∅` answer for
/// an inconsistent database is represented as `Some(vec![vec![]])` (the
/// empty clause holds).
pub fn derived_integrity_clauses(
    db: &Database,
    cap: usize,
    cost: &mut Cost,
) -> Governed<Option<Vec<Vec<ddb_logic::Atom>>>> {
    let mm = minimal::minimal_models(db, cost)?;
    let n = db.num_atoms();
    if mm.is_empty() {
        return Ok(Some(vec![Vec::new()]));
    }
    let complements: Vec<Interpretation> = mm
        .iter()
        .map(|m| {
            let mut c = Interpretation::full(n);
            c.difference_with(m);
            c
        })
        .collect();
    // A minimal model = V would give an empty complement edge: then no
    // nonempty atom set is blocked (every superset question is moot) —
    // no derived clauses at all.
    if complements.iter().any(Interpretation::is_empty_set) {
        return Ok(Some(Vec::new()));
    }
    let Some(transversals) = ddb_models::transversal::minimal_transversals(n, &complements, cap)?
    else {
        return Ok(None);
    };
    Ok(Some(
        transversals
            .into_iter()
            .map(|t| t.iter().collect())
            .collect(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RoutingMode, SemanticsConfig, SemanticsId};
    use ddb_logic::parse::{parse_formula, parse_program};
    use ddb_logic::{Atom, Formula, Literal};

    /// A semantics as the dispatcher runs it on the generic route.
    fn generic(id: SemanticsId) -> SemanticsConfig {
        SemanticsConfig::new(id).with_routing(RoutingMode::Generic)
    }

    fn infers(id: SemanticsId, db: &Database, f: &Formula, cost: &mut Cost) -> bool {
        generic(id).infers_formula(db, f, cost).unwrap().definite()
    }

    fn has_model(db: &Database, cost: &mut Cost) -> Governed<bool> {
        Ok(generic(SemanticsId::Egcwa)
            .has_model(db, cost)
            .unwrap()
            .definite())
    }

    #[test]
    fn egcwa_infers_integrity_clauses_gcwa_misses() {
        // The classic separating example: DB = {a ∨ b}. GCWA infers
        // neither ¬a nor ¬b; EGCWA additionally infers ¬(a ∧ b) because no
        // minimal model contains both.
        let db = parse_program("a | b.").unwrap();
        let mut cost = Cost::new();
        let f = parse_formula("!(a & b)", db.symbols()).unwrap();
        assert!(infers(SemanticsId::Egcwa, &db, &f, &mut cost));
        // GCWA does not infer it: {a,b} ∈ GCWA(DB).
        assert!(!infers(SemanticsId::Gcwa, &db, &f, &mut cost));
    }

    #[test]
    fn literal_inference_equals_gcwa_on_literals() {
        // On literals EGCWA and GCWA coincide (both check MM).
        let db = parse_program("a | b. c :- a, b. d :- a.").unwrap();
        let mut cost = Cost::new();
        for i in 0..db.num_atoms() {
            for sign in [true, false] {
                let l = Literal::with_sign(Atom::new(i as u32), sign);
                assert_eq!(
                    infers(SemanticsId::Egcwa, &db, &Formula::from(l), &mut cost),
                    crate::gcwa::infers_literal(&db, l, &mut cost).unwrap()
                );
            }
        }
    }

    #[test]
    fn model_existence() {
        let mut cost = Cost::new();
        assert!(has_model(&parse_program("a | b.").unwrap(), &mut cost).unwrap());
        assert!(has_model(&parse_program("a | b. :- a.").unwrap(), &mut cost).unwrap());
        assert!(!has_model(&parse_program("a. :- a.").unwrap(), &mut cost).unwrap());
    }

    #[test]
    fn positive_existence_is_constant_time() {
        let db = parse_program("a | b. c :- a.").unwrap();
        let mut cost = Cost::new();
        assert!(has_model(&db, &mut cost).unwrap());
        assert_eq!(cost.sat_calls, 0, "positive case must not call the oracle");
    }

    #[test]
    fn models_are_minimal_models() {
        let db = parse_program("a | b. b | c.").unwrap();
        let mut cost = Cost::new();
        assert_eq!(
            models(&db, &mut cost),
            minimal::minimal_models(&db, &mut cost).unwrap()
        );
    }

    #[test]
    fn derived_clauses_on_disjunction() {
        let db = parse_program("a | b.").unwrap();
        let mut cost = Cost::new();
        let clauses = derived_integrity_clauses(&db, 1000, &mut cost)
            .unwrap()
            .unwrap();
        // Exactly one minimal derived integrity clause: ← a ∧ b.
        assert_eq!(clauses.len(), 1);
        assert_eq!(clauses[0].len(), 2);
    }

    #[test]
    fn derived_clauses_inconsistent_db() {
        let db = parse_program("a. :- a.").unwrap();
        let mut cost = Cost::new();
        assert_eq!(
            derived_integrity_clauses(&db, 1000, &mut cost).unwrap(),
            Some(vec![Vec::new()])
        );
    }

    #[test]
    fn derived_clauses_match_definition_on_random_dbs() {
        use ddb_workloads::random::{random_db, DbSpec};
        for seed in 0..25 {
            let db = random_db(&DbSpec::positive(5, 8), seed);
            let mut cost = Cost::new();
            let clauses = derived_integrity_clauses(&db, 100_000, &mut cost)
                .unwrap()
                .unwrap();
            let mm = minimal::minimal_models(&db, &mut cost).unwrap();
            // Each derived clause: no minimal model contains all its atoms.
            for c in &clauses {
                assert!(
                    mm.iter().all(|m| !c.iter().all(|&a| m.contains(a))),
                    "seed {seed}: clause {c:?} not valid"
                );
                // Minimality: dropping any atom breaks validity.
                for k in 0..c.len() {
                    let smaller: Vec<_> = c
                        .iter()
                        .enumerate()
                        .filter(|&(j, _)| j != k)
                        .map(|(_, &a)| a)
                        .collect();
                    assert!(
                        !smaller.is_empty()
                            && mm.iter().any(|m| smaller.iter().all(|&a| m.contains(a)))
                            || smaller.is_empty() && !mm.is_empty(),
                        "seed {seed}: clause {c:?} not minimal"
                    );
                }
            }
            // Completeness: every 1- and 2-atom blocked set is covered by
            // some derived clause.
            let n = db.num_atoms();
            for mask in 1u32..1 << n {
                let set: Vec<ddb_logic::Atom> = (0..n as u32)
                    .filter(|&i| mask >> i & 1 == 1)
                    .map(ddb_logic::Atom::new)
                    .collect();
                let blocked = mm.iter().all(|m| !set.iter().all(|&a| m.contains(a)));
                let covered = clauses.iter().any(|c| c.iter().all(|a| set.contains(a)));
                assert_eq!(
                    blocked && !mm.is_empty(),
                    covered && !mm.is_empty(),
                    "seed {seed}: set {set:?}"
                );
            }
        }
    }

    #[test]
    fn derived_clauses_cap() {
        // Many disjoint disjunctions → exponentially many derived clauses.
        let db = parse_program("a0 | b0. a1 | b1. a2 | b2. a3 | b3. a4 | b4.").unwrap();
        let mut cost = Cost::new();
        assert!(derived_integrity_clauses(&db, 3, &mut cost)
            .unwrap()
            .is_none());
        let clauses = derived_integrity_clauses(&db, 100_000, &mut cost)
            .unwrap()
            .unwrap();
        // One per pair (← aᵢ ∧ bᵢ) plus nothing else at minimality.
        assert_eq!(clauses.len(), 5);
    }
}
