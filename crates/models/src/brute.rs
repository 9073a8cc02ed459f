//! Brute-force reference engine.
//!
//! Everything here enumerates all `2^|V|` interpretations. The test suites
//! of `ddb-models` and `ddb-core` validate every oracle-based procedure
//! against these definitions on small vocabularies; nothing outside tests
//! and cross-check benches should call into this module.

use crate::Partition;
use ddb_logic::{Atom, Database, Formula, Interpretation};

const MAX_BRUTE_ATOMS: usize = 24;

/// Iterates over all interpretations of an `n`-atom vocabulary.
pub fn all_interpretations(n: usize) -> impl Iterator<Item = Interpretation> {
    assert!(
        n <= MAX_BRUTE_ATOMS,
        "brute force is capped at {MAX_BRUTE_ATOMS} atoms"
    );
    (0u64..1 << n).map(move |bits| {
        Interpretation::from_atoms(
            n,
            (0..n)
                .filter(|&i| bits >> i & 1 == 1)
                .map(|i| Atom::new(i as u32)),
        )
    })
}

/// All classical models `M(DB)`, sorted.
pub fn models(db: &Database) -> Vec<Interpretation> {
    all_interpretations(db.num_atoms())
        .filter(|m| db.satisfied_by(m))
        .collect()
}

/// All (subset-)minimal models `MM(DB)`, by definition.
pub fn minimal_models(db: &Database) -> Vec<Interpretation> {
    let ms = models(db);
    ms.iter()
        .filter(|m| !ms.iter().any(|m2| m2.is_proper_subset(m)))
        .cloned()
        .collect()
}

/// All ⟨P;Z⟩-minimal models `MM(DB;P;Z)`, by definition.
pub fn pz_minimal_models(db: &Database, part: &Partition) -> Vec<Interpretation> {
    let ms = models(db);
    ms.iter()
        .filter(|m| !ms.iter().any(|m2| part.lt(m2, m)))
        .cloned()
        .collect()
}

/// Whether `F` holds in every model of a given collection.
pub fn holds_in_all(models: &[Interpretation], f: &Formula) -> bool {
    models.iter().all(|m| f.eval(m))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Cost;
    use ddb_logic::parse::{parse_formula, parse_program};

    #[test]
    fn brute_models_match_sat_engine() {
        let db = parse_program("a | b. c :- a. :- b, c.").unwrap();
        let mut cost = Cost::new();
        assert_eq!(
            models(&db),
            crate::classical::models(&db, &Interpretation::empty(db.num_atoms()), &mut cost)
                .unwrap()
        );
    }

    #[test]
    fn brute_minimal_matches_sat_engine() {
        let db = parse_program("a | b. b | c. d :- a, c.").unwrap();
        let mut cost = Cost::new();
        assert_eq!(
            minimal_models(&db),
            crate::minimal::minimal_models(&db, &mut cost).unwrap()
        );
    }

    #[test]
    fn brute_pz_matches_sat_engine() {
        let db = parse_program("a | b | c. b :- a.").unwrap();
        let syms = db.symbols();
        let part = Partition::from_p_q(3, [syms.lookup("a").unwrap()], [syms.lookup("c").unwrap()]);
        let mut cost = Cost::new();
        assert_eq!(
            pz_minimal_models(&db, &part),
            crate::minimal::pz_minimal_models(&db, &part, &mut cost).unwrap()
        );
    }

    #[test]
    fn holds_in_all_brute() {
        let db = parse_program("a | b.").unwrap();
        let f = parse_formula("a | b", db.symbols()).unwrap();
        assert!(holds_in_all(&minimal_models(&db), &f));
        let g = parse_formula("a", db.symbols()).unwrap();
        assert!(!holds_in_all(&minimal_models(&db), &g));
    }

    #[test]
    #[should_panic(expected = "capped")]
    fn cap_enforced() {
        let _ = all_interpretations(30).count();
    }
}
