//! NP/coNP-level reductions for the first-level table cells.
//!
//! * [`cnf_to_deductive_db`] — SAT ⇔ model existence for EGCWA (and GCWA,
//!   CCWA, ECWA) over deductive databases *with integrity clauses*: each
//!   CNF clause becomes a rule whose head holds the positive literals and
//!   whose body the atoms under negation; clauses without positive
//!   literals become integrity clauses. Model existence under those
//!   semantics equals classical satisfiability, so the cell is
//!   NP-complete (Table 2) versus `O(1)` for positive databases (Table 1).
//! * [`cnf_to_formula_query`] — UNSAT ⇔ formula inference under DDR/PWS
//!   (and classical entailment): with an *empty* database over the CNF's
//!   vocabulary, `DDR(∅) ⊨ ¬F_C` iff `C` is unsatisfiable... except DDR
//!   over the empty database closes every atom; instead we query the
//!   negated CNF against the database of *excluded-middle disjunctions*
//!   `a ∨ ā`, which keeps every atom active and makes the semantics' model
//!   set the full assignment space. coNP-hardness of formula inference for
//!   DDR and PWS follows (their Table-1 formula cells).

use ddb_logic::{Atom, Database, Formula, Rule, Symbols};

/// CNF clauses as `(var, sign)` lists.
pub type CnfInput = Vec<Vec<(u32, bool)>>;

/// Converts a CNF over `num_vars` variables into a deductive database
/// (positive rules + integrity clauses) with the same models.
pub fn cnf_to_deductive_db(num_vars: u32, cnf: &CnfInput) -> Database {
    let mut symbols = Symbols::new();
    let atoms: Vec<Atom> = (0..num_vars)
        .map(|v| symbols.intern(&format!("v{v}")))
        .collect();
    let mut db = Database::new(symbols);
    for clause in cnf {
        let head: Vec<Atom> = clause
            .iter()
            .filter(|&&(_, s)| s)
            .map(|&(v, _)| atoms[v as usize])
            .collect();
        let body: Vec<Atom> = clause
            .iter()
            .filter(|&&(_, s)| !s)
            .map(|&(v, _)| atoms[v as usize])
            .collect();
        db.add_rule(Rule::new(head, body, []));
    }
    db
}

/// The instance for the coNP-hardness of formula inference: a database of
/// excluded-middle disjunctions `vᵢ ∨ v̄ᵢ` plus the query formula
/// "`C` translated, negated" — the semantics infers the query iff `C` is
/// unsatisfiable.
pub struct FormulaQuery {
    /// Database of excluded-middle disjunctions (positive,
    /// integrity-free).
    pub db: Database,
    /// Query: inferred under DDR/PWS iff the CNF is unsatisfiable.
    pub query: Formula,
}

/// Builds the coNP formula-inference instance from a CNF.
pub fn cnf_to_formula_query(num_vars: u32, cnf: &CnfInput) -> FormulaQuery {
    let mut symbols = Symbols::new();
    let pos: Vec<Atom> = (0..num_vars)
        .map(|v| symbols.intern(&format!("v{v}")))
        .collect();
    let neg: Vec<Atom> = (0..num_vars)
        .map(|v| symbols.intern(&format!("v{v}_bar")))
        .collect();
    let mut db = Database::new(symbols);
    for v in 0..num_vars as usize {
        db.add_rule(Rule::fact([pos[v], neg[v]]));
    }
    // C translated: each literal v ↦ atom v, ¬v ↦ atom v̄ (so the formula
    // is positive and its truth under an exact assignment matches C's).
    let translated = Formula::And(
        cnf.iter()
            .map(|clause| {
                Formula::Or(
                    clause
                        .iter()
                        .map(|&(v, s)| {
                            Formula::atom(if s { pos[v as usize] } else { neg[v as usize] })
                        })
                        .collect(),
                )
            })
            .collect(),
    );
    // Under DDR/PWS the models include every exact assignment; C is
    // unsatisfiable iff ¬(translated) holds in all of them... except
    // non-exact models (both v, v̄) can satisfy `translated` spuriously.
    // Guard with exactness: query = (exact assignment) → ¬translated.
    let exact = Formula::And(
        (0..num_vars as usize)
            .map(|v| {
                Formula::Or(vec![
                    Formula::atom(pos[v]).negated(),
                    Formula::atom(neg[v]).negated(),
                ])
            })
            .collect(),
    );
    let query = exact.implies(translated.negated());
    FormulaQuery { db, query }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddb_models::{classical, Cost};

    fn random_cnf(num_vars: u32, num_clauses: usize, width: usize, seed: u64) -> CnfInput {
        let mut state = seed.wrapping_mul(0x2545F4914F6CDD1D).max(1);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        (0..num_clauses)
            .map(|_| {
                (0..width)
                    .map(|_| ((next() % num_vars as u64) as u32, next() % 2 == 0))
                    .collect()
            })
            .collect()
    }

    fn brute_sat(num_vars: u32, cnf: &CnfInput) -> bool {
        (0u64..1 << num_vars).any(|bits| {
            cnf.iter()
                .all(|c| c.iter().any(|&(v, s)| (bits >> v & 1 == 1) == s))
        })
    }

    #[test]
    fn deductive_db_preserves_models() {
        for seed in 0..50 {
            let cnf = random_cnf(4, 6, 3, seed);
            let db = cnf_to_deductive_db(4, &cnf);
            assert!(!db.has_negation());
            let mut cost = Cost::new();
            assert_eq!(
                classical::is_satisfiable(&db, &mut cost).unwrap(),
                brute_sat(4, &cnf),
                "seed {seed}"
            );
            // EGCWA model existence coincides with satisfiability.
            assert_eq!(
                ddb_core::ecwa::has_model(&db, &mut cost).unwrap(),
                brute_sat(4, &cnf),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn all_negative_clause_becomes_integrity() {
        let cnf: CnfInput = vec![vec![(0, false), (1, false)]];
        let db = cnf_to_deductive_db(2, &cnf);
        assert!(db.has_integrity_clauses());
        assert_eq!(db.class(), ddb_logic::DbClass::Deductive);
    }

    #[test]
    fn formula_query_decides_unsat_under_ddr_and_pws() {
        for seed in 0..40 {
            let cnf = random_cnf(3, 5, 2, seed);
            let q = cnf_to_formula_query(3, &cnf);
            let unsat = !brute_sat(3, &cnf);
            let mut cost = Cost::new();
            assert_eq!(
                ddb_core::ddr::countermodel(&q.db, &q.query, &mut cost)
                    .unwrap()
                    .is_none(),
                unsat,
                "DDR seed {seed}"
            );
            assert_eq!(
                ddb_core::pws::countermodel(&q.db, &q.query, &mut cost)
                    .unwrap()
                    .is_none(),
                unsat,
                "PWS seed {seed}"
            );
        }
    }

    #[test]
    fn formula_query_db_is_positive() {
        let q = cnf_to_formula_query(2, &vec![vec![(0, true), (1, false)]]);
        assert!(q.db.is_positive());
    }
}
