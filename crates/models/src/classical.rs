//! Classical (NP/coNP-level) reasoning: satisfiability, model finding and
//! entailment for disjunctive databases.
//!
//! Every function is budget-governed: a tripped [`ddb_obs::Budget`]
//! surfaces as `Err(`[`Interrupted`](ddb_obs::Interrupted)`)` from the
//! underlying oracle call and propagates out with `?`.

use crate::Cost;
use ddb_logic::cnf::{database_to_cnf, Cnf, CnfBuilder};
use ddb_logic::{Database, Formula, Interpretation, Literal};
use ddb_obs::Governed;
use ddb_sat::{enumerate_models, Solver};

/// Finds some classical model of `DB` (one NP-oracle call), or `None` if
/// the database is unsatisfiable.
pub fn some_model(db: &Database, cost: &mut Cost) -> Governed<Option<Interpretation>> {
    some_model_with(db, &[], cost)
}

/// Finds some model of `DB ∧ extra` (units), projected to the database
/// vocabulary.
pub fn some_model_with(
    db: &Database,
    extra: &[Literal],
    cost: &mut Cost,
) -> Governed<Option<Interpretation>> {
    let mut solver = Solver::from_cnf(&database_to_cnf(db));
    solver.ensure_vars(db.num_atoms());
    let result = solver.solve_with_assumptions(extra);
    cost.absorb(&solver);
    let sat = result?.is_sat();
    Ok(sat.then(|| project(&solver.model(), db.num_atoms())))
}

/// Whether `DB` is classically satisfiable.
pub fn is_satisfiable(db: &Database, cost: &mut Cost) -> Governed<bool> {
    Ok(some_model(db, cost)?.is_some())
}

/// The clauses of `DB ∪ ¬N`: the database with every atom of `closed`
/// asserted false — the closed-world theory of GCWA, CCWA and DDR.
fn closed_world(db: &Database, closed: &Interpretation) -> CnfBuilder {
    let mut b = CnfBuilder::new(db.num_atoms());
    b.add_database(db);
    for a in closed.iter() {
        b.add_clause(vec![a.neg()]);
    }
    b
}

/// A countermodel to the entailment `DB ∪ ¬N ⊨ F` (`N` = `closed`): a
/// model of `DB ∧ ¬N ∧ ¬F` projected to the vocabulary, or `None` when the
/// entailment holds. One coNP check.
pub fn countermodel(
    db: &Database,
    closed: &Interpretation,
    f: &Formula,
    cost: &mut Cost,
) -> Governed<Option<Interpretation>> {
    let mut b = closed_world(db, closed);
    b.assert_formula(&f.clone().negated());
    let mut solver = Solver::from_cnf(&b.finish());
    let result = solver.solve();
    cost.absorb(&solver);
    let sat = result?.is_sat();
    Ok(sat.then(|| project(&solver.model(), db.num_atoms())))
}

/// Every model of `DB ∪ ¬N` (`N` = `closed`), sorted — exponentially many
/// in the worst case. Only those models are enumerated, so a `max_models`
/// budget is charged one unit per model returned.
pub fn models(
    db: &Database,
    closed: &Interpretation,
    cost: &mut Cost,
) -> Governed<Vec<Interpretation>> {
    ddb_obs::counter_bump("models.classical.enumerations", 1);
    enumerate_projected(&closed_world(db, closed).finish(), db.num_atoms(), cost)
}

/// Every model of `cnf` projected onto its first `project_to` variables,
/// sorted. Billed from the enumeration solver's own statistics, so the
/// bill is exactly the SAT calls made, also when a budget trips.
pub fn enumerate_projected(
    cnf: &Cnf,
    project_to: usize,
    cost: &mut Cost,
) -> Governed<Vec<Interpretation>> {
    let mut solver = Solver::from_cnf(cnf);
    let mut out = Vec::new();
    let result = enumerate_models(&mut solver, project_to, |m| {
        out.push(m.clone());
        true
    });
    cost.absorb(&solver);
    result?;
    out.sort();
    Ok(out)
}

pub(crate) fn project(m: &Interpretation, n: usize) -> Interpretation {
    let mut out = Interpretation::empty(n);
    for a in m.iter() {
        if a.index() < n {
            out.insert(a);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddb_logic::parse::parse_formula;
    use ddb_logic::parse::parse_program;

    #[test]
    fn some_model_of_disjunction() {
        let db = parse_program("a | b.").unwrap();
        let mut cost = Cost::new();
        let m = some_model(&db, &mut cost).unwrap().expect("satisfiable");
        assert!(db.satisfied_by(&m));
        assert!(cost.sat_calls >= 1);
    }

    #[test]
    fn unsat_database() {
        let db = parse_program("a. :- a.").unwrap();
        let mut cost = Cost::new();
        assert!(!is_satisfiable(&db, &mut cost).unwrap());
    }

    #[test]
    fn entailment() {
        let db = parse_program("a | b. :- a.").unwrap();
        let none = Interpretation::empty(db.num_atoms());
        let mut cost = Cost::new();
        let f = parse_formula("b", db.symbols()).unwrap();
        assert_eq!(countermodel(&db, &none, &f, &mut cost).unwrap(), None);
        let g = parse_formula("a", db.symbols()).unwrap();
        let m = countermodel(&db, &none, &g, &mut cost).unwrap().unwrap();
        assert!(db.satisfied_by(&m) && !g.eval(&m));
    }

    #[test]
    fn entailment_with_units() {
        // a ∨ b, c ← a: closing a forces b and leaves c free.
        let db = parse_program("a | b. c :- a.").unwrap();
        let syms = db.symbols();
        let closed = Interpretation::from_atoms(3, [syms.lookup("a").unwrap()]);
        let none = Interpretation::empty(3);
        let f = parse_formula("b", syms).unwrap();
        let mut cost = Cost::new();
        assert!(countermodel(&db, &none, &f, &mut cost).unwrap().is_some());
        assert_eq!(countermodel(&db, &closed, &f, &mut cost).unwrap(), None);
        let g = parse_formula("!c", syms).unwrap();
        let m = countermodel(&db, &closed, &g, &mut cost).unwrap().unwrap();
        assert!(!m.contains(syms.lookup("a").unwrap()) && !g.eval(&m));
    }

    #[test]
    fn all_models_of_small_db() {
        let db = parse_program("a | b. :- a, b.").unwrap();
        let mut cost = Cost::new();
        let all = models(&db, &Interpretation::empty(2), &mut cost).unwrap();
        assert_eq!(all.len(), 2); // {a}, {b}
        for m in &all {
            assert!(db.satisfied_by(m));
            assert_eq!(m.count(), 1);
        }
        let a = db.symbols().lookup("a").unwrap();
        let closed = Interpretation::from_atoms(2, [a]);
        let closed_world = models(&db, &closed, &mut cost).unwrap();
        assert_eq!(closed_world.len(), 1); // {b}
        assert!(!closed_world[0].contains(a));
    }

    #[test]
    fn inconsistent_entails_everything() {
        let db = parse_program("a. :- a.").unwrap();
        let f = parse_formula("false", db.symbols()).unwrap();
        let mut cost = Cost::new();
        assert_eq!(
            countermodel(&db, &Interpretation::empty(1), &f, &mut cost).unwrap(),
            None
        );
    }

    #[test]
    fn oracle_budget_interrupts_model_search() {
        let db = parse_program("a | b. b | c.").unwrap();
        let mut cost = Cost::new();
        let _g = ddb_obs::Budget::unlimited()
            .with_max_oracle_calls(0)
            .install();
        assert!(some_model(&db, &mut cost).is_err());
    }
}
