//! Model enumeration with projection.

use crate::Solver;
use ddb_logic::cnf::Cnf;
use ddb_logic::{Atom, Interpretation, Literal};
use ddb_obs::budget::{self, Governed};

/// Enumerates the satisfying assignments of `solver`'s clauses, projected
/// onto the first `project_to` variables (the database atoms; Tseitin
/// auxiliaries are existentially quantified away).
///
/// Each distinct projection is reported exactly once, via blocking clauses
/// over the projected variables. The callback returns `true` to continue
/// enumeration, `false` to stop early. Returns the number of projections
/// reported. The caller owns the solver, so its [`crate::Stats`] are the
/// enumeration's exact oracle bill — also after an early stop, a blocking
/// clause that is already false at the root (no final UNSAT call), or a
/// budget trip.
///
/// Worst case the number of models is exponential — callers are the
/// Σᵖ₂/Πᵖ₂ procedures of `ddb-models`, which either bound enumeration or
/// accept the cost knowingly (that *is* the complexity result). The
/// installed [`ddb_obs::Budget`] (if any) is charged one model per
/// projection reported, so `max_models`/deadline budgets interrupt
/// runaway enumerations with a typed error instead of a hang.
pub fn enumerate_models(
    solver: &mut Solver,
    project_to: usize,
    mut on_model: impl FnMut(&Interpretation) -> bool,
) -> Governed<usize> {
    // Make sure the projection variables all exist even if no clause
    // mentions some of them.
    solver.ensure_vars(project_to);
    let mut count = 0usize;
    while solver.solve()?.is_sat() {
        let full = solver.model();
        let mut projected = Interpretation::empty(project_to);
        for v in 0..project_to {
            if full.contains(Atom::new(v as u32)) {
                projected.insert(Atom::new(v as u32));
            }
        }
        count += 1;
        ddb_obs::counter_bump("sat.enumerated_models", 1);
        budget::charge_model().map_err(|e| e.with_partial(format!("{count} model(s) found")))?;
        if !on_model(&projected) {
            break;
        }
        // Block this projection: at least one projected variable must flip.
        let blocking: Vec<Literal> = (0..project_to)
            .map(|v| {
                let a = Atom::new(v as u32);
                Literal::with_sign(a, !projected.contains(a))
            })
            .collect();
        if blocking.is_empty() || !solver.add_clause(&blocking) {
            break; // no projected vars, or blocking made the instance unsat
        }
    }
    Ok(count)
}

/// Collects all projected models into a vector (convenience for tests and
/// small-instance reference computations).
/// (kept public for reference engines and benches)
pub fn all_models(cnf: &Cnf, project_to: usize) -> Governed<Vec<Interpretation>> {
    let mut out = Vec::new();
    enumerate_models(&mut Solver::from_cnf(cnf), project_to, |m| {
        out.push(m.clone());
        true
    })?;
    out.sort();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddb_logic::cnf::CnfBuilder;

    fn lit(i: u32, pos: bool) -> Literal {
        Literal::with_sign(Atom::new(i), pos)
    }

    #[test]
    fn enumerates_all_models() {
        // a ∨ b over 2 vars: 3 models.
        let mut b = CnfBuilder::new(2);
        b.add_clause(vec![lit(0, true), lit(1, true)]);
        let models = all_models(&b.finish(), 2).unwrap();
        assert_eq!(models.len(), 3);
    }

    #[test]
    fn projection_dedups() {
        // (a ∨ b) with a free third variable, projected to 2 vars: still 3.
        let mut b = CnfBuilder::new(3);
        b.add_clause(vec![lit(0, true), lit(1, true)]);
        b.add_clause(vec![lit(2, true), lit(2, false)]); // mention var 2
        let models = all_models(&b.finish(), 2).unwrap();
        assert_eq!(models.len(), 3);
    }

    #[test]
    fn early_stop() {
        let mut b = CnfBuilder::new(3);
        b.add_clause(vec![lit(0, true), lit(1, true), lit(2, true)]);
        let mut seen = 0;
        let count = enumerate_models(&mut Solver::from_cnf(&b.finish()), 3, |_| {
            seen += 1;
            seen < 2
        })
        .unwrap();
        assert_eq!(count, 2);
    }

    #[test]
    fn unsat_enumerates_nothing() {
        let mut b = CnfBuilder::new(1);
        b.add_clause(vec![lit(0, true)]);
        b.add_clause(vec![lit(0, false)]);
        assert_eq!(all_models(&b.finish(), 1).unwrap().len(), 0);
    }

    #[test]
    fn solver_stats_bill_exactly_the_calls_made() {
        // `a` is forced at the root, so blocking its one model closes the
        // search with no final UNSAT call.
        let mut b = CnfBuilder::new(1);
        b.add_clause(vec![lit(0, true)]);
        let mut solver = Solver::from_cnf(&b.finish());
        assert_eq!(enumerate_models(&mut solver, 1, |_| true).unwrap(), 1);
        assert_eq!(solver.stats().solves, 1);
        // An early stop makes no further call either.
        let mut b = CnfBuilder::new(2);
        b.add_clause(vec![lit(0, true), lit(1, true)]);
        let mut solver = Solver::from_cnf(&b.finish());
        assert_eq!(enumerate_models(&mut solver, 2, |_| false).unwrap(), 1);
        assert_eq!(solver.stats().solves, 1);
    }

    #[test]
    fn zero_projection_reports_once() {
        // Satisfiable formula projected to zero variables: exactly one
        // (empty) projection.
        let mut b = CnfBuilder::new(1);
        b.add_clause(vec![lit(0, true)]);
        let n = enumerate_models(&mut Solver::from_cnf(&b.finish()), 0, |_| true).unwrap();
        assert_eq!(n, 1);
    }

    #[test]
    fn free_variables_in_projection_enumerated() {
        // CNF that never mentions var 1, projected to 2 vars: the free
        // variable doubles the projections.
        let mut b = CnfBuilder::new(2);
        b.add_clause(vec![lit(0, true)]);
        let models = all_models(&b.finish(), 2).unwrap();
        assert_eq!(models.len(), 2);
    }
}
