//! Oracle-cost accounting.

use ddb_sat::Solver;

/// Accounting record for the oracle usage of a decision procedure.
///
/// The paper's upper bounds are statements about *how many* oracle calls a
/// polynomial-time procedure needs (e.g. `P^{Σᵖ₂}[O(log n)]` = logarithmically
/// many Σᵖ₂-oracle calls). Every procedure in this workspace threads a
/// `Cost` through and bumps:
///
/// * [`Cost::sat_calls`] — invocations of the NP oracle (one CDCL `solve`);
/// * [`Cost::candidates`] — rounds of the minimal-model walk
///   ([`crate::walk`]), which every CEGAR query, minimal-model enumeration
///   and subset-of-`MM` semantics runs (a proxy for Σᵖ₂-oracle
///   invocations: each round is one guess-and-check);
/// * conflict/decision/propagation totals aggregated from the solvers.
#[derive(Clone, Copy, Debug, Default)]
pub struct Cost {
    /// NP-oracle (SAT solver) invocations.
    pub sat_calls: u64,
    /// Rounds of the minimal-model walk (candidate models examined).
    pub candidates: u64,
    /// Aggregated SAT decisions.
    pub decisions: u64,
    /// Aggregated SAT conflicts.
    pub conflicts: u64,
    /// Aggregated SAT propagations.
    pub propagations: u64,
    /// High-water mark of clauses resident in any absorbed solver — a
    /// gauge (merged via `max`, not summed).
    pub peak_clauses: u64,
}

impl Cost {
    /// A fresh zeroed cost record.
    pub fn new() -> Self {
        Self::default()
    }

    /// Absorbs the statistics of a finished solver.
    pub fn absorb(&mut self, solver: &Solver) {
        let s = solver.stats();
        self.sat_calls += s.solves;
        self.decisions += s.decisions;
        self.conflicts += s.conflicts;
        self.propagations += s.propagations;
        self.peak_clauses = self.peak_clauses.max(s.max_clauses);
    }

    /// Adds another cost record into this one.
    pub fn merge(&mut self, other: &Cost) {
        self.sat_calls += other.sat_calls;
        self.candidates += other.candidates;
        self.decisions += other.decisions;
        self.conflicts += other.conflicts;
        self.propagations += other.propagations;
        self.peak_clauses = self.peak_clauses.max(other.peak_clauses);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_and_merge() {
        let mut solver = Solver::new();
        solver.ensure_vars(1);
        solver.solve().unwrap();
        solver.solve().unwrap();
        let mut c = Cost::new();
        c.absorb(&solver);
        assert_eq!(c.sat_calls, 2);
        let mut d = Cost::new();
        d.candidates = 3;
        d.merge(&c);
        assert_eq!(d.sat_calls, 2);
        assert_eq!(d.candidates, 3);
    }
}
