//! Quantified Boolean formulas with one quantifier alternation.
//!
//! `∀X∃Y φ` (CNF matrix) validity is the canonical Πᵖ₂-complete problem;
//! its complement `∃X∀Y ¬φ` (DNF matrix) is Σᵖ₂-complete. The reductions
//! in this crate consume these forms, and the evaluators here provide the
//! ground truth the reduction tests compare against.

use ddb_logic::{Atom, Literal};
use ddb_sat::Solver;

/// A literal over QBF variables: variable index + sign.
pub type QLit = (u32, bool);

/// A two-level QBF `∀x₁…xₙ ∃y₁…yₘ φ` with `φ` in CNF.
///
/// Universal variables are `0..num_universal`, existential variables
/// `num_universal..num_universal+num_existential`. Clause literals are
/// `(var, positive)` pairs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ForallExistsCnf {
    /// Number of universally quantified variables (`|X|`).
    pub num_universal: u32,
    /// Number of existentially quantified variables (`|Y|`).
    pub num_existential: u32,
    /// CNF clauses of the matrix.
    pub clauses: Vec<Vec<QLit>>,
}

impl ForallExistsCnf {
    /// Total variable count.
    pub fn num_vars(&self) -> u32 {
        self.num_universal + self.num_existential
    }

    /// Evaluates the matrix under a full assignment (bit `i` of `bits` =
    /// value of variable `i`).
    fn matrix(&self, bits: u64) -> bool {
        self.clauses
            .iter()
            .all(|c| c.iter().any(|&(v, s)| (bits >> v & 1 == 1) == s))
    }

    /// Brute-force validity check (≤ 2^(|X|+|Y|) matrix evaluations —
    /// test-sized).
    pub fn valid_brute(&self) -> bool {
        let (nx, ny) = (self.num_universal, self.num_existential);
        assert!(nx + ny <= 24, "brute evaluation is test-sized");
        (0u64..1 << nx)
            .all(|x_bits| (0u64..1 << ny).any(|y_bits| self.matrix(x_bits | (y_bits << nx))))
    }

    /// Oracle-style evaluation: enumerate universal assignments, decide
    /// each `∃Y φ(σ,Y)` with one SAT-oracle call. Exponential only in
    /// `|X|` — the structure of the Πᵖ₂ upper bound.
    pub fn valid_oracle(&self) -> bool {
        let nx = self.num_universal;
        assert!(nx <= 24, "universal enumeration is test-sized");
        let mut solver = Solver::new();
        solver.ensure_vars(self.num_vars() as usize);
        for clause in &self.clauses {
            let lits: Vec<Literal> = clause
                .iter()
                .map(|&(v, s)| Literal::with_sign(Atom::new(v), s))
                .collect();
            if !solver.add_clause(&lits) {
                return false; // matrix unsatisfiable outright
            }
        }
        (0u64..1 << nx).all(|x_bits| {
            let assumptions: Vec<Literal> = (0..nx)
                .map(|v| Literal::with_sign(Atom::new(v), x_bits >> v & 1 == 1))
                .collect();
            solver
                .solve_with_assumptions(&assumptions)
                .expect("reference oracle runs unbudgeted")
                .is_sat()
        })
    }

    /// The complementary Σᵖ₂ formula `∃X∀Y ¬φ` with DNF matrix.
    pub fn complement(&self) -> ExistsForallDnf {
        ExistsForallDnf {
            num_existential_outer: self.num_universal,
            num_universal_inner: self.num_existential,
            terms: self
                .clauses
                .iter()
                .map(|c| c.iter().map(|&(v, s)| (v, !s)).collect())
                .collect(),
        }
    }
}

/// A two-level QBF `∃x₁…xₙ ∀y₁…yₘ ψ` with `ψ` in DNF (terms are
/// conjunctions of literals). Truth of this form is Σᵖ₂-complete.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExistsForallDnf {
    /// Number of outer existential variables.
    pub num_existential_outer: u32,
    /// Number of inner universal variables.
    pub num_universal_inner: u32,
    /// DNF terms of the matrix.
    pub terms: Vec<Vec<QLit>>,
}

impl ExistsForallDnf {
    /// Total variable count.
    pub fn num_vars(&self) -> u32 {
        self.num_existential_outer + self.num_universal_inner
    }

    fn matrix(&self, bits: u64) -> bool {
        self.terms
            .iter()
            .any(|t| t.iter().all(|&(v, s)| (bits >> v & 1 == 1) == s))
    }

    /// Brute-force truth check (test-sized).
    pub fn true_brute(&self) -> bool {
        let (nx, ny) = (self.num_existential_outer, self.num_universal_inner);
        assert!(nx + ny <= 24, "brute evaluation is test-sized");
        (0u64..1 << nx)
            .any(|x_bits| (0u64..1 << ny).all(|y_bits| self.matrix(x_bits | (y_bits << nx))))
    }
}

/// Deterministic pseudo-random generator of `∀∃`-CNF instances, for
/// reduction validation and hard benchmark families.
pub fn random_forall_exists(
    num_universal: u32,
    num_existential: u32,
    num_clauses: usize,
    clause_width: usize,
    seed: u64,
) -> ForallExistsCnf {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).max(1);
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let n = num_universal + num_existential;
    let clauses = (0..num_clauses)
        .map(|_| {
            (0..clause_width)
                .map(|_| ((next() % n as u64) as u32, next() % 2 == 0))
                .collect()
        })
        .collect();
    ForallExistsCnf {
        num_universal,
        num_existential,
        clauses,
    }
}

/// The *parity family*: `∀x₁…xₙ ∃y₁…yₙ φ` where `φ` forces
/// `yᵢ ↔ x₁ ⊕ … ⊕ xᵢ` (prefix parities). Valid by construction, and the
/// witness `Y` differs for every `X` — the worst case for
/// counterexample-guided procedures, which must refute one
/// assignment-signature at a time. This is the scaling family behind the
/// Πᵖ₂ lower-bound rows of the `tables` report.
pub fn parity_family(n: u32) -> ForallExistsCnf {
    assert!(n >= 1);
    let x = |i: u32| i; // universal variables 0..n
    let y = |i: u32| n + i; // existential variables n..2n
    let mut clauses: Vec<Vec<QLit>> = Vec::new();
    // y₀ ↔ x₀.
    clauses.push(vec![(y(0), false), (x(0), true)]);
    clauses.push(vec![(y(0), true), (x(0), false)]);
    for i in 1..n {
        // yᵢ ↔ yᵢ₋₁ ⊕ xᵢ  (4 clauses).
        clauses.push(vec![(y(i), false), (y(i - 1), true), (x(i), true)]);
        clauses.push(vec![(y(i), false), (y(i - 1), false), (x(i), false)]);
        clauses.push(vec![(y(i), true), (y(i - 1), true), (x(i), false)]);
        clauses.push(vec![(y(i), true), (y(i - 1), false), (x(i), true)]);
    }
    ForallExistsCnf {
        num_universal: n,
        num_existential: n,
        clauses,
    }
}

/// The invalid twin of [`parity_family`]: additionally demands `yₙ` be
/// true, which fails for every even-parity `X` — a family where the
/// Σᵖ₂ witness search succeeds (half the `X` space are countermodels).
pub fn parity_family_invalid(n: u32) -> ForallExistsCnf {
    let mut q = parity_family(n);
    q.clauses.push(vec![(2 * n - 1, true)]);
    q
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tautological_matrix_is_valid() {
        // ∀x ∃y (x ∨ y) ∧ (¬x ∨ ¬y): pick y = ¬x.
        let q = ForallExistsCnf {
            num_universal: 1,
            num_existential: 1,
            clauses: vec![vec![(0, true), (1, true)], vec![(0, false), (1, false)]],
        };
        assert!(q.valid_brute());
        assert!(q.valid_oracle());
    }

    #[test]
    fn contradictory_matrix_invalid() {
        // ∀x ∃y (x) — fails for x = false.
        let q = ForallExistsCnf {
            num_universal: 1,
            num_existential: 1,
            clauses: vec![vec![(0, true)]],
        };
        assert!(!q.valid_brute());
        assert!(!q.valid_oracle());
    }

    #[test]
    fn no_universals_is_sat() {
        // ∃y (y) — satisfiable.
        let q = ForallExistsCnf {
            num_universal: 0,
            num_existential: 1,
            clauses: vec![vec![(0, true)]],
        };
        assert!(q.valid_brute() && q.valid_oracle());
    }

    #[test]
    fn no_existentials_is_validity() {
        // ∀x (x ∨ ¬x) valid; ∀x (x) invalid.
        let valid = ForallExistsCnf {
            num_universal: 1,
            num_existential: 0,
            clauses: vec![vec![(0, true), (0, false)]],
        };
        assert!(valid.valid_brute() && valid.valid_oracle());
        let invalid = ForallExistsCnf {
            num_universal: 1,
            num_existential: 0,
            clauses: vec![vec![(0, true)]],
        };
        assert!(!invalid.valid_brute() && !invalid.valid_oracle());
    }

    #[test]
    fn oracle_matches_brute_on_random_instances() {
        for seed in 0..200 {
            let q = random_forall_exists(3, 3, 6, 3, seed);
            assert_eq!(q.valid_brute(), q.valid_oracle(), "seed {seed}");
        }
    }

    #[test]
    fn complement_flips_answer() {
        for seed in 0..100 {
            let q = random_forall_exists(3, 2, 5, 3, seed);
            assert_eq!(q.valid_brute(), !q.complement().true_brute(), "seed {seed}");
        }
    }

    #[test]
    fn parity_family_is_valid() {
        for n in 1..=4 {
            assert!(parity_family(n).valid_brute(), "n={n}");
            assert!(parity_family(n).valid_oracle(), "n={n}");
        }
    }

    #[test]
    fn parity_family_invalid_is_invalid() {
        for n in 1..=4 {
            assert!(!parity_family_invalid(n).valid_brute(), "n={n}");
        }
    }

    #[test]
    fn empty_clause_never_valid_with_universals() {
        let q = ForallExistsCnf {
            num_universal: 1,
            num_existential: 1,
            clauses: vec![vec![]],
        };
        assert!(!q.valid_brute());
        assert!(!q.valid_oracle());
    }
}
