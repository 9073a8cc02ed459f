//! Clausal form and the Tseitin transformation — the bridge from rules and
//! formulas to the SAT substrate.
//!
//! The central type is [`CnfBuilder`], which accumulates CNF clauses over an
//! extended vocabulary: the first `n` variables are the database's atoms,
//! and Tseitin definition variables are appended after them. The SAT crate
//! consumes the resulting [`Cnf`] directly.

use crate::{Atom, Database, Formula, Interpretation, Literal, Rule};

/// A CNF clause: a disjunction of literals.
pub type Clause = Vec<Literal>;

/// A CNF formula over `num_vars` variables (database atoms first, then any
/// auxiliary Tseitin variables).
#[derive(Clone, Debug, Default)]
pub struct Cnf {
    /// Total number of variables, including auxiliaries.
    pub num_vars: usize,
    /// The clauses.
    pub clauses: Vec<Clause>,
}

/// Incremental CNF construction with Tseitin support.
///
/// ```
/// use ddb_logic::{cnf::CnfBuilder, Atom, Formula};
/// let mut b = CnfBuilder::new(2);
/// let f = Formula::atom(Atom::new(0)).implies(Formula::atom(Atom::new(1)));
/// b.assert_formula(&f);
/// let cnf = b.finish();
/// assert_eq!(cnf.clauses, vec![vec![Atom::new(0).neg(), Atom::new(1).pos()]]);
/// ```
#[derive(Clone, Debug)]
pub struct CnfBuilder {
    num_vars: usize,
    clauses: Vec<Clause>,
}

impl CnfBuilder {
    /// Starts a builder whose first `num_atoms` variables are the database
    /// atoms.
    pub fn new(num_atoms: usize) -> Self {
        CnfBuilder {
            num_vars: num_atoms,
            clauses: Vec::new(),
        }
    }

    /// Current number of variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Allocates a fresh auxiliary variable.
    pub fn fresh_var(&mut self) -> Atom {
        let a = Atom::new(self.num_vars as u32);
        self.num_vars += 1;
        a
    }

    /// Adds a raw clause.
    pub fn add_clause(&mut self, clause: Clause) {
        debug_assert!(clause.iter().all(|l| l.atom().index() < self.num_vars));
        self.clauses.push(clause);
    }

    /// Adds a unit clause.
    pub fn assert_literal(&mut self, lit: Literal) {
        self.add_clause(vec![lit]);
    }

    /// Adds the clause corresponding to a database rule:
    /// `head ∨ ¬body⁺ ∨ body⁻`.
    pub fn add_rule(&mut self, rule: &Rule) {
        let clause: Clause = rule
            .head()
            .iter()
            .map(|&a| a.pos())
            .chain(rule.body_pos().iter().map(|&a| a.neg()))
            .chain(rule.body_neg().iter().map(|&a| a.pos()))
            .collect();
        self.add_clause(clause);
    }

    /// Adds all rules of `db`.
    pub fn add_database(&mut self, db: &Database) {
        for rule in db.rules() {
            self.add_rule(rule);
        }
    }

    /// Tseitin-encodes `f`, returning a literal `ℓ` such that the added
    /// clauses force `ℓ ↔ f` in every satisfying assignment.
    ///
    /// Auxiliary variables are introduced for compound subformulas;
    /// constants and literals are returned directly without auxiliaries.
    /// To force `f` itself, use [`CnfBuilder::assert_formula`].
    pub fn define_formula(&mut self, f: &Formula) -> Literal {
        match f {
            Formula::True => {
                // A fresh variable forced true.
                let v = self.fresh_var();
                self.assert_literal(v.pos());
                v.pos()
            }
            Formula::False => {
                let v = self.fresh_var();
                self.assert_literal(v.neg());
                v.pos()
            }
            Formula::Atom(a) => a.pos(),
            Formula::Not(g) => self.define_formula(g).complement(),
            Formula::And(fs) => {
                let lits: Vec<Literal> = fs.iter().map(|g| self.define_formula(g)).collect();
                if lits.len() == 1 {
                    return lits[0];
                }
                let v = self.fresh_var();
                // v → each lit ; (all lits) → v.
                for &l in &lits {
                    self.add_clause(vec![v.neg(), l]);
                }
                let mut back: Clause = lits.iter().map(|l| l.complement()).collect();
                back.push(v.pos());
                self.add_clause(back);
                v.pos()
            }
            Formula::Or(fs) => {
                let lits: Vec<Literal> = fs.iter().map(|g| self.define_formula(g)).collect();
                if lits.len() == 1 {
                    return lits[0];
                }
                let v = self.fresh_var();
                // each lit → v ; v → some lit.
                for &l in &lits {
                    self.add_clause(vec![l.complement(), v.pos()]);
                }
                let mut fwd: Clause = lits.clone();
                fwd.push(v.neg());
                self.add_clause(fwd);
                v.pos()
            }
            Formula::Implies(l, r) => {
                let f2 = Formula::Or(vec![(**l).clone().negated(), (**r).clone()]);
                self.define_formula(&f2)
            }
            Formula::Iff(l, r) => {
                let ll = self.define_formula(l);
                let rr = self.define_formula(r);
                let v = self.fresh_var();
                // v ↔ (ll ↔ rr)
                self.add_clause(vec![v.neg(), ll.complement(), rr]);
                self.add_clause(vec![v.neg(), ll, rr.complement()]);
                self.add_clause(vec![v.pos(), ll, rr]);
                self.add_clause(vec![v.pos(), ll.complement(), rr.complement()]);
                v.pos()
            }
        }
    }

    /// Asserts that `f` holds. Simple shapes (constants, literals, clauses,
    /// conjunctions of clauses) are encoded without auxiliary variables.
    pub fn assert_formula(&mut self, f: &Formula) {
        // Flatten ¬, →, ↔ first; then conjunctions become separate asserts
        // and disjunctions of literals become plain clauses.
        let nnf = f.to_nnf();
        self.assert_nnf(&nnf);
    }

    fn assert_nnf(&mut self, f: &Formula) {
        match f {
            Formula::True => {}
            Formula::False => self.add_clause(Vec::new()),
            Formula::Atom(a) => self.assert_literal(a.pos()),
            Formula::Not(g) => match **g {
                Formula::Atom(a) => self.assert_literal(a.neg()),
                _ => unreachable!("NNF negations are atomic"),
            },
            Formula::And(fs) => {
                for g in fs {
                    self.assert_nnf(g);
                }
            }
            Formula::Or(fs) => {
                // If all disjuncts are literals, emit one clause; otherwise
                // Tseitin the compound disjuncts.
                let mut clause = Vec::with_capacity(fs.len());
                for g in fs {
                    match g {
                        Formula::Atom(a) => clause.push(a.pos()),
                        Formula::Not(inner) => match **inner {
                            Formula::Atom(a) => clause.push(a.neg()),
                            _ => unreachable!("NNF negations are atomic"),
                        },
                        Formula::True => return, // trivially satisfied
                        Formula::False => {}
                        compound => clause.push(self.define_formula(compound)),
                    }
                }
                self.add_clause(clause);
            }
            Formula::Implies(..) | Formula::Iff(..) => {
                unreachable!("NNF contains no Implies/Iff")
            }
        }
    }

    /// Finishes, yielding the accumulated CNF.
    pub fn finish(self) -> Cnf {
        Cnf {
            num_vars: self.num_vars,
            clauses: self.clauses,
        }
    }
}

/// Extends a finished encoding: the builder keeps its variables (database
/// atoms and auxiliaries alike) and takes over its clauses.
impl From<Cnf> for CnfBuilder {
    fn from(cnf: Cnf) -> Self {
        CnfBuilder {
            num_vars: cnf.num_vars,
            clauses: cnf.clauses,
        }
    }
}

impl Cnf {
    /// Whether `m` (over at least `num_vars` variables) satisfies every
    /// clause. Used by tests and the brute-force reference engine.
    pub fn satisfied_by(&self, m: &Interpretation) -> bool {
        self.clauses
            .iter()
            .all(|c| c.iter().any(|&l| m.satisfies(l)))
    }
}

/// Converts a database directly to CNF (no auxiliary variables needed:
/// rules already are clauses).
pub fn database_to_cnf(db: &Database) -> Cnf {
    let mut b = CnfBuilder::new(db.num_atoms());
    b.add_database(db);
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PartialInterpretation;

    fn a(i: u32) -> Atom {
        Atom::new(i)
    }

    /// Exhaustively checks that the Tseitin encoding of `f` over `n` atoms
    /// is satisfiable-extendable exactly on the models of `f`.
    fn check_equisat(f: &Formula, n: usize) {
        let mut b = CnfBuilder::new(n);
        b.assert_formula(f);
        let cnf = b.finish();
        let aux = cnf.num_vars - n;
        for bits in 0u64..1 << n {
            let base: Vec<Atom> = (0..n)
                .filter(|&i| bits >> i & 1 == 1)
                .map(|i| a(i as u32))
                .collect();
            let expected = f.eval(&Interpretation::from_atoms(n, base.iter().copied()));
            // Does some extension to the aux vars satisfy the CNF?
            let mut any = false;
            for aux_bits in 0u64..1 << aux {
                let mut m = Interpretation::from_atoms(cnf.num_vars, base.iter().copied());
                for j in 0..aux {
                    if aux_bits >> j & 1 == 1 {
                        m.insert(a((n + j) as u32));
                    }
                }
                if cnf.satisfied_by(&m) {
                    any = true;
                    break;
                }
            }
            assert_eq!(any, expected, "bits {bits:b} of {f:?}");
        }
    }

    #[test]
    fn rule_to_clause() {
        let mut b = CnfBuilder::new(4);
        b.add_rule(&Rule::new([a(0), a(1)], [a(2)], [a(3)]));
        let cnf = b.finish();
        assert_eq!(
            cnf.clauses,
            vec![vec![a(0).pos(), a(1).pos(), a(2).neg(), a(3).pos()]]
        );
    }

    #[test]
    fn integrity_clause_to_clause() {
        let mut b = CnfBuilder::new(2);
        b.add_rule(&Rule::integrity([a(0)], [a(1)]));
        let cnf = b.finish();
        assert_eq!(cnf.clauses, vec![vec![a(0).neg(), a(1).pos()]]);
    }

    #[test]
    fn assert_clause_shape_has_no_aux() {
        let f = Formula::or([
            Formula::atom(a(0)),
            Formula::atom(a(1)).negated(),
            Formula::atom(a(2)),
        ]);
        let mut b = CnfBuilder::new(3);
        b.assert_formula(&f);
        let cnf = b.finish();
        assert_eq!(cnf.num_vars, 3);
        assert_eq!(cnf.clauses.len(), 1);
    }

    #[test]
    fn tseitin_equisat_implies() {
        check_equisat(&Formula::atom(a(0)).implies(Formula::atom(a(1))), 2);
    }

    #[test]
    fn tseitin_equisat_iff_nested() {
        let f = Formula::Iff(
            Box::new(Formula::and([Formula::atom(a(0)), Formula::atom(a(1))])),
            Box::new(Formula::or([
                Formula::atom(a(2)),
                Formula::atom(a(0)).negated(),
            ])),
        );
        check_equisat(&f, 3);
    }

    #[test]
    fn tseitin_equisat_negated_compound() {
        let f = Formula::and([
            Formula::or([Formula::atom(a(0)), Formula::atom(a(1))]),
            Formula::atom(a(2)),
        ])
        .negated();
        check_equisat(&f, 3);
    }

    #[test]
    fn tseitin_constants() {
        check_equisat(&Formula::True, 1);
        let f = Formula::or([Formula::False, Formula::atom(a(0))]);
        check_equisat(&f, 1);
    }

    #[test]
    fn assert_false_gives_empty_clause() {
        let mut b = CnfBuilder::new(0);
        b.assert_formula(&Formula::False);
        let cnf = b.finish();
        assert!(cnf.clauses.iter().any(Vec::is_empty));
    }

    #[test]
    fn database_to_cnf_models_match() {
        // a ∨ b ; ← a ∧ b — CNF models are exactly the DB models.
        let mut db = Database::with_fresh_atoms(2);
        db.add_rule(Rule::fact([a(0), a(1)]));
        db.add_rule(Rule::integrity([a(0), a(1)], []));
        let cnf = database_to_cnf(&db);
        for bits in 0u32..4 {
            let m = Interpretation::from_atoms(2, (0..2).filter(|&i| bits >> i & 1 == 1).map(a));
            assert_eq!(cnf.satisfied_by(&m), db.satisfied_by(&m));
        }
    }

    #[test]
    fn builder_from_cnf_extends_it() {
        let mut b = CnfBuilder::new(2);
        b.assert_formula(&Formula::atom(a(0)).iff(Formula::atom(a(1))));
        let cnf = b.finish();
        let mut ext = CnfBuilder::from(cnf.clone());
        assert_eq!(ext.num_vars(), cnf.num_vars);
        // Fresh variables continue after the auxiliaries, and the old
        // clauses come first, unchanged.
        assert_eq!(ext.fresh_var(), a(cnf.num_vars as u32));
        ext.assert_literal(a(0).pos());
        let out = ext.finish();
        assert_eq!(out.num_vars, cnf.num_vars + 1);
        assert_eq!(out.clauses[..cnf.clauses.len()], cnf.clauses[..]);
        assert_eq!(out.clauses.last(), Some(&vec![a(0).pos()]));
    }

    #[test]
    fn three_valued_not_used_here_but_consistent() {
        // Smoke test: rules as clauses agree with Formula encoding on totals.
        let rule = Rule::new([a(0)], [a(1)], [a(2)]);
        let as_formula = Formula::and([Formula::atom(a(1)), Formula::atom(a(2)).negated()])
            .implies(Formula::atom(a(0)));
        for bits in 0u32..8 {
            let m = Interpretation::from_atoms(3, (0..3).filter(|&i| bits >> i & 1 == 1).map(a));
            assert_eq!(rule.satisfied_by(&m), as_formula.eval(&m));
            let p = PartialInterpretation::from_total(&m);
            assert_eq!(rule.value3(&p), rule.satisfied_by(&m));
        }
    }
}
