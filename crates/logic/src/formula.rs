//! Propositional formulas — the objects of the paper's *formula inference*
//! problem.

use crate::{Atom, Interpretation, Literal, PartialInterpretation, TruthValue};

/// A propositional formula over a vocabulary of atoms.
///
/// Built by the combinators below ([`Formula::and`], [`Formula::or`], …) or
/// parsed from text via [`crate::parse::parse_formula`]. Evaluation is
/// two-valued ([`Formula::eval`]) or three-valued ([`Formula::eval3`],
/// Kleene strong connectives, used for PDSM formula inference).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Formula {
    /// The constant ⊤.
    True,
    /// The constant ⊥.
    False,
    /// An atomic proposition.
    Atom(Atom),
    /// Negation.
    Not(Box<Formula>),
    /// N-ary conjunction (`And([])` is ⊤).
    And(Vec<Formula>),
    /// N-ary disjunction (`Or([])` is ⊥).
    Or(Vec<Formula>),
    /// Implication `lhs → rhs`.
    Implies(Box<Formula>, Box<Formula>),
    /// Equivalence `lhs ↔ rhs`.
    Iff(Box<Formula>, Box<Formula>),
}

impl Formula {
    /// The atomic formula for `atom`.
    pub fn atom(atom: Atom) -> Self {
        Formula::Atom(atom)
    }

    /// A literal: `atom` if `positive`, else `¬atom`.
    pub fn literal(atom: Atom, positive: bool) -> Self {
        if positive {
            Formula::Atom(atom)
        } else {
            Formula::Atom(atom).negated()
        }
    }

    /// The literal `self` is, if it is one: `a` or `¬a`. Callers plan
    /// such a formula as a literal query.
    pub fn as_literal(&self) -> Option<Literal> {
        match self {
            Formula::Atom(a) => Some(a.pos()),
            Formula::Not(g) => match **g {
                Formula::Atom(a) => Some(a.neg()),
                _ => None,
            },
            _ => None,
        }
    }

    /// Negation of `self`.
    pub fn negated(self) -> Self {
        Formula::Not(Box::new(self))
    }

    /// Conjunction of `parts`.
    pub fn and(parts: impl IntoIterator<Item = Formula>) -> Self {
        Formula::And(parts.into_iter().collect())
    }

    /// Disjunction of `parts`.
    pub fn or(parts: impl IntoIterator<Item = Formula>) -> Self {
        Formula::Or(parts.into_iter().collect())
    }

    /// Implication `self → rhs`.
    pub fn implies(self, rhs: Formula) -> Self {
        Formula::Implies(Box::new(self), Box::new(rhs))
    }

    /// Equivalence `self ↔ rhs`.
    pub fn iff(self, rhs: Formula) -> Self {
        Formula::Iff(Box::new(self), Box::new(rhs))
    }

    /// Two-valued evaluation under `m`.
    pub fn eval(&self, m: &Interpretation) -> bool {
        match self {
            Formula::True => true,
            Formula::False => false,
            Formula::Atom(a) => m.contains(*a),
            Formula::Not(f) => !f.eval(m),
            Formula::And(fs) => fs.iter().all(|f| f.eval(m)),
            Formula::Or(fs) => fs.iter().any(|f| f.eval(m)),
            Formula::Implies(l, r) => !l.eval(m) || r.eval(m),
            Formula::Iff(l, r) => l.eval(m) == r.eval(m),
        }
    }

    /// Three-valued (strong Kleene) evaluation under `p`. Implication is
    /// material (`¬l ∨ r`) and `Iff` is the conjunction of both material
    /// implications, matching the convention for formula inference under
    /// PDSM.
    pub fn eval3(&self, p: &PartialInterpretation) -> TruthValue {
        match self {
            Formula::True => TruthValue::True,
            Formula::False => TruthValue::False,
            Formula::Atom(a) => p.value(*a),
            Formula::Not(f) => f.eval3(p).not(),
            Formula::And(fs) => fs
                .iter()
                .map(|f| f.eval3(p))
                .fold(TruthValue::True, TruthValue::and),
            Formula::Or(fs) => fs
                .iter()
                .map(|f| f.eval3(p))
                .fold(TruthValue::False, TruthValue::or),
            Formula::Implies(l, r) => l.eval3(p).not().or(r.eval3(p)),
            Formula::Iff(l, r) => {
                let (lv, rv) = (l.eval3(p), r.eval3(p));
                lv.not().or(rv).and(rv.not().or(lv))
            }
        }
    }

    /// Replaces every atomic leaf by `sub(atom)`, leaving the connective
    /// structure untouched — the substitution primitive behind query-slice
    /// renaming (atom ↦ renamed atom) and splitting-set partial evaluation
    /// (decided atom ↦ ⊤/⊥).
    pub fn map_atoms(&self, sub: &mut impl FnMut(Atom) -> Formula) -> Formula {
        match self {
            Formula::True => Formula::True,
            Formula::False => Formula::False,
            Formula::Atom(a) => sub(*a),
            Formula::Not(f) => f.map_atoms(sub).negated(),
            Formula::And(fs) => Formula::And(fs.iter().map(|f| f.map_atoms(sub)).collect()),
            Formula::Or(fs) => Formula::Or(fs.iter().map(|f| f.map_atoms(sub)).collect()),
            Formula::Implies(l, r) => l.map_atoms(sub).implies(r.map_atoms(sub)),
            Formula::Iff(l, r) => l.map_atoms(sub).iff(r.map_atoms(sub)),
        }
    }

    /// Collects the atoms occurring in the formula into `out` (deduplicated
    /// by the caller if needed).
    pub fn collect_atoms(&self, out: &mut Vec<Atom>) {
        match self {
            Formula::True | Formula::False => {}
            Formula::Atom(a) => out.push(*a),
            Formula::Not(f) => f.collect_atoms(out),
            Formula::And(fs) | Formula::Or(fs) => {
                for f in fs {
                    f.collect_atoms(out);
                }
            }
            Formula::Implies(l, r) | Formula::Iff(l, r) => {
                l.collect_atoms(out);
                r.collect_atoms(out);
            }
        }
    }

    /// The set of distinct atoms occurring in the formula, sorted.
    pub fn atoms(&self) -> Vec<Atom> {
        let mut v = Vec::new();
        self.collect_atoms(&mut v);
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Structural size (number of AST nodes) — used for workload reporting.
    pub fn size(&self) -> usize {
        match self {
            Formula::True | Formula::False | Formula::Atom(_) => 1,
            Formula::Not(f) => 1 + f.size(),
            Formula::And(fs) | Formula::Or(fs) => 1 + fs.iter().map(Formula::size).sum::<usize>(),
            Formula::Implies(l, r) | Formula::Iff(l, r) => 1 + l.size() + r.size(),
        }
    }

    /// Negation normal form: pushes negations to the atoms and eliminates
    /// `Implies`/`Iff`. The result contains only `And`, `Or`, literals and
    /// constants.
    pub fn to_nnf(&self) -> Formula {
        self.nnf(false)
    }

    /// Semantic-preserving simplification: constant folding
    /// (`⊤ ∧ F ↦ F`, `⊥ ∨ F ↦ F`, short-circuits), double-negation
    /// elimination, flattening of nested `And`/`Or`, and collapsing of
    /// single-element connectives. Linear in the formula size; the result
    /// never contains `True`/`False` except as the whole formula.
    pub fn simplify(&self) -> Formula {
        match self {
            Formula::True | Formula::False | Formula::Atom(_) => self.clone(),
            Formula::Not(g) => match g.simplify() {
                Formula::True => Formula::False,
                Formula::False => Formula::True,
                Formula::Not(inner) => *inner,
                other => other.negated(),
            },
            Formula::And(fs) => {
                let mut parts = Vec::new();
                for g in fs {
                    match g.simplify() {
                        Formula::True => {}
                        Formula::False => return Formula::False,
                        Formula::And(inner) => parts.extend(inner),
                        other => parts.push(other),
                    }
                }
                match parts.len() {
                    0 => Formula::True,
                    1 => parts.pop().expect("one element"),
                    _ => Formula::And(parts),
                }
            }
            Formula::Or(fs) => {
                let mut parts = Vec::new();
                for g in fs {
                    match g.simplify() {
                        Formula::False => {}
                        Formula::True => return Formula::True,
                        Formula::Or(inner) => parts.extend(inner),
                        other => parts.push(other),
                    }
                }
                match parts.len() {
                    0 => Formula::False,
                    1 => parts.pop().expect("one element"),
                    _ => Formula::Or(parts),
                }
            }
            Formula::Implies(l, r) => match (l.simplify(), r.simplify()) {
                (Formula::False, _) | (_, Formula::True) => Formula::True,
                (Formula::True, rr) => rr,
                (ll, Formula::False) => Formula::Not(Box::new(ll)).simplify(),
                (ll, rr) => ll.implies(rr),
            },
            Formula::Iff(l, r) => match (l.simplify(), r.simplify()) {
                (Formula::True, g) | (g, Formula::True) => g,
                (Formula::False, g) | (g, Formula::False) => Formula::Not(Box::new(g)).simplify(),
                (ll, rr) => ll.iff(rr),
            },
        }
    }

    fn nnf(&self, negate: bool) -> Formula {
        match (self, negate) {
            (Formula::True, false) | (Formula::False, true) => Formula::True,
            (Formula::True, true) | (Formula::False, false) => Formula::False,
            (Formula::Atom(a), false) => Formula::Atom(*a),
            (Formula::Atom(a), true) => Formula::Atom(*a).negated(),
            (Formula::Not(f), n) => f.nnf(!n),
            (Formula::And(fs), false) => Formula::And(fs.iter().map(|f| f.nnf(false)).collect()),
            (Formula::And(fs), true) => Formula::Or(fs.iter().map(|f| f.nnf(true)).collect()),
            (Formula::Or(fs), false) => Formula::Or(fs.iter().map(|f| f.nnf(false)).collect()),
            (Formula::Or(fs), true) => Formula::And(fs.iter().map(|f| f.nnf(true)).collect()),
            (Formula::Implies(l, r), false) => Formula::Or(vec![l.nnf(true), r.nnf(false)]),
            (Formula::Implies(l, r), true) => Formula::And(vec![l.nnf(false), r.nnf(true)]),
            (Formula::Iff(l, r), false) => Formula::And(vec![
                Formula::Or(vec![l.nnf(true), r.nnf(false)]),
                Formula::Or(vec![r.nnf(true), l.nnf(false)]),
            ]),
            (Formula::Iff(l, r), true) => Formula::Or(vec![
                Formula::And(vec![l.nnf(false), r.nnf(true)]),
                Formula::And(vec![r.nnf(false), l.nnf(true)]),
            ]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(i: u32) -> Atom {
        Atom::new(i)
    }

    fn m(n: usize, atoms: &[u32]) -> Interpretation {
        Interpretation::from_atoms(n, atoms.iter().map(|&i| Atom::new(i)))
    }

    #[test]
    fn eval_connectives() {
        let f = Formula::atom(a(0)).implies(Formula::or([
            Formula::atom(a(1)),
            Formula::atom(a(2)).negated(),
        ]));
        assert!(f.eval(&m(3, &[]))); // antecedent false
        assert!(f.eval(&m(3, &[0, 1])));
        assert!(f.eval(&m(3, &[0]))); // ¬x2 true
        assert!(!f.eval(&m(3, &[0, 2])));
    }

    #[test]
    fn iff_eval() {
        let f = Formula::atom(a(0)).iff(Formula::atom(a(1)));
        assert!(f.eval(&m(2, &[])));
        assert!(f.eval(&m(2, &[0, 1])));
        assert!(!f.eval(&m(2, &[0])));
    }

    #[test]
    fn empty_and_or() {
        let e = Interpretation::empty(0);
        assert!(Formula::and([]).eval(&e));
        assert!(!Formula::or([]).eval(&e));
    }

    #[test]
    fn map_atoms_substitutes_leaves() {
        let f = Formula::atom(a(0)).implies(Formula::or([
            Formula::atom(a(1)).negated(),
            Formula::atom(a(0)),
        ]));
        let g = f.map_atoms(&mut |x| {
            if x == a(0) {
                Formula::True
            } else {
                Formula::atom(x)
            }
        });
        // a₀ ↦ ⊤: ⊤ → (¬a₁ ∨ ⊤) ≡ ⊤.
        assert_eq!(g.simplify(), Formula::True);
        // Identity substitution is structural identity.
        assert_eq!(f.map_atoms(&mut Formula::atom), f);
    }

    #[test]
    fn atoms_sorted_dedup() {
        let f = Formula::and([
            Formula::atom(a(3)),
            Formula::atom(a(1)).negated(),
            Formula::atom(a(3)),
        ]);
        assert_eq!(f.atoms(), vec![a(1), a(3)]);
    }

    #[test]
    fn nnf_preserves_semantics_exhaustively() {
        // Check NNF equivalence over all models for a formula with every
        // connective.
        let f = Formula::Iff(
            Box::new(Formula::atom(a(0)).implies(Formula::atom(a(1)))),
            Box::new(Formula::and([
                Formula::atom(a(2)),
                Formula::or([Formula::atom(a(0)).negated(), Formula::atom(a(1))]),
            ])),
        )
        .negated();
        let g = f.to_nnf();
        for bits in 0u32..8 {
            let model =
                Interpretation::from_atoms(3, (0..3).filter(|&i| bits >> i & 1 == 1).map(a));
            assert_eq!(f.eval(&model), g.eval(&model), "model {model:?}");
        }
        // NNF has no Implies/Iff/non-atomic Not.
        fn check_nnf(f: &Formula) {
            match f {
                Formula::Implies(..) | Formula::Iff(..) => panic!("not NNF"),
                Formula::Not(inner) => assert!(matches!(**inner, Formula::Atom(_))),
                Formula::And(fs) | Formula::Or(fs) => fs.iter().for_each(check_nnf),
                _ => {}
            }
        }
        check_nnf(&g);
    }

    #[test]
    fn as_literal_recognizes_exactly_literals() {
        let a = Atom::new(0);
        assert_eq!(Formula::literal(a, true).as_literal(), Some(a.pos()));
        assert_eq!(Formula::literal(a, false).as_literal(), Some(a.neg()));
        assert_eq!(Formula::atom(a).negated().negated().as_literal(), None);
        assert_eq!(Formula::and([Formula::atom(a)]).as_literal(), None);
        assert_eq!(Formula::True.as_literal(), None);
    }

    #[test]
    fn simplify_constant_folding() {
        // ⊤ ∧ (a ∨ ⊥) simplifies to a.
        let f = Formula::and([
            Formula::True,
            Formula::or([Formula::atom(a(0)), Formula::False]),
        ]);
        assert_eq!(f.simplify(), Formula::atom(a(0)));
        // ⊥ → x is ⊤; x → ⊥ is ¬x.
        assert_eq!(
            Formula::False.implies(Formula::atom(a(0))).simplify(),
            Formula::True
        );
        assert_eq!(
            Formula::atom(a(0)).implies(Formula::False).simplify(),
            Formula::atom(a(0)).negated()
        );
        // ¬¬x is x; x ↔ ⊤ is x.
        assert_eq!(
            Formula::atom(a(0)).negated().negated().simplify(),
            Formula::atom(a(0))
        );
        assert_eq!(
            Formula::atom(a(0)).iff(Formula::True).simplify(),
            Formula::atom(a(0))
        );
    }

    #[test]
    fn simplify_flattens_nested_connectives() {
        let f = Formula::and([
            Formula::and([Formula::atom(a(0)), Formula::atom(a(1))]),
            Formula::atom(a(2)),
        ]);
        assert_eq!(
            f.simplify(),
            Formula::and([
                Formula::atom(a(0)),
                Formula::atom(a(1)),
                Formula::atom(a(2))
            ])
        );
    }

    #[test]
    fn simplify_preserves_semantics_exhaustively() {
        let candidates = [
            Formula::Iff(
                Box::new(Formula::and([Formula::True, Formula::atom(a(0))])),
                Box::new(Formula::or([Formula::False, Formula::atom(a(1)).negated()])),
            ),
            Formula::atom(a(0))
                .implies(Formula::and([Formula::atom(a(1)), Formula::False]))
                .negated(),
            Formula::or([
                Formula::and([]),
                Formula::atom(a(2)),
                Formula::or([Formula::atom(a(0)), Formula::atom(a(1))]),
            ]),
        ];
        for f in &candidates {
            let g = f.simplify();
            assert!(g.size() <= f.size());
            for bits in 0u32..8 {
                let m =
                    Interpretation::from_atoms(3, (0..3u32).filter(|&i| bits >> i & 1 == 1).map(a));
                assert_eq!(f.eval(&m), g.eval(&m), "{f:?} vs {g:?}");
            }
        }
    }

    #[test]
    fn eval3_matches_eval_on_total() {
        let f = Formula::Iff(
            Box::new(Formula::atom(a(0))),
            Box::new(Formula::atom(a(1)).implies(Formula::atom(a(2)).negated())),
        );
        for bits in 0u32..8 {
            let model =
                Interpretation::from_atoms(3, (0..3).filter(|&i| bits >> i & 1 == 1).map(a));
            let p = PartialInterpretation::from_total(&model);
            let expected = if f.eval(&model) {
                TruthValue::True
            } else {
                TruthValue::False
            };
            assert_eq!(f.eval3(&p), expected);
        }
    }

    #[test]
    fn eval3_undefined_propagation() {
        let mut p = PartialInterpretation::undefined(2);
        let f = Formula::or([Formula::atom(a(0)), Formula::atom(a(1))]);
        assert_eq!(f.eval3(&p), TruthValue::Undefined);
        p.set(a(0), TruthValue::True);
        assert_eq!(f.eval3(&p), TruthValue::True); // strong Kleene: 1 ∨ ½ = 1
    }
}
