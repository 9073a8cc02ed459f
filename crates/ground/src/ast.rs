//! Non-ground abstract syntax.

use std::collections::BTreeSet;
use std::fmt;

/// A term: a constant (lowercase identifier) or a variable (uppercase).
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Term {
    /// A constant symbol.
    Const(String),
    /// A variable.
    Var(String),
}

impl Term {
    /// Whether the term is a variable.
    pub fn is_var(&self) -> bool {
        matches!(self, Term::Var(_))
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Const(c) => f.write_str(c),
            Term::Var(v) => f.write_str(v),
        }
    }
}

/// A predicate atom `p(t₁, …, tₖ)` (`k = 0` allowed: plain propositions).
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct PredAtom {
    /// Predicate name.
    pub pred: String,
    /// Argument terms.
    pub args: Vec<Term>,
}

impl PredAtom {
    /// Whether the atom contains no variables.
    pub fn is_ground(&self) -> bool {
        self.args.iter().all(|t| !t.is_var())
    }

    /// Collects the variable names into `out`.
    pub fn collect_vars(&self, out: &mut BTreeSet<String>) {
        for t in &self.args {
            if let Term::Var(v) = t {
                out.insert(v.clone());
            }
        }
    }

    /// Renders a *ground* atom as its propositional name (`p(a,b)` or
    /// `p` for arity 0).
    ///
    /// # Panics
    /// Panics if the atom contains variables.
    pub fn ground_name(&self) -> String {
        assert!(self.is_ground(), "ground_name on non-ground atom {self}");
        let args: Vec<String> = self.args.iter().map(Term::to_string).collect();
        ground_atom_name(&self.pred, &args)
    }
}

/// The propositional name of the ground atom `pred(args…)`: `p(a,b)`, or
/// `p` for arity 0.
pub(crate) fn ground_atom_name<S: AsRef<str>>(pred: &str, args: &[S]) -> String {
    if args.is_empty() {
        return pred.to_owned();
    }
    let mut name = format!("{pred}(");
    for (i, arg) in args.iter().enumerate() {
        if i > 0 {
            name.push(',');
        }
        name.push_str(arg.as_ref());
    }
    name.push(')');
    name
}

impl fmt::Display for PredAtom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.pred)?;
        if !self.args.is_empty() {
            write!(f, "(")?;
            for (i, t) in self.args.iter().enumerate() {
                if i > 0 {
                    write!(f, ",")?;
                }
                write!(f, "{t}")?;
            }
            write!(f, ")")?;
        }
        Ok(())
    }
}

/// A non-ground disjunctive rule
/// `h₁ ∨ … ∨ hₙ ← b₁ ∧ … ∧ bₖ ∧ ¬c₁ ∧ … ∧ ¬cₘ`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DatalogRule {
    /// Head atoms (empty for constraints).
    pub head: Vec<PredAtom>,
    /// Positive body atoms.
    pub body_pos: Vec<PredAtom>,
    /// Negated body atoms.
    pub body_neg: Vec<PredAtom>,
    /// Disequality constraints `t ≠ u` (builtin, evaluated at grounding
    /// time; both sides must be bound by the positive body or constant).
    pub disequalities: Vec<(Term, Term)>,
}

impl DatalogRule {
    /// All variables occurring anywhere in the rule.
    pub fn variables(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        for a in self.head.iter().chain(&self.body_pos).chain(&self.body_neg) {
            a.collect_vars(&mut out);
        }
        for (l, r) in &self.disequalities {
            for t in [l, r] {
                if let Term::Var(v) = t {
                    out.insert(v.clone());
                }
            }
        }
        out
    }

    /// Variables occurring in the positive body.
    pub fn positive_body_variables(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        for a in &self.body_pos {
            a.collect_vars(&mut out);
        }
        out
    }

    /// Whether the rule is ground.
    pub fn is_ground(&self) -> bool {
        self.variables().is_empty()
    }
}

impl fmt::Display for DatalogRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, h) in self.head.iter().enumerate() {
            if i > 0 {
                write!(f, " | ")?;
            }
            write!(f, "{h}")?;
        }
        if !self.body_pos.is_empty() || !self.body_neg.is_empty() {
            if !self.head.is_empty() {
                write!(f, " ")?;
            }
            write!(f, ":- ")?;
            let mut first = true;
            for b in &self.body_pos {
                if !first {
                    write!(f, ", ")?;
                }
                first = false;
                write!(f, "{b}")?;
            }
            for c in &self.body_neg {
                if !first {
                    write!(f, ", ")?;
                }
                first = false;
                write!(f, "not {c}")?;
            }
            for (l, r) in &self.disequalities {
                if !first {
                    write!(f, ", ")?;
                }
                first = false;
                write!(f, "{l} != {r}")?;
            }
        }
        write!(f, ".")
    }
}

/// A non-ground disjunctive program.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct DatalogProgram {
    /// The rules, in source order.
    pub rules: Vec<DatalogRule>,
}

impl DatalogProgram {
    /// All constants occurring in the program (the Herbrand universe).
    pub fn constants(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        for rule in &self.rules {
            for atom in rule.head.iter().chain(&rule.body_pos).chain(&rule.body_neg) {
                for t in &atom.args {
                    if let Term::Const(c) = t {
                        out.insert(c.clone());
                    }
                }
            }
        }
        out
    }

    /// All predicate names with their arities. A predicate used with two
    /// different arities is reported as two entries.
    pub fn predicates(&self) -> BTreeSet<(String, usize)> {
        let mut out = BTreeSet::new();
        for rule in &self.rules {
            for atom in rule.head.iter().chain(&rule.body_pos).chain(&rule.body_neg) {
                out.insert((atom.pred.clone(), atom.args.len()));
            }
        }
        out
    }
}

impl fmt::Display for DatalogProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for rule in &self.rules {
            writeln!(f, "{rule}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn atom(pred: &str, args: &[Term]) -> PredAtom {
        PredAtom {
            pred: pred.into(),
            args: args.to_vec(),
        }
    }

    fn c(name: &str) -> Term {
        Term::Const(name.into())
    }

    fn v(name: &str) -> Term {
        Term::Var(name.into())
    }

    #[test]
    fn ground_names() {
        assert_eq!(atom("p", &[]).ground_name(), "p");
        assert_eq!(atom("edge", &[c("a"), c("b")]).ground_name(), "edge(a,b)");
    }

    #[test]
    #[should_panic(expected = "non-ground")]
    fn ground_name_rejects_vars() {
        let _ = atom("p", &[v("X")]).ground_name();
    }

    #[test]
    fn rule_variables() {
        let rule = DatalogRule {
            head: vec![atom("p", &[v("X")])],
            body_pos: vec![atom("q", &[v("X"), v("Y")])],
            body_neg: vec![atom("r", &[v("Z")])],
            disequalities: vec![],
        };
        let vars: Vec<String> = rule.variables().into_iter().collect();
        assert_eq!(vars, vec!["X", "Y", "Z"]);
        let pos: Vec<String> = rule.positive_body_variables().into_iter().collect();
        assert_eq!(pos, vec!["X", "Y"]);
    }

    #[test]
    fn program_constants_and_predicates() {
        let prog = DatalogProgram {
            rules: vec![
                DatalogRule {
                    head: vec![atom("edge", &[c("a"), c("b")])],
                    body_pos: vec![],
                    body_neg: vec![],
                    disequalities: vec![],
                },
                DatalogRule {
                    head: vec![atom("path", &[v("X"), v("Y")])],
                    body_pos: vec![atom("edge", &[v("X"), v("Y")])],
                    body_neg: vec![],
                    disequalities: vec![],
                },
            ],
        };
        assert_eq!(
            prog.constants().into_iter().collect::<Vec<_>>(),
            vec!["a", "b"]
        );
        assert_eq!(prog.predicates().len(), 2);
    }

    #[test]
    fn display_roundtrips_visually() {
        let rule = DatalogRule {
            head: vec![atom("p", &[v("X")]), atom("q", &[v("X")])],
            body_pos: vec![atom("r", &[v("X")])],
            body_neg: vec![atom("s", &[v("X")])],
            disequalities: vec![],
        };
        assert_eq!(rule.to_string(), "p(X) | q(X) :- r(X), not s(X).");
        let constraint = DatalogRule {
            head: vec![],
            body_pos: vec![atom("p", &[c("a")])],
            body_neg: vec![],
            disequalities: vec![],
        };
        assert_eq!(constraint.to_string(), ":- p(a).");
    }
}
