//! Disjunctive databases and their syntactic classification.

use crate::{Atom, Interpretation, Rule, Symbols};
use std::fmt;

/// The paper's syntactic classes of propositional disjunctive databases,
/// following the classification of Fernandez & Minker \[9\]:
///
/// * **Positive** — no negation *and* no integrity clauses (the class of
///   Table 1);
/// * **Deductive** (DDDB) — `DB ⊆ C⁺`: no negation, but integrity clauses
///   are allowed;
/// * **Stratified** (DSDB) — negation allowed, but stratifiable;
/// * **Normal** (DNDB) — arbitrary.
///
/// Classes are nested: `Positive ⊂ Deductive ⊂ Stratified ⊂ Normal`
/// (every positive database is trivially stratified). [`Database::class`]
/// returns the *most specific* class.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum DbClass {
    /// No negation, no integrity clauses (Table 1 databases).
    Positive,
    /// No negation; integrity clauses allowed (`DB ⊆ C⁺`).
    Deductive,
    /// Stratifiable w.r.t. negation.
    Stratified,
    /// Arbitrary (unstratifiable) normal database.
    Normal,
}

/// A propositional disjunctive database: a finite set of [`Rule`]s over a
/// vocabulary ([`Symbols`]).
///
/// The database owns its vocabulary. Atoms of rules must have been interned
/// in that vocabulary; [`Database::add_rule`] enforces this.
#[derive(Clone)]
pub struct Database {
    symbols: Symbols,
    rules: Vec<Rule>,
}

impl Database {
    /// Creates an empty database over `symbols`.
    pub fn new(symbols: Symbols) -> Self {
        Database {
            symbols,
            rules: Vec::new(),
        }
    }

    /// Creates an empty database over a fresh vocabulary `x0 … x{n-1}`.
    pub fn with_fresh_atoms(n: usize) -> Self {
        Self::new(Symbols::fresh(n))
    }

    /// Adds a rule.
    ///
    /// # Panics
    /// Panics if the rule mentions an atom outside the vocabulary.
    pub fn add_rule(&mut self, rule: Rule) {
        if let Some(max) = rule.max_atom() {
            assert!(
                max.index() < self.symbols.len(),
                "rule mentions atom {} outside vocabulary of size {}",
                max.index(),
                self.symbols.len()
            );
        }
        self.rules.push(rule);
    }

    /// The rules of the database.
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// Releases spare rule capacity (for databases kept long after they
    /// were built).
    pub fn shrink_to_fit(&mut self) {
        self.rules.shrink_to_fit();
    }

    /// The vocabulary.
    pub fn symbols(&self) -> &Symbols {
        &self.symbols
    }

    /// Mutable access to the vocabulary (for reductions that extend it).
    pub fn symbols_mut(&mut self) -> &mut Symbols {
        &mut self.symbols
    }

    /// `|V|` — the size of the vocabulary.
    pub fn num_atoms(&self) -> usize {
        self.symbols.len()
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Whether the database has no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Whether any rule uses negation.
    pub fn has_negation(&self) -> bool {
        self.rules.iter().any(|r| !r.is_positive())
    }

    /// Whether any rule is an integrity clause (empty head).
    pub fn has_integrity_clauses(&self) -> bool {
        self.rules.iter().any(|r| r.is_integrity())
    }

    /// Whether the database is positive in the sense of Table 1: no
    /// negation and no integrity clauses.
    pub fn is_positive(&self) -> bool {
        !self.has_negation() && !self.has_integrity_clauses()
    }

    /// Whether every rule is Horn.
    pub fn is_horn(&self) -> bool {
        self.rules.iter().all(|r| r.is_horn())
    }

    /// The most specific syntactic class of this database.
    pub fn class(&self) -> DbClass {
        if !self.has_negation() {
            if self.has_integrity_clauses() {
                DbClass::Deductive
            } else {
                DbClass::Positive
            }
        } else if self.stratification().is_some() {
            DbClass::Stratified
        } else {
            DbClass::Normal
        }
    }

    /// Whether `m ⊨ DB` (every rule satisfied).
    pub fn satisfied_by(&self, m: &Interpretation) -> bool {
        self.rules.iter().all(|r| r.satisfied_by(m))
    }

    /// The least set `S` of atoms containing every head atom of every
    /// non-integrity rule whose positive body lies inside `S`. Negative
    /// bodies are ignored. On a Horn database `S` is the least model; on a
    /// negation-free one it is the set of atoms occurring in `T_DB ↑ ω`
    /// (the DDR fixpoint); in general it over-approximates every atom any
    /// semantics can derive. Worklist propagation in `O(Σ rule sizes)`,
    /// independent of rule order.
    pub fn positive_closure(&self) -> Interpretation {
        let n = self.num_atoms();
        let mut closed = Interpretation::empty(n);
        // Per rule, the number of positive body atoms not yet in `closed`;
        // per atom, the rules whose positive body mentions it.
        let mut missing: Vec<usize> = self.rules.iter().map(|r| r.body_pos().len()).collect();
        let mut watchers: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (i, r) in self.rules.iter().enumerate() {
            for &b in r.body_pos() {
                watchers[b.index()].push(i as u32);
            }
        }
        let mut queue: Vec<Atom> = Vec::new();
        let fire = |i: usize, closed: &mut Interpretation, queue: &mut Vec<Atom>| {
            for &h in self.rules[i].head() {
                if !closed.contains(h) {
                    closed.insert(h);
                    queue.push(h);
                }
            }
        };
        for (i, &m) in missing.iter().enumerate() {
            if m == 0 {
                fire(i, &mut closed, &mut queue);
            }
        }
        while let Some(a) = queue.pop() {
            for i in std::mem::take(&mut watchers[a.index()]) {
                let i = i as usize;
                missing[i] -= 1;
                if missing[i] == 0 {
                    fire(i, &mut closed, &mut queue);
                }
            }
        }
        closed
    }

    /// Computes a stratification `⟨S₁, …, S_r⟩` of the vocabulary, if one
    /// exists.
    ///
    /// A stratification assigns each atom a stratum such that for every
    /// non-integrity rule `H ← B⁺ ∧ ¬B⁻`:
    ///
    /// * all atoms of `H` share one stratum `s`;
    /// * every atom of `B⁺` has stratum ≤ `s`;
    /// * every atom of `B⁻` has stratum < `s` (negation must not recurse).
    ///
    /// Integrity clauses impose no constraint (the usual convention —
    /// constraints only prune models). Returns the strata as consecutive
    /// groups of atoms, lowest first; atoms not occurring in any rule go to
    /// stratum 0. Returns `None` iff the database is unstratifiable.
    ///
    /// This is a thin delegate to the canonical implementation in
    /// [`crate::depgraph`]: the dependency graph with weak (≤) and strict
    /// (<) edges is contracted to strongly connected components, the
    /// database is unstratifiable iff a strict edge lies inside a
    /// component, and stratum numbers are longest strict-edge counts over
    /// the condensation.
    pub fn stratification(&self) -> Option<Vec<Vec<Atom>>> {
        crate::depgraph::stratification(self)
    }

    /// Splits the database along a stratification: `layers[i]` contains the
    /// rules whose head belongs to stratum `i` (`DBᵢ` in the paper's ICWA
    /// machinery). Integrity clauses are placed in the stratum of their
    /// highest body atom. Delegates to [`crate::depgraph::layers`].
    pub fn layers(&self, strata: &[Vec<Atom>]) -> Vec<Vec<Rule>> {
        crate::depgraph::layers(self, strata)
    }
}

impl fmt::Debug for Database {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Database({} atoms, {} rules):",
            self.num_atoms(),
            self.len()
        )?;
        for r in &self.rules {
            writeln!(f, "  {}", crate::parse::display_rule(r, &self.symbols))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db(n: usize, rules: Vec<Rule>) -> Database {
        let mut d = Database::with_fresh_atoms(n);
        for r in rules {
            d.add_rule(r);
        }
        d
    }

    fn a(i: u32) -> Atom {
        Atom::new(i)
    }

    #[test]
    fn classification_positive() {
        let d = db(2, vec![Rule::fact([a(0), a(1)])]);
        assert_eq!(d.class(), DbClass::Positive);
        assert!(d.is_positive());
    }

    #[test]
    fn classification_deductive() {
        let d = db(2, vec![Rule::fact([a(0)]), Rule::integrity([a(1)], [])]);
        assert_eq!(d.class(), DbClass::Deductive);
        assert!(!d.is_positive());
        assert!(!d.has_negation());
    }

    #[test]
    fn classification_stratified() {
        // b ← ¬a : stratified, a below b.
        let d = db(2, vec![Rule::new([a(1)], [], [a(0)])]);
        assert_eq!(d.class(), DbClass::Stratified);
        let strata = d.stratification().unwrap();
        assert_eq!(strata.len(), 2);
        assert!(strata[0].contains(&a(0)));
        assert!(strata[1].contains(&a(1)));
    }

    #[test]
    fn classification_normal() {
        // a ← ¬b ; b ← ¬a : the classic unstratifiable loop.
        let d = db(
            2,
            vec![Rule::new([a(0)], [], [a(1)]), Rule::new([a(1)], [], [a(0)])],
        );
        assert_eq!(d.class(), DbClass::Normal);
        assert!(d.stratification().is_none());
    }

    #[test]
    fn positive_recursion_is_stratified() {
        // a ← b ; b ← a : positive loop, one stratum.
        let d = db(
            2,
            vec![Rule::new([a(0)], [a(1)], []), Rule::new([a(1)], [a(0)], [])],
        );
        let strata = d.stratification().unwrap();
        assert_eq!(strata.len(), 1);
    }

    #[test]
    fn negative_self_loop_unstratifiable() {
        // a ← ¬a.
        let d = db(1, vec![Rule::new([a(0)], [], [a(0)])]);
        assert!(d.stratification().is_none());
    }

    #[test]
    fn disjunctive_head_shares_stratum() {
        // a ∨ b ← ¬c ; c has to be strictly below both a and b.
        let d = db(3, vec![Rule::new([a(0), a(1)], [], [a(2)])]);
        let strata = d.stratification().unwrap();
        assert_eq!(strata.len(), 2);
        assert!(strata[0].contains(&a(2)));
        assert!(strata[1].contains(&a(0)) && strata[1].contains(&a(1)));
    }

    #[test]
    fn head_sharing_forces_unstratifiability() {
        // a ∨ b ← ¬c ; c ← a : then c < a (strict) but a,b in one stratum
        // and c ≥ a via second rule ⇒ cycle with strict edge.
        let d = db(
            3,
            vec![
                Rule::new([a(0), a(1)], [], [a(2)]),
                Rule::new([a(2)], [a(0)], []),
            ],
        );
        assert!(d.stratification().is_none());
    }

    #[test]
    fn chain_gets_increasing_strata() {
        // x1 ← ¬x0 ; x2 ← ¬x1 ; x3 ← ¬x2.
        let d = db(
            4,
            vec![
                Rule::new([a(1)], [], [a(0)]),
                Rule::new([a(2)], [], [a(1)]),
                Rule::new([a(3)], [], [a(2)]),
            ],
        );
        let strata = d.stratification().unwrap();
        assert_eq!(strata.len(), 4);
        for (i, stratum) in strata.iter().enumerate() {
            assert_eq!(*stratum, vec![a(i as u32)]);
        }
    }

    #[test]
    fn layers_follow_head_strata() {
        let d = db(
            3,
            vec![
                Rule::fact([a(0)]),
                Rule::new([a(1)], [], [a(0)]),
                Rule::integrity([a(1)], []),
            ],
        );
        let strata = d.stratification().unwrap();
        let layers = d.layers(&strata);
        assert_eq!(layers.len(), 2);
        assert_eq!(layers[0].len(), 1); // fact about x0
        assert_eq!(layers[1].len(), 2); // rule for x1 + integrity clause on x1
    }

    #[test]
    fn model_check() {
        // a ∨ b. ; ← a ∧ b.
        let d = db(
            2,
            vec![Rule::fact([a(0), a(1)]), Rule::integrity([a(0), a(1)], [])],
        );
        let m_a = Interpretation::from_atoms(2, [a(0)]);
        let m_ab = Interpretation::from_atoms(2, [a(0), a(1)]);
        let m_none = Interpretation::empty(2);
        assert!(d.satisfied_by(&m_a));
        assert!(!d.satisfied_by(&m_ab));
        assert!(!d.satisfied_by(&m_none));
    }

    #[test]
    #[should_panic(expected = "outside vocabulary")]
    fn out_of_vocabulary_rule_rejected() {
        let mut d = Database::with_fresh_atoms(1);
        d.add_rule(Rule::fact([a(5)]));
    }
}
