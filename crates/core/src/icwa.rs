//! The Iterated Closed World Assumption (ICWA), Gelfond, Przymusinska &
//! Przymusinski \[12\], for disjunctive *stratified* databases.
//!
//! Given a stratification `⟨S₁, …, S_r⟩` (see
//! [`ddb_logic::Database::stratification`]) and a set `Z` of varying atoms,
//! ICWA applies ECWA layer by layer and intersects (the characterization
//! of \[12, §6\] the paper quotes):
//!
//! `ICWA(DB) = ⋂ᵢ ECWA_{Pᵢ; Zᵢ}(DB₁ ∪ … ∪ DBᵢ)` with `Pᵢ = Sᵢ ∖ Z`,
//! `Zᵢ = Sᵢ₊₁ ∪ … ∪ S_r ∪ Z` and `Qᵢ` the lower strata — i.e. a model must
//! be ⟨Pᵢ;Zᵢ⟩-minimal for every *prefix* of the layered database (negated
//! body atoms are read clausally, which is exactly the paper's "move each
//! ¬x in the body to the head").
//!
//! Membership of a model in `ICWA(DB)` is `r` oracle calls (one
//! ⟨P;Z⟩-minimality check per stratum) — the guess-and-check shape behind
//! the paper's Πᵖ₂ upper bound for inference (Theorem 4.1); hardness comes
//! from the degenerate stratification `S = ⟨V⟩`, where ICWA = ECWA = EGCWA
//! on positive databases (Theorem 4.2). For stratified databases without
//! integrity clauses, ICWA is consistent (`∃ model` is `O(1)` — the
//! paper's "stratifiability asserts consistency").

use ddb_logic::cnf::CnfBuilder;
use ddb_logic::{Atom, Database, Formula, Interpretation, Literal};
use ddb_models::{minimal, Cost, Partition};
use ddb_obs::{budget, Governed};
use ddb_sat::Solver;

/// The per-stratum reasoning context: prefix databases and partitions.
pub struct Layers {
    prefixes: Vec<Database>,
    partitions: Vec<Partition>,
}

impl Layers {
    /// Builds the ICWA layering from a stratification and a set of varying
    /// atoms `z` (atoms never closed off; pass the empty set for the plain
    /// ICWA).
    pub fn new(db: &Database, strata: &[Vec<Atom>], z: &Interpretation) -> Self {
        let n = db.num_atoms();
        let layer_rules = db.layers(strata);
        let mut prefixes = Vec::with_capacity(strata.len());
        let mut partitions = Vec::with_capacity(strata.len());
        let mut prefix = Database::new(db.symbols().clone());
        let mut lower = Interpretation::empty(n);
        for (i, stratum) in strata.iter().enumerate() {
            for rule in &layer_rules[i] {
                prefix.add_rule(rule.clone());
            }
            prefixes.push(prefix.clone());
            // Pᵢ = Sᵢ ∖ Z ; Zᵢ = S_{i+1..} ∪ Z ; Qᵢ = lower strata ∖ Z.
            let mut p = Interpretation::from_atoms(n, stratum.iter().copied());
            p.difference_with(z);
            let mut q = lower.clone();
            q.difference_with(z);
            let mut zi = Interpretation::full(n);
            zi.difference_with(&p);
            zi.difference_with(&q);
            partitions.push(Partition::new(p, q, zi));
            lower.union_with(&Interpretation::from_atoms(n, stratum.iter().copied()));
        }
        Layers {
            prefixes,
            partitions,
        }
    }

    /// Number of strata.
    pub fn len(&self) -> usize {
        self.prefixes.len()
    }

    /// Whether there are no strata (empty vocabulary).
    pub fn is_empty(&self) -> bool {
        self.prefixes.is_empty()
    }

    /// The `i`-th prefix database `DB₁ ∪ … ∪ DBᵢ`.
    pub fn prefix(&self, i: usize) -> &Database {
        &self.prefixes[i]
    }

    /// The `i`-th partition ⟨Pᵢ; Qᵢ; Zᵢ⟩.
    pub fn partition(&self, i: usize) -> &Partition {
        &self.partitions[i]
    }
}

/// Whether `m ∈ ICWA(DB)`: ⟨Pᵢ;Zᵢ⟩-minimal model of every prefix —
/// `r` oracle calls.
pub fn is_icwa_model(layers: &Layers, m: &Interpretation, cost: &mut Cost) -> Governed<bool> {
    for i in 0..layers.len() {
        if !minimal::is_pz_minimal_model(layers.prefix(i), m, layers.partition(i), cost)? {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Visits the ICWA models one at a time: enumerate models of the full
/// database falsifying nothing (all models), check layer-wise minimality,
/// block each examined model exactly. Each round starts with a budget
/// checkpoint, so an exhausted [`ddb_obs::Budget`] interrupts between
/// rounds.
pub fn for_each_icwa_model(
    db: &Database,
    layers: &Layers,
    extra: Option<&Formula>,
    cost: &mut Cost,
    mut visit: impl FnMut(&Interpretation) -> bool,
) -> Governed<()> {
    let n = db.num_atoms();
    let mut b = CnfBuilder::new(n);
    b.add_database(db);
    if let Some(f) = extra {
        b.assert_formula(f);
    }
    let cnf = b.finish();
    let mut candidates = Solver::from_cnf(&cnf);
    candidates.ensure_vars(cnf.num_vars.max(n));
    let mut run = |cost: &mut Cost, candidates: &mut Solver| -> Governed<()> {
        loop {
            budget::checkpoint()?;
            if !candidates.solve()?.is_sat() {
                return Ok(());
            }
            let model = {
                let full = candidates.model();
                let mut m = Interpretation::empty(n);
                for a in full.iter().filter(|a| a.index() < n) {
                    m.insert(a);
                }
                m
            };
            if is_icwa_model(layers, &model, cost)? && !visit(&model) {
                return Ok(());
            }
            // Block this exact model (projected).
            let blocking: Vec<Literal> = (0..n)
                .map(|i| {
                    let a = Atom::new(i as u32);
                    Literal::with_sign(a, !model.contains(a))
                })
                .collect();
            if blocking.is_empty() || !candidates.add_clause(&blocking) {
                return Ok(());
            }
        }
    };
    let result = run(cost, &mut candidates);
    cost.absorb(&candidates);
    result
}

/// All ICWA models, sorted (enumerative; test/example sized).
pub fn models(db: &Database, layers: &Layers, cost: &mut Cost) -> Governed<Vec<Interpretation>> {
    let _span = ddb_obs::span("icwa.models");
    let mut out = Vec::new();
    for_each_icwa_model(db, layers, None, cost, |m| {
        out.push(m.clone());
        true
    })?;
    out.sort();
    Ok(out)
}

/// Formula inference `ICWA(DB) ⊨ F`: search a countermodel among the
/// ICWA models (guess a model of `DB ∧ ¬F`, verify layer-wise minimality
/// with `r` oracle calls — the paper's Theorem 4.1 upper-bound shape).
pub fn infers_formula(
    db: &Database,
    layers: &Layers,
    f: &Formula,
    cost: &mut Cost,
) -> Governed<bool> {
    let _span = ddb_obs::span("icwa.infers_formula");
    let negated = f.clone().negated();
    let mut holds = true;
    for_each_icwa_model(db, layers, Some(&negated), cost, |_| {
        holds = false;
        false
    })?;
    Ok(holds)
}

/// Model existence `ICWA(DB) ≠ ∅`. `O(1)` for stratified databases
/// without integrity clauses (stratifiability asserts consistency \[12\]);
/// otherwise decided by the enumeration loop.
pub fn has_model(db: &Database, layers: &Layers, cost: &mut Cost) -> Governed<bool> {
    let _span = ddb_obs::span("icwa.has_model");
    if !db.has_integrity_clauses() {
        return Ok(true);
    }
    let mut found = false;
    for_each_icwa_model(db, layers, None, cost, |_| {
        found = true;
        false
    })?;
    Ok(found)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddb_logic::parse::{parse_formula, parse_program};

    fn layers_of(db: &Database) -> Layers {
        let strata = db.stratification().expect("stratified");
        Layers::new(db, &strata, &Interpretation::empty(db.num_atoms()))
    }

    fn interp(db: &Database, names: &[&str]) -> Interpretation {
        Interpretation::from_atoms(
            db.num_atoms(),
            names.iter().map(|n| db.symbols().lookup(n).unwrap()),
        )
    }

    #[test]
    fn degenerate_stratification_is_egcwa() {
        // Positive DB with S = ⟨V⟩: ICWA = EGCWA = MM (Theorem 4.2's
        // degenerate case).
        let db = parse_program("a | b. c :- a, b.").unwrap();
        let strata = vec![(0..db.num_atoms()).map(|i| Atom::new(i as u32)).collect()];
        let layers = Layers::new(&db, &strata, &Interpretation::empty(db.num_atoms()));
        let mut cost = Cost::new();
        assert_eq!(
            models(&db, &layers, &mut cost).unwrap(),
            crate::egcwa::models(&db, &mut cost).unwrap()
        );
    }

    #[test]
    fn stratified_negation_iterates() {
        // a. c :- not b. — strata ⟨{a,b},{c}⟩-ish; ICWA model: {a, c}.
        let db = parse_program("a. c :- not b.").unwrap();
        let layers = layers_of(&db);
        let mut cost = Cost::new();
        assert_eq!(
            models(&db, &layers, &mut cost).unwrap(),
            vec![interp(&db, &["a", "c"])]
        );
        let b = db.symbols().lookup("b").unwrap();
        assert!(infers_formula(&db, &layers, &Formula::from(b.neg()), &mut cost).unwrap());
    }

    #[test]
    fn disjunctive_stratified_matches_perfect() {
        // ICWA was introduced to capture PERF on stratified databases.
        for src in [
            "a. c :- not b.",
            "a | b. c :- not a.",
            "p | q. r :- not p. s :- not q.",
            "a. b :- not a. c | d :- not b.",
        ] {
            let db = parse_program(src).unwrap();
            let layers = layers_of(&db);
            let mut cost = Cost::new();
            assert_eq!(
                models(&db, &layers, &mut cost).unwrap(),
                crate::perf::models(&db, &mut cost).unwrap(),
                "program: {src}"
            );
        }
    }

    #[test]
    fn formula_inference() {
        let db = parse_program("a | b. c :- not a.").unwrap();
        let layers = layers_of(&db);
        let mut cost = Cost::new();
        let icwa_models = models(&db, &layers, &mut cost).unwrap();
        for text in ["a | b", "c -> b", "!(a & c)", "!c", "a"] {
            let f = parse_formula(text, db.symbols()).unwrap();
            let expected = icwa_models.iter().all(|m| f.eval(m));
            assert_eq!(
                infers_formula(&db, &layers, &f, &mut cost).unwrap(),
                expected,
                "{text}"
            );
        }
    }

    #[test]
    fn consistency_without_integrity_is_constant() {
        let db = parse_program("a | b. c :- not a.").unwrap();
        let layers = layers_of(&db);
        let mut cost = Cost::new();
        assert!(has_model(&db, &layers, &mut cost).unwrap());
        assert_eq!(cost.sat_calls, 0);
    }

    #[test]
    fn integrity_clauses_can_empty_icwa() {
        let db = parse_program("a. :- a.").unwrap();
        let layers = layers_of(&db);
        let mut cost = Cost::new();
        assert!(!has_model(&db, &layers, &mut cost).unwrap());
        assert!(models(&db, &layers, &mut cost).unwrap().is_empty());
    }

    #[test]
    fn varying_atoms_are_not_closed() {
        // a | b with Z = {b}: layer partition minimizes a only; models
        // where b floats freely survive.
        let db = parse_program("a | b.").unwrap();
        let strata = db.stratification().unwrap();
        let z = interp(&db, &["b"]);
        let layers = Layers::new(&db, &strata, &z);
        let mut cost = Cost::new();
        let nb = parse_formula("!b", db.symbols()).unwrap();
        assert!(!infers_formula(&db, &layers, &nb, &mut cost).unwrap());
        let na = parse_formula("!a", db.symbols()).unwrap();
        assert!(infers_formula(&db, &layers, &na, &mut cost).unwrap());
    }
}
