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
//!
//! **Every problem is the minimal-model walk** ([`ddb_models::walk`])
//! over `MM(DB; V∖Z; Z)` with the layer checks as its check, because
//! prioritized minimality implies plain minimality:
//!
//! * *Claim:* `ICWA(DB) ⊆ MM(DB; V∖Z; Z)`.
//! * *Proof:* let `M ∈ ICWA(DB)` and suppose `M′ ⊨ DB` with `M′ < M` on
//!   `P = V∖Z`. Take the lowest stratum `Sᵢ` where their `P`-parts differ.
//!   The lower strata agree, so `M′` and `M` have the same `Qᵢ`-part; on
//!   `Pᵢ = Sᵢ∖Z` the part of `M′` is a proper subset of that of `M`; and
//!   `M′` satisfies the prefix `DB₁ ∪ … ∪ DBᵢ ⊆ DB`. So `M′` refutes the
//!   ⟨Pᵢ;Zᵢ⟩-minimality of `M` in that prefix — a contradiction.
//!
//! For a model of `DB`, membership depends only on its non-`Z` part: each
//! prefix is satisfied because `DB` is, and each layer check compares
//! `Pᵢ`- and `Qᵢ`-parts, which lie outside `Z`. That is what lets one
//! witness per ⟨V∖Z⟩-signature stand for the signature in the walk, and
//! [`models`] expand each accepted signature to all of its `Z`-completions.
//! The top layer's check is implied by the walk's own minimality (it fixes
//! more atoms than ⟨V∖Z; Z⟩ does), so the walk checks only the layers
//! below it; with one stratum and `Z = ∅` ICWA is EGCWA and no check is
//! left.

use ddb_logic::{Atom, Database, Formula, Interpretation};
use ddb_models::walk::{first, walk};
use ddb_models::{minimal, Cost, Partition};
use ddb_obs::Governed;

/// The per-stratum reasoning context: prefix databases and partitions.
pub struct Layers {
    prefixes: Vec<Database>,
    partitions: Vec<Partition>,
    walked: Partition,
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
        let mut fixed = Interpretation::full(n);
        fixed.difference_with(z);
        Layers {
            prefixes,
            partitions,
            walked: Partition::new(fixed, Interpretation::empty(n), z.clone()),
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

/// Whether `m` is a ⟨Pᵢ;Zᵢ⟩-minimal model of each of the first `k`
/// prefixes — `k` oracle calls.
fn minimal_in_layers(
    layers: &Layers,
    k: usize,
    m: &Interpretation,
    cost: &mut Cost,
) -> Governed<bool> {
    for i in 0..k {
        if !minimal::is_pz_minimal_model(layers.prefix(i), m, layers.partition(i), cost)? {
            return Ok(false);
        }
    }
    Ok(true)
}

/// The walk's check: every layer but the top one, whose minimality the
/// walk itself guarantees.
fn below_top(layers: &Layers) -> impl FnMut(&Interpretation, &mut Cost) -> Governed<bool> + '_ {
    |m, cost| minimal_in_layers(layers, layers.len().saturating_sub(1), m, cost)
}

/// Visits the ICWA models satisfying `extra` (when given), one per
/// ⟨V∖Z⟩-signature: the minimal-model walk over `MM(DB; V∖Z; Z)` with
/// the layer checks. Callback returns `false` to stop.
pub fn for_each_icwa_model(
    db: &Database,
    layers: &Layers,
    extra: Option<&Formula>,
    cost: &mut Cost,
    visit: impl FnMut(&Interpretation) -> bool,
) -> Governed<()> {
    walk(db, &layers.walked, extra, cost, below_top(layers), visit)
}

/// All ICWA models, sorted: the walk's accepted signatures, each expanded
/// to its `Z`-completions (enumerative; test/example sized).
pub fn models(db: &Database, layers: &Layers, cost: &mut Cost) -> Governed<Vec<Interpretation>> {
    let _span = ddb_obs::span("icwa.models");
    minimal::completions(db, &layers.walked, cost, below_top(layers))
}

/// Formula inference `ICWA(DB) ⊨ F` as a countermodel search: the first
/// ICWA model the walk on `DB ∧ ¬F` visits, or `None` when `F` is inferred
/// (the paper's Theorem 4.1 upper-bound shape).
pub fn countermodel(
    db: &Database,
    layers: &Layers,
    f: &Formula,
    cost: &mut Cost,
) -> Governed<Option<Interpretation>> {
    let _span = ddb_obs::span("icwa.countermodel");
    let not_f = f.clone().negated();
    first(db, &layers.walked, Some(&not_f), cost, below_top(layers))
}

/// Model existence `ICWA(DB) ≠ ∅`. `O(1)` for stratified databases
/// without integrity clauses (stratifiability asserts consistency \[12\]);
/// otherwise decided by the walk over the layers `layers` builds, which
/// is called only then.
pub fn has_model(
    db: &Database,
    layers: impl FnOnce() -> Layers,
    cost: &mut Cost,
) -> Governed<bool> {
    let _span = ddb_obs::span("icwa.has_model");
    if !db.has_integrity_clauses() {
        return Ok(true);
    }
    let layers = layers();
    Ok(first(db, &layers.walked, None, cost, below_top(&layers))?.is_some())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddb_logic::parse::{parse_formula, parse_program};

    fn infers(db: &Database, layers: &Layers, f: &Formula, cost: &mut Cost) -> Governed<bool> {
        Ok(countermodel(db, layers, f, cost)?.is_none())
    }

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
            crate::egcwa::models(&db, &mut cost).expect_complete()
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
        assert!(infers(&db, &layers, &Formula::from(b.neg()), &mut cost).unwrap());
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
                infers(&db, &layers, &f, &mut cost).unwrap(),
                expected,
                "{text}"
            );
        }
    }

    #[test]
    fn consistency_without_integrity_is_constant() {
        let db = parse_program("a | b. c :- not a.").unwrap();
        let mut cost = Cost::new();
        let no_walk = || panic!("no walk runs, so no layers are built");
        assert!(has_model(&db, no_walk, &mut cost).unwrap());
        assert_eq!(cost.sat_calls, 0);
    }

    #[test]
    fn integrity_clauses_can_empty_icwa() {
        let db = parse_program("a. :- a.").unwrap();
        let layers = layers_of(&db);
        let mut cost = Cost::new();
        assert!(!has_model(&db, || layers_of(&db), &mut cost).unwrap());
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
        assert!(!infers(&db, &layers, &nb, &mut cost).unwrap());
        let na = parse_formula("!a", db.symbols()).unwrap();
        assert!(infers(&db, &layers, &na, &mut cost).unwrap());
    }
}
