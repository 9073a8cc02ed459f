//! Disjunctive Stable Model semantics (DSM), Przymusinski \[20\],
//! generalizing the stable models of Gelfond & Lifschitz \[10\].
//!
//! `M` is a disjunctive stable model iff `M ∈ MM(DB^M)` where `DB^M` is the
//! Gelfond–Lifschitz reduct ([`crate::reduct::gl_reduct`]). Two structural
//! facts drive the procedures (both from \[20\], both pinned by tests):
//!
//! * `DSM(DB) ⊆ MM(DB)` — stable models are minimal models, so every
//!   problem is the minimal-model walk of `DB` (with superset blocking)
//!   filtered by the stability check;
//! * on positive databases `DB^M = DB`, hence `DSM(DB) = MM(DB)` — which
//!   is how the Πᵖ₂ lower bounds of the EGCWA rows carry over.
//!
//! The stability check itself is one oracle call (minimality of `M` in the
//! reduct — the guess-and-check structure behind the paper's Πᵖ₂/Σᵖ₂
//! memberships: formula inference is Πᵖ₂-complete, model existence
//! Σᵖ₂-complete).

use crate::reduct::gl_reduct;
use ddb_logic::{Database, Formula, Interpretation};
use ddb_models::walk::{first, walk};
use ddb_models::{minimal, Cost, Partition};
use ddb_obs::Governed;

/// Whether `m` is a disjunctive stable model of `db`: `m ∈ MM(DB^m)`.
/// One model check plus one oracle call.
pub fn is_stable_model(db: &Database, m: &Interpretation, cost: &mut Cost) -> Governed<bool> {
    if !db.satisfied_by(m) {
        return Ok(false);
    }
    let reduct = gl_reduct(db, m);
    debug_assert!(reduct.satisfied_by(m), "M ⊨ DB implies M ⊨ DB^M");
    minimal::is_minimal_model(&reduct, m, cost)
}

/// Visits the stable models of `db` that satisfy `extra` (when given),
/// one at a time: the minimal-model walk ([`ddb_models::walk`]) over
/// `MM(DB)` with [`is_stable_model`] as its check — complete because
/// `DSM(DB) ⊆ MM(DB)`. The callback returns `false` to stop early.
pub fn for_each_stable_model(
    db: &Database,
    extra: Option<&Formula>,
    cost: &mut Cost,
    visit: impl FnMut(&Interpretation) -> bool,
) -> Governed<()> {
    walk(db, &minimize_all(db), extra, cost, stable(db), visit)
}

fn stable(db: &Database) -> impl FnMut(&Interpretation, &mut Cost) -> Governed<bool> + '_ {
    |m, cost| is_stable_model(db, m, cost)
}

fn minimize_all(db: &Database) -> Partition {
    Partition::minimize_all(db.num_atoms())
}

/// All disjunctive stable models, sorted.
///
/// ```
/// use ddb_logic::parse::parse_program;
/// use ddb_models::Cost;
/// let db = parse_program("a :- not b. b :- not a.").unwrap();
/// let mut cost = Cost::new();
/// assert_eq!(ddb_core::dsm::models(&db, &mut cost).unwrap().len(), 2);
/// ```
pub fn models(db: &Database, cost: &mut Cost) -> Governed<Vec<Interpretation>> {
    let _span = ddb_obs::span("dsm.models");
    minimal::completions(db, &minimize_all(db), cost, stable(db))
}

/// Formula inference `DSM(DB) ⊨ F` (true in every stable model, vacuously
/// so when none exists) as a countermodel search: the walk runs on
/// `DB ∧ ¬F` and stops at the first stable countermodel; `None` means `F`
/// is inferred.
pub fn countermodel(
    db: &Database,
    f: &Formula,
    cost: &mut Cost,
) -> Governed<Option<Interpretation>> {
    let _span = ddb_obs::span("dsm.countermodel");
    let not_f = f.clone().negated();
    first(db, &minimize_all(db), Some(&not_f), cost, stable(db))
}

/// Batch cautious inference: in **one** enumeration pass, computes the
/// atoms true in every stable model and the atoms false in every stable
/// model. Returns `None` when no stable model exists (cautious inference
/// is vacuous there). Compared to `2·|V|` separate literal inferences
/// this shares the whole enumeration.
pub fn cautious_literals(
    db: &Database,
    cost: &mut Cost,
) -> Governed<Option<(Interpretation, Interpretation)>> {
    let n = db.num_atoms();
    let mut true_in_all: Option<Interpretation> = None;
    let mut false_in_all: Option<Interpretation> = None;
    for_each_stable_model(db, None, cost, |m| {
        match &mut true_in_all {
            None => true_in_all = Some(m.clone()),
            Some(t) => t.intersect_with(m),
        }
        let mut complement = Interpretation::full(n);
        complement.difference_with(m);
        match &mut false_in_all {
            None => false_in_all = Some(complement),
            Some(f) => f.intersect_with(&complement),
        }
        // Early exit once both sets are empty: no literal can be
        // cautiously inferred anymore.
        let t_drained = true_in_all
            .as_ref()
            .is_some_and(Interpretation::is_empty_set);
        let f_drained = false_in_all
            .as_ref()
            .is_some_and(Interpretation::is_empty_set);
        !(t_drained && f_drained)
    })?;
    Ok(true_in_all.zip(false_in_all))
}

/// Counts the stable models, stopping at `cap` (returns
/// `min(count, cap)`).
pub fn count_models(db: &Database, cap: usize, cost: &mut Cost) -> Governed<usize> {
    let mut count = 0usize;
    for_each_stable_model(db, None, cost, |_| {
        count += 1;
        count < cap
    })?;
    Ok(count)
}

/// Model existence: does `db` have a disjunctive stable model?
/// (Σᵖ₂-complete in general.)
pub fn has_model(db: &Database, cost: &mut Cost) -> Governed<bool> {
    let _span = ddb_obs::span("dsm.has_model");
    Ok(first(db, &minimize_all(db), None, cost, stable(db))?.is_some())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddb_logic::parse::{parse_formula, parse_program};

    fn infers(db: &Database, f: &Formula, cost: &mut Cost) -> Governed<bool> {
        Ok(countermodel(db, f, cost)?.is_none())
    }

    fn interp(db: &Database, names: &[&str]) -> Interpretation {
        Interpretation::from_atoms(
            db.num_atoms(),
            names.iter().map(|n| db.symbols().lookup(n).unwrap()),
        )
    }

    #[test]
    fn even_loop_has_two_stable_models() {
        let db = parse_program("a :- not b. b :- not a.").unwrap();
        let mut cost = Cost::new();
        assert_eq!(
            models(&db, &mut cost).unwrap(),
            vec![interp(&db, &["a"]), interp(&db, &["b"])]
        );
    }

    #[test]
    fn odd_loop_has_no_stable_model() {
        let db = parse_program("a :- not a.").unwrap();
        let mut cost = Cost::new();
        assert!(models(&db, &mut cost).unwrap().is_empty());
        assert!(!has_model(&db, &mut cost).unwrap());
        // Cautious inference is vacuous.
        let f = parse_formula("false", db.symbols()).unwrap();
        assert!(infers(&db, &f, &mut cost).unwrap());
    }

    #[test]
    fn positive_db_stable_equals_minimal() {
        let db = parse_program("a | b. c :- a. :- b, c.").unwrap();
        let mut cost = Cost::new();
        assert_eq!(
            models(&db, &mut cost).unwrap(),
            minimal::minimal_models(&db, &mut cost).unwrap()
        );
    }

    #[test]
    fn stable_models_are_minimal_models() {
        let db = parse_program("a | b :- not c. c :- not d. d :- not c.").unwrap();
        let mut cost = Cost::new();
        let sm = models(&db, &mut cost).unwrap();
        let mm = minimal::minimal_models(&db, &mut cost).unwrap();
        for m in &sm {
            assert!(mm.contains(m), "{m:?} not minimal");
        }
    }

    #[test]
    fn non_minimal_model_not_stable() {
        // a ∨ b with b ← a: models are {b} and {a,b}; only {b} is minimal,
        // and (the database being positive) only {b} is stable.
        let db = parse_program("a | b. b :- a.").unwrap();
        let mut cost = Cost::new();
        assert_eq!(models(&db, &mut cost).unwrap(), vec![interp(&db, &["b"])]);
        assert!(!is_stable_model(&db, &interp(&db, &["a", "b"]), &mut cost).unwrap());
        assert!(is_stable_model(&db, &interp(&db, &["b"]), &mut cost).unwrap());
    }

    #[test]
    fn gelfond_lifschitz_classic() {
        // p :- not q. — single stable model {p}.
        let db = parse_program("p :- not q.").unwrap();
        let mut cost = Cost::new();
        assert_eq!(models(&db, &mut cost).unwrap(), vec![interp(&db, &["p"])]);
        let p = db.symbols().lookup("p").unwrap();
        let q = db.symbols().lookup("q").unwrap();
        assert!(infers(&db, &Formula::from(p.pos()), &mut cost).unwrap());
        assert!(infers(&db, &Formula::from(q.neg()), &mut cost).unwrap());
    }

    #[test]
    fn constraint_prunes_stable_models() {
        let db = parse_program("a :- not b. b :- not a. :- a.").unwrap();
        let mut cost = Cost::new();
        assert_eq!(models(&db, &mut cost).unwrap(), vec![interp(&db, &["b"])]);
    }

    #[test]
    fn disjunctive_stable_semantics() {
        // a ∨ b :- not c. — stable models {a}, {b}.
        let db = parse_program("a | b :- not c.").unwrap();
        let mut cost = Cost::new();
        assert_eq!(
            models(&db, &mut cost).unwrap(),
            vec![interp(&db, &["a"]), interp(&db, &["b"])]
        );
        // c is cautiously false.
        let c = db.symbols().lookup("c").unwrap();
        assert!(infers(&db, &Formula::from(c.neg()), &mut cost).unwrap());
    }

    #[test]
    fn formula_inference() {
        let db = parse_program("a :- not b. b :- not a. c :- a. c :- b.").unwrap();
        let mut cost = Cost::new();
        let f = parse_formula("c", db.symbols()).unwrap();
        assert!(infers(&db, &f, &mut cost).unwrap());
        let g = parse_formula("a", db.symbols()).unwrap();
        assert!(!infers(&db, &g, &mut cost).unwrap());
        let h = parse_formula("a | b", db.symbols()).unwrap();
        assert!(infers(&db, &h, &mut cost).unwrap());
    }

    #[test]
    fn cautious_literals_match_per_literal_inference() {
        for src in [
            "a :- not b. b :- not a. c :- a. c :- b.",
            "a | b :- not c. d :- a.",
            "p :- not q. r.",
        ] {
            let db = parse_program(src).unwrap();
            let mut cost = Cost::new();
            let (t, f) = cautious_literals(&db, &mut cost)
                .unwrap()
                .expect("has stable models");
            for i in 0..db.num_atoms() {
                let a = ddb_logic::Atom::new(i as u32);
                assert_eq!(
                    t.contains(a),
                    infers(&db, &Formula::from(a.pos()), &mut cost).unwrap(),
                    "{src}: positive {i}"
                );
                assert_eq!(
                    f.contains(a),
                    infers(&db, &Formula::from(a.neg()), &mut cost).unwrap(),
                    "{src}: negative {i}"
                );
            }
        }
    }

    #[test]
    fn cautious_literals_none_without_stable_models() {
        let db = parse_program("a :- not a.").unwrap();
        let mut cost = Cost::new();
        assert!(cautious_literals(&db, &mut cost).unwrap().is_none());
    }

    #[test]
    fn count_models_with_cap() {
        use ddb_workloads::structured::even_loops;
        let db = even_loops(3);
        let mut cost = Cost::new();
        assert_eq!(count_models(&db, 100, &mut cost).unwrap(), 8);
        assert_eq!(count_models(&db, 5, &mut cost).unwrap(), 5);
        assert_eq!(count_models(&db, 1, &mut cost).unwrap(), 1);
    }

    #[test]
    fn supportedness_matters() {
        // a :- a. has the single stable model ∅ (a is unfounded).
        let db = parse_program("a :- a.").unwrap();
        let mut cost = Cost::new();
        assert_eq!(
            models(&db, &mut cost).unwrap(),
            vec![Interpretation::empty(1)]
        );
    }

    #[test]
    fn negative_loop_with_disjunction() {
        // a ∨ b. c :- not a. — stable models: {a} (c blocked? reduct of
        // {a}: drop c rule → a∨b, minimal containing... {a} ∈ MM ✓) and
        // {b, c} (reduct: a∨b, c → {b,c} minimal? {b,c} ⊨, subsets {b}
        // ⊭ c-fact... reduct for M={b,c}: c :- not a stays (a∉M) as fact
        // c; minimal models of {a∨b, c}: {a,c},{b,c}; {b,c} ∈ ✓ stable).
        let db = parse_program("a | b. c :- not a.").unwrap();
        let mut cost = Cost::new();
        assert_eq!(
            models(&db, &mut cost).unwrap(),
            vec![interp(&db, &["a"]), interp(&db, &["b", "c"])]
        );
    }
}
