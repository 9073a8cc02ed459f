//! Analysis-driven fast paths for easy fragments.
//!
//! The paper's tables assign Πᵖ₂/Σᵖ₂ cells to *general* disjunctive
//! databases; on the fragments the [`ddb_analysis`] classifier recognizes,
//! whole rows collapse:
//!
//! * **Horn** databases ([`horn_models`] and friends): the least model `L`
//!   of the definite rules is computable by the polynomial worklist
//!   fixpoint ([`ddb_logic::Database::positive_closure`]); the database is
//!   consistent iff `L` satisfies its integrity clauses, and then *every*
//!   one of the ten semantics has `{L}` as its characteristic model set —
//!   inference is formula evaluation at `L` (vacuously true when
//!   inconsistent) and model existence is consistency. Zero oracle calls.
//!   Both `L` and its consistency are facts of the database, read from
//!   its [`Prepared`] memo.
//! * **Head-cycle-free** databases ([`for_each_hcf_stable_model`]): by the
//!   Ben-Eliyahu & Dechter theorem, `DSM(DB)` equals the stable models of
//!   the *shifted* normal program ([`ddb_analysis::shift`]), whose
//!   stability check is a polynomial reduct-fixpoint comparison instead of
//!   one minimality oracle call per candidate.
//!
//! [`crate::dispatch`] consults the fragment flags and calls into this
//! module, bumping the `route.horn` / `route.hcf` / `route.generic`
//! counters so `ddb profile` can show which cells were served by a fast
//! path. Equality of fast-path and generic answers across all ten
//! semantics is pinned by the seeded property tests in
//! `tests/routing.rs`.

use crate::reduct::gl_reduct;
use ddb_analysis::transform::shift;
use ddb_analysis::Prepared;
use ddb_logic::cnf::database_to_cnf;
use ddb_logic::{Database, Formula, Interpretation, Literal};
use ddb_models::fixpoint::active_atoms;
use ddb_models::{minimal, Cost};
use ddb_obs::{budget, Governed};
use ddb_sat::Solver;

/// The least model of a Horn database's definite rules, plus whether the
/// database is consistent (i.e. that model also satisfies the integrity
/// clauses). Polynomial, no oracle calls, and computed once per prepared
/// database.
pub fn horn_least_model<'p>(p: &'p Prepared) -> (&'p Interpretation, bool) {
    debug_assert!(p.fragments().horn, "horn fast path on a non-Horn database");
    (p.closure(), p.closure_is_model())
}

/// Horn fast path for the characteristic model set: `{L}` when consistent,
/// empty otherwise — identical for all ten semantics.
pub fn horn_models(p: &Prepared) -> Vec<Interpretation> {
    let (least, consistent) = horn_least_model(p);
    if consistent {
        vec![least.clone()]
    } else {
        Vec::new()
    }
}

/// Horn fast path for formula inference: `F` evaluated at the least model,
/// vacuously true when the database is inconsistent.
pub fn horn_infers_formula(p: &Prepared, f: &Formula) -> bool {
    let (least, consistent) = horn_least_model(p);
    !consistent || f.eval(least)
}

/// Horn fast path for model existence: consistency of the least model.
pub fn horn_has_model(p: &Prepared) -> bool {
    horn_least_model(p).1
}

/// Polynomial stability check for a **normal** program (every head has at
/// most one atom, e.g. the output of [`shift`]): `m` is stable iff it is a
/// model and equals the least fixpoint of the definite part of the
/// Gelfond–Lifschitz reduct. This replaces the minimality oracle call of
/// the generic [`crate::dsm::is_stable_model`].
pub fn normal_is_stable(normal: &Database, m: &Interpretation) -> bool {
    debug_assert!(
        normal.rules().iter().all(|r| r.head().len() <= 1),
        "polynomial stability check requires a normal program"
    );
    if !normal.satisfied_by(m) {
        return false;
    }
    active_atoms(&gl_reduct(normal, m)) == *m
}

/// Visits the disjunctive stable models of a **head-cycle-free** database:
/// the same minimal-model enumeration as [`crate::dsm::for_each_stable_model`],
/// but with the per-candidate stability oracle call replaced by the
/// polynomial shifted-program check ([`normal_is_stable`]). Sound and
/// complete for HCF databases by Ben-Eliyahu & Dechter. Each round starts
/// with a budget checkpoint, so an exhausted [`ddb_obs::Budget`]
/// interrupts between rounds.
pub fn for_each_hcf_stable_model(
    db: &Database,
    cost: &mut Cost,
    mut visit: impl FnMut(&Interpretation) -> bool,
) -> Governed<()> {
    let shifted = shift(db);
    let n = db.num_atoms();
    let mut candidates = Solver::from_cnf(&database_to_cnf(db));
    candidates.ensure_vars(n);
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
            let minimal = minimal::minimize(db, &model, cost)?;
            ddb_obs::counter_bump("route.hcf.stability_checks", 1);
            if normal_is_stable(&shifted, &minimal) && !visit(&minimal) {
                return Ok(());
            }
            let blocking: Vec<Literal> = minimal.iter().map(|a| a.neg()).collect();
            if blocking.is_empty() || !candidates.add_clause(&blocking) {
                return Ok(());
            }
        }
    };
    let result = run(cost, &mut candidates);
    cost.absorb(&candidates);
    result
}

/// HCF fast path for [`crate::dsm::models`].
pub fn hcf_dsm_models(db: &Database, cost: &mut Cost) -> Governed<Vec<Interpretation>> {
    let mut out = Vec::new();
    for_each_hcf_stable_model(db, cost, |m| {
        out.push(m.clone());
        true
    })?;
    out.sort();
    Ok(out)
}

/// HCF fast path for DSM formula inference (cautious; vacuously true
/// without stable models).
pub fn hcf_dsm_infers_formula(db: &Database, f: &Formula, cost: &mut Cost) -> Governed<bool> {
    let mut holds = true;
    for_each_hcf_stable_model(db, cost, |m| {
        if !f.eval(m) {
            holds = false;
            return false;
        }
        true
    })?;
    Ok(holds)
}

/// HCF fast path for DSM model existence.
pub fn hcf_dsm_has_model(db: &Database, cost: &mut Cost) -> Governed<bool> {
    let mut found = false;
    for_each_hcf_stable_model(db, cost, |_| {
        found = true;
        false
    })?;
    Ok(found)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddb_logic::parse::{parse_formula, parse_program};

    #[test]
    fn horn_least_model_and_consistency() {
        let db = parse_program("a. b :- a. c :- b, d.").unwrap();
        let p = Prepared::borrowed(&db);
        let (least, consistent) = horn_least_model(&p);
        assert!(consistent);
        assert_eq!(least.count(), 2); // a, b
        let bad = parse_program("a. b :- a. :- b.").unwrap();
        let bad = Prepared::borrowed(&bad);
        assert!(!horn_has_model(&bad));
        assert!(horn_models(&bad).is_empty());
        // Vacuous inference on inconsistent databases.
        let f = parse_formula("false", bad.db().symbols()).unwrap();
        assert!(horn_infers_formula(&bad, &f));
    }

    #[test]
    fn horn_agrees_with_generic_dsm() {
        let db = parse_program("a. b :- a. c :- b, d. :- e.").unwrap();
        let mut cost = Cost::new();
        assert_eq!(
            horn_models(&Prepared::borrowed(&db)),
            crate::dsm::models(&db, &mut cost).unwrap()
        );
        assert!(cost.sat_calls > 0, "generic path pays oracle calls");
    }

    #[test]
    fn hcf_path_matches_generic_dsm() {
        for src in [
            "a | b. c :- a. c :- b.",
            "a | b :- not c. c :- not d. d :- not c.",
            "a | b :- c. c :- b.",
        ] {
            let db = parse_program(src).unwrap();
            assert!(ddb_analysis::classify(&db).head_cycle_free, "{src}");
            let mut c1 = Cost::new();
            let mut c2 = Cost::new();
            assert_eq!(
                hcf_dsm_models(&db, &mut c1).unwrap(),
                crate::dsm::models(&db, &mut c2).unwrap(),
                "{src}"
            );
        }
    }

    #[test]
    fn normal_stability_check_matches_oracle_check() {
        let db = parse_program("p :- not q. q :- not p. r :- p.").unwrap();
        let mut cost = Cost::new();
        let n = db.num_atoms();
        for bits in 0u32..(1 << n) {
            let m = Interpretation::from_atoms(
                n,
                (0..n as u32)
                    .filter(|&i| bits >> i & 1 == 1)
                    .map(ddb_logic::Atom::new),
            );
            assert_eq!(
                normal_is_stable(&db, &m),
                crate::dsm::is_stable_model(&db, &m, &mut cost).unwrap(),
                "at {m:?}"
            );
        }
    }
}
