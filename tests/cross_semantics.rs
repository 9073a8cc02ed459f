//! Cross-semantics integration tests: the structural relationships the
//! paper states (or uses silently) between the ten semantics, checked on
//! randomized instance families spanning all syntactic classes.

use disjunctive_db::prelude::*;
use disjunctive_db::workloads::random::{random_db, random_stratified_db, DbSpec};

fn models_of(db: &Database, id: SemanticsId, cost: &mut Cost) -> Vec<Interpretation> {
    SemanticsConfig::new(id)
        .models(db, cost)
        .expect("applicable")
        .expect_complete()
}

fn subset(a: &[Interpretation], b: &[Interpretation]) -> bool {
    a.iter().all(|m| b.contains(m))
}

#[test]
fn model_set_inclusions_on_positive_dbs() {
    // On positive DBs: MM = EGCWA ⊆ GCWA ⊆ DDR (WGCWA is weaker), and
    // MM ⊆ PWS ⊆ M(DB) ∩ (active-closed).
    for seed in 0..25 {
        let db = random_db(&DbSpec::positive(6, 10), seed);
        let mut cost = Cost::new();
        let egcwa = models_of(&db, SemanticsId::Egcwa, &mut cost);
        let gcwa = models_of(&db, SemanticsId::Gcwa, &mut cost);
        let ddr = models_of(&db, SemanticsId::Ddr, &mut cost);
        let pws = models_of(&db, SemanticsId::Pws, &mut cost);
        assert!(subset(&egcwa, &gcwa), "MM ⊆ GCWA (seed {seed})");
        assert!(subset(&gcwa, &ddr), "GCWA ⊆ DDR (seed {seed})");
        assert!(subset(&egcwa, &pws), "MM ⊆ PM (seed {seed})");
        assert!(subset(&pws, &ddr), "PM ⊆ DDR models (seed {seed})");
    }
}

#[test]
fn inference_strength_ordering() {
    // Smaller model set ⇒ stronger inference: everything EGCWA refuses,
    // GCWA refuses; everything DDR infers, GCWA infers.
    use disjunctive_db::workloads::queries::random_formula;
    for seed in 0..15 {
        let db = random_db(&DbSpec::positive(5, 8), seed);
        let f = random_formula(5, 5, seed);
        let mut cost = Cost::new();
        let mut infers = |id| {
            SemanticsConfig::new(id)
                .infers_formula(&db, &f, &mut cost)
                .unwrap()
                .definite()
        };
        let ddr = infers(SemanticsId::Ddr);
        let gcwa = infers(SemanticsId::Gcwa);
        let egcwa = infers(SemanticsId::Egcwa);
        if ddr {
            assert!(gcwa, "DDR ⊨ F ⇒ GCWA ⊨ F (seed {seed})");
        }
        if gcwa {
            assert!(egcwa, "GCWA ⊨ F ⇒ EGCWA ⊨ F (seed {seed})");
        }
    }
}

#[test]
fn coincidences_on_positive_dbs() {
    // EGCWA = ECWA(minimize-all) = DSM = PERF = ICWA(⟨V⟩) on positive DBs.
    for seed in 0..25 {
        let db = random_db(&DbSpec::positive(6, 10), seed);
        let mut cost = Cost::new();
        let reference = models_of(&db, SemanticsId::Egcwa, &mut cost);
        for id in [
            SemanticsId::Ecwa,
            SemanticsId::Dsm,
            SemanticsId::Perf,
            SemanticsId::Icwa,
            SemanticsId::Pdsm,
        ] {
            assert_eq!(
                models_of(&db, id, &mut cost),
                reference,
                "{id} vs EGCWA (seed {seed})"
            );
        }
    }
}

#[test]
fn stable_models_are_minimal_and_perfect_on_stratified() {
    for seed in 0..25 {
        let db = random_stratified_db(8, 14, 3, seed);
        let mut cost = Cost::new();
        let stable = models_of(&db, SemanticsId::Dsm, &mut cost);
        let minimal = disjunctive_db::models::minimal::minimal_models(&db, &mut cost).unwrap();
        assert!(subset(&stable, &minimal), "DSM ⊆ MM (seed {seed})");
        // On stratified databases PERF = DSM (Przymusinski).
        let perfect = models_of(&db, SemanticsId::Perf, &mut cost);
        assert_eq!(stable, perfect, "PERF = DSM stratified (seed {seed})");
        // And ICWA captures the same model set.
        let icwa = models_of(&db, SemanticsId::Icwa, &mut cost);
        assert_eq!(perfect, icwa, "ICWA = PERF stratified (seed {seed})");
    }
}

#[test]
fn total_pdsm_equals_dsm_everywhere() {
    for seed in 0..20 {
        let db = random_db(&DbSpec::normal(5, 8), seed);
        let mut cost = Cost::new();
        let stable = disjunctive_db::core::dsm::models(&db, &mut cost).unwrap();
        let totals: Vec<Interpretation> = disjunctive_db::core::pdsm::models(&db, &mut cost)
            .unwrap()
            .into_iter()
            .filter(|p| p.is_total())
            .map(|p| p.to_total())
            .collect();
        let mut sorted = totals;
        sorted.sort();
        assert_eq!(sorted, stable, "seed {seed}");
    }
}

#[test]
fn ccwa_between_gcwa_and_nothing() {
    // CCWA with P = V is GCWA; with P = ∅ it closes nothing (model set =
    // all models, inference = classical entailment).
    use disjunctive_db::workloads::queries::random_formula;
    for seed in 0..15 {
        let db = random_db(&DbSpec::deductive(5, 8), seed);
        let f = random_formula(5, 5, seed + 100);
        let mut cost = Cost::new();
        let all_p = Partition::minimize_all(db.num_atoms());
        let no_p = Partition::from_p_q(db.num_atoms(), [], []);
        let ccwa = |part: &Partition, cost: &mut Cost| {
            disjunctive_db::core::ccwa::countermodel(&db, part, &f, cost)
                .unwrap()
                .is_none()
        };
        let gcwa = SemanticsConfig::new(SemanticsId::Gcwa)
            .infers_formula(&db, &f, &mut cost)
            .unwrap()
            .definite();
        assert_eq!(
            ccwa(&all_p, &mut cost),
            gcwa,
            "CCWA(P=V) = GCWA (seed {seed})"
        );
        let none = Interpretation::empty(db.num_atoms());
        let classical = disjunctive_db::models::classical::countermodel(&db, &none, &f, &mut cost)
            .unwrap()
            .is_none();
        assert_eq!(
            ccwa(&no_p, &mut cost),
            classical,
            "CCWA(P=∅) = classical (seed {seed})"
        );
    }
}

#[test]
fn existence_equivalences() {
    // For the CWA-family semantics, nonemptiness ⇔ classical
    // satisfiability on every class where they are defined.
    for seed in 0..20 {
        let db = random_db(&DbSpec::deductive(6, 12), seed);
        let mut cost = Cost::new();
        let sat = disjunctive_db::models::classical::is_satisfiable(&db, &mut cost).unwrap();
        for id in [
            SemanticsId::Gcwa,
            SemanticsId::Egcwa,
            SemanticsId::Ccwa,
            SemanticsId::Ecwa,
            SemanticsId::Ddr,
        ] {
            let cfg = SemanticsConfig::new(id);
            assert_eq!(
                cfg.has_model(&db, &mut cost).unwrap(),
                sat,
                "{id} existence ⇔ SAT (seed {seed})"
            );
        }
    }
}
