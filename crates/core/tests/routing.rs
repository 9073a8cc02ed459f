//! Seeded property tests for the analysis-driven dispatch fast paths:
//! whatever route the classifier picks, the answers must be identical to
//! the generic oracle-based procedures, and the head-cycle-free detector
//! must agree with the brute-force semantics of the shifted program.

use ddb_core::{route, RoutingMode, SemanticsConfig, SemanticsId};
use ddb_logic::rng::XorShift64Star;
use ddb_logic::{Atom, Database, Formula, Interpretation, Rule};
use ddb_models::Cost;

const N: usize = 4;

fn random_horn_db(rng: &mut XorShift64Star) -> Database {
    let mut db = Database::with_fresh_atoms(N);
    for _ in 0..rng.gen_range(0, 7) {
        // Head of size 0 (integrity clause) or 1, positive body only.
        let h: Vec<u32> = (0..rng.gen_range(0, 2))
            .map(|_| rng.gen_range(0, N) as u32)
            .collect();
        let bp: Vec<u32> = (0..rng.gen_range(0, 3))
            .map(|_| rng.gen_range(0, N) as u32)
            .collect();
        db.add_rule(Rule::new(
            h.into_iter().map(Atom::new),
            bp.into_iter().map(Atom::new),
            [],
        ));
    }
    db
}

fn random_disjunctive_db(rng: &mut XorShift64Star, allow_neg: bool) -> Database {
    let mut db = Database::with_fresh_atoms(N);
    for _ in 0..rng.gen_range(0, 6) {
        let h: Vec<u32> = (0..rng.gen_range(1, 3))
            .map(|_| rng.gen_range(0, N) as u32)
            .collect();
        let bp: Vec<u32> = (0..rng.gen_range(0, 3))
            .map(|_| rng.gen_range(0, N) as u32)
            .collect();
        let bn: Vec<u32> = (0..rng.gen_range(0, 1 + 2 * usize::from(allow_neg)))
            .map(|_| rng.gen_range(0, N) as u32)
            .collect();
        db.add_rule(Rule::new(
            h.into_iter().map(Atom::new),
            bp.into_iter().map(Atom::new),
            bn.into_iter().map(Atom::new),
        ));
    }
    db
}

fn all_interpretations() -> impl Iterator<Item = Interpretation> {
    (0u32..(1 << N)).map(|bits| {
        Interpretation::from_atoms(
            N,
            (0..N as u32).filter(|&i| bits >> i & 1 == 1).map(Atom::new),
        )
    })
}

/// Compare the auto-routed and generic answers for one semantics on one
/// database, across all four public dispatch entry points.
fn assert_routes_agree(id: SemanticsId, db: &Database) {
    let auto = SemanticsConfig::new(id);
    let generic = SemanticsConfig::new(id).with_routing(RoutingMode::Generic);
    let mut ca = Cost::new();
    let mut cg = Cost::new();

    let ma = auto.models(db, &mut ca);
    let mg = generic.models(db, &mut cg);
    match (&ma, &mg) {
        (Ok(a), Ok(g)) => assert_eq!(a, g, "{id:?} models on {db:?}"),
        (Err(_), Err(_)) => return, // unsupported either way; nothing to compare
        _ => panic!("{id:?}: routed and generic disagree on applicability for {db:?}"),
    }

    assert_eq!(
        auto.has_model(db, &mut ca).unwrap(),
        generic.has_model(db, &mut cg).unwrap(),
        "{id:?} has_model on {db:?}"
    );
    for i in 0..db.num_atoms() as u32 {
        for lit in [Atom::new(i).pos(), Atom::new(i).neg()] {
            let f = Formula::from(lit);
            assert_eq!(
                auto.infers_formula(db, &f, &mut ca).unwrap(),
                generic.infers_formula(db, &f, &mut cg).unwrap(),
                "{id:?} literal {lit:?} on {db:?}"
            );
        }
    }
    let f = Formula::Or(vec![
        Formula::Atom(Atom::new(0)),
        Formula::Atom(Atom::new(1)).negated(),
    ]);
    assert_eq!(
        auto.infers_formula(db, &f, &mut ca).unwrap(),
        generic.infers_formula(db, &f, &mut cg).unwrap(),
        "{id:?} infers_formula on {db:?}"
    );
}

#[test]
fn horn_fast_path_agrees_with_generic_for_all_ten_semantics() {
    let mut rng = XorShift64Star::seed_from_u64(0xDDB_0301);
    for _ in 0..60 {
        let db = random_horn_db(&mut rng);
        assert!(ddb_analysis::classify(&db).horn, "generator broke: {db:?}");
        for id in SemanticsId::ALL {
            assert_routes_agree(id, &db);
        }
    }
}

#[test]
fn horn_fast_path_pays_no_oracle_calls() {
    let mut rng = XorShift64Star::seed_from_u64(0xDDB_0302);
    for _ in 0..30 {
        let db = random_horn_db(&mut rng);
        for id in SemanticsId::ALL {
            let mut cost = Cost::new();
            if SemanticsConfig::new(id).models(&db, &mut cost).is_ok() {
                assert_eq!(cost.sat_calls, 0, "{id:?} paid oracle calls on Horn {db:?}");
            }
        }
    }
}

#[test]
fn hcf_routing_agrees_with_generic_dsm() {
    let mut rng = XorShift64Star::seed_from_u64(0xDDB_0303);
    let mut hcf_seen = 0;
    for _ in 0..80 {
        let db = random_disjunctive_db(&mut rng, true);
        if !ddb_analysis::classify(&db).head_cycle_free {
            continue;
        }
        hcf_seen += 1;
        assert_routes_agree(SemanticsId::Dsm, &db);
    }
    assert!(hcf_seen >= 20, "generator produced too few HCF cases");
}

#[test]
fn hcf_detection_matches_shifted_program_stability_brute_force() {
    // Ben-Eliyahu & Dechter: on head-cycle-free databases the disjunctive
    // stable models are exactly the stable models of the shifted normal
    // program. Check the classifier's HCF verdict against a brute-force
    // sweep of all interpretations.
    let mut rng = XorShift64Star::seed_from_u64(0xDDB_0304);
    let mut checked = 0;
    for _ in 0..80 {
        let db = random_disjunctive_db(&mut rng, true);
        if !ddb_analysis::classify(&db).head_cycle_free {
            continue;
        }
        checked += 1;
        let shifted = ddb_analysis::shift(&db);
        let mut via_shift: Vec<Interpretation> = all_interpretations()
            .filter(|m| route::normal_is_stable(&shifted, m))
            .collect();
        via_shift.sort();
        let mut cost = Cost::new();
        let generic = SemanticsConfig::new(SemanticsId::Dsm)
            .with_routing(RoutingMode::Generic)
            .models(&db, &mut cost)
            .unwrap()
            .expect_complete();
        assert_eq!(via_shift, generic, "shift/stability mismatch on {db:?}");
    }
    assert!(checked >= 20, "generator produced too few HCF cases");
}

#[test]
fn head_cycle_stays_on_generic_route() {
    // The canonical non-HCF witness: both head atoms share a positive
    // cycle, and shifting is unsound (shift has no stable model containing
    // both, yet the disjunctive program's semantics must still be served).
    let db = ddb_logic::parse::parse_program("a | b. a :- b. b :- a.").unwrap();
    assert!(!ddb_analysis::classify(&db).head_cycle_free);
    assert_routes_agree(SemanticsId::Dsm, &db);
}

/// Model existence on `guarded_towers(8,3)` takes the islands route: its
/// eight towers share no atom. Each tower carries an integrity clause, so
/// no island is positive and every island asks the oracle instead of
/// taking the `O(1)` positive leaf.
#[test]
fn islands_route_fires_and_agrees_with_generic() {
    let db = ddb_workloads::structured::guarded_towers(8, 3);
    let generic = SemanticsConfig::new(SemanticsId::Gcwa).with_routing(RoutingMode::Generic);
    let mut cost = Cost::new();
    let base = generic.has_model(&db, &mut cost).unwrap();
    assert_eq!(base.as_bool(), Some(true));
    let cfg = SemanticsConfig::new(SemanticsId::Gcwa);
    let mut cost = Cost::new();
    let (routed, rec) = ddb_obs::record(false, || cfg.has_model(&db, &mut cost).unwrap());
    assert_eq!(routed, base);
    assert_eq!(
        rec.counters.get("route.islands"),
        1,
        "the islands route must fire"
    );
    assert_eq!(rec.counters.get("route.islands.components"), 8);
}
