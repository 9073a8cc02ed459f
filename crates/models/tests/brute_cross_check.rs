//! Randomized cross-checks: every oracle-based procedure in `ddb-models`
//! must agree with the brute-force definitions on random small databases.
//! Driven by the in-repo deterministic PRNG (formerly proptest).

use ddb_logic::rng::XorShift64Star;
use ddb_logic::{Atom, Database, Formula, Interpretation, Rule};
use ddb_models::{brute, circumscribe, classical, fixpoint, minimal, Cost, Partition};

const N: usize = 5;
const CASES: usize = 150;

/// Random rule over `N` atoms. `allow_neg`/`allow_integrity` gate the
/// syntactic class.
fn random_rule(rng: &mut XorShift64Star, allow_neg: bool, allow_integrity: bool) -> Rule {
    let lo = usize::from(!allow_integrity);
    let h: Vec<u32> = (0..rng.gen_range_inclusive(lo, 2))
        .map(|_| rng.gen_range(0, N) as u32)
        .collect();
    let bp: Vec<u32> = (0..rng.gen_range_inclusive(0, 2))
        .map(|_| rng.gen_range(0, N) as u32)
        .collect();
    let bn: Vec<u32> = (0..rng.gen_range_inclusive(0, 2 * usize::from(allow_neg)))
        .map(|_| rng.gen_range(0, N) as u32)
        .collect();
    Rule::new(
        h.into_iter().map(Atom::new),
        bp.into_iter().map(Atom::new),
        bn.into_iter().map(Atom::new),
    )
}

fn random_db(rng: &mut XorShift64Star, allow_neg: bool, allow_integrity: bool) -> Database {
    let mut db = Database::with_fresh_atoms(N);
    for _ in 0..rng.gen_range(0, 8) {
        db.add_rule(random_rule(rng, allow_neg, allow_integrity));
    }
    db
}

/// Random formula of depth ≤ 3 over the first `N` atoms.
fn random_formula(rng: &mut XorShift64Star, depth: usize) -> Formula {
    if depth == 0 || rng.gen_bool(0.3) {
        return match rng.gen_range(0, 7) {
            0..=4 => Formula::Atom(Atom::new(rng.gen_range(0, N) as u32)),
            5 => Formula::True,
            _ => Formula::False,
        };
    }
    match rng.gen_range(0, 5) {
        0 => random_formula(rng, depth - 1).negated(),
        1 => Formula::And(
            (0..rng.gen_range_inclusive(1, 2))
                .map(|_| random_formula(rng, depth - 1))
                .collect(),
        ),
        2 => Formula::Or(
            (0..rng.gen_range_inclusive(1, 2))
                .map(|_| random_formula(rng, depth - 1))
                .collect(),
        ),
        3 => random_formula(rng, depth - 1).implies(random_formula(rng, depth - 1)),
        _ => random_formula(rng, depth - 1).iff(random_formula(rng, depth - 1)),
    }
}

/// Random closed set `N` of atoms (each atom with probability ¼), the
/// negations a closed-world semantics adds to `DB`.
fn random_closed(rng: &mut XorShift64Star) -> Interpretation {
    Interpretation::from_atoms(
        N,
        (0..N as u32).filter(|_| rng.gen_bool(0.25)).map(Atom::new),
    )
}

/// The brute-force models of `DB ∪ ¬N`.
fn closed_models(db: &Database, closed: &Interpretation) -> Vec<Interpretation> {
    brute::models(db)
        .into_iter()
        .filter(|m| closed.iter().all(|a| !m.contains(a)))
        .collect()
}

/// Random partition of the `N` atoms into P/Q/Z.
fn random_partition(rng: &mut XorShift64Star) -> Partition {
    let assignment: Vec<u8> = (0..N).map(|_| rng.gen_range(0, 3) as u8).collect();
    let p = (0..N)
        .filter(|&i| assignment[i] == 0)
        .map(|i| Atom::new(i as u32));
    let q = (0..N)
        .filter(|&i| assignment[i] == 1)
        .map(|i| Atom::new(i as u32));
    Partition::from_p_q(N, p, q)
}

#[test]
fn sat_models_match_brute() {
    let mut rng = XorShift64Star::seed_from_u64(0xB01);
    for case in 0..CASES {
        let db = random_db(&mut rng, true, true);
        let closed = random_closed(&mut rng);
        let mut cost = Cost::new();
        assert_eq!(
            classical::models(&db, &closed, &mut cost).unwrap(),
            closed_models(&db, &closed),
            "case {case}"
        );
    }
}

#[test]
fn minimal_models_match_brute() {
    let mut rng = XorShift64Star::seed_from_u64(0xB02);
    for case in 0..CASES {
        let db = random_db(&mut rng, true, true);
        let mut cost = Cost::new();
        assert_eq!(
            minimal::minimal_models(&db, &mut cost).unwrap(),
            brute::minimal_models(&db),
            "case {case}"
        );
    }
}

#[test]
fn pz_minimal_models_match_brute() {
    let mut rng = XorShift64Star::seed_from_u64(0xB03);
    for case in 0..CASES {
        let db = random_db(&mut rng, true, true);
        let part = random_partition(&mut rng);
        let mut cost = Cost::new();
        assert_eq!(
            minimal::pz_minimal_models(&db, &part, &mut cost).unwrap(),
            brute::pz_minimal_models(&db, &part),
            "case {case}"
        );
    }
}

#[test]
fn incremental_pz_enumeration_never_costs_more_oracle_calls() {
    // The incremental expander (one solver, activation-guarded signature
    // clauses) must return the same model sets as the fresh-solver
    // baseline at the same oracle-call count — learnt clauses may only
    // cheapen the calls, never add or change them.
    let mut rng = XorShift64Star::seed_from_u64(0xB0B);
    for case in 0..CASES {
        let db = random_db(&mut rng, true, true);
        let part = random_partition(&mut rng);
        let mut inc_cost = Cost::new();
        let inc = minimal::pz_minimal_models(&db, &part, &mut inc_cost).unwrap();
        let mut fresh_cost = Cost::new();
        let fresh = minimal::pz_minimal_models_fresh(&db, &part, &mut fresh_cost).unwrap();
        assert_eq!(inc, fresh, "case {case}");
        assert!(
            inc_cost.sat_calls <= fresh_cost.sat_calls,
            "case {case}: incremental used {} oracle calls, fresh used {}",
            inc_cost.sat_calls,
            fresh_cost.sat_calls
        );
    }
}

#[test]
fn minimize_lands_on_brute_minimal() {
    let mut rng = XorShift64Star::seed_from_u64(0xB04);
    for case in 0..CASES {
        let db = random_db(&mut rng, true, true);
        let mut cost = Cost::new();
        if let Some(m) = classical::some_model(&db, &mut cost).unwrap() {
            let minimal = minimal::minimize(&db, &m, &mut cost).unwrap();
            assert!(brute::minimal_models(&db).contains(&minimal), "case {case}");
            assert!(minimal.is_subset(&m), "case {case}");
        }
    }
}

#[test]
fn cegar_matches_brute() {
    let mut rng = XorShift64Star::seed_from_u64(0xB05);
    for case in 0..CASES {
        let db = random_db(&mut rng, true, true);
        let f = random_formula(&mut rng, 3);
        let mut cost = Cost::new();
        let expected = brute::holds_in_all(&brute::minimal_models(&db), &f);
        assert_eq!(
            circumscribe::holds_in_all_minimal_models(&db, &f, &mut cost).unwrap(),
            expected,
            "case {case}"
        );
    }
}

#[test]
fn cegar_pz_matches_brute() {
    let mut rng = XorShift64Star::seed_from_u64(0xB06);
    for case in 0..CASES {
        let db = random_db(&mut rng, true, true);
        let f = random_formula(&mut rng, 3);
        let part = random_partition(&mut rng);
        let mut cost = Cost::new();
        let expected = brute::holds_in_all(&brute::pz_minimal_models(&db, &part), &f);
        assert_eq!(
            circumscribe::holds_in_all_pz_minimal_models(&db, &part, &f, &mut cost).unwrap(),
            expected,
            "case {case}"
        );
    }
}

#[test]
fn cegar_witness_is_sound_and_complete() {
    let mut rng = XorShift64Star::seed_from_u64(0xB07);
    for case in 0..CASES {
        let db = random_db(&mut rng, true, true);
        let f = random_formula(&mut rng, 3);
        let part = random_partition(&mut rng);
        let mut cost = Cost::new();
        let witness =
            circumscribe::find_pz_minimal_model_satisfying(&db, &part, &f, &mut cost).unwrap();
        let reference = brute::pz_minimal_models(&db, &part);
        match witness {
            Some(w) => {
                assert!(f.eval(&w), "case {case}");
                assert!(reference.contains(&w), "case {case}");
            }
            None => assert!(!reference.iter().any(|m| f.eval(m)), "case {case}"),
        }
    }
}

#[test]
fn active_atoms_match_explicit_fixpoint() {
    let mut rng = XorShift64Star::seed_from_u64(0xB08);
    for case in 0..CASES {
        // Positive databases only (DDR's domain). Cap generously; the
        // random instances are tiny.
        let db = random_db(&mut rng, false, true);
        if let Some(state) = fixpoint::model_state(&db, 50_000).unwrap() {
            assert_eq!(
                fixpoint::atoms_of_state(&state, db.num_atoms()),
                fixpoint::active_atoms(&db),
                "case {case}"
            );
        }
    }
}

#[test]
fn entailment_matches_brute() {
    let mut rng = XorShift64Star::seed_from_u64(0xB09);
    for case in 0..CASES {
        let db = random_db(&mut rng, true, true);
        let f = random_formula(&mut rng, 3);
        let closed = random_closed(&mut rng);
        let mut cost = Cost::new();
        let expected = brute::holds_in_all(&closed_models(&db, &closed), &f);
        let counter = classical::countermodel(&db, &closed, &f, &mut cost).unwrap();
        assert_eq!(counter.is_none(), expected, "case {case}");
        if let Some(m) = counter {
            assert!(db.satisfied_by(&m) && !f.eval(&m), "case {case}");
            assert!(closed.iter().all(|a| !m.contains(a)), "case {case}");
        }
    }
}

#[test]
fn componentwise_enumeration_matches_direct() {
    let mut rng = XorShift64Star::seed_from_u64(0xB0A);
    for case in 0..CASES {
        let db = random_db(&mut rng, true, true);
        let mut cost = Cost::new();
        let direct = minimal::minimal_models(&db, &mut cost).unwrap();
        assert_eq!(
            ddb_models::components::minimal_models_componentwise(&db, &mut cost).unwrap(),
            direct.clone(),
            "case {case}"
        );
        assert_eq!(
            ddb_models::components::count_minimal_models(&db, &mut cost).unwrap(),
            direct.len() as u128,
            "case {case}"
        );
    }
}
