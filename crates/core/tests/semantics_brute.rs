//! The repository's most important test file: every one of the ten
//! semantics, as implemented with oracle-based decision procedures, is
//! cross-checked against an *independent brute-force rendition of its
//! textbook definition* on random small databases. Randomization runs on
//! the in-repo deterministic PRNG (formerly proptest).

use ddb_core::witness::{self, QueryOutcome};
use ddb_core::{icwa::Layers, RoutingMode, SemanticsConfig, SemanticsId};
use ddb_core::{pdsm, perf, pws, reduct};
use ddb_logic::depgraph::DepGraph;
use ddb_logic::rng::XorShift64Star;
use ddb_logic::{Atom, Database, Formula, Interpretation, PartialInterpretation, Rule, TruthValue};
use ddb_models::{brute, Cost, Partition};

const N: usize = 4;
const CASES: usize = 120;

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
    for _ in 0..rng.gen_range(0, 7) {
        db.add_rule(random_rule(rng, allow_neg, allow_integrity));
    }
    db
}

fn random_formula(rng: &mut XorShift64Star, depth: usize) -> Formula {
    random_formula_over(rng, N, depth)
}

/// A random formula over the first `n` atoms.
fn random_formula_over(rng: &mut XorShift64Star, n: usize, depth: usize) -> Formula {
    if depth == 0 || rng.gen_bool(0.3) {
        return match rng.gen_range(0, 6) {
            0..=3 => Formula::Atom(Atom::new(rng.gen_range(0, n) as u32)),
            _ => Formula::True,
        };
    }
    match rng.gen_range(0, 4) {
        0 => random_formula_over(rng, n, depth - 1).negated(),
        1 => Formula::And(
            (0..rng.gen_range_inclusive(1, 2))
                .map(|_| random_formula_over(rng, n, depth - 1))
                .collect(),
        ),
        2 => Formula::Or(
            (0..rng.gen_range_inclusive(1, 2))
                .map(|_| random_formula_over(rng, n, depth - 1))
                .collect(),
        ),
        _ => random_formula_over(rng, n, depth - 1).implies(random_formula_over(rng, n, depth - 1)),
    }
}

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

/// Brute-force GCWA model set.
fn gcwa_models_brute(db: &Database) -> Vec<Interpretation> {
    let mm = brute::minimal_models(db);
    let false_atoms: Vec<Atom> = (0..N)
        .map(|i| Atom::new(i as u32))
        .filter(|&a| mm.iter().all(|m| !m.contains(a)))
        .collect();
    brute::models(db)
        .into_iter()
        .filter(|m| false_atoms.iter().all(|&a| !m.contains(a)))
        .collect()
}

/// Brute-force CCWA model set for a partition.
fn ccwa_models_brute(db: &Database, part: &Partition) -> Vec<Interpretation> {
    let pz_mm = brute::pz_minimal_models(db, part);
    let false_atoms: Vec<Atom> = part
        .p()
        .iter()
        .filter(|&a| pz_mm.iter().all(|m| !m.contains(a)))
        .collect();
    brute::models(db)
        .into_iter()
        .filter(|m| false_atoms.iter().all(|&a| !m.contains(a)))
        .collect()
}

/// Brute-force DDR model set.
fn ddr_models_brute(db: &Database) -> Vec<Interpretation> {
    let active = ddb_models::fixpoint::active_atoms(db);
    brute::models(db)
        .into_iter()
        .filter(|m| m.is_subset(&active))
        .collect()
}

/// Brute-force stable models: filter subsets by the reduct definition,
/// with minimality itself checked by brute force.
fn dsm_models_brute(db: &Database) -> Vec<Interpretation> {
    brute::models(db)
        .into_iter()
        .filter(|m| {
            let r = reduct::gl_reduct(db, m);
            brute::minimal_models(&r).contains(m)
        })
        .collect()
}

/// Brute-force perfect models: pairwise preference over all model pairs,
/// with the priority relation from `perf::priority_lt` (itself unit-tested
/// against hand examples).
fn perf_models_brute(db: &Database) -> Vec<Interpretation> {
    let lt = perf::priority_lt(db);
    let ms = brute::models(db);
    let preferable = |n: &Interpretation, m: &Interpretation| -> bool {
        if n == m {
            return false;
        }
        n.iter().all(|x| {
            m.contains(x)
                || lt[x.index()]
                    .iter()
                    .any(|y| m.contains(y) && !n.contains(y))
        })
    };
    ms.iter()
        .filter(|m| !ms.iter().any(|n2| preferable(n2, m)))
        .cloned()
        .collect()
}

/// Brute-force ICWA models along the default stratification, with `z`
/// varying.
fn icwa_models_brute(db: &Database, z: &Interpretation) -> Option<Vec<Interpretation>> {
    let strata = db.stratification()?;
    let layers = Layers::new(db, &strata, z);
    let full = brute::models(db);
    Some(
        full.iter()
            .filter(|m| {
                (0..layers.len()).all(|i| {
                    let prefix = layers.prefix(i);
                    let part = layers.partition(i);
                    prefix.satisfied_by(m) && !brute::models(prefix).iter().any(|m2| part.lt(m2, m))
                })
            })
            .cloned()
            .collect(),
    )
}

/// A random set of varying atoms, each atom in it with probability ⅓.
fn random_varying(rng: &mut XorShift64Star) -> Interpretation {
    let atoms = (0..N).filter(|_| rng.gen_range(0, 3) == 0);
    Interpretation::from_atoms(N, atoms.map(|i| Atom::new(i as u32)))
}

/// All 3^N partial interpretations.
fn all_partials() -> Vec<PartialInterpretation> {
    let mut out = Vec::new();
    for code in 0..3usize.pow(N as u32) {
        let mut p = PartialInterpretation::undefined(N);
        let mut c = code;
        for i in 0..N {
            let a = Atom::new(i as u32);
            match c % 3 {
                0 => p.set(a, TruthValue::False),
                1 => p.set(a, TruthValue::Undefined),
                _ => p.set(a, TruthValue::True),
            }
            c /= 3;
        }
        out.push(p);
    }
    out
}

/// Brute-force partial stable models by the 3-valued definition.
fn pdsm_models_brute(db: &Database) -> Vec<PartialInterpretation> {
    let partials = all_partials();
    partials
        .iter()
        .filter(|i| {
            let rules = reduct::reduct3(db, i);
            if !reduct::satisfies_reduct3(&rules, i) {
                return false;
            }
            !partials.iter().any(|j| {
                j.truth_cmp(i) == Some(std::cmp::Ordering::Less)
                    && reduct::satisfies_reduct3(&rules, j)
            })
        })
        .cloned()
        .collect()
}

fn check_inference(
    id: SemanticsId,
    cfg: &SemanticsConfig,
    db: &Database,
    f: &Formula,
    reference: &[Interpretation],
    case: usize,
) {
    let mut cost = Cost::new();
    let expected = reference.iter().all(|m| f.eval(m));
    let got = cfg
        .infers_formula(db, f, &mut cost)
        .expect("applicable by construction");
    assert_eq!(got, expected, "{id} inference mismatch, case {case}");
    let nonempty = cfg.has_model(db, &mut cost).expect("applicable");
    assert_eq!(
        nonempty,
        !reference.is_empty(),
        "{id} existence mismatch, case {case}"
    );
}

#[test]
fn gcwa_matches_brute() {
    let mut rng = XorShift64Star::seed_from_u64(0x5B01);
    for case in 0..CASES {
        let db = random_db(&mut rng, true, true);
        let f = random_formula(&mut rng, 3);
        let cfg = SemanticsConfig::new(SemanticsId::Gcwa);
        let mut cost = Cost::new();
        let reference = gcwa_models_brute(&db);
        assert_eq!(
            cfg.models(&db, &mut cost).unwrap(),
            reference,
            "case {case}"
        );
        check_inference(SemanticsId::Gcwa, &cfg, &db, &f, &reference, case);
    }
}

#[test]
fn egcwa_matches_brute() {
    let mut rng = XorShift64Star::seed_from_u64(0x5B02);
    for case in 0..CASES {
        let db = random_db(&mut rng, true, true);
        let f = random_formula(&mut rng, 3);
        let cfg = SemanticsConfig::new(SemanticsId::Egcwa);
        let mut cost = Cost::new();
        let reference = brute::minimal_models(&db);
        assert_eq!(
            cfg.models(&db, &mut cost).unwrap(),
            reference,
            "case {case}"
        );
        check_inference(SemanticsId::Egcwa, &cfg, &db, &f, &reference, case);
    }
}

#[test]
fn ccwa_matches_brute() {
    let mut rng = XorShift64Star::seed_from_u64(0x5B03);
    for case in 0..CASES {
        let db = random_db(&mut rng, true, true);
        let f = random_formula(&mut rng, 3);
        let part = random_partition(&mut rng);
        let cfg = SemanticsConfig::new(SemanticsId::Ccwa).with_partition(part.clone());
        let mut cost = Cost::new();
        let reference = ccwa_models_brute(&db, &part);
        assert_eq!(
            cfg.models(&db, &mut cost).unwrap(),
            reference,
            "case {case}"
        );
        check_inference(SemanticsId::Ccwa, &cfg, &db, &f, &reference, case);
    }
}

#[test]
fn ecwa_matches_brute() {
    let mut rng = XorShift64Star::seed_from_u64(0x5B04);
    for case in 0..CASES {
        let db = random_db(&mut rng, true, true);
        let f = random_formula(&mut rng, 3);
        let part = random_partition(&mut rng);
        let cfg = SemanticsConfig::new(SemanticsId::Ecwa).with_partition(part.clone());
        let mut cost = Cost::new();
        let reference = brute::pz_minimal_models(&db, &part);
        assert_eq!(
            cfg.models(&db, &mut cost).unwrap(),
            reference,
            "case {case}"
        );
        check_inference(SemanticsId::Ecwa, &cfg, &db, &f, &reference, case);
    }
}

#[test]
fn ddr_matches_brute() {
    let mut rng = XorShift64Star::seed_from_u64(0x5B05);
    for case in 0..CASES {
        let db = random_db(&mut rng, false, true);
        let f = random_formula(&mut rng, 3);
        let cfg = SemanticsConfig::new(SemanticsId::Ddr);
        let mut cost = Cost::new();
        let reference = ddr_models_brute(&db);
        assert_eq!(
            cfg.models(&db, &mut cost).unwrap(),
            reference,
            "case {case}"
        );
        check_inference(SemanticsId::Ddr, &cfg, &db, &f, &reference, case);
    }
}

#[test]
fn pws_matches_split_reference() {
    let mut rng = XorShift64Star::seed_from_u64(0x5B06);
    for case in 0..CASES {
        let db = random_db(&mut rng, false, true);
        let f = random_formula(&mut rng, 3);
        let cfg = SemanticsConfig::new(SemanticsId::Pws);
        let mut cost = Cost::new();
        let reference = pws::possible_models_by_splits(&db);
        assert_eq!(
            cfg.models(&db, &mut cost).unwrap(),
            reference,
            "case {case}"
        );
        check_inference(SemanticsId::Pws, &cfg, &db, &f, &reference, case);
    }
}

/// A random positive database over 1–8 atoms with at most four
/// disjunctive rules, its definite rules biased towards positive cycles
/// (bodies of one or two atoms), and integrity clauses when `integrity`.
fn random_positive_db(rng: &mut XorShift64Star, integrity: bool) -> Database {
    let n = rng.gen_range_inclusive(1, 8);
    let atoms = |rng: &mut XorShift64Star, lo: usize, hi: usize| -> Vec<Atom> {
        (0..rng.gen_range_inclusive(lo, hi))
            .map(|_| Atom::new(rng.gen_range(0, n) as u32))
            .collect()
    };
    let mut db = Database::with_fresh_atoms(n);
    for _ in 0..rng.gen_range_inclusive(0, 4) {
        let head = atoms(rng, 2, 3);
        let body = atoms(rng, 0, 1);
        db.add_rule(Rule::new(head, body, []));
    }
    for _ in 0..rng.gen_range_inclusive(0, 2 * n) {
        let head = atoms(rng, 1, 1);
        let body = atoms(rng, 0, 2);
        db.add_rule(Rule::new(head, body, []));
    }
    if integrity {
        for _ in 0..rng.gen_range_inclusive(1, 2) {
            db.add_rule(Rule::integrity(atoms(rng, 1, 2), []));
        }
    }
    db
}

/// The possible-model encoding ranks atoms only inside positive cycles;
/// this suite pins it to the split reference on databases large enough
/// for multi-bit ranks: `models`, cautious inference, countermodels and
/// existence all agree with the reference set.
#[test]
fn pws_encoding_matches_splits_up_to_eight_atoms() {
    const PWS_CASES: usize = 2000;
    let mut rng = XorShift64Star::seed_from_u64(0x5B19);
    let mut ranked = 0;
    for case in 0..PWS_CASES {
        let db = random_positive_db(&mut rng, case % 2 == 1);
        let f = random_formula_over(&mut rng, db.num_atoms(), 3);
        let sizes = DepGraph::of_database(&db).positive_sccs().sizes();
        ranked += usize::from(sizes.iter().any(|&s| s >= 3));
        let reference = pws::possible_models_by_splits(&db);
        let mut cost = Cost::new();
        assert_eq!(
            pws::models(&db, &mut cost).unwrap(),
            reference,
            "case {case}"
        );
        let expected = reference.iter().all(|m| f.eval(m));
        assert_eq!(
            pws::countermodel(&db, &f, &mut cost).unwrap().is_none(),
            expected,
            "inference, case {case}"
        );
        let cfg = SemanticsConfig::new(SemanticsId::Pws);
        match witness::explain_formula(&cfg, &db, &f, &mut cost).unwrap() {
            QueryOutcome::Inferred => assert!(expected, "case {case}"),
            QueryOutcome::Countermodel(m) => {
                assert!(reference.contains(&m) && !f.eval(&m), "case {case}")
            }
            other => panic!("unexpected outcome {other:?}, case {case}"),
        }
        assert_eq!(
            pws::has_model(&db, &mut cost).unwrap(),
            !reference.is_empty(),
            "existence, case {case}"
        );
    }
    assert!(
        ranked >= 200,
        "only {ranked} cases had a positive SCC of three or more atoms"
    );
}

#[test]
fn perf_matches_brute() {
    let mut rng = XorShift64Star::seed_from_u64(0x5B07);
    for case in 0..CASES {
        let db = random_db(&mut rng, true, true);
        let f = random_formula(&mut rng, 3);
        let cfg = SemanticsConfig::new(SemanticsId::Perf);
        let mut cost = Cost::new();
        let reference = perf_models_brute(&db);
        assert_eq!(
            cfg.models(&db, &mut cost).unwrap(),
            reference,
            "case {case}"
        );
        check_inference(SemanticsId::Perf, &cfg, &db, &f, &reference, case);
    }
}

#[test]
fn icwa_matches_brute() {
    let mut rng = XorShift64Star::seed_from_u64(0x5B08);
    let mut varied = 0;
    for case in 0..CASES {
        let db = random_db(&mut rng, true, true);
        let f = random_formula(&mut rng, 3);
        // Half the cases let a random set of atoms vary.
        let z = if case % 2 == 0 {
            Interpretation::empty(N)
        } else {
            random_varying(&mut rng)
        };
        if let Some(reference) = icwa_models_brute(&db, &z) {
            varied += usize::from(!z.is_empty_set());
            let mut cfg = SemanticsConfig::new(SemanticsId::Icwa);
            cfg.icwa_varying = Some(z);
            let mut cost = Cost::new();
            assert_eq!(
                cfg.models(&db, &mut cost).unwrap(),
                reference,
                "case {case}"
            );
            check_inference(SemanticsId::Icwa, &cfg, &db, &f, &reference, case);
        }
    }
    assert!(varied >= 20, "only {varied} cases had varying atoms");
}

/// With no query, `models` pays exactly one walk candidate per minimal
/// signature: every round yields a signature no earlier block covers.
#[test]
fn models_cost_one_walk_candidate_per_minimal_signature() {
    let mut rng = XorShift64Star::seed_from_u64(0x5B0C);
    let signatures = |models: Vec<Interpretation>, part: &Partition| {
        let mut fixed = part.p().clone();
        fixed.union_with(part.q());
        let mut sigs: Vec<Interpretation> = models
            .into_iter()
            .map(|mut m| {
                m.intersect_with(&fixed);
                m
            })
            .collect();
        sigs.sort();
        sigs.dedup();
        sigs.len() as u64
    };
    for case in 0..CASES {
        let db = random_db(&mut rng, true, true);
        let all = Partition::minimize_all(N);
        let minimal = signatures(brute::minimal_models(&db), &all);
        let pair = pdsm::pair_database(&db);
        let truth_minimal = brute::minimal_models(&pair).len() as u64;
        let part = random_partition(&mut rng);
        let z = random_varying(&mut rng);
        let mut non_z = Interpretation::full(N);
        non_z.difference_with(&z);
        let icwa_part = Partition::new(non_z, Interpretation::empty(N), z.clone());
        let generic = |id| SemanticsConfig::new(id).with_routing(RoutingMode::Generic);
        let mut ecwa = generic(SemanticsId::Ecwa);
        ecwa.partition = Some(part.clone());
        let mut icwa = generic(SemanticsId::Icwa);
        icwa.icwa_varying = Some(z);
        let mut cases = vec![
            (generic(SemanticsId::Dsm), minimal),
            (generic(SemanticsId::Perf), minimal),
            (generic(SemanticsId::Pdsm), truth_minimal),
            (generic(SemanticsId::Egcwa), minimal),
            (
                ecwa,
                signatures(brute::pz_minimal_models(&db, &part), &part),
            ),
        ];
        if db.stratification().is_some() {
            let icwa_signatures = brute::pz_minimal_models(&db, &icwa_part);
            cases.push((icwa, signatures(icwa_signatures, &icwa_part)));
        }
        for (cfg, expected) in cases {
            let mut cost = Cost::new();
            cfg.models(&db, &mut cost).unwrap();
            assert_eq!(cost.candidates, expected, "{} case {case}", cfg.id);
        }
    }
}

#[test]
fn dsm_matches_brute() {
    let mut rng = XorShift64Star::seed_from_u64(0x5B09);
    for case in 0..CASES {
        let db = random_db(&mut rng, true, true);
        let f = random_formula(&mut rng, 3);
        let cfg = SemanticsConfig::new(SemanticsId::Dsm);
        let mut cost = Cost::new();
        let reference = dsm_models_brute(&db);
        assert_eq!(
            cfg.models(&db, &mut cost).unwrap(),
            reference,
            "case {case}"
        );
        check_inference(SemanticsId::Dsm, &cfg, &db, &f, &reference, case);
    }
}

#[test]
fn pdsm_matches_brute() {
    let mut rng = XorShift64Star::seed_from_u64(0x5B0A);
    for case in 0..CASES {
        let db = random_db(&mut rng, true, true);
        let f = random_formula(&mut rng, 3);
        let mut cost = Cost::new();
        let mut got = pdsm::models(&db, &mut cost).unwrap();
        let mut reference = pdsm_models_brute(&db);
        let key = |p: &PartialInterpretation| (p.true_set().clone(), p.false_set().clone());
        got.sort_by_key(key);
        reference.sort_by_key(key);
        assert_eq!(got, reference, "case {case}");
        // Inference: value 1 in all partial stable models.
        let f_ref = reference.iter().all(|i| f.eval3(i) == TruthValue::True);
        let counter = pdsm::countermodel(&db, &f, &mut cost).unwrap();
        assert_eq!(counter.is_none(), f_ref, "case {case}");
        if let Some(p) = counter {
            assert!(reference.contains(&p) && f.eval3(&p) != TruthValue::True);
        }
        assert_eq!(
            pdsm::has_model(&db, &mut cost).unwrap(),
            !reference.is_empty(),
            "case {case}"
        );
    }
}

#[test]
fn literal_and_formula_inference_consistent() {
    let mut rng = XorShift64Star::seed_from_u64(0x5B0B);
    for case in 0..CASES {
        // For every semantics: a one-literal formula (planned and answered
        // as a literal) must get the verdict of the same literal wrapped in
        // a one-conjunct `And` (planned and answered as a formula).
        let db = random_db(&mut rng, true, true);
        let mut cost = Cost::new();
        for id in SemanticsId::ALL {
            let cfg = SemanticsConfig::new(id);
            for i in 0..N {
                for sign in [true, false] {
                    let f = Formula::literal(Atom::new(i as u32), sign);
                    let l = cfg.infers_formula(&db, &f, &mut cost);
                    let g = cfg.infers_formula(&db, &Formula::and([f]), &mut cost);
                    match (l, g) {
                        (Ok(a1), Ok(a2)) => assert_eq!(a1, a2, "{id}, case {case}"),
                        (Err(_), Err(_)) => {}
                        _ => panic!("support mismatch for {id}, case {case}"),
                    }
                }
            }
        }
    }
}
