//! Facts stated in the paper itself, pinned as executable tests.

use disjunctive_db::prelude::*;
use disjunctive_db::reductions::{dsm_hardness, gcwa_hardness, qbf, uminsat};

/// Section 2 running example: `DB = {a ∨ b, b ← a, c ← b... }`; the paper
/// lists `M(DB)`, `MM(DB)` and `MM(DB; P; Z)` for a 3-atom example:
/// `DB = {a ∨ b}` over `V = {a, b, c}` with
/// `M(DB) = {{b},{a},{a,b},{a,c},{b,c},{a,b,c}}`, `MM = {{a},{b}}`, and
/// for ⟨P;Q;Z⟩ = ⟨{a};{b};{c}⟩:
/// `MM(DB;P;Z) = {{b},{b,c},{a},{a,c}}`.
#[test]
fn section_2_running_example() {
    let mut symbols = Symbols::new();
    let a = symbols.intern("a");
    let b = symbols.intern("b");
    let c = symbols.intern("c");
    let mut db = Database::new(symbols);
    db.add_rule(Rule::fact([a, b]));

    let mut cost = Cost::new();
    let none = Interpretation::empty(3);
    let m = disjunctive_db::models::classical::models(&db, &none, &mut cost).unwrap();
    assert_eq!(m.len(), 6, "2^3 minus the two a=b=0 interpretations");

    let mm = disjunctive_db::models::minimal::minimal_models(&db, &mut cost).unwrap();
    let interp = |atoms: &[Atom]| Interpretation::from_atoms(3, atoms.iter().copied());
    assert_eq!(mm, vec![interp(&[a]), interp(&[b])]);

    let part = Partition::from_p_q(3, [a], [b]);
    let pz = disjunctive_db::models::minimal::pz_minimal_models(&db, &part, &mut cost).unwrap();
    let mut expected = vec![interp(&[b]), interp(&[b, c]), interp(&[a]), interp(&[a, c])];
    expected.sort();
    assert_eq!(pz, expected);
}

/// Example 3.1: `DB = {a ∨ b, ← a ∧ b, c ← a ∧ b}` — `DDR(DB) ⊭ ¬c`.
#[test]
fn example_3_1() {
    let db = parse_program("a | b. :- a, b. c :- a, b.").unwrap();
    let c = db.symbols().lookup("c").unwrap();
    let mut cost = Cost::new();
    assert!(!ddr::infers_literal(&db, c.neg(), &mut cost).unwrap());
    // Chan's improvement motivation: GCWA does infer ¬c here.
    assert!(gcwa::infers_literal(&db, c.neg(), &mut cost).unwrap());
    // And EGCWA (= minimal models) likewise.
    assert!(SemanticsConfig::new(SemanticsId::Egcwa)
        .infers_formula(&db, &Formula::from(c.neg()), &mut cost)
        .unwrap()
        .definite());
}

/// `EGCWA(DB) = MM(DB)` — the paper's stated characterization.
#[test]
fn egcwa_is_minimal_models() {
    for src in [
        "a | b. c :- a.",
        "a | b | c. :- a, b.",
        "p :- q. q | r. :- r, p.",
    ] {
        let db = parse_program(src).unwrap();
        let mut cost = Cost::new();
        assert_eq!(
            SemanticsConfig::new(SemanticsId::Egcwa)
                .models(&db, &mut cost)
                .unwrap(),
            disjunctive_db::models::minimal::minimal_models(&db, &mut cost).unwrap(),
            "{src}"
        );
    }
}

/// `ECWA_{P;Z}(DB) = CIRC_{P;Z}(DB)` in the propositional case (the
/// equivalence the paper imports from Lifschitz/GPP).
#[test]
fn ecwa_equals_circumscription() {
    let db = parse_program("a | b. c :- a. d | e :- c.").unwrap();
    let n = db.num_atoms();
    let syms = db.symbols();
    let part = Partition::from_p_q(
        n,
        [syms.lookup("a").unwrap(), syms.lookup("c").unwrap()],
        [syms.lookup("b").unwrap()],
    );
    let mut cost = Cost::new();
    assert_eq!(
        disjunctive_db::core::ecwa::circ_models_brute(&db, &part),
        disjunctive_db::core::ecwa::models(&db, &part, &mut cost).unwrap()
    );
}

/// `DSM(DB) ⊆ MM(DB)`, and `DSM(DB) = MM(DB)` for positive DB \[20\].
#[test]
fn dsm_facts() {
    let positive = parse_program("a | b. c :- a, b.").unwrap();
    let mut cost = Cost::new();
    assert_eq!(
        dsm::models(&positive, &mut cost).unwrap(),
        disjunctive_db::models::minimal::minimal_models(&positive, &mut cost).unwrap()
    );
    let normal = parse_program("a | b :- not c. c :- not d. d :- not c.").unwrap();
    let stable = dsm::models(&normal, &mut cost).unwrap();
    let minimal = disjunctive_db::models::minimal::minimal_models(&normal, &mut cost).unwrap();
    for m in &stable {
        assert!(minimal.contains(m));
    }
}

/// Theorem 3.1 (shape): the 2QBF reduction and its agreement with
/// brute-force validity — checked exhaustively on a deterministic sweep.
#[test]
fn theorem_3_1_reduction() {
    for seed in 0..30 {
        let q = qbf::random_forall_exists(3, 2, 5, 2, seed);
        let inst = gcwa_hardness::forall_exists_to_gcwa(&q);
        assert!(inst.db.is_positive(), "Theorem 3.1 needs a positive DDB");
        let mut cost = Cost::new();
        assert_eq!(
            gcwa::infers_literal(&inst.db, inst.w.neg(), &mut cost).unwrap(),
            q.valid_brute(),
            "seed {seed}"
        );
    }
}

/// Σᵖ₂-hardness shape for DSM existence (Section 5.2).
#[test]
fn dsm_existence_reduction() {
    for seed in 0..30 {
        let q = qbf::random_forall_exists(3, 2, 5, 2, seed).complement();
        let inst = dsm_hardness::exists_forall_to_dsm_existence(&q);
        let mut cost = Cost::new();
        assert_eq!(
            dsm::has_model(&inst.db, &mut cost).unwrap(),
            q.true_brute(),
            "seed {seed}"
        );
    }
}

/// Proposition 5.4 (shape): the UNSAT → UMINSAT reduction.
#[test]
fn proposition_5_4_reduction() {
    // A fixed unsatisfiable CNF and a fixed satisfiable one.
    let unsat = vec![vec![(0u32, true)], vec![(0u32, false)]];
    let db = uminsat::unsat_to_uminsat(1, &unsat);
    let mut cost = Cost::new();
    assert!(uminsat::has_unique_minimal_model(&db, &mut cost).unwrap());

    let sat = vec![vec![(0u32, true), (1, true)]];
    let db = uminsat::unsat_to_uminsat(2, &sat);
    assert!(!uminsat::has_unique_minimal_model(&db, &mut cost).unwrap());
}

/// Theorem 4.2's degenerate stratification: with `S = ⟨V⟩`, ICWA literal
/// inference on a positive DDB coincides with EGCWA — so the Πᵖ₂-hardness
/// carries over.
#[test]
fn theorem_4_2_degenerate_stratification() {
    let q = qbf::parity_family(2);
    let inst = gcwa_hardness::forall_exists_to_gcwa(&q);
    let mut cost = Cost::new();
    let icwa_ans = SemanticsConfig::new(SemanticsId::Icwa)
        .infers_formula(&inst.db, &Formula::from(inst.w.neg()), &mut cost)
        .unwrap()
        .definite();
    let egcwa_ans = SemanticsConfig::new(SemanticsId::Egcwa)
        .infers_formula(&inst.db, &Formula::from(inst.w.neg()), &mut cost)
        .unwrap()
        .definite();
    assert_eq!(icwa_ans, egcwa_ans);
    assert!(icwa_ans, "parity family is valid");
}

/// The stratified-consistency claim behind Table 2's ICWA `O(1)` cell:
/// a stratified database without integrity clauses always has ICWA (and
/// perfect, and stable) models.
#[test]
fn stratifiability_asserts_consistency() {
    use disjunctive_db::workloads::random::random_stratified_db;
    for seed in 0..20 {
        let db = random_stratified_db(8, 14, 3, seed);
        if db.has_integrity_clauses() {
            continue;
        }
        let mut cost = Cost::new();
        for id in [SemanticsId::Icwa, SemanticsId::Perf, SemanticsId::Dsm] {
            assert!(
                SemanticsConfig::new(id)
                    .has_model(&db, &mut cost)
                    .unwrap()
                    .definite(),
                "{id} seed {seed}"
            );
        }
    }
}

/// PDSM extends the well-founded semantics: on non-disjunctive programs
/// the truth-minimal partial stable model is the well-founded model.
#[test]
fn pdsm_contains_well_founded_behaviour() {
    // p ← ¬q. q ← ¬p. r ← ¬r: WFS leaves everything undefined.
    let db = parse_program("p :- not q. q :- not p. r :- not r.").unwrap();
    let mut cost = Cost::new();
    let models = pdsm::models(&db, &mut cost).unwrap();
    let all_undef = PartialInterpretation::undefined(3);
    assert!(
        models.contains(&all_undef),
        "the well-founded model (everything ½) is partial stable"
    );
    // And DSM has none (the odd loop kills total stability).
    assert!(!dsm::has_model(&db, &mut cost).unwrap());
}
