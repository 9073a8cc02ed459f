//! Model-based diagnosis with minimal models — the classic application of
//! closed-world reasoning over disjunctive databases (and circumscription).
//!
//! A two-inverter circuit is observed misbehaving. Encoding "component is
//! either ok or abnormal" as disjunctive facts and circuit behaviour as
//! rules, the *minimal* models (EGCWA ≡ minimal diagnosis) minimize the
//! set of abnormal components; ECWA with partition ⟨P = ab-atoms;
//! Z = line values⟩ expresses the same thing as circumscription.
//!
//! ```text
//! cargo run --example diagnosis
//! ```

use disjunctive_db::prelude::*;

fn main() {
    // Circuit: in --[inv1]-- mid --[inv2]-- out.
    // Observation: in = 1 and out = 1 (a correct double inverter would
    // give out = 1... inverter twice: out = in, so out=1 is EXPECTED;
    // we instead observe out = 0 → something is abnormal).
    //
    // Encoding: okX ∨ abX for each gate; behaviour rules fire only for ok
    // gates; observations are facts/integrity clauses.
    let db = parse_program(
        "% each inverter is ok or abnormal
         ok1 | ab1.
         ok2 | ab2.
         % observed input high
         in_high.
         % normal behaviour: an ok inverter flips its input
         mid_low  :- ok1, in_high.
         out_high :- ok2, mid_low.
         % observation: the output is NOT high
         :- out_high.",
    )
    .expect("valid program");
    println!(
        "Diagnosis database ({:?}):\n{}",
        db.class(),
        display_database(&db)
    );

    let mut cost = Cost::new();

    // Minimal models = minimal diagnoses.
    let cfg = SemanticsConfig::new(SemanticsId::Egcwa);
    let diagnoses = cfg.models(&db, &mut cost).unwrap();
    println!("Minimal diagnoses (abnormal sets):");
    for m in &diagnoses {
        let abs: Vec<&str> = m
            .iter()
            .filter(|a| db.symbols().name(*a).starts_with("ab"))
            .map(|a| db.symbols().name(a))
            .collect();
        println!("  {{{}}}", abs.join(", "));
    }

    // Cautious conclusions: is *some* gate definitely broken?
    let some_ab = parse_formula("ab1 | ab2", db.symbols()).unwrap();
    println!(
        "\nEGCWA ⊨ ab1 ∨ ab2 (some gate is broken): {}",
        cfg.infers_formula(&db, &some_ab, &mut cost)
            .unwrap()
            .definite()
    );
    let ab1 = parse_formula("ab1", db.symbols()).unwrap();
    println!(
        "EGCWA ⊨ ab1 (inverter 1 is definitely broken): {}",
        cfg.infers_formula(&db, &ab1, &mut cost).unwrap().definite()
    );
    let not_both = parse_formula("!(ab1 & ab2)", db.symbols()).unwrap();
    println!(
        "EGCWA ⊨ ¬(ab1 ∧ ab2) (never blame both): {}",
        cfg.infers_formula(&db, &not_both, &mut cost)
            .unwrap()
            .definite()
    );

    // Circumscription view: minimize the ab-atoms only, let line values
    // vary (⟨P;Z⟩-minimality = ECWA = CIRC).
    let ab_atoms: Vec<Atom> = db
        .symbols()
        .atoms()
        .filter(|a| db.symbols().name(*a).starts_with("ab"))
        .collect();
    let part = Partition::from_p_q(db.num_atoms(), ab_atoms, []);
    println!(
        "\nCIRC(ab; lines) ⊨ ab1 ∨ ab2: {}",
        disjunctive_db::core::ecwa::countermodel(&db, &part, &some_ab, &mut cost)
            .unwrap()
            .is_none()
    );
    println!(
        "CIRC(ab; lines) ⊨ ¬(ab1 ∧ ab2): {}",
        disjunctive_db::core::ecwa::countermodel(&db, &part, &not_both, &mut cost)
            .unwrap()
            .is_none()
    );

    println!(
        "\nOracle usage: {} SAT calls, {} CEGAR candidates",
        cost.sat_calls, cost.candidates
    );
}
