//! Default reasoning with stratified negation: the Tweety benchmark, run
//! under PERF, ICWA, DSM and PDSM side by side.
//!
//! Birds fly unless abnormal; penguins are birds and abnormal; Tweety is
//! a penguin, Coco is (just) a bird. Stratified semantics should conclude
//! that Coco flies and Tweety does not.
//!
//! ```text
//! cargo run --example defaults
//! ```

use disjunctive_db::core::icwa;
use disjunctive_db::prelude::*;

fn main() {
    let db = parse_program(
        "% facts
         penguin_tweety.
         bird_coco.
         % penguins are birds
         bird_tweety :- penguin_tweety.
         % abnormality: penguins don't fly
         ab_tweety :- penguin_tweety.
         % default: birds fly unless abnormal
         flies_tweety :- bird_tweety, not ab_tweety.
         flies_coco   :- bird_coco,   not ab_coco.",
    )
    .expect("valid program");

    println!("Database class: {:?}", db.class());
    let strata = db.stratification().expect("stratified");
    println!("Stratification into {} strata:", strata.len());
    for (i, s) in strata.iter().enumerate() {
        let names: Vec<&str> = s.iter().map(|&a| db.symbols().name(a)).collect();
        println!("  S{}: {{{}}}", i + 1, names.join(", "));
    }

    let mut cost = Cost::new();
    let queries = [
        ("flies_coco", true),
        ("flies_tweety", false),
        ("ab_coco", false),
    ];

    for id in [
        SemanticsId::Perf,
        SemanticsId::Icwa,
        SemanticsId::Dsm,
        SemanticsId::Pdsm,
    ] {
        let cfg = SemanticsConfig::new(id);
        println!("\n{id}:");
        for (name, _expected) in queries {
            let atom = db.symbols().lookup(name).unwrap();
            let pos = cfg
                .infers_formula(&db, &Formula::from(atom.pos()), &mut cost)
                .unwrap()
                .definite();
            let neg = cfg
                .infers_formula(&db, &Formula::from(atom.neg()), &mut cost)
                .unwrap()
                .definite();
            let verdict = match (pos, neg) {
                (true, _) => "true",
                (_, true) => "false",
                _ => "unknown",
            };
            println!("  {name}: {verdict}");
        }
    }

    // The perfect model is the intended one; show it.
    let perfect = SemanticsConfig::new(SemanticsId::Perf)
        .models(&db, &mut cost)
        .unwrap();
    println!("\nPerfect models ({}):", perfect.len());
    for m in &perfect {
        let names: Vec<&str> = m.iter().map(|a| db.symbols().name(a)).collect();
        println!("  {{{}}}", names.join(", "));
    }

    // ICWA's layer-by-layer closure agrees (it was introduced to capture
    // PERF on stratified databases).
    let layers = icwa::Layers::new(&db, &strata, &Interpretation::empty(db.num_atoms()));
    let icwa_models = icwa::models(&db, &layers, &mut cost).unwrap();
    assert_eq!(perfect, icwa_models, "PERF = ICWA on stratified databases");
    println!("ICWA model set coincides with PERF ✓");

    println!(
        "\nOracle usage: {} SAT calls, {} candidates",
        cost.sat_calls, cost.candidates
    );
}
