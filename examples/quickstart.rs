//! Quickstart: parse a disjunctive database, inspect its models under
//! several semantics, and ask the paper's three decision problems.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use disjunctive_db::prelude::*;

fn main() {
    // A small indefinite knowledge base: we know one of alice/bob broke
    // the vase; whoever it was is grounded; family therapy only if both.
    let db = parse_program(
        "alice | bob. \
         grounded :- alice. \
         grounded :- bob. \
         therapy :- alice, bob.",
    )
    .expect("valid program");
    println!("Database ({:?}):\n{}", db.class(), display_database(&db));

    let mut cost = Cost::new();

    // 1. Characteristic model sets.
    for id in [
        SemanticsId::Egcwa,
        SemanticsId::Gcwa,
        SemanticsId::Ddr,
        SemanticsId::Pws,
    ] {
        let cfg = SemanticsConfig::new(id);
        let models = cfg.models(&db, &mut cost).expect("applicable");
        println!("\n{id} characterizes {} model(s):", models.len());
        for m in &models {
            let names: Vec<&str> = m.iter().map(|a| db.symbols().name(a)).collect();
            println!("  {{{}}}", names.join(", "));
        }
    }

    // 2. Literal inference: is `therapy` closed off?
    let therapy = db.symbols().lookup("therapy").unwrap();
    println!("\n¬therapy inferred?");
    for id in [
        SemanticsId::Gcwa,
        SemanticsId::Egcwa,
        SemanticsId::Ddr,
        SemanticsId::Pws,
    ] {
        let cfg = SemanticsConfig::new(id);
        let ans = cfg
            .infers_formula(&db, &Formula::from(therapy.neg()), &mut cost)
            .unwrap()
            .definite();
        println!("  {id}: {ans}");
    }

    // 3. Formula inference separates EGCWA from GCWA: no minimal model
    //    has both culprits, but GCWA's model set still allows it.
    let both = parse_formula("!(alice & bob)", db.symbols()).unwrap();
    println!("\n¬(alice ∧ bob) inferred?");
    for id in [SemanticsId::Gcwa, SemanticsId::Egcwa] {
        let cfg = SemanticsConfig::new(id);
        let ans = cfg
            .infers_formula(&db, &both, &mut cost)
            .unwrap()
            .definite();
        println!("  {id}: {ans}");
    }

    // 4. The integrity clauses EGCWA derives (via hypergraph
    //    dualization of the minimal models).
    let derived = disjunctive_db::core::egcwa::derived_integrity_clauses(&db, 10_000, &mut cost)
        .unwrap()
        .expect("within cap");
    println!("\nEGCWA-derived integrity clauses:");
    for clause in &derived {
        let names: Vec<&str> = clause.iter().map(|&a| db.symbols().name(a)).collect();
        println!("  :- {}.", names.join(", "));
    }

    // 5. Model existence, and what it cost us.
    let exists = SemanticsConfig::new(SemanticsId::Egcwa)
        .has_model(&db, &mut cost)
        .unwrap()
        .definite();
    println!("\nEGCWA has a model: {exists}");
    println!(
        "Total oracle usage this session: {} SAT calls, {} CEGAR candidates",
        cost.sat_calls, cost.candidates
    );
}
