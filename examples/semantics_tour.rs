//! A guided tour: one small database, all ten semantics side by side —
//! the fastest way to *see* how the semantics of the paper differ.
//!
//! ```text
//! cargo run --example semantics_tour
//! ```

use disjunctive_db::prelude::*;

fn show_models(db: &Database, id: SemanticsId, cost: &mut Cost) {
    let cfg = SemanticsConfig::new(id);
    match cfg.models(db, cost) {
        Ok(models) => {
            let rendered: Vec<String> = models
                .iter()
                .map(|m| {
                    let names: Vec<&str> = m.iter().map(|a| db.symbols().name(a)).collect();
                    format!("{{{}}}", names.join(","))
                })
                .collect();
            println!("  {:<14} {}", id.name(), rendered.join("  "));
        }
        Err(e) => println!("  {:<14} (n/a: {})", id.name(), e.reason),
    }
}

fn main() {
    let mut cost = Cost::new();

    // Scene 1: pure disjunction — where CWA families diverge.
    let db = parse_program("a | b. c :- a, b.").unwrap();
    println!("DB₁ = {{ a ∨ b.  c ← a ∧ b. }}   (positive)\n");
    println!("Characteristic model sets:");
    for id in SemanticsId::ALL {
        show_models(&db, id, &mut cost);
    }
    let nc = parse_formula("!c", db.symbols()).unwrap();
    let nab = parse_formula("!(a & b)", db.symbols()).unwrap();
    println!("\nInference of ¬c and ¬(a∧b):");
    for id in SemanticsId::ALL {
        let cfg = SemanticsConfig::new(id);
        let c_ans = cfg.infers_formula(&db, &nc, &mut cost);
        let ab_ans = cfg.infers_formula(&db, &nab, &mut cost);
        println!(
            "  {:<14} ¬c: {:<5}  ¬(a∧b): {}",
            id.name(),
            c_ans.map_or("n/a".into(), |b| b.to_string()),
            ab_ans.map_or("n/a".into(), |b| b.to_string()),
        );
    }

    // Scene 2: negation — stable vs partial stable vs perfect.
    let db2 = parse_program("p :- not q. q :- not p. r :- not r. s | t :- p.").unwrap();
    println!(
        "\nDB₂ = {{ p ← ¬q.  q ← ¬p.  r ← ¬r.  s ∨ t ← p. }}   ({:?})",
        db2.class()
    );
    for id in [SemanticsId::Dsm, SemanticsId::Pdsm, SemanticsId::Perf] {
        let cfg = SemanticsConfig::new(id);
        match cfg.has_model(&db2, &mut cost) {
            Ok(b) => println!("  {:<14} has a model: {b}", id.name()),
            Err(e) => println!("  {:<14} n/a: {}", id.name(), e.reason),
        }
    }
    // DSM dies on the odd loop; PDSM survives with r = ½.
    let pdsm_models = disjunctive_db::core::pdsm::models(&db2, &mut cost).unwrap();
    println!("  PDSM partial stable models ({}):", pdsm_models.len());
    for p in &pdsm_models {
        let mut parts = Vec::new();
        for a in db2.symbols().atoms() {
            let v = match p.value(a) {
                TruthValue::True => "1",
                TruthValue::Undefined => "½",
                TruthValue::False => "0",
            };
            parts.push(format!("{}={v}", db2.symbols().name(a)));
        }
        println!("    ⟨{}⟩", parts.join(", "));
    }

    // Scene 3: partitions — careful closure keeps protected atoms open.
    let db3 = parse_program("suspect_a | suspect_b. alibi_b.").unwrap();
    let part = Partition::from_p_q(
        db3.num_atoms(),
        [db3.symbols().lookup("suspect_a").unwrap()],
        [db3.symbols().lookup("alibi_b").unwrap()],
    );
    let nsa = parse_formula("!suspect_a", db3.symbols()).unwrap();
    println!("\nDB₃ = {{ suspect_a ∨ suspect_b.  alibi_b. }}");
    println!(
        "  GCWA (close everything)      ⊨ ¬suspect_a: {}",
        SemanticsConfig::new(SemanticsId::Gcwa)
            .infers_formula(&db3, &nsa, &mut cost)
            .unwrap()
    );
    println!(
        "  CCWA (P={{suspect_a}}, Q={{alibi_b}}, Z=rest) ⊨ ¬suspect_a: {}",
        disjunctive_db::core::ccwa::countermodel(&db3, &part, &nsa, &mut cost)
            .unwrap()
            .is_none()
    );

    println!(
        "\nTotal oracle usage: {} SAT calls, {} candidates",
        cost.sat_calls, cost.candidates
    );
}
