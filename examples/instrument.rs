//! Attaching the observability layer from library code: record the same
//! inference question under two semantics from opposite ends of the
//! complexity landscape, and compare what the NP oracle was actually asked
//! to do.
//!
//! EGCWA answers `DB ⊨ F` with a counterexample-guided loop over minimal
//! models (Πᵖ₂ shape); DSM must additionally re-check stability of every
//! candidate against its Gelfond–Lifschitz reduct. One `record` scope per
//! question makes that difference concrete.
//!
//! ```text
//! cargo run --example instrument
//! ```

use disjunctive_db::obs;
use disjunctive_db::prelude::*;

fn oracle_report(label: &str, recording: &obs::Recording) {
    println!("--- {label} ---");
    print!("{}", recording.counters.render_table());
    println!();
}

fn main() {
    let db = parse_program("alice | bob. grounded :- alice. grounded :- bob. treat :- alice, bob.")
        .unwrap();
    let query = parse_formula("grounded & !treat", db.symbols()).unwrap();
    let mut cost = Cost::new();

    // Observe everything: the outer scope also keeps the event stream,
    // and each inner scope holds one question's counters.
    let ((egcwa_answer, dsm_answer), all) = obs::record(true, || {
        // EGCWA: holds iff the formula is true in every minimal model.
        let (egcwa_answer, egcwa) = obs::record(false, || {
            let all = Partition::minimize_all(db.num_atoms());
            ecwa::countermodel(&db, &all, &query, &mut cost)
        });
        oracle_report("EGCWA formula inference", &egcwa);
        // DSM: holds iff the formula is true in every disjunctive stable model.
        let (dsm_answer, dsm) = obs::record(false, || dsm::countermodel(&db, &query, &mut cost));
        oracle_report("DSM formula inference", &dsm);
        (
            egcwa_answer.unwrap().is_none(),
            dsm_answer.unwrap().is_none(),
        )
    });

    println!("EGCWA infers the query: {egcwa_answer}");
    println!("DSM   infers the query: {dsm_answer}");

    // The recording holds the full event stream (thread-stamped trace
    // events); prove every track is well-nested and show which spans ran.
    let events = all.events;
    let spans = obs::check_track_nesting(&events).expect("every track is well-nested");
    assert!(spans > 0, "both questions ran under spans");
    println!(
        "\ncaptured {} events ({spans} completed spans), e.g.:",
        events.len()
    );
    for e in events.iter().take(5) {
        println!("  {}", e.to_json().render());
    }
}
