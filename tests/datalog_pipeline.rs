//! Full-stack Datalog∨ integration: the classic *win–move game*, the
//! canonical well-founded-semantics example, through grounding and every
//! relevant semantics.
//!
//! A position wins iff it has a move to a losing (non-winning) position:
//! `win(X) ← move(X,Y) ∧ ¬win(Y)`. Positions on a path are determined
//! (alternating lost/won); positions in an escape-free cycle are *drawn*
//! — exactly the ½ values of WFS and the undefined atoms of PDSM, and
//! exactly where the stable models multiply.

use disjunctive_db::core::{dsm, pdsm, wfs, witness};
use disjunctive_db::ground::{ground_full, ground_reduced, parse::parse_datalog};
use disjunctive_db::prelude::*;

/// Board: a path c←b←a (a moves to b, b moves to c, c stuck) plus an
/// isolated 2-cycle d ⇄ e.
const GAME: &str = "
    move(a,b). move(b,c).
    move(d,e). move(e,d).
    win(X) :- move(X,Y), not win(Y).
";

fn win_atom(db: &Database, pos: &str) -> Atom {
    db.symbols()
        .lookup(&format!("win({pos})"))
        .unwrap_or_else(|| panic!("win({pos}) not in grounding"))
}

#[test]
fn win_move_well_founded_values() {
    let prog = parse_datalog(GAME).unwrap();
    let db = ground_reduced(&prog, 10_000).unwrap();
    let w = wfs::well_founded_model(&db);
    // Path: c is stuck (win(c) not even grounded or false), b wins, a loses.
    assert_eq!(w.value(win_atom(&db, "b")), TruthValue::True);
    assert_eq!(w.value(win_atom(&db, "a")), TruthValue::False);
    // win(c) has no move at all — reduced grounding never creates it.
    assert!(db.symbols().lookup("win(c)").is_none());
    // Cycle: drawn — undefined on both sides.
    assert_eq!(w.value(win_atom(&db, "d")), TruthValue::Undefined);
    assert_eq!(w.value(win_atom(&db, "e")), TruthValue::Undefined);
}

#[test]
fn win_move_stable_models_split_the_draw() {
    let prog = parse_datalog(GAME).unwrap();
    let db = ground_reduced(&prog, 10_000).unwrap();
    let mut cost = Cost::new();
    let stable = dsm::models(&db, &mut cost).unwrap();
    // The path part is fixed; the 2-cycle gives two stable resolutions
    // (d wins & e loses, or vice versa).
    assert_eq!(stable.len(), 2);
    let d = win_atom(&db, "d");
    let e = win_atom(&db, "e");
    let b = win_atom(&db, "b");
    let a = win_atom(&db, "a");
    for m in &stable {
        assert!(m.contains(b));
        assert!(!m.contains(a));
        assert_ne!(m.contains(d), m.contains(e), "cycle resolves exclusively");
    }
    // Cautious consequences across stable models agree with WFS's
    // determined part.
    let (t, f) = dsm::cautious_literals(&db, &mut cost).unwrap().unwrap();
    assert!(t.contains(b));
    assert!(f.contains(a));
    assert!(!t.contains(d) && !f.contains(d));
}

#[test]
fn win_move_pdsm_contains_wfs() {
    let prog = parse_datalog(GAME).unwrap();
    let db = ground_reduced(&prog, 10_000).unwrap();
    let w = wfs::well_founded_model(&db);
    let mut cost = Cost::new();
    let partials = pdsm::models(&db, &mut cost).unwrap();
    // WFS is one of the partial stable models (the knowledge-least one);
    // the two stable resolutions of the cycle are the total ones.
    assert!(partials.contains(&w));
    assert_eq!(partials.iter().filter(|p| p.is_total()).count(), 2);
    assert_eq!(partials.len(), 3);
}

#[test]
fn win_move_full_and_reduced_groundings_agree_on_stable_semantics() {
    let prog = parse_datalog(GAME).unwrap();
    let full = ground_full(&prog, 100_000).unwrap();
    let reduced = ground_reduced(&prog, 100_000).unwrap();
    let mut cost = Cost::new();
    let name_sets = |db: &Database, models: Vec<Interpretation>| {
        models
            .into_iter()
            .map(|m| {
                let mut v: Vec<String> =
                    m.iter().map(|a| db.symbols().name(a).to_owned()).collect();
                v.sort();
                v
            })
            .collect::<std::collections::BTreeSet<_>>()
    };
    assert_eq!(
        name_sets(&full, dsm::models(&full, &mut cost).unwrap()),
        name_sets(&reduced, dsm::models(&reduced, &mut cost).unwrap())
    );
}

#[test]
fn win_move_queries_through_dispatch() {
    let prog = parse_datalog(GAME).unwrap();
    let db = ground_reduced(&prog, 10_000).unwrap();
    let mut cost = Cost::new();
    let cfg = SemanticsConfig::new(SemanticsId::Dsm);
    let win_b = Formula::atom(win_atom(&db, "b"));
    let win_d = Formula::atom(win_atom(&db, "d"));
    assert!(cfg
        .infers_formula(&db, &win_b, &mut cost)
        .unwrap()
        .definite());
    assert!(!cfg
        .infers_formula(&db, &win_d, &mut cost)
        .unwrap()
        .definite());
    assert!(witness::brave_infers_formula(&cfg, &db, &win_d, &mut cost)
        .unwrap()
        .definite());
    // The drawn disjunction holds cautiously: in every stable model,
    // exactly one of d/e wins.
    let either = Formula::or([win_d.clone(), Formula::atom(win_atom(&db, "e"))]);
    assert!(cfg
        .infers_formula(&db, &either, &mut cost)
        .unwrap()
        .definite());
    // …but under PDSM it does not (value ½ in the well-founded model).
    let pdsm_cfg = SemanticsConfig::new(SemanticsId::Pdsm);
    assert!(!pdsm_cfg
        .infers_formula(&db, &either, &mut cost)
        .unwrap()
        .definite());
}
