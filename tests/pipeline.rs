//! End-to-end pipeline tests through the public facade: text → parse →
//! classify → query under every applicable semantics → answers consistent
//! with the characteristic model sets.

use disjunctive_db::prelude::*;
use disjunctive_db::workloads::queries::random_formula;

const PROGRAMS: &[&str] = &[
    "a | b.",
    "a | b. c :- a, b.",
    "a | b. :- a, b. c :- a, b.",
    "win :- not lose. lose :- not win.",
    "a. b :- not a. c | d :- not b.",
    "p | q. r :- p. r :- q. :- r, s.",
    "x0 | x1 | x2. x3 :- x0, x1. x4 :- x3. :- x4, x2.",
];

#[test]
fn parse_display_roundtrip() {
    for src in PROGRAMS {
        let db = parse_program(src).unwrap();
        let text = display_database(&db);
        let db2 = parse_program(&text).unwrap();
        assert_eq!(db.rules(), db2.rules(), "{src}");
        assert_eq!(db.num_atoms(), db2.num_atoms(), "{src}");
    }
}

#[test]
fn inference_consistent_with_model_sets() {
    for (pi, src) in PROGRAMS.iter().enumerate() {
        let db = parse_program(src).unwrap();
        for id in SemanticsId::ALL {
            if id == SemanticsId::Pdsm {
                continue; // 3-valued: models() reports totals only
            }
            let cfg = SemanticsConfig::new(id);
            let mut cost = Cost::new();
            let Ok(models) = cfg.models(&db, &mut cost) else {
                continue;
            };
            for fs in 0..4u64 {
                let f = random_formula(db.num_atoms(), 5, fs + 10 * pi as u64);
                let expected = models.iter().all(|m| f.eval(m));
                let got = cfg.infers_formula(&db, &f, &mut cost).unwrap();
                assert_eq!(got, expected, "{id} on `{src}` formula seed {fs}");
            }
            assert_eq!(
                cfg.has_model(&db, &mut cost).unwrap(),
                !models.is_empty(),
                "{id} existence on `{src}`"
            );
        }
    }
}

#[test]
fn classification_matches_syntax() {
    let cases = [
        ("a | b.", DbClass::Positive),
        ("a | b. :- a, b.", DbClass::Deductive),
        ("a. b :- not a.", DbClass::Stratified),
        ("win :- not lose. lose :- not win.", DbClass::Normal),
    ];
    for (src, expected) in cases {
        assert_eq!(parse_program(src).unwrap().class(), expected, "{src}");
    }
}

#[test]
fn cost_accounting_monotone() {
    // Costs accumulate across queries in one Cost record.
    let db = parse_program("a | b. c :- a, b.").unwrap();
    let cfg = SemanticsConfig::new(SemanticsId::Gcwa);
    let mut cost = Cost::new();
    let f = parse_formula("!c", db.symbols()).unwrap();
    cfg.infers_formula(&db, &f, &mut cost).unwrap();
    let first = cost.sat_calls;
    assert!(first > 0);
    cfg.infers_formula(&db, &f, &mut cost).unwrap();
    assert!(cost.sat_calls >= 2 * first);
}

#[test]
fn unsupported_semantics_fail_gracefully() {
    let db = parse_program("a :- not b. b :- not a.").unwrap();
    let mut cost = Cost::new();
    for id in [SemanticsId::Ddr, SemanticsId::Pws, SemanticsId::Icwa] {
        let err = SemanticsConfig::new(id)
            .infers_formula(&db, &Formula::from(Atom::new(0).pos()), &mut cost)
            .unwrap_err();
        assert_eq!(err.semantics, id);
        assert!(!err.reason.is_empty());
    }
}

#[test]
fn large_tractable_pipeline() {
    // The tractable path scales: a 20k-atom Horn chain through parse-free
    // construction, DDR negative literal in well under a second.
    use disjunctive_db::workloads::structured::horn_chain;
    let n = 20_000;
    let db = horn_chain(n);
    let mut cost = Cost::new();
    let start = std::time::Instant::now();
    let ans = ddr::infers_literal(&db, Atom::new((n - 1) as u32).neg(), &mut cost).unwrap();
    assert!(!ans, "the chain derives every atom");
    assert_eq!(cost.sat_calls, 0);
    assert!(
        start.elapsed().as_secs_f64() < 1.0,
        "tractable cell must be fast"
    );
}
