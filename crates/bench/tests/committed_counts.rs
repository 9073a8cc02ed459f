//! The gate for every count the repository commits.
//!
//! Each `BENCH_*.json` in the repository root holds counts, not timings:
//! grounded rules, grounded atoms, SAT calls. Every entry is
//! `{group, id, value, unit}`, and the file names the command that
//! reproduces it. This suite recomputes every entry and fails with
//! group/id/expected/actual on any drift. There is no regenerate switch:
//! a change that moves a count edits the JSON and reports the move,
//! parent → change.
//!
//! The suite also pins the worst-case evidence the experiment report
//! cites (the exact `2ⁿ` candidate counts of the parity families) and
//! the even-loop counts the `tables` rows label.

use ddb_bench::families;
use ddb_core::{RoutingMode, SemanticsConfig, SemanticsId, Verdict};
use ddb_ground::{ground_magic, ground_reduced};
use ddb_logic::{Database, Formula};
use ddb_models::Cost;
use ddb_obs::json::{self, Json};
use std::path::PathBuf;

/// Recomputes the entries of one committed counts file.
type Recompute = fn() -> Vec<Entry>;

/// Every committed counts file, and the function that recomputes it.
const CHECKED: [(&str, Recompute); 2] = [
    ("BENCH_magic.json", magic_counts),
    ("BENCH_slicing.json", slicing_counts),
];

/// One committed count.
#[derive(Clone, Debug, PartialEq)]
struct Entry {
    group: String,
    id: String,
    value: u64,
    unit: String,
}

fn entry(group: &str, id: String, value: u64, unit: &str) -> Entry {
    Entry {
        group: group.to_owned(),
        id,
        value,
        unit: unit.to_owned(),
    }
}

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Reads a committed counts file: its reproduce command and its entries.
fn committed(file: &str) -> Vec<Entry> {
    let path = repo_root().join(file);
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let doc = json::parse(&text).unwrap_or_else(|e| panic!("{file}: {e}"));
    assert!(
        doc.get("command").and_then(Json::as_str).is_some(),
        "{file}: names no command that reproduces it"
    );
    let field = |e: &Json, key: &str| -> String {
        e.get(key)
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("{file}: entry without a string `{key}`: {e:?}"))
            .to_owned()
    };
    doc.get("entries")
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("{file}: no `entries` array"))
        .iter()
        .map(|e| Entry {
            group: field(e, "group"),
            id: field(e, "id"),
            value: e
                .get("value")
                .and_then(Json::as_u64)
                .unwrap_or_else(|| panic!("{file}: entry without a count `value`: {e:?}")),
            unit: field(e, "unit"),
        })
        .collect()
}

/// Every difference between the committed and the recomputed entries,
/// one line each; empty when they agree.
fn drift(committed: &[Entry], computed: &[Entry]) -> Vec<String> {
    let key = |e: &Entry| (e.group.clone(), e.id.clone());
    let mut out = Vec::new();
    for c in committed {
        match computed.iter().find(|e| key(e) == key(c)) {
            None => out.push(format!(
                "{}/{}: committed but not recomputed",
                c.group, c.id
            )),
            Some(e) if e.value != c.value || e.unit != c.unit => out.push(format!(
                "{}/{}: expected {} {}, actual {} {}",
                c.group, c.id, c.value, c.unit, e.value, e.unit
            )),
            Some(_) => {}
        }
    }
    for e in computed {
        if !committed.iter().any(|c| key(c) == key(e)) {
            out.push(format!(
                "{}/{}: recomputed {} {} but not committed",
                e.group, e.id, e.value, e.unit
            ));
        }
    }
    out
}

fn check(file: &str) {
    let (_, recompute) = CHECKED
        .iter()
        .find(|(f, _)| *f == file)
        .expect("checked file");
    let lines = drift(&committed(file), &recompute());
    assert!(lines.is_empty(), "{file} drifted:\n{}", lines.join("\n"));
}

/// One inference: the verdict and its SAT calls.
fn infers(id: SemanticsId, routing: RoutingMode, db: &Database, f: &Formula) -> (Verdict, u64) {
    let mut cost = Cost::new();
    let v = SemanticsConfig::new(id)
        .with_routing(routing)
        .infers_formula(db, f, &mut cost)
        .expect("every semantics applies");
    (v, cost.sat_calls)
}

/// `BENCH_magic.json`: goal-directed vs whole-program grounding of the
/// bound-chains family, and the SAT calls of the magic route. Asserts the
/// route's acceptance bar on the way: identical answers, never more SAT
/// calls, and at least 10× fewer grounded rules from depth 64 on.
fn magic_counts() -> Vec<Entry> {
    const LIMIT: usize = 1_000_000;
    let mut out = Vec::new();
    for depth in [16, 64, 128] {
        let (prog, q, name) = families::bound_chains(depth);
        let whole = ground_reduced(&prog, LIMIT).expect("whole grounding fits");
        let magic = ground_magic(&prog, &q, LIMIT).expect("magic grounding fits");
        for (tag, db) in [("whole", &whole), ("magic", &magic)] {
            out.push(entry(
                "grounded rules",
                format!("{tag}/{depth}"),
                db.len() as u64,
                "rules",
            ));
            out.push(entry(
                "grounded atoms",
                format!("{tag}/{depth}"),
                db.num_atoms() as u64,
                "atoms",
            ));
        }
        if depth >= 64 {
            assert!(
                magic.len() * 10 <= whole.len(),
                "depth {depth}: magic grounding must be >= 10x smaller ({} vs {} rules)",
                magic.len(),
                whole.len()
            );
        }
        let atom = |db: &Database| Formula::atom(db.symbols().lookup(&name).expect("grounded"));
        for id in [SemanticsId::Gcwa, SemanticsId::Dsm] {
            let (a_generic, generic) = infers(id, RoutingMode::Generic, &whole, &atom(&whole));
            let (a_route, route) = infers(id, RoutingMode::Auto, &whole, &atom(&whole));
            let (a_magic, on_magic) = infers(id, RoutingMode::Auto, &magic, &atom(&magic));
            assert_eq!(a_generic, a_route, "{id:?} depth {depth}: route flipped it");
            assert_eq!(
                a_generic, a_magic,
                "{id:?} depth {depth}: grounding flipped it"
            );
            assert!(
                route <= generic,
                "{id:?} depth {depth}: {route} > {generic}"
            );
            let tag = id.name();
            for (variant, calls) in [
                ("generic", generic),
                ("rewritten", route),
                ("magic-grounded", on_magic),
            ] {
                out.push(entry(
                    "SAT calls",
                    format!("{tag}-{variant}/{depth}"),
                    calls,
                    "calls",
                ));
            }
        }
    }
    out
}

/// `BENCH_slicing.json`: SAT calls of the slice route against the
/// generic whole-database procedure on the sliceable-towers family.
/// Asserts identical answers and strictly fewer calls on the way.
fn slicing_counts() -> Vec<Entry> {
    type Case = fn(usize) -> (Database, Formula);
    let rows: [(&str, SemanticsId, Case, &[usize]); 3] = [
        (
            "CCWA not g",
            SemanticsId::Ccwa,
            families::sliceable_not_goal,
            &[1, 2, 3],
        ),
        (
            "DSM c1",
            SemanticsId::Dsm,
            families::sliceable_c1,
            &[2, 4, 8],
        ),
        (
            "PDSM not g",
            SemanticsId::Pdsm,
            families::sliceable_not_goal,
            &[1, 2, 3, 4],
        ),
    ];
    let mut out = Vec::new();
    for (group, id, case, sizes) in rows {
        for &towers in sizes {
            let (db, f) = case(towers);
            let (a_sliced, sliced) = infers(id, RoutingMode::Auto, &db, &f);
            let (a_generic, generic) = infers(id, RoutingMode::Generic, &db, &f);
            assert_eq!(a_sliced, a_generic, "{group} on {towers} towers");
            assert!(
                sliced < generic,
                "{group} on {towers} towers: sliced {sliced} vs generic {generic}"
            );
            out.push(entry(group, format!("sliced/{towers}"), sliced, "calls"));
            out.push(entry(group, format!("generic/{towers}"), generic, "calls"));
        }
    }
    out
}

#[test]
fn every_committed_bench_file_is_checked() {
    let mut found: Vec<String> = std::fs::read_dir(repo_root())
        .expect("repository root")
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .filter(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        .collect();
    found.sort();
    let mut checked: Vec<String> = CHECKED.iter().map(|(f, _)| f.to_string()).collect();
    checked.sort();
    assert_eq!(
        found, checked,
        "every committed BENCH_*.json needs a recompute"
    );
}

#[test]
fn magic_counts_reproduce() {
    check("BENCH_magic.json");
}

#[test]
fn slicing_counts_reproduce() {
    check("BENCH_slicing.json");
}

#[test]
fn an_edited_value_is_reported() {
    let committed = committed("BENCH_slicing.json");
    let mut edited = committed.clone();
    edited[0].value += 1;
    let lines = drift(&edited, &committed);
    assert_eq!(lines.len(), 1, "{lines:?}");
    let e = &committed[0];
    assert_eq!(
        lines[0],
        format!(
            "{}/{}: expected {} {}, actual {} {}",
            e.group,
            e.id,
            e.value + 1,
            e.unit,
            e.value,
            e.unit
        )
    );
    assert_eq!(
        drift(&committed[1..], &committed).len(),
        1,
        "a missing entry"
    );
}

/// GCWA `¬w` on the valid parity family: every universal assignment has
/// its own existential witness, so the CEGAR loop refutes exactly `2ⁿ`
/// candidates (EXPERIMENTS.md's "exactly 4, 8, 16, 32, 64").
#[test]
fn valid_parity_pays_exactly_two_to_the_n_candidates() {
    for n in 2..=6u32 {
        let inst = families::qbf_parity_hard(n);
        let mut cost = Cost::new();
        let ans = ddb_core::gcwa::infers_literal(&inst.db, inst.w.neg(), &mut cost).unwrap();
        assert!(ans, "n={n}: the parity family is valid");
        assert_eq!(cost.candidates, 1 << n, "n={n}: GCWA candidates");
    }
}

/// DSM existence on the false parity family exhausts all `2ⁿ` outer
/// choices before answering no.
#[test]
fn false_parity_dsm_existence_pays_exactly_two_to_the_n_candidates() {
    for n in 2..=5u32 {
        let db = families::dsm_exist_hard(n);
        let mut cost = Cost::new();
        assert!(!ddb_core::dsm::has_model(&db, &mut cost).unwrap(), "n={n}");
        assert_eq!(cost.candidates, 1 << n, "n={n}: DSM candidates");
    }
}

/// The even-loop family the enumeration and PERF-existence rows label:
/// `k` independent loops have `2ᵏ` stable models, `3ᵏ` partial stable
/// models and no perfect model. (The one-loop case is pinned by the
/// `dsm`, `pdsm` and `perf` unit tests; this pins the product.)
#[test]
fn even_loop_counts_multiply() {
    for k in [2usize, 4] {
        let db = families::even_loops(k);
        let mut cost = Cost::new();
        assert_eq!(ddb_core::dsm::models(&db, &mut cost).unwrap().len(), 1 << k);
        assert_eq!(
            ddb_core::pdsm::models(&db, &mut cost).unwrap().len(),
            3usize.pow(k as u32)
        );
        assert!(!ddb_core::perf::has_model(&db, &mut cost).unwrap(), "k={k}");
    }
}
