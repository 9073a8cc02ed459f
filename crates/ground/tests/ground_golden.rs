//! Byte-identity pins on the grounders' output.
//!
//! Atom ids follow the order of the grounded rules, and SAT bills, answer
//! digests and the committed counts depend on those ids, so a grounder
//! change must reproduce the old output exactly, not merely an equivalent
//! program. Two kinds of golden files in `tests/golden/` hold it:
//!
//! * `<example>.reduced.txt` and `<example>.full.txt`: the `ddb ground`
//!   text (without and with `--full`) of every `examples/*.dlv`;
//! * `hashes.txt`: one line per grounding of a generated program, with
//!   its rule and atom counts and an FNV-1a hash of the atom names in id
//!   order followed by the rendered rules.

use ddb_ground::parse::parse_datalog;
use ddb_ground::{ground_full, ground_magic, ground_reduced, DatalogProgram, PredAtom};
use ddb_logic::parse::display_database;
use ddb_logic::Database;
use ddb_workloads::structured::bound_chains;
use std::path::{Path, PathBuf};

/// The rule budget `ddb ground` uses.
const LIMIT: usize = 1_000_000;

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn read_golden(name: &str) -> String {
    let path = golden_dir().join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// What `ddb ground` prints on stdout for `db`.
fn ground_text(db: &Database) -> String {
    format!("{}\n", display_database(db).trim_end())
}

/// The `examples/*.dlv` files, sorted by name.
fn examples() -> Vec<PathBuf> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples");
    let mut out: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|entry| entry.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "dlv"))
        .collect();
    out.sort();
    out
}

#[test]
fn every_example_grounds_to_its_golden_text() {
    let files = examples();
    assert!(files.len() >= 3, "expected the bundled .dlv examples");
    for path in files {
        let stem = path.file_stem().unwrap().to_str().unwrap().to_owned();
        let prog = parse_datalog(&std::fs::read_to_string(&path).unwrap()).unwrap();
        for (kind, db) in [
            ("reduced", ground_reduced(&prog, LIMIT).unwrap()),
            ("full", ground_full(&prog, LIMIT).unwrap()),
        ] {
            let name = format!("{stem}.{kind}.txt");
            assert_eq!(ground_text(&db), read_golden(&name), "{name}");
        }
    }
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// `<rules> <atoms> <hash>` of a grounded database; the hash covers the
/// atom names in id order, so it pins the numbering as well as the rules.
fn fingerprint(db: &Database) -> String {
    let mut text = String::new();
    for atom in db.symbols().atoms() {
        text.push_str(db.symbols().name(atom));
        text.push('\n');
    }
    text.push_str("--\n");
    text.push_str(&display_database(db));
    format!(
        "{} {} {:016x}",
        db.len(),
        db.num_atoms(),
        fnv1a(text.as_bytes())
    )
}

fn chains(c: usize, d: usize) -> DatalogProgram {
    parse_datalog(&bound_chains(c, d).0).unwrap()
}

fn query(src: &str) -> PredAtom {
    parse_datalog(&format!("{src}.")).unwrap().rules[0].head[0].clone()
}

/// `<label> <fingerprint>` for every pinned generated grounding: the
/// `bound_point` catalog program, the five `load_churn` sizes, and one
/// goal-directed grounding of each of the first two.
fn fingerprints() -> String {
    let mut out = String::new();
    let mut line = |label: String, db: Database| {
        out.push_str(&format!("{label} {}\n", fingerprint(&db)));
    };
    for (c, d) in [(32, 32), (8, 8), (16, 16), (32, 8), (8, 32), (24, 24)] {
        line(
            format!("reduced bound_chains({c},{d})"),
            ground_reduced(&chains(c, d), LIMIT).unwrap(),
        );
    }
    for (c, d) in [(32, 32), (8, 8)] {
        let q = query(&bound_chains(c, d).1);
        line(
            format!("magic bound_chains({c},{d})"),
            ground_magic(&chains(c, d), &q, LIMIT).unwrap(),
        );
    }
    out
}

#[test]
fn generated_programs_ground_to_their_golden_hashes() {
    let actual = fingerprints();
    let expected = read_golden("hashes.txt");
    assert_eq!(
        actual, expected,
        "actual fingerprints:\n{actual}\nexpected:\n{expected}"
    );
}
