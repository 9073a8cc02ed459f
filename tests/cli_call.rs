//! `ddb call` against a live `ddb serve` prints exactly what the local
//! command prints: the same stdout, the same stderr (the `[oracle: …]`
//! bill and the `unknown (<resource>): …` notice) and the same exit code,
//! for `query` (formula, literal, brave), `exists` and `models` under all
//! ten semantics, CCWA/ECWA partitions, and tripped budgets. Failed
//! requests must exit alike; their messages may differ.

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};

const SEMANTICS: [&str; 10] = [
    "gcwa", "egcwa", "ccwa", "ecwa", "ddr", "pws", "perf", "icwa", "dsm", "pdsm",
];

fn ddb() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ddb"))
}

/// A `ddb serve` child on an ephemeral port serving `vase`, `layers`, the
/// partition database `ab` (`a | b.`), `four` (`a | b. c | d.`, four
/// minimal models), `closed` (two GCWA models among seven classical
/// ones) and `guarded` (`a | b. :- a, b.`, whose integrity clause makes
/// existence an oracle question), each of the last four in a file of the
/// test's own; killed on drop.
struct Served {
    child: Child,
    addr: String,
    ab: String,
    four: String,
    closed: String,
    guarded: String,
}

impl Served {
    fn start(test: &str) -> Served {
        let file = |name: &str, text: &str| {
            let path = std::env::temp_dir()
                .join(format!(
                    "ddb_cli_call_{test}_{name}_{}.dl",
                    std::process::id()
                ))
                .to_str()
                .unwrap()
                .to_owned();
            std::fs::write(&path, text).unwrap();
            path
        };
        let ab = file("ab", "a | b.\n");
        let four = file("four", "a | b. c | d.\n");
        let closed = file("closed", "a | b. c :- d, a. d :- c, b. c | d :- a, b.\n");
        let guarded = file("guarded", "a | b. :- a, b.\n");
        let mut child = ddb()
            .args([
                "serve",
                "examples/vase.dl",
                "--db",
                "layers=examples/layers.dlv",
                "--db",
                &format!("ab={ab}"),
                "--db",
                &format!("four={four}"),
                "--db",
                &format!("closed={closed}"),
                "--db",
                &format!("guarded={guarded}"),
                "--addr",
                "127.0.0.1:0",
            ])
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawning ddb serve");
        let mut line = String::new();
        BufReader::new(child.stdout.take().unwrap())
            .read_line(&mut line)
            .unwrap();
        let addr = line
            .trim()
            .strip_prefix("listening on ")
            .unwrap_or_else(|| panic!("no address announced: {line:?}"))
            .to_owned();
        Served {
            child,
            addr,
            ab,
            four,
            closed,
            guarded,
        }
    }

    /// Runs the local command on `file` and the same whitespace-separated
    /// flags through `ddb call --db <db>`; returns both (stdout, stderr,
    /// exit code).
    fn both(&self, op: &str, file: &str, db: &str, flags: &str) -> [(String, String, i32); 2] {
        let run = |args: Vec<&str>| {
            let out = ddb().args(&args).output().expect("running ddb");
            (
                String::from_utf8_lossy(&out.stdout).into_owned(),
                String::from_utf8_lossy(&out.stderr).into_owned(),
                out.status.code().unwrap(),
            )
        };
        let flags = flags.split_whitespace();
        let local = [op, file].into_iter().chain(flags.clone()).collect();
        let call = ["call", "--addr", &self.addr, "--op", op, "--db", db];
        [run(local), run(call.into_iter().chain(flags).collect())]
    }

    /// Byte parity of a request that succeeds (exit 0 or 3); a request
    /// that fails must fail on both sides with the same exit code.
    fn assert_parity(&self, op: &str, file: &str, db: &str, flags: &str) {
        let [local, served] = self.both(op, file, db, flags);
        if local.2 == 4 {
            assert_eq!(served.2, 4, "{op} {file} {flags}: {served:?}");
        } else {
            assert_eq!(local, served, "{op} {file} {flags}");
        }
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        std::fs::remove_file(&self.ab).ok();
        std::fs::remove_file(&self.four).ok();
        std::fs::remove_file(&self.closed).ok();
        std::fs::remove_file(&self.guarded).ok();
    }
}

#[test]
fn every_problem_matches_local_under_all_ten_semantics() {
    let server = Served::start("every_problem_matches_local_under_all_ten_semantics");
    for (file, db, atom) in [
        ("examples/vase.dl", "vase", "treat"),
        ("examples/layers.dlv", "layers", "covered(gear)"),
    ] {
        for sem in SEMANTICS {
            for query in [
                format!("--formula -{atom}"),
                format!("--literal -{atom}"),
                format!("--literal {atom}"),
                format!("--formula {atom} --brave"),
            ] {
                let flags = format!("--semantics {sem} {query}");
                server.assert_parity("query", file, db, &flags);
            }
            server.assert_parity("exists", file, db, &format!("--semantics {sem}"));
            server.assert_parity("models", file, db, &format!("--semantics {sem}"));
        }
    }
}

#[test]
fn exists_prints_the_oracle_bill_on_both_sides() {
    let server = Served::start("exists_prints_the_oracle_bill_on_both_sides");
    let [local, served] = server.both("exists", "examples/vase.dl", "vase", "--semantics dsm");
    assert!(local.1.starts_with("[oracle: "), "{local:?}");
    assert_eq!(local, served);
}

#[test]
fn partition_queries_match_local() {
    let server = Served::start("partition_queries_match_local");
    let ab = server.ab.clone();
    for sem in ["ccwa", "ecwa"] {
        for query in [
            "--partition-p a --literal -a",
            "--partition-p a --partition-q b --literal -a",
            "--partition-q a,b --formula a|b",
        ] {
            let flags = format!("--semantics {sem} {query}");
            let [local, served] = server.both("query", &ab, "ab", &flags);
            assert_eq!(local, served, "{flags}");
            assert_eq!(local.2, 0, "{flags}: {local:?}");
        }
        let flags = format!("--semantics {sem} --partition-p a");
        server.assert_parity("models", &ab, "ab", &flags);
        server.assert_parity("exists", &ab, "ab", &flags);
    }
}

#[test]
fn tripped_budgets_match_local() {
    let server = Served::start("tripped_budgets_match_local");
    let vase = ("examples/vase.dl", "vase");
    // Existence on the positive vase database is Table 1's O(1) cell and
    // never asks the oracle; the guarded database's integrity clause does.
    let guarded = (server.guarded.as_str(), "guarded");
    for (op, (file, db), flags) in [
        (
            "query",
            vase,
            "--semantics gcwa --formula -treat --fail-after 3",
        ),
        (
            "query",
            vase,
            "--semantics dsm --literal treat --max-oracle-calls 0",
        ),
        ("exists", guarded, "--semantics pdsm --max-oracle-calls 0"),
        ("models", vase, "--semantics gcwa --max-models 1"),
        ("models", vase, "--semantics dsm --fail-after 1"),
    ] {
        let [local, served] = server.both(op, file, db, flags);
        assert_eq!(local.2, 3, "{op} {flags} trips: {local:?}");
        assert!(local.1.contains("unknown ("), "{local:?}");
        assert_eq!(local, served, "{op} {flags}");
    }
}

#[test]
fn max_models_trips_every_minimal_model_walk() {
    let server = Served::start("max_models_trips_every_minimal_model_walk");
    let four = server.four.clone();
    for sem in ["dsm", "perf", "pdsm", "egcwa", "ecwa", "icwa"] {
        let flags = format!("--semantics {sem} --max-models 1");
        let [local, served] = server.both("models", &four, "four", &flags);
        assert_eq!(local, served, "{flags}");
        assert_eq!(local.2, 3, "{flags} trips: {local:?}");
        assert!(
            local.1.contains("interrupted: models"),
            "{flags}: {local:?}"
        );
        assert!(!local.0.starts_with("4 model(s)"), "{flags}: {local:?}");
        // EGCWA keeps the models it verified before the trip.
        let kept = if sem == "egcwa" {
            "1 model(s)"
        } else {
            "0 model(s)"
        };
        assert!(local.0.starts_with(kept), "{flags}: {local:?}");
    }
}

/// GCWA and CCWA enumerate the models of `DB ∪ ¬N` directly, so
/// `--max-models` counts answers (plus the CEGAR witnesses that compute
/// `N`), not every classical model of `DB`.
#[test]
fn max_models_counts_closed_world_answers() {
    let server = Served::start("max_models_counts_closed_world_answers");
    let closed = server.closed.clone();
    for sem in ["gcwa", "ccwa"] {
        let flags = format!("--semantics {sem} --max-models 4");
        let [local, served] = server.both("models", &closed, "closed", &flags);
        assert_eq!(local, served, "{flags}");
        assert_eq!(local.2, 0, "{flags}: {local:?}");
        let listed: Vec<&str> = local.0.lines().skip(1).map(str::trim).collect();
        assert!(
            local.0.starts_with("2 model(s) under "),
            "{flags}: {local:?}"
        );
        assert_eq!(listed, ["{a}", "{b}"], "{flags}");
        // The two witnesses that put `a` and `b` outside `N` are charged
        // too, so three models are not enough.
        let flags = format!("--semantics {sem} --max-models 3");
        let [local, served] = server.both("models", &closed, "closed", &flags);
        assert_eq!(local, served, "{flags}");
        assert_eq!(local.2, 3, "{flags} trips: {local:?}");
    }
}

#[test]
fn failed_requests_exit_alike() {
    let server = Served::start("failed_requests_exit_alike");
    for (op, flags) in [
        ("query", "--semantics nope --literal treat"),
        ("query", "--semantics gcwa --literal zzz"),
        ("query", "--semantics gcwa"),
        ("query", "--semantics gcwa --formula a&"),
        ("models", "--semantics ccwa --partition-p zzz"),
        ("exists", "--semantics gcwa --timeout-ms soon"),
        ("query", "--semantics gcwa --threads 0 --literal treat"),
    ] {
        let [local, served] = server.both(op, "examples/vase.dl", "vase", flags);
        assert_eq!((local.2, served.2), (4, 4), "{op} {flags}");
    }
    // Flags the wire cannot carry are refused, not dropped.
    for flags in [
        "--literal treat --explain",
        "--partial",
        "--formula treat --formula alice",
    ] {
        let [_, served] = server.both("query", "examples/vase.dl", "vase", flags);
        assert_eq!(served.2, 4, "{flags}: {served:?}");
    }
}
