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

/// A `ddb serve` child on an ephemeral port serving `vase`, `layers` and
/// the partition database `ab` (`a | b.`, in a file of the test's own);
/// killed on drop.
struct Served {
    child: Child,
    addr: String,
    ab: String,
}

impl Served {
    fn start(test: &str) -> Served {
        let ab = std::env::temp_dir()
            .join(format!("ddb_cli_call_{test}_{}.dl", std::process::id()))
            .to_str()
            .unwrap()
            .to_owned();
        std::fs::write(&ab, "a | b.\n").unwrap();
        let mut child = ddb()
            .args([
                "serve",
                "examples/vase.dl",
                "--db",
                "layers=examples/layers.dlv",
                "--db",
                &format!("ab={ab}"),
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
        Served { child, addr, ab }
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
    for (op, flags) in [
        ("query", "--semantics gcwa --formula -treat --fail-after 3"),
        (
            "query",
            "--semantics dsm --literal treat --max-oracle-calls 0",
        ),
        ("exists", "--semantics pdsm --max-oracle-calls 0"),
        ("models", "--semantics gcwa --max-models 1"),
        ("models", "--semantics dsm --fail-after 1"),
    ] {
        let [local, served] = server.both(op, "examples/vase.dl", "vase", flags);
        assert_eq!(local.2, 3, "{op} {flags} trips: {local:?}");
        assert!(local.1.contains("unknown ("), "{local:?}");
        assert_eq!(local, served, "{op} {flags}");
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
