//! End-to-end checks of the resource-limit surface of the `ddb` binary:
//! the exit-code contract (4 = usage/parse/IO, 3 = resource-exhausted),
//! diagnostics on stderr, deterministic oracle-budget exhaustion, the
//! wall-clock timeout on a Σᵖ₂-hard instance, per-cell profile budgets,
//! and the budget fields of the `--trace-json` document.

use ddb_reductions::dsm_hardness::exists_forall_to_dsm_existence;
use ddb_reductions::gcwa_hardness::forall_exists_to_gcwa;
use ddb_reductions::qbf::parity_family;
use disjunctive_db::obs::json::{parse, Json};
use disjunctive_db::prelude::display_database;
use std::process::Command;
use std::time::{Duration, Instant};

fn ddb() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ddb"))
}

fn temp_file(name: &str, contents: &str) -> String {
    let path =
        std::env::temp_dir().join(format!("ddb_cli_govern_{name}_{}.dl", std::process::id()));
    std::fs::write(&path, contents).unwrap();
    path.to_str().unwrap().to_owned()
}

fn exit_code(cmd: &mut Command) -> i32 {
    cmd.output().expect("running ddb").status.code().unwrap()
}

#[test]
fn usage_parse_and_io_failures_exit_four() {
    // Unknown subcommand.
    assert_eq!(exit_code(ddb().args(["frobnicate"])), 4);
    // Unreadable input file.
    assert_eq!(
        exit_code(ddb().args(["query", "/nonexistent/nope.dl", "--literal", "a"])),
        4
    );
    // Malformed resource-limit value.
    let path = temp_file("usage", "a | b.");
    let out = ddb()
        .args(["exists", &path, "--timeout-ms", "xyz"])
        .output()
        .unwrap();
    assert_eq!(out.status.code().unwrap(), 4);
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("timeout-ms"), "diagnostic on stderr: {err}");
    std::fs::remove_file(&path).ok();
}

/// A misspelled flag is a usage error naming it, not a silently ignored
/// pair: `--max-oracle-call 0` (for `--max-oracle-calls 0`) would
/// otherwise run the query unbudgeted and exit 0.
#[test]
fn unknown_flags_are_usage_errors() {
    let query = [
        "query",
        "examples/vase.dl",
        "--semantics",
        "dsm",
        "--literal",
        "treat",
    ];
    let run = |extra: &[&str]| ddb().args(query).args(extra).output().unwrap();
    let typo = run(&["--max-oracle-call", "0"]);
    assert_eq!(typo.status.code(), Some(4));
    assert!(typo.stdout.is_empty(), "nothing is answered");
    let err = String::from_utf8_lossy(&typo.stderr);
    assert!(err.contains("unknown flag `--max-oracle-call`"), "{err}");
    assert_eq!(run(&["--max-oracle-calls", "0"]).status.code(), Some(3));
    let bogus = run(&["--bogus", "1"]);
    assert_eq!(bogus.status.code(), Some(4));
    assert!(String::from_utf8_lossy(&bogus.stderr).contains("`--bogus`"));
    // Every command shares the one parser, `check` included.
    assert_eq!(
        exit_code(ddb().args(["check", "examples/vase.dl", "--strickt"])),
        4
    );
}

/// A known flag on a command that does not read it is a usage error too:
/// `ground` takes no semantics and `wfs` no budget, so running either as
/// if it did would silently ignore the flag.
#[test]
fn flags_a_command_does_not_read_are_usage_errors() {
    for (args, flag) in [
        (
            &["ground", "examples/reach.dlv", "--semantics", "dsm"][..],
            "--semantics",
        ),
        (&["wfs", "f", "--max-models", "1"], "--max-models"),
    ] {
        let out = ddb().args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(4), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}: nothing is answered");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(&format!("`{flag}`")), "{args:?}: {err}");
    }
    // The same flags where the command reads them still run.
    assert_eq!(
        exit_code(ddb().args(["ground", "examples/reach.dlv", "--full"])),
        0
    );
}

#[test]
fn check_exit_codes_are_not_disturbed_by_the_new_contract() {
    // `ddb check` keeps its 0/1/2 contract; only 3 and 4 are new.
    assert_eq!(exit_code(ddb().args(["check", "/nonexistent/nope.dl"])), 2);
}

#[test]
fn zero_oracle_budget_exhausts_deterministically() {
    let inst = forall_exists_to_gcwa(&parity_family(6));
    let w = format!("-{}", inst.db.symbols().name(inst.w));
    let path = temp_file("oracle", &display_database(&inst.db));
    let out = ddb()
        .args([
            "query",
            &path,
            "--semantics",
            "gcwa",
            "--literal",
            &w,
            "--max-oracle-calls",
            "0",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code().unwrap(), 3, "resource-exhausted exit");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("unknown"), "three-valued answer: {stdout}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("oracle_calls"),
        "stderr names the exhausted resource: {stderr}"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn timeout_on_sigma2_hard_existence_is_prompt() {
    // DSM existence on the complement parity family is Σᵖ₂-hard; with a
    // 100 ms deadline the run must degrade to Unknown and exit 3 well
    // within the 2 s promptness bound (checkpoints are sprinkled through
    // the SAT conflict loop and the stable-model candidate search).
    let inst = exists_forall_to_dsm_existence(&parity_family(12).complement());
    let path = temp_file("timeout", &display_database(&inst.db));
    let started = Instant::now();
    let out = ddb()
        .args(["exists", &path, "--semantics", "dsm", "--timeout-ms", "100"])
        .output()
        .unwrap();
    let elapsed = started.elapsed();
    assert_eq!(out.status.code().unwrap(), 3, "resource-exhausted exit");
    assert!(
        elapsed < Duration::from_secs(2),
        "interruption must be prompt, took {elapsed:?}"
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("unknown"));
    std::fs::remove_file(&path).ok();
}

#[test]
fn budgeted_profile_completes_the_matrix_with_interrupted_cells() {
    let inst = forall_exists_to_gcwa(&parity_family(8));
    let path = temp_file("profile", &display_database(&inst.db));
    // A one-literal formula is planned as a literal, and the GCWA/CCWA
    // literal cells can finish within 1 ms; a two-atom formula keeps the
    // formula cells on the Πᵖ₂ procedures.
    let out = ddb()
        .args([
            "profile",
            &path,
            "--cell-timeout-ms",
            "1",
            "--formula",
            "v0 | v1",
        ])
        .output()
        .unwrap();
    // The sweep itself succeeds: slow cells are marked, not fatal.
    assert_eq!(out.status.code().unwrap(), 0);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("?deadline"),
        "Πᵖ₂ cells cannot finish in 1 ms: {stdout}"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn trace_json_carries_interruption_and_consumption() {
    let inst = forall_exists_to_gcwa(&parity_family(6));
    let w = format!("-{}", inst.db.symbols().name(inst.w));
    let path = temp_file("trace", &display_database(&inst.db));
    let trace =
        std::env::temp_dir().join(format!("ddb_cli_govern_trace_{}.json", std::process::id()));
    let status = ddb()
        .args([
            "query",
            &path,
            "--semantics",
            "gcwa",
            "--literal",
            &w,
            "--max-oracle-calls",
            "0",
            "--trace-json",
            trace.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert_eq!(status.status.code().unwrap(), 3);
    let doc = parse(&std::fs::read_to_string(&trace).unwrap()).expect("valid trace JSON");
    assert_eq!(
        doc.get("interrupted").and_then(Json::as_str),
        Some("oracle_calls")
    );
    assert_eq!(doc.get("answer").cloned(), Some(Json::Null));
    let consumed = doc.get("budget_consumed").expect("consumption snapshot");
    assert_eq!(consumed.get("oracle_calls").and_then(Json::as_u64), Some(1));
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&trace).ok();
}
