//! End-to-end checks of the resource-limit surface of the `ddb` binary:
//! the exit-code contract (4 = usage/parse/IO, 3 = resource-exhausted),
//! diagnostics on stderr, deterministic oracle-budget exhaustion, the
//! wall-clock timeout on a Σᵖ₂-hard instance, per-cell profile budgets,
//! the budget fields of the `--trace-json` document, batched `--formula`
//! queries (ordering, flag conflicts, budgets), and EPIPE tolerance when
//! a downstream consumer closes the pipe early.

use ddb_reductions::dsm_hardness::exists_forall_to_dsm_existence;
use ddb_reductions::gcwa_hardness::forall_exists_to_gcwa;
use ddb_reductions::qbf::parity_family;
use disjunctive_db::obs::json::{parse, Json};
use disjunctive_db::prelude::display_database;
use std::io::Read;
use std::process::{Command, Stdio};
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
    let out = ddb()
        .args(["rewrite", "examples/magic.dlv", "--query", "ancestor(t1,m)"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(4));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown command `rewrite`"), "{err}");
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
/// `ground` takes no semantics, `wfs` no budget, and `explain` reads only
/// `--max-oracle-calls` (as the DDB015 threshold; its `--execute` audits
/// run unbudgeted), so running any of them as if it did would silently
/// ignore the flag.
#[test]
fn flags_a_command_does_not_read_are_usage_errors() {
    let mut cases: Vec<(Vec<&str>, &str)> = vec![
        (
            vec!["ground", "examples/reach.dlv", "--semantics", "dsm"],
            "--semantics",
        ),
        (vec!["wfs", "f", "--max-models", "1"], "--max-models"),
    ];
    // No command reads a worker-pool width.
    for command in [
        "models examples/vase.dl",
        "query examples/vase.dl --literal treat",
        "exists examples/vase.dl",
        "profile examples/vase.dl",
        "explain examples/vase.dl",
        "trace examples/vase.dl --query treat",
        "serve examples/vase.dl",
        "call --addr 127.0.0.1:9 --op ping",
    ] {
        cases.push((
            command.split(' ').chain(["--threads", "2"]).collect(),
            "--threads",
        ));
    }
    let explain = "explain examples/vase.dl --execute --semantics pdsm";
    for flag in [
        "--timeout-ms",
        "--max-conflicts",
        "--max-models",
        "--fail-after",
    ] {
        cases.push((explain.split(' ').chain([flag, "1"]).collect(), flag));
    }
    for (args, flag) in cases {
        let out = ddb().args(&args).output().unwrap();
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
    assert_eq!(
        exit_code(ddb().args(["explain", "examples/vase.dl", "--max-oracle-calls", "1"])),
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

#[test]
fn batch_query_answers_in_command_line_order() {
    let path = temp_file("batch", "a | b. c :- a. c :- b.");
    let out = ddb()
        .args([
            "query",
            &path,
            "--semantics",
            "gcwa",
            "--formula",
            "c",
            "--formula",
            "a & b",
            "--formula",
            "a | b",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code().unwrap(), 0);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(
        lines,
        vec!["c: inferred", "a & b: not inferred", "a | b: inferred"],
        "one line per formula, in command order"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn batch_rejects_incompatible_flags() {
    let path = temp_file("batchbad", "a | b.");
    let batch = ["--formula", "a", "--formula", "b"];
    for extra in [&["--literal", "a"][..], &["--brave"], &["--explain"]] {
        let mut args = vec!["query", path.as_str()];
        args.extend_from_slice(&batch);
        args.extend_from_slice(extra);
        assert_eq!(exit_code(ddb().args(&args)), 4, "extra {extra:?}");
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn batch_under_zero_oracle_budget_exits_exhausted() {
    let path = temp_file("batchgov", "a | b. c :- a. c :- b.");
    let out = ddb()
        .args([
            "query",
            &path,
            "--semantics",
            "gcwa",
            "--formula",
            "c",
            "--formula",
            "a | b",
            "--max-oracle-calls",
            "0",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code().unwrap(), 3, "resource-exhausted exit");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("unknown"), "three-valued answers: {stdout}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("oracle_calls"),
        "stderr names the exhausted resource: {stderr}"
    );
    std::fs::remove_file(&path).ok();
}

/// Spawns `ddb` with `args`, reads at most `keep` bytes of stdout, then
/// closes the pipe and waits — the downstream-`head` scenario.
fn run_with_early_close(args: &[&str], keep: usize) -> std::process::ExitStatus {
    let mut child = ddb()
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawning ddb");
    let mut stdout = child.stdout.take().unwrap();
    let mut buf = vec![0u8; keep.max(1)];
    let _ = stdout.read(&mut buf);
    drop(stdout); // EPIPE for every later write
    let status = child.wait().expect("waiting for ddb");
    let mut err = String::new();
    child.stderr.take().unwrap().read_to_string(&mut err).ok();
    assert!(
        !err.contains("panicked"),
        "closed pipe must not panic: {err}"
    );
    status
}

#[test]
fn closed_stdout_pipe_never_panics() {
    // `ddb ... | head -1` writes to a closed pipe mid-report. The binary
    // must swallow the broken pipe and exit through its normal path
    // instead of aborting on an io panic.
    let path = temp_file("epipe", "a | b. c :- a. c :- b. d | e :- c.");
    let profile = run_with_early_close(&["profile", &path], 8);
    assert_eq!(profile.code(), Some(0), "profile under closed pipe");
    let check = run_with_early_close(&["check", &path, "--json"], 8);
    assert!(
        check.code().is_some(),
        "check must exit, not die on a signal"
    );
    let batch = run_with_early_close(
        &[
            "query",
            &path,
            "--semantics",
            "egcwa",
            "--formula",
            "c",
            "--formula",
            "d | e",
            "--formula",
            "a | b",
        ],
        4,
    );
    assert_eq!(batch.code(), Some(0), "batch query under closed pipe");
    std::fs::remove_file(&path).ok();
}
