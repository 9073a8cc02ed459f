//! End-to-end checks of `ddb explain`: plan output shape, determinism
//! across runs, the `--execute` plan-vs-actual
//! audit, `--json` well-formedness, plan lints, and EPIPE tolerance when
//! a downstream consumer closes the pipe early.

use std::io::Read;
use std::process::{Command, Stdio};

fn ddb() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ddb"))
}

fn temp_file(name: &str, contents: &str) -> String {
    let path =
        std::env::temp_dir().join(format!("ddb_cli_explain_{name}_{}.dl", std::process::id()));
    std::fs::write(&path, contents).unwrap();
    path.to_str().unwrap().to_owned()
}

/// A database that exercises every interesting plan shape: a proper
/// backward slice for `c`, a stratified negation to peel, and enough
/// structure that the ten semantics pick different routes.
const MIXED: &str = "a | b. c :- a. c :- b. d :- not c. e.";

#[test]
fn explain_is_byte_identical_across_runs() {
    let path = temp_file("det", MIXED);
    let args = ["explain", path.as_str(), "--query", "c"];
    let mut reference: Option<Vec<u8>> = None;
    for run in 0..3 {
        let out = ddb().args(args).output().unwrap();
        assert_eq!(out.status.code().unwrap(), 0, "run {run}");
        match &reference {
            None => reference = Some(out.stdout),
            Some(r) => assert_eq!(r, &out.stdout, "run {run} must match the first run"),
        }
    }
    std::fs::remove_file(&path).ok();
}

/// Without `--query`, explain plans model existence. On a positive
/// database that is Table 1's `O(1)` cell for all ten semantics: the
/// positive leaf, bound 0, and the audit sees no oracle call. An integrity
/// clause moves the database to Table 2, and its classes with it.
#[test]
fn explain_prints_table_one_classes_on_positive_nodes() {
    let positive = temp_file("table1", "a | b. c :- a, b.");
    let out = ddb()
        .args(["explain", &positive, "--execute"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(
        text.contains("query `(model existence)` (exist problem)"),
        "{text}"
    );
    let leaves = text
        .lines()
        .filter(|l| l.contains("positive [3 atoms, 2 rules] class O(1), <= 0 oracle calls"));
    assert_eq!(leaves.count(), 10, "{text}");
    let audits = text.lines().filter(|l| {
        l.contains("route predicted=positive observed=positive; sat_calls=0 (bound 0) — ok")
    });
    assert_eq!(audits.count(), 10, "{text}");
    // A negative DDR literal: Chan's P cell of Table 1 on the positive
    // database, coNP-complete (Table 2) once an integrity clause joins.
    let guarded = temp_file("table2", "a | b. c :- a, b. :- c, a.");
    for (path, class) in [
        (&positive, "in P (Chan [5])"),
        (&guarded, "coNP-complete (Chan [5])"),
    ] {
        let out = ddb()
            .args(["explain", path, "--query", "-c", "--semantics", "ddr"])
            .output()
            .unwrap();
        let text = String::from_utf8(out.stdout).unwrap();
        assert!(text.contains(&format!("class {class},")), "{path}: {text}");
    }
    let out = ddb()
        .args(["explain", &guarded, "--semantics", "gcwa"])
        .output()
        .unwrap();
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("class NP-complete,"), "{text}");
    std::fs::remove_file(&positive).ok();
    std::fs::remove_file(&guarded).ok();
}

#[test]
fn explain_prints_one_plan_per_semantics_with_routes_and_bounds() {
    let path = temp_file("shape", MIXED);
    let out = ddb()
        .args(["explain", &path, "--query", "c"])
        .output()
        .unwrap();
    assert_eq!(out.status.code().unwrap(), 0);
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("query `c` (lit problem)"), "{text}");
    assert!(text.contains("adornments:"), "{text}");
    for name in [
        "GCWA", "DDR", "PWS", "EGCWA", "CCWA", "ECWA", "ICWA", "PERF", "DSM", "PDSM",
    ] {
        assert!(
            text.contains(&format!("== {name}")),
            "missing {name}: {text}"
        );
    }
    assert!(text.contains("oracle calls"), "{text}");
    assert!(
        text.contains("split") && text.contains("class"),
        "routes and classes in the tree: {text}"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn execute_audit_passes_on_the_layers_example() {
    let out = ddb()
        .args([
            "explain",
            "examples/layers.dlv",
            "--query",
            "audited(acme)",
            "--execute",
        ])
        .output()
        .unwrap();
    let text = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code().unwrap(), 0, "{text}");
    assert!(text.contains("audit "), "{text}");
    assert!(!text.contains("MISMATCH"), "{text}");
}

#[test]
fn execute_audit_covers_every_supported_semantics() {
    let path = temp_file("audit", MIXED);
    let out = ddb()
        .args(["explain", &path, "--query", "c", "--execute"])
        .output()
        .unwrap();
    let text = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code().unwrap(), 0, "{text}");
    // DDR and PWS reject negation; the other eight must all audit ok.
    let ok_lines = text
        .lines()
        .filter(|l| l.starts_with("audit ") && l.ends_with("ok"));
    assert_eq!(ok_lines.count(), 8, "{text}");
    assert!(!text.contains("MISMATCH"), "{text}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn explain_json_is_well_formed() {
    let path = temp_file("json", MIXED);
    let out = ddb()
        .args(["explain", &path, "--query", "c", "--execute", "--json"])
        .output()
        .unwrap();
    assert_eq!(out.status.code().unwrap(), 0);
    let text = String::from_utf8(out.stdout).unwrap();
    let doc = ddb_obs::json::parse(&text).expect("explain --json must parse");
    assert_eq!(doc.get("problem").and_then(|p| p.as_str()), Some("lit"));
    let plans = doc.get("plans").and_then(|p| p.as_arr()).unwrap();
    assert_eq!(plans.len(), 10, "one plan entry per semantics");
    let audits = doc.get("audits").and_then(|a| a.as_arr()).unwrap();
    assert!(!audits.is_empty());
    for audit in audits {
        assert_eq!(
            audit.get("ok").and_then(|o| o.as_bool()),
            Some(true),
            "{text}"
        );
    }
    assert_eq!(doc.get("audit_failures").and_then(|n| n.as_u64()), Some(0));
    std::fs::remove_file(&path).ok();
}

fn json_of(args: &[&str]) -> ddb_obs::json::Json {
    let out = ddb().args(args).output().unwrap();
    assert_eq!(out.status.code().unwrap(), 0, "{args:?}");
    ddb_obs::json::parse(&String::from_utf8(out.stdout).unwrap()).expect("--json must parse")
}

#[test]
fn explain_audits_the_partition_query_runs() {
    // `--partition-p/-q` reach the plan and the audit exactly as they
    // reach `ddb query`: the predicted route is the one `query --stats`
    // counts, and the audited bill is the bill `query` prints.
    let path = temp_file("partition", "a | b. c :- a.");
    for semantics in ["ccwa", "ecwa"] {
        for partition in [&[][..], &["--partition-p", "a", "--partition-q", "b"][..]] {
            let flags = [&["--semantics", semantics][..], partition].concat();
            let what = format!("{flags:?}");
            let explain = json_of(
                &[
                    &["explain", &path, "--query", "-b", "--execute", "--json"][..],
                    &flags,
                ]
                .concat(),
            );
            let audit = &explain.get("audits").and_then(|a| a.as_arr()).unwrap()[0];
            let route = audit
                .get("predicted_route")
                .and_then(|r| r.as_str())
                .unwrap();
            let sat_calls = audit.get("observed_sat_calls").and_then(|n| n.as_u64());
            let out = ddb()
                .args([&["query", &path, "--literal", "-b", "--stats"][..], &flags].concat())
                .output()
                .unwrap();
            assert_eq!(out.status.code().unwrap(), 0, "{what}");
            let stats = String::from_utf8(out.stderr).unwrap();
            let billed = stats
                .split("[oracle: ")
                .nth(1)
                .and_then(|rest| rest.split(' ').next())
                .and_then(|n| n.parse::<u64>().ok());
            assert_eq!(billed, sat_calls, "{what}: {stats}");
            assert!(
                stats
                    .lines()
                    .any(|l| l.split_whitespace().next() == Some(&format!("route.{route}"))),
                "{what}: predicted {route}, but query --stats counted\n{stats}"
            );
        }
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn slice_report_is_the_slice_the_plan_executes() {
    // `b :- ghost.` is dead, but the propositional query `b` is unbound,
    // so the planner keeps it; the magic.dlv queries are bound, and their
    // demand closures drop no dead rule, so `ddb slice` reports exactly the
    // rules every semantics' slice node executes.
    let path = temp_file(
        "slice",
        "a | z. b :- a. b :- ghost. ghost :- ghost2. x | y.",
    );
    for (file, query) in [
        (path.as_str(), "b"),
        ("examples/magic.dlv", "ancestor(t1,m)"),
        ("examples/magic.dlv", "ancestor(t1,m) & ancestor(t1,b)"),
    ] {
        let slice = json_of(&["slice", file, "--query", query, "--json"]);
        let explain = json_of(&["explain", file, "--query", query, "--json"]);
        let rules = slice.get("slice_rules").and_then(|r| r.as_arr()).unwrap();
        let admissions = slice.get("admissions").and_then(|a| a.as_arr()).unwrap();
        let plans = explain.get("plans").and_then(|p| p.as_arr()).unwrap();
        assert_eq!(admissions.len(), plans.len());
        for (admission, plan) in admissions.iter().zip(plans) {
            let name = admission.get("semantics").and_then(|s| s.as_str()).unwrap();
            assert_eq!(plan.get("semantics").and_then(|s| s.as_str()), Some(name));
            let tree = plan.get("plan").unwrap();
            assert_eq!(
                tree.get("route").and_then(|r| r.as_str()),
                Some("slice"),
                "{file} `{query}` {name}"
            );
            // Both sides close the same query; equal sizes of a closure
            // and its subset mean equal rule sets.
            let executed = tree.get("children").and_then(|c| c.as_arr()).unwrap()[0]
                .get("rules")
                .and_then(|r| r.as_u64());
            assert_eq!(
                executed,
                Some(rules.len() as u64),
                "{file} `{query}` {name}: slice report and plan differ"
            );
            // The plan names the admission `ddb slice` reports.
            let admitted = admission.get("admission").and_then(|a| a.as_str()).unwrap();
            let detail = tree.get("detail").and_then(|d| d.as_str()).unwrap();
            assert!(
                detail.ends_with(&format!("(admission: {admitted})")),
                "{file} `{query}` {name}: {detail} vs {admitted}"
            );
        }
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn infeasible_budget_fires_ddb015() {
    let path = temp_file("budget", MIXED);
    let out = ddb()
        .args(["explain", &path, "--query", "c", "--max-oracle-calls", "1"])
        .output()
        .unwrap();
    assert_eq!(out.status.code().unwrap(), 0);
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("DDB015"), "{text}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn bad_budget_is_a_usage_error() {
    let path = temp_file("badbudget", MIXED);
    let out = ddb()
        .args(["explain", &path, "--max-oracle-calls", "lots"])
        .output()
        .unwrap();
    assert_eq!(out.status.code().unwrap(), 4);
    assert!(String::from_utf8_lossy(&out.stderr).contains("max-oracle-calls"));
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
    let path = temp_file("epipe", MIXED);
    let plain = run_with_early_close(&["explain", &path, "--query", "c"], 8);
    assert_eq!(plain.code(), Some(0), "explain under closed pipe");
    let executed = run_with_early_close(&["explain", &path, "--query", "c", "--execute"], 8);
    assert_eq!(
        executed.code(),
        Some(0),
        "explain --execute under closed pipe"
    );
    let json = run_with_early_close(&["explain", &path, "--json"], 8);
    assert_eq!(json.code(), Some(0), "explain --json under closed pipe");
    std::fs::remove_file(&path).ok();
}
