//! End-to-end checks of the CLI observability surface: `--stats`,
//! `--trace-json`, `--trace-chrome` and `--flame` on
//! `query`/`models`/`exists`/`profile`, plus the `ddb trace` span-tree
//! subcommand. The trace files must be valid JSON as judged by the
//! in-repo parser, with the documented top-level fields, well-formed
//! span events, and balanced begin/end pairs per thread track.

use disjunctive_db::obs::json::{parse, Json};
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::process::Command;

fn ddb() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ddb"))
}

fn vase() -> String {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("examples/vase.dl")
        .to_str()
        .unwrap()
        .to_owned()
}

fn layers() -> String {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("examples/layers.dlv")
        .to_str()
        .unwrap()
        .to_owned()
}

fn trace_path(name: &str) -> String {
    std::env::temp_dir()
        .join(format!("ddb_trace_{name}_{}.json", std::process::id()))
        .to_str()
        .unwrap()
        .to_owned()
}

fn run_and_parse(name: &str, args: &[&str]) -> Json {
    let path = trace_path(name);
    let mut cmd = ddb();
    cmd.args(args).arg("--trace-json").arg(&path);
    let out = cmd.output().expect("running ddb");
    assert!(
        out.status.success(),
        "ddb {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let raw = std::fs::read_to_string(&path).expect("trace file written");
    std::fs::remove_file(&path).ok();
    parse(&raw).expect("trace file is valid JSON")
}

#[test]
fn query_trace_is_valid_json_with_counters_and_events() {
    let vase = vase();
    let doc = run_and_parse(
        "query",
        &[
            "query",
            &vase,
            "--semantics",
            "gcwa",
            "--literal",
            "-treat",
            "--stats",
        ],
    );
    assert_eq!(doc.get("version").unwrap().as_u64(), Some(1));
    assert_eq!(doc.get("command").unwrap().as_str(), Some("query"));
    assert_eq!(doc.get("semantics").unwrap().as_str(), Some("gcwa"));
    // GCWA closes `treat` off on the vase database.
    assert_eq!(doc.get("answer").unwrap().as_bool(), Some(true));
    assert!(doc.get("wall_ns").unwrap().as_u64().unwrap() > 0);
    // The counters object records the NP-oracle calls the decision made.
    let counters = doc.get("counters").unwrap();
    assert!(counters.get("sat.solves").unwrap().as_u64().unwrap() >= 1);
    // Events include spans for the semantics entry point (GCWA literals
    // run as CCWA's countermodel search at P = V), and the stream is
    // well-nested.
    let events = doc.get("events").unwrap().as_arr().unwrap();
    assert!(!events.is_empty());
    let has_entry_span = events.iter().any(|e| {
        e.get("name")
            .and_then(|n| n.as_str())
            .is_some_and(|n| n == "ccwa.countermodel")
    });
    assert!(
        has_entry_span,
        "expected a ccwa.countermodel span in the event stream"
    );
}

#[test]
fn exists_trace_reports_boolean_answer() {
    let vase = vase();
    let doc = run_and_parse("exists", &["exists", &vase, "--semantics", "dsm"]);
    assert_eq!(doc.get("command").unwrap().as_str(), Some("exists"));
    assert_eq!(doc.get("answer").unwrap().as_bool(), Some(true));
}

#[test]
fn models_trace_reports_model_count() {
    let vase = vase();
    let doc = run_and_parse("models", &["models", &vase, "--semantics", "egcwa"]);
    assert_eq!(doc.get("command").unwrap().as_str(), Some("models"));
    // The vase database has exactly two minimal models ({alice, grounded}
    // and {bob, grounded}).
    assert_eq!(doc.get("answer").unwrap().as_u64(), Some(2));
}

#[test]
fn profile_trace_contains_all_thirty_cells() {
    let vase = vase();
    let doc = run_and_parse("profile", &["profile", &vase]);
    assert_eq!(doc.get("command").unwrap().as_str(), Some("profile"));
    let cells = doc.get("cells").unwrap().as_arr().unwrap();
    assert_eq!(cells.len(), 30);
    for cell in cells {
        assert!(cell.get("semantics").unwrap().as_str().is_some());
        assert!(cell.get("paper_class").unwrap().as_str().is_some());
        // Positive database: every cell must be answered.
        assert!(cell.get("answer").unwrap().as_bool().is_some());
    }
}

#[test]
fn profile_prints_matrix_table() {
    let vase = vase();
    let out = ddb().args(["profile", &vase]).output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for name in [
        "GCWA", "EGCWA", "CCWA", "ECWA", "DDR", "PWS", "PERF", "ICWA", "DSM", "PDSM",
    ] {
        assert!(stdout.contains(name), "missing {name} in profile table");
    }
    assert!(stdout.contains("Πᵖ₂"), "missing paper classes");
}

#[test]
fn stats_flag_prints_counter_table() {
    // A query that asks the oracle: existence on the positive vase
    // database is answered without it.
    let vase = vase();
    let out = ddb()
        .args([
            "query",
            &vase,
            "--semantics",
            "gcwa",
            "--literal",
            "-treat",
            "--stats",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("sat.solves"),
        "stats table missing: {stderr}"
    );
}

/// A formula batch on the layered datalog example: four independent
/// questions.
fn batch_args(layers: &str) -> Vec<&str> {
    vec![
        "query",
        layers,
        "--formula",
        "covered(gear)",
        "--formula",
        "covered(axle)",
        "--formula",
        "flagged(boltco)",
        "--formula",
        "audited(acme)",
        "--semantics",
        "egcwa",
    ]
}

#[test]
fn trace_json_events_carry_thread_and_monotone_ordinals() {
    let vase = vase();
    let doc = run_and_parse(
        "provenance",
        &["query", &vase, "--semantics", "gcwa", "--literal", "-treat"],
    );
    let events = doc.get("events").unwrap().as_arr().unwrap();
    assert!(!events.is_empty());
    let mut last: BTreeMap<u64, u64> = BTreeMap::new();
    for e in events {
        let thread = e.get("thread").expect("thread field").as_u64().unwrap();
        let ordinal = e.get("ordinal").expect("ordinal field").as_u64().unwrap();
        if let Some(prev) = last.insert(thread, ordinal) {
            assert!(
                ordinal > prev,
                "ordinals on track {thread} must be strictly increasing"
            );
        }
    }
}

#[test]
fn chrome_trace_has_balanced_named_tracks() {
    let layers = layers();
    let path = trace_path("chrome");
    let mut args = batch_args(&layers);
    args.extend(["--trace-chrome", &path]);
    let out = ddb().args(&args).output().unwrap();
    assert!(
        out.status.success(),
        "ddb {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let raw = std::fs::read_to_string(&path).expect("chrome trace written");
    std::fs::remove_file(&path).ok();
    let doc = parse(&raw).expect("chrome trace is valid JSON");
    let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
    let mut stacks: BTreeMap<u64, Vec<String>> = BTreeMap::new();
    let mut span_tracks: BTreeSet<u64> = BTreeSet::new();
    let mut named_tracks: BTreeSet<u64> = BTreeSet::new();
    let mut pairs = 0u64;
    for e in events {
        let ph = e.get("ph").unwrap().as_str().unwrap();
        let tid = e.get("tid").unwrap().as_u64().unwrap();
        let name = e.get("name").unwrap().as_str().unwrap().to_owned();
        match ph {
            "B" => {
                span_tracks.insert(tid);
                stacks.entry(tid).or_default().push(name);
            }
            "E" => {
                span_tracks.insert(tid);
                let top = stacks.entry(tid).or_default().pop();
                assert_eq!(
                    top.as_deref(),
                    Some(name.as_str()),
                    "unbalanced track {tid}"
                );
                pairs += 1;
            }
            "M" => {
                assert_eq!(name, "thread_name");
                named_tracks.insert(tid);
            }
            _ => {}
        }
    }
    assert!(pairs > 0, "no spans in the chrome trace");
    assert!(
        stacks.values().all(Vec::is_empty),
        "every track must close all spans"
    );
    assert!(!span_tracks.is_empty(), "no span track in the chrome trace");
    for t in &span_tracks {
        assert!(named_tracks.contains(t), "track {t} has no thread_name");
    }
}

#[test]
fn flame_stacks_sum_to_root_inclusive_time() {
    let vase = vase();
    let json_path = trace_path("flame_json");
    let flame_path = trace_path("flame_folded");
    let out = ddb()
        .args([
            "query",
            &vase,
            "--semantics",
            "egcwa",
            "--literal",
            "grounded",
            "--trace-json",
            &json_path,
            "--flame",
            &flame_path,
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let doc = parse(&std::fs::read_to_string(&json_path).unwrap()).unwrap();
    std::fs::remove_file(&json_path).ok();
    let folded = std::fs::read_to_string(&flame_path).unwrap();
    std::fs::remove_file(&flame_path).ok();
    // Single-threaded run: the one root span is cmd.query; the folded
    // exclusive values must sum to exactly its inclusive duration.
    let events = doc.get("events").unwrap().as_arr().unwrap();
    let root_ns = events
        .iter()
        .find(|e| {
            e.get("type").and_then(|t| t.as_str()) == Some("span_exit")
                && e.get("name").and_then(|n| n.as_str()) == Some("cmd.query")
                && e.get("depth").and_then(Json::as_u64) == Some(0)
        })
        .and_then(|e| e.get("dur_ns").unwrap().as_u64())
        .expect("root span exit in the event stream");
    let mut sum = 0u64;
    for line in folded.lines() {
        let (stack, value) = line.rsplit_once(' ').expect("folded line");
        assert!(stack.starts_with("cmd.query"), "stack rooted at cmd.query");
        sum += value.parse::<u64>().expect("folded value");
    }
    assert_eq!(sum, root_ns, "folded stacks must sum to root inclusive");
}

#[test]
fn every_sat_call_records_one_latency_sample() {
    let layers = layers();
    let doc = run_and_parse("latency", &batch_args(&layers));
    let solves = doc
        .get("counters")
        .unwrap()
        .get("sat.solves")
        .map_or(0, |j| j.as_u64().unwrap());
    let hist_count = doc
        .get("histograms")
        .unwrap()
        .get("sat.solve.ns")
        .map_or(0, |h| h.get("count").unwrap().as_u64().unwrap());
    assert!(solves > 0, "the batch must call the oracle");
    assert_eq!(
        solves, hist_count,
        "every SAT call records exactly one latency sample"
    );
}

/// Recursively checks `inclusive_ns >= sum(children inclusive_ns)` and
/// accumulates `calls` for the named span.
fn walk_tree(node: &Json, span: &str, calls: &mut u64) {
    let incl = node.get("inclusive_ns").unwrap().as_u64().unwrap();
    if node.get("name").unwrap().as_str() == Some(span) {
        *calls += node.get("calls").unwrap().as_u64().unwrap();
    }
    let children = node.get("children").unwrap().as_arr().unwrap();
    let child_sum: u64 = children
        .iter()
        .map(|c| c.get("inclusive_ns").unwrap().as_u64().unwrap())
        .sum();
    assert!(
        incl >= child_sum,
        "span tree not monotone: {incl} < {child_sum}"
    );
    for c in children {
        walk_tree(c, span, calls);
    }
}

#[test]
fn trace_subcommand_reports_monotone_span_tree() {
    let layers = layers();
    let out = ddb()
        .args(["trace", &layers, "--query", "covered(gear)", "--json"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "ddb trace failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = parse(&String::from_utf8_lossy(&out.stdout)).expect("trace report is valid JSON");
    assert_eq!(doc.get("command").unwrap().as_str(), Some("trace"));
    assert_eq!(doc.get("answer").unwrap().as_bool(), Some(true));
    let oracle = doc.get("oracle_calls").unwrap().as_u64().unwrap();
    assert!(oracle >= 1);
    let spans = doc.get("spans").unwrap().as_arr().unwrap();
    assert!(!spans.is_empty(), "span tree must not be empty");
    assert_eq!(spans[0].get("name").unwrap().as_str(), Some("cmd.trace"));
    let mut sat_calls = 0u64;
    for root in spans {
        walk_tree(root, "sat.solve", &mut sat_calls);
    }
    assert_eq!(
        sat_calls, oracle,
        "sat.solve tree calls must equal the sat.solves counter"
    );
}

#[test]
fn trace_subcommand_prints_text_tree() {
    let layers = layers();
    let out = ddb()
        .args(["trace", &layers, "--query", "covered(gear)", "--top", "3"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("covered(gear): inferred"), "{stdout}");
    for column in ["span", "calls", "incl", "excl", "oracle", "p99"] {
        assert!(stdout.contains(column), "missing column {column}: {stdout}");
    }
    assert!(stdout.contains("sat.solve"), "missing sat.solve: {stdout}");
}
