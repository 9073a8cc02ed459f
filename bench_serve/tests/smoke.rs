//! Smoke tests of `bench_serve`: short served runs of every workload, the
//! metric set against `BENCHMARK.json`, and determinism of the generated
//! inputs. Run with `cargo test --release`: the served runs are timed.

use ddb_bench_serve::report::{END_TO_END, PER_LAYER};
use ddb_bench_serve::workload::{Workload, WORKLOADS};
use ddb_obs::json::{self, Json};
use std::process::Command;
use std::time::{Duration, Instant};

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every entry of a `BENCHMARK.json` metric list.
fn declared(doc: &Json, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Json::as_str).expect("name and unit");
            (field("name").to_owned(), field("unit").to_owned())
        })
        .collect()
}

fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
    list.iter()
        .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
        .collect()
}

/// Runs the binary on one workload and returns the JSON result line.
fn run(workload: &str, extra: &[&str]) -> (Json, Duration) {
    let started = Instant::now();
    let out = Command::new(env!("CARGO_BIN_EXE_bench_serve"))
        .args(["--workload", workload, "--smoke"])
        .args(extra)
        .output()
        .expect("bench_serve starts");
    let took = started.elapsed();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload}: {}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    (json::parse(last).expect("the last line is JSON"), took)
}

fn metric_names(result: &Json) -> Vec<String> {
    match result.get("metrics") {
        Some(Json::Obj(pairs)) => pairs.iter().map(|(k, _)| k.clone()).collect(),
        other => panic!("metrics object expected, got {other:?}"),
    }
}

#[test]
fn declared_metrics_match_benchmark_json_both_ways() {
    let doc = benchmark_json();
    assert_eq!(declared(&doc, "end_to_end"), owned(&END_TO_END));
    assert_eq!(declared(&doc, "per_layer"), owned(&PER_LAYER));
    let workloads: Vec<String> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_owned()
        })
        .collect();
    assert_eq!(workloads, WORKLOADS);
}

#[test]
fn names_and_units_use_the_allowed_characters() {
    let name_ok = |s: &str| {
        !s.is_empty()
            && s.len() <= 64
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
    };
    let unit_ok = |s: &str| {
        !s.is_empty()
            && s.len() <= 16
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b))
    };
    for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
        assert!(name_ok(name), "{name}");
        assert!(unit_ok(unit), "{name}: {unit}");
    }
    for w in WORKLOADS {
        assert!(name_ok(w), "{w}");
    }
}

#[test]
fn inputs_repeat_for_a_seed_and_change_across_seeds() {
    for w in WORKLOADS {
        let a = Workload::build(w, 1).expect("known workload");
        let b = Workload::build(w, 1).expect("known workload");
        let c = Workload::build(w, 2).expect("known workload");
        assert_eq!(a.sources, b.sources, "{w}");
        assert_eq!(a.pool, b.pool, "{w}");
        assert_eq!(a.clients, b.clients, "{w}");
        assert_ne!(a.clients, c.clients, "{w}: the seed orders the frames");
        let sent = |x: &Workload| -> Vec<String> {
            x.clients
                .iter()
                .flatten()
                .map(|&i| x.pool[i].line.clone())
                .collect()
        };
        assert_ne!(sent(&a), sent(&c), "{w}");
    }
    assert!(Workload::build("nope", 1).is_none());
}

#[test]
fn every_workload_runs_correctly_at_smoke_size() {
    for w in WORKLOADS {
        let (result, took) = run(w, &["--trace", "1"]);
        assert!(took < Duration::from_secs(10), "{w} took {took:?}");
        assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{w}");
        assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0), "{w}");
        assert!(
            result.get("attempted").and_then(Json::as_u64) > Some(0),
            "{w}"
        );
        let expected: Vec<String> = PER_LAYER.iter().map(|(n, _)| (*n).to_owned()).collect();
        assert_eq!(metric_names(&result), expected, "{w}");
    }
    // Untraced, the end-to-end metrics (the smallest workload has the
    // samples every percentile needs even in a smoke run).
    let (result, _) = run("wire_small", &[]);
    let expected: Vec<String> = END_TO_END.iter().map(|(n, _)| (*n).to_owned()).collect();
    assert_eq!(metric_names(&result), expected);
}

#[test]
fn bad_arguments_are_refused() {
    for args in [
        &["--workload", "nope"][..],
        &["--trace", "2"],
        &["--seconds", "0"],
        &["--frobnicate"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_bench_serve"))
            .args(args)
            .output()
            .expect("bench_serve starts");
        assert!(!out.status.success(), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
