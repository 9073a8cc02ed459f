//! `bench_serve` — runs the served benchmark and prints one
//! `workload metric value unit` line per metric, then a JSON result line.
//!
//! ```text
//! bench_serve [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//!             [--smoke] [--check] [--digest] [--json FILE] [--trace-out FILE]
//! ```
//!
//! Without `--workload`, every workload runs in its own child process, so
//! counters, histograms and peak RSS start clean for each.

use ddb_bench_serve::exec::{self, Oracle};
use ddb_bench_serve::report::{self, END_TO_END, PER_LAYER};
use ddb_bench_serve::run;
use ddb_bench_serve::stats::{self, quantile};
use ddb_bench_serve::workload::{Kind, Workload, WORKLOADS};
use ddb_core::RoutingMode;
use ddb_obs::json::{self, Json};
use std::collections::{HashMap, HashSet};
use std::process::{Command, ExitCode};
use std::time::Duration;

const USAGE: &str = "usage: bench_serve [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
                     [--smoke] [--check] [--digest] [--json FILE] [--trace-out FILE]";

/// Rounds per run, each with a set-up of its own; `--seconds` is shared
/// among them.
const ROUNDS: usize = 5;

/// Cheap set-ups repeat on their own until they add up to this many
/// seconds…
const SETUP_SECONDS: f64 = 1.0;

/// …or this many were made; `setup_s` is their median.
const MAX_SETUP_REPS: usize = 201;

/// `--check`: no single request may take longer.
const MAX_LATENCY: Duration = Duration::from_secs(2);

/// Answer digests per workload and seed, from `bench_serve --digest`.
const DIGESTS: &str = include_str!("../digests.json");

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    check: bool,
    digest: bool,
    json: Option<String>,
    trace_out: Option<String>,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
        check: false,
        digest: false,
        json: None,
        trace_out: None,
    };
    let mut seconds = None;
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?.clone()),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".to_owned());
                }
                seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--json" => args.json = Some(value()?.clone()),
            "--trace-out" => args.trace_out = Some(value()?.clone()),
            "--smoke" => args.smoke = true,
            "--check" => args.check = true,
            "--digest" => args.digest = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    args.seconds = seconds.unwrap_or(if args.smoke { 1.0 } else { 10.0 });
    Ok(args)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bench_serve: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(name) = args.workload.as_deref() else {
        return run_all(&raw, &args);
    };
    match run_one(name, &args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("bench_serve: {name}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs every workload in a child process of its own.
fn run_all(raw: &[String], args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("bench_serve: locating this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in WORKLOADS {
        let mut child_args: Vec<String> = raw.to_vec();
        for (flag, path) in [("--json", &args.json), ("--trace-out", &args.trace_out)] {
            if let Some(path) = path {
                let i = child_args
                    .iter()
                    .position(|a| a == flag)
                    .expect("flag given");
                child_args[i + 1] = per_workload(path, w);
            }
        }
        child_args.extend(["--workload".to_owned(), w.to_owned()]);
        match Command::new(&exe).args(&child_args).status() {
            Ok(status) if status.success() => {}
            Ok(status) => {
                eprintln!("bench_serve: {w} exited with {status}");
                ok = false;
            }
            Err(e) => {
                eprintln!("bench_serve: starting {w}: {e}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `out.json` → `out.solve_mix.json`.
fn per_workload(path: &str, workload: &str) -> String {
    match path.strip_suffix(".json") {
        Some(stem) => format!("{stem}.{workload}.json"),
        None => format!("{path}.{workload}"),
    }
}

fn pinned_digest(workload: &str, seed: u64) -> Option<String> {
    let table = json::parse(DIGESTS).expect("digests.json is valid JSON");
    table
        .get(workload)?
        .get(&seed.to_string())?
        .as_str()
        .map(str::to_owned)
}

/// Serves `ROUNDS` rounds, each on a server of its own, and times more
/// set-ups on their own while the set-ups add up to little time. Returns
/// the rounds, every set-up time, and the peak RSS of the first round.
fn serve_rounds(w: &Workload, args: &Args) -> Result<(run::Served, Vec<f64>, f64), String> {
    let rounds = if args.smoke { 1 } else { ROUNDS };
    let mut setups = Vec::new();
    let mut served = run::Served::default();
    let mut rss = None;
    for _ in 0..rounds {
        let (handle, took) = run::setup(w)?;
        setups.push(took.as_secs_f64());
        served
            .rounds
            .push(run::serve(w, handle, args.seconds / rounds as f64));
        // Peak RSS of one set-up and round: repeated set-ups only add
        // heap fragmentation.
        rss = rss.or_else(run::peak_rss_mib);
    }
    while !args.smoke && setups.iter().sum::<f64>() < SETUP_SECONDS && setups.len() < MAX_SETUP_REPS
    {
        let (handle, took) = run::setup(w)?;
        setups.push(took.as_secs_f64());
        run::stop(handle);
    }
    let rss = rss.ok_or("cannot read VmHWM from /proc/self/status")?;
    Ok((served, setups, rss))
}

/// Failed requests and what failed: the clients' own findings, and every
/// request whose frame was answered otherwise than its reference.
fn verify(w: &Workload, served: &run::Served, refs: &[exec::Reference]) -> (u64, Vec<String>) {
    let mut problems = Vec::new();
    let mut failed = 0;
    for log in served.logs() {
        failed += log.failed;
        problems.extend(log.messages.iter().cloned());
        for (&frame, response) in &log.first {
            let got = json::parse(response)
                .map(|j| exec::canonical(&j))
                .unwrap_or_else(|e| format!("unparseable response ({e})"));
            if got != refs[frame].canonical {
                failed += log.counts[&frame];
                problems.push(format!(
                    "{}: served `{got}`, expected `{}`",
                    w.pool[frame].line, refs[frame].canonical
                ));
            }
        }
    }
    (failed, problems)
}

/// `{"name": {"value": v, "unit": u}, ...}`.
fn metrics_json<'a>(lines: impl Iterator<Item = &'a (String, f64, &'a str)>) -> Json {
    Json::Obj(
        lines
            .map(|(m, v, u)| {
                let entry = Json::obj([
                    ("value", Json::Num(*v)),
                    ("unit", Json::Str((*u).to_owned())),
                ]);
                (m.clone(), entry)
            })
            .collect(),
    )
}

/// Runs one workload; `Ok(false)` when an output was wrong.
fn run_one(name: &str, args: &Args) -> Result<bool, String> {
    let w = Workload::build(name, args.seed).ok_or_else(|| format!("unknown workload `{name}`"))?;
    if args.digest {
        let refs = exec::reference(&w, RoutingMode::Auto)?;
        println!("{name} {} {}", args.seed, exec::digest(&w, &refs));
        return Ok(true);
    }
    let (served, setups, rss) = serve_rounds(&w, args)?;
    // Every served answer must equal the in-process reference answer.
    let refs = exec::reference(&w, RoutingMode::Auto)?;
    let (failed, mut problems) = verify(&w, &served, &refs);
    let digest = exec::digest(&w, &refs);
    let pinned = pinned_digest(name, args.seed);
    let digest_state = match &pinned {
        Some(p) if *p == digest => "pinned",
        Some(p) => {
            problems.push(format!("answer digest {digest} differs from pinned {p}"));
            "MISMATCH"
        }
        None => "unpinned",
    };
    if args.check {
        problems.extend(check(&w, &served, &refs, pinned.is_some())?);
    }

    let e2e = report::end_to_end(&served, stats::median(&setups), rss);
    let layers = args.trace.then(|| {
        let budget = Duration::from_secs_f64((args.seconds * 0.2).clamp(0.2, 2.0));
        let traced = exec::replay(&w, true, budget, usize::MAX);
        let untraced = exec::replay(&w, false, budget, traced.frames);
        let metrics = report::per_layer(&w, &served, &refs, &traced, &untraced);
        (metrics, traced)
    });

    let attempted: u64 = served.logs().map(|c| c.sent()).sum();
    let correct = failed == 0 && problems.is_empty();
    for p in problems.iter().take(20) {
        eprintln!("bench_serve: {name}: {p}");
    }
    let mut lines: Vec<(String, f64, &str)> = Vec::new();
    for (metric, value) in &e2e {
        match value {
            Some(v) => lines.push((metric.to_string(), *v, report::unit(metric))),
            None if args.smoke || args.trace => {}
            None => {
                return Err(format!(
                    "{metric}: no round timed enough reads for it; lengthen --seconds"
                ));
            }
        }
    }
    // The best round's p99, and the median round of every round value
    // next to the best one, to show how much the host moved the rounds.
    let rounds = report::round_values(&served);
    for (i, (metric, unit)) in report::ROUND_VALUES.into_iter().enumerate() {
        let v: Vec<f64> = rounds.iter().filter_map(|r| r[i]).collect();
        if v.is_empty() {
            continue;
        }
        if metric == "read_p99_ms" {
            let best = v.iter().copied().fold(f64::INFINITY, f64::min);
            lines.push((metric.to_owned(), best, unit));
        }
        lines.push((format!("{metric}.median_round"), stats::median(&v), unit));
    }
    if let Some((metrics, _)) = &layers {
        lines.extend(
            metrics
                .iter()
                .map(|(m, v)| (m.to_string(), *v, report::unit(m))),
        );
    }
    let mut writes: Vec<f64> = served.logs().flat_map(|c| c.writes_ms.clone()).collect();
    writes.sort_by(f64::total_cmp);
    for (metric, q) in [("write_p50_ms", 0.5), ("write_p90_ms", 0.9)] {
        if let Some(v) = quantile(&writes, q) {
            lines.push((metric.to_owned(), v, "ms"));
        }
    }
    let max_latency_ms = served
        .logs()
        .map(|c| c.slowest.0.as_secs_f64() * 1e3)
        .fold(0.0, f64::max);
    lines.push(("max_latency_ms".to_owned(), max_latency_ms, "ms"));
    lines.push((
        "fail_ratio".to_owned(),
        stats::ratio(failed as f64, attempted as f64),
        "ratio",
    ));
    for i in 0..w.clients.len() {
        let client = || served.rounds.iter().map(move |r| &r.clients[i]);
        let sent: u64 = client().map(|c| c.sent()).sum();
        let timed: u64 = client().map(|c| c.timed_count()).sum();
        lines.push((format!("client{i}.requests"), sent as f64, "count"));
        lines.push((format!("client{i}.timed"), timed as f64, "count"));
    }
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    lines.push(("host_parallelism".to_owned(), parallelism as f64, "count"));
    for (metric, value, unit) in &lines {
        println!("{name} {metric} {value} {unit}");
    }
    println!("{name} digest {digest} {digest_state}");
    println!("{name} seed {} -", args.seed);

    if let Some(path) = &args.json {
        let doc = Json::obj([
            ("workload", Json::Str(name.to_owned())),
            ("seed", Json::UInt(args.seed)),
            ("seconds", Json::Num(args.seconds)),
            ("host_parallelism", Json::UInt(parallelism as u64)),
            ("clients", Json::UInt(w.clients.len() as u64)),
            (
                "server_workers",
                Json::UInt(run::server_config().workers as u64),
            ),
            ("correct", Json::Bool(correct)),
            ("digest", Json::Str(digest.clone())),
            ("metrics", metrics_json(lines.iter())),
        ]);
        std::fs::write(path, doc.render_pretty()).map_err(|e| format!("writing {path}: {e}"))?;
    }
    if let (Some(path), Some((_, traced))) = (&args.trace_out, &layers) {
        std::fs::write(path, traced.spans.chrome_trace().render())
            .map_err(|e| format!("writing {path}: {e}"))?;
    }

    // The driver-facing result: end-to-end metrics untraced, per-layer
    // metrics traced.
    let declared: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let metrics = metrics_json(
        lines
            .iter()
            .filter(|(m, _, _)| declared.iter().any(|(d, _)| d == m)),
    );
    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::UInt(attempted)),
        ("failed", Json::UInt(failed)),
        ("metrics", metrics),
    ]);
    println!("{}", result.render());
    Ok(correct)
}

/// The `--check` gate: a pinned digest, agreement with the generic
/// procedures on the small-database workloads, answers on tenant
/// databases that do not depend on which version the writer loaded last,
/// and no request slower than [`MAX_LATENCY`].
fn check(
    w: &Workload,
    served: &run::Served,
    refs: &[exec::Reference],
    pinned: bool,
) -> Result<Vec<String>, String> {
    let mut problems = Vec::new();
    if !pinned {
        problems.push("no pinned digest for this seed".to_owned());
    }
    if matches!(w.name, "wire_small" | "solve_mix") {
        let mut generic = Oracle::new(w, RoutingMode::Generic);
        for (i, frame) in w.pool.iter().enumerate() {
            let g = generic.answer(i, frame.source)?;
            if g.canonical != refs[i].canonical {
                problems.push(format!(
                    "{}: routed `{}`, generic `{}`",
                    frame.line, refs[i].canonical, g.canonical
                ));
            }
        }
    }
    // A read of a tenant meets the version its own client loaded last or,
    // from a client that loads nothing, any version. Its reference was
    // computed against one of them; it must hold for all it can meet.
    let mut meets: HashSet<(usize, usize)> = HashSet::new();
    let tenant_names: HashSet<&str> = w
        .tenants
        .iter()
        .map(|&t| w.sources[t].name.as_str())
        .collect();
    for pass in &w.clients {
        let writer = pass.iter().any(|&i| w.pool[i].kind == Kind::Write);
        let mut loaded: HashMap<&str, usize> = HashMap::new();
        for &i in pass {
            let frame = &w.pool[i];
            let name = w.sources[frame.source].name.as_str();
            match frame.kind {
                Kind::Write => {
                    loaded.insert(name, frame.source);
                }
                Kind::Read if writer && tenant_names.contains(name) => {
                    meets.insert((i, loaded[name]));
                }
                Kind::Read if tenant_names.contains(name) => {
                    let versions = w.sources.iter().enumerate().filter(|(_, s)| s.name == name);
                    meets.extend(versions.map(|(s, _)| (i, s)));
                }
                Kind::Read => {}
            }
        }
    }
    let mut oracle = Oracle::new(w, RoutingMode::Auto);
    for (i, s) in meets {
        if s != w.pool[i].source && oracle.answer(i, s)?.canonical != refs[i].canonical {
            problems.push(format!(
                "{}: the answer depends on the version loaded",
                w.pool[i].line
            ));
        }
    }
    for &(latency, frame) in served.logs().map(|c| &c.slowest) {
        if latency > MAX_LATENCY {
            problems.push(format!("{} took {latency:?}", w.pool[frame].line));
        }
    }
    Ok(problems)
}
