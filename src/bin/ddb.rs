//! `ddb` — command-line front end for the disjunctive-database engine.
//!
//! ```text
//! ddb classify <file>
//!     Report the database's syntactic class, stratification and stats.
//!
//! ddb check <file> [--json] [--strict]
//!     Static analysis: fragment classification, stratification, and the
//!     lint pass (DDB001–DDB011). Exit codes are stable: 0 when the
//!     report is clean, 1 when only warning-level lints fired, 2 on any
//!     error-level finding (parse and safety failures included). With
//!     --strict, warnings count as errors and exit 2.
//!
//! ddb slice <file> --query "<f>" [--semantics <name>] [--json]
//!     Query-relevant slicing: print the backward relevance slice of the
//!     query, the SCC condensation layers, and — per semantics — which
//!     soundness precondition admits (or blocks) answering on the slice.
//!
//! ddb rewrite <file> --query "<f>" [--semantics <name>] [--json]
//!     The magic-sets rewrite of the query: the demand closure the
//!     planner routes it through (dead rules pruned when the query is
//!     bound, the database positive and the query
//!     minimal-model-determined),
//!     rendered as a guarded program with `magic__` seeds and demand
//!     rules, and — per semantics — whether the rewrite is admitted or
//!     which rule blocks it.
//!
//! ddb models <file> --semantics <name> [--partition-p a,b] [--partition-q c]
//!     Enumerate the characteristic models of a semantics.
//!
//! ddb query <file> --semantics <name> --formula "<f>" [--brave] [--explain]
//! ddb query <file> --semantics <name> --literal [-]<atom> [--explain]
//!     Decide (cautious or brave) inference; --explain prints a
//!     countermodel when the query is not inferred. `--formula` may be
//!     repeated: the batch shares one parse/analysis pass and the
//!     formulas are decided concurrently on `--threads` workers, printing
//!     one `<formula>: <verdict>` line each, in command order.
//!
//! ddb exists <file> --semantics <name>
//!     The paper's model-existence problem.
//!
//! ddb wfs <file>
//!     The well-founded model of a normal program (polynomial).
//!
//! ddb profile <file> [--literal [-]<atom>] [--formula "<f>"] [--cell-timeout-ms <n>]
//!     Run all ten semantics on all three problems and print the observed
//!     oracle-call matrix next to the paper's predicted complexity classes.
//!     With --cell-timeout-ms (or any resource limit), each cell runs under
//!     its own fresh budget; exhausted cells are marked `?<resource>` and
//!     the sweep continues.
//!
//! ddb explain <file> [--query "<f>"] [--semantics <name>] [--json] [--execute]
//!     The static query plan: per semantics, the route tree the
//!     dispatcher will take for the query — model existence without
//!     `--query` — (positive / Horn / hcf / slice / split / islands /
//!     generic), annotated with the paper's complexity class (Table 1 on
//!     positive nodes, Table 2 otherwise) and a sound upper bound on
//!     oracle calls per node, plus the binding-pattern adornments of the
//!     query's backward slice and the plan lints DDB012–DDB018.
//!     `--max-oracle-calls <n>` declares the budget DDB015 checks plans
//!     against. With `--execute`, each planned cell also runs and the
//!     predicted route and bound are audited against the observed
//!     `route.*` counters and oracle-call totals; any mismatch exits 1.
//!
//! ddb trace <file> --query "<f>" [--semantics <name>] [--top <n>] [--json]
//!     Run the query under a full event trace and print the aggregated
//!     span tree: calls, inclusive/exclusive time, attributed oracle
//!     calls, and p50/p90/p99 latency per node. `--top <n>` keeps only
//!     the n heaviest children per node; `--stats` adds the counter and
//!     histogram tables on stderr.
//!
//! `models`, `query`, `exists` and `profile` all accept `--stats` (print
//! the observability counter and histogram tables to stderr),
//! `--trace-json <file>` (write a structured trace — counters,
//! histograms, thread-stamped events, answer — as JSON),
//! `--trace-chrome <file>` (Chrome trace-event JSON, loadable in
//! Perfetto / `chrome://tracing`, one track per pool worker),
//! `--flame <file>` (folded stacks for inferno / `flamegraph.pl`), and
//! `--threads <n>` (worker-pool width for component-parallel evaluation:
//! independent dependency islands, batched formulas and profile cells run
//! concurrently; answers are byte-identical at every width).
//!
//! Resource limits (models/query/exists; per cell on profile):
//!   --timeout-ms <n>  --max-oracle-calls <n>  --max-conflicts <n>
//!   --max-models <n>  --fail-after <n> (deterministic fault injection)
//! When a limit trips, the command reports `unknown (<resource>)` and
//! exits 3 — never a wrong answer, never a panic.
//!
//! Exit codes: 0 success, 1 `check` warnings, 2 `check` errors,
//! 3 resource budget exhausted, 4 usage/parse/IO errors.
//!
//! Semantics names: gcwa, egcwa, ccwa, ecwa, circ, ddr, wgcwa, pws, pms,
//! perf, icwa, dsm, pdsm, cwa. `<file>` may be `-` for stdin.
//! ```

use disjunctive_db::core::{cwa, parallel, profile, wfs, witness, Prepared};
use disjunctive_db::ground::{ground_reduced, parse::parse_datalog};
use disjunctive_db::obs::json::Json;
use disjunctive_db::prelude::*;
use disjunctive_db::serve::answer::{
    answer_request, interrupt_fields, query_formula, semantics_config, verdict_fields, verdict_text,
};
use disjunctive_db::serve::catalog::{load_source, GROUNDING_LIMIT};
use disjunctive_db::serve::protocol::{Limits, Op, Request};
use std::io::Read;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Exit code for usage, parse and I/O failures (`Err` out of [`run`]).
const EXIT_USAGE: u8 = 4;
/// Exit code when a resource budget tripped before the answer was decided.
const EXIT_EXHAUSTED: u8 = 3;

/// EPIPE-tolerant stdout. Every subcommand routes its output through here
/// (via `oprintln!`/`oprint!`), so `ddb profile … | head -3` — or any
/// downstream that closes the pipe early — never panics and never aborts
/// the process mid-command: once a write fails, further output is dropped,
/// while stderr, traces, and the exit code are unaffected.
mod out {
    use std::io::Write;
    use std::sync::atomic::{AtomicBool, Ordering};

    static CLOSED: AtomicBool = AtomicBool::new(false);

    /// Whether a stdout write has failed (downstream pipe closed).
    pub fn closed() -> bool {
        CLOSED.load(Ordering::Relaxed)
    }

    /// Writes `text` to stdout, recording (and swallowing) a broken pipe.
    pub fn text(text: &str) {
        if closed() {
            return;
        }
        let stdout = std::io::stdout();
        let mut lock = stdout.lock();
        if lock.write_all(text.as_bytes()).is_err() || lock.flush().is_err() {
            CLOSED.store(true, Ordering::Relaxed);
        }
    }

    /// Writes `line` plus a newline, tolerating a broken pipe.
    pub fn line(line: &str) {
        if closed() {
            return;
        }
        let stdout = std::io::stdout();
        let mut lock = stdout.lock();
        if writeln!(lock, "{line}").is_err() {
            CLOSED.store(true, Ordering::Relaxed);
        }
    }
}

/// `println!` for command output: formats into [`out`], which swallows a
/// closed downstream pipe instead of panicking.
macro_rules! oprintln {
    () => { crate::out::line("") };
    ($($arg:tt)*) => { crate::out::line(&format!($($arg)*)) };
}

/// `print!` counterpart of `oprintln!`.
macro_rules! oprint {
    ($($arg:tt)*) => { crate::out::text(&format!($($arg)*)) };
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => ExitCode::from(code),
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("run `ddb help` for usage");
            ExitCode::from(EXIT_USAGE)
        }
    }
}

/// Runs one CLI command. `Ok(code)` is the process exit code: `check`
/// uses its stable 0/1/2 contract, and `models`/`query`/`exists` return
/// [`EXIT_EXHAUSTED`] when a resource budget tripped. Every other failure
/// surfaces through `Err`, which exits [`EXIT_USAGE`].
fn run(args: &[String]) -> Result<u8, String> {
    let Some(command) = args.first() else {
        return Err("missing command".into());
    };
    match command.as_str() {
        "help" | "--help" | "-h" => {
            oprintln!("{}", USAGE);
            Ok(0)
        }
        "classify" => classify(&args[1..]).map(|()| 0),
        "check" => check_cmd(&args[1..]),
        "slice" => slice_cmd(&args[1..]).map(|()| 0),
        "rewrite" => rewrite_cmd(&args[1..]).map(|()| 0),
        "models" => answer_cmd(&args[1..], Op::Models),
        "query" => answer_cmd(&args[1..], Op::Query),
        "exists" => answer_cmd(&args[1..], Op::Exists),
        "wfs" => wfs_cmd(&args[1..]).map(|()| 0),
        "ground" => ground_cmd(&args[1..]).map(|()| 0),
        "proof" => proof_cmd(&args[1..]).map(|()| 0),
        "profile" => profile_cmd(&args[1..]).map(|()| 0),
        "explain" => explain_cmd(&args[1..]),
        "trace" => trace_cmd(&args[1..]),
        "serve" => serve_cmd(&args[1..]),
        "call" => call_cmd(&args[1..]),
        "chaos" => chaos_cmd(&args[1..]),
        other => Err(format!("unknown command `{other}`")),
    }
}

const USAGE: &str = "usage:
  ddb classify <file>
  ddb check  <file> [--json] [--strict] (static analysis + lints;
      exit 0 clean, 1 warning lints, 2 errors; --strict treats warnings as errors)
  ddb slice  <file> --query \"<f>\" [--semantics <name>] [--json]
      (query-relevant slice, condensation layers, per-semantics admission)
  ddb rewrite <file> --query \"<f>\" [--semantics <name>] [--json]
      (magic-sets rewrite: the demand restriction with dead rules pruned,
       the guarded magic__ program, and per-semantics admission)
  ddb models <file> --semantics <name> [--partition-p a,b] [--partition-q c] [--partial]
  ddb query  <file> --semantics <name> (--formula \"<f>\" | --literal [-]<atom>) [--brave] [--explain]
      (--formula may be repeated: the batch shares one analysis pass and
       runs concurrently on --threads workers, one verdict line each)
  ddb exists <file> --semantics <name>
  ddb wfs    <file>
  ddb ground <file> [--full]          (print the grounded program)
  ddb proof  <file> --atom <a>        (DDR activation proof for an atom)
  ddb profile <file> [--literal [-]<a>] [--formula \"<f>\"] [--cell-timeout-ms <n>]
      (observed 10-semantics x 3-problems oracle-call matrix vs paper classes;
       with a per-cell budget, exhausted cells are marked ?<resource>)
  ddb explain <file> [--query \"<f>\"] [--semantics <name>] [--json] [--execute]
      (static query plan, model existence without --query: per semantics
       the route tree dispatch will take, with the paper's complexity
       classes (Table 1 on positive nodes) and oracle-call bounds, adornment
       analysis, and plan lints DDB012-DDB018; --max-oracle-calls <n>
       declares the budget DDB015 checks plans against; --execute runs each
       planned cell and audits predicted route/bound vs the observed
       route.* counters and sat calls — a mismatch exits 1)
  ddb trace  <file> --query \"<f>\" [--semantics <name>] [--top <n>] [--json] [--stats]
      (run the query under a trace and print the aggregated span tree:
       calls, inclusive/exclusive time, oracle calls, p50/p90/p99 per node;
       --top keeps the <n> heaviest children per node, --stats adds the
       histogram tables)
  ddb serve  [<file>] [--db name=path]... [--addr host:port] [--max-sessions <n>]
      [--workers <n>] [--queue <n>] [--read-timeout-ms <n>] [--write-timeout-ms <n>]
      [--idle-timeout-ms <n>] [--max-frame-bytes <n>] [--retry-after-ms <n>]
      [--threads <n>] [--drain-on-stdin-close] [resource limits]
      (multi-tenant query server over a newline-framed JSON protocol;
       resource limits become the server-side default budget, intersected
       with each request's declared limits; overload sheds with a typed
       `overloaded` response; `shutdown` op or stdin close drains cleanly)
  ddb call   --addr host:port [--op <op>] [--db <name>] [--semantics <name>]
      [--formula \"<f>\" | --literal [-]<atom>] [--brave] [--id <id>]
      [--target <id>] [--threads <n>] [--json] [<file>] [resource limits]
      (one-shot client; stdout, stderr and exit match the corresponding CLI
       command byte-for-byte: 0 ok, 3 resource/overloaded, 4 parse/usage/
       internal; --explain, --partial and batched --formula are refused;
       with --op load a positional <file> is sent as the source)
  ddb chaos  --addr host:port [--rounds <n>] [--seed <n>] [--db <name>]
      [--formula \"<f>\"] [--fail-after-max <n>]
      (attack a running server: malformed frames, oversized payloads,
       half-closes, disconnects, concurrent cancels, fault-injection sweep;
       exit 1 if any robustness check fails)
models/query/exists/profile also take: --stats  --threads <n>  --trace-json <file>
  --trace-chrome <file> (Chrome trace-event JSON for Perfetto, one track
   per worker)  --flame <file> (folded stacks for inferno/FlameGraph)
  (--threads evaluates independent dependency islands, batched formulas and
   profile cells concurrently; answers are identical at every width)
resource limits (models/query/exists; applied per cell on profile):
  --timeout-ms <n>  --max-oracle-calls <n>  --max-conflicts <n>
  --max-models <n>  --fail-after <n>
exit codes: 0 ok; 1/2 check warnings/errors; 3 budget exhausted (answer
unknown); 4 usage, parse or I/O error
input is propositional program syntax, or Datalog∨ with --datalog
(auto-detected for .dlv files and sources containing predicate atoms)
semantics: gcwa egcwa ccwa ecwa|circ ddr|wgcwa pws|pms perf icwa dsm pdsm cwa";

/// The bare flags some command reads; every other option takes a value.
const FLAGS: &str = "brave explain datalog full partial stats json strict execute \
                     drain-on-stdin-close";

/// The options each command reads: its bare flags and `--key value` keys,
/// where `LIMITS` stands for the resource limits of [`Limits::FIELDS`] and
/// `OBSERVE` for the outputs [`observe`] writes.
const COMMAND_OPTIONS: &[(&str, &str)] = &[
    ("classify", "datalog"),
    ("check", "datalog json strict"),
    ("slice", "datalog query semantics json"),
    ("rewrite", "datalog query semantics json threads"),
    (
        "models",
        "datalog semantics partial partition-p partition-q threads LIMITS OBSERVE",
    ),
    (
        "query",
        "datalog semantics formula literal brave explain partition-p partition-q threads \
         LIMITS OBSERVE",
    ),
    (
        "exists",
        "datalog semantics partition-p partition-q threads LIMITS OBSERVE",
    ),
    ("wfs", "datalog"),
    ("ground", "full"),
    ("proof", "datalog atom"),
    (
        "profile",
        "datalog literal formula cell-timeout-ms threads LIMITS OBSERVE",
    ),
    (
        "explain",
        "datalog query semantics json execute partition-p partition-q threads LIMITS",
    ),
    (
        "trace",
        "datalog query semantics top json stats partition-p partition-q threads LIMITS",
    ),
    (
        "serve",
        "db addr max-sessions workers queue read-timeout-ms write-timeout-ms idle-timeout-ms \
         max-frame-bytes retry-after-ms threads drain-on-stdin-close LIMITS",
    ),
    (
        "call",
        "addr op db id target semantics formula literal brave explain partial partition-p \
         partition-q threads json datalog LIMITS",
    ),
    ("chaos", "addr rounds seed fail-after-max db formula"),
];

/// Whether `command` reads `--key`, expanding `LIMITS` and `OBSERVE`.
/// With `command` `None`: whether any command reads it.
fn reads_option(command: Option<&str>, key: &str) -> bool {
    let limit = Limits::FIELDS.iter().any(|f| f.replace('_', "-") == key);
    let observe = matches!(key, "stats" | "trace-json" | "trace-chrome" | "flame");
    COMMAND_OPTIONS
        .iter()
        .filter(|(name, _)| command.is_none_or(|c| c == *name))
        .flat_map(|(_, keys)| keys.split_whitespace())
        .any(|k| k == key || (k == "LIMITS" && limit) || (k == "OBSERVE" && observe))
}

/// Minimal flag parser: positional file + `--key value` pairs + bare flags.
struct Opts {
    file: Option<String>,
    values: Vec<(String, String)>,
    flags: Vec<String>,
}

/// Parses `command`'s arguments. An option no command reads is an
/// unknown flag; one that `command` does not read is a usage error too,
/// so a flag is never silently ignored.
fn parse_opts(command: &str, args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        file: None,
        values: Vec::new(),
        flags: Vec::new(),
    };
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        if let Some(key) = a.strip_prefix("--") {
            if !reads_option(None, key) {
                return Err(format!("unknown flag `--{key}`"));
            }
            if !reads_option(Some(command), key) {
                return Err(format!("`ddb {command}` does not read `--{key}`"));
            }
            if FLAGS.split_whitespace().any(|k| k == key) {
                opts.flags.push(key.to_owned());
                i += 1;
            } else {
                let value = args
                    .get(i + 1)
                    .ok_or_else(|| format!("--{key} needs a value"))?;
                opts.values.push((key.to_owned(), value.clone()));
                i += 2;
            }
        } else if opts.file.is_none() {
            opts.file = Some(a.clone());
            i += 1;
        } else {
            return Err(format!("unexpected argument `{a}`"));
        }
    }
    Ok(opts)
}

impl Opts {
    fn value(&self, key: &str) -> Option<&str> {
        self.values
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Every occurrence of a repeatable `--key value`, in command order
    /// (`ddb query … --formula a --formula b` is a batch of two).
    fn values_all(&self, key: &str) -> Vec<&str> {
        self.values
            .iter()
            .filter(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
            .collect()
    }

    fn flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }

    /// `--key <n>` as an unsigned integer, when given.
    fn u64(&self, key: &str) -> Result<Option<u64>, String> {
        self.value(key)
            .map(|v| {
                v.parse::<u64>()
                    .map_err(|_| format!("--{key} needs an unsigned integer, got `{v}`"))
            })
            .transpose()
    }

    /// The resource-limit flags: each [`Limits::FIELDS`] name with `_`
    /// spelled `-`. Malformed values are usage errors (exit 4).
    fn limits(&self) -> Result<Limits, String> {
        Limits::read(|field| self.u64(&field.replace('_', "-")))
    }

    /// The limits as a budget to install, or `None` when none was set.
    fn budget(&self) -> Result<Option<Budget>, String> {
        let budget = self.limits()?.to_budget();
        Ok((!budget.is_unlimited()).then_some(budget))
    }
}

/// Parses `--threads N` (worker-pool width for component-parallel
/// evaluation); defaults to 1 (fully sequential, no pool). Answers are
/// identical at every width — only wall-clock time changes.
fn threads_from(opts: &Opts) -> Result<usize, String> {
    match opts.value("threads") {
        None => Ok(1),
        Some(v) => match v.parse::<usize>() {
            Ok(n) if n >= 1 => Ok(n),
            _ => Err(format!("--threads needs a positive integer, got `{v}`")),
        },
    }
}

fn read_source(path: &str) -> Result<String, String> {
    if path == "-" {
        let mut s = String::new();
        std::io::stdin()
            .read_to_string(&mut s)
            .map_err(|e| format!("reading stdin: {e}"))?;
        Ok(s)
    } else {
        std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))
    }
}

/// Datalog mode: an explicit `--datalog` flag, a `.dlv` extension, or the
/// telltale `(` of predicate atoms.
fn is_datalog(opts: &Opts, path: &str, source: &str) -> bool {
    opts.flag("datalog") || path.ends_with(".dlv") || source.contains('(')
}

fn load(opts: &Opts) -> Result<Database, String> {
    let path = opts.file.as_deref().ok_or("missing <file> argument")?;
    let source = read_source(path)?;
    let datalog = is_datalog(opts, path, &source);
    load_source(&source, Some(datalog), GROUNDING_LIMIT).map_err(|e| e.to_string())
}

/// The wire request for `op` built from command-line flags — the one
/// mapping behind the local `query`/`exists`/`models` commands and
/// `ddb call`. Query ops default to `--semantics egcwa`; a `load` reads
/// its source from the positional file.
fn request_from(opts: &Opts, op: Op) -> Result<Request, String> {
    let text = |key: &str| opts.value(key).map(str::to_owned);
    let names = |key: &str| -> Vec<String> {
        opts.value(key).map_or(Vec::new(), |spec| {
            spec.split(',')
                .map(str::trim)
                .filter(|t| !t.is_empty())
                .map(str::to_owned)
                .collect()
        })
    };
    let is_query = matches!(op, Op::Query | Op::Exists | Op::Models);
    let source = match (op, opts.file.as_deref()) {
        (Op::Load, Some(path)) => Some(read_source(path)?),
        _ => None,
    };
    Ok(Request {
        id: opts.value("id").map(|id| Json::Str(id.to_owned())),
        op,
        db: text("db"),
        semantics: text("semantics").or_else(|| is_query.then(|| "egcwa".to_owned())),
        formula: text("formula"),
        literal: text("literal"),
        brave: opts.flag("brave"),
        threads: opts
            .value("threads")
            .map(|_| threads_from(opts))
            .transpose()?,
        limits: opts.limits()?,
        target: text("target"),
        datalog: (source.is_some() && opts.flag("datalog")).then_some(true),
        source,
        overwrite: false,
        partition_p: names("partition-p"),
        partition_q: names("partition-q"),
    })
}

/// Trace-document fields describing the command's governance outcome:
/// the `resource` (if any) a response reports tripped, and the
/// checkpoint/charge totals the innermost governor consumed.
fn govern_extra<'a>(
    response: &Json,
    consumed: Option<disjunctive_db::obs::Consumed>,
) -> Vec<(&'a str, Json)> {
    vec![
        (
            "interrupted",
            response.get("resource").cloned().unwrap_or(Json::Null),
        ),
        (
            "budget_consumed",
            consumed.map_or(Json::Null, |c| c.to_json()),
        ),
    ]
}

/// The exit code of a response: the wire error kind's, else
/// [`EXIT_EXHAUSTED`] when the budget tripped, else 0.
fn exit_code(response: &Json) -> u8 {
    if response.get("ok").and_then(Json::as_bool) == Some(false) {
        return match response
            .get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Json::as_str)
        {
            Some("resource" | "overloaded") => EXIT_EXHAUSTED,
            _ => EXIT_USAGE,
        };
    }
    match response.get("resource") {
        Some(Json::Str(_)) => EXIT_EXHAUSTED,
        _ => 0,
    }
}

/// The one printer for a response, served or local: the `answer` line and
/// one line per model on stdout; then on stderr the `[oracle: …]` bill
/// and, when the budget tripped, the `unknown (<resource>): …` notice —
/// or the typed error of an error frame. Returns the exit code.
fn print_response(response: &Json) -> u8 {
    let field = |key: &str| response.get(key);
    if let Some(error) = field("error") {
        let text = |key: &str| error.get(key).and_then(Json::as_str);
        let kind = text("kind").unwrap_or("internal");
        eprintln!("error ({kind}): {}", text("message").unwrap_or(""));
        return exit_code(response);
    }
    if let Some(answer) = field("answer").and_then(Json::as_str) {
        emit(answer);
    }
    for model in field("models").and_then(Json::as_arr).unwrap_or(&[]) {
        let line = match model {
            Json::Str(preformatted) => preformatted.clone(),
            atoms => {
                let names: Vec<&str> = atoms
                    .as_arr()
                    .unwrap_or(&[])
                    .iter()
                    .filter_map(Json::as_str)
                    .collect();
                format!("{{{}}}", names.join(", "))
            }
        };
        if !emit(&format!("  {line}")) {
            break;
        }
    }
    let count = |key: &str| field(key).and_then(Json::as_u64);
    if let (Some(sat), Some(candidates)) = (count("sat_calls"), count("candidates")) {
        eprintln!("[oracle: {sat} SAT calls, {candidates} candidates]");
    }
    if let Some(resource) = field("resource").and_then(Json::as_str) {
        let checkpoint = count("checkpoint").unwrap_or(0);
        let partial = field("partial")
            .and_then(Json::as_str)
            .map_or(String::new(), |p| format!("; {p}"));
        eprintln!(
            "unknown ({resource}): interrupted: {resource} (checkpoint {checkpoint}){partial}"
        );
    }
    exit_code(response)
}

/// What one CLI command recorded under its `cmd.<command>` root span —
/// with trace events when `--trace-json`, `--trace-chrome` or `--flame`
/// asks for them — and its wall time.
struct Observation {
    recording: disjunctive_db::obs::Recording,
    wall_ns: u64,
}

fn wants_events(opts: &Opts) -> bool {
    opts.value("trace-json").is_some()
        || opts.value("trace-chrome").is_some()
        || opts.value("flame").is_some()
}

/// Runs `work` under its own `record` scope and a `root_span` span (the
/// `cmd.<command>` name), so the counters, histograms and events read by
/// [`Observation::finish`] are exactly this command's.
fn observe<R>(opts: &Opts, root_span: &'static str, work: impl FnOnce() -> R) -> (R, Observation) {
    let started = Instant::now();
    let (out, recording) = disjunctive_db::obs::record(wants_events(opts), || {
        let _root = disjunctive_db::obs::span(root_span);
        work()
    });
    let wall_ns = started.elapsed().as_nanos() as u64;
    (out, Observation { recording, wall_ns })
}

impl Observation {
    /// Prints the `--stats` counter and histogram tables and writes the
    /// `--trace-json`, `--trace-chrome` and `--flame` files. `answer` and
    /// `extra` land verbatim in the trace document.
    fn finish(
        self,
        opts: &Opts,
        command: &str,
        answer: Json,
        extra: Vec<(&str, Json)>,
    ) -> Result<(), String> {
        let disjunctive_db::obs::Recording {
            counters,
            histograms: hists,
            events,
        } = self.recording;
        let wall_ns = self.wall_ns;
        if opts.flag("stats") {
            eprint!("{}", counters.render_table());
            if !hists.is_empty() {
                eprint!("{}", hists.render_table());
            }
        }
        if let Some(path) = opts.value("trace-json") {
            let semantics = opts
                .value("semantics")
                .map_or(Json::Null, |s| Json::Str(s.to_owned()));
            let mut fields = vec![
                ("version", Json::UInt(1)),
                ("command", Json::Str(command.to_owned())),
                ("semantics", semantics),
                ("answer", answer),
                ("wall_ns", Json::UInt(wall_ns)),
                ("counters", counters.to_json()),
                ("histograms", hists.to_json()),
                (
                    "events",
                    Json::Arr(events.iter().map(|e| e.to_json()).collect()),
                ),
            ];
            fields.extend(extra);
            let doc = Json::obj(fields);
            std::fs::write(path, doc.render_pretty())
                .map_err(|e| format!("writing trace to {path}: {e}"))?;
        }
        if let Some(path) = opts.value("trace-chrome") {
            let doc = disjunctive_db::obs::chrome_trace(&events);
            std::fs::write(path, doc.render_pretty())
                .map_err(|e| format!("writing Chrome trace to {path}: {e}"))?;
        }
        if let Some(path) = opts.value("flame") {
            let folded = disjunctive_db::obs::folded_stacks(&events);
            std::fs::write(path, folded)
                .map_err(|e| format!("writing folded stacks to {path}: {e}"))?;
        }
        Ok(())
    }
}

/// The `--semantics` named on the command line, or all ten.
fn semantics_or_all(opts: &Opts) -> Result<Vec<SemanticsId>, String> {
    match opts.value("semantics") {
        Some(name) => Ok(vec![SemanticsId::from_name(name)?]),
        None => Ok(SemanticsId::ALL.to_vec()),
    }
}

fn render_model(db: &Database, m: &Interpretation) -> String {
    let names: Vec<&str> = m.iter().map(|a| db.symbols().name(a)).collect();
    format!("{{{}}}", names.join(", "))
}

/// A partial interpretation as `atom=value` pairs, value 1, 1/2 or 0.
fn render_partial(db: &Database, p: &PartialInterpretation) -> String {
    let parts: Vec<String> = db
        .symbols()
        .atoms()
        .map(|a| {
            let v = match p.value(a) {
                TruthValue::True => "1",
                TruthValue::Undefined => "1/2",
                TruthValue::False => "0",
            };
            format!("{}={v}", db.symbols().name(a))
        })
        .collect();
    parts.join(", ")
}

fn classify(args: &[String]) -> Result<(), String> {
    let opts = parse_opts("classify", args)?;
    let db = load(&opts)?;
    oprintln!("atoms:              {}", db.num_atoms());
    oprintln!("rules:              {}", db.len());
    oprintln!("class:              {:?}", db.class());
    oprintln!("negation:           {}", db.has_negation());
    oprintln!("integrity clauses:  {}", db.has_integrity_clauses());
    match db.stratification() {
        Some(strata) => {
            oprintln!("stratification:     {} strata", strata.len());
            for (i, s) in strata.iter().enumerate() {
                let names: Vec<&str> = s.iter().map(|&a| db.symbols().name(a)).collect();
                oprintln!("  S{}: {{{}}}", i + 1, names.join(", "));
            }
        }
        None => oprintln!("stratification:     none (unstratifiable)"),
    }
    Ok(())
}

/// `ddb check` with the stable exit-code contract: `Ok(0)` for a clean
/// report, `Ok(1)` when only warning-level lints fired, `Ok(2)` on any
/// error — error-level diagnostics, unreadable files, parse and safety
/// failures. `--strict` escalates warnings to the error exit code. Only
/// malformed command lines surface as `Err` (exit 1 via `main`).
fn check_cmd(args: &[String]) -> Result<u8, String> {
    use disjunctive_db::analysis::{analyze, Severity};
    let opts = parse_opts("check", args)?;
    let path = opts.file.as_deref().ok_or("missing <file> argument")?;
    let fail = |msg: String| -> Result<u8, String> {
        eprintln!("error: {msg}");
        Ok(2)
    };
    let source = match read_source(path) {
        Ok(s) => s,
        Err(e) => return fail(e),
    };
    let datalog = is_datalog(&opts, path, &source);
    if datalog {
        let program = match parse_datalog(&source) {
            Ok(p) => p,
            Err(e) => return fail(e.to_string()),
        };
        // An unsafe program cannot be grounded, so its DDB001 diagnostics
        // are the whole report — all of them, one per offending rule and
        // carrying that rule's position, so the (code, position) sort is
        // stable for multi-rule files.
        let safety_errors = disjunctive_db::ground::safety::check_program_all(&program);
        if !safety_errors.is_empty() {
            let diags: Vec<_> = safety_errors
                .iter()
                .map(disjunctive_db::ground::safety::SafetyError::to_diagnostic)
                .collect();
            if opts.flag("json") {
                let doc = Json::obj([
                    ("file", Json::Str(path.to_owned())),
                    (
                        "diagnostics",
                        Json::Arr(diags.iter().map(|d| d.to_json()).collect()),
                    ),
                    ("errors", Json::UInt(diags.len() as u64)),
                    ("warnings", Json::UInt(0)),
                ]);
                oprint!("{}", doc.render_pretty());
            } else {
                for d in &diags {
                    oprintln!("{d}");
                }
            }
            return fail(format!("check failed: {} error(s)", diags.len()));
        }
    }
    let db = match load_source(&source, Some(datalog), GROUNDING_LIMIT) {
        Ok(db) => db,
        Err(e) => return fail(e.to_string()),
    };
    let report = analyze(&db);
    if opts.flag("json") {
        let mut pairs = vec![("file".to_owned(), Json::Str(path.to_owned()))];
        if let Json::Obj(rest) = report.to_json(&db) {
            pairs.extend(rest);
        }
        oprint!("{}", Json::Obj(pairs).render_pretty());
    } else {
        oprint!("{}", report.render(&db));
    }
    let errors = report.count(Severity::Error);
    let warnings = report.count(Severity::Warning);
    if errors > 0 || (opts.flag("strict") && warnings > 0) {
        return fail(format!(
            "check failed: {errors} error(s), {warnings} warning(s)"
        ));
    }
    Ok(if warnings > 0 { 1 } else { 0 })
}

/// `ddb slice`: the CLI window onto the slicing subsystem. Prints the
/// backward relevance slice of the query, the SCC condensation layers of
/// the whole database, and per semantics which soundness precondition
/// admits answering on the slice (or that the generic route must run).
fn slice_cmd(args: &[String]) -> Result<(), String> {
    use disjunctive_db::analysis::{layering, relevant_slice, DepGraph, Fragments};
    use disjunctive_db::core::slicing::{admission, peel_mode, Admission};
    let opts = parse_opts("slice", args)?;
    let db = load(&opts)?;
    let raw = opts.value("query").ok_or("missing --query <formula>")?;
    let formula = parse_query(raw, db.symbols()).map_err(|e| e.to_string())?;
    let query_atoms = formula.atoms();
    if query_atoms.is_empty() {
        return Err("the query mentions no atoms; nothing to slice".into());
    }
    let literal_query = formula.as_literal().is_some();
    let slice = relevant_slice(&db, &query_atoms);
    let graph = DepGraph::of_database(&db);
    let frags = Fragments::of(&db, &graph);
    let layers = layering(&db, &graph);
    let semantics = semantics_or_all(&opts)?;
    let admission_label = |a: Admission| match a {
        Admission::PositiveExact => "positive-exact",
        Admission::Product => "product",
        Admission::Blocked => "blocked (generic fallback)",
    };
    let peel_label = |m: Option<bool>| match m {
        Some(true) => "founded",
        Some(false) => "classical",
        None => "none",
    };
    if opts.flag("json") {
        let level_sets: Vec<Json> = (0..layers.num_levels)
            .map(|l| {
                Json::Arr(
                    db.symbols()
                        .atoms()
                        .filter(|a| layers.level[a.index()] == l)
                        .map(|a| Json::Str(db.symbols().name(a).to_owned()))
                        .collect(),
                )
            })
            .collect();
        let admissions: Vec<Json> = semantics
            .iter()
            .map(|&id| {
                Json::obj([
                    ("semantics", Json::Str(id.to_string())),
                    (
                        "admission",
                        Json::Str(
                            admission_label(admission(id, &frags, &slice, literal_query))
                                .to_owned(),
                        ),
                    ),
                    ("peel", Json::Str(peel_label(peel_mode(id)).to_owned())),
                ])
            })
            .collect();
        let doc = Json::obj([
            (
                "file",
                Json::Str(opts.file.as_deref().unwrap_or("-").into()),
            ),
            ("query", Json::Str(raw.to_owned())),
            ("literal_query", Json::Bool(literal_query)),
            (
                "slice_atoms",
                Json::Arr(
                    slice
                        .atoms
                        .iter()
                        .map(|&a| Json::Str(db.symbols().name(a).to_owned()))
                        .collect(),
                ),
            ),
            (
                "slice_rules",
                Json::Arr(slice.rules.iter().map(|&i| Json::UInt(i as u64)).collect()),
            ),
            (
                "dropped_rules",
                Json::UInt((db.len() - slice.rules.len()) as u64),
            ),
            ("split_closed", Json::Bool(slice.split_closed)),
            (
                "blocking_rule",
                slice
                    .blocking_rule
                    .map_or(Json::Null, |i| Json::UInt(i as u64)),
            ),
            ("num_levels", Json::UInt(layers.num_levels as u64)),
            ("levels", Json::Arr(level_sets)),
            ("admissions", Json::Arr(admissions)),
        ]);
        oprint!("{}", doc.render_pretty());
        return Ok(());
    }
    oprintln!(
        "slice of {} for query `{raw}`: {} of {} atom(s), {} of {} rule(s)",
        opts.file.as_deref().unwrap_or("-"),
        slice.atoms.len(),
        db.num_atoms(),
        slice.rules.len(),
        db.len(),
    );
    let names: Vec<&str> = slice.atoms.iter().map(|&a| db.symbols().name(a)).collect();
    oprintln!("  atoms: {{{}}}", names.join(", "));
    for &i in &slice.rules {
        oprintln!(
            "  rule #{i}: {}",
            display_rule(&db.rules()[i], db.symbols())
        );
    }
    match (slice.split_closed, slice.blocking_rule) {
        (true, _) => oprintln!("  split-closed: yes"),
        (false, Some(i)) => oprintln!(
            "  split-closed: no — blocked by rule #{i}: {}",
            display_rule(&db.rules()[i], db.symbols())
        ),
        (false, None) => oprintln!("  split-closed: no"),
    }
    oprintln!("layers: {} condensation level(s)", layers.num_levels);
    for l in 0..layers.num_levels {
        let at_level: Vec<&str> = db
            .symbols()
            .atoms()
            .filter(|a| layers.level[a.index()] == l)
            .map(|a| db.symbols().name(a))
            .collect();
        oprintln!("  L{l}: {{{}}}", at_level.join(", "));
    }
    oprintln!(
        "admission ({} query):",
        if literal_query { "literal" } else { "formula" }
    );
    for &id in &semantics {
        oprintln!(
            "  {:<13} {:<26} peel: {}",
            id.to_string(),
            admission_label(admission(id, &frags, &slice, literal_query)),
            peel_label(peel_mode(id)),
        );
    }
    Ok(())
}

/// `ddb rewrite`: print the magic-sets rewrite of a query — the demand
/// closure the planner routes the query through, rendered as a guarded
/// program with `magic__` seeds and demand rules, plus the per-semantics
/// admission verdicts. Dead rules are dropped under the planner's own
/// gate ([`prunes_dead`](disjunctive_db::analysis::prunes_dead)), so the
/// printed program is the one the slice route executes.
fn rewrite_cmd(args: &[String]) -> Result<(), String> {
    use disjunctive_db::analysis::{demand_closure, magic, prunes_dead, Prepared, Slice};
    use disjunctive_db::core::planner::mm_determined;
    use disjunctive_db::core::slicing::{admission, Admission};
    let opts = parse_opts("rewrite", args)?;
    let db = load(&opts)?;
    // --threads is accepted for CLI uniformity; the rewrite is a pure
    // static analysis, so the output is identical at every width.
    let _ = threads_from(&opts)?;
    let raw = opts.value("query").ok_or("missing --query <formula>")?;
    let formula = parse_query(raw, db.symbols()).map_err(|e| e.to_string())?;
    let query_atoms = formula.atoms();
    if query_atoms.is_empty() {
        return Err("the query mentions no atoms; nothing to rewrite".into());
    }
    let literal_query = formula.as_literal().is_some();
    let prepared = Prepared::borrowed(&db);
    let frags = prepared.fragments();
    let semantics = semantics_or_all(&opts)?;
    let prunes =
        |id: SemanticsId| prunes_dead(&db, &frags, &query_atoms, mm_determined(id, literal_query));
    // At most two distinct restrictions exist: the one for
    // minimal-model-determined answers and, when that one prunes, the
    // unpruned one GCWA/CCWA formula queries take.
    let prune = prunes_dead(&db, &frags, &query_atoms, true);
    let restriction = demand_closure(&prepared, &query_atoms, prune);
    let needs_unpruned = prune && semantics.iter().any(|&id| !prunes(id));
    let unpruned: Option<Slice> =
        needs_unpruned.then(|| demand_closure(&prepared, &query_atoms, false));
    let restriction_of = |id: SemanticsId| -> &Slice {
        match &unpruned {
            Some(r) if !prunes(id) => r,
            _ => &restriction,
        }
    };
    let admission_label = |a: Admission| match a {
        Admission::PositiveExact => "positive-exact",
        Admission::Product => "product",
        Admission::Blocked => "blocked (generic fallback)",
    };
    let program = magic::rewrite(&db, &query_atoms, &restriction);
    let program_unpruned = unpruned
        .as_ref()
        .map(|r| magic::rewrite(&db, &query_atoms, r));
    if opts.flag("json") {
        let restriction_json = |r: &Slice, prog: &magic::MagicProgram| {
            Json::obj([
                ("pruned", Json::Bool(!r.dropped_dead.is_empty())),
                ("atoms", Json::UInt(r.atoms.len() as u64)),
                (
                    "rules",
                    Json::Arr(r.rules.iter().map(|&i| Json::UInt(i as u64)).collect()),
                ),
                (
                    "dropped_dead",
                    Json::Arr(
                        r.dropped_dead
                            .iter()
                            .map(|&i| Json::UInt(i as u64))
                            .collect(),
                    ),
                ),
                ("split_closed", Json::Bool(r.split_closed)),
                (
                    "blocking_rule",
                    r.blocking_rule.map_or(Json::Null, |i| Json::UInt(i as u64)),
                ),
                ("program", prog.to_json()),
            ])
        };
        let mut restrictions = vec![restriction_json(&restriction, &program)];
        if let (Some(r), Some(p)) = (unpruned.as_ref(), program_unpruned.as_ref()) {
            restrictions.push(restriction_json(r, p));
        }
        let admissions: Vec<Json> = semantics
            .iter()
            .map(|&id| {
                let r = restriction_of(id);
                let adm = admission(id, &frags, r, literal_query);
                Json::obj([
                    ("semantics", Json::Str(id.to_string())),
                    ("admission", Json::Str(admission_label(adm).to_owned())),
                    ("pruning", Json::Bool(prunes(id))),
                    (
                        "blocking_rule",
                        match r.blocking_rule {
                            Some(i) if adm == Admission::Blocked => Json::UInt(i as u64),
                            _ => Json::Null,
                        },
                    ),
                ])
            })
            .collect();
        let doc = Json::obj([
            (
                "file",
                Json::Str(opts.file.as_deref().unwrap_or("-").into()),
            ),
            ("query", Json::Str(raw.to_owned())),
            ("literal_query", Json::Bool(literal_query)),
            ("positive", Json::Bool(frags.positive)),
            ("restrictions", Json::Arr(restrictions)),
            ("admissions", Json::Arr(admissions)),
        ]);
        oprint!("{}", doc.render_pretty());
        return Ok(());
    }
    oprintln!(
        "rewrite of {} for query `{raw}` ({} query)",
        opts.file.as_deref().unwrap_or("-"),
        if literal_query { "literal" } else { "formula" },
    );
    let describe = |label: &str, r: &Slice| {
        oprintln!(
            "{label}: {} of {} atom(s), {} of {} rule(s), {} dead rule(s) dropped, split-closed: {}",
            r.atoms.len(),
            db.num_atoms(),
            r.rules.len(),
            db.len(),
            r.dropped_dead.len(),
            if r.split_closed { "yes" } else { "no" },
        );
    };
    describe("restriction", &restriction);
    if let Some(r) = unpruned.as_ref() {
        describe("restriction (gcwa/ccwa formula queries, no pruning)", r);
    }
    oprintln!("admission:");
    for &id in &semantics {
        let r = restriction_of(id);
        let adm = admission(id, &frags, r, literal_query);
        let witness = match r.blocking_rule {
            Some(i) if adm == Admission::Blocked => format!(
                " — rule #{i}: {}",
                display_rule(&db.rules()[i], db.symbols())
            ),
            _ => String::new(),
        };
        oprintln!(
            "  {:<13} {}{}",
            id.to_string(),
            admission_label(adm),
            witness
        );
    }
    let show_program = |label: &str, prog: &magic::MagicProgram| {
        oprintln!();
        oprintln!(
            "{label} ({} seed(s), {} rule(s)):",
            prog.seeds.len(),
            prog.rules.len(),
        );
        for line in prog.render().lines() {
            oprintln!("  {line}");
        }
        if !prog.collisions.is_empty() {
            oprintln!(
                "  collisions with the magic__ namespace: {}",
                prog.collisions.join(", ")
            );
        }
    };
    show_program("rewritten program", &program);
    if let Some(p) = program_unpruned.as_ref() {
        show_program("rewritten program (no pruning)", p);
    }
    Ok(())
}

/// Writes one stdout line through [`out`]. Returns `false` once the pipe
/// is gone so unbounded enumeration loops can stop emitting early.
fn emit(line: &str) -> bool {
    out::line(line);
    !out::closed()
}

/// `ddb query`/`exists`/`models`: the flags become a [`Request`]
/// ([`request_from`]), answered on the loaded database by the server's
/// executor ([`answer_request`]) or a CLI-only branch ([`answer_local`]),
/// and printed by [`print_response`] — the path `ddb call` prints served
/// answers through.
fn answer_cmd(args: &[String], op: Op) -> Result<u8, String> {
    let opts = parse_opts(op.name(), args)?;
    let db = load(&opts)?;
    if op == Op::Query && opts.values_all("formula").len() > 1 {
        return query_batch(&opts, &db);
    }
    let request = request_from(&opts, op)?;
    let budget = opts.budget()?;
    let root = match op {
        Op::Query => "cmd.query",
        Op::Exists => "cmd.exists",
        _ => "cmd.models",
    };
    let (answered, observation) = observe(&opts, root, || -> Result<_, String> {
        let guard = budget.map(Budget::install);
        let fields = match answer_local(&opts, &request, &db)? {
            Some(fields) => fields,
            None => answer_request(&request, &Prepared::borrowed(&db), usize::MAX)
                .map_err(|e| e.message)?,
        };
        let consumed = disjunctive_db::obs::budget::consumed();
        drop(guard);
        let response = Json::obj(fields);
        let code = print_response(&response);
        Ok((response, code, consumed))
    });
    let (response, code, consumed) = answered?;
    // The trace `answer`: the verdict, or the model count (null when the
    // budget tripped before any model was found).
    let answer = match response.get(if op == Op::Models { "count" } else { "verdict" }) {
        Some(Json::UInt(0)) if code == EXIT_EXHAUSTED => Json::Null,
        answer => answer.cloned().unwrap_or(Json::Null),
    };
    observation.finish(&opts, op.name(), answer, govern_extra(&response, consumed))?;
    Ok(code)
}

/// The CLI-only answers, in the response fields of [`answer_request`]:
/// `cwa` (not served), `query --explain` countermodels and
/// `models --partial` under PDSM. `None` for every other request.
fn answer_local(
    opts: &Opts,
    request: &Request,
    db: &Database,
) -> Result<Option<Vec<(&'static str, Json)>>, String> {
    let named = |s: &str| {
        request
            .semantics
            .as_deref()
            .is_some_and(|n| n.eq_ignore_ascii_case(s))
    };
    let formula = || query_formula(request, db).map_err(|e| e.message);
    // An enumeration the budget stopped before it had any model.
    let tripped = |i: &Interrupted| -> Vec<(&'static str, Json)> {
        [("count", Json::UInt(0))]
            .into_iter()
            .chain(interrupt_fields(Some(i)))
            .collect()
    };
    let mut cost = Cost::new();
    let mut fields = match request.op {
        Op::Query | Op::Exists if named("cwa") => {
            let verdict: Verdict = if request.op == Op::Exists {
                cwa::is_consistent(db, &mut cost).into()
            } else {
                cwa::infers_formula(db, &formula()?, &mut cost).into()
            };
            verdict_fields(verdict_text(request.op, false, verdict.as_bool()), &verdict)
        }
        Op::Models if named("cwa") => match cwa::model(db, &mut cost) {
            Ok(model) => vec![
                (
                    "answer",
                    Json::Str(model.as_ref().map_or_else(
                        || "CWA is inconsistent for this database".to_owned(),
                        |m| render_model(db, m),
                    )),
                ),
                ("count", Json::UInt(u64::from(model.is_some()))),
                ("resource", Json::Null),
            ],
            Err(i) => tripped(&i),
        },
        Op::Query if opts.flag("explain") && !request.brave => {
            let cfg = semantics_config(request, db, usize::MAX).map_err(|e| e.message)?;
            let outcome = witness::explain_formula(&cfg, db, &formula()?, &mut cost)
                .map_err(|e| e.to_string())?;
            let refuted = verdict_text(Op::Query, false, Some(false));
            let (answer, verdict) = match outcome {
                witness::QueryOutcome::Inferred => (
                    verdict_text(Op::Query, false, Some(true)).to_owned(),
                    Verdict::True,
                ),
                witness::QueryOutcome::Countermodel(m) => (
                    format!("{refuted}; countermodel: {}", render_model(db, &m)),
                    Verdict::False,
                ),
                witness::QueryOutcome::CountermodelPartial(p) => (
                    format!(
                        "{refuted}; partial countermodel: ⟨{}⟩",
                        render_partial(db, &p)
                    ),
                    Verdict::False,
                ),
                witness::QueryOutcome::Unknown(i) => (
                    verdict_text(Op::Query, false, None).to_owned(),
                    Verdict::Unknown(i),
                ),
            };
            verdict_fields(answer, &verdict)
        }
        Op::Models if named("pdsm") && opts.flag("partial") => {
            match disjunctive_db::core::pdsm::models(db, &mut cost) {
                Ok(models) => vec![
                    (
                        "answer",
                        Json::Str(format!("{} partial stable model(s):", models.len())),
                    ),
                    ("count", Json::UInt(models.len() as u64)),
                    (
                        "models",
                        Json::Arr(
                            models
                                .iter()
                                .map(|p| Json::Str(format!("<{}>", render_partial(db, p))))
                                .collect(),
                        ),
                    ),
                    ("resource", Json::Null),
                ],
                Err(i) => tripped(&i),
            }
        }
        _ => return Ok(None),
    };
    fields.push(("sat_calls", Json::UInt(cost.sat_calls)));
    fields.push(("candidates", Json::UInt(cost.candidates)));
    Ok(Some(fields))
}

/// Batched `ddb query`: repeated `--formula` occurrences share one
/// parse/analysis/applicability pass and are decided concurrently on
/// `--threads` workers. Results print in command order regardless of
/// width, so the output is byte-identical to querying one at a time.
fn query_batch(opts: &Opts, db: &Database) -> Result<u8, String> {
    if opts.value("literal").is_some() {
        return Err("--literal cannot be combined with a batch of --formula".into());
    }
    if opts.flag("brave") || opts.flag("explain") {
        return Err("--brave/--explain take a single --formula at a time".into());
    }
    let request = request_from(opts, Op::Query)?;
    if request
        .semantics
        .as_deref()
        .is_some_and(|s| s.eq_ignore_ascii_case("cwa"))
    {
        return Err("batch query is not available for cwa".into());
    }
    let raw = opts.values_all("formula");
    let formulas: Vec<Formula> = raw
        .iter()
        .map(|s| parse_query(s, db.symbols()).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let cfg = semantics_config(&request, db, usize::MAX).map_err(|e| e.message)?;
    let budget = opts.budget()?;
    let (answered, observation) = observe(opts, "cmd.query", || -> Result<_, String> {
        let guard = budget.map(Budget::install);
        let results =
            parallel::infers_formulas_batch(&cfg, db, &formulas).map_err(|e| e.to_string())?;
        let mut total = Cost::new();
        let mut interrupted: Option<Interrupted> = None;
        let mut answers = Vec::with_capacity(results.len());
        for (src, (verdict, cost)) in raw.iter().zip(&results) {
            total.merge(cost);
            oprintln!(
                "{src}: {}",
                verdict_text(Op::Query, false, verdict.as_bool())
            );
            if interrupted.is_none() {
                interrupted = verdict.interrupted().cloned();
            }
            answers.push(verdict.as_bool().map_or(Json::Null, Json::Bool));
        }
        let consumed = disjunctive_db::obs::budget::consumed();
        drop(guard);
        let status = Json::obj(
            [
                ("sat_calls", Json::UInt(total.sat_calls)),
                ("candidates", Json::UInt(total.candidates)),
            ]
            .into_iter()
            .chain(interrupt_fields(interrupted.as_ref())),
        );
        let code = print_response(&status);
        Ok((answers, status, code, consumed))
    });
    let (answers, status, code, consumed) = answered?;
    observation.finish(
        opts,
        "query",
        Json::Arr(answers),
        govern_extra(&status, consumed),
    )?;
    Ok(code)
}

fn profile_cmd(args: &[String]) -> Result<(), String> {
    let opts = parse_opts("profile", args)?;
    let db = load(&opts)?;
    if db.num_atoms() == 0 {
        return Err("profile needs a database with at least one atom".into());
    }
    // Queries for the two inference columns: default to the first atom as
    // a positive literal and as a formula.
    let lit = match opts.value("literal") {
        Some(l) => parse_literal(l, db.symbols())?,
        None => Atom::new(0).pos(),
    };
    let f = match opts.value("formula") {
        Some(src) => parse_query(src, db.symbols()).map_err(|e| e.to_string())?,
        None => lit.into(),
    };
    // Per-cell budget: --cell-timeout-ms plus any of the general resource
    // limits. Each matrix cell gets a fresh installation, so one slow
    // Πᵖ₂ cell is marked `?<resource>` while the sweep continues.
    let mut cell_budget = opts.budget()?;
    if let Some(ms) = opts.u64("cell-timeout-ms")? {
        cell_budget = Some(
            cell_budget
                .unwrap_or_else(Budget::unlimited)
                .with_timeout(Duration::from_millis(ms)),
        );
    }
    let threads = threads_from(&opts)?;
    let (cells, observation) = observe(&opts, "cmd.profile", || {
        profile::profile_all_budgeted(&db, lit, &f, cell_budget.as_ref(), threads)
    });
    oprintln!(
        "profile of {} ({} atoms, {} rules); query literal `{}{}`",
        opts.file.as_deref().unwrap_or("-"),
        db.num_atoms(),
        db.len(),
        if lit.is_positive() { "" } else { "-" },
        db.symbols().name(lit.atom()),
    );
    oprintln!();
    oprint!("{}", profile::render_table(&cells));
    let cells_json = Json::Arr(cells.iter().map(profile::CellProfile::to_json).collect());
    observation.finish(&opts, "profile", Json::Null, vec![("cells", cells_json)])
}

/// `ddb explain`: print the static query plan — per semantics, the route
/// tree the dispatcher will take for the query, with predicted complexity
/// classes and sound oracle-call bounds — plus the adornment analysis of
/// the query's backward slice and the plan lints `DDB012`–`DDB015`. With
/// `--execute`, each planned cell also runs and the predicted route and
/// bound are audited against the observed `route.*` counters and
/// oracle-call totals; any mismatch exits 1.
///
/// The output is deterministic: identical across repeated runs and across
/// `--threads` widths (the worker pool changes wall-clock only, never
/// answers or oracle-call totals).
fn explain_cmd(args: &[String]) -> Result<u8, String> {
    use disjunctive_db::analysis::{
        adorn, bound_query, magic, plan_lints, DomainEstimate, PlanData, PlanNode, PlanQuery,
    };
    use disjunctive_db::core::planner::problem_of;
    let opts = parse_opts("explain", args)?;
    let db = load(&opts)?;
    // The planned query: --query, else model existence, the one problem
    // that needs no query.
    let (query_label, formula) = match opts.value("query") {
        Some(raw) => {
            let f = parse_query(raw, db.symbols()).map_err(|e| e.to_string())?;
            (raw.to_owned(), Some(f))
        }
        None => ("(model existence)".to_owned(), None),
    };
    let plan_query = formula.as_ref().map_or(PlanQuery::Existence, PlanQuery::of);
    let problem = problem_of(&plan_query);
    let oracle_budget = opts.limits()?.max_oracle_calls;
    let ids = semantics_or_all(&opts)?;
    // One plan per semantics, each configured as `ddb query` configures
    // it (partition, width); unsupported combinations are reported, not
    // fatal (a sweep over all ten must survive DDR/PWS on negation).
    let base = semantics_config(&request_from(&opts, Op::Query)?, &db, usize::MAX)
        .map_err(|e| e.message)?;
    let explained: Vec<(SemanticsId, SemanticsConfig, Result<PlanNode, String>)> = ids
        .into_iter()
        .map(|id| {
            let mut cfg = base.clone();
            cfg.id = id;
            let plan = cfg.plan(&db, &plan_query).map_err(|u| u.reason);
            (id, cfg, plan)
        })
        .collect();
    let query_atoms = plan_query.atoms().to_vec();
    let adornments = adorn(&db, &query_atoms);
    let estimate = DomainEstimate::of(&db);
    let plan_refs: Vec<(&str, &PlanNode)> = explained
        .iter()
        .filter_map(|(id, _, p)| p.as_ref().ok().map(|p| (id.name(), p)))
        .collect();
    let lints = plan_lints(&db, &query_atoms, &plan_refs, &adornments, oracle_budget);
    // When a bound query routes through its demand closure, the magic
    // rewrite of that closure is part of the explanation (taken from the
    // plan itself, so the rendered program is the one executed).
    let magic_rewrite = explained
        .iter()
        .find_map(|(_, _, plan)| match plan.as_ref().map(|p| &p.data) {
            Ok(PlanData::Slice { slice, .. }) => Some(slice),
            _ => None,
        })
        .filter(|_| bound_query(&db, &query_atoms))
        .map(|slice| magic::rewrite(&db, &query_atoms, slice));
    // --execute: run each planned cell and compare prediction to
    // observation. Existence-only audits ignore the query formula.
    let mut audits: Vec<(SemanticsId, &PlanNode, profile::CellProfile)> = Vec::new();
    let mut audit_failures = 0usize;
    if opts.flag("execute") {
        let f_q = formula.unwrap_or(Formula::True);
        for (id, cfg, plan) in &explained {
            let Ok(plan) = plan else { continue };
            let cell = profile::profile_cell(cfg, &db, problem, &f_q, None);
            if cell.unsupported.is_none()
                && (cell.route != Some(plan.route.label())
                    || cell.cost.sat_calls > plan.oracle_bound)
            {
                audit_failures += 1;
            }
            audits.push((*id, plan, cell));
        }
    }
    if opts.flag("json") {
        let plans_json: Vec<Json> = explained
            .iter()
            .map(|(id, _, plan)| {
                let (tree, unsupported) = match plan {
                    Ok(p) => (p.to_json(), Json::Null),
                    Err(reason) => (Json::Null, Json::Str(reason.clone())),
                };
                Json::obj([
                    ("semantics", Json::Str(id.name().to_owned())),
                    ("plan", tree),
                    ("unsupported", unsupported),
                ])
            })
            .collect();
        let audits_json: Vec<Json> = audits
            .iter()
            .map(|(id, plan, cell)| {
                Json::obj([
                    ("semantics", Json::Str(id.name().to_owned())),
                    ("predicted_route", Json::Str(plan.route.label().to_owned())),
                    (
                        "observed_route",
                        cell.route.map_or(Json::Null, |r| Json::Str(r.to_owned())),
                    ),
                    ("oracle_bound", Json::UInt(plan.oracle_bound)),
                    ("observed_sat_calls", Json::UInt(cell.cost.sat_calls)),
                    (
                        "unsupported",
                        cell.unsupported
                            .as_ref()
                            .map_or(Json::Null, |r| Json::Str(r.clone())),
                    ),
                    (
                        "ok",
                        Json::Bool(
                            cell.unsupported.is_some()
                                || (cell.route == Some(plan.route.label())
                                    && cell.cost.sat_calls <= plan.oracle_bound),
                        ),
                    ),
                ])
            })
            .collect();
        let doc = Json::obj([
            (
                "file",
                Json::Str(opts.file.as_deref().unwrap_or("-").into()),
            ),
            ("query", Json::Str(query_label)),
            ("problem", Json::Str(problem.name().to_owned())),
            ("atoms", Json::UInt(db.num_atoms() as u64)),
            ("rules", Json::UInt(db.len() as u64)),
            ("domain", estimate.to_json()),
            ("adornments", adornments.to_json()),
            ("plans", Json::Arr(plans_json)),
            (
                "rewrite",
                magic_rewrite
                    .as_ref()
                    .map_or(Json::Null, magic::MagicProgram::to_json),
            ),
            (
                "lints",
                Json::Arr(
                    lints
                        .iter()
                        .map(disjunctive_db::analysis::Diagnostic::to_json)
                        .collect(),
                ),
            ),
            ("audits", Json::Arr(audits_json)),
            ("audit_failures", Json::UInt(audit_failures as u64)),
        ]);
        oprintln!("{}", doc.render_pretty());
        return Ok(u8::from(audit_failures > 0));
    }
    oprintln!(
        "explain {} ({} atoms, {} rules); query `{}` ({} problem)",
        opts.file.as_deref().unwrap_or("-"),
        db.num_atoms(),
        db.len(),
        query_label,
        problem.name(),
    );
    oprintln!(
        "domain: {} constants, {} predicates, {} disjunctive rules (max head width {})",
        estimate.num_constants,
        estimate.predicates.len(),
        estimate.disjunctive_rules,
        estimate.max_head_width,
    );
    if !adornments.predicates.is_empty() {
        let shown: Vec<String> = adornments.predicates.iter().map(|p| p.display()).collect();
        oprintln!(
            "adornments: {} (bound constants: {})",
            shown.join(" "),
            if adornments.bound_constants.is_empty() {
                "none".to_owned()
            } else {
                adornments.bound_constants.join(", ")
            },
        );
    }
    for (id, _, plan) in &explained {
        oprintln!();
        match plan {
            Ok(p) => {
                oprintln!("== {}", id.name());
                for line in p.render().lines() {
                    oprintln!("  {line}");
                }
            }
            Err(reason) => oprintln!("== {} — unsupported: {}", id.name(), reason),
        }
    }
    if let Some(prog) = &magic_rewrite {
        oprintln!();
        oprintln!("rewritten program (magic):");
        for line in prog.render().lines() {
            oprintln!("  {line}");
        }
    }
    if !lints.is_empty() {
        oprintln!();
        for d in &lints {
            oprintln!("{d}");
        }
    }
    if opts.flag("execute") {
        oprintln!();
        for (id, plan, cell) in &audits {
            if let Some(reason) = &cell.unsupported {
                oprintln!("audit {}: skipped ({})", id.name(), reason);
                continue;
            }
            let route_ok = cell.route == Some(plan.route.label());
            let bound_ok = cell.cost.sat_calls <= plan.oracle_bound;
            oprintln!(
                "audit {}: route predicted={} observed={}; sat_calls={} (bound {}) — {}",
                id.name(),
                plan.route.label(),
                cell.route.unwrap_or("-"),
                cell.cost.sat_calls,
                disjunctive_db::analysis::cost::display_bound(plan.oracle_bound),
                if route_ok && bound_ok {
                    "ok"
                } else {
                    "MISMATCH"
                },
            );
        }
        if audit_failures > 0 {
            eprintln!("explain: {audit_failures} audit mismatch(es)");
            return Ok(1);
        }
    }
    Ok(0)
}

/// `ddb trace`: run one formula query under a full event trace and print
/// an aggregated span-tree report — calls, inclusive/exclusive time,
/// attributed oracle calls, and p50/p90/p99 latency per tree node, built
/// from the events of one `record` scope.
fn trace_cmd(args: &[String]) -> Result<u8, String> {
    let opts = parse_opts("trace", args)?;
    let db = load(&opts)?;
    let raw = opts.value("query").ok_or("missing --query \"<formula>\"")?;
    let formula = parse_query(raw, db.symbols()).map_err(|e| e.to_string())?;
    let top = opts.u64("top")?.unwrap_or(0) as usize;
    // The query's semantics, partition and width, defaulting to EGCWA
    // like `ddb query`, so a bare `ddb trace <file> --query ...` works.
    let cfg = semantics_config(&request_from(&opts, Op::Query)?, &db, usize::MAX)
        .map_err(|e| e.message)?;
    let budget = opts.budget()?;
    let guard = budget.map(Budget::install);
    let mut cost = Cost::new();
    let (verdict, recording) = disjunctive_db::obs::record(true, || {
        let _root = disjunctive_db::obs::span("cmd.trace");
        cfg.infers_formula(&db, &formula, &mut cost)
    });
    let verdict = verdict.map_err(|e| e.to_string())?;
    drop(guard);
    let disjunctive_db::obs::Recording {
        counters,
        histograms: hists,
        events,
    } = recording;
    let report = disjunctive_db::obs::TraceReport::build(&events);
    if opts.flag("json") {
        let doc = Json::obj([
            ("version", Json::UInt(1)),
            ("command", Json::Str("trace".to_owned())),
            ("query", Json::Str(raw.to_owned())),
            ("answer", verdict.as_bool().map_or(Json::Null, Json::Bool)),
            ("oracle_calls", Json::UInt(counters.get("sat.solves"))),
            ("spans", report.to_json()),
            ("histograms", hists.to_json()),
        ]);
        oprintln!("{}", doc.render_pretty());
    } else {
        oprintln!(
            "{raw}: {}",
            verdict_text(Op::Query, false, verdict.as_bool())
        );
        oprintln!();
        oprint!("{}", report.render(top));
        if opts.flag("stats") {
            eprint!("{}", counters.render_table());
            if !hists.is_empty() {
                eprint!("{}", hists.render_table());
            }
        }
    }
    Ok(print_response(&Json::obj(interrupt_fields(
        verdict.interrupted(),
    ))))
}

fn ground_cmd(args: &[String]) -> Result<(), String> {
    let opts = parse_opts("ground", args)?;
    let path = opts.file.as_deref().ok_or("missing <file> argument")?;
    let program = parse_datalog(&read_source(path)?).map_err(|e| e.to_string())?;
    let db = if opts.flag("full") {
        disjunctive_db::ground::ground_full(&program, GROUNDING_LIMIT)
    } else {
        ground_reduced(&program, GROUNDING_LIMIT)
    }
    .map_err(|e| e.to_string())?;
    emit(display_database(&db).trim_end());
    eprintln!(
        "[{} ground atoms, {} ground rules]",
        db.num_atoms(),
        db.len()
    );
    Ok(())
}

fn proof_cmd(args: &[String]) -> Result<(), String> {
    let opts = parse_opts("proof", args)?;
    let db = load(&opts)?;
    if db.has_negation() {
        return Err("DDR proofs need a database without negation".into());
    }
    let name = opts.value("atom").ok_or("missing --atom <name>")?;
    let atom = db
        .symbols()
        .lookup(name)
        .ok_or_else(|| format!("unknown atom `{name}`"))?;
    match disjunctive_db::models::fixpoint::activation_proof(&db, atom) {
        None => oprintln!("{name} does not occur in T_DB↑ω — DDR infers ¬{name}"),
        Some(proof) => {
            oprintln!("{name} occurs in T_DB↑ω (DDR does NOT infer ¬{name}); derivation:");
            for step in &proof {
                let rule = &db.rules()[step.rule_index];
                oprintln!(
                    "  {} by rule #{}: {}",
                    db.symbols().name(step.atom),
                    step.rule_index,
                    display_rule(rule, db.symbols())
                );
            }
            assert!(disjunctive_db::models::fixpoint::verify_proof(
                &db, atom, &proof
            ));
        }
    }
    Ok(())
}

fn wfs_cmd(args: &[String]) -> Result<(), String> {
    let opts = parse_opts("wfs", args)?;
    let db = load(&opts)?;
    if !wfs::is_normal_program(&db) {
        return Err("WFS needs a normal program (exactly one head atom per rule)".into());
    }
    let w = wfs::well_founded_model(&db);
    for a in db.symbols().atoms() {
        let v = match w.value(a) {
            TruthValue::True => "true",
            TruthValue::Undefined => "undefined",
            TruthValue::False => "false",
        };
        oprintln!("{}: {v}", db.symbols().name(a));
    }
    Ok(())
}

/// `ddb serve`: host the catalog over TCP with the fault-tolerance
/// contract of `ddb_serve::server` — bounded sessions and admission
/// queues with typed `overloaded` shedding, per-request budgets
/// (server defaults ∩ client limits), read/write/idle timeouts, a
/// max-frame guard, panic fencing, and graceful drain on the `shutdown`
/// op or (with `--drain-on-stdin-close`) when stdin reaches EOF — the
/// supervisor-friendly substitute for a SIGTERM handler, which a
/// `forbid(unsafe_code)` zero-dependency build cannot install.
fn serve_cmd(args: &[String]) -> Result<u8, String> {
    use disjunctive_db::serve::{catalog::name_from_path, Catalog, Server, ServerConfig};
    let opts = parse_opts("serve", args)?;
    let mut config = ServerConfig::default();
    let mut catalog = Catalog::new();
    if let Some(path) = opts.file.as_deref() {
        catalog.load_file(&name_from_path(path), path, config.grounding_limit)?;
    }
    for spec in opts.values_all("db") {
        let (name, path) = match spec.split_once('=') {
            Some((n, p)) => (n.to_owned(), p.to_owned()),
            None => (name_from_path(spec), spec.to_owned()),
        };
        catalog.load_file(&name, &path, config.grounding_limit)?;
    }
    if catalog.is_empty() {
        return Err(
            "serve needs at least one database (positional <file> or --db name=path)".into(),
        );
    }
    // Operator-provisioned entries are sealed: wire `load` requests may
    // add new names but never replace these (the catalog's trust model).
    catalog.protect_all();
    if let Some(addr) = opts.value("addr") {
        config.addr = addr.to_owned();
    }
    if let Some(n) = opts.u64("max-sessions")? {
        config.max_sessions = n.max(1) as usize;
    }
    if let Some(n) = opts.u64("workers")? {
        config.workers = n.max(1) as usize;
    }
    if let Some(n) = opts.u64("queue")? {
        config.queue = n as usize;
    }
    if let Some(ms) = opts.u64("read-timeout-ms")? {
        config.read_timeout = Duration::from_millis(ms);
    }
    if let Some(ms) = opts.u64("write-timeout-ms")? {
        config.write_timeout = Duration::from_millis(ms);
    }
    if let Some(ms) = opts.u64("idle-timeout-ms")? {
        config.idle_timeout = Duration::from_millis(ms);
    }
    if let Some(n) = opts.u64("max-frame-bytes")? {
        config.max_frame_bytes = n.max(64) as usize;
    }
    if let Some(ms) = opts.u64("retry-after-ms")? {
        config.retry_after_ms = ms;
    }
    if opts.value("threads").is_some() {
        config.max_query_threads = threads_from(&opts)?;
    }
    config.defaults = opts.limits()?.to_budget();
    let handle = Server::start(config, catalog)?;
    // The harness (CI, tests, supervisors) parses this line for the
    // bound address, so it goes to stdout and flushes immediately.
    oprintln!("listening on {}", handle.addr());
    if opts.flag("drain-on-stdin-close") {
        let trigger = handle.shutdown_trigger();
        std::thread::spawn(move || {
            let mut sink = String::new();
            let _ = std::io::stdin().read_to_string(&mut sink);
            trigger.shutdown();
        });
    }
    let report = handle.join();
    eprintln!("{report}");
    Ok(if report.sessions_leaked == 0 { 0 } else { 1 })
}

/// `ddb call`: one-shot client for a running server. The flags become
/// the request exactly as the local command builds it ([`request_from`]),
/// and the response prints through the local printer
/// ([`print_response`]), so stdout, stderr and the exit code match the
/// local `query`/`exists`/`models` byte for byte. Flags the wire cannot
/// carry are usage errors, never silently dropped.
fn call_cmd(args: &[String]) -> Result<u8, String> {
    use disjunctive_db::serve::chaos::Client;
    let opts = parse_opts("call", args)?;
    let addr = opts.value("addr").ok_or("missing --addr <host:port>")?;
    if opts.flag("explain") || opts.flag("partial") || opts.values_all("formula").len() > 1 {
        return Err("--explain, --partial and batched --formula are local-only".into());
    }
    let name = opts.value("op").unwrap_or("query");
    let op = Op::from_name(name).ok_or_else(|| format!("unknown op `{name}`"))?;
    let request = request_from(&opts, op)?;
    let mut client = Client::connect(addr, Duration::from_secs(30))?;
    let response = client.call(&request.to_json().render())?;
    if opts.flag("json") {
        oprintln!("{}", response.render_pretty());
        return Ok(exit_code(&response));
    }
    Ok(print_response(&response))
}

/// `ddb chaos`: run the full attack harness against a live server and
/// report; any violated robustness check exits 1.
fn chaos_cmd(args: &[String]) -> Result<u8, String> {
    use disjunctive_db::serve::{run_chaos, ChaosConfig};
    let opts = parse_opts("chaos", args)?;
    let addr = opts.value("addr").ok_or("missing --addr <host:port>")?;
    let mut config = ChaosConfig {
        addr: addr.to_owned(),
        ..ChaosConfig::default()
    };
    if let Some(n) = opts.u64("rounds")? {
        config.rounds = n;
    }
    if let Some(n) = opts.u64("seed")? {
        config.seed = n;
    }
    if let Some(n) = opts.u64("fail-after-max")? {
        config.fail_after_max = n;
    }
    config.db = opts.value("db").map(str::to_owned);
    config.formula = opts.value("formula").map(str::to_owned);
    let report = run_chaos(&config)?;
    oprint!("{}", report.render());
    Ok(if report.ok() { 0 } else { 1 })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_opts_splits_values_and_flags() {
        let opts = parse_opts(
            "query",
            &args(&[
                "file.dl",
                "--semantics",
                "gcwa",
                "--explain",
                "--formula",
                "a & b",
            ]),
        )
        .unwrap();
        assert_eq!(opts.file.as_deref(), Some("file.dl"));
        assert_eq!(opts.value("semantics"), Some("gcwa"));
        assert_eq!(opts.value("formula"), Some("a & b"));
        assert!(opts.flag("explain"));
        assert!(!opts.flag("brave"));
    }

    #[test]
    fn parse_opts_rejects_dangling_value_flag() {
        assert!(parse_opts("query", &args(&["f.dl", "--semantics"])).is_err());
        assert!(parse_opts("query", &args(&["a.dl", "b.dl"])).is_err());
    }

    #[test]
    fn parse_opts_rejects_options_the_command_does_not_read() {
        let err = |command: &str, list: &[&str]| {
            parse_opts(command, &args(list)).err().expect("rejected")
        };
        assert_eq!(
            err("ground", &["f.dlv", "--semantics", "dsm"]),
            "`ddb ground` does not read `--semantics`"
        );
        assert_eq!(
            err("wfs", &["f", "--max-models", "1"]),
            "`ddb wfs` does not read `--max-models`"
        );
        assert!(err("exists", &["f", "--formula", "a"]).contains("--formula"));
        assert!(err("trace", &["f", "--flame", "x"]).contains("--flame"));
        // The groups expand: every command that lists them reads them.
        let ok = |command: &str, list: &[&str]| parse_opts(command, &args(list)).is_ok();
        assert!(ok("profile", &["f", "--max-conflicts", "1", "--stats"]));
        assert!(ok("trace", &["f", "--stats"]));
    }

    #[test]
    fn every_flag_is_read_by_some_command() {
        for flag in FLAGS.split_whitespace() {
            assert!(reads_option(None, flag), "--{flag} is read by no command");
        }
        for &(command, keys) in COMMAND_OPTIONS {
            assert!(
                run(&args(&[command, "--bogus-option", "1"]))
                    .unwrap_err()
                    .contains("unknown flag"),
                "{command} must be dispatched by `run`"
            );
            for key in keys.split_whitespace() {
                assert!(reads_option(Some(command), key), "{command} --{key}");
            }
        }
    }

    #[test]
    fn semantics_names_resolve() {
        assert_eq!(SemanticsId::from_name("gcwa").unwrap(), SemanticsId::Gcwa);
        assert_eq!(SemanticsId::from_name("CIRC").unwrap(), SemanticsId::Ecwa);
        assert_eq!(SemanticsId::from_name("wgcwa").unwrap(), SemanticsId::Ddr);
        assert_eq!(SemanticsId::from_name("pms").unwrap(), SemanticsId::Pws);
        assert_eq!(SemanticsId::from_name("stable").unwrap(), SemanticsId::Dsm);
        assert!(SemanticsId::from_name("nope").is_err());
    }

    #[test]
    fn every_limit_is_a_flag() {
        for name in Limits::FIELDS {
            let flag = format!("--{}", name.replace('_', "-"));
            let opts = parse_opts("query", &args(&["f.dl", &flag, "7"])).unwrap();
            let limits = opts.limits().unwrap();
            assert_eq!(limits.to_json().render(), format!(r#"{{"{name}":7}}"#));
            assert!(opts.budget().unwrap().is_some(), "{flag} installs a budget");
            let bad = parse_opts("query", &args(&["f.dl", &flag, "soon"])).unwrap();
            assert!(bad.limits().is_err(), "{flag} rejects a non-integer");
        }
    }

    #[test]
    fn request_from_carries_every_wire_flag() {
        let opts = parse_opts(
            "call",
            &args(&[
                "--db",
                "ab",
                "--semantics",
                "ccwa",
                "--partition-p",
                "a, b,",
                "--partition-q",
                "c",
                "--literal",
                "-a",
                "--brave",
                "--threads",
                "2",
                "--fail-after",
                "3",
                "--id",
                "job-1",
            ]),
        )
        .unwrap();
        let request = request_from(&opts, Op::Query).unwrap();
        assert_eq!(request.partition_p, ["a", "b"]);
        assert_eq!(request.partition_q, ["c"]);
        assert_eq!(request.literal.as_deref(), Some("-a"));
        assert!(request.brave);
        assert_eq!(request.threads, Some(2));
        assert_eq!(request.limits.fail_after, Some(3));
        assert_eq!(request.id_key().as_deref(), Some("job-1"));
        // Query ops default to EGCWA, like the local commands.
        let bare = request_from(&parse_opts("call", &[]).unwrap(), Op::Exists).unwrap();
        assert_eq!(bare.semantics.as_deref(), Some("egcwa"));
        let ping = request_from(&parse_opts("call", &[]).unwrap(), Op::Ping).unwrap();
        assert_eq!(ping.semantics, None);
    }

    #[test]
    fn call_rejects_flags_the_wire_cannot_carry() {
        for extra in [&["--explain"][..], &["--partial"], &["--formula", "b"]] {
            let mut list = vec!["call", "--addr", "127.0.0.1:1", "--formula", "a"];
            list.extend_from_slice(extra);
            let err = run(&args(&list)).unwrap_err();
            assert!(err.contains("local-only"), "{extra:?}: {err}");
        }
    }

    #[test]
    fn unknown_command_reported() {
        assert!(run(&args(&["frobnicate"])).is_err());
        assert!(run(&args(&[])).is_err());
    }

    /// A database whose vocabulary is datalog ground-atom names — the
    /// shapes the grounder emits and the formula lexer cannot tokenize,
    /// so `parse_query` (shared by query/trace/slice/explain and the server)
    /// must resolve them through the verbatim-lookup fallback.
    fn ground_atom_db(names: &[&str]) -> Database {
        let mut db = Database::with_fresh_atoms(0);
        for name in names {
            let a = db.symbols_mut().intern(name);
            db.add_rule(Rule::new([a], [], []));
        }
        db
    }

    #[test]
    fn query_parser_resolves_datalog_ground_atoms() {
        let db = ground_atom_db(&["edge(a,b)", "p(f(a),b)", "p()", "not(a)"]);
        let lookup = |name: &str| {
            db.symbols()
                .atoms()
                .find(|&a| db.symbols().name(a) == name)
                .unwrap()
        };
        // Plain, nested-paren, and zero-arity ground atoms resolve.
        for name in ["edge(a,b)", "p(f(a),b)", "p()"] {
            assert_eq!(
                parse_query(name, db.symbols()).unwrap(),
                Formula::literal(lookup(name), true),
                "{name}"
            );
        }
        // A reserved-word predicate name must reach the verbatim lookup,
        // not be lexed as the connective `not`.
        assert_eq!(
            parse_query("not(a)", db.symbols()).unwrap(),
            Formula::literal(lookup("not(a)"), true)
        );
        // Leading `-` negates a ground atom through the fallback path.
        assert_eq!(
            parse_query("-edge(a,b)", db.symbols()).unwrap(),
            Formula::literal(lookup("edge(a,b)"), false)
        );
        assert_eq!(
            parse_query("  -p(f(a),b) ", db.symbols()).unwrap(),
            Formula::literal(lookup("p(f(a),b)"), false)
        );
    }

    #[test]
    fn query_parser_reports_malformed_and_unknown_atoms() {
        let db = ground_atom_db(&["edge(a,b)"]);
        // Mismatched parens never resolve and never panic; the original
        // formula parse error is what the user sees.
        assert!(parse_query("edge(a", db.symbols()).is_err());
        assert!(parse_query("edge(a))", db.symbols()).is_err());
        // Unknown predicate / wrong argument tuple.
        assert!(parse_query("edge(b,a)", db.symbols()).is_err());
        assert!(parse_query("node(a)", db.symbols()).is_err());
        // The fallback must not hijack real formula syntax errors.
        assert!(parse_query("a &", db.symbols()).is_err());
    }

    #[test]
    fn end_to_end_classify_via_tempfile() {
        let path = std::env::temp_dir().join("ddb_cli_test_db.dl");
        std::fs::write(&path, "a | b. c :- a, b.").unwrap();
        let result = run(&args(&["classify", path.to_str().unwrap()]));
        std::fs::remove_file(&path).ok();
        assert!(result.is_ok());
    }

    #[test]
    fn check_exit_codes_are_stable() {
        // 0: clean report.
        let clean = std::env::temp_dir().join("ddb_cli_check_clean.dl");
        std::fs::write(&clean, "a | b. c :- a.").unwrap();
        assert_eq!(run(&args(&["check", clean.to_str().unwrap()])), Ok(0));
        assert_eq!(
            run(&args(&["check", clean.to_str().unwrap(), "--json"])),
            Ok(0)
        );
        std::fs::remove_file(&clean).ok();

        // 2: error-level lints (DDB002 fact violating a constraint).
        let bad = std::env::temp_dir().join("ddb_cli_check_bad.dl");
        std::fs::write(&bad, "a. :- a.").unwrap();
        assert_eq!(run(&args(&["check", bad.to_str().unwrap()])), Ok(2));
        std::fs::remove_file(&bad).ok();

        // 2: unreadable file.
        assert_eq!(run(&args(&["check", "/nonexistent/ddb_no_such.dl"])), Ok(2));
    }

    #[test]
    fn check_warnings_exit_one_and_strict_escalates() {
        let dup = std::env::temp_dir().join("ddb_cli_check_dup.dl");
        std::fs::write(&dup, "a. a.").unwrap();
        assert_eq!(run(&args(&["check", dup.to_str().unwrap()])), Ok(1));
        assert_eq!(
            run(&args(&["check", dup.to_str().unwrap(), "--strict"])),
            Ok(2)
        );
        std::fs::remove_file(&dup).ok();
    }

    #[test]
    fn check_reports_unsafe_datalog() {
        let unsafe_dl = std::env::temp_dir().join("ddb_cli_check_unsafe.dlv");
        std::fs::write(&unsafe_dl, "p(X).").unwrap();
        assert_eq!(run(&args(&["check", unsafe_dl.to_str().unwrap()])), Ok(2));
        std::fs::remove_file(&unsafe_dl).ok();
    }

    #[test]
    fn slice_prints_slice_and_admissions() {
        let path = std::env::temp_dir().join("ddb_cli_slice.dl");
        std::fs::write(&path, "a | b. c :- a. c :- b. x | y. z :- x.").unwrap();
        let p = path.to_str().unwrap();
        assert_eq!(run(&args(&["slice", p, "--query", "c"])), Ok(0));
        assert_eq!(run(&args(&["slice", p, "--query", "c", "--json"])), Ok(0));
        assert_eq!(
            run(&args(&["slice", p, "--query", "c", "--semantics", "dsm"])),
            Ok(0)
        );
        assert!(run(&args(&["slice", p, "--query", "nope"])).is_err());
        assert!(run(&args(&["slice", p])).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn query_with_partition_options() {
        let path = std::env::temp_dir().join("ddb_cli_test_part.dl");
        std::fs::write(&path, "a | b.").unwrap();
        let result = run(&args(&[
            "query",
            path.to_str().unwrap(),
            "--semantics",
            "ccwa",
            "--partition-p",
            "a",
            "--partition-q",
            "b",
            "--literal",
            "-a",
        ]));
        std::fs::remove_file(&path).ok();
        assert!(result.is_ok());
    }
}
