//! In-process execution of request frames through the same public calls
//! the server's handler makes: `protocol::parse_request`, the load path
//! (`parse_datalog`/`parse_program`, `ground_reduced`), `classify`, the
//! planner's `decide`, `SemanticsConfig::{infers_formula, has_model,
//! models}` and `protocol::ok_frame`.
//!
//! It serves two purposes. Untraced, it computes the reference answer
//! every served response is checked against. Traced, it replays a
//! workload and records one span per public call, timed from outside the
//! call: nothing inside the program is instrumented.

use crate::run::Obs;
use crate::workload::{Kind, Workload, GROUNDING_LIMIT, SEMANTICS};
use ddb_analysis::PlanQuery;
use ddb_core::{RoutingMode, SemanticsConfig, Verdict};
use ddb_ground::{ground_reduced, parse::parse_datalog};
use ddb_logic::parse::{parse_formula, parse_program};
use ddb_logic::{Database, Formula};
use ddb_models::Cost;
use ddb_obs::json::Json;
use ddb_serve::protocol::{ok_frame, parse_request, Op, Request};
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Named databases, as the server's catalog holds them.
pub(crate) type Dbs = HashMap<String, Arc<Database>>;

/// Response fields in the server's order, without the cost-only
/// `consumed` and `wall_ms` the server appends.
pub(crate) type Fields = Vec<(&'static str, Json)>;

/// One timed call.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer and call, e.g. `analysis.classify`.
    pub name: &'static str,
    /// The request it belongs to (its position in the replay).
    pub req: u32,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// An in-memory span recorder. Switched off, it runs the same calls
/// without reading the clock.
pub struct Spans {
    on: bool,
    origin: Instant,
    /// Recorded spans, in the order they ended.
    pub spans: Vec<Span>,
}

impl Spans {
    /// A recorder that records (`on`) or only runs the calls.
    pub fn new(on: bool) -> Spans {
        Spans {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        if self.on {
            self.origin.elapsed().as_nanos() as u64
        } else {
            0
        }
    }

    fn close(&mut self, name: &'static str, req: u32, start_ns: u64) {
        if self.on {
            let dur_ns = self.now() - start_ns;
            self.spans.push(Span {
                name,
                req,
                start_ns,
                dur_ns,
            });
        }
    }

    /// Runs `f`, recording it as the span `name` of request `req`.
    pub fn time<R>(&mut self, name: &'static str, req: u32, f: impl FnOnce() -> R) -> R {
        let start = self.now();
        let r = f();
        self.close(name, req, start);
        r
    }

    /// Total duration and count of the spans named `name`.
    pub fn total(&self, name: &str) -> (Duration, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((Duration::ZERO, 0), |(d, n), s| {
                (d + Duration::from_nanos(s.dur_ns), n + 1)
            })
    }

    /// The spans as Chrome trace-event JSON (`chrome://tracing`,
    /// Perfetto): complete events in microseconds on one thread, each
    /// tagged with its request.
    pub fn chrome_trace(&self) -> Json {
        let events = self
            .spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("name", Json::Str(s.name.to_owned())),
                    ("ph", Json::Str("X".to_owned())),
                    ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                    ("dur", Json::Num(s.dur_ns as f64 / 1e3)),
                    ("pid", Json::UInt(1)),
                    ("tid", Json::UInt(1)),
                    ("args", Json::obj([("req", Json::UInt(u64::from(s.req)))])),
                ])
            })
            .collect();
        Json::obj([("traceEvents", Json::Arr(events))])
    }
}

/// Executes one frame in-process as the server would answer it, updating
/// `dbs` on a `load`. Spans: `request` around the whole frame, with
/// children `protocol.parse`, `ground.parse`/`ground.ground` (loads) or
/// `analysis.classify`/`core.decide`/`core.exec` (reads), and
/// `protocol.render`.
pub(crate) fn execute(
    line: &str,
    dbs: &mut Dbs,
    routing: RoutingMode,
    spans: &mut Spans,
    req: u32,
) -> Result<Fields, String> {
    let start = spans.now();
    let request = spans
        .time("protocol.parse", req, || parse_request(line))
        .map_err(|e| e.error.to_string())?;
    let fields = match request.op {
        Op::Load => {
            let name = request.db.as_deref().ok_or("load without `db`")?;
            let source = request.source.as_deref().ok_or("load without `source`")?;
            load(name, source, request.datalog, dbs, spans, req)?
        }
        Op::Query | Op::Exists | Op::Models => read(&request, dbs, routing, spans, req)?,
        other => return Err(format!("op `{}` is not replayed", other.name())),
    };
    let mut rendered = fields.clone();
    rendered.push(("consumed", Json::Null));
    rendered.push(("wall_ms", Json::UInt(0)));
    black_box(spans.time("protocol.render", req, || ok_frame(None, rendered)));
    spans.close("request", req, start);
    Ok(fields)
}

/// The server's load path (`catalog::load_source`), with its parse and
/// ground steps timed apart.
pub(crate) fn load(
    name: &str,
    source: &str,
    datalog: Option<bool>,
    dbs: &mut Dbs,
    spans: &mut Spans,
    req: u32,
) -> Result<Fields, String> {
    let db = if datalog.unwrap_or_else(|| source.contains('(')) {
        let program = spans
            .time("ground.parse", req, || parse_datalog(source))
            .map_err(|e| e.to_string())?;
        spans
            .time("ground.ground", req, || {
                ground_reduced(&program, GROUNDING_LIMIT)
            })
            .map_err(|e| e.to_string())?
    } else {
        spans
            .time("ground.parse", req, || parse_program(source))
            .map_err(|e| e.to_string())?
    };
    let fields = vec![
        ("answer", Json::Str(format!("loaded `{name}`"))),
        ("atoms", Json::UInt(db.num_atoms() as u64)),
        ("rules", Json::UInt(db.rules().len() as u64)),
    ];
    dbs.insert(name.to_owned(), Arc::new(db));
    Ok(fields)
}

/// The query formula: the formula grammar first, then a verbatim atom
/// name (Datalog atoms such as `reach(c0,n32)`), as the server resolves
/// it.
fn formula(request: &Request, db: &Database) -> Result<Formula, String> {
    let (text, grammar) = match (&request.formula, &request.literal) {
        (Some(f), None) => (f.as_str(), true),
        (None, Some(l)) => (l.as_str(), false),
        _ => return Err("need exactly one of `formula` / `literal`".to_owned()),
    };
    if grammar {
        if let Ok(f) = parse_formula(text, db.symbols()) {
            return Ok(f);
        }
    }
    let (name, positive) = match text.trim().strip_prefix('-') {
        Some(rest) => (rest.trim(), false),
        None => (text.trim(), true),
    };
    let atom = db
        .symbols()
        .lookup(name)
        .ok_or_else(|| format!("unknown atom `{name}`"))?;
    Ok(Formula::literal(atom, positive))
}

fn verdict_fields(fields: &mut Fields, answer: &str, verdict: &Verdict) {
    fields.push(("answer", Json::Str(answer.to_owned())));
    fields.push(("verdict", verdict.as_bool().map_or(Json::Null, Json::Bool)));
    fields.push((
        "resource",
        verdict
            .interrupted()
            .map_or(Json::Null, |i| Json::Str(i.resource.label().to_owned())),
    ));
}

fn read(
    request: &Request,
    dbs: &Dbs,
    routing: RoutingMode,
    spans: &mut Spans,
    req: u32,
) -> Result<Fields, String> {
    let name = request.db.as_deref().ok_or("missing `db`")?;
    let db = dbs
        .get(name)
        .cloned()
        .ok_or_else(|| format!("unknown database `{name}`"))?;
    let sem = request.semantics.as_deref().ok_or("missing `semantics`")?;
    let (_, id) = SEMANTICS
        .iter()
        .find(|(n, _)| *n == sem)
        .ok_or_else(|| format!("unknown semantics `{sem}`"))?;
    let cfg = SemanticsConfig::new(*id).with_routing(routing);
    let (query, plan) = match request.op {
        Op::Query => {
            let f = formula(request, &db)?;
            let atoms = f.atoms();
            (Some(f), PlanQuery::Formula(atoms))
        }
        Op::Exists => (None, PlanQuery::Existence),
        _ => (None, PlanQuery::Enumeration),
    };
    // The execution call below classifies and decides again internally;
    // timing both apart lets the replay split analysis from execution.
    let frags = spans.time("analysis.classify", req, || ddb_analysis::classify(&db));
    black_box(spans.time("core.decide", req, || {
        ddb_core::planner::decide(&cfg, &db, &frags, &plan)
    }));
    let mut cost = Cost::new();
    let mut fields = Fields::new();
    spans.time("core.exec", req, || -> Result<(), String> {
        match (request.op, &query) {
            (Op::Query, Some(f)) => {
                let v = cfg
                    .infers_formula(&db, f, &mut cost)
                    .map_err(|e| e.to_string())?;
                let answer = match v.as_bool() {
                    Some(true) => "inferred",
                    Some(false) => "not inferred",
                    None => "unknown",
                };
                verdict_fields(&mut fields, answer, &v);
            }
            (Op::Exists, _) => {
                let v = cfg.has_model(&db, &mut cost).map_err(|e| e.to_string())?;
                let answer = match v.as_bool() {
                    Some(true) => "has a model",
                    Some(false) => "no model",
                    None => "unknown",
                };
                verdict_fields(&mut fields, answer, &v);
            }
            _ => {
                let e = cfg.models(&db, &mut cost).map_err(|e| e.to_string())?;
                let models: Vec<Json> = e
                    .iter()
                    .map(|m| {
                        Json::Arr(
                            m.iter()
                                .map(|a| Json::Str(db.symbols().name(a).to_owned()))
                                .collect(),
                        )
                    })
                    .collect();
                let answer = if e.is_complete() {
                    format!("{} model(s) under {}:", e.len(), cfg.id)
                } else {
                    format!(
                        "{} model(s) under {} (incomplete — budget exhausted):",
                        e.len(),
                        cfg.id
                    )
                };
                fields.push(("answer", Json::Str(answer)));
                fields.push(("count", Json::UInt(models.len() as u64)));
                fields.push(("complete", Json::Bool(e.is_complete())));
                fields.push(("models", Json::Arr(models)));
                fields.push((
                    "resource",
                    e.interrupted
                        .as_ref()
                        .map_or(Json::Null, |i| Json::Str(i.resource.label().to_owned())),
                ));
            }
        }
        Ok(())
    })?;
    fields.push(("sat_calls", Json::UInt(cost.sat_calls)));
    fields.push(("candidates", Json::UInt(cost.candidates)));
    Ok(fields)
}

/// The part of a response that must not change between runs or commits:
/// the answer, verdict, interrupting resource and sorted model set of a
/// read; the answer and database size of a load. Costs and timings are
/// left out. Works on a served response and on [`execute`]'s fields.
pub fn canonical(response: &Json) -> String {
    if response.get("ok").and_then(Json::as_bool) == Some(false) {
        let error = response.get("error").map(Json::render).unwrap_or_default();
        return format!("error {error}");
    }
    let text = |key: &str| response.get(key).map(Json::render).unwrap_or_default();
    let mut models: Vec<String> = response
        .get("models")
        .and_then(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .map(|m| {
            let mut atoms: Vec<&str> = m
                .as_arr()
                .unwrap_or_default()
                .iter()
                .filter_map(Json::as_str)
                .collect();
            atoms.sort_unstable();
            atoms.join(",")
        })
        .collect();
    models.sort();
    format!(
        "{}|{}|{}|{}|{}|{}",
        text("answer"),
        text("verdict"),
        text("resource"),
        models.join(";"),
        text("atoms"),
        text("rules")
    )
}

/// Registry counters tallied per reference answer. Routing and solving
/// are deterministic, so per-request counts weighted by the frames served
/// repeat exactly, whatever the timing of the run.
pub const COUNTED: [&str; 10] = [
    "route.horn",
    "route.hcf",
    "route.magic",
    "route.magic.blocked",
    "route.slice",
    "route.split",
    "route.islands",
    "route.generic",
    "sat.solves",
    "sat.conflicts",
];

/// A frame's reference outcome.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Reference {
    /// [`canonical`] form of the answer.
    pub canonical: String,
    /// `Cost.sat_calls` of the answer (0 for loads).
    pub sat_calls: u64,
    /// `Cost.candidates` of the answer (0 for loads).
    pub candidates: u64,
    /// Gains of the [`COUNTED`] counters while answering.
    pub counters: [u64; COUNTED.len()],
    /// CEGAR rounds (`cegar.round.ns` observations) while answering.
    pub cegar_rounds: u64,
}

/// Answers pool frames in-process, parsing each source once.
pub struct Oracle<'a> {
    w: &'a Workload,
    routing: RoutingMode,
    parsed: HashMap<usize, Arc<Database>>,
}

impl<'a> Oracle<'a> {
    /// An oracle for `w`'s frames with the given routing.
    pub fn new(w: &'a Workload, routing: RoutingMode) -> Oracle<'a> {
        Oracle {
            w,
            routing,
            parsed: HashMap::new(),
        }
    }

    /// Pool frame `frame` answered against source `source` (served under
    /// that source's name). Nothing else may run in the process meanwhile:
    /// the counter gains are read from the process-wide registry.
    pub fn answer(&mut self, frame: usize, source: usize) -> Result<Reference, String> {
        let (w, line) = (self.w, &self.w.pool[frame].line);
        let s = &w.sources[source];
        let db = self
            .parsed
            .entry(source)
            .or_insert_with(|| Arc::new(crate::workload::parse(&s.text)))
            .clone();
        let mut dbs = Dbs::from([(s.name.clone(), db)]);
        let before = Obs::now();
        let fields = execute(line, &mut dbs, self.routing, &mut Spans::new(false), 0)
            .map_err(|e| format!("{line}: {e}"))?;
        let after = Obs::now();
        Ok(Reference {
            sat_calls: field_u64(&fields, "sat_calls"),
            candidates: field_u64(&fields, "candidates"),
            counters: COUNTED.map(|name| after.counter(&before, name)),
            cegar_rounds: after.hist(&before, "cegar.round.ns").0,
            canonical: canonical(&Json::obj(fields)),
        })
    }
}

/// Answers every pool frame in-process against the database its
/// [`crate::workload::Frame::source`] names, with the given routing.
pub fn reference(w: &Workload, routing: RoutingMode) -> Result<Vec<Reference>, String> {
    let mut oracle = Oracle::new(w, routing);
    (0..w.pool.len())
        .map(|i| oracle.answer(i, w.pool[i].source))
        .collect()
}

/// 64-bit FNV-1a over every pool frame and its canonical answer, in pool
/// order: one hex string that changes when any answer does.
pub fn digest(w: &Workload, refs: &[Reference]) -> String {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for (frame, r) in w.pool.iter().zip(refs) {
        for b in frame
            .line
            .bytes()
            .chain([b'\t'])
            .chain(r.canonical.bytes())
            .chain([b'\n'])
        {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// What a traced or untraced replay measured.
pub struct Replay {
    /// Wall time of the request frames (the catalog loads excluded).
    pub elapsed: Duration,
    /// Request frames replayed.
    pub frames: usize,
    /// Of those, reads.
    pub reads: usize,
    /// Loads: the catalog's, the tenants' and the writes among the frames.
    pub loads: usize,
    /// Ground rules over all loads.
    pub ground_rules: u64,
    /// The recorded spans (empty when replayed untraced).
    pub spans: Spans,
}

/// Replays `w` in-process on one thread: the catalog and tenant loads,
/// then the clients' passes interleaved frame by frame and cycled, until
/// `limit` frames or, with spans on, `budget` of wall time.
pub fn replay(w: &Workload, spans_on: bool, budget: Duration, limit: usize) -> Replay {
    let mut spans = Spans::new(spans_on);
    let mut dbs = Dbs::new();
    let mut ground_rules = 0;
    let mut loads = 0;
    let setup_req = u32::MAX;
    for &s in w.catalog.iter().chain(&w.tenants) {
        let source = &w.sources[s];
        let start = spans.now();
        let fields = load(
            &source.name,
            &source.text,
            None,
            &mut dbs,
            &mut spans,
            setup_req,
        )
        .expect("catalog sources load");
        spans.close("catalog.load", setup_req, start);
        ground_rules += field_u64(&fields, "rules");
        loads += 1;
    }
    let cycles = if w.clients.iter().any(|c| !c.is_empty()) {
        usize::MAX
    } else {
        0
    };
    let order = (0..cycles).flat_map(|i| {
        w.clients
            .iter()
            .filter(|c| !c.is_empty())
            .map(move |c| c[i % c.len()])
    });
    let (mut frames, mut reads) = (0, 0);
    let started = Instant::now();
    for (req, i) in order.enumerate() {
        if frames >= limit || (spans_on && started.elapsed() >= budget) {
            break;
        }
        let frame = &w.pool[i];
        let fields = execute(
            &frame.line,
            &mut dbs,
            RoutingMode::Auto,
            &mut spans,
            req as u32,
        )
        .expect("replayed frames succeed");
        frames += 1;
        match frame.kind {
            Kind::Read => reads += 1,
            Kind::Write => {
                loads += 1;
                ground_rules += field_u64(&fields, "rules");
            }
        }
    }
    Replay {
        elapsed: started.elapsed(),
        frames,
        reads,
        loads,
        ground_rules,
        spans,
    }
}

/// A count among response fields; 0 when absent.
fn field_u64(fields: &Fields, key: &str) -> u64 {
    fields
        .iter()
        .find(|(k, _)| *k == key)
        .and_then(|(_, v)| v.as_u64())
        .unwrap_or(0)
}
