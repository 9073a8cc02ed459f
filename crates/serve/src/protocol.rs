//! The wire protocol: newline-framed JSON over [`ddb_obs::json`].
//!
//! One request per line, one response line per request, in order. A frame
//! is a JSON object; the grammar is documented in `docs/SERVING.md`:
//!
//! ```text
//! {"op":"query","db":"vase","semantics":"gcwa","formula":"-treat",
//!  "id":1,"limits":{"timeout_ms":500,"max_oracle_calls":100}}
//! ```
//!
//! Every rejection is *typed* — the [`ErrorKind`] taxonomy maps onto the
//! CLI's exit-code contract (`parse`/`usage` ↔ exit 4, `resource` ↔ exit
//! 3) plus the server-only kinds `overloaded` (load shed; carries a
//! `retry_after_ms` hint) and `internal` (a caught panic: the connection
//! gets an answer and the process stays up). No client input path may
//! panic the server; the seeded wire fuzz test pins that.

use ddb_obs::json::{self, Json};
use ddb_obs::Budget;
use std::fmt;
use std::time::Duration;

/// The structured wire error taxonomy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorKind {
    /// The frame is not a JSON object (malformed JSON, not an object,
    /// or over the frame-size/framing limits the reader enforces).
    Parse,
    /// The frame is well-formed but the request is invalid: unknown op,
    /// unknown database or semantics, missing or ill-typed fields.
    Usage,
    /// A server-side resource bound other than the query budget: frame
    /// read timeout, or the server draining for shutdown. (A *query*
    /// budget trip is not an error — the query completes gracefully with
    /// an `unknown` answer and the tripped resource.)
    Resource,
    /// Load shed: admission queues are full. Carries a
    /// `retry_after_ms` hint; the request was not started.
    Overloaded,
    /// A caught panic inside request handling. The server stays up.
    Internal,
}

impl ErrorKind {
    /// The wire label (`"parse"`, `"usage"`, …).
    pub fn label(self) -> &'static str {
        match self {
            ErrorKind::Parse => "parse",
            ErrorKind::Usage => "usage",
            ErrorKind::Resource => "resource",
            ErrorKind::Overloaded => "overloaded",
            ErrorKind::Internal => "internal",
        }
    }
}

impl fmt::Display for ErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A typed wire-level error response body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireError {
    /// Taxonomy kind.
    pub kind: ErrorKind,
    /// Human-readable description.
    pub message: String,
    /// `Retry-After`-style hint in milliseconds (overload shedding).
    pub retry_after_ms: Option<u64>,
}

impl WireError {
    /// A `parse` error.
    pub fn parse(message: impl Into<String>) -> Self {
        WireError {
            kind: ErrorKind::Parse,
            message: message.into(),
            retry_after_ms: None,
        }
    }

    /// A `usage` error.
    pub fn usage(message: impl Into<String>) -> Self {
        WireError {
            kind: ErrorKind::Usage,
            message: message.into(),
            retry_after_ms: None,
        }
    }

    /// A `resource` error.
    pub fn resource(message: impl Into<String>) -> Self {
        WireError {
            kind: ErrorKind::Resource,
            message: message.into(),
            retry_after_ms: None,
        }
    }

    /// An `overloaded` (load-shed) error with a retry hint.
    pub fn overloaded(message: impl Into<String>, retry_after_ms: u64) -> Self {
        WireError {
            kind: ErrorKind::Overloaded,
            message: message.into(),
            retry_after_ms: Some(retry_after_ms),
        }
    }

    /// An `internal` error (caught panic).
    pub fn internal(message: impl Into<String>) -> Self {
        WireError {
            kind: ErrorKind::Internal,
            message: message.into(),
            retry_after_ms: None,
        }
    }

    /// Renders the error body as the wire `"error"` object.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("kind", Json::Str(self.kind.label().to_owned())),
            ("message", Json::Str(self.message.clone())),
        ];
        if let Some(ms) = self.retry_after_ms {
            fields.push(("retry_after_ms", Json::UInt(ms)));
        }
        Json::obj(fields)
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.kind, self.message)
    }
}

/// A rejected frame: the typed error plus the request `id` when the
/// frame was well-formed enough to carry one (so the response can still
/// be correlated by the client).
#[derive(Clone, Debug)]
pub struct RequestError {
    /// Echoed request id, when recoverable.
    pub id: Option<Json>,
    /// The typed rejection.
    pub error: WireError,
}

impl RequestError {
    fn bare(error: WireError) -> Self {
        RequestError { id: None, error }
    }
}

/// Request operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Liveness probe.
    Ping,
    /// List the named databases.
    Catalog,
    /// Observability snapshot: counters, histograms, uptime, sessions.
    Stats,
    /// Cautious (or brave) formula/literal inference.
    Query,
    /// Enumerate characteristic models.
    Models,
    /// The paper's model-existence problem.
    Exists,
    /// Ground a new database into the catalog (runs under the request
    /// budget — grounding is checkpointed).
    Load,
    /// Cooperatively cancel in-flight requests by their client id.
    Cancel,
    /// Graceful shutdown: stop accepting, trip in-flight budgets, drain.
    Shutdown,
}

impl Op {
    /// Parses a wire op name.
    pub fn from_name(name: &str) -> Option<Op> {
        Some(match name {
            "ping" => Op::Ping,
            "catalog" => Op::Catalog,
            "stats" => Op::Stats,
            "query" => Op::Query,
            "models" => Op::Models,
            "exists" => Op::Exists,
            "load" => Op::Load,
            "cancel" => Op::Cancel,
            "shutdown" => Op::Shutdown,
            _ => return None,
        })
    }

    /// The wire name.
    pub fn name(self) -> &'static str {
        match self {
            Op::Ping => "ping",
            Op::Catalog => "catalog",
            Op::Stats => "stats",
            Op::Query => "query",
            Op::Models => "models",
            Op::Exists => "exists",
            Op::Load => "load",
            Op::Cancel => "cancel",
            Op::Shutdown => "shutdown",
        }
    }
}

/// Client-declared resource limits, all optional. The effective budget of
/// a request is the server's defaults ∩ these limits ([`Budget::intersect`]):
/// clients can narrow the operator's bounds, never widen them.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Limits {
    /// Wall-clock deadline, relative, in milliseconds.
    pub timeout_ms: Option<u64>,
    /// NP-oracle (SAT solve) call cap.
    pub max_oracle_calls: Option<u64>,
    /// SAT conflict cap.
    pub max_conflicts: Option<u64>,
    /// Enumerated-model cap.
    pub max_models: Option<u64>,
    /// Deterministic fault injection at checkpoint index `n`.
    pub fail_after: Option<u64>,
}

impl Limits {
    /// The wire field names, in field order. Each CLI flag is its field
    /// name with `_` spelled `-` (`max_oracle_calls` ↔ `--max-oracle-calls`).
    pub const FIELDS: [&'static str; 5] = [
        "timeout_ms",
        "max_oracle_calls",
        "max_conflicts",
        "max_models",
        "fail_after",
    ];

    fn values(&self) -> [Option<u64>; 5] {
        [
            self.timeout_ms,
            self.max_oracle_calls,
            self.max_conflicts,
            self.max_models,
            self.fail_after,
        ]
    }

    fn slots(&mut self) -> [&mut Option<u64>; 5] {
        [
            &mut self.timeout_ms,
            &mut self.max_oracle_calls,
            &mut self.max_conflicts,
            &mut self.max_models,
            &mut self.fail_after,
        ]
    }

    /// Reads every limit through `get`, called once per name in
    /// [`Limits::FIELDS`] — the one table behind the wire `limits` object
    /// and the CLI's resource flags.
    pub fn read<E>(mut get: impl FnMut(&'static str) -> Result<Option<u64>, E>) -> Result<Self, E> {
        let mut limits = Limits::default();
        for (name, slot) in Limits::FIELDS.into_iter().zip(limits.slots()) {
            *slot = get(name)?;
        }
        Ok(limits)
    }

    /// The wire `limits` object: the set limits only.
    pub fn to_json(&self) -> Json {
        Json::obj(
            Limits::FIELDS
                .into_iter()
                .zip(self.values())
                .filter_map(|(name, v)| Some((name, Json::UInt(v?)))),
        )
    }

    /// The limits as a [`Budget`] (no cancel flag attached).
    pub fn to_budget(&self) -> Budget {
        let mut b = Budget::unlimited();
        if let Some(ms) = self.timeout_ms {
            b = b.with_timeout(Duration::from_millis(ms));
        }
        if let Some(n) = self.max_oracle_calls {
            b = b.with_max_oracle_calls(n);
        }
        if let Some(n) = self.max_conflicts {
            b = b.with_max_conflicts(n);
        }
        if let Some(n) = self.max_models {
            b = b.with_max_models(n);
        }
        if let Some(n) = self.fail_after {
            b = b.fail_after(n);
        }
        b
    }
}

/// One parsed request frame.
#[derive(Clone, Debug, PartialEq)]
pub struct Request {
    /// Client correlation id (echoed verbatim; string or number).
    pub id: Option<Json>,
    /// The operation.
    pub op: Op,
    /// Catalog database name (`query`/`models`/`exists`/`load`).
    pub db: Option<String>,
    /// Semantics name, CLI spelling (`gcwa` … `pdsm`).
    pub semantics: Option<String>,
    /// Query formula source.
    pub formula: Option<String>,
    /// Query literal (`atom` or `-atom`), alternative to `formula`.
    pub literal: Option<String>,
    /// Brave instead of cautious inference.
    pub brave: bool,
    /// Client resource limits.
    pub limits: Limits,
    /// `cancel`: the target request id (rendered form).
    pub target: Option<String>,
    /// `load`: program source text.
    pub source: Option<String>,
    /// `load`: force (`true`) or suppress (`false`) Datalog∨ parsing;
    /// absent means auto-detect.
    pub datalog: Option<bool>,
    /// `load`: explicitly allow replacing an existing (client-loaded)
    /// catalog entry. Operator-preloaded entries are never replaceable.
    pub overwrite: bool,
    /// CCWA/ECWA partition: atoms to minimize (P).
    pub partition_p: Vec<String>,
    /// CCWA/ECWA partition: fixed atoms (Q).
    pub partition_q: Vec<String>,
}

impl Request {
    /// The id in rendered form (registry key for cancellation).
    pub fn id_key(&self) -> Option<String> {
        self.id.as_ref().map(render_id)
    }

    /// The request as a wire frame object — the inverse of
    /// [`parse_request`]. Unset fields are omitted.
    pub fn to_json(&self) -> Json {
        let text = |v: &Option<String>| v.clone().map(Json::Str);
        let names = |v: &[String]| {
            (!v.is_empty()).then(|| Json::Arr(v.iter().cloned().map(Json::Str).collect()))
        };
        let fields = [
            ("op", Some(Json::Str(self.op.name().to_owned()))),
            ("id", self.id.clone()),
            ("db", text(&self.db)),
            ("semantics", text(&self.semantics)),
            ("formula", text(&self.formula)),
            ("literal", text(&self.literal)),
            ("brave", self.brave.then_some(Json::Bool(true))),
            (
                "limits",
                (self.limits != Limits::default()).then(|| self.limits.to_json()),
            ),
            ("target", text(&self.target)),
            ("source", text(&self.source)),
            ("datalog", self.datalog.map(Json::Bool)),
            ("overwrite", self.overwrite.then_some(Json::Bool(true))),
            ("partition_p", names(&self.partition_p)),
            ("partition_q", names(&self.partition_q)),
        ];
        Json::obj(fields.into_iter().filter_map(|(k, v)| Some((k, v?))))
    }
}

/// Canonical rendering of a request id for registry lookups: strings
/// render unquoted so `"id":"a"` and a `cancel` with `"target":"a"`
/// agree; everything else renders as its JSON text.
pub fn render_id(id: &Json) -> String {
    match id {
        Json::Str(s) => s.clone(),
        other => other.render(),
    }
}

fn field_str(obj: &Json, key: &str) -> Result<Option<String>, WireError> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(Json::Str(s)) => Ok(Some(s.clone())),
        Some(_) => Err(WireError::usage(format!("field `{key}` must be a string"))),
    }
}

fn field_u64(obj: &Json, key: &str) -> Result<Option<u64>, WireError> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_u64()
            .map(Some)
            .ok_or_else(|| WireError::usage(format!("field `{key}` must be an unsigned integer"))),
    }
}

fn field_bool(obj: &Json, key: &str) -> Result<Option<bool>, WireError> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(Json::Bool(b)) => Ok(Some(*b)),
        Some(_) => Err(WireError::usage(format!("field `{key}` must be a boolean"))),
    }
}

fn field_names(obj: &Json, key: &str) -> Result<Vec<String>, WireError> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(Vec::new()),
        Some(Json::Arr(items)) => items
            .iter()
            .map(|v| match v {
                Json::Str(s) => Ok(s.clone()),
                _ => Err(WireError::usage(format!(
                    "field `{key}` must be an array of atom names"
                ))),
            })
            .collect(),
        Some(_) => Err(WireError::usage(format!(
            "field `{key}` must be an array of atom names"
        ))),
    }
}

/// Parses one frame line into a [`Request`].
///
/// Malformed JSON (or a non-object frame) is a `parse` error; a
/// well-formed object with an unknown op or ill-typed fields is a
/// `usage` error carrying the frame's `id` when one was present. This
/// function never panics on any input — the seeded wire-fuzz test
/// (`tests/wire_fuzz.rs`) sweeps mutated frames through it.
pub fn parse_request(line: &str) -> Result<Request, RequestError> {
    let value =
        json::parse(line).map_err(|e| RequestError::bare(WireError::parse(e.to_string())))?;
    if !matches!(value, Json::Obj(_)) {
        return Err(RequestError::bare(WireError::parse(
            "frame must be a JSON object",
        )));
    }
    let id = value
        .get("id")
        .cloned()
        .filter(|v| !matches!(v, Json::Null));
    let fail = |error: WireError| RequestError {
        id: id.clone(),
        error,
    };
    let op_name = field_str(&value, "op")
        .map_err(&fail)?
        .ok_or_else(|| fail(WireError::usage("missing field `op`")))?;
    let op = Op::from_name(&op_name)
        .ok_or_else(|| fail(WireError::usage(format!("unknown op `{op_name}`"))))?;
    let limits = match value.get("limits") {
        None | Some(Json::Null) => Limits::default(),
        Some(l @ Json::Obj(_)) => Limits::read(|name| field_u64(l, name)).map_err(&fail)?,
        Some(_) => return Err(fail(WireError::usage("field `limits` must be an object"))),
    };
    let target = match value.get("target") {
        None | Some(Json::Null) => None,
        Some(v) => Some(render_id(v)),
    };
    let db = field_str(&value, "db").map_err(&fail)?;
    let semantics = field_str(&value, "semantics").map_err(&fail)?;
    let formula = field_str(&value, "formula").map_err(&fail)?;
    let literal = field_str(&value, "literal").map_err(&fail)?;
    let brave = field_bool(&value, "brave").map_err(&fail)?.unwrap_or(false);
    let source = field_str(&value, "source").map_err(&fail)?;
    let datalog = field_bool(&value, "datalog").map_err(&fail)?;
    let overwrite = field_bool(&value, "overwrite")
        .map_err(&fail)?
        .unwrap_or(false);
    let partition_p = field_names(&value, "partition_p").map_err(&fail)?;
    let partition_q = field_names(&value, "partition_q").map_err(&fail)?;
    Ok(Request {
        id,
        op,
        db,
        semantics,
        formula,
        literal,
        brave,
        limits,
        target,
        source,
        datalog,
        overwrite,
        partition_p,
        partition_q,
    })
}

/// Renders a success frame: `{"id":…,"ok":true,…fields}`.
pub fn ok_frame(id: Option<&Json>, fields: Vec<(&str, Json)>) -> String {
    let mut all = vec![
        ("id", id.cloned().unwrap_or(Json::Null)),
        ("ok", Json::Bool(true)),
    ];
    all.extend(fields);
    Json::obj(all).render()
}

/// Renders an error frame: `{"id":…,"ok":false,"error":{…}}`.
pub fn error_frame(id: Option<&Json>, error: &WireError) -> String {
    Json::obj([
        ("id", id.cloned().unwrap_or(Json::Null)),
        ("ok", Json::Bool(false)),
        ("error", error.to_json()),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_full_query_frame() {
        let req = parse_request(
            r#"{"id":7,"op":"query","db":"vase","semantics":"gcwa","formula":"-treat",
                "brave":false,
                "limits":{"timeout_ms":500,"max_oracle_calls":10,"fail_after":3}}"#,
        )
        .unwrap();
        assert_eq!(req.op, Op::Query);
        assert_eq!(req.db.as_deref(), Some("vase"));
        assert_eq!(req.semantics.as_deref(), Some("gcwa"));
        assert_eq!(req.formula.as_deref(), Some("-treat"));
        assert_eq!(req.limits.timeout_ms, Some(500));
        assert_eq!(req.limits.max_oracle_calls, Some(10));
        assert_eq!(req.limits.fail_after, Some(3));
        assert_eq!(req.id_key().as_deref(), Some("7"));
    }

    #[test]
    fn garbage_is_a_parse_error() {
        let err = parse_request("{nope").unwrap_err();
        assert_eq!(err.error.kind, ErrorKind::Parse);
        let err = parse_request("[1,2]").unwrap_err();
        assert_eq!(err.error.kind, ErrorKind::Parse);
    }

    #[test]
    fn unknown_op_is_usage_and_keeps_the_id() {
        let err = parse_request(r#"{"id":"x","op":"frobnicate"}"#).unwrap_err();
        assert_eq!(err.error.kind, ErrorKind::Usage);
        assert_eq!(err.id.as_ref().map(render_id).as_deref(), Some("x"));
    }

    #[test]
    fn ill_typed_fields_are_usage_errors() {
        for frame in [
            r#"{"op":5}"#,
            r#"{"op":"query","db":7}"#,
            r#"{"op":"query","limits":{"timeout_ms":"soon"}}"#,
            r#"{"op":"query","brave":"very"}"#,
            r#"{"op":"query","partition_p":[1]}"#,
        ] {
            let err = parse_request(frame).unwrap_err();
            assert_eq!(err.error.kind, ErrorKind::Usage, "{frame}");
        }
    }

    #[test]
    fn string_and_numeric_ids_share_a_key_space_with_targets() {
        let req = parse_request(r#"{"op":"cancel","target":"job-1"}"#).unwrap();
        assert_eq!(req.target.as_deref(), Some("job-1"));
        let req = parse_request(r#"{"op":"query","id":"job-1"}"#).unwrap();
        assert_eq!(req.id_key().as_deref(), Some("job-1"));
    }

    /// A seeded random request: every op, any subset of limits, optional
    /// partitions, `brave`, and a string, numeric or no `id`.
    fn random_request(rng: &mut ddb_logic::rng::XorShift64Star) -> Request {
        const OPS: [Op; 9] = [
            Op::Ping,
            Op::Catalog,
            Op::Stats,
            Op::Query,
            Op::Models,
            Op::Exists,
            Op::Load,
            Op::Cancel,
            Op::Shutdown,
        ];
        const TEXT: [&str; 5] = [
            "vase",
            "-treat",
            "a & (b | !c)",
            "path(a,b)",
            "q\"\\\u{e9}\n",
        ];
        let text = |rng: &mut ddb_logic::rng::XorShift64Star| {
            rng.gen_bool(0.5).then(|| (*rng.choose(&TEXT)).to_owned())
        };
        let names = |rng: &mut ddb_logic::rng::XorShift64Star| {
            (0..rng.gen_range(0, 3))
                .map(|i| format!("a{i}"))
                .collect::<Vec<_>>()
        };
        Request {
            id: match rng.gen_range(0, 3) {
                0 => None,
                1 => Some(Json::UInt(rng.next_u64())),
                _ => Some(Json::Str(format!("job-{}", rng.gen_range(0, 100)))),
            },
            op: *rng.choose(&OPS),
            db: text(rng),
            semantics: text(rng),
            formula: text(rng),
            literal: text(rng),
            brave: rng.gen_bool(0.5),
            limits: Limits::read(|_| Ok::<_, ()>(rng.gen_bool(0.5).then(|| rng.next_u64())))
                .unwrap(),
            target: text(rng),
            source: text(rng),
            datalog: rng.gen_bool(0.5).then(|| rng.gen_bool(0.5)),
            overwrite: rng.gen_bool(0.5),
            partition_p: names(rng),
            partition_q: names(rng),
        }
    }

    #[test]
    fn requests_roundtrip_through_to_json() {
        let mut rng = ddb_logic::rng::XorShift64Star::seed_from_u64(15);
        for round in 0..500 {
            let request = random_request(&mut rng);
            let frame = request.to_json().render();
            let back = parse_request(&frame)
                .unwrap_or_else(|e| panic!("round {round}: {frame} rejected: {}", e.error));
            assert_eq!(back, request, "round {round}: {frame}");
        }
    }

    #[test]
    fn every_limit_is_a_wire_key() {
        for (i, name) in Limits::FIELDS.into_iter().enumerate() {
            let req =
                parse_request(&format!(r#"{{"op":"query","limits":{{"{name}":7}}}}"#)).unwrap();
            let set: Vec<usize> = (0..5)
                .filter(|&j| req.limits.values()[j].is_some())
                .collect();
            assert_eq!(set, vec![i], "{name} sets exactly its own field");
            assert_eq!(req.limits.to_json().render(), format!(r#"{{"{name}":7}}"#));
            assert!(
                !req.limits.to_budget().is_unlimited(),
                "{name} bounds the budget"
            );
        }
    }

    #[test]
    fn frames_render_and_roundtrip() {
        let line = ok_frame(
            Some(&Json::UInt(3)),
            vec![("answer", Json::Str("pong".into()))],
        );
        let back = json::parse(&line).unwrap();
        assert_eq!(back.get("ok"), Some(&Json::Bool(true)));
        let line = error_frame(None, &WireError::overloaded("queue full", 250));
        let back = json::parse(&line).unwrap();
        let err = back.get("error").unwrap();
        assert_eq!(err.get("kind").and_then(Json::as_str), Some("overloaded"));
        assert_eq!(err.get("retry_after_ms").and_then(Json::as_u64), Some(250));
    }
}
