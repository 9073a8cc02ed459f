//! The one executor for the paper's three problems: a `query`, `exists`
//! or `models` [`Request`] answered against a [`Prepared`] database. The
//! server calls it on a catalog entry; `ddb query`/`exists`/`models` call
//! it on the database they loaded. Both print through the same response
//! fields, so a served answer and a local one are the same bytes.

use crate::protocol::{Op, Request, WireError};
use ddb_core::{witness, Prepared, SemanticsConfig, SemanticsId, Verdict};
use ddb_logic::parse::{parse_literal, parse_query};
use ddb_logic::{Database, Formula};
use ddb_models::{Cost, Partition};
use ddb_obs::json::Json;
use ddb_obs::Interrupted;

/// The answer line of a decision, as printed on stdout and carried in
/// the wire `answer` field.
pub fn verdict_text(op: Op, brave: bool, verdict: Option<bool>) -> &'static str {
    match (op, brave, verdict) {
        (_, _, None) => "unknown",
        (Op::Exists, _, Some(true)) => "has a model",
        (Op::Exists, _, Some(false)) => "no model",
        (_, true, Some(true)) => "bravely inferred (holds in some model)",
        (_, true, Some(false)) => "not bravely inferred",
        (_, false, Some(true)) => "inferred",
        (_, false, Some(false)) => "not inferred",
    }
}

/// The response fields describing an interruption: `resource` (null on a
/// complete run), plus `checkpoint` and `partial` when the budget tripped.
pub fn interrupt_fields(interrupted: Option<&Interrupted>) -> Vec<(&'static str, Json)> {
    match interrupted {
        None => vec![("resource", Json::Null)],
        Some(i) => {
            let mut fields = vec![
                ("resource", Json::Str(i.resource.label().to_owned())),
                ("checkpoint", Json::UInt(i.checkpoint)),
            ];
            if let Some(p) = &i.partial {
                fields.push(("partial", Json::Str(p.clone())));
            }
            fields
        }
    }
}

/// The response fields of a decision: its `answer` line, the `verdict`
/// (null when unknown) and the [`interrupt_fields`].
pub fn verdict_fields(answer: impl Into<String>, verdict: &Verdict) -> Vec<(&'static str, Json)> {
    let mut fields = vec![
        ("answer", Json::Str(answer.into())),
        ("verdict", verdict.as_bool().map_or(Json::Null, Json::Bool)),
    ];
    fields.extend(interrupt_fields(verdict.interrupted()));
    fields
}

/// The semantics configuration a request names: its semantics and its
/// CCWA/ECWA partition. `cwa` is CLI-only and rejected here.
pub fn semantics_config(request: &Request, db: &Database) -> Result<SemanticsConfig, WireError> {
    let name = request
        .semantics
        .as_deref()
        .ok_or_else(|| WireError::usage("missing field `semantics`"))?;
    if name.eq_ignore_ascii_case("cwa") {
        return Err(WireError::usage(
            "semantics `cwa` is not served; use one of the ten paper semantics",
        ));
    }
    let mut cfg = SemanticsConfig::new(SemanticsId::from_name(name).map_err(WireError::usage)?);
    if !request.partition_p.is_empty() || !request.partition_q.is_empty() {
        let collect = |names: &[String]| -> Result<Vec<ddb_logic::Atom>, WireError> {
            names
                .iter()
                .map(|n| {
                    db.symbols()
                        .lookup(n)
                        .ok_or_else(|| WireError::usage(format!("unknown partition atom `{n}`")))
                })
                .collect()
        };
        let p = collect(&request.partition_p)?;
        let q = collect(&request.partition_q)?;
        cfg = cfg.with_partition(Partition::from_p_q(db.num_atoms(), p, q));
    }
    Ok(cfg)
}

/// The query a request asks: its `formula` (see [`parse_query`]) or its
/// `literal`, exactly one of them.
pub fn query_formula(request: &Request, db: &Database) -> Result<Formula, WireError> {
    match (request.formula.as_deref(), request.literal.as_deref()) {
        (Some(f), None) => {
            parse_query(f, db.symbols()).map_err(|e| WireError::usage(e.to_string()))
        }
        (None, Some(l)) => {
            let lit = parse_literal(l, db.symbols()).map_err(WireError::usage)?;
            Ok(lit.into())
        }
        _ => Err(WireError::usage(
            "need exactly one of `formula` / `literal`",
        )),
    }
}

/// Answers a `query`/`models`/`exists` request under the installed
/// budget. The fields, in order: `answer` (the CLI's stdout line), the
/// op's result (`verdict`, or `count`/`complete`/`models`), the
/// [`interrupt_fields`], and the oracle bill `sat_calls`/`candidates`.
pub fn answer_request(
    request: &Request,
    prepared: &Prepared<'_>,
) -> Result<Vec<(&'static str, Json)>, WireError> {
    let db = prepared.db();
    let cfg = semantics_config(request, db)?;
    let unsupported = |e: ddb_core::Unsupported| WireError::usage(e.to_string());
    let mut cost = Cost::new();
    let mut fields = match request.op {
        Op::Query | Op::Exists => {
            let verdict = if request.op == Op::Exists {
                cfg.has_model(prepared, &mut cost)
            } else {
                let formula = query_formula(request, db)?;
                if request.brave {
                    witness::brave_infers_formula(&cfg, prepared, &formula, &mut cost)
                } else {
                    cfg.infers_formula(prepared, &formula, &mut cost)
                }
            }
            .map_err(unsupported)?;
            verdict_fields(
                verdict_text(request.op, request.brave, verdict.as_bool()),
                &verdict,
            )
        }
        Op::Models => {
            let enumeration = cfg.models(prepared, &mut cost).map_err(unsupported)?;
            let answer = if enumeration.is_complete() {
                format!("{} model(s) under {}:", enumeration.len(), cfg.id)
            } else {
                format!(
                    "{} model(s) under {} (incomplete — budget exhausted):",
                    enumeration.len(),
                    cfg.id
                )
            };
            let models: Vec<Json> = enumeration
                .iter()
                .map(|m| {
                    Json::Arr(
                        m.iter()
                            .map(|a| Json::Str(db.symbols().name(a).to_owned()))
                            .collect(),
                    )
                })
                .collect();
            let mut fields = vec![
                ("answer", Json::Str(answer)),
                ("count", Json::UInt(models.len() as u64)),
                ("complete", Json::Bool(enumeration.is_complete())),
                ("models", Json::Arr(models)),
            ];
            fields.extend(interrupt_fields(enumeration.interrupted.as_ref()));
            fields
        }
        other => {
            let op = other.name();
            return Err(WireError::usage(format!("op `{op}` is not a query")));
        }
    };
    fields.push(("sat_calls", Json::UInt(cost.sat_calls)));
    fields.push(("candidates", Json::UInt(cost.candidates)));
    Ok(fields)
}
