//! End-to-end robustness contract of the server: typed overload under a
//! full admission queue, budget precedence (server defaults ∩ client
//! limits), graceful shutdown with zero leaked sessions, and a full
//! in-process chaos run.

use ddb_obs::json::Json;
use ddb_serve::catalog::load_source;
use ddb_serve::chaos::Client;
use ddb_serve::{run_chaos, Catalog, ChaosConfig, Server, ServerConfig};
use ddb_workloads::structured::layered_disjunctive;
use std::time::{Duration, Instant};

const VASE: &str = "alice | bob. grounded :- alice. grounded :- bob. treat :- alice, bob.";

fn vase_catalog() -> Catalog {
    let mut catalog = Catalog::new();
    catalog.insert("vase", load_source(VASE, None, 1000).unwrap());
    catalog
}

fn vase_query(id: &str) -> String {
    Json::obj([
        ("id", Json::Str(id.to_owned())),
        ("op", Json::Str("query".to_owned())),
        ("db", Json::Str("vase".to_owned())),
        ("semantics", Json::Str("gcwa".to_owned())),
        ("formula", Json::Str("-treat".to_owned())),
    ])
    .render()
}

fn heavy_models(id: &str) -> String {
    Json::obj([
        ("id", Json::Str(id.to_owned())),
        ("op", Json::Str("models".to_owned())),
        ("db", Json::Str("heavy".to_owned())),
        ("semantics", Json::Str("gcwa".to_owned())),
    ])
    .render()
}

/// Acceptance: with worker capacity 1 and queue capacity 1, a burst of
/// hard queries gets exactly the typed degradation the taxonomy
/// promises — the excess is shed with `overloaded` + a retry hint well
/// inside the read-timeout bound, and the admitted requests still finish
/// with correct answers.
#[test]
fn overload_sheds_typed_and_admitted_requests_still_answer() {
    let mut catalog = vase_catalog();
    catalog.insert("heavy", layered_disjunctive(9, 4));
    let read_timeout = Duration::from_secs(30);
    let config = ServerConfig {
        workers: 1,
        queue: 1,
        read_timeout,
        ..ServerConfig::default()
    };
    let handle = Server::start(config, catalog).expect("server starts");
    let addr = handle.addr().to_string();
    let timeout = Duration::from_secs(60);

    // Occupy the single worker with an exponential enumeration.
    let mut occupant = Client::connect(&addr, timeout).unwrap();
    occupant.send_line(&heavy_models("occupant")).unwrap();
    // Wait on the stats op until the gate reads (busy, waiting).
    let mut probe = Client::connect(&addr, timeout).unwrap();
    let mut await_gate = |want_busy: u64, want_waiting: u64| {
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            assert!(Instant::now() < deadline, "gate never filled up");
            let stats = probe.call(r#"{"op":"stats"}"#).unwrap();
            let busy = stats.get("workers_busy").and_then(Json::as_u64);
            let waiting = stats.get("queue_waiting").and_then(Json::as_u64);
            if busy == Some(want_busy) && waiting == Some(want_waiting) {
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    };
    // The occupant must hold the worker before the waiter arrives:
    // otherwise the quick waiter can run first, and the burst then waits
    // out the read timeout behind the occupant instead of being shed.
    await_gate(1, 0);
    // Fill the one queue slot with a query that will eventually run.
    let waiter_addr = addr.clone();
    let waiter = std::thread::spawn(move || {
        let mut c = Client::connect(&waiter_addr, timeout).unwrap();
        c.call(&vase_query("waiter")).unwrap()
    });
    await_gate(1, 1);

    // The burst: with the worker busy and the queue full, excess hard
    // queries must shed immediately with the typed overload response.
    let mut shed_seen = 0;
    let burst_started = Instant::now();
    for i in 0..4 {
        let mut c = Client::connect(&addr, timeout).unwrap();
        let doc = c.call(&vase_query(&format!("burst{i}"))).unwrap();
        if doc.get("ok").and_then(Json::as_bool) == Some(false) {
            let error = doc.get("error").expect("error body");
            assert_eq!(
                error.get("kind").and_then(Json::as_str),
                Some("overloaded"),
                "shed response is not typed overloaded: {}",
                doc.render()
            );
            assert!(
                error.get("retry_after_ms").and_then(Json::as_u64).is_some(),
                "overloaded without a retry hint: {}",
                doc.render()
            );
            shed_seen += 1;
        }
    }
    let burst_elapsed = burst_started.elapsed();
    assert_eq!(shed_seen, 4, "queue capacity 1 shed only {shed_seen} of 4");
    assert!(
        burst_elapsed < read_timeout,
        "shedding took {burst_elapsed:?}, beyond the read-timeout bound"
    );

    // Free the worker; the queued waiter must then finish correctly.
    let doc = probe
        .call(r#"{"op":"cancel","target":"occupant"}"#)
        .unwrap();
    assert_eq!(doc.get("cancelled").and_then(Json::as_u64), Some(1));
    let waiter_doc = waiter.join().expect("waiter thread");
    assert_eq!(
        waiter_doc.get("answer").and_then(Json::as_str),
        Some("inferred"),
        "admitted request answered wrongly: {}",
        waiter_doc.render()
    );
    let occupant_line = occupant.recv_line().unwrap();
    assert!(
        occupant_line.contains("cancelled"),
        "occupant not cancelled: {occupant_line}"
    );

    handle.shutdown();
    let report = handle.join();
    assert_eq!(report.sessions_leaked, 0, "leaked sessions: {report}");
    assert!(
        report.shed >= 2,
        "drain report lost the shed count: {report}"
    );
}

/// Budget precedence: the effective budget is the intersection, so the
/// tighter side wins no matter which side it is.
#[test]
fn server_defaults_intersect_client_limits() {
    let config = ServerConfig {
        defaults: ddb_obs::Budget::unlimited().with_max_oracle_calls(2),
        ..ServerConfig::default()
    };
    let handle = Server::start(config, vase_catalog()).expect("server starts");
    let addr = handle.addr().to_string();
    let mut c = Client::connect(&addr, Duration::from_secs(30)).unwrap();

    // Client asks for more than the server allows: server's cap trips.
    let doc = c
        .call(r#"{"op":"query","db":"vase","semantics":"gcwa","formula":"-treat","limits":{"max_oracle_calls":1000}}"#)
        .unwrap();
    assert_eq!(doc.get("answer").and_then(Json::as_str), Some("unknown"));
    assert_eq!(
        doc.get("resource").and_then(Json::as_str),
        Some("oracle_calls"),
        "server-side cap did not win: {}",
        doc.render()
    );

    // Client asks for less than the server allows: client's cap trips
    // first (fault injection at checkpoint 1 beats the oracle cap).
    let doc = c
        .call(r#"{"op":"query","db":"vase","semantics":"gcwa","formula":"-treat","limits":{"fail_after":1}}"#)
        .unwrap();
    assert_eq!(
        doc.get("resource").and_then(Json::as_str),
        Some("fault_injection"),
        "client-side limit did not apply: {}",
        doc.render()
    );

    handle.shutdown();
    assert_eq!(handle.join().sessions_leaked, 0);
}

/// The full chaos harness, in-process: malformed frames, oversized
/// payloads, half-closes, disconnects, concurrent cancels, and the
/// fault-injection sweep, ending in a clean drain with no leaked
/// sessions.
#[test]
fn chaos_harness_passes_against_an_in_process_server() {
    let config = ServerConfig {
        read_timeout: Duration::from_secs(2),
        idle_timeout: Duration::from_secs(30),
        max_frame_bytes: 1 << 20,
        ..ServerConfig::default()
    };
    let handle = Server::start(config, vase_catalog()).expect("server starts");
    let chaos = ChaosConfig {
        addr: handle.addr().to_string(),
        rounds: 120,
        fail_after_max: 128,
        ..ChaosConfig::default()
    };
    let report = run_chaos(&chaos).expect("harness ran");
    assert!(report.ok(), "{}", report.render());
    assert!(report.checks > 100, "suspiciously few checks ran");
    handle.shutdown();
    let drain = handle.join();
    assert_eq!(drain.sessions_leaked, 0, "leaked sessions: {drain}");
}

/// Shutdown drains in-flight work: a long enumeration is tripped via its
/// cancel flag and answers gracefully before the server exits.
#[test]
fn shutdown_trips_inflight_queries_and_drains() {
    let mut catalog = vase_catalog();
    catalog.insert("heavy", layered_disjunctive(9, 4));
    let handle = Server::start(ServerConfig::default(), catalog).expect("server starts");
    let addr = handle.addr().to_string();
    let timeout = Duration::from_secs(60);

    let mut victim = Client::connect(&addr, timeout).unwrap();
    victim.send_line(&heavy_models("v")).unwrap();
    // Wait until it is registered in-flight, then shut down.
    let mut probe = Client::connect(&addr, timeout).unwrap();
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        assert!(Instant::now() < deadline, "victim never started");
        let stats = probe.call(r#"{"op":"stats"}"#).unwrap();
        if stats
            .get("active_sessions")
            .and_then(Json::as_u64)
            .unwrap_or(0)
            >= 2
        {
            std::thread::sleep(Duration::from_millis(100));
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    handle.shutdown();
    // The in-flight query answers gracefully (cancelled, incomplete)
    // rather than being dropped on the floor.
    let line = victim.recv_line().unwrap();
    assert!(
        line.contains("\"resource\":\"cancelled\"") || line.contains("model(s)"),
        "in-flight query neither finished nor degraded: {line}"
    );
    let report = handle.join();
    assert_eq!(report.sessions_leaked, 0, "leaked sessions: {report}");
}

/// The catalog's trust model over the wire: no client can replace an
/// operator-provisioned database, and replacing another client-loaded
/// entry needs an explicit `overwrite` flag.
#[test]
fn load_cannot_shadow_operator_databases_or_silently_overwrite() {
    let mut catalog = vase_catalog();
    catalog.protect_all();
    let handle = Server::start(ServerConfig::default(), catalog).expect("server starts");
    let addr = handle.addr().to_string();
    let mut c = Client::connect(&addr, Duration::from_secs(30)).unwrap();

    let load = |name: &str, source: &str, overwrite: bool| {
        let mut fields = vec![
            ("op", Json::Str("load".to_owned())),
            ("db", Json::Str(name.to_owned())),
            ("source", Json::Str(source.to_owned())),
            ("datalog", Json::Bool(false)),
        ];
        if overwrite {
            fields.push(("overwrite", Json::Bool(true)));
        }
        Json::obj(fields).render()
    };

    // Replacing the operator's `vase` is refused even with overwrite.
    for overwrite in [false, true] {
        let resp = c.call(&load("vase", "x.", overwrite)).unwrap();
        assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(false));
        let kind = resp
            .get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_owned();
        assert_eq!(kind, "usage", "expected usage rejection: {resp:?}");
    }
    // The operator database is untouched and still answers.
    let resp = c.call(&vase_query("q1")).unwrap();
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));

    // A fresh name loads fine; re-loading it needs the explicit flag.
    let resp = c.call(&load("tenant", "p | q.", false)).unwrap();
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));
    let resp = c.call(&load("tenant", "r.", false)).unwrap();
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(false));
    let resp = c.call(&load("tenant", "r.", true)).unwrap();
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));

    handle.shutdown();
    let report = handle.join();
    assert_eq!(report.sessions_leaked, 0, "leaked sessions: {report}");
}

/// A catalog entry's analysis memo belongs to one loaded version: after
/// an `overwrite`, queries answer from the new program, never from facts
/// the old one filled in. Filling the memo leaves the `catalog` listing
/// byte-identical.
#[test]
fn overwritten_entries_answer_from_the_new_program() {
    let handle = Server::start(ServerConfig::default(), Catalog::new()).expect("server starts");
    let addr = handle.addr().to_string();
    let mut c = Client::connect(&addr, Duration::from_secs(30)).unwrap();
    let load = |source: &str, overwrite: bool| {
        Json::obj([
            ("op", Json::Str("load".to_owned())),
            ("db", Json::Str("t".to_owned())),
            ("source", Json::Str(source.to_owned())),
            ("overwrite", Json::Bool(overwrite)),
        ])
        .render()
    };
    let ask = |c: &mut Client, op: &str, semantics: &str, literal: Option<&str>| {
        let mut fields = vec![
            ("op", Json::Str(op.to_owned())),
            ("db", Json::Str("t".to_owned())),
            ("semantics", Json::Str(semantics.to_owned())),
        ];
        if let Some(l) = literal {
            fields.push(("literal", Json::Str(l.to_owned())));
        }
        let resp = c.call(&Json::obj(fields).render()).unwrap();
        assert_eq!(
            resp.get("ok").and_then(Json::as_bool),
            Some(true),
            "{resp:?}"
        );
        resp.get("answer")
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_owned()
    };
    // (first program, second program, op, literal, first answer, second answer):
    // a Horn pair (least model and consistency from the memo) and a
    // disjunctive pair (fragments, peel and islands from the memo).
    let cases = [
        (
            "a. b :- a.",
            "a. b :- c.",
            "query",
            Some("b"),
            "inferred",
            "not inferred",
        ),
        (
            "a. b :- a.",
            "a. b :- a. :- b.",
            "exists",
            None,
            "has a model",
            "no model",
        ),
        (
            "x | y. z :- x. z :- y. w.",
            "x | y. z :- x. w.",
            "query",
            Some("z"),
            "inferred",
            "not inferred",
        ),
        (
            "x | y. w.",
            "x | y. w. :- x. :- y.",
            "exists",
            None,
            "has a model",
            "no model",
        ),
    ];
    for (i, (first, second, op, literal, before, after)) in cases.into_iter().enumerate() {
        let resp = c.call(&load(first, i > 0)).unwrap();
        assert_eq!(
            resp.get("ok").and_then(Json::as_bool),
            Some(true),
            "{resp:?}"
        );
        let listing = c.call(r#"{"op":"catalog"}"#).unwrap().render();
        for semantics in ["gcwa", "dsm", "perf"] {
            assert_eq!(
                ask(&mut c, op, semantics, literal),
                before,
                "case {i} {semantics}"
            );
        }
        let filled = c.call(r#"{"op":"catalog"}"#).unwrap().render();
        assert_eq!(
            filled, listing,
            "case {i}: the memo must not show in the listing"
        );
        let resp = c.call(&load(second, true)).unwrap();
        assert_eq!(
            resp.get("ok").and_then(Json::as_bool),
            Some(true),
            "{resp:?}"
        );
        for semantics in ["gcwa", "dsm", "perf"] {
            assert_eq!(
                ask(&mut c, op, semantics, literal),
                after,
                "case {i} {semantics}"
            );
        }
    }
    handle.shutdown();
    let report = handle.join();
    assert_eq!(report.sessions_leaked, 0, "leaked sessions: {report}");
}

/// The slowloris guard covers pipelined partial frames: bytes left in
/// the buffer after a complete frame start the frame clock, so a
/// trickled tail is cut off by the read timeout, not the (much longer)
/// idle timeout.
#[test]
fn partial_frame_after_a_pipelined_request_hits_the_read_timeout() {
    let config = ServerConfig {
        read_timeout: Duration::from_millis(300),
        idle_timeout: Duration::from_secs(120),
        ..ServerConfig::default()
    };
    let handle = Server::start(config, vase_catalog()).expect("server starts");
    let addr = handle.addr().to_string();
    let mut c = Client::connect(&addr, Duration::from_secs(30)).unwrap();

    // One write: a complete ping frame plus the start of a second frame
    // that never finishes.
    c.send_line(r#"{"op":"ping"}"#).unwrap();
    c.send_line(r#"{"op":"ping"}"#).unwrap();
    let started = Instant::now();
    c.send_raw(br#"{"op":"#).unwrap();
    let first = c.recv_line().unwrap();
    assert!(
        first.contains("pong"),
        "first pipelined frame answered: {first}"
    );
    let second = c.recv_line().unwrap();
    assert!(
        second.contains("pong"),
        "second pipelined frame answered: {second}"
    );
    // The dangling tail must be rejected within the read-timeout bound.
    let line = c.recv_line().unwrap();
    assert!(
        line.contains("frame read timed out"),
        "expected the read-timeout rejection, got: {line}"
    );
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "read timeout took implausibly long"
    );

    handle.shutdown();
    let report = handle.join();
    assert_eq!(report.sessions_leaked, 0, "leaked sessions: {report}");
}

/// The server reads no `threads` field: a frame that carries one, at any
/// value, gets the same answer as the same frame without it.
#[test]
fn a_threads_field_does_not_change_the_answer() {
    let handle = Server::start(ServerConfig::default(), vase_catalog()).expect("server starts");
    let addr = handle.addr().to_string();
    let mut c = Client::connect(&addr, Duration::from_secs(30)).unwrap();
    // `wall_ms` is the one field that depends on the clock.
    let mut answer = |frame: String| match c.call(&frame).unwrap() {
        Json::Obj(fields) => {
            Json::Obj(fields.into_iter().filter(|(k, _)| k != "wall_ms").collect())
        }
        other => panic!("not an object: {}", other.render()),
    };
    for (op, query) in [
        ("query", r#","formula":"-treat""#),
        ("exists", ""),
        ("models", ""),
    ] {
        let frame = |extra: &str| {
            format!(r#"{{"id":1,"op":"{op}","db":"vase","semantics":"gcwa"{query}{extra}}}"#)
        };
        let plain = answer(frame(""));
        assert_eq!(
            plain.get("ok").and_then(Json::as_bool),
            Some(true),
            "{}",
            plain.render()
        );
        for extra in [r#","threads":2"#, r#","threads":0"#] {
            let with = answer(frame(extra));
            assert_eq!(with, plain, "{op} with {extra}");
        }
    }
    handle.shutdown();
    assert_eq!(handle.join().sessions_leaked, 0);
}
