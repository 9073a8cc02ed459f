//! Seeded fuzz loop over the wire-frame parser (the serving counterpart
//! of the repo's `tests/parser_fuzz.rs`): 500 deterministic mutations per
//! round against `parse_request`, requiring that no input panics, every
//! rejection is a typed `parse`/`usage` error, and the error frame the
//! server would write back is itself well-formed JSON. A failure names
//! the seed and round, so it replays exactly.

use ddb_logic::rng::XorShift64Star;
use ddb_obs::json;
use ddb_serve::protocol::{error_frame, parse_request, ErrorKind};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Valid frames as mutation seeds — one per op class, plus edge shapes.
fn seed_frames() -> Vec<String> {
    vec![
        r#"{"id":1,"op":"query","db":"vase","semantics":"gcwa","formula":"-treat","brave":true,"limits":{"timeout_ms":500,"max_oracle_calls":10,"max_conflicts":3,"max_models":7,"fail_after":2}}"#.to_owned(),
        r#"{"id":"s-1","op":"models","db":"layers","semantics":"pdsm","partition_p":["a","b"],"partition_q":["c"]}"#.to_owned(),
        r#"{"op":"exists","db":"vase","semantics":"dsm"}"#.to_owned(),
        r#"{"op":"load","db":"new","source":"a | b. c :- a.","datalog":false}"#.to_owned(),
        r#"{"op":"cancel","target":"s-1"}"#.to_owned(),
        r#"{"op":"ping"}"#.to_owned(),
        r#"{"op":"stats"}"#.to_owned(),
        r#"{"op":"shutdown"}"#.to_owned(),
        r#"{}"#.to_owned(),
        r#"[1,2,3]"#.to_owned(),
        r#""just a string""#.to_owned(),
        String::new(),
    ]
}

/// JSON-structure tokens; splicing these reaches grammar edges a uniform
/// byte flip rarely hits.
const TOKENS: &[&str] = &[
    "{",
    "}",
    "\"",
    ":",
    ",",
    "[",
    "]",
    "null",
    "true",
    "false",
    "-0",
    "1e309",
    "\\u0000",
    "\\",
    "op",
    "id",
    "limits",
    "1e-999",
    "\u{00e9}",
    " ",
    "[[[[[[[[",
    "{\"d\":{\"d\":{\"d\":",
];

fn mutate(rng: &mut XorShift64Star, seed: &str) -> String {
    let mut bytes = seed.as_bytes().to_vec();
    for _ in 0..=rng.gen_range(0, 4) {
        match rng.gen_range(0, 5) {
            0 if !bytes.is_empty() => {
                let i = rng.gen_range(0, bytes.len());
                bytes[i] = (rng.next_u64() & 0xFF) as u8;
            }
            1 if !bytes.is_empty() => {
                bytes.truncate(rng.gen_range(0, bytes.len()));
            }
            2 if !bytes.is_empty() => {
                let i = rng.gen_range(0, bytes.len());
                let j = rng.gen_range_inclusive(i, bytes.len());
                let slice = bytes[i..j].to_vec();
                bytes.extend_from_slice(&slice);
            }
            3 => {
                let tok = TOKENS[rng.gen_range(0, TOKENS.len())].as_bytes();
                let i = rng.gen_range_inclusive(0, bytes.len());
                bytes.splice(i..i, tok.iter().copied());
            }
            _ if bytes.len() >= 2 => {
                let i = rng.gen_range(0, bytes.len());
                let j = rng.gen_range(0, bytes.len());
                bytes.swap(i, j);
            }
            _ => {}
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

#[test]
fn wire_parser_never_panics_and_rejections_stay_typed() {
    let seeds = seed_frames();
    for round in 0..500u64 {
        let mut rng = XorShift64Star::seed_from_u64(0x5E4F_0000 + round);
        let seed = &seeds[rng.gen_range(0, seeds.len())];
        let mutant = mutate(&mut rng, seed);
        let outcome = catch_unwind(AssertUnwindSafe(|| parse_request(&mutant)));
        let result = match outcome {
            Ok(r) => r,
            Err(_) => panic!("parse_request panicked on round {round}; mutant:\n{mutant}"),
        };
        if let Err(rejected) = result {
            assert!(
                matches!(rejected.error.kind, ErrorKind::Parse | ErrorKind::Usage),
                "round {round}: rejection is `{}`, not parse/usage; mutant:\n{mutant}",
                rejected.error.kind.label()
            );
            // The frame the server would write back must itself be
            // well-formed JSON with the taxonomy fields in place.
            let frame = error_frame(rejected.id.as_ref(), &rejected.error);
            let doc = json::parse(&frame).unwrap_or_else(|e| {
                panic!("round {round}: error frame is not JSON ({e}):\n{frame}")
            });
            assert_eq!(
                doc.get("ok").and_then(json::Json::as_bool),
                Some(false),
                "round {round}: error frame missing ok:false:\n{frame}"
            );
            assert!(
                doc.get("error")
                    .and_then(|e| e.get("kind"))
                    .and_then(json::Json::as_str)
                    .is_some(),
                "round {round}: error frame missing error.kind:\n{frame}"
            );
        }
    }
}

#[test]
fn deeply_nested_frames_are_typed_parse_errors_not_aborts() {
    // A single 100KB frame of nesting — well under the 1MiB frame cap —
    // must come back as a typed `parse` rejection. Without the parser's
    // depth limit this is a stack overflow, which aborts the whole
    // process (catch_unwind cannot fence it), so this case is pinned
    // explicitly rather than left to the random mutator.
    let deep_arrays = "[".repeat(100_000);
    let deep_objects = "{\"a\":".repeat(100_000);
    let balanced = format!("{}1{}", "[".repeat(10_000), "]".repeat(10_000));
    let in_a_field = format!(
        "{{\"op\":\"query\",\"id\":{}1{}}}",
        "[".repeat(10_000),
        "]".repeat(10_000)
    );
    for frame in [deep_arrays, deep_objects, balanced, in_a_field] {
        let rejected = parse_request(&frame).unwrap_err();
        assert_eq!(rejected.error.kind, ErrorKind::Parse);
        let response = error_frame(rejected.id.as_ref(), &rejected.error);
        assert!(
            json::parse(&response).is_ok(),
            "error frame must stay well-formed"
        );
    }
}

#[test]
fn accepted_mutants_round_trip_their_ids() {
    // Any mutant the parser accepts must carry a consistent id: the
    // response frame built from it echoes the id (or null), and both
    // render as parseable JSON — the server's invariant that no accepted
    // frame can produce an unparseable response.
    let seeds = seed_frames();
    let mut accepted = 0u32;
    for round in 0..500u64 {
        let mut rng = XorShift64Star::seed_from_u64(0x5E4F_8000 + round);
        let seed = &seeds[rng.gen_range(0, seeds.len())];
        let mutant = mutate(&mut rng, seed);
        if let Ok(request) = parse_request(&mutant) {
            accepted += 1;
            let frame = ddb_serve::protocol::ok_frame(
                request.id.as_ref(),
                vec![("answer", json::Json::Str("ok".to_owned()))],
            );
            let doc = json::parse(&frame).unwrap_or_else(|e| {
                panic!("round {round}: response to accepted mutant is not JSON ({e}):\n{frame}")
            });
            assert_eq!(doc.get("ok").and_then(json::Json::as_bool), Some(true));
        }
    }
    assert!(accepted > 0, "mutator never produced a legal frame");
}
