//! The `ddb serve` daemon: a zero-dependency TCP server (std
//! `TcpListener` + threads) speaking the newline-framed JSON protocol of
//! [`crate::protocol`].
//!
//! Robustness is the design driver:
//!
//! * **Admission control** — concurrent sessions are capped
//!   ([`ServerConfig::max_sessions`]); query execution goes through a
//!   bounded gate of [`ServerConfig::workers`] permits plus
//!   [`ServerConfig::queue`] waiters. Excess load is *shed* with a typed
//!   `overloaded` response carrying a `Retry-After`-style hint — queues
//!   never grow without bound.
//! * **Budgets** — every query runs under the server's default
//!   [`Budget`] ∩ the client's declared limits, with a per-request
//!   cancel flag. Interrupted queries degrade gracefully to `unknown`
//!   with the tripped resource, mirroring the CLI's exit-3 contract.
//! * **Hostile clients** — per-connection read/write timeouts, a
//!   max-frame-size guard (slowloris, oversized payloads), and a
//!   `catch_unwind` fence per request: no client input panics the
//!   process.
//! * **Graceful shutdown** — a `shutdown` ctl request (or
//!   [`ServerHandle::shutdown`], e.g. wired to stdin-close by the CLI)
//!   stops the accept loop, trips every in-flight budget via its cancel
//!   flag, drains sessions, and reports what was served and shed.
//!
//! Each query is evaluated on its session's thread, under the budget that
//! session installed.

use crate::answer::answer_request;
use crate::catalog::{load_source, Catalog, LoadError, GROUNDING_LIMIT};
use crate::protocol::{error_frame, ok_frame, parse_request, Op, Request, WireError};
use ddb_core::Prepared;
use ddb_obs::json::Json;
use ddb_obs::{budget, Budget};

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tick granularity for blocking socket reads: sessions wake at least
/// this often to observe the stop flag and their frame/idle deadlines.
const TICK: Duration = Duration::from_millis(50);

/// Server tuning knobs. Defaults are conservative; the CLI maps
/// `ddb serve` flags onto these.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address (`host:port`; port 0 picks a free port).
    pub addr: String,
    /// Cap on concurrent connections; excess connections are shed at
    /// accept time with an `overloaded` response.
    pub max_sessions: usize,
    /// Concurrent query executions (gate permits).
    pub workers: usize,
    /// Queries allowed to *wait* for a permit; beyond this the gate
    /// sheds immediately.
    pub queue: usize,
    /// Per-frame read budget: a partial frame older than this is
    /// rejected (`resource`) and the connection closed. Also bounds how
    /// long a query waits at the admission gate.
    pub read_timeout: Duration,
    /// Socket write timeout.
    pub write_timeout: Duration,
    /// Idle connections (no partial frame) older than this are closed.
    pub idle_timeout: Duration,
    /// Maximum frame size in bytes; longer frames are rejected
    /// (`parse`) and the connection closed.
    pub max_frame_bytes: usize,
    /// `retry_after_ms` hint attached to `overloaded` responses.
    pub retry_after_ms: u64,
    /// Server-side default budget; the effective per-request budget is
    /// `defaults ∩ client limits` ([`Budget::intersect`]).
    pub defaults: Budget,
    /// Ground-rule limit for `load` requests.
    pub grounding_limit: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            max_sessions: 32,
            workers: 4,
            queue: 8,
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            idle_timeout: Duration::from_secs(60),
            max_frame_bytes: 1 << 20,
            retry_after_ms: 250,
            defaults: Budget::unlimited(),
            grounding_limit: GROUNDING_LIMIT,
        }
    }
}

/// What a drained server did over its lifetime.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DrainReport {
    /// Requests answered (any op, success or typed error).
    pub served: u64,
    /// Requests/connections shed with `overloaded`.
    pub shed: u64,
    /// Sessions joined during the drain.
    pub sessions_drained: usize,
    /// Sessions still registered after the drain — must be 0; a leak
    /// here is a bug the chaos tests assert against.
    pub sessions_leaked: usize,
}

impl std::fmt::Display for DrainReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "served {} request(s), shed {}, drained {} session(s), leaked {}",
            self.served, self.shed, self.sessions_drained, self.sessions_leaked
        )
    }
}

/// An in-flight, cancellable request.
struct Inflight {
    key: u64,
    client_id: Option<String>,
    flag: Arc<AtomicBool>,
}

struct Gate {
    running: usize,
    waiting: usize,
}

struct Shared {
    config: ServerConfig,
    catalog: RwLock<Catalog>,
    stop: AtomicBool,
    active_sessions: AtomicUsize,
    served: AtomicU64,
    shed: AtomicU64,
    gate: Mutex<Gate>,
    gate_cv: Condvar,
    inflight: Mutex<Vec<Inflight>>,
    next_key: AtomicU64,
    started: Instant,
}

impl Shared {
    fn initiate_shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake gate waiters so they fail fast with a typed response…
        self.gate_cv.notify_all();
        // …and trip every in-flight budget: running queries observe the
        // cancel flag at their next checkpoint and degrade to `unknown`.
        let inflight = lock(&self.inflight);
        for entry in inflight.iter() {
            entry.flag.store(true, Ordering::SeqCst);
        }
    }
}

/// Mutex lock that shrugs off poisoning: session panics are already
/// fenced by `catch_unwind`, and every structure guarded here stays
/// valid under early exits.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// The server factory.
pub struct Server;

impl Server {
    /// Binds, spawns the accept loop, and returns a handle. The handle's
    /// [`ServerHandle::join`] blocks until shutdown and returns the
    /// drain report.
    pub fn start(config: ServerConfig, catalog: Catalog) -> Result<ServerHandle, String> {
        let listener =
            TcpListener::bind(&config.addr).map_err(|e| format!("binding {}: {e}", config.addr))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| format!("nonblocking listener: {e}"))?;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("local_addr: {e}"))?;
        let shared = Arc::new(Shared {
            config,
            catalog: RwLock::new(catalog),
            stop: AtomicBool::new(false),
            active_sessions: AtomicUsize::new(0),
            served: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            gate: Mutex::new(Gate {
                running: 0,
                waiting: 0,
            }),
            gate_cv: Condvar::new(),
            inflight: Mutex::new(Vec::new()),
            next_key: AtomicU64::new(1),
            started: Instant::now(),
        });
        let sessions: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let accept_shared = shared.clone();
        let accept_sessions = sessions.clone();
        let listener_thread = std::thread::Builder::new()
            .name("ddb-serve-accept".to_owned())
            .spawn(move || accept_loop(listener, accept_shared, accept_sessions))
            .map_err(|e| format!("spawning accept loop: {e}"))?;
        Ok(ServerHandle {
            addr,
            shared,
            listener_thread,
            sessions,
        })
    }
}

/// A running server. Dropping the handle without [`ServerHandle::join`]
/// detaches the server (it keeps running until process exit).
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    listener_thread: JoinHandle<()>,
    sessions: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Initiates graceful shutdown, exactly like the `shutdown` ctl op:
    /// stop accepting, trip in-flight budgets, let sessions drain.
    pub fn shutdown(&self) {
        self.shared.initiate_shutdown();
    }

    /// A cloneable shutdown signal that outlives the borrow of the
    /// handle — hand it to a watcher thread (the CLI's
    /// `--drain-on-stdin-close`) while [`ServerHandle::join`] blocks.
    pub fn shutdown_trigger(&self) -> ShutdownTrigger {
        ShutdownTrigger(self.shared.clone())
    }

    /// Blocks until the server has fully drained (accept loop exited,
    /// every session joined) and returns the drain report. Flushes this
    /// thread's recorder so `serve.*` counters are visible to the caller.
    pub fn join(self) -> DrainReport {
        let _ = self.listener_thread.join();
        let mut drained = 0usize;
        loop {
            let batch: Vec<JoinHandle<()>> = std::mem::take(&mut *lock(&self.sessions));
            if batch.is_empty() {
                break;
            }
            for handle in batch {
                let _ = handle.join();
                drained += 1;
            }
        }
        ddb_obs::flush();
        DrainReport {
            served: self.shared.served.load(Ordering::SeqCst),
            shed: self.shared.shed.load(Ordering::SeqCst),
            sessions_drained: drained,
            sessions_leaked: self.shared.active_sessions.load(Ordering::SeqCst),
        }
    }
}

/// A detached, cloneable graceful-shutdown signal (see
/// [`ServerHandle::shutdown_trigger`]).
#[derive(Clone)]
pub struct ShutdownTrigger(Arc<Shared>);

impl ShutdownTrigger {
    /// Initiates the same drain as the `shutdown` ctl op.
    pub fn shutdown(&self) {
        self.0.initiate_shutdown();
    }
}

/// Accept loop: admission control at the connection level, then hand
/// each admitted connection its own session thread.
fn accept_loop(
    listener: TcpListener,
    shared: Arc<Shared>,
    sessions: Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    let mut reap_tick = 0u32;
    let mut accepted = 0u32;
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                // Reap finished session handles on the accept path too: a
                // sustained connection flood keeps accept() hot, so the
                // idle-branch reaper below may never run, and unjoined
                // threads would otherwise accumulate their stacks exactly
                // under the hostile load the server is built to shed.
                accepted += 1;
                if accepted.is_multiple_of(64) {
                    lock(&sessions).retain(|h| !h.is_finished());
                }
                let active = shared.active_sessions.load(Ordering::SeqCst);
                if active >= shared.config.max_sessions {
                    shed_connection(&shared, stream, "session limit reached");
                    continue;
                }
                shared.active_sessions.fetch_add(1, Ordering::SeqCst);
                ddb_obs::counter_bump("serve.sessions", 1);
                ddb_obs::counter_bump_max("serve.active.peak", (active + 1) as u64);
                ddb_obs::flush();
                let session_shared = shared.clone();
                match std::thread::Builder::new()
                    .name("ddb-serve-session".to_owned())
                    .spawn(move || session_loop(stream, session_shared))
                {
                    Ok(handle) => lock(&sessions).push(handle),
                    Err(_) => {
                        // Spawn failure: undo the admission; the stream
                        // drops (connection reset) — still no leak.
                        shared.active_sessions.fetch_sub(1, Ordering::SeqCst);
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
                reap_tick += 1;
                if reap_tick.is_multiple_of(256) {
                    lock(&sessions).retain(|h| !h.is_finished());
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

/// Sheds a connection at accept time with a typed `overloaded` frame.
fn shed_connection(shared: &Shared, mut stream: TcpStream, why: &str) {
    shared.shed.fetch_add(1, Ordering::SeqCst);
    ddb_obs::counter_bump("serve.shed", 1);
    ddb_obs::flush();
    let frame = error_frame(
        None,
        &WireError::overloaded(why, shared.config.retry_after_ms),
    );
    let short = shared.config.write_timeout.min(Duration::from_millis(500));
    let _ = stream.set_write_timeout(Some(short));
    let _ = stream.write_all(frame.as_bytes());
    let _ = stream.write_all(b"\n");
}

/// RAII session accounting: decrements `active_sessions` on every exit
/// path (including panics), so the leak check in [`DrainReport`] is
/// trustworthy.
struct SessionTicket<'a>(&'a Shared);

impl Drop for SessionTicket<'_> {
    fn drop(&mut self) {
        self.0.active_sessions.fetch_sub(1, Ordering::SeqCst);
    }
}

/// One connection: read newline-delimited frames under the frame-size
/// and timing guards, answer each in order, close on EOF, fatal frame
/// violations, write failure, `shutdown`, or server stop.
fn session_loop(mut stream: TcpStream, shared: Arc<Shared>) {
    let _ticket = SessionTicket(&shared);
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(TICK));
    let _ = stream.set_write_timeout(Some(shared.config.write_timeout));
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    let mut frame_started: Option<Instant> = None;
    let mut idle_since = Instant::now();
    loop {
        // Drain complete frames already buffered.
        while let Some(pos) = buf.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = buf.drain(..=pos).collect();
            let line = String::from_utf8_lossy(&line[..line.len() - 1]).into_owned();
            frame_started = None;
            idle_since = Instant::now();
            if line.trim().is_empty() {
                continue;
            }
            match handle_frame(&shared, &line, &mut stream) {
                FrameOutcome::Continue => {}
                FrameOutcome::Close => return,
            }
        }
        // Any bytes left after the drain are a partial frame (pipelined
        // tail), so the frame clock must be running — otherwise a client
        // could trickle a frame forever, bypassing the read timeout and
        // bounded only by the much longer idle timeout.
        if frame_started.is_none() && !buf.is_empty() {
            frame_started = Some(Instant::now());
        }
        if buf.len() > shared.config.max_frame_bytes {
            let err = WireError::parse(format!(
                "frame exceeds {} bytes",
                shared.config.max_frame_bytes
            ));
            ddb_obs::counter_bump("serve.errors.parse", 1);
            ddb_obs::flush();
            let _ = write_line(&mut stream, &error_frame(None, &err));
            return;
        }
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        match stream.read(&mut chunk) {
            Ok(0) => return, // EOF (or half-close): client is done.
            Ok(n) => {
                if frame_started.is_none() {
                    frame_started = Some(Instant::now());
                }
                buf.extend_from_slice(&chunk[..n]);
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if let Some(t0) = frame_started {
                    if t0.elapsed() > shared.config.read_timeout {
                        let err = WireError::resource("frame read timed out");
                        let _ = write_line(&mut stream, &error_frame(None, &err));
                        return;
                    }
                } else if idle_since.elapsed() > shared.config.idle_timeout {
                    return;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
}

enum FrameOutcome {
    Continue,
    Close,
}

fn write_line(stream: &mut TcpStream, line: &str) -> std::io::Result<()> {
    stream.write_all(line.as_bytes())?;
    stream.write_all(b"\n")
}

/// Parses and answers one frame. Every path writes exactly one response
/// line; a failed write (mid-request disconnect) closes the session.
fn handle_frame(shared: &Arc<Shared>, line: &str, stream: &mut TcpStream) -> FrameOutcome {
    // Root span for the request: its depth-0 exit flushes this session
    // thread's recorder, so `stats` stays fresh and
    // `dispatch.query.ns` samples land attributed to this request.
    let _root = ddb_obs::hist_span("serve.request", "serve.request.ns");
    ddb_obs::counter_bump("serve.requests", 1);
    shared.served.fetch_add(1, Ordering::SeqCst);
    let (response, outcome) = match parse_request(line) {
        Err(rejected) => {
            match rejected.error.kind {
                crate::protocol::ErrorKind::Parse => ddb_obs::counter_bump("serve.errors.parse", 1),
                _ => ddb_obs::counter_bump("serve.errors.usage", 1),
            }
            (
                error_frame(rejected.id.as_ref(), &rejected.error),
                FrameOutcome::Continue,
            )
        }
        Ok(request) => execute(shared, request),
    };
    match write_line(stream, &response) {
        Ok(()) => outcome,
        Err(_) => {
            ddb_obs::counter_bump("serve.errors.write", 1);
            FrameOutcome::Close
        }
    }
}

/// Dispatches one parsed request.
fn execute(shared: &Arc<Shared>, request: Request) -> (String, FrameOutcome) {
    let id = request.id.clone();
    match request.op {
        Op::Ping => (
            ok_frame(
                id.as_ref(),
                vec![
                    ("answer", Json::Str("pong".to_owned())),
                    (
                        "uptime_ms",
                        Json::UInt(shared.started.elapsed().as_millis() as u64),
                    ),
                ],
            ),
            FrameOutcome::Continue,
        ),
        Op::Catalog => (
            catalog_response(shared, id.as_ref()),
            FrameOutcome::Continue,
        ),
        Op::Stats => (stats_response(shared, id.as_ref()), FrameOutcome::Continue),
        Op::Cancel => (cancel_response(shared, &request), FrameOutcome::Continue),
        Op::Shutdown => {
            let active = shared.active_sessions.load(Ordering::SeqCst);
            shared.initiate_shutdown();
            (
                ok_frame(
                    id.as_ref(),
                    vec![
                        ("answer", Json::Str("shutting down".to_owned())),
                        ("draining", Json::UInt(active.saturating_sub(1) as u64)),
                    ],
                ),
                FrameOutcome::Close,
            )
        }
        Op::Load => (
            governed_response(shared, request, run_load),
            FrameOutcome::Continue,
        ),
        Op::Query | Op::Models | Op::Exists => (
            governed_response(shared, request, run_query_class),
            FrameOutcome::Continue,
        ),
    }
}

fn catalog_response(shared: &Arc<Shared>, id: Option<&Json>) -> String {
    let catalog = shared.catalog.read().unwrap_or_else(|e| e.into_inner());
    let dbs: Vec<Json> = catalog
        .names()
        .into_iter()
        .map(|name| {
            let entry = catalog.get(&name).expect("name from listing");
            let db = entry.db();
            let sample: Vec<Json> = db
                .symbols()
                .atoms()
                .take(8)
                .map(|a| Json::Str(db.symbols().name(a).to_owned()))
                .collect();
            Json::obj([
                ("db", Json::Str(name)),
                ("atoms", Json::UInt(db.num_atoms() as u64)),
                ("rules", Json::UInt(db.rules().len() as u64)),
                ("sample_atoms", Json::Arr(sample)),
            ])
        })
        .collect();
    ok_frame(id, vec![("databases", Json::Arr(dbs))])
}

fn stats_response(shared: &Arc<Shared>, id: Option<&Json>) -> String {
    let counters = ddb_obs::snapshot();
    let hists = ddb_obs::hist_snapshot();
    let (running, waiting) = {
        let gate = lock(&shared.gate);
        (gate.running as u64, gate.waiting as u64)
    };
    ok_frame(
        id,
        vec![
            (
                "uptime_ms",
                Json::UInt(shared.started.elapsed().as_millis() as u64),
            ),
            (
                "active_sessions",
                Json::UInt(shared.active_sessions.load(Ordering::SeqCst) as u64),
            ),
            ("workers_busy", Json::UInt(running)),
            ("queue_waiting", Json::UInt(waiting)),
            ("served", Json::UInt(shared.served.load(Ordering::SeqCst))),
            ("shed", Json::UInt(shared.shed.load(Ordering::SeqCst))),
            ("counters", counters.to_json()),
            ("histograms", hists.to_json()),
        ],
    )
}

fn cancel_response(shared: &Arc<Shared>, request: &Request) -> String {
    let Some(target) = request.target.as_deref() else {
        return error_frame(
            request.id.as_ref(),
            &WireError::usage("cancel needs a `target` request id"),
        );
    };
    let mut tripped = 0u64;
    for entry in lock(&shared.inflight).iter() {
        if entry.client_id.as_deref() == Some(target) {
            entry.flag.store(true, Ordering::SeqCst);
            tripped += 1;
        }
    }
    ddb_obs::counter_bump("serve.cancelled", tripped);
    ok_frame(
        request.id.as_ref(),
        vec![("cancelled", Json::UInt(tripped))],
    )
}

/// Body of a governed op: the success fields, or a typed error.
type GovernedRun = fn(&Shared, &Request) -> Result<Vec<(&'static str, Json)>, WireError>;

/// Admission gate + budget + panic fence around the governed ops
/// (`query`/`models`/`exists`/`load`).
fn governed_response(shared: &Arc<Shared>, request: Request, run: GovernedRun) -> String {
    let id = request.id.clone();
    let _slot = match acquire_slot(shared) {
        Ok(slot) => slot,
        Err(e) => return error_frame(id.as_ref(), &e),
    };
    // Register the in-flight request for cancellation (by client id) and
    // for the shutdown sweep; the guard deregisters on every exit path.
    let flag = Arc::new(AtomicBool::new(false));
    let key = shared.next_key.fetch_add(1, Ordering::SeqCst);
    lock(&shared.inflight).push(Inflight {
        key,
        client_id: request.id_key(),
        flag: flag.clone(),
    });
    let _unregister = InflightGuard { shared, key };
    // Already draining? Trip immediately rather than racing the sweep.
    if shared.stop.load(Ordering::SeqCst) {
        flag.store(true, Ordering::SeqCst);
    }
    let effective = shared
        .config
        .defaults
        .intersect(&request.limits.to_budget().with_cancel_flag(flag));
    let started = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let _guard = effective.install();
        let result = run(shared, &request);
        let consumed = budget::consumed();
        (result, consumed)
    }));
    match outcome {
        Ok((Ok(mut fields), consumed)) => {
            fields.push(("consumed", consumed.map_or(Json::Null, |c| c.to_json())));
            fields.push(("wall_ms", Json::UInt(started.elapsed().as_millis() as u64)));
            ok_frame(id.as_ref(), fields)
        }
        Ok((Err(e), _)) => {
            match e.kind {
                crate::protocol::ErrorKind::Usage => ddb_obs::counter_bump("serve.errors.usage", 1),
                crate::protocol::ErrorKind::Resource => {
                    ddb_obs::counter_bump("serve.errors.resource", 1)
                }
                _ => {}
            }
            error_frame(id.as_ref(), &e)
        }
        Err(panic) => {
            ddb_obs::counter_bump("serve.errors.internal", 1);
            let what = panic
                .downcast_ref::<&str>()
                .map(|s| (*s).to_owned())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "panic".to_owned());
            error_frame(
                id.as_ref(),
                &WireError::internal(format!("request handler panicked: {what}")),
            )
        }
    }
}

struct InflightGuard<'a> {
    shared: &'a Shared,
    key: u64,
}

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        lock(&self.shared.inflight).retain(|e| e.key != self.key);
    }
}

/// A gate permit; releasing it wakes one waiter.
struct SlotGuard<'a>(&'a Shared);

impl Drop for SlotGuard<'_> {
    fn drop(&mut self) {
        let mut gate = lock(&self.0.gate);
        gate.running -= 1;
        drop(gate);
        self.0.gate_cv.notify_one();
    }
}

/// Bounded admission: `workers` permits, at most `queue` waiters, and a
/// wait no longer than the read timeout — beyond any of these the
/// request is shed with a typed `overloaded` response.
fn acquire_slot(shared: &Shared) -> Result<SlotGuard<'_>, WireError> {
    let config = &shared.config;
    let mut gate = lock(&shared.gate);
    if gate.running < config.workers {
        gate.running += 1;
        return Ok(SlotGuard(shared));
    }
    if gate.waiting >= config.queue {
        drop(gate);
        shed_request(shared);
        return Err(WireError::overloaded(
            format!(
                "admission queue full ({} running, {} waiting)",
                config.workers, config.queue
            ),
            config.retry_after_ms,
        ));
    }
    gate.waiting += 1;
    let deadline = Instant::now() + config.read_timeout;
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            gate.waiting -= 1;
            return Err(WireError::resource("server is shutting down"));
        }
        if gate.running < config.workers {
            gate.waiting -= 1;
            gate.running += 1;
            return Ok(SlotGuard(shared));
        }
        let now = Instant::now();
        if now >= deadline {
            gate.waiting -= 1;
            drop(gate);
            shed_request(shared);
            return Err(WireError::overloaded(
                "admission wait exceeded the read timeout",
                config.retry_after_ms,
            ));
        }
        let (next, _) = shared
            .gate_cv
            .wait_timeout(gate, deadline - now)
            .unwrap_or_else(|e| e.into_inner());
        gate = next;
    }
}

fn shed_request(shared: &Shared) {
    shared.shed.fetch_add(1, Ordering::SeqCst);
    ddb_obs::counter_bump("serve.shed", 1);
}

fn resolve_db(shared: &Shared, request: &Request) -> Result<Arc<Prepared<'static>>, WireError> {
    let name = request
        .db
        .as_deref()
        .ok_or_else(|| WireError::usage("missing field `db`"))?;
    shared
        .catalog
        .read()
        .unwrap_or_else(|e| e.into_inner())
        .get(name)
        .ok_or_else(|| WireError::usage(format!("unknown database `{name}`")))
}

/// The `query`/`models`/`exists` body: [`answer_request`] on the named
/// catalog entry, under the installed budget.
fn run_query_class(
    shared: &Shared,
    request: &Request,
) -> Result<Vec<(&'static str, Json)>, WireError> {
    let prepared = resolve_db(shared, request)?;
    answer_request(request, &prepared)
}

/// The `load` body: parse/ground under the request budget, then publish
/// into the catalog. A budget trip degrades gracefully — typed
/// `resource` error, no partial catalog entry, server keeps running.
fn run_load(shared: &Shared, request: &Request) -> Result<Vec<(&'static str, Json)>, WireError> {
    let name = request
        .db
        .as_deref()
        .ok_or_else(|| WireError::usage("missing field `db`"))?;
    let source = request
        .source
        .as_deref()
        .ok_or_else(|| WireError::usage("load needs a `source` field"))?;
    // Multi-tenant name protection: a `load` must not silently replace
    // somebody else's database. Operator-preloaded (sealed) names are
    // never replaceable; client-loaded names need an explicit
    // `overwrite` flag. Checked cheaply before grounding, and again
    // under the write lock before publishing (grounding is long, so the
    // name set can change in between).
    check_load_name(
        &shared.catalog.read().unwrap_or_else(|e| e.into_inner()),
        name,
        request.overwrite,
    )?;
    let db =
        load_source(source, request.datalog, shared.config.grounding_limit).map_err(
            |e| match e {
                LoadError::Invalid(m) => WireError::usage(m),
                LoadError::Interrupted(i) => {
                    WireError::resource(format!("unknown ({}): grounding {i}", i.resource.label()))
                }
            },
        )?;
    let atoms = db.num_atoms() as u64;
    let rules = db.rules().len() as u64;
    {
        let mut catalog = shared.catalog.write().unwrap_or_else(|e| e.into_inner());
        check_load_name(&catalog, name, request.overwrite)?;
        catalog.insert(name, db);
    }
    Ok(vec![
        ("answer", Json::Str(format!("loaded `{name}`"))),
        ("atoms", Json::UInt(atoms)),
        ("rules", Json::UInt(rules)),
    ])
}

/// The `load` naming policy (see [`Catalog`]'s trust model).
fn check_load_name(catalog: &Catalog, name: &str, overwrite: bool) -> Result<(), WireError> {
    if catalog.is_protected(name) {
        return Err(WireError::usage(format!(
            "database `{name}` is operator-provisioned and cannot be replaced"
        )));
    }
    if catalog.contains(name) && !overwrite {
        return Err(WireError::usage(format!(
            "database `{name}` already exists; set `overwrite`:true to replace it"
        )));
    }
    Ok(())
}
