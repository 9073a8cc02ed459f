//! The served run: an in-process `ddb_serve::Server` on loopback and one
//! closed-loop client thread per sequence, each on its own connection,
//! sending its next frame only after the previous response arrived (as a
//! `ddb call` caller does).

use crate::workload::{Kind, Workload, GROUNDING_LIMIT};
use ddb_obs::{CounterSnapshot, HistogramSnapshot};
use ddb_serve::catalog::{load_source, Catalog};
use ddb_serve::chaos::Client;
use ddb_serve::{Server, ServerConfig, ServerHandle};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Frames each client sends before timing starts.
pub(crate) const WARMUP_FRAMES: usize = 200;

/// A response slower than this is a transport failure.
const RECV_TIMEOUT: Duration = Duration::from_secs(60);

/// Failure messages kept per client.
const MAX_MESSAGES: usize = 8;

/// Two workers, matching the two client connections.
pub fn server_config() -> ServerConfig {
    ServerConfig {
        workers: 2,
        queue: 8,
        ..ServerConfig::default()
    }
}

/// Set-up: loads the sealed catalog and the tenant databases through
/// `load_source` (as `ddb serve` does at startup) and starts the server.
/// Returns the server and the set-up time, then checks that the server
/// answers a `ping`, untimed: a first connection waits for the accept
/// loop's poll, up to 10 ms, which would make the time bimodal.
pub fn setup(w: &Workload) -> Result<(ServerHandle, Duration), String> {
    let started = Instant::now();
    let mut catalog = Catalog::new();
    let load = |catalog: &mut Catalog, s: usize| {
        let source = &w.sources[s];
        let db = load_source(&source.text, None, GROUNDING_LIMIT)
            .map_err(|e| format!("loading `{}`: {e}", source.name))?;
        catalog.insert(&source.name, db);
        Ok::<(), String>(())
    };
    for &s in &w.catalog {
        load(&mut catalog, s)?;
    }
    catalog.protect_all();
    for &s in &w.tenants {
        load(&mut catalog, s)?;
    }
    let handle = Server::start(server_config(), catalog)?;
    let took = started.elapsed();
    let pong = Client::connect(&handle.addr().to_string(), RECV_TIMEOUT)
        .and_then(|mut c| c.call(r#"{"op":"ping"}"#));
    match pong {
        Ok(p) if p.get("answer").and_then(|v| v.as_str()) == Some("pong") => Ok((handle, took)),
        other => {
            stop(handle);
            Err(format!("ping failed: {other:?}"))
        }
    }
}

/// Shuts the server down and waits for every session to end.
pub fn stop(handle: ServerHandle) {
    handle.shutdown();
    handle.join();
}

/// What one client saw in one round.
#[derive(Debug, Default)]
pub struct ClientLog {
    /// Per timed pass: requests per second, and of those the ones
    /// answered `ok` within the workload's latency limit.
    pub pass_rates: Vec<(f64, f64)>,
    /// Latencies of the timed reads, in milliseconds.
    pub reads_ms: Vec<f64>,
    /// Latencies of the timed writes, in milliseconds.
    pub writes_ms: Vec<f64>,
    /// Timed requests per pool frame.
    pub timed: HashMap<usize, u64>,
    /// Requests sent after the warm-up, timed or not, and their latency
    /// summed: the requests the server's registry deltas cover.
    pub after_warmup: (u64, Duration),
    /// The slowest timed request and its pool frame.
    pub slowest: (Duration, usize),
    /// Response bytes of the timed requests.
    pub response_bytes: u64,
    /// Of those, reads.
    pub reads_after_warmup: u64,
    /// `overloaded` responses.
    pub shed: u64,
    /// Requests that failed: transport errors, error frames, and answers
    /// that differ from the first answer to the same frame.
    pub failed: u64,
    /// The first few failure messages.
    pub messages: Vec<String>,
    /// Requests per pool frame, every phase included.
    pub counts: HashMap<usize, u64>,
    /// The first response to each pool frame.
    pub first: HashMap<usize, String>,
    warm: bool,
}

impl ClientLog {
    /// Every request the client sent.
    pub fn sent(&self) -> u64 {
        self.counts.values().sum()
    }

    /// Timed requests.
    pub fn timed_count(&self) -> u64 {
        self.timed.values().sum()
    }

    fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.messages.len() < MAX_MESSAGES {
            self.messages.push(message);
        }
    }

    /// Sends one frame and checks the response; `None` once the
    /// connection is gone.
    fn request(
        &mut self,
        client: &mut Option<Client>,
        w: &Workload,
        frame: usize,
    ) -> Option<(Duration, bool, usize)> {
        let c = client.as_mut()?;
        let line = &w.pool[frame].line;
        *self.counts.entry(frame).or_default() += 1;
        if self.warm && w.pool[frame].kind == Kind::Read {
            self.reads_after_warmup += 1;
        }
        let sent = Instant::now();
        let response = c.send_line(line).and_then(|()| c.recv_line());
        let latency = sent.elapsed();
        if self.warm {
            self.after_warmup.0 += 1;
            self.after_warmup.1 += latency;
        }
        let response = match response {
            Ok(r) => r,
            Err(e) => {
                self.fail(format!("transport: {e}"));
                *client = None;
                return None;
            }
        };
        let ok = response.starts_with(r#"{"id":null,"ok":true"#);
        if !ok {
            if response.contains(r#""kind":"overloaded""#) {
                self.shed += 1;
            }
            self.fail(format!("error frame: {response}"));
        }
        let bytes = response.len();
        match self.first.get(&frame) {
            Some(first) if stable_part(first) != stable_part(&response) => {
                self.fail(format!("answer changed: {first} then {response}"));
            }
            Some(_) => {}
            None => {
                self.first.insert(frame, response);
            }
        }
        Some((latency, ok, bytes))
    }
}

/// A response up to its cost fields, which may differ between repeats.
fn stable_part(response: &str) -> &str {
    let end = [r#","sat_calls":"#, r#","consumed":"#]
        .iter()
        .filter_map(|marker| response.find(marker))
        .min()
        .unwrap_or(response.len());
    &response[..end]
}

/// Observability registry state, for deltas.
pub struct Obs {
    /// Counters.
    pub counters: CounterSnapshot,
    /// Histograms.
    pub hists: HistogramSnapshot,
}

impl Obs {
    /// The current registry state.
    pub fn now() -> Obs {
        Obs {
            counters: ddb_obs::snapshot(),
            hists: ddb_obs::hist_snapshot(),
        }
    }

    /// Gain of counter `name` since `earlier`.
    pub fn counter(&self, earlier: &Obs, name: &str) -> u64 {
        self.counters
            .get(name)
            .saturating_sub(earlier.counters.get(name))
    }

    /// Gain of histogram `name`'s (count, sum) since `earlier`.
    pub fn hist(&self, earlier: &Obs, name: &str) -> (u64, u64) {
        let of = |s: &HistogramSnapshot| s.get(name).map_or((0, 0), |h| (h.count(), h.sum()));
        let (c1, s1) = of(&self.hists);
        let (c0, s0) = of(&earlier.hists);
        (c1.saturating_sub(c0), s1.saturating_sub(s0))
    }
}

/// One round of serving: a fresh server, connections and client threads.
pub struct Round {
    /// One log per client.
    pub clients: Vec<ClientLog>,
    /// Registry state once every client had warmed up.
    pub before: Obs,
    /// Registry state after every session ended.
    pub after: Obs,
}

/// A run's rounds. Where the scheduler puts a round's threads, and what
/// else the host runs meanwhile, moves a round's throughput by up to 40%;
/// the best round of a run moves far less.
#[derive(Default)]
pub struct Served {
    /// The rounds, in order.
    pub rounds: Vec<Round>,
}

impl Served {
    /// Every client log of every round.
    pub fn logs(&self) -> impl Iterator<Item = &ClientLog> + Clone {
        self.rounds.iter().flat_map(|r| &r.clients)
    }

    /// Gain of histogram `name`'s (count, sum) over the rounds' timed
    /// parts.
    pub fn hist(&self, name: &str) -> (u64, u64) {
        self.rounds
            .iter()
            .map(|r| r.after.hist(&r.before, name))
            .fold((0, 0), |(c, s), (dc, ds)| (c + dc, s + ds))
    }
}

/// Drives `w`'s clients against a server that [`setup`] started. Each
/// sends its first [`WARMUP_FRAMES`] (at most a quarter pass) untimed; then
/// all start together and time whole passes until `seconds` have gone
/// by, so that every run does the same work. A client done timing keeps
/// sending, untimed, until the others are done too, so that each timed
/// pass runs under the full load. Stops the server.
pub fn serve(w: &Workload, handle: ServerHandle, seconds: f64) -> Round {
    let addr = handle.addr().to_string();
    let gate = Barrier::new(w.clients.len() + 1);
    let timing = AtomicUsize::new(w.clients.len());
    let (clients, before) = std::thread::scope(|scope| {
        let workers: Vec<_> = w
            .clients
            .iter()
            .map(|pass| {
                let (addr, gate, timing) = (&addr, &gate, &timing);
                scope.spawn(move || drive(w, pass, addr, gate, timing, seconds))
            })
            .collect();
        gate.wait();
        let before = Obs::now();
        gate.wait();
        let clients = workers
            .into_iter()
            .map(|h| h.join().expect("client threads do not panic"))
            .collect();
        (clients, before)
    });
    stop(handle);
    Round {
        clients,
        before,
        after: Obs::now(),
    }
}

fn drive(
    w: &Workload,
    pass: &[usize],
    addr: &str,
    gate: &Barrier,
    timing: &AtomicUsize,
    seconds: f64,
) -> ClientLog {
    let mut log = ClientLog::default();
    let mut client = match Client::connect(addr, RECV_TIMEOUT) {
        Ok(c) => Some(c),
        Err(e) => {
            log.fail(e);
            None
        }
    };
    let mut frames = pass.iter().copied().cycle();
    for frame in frames.by_ref().take(WARMUP_FRAMES.min(pass.len() / 4)) {
        log.request(&mut client, w, frame);
    }
    log.warm = true;
    gate.wait();
    gate.wait();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    while client.is_some() {
        let pass_start = Instant::now();
        let (mut done, mut good) = (0u32, 0u32);
        for frame in frames.by_ref().take(pass.len()) {
            let Some((latency, ok, bytes)) = log.request(&mut client, w, frame) else {
                break;
            };
            let ms = latency.as_secs_f64() * 1e3;
            let slo = match w.pool[frame].kind {
                Kind::Read => {
                    log.reads_ms.push(ms);
                    w.read_slo_ms
                }
                Kind::Write => {
                    log.writes_ms.push(ms);
                    w.write_slo_ms
                }
            };
            done += 1;
            good += u32::from(ok && ms <= slo);
            *log.timed.entry(frame).or_default() += 1;
            log.slowest = log.slowest.max((latency, frame));
            log.response_bytes += bytes as u64;
        }
        if client.is_some() {
            let took = pass_start.elapsed().as_secs_f64();
            log.pass_rates
                .push((f64::from(done) / took, f64::from(good) / took));
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    timing.fetch_sub(1, Ordering::SeqCst);
    while client.is_some() && timing.load(Ordering::SeqCst) > 0 {
        let frame = frames.next().expect("a cycled non-empty pass");
        log.request(&mut client, w, frame);
    }
    log
}

/// The process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
