//! Metric names, units and their computation from a served run and a
//! replay.

use crate::exec::{Reference, Replay, COUNTED};
use crate::run::Served;
use crate::stats::{median, quantile, ratio};
use crate::workload::{Kind, Workload};

/// End-to-end metrics, `(name, unit)`: what a client of the server sees.
/// Timings are client-observed, from sending a frame to receiving the
/// whole response line, over the timed requests of the untraced run.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("throughput_rps", "req/s"),
    ("goodput_rps", "req/s"),
    ("read_p50_ms", "ms"),
    ("read_p90_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, `(name, unit)`, in the order a request crosses the
/// layers.
pub const PER_LAYER: [(&str, &str); 28] = [
    ("serve.handler_us_per_req", "us"),
    ("serve.wire_us_per_req", "us"),
    ("serve.shed", "count"),
    ("protocol.parse_us_per_req", "us"),
    ("protocol.render_us_per_req", "us"),
    ("protocol.response_bytes_per_req", "bytes"),
    ("ground.parse_ms_per_load", "ms"),
    ("ground.ground_ms_per_load", "ms"),
    ("ground.rules_per_load", "count"),
    ("analysis.classify_us_per_req", "us"),
    ("core.decide_us_per_req", "us"),
    ("core.exec_us_per_req", "us"),
    ("core.route.horn_per_req", "count"),
    ("core.route.hcf_per_req", "count"),
    ("core.route.magic_per_req", "count"),
    ("core.route.slice_per_req", "count"),
    ("core.route.split_per_req", "count"),
    ("core.route.islands_per_req", "count"),
    ("core.route.generic_per_req", "count"),
    ("core.magic_admit_ratio", "ratio"),
    ("models.candidates_per_req", "count"),
    ("models.minimize_us_per_req", "us"),
    ("models.cegar_rounds_per_req", "count"),
    ("sat.calls_per_req", "count"),
    ("sat.solve_us_per_req", "us"),
    ("sat.us_per_call", "us"),
    ("sat.conflicts_per_call", "count"),
    ("trace.overhead_pct", "%"),
];

/// The unit of a metric named in [`END_TO_END`] or [`PER_LAYER`].
pub fn unit(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .expect("metric is declared")
}

/// What [`round_values`] gives per round, `(name, unit)`, in its order.
pub const ROUND_VALUES: [(&str, &str); 5] = [
    ("throughput_rps", "req/s"),
    ("goodput_rps", "req/s"),
    ("read_p50_ms", "ms"),
    ("read_p90_ms", "ms"),
    ("read_p99_ms", "ms"),
];

/// One round's throughput, goodput, and read p50, p90 and p99. A rate
/// sums the clients' medians over their timed passes; a percentile is
/// over all the round's timed reads, which are whole passes of every
/// client, and `None` without ten samples beyond it.
pub fn round_values(served: &Served) -> Vec<[Option<f64>; 5]> {
    served
        .rounds
        .iter()
        .map(|r| {
            let rate = |pick: fn(&(f64, f64)) -> f64| -> f64 {
                r.clients
                    .iter()
                    .map(|c| median(&c.pass_rates.iter().map(pick).collect::<Vec<_>>()))
                    .sum()
            };
            let mut reads: Vec<f64> = r.clients.iter().flat_map(|c| c.reads_ms.clone()).collect();
            reads.sort_by(f64::total_cmp);
            [
                Some(rate(|p| p.0)),
                Some(rate(|p| p.1)),
                quantile(&reads, 0.50),
                quantile(&reads, 0.90),
                quantile(&reads, 0.99),
            ]
        })
        .collect()
}

/// The end-to-end metrics, in [`END_TO_END`] order. Rates and percentiles
/// are those of the best round: other tenants of a shared host only ever
/// slow a round down, and on a two-core virtual machine they do so in
/// stretches that move a round's numbers by up to 40%, so the best of
/// the rounds is the steadiest measure of the program itself. The tail
/// reported is p90: a p99 moved by more than a quarter between runs with
/// the host alone. A percentile is `None` when no round had ten samples
/// beyond it.
pub fn end_to_end(served: &Served, setup_s: f64, rss_mib: f64) -> Vec<(&'static str, Option<f64>)> {
    let rounds = round_values(served);
    let best = |i: usize, higher: bool| -> Option<f64> {
        let v = rounds.iter().filter_map(|r| r[i]);
        if higher {
            v.reduce(f64::max)
        } else {
            v.reduce(f64::min)
        }
    };
    vec![
        ("setup_s", Some(setup_s)),
        ("throughput_rps", best(0, true)),
        ("goodput_rps", best(1, true)),
        ("read_p50_ms", best(2, false)),
        ("read_p90_ms", best(3, false)),
        ("peak_rss_mb", Some(rss_mib)),
    ]
}

/// The per-layer metrics, in [`PER_LAYER`] order. Times come from the
/// server's histograms over the rounds (after their warm-ups) and from
/// the replay's spans; counts come from the reference answers, weighted
/// by how often each frame was timed, so they repeat exactly.
pub fn per_layer(
    w: &Workload,
    served: &Served,
    refs: &[Reference],
    traced: &Replay,
    untraced: &Replay,
) -> Vec<(&'static str, f64)> {
    let hist = |name: &str| {
        let (count, sum) = served.hist(name);
        (count as f64, sum as f64)
    };
    let logs = served.logs();
    let timed: f64 = logs.clone().map(|c| c.timed_count() as f64).sum();
    let (mut reads, mut sat_calls, mut candidates, mut cegar) = (0.0, 0.0, 0.0, 0.0);
    let mut counters = [0.0; COUNTED.len()];
    for (&frame, &n) in logs.clone().flat_map(|c| &c.timed) {
        if w.pool[frame].kind == Kind::Write {
            continue;
        }
        let (r, n) = (&refs[frame], n as f64);
        reads += n;
        sat_calls += n * r.sat_calls as f64;
        candidates += n * r.candidates as f64;
        cegar += n * r.cegar_rounds as f64;
        for (total, &c) in counters.iter_mut().zip(&r.counters) {
            *total += n * c as f64;
        }
    }
    let count = |name: &str| {
        let i = COUNTED.iter().position(|c| *c == name).expect("counted");
        counters[i]
    };
    let per_read = |v: f64| ratio(v, reads);
    // Registry deltas cover every read after the warm-up, timed or not.
    let served_reads: f64 = logs.clone().map(|c| c.reads_after_warmup as f64).sum();
    let (after_warmup, latency) = logs.clone().fold((0.0, 0.0), |(n, t), c| {
        (
            n + c.after_warmup.0 as f64,
            t + c.after_warmup.1.as_secs_f64() * 1e6,
        )
    });
    let (handled, handler_ns) = hist("serve.request.ns");
    let handler_us = ratio(handler_ns, handled) / 1e3;
    let (solves, solve_ns) = hist("sat.solve.ns");
    let span_us = |name: &str| traced.spans.total(name).0.as_secs_f64() * 1e6;
    let replay_reads = traced.reads as f64;
    let (classify, decide) = (span_us("analysis.classify"), span_us("core.decide"));
    let loads = traced.loads as f64;
    let magic = count("route.magic");
    vec![
        ("serve.handler_us_per_req", handler_us),
        (
            "serve.wire_us_per_req",
            ratio(latency, after_warmup) - handler_us,
        ),
        ("serve.shed", logs.clone().map(|c| c.shed as f64).sum()),
        (
            "protocol.parse_us_per_req",
            ratio(span_us("protocol.parse"), traced.frames as f64),
        ),
        (
            "protocol.render_us_per_req",
            ratio(span_us("protocol.render"), traced.frames as f64),
        ),
        (
            "protocol.response_bytes_per_req",
            ratio(logs.map(|c| c.response_bytes as f64).sum(), timed),
        ),
        (
            "ground.parse_ms_per_load",
            ratio(span_us("ground.parse"), loads) / 1e3,
        ),
        (
            "ground.ground_ms_per_load",
            ratio(span_us("ground.ground"), loads) / 1e3,
        ),
        (
            "ground.rules_per_load",
            ratio(traced.ground_rules as f64, loads),
        ),
        (
            "analysis.classify_us_per_req",
            ratio(classify, replay_reads),
        ),
        ("core.decide_us_per_req", ratio(decide, replay_reads)),
        (
            "core.exec_us_per_req",
            ratio(span_us("core.exec") - classify - decide, replay_reads),
        ),
        ("core.route.horn_per_req", per_read(count("route.horn"))),
        ("core.route.hcf_per_req", per_read(count("route.hcf"))),
        ("core.route.magic_per_req", per_read(magic)),
        ("core.route.slice_per_req", per_read(count("route.slice"))),
        ("core.route.split_per_req", per_read(count("route.split"))),
        (
            "core.route.islands_per_req",
            per_read(count("route.islands")),
        ),
        (
            "core.route.generic_per_req",
            per_read(count("route.generic")),
        ),
        (
            "core.magic_admit_ratio",
            ratio(magic, magic + count("route.magic.blocked")),
        ),
        ("models.candidates_per_req", per_read(candidates)),
        (
            "models.minimize_us_per_req",
            ratio(hist("models.minimize.ns").1, served_reads) / 1e3,
        ),
        ("models.cegar_rounds_per_req", per_read(cegar)),
        ("sat.calls_per_req", per_read(sat_calls)),
        ("sat.solve_us_per_req", ratio(solve_ns, served_reads) / 1e3),
        ("sat.us_per_call", ratio(solve_ns, solves) / 1e3),
        (
            "sat.conflicts_per_call",
            ratio(count("sat.conflicts"), count("sat.solves")),
        ),
        (
            "trace.overhead_pct",
            100.0
                * ratio(
                    traced.elapsed.as_secs_f64() - untraced.elapsed.as_secs_f64(),
                    untraced.elapsed.as_secs_f64(),
                ),
        ),
    ]
}
