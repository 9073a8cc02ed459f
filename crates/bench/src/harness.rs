//! Measurement plumbing: timed runs, oracle-cost capture, growth
//! classification, and report rendering.

use ddb_models::Cost;
use ddb_obs::json::Json;
use std::time::{Duration, Instant};

/// One measured point of a scaling sweep.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// Instance size parameter (atoms, universal variables, …).
    pub size: usize,
    /// Wall-clock time of the decision procedure.
    pub time: Duration,
    /// Oracle usage.
    pub cost: Cost,
    /// The decision's answer (for sanity reporting).
    pub answer: bool,
}

impl Measurement {
    /// Serialize for the `tables --json` metrics file.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("size", Json::UInt(self.size as u64)),
            ("wall_ns", Json::UInt(self.time.as_nanos() as u64)),
            ("answer", Json::Bool(self.answer)),
            ("sat_calls", Json::UInt(self.cost.sat_calls)),
            ("candidates", Json::UInt(self.cost.candidates)),
            ("decisions", Json::UInt(self.cost.decisions)),
            ("conflicts", Json::UInt(self.cost.conflicts)),
            ("propagations", Json::UInt(self.cost.propagations)),
            ("peak_clauses", Json::UInt(self.cost.peak_clauses)),
        ])
    }
}

/// Runs `f` once, capturing time and cost.
pub fn measure(size: usize, f: impl FnOnce(&mut Cost) -> bool) -> Measurement {
    let _span = ddb_obs::span("bench.measure");
    let mut cost = Cost::new();
    let start = Instant::now();
    let answer = f(&mut cost);
    Measurement {
        size,
        time: start.elapsed(),
        cost,
        answer,
    }
}

/// Runs `f` over `iters` seeds and reports the median of each quantity,
/// each taken on its own (`median`).
pub fn measure_median(
    size: usize,
    iters: u64,
    mut f: impl FnMut(u64, &mut Cost) -> bool,
) -> Measurement {
    let runs: Vec<Measurement> = (0..iters)
        .map(|seed| measure(size, |cost| f(seed, cost)))
        .collect();
    median(size, &runs)
}

/// The median of each quantity over `runs`, taken independently: the
/// median time, the median of every cost count, and the majority answer.
/// A run's counts depend only on its seed, so the reported counts repeat
/// from one sweep to the next whichever run happens to be slowest.
///
/// # Panics
/// Panics when `runs` is empty.
fn median(size: usize, runs: &[Measurement]) -> Measurement {
    fn mid<T: Ord + Copy>(runs: &[Measurement], key: impl Fn(&Measurement) -> T) -> T {
        let mut values: Vec<T> = runs.iter().map(key).collect();
        values.sort_unstable();
        values[values.len() / 2]
    }
    Measurement {
        size,
        time: mid(runs, |m| m.time),
        cost: Cost {
            sat_calls: mid(runs, |m| m.cost.sat_calls),
            candidates: mid(runs, |m| m.cost.candidates),
            decisions: mid(runs, |m| m.cost.decisions),
            conflicts: mid(runs, |m| m.cost.conflicts),
            propagations: mid(runs, |m| m.cost.propagations),
            peak_clauses: mid(runs, |m| m.cost.peak_clauses),
        },
        answer: mid(runs, |m| m.answer),
    }
}

/// Growth classification from per-doubling time ratios.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Growth {
    /// Essentially flat (constant-time shape).
    Constant,
    /// Bounded per-doubling ratio (polynomial shape).
    Polynomial,
    /// Super-polynomial blow-up across doublings.
    Exponential,
}

impl Growth {
    /// Human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            Growth::Constant => "flat",
            Growth::Polynomial => "poly",
            Growth::Exponential => "exp",
        }
    }
}

/// Classifies a sweep whose sizes (roughly) double. Ratios below 1.5 ⇒
/// constant, below 10 ⇒ polynomial (degree ≲ 3), otherwise exponential.
/// Sub-microsecond timings are treated as constant (noise floor).
pub fn classify(points: &[Measurement]) -> Growth {
    if points.len() < 2 {
        return Growth::Constant;
    }
    let mut worst: f64 = 0.0;
    for w in points.windows(2) {
        let (a, b) = (&w[0], &w[1]);
        let ta = a.time.as_secs_f64().max(1e-7);
        let tb = b.time.as_secs_f64().max(1e-7);
        let size_ratio = b.size as f64 / a.size.max(1) as f64;
        // Normalize the time ratio to a per-doubling figure.
        let ratio = (tb / ta).powf(1.0 / size_ratio.log2().max(0.5));
        worst = worst.max(ratio);
    }
    if points.last().map(|m| m.time < Duration::from_micros(50)) == Some(true) {
        return Growth::Constant;
    }
    if worst < 1.5 {
        Growth::Constant
    } else if worst < 10.0 {
        Growth::Polynomial
    } else {
        Growth::Exponential
    }
}

/// One cell of the regenerated table.
#[derive(Clone, Debug)]
pub struct CellReport {
    /// Semantics row label.
    pub semantics: String,
    /// Problem column: "lit" / "form" / "exist".
    pub task: &'static str,
    /// The paper's claimed complexity for this cell.
    pub paper_claim: &'static str,
    /// Measured sweep.
    pub points: Vec<Measurement>,
    /// Extra evidence (reduction verified, oracle budget, …).
    pub evidence: String,
}

impl CellReport {
    /// Serialize the cell — paper claim, measured shape, full sweep — for
    /// the `tables --json` metrics file.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("semantics", Json::Str(self.semantics.clone())),
            ("task", Json::Str(self.task.to_owned())),
            ("paper_claim", Json::Str(self.paper_claim.to_owned())),
            (
                "measured_shape",
                Json::Str(classify(&self.points).label().to_owned()),
            ),
            (
                "sweep",
                Json::Arr(self.points.iter().map(Measurement::to_json).collect()),
            ),
            ("evidence", Json::Str(self.evidence.clone())),
        ])
    }

    /// Renders the cell as a markdown table row fragment.
    pub fn render(&self) -> String {
        let shape = classify(&self.points).label();
        let sweep: Vec<String> = self
            .points
            .iter()
            .map(|m| {
                format!(
                    "n={}: {:.2?} ({} sat / {} cand)",
                    m.size, m.time, m.cost.sat_calls, m.cost.candidates
                )
            })
            .collect();
        format!(
            "| {} | {} | {} | {} | {} | {} |",
            self.semantics,
            self.task,
            self.paper_claim,
            shape,
            sweep.join("; "),
            self.evidence
        )
    }
}

/// Markdown table header matching [`CellReport::render`].
pub fn table_header() -> String {
    "| semantics | task | paper | measured shape | sweep (median) | evidence |\n|---|---|---|---|---|---|".to_owned()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake(size: usize, micros: u64) -> Measurement {
        Measurement {
            size,
            time: Duration::from_micros(micros),
            cost: Cost::new(),
            answer: true,
        }
    }

    #[test]
    fn classify_constant() {
        let pts = vec![fake(10, 2000), fake(20, 2100), fake(40, 2050)];
        assert_eq!(classify(&pts), Growth::Constant);
    }

    #[test]
    fn classify_polynomial() {
        // Quadratic: 4x per doubling.
        let pts = vec![fake(10, 1000), fake(20, 4000), fake(40, 16_000)];
        assert_eq!(classify(&pts), Growth::Polynomial);
    }

    #[test]
    fn classify_exponential() {
        let pts = vec![fake(10, 1000), fake(20, 1_000_000), fake(40, 1_000_000_000)];
        assert_eq!(classify(&pts), Growth::Exponential);
    }

    #[test]
    fn noise_floor_is_constant() {
        let pts = vec![fake(10, 1), fake(20, 3), fake(40, 9)];
        assert_eq!(classify(&pts), Growth::Constant);
    }

    #[test]
    fn measure_captures_cost() {
        let m = measure(5, |cost| {
            cost.candidates = 3;
            true
        });
        assert_eq!(m.size, 5);
        assert_eq!(m.cost.candidates, 3);
        assert!(m.answer);
    }

    #[test]
    fn median_counts_do_not_follow_the_timings() {
        let runs: Vec<Measurement> = [(7, 40), (3, 10), (9, 20), (1, 50), (5, 30)]
            .into_iter()
            .map(|(sat, micros)| {
                let mut m = fake(16, micros);
                m.cost.sat_calls = sat;
                m.cost.candidates = 10 - sat;
                m.answer = sat > 4;
                m
            })
            .collect();
        let reference = median(16, &runs);
        assert_eq!(reference.cost.sat_calls, 5);
        assert_eq!(reference.cost.candidates, 5);
        assert!(reference.answer, "three of five runs answer true");
        assert_eq!(reference.time, Duration::from_micros(30));
        // Every rotation of the timings over the same runs, and a
        // reversal: the time's median stays, and so does every count.
        let times: Vec<Duration> = runs.iter().map(|m| m.time).collect();
        for shift in 1..runs.len() {
            for reversed in [false, true] {
                let mut shuffled = runs.clone();
                for (i, m) in shuffled.iter_mut().enumerate() {
                    let j = (i + shift) % times.len();
                    m.time = times[if reversed { times.len() - 1 - j } else { j }];
                }
                let got = median(16, &shuffled);
                assert_eq!(format!("{:?}", got.cost), format!("{:?}", reference.cost));
                assert_eq!((got.time, got.answer), (reference.time, reference.answer));
            }
        }
    }

    #[test]
    fn render_contains_fields() {
        let cell = CellReport {
            semantics: "GCWA".into(),
            task: "lit",
            paper_claim: "Πᵖ₂-complete",
            points: vec![fake(10, 100)],
            evidence: "reduction verified".into(),
        };
        let row = cell.render();
        assert!(row.contains("GCWA") && row.contains("lit") && row.contains("Πᵖ₂"));
    }
}
