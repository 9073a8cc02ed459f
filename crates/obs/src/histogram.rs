//! Log-bucketed latency histograms.
//!
//! Counters say *how many* oracle calls a decision procedure made;
//! histograms say how those calls were *distributed* — a Δᵖ₃[O(log n)]
//! binary search and a Σᵖ₂ CEGAR loop can bill the same `sat.solves`
//! while their per-call hardness differs by orders of magnitude. Each
//! histogram is HDR-style: values land in logarithmic buckets with
//! [`SUB_BUCKETS`] linear sub-buckets per octave, giving a bounded
//! relative error of `1/SUB_BUCKETS` (~3%, i.e. roughly two significant
//! digits) across the full `u64` range with at most [`MAX_BUCKETS`]
//! buckets and no allocation beyond one lazily-grown `Vec<u64>`.
//!
//! [`crate::hist_record`] records into the calling thread's recorder,
//! which flushes like counters (see [`crate::recorder`]).

use crate::json::Json;
use std::collections::BTreeMap;

/// Sub-bucket resolution: each power-of-two octave is split into this
/// many linear sub-buckets, bounding relative bucket width to ~3.1%.
pub const SUB_BUCKETS: u64 = 32;
const SUB_BITS: u32 = 5;

/// Upper bound on [`bucket_index`] over all of `u64` (exclusive).
pub const MAX_BUCKETS: usize = ((64 - SUB_BITS as usize) << SUB_BITS) + SUB_BUCKETS as usize;

/// The bucket a value lands in. Monotone in `v`; values below
/// [`SUB_BUCKETS`] get exact singleton buckets.
pub fn bucket_index(v: u64) -> usize {
    if v < SUB_BUCKETS {
        return v as usize;
    }
    let high = 63 - v.leading_zeros(); // highest set bit, >= SUB_BITS
    let shift = high - SUB_BITS;
    let sub = (v >> shift) & (SUB_BUCKETS - 1);
    (((shift + 1) as usize) << SUB_BITS) | sub as usize
}

/// Inclusive lower bound of bucket `i`: the smallest value mapping to it.
pub fn bucket_lower(i: usize) -> u64 {
    let e = (i >> SUB_BITS) as u32;
    let sub = (i as u64) & (SUB_BUCKETS - 1);
    if e == 0 {
        sub
    } else {
        (SUB_BUCKETS + sub) << (e - 1)
    }
}

/// Exclusive upper bound of bucket `i`. The topmost bucket's true bound
/// is 2⁶⁴, which saturates to `u64::MAX` (so for that single bucket the
/// bound is inclusive).
pub fn bucket_upper(i: usize) -> u64 {
    let e = (i >> SUB_BITS) as u32;
    if e == 0 {
        bucket_lower(i) + 1
    } else {
        bucket_lower(i).saturating_add(1u64 << (e - 1))
    }
}

/// One log-bucketed distribution: bucket counts plus exact count, sum,
/// min and max.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one observation.
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Record `n` observations of the same value.
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        let i = bucket_index(value);
        if self.counts.len() <= i {
            self.counts.resize(i + 1, 0);
        }
        self.counts[i] = self.counts[i].saturating_add(n);
        if self.count == 0 || value < self.min {
            self.min = value;
        }
        if value > self.max {
            self.max = value;
        }
        self.count = self.count.saturating_add(n);
        self.sum = self.sum.saturating_add(value.saturating_mul(n));
    }

    /// Fold another histogram into this one. Exact for counts and sum;
    /// min/max merge exactly too.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if self.counts.len() < other.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (slot, &c) in self.counts.iter_mut().zip(other.counts.iter()) {
            *slot = slot.saturating_add(c);
        }
        if self.count == 0 || other.min < self.min {
            self.min = other.min;
        }
        self.max = self.max.max(other.max);
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded values (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded value (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean of recorded values, rounded down (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// The value at quantile `q` in `[0, 1]`: the largest value of the
    /// bucket holding the ⌈q·count⌉-th smallest observation, clamped to
    /// the recorded min/max (so `quantile(0.0)` is the min and
    /// `quantile(1.0)` the max). Accurate to one bucket width (~3%).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen = seen.saturating_add(c);
            if seen >= rank {
                // Highest value representable by this bucket, clamped to
                // the exact observed range.
                let hi = bucket_upper(i).saturating_sub(1);
                return hi.clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// JSON rendering: summary statistics plus the non-empty buckets as
    /// `[lower, count]` pairs.
    pub fn to_json(&self) -> Json {
        let buckets: Vec<Json> = self
            .counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| Json::Arr(vec![Json::UInt(bucket_lower(i)), Json::UInt(c)]))
            .collect();
        Json::obj([
            ("count", Json::UInt(self.count)),
            ("sum", Json::UInt(self.sum)),
            ("min", Json::UInt(self.min())),
            ("max", Json::UInt(self.max)),
            ("p50", Json::UInt(self.quantile(0.50))),
            ("p90", Json::UInt(self.quantile(0.90))),
            ("p99", Json::UInt(self.quantile(0.99))),
            ("buckets", Json::Arr(buckets)),
        ])
    }
}

/// Histograms at one instant: the registry ([`crate::hist_snapshot`]) or
/// one scope ([`crate::Recording`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub(crate) values: BTreeMap<String, Histogram>,
}

impl HistogramSnapshot {
    /// The named histogram, if any value was ever recorded under it.
    pub fn get(&self, name: &str) -> Option<&Histogram> {
        self.values.get(name)
    }

    /// Total observation count under `name` (0 when absent).
    pub fn count(&self, name: &str) -> u64 {
        self.values.get(name).map_or(0, Histogram::count)
    }

    /// Whether no histogram has any data.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// All histograms in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.values.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Render as a JSON object `{name: {count, sum, p50, ...}, ...}`.
    pub fn to_json(&self) -> Json {
        Json::Obj(
            self.values
                .iter()
                .map(|(k, v)| (k.clone(), v.to_json()))
                .collect(),
        )
    }

    /// Render as an aligned human-readable table.
    pub fn render_table(&self) -> String {
        let width = self
            .values
            .keys()
            .map(|k| k.len())
            .max()
            .unwrap_or(0)
            .max(9);
        let mut out = String::new();
        out.push_str(&format!(
            "{:width$}  {:>8}  {:>10}  {:>10}  {:>10}  {:>10}  {:>10}\n",
            "histogram", "count", "min", "p50", "p90", "p99", "max"
        ));
        for (name, h) in &self.values {
            out.push_str(&format!(
                "{name:width$}  {:>8}  {:>10}  {:>10}  {:>10}  {:>10}  {:>10}\n",
                h.count(),
                h.min(),
                h.quantile(0.50),
                h.quantile(0.90),
                h.quantile(0.99),
                h.max()
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic xorshift64* — the property tests need arbitrary
    /// values without external crates.
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.0 = x;
            x.wrapping_mul(0x2545F4914F6CDD1D)
        }
    }

    fn interesting_values() -> Vec<u64> {
        let mut vals = vec![
            0,
            1,
            2,
            31,
            32,
            33,
            63,
            64,
            65,
            1000,
            u64::MAX - 1,
            u64::MAX,
        ];
        for bit in 0..64 {
            let p = 1u64 << bit;
            vals.extend([p.saturating_sub(1), p, p.saturating_add(1)]);
        }
        let mut rng = Rng(0x9E3779B97F4A7C15);
        for _ in 0..10_000 {
            let v = rng.next();
            // Mix full-range and small values.
            vals.push(v);
            vals.push(v >> (v % 64));
        }
        vals
    }

    #[test]
    fn bucket_bounds_roundtrip() {
        for v in interesting_values() {
            let i = bucket_index(v);
            let lo = bucket_lower(i);
            let hi = bucket_upper(i);
            assert!(lo <= v, "lower({i}) = {lo} > {v}");
            assert!(
                v < hi || hi == u64::MAX,
                "upper({i}) = {hi} <= {v} (non-saturated)"
            );
            assert!(i < MAX_BUCKETS, "index {i} for {v} exceeds MAX_BUCKETS");
        }
    }

    #[test]
    fn bucket_index_is_monotone() {
        let mut vals = interesting_values();
        vals.sort_unstable();
        for w in vals.windows(2) {
            assert!(
                bucket_index(w[0]) <= bucket_index(w[1]),
                "index({}) > index({})",
                w[0],
                w[1]
            );
        }
        // And bucket bounds tile the line: upper(i) == lower(i+1).
        for i in 0..MAX_BUCKETS - 1 {
            assert_eq!(bucket_upper(i), bucket_lower(i + 1), "gap after bucket {i}");
        }
    }

    #[test]
    fn relative_error_is_bounded() {
        for v in interesting_values() {
            if v < SUB_BUCKETS {
                continue; // exact buckets
            }
            let i = bucket_index(v);
            let width = bucket_upper(i).saturating_sub(bucket_lower(i));
            // Bucket width is at most lower/SUB_BUCKETS ⇒ ≤ v/32 ≈ 3.1%.
            assert!(
                width <= bucket_lower(i) / (SUB_BUCKETS / 2),
                "bucket {i} width {width} too wide for lower {}",
                bucket_lower(i)
            );
        }
    }

    #[test]
    fn quantiles_bracket_the_data() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 1000);
        let p50 = h.quantile(0.50);
        let p99 = h.quantile(0.99);
        assert!((485..=520).contains(&p50), "p50 = {p50}");
        assert!((960..=1000).contains(&p99), "p99 = {p99}");
        assert!(h.quantile(0.0) == 1 && h.quantile(1.0) == 1000);
        assert_eq!(h.mean(), 500);
    }

    #[test]
    fn merge_matches_sequential_recording() {
        let mut rng = Rng(42);
        let vals: Vec<u64> = (0..500).map(|_| rng.next() % 1_000_000).collect();
        let mut whole = Histogram::new();
        let mut left = Histogram::new();
        let mut right = Histogram::new();
        for (i, &v) in vals.iter().enumerate() {
            whole.record(v);
            if i % 2 == 0 { &mut left } else { &mut right }.record(v);
        }
        left.merge(&right);
        assert_eq!(left, whole);
    }

    #[test]
    fn thread_buffers_merge_into_registry() {
        // The registry is global: use a unique name and diff counts.
        let before = crate::hist_snapshot().count("test.hist.threads");
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for v in 0..100 {
                        crate::hist_record("test.hist.threads", v);
                    }
                    crate::flush();
                });
            }
        });
        let after = crate::hist_snapshot().count("test.hist.threads");
        assert_eq!(after - before, 400);
    }

    #[test]
    fn json_exposes_quantiles() {
        let mut h = Histogram::new();
        h.record_n(10, 9);
        h.record(1_000_000);
        let json = h.to_json();
        assert_eq!(
            json.get("count").and_then(crate::json::Json::as_u64),
            Some(10)
        );
        assert_eq!(
            json.get("p50").and_then(crate::json::Json::as_u64),
            Some(10)
        );
        let p99 = json.get("p99").and_then(crate::json::Json::as_u64).unwrap();
        assert!(p99 >= 900_000, "p99 = {p99}");
    }
}
