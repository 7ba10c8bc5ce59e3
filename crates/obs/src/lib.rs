//! Structured observability for the rePLay engine.
//!
//! Every figure in the paper is an *attribution* story — which pass removed
//! which uops, where the cycles went — so the simulator needs more than
//! end-of-run aggregates. This crate provides one type for them: a
//! [`Profile`] of typed metrics ([`Metric`]: monotonic counters,
//! log2-bucketed histograms, and accumulated wall time). Each simulation run
//! and each serving thread records straight into a profile it owns, and
//! [`Profile::merge`] folds them together; because merging is integer
//! addition, the merged profile is bit-identical at any `--jobs` count and
//! in any merge order.
//!
//! Determinism contract: every metric payload is integer (`u64`), merging is
//! addition, and [`Profile`] iteration order is the key's lexicographic
//! order (a `BTreeMap`). The only nondeterministic quantity the crate can
//! hold is wall time, which is confined to [`Metric::DurationNs`]; renderers
//! exclude duration metrics unless explicitly asked (`--timings`), keeping
//! the default output byte-identical run to run.
//!
//! The crate is dependency-free by design (`std` only).

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A log2-bucketed histogram of `u64` samples.
///
/// Bucket 0 holds the value 0; bucket `i` (1..=64) holds values `v` with
/// `bit_length(v) == i`, i.e. the half-open range `[2^(i-1), 2^i)`. All
/// payloads are integers, so merging two histograms is element-wise addition
/// and therefore deterministic regardless of merge order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hist {
    buckets: [u64; 65],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            buckets: [0; 65],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl Hist {
    /// Bucket index for a sample: 0 for 0, otherwise the bit length of `v`.
    pub fn bucket_of(v: u64) -> usize {
        (64 - v.leading_zeros()) as usize
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.buckets[Self::bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample, or 0 if empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample, or 0 if empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample, rounded down; 0 if empty. Integer so rendering stays
    /// deterministic.
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Occupied buckets as `(bucket_low_edge, count)` pairs, ascending.
    /// Bucket 0 reports low edge 0; bucket `i` reports `2^(i-1)`.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c != 0)
            .map(|(i, &c)| (if i == 0 { 0 } else { 1u64 << (i - 1) }, c))
            .collect()
    }

    /// Adds another histogram's samples into this one.
    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += *b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// One typed metric value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Metric {
    /// A monotonic event count; merge = sum.
    Counter(u64),
    /// Accumulated wall time in nanoseconds; merge = sum. The only
    /// nondeterministic metric kind — renderers hide it by default.
    DurationNs(u64),
    /// A log2-bucketed sample distribution; merge = element-wise sum.
    /// Boxed so the common `Counter` variant stays word-sized in the map.
    Hist(Box<Hist>),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::DurationNs(_) => "duration_ns",
            Metric::Hist(_) => "hist",
        }
    }

    fn merge(&mut self, other: &Metric) {
        match (self, other) {
            (Metric::Counter(a), Metric::Counter(b)) => *a += *b,
            (Metric::DurationNs(a), Metric::DurationNs(b)) => *a += *b,
            (Metric::Hist(a), Metric::Hist(b)) => a.merge(b),
            (mine, theirs) => panic!(
                "metric kind mismatch while merging: {} vs {}",
                mine.kind(),
                theirs.kind()
            ),
        }
    }
}

/// A named collection of metrics with deterministic (lexicographic) order.
///
/// Metric names are dot-separated paths (`opt.pass.NOP.removed_uops`,
/// `frame_cache.hits`). Merging two profiles merges matching names and
/// inserts the rest, so `merge` is associative and — because every payload
/// is an integer and a `BTreeMap` orders keys — the result is independent
/// of worker scheduling.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Profile {
    metrics: BTreeMap<String, Metric>,
}

impl Profile {
    /// An empty profile.
    pub fn new() -> Profile {
        Profile::default()
    }

    /// True if no metric has been recorded.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// Number of distinct metric names.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// The metric `name`, inserting `init()` first if it is absent. The
    /// name is copied into an owned key only on insertion, so recording
    /// into an existing metric never allocates.
    fn slot(&mut self, name: &str, init: impl FnOnce() -> Metric) -> &mut Metric {
        if !self.metrics.contains_key(name) {
            self.metrics.insert(name.to_string(), init());
        }
        self.metrics.get_mut(name).expect("inserted above")
    }

    /// Adds `v` to the counter `name`, creating it at zero first.
    pub fn counter_add(&mut self, name: &str, v: u64) {
        match self.slot(name, || Metric::Counter(0)) {
            Metric::Counter(c) => *c += v,
            m => panic!("metric {name} is a {}, not a counter", m.kind()),
        }
    }

    /// Adds `ns` nanoseconds to the duration `name`.
    pub fn duration_add_ns(&mut self, name: &str, ns: u64) {
        match self.slot(name, || Metric::DurationNs(0)) {
            Metric::DurationNs(d) => *d += ns,
            m => panic!("metric {name} is a {}, not a duration", m.kind()),
        }
    }

    /// Records one sample into the histogram `name`.
    pub fn hist_record(&mut self, name: &str, v: u64) {
        match self.slot(name, || Metric::Hist(Box::default())) {
            Metric::Hist(h) => h.record(v),
            m => panic!("metric {name} is a {}, not a histogram", m.kind()),
        }
    }

    /// Adds every sample of `hist` into the histogram `name` — the same
    /// result as recording each sample with [`Profile::hist_record`].
    pub fn hist_merge(&mut self, name: &str, hist: &Hist) {
        match self.slot(name, || Metric::Hist(Box::default())) {
            Metric::Hist(h) => h.merge(hist),
            m => panic!("metric {name} is a {}, not a histogram", m.kind()),
        }
    }

    /// Looks up a metric by name.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.get(name)
    }

    /// The value of counter `name`, or 0 if absent.
    pub fn counter(&self, name: &str) -> u64 {
        match self.metrics.get(name) {
            Some(Metric::Counter(c)) => *c,
            _ => 0,
        }
    }

    /// Iterates metrics in lexicographic name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Metric)> {
        self.metrics.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Merges another profile into this one (sum semantics per metric).
    ///
    /// # Panics
    /// If the same name carries different metric kinds in the two profiles.
    pub fn merge(&mut self, other: &Profile) {
        for (name, theirs) in &other.metrics {
            match self.metrics.get_mut(name) {
                Some(mine) => mine.merge(theirs),
                None => {
                    self.metrics.insert(name.clone(), theirs.clone());
                }
            }
        }
    }

    /// Renders the profile as an aligned two-column table. Duration metrics
    /// are nondeterministic wall time and are included only when
    /// `include_timings` is set, keeping the default rendering byte-identical
    /// across runs and job counts.
    pub fn render_table(&self, include_timings: bool) -> String {
        let mut rows: Vec<(String, String)> = Vec::new();
        for (name, metric) in self.iter() {
            match metric {
                Metric::Counter(c) => rows.push((name.to_string(), c.to_string())),
                Metric::DurationNs(ns) => {
                    if include_timings {
                        rows.push((name.to_string(), format_ns(*ns)));
                    }
                }
                Metric::Hist(h) => rows.push((
                    name.to_string(),
                    format!(
                        "n={} sum={} min={} mean={} max={}",
                        h.count(),
                        h.sum(),
                        h.min(),
                        h.mean(),
                        h.max()
                    ),
                )),
            }
        }
        let width = rows.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
        let mut out = String::new();
        for (name, value) in rows {
            let _ = writeln!(out, "  {name:<width$}  {value}");
        }
        out
    }

    /// Serializes the profile as a stable JSON object:
    ///
    /// ```json
    /// { "schema": "replay-obs/v1",
    ///   "metrics": { "<name>": {"type":"counter","value":N}
    ///              | {"type":"duration_ns","value":N}
    ///              | {"type":"hist","count":N,"sum":N,"min":N,"max":N,
    ///                 "buckets":[[low_edge,count],...]} } }
    /// ```
    ///
    /// Keys appear in lexicographic order; duration metrics are included
    /// only when `include_timings` is set.
    pub fn to_json(&self, include_timings: bool) -> String {
        let mut out = String::from("{\"schema\":\"replay-obs/v1\",\"metrics\":{");
        let mut first = true;
        for (name, metric) in self.iter() {
            let body = match metric {
                Metric::Counter(c) => format!("{{\"type\":\"counter\",\"value\":{c}}}"),
                Metric::DurationNs(ns) => {
                    if !include_timings {
                        continue;
                    }
                    format!("{{\"type\":\"duration_ns\",\"value\":{ns}}}")
                }
                Metric::Hist(h) => {
                    let buckets: Vec<String> = h
                        .nonzero_buckets()
                        .into_iter()
                        .map(|(lo, c)| format!("[{lo},{c}]"))
                        .collect();
                    format!(
                        "{{\"type\":\"hist\",\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"buckets\":[{}]}}",
                        h.count(),
                        h.sum(),
                        h.min(),
                        h.max(),
                        buckets.join(",")
                    )
                }
            };
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(out, "{}:{}", json_string(name), body);
        }
        out.push_str("}}");
        out
    }
}

/// Escapes a string as a JSON string literal.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Human-readable nanoseconds (`1.234ms` style) for the timings table.
fn format_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!(
            "{}.{:03}s",
            ns / 1_000_000_000,
            (ns % 1_000_000_000) / 1_000_000
        )
    } else if ns >= 1_000_000 {
        format!("{}.{:03}ms", ns / 1_000_000, (ns % 1_000_000) / 1_000)
    } else if ns >= 1_000 {
        format!("{}.{:03}us", ns / 1_000, ns % 1_000)
    } else {
        format!("{ns}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hist_buckets_are_log2() {
        assert_eq!(Hist::bucket_of(0), 0);
        assert_eq!(Hist::bucket_of(1), 1);
        assert_eq!(Hist::bucket_of(2), 2);
        assert_eq!(Hist::bucket_of(3), 2);
        assert_eq!(Hist::bucket_of(4), 3);
        assert_eq!(Hist::bucket_of(255), 8);
        assert_eq!(Hist::bucket_of(256), 9);
        assert_eq!(Hist::bucket_of(u64::MAX), 64);
    }

    #[test]
    fn hist_stats() {
        let mut h = Hist::default();
        for v in [0, 1, 3, 8] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 12);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 8);
        assert_eq!(h.mean(), 3);
        assert_eq!(h.nonzero_buckets(), vec![(0, 1), (1, 1), (2, 1), (8, 1)]);
    }

    #[test]
    fn profile_merge_sums() {
        let mut a = Profile::new();
        a.counter_add("x", 2);
        a.hist_record("h", 4);
        let mut b = Profile::new();
        b.counter_add("x", 3);
        b.counter_add("y", 1);
        b.hist_record("h", 4);
        a.merge(&b);
        assert_eq!(a.counter("x"), 5);
        assert_eq!(a.counter("y"), 1);
        match a.get("h") {
            Some(Metric::Hist(h)) => assert_eq!(h.count(), 2),
            m => panic!("unexpected {m:?}"),
        }
    }

    #[test]
    fn hist_merge_equals_recording_each_sample() {
        let mut h = Hist::default();
        let mut one_by_one = Profile::new();
        for v in [5, 0, 17, 3] {
            h.record(v);
            one_by_one.hist_record("h", v);
        }
        let mut merged = Profile::new();
        merged.hist_merge("h", &h);
        assert_eq!(merged, one_by_one);
    }

    #[test]
    fn merge_is_order_independent() {
        let shards: Vec<Profile> = (1..=3)
            .map(|n| {
                let mut p = Profile::new();
                p.counter_add("c", n);
                p.hist_record("h", n);
                p.duration_add_ns("t", n);
                p
            })
            .collect();
        let mut forward = Profile::new();
        for p in &shards {
            forward.merge(p);
        }
        let mut reversed = Profile::new();
        for p in shards.iter().rev() {
            reversed.merge(p);
        }
        assert_eq!(forward, reversed);
        for timings in [false, true] {
            assert_eq!(forward.to_json(timings), reversed.to_json(timings));
            assert_eq!(
                forward.render_table(timings),
                reversed.render_table(timings)
            );
        }
        assert_eq!(forward.counter("c"), 6);
        match forward.get("h") {
            Some(Metric::Hist(h)) => assert_eq!((h.min(), h.max()), (1, 3)),
            m => panic!("unexpected {m:?}"),
        }
    }

    #[test]
    fn json_is_stable_and_escaped() {
        let mut p = Profile::new();
        p.counter_add("b.count", 1);
        p.counter_add("a.count", 2);
        let js = p.to_json(false);
        assert_eq!(
            js,
            "{\"schema\":\"replay-obs/v1\",\"metrics\":{\"a.count\":{\"type\":\"counter\",\"value\":2},\"b.count\":{\"type\":\"counter\",\"value\":1}}}"
        );
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
    }

    #[test]
    fn format_ns_units() {
        assert_eq!(format_ns(17), "17ns");
        assert_eq!(format_ns(1_500), "1.500us");
        assert_eq!(format_ns(2_000_000), "2.000ms");
        assert_eq!(format_ns(3_456_000_000), "3.456s");
    }
}
