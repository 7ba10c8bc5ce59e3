//! Sample statistics and the result format.
//!
//! Every timing the benchmark reports is a median, a percentile over
//! operations, or a sum of fastest repeats ([`best_of`]); [`tail`]
//! implements the percentile rule (the highest percentile with at least ten
//! samples beyond it), and [`unattributed`] the residual that keeps the
//! per-layer split honest.

use std::fmt::Write as _;

/// The median of `samples` (mean of the two middle values for an even
/// count); 0.0 for no samples.
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The time one round of repeated operations takes without host
/// interference: each operation's fastest repeat, summed. `per_op` holds
/// the timings of every repeat, by operation.
///
/// On a shared host, slowdowns come in bursts of seconds that hit whole
/// passes; a deterministic operation's fastest repeat is its own cost.
pub fn best_of(per_op: &[Vec<f64>]) -> f64 {
    per_op
        .iter()
        .filter(|v| !v.is_empty())
        .map(|v| v.iter().copied().fold(f64::INFINITY, f64::min))
        .sum()
}

/// Every execution of every operation, valued at that operation's fastest
/// repeat: the latency distribution of deterministic operations with the
/// host's bursts taken out, one sample per execution. `per_op` is as for
/// [`best_of`].
pub fn at_fastest(per_op: &[Vec<f64>]) -> Vec<f64> {
    per_op
        .iter()
        .flat_map(|v| {
            let fastest = v.iter().copied().fold(f64::INFINITY, f64::min);
            std::iter::repeat_n(fastest, v.len())
        })
        .collect()
}

/// A nearest-rank percentile of a sample set, with the number of samples
/// that lie strictly beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// Which percentile (99.0, 95.0, ...).
    pub pct: f64,
    /// Its value.
    pub value: f64,
    /// Samples strictly greater than it.
    pub beyond: usize,
    /// Total samples.
    pub count: usize,
}

/// The nearest-rank `pct`-th percentile: the smallest sample with at least
/// `pct`% of the samples at or below it.
pub fn percentile(samples: &[f64], pct: f64) -> Percentile {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    // `pct * n` first: exact for integral percentiles, so p99 of 1000
    // samples is rank 990, not 991 through a rounded 0.99.
    let rank = ((pct * n as f64) / 100.0).ceil().max(1.0) as usize;
    let value = if n == 0 { 0.0 } else { v[rank.min(n) - 1] };
    Percentile {
        pct,
        value,
        // Samples tied with the value are not beyond it.
        beyond: v.iter().filter(|&&x| x > value).count(),
        count: n,
    }
}

/// Percentiles tried for the tail, highest first.
pub const TAIL_LADDER: [f64; 5] = [99.0, 95.0, 90.0, 75.0, 50.0];

/// Fewest samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The tail latency to report: p99 when at least [`TAIL_MIN_BEYOND`]
/// samples lie beyond it, otherwise the next lower percentile of
/// [`TAIL_LADDER`] that has them, and the median as the last resort.
pub fn tail(samples: &[f64]) -> Percentile {
    for pct in TAIL_LADDER {
        let p = percentile(samples, pct);
        if p.beyond >= TAIL_MIN_BEYOND {
            return p;
        }
    }
    percentile(samples, 50.0)
}

/// The part of `total` that no measured layer accounts for. Never clamped:
/// a negative residual means the layers were over-counted and must show.
pub fn unattributed(total: f64, layers: &[f64]) -> f64 {
    total - layers.iter().sum::<f64>()
}

/// `num / den`, or 0.0 when `den` is zero.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// How many samples the value summarizes (1 for a single count).
    pub samples: usize,
}

/// Collects metrics in report order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Adds a metric.
    pub fn add(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.0.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    /// Looks a metric up by name.
    #[cfg(test)]
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.0.iter().find(|m| m.name == name)
    }
}

/// A finite JSON number: non-finite values (which no metric should
/// produce) are written as 0 so the document stays valid.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`,
/// each metric as `{"value", "unit"}`.
pub fn result_line(attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        failed == 0,
        attempted.max(1),
        failed
    );
    for (i, m) in metrics.0.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_num(m.value),
            m.unit
        );
    }
    out.push_str("}}");
    out
}

/// Escapes a string for a JSON document.
pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
pub mod json {
    //! A minimal JSON reader for the tests that check result files against
    //! `BENCHMARK.json`.

    use std::collections::BTreeMap;

    #[derive(Debug, Clone, PartialEq)]
    pub enum Value {
        Null,
        Bool(bool),
        Num(f64),
        Str(String),
        Arr(Vec<Value>),
        Obj(BTreeMap<String, Value>),
    }

    impl Value {
        pub fn get(&self, key: &str) -> Option<&Value> {
            match self {
                Value::Obj(m) => m.get(key),
                _ => None,
            }
        }
        pub fn as_str(&self) -> Option<&str> {
            match self {
                Value::Str(s) => Some(s),
                _ => None,
            }
        }
        pub fn as_arr(&self) -> &[Value] {
            match self {
                Value::Arr(a) => a,
                _ => &[],
            }
        }
        pub fn as_obj(&self) -> Option<&BTreeMap<String, Value>> {
            match self {
                Value::Obj(m) => Some(m),
                _ => None,
            }
        }
    }

    pub fn parse(s: &str) -> Result<Value, String> {
        let mut p = Parser {
            b: s.as_bytes(),
            i: 0,
        };
        let v = p.value()?;
        p.ws();
        if p.i != p.b.len() {
            return Err(format!("trailing bytes at {}", p.i));
        }
        Ok(v)
    }

    struct Parser<'a> {
        b: &'a [u8],
        i: usize,
    }

    impl Parser<'_> {
        fn ws(&mut self) {
            while self.i < self.b.len() && self.b[self.i].is_ascii_whitespace() {
                self.i += 1;
            }
        }
        fn eat(&mut self, c: u8) -> Result<(), String> {
            self.ws();
            if self.b.get(self.i) == Some(&c) {
                self.i += 1;
                Ok(())
            } else {
                Err(format!("expected {:?} at {}", c as char, self.i))
            }
        }
        fn value(&mut self) -> Result<Value, String> {
            self.ws();
            match self.b.get(self.i) {
                Some(b'{') => {
                    self.i += 1;
                    let mut m = BTreeMap::new();
                    self.ws();
                    if self.b.get(self.i) == Some(&b'}') {
                        self.i += 1;
                        return Ok(Value::Obj(m));
                    }
                    loop {
                        self.ws();
                        let Value::Str(k) = self.value()? else {
                            return Err(format!("object key at {}", self.i));
                        };
                        self.eat(b':')?;
                        let v = self.value()?;
                        if m.insert(k.clone(), v).is_some() {
                            return Err(format!("duplicate key {k}"));
                        }
                        self.ws();
                        match self.b.get(self.i) {
                            Some(b',') => self.i += 1,
                            Some(b'}') => {
                                self.i += 1;
                                return Ok(Value::Obj(m));
                            }
                            _ => return Err(format!("bad object at {}", self.i)),
                        }
                    }
                }
                Some(b'[') => {
                    self.i += 1;
                    let mut a = Vec::new();
                    self.ws();
                    if self.b.get(self.i) == Some(&b']') {
                        self.i += 1;
                        return Ok(Value::Arr(a));
                    }
                    loop {
                        a.push(self.value()?);
                        self.ws();
                        match self.b.get(self.i) {
                            Some(b',') => self.i += 1,
                            Some(b']') => {
                                self.i += 1;
                                return Ok(Value::Arr(a));
                            }
                            _ => return Err(format!("bad array at {}", self.i)),
                        }
                    }
                }
                Some(b'"') => {
                    self.i += 1;
                    let mut s = String::new();
                    while let Some(&c) = self.b.get(self.i) {
                        self.i += 1;
                        match c {
                            b'"' => return Ok(Value::Str(s)),
                            b'\\' => {
                                let e = *self.b.get(self.i).ok_or("dangling escape")?;
                                self.i += 1;
                                s.push(match e {
                                    b'n' => '\n',
                                    b't' => '\t',
                                    other => other as char,
                                });
                            }
                            c => s.push(c as char),
                        }
                    }
                    Err("unterminated string".to_string())
                }
                Some(b't') if self.b[self.i..].starts_with(b"true") => {
                    self.i += 4;
                    Ok(Value::Bool(true))
                }
                Some(b'f') if self.b[self.i..].starts_with(b"false") => {
                    self.i += 5;
                    Ok(Value::Bool(false))
                }
                Some(b'n') if self.b[self.i..].starts_with(b"null") => {
                    self.i += 4;
                    Ok(Value::Null)
                }
                Some(_) => {
                    let start = self.i;
                    while self.i < self.b.len()
                        && matches!(
                            self.b[self.i],
                            b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'
                        )
                    {
                        self.i += 1;
                    }
                    std::str::from_utf8(&self.b[start..self.i])
                        .ok()
                        .and_then(|t| t.parse().ok())
                        .map(Value::Num)
                        .ok_or_else(|| format!("bad number at {start}"))
                }
                None => Err("unexpected end".to_string()),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn best_of_sums_each_operations_fastest_repeat() {
        let per_op = vec![vec![3.0, 1.0, 2.0], vec![5.0], vec![], vec![4.0, 4.5]];
        assert_eq!(best_of(&per_op), 1.0 + 5.0 + 4.0);
        assert_eq!(best_of(&[]), 0.0);
    }

    #[test]
    fn at_fastest_values_every_execution_at_its_operations_best() {
        let per_op = vec![vec![3.0, 1.0, 2.0], vec![5.0], vec![]];
        assert_eq!(at_fastest(&per_op), [1.0, 1.0, 1.0, 5.0]);
    }

    #[test]
    fn samples_tied_with_a_percentile_are_not_beyond_it() {
        // p99 of these 1000 samples is 2.0 with nothing beyond it; p95 is
        // 1.0 with the twenty 2.0s beyond it.
        let mut s = vec![1.0; 980];
        s.extend([2.0; 20]);
        let t = tail(&s);
        assert_eq!((t.pct, t.value, t.beyond, t.count), (95.0, 1.0, 20, 1000));
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 1000 samples: p99 is rank 990, with exactly 10 beyond.
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&s);
        assert_eq!((t.pct, t.value, t.beyond, t.count), (99.0, 990.0, 10, 1000));
        // 999 samples: p99 is rank 990 with 9 beyond, so p95 (rank 950,
        // 49 beyond) is reported instead, with its count.
        let t = tail(&s[..999]);
        assert_eq!((t.pct, t.value, t.beyond, t.count), (95.0, 950.0, 49, 999));
    }

    #[test]
    fn tail_falls_down_the_ladder_to_the_median() {
        // 100 samples: p99/p95 have 1/5 beyond; p90 has exactly 10.
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&s);
        assert_eq!((t.pct, t.value, t.beyond), (90.0, 90.0, 10));
        // 30 samples: only p50 (rank 15, 15 beyond) qualifies.
        let t = tail(&s[..30]);
        assert_eq!((t.pct, t.value, t.beyond), (50.0, 15.0, 15));
        // 5 samples: nothing has ten beyond; the median is the fallback.
        let t = tail(&s[..5]);
        assert_eq!((t.pct, t.value, t.beyond, t.count), (50.0, 3.0, 2, 5));
    }

    #[test]
    fn unattributed_is_total_minus_layers_and_may_go_negative() {
        assert!((unattributed(10.0, &[2.0, 3.5, 0.5]) - 4.0).abs() < 1e-12);
        assert_eq!(unattributed(5.0, &[]), 5.0);
        assert!((unattributed(1.0, &[0.75, 0.5]) + 0.25).abs() < 1e-12);
        // The layers plus the residual always add back up to the total.
        let layers = [0.125, 1.5, 2.25];
        let r = unattributed(7.0, &layers);
        assert_eq!(r + layers.iter().sum::<f64>(), 7.0);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut m = Metrics::default();
        m.add("latency_ms", 1.25, "ms", 10);
        m.add("setup_s", 0.5, "s", 3);
        let line = result_line(7, 0, &m);
        let v = json::parse(&line).unwrap();
        let keys: Vec<&String> = v.as_obj().unwrap().keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(v.get("correct"), Some(&json::Value::Bool(true)));
        let lat = v.get("metrics").unwrap().get("latency_ms").unwrap();
        assert_eq!(lat.get("value"), Some(&json::Value::Num(1.25)));
        assert_eq!(lat.get("unit").unwrap().as_str(), Some("ms"));
        assert_eq!(lat.as_obj().unwrap().len(), 2);
        // A failure flips `correct`; attempted is never reported as 0.
        let v = json::parse(&result_line(0, 1, &m)).unwrap();
        assert_eq!(v.get("correct"), Some(&json::Value::Bool(false)));
        assert_eq!(v.get("attempted"), Some(&json::Value::Num(1.0)));
    }
}
