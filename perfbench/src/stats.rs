//! Exact quantiles over raw per-call samples, and the emitter for the
//! result line. Quantiles never come from the program's log2 histograms:
//! every timed call is kept and ranked.

use std::collections::BTreeMap;
use std::time::Instant;

/// Raw samples of one quantity, in recording order.
#[derive(Clone, Debug, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn extend(&mut self, other: &Samples) {
        self.0.extend_from_slice(&other.0);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    /// Nearest-rank quantile: the smallest sample with at least `q·n`
    /// samples at or below it. Always one of the recorded values.
    ///
    /// # Panics
    /// On an empty sample set or `q` outside `(0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!(!self.0.is_empty(), "quantile of no samples");
        assert!(q > 0.0 && q <= 1.0, "quantile {q} outside (0, 1]");
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        let rank = (q * v.len() as f64).ceil() as usize;
        v[rank.clamp(1, v.len()) - 1]
    }

    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }
}

impl From<Vec<f64>> for Samples {
    fn from(v: Vec<f64>) -> Samples {
        Samples(v)
    }
}

/// The fastest replay of each operation. Each item of `replays` times the
/// same operations in the same order. Noise on a shared host only adds
/// time, so an operation's fastest replay is the best estimate of its own
/// cost.
///
/// # Panics
/// On no replays, or on replays of different lengths.
pub fn best_replays<'a>(replays: impl IntoIterator<Item = &'a Samples>) -> Samples {
    let mut it = replays.into_iter();
    let mut best = it.next().expect("at least one replay").clone();
    for r in it {
        assert_eq!(r.len(), best.len(), "replays time different operations");
        for (b, &v) in best.0.iter_mut().zip(&r.0) {
            *b = b.min(v);
        }
    }
    best
}

/// Seconds since `t0`.
pub fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// Named metrics with units, in insertion order, plus the sample count
/// behind each percentile.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    values: Vec<(&'static str, f64, &'static str)>,
    counts: BTreeMap<&'static str, usize>,
}

impl Metrics {
    /// Record `name = value unit`.
    ///
    /// # Panics
    /// If `name` is recorded twice or `value` is not finite (JSON has no
    /// NaN or infinity).
    pub fn set(&mut self, name: &'static str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        assert!(
            self.values.iter().all(|(n, ..)| *n != name),
            "metric {name} recorded twice"
        );
        self.values.push((name, value, unit));
    }

    /// Record a quantile of `s` together with its sample count.
    pub fn quantile(
        &mut self,
        name: &'static str,
        s: &Samples,
        q: f64,
        scale: f64,
        unit: &'static str,
    ) {
        self.set(name, s.quantile(q) * scale, unit);
        self.counts.insert(name, s.len());
    }

    /// Take over `other`'s sample counts for the names recorded here.
    pub fn copy_counts(&mut self, other: &Metrics) {
        for (&n, &c) in &other.counts {
            if self.get(n).is_some() {
                self.counts.insert(n, c);
            }
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, ..)| *n == name).map(|e| e.1)
    }

    pub fn names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.values.iter().map(|e| e.0)
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}`
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .values
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", num(*v)))
            .collect();
        format!("{{{}}}", body.join(", "))
    }

    /// `{"name": samples, ...}` for every quantile metric.
    pub fn counts_json(&self) -> String {
        let body: Vec<String> = self
            .counts
            .iter()
            .map(|(n, c)| format!("\"{n}\": {c}"))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// A finite f64 as a JSON number, with every digit of Rust's shortest
/// round-trip formatting (which never uses exponent notation).
pub fn num(v: f64) -> String {
    assert!(v.is_finite(), "JSON numbers must be finite: {v}");
    format!("{v}")
}

/// The benchmark's last stdout line.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.to_json()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(v: &[f64]) -> Samples {
        let mut s = Samples::default();
        v.iter().for_each(|&x| s.push(x));
        s
    }

    #[test]
    fn nearest_rank_quantiles_are_exact_samples() {
        let s = samples(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!(s.median(), 3.0);
        assert_eq!(s.quantile(0.2), 1.0);
        assert_eq!(s.quantile(0.21), 2.0);
        assert_eq!(s.quantile(1.0), 5.0);
        let hundred = samples(&(1..=100).rev().map(f64::from).collect::<Vec<_>>());
        assert_eq!(hundred.quantile(0.9), 90.0);
        assert_eq!(hundred.quantile(0.99), 99.0);
        assert_eq!(hundred.median(), 50.0);
        // A single sample is every quantile.
        assert_eq!(samples(&[7.5]).quantile(0.9), 7.5);
    }

    #[test]
    fn best_replays_keep_each_operations_fastest_time() {
        let best = best_replays(&[samples(&[3.0, 1.0, 5.0]), samples(&[2.0, 4.0, 6.0])]);
        assert_eq!(best.0, [2.0, 1.0, 5.0]);
        assert_eq!(best_replays(&[samples(&[7.0])]).0, [7.0]);
    }

    #[test]
    #[should_panic(expected = "different operations")]
    fn best_replays_reject_misaligned_replays() {
        best_replays(&[samples(&[1.0]), samples(&[1.0, 2.0])]);
    }

    #[test]
    #[should_panic(expected = "quantile of no samples")]
    fn empty_quantile_panics() {
        Samples::default().median();
    }

    #[test]
    fn result_line_has_the_contract_shape() {
        let mut m = Metrics::default();
        m.set("setup_s", 0.8127, "s");
        m.quantile("op_p50_ms", &samples(&[2.0, 1.0, 3.0]), 0.5, 1e3, "ms");
        m.set("count", 239672.0, "count");
        let line = result_line(true, 3, 0, &m);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}, \
             \"op_p50_ms\": {\"value\": 2000, \"unit\": \"ms\"}, \
             \"count\": {\"value\": 239672, \"unit\": \"count\"}}}"
        );
        assert_eq!(m.counts_json(), "{\"op_p50_ms\": 3}");
        assert_eq!(
            m.names().collect::<Vec<_>>(),
            ["setup_s", "op_p50_ms", "count"]
        );
    }

    #[test]
    fn numbers_keep_all_digits() {
        assert_eq!(num(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(num(1e-9), "0.000000001");
        assert_eq!(num(-3.0), "-3");
        assert_eq!(num(1e21), "1000000000000000000000");
    }

    #[test]
    #[should_panic(expected = "recorded twice")]
    fn duplicate_metric_panics() {
        let mut m = Metrics::default();
        m.set("a", 1.0, "s");
        m.set("a", 2.0, "s");
    }

    #[test]
    #[should_panic(expected = "not finite")]
    fn nan_metric_panics() {
        Metrics::default().set("a", f64::NAN, "s");
    }
}
