//! The metric names the benchmark prints, and the result line.
//!
//! The names and units are the ones `BENCHMARK.json` declares, read from it
//! at build time; `Metrics::set` refuses any other name, and
//! `Metrics::json` refuses to print a set with a declared name missing.

use std::sync::OnceLock;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// A list of metrics in `BENCHMARK.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Section {
    /// Printed with `--trace 0`.
    EndToEnd,
    /// Printed with `--trace 1`.
    PerLayer,
}

/// `(name, unit)` of every metric of a section, in declaration order.
pub fn declared(section: Section) -> &'static [(String, String)] {
    static END_TO_END: OnceLock<Vec<(String, String)>> = OnceLock::new();
    static PER_LAYER: OnceLock<Vec<(String, String)>> = OnceLock::new();
    match section {
        Section::EndToEnd => END_TO_END.get_or_init(|| parse(BENCHMARK_JSON, "end_to_end")),
        Section::PerLayer => PER_LAYER.get_or_init(|| parse(BENCHMARK_JSON, "per_layer")),
    }
}

/// The `name` and `unit` of every object in the array under `key`. The file
/// is the benchmark's own, a flat array of flat objects whose strings hold
/// no escapes, so a scan is enough.
fn parse(json: &str, key: &str) -> Vec<(String, String)> {
    let start = json
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("the array ends")];
    body.split('{')
        .skip(1)
        .map(|entry| {
            let field = |k: &str| {
                let at = entry
                    .find(&format!("\"{k}\""))
                    .unwrap_or_else(|| panic!("a {key} entry has no {k}"))
                    + k.len()
                    + 2;
                let rest = &entry[at..];
                let open = rest.find('"').expect("a string value") + 1;
                let len = rest[open..].find('"').expect("the string ends");
                rest[open..open + len].to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// One set of metric values, in declaration order.
pub struct Metrics {
    decl: &'static [(String, String)],
    values: Vec<Option<f64>>,
}

impl Metrics {
    pub fn new(section: Section) -> Self {
        let decl = declared(section);
        Metrics {
            decl,
            values: vec![None; decl.len()],
        }
    }

    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .decl
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not declared"));
        self.values[i] = Some(value);
    }

    /// The `metrics` object of the result line.
    pub fn json(&self) -> String {
        let fields: Vec<String> = self
            .decl
            .iter()
            .zip(&self.values)
            .map(|((name, unit), v)| {
                let v = v.unwrap_or_else(|| panic!("metric {name} was never set"));
                assert!(v.is_finite(), "metric {name} is {v}");
                format!("\"{name}\":{{\"value\":{v:?},\"unit\":\"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", fields.join(","))
    }
}

/// The result line: the last line the benchmark prints.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{}}}",
        metrics.json()
    )
}

/// Median of a non-empty sample.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q ∈ [0, 1]` of a non-empty sample.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn printed_metric_names_are_valid_and_distinct() {
        let (e2e, layer) = (declared(Section::EndToEnd), declared(Section::PerLayer));
        assert_eq!(e2e.len(), 4);
        assert_eq!(layer.len(), 29);
        for (name, unit) in e2e.iter().chain(layer) {
            assert!(valid_name(name), "bad metric name {name}");
            assert!(valid_unit(unit), "bad unit {unit}");
        }
        let mut all: Vec<&str> = e2e.iter().chain(layer).map(|m| m.0.as_str()).collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), e2e.len() + layer.len(), "names repeat");
    }

    #[test]
    fn the_rationale_maps_every_per_layer_metric() {
        let text = include_str!("../rationale.json");
        let mapped: Vec<&str> = text
            .split("{\"metric\": \"")
            .skip(1)
            .map(|s| &s[..s.find('"').expect("end of metric name")])
            .collect();
        let declared: Vec<&str> = declared(Section::PerLayer)
            .iter()
            .map(|m| m.0.as_str())
            .collect();
        assert_eq!(mapped, declared);
    }

    #[test]
    fn result_line_carries_every_metric_with_its_unit() {
        let mut m = Metrics::new(Section::EndToEnd);
        for (i, (name, _)) in declared(Section::EndToEnd).iter().enumerate() {
            m.set(name, i as f64 + 0.5);
        }
        let line = result_line(true, 10, 0, &m);
        assert!(line.starts_with("{\"correct\":true,\"attempted\":10,\"failed\":0,"));
        assert!(line.contains("\"setup_s\":{\"value\":1.5,\"unit\":\"s\"}"));
    }

    #[test]
    #[should_panic(expected = "never set")]
    fn a_missing_metric_is_refused() {
        Metrics::new(Section::EndToEnd).json();
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn an_undeclared_metric_is_refused() {
        Metrics::new(Section::PerLayer).set("run_s", 1.0);
    }

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.99), 9.9);
    }
}
