//! The benchmark's output: one line per metric for people, then one JSON
//! object as the last line for tools.

use std::fmt::Write as _;

/// One measured number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// The measured value, unrounded.
    pub value: f64,
    /// Unit, e.g. `ms`, `s`, `1/s`, `count`.
    pub unit: String,
    /// Samples the value summarizes.
    pub samples: usize,
}

/// Everything one benchmark run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (CPIs, or control-plane fingerprints).
    pub attempted: u64,
    /// Attempted operations whose output did not match the reference,
    /// including missing outputs.
    pub failed: u64,
    /// Metrics in print order.
    pub metrics: Vec<Metric>,
    /// Free-form `key=value` lines: machine and input metadata, splits.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Adds a metric.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &str, samples: usize) {
        self.metrics.push(Metric { name: name.into(), value, unit: unit.into(), samples });
    }

    /// Adds a note line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Share of attempted operations that failed.
    pub fn fail_frac(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// True when every attempted operation matched its reference.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }

    /// The human-readable lines followed by the JSON result line.
    pub fn render(&self) -> String {
        let mut s = String::new();
        for n in &self.notes {
            let _ = writeln!(s, "note {n}");
        }
        let _ = writeln!(
            s,
            "check attempted={} failed={} fail_frac={}",
            self.attempted,
            self.failed,
            self.fail_frac()
        );
        for m in &self.metrics {
            let _ = writeln!(s, "metric {} = {} {} (n={})", m.name, m.value, m.unit, m.samples);
        }
        s.push_str(&self.json());
        s.push('\n');
        s
    }

    /// The result object: `correct`, `attempted`, `failed`, `metrics`.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit)
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_is_the_last_line_and_counts_failures() {
        let mut o = Outcome { attempted: 8, failed: 1, ..Outcome::default() };
        o.push("latency_p50_ms", 1.25, "ms", 8);
        o.note("seed=3");
        let text = o.render();
        let last = text.lines().last().expect("output has lines");
        assert_eq!(
            last,
            "{\"correct\": false, \"attempted\": 8, \"failed\": 1, \
             \"metrics\": {\"latency_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
        assert!(text.contains("fail_frac=0.125"));
        assert!(text.contains("metric latency_p50_ms = 1.25 ms (n=8)"));
    }

    #[test]
    fn nothing_attempted_is_not_correct() {
        assert!(!Outcome::default().correct());
    }
}
