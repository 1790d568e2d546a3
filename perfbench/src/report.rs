//! What one run reports: named metrics with units and sample counts, the
//! operation tally, and oracle mismatches.

use std::fmt::Write as _;

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples the value was derived from.
    pub samples: usize,
}

/// Mismatch descriptions kept for the log; the count is always exact.
const KEEP_MISMATCHES: usize = 20;

#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    /// Operations attempted and failed (refused replies, skipped
    /// observations, window errors and oracle mismatches).
    pub attempted: u64,
    pub failed: u64,
    pub mismatches: u64,
    mismatch_log: Vec<String>,
    /// Human-readable context printed with the metrics.
    pub notes: Vec<String>,
}

impl Report {
    /// Records a metric; a later value under the same name replaces it.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.retain(|m| m.name != name);
        self.metrics.push(Metric { name, value, unit, samples });
    }

    pub fn note(&mut self, note: String) {
        self.notes.push(note);
    }

    /// An output that disagrees with its oracle: a failed operation that
    /// also makes the run incorrect.
    pub fn mismatch(&mut self, what: String) {
        self.mismatches += 1;
        self.failed += 1;
        if self.mismatch_log.len() < KEEP_MISMATCHES {
            self.mismatch_log.push(what);
        }
    }

    /// Checks `expected == actual`, recording a mismatch named `what`.
    pub fn check<T: PartialEq + std::fmt::Debug>(&mut self, what: &str, expected: T, actual: T) {
        if expected != actual {
            self.mismatch(format!("{what}: expected {expected:?}, got {actual:?}"));
        }
    }

    pub fn correct(&self) -> bool {
        self.mismatches == 0
    }

    /// The human-readable block for stderr.
    pub fn render(&self, title: &str) -> String {
        let mut out = format!("== {title}\n");
        for m in &self.metrics {
            let _ =
                writeln!(out, "  {:<34} {:>16.6} {:<7} (n={})", m.name, m.value, m.unit, m.samples);
        }
        let ratio =
            if self.attempted > 0 { self.failed as f64 / self.attempted as f64 } else { 0.0 };
        let _ = writeln!(
            out,
            "  failed_ratio {ratio:.6} ({} of {} operations), oracle mismatches {}",
            self.failed, self.attempted, self.mismatches
        );
        for note in &self.notes {
            let _ = writeln!(out, "  {note}");
        }
        for what in &self.mismatch_log {
            let _ = writeln!(out, "  MISMATCH {what}");
        }
        out
    }

    /// The one-line JSON result: `correct`, `attempted`, `failed` and every
    /// metric with its unit.
    pub fn json(&self) -> Result<String, String> {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if !m.value.is_finite() {
                return Err(format!("metric {} is not a finite number", m.name));
            }
            let sep = if i == 0 { "" } else { ", " };
            // `{:?}` keeps every digit and always a decimal point or exponent.
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        out.push_str("}}");
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_carries_every_metric_with_its_unit() {
        let mut r = Report { attempted: 10, ..Report::default() };
        r.metric("latency_p50_ms", 1.25, "ms", 100);
        r.metric("setup_s", 0.5, "s", 3);
        r.metric("latency_p50_ms", 1.5, "ms", 100);
        assert_eq!(
            r.json().unwrap(),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \
             \"latency_p50_ms\": {\"value\": 1.5, \"unit\": \"ms\"}}}"
        );
        r.check("pushes", 3, 4);
        assert!(!r.correct());
        assert!(r
            .json()
            .unwrap()
            .starts_with("{\"correct\": false, \"attempted\": 10, \"failed\": 1"));
        r.metric("bad", f64::NAN, "ms", 0);
        assert!(r.json().is_err());
    }
}
