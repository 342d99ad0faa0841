//! Metric collection, correctness checks and the result line.

use std::fmt::Write as _;

/// One reported metric. `samples` is how many observations the value
/// summarises (ticks for a percentile, set-ups for a median, lines for a
/// per-line cost).
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub samples: usize,
}

/// Everything one run produced.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<(String, bool)>,
    pub metrics: Vec<Metric>,
    pub notes: Vec<String>,
}

impl Report {
    pub fn check(&mut self, what: impl Into<String>, ok: bool) {
        self.checks.push((what.into(), ok));
    }

    pub fn metric(
        &mut self,
        name: impl Into<String>,
        unit: &'static str,
        value: f64,
        samples: usize,
    ) {
        self.metrics.push(Metric {
            name: name.into(),
            unit,
            value,
            samples,
        });
    }

    pub fn note(&mut self, text: impl Into<String>) {
        self.notes.push(text.into());
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok)| *ok)
    }

    /// The human-readable table, then the one-line JSON result. A run that
    /// failed a check reports its metrics as failed (`null`), not as
    /// numbers.
    pub fn render(&self, workload: &str) -> String {
        let correct = self.correct();
        let mut out = String::new();
        for note in &self.notes {
            let _ = writeln!(out, "# {note}");
        }
        for (what, ok) in &self.checks {
            let _ = writeln!(out, "check {} {what}", if *ok { "ok  " } else { "FAIL" });
        }
        for m in &self.metrics {
            if correct {
                let _ = writeln!(
                    out,
                    "{workload:<13} {:<44} {:>16.6} {:<6} n={}",
                    m.name, m.value, m.unit, m.samples
                );
            } else {
                let _ = writeln!(
                    out,
                    "{workload:<13} {:<44} {:>16} {:<6} n={} (measured {:.6})",
                    m.name, "FAILED", m.unit, m.samples, m.value
                );
            }
        }
        let mut json = format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                json.push_str(", ");
            }
            let value = if correct && m.value.is_finite() {
                format!("{}", m.value)
            } else {
                "null".to_string()
            };
            let _ = write!(
                json,
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        json.push_str("}}");
        out.push_str(&json);
        out.push('\n');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failed_runs_report_no_numbers() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        r.metric("setup_s", "s", 1.25, 3);
        r.check("receipts", true);
        let ok = r.render("w");
        let last = ok.lines().last().unwrap();
        assert_eq!(
            last,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
        r.check("counters reconcile", false);
        let bad = r.render("w");
        assert!(bad.lines().last().unwrap().contains("\"correct\": false"));
        assert!(bad.lines().last().unwrap().contains("\"value\": null"));
        assert!(bad.contains("FAILED"));
    }
}
