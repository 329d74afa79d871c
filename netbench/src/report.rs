//! What one run reports: named metrics with units, and the output checks.

use netband_spec::json::Json;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Output checks of a run. Every failed check, error frame and overload
/// refusal counts in `failed`, against `attempted` operations.
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations attempted (requests on the wire workloads, replications
    /// on `sim-paper`).
    pub attempted: u64,
    /// Error frames + overload refusals + failed checks.
    pub failed: u64,
    /// One line per failure (the first few are printed).
    pub messages: Vec<String>,
}

impl Checks {
    /// Records a check; a false `ok` counts one failure.
    pub fn check(&mut self, ok: bool, message: impl FnOnce() -> String) {
        if !ok {
            self.fail(message());
        }
    }

    /// Records one failure.
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.messages.len() < 32 {
            self.messages.push(message);
        }
    }

    /// Folds another set of checks into this one.
    pub fn absorb(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for m in other.messages {
            if self.messages.len() < 32 {
                self.messages.push(m);
            }
        }
    }
}

/// The result of one run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
    /// Output checks.
    pub checks: Checks,
}

impl Outcome {
    /// Adds a metric.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// The final result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                // A non-finite value (0/0 on a run that did no work) is
                // reported as 0 rather than aborting the report.
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                (
                    m.name.clone(),
                    Json::Object(vec![
                        ("value".into(), Json::from_f64(value)),
                        ("unit".into(), Json::String(m.unit.into())),
                    ]),
                )
            })
            .collect();
        Json::Object(vec![
            (
                "correct".into(),
                Json::Bool(self.checks.failed == 0 && self.checks.attempted > 0),
            ),
            (
                "attempted".into(),
                Json::from_u64(self.checks.attempted.max(1)),
            ),
            ("failed".into(), Json::from_u64(self.checks.failed)),
            ("metrics".into(), Json::Object(metrics)),
        ])
        .to_text()
    }
}
