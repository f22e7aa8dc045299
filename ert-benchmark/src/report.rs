//! The result of one benchmark run and its two JSON renderings: the
//! contract line printed last on standard output, and the richer
//! record `--out` appends for `ert-benchmark compare`.

use std::collections::BTreeMap;

use ert_obs::Json;
use serde::json::{write_escaped, write_f64};

/// One named value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value, all digits.
    pub value: f64,
    /// Unit.
    pub unit: String,
}

/// Everything one run of one workload produced.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Workload name.
    pub workload: String,
    /// Run seed.
    pub seed: u64,
    /// True for the traced pass (per-layer metrics), false for the
    /// untraced pass (end-to-end metrics).
    pub traced: bool,
    /// True when every correctness check passed.
    pub correct: bool,
    /// Lookups issued over the whole sweep.
    pub attempted: u64,
    /// Lookups that did not complete.
    pub failed: u64,
    /// The metrics, in table order.
    pub metrics: Vec<Metric>,
    /// Per-world samples behind the host-time metrics, by metric name.
    pub samples: BTreeMap<String, Vec<f64>>,
    /// Hash over every world's serialized report: equal fingerprints
    /// mean bit-identical simulated outcomes. For spotting drift; not a
    /// metric.
    pub fingerprint: String,
    /// What failed, when `correct` is false.
    pub errors: Vec<String>,
}

impl RunResult {
    /// Looks a metric value up by name.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    fn write_head(&self, out: &mut String) {
        out.push_str("\"correct\":");
        out.push_str(if self.correct { "true" } else { "false" });
        out.push_str(&format!(
            ",\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.attempted, self.failed
        ));
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_escaped(out, &m.name);
            out.push_str(":{\"value\":");
            write_f64(out, m.value);
            out.push_str(",\"unit\":");
            write_escaped(out, &m.unit);
            out.push('}');
        }
        out.push('}');
    }

    /// The contract line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`.
    pub fn contract_json(&self) -> String {
        let mut out = String::from("{");
        self.write_head(&mut out);
        out.push('}');
        out
    }

    /// The `--out` record: the contract keys plus what `compare` needs
    /// to pair and judge runs.
    pub fn record_json(&self) -> String {
        let mut out = String::from("{\"workload\":");
        write_escaped(&mut out, &self.workload);
        out.push_str(&format!(
            ",\"seed\":{},\"traced\":{},",
            self.seed, self.traced
        ));
        self.write_head(&mut out);
        out.push_str(",\"samples\":{");
        for (i, (name, values)) in self.samples.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_escaped(&mut out, name);
            out.push_str(":[");
            for (j, v) in values.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                write_f64(&mut out, *v);
            }
            out.push(']');
        }
        out.push_str("},\"fingerprint\":");
        write_escaped(&mut out, &self.fingerprint);
        out.push_str(",\"errors\":[");
        for (i, e) in self.errors.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_escaped(&mut out, e);
        }
        out.push_str("]}");
        out
    }

    /// Parses one `--out` record.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first missing or mistyped field.
    pub fn parse_record(line: &str) -> Result<RunResult, String> {
        let doc = Json::parse(line)?;
        let field = |key: &str| doc.get(key).ok_or_else(|| format!("missing `{key}`"));
        let text = |key: &str| {
            field(key)?
                .as_str()
                .map(str::to_owned)
                .ok_or_else(|| format!("`{key}` is not a string"))
        };
        let flag = |key: &str| {
            field(key)?
                .as_bool()
                .ok_or_else(|| format!("`{key}` is not a boolean"))
        };
        let whole = |key: &str| {
            field(key)?
                .as_u64()
                .ok_or_else(|| format!("`{key}` is not a whole number"))
        };
        let mut metrics = Vec::new();
        for (name, body) in field("metrics")?
            .as_obj()
            .ok_or("`metrics` is not an object")?
        {
            let value = body
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("metric `{name}` has no numeric value"))?;
            let unit = body
                .get("unit")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("metric `{name}` has no unit"))?;
            metrics.push(Metric {
                name: name.clone(),
                value,
                unit: unit.to_owned(),
            });
        }
        let mut samples = BTreeMap::new();
        for (name, body) in field("samples")?
            .as_obj()
            .ok_or("`samples` is not an object")?
        {
            let values: Option<Vec<f64>> = body
                .as_arr()
                .ok_or_else(|| format!("samples of `{name}` are not an array"))?
                .iter()
                .map(Json::as_f64)
                .collect();
            samples.insert(
                name.clone(),
                values.ok_or_else(|| format!("samples of `{name}` are not numbers"))?,
            );
        }
        let errors: Option<Vec<String>> = field("errors")?
            .as_arr()
            .ok_or("`errors` is not an array")?
            .iter()
            .map(|e| e.as_str().map(str::to_owned))
            .collect();
        Ok(RunResult {
            workload: text("workload")?,
            seed: whole("seed")?,
            traced: flag("traced")?,
            correct: flag("correct")?,
            attempted: whole("attempted")?,
            failed: whole("failed")?,
            metrics,
            samples,
            fingerprint: text("fingerprint")?,
            errors: errors.ok_or("`errors` holds a non-string")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunResult {
        RunResult {
            workload: "sim-table2".into(),
            seed: 7,
            traced: false,
            correct: true,
            attempted: 600,
            failed: 0,
            metrics: vec![
                Metric {
                    name: "setup_s".into(),
                    value: 0.001_234_567_890_123,
                    unit: "s".into(),
                },
                Metric {
                    name: "lookups_per_s".into(),
                    value: 61_234.5,
                    unit: "1/s".into(),
                },
            ],
            samples: BTreeMap::from([("setup_s".to_owned(), vec![0.001, 1.0e-7])]),
            fingerprint: "00ff".into(),
            errors: vec!["a \"quoted\" failure".into()],
        }
    }

    #[test]
    fn record_round_trips_bit_exactly() {
        let result = sample();
        assert_eq!(RunResult::parse_record(&result.record_json()), Ok(result));
    }

    #[test]
    fn contract_line_has_exactly_the_four_keys() {
        let doc = Json::parse(&sample().contract_json()).unwrap();
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let setup = doc.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(setup.get("unit").unwrap().as_str(), Some("s"));
        assert_eq!(
            setup.get("value").unwrap().as_f64(),
            Some(0.001_234_567_890_123)
        );
    }

    #[test]
    fn malformed_records_name_the_problem() {
        assert!(RunResult::parse_record("{}")
            .unwrap_err()
            .contains("metrics"));
        assert!(RunResult::parse_record("not json").is_err());
    }
}
