//! What one run of one workload reports: counts of operations attempted
//! and failed, notes, and one [`Sample`] per metric name.

use std::collections::BTreeMap;

use crate::config::{end_to_end, per_layer, Table};
use crate::json::{obj, Json};
use crate::stats::Sample;

#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    pub workload: String,
    pub traced: bool,
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
    pub metrics: BTreeMap<String, (Sample, String)>,
}

impl Report {
    pub fn new(workload: &str, traced: bool) -> Report {
        Report {
            workload: workload.to_string(),
            traced,
            attempted: 0,
            failed: 0,
            notes: Vec::new(),
            metrics: BTreeMap::new(),
        }
    }

    pub fn note(&mut self, text: impl Into<String>) {
        self.notes.push(text.into());
    }

    /// Record a failed check: it counts against `failed` and is explained.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failed += 1;
        self.notes.push(format!("FAILED: {}", why.into()));
    }

    /// The metrics a run of this kind reports: per-layer when traced,
    /// end-to-end otherwise.
    fn table(&self) -> &'static Table {
        if self.traced {
            per_layer()
        } else {
            end_to_end()
        }
    }

    /// Set metric `name`; the name must be in the run's table and is set once.
    pub fn set(&mut self, name: &str, sample: Sample) {
        let unit = self
            .table()
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("metric {name:?} is not declared in BENCHMARK.json"))
            .1
            .clone();
        let previous = self.metrics.insert(name.to_string(), (sample, unit));
        assert!(previous.is_none(), "metric {name:?} set twice");
    }

    /// Give every name of the run's table a value: a per-layer metric of a
    /// layer this workload never calls reads 0 from 0 samples.
    pub fn fill_uncalled(&mut self) {
        for (name, unit) in self.table() {
            self.metrics.entry(name.clone()).or_insert((
                Sample {
                    value: 0.0,
                    q1: 0.0,
                    q3: 0.0,
                    n: 0,
                },
                unit.clone(),
            ));
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Metrics in the table's order, so every run prints them alike.
    fn ordered(&self) -> impl Iterator<Item = (&str, &Sample, &str)> {
        self.table().iter().filter_map(|(name, _)| {
            self.metrics
                .get(name)
                .map(|(s, unit)| (name.as_str(), s, unit.as_str()))
        })
    }

    pub fn to_json(&self) -> Json {
        obj([
            ("workload", self.workload.as_str().into()),
            ("traced", Json::Bool(self.traced)),
            ("correct", Json::Bool(self.correct())),
            ("attempted", (self.attempted as f64).into()),
            ("failed", (self.failed as f64).into()),
            (
                "notes",
                Json::Arr(self.notes.iter().map(|n| n.as_str().into()).collect()),
            ),
            (
                "metrics",
                Json::Obj(
                    self.ordered()
                        .map(|(n, s, unit)| (n.to_string(), s.to_json(unit)))
                        .collect(),
                ),
            ),
        ])
    }

    pub fn from_json(v: &Json) -> Result<Report, String> {
        let field = |k: &str| v.get(k).ok_or_else(|| format!("report lacks {k:?}"));
        let num = |v: &Json, k: &str| {
            v.get(k)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("metric lacks {k:?}"))
        };
        let mut metrics = BTreeMap::new();
        for (name, m) in field("metrics")?.as_obj() {
            let sample = Sample {
                value: num(m, "value")?,
                q1: num(m, "q1")?,
                q3: num(m, "q3")?,
                n: num(m, "n")? as usize,
            };
            let unit = m
                .get("unit")
                .and_then(Json::as_str)
                .ok_or("metric lacks \"unit\"")?;
            metrics.insert(name.clone(), (sample, unit.to_string()));
        }
        Ok(Report {
            workload: field("workload")?
                .as_str()
                .ok_or("workload is not a string")?
                .to_string(),
            traced: field("traced")?.as_bool().ok_or("traced is not a bool")?,
            attempted: field("attempted")?
                .as_f64()
                .ok_or("attempted is not a number")? as u64,
            failed: field("failed")?.as_f64().ok_or("failed is not a number")? as u64,
            notes: field("notes")?
                .as_arr()
                .iter()
                .filter_map(|n| n.as_str().map(String::from))
                .collect(),
            metrics,
        })
    }

    /// The last line the driver reads: only names, values and units.
    pub fn contract_line(&self) -> String {
        let metrics = self
            .ordered()
            .map(|(n, s, unit)| {
                (
                    n.to_string(),
                    obj([("value", s.value.into()), ("unit", unit.into())]),
                )
            })
            .collect();
        obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", (self.attempted as f64).into()),
            ("failed", (self.failed as f64).into()),
            ("metrics", Json::Obj(metrics)),
        ])
        .to_string()
    }

    /// Every metric by name with unit, value (the median, or the quietest
    /// stretch for `setup_s`/`op_ms`/`goodput_rps`), quartiles and sample
    /// count.
    pub fn print_table(&self) {
        println!(
            "## {} ({}): attempted {}, failed {}",
            self.workload,
            if self.traced {
                "traced, per-layer"
            } else {
                "untraced, end-to-end"
            },
            self.attempted,
            self.failed
        );
        println!(
            "{:<44} {:>14} {:>6} {:>14} {:>14} {:>6}",
            "metric", "value", "unit", "q1", "q3", "n"
        );
        for (name, s, unit) in self.ordered() {
            println!(
                "{:<44} {:>14.6} {:>6} {:>14.6} {:>14.6} {:>6}",
                name, s.value, unit, s.q1, s.q3, s.n
            );
        }
        for n in &self.notes {
            println!("note: {n}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trip_and_contract_line() {
        let mut r = Report::new("w", false);
        r.attempted = 7;
        r.set("op_ms", Sample::of(&[1.0, 2.0, 4.0]));
        r.set("setup_s", Sample::single(0.5));
        r.note("hello");
        let back = Report::from_json(&Json::parse(&r.to_json().to_string()).unwrap()).unwrap();
        assert_eq!(back, r);
        let line = Json::parse(&r.contract_line()).unwrap();
        assert_eq!(
            line.as_obj()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect::<Vec<_>>(),
            ["correct", "attempted", "failed", "metrics"]
        );
        assert_eq!(line.get("metrics").unwrap().as_obj()[0].0, "setup_s");
        assert_eq!(line.get("correct").unwrap().as_bool(), Some(true));
    }

    #[test]
    fn a_failure_makes_the_run_incorrect() {
        let mut r = Report::new("w", false);
        r.attempted = 3;
        r.fail("job 2 disagreed with the oracle");
        assert!(!r.correct());
        assert_eq!(r.failed, 1);
    }

    #[test]
    fn uncalled_layers_read_zero() {
        let mut r = Report::new("w", true);
        r.set("cli.load_s", Sample::single(1.0));
        r.fill_uncalled();
        assert_eq!(r.metrics.len(), per_layer().len());
        assert_eq!(r.metrics["cli.run_s"].0.n, 0);
        assert_eq!(r.metrics["cli.load_s"].0.value, 1.0);
    }
}
