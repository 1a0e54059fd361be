//! `compare A.json B.json`: one row per (workload, end-to-end metric),
//! judged against the bound `BENCHMARK.json` fixes for that metric.

use crate::json::Json;
use crate::stats::{median, spread};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// The run-to-run spread is wider than the bound, so neither "same"
    /// nor "worse" can be said.
    Unresolved,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub unit: String,
    pub base: f64,
    pub new: f64,
    pub bound: f64,
    /// Widest q1–q3 spread of the metric across either file's sets, as a
    /// share of the median; `None` when both files hold a single set.
    pub spread: Option<f64>,
    pub verdict: Verdict,
}

impl Row {
    /// `new / base`: the ratio always has `base` as its base.
    pub fn ratio(&self) -> f64 {
        self.new / self.base
    }
}

pub fn judge(
    base: f64,
    new: f64,
    lower_is_better: bool,
    bound: f64,
    spread: Option<f64>,
) -> Verdict {
    let worsening = if lower_is_better {
        (new - base) / base
    } else {
        (base - new) / base
    };
    if spread.is_some_and(|s| s > bound) {
        Verdict::Unresolved
    } else if worsening > bound {
        Verdict::Worse
    } else if worsening < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// The values metric `name` of `workload` took across a file's sets.
fn values(file: &Json, workload: &str, name: &str) -> Vec<f64> {
    file.get("sets")
        .map_or(&[][..], Json::as_arr)
        .iter()
        .filter_map(|set| {
            set.get(workload)?
                .get("end_to_end")?
                .get("metrics")?
                .get(name)?
                .get("value")?
                .as_f64()
        })
        .collect()
}

/// Failed operations as a share of attempted, over all sets and runs.
fn failed_share(file: &Json) -> f64 {
    let (mut failed, mut attempted) = (0.0, 0.0);
    for set in file.get("sets").map_or(&[][..], Json::as_arr) {
        for (_, runs) in set.as_obj() {
            for (_, report) in runs.as_obj() {
                failed += report.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
                attempted += report
                    .get("attempted")
                    .and_then(Json::as_f64)
                    .unwrap_or(0.0);
            }
        }
    }
    failed / attempted.max(1.0)
}

pub struct Comparison {
    pub rows: Vec<Row>,
    pub base_failed_share: f64,
    pub new_failed_share: f64,
}

impl Comparison {
    /// A comparison passes unless a metric got worse or more operations failed.
    pub fn passed(&self) -> bool {
        self.new_failed_share <= self.base_failed_share
            && self.rows.iter().all(|r| r.verdict != Verdict::Worse)
    }

    pub fn print(&self) {
        println!(
            "{:<28} {:<12} {:>12} {:>12} {:>6} {:>18} {:>6} {:>7}  verdict",
            "workload", "metric", "base", "new", "unit", "ratio (new/base)", "bound", "spread"
        );
        for r in &self.rows {
            println!(
                "{:<28} {:<12} {:>12.4} {:>12.4} {:>6} {:>18.4} {:>6.2} {:>7}  {}",
                r.workload,
                r.metric,
                r.base,
                r.new,
                r.unit,
                r.ratio(),
                r.bound,
                r.spread.map_or("n/a".to_string(), |s| format!("{s:.3}")),
                format!("{:?}", r.verdict).to_lowercase()
            );
        }
        println!(
            "failed/attempted: base {:.6}, new {:.6}",
            self.base_failed_share, self.new_failed_share
        );
    }
}

/// Compare two result files under the metrics and bounds of `benchmark`
/// (the parsed `BENCHMARK.json`).
pub fn compare(base: &Json, new: &Json, benchmark: &Json) -> Result<Comparison, String> {
    let mut rows = Vec::new();
    // Every workload the base file holds, which may be more than
    // `BENCHMARK.json` names.
    let workloads = base
        .get("sets")
        .and_then(|sets| sets.as_arr().first())
        .ok_or("the base file holds no set")?
        .as_obj();
    for (workload, _) in workloads {
        for m in benchmark
            .get("end_to_end")
            .ok_or("BENCHMARK.json lacks end_to_end")?
            .as_arr()
        {
            let text = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("metric lacks {k:?}"))
            };
            let (name, bound) = (
                text("name")?,
                m.get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("metric lacks a bound")?,
            );
            let (a, b) = (values(base, workload, name), values(new, workload, name));
            if a.is_empty() || b.is_empty() {
                return Err(format!("{workload}/{name} is missing from a result file"));
            }
            let spread = (a.len() > 1 || b.len() > 1).then(|| {
                [&a, &b]
                    .iter()
                    .filter(|v| v.len() > 1)
                    .map(|v| spread(v))
                    .fold(0.0, f64::max)
            });
            let (base_value, new_value) = (median(&a), median(&b));
            rows.push(Row {
                workload: workload.to_string(),
                metric: name.to_string(),
                unit: text("unit")?.to_string(),
                base: base_value,
                new: new_value,
                bound,
                spread,
                verdict: judge(
                    base_value,
                    new_value,
                    text("better")? == "lower",
                    bound,
                    spread,
                ),
            });
        }
    }
    Ok(Comparison {
        rows,
        base_failed_share: failed_share(base),
        new_failed_share: failed_share(new),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCH: &str = r#"{"workloads": [{"name": "w", "why": "x"}],
        "end_to_end": [{"name": "lat", "unit": "ms", "better": "lower", "bound": 0.1},
                       {"name": "rps", "unit": "1/s", "better": "higher", "bound": 0.05}]}"#;

    fn file(sets: &[(f64, f64, f64)]) -> Json {
        let sets: Vec<String> = sets
            .iter()
            .map(|(lat, rps, failed)| {
                format!(
                    r#"{{"w": {{"end_to_end": {{"attempted": 100, "failed": {failed},
                        "metrics": {{"lat": {{"value": {lat}}}, "rps": {{"value": {rps}}}}}}}}}}}"#
                )
            })
            .collect();
        Json::parse(&format!(r#"{{"sets": [{}]}}"#, sets.join(","))).unwrap()
    }

    fn verdicts(a: &Json, b: &Json) -> (Vec<Verdict>, bool) {
        let c = compare(a, b, &Json::parse(BENCH).unwrap()).unwrap();
        (c.rows.iter().map(|r| r.verdict).collect(), c.passed())
    }

    #[test]
    fn verdicts_follow_direction_and_bound() {
        let base = file(&[(10.0, 100.0, 0.0)]);
        assert_eq!(
            verdicts(&base, &file(&[(10.5, 98.0, 0.0)])),
            (vec![Verdict::Same, Verdict::Same], true)
        );
        assert_eq!(
            verdicts(&base, &file(&[(11.5, 100.0, 0.0)])),
            (vec![Verdict::Worse, Verdict::Same], false)
        );
        assert_eq!(
            verdicts(&base, &file(&[(8.0, 120.0, 0.0)])),
            (vec![Verdict::Better, Verdict::Better], true)
        );
        // A lower rate is worse for a higher-is-better metric.
        assert_eq!(
            verdicts(&base, &file(&[(10.0, 90.0, 0.0)])),
            (vec![Verdict::Same, Verdict::Worse], false)
        );
    }

    #[test]
    fn wide_spread_is_unresolved_not_same() {
        // Two sets whose latency differs by 30 %: IQR/median is far over the 0.1 bound.
        let noisy = file(&[(10.0, 100.0, 0.0), (13.0, 100.0, 0.0)]);
        let (v, passed) = verdicts(&file(&[(10.0, 100.0, 0.0)]), &noisy);
        assert_eq!(v, vec![Verdict::Unresolved, Verdict::Same]);
        assert!(passed, "unresolved is reported, not failed");
    }

    #[test]
    fn more_failures_fail_the_comparison() {
        let (v, passed) = verdicts(&file(&[(10.0, 100.0, 0.0)]), &file(&[(10.0, 100.0, 3.0)]));
        assert_eq!(v, vec![Verdict::Same, Verdict::Same]);
        assert!(!passed);
    }

    #[test]
    fn ratio_has_base_as_its_base() {
        let c = compare(
            &file(&[(10.0, 100.0, 0.0)]),
            &file(&[(12.0, 50.0, 0.0)]),
            &Json::parse(BENCH).unwrap(),
        )
        .unwrap();
        assert_eq!((c.rows[0].ratio(), c.rows[1].ratio()), (1.2, 0.5));
        assert!(compare(
            &file(&[]),
            &file(&[(1.0, 1.0, 0.0)]),
            &Json::parse(BENCH).unwrap()
        )
        .is_err());
    }
}
