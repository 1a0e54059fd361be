//! Order statistics. Quartiles follow Python's
//! `statistics.quantiles(values, n=4)` (the exclusive method), so the
//! spreads this harness prints are the spreads the driver computes.

use crate::json::{obj, Json};

/// One reported metric: the median of `n` samples with its quartiles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Sample {
    /// A quantity measured once (a count, a byte total, a ratio of medians).
    pub fn single(value: f64) -> Sample {
        Sample {
            value,
            q1: value,
            q3: value,
            n: 1,
        }
    }

    /// Median and quartiles of `values`; panics on an empty slice, which
    /// would mean a probe ran zero times.
    pub fn of(values: &[f64]) -> Sample {
        assert!(!values.is_empty(), "metric has no samples");
        let (q1, q3) = quartiles(values);
        Sample {
            value: median(values),
            q1,
            q3,
            n: values.len(),
        }
    }

    pub fn to_json(self, unit: &str) -> Json {
        obj([
            ("value", self.value.into()),
            ("unit", unit.into()),
            ("q1", self.q1.into()),
            ("q3", self.q3.into()),
            ("n", (self.n as f64).into()),
        ])
    }
}

/// The time in the quietest part of a run: the smallest of `values`,
/// where a value stands for one stretch of the run (one batch job, one
/// set-up, the median of one slice of a serve window). Other tenants of
/// the machine only ever add time, and they add it for seconds at a
/// stretch, so the whole-run median moves with them (7–33 % between
/// identical runs here) while the quietest stretch repeats within 3–9 %.
/// The quartiles reported are those of `values`, so a noisy run shows.
pub fn quietest_of(values: &[f64]) -> Sample {
    let mut sample = Sample::of(values);
    sample.value = values.iter().copied().fold(f64::INFINITY, f64::min);
    sample
}

/// The rate in the quietest part of a run: [`quietest_of`] for a quantity
/// where more is better, so the largest of `values`.
pub fn busiest_of(values: &[f64]) -> Sample {
    let mut sample = Sample::of(values);
    sample.value = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    sample
}

/// The median of every non-empty group, in the groups' order.
pub fn group_medians(groups: &[Vec<f64>]) -> Vec<f64> {
    groups
        .iter()
        .filter(|g| !g.is_empty())
        .map(|g| median(g))
        .collect()
}

/// The stretches' times as a note, so a noisy run shows in the output.
pub fn in_run_order(what: &str, values: &[f64]) -> String {
    let values: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
    format!("{what} in run order: {}", values.join(" "))
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile; a single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return (v[0], v[0]);
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile distance as a share of the median: the run-to-run spread
/// the driver holds against a metric's bound.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values).abs().max(f64::MIN_POSITIVE)
}

/// The `p` quantile (nearest rank), or `None` unless at least ten samples
/// lie beyond it — p99 therefore needs 1000 samples.
pub fn tail_percentile(values: &[f64], p: f64) -> Option<f64> {
    let n = values.len();
    let rank = (p * n as f64).ceil() as usize;
    if rank == 0 || n - rank < 10 {
        return None;
    }
    Some(sorted(values)[rank - 1])
}

/// The tail of a latency sample: p99 when ten samples lie beyond it, else
/// the highest percentile that has ten beyond it, else the maximum.
/// Returns the percentile used and its value.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let n = values.len() as f64;
    let p = (1.0 - 10.0 / n).min(0.99);
    match tail_percentile(values, p) {
        Some(v) if p > 0.5 => (p, v),
        _ => (1.0, values.iter().copied().fold(0.0, f64::max)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[4.0, 4.0, 4.0]), 0.0);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 0.99), Some(990.0));
        assert_eq!(tail_percentile(&v[..999], 0.99), None);
        assert_eq!(tail_percentile(&v[..100], 0.5), Some(50.0));
        assert_eq!(tail_percentile(&v[..19], 0.5), None);
        assert_eq!(tail_percentile(&[], 0.99), None);
    }

    #[test]
    fn tail_falls_back_to_the_highest_supported_percentile() {
        let v: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(tail(&v), (0.99, 1980.0));
        assert_eq!(tail(&v[..400]), (0.975, 390.0));
        assert_eq!(tail(&v[..15]), (1.0, 15.0));
    }

    #[test]
    fn quietest_is_the_smallest_group_median() {
        let medians = group_medians(&[
            vec![9.0, 10.0, 30.0],
            vec![],
            vec![7.0, 8.0, 100.0],
            vec![12.0],
        ]);
        assert_eq!(medians, [10.0, 8.0, 12.0]);
        let s = quietest_of(&medians);
        assert_eq!((s.value, s.n), (8.0, 3));
        assert_eq!((s.q1, s.q3), (8.0, 12.0));
        let b = busiest_of(&medians);
        assert_eq!((b.value, b.q1, b.q3, b.n), (12.0, 8.0, 12.0, 3));
        assert_eq!(
            in_run_order("x", &medians),
            "x in run order: 10.0000 8.0000 12.0000"
        );
    }

    #[test]
    fn sample_of_reports_median_and_count() {
        let s = Sample::of(&[5.0, 1.0, 3.0]);
        assert_eq!((s.value, s.q1, s.q3, s.n), (3.0, 1.0, 5.0, 3));
    }
}
