//! The Figure 9 max-RSS model, breaking-point search, and the
//! Section 7.4.3 projections.
//!
//! Figure 9's method: run PageRank (the broadcast version) on synthetic
//! graphs proportional to Twitter, measure max resident set size, observe
//! linear growth, locate the out-of-memory breaking point under 8 GB, and
//! project the 100% requirement (11.01 GB, verified on a 16 GB machine).
//!
//! The model here is `rss(V, E) = 4·(V + E)  +  c_vertex·V  +  base`:
//! the first term is the paper's own "graph binary size" definition
//! (4-byte ids, vertices store their identifier and their
//! out-neighbours'), the second is iPregel's per-vertex framework
//! overhead under the pull-combiner PageRank layout plus allocator
//! slack, and `base` is the process image. `c_vertex = 52` is the single
//! calibrated constant; with it the model reproduces, simultaneously:
//!
//! * 11.0 GB for 100% Twitter   (paper: 11.01 GB);
//! * a 70% breaking point under 8 GB (paper: 70%);
//! * 14.4 GB for Friendster     (paper: 14.45 GB);
//! * an ≈ 8 GB graph-binary share for Twitter (paper: 8 GB).


use crate::GB;

/// The calibrated RSS model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RssModel {
    /// Per-vertex framework overhead, bytes (calibrated: 52).
    pub per_vertex: f64,
    /// Process/base footprint, bytes.
    pub base: f64,
}

ipregel::impl_to_json!(RssModel { per_vertex, base });

impl Default for RssModel {
    fn default() -> Self {
        RssModel { per_vertex: 52.0, base: 0.25 * GB }
    }
}

impl RssModel {
    /// The paper's graph-binary-size definition (Section 7.4.2): 4-byte
    /// identifiers for each vertex and each out-neighbour entry.
    pub fn graph_binary_bytes(vertices: u64, edges: u64) -> f64 {
        4.0 * (vertices as f64 + edges as f64)
    }

    /// Modelled max RSS of pull-combiner PageRank on a (V, E) graph.
    pub fn rss_bytes(&self, vertices: u64, edges: u64) -> f64 {
        Self::graph_binary_bytes(vertices, edges) + self.per_vertex * vertices as f64 + self.base
    }

    /// Modelled RSS of the `pct`% synthetic analog of a (V, E) dataset.
    pub fn rss_at_percent(&self, vertices: u64, edges: u64, pct: u32) -> f64 {
        let f = f64::from(pct) / 100.0;
        self.rss_bytes((vertices as f64 * f) as u64, (edges as f64 * f) as u64)
    }

    /// Framework overhead excluding the graph itself (Section 7.4.3
    /// separates "the 8GB allocated to the graph itself" from the "3GB
    /// ... due to its overhead").
    pub fn overhead_bytes(&self, vertices: u64) -> f64 {
        self.per_vertex * vertices as f64 + self.base
    }
}

/// Largest percentage (1..=100) of the (V, E) dataset whose modelled RSS
/// fits in `ram_bytes`; `None` if even 1% does not fit.
pub fn breaking_point_percent(
    model: &RssModel,
    vertices: u64,
    edges: u64,
    ram_bytes: f64,
) -> Option<u32> {
    (1..=100).rev().find(|&pct| model.rss_at_percent(vertices, edges, pct) <= ram_bytes)
}

/// The *measured* counterpart of the model: current resident set size
/// of this process in bytes, read from `/proc/self/status` (`VmRSS`).
/// `None` off Linux or if the field is missing. Plain `fn` shape so it
/// plugs straight into `ipregel::trace::Tracer::set_rss_sampler` — the
/// tracer takes periodic samples at superstep barriers, turning Figure
/// 9's offline model into a live per-run series.
pub fn current_rss_bytes() -> Option<u64> {
    if cfg!(not(target_os = "linux")) {
        return None;
    }
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_status_field(&status, "VmRSS")
}

/// Peak resident set size (`VmHWM`) of this process in bytes — the
/// measured counterpart of Figure 9's *max* RSS. Same contract as
/// [`current_rss_bytes`]: `None` off Linux or on a missing/garbled field.
pub fn current_hwm_bytes() -> Option<u64> {
    if cfg!(not(target_os = "linux")) {
        return None;
    }
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_status_field(&status, "VmHWM")
}

/// Extract a `/proc/*/status` field of the canonical `Name:  1234 kB`
/// shape from a full status image.
///
/// Strict on purpose: the field name must match exactly (so `VmRSS`
/// never matches a hypothetical `VmRSSExt`), the value must parse, and
/// the unit must be the `kB` the kernel always emits. Anything else —
/// missing line, garbled number, wrong unit, trailing junk — yields
/// `None` rather than a fabricated measurement that downstream linearity
/// checks would treat as real.
fn parse_status_field(status: &str, field: &str) -> Option<u64> {
    let rest = status
        .lines()
        .find_map(|l| l.strip_prefix(field).and_then(|r| r.strip_prefix(':')))?;
    let mut parts = rest.split_whitespace();
    let kb: u64 = parts.next()?.parse().ok()?;
    if parts.next()? != "kB" || parts.next().is_some() {
        return None;
    }
    kb.checked_mul(1024)
}

/// Least-squares linearity check over measured `(scale_percent, bytes)`
/// points: returns the maximum relative deviation of any point from the
/// fitted line. Small values justify Figure 9's linear projection.
pub fn validate_linear(points: &[(f64, f64)]) -> f64 {
    assert!(points.len() >= 2, "need at least two points to fit a line");
    let n = points.len() as f64;
    let sx: f64 = points.iter().map(|p| p.0).sum();
    let sy: f64 = points.iter().map(|p| p.1).sum();
    let sxx: f64 = points.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = points.iter().map(|p| p.0 * p.1).sum();
    let slope = (n * sxy - sx * sy) / (n * sxx - sx * sx);
    let intercept = (sy - slope * sx) / n;
    points
        .iter()
        .map(|&(x, y)| {
            let fit = slope * x + intercept;
            (y - fit).abs() / y.abs().max(1e-300)
        })
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    const TWITTER: (u64, u64) = (52_579_682, 1_963_263_821);
    const FRIENDSTER: (u64, u64) = (68_349_466, 2_586_147_869);

    #[test]
    fn twitter_binary_size_is_about_8_gb() {
        // Section 7.4.2: "The binary size of the Twitter graph is
        // calculated to 8GB".
        let gb = RssModel::graph_binary_bytes(TWITTER.0, TWITTER.1) / GB;
        assert!((gb - 8.0).abs() < 0.1, "binary size {gb:.2} GB");
    }

    #[test]
    fn full_twitter_needs_about_11_gb() {
        // Section 7.4.3: "iPregel needs 11.01GB to run PageRank on the
        // complete graph".
        let gb = RssModel::default().rss_bytes(TWITTER.0, TWITTER.1) / GB;
        assert!((gb - 11.01).abs() < 0.35, "model {gb:.2} GB");
    }

    #[test]
    fn breaking_point_is_about_70_percent_under_8_gb() {
        // Section 7.4.2: "up to 70% of the Twitter graph can be processed
        // before memory failure occurs".
        let bp = breaking_point_percent(&RssModel::default(), TWITTER.0, TWITTER.1, 8.0 * GB).unwrap();
        assert!((68..=72).contains(&bp), "breaking point {bp}%");
    }

    #[test]
    fn seventy_percent_twitter_matches_the_37m_1_4b_claim() {
        // Section 7.4.2: 70% ⇒ "37 million vertices and 1.4 billion
        // edges under 8GB".
        let v = (TWITTER.0 as f64 * 0.7 / 1e6).round();
        let e = TWITTER.1 as f64 * 0.7 / 1e9;
        assert_eq!(v, 37.0);
        assert!((e - 1.4).abs() < 0.05);
    }

    #[test]
    fn friendster_fits_under_16_gb() {
        // Section 7.4.3: "14.45GB of memory" for Friendster — a
        // multi-billion-edge graph under 16 GB.
        let gb = RssModel::default().rss_bytes(FRIENDSTER.0, FRIENDSTER.1) / GB;
        assert!((gb - 14.45).abs() < 0.4, "model {gb:.2} GB");
        assert!(gb < 16.0);
    }

    #[test]
    fn overhead_is_about_3_gb_on_twitter() {
        // Section 7.4.3: "out of the 11GB taken by iPregel, 3GB are due
        // to its overhead".
        let gb = RssModel::default().overhead_bytes(TWITTER.0) / GB;
        assert!((gb - 3.0).abs() < 0.35, "overhead {gb:.2} GB");
    }

    #[test]
    fn projection_ratios_match_section_7_4_3() {
        // iPregel 10× smaller than Pregel+ (109 GB), 25× than Giraph
        // (264 GB); overhead 33× / 85× smaller.
        let ipregel = RssModel::default().rss_bytes(TWITTER.0, TWITTER.1) / GB;
        assert!((109.0 / ipregel - 10.0).abs() < 1.0);
        assert!((264.0 / ipregel - 24.0).abs() < 2.0);
        let overhead = RssModel::default().overhead_bytes(TWITTER.0) / GB;
        assert!((101.0 / overhead - 33.0).abs() < 4.0);
        assert!((256.0 / overhead - 85.0).abs() < 9.0);
    }

    #[test]
    fn model_is_linear_in_scale() {
        let m = RssModel::default();
        let pts: Vec<(f64, f64)> =
            (1..=10).map(|i| (i as f64 * 10.0, m.rss_at_percent(TWITTER.0, TWITTER.1, i * 10))).collect();
        assert!(validate_linear(&pts) < 1e-6);
    }

    #[test]
    fn validate_linear_flags_nonlinearity() {
        let pts = vec![(1.0, 1.0), (2.0, 4.0), (3.0, 9.0), (4.0, 16.0)];
        assert!(validate_linear(&pts) > 0.05);
    }

    #[test]
    fn breaking_point_none_when_nothing_fits() {
        assert_eq!(breaking_point_percent(&RssModel::default(), TWITTER.0, TWITTER.1, 1.0), None);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn current_rss_reads_a_plausible_value() {
        let rss = current_rss_bytes().expect("VmRSS should exist on Linux");
        // A running test process occupies at least a few hundred kB and
        // (sanity bound) less than a terabyte.
        assert!(rss > 100 * 1024, "rss {rss}");
        assert!(rss < 1 << 40, "rss {rss}");
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn current_hwm_is_at_least_current_rss() {
        // RSS first: sibling tests allocate concurrently, and a peak
        // read before the current value can be overtaken by it.
        let rss = current_rss_bytes().unwrap();
        let hwm = current_hwm_bytes().expect("VmHWM should exist on Linux");
        assert!(hwm >= rss, "peak {hwm} below current {rss}");
    }

    #[test]
    fn status_parsing_accepts_the_canonical_kernel_shape() {
        let status = "Name:\tipregel\nVmHWM:\t  204856 kB\nVmRSS:\t  123456 kB\nThreads:\t8\n";
        assert_eq!(parse_status_field(status, "VmRSS"), Some(123_456 * 1024));
        assert_eq!(parse_status_field(status, "VmHWM"), Some(204_856 * 1024));
    }

    #[test]
    fn status_parsing_rejects_missing_and_garbled_fields() {
        // Each fixture is a way /proc content has been seen to go wrong:
        // the parser must answer None, never a fabricated number.
        let cases: &[(&str, &str)] = &[
            ("Name:\tipregel\nThreads:\t8\n", "line missing entirely"),
            ("VmRSS:\n", "no value at all"),
            ("VmRSS:\t  garbage kB\n", "non-numeric value"),
            ("VmRSS:\t  123456\n", "unit missing"),
            ("VmRSS:\t  123456 MB\n", "wrong unit"),
            ("VmRSS:\t  123456 kB extra\n", "trailing junk"),
            ("VmRSS:\t  -5 kB\n", "negative value"),
            ("VmRSSExt:\t 99 kB\n", "prefix-colliding field"),
            ("VmRSS:\t 18446744073709551615 kB\n", "kB→bytes overflow"),
        ];
        for (status, what) in cases {
            assert_eq!(parse_status_field(status, "VmRSS"), None, "{what}: {status:?}");
        }
    }

    #[test]
    fn status_parsing_does_not_cross_line_boundaries() {
        // A garbled VmRSS must not fall through to a later line's number.
        let status = "VmRSS:\t garbage kB\nVmSwap:\t 777 kB\n";
        assert_eq!(parse_status_field(status, "VmRSS"), None);
    }
}
