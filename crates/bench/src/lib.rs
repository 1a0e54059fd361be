//! Shared harness code for the table/figure reproduction binaries.
//!
//! Every binary regenerates one table or figure of the paper's
//! evaluation (Section 7), or the Section 2 architecture map, on
//! scaled-down synthetic analogs of the paper's datasets. Each times one
//! run per cell; repeated, compared measurements are the `benchmark/`
//! package's job. Scaling is controlled by divisors (one per dataset
//! family) overridable through environment variables, so the same
//! binaries can run a quick CI pass or a longer laptop pass:
//!
//! * `IPREGEL_WIKI_DIVISOR`  (default 150) — Wikipedia analog scale;
//! * `IPREGEL_USA_DIVISOR`   (default 200) — USA-roads analog scale;
//! * `IPREGEL_TWITTER_DIVISOR` (default 400) — Twitter analog scale
//!   (Figure 9 sweep);
//! * `IPREGEL_THREADS` (default 2, the paper's OpenMP thread count).
//!
//! Results are printed in paper-like tables and appended as JSON lines
//! under `results/` for EXPERIMENTS.md.

// This crate needs no unsafe; keep it that way (see docs/INTERNALS.md,
// "Safety model").
#![forbid(unsafe_code)]

pub mod svg;

use std::fs;
use std::io::Write as _;
use std::path::PathBuf;
use std::time::Duration;

use ipregel_graph::generators::analogs::{DatasetSpec, TWITTER_MPI, USA_ROADS, WIKIPEDIA};
use ipregel_graph::{Graph, NeighborMode};
use ipregel::json::ToJson;

/// Deterministic seed shared by all harness graphs.
pub const SEED: u64 = 20180813; // ICPP'18 started August 13, 2018

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// Scale divisor for the Wikipedia analog.
pub fn wiki_divisor() -> u64 {
    env_u64("IPREGEL_WIKI_DIVISOR", 150)
}

/// Scale divisor for the USA-roads analog.
pub fn usa_divisor() -> u64 {
    env_u64("IPREGEL_USA_DIVISOR", 200)
}

/// Scale divisor for the Twitter analog (Figure 9).
pub fn twitter_divisor() -> u64 {
    env_u64("IPREGEL_TWITTER_DIVISOR", 400)
}

/// Thread count for measured iPregel runs (paper: 2).
pub fn threads() -> usize {
    env_u64("IPREGEL_THREADS", 2) as usize
}

/// The two Table 1 datasets with their scaled analogs, built with both
/// adjacency directions so every engine version can run.
pub struct PaperGraphs {
    /// Wikipedia analog (R-MAT, 1-based ids).
    pub wiki: Graph,
    /// USA-roads analog (sparse grid, weighted, 1-based ids).
    pub usa: Graph,
    /// Divisor used for the Wikipedia analog.
    pub wiki_divisor: u64,
    /// Divisor of the USA analog.
    pub usa_divisor: u64,
}

impl PaperGraphs {
    /// Build both analogs at the configured scale.
    pub fn build() -> PaperGraphs {
        let (wd, ud) = (wiki_divisor(), usa_divisor());
        PaperGraphs {
            wiki: WIKIPEDIA.analog_graph(wd, SEED, NeighborMode::Both),
            usa: USA_ROADS.analog_graph(ud, SEED + 1, NeighborMode::Both),
            wiki_divisor: wd,
            usa_divisor: ud,
        }
    }

    /// `(label, graph, divisor, spec)` tuples for iteration.
    pub fn each(&self) -> [(&'static str, &Graph, u64, DatasetSpec); 2] {
        [
            ("Wikipedia", &self.wiki, self.wiki_divisor, WIKIPEDIA),
            ("USA roads", &self.usa, self.usa_divisor, USA_ROADS),
        ]
    }
}

/// The paper's SSSP source vertex ("the vertex identified by '2'").
pub const SSSP_SOURCE: u32 = 2;

/// The paper's PageRank iteration count.
pub const PAGERANK_ROUNDS: usize = 30;

/// The Twitter spec reference for Figure 9 labelling.
pub fn twitter_spec() -> DatasetSpec {
    TWITTER_MPI
}

/// Format a duration in seconds with three decimals.
pub fn secs(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

/// Format bytes as decimal MB/GB, paper-style.
pub fn human_bytes(b: f64) -> String {
    if b >= 1e9 {
        format!("{:.2} GB", b / 1e9)
    } else if b >= 1e6 {
        format!("{:.1} MB", b / 1e6)
    } else {
        format!("{:.0} KB", b / 1e3)
    }
}

/// Append a serialisable record as one JSON line under `results/`.
pub fn append_result<T: ToJson>(file: &str, record: &T) {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results");
    if fs::create_dir_all(&dir).is_err() {
        return; // results files are best-effort; printing is the contract
    }
    let path = dir.join(file);
    if let Ok(mut f) = fs::OpenOptions::new().create(true).append(true).open(path) {
        let _ = writeln!(f, "{}", record.to_json());
    }
}

/// Print a horizontal rule of `width` dashes.
pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_parsing_falls_back_to_default() {
        assert_eq!(env_u64("IPREGEL_SURELY_UNSET_VAR_XYZ", 150), 150);
    }

    #[test]
    fn human_bytes_picks_units() {
        assert_eq!(human_bytes(11.01e9), "11.01 GB");
        assert_eq!(human_bytes(730e6), "730.0 MB");
        assert_eq!(human_bytes(4096.0), "4 KB");
    }

    #[test]
    fn secs_formats_three_decimals() {
        assert_eq!(secs(Duration::from_millis(1234)), "1.234");
    }

    #[test]
    fn paper_graph_analogs_build_at_tiny_scale() {
        let wiki = WIKIPEDIA.analog_graph(20_000, SEED, NeighborMode::Both);
        let usa = USA_ROADS.analog_graph(20_000, SEED + 1, NeighborMode::Both);
        assert!(wiki.num_vertices() > 0 && usa.num_vertices() > 0);
        assert!(wiki.has_in_edges() && wiki.has_out_edges());
        assert!(usa.is_weighted());
    }
}
