//! The frozen constants of the benchmark. Workload names, metric names,
//! units, bounds and `run_seconds` are read from `BENCHMARK.json`, which
//! may hold nothing else; graph divisors, the caller count, the open-loop
//! rate and the latency limits are the `Scale` constants below. Nothing is
//! calibrated at run time.

use std::path::PathBuf;
use std::sync::OnceLock;

use crate::json::Json;

/// `BENCHMARK.json`: the one list of workload names, metric names, units
/// and bounds. It is compiled in, so the harness cannot disagree with it.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// Metric names with their units, in reporting order.
pub type Table = [(String, String)];

struct Contract {
    json: Json,
    workloads: Vec<String>,
    end_to_end: Vec<(String, String)>,
    per_layer: Vec<(String, String)>,
}

fn contract() -> &'static Contract {
    static CONTRACT: OnceLock<Contract> = OnceLock::new();
    CONTRACT.get_or_init(|| {
        let json = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let text = |entry: &Json, key: &str| -> String {
            entry
                .get(key)
                .and_then(Json::as_str)
                .unwrap_or_else(|| panic!("BENCHMARK.json: entry lacks {key:?}"))
                .to_string()
        };
        let list = |key: &str| {
            json.get(key)
                .unwrap_or_else(|| panic!("BENCHMARK.json lacks {key:?}"))
                .as_arr()
        };
        let metrics = |key: &str| {
            list(key)
                .iter()
                .map(|m| (text(m, "name"), text(m, "unit")))
                .collect()
        };
        Contract {
            workloads: list("workloads").iter().map(|w| text(w, "name")).collect(),
            end_to_end: metrics("end_to_end"),
            per_layer: metrics("per_layer"),
            json,
        }
    })
}

/// The parsed `BENCHMARK.json` (bounds and directions, for `compare`).
pub fn benchmark_json() -> &'static Json {
    &contract().json
}

/// The workloads `BENCHMARK.json` names: the ones the driver runs and
/// holds against the bounds.
pub fn workloads() -> &'static [String] {
    &contract().workloads
}

/// A workload the harness runs and checks like the others (`run`,
/// `self-check`, `--workload`) but `BENCHMARK.json` does not name: the
/// driver's time limit buys four workloads of 26 s or five of 16 s, and
/// on this machine 16 s runs of identical code do not repeat within the
/// bounds (see the README). Its timings are the least steady of the five.
pub const EXTRA_WORKLOAD: &str = "serve_sssp_batched";

/// Every workload the harness knows, the extra one last.
pub fn all_workloads() -> impl Iterator<Item = &'static str> {
    workloads()
        .iter()
        .map(String::as_str)
        .chain([EXTRA_WORKLOAD])
}

/// End-to-end metrics, reported by every workload on an untraced run.
pub fn end_to_end() -> &'static Table {
    &contract().end_to_end
}

/// Per-layer metrics, reported by every workload on a traced run; a layer
/// a workload never calls reports 0 with no samples.
pub fn per_layer() -> &'static Table {
    &contract().per_layer
}

/// `run_seconds`: how long one run measures unless `--seconds` says otherwise.
pub fn run_seconds() -> f64 {
    benchmark_json()
        .get("run_seconds")
        .and_then(Json::as_f64)
        .expect("BENCHMARK.json: run_seconds")
}

/// Engine threads on every batch job: the paper's own setting (§7.1.2)
/// and this machine's core count.
pub const ENGINE_THREADS: usize = 2;

/// Everything that sizes a run. `DEFAULT` is what the driver measures;
/// `SMOKE` shrinks every input so the whole suite fits a test.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub name: &'static str,
    /// `WIKIPEDIA.analog_graph` divisor of the two wiki batch workloads.
    pub wiki_divisor: u64,
    /// `USA_ROADS.analog_graph` divisor of `road_sssp`.
    pub road_divisor: u64,
    /// `WIKIPEDIA.analog_graph` divisor of the resident serve graph.
    pub serve_divisor: u64,
    /// Road divisor of the scan-selection probe, which pays O(|V|) per
    /// superstep and would not finish on the workload's own graph.
    pub scan_road_divisor: u64,
    /// Requests `serve_sssp_batched` keeps outstanding: two full batches,
    /// so the one worker always finds a full batch queued.
    pub callers: usize,
    /// Arrival rate of the open loop in the traced run of
    /// `serve_sssp_batched`, requests per second.
    pub open_rate_rps: f64,
    /// Latency limits: 4x the reference `op_ms` of each serve workload
    /// (70 and 17 ms, the medians of ten runs on the parent commit).
    pub batched_limit_ms: f64,
    pub closed_limit_ms: f64,
    /// Fewest samples a timed quantity may rest on.
    pub min_setups: usize,
    pub min_jobs: usize,
    pub probe_samples: usize,
    /// Lines `net::serve` answers in the closed loop before it returns;
    /// see `serve::closed_window`.
    pub line_budget: u64,
}

pub const DEFAULT: Scale = Scale {
    name: "default",
    wiki_divisor: 64,
    road_divisor: 32,
    serve_divisor: 300,
    scan_road_divisor: 512,
    callers: 16,
    open_rate_rps: 40.0,
    batched_limit_ms: 280.0,
    closed_limit_ms: 68.0,
    min_setups: 5,
    min_jobs: 5,
    probe_samples: 5,
    line_budget: 40_000,
};

pub const SMOKE: Scale = Scale {
    name: "smoke",
    wiki_divisor: 8000,
    road_divisor: 8000,
    serve_divisor: 20000,
    scan_road_divisor: 40000,
    callers: 16,
    open_rate_rps: 200.0,
    batched_limit_ms: 50.0,
    closed_limit_ms: 50.0,
    min_setups: 2,
    min_jobs: 2,
    probe_samples: 2,
    line_budget: 3_000,
};

impl Scale {
    pub fn by_name(name: &str) -> Result<Scale, String> {
        match name {
            "default" => Ok(DEFAULT),
            "smoke" => Ok(SMOKE),
            other => Err(format!("unknown --scale {other:?} (default, smoke)")),
        }
    }
}

/// Where inputs, traces and result files go: `benchmark/out`, inside the
/// checkout. `run.sh` exports the location; a bare `cargo run` falls back
/// to the manifest directory the binary was built from.
pub fn out_dir() -> PathBuf {
    std::env::var_os("IPREGEL_BENCH_OUT").map_or_else(
        || PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out"),
        PathBuf::from,
    )
}
