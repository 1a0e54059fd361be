//! End-to-end check of the harness at `--scale smoke`: every workload and
//! every metric `BENCHMARK.json` names comes out exactly once, under the
//! contract's output shape.

use std::path::PathBuf;
use std::process::Command;

#[path = "../src/json.rs"]
#[allow(dead_code)]
mod json;
use json::Json;

fn benchmark_json() -> Json {
    Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses")
}

fn names(list: &Json) -> Vec<(String, String)> {
    list.as_arr()
        .iter()
        .map(|m| {
            let text = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .unwrap_or_else(|| panic!("metric lacks {k}"))
                    .to_string()
            };
            (text("name"), text("unit"))
        })
        .collect()
}

/// A directory of this test's own under `benchmark/out`: tests run in
/// parallel and must not share trace or result files.
struct OutDir(PathBuf);

impl OutDir {
    fn new(test: &str) -> OutDir {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-{test}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        OutDir(dir)
    }

    fn bench(&self, args: &[&str]) -> String {
        let out = Command::new(env!("CARGO_BIN_EXE_ipregel-benchmark"))
            .args(args)
            .env("IPREGEL_BENCH_OUT", &self.0)
            .output()
            .expect("run the benchmark binary");
        assert!(
            out.status.success(),
            "{args:?} failed:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).unwrap()
    }
}

impl Drop for OutDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The metrics object of one report must name exactly `expected`, in
/// order, each once, with the declared unit and a finite value.
fn assert_metrics(report: &Json, expected: &[(String, String)], context: &str) {
    let metrics = report
        .get("metrics")
        .unwrap_or_else(|| panic!("{context}: no metrics"))
        .as_obj();
    let got: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let want: Vec<&str> = expected.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(got, want, "{context}: metric names");
    for ((name, m), (_, unit)) in metrics.iter().zip(expected) {
        assert_eq!(
            m.get("unit").and_then(Json::as_str),
            Some(unit.as_str()),
            "{context}: unit of {name}"
        );
        assert!(
            m.get("value").and_then(Json::as_f64).is_some(),
            "{context}: {name} has no finite value"
        );
    }
}

#[test]
fn smoke_run_reports_every_named_metric_of_every_workload_once() {
    let bench_json = benchmark_json();
    let e2e = names(bench_json.get("end_to_end").unwrap());
    let layers = names(bench_json.get("per_layer").unwrap());
    // The four workloads the driver runs, then the one it does not.
    let mut workloads: Vec<String> = bench_json
        .get("workloads")
        .unwrap()
        .as_arr()
        .iter()
        .map(|w| w.get("name").unwrap().as_str().unwrap().to_string())
        .collect();
    assert_eq!(workloads.len(), 4);
    workloads.push("serve_sssp_batched".to_string());

    let dir = OutDir::new("smoke");
    let started = std::time::Instant::now();
    let stdout = dir.bench(&["run", "--seed", "7", "--seconds", "1", "--scale", "smoke"]);
    assert!(
        started.elapsed().as_secs() < 60,
        "the smoke suite took {:?}",
        started.elapsed()
    );
    let results_path = dir.0.join("results-7.json");
    let results =
        Json::parse(&std::fs::read_to_string(&results_path).unwrap()).expect("results file parses");

    for field in [
        "nproc",
        "cpu_model",
        "caches",
        "ram_gb",
        "rustc",
        "commit",
        "os",
    ] {
        assert!(
            results.get("machine").unwrap().get(field).is_some(),
            "machine descriptor lacks {field}"
        );
    }
    let sets = results.get("sets").unwrap().as_arr();
    assert_eq!(sets.len(), 1);
    let got: Vec<&str> = sets[0].as_obj().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        got,
        workloads.iter().map(String::as_str).collect::<Vec<_>>(),
        "workloads, each once"
    );
    for (workload, runs) in sets[0].as_obj() {
        for (kind, expected) in [("end_to_end", &e2e), ("per_layer", &layers)] {
            let report = runs.get(kind).unwrap();
            let context = format!("{workload}/{kind}");
            assert_metrics(report, expected, &context);
            assert_eq!(
                report.get("failed").and_then(Json::as_f64),
                Some(0.0),
                "{context}: {:?}",
                report.get("notes")
            );
            assert!(
                report.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0,
                "{context}: nothing attempted"
            );
            // The table the one command prints names each metric once too.
            for (name, _) in expected {
                let rows = stdout
                    .lines()
                    .filter(|l| l.split_whitespace().next() == Some(name.as_str()))
                    .count();
                assert_eq!(rows, workloads.len(), "{name} is printed once per workload");
            }
        }
        // End-to-end metrics are never 0; traced runs wrote their spans.
        for (name, m) in runs
            .get("end_to_end")
            .unwrap()
            .get("metrics")
            .unwrap()
            .as_obj()
        {
            assert!(
                m.get("value").unwrap().as_f64().unwrap() > 0.0,
                "{workload}/{name} is 0"
            );
        }
        let trace = dir.0.join(format!("trace-{workload}.jsonl"));
        assert!(
            std::fs::metadata(&trace).is_ok_and(|m| m.len() > 0),
            "{} is missing",
            trace.display()
        );
    }

    // A results file compares clean against itself.
    let path = results_path.to_str().unwrap();
    let table = dir.bench(&["compare", path, path]);
    assert_eq!(
        table.lines().filter(|l| l.ends_with("same")).count(),
        workloads.len() * e2e.len()
    );
}

#[test]
fn one_run_ends_with_the_contract_line() {
    let bench_json = benchmark_json();
    let dir = OutDir::new("contract");
    for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
        let stdout = dir.bench(&[
            "--workload",
            "road_sssp",
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
            trace,
            "--scale",
            "smoke",
        ]);
        let last = Json::parse(stdout.lines().last().unwrap()).expect("last line is JSON");
        let keys: Vec<&str> = last.as_obj().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(last.get("correct").and_then(Json::as_bool), Some(true));
        let expected = names(bench_json.get(list).unwrap());
        assert_metrics(&last, &expected, list);
        for (_, m) in last.get("metrics").unwrap().as_obj() {
            assert_eq!(
                m.as_obj()
                    .iter()
                    .map(|(k, _)| k.as_str())
                    .collect::<Vec<_>>(),
                ["value", "unit"]
            );
        }
    }
}

#[test]
fn exact_counts_repeat_across_runs_of_one_seed() {
    let dir = OutDir::new("counts");
    let counts = |seed: &str| -> Vec<f64> {
        let stdout = dir.bench(&[
            "--workload",
            "wiki_pagerank_push_compact",
            "--seed",
            seed,
            "--seconds",
            "1",
            "--trace",
            "1",
            "--scale",
            "smoke",
        ]);
        let last = Json::parse(stdout.lines().last().unwrap()).unwrap();
        [
            "core.supersteps",
            "core.messages",
            "core.vertex_execs",
            "graph.bytes_per_edge_plain",
            "graph.bytes_per_edge_compact",
        ]
        .iter()
        .map(|name| {
            last.get("metrics")
                .unwrap()
                .get(name)
                .unwrap()
                .get("value")
                .unwrap()
                .as_f64()
                .unwrap()
        })
        .collect()
    };
    let first = counts("5");
    assert_eq!(first, counts("5"));
    assert!(first.iter().all(|&c| c > 0.0));
}

#[test]
fn unknown_workload_is_an_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_ipregel-benchmark"))
        .args(["--workload", "nope", "--seed", "1"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown workload"));
}
