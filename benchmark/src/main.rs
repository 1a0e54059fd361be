//! The repository's benchmark. See `benchmark/README.md`.
//!
//! ```text
//! ipregel-benchmark --workload W --seed N --seconds S --trace 0|1   one run, as BENCHMARK.json's command
//! ipregel-benchmark run [--seed N] [--seconds S] [--sets K] [--scale smoke] [--out FILE]
//! ipregel-benchmark compare A.json B.json
//! ipregel-benchmark self-check [--seed N] [--seconds S] [--scale smoke]
//! ```

mod batch;
mod compare;
mod config;
mod driver;
mod inputs;
mod json;
mod probes;
mod report;
mod serve;
mod spans;
mod stats;
mod worker;

use std::path::PathBuf;
use std::process::ExitCode;

use config::{all_workloads, run_seconds, Scale};
use json::{obj, Json};

/// The value after `--name`, if the flag is there.
fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn number<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    flag(args, name).map_or(Ok(default), |v| {
        v.parse()
            .map_err(|_| format!("bad value for {name}: {v:?}"))
    })
}

fn scale(args: &[String]) -> Result<Scale, String> {
    Scale::by_name(flag(args, "--scale").unwrap_or("default"))
}

/// One workload, one run: what `BENCHMARK.json`'s command does.
fn one(args: &[String]) -> Result<bool, String> {
    let workload = flag(args, "--workload").ok_or("--workload is required")?;
    let trace = number(args, "--trace", 0u8)? == 1;
    let scale = scale(args)?;
    let report = driver::run_one(
        workload,
        number(args, "--seed", 1u64)?,
        number(args, "--seconds", run_seconds())?,
        trace,
        scale,
    )?;
    report.print_table();
    println!("{}", report.contract_line());
    Ok(true)
}

/// Every workload, untraced for the end-to-end metrics and once more
/// traced for the per-layer metrics, `sets` times over.
fn run_sets(seed: u64, seconds: f64, sets: usize, scale: Scale) -> Result<Json, String> {
    let mut all = Vec::new();
    for set in 0..sets {
        let mut runs = Vec::new();
        for workload in all_workloads() {
            let e2e = driver::run_one(workload, seed, seconds, false, scale)?;
            e2e.print_table();
            let layers = driver::run_one(workload, seed, seconds, true, scale)?;
            layers.print_table();
            println!();
            runs.push((
                workload.to_string(),
                obj([
                    ("end_to_end", e2e.to_json()),
                    ("per_layer", layers.to_json()),
                ]),
            ));
        }
        println!("# set {} of {sets} done", set + 1);
        all.push(Json::Obj(runs));
    }
    Ok(obj([
        ("machine", driver::machine()),
        ("seed", (seed as f64).into()),
        ("seconds", seconds.into()),
        ("scale", scale.name.into()),
        ("sets", Json::Arr(all)),
    ]))
}

fn write_results(path: &PathBuf, results: &Json) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, format!("{results}\n"))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("results written to {}", path.display());
    Ok(())
}

fn run(args: &[String]) -> Result<bool, String> {
    let seed = number(args, "--seed", 1u64)?;
    let scale = scale(args)?;
    let results = run_sets(
        seed,
        number(args, "--seconds", run_seconds())?,
        number(args, "--sets", 1usize)?,
        scale,
    )?;
    println!("machine: {}", results.get("machine").unwrap_or(&Json::Null));
    let out = flag(args, "--out").map_or_else(
        || config::out_dir().join(format!("results-{seed}.json")),
        PathBuf::from,
    );
    write_results(&out, &results)?;
    Ok(true)
}

fn load_results(path: &str) -> Result<Json, String> {
    Json::parse(&std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?)
        .map_err(|e| format!("{path}: {e}"))
}

fn compare_files(base: &Json, new: &Json) -> Result<bool, String> {
    let comparison = compare::compare(base, new, config::benchmark_json())?;
    comparison.print();
    Ok(comparison.passed())
}

/// Two full sets of the same build, held against each other.
fn self_check(args: &[String]) -> Result<bool, String> {
    let seed = number(args, "--seed", 1u64)?;
    let seconds = number(args, "--seconds", run_seconds())?;
    let scale = scale(args)?;
    let first = run_sets(seed, seconds, 1, scale)?;
    let second = run_sets(seed, seconds, 1, scale)?;
    write_results(&config::out_dir().join("self-check-a.json"), &first)?;
    write_results(&config::out_dir().join("self-check-b.json"), &second)?;
    compare_files(&first, &second)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("worker") => worker::WorkerArgs::from_argv(&args).map(|a| {
            println!("{}", worker::run(&a).to_json());
            true
        }),
        Some("run") => run(&args),
        Some("compare") => match &args[1..] {
            [a, b] => load_results(a).and_then(|a| compare_files(&a, &load_results(b)?)),
            _ => Err("usage: compare A.json B.json".to_string()),
        },
        Some("self-check") => self_check(&args),
        _ if flag(&args, "--workload").is_some() => one(&args),
        _ => Err(
            "usage: --workload W --seed N --seconds S --trace 0|1 | run | compare A B | self-check"
                .to_string(),
        ),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("ipregel-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
