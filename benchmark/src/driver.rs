//! The parent side of a run: make the inputs from the seed, start the
//! worker child, read its report.

use std::process::{Command, Stdio};

use crate::config::{all_workloads, out_dir, Scale};
use crate::inputs;
use crate::json::{obj, Json};
use crate::report::Report;
use crate::worker::WorkerArgs;

pub fn run_one(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
) -> Result<Report, String> {
    if !all_workloads().any(|w| w == workload) {
        return Err(format!(
            "unknown workload {workload:?}; the workloads are {:?}",
            all_workloads().collect::<Vec<_>>()
        ));
    }
    let out = out_dir();
    let dir = out
        .join("inputs")
        .join(format!("{workload}-{seed}-{}", std::process::id()));
    let input = inputs::generate(workload, seed, &scale, &dir)
        .map_err(|e| format!("cannot write inputs under {}: {e}", dir.display()))?;
    let args = WorkerArgs {
        workload: workload.to_string(),
        seed,
        seconds,
        trace,
        scale,
        input: input.path.clone(),
        vertices: input.vertices,
        edges: input.edges,
        out,
    };
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    // `output()` waits for the child: no process outlives the run.
    let child = Command::new(exe)
        .args(args.to_argv())
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output();
    let _ = std::fs::remove_dir_all(&dir);
    let child = child.map_err(|e| format!("cannot start the worker: {e}"))?;
    if !child.status.success() {
        return Err(format!(
            "worker for {workload} exited with {}",
            child.status
        ));
    }
    let stdout = String::from_utf8_lossy(&child.stdout);
    let line = stdout.lines().last().ok_or("worker printed nothing")?;
    let mut report = Report::from_json(&Json::parse(line)?)?;
    report.notes.insert(
        0,
        format!(
            "input {}: |V|={} |E|={} digest {:016x}, generated in {:.3} s (not a metric)",
            input
                .path
                .file_name()
                .map_or_else(String::new, |n| n.to_string_lossy().into_owned()),
            input.vertices,
            input.edges,
            input.digest,
            input.gen_s
        ),
    );
    Ok(report)
}

fn read(path: &str) -> String {
    std::fs::read_to_string(path)
        .map(|s| s.trim().to_string())
        .unwrap_or_default()
}

fn command_line(program: &str, arg: &str) -> String {
    Command::new(program)
        .arg(arg)
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The machine a result file was measured on.
pub fn machine() -> Json {
    let cpuinfo = read("/proc/cpuinfo");
    let model = cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map_or("unknown", str::trim)
        .to_string();
    let mut caches = Vec::new();
    for index in 0..8 {
        let base = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let size = read(&format!("{base}/size"));
        if !size.is_empty() {
            caches.push((
                format!(
                    "L{} {}",
                    read(&format!("{base}/level")),
                    read(&format!("{base}/type"))
                ),
                Json::Str(size),
            ));
        }
    }
    let ram_kb = read("/proc/meminfo")
        .lines()
        .find(|l| l.starts_with("MemTotal"))
        .and_then(|l| {
            l.split_whitespace()
                .nth(1)
                .and_then(|n| n.parse::<f64>().ok())
        })
        .unwrap_or(0.0);
    // The driver's checkout is not a git repository; say so instead of guessing.
    let head = read(&format!("{}/../.git/HEAD", env!("CARGO_MANIFEST_DIR")));
    let commit = match head.strip_prefix("ref: ") {
        Some(r) => read(&format!("{}/../.git/{r}", env!("CARGO_MANIFEST_DIR"))),
        None => head,
    };
    obj([
        (
            "nproc",
            (std::thread::available_parallelism().map_or(0, |n| n.get()) as f64).into(),
        ),
        ("cpu_model", model.as_str().into()),
        ("caches", Json::Obj(caches)),
        ("ram_gb", (ram_kb / 1e6).into()),
        ("rustc", command_line("rustc", "--version").as_str().into()),
        (
            "commit",
            if commit.is_empty() {
                "unknown".into()
            } else {
                commit.as_str().into()
            },
        ),
        ("os", read("/proc/sys/kernel/osrelease").as_str().into()),
    ])
}
