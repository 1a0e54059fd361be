//! The measuring child process. Each workload runs in a fresh
//! `… worker <workload>` child of the harness, so peak RSS and allocator
//! state belong to that workload alone; the parent only makes the inputs.

use std::path::PathBuf;

use crate::batch::{self, BatchSpec};
use crate::config::{end_to_end, Scale};
use crate::report::Report;
use crate::serve;
use crate::spans::Recorder;

#[derive(Debug, Clone)]
pub struct WorkerArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    /// The workload's one input file and what the generator put in it.
    pub input: PathBuf,
    pub vertices: usize,
    pub edges: u64,
    /// Where trace files go.
    pub out: PathBuf,
}

impl WorkerArgs {
    pub fn to_argv(&self) -> Vec<String> {
        vec![
            "worker".into(),
            self.workload.clone(),
            self.seed.to_string(),
            self.seconds.to_string(),
            u8::from(self.trace).to_string(),
            self.scale.name.into(),
            self.input.display().to_string(),
            self.vertices.to_string(),
            self.edges.to_string(),
            self.out.display().to_string(),
        ]
    }

    /// Write the traced run's spans to `trace-<workload>.jsonl` and note
    /// where they went, with the median self time per span name.
    pub fn write_trace(&self, report: &mut Report, rec: &Recorder) {
        let path = self.out.join(format!("trace-{}.jsonl", self.workload));
        match rec.write_jsonl(&path) {
            Ok(()) => report.note(format!(
                "{} spans written to {}; {}",
                rec.spans.len(),
                path.display(),
                rec.self_time_summary()
            )),
            Err(e) => report.fail(format!("cannot write {}: {e}", path.display())),
        }
    }

    pub fn from_argv(argv: &[String]) -> Result<WorkerArgs, String> {
        let [_, workload, seed, seconds, trace, scale, input, vertices, edges, out] = argv else {
            return Err(format!(
                "worker takes 9 arguments, got {}",
                argv.len().saturating_sub(1)
            ));
        };
        let bad = |what: &str| format!("worker: bad {what}");
        Ok(WorkerArgs {
            workload: workload.clone(),
            seed: seed.parse().map_err(|_| bad("seed"))?,
            seconds: seconds.parse().map_err(|_| bad("seconds"))?,
            trace: trace == "1",
            scale: Scale::by_name(scale)?,
            input: PathBuf::from(input),
            vertices: vertices.parse().map_err(|_| bad("vertex count"))?,
            edges: edges.parse().map_err(|_| bad("edge count"))?,
            out: PathBuf::from(out),
        })
    }
}

/// Measure one workload and return its report with every metric of the
/// run's kind present.
pub fn run(args: &WorkerArgs) -> Report {
    let mut report = match BatchSpec::of(&args.workload) {
        Some(spec) => batch::run(args, &spec),
        None => serve::run(args),
    };
    if args.trace {
        report.fill_uncalled();
    } else {
        for (name, _) in end_to_end() {
            assert!(
                report.metrics.contains_key(name),
                "end-to-end metric {name} was not measured"
            );
        }
    }
    report
}
