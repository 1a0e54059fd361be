//! Command-line front end for the iPregel reproduction.
//!
//! ```text
//! ipregel <command> --graph FILE [options]
//!
//! commands:
//!   pagerank     fixed-iteration PageRank          (--rounds, --damping)
//!   sssp         single-source shortest path       (--source, --weighted)
//!   bfs          breadth-first levels              (--source)
//!   components   connected components (Hashmin)
//!   maxvalue     max-value propagation (Pregel's canonical example)
//!   kcore        k-core membership                 (--k)
//!   widest       single-source widest path         (--source)
//!   ppr          personalised PageRank             (--source, --rounds, --damping)
//!   diameter     pseudo-diameter by double sweep   (--source)
//!   bipartite    two-colouring / odd-cycle check   (--source)
//!   stats        print graph statistics and exit
//!   validate     structural report (symmetry, loops, duplicates)
//!   convert      rewrite in another format         (--out, --out-format)
//!   serve        resident query server over TCP    (--port, --port-file,
//!                --requests, --queue-capacity, --workers; see
//!                docs/INTERNALS.md, "Server")
//!
//! options:
//!   --graph FILE            input path (required)
//!   --format FMT            edgelist | dimacs | konect | binary
//!                           (default: guessed from the extension)
//!   --combiner C            mutex | spinlock | broadcast  (default spinlock;
//!                           pagerank defaults to broadcast)
//!   --engine E              ipregel (default) | naive | ooc | seq —
//!                           naive is the FemtoGraph-style baseline, ooc
//!                           the out-of-core engine (spills to a temp
//!                           file, unweighted), seq the single-threaded
//!                           oracle; combiner/bypass apply to ipregel only
//!   --bypass                enable the selection bypass (Section 4)
//!   --schedule S            vertex | edge | adaptive — how supersteps are
//!                           cut into parallel chunks (default vertex;
//!                           edge balances by degree, for skewed graphs)
//!   --threads N             worker threads (default: all cores)
//!   --top K                 print the K most extreme results (default 10)
//!   --rounds N              PageRank iterations (default 30)
//!   --damping F             PageRank damping (default 0.85)
//!   --source ID             SSSP/BFS source vertex (default 2, as the paper)
//!   --weighted              SSSP uses edge weights (push combiners only)
//!   --relabel P             none | degree — permute vertices before the
//!                           run (degree = descending out-degree, the
//!                           cache- and compression-friendly order);
//!                           printed ids are mapped back to the
//!                           originals, so results are unchanged
//!   --compress              re-encode adjacency as sorted delta-varint
//!                           lists before running (--engine ipregel|seq;
//!                           see docs/INTERNALS.md, "Memory model")
//!   --k N                   k-core order (default 2)
//!   --out FILE              convert: output path
//!   --out-format FMT        convert: edgelist | dimacs | binary
//!   --checkpoint-dir DIR    write superstep checkpoints into DIR
//!                           (--engine ipregel only; see docs/INTERNALS.md)
//!   --checkpoint-every N    checkpoint cadence in supersteps (default 1)
//!   --resume                restore the newest valid checkpoint in
//!                           --checkpoint-dir before running
//!   --deadline SECS         abort cleanly (with partial stats) if the
//!                           run exceeds SECS seconds
//!   --trace-out FILE        write a structured JSONL trace of the run
//!                           (records events only when the crate is built
//!                           with `--features trace`; see docs/INTERNALS.md,
//!                           "Observability")
//!   --metrics-out FILE      write Prometheus text-format metrics derived
//!                           from the same trace
//!   --port N                serve: TCP port to bind on 127.0.0.1
//!                           (default 0 = ephemeral)
//!   --port-file FILE        serve: write the bound port here once
//!                           listening (how tests and scripts find an
//!                           ephemeral port)
//!   --requests N            serve: answer N protocol lines, then shut
//!                           down gracefully (default: run forever)
//!   --queue-capacity N      serve: bounded admission queue size
//!                           (default 64); submissions beyond it shed
//!   --workers N             serve: request worker threads (default 2),
//!                           each with an engine pool of its own that
//!                           gets an even share of the cores (at least 1)
//!   --batch K               serve: fold up to K compatible queued
//!                           requests into one K-lane engine run
//!                           (default 1 = batching off)
//!   --batch-window-ms MS    serve: how long a worker lingers for
//!                           stragglers before running a partial batch
//!                           (default 0 = only what is already queued)
//! ```
//!
//! The library entry point [`run_cli`] returns the rendered output so the
//! whole surface is unit-testable without spawning processes.

// This crate needs no unsafe; keep it that way (see docs/INTERNALS.md,
// "Safety model").
#![forbid(unsafe_code)]

use std::cmp::Ordering;
use std::fmt;
use std::fs::File;
use std::io::BufReader;
use std::path::Path;

use std::sync::Arc;

use ipregel::recover::run_with_checkpoints;
use ipregel::trace::Tracer;
use ipregel::{
    try_run, try_run_sequential, CheckpointConfig, CombinerKind, Persist, RunConfig, RunError,
    RunOutput, Schedule, Version, VertexProgram,
};
use ipregel_apps::{Bfs, Hashmin, PageRank, Sssp, WeightedSssp};
use ipregel_graph::loaders::{load_dimacs_gr, load_edge_list, load_konect, read_binary};
use ipregel_graph::transform::{degree_relabeling, relabel_graph};
use ipregel_graph::{Graph, GraphStats, NeighborMode, Relabeling};

/// Usage text shown on argument errors.
pub const USAGE: &str = "usage: ipregel \
<pagerank|sssp|bfs|components|maxvalue|kcore|widest|ppr|diameter|bipartite|stats|validate|convert|serve> \
--graph FILE \
[--format edgelist|dimacs|konect|binary] [--combiner mutex|spinlock|broadcast] [--bypass] \
[--schedule vertex|edge|adaptive] \
[--threads N] [--top K] [--rounds N] [--damping F] [--source ID] [--weighted] [--k N] \
[--relabel none|degree] [--compress] \
[--out FILE --out-format edgelist|dimacs|binary] \
[--checkpoint-dir DIR] [--checkpoint-every N] [--resume] [--deadline SECS] \
[--trace-out FILE] [--metrics-out FILE] \
[--port N] [--port-file FILE] [--requests N] [--queue-capacity N] [--workers N] \
[--batch K] [--batch-window-ms MS]";

/// CLI failure with a human-readable message.
#[derive(Debug, PartialEq, Eq)]
pub struct CliError(pub String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CliError {}

fn err<T>(msg: impl Into<String>) -> Result<T, CliError> {
    Err(CliError(msg.into()))
}

/// Which engine executes the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineChoice {
    /// The optimised framework (combiner/bypass select the version).
    #[default]
    IPregel,
    /// The FemtoGraph-style naive shared-memory baseline.
    Naive,
    /// The out-of-core engine (edges spilled to a temp file).
    OutOfCore,
    /// The single-threaded differential oracle.
    Sequential,
}

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// Subcommand name.
    pub command: String,
    /// Graph file path.
    pub graph: String,
    /// Input format (`None` = guess from extension).
    pub format: Option<String>,
    /// Combiner (`None` = per-command default).
    pub combiner: Option<CombinerKind>,
    /// Selection bypass toggle.
    pub bypass: bool,
    /// Superstep scheduling policy.
    pub schedule: Schedule,
    /// Thread count.
    pub threads: Option<usize>,
    /// Results to print.
    pub top: usize,
    /// PageRank iterations.
    pub rounds: usize,
    /// PageRank damping.
    pub damping: f64,
    /// SSSP/BFS source.
    pub source: u32,
    /// Weighted SSSP.
    pub weighted: bool,
    /// Relabel vertices by descending out-degree before running.
    pub relabel_degree: bool,
    /// Re-encode adjacency as delta-varint lists before running.
    pub compress: bool,
    /// k-core order.
    pub k: u32,
    /// Convert: output path.
    pub out: Option<String>,
    /// Convert: output format.
    pub out_format: Option<String>,
    /// Executing engine.
    pub engine: EngineChoice,
    /// Checkpoint directory (`None` = no checkpointing).
    pub checkpoint_dir: Option<String>,
    /// Checkpoint cadence in supersteps.
    pub checkpoint_every: usize,
    /// Resume from the newest valid checkpoint before running.
    pub resume: bool,
    /// Cooperative wall-clock budget in seconds.
    pub deadline: Option<f64>,
    /// Write a JSONL superstep trace here (`None` = no trace).
    pub trace_out: Option<String>,
    /// Write Prometheus text-format metrics here (`None` = none).
    pub metrics_out: Option<String>,
    /// Serve: TCP port (0 = ephemeral).
    pub port: u16,
    /// Serve: write the bound port here once listening.
    pub port_file: Option<String>,
    /// Serve: answer this many protocol lines, then shut down
    /// (`None` = run forever).
    pub requests: Option<u64>,
    /// Serve: bounded admission queue capacity.
    pub queue_capacity: usize,
    /// Serve: request worker threads.
    pub workers: usize,
    /// Serve: fold up to this many compatible queued requests into one
    /// K-lane engine run (1 = batching off).
    pub batch: usize,
    /// Serve: how long a worker lingers for stragglers before running a
    /// partial batch, in milliseconds.
    pub batch_window_ms: u64,
}

/// Parse raw arguments into [`Options`].
pub fn parse_args(args: &[String]) -> Result<Options, CliError> {
    let mut it = args.iter();
    let command = match it.next() {
        Some(c) => c.clone(),
        None => return err("missing command"),
    };
    if !matches!(
        command.as_str(),
        "pagerank" | "sssp" | "bfs" | "components" | "maxvalue" | "kcore" | "widest" | "ppr"
            | "diameter" | "bipartite" | "stats" | "validate" | "convert" | "serve"
    ) {
        return err(format!("unknown command {command:?}"));
    }
    let mut opts = Options {
        command,
        graph: String::new(),
        format: None,
        combiner: None,
        bypass: false,
        schedule: Schedule::default(),
        threads: None,
        top: 10,
        rounds: 30,
        damping: 0.85,
        source: 2,
        weighted: false,
        relabel_degree: false,
        compress: false,
        k: 2,
        out: None,
        out_format: None,
        engine: EngineChoice::default(),
        checkpoint_dir: None,
        checkpoint_every: 1,
        resume: false,
        deadline: None,
        trace_out: None,
        metrics_out: None,
        port: 0,
        port_file: None,
        requests: None,
        queue_capacity: 64,
        workers: 2,
        batch: 1,
        batch_window_ms: 0,
    };
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next().map(String::as_str).ok_or_else(|| CliError(format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--graph" => opts.graph = value()?.to_string(),
            "--format" => opts.format = Some(value()?.to_string()),
            "--combiner" => {
                opts.combiner = Some(match value()? {
                    "mutex" => CombinerKind::Mutex,
                    "spinlock" => CombinerKind::Spinlock,
                    "broadcast" => CombinerKind::Broadcast,
                    other => return err(format!("unknown combiner {other:?}")),
                })
            }
            "--bypass" => opts.bypass = true,
            "--schedule" => opts.schedule = value()?.parse().map_err(CliError)?,
            "--threads" => {
                opts.threads =
                    Some(value()?.parse().map_err(|e| CliError(format!("bad --threads: {e}")))?)
            }
            "--top" => {
                opts.top = value()?.parse().map_err(|e| CliError(format!("bad --top: {e}")))?
            }
            "--rounds" => {
                opts.rounds = value()?.parse().map_err(|e| CliError(format!("bad --rounds: {e}")))?
            }
            "--damping" => {
                opts.damping =
                    value()?.parse().map_err(|e| CliError(format!("bad --damping: {e}")))?
            }
            "--source" => {
                opts.source = value()?.parse().map_err(|e| CliError(format!("bad --source: {e}")))?
            }
            "--weighted" => opts.weighted = true,
            "--relabel" => {
                opts.relabel_degree = match value()? {
                    "degree" => true,
                    "none" => false,
                    other => return err(format!("unknown relabelling {other:?}")),
                }
            }
            "--compress" => opts.compress = true,
            "--k" => opts.k = value()?.parse().map_err(|e| CliError(format!("bad --k: {e}")))?,
            "--out" => opts.out = Some(value()?.to_string()),
            "--out-format" => opts.out_format = Some(value()?.to_string()),
            "--checkpoint-dir" => opts.checkpoint_dir = Some(value()?.to_string()),
            "--checkpoint-every" => {
                opts.checkpoint_every = value()?
                    .parse()
                    .map_err(|e| CliError(format!("bad --checkpoint-every: {e}")))?
            }
            "--resume" => opts.resume = true,
            "--deadline" => {
                let secs: f64 =
                    value()?.parse().map_err(|e| CliError(format!("bad --deadline: {e}")))?;
                if !secs.is_finite() || secs < 0.0 {
                    return err(format!("bad --deadline: {secs} is not a duration"));
                }
                opts.deadline = Some(secs);
            }
            "--trace-out" => opts.trace_out = Some(value()?.to_string()),
            "--metrics-out" => opts.metrics_out = Some(value()?.to_string()),
            "--port" => {
                opts.port = value()?.parse().map_err(|e| CliError(format!("bad --port: {e}")))?
            }
            "--port-file" => opts.port_file = Some(value()?.to_string()),
            "--requests" => {
                opts.requests =
                    Some(value()?.parse().map_err(|e| CliError(format!("bad --requests: {e}")))?)
            }
            "--queue-capacity" => {
                let n: usize = value()?
                    .parse()
                    .map_err(|e| CliError(format!("bad --queue-capacity: {e}")))?;
                if n == 0 {
                    return err("bad --queue-capacity: must be at least 1");
                }
                opts.queue_capacity = n;
            }
            "--workers" => {
                let n: usize =
                    value()?.parse().map_err(|e| CliError(format!("bad --workers: {e}")))?;
                if n == 0 {
                    return err("bad --workers: must be at least 1");
                }
                opts.workers = n;
            }
            "--batch" => {
                let n: usize =
                    value()?.parse().map_err(|e| CliError(format!("bad --batch: {e}")))?;
                if !(1..=ipregel::MAX_LANES).contains(&n) {
                    return err(format!(
                        "bad --batch: must be between 1 and {}",
                        ipregel::MAX_LANES
                    ));
                }
                opts.batch = n;
            }
            "--batch-window-ms" => {
                opts.batch_window_ms = value()?
                    .parse()
                    .map_err(|e| CliError(format!("bad --batch-window-ms: {e}")))?;
            }
            "--engine" => {
                opts.engine = match value()? {
                    "ipregel" => EngineChoice::IPregel,
                    "naive" => EngineChoice::Naive,
                    "ooc" => EngineChoice::OutOfCore,
                    "seq" => EngineChoice::Sequential,
                    other => return err(format!("unknown engine {other:?}")),
                }
            }
            other => return err(format!("unknown flag {other:?}")),
        }
    }
    if opts.graph.is_empty() {
        return err("--graph is required");
    }
    if opts.resume && opts.checkpoint_dir.is_none() {
        return err("--resume needs --checkpoint-dir");
    }
    // --relabel / --compress transform the in-memory graph; the
    // structural commands work on the stored one, and the baseline
    // engines read plain adjacency slices.
    if (opts.compress || opts.relabel_degree)
        && !matches!(
            opts.command.as_str(),
            "pagerank" | "sssp" | "bfs" | "components" | "maxvalue" | "kcore" | "widest" | "ppr"
                | "diameter" | "bipartite"
        )
    {
        return err(format!(
            "--compress/--relabel transform the in-memory graph; {} works on the stored one",
            opts.command
        ));
    }
    if opts.compress && !matches!(opts.engine, EngineChoice::IPregel | EngineChoice::Sequential) {
        return err("--compress needs --engine ipregel or seq (the baseline engines read plain adjacency slices)");
    }
    Ok(opts)
}

/// Guess the file format from the path extension.
pub fn guess_format(path: &str) -> &'static str {
    match Path::new(path).extension().and_then(|e| e.to_str()) {
        Some("gr") => "dimacs",
        Some("ipgb" | "bin") => "binary",
        Some("konect") => "konect",
        _ => "edgelist",
    }
}

fn load_graph(opts: &Options) -> Result<Graph, CliError> {
    let format = opts.format.clone().unwrap_or_else(|| guess_format(&opts.graph).to_string());
    // The pull combiner needs in-edges; keep both unless we know better.
    let mode = match opts.combiner {
        Some(CombinerKind::Broadcast) | None => NeighborMode::Both,
        _ => {
            if opts.bypass || !matches!(opts.command.as_str(), "pagerank") {
                NeighborMode::Both
            } else {
                NeighborMode::OutOnly
            }
        }
    };
    let file = File::open(&opts.graph)
        .map_err(|e| CliError(format!("cannot open {}: {e}", opts.graph)))?;
    let reader = BufReader::new(file);
    let g = match format.as_str() {
        "edgelist" => load_edge_list(reader, mode),
        "dimacs" => load_dimacs_gr(reader, mode),
        "konect" => load_konect(reader, mode),
        "binary" => read_binary(reader, mode),
        other => return err(format!("unknown format {other:?}")),
    };
    g.map_err(|e| CliError(format!("cannot parse {}: {e}", opts.graph)))
}

fn version_for(opts: &Options, default: CombinerKind) -> Version {
    Version { combiner: opts.combiner.unwrap_or(default), selection_bypass: opts.bypass }
}

fn run_cfg(opts: &Options, tracer: &Option<Arc<Tracer>>) -> RunConfig {
    RunConfig {
        threads: opts.threads,
        schedule: opts.schedule,
        deadline: opts.deadline.map(std::time::Duration::from_secs_f64),
        trace: tracer.clone(),
        ..RunConfig::default()
    }
}

fn run_error(e: RunError) -> CliError {
    CliError(format!("run failed: {e}"))
}

/// Carry the `--relabel` inverse permutation into the output so every
/// printed id is the original one, not the permuted slot.
fn attach_relabeling<V>(out: RunOutput<V>, r: &Option<Arc<Relabeling>>) -> RunOutput<V> {
    match r {
        Some(r) => out.with_relabeling(Arc::clone(r)),
        None => out,
    }
}

fn run_app<P: VertexProgram>(
    g: &Graph,
    p: &P,
    version: Version,
    opts: &Options,
    tracer: &Option<Arc<Tracer>>,
    relabeling: &Option<Arc<Relabeling>>,
) -> Result<RunOutput<P::Value>, CliError> {
    let cfg = run_cfg(opts, tracer);
    let out = match opts.engine {
        EngineChoice::IPregel => try_run(g, p, version, &cfg).map_err(run_error)?,
        EngineChoice::Sequential => try_run_sequential(g, p, &cfg).map_err(run_error)?,
        EngineChoice::Naive => {
            if opts.deadline.is_some() {
                return err("--deadline needs --engine ipregel or seq");
            }
            femtograph_sim::run_naive(g, p, &cfg)
        }
        EngineChoice::OutOfCore => {
            if opts.deadline.is_some() {
                return err("--deadline needs --engine ipregel or seq");
            }
            let spill = std::env::temp_dir().join(format!(
                "ipregel-cli-ooc-{}-{}.edges",
                std::process::id(),
                std::time::SystemTime::now()
                    .duration_since(std::time::UNIX_EPOCH)
                    .map_or(0, |d| d.as_nanos() as u64)
            ));
            let ooc = graphd_sim::OocGraph::from_graph(g, &spill)
                .map_err(|e| CliError(format!("cannot spill edges to the temp directory: {e}")))?;
            graphd_sim::run_ooc(&ooc, p, &cfg, &graphd_sim::DiskModel::default())
                .map_err(|e| CliError(format!("out-of-core run failed: {e}")))?
                .output
        }
    };
    Ok(attach_relabeling(out, relabeling))
}

/// [`run_app`] for programs with persistable state: honours
/// `--checkpoint-dir` / `--checkpoint-every` / `--resume`.
fn run_app_ckpt<P>(
    g: &Graph,
    p: &P,
    version: Version,
    opts: &Options,
    tracer: &Option<Arc<Tracer>>,
    relabeling: &Option<Arc<Relabeling>>,
) -> Result<RunOutput<P::Value>, CliError>
where
    P: VertexProgram,
    P::Value: Persist,
    P::Message: Persist,
{
    let Some(dir) = &opts.checkpoint_dir else {
        return run_app(g, p, version, opts, tracer, relabeling);
    };
    if opts.engine != EngineChoice::IPregel {
        return err("--checkpoint-dir needs --engine ipregel");
    }
    let mut ckpt = CheckpointConfig::new(dir, opts.checkpoint_every);
    if opts.resume {
        ckpt = ckpt.resuming();
    }
    run_with_checkpoints(g, p, version, &run_cfg(opts, tracer), &ckpt)
        .map_err(run_error)
        .map(|out| attach_relabeling(out, relabeling))
}

fn summary<V>(out: &RunOutput<V>, version: Version) -> String {
    format!(
        "version: {}\nsupersteps: {}\nmessages: {}\nsuperstep time: {:.3}s\nframework bytes: {}\n",
        version.label(),
        out.stats.num_supersteps(),
        out.stats.total_messages(),
        out.stats.total_time.as_secs_f64(),
        out.footprint.total_bytes(),
    )
}

/// The first `k` of `items` under `cmp`, in order: a selection plus a
/// sort of the K-prefix, where sorting all |V| pairs to print ten was
/// a tenth of a road job. Every caller's `cmp` breaks ties by id, so
/// the order is total and the rows are the ones a full sort would give.
fn top_k<T>(mut items: Vec<T>, k: usize, cmp: impl Fn(&T, &T) -> Ordering) -> Vec<T> {
    if k < items.len() {
        items.select_nth_unstable_by(k, &cmp);
        items.truncate(k);
    }
    items.sort_unstable_by(cmp);
    items
}

/// Largest value first, ties by ascending id.
fn by_value_desc<V: Ord>(a: &(u32, V), b: &(u32, V)) -> Ordering {
    b.1.cmp(&a.1).then(a.0.cmp(&b.0))
}

/// [`by_value_desc`] for ranks, under `f64`'s total order.
fn by_rank_desc(a: &(u32, f64), b: &(u32, f64)) -> Ordering {
    b.1.total_cmp(&a.1).then(a.0.cmp(&b.0))
}

/// Execute the CLI and return its stdout text.
pub fn run_cli(args: &[String]) -> Result<String, CliError> {
    let opts = parse_args(args)?;
    if opts.engine == EngineChoice::OutOfCore && (opts.weighted || opts.command == "widest") {
        return err("the out-of-core engine stores unweighted adjacency; weighted runs need --engine ipregel");
    }
    // Checkpointing needs `Persist`-able vertex state; the struct-valued
    // applications (and the non-engine commands) do not qualify.
    let ckpt_capable = matches!(
        opts.command.as_str(),
        "pagerank" | "ppr" | "sssp" | "bfs" | "components" | "maxvalue" | "widest"
    );
    if opts.checkpoint_dir.is_some() && !ckpt_capable {
        return err(format!(
            "{} has no persistable vertex state; --checkpoint-dir/--resume are unsupported for it",
            opts.command
        ));
    }
    let mut opts = opts;
    let mut g = load_graph(&opts)?;
    // The source is checked once, against the graph as the user named
    // it. Then the in-memory transforms: relabel first (it permutes the
    // plain CSR, and the source is translated into the permuted id
    // space), then compress. The inverse map rides along in `relabeling`
    // so outputs print original ids.
    let uses_source =
        matches!(opts.command.as_str(), "sssp" | "bfs" | "ppr" | "diameter" | "bipartite" | "widest");
    if uses_source && !g.address_map().contains(opts.source) {
        let role = if opts.command == "bipartite" { "seed" } else { "source" };
        return err(format!("{role} vertex {} is not in the graph", opts.source));
    }
    let relabeling: Option<Arc<Relabeling>> = if opts.relabel_degree {
        let r = Arc::new(degree_relabeling(&g));
        g = relabel_graph(&g, &r)
            .map_err(|e| CliError(format!("cannot relabel {}: {e}", opts.graph)))?;
        if uses_source {
            opts.source = r.new_id(opts.source);
        }
        Some(r)
    } else {
        None
    };
    if opts.compress {
        g = g.compress().map_err(|e| CliError(format!("cannot compress {}: {e}", opts.graph)))?;
    }
    // Arm the tracer before dispatch so every engine hook sees it. The
    // RSS sampler turns memmodel's offline Figure 9 model into a live
    // per-run series (sampled at superstep barriers).
    let tracer = if opts.trace_out.is_some() || opts.metrics_out.is_some() {
        let mut t = Tracer::new();
        t.set_rss_sampler(ipregel_mem::current_rss_bytes, 4);
        Some(Arc::new(t))
    } else {
        None
    };
    let mut text = format!(
        "graph: {} (|V|={}, |E|={}{})\n",
        opts.graph,
        g.num_vertices(),
        g.num_edges(),
        match (g.is_weighted(), g.is_compressed()) {
            (true, true) => ", weighted, compressed",
            (true, false) => ", weighted",
            (false, true) => ", compressed",
            (false, false) => "",
        }
    );
    match opts.command.as_str() {
        "stats" => {
            let s = GraphStats::compute(&g);
            text.push_str(&format!("{s}\n"));
        }
        "pagerank" => {
            let version = version_for(&opts, CombinerKind::Broadcast);
            if version.selection_bypass {
                return err("PageRank vertices do not halt every superstep; the selection bypass is unsound for it (paper, Section 4)");
            }
            let p = PageRank { rounds: opts.rounds, damping: opts.damping };
            let out = run_app_ckpt(&g, &p, version, &opts, &tracer, &relabeling)?;
            text.push_str(&summary(&out, version));
            let ranked: Vec<(u32, f64)> = out.iter().map(|(id, &r)| (id, r)).collect();
            text.push_str(&format!("top {} by rank:\n", opts.top.min(ranked.len())));
            for (id, r) in top_k(ranked, opts.top, by_rank_desc) {
                text.push_str(&format!("  {id}\t{r:.6}\n"));
            }
        }
        "sssp" => {
            let version = version_for(&opts, CombinerKind::Spinlock);
            let out = if opts.weighted {
                if version.combiner == CombinerKind::Broadcast {
                    return err("weighted SSSP sends point-to-point; the broadcast combiner cannot run it");
                }
                run_app_ckpt(&g, &WeightedSssp { source: opts.source }, version, &opts, &tracer, &relabeling)?
            } else {
                run_app_ckpt(&g, &Sssp { source: opts.source }, version, &opts, &tracer, &relabeling)?
            };
            text.push_str(&summary(&out, version));
            let reached = out.iter().filter(|(_, &d)| d != u32::MAX).count();
            text.push_str(&format!("reached: {} of {}\n", reached, g.num_vertices()));
            let far: Vec<(u32, u32)> =
                out.iter().filter(|(_, &d)| d != u32::MAX).map(|(id, &d)| (id, d)).collect();
            text.push_str(&format!("{} farthest vertices:\n", opts.top.min(far.len())));
            for (id, d) in top_k(far, opts.top, by_value_desc) {
                text.push_str(&format!("  {id}\t{d}\n"));
            }
        }
        "bfs" => {
            let version = version_for(&opts, CombinerKind::Spinlock);
            let out = run_app_ckpt(&g, &Bfs { source: opts.source }, version, &opts, &tracer, &relabeling)?;
            text.push_str(&summary(&out, version));
            let reached = out.iter().filter(|(_, &d)| d != u32::MAX).count();
            let depth = out.iter().filter(|(_, &d)| d != u32::MAX).map(|(_, &d)| d).max();
            text.push_str(&format!(
                "reached: {} of {}; depth: {}\n",
                reached,
                g.num_vertices(),
                depth.map_or("-".into(), |d| d.to_string())
            ));
        }
        "ppr" => {
            let version = version_for(&opts, CombinerKind::Broadcast);
            if version.selection_bypass {
                return err("personalised PageRank never halts vertex-side; the bypass is unsound for it");
            }
            let p = ipregel_apps::PersonalizedPageRank {
                source: opts.source,
                damping: opts.damping,
                rounds: opts.rounds,
            };
            let out = run_app_ckpt(&g, &p, version, &opts, &tracer, &relabeling)?;
            text.push_str(&summary(&out, version));
            let ranked: Vec<(u32, f64)> = out.iter().map(|(id, &r)| (id, r)).collect();
            text.push_str(&format!("top {} by personalised rank:\n", opts.top.min(ranked.len())));
            for (id, r) in top_k(ranked, opts.top, by_rank_desc) {
                text.push_str(&format!("  {id}\t{r:.6}\n"));
            }
        }
        "diameter" => {
            let version = version_for(&opts, CombinerKind::Spinlock);
            let result =
                ipregel_apps::try_pseudo_diameter(&g, opts.source, version, &run_cfg(&opts, &tracer))
                    .map_err(run_error)?;
            match result {
                Some(est) => {
                    // The estimate names vertices in the running graph's
                    // id space; map them back for the user.
                    let (far, opposite) = match &relabeling {
                        Some(r) => (r.old_id(est.far_vertex), r.old_id(est.opposite_vertex)),
                        None => (est.far_vertex, est.opposite_vertex),
                    };
                    text.push_str(&format!(
                        "pseudo-diameter: {} (between vertices {} and {})\n",
                        est.pseudo_diameter, far, opposite
                    ));
                }
                None => text.push_str("pseudo-diameter: undefined (source reaches nothing)\n"),
            }
        }
        "bipartite" => {
            let version = version_for(&opts, CombinerKind::Spinlock);
            let out =
                run_app(&g, &ipregel_apps::Bipartiteness { seed: opts.source }, version, &opts, &tracer, &relabeling)?;
            text.push_str(&summary(&out, version));
            let coloured = out.iter().filter(|(_, s)| s.color.is_some()).count();
            let conflicts = out.iter().filter(|(_, s)| s.conflict).count();
            text.push_str(&format!(
                "coloured: {} of {}; odd-cycle witnesses: {}; component bipartite: {}\n",
                coloured,
                g.num_vertices(),
                conflicts,
                conflicts == 0
            ));
        }
        "maxvalue" => {
            let version = version_for(&opts, CombinerKind::Spinlock);
            let out = run_app_ckpt(&g, &ipregel_apps::MaxValue, version, &opts, &tracer, &relabeling)?;
            text.push_str(&summary(&out, version));
            let distinct: std::collections::HashSet<u64> = out.iter().map(|(_, &v)| v).collect();
            text.push_str(&format!("distinct converged values: {}\n", distinct.len()));
        }
        "kcore" => {
            let version = version_for(&opts, CombinerKind::Spinlock);
            let out = run_app(&g, &ipregel_apps::KCore { k: opts.k }, version, &opts, &tracer, &relabeling)?;
            text.push_str(&summary(&out, version));
            let alive = out.iter().filter(|(_, s)| s.alive).count();
            text.push_str(&format!("{}-core size: {} of {}\n", opts.k, alive, g.num_vertices()));
        }
        "widest" => {
            let version = version_for(&opts, CombinerKind::Spinlock);
            if version.combiner == CombinerKind::Broadcast {
                return err("widest path sends point-to-point; the broadcast combiner cannot run it");
            }
            let out =
                run_app_ckpt(&g, &ipregel_apps::WidestPath { source: opts.source }, version, &opts, &tracer, &relabeling)?;
            text.push_str(&summary(&out, version));
            let reached = out.iter().filter(|(_, &w)| w > 0).count();
            text.push_str(&format!("reached: {} of {}\n", reached, g.num_vertices()));
        }
        "validate" => {
            let report = ipregel_graph::validation::validate(&g);
            text.push_str(&format!(
                "symmetric: {}\nself loops: {}\nduplicate edges: {}\nweakly connected: {}\n",
                report.symmetric, report.self_loops, report.duplicate_edges, report.weakly_connected
            ));
        }
        "convert" => {
            let out_path = opts.out.clone().ok_or_else(|| CliError("convert needs --out".into()))?;
            let out_format = opts
                .out_format
                .clone()
                .unwrap_or_else(|| guess_format(&out_path).to_string());
            let mut file = std::fs::File::create(&out_path)
                .map_err(|e| CliError(format!("cannot create {out_path}: {e}")))?;
            match out_format.as_str() {
                "edgelist" => ipregel_graph::loaders::write_edge_list(&mut file, &g)
                    .map_err(|e| CliError(format!("write failed: {e}")))?,
                "dimacs" => ipregel_graph::loaders::write_dimacs_gr(&mut file, &g)
                    .map_err(|e| CliError(format!("write failed: {e}")))?,
                "binary" => {
                    // Re-derive the raw edge list from the graph.
                    let map = g.address_map();
                    let mut edges = Vec::with_capacity(g.num_edges() as usize);
                    for v in map.live_slots() {
                        for &u in g.out_neighbors(v) {
                            edges.push((map.id_of(v), map.id_of(u)));
                        }
                    }
                    ipregel_graph::loaders::write_binary(
                        &mut file,
                        map.base(),
                        map.num_vertices(),
                        &edges,
                        None,
                    )
                    .map_err(|e| CliError(format!("write failed: {e}")))?;
                }
                other => return err(format!("unknown output format {other:?}")),
            }
            text.push_str(&format!("wrote {out_path} as {out_format}\n"));
        }
        "serve" => {
            let config = ipregel_server::ServerConfig {
                queue_capacity: opts.queue_capacity,
                workers: opts.workers,
                default_deadline: opts.deadline.map(std::time::Duration::from_secs_f64),
                batch_lanes: opts.batch,
                batch_window: std::time::Duration::from_millis(opts.batch_window_ms),
                ..ipregel_server::ServerConfig::default()
            };
            let listener = std::net::TcpListener::bind(("127.0.0.1", opts.port))
                .map_err(|e| CliError(format!("cannot bind 127.0.0.1:{}: {e}", opts.port)))?;
            let addr = listener
                .local_addr()
                .map_err(|e| CliError(format!("cannot read the bound address: {e}")))?;
            if let Some(path) = &opts.port_file {
                std::fs::write(path, format!("{}\n", addr.port()))
                    .map_err(|e| CliError(format!("cannot write {path}: {e}")))?;
            }
            let handle = ipregel_server::ServerHandle::start(Arc::new(g), config);
            let served = ipregel_server::net::serve(&handle, &listener, opts.requests)
                .map_err(|e| CliError(format!("serve failed: {e}")))?;
            let report = handle.shutdown();
            let s = &report.stats;
            text.push_str(&format!(
                "served on: {addr}\nlines served: {served}\nadmitted: {}\ncompleted: {}\n\
                 shed (queue full): {}\nshed (shutdown): {}\nrejected invalid: {}\n\
                 deadline exceeded: {}\nreaped: {}\npanicked: {}\nretries: {}\n\
                 max queue depth: {}\nbatched lanes: {}\nbatches: {}\nmax batch: {}\n",
                s.admitted,
                s.completed,
                s.shed_queue_full,
                s.shed_shutdown,
                s.rejected_invalid,
                s.deadline_exceeded,
                s.reaped,
                s.panicked,
                s.retries,
                s.max_queue_depth,
                s.batched,
                s.batches,
                s.max_batch,
            ));
            report
                .reconcile()
                .map_err(|e| CliError(format!("server trace does not reconcile: {e}")))?;
            text.push_str("trace reconciles with stats\n");
            // The server records through its own tracer; write its
            // report directly and skip the engine-tracer flush below.
            if let Some(path) = &opts.trace_out {
                std::fs::write(path, report.trace_jsonl())
                    .map_err(|e| CliError(format!("cannot write {path}: {e}")))?;
            }
            if let Some(path) = &opts.metrics_out {
                std::fs::write(path, report.prometheus())
                    .map_err(|e| CliError(format!("cannot write {path}: {e}")))?;
            }
            return Ok(text);
        }
        "components" => {
            let version = version_for(&opts, CombinerKind::Spinlock);
            let out = run_app_ckpt(&g, &Hashmin, version, &opts, &tracer, &relabeling)?;
            text.push_str(&summary(&out, version));
            let mut sizes: std::collections::HashMap<u32, u64> = Default::default();
            for (_, &label) in out.iter() {
                *sizes.entry(label).or_default() += 1;
            }
            let by_size: Vec<(u32, u64)> = sizes.into_iter().collect();
            text.push_str(&format!("components: {}\n", by_size.len()));
            text.push_str(&format!("{} largest (label\tsize):\n", opts.top.min(by_size.len())));
            for (label, s) in top_k(by_size, opts.top, by_value_desc) {
                text.push_str(&format!("  {label}\t{s}\n"));
            }
        }
        _ => unreachable!("validated in parse_args"),
    }
    if let Some(t) = &tracer {
        let events = t.take_events();
        if let Some(path) = &opts.trace_out {
            std::fs::write(path, ipregel::trace::encode_trace(&events))
                .map_err(|e| CliError(format!("cannot write {path}: {e}")))?;
        }
        if let Some(path) = &opts.metrics_out {
            std::fs::write(path, ipregel::trace::render_prometheus(&events, t.dropped_events()))
                .map_err(|e| CliError(format!("cannot write {path}: {e}")))?;
        }
    }
    Ok(text)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    fn temp_graph(contents: &str, ext: &str) -> tempfile_lite::TempPath {
        tempfile_lite::write(contents, ext)
    }

    #[test]
    fn top_k_is_the_prefix_of_the_full_sort() {
        // Few distinct values, so nearly every comparison is a tie the
        // id has to break — the case a selection could get wrong.
        let pairs: Vec<(u32, u32)> = (0..500u32).map(|i| (i * 7 % 500, i % 7)).collect();
        let ranks: Vec<(u32, f64)> = pairs.iter().map(|&(id, v)| (id, f64::from(v) / 7.0)).collect();
        let mut sorted = pairs.clone();
        sorted.sort_by_key(|&(id, v)| (std::cmp::Reverse(v), id));
        let mut sorted_ranks = ranks.clone();
        sorted_ranks.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        for k in [0, 1, 10, 499, 500, 501, usize::MAX] {
            let want = k.min(500);
            assert_eq!(top_k(pairs.clone(), k, by_value_desc), sorted[..want], "k = {k}");
            assert_eq!(top_k(ranks.clone(), k, by_rank_desc), sorted_ranks[..want], "k = {k}");
        }
        assert!(top_k(Vec::<(u32, u32)>::new(), 10, by_value_desc).is_empty());
    }

    /// Minimal self-contained temp-file helper (no external crate).
    mod tempfile_lite {
        use std::path::PathBuf;
        use std::sync::atomic::{AtomicU64, Ordering};

        static COUNTER: AtomicU64 = AtomicU64::new(0);

        pub struct TempPath(pub PathBuf);
        impl Drop for TempPath {
            fn drop(&mut self) {
                let _ = std::fs::remove_file(&self.0);
            }
        }
        pub fn write(contents: &str, ext: &str) -> TempPath {
            // ordering(Relaxed): unique-id tick; nothing else depends on it
            let n = COUNTER.fetch_add(1, Ordering::Relaxed);
            let path = std::env::temp_dir()
                .join(format!("ipregel-cli-test-{}-{n}.{ext}", std::process::id()));
            std::fs::write(&path, contents).unwrap();
            TempPath(path)
        }
    }

    #[test]
    fn parses_full_flag_set() {
        let o = parse_args(&args(
            "sssp --graph g.txt --format dimacs --combiner mutex --bypass --threads 4 --top 3 --source 7 --weighted",
        ))
        .unwrap();
        assert_eq!(o.command, "sssp");
        assert_eq!(o.format.as_deref(), Some("dimacs"));
        assert_eq!(o.combiner, Some(CombinerKind::Mutex));
        assert!(o.bypass && o.weighted);
        assert_eq!((o.threads, o.top, o.source), (Some(4), 3, 7));
    }

    #[test]
    fn parses_schedule_policies() {
        assert_eq!(parse_args(&args("sssp --graph g")).unwrap().schedule, Schedule::VertexBalanced);
        for (value, expect) in [
            ("vertex", Schedule::VertexBalanced),
            ("edge", Schedule::EdgeBalanced),
            ("adaptive", Schedule::Adaptive),
        ] {
            let o = parse_args(&args(&format!("sssp --graph g --schedule {value}"))).unwrap();
            assert_eq!(o.schedule, expect);
        }
        let e = parse_args(&args("sssp --graph g --schedule chaotic")).unwrap_err();
        assert!(e.0.contains("chaotic"), "{e}");
    }

    #[test]
    fn schedules_agree_through_the_cli() {
        // A star with a hub plus a chain: same answers whichever way the
        // supersteps are chunked.
        let mut edges = String::new();
        for i in 1..40u32 {
            edges.push_str(&format!("0 {i}\n{i} 0\n"));
        }
        edges.push_str("40 0\n0 40\n");
        let f = temp_graph(&edges, "txt");
        let mut outputs = Vec::new();
        for schedule in ["vertex", "edge", "adaptive"] {
            let out = run_cli(&args(&format!(
                "components --graph {} --schedule {schedule} --threads 2",
                f.0.display()
            )))
            .unwrap();
            let stable: Vec<&str> = out
                .lines()
                .filter(|l| l.starts_with("components") || l.starts_with("  "))
                .collect();
            outputs.push(stable.join("\n"));
        }
        assert!(outputs.windows(2).all(|w| w[0] == w[1]), "{outputs:?}");
        assert!(outputs[0].contains("components: 1"), "{outputs:?}");
    }

    #[test]
    fn rejects_unknown_command_and_flags() {
        assert!(parse_args(&args("fly --graph g")).is_err());
        assert!(parse_args(&args("sssp --graph g --warp 9")).is_err());
        assert!(parse_args(&args("sssp")).is_err());
        assert!(parse_args(&[]).is_err());
    }

    #[test]
    fn format_guessing() {
        assert_eq!(guess_format("usa.gr"), "dimacs");
        assert_eq!(guess_format("wiki.ipgb"), "binary");
        assert_eq!(guess_format("data.konect"), "konect");
        assert_eq!(guess_format("edges.txt"), "edgelist");
    }

    #[test]
    fn end_to_end_components() {
        let f = temp_graph("0 1\n1 0\n2 3\n3 2\n", "txt");
        let out = run_cli(&args(&format!("components --graph {}", f.0.display()))).unwrap();
        assert!(out.contains("components: 2"), "{out}");
        assert!(out.contains("|V|=4"));
    }

    #[test]
    fn end_to_end_weighted_sssp_on_dimacs() {
        let f = temp_graph("p sp 3 3\na 1 2 5\na 2 3 5\na 1 3 100\n", "gr");
        let out = run_cli(&args(&format!(
            "sssp --graph {} --source 1 --weighted --bypass",
            f.0.display()
        )))
        .unwrap();
        assert!(out.contains("reached: 3 of 3"), "{out}");
        assert!(out.contains("  3\t10"), "{out}");
    }

    #[test]
    fn end_to_end_pagerank_top_list() {
        let f = temp_graph("0 1\n1 0\n2 0\n", "txt");
        let out =
            run_cli(&args(&format!("pagerank --graph {} --rounds 5 --top 2", f.0.display())))
                .unwrap();
        assert!(out.contains("version: Broadcast"));
        assert!(out.contains("top 2 by rank:"));
    }

    #[test]
    fn pagerank_with_bypass_is_refused() {
        let f = temp_graph("0 1\n", "txt");
        let e = run_cli(&args(&format!("pagerank --graph {} --bypass", f.0.display())))
            .unwrap_err();
        assert!(e.0.contains("bypass"), "{e}");
    }

    #[test]
    fn weighted_sssp_on_broadcast_is_refused() {
        let f = temp_graph("0 1 5\n", "txt");
        let e = run_cli(&args(&format!(
            "sssp --graph {} --source 0 --weighted --combiner broadcast",
            f.0.display()
        )))
        .unwrap_err();
        assert!(e.0.contains("broadcast"), "{e}");
    }

    #[test]
    fn missing_source_is_reported() {
        let f = temp_graph("0 1\n", "txt");
        let e = run_cli(&args(&format!("sssp --graph {} --source 99", f.0.display())))
            .unwrap_err();
        assert!(e.0.contains("99"));
    }

    #[test]
    fn stats_command_prints_counts() {
        let f = temp_graph("0 1\n1 2\n", "txt");
        let out = run_cli(&args(&format!("stats --graph {}", f.0.display()))).unwrap();
        assert!(out.contains("|V| ="), "{out}");
    }

    #[test]
    fn missing_file_is_a_clean_error() {
        let e = run_cli(&args("stats --graph /nonexistent/x.txt")).unwrap_err();
        assert!(e.0.contains("cannot open"));
    }

    #[test]
    fn end_to_end_kcore() {
        // Triangle + tail: 2-core is the triangle.
        let f = temp_graph("0 1
1 0
1 2
2 1
2 0
0 2
2 3
3 2
", "txt");
        let out = run_cli(&args(&format!("kcore --graph {} --k 2", f.0.display()))).unwrap();
        assert!(out.contains("2-core size: 3 of 4"), "{out}");
    }

    #[test]
    fn end_to_end_maxvalue() {
        let f = temp_graph("0 1
1 0
", "txt");
        let out = run_cli(&args(&format!("maxvalue --graph {}", f.0.display()))).unwrap();
        assert!(out.contains("distinct converged values: 1"), "{out}");
    }

    #[test]
    fn end_to_end_widest_path() {
        let f = temp_graph("0 1 5
1 3 20
0 2 8
2 3 9
", "txt");
        let out = run_cli(&args(&format!("widest --graph {} --source 0", f.0.display()))).unwrap();
        assert!(out.contains("reached: 4 of 4"), "{out}");
    }

    #[test]
    fn parses_compress_and_relabel() {
        let o = parse_args(&args("sssp --graph g --compress --relabel degree")).unwrap();
        assert!(o.compress && o.relabel_degree);
        let o = parse_args(&args("sssp --graph g --relabel none")).unwrap();
        assert!(!o.relabel_degree);
        let e = parse_args(&args("sssp --graph g --relabel random")).unwrap_err();
        assert!(e.0.contains("random"), "{e}");
    }

    #[test]
    fn compress_is_gated_to_engine_and_command() {
        // Structural commands work on the stored graph.
        for cmd in ["stats", "validate", "convert", "serve"] {
            let e = parse_args(&args(&format!("{cmd} --graph g --compress"))).unwrap_err();
            assert!(e.0.contains("in-memory"), "{cmd}: {e}");
            let e = parse_args(&args(&format!("{cmd} --graph g --relabel degree"))).unwrap_err();
            assert!(e.0.contains("in-memory"), "{cmd}: {e}");
        }
        // The baseline engines read plain adjacency slices.
        for engine in ["naive", "ooc"] {
            let e = parse_args(&args(&format!("sssp --graph g --compress --engine {engine}")))
                .unwrap_err();
            assert!(e.0.contains("--engine ipregel or seq"), "{engine}: {e}");
        }
        // Relabelling alone stays a plain graph; any engine may run it.
        assert!(parse_args(&args("sssp --graph g --relabel degree --engine naive")).is_ok());
    }

    /// The result lines (everything after the timing summary) must not
    /// change when the graph is compressed and/or relabelled.
    fn stable_tail(out: &str) -> String {
        out.lines()
            .filter(|l| {
                !l.starts_with("graph:")
                    && !l.starts_with("superstep time:")
                    && !l.starts_with("framework bytes:")
            })
            .collect::<Vec<_>>()
            .join("\n")
    }

    #[test]
    fn compressed_and_relabelled_runs_match_plain() {
        // A weighted graph with skewed degrees and a base offset, so the
        // relabelling genuinely permutes and ids must map back.
        let mut edges = String::new();
        for i in 11..20u32 {
            edges.push_str(&format!("10 {i} {}\n{i} 10 {}\n", i - 10, i - 10));
        }
        edges.push_str("19 20 1\n");
        let f = temp_graph(&edges, "txt");
        // Hashmin's values are themselves vertex ids, so `components` is
        // not relabel-invariant (labels rename); pin it on --compress only.
        let cases: &[(&str, &[&str])] = &[
            (
                "sssp --source 10 --weighted",
                &["--compress", "--relabel degree", "--compress --relabel degree"],
            ),
            (
                "pagerank --rounds 5",
                &["--compress", "--relabel degree", "--compress --relabel degree"],
            ),
            ("components", &["--compress"]),
        ];
        for (cmd, variants) in cases {
            let base = format!("{cmd} --graph {}", f.0.display());
            let plain = run_cli(&args(&base)).unwrap();
            for variant in *variants {
                let got = run_cli(&args(&format!("{base} {variant}"))).unwrap();
                assert_eq!(stable_tail(&got), stable_tail(&plain), "{cmd} {variant}");
            }
        }
        // And through the sequential oracle too.
        let seq = run_cli(&args(&format!(
            "sssp --source 10 --weighted --graph {} --engine seq --compress --relabel degree",
            f.0.display()
        )))
        .unwrap();
        assert!(seq.contains("reached: 11 of 11"), "{seq}");
    }

    #[test]
    fn compressed_header_is_marked() {
        let f = temp_graph("0 1\n1 0\n", "txt");
        let out =
            run_cli(&args(&format!("components --graph {} --compress", f.0.display()))).unwrap();
        assert!(out.contains("|E|=2, compressed"), "{out}");
    }

    #[test]
    fn relabelled_source_check_reports_original_ids() {
        let f = temp_graph("0 1\n1 0\n", "txt");
        let e = run_cli(&args(&format!(
            "bfs --graph {} --source 99 --relabel degree",
            f.0.display()
        )))
        .unwrap_err();
        assert!(e.0.contains("99"), "{e}");
    }

    #[test]
    fn relabelled_source_outside_the_id_range_is_a_typed_error() {
        // `Relabeling::new_id` panics on an id it never renamed; the CLI
        // must refuse such a source before translating it — below the
        // base and past the end, with and without --compress.
        let f = temp_graph("10 11\n11 12\n12 10\n", "txt");
        for cmd in ["sssp", "bfs"] {
            for source in [0u32, 9, 13, u32::MAX] {
                for extra in ["", " --compress"] {
                    let e = run_cli(&args(&format!(
                        "{cmd} --graph {} --source {source} --relabel degree{extra}",
                        f.0.display()
                    )))
                    .unwrap_err();
                    assert_eq!(
                        e.0,
                        format!("source vertex {source} is not in the graph"),
                        "{cmd} --source {source}{extra}"
                    );
                }
            }
        }
    }

    /// Any in-range source id goes through `Relabeling::new_id`, and
    /// every id a command prints comes back through `old_id`: with
    /// `--relabel degree`, each command that takes a source prints what
    /// it prints without, for every source the graph has.
    #[test]
    fn every_source_round_trips_through_relabelling() {
        // A hub, an odd cycle, a chain into a sink and a base offset, so
        // the permutation moves every id and sources reach differently.
        let mut edges = String::new();
        for i in 11..17u32 {
            edges.push_str(&format!("10 {i} {}\n{i} 10 {}\n", i - 10, i - 10));
        }
        edges.push_str("16 17 3\n17 18 2\n18 19 5\n19 17 1\n19 20 4\n20 21 2\n");
        let f = temp_graph(&edges, "txt");
        for cmd in ["sssp", "bfs", "ppr --rounds 5", "diameter", "bipartite", "widest"] {
            for source in 10..=21u32 {
                let base = format!("{cmd} --graph {} --source {source}", f.0.display());
                let plain = run_cli(&args(&base)).unwrap();
                let relabelled = run_cli(&args(&format!("{base} --relabel degree"))).unwrap();
                assert_eq!(stable_tail(&relabelled), stable_tail(&plain), "{base}");
            }
        }
    }

    #[test]
    fn diameter_maps_endpoints_back_through_relabelling() {
        // A path 10-11-12-13: pseudo-diameter 3 between the endpoints,
        // whatever the internal permutation.
        let f = temp_graph("10 11\n11 10\n11 12\n12 11\n12 13\n13 12\n", "txt");
        let base = format!("diameter --graph {} --source 11", f.0.display());
        let plain = run_cli(&args(&base)).unwrap();
        let relabelled =
            run_cli(&args(&format!("{base} --relabel degree --compress"))).unwrap();
        assert_eq!(stable_tail(&plain), stable_tail(&relabelled));
        assert!(relabelled.contains("pseudo-diameter: 3"), "{relabelled}");
    }

    #[test]
    fn end_to_end_validate() {
        let f = temp_graph("0 1
1 0
2 2
", "txt");
        let out = run_cli(&args(&format!("validate --graph {}", f.0.display()))).unwrap();
        assert!(out.contains("symmetric: true"), "{out}");
        assert!(out.contains("self loops: 1"), "{out}");
    }

    #[test]
    fn end_to_end_convert_to_dimacs_and_back() {
        let f = temp_graph("0 1 7
1 2 9
", "txt");
        let out_path = std::env::temp_dir().join(format!("ipregel-convert-{}.gr", std::process::id()));
        let out = run_cli(&args(&format!(
            "convert --graph {} --out {}",
            f.0.display(),
            out_path.display()
        )))
        .unwrap();
        assert!(out.contains("as dimacs"), "{out}");
        let round = run_cli(&args(&format!("stats --graph {}", out_path.display()))).unwrap();
        assert!(round.contains("|E| =              2"), "{round}");
        let _ = std::fs::remove_file(out_path);
    }

    #[test]
    fn engines_agree_through_the_cli() {
        let f = temp_graph("0 1
1 2
2 0
3 0
", "txt");
        let mut outputs = Vec::new();
        for engine in ["ipregel", "naive", "ooc", "seq"] {
            let out = run_cli(&args(&format!(
                "sssp --graph {} --source 0 --engine {engine}",
                f.0.display()
            )))
            .unwrap();
            // Strip the timing line, which differs per engine.
            let stable: Vec<&str> = out
                .lines()
                .filter(|l| l.starts_with("reached") || l.starts_with("  "))
                .collect();
            outputs.push(stable.join("
"));
        }
        assert!(outputs.windows(2).all(|w| w[0] == w[1]), "{outputs:?}");
    }

    #[test]
    fn ooc_engine_refuses_weighted_runs() {
        let f = temp_graph("0 1 5
", "txt");
        let e = run_cli(&args(&format!(
            "sssp --graph {} --source 0 --weighted --engine ooc",
            f.0.display()
        )))
        .unwrap_err();
        assert!(e.0.contains("out-of-core"), "{e}");
    }

    #[test]
    fn unknown_engine_is_rejected() {
        assert!(parse_args(&args("sssp --graph g --engine warp")).is_err());
    }

    #[test]
    fn end_to_end_diameter() {
        let f = temp_graph("0 1
1 0
1 2
2 1
2 3
3 2
", "txt");
        let out =
            run_cli(&args(&format!("diameter --graph {} --source 1", f.0.display()))).unwrap();
        assert!(out.contains("pseudo-diameter: 3"), "{out}");
    }

    #[test]
    fn end_to_end_bipartite() {
        let odd = temp_graph("0 1
1 0
1 2
2 1
2 0
0 2
", "txt");
        let out = run_cli(&args(&format!("bipartite --graph {} --source 0", odd.0.display())))
            .unwrap();
        assert!(out.contains("component bipartite: false"), "{out}");
    }

    #[test]
    fn end_to_end_ppr() {
        let f = temp_graph("0 1
1 0
1 2
2 1
", "txt");
        let out = run_cli(&args(&format!(
            "ppr --graph {} --source 0 --rounds 10 --top 1",
            f.0.display()
        )))
        .unwrap();
        assert!(out.contains("top 1 by personalised rank:"), "{out}");
        assert!(out.lines().last().unwrap().starts_with("  0	"), "source ranks first: {out}");
    }

    #[test]
    fn convert_without_out_flag_errors() {
        let f = temp_graph("0 1
", "txt");
        let e = run_cli(&args(&format!("convert --graph {}", f.0.display()))).unwrap_err();
        assert!(e.0.contains("--out"), "{e}");
    }

    #[test]
    fn end_to_end_serve_roundtrip() {
        use std::io::{BufRead, BufReader, Write};
        let f = temp_graph("0 1\n1 0\n1 2\n2 1\n", "txt");
        let port_file =
            std::env::temp_dir().join(format!("ipregel-serve-port-{}.txt", std::process::id()));
        let argv = args(&format!(
            "serve --graph {} --port 0 --port-file {} --requests 4 --workers 2",
            f.0.display(),
            port_file.display()
        ));
        let server = std::thread::spawn(move || run_cli(&argv));
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        let port: u16 = loop {
            if let Some(p) =
                std::fs::read_to_string(&port_file).ok().and_then(|s| s.trim().parse().ok())
            {
                break p;
            }
            assert!(std::time::Instant::now() < deadline, "port file never appeared");
            std::thread::sleep(std::time::Duration::from_millis(10));
        };
        let stream = std::net::TcpStream::connect(("127.0.0.1", port)).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        let mut ask = |line: &str| -> String {
            writer.write_all(line.as_bytes()).unwrap();
            writer.write_all(b"\n").unwrap();
            let mut resp = String::new();
            reader.read_line(&mut resp).unwrap();
            resp
        };
        assert!(ask("{\"op\":\"ping\"}").contains("\"pong\":true"));
        let sssp = ask("{\"op\":\"sssp\",\"source\":0,\"values\":true}");
        assert!(sssp.contains("\"ok\":true"), "{sssp}");
        assert!(sssp.contains("[2,2]"), "distance to vertex 2 is 2: {sssp}");
        let invalid = ask("{\"op\":\"sssp\",\"source\":77}");
        assert!(invalid.contains("\"error\":\"invalid\""), "{invalid}");
        let garbage = ask("{\"op\":");
        assert!(garbage.contains("\"error\":\"protocol\""), "{garbage}");
        let text = server.join().unwrap().unwrap();
        assert!(text.contains("lines served: 4"), "{text}");
        assert!(text.contains("admitted: 1"), "{text}");
        assert!(text.contains("completed: 1"), "{text}");
        assert!(text.contains("rejected invalid: 1"), "{text}");
        assert!(text.contains("trace reconciles with stats"), "{text}");
        let _ = std::fs::remove_file(&port_file);
    }

    #[test]
    fn parses_trace_flags() {
        let o = parse_args(&args("sssp --graph g --trace-out t.jsonl --metrics-out m.prom"))
            .unwrap();
        assert_eq!(o.trace_out.as_deref(), Some("t.jsonl"));
        assert_eq!(o.metrics_out.as_deref(), Some("m.prom"));
        assert!(parse_args(&args("sssp --graph g --trace-out")).is_err());
    }

    #[test]
    fn trace_and_metrics_sinks_are_written() {
        use ipregel::trace::TraceEvent;
        let f = temp_graph("0 1\n1 0\n2 3\n3 2\n", "txt");
        let n = std::process::id();
        let trace_path = std::env::temp_dir().join(format!("ipregel-cli-trace-{n}.jsonl"));
        let metrics_path = std::env::temp_dir().join(format!("ipregel-cli-metrics-{n}.prom"));
        let out = run_cli(&args(&format!(
            "components --graph {} --threads 2 --trace-out {} --metrics-out {}",
            f.0.display(),
            trace_path.display(),
            metrics_path.display(),
        )))
        .unwrap();
        assert!(out.contains("components: 2"), "{out}");
        let trace = std::fs::read_to_string(&trace_path).unwrap();
        let events = ipregel::trace::decode_trace(&trace).unwrap();
        let metrics = std::fs::read_to_string(&metrics_path).unwrap();
        assert!(metrics.contains("ipregel_supersteps_total"), "{metrics}");
        if cfg!(feature = "trace") {
            assert!(matches!(events.first(), Some(TraceEvent::RunBegin { .. })), "{events:?}");
            assert!(matches!(events.last(), Some(TraceEvent::RunEnd { .. })), "{events:?}");
            assert!(events.iter().any(|e| matches!(e, TraceEvent::Chunk { .. })), "{events:?}");
        } else {
            assert!(events.is_empty(), "disabled tracing must record nothing: {events:?}");
        }
        let _ = std::fs::remove_file(trace_path);
        let _ = std::fs::remove_file(metrics_path);
    }
}
