//! The three batch workloads: a user runs `ipregel-cli <app> --graph FILE`
//! and waits for the printed result. A job is one `run_cli` call; set-up
//! is file → engine-ready graph through the same public functions.

use std::fs::File;
use std::io::BufReader;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ipregel::{try_run, CombinerKind, RunConfig, RunOutput, Schedule, Version};
use ipregel_apps::reference::{bfs_levels, pagerank_power};
use ipregel_apps::{PageRank, Sssp};
use ipregel_graph::loaders::{load_dimacs_gr, load_edge_list, read_binary};
use ipregel_graph::transform::{degree_relabeling, relabel_graph};
use ipregel_graph::{Graph, NeighborMode, Relabeling};
use ipregel_mem::{current_hwm_bytes, current_rss_bytes, LayoutModel, MB};

use crate::config::ENGINE_THREADS;
use crate::probes;
use crate::report::Report;
use crate::spans::Recorder;
use crate::stats::{in_run_order, median, quietest_of, Sample};
use crate::worker::WorkerArgs;

const DAMPING: f64 = 0.85;
const TOP: usize = 10;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum App {
    PageRank { rounds: usize },
    Sssp { source: u32 },
}

/// One batch workload, spelled once: the CLI arguments and the rebuilt
/// traced pipeline are both derived from it.
#[derive(Debug, Clone, Copy)]
pub struct BatchSpec {
    pub format: &'static str,
    pub app: App,
    /// `None` leaves the CLI default (broadcast for PageRank, spinlock
    /// for SSSP).
    pub combiner: Option<CombinerKind>,
    pub bypass: bool,
    pub schedule: Schedule,
    pub relabel: bool,
    pub compress: bool,
}

impl BatchSpec {
    pub fn of(workload: &str) -> Option<BatchSpec> {
        let plain = BatchSpec {
            format: "edgelist",
            app: App::PageRank { rounds: 30 },
            combiner: None,
            bypass: false,
            schedule: Schedule::VertexBalanced,
            relabel: false,
            compress: false,
        };
        match workload {
            "wiki_pagerank" => Some(plain),
            "wiki_pagerank_push_compact" => Some(BatchSpec {
                format: "binary",
                app: App::PageRank { rounds: 10 },
                combiner: Some(CombinerKind::Spinlock),
                schedule: Schedule::EdgeBalanced,
                relabel: true,
                compress: true,
                ..plain
            }),
            "road_sssp" => Some(BatchSpec {
                format: "dimacs",
                app: App::Sssp { source: 2 },
                bypass: true,
                ..plain
            }),
            _ => None,
        }
    }

    pub fn cli_args(&self, graph: &Path) -> Vec<String> {
        let mut a: Vec<String> = match self.app {
            App::PageRank { rounds } => {
                vec!["pagerank".into(), "--rounds".into(), rounds.to_string()]
            }
            App::Sssp { source } => vec!["sssp".into(), "--source".into(), source.to_string()],
        };
        a.extend([
            "--graph".to_string(),
            graph.display().to_string(),
            "--format".into(),
            self.format.into(),
        ]);
        if let Some(c) = self.combiner {
            a.extend(["--combiner".to_string(), c.label().to_lowercase()]);
        }
        if self.bypass {
            a.push("--bypass".into());
        }
        a.extend(["--schedule".to_string(), self.schedule.label().into()]);
        if self.relabel {
            a.extend(["--relabel".to_string(), "degree".into()]);
        }
        if self.compress {
            a.push("--compress".into());
        }
        a.extend(["--threads".to_string(), ENGINE_THREADS.to_string()]);
        a
    }

    pub fn version(&self) -> Version {
        let default = match self.app {
            App::PageRank { .. } => CombinerKind::Broadcast,
            App::Sssp { .. } => CombinerKind::Spinlock,
        };
        Version {
            combiner: self.combiner.unwrap_or(default),
            selection_bypass: self.bypass,
        }
    }

    /// The neighbour directions the CLI keeps for this command line.
    pub fn mode(&self) -> NeighborMode {
        match (self.combiner, self.app) {
            (Some(CombinerKind::Mutex | CombinerKind::Spinlock), App::PageRank { .. })
                if !self.bypass =>
            {
                NeighborMode::OutOnly
            }
            _ => NeighborMode::Both,
        }
    }

    pub fn run_config(&self) -> RunConfig {
        RunConfig {
            threads: Some(ENGINE_THREADS),
            schedule: self.schedule,
            ..RunConfig::default()
        }
    }
}

pub fn load(format: &str, path: &Path, mode: NeighborMode) -> Graph {
    let reader =
        BufReader::new(File::open(path).unwrap_or_else(|e| panic!("open {}: {e}", path.display())));
    match format {
        "edgelist" => load_edge_list(reader, mode),
        "dimacs" => load_dimacs_gr(reader, mode),
        "binary" => read_binary(reader, mode),
        other => panic!("unknown format {other}"),
    }
    .unwrap_or_else(|e| panic!("parse {}: {e}", path.display()))
}

/// File → engine-ready graph, as `run_cli` does it: load, then relabel,
/// then compress. With a recorder, each step is a span under `parent`.
fn set_up(
    spec: &BatchSpec,
    path: &Path,
    trace: Option<(&mut Recorder, usize, u64)>,
) -> (Graph, Option<Arc<Relabeling>>) {
    let mut scratch = Recorder::new();
    let (rec, parent, op) = match trace {
        Some((rec, parent, op)) => (rec, Some(parent), op),
        None => (&mut scratch, None, 0),
    };
    let mut g = rec.time("load", parent, op, || load(spec.format, path, spec.mode()));
    let start = rec.now_ns();
    let mut relabeling = None;
    let transform = rec.add("transform", start, start, parent, op);
    if spec.relabel {
        let (r, relabelled) = rec.time("relabel", Some(transform), op, || {
            let r = degree_relabeling(&g);
            let relabelled = relabel_graph(&g, &r).expect("relabel");
            (r, relabelled)
        });
        g = relabelled;
        relabeling = Some(Arc::new(r));
    }
    if spec.compress {
        g = rec.time("compress", Some(transform), op, || {
            g.compress().expect("compress")
        });
    }
    rec.spans[transform].end_ns = rec.now_ns();
    (g, relabeling)
}

/// What `run_cli` prints for this workload, rebuilt from the run's output.
fn render(spec: &BatchSpec, path: &Path, g: &Graph, text: &mut String, body: &Body) {
    let flags = match (g.is_weighted(), g.is_compressed()) {
        (true, true) => ", weighted, compressed",
        (true, false) => ", weighted",
        (false, true) => ", compressed",
        (false, false) => "",
    };
    text.push_str(&format!(
        "graph: {} (|V|={}, |E|={}{})\n",
        path.display(),
        g.num_vertices(),
        g.num_edges(),
        flags
    ));
    let summary = |stats: &ipregel::RunStats, footprint: &ipregel::FootprintReport| {
        format!(
            "version: {}\nsupersteps: {}\nmessages: {}\nsuperstep time: {:.3}s\nframework bytes: {}\n",
            spec.version().label(),
            stats.num_supersteps(),
            stats.total_messages(),
            stats.total_time.as_secs_f64(),
            footprint.total_bytes()
        )
    };
    match body {
        Body::Ranks(out) => {
            text.push_str(&summary(&out.stats, &out.footprint));
            let mut ranked: Vec<(u32, f64)> = out.iter().map(|(id, &r)| (id, r)).collect();
            ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
            text.push_str(&format!("top {} by rank:\n", TOP.min(ranked.len())));
            for (id, r) in ranked.into_iter().take(TOP) {
                text.push_str(&format!("  {id}\t{r:.6}\n"));
            }
        }
        Body::Hops(out) => {
            text.push_str(&summary(&out.stats, &out.footprint));
            let reached = out.iter().filter(|(_, &d)| d != u32::MAX).count();
            text.push_str(&format!("reached: {} of {}\n", reached, g.num_vertices()));
            let mut far: Vec<(u32, u32)> = out
                .iter()
                .filter(|(_, &d)| d != u32::MAX)
                .map(|(id, &d)| (id, d))
                .collect();
            far.sort_by_key(|&(id, d)| (std::cmp::Reverse(d), id));
            text.push_str(&format!("{} farthest vertices:\n", TOP.min(far.len())));
            for (id, d) in far.into_iter().take(TOP) {
                text.push_str(&format!("  {id}\t{d}\n"));
            }
        }
    }
}

pub enum Body {
    Ranks(RunOutput<f64>),
    Hops(RunOutput<u32>),
}

impl Body {
    pub fn stats(&self) -> &ipregel::RunStats {
        match self {
            Body::Ranks(o) => &o.stats,
            Body::Hops(o) => &o.stats,
        }
    }

    fn footprint(&self) -> &ipregel::FootprintReport {
        match self {
            Body::Ranks(o) => &o.footprint,
            Body::Hops(o) => &o.footprint,
        }
    }
}

pub fn run_app(
    spec: &BatchSpec,
    g: &Graph,
    relabeling: &Option<Arc<Relabeling>>,
    cfg: &RunConfig,
) -> Body {
    fn attach<V>(out: RunOutput<V>, r: &Option<Arc<Relabeling>>) -> RunOutput<V> {
        match r {
            Some(r) => out.with_relabeling(Arc::clone(r)),
            None => out,
        }
    }
    match spec.app {
        App::PageRank { rounds } => {
            let p = PageRank {
                rounds,
                damping: DAMPING,
            };
            Body::Ranks(attach(
                try_run(g, &p, spec.version(), cfg).expect("pagerank run"),
                relabeling,
            ))
        }
        App::Sssp { source } => {
            let source = relabeling.as_ref().map_or(source, |r| r.new_id(source));
            Body::Hops(attach(
                try_run(g, &Sssp { source }, spec.version(), cfg).expect("sssp run"),
                relabeling,
            ))
        }
    }
}

/// The whole job rebuilt from public calls, with the spans
/// `job › load › transform › run › render`; returns the text, the run, the
/// graph (dropped by the caller, outside the spans) and the resident set
/// once the graph was ready.
fn traced_job(
    spec: &BatchSpec,
    path: &Path,
    rec: &mut Recorder,
    op: u64,
) -> (String, Body, Graph, Option<u64>) {
    let start = rec.now_ns();
    let job = rec.add("job", start, start, None, op);
    let (g, relabeling) = set_up(spec, path, Some((rec, job, op)));
    let rss_after_load = current_rss_bytes();
    let body = rec.time("run", Some(job), op, || {
        run_app(spec, &g, &relabeling, &spec.run_config())
    });
    let mut text = String::new();
    rec.time("render", Some(job), op, || {
        render(spec, path, &g, &mut text, &body)
    });
    rec.spans[job].end_ns = rec.now_ns();
    (text, body, g, rss_after_load)
}

/// The fields of a job's printed text the oracle is held against.
#[derive(Debug, Default, PartialEq)]
struct Printed {
    vertices: usize,
    edges: u64,
    supersteps: u64,
    messages: u64,
    superstep_s: f64,
    reached: Option<usize>,
    /// `(id, value)` rows of the top-K table, value as printed.
    rows: Vec<(u32, f64)>,
}

fn parse_printed(text: &str) -> Option<Printed> {
    let mut p = Printed::default();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("graph: ") {
            let v = rest.split("|V|=").nth(1)?.split(',').next()?;
            let e = rest.split("|E|=").nth(1)?.split([',', ')']).next()?;
            p.vertices = v.parse().ok()?;
            p.edges = e.parse().ok()?;
        } else if let Some(rest) = line.strip_prefix("supersteps: ") {
            p.supersteps = rest.parse().ok()?;
        } else if let Some(rest) = line.strip_prefix("messages: ") {
            p.messages = rest.parse().ok()?;
        } else if let Some(rest) = line.strip_prefix("superstep time: ") {
            p.superstep_s = rest.strip_suffix('s')?.parse().ok()?;
        } else if let Some(rest) = line.strip_prefix("reached: ") {
            p.reached = Some(rest.split(' ').next()?.parse().ok()?);
        } else if let Some(rest) = line.strip_prefix("  ") {
            let (id, value) = rest.split_once('\t')?;
            p.rows.push((id.parse().ok()?, value.parse().ok()?));
        }
    }
    Some(p)
}

/// What the oracle says a correct job prints, computed from the input
/// file by the sequential references — never by an engine.
struct Expected {
    vertices: usize,
    edges: u64,
    reached: Option<usize>,
    rows: Vec<(u32, f64)>,
    /// Per-slot reference values, for the traced run's full comparison.
    ranks: Vec<f64>,
    hops: Vec<u32>,
}

fn oracle(spec: &BatchSpec, g: &Graph) -> Expected {
    let map = g.address_map();
    let mut e = Expected {
        vertices: g.num_vertices(),
        edges: g.num_edges(),
        reached: None,
        rows: Vec::new(),
        ranks: Vec::new(),
        hops: Vec::new(),
    };
    match spec.app {
        App::PageRank { rounds } => {
            e.ranks = pagerank_power(g, rounds, DAMPING);
            let mut ranked: Vec<(u32, f64)> = map
                .live_slots()
                .map(|s| (map.id_of(s), e.ranks[s as usize]))
                .collect();
            ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
            ranked.truncate(TOP);
            e.rows = ranked;
        }
        App::Sssp { source } => {
            e.hops = bfs_levels(g, source);
            let mut far: Vec<(u32, u32)> = map
                .live_slots()
                .map(|s| (map.id_of(s), e.hops[s as usize]))
                .filter(|&(_, d)| d != u32::MAX)
                .collect();
            e.reached = Some(far.len());
            far.sort_by_key(|&(id, d)| (std::cmp::Reverse(d), id));
            far.truncate(TOP);
            e.rows = far.into_iter().map(|(id, d)| (id, f64::from(d))).collect();
        }
    }
    e
}

/// `None` when the printed job agrees with the oracle, else why not.
fn disagreement(p: &Printed, e: &Expected) -> Option<String> {
    if (p.vertices, p.edges) != (e.vertices, e.edges) {
        return Some(format!(
            "graph size {}x{} != {}x{}",
            p.vertices, p.edges, e.vertices, e.edges
        ));
    }
    if p.reached != e.reached {
        return Some(format!("reached {:?} != {:?}", p.reached, e.reached));
    }
    if p.rows.len() != e.rows.len() {
        return Some(format!("{} result rows != {}", p.rows.len(), e.rows.len()));
    }
    for (got, want) in p.rows.iter().zip(&e.rows) {
        // Ranks are printed to six decimals; hop counts are exact.
        if got.0 != want.0 || (got.1 - want.1).abs() > 1e-6 {
            return Some(format!("row {got:?} != oracle {want:?}"));
        }
    }
    None
}

/// Run `f` until `window` has passed and at least `min` runs are in.
fn repeat_for(window: Duration, min: usize, mut f: impl FnMut(usize)) {
    let start = Instant::now();
    let mut i = 0;
    while i < min || start.elapsed() < window {
        f(i);
        i += 1;
    }
}

struct Job {
    seconds: f64,
    text: Result<String, String>,
}

fn timed_job(args: &[String]) -> Job {
    let start = Instant::now();
    let text = ipregel_cli::run_cli(args).map_err(|e| e.0);
    Job {
        seconds: start.elapsed().as_secs_f64(),
        text,
    }
}

/// Check every job against the oracle; returns the parsed good ones.
fn check_jobs(report: &mut Report, jobs: &[Job], expected: &Expected) -> Vec<Printed> {
    let mut good: Vec<Printed> = Vec::new();
    for (i, job) in jobs.iter().enumerate() {
        report.attempted += 1;
        let parsed = match &job.text {
            Err(e) => Err(format!("job {i} errored: {e}")),
            Ok(text) => {
                parse_printed(text).ok_or_else(|| format!("job {i} printed unparseable text"))
            }
        };
        match parsed.and_then(|p| {
            disagreement(&p, expected).map_or(Ok(p), |why| Err(format!("job {i}: {why}")))
        }) {
            Err(why) => report.fail(why),
            Ok(p) => {
                if good
                    .first()
                    .is_some_and(|f| (f.supersteps, f.messages) != (p.supersteps, p.messages))
                {
                    report.fail(format!("job {i}: supersteps/messages differ from job 0"));
                } else {
                    good.push(p);
                }
            }
        }
    }
    good
}

pub fn run(args: &WorkerArgs, spec: &BatchSpec) -> Report {
    if args.trace {
        run_traced(args, spec)
    } else {
        run_untraced(args, spec)
    }
}

/// End-to-end: set-up repeats, then jobs for the rest of the window.
fn run_untraced(args: &WorkerArgs, spec: &BatchSpec) -> Report {
    let mut report = Report::new(&args.workload, false);
    let scale = &args.scale;
    let window = Duration::from_secs_f64(args.seconds);

    let cli = spec.cli_args(&args.input);
    // Two warm-up jobs fill the allocator and page cache; users' jobs
    // run warm too (the input was just written), and the README says so.
    for _ in 0..2 {
        drop(timed_job(&cli));
    }
    // One set-up after every second job, so that both are sampled over
    // the whole window and a slow stretch cannot land on one of them.
    let (mut setups, mut jobs) = (Vec::new(), Vec::new());
    repeat_for(window, scale.min_jobs.max(2 * scale.min_setups), |i| {
        jobs.push(timed_job(&cli));
        if i % 2 == 1 {
            let start = Instant::now();
            let ready = set_up(spec, &args.input, None);
            setups.push(start.elapsed().as_secs_f64());
            drop(ready);
        }
    });
    let hwm = current_hwm_bytes();

    let reference = load(spec.format, &args.input, NeighborMode::OutOnly);
    let expected = oracle(spec, &reference);
    // An edge list cannot name a trailing vertex that has no edges, so the
    // loaded graph may be a vertex or two short of the generated one.
    if expected.edges != args.edges || expected.vertices > args.vertices {
        report.fail(format!(
            "loader saw {}x{}, generator wrote {}x{}",
            expected.vertices, expected.edges, args.vertices, args.edges
        ));
    }
    let good = check_jobs(&mut report, &jobs, &expected);

    // The quietest set-up, job and superstep clock of the run.
    report.note(in_run_order("set-up s", &setups));
    report.set("setup_s", quietest_of(&setups));
    let job_ms: Vec<f64> = jobs.iter().map(|j| j.seconds * 1e3).collect();
    report.note(in_run_order("job ms", &job_ms));
    let op = quietest_of(&job_ms);
    report.set("op_ms", op);
    // The §7.1.2 superstep-only clock, as the program itself prints it: a
    // note here, the per-layer `cli.run_s` on a traced run.
    let clock: Vec<f64> = good.iter().map(|p| p.superstep_s * 1e3).collect();
    report.note(in_run_order("superstep clock ms", &clock));
    // A batch user has no arrival rate and no latency limit: goodput is
    // the correct share of jobs at the pace of `op_ms`. (Jobs per second
    // of the whole window follows the neighbours: it spread by 0.19.)
    let correct_share = good.len() as f64 / jobs.len() as f64;
    report.set(
        "goodput_rps",
        Sample::single(correct_share * 1e3 / op.value),
    );
    report.set(
        "peak_rss_mb",
        Sample::single(hwm.map_or(f64::NAN, |b| b as f64 / MB)),
    );
    report
}

/// Per-layer: plain jobs alternating with the rebuilt traced jobs, then
/// the probes of the layers this workload calls.
fn run_traced(args: &WorkerArgs, spec: &BatchSpec) -> Report {
    let mut report = Report::new(&args.workload, true);
    let scale = &args.scale;
    let rss_before = current_rss_bytes();
    probes::calibrate(&mut report);

    // Plain and traced jobs alternate, so both see the same machine: the
    // difference between a pair is the harness, not the neighbours.
    let cli = spec.cli_args(&args.input);
    drop(timed_job(&cli));
    let mut rec = Recorder::new();
    let mut plain = Vec::new();
    let mut traced: Vec<(String, Body)> = Vec::new();
    let mut rss_after_load = None;
    let mut hwm_after_first = None;
    repeat_for(
        Duration::from_secs_f64(args.seconds * 0.4),
        scale.min_jobs,
        |i| {
            // Which of the pair goes first alternates too.
            if i % 2 == 0 {
                plain.push(timed_job(&cli));
            }
            let (text, body, g, rss) = traced_job(spec, &args.input, &mut rec, i as u64);
            drop(g);
            if i == 0 {
                rss_after_load = rss;
                hwm_after_first = current_hwm_bytes();
            }
            traced.push((text, body));
            if i % 2 == 1 {
                plain.push(timed_job(&cli));
            }
        },
    );

    let reference = load(spec.format, &args.input, NeighborMode::OutOnly);
    let expected = oracle(spec, &reference);
    check_jobs(&mut report, &plain, &expected);
    // The rebuilt pipeline must print what the real one prints (but for
    // the clock line), and its full value vector must match the oracle.
    let strip = |s: &str| {
        s.lines()
            .filter(|l| !l.starts_with("superstep time:"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    for (i, (text, body)) in traced.iter().enumerate() {
        report.attempted += 1;
        if plain
            .first()
            .and_then(|j| j.text.as_ref().ok())
            .is_some_and(|real| strip(real) != strip(text))
        {
            report.fail(format!("traced job {i} prints other text than run_cli"));
            continue;
        }
        let full = match body {
            Body::Ranks(out) => {
                let diff = out
                    .iter()
                    .map(|(id, &r)| {
                        let want = expected.ranks[reference.index_of(id) as usize];
                        (r - want).abs() / r.abs().max(want.abs()).max(1e-300)
                    })
                    .fold(0.0, f64::max);
                (diff > 1e-9).then(|| format!("max relative rank difference {diff:e} > 1e-9"))
            }
            Body::Hops(out) => out
                .iter()
                .find(|(id, &d)| d != expected.hops[reference.index_of(*id) as usize])
                .map(|(id, _)| format!("vertex {id} has another distance than the oracle")),
        };
        if let Some(why) = full {
            report.fail(format!("traced job {i}: {why}"));
        }
    }

    // cli spans. What `run_cli` spends outside them (argument parsing,
    // dropping the graph) is the pairwise difference to the plain job.
    let children = ["load", "transform", "run", "render"];
    for (metric, span) in ["cli.load_s", "cli.transform_s", "cli.run_s", "cli.render_s"]
        .into_iter()
        .zip(children)
    {
        report.set(metric, Sample::of(&rec.durations_s(span)));
    }
    let attributed = |op: usize| -> f64 {
        rec.spans
            .iter()
            .filter(|s| s.op == op as u64 && children.contains(&s.name))
            .map(|s| s.duration_ns() as f64 / 1e9)
            .sum()
    };
    let unattributed = Sample::of(
        &plain
            .iter()
            .enumerate()
            .map(|(i, j)| j.seconds - attributed(i))
            .collect::<Vec<_>>(),
    );
    let job_s = median(&plain.iter().map(|j| j.seconds).collect::<Vec<_>>());
    if unattributed.value.abs() > 0.05 * job_s {
        report.note(format!(
            "cli.unattributed_s is {:.1}% of the job",
            100.0 * unattributed.value / job_s
        ));
    }
    report.set("cli.unattributed_s", unattributed);
    let overhead: Vec<f64> = rec
        .durations_s("job")
        .iter()
        .zip(&plain)
        .map(|(traced, j)| traced / j.seconds)
        .collect();
    report.set("bench.trace_overhead_ratio", Sample::of(&overhead));

    // Loader and transform cost per edge, from the same spans.
    let edges = args.edges as f64;
    let per_edge = |rec: &Recorder, span: &str| {
        Sample::of(
            &rec.durations_s(span)
                .iter()
                .map(|s| s * 1e9 / edges)
                .collect::<Vec<_>>(),
        )
    };
    let load_metric = match spec.format {
        "edgelist" => "graph.load_edgelist_ns_per_edge",
        "dimacs" => "graph.load_dimacs_ns_per_edge",
        _ => "graph.load_binary_ns_per_edge",
    };
    report.set(load_metric, per_edge(&rec, "load"));
    if spec.relabel {
        report.set("graph.relabel_ns_per_edge", per_edge(&rec, "relabel"));
    }
    if spec.compress {
        report.set("graph.compress_ns_per_edge", per_edge(&rec, "compress"));
    }

    // Exact counts and memory, from what the run already returns.
    let first = &traced[0].1;
    let stats = first.stats();
    report.set(
        "core.supersteps",
        Sample::single(stats.num_supersteps() as f64),
    );
    report.set(
        "core.messages",
        Sample::single(stats.total_messages() as f64),
    );
    report.set(
        "core.vertex_execs",
        Sample::single(stats.total_vertex_executions() as f64),
    );
    report.set(
        "core.framework_bytes_per_vertex",
        Sample::single(first.footprint().overhead_bytes() as f64 / args.vertices as f64),
    );
    let steals: u64 = stats
        .supersteps
        .iter()
        .filter_map(|s| s.load.as_ref())
        .map(|l| l.steals)
        .sum();
    report.set(
        "par.steals_per_region",
        Sample::single(steals as f64 / stats.num_supersteps().max(1) as f64),
    );
    if let (Some(before), Some(after), Some(hwm)) = (rss_before, rss_after_load, hwm_after_first) {
        report.set("mem.rss_after_load_mb", Sample::single(after as f64 / MB));
        let layout = match spec.app {
            App::PageRank { .. } => LayoutModel::pagerank(),
            App::Sssp { .. } => LayoutModel::distance_label(),
        };
        let projected = layout
            .footprint(spec.version(), args.vertices as u64, args.edges)
            .total() as f64;
        let measured = hwm.saturating_sub(before) as f64;
        report.set(
            "mem.projection_error_ratio",
            Sample::single((projected - measured).abs() / measured.max(1.0)),
        );
    }

    args.write_trace(&mut report, &rec);

    probes::batch(&mut report, args, spec, scale);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cli_arguments_spell_the_issue_command_lines() {
        let spec = BatchSpec::of("wiki_pagerank_push_compact").unwrap();
        assert_eq!(
            spec.cli_args(Path::new("w.ipgb")).join(" "),
            "pagerank --rounds 10 --graph w.ipgb --format binary --combiner spinlock --schedule edge --relabel degree --compress --threads 2"
        );
        assert_eq!(spec.mode(), NeighborMode::OutOnly);
        let road = BatchSpec::of("road_sssp").unwrap();
        assert_eq!(
            road.cli_args(Path::new("r.gr")).join(" "),
            "sssp --source 2 --graph r.gr --format dimacs --bypass --schedule vertex --threads 2"
        );
        assert_eq!(road.mode(), NeighborMode::Both);
        assert_eq!(road.version().label(), "Spinlock with selection bypass");
        assert!(BatchSpec::of("serve_sssp_batched").is_none());
    }

    #[test]
    fn printed_text_parses_and_disagreements_are_named() {
        let text = "graph: g.txt (|V|=4, |E|=5, compressed)\nversion: Broadcast\nsupersteps: 31\nmessages: 150\nsuperstep time: 0.123s\nframework bytes: 99\ntop 2 by rank:\n  3\t0.500000\n  1\t0.250000\n";
        let p = parse_printed(text).unwrap();
        assert_eq!(
            (p.vertices, p.edges, p.supersteps, p.messages),
            (4, 5, 31, 150)
        );
        assert_eq!(p.superstep_s, 0.123);
        assert_eq!(p.rows, vec![(3, 0.5), (1, 0.25)]);
        let mut e = Expected {
            vertices: 4,
            edges: 5,
            reached: None,
            rows: vec![(3, 0.5000004), (1, 0.25)],
            ranks: vec![],
            hops: vec![],
        };
        assert_eq!(disagreement(&p, &e), None);
        e.rows[1].0 = 2;
        assert!(disagreement(&p, &e).unwrap().contains("oracle"));
        e.edges = 6;
        assert!(disagreement(&p, &e).unwrap().contains("graph size"));
    }
}
