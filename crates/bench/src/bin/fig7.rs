//! Figure 7: runtime of every iPregel version on PageRank, Hashmin and
//! SSSP over the Wikipedia-like and USA-roads-like graphs.
//!
//! Reproduces the paper's version sweep: three combiners (mutex,
//! spinlock, broadcast) with and without the selection bypass — except
//! PageRank, which only runs the three non-bypass versions because its
//! vertices do not halt every superstep (Section 4's note, mirrored in
//! Section 7.2's setup). Prints runtimes, per-app speedup spreads (the
//! paper's 7.5→20 Hashmin and 15→1400 SSSP factors), and appends JSON
//! records under `results/fig7.jsonl`.
//!
//! The spinlock runs double as Section 7.1.4's activity profiles: the
//! scan run's active vertices per superstep as a sparkline (constantly
//! all active in PageRank, decreasing in Hashmin, a bell after one
//! active vertex in SSSP), and for scan and bypass the share of runtime
//! spent selecting active vertices — the cost Section 4 attacks.

use ipregel::{run, CombinerKind, RunConfig, RunOutput, Version, VertexProgram};
use ipregel_apps::{Hashmin, PageRank, Sssp};
use ipregel_bench::svg::{save_svg, BarChart};
use ipregel_bench::{
    append_result, rule, secs, threads, PaperGraphs, PAGERANK_ROUNDS, SSSP_SOURCE,
};
use ipregel_graph::Graph;

struct Record {
    figure: &'static str,
    graph: String,
    divisor: u64,
    app: &'static str,
    version: String,
    seconds: f64,
    supersteps: usize,
    messages: u64,
    footprint_bytes: usize,
}

ipregel::impl_to_json!(Record { figure, graph, divisor, app, version, seconds, supersteps, messages, footprint_bytes });

fn measure<P: VertexProgram>(
    g: &Graph,
    p: &P,
    version: Version,
) -> RunOutput<P::Value> {
    let cfg = RunConfig { threads: Some(threads()), ..RunConfig::default() };
    run(g, p, version, &cfg)
}

fn sweep<P: VertexProgram>(
    graph_label: &str,
    divisor: u64,
    g: &Graph,
    app: &'static str,
    p: &P,
    versions: &[Version],
) {
    let mut bar_names: Vec<String> = Vec::new();
    let mut bar_values: Vec<f64> = Vec::new();
    println!("\n  {app}:");
    println!("    {:<34} {:>10} {:>11} {:>13}", "Version", "Runtime(s)", "Supersteps", "Messages");
    let mut best: Option<(f64, String)> = None;
    let mut worst: Option<(f64, String)> = None;
    let mut scan_profile: Option<(String, u64, f64)> = None;
    let mut bypass_share: Option<f64> = None;
    for &v in versions {
        let out = measure(g, p, v);
        let t = out.stats.total_time.as_secs_f64();
        if v.combiner == CombinerKind::Spinlock {
            // Percentage of the run's time spent selecting active vertices.
            let share = 100.0 * out.stats.total_selection_time().as_secs_f64() / t.max(1e-12);
            if v.selection_bypass {
                bypass_share = Some(share);
            } else {
                scan_profile = Some((out.stats.activity_sparkline(), out.stats.peak_active(), share));
            }
        }
        println!(
            "    {:<34} {:>10} {:>11} {:>13}",
            v.label(),
            secs(out.stats.total_time),
            out.stats.num_supersteps(),
            out.stats.total_messages()
        );
        append_result(
            "fig7.jsonl",
            &Record {
                figure: "fig7",
                graph: graph_label.to_string(),
                divisor,
                app,
                version: v.label(),
                seconds: t,
                supersteps: out.stats.num_supersteps(),
                messages: out.stats.total_messages(),
                footprint_bytes: out.footprint.total_bytes(),
            },
        );
        bar_names.push(v.label());
        bar_values.push(t);
        if best.as_ref().is_none_or(|(bt, _)| t < *bt) {
            best = Some((t, v.label()));
        }
        if worst.as_ref().is_none_or(|(wt, _)| t > *wt) {
            worst = Some((t, v.label()));
        }
    }
    if let (Some((bt, bl)), Some((wt, wl))) = (best, worst) {
        println!(
            "    -> fastest: {bl} ({}s); slowest: {wl} ({}s); spread ×{:.1}",
            format_args!("{bt:.3}"),
            format_args!("{wt:.3}"),
            wt / bt.max(1e-12),
        );
        // Figure panel: one bar per version, log-y when the spread is
        // large (the paper's SSSP panel uses a log axis too).
        let log_y = wt / bt.max(1e-12) > 30.0;
        let chart = BarChart {
            title: format!("Figure 7 — {app}, {graph_label} analog"),
            y_label: "runtime (s)".into(),
            groups: bar_names,
            series: vec![("runtime".into(), bar_values)],
            log_y,
        };
        let file = format!("fig7_{}_{}.svg", graph_label.replace(' ', "_"), app.to_lowercase());
        if let Some(path) = save_svg(&file, &chart.to_svg()) {
            println!("    figure written to {}", path.display());
        }
    }
    if let Some((spark, peak, scan_share)) = scan_profile {
        // The sparkline is ASCII, so slicing at a byte index is safe.
        let shown = if spark.len() > 60 { format!("{}...", &spark[..57]) } else { spark };
        println!("    activity, spinlock scan (one char per superstep): [{shown}]");
        let bypass = match bypass_share {
            Some(b) => format!("bypass {b:.1}%"),
            None => "bypass not run (vertices do not halt every superstep)".into(),
        };
        println!("    peak active {peak}; selection share of runtime: scan {scan_share:.1}%, {bypass}");
    }
}

fn main() {
    let graphs = PaperGraphs::build();
    println!(
        "Figure 7: Runtime (in seconds) of iPregel on PageRank, Hashmin and SSSP\n\
         as the version varies ({} threads, PageRank x{}, SSSP source {})",
        threads(),
        PAGERANK_ROUNDS,
        SSSP_SOURCE
    );

    let all = Version::paper_versions();
    let no_bypass: Vec<Version> = all.iter().copied().filter(|v| !v.selection_bypass).collect();

    for (label, g, divisor, _) in graphs.each() {
        rule(78);
        println!(
            "{label} graph (divisor {divisor}: |V|={}, |E|={})",
            g.num_vertices(),
            g.num_edges()
        );
        // PageRank: the three combiner versions only (no bypass).
        sweep(label, divisor, g, "PageRank", &PageRank { rounds: PAGERANK_ROUNDS, damping: 0.85 }, &no_bypass);
        // Hashmin and SSSP: all six versions.
        sweep(label, divisor, g, "Hashmin", &Hashmin, &all);
        sweep(label, divisor, g, "SSSP", &Sssp { source: SSSP_SOURCE }, &all);
    }
    rule(78);
    println!(
        "Paper shape to compare against: PageRank fastest on Broadcast (≈2× over\n\
         spinlock, ≈30% gained mutex→spinlock); Hashmin/SSSP fastest on Spinlock\n\
         with selection bypass; bypass spread grows on the sparse road graph\n\
         (paper: ×7.5→×20 Hashmin, ×15→×1400 SSSP)."
    );
}
