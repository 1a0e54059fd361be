//! Layer probes: each times calls into one layer's public functions, or
//! reads what a run already returns. Timed probes take
//! `Scale::probe_samples` samples; counts must repeat exactly.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ipregel::{
    try_run, try_run_pull, try_run_sequential, AtomicMailbox, CheckpointConfig, CombinerKind,
    Mailbox, MutexMailbox, RunConfig, RunStats, Schedule, SpinMailbox, Version,
};
use ipregel_apps::{MultiHops, PageRank, Sssp};
use ipregel_graph::generators::USA_ROADS;
use ipregel_graph::rng::{RngExt, SeedableRng, StdRng};
use ipregel_graph::schedule::{count_balanced, edge_balanced_range};
use ipregel_graph::{Graph, GraphBuilder, NeighborMode};
use ipregel_server::{protocol, Algorithm, Request, ServerConfig, ServerHandle};

use crate::batch::{load, App, BatchSpec};
use crate::config::{Scale, ENGINE_THREADS};
use crate::report::Report;
use crate::stats::{median, Sample};
use crate::worker::WorkerArgs;

/// `samples` timings of `f`, in seconds.
fn time_n(samples: usize, mut f: impl FnMut()) -> Vec<f64> {
    (0..samples)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .collect()
}

fn scaled(seconds: &[f64], factor: f64) -> Sample {
    Sample::of(&seconds.iter().map(|s| s * factor).collect::<Vec<_>>())
}

/// Two fixed kernels timed before every traced workload: one bound by the
/// core, one by memory. Recorded so a noisy machine shows in the output;
/// never used to normalise anything.
pub fn calibrate(report: &mut Report) {
    let cpu = time_n(3, || {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..(1u32 << 25) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        black_box(x);
    });
    // 16 MB, eight times L2 and small next to any workload's own peak.
    let block = vec![1u64; 2 << 20];
    let mem = time_n(3, || {
        for _ in 0..8 {
            black_box(
                black_box(&block)
                    .iter()
                    .fold(0u64, |a, &b| a.wrapping_add(b)),
            );
        }
    });
    report.set("bench.cal_cpu_s", Sample::of(&cpu));
    report.set("bench.cal_mem_s", Sample::of(&mem));
}

/// Pool fork-join cost: one `scope` spawning a job per thread, and one
/// `join`, both inside `install` as the engines run them.
pub fn pool(report: &mut Report, scale: &Scale) {
    const REGIONS: usize = 2000;
    let pool = ipregel_par::ThreadPoolBuilder::new()
        .num_threads(ENGINE_THREADS)
        .build()
        .expect("pool");
    let region = time_n(scale.probe_samples, || {
        pool.install(|| {
            for _ in 0..REGIONS {
                ipregel_par::scope(|s| {
                    for _ in 0..ENGINE_THREADS {
                        s.spawn(|_| {
                            black_box(());
                        });
                    }
                });
            }
        });
    });
    let join = time_n(scale.probe_samples, || {
        pool.install(|| {
            for _ in 0..REGIONS {
                ipregel_par::join(|| black_box(()), || black_box(()));
            }
        });
    });
    report.set("par.region_us", scaled(&region, 1e6 / REGIONS as f64));
    report.set("par.join_us", scaled(&join, 1e6 / REGIONS as f64));
}

/// The probes of the layers a batch workload calls, on its own input.
pub fn batch(report: &mut Report, args: &WorkerArgs, spec: &BatchSpec, scale: &Scale) {
    let n = scale.probe_samples;
    pool(report, scale);
    let g = load(spec.format, &args.input, spec.mode());
    let edges = g.num_edges() as f64;

    // graph: builder (where the loader builds from text), planning, exact bytes.
    if spec.format != "binary" {
        let map = g.address_map();
        let weighted = g.is_weighted();
        let mut list: Vec<(u32, u32, u32)> = Vec::with_capacity(g.num_edges() as usize);
        for v in map.live_slots() {
            let weights = g.out_weights(v);
            for (i, &u) in g.out_neighbors(v).iter().enumerate() {
                list.push((map.id_of(v), map.id_of(u), weights.map_or(1, |w| w[i])));
            }
        }
        let build = time_n(n, || {
            let mut b = GraphBuilder::with_capacity(spec.mode(), list.len())
                .declare_id_range(map.base(), map.num_vertices());
            for &(s, d, w) in &list {
                if weighted {
                    b.add_weighted_edge(s, d, w);
                } else {
                    b.add_edge(s, d);
                }
            }
            black_box(b.build().expect("build"));
        });
        report.set("graph.build_ns_per_edge", scaled(&build, 1e9 / edges));
    }
    let out = g.out_csr().expect("plain out-adjacency");
    report.set(
        "graph.bytes_per_edge_plain",
        Sample::single(out.bytes() as f64 / edges),
    );
    let chunks = ENGINE_THREADS * 4; // the engines' CHUNKS_PER_THREAD
    const PLANS: usize = 1000;
    if spec.schedule == Schedule::EdgeBalanced {
        let plan = time_n(n, || {
            for _ in 0..PLANS {
                black_box(edge_balanced_range(black_box(out.offsets()), chunks, 1));
            }
        });
        report.set("graph.plan_edge_us", scaled(&plan, 1e6 / PLANS as f64));
    } else {
        let plan = time_n(n, || {
            for _ in 0..PLANS {
                black_box(count_balanced(black_box(g.num_slots()), chunks, 1));
            }
        });
        report.set("graph.plan_vertex_us", scaled(&plan, 1e6 / PLANS as f64));
    }

    match spec.app {
        App::PageRank { .. } => pagerank_layers(report, spec, g, n),
        App::Sssp { .. } => {
            drop(g);
            traversal_layers(report, args, scale);
        }
    }
}

fn ns_per_edge(stats: &RunStats) -> f64 {
    stats.total_time.as_secs_f64() * 1e9 / stats.total_messages().max(1) as f64
}

/// Neighbour iteration and the engines, on the wiki graph. The pull
/// workload measures the read side, the push workload the write side;
/// each also measures its one-thread twin for the scaling ratio.
fn pagerank_layers(report: &mut Report, spec: &BatchSpec, g: Graph, n: usize) {
    let edges = g.num_edges() as f64;
    // Five rounds visit every edge five times: enough for a stable
    // ns/edge at a fifth of the workload's cost.
    let p = PageRank {
        rounds: 5,
        damping: 0.85,
    };
    let cfg = |threads: usize, schedule: Schedule| RunConfig {
        threads: Some(threads),
        schedule,
        ..RunConfig::default()
    };
    let samples =
        |run: &dyn Fn() -> RunStats| -> Vec<f64> { (0..n).map(|_| ns_per_edge(&run())).collect() };
    let push = |kind: CombinerKind| Version {
        combiner: kind,
        selection_bypass: false,
    };

    let iterate = |g: &Graph| {
        let slots: Vec<u32> = g.address_map().live_slots().collect();
        time_n(n, || {
            let mut sum = 0u64;
            for &v in &slots {
                for &u in g.out_neighbors(v) {
                    sum += u64::from(u);
                }
            }
            black_box(sum);
        })
    };

    if spec.version().combiner == CombinerKind::Broadcast {
        report.set(
            "graph.iter_plain_ns_per_edge",
            scaled(&iterate(&g), 1e9 / edges),
        );
        let t2 = samples(&|| {
            try_run_pull(&g, &p, &cfg(ENGINE_THREADS, spec.schedule))
                .expect("pull")
                .stats
        });
        let t1 = samples(&|| {
            try_run_pull(&g, &p, &cfg(1, spec.schedule))
                .expect("pull t1")
                .stats
        });
        let seq = samples(&|| {
            try_run_sequential(&g, &p, &cfg(1, spec.schedule))
                .expect("seq")
                .stats
        });
        report.set(
            "core.engine.pull_scaling_2t",
            Sample::single(median(&t1) / median(&t2)),
        );
        report.set("core.engine.pull_ns_per_edge", Sample::of(&t2));
        report.set("core.engine.pull_t1_ns_per_edge", Sample::of(&t1));
        report.set("core.engine.seq_ns_per_edge", Sample::of(&seq));
        recover_layers(report, &g, n);
        return;
    }

    // The push workload runs relabelled; probe the graph it runs on.
    let r = ipregel_graph::transform::degree_relabeling(&g);
    let g = ipregel_graph::transform::relabel_graph(&g, &r).expect("relabel");
    report.set(
        "graph.iter_plain_ns_per_edge",
        scaled(&iterate(&g), 1e9 / edges),
    );
    let spin = push(CombinerKind::Spinlock);
    let edge_cut: Vec<RunStats> = (0..n)
        .map(|_| {
            try_run(&g, &p, spin, &cfg(ENGINE_THREADS, Schedule::EdgeBalanced))
                .expect("push spin")
                .stats
        })
        .collect();
    let t2: Vec<f64> = edge_cut.iter().map(ns_per_edge).collect();
    let imbalance: Vec<f64> = edge_cut
        .iter()
        .map(RunStats::worst_duration_imbalance)
        .collect();
    let t1 = samples(&|| {
        try_run(&g, &p, spin, &cfg(1, Schedule::EdgeBalanced))
            .expect("push spin t1")
            .stats
    });
    let mutex = samples(&|| {
        try_run(
            &g,
            &p,
            push(CombinerKind::Mutex),
            &cfg(ENGINE_THREADS, Schedule::EdgeBalanced),
        )
        .expect("push mutex")
        .stats
    });
    let vertex_cut: Vec<f64> = (0..n)
        .map(|_| {
            try_run(&g, &p, spin, &cfg(ENGINE_THREADS, Schedule::VertexBalanced))
                .expect("push vertex")
                .stats
                .worst_duration_imbalance()
        })
        .collect();
    report.set(
        "core.engine.push_scaling_2t",
        Sample::single(median(&t1) / median(&t2)),
    );
    report.set("core.engine.push_spin_ns_per_edge", Sample::of(&t2));
    report.set("core.engine.push_spin_t1_ns_per_edge", Sample::of(&t1));
    report.set("core.engine.push_mutex_ns_per_edge", Sample::of(&mutex));
    report.set("core.engine.chunk_imbalance_edge", Sample::of(&imbalance));
    report.set(
        "core.engine.chunk_imbalance_vertex",
        Sample::of(&vertex_cut),
    );

    let compact = g.compress().expect("compress");
    let adj = compact
        .out_adj()
        .and_then(|a| a.compact())
        .expect("compact out-adjacency");
    report.set(
        "graph.bytes_per_edge_compact",
        Sample::single(adj.bytes() as f64 / edges),
    );
    let slots: Vec<u32> = compact.address_map().live_slots().collect();
    let varint = time_n(n, || {
        let mut sum = 0u64;
        for &v in &slots {
            for u in adj.neighbors_iter(v) {
                sum += u64::from(u);
            }
        }
        black_box(sum);
    });
    report.set(
        "graph.iter_varint_ns_per_edge",
        scaled(&varint, 1e9 / edges),
    );
    let t2v = samples(&|| {
        try_run(
            &compact,
            &p,
            spin,
            &cfg(ENGINE_THREADS, Schedule::EdgeBalanced),
        )
        .expect("push varint")
        .stats
    });
    report.set("core.engine.push_spin_varint_ns_per_edge", Sample::of(&t2v));
    drop(compact);
    mailbox_layers(report, n);
}

/// Checkpoint cost: the same PageRank run with a checkpoint at every
/// superstep against the plain run.
fn recover_layers(report: &mut Report, g: &Graph, n: usize) {
    let p = PageRank {
        rounds: 3,
        damping: 0.85,
    };
    let version = Version {
        combiner: CombinerKind::Broadcast,
        selection_bypass: false,
    };
    let cfg = RunConfig {
        threads: Some(ENGINE_THREADS),
        ..RunConfig::default()
    };
    let dir = crate::config::out_dir().join(format!("ckpt-{}", std::process::id()));
    let plain = time_n(n, || {
        black_box(try_run(g, &p, version, &cfg).expect("plain run"));
    });
    let mut files = 0u64;
    let mut bytes = 0u64;
    let saved = time_n(n, || {
        let _ = std::fs::remove_dir_all(&dir);
        black_box(
            ipregel::recover::run_with_checkpoints(
                g,
                &p,
                version,
                &cfg,
                &CheckpointConfig::new(&dir, 1),
            )
            .expect("checkpointed run"),
        );
        let sizes: Vec<u64> = std::fs::read_dir(&dir)
            .map(|d| {
                d.filter_map(|e| e.ok()?.metadata().ok().map(|m| m.len()))
                    .collect()
            })
            .unwrap_or_default();
        files = sizes.len() as u64;
        bytes = sizes.iter().sum();
    });
    let _ = std::fs::remove_dir_all(&dir);
    if files > 0 {
        report.set(
            "core.recover.save_ms_per_ckpt",
            Sample::single((median(&saved) - median(&plain)) * 1e3 / files as f64),
        );
        report.set(
            "core.recover.bytes_per_ckpt",
            Sample::single(bytes as f64 / files as f64),
        );
    }
}

fn min32(old: &mut u32, new: u32) {
    if new < *old {
        *old = new;
    }
}

/// `deliver` + `take` through the public trait with a u32 min-combine:
/// one thread on uniform targets, then two threads sending 90 % of their
/// messages to 1 % of the slots (the hub case of a skewed graph).
fn mailbox_layers(report: &mut Report, n: usize) {
    const SLOTS: usize = 1 << 18;
    const MSGS: usize = 1 << 21;
    fn targets(seed: u64, hub: bool) -> Vec<u32> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..MSGS)
            .map(|_| {
                if hub && rng.random_range(0u32..10) != 0 {
                    rng.random_range(0u32..(SLOTS / 100) as u32)
                } else {
                    rng.random_range(0u32..SLOTS as u32)
                }
            })
            .collect()
    }
    fn drain<MB: Mailbox<u32>>(boxes: &[MB]) {
        for b in boxes {
            black_box(b.take());
        }
    }
    fn uniform<MB: Mailbox<u32>>(n: usize) -> Sample {
        let boxes: Vec<MB> = (0..SLOTS).map(|_| MB::empty()).collect();
        let to = targets(1, false);
        let secs = time_n(n, || {
            for (i, &t) in to.iter().enumerate() {
                boxes[t as usize].deliver(i as u32, min32);
            }
            drain(&boxes);
        });
        scaled(&secs, 1e9 / MSGS as f64)
    }
    fn hub<MB: Mailbox<u32>>(n: usize) -> Sample {
        let boxes: Vec<MB> = (0..SLOTS).map(|_| MB::empty()).collect();
        let lists = [targets(2, true), targets(3, true)];
        let secs = time_n(n, || {
            std::thread::scope(|s| {
                for to in &lists {
                    let boxes = &boxes;
                    s.spawn(move || {
                        for (i, &t) in to.iter().enumerate() {
                            boxes[t as usize].deliver(i as u32, min32);
                        }
                    });
                }
            });
            drain(&boxes);
        });
        scaled(&secs, 1e9 / (2 * MSGS) as f64)
    }
    report.set(
        "core.mailbox.mutex_ns_per_msg",
        uniform::<MutexMailbox<u32>>(n),
    );
    report.set(
        "core.mailbox.spin_ns_per_msg",
        uniform::<SpinMailbox<u32>>(n),
    );
    report.set(
        "core.mailbox.atomic_ns_per_msg",
        uniform::<AtomicMailbox<u32>>(n),
    );
    report.set(
        "core.mailbox.mutex_hub_ns_per_msg",
        hub::<MutexMailbox<u32>>(n),
    );
    report.set(
        "core.mailbox.spin_hub_ns_per_msg",
        hub::<SpinMailbox<u32>>(n),
    );
    report.set(
        "core.mailbox.atomic_hub_ns_per_msg",
        hub::<AtomicMailbox<u32>>(n),
    );
}

/// Per-superstep fixed cost and selection, the layers a long thin
/// traversal pays for.
fn traversal_layers(report: &mut Report, args: &WorkerArgs, scale: &Scale) {
    let n = scale.probe_samples;
    let cfg = RunConfig {
        threads: Some(ENGINE_THREADS),
        ..RunConfig::default()
    };
    let spin = |bypass: bool| Version {
        combiner: CombinerKind::Spinlock,
        selection_bypass: bypass,
    };

    // One active vertex per superstep: time ÷ supersteps is the floor.
    let path_len = 20_000u32.min(4 * args.vertices as u32).max(16);
    let mut b = GraphBuilder::with_capacity(NeighborMode::Both, path_len as usize)
        .declare_id_range(0, path_len);
    for v in 0..path_len - 1 {
        b.add_edge(v, v + 1);
    }
    let path = b.build().expect("path");
    let floor: Vec<f64> = (0..n)
        .map(|_| {
            let s = try_run(&path, &Sssp { source: 0 }, spin(true), &cfg)
                .expect("path sssp")
                .stats;
            s.total_time.as_secs_f64() * 1e6 / s.num_supersteps() as f64
        })
        .collect();
    report.set("core.engine.superstep_floor_us", Sample::of(&floor));

    // Scan selection pays O(|V|) per superstep, so it gets a smaller road
    // graph than the workload's; the bypass is measured on the same one.
    let road = USA_ROADS.analog_graph(scale.scan_road_divisor, args.seed + 1, NeighborMode::Both);
    let vertices = road.num_vertices() as f64;
    let select = |bypass: bool, per: &dyn Fn(&RunStats) -> f64| -> Vec<f64> {
        (0..n)
            .map(|_| {
                let s = try_run(&road, &Sssp { source: 2 }, spin(bypass), &cfg)
                    .expect("road sssp")
                    .stats;
                s.total_selection_time().as_secs_f64() * 1e9 / per(&s)
            })
            .collect()
    };
    report.set(
        "core.selection.scan_ns_per_vertex",
        Sample::of(&select(false, &|s| s.num_supersteps() as f64 * vertices)),
    );
    report.set(
        "core.selection.bypass_ns_per_active",
        Sample::of(&select(true, &|s| {
            s.total_vertex_executions().max(1) as f64
        })),
    );
}

/// `k` distinct sources with out-edges, spread over the id range so lane
/// eccentricities differ.
pub fn spread_sources(g: &Graph, k: usize) -> Vec<u32> {
    let map = g.address_map();
    let n = map.num_vertices();
    let mut picked: Vec<u32> = Vec::with_capacity(k);
    for i in 0..k as u32 {
        let mut id = map.base() + (i * (n / 9).max(1) + 1) % n;
        while g.out_degree(g.index_of(id)) == 0 || picked.contains(&id) {
            id = map.base() + (id - map.base() + 1) % n;
        }
        picked.push(id);
    }
    picked
}

/// K-lane folding in the engine (`MultiHops` against K solo `Sssp` runs)
/// and through the server (`submit_batch` on a `batch_lanes: 8` against a
/// `batch_lanes: 1` one-worker server).
pub fn lanes(report: &mut Report, graph: &Arc<Graph>, n: usize) {
    let version = Version {
        combiner: CombinerKind::Spinlock,
        selection_bypass: true,
    };
    let cfg = RunConfig::default();
    let sources = spread_sources(graph, 8);
    for k in [2usize, 4, 8] {
        let srcs = &sources[..k];
        let mut solo_msgs = 0;
        let solo = time_n(n, || {
            solo_msgs = srcs
                .iter()
                .map(|&s| {
                    try_run(graph, &Sssp { source: s }, version, &cfg)
                        .expect("solo")
                        .stats
                        .total_messages()
                })
                .sum();
        });
        let mut multi_msgs = 0;
        let multi = time_n(n, || {
            multi_msgs = try_run(graph, &MultiHops::new(srcs), version, &cfg)
                .expect("multi")
                .stats
                .total_messages();
        });
        report.set(
            &format!("core.lanes.k{k}_speedup"),
            Sample::single(median(&solo) / median(&multi)),
        );
        if k == 8 {
            report.set(
                "core.lanes.k8_msg_ratio",
                Sample::single(multi_msgs as f64 / solo_msgs.max(1) as f64),
            );
        }
        let through_server = |batch_lanes: usize| {
            time_n(n, || {
                let config = ServerConfig {
                    workers: 1,
                    batch_lanes,
                    batch_window: Duration::ZERO,
                    ..ServerConfig::default()
                };
                let server = ServerHandle::start(Arc::clone(graph), config);
                let requests = srcs
                    .iter()
                    .map(|&s| Request::new(Algorithm::Sssp { source: s }))
                    .collect();
                for ticket in server.submit_batch(requests) {
                    black_box(ticket.expect("admitted").wait().expect("served"));
                }
                server.shutdown();
            })
        };
        report.set(
            &format!("server.batch.k{k}_speedup"),
            Sample::single(median(&through_server(1)) / median(&through_server(8))),
        );
    }
}

/// Protocol and front-end costs of the resident server, from timed
/// public calls on a running default server.
pub fn protocol_layers(report: &mut Report, graph: &Arc<Graph>, n: usize) {
    const LINES: usize = 20_000;
    let line = r#"{"op":"sssp","source":12345,"combiner":"spinlock","bypass":true,"values":true}"#;
    let parse = time_n(n, || {
        for _ in 0..LINES {
            black_box(protocol::parse_line(black_box(line)).expect("valid line"));
        }
    });
    report.set(
        "server.parse_ns_per_line",
        scaled(&parse, 1e9 / LINES as f64),
    );

    let server = ServerHandle::start(Arc::clone(graph), ServerConfig::default());
    let ping = time_n(n, || {
        for _ in 0..LINES {
            black_box(server.handle_line(r#"{"op":"ping"}"#));
        }
    });
    report.set("server.ping_inproc_us", scaled(&ping, 1e6 / LINES as f64));
    let source = spread_sources(graph, 1)[0];
    let with = time_n(n.max(3), || {
        black_box(server.handle_line(&format!(
            r#"{{"op":"sssp","source":{source},"values":true}}"#
        )));
    });
    let without = time_n(n.max(3), || {
        black_box(server.handle_line(&format!(r#"{{"op":"sssp","source":{source}}}"#)));
    });
    let per_value = (median(&with) - median(&without)) * 1e9 / graph.num_vertices() as f64;
    report.set("server.render_ns_per_value", Sample::single(per_value));
    server.shutdown();
}
