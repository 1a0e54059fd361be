//! The two serve workloads: requests against a resident graph, from
//! callers that each wait for their reply (closed loops), so the server is
//! never idle and goodput is capacity.
//!
//! `serve_sssp_batched` keeps sixteen in-process traversal requests
//! outstanding against a one-worker server that folds eight at a time into
//! one K-lane run. `serve_mixed_closed` is two TCP connections sending a
//! mix of all four algorithms, batching off. The traced run of the first
//! also drives the same server with an open loop — independent users at a
//! fixed rate — whose latencies are per-layer metrics only.

use std::collections::{HashMap, VecDeque};
use std::fs::File;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::linux::net::TcpStreamExt;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ipregel::trace::{ServerOutcome, TraceEvent};
use ipregel_apps::reference::{bfs_levels, minlabel_fixpoint, pagerank_power};
use ipregel_graph::loaders::read_binary;
use ipregel_graph::rng::{RngExt, SeedableRng, StdRng};
use ipregel_graph::{Graph, NeighborMode};
use ipregel_mem::{current_hwm_bytes, MB};
use ipregel_server::{
    net, run_isolated, Algorithm, Rejected, Request, ResultValues, ServerConfig, ServerHandle,
    ServerReport, Ticket,
};

use crate::probes;
use crate::report::Report;
use crate::spans::Recorder;
use crate::stats::{busiest_of, group_medians, in_run_order, median, quietest_of, tail, Sample};
use crate::worker::WorkerArgs;

const PING: &str = r#"{"op":"ping"}"#;
const PAGERANK_ROUNDS: usize = 5;
const DAMPING: f64 = 0.85;
const CONNECTIONS: usize = 2;

fn load_resident(args: &WorkerArgs) -> Graph {
    let file =
        File::open(&args.input).unwrap_or_else(|e| panic!("open {}: {e}", args.input.display()));
    read_binary(BufReader::new(file), NeighborMode::Both).expect("resident graph")
}

/// Ids that have out-edges: a request from an edgeless page is answered
/// in one superstep and would make the latency distribution bimodal.
fn source_pool(g: &Graph) -> Vec<u32> {
    let map = g.address_map();
    map.live_slots()
        .filter(|&s| g.out_degree(s) > 0)
        .map(|s| map.id_of(s))
        .collect()
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    Sssp { source: u32, values: bool },
    Bfs { source: u32 },
    Components { values: bool },
    PageRank { values: bool },
}

impl Op {
    fn request(self) -> Request {
        Request::new(match self {
            Op::Sssp { source, .. } => Algorithm::Sssp { source },
            Op::Bfs { source } => Algorithm::Bfs { source },
            Op::Components { .. } => Algorithm::Components,
            Op::PageRank { .. } => Algorithm::PageRank {
                rounds: PAGERANK_ROUNDS,
                damping: DAMPING,
            },
        })
    }

    fn line(self) -> String {
        let values = |v: bool| if v { ",\"values\":true" } else { "" };
        match self {
            Op::Sssp { source, values: v } => {
                format!("{{\"op\":\"sssp\",\"source\":{source}{}}}\n", values(v))
            }
            Op::Bfs { source } => format!("{{\"op\":\"bfs\",\"source\":{source}}}\n"),
            Op::Components { values: v } => format!("{{\"op\":\"components\"{}}}\n", values(v)),
            Op::PageRank { values: v } => {
                format!("{{\"op\":\"pagerank\",\"rounds\":{PAGERANK_ROUNDS},\"damping\":{DAMPING}{}}}\n", values(v))
            }
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    pub due_ns: u64,
    pub op: Op,
}

/// Seeded traversal requests, half SSSP and half BFS, each from a source
/// not used before while the pool lasts.
struct Traversals {
    rng: StdRng,
    pool: Vec<u32>,
    made: usize,
}

impl Traversals {
    fn new(seed: u64, pool: &[u32]) -> Traversals {
        Traversals {
            rng: StdRng::seed_from_u64(seed ^ 0x7472_6176),
            pool: pool.to_vec(),
            made: 0,
        }
    }
}

impl Iterator for Traversals {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        // Partial Fisher–Yates: position `at` gets a source not used before.
        let at = self.made % self.pool.len();
        let pick = self.rng.random_range(at..self.pool.len());
        self.pool.swap(at, pick);
        self.made += 1;
        let source = self.pool[at];
        Some(if self.rng.random_range(0u32..2) == 0 {
            Op::Sssp {
                source,
                values: true,
            }
        } else {
            Op::Bfs { source }
        })
    }
}

/// The open loop's arrivals: a pure function of its arguments. A Poisson
/// process conditioned on its count — `rate × seconds` arrival times
/// uniform over the window — so every seed offers the same load.
pub fn open_schedule(seed: u64, rate_rps: f64, seconds: f64, pool: &[u32]) -> Vec<Arrival> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6f70_656e);
    let n = (rate_rps * seconds).round().max(1.0) as usize;
    let mut due: Vec<u64> = (0..n)
        .map(|_| (rng.random::<f64>() * seconds * 1e9) as u64)
        .collect();
    due.sort_unstable();
    due.into_iter()
        .zip(Traversals::new(seed, pool))
        .map(|(due_ns, op)| Arrival { due_ns, op })
        .collect()
}

/// Request `index` of connection `conn` in the closed loop: 60 % sssp (a
/// third of them asking for values), 20 % bfs, 15 % components, 5 %
/// pagerank. Pure, so a connection's sequence does not depend on timing.
pub fn mixed_op(seed: u64, conn: usize, index: u64, pool: &[u32]) -> Op {
    let mut rng = StdRng::seed_from_u64(
        seed ^ ((conn as u64 + 1) << 48) ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15),
    );
    let source = pool[rng.random_range(0..pool.len())];
    match rng.random_range(0u32..100) {
        0..=19 => Op::Sssp {
            source,
            values: true,
        },
        20..=59 => Op::Sssp {
            source,
            values: false,
        },
        60..=79 => Op::Bfs { source },
        80..=94 => Op::Components { values: false },
        _ => Op::PageRank { values: false },
    }
}

/// One answered (or refused) request as the client saw it. Instants are
/// nanoseconds on the window's clock.
#[derive(Debug, Clone)]
struct Served {
    op: Op,
    /// Open loop: when the request was due. Closed loop: when it was sent.
    start_ns: u64,
    /// The request was handed to the server (submit returned / line written).
    sent_ns: u64,
    /// The reply arrived.
    reply_ns: u64,
    /// The reply was consumed (values hashed / line parsed).
    done_ns: u64,
    /// Open loop only: how late the generator sent it.
    late_ns: u64,
    ok: bool,
    id: u64,
    supersteps: u64,
    messages: u64,
    /// Digest of the `(id, value)` pairs, when the reply carried values.
    values_hash: Option<u64>,
    /// Raw pairs kept only for the few float-valued replies.
    pairs: Vec<(u32, u64)>,
}

impl Served {
    /// A request handed to the server and not yet answered.
    fn pending(op: Op, start_ns: u64, sent_ns: u64, late_ns: u64) -> Served {
        Served {
            op,
            start_ns,
            sent_ns,
            reply_ns: 0,
            done_ns: 0,
            late_ns,
            ok: false,
            id: 0,
            supersteps: 0,
            messages: 0,
            values_hash: None,
            pairs: Vec::new(),
        }
    }

    fn latency_ms(&self) -> f64 {
        (self.reply_ns - self.start_ns) as f64 / 1e6
    }
}

/// An order-dependent 64-bit digest of `(id, value)` pairs; one multiply
/// per pair, so that checking a reply costs the client next to nothing.
fn hash_pairs(pairs: impl Iterator<Item = (u32, u64)>) -> u64 {
    pairs.fold(0xcbf2_9ce4_8422_2325, |h: u64, (id, v)| {
        (h ^ (u64::from(id) << 32) ^ v)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .rotate_left(29)
    })
}

struct Window {
    served: Vec<Served>,
    report: ServerReport,
    seconds: f64,
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

fn batching_config() -> ServerConfig {
    ServerConfig {
        workers: 1,
        batch_lanes: 8,
        batch_window: Duration::ZERO,
        queue_capacity: 256,
        ..ServerConfig::default()
    }
}

/// Await one in-process ticket and record what came back.
fn settle(mut r: Served, ticket: Result<Ticket, Rejected>, ns: impl Fn(Instant) -> u64) -> Served {
    let output = ticket.ok().and_then(|t| {
        r.id = t.id();
        t.wait().ok()
    });
    r.reply_ns = ns(Instant::now());
    if let Some(out) = output {
        r.ok = true;
        r.supersteps = out.supersteps as u64;
        r.messages = out.messages;
        if let ResultValues::U32(pairs) = &out.values {
            r.values_hash = Some(hash_pairs(pairs.iter().map(|&(id, v)| (id, u64::from(v)))));
        }
    }
    r.done_ns = ns(Instant::now());
    r
}

/// Nanoseconds since `t0`, 0 before it.
fn since(t0: Instant) -> impl Fn(Instant) -> u64 + Copy {
    move |t| u64::try_from(t.saturating_duration_since(t0).as_nanos()).unwrap_or(u64::MAX)
}

/// The open loop: one generator thread submits on schedule; one collector
/// thread awaits the tickets in admission order.
fn open_window(graph: &Arc<Graph>, schedule: &[Arrival], seconds: f64) -> Window {
    let server = ServerHandle::start(Arc::clone(graph), batching_config());
    let t0 = Instant::now() + Duration::from_millis(5);
    let ns = since(t0);
    let (tx, rx) = mpsc::channel();
    let served = std::thread::scope(|s| {
        let server = &server;
        s.spawn(move || {
            for a in schedule {
                sleep_until(t0 + Duration::from_nanos(a.due_ns));
                let sent = Instant::now();
                let ticket = server.submit(a.op.request());
                let late_ns = ns(sent).saturating_sub(a.due_ns);
                tx.send((
                    Served::pending(a.op, a.due_ns, ns(Instant::now()), late_ns),
                    ticket,
                ))
                .expect("collector alive");
            }
        });
        let collector = s.spawn(move || {
            rx.into_iter()
                .map(|(r, ticket)| settle(r, ticket, ns))
                .collect()
        });
        collector.join().expect("collector")
    });
    Window {
        served,
        report: server.shutdown(),
        seconds,
    }
}

/// `callers` callers that each wait for their reply, in process: one
/// client thread keeps that many requests outstanding and sends the next
/// as soon as the oldest is answered, so the server is never idle and the
/// batch former always has a queue to fold.
fn callers_window(
    graph: &Arc<Graph>,
    seed: u64,
    pool: &[u32],
    seconds: f64,
    callers: usize,
) -> Window {
    let server = ServerHandle::start(Arc::clone(graph), batching_config());
    let t0 = Instant::now();
    let ns = since(t0);
    let end = t0 + Duration::from_secs_f64(seconds);
    let mut ops = Traversals::new(seed, pool);
    let mut outstanding = VecDeque::with_capacity(callers);
    let mut served = Vec::new();
    loop {
        while outstanding.len() < callers && Instant::now() < end {
            let op = ops.next().expect("endless");
            let start = ns(Instant::now());
            let ticket = server.submit(op.request());
            outstanding.push_back((Served::pending(op, start, ns(Instant::now()), 0), ticket));
        }
        match outstanding.pop_front() {
            Some((r, ticket)) => served.push(settle(r, ticket, ns)),
            None => break,
        }
    }
    Window {
        served,
        report: server.shutdown(),
        seconds: t0.elapsed().as_secs_f64(),
    }
}

/// The fields of a reply line the client checks.
fn parse_reply(line: &[u8]) -> (bool, u64, u64, u64, Vec<(u32, u64)>) {
    let text = std::str::from_utf8(line).unwrap_or("");
    let field = |key: &str| -> u64 {
        text.find(key)
            .map(|at| {
                text[at + key.len()..]
                    .bytes()
                    .take_while(u8::is_ascii_digit)
                    .fold(0u64, |n, b| n * 10 + u64::from(b - b'0'))
            })
            .unwrap_or(0)
    };
    let ok = text.starts_with("{\"ok\":true");
    let mut pairs = Vec::new();
    if let Some(at) = text.find("\"values").filter(|_| ok) {
        let (mut number, mut in_number, mut first) = (0u64, false, None);
        for b in text[at..].bytes().skip_while(|&b| b != b'[') {
            if b.is_ascii_digit() {
                number = number * 10 + u64::from(b - b'0');
                in_number = true;
            } else if in_number {
                match first.take() {
                    None => first = Some(number),
                    Some(id) => pairs.push((id as u32, number)),
                }
                (number, in_number) = (0, false);
            }
        }
    }
    (
        ok,
        field("\"id\":"),
        field("\"supersteps\":"),
        field("\"messages\":"),
        pairs,
    )
}

/// Read one reply line. The client asks for immediate ACKs, as a
/// latency-sensitive client of a line protocol does: `net::respond` writes
/// a reply and its newline separately without `TCP_NODELAY`, so the
/// newline waits for the ACK of the line, and a default client delays that
/// ACK by 40 ms — every request would wait out a timer with the
/// processors idle. Quick-ACK mode wears off, so every read sets it again.
fn read_line(reader: &mut BufReader<TcpStream>, reply: &mut Vec<u8>) -> std::io::Result<()> {
    reply.clear();
    loop {
        reader.get_ref().set_quickack(true)?;
        let buf = reader.fill_buf()?;
        let n = match buf.iter().position(|&b| b == b'\n') {
            Some(at) => at + 1,
            None => buf.len(),
        };
        reply.extend_from_slice(&buf[..n]);
        reader.consume(n);
        if n == 0 || reply.last() == Some(&b'\n') {
            return Ok(());
        }
    }
}

/// Send `line`, wait for the reply line; returns the raw reply.
fn exchange(
    stream: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    line: &str,
    reply: &mut Vec<u8>,
) -> std::io::Result<()> {
    stream.write_all(line.as_bytes())?;
    read_line(reader, reply)
}

fn connect(addr: SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).expect("connect to the benchmark's own listener");
    stream.set_nodelay(true).expect("nodelay");
    let reader = BufReader::with_capacity(1 << 20, stream.try_clone().expect("clone stream"));
    (stream, reader)
}

/// Top the served-line count up to the budget with pipelined pings, so
/// `net::serve` returns.
fn drain_budget(addr: SocketAddr, mut remaining: u64) {
    let (mut stream, mut reader) = connect(addr);
    let mut reply = Vec::new();
    while remaining > 0 {
        let burst = remaining.min(1024);
        let lines: String = (0..burst).map(|_| format!("{PING}\n")).collect();
        stream.write_all(lines.as_bytes()).expect("ping burst");
        for _ in 0..burst {
            read_line(&mut reader, &mut reply).expect("pong");
        }
        remaining -= burst;
    }
}

/// Two connections, each sending its next line when the previous reply
/// arrives, for `seconds`; then one components and one pagerank request
/// with values, for the oracle.
///
/// `net::serve` has no stop handle: it returns once it has answered
/// `line_budget` lines. So the window ends by topping the count up with
/// pipelined pings, and each client stops short of its share so that the
/// budget cannot run out under it.
fn closed_window(
    graph: &Arc<Graph>,
    seed: u64,
    pool: &[u32],
    seconds: f64,
    line_budget: u64,
) -> Window {
    let server = ServerHandle::start(Arc::clone(graph), ServerConfig::default());
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let per_client = line_budget / CONNECTIONS as u64 - 500;
    let (served, elapsed) = std::thread::scope(|s| {
        let (server, listener) = (&server, &listener);
        let front = s.spawn(move || net::serve(server, listener, Some(line_budget)));
        let t0 = Instant::now();
        let end = t0 + Duration::from_secs_f64(seconds);
        let ns = since(t0);
        let call = move |stream: &mut TcpStream,
                         reader: &mut BufReader<TcpStream>,
                         reply: &mut Vec<u8>,
                         op: Op| {
            let start = Instant::now();
            stream
                .write_all(op.line().as_bytes())
                .expect("send request");
            let sent = Instant::now();
            read_line(reader, reply).expect("read reply");
            let arrived = Instant::now();
            let (ok, id, supersteps, messages, pairs) = parse_reply(reply);
            let float = matches!(op, Op::PageRank { .. });
            Served {
                op,
                start_ns: ns(start),
                sent_ns: ns(sent),
                reply_ns: ns(arrived),
                late_ns: 0,
                ok,
                id,
                supersteps,
                messages,
                values_hash: (!pairs.is_empty() && !float)
                    .then(|| hash_pairs(pairs.iter().copied())),
                pairs: if float { pairs } else { Vec::new() },
                done_ns: ns(Instant::now()),
            }
        };
        let clients: Vec<_> = (0..CONNECTIONS)
            .map(|conn| {
                s.spawn(move || {
                    let (mut stream, mut reader) = connect(addr);
                    let (mut reply, mut served) = (Vec::new(), Vec::new());
                    let mut index = 0;
                    while Instant::now() < end && index < per_client {
                        served.push(call(
                            &mut stream,
                            &mut reader,
                            &mut reply,
                            mixed_op(seed, conn, index, pool),
                        ));
                        index += 1;
                    }
                    served
                })
            })
            .collect();
        let mut served: Vec<Served> = clients
            .into_iter()
            .flat_map(|c| c.join().expect("client"))
            .collect();
        let elapsed = t0.elapsed().as_secs_f64();
        let (mut stream, mut reader) = connect(addr);
        let mut reply = Vec::new();
        for op in [
            Op::Components { values: true },
            Op::PageRank { values: true },
        ] {
            served.push(call(&mut stream, &mut reader, &mut reply, op));
        }
        drop((stream, reader));
        drain_budget(addr, line_budget - served.len() as u64);
        front.join().expect("front-end thread").expect("net::serve");
        (served, elapsed)
    });
    Window {
        served,
        report: server.shutdown(),
        seconds: elapsed,
    }
}

/// What the server recorded about one request.
#[derive(Debug, Clone, Copy)]
struct ServerSide {
    queue_ns: u64,
    run_ns: u64,
    /// Width of the batch the request ran in.
    lanes: u64,
    ok: bool,
}

/// Per-request server-side facts, by request id.
fn events_by_id(report: &ServerReport) -> HashMap<u64, ServerSide> {
    report
        .events
        .iter()
        .filter_map(|e| match *e {
            TraceEvent::ServerRequest {
                id,
                queue_ns,
                run_ns,
                lanes,
                outcome,
                ..
            } => Some((
                id,
                ServerSide {
                    queue_ns,
                    run_ns,
                    lanes,
                    ok: outcome == ServerOutcome::Ok,
                },
            )),
            _ => None,
        })
        .collect()
}

/// Hold every reply against the oracle (sequential references on the
/// resident graph) and a seeded 5 % sample of supersteps/messages against
/// `run_isolated`. Returns which requests were correct.
fn verify(report: &mut Report, graph: &Graph, seed: u64, window: &Window) -> Vec<bool> {
    let map = graph.address_map();
    let traversal = |source: u32| -> u64 {
        let levels = bfs_levels(graph, source);
        hash_pairs(
            map.live_slots()
                .map(|s| (map.id_of(s), u64::from(levels[s as usize]))),
        )
    };
    let isolated = |op: Op| {
        run_isolated(graph, &op.request())
            .map(|o| (o.supersteps as u64, o.messages))
            .ok()
    };
    let components = isolated(Op::Components { values: false });
    let pagerank = isolated(Op::PageRank { values: false });
    let check = |i: usize, r: &Served| -> Result<(), String> {
        if !r.ok {
            return Err("was refused or failed".to_string());
        }
        let counts = Some((r.supersteps, r.messages));
        let sampled = StdRng::seed_from_u64(seed ^ i as u64).random_range(0u32..20) == 0;
        match r.op {
            Op::Sssp { source, .. } | Op::Bfs { source } => {
                if r.values_hash.is_some_and(|h| h != traversal(source)) {
                    return Err(format!("distances from {source} differ from bfs_levels"));
                }
                if sampled && counts != isolated(r.op) {
                    return Err(format!(
                        "supersteps/messages from {source} differ from run_isolated"
                    ));
                }
            }
            Op::Components { .. } => {
                if counts != components {
                    return Err(
                        "components supersteps/messages differ from run_isolated".to_string()
                    );
                }
                if let Some(h) = r.values_hash {
                    let labels = minlabel_fixpoint(graph);
                    if h != hash_pairs(
                        map.live_slots()
                            .map(|s| (map.id_of(s), u64::from(labels[s as usize]))),
                    ) {
                        return Err("component labels differ from minlabel_fixpoint".to_string());
                    }
                }
            }
            Op::PageRank { .. } => {
                if counts != pagerank {
                    return Err("pagerank supersteps/messages differ from run_isolated".to_string());
                }
                if !r.pairs.is_empty() {
                    let want = pagerank_power(graph, PAGERANK_ROUNDS, DAMPING);
                    let worst = r
                        .pairs
                        .iter()
                        .map(|&(id, bits)| {
                            let (got, want) =
                                (f64::from_bits(bits), want[graph.index_of(id) as usize]);
                            (got - want).abs() / got.abs().max(want.abs()).max(1e-300)
                        })
                        .fold(0.0, f64::max);
                    if worst > 1e-9 || r.pairs.len() != graph.num_vertices() {
                        return Err(format!(
                            "served ranks differ from pagerank_power by {worst:e}"
                        ));
                    }
                }
            }
        }
        Ok(())
    };
    // Two checker threads: the oracle is sequential and this box has two cores.
    let half = window.served.len().div_ceil(2).max(1);
    let verdicts: Vec<Result<(), String>> = std::thread::scope(|s| {
        let parts: Vec<_> = window
            .served
            .chunks(half)
            .enumerate()
            .map(|(c, chunk)| {
                let check = &check;
                s.spawn(move || {
                    chunk
                        .iter()
                        .enumerate()
                        .map(|(i, r)| check(c * half + i, r))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        parts
            .into_iter()
            .flat_map(|p| p.join().expect("checker"))
            .collect()
    });
    for (i, v) in verdicts.iter().enumerate() {
        report.attempted += 1;
        if let Err(why) = v {
            report.fail(format!("request {i} ({:?}) {why}", window.served[i].op));
        }
    }
    if let Err(why) = window.report.reconcile() {
        report.fail(format!("ServerReport::reconcile: {why}"));
    }
    let events = events_by_id(&window.report).len();
    if events != window.served.len() {
        report.fail(format!(
            "{events} server request events for {} requests",
            window.served.len()
        ));
    }
    verdicts.iter().map(Result::is_ok).collect()
}

/// Requests inside the timed window (the two trailing oracle requests of
/// the TCP loop are checked but not timed).
fn timed(window: &Window, tcp: bool) -> &[Served] {
    &window.served[..window.served.len() - if tcp { 2 } else { 0 }]
}

/// What each stretch of a window saw: median latency, median server run
/// time, and good requests per second.
struct Stretches {
    latency_ms: Vec<f64>,
    run_ms: Vec<f64>,
    goodput_rps: Vec<f64>,
}

/// The first `seconds` of a window cut into equal stretches, the first
/// left out as warm-up. A request belongs to the stretch its reply arrived
/// in; it is good when it was correct and inside the latency limit.
fn stretches(
    served: &[Served],
    events: &HashMap<u64, ServerSide>,
    correct: &[bool],
    seconds: f64,
    limit_ms: f64,
) -> Stretches {
    const STRETCHES: usize = 9;
    let span_ns = seconds * 1e9 / STRETCHES as f64;
    let (mut latency, mut run) = (vec![Vec::new(); STRETCHES], vec![Vec::new(); STRETCHES]);
    let mut good = [0u32; STRETCHES];
    for (r, &correct) in served.iter().zip(correct) {
        let at = (r.reply_ns as f64 / span_ns) as usize;
        if at >= STRETCHES {
            continue;
        }
        latency[at].push(r.latency_ms());
        if let Some(e) = events.get(&r.id).filter(|e| e.ok) {
            run[at].push(e.run_ns as f64 / 1e6);
        }
        good[at] += u32::from(correct && r.latency_ms() <= limit_ms);
    }
    Stretches {
        latency_ms: group_medians(&latency[1..]),
        run_ms: group_medians(&run[1..]),
        goodput_rps: good[1..]
            .iter()
            .map(|&g| f64::from(g) * 1e9 / span_ns)
            .collect(),
    }
}

fn goodput(window: &Window, correct: &[bool], tcp: bool, limit_ms: f64) -> f64 {
    let good = timed(window, tcp)
        .iter()
        .zip(correct)
        .filter(|(r, &c)| c && r.latency_ms() <= limit_ms)
        .count();
    good as f64 / window.seconds
}

/// Set-up as a service user pays it: file → resident graph → started
/// server (→ bound listener) → first ping answered.
fn time_set_up(args: &WorkerArgs, tcp: bool) -> Vec<f64> {
    // A set-up takes milliseconds, so twenty are cheap.
    const TIMES: usize = 20;
    let mut out = Vec::new();
    while out.len() < TIMES {
        let start = Instant::now();
        let graph = Arc::new(load_resident(args));
        let config = if tcp {
            ServerConfig::default()
        } else {
            batching_config()
        };
        let server = ServerHandle::start(graph, config);
        if tcp {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
            let addr = listener.local_addr().expect("local addr");
            std::thread::scope(|s| {
                let (server, listener) = (&server, &listener);
                let front = s.spawn(move || net::serve(server, listener, Some(1)));
                let (mut stream, mut reader) = connect(addr);
                exchange(
                    &mut stream,
                    &mut reader,
                    &format!("{PING}\n"),
                    &mut Vec::new(),
                )
                .expect("first ping");
                out.push(start.elapsed().as_secs_f64());
                front.join().expect("front-end thread").expect("net::serve");
            });
        } else {
            assert!(server.handle_line(PING).contains("pong"));
            out.push(start.elapsed().as_secs_f64());
        }
        server.shutdown();
    }
    out
}

pub fn run(args: &WorkerArgs) -> Report {
    let tcp = args.workload == "serve_mixed_closed";
    let scale = &args.scale;
    let limit_ms = if tcp {
        scale.closed_limit_ms
    } else {
        scale.batched_limit_ms
    };
    let mut report = Report::new(&args.workload, args.trace);
    if args.trace {
        probes::calibrate(&mut report);
    }
    let graph = Arc::new(load_resident(args));
    if (graph.num_vertices(), graph.num_edges()) != (args.vertices, args.edges) {
        report.fail(format!(
            "loader saw {}x{}, generator wrote {}x{}",
            graph.num_vertices(),
            graph.num_edges(),
            args.vertices,
            args.edges
        ));
    }
    let pool = source_pool(&graph);
    let window = |seed: u64, seconds: f64| {
        if tcp {
            closed_window(&graph, seed, &pool, seconds, scale.line_budget)
        } else {
            callers_window(&graph, seed, &pool, seconds, scale.callers)
        }
    };

    if !args.trace {
        // The window comes first and the peak is read right after it: a
        // set-up loads a second copy of the graph, which a resident server
        // never holds.
        let w = window(args.seed, args.seconds);
        let hwm = current_hwm_bytes();
        let setups = time_set_up(args, tcp);
        let correct = verify(&mut report, &graph, args.seed, &w);
        let events = events_by_id(&w.report);
        let st = stretches(&w.served, &events, &correct, args.seconds, limit_ms);
        report.set("setup_s", quietest_of(&setups));
        report.note(in_run_order("stretch median latency ms", &st.latency_ms));
        report.note(in_run_order("stretch median server run ms", &st.run_ms));
        report.note(in_run_order("stretch goodput 1/s", &st.goodput_rps));
        report.set("op_ms", quietest_of(&st.latency_ms));
        report.set("goodput_rps", busiest_of(&st.goodput_rps));
        report.set(
            "peak_rss_mb",
            Sample::single(hwm.map_or(f64::NAN, |b| b as f64 / MB)),
        );
        return report;
    }

    // Traced: a short plain window for reference, then the window whose
    // requests become spans, then the probes of the server's layers.
    let plain = window(args.seed ^ 1, args.seconds * 0.2);
    let w = window(args.seed, args.seconds * if tcp { 0.6 } else { 0.4 });
    let correct = verify(&mut report, &graph, args.seed, &w);
    let requests = timed(&w, tcp);
    let lat: Vec<f64> = requests.iter().map(Served::latency_ms).collect();
    let plain_lat: Vec<f64> = timed(&plain, tcp).iter().map(Served::latency_ms).collect();
    report.set(
        "bench.trace_overhead_ratio",
        Sample::single(median(&lat) / median(&plain_lat)),
    );
    let (percentile, value) = tail(&lat);
    report.set("server.lat_p99_ms", Sample::single(value));
    if percentile != 0.99 {
        report.note(format!(
            "{} requests in the window: the *_p99_ms metrics are p{:.1}",
            lat.len(),
            percentile * 100.0
        ));
    }
    report.note(format!(
        "goodput in the traced window: {:.1} 1/s within {limit_ms} ms",
        goodput(&w, &correct, tcp, limit_ms)
    ));

    let events = events_by_id(&w.report);
    let ms = |pick: fn(&ServerSide) -> u64| -> Vec<f64> {
        events
            .values()
            .filter(|e| e.ok)
            .map(|e| pick(e) as f64 / 1e6)
            .collect()
    };
    let (queue, run) = (ms(|e| e.queue_ns), ms(|e| e.run_ns));
    report.set("server.queue_p50_ms", Sample::of(&queue));
    report.set("server.queue_p99_ms", Sample::single(tail(&queue).1));
    report.set("server.run_p50_ms", Sample::of(&run));
    report.set("server.run_p99_ms", Sample::single(tail(&run).1));
    let widths: Vec<f64> = events
        .values()
        .filter(|e| e.lanes > 0)
        .map(|e| e.lanes as f64)
        .collect();
    report.set(
        "server.batch_width_mean",
        Sample::single(widths.iter().sum::<f64>() / widths.len().max(1) as f64),
    );
    report.set(
        "server.batched_share",
        Sample::single(
            widths.iter().filter(|&&w| w >= 2.0).count() as f64 / widths.len().max(1) as f64,
        ),
    );
    let stats = &w.report.stats;
    report.set(
        "server.max_queue_depth",
        Sample::single(stats.max_queue_depth as f64),
    );
    let submissions = stats.admitted + stats.shed_queue_full + stats.shed_shutdown;
    report.set(
        "server.shed_ratio",
        Sample::single(
            (stats.shed_queue_full + stats.shed_shutdown) as f64 / submissions.max(1) as f64,
        ),
    );
    let overhead: Vec<f64> = requests
        .iter()
        .filter_map(|r| {
            events
                .get(&r.id)
                .map(|e| r.latency_ms() - (e.queue_ns + e.run_ns) as f64 / 1e6)
        })
        .collect();
    report.set("server.client_overhead_p50_ms", Sample::of(&overhead));

    // Client-side spans, with the server's queue and run rebuilt from the
    // matching request event.
    let mut rec = Recorder::new();
    for (op, r) in w.served.iter().enumerate() {
        let op = op as u64;
        let request = rec.add("request", r.start_ns, r.done_ns, None, op);
        rec.add("send", r.start_ns, r.sent_ns, Some(request), op);
        let wait = rec.add("wait", r.sent_ns, r.reply_ns, Some(request), op);
        rec.add("recv", r.reply_ns, r.done_ns, Some(request), op);
        if let Some(e) = events.get(&r.id) {
            let picked_up = r.sent_ns + e.queue_ns;
            rec.add("server.queue", r.sent_ns, picked_up, Some(wait), op);
            rec.add(
                "server.run",
                picked_up,
                picked_up + e.run_ns,
                Some(wait),
                op,
            );
        }
    }
    args.write_trace(&mut report, &rec);

    probes::pool(&mut report, scale);
    let started = (0..scale.probe_samples.max(3))
        .map(|_| {
            let start = Instant::now();
            let server = ServerHandle::start(Arc::clone(&graph), ServerConfig::default());
            assert!(server.handle_line(PING).contains("pong"));
            let ms = start.elapsed().as_secs_f64() * 1e3;
            server.shutdown();
            ms
        })
        .collect::<Vec<_>>();
    report.set("server.start_ms", Sample::of(&started));
    let binary_load = (0..scale.probe_samples).map(|_| {
        let start = Instant::now();
        drop(load_resident(args));
        start.elapsed().as_secs_f64() * 1e9 / args.edges as f64
    });
    report.set(
        "graph.load_binary_ns_per_edge",
        Sample::of(&binary_load.collect::<Vec<_>>()),
    );
    if tcp {
        probes::protocol_layers(&mut report, &graph, scale.probe_samples);
        report.set(
            "server.net_ping_rtt_us",
            net_ping_rtt_us(&graph, scale.probe_samples, 200, true),
        );
        // A client that leaves ACKs to the kernel waits out a delayed ACK
        // per reply (see `read_line`), so three samples of ten pings.
        report.set(
            "server.net_ping_rtt_default_us",
            net_ping_rtt_us(&graph, 3, 10, false),
        );
    }
    // K-lane folding on the resident graph: what `batch_lanes` would buy.
    probes::lanes(&mut report, &graph, scale.probe_samples);
    if !tcp {
        let seconds = args.seconds * 0.3;
        let schedule = open_schedule(args.seed, scale.open_rate_rps, seconds, &pool);
        open_loop(
            &mut report,
            &graph,
            args.seed,
            open_window(&graph, &schedule, seconds),
        );
    }
    report
}

/// The same server under independent users: an open loop at a fixed rate
/// well below capacity, each request timed from the instant it was due.
/// Per-layer only: with the processors mostly idle these latencies follow
/// the host's wake-up times and do not repeat (see the README).
fn open_loop(report: &mut Report, graph: &Graph, seed: u64, w: Window) {
    verify(report, graph, seed, &w);
    let lat: Vec<f64> = w.served.iter().map(Served::latency_ms).collect();
    report.set("server.open.lat_p50_ms", Sample::of(&lat));
    let (percentile, value) = tail(&lat);
    report.set("server.open.lat_p99_ms", Sample::single(value));
    report.note(format!(
        "open loop: {} requests, server.open.lat_p99_ms is p{:.1}",
        lat.len(),
        percentile * 100.0
    ));
    let widths: Vec<f64> = events_by_id(&w.report)
        .values()
        .map(|e| e.lanes.max(1) as f64)
        .collect();
    report.set(
        "server.open.batch_width_mean",
        Sample::single(widths.iter().sum::<f64>() / widths.len().max(1) as f64),
    );
    let late: Vec<f64> = w.served.iter().map(|r| r.late_ns as f64 / 1e6).collect();
    report.set("bench.gen_late_p99_ms", Sample::single(tail(&late).1));
}

/// One ping at a time over loopback TCP, through `net::serve`, from a
/// client that asks for immediate ACKs or from one that does not.
fn net_ping_rtt_us(graph: &Arc<Graph>, samples: usize, pings: u64, quick_ack: bool) -> Sample {
    let server = ServerHandle::start(Arc::clone(graph), ServerConfig::default());
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let rtts = std::thread::scope(|s| {
        let (server, listener) = (&server, &listener);
        let front = s.spawn(move || net::serve(server, listener, Some(pings * samples as u64)));
        let (mut stream, mut reader) = connect(addr);
        let mut reply = Vec::new();
        let line = format!("{PING}\n");
        let rtts: Vec<f64> = (0..samples)
            .map(|_| {
                let start = Instant::now();
                for _ in 0..pings {
                    if quick_ack {
                        exchange(&mut stream, &mut reader, &line, &mut reply).expect("ping");
                    } else {
                        stream.write_all(line.as_bytes()).expect("ping");
                        reply.clear();
                        reader.read_until(b'\n', &mut reply).expect("pong");
                    }
                }
                start.elapsed().as_secs_f64() * 1e6 / pings as f64
            })
            .collect();
        front.join().expect("front-end thread").expect("net::serve");
        rtts
    });
    server.shutdown();
    Sample::of(&rtts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_schedule_is_a_pure_function_of_the_seed() {
        let pool: Vec<u32> = (1..=500).collect();
        let a = open_schedule(7, 150.0, 2.0, &pool);
        assert_eq!(a, open_schedule(7, 150.0, 2.0, &pool));
        assert_ne!(a, open_schedule(8, 150.0, 2.0, &pool));
        // rate × seconds arrivals, in due order, inside the window.
        assert_eq!(a.len(), 300);
        assert!(a.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
        assert!(a.iter().all(|x| x.due_ns < 2_000_000_000));
        // Distinct sources while the pool lasts.
        let mut sources: Vec<u32> = a
            .iter()
            .map(|x| match x.op {
                Op::Sssp { source, .. } | Op::Bfs { source } => source,
                other => panic!("open loop sends traversals only, got {other:?}"),
            })
            .collect();
        sources.sort_unstable();
        sources.dedup();
        assert_eq!(sources.len(), 300);
    }

    #[test]
    fn closed_mix_is_pure_and_has_the_stated_shares() {
        let pool: Vec<u32> = (1..=100).collect();
        let ops: Vec<Op> = (0..20_000).map(|i| mixed_op(3, 1, i, &pool)).collect();
        assert_eq!(ops[17], mixed_op(3, 1, 17, &pool));
        assert_ne!(
            ops,
            (0..20_000)
                .map(|i| mixed_op(3, 0, i, &pool))
                .collect::<Vec<_>>()
        );
        let share =
            |f: &dyn Fn(&Op) -> bool| ops.iter().filter(|o| f(o)).count() as f64 / ops.len() as f64;
        assert!((share(&|o| matches!(o, Op::Sssp { .. })) - 0.60).abs() < 0.02);
        assert!((share(&|o| matches!(o, Op::Sssp { values: true, .. })) - 0.20).abs() < 0.02);
        assert!((share(&|o| matches!(o, Op::Bfs { .. })) - 0.20).abs() < 0.02);
        assert!((share(&|o| matches!(o, Op::Components { .. })) - 0.15).abs() < 0.02);
        assert!((share(&|o| matches!(o, Op::PageRank { .. })) - 0.05).abs() < 0.01);
    }

    #[test]
    fn stretches_drop_the_warm_up_and_count_good_replies_where_they_landed() {
        // Nine stretches of one second; request `i` is answered at i + 0.5 s
        // after `latency` ms, by a server run of half that.
        let reply = |id: u64, at_s: f64, latency_ms: f64| Served {
            reply_ns: (at_s * 1e9) as u64,
            id,
            ok: true,
            ..Served::pending(
                Op::Bfs { source: 1 },
                (at_s * 1e9 - latency_ms * 1e6) as u64,
                0,
                0,
            )
        };
        let served: Vec<Served> = (0..11)
            .map(|i| reply(i, i as f64 + 0.5, 10.0 + i as f64))
            .collect();
        let events: HashMap<u64, ServerSide> = served
            .iter()
            .map(|r| {
                let run_ns = (r.latency_ms() * 0.5e6) as u64;
                (
                    r.id,
                    ServerSide {
                        queue_ns: 0,
                        run_ns,
                        lanes: 1,
                        ok: true,
                    },
                )
            })
            .collect();
        let mut correct = vec![true; served.len()];
        correct[2] = false;
        let st = stretches(&served, &events, &correct, 9.0, 16.5);
        // Request 0 is warm-up, 9 and 10 came after the window.
        let close = |got: &[f64], want: &[f64]| {
            got.len() == want.len() && got.iter().zip(want).all(|(g, w)| (g - w).abs() < 1e-3)
        };
        assert!(close(
            &st.latency_ms,
            &[11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0]
        ));
        assert!(close(&st.run_ms, &[5.5, 6.0, 6.5, 7.0, 7.5, 8.0, 8.5, 9.0]));
        // 2 was wrong; 7 and 8 were over the 16.5 ms limit.
        assert_eq!(st.goodput_rps, [1.0, 0.0, 1.0, 1.0, 1.0, 1.0, 0.0, 0.0]);
    }

    #[test]
    fn pair_digest_depends_on_every_pair_and_their_order() {
        let h = |p: &[(u32, u64)]| hash_pairs(p.iter().copied());
        assert_eq!(h(&[(1, 2), (3, 4)]), h(&[(1, 2), (3, 4)]));
        assert_ne!(h(&[(1, 2), (3, 4)]), h(&[(3, 4), (1, 2)]));
        assert_ne!(h(&[(1, 2), (3, 4)]), h(&[(1, 2), (3, 5)]));
        assert_ne!(h(&[(1, 2)]), h(&[(2, 1)]));
    }

    #[test]
    fn reply_lines_parse() {
        let line = b"{\"ok\":true,\"id\":12,\"supersteps\":7,\"messages\":345,\"values\":[[1,0],[2,4294967295],[3,2]]}\n";
        let (ok, id, supersteps, messages, pairs) = parse_reply(line);
        assert_eq!((ok, id, supersteps, messages), (true, 12, 7, 345));
        assert_eq!(pairs, vec![(1, 0), (2, 4_294_967_295), (3, 2)]);
        let (ok, ..) = parse_reply(b"{\"ok\":false,\"error\":\"queue_full\",\"detail\":\"x\"}\n");
        assert!(!ok);
    }
}
