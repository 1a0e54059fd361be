//! # graphd-sim — an out-of-core vertex-centric engine
//!
//! Section 2 of the iPregel paper maps the architecture space: in-memory
//! distributed (Pregel+), out-of-core (GraphChi, FlashGraph, GraphD),
//! and in-memory shared memory (iPregel). The workspace already has the
//! first and last; this crate completes the triangle with a GraphD-style
//! out-of-core engine:
//!
//! * **vertex states stay in RAM** — values, single-message combined
//!   mailboxes (GraphD is Pregel-family and supports combiners), halted
//!   flags, and the per-vertex adjacency offsets;
//! * **edges live on disk** — the adjacency targets array is written to
//!   a file at build time and *streamed back every superstep* for the
//!   active vertices, with consecutive active ranges coalesced into
//!   sequential reads;
//! * **the disk is the bottleneck** — the engine executes for real (so
//!   results are bit-comparable with `ipregel`'s engines) while a
//!   [`DiskModel`] prices the observed read pattern (bytes / bandwidth +
//!   seeks × latency), because on a test machine the page cache would
//!   otherwise hide the cost that defines this architecture.
//!
//! The `bench` crate uses this to reproduce the paper's architectural
//! argument: the out-of-core engine can process graphs whose edges
//! exceed RAM (its resident footprint excludes edge storage entirely),
//! but pays a per-superstep IO tax that the in-memory shared-memory
//! design never pays.

use std::fs::File;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

use ipregel::engine::{RetryPolicy, RunConfig, RunOutput};
use ipregel::mailbox::{Mailbox, SpinMailbox};
use ipregel::metrics::{FootprintReport, RunStats, SuperstepStats};
use ipregel::program::{Context, MasterDecision, VertexProgram};
use ipregel::sync_cell::SharedSlice;
use ipregel::trace::{self, TraceEvent};
use ipregel_graph::csr::Weight;
use ipregel_graph::{AddressMap, Graph, VertexId, VertexIndex};
use ipregel_par::prelude::*;

/// Disk performance constants used to price the observed IO pattern.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiskModel {
    /// Sequential read throughput, bytes/second (SATA-SSD-class default,
    /// 500 MB/s — the hardware tier of the paper's era).
    pub read_bandwidth: f64,
    /// Cost per non-contiguous read (seek / request overhead), seconds.
    pub seek_latency: f64,
    /// Retry policy for edge-stream reads that fail transiently
    /// (`Interrupted` / `WouldBlock` / `TimedOut`). Each retry re-seeks,
    /// so it is priced as an extra seek in the model.
    pub retry: RetryPolicy,
}

ipregel::impl_to_json!(DiskModel { read_bandwidth, seek_latency, retry });

impl Default for DiskModel {
    fn default() -> Self {
        DiskModel {
            read_bandwidth: 500e6,
            seek_latency: 100e-6,
            retry: RetryPolicy::default(),
        }
    }
}

/// Per-superstep IO observation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IoTrace {
    /// Superstep number.
    pub superstep: usize,
    /// Bytes streamed from the edge file.
    pub bytes_read: u64,
    /// Non-contiguous read requests issued (retries re-seek, so each
    /// retry counts here too).
    pub seeks: u64,
    /// Reads that failed transiently and were retried.
    pub retries: u64,
    /// Modelled disk seconds for this superstep.
    pub disk_seconds: f64,
}

ipregel::impl_to_json!(IoTrace { superstep, bytes_read, seeks, retries, disk_seconds });

/// Result of an out-of-core run: the usual [`RunOutput`] plus IO
/// accounting and the modelled total (compute measured + disk modelled).
#[derive(Debug, Clone)]
pub struct OocOutput<V> {
    /// Values, stats and the RAM-resident footprint.
    pub output: RunOutput<V>,
    /// IO trace per superstep.
    pub io: Vec<IoTrace>,
    /// Total modelled disk seconds.
    pub disk_seconds: f64,
    /// Measured compute seconds + modelled disk seconds: the number to
    /// compare against the in-memory engines' measured runtime.
    pub modelled_total_seconds: f64,
}

impl<V> OocOutput<V> {
    /// Total bytes streamed across the run.
    pub fn total_bytes_read(&self) -> u64 {
        self.io.iter().map(|t| t.bytes_read).sum()
    }
}

/// A graph whose adjacency targets live in a disk file.
///
/// RAM keeps only the 8-byte offset per slot (plus the graph's
/// out-degree array); the 4-byte-per-edge targets are read back on
/// demand. Unweighted (the paper's applications treat their datasets as
/// unweighted; weighted out-of-core layouts would double the stream).
pub struct OocGraph {
    map: AddressMap,
    /// Byte offset of each slot's adjacency in the edge file (+1 entry).
    offsets: Vec<u64>,
    file: File,
    path: PathBuf,
    num_edges: u64,
    delete_on_drop: bool,
}

impl OocGraph {
    /// Spill `graph`'s out-adjacency to `path` and return the handle.
    ///
    /// The spill file is deleted when the handle drops; use
    /// [`OocGraph::persist`] + [`OocGraph::open`] to reuse it across
    /// processes.
    pub fn from_graph(graph: &Graph, path: impl AsRef<Path>) -> io::Result<OocGraph> {
        assert!(graph.has_out_edges(), "out-of-core spill needs out-adjacency");
        let path = path.as_ref().to_path_buf();
        let slots = graph.num_slots();
        let mut offsets = Vec::with_capacity(slots + 1);
        let mut file = File::create(&path)?;
        let mut cursor = 0u64;
        let mut buf: Vec<u8> = Vec::with_capacity(1 << 20);
        for v in 0..slots as u32 {
            offsets.push(cursor);
            for &t in graph.out_neighbors(v) {
                buf.extend_from_slice(&t.to_le_bytes());
                cursor += 4;
            }
            if buf.len() >= (1 << 20) - 4096 {
                file.write_all(&buf)?;
                buf.clear();
            }
        }
        file.write_all(&buf)?;
        offsets.push(cursor);
        file.sync_all()?;
        let file = File::open(&path)?;
        Ok(OocGraph {
            map: *graph.address_map(),
            offsets,
            file,
            path,
            num_edges: graph.num_edges(),
            delete_on_drop: true,
        })
    }

    /// Write a sidecar metadata file (`<path>.meta`) so the spill can be
    /// reopened later with [`OocGraph::open`], and keep the spill on
    /// disk when this handle drops.
    pub fn persist(&mut self) -> io::Result<()> {
        let mut meta: Vec<u8> = Vec::with_capacity(24 + self.offsets.len() * 8);
        meta.extend_from_slice(b"IPOC");
        meta.extend_from_slice(&1u32.to_le_bytes()); // version
        meta.extend_from_slice(&self.map.base().to_le_bytes());
        meta.extend_from_slice(&self.map.num_vertices().to_le_bytes());
        // The slot count disambiguates the addressing mode on reopen:
        // desolate layouts have slots = base + n, the others slots = n.
        meta.extend_from_slice(&(self.offsets.len() as u64 - 1).to_le_bytes());
        meta.extend_from_slice(&self.num_edges.to_le_bytes());
        for off in &self.offsets {
            meta.extend_from_slice(&off.to_le_bytes());
        }
        std::fs::write(self.path.with_extension("meta"), meta)?;
        self.delete_on_drop = false;
        Ok(())
    }

    /// Reopen a spill written by [`OocGraph::persist`]. The reopened
    /// handle never deletes the files on drop.
    pub fn open(path: impl AsRef<Path>) -> io::Result<OocGraph> {
        let path = path.as_ref().to_path_buf();
        let meta = std::fs::read(path.with_extension("meta"))?;
        let bad = |m: &str| io::Error::new(io::ErrorKind::InvalidData, m.to_string());
        if meta.len() < 32 || &meta[0..4] != b"IPOC" {
            return Err(bad("bad spill metadata magic"));
        }
        let rd_u32 = |at: usize| u32::from_le_bytes(meta[at..at + 4].try_into().unwrap());
        let rd_u64 = |at: usize| u64::from_le_bytes(meta[at..at + 8].try_into().unwrap());
        if rd_u32(4) != 1 {
            return Err(bad("unsupported spill metadata version"));
        }
        let base = rd_u32(8);
        let n = rd_u32(12);
        let slots = rd_u64(16) as usize;
        let num_edges = rd_u64(24);
        let expected = 32 + (slots + 1) * 8;
        if meta.len() != expected {
            return Err(bad("truncated spill metadata"));
        }
        let offsets: Vec<u64> = (0..=slots).map(|i| rd_u64(32 + i * 8)).collect();
        let map = if slots == n as usize {
            if base == 0 {
                AddressMap::direct(n)
            } else {
                AddressMap::offset(base, n)
            }
        } else {
            AddressMap::desolate(base, n)
        };
        let file = File::open(&path)?;
        Ok(OocGraph { map, offsets, file, path, num_edges, delete_on_drop: false })
    }

    /// The identifier mapping.
    pub fn address_map(&self) -> &AddressMap {
        &self.map
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.map.num_vertices() as usize
    }

    /// Number of edges (on disk).
    pub fn num_edges(&self) -> u64 {
        self.num_edges
    }

    /// Out-degree of a slot, derivable from offsets without touching disk.
    #[inline]
    pub fn out_degree(&self, v: VertexIndex) -> u32 {
        ((self.offsets[v as usize + 1] - self.offsets[v as usize]) / 4) as u32
    }

    /// Path of the spill file.
    pub fn spill_path(&self) -> &Path {
        &self.path
    }

    /// RAM-resident bytes (offsets only — the out-of-core point).
    pub fn resident_bytes(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<u64>()
    }

    /// Bytes on disk.
    pub fn spilled_bytes(&self) -> u64 {
        self.offsets.last().copied().unwrap_or(0)
    }
}

impl Drop for OocGraph {
    fn drop(&mut self) {
        if self.delete_on_drop {
            let _ = std::fs::remove_file(&self.path);
            let _ = std::fs::remove_file(self.path.with_extension("meta"));
        }
    }
}

/// A coalesced sequential read: `(file_offset, byte_len)`.
type ReadRun = (u64, u64);
/// An active vertex's slice of a run: `(run_index, offset_in_run, degree)`.
type VertexSlice = (u32, u32, u32);

/// Coalesce the active vertices' adjacency ranges into sequential read
/// runs (gap below `gap_threshold` bytes → one run), returning
/// [`ReadRun`]s plus one [`VertexSlice`] per active vertex.
fn plan_reads(
    ooc: &OocGraph,
    active: &[VertexIndex],
    gap_threshold: u64,
) -> (Vec<ReadRun>, Vec<VertexSlice>) {
    let mut runs: Vec<(u64, u64)> = Vec::new();
    let mut slices = Vec::with_capacity(active.len());
    for &v in active {
        let lo = ooc.offsets[v as usize];
        let hi = ooc.offsets[v as usize + 1];
        let deg = ((hi - lo) / 4) as u32;
        let extend = matches!(
            runs.last(),
            Some(&(start, len)) if lo >= start && lo <= start + len + gap_threshold
        );
        if extend {
            let run_idx = runs.len() - 1;
            let (start, len) = &mut runs[run_idx];
            *len = (hi - *start).max(*len);
            let in_run = (lo - *start) as u32;
            slices.push((run_idx as u32, in_run, deg));
        } else {
            runs.push((lo, hi - lo));
            slices.push(((runs.len() - 1) as u32, 0, deg));
        }
    }
    (runs, slices)
}

/// Is this error worth retrying? Transient kinds only — anything else
/// (truncation, permission, corruption) propagates immediately.
fn is_transient(kind: io::ErrorKind) -> bool {
    matches!(kind, io::ErrorKind::Interrupted | io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)
}

/// One coalesced run read, with bounded retry on transient failure.
/// Every attempt seeks first (a failed `read_exact` leaves the cursor
/// and buffer in unspecified states, so each retry restarts the run
/// from scratch). Returns the number of retries performed.
fn read_run(file: &mut File, off: u64, buf: &mut [u8], retry: &RetryPolicy) -> io::Result<u64> {
    let mut retries = 0u64;
    loop {
        let result = (|| {
            #[cfg(feature = "chaos")]
            if ipregel::chaos::fires(ipregel::chaos::GRAPHD_READ, 0) {
                return Err(io::Error::new(
                    io::ErrorKind::Interrupted,
                    "chaos: injected transient read failure",
                ));
            }
            file.seek(SeekFrom::Start(off))?;
            file.read_exact(buf)
        })();
        match result {
            Ok(()) => return Ok(retries),
            Err(e) if is_transient(e.kind()) && retries + 1 < u64::from(retry.max_attempts.max(1)) => {
                retries += 1;
                // Exponential backoff: base × 2^(retry − 1), capped so the
                // shift cannot overflow under absurd policies.
                let factor = 1u32 << (retries - 1).min(16) as u32;
                std::thread::sleep(retry.base_backoff.saturating_mul(factor));
            }
            Err(e) => return Err(e),
        }
    }
}

/// Run `program` on an out-of-core graph with combined single-message
/// mailboxes and scan selection.
pub fn run_ooc<P: VertexProgram>(
    ooc: &OocGraph,
    program: &P,
    config: &RunConfig,
    disk: &DiskModel,
) -> io::Result<OocOutput<P::Value>> {
    let map = ooc.map;
    let slots = map.slots();

    let mut values: Vec<P::Value> =
        (0..slots as u32).map(|s| program.initial_value(map.id_of(s))).collect();
    let mut halted = vec![false; slots];
    let mut cur: Vec<SpinMailbox<P::Message>> = (0..slots).map(|_| SpinMailbox::empty()).collect();
    let mut next: Vec<SpinMailbox<P::Message>> = (0..slots).map(|_| SpinMailbox::empty()).collect();

    let footprint = FootprintReport {
        // Resident graph bytes: offsets only; the 4 B/edge targets live
        // on disk. This is the architecture's memory story.
        graph_bytes: ooc.resident_bytes(),
        values_bytes: slots * std::mem::size_of::<P::Value>(),
        mailbox_bytes: 2 * slots
            * (std::mem::size_of::<SpinMailbox<P::Message>>()
                - <SpinMailbox<P::Message> as Mailbox<P::Message>>::lock_bytes()),
        lock_bytes: 2 * slots * <SpinMailbox<P::Message> as Mailbox<P::Message>>::lock_bytes(),
        flags_bytes: slots,
        worklist_bytes: 0,
    };

    let mut stats = RunStats::default();
    let mut io_trace = Vec::new();
    let mut disk_seconds_total = 0.0f64;
    let mut active: Vec<VertexIndex> = map.live_slots().collect();
    let mut superstep = 0usize;
    let mut selection_duration = std::time::Duration::ZERO;
    let mut file = ooc.file.try_clone()?;
    let mut read_buf: Vec<u8> = Vec::new();

    let tracer = config.trace.as_deref();
    trace::emit_sync(tracer, || TraceEvent::RunBegin {
        engine: trace::EngineKind::Ooc,
        slots: slots as u64,
        threads: ipregel_par::current_num_threads() as u64,
    });

    loop {
        trace::emit_sync(tracer, || TraceEvent::SuperstepBegin { superstep: superstep as u64 });
        let t0 = Instant::now();
        // ---- IO phase: stream the active vertices' adjacency ----
        let (runs, slices) = plan_reads(ooc, &active, 4096);
        let mut run_starts = Vec::with_capacity(runs.len());
        read_buf.clear();
        let mut bytes_read = 0u64;
        let mut retries = 0u64;
        for &(off, len) in &runs {
            run_starts.push(read_buf.len());
            let at = read_buf.len();
            read_buf.resize(at + len as usize, 0);
            retries += read_run(&mut file, off, &mut read_buf[at..], &disk.retry)?;
            bytes_read += len;
        }
        // Every retry re-seeks, so the model prices it as a seek.
        let seeks = runs.len() as u64 + retries;
        let disk_seconds = bytes_read as f64 / disk.read_bandwidth + seeks as f64 * disk.seek_latency;
        disk_seconds_total += disk_seconds;

        // ---- compute phase ----
        let sent: u64 = {
            let values_view = SharedSlice::new(&mut values);
            let halted_view = SharedSlice::new(&mut halted);
            let next_ref: &[SpinMailbox<P::Message>] = &next;
            let cur_ref: &[SpinMailbox<P::Message>] = &cur;
            let read_buf = &read_buf;
            let run_starts = &run_starts;
            active
                .par_iter()
                .zip(slices.par_iter())
                .map(|(&v, &(run, off_in_run, deg))| {
                    let inbox = cur_ref[v as usize].take();
                    // SAFETY: active slots are distinct (scan order).
                    let is_halted = unsafe { *halted_view.get(v as usize) };
                    if is_halted && inbox.is_none() {
                        return 0;
                    }
                    let base = run_starts[run as usize] + off_in_run as usize;
                    let adjacency = &read_buf[base..base + deg as usize * 4];
                    let mut ctx = OocCtx::<P> {
                        superstep,
                        map: &map,
                        n: map.num_vertices() as usize,
                        v,
                        degree: deg,
                        adjacency,
                        inbox,
                        next: next_ref,
                        sent: 0,
                        halt_vote: false,
                    };
                    // SAFETY: active slots are distinct (scan order).
                    let mut value = unsafe { values_view.get_mut(v as usize) };
                    program.compute(&mut value, &mut ctx);
                    // SAFETY: active slots are distinct (scan order).
                    unsafe { *halted_view.get_mut(v as usize) = ctx.halt_vote };
                    ctx.sent
                })
                .sum()
        };

        stats.push(SuperstepStats {
            superstep,
            active: active.len() as u64,
            messages_sent: sent,
            duration: t0.elapsed() + selection_duration,
            selection_duration,
            // The out-of-core engine's parallelism is bounded by its I/O
            // runs, not a chunk plan; nothing to account here.
            load: None,
        });
        io_trace.push(IoTrace { superstep, bytes_read, seeks, retries, disk_seconds });
        // Close the superstep span: I/O detail first, then the mirror of
        // the SuperstepStats entry just pushed. No worker-side events
        // here (parallelism is bounded by I/O runs, not a chunk plan),
        // but the barrier still drives the periodic RSS sampler.
        trace::barrier(tracer, superstep);
        trace::emit_sync(tracer, || TraceEvent::Io {
            superstep: superstep as u64,
            bytes_read,
            seeks,
            retries,
        });
        trace::emit_sync(tracer, || {
            let s = stats.supersteps.last().expect("pushed above");
            TraceEvent::SuperstepEnd {
                superstep: s.superstep as u64,
                active: s.active,
                messages: s.messages_sent,
                duration_ns: trace::ns(s.duration),
                selection_ns: trace::ns(s.selection_duration),
                chunks: 0,
            }
        });
        std::mem::swap(&mut cur, &mut next);

        if program.master_compute(superstep, &values) == MasterDecision::Halt {
            break;
        }
        superstep += 1;
        if let Some(cap) = config.max_supersteps {
            if superstep >= cap {
                break;
            }
        }
        let sel_t0 = Instant::now();
        let halted_ref: &[bool] = &halted;
        let cur_ref: &[SpinMailbox<P::Message>] = &cur;
        active = (0..slots as u32)
            .into_par_iter()
            .filter(|&v| {
                map.is_live_slot(v) && (!halted_ref[v as usize] || cur_ref[v as usize].has_message())
            })
            .collect();
        selection_duration = sel_t0.elapsed();
        if active.is_empty() {
            break;
        }
    }

    trace::emit_sync(tracer, || TraceEvent::RunEnd {
        supersteps: stats.num_supersteps() as u64,
        messages: stats.total_messages(),
        duration_ns: trace::ns(stats.total_time),
    });
    let compute_seconds = stats.total_time.as_secs_f64();
    let output = RunOutput::new(values, map, stats, footprint);
    Ok(OocOutput {
        output,
        io: io_trace,
        disk_seconds: disk_seconds_total,
        modelled_total_seconds: compute_seconds + disk_seconds_total,
    })
}

/// Context over a disk-streamed adjacency slice.
struct OocCtx<'a, P: VertexProgram> {
    superstep: usize,
    map: &'a AddressMap,
    n: usize,
    v: VertexIndex,
    degree: u32,
    /// Little-endian u32 targets, streamed this superstep.
    adjacency: &'a [u8],
    inbox: Option<P::Message>,
    next: &'a [SpinMailbox<P::Message>],
    sent: u64,
    halt_vote: bool,
}

impl<P: VertexProgram> OocCtx<'_, P> {
    #[inline]
    fn target(&self, i: usize) -> VertexIndex {
        let b = &self.adjacency[i * 4..i * 4 + 4];
        u32::from_le_bytes([b[0], b[1], b[2], b[3]])
    }
}

impl<P: VertexProgram> Context for OocCtx<'_, P> {
    type Message = P::Message;

    fn superstep(&self) -> usize {
        self.superstep
    }

    fn num_vertices(&self) -> usize {
        self.n
    }

    fn id(&self) -> VertexId {
        self.map.id_of(self.v)
    }

    fn out_degree(&self) -> u32 {
        self.degree
    }

    fn next_message(&mut self) -> Option<P::Message> {
        self.inbox.take()
    }

    fn send(&mut self, to: VertexId, msg: P::Message) {
        assert!(self.map.contains(to), "send to unknown vertex id {to}");
        self.next[self.map.index_of(to) as usize].deliver(msg, P::combine);
        self.sent += 1;
    }

    fn broadcast(&mut self, msg: P::Message) {
        for i in 0..self.degree as usize {
            let t = self.target(i);
            self.next[t as usize].deliver(msg, P::combine);
        }
        self.sent += u64::from(self.degree);
    }

    fn vote_to_halt(&mut self) {
        self.halt_vote = true;
    }

    fn send_along_out_edges(&mut self, mut f: impl FnMut(Weight) -> P::Message) {
        // The spilled adjacency is unweighted: every edge weighs 1.
        for i in 0..self.degree as usize {
            let t = self.target(i);
            self.next[t as usize].deliver(f(1), P::combine);
        }
        self.sent += u64::from(self.degree);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipregel::{run, CombinerKind, RunConfig, Version};
    use ipregel_apps::{Hashmin, PageRank, Sssp};
    use ipregel_graph::{GraphBuilder, NeighborMode};

    fn graph(edges: &[(u32, u32)]) -> Graph {
        let mut b = GraphBuilder::new(NeighborMode::Both);
        for &(u, v) in edges {
            b.add_edge(u, v);
        }
        b.build().unwrap()
    }

    fn temp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("graphd-test-{}-{name}.edges", std::process::id()))
    }

    #[test]
    fn spill_and_degrees() {
        let g = graph(&[(0, 1), (0, 2), (1, 2), (2, 0)]);
        let ooc = OocGraph::from_graph(&g, temp("spill")).unwrap();
        assert_eq!(ooc.out_degree(0), 2);
        assert_eq!(ooc.out_degree(1), 1);
        assert_eq!(ooc.spilled_bytes(), 16);
        assert!(ooc.resident_bytes() < g.bytes());
    }

    #[test]
    fn ooc_sssp_matches_in_memory() {
        let g = graph(&[(0, 1), (1, 2), (2, 3), (0, 3), (3, 4), (4, 0)]);
        let ooc = OocGraph::from_graph(&g, temp("sssp")).unwrap();
        let out = run_ooc(&ooc, &Sssp { source: 0 }, &RunConfig::default(), &DiskModel::default())
            .unwrap();
        let mem = run(
            &g,
            &Sssp { source: 0 },
            Version { combiner: CombinerKind::Spinlock, selection_bypass: false },
            &RunConfig::default(),
        );
        assert_eq!(out.output.values, mem.values);
        assert!(out.total_bytes_read() > 0);
        assert!(out.disk_seconds > 0.0);
    }

    #[test]
    fn ooc_hashmin_and_pagerank_match() {
        let edges: Vec<(u32, u32)> =
            (0..50u32).flat_map(|i| [(i, (i + 1) % 50), ((i + 1) % 50, i)]).collect();
        let g = graph(&edges);
        let ooc = OocGraph::from_graph(&g, temp("apps")).unwrap();

        let hm = run_ooc(&ooc, &Hashmin, &RunConfig::default(), &DiskModel::default()).unwrap();
        let hm_mem = run(
            &g,
            &Hashmin,
            Version { combiner: CombinerKind::Mutex, selection_bypass: false },
            &RunConfig::default(),
        );
        assert_eq!(hm.output.values, hm_mem.values);

        let pr = run_ooc(
            &ooc,
            &PageRank { rounds: 5, damping: 0.85 },
            &RunConfig::default(),
            &DiskModel::default(),
        )
        .unwrap();
        let pr_mem = run(
            &g,
            &PageRank { rounds: 5, damping: 0.85 },
            Version { combiner: CombinerKind::Spinlock, selection_bypass: false },
            &RunConfig::default(),
        );
        for slot in g.address_map().live_slots() {
            assert!((pr.output.values[slot as usize] - pr_mem.values[slot as usize]).abs() < 1e-12);
        }
    }

    #[test]
    fn edges_do_not_count_against_resident_memory() {
        let edges: Vec<(u32, u32)> = (0..100u32).flat_map(|i| (0..20).map(move |k| (i, (i + k) % 100))).collect();
        let g = graph(&edges);
        let ooc = OocGraph::from_graph(&g, temp("mem")).unwrap();
        let out = run_ooc(
            &ooc,
            &Hashmin,
            &RunConfig { max_supersteps: Some(3), ..RunConfig::default() },
            &DiskModel::default(),
        )
        .unwrap();
        // The in-memory engine's graph bytes include 4 B/edge; the
        // out-of-core resident share must be edge-free.
        let mem = run(
            &g,
            &Hashmin,
            Version { combiner: CombinerKind::Spinlock, selection_bypass: false },
            &RunConfig { max_supersteps: Some(3), ..RunConfig::default() },
        );
        assert!(out.output.footprint.graph_bytes < mem.footprint.graph_bytes / 2);
    }

    #[test]
    fn sparse_frontiers_read_fewer_bytes() {
        // SSSP on a long path: early supersteps touch few vertices, so
        // the stream shrinks to the frontier's adjacency.
        let edges: Vec<(u32, u32)> = (0..500u32).map(|i| (i, i + 1)).collect();
        let g = graph(&edges);
        let ooc = OocGraph::from_graph(&g, temp("frontier")).unwrap();
        let out = run_ooc(&ooc, &Sssp { source: 0 }, &RunConfig::default(), &DiskModel::default())
            .unwrap();
        let first = out.io.first().unwrap().bytes_read;
        let later = out.io[5].bytes_read;
        assert!(later < first / 10, "frontier read {later} vs full scan {first}");
    }

    #[test]
    fn persist_and_reopen_round_trips() {
        let g = graph(&[(1, 2), (2, 3), (3, 1), (1, 3)]); // 1-based: desolate slot
        let path = temp("persist");
        {
            let mut ooc = OocGraph::from_graph(&g, &path).unwrap();
            ooc.persist().unwrap();
        } // dropped — files must survive
        let reopened = OocGraph::open(&path).unwrap();
        assert_eq!(reopened.num_vertices(), 3);
        assert_eq!(reopened.num_edges(), 4);
        assert_eq!(reopened.out_degree(reopened.address_map().index_of(1)), 2);
        let out = run_ooc(&reopened, &Hashmin, &RunConfig::default(), &DiskModel::default())
            .unwrap();
        assert_eq!(*out.output.value_of(2), 1);
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(path.with_extension("meta"));
    }

    #[test]
    fn open_rejects_garbage_metadata() {
        let path = temp("garbage");
        std::fs::write(&path, b"edges").unwrap();
        std::fs::write(path.with_extension("meta"), b"NOPE").unwrap();
        assert!(OocGraph::open(&path).is_err());
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(path.with_extension("meta"));
    }

    #[test]
    fn transient_kinds_retry_others_propagate() {
        assert!(is_transient(io::ErrorKind::Interrupted));
        assert!(is_transient(io::ErrorKind::WouldBlock));
        assert!(is_transient(io::ErrorKind::TimedOut));
        assert!(!is_transient(io::ErrorKind::UnexpectedEof));
        assert!(!is_transient(io::ErrorKind::PermissionDenied));
    }

    #[test]
    fn healthy_reads_record_zero_retries() {
        let g = graph(&[(0, 1), (1, 2), (2, 0)]);
        let ooc = OocGraph::from_graph(&g, temp("retries")).unwrap();
        let out = run_ooc(&ooc, &Hashmin, &RunConfig::default(), &DiskModel::default()).unwrap();
        assert!(out.io.iter().all(|t| t.retries == 0));
        // With no retries, seeks are exactly the planned runs.
        assert!(out.io.iter().all(|t| t.seeks > 0));
    }

    #[test]
    fn read_plan_coalesces_contiguous_ranges() {
        let edges: Vec<(u32, u32)> = (0..20u32).map(|i| (i, (i + 1) % 20)).collect();
        let g = graph(&edges);
        let ooc = OocGraph::from_graph(&g, temp("plan")).unwrap();
        // All vertices active and contiguous → a single run.
        let active: Vec<u32> = (0..20).collect();
        let (runs, slices) = plan_reads(&ooc, &active, 4096);
        assert_eq!(runs.len(), 1);
        assert_eq!(slices.len(), 20);
        // Distant vertices with a huge gap threshold of 0 → two runs.
        let (runs, _) = plan_reads(&ooc, &[0, 19], 0);
        assert_eq!(runs.len(), 2);
    }
}
