//! Per-run and per-superstep measurements.
//!
//! The paper's methodology (Section 7.1.2) times *superstep execution
//! only* — graph loading and preprocessing are excluded. The engines
//! therefore start the clock when the first superstep begins, and record
//! per-superstep activity so the harness can reproduce the analyses of
//! Section 7.2 (active-vertex ratios, superstep counts).

use std::time::Duration;

use crate::trace::contention::ContentionSnapshot;

/// What happened during one superstep.
#[derive(Debug, Clone, PartialEq)]
pub struct SuperstepStats {
    /// Superstep number, starting at 0.
    pub superstep: usize,
    /// Vertices executed this superstep.
    pub active: u64,
    /// Messages sent this superstep (a broadcast to `k` neighbours counts
    /// as `k` messages, as in Pregel's accounting).
    pub messages_sent: u64,
    /// Wall-clock time of the superstep.
    pub duration: Duration,
    /// Of `duration`: time spent *selecting* the next active set — the
    /// cost Section 4's bypass attacks. Scan selection pays O(|V|) here
    /// every superstep; the bypass pays O(active).
    pub selection_duration: Duration,
    /// Per-chunk load accounting of the compute phase, when the engine
    /// schedules in chunks (`None` for engines that don't — external
    /// baselines, the distributed simulator).
    pub load: Option<LoadStats>,
}

crate::impl_to_json!(SuperstepStats {
    superstep,
    active,
    messages_sent,
    duration,
    selection_duration,
    load
});

/// Per-chunk load accounting for one superstep's compute phase.
///
/// The four vectors are parallel: chunk `i` was *planned* to carry
/// `chunk_edges[i]` weight (degree + 1 per vertex, in the direction the
/// engine walks — out for push, in for pull; the same unit
/// [`ipregel_graph::schedule`] balances), *measured* to take
/// `chunk_durations[i]` of wall-clock on worker `chunk_workers[i]`, and
/// saw `chunk_contention[i]` at the mailboxes. Planned weight is
/// deterministic, so tests assert on [`LoadStats::edge_imbalance`];
/// duration is the ground truth the scheduling bench reports.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LoadStats {
    /// Planned weight of each chunk (edges + one unit per vertex).
    pub chunk_edges: Vec<u64>,
    /// Measured wall-clock of each chunk's compute loop.
    pub chunk_durations: Vec<Duration>,
    /// Pool worker index that executed each chunk. Any pool worker may
    /// run any chunk, so the mapping is measured, not planned; all zeros
    /// for the sequential engine.
    pub chunk_workers: Vec<u64>,
    /// Mailbox contention each chunk's vertex loop saw on its thread:
    /// lock acquisitions and spin iterations. All zero for
    /// the sequential engine, which has no locks.
    pub chunk_contention: Vec<ContentionSnapshot>,
    /// Jobs run by a worker other than the one that queued them during
    /// this superstep's parallel region (delta of
    /// `ipregel_par::current_pool_stats().steals` across it).
    pub steals: u64,
    /// Jobs queued from off the pool during this superstep's parallel
    /// region.
    pub overflow: u64,
}

crate::impl_to_json!(LoadStats {
    chunk_edges,
    chunk_durations,
    chunk_workers,
    chunk_contention,
    steals,
    overflow
});

impl LoadStats {
    /// Number of chunks the superstep was cut into.
    pub fn num_chunks(&self) -> usize {
        self.chunk_edges.len()
    }

    /// Max/mean ratio of planned chunk edge weights: 1.0 is a perfect
    /// cut, `num_chunks()` the worst (all weight in one chunk). Returns
    /// 1.0 for degenerate inputs (no chunks, zero total weight).
    pub fn edge_imbalance(&self) -> f64 {
        ratio_max_mean(self.chunk_edges.iter().map(|&e| e as f64))
    }

    /// Max/mean ratio of measured chunk durations; same scale as
    /// [`LoadStats::edge_imbalance`]. The superstep's critical path is
    /// its slowest chunk, so this ratio is the parallel-efficiency loss
    /// the schedule left on the table.
    pub fn duration_imbalance(&self) -> f64 {
        ratio_max_mean(self.chunk_durations.iter().map(Duration::as_secs_f64))
    }

    /// Max/mean ratio of per-**worker** planned edge weight: chunk
    /// weights grouped by the worker that actually executed each chunk
    /// ([`LoadStats::chunk_workers`]). Where [`LoadStats::edge_imbalance`]
    /// measures the balance the *plan* allowed (its worst single chunk),
    /// this measures the balance the scheduler *achieved* after idle
    /// workers took chunks off busy ones. Edge weights rather
    /// than durations keep it robust to timer noise. Returns 1.0 for
    /// degenerate inputs (no workers, no chunks, zero weight, or no
    /// recorded worker mapping).
    pub fn worker_edge_imbalance(&self, num_workers: usize) -> f64 {
        if num_workers == 0 || self.chunk_workers.len() != self.chunk_edges.len() {
            return 1.0;
        }
        let mut per_worker = vec![0u64; num_workers];
        for (&w, &e) in self.chunk_workers.iter().zip(&self.chunk_edges) {
            let w = usize::try_from(w).unwrap_or(usize::MAX).min(num_workers - 1);
            per_worker[w] += e;
        }
        ratio_max_mean(per_worker.iter().map(|&e| e as f64))
    }
}

/// Max over mean of `values`, or 1.0 when empty or summing to zero.
fn ratio_max_mean(values: impl Iterator<Item = f64>) -> f64 {
    let (mut n, mut sum, mut max) = (0u64, 0.0f64, 0.0f64);
    for v in values {
        n += 1;
        sum += v;
        max = max.max(v);
    }
    if n == 0 || sum <= 0.0 {
        return 1.0;
    }
    max * n as f64 / sum
}

/// Sums over any number of runs' [`RunStats`]: the counters
/// [`crate::trace::render_prometheus`] writes. Fixed-size, so a process
/// that runs without end (the server) can fold in every run it makes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunTotals {
    /// Supersteps completed.
    pub supersteps: u64,
    /// Messages sent.
    pub messages: u64,
    /// Superstep wall-clock, in nanoseconds.
    pub run_ns: u64,
    /// Chunks executed.
    pub chunks: u64,
    /// Chunk body wall-clock, in nanoseconds.
    pub chunk_ns: u64,
    /// Mailbox contention, summed over chunks.
    pub contention: ContentionSnapshot,
    /// Pool steals, summed over supersteps.
    pub pool_steals: u64,
    /// Jobs queued from off the pool, summed over supersteps.
    pub pool_overflow: u64,
}

impl RunTotals {
    /// Fold in one run.
    pub fn add(&mut self, run: &RunStats) {
        self.supersteps += run.num_supersteps() as u64;
        self.messages += run.total_messages();
        self.run_ns += crate::trace::ns(run.total_time);
        for load in run.supersteps.iter().filter_map(|s| s.load.as_ref()) {
            self.chunks += load.num_chunks() as u64;
            self.chunk_ns += load.chunk_durations.iter().map(|&d| crate::trace::ns(d)).sum::<u64>();
            for c in &load.chunk_contention {
                self.contention.lock_acquisitions += c.lock_acquisitions;
                self.contention.spin_iterations += c.spin_iterations;
            }
            self.pool_steals += load.steals;
            self.pool_overflow += load.overflow;
        }
    }

    /// Fold in another set of totals.
    pub fn merge(&mut self, other: &RunTotals) {
        self.supersteps += other.supersteps;
        self.messages += other.messages;
        self.run_ns += other.run_ns;
        self.chunks += other.chunks;
        self.chunk_ns += other.chunk_ns;
        self.contention.lock_acquisitions += other.contention.lock_acquisitions;
        self.contention.spin_iterations += other.contention.spin_iterations;
        self.pool_steals += other.pool_steals;
        self.pool_overflow += other.pool_overflow;
    }
}

impl From<&RunStats> for RunTotals {
    fn from(run: &RunStats) -> Self {
        let mut totals = RunTotals::default();
        totals.add(run);
        totals
    }
}

/// Aggregated statistics of a complete run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunStats {
    /// Every superstep, in order.
    pub supersteps: Vec<SuperstepStats>,
    /// Total superstep execution time (the paper's reported metric).
    pub total_time: Duration,
}

crate::impl_to_json!(RunStats { supersteps, total_time });

impl RunStats {
    /// Number of supersteps executed.
    pub fn num_supersteps(&self) -> usize {
        self.supersteps.len()
    }

    /// Total messages sent across the run.
    pub fn total_messages(&self) -> u64 {
        self.supersteps.iter().map(|s| s.messages_sent).sum()
    }

    /// Total vertex executions across the run.
    pub fn total_vertex_executions(&self) -> u64 {
        self.supersteps.iter().map(|s| s.active).sum()
    }

    /// Largest number of active vertices in any superstep.
    pub fn peak_active(&self) -> u64 {
        self.supersteps.iter().map(|s| s.active).max().unwrap_or(0)
    }

    /// Record a completed superstep (public for alternative engines).
    pub fn push(&mut self, s: SuperstepStats) {
        self.total_time += s.duration;
        self.supersteps.push(s);
    }

    /// Total time spent in the selection phase across the run.
    pub fn total_selection_time(&self) -> Duration {
        self.supersteps.iter().map(|s| s.selection_duration).sum()
    }

    /// Worst per-superstep [`LoadStats::edge_imbalance`] across the run
    /// (1.0 when no superstep recorded load stats).
    pub fn worst_edge_imbalance(&self) -> f64 {
        self.supersteps
            .iter()
            .filter_map(|s| s.load.as_ref())
            .map(LoadStats::edge_imbalance)
            .fold(1.0, f64::max)
    }

    /// Worst per-superstep [`LoadStats::duration_imbalance`] across the
    /// run (1.0 when no superstep recorded load stats).
    pub fn worst_duration_imbalance(&self) -> f64 {
        self.supersteps
            .iter()
            .filter_map(|s| s.load.as_ref())
            .map(LoadStats::duration_imbalance)
            .fold(1.0, f64::max)
    }

    /// A compact ASCII sparkline of active vertices per superstep — the
    /// §7.1.4 activity evolutions at a glance: PageRank renders flat,
    /// Hashmin decreasing, SSSP as a bell.
    pub fn activity_sparkline(&self) -> String {
        const LEVELS: &[u8] = b" .:-=+*#%@";
        let peak = self.peak_active().max(1);
        self.supersteps
            .iter()
            .map(|s| {
                let idx = if s.active == 0 {
                    0
                } else {
                    // Map (0, peak] onto 1..=9 so any activity is visible.
                    1 + (s.active * 9 / peak).min(9).saturating_sub(1) as usize
                };
                LEVELS[idx] as char
            })
            .collect()
    }
}

/// Exact byte accounting of everything an engine allocated, split the way
/// Section 7.4.4 discusses memory: topology vs. framework overhead, and
/// within the overhead, the data-race protection the paper halves and then
/// zeroes out.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FootprintReport {
    /// Bytes of the graph topology (CSR arrays); "the graph itself".
    pub graph_bytes: usize,
    /// Bytes of user vertex values.
    pub values_bytes: usize,
    /// Bytes of message slots (inboxes/outboxes), excluding locks.
    pub mailbox_bytes: usize,
    /// Bytes of data-race protection (locks); 0 for the pull combiner.
    pub lock_bytes: usize,
    /// Bytes of halted/active flags.
    pub flags_bytes: usize,
    /// Bytes of the selection-bypass worklists (0 when scanning).
    pub worklist_bytes: usize,
}

crate::impl_to_json!(FootprintReport {
    graph_bytes,
    values_bytes,
    mailbox_bytes,
    lock_bytes,
    flags_bytes,
    worklist_bytes
});

impl FootprintReport {
    /// Framework overhead: everything except the graph topology.
    pub fn overhead_bytes(&self) -> usize {
        self.values_bytes
            + self.mailbox_bytes
            + self.lock_bytes
            + self.flags_bytes
            + self.worklist_bytes
    }

    /// Total bytes.
    pub fn total_bytes(&self) -> usize {
        self.graph_bytes + self.overhead_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step(n: usize, active: u64, msgs: u64) -> SuperstepStats {
        SuperstepStats {
            superstep: n,
            active,
            messages_sent: msgs,
            duration: Duration::from_millis(10),
            selection_duration: Duration::from_millis(2),
            load: None,
        }
    }

    #[test]
    fn run_stats_aggregate() {
        let mut r = RunStats::default();
        r.push(step(0, 5, 7));
        r.push(step(1, 3, 2));
        assert_eq!(r.num_supersteps(), 2);
        assert_eq!(r.total_messages(), 9);
        assert_eq!(r.total_vertex_executions(), 8);
        assert_eq!(r.peak_active(), 5);
        assert_eq!(r.total_time, Duration::from_millis(20));
    }

    #[test]
    fn footprint_sums() {
        let f = FootprintReport {
            graph_bytes: 100,
            values_bytes: 10,
            mailbox_bytes: 20,
            lock_bytes: 30,
            flags_bytes: 5,
            worklist_bytes: 15,
        };
        assert_eq!(f.overhead_bytes(), 80);
        assert_eq!(f.total_bytes(), 180);
    }

    #[test]
    fn selection_time_accumulates() {
        let mut r = RunStats::default();
        r.push(step(0, 5, 7));
        r.push(step(1, 3, 2));
        assert_eq!(r.total_selection_time(), Duration::from_millis(4));
    }

    #[test]
    fn sparkline_shapes() {
        let mut bell = RunStats::default();
        for (i, a) in [1u64, 40, 100, 38, 2].iter().enumerate() {
            bell.push(step(i, *a, 0));
        }
        let line = bell.activity_sparkline();
        assert_eq!(line.len(), 5);
        let bytes = line.as_bytes();
        assert!(bytes[2] > bytes[0] && bytes[2] > bytes[4], "{line}");

        let mut silent = RunStats::default();
        silent.push(step(0, 0, 0));
        assert_eq!(silent.activity_sparkline(), " ");
    }

    #[test]
    fn empty_run_has_zeroes() {
        let r = RunStats::default();
        assert_eq!(r.num_supersteps(), 0);
        assert_eq!(r.peak_active(), 0);
        assert_eq!(r.total_messages(), 0);
    }

    #[test]
    fn imbalance_ratios() {
        // Perfect balance → exactly 1.0.
        let even = LoadStats {
            chunk_edges: vec![10, 10, 10, 10],
            chunk_durations: vec![Duration::from_millis(5); 4],
            ..Default::default()
        };
        assert_eq!(even.edge_imbalance(), 1.0);
        assert_eq!(even.duration_imbalance(), 1.0);
        assert_eq!(even.num_chunks(), 4);

        // All weight in one of four chunks → 4.0 (the worst case).
        let hub = LoadStats {
            chunk_edges: vec![40, 0, 0, 0],
            chunk_durations: vec![
                Duration::from_millis(8),
                Duration::from_millis(1),
                Duration::from_millis(1),
                Duration::from_millis(2),
            ],
            ..Default::default()
        };
        assert_eq!(hub.edge_imbalance(), 4.0);
        let d = hub.duration_imbalance();
        assert!((d - 8.0 * 4.0 / 12.0).abs() < 1e-12, "{d}");
    }

    #[test]
    fn degenerate_imbalance_is_one() {
        assert_eq!(LoadStats::default().edge_imbalance(), 1.0);
        assert_eq!(LoadStats::default().duration_imbalance(), 1.0);
        let zeros = LoadStats {
            chunk_edges: vec![0, 0],
            chunk_durations: vec![Duration::ZERO; 2],
            ..Default::default()
        };
        assert_eq!(zeros.edge_imbalance(), 1.0);
        assert_eq!(zeros.duration_imbalance(), 1.0);
    }

    #[test]
    fn worst_imbalance_scans_supersteps() {
        let mut r = RunStats::default();
        assert_eq!(r.worst_edge_imbalance(), 1.0);
        assert_eq!(r.worst_duration_imbalance(), 1.0);
        r.push(step(0, 5, 7)); // load: None — ignored
        let mut skewed = step(1, 3, 2);
        skewed.load = Some(LoadStats {
            chunk_edges: vec![30, 10],
            chunk_durations: vec![Duration::from_millis(3), Duration::from_millis(1)],
            ..Default::default()
        });
        r.push(skewed);
        assert_eq!(r.worst_edge_imbalance(), 1.5);
        assert_eq!(r.worst_duration_imbalance(), 1.5);
    }

    #[test]
    fn worker_edge_imbalance_groups_by_executing_worker() {
        // Plan: 4 chunks of uneven weight. Workers 0 and 1 each ended up
        // with 20 edges after stealing → perfectly balanced (1.0), even
        // though the worst chunk alone gives edge_imbalance 1.5.
        let l = LoadStats {
            chunk_edges: vec![15, 5, 10, 10],
            chunk_durations: vec![Duration::from_millis(1); 4],
            chunk_workers: vec![0, 0, 1, 1],
            ..Default::default()
        };
        assert_eq!(l.edge_imbalance(), 1.5);
        assert_eq!(l.worker_edge_imbalance(2), 1.0);
        // All chunks on worker 0 of 2 → max/mean = 40/20 = 2.0.
        let skew = LoadStats { chunk_workers: vec![0, 0, 0, 0], ..l.clone() };
        assert_eq!(skew.worker_edge_imbalance(2), 2.0);
        // Degenerate shapes fall back to 1.0.
        assert_eq!(l.worker_edge_imbalance(0), 1.0);
        assert_eq!(LoadStats::default().worker_edge_imbalance(4), 1.0);
    }
}
