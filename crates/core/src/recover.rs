//! Barrier checkpointing and resume: fault tolerance for the BSP loop.
//!
//! The superstep barrier is the one point where every engine is
//! quiescent — no compute in flight, messages fully combined, buffers
//! owned by the orchestrating thread — so it is the natural recovery
//! point (the same observation Pregel's checkpointing builds on). This
//! module snapshots exactly the state that survives a barrier:
//!
//! * the vertex values,
//! * the halted flags,
//! * the *combined* inbox for the superstep about to run (one optional
//!   message per slot — Section 6.3's combiner invariant is what makes
//!   the snapshot O(|V|) instead of O(messages)),
//! * the per-superstep history (active / message counts, for stats), and
//! * the superstep counter.
//!
//! Nothing engine-specific is stored. The bypass worklist, the pull
//! engine's outboxes and epoch tags, and the chunk plan are all
//! *derivable* from the inbox at a barrier: push engines re-deliver the
//! snapshot into fresh mailboxes, the bypass active list is exactly the
//! slots with a pending message (the §4 contract: activity ≡ message
//! receipt), and scan engines re-scan. A checkpoint written by any
//! engine version therefore restores into **any other** engine version,
//! and — because scheduling never changes results (the PR-2 invariant)
//! — a resumed run is bit-identical to an uninterrupted one for every
//! order-insensitive combiner (min/max; floating-point sums re-combine
//! in a different order across *push* thread interleavings exactly as
//! they already do between two uninterrupted runs).
//!
//! # On-disk format (`IPCK`, version 1)
//!
//! Little-endian, one file per checkpoint (`ckpt-<superstep>.ipck`),
//! written to a temp name and atomically renamed:
//!
//! ```text
//! magic "IPCK" | format u32 | superstep u64 | slots u64
//! value_bytes u32 | msg_bytes u32                      (layout guard)
//! history_len u64 | (active u64, messages u64) × len
//! values: slots × value_bytes
//! halted bitmap: ⌈slots/8⌉ bytes
//! inbox bitmap:  ⌈slots/8⌉ bytes
//! present u64 | messages: present × msg_bytes
//! fnv1a64 checksum of everything above
//! ```
//!
//! The trailing FNV-1a 64 checksum (shared with the binary graph
//! format, `ipregel_graph::checksum`) turns torn writes and bit rot
//! into [`RunError::Resume`]-class failures instead of silent garbage;
//! resume scans checkpoints newest-first and falls back past any file
//! that fails validation.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use ipregel_graph::checksum::fnv1a64;
use ipregel_graph::Graph;

use crate::engine::{RunConfig, RunError, RunResult};
use crate::program::VertexProgram;
use crate::version::Version;

// format-region(ipck-persist, v1): begin — the Persist encodings below
// are checkpoint wire format; any change needs a FORMAT bump in the
// ipck region and an ipregel-lint --bless-formats (see
// docs/INTERNALS.md, "Static analysis: concurrency invariants").
/// Fixed-size binary encoding for checkpointable vertex state.
///
/// Implemented for the primitive value/message types the bundled
/// applications use (`u32` distances and labels, `u64` ids, `f64`
/// ranks). Implement it for your own `Copy` types to make a program
/// checkpointable; encoding must be position-independent and exactly
/// [`Persist::BYTES`] long.
pub trait Persist: Copy {
    /// Encoded size in bytes.
    const BYTES: usize;
    /// Append exactly [`Persist::BYTES`] bytes to `out`.
    fn encode(&self, out: &mut Vec<u8>);
    /// Inverse of [`Persist::encode`]; `bytes` has length
    /// [`Persist::BYTES`].
    fn decode(bytes: &[u8]) -> Self;
}

macro_rules! persist_via_le_bytes {
    ($($t:ty),*) => {$(
        impl Persist for $t {
            const BYTES: usize = std::mem::size_of::<$t>();
            fn encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn decode(bytes: &[u8]) -> Self {
                <$t>::from_le_bytes(bytes.try_into().expect("caller passes exactly BYTES"))
            }
        }
    )*};
}

persist_via_le_bytes!(u8, u16, u32, u64, i8, i16, i32, i64, f32, f64);

impl Persist for bool {
    const BYTES: usize = 1;
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn decode(bytes: &[u8]) -> Self {
        bytes[0] != 0
    }
}

impl Persist for (u32, u32) {
    const BYTES: usize = 8;
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
    }
    fn decode(bytes: &[u8]) -> Self {
        (u32::decode(&bytes[..4]), u32::decode(&bytes[4..]))
    }
    // format-region(ipck-persist): end
}

/// Barrier state restored from a checkpoint, in memory.
#[derive(Debug, Clone, PartialEq)]
pub struct ResumeState<V, M> {
    /// The superstep about to run when the checkpoint was taken.
    pub superstep: usize,
    /// Vertex values at the barrier.
    pub values: Vec<V>,
    /// Halted flags at the barrier.
    pub halted: Vec<bool>,
    /// The combined inbox for superstep `superstep` (one optional
    /// message per slot).
    pub inbox: Vec<Option<M>>,
    /// `(active, messages_sent)` for each completed superstep, so the
    /// resumed run's [`crate::metrics::RunStats`] keeps whole-run
    /// counts. Durations are not restored (they are wall-clock facts of
    /// the dead process) and read as zero.
    pub history: Vec<(u64, u64)>,
}

/// Engine-side checkpoint/restore callbacks.
///
/// The engines call these only at superstep barriers, from the
/// orchestrating thread: `take_resume` once before the loop, then
/// `due`/`save` at each loop top. Object-safe on purpose — engines hold
/// a `&mut dyn` so their signatures stay free of persistence bounds.
pub trait RecoveryHooks<V, M> {
    /// Barrier state to restore into the engine, consumed once at run
    /// start. `None` starts from superstep 0.
    fn take_resume(&mut self) -> Option<ResumeState<V, M>>;

    /// Whether a checkpoint should be taken at the top of `superstep`.
    fn due(&self, superstep: usize) -> bool;

    /// Persist the barrier state at the top of `superstep`.
    fn save(
        &mut self,
        superstep: usize,
        values: &[V],
        halted: &[bool],
        inbox: &[Option<M>],
        history: &[(u64, u64)],
    ) -> io::Result<()>;
}

/// Borrowed hook object as the engines accept it.
pub type DynHooks<'a, V, M> = &'a mut (dyn RecoveryHooks<V, M> + Send);

/// Where and how often to checkpoint, and whether to resume.
#[derive(Debug, Clone)]
pub struct CheckpointConfig {
    /// Directory for `ckpt-*.ipck` files (created if missing).
    pub dir: PathBuf,
    /// Checkpoint at the top of every superstep divisible by this;
    /// `0` disables saving (useful for resume-only runs).
    pub every: usize,
    /// Restore from the newest valid checkpoint in `dir` before
    /// running. An error if no valid checkpoint exists.
    pub resume: bool,
}

impl CheckpointConfig {
    /// Checkpoint into `dir` every `every` supersteps, starting fresh.
    pub fn new(dir: impl Into<PathBuf>, every: usize) -> Self {
        CheckpointConfig { dir: dir.into(), every, resume: false }
    }

    /// The same directory and cadence, but resuming.
    pub fn resuming(mut self) -> Self {
        self.resume = true;
        self
    }
}

/// [`RecoveryHooks`] over a directory of `IPCK` files.
pub struct DiskCheckpointer<V, M> {
    dir: PathBuf,
    every: usize,
    pending_resume: Option<ResumeState<V, M>>,
    /// Superstep the run resumed at; `due` skips it so resuming does
    /// not immediately rewrite the checkpoint it just read.
    resume_floor: Option<usize>,
}

impl<V, M> std::fmt::Debug for DiskCheckpointer<V, M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DiskCheckpointer")
            .field("dir", &self.dir)
            .field("every", &self.every)
            .field("pending_resume", &self.pending_resume.is_some())
            .field("resume_floor", &self.resume_floor)
            .finish()
    }
}

impl<V: Persist, M: Persist> DiskCheckpointer<V, M> {
    /// Open (and create) the checkpoint directory; load the newest
    /// valid checkpoint when `cfg.resume` is set.
    pub fn open(cfg: &CheckpointConfig) -> Result<Self, RunError> {
        fs::create_dir_all(&cfg.dir)
            .map_err(|source| RunError::Checkpoint { superstep: 0, source })?;
        let pending_resume = if cfg.resume {
            match latest_valid::<V, M>(&cfg.dir) {
                Some(state) => Some(state),
                None => {
                    return Err(RunError::Resume(format!(
                        "no valid checkpoint in {}",
                        cfg.dir.display()
                    )))
                }
            }
        } else {
            None
        };
        let resume_floor = pending_resume.as_ref().map(|s| s.superstep);
        Ok(DiskCheckpointer { dir: cfg.dir.clone(), every: cfg.every, pending_resume, resume_floor })
    }
}

impl<V: Persist, M: Persist> RecoveryHooks<V, M> for DiskCheckpointer<V, M> {
    fn take_resume(&mut self) -> Option<ResumeState<V, M>> {
        self.pending_resume.take()
    }

    fn due(&self, superstep: usize) -> bool {
        self.every != 0
            && superstep != 0
            && superstep.is_multiple_of(self.every)
            && Some(superstep) != self.resume_floor
    }

    fn save(
        &mut self,
        superstep: usize,
        values: &[V],
        halted: &[bool],
        inbox: &[Option<M>],
        history: &[(u64, u64)],
    ) -> io::Result<()> {
        let bytes = encode_checkpoint(superstep, values, halted, inbox, history);
        let final_path = self.dir.join(format!("ckpt-{superstep:08}.ipck"));
        #[cfg(feature = "chaos")]
        if crate::chaos::fires(crate::chaos::CHECKPOINT_TRUNCATE, superstep as u64) {
            // Injected torn write: half the payload lands under the
            // final name with no rename barrier. Resume must detect it
            // via the checksum and fall back to an older checkpoint.
            return fs::write(&final_path, &bytes[..bytes.len() / 2]);
        }
        let tmp_path = self.dir.join(format!("ckpt-{superstep:08}.ipck.tmp"));
        fs::write(&tmp_path, &bytes)?;
        fs::rename(&tmp_path, &final_path)
    }
}

// format-region(ipck, v1): begin — everything the writer emits. A
// layout change here must bump FORMAT *and* the marker version, then
// re-bless with `cargo run -p ipregel-lint -- --bless-formats`.
const MAGIC: &[u8; 4] = b"IPCK";
const FORMAT: u32 = 1;

/// Serialise barrier state into the `IPCK` byte format.
pub(crate) fn encode_checkpoint<V: Persist, M: Persist>(
    superstep: usize,
    values: &[V],
    halted: &[bool],
    inbox: &[Option<M>],
    history: &[(u64, u64)],
) -> Vec<u8> {
    let slots = values.len();
    debug_assert_eq!(halted.len(), slots);
    debug_assert_eq!(inbox.len(), slots);
    let present = inbox.iter().filter(|m| m.is_some()).count();
    let mut out = Vec::with_capacity(
        64 + history.len() * 16
            + slots * V::BYTES
            + slots.div_ceil(8) * 2
            + present * M::BYTES,
    );
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&FORMAT.to_le_bytes());
    out.extend_from_slice(&(superstep as u64).to_le_bytes());
    out.extend_from_slice(&(slots as u64).to_le_bytes());
    out.extend_from_slice(&(V::BYTES as u32).to_le_bytes());
    out.extend_from_slice(&(M::BYTES as u32).to_le_bytes());
    out.extend_from_slice(&(history.len() as u64).to_le_bytes());
    for &(active, messages) in history {
        out.extend_from_slice(&active.to_le_bytes());
        out.extend_from_slice(&messages.to_le_bytes());
    }
    for v in values {
        v.encode(&mut out);
    }
    push_bitmap(&mut out, halted.iter().copied());
    push_bitmap(&mut out, inbox.iter().map(Option::is_some));
    out.extend_from_slice(&(present as u64).to_le_bytes());
    for m in inbox.iter().flatten() {
        m.encode(&mut out);
    }
    let checksum = fnv1a64(&out);
    out.extend_from_slice(&checksum.to_le_bytes());
    out
}
// format-region(ipck): end

fn push_bitmap(out: &mut Vec<u8>, bits: impl Iterator<Item = bool>) {
    let mut byte = 0u8;
    let mut filled = 0u32;
    for bit in bits {
        byte |= u8::from(bit) << filled;
        filled += 1;
        if filled == 8 {
            out.push(byte);
            byte = 0;
            filled = 0;
        }
    }
    if filled > 0 {
        out.push(byte);
    }
}

/// Bounded cursor over the checkpoint bytes; every read is
/// length-checked so truncation surfaces as `Err`, never a panic.
struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn read(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self.at.checked_add(n).filter(|&e| e <= self.bytes.len());
        match end {
            Some(end) => {
                let s = &self.bytes[self.at..end];
                self.at = end;
                Ok(s)
            }
            None => Err(format!("truncated at byte {} (wanted {n} more)", self.at)),
        }
    }

    fn read_u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.read(4)?.try_into().expect("read checked the length")))
    }

    fn read_u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.read(8)?.try_into().expect("read checked the length")))
    }
}

/// Parse and validate an `IPCK` byte image.
pub(crate) fn decode_checkpoint<V: Persist, M: Persist>(
    bytes: &[u8],
) -> Result<ResumeState<V, M>, String> {
    if bytes.len() < 8 {
        return Err("file shorter than its checksum".into());
    }
    let (payload, tail) = bytes.split_at(bytes.len() - 8);
    let stored = u64::from_le_bytes(tail.try_into().expect("split_at leaves 8 bytes"));
    let computed = fnv1a64(payload);
    if stored != computed {
        return Err(format!("checksum mismatch (stored {stored:#x}, computed {computed:#x})"));
    }
    let mut c = Cursor { bytes: payload, at: 0 };
    if c.read(4)? != MAGIC {
        return Err("bad magic (not an IPCK checkpoint)".into());
    }
    let format = c.read_u32()?;
    if format != FORMAT {
        return Err(format!("unsupported checkpoint format {format}"));
    }
    let superstep = c.read_u64()? as usize;
    let slots = usize::try_from(c.read_u64()?).map_err(|_| "slot count overflows".to_string())?;
    let value_bytes = c.read_u32()? as usize;
    let msg_bytes = c.read_u32()? as usize;
    if value_bytes != V::BYTES || msg_bytes != M::BYTES {
        return Err(format!(
            "layout mismatch: file has {value_bytes}-byte values / {msg_bytes}-byte messages, \
             program expects {} / {}",
            V::BYTES,
            M::BYTES
        ));
    }
    let history_len = c.read_u64()? as usize;
    // The checksum already vouches for internal consistency; this bound
    // only stops a *validly-checksummed but hostile* file from forcing
    // a huge allocation before the per-element reads would fail.
    if history_len > payload.len() / 16 {
        return Err("history length exceeds file size".into());
    }
    let mut history = Vec::with_capacity(history_len);
    for _ in 0..history_len {
        history.push((c.read_u64()?, c.read_u64()?));
    }
    if slots > payload.len() / V::BYTES.max(1) {
        return Err("slot count exceeds file size".into());
    }
    let mut values = Vec::with_capacity(slots);
    for _ in 0..slots {
        values.push(V::decode(c.read(V::BYTES)?));
    }
    let halted = read_bitmap(&mut c, slots)?;
    let present_bits = read_bitmap(&mut c, slots)?;
    let present = c.read_u64()? as usize;
    if present != present_bits.iter().filter(|&&b| b).count() {
        return Err("present-message count disagrees with the inbox bitmap".into());
    }
    let mut inbox = Vec::with_capacity(slots);
    for &has in &present_bits {
        inbox.push(if has { Some(M::decode(c.read(M::BYTES)?)) } else { None });
    }
    if c.at != payload.len() {
        return Err(format!("{} trailing bytes after the inbox", payload.len() - c.at));
    }
    Ok(ResumeState { superstep, values, halted, inbox, history })
}

fn read_bitmap(c: &mut Cursor<'_>, bits: usize) -> Result<Vec<bool>, String> {
    let bytes = c.read(bits.div_ceil(8))?;
    Ok((0..bits).map(|i| bytes[i / 8] >> (i % 8) & 1 == 1).collect())
}

/// The newest checkpoint in `dir` that passes validation, if any.
/// Unreadable or corrupt files are skipped, so a torn final write falls
/// back to the previous checkpoint instead of killing the resume.
fn latest_valid<V: Persist, M: Persist>(dir: &Path) -> Option<ResumeState<V, M>> {
    let mut candidates: Vec<(usize, PathBuf)> = fs::read_dir(dir)
        .ok()?
        .flatten()
        .filter_map(|entry| {
            let path = entry.path();
            let name = path.file_name()?.to_str()?;
            let superstep =
                name.strip_prefix("ckpt-")?.strip_suffix(".ipck")?.parse::<usize>().ok()?;
            Some((superstep, path))
        })
        .collect();
    candidates.sort_by_key(|c| std::cmp::Reverse(c.0));
    candidates
        .into_iter()
        .find_map(|(_, path)| decode_checkpoint(&fs::read(path).ok()?).ok())
}

/// Run `program` under `version` with checkpointing per `ckpt`.
///
/// The convenience entry point tying the pieces together: builds a
/// [`DiskCheckpointer`] (restoring the newest valid checkpoint when
/// `ckpt.resume` is set) and dispatches to the fallible engine for
/// `version`. Requires persistable state; for programs with
/// non-[`Persist`] values run the fallible engines directly via
/// [`crate::version::try_run`] — deadline and panic isolation work
/// without persistence.
pub fn run_with_checkpoints<P>(
    graph: &Graph,
    program: &P,
    version: Version,
    config: &RunConfig,
    ckpt: &CheckpointConfig,
) -> RunResult<P::Value>
where
    P: VertexProgram,
    P::Value: Persist,
    P::Message: Persist,
{
    let restore_t0 = std::time::Instant::now();
    let mut hooks = DiskCheckpointer::<P::Value, P::Message>::open(ckpt)?;
    if ckpt.resume {
        // `open` just read, decoded and checksum-verified the snapshot.
        crate::trace::emit_sync(config.trace.as_deref(), || crate::trace::TraceEvent::CheckpointRestore {
            superstep: hooks.resume_floor.unwrap_or(0) as u64,
            duration_ns: crate::trace::ns(restore_t0.elapsed()),
        });
    }
    crate::version::run_with(graph, program, version, config, Some(&mut hooks))
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    type SampleState = (usize, Vec<u32>, Vec<bool>, Vec<Option<u32>>, Vec<(u64, u64)>);

    fn sample_state() -> SampleState {
        let slots = 21; // deliberately not a multiple of 8
        let values: Vec<u32> = (0..slots as u32).map(|v| v * 3 + 1).collect();
        let halted: Vec<bool> = (0..slots).map(|v| v % 3 == 0).collect();
        let inbox: Vec<Option<u32>> =
            (0..slots as u32).map(|v| (v % 4 == 1).then_some(v * 7)).collect();
        let history = vec![(21, 40), (13, 22), (5, 9)];
        (slots, values, halted, inbox, history)
    }

    #[test]
    fn encode_decode_round_trips() {
        let (_, values, halted, inbox, history) = sample_state();
        let bytes = encode_checkpoint(3, &values, &halted, &inbox, &history);
        let state: ResumeState<u32, u32> = decode_checkpoint(&bytes).expect("valid image");
        assert_eq!(state.superstep, 3);
        assert_eq!(state.values, values);
        assert_eq!(state.halted, halted);
        assert_eq!(state.inbox, inbox);
        assert_eq!(state.history, history);
    }

    #[test]
    fn f64_values_round_trip_bitwise() {
        let values = vec![0.15, 1.0 / 3.0, f64::MIN_POSITIVE, -0.0, 1e300];
        let halted = vec![false; 5];
        let inbox: Vec<Option<f64>> = vec![Some(0.1 + 0.2), None, Some(-1.5), None, None];
        let bytes = encode_checkpoint(1, &values, &halted, &inbox, &[]);
        let state: ResumeState<f64, f64> = decode_checkpoint(&bytes).expect("valid image");
        for (a, b) in state.values.iter().zip(&values) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(state.inbox[0].unwrap().to_bits(), (0.1f64 + 0.2).to_bits());
    }

    #[test]
    fn every_truncation_is_detected() {
        let (_, values, halted, inbox, history) = sample_state();
        let bytes = encode_checkpoint(3, &values, &halted, &inbox, &history);
        for cut in 0..bytes.len() {
            assert!(
                decode_checkpoint::<u32, u32>(&bytes[..cut]).is_err(),
                "truncation to {cut} bytes went undetected"
            );
        }
    }

    #[test]
    fn every_single_byte_corruption_is_detected() {
        let (_, values, halted, inbox, history) = sample_state();
        let bytes = encode_checkpoint(3, &values, &halted, &inbox, &history);
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut mutated = bytes.clone();
                mutated[i] ^= 1 << bit;
                assert!(
                    decode_checkpoint::<u32, u32>(&mutated).is_err(),
                    "flip of bit {bit} at byte {i} went undetected"
                );
            }
        }
    }

    #[test]
    fn layout_mismatch_is_rejected() {
        let bytes = encode_checkpoint::<u32, u32>(0, &[1, 2], &[false, true], &[None, Some(9)], &[]);
        let err = decode_checkpoint::<u64, u32>(&bytes).unwrap_err();
        assert!(err.contains("layout mismatch"), "{err}");
    }

    #[test]
    fn disk_round_trip_and_fallback_past_corruption() {
        let dir = std::env::temp_dir().join(format!(
            "ipregel-recover-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        let cfg = CheckpointConfig::new(&dir, 2);
        let mut ck = DiskCheckpointer::<u32, u32>::open(&cfg).expect("open");
        assert!(!ck.due(0), "superstep 0 is the initial state, not worth a file");
        assert!(!ck.due(1));
        assert!(ck.due(2));

        let (_, values, halted, inbox, history) = sample_state();
        ck.save(2, &values, &halted, &inbox, &history[..1]).expect("save 2");
        ck.save(4, &values, &halted, &inbox, &history).expect("save 4");

        // Newest wins.
        let state = latest_valid::<u32, u32>(&dir).expect("resumable");
        assert_eq!(state.superstep, 4);
        assert_eq!(state.history.len(), history.len());

        // Corrupt the newest: resume falls back to superstep 2.
        let newest = dir.join("ckpt-00000004.ipck");
        let mut bytes = fs::read(&newest).expect("read newest");
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        fs::write(&newest, &bytes).expect("corrupt newest");
        let state = latest_valid::<u32, u32>(&dir).expect("fallback");
        assert_eq!(state.superstep, 2);
        assert_eq!(state.history.len(), 1);

        // A resuming checkpointer hands the state out exactly once and
        // refuses to immediately re-save its own floor.
        let mut resumed = DiskCheckpointer::<u32, u32>::open(&cfg.clone().resuming()).expect("open");
        assert!(!resumed.due(2), "must not rewrite the checkpoint it resumed from");
        assert!(resumed.due(4));
        let state = resumed.take_resume().expect("state pending");
        assert_eq!(state.superstep, 2);
        assert!(resumed.take_resume().is_none());

        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_from_empty_dir_is_an_error() {
        let dir = std::env::temp_dir().join(format!(
            "ipregel-recover-empty-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        let cfg = CheckpointConfig::new(&dir, 1).resuming();
        match DiskCheckpointer::<u32, u32>::open(&cfg) {
            Err(RunError::Resume(why)) => assert!(why.contains("no valid checkpoint"), "{why}"),
            other => panic!("expected Resume error, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_disabled_never_saves() {
        let dir = std::env::temp_dir().join(format!(
            "ipregel-recover-never-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        let ck = DiskCheckpointer::<u32, u32>::open(&CheckpointConfig::new(&dir, 0)).expect("open");
        for s in 0..64 {
            assert!(!ck.due(s));
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn persist_primitives_round_trip() {
        fn check<T: Persist + PartialEq + std::fmt::Debug>(v: T) {
            let mut buf = Vec::new();
            v.encode(&mut buf);
            assert_eq!(buf.len(), T::BYTES);
            assert_eq!(T::decode(&buf), v);
        }
        check(0xdead_beefu32);
        check(u64::MAX - 1);
        check(-123i64);
        check(1.5f32);
        check(0.15f64);
        check(true);
        check(false);
        check((7u32, 9u32));
    }

    /// An in-memory hook: hands out the state it was given, never saves.
    struct Canned(Option<ResumeState<u32, u32>>);
    impl RecoveryHooks<u32, u32> for Canned {
        fn take_resume(&mut self) -> Option<ResumeState<u32, u32>> {
            self.0.take()
        }
        fn due(&self, _superstep: usize) -> bool {
            false
        }
        fn save(
            &mut self,
            _superstep: usize,
            _values: &[u32],
            _halted: &[bool],
            _inbox: &[Option<u32>],
            _history: &[(u64, u64)],
        ) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn hooks_are_object_safe_and_dyn_usable() {
        let mut n = Canned(None);
        let dyn_hooks: DynHooks<'_, u32, u32> = &mut n;
        assert!(!dyn_hooks.due(8));
    }

    #[test]
    fn resume_state_of_the_wrong_shape_is_a_resume_error_on_every_engine() {
        use crate::engine::seq::tests::Flood;
        use crate::engine::{pull::run_pull_with, push::run_push_with, seq::try_run_sequential_recoverable};

        let mut b = ipregel_graph::GraphBuilder::new(ipregel_graph::NeighborMode::Both);
        for i in 0..4u32 {
            b.add_edge(i, (i + 1) % 4);
        }
        let g = b.build().unwrap();
        let cfg = RunConfig::default();
        // (values, halted, inbox) lengths; the graph has 4 slots.
        for lens in [(4, 4, 4), (3, 4, 4), (4, 3, 4), (4, 4, 3), (4, 5, 4), (4, 4, 9)] {
            let canned = || {
                Canned(Some(ResumeState {
                    superstep: 1,
                    values: vec![0; lens.0],
                    halted: vec![true; lens.1],
                    inbox: vec![Some(0); lens.2],
                    history: vec![(4, 4)],
                }))
            };
            let outcomes = [
                run_push_with::<_, crate::SpinMailbox<u32>>(&g, &Flood, &cfg, Some(&mut canned())),
                run_pull_with(&g, &Flood, &cfg, Some(&mut canned())),
                try_run_sequential_recoverable(&g, &Flood, &cfg, Some(&mut canned())),
            ];
            for (engine, outcome) in ["push", "pull", "seq"].iter().zip(outcomes) {
                match outcome {
                    Ok(_) => assert_eq!(lens, (4, 4, 4), "{engine} adopted a state of shape {lens:?}"),
                    Err(RunError::Resume(why)) => assert_ne!(lens, (4, 4, 4), "{engine}: {why}"),
                    Err(other) => panic!("{engine} on {lens:?}: expected RunError::Resume, got {other}"),
                }
            }
        }
    }
}
