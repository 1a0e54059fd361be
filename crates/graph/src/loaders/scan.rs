//! The byte-level scanner under the three text loaders.
//!
//! [`parse_blocks`] parses any `BufRead` in blocks, in parallel. The
//! calling thread copies whole-line blocks of about [`BLOCK`] bytes out of
//! the reader; each round of blocks, one per pool thread, is parsed on the
//! `ipregel-par` pool into per-block record buffers while the calling
//! thread appends the previous round's records to the `GraphBuilder` in
//! file order and reads the next round. A loader supplies a per-line record
//! parser over a [`Line`]: no `String`, no UTF-8 validation, no per-line
//! allocation, each field parsed in the pass that finds it. Beside it, a
//! record kernel takes the runs of the format's canonical lines in one
//! tight loop and hands every other line to the per-line parser. The lines in
//! front of a header that fixes the record shape go through [`head`],
//! serially. Design and costs: docs/INTERNALS.md, "Loading: scanner and
//! builder".

use std::cell::Cell;
use std::io::{BufRead, ErrorKind};

use crate::builder::{GraphBuilder, EMPTY_SPAN};
use crate::csr::Weight;
use crate::error::GraphError;
use crate::ids::VertexId;

/// Longest accepted line, terminator excluded. Bounds what a block holds
/// past [`BLOCK`]: a newline-free stream is refused after this many bytes,
/// not buffered whole.
pub(crate) const MAX_LINE_BYTES: usize = 1 << 16;

/// Bytes in a block, but for its last line: a block ends at the first
/// newline that is its `BLOCK`th byte or later.
///
/// Swept with the record kernels on the benchmark's seed-7 inputs (wiki:
/// 2 690 374 edges, 32 MB; road: 1 823 256 arcs, 36 MB) on a 2-vCPU shared
/// VM, global pool of two threads. Load ms: one `load_edge_list` /
/// `load_dimacs_gr` through `BufReader::new(File)`, `NeighborMode::Both`,
/// build included, each in a fresh process, median of 10 interleaved reps
/// (q1–q3 spans 1–5 ms). Repeated-load `VmHWM`: eight wiki loads in one
/// process. `setup_s` and `peak_rss_mb`: the benchmark worker on
/// `wiki_pagerank` with a 10 s window, three runs.
///
/// | `BLOCK` | wiki load ms | road load ms | repeated-load `VmHWM` MB | `setup_s` ms | `peak_rss_mb` |
/// |---|---|---|---|---|---|
/// | 64 KiB | 49.7 | 40.8 | 60.0 | 44.1–45.4 | 96.0–96.4 |
/// | 128 KiB | 46.4 | 39.6 | 60.1 | 42.0–42.3 | 96.1–96.4 |
/// | 256 KiB | 49.6 | 39.7 | 60.4 | 41.0–42.3 | 96.2–96.3 |
/// | 512 KiB | 50.5 | 40.0 | 62.9 | 33.6–33.9 | 96.1–96.3 |
/// | 1 MiB | 50.2 | 40.3 | 61.8 | 33.5–56.2 | 92.6–94.1 |
///
/// The loads do not move with the block. The worker's `setup_s` drop past
/// 256 KiB goes with glibc's dynamic mmap threshold, which a larger freed
/// slot raises, not with the scanner: with the threshold pinned
/// (`MALLOC_MMAP_THRESHOLD_=131072`) 256 and 512 KiB read 43.6 and
/// 42.8 ms. 256 KiB stays, the largest block whose slots hold no more than
/// the smaller ones'.
pub(crate) const BLOCK: usize = 256 << 10;

thread_local! {
    /// [`BLOCK`], unless [`with_block_bytes`] is running on this thread.
    static BLOCK_BYTES: Cell<usize> = const { Cell::new(BLOCK) };
}

/// Run `f` with the text loaders' block size set to `bytes` (at least 1)
/// for loads started on this thread — a test seam, so that block seams can
/// fall between any two lines. At 1 every line is a block of its own.
pub fn with_block_bytes<T>(bytes: usize, f: impl FnOnce() -> T) -> T {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            BLOCK_BYTES.set(self.0);
        }
    }
    let _restore = Restore(BLOCK_BYTES.replace(bytes.max(1)));
    f()
}

/// A field as error messages show it: lossily decoded, at most 32 bytes.
pub(crate) fn show(field: &[u8]) -> String {
    format!("{:?}", String::from_utf8_lossy(&field[..field.len().min(32)]))
}

#[cold]
fn too_long(line: usize) -> GraphError {
    GraphError::Parse { line, message: format!("line exceeds the {MAX_LINE_BYTES}-byte cap") }
}

/// The unread part of one line. Fields are runs of non-blank bytes, blank
/// being ASCII space, tab, CR, VT and FF — the ASCII subset of what
/// `str::split_whitespace` splits on — and are read left to right.
pub(crate) struct Line<'a> {
    /// From the read position on; the line ends at the first `\n`, or
    /// with the slice.
    rest: &'a [u8],
    /// 1-based; within its block while a block is parsed.
    number: usize,
}

impl<'a> Line<'a> {
    /// A [`GraphError::Parse`] naming this line.
    #[cold]
    pub(crate) fn error(&self, message: impl Into<String>) -> GraphError {
        GraphError::Parse { line: self.number, message: message.into() }
    }

    /// First byte of the next field, unread; `None` at the end of the line.
    #[inline]
    pub(crate) fn peek(&mut self) -> Option<u8> {
        while let [b' ' | b'\t' | 0x0b..=b'\r', tail @ ..] = self.rest {
            self.rest = tail;
        }
        self.rest.first().copied().filter(|&b| b != b'\n')
    }

    /// Whether the next field starts with `prefix` (which holds no `\n`).
    #[inline]
    pub(crate) fn starts_with(&mut self, prefix: &[u8]) -> bool {
        self.peek().is_some() && self.rest.starts_with(prefix)
    }

    /// The next field; `None` at the end of the line.
    #[inline]
    pub(crate) fn field(&mut self) -> Option<&'a [u8]> {
        self.peek()?;
        let end = self.rest.iter().position(|b| matches!(b, b' ' | b'\t'..=b'\r'));
        let (field, tail) = self.rest.split_at(end.unwrap_or(self.rest.len()));
        self.rest = tail;
        Some(field)
    }

    /// The next field as the decimal `u32` called `what`: digits with an
    /// optional leading `+`, exactly what `str::parse::<u32>` accepts.
    #[inline]
    pub(crate) fn u32(&mut self, what: &str) -> Result<u32, GraphError> {
        self.peek();
        // One to seven digits and their terminator inside the next eight
        // bytes — every id below ten million — convert without a
        // per-digit loop, whose exit the branch predictor cannot learn.
        if let Some(chunk) = self.rest.first_chunk::<8>() {
            let x = u64::from_le_bytes(*chunk) ^ ZEROS;
            let n = digit_run(x);
            if (1..8).contains(&n) && matches!(chunk[n], b' ' | b'\t'..=b'\r') {
                self.rest = &self.rest[n..];
                return Ok(digits_value(x, n));
            }
        }
        let field = self.field().ok_or_else(|| self.error(format!("missing {what}")))?;
        let digits = field.strip_prefix(b"+").unwrap_or(field);
        let value = digits.iter().try_fold(0u32, |v, &b| match b {
            b'0'..=b'9' => v.checked_mul(10)?.checked_add(u32::from(b - b'0')),
            _ => None,
        });
        value.filter(|_| !digits.is_empty()).ok_or_else(|| {
            self.error(format!("bad {what} {}: not a decimal u32", show(field)))
        })
    }
}

/// XOR with this turns eight ASCII digits, read little-endian, into the
/// byte values 0..=9.
const ZEROS: u64 = 0x3030_3030_3030_3030;

/// How many of the eight bytes of `x` (read little-endian, XORed with
/// [`ZEROS`]) are digits before the first that is not: 8 when all are.
#[inline(always)]
fn digit_run(x: u64) -> usize {
    // A byte's top bit ends up set unless it was 0..=9.
    let not_digit =
        (((x & 0x7f7f_7f7f_7f7f_7f7f) + 0x7676_7676_7676_7676) | x) & 0x8080_8080_8080_8080;
    (not_digit.trailing_zeros() / 8) as usize
}

/// The value of the first `n` (1..=7) digits of `x`, as [`digit_run`]
/// reads it.
#[inline(always)]
fn digits_value(x: u64, n: usize) -> u32 {
    // Drop what follows the digits, then sum pairs, fours, eight.
    let x = x << (8 * (8 - n));
    let x = ((x & 0x0f00_0f00_0f00_0f00) >> 8) + (x & 0x000f_000f_000f_000f) * 10;
    let x = ((x & 0x00ff_0000_00ff_0000) >> 16) + (x & 0x0000_00ff_0000_00ff) * 100;
    let x = ((x & 0x0000_ffff_0000_0000) >> 32) + (x & 0x0000_0000_0000_ffff) * 10_000;
    x as u32
}

/// A canonical field at the front of `bytes`: one to seven digits, then
/// `end`. Its value, and its length with `end`.
#[inline(always)]
fn canonical_field(bytes: &[u8], end: u8) -> Option<(u32, usize)> {
    let chunk = bytes.first_chunk::<8>()?;
    let x = u64::from_le_bytes(*chunk) ^ ZEROS;
    let n = digit_run(x);
    ((1..8).contains(&n) && chunk[n] == end).then(|| (digits_value(x, n), n + 1))
}

/// Take the canonical edge-list lines, `u␠v⏎`, at the front of `bytes`
/// into `records`, up to the first line that is not one or that starts
/// fewer than 16 bytes before the end. Returns the bytes and the lines
/// taken: a record kernel for [`parse_blocks`].
pub(crate) fn edge_list_records(bytes: &[u8], records: &mut Records) -> (usize, usize) {
    // After a weighted first record an unweighted line is an error, and
    // errors are the per-line parser's.
    if records.weighted == Some(true) {
        return (0, 0);
    }
    let (mut at, mut lines) = (0, 0);
    let (mut lo, mut hi) = records.span;
    while let Some(window) = bytes[at..].first_chunk::<16>() {
        let Some((src, a)) = canonical_field(window, b' ') else { break };
        let Some((dst, b)) = canonical_field(&window[a..], b'\n') else { break };
        records.edges.push((src, dst));
        (lo, hi) = (lo.min(src).min(dst), hi.max(src).max(dst));
        at += a + b;
        lines += 1;
    }
    if lines > 0 {
        records.weighted = Some(false);
        records.span = (lo, hi);
    }
    (at, lines)
}

/// Take the canonical DIMACS arc lines, `a␠u␠v␠w⏎`, at the front of
/// `bytes` into `records`, up to the first line that is not one or that
/// starts fewer than 32 bytes before the end. Returns the bytes and the
/// lines taken: a record kernel for [`parse_blocks`].
pub(crate) fn dimacs_records(bytes: &[u8], records: &mut Records) -> (usize, usize) {
    let (mut at, mut lines) = (0, 0);
    let (mut lo, mut hi) = records.span;
    while let Some(window) = bytes[at..].first_chunk::<32>() {
        if !window.starts_with(b"a ") {
            break;
        }
        let Some((src, a)) = canonical_field(&window[2..], b' ') else { break };
        let Some((dst, b)) = canonical_field(&window[2 + a..], b' ') else { break };
        let Some((weight, c)) = canonical_field(&window[2 + a + b..], b'\n') else { break };
        records.edges.push((src, dst));
        records.weights.push(weight);
        (lo, hi) = (lo.min(src).min(dst), hi.max(src).max(dst));
        at += 2 + a + b + c;
        lines += 1;
    }
    records.span = (lo, hi);
    (at, lines)
}

/// The records one block's lines produce, in line order.
pub(crate) struct Records {
    edges: Vec<(VertexId, VertexId)>,
    /// Empty while the records are unweighted.
    weights: Vec<Weight>,
    /// Whether the block's first record is weighted, as [`Records::shape`]
    /// declared it.
    weighted: Option<bool>,
    /// The smallest and the largest id in `edges`; [`EMPTY_SPAN`] while
    /// there are none.
    span: (VertexId, VertexId),
}

impl Records {
    fn with_capacity(records: usize) -> Records {
        Records {
            edges: Vec::with_capacity(records),
            weights: Vec::with_capacity(records),
            weighted: None,
            span: EMPTY_SPAN,
        }
    }

    /// Declare, before its weight is read, whether the record on the line
    /// being parsed is weighted. All records of a file must agree: within
    /// a block that is checked here, across blocks when they are merged.
    #[inline]
    pub(crate) fn shape(&mut self, weighted: bool) -> Result<(), GraphError> {
        // The first record's shape stays: the merge reads it as the
        // shape of every edge the block produced before its error.
        if *self.weighted.get_or_insert(weighted) != weighted {
            return Err(GraphError::MixedWeightedness);
        }
        Ok(())
    }

    #[inline]
    pub(crate) fn edge(&mut self, src: VertexId, dst: VertexId) {
        self.edges.push((src, dst));
        let (lo, hi) = self.span;
        self.span = (lo.min(src).min(dst), hi.max(src).max(dst));
    }

    #[inline]
    pub(crate) fn weighted_edge(&mut self, src: VertexId, dst: VertexId, weight: Weight) {
        self.edge(src, dst);
        self.weights.push(weight);
    }
}

/// One block in flight and what parsing it produced. The calling thread
/// allocates every buffer here, at full size, before the first round: a
/// pool task that parses the block only writes into capacity reserved
/// for it, and nothing is allocated between the builder's growing edge
/// vector and the heap's end, where the vector can grow in place.
struct Slot {
    /// Whole lines; when `overlong`, followed by the first
    /// `MAX_LINE_BYTES + 1` bytes of a line that passes the cap.
    bytes: Vec<u8>,
    overlong: bool,
    records: Records,
    /// How many lines the block holds, or its first error, whose line is
    /// numbered from 1 within the block.
    parsed: Result<usize, GraphError>,
}

impl Slot {
    fn new(block: usize) -> Slot {
        let bytes = block + MAX_LINE_BYTES + 1;
        // A record line holds two fields, a blank and a terminator.
        let records = bytes.div_ceil(4);
        Slot {
            bytes: Vec::with_capacity(bytes),
            overlong: false,
            records: Records::with_capacity(records),
            parsed: Ok(0),
        }
    }

    /// Refill with the next lines of `reader` and make sure of room for
    /// one record per four bytes (the buffers have it, unless the block's
    /// last line runs past the cap). `Ok(false)` when nothing follows: the
    /// input ended, or a line passed the cap, which ends the load at this
    /// block.
    fn fill<R: BufRead>(&mut self, reader: &mut R, block: usize) -> Result<bool, GraphError> {
        self.bytes.clear();
        self.overlong = false;
        let more = self.read(reader, block);
        let records = self.bytes.len().div_ceil(4);
        let Records { edges, weights, weighted, span } = &mut self.records;
        edges.clear();
        weights.clear();
        *weighted = None;
        *span = EMPTY_SPAN;
        edges.reserve(records);
        weights.reserve(records);
        more
    }

    /// Copy whole lines out of `reader`: `block` bytes, then on to the end
    /// of the line that crosses them, or to the end of the input. A line is
    /// checked against the cap as it is copied, so an endless one costs
    /// `MAX_LINE_BYTES` and one reader chunk, never more.
    fn read<R: BufRead>(&mut self, reader: &mut R, block: usize) -> Result<bool, GraphError> {
        // Bytes of the last line so far, which no newline has ended yet.
        let mut open = 0;
        loop {
            let chunk = match reader.fill_buf() {
                Ok(chunk) => chunk,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => {
                    // The lines that arrived whole are still parsed first.
                    self.bytes.truncate(self.bytes.len() - open);
                    return Err(e.into());
                }
            };
            if chunk.is_empty() {
                return Ok(false);
            }
            // The block ends at the first newline that is its `block`th
            // byte or later.
            let from = block.saturating_sub(self.bytes.len() + 1);
            let newline = chunk.get(from..).and_then(|past| past.iter().position(|&b| b == b'\n'));
            let mut end = newline.map_or(chunk.len(), |at| from + at + 1);
            open = match chunk[..end].iter().rposition(|&b| b == b'\n') {
                Some(at) => end - at - 1,
                None => open + end,
            };
            let overlong = open > MAX_LINE_BYTES;
            if overlong {
                // Take just enough of the line to show it is over the cap.
                end -= open - (MAX_LINE_BYTES + 1);
            }
            self.bytes.extend_from_slice(&chunk[..end]);
            reader.consume(end);
            if overlong {
                self.overlong = true;
                return Ok(false);
            }
            if open == 0 && self.bytes.len() >= block {
                return Ok(true);
            }
        }
    }

    /// Parse the block's lines with `kernel` and `parse` into its records.
    fn parse<K, P>(&mut self, kernel: &K, parse: &P)
    where
        K: Fn(&[u8], &mut Records) -> (usize, usize),
        P: Fn(&mut Line<'_>, &mut Records) -> Result<(), GraphError>,
    {
        let whole = if self.overlong {
            self.bytes.iter().rposition(|&b| b == b'\n').map_or(0, |at| at + 1)
        } else {
            self.bytes.len()
        };
        self.parsed = match parse_lines(&self.bytes[..whole], &mut self.records, kernel, parse) {
            Ok(lines) if self.overlong => Err(too_long(lines + 1)),
            parsed => parsed,
        };
    }
}

/// Parse `bytes` — whole lines, the last perhaps unterminated — into
/// `records`: each run of lines that `kernel` takes, and each line it
/// refuses handed to `parse`, numbered from 1. Returns how many lines there
/// were.
fn parse_lines<K, P>(
    mut bytes: &[u8],
    records: &mut Records,
    kernel: &K,
    parse: &P,
) -> Result<usize, GraphError>
where
    K: Fn(&[u8], &mut Records) -> (usize, usize),
    P: Fn(&mut Line<'_>, &mut Records) -> Result<(), GraphError>,
{
    let mut number = 0;
    loop {
        let (taken, lines) = kernel(bytes, records);
        bytes = &bytes[taken..];
        number += lines;
        if bytes.is_empty() {
            return Ok(number);
        }
        number += 1;
        let mut line = Line { rest: bytes, number };
        parse(&mut line, records)?;
        let unread = line.rest.iter().position(|&b| b == b'\n').unwrap_or(line.rest.len());
        if bytes.len() - line.rest.len() + unread > MAX_LINE_BYTES {
            return Err(too_long(number));
        }
        bytes = &line.rest[(unread + 1).min(line.rest.len())..];
    }
}

/// Fill `round`'s slots in order while input lasts. Returns how many hold
/// lines, and whether input remains — or the read error that ended it,
/// which comes after every line in those slots.
fn fill_round<R: BufRead>(
    reader: &mut R,
    round: &mut [Slot],
    block: usize,
) -> (usize, Result<bool, GraphError>) {
    for (at, slot) in round.iter_mut().enumerate() {
        let more = slot.fill(reader, block);
        if !matches!(more, Ok(true)) {
            return (at + usize::from(!slot.bytes.is_empty()), more);
        }
    }
    (round.len(), Ok(true))
}

/// Appends parsed blocks to the builder in file order.
struct Merge<'b> {
    builder: &'b mut GraphBuilder,
    /// Number of the next block's first line.
    line: usize,
    /// Whether the records so far are weighted.
    weighted: Option<bool>,
}

impl Merge<'_> {
    /// Append the records of `slots`, in order, up to the first error.
    fn append(&mut self, slots: &mut [Slot]) -> Result<(), GraphError> {
        for slot in slots {
            let records = &slot.records;
            if let Some(weighted) = records.weighted {
                if self.weighted.replace(weighted).is_some_and(|was| was != weighted) {
                    return Err(GraphError::MixedWeightedness);
                }
            }
            self.builder.extend(&records.edges, &records.weights, records.span);
            match std::mem::replace(&mut slot.parsed, Ok(0)) {
                Ok(lines) => self.line += lines,
                Err(GraphError::Parse { line, message }) => {
                    return Err(GraphError::Parse { line: self.line + line - 1, message })
                }
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }
}

/// Parse every line of `reader`, numbering them from `first`, and append
/// the records to `builder` in file order; a line adds at most one record.
/// Returns the first error in file order.
///
/// `kernel` — [`edge_list_records`] or [`dimacs_records`] — takes the runs
/// of a format's canonical record lines whole and returns the bytes and
/// lines it took; each line it refuses goes to `parse`, and the
/// kernel resumes after it. Either way a line makes the same record, so the
/// kernel decides how fast a block parses, never what it holds.
///
/// Rounds of one block per pool thread: while a round's blocks are parsed
/// on the pool, the calling thread appends the previous round's records
/// and reads the next round into the other half of `2 × threads` slots.
/// Input that fits one block is parsed on the calling thread and spawns
/// nothing.
pub(crate) fn parse_blocks<R, K, P>(
    mut reader: R,
    first: usize,
    builder: &mut GraphBuilder,
    kernel: K,
    parse: P,
) -> Result<(), GraphError>
where
    R: BufRead,
    K: Fn(&[u8], &mut Records) -> (usize, usize) + Sync,
    P: Fn(&mut Line<'_>, &mut Records) -> Result<(), GraphError> + Sync,
{
    let block = BLOCK_BYTES.get();
    let threads = ipregel_par::current_num_threads();
    let round = || (0..threads).map(|_| Slot::new(block)).collect::<Vec<_>>();
    let (mut current, mut previous) = (round(), round());
    let mut merge = Merge { builder, line: first, weighted: None };
    let (mut count, mut more) = fill_round(&mut reader, &mut current, block);
    // Slots of `previous` parsed last round and not merged yet.
    let mut parsed = 0;
    loop {
        let last = !matches!(more, Ok(true));
        if last && count <= 1 {
            merge.append(&mut previous[..parsed])?;
            current[..count].iter_mut().for_each(|slot| slot.parse(&kernel, &parse));
            merge.append(&mut current[..count])?;
            return more.map(drop);
        }
        let next = ipregel_par::scope(|s| -> Result<_, GraphError> {
            for slot in &mut current[..count] {
                let (kernel, parse) = (&kernel, &parse);
                s.spawn(move |_| slot.parse(kernel, parse));
            }
            merge.append(&mut previous[..parsed])?;
            Ok(if last {
                (0, more)
            } else {
                fill_round(&mut reader, &mut previous, block)
            })
        })?;
        std::mem::swap(&mut current, &mut previous);
        parsed = count;
        (count, more) = next;
    }
}

/// Hand the lines of `reader` to `on_line` one at a time, on the calling
/// thread, until it returns a value: the lines up to the header that fixes
/// a format's record shape. Reads nothing past that line. Returns the
/// value — `None` if the input ended first — and the next line's number.
pub(crate) fn head<R: BufRead, T>(
    reader: &mut R,
    mut on_line: impl FnMut(&mut Line<'_>) -> Result<Option<T>, GraphError>,
) -> Result<(Option<T>, usize), GraphError> {
    let mut bytes = Vec::new();
    let mut number = 1;
    loop {
        bytes.clear();
        read_line(reader, &mut bytes, number)?;
        if bytes.is_empty() {
            return Ok((None, number));
        }
        if let Some(found) = on_line(&mut Line { rest: &bytes, number })? {
            return Ok((Some(found), number + 1));
        }
        number += 1;
    }
}

/// Append the next line of `reader`, terminator included, to `bytes`;
/// refused as line `number` as soon as it passes the cap.
fn read_line<R: BufRead>(
    reader: &mut R,
    bytes: &mut Vec<u8>,
    number: usize,
) -> Result<(), GraphError> {
    loop {
        let chunk = match reader.fill_buf() {
            Ok(chunk) => chunk,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        };
        let newline = chunk.iter().position(|&b| b == b'\n');
        if bytes.len() + newline.unwrap_or(chunk.len()) > MAX_LINE_BYTES {
            return Err(too_long(number));
        }
        let end = newline.map_or(chunk.len(), |at| at + 1);
        bytes.extend_from_slice(&chunk[..end]);
        reader.consume(end);
        if newline.is_some() || end == 0 {
            return Ok(());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NeighborMode;
    use std::io::BufReader;

    /// Line number and fields, per line.
    type Seen = Vec<(usize, Vec<Vec<u8>>)>;

    /// Every line as [`head`] hands it out, read in `reads`-byte reads.
    fn lines_of(reads: usize, text: &[u8]) -> Result<Seen, GraphError> {
        let mut seen = Vec::new();
        let (none, next) = head(&mut BufReader::with_capacity(reads, text), |line| {
            let fields = std::iter::from_fn(|| line.field()).map(<[u8]>::to_vec).collect();
            seen.push((line.number, fields));
            Ok(None::<()>)
        })?;
        assert!(none.is_none());
        assert_eq!(next, seen.len() + 1);
        Ok(seen)
    }

    /// How many lines [`parse_blocks`] parses, read in `reads`-byte reads
    /// and cut into `block`-byte blocks.
    fn blocks_of(reads: usize, block: usize, text: &[u8]) -> Result<usize, GraphError> {
        let mut b = GraphBuilder::new(NeighborMode::OutOnly);
        let reader = BufReader::with_capacity(reads, text);
        let no_kernel = |_: &[u8], _: &mut Records| (0, 0);
        with_block_bytes(block, || {
            parse_blocks(reader, 1, &mut b, no_kernel, |_, records| {
                records.edge(0, 0);
                Ok(())
            })
        })?;
        Ok(b.num_edges())
    }

    #[test]
    fn lines_and_fields_do_not_depend_on_the_block_size() {
        let text = b"a  b\tc\r\n\n \x0b d\nlast";
        let expected: Seen = vec![
            (1, vec![b"a".to_vec(), b"b".to_vec(), b"c".to_vec()]),
            (2, vec![]),
            (3, vec![b"d".to_vec()]),
            (4, vec![b"last".to_vec()]),
        ];
        for reads in [1, 2, 3, 7, 64] {
            assert_eq!(lines_of(reads, text).unwrap(), expected, "{reads}-byte reads");
            for block in [1, 5, 1 << 10] {
                assert_eq!(blocks_of(reads, block, text).unwrap(), 4, "{reads}/{block}");
            }
        }
        assert!(lines_of(4, b"").unwrap().is_empty());
        assert_eq!(blocks_of(4, 1, b"").unwrap(), 0);
        assert_eq!(lines_of(4, b"x\n").unwrap().len(), 1, "a final newline opens no line");
        assert_eq!(blocks_of(4, 1, b"x\n").unwrap(), 1, "a final newline opens no line");
    }

    /// Every digit count on both sides of the eight-byte fast path, before
    /// every terminator, at every distance from the end of the block.
    #[test]
    fn u32_agrees_with_str_parse() {
        let mut numbers: Vec<String> = ["+", "", "1x", "x1", "-1"].map(String::from).to_vec();
        for digits in 1..=11 {
            numbers.push("1234567890123"[..digits].to_string());
            numbers.push("9".repeat(digits));
            numbers.push(format!("+{}", "7".repeat(digits)));
            numbers.push(format!("{}1", "0".repeat(digits)));
        }
        numbers.extend(["4294967295".to_string(), "4294967296".to_string(), "12345x7".to_string()]);
        for number in &numbers {
            for terminator in ["", " ", "\t", "\r\n", "\n", " 5", "\n5"] {
                for padding in 0..9 {
                    let after = "9".repeat(padding * usize::from(terminator.len() > 1));
                    let text = format!("{number}{terminator}{after}");
                    let mut line = Line { rest: text.as_bytes(), number: 1 };
                    let first_line = text.split('\n').next().unwrap_or("");
                    let first_field = first_line.split_whitespace().next();
                    let expected = first_field.and_then(|field| field.parse().ok());
                    assert_eq!(line.u32("n").ok(), expected, "{text:?}");
                }
            }
        }
    }

    /// A comment line long enough that every canonical line before it
    /// starts 32 bytes or more before the block's end.
    const TAIL: &[u8] = b"# the end of the block, past every kernel's window\n";

    type Kernel = fn(&[u8], &mut Records) -> (usize, usize);

    /// Each kernel takes a block of canonical lines whole: a change that
    /// routes them to the per-line parser fails here, not only in a
    /// benchmark.
    #[test]
    fn each_kernel_takes_a_block_of_canonical_lines_whole() {
        let ids = |i: u32| (i * 7919 % 9_999_999, (i * 104_729 + 1) % 10_000_000);
        type Render = fn(u32, u32, u32) -> String;
        let kernels: [(Kernel, Render); 2] = [
            (edge_list_records, |u, v, _| format!("{u} {v}\n")),
            (dimacs_records, |u, v, w| format!("a {u} {v} {w}\n")),
        ];
        for (kernel, line) in kernels {
            let mut block = Vec::new();
            let mut expected = Vec::new();
            for i in 0..4096 {
                let (u, v) = ids(i);
                block.extend(line(u, v, i).bytes());
                expected.push((u, v));
            }
            let canonical = block.len();
            block.extend(TAIL);
            let mut records = Records::with_capacity(block.len().div_ceil(4));
            assert_eq!(kernel(&block, &mut records), (canonical, 4096));
            assert_eq!(records.edges, expected);
            let weights = if records.weights.is_empty() { 0 } else { 4096 };
            assert_eq!(records.weights, (0..weights).collect::<Vec<_>>());
            let span = expected
                .iter()
                .fold(EMPTY_SPAN, |(lo, hi), &(u, v)| (lo.min(u).min(v), hi.max(u).max(v)));
            assert_eq!(records.span, span);

            // Through the block parser, the per-line parser sees the tail only.
            let mut records = Records::with_capacity(block.len().div_ceil(4));
            let calls = Cell::new(0);
            let parse = |_: &mut Line<'_>, _: &mut Records| {
                calls.set(calls.get() + 1);
                Ok(())
            };
            assert_eq!(parse_lines(&block, &mut records, &kernel, &parse).unwrap(), 4097);
            assert_eq!((records.edges.len(), calls.get()), (4096, 1));
        }
    }

    /// Lines that neither kernel takes, and where a block's last taken
    /// line may start.
    #[test]
    fn a_kernel_refuses_what_is_not_canonical() {
        let refused: &[&[u8]] = &[
            b"# comment\n",
            b"+1 2\n",
            b"01\t2\n",
            b"1 2\r\n",
            b"12345678 2\n",
            b"1 12345678\n",
            b"1 2 3\n",
            b" 1 2\n",
            b"1  2\n",
            b"\n",
            b"a 1 2\n",
            b"a 1 2 3 4\n",
            b"a 1 2 3\r\n",
            b"a\t1 2 3\n",
            b"a 12345678 2 3\n",
            b"a 1 2 +3\n",
        ];
        for kernel in [edge_list_records as Kernel, dimacs_records] {
            for line in refused {
                let mut records = Records::with_capacity(64);
                let block = [line, &b"a 1 2 3\n1 2\n"[..], TAIL].concat();
                assert_eq!(kernel(&block, &mut records), (0, 0), "{}", show(line));
                assert!(records.edges.is_empty() && records.span == EMPTY_SPAN);
            }
        }
        // A line is taken if it starts 16 (edge list) or 32 (DIMACS) bytes
        // or more before the end.
        for (kernel, line, window) in
            [(edge_list_records as Kernel, &b"1 2\n"[..], 16), (dimacs_records, b"a 1 2 3\n", 32)]
        {
            for extra in 0..=line.len() {
                let block = [line.repeat(8), vec![b'#'; extra]].concat();
                let starts = (0..8).filter(|j| block.len() - j * line.len() >= window).count();
                let mut records = Records::with_capacity(64);
                assert_eq!(kernel(&block, &mut records), (starts * line.len(), starts));
            }
        }
        // A weighted first record leaves unweighted lines to the parser.
        let mut records = Records::with_capacity(64);
        records.shape(true).unwrap();
        assert_eq!(edge_list_records(&[&b"1 2\n"[..], TAIL].concat(), &mut records), (0, 0));
    }

    #[test]
    fn a_line_over_the_cap_is_a_parse_error_on_that_line() {
        let mut text = b"ok\n".to_vec();
        text.extend(std::iter::repeat_n(b'x', MAX_LINE_BYTES));
        text.push(b'\n');
        assert_eq!(lines_of(8192, &text).unwrap().len(), 2, "exactly the cap is accepted");
        assert_eq!(blocks_of(8192, 1, &text).unwrap(), 2, "exactly the cap is accepted");
        text.insert(3, b'x');
        for reads in [7, 8192, 1 << 20] {
            let counted = [
                lines_of(reads, &text).map(|seen| seen.len()),
                blocks_of(reads, 1, &text),
                blocks_of(reads, BLOCK, &text),
            ];
            for result in counted {
                match result {
                    Err(GraphError::Parse { line: 2, .. }) => {}
                    other => panic!("{reads}-byte reads: expected line 2 refused, got {other:?}"),
                }
            }
        }
    }
}
