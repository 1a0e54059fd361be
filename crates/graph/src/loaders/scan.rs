//! The byte-level scanner under all four text loaders.
//!
//! [`parse_blocks`] parses any `BufRead` in blocks, in parallel. The
//! calling thread copies whole-line blocks of about [`BLOCK`] bytes out of
//! the reader; each round of blocks, one per pool thread, is parsed on the
//! `ipregel-par` pool into per-block record buffers while the calling
//! thread appends the previous round's records to the `GraphBuilder` in
//! file order and reads the next round. A loader supplies a per-line record
//! parser over a [`Line`]: no `String`, no UTF-8 validation, no per-line
//! allocation, each field parsed in the pass that finds it. The lines in
//! front of a header that fixes the record shape go through [`head`],
//! serially. Design and costs: docs/INTERNALS.md, "Loading: scanner and
//! builder".

use std::cell::Cell;
use std::io::{BufRead, ErrorKind};

use crate::builder::GraphBuilder;
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
/// Swept on the benchmark's seed-7 inputs (wiki: 2 690 374 edges, 32 MB;
/// road: 1 823 256 arcs, 36 MB) on a 2-vCPU shared VM, global pool of two
/// threads. Load ms: `load_edge_list` / `load_dimacs_gr` through
/// `BufReader::new(File)`, `NeighborMode::Both`, build included, median
/// of 10 interleaved reps. Repeated-load `VmHWM`: eight wiki loads in one
/// process. `peak_rss_mb`: the benchmark worker on `wiki_pagerank`, three
/// runs.
///
/// | `BLOCK` | wiki load ms | road load ms | repeated-load `VmHWM` MB | `peak_rss_mb` |
/// |---|---|---|---|---|
/// | serial scanner | 121.0 | 117.5 | 48.6 or 61.3 | 100.9–101.1 |
/// | 64 KiB | 116.2 | 99.1 | 61.3 | 101.5–102.8 |
/// | 128 KiB | 115.7 | 99.5 | 61.3 | 101.4–102.8 |
/// | 256 KiB | 107.3 | 89.1 | 61.9 | 100.7–101.7 |
/// | 512 KiB | 104.6 | 83.0 | 64.3 | 102.4–102.7 |
/// | 1 MiB | 100.3 | 89.2 | 63.2 | 99.5–106.1 |
///
/// 256 KiB is the largest block whose buffers stay within the serial
/// scanner's peak; past it the loads gain a few ms and the slots hold
/// 2–3 MB more.
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
            let x = u64::from_le_bytes(*chunk) ^ 0x3030_3030_3030_3030; // digits become 0..=9
            let not_digit = (((x & 0x7f7f_7f7f_7f7f_7f7f) + 0x7676_7676_7676_7676) | x)
                & 0x8080_8080_8080_8080;
            let n = (not_digit.trailing_zeros() / 8) as usize;
            if (1..8).contains(&n) && matches!(chunk[n], b' ' | b'\t'..=b'\r') {
                // Drop what follows the digits, then sum pairs, fours, eight.
                let x = x << (8 * (8 - n));
                let x = ((x & 0x0f00_0f00_0f00_0f00) >> 8) + (x & 0x000f_000f_000f_000f) * 10;
                let x = ((x & 0x00ff_0000_00ff_0000) >> 16) + (x & 0x0000_00ff_0000_00ff) * 100;
                let x = ((x & 0x0000_ffff_0000_0000) >> 32) + (x & 0x0000_0000_0000_ffff) * 10_000;
                self.rest = &self.rest[n..];
                return Ok(x as u32);
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

/// The records one block's lines produce, in line order.
pub(crate) struct Records {
    edges: Vec<(VertexId, VertexId)>,
    /// Empty while the records are unweighted.
    weights: Vec<Weight>,
    /// Whether the block's first record is weighted, as [`Records::shape`]
    /// declared it.
    weighted: Option<bool>,
}

impl Records {
    /// Declare, before its weight is read, whether the record on the line
    /// being parsed is weighted. All records of a file must agree: within
    /// a block that is checked here, across blocks when they are merged.
    #[inline]
    pub(crate) fn shape(&mut self, weighted: bool) -> Result<(), GraphError> {
        if self.weighted.replace(weighted).is_some_and(|was| was != weighted) {
            return Err(GraphError::MixedWeightedness);
        }
        Ok(())
    }

    #[inline]
    pub(crate) fn edge(&mut self, src: VertexId, dst: VertexId) {
        self.edges.push((src, dst));
    }

    #[inline]
    pub(crate) fn weighted_edge(&mut self, src: VertexId, dst: VertexId, weight: Weight) {
        self.edges.push((src, dst));
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
    fn new(block: usize, per_line: usize) -> Slot {
        let bytes = block + MAX_LINE_BYTES + 1;
        // A record line holds two fields, a blank and a terminator.
        let records = per_line * bytes.div_ceil(4);
        Slot {
            bytes: Vec::with_capacity(bytes),
            overlong: false,
            records: Records {
                edges: Vec::with_capacity(records),
                weights: Vec::with_capacity(records),
                weighted: None,
            },
            parsed: Ok(0),
        }
    }

    /// Refill with the next lines of `reader` and make sure of room for
    /// `per_line` records per four bytes (the buffers have it, unless the
    /// block's last line runs past the cap). `Ok(false)` when nothing
    /// follows: the input ended, or a line passed the cap, which ends the
    /// load at this block.
    fn fill<R: BufRead>(
        &mut self,
        reader: &mut R,
        block: usize,
        per_line: usize,
    ) -> Result<bool, GraphError> {
        self.bytes.clear();
        self.overlong = false;
        let more = self.read(reader, block);
        let records = per_line * self.bytes.len().div_ceil(4);
        let Records { edges, weights, weighted } = &mut self.records;
        edges.clear();
        weights.clear();
        *weighted = None;
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

    /// Parse the block's lines with `parse` into its records.
    fn parse<P>(&mut self, parse: &P)
    where
        P: Fn(&mut Line<'_>, &mut Records) -> Result<(), GraphError>,
    {
        let whole = if self.overlong {
            self.bytes.iter().rposition(|&b| b == b'\n').map_or(0, |at| at + 1)
        } else {
            self.bytes.len()
        };
        self.parsed = match parse_lines(&self.bytes[..whole], &mut self.records, parse) {
            Ok(lines) if self.overlong => Err(too_long(lines + 1)),
            parsed => parsed,
        };
    }
}

/// Hand each line of `bytes` — whole lines, the last perhaps unterminated
/// — to `parse`, numbered from 1; returns how many there were.
fn parse_lines<P>(mut bytes: &[u8], records: &mut Records, parse: &P) -> Result<usize, GraphError>
where
    P: Fn(&mut Line<'_>, &mut Records) -> Result<(), GraphError>,
{
    let mut number = 0;
    while !bytes.is_empty() {
        number += 1;
        let mut line = Line { rest: bytes, number };
        parse(&mut line, records)?;
        let unread = line.rest.iter().position(|&b| b == b'\n').unwrap_or(line.rest.len());
        if bytes.len() - line.rest.len() + unread > MAX_LINE_BYTES {
            return Err(too_long(number));
        }
        bytes = &line.rest[(unread + 1).min(line.rest.len())..];
    }
    Ok(number)
}

/// Fill `round`'s slots in order while input lasts. Returns how many hold
/// lines, and whether input remains — or the read error that ended it,
/// which comes after every line in those slots.
fn fill_round<R: BufRead>(
    reader: &mut R,
    round: &mut [Slot],
    block: usize,
    per_line: usize,
) -> (usize, Result<bool, GraphError>) {
    for (at, slot) in round.iter_mut().enumerate() {
        let more = slot.fill(reader, block, per_line);
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
            self.builder.extend(&records.edges, &records.weights);
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

/// Parse every line of `reader` with `parse`, numbering them from `first`,
/// and append the records to `builder` in file order; a line adds at most
/// `per_line` records. Returns the first error in file order.
///
/// Rounds of one block per pool thread: while a round's blocks are parsed
/// on the pool, the calling thread appends the previous round's records
/// and reads the next round into the other half of `2 × threads` slots.
/// Input that fits one block is parsed on the calling thread and spawns
/// nothing.
pub(crate) fn parse_blocks<R, P>(
    mut reader: R,
    first: usize,
    builder: &mut GraphBuilder,
    per_line: usize,
    parse: P,
) -> Result<(), GraphError>
where
    R: BufRead,
    P: Fn(&mut Line<'_>, &mut Records) -> Result<(), GraphError> + Sync,
{
    let block = BLOCK_BYTES.get();
    let threads = ipregel_par::current_num_threads();
    let round = || (0..threads).map(|_| Slot::new(block, per_line)).collect::<Vec<_>>();
    let (mut current, mut previous) = (round(), round());
    let mut merge = Merge { builder, line: first, weighted: None };
    let (mut count, mut more) = fill_round(&mut reader, &mut current, block, per_line);
    // Slots of `previous` parsed last round and not merged yet.
    let mut parsed = 0;
    loop {
        let last = !matches!(more, Ok(true));
        if last && count <= 1 {
            merge.append(&mut previous[..parsed])?;
            current[..count].iter_mut().for_each(|slot| slot.parse(&parse));
            merge.append(&mut current[..count])?;
            return more.map(drop);
        }
        let next = ipregel_par::scope(|s| -> Result<_, GraphError> {
            for slot in &mut current[..count] {
                let parse = &parse;
                s.spawn(move |_| slot.parse(parse));
            }
            merge.append(&mut previous[..parsed])?;
            Ok(if last {
                (0, more)
            } else {
                fill_round(&mut reader, &mut previous, block, per_line)
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
        with_block_bytes(block, || {
            parse_blocks(reader, 1, &mut b, 1, |_, records| {
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
