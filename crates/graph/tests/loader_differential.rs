//! Differential battery for the three text loaders.
//!
//! `reference` below is the `reader.lines()` → `trim` → `split_whitespace`
//! → `str::parse` implementation the byte scanner in
//! `src/loaders/scan.rs` replaced, kept as the oracle: on every input the
//! new loader must build the same graph or fail with the same error
//! variant on the same line, whatever block size the reader hands out and
//! whatever blocks the loader cuts for its pool threads (down to one line
//! per block, through the `with_block_bytes` test seam).
//!
//! Three behaviours differ on purpose, and [`agree`] accounts for each:
//!
//! * **Non-UTF-8 bytes.** `lines()` fails the whole load with an
//!   `Io(InvalidData)` that names no line. The scanner never decodes: a
//!   bad byte inside a field is a `Parse` error on that line, and inside a
//!   comment it is skipped. The oracle is therefore fed the lossy decoding,
//!   which turns each bad byte into U+FFFD — not blank, not a digit.
//! * **Non-ASCII blanks.** `split_whitespace` also splits on U+00A0,
//!   U+2003 and friends; the scanner splits on ASCII blanks only. Inputs
//!   containing such characters are skipped.
//! * **Line length.** The scanner refuses lines over 64 KiB; `lines()`
//!   buffers any length. Generated lines stay far below the cap and the
//!   cap has its own tests at the bottom.
//!
//! The DIMACS oracle carries the same duplicate-`p`-line check as the new
//! loader (the old one silently started over, dropping the arcs so far).

use std::io::{BufRead, BufReader, Cursor, Read};

use ipregel_graph::loaders::{load_dimacs_gr, load_edge_list, load_konect, with_block_bytes};
use ipregel_graph::{Graph, GraphBuilder, GraphError, NeighborMode};
use proptest::prelude::*;

mod reference {
    use super::*;

    fn parse_num(tok: Option<&str>, line: usize, what: &str) -> Result<u32, GraphError> {
        let tok =
            tok.ok_or_else(|| GraphError::Parse { line, message: format!("missing {what}") })?;
        tok.parse::<u32>().map_err(|e| GraphError::Parse {
            line,
            message: format!("bad {what} {tok:?}: {e}"),
        })
    }

    pub fn edge_list<R: BufRead>(reader: R, mode: NeighborMode) -> Result<Graph, GraphError> {
        let mut b = GraphBuilder::new(mode);
        let mut weighted: Option<bool> = None;
        for (lineno, line) in reader.lines().enumerate() {
            let line = line?;
            let t = line.trim();
            if t.is_empty() || t.starts_with('#') || t.starts_with('%') || t.starts_with("//") {
                continue;
            }
            let mut it = t.split_whitespace();
            let src = parse_num(it.next(), lineno + 1, "source id")?;
            let dst = parse_num(it.next(), lineno + 1, "target id")?;
            match it.next() {
                Some(w) => {
                    if weighted == Some(false) {
                        return Err(GraphError::MixedWeightedness);
                    }
                    weighted = Some(true);
                    b.add_weighted_edge(src, dst, parse_num(Some(w), lineno + 1, "weight")?);
                }
                None => {
                    if weighted == Some(true) {
                        return Err(GraphError::MixedWeightedness);
                    }
                    weighted = Some(false);
                    b.add_edge(src, dst);
                }
            }
        }
        b.build()
    }

    pub fn konect<R: BufRead>(reader: R, mode: NeighborMode) -> Result<Graph, GraphError> {
        let mut b = GraphBuilder::new(mode);
        for (lineno, line) in reader.lines().enumerate() {
            let line = line?;
            let t = line.trim();
            if t.is_empty() || t.starts_with('%') {
                continue;
            }
            let mut it = t.split_whitespace();
            let src = parse_num(it.next(), lineno + 1, "source id")?;
            let dst = parse_num(it.next(), lineno + 1, "target id")?;
            b.add_edge(src, dst);
        }
        b.build()
    }

    pub fn dimacs<R: BufRead>(reader: R, mode: NeighborMode) -> Result<Graph, GraphError> {
        let mut builder: Option<GraphBuilder> = None;
        for (lineno, line) in reader.lines().enumerate() {
            let line = line?;
            let t = line.trim();
            if t.is_empty() || t.starts_with('c') {
                continue;
            }
            let mut it = t.split_whitespace();
            match it.next() {
                Some("p") => {
                    if builder.is_some() {
                        return Err(GraphError::Parse {
                            line: lineno + 1,
                            message: "second \"p\" line".to_string(),
                        });
                    }
                    let kind = it.next().unwrap_or("");
                    if kind != "sp" {
                        return Err(GraphError::Parse {
                            line: lineno + 1,
                            message: format!("unsupported problem kind {kind:?}, expected \"sp\""),
                        });
                    }
                    let n = parse_num(it.next(), lineno + 1, "vertex count")?;
                    let m = parse_num(it.next(), lineno + 1, "arc count")?;
                    let b = GraphBuilder::with_capacity(mode, (m as usize).min(1 << 20));
                    builder = Some(b.declare_id_range(1, n));
                }
                Some("a") => {
                    let b = builder.as_mut().ok_or_else(|| GraphError::Parse {
                        line: lineno + 1,
                        message: "arc line before \"p sp\" header".to_string(),
                    })?;
                    let src = parse_num(it.next(), lineno + 1, "arc source")?;
                    let dst = parse_num(it.next(), lineno + 1, "arc target")?;
                    let w = parse_num(it.next(), lineno + 1, "arc weight")?;
                    b.add_weighted_edge(src, dst, w);
                }
                Some(other) => {
                    return Err(GraphError::Parse {
                        line: lineno + 1,
                        message: format!("unknown record type {other:?}"),
                    })
                }
                None => unreachable!("blank lines filtered above"),
            }
        }
        builder.ok_or(GraphError::EmptyGraph)?.build()
    }
}

#[derive(Clone, Copy, Debug)]
enum Format {
    EdgeList,
    Konect,
    Dimacs,
}

const FORMATS: [Format; 3] = [Format::EdgeList, Format::Konect, Format::Dimacs];

impl Format {
    fn load<R: BufRead>(self, reader: R, mode: NeighborMode) -> Result<Graph, GraphError> {
        match self {
            Format::EdgeList => load_edge_list(reader, mode),
            Format::Konect => load_konect(reader, mode),
            Format::Dimacs => load_dimacs_gr(reader, mode),
        }
    }

    fn oracle(self, text: &str, mode: NeighborMode) -> Result<Graph, GraphError> {
        let reader = Cursor::new(text);
        match self {
            Format::EdgeList => reference::edge_list(reader, mode),
            Format::Konect => reference::konect(reader, mode),
            Format::Dimacs => reference::dimacs(reader, mode),
        }
    }
}

/// What must match: the whole graph, or the error with its line (messages
/// are free to differ; every other variant's fields are in its `Display`).
fn outcome(result: &Result<Graph, GraphError>) -> String {
    match result {
        Ok(g) => format!(
            "graph {:?} m={} out={:?} in={:?} degrees={:?}",
            g.address_map(),
            g.num_edges(),
            g.out_csr(),
            g.in_csr(),
            (0..g.num_slots() as u32).map(|v| g.out_degree(v)).collect::<Vec<_>>(),
        ),
        Err(GraphError::Parse { line, .. }) => format!("parse error at line {line}"),
        Err(other) => format!("error: {other}"),
    }
}

/// The sizes, in bytes, of the blocks the loaders parse in parallel:
/// `Some(1)` ends a block at every line, `Some(16)` after a line or two,
/// and `None` keeps the default, which no generated file reaches.
const LOADER_BLOCKS: [Option<usize>; 3] = [Some(1), Some(16), None];

/// `format.load` with the loader's blocks cut after `block` bytes.
fn load_in_blocks<R: BufRead>(
    format: Format,
    reader: R,
    mode: NeighborMode,
    block: Option<usize>,
) -> Result<Graph, GraphError> {
    match block {
        Some(bytes) => with_block_bytes(bytes, || format.load(reader, mode)),
        None => format.load(reader, mode),
    }
}

/// The new loader equals the oracle on `bytes`, read as one block, in
/// 7-byte blocks (every line straddles) and in `BufReader`'s default 8 KiB,
/// each parsed in every one of [`LOADER_BLOCKS`].
fn agree(format: Format, bytes: &[u8], mode: NeighborMode) -> Result<(), String> {
    let text = String::from_utf8_lossy(bytes);
    if text.chars().any(|c| c.is_whitespace() && !c.is_ascii()) {
        return Ok(());
    }
    let expected = outcome(&format.oracle(&text, mode));
    for block in LOADER_BLOCKS {
        let readers: [(&str, Box<dyn BufRead + '_>); 3] = [
            ("one block", Box::new(Cursor::new(bytes))),
            ("7-byte blocks", Box::new(BufReader::with_capacity(7, bytes))),
            ("8 KiB blocks", Box::new(BufReader::new(bytes))),
        ];
        for (name, reader) in readers {
            let got = outcome(&load_in_blocks(format, reader, mode, block));
            if got != expected {
                return Err(format!(
                    "{format:?} in {name}, loader blocks of {block:?} bytes, on {:?}:\n  \
                     new:    {got}\n  oracle: {expected}",
                    String::from_utf8_lossy(bytes)
                ));
            }
        }
    }
    Ok(())
}

/// Field-level hostility: what a number can look like.
const NUMBERS: &[&[u8]] = &[
    b"+7", b"007", b"4294967295", b"4294967296", b"99999999999999999999", b"-3", b"1e3", b"0.5",
    b"+", b"x", b"1x", b"0001234", b"00012345", b"000123456", b"\xff", b"3\xc3\xa9", b"/", b"//",
    b"/1", b"inf", b"nan", b"7.0", b"1e400",
];
const BLANKS: &[&[u8]] = &[b" ", b" ", b"\t", b"  \t ", b"\r", b"\x0b", b"\x0c "];
const ENDS: &[&[u8]] = &[b"\n", b"\n", b"\r\n", b"\n\n", b" \n", b"\n \t\n"];
/// Whole lines no format expects where they appear.
const STRAYS: &[&[u8]] = &[
    b"# hash comment", b"% percent comment", b"// slash comment", b"c dimacs comment", b"cat",
    b"p sp 9 9", b"p max 3 3", b"p", b"a 1 2", b"a", b"ab 1 2 3", b"1", b"1 2 3 4", b"\xff\xfe",
    b"% caf\xc3\xa9 \xff", b"%%MatrixMarket matrix coordinate pattern general", b"",
];

/// One generated line: an edge, decorated by the selectors in `picks`.
type Row = (u32, u32, u32, [u8; 6]);

fn arb_rows() -> impl Strategy<Value = Vec<Row>> {
    let picks = (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>())
        .prop_map(|(a, b, c, d, e, f)| [a, b, c, d, e, f]);
    prop::collection::vec((1u32..3000, 1u32..3000, 0u32..100_000, picks), 0..40)
}

fn pick<'a>(table: &[&'a [u8]], selector: u8) -> &'a [u8] {
    table[selector as usize % table.len()]
}

/// Render `rows` as a file of `format`: mostly well-formed, with one line
/// in eight replaced by a stray and one field in eight by a hostile number.
fn render(format: Format, rows: &[Row], weighted: bool, terminated: bool) -> Vec<u8> {
    let mut out: Vec<u8> = Vec::new();
    match format {
        Format::EdgeList | Format::Konect => out.extend_from_slice(b"% a header comment\n"),
        Format::Dimacs => {
            out.extend_from_slice(format!("c road\np sp 3000 {}\n", rows.len()).as_bytes())
        }
    }
    for &(src, dst, weight, picks) in rows {
        if picks[0] % 8 == 0 {
            out.extend_from_slice(pick(STRAYS, picks[1]));
        } else {
            let mut fields: Vec<Vec<u8>> = vec![src.to_string().into(), dst.to_string().into()];
            // One row in sixteen flips weightedness: MixedWeightedness in
            // an edge list, a missing or surplus field elsewhere.
            if weighted != (picks[0] % 16 == 1) || matches!(format, Format::Dimacs) {
                fields.push(weight.to_string().into());
            }
            if picks[2] % 8 == 0 {
                let at = picks[3] as usize % fields.len();
                fields[at] = pick(NUMBERS, picks[4]).to_vec();
            }
            if matches!(format, Format::Dimacs) {
                fields.insert(0, b"a".to_vec());
            }
            if picks[5] % 4 == 0 {
                out.extend_from_slice(pick(BLANKS, picks[5] / 4));
            }
            out.extend_from_slice(&fields.join(pick(BLANKS, picks[1])));
        }
        out.extend_from_slice(pick(ENDS, picks[2] / 8));
    }
    if !terminated {
        while out.last().is_some_and(|b| b.is_ascii_whitespace()) {
            out.pop();
        }
    }
    out
}

fn mode_of(selector: u8) -> NeighborMode {
    [NeighborMode::Both, NeighborMode::OutOnly, NeighborMode::InOnly][selector as usize % 3]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 192, ..ProptestConfig::default() })]

    #[test]
    fn generated_files_load_like_the_reference(
        rows in arb_rows(),
        weighted in any::<bool>(),
        terminated in any::<bool>(),
        mode in any::<u8>(),
    ) {
        for format in FORMATS {
            let file = render(format, &rows, weighted, terminated);
            if let Err(why) = agree(format, &file, mode_of(mode)) {
                prop_assert!(false, "{}", why);
            }
        }
    }

    /// Lines nobody would write: strays, hostile numbers, blanks and line
    /// ends in any order, so headers go missing, repeat or arrive late.
    /// (A number is always followed by a blank or a line end: two glued
    /// together could name a vertex in the billions, and the loaders size
    /// their arrays by the largest id they are shown.)
    #[test]
    fn token_soup_fails_like_the_reference(
        soup in prop::collection::vec((0u8..5, any::<u8>(), any::<u8>()), 0..60),
        mode in any::<u8>(),
    ) {
        let mut file: Vec<u8> = Vec::new();
        for (table, selector, after) in soup {
            match table {
                0 => file.extend_from_slice(pick(NUMBERS, selector)),
                1 => file.extend_from_slice((u32::from(selector) % 12).to_string().as_bytes()),
                2 => file.extend_from_slice(pick(STRAYS, selector)),
                3 => file.extend_from_slice(pick(BLANKS, selector)),
                _ => file.extend_from_slice(pick(ENDS, selector)),
            }
            match table {
                0 | 1 if after % 3 > 0 => file.extend_from_slice(pick(BLANKS, after)),
                0..=2 => file.extend_from_slice(pick(ENDS, after)),
                _ => {}
            }
        }
        for format in FORMATS {
            if let Err(why) = agree(format, &file, mode_of(mode)) {
                prop_assert!(false, "{}", why);
            }
        }
    }

    #[test]
    fn arbitrary_bytes_fail_like_the_reference(
        bytes in prop::collection::vec(any::<u8>(), 0..200),
    ) {
        for format in FORMATS {
            if let Err(why) = agree(format, &bytes, NeighborMode::Both) {
                prop_assert!(false, "{}", why);
            }
        }
    }
}

/// The named hostile cases of the issue, one by one, so a failure names
/// its case rather than a seed.
#[test]
fn hostile_cases_load_like_the_reference() {
    let edge_lists: &[&[u8]] = &[
        b"1 2\r\n2 3\r\n",                          // CRLF
        b"1\t2\n2 \t  3\n",                         // tabs and runs of blanks
        b"1 2\n2 3",                                // no trailing newline
        b"+1 +2\n",                                 // leading +
        b"1 4294967296\n",                          // u32 overflow
        b"1 4294967295\n",                          // ... and the largest that fits
        b"1 2\n\xff 3\n",                           // non-UTF-8 in a field
        b"# caf\xe9\n1 2\n",                        // non-UTF-8 in a comment
        b"#c\n%c\n//c\n / \n",                      // every comment form, then a lone slash
        b"1 2 3\n2 3\n",                            // mixed weightedness
        b"1 2\n2 3 4\n",
        b"1 2\r3 4\n",                              // a CR inside a line is a blank
        b"",
        b"\n\n",
    ];
    for file in edge_lists {
        agree(Format::EdgeList, file, NeighborMode::Both).unwrap();
        agree(Format::Konect, file, NeighborMode::Both).unwrap();
    }
    let dimacs: &[&[u8]] = &[
        b"c x\np sp 3 2\na 1 2 5\na 2 3 6\n",
        b"p sp 3 1\r\na 1 2 5",
        b"p sp 3 1\na 1 2\n",
        b"p sp 3 1\na 1 2 4294967296\n",
        b"p sp 3 1\na 1 9 1\n",                     // outside the declared range
        b"p sp 3 1\na 1 2 5\np sp 3 1\na 2 3 6\n",  // second header
        b"a 1 2 3\n",
        b"p\n",
        b"px sp 1 1\n",
        b"p sp 0 0\n",
    ];
    for file in dimacs {
        agree(Format::Dimacs, file, NeighborMode::Both).unwrap();
    }
}

/// `format` on `file` (which must also agree with the oracle in every
/// block size), parsed in `block`-byte loader blocks.
fn at_seams(format: Format, file: &[u8], block: usize) -> Result<Graph, GraphError> {
    agree(format, file, NeighborMode::Both).unwrap();
    load_in_blocks(format, Cursor::new(file), NeighborMode::Both, Some(block))
}

/// The state that crosses a loader block seam, case by case. At the block
/// size given the seam falls where the comment says; at size 1 (which
/// `at_seams` also runs, through `agree`) it falls between every two lines.
#[test]
fn block_seams_load_like_the_reference() {
    use Format::{Dimacs, EdgeList};
    let parse_error_at = |result: Result<Graph, GraphError>| match result {
        Err(GraphError::Parse { line, .. }) => line,
        other => panic!("expected a parse error, got {other:?}"),
    };

    // Weightedness: an unweighted block then a weighted one, the other way
    // round, and a block of comments between the two.
    let files: [(&[u8], usize); 3] = [
        (b"1 2\n2 3\n3 4 5\n4 5 6\n", 8),
        (b"1 2 5\n2 3 6\n3 4\n4 5\n", 8),
        (b"1 2\n# c\n# c\n3 4 5\n", 1),
    ];
    for (file, block) in files {
        for block in [1, block] {
            let got = at_seams(EdgeList, file, block);
            assert!(matches!(got, Err(GraphError::MixedWeightedness)), "{file:?}: {got:?}");
        }
    }

    // The second block's error is on its first line, the first block's on
    // its third: parsed side by side, the earlier line in the file wins.
    let file = b"1 2\n2 3\nx 4\ny 5\n1 2\n";
    for block in [1, 12] {
        assert_eq!(parse_error_at(at_seams(EdgeList, file, block)), 3, "{block}-byte blocks");
    }

    // A second `p` line, blocks after the first.
    let mut file = b"p sp 4 8\n".to_vec();
    for i in 0..6u32 {
        file.extend_from_slice(format!("a {} {} 1\n", 1 + i % 4, 1 + (i + 1) % 4).as_bytes());
    }
    file.extend_from_slice(b"p sp 4 8\na 1 2 3\n");
    for block in [1, 16] {
        assert_eq!(parse_error_at(at_seams(Dimacs, &file, block)), 8, "{block}-byte blocks");
    }

    // A header that arrives in the second block, after a block of
    // comments: the lines after it are numbered from the top of the file.
    let file = b"c a road\nc of three\nc nodes\np sp 3 2\na 1 2 5\na 2 x 6\n";
    for block in [1, 16] {
        assert_eq!(parse_error_at(at_seams(Dimacs, file, block)), 6, "{block}-byte blocks");
    }
}

/// A load reaches the pool only when its file spans more than one block,
/// and the graph it builds does not depend on the pool's size.
#[test]
fn only_a_multi_block_load_reaches_the_pool() {
    let file: Vec<u8> =
        (0..2000u32).flat_map(|i| format!("{} {}\n", i, (i * 7) % 2000).into_bytes()).collect();
    let expected = outcome(&load_edge_list(Cursor::new(&file), NeighborMode::OutOnly));
    for threads in [1, 2, 4] {
        let pool = ipregel_par::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
        // Inside `install` the load forks on `pool`, whose counter no
        // other test moves; out-neighbours only, so that the build, which
        // forks for two directions, adds nothing to it.
        let load = |block| {
            pool.install(|| {
                let before = ipregel_par::current_pool_stats().spawned;
                let reader = Cursor::new(&file);
                let g = load_in_blocks(Format::EdgeList, reader, NeighborMode::OutOnly, block);
                (outcome(&g), ipregel_par::current_pool_stats().spawned - before)
            })
        };
        let (whole, spawned) = load(None);
        assert_eq!(whole, expected, "{threads} threads, one block");
        assert_eq!(spawned, 0, "{threads} threads: a file under one block must not reach the pool");
        // Lines of at most ten bytes: each block is 1024 to 1033 bytes.
        // One job per block, but the last one when it is parsed inline.
        let (split, spawned) = load(Some(1024));
        assert_eq!(split, expected, "{threads} threads, 1 KiB blocks");
        let blocks = file.len().div_ceil(1024);
        assert!(
            (blocks - 2..=blocks).contains(&(spawned as usize)),
            "{threads} threads: {spawned} jobs for a file of about {blocks} blocks"
        );
    }
}

/// A file of short lines, padded so that one line holds both byte 8191
/// and byte 8192: the seam between `BufReader`'s first two blocks.
#[test]
fn a_line_across_the_8k_block_seam_loads_like_the_reference() {
    let body: String = (0..2000u32).map(|i| format!("{} {}\n", i, (i * 7) % 2000)).collect();
    let file = (0..16)
        .map(|pad| format!("#{}\n{body}", "x".repeat(pad)).into_bytes())
        .find(|f| f[8190] != b'\n' && f[8191] != b'\n' && f[8192] != b'\n')
        .expect("some padding puts the seam inside a line");
    agree(Format::EdgeList, &file, NeighborMode::Both).unwrap();
    let g = load_edge_list(BufReader::new(&file[..]), NeighborMode::Both).unwrap();
    assert_eq!(g.num_edges(), 2000);
}

/// Counts what the loader took from the stream.
struct Metered<R> {
    inner: R,
    consumed: usize,
}

impl<R: Read> Read for Metered<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.inner.read(buf)
    }
}

impl<R: BufRead> BufRead for Metered<R> {
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        self.inner.fill_buf()
    }
    fn consume(&mut self, amount: usize) {
        self.consumed += amount;
        self.inner.consume(amount);
    }
}

/// A megabyte without a newline is a typed error on the line it starts
/// on, raised once the 64 KiB cap is passed: the loader stops reading
/// there, so nothing it holds can have grown with the line.
#[test]
fn a_megabyte_line_is_refused_at_the_cap() {
    let endless = vec![b'7'; 1 << 20];
    let headers: [(Format, &[u8]); 3] = [
        (Format::EdgeList, b"1 2\n"),
        (Format::Konect, b"1 2\n"),
        (Format::Dimacs, b"p sp 9 9\n"),
    ];
    for (format, header) in headers {
        for comment in [false, true] {
            let mut file = header.to_vec();
            if comment {
                let comment: &[u8] = if matches!(format, Format::Dimacs) { b"c " } else { b"% " };
                file.extend_from_slice(comment);
            }
            file.extend_from_slice(&endless);
            let mut reader = Metered { inner: BufReader::new(&file[..]), consumed: 0 };
            match format.load(&mut reader, NeighborMode::Both) {
                Err(GraphError::Parse { line: 2, .. }) => {}
                other => panic!("{format:?}: expected a parse error at line 2, got {other:?}"),
            }
            assert!(
                reader.consumed <= (1 << 16) + (8 << 10),
                "{format:?}: read {} bytes of an over-long line",
                reader.consumed
            );
            // One block holding the whole file: same error, nothing copied.
            assert!(matches!(
                format.load(Cursor::new(&file), NeighborMode::Both),
                Err(GraphError::Parse { line: 2, .. })
            ));
        }
    }
}

/// A file of `format` whose record lines around `case` are canonical —
/// `u v` or `a u v w`, single spaces, one to eight digits — so that the
/// record kernels take a run, hand `case`'s lines to the per-line parser
/// and take up again after them. Ids are `base` to `base + 39`, and a
/// DIMACS header declares 1 to 40.
fn among_canonical(format: Format, base: u32, case: &[u8]) -> Vec<u8> {
    let line = |i: u32| {
        let (u, v) = (base + i % 40, base + i * 7 % 40);
        match format {
            Format::Dimacs => format!("a {u} {v} {}\n", i * 977),
            _ => format!("{u} {v}\n"),
        }
    };
    let mut file = match format {
        Format::Dimacs => b"p sp 40 24\n".to_vec(),
        _ => Vec::new(),
    };
    file.extend((0..12).flat_map(|i| line(i).into_bytes()));
    file.extend_from_slice(case);
    file.extend((12..24).flat_map(|i| line(i).into_bytes()));
    file
}

/// Lines next to the record kernels' edges, each between runs of canonical
/// lines: where the kernel must stop, the per-line parser must make the
/// record or the error the oracle makes.
#[test]
fn record_kernel_edges_load_like_the_reference() {
    use Format::{Dimacs, EdgeList, Konect};
    let edge_lists: &[&[u8]] = &[
        b"",
        b"+1 2\n",                      // leading +
        b"1 +2\n",
        b"0000001 2\n",                 // leading zeros, seven digits in all
        b"00000001 2\n",                // ... and eight
        b"1 0000002\n",
        b"1 2\r\n3 4\r\n",              // CRLF
        b"1\t2\n",                      // tab
        b"1 2 \n",                      // trailing blanks
        b"1 2\t\n",
        b"  \n",
        b"1 2 3\n",                     // a weight after unweighted lines
        b"1  2\n",
        b"# comment\n% comment\n",
        b"x 4\n",
    ];
    for &case in edge_lists {
        agree(EdgeList, &among_canonical(EdgeList, 1, case), NeighborMode::Both).unwrap();
        agree(Konect, &among_canonical(Konect, 1, case), NeighborMode::Both).unwrap();
    }
    // Ids of seven digits, the kernel's widest field, and of eight, past the
    // eight-byte conversion, kept close together so that the arrays stay
    // small: the run holds 9 999 990 to 10 000 029.
    let wide: &[&[u8]] = &[
        b"",
        b"9999999 9999998\n",
        b"9999999 10000000\n",
        b"10000000 9999999\n",
        b"10000001 10000002\n",
        b"10000000 9999999 5\n",
    ];
    for &case in wide {
        agree(EdgeList, &among_canonical(EdgeList, 9_999_990, case), NeighborMode::Both).unwrap();
    }
    let dimacs: &[&[u8]] = &[
        b"",
        b"a 1 2 9999999\n",             // seven-digit weight
        b"a 1 2 10000000\n",            // eight-digit weight
        b"a 1 2 00000003\n",
        b"a 0000001 2 3\n",
        b"a +1 2 3\n",
        b"a 1 2 3 4\n",                 // a fourth field
        b"a 1 2 3\r\n",
        b"a\t1 2 3\n",
        b"a 1 2 3 \n",
        b"a  1 2 3\n",
        b"c comment\n",
        b"a 1 41 3\n",                  // outside the declared range
        b"a 1 10000000 3\n",            // ... with an eight-digit id
        b"a 41 1 3\n",
        b"a 1 2\n",                     // no weight
        b"ab 1 2 3\n",
    ];
    for &case in dimacs {
        agree(Dimacs, &among_canonical(Dimacs, 1, case), NeighborMode::Both).unwrap();
    }

    // The error after a kernel run names its line in the file, in one block
    // and in blocks that cut the run.
    for format in [EdgeList, Konect, Dimacs] {
        let bad: &[u8] = if matches!(format, Dimacs) { b"a 1 x 3\n" } else { b"1 x\n" };
        let file = among_canonical(format, 1, bad);
        let line = 13 + usize::from(matches!(format, Dimacs));
        for block in [None, Some(1), Some(16), Some(40), Some(64)] {
            match load_in_blocks(format, Cursor::new(&file), NeighborMode::Both, block) {
                Err(GraphError::Parse { line: at, .. }) if at == line => {}
                other => panic!("{format:?}, {block:?}-byte blocks: line {line}? {other:?}"),
            }
        }
    }
    // A weighted line in the block of the unweighted lines the kernel took.
    let file = among_canonical(EdgeList, 1, b"1 2 3\n");
    for block in [None, Some(64)] {
        let got = load_in_blocks(EdgeList, Cursor::new(&file), NeighborMode::Both, block);
        assert!(matches!(got, Err(GraphError::MixedWeightedness)), "{block:?}: {got:?}");
    }
}

/// Canonical records that end 1 to 32 bytes (and more) before a block's
/// end: a kernel stops 16 (edge list) or 32 (DIMACS) bytes short of it and
/// leaves the last lines to the per-line parser, at every offset that a
/// block size from 1 to 96 bytes puts the end at.
#[test]
fn canonical_records_near_a_block_end_load_like_the_reference() {
    let files = [
        (Format::EdgeList, among_canonical(Format::EdgeList, 1, b"")),
        (Format::EdgeList, among_canonical(Format::EdgeList, 9_999_990, b"")),
        (Format::Konect, among_canonical(Format::Konect, 1, b"")),
        (Format::Dimacs, among_canonical(Format::Dimacs, 1, b"")),
        (Format::Dimacs, among_canonical(Format::Dimacs, 1, b"a 1 2 3 4\n")),
    ];
    for (format, file) in files {
        let expected = outcome(&format.oracle(&String::from_utf8_lossy(&file), NeighborMode::Both));
        assert!(expected.starts_with("graph"), "{format:?}: {expected}");
        for block in 1..=96 {
            let got = load_in_blocks(format, Cursor::new(&file), NeighborMode::Both, Some(block));
            assert_eq!(outcome(&got), expected, "{format:?} in {block}-byte blocks");
        }
    }
}
