//! The byte-level scanner under all four text loaders.
//!
//! [`for_each_line`] walks the reader's own `fill_buf` blocks and hands
//! out each line as a [`Line`] over that block: no `String`, no UTF-8
//! validation, no per-line allocation; only a line that straddles two
//! blocks is copied, into one reused carry buffer. Fields are parsed in
//! the pass that finds them, which leaves a loader nothing but its record
//! shape. Design and costs: docs/INTERNALS.md, "Loading: scanner and builder".

use std::io::{BufRead, ErrorKind};

use crate::error::GraphError;

/// Longest accepted line, terminator excluded. Bounds the carry buffer: a
/// newline-free stream is refused after this many bytes, not buffered whole.
pub(crate) const MAX_LINE_BYTES: usize = 1 << 16;

/// A field as error messages show it: lossily decoded, at most 32 bytes.
pub(crate) fn show(field: &[u8]) -> String {
    format!("{:?}", String::from_utf8_lossy(&field[..field.len().min(32)]))
}

/// The unread part of one line. Fields are runs of non-blank bytes, blank
/// being ASCII space, tab, CR, VT and FF — the ASCII subset of what
/// `str::split_whitespace` splits on — and are read left to right.
pub(crate) struct Line<'a> {
    /// From the read position on; the line ends at the first `\n`, or
    /// with the slice.
    rest: &'a [u8],
    /// 1-based.
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

/// Call `on_line` for every line of `reader`: each `\n`-terminated one
/// and a non-empty unterminated last one.
pub(crate) fn for_each_line<R: BufRead>(
    mut reader: R,
    mut on_line: impl FnMut(&mut Line<'_>) -> Result<(), GraphError>,
) -> Result<(), GraphError> {
    let too_long = |line| GraphError::Parse {
        line,
        message: format!("line exceeds the {MAX_LINE_BYTES}-byte cap"),
    };
    // `lines` is whole lines, or one unterminated line standing alone.
    let mut run = |mut lines: &[u8], number: &mut usize| {
        while !lines.is_empty() {
            let mut line = Line { rest: lines, number: *number };
            on_line(&mut line)?;
            let unread = line.rest.iter().position(|&b| b == b'\n').unwrap_or(line.rest.len());
            if lines.len() - line.rest.len() + unread > MAX_LINE_BYTES {
                return Err(too_long(*number));
            }
            lines = &line.rest[(unread + 1).min(line.rest.len())..];
            *number += 1;
        }
        Ok(())
    };
    let mut number = 1;
    // The start of a line whose end is in a later block.
    let mut carry: Vec<u8> = Vec::new();
    loop {
        let block = match reader.fill_buf() {
            Ok(block) => block,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        };
        if block.is_empty() {
            return run(&carry, &mut number);
        }
        let whole = block.iter().rposition(|&b| b == b'\n').map_or(0, |last| last + 1);
        let (mut lines, tail) = block.split_at(whole);
        if !carry.is_empty() {
            if let Some(first) = lines.iter().position(|&b| b == b'\n') {
                if carry.len() + first > MAX_LINE_BYTES {
                    return Err(too_long(number));
                }
                carry.extend_from_slice(&lines[..first]);
                run(&carry, &mut number)?;
                carry.clear();
                lines = &lines[first + 1..];
            }
        }
        run(lines, &mut number)?;
        if carry.len() + tail.len() > MAX_LINE_BYTES {
            return Err(too_long(number));
        }
        carry.extend_from_slice(tail);
        let consumed = block.len();
        reader.consume(consumed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Line number and fields, per line.
    type Seen = Vec<(usize, Vec<Vec<u8>>)>;

    fn lines_of(blocks: usize, text: &[u8]) -> Result<Seen, GraphError> {
        let mut seen = Vec::new();
        let reader = std::io::BufReader::with_capacity(blocks, text);
        for_each_line(reader, |line| {
            let fields = std::iter::from_fn(|| line.field()).map(<[u8]>::to_vec).collect();
            seen.push((line.number, fields));
            Ok(())
        })?;
        Ok(seen)
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
        for blocks in [1, 2, 3, 7, 64] {
            assert_eq!(lines_of(blocks, text).unwrap(), expected, "{blocks}-byte blocks");
        }
        assert!(lines_of(4, b"").unwrap().is_empty());
        assert_eq!(lines_of(4, b"x\n").unwrap().len(), 1, "a final newline opens no line");
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
        text.insert(3, b'x');
        for blocks in [7, 8192, 1 << 20] {
            match lines_of(blocks, &text) {
                Err(GraphError::Parse { line: 2, .. }) => {}
                other => panic!("{blocks}-byte blocks: expected line 2 refused, got {other:?}"),
            }
        }
    }
}
