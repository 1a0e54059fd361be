//! Matrix Market (`.mtx`) coordinate-format loader.
//!
//! The SuiteSparse collection — a common source of benchmark graphs —
//! distributes adjacency matrices in this format. Supported header:
//! `%%MatrixMarket matrix coordinate <real|integer|pattern>
//! <general|symmetric>`; `symmetric` entries are mirrored (off-diagonal
//! only), `pattern` means unweighted, and real weights are rounded to
//! the integral `Weight` type (negative or fractional weights are
//! rejected — shortest-path semantics need non-negative integers).
//! Identifiers are 1-based, as in DIMACS.

use std::io::BufRead;

use super::scan::{for_each_line, show, Line};
use crate::builder::{GraphBuilder, NeighborMode};
use crate::csr::Graph;
use crate::error::GraphError;

/// Parse a Matrix Market coordinate stream into a [`Graph`].
pub fn load_matrix_market<R: BufRead>(reader: R, mode: NeighborMode) -> Result<Graph, GraphError> {
    // The first line is the header; then the size line (after % comments),
    // then entries.
    let mut shape: Option<(bool, bool)> = None;
    let mut builder: Option<GraphBuilder> = None;
    for_each_line(reader, |line| {
        let Some((weighted, symmetric)) = shape else {
            shape = Some(parse_header(line)?);
            return Ok(());
        };
        if matches!(line.peek(), None | Some(b'%')) {
            return Ok(());
        }
        let row = line.u32("row")?;
        let col = line.u32("col")?;
        let Some(b) = &mut builder else {
            // The size line: rows, columns, entries.
            let nnz = line.u32("nnz")?;
            if row != col {
                let message = format!("adjacency matrix must be square, got {row}x{col}");
                return Err(line.error(message));
            }
            // The declared entry count is untrusted input: cap the
            // up-front reservation and let growth amortise past it.
            let b = GraphBuilder::with_capacity(mode, (nnz as usize).min(1 << 20));
            builder = Some(b.declare_id_range(1, row));
            return Ok(());
        };
        if weighted {
            let raw = line.field().ok_or_else(|| line.error("missing value"))?;
            let value = std::str::from_utf8(raw).ok().and_then(|s| s.parse::<f64>().ok());
            let value = value.ok_or_else(|| line.error(format!("bad value {}", show(raw))))?;
            if value < 0.0 || value.fract() != 0.0 || value > f64::from(u32::MAX) {
                return Err(line.error(format!(
                    "weight {value} is not a non-negative integer (shortest-path weights must be)"
                )));
            }
            b.add_weighted_edge(row, col, value as u32);
            if symmetric && row != col {
                b.add_weighted_edge(col, row, value as u32);
            }
        } else {
            b.add_edge(row, col);
            if symmetric && row != col {
                b.add_edge(col, row);
            }
        }
        Ok(())
    })?;
    if shape.is_none() {
        return Err(GraphError::Parse { line: 1, message: "empty file".into() });
    }
    builder.ok_or(GraphError::EmptyGraph)?.build()
}

/// `(weighted, symmetric)` from the `%%MatrixMarket` line.
fn parse_header(line: &mut Line<'_>) -> Result<(bool, bool), GraphError> {
    let lower = |f: &[u8]| String::from_utf8_lossy(f).to_ascii_lowercase();
    let words: Vec<String> = std::iter::from_fn(|| line.field()).take(5).map(lower).collect();
    let [magic, object, format, field, symmetry] = words.as_slice() else {
        return Err(line.error(format!("bad header {words:?}")));
    };
    if magic != "%%matrixmarket" {
        return Err(line.error(format!("bad header {words:?}")));
    }
    if object != "matrix" || format != "coordinate" {
        return Err(line.error("only `matrix coordinate` files are supported"));
    }
    let weighted = match field.as_str() {
        "pattern" => false,
        "real" | "integer" => true,
        other => return Err(line.error(format!("unsupported field type {other:?}"))),
    };
    let symmetric = match symmetry.as_str() {
        "general" => false,
        "symmetric" => true,
        other => return Err(line.error(format!("unsupported symmetry {other:?}"))),
    };
    Ok((weighted, symmetric))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn parses_pattern_general() {
        let mtx = "%%MatrixMarket matrix coordinate pattern general\n% comment\n3 3 3\n1 2\n2 3\n3 1\n";
        let g = load_matrix_market(Cursor::new(mtx), NeighborMode::OutOnly).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
        assert!(!g.is_weighted());
    }

    #[test]
    fn symmetric_entries_are_mirrored() {
        let mtx = "%%MatrixMarket matrix coordinate pattern symmetric\n3 3 2\n2 1\n3 2\n";
        let g = load_matrix_market(Cursor::new(mtx), NeighborMode::OutOnly).unwrap();
        assert_eq!(g.num_edges(), 4);
        let v1 = g.index_of(1);
        assert_eq!(g.out_neighbors(v1), &[g.index_of(2)]);
    }

    #[test]
    fn diagonal_of_symmetric_is_not_doubled() {
        let mtx = "%%MatrixMarket matrix coordinate pattern symmetric\n2 2 2\n1 1\n2 1\n";
        let g = load_matrix_market(Cursor::new(mtx), NeighborMode::OutOnly).unwrap();
        assert_eq!(g.num_edges(), 3); // self-loop once + mirrored pair
    }

    #[test]
    fn integer_weights_load() {
        let mtx = "%%MatrixMarket matrix coordinate integer general\n2 2 2\n1 2 7\n2 1 9\n";
        let g = load_matrix_market(Cursor::new(mtx), NeighborMode::OutOnly).unwrap();
        assert!(g.is_weighted());
        assert_eq!(g.out_weights(g.index_of(1)).unwrap(), &[7]);
    }

    #[test]
    fn real_weights_must_be_integral_nonnegative() {
        let fractional = "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 2 0.5\n";
        assert!(matches!(
            load_matrix_market(Cursor::new(fractional), NeighborMode::OutOnly),
            Err(GraphError::Parse { .. })
        ));
        let negative = "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 2 -3\n";
        assert!(matches!(
            load_matrix_market(Cursor::new(negative), NeighborMode::OutOnly),
            Err(GraphError::Parse { .. })
        ));
        let integral = "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 2 3\n";
        assert!(load_matrix_market(Cursor::new(integral), NeighborMode::OutOnly).is_ok());
    }

    #[test]
    fn non_square_is_rejected() {
        let mtx = "%%MatrixMarket matrix coordinate pattern general\n3 2 1\n1 2\n";
        assert!(matches!(
            load_matrix_market(Cursor::new(mtx), NeighborMode::OutOnly),
            Err(GraphError::Parse { .. })
        ));
    }

    #[test]
    fn bad_header_is_rejected() {
        assert!(load_matrix_market(Cursor::new("nope\n1 1 0\n"), NeighborMode::OutOnly).is_err());
        let arr = "%%MatrixMarket matrix array real general\n";
        assert!(load_matrix_market(Cursor::new(arr), NeighborMode::OutOnly).is_err());
    }
}
