//! The 9th DIMACS implementation challenge `.gr` format.
//!
//! The paper's USA road network comes from this collection
//! (Section 7.1.3). The format is line-oriented:
//!
//! ```text
//! c  comment
//! p sp <num_vertices> <num_arcs>
//! a  <src> <dst> <weight>
//! ```
//!
//! Identifiers are 1-based, which is exactly the situation the paper's
//! *desolate memory* addressing targets; the loader therefore declares the
//! 1-based range from the `p` header and leaves the addressing choice to
//! the builder policy (desolate by default).

use std::io::BufRead;

use super::scan::{dimacs_records, head, parse_blocks, show, Line};
use crate::builder::{GraphBuilder, NeighborMode};
use crate::csr::Graph;
use crate::error::GraphError;

/// Parse a DIMACS `.gr` stream into a weighted [`Graph`].
pub fn load_dimacs_gr<R: BufRead>(mut reader: R, mode: NeighborMode) -> Result<Graph, GraphError> {
    // Comments up to the `p` line, which sizes the builder.
    let (builder, next) = head(&mut reader, |line| match line.field() {
        None | Some([b'c', ..]) => Ok(None),
        Some(b"p") => {
            let kind = line.field().unwrap_or(b"");
            if kind != b"sp" {
                let message = format!("unsupported problem kind {}, expected \"sp\"", show(kind));
                return Err(line.error(message));
            }
            let n = line.u32("vertex count")?;
            let m = line.u32("arc count")?;
            // The declared arc count is untrusted input: cap the up-front
            // reservation and let growth amortise past it.
            let b = GraphBuilder::with_capacity(mode, (m as usize).min(1 << 20));
            Ok(Some(b.declare_id_range(1, n)))
        }
        Some(b"a") => Err(line.error("arc line before \"p sp\" header")),
        Some(other) => Err(unknown(line, other)),
    })?;
    let mut b = builder.ok_or(GraphError::EmptyGraph)?;
    parse_blocks(reader, next, &mut b, dimacs_records, |line, records| {
        match line.field() {
            None | Some([b'c', ..]) => {}
            Some(b"a") => {
                let src = line.u32("arc source")?;
                let dst = line.u32("arc target")?;
                records.weighted_edge(src, dst, line.u32("arc weight")?);
            }
            // Not a fresh start: that would drop every arc read so far.
            Some(b"p") => return Err(line.error("second \"p\" line")),
            Some(other) => return Err(unknown(line, other)),
        }
        Ok(())
    })?;
    b.build()
}

#[cold]
fn unknown(line: &Line<'_>, record: &[u8]) -> GraphError {
    line.error(format!("unknown record type {}", show(record)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::AddressingMode;
    use std::io::Cursor;

    const SAMPLE: &str = "\
c 9th DIMACS Implementation Challenge sample
p sp 4 5
a 1 2 10
a 2 3 20
a 3 4 30
a 4 1 40
a 1 3 50
";

    #[test]
    fn parses_header_and_arcs() {
        let g = load_dimacs_gr(Cursor::new(SAMPLE), NeighborMode::OutOnly).unwrap();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 5);
        assert!(g.is_weighted());
        let v1 = g.index_of(1);
        assert_eq!(g.out_neighbors(v1).len(), 2);
    }

    #[test]
    fn one_based_ids_get_desolate_memory() {
        // Section 7.1.3: both datasets "are made of contiguous indexes
        // starting at 1, and are processed in iPregel using offset mapping
        // with desolate memory".
        let g = load_dimacs_gr(Cursor::new(SAMPLE), NeighborMode::OutOnly).unwrap();
        assert_eq!(g.address_map().mode(), AddressingMode::DesolateMemory);
        assert_eq!(g.num_slots(), 5);
    }

    #[test]
    fn arc_before_header_is_an_error() {
        let r = load_dimacs_gr(Cursor::new("a 1 2 3\n"), NeighborMode::OutOnly);
        assert!(matches!(r, Err(GraphError::Parse { line: 1, .. })));
    }

    #[test]
    fn second_header_is_an_error_not_a_fresh_start() {
        // It used to replace the builder, dropping the arcs read so far.
        let text = "c x\np sp 3 2\na 1 2 5\np sp 3 2\na 2 3 6\n";
        match load_dimacs_gr(Cursor::new(text), NeighborMode::OutOnly) {
            Err(GraphError::Parse { line: 4, .. }) => {}
            other => panic!("expected a parse error at line 4, got {other:?}"),
        }
    }

    #[test]
    fn isolated_vertices_from_header_are_kept() {
        let text = "p sp 10 1\na 1 2 5\n";
        let g = load_dimacs_gr(Cursor::new(text), NeighborMode::OutOnly).unwrap();
        assert_eq!(g.num_vertices(), 10);
    }

    #[test]
    fn wrong_problem_kind_is_rejected() {
        let r = load_dimacs_gr(Cursor::new("p max 3 3\n"), NeighborMode::OutOnly);
        assert!(matches!(r, Err(GraphError::Parse { .. })));
    }
}
