//! Plain whitespace-separated edge lists (the SNAP collection format).
//!
//! Each non-comment line is `src dst` or `src dst weight`. Lines starting
//! with `#`, `%` or `//` are comments. Mixing weighted and unweighted
//! lines is an error.

use std::io::BufRead;

use super::scan::parse_blocks;
use crate::builder::{GraphBuilder, NeighborMode};
use crate::csr::Graph;
use crate::error::GraphError;

/// Parse an edge-list stream into a [`Graph`].
pub fn load_edge_list<R: BufRead>(reader: R, mode: NeighborMode) -> Result<Graph, GraphError> {
    let mut b = GraphBuilder::new(mode);
    parse_blocks(reader, 1, &mut b, 1, |line, records| {
        match line.peek() {
            None | Some(b'#' | b'%') => return Ok(()),
            Some(b'/') if line.starts_with(b"//") => return Ok(()),
            _ => {}
        }
        let src = line.u32("source id")?;
        let dst = line.u32("target id")?;
        let has_weight = line.peek().is_some();
        records.shape(has_weight)?;
        if has_weight {
            records.weighted_edge(src, dst, line.u32("weight")?);
        } else {
            records.edge(src, dst);
        }
        Ok(())
    })?;
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn parses_comments_and_blank_lines() {
        let text = "# SNAP header\n% konect-style comment\n\n0 1\n1 2\n// trailing comment\n2 0\n";
        let g = load_edge_list(Cursor::new(text), NeighborMode::OutOnly).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
    }

    #[test]
    fn parses_weights() {
        let g = load_edge_list(Cursor::new("0 1 7\n1 0 9\n"), NeighborMode::OutOnly).unwrap();
        assert!(g.is_weighted());
        assert_eq!(g.out_weights(0).unwrap(), &[7]);
    }

    #[test]
    fn rejects_mixed_weightedness() {
        let r = load_edge_list(Cursor::new("0 1 7\n1 0\n"), NeighborMode::OutOnly);
        assert!(matches!(r, Err(GraphError::MixedWeightedness)));
    }

    #[test]
    fn reports_line_numbers_on_garbage() {
        let r = load_edge_list(Cursor::new("0 1\nx y\n"), NeighborMode::OutOnly);
        match r {
            Err(GraphError::Parse { line: 2, .. }) => {}
            other => panic!("expected parse error at line 2, got {other:?}"),
        }
    }

    #[test]
    fn empty_input_is_empty_graph_error() {
        let r = load_edge_list(Cursor::new("# only comments\n"), NeighborMode::OutOnly);
        assert!(matches!(r, Err(GraphError::EmptyGraph)));
    }
}
