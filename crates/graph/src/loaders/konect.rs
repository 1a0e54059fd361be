//! The KONECT (Koblenz Network Collection) TSV format.
//!
//! KONECT files start with `%`-prefixed metadata lines; the first data
//! column pair is `src dst`, optionally followed by a weight/multiplicity
//! and a timestamp, both of which iPregel ignores (static, unweighted
//! processing of Wikipedia/Twitter/Friendster). Identifiers are 1-based.

use std::io::BufRead;

use super::scan::parse_blocks;
use crate::builder::{GraphBuilder, NeighborMode};
use crate::csr::Graph;
use crate::error::GraphError;

/// Parse a KONECT `out.*` stream into an unweighted [`Graph`].
///
/// Weight and timestamp columns are ignored, matching how the paper's
/// applications treat these datasets (PageRank/Hashmin are unweighted and
/// its SSSP assumes unit weights).
pub fn load_konect<R: BufRead>(reader: R, mode: NeighborMode) -> Result<Graph, GraphError> {
    let mut b = GraphBuilder::new(mode);
    parse_blocks(reader, 1, &mut b, 1, |line, records| {
        if !matches!(line.peek(), None | Some(b'%')) {
            let src = line.u32("source id")?;
            records.edge(src, line.u32("target id")?);
        }
        Ok(())
    })?;
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::AddressingMode;
    use std::io::Cursor;

    const SAMPLE: &str = "\
% asym unweighted
% 4 3 3
1 2
2 3	1	1167609600
3 1
";

    #[test]
    fn skips_metadata_and_extra_columns() {
        let g = load_konect(Cursor::new(SAMPLE), NeighborMode::Both).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
        assert!(!g.is_weighted());
    }

    #[test]
    fn konect_graphs_use_desolate_memory() {
        let g = load_konect(Cursor::new(SAMPLE), NeighborMode::OutOnly).unwrap();
        assert_eq!(g.address_map().mode(), AddressingMode::DesolateMemory);
    }

    #[test]
    fn bad_id_reports_line() {
        let r = load_konect(Cursor::new("1 2\n1 -3\n"), NeighborMode::OutOnly);
        assert!(matches!(r, Err(GraphError::Parse { line: 2, .. })));
    }
}
