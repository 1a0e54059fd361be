//! File-format loaders for the graph collections used in the paper.
//!
//! The paper evaluates on graphs downloaded from KONECT (Wikipedia/dbpedia,
//! Twitter MPI, Friendster) and from the 9th DIMACS implementation
//! challenge (USA road network). Each loader parses from any
//! [`std::io::BufRead`], so files, gzip streams piped through an external
//! process, and in-memory fixtures all work the same way.
//!
//! A compact binary format ([`binary`]) is also provided so the benchmark
//! harness can cache generated graphs between runs.
//!
//! Only what the CLI accepts or the product writes is read: edge lists,
//! KONECT, DIMACS and IPGB version 4. No Matrix Market file and no IPGB
//! file of versions 1–3 is read.

pub mod binary;
pub mod dimacs;
pub mod edge_list;
pub mod konect;
mod scan;
pub mod wire;
pub mod writers;

pub use binary::{read_binary, write_binary};
pub use dimacs::load_dimacs_gr;
pub use edge_list::load_edge_list;
pub use konect::load_konect;
// A test seam, not API: the text loaders' block size on this thread.
#[doc(hidden)]
pub use scan::with_block_bytes;
pub use writers::{write_dimacs_gr, write_edge_list};
