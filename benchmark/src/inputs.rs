//! Input generation: every workload's file is made from `--seed` by the
//! dataset analogs and written under `out/inputs/`. The program under
//! test only ever receives the files.

use std::fs::File;
use std::io::{self, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

use ipregel_graph::checksum::Fnv64;
use ipregel_graph::generators::{USA_ROADS, WIKIPEDIA};
use ipregel_graph::loaders::{write_binary, write_dimacs_gr, write_edge_list};
use ipregel_graph::{Graph, NeighborMode};

use crate::config::Scale;

pub struct Input {
    pub path: PathBuf,
    pub vertices: usize,
    pub edges: u64,
    /// FNV-1a 64 of the file's bytes.
    pub digest: u64,
    /// Generation and writing time: a note, never a metric.
    pub gen_s: f64,
}

/// The one input file of `workload`, generated from `seed` into `dir`.
pub fn generate(workload: &str, seed: u64, scale: &Scale, dir: &Path) -> io::Result<Input> {
    std::fs::create_dir_all(dir)?;
    let start = Instant::now();
    let (g, path) = match workload {
        "wiki_pagerank" => {
            let g = WIKIPEDIA.analog_graph(scale.wiki_divisor, seed, NeighborMode::OutOnly);
            let path = dir.join("wiki.txt");
            write_with(&path, |w| write_edge_list(w, &g))?;
            (g, path)
        }
        "wiki_pagerank_push_compact" => {
            let g = WIKIPEDIA.analog_graph(scale.wiki_divisor, seed, NeighborMode::OutOnly);
            let path = dir.join("wiki.ipgb");
            write_ipgb(&path, &g)?;
            (g, path)
        }
        "road_sssp" => {
            let g = USA_ROADS.analog_graph(scale.road_divisor, seed + 1, NeighborMode::OutOnly);
            let path = dir.join("road.gr");
            write_with(&path, |w| write_dimacs_gr(w, &g))?;
            (g, path)
        }
        "serve_sssp_batched" | "serve_mixed_closed" => {
            let g = WIKIPEDIA.analog_graph(scale.serve_divisor, seed + 2, NeighborMode::OutOnly);
            let path = dir.join("serve.ipgb");
            write_ipgb(&path, &g)?;
            (g, path)
        }
        other => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("unknown workload {other:?}"),
            ))
        }
    };
    let digest = file_digest(&path)?;
    Ok(Input {
        path,
        vertices: g.num_vertices(),
        edges: g.num_edges(),
        digest,
        gen_s: start.elapsed().as_secs_f64(),
    })
}

fn write_with(
    path: &Path,
    write: impl FnOnce(&mut BufWriter<File>) -> io::Result<()>,
) -> io::Result<()> {
    let mut w = BufWriter::new(File::create(path)?);
    write(&mut w)?;
    w.flush()
}

/// The graph's out-edges in the repository's binary format.
fn write_ipgb(path: &Path, g: &Graph) -> io::Result<()> {
    let map = g.address_map();
    let mut edges = Vec::with_capacity(g.num_edges() as usize);
    for v in map.live_slots() {
        edges.extend(
            g.out_neighbors(v)
                .iter()
                .map(|&u| (map.id_of(v), map.id_of(u))),
        );
    }
    write_with(path, |w| {
        write_binary(w, map.base(), map.num_vertices(), &edges, None)
            .map_err(|e| io::Error::other(e.to_string()))
    })
}

fn file_digest(path: &Path) -> io::Result<u64> {
    let mut file = File::open(path)?;
    let mut hash = Fnv64::new();
    let mut buf = vec![0u8; 1 << 20];
    loop {
        let n = file.read(&mut buf)?;
        if n == 0 {
            return Ok(hash.finish());
        }
        hash.update(&buf[..n]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{out_dir, SMOKE};

    #[test]
    fn same_seed_same_file_other_seed_other_file() {
        let dir = out_dir().join(format!("test-inputs-{}", std::process::id()));
        let a = generate("road_sssp", 5, &SMOKE, &dir.join("a")).unwrap();
        let b = generate("road_sssp", 5, &SMOKE, &dir.join("b")).unwrap();
        let c = generate("road_sssp", 6, &SMOKE, &dir.join("c")).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(
            (a.digest, a.vertices, a.edges),
            (b.digest, b.vertices, b.edges)
        );
        assert_ne!(a.digest, c.digest);
    }
}
