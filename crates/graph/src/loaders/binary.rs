//! A compact binary graph cache format (`IPGB`).
//!
//! Generating the synthetic stand-ins for the paper's datasets is
//! deterministic but not free; the benchmark harness caches them on disk
//! in this little-endian format:
//!
//! ```text
//! magic    4 bytes  "IPGB"
//! version  u32      2
//! flags    u32      bit 0: weighted
//! base     u32      smallest external identifier
//! n        u32      number of vertices
//! m        u64      number of edges
//! edges    m × (u32 src, u32 dst)           external identifiers
//! weights  m × u32  only when weighted
//! checksum u64      FNV-1a 64 of everything above
//! ```
//!
//! Version 2 is the only one read: version 1 (no checksum), version 3 (a
//! delta-varint adjacency section) and any other get
//! `BadBinary("unsupported version …")`.
//!
//! The trailing checksum (shared with the checkpoint format, see
//! [`crate::checksum`]) distinguishes a *corrupt* cache — bit rot, a
//! torn write — from a malformed one: validation failures after a
//! structurally sound header surface as [`GraphError::Corrupt`], telling
//! the caller to regenerate the cache rather than fix their input.
//! Reads are streamed in bounded chunks, so a hostile edge count cannot
//! force a proportional allocation before the payload proves itself.

use std::io::{Read, Write};

use super::wire::{GetLe, PutLe};
use crate::builder::{GraphBuilder, NeighborMode};
use crate::checksum::Fnv64;
use crate::csr::Graph;
use crate::error::GraphError;

// format-region(ipgb, v5): begin — the graph cache wire format. A
// layout change here must bump the version constant *and* the marker
// version, then re-bless with `cargo run -p ipregel-lint -- --bless-formats`.
// (Markers v4 and v5 only retired reading versions 1 and 3, and v5 the
// version-3 writer; no byte `write_binary` emits changed.)
const MAGIC: &[u8; 4] = b"IPGB";
/// The format version: a checksummed, fixed-width edge list.
const VERSION: u32 = 2;
const FLAG_WEIGHTED: u32 = 1;
/// Streaming chunk size; a multiple of 8 so edge records never straddle
/// chunk boundaries.
const CHUNK: usize = 8 << 20;

/// Serialise `edges` (external ids) with optional weights.
///
/// The writer takes raw edges rather than a [`Graph`] so a cached file
/// round-trips bit-exactly regardless of neighbour mode or addressing.
pub fn write_binary<W: Write>(
    mut w: W,
    base: u32,
    num_vertices: u32,
    edges: &[(u32, u32)],
    weights: Option<&[u32]>,
) -> Result<(), GraphError> {
    if let Some(ws) = weights {
        if ws.len() != edges.len() {
            return Err(GraphError::MixedWeightedness);
        }
    }
    let mut hash = Fnv64::new();
    let mut buf = Vec::with_capacity(28);
    buf.put_slice(MAGIC);
    buf.put_u32_le(VERSION);
    buf.put_u32_le(if weights.is_some() { FLAG_WEIGHTED } else { 0 });
    buf.put_u32_le(base);
    buf.put_u32_le(num_vertices);
    buf.put_u64_le(edges.len() as u64);
    hash.update(&buf);
    w.write_all(&buf)?;
    // Stream edges in chunks to bound peak memory on billion-edge graphs.
    let mut chunk = Vec::with_capacity(CHUNK);
    for &(s, d) in edges {
        chunk.put_u32_le(s);
        chunk.put_u32_le(d);
        if chunk.len() >= CHUNK - 8 {
            hash.update(&chunk);
            w.write_all(&chunk)?;
            chunk.clear();
        }
    }
    hash.update(&chunk);
    w.write_all(&chunk)?;
    chunk.clear();
    if let Some(ws) = weights {
        for &x in ws {
            chunk.put_u32_le(x);
            if chunk.len() >= CHUNK - 4 {
                hash.update(&chunk);
                w.write_all(&chunk)?;
                chunk.clear();
            }
        }
        hash.update(&chunk);
        w.write_all(&chunk)?;
    }
    w.write_all(&hash.finish().to_le_bytes())?;
    Ok(())
}

// format-region(ipgb): end

/// Deserialise an `IPGB` stream into a [`Graph`].
///
/// Accepts exactly the version [`write_binary`] emits (2); the payload
/// is validated against its trailing checksum and any mismatch —
/// including a single flipped bit anywhere in the file — is reported as
/// [`GraphError::Corrupt`] (FNV-1a's state transition per input byte is
/// a bijection, so a lone byte change always alters the digest).
pub fn read_binary<R: Read>(mut r: R, mode: NeighborMode) -> Result<Graph, GraphError> {
    let mut header = [0u8; 28];
    r.read_exact(&mut header).map_err(|_| GraphError::BadBinary("truncated header".into()))?;
    let mut h = &header[..];
    let mut magic = [0u8; 4];
    h.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(GraphError::BadBinary(format!("bad magic {magic:?}")));
    }
    let version = h.get_u32_le();
    if version != VERSION {
        return Err(GraphError::BadBinary(format!("unsupported version {version}")));
    }
    let flags = h.get_u32_le();
    let weighted = flags & FLAG_WEIGHTED != 0;
    let base = h.get_u32_le();
    let n = h.get_u32_le();
    let m = h.get_u64_le();
    if m > usize::MAX as u64 / 8 {
        return Err(GraphError::BadBinary(format!("implausible edge count {m}")));
    }
    let mut hash = Fnv64::new();
    hash.update(&header);

    // `m` is untrusted until the payload actually arrives: cap the
    // builder's up-front reservation and let growth amortise past it.
    let mut b =
        GraphBuilder::with_capacity(mode, (m as usize).min(1 << 20)).declare_id_range(base, n);

    // Weighted files put all weights after all edges, so edges are
    // buffered (8 B each, same as their wire size) until their weights
    // stream past; unweighted edges go straight into the builder.
    let mut pending: Vec<(u32, u32)> = Vec::with_capacity(if weighted {
        (m as usize).min(1 << 20)
    } else {
        0
    });
    let mut buf = vec![0u8; CHUNK.min((m as usize) * 8)];
    let mut remaining = (m as usize) * 8;
    while remaining > 0 {
        let take = remaining.min(CHUNK);
        let chunk = &mut buf[..take];
        r.read_exact(chunk).map_err(|_| GraphError::BadBinary("truncated edges".into()))?;
        hash_beside(&mut hash, chunk, || {
            let mut eb = &chunk[..];
            while eb.len() >= 8 {
                let s = eb.get_u32_le();
                let d = eb.get_u32_le();
                if weighted {
                    pending.push((s, d));
                } else {
                    b.add_edge(s, d);
                }
            }
        });
        remaining -= take;
    }
    if weighted {
        let mut i = 0usize;
        let mut remaining = (m as usize) * 4;
        while remaining > 0 {
            let take = remaining.min(CHUNK);
            let chunk = &mut buf[..take];
            r.read_exact(chunk).map_err(|_| GraphError::BadBinary("truncated weights".into()))?;
            hash_beside(&mut hash, chunk, || {
                let mut wb = &chunk[..];
                while wb.len() >= 4 {
                    let (s, d) = pending[i];
                    b.add_weighted_edge(s, d, wb.get_u32_le());
                    i += 1;
                }
            });
            remaining -= take;
        }
    }

    let mut tail = [0u8; 8];
    r.read_exact(&mut tail).map_err(|_| GraphError::BadBinary("truncated checksum".into()))?;
    let stored = u64::from_le_bytes(tail);
    let computed = hash.finish();
    if stored != computed {
        return Err(GraphError::Corrupt(format!(
            "checksum mismatch (stored {stored:#018x}, computed {computed:#018x})"
        )));
    }
    // Nothing may follow the checksum; bytes here mean the header's
    // edge count disagrees with the file (e.g. a corrupted `m` that
    // happened to shrink the payload).
    let mut probe = [0u8; 1];
    match r.read(&mut probe) {
        Ok(0) => {}
        Ok(_) => return Err(GraphError::Corrupt("trailing bytes after checksum".into())),
        Err(e) => return Err(GraphError::Io(e)),
    }
    b.build()
}

/// Run `decode` over `chunk` on this thread while a pool thread folds
/// the same bytes into `hash`. The two share nothing but the chunk, which
/// both only read: the digest is the one a sequential pass computes. At
/// most this one chunk is ever in flight unverified. `decode` is the side
/// that allocates (the builder's edge vector grows under it), so it is the
/// side that stays on the calling thread and in its malloc arena.
fn hash_beside(hash: &mut Fnv64, chunk: &[u8], decode: impl FnOnce() + Send) {
    ipregel_par::join(decode, || hash.update(chunk));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_unweighted() {
        let edges = vec![(1u32, 2u32), (2, 3), (3, 1), (1, 3)];
        let mut file = Vec::new();
        write_binary(&mut file, 1, 3, &edges, None).unwrap();
        let g = read_binary(&file[..], NeighborMode::Both).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.out_neighbors(g.index_of(1)), &[g.index_of(2), g.index_of(3)]);
    }

    #[test]
    fn round_trips_weighted() {
        let edges = vec![(0u32, 1u32), (1, 0)];
        let weights = vec![11, 22];
        let mut file = Vec::new();
        write_binary(&mut file, 0, 2, &edges, Some(&weights)).unwrap();
        let g = read_binary(&file[..], NeighborMode::OutOnly).unwrap();
        assert!(g.is_weighted());
        assert_eq!(g.out_weights(0).unwrap(), &[11]);
        assert_eq!(g.out_weights(1).unwrap(), &[22]);
    }

    #[test]
    fn rejects_bad_magic() {
        let r = read_binary(&b"NOPE\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0"[..], NeighborMode::OutOnly);
        assert!(matches!(r, Err(GraphError::BadBinary(_))));
    }

    #[test]
    fn rejects_truncation() {
        let edges = vec![(0u32, 1u32); 16];
        let mut file = Vec::new();
        write_binary(&mut file, 0, 2, &edges, None).unwrap();
        for cut in [5, 8, 9, file.len() - 28] {
            let r = read_binary(&file[..file.len() - cut], NeighborMode::OutOnly);
            assert!(
                matches!(r, Err(GraphError::BadBinary(_))),
                "cut of {cut} bytes went undetected"
            );
        }
    }

    #[test]
    fn weight_length_mismatch_is_rejected() {
        let r = write_binary(Vec::new(), 0, 2, &[(0, 1), (1, 0)], Some(&[7]));
        assert!(matches!(r, Err(GraphError::MixedWeightedness)));
    }

    #[test]
    fn every_single_byte_flip_is_rejected() {
        let edges = vec![(0u32, 1u32), (1, 2), (2, 0)];
        let mut file = Vec::new();
        write_binary(&mut file, 0, 3, &edges, Some(&[5, 6, 7])).unwrap();
        for i in 0..file.len() {
            let mut mutated = file.clone();
            mutated[i] ^= 0x20;
            assert!(
                read_binary(&mutated[..], NeighborMode::OutOnly).is_err(),
                "flip at byte {i} went undetected"
            );
        }
    }

    #[test]
    fn payload_flip_reports_corrupt_not_malformed() {
        let mut file = Vec::new();
        write_binary(&mut file, 0, 2, &[(0u32, 1u32)], None).unwrap();
        file[30] ^= 0xff; // inside the edge payload
        let r = read_binary(&file[..], NeighborMode::OutOnly);
        assert!(matches!(r, Err(GraphError::Corrupt(_))), "{r:?}");
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut file = Vec::new();
        write_binary(&mut file, 0, 2, &[(0u32, 1u32)], None).unwrap();
        file.push(0xaa);
        let r = read_binary(&file[..], NeighborMode::OutOnly);
        assert!(matches!(r, Err(GraphError::Corrupt(_))), "{r:?}");
    }

    #[test]
    fn a_version_1_header_is_an_unsupported_version() {
        // The retired layouts: version 1 had no checksum, version 3 a
        // varint section. Each header + two edges + a valid v2 tail is
        // refused on its version alone.
        for version in [1u32, 3] {
            let mut file = Vec::new();
            write_binary(&mut file, 0, 2, &[(0u32, 1u32), (1, 0)], None).unwrap();
            file[4..8].copy_from_slice(&version.to_le_bytes());
            match read_binary(&file[..], NeighborMode::OutOnly) {
                Err(GraphError::BadBinary(why)) => {
                    assert_eq!(why, format!("unsupported version {version}"))
                }
                other => panic!("version {version}: expected BadBinary, got {other:?}"),
            }
        }
    }

    #[test]
    fn an_edgeless_declared_range_round_trips() {
        for weights in [None, Some(&[][..])] {
            let mut file = Vec::new();
            write_binary(&mut file, 5, 4, &[], weights).unwrap();
            for mode in [NeighborMode::OutOnly, NeighborMode::InOnly, NeighborMode::Both] {
                let g = read_binary(&file[..], mode).unwrap();
                assert_eq!((g.num_vertices(), g.num_edges()), (4, 0));
                assert_eq!(g.address_map().base(), 5);
                assert_eq!(g.out_degree(g.index_of(8)), 0);
            }
        }
    }

    #[test]
    fn hostile_edge_count_fails_without_matching_allocation() {
        // A header claiming 2^40 edges must fail on the missing payload,
        // not by reserving terabytes first.
        let mut file = Vec::new();
        file.extend_from_slice(b"IPGB");
        file.extend_from_slice(&2u32.to_le_bytes());
        file.extend_from_slice(&0u32.to_le_bytes());
        file.extend_from_slice(&0u32.to_le_bytes());
        file.extend_from_slice(&2u32.to_le_bytes());
        file.extend_from_slice(&(1u64 << 40).to_le_bytes());
        let r = read_binary(&file[..], NeighborMode::OutOnly);
        assert!(matches!(r, Err(GraphError::BadBinary(_))), "{r:?}");
    }
}
