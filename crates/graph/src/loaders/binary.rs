//! A compact binary graph cache format (`IPGB`).
//!
//! Generating the synthetic stand-ins for the paper's datasets is
//! deterministic but not free; the benchmark harness caches them on disk
//! in this little-endian format:
//!
//! ```text
//! magic    4 bytes  "IPGB"
//! version  u32      2 plain, 3 compressed
//! flags    u32      bit 0: weighted
//! base     u32      smallest external identifier
//! n        u32      number of vertices
//! m        u64      number of edges
//! --- v2 payload ---
//! edges    m × (u32 src, u32 dst)           external identifiers
//! --- v3 payload ---
//! comp_len u64      exact byte length of the varint section below
//! comp     comp_len bytes: per vertex slot, varint(degree) followed by
//!          `degree` varint gaps over the sorted external target ids
//!          (first gap is the target itself; a zero gap is a parallel
//!          edge) — the same delta coding as `csr_compact`
//! --- both ---
//! weights  m × u32  only when weighted (v3: per-vertex sorted order)
//! checksum u64      FNV-1a 64 of everything above
//! ```
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
use crate::csr_compact::{write_varint, MAX_VARINT32_LEN};
use crate::error::GraphError;

// format-region(ipgb, v4): begin — the graph cache wire format. A
// layout change here must bump the version constants *and* the marker
// version, then re-bless with `cargo run -p ipregel-lint -- --bless-formats`.
// (Marker v4 only retired the constant for reading checksum-free
// version-1 files; no emitted byte changed.)
const MAGIC: &[u8; 4] = b"IPGB";
/// Current plain (checksummed, fixed-width edge list) format version.
const VERSION: u32 = 2;
/// The compressed variant: delta-varint adjacency with a declared
/// section length, always checksummed.
const VERSION_COMPRESSED: u32 = 3;
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

/// Serialise `edges` in the v3 compressed layout: per-vertex sorted
/// delta-varint adjacency behind an exact declared section length.
///
/// Every `src` must lie in `base..base + num_vertices`; targets are
/// stored sorted per vertex, so a weighted file's weight section is in
/// per-vertex sorted-target order (parallel edges keep insertion order).
pub fn write_binary_compressed<W: Write>(
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
    let n = num_vertices as usize;
    let mut adj: Vec<Vec<(u32, u32)>> = vec![Vec::new(); n];
    for (i, &(s, d)) in edges.iter().enumerate() {
        let slot = s
            .checked_sub(base)
            .filter(|&v| (v as usize) < n)
            .ok_or_else(|| GraphError::BadBinary(format!("source {s} outside declared id range")))?;
        adj[slot as usize].push((d, weights.map_or(0, |ws| ws[i])));
    }
    let mut comp = Vec::new();
    let mut sorted_weights = Vec::with_capacity(if weights.is_some() { edges.len() } else { 0 });
    for list in &mut adj {
        list.sort_by_key(|&(d, _)| d);
        write_varint(&mut comp, list.len() as u64);
        let mut prev = 0u32;
        for (i, &(d, wgt)) in list.iter().enumerate() {
            let gap = if i == 0 { d } else { d - prev };
            write_varint(&mut comp, u64::from(gap));
            prev = d;
            if weights.is_some() {
                sorted_weights.push(wgt);
            }
        }
    }

    let mut hash = Fnv64::new();
    let mut buf = Vec::with_capacity(36);
    buf.put_slice(MAGIC);
    buf.put_u32_le(VERSION_COMPRESSED);
    buf.put_u32_le(if weights.is_some() { FLAG_WEIGHTED } else { 0 });
    buf.put_u32_le(base);
    buf.put_u32_le(num_vertices);
    buf.put_u64_le(edges.len() as u64);
    buf.put_u64_le(comp.len() as u64);
    hash.update(&buf);
    w.write_all(&buf)?;
    hash.update(&comp);
    w.write_all(&comp)?;
    if weights.is_some() {
        let mut chunk = Vec::with_capacity(CHUNK.min(sorted_weights.len() * 4 + 4));
        for &x in &sorted_weights {
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
/// Accepts exactly the versions the writers emit (2 and 3); the payload
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
    if version != VERSION && version != VERSION_COMPRESSED {
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
    let mut buf;
    if version == VERSION_COMPRESSED {
        if n != 0 && base.checked_add(n - 1).is_none() {
            return Err(GraphError::BadBinary("id range overflows u32".into()));
        }
        let mut lenb = [0u8; 8];
        r.read_exact(&mut lenb)
            .map_err(|_| GraphError::BadBinary("truncated section length".into()))?;
        hash.update(&lenb);
        let comp_len = u64::from_le_bytes(lenb);
        // The section holds exactly n degrees + m gaps and a varint is at
        // most MAX_VARINT32_LEN bytes, so a longer declared length is
        // structurally impossible — reject before believing it.
        let cap = (MAX_VARINT32_LEN as u64).saturating_mul(m.saturating_add(u64::from(n)));
        if comp_len > cap {
            return Err(GraphError::BadBinary(format!(
                "implausible compressed section length {comp_len}"
            )));
        }
        buf = vec![0u8; (CHUNK as u64).min(comp_len.max(m.saturating_mul(4))) as usize];

        // Byte-at-a-time decode: a corrupt degree or gap is caught the
        // moment the stream disagrees with the declared layout, never by
        // allocating or reading what the corrupt value claims.
        let mut acc = 0u64; // varint accumulator
        let mut shift = 0u32;
        let mut nbytes = 0usize; // bytes consumed by the in-flight varint
        let mut v = 0u32; // current vertex slot
        let mut rem_gaps = 0u64; // gaps still owed by slot v
        let mut expecting_degree = true;
        let mut prev = 0u32;
        let mut first = true;
        let mut edges_seen = 0u64;
        let mut remaining = comp_len;
        while remaining > 0 {
            let take = remaining.min(CHUNK as u64) as usize;
            let chunk = &mut buf[..take];
            r.read_exact(chunk)
                .map_err(|_| GraphError::BadBinary("truncated compressed section".into()))?;
            hash_beside(&mut hash, chunk, || {
                for &byte in chunk.iter() {
                    acc |= u64::from(byte & 0x7f) << shift;
                    shift += 7;
                    nbytes += 1;
                    if byte & 0x80 != 0 {
                        if nbytes == MAX_VARINT32_LEN {
                            return Err(GraphError::Corrupt(
                                "varint runs past its 5-byte maximum".into(),
                            ));
                        }
                        continue;
                    }
                    let val = acc;
                    acc = 0;
                    shift = 0;
                    nbytes = 0;
                    if expecting_degree {
                        if v == n {
                            return Err(GraphError::Corrupt(
                                "compressed section continues past the last vertex".into(),
                            ));
                        }
                        edges_seen = edges_seen.saturating_add(val);
                        if edges_seen > m {
                            return Err(GraphError::Corrupt(format!(
                                "degree sum exceeds declared edge count {m}"
                            )));
                        }
                        rem_gaps = val;
                        first = true;
                        prev = 0;
                        if rem_gaps == 0 {
                            v += 1;
                        } else {
                            expecting_degree = false;
                        }
                    } else {
                        let gap = u32::try_from(val)
                            .map_err(|_| GraphError::Corrupt("gap exceeds u32".into()))?;
                        let t = if first {
                            gap
                        } else {
                            prev.checked_add(gap).ok_or_else(|| {
                                GraphError::Corrupt("target id overflows u32".into())
                            })?
                        };
                        first = false;
                        prev = t;
                        if weighted {
                            pending.push((base + v, t));
                        } else {
                            b.add_edge(base + v, t);
                        }
                        rem_gaps -= 1;
                        if rem_gaps == 0 {
                            expecting_degree = true;
                            v += 1;
                        }
                    }
                }
                Ok(())
            })?;
            remaining -= take as u64;
        }
        if nbytes != 0 || !expecting_degree || v != n {
            return Err(GraphError::Corrupt(
                "varint stream overruns the declared section length".into(),
            ));
        }
        if edges_seen != m {
            return Err(GraphError::Corrupt(format!(
                "compressed section encodes {edges_seen} edges, header declares {m}"
            )));
        }
    } else {
        buf = vec![0u8; CHUNK.min((m as usize) * 8)];
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
/// both only read: the digest is the one a sequential pass computes, and
/// whatever `decode` found is the caller's to act on before it reads on.
/// At most this one chunk is ever in flight unverified. `decode` is the
/// side that allocates (the builder's edge vector grows under it), so it
/// is the side that stays on the calling thread and in its malloc arena.
fn hash_beside<T: Send>(hash: &mut Fnv64, chunk: &[u8], decode: impl FnOnce() -> T + Send) -> T {
    ipregel_par::join(decode, || hash.update(chunk)).0
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
        // The retired checksum-free layout: header (version 1) + two
        // edges, no tail. No ingest path skips the checksum any more.
        let mut file = Vec::new();
        file.extend_from_slice(b"IPGB");
        file.extend_from_slice(&1u32.to_le_bytes());
        file.extend_from_slice(&0u32.to_le_bytes()); // unweighted
        file.extend_from_slice(&0u32.to_le_bytes()); // base
        file.extend_from_slice(&2u32.to_le_bytes()); // n
        file.extend_from_slice(&2u64.to_le_bytes()); // m
        for &(s, d) in &[(0u32, 1u32), (1, 0)] {
            file.extend_from_slice(&s.to_le_bytes());
            file.extend_from_slice(&d.to_le_bytes());
        }
        match read_binary(&file[..], NeighborMode::OutOnly) {
            Err(GraphError::BadBinary(why)) => assert_eq!(why, "unsupported version 1"),
            other => panic!("expected BadBinary, got {other:?}"),
        }
    }

    /// Recompute the trailing FNV so a test asserts on the *structural*
    /// check it targets, not on the checksum tripping first.
    fn refix_checksum(file: &mut [u8]) {
        let body = file.len() - 8;
        let mut h = Fnv64::new();
        h.update(&file[..body]);
        let d = h.finish().to_le_bytes();
        file[body..].copy_from_slice(&d);
    }

    #[test]
    fn compressed_round_trips_unweighted() {
        let edges = vec![(1u32, 2u32), (2, 3), (3, 1), (1, 3), (1, 3)];
        let mut file = Vec::new();
        write_binary_compressed(&mut file, 1, 3, &edges, None).unwrap();
        let g = read_binary(&file[..], NeighborMode::Both).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 5);
        // Targets come back per-vertex sorted (parallel edge retained).
        assert_eq!(
            g.out_neighbors(g.index_of(1)),
            &[g.index_of(2), g.index_of(3), g.index_of(3)]
        );
        assert_eq!(g.out_neighbors(g.index_of(3)), &[g.index_of(1)]);
    }

    #[test]
    fn compressed_round_trips_weighted_in_sorted_target_order() {
        // Written unsorted: the weight section follows the sorted targets.
        let edges = vec![(1u32, 3u32), (1, 2), (0, 1)];
        let weights = vec![9, 8, 7];
        let mut file = Vec::new();
        write_binary_compressed(&mut file, 0, 4, &edges, Some(&weights)).unwrap();
        let g = read_binary(&file[..], NeighborMode::OutOnly).unwrap();
        assert!(g.is_weighted());
        assert_eq!(g.out_weights(g.index_of(0)).unwrap(), &[7]);
        assert_eq!(g.out_weights(g.index_of(1)).unwrap(), &[8, 9]);
    }

    #[test]
    fn compressed_matches_plain_load() {
        let edges = vec![(0u32, 5u32), (5, 0), (2, 2), (0, 1), (4, 0)];
        let mut plain = Vec::new();
        write_binary(&mut plain, 0, 6, &edges, None).unwrap();
        let mut comp = Vec::new();
        write_binary_compressed(&mut comp, 0, 6, &edges, None).unwrap();
        let gp = read_binary(&plain[..], NeighborMode::Both).unwrap();
        let gc = read_binary(&comp[..], NeighborMode::Both).unwrap();
        assert_eq!(gp.num_vertices(), gc.num_vertices());
        assert_eq!(gp.num_edges(), gc.num_edges());
        for v in 0..gp.num_vertices() as u32 {
            let mut a = gp.out_neighbors(v).to_vec();
            a.sort_unstable();
            assert_eq!(&a, gc.out_neighbors(v), "vertex slot {v}");
        }
    }

    #[test]
    fn compressed_rejects_source_outside_declared_range() {
        let r = write_binary_compressed(Vec::new(), 5, 2, &[(5, 6), (9, 5)], None);
        assert!(matches!(r, Err(GraphError::BadBinary(_))), "{r:?}");
    }

    #[test]
    fn every_single_byte_flip_is_rejected_compressed() {
        let edges = vec![(0u32, 1u32), (1, 2), (2, 0), (0, 2)];
        let mut file = Vec::new();
        write_binary_compressed(&mut file, 0, 3, &edges, Some(&[5, 6, 7, 8])).unwrap();
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
    fn compressed_section_overrun_is_detected_before_checksum() {
        // Shrink the declared section length by one: the decoder runs out
        // of bytes mid-vertex. The checksum is re-fixed so only the
        // structural overrun check can catch it.
        let mut file = Vec::new();
        write_binary_compressed(&mut file, 0, 3, &[(0u32, 1u32), (1, 2), (2, 0)], None).unwrap();
        let comp_len = u64::from_le_bytes(file[28..36].try_into().unwrap());
        file[28..36].copy_from_slice(&(comp_len - 1).to_le_bytes());
        file.remove(36 + comp_len as usize - 1);
        refix_checksum(&mut file);
        let r = read_binary(&file[..], NeighborMode::OutOnly);
        assert!(matches!(r, Err(GraphError::Corrupt(_))), "{r:?}");
    }

    #[test]
    fn compressed_degree_inflation_is_detected() {
        // Bump vertex 0's degree varint: the degree sum then exceeds the
        // declared edge count. Checksum re-fixed, so the typed check fires.
        let mut file = Vec::new();
        write_binary_compressed(&mut file, 0, 3, &[(0u32, 1u32), (1, 2), (2, 0)], None).unwrap();
        assert_eq!(file[36], 1, "vertex 0 degree varint");
        file[36] = 3;
        refix_checksum(&mut file);
        let r = read_binary(&file[..], NeighborMode::OutOnly);
        assert!(matches!(r, Err(GraphError::Corrupt(_))), "{r:?}");
    }

    #[test]
    fn compressed_degree_deflation_is_detected() {
        // Zero vertex 0's degree: the stream then finishes the declared
        // vertices early and trailing gap bytes remain in the section.
        let mut file = Vec::new();
        write_binary_compressed(&mut file, 0, 3, &[(0u32, 1u32), (0, 2)], None).unwrap();
        assert_eq!(file[36], 2, "vertex 0 degree varint");
        file[36] = 0;
        refix_checksum(&mut file);
        let r = read_binary(&file[..], NeighborMode::OutOnly);
        assert!(matches!(r, Err(GraphError::Corrupt(_))), "{r:?}");
    }

    #[test]
    fn compressed_nonterminating_varint_is_detected() {
        // A varint may span at most 5 bytes for u32 payloads; hand-roll a
        // section of five continuation bytes.
        let mut file = Vec::new();
        file.extend_from_slice(b"IPGB");
        file.extend_from_slice(&3u32.to_le_bytes());
        file.extend_from_slice(&0u32.to_le_bytes()); // unweighted
        file.extend_from_slice(&0u32.to_le_bytes()); // base
        file.extend_from_slice(&1u32.to_le_bytes()); // n
        file.extend_from_slice(&1u64.to_le_bytes()); // m
        file.extend_from_slice(&5u64.to_le_bytes()); // comp_len
        file.extend_from_slice(&[0x80; 5]);
        file.extend_from_slice(&[0u8; 8]); // checksum placeholder
        refix_checksum(&mut file);
        let r = read_binary(&file[..], NeighborMode::OutOnly);
        assert!(matches!(r, Err(GraphError::Corrupt(_))), "{r:?}");
    }

    #[test]
    fn a_decode_error_outranks_the_checksum_mismatch_it_also_causes() {
        // The inflated degree is left un-refixed, so the file fails twice:
        // structurally inside the chunk and on the digest at the end. The
        // chunk's hash half runs either way; what the caller sees must be
        // the decoder's account of what is wrong, not "checksum mismatch".
        let mut file = Vec::new();
        write_binary_compressed(&mut file, 0, 3, &[(0u32, 1u32), (1, 2), (2, 0)], Some(&[4, 5, 6]))
            .unwrap();
        file[36] = 3;
        match read_binary(&file[..], NeighborMode::OutOnly) {
            Err(GraphError::Corrupt(why)) => {
                assert!(why.contains("degree sum exceeds"), "{why}")
            }
            other => panic!("expected the decoder's Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn an_edgeless_declared_range_round_trips() {
        for weights in [None, Some(&[][..])] {
            let mut plain = Vec::new();
            write_binary(&mut plain, 5, 4, &[], weights).unwrap();
            let mut compressed = Vec::new();
            write_binary_compressed(&mut compressed, 5, 4, &[], weights).unwrap();
            for file in [&plain, &compressed] {
                for mode in [NeighborMode::OutOnly, NeighborMode::InOnly, NeighborMode::Both] {
                    let g = read_binary(&file[..], mode).unwrap();
                    assert_eq!((g.num_vertices(), g.num_edges()), (4, 0));
                    assert_eq!(g.address_map().base(), 5);
                    assert_eq!(g.out_degree(g.index_of(8)), 0);
                }
            }
        }
    }

    #[test]
    fn hostile_section_length_fails_without_matching_allocation() {
        // comp_len far beyond the 5·(m+n) structural maximum must be
        // rejected from the header alone.
        let mut file = Vec::new();
        file.extend_from_slice(b"IPGB");
        file.extend_from_slice(&3u32.to_le_bytes());
        file.extend_from_slice(&0u32.to_le_bytes());
        file.extend_from_slice(&0u32.to_le_bytes());
        file.extend_from_slice(&2u32.to_le_bytes()); // n
        file.extend_from_slice(&1u64.to_le_bytes()); // m
        file.extend_from_slice(&(1u64 << 40).to_le_bytes()); // comp_len
        let r = read_binary(&file[..], NeighborMode::OutOnly);
        assert!(matches!(r, Err(GraphError::BadBinary(_))), "{r:?}");
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
