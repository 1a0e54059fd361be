//! A compact binary graph cache format (`IPGB`).
//!
//! Generating the synthetic stand-ins for the paper's datasets is
//! deterministic but not free; the benchmark harness caches them on disk
//! in this little-endian format:
//!
//! ```text
//! magic    4 bytes  "IPGB"
//! version  u32      4
//! flags    u32      bit 0: weighted
//! base     u32      smallest external identifier
//! n        u32      number of vertices
//! m        u64      number of edges
//! edges    m × (u32 src, u32 dst)           external identifiers
//! weights  m × u32  only when weighted
//! checksum u64      stripe hash of everything above
//! ```
//!
//! Version 4 is the only one read: version 1 (no checksum), version 2
//! (the same layout under an FNV-1a 64 checksum), version 3 (a
//! delta-varint adjacency section) and any other get
//! `BadBinary("unsupported version …")`.
//!
//! The trailing checksum distinguishes a *corrupt* cache — bit rot, a
//! torn write — from a malformed one: validation failures after a
//! structurally sound header surface as [`GraphError::Corrupt`], telling
//! the caller to regenerate the cache rather than fix their input.
//! It is a 4-lane multiply hash over 32-byte stripes in the shape of
//! xxHash64's rounds, folded on the reading thread as each chunk arrives:
//! FNV-1a, which the checkpoint format keeps ([`crate::checksum`]), is one
//! dependent multiply per byte and took longer than the decode it guarded.
//! Reads are streamed in bounded chunks, so a hostile edge count cannot
//! force a proportional allocation before the payload proves itself.

use std::io::{Read, Write};

use super::wire::{GetLe, PutLe};
use crate::builder::{GraphBuilder, NeighborMode, EMPTY_SPAN};
use crate::csr::Graph;
use crate::error::GraphError;
use crate::ids::VertexId;

// format-region(ipgb, v6): begin — the graph cache wire format. A
// layout change here must bump the version constant *and* the marker
// version, then re-bless with `cargo run -p ipregel-lint -- --bless-formats`.
// (Markers v4 and v5 only retired reading versions 1 and 3, and v5 the
// version-3 writer; no byte `write_binary` emits changed. v6 is format
// version 4: the layout of version 2 under a `StripeHash` checksum.)
const MAGIC: &[u8; 4] = b"IPGB";
/// The format version: a checksummed, fixed-width edge list.
const VERSION: u32 = 4;
const FLAG_WEIGHTED: u32 = 1;
/// Streaming chunk size; a multiple of 8 so edge records never straddle
/// chunk boundaries. The reader's one buffer is this size and is still
/// live when `build` allocates the CSR, the load's peak. At 64 KiB it
/// sits in L2 between the hash and the decode, and under glibc's initial
/// 128 KiB mmap threshold, so freeing it never raises that threshold.
/// Sweep on the Wikipedia analog (21.5 MB, 2 690 374 edges, 2 vCPUs):
/// `read_binary` median of 15 loads in a fresh process, then the benchmark
/// worker's `wiki_pagerank_push_compact` `setup_s` and `peak_rss_mb`
/// (three 8 s runs, seeds 7/11/7):
///
/// | chunk | load (ms) | `setup_s` (ms) | `peak_rss_mb` |
/// |---|---|---|---|
/// | 64 KiB | 42.7, 39.1 | 78.2, 75.8, 76.7 | 102.8, 102.9, 102.9 |
/// | 256 KiB | 40.4, 38.5 | 81.0, 80.4, 84.7 | 102.8, 103.1, 102.8 |
/// | 1 MiB | 41.8, 40.0 | 85.0, 73.3, 79.3 | 100.6, 102.7, 102.8 |
/// | 8 MiB | 45.9, 43.2 | 80.3, 79.6, 79.3 | 110.1, 111.2, 109.9 |
const CHUNK: usize = 64 << 10;

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
    let mut hash = StripeHash::new();
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

/// xxHash64's five primes.
const P1: u64 = 0x9e37_79b1_85eb_ca87;
const P2: u64 = 0xc2b2_ae3d_27d4_eb4f;
const P3: u64 = 0x1656_67b1_9e37_79f9;
const P4: u64 = 0x85eb_ca77_c2b2_ae63;
const P5: u64 = 0x27d4_eb2f_1656_67c5;
/// Bytes per stripe: one little-endian `u64` word per lane.
const STRIPE: usize = 32;

/// One lane round. For a fixed `word` it is a bijection of `acc` (add,
/// rotate, multiply by an odd constant), and for a fixed `acc` one of
/// `word`.
#[inline(always)]
fn round(acc: u64, word: u64) -> u64 {
    acc.wrapping_add(word.wrapping_mul(P2)).rotate_left(31).wrapping_mul(P1)
}

/// The `IPGB` checksum: four independent lanes, each taking one word of
/// every 32-byte stripe through [`round`], so the multiplies of a stripe
/// overlap instead of chaining. A changed word changes its lane's state,
/// and every later round of that lane is a bijection of it. `finish`
/// folds the lanes one at a time, then the length, then the tail of under
/// a stripe word by word, each step a bijection of the running digest
/// with the other inputs fixed — so any change inside one 8-byte word
/// changes the digest. Streaming equals one-shot at any split.
#[derive(Debug)]
struct StripeHash {
    lanes: [u64; 4],
    /// The bytes of a stripe not yet complete.
    tail: [u8; STRIPE],
    buffered: usize,
    len: u64,
}

impl StripeHash {
    fn new() -> Self {
        StripeHash {
            lanes: [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()],
            tail: [0; STRIPE],
            buffered: 0,
            len: 0,
        }
    }

    fn update(&mut self, mut bytes: &[u8]) {
        self.len += bytes.len() as u64;
        if self.buffered > 0 {
            let take = (STRIPE - self.buffered).min(bytes.len());
            self.tail[self.buffered..self.buffered + take].copy_from_slice(&bytes[..take]);
            self.buffered += take;
            bytes = &bytes[take..];
            if self.buffered < STRIPE {
                return;
            }
            let stripe = self.tail;
            self.absorb(std::slice::from_ref(&stripe));
            self.buffered = 0;
        }
        let (stripes, rest) = bytes.as_chunks::<STRIPE>();
        self.absorb(stripes);
        self.tail[..rest.len()].copy_from_slice(rest);
        self.buffered = rest.len();
    }

    fn absorb(&mut self, stripes: &[[u8; STRIPE]]) {
        let mut lanes = self.lanes;
        for stripe in stripes {
            for (lane, word) in lanes.iter_mut().zip(stripe.as_chunks::<8>().0) {
                *lane = round(*lane, u64::from_le_bytes(*word));
            }
        }
        self.lanes = lanes;
    }

    fn finish(&self) -> u64 {
        let mut h = P5;
        for &lane in &self.lanes {
            h = (h ^ round(0, lane)).wrapping_mul(P1).wrapping_add(P4);
        }
        h = h.wrapping_add(self.len);
        let (words, rest) = self.tail[..self.buffered].as_chunks::<8>();
        for word in words {
            h = (h ^ round(0, u64::from_le_bytes(*word))).rotate_left(27).wrapping_mul(P1);
            h = h.wrapping_add(P4);
        }
        let (halves, rest) = rest.as_chunks::<4>();
        for half in halves {
            h ^= u64::from(u32::from_le_bytes(*half)).wrapping_mul(P1);
            h = h.rotate_left(23).wrapping_mul(P2).wrapping_add(P3);
        }
        for &byte in rest {
            h ^= u64::from(byte).wrapping_mul(P5);
            h = h.rotate_left(11).wrapping_mul(P1);
        }
        h ^= h >> 33;
        h = h.wrapping_mul(P2);
        h ^= h >> 29;
        h = h.wrapping_mul(P3);
        h ^ (h >> 32)
    }
}

// format-region(ipgb): end

/// Deserialise an `IPGB` stream into a [`Graph`].
///
/// Accepts exactly the version [`write_binary`] emits (4); the payload
/// is validated against its trailing checksum and any mismatch —
/// including a single flipped bit anywhere in the file — is reported as
/// [`GraphError::Corrupt`] (see [`StripeHash`] for why a change inside
/// one word always alters the digest). Each chunk is hashed and then
/// decoded straight into the builder's vectors with its id span, so
/// `build` skips its translate/validate pass when the span lies inside
/// the header's range.
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
    let m = m as usize;
    let mut hash = StripeHash::new();
    hash.update(&header);

    // `m` is untrusted until the payload actually arrives: cap the
    // builder's up-front reservation and let growth amortise past it.
    let mut b = GraphBuilder::with_capacity(mode, m.min(1 << 20)).declare_id_range(base, n);
    let mut buf = vec![0u8; CHUNK.min(m * 8)];
    let mut stream = |len: usize, what: &str, decode: &mut dyn FnMut(&[u8])| {
        let mut remaining = len;
        while remaining > 0 {
            let chunk = &mut buf[..remaining.min(CHUNK)];
            r.read_exact(chunk).map_err(|_| GraphError::BadBinary(format!("truncated {what}")))?;
            hash.update(chunk);
            decode(chunk);
            remaining -= chunk.len();
        }
        Ok::<_, GraphError>(())
    };
    stream(m * 8, "edges", &mut |chunk| {
        b.decode_edges(weighted, |edges| decode_edges(chunk, edges))
    })?;
    if weighted {
        stream(m * 4, "weights", &mut |chunk| {
            b.decode_weights(|weights| {
                weights.extend(chunk.as_chunks::<4>().0.iter().map(|w| u32::from_le_bytes(*w)))
            })
        })?;
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

/// Append the `(src, dst)` records of `chunk` to `edges`, returning the
/// smallest and the largest id among them.
fn decode_edges(chunk: &[u8], edges: &mut Vec<(VertexId, VertexId)>) -> (VertexId, VertexId) {
    let (mut lo, mut hi) = EMPTY_SPAN;
    edges.extend(chunk.as_chunks::<8>().0.iter().map(|record| {
        let [s0, s1, s2, s3, d0, d1, d2, d3] = *record;
        let (s, d) = (u32::from_le_bytes([s0, s1, s2, s3]), u32::from_le_bytes([d0, d1, d2, d3]));
        lo = lo.min(s).min(d);
        hi = hi.max(s).max(d);
        (s, d)
    }));
    (lo, hi)
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
        // The retired layouts: version 1 had no checksum, version 2 an
        // FNV-1a 64 one, version 3 a varint section. Each header + two
        // edges + a valid v4 tail is refused on its version alone.
        for version in [1u32, 2, 3] {
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
        file.extend_from_slice(MAGIC);
        file.extend_from_slice(&VERSION.to_le_bytes());
        file.extend_from_slice(&0u32.to_le_bytes());
        file.extend_from_slice(&0u32.to_le_bytes());
        file.extend_from_slice(&2u32.to_le_bytes());
        file.extend_from_slice(&(1u64 << 40).to_le_bytes());
        let r = read_binary(&file[..], NeighborMode::OutOnly);
        match r {
            Err(GraphError::BadBinary(why)) => assert_eq!(why, "truncated edges"),
            other => panic!("expected BadBinary, got {other:?}"),
        }
    }

    fn digest(bytes: &[u8]) -> u64 {
        let mut h = StripeHash::new();
        h.update(bytes);
        h.finish()
    }

    fn ramp(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 7 + 3) as u8).collect()
    }

    #[test]
    fn stripe_hash_matches_pinned_vectors() {
        // The digests v4 files carry; a change here is a format change.
        assert_eq!(digest(b""), 0xc162_0d0a_2dca_a9d2);
        assert_eq!(digest(b"a"), 0x130b_84f5_d9e1_f500);
        assert_eq!(digest(&ramp(28)), 0x6706_0959_a80a_2770);
        assert_eq!(digest(&ramp(32)), 0x6043_e291_7c94_4794);
        assert_eq!(digest(&ramp(100)), 0x820c_adb5_8edc_cf32);
        let mut file = Vec::new();
        write_binary(&mut file, 0, 3, &[(0, 1), (1, 2), (2, 0)], None).unwrap();
        let (payload, tail) = file.split_at(file.len() - 8);
        assert_eq!(u64::from_le_bytes(tail.try_into().unwrap()), digest(payload));
        assert_eq!(digest(payload), 0x4dcb_33dd_4ceb_0f52);
    }

    #[test]
    fn streaming_equals_one_shot_at_every_split() {
        let data = ramp(131);
        let whole = digest(&data);
        for split in 0..=64 {
            let mut h = StripeHash::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finish(), whole, "split at {split}");
            // And in pieces of `split` bytes, as a reader of short reads would.
            let mut h = StripeHash::new();
            for piece in data.chunks(split.max(1)) {
                h.update(piece);
            }
            assert_eq!(h.finish(), whole, "pieces of {split}");
        }
    }

    #[test]
    fn every_single_bit_flip_changes_the_digest() {
        for len in 1..=70 {
            let data = ramp(len);
            let whole = digest(&data);
            for bit in 0..len * 8 {
                let mut flipped = data.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                assert_ne!(digest(&flipped), whole, "length {len}, bit {bit}");
            }
        }
    }

    #[test]
    fn every_single_bit_flip_of_a_file_is_rejected() {
        // The hashed bytes are 28 + 8m (unweighted) or 28 + 12m
        // (weighted) long; these cover every residue mod 32 either makes.
        let mut residues = std::collections::BTreeSet::new();
        for (weighted, edges) in [(false, 0..4), (true, 0..8)] {
            for m in edges {
                let edges: Vec<(u32, u32)> = (0..m).map(|i| (i % 3, (i + 1) % 3)).collect();
                let weights: Vec<u32> = (0..m).map(|i| 10 + i).collect();
                let mut file = Vec::new();
                write_binary(&mut file, 0, 3, &edges, weighted.then_some(&weights[..])).unwrap();
                residues.insert((file.len() - 8) % 32);
                read_binary(&file[..], NeighborMode::OutOnly).unwrap();
                for bit in 0..file.len() * 8 {
                    let mut flipped = file.clone();
                    flipped[bit / 8] ^= 1 << (bit % 8);
                    assert!(
                        read_binary(&flipped[..], NeighborMode::OutOnly).is_err(),
                        "weighted {weighted}, m {m}: flip of bit {bit} went undetected"
                    );
                }
            }
        }
        assert_eq!(residues.len(), 8, "{residues:?}");
    }

    #[test]
    fn a_checksummed_edge_outside_the_declared_range_is_refused() {
        // The reader's span lets `build` skip its validate pass only when
        // every id lies inside the header's range; each of these files is
        // valid but for one id, below or above the range, under direct,
        // desolate and offset addressing.
        let cases = [(0, 3), (1, 0), (1, 4), (5_000_000, 4_999_999), (5_000_000, 5_000_003)];
        for (base, bad) in cases {
            let edges = [(base, base + 1), (base + 2, bad), (base + 1, base + 2)];
            for weights in [None, Some(&[1, 2, 3][..])] {
                let mut file = Vec::new();
                write_binary(&mut file, base, 3, &edges, weights).unwrap();
                for mode in [NeighborMode::OutOnly, NeighborMode::InOnly, NeighborMode::Both] {
                    match read_binary(&file[..], mode) {
                        Err(GraphError::IdOutOfRange { id, .. }) => assert_eq!(id, bad),
                        other => panic!("base {base}, id {bad}, {mode:?}: got {other:?}"),
                    }
                }
            }
        }
    }
}
