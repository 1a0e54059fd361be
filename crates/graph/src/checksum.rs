//! FNV-1a 64-bit checksums for on-disk framing.
//!
//! The engine checkpoint format (`ipregel::recover`, `IPCK`) trails its
//! payload with this checksum so a short read or flipped byte is
//! detected as corruption instead of resuming from garbage. The binary
//! graph format (`loaders::binary`, `IPGB` v4) no longer uses it: a
//! byte-serial chain was slower than the decode it guarded, so `IPGB`
//! carries a 4-lane stripe hash of its own. `Fnv64` also digests files
//! whole where speed does not matter (the benchmark's input notes).
//!
//! FNV-1a is not cryptographic; it defends against *accidents*
//! (truncation, bit rot, torn writes), which is the failure model here.
//! It has two properties that matter for that job: it is dependency-free
//! and streamable, and — because each step (xor a byte, multiply by an
//! odd prime) is a bijection on the 64-bit state — any single-byte
//! change in a fixed-length payload is guaranteed to change the digest.

/// FNV-1a 64-bit offset basis.
const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// Streaming FNV-1a 64 hasher, for writers that emit their payload in
/// chunks and readers that validate while streaming.
#[derive(Debug, Clone, Copy)]
pub struct Fnv64 {
    state: u64,
}

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

impl Fnv64 {
    /// A hasher at the offset basis.
    pub fn new() -> Self {
        Fnv64 { state: OFFSET_BASIS }
    }

    /// Absorb `bytes`.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut h = self.state;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        }
        self.state = h;
    }

    /// The digest over everything absorbed so far.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

/// One-shot FNV-1a 64 of `bytes`.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.update(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn streaming_equals_one_shot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        let mut h = Fnv64::new();
        for chunk in data.chunks(7) {
            h.update(chunk);
        }
        assert_eq!(h.finish(), fnv1a64(&data));
    }

    #[test]
    fn single_byte_change_always_changes_digest() {
        let base: Vec<u8> = (0..64u8).collect();
        let digest = fnv1a64(&base);
        for i in 0..base.len() {
            let mut mutated = base.clone();
            mutated[i] ^= 0x01;
            assert_ne!(fnv1a64(&mutated), digest, "flip at byte {i} went undetected");
        }
    }
}
