//! Vertex addressing: mapping external identifiers to memory locations.
//!
//! Section 5 of the paper observes that vertex-centric frameworks
//! conventionally route messages through a hashmap from identifier to
//! location, paying extra memory accesses and poor locality on every
//! delivery. iPregel instead *semantically enriches* identifiers so that an
//! identifier **is** (a function of) the vertex's array index:
//!
//! * **Direct mapping** — the vertex with identifier `i` lives at index `i`.
//!   Zero-overhead, but requires identifiers to start at 0.
//! * **Offset mapping** — index = identifier − base. One subtraction.
//! * **Desolate memory** — direct mapping forced onto a graph whose
//!   identifiers start at `base > 0`: the first `base` array slots are
//!   deliberately wasted ("desolate") so that no subtraction is needed.
//!   For 1-based graphs (both paper datasets) this wastes a single slot.
//!
//! [`HashAddressMap`] implements the conventional hashmap layer the paper
//! argues against; the naive `femtograph-sim` baseline routes every
//! lookup through it, which is how the difference is quantified.

use std::collections::HashMap;

/// External vertex identifier. The paper assumes 4-byte integral
/// identifiers (Section 7.4.2), hence `u32`.
pub type VertexId = u32;

/// Internal vertex location: an index into the framework's vertex arrays.
pub type VertexIndex = u32;

/// Which identifier-to-location strategy a graph uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AddressingMode {
    /// Identifier == index. Requires the smallest identifier to be 0.
    Direct,
    /// Index = identifier − base.
    Offset,
    /// Direct mapping with the first `base` slots wasted.
    DesolateMemory,
}

/// A concrete identifier ↔ index mapping for one graph.
///
/// All three paper strategies are branch-free in [`AddressMap::index_of`]:
/// direct and desolate mapping subtract a base of 0, offset mapping
/// subtracts the real base. The distinction that matters for memory is how
/// many array *slots* the framework must allocate, exposed by
/// [`AddressMap::slots`] and [`AddressMap::wasted_slots`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddressMap {
    mode: AddressingMode,
    /// Smallest external identifier in the graph.
    base: VertexId,
    /// What `index_of` subtracts: `base` for offset mapping, 0 otherwise.
    subtrahend: VertexId,
    /// Number of real vertices.
    num_vertices: u32,
}

impl AddressMap {
    /// Direct mapping over `num_vertices` vertices with identifiers
    /// `0..num_vertices`.
    pub fn direct(num_vertices: u32) -> Self {
        AddressMap { mode: AddressingMode::Direct, base: 0, subtrahend: 0, num_vertices }
    }

    /// Offset mapping over identifiers `base..base + num_vertices`.
    pub fn offset(base: VertexId, num_vertices: u32) -> Self {
        AddressMap { mode: AddressingMode::Offset, base, subtrahend: base, num_vertices }
    }

    /// Desolate-memory mapping over identifiers `base..base + num_vertices`:
    /// behaves like direct mapping and wastes the first `base` slots.
    pub fn desolate(base: VertexId, num_vertices: u32) -> Self {
        AddressMap { mode: AddressingMode::DesolateMemory, base, subtrahend: 0, num_vertices }
    }

    /// The strategy in use.
    pub fn mode(&self) -> AddressingMode {
        self.mode
    }

    /// Smallest external identifier.
    pub fn base(&self) -> VertexId {
        self.base
    }

    /// Number of real vertices (excluding desolate waste).
    pub fn num_vertices(&self) -> u32 {
        self.num_vertices
    }

    /// Number of array slots the framework must allocate per vertex array.
    ///
    /// Equal to the vertex count except under desolate memory, where the
    /// unused prefix is also allocated.
    pub fn slots(&self) -> usize {
        self.num_vertices as usize + self.wasted_slots()
    }

    /// Slots allocated but never used (non-zero only for desolate memory).
    pub fn wasted_slots(&self) -> usize {
        match self.mode {
            AddressingMode::DesolateMemory => self.base as usize,
            _ => 0,
        }
    }

    /// Location of the vertex with external identifier `id`.
    #[inline(always)]
    pub fn index_of(&self, id: VertexId) -> VertexIndex {
        debug_assert!(self.contains(id), "id {id} outside [{}, {})", self.base, self.base as u64 + self.num_vertices as u64);
        id - self.subtrahend
    }

    /// External identifier of the vertex stored at `index`.
    #[inline(always)]
    pub fn id_of(&self, index: VertexIndex) -> VertexId {
        index + self.subtrahend
    }

    /// Whether `id` names a real vertex of this graph.
    #[inline]
    pub fn contains(&self, id: VertexId) -> bool {
        id >= self.base && u64::from(id) < u64::from(self.base) + u64::from(self.num_vertices)
    }

    /// Whether array slot `index` holds a real vertex (false only for the
    /// desolate prefix).
    #[inline]
    pub fn is_live_slot(&self, index: VertexIndex) -> bool {
        match self.mode {
            AddressingMode::DesolateMemory => index >= self.base && index - self.base < self.num_vertices,
            _ => index < self.num_vertices,
        }
    }

    /// Iterator over the live slot indices, in increasing order.
    pub fn live_slots(&self) -> impl Iterator<Item = VertexIndex> + '_ {
        let start = match self.mode {
            AddressingMode::DesolateMemory => self.base,
            _ => 0,
        };
        start..start + self.num_vertices
    }
}

/// The conventional hashmap addressing layer (Section 5's strawman).
///
/// Only used by the naive `femtograph-sim` baseline; the framework
/// proper never routes through it.
#[derive(Debug, Clone)]
pub struct HashAddressMap {
    map: HashMap<VertexId, VertexIndex>,
    ids: Vec<VertexId>,
}

impl HashAddressMap {
    /// Build the map for identifiers `base..base + num_vertices`, assigning
    /// indices in identifier order (the same layout the array strategies
    /// produce, so lookups are comparable).
    pub fn new(base: VertexId, num_vertices: u32) -> Self {
        let mut map = HashMap::with_capacity(num_vertices as usize);
        let mut ids = Vec::with_capacity(num_vertices as usize);
        for i in 0..num_vertices {
            map.insert(base + i, i);
            ids.push(base + i);
        }
        HashAddressMap { map, ids }
    }

    /// Location of the vertex with identifier `id`, or `None`.
    #[inline]
    pub fn index_of(&self, id: VertexId) -> Option<VertexIndex> {
        self.map.get(&id).copied()
    }

    /// Identifier of the vertex at `index`.
    #[inline]
    pub fn id_of(&self, index: VertexIndex) -> VertexId {
        self.ids[index as usize]
    }

    /// Approximate heap bytes consumed by the hashmap layer, which the
    /// naive baseline adds to its footprint.
    pub fn approx_bytes(&self) -> usize {
        // Each occupied entry stores key + value; std's hashbrown tables
        // keep 1 control byte per bucket and hold at most 7/8 load.
        let entry = std::mem::size_of::<(VertexId, VertexIndex)>() + 1;
        let buckets = (self.map.len() * 8).div_ceil(7).next_power_of_two();
        buckets * entry + self.ids.len() * std::mem::size_of::<VertexId>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direct_mapping_is_identity() {
        let m = AddressMap::direct(10);
        for id in 0..10 {
            assert_eq!(m.index_of(id), id);
            assert_eq!(m.id_of(id), id);
        }
        assert_eq!(m.slots(), 10);
        assert_eq!(m.wasted_slots(), 0);
    }

    #[test]
    fn offset_mapping_subtracts_base() {
        let m = AddressMap::offset(100, 5);
        assert_eq!(m.index_of(100), 0);
        assert_eq!(m.index_of(104), 4);
        assert_eq!(m.id_of(0), 100);
        assert_eq!(m.slots(), 5);
        assert_eq!(m.wasted_slots(), 0);
    }

    #[test]
    fn desolate_memory_wastes_prefix() {
        // The paper's datasets are 1-based: one wasted slot.
        let m = AddressMap::desolate(1, 4);
        assert_eq!(m.index_of(1), 1);
        assert_eq!(m.index_of(4), 4);
        assert_eq!(m.slots(), 5);
        assert_eq!(m.wasted_slots(), 1);
        assert!(!m.is_live_slot(0));
        assert!(m.is_live_slot(1));
        assert!(m.is_live_slot(4));
    }

    #[test]
    fn live_slots_skip_desolate_prefix() {
        let m = AddressMap::desolate(3, 2);
        assert_eq!(m.live_slots().collect::<Vec<_>>(), vec![3, 4]);
        let d = AddressMap::direct(3);
        assert_eq!(d.live_slots().collect::<Vec<_>>(), vec![0, 1, 2]);
    }

    #[test]
    fn contains_checks_range() {
        let m = AddressMap::offset(10, 3);
        assert!(!m.contains(9));
        assert!(m.contains(10));
        assert!(m.contains(12));
        assert!(!m.contains(13));
    }

    #[test]
    fn contains_handles_u32_extremes() {
        let m = AddressMap::offset(u32::MAX - 2, 3);
        assert!(m.contains(u32::MAX));
        assert!(!m.contains(u32::MAX - 3));
        assert_eq!(m.index_of(u32::MAX), 2);
    }

    #[test]
    fn hash_map_matches_array_layout() {
        let h = HashAddressMap::new(7, 5);
        let a = AddressMap::offset(7, 5);
        for id in 7..12 {
            assert_eq!(h.index_of(id), Some(a.index_of(id)));
            assert_eq!(h.id_of(a.index_of(id)), id);
        }
        assert_eq!(h.index_of(6), None);
        assert_eq!(h.index_of(12), None);
        assert!(h.approx_bytes() > 0);
    }
}
