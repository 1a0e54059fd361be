//! Vertex partitioning for the distributed baseline simulator.
//!
//! Pregel+ assigns vertices to workers by hashing the vertex identifier
//! (its default is `id mod workers`). The simulator reuses this module to
//! place vertices, to decide which messages are local versus remote, and
//! to size per-worker memory.

use crate::csr::Graph;
use crate::ids::VertexIndex;

/// Assignment of every vertex to one of `num_workers` workers.
#[derive(Debug, Clone)]
pub struct Partitioning {
    num_workers: usize,
    /// Worker of each internal slot (desolate slots get worker 0; they
    /// hold no vertex so it never matters).
    owner: Vec<u32>,
    /// Slots owned by each worker, in slot order.
    members: Vec<Vec<VertexIndex>>,
}

impl Partitioning {
    /// Pregel+-style hash partitioning: vertex with external id `i` goes
    /// to worker `i mod num_workers`.
    pub fn hash(g: &Graph, num_workers: usize) -> Partitioning {
        assert!(num_workers >= 1);
        let map = g.address_map();
        let mut owner = vec![0u32; g.num_slots()];
        let mut members = vec![Vec::new(); num_workers];
        for slot in map.live_slots() {
            let id = map.id_of(slot);
            let w = (id as usize) % num_workers;
            owner[slot as usize] = w as u32;
            members[w].push(slot);
        }
        Partitioning { num_workers, owner, members }
    }

    /// Contiguous range partitioning (used by the ablation comparing
    /// partitioning strategies; Pregel+ also ships a range partitioner).
    pub fn range(g: &Graph, num_workers: usize) -> Partitioning {
        assert!(num_workers >= 1);
        let map = g.address_map();
        let n = g.num_vertices();
        let mut owner = vec![0u32; g.num_slots()];
        let mut members = vec![Vec::new(); num_workers];
        for (pos, slot) in map.live_slots().enumerate() {
            let w = pos * num_workers / n.max(1);
            owner[slot as usize] = w as u32;
            members[w].push(slot);
        }
        Partitioning { num_workers, owner, members }
    }

    /// Number of workers.
    pub fn num_workers(&self) -> usize {
        self.num_workers
    }

    /// Worker owning the vertex at `slot`.
    #[inline]
    pub fn owner_of(&self, slot: VertexIndex) -> u32 {
        self.owner[slot as usize]
    }

    /// Slots owned by `worker`.
    pub fn members(&self, worker: usize) -> &[VertexIndex] {
        &self.members[worker]
    }

    /// Size of the largest partition divided by the ideal size — 1.0 is
    /// perfectly balanced.
    pub fn imbalance(&self) -> f64 {
        let total: usize = self.members.iter().map(Vec::len).sum();
        if total == 0 {
            return 1.0;
        }
        let ideal = total as f64 / self.num_workers as f64;
        let max = self.members.iter().map(Vec::len).max().unwrap_or(0) as f64;
        max / ideal
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{GraphBuilder, NeighborMode};

    fn cycle(n: u32) -> Graph {
        let mut b = GraphBuilder::new(NeighborMode::OutOnly);
        for i in 0..n {
            b.add_edge(i, (i + 1) % n);
        }
        b.build().unwrap()
    }

    #[test]
    fn hash_partitioning_follows_id_modulo() {
        let g = cycle(10);
        let p = Partitioning::hash(&g, 3);
        for slot in g.address_map().live_slots() {
            let id = g.id_of(slot);
            assert_eq!(p.owner_of(slot), id % 3);
        }
    }

    #[test]
    fn every_vertex_is_owned_exactly_once() {
        let g = cycle(17);
        let p = Partitioning::hash(&g, 4);
        let total: usize = (0..4).map(|w| p.members(w).len()).sum();
        assert_eq!(total, 17);
    }

    #[test]
    fn range_partitioning_is_contiguous_and_balanced() {
        let g = cycle(100);
        let p = Partitioning::range(&g, 4);
        for w in 0..4 {
            assert_eq!(p.members(w).len(), 25);
            let m = p.members(w);
            assert!(m.windows(2).all(|ab| ab[0] < ab[1]));
        }
        assert!((p.imbalance() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn single_worker_owns_everything() {
        let g = cycle(5);
        let p = Partitioning::hash(&g, 1);
        assert_eq!(p.members(0).len(), 5);
        assert!((p.imbalance() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn desolate_slots_are_not_members() {
        let mut b = GraphBuilder::new(NeighborMode::OutOnly);
        b.add_edge(1, 2);
        b.add_edge(2, 1);
        let g = b.build().unwrap();
        let p = Partitioning::hash(&g, 2);
        let total: usize = (0..2).map(|w| p.members(w).len()).sum();
        assert_eq!(total, 2);
    }
}
