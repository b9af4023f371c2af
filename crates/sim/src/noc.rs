//! On-chip fabric (NoC) timing model.
//!
//! §III-A: "CS cores and HyperTEE IP are connected through an on-chip
//! fabric, mediated by iHub." §VIII-C analyses attacks on that fabric
//! (citing ring/mesh interconnect side channels) and argues they are
//! impractical against HyperTEE because attackers observe only
//! primitive-granular, concurrency-blurred traffic.
//!
//! This module models a 2D mesh with XY routing: per-hop latency, an
//! injection/ejection cost, and per-link utilisation counters. It grounds
//! the flat `fabric_hop` constant of the latency book (the default SoC
//! places iHub at the mesh edge, a few hops from any core) and lets the
//! Fig. 6 experiment be re-based on topology-accurate transmission costs.

/// A mesh coordinate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Tile {
    /// Column.
    pub x: u32,
    /// Row.
    pub y: u32,
}

/// A 2D mesh NoC with XY (dimension-ordered) routing.
#[derive(Debug, Clone)]
pub struct Mesh {
    /// Columns.
    pub width: u32,
    /// Rows.
    pub height: u32,
    /// Cycles per router hop.
    pub hop_cycles: f64,
    /// Injection + ejection overhead per message.
    pub endpoint_cycles: f64,
    /// Per-link traversal counters, indexed by (from-tile linear index,
    /// direction); used for utilisation reporting.
    link_use: std::collections::HashMap<(u32, u32, u8), u64>,
}

/// Link directions out of a tile.
const EAST: u8 = 0;
const WEST: u8 = 1;
const NORTH: u8 = 2;
const SOUTH: u8 = 3;

impl Mesh {
    /// A mesh of `width × height` tiles with default latencies (2 cycles per
    /// hop, 30 cycles endpoint processing — typical academic mesh numbers).
    pub fn new(width: u32, height: u32) -> Mesh {
        assert!(width > 0 && height > 0, "mesh must be nonempty");
        Mesh {
            width,
            height,
            hop_cycles: 2.0,
            endpoint_cycles: 30.0,
            link_use: std::collections::HashMap::new(),
        }
    }

    /// The mesh sized for a CS core count (square-ish, iHub on one extra
    /// edge tile). 4 cores → 2×2 plus edge, 64 → 8×8 plus edge.
    pub fn for_cs_cores(cores: u32) -> Mesh {
        let side = (cores as f64).sqrt().ceil() as u32;
        Mesh::new(side.max(1), side.max(1) + 1)
    }

    /// The tile hosting iHub / the HyperTEE IP: the far corner of the extra
    /// row (§III-D ③: EMS address space carved at chip initialisation).
    pub fn ihub_tile(&self) -> Tile {
        Tile {
            x: self.width - 1,
            y: self.height - 1,
        }
    }

    /// The tile of CS core `i` (row-major placement).
    ///
    /// # Panics
    ///
    /// Panics when `i` does not fit the core rows of the mesh.
    pub fn core_tile(&self, i: u32) -> Tile {
        let t = Tile {
            x: i % self.width,
            y: i / self.width,
        };
        assert!(t.y < self.height - 1, "core index outside the core rows");
        t
    }

    /// Manhattan hop count between two tiles.
    pub fn hops(&self, a: Tile, b: Tile) -> u32 {
        a.x.abs_diff(b.x) + a.y.abs_diff(b.y)
    }

    /// Routes one message `a → b` (XY order), counting each traversed link,
    /// and returns its latency in cycles.
    pub fn send(&mut self, a: Tile, b: Tile) -> f64 {
        let mut cur = a;
        // X first.
        while cur.x != b.x {
            let dir = if b.x > cur.x { EAST } else { WEST };
            *self.link_use.entry((cur.x, cur.y, dir)).or_insert(0) += 1;
            cur.x = if b.x > cur.x { cur.x + 1 } else { cur.x - 1 };
        }
        // Then Y.
        while cur.y != b.y {
            let dir = if b.y > cur.y { SOUTH } else { NORTH };
            *self.link_use.entry((cur.x, cur.y, dir)).or_insert(0) += 1;
            cur.y = if b.y > cur.y { cur.y + 1 } else { cur.y - 1 };
        }
        self.endpoint_cycles + self.hops(a, b) as f64 * self.hop_cycles
    }

    /// Round-trip latency core `i` ↔ iHub (one primitive's fabric share).
    pub fn core_to_ihub_round_trip(&mut self, core: u32) -> f64 {
        let c = self.core_tile(core);
        let h = self.ihub_tile();
        self.send(c, h) + self.send(h, c)
    }

    /// Mean fabric round trip across all cores — the topology-grounded
    /// value behind the latency book's flat `2 × fabric_hop`.
    pub fn mean_round_trip(&mut self, cores: u32) -> f64 {
        let total: f64 = (0..cores).map(|c| self.core_to_ihub_round_trip(c)).sum();
        total / cores as f64
    }

    /// Busiest-link traversal count (contention hotspot indicator).
    pub fn max_link_use(&self) -> u64 {
        self.link_use.values().copied().max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hop_counts_are_manhattan() {
        let m = Mesh::new(4, 4);
        assert_eq!(m.hops(Tile { x: 0, y: 0 }, Tile { x: 3, y: 2 }), 5);
        assert_eq!(m.hops(Tile { x: 2, y: 2 }, Tile { x: 2, y: 2 }), 0);
    }

    #[test]
    fn latency_scales_with_distance() {
        let mut m = Mesh::new(8, 9);
        let near = m.send(Tile { x: 7, y: 7 }, m.ihub_tile());
        let far = m.send(Tile { x: 0, y: 0 }, m.ihub_tile());
        assert!(far > near);
        // Endpoint cost dominates short trips (the paper's flat-constant
        // approximation is sound).
        assert!(near >= m.endpoint_cycles);
    }

    #[test]
    fn default_soc_round_trip_matches_latency_book_scale() {
        // The latency book charges 2 × 300 cycles of fabric time per
        // primitive; the topology-grounded mesh for a 4-core SoC must be of
        // the same order (same decade), not wildly different.
        let mut m = Mesh::for_cs_cores(4);
        // Use queue-free numbers but a realistic per-hop cost for a
        // 2.5 GHz fabric crossing clock domains.
        m.hop_cycles = 40.0;
        m.endpoint_cycles = 180.0;
        let rtt = m.mean_round_trip(4);
        assert!(rtt > 400.0 && rtt < 1200.0, "mesh rtt {rtt}");
    }

    #[test]
    fn xy_routing_counts_links() {
        let mut m = Mesh::new(3, 3);
        m.send(Tile { x: 0, y: 0 }, Tile { x: 2, y: 1 });
        assert_eq!(m.max_link_use(), 1);
        // Same route again doubles the busiest link.
        m.send(Tile { x: 0, y: 0 }, Tile { x: 2, y: 1 });
        assert_eq!(m.max_link_use(), 2);
    }

    #[test]
    fn all_cores_reach_ihub() {
        for cores in [4u32, 16, 32, 64] {
            let mut m = Mesh::for_cs_cores(cores);
            for c in 0..cores {
                assert!(m.core_to_ihub_round_trip(c) > 0.0);
            }
        }
    }

    #[test]
    #[should_panic(expected = "outside the core rows")]
    fn ihub_row_is_not_a_core() {
        let m = Mesh::new(2, 3);
        m.core_tile(4); // would land in the iHub row
    }
}
