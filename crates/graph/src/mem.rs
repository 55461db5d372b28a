//! Memory-footprint accounting for the storage layer.
//!
//! Every store (adjacency rows, record arenas, packed histogram rows)
//! reports two numbers: the bytes its *live* entries occupy and the bytes
//! its backing buffers have *reserved*. The gap between the two is
//! allocator slack plus recycling head-room — the quantity the scale
//! bench's `bytes_per_vertex` gate watches.

use crate::VertexId;

/// Live vs reserved bytes of one store (or a sum of stores).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemFootprint {
    /// Bytes occupied by live entries (what a perfectly tight
    /// representation would need).
    pub live_bytes: usize,
    /// Bytes reserved by the backing buffers (arena capacity, span
    /// tables, free lists) — what the process actually holds.
    pub capacity_bytes: usize,
}

impl MemFootprint {
    /// A footprint with identical live and reserved size (flat arrays).
    pub fn exact(bytes: usize) -> Self {
        Self {
            live_bytes: bytes,
            capacity_bytes: bytes,
        }
    }

    /// Component-wise sum, for aggregating a subsystem's stores.
    #[must_use]
    pub fn plus(self, other: Self) -> Self {
        Self {
            live_bytes: self.live_bytes + other.live_bytes,
            capacity_bytes: self.capacity_bytes + other.capacity_bytes,
        }
    }

    /// Reserved bytes per vertex — the scale bench's headline number.
    pub fn bytes_per_vertex(&self, n: usize) -> f64 {
        if n == 0 {
            0.0
        } else {
            self.capacity_bytes as f64 / n as f64
        }
    }

    /// Fraction of reserved bytes that are live (1.0 = no slack).
    pub fn utilization(&self) -> f64 {
        if self.capacity_bytes == 0 {
            1.0
        } else {
            self.live_bytes as f64 / self.capacity_bytes as f64
        }
    }
}

/// Implemented by every store that participates in memory budgeting.
pub trait MemAccounted {
    /// Current live / reserved byte counts.
    fn mem_footprint(&self) -> MemFootprint;
}

impl MemAccounted for Vec<Vec<VertexId>> {
    fn mem_footprint(&self) -> MemFootprint {
        let header = std::mem::size_of::<Vec<VertexId>>();
        let elem = std::mem::size_of::<VertexId>();
        let live: usize = self.iter().map(|r| r.len() * elem + header).sum();
        let cap: usize =
            self.iter().map(|r| r.capacity() * elem).sum::<usize>() + self.capacity() * header;
        MemFootprint {
            live_bytes: live,
            capacity_bytes: cap,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plus_sums_componentwise() {
        let a = MemFootprint {
            live_bytes: 10,
            capacity_bytes: 20,
        };
        let b = MemFootprint::exact(5);
        let s = a.plus(b);
        assert_eq!(s.live_bytes, 15);
        assert_eq!(s.capacity_bytes, 25);
    }

    #[test]
    fn per_vertex_and_utilization() {
        let f = MemFootprint {
            live_bytes: 50,
            capacity_bytes: 100,
        };
        assert!((f.bytes_per_vertex(10) - 10.0).abs() < 1e-12);
        assert!((f.utilization() - 0.5).abs() < 1e-12);
        assert_eq!(MemFootprint::default().bytes_per_vertex(0), 0.0);
        assert_eq!(MemFootprint::default().utilization(), 1.0);
    }
}
