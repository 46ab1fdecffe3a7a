//! Two-level cache hierarchy: split L1 I/D over a unified L2.

use crate::cache::Cache;
use crate::config::MachineConfig;
use crate::warm::StateDiff;

/// Result of a hierarchy access: total latency and which levels were
/// touched (for energy accounting and MSHR management in the pipeline).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// Total access latency in cycles, including the memory round trip on
    /// a full miss.
    pub latency: u64,
    /// Whether the L1 lookup hit.
    pub l1_hit: bool,
    /// L2 lookups performed (demand fill plus any write-back traffic).
    pub l2_accesses: u64,
    /// Main-memory accesses performed (demand fill plus any write-back).
    pub mem_accesses: u64,
}

/// Split L1 instruction/data caches over a unified, write-back L2.
///
/// This is the "large microarchitectural state" that SMARTS keeps warm
/// with functional warming: the same instance (and therefore the same
/// replacement state) is updated by the in-order warming stream between
/// sampling units and by detailed simulation inside them.
///
/// # Examples
///
/// ```
/// use smarts_uarch::{CacheHierarchy, MachineConfig};
///
/// let cfg = MachineConfig::eight_way();
/// let mut hier = CacheHierarchy::new(&cfg);
/// let cold = hier.access_data(0x8000, false);
/// assert_eq!(cold.latency, 1 + 12 + 100); // L1 + L2 + memory
/// let warm = hier.access_data(0x8000, false);
/// assert_eq!(warm.latency, 1);
/// ```
#[derive(Debug)]
pub struct CacheHierarchy {
    l1i: Cache,
    l1d: Cache,
    l2: Cache,
    mem_latency: u64,
}

// Field-wise, so `clone_from` reuses every level's key array.
impl Clone for CacheHierarchy {
    fn clone(&self) -> Self {
        CacheHierarchy {
            l1i: self.l1i.clone(),
            l1d: self.l1d.clone(),
            l2: self.l2.clone(),
            mem_latency: self.mem_latency,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        let CacheHierarchy {
            l1i,
            l1d,
            l2,
            mem_latency,
        } = self;
        l1i.clone_from(&source.l1i);
        l1d.clone_from(&source.l1d);
        l2.clone_from(&source.l2);
        *mem_latency = source.mem_latency;
    }
}

impl CacheHierarchy {
    /// Builds a cold hierarchy from a machine configuration.
    pub fn new(cfg: &MachineConfig) -> Self {
        CacheHierarchy {
            l1i: Cache::new(cfg.l1i),
            l1d: Cache::new(cfg.l1d),
            l2: Cache::new(cfg.l2),
            mem_latency: cfg.mem_latency,
        }
    }

    /// The L1 instruction cache.
    pub fn l1i(&self) -> &Cache {
        &self.l1i
    }

    /// The L1 data cache.
    pub fn l1d(&self) -> &Cache {
        &self.l1d
    }

    /// The unified L2 cache.
    pub fn l2(&self) -> &Cache {
        &self.l2
    }

    /// Whether the line containing `addr` is resident in the L1 data
    /// cache (used by the pipeline to decide whether an MSHR is needed
    /// before committing to an access).
    pub fn l1d_resident(&self, addr: u64) -> bool {
        self.l1d.probe(addr)
    }

    #[inline]
    fn access(
        cache: &mut Cache,
        l2: &mut Cache,
        mem_latency: u64,
        addr: u64,
        is_write: bool,
    ) -> AccessResult {
        let l1 = cache.access(addr, is_write);
        if l1.hit {
            return AccessResult {
                latency: cache.config().latency,
                l1_hit: true,
                l2_accesses: 0,
                mem_accesses: 0,
            };
        }
        let mut l2_accesses = 1;
        let mut mem_accesses = 0;
        // Demand fill from L2 (the fill itself is a read of L2).
        let l2_out = l2.access(addr, false);
        let mut latency = cache.config().latency + l2.config().latency;
        if !l2_out.hit {
            mem_accesses += 1;
            latency += mem_latency;
            if l2_out.writeback {
                // L2 victim written back to memory, off the critical path.
                mem_accesses += 1;
            }
        }
        if l1.writeback {
            // Dirty L1 victim written back into L2: counted as traffic for
            // energy/bandwidth purposes, off the critical path. (The victim
            // line is almost always still resident in the far larger L2, so
            // its replacement state is not modelled for write-backs.)
            l2_accesses += 1;
        }
        AccessResult {
            latency,
            l1_hit: false,
            l2_accesses,
            mem_accesses,
        }
    }

    /// Approximate bytes of backing store across all three caches.
    pub fn approx_bytes(&self) -> usize {
        self.l1i.approx_bytes() + self.l1d.approx_bytes() + self.l2.approx_bytes()
    }

    /// Appends all three caches' dynamic state as fixed-width words for
    /// the checkpoint store (L1I, L1D, L2 in that order).
    pub fn save_state(&self, out: &mut Vec<u64>) {
        self.l1i.save_state(out);
        self.l1d.save_state(out);
        self.l2.save_state(out);
    }

    /// Builds the hierarchy of `cfg` holding the state written by
    /// [`CacheHierarchy::save_state`]. Returns it with the words
    /// consumed, or `None` if `words` is too short.
    pub fn from_state(cfg: &MachineConfig, words: &[u64]) -> Option<(Self, usize)> {
        let (l1i, i) = Cache::from_state(cfg.l1i, words)?;
        let (l1d, d) = Cache::from_state(cfg.l1d, words.get(i..)?)?;
        let (l2, u) = Cache::from_state(cfg.l2, words.get(i + d..)?)?;
        let mem_latency = cfg.mem_latency;
        let hierarchy = CacheHierarchy {
            l1i,
            l1d,
            l2,
            mem_latency,
        };
        Some((hierarchy, i + d + u))
    }

    /// Makes every cache's replacement state equal to `next`'s (see
    /// `WarmState::advance_to`).
    pub(crate) fn advance_to(&mut self, next: &CacheHierarchy, diff: &mut StateDiff) {
        self.l1i.advance_to(&next.l1i, diff);
        self.l1d.advance_to(&next.l1d, diff);
        self.l2.advance_to(&next.l2, diff);
    }

    /// Instruction fetch of the line containing `addr`.
    #[inline]
    pub fn access_instr(&mut self, addr: u64) -> AccessResult {
        Self::access(&mut self.l1i, &mut self.l2, self.mem_latency, addr, false)
    }

    /// Data access of the line containing `addr`.
    #[inline]
    pub fn access_data(&mut self, addr: u64, is_store: bool) -> AccessResult {
        Self::access(
            &mut self.l1d,
            &mut self.l2,
            self.mem_latency,
            addr,
            is_store,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_composition() {
        let cfg = MachineConfig::eight_way();
        let mut h = CacheHierarchy::new(&cfg);
        let full_miss = h.access_data(0x4000, false);
        assert_eq!(full_miss.latency, 113);
        assert!(!full_miss.l1_hit);
        assert_eq!(full_miss.mem_accesses, 1);

        let hit = h.access_data(0x4000, false);
        assert_eq!(hit.latency, 1);
        assert!(hit.l1_hit);

        // Evict from L1 (2-way, 256 sets → same set every 16 KiB) but the
        // line stays in the much larger L2: L2-hit latency.
        let mut h2 = CacheHierarchy::new(&cfg);
        h2.access_data(0x0000, false);
        h2.access_data(0x4000, false);
        h2.access_data(0x8000, false); // evicts 0x0000 from L1
        let l2_hit = h2.access_data(0x0000, false);
        assert_eq!(l2_hit.latency, 13);
    }

    #[test]
    fn instruction_and_data_sides_are_split() {
        let cfg = MachineConfig::eight_way();
        let mut h = CacheHierarchy::new(&cfg);
        h.access_instr(0x100);
        // The data side is still cold for the same address, but L2 is
        // unified so the second access is an L2 hit.
        let d = h.access_data(0x100, false);
        assert!(!d.l1_hit);
        assert_eq!(d.latency, 13);
    }

    #[test]
    fn writeback_traffic_counted_on_dirty_eviction() {
        let cfg = MachineConfig::eight_way();
        let mut h = CacheHierarchy::new(&cfg);
        // Dirty a line, then evict it by filling its L1 set (2-way,
        // 256 sets → same set every 16 KiB).
        h.access_data(0x0000, true);
        h.access_data(0x4000, false);
        let out = h.access_data(0x8000, false); // evicts the dirty line
        assert!(!out.l1_hit);
        assert!(
            out.l2_accesses >= 2,
            "demand fill + write-back, got {}",
            out.l2_accesses
        );
    }

    #[test]
    fn sixteen_way_hierarchy_uses_its_own_latencies() {
        let cfg = MachineConfig::sixteen_way();
        let mut h = CacheHierarchy::new(&cfg);
        let miss = h.access_data(0x7000, false);
        assert_eq!(miss.latency, 2 + 16 + 100);
        let hit = h.access_data(0x7000, false);
        assert_eq!(hit.latency, 2);
    }

    #[test]
    fn l2_keeps_lines_the_l1_evicted() {
        let cfg = MachineConfig::eight_way();
        let mut h = CacheHierarchy::new(&cfg);
        // Fill one L1 set three times over: first line leaves L1.
        for i in 0..3u64 {
            h.access_data(i * 0x4000, false);
        }
        assert!(!h.l1d_resident(0x0000));
        // But it is still an L2 hit (1M, 4-way: no L2 conflict here).
        let back = h.access_data(0x0000, false);
        assert_eq!(back.latency, 1 + 12);
        assert_eq!(back.mem_accesses, 0);
    }

    #[test]
    fn l1d_resident_probe() {
        let cfg = MachineConfig::eight_way();
        let mut h = CacheHierarchy::new(&cfg);
        assert!(!h.l1d_resident(0x40));
        h.access_data(0x40, false);
        assert!(h.l1d_resident(0x40));
        assert!(!h.l1d_resident(0x4000));
    }
}
