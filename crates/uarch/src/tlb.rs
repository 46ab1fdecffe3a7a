//! Set-associative translation lookaside buffers.

use crate::config::TlbConfig;

/// One TLB entry, packed so a whole set is contiguous (same rationale as
/// the cache's line layout: one set lookup touches one run of memory
/// instead of three parallel arrays).
#[derive(Debug, Clone, Copy, Default)]
struct Entry {
    tag: u64,
    lru: u64,
    valid: bool,
}

/// Mirror-array value for ways holding no translation (see the cache's
/// `INVALID_TAG` for the sentinel-collision argument).
const INVALID_TAG: u64 = u64::MAX;

/// First way whose mirrored tag equals `tag` and whose entry is valid —
/// the TLB twin of the cache's `find_way`: a fixed-width 4-wide compare
/// over the contiguous tag mirror that LLVM autovectorizes, with
/// candidates confirmed in ascending way order so the first-match choice
/// is bit-identical to the scalar scan.
#[inline]
fn find_way(tags: &[u64], entries: &[Entry], tag: u64) -> Option<usize> {
    let mut chunks = tags.chunks_exact(4);
    let mut way = 0usize;
    for c in &mut chunks {
        let mut mask = (c[0] == tag) as u8
            | (((c[1] == tag) as u8) << 1)
            | (((c[2] == tag) as u8) << 2)
            | (((c[3] == tag) as u8) << 3);
        while mask != 0 {
            let w = way + mask.trailing_zeros() as usize;
            if entries[w].valid {
                debug_assert_eq!(entries[w].tag, tag);
                return Some(w);
            }
            mask &= mask - 1;
        }
        way += 4;
    }
    for (i, &t) in chunks.remainder().iter().enumerate() {
        if t == tag && entries[way + i].valid {
            return Some(way + i);
        }
    }
    None
}

/// A set-associative TLB with LRU replacement.
///
/// Models translation presence only; a miss costs
/// [`TlbConfig::miss_penalty`] cycles (charged by the pipeline). The same
/// `access` path serves functional warming and detailed simulation.
/// Replacement behaviour is bit-identical to the historical parallel-Vec
/// layout; the per-set MRU index only reorders the hit scan.
///
/// # Examples
///
/// ```
/// use smarts_uarch::{Tlb, TlbConfig};
///
/// let cfg = TlbConfig { entries: 8, assoc: 2, page_bytes: 4096, miss_penalty: 200 };
/// let mut tlb = Tlb::new(cfg);
/// assert!(!tlb.access(0x1234)); // cold miss
/// assert!(tlb.access(0x1FFF)); // same page
/// ```
#[derive(Debug, Clone)]
pub struct Tlb {
    cfg: TlbConfig,
    // entries[set * assoc + way].
    entries: Vec<Entry>,
    // Contiguous tag mirror, same indexing; invalid ways hold
    // `INVALID_TAG`. Invariant: `entries[i].valid` implies
    // `tags[i] == entries[i].tag`.
    tags: Vec<u64>,
    // Most-recently-hit way per set: a scan-order hint only.
    mru: Vec<u32>,
    tick: u64,
    sets: u64,
    assoc: usize,
    // Shift/mask fast path when the geometry is power-of-two (always for
    // the Table 3 machines).
    page_shift: Option<u32>,
    set_shift: u32,
    set_mask: u64,
    accesses: u64,
    misses: u64,
}

impl Tlb {
    /// Creates a cold TLB.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a multiple of `assoc`, or either is zero.
    pub fn new(cfg: TlbConfig) -> Self {
        assert!(cfg.entries > 0 && cfg.assoc > 0 && cfg.entries.is_multiple_of(cfg.assoc));
        assert!(cfg.page_bytes.is_power_of_two());
        let sets = (cfg.entries / cfg.assoc) as u64;
        let slots = cfg.entries as usize;
        let page_shift = sets
            .is_power_of_two()
            .then(|| cfg.page_bytes.trailing_zeros());
        Tlb {
            cfg,
            entries: vec![Entry::default(); slots],
            tags: vec![INVALID_TAG; slots],
            mru: vec![0; sets as usize],
            tick: 0,
            sets,
            assoc: cfg.assoc as usize,
            page_shift,
            set_shift: sets.trailing_zeros(),
            set_mask: sets - 1,
            accesses: 0,
            misses: 0,
        }
    }

    #[inline]
    fn set_and_tag(&self, addr: u64) -> (u64, u64) {
        if let Some(shift) = self.page_shift {
            let vpn = addr >> shift;
            (vpn & self.set_mask, vpn >> self.set_shift)
        } else {
            let vpn = addr / self.cfg.page_bytes;
            (vpn % self.sets, vpn / self.sets)
        }
    }

    /// The TLB's configuration.
    pub fn config(&self) -> &TlbConfig {
        &self.cfg
    }

    /// Total accesses so far.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Total misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Looks up the page containing `addr`, filling the entry on a miss.
    /// Returns `true` on a hit.
    #[inline]
    pub fn access(&mut self, addr: u64) -> bool {
        self.accesses += 1;
        self.tick += 1;
        let tick = self.tick;
        let (set, tag) = self.set_and_tag(addr);
        let base = set as usize * self.assoc;

        // MRU fast path: repeated accesses to the same page hit in one
        // compare (the overwhelmingly common case for 4 KiB pages).
        let mru = self.mru[set as usize] as usize;
        if let Some(entry) = self.entries[base..base + self.assoc].get_mut(mru) {
            if entry.valid && entry.tag == tag {
                entry.lru = tick;
                return true;
            }
        }

        if let Some(way) = find_way(
            &self.tags[base..base + self.assoc],
            &self.entries[base..base + self.assoc],
            tag,
        ) {
            self.entries[base + way].lru = tick;
            self.mru[set as usize] = way as u32;
            return true;
        }

        self.misses += 1;
        let set_entries = &mut self.entries[base..base + self.assoc];
        let mut victim = 0;
        let mut best = u64::MAX;
        for (way, entry) in set_entries.iter().enumerate() {
            if !entry.valid {
                victim = way;
                break;
            }
            if entry.lru < best {
                best = entry.lru;
                victim = way;
            }
        }
        set_entries[victim] = Entry {
            tag,
            lru: tick,
            valid: true,
        };
        self.tags[base + victim] = tag;
        self.mru[set as usize] = victim as u32;
        false
    }

    /// Approximate bytes of backing store, for checkpoint footprint
    /// accounting.
    pub fn approx_bytes(&self) -> usize {
        self.entries.len() * std::mem::size_of::<Entry>()
            + self.tags.len() * std::mem::size_of::<u64>()
            + self.mru.len() * std::mem::size_of::<u32>()
    }

    /// Appends replacement state, recency hints, and statistics as
    /// fixed-width words for the checkpoint store (geometry is not
    /// written). The words are *canonical* exactly as for
    /// [`crate::Cache::save_state`]: valid entries per set emitted
    /// most-recent-first with recency-rank `lru`, all-zero words for
    /// empty ways, constant MRU hints / tick / statistics — so
    /// behaviourally equal TLBs serialize identically.
    pub fn save_state(&self, out: &mut Vec<u64>) {
        let mut order: Vec<usize> = Vec::with_capacity(self.assoc);
        for set in 0..self.sets as usize {
            let base = set * self.assoc;
            order.clear();
            order.extend((base..base + self.assoc).filter(|&i| self.entries[i].valid));
            order.sort_by_key(|&i| std::cmp::Reverse(self.entries[i].lru));
            let present = order.len() as u64;
            for (rank, &i) in order.iter().enumerate() {
                out.push(self.entries[i].tag);
                out.push(present - rank as u64);
                out.push(1);
            }
            let absent = self.assoc - order.len();
            out.resize(out.len() + 3 * absent, 0);
        }
        out.resize(out.len() + self.mru.len(), 0);
        out.push(self.assoc as u64);
        out.push(0);
        out.push(0);
    }

    /// Restores state written by [`Tlb::save_state`] into a TLB of the
    /// same geometry, rebuilding the tag mirror. Returns the number of
    /// words consumed, or `None` if `words` is too short.
    pub fn load_state(&mut self, words: &[u64]) -> Option<usize> {
        let needed = 3 * self.entries.len() + self.mru.len() + 3;
        let words = words.get(..needed)?;
        let (entry_words, rest) = words.split_at(3 * self.entries.len());
        for (i, chunk) in entry_words.chunks_exact(3).enumerate() {
            let valid = chunk[2] & 1 != 0;
            self.entries[i] = Entry {
                tag: chunk[0],
                lru: chunk[1],
                valid,
            };
            self.tags[i] = if valid { chunk[0] } else { INVALID_TAG };
        }
        let (mru_words, tail) = rest.split_at(self.mru.len());
        for (m, &w) in self.mru.iter_mut().zip(mru_words) {
            *m = w as u32;
        }
        self.tick = tail[0];
        self.accesses = tail[1];
        self.misses = tail[2];
        Some(needed)
    }

    /// Whether the page containing `addr` is mapped, without perturbing
    /// state.
    pub fn probe(&self, addr: u64) -> bool {
        let (set, tag) = self.set_and_tag(addr);
        let base = set as usize * self.assoc;
        find_way(
            &self.tags[base..base + self.assoc],
            &self.entries[base..base + self.assoc],
            tag,
        )
        .is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Tlb {
        Tlb::new(TlbConfig {
            entries: 4,
            assoc: 2,
            page_bytes: 4096,
            miss_penalty: 200,
        })
    }

    #[test]
    fn page_granularity() {
        let mut tlb = small();
        assert!(!tlb.access(0));
        assert!(tlb.access(4095));
        assert!(!tlb.access(4096));
        assert_eq!(tlb.misses(), 2);
    }

    #[test]
    fn lru_within_set() {
        let mut tlb = small(); // 2 sets × 2 ways
                               // Pages 0, 2, 4 map to set 0.
        let page = |n: u64| n * 4096;
        tlb.access(page(0));
        tlb.access(page(2));
        tlb.access(page(0)); // page 0 most recent
        tlb.access(page(4)); // evicts page 2
        assert!(tlb.probe(page(0)));
        assert!(!tlb.probe(page(2)));
        assert!(tlb.probe(page(4)));
    }

    #[test]
    fn probe_is_pure() {
        let mut tlb = small();
        tlb.access(0);
        let acc = tlb.accesses();
        assert!(tlb.probe(100));
        assert_eq!(tlb.accesses(), acc);
    }

    #[test]
    fn mru_fast_path_keeps_lru_order() {
        let mut tlb = small();
        let page = |n: u64| n * 4096;
        tlb.access(page(0));
        tlb.access(page(2)); // MRU now way 1
        tlb.access(page(0)); // scan-path hit, MRU back to way 0
        tlb.access(page(0)); // MRU fast-path hit
        tlb.access(page(2)); // scan-path hit: page 2 most recent
        tlb.access(page(4)); // must evict page 0
        assert!(!tlb.probe(page(0)));
        assert!(tlb.probe(page(2)));
        assert!(tlb.probe(page(4)));
    }

    #[test]
    fn four_way_vector_lookup_preserves_hit_and_victim_order() {
        // 4-way × 2 sets: lookups take the full-chunk compare path.
        let mut tlb = Tlb::new(TlbConfig {
            entries: 8,
            assoc: 4,
            page_bytes: 4096,
            miss_penalty: 200,
        });
        let page = |n: u64| n * 2 * 4096; // successive pages of set 0
        for n in 0..4 {
            assert!(!tlb.access(page(n)));
        }
        for n in 0..4 {
            assert!(tlb.access(page(n)), "way {n} should hit");
        }
        assert!(!tlb.access(page(4))); // evicts page 0 (LRU)
        assert!(!tlb.probe(page(0)));
        for n in 1..5 {
            assert!(tlb.probe(page(n)), "page {n} should be mapped");
        }
    }

    #[test]
    #[should_panic]
    fn bad_geometry_panics() {
        let _ = Tlb::new(TlbConfig {
            entries: 3,
            assoc: 2,
            page_bytes: 4096,
            miss_penalty: 1,
        });
    }
}
