//! Set-associative translation lookaside buffers.

use crate::config::TlbConfig;
use crate::lru::LruSets;
use crate::warm::StateDiff;

/// A set-associative TLB with LRU replacement.
///
/// Models translation presence only; a miss costs
/// [`TlbConfig::miss_penalty`] cycles (charged by the pipeline). The same
/// `access` path serves functional warming and detailed simulation.
/// Replacement is true LRU over the recency-ordered key array it shares
/// with [`crate::Cache`] (one valid flag bit per key).
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
#[derive(Debug)]
pub struct Tlb {
    cfg: TlbConfig,
    sets: LruSets,
    page_shift: u32,
    accesses: u64,
    misses: u64,
}

// Field-wise, so `clone_from` reuses the key array (see `LruSets`).
impl Clone for Tlb {
    fn clone(&self) -> Self {
        Tlb {
            sets: self.sets.clone(),
            ..*self
        }
    }

    fn clone_from(&mut self, source: &Self) {
        let Tlb {
            cfg,
            sets,
            page_shift,
            accesses,
            misses,
        } = self;
        sets.clone_from(&source.sets);
        (*cfg, *page_shift) = (source.cfg, source.page_shift);
        (*accesses, *misses) = (source.accesses, source.misses);
    }
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
        Tlb {
            cfg,
            sets: LruSets::new(sets, cfg.assoc, 1, cfg.page_bytes, false),
            page_shift: cfg.page_bytes.trailing_zeros(),
            accesses: 0,
            misses: 0,
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
    // Out of line on purpose: the warming loop is instantiated per
    // frontend in another crate, and five inlined copies of the set walk
    // cost it more than the calls do (loopy-1 warming 206 → 233 MIPS).
    #[inline(never)]
    pub fn access(&mut self, addr: u64) -> bool {
        self.accesses += 1;
        match self.sets.access(addr >> self.page_shift, 0) {
            Ok(()) => true,
            Err(_) => {
                self.misses += 1;
                false
            }
        }
    }

    /// Approximate bytes of backing store, for checkpoint footprint
    /// accounting.
    pub fn approx_bytes(&self) -> usize {
        self.sets.approx_bytes()
    }

    /// Appends replacement state and statistics as fixed-width words for
    /// the checkpoint store (geometry is not written). The words are
    /// *canonical* exactly as for [`crate::Cache::save_state`], so
    /// behaviourally equal TLBs serialize identically.
    pub fn save_state(&self, out: &mut Vec<u64>) {
        self.sets.save_state(out);
        out.extend([0, 0]);
    }

    /// Restores state written by [`Tlb::save_state`] into a TLB of the
    /// same geometry. Returns the number of words consumed, or `None`
    /// (the TLB is then unusable) if `words` is too short or is not
    /// something `save_state` can have written.
    pub fn load_state(&mut self, words: &[u64]) -> Option<usize> {
        let used = self.sets.load_state(words)?;
        (words.get(used..used + 2)? == [0, 0]).then_some(used + 2)
    }

    /// Makes `self`'s replacement state equal to `next`'s, reporting the
    /// sets that differ (see `WarmState::advance_to`).
    pub(crate) fn advance_to(&mut self, next: &Tlb, diff: &mut StateDiff) {
        assert_eq!(self.cfg, next.cfg, "warm states of different geometry");
        self.sets.advance_to(&next.sets, diff);
        diff.at += 2; // the statistics words, zero in every state
    }

    /// Whether the page containing `addr` is mapped, without perturbing
    /// state.
    pub fn probe(&self, addr: u64) -> bool {
        self.sets.probe(addr >> self.page_shift)
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
    fn way_zero_hits_keep_lru_order() {
        let mut tlb = small();
        let page = |n: u64| n * 4096;
        tlb.access(page(0));
        tlb.access(page(2)); // page 2 at way 0, page 0 at way 1
        tlb.access(page(0)); // hit at way 1: rotates to the front
        tlb.access(page(0)); // hit at way 0
        tlb.access(page(2)); // hit at way 1: page 2 most recent
        tlb.access(page(4)); // must evict page 0
        assert!(!tlb.probe(page(0)));
        assert!(tlb.probe(page(2)));
        assert!(tlb.probe(page(4)));
    }

    #[test]
    fn four_way_lookup_preserves_hit_and_victim_order() {
        // 4-way × 2 sets: hits at every way position.
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
