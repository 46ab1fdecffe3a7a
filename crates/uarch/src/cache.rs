//! Set-associative caches with true-LRU replacement.

use crate::config::CacheConfig;
use crate::lru::LruSets;
use crate::warm::StateDiff;

/// Outcome of a single cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheOutcome {
    /// Whether the access hit.
    pub hit: bool,
    /// Whether a dirty line was evicted (write-back traffic to the next
    /// level).
    pub writeback: bool,
}

/// Flag bits below the tag in a way's key: bit 0 valid, bit 1 dirty —
/// the flags word of the store format, as is.
const FLAG_BITS: u32 = 2;
const DIRTY: u64 = 2;

/// A write-back, write-allocate, set-associative cache with LRU
/// replacement.
///
/// The cache stores only tags — it models presence, not contents. The same
/// structure and the same `access` path is used both for timed accesses in
/// detailed simulation and for functional warming, so warmed state is
/// exactly the state detailed simulation would have produced for the same
/// in-order access stream.
///
/// Replacement is true LRU over one recency-ordered key array (see
/// `LruSets`); hits, write-backs and victims are those of the historical
/// four-parallel-Vec layout with per-way timestamps, which
/// `tests/golden_state.rs` keeps as the reference model.
///
/// # Examples
///
/// ```
/// use smarts_uarch::{Cache, CacheConfig};
///
/// let cfg = CacheConfig { size_bytes: 1024, assoc: 2, line_bytes: 64, latency: 1 };
/// let mut cache = Cache::new(cfg);
/// assert!(!cache.access(0x100, false).hit); // cold miss
/// assert!(cache.access(0x100, false).hit); // now resident
/// ```
#[derive(Debug)]
pub struct Cache {
    cfg: CacheConfig,
    sets: LruSets,
    // Shift instead of divide when the line size is a power of two (both
    // Table 3 machines).
    line_shift: Option<u32>,
    accesses: u64,
    misses: u64,
}

// Field-wise, so `clone_from` reuses the key array (see `LruSets`).
impl Clone for Cache {
    fn clone(&self) -> Self {
        Cache {
            sets: self.sets.clone(),
            ..*self
        }
    }

    fn clone_from(&mut self, source: &Self) {
        let Cache {
            cfg,
            sets,
            line_shift,
            accesses,
            misses,
        } = self;
        sets.clone_from(&source.sets);
        (*cfg, *line_shift) = (source.cfg, source.line_shift);
        (*accesses, *misses) = (source.accesses, source.misses);
    }
}

impl Cache {
    /// Creates a cold cache.
    ///
    /// # Panics
    ///
    /// Panics if the configuration geometry does not divide evenly.
    pub fn new(cfg: CacheConfig) -> Self {
        Cache {
            sets: LruSets::new(cfg.sets(), cfg.assoc, FLAG_BITS, cfg.line_bytes, false),
            line_shift: cfg
                .line_bytes
                .is_power_of_two()
                .then(|| cfg.line_bytes.trailing_zeros()),
            cfg,
            accesses: 0,
            misses: 0,
        }
    }

    /// The cache's configuration.
    pub fn config(&self) -> &CacheConfig {
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

    /// Miss ratio so far; 0 when no accesses.
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }

    /// Resets hit/miss statistics without touching cache contents.
    pub fn reset_stats(&mut self) {
        self.accesses = 0;
        self.misses = 0;
    }

    /// Invalidates all lines (cold restart), recency along with them:
    /// victim choice among lines refilled after a flush must not be
    /// influenced by pre-flush access order.
    pub fn flush(&mut self) {
        self.sets.clear();
    }

    /// The line number of `addr`.
    #[inline]
    fn line(&self, addr: u64) -> u64 {
        match self.line_shift {
            Some(shift) => addr >> shift,
            None => addr / self.cfg.line_bytes,
        }
    }

    /// Accesses the line containing `addr`, allocating on miss.
    ///
    /// `is_write` marks the line dirty (write-allocate); a dirty eviction
    /// is reported via [`CacheOutcome::writeback`].
    // Out of line on purpose: the warming loop is instantiated per
    // frontend in another crate, and five inlined copies of the set walk
    // cost it more than the calls do (loopy-1 warming 206 → 233 MIPS).
    #[inline(never)]
    pub fn access(&mut self, addr: u64, is_write: bool) -> CacheOutcome {
        self.accesses += 1;
        let dirty = if is_write { DIRTY } else { 0 };
        match self.sets.access(self.line(addr), dirty) {
            Ok(()) => CacheOutcome {
                hit: true,
                writeback: false,
            },
            Err(victim) => {
                self.misses += 1;
                CacheOutcome {
                    hit: false,
                    writeback: victim & DIRTY != 0,
                }
            }
        }
    }

    /// Approximate bytes of backing store, for checkpoint footprint
    /// accounting.
    pub fn approx_bytes(&self) -> usize {
        self.sets.approx_bytes()
    }

    /// Appends replacement state and statistics as fixed-width words for
    /// the checkpoint store. Geometry is not written — the loader builds
    /// a cache from the same config and restores only dynamic state, so
    /// the word count is a pure function of the geometry.
    ///
    /// The emitted words are *canonical*: within each set, resident lines
    /// are written most-recent-first as `(tag, recency rank, flags)` with
    /// the most recent line's rank the number of resident lines and the
    /// least recent's 1, the remaining ways as all-zero words; then one
    /// zero per set, the associativity, and two zeros (where earlier
    /// layouts kept scan hints, an access tick and the statistics). Two
    /// caches that behave identically under any future access stream
    /// therefore serialize identically, no matter the absolute access
    /// history that built them.
    pub fn save_state(&self, out: &mut Vec<u64>) {
        self.sets.save_state(out);
        out.extend([0, 0]);
    }

    /// Builds a cache of geometry `cfg` holding the state written by
    /// [`Cache::save_state`], each line packed once, straight from its
    /// words. Returns the cache and the number of words consumed, or
    /// `None` if `words` is too short or is not something `save_state`
    /// can have written.
    pub fn from_state(cfg: CacheConfig, words: &[u64]) -> Option<(Self, usize)> {
        let mut cache = Cache::new(cfg);
        let used = cache.sets.load_state(words)?;
        (words.get(used..used + 2)? == [0, 0]).then_some((cache, used + 2))
    }

    /// Makes `self`'s replacement state equal to `next`'s, reporting the
    /// sets that differ (see `WarmState::advance_to`).
    pub(crate) fn advance_to(&mut self, next: &Cache, diff: &mut StateDiff) {
        assert_eq!(self.cfg, next.cfg, "warm states of different geometry");
        self.sets.advance_to(&next.sets, diff);
        diff.at += 2; // the statistics words, zero in every state
    }

    /// Whether the line containing `addr` is resident, without touching
    /// LRU state or statistics.
    pub fn probe(&self, addr: u64) -> bool {
        self.sets.probe(self.line(addr))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        // 4 sets × 2 ways × 64B lines = 512 B.
        Cache::new(CacheConfig {
            size_bytes: 512,
            assoc: 2,
            line_bytes: 64,
            latency: 1,
        })
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = small();
        assert!(!c.access(0, false).hit);
        assert!(c.access(0, false).hit);
        assert!(c.access(63, false).hit, "same line");
        assert!(!c.access(64, false).hit, "next line");
        assert_eq!(c.accesses(), 4);
        assert_eq!(c.misses(), 2);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = small();
        // Three lines mapping to set 0: line numbers 0, 4, 8 (4 sets).
        let a = 0u64;
        let b = 4 * 64;
        let d = 8 * 64;
        c.access(a, false);
        c.access(b, false);
        c.access(a, false); // a most recent
        c.access(d, false); // evicts b
        assert!(c.probe(a));
        assert!(!c.probe(b));
        assert!(c.probe(d));
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = small();
        let a = 0u64;
        let b = 4 * 64;
        let d = 8 * 64;
        c.access(a, true); // dirty
        c.access(b, false);
        let out = c.access(d, false); // evicts a (LRU), which is dirty
        assert!(!out.hit);
        assert!(out.writeback);
        // Clean eviction does not write back.
        let e = 12 * 64;
        let out2 = c.access(e, false); // evicts b, clean
        assert!(!out2.writeback);
    }

    #[test]
    fn write_hit_marks_dirty() {
        let mut c = small();
        c.access(0, false);
        c.access(0, true); // hit, now dirty
        let b = 4 * 64;
        let d = 8 * 64;
        c.access(b, false);
        c.access(d, false); // evicts line 0
                            // Re-fill set so the dirty line must have been written back.
        assert!(!c.probe(0));
    }

    #[test]
    fn probe_does_not_perturb_state() {
        let mut c = small();
        c.access(0, false);
        let before_acc = c.accesses();
        assert!(c.probe(0));
        assert!(!c.probe(64));
        assert_eq!(c.accesses(), before_acc);
    }

    #[test]
    fn flush_clears_contents_not_stats() {
        let mut c = small();
        c.access(0, false);
        c.flush();
        assert!(!c.probe(0));
        assert_eq!(c.accesses(), 1);
        c.reset_stats();
        assert_eq!(c.accesses(), 0);
    }

    #[test]
    fn flush_resets_recency_state() {
        let mut c = small();
        let line = |n: u64| n * 4 * 64; // successive lines of set 0
                                        // Build skewed pre-flush recency: way 1 (line 1) much more recent.
        c.access(line(0), false);
        c.access(line(1), false);
        c.access(line(1), false);
        c.flush();
        // Refill both ways in order, then force an eviction: the victim
        // must be the post-flush LRU (line 2, refilled first), never a
        // choice influenced by pre-flush ticks.
        c.access(line(2), false);
        c.access(line(3), false);
        c.access(line(4), false);
        assert!(!c.probe(line(2)), "post-flush LRU way must be evicted");
        assert!(c.probe(line(3)));
        assert!(c.probe(line(4)));
    }

    #[test]
    fn miss_ratio_computed() {
        let mut c = small();
        assert_eq!(c.miss_ratio(), 0.0);
        c.access(0, false);
        c.access(0, false);
        assert!((c.miss_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn distinct_sets_do_not_conflict() {
        let mut c = small();
        for line in 0..4u64 {
            c.access(line * 64, false);
        }
        for line in 0..4u64 {
            assert!(c.probe(line * 64), "line {line} should be resident");
        }
    }

    #[test]
    fn high_assoc_lookup_preserves_hit_and_victim_order() {
        // 8-way × 2 sets: hits at every way position, rotations up to 8.
        let mut c = Cache::new(CacheConfig {
            size_bytes: 1024,
            assoc: 8,
            line_bytes: 64,
            latency: 1,
        });
        let line = |n: u64| n * 2 * 64; // successive lines of set 0
        for n in 0..8 {
            assert!(!c.access(line(n), false).hit);
        }
        for n in 0..8 {
            assert!(c.access(line(n), false).hit, "way {n} should hit");
        }
        assert!(!c.access(line(8), false).hit); // evicts line 0 (LRU)
        assert!(!c.probe(line(0)));
        for n in 1..9 {
            assert!(c.probe(line(n)), "line {n} should be resident");
        }
    }

    #[test]
    fn way_zero_hits_and_rotating_hits_keep_one_recency_order() {
        // Alternate hits between two lines so half the hits land on way 0
        // (nothing moves) and half rotate the set.
        let mut c = small();
        let a = 0u64;
        let b = 4 * 64;
        let d = 8 * 64;
        c.access(a, false);
        c.access(b, false);
        c.access(a, false); // hit at way 1: rotates a to the front
        c.access(a, false); // hit at way 0
        c.access(b, false); // hit at way 1 again
        c.access(d, false); // must evict a: recency order is b > a
        assert!(!c.probe(a));
        assert!(c.probe(b));
        assert!(c.probe(d));
    }
}
