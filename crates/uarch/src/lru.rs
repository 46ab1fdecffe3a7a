//! The one set-associative true-LRU array under [`crate::Cache`],
//! [`crate::Tlb`] and the branch target buffer.

use crate::warm::StateDiff;

/// One way's key. This is the hot structures' whole per-way cost: a
/// field added to it fails here instead of silently eroding S_FW.
pub(crate) type Way = u64;
const _: () = assert!(std::mem::size_of::<Way>() == 8);

/// `sets × assoc` ways, one `u64` key per way.
///
/// A key is `tag << flag_bits | flags` with bit 0 the valid flag, so `0`
/// is an empty way. Each set is stored **most-recent-first with its
/// occupied ways a prefix**: a hit at way 0 changes nothing, any other
/// hit or a fill rotates at most `assoc` words, and the LRU victim is
/// always the last way. Which physical way a line sits in was never
/// observable (lookups match on tag, victims are chosen by recency), so
/// this is true LRU exactly as a per-way timestamp would give it — and
/// the in-memory order is the canonical order [`LruSets::save_state`]
/// writes.
#[derive(Debug)]
pub(crate) struct LruSets {
    keys: Vec<Way>,
    // One word per way rotated with the keys (the BTB's targets); empty
    // when the owner keeps none.
    payload: Vec<u64>,
    assoc: usize,
    flag_bits: u32,
    // Tag and valid bit: what a lookup compares (other flags ride along).
    match_mask: u64,
    set_count: u64,
    // Shift/mask indexing when the set count is a power of two (every
    // Table 3 structure); the divide path computes the same values.
    set_shift: Option<u32>,
}

// Field-wise, so `clone_from` copies into the arrays it already has: a
// warm state recycled for the next unit's checkpoint allocates nothing.
impl Clone for LruSets {
    fn clone(&self) -> Self {
        LruSets {
            keys: self.keys.clone(),
            payload: self.payload.clone(),
            ..*self
        }
    }

    fn clone_from(&mut self, source: &Self) {
        let LruSets {
            keys,
            payload,
            assoc,
            flag_bits,
            match_mask,
            set_count,
            set_shift,
        } = self;
        keys.clone_from(&source.keys);
        payload.clone_from(&source.payload);
        (*assoc, *flag_bits, *match_mask) = (source.assoc, source.flag_bits, source.match_mask);
        (*set_count, *set_shift) = (source.set_count, source.set_shift);
    }
}

/// Moves `ways[way]` to the front as `value`, shifting the ways before it
/// one place back; returns the word that was there.
#[inline]
fn to_front(ways: &mut [u64], way: usize, value: u64) -> u64 {
    let old = ways[way];
    ways.copy_within(0..way, 1);
    ways[0] = value;
    old
}

impl LruSets {
    /// An empty array. `block_bytes` is the span of one block number
    /// (line, page, instruction): `tag << flag_bits` must only drop
    /// address bits the block offset and set index already removed.
    pub(crate) fn new(
        sets: u64,
        assoc: u32,
        flag_bits: u32,
        block_bytes: u64,
        payload: bool,
    ) -> Self {
        assert!(sets > 0 && assoc > 0 && flag_bits > 0);
        assert!(
            block_bytes.saturating_mul(sets) >> flag_bits != 0,
            "a tag of this geometry does not fit beside {flag_bits} flag bits"
        );
        let ways = (sets * assoc as u64) as usize;
        LruSets {
            keys: vec![0; ways],
            payload: vec![0; if payload { ways } else { 0 }],
            assoc: assoc as usize,
            flag_bits,
            match_mask: !((1 << flag_bits) - 2),
            set_count: sets,
            set_shift: sets.is_power_of_two().then(|| sets.trailing_zeros()),
        }
    }

    pub(crate) fn approx_bytes(&self) -> usize {
        (self.keys.len() + self.payload.len()) * std::mem::size_of::<Way>()
    }

    /// Empties every way.
    pub(crate) fn clear(&mut self) {
        self.keys.fill(0);
    }

    /// The set a block number maps to, as the offset of its first way,
    /// and the valid key (no other flag set) of its tag.
    #[inline]
    fn locate(&self, block: u64) -> (usize, u64) {
        let (set, tag) = match self.set_shift {
            Some(shift) => (block & (self.set_count - 1), block >> shift),
            None => (block % self.set_count, block / self.set_count),
        };
        (set as usize * self.assoc, tag << self.flag_bits | 1)
    }

    /// The way of the set at `base` holding `key`; flags other than the
    /// valid bit do not take part in the match.
    #[inline]
    fn find(&self, base: usize, key: u64) -> Option<usize> {
        self.keys[base..base + self.assoc]
            .iter()
            .position(|&k| k & self.match_mask == key)
    }

    /// Whether `block` has an entry, without touching recency.
    #[inline]
    pub(crate) fn probe(&self, block: u64) -> bool {
        let (base, key) = self.locate(block);
        self.find(base, key).is_some()
    }

    /// One access to `block`. On a hit its entry becomes the set's most
    /// recent, keeping its flags and gaining `flags`; on a miss it is
    /// filled with `flags` as the most recent and the last way — the LRU
    /// entry, or an empty way while the set fills — falls out and is
    /// returned as `Err`. (Always inlined: it *is* the body of
    /// `Cache::access` and `Tlb::access`.)
    #[inline(always)]
    pub(crate) fn access(&mut self, block: u64, flags: u64) -> Result<(), u64> {
        let (base, key) = self.locate(block);
        let found = self.find(base, key);
        let ways = &mut self.keys[base..base + self.assoc];
        match found {
            // Temporal locality makes way 0 the common hit: nothing moves.
            Some(0) => ways[0] |= flags,
            Some(way) => {
                to_front(ways, way, ways[way] | flags);
            }
            None => return Err(to_front(ways, ways.len() - 1, key | flags)),
        }
        Ok(())
    }

    /// Moves way `way` of the set at `base` to the front as `(key, payload)`.
    #[inline]
    fn promote(&mut self, base: usize, way: usize, key: u64, payload: u64) {
        to_front(&mut self.keys[base..base + self.assoc], way, key);
        to_front(&mut self.payload[base..base + self.assoc], way, payload);
    }

    /// Touches the entry of `block`, if there is one, and returns its
    /// payload word (for arrays that keep one: the BTB).
    #[inline]
    pub(crate) fn lookup(&mut self, block: u64) -> Option<u64> {
        let (base, key) = self.locate(block);
        let way = self.find(base, key)?;
        let payload = self.payload[base + way];
        if way != 0 {
            self.promote(base, way, key, payload);
        }
        Some(payload)
    }

    /// Makes `block` its set's most recent entry, with `payload`.
    #[inline]
    pub(crate) fn store(&mut self, block: u64, payload: u64) {
        let (base, key) = self.locate(block);
        match self.find(base, key) {
            Some(0) => self.payload[base] = payload,
            Some(way) => self.promote(base, way, key, payload),
            None => self.promote(base, self.assoc - 1, key, payload),
        }
    }

    /// Store words per way: tag, payload if kept, rank, flags.
    fn per_way(&self) -> usize {
        3 + !self.payload.is_empty() as usize
    }

    /// Number of words [`LruSets::save_state`] appends.
    pub(crate) fn state_words(&self) -> usize {
        self.keys.len() * self.per_way() + self.set_count as usize + 1
    }

    /// Appends one set's canonical words: per occupied way its tag, its
    /// payload word if kept, its recency rank (most recent = number of
    /// occupied ways, least recent = 1) and its flags; all-zero words for
    /// the empty ways.
    fn expand_set(&self, base: usize, out: &mut Vec<u64>) {
        let ways = &self.keys[base..base + self.assoc];
        let present = ways.iter().take_while(|&&k| k != 0).count();
        debug_assert!(
            ways[present..].iter().all(|&k| k == 0),
            "occupied ways are a prefix"
        );
        for (pos, &key) in ways[..present].iter().enumerate() {
            let tag = key >> self.flag_bits;
            debug_assert!(
                ways[..pos].iter().all(|&k| k >> self.flag_bits != tag),
                "no tag twice in a set"
            );
            out.push(tag);
            out.extend(self.payload.get(base + pos));
            out.push((present - pos) as u64);
            out.push(key & ((1 << self.flag_bits) - 1));
        }
        out.resize(out.len() + (self.assoc - present) * self.per_way(), 0);
    }

    /// Appends every set's words (see [`LruSets::expand_set`]), then the
    /// constants that stand where the historical layout kept per-set scan
    /// hints (zeros) and a global access tick (the associativity, i.e.
    /// one past the highest rank). The memory order already is the
    /// canonical order, so this is a linear expansion.
    pub(crate) fn save_state(&self, out: &mut Vec<u64>) {
        out.reserve(self.state_words());
        for base in (0..self.keys.len()).step_by(self.assoc) {
            self.expand_set(base, out);
        }
        out.resize(out.len() + self.set_count as usize, 0);
        out.push(self.assoc as u64);
    }

    /// Packs the words [`LruSets::save_state`] wrote back into the array.
    /// Accepts only what `save_state` can have written — occupied ways
    /// first, ranks counting down to 1, distinct tags that fit beside the
    /// flags, zero hints, tick = associativity — so a record cannot build
    /// a set no access stream could. Returns the words consumed, or
    /// `None` (state then unspecified) otherwise.
    pub(crate) fn load_state(&mut self, words: &[u64]) -> Option<usize> {
        // Every replayed unit is rebuilt through here: the per-set loops
        // are unrolled for the associativities of the Table 3 machines
        // (the checks then cost about what the packing does); any other
        // runs the same code with a runtime trip count.
        match self.assoc {
            2 => self.load_ways::<2>(words),
            4 => self.load_ways::<4>(words),
            8 => self.load_ways::<8>(words),
            _ => self.load_ways::<0>(words),
        }
    }

    /// [`LruSets::load_state`] for `A`-way sets (`A == 0`: `self.assoc`).
    fn load_ways<const A: usize>(&mut self, words: &[u64]) -> Option<usize> {
        let assoc = if A == 0 { self.assoc } else { A };
        let (per_way, flag_bits) = (self.per_way(), self.flag_bits);
        let needed = self.state_words();
        let (ways, tail) = words.get(..needed)?.split_at(self.keys.len() * per_way);
        // Checks accumulate instead of returning early: one pass whose
        // only branches follow set occupancy, one verdict at the end.
        let mut sound = true;
        for (base, set) in (0..).step_by(assoc).zip(ways.chunks_exact(assoc * per_way)) {
            let keys = &mut self.keys[base..base + assoc];
            // The most recent way's rank is the number of occupied ways.
            let present = if set[per_way - 1] == 0 {
                0
            } else {
                set[per_way - 2]
            };
            sound &= present <= assoc as u64;
            for pos in 0..assoc {
                let way = &set[per_way * pos..per_way * (pos + 1)];
                let (tag, rank, flags) = (way[0], way[per_way - 2], way[per_way - 1]);
                let key = tag << flag_bits | flags;
                let occupied = (pos as u64) < present;
                sound &= rank == if occupied { present - pos as u64 } else { 0 };
                sound &= (flags & 1 == 1) == occupied;
                sound &= flags >> flag_bits == 0 && key >> flag_bits == tag;
                sound &= occupied || (key == 0 && way[1] == 0);
                for &earlier in &keys[..pos] {
                    sound &= !(occupied && (earlier ^ key) >> flag_bits == 0);
                }
                keys[pos] = key;
                if let Some(payload) = self.payload.get_mut(base + pos) {
                    *payload = way[1];
                }
            }
        }
        let (hints, tick) = tail.split_at(self.set_count as usize);
        (sound && hints.iter().all(|&h| h == 0) && tick[0] == self.assoc as u64).then_some(needed)
    }

    /// Makes `self` equal to `next`, reporting the new canonical words of
    /// every set that differs, and steps `diff` past this array's words.
    pub(crate) fn advance_to(&mut self, next: &LruSets, diff: &mut StateDiff) {
        assert!(
            (
                self.keys.len(),
                self.payload.len(),
                self.assoc,
                self.flag_bits
            ) == (
                next.keys.len(),
                next.payload.len(),
                next.assoc,
                next.flag_bits
            ),
            "warm states of different geometry"
        );
        let payload = !self.payload.is_empty();
        for base in (0..self.keys.len()).step_by(self.assoc) {
            let span = base..base + self.assoc;
            if self.keys[span.clone()] == next.keys[span.clone()]
                && (!payload || self.payload[span.clone()] == next.payload[span.clone()])
            {
                continue;
            }
            self.keys[span.clone()].copy_from_slice(&next.keys[span.clone()]);
            if payload {
                self.payload[span.clone()].copy_from_slice(&next.payload[span]);
            }
            diff.report(base * self.per_way(), |words| next.expand_set(base, words));
        }
        diff.at += self.state_words();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clone_from_copies_into_the_arrays_it_has() {
        let mut source = LruSets::new(64, 4, 1, 1, true);
        for block in 0..500 {
            source.store(block * 7, block);
        }
        let mut spare = LruSets::new(64, 4, 1, 1, true);
        spare.store(3, 9);
        let arrays = (spare.keys.as_ptr(), spare.payload.as_ptr());
        spare.clone_from(&source);
        assert_eq!((spare.keys.as_ptr(), spare.payload.as_ptr()), arrays);
        assert_eq!(
            (&spare.keys, &spare.payload),
            (&source.keys, &source.payload)
        );
        assert_eq!(spare.lookup(7 * 499), Some(499));
    }
}
