//! Flattening a [`UnitCheckpoint`] to word streams and delta-encoding
//! consecutive flats against each other.
//!
//! A checkpoint flattens into two parts:
//!
//! * a **fixed section** — unit start offset, architectural CPU state,
//!   and the full warm microarchitectural state. Its word count is a
//!   pure function of the machine geometry, so consecutive units'
//!   sections align positionally and delta-encode word-for-word.
//! * a **page set** — the memory snapshot's allocated 4 KiB pages,
//!   sorted by page index, held as the *same* shared pages the snapshot
//!   holds (no copy). Each page deltas against the *previous unit's page
//!   with the same index* (zeros when absent). Consecutive snapshots
//!   share unmodified pages copy-on-write, so most pages are recognised
//!   as unchanged by identity, without reading them, and collapse to a
//!   three-byte token.
//!
//! Warm state between nearby units differs only where the stream
//! touched new sets/counters, so the fixed-section deltas are sparse
//! too — this is what makes the on-disk store far smaller than the
//! resident checkpoints.

use crate::codec::{apply_deltas, read_varint, write_varint, RleEncoder};
use crate::error::CkptError;
use smarts_core::{EngineSnapshot, UnitCheckpoint};
use smarts_isa::{Isa, Memory, Page};
use smarts_uarch::{MachineConfig, WarmState};
use std::sync::Arc;

/// Words per memory page (4 KiB of little-endian `u64`s).
pub(crate) const PAGE_WORDS: usize = Memory::PAGE_BYTES / 8;

/// A checkpoint flattened to a delta-friendly word stream plus its
/// shared memory pages.
///
/// This is the store's canonical unit of comparison: every structure's
/// `save_state` emits a *canonical* serialization (see
/// `smarts_uarch::Cache::save_state`), so two checkpoints whose states
/// behave identically flatten to equal flats regardless of the history
/// that built them (pages compare by content; identity is only a
/// shortcut), and equal flats delta-encode to identical record bytes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FlatCheckpoint {
    /// Unit start, CPU state, warm state — geometry-determined length.
    pub(crate) fixed: Vec<u64>,
    /// `(page_index, contents)` sorted ascending by index.
    pub(crate) pages: Vec<(u64, Arc<Page>)>,
}

impl FlatCheckpoint {
    /// The instruction offset at which this checkpoint's sampling unit
    /// starts.
    pub fn unit_start(&self) -> u64 {
        self.fixed.first().copied().unwrap_or(0)
    }

    /// Flattens a checkpoint. The frontend determines only how the
    /// CPU-state words are produced ([`Isa::save_state`]); the container
    /// layout is frontend-independent.
    pub fn flatten<I: Isa>(checkpoint: &UnitCheckpoint<I>) -> Self {
        let mut fixed = head_words(checkpoint);
        checkpoint.warm().save_state(&mut fixed);
        FlatCheckpoint {
            fixed,
            pages: sorted_pages(checkpoint),
        }
    }

    /// Rebuilds the checkpoint for a machine of the geometry the store
    /// was written for, parsing the CPU-state words under frontend `I`;
    /// the memory snapshot shares this flat's pages copy-on-write.
    /// Fails (with a diagnostic) when the word stream does not parse
    /// against that geometry — the corrupted-record path. Callers pick
    /// `I` from the store's recorded [`smarts_isa::IsaId`], so the words
    /// always parse under the frontend that wrote them.
    pub fn rebuild_isa<I: Isa>(
        &self,
        cfg: &MachineConfig,
    ) -> Result<UnitCheckpoint<I>, &'static str> {
        let (&unit_start, rest) = self.fixed.split_first().ok_or("fixed section is empty")?;
        let mut cpu = I::new_cpu();
        let mut used =
            I::load_state(&mut cpu, rest).ok_or("fixed section too short for CPU state")?;
        let warm_words = rest
            .get(used..)
            .ok_or("fixed section ends inside CPU state")?;
        let (warm, warm_used) = WarmState::from_state(cfg, warm_words)
            .ok_or("fixed section too short for warm state")?;
        used += warm_used;
        if used != rest.len() {
            return Err("fixed section longer than the machine geometry requires");
        }
        let mut memory = Memory::new();
        for (index, page) in &self.pages {
            memory.insert_shared_page(*index, Arc::clone(page));
        }
        Ok(UnitCheckpoint::from_parts(
            unit_start,
            EngineSnapshot::from_parts(cpu, memory),
            warm,
        ))
    }

    /// Approximate resident bytes of this flat: the fixed section's word
    /// storage plus every page and its index. This is what one
    /// lazy-replay cursor keeps materialized at a time — the per-worker
    /// residency unit the pipeline accounting reports. Pages shared with
    /// a live snapshot are counted in full.
    pub fn approx_bytes(&self) -> u64 {
        8 * self.fixed.len() as u64 + (8 + Memory::PAGE_BYTES as u64) * self.pages.len() as u64
    }
}

/// The fixed section's words ahead of the warm state: unit start, then
/// the frontend's CPU state.
fn head_words<I: Isa>(checkpoint: &UnitCheckpoint<I>) -> Vec<u64> {
    let mut head = vec![checkpoint.unit_start()];
    I::save_state(checkpoint.snapshot().cpu(), &mut head);
    head
}

/// The snapshot's own shared pages, sorted by index.
fn sorted_pages<I: Isa>(checkpoint: &UnitCheckpoint<I>) -> Vec<(u64, Arc<Page>)> {
    let shared = checkpoint.snapshot().memory().shared_pages();
    let mut pages: Vec<_> = shared
        .map(|(index, page)| (index, Arc::clone(page)))
        .collect();
    pages.sort_unstable_by_key(|&(index, _)| index);
    pages
}

/// The page stored for `index`, if any (pages are sorted, so this is a
/// binary search).
fn page_at(pages: &[(u64, Arc<Page>)], index: u64) -> Option<&Arc<Page>> {
    pages
        .binary_search_by_key(&index, |&(i, _)| i)
        .ok()
        .map(|k| &pages[k].1)
}

/// A still-encoded record borrowed straight from a mapped store — the
/// zero-copy handle [`crate::MappedStore::record`] hands out. The
/// payload bytes live in the file mapping (or its owned-buffer
/// fallback); nothing is materialized until [`FlatCheckpointRef::decode`]
/// or [`FlatCheckpointRef::advance`] runs.
#[derive(Debug, Clone, Copy)]
pub struct FlatCheckpointRef<'a> {
    pub(crate) payload: &'a [u8],
    pub(crate) record: u64,
}

impl<'a> FlatCheckpointRef<'a> {
    /// The record's index in the store.
    pub fn record(&self) -> u64 {
        self.record
    }

    /// The encoded payload bytes, borrowed from the mapping.
    pub fn payload(&self) -> &'a [u8] {
        self.payload
    }

    /// Decodes this record against the previous flat (`None` for
    /// record 0), allocating a fresh [`FlatCheckpoint`].
    ///
    /// # Errors
    ///
    /// [`CkptError::Corrupted`] when the payload does not parse as a
    /// delta record against `prev`.
    pub fn decode(&self, prev: Option<&FlatCheckpoint>) -> Result<FlatCheckpoint, CkptError> {
        decode_record(self.payload, prev).map_err(|detail| CkptError::Corrupted {
            record: self.record,
            detail,
        })
    }

    /// Decodes this record by consuming and updating the previous flat
    /// in place — the cursor fast path. Unchanged pages (a single
    /// full-length zero run) stay shared, not copied, so only the CoW
    /// page gaps a record actually encodes get touched.
    ///
    /// # Errors
    ///
    /// [`CkptError::Corrupted`] when the payload does not parse; the
    /// consumed `prev` is lost either way, so callers restart from the
    /// store on error.
    pub fn advance(&self, prev: FlatCheckpoint) -> Result<FlatCheckpoint, CkptError> {
        advance_record(self.payload, prev).map_err(|detail| CkptError::Corrupted {
            record: self.record,
            detail,
        })
    }
}

/// Words compared at a time when looking for unchanged runs: `==` over a
/// chunk of either stream is one `memcmp`, so the zero runs that make up
/// almost all of a record extend at copy speed, not a branch per word.
const CHUNK_WORDS: usize = 16;

/// Delta-encodes `curr` against `prev` (zeros when absent) as one RLE
/// stream. Both are sequences of little-endian words, `per_word`
/// elements to the word, read through `word`; `zeros` is one all-zero
/// chunk of the element type.
fn encode_deltas<T: PartialEq>(
    out: &mut Vec<u8>,
    curr: &[T],
    prev: Option<&[T]>,
    per_word: usize,
    word: fn(&[T]) -> u64,
    zeros: &[T],
) {
    let mut enc = RleEncoder::new(out);
    let chunk = CHUNK_WORDS * per_word;
    for (k, now) in curr.chunks(chunk).enumerate() {
        let before = prev.map_or(&zeros[..now.len()], |p| &p[k * chunk..][..now.len()]);
        if now == before {
            enc.push_zeros((now.len() / per_word) as u64);
        } else {
            for (n, b) in now
                .chunks_exact(per_word)
                .zip(before.chunks_exact(per_word))
            {
                enc.push(word(n).wrapping_sub(word(b)));
            }
        }
    }
    enc.finish();
}

/// The little-endian word `bytes` holds. Invariant: every caller passes
/// exactly one word — a `chunks_exact(8)` chunk, or an 8-byte range at a
/// word offset inside a 4 KiB page — so the conversion cannot fail.
fn page_word(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("8-byte word"))
}

/// Encodes one record payload: `curr` delta-encoded against `prev`
/// (record 0 deltas against all-zeros). A pure function of the two
/// flats' *contents*: a page that is the very page `prev` holds is
/// written as the all-zero-delta run without being read, which is
/// exactly what comparing its bytes would have produced.
pub(crate) fn encode_record(curr: &FlatCheckpoint, prev: Option<&FlatCheckpoint>) -> Vec<u8> {
    if let Some(prev) = prev {
        assert_eq!(
            prev.fixed.len(),
            curr.fixed.len(),
            "fixed-section length is a pure function of the geometry"
        );
    }
    let mut out = Vec::new();
    write_varint(&mut out, curr.fixed.len() as u64);
    let prev_fixed = prev.map(|p| &p.fixed[..]);
    encode_deltas(
        &mut out,
        &curr.fixed,
        prev_fixed,
        1,
        |w| w[0],
        &[0u64; CHUNK_WORDS],
    );

    encode_pages(&mut out, &curr.pages, prev.map_or(&[], |p| &p.pages));
    out
}

/// Appends the page set of a record: `pages` delta-encoded against the
/// pages of the same index in `prev`.
fn encode_pages(out: &mut Vec<u8>, pages: &[(u64, Arc<Page>)], prev: &[(u64, Arc<Page>)]) {
    write_varint(out, pages.len() as u64);
    let mut last_index = 0u64;
    for (k, (index, page)) in pages.iter().enumerate() {
        let delta = if k == 0 { *index } else { index - last_index };
        write_varint(out, delta);
        last_index = *index;
        match page_at(prev, *index) {
            Some(reference) if Arc::ptr_eq(reference, page) => {
                let mut enc = RleEncoder::new(out);
                enc.push_zeros(PAGE_WORDS as u64);
                enc.finish();
            }
            reference => encode_deltas(
                out,
                &page[..],
                reference.map(|r| &r[..]),
                8,
                page_word,
                &[0u8; 8 * CHUNK_WORDS],
            ),
        }
    }
}

/// Encodes the record of `checkpoint` against `prev`, the flat of the
/// record before it, and leaves `prev` holding the checkpoint's own
/// flat: the bytes of [`encode_record`]`(&flatten(checkpoint),
/// Some(prev))`, which stay a pure function of the two states. `shadow`
/// is the warm state `prev` was flattened from and is advanced to the
/// checkpoint's; a cache, TLB or BTB set it shows unchanged is neither
/// serialized nor compared word by word — its deltas are zeros — so the
/// cost follows the sets the unit touched, not the machine's size.
pub(crate) fn encode_next<I: Isa>(
    prev: &mut FlatCheckpoint,
    shadow: &mut WarmState,
    checkpoint: &UnitCheckpoint<I>,
) -> Vec<u8> {
    let mut out = Vec::new();
    write_varint(&mut out, prev.fixed.len() as u64);
    let mut enc = RleEncoder::new(&mut out);
    let mut done = 0usize;
    let fixed = &mut prev.fixed;
    let mut rewrite = |offset: usize, words: &[u64]| {
        enc.push_zeros((offset - done) as u64);
        for (slot, &word) in fixed[offset..offset + words.len()].iter_mut().zip(words) {
            enc.push(word.wrapping_sub(*slot));
            *slot = word;
        }
        done = offset + words.len();
    };
    let head = head_words(checkpoint);
    rewrite(0, &head);
    shadow.advance_to(checkpoint.warm(), |offset, words| {
        rewrite(head.len() + offset, words)
    });
    assert_eq!(
        done,
        fixed.len(),
        "fixed-section length is a pure function of the geometry"
    );
    enc.finish();

    let pages = sorted_pages(checkpoint);
    encode_pages(&mut out, &pages, &prev.pages);
    prev.pages = pages;
    out
}

/// Upper bounds on decoded sizes, so a corrupted length field cannot
/// drive a multi-gigabyte allocation before the mismatch is noticed.
const MAX_FIXED_WORDS: u64 = 1 << 28;
const MAX_PAGES: u64 = 1 << 24;

fn read_fixed_len(payload: &[u8], pos: &mut usize) -> Result<usize, &'static str> {
    let fixed_len = read_varint(payload, pos).ok_or("truncated fixed-section length")?;
    if fixed_len == 0 || fixed_len > MAX_FIXED_WORDS {
        return Err("implausible fixed-section length");
    }
    Ok(fixed_len as usize)
}

/// Decodes one record payload against the previous flat (record 0
/// decodes against all-zeros), leaving `prev` intact: a copy of it is
/// advanced. Returns a diagnostic on any structural inconsistency.
pub(crate) fn decode_record(
    payload: &[u8],
    prev: Option<&FlatCheckpoint>,
) -> Result<FlatCheckpoint, &'static str> {
    let base = match prev {
        Some(prev) => prev.clone(),
        None => FlatCheckpoint {
            fixed: vec![0; read_fixed_len(payload, &mut 0)?],
            pages: Vec::new(),
        },
    };
    advance_record(payload, base)
}

/// Decodes one record payload by consuming the previous flat and
/// updating it in place: the fixed section is patched word-by-word
/// where deltas are nonzero, unchanged pages keep the predecessor's
/// shared page, and only changed pages are copied and patched — this is
/// what makes a lazy replay cursor O(changed words) per step.
pub(crate) fn advance_record(
    payload: &[u8],
    prev: FlatCheckpoint,
) -> Result<FlatCheckpoint, &'static str> {
    let mut pos = 0usize;
    if prev.fixed.len() != read_fixed_len(payload, &mut pos)? {
        return Err("fixed-section length changed between records");
    }
    let FlatCheckpoint {
        mut fixed,
        pages: prev_pages,
    } = prev;
    apply_deltas(payload, &mut pos, &mut fixed).ok_or("undecodable fixed-section deltas")?;

    let page_count = read_varint(payload, &mut pos).ok_or("truncated page count")?;
    if page_count > MAX_PAGES {
        return Err("implausible page count");
    }
    let mut pages = Vec::with_capacity(page_count as usize);
    let mut last_index = 0u64;
    for k in 0..page_count {
        let delta = read_varint(payload, &mut pos).ok_or("truncated page index")?;
        if k > 0 && delta == 0 {
            return Err("page indices are not strictly ascending");
        }
        let index = last_index
            .checked_add(delta)
            .ok_or("page index overflows")?;
        last_index = index;
        let reference = prev_pages
            .binary_search_by_key(&index, |&(i, _)| i)
            .ok()
            .map(|at| &prev_pages[at].1);
        // Peek: a page encoded as one full-length zero run is
        // unchanged; share it instead of decoding PAGE_WORDS deltas.
        let mark = pos;
        let unchanged = read_varint(payload, &mut pos) == Some(0)
            && read_varint(payload, &mut pos) == Some(PAGE_WORDS as u64);
        let page = match reference {
            Some(reference) if unchanged => Arc::clone(reference),
            _ if unchanged => Arc::new([0u8; Memory::PAGE_BYTES]),
            _ => {
                pos = mark;
                let mut words = [0u64; PAGE_WORDS];
                if let Some(reference) = reference {
                    for (word, bytes) in words.iter_mut().zip(reference.chunks_exact(8)) {
                        *word = page_word(bytes);
                    }
                }
                apply_deltas(payload, &mut pos, &mut words).ok_or("undecodable page deltas")?;
                let mut page = [0u8; Memory::PAGE_BYTES];
                for (bytes, word) in page.chunks_exact_mut(8).zip(words) {
                    bytes.copy_from_slice(&word.to_le_bytes());
                }
                Arc::new(page)
            }
        };
        pages.push((index, page));
    }
    if pos != payload.len() {
        return Err("trailing bytes after the last page");
    }
    Ok(FlatCheckpoint { fixed, pages })
}

#[cfg(test)]
mod tests {
    use super::*;
    use smarts_isa::{BuiltinIsa, Cpu};
    use smarts_workloads::SplitMix64;

    fn flat(fixed: Vec<u64>, pages: Vec<(u64, Arc<Page>)>) -> FlatCheckpoint {
        FlatCheckpoint { fixed, pages }
    }

    fn page_of(value: u64) -> Arc<Page> {
        let mut page = [0u8; Memory::PAGE_BYTES];
        page[56..64].copy_from_slice(&value.to_le_bytes());
        Arc::new(page)
    }

    #[test]
    fn record_round_trips_without_predecessor() {
        let a = flat(
            vec![10, 20, 0, 0, 30],
            vec![(3, page_of(9)), (17, page_of(4))],
        );
        let payload = encode_record(&a, None);
        assert_eq!(decode_record(&payload, None).unwrap(), a);
    }

    #[test]
    fn record_round_trips_against_predecessor() {
        let a = flat(
            vec![10, 20, 0, 0, 30],
            vec![(3, page_of(9)), (17, page_of(4))],
        );
        // b shares page 3 verbatim, modifies page 17, adds page 40.
        let b = flat(
            vec![11, 20, 0, 5, 30],
            vec![(3, page_of(9)), (17, page_of(5)), (40, page_of(1))],
        );
        let payload_a = encode_record(&a, None);
        let payload_b = encode_record(&b, Some(&a));
        // The shared page collapses: b's payload is dominated by the two
        // non-shared pages, a's by both of its pages.
        assert!(payload_b.len() < payload_a.len() + 64);
        let da = decode_record(&payload_a, None).unwrap();
        let db = decode_record(&payload_b, Some(&da)).unwrap();
        assert_eq!(db, b);
    }

    #[test]
    fn identical_flats_encode_to_almost_nothing() {
        let a = flat(vec![7; 1000], vec![(5, page_of(2))]);
        let payload = encode_record(&a, Some(&a));
        // All deltas zero: one length varint, one zero-run token pair per
        // stream, one page-index varint.
        assert!(payload.len() < 24, "got {} bytes", payload.len());
    }

    #[test]
    fn advance_matches_decode_across_a_chain() {
        // A three-record chain exercising every page transition: kept
        // verbatim (3), modified (17), added (40), dropped (17 again).
        let chain = [
            flat(
                vec![10, 20, 0, 0, 30],
                vec![(3, page_of(9)), (17, page_of(4))],
            ),
            flat(
                vec![11, 20, 0, 5, 30],
                vec![(3, page_of(9)), (17, page_of(5)), (40, page_of(1))],
            ),
            flat(
                vec![12, 21, 0, 5, 30],
                vec![(3, page_of(9)), (40, page_of(2))],
            ),
        ];
        let mut prev_decoded: Option<FlatCheckpoint> = None;
        let mut rolling: Option<FlatCheckpoint> = None;
        for curr in &chain {
            let payload = encode_record(curr, prev_decoded.as_ref());
            let decoded = decode_record(&payload, prev_decoded.as_ref()).unwrap();
            let advanced = match rolling.take() {
                None => decode_record(&payload, None).unwrap(),
                Some(prev) => advance_record(&payload, prev).unwrap(),
            };
            assert_eq!(advanced, decoded);
            assert_eq!(&advanced, curr);
            prev_decoded = Some(decoded);
            rolling = Some(advanced);
        }
    }

    #[test]
    fn advance_rejects_what_decode_rejects() {
        let a = flat(vec![1, 2, 3], vec![(0, page_of(1))]);
        let payload = encode_record(&a, None);
        let b = flat(vec![1, 2, 3], vec![(0, page_of(2))]);
        let pb = encode_record(&b, Some(&a));
        // Truncated payload.
        let da = decode_record(&payload, None).unwrap();
        assert!(advance_record(&pb[..pb.len() - 1], da.clone()).is_err());
        // Trailing garbage.
        let mut longer = pb.clone();
        longer.push(0x55);
        assert!(advance_record(&longer, da.clone()).is_err());
        // Fixed-length change between records.
        let c = flat(vec![1, 2, 3, 4], vec![]);
        let pc = encode_record(&c, None);
        assert!(advance_record(&pc, da).is_err());
    }

    #[test]
    fn decode_rejects_structural_damage() {
        let a = flat(vec![1, 2, 3], vec![(0, page_of(1))]);
        let payload = encode_record(&a, None);
        // Truncated payload.
        assert!(decode_record(&payload[..payload.len() - 1], None).is_err());
        // Trailing garbage.
        let mut longer = payload.clone();
        longer.push(0x55);
        assert!(decode_record(&longer, None).is_err());
        // Fixed-length change between records.
        let b = flat(vec![1, 2, 3, 4], vec![]);
        let pb = encode_record(&b, None);
        let da = decode_record(&payload, None).unwrap();
        assert!(decode_record(&pb, Some(&da)).is_err());
        // An empty or absurd fixed-section length, with no predecessor
        // to contradict it.
        assert!(decode_record(&[], None).is_err());
        assert!(decode_record(&[0], None).is_err());
    }

    /// The encoder as it was before pages were shared and the diff was
    /// chunked: every word of both flats read and pushed one at a time.
    /// Knows nothing of page identity.
    fn encode_by_contents(curr: &FlatCheckpoint, prev: Option<&FlatCheckpoint>) -> Vec<u8> {
        let mut out = Vec::new();
        write_varint(&mut out, curr.fixed.len() as u64);
        let mut enc = RleEncoder::new(&mut out);
        for (i, &word) in curr.fixed.iter().enumerate() {
            enc.push(word.wrapping_sub(prev.map_or(0, |p| p.fixed[i])));
        }
        enc.finish();
        write_varint(&mut out, curr.pages.len() as u64);
        let mut last_index = 0u64;
        for (index, page) in &curr.pages {
            write_varint(&mut out, index - last_index);
            last_index = *index;
            let reference = prev.and_then(|p| page_at(&p.pages, *index));
            let mut enc = RleEncoder::new(&mut out);
            for (j, bytes) in page.chunks_exact(8).enumerate() {
                let base = reference.map_or(0, |r| page_word(&r[8 * j..8 * j + 8]));
                enc.push(page_word(bytes).wrapping_sub(base));
            }
            enc.finish();
        }
        out
    }

    fn random_page(rng: &mut SplitMix64) -> Arc<Page> {
        let mut page = [0u8; Memory::PAGE_BYTES];
        // Sparse, dense, or all-zero (a page allocated but never
        // written to a non-zero value is real state).
        let writes = [0, 3, 700][rng.below(3) as usize];
        for _ in 0..writes {
            let at = rng.below(PAGE_WORDS as u64) as usize * 8;
            page[at..at + 8].copy_from_slice(&rng.next_u64().to_le_bytes());
        }
        Arc::new(page)
    }

    /// One random successor of `prev`: the fixed section changes in a
    /// few single words and a few runs (its length is deliberately not a
    /// multiple of the diff chunk), and every page of `prev` is kept by
    /// identity, kept as an equal-content copy, modified, or dropped;
    /// fresh pages are added between them.
    fn random_successor(rng: &mut SplitMix64, prev: &FlatCheckpoint) -> FlatCheckpoint {
        let mut fixed = prev.fixed.clone();
        for _ in 0..rng.below(6) {
            let at = rng.below(fixed.len() as u64) as usize;
            let run = (1 + rng.below(40) as usize).min(fixed.len() - at);
            for word in &mut fixed[at..at + run] {
                *word = rng.next_u64() >> rng.below(64);
            }
        }
        let mut pages = Vec::new();
        for (index, page) in &prev.pages {
            match rng.below(5) {
                0 => pages.push((*index, Arc::clone(page))),
                1 => pages.push((*index, Arc::new(**page))),
                2 => {
                    let mut copy = **page;
                    let at = rng.below(PAGE_WORDS as u64) as usize * 8;
                    copy[at] ^= 1 + rng.below(255) as u8;
                    pages.push((*index, Arc::new(copy)));
                }
                3 => {}
                _ => pages.push((*index + 1 + rng.below(3), random_page(rng))),
            }
        }
        pages.push((1 << 20 | rng.below(1 << 16), random_page(rng)));
        pages.sort_unstable_by_key(|&(index, _)| index);
        pages.dedup_by_key(|&mut (index, _)| index);
        flat(fixed, pages)
    }

    #[test]
    fn identity_fast_path_encodes_what_the_contents_encode() {
        for seed in 0..24u64 {
            let mut rng = SplitMix64::new(seed);
            let fixed_len = 1 + rng.below(200) as usize;
            let first = {
                let fixed = (0..fixed_len)
                    .map(|_| rng.next_u64() >> rng.below(64))
                    .collect();
                let pages = (0..rng.below(12))
                    .map(|k| (10 * k + rng.below(10), random_page(&mut rng)))
                    .collect();
                flat(fixed, pages)
            };
            let mut prev: Option<FlatCheckpoint> = None;
            let mut rolling: Option<FlatCheckpoint> = None;
            let mut curr = first;
            for step in 0..6 {
                let payload = encode_record(&curr, prev.as_ref());
                assert_eq!(
                    payload,
                    encode_by_contents(&curr, prev.as_ref()),
                    "seed {seed} record {step}"
                );
                // Sharing must not matter either: the same contents
                // behind all-fresh pages encode to the same bytes.
                let unshared = flat(
                    curr.fixed.clone(),
                    curr.pages
                        .iter()
                        .map(|(i, p)| (*i, Arc::new(**p)))
                        .collect(),
                );
                assert_eq!(encode_record(&unshared, prev.as_ref()), payload);

                let decoded = decode_record(&payload, prev.as_ref()).unwrap();
                assert_eq!(decoded, curr, "seed {seed} record {step}: decode");
                let advanced = match rolling.take() {
                    None => decode_record(&payload, None).unwrap(),
                    Some(rolled) => advance_record(&payload, rolled).unwrap(),
                };
                assert_eq!(advanced, curr, "seed {seed} record {step}: advance");
                rolling = Some(advanced);
                let next = random_successor(&mut rng, &curr);
                prev = Some(std::mem::replace(&mut curr, next));
            }
        }
    }

    #[test]
    fn flatten_shares_snapshot_pages_and_rebuild_round_trips() {
        let cfg = MachineConfig::eight_way();
        let checkpoint_of = |memory: &Memory, unit_start: u64| {
            let mut cpu = Cpu::new();
            cpu.set_reg(5, unit_start ^ 0xABCD);
            UnitCheckpoint::<BuiltinIsa>::from_parts(
                unit_start,
                EngineSnapshot::from_parts(cpu, memory.clone()),
                WarmState::new(&cfg),
            )
        };
        // Page 1 is untouched between the snapshots, page 2 rewritten
        // with the bytes it already held (a fresh copy-on-write page of
        // equal content), page 3 modified, page 9 added.
        let mut memory = Memory::new();
        for page in [1u64, 2, 3] {
            memory.write_u64(page << 12, page);
        }
        let first = checkpoint_of(&memory, 1000);
        memory.write_u64(2 << 12, 2);
        memory.write_u64(3 << 12, 33);
        memory.write_u64(9 << 12, 9);
        let second = checkpoint_of(&memory, 2000);

        let a = FlatCheckpoint::flatten(&first);
        let b = FlatCheckpoint::flatten(&second);
        assert!(Arc::ptr_eq(
            page_at(&a.pages, 1).unwrap(),
            page_at(&b.pages, 1).unwrap()
        ));
        assert!(!Arc::ptr_eq(
            page_at(&a.pages, 2).unwrap(),
            page_at(&b.pages, 2).unwrap()
        ));
        assert_eq!(page_at(&a.pages, 2), page_at(&b.pages, 2));

        let payload_a = encode_record(&a, None);
        let payload_b = encode_record(&b, Some(&a));
        assert_eq!(payload_b, encode_by_contents(&b, Some(&a)));
        let da = decode_record(&payload_a, None).unwrap();
        let db = advance_record(&payload_b, da).unwrap();
        assert_eq!(db, b);

        let rebuilt = db.rebuild_isa::<BuiltinIsa>(&cfg).unwrap();
        assert_eq!(rebuilt.unit_start(), 2000);
        assert_eq!(rebuilt.snapshot().cpu(), second.snapshot().cpu());
        assert_eq!(
            rebuilt.snapshot().memory().pages_sorted(),
            second.snapshot().memory().pages_sorted()
        );
        assert_eq!(FlatCheckpoint::flatten(&rebuilt), b);
        // The rebuilt snapshot shares the flat's pages, copy-on-write.
        let mut seen = std::collections::HashSet::new();
        for (_, page) in &db.pages {
            seen.insert(Arc::as_ptr(page) as usize);
        }
        assert_eq!(
            rebuilt.snapshot().memory().resident_bytes_dedup(&mut seen),
            0
        );
        assert!(db
            .rebuild_isa::<BuiltinIsa>(&MachineConfig::sixteen_way())
            .is_err());
    }

    /// A chain of checkpoints along one random warming walk: between
    /// units nothing at all is touched, or a few to a few thousand
    /// cache, TLB, predictor and memory accesses land in one narrow or
    /// wide region, so consecutive states differ in no set, few or many.
    fn random_chain(rng: &mut SplitMix64, cfg: &MachineConfig, units: u64) -> Vec<UnitCheckpoint> {
        use smarts_isa::OpClass::{Call, CondBranch, Jump, Return};
        let mut warm = WarmState::new(cfg);
        let mut memory = Memory::new();
        let mut cpu = Cpu::new();
        let mut chain = Vec::new();
        for unit in 0..units {
            let touches = [0, 3, 40, 3000][rng.below(4) as usize];
            let region = rng.next_u64() & 0xFFFF_F000;
            let spread = [8, 14, 22][rng.below(3) as usize];
            for _ in 0..touches {
                let addr = region + rng.below(1 << spread);
                let flag = rng.below(2) == 1;
                match rng.below(5) {
                    0 => {
                        warm.itlb.access(addr);
                        warm.hierarchy.access_instr(addr);
                    }
                    1 => {
                        warm.dtlb.access(addr);
                        warm.hierarchy.access_data(addr, flag);
                    }
                    2 => warm.bpred.warm(addr % 5000, CondBranch, flag, addr % 777),
                    3 => {
                        let class = [Jump, Call, Return][rng.below(3) as usize];
                        warm.bpred.warm(addr % 5000, class, true, addr % 777);
                    }
                    _ => memory.write_u64(addr & !7, rng.next_u64()),
                }
            }
            cpu.set_reg(5, unit);
            chain.push(UnitCheckpoint::from_parts(
                1000 * unit,
                EngineSnapshot::from_parts(cpu.clone(), memory.clone()),
                warm.clone(),
            ));
        }
        chain
    }

    #[test]
    fn incremental_encoding_is_flatten_plus_encode_record() {
        use crate::lazy::encode_footer;
        use crate::store::{encode_header, warm_fingerprint, CkptWriter, StoreMeta};
        for seed in 0..10u64 {
            let mut rng = SplitMix64::new(0x1AC4_E000 + seed);
            let cfg = if seed % 3 == 0 {
                MachineConfig::sixteen_way()
            } else {
                MachineConfig::eight_way()
            };
            let chain = random_chain(&mut rng, &cfg, 8);

            let mut prev = FlatCheckpoint::flatten(&chain[0]);
            let mut shadow = chain[0].warm().clone();
            for (unit, next) in chain.iter().enumerate().skip(1) {
                let flat = FlatCheckpoint::flatten(next);
                let want = encode_record(&flat, Some(&prev));
                let got = encode_next(&mut prev, &mut shadow, next);
                assert_eq!(got, want, "seed {seed} record {unit}");
                assert_eq!(prev, flat, "seed {seed} record {unit}: flat left behind");
            }

            // Through the writer: the file it finishes is the header, each
            // record's full-serializer encoding framed by length and CRC,
            // and the footer over those frames' offsets.
            let path = std::env::temp_dir().join(format!(
                "smarts-flat-prop-{}-{seed}.ckpt",
                std::process::id()
            ));
            let meta = StoreMeta {
                params: smarts_core::SamplingParams::for_sample_size(
                    1 << 20,
                    1000,
                    2000,
                    smarts_core::Warming::Functional,
                    10,
                    0,
                )
                .expect("valid params"),
                benchmark: "walk".to_string(),
                scale: 1.0,
                isa: smarts_isa::IsaId::Builtin,
            };
            let mut writer = CkptWriter::create(&path, &cfg, &meta).expect("create");
            for checkpoint in &chain {
                writer.append(checkpoint).expect("append");
            }
            writer.finish().expect("finish");
            let appended = std::fs::read(&path).expect("read back");
            std::fs::remove_file(&path).ok();

            let mut reference = encode_header(warm_fingerprint(&cfg), &meta);
            let mut offsets = Vec::new();
            let mut prev: Option<FlatCheckpoint> = None;
            for checkpoint in &chain {
                let flat = FlatCheckpoint::flatten(checkpoint);
                let payload = encode_record(&flat, prev.as_ref());
                offsets.push(reference.len() as u64);
                reference.extend_from_slice(&(payload.len() as u32).to_le_bytes());
                reference.extend_from_slice(&smarts_isa::crc32(&payload).to_le_bytes());
                reference.extend_from_slice(&payload);
                prev = Some(flat);
            }
            reference.extend_from_slice(&encode_footer(&offsets));
            assert_eq!(appended, reference, "seed {seed}");
        }
    }

    #[test]
    #[should_panic(expected = "different geometry")]
    fn incremental_encoding_rejects_a_geometry_change() {
        let mut rng = SplitMix64::new(5);
        let first = &random_chain(&mut rng, &MachineConfig::eight_way(), 1)[0];
        let other = &random_chain(&mut rng, &MachineConfig::sixteen_way(), 1)[0];
        let mut prev = FlatCheckpoint::flatten(first);
        let mut shadow = first.warm().clone();
        encode_next(&mut prev, &mut shadow, other);
    }
}
