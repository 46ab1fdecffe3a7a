//! The store reader: a memory-mapped store addressed by record index,
//! decoding lazily. This module is the one place that knows the record
//! framing and the index footer's layout; [`crate::CkptWriter`] only
//! appends frames and calls [`encode_footer`].
//!
//! A [`MappedStore`] keeps only the *encoded* bytes addressable — via
//! `mmap(2)` they are not even resident until touched — and hands out
//! [`FlatCheckpointRef`] views that borrow straight from the map.
//! Decoding happens per cursor: a [`StoreCursor`] rolls one
//! [`FlatCheckpoint`] forward through the delta chain, so a replay's
//! peak residency is O(one checkpoint) per worker plus the file's page
//! cache, instead of O(units).
//!
//! Opening parses the header and locates every record frame — from the
//! index footer when it is intact (O(footer) work, no record bytes
//! touched), by sequential frame scan when the footer is missing or
//! damaged. A damaged store still exposes its bit-exact intact prefix;
//! the damage itself is retained and reported through
//! [`MappedStore::damage`]. Record CRCs are *not* checked at open: each
//! record is verified on first touch, once, with the result memoized
//! across all cursors and threads.

use crate::error::CkptError;
use crate::flat::{FlatCheckpoint, FlatCheckpointRef};
use crate::mmap::StoreMap;
use crate::store::{check_fingerprint, decode_header, encode_header, StoreMeta, INDEX_MAGIC};
use smarts_uarch::MachineConfig;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};

/// Largest record payload a reader will address; anything bigger is
/// treated as corruption (a real record is a few MiB at most).
pub(crate) const MAX_PAYLOAD: u32 = 1 << 30;

/// First word of the index footer. Deliberately larger than
/// [`MAX_PAYLOAD`], so it can never be confused with a record prefix:
/// it doubles as the end-of-records sentinel of the sequential scan.
const FOOTER_MARKER: u32 = 0xFFFF_FFFF;

/// Encodes the index footer for the given record-prefix offsets.
/// A pure function of the record stream, so stores with identical
/// records carry identical footers.
pub(crate) fn encode_footer(offsets: &[u64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + 8 + 8 * offsets.len() + 4 + 16);
    out.extend_from_slice(&FOOTER_MARKER.to_le_bytes());
    out.extend_from_slice(&(offsets.len() as u64).to_le_bytes());
    for &offset in offsets {
        out.extend_from_slice(&offset.to_le_bytes());
    }
    // CRC over count + offsets (everything after the marker).
    let crc = smarts_isa::crc32(&out[4..]);
    out.extend_from_slice(&crc.to_le_bytes());
    let footer_len = out.len() as u64; // marker through crc, inclusive
    out.extend_from_slice(&footer_len.to_le_bytes());
    out.extend_from_slice(&INDEX_MAGIC);
    out
}

/// One record's frame inside the file: payload span plus its stored
/// CRC.
#[derive(Debug, Clone, Copy)]
struct RecordFrame {
    payload_start: usize,
    payload_len: u32,
    crc: u32,
}

/// A record's on-disk placement, as reported by
/// [`MappedStore::record_span`] — the inventory view (`smarts
/// ckpt-info --json`) of one frame without decoding it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordSpan {
    /// File offset of the frame's 8-byte length+CRC prefix.
    pub offset: u64,
    /// Payload bytes following the prefix (the frame occupies
    /// `offset .. offset + 8 + payload_bytes`).
    pub payload_bytes: u64,
    /// The CRC32 stored in the frame prefix (not re-verified here).
    pub crc: u32,
}

/// A checkpoint store opened for zero-copy random access. See the
/// module docs for the residency model. Shareable across threads
/// (`&MappedStore` is `Sync`); every concurrent reader shares one
/// mapping and one first-touch CRC memo.
#[derive(Debug)]
pub struct MappedStore {
    map: StoreMap,
    fingerprint: u64,
    meta: StoreMeta,
    header_len: usize,
    frames: Vec<RecordFrame>,
    damage: Option<CkptError>,
    /// First-touch CRC memo: `checked[i]` is set once record `i` has
    /// passed its CRC, after which no reader re-hashes it.
    checked: Vec<AtomicBool>,
}

impl MappedStore {
    /// Opens a store for replay on machine `cfg`, memory-mapping it
    /// when the platform allows (owned-buffer fallback otherwise).
    ///
    /// # Errors
    ///
    /// [`CkptError::BadMagic`], [`CkptError::UnsupportedVersion`], or
    /// [`CkptError::HeaderCorrupted`] when the header does not parse;
    /// [`CkptError::FingerprintMismatch`] for the wrong warm geometry;
    /// [`CkptError::Io`]. Record damage is *not* an
    /// open error — it is retained and reported by
    /// [`MappedStore::damage`].
    pub fn open(path: impl AsRef<Path>, cfg: &MachineConfig) -> Result<Self, CkptError> {
        let store = Self::open_unchecked_impl(path.as_ref(), true)?;
        check_fingerprint(cfg, store.fingerprint)?;
        Ok(store)
    }

    /// Opens like [`MappedStore::open`] but never memory-maps: the
    /// whole file is read into an owned buffer. Decode behaviour is
    /// identical; this is the portable fallback path, exposed so tests
    /// (and platforms without `mmap`) can pin it.
    pub fn open_buffered(path: impl AsRef<Path>, cfg: &MachineConfig) -> Result<Self, CkptError> {
        let store = Self::open_unchecked_impl(path.as_ref(), false)?;
        check_fingerprint(cfg, store.fingerprint)?;
        Ok(store)
    }

    /// Opens a store without a machine to check the fingerprint
    /// against — the inventory path (`smarts ckpt-info`), which must
    /// work on any store regardless of the local geometry.
    ///
    /// # Errors
    ///
    /// Header parse errors and [`CkptError::Io`] only.
    pub fn open_unchecked(path: impl AsRef<Path>) -> Result<Self, CkptError> {
        Self::open_unchecked_impl(path.as_ref(), true)
    }

    fn open_unchecked_impl(path: &Path, allow_mmap: bool) -> Result<Self, CkptError> {
        let map = StoreMap::open(path, allow_mmap)?;
        let bytes = map.bytes();
        let (fingerprint, meta) = decode_header(&mut &bytes[..])?;
        // Header length is a pure function of its fields; re-encoding
        // recovers where the record region starts.
        let header_len = encode_header(fingerprint, &meta).len();
        let mut store = MappedStore {
            map,
            fingerprint,
            meta,
            header_len,
            frames: Vec::new(),
            damage: None,
            checked: Vec::new(),
        };
        store.locate_records();
        store.checked = (0..store.frames.len())
            .map(|_| AtomicBool::new(false))
            .collect();
        Ok(store)
    }

    /// Locates every record frame: via the index footer when intact,
    /// by sequential scan otherwise.
    fn locate_records(&mut self) {
        match self.frames_from_footer() {
            Some(frames) => self.frames = frames,
            None => self.scan_records(),
        }
    }

    /// Validates the index footer end-to-end and converts it to record
    /// frames. Every check cross-validates the offsets against the
    /// actual frame geometry (contiguity from the header to the footer
    /// start), so a footer that passes here describes exactly the
    /// record stream a sequential scan would find.
    fn frames_from_footer(&self) -> Option<Vec<RecordFrame>> {
        let bytes = self.map.bytes();
        let n = bytes.len();
        // Smallest footer: marker + count + crc + footer_len + magic.
        if n < self.header_len + 32 || bytes[n - 8..] != INDEX_MAGIC {
            return None;
        }
        let footer_len = u64::from_le_bytes(bytes[n - 16..n - 8].try_into().ok()?) as usize;
        let footer_start = (n - 16).checked_sub(footer_len)?;
        if footer_start < self.header_len {
            return None;
        }
        let footer = &bytes[footer_start..n - 16];
        if footer.len() < 16 || footer[..4] != FOOTER_MARKER.to_le_bytes() {
            return None;
        }
        let count = u64::from_le_bytes(footer[4..12].try_into().ok()?);
        // `count` is the file's word: a huge one must not wrap into a
        // length that matches.
        if count.checked_mul(8).and_then(|b| b.checked_add(16)) != Some(footer.len() as u64) {
            return None;
        }
        let stored_crc = u32::from_le_bytes(footer[footer.len() - 4..].try_into().ok()?);
        if smarts_isa::crc32(&footer[4..footer.len() - 4]) != stored_crc {
            return None;
        }
        let mut frames = Vec::with_capacity(count as usize);
        let mut expected_offset = self.header_len;
        for k in 0..count as usize {
            let at = 12 + 8 * k;
            let offset = u64::from_le_bytes(footer[at..at + 8].try_into().ok()?);
            if offset != expected_offset as u64 {
                return None;
            }
            let prefix_end = expected_offset.checked_add(8)?;
            if prefix_end > footer_start {
                return None;
            }
            let payload_len = u32::from_le_bytes(
                bytes[expected_offset..expected_offset + 4]
                    .try_into()
                    .ok()?,
            );
            let crc = u32::from_le_bytes(
                bytes[expected_offset + 4..expected_offset + 8]
                    .try_into()
                    .ok()?,
            );
            if payload_len > MAX_PAYLOAD {
                return None;
            }
            let payload_end = prefix_end.checked_add(payload_len as usize)?;
            if payload_end > footer_start {
                return None;
            }
            frames.push(RecordFrame {
                payload_start: prefix_end,
                payload_len,
                crc,
            });
            expected_offset = payload_end;
        }
        // The records must tile the region exactly up to the footer.
        if expected_offset != footer_start {
            return None;
        }
        Some(frames)
    }

    /// Sequential frame scan — the salvage path for a missing or
    /// damaged footer. Recovers the bit-exact intact prefix and
    /// records what stopped the scan as [`MappedStore::damage`].
    /// Payload CRCs are still checked lazily at first touch.
    fn scan_records(&mut self) {
        let bytes = self.map.bytes();
        let mut pos = self.header_len;
        loop {
            let record = self.frames.len() as u64;
            if pos == bytes.len() {
                self.damage = Some(CkptError::Corrupted {
                    record,
                    detail: "index footer missing",
                });
                return;
            }
            let Some(&[l0, l1, l2, l3, c0, c1, c2, c3]) = bytes[pos..].first_chunk::<8>() else {
                self.damage = Some(CkptError::Truncated {
                    record,
                    recovered: record,
                });
                return;
            };
            let payload_len = u32::from_le_bytes([l0, l1, l2, l3]);
            let crc = u32::from_le_bytes([c0, c1, c2, c3]);
            if payload_len == FOOTER_MARKER {
                // Reached a footer marker with a footer that failed
                // end-anchored validation (or trailing bytes follow a
                // valid one): the prefix is intact, the index is not.
                self.damage = Some(CkptError::Corrupted {
                    record,
                    detail: "index footer damaged",
                });
                return;
            }
            if payload_len > MAX_PAYLOAD {
                self.damage = Some(CkptError::Corrupted {
                    record,
                    detail: "implausible record length",
                });
                return;
            }
            if pos + 8 + payload_len as usize > bytes.len() {
                self.damage = Some(CkptError::Truncated {
                    record,
                    recovered: record,
                });
                return;
            }
            self.frames.push(RecordFrame {
                payload_start: pos + 8,
                payload_len,
                crc,
            });
            pos += 8 + payload_len as usize;
        }
    }

    /// The store's sampling design and benchmark identity.
    pub fn meta(&self) -> &StoreMeta {
        &self.meta
    }

    /// The warm-geometry fingerprint recorded in the store header.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Intact records addressable in this store.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// Whether the store holds no intact records.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Total file bytes (mapped or buffered).
    pub fn file_bytes(&self) -> u64 {
        self.map.bytes().len() as u64
    }

    /// The store header's byte length (the record region starts here).
    pub fn header_bytes(&self) -> u64 {
        self.header_len as u64
    }

    /// File offset where the intact record region ends — the index
    /// footer, or the first damaged byte.
    pub fn records_end(&self) -> u64 {
        match self.frames.last() {
            Some(frame) => (frame.payload_start + frame.payload_len as usize) as u64,
            None => self.header_len as u64,
        }
    }

    /// Where record `index`'s frame sits in the file, without touching
    /// (or CRC-verifying) its bytes. Inventory metadata for
    /// `smarts ckpt-info --json`.
    ///
    /// # Panics
    ///
    /// Panics when `index >= self.len()`.
    pub fn record_span(&self, index: usize) -> RecordSpan {
        let frame = self.frames[index];
        RecordSpan {
            offset: (frame.payload_start - 8) as u64,
            payload_bytes: frame.payload_len as u64,
            crc: frame.crc,
        }
    }

    /// Whether the file is actually memory-mapped (false on the
    /// owned-buffer fallback).
    pub fn is_mapped(&self) -> bool {
        self.map.is_mapped()
    }

    /// The damage that limits this store to a prefix, if any — `None`
    /// exactly when record addressing came from an intact index footer.
    /// Records `0..len()` are structurally intact regardless (their
    /// payload CRCs are still verified at first touch).
    pub fn damage(&self) -> Option<CkptError> {
        self.damage.as_ref().map(CkptError::replicate)
    }

    /// The still-encoded record `index`, borrowed from the mapping.
    /// The record's CRC is verified on the first touch store-wide and
    /// memoized; later touches (any cursor, any thread) skip the hash.
    ///
    /// # Errors
    ///
    /// [`CkptError::Corrupted`] on a CRC mismatch.
    ///
    /// # Panics
    ///
    /// Panics when `index >= self.len()` — addressing past the intact
    /// prefix is a caller bug, not store damage.
    pub fn record(&self, index: usize) -> Result<FlatCheckpointRef<'_>, CkptError> {
        let frame = self.frames[index];
        let payload = &self.map.bytes()
            [frame.payload_start..frame.payload_start + frame.payload_len as usize];
        if !self.checked[index].load(Ordering::Relaxed) {
            if smarts_isa::crc32(payload) != frame.crc {
                return Err(CkptError::Corrupted {
                    record: index as u64,
                    detail: "CRC mismatch",
                });
            }
            self.checked[index].store(true, Ordering::Relaxed);
        }
        Ok(FlatCheckpointRef {
            payload,
            record: index as u64,
        })
    }

    /// A fresh decode cursor positioned before record 0. Cursors are
    /// cheap (they hold one rolling flat at most); give each worker
    /// its own.
    pub fn cursor(&self) -> StoreCursor<'_> {
        StoreCursor {
            store: self,
            next: 0,
            flat: None,
        }
    }

    /// Approximate resident bytes of the *decoded* store — what holding
    /// every checkpoint materialized would cost. Derived without decoding:
    /// the delta chain's flats all share the geometry-fixed section
    /// length, so this walks the chain once. Costs O(store) decode
    /// time; meant for inventory tools, not hot paths.
    ///
    /// # Errors
    ///
    /// Propagates the first record that fails CRC or decode.
    pub fn approx_decoded_bytes(&self) -> Result<u64, CkptError> {
        let mut cursor = self.cursor();
        let mut total = 0u64;
        for index in 0..self.len() {
            total += cursor.flat_at(index)?.approx_bytes();
        }
        Ok(total)
    }
}

/// A rolling decode position over a [`MappedStore`]: holds at most one
/// materialized [`FlatCheckpoint`] and advances it in place through
/// the delta chain. Sequential access is O(changed words) per step;
/// rewinding restarts from record 0 (records are chain-deltas — there
/// is no cheaper way back).
#[derive(Debug)]
pub struct StoreCursor<'a> {
    store: &'a MappedStore,
    /// Index the rolling flat will decode next; `flat` (when present)
    /// is record `next - 1`.
    next: usize,
    flat: Option<FlatCheckpoint>,
}

impl StoreCursor<'_> {
    /// The record index this cursor has decoded up to (exclusive).
    pub fn position(&self) -> usize {
        self.next
    }

    /// The decoded flat of record `index`, rolling the cursor forward
    /// (or restarting) as needed.
    ///
    /// # Errors
    ///
    /// [`CkptError::Corrupted`] when a record on the way fails its
    /// first-touch CRC or does not decode.
    ///
    /// # Panics
    ///
    /// Panics when `index >= store.len()`.
    pub fn flat_at(&mut self, index: usize) -> Result<&FlatCheckpoint, CkptError> {
        assert!(
            index < self.store.len(),
            "record {index} out of range for a store of {} records",
            self.store.len()
        );
        let mut flat = match self.flat.take() {
            Some(flat) if index + 1 >= self.next => flat,
            // Past `index` already, not started, or consumed by a failed
            // advance: restart from record 0.
            _ => {
                self.next = 0;
                let flat = self.store.record(0)?.decode(None)?;
                self.next = 1;
                flat
            }
        };
        while self.next <= index {
            flat = self.store.record(self.next)?.advance(flat)?;
            self.next += 1;
        }
        Ok(self.flat.insert(flat))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{CkptWriter, StoreMeta};
    use smarts_core::{SamplingParams, Warming};
    use smarts_isa::IsaId;
    use smarts_uarch::MachineConfig;

    fn meta() -> StoreMeta {
        StoreMeta {
            params: SamplingParams {
                unit_size: 500,
                detailed_warming: 1000,
                warming: Warming::Functional,
                interval: 11,
                offset: 0,
            },
            benchmark: "loopy-1".to_string(),
            scale: 0.1,
            isa: IsaId::Builtin,
        }
    }

    fn temp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("smarts-lazy-{tag}-{}", std::process::id()))
    }

    #[test]
    fn empty_store_maps_cleanly() {
        let cfg = MachineConfig::eight_way();
        let path = temp_path("empty");
        CkptWriter::create(&path, &cfg, &meta())
            .unwrap()
            .finish()
            .unwrap();
        let store = MappedStore::open(&path, &cfg).unwrap();
        assert_eq!(store.len(), 0);
        assert!(store.is_empty());
        assert!(store.damage().is_none());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn cursor_panics_past_the_end() {
        let cfg = MachineConfig::eight_way();
        let path = temp_path("oob");
        CkptWriter::create(&path, &cfg, &meta())
            .unwrap()
            .finish()
            .unwrap();
        let store = MappedStore::open(&path, &cfg).unwrap();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = store.cursor().flat_at(0);
        }));
        assert!(result.is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn wrong_geometry_is_rejected_at_open() {
        let cfg = MachineConfig::eight_way();
        let path = temp_path("geom");
        CkptWriter::create(&path, &cfg, &meta())
            .unwrap()
            .finish()
            .unwrap();
        let err = MappedStore::open(&path, &MachineConfig::sixteen_way()).unwrap_err();
        assert!(matches!(err, CkptError::FingerprintMismatch { .. }));
        // But the inventory path opens it fine.
        assert!(MappedStore::open_unchecked(&path).is_ok());
        std::fs::remove_file(&path).unwrap();
    }
}
