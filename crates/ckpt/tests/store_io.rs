//! End-to-end store tests against real warming checkpoints: bit-exact
//! round-trips, randomized corruption/truncation recovery (sequential
//! and mapped readers in lockstep), CRC-valid records that describe an
//! impossible warm state, the refusal of other format versions, and
//! gating (version, fingerprint).

use std::fs;
use std::path::PathBuf;

use smarts_ckpt::{CkptError, CkptReader, CkptWriter, IsaId, MappedStore, StoreMeta};
use smarts_core::{SamplingParams, SmartsSim, UnitCheckpoint, Warming};
use smarts_isa::{BuiltinIsa, Isa, RiscIsa};
use smarts_uarch::MachineConfig;
use smarts_workloads::{find, Benchmark, Frontend, SplitMix64};

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "smarts-ckpt-test-{tag}-{}.ckpt",
        std::process::id()
    ))
}

fn small_bench() -> Benchmark {
    find("loopy-1").expect("suite benchmark").scaled(0.02)
}

fn small_params(bench: &Benchmark) -> SamplingParams {
    SamplingParams::for_sample_size(bench.approx_len(), 1000, 2000, Warming::Functional, 10, 0)
        .expect("valid params")
}

fn collect_checkpoints(
    sim: &SmartsSim,
    bench: &Benchmark,
    params: &SamplingParams,
) -> Vec<UnitCheckpoint> {
    let mut out = Vec::new();
    sim.stream_checkpoints(bench.load(), params, |checkpoint| {
        out.push(checkpoint);
        true
    })
    .expect("warming pass");
    out
}

fn write_store(path: &PathBuf, cfg: &MachineConfig, checkpoints: &[UnitCheckpoint]) -> StoreMeta {
    let bench = small_bench();
    let meta = StoreMeta {
        params: small_params(&bench),
        benchmark: bench.name().to_string(),
        scale: 0.02,
        isa: IsaId::Builtin,
    };
    let mut writer = CkptWriter::create(path, cfg, &meta).expect("create store");
    for checkpoint in checkpoints {
        writer.append(checkpoint).expect("append");
    }
    writer.finish().expect("finish");
    meta
}

/// Every observable word of a checkpoint, via the public state-stream
/// API — the equality notion the store must preserve exactly:
/// `(unit_start, cpu words, warm words, sorted pages)`.
type StateWords = (u64, Vec<u64>, Vec<u64>, Vec<(u64, Vec<u8>)>);

fn state_words(c: &UnitCheckpoint) -> StateWords {
    let mut cpu = Vec::new();
    c.snapshot().cpu().save_state(&mut cpu);
    let mut warm = Vec::new();
    c.warm().save_state(&mut warm);
    let pages = c
        .snapshot()
        .memory()
        .pages_sorted()
        .into_iter()
        .map(|(index, page)| (index, page.to_vec()))
        .collect();
    (c.unit_start(), cpu, warm, pages)
}

#[test]
fn store_round_trips_every_checkpoint_bit_exactly() {
    let cfg = MachineConfig::eight_way();
    let sim = SmartsSim::new(cfg.clone());
    let bench = small_bench();
    let params = small_params(&bench);
    let originals = collect_checkpoints(&sim, &bench, &params);
    assert!(originals.len() >= 8, "want a non-trivial unit count");

    let path = temp_path("roundtrip");
    let meta = write_store(&path, &cfg, &originals);

    let mut reader = CkptReader::open(&path, &cfg).expect("open store");
    assert_eq!(reader.meta(), &meta);
    let mut decoded = Vec::new();
    while let Some(next) = reader.next_checkpoint_isa::<BuiltinIsa>() {
        decoded.push(next.expect("intact record"));
    }
    assert_eq!(decoded.len(), originals.len());
    assert_eq!(reader.records_read(), originals.len() as u64);
    for (original, restored) in originals.iter().zip(&decoded) {
        assert_eq!(state_words(original), state_words(restored));
    }
    fs::remove_file(&path).ok();
}

#[test]
fn delta_encoding_compresses_below_resident_footprint() {
    let cfg = MachineConfig::eight_way();
    let sim = SmartsSim::new(cfg.clone());
    let bench = small_bench();
    let params = small_params(&bench);
    let originals = collect_checkpoints(&sim, &bench, &params);
    let resident: u64 = originals
        .iter()
        .map(UnitCheckpoint::approx_resident_bytes)
        .sum();

    let path = temp_path("compression");
    write_store(&path, &cfg, &originals);
    let file_bytes = fs::metadata(&path).expect("store exists").len();
    assert!(
        file_bytes * 2 < resident,
        "delta encoding should at least halve the footprint: \
         {file_bytes} on disk vs {resident} resident"
    );
    fs::remove_file(&path).ok();
}

/// Decodes every addressable record of a mapped store through one
/// cursor, returning `(intact count, first failure)` — the mapped-path
/// mirror of the sequential reader loop, where the failure may also be
/// the structural damage the open itself retained.
fn mapped_intact(store: &MappedStore) -> (usize, Option<CkptError>) {
    let mut cursor = store.cursor();
    for index in 0..store.len() {
        if let Err(e) = cursor.flat_at(index) {
            return (index, Some(e));
        }
    }
    (store.len(), store.damage())
}

/// The store at `path` opened both ways: memory-mapped, then through
/// the owned-buffer fallback that must agree with it byte for byte.
fn both_opens(path: &PathBuf, cfg: &MachineConfig) -> [(&'static str, MappedStore); 2] {
    [
        (
            "mapped",
            MappedStore::open(path, cfg).expect("header is intact"),
        ),
        (
            "buffered",
            MappedStore::open_buffered(path, cfg).expect("header is intact"),
        ),
    ]
}

#[test]
fn any_flipped_record_byte_surfaces_a_typed_error() {
    let cfg = MachineConfig::eight_way();
    let sim = SmartsSim::new(cfg.clone());
    let bench = small_bench();
    let params = small_params(&bench);
    let originals = collect_checkpoints(&sim, &bench, &params);
    let path = temp_path("fliprand");
    write_store(&path, &cfg, &originals);
    let pristine = fs::read(&path).expect("read store");

    let layout = MappedStore::open(&path, &cfg).expect("pristine store maps");
    let header_len = layout.header_bytes() as usize;
    let records_end = layout.records_end() as usize;
    assert!(layout.damage().is_none());
    drop(layout);
    assert!(pristine.len() > records_end, "stores carry a footer");

    let mut rng = SplitMix64::new(0xC0FF_EE00_5EED);
    for _ in 0..40 {
        let offset = header_len + rng.below((pristine.len() - header_len) as u64) as usize;
        let bit = rng.below(8) as u32;
        let mut bytes = pristine.clone();
        bytes[offset] ^= 1 << bit;
        fs::write(&path, &bytes).expect("write corrupted copy");

        let mut reader = CkptReader::open(&path, &cfg).expect("header is intact");
        let mut intact = 0usize;
        let mut failure = None;
        while let Some(next) = reader.next_checkpoint_isa::<BuiltinIsa>() {
            match next {
                Ok(_) => intact += 1,
                Err(e) => {
                    failure = Some(e);
                    break;
                }
            }
        }
        // A single flipped bit can never decode cleanly: the per-record
        // CRC covers the payload, the length/CRC prefix fields fail as
        // implausible lengths, tears, or CRC mismatches, and the index
        // footer is covered by its own CRC plus frame cross-validation.
        let failure = failure
            .unwrap_or_else(|| panic!("flip at byte {offset} bit {bit} was swallowed silently"));
        assert!(
            matches!(
                failure,
                CkptError::Corrupted { .. } | CkptError::Truncated { .. }
            ),
            "unexpected error class for flip at byte {offset}: {failure:?}"
        );
        if offset < records_end {
            assert!(
                intact < originals.len(),
                "record damage must cost at least one record"
            );
        } else {
            // A footer flip damages only the index: every record stays
            // replayable, the damage is still surfaced.
            assert_eq!(intact, originals.len(), "footer flip at byte {offset}");
        }
        // Errors are terminal: the stream stays ended.
        assert!(reader.next_checkpoint_isa::<BuiltinIsa>().is_none());

        // The mapped reader and its owned-buffer fallback agree
        // record-for-record: same intact count, and the damage never
        // goes unreported.
        for (how, store) in both_opens(&path, &cfg) {
            let (lazy_intact, lazy_failure) = mapped_intact(&store);
            assert_eq!(
                lazy_intact, intact,
                "{how}: flip at byte {offset} bit {bit}"
            );
            assert!(
                lazy_failure.is_some(),
                "{how} store swallowed the flip at byte {offset} bit {bit}"
            );
        }
    }

    // A footer whose record count makes `16 + 8 * count` wrap to the
    // length of an empty footer, with a valid CRC over that count: no
    // flip gets here, a crafted file does. It is index damage like any
    // other, not an allocation of 2^61 frames.
    let count = (1u64 << 61).to_le_bytes();
    let mut bytes = pristine[..header_len].to_vec();
    bytes.extend_from_slice(&u32::MAX.to_le_bytes());
    bytes.extend_from_slice(&count);
    bytes.extend_from_slice(&smarts_isa::crc32(&count).to_le_bytes());
    bytes.extend_from_slice(&16u64.to_le_bytes());
    bytes.extend_from_slice(&smarts_ckpt::INDEX_MAGIC);
    fs::write(&path, &bytes).expect("write crafted copy");
    let footer_damaged = |e: &CkptError| {
        matches!(
            e,
            CkptError::Corrupted {
                record: 0,
                detail: "index footer damaged"
            }
        )
    };
    for (how, store) in both_opens(&path, &cfg) {
        assert_eq!(store.len(), 0, "{how}");
        assert!(store.damage().as_ref().is_some_and(footer_damaged), "{how}");
    }
    let mut reader = CkptReader::open(&path, &cfg).expect("header is intact");
    let first = reader.next_checkpoint_isa::<BuiltinIsa>();
    assert!(matches!(first, Some(Err(ref e)) if footer_damaged(e)));
    fs::remove_file(&path).ok();
}

#[test]
fn truncation_recovers_the_intact_prefix() {
    let cfg = MachineConfig::eight_way();
    let sim = SmartsSim::new(cfg.clone());
    let bench = small_bench();
    let params = small_params(&bench);
    let originals = collect_checkpoints(&sim, &bench, &params);
    let path = temp_path("truncrand");
    write_store(&path, &cfg, &originals);
    let pristine = fs::read(&path).expect("read store");
    let reference: Vec<_> = originals.iter().map(state_words).collect();

    let layout = MappedStore::open(&path, &cfg).expect("pristine store maps");
    let header_len = layout.header_bytes() as usize;
    let records_end = layout.records_end() as usize;
    drop(layout);

    // Random cuts, plus pinned ones for the boundary cases the random
    // draw may miss: mid-record, exactly at the record/footer seam
    // (footer fully missing), and mid-footer.
    let mut rng = SplitMix64::new(0x7A11_FEED);
    let mut cuts: Vec<usize> = (0..25)
        .map(|_| header_len + rng.below((pristine.len() - header_len) as u64) as usize)
        .collect();
    cuts.push(header_len + (records_end - header_len) / 2); // mid-record
    cuts.push(records_end); // footer missing entirely
    cuts.push(records_end + 5); // mid-footer, inside the count field
    cuts.push(pristine.len() - 3); // mid-footer, inside the magic

    for cut in cuts {
        fs::write(&path, &pristine[..cut]).expect("write truncated copy");

        let mut reader = CkptReader::open(&path, &cfg).expect("header is intact");
        let mut intact = 0usize;
        let mut tear = None;
        while let Some(next) = reader.next_checkpoint_isa::<BuiltinIsa>() {
            match next {
                Ok(checkpoint) => {
                    // The prefix is not merely decodable — it is the
                    // original data, bit for bit.
                    assert_eq!(state_words(&checkpoint), reference[intact]);
                    intact += 1;
                }
                Err(e) => {
                    tear = Some(e);
                    break;
                }
            }
        }
        if cut < records_end {
            assert!(intact < originals.len(), "cut at byte {cut}");
        } else {
            // Cutting the footer (or just the footer) loses no record.
            assert_eq!(intact, originals.len(), "cut at byte {cut}");
        }
        // Any cut damages a store — at minimum its index footer —
        // and the damage always carries the intact count.
        match tear {
            Some(CkptError::Truncated { record, recovered }) => {
                assert_eq!(record, intact as u64);
                assert_eq!(recovered, intact as u64);
            }
            Some(CkptError::Corrupted { record, .. }) => {
                assert_eq!(record, intact as u64);
            }
            Some(other) => panic!("truncation surfaced as {other:?}"),
            None => panic!("cut at byte {cut} was swallowed silently"),
        }

        // The mapped reader and its owned-buffer fallback recover the
        // same bit-exact prefix and surface the same damage class.
        for (how, store) in both_opens(&path, &cfg) {
            let (lazy_intact, lazy_failure) = mapped_intact(&store);
            assert_eq!(lazy_intact, intact, "{how}: cut at byte {cut}");
            assert!(lazy_failure.is_some(), "{how}: cut at byte {cut}");
            let mut cursor = store.cursor();
            for (index, expected) in reference.iter().take(lazy_intact).enumerate() {
                let rebuilt = cursor
                    .flat_at(index)
                    .expect("intact record")
                    .rebuild_isa::<BuiltinIsa>(&cfg)
                    .expect("rebuilds");
                assert_eq!(&state_words(&rebuilt), expected, "{how}");
            }
        }
    }
    fs::remove_file(&path).ok();
}

/// The store codec's LEB128 varint, for the record surgery below.
fn write_varint(out: &mut Vec<u8>, mut value: u64) {
    while value >= 0x80 {
        out.push(value as u8 | 0x80);
        value >>= 7;
    }
    out.push(value as u8);
}

fn read_varint(bytes: &[u8], pos: &mut usize) -> u64 {
    let mut value = 0u64;
    for shift in (0..).step_by(7) {
        let byte = bytes[*pos];
        *pos += 1;
        value |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            break;
        }
    }
    value
}

/// Re-encodes a record's fixed section as `words` delta-encoded against
/// `prev` (zigzag varints, zero runs as `0, length`), keeping the page
/// set of the original `payload` byte for byte.
fn with_fixed_words(payload: &[u8], words: &[u64], prev: &[u64]) -> Vec<u8> {
    // Skip the original fixed section: one token per word, or a run.
    let mut pos = 0;
    let count = read_varint(payload, &mut pos);
    assert_eq!(count, words.len() as u64);
    let mut seen = 0;
    while seen < count {
        seen += match read_varint(payload, &mut pos) {
            0 => read_varint(payload, &mut pos),
            _ => 1,
        };
    }
    let mut out = Vec::new();
    write_varint(&mut out, count);
    let mut zeros = 0u64;
    for (&word, &before) in words.iter().zip(prev) {
        let delta = word.wrapping_sub(before) as i64;
        if delta == 0 {
            zeros += 1;
            continue;
        }
        if zeros > 0 {
            write_varint(&mut out, 0);
            write_varint(&mut out, std::mem::take(&mut zeros));
        }
        write_varint(&mut out, ((delta << 1) ^ (delta >> 63)) as u64);
    }
    if zeros > 0 {
        write_varint(&mut out, 0);
        write_varint(&mut out, zeros);
    }
    out.extend_from_slice(&payload[pos..]);
    out
}

#[test]
fn checksummed_records_of_impossible_sets_end_the_intact_prefix() {
    let cfg = MachineConfig::eight_way();
    let sim = SmartsSim::new(cfg.clone());
    // A data footprint that puts two lines in one set (loopy-1 never does).
    let bench = find("hashp-2").expect("suite benchmark").scaled(0.02);
    let params = small_params(&bench);
    let originals = collect_checkpoints(&sim, &bench, &params);
    let path = temp_path("impossible");
    write_store(&path, &cfg, &originals);
    let pristine = fs::read(&path).expect("read store");
    let last = originals.len() - 1;
    let span = MappedStore::open(&path, &cfg)
        .expect("pristine store maps")
        .record_span(last);
    let record_start = span.offset as usize;
    let record_end = record_start + 8 + span.payload_bytes as usize;
    let payload = &pristine[record_start + 8..record_end];

    let fixed_words = |c: &UnitCheckpoint| {
        let (unit_start, cpu, warm, _) = state_words(c);
        let warm_at = 1 + cpu.len();
        let mut words = vec![unit_start];
        words.extend(cpu);
        words.extend(warm);
        (words, warm_at)
    };
    let (good, warm_at) = fixed_words(&originals[last]);
    let (prev, _) = fixed_words(&originals[last - 1]);
    assert_eq!(
        with_fixed_words(payload, &good, &prev),
        payload,
        "the surgery re-encodes an untouched record to the same bytes"
    );

    // A set of the last checkpoint with two resident lines, in whichever
    // cache has one; a line is (tag, rank, flags).
    let mut cache_at = warm_at;
    let (set_at, tick_at) = [cfg.l1i, cfg.l1d, cfg.l2]
        .iter()
        .find_map(|cache| {
            let (sets, assoc) = (cache.sets() as usize, cache.assoc as usize);
            let tick_at = cache_at + 3 * sets * assoc + sets;
            let set_at = (0..sets)
                .map(|set| cache_at + 3 * set * assoc)
                .find(|&at| good[at + 2] != 0 && good[at + 5] != 0);
            cache_at = tick_at + 3;
            set_at.map(|at| (at, tick_at))
        })
        .expect("some set holds two lines");

    type Defect = (&'static str, fn(&mut [u64], usize, usize));
    let defects: [Defect; 6] = [
        ("a rank above the resident count", |w, set, _| {
            w[set + 1] += 1
        }),
        ("a resident way after an empty one", |w, set, _| {
            w[set..set + 3].fill(0)
        }),
        ("one tag twice in a set", |w, set, _| w[set + 3] = w[set]),
        ("a tag wider than the key holds", |w, set, _| {
            w[set] = 1 << 62
        }),
        ("a nonzero hint word", |w, _, tick| w[tick - 1] = 1),
        ("a tick that is not the associativity", |w, _, tick| {
            w[tick] += 1
        }),
    ];
    let want = state_words(&originals[last - 1]);
    for (what, damage) in defects {
        let mut words = good.clone();
        damage(&mut words, set_at, tick_at);
        let forged = with_fixed_words(payload, &words, &prev);
        // The last record's start does not move, so the index footer
        // stays valid as written; only the record frame is redone.
        let mut bytes = pristine[..record_start].to_vec();
        bytes.extend_from_slice(&(forged.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&smarts_isa::crc32(&forged).to_le_bytes());
        bytes.extend_from_slice(&forged);
        bytes.extend_from_slice(&pristine[record_end..]);
        fs::write(&path, &bytes).expect("write forged copy");

        let mut reader = CkptReader::open(&path, &cfg).expect("header is intact");
        let mut intact = Vec::new();
        let failure = loop {
            match reader
                .next_checkpoint_isa::<BuiltinIsa>()
                .expect("the forged record is reached")
            {
                Ok(checkpoint) => intact.push(checkpoint),
                Err(e) => break e,
            }
        };
        assert_eq!(intact.len(), last, "{what}: the prefix before it replays");
        assert_eq!(state_words(&intact[last - 1]), want, "{what}");
        assert!(
            matches!(failure, CkptError::Corrupted { record, .. } if record == last as u64),
            "{what}: surfaced as {failure:?}"
        );
        assert!(
            reader.next_checkpoint_isa::<BuiltinIsa>().is_none(),
            "{what}: errors are terminal"
        );

        // The mapped reader decodes the checksummed record, and refuses
        // to build a checkpoint from it.
        let store = MappedStore::open(&path, &cfg).expect("header is intact");
        assert!(
            store.damage().is_none(),
            "{what}: frames and index are sound"
        );
        let mut cursor = store.cursor();
        assert!(cursor
            .flat_at(last - 1)
            .unwrap()
            .rebuild_isa::<BuiltinIsa>(&cfg)
            .is_ok());
        assert!(
            cursor
                .flat_at(last)
                .unwrap()
                .rebuild_isa::<BuiltinIsa>(&cfg)
                .is_err(),
            "{what}: rebuilt into a warm state"
        );
    }
    fs::remove_file(&path).ok();
}

/// Rewrites a pristine store in the layout an older build wrote for
/// `version`: no ISA tag byte after the version field, no index footer
/// for version 1, and the header CRC resealed over the result — so only
/// the version can be what a reader refuses.
fn old_layout(pristine: &[u8], header_len: usize, records_end: usize, version: u32) -> Vec<u8> {
    let end = if version == 1 {
        records_end
    } else {
        pristine.len()
    };
    let mut bytes = pristine[..8].to_vec();
    bytes.extend_from_slice(&version.to_le_bytes());
    bytes.extend_from_slice(&pristine[13..header_len - 4]);
    bytes.extend_from_slice(&smarts_isa::crc32(&bytes).to_le_bytes());
    bytes.extend_from_slice(&pristine[header_len..end]);
    bytes
}

#[test]
fn older_format_versions_are_refused() {
    let cfg = MachineConfig::eight_way();
    let sim = SmartsSim::new(cfg.clone());
    let bench = small_bench();
    let params = small_params(&bench);
    let originals = collect_checkpoints(&sim, &bench, &params);
    let path = temp_path("oldversions");
    write_store(&path, &cfg, &originals[..2]);
    let pristine = fs::read(&path).expect("read store");
    let layout = MappedStore::open(&path, &cfg).expect("pristine store maps");
    let (header_len, records_end) = (
        layout.header_bytes() as usize,
        layout.records_end() as usize,
    );
    drop(layout);

    for version in [1u32, 2] {
        fs::write(
            &path,
            old_layout(&pristine, header_len, records_end, version),
        )
        .expect("write old store");
        let refused =
            |e: &CkptError| matches!(e, CkptError::UnsupportedVersion(v) if *v == version);
        let err = CkptReader::open(&path, &cfg)
            .err()
            .expect("an older version is refused");
        assert!(refused(&err), "reader: {err:?}");
        let err = MappedStore::open(&path, &cfg).expect_err("an older version is refused");
        assert!(refused(&err), "mapped: {err:?}");
        let err = smarts_ckpt::read_store_meta(&path).expect_err("an older version is refused");
        assert!(refused(&err), "header peek: {err:?}");
    }
    fs::remove_file(&path).ok();
}

#[test]
fn a_directory_is_an_io_error_on_every_open() {
    // `File::open` succeeds on a directory; the map and the owned-buffer
    // read both fail, and that surfaces as a typed error.
    let cfg = MachineConfig::eight_way();
    let dir = temp_path("dir");
    fs::create_dir_all(&dir).expect("create directory");
    let opens = [
        MappedStore::open(&dir, &cfg),
        MappedStore::open_unchecked(&dir),
        MappedStore::open_buffered(&dir, &cfg),
    ];
    for result in opens {
        assert!(matches!(result, Err(CkptError::Io(_))), "{result:?}");
    }
    fs::remove_dir(&dir).ok();
}

#[test]
fn mapped_and_buffered_stores_decode_identically_across_threads() {
    let cfg = MachineConfig::eight_way();
    let sim = SmartsSim::new(cfg.clone());
    let bench = small_bench();
    let params = small_params(&bench);
    let originals = collect_checkpoints(&sim, &bench, &params);
    let path = temp_path("sharedmap");
    write_store(&path, &cfg, &originals);
    let reference: Vec<_> = originals.iter().map(state_words).collect();

    for buffered in [false, true] {
        let store = if buffered {
            MappedStore::open_buffered(&path, &cfg).expect("buffered open")
        } else {
            MappedStore::open(&path, &cfg).expect("mapped open")
        };
        // Concurrent readers share one mapping and one CRC memo; each
        // cursor decodes an interleaved slice of the records.
        std::thread::scope(|scope| {
            for worker in 0..4usize {
                let store = &store;
                let reference = &reference;
                let cfg = &cfg;
                scope.spawn(move || {
                    let mut cursor = store.cursor();
                    for index in (worker..store.len()).step_by(4) {
                        let rebuilt = cursor
                            .flat_at(index)
                            .expect("record decodes")
                            .rebuild_isa::<BuiltinIsa>(cfg)
                            .expect("record rebuilds");
                        assert_eq!(state_words(&rebuilt), reference[index]);
                    }
                });
            }
        });
    }
    fs::remove_file(&path).ok();
}

#[test]
fn incompatible_stores_are_rejected_before_replay() {
    let cfg = MachineConfig::eight_way();
    let sim = SmartsSim::new(cfg.clone());
    let bench = small_bench();
    let params = small_params(&bench);
    let originals = collect_checkpoints(&sim, &bench, &params);
    let path = temp_path("gating");
    write_store(&path, &cfg, &originals[..2]);
    let pristine = fs::read(&path).expect("read store");

    // Bad magic: first byte damaged.
    let mut bytes = pristine.clone();
    bytes[0] ^= 0xFF;
    fs::write(&path, &bytes).expect("write");
    assert!(matches!(
        CkptReader::open(&path, &cfg),
        Err(CkptError::BadMagic)
    ));

    // Future format version (byte 8 is the version LSB; the version is
    // checked before the header CRC so old readers fail informatively).
    let mut bytes = pristine.clone();
    bytes[8] = 0x2A;
    fs::write(&path, &bytes).expect("write");
    assert!(matches!(
        CkptReader::open(&path, &cfg),
        Err(CkptError::UnsupportedVersion(0x2A))
    ));

    // Header torn mid-way.
    fs::write(&path, &pristine[..20]).expect("write");
    assert!(matches!(
        CkptReader::open(&path, &cfg),
        Err(CkptError::HeaderCorrupted)
    ));

    // Warm-geometry change: fingerprint rejects the store.
    fs::write(&path, &pristine).expect("write");
    let mut bigger_l2 = cfg.clone();
    bigger_l2.l2.size_bytes *= 2;
    assert!(matches!(
        CkptReader::open(&path, &bigger_l2),
        Err(CkptError::FingerprintMismatch { .. })
    ));

    // Pipeline-core change: same warm geometry, so the store opens and
    // replays — the whole point of warm-once/replay-many.
    let mut narrow = cfg.clone();
    narrow.issue_width = 2;
    narrow.fetch_width = 2;
    narrow.decode_width = 2;
    narrow.commit_width = 2;
    narrow.ruu_size = 32;
    let mut reader = CkptReader::open(&path, &narrow).expect("compatible core variant");
    assert!(reader
        .next_checkpoint_isa::<BuiltinIsa>()
        .expect("record")
        .is_ok());

    fs::remove_file(&path).ok();
}

#[test]
fn frontend_mismatch_is_typed_on_both_ends() {
    let cfg = MachineConfig::eight_way();
    let sim = SmartsSim::new(cfg.clone());
    let bench = small_bench();
    let params = small_params(&bench);
    let originals = collect_checkpoints(&sim, &bench, &params);
    let path = temp_path("isamismatch");

    // Writer side: a store declared for the RISC frontend refuses
    // built-in checkpoints before writing a byte of the record.
    let meta = StoreMeta {
        params,
        benchmark: bench.name().to_string(),
        scale: 0.02,
        isa: IsaId::Risc,
    };
    let mut writer = CkptWriter::create(&path, &cfg, &meta).expect("create store");
    let err = writer.append(&originals[0]).expect_err("wrong frontend");
    assert!(matches!(
        err,
        CkptError::IsaMismatch {
            expected: IsaId::Builtin,
            found: IsaId::Risc,
        }
    ));
    writer.finish().expect("finish empty store");

    // Reader side: a built-in store read under the RISC frontend
    // surfaces the mismatch before any record is decoded.
    write_store(&path, &cfg, &originals);
    let mut reader = CkptReader::open(&path, &cfg).expect("open store");
    match reader.next_checkpoint_isa::<RiscIsa>() {
        Some(Err(CkptError::IsaMismatch { expected, found })) => {
            assert_eq!(expected, IsaId::Risc);
            assert_eq!(found, IsaId::Builtin);
        }
        other => panic!("expected a typed ISA mismatch, got {other:?}"),
    }
    // The mismatch is terminal, like every other reader error.
    assert!(reader.next_checkpoint_isa::<RiscIsa>().is_none());
    fs::remove_file(&path).ok();
}

#[test]
fn risc_stores_round_trip_under_the_v3_format() {
    let cfg = MachineConfig::eight_way();
    let sim = SmartsSim::new(cfg.clone());
    let bench = small_bench();
    let params = small_params(&bench);
    let loaded = RiscIsa::resolve(bench.name(), 0.02).expect("risc-encodable benchmark");
    let mut originals = Vec::new();
    sim.stream_checkpoints(loaded, &params, |checkpoint| {
        originals.push(checkpoint);
        true
    })
    .expect("risc warming pass");
    assert!(originals.len() >= 8, "want a non-trivial unit count");

    let path = temp_path("riscroundtrip");
    let meta = StoreMeta {
        params,
        benchmark: bench.name().to_string(),
        scale: 0.02,
        isa: IsaId::Risc,
    };
    let mut writer = CkptWriter::create(&path, &cfg, &meta).expect("create store");
    for checkpoint in &originals {
        writer.append(checkpoint).expect("append");
    }
    writer.finish().expect("finish");

    let (_, peeked) = smarts_ckpt::read_store_meta(&path).expect("peek header");
    assert_eq!(peeked.isa, IsaId::Risc);

    let mut reader = CkptReader::open(&path, &cfg).expect("open store");
    let mut restored = Vec::new();
    while let Some(next) = reader.next_checkpoint_isa::<RiscIsa>() {
        restored.push(next.expect("intact record"));
    }
    assert_eq!(restored.len(), originals.len());
    for (original, rebuilt) in originals.iter().zip(&restored) {
        assert_eq!(original.unit_start(), rebuilt.unit_start());
        let mut want = Vec::new();
        RiscIsa::save_state(original.snapshot().cpu(), &mut want);
        let mut got = Vec::new();
        RiscIsa::save_state(rebuilt.snapshot().cpu(), &mut got);
        assert_eq!(want, got, "cpu words");
        let mut want = Vec::new();
        original.warm().save_state(&mut want);
        let mut got = Vec::new();
        rebuilt.warm().save_state(&mut got);
        assert_eq!(want, got, "warm words");
        assert_eq!(
            original.snapshot().memory().pages_sorted(),
            rebuilt.snapshot().memory().pages_sorted()
        );
    }
    fs::remove_file(&path).ok();
}
