//! End-to-end store tests against real warming checkpoints: bit-exact
//! round-trips, randomized corruption/truncation recovery (mapped and
//! buffered opens, each held to the intact prefix and damage record the
//! writer's own frame offsets predict), CRC-valid records that describe
//! an impossible warm state, the refusal of other format versions, and
//! gating (version, fingerprint).

use std::fs;
use std::path::PathBuf;

use smarts_ckpt::{CkptError, CkptWriter, IsaId, MappedStore, RecordSpan, StoreMeta};
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

    let reference: Vec<_> = originals.iter().map(state_words).collect();
    for (how, store) in both_opens(&path, &cfg) {
        assert_eq!(store.meta(), &meta, "{how}");
        let (intact, failure) = replay_prefix(&store, &cfg, &reference);
        assert_eq!(intact, originals.len(), "{how}");
        assert!(failure.is_none(), "{how}: {failure:?}");
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

/// Walks a store front to back through one cursor, rebuilding every
/// record as a replay would, and returns `(intact count, first
/// failure)`: a record that fails its CRC, decode or rebuild, or else
/// the structural damage the open itself retained. Every record before
/// the failure must be the original checkpoint, bit for bit.
fn replay_prefix(
    store: &MappedStore,
    cfg: &MachineConfig,
    reference: &[StateWords],
) -> (usize, Option<CkptError>) {
    let mut cursor = store.cursor();
    for (index, want) in reference.iter().enumerate().take(store.len()) {
        let rebuilt = match cursor.flat_at(index) {
            Ok(flat) => flat.rebuild_isa::<BuiltinIsa>(cfg),
            Err(e) => return (index, Some(e)),
        };
        match rebuilt {
            Ok(checkpoint) => assert_eq!(&state_words(&checkpoint), want),
            Err(detail) => {
                let record = index as u64;
                return (index, Some(CkptError::Corrupted { record, detail }));
            }
        }
    }
    assert!(
        store.len() <= reference.len(),
        "more intact records than written"
    );
    (store.len(), store.damage())
}

/// The pristine store's frames as the writer laid them out, and the
/// offset where the index footer starts.
fn frame_layout(path: &PathBuf, cfg: &MachineConfig) -> (Vec<RecordSpan>, usize) {
    let store = MappedStore::open(path, cfg).expect("pristine store maps");
    assert!(
        store.damage().is_none(),
        "a fresh store has an intact footer"
    );
    let spans = (0..store.len()).map(|i| store.record_span(i)).collect();
    (spans, store.records_end() as usize)
}

/// Where `offset` falls in the layout: the record whose frame holds it
/// and the offset within that frame, or `None` inside the footer.
fn frame_at(spans: &[RecordSpan], offset: usize) -> Option<(usize, usize)> {
    spans.iter().enumerate().find_map(|(k, span)| {
        let rel = offset.checked_sub(span.offset as usize)?;
        (rel < 8 + span.payload_bytes as usize).then_some((k, rel))
    })
}

/// Asserts that a damaged store replayed exactly `intact` records and
/// then failed with `want` (compared by its `Debug` form, which carries
/// the class, the record index and the detail).
fn assert_damage(got: (usize, Option<CkptError>), intact: usize, want: &CkptError, what: &str) {
    let (got_intact, failure) = got;
    let failure = failure.unwrap_or_else(|| panic!("{what}: the damage was swallowed silently"));
    assert_eq!(got_intact, intact, "{what}: intact records");
    assert_eq!(format!("{failure:?}"), format!("{want:?}"), "{what}");
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
    let reference: Vec<_> = originals.iter().map(state_words).collect();
    let (spans, records_end) = frame_layout(&path, &cfg);
    let header_len = spans[0].offset as usize;
    assert!(pristine.len() > records_end, "stores carry a footer");

    // Random flips, plus pinned ones for the cases the random draw may
    // miss: each field of a record prefix (a small length change, a
    // length past the file, a length past the cap, the stored CRC) and
    // of the footer (marker, count, magic).
    let mut rng = SplitMix64::new(0xC0FF_EE00_5EED);
    let mut flips: Vec<(usize, u32)> = (0..40)
        .map(|_| {
            let offset = header_len + rng.below((pristine.len() - header_len) as u64) as usize;
            (offset, rng.below(8) as u32)
        })
        .collect();
    let prefix = spans[spans.len() / 2].offset as usize;
    flips.extend([
        (prefix, 0),
        (prefix + 2, 7),
        (prefix + 3, 6),
        (prefix + 5, 1),
    ]);
    flips.extend([
        (records_end, 0),
        (records_end + 6, 3),
        (pristine.len() - 1, 2),
    ]);
    for (offset, bit) in flips {
        let mut bytes = pristine.clone();
        bytes[offset] ^= 1 << bit;
        fs::write(&path, &bytes).expect("write corrupted copy");

        // A single flipped bit can never decode cleanly, and where it
        // lands in the writer's layout says exactly what it costs.
        let what = format!("flip at byte {offset} bit {bit}");
        let (intact, want) = match frame_at(&spans, offset) {
            Some((k, rel)) => {
                let record = k as u64;
                // A stored-CRC or payload flip leaves the footer
                // addressing every frame, and record `k` fails its CRC at
                // first touch. A length flip breaks the footer's frame
                // cross-validation, so the frame scan reads `k`'s prefix:
                // a length past the 1 GiB cap is implausible, one past the
                // end of the file is a tear, and any other frames a
                // payload that fails its CRC.
                let flipped = 8 * rel + bit as usize;
                let overruns = |span: &RecordSpan| {
                    span.offset + 8 + (span.payload_bytes ^ (1 << flipped)) > pristine.len() as u64
                };
                let want = match rel {
                    0..4 if flipped >= 30 => CkptError::Corrupted {
                        record,
                        detail: "implausible record length",
                    },
                    0..4 if overruns(&spans[k]) => CkptError::Truncated {
                        record,
                        recovered: record,
                    },
                    _ => CkptError::Corrupted {
                        record,
                        detail: "CRC mismatch",
                    },
                };
                (k, want)
            }
            None => {
                // A footer flip costs no record: the frame scan reads
                // every frame and stops at the footer marker, which a
                // flip in its own word turns into an implausible length.
                let record = spans.len() as u64;
                let detail = match offset - records_end < 4 {
                    true => "implausible record length",
                    false => "index footer damaged",
                };
                (spans.len(), CkptError::Corrupted { record, detail })
            }
        };
        for (how, store) in both_opens(&path, &cfg) {
            let got = replay_prefix(&store, &cfg, &reference);
            assert_damage(got, intact, &want, &format!("{how}: {what}"));
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
    let footer_damaged = CkptError::Corrupted {
        record: 0,
        detail: "index footer damaged",
    };
    for (how, store) in both_opens(&path, &cfg) {
        assert_eq!(store.len(), 0, "{how}");
        let got = replay_prefix(&store, &cfg, &reference);
        assert_damage(got, 0, &footer_damaged, &format!("{how}: wrapping count"));
    }
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

    let (spans, records_end) = frame_layout(&path, &cfg);
    let header_len = spans[0].offset as usize;

    // Random cuts, plus pinned ones for the boundary cases the random
    // draw may miss: mid-record, exactly at a record seam, exactly at
    // the record/footer seam (footer fully missing), and mid-footer.
    let mut rng = SplitMix64::new(0x7A11_FEED);
    let mut cuts: Vec<usize> = (0..25)
        .map(|_| header_len + rng.below((pristine.len() - header_len) as u64) as usize)
        .collect();
    cuts.push(header_len + (records_end - header_len) / 2); // mid-record
    cuts.push(spans[spans.len() / 2].offset as usize); // record seam
    cuts.push(spans[1].offset as usize + 5); // inside a length/CRC prefix
    cuts.push(records_end); // footer missing entirely
    cuts.push(records_end + 5); // mid-footer, inside the count field
    cuts.push(pristine.len() - 3); // mid-footer, inside the magic

    for cut in cuts {
        fs::write(&path, &pristine[..cut]).expect("write truncated copy");

        // The frames that end at or before the cut survive; the scan
        // stops at the first one that does not. Any cut damages a store,
        // at minimum its index footer, and the damage carries the
        // intact count.
        let intact = spans
            .iter()
            .take_while(|span| (span.offset + 8 + span.payload_bytes) as usize <= cut)
            .count();
        let seam = spans
            .get(intact)
            .map_or(records_end, |span| span.offset as usize);
        let record = intact as u64;
        let want = if cut == seam {
            CkptError::Corrupted {
                record,
                detail: "index footer missing",
            }
        } else if cut - seam >= 8 && intact == spans.len() {
            // A whole footer marker, but no intact footer behind it.
            CkptError::Corrupted {
                record,
                detail: "index footer damaged",
            }
        } else {
            // A torn length/CRC prefix, or a torn payload.
            CkptError::Truncated {
                record,
                recovered: record,
            }
        };
        for (how, store) in both_opens(&path, &cfg) {
            let got = replay_prefix(&store, &cfg, &reference);
            assert_damage(got, intact, &want, &format!("{how}: cut at byte {cut}"));
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
    let reference: Vec<_> = originals.iter().map(state_words).collect();
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

        // Frames and index are sound, so the store opens undamaged;
        // the prefix before the forged record replays bit for bit, and
        // the checksummed record decodes but refuses to rebuild.
        for (how, store) in both_opens(&path, &cfg) {
            assert!(store.damage().is_none(), "{how}: {what}");
            let (intact, failure) = replay_prefix(&store, &cfg, &reference);
            assert_eq!(intact, last, "{how}: {what}: the prefix before it replays");
            assert!(
                matches!(failure, Some(CkptError::Corrupted { record, .. }) if record == last as u64),
                "{how}: {what}: surfaced as {failure:?}"
            );
            assert!(store.cursor().flat_at(last).is_ok(), "{how}: {what}");
        }
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
        let err = MappedStore::open(&path, &cfg).expect_err("an older version is refused");
        assert!(refused(&err), "mapped: {err:?}");
        let err = MappedStore::open_buffered(&path, &cfg).expect_err("an older version is refused");
        assert!(refused(&err), "buffered: {err:?}");
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
        MappedStore::open(&path, &cfg),
        Err(CkptError::BadMagic)
    ));

    // Future format version (byte 8 is the version LSB; the version is
    // checked before the header CRC so old readers fail informatively).
    let mut bytes = pristine.clone();
    bytes[8] = 0x2A;
    fs::write(&path, &bytes).expect("write");
    assert!(matches!(
        MappedStore::open(&path, &cfg),
        Err(CkptError::UnsupportedVersion(0x2A))
    ));

    // Header torn mid-way.
    fs::write(&path, &pristine[..20]).expect("write");
    assert!(matches!(
        MappedStore::open(&path, &cfg),
        Err(CkptError::HeaderCorrupted)
    ));

    // Warm-geometry change: fingerprint rejects the store.
    fs::write(&path, &pristine).expect("write");
    let mut bigger_l2 = cfg.clone();
    bigger_l2.l2.size_bytes *= 2;
    assert!(matches!(
        MappedStore::open(&path, &bigger_l2),
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
    let store = MappedStore::open(&path, &narrow).expect("compatible core variant");
    let reference: Vec<_> = originals[..2].iter().map(state_words).collect();
    let (intact, failure) = replay_prefix(&store, &narrow, &reference);
    assert_eq!(intact, 2);
    assert!(failure.is_none(), "{failure:?}");
    drop(store);

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

    // Reader side: the header records the frontend, which is the one
    // `smarts-exec`'s `replay` rebuilds every record under.
    write_store(&path, &cfg, &originals);
    let store = MappedStore::open(&path, &cfg).expect("open store");
    assert_eq!(store.meta().isa, IsaId::Builtin);
    drop(store);
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

    let store = MappedStore::open(&path, &cfg).expect("open store");
    assert!(store.damage().is_none());
    assert_eq!(store.len(), originals.len());
    let mut cursor = store.cursor();
    for (index, original) in originals.iter().enumerate() {
        let rebuilt = cursor
            .flat_at(index)
            .expect("intact record")
            .rebuild_isa::<RiscIsa>(&cfg)
            .expect("rebuilds");
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
