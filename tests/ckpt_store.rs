//! End-to-end guarantees of the persistent checkpoint store: replaying
//! a store from disk is bit-identical to replaying the warming pass's
//! checkpoints in memory at any worker count, one store serves many
//! detailed machines, lazy replay holds O(workers) checkpoints, and tail
//! damage costs only the damaged suffix.

mod common;

use std::path::PathBuf;

use common::{assert_bit_identical, eager_oracle, meta, sequential_oracle};
use smarts::ckpt::{CkptError, MappedStore};
use smarts::core::SamplerSpec;
use smarts::exec::{approx_len, replay, sample, Estimate, ExecError, Executor, ParallelReport};
use smarts::isa::{BuiltinIsa, IsaId};
use smarts::prelude::*;

fn store_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("smarts-store-{tag}-{}.ckpt", std::process::id()))
}

/// Warms `bench` (a suite entry at `scale`) on two workers while saving
/// the store every test here then replays.
fn warm_and_save(
    sim: &SmartsSim,
    bench: &Benchmark,
    scale: f64,
    p: &SamplingParams,
    path: &std::path::Path,
) -> (ParallelReport, smarts::ckpt::WriteSummary) {
    let (two, spec) = (
        Executor::new(2).expect("executor"),
        SamplerSpec::systematic(),
    );
    let meta = meta(IsaId::Builtin, bench.name(), scale, p);
    let run = sample(&two, sim, &meta, &spec, Some(path)).expect("warm-and-save run");
    let Estimate::Systematic(report) = run.estimate else {
        panic!("the systematic spec runs every unit");
    };
    (report, run.write.expect("write summary"))
}

/// What a systematic store replay reported: the merged report, the
/// records of the intact prefix it replayed, and the damage past them.
struct StoreReplay {
    report: ParallelReport,
    meta: StoreMeta,
    records: u64,
    damage: Option<CkptError>,
}

/// Replays every record of the store at `path` under `sim`'s machine.
fn replay_store(
    executor: &Executor,
    sim: &SmartsSim,
    path: &std::path::Path,
) -> Result<StoreReplay, ExecError> {
    let store = MappedStore::open(path, sim.config())?;
    let run = replay(executor, sim, &store, &SamplerSpec::systematic())?;
    let Estimate::Systematic(report) = run.estimate else {
        panic!("the systematic spec replays the grid");
    };
    let (records, damage) = match run.damage {
        Some((records, error)) => (records, Some(error)),
        None => (store.len() as u64, None),
    };
    let meta = store.meta().clone();
    Ok(StoreReplay {
        report,
        meta,
        records,
        damage,
    })
}

#[test]
fn store_replay_is_bit_identical_across_the_suite() {
    let sim = SmartsSim::new(MachineConfig::eight_way());
    let scale = 0.01;
    for bench in smarts::workloads::suite() {
        let bench = bench.scaled(scale);
        let p = SamplingParams::for_sample_size(
            bench.approx_len(),
            500,
            500,
            Warming::Functional,
            4,
            0,
        )
        .expect("valid sampling parameters");
        let sequential = sequential_oracle(&sim, bench.load(), &p);

        let path = store_path(bench.name());
        let (saved, write) = warm_and_save(&sim, &bench, scale, &p, &path);
        assert_bit_identical(
            &saved.report,
            &sequential,
            &format!("{} while saving", bench.name()),
        );
        assert!(write.records >= sequential.sample_size());
        // The eager single-threaded decode of the file agrees too.
        let eager = eager_oracle::<BuiltinIsa>(&sim, &path);
        assert_bit_identical(&eager, &sequential, &format!("{} eager", bench.name()));

        for jobs in [1usize, 2, 8] {
            let executor = Executor::new(jobs).expect("executor");
            let replayed = replay_store(&executor, &sim, &path).expect("store replay");
            assert!(
                replayed.damage.is_none(),
                "{}: clean store reported damage",
                bench.name()
            );
            assert_eq!(replayed.meta.benchmark, bench.name());
            assert_bit_identical(
                &replayed.report.report,
                &sequential,
                &format!("{} from disk at {jobs} jobs", bench.name()),
            );
            assert_eq!(replayed.records, write.records);
        }
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn one_store_serves_many_detailed_machines() {
    // The warm-once/replay-many contract: the store fingerprints only
    // the functional-warming geometry, so machines differing in the
    // detailed core (widths, window) replay the same store.
    let wide = MachineConfig::eight_way();
    let mut narrow = wide.clone();
    narrow.issue_width = 2;
    narrow.fetch_width = 2;
    narrow.decode_width = 2;
    narrow.commit_width = 2;
    narrow.ruu_size = 32;

    let sim_wide = SmartsSim::new(wide);
    let sim_narrow = SmartsSim::new(narrow);
    let scale = 0.05;
    let bench = find("branchy-1").expect("suite benchmark").scaled(scale);
    let p =
        SamplingParams::for_sample_size(bench.approx_len(), 1000, 2000, Warming::Functional, 10, 0)
            .expect("valid sampling parameters");

    // One warming pass, persisted by the wide machine.
    let path = store_path("many-configs");
    warm_and_save(&sim_wide, &bench, scale, &p, &path);

    // Both machines replay it with zero warming, each bit-identical to
    // its own sequential oracle.
    let executor = Executor::new(4).expect("executor");
    let mut means = Vec::new();
    for (label, sim) in [("8-way", &sim_wide), ("narrow", &sim_narrow)] {
        let sequential = sequential_oracle(sim, bench.load(), &p);
        let replayed = replay_store(&executor, sim, &path).expect("store replay");
        assert!(replayed.damage.is_none());
        assert_bit_identical(
            &replayed.report.report,
            &sequential,
            &format!("{label} from the shared store"),
        );
        means.push(replayed.report.report.cpi().mean());
    }
    // The detailed cores genuinely differ, and the narrowed core cannot
    // be faster than the 8-wide one on the same warm state.
    assert!(
        means[1] > means[0],
        "narrow core CPI {} should exceed 8-way CPI {}",
        means[1],
        means[0]
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn lazy_replay_holds_a_tenth_of_the_decoded_store_at_most() {
    // The contract lazy replay was built for: residency is O(workers),
    // not O(units) — each worker holds the one checkpoint it is
    // replaying, so a store of a few hundred units decodes to at least
    // ten times what a replay of it ever has resident.
    let sim = SmartsSim::new(MachineConfig::eight_way());
    let scale = 0.25;
    let bench = find("hashp-2").expect("suite benchmark").scaled(scale);
    let p = SamplingParams::for_sample_size(
        bench.approx_len(),
        1000,
        2000,
        Warming::Functional,
        250,
        0,
    )
    .expect("valid sampling parameters");
    let path = store_path("lazy-residency");
    warm_and_save(&sim, &bench, scale, &p, &path);

    let store = smarts::ckpt::MappedStore::open(&path, sim.config()).expect("store maps");
    assert!(store.len() >= 200, "only {} units", store.len());
    let jobs = 2;
    let executor = Executor::new(jobs).expect("executor");
    let spec = SamplerSpec::systematic();
    let replayed = replay(&executor, &sim, &store, &spec).expect("replay");
    assert!(replayed.damage.is_none());
    let stats = replayed
        .estimate
        .report()
        .pipeline
        .expect("residency stats");
    assert!(
        (1..=jobs).contains(&stats.peak_resident_checkpoints),
        "{jobs} workers held {} checkpoints",
        stats.peak_resident_checkpoints
    );
    let decoded = store.approx_decoded_bytes().expect("intact store");
    assert!(
        decoded >= 10 * stats.peak_resident_bytes,
        "decoded store {decoded} B is under 10x the lazy peak {} B",
        stats.peak_resident_bytes
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn tail_damage_costs_only_the_damaged_suffix() {
    let sim = SmartsSim::new(MachineConfig::eight_way());
    let scale = 0.05;
    let bench = find("stream-2").expect("suite benchmark").scaled(scale);
    let p =
        SamplingParams::for_sample_size(bench.approx_len(), 1000, 2000, Warming::Functional, 8, 0)
            .expect("valid sampling parameters");
    let path = store_path("tail-damage");
    let (_, write) = warm_and_save(&sim, &bench, scale, &p, &path);

    let bytes = std::fs::read(&path).expect("read store");
    let records_end = smarts::ckpt::MappedStore::open(&path, sim.config())
        .expect("pristine store maps")
        .records_end() as usize;

    // Clip the index footer: no record is lost — the full sample comes
    // back — but the damage is still surfaced as a typed error.
    std::fs::write(&path, &bytes[..bytes.len() - 3]).expect("truncate footer");
    let executor = Executor::new(2).expect("executor");
    let replayed = replay_store(&executor, &sim, &path).expect("footer-damaged replay");
    assert_eq!(replayed.records, write.records);
    assert!(
        matches!(
            replayed.damage,
            Some(smarts::ckpt::CkptError::Corrupted { .. })
        ),
        "expected an index-damage report, got {:?}",
        replayed.damage
    );

    // Tear the last record: the intact prefix must still replay, with
    // the damage surfaced as a typed error instead of a failure.
    std::fs::write(&path, &bytes[..records_end - 3]).expect("truncate store");
    let executor = Executor::new(2).expect("executor");
    let replayed = replay_store(&executor, &sim, &path).expect("prefix replay");
    assert_eq!(replayed.records, write.records - 1);
    assert!(
        matches!(
            replayed.damage,
            Some(smarts::ckpt::CkptError::Truncated { .. })
        ),
        "expected a truncation report, got {:?}",
        replayed.damage
    );
    assert_eq!(
        replayed.report.report.sample_size(),
        replayed.records,
        "every intact record becomes a sample unit"
    );
    std::fs::remove_file(&path).ok();
}

/// Bitwise IEEE CRC-32 (the zlib checksum), independent of the store's
/// own table-driven implementation.
fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &byte in bytes {
        crc ^= byte as u32;
        for _ in 0..8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
        }
    }
    !crc
}

/// FNV-1a, 64-bit. The header and the index footer each end in their
/// own CRC-32, and a CRC-32 taken over `data | crc32(data)` does not
/// depend on `data`, so the file CRC alone is blind to both.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |hash, &byte| {
        (hash ^ byte as u64).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// Store bytes recorded at commit 3c999ce, before flats shared memory
/// pages with the snapshot and before risc programs were predecoded:
/// `(bench, isa, offset, file length, CRC-32, FNV-1a)` at scale 0.25, n = 100,
/// U = 1000, W = 2000. `hashp-2` is outside the risc encoding. The
/// builtin rows were re-pinned once when every store moved to format
/// v3: each is one ISA tag byte longer, with the same records. Their
/// CRC-32 does not move, since it is blind to header and footer (see
/// [`fnv1a`]).
const PINNED_STORES: [(&str, &str, u64, u64, u32, u64); 10] = [
    (
        "hashp-2",
        "builtin",
        0,
        530371,
        0x020B68B0,
        0xC04241BC98EF700B,
    ),
    (
        "hashp-2",
        "builtin",
        3,
        530841,
        0x55949B0F,
        0x58A280C15509C575,
    ),
    (
        "chase-2",
        "builtin",
        0,
        1392377,
        0x1174F0A8,
        0x7D7EF124A072C845,
    ),
    (
        "chase-2",
        "builtin",
        3,
        1397223,
        0x59A238DF,
        0x82A402D43AB59D77,
    ),
    (
        "chase-2",
        "risc",
        0,
        1392377,
        0x1174F0A8,
        0xCA3ED5651F54C785,
    ),
    (
        "chase-2",
        "risc",
        3,
        1397223,
        0x59A238DF,
        0xADEEED5D839561CB,
    ),
    (
        "rle-1",
        "builtin",
        0,
        140350,
        0x8891940A,
        0xC4F0A5F4CF632AA8,
    ),
    (
        "rle-1",
        "builtin",
        3,
        139958,
        0x1A8E8DE4,
        0xF64DB267E6FF27CC,
    ),
    ("rle-1", "risc", 0, 140350, 0x8891940A, 0x4548763ED9466981),
    ("rle-1", "risc", 3, 139958, 0x1A8E8DE4, 0x3EF5625B2E84E1B1),
];

fn pinned_store_bytes(isa: IsaId, name: &str, offset: u64) -> Vec<u8> {
    let scale = 0.25;
    let sim = SmartsSim::new(MachineConfig::eight_way());
    let approx_len = approx_len(isa, name, scale).expect("workload resolves");
    let p =
        SamplingParams::for_sample_size(approx_len, 1000, 2000, Warming::Functional, 100, offset)
            .expect("valid sampling parameters");
    let path = store_path(&format!("pinned-{name}-{}-{offset}", isa.name()));
    let (executor, spec) = (
        Executor::new(1).expect("executor"),
        SamplerSpec::systematic(),
    );
    let meta = meta(isa, name, scale, &p);
    sample(&executor, &sim, &meta, &spec, Some(&path)).expect("warming pass");
    let bytes = std::fs::read(&path).expect("read store");
    std::fs::remove_file(&path).ok();
    bytes
}

#[test]
fn store_bytes_match_the_pinned_parent_stores() {
    for (name, isa, offset, len, crc, fnv) in PINNED_STORES {
        let frontend = IsaId::from_name(isa).expect("a frontend name");
        let bytes = pinned_store_bytes(frontend, name, offset);
        assert_eq!(
            (bytes.len() as u64, crc32(&bytes), fnv1a(&bytes)),
            (len, crc, fnv),
            "{name} ({isa}, offset {offset}): store bytes moved"
        );
    }
}
