//! The unit-outcome memo ([`UnitMemo`]): replaying through it changes
//! which units are simulated, never a byte of what is reported; it is
//! valid for one simulator and one store, and says so with a typed
//! error; and it neither masks nor moves store damage. Its outcomes
//! file carries it to a later process on the same terms: a file for
//! another machine, build or store, a damaged or hostile file, or a
//! store that no longer verifies only costs simulation.

#[path = "../../../tests/common/mod.rs"]
mod common;

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier};

use common::{assert_bit_identical, meta};
use smarts_ckpt::{CkptError, IsaId, MappedStore};
use smarts_core::{SampleReport, SamplerKind, SamplerSpec, SamplingParams, SmartsSim, Warming};
use smarts_exec::{
    approx_len, replay, sample, Estimate, ExecError, Executor, ParallelReport, SampledReplay,
    UnitMemo,
};
use smarts_isa::{crc32, write_trace, BuiltinIsa, Cpu};
use smarts_uarch::MachineConfig;
use smarts_workloads::Frontend;

const BENCH: &str = "hashp-2";
const SCALE: f64 = 0.05;
/// Records per store: several times what one seeded draw measures.
const UNITS: u64 = 160;
/// Seeds per sampler kind.
const SEEDS: u64 = 50;

fn sim() -> SmartsSim {
    SmartsSim::new(MachineConfig::eight_way())
}

/// Warms a store of `UNITS` short units (debug-profile detail is slow)
/// at systematic phase `offset`.
fn warmed(tag: &str, offset: u64) -> PathBuf {
    let path = std::env::temp_dir().join(format!("smarts_memo_{tag}_{}.ckpt", std::process::id()));
    warm_at(&path, offset, 200, UNITS);
    path
}

/// Warms (or rewrites) the store at `path`: `units` units of 100
/// instructions after `w` of detailed warming, at phase `offset`.
fn warm_at(path: &Path, offset: u64, w: u64, units: u64) {
    let len = approx_len(IsaId::Builtin, BENCH, SCALE).unwrap();
    let params =
        SamplingParams::for_sample_size(len, 100, w, Warming::Functional, units, offset).unwrap();
    let meta = meta(IsaId::Builtin, BENCH, SCALE, &params);
    let (one, systematic) = (Executor::new(1).unwrap(), SamplerSpec::systematic());
    sample(&one, &sim(), &meta, &systematic, Some(path)).unwrap();
}

fn spec(kind: SamplerKind, seed: u64) -> SamplerSpec {
    SamplerSpec {
        kind,
        seed,
        pilot: 8,
        epsilon: 0.3,
        ..SamplerSpec::systematic()
    }
}

/// Every seeded spec the sweeps run.
fn specs() -> Vec<SamplerSpec> {
    [SamplerKind::Stratified, SamplerKind::Adaptive]
        .into_iter()
        .flat_map(|kind| (0..SEEDS).map(move |seed| spec(kind, seed)))
        .collect()
}

/// Everything of a report a canonical line is made of, as bytes: each
/// unit (placement, cycles, CPI/EPI, all counters), the mode accounting
/// and the estimates' bits.
fn line(report: &SampleReport) -> String {
    format!(
        "{:?} {:?} {:016x} {:016x} {:016x} {:016x}",
        report.units,
        report.instructions,
        report.cpi().mean().to_bits(),
        report.cpi().coefficient_of_variation().to_bits(),
        report.epi().mean().to_bits(),
        report.epi().coefficient_of_variation().to_bits(),
    )
}

fn sampled_line(sampled: &SampledReplay) -> String {
    format!(
        "{} {:?} {:?}",
        line(&sampled.report.report),
        sampled.estimate,
        sampled.measured
    )
}

/// Units a run booked, and how many of them the memo supplied.
fn booked(run: &ParallelReport) -> (u64, u64) {
    run.workers
        .iter()
        .fold((0, 0), |(u, m), w| (u + w.units, m + w.memoized))
}

/// A sampler's replay of `store`.
fn try_sampled(
    executor: &Executor,
    sim: &SmartsSim,
    store: &MappedStore,
    spec: &SamplerSpec,
) -> Result<SampledReplay, ExecError> {
    match replay(executor, sim, store, spec)?.estimate {
        Estimate::Sampled(sampled) => Ok(sampled),
        Estimate::Systematic(_) => panic!("a sampler's spec replays a selection"),
    }
}

fn sampled(
    executor: &Executor,
    sim: &SmartsSim,
    store: &MappedStore,
    spec: &SamplerSpec,
) -> SampledReplay {
    try_sampled(executor, sim, store, spec).unwrap()
}

/// What the systematic replay of every record reported: the merged
/// report, the records of the intact prefix it replayed, and the damage
/// past them.
#[derive(Debug)]
struct Grid {
    report: ParallelReport,
    records: u64,
    damage: Option<CkptError>,
}

/// The systematic replay of every record of `store`.
fn grid(executor: &Executor, sim: &SmartsSim, store: &MappedStore) -> Result<Grid, ExecError> {
    let run = replay(executor, sim, store, &SamplerSpec::systematic())?;
    let Estimate::Systematic(report) = run.estimate else {
        panic!("the systematic spec replays the grid");
    };
    let (records, damage) = match run.damage {
        Some((records, error)) => (records, Some(error)),
        None => (store.len() as u64, None),
    };
    Ok(Grid {
        report,
        records,
        damage,
    })
}

#[test]
fn memoized_replays_are_the_memoless_bytes_and_simulate_each_record_once() {
    let sim = sim();
    let path = warmed("sweep", 0);
    let store = MappedStore::open(&path, sim.config()).unwrap();
    let plain = Executor::new(1).unwrap();
    let memo = Arc::new(UnitMemo::new(&sim, &store));

    let mut touched = BTreeSet::new();
    let mut simulated = 0;
    let mut sweep_hits = 0;
    for spec in specs() {
        let reference = sampled(&plain, &sim, &store, &spec);
        assert_eq!(booked(&reference.report).1, 0, "no memo, no memo hits");
        for jobs in [1, 2] {
            let executor = Executor::new(jobs).unwrap().with_memo(Arc::clone(&memo));
            let through = sampled(&executor, &sim, &store, &spec);
            let what = format!("{spec:?} at {jobs} jobs");
            assert_eq!(sampled_line(&through), sampled_line(&reference), "{what}");
            assert_eq!(through.estimate, reference.estimate, "{what}");
            assert_bit_identical(&through.report.report, &reference.report.report, &what);
            assert_eq!(through.report.workers.len(), jobs, "{what}");

            let (units, memoized) = booked(&through.report);
            assert_eq!(units, booked(&reference.report).0, "{what}: units booked");
            touched.extend(through.measured.iter().copied());
            simulated += units - memoized;
            sweep_hits += memoized;
            assert_eq!(simulated, touched.len() as u64, "{what}: simulated twice");
        }
    }
    assert!(sweep_hits > simulated, "the sweep must mostly hit the memo");

    // The full grid last: it simulates exactly the records no seed drew.
    let reference = grid(&plain, &sim, &store).unwrap();
    for jobs in [1, 2] {
        let executor = Executor::new(jobs).unwrap().with_memo(Arc::clone(&memo));
        let through = grid(&executor, &sim, &store).unwrap();
        let what = format!("full grid at {jobs} jobs");
        assert_eq!(
            line(&through.report.report),
            line(&reference.report.report),
            "{what}"
        );
        assert_bit_identical(&through.report.report, &reference.report.report, &what);
        assert_eq!(
            (through.records, through.damage.is_none()),
            (reference.records, true)
        );
        let (units, memoized) = booked(&through.report);
        assert_eq!(units, store.len() as u64);
        simulated += units - memoized;
    }
    assert_eq!(
        simulated,
        store.len() as u64,
        "one simulation per record, ever"
    );
    drop(store);
    std::fs::remove_file(&path).ok();
}

/// A served sampler's replay is an offline drive of the same spec over
/// the store's records: `drive_sampler` fed each record's CPI from the
/// systematic replay, the partial records at the stream's end issued but
/// unobserved, gives the served estimate and measured set bit for bit.
#[test]
fn an_offline_drive_over_the_grid_is_the_served_replay() {
    let sim = sim();
    let path = std::env::temp_dir().join(format!("smarts_memo_grid_{}.ckpt", std::process::id()));
    let census = SamplingParams {
        unit_size: 100,
        detailed_warming: 200,
        warming: Warming::Functional,
        interval: 1,
        offset: 0,
        max_units: None,
    };
    let (one, systematic) = (Executor::new(1).unwrap(), SamplerSpec::systematic());
    let meta = meta(IsaId::Builtin, "loopy-1", 0.01, &census);
    sample(&one, &sim, &meta, &systematic, Some(&path)).unwrap();
    let store = MappedStore::open(&path, sim.config()).unwrap();
    let grid = grid(&one, &sim, &store).unwrap();
    let mut cpis = vec![None; store.len()];
    for unit in &grid.report.report.units {
        cpis[(unit.start_instr / census.unit_size) as usize] = Some(unit.cpi);
    }
    let partial = cpis.iter().filter(|cpi| cpi.is_none()).count();
    assert!(partial > 0, "the grid ends in partial records");
    assert!(cpis[..store.len() - partial].iter().all(Option::is_some));

    // Seeded draws at the sweep's loose target, and a target no sample
    // short of the whole store meets, so the partial records are drawn.
    let tight = |kind| SamplerSpec {
        epsilon: 1e-4,
        ..spec(kind, 5)
    };
    let kinds = [SamplerKind::Stratified, SamplerKind::Adaptive];
    let cases = kinds
        .iter()
        .flat_map(|&kind| [spec(kind, 1), spec(kind, 2), tight(kind)]);
    let mut drew_partial = false;
    for spec in cases {
        let mut measured = Vec::new();
        let sampler = spec.build(store.len() as u64).unwrap();
        let offline = smarts_stats::drive_sampler(sampler, |units| {
            measured.extend_from_slice(units);
            let observed = units.iter().filter_map(|&u| Some((u, cpis[u as usize]?)));
            Ok::<_, smarts_stats::StatsError>(observed.collect())
        })
        .unwrap();
        measured.sort_unstable();
        drew_partial |= measured.iter().any(|&u| cpis[u as usize].is_none());
        for jobs in [1, 3] {
            let served = sampled(&Executor::new(jobs).unwrap(), &sim, &store, &spec);
            let what = format!("{spec:?} at {jobs} jobs");
            assert_eq!(served.estimate, offline, "{what}");
            let bits =
                |e: &smarts_stats::SamplerEstimate| (e.mean.to_bits(), e.half_width.to_bits());
            assert_eq!(bits(&served.estimate), bits(&offline), "{what}");
            assert_eq!(served.measured, measured, "{what}");
        }
    }
    assert!(drew_partial, "some drive issued a partial record");
    drop(store);
    std::fs::remove_file(&path).ok();
}

#[test]
fn concurrent_replays_through_one_memo_give_the_sequential_bytes() {
    let sim = sim();
    let path = warmed("race", 0);
    let store = MappedStore::open(&path, sim.config()).unwrap();
    let plain = Executor::new(1).unwrap();
    // Two seed lists that overlap in the units they draw, so the threads
    // race on empty slots as well as read each other's filled ones.
    let lists: Vec<Vec<SamplerSpec>> = (0..2)
        .map(|t| {
            (0..8)
                .map(|i| spec(SamplerKind::Stratified, 100 + 2 * i + t))
                .collect()
        })
        .collect();
    let expected: Vec<Vec<String>> = lists
        .iter()
        .map(|list| {
            list.iter()
                .map(|spec| sampled_line(&sampled(&plain, &sim, &store, spec)))
                .collect()
        })
        .collect();

    let memo = Arc::new(UnitMemo::new(&sim, &store));
    let start = Barrier::new(lists.len());
    let got: Vec<Vec<String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = lists
            .iter()
            .map(|list| {
                let executor = Executor::new(1).unwrap().with_memo(Arc::clone(&memo));
                let (sim, store, start) = (&sim, &store, &start);
                scope.spawn(move || {
                    start.wait();
                    list.iter()
                        .map(|spec| sampled_line(&sampled(&executor, sim, store, spec)))
                        .collect()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(got, expected);
    drop(store);
    std::fs::remove_file(&path).ok();
}

#[test]
fn a_memo_refuses_another_simulator_or_store() {
    let sim = sim();
    let path = warmed("key", 0);
    let store = MappedStore::open(&path, sim.config()).unwrap();
    let memo = Arc::new(UnitMemo::new(&sim, &store));
    let through = |memo: &Arc<UnitMemo>| Executor::new(1).unwrap().with_memo(Arc::clone(memo));
    let first = grid(&through(&memo), &sim, &store).unwrap();

    // Same warm geometry (the store opens), another core: the filled
    // memo holds outcomes that are wrong for this machine.
    let mut cfg = MachineConfig::eight_way();
    cfg.ruu_size /= 4;
    let narrow = SmartsSim::new(cfg);
    let store_narrow = MappedStore::open(&path, narrow.config()).unwrap();
    let refused = |result: Result<_, ExecError>| match result {
        Err(ExecError::MemoMismatch) => {}
        other => panic!(
            "expected a memo mismatch, got {:?}",
            other.map(|_| "a report")
        ),
    };
    refused(grid(&through(&memo), &narrow, &store_narrow).map(drop));
    let stratified = spec(SamplerKind::Stratified, 1);
    refused(try_sampled(&through(&memo), &narrow, &store_narrow, &stratified).map(drop));
    // Its own memo gives that machine its own, different, bytes — the
    // ones it gets without any memo.
    let own = Arc::new(UnitMemo::new(&narrow, &store_narrow));
    let second = grid(&through(&own), &narrow, &store_narrow).unwrap();
    let plain = Executor::new(1).unwrap();
    let memoless = grid(&plain, &narrow, &store_narrow).unwrap();
    assert_eq!(line(&second.report.report), line(&memoless.report.report));
    assert_ne!(line(&second.report.report), line(&first.report.report));

    // Another store (same simulator, same record count) is refused too.
    let other_path = warmed("key_other", 1);
    let other = MappedStore::open(&other_path, sim.config()).unwrap();
    assert_eq!(other.len(), store.len());
    refused(grid(&through(&memo), &sim, &other).map(drop));
    drop((store, store_narrow, other));
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&other_path).ok();
}

#[test]
fn a_memo_neither_masks_nor_moves_store_damage() {
    let sim = sim();
    let path = warmed("damage", 0);
    // Flip one payload byte of a mid-file record: the index footer stays
    // intact, so the damage only shows when that record is decoded.
    let victim = {
        let store = MappedStore::open(&path, sim.config()).unwrap();
        let victim = store.len() / 2;
        let span = store.record_span(victim);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[(span.offset + 8 + span.payload_bytes / 2) as usize] ^= 0x40;
        drop(store);
        std::fs::write(&path, bytes).unwrap();
        victim as u64
    };
    let store = MappedStore::open(&path, sim.config()).unwrap();
    assert!(
        store.damage().is_none(),
        "the damage must be mid-chain only"
    );
    let plain = Executor::new(2).unwrap();
    let reference = grid(&plain, &sim, &store).unwrap();
    assert_eq!(reference.records, victim);
    let damage = format!("{:?}", reference.damage.as_ref().expect("typed damage"));

    let memo = Arc::new(UnitMemo::new(&sim, &store));
    for (pass, memoized) in [(1, 0), (2, victim)] {
        let executor = Executor::new(2).unwrap().with_memo(Arc::clone(&memo));
        let through = grid(&executor, &sim, &store).unwrap();
        assert_eq!(through.records, victim, "pass {pass}");
        assert_eq!(
            format!("{:?}", through.damage.as_ref().unwrap()),
            damage,
            "pass {pass}"
        );
        assert_eq!(
            line(&through.report.report),
            line(&reference.report.report),
            "pass {pass}"
        );
        assert_eq!(booked(&through.report), (victim, memoized), "pass {pass}");
    }
    // A sampler needs its population intact: a hard error with or without
    // a memo, even though every record below the damage is memoized by now.
    let memoized = Executor::new(1).unwrap().with_memo(Arc::clone(&memo));
    let stratified = spec(SamplerKind::Stratified, 1);
    for executor in [memoized, plain] {
        let err = try_sampled(&executor, &sim, &store, &stratified).unwrap_err();
        assert!(matches!(err, ExecError::Ckpt(_)), "got {err:?}");
    }
    drop(store);
    std::fs::remove_file(&path).ok();
}

// ---- the outcomes file ------------------------------------------------------

/// The build identity the tests save and load under.
const BUILD: &str = "build-a";

fn through(memo: &Arc<UnitMemo>, jobs: usize) -> Executor {
    Executor::new(jobs).unwrap().with_memo(Arc::clone(memo))
}

/// What a fresh process replays through: the memo loaded from the file
/// beside the store (empty when that file is not for this replay).
fn loaded(sim: &SmartsSim, store: &MappedStore, path: &Path, build: &str) -> Arc<UnitMemo> {
    let file = UnitMemo::file_beside(path, sim);
    Arc::new(UnitMemo::load(&file, sim, store, build))
}

/// The full grid's line, and the units booked / memoized.
fn full(executor: &Executor, sim: &SmartsSim, store: &MappedStore) -> (String, (u64, u64)) {
    let run = grid(executor, sim, store).unwrap();
    (line(&run.report.report), booked(&run.report))
}

fn remove(paths: &[&Path]) {
    for path in paths {
        std::fs::remove_file(path).ok();
    }
}

#[test]
fn a_saved_memo_gives_a_later_replay_the_memoless_bytes_without_simulating() {
    let sim = sim();
    let path = warmed("persist", 0);
    let file = UnitMemo::file_beside(&path, &sim);
    let store = MappedStore::open(&path, sim.config()).unwrap();
    let plain = Executor::new(1).unwrap();
    let (reference, _) = full(&plain, &sim, &store);
    let seeds: Vec<SamplerSpec> = [SamplerKind::Stratified, SamplerKind::Adaptive]
        .into_iter()
        .flat_map(|kind| (0..12).map(move |seed| spec(kind, seed)))
        .collect();
    let expected: Vec<String> = (seeds.iter())
        .map(|spec| sampled_line(&sampled(&plain, &sim, &store, spec)))
        .collect();

    // The first process finds no file, simulates the grid and saves it.
    assert_eq!(UnitMemo::load(&file, &sim, &store, BUILD).known(), 0);
    let first = Arc::new(UnitMemo::new(&sim, &store));
    assert_eq!(full(&through(&first, 2), &sim, &store).0, reference);
    first.save(&file, BUILD).unwrap();
    drop(store);

    // A later one reopens the store and finds every unit known.
    let store = MappedStore::open(&path, sim.config()).unwrap();
    let memo = Arc::new(UnitMemo::load(&file, &sim, &store, BUILD));
    let records = store.len() as u64;
    assert_eq!(memo.known() as u64, records);
    for jobs in [1, 2] {
        let again = full(&through(&memo, jobs), &sim, &store);
        assert_eq!(
            again,
            (reference.clone(), (records, records)),
            "{jobs} jobs"
        );
    }
    for (spec, expected) in seeds.iter().zip(&expected) {
        let again = sampled(&through(&memo, 2), &sim, &store, spec);
        assert_eq!(&sampled_line(&again), expected, "{spec:?}");
        let (units, memoized) = booked(&again.report);
        assert_eq!(units, memoized, "{spec:?}: nothing simulated");
    }
    drop(store);
    remove(&[&path, &file]);
}

#[test]
fn a_replay_with_every_unit_known_resolves_no_workload() {
    let sim = sim();
    // A trace store: its workload is a file that can be taken away.
    let trace = std::env::temp_dir().join(format!("smarts_memo_{}.smartstr", std::process::id()));
    let loaded_trace = BuiltinIsa::resolve("loopy-1", 0.02).unwrap();
    let (mut cpu, mut mem) = (Cpu::new(), loaded_trace.memory.clone());
    let mut records = Vec::new();
    while !cpu.halted() {
        records.push(cpu.step(&loaded_trace.program, &mut mem).unwrap());
    }
    write_trace(&trace, "loopy-1", &records).unwrap();
    let workload = trace.to_str().unwrap();
    let len = approx_len(IsaId::Trace, workload, 1.0).unwrap();
    let params =
        SamplingParams::for_sample_size(len, 100, 200, Warming::Functional, 40, 0).unwrap();
    let meta = meta(IsaId::Trace, workload, 1.0, &params);
    let path = std::env::temp_dir().join(format!("smarts_memo_trace_{}.ckpt", std::process::id()));
    let one = Executor::new(1).unwrap();
    let systematic = SamplerSpec::systematic();
    let written = sample(&one, &sim, &meta, &systematic, Some(&path)).unwrap();
    let store = MappedStore::open(&path, sim.config()).unwrap();
    // Nothing names the frontend: the header's trace frontend replays the
    // store to the writing run's report, bit for bit.
    assert_bit_identical(
        &grid(&one, &sim, &store).unwrap().report.report,
        &written.estimate.report().report,
        "trace store replay vs the writing run",
    );
    let file = UnitMemo::file_beside(&path, &sim);
    let stratified = spec(SamplerKind::Stratified, 3);
    let expected = try_sampled(&one, &sim, &store, &stratified).unwrap();

    // Save one draw's outcomes, then take the workload away.
    let memo = Arc::new(UnitMemo::new(&sim, &store));
    try_sampled(&through(&memo, 1), &sim, &store, &stratified).unwrap();
    memo.save(&file, BUILD).unwrap();
    std::fs::remove_file(&trace).unwrap();

    let memo = Arc::new(UnitMemo::load(&file, &sim, &store, BUILD));
    let again = try_sampled(&through(&memo, 2), &sim, &store, &stratified).unwrap();
    assert_eq!(sampled_line(&again), sampled_line(&expected));
    // A unit left to simulate needs the workload and says so with the
    // frontend's own error.
    for executor in [through(&memo, 1), one] {
        let err = grid(&executor, &sim, &store).unwrap_err();
        assert!(matches!(err, ExecError::Frontend(_)), "got {err:?}");
    }
    drop(store);
    remove(&[&path, &file]);
}

#[test]
fn an_outcomes_file_serves_one_machine_one_build_and_one_store() {
    let sim = sim();
    let path = warmed("keys_file", 0);
    let file = UnitMemo::file_beside(&path, &sim);
    let store = MappedStore::open(&path, sim.config()).unwrap();
    let plain = Executor::new(1).unwrap();
    let memo = Arc::new(UnitMemo::new(&sim, &store));
    let (wide, _) = full(&through(&memo, 1), &sim, &store);
    memo.save(&file, BUILD).unwrap();

    // A machine differing only in its window: its own file, its own bytes.
    let mut cfg = MachineConfig::eight_way();
    cfg.ruu_size /= 4;
    let narrow = SmartsSim::new(cfg);
    let narrow_file = UnitMemo::file_beside(&path, &narrow);
    assert_ne!(narrow_file, file);
    assert_eq!(UnitMemo::load(&file, &narrow, &store, BUILD).known(), 0);
    let memo = loaded(&narrow, &store, &path, BUILD);
    let (narrow_line, _) = full(&through(&memo, 1), &narrow, &store);
    assert_eq!(narrow_line, full(&plain, &narrow, &store).0);
    assert_ne!(narrow_line, wide);
    memo.save(&narrow_file, BUILD).unwrap();
    let memo = loaded(&narrow, &store, &path, BUILD);
    assert_eq!(memo.known(), store.len());
    assert_eq!(full(&through(&memo, 1), &narrow, &store).0, narrow_line);
    assert_eq!(
        full(
            &through(&loaded(&sim, &store, &path, BUILD), 1),
            &sim,
            &store
        )
        .0,
        wide
    );

    // Another build ignores the file, then overwrites it.
    assert_eq!(UnitMemo::load(&file, &sim, &store, "build-b").known(), 0);
    let memo = loaded(&sim, &store, &path, "build-b");
    let records = store.len() as u64;
    assert_eq!(
        full(&through(&memo, 1), &sim, &store),
        (wide.clone(), (records, 0))
    );
    memo.save(&file, "build-b").unwrap();
    assert_eq!(UnitMemo::load(&file, &sim, &store, BUILD).known(), 0);
    assert!(UnitMemo::load(&file, &sim, &store, "build-b").known() > 0);
    drop(store);

    // A store rewritten at the same path, with another phase or another
    // W (same record count), misses and replays its own bytes.
    for (offset, w) in [(1, 200), (0, 400)] {
        warm_at(&path, offset, w, UNITS);
        let store = MappedStore::open(&path, sim.config()).unwrap();
        assert_eq!(UnitMemo::load(&file, &sim, &store, "build-b").known(), 0);
        let memo = loaded(&sim, &store, &path, "build-b");
        assert_eq!(memo.known(), 0, "offset {offset}, W {w}");
        let (line, _) = full(&through(&memo, 1), &sim, &store);
        assert_eq!(line, full(&plain, &sim, &store).0);
        assert_ne!(line, wide);
    }
    remove(&[&path, &file, &narrow_file]);
}

/// Replaces the trailing CRC so a crafted body passes it.
fn reseal(mut bytes: Vec<u8>) -> Vec<u8> {
    let body = bytes.len() - 4;
    let crc = crc32(&bytes[..body]);
    bytes[body..].copy_from_slice(&crc.to_le_bytes());
    bytes
}

#[test]
fn hostile_outcome_files_are_ignored_without_a_panic_or_a_changed_byte() {
    let sim = sim();
    // Eight records, so the file is small enough to cut at every byte.
    let path =
        std::env::temp_dir().join(format!("smarts_memo_hostile_{}.ckpt", std::process::id()));
    warm_at(&path, 0, 200, 8);
    let file = UnitMemo::file_beside(&path, &sim);
    let store = MappedStore::open(&path, sim.config()).unwrap();
    let (reference, _) = full(&Executor::new(1).unwrap(), &sim, &store);
    let memo = Arc::new(UnitMemo::new(&sim, &store));
    full(&through(&memo, 1), &sim, &store);
    memo.save(&file, BUILD).unwrap();
    let real = std::fs::read(&file).unwrap();
    let load = |bytes: &[u8]| {
        std::fs::write(&file, bytes).unwrap();
        UnitMemo::load(&file, &sim, &store, BUILD)
    };
    assert_eq!(load(&real).known(), store.len());

    for cut in 0..real.len() {
        assert_eq!(load(&real[..cut]).known(), 0, "cut at byte {cut}");
    }
    let mut state = 0x5EED_u64;
    let mut random = |n: usize| -> Vec<u8> {
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1);
                (state >> 56) as u8
            })
            .collect()
    };
    for n in [1, 9, 100, real.len(), 3 * real.len()] {
        assert_eq!(load(&random(n)).known(), 0, "{n} random bytes");
        let posing = reseal([&real[..8], &random(n)[..], &[0; 4]].concat());
        assert_eq!(
            load(&posing).known(),
            0,
            "{n} random bytes behind the magic"
        );
    }
    assert!(
        load(&vec![0; 4 << 20]).known() == 0,
        "a file larger than any store's"
    );

    // Well-sealed files that lie. After the magic comes the key's length
    // and the key, then the count, then entries of 34 words: record
    // index, tag, then the outcome.
    let key_len = u32::from_le_bytes(real[8..12].try_into().unwrap()) as usize;
    let count_at = 12 + key_len;
    let first = count_at + 8;
    let second = first + 34 * 8;
    let with = |at: usize, word: u64| {
        let mut bytes = real.clone();
        bytes[at..at + 8].copy_from_slice(&word.to_le_bytes());
        reseal(bytes)
    };
    let records = store.len() as u64;
    assert_eq!(load(&with(first, 0)).known(), store.len(), "a reseal alone");
    for (what, bytes) in [
        ("an index past the store", with(first, records)),
        ("a huge index", with(first, u64::MAX)),
        ("a duplicate index", with(second, 0)),
        ("a huge count", with(count_at, u64::MAX)),
        ("a count past the store", with(count_at, records + 1)),
        ("a count short of the entries", with(count_at, records - 1)),
        ("an unknown tag", with(first + 8, 7)),
    ] {
        assert_eq!(load(&bytes).known(), 0, "{what}");
    }
    // Whatever a replay then finds, it prints the memo-less bytes.
    let memo = loaded(&sim, &store, &path, BUILD);
    assert_eq!(full(&through(&memo, 2), &sim, &store).0, reference);
    drop(store);
    remove(&[&path, &file]);
}

#[test]
fn a_full_outcomes_file_neither_masks_nor_moves_store_damage() {
    let sim = sim();
    let path = warmed("persist_damage", 0);
    let file = UnitMemo::file_beside(&path, &sim);
    let victim = {
        let store = MappedStore::open(&path, sim.config()).unwrap();
        let memo = Arc::new(UnitMemo::new(&sim, &store));
        full(&through(&memo, 2), &sim, &store);
        memo.save(&file, BUILD).unwrap();
        assert!(UnitMemo::load(&file, &sim, &store, BUILD).known() > 0);
        // Flip one payload byte of a mid-file record: its stored CRC,
        // and so the file's store key, stay as they were.
        let victim = store.len() / 2;
        let span = store.record_span(victim);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[(span.offset + 8 + span.payload_bytes / 2) as usize] ^= 0x40;
        drop(store);
        std::fs::write(&path, bytes).unwrap();
        victim as u64
    };
    let store = MappedStore::open(&path, sim.config()).unwrap();
    assert!(
        store.damage().is_none(),
        "the damage must be mid-chain only"
    );
    assert_eq!(UnitMemo::load(&file, &sim, &store, BUILD).known(), 0);

    let reference = grid(&Executor::new(2).unwrap(), &sim, &store);
    let reference = reference.unwrap();
    let memo = loaded(&sim, &store, &path, BUILD);
    let through_file = grid(&through(&memo, 2), &sim, &store).unwrap();
    assert_eq!((through_file.records, reference.records), (victim, victim));
    assert_eq!(
        format!("{:?}", through_file.damage),
        format!("{:?}", reference.damage)
    );
    assert_eq!(
        line(&through_file.report.report),
        line(&reference.report.report)
    );
    let stratified = spec(SamplerKind::Stratified, 1);
    let memo = loaded(&sim, &store, &path, BUILD);
    let err = try_sampled(&through(&memo, 1), &sim, &store, &stratified);
    assert!(matches!(err.map(drop), Err(ExecError::Ckpt(_))));
    drop(store);
    remove(&[&path, &file]);
}

#[test]
fn concurrent_writers_leave_a_file_that_loads_with_the_memoless_outcomes() {
    let sim = sim();
    let path = warmed("persist_race", 0);
    let file = UnitMemo::file_beside(&path, &sim);
    let store = MappedStore::open(&path, sim.config()).unwrap();
    let (reference, _) = full(&Executor::new(1).unwrap(), &sim, &store);
    let start = Barrier::new(2);
    for round in 0..4 {
        std::thread::scope(|scope| {
            for writer in 0..2 {
                let (sim, store, file, start) = (&sim, &store, &file, &start);
                scope.spawn(move || {
                    let memo = Arc::new(UnitMemo::new(sim, store));
                    let draw = spec(SamplerKind::Stratified, 10 * round + writer);
                    sampled(&through(&memo, 1), sim, store, &draw);
                    start.wait();
                    memo.save(file, BUILD).unwrap();
                });
            }
        });
        let memo = Arc::new(UnitMemo::load(&file, &sim, &store, BUILD));
        let known = memo.known() as u64;
        assert!(known > 0);
        // Every unit's counters are in the line: the booked outcomes are
        // the simulated ones.
        let (line, (units, memoized)) = full(&through(&memo, 2), &sim, &store);
        assert_eq!(line, reference, "round {round}");
        assert_eq!((units, memoized), (store.len() as u64, known));
    }
    drop(store);
    remove(&[&path, &file]);
}
