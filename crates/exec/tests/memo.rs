//! The unit-outcome memo ([`UnitMemo`]): replaying through it changes
//! which units are simulated, never a byte of what is reported; it is
//! valid for one simulator and one store, and says so with a typed
//! error; and it neither masks nor moves store damage.

#[path = "../../../tests/common/mod.rs"]
mod common;

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::{Arc, Barrier};

use common::assert_bit_identical;
use smarts_ckpt::MappedStore;
use smarts_core::{SampleReport, SamplerKind, SamplerSpec, SamplingParams, SmartsSim, Warming};
use smarts_exec::{
    replay_store_mapped, replay_store_sampled, warm_store, ExecError, Executor, ParallelReport,
    SampledReplay, UnitMemo,
};
use smarts_isa::BuiltinIsa;
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
    let len = BuiltinIsa::approx_len(BENCH, SCALE).unwrap();
    let params =
        SamplingParams::for_sample_size(len, 100, 200, Warming::Functional, UNITS, offset).unwrap();
    warm_store::<BuiltinIsa>(
        &Executor::new(1).unwrap(),
        &sim(),
        BENCH,
        SCALE,
        &params,
        &path,
    )
    .unwrap();
    path
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

fn sampled(
    executor: &Executor,
    sim: &SmartsSim,
    store: &MappedStore,
    spec: &SamplerSpec,
) -> SampledReplay {
    replay_store_sampled::<BuiltinIsa>(executor, sim, store, spec).unwrap()
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
    let reference = replay_store_mapped::<BuiltinIsa>(&plain, &sim, &store).unwrap();
    for jobs in [1, 2] {
        let executor = Executor::new(jobs).unwrap().with_memo(Arc::clone(&memo));
        let through = replay_store_mapped::<BuiltinIsa>(&executor, &sim, &store).unwrap();
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
    let first = replay_store_mapped::<BuiltinIsa>(&through(&memo), &sim, &store).unwrap();

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
    refused(replay_store_mapped::<BuiltinIsa>(&through(&memo), &narrow, &store_narrow).map(drop));
    let stratified = spec(SamplerKind::Stratified, 1);
    refused(
        replay_store_sampled::<BuiltinIsa>(&through(&memo), &narrow, &store_narrow, &stratified)
            .map(drop),
    );
    // Its own memo gives that machine its own, different, bytes — the
    // ones it gets without any memo.
    let own = Arc::new(UnitMemo::new(&narrow, &store_narrow));
    let second = replay_store_mapped::<BuiltinIsa>(&through(&own), &narrow, &store_narrow).unwrap();
    let plain = Executor::new(1).unwrap();
    let memoless = replay_store_mapped::<BuiltinIsa>(&plain, &narrow, &store_narrow).unwrap();
    assert_eq!(line(&second.report.report), line(&memoless.report.report));
    assert_ne!(line(&second.report.report), line(&first.report.report));

    // Another store (same simulator, same record count) is refused too.
    let other_path = warmed("key_other", 1);
    let other = MappedStore::open(&other_path, sim.config()).unwrap();
    assert_eq!(other.len(), store.len());
    refused(replay_store_mapped::<BuiltinIsa>(&through(&memo), &sim, &other).map(drop));
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
    let reference = replay_store_mapped::<BuiltinIsa>(&plain, &sim, &store).unwrap();
    assert_eq!(reference.records, victim);
    let damage = format!("{:?}", reference.damage.as_ref().expect("typed damage"));

    let memo = Arc::new(UnitMemo::new(&sim, &store));
    for (pass, memoized) in [(1, 0), (2, victim)] {
        let executor = Executor::new(2).unwrap().with_memo(Arc::clone(&memo));
        let through = replay_store_mapped::<BuiltinIsa>(&executor, &sim, &store).unwrap();
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
    // A sampler needs its population intact: still a hard error, even
    // though every record below the damage is memoized by now.
    let executor = Executor::new(1).unwrap().with_memo(Arc::clone(&memo));
    let all = SamplerSpec::systematic();
    let err = replay_store_sampled::<BuiltinIsa>(&executor, &sim, &store, &all).unwrap_err();
    assert!(matches!(err, ExecError::Ckpt(_)), "got {err:?}");
    drop(store);
    std::fs::remove_file(&path).ok();
}
