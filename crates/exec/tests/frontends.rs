//! End-to-end frontend coverage for the persisted-store pipeline: the
//! RISC and trace frontends must run warm → store → sampled replay
//! with the same bit-identity guarantees the built-in frontend has, and
//! a store must replay under the frontend its header names without the
//! caller naming one.

#[path = "../../../tests/common/mod.rs"]
mod common;

use std::path::Path;

use common::{assert_bit_identical, eager_oracle, meta};
use smarts_ckpt::{IsaId, MappedStore};
use smarts_core::{SamplerKind, SamplerSpec, SamplingParams, SmartsSim, Warming};
use smarts_exec::{approx_len, replay, sample, Estimate, ExecError, Executor, Run};
use smarts_isa::{write_trace, BuiltinIsa, Cpu, RiscIsa};
use smarts_workloads::{risc_suite, Frontend};

fn sim() -> SmartsSim {
    SmartsSim::new(smarts_uarch::MachineConfig::eight_way())
}

fn design(approx_len: u64, n: u64) -> SamplingParams {
    SamplingParams::for_sample_size(approx_len, 1000, 2000, Warming::Functional, n, 1).unwrap()
}

fn store_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "smarts_frontends_{tag}_{}.ckpt",
        std::process::id()
    ))
}

/// Replays the store at `path` under the systematic spec, through the
/// frontend its header names.
fn replay_all(jobs: usize, path: &Path) -> Result<Run, ExecError> {
    let sim = sim();
    let store = MappedStore::open(path, sim.config())?;
    let systematic = SamplerSpec::systematic();
    replay(&Executor::new(jobs)?, &sim, &store, &systematic)
}

/// The CPI mean bits a run reports.
fn cpi_bits(run: &Run) -> u64 {
    run.estimate.report().report.cpi().mean().to_bits()
}

#[test]
fn risc_pipeline_round_trips_bit_identically_at_any_width() {
    let sim = sim();
    let bench = &risc_suite()[0];
    let name = bench.name().to_string();
    let scale = 0.05;
    let len = approx_len(IsaId::Risc, &name, scale).unwrap();
    let meta = meta(IsaId::Risc, &name, scale, &design(len, 10));
    let systematic = SamplerSpec::systematic();
    let save = |executor: &Executor, path: &Path| {
        sample(executor, &sim, &meta, &systematic, Some(path)).unwrap()
    };

    // Reference: serial (jobs=1) warm-and-save through the RISC frontend.
    let ref_path = store_path("risc_ref");
    let reference = save(&Executor::new(1).unwrap(), &ref_path);
    let ref_bytes = std::fs::read(&ref_path).unwrap();
    let (_, meta) = smarts_ckpt::read_store_meta(&ref_path).unwrap();
    assert_eq!(
        meta.isa,
        IsaId::Risc,
        "store header must record the frontend"
    );

    // Warm-and-save and replay are bit-identical at jobs 2 and 8.
    for jobs in [2usize, 8] {
        let path = store_path(&format!("risc_j{jobs}"));
        let saved = save(&Executor::new(jobs).unwrap(), &path);
        assert_eq!(
            cpi_bits(&saved),
            cpi_bits(&reference),
            "risc live report differs at jobs={jobs}"
        );
        assert_eq!(
            std::fs::read(&path).unwrap(),
            ref_bytes,
            "risc store bytes differ at jobs={jobs}"
        );
        std::fs::remove_file(&path).ok();
    }

    // Replay from the store matches the live run and the eager
    // single-threaded oracle at every worker count.
    let eager = eager_oracle::<RiscIsa>(&sim, &ref_path);
    for jobs in [1usize, 2, 8] {
        let replay = replay_all(jobs, &ref_path).unwrap();
        assert_eq!(
            cpi_bits(&replay),
            cpi_bits(&reference),
            "risc store replay differs at jobs={jobs}"
        );
        assert!(replay.damage.is_none());
        assert_bit_identical(
            &replay.estimate.report().report,
            &eager,
            &format!("lazy vs eager risc replay at jobs={jobs}"),
        );
    }

    // A sampler's replay of the same open store selects a subset of it,
    // through the same entry point.
    let store = MappedStore::open(&ref_path, sim.config()).unwrap();
    let stratified = SamplerSpec {
        kind: SamplerKind::Stratified,
        pilot: 4,
        ..systematic
    };
    for jobs in [1usize, 2, 8] {
        let executor = Executor::new(jobs).unwrap();
        let run = replay(&executor, &sim, &store, &stratified).unwrap();
        let Estimate::Sampled(sampled) = run.estimate else {
            panic!("a stratified spec replays a selection");
        };
        assert_eq!(sampled.meta.isa, IsaId::Risc);
        assert!(sampled.measured.len() <= store.len());
        assert_eq!(sampled.report.report.sample_size(), sampled.estimate.n);
    }

    // Nothing named the frontend: the header's risc frontend replayed the
    // store to the writing run's report, bit for bit.
    assert_bit_identical(
        &replay_all(2, &ref_path).unwrap().estimate.report().report,
        &reference.estimate.report().report,
        "risc store replay vs the writing run",
    );
    drop(store);
    std::fs::remove_file(&ref_path).ok();
}

#[test]
fn trace_import_runs_the_full_pipeline() {
    let sim = sim();

    // Record a trace of a small built-in run, then treat the file as the
    // workload for the trace frontend.
    let loaded = BuiltinIsa::resolve("loopy-1", 0.02).unwrap();
    let mut cpu = Cpu::new();
    let mut mem = loaded.memory.clone();
    let mut records = Vec::new();
    while !cpu.halted() {
        records.push(cpu.step(&loaded.program, &mut mem).unwrap());
    }
    let trace_path = std::env::temp_dir().join(format!(
        "smarts_frontends_trace_{}.smartstr",
        std::process::id()
    ));
    write_trace(&trace_path, "loopy-1", &records).unwrap();
    let workload = trace_path.to_str().unwrap();

    let len = approx_len(IsaId::Trace, workload, 1.0).unwrap();
    let meta = meta(IsaId::Trace, workload, 1.0, &design(len, 8));
    let ref_path = store_path("trace_ref");
    let one = Executor::new(1).unwrap();
    let systematic = SamplerSpec::systematic();
    let reference = sample(&one, &sim, &meta, &systematic, Some(&ref_path)).unwrap();
    let (_, meta) = smarts_ckpt::read_store_meta(&ref_path).unwrap();
    assert_eq!(meta.isa, IsaId::Trace);
    assert_eq!(
        meta.benchmark, workload,
        "trace stores record the file path"
    );

    for jobs in [2usize, 8] {
        let replay = replay_all(jobs, &ref_path).unwrap();
        assert_eq!(
            cpi_bits(&replay),
            cpi_bits(&reference),
            "trace store replay differs at jobs={jobs}"
        );
        assert!(replay.damage.is_none());
    }

    // Nothing named the frontend: the header's trace frontend replayed
    // the store to the writing run's report, bit for bit.
    assert_bit_identical(
        &replay_all(1, &ref_path).unwrap().estimate.report().report,
        &reference.estimate.report().report,
        "trace store replay vs the writing run",
    );

    // Deleting the trace breaks replay resolution with the frontend's own
    // message — the store alone is not enough for a trace workload.
    std::fs::remove_file(&trace_path).unwrap();
    let err = replay_all(1, &ref_path).unwrap_err();
    assert!(
        matches!(err, ExecError::Frontend(_)),
        "expected ExecError::Frontend, got {err:?}"
    );
    std::fs::remove_file(&ref_path).ok();
}
