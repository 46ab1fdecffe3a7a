//! End-to-end frontend coverage for the persisted-store pipeline: the
//! RISC and trace frontends must run warm → store → sampled replay
//! with the same bit-identity guarantees the built-in frontend has, and
//! a store must refuse replay under the wrong frontend with a typed
//! error.

#[path = "../../../tests/common/mod.rs"]
mod common;

use common::{assert_bit_identical, eager_oracle};
use smarts_ckpt::{CkptError, IsaId, MappedStore};
use smarts_core::{SamplerSpec, SamplingParams, SmartsSim, Warming};
use smarts_exec::{
    replay_store, replay_store_mapped, replay_store_sampled, sample, ExecError, Executor,
};
use smarts_isa::{write_trace, BuiltinIsa, Cpu, RiscIsa, TraceIsa};
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

#[test]
fn risc_pipeline_round_trips_bit_identically_at_any_width() {
    let sim = sim();
    let bench = &risc_suite()[0];
    let name = bench.name().to_string();
    let scale = 0.05;
    let len = RiscIsa::approx_len(&name, scale).unwrap();
    let params = design(len, 10);
    let save = |executor: &Executor, path: &std::path::Path| {
        sample::<RiscIsa>(executor, &sim, &name, scale, &params, Some(path))
            .unwrap()
            .0
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
            saved.report.cpi().mean().to_bits(),
            reference.report.cpi().mean().to_bits(),
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
        let executor = Executor::new(jobs).unwrap();
        let replay = replay_store::<RiscIsa>(&executor, &sim, &ref_path).unwrap();
        assert_eq!(
            replay.report.report.cpi().mean().to_bits(),
            reference.report.cpi().mean().to_bits(),
            "risc store replay differs at jobs={jobs}"
        );
        assert_eq!(replay.meta.isa, IsaId::Risc);
        assert!(replay.damage.is_none());
        assert_bit_identical(
            &replay.report.report,
            &eager,
            &format!("lazy vs eager risc replay at jobs={jobs}"),
        );
    }

    // The systematic sampler over the store reproduces the full-store
    // unit set, served through the shared-mapping path.
    let store = MappedStore::open(&ref_path, sim.config()).unwrap();
    for jobs in [1usize, 2, 8] {
        let executor = Executor::new(jobs).unwrap();
        let sampled =
            replay_store_sampled::<RiscIsa>(&executor, &sim, &store, &SamplerSpec::systematic())
                .unwrap();
        let full = replay_store_mapped::<RiscIsa>(&executor, &sim, &store).unwrap();
        assert_eq!(
            sampled.report.report.cpi().mean().to_bits(),
            full.report.report.cpi().mean().to_bits(),
            "sampled risc replay differs from full replay at jobs={jobs}"
        );
        assert_eq!(sampled.measured.len() as u64, full.records);
    }

    // Replaying a RISC store through the built-in frontend is refused
    // before any record is decoded.
    let err = replay_store::<BuiltinIsa>(&Executor::new(2).unwrap(), &sim, &ref_path).unwrap_err();
    match err {
        ExecError::Ckpt(CkptError::IsaMismatch { expected, found }) => {
            assert_eq!(expected, IsaId::Builtin);
            assert_eq!(found, IsaId::Risc);
        }
        other => panic!("expected IsaMismatch, got {other:?}"),
    }
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

    let len = TraceIsa::approx_len(workload, 1.0).unwrap();
    let params = design(len, 8);
    let ref_path = store_path("trace_ref");
    let one = Executor::new(1).unwrap();
    let (reference, _) =
        sample::<TraceIsa>(&one, &sim, workload, 1.0, &params, Some(&ref_path)).unwrap();
    let (_, meta) = smarts_ckpt::read_store_meta(&ref_path).unwrap();
    assert_eq!(meta.isa, IsaId::Trace);
    assert_eq!(
        meta.benchmark, workload,
        "trace stores record the file path"
    );

    for jobs in [2usize, 8] {
        let replay =
            replay_store::<TraceIsa>(&Executor::new(jobs).unwrap(), &sim, &ref_path).unwrap();
        assert_eq!(
            replay.report.report.cpi().mean().to_bits(),
            reference.report.cpi().mean().to_bits(),
            "trace store replay differs at jobs={jobs}"
        );
        assert!(replay.damage.is_none());
    }

    // Wrong-frontend replay of a trace store is refused with the typed
    // mismatch, naming both sides.
    let err = replay_store::<RiscIsa>(&Executor::new(1).unwrap(), &sim, &ref_path).unwrap_err();
    match err {
        ExecError::Ckpt(CkptError::IsaMismatch { expected, found }) => {
            assert_eq!(expected, IsaId::Risc);
            assert_eq!(found, IsaId::Trace);
        }
        other => panic!("expected IsaMismatch, got {other:?}"),
    }

    // Deleting the trace breaks replay resolution with the frontend's own
    // message — the store alone is not enough for a trace workload.
    std::fs::remove_file(&trace_path).unwrap();
    let err = replay_store::<TraceIsa>(&Executor::new(1).unwrap(), &sim, &ref_path).unwrap_err();
    assert!(
        matches!(err, ExecError::Frontend(_)),
        "expected ExecError::Frontend, got {err:?}"
    );
    std::fs::remove_file(&ref_path).ok();
}
