//! End-to-end guarantee of the execution subsystem: every route —
//! `SmartsSim::sample`, pipelined at any worker count, saved or not,
//! replayed from the store — produces a `SampleReport` bit-identical to
//! replaying the same checkpoints one after another on one thread, and
//! every warming route writes the same store bytes.

mod common;

use std::path::Path;

use common::{assert_bit_identical, meta, sequential_oracle};
use smarts::ckpt::MappedStore;
use smarts::core::{SamplerKind, SamplerSpec};
use smarts::exec::{replay, sample, ExecError, Executor, Run, PIPELINE_DEPTH};
use smarts::isa::IsaId;
use smarts::prelude::*;
use smarts::workloads::SplitMix64;

fn params(bench: &Benchmark, n: u64) -> SamplingParams {
    SamplingParams::for_sample_size(bench.approx_len(), 1000, 2000, Warming::Functional, n, 0)
        .expect("valid sampling parameters")
}

/// The small design the suite-wide matrices run: 18 benchmarks times
/// several configurations each.
fn small_params(bench: &Benchmark) -> SamplingParams {
    SamplingParams::for_sample_size(bench.approx_len(), 500, 500, Warming::Functional, 4, 0)
        .expect("valid sampling parameters")
}

fn store_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("smarts-parallel-{tag}-{}.ckpt", std::process::id()))
}

/// A run of suite benchmark `name` at `scale` on `jobs` workers under
/// `spec`, keeping its checkpoints at `save`.
fn run(
    sim: &SmartsSim,
    jobs: usize,
    (name, scale): (&str, f64),
    p: &SamplingParams,
    spec: &SamplerSpec,
    save: Option<&Path>,
) -> Result<Run, ExecError> {
    let meta = meta(IsaId::Builtin, name, scale, p);
    sample(&Executor::new(jobs)?, sim, &meta, spec, save)
}

/// The systematic replay of every record of the store at `path`.
fn replay_all(sim: &SmartsSim, jobs: usize, path: &Path) -> Result<Run, ExecError> {
    let store = MappedStore::open(path, sim.config())?;
    replay(
        &Executor::new(jobs)?,
        sim,
        &store,
        &SamplerSpec::systematic(),
    )
}

#[test]
fn checkpoint_replay_is_bit_identical_across_worker_counts() {
    let sim = SmartsSim::new(MachineConfig::eight_way());
    let scale = 0.05;
    let systematic = SamplerSpec::systematic();
    for name in ["branchy-1", "stream-2"] {
        let bench = find(name).expect("suite benchmark").scaled(scale);
        let p = params(&bench, 10);
        let sequential = sequential_oracle(&sim, bench.load(), &p);
        // One warming pass, kept; then many replays of it.
        let path = store_path(name);
        run(&sim, 1, (name, scale), &p, &systematic, Some(&path)).expect("warming pass");
        for jobs in [1usize, 2, 8] {
            let replayed = replay_all(&sim, jobs, &path).expect("replay");
            let replayed = replayed.estimate.report();
            assert_eq!(replayed.mode, ParallelMode::Checkpoint);
            assert_eq!(replayed.jobs, jobs);
            assert_bit_identical(
                &replayed.report,
                &sequential,
                &format!("{name} at {jobs} jobs"),
            );
        }
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn pipeline_mode_is_bit_identical_across_the_suite() {
    let sim = SmartsSim::new(MachineConfig::eight_way());
    let systematic = SamplerSpec::systematic();
    for bench in smarts::workloads::suite() {
        let (name, scale) = (bench.name().to_string(), 0.01);
        let bench = bench.scaled(scale);
        let p = small_params(&bench);
        let sequential = sequential_oracle(&sim, bench.load(), &p);
        let direct = sim.sample(&bench, &p).expect("sampling");
        assert_bit_identical(&direct, &sequential, &format!("{name} sim.sample"));
        for jobs in [1usize, 2, 8] {
            let live = run(&sim, jobs, (&name, scale), &p, &systematic, None);
            let live = live.expect("pipeline sampling");
            let pipeline = live.estimate.report();
            let what = format!("{name} at {jobs} jobs");
            assert_eq!(pipeline.mode, ParallelMode::Pipeline, "{what}: mode");
            assert_bit_identical(&pipeline.report, &sequential, &what);
            // One worker is one consumer behind the producer, as any.
            let stats = pipeline
                .pipeline
                .unwrap_or_else(|| panic!("{what}: pipeline stats"));
            assert_eq!(stats.depth, PIPELINE_DEPTH, "{what}: reported depth");
            // Every measured unit was streamed; the producer may have
            // emitted one extra checkpoint whose unit the stream's
            // halt cut short (replayed as partial, excluded from the
            // sample by the deterministic merge).
            assert!(
                stats.emitted >= sequential.sample_size()
                    && stats.emitted <= sequential.sample_size() + 1,
                "{what}: emitted {} vs sample size {}",
                stats.emitted,
                sequential.sample_size()
            );
            assert!(
                stats.peak_resident_checkpoints <= PIPELINE_DEPTH + jobs + 1,
                "{what}: residency peak {} exceeds depth + jobs + 1",
                stats.peak_resident_checkpoints
            );
        }
    }
}

#[test]
fn warm_only_and_saving_runs_write_the_bytes_a_replay_reads_back() {
    let sim = SmartsSim::new(MachineConfig::eight_way());
    let suite = smarts::workloads::suite();
    let systematic = SamplerSpec::systematic();
    let mut rng = SplitMix64::new(0x5157_3A9D);
    for round in 0..6 {
        let name = suite[rng.below(suite.len() as u64) as usize]
            .name()
            .to_string();
        // The one scale: what warms the program is what the header says.
        let scale = 0.01 + 0.002 * rng.below(5) as f64;
        let len = find(&name)
            .expect("suite benchmark")
            .scaled(scale)
            .approx_len();
        let unit = 250 * (1 + rng.below(4));
        let warming = 250 * (1 + rng.below(8));
        let n = 3 + rng.below(6);
        let offset = rng.below(2);
        let Ok(p) =
            SamplingParams::for_sample_size(len, unit, warming, Warming::Functional, n, offset)
        else {
            continue;
        };
        let jobs = 1 + rng.below(2) as usize;
        let what =
            format!("round {round}: {name} U={unit} W={warming} n={n} j={offset} jobs={jobs}");

        let saved_path = store_path(&format!("prop-{round}-saved"));
        let saved = run(
            &sim,
            jobs,
            (&name, scale),
            &p,
            &systematic,
            Some(&saved_path),
        );
        let Ok(live) = saved else {
            // Degenerate design (e.g. stream ends before the first
            // unit): nothing to compare this round.
            std::fs::remove_file(&saved_path).ok();
            continue;
        };
        let saved_bytes = std::fs::read(&saved_path).expect("saved store bytes");

        // No consumers: a sampler's run warms without replaying, into
        // the same bytes, and then replays its selection from them.
        let warm_only = store_path(&format!("prop-{round}-warm-only"));
        let stratified = SamplerSpec {
            kind: SamplerKind::Stratified,
            seed: round,
            ..systematic
        };
        let sampled = run(
            &sim,
            jobs,
            (&name, scale),
            &p,
            &stratified,
            Some(&warm_only),
        )
        .unwrap_or_else(|e| panic!("{what}: warm-only pass failed: {e}"));
        assert_eq!(
            sampled.write.expect("write summary").records,
            live.write.as_ref().expect("write summary").records,
            "{what}: records"
        );
        assert!(
            std::fs::read(&warm_only).expect("warm-only store bytes") == saved_bytes,
            "{what}: warm-only store differs from the saved store"
        );
        std::fs::remove_file(&warm_only).ok();

        // The store replays to the live report: its header names the
        // program it was warmed from.
        let header = MappedStore::open(&saved_path, sim.config()).expect("store opens");
        assert_eq!(header.meta().scale, scale, "{what}: recorded scale");
        let replayed = replay_all(&sim, jobs, &saved_path)
            .unwrap_or_else(|e| panic!("{what}: replay failed: {e}"));
        assert_bit_identical(
            &replayed.estimate.report().report,
            &live.estimate.report().report,
            &what,
        );
        drop(header);
        std::fs::remove_file(&saved_path).ok();
    }
}
