//! End-to-end guarantee of the execution subsystem: every route —
//! `SmartsSim::sample`, pipelined at any worker count, saved or not,
//! replayed from the store — produces a `SampleReport` bit-identical to
//! replaying the same checkpoints one after another on one thread, and
//! every warming route writes the same store bytes.

mod common;

use common::{assert_bit_identical, sequential_oracle};
use smarts::exec::{replay_store, sample, warm_store, Executor, PIPELINE_DEPTH};
use smarts::isa::BuiltinIsa;
use smarts::prelude::*;

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

#[test]
fn checkpoint_replay_is_bit_identical_across_worker_counts() {
    let sim = SmartsSim::new(MachineConfig::eight_way());
    let scale = 0.05;
    for name in ["branchy-1", "stream-2"] {
        let bench = find(name).expect("suite benchmark").scaled(scale);
        let p = params(&bench, 10);
        let sequential = sequential_oracle(&sim, bench.load(), &p);
        // One warming pass, kept; then many replays of it.
        let path = store_path(name);
        let one = Executor::new(1).expect("executor");
        warm_store::<BuiltinIsa>(&one, &sim, name, scale, &p, &path).expect("warming pass");
        for jobs in [1usize, 2, 8] {
            let executor = Executor::new(jobs).expect("executor");
            let replayed = replay_store::<BuiltinIsa>(&executor, &sim, &path).expect("replay");
            assert_eq!(replayed.report.mode, ParallelMode::Checkpoint);
            assert_eq!(replayed.report.jobs, jobs);
            assert_bit_identical(
                &replayed.report.report,
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
    for bench in smarts::workloads::suite() {
        let bench = bench.scaled(0.01);
        let p = small_params(&bench);
        let sequential = sequential_oracle(&sim, bench.load(), &p);
        let direct = sim.sample(&bench, &p).expect("sampling");
        assert_bit_identical(
            &direct,
            &sequential,
            &format!("{} sim.sample", bench.name()),
        );
        for jobs in [1usize, 2, 8] {
            let executor = Executor::new(jobs).expect("executor");
            let pipeline = executor
                .sample(&sim, &bench, &p)
                .expect("pipeline sampling");
            let what = format!("{} at {jobs} jobs", bench.name());
            assert_eq!(pipeline.mode, ParallelMode::Pipeline, "{what}: mode");
            assert_bit_identical(&pipeline.report, &sequential, &what);
            // One worker replays on the warming thread: no channel.
            let Some(stats) = pipeline.pipeline else {
                assert_eq!(jobs, 1, "{what}: pipeline stats");
                continue;
            };
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

/// Deterministic splitmix64, duplicated locally like the other property
/// suites (no external RNG dependency).
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn pick(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }
}

#[test]
fn warm_only_and_saving_runs_write_the_bytes_a_replay_reads_back() {
    let sim = SmartsSim::new(MachineConfig::eight_way());
    let suite = smarts::workloads::suite();
    let mut rng = SplitMix64(0x5157_3A9D);
    for round in 0..6 {
        let name = suite[rng.pick(suite.len() as u64) as usize]
            .name()
            .to_string();
        // The one scale: what warms the program is what the header says.
        let scale = 0.01 + 0.002 * rng.pick(5) as f64;
        let len = find(&name)
            .expect("suite benchmark")
            .scaled(scale)
            .approx_len();
        let unit = 250 * (1 + rng.pick(4));
        let warming = 250 * (1 + rng.pick(8));
        let n = 3 + rng.pick(6);
        let offset = rng.pick(2);
        let Ok(p) =
            SamplingParams::for_sample_size(len, unit, warming, Warming::Functional, n, offset)
        else {
            continue;
        };
        let jobs = 1 + rng.pick(2) as usize;
        let what =
            format!("round {round}: {name} U={unit} W={warming} n={n} j={offset} jobs={jobs}");

        let saved_path = store_path(&format!("prop-{round}-saved"));
        let executor = Executor::new(jobs).expect("executor");
        let saved = sample::<BuiltinIsa>(&executor, &sim, &name, scale, &p, Some(&saved_path));
        let Ok((live, write)) = saved else {
            // Degenerate design (e.g. stream ends before the first
            // unit): nothing to compare this round.
            std::fs::remove_file(&saved_path).ok();
            continue;
        };
        let saved_bytes = std::fs::read(&saved_path).expect("saved store bytes");

        // No consumers: a sampled job's cold path warms without
        // replaying, into the same bytes.
        let warm_only = store_path(&format!("prop-{round}-warm-only"));
        let warm_write = warm_store::<BuiltinIsa>(&executor, &sim, &name, scale, &p, &warm_only)
            .unwrap_or_else(|e| panic!("{what}: warm-only pass failed: {e}"));
        assert_eq!(
            warm_write.records,
            write.expect("write summary").records,
            "{what}: records"
        );
        assert!(
            std::fs::read(&warm_only).expect("warm-only store bytes") == saved_bytes,
            "{what}: warm-only store differs from the saved store"
        );
        std::fs::remove_file(&warm_only).ok();

        // The store replays to the live report: its header names the
        // program it was warmed from.
        let replayed = replay_store::<BuiltinIsa>(&executor, &sim, &saved_path)
            .unwrap_or_else(|e| panic!("{what}: replay failed: {e}"));
        assert_eq!(replayed.meta.scale, scale, "{what}: recorded scale");
        assert_bit_identical(&replayed.report.report, &live.report, &what);
        std::fs::remove_file(&saved_path).ok();
    }
}
