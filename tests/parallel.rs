//! End-to-end guarantee of the execution subsystem: every route
//! through checkpoints — pipelined at any worker count and depth, warmed
//! serially or in stitched shards, saved or not, replayed from the store
//! — produces a `SampleReport` bit-identical to replaying the same
//! checkpoints one after another on one thread, and every warming route
//! writes the same store bytes.

mod common;

use common::{assert_bit_identical, sequential_oracle};
use smarts::exec::{replay_store, sample, warm_store, Executor};
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
        warm_store::<BuiltinIsa>(&one, &sim, name, scale, bench.approx_len(), &p, &path)
            .expect("warming pass");
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
        for jobs in [1usize, 2, 8] {
            for depth in [1usize, 4] {
                let executor = Executor::new(jobs)
                    .expect("executor")
                    .with_pipeline_depth(depth);
                let pipeline = executor
                    .sample(&sim, &bench, &p)
                    .expect("pipeline sampling");
                let what = format!("{} at {jobs} jobs, depth {depth}", bench.name());
                assert_eq!(pipeline.mode, ParallelMode::Pipeline, "{what}: mode");
                assert_bit_identical(&pipeline.report, &sequential, &what);
                let stats = pipeline.pipeline.expect("pipeline stats");
                assert_eq!(stats.depth, depth, "{what}: configured depth");
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
                    stats.peak_resident_checkpoints <= depth + jobs + 1,
                    "{what}: residency peak {} exceeds depth + jobs + 1",
                    stats.peak_resident_checkpoints
                );
            }
        }
    }
}

/// Sanity-checks sharded-warm accounting against the warm-geometry
/// bounds: one fixpoint entry per shard, shard 0 needs no stitching, and
/// convergence K can never exceed the shard's own unit count.
fn assert_shard_stats(stats: &smarts::exec::ShardWarmStats, what: &str) {
    assert_eq!(stats.fixpoints.len(), stats.warm_jobs, "{what}: fixpoints");
    assert_eq!(
        stats.shard_units.len(),
        stats.warm_jobs,
        "{what}: shard_units"
    );
    assert_eq!(stats.fixpoints.first(), Some(&0), "{what}: shard 0 stitch");
    for (s, (&k, &units)) in stats
        .fixpoints
        .iter()
        .zip(&stats.shard_units)
        .enumerate()
        .skip(1)
    {
        assert!(
            k <= units,
            "{what}: shard {s} re-warmed {k} of {units} units"
        );
    }
}

#[test]
fn sharded_warm_is_bit_identical_across_the_suite() {
    // The longest test of the file by far (stitching compares whole warm
    // states, slowly in a debug build): half the suite per thread.
    let suite = smarts::workloads::suite();
    std::thread::scope(|scope| {
        for half in suite.chunks(suite.len().div_ceil(2)) {
            scope.spawn(move || half.iter().for_each(sharded_warm_is_bit_identical_on));
        }
    });
}

fn sharded_warm_is_bit_identical_on(bench: &Benchmark) {
    let sim = SmartsSim::new(MachineConfig::eight_way());
    let scale = 0.01;
    let name = bench.name().to_string();
    let bench = bench.scaled(scale);
    let p = small_params(&bench);
    let len = bench.approx_len();
    let sequential = sequential_oracle(&sim, bench.load(), &p);
    let save = |executor: &Executor, tag: &str| {
        let path = store_path(&format!("{name}-{tag}"));
        let (report, write) =
            sample::<BuiltinIsa>(executor, &sim, &name, scale, len, &p, Some(&path))
                .unwrap_or_else(|e| panic!("{name} {tag}: save failed: {e}"));
        let bytes = std::fs::read(&path).expect("store bytes");
        std::fs::remove_file(&path).ok();
        (report, write.expect("write summary"), bytes, path)
    };

    // The single-producer reference store.
    let (serial, serial_write, serial_bytes, _) = save(&Executor::new(1).unwrap(), "serial");
    assert!(serial.shard.is_none());
    assert_bit_identical(&serial.report, &sequential, &format!("{name} serial save"));

    // No sink: the same function as the saving runs below, so one
    // configuration per benchmark covers the wiring.
    let what = format!("{name} warm-jobs 2, jobs 8, no sink");
    let outcome = Executor::new(8)
        .unwrap()
        .with_warm_jobs(2)
        .sample(&sim, &bench, &p)
        .expect("sharded-warm sampling");
    assert_eq!(outcome.mode, ParallelMode::ShardedWarm, "{what}: mode");
    assert_bit_identical(&outcome.report, &sequential, &what);
    assert_shard_stats(&outcome.shard.expect("shard stats"), &what);

    for warm_jobs in [2usize, 4, 8] {
        // The spliced store must byte-equal the single-producer one.
        let what = format!("{name} store at warm-jobs {warm_jobs}");
        let executor = Executor::new(2).unwrap().with_warm_jobs(warm_jobs);
        let (report, write, bytes, path) = save(&executor, &format!("w{warm_jobs}"));
        assert_eq!(write.records, serial_write.records, "{what}: records");
        assert!(
            bytes == serial_bytes,
            "{what}: spliced store differs from the serial store \
             ({} vs {} bytes)",
            bytes.len(),
            serial_bytes.len()
        );
        assert_bit_identical(&report.report, &sequential, &what);
        let stats = report.shard.expect("shard stats");
        assert!(stats.warm_jobs <= warm_jobs, "{what}: clamped shards");
        assert_shard_stats(&stats, &what);
        // No stray segment files left behind.
        for s in 0..warm_jobs {
            let mut seg = path.as_os_str().to_os_string();
            seg.push(format!(".seg{s}"));
            assert!(
                !std::path::Path::new(&seg).exists(),
                "{what}: segment {s} not cleaned up"
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
fn sharded_warm_property_convergence_and_splice() {
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
        let warm_jobs = 2 + rng.pick(5) as usize;
        let what =
            format!("round {round}: {name} U={unit} W={warming} n={n} j={offset} wj={warm_jobs}");

        let serial_path = store_path(&format!("prop-{round}-serial"));
        let one = Executor::new(1).expect("executor");
        let serial = sample::<BuiltinIsa>(&one, &sim, &name, scale, len, &p, Some(&serial_path));
        let Ok((_, serial_write)) = serial else {
            // Degenerate design (e.g. stream ends before the first
            // unit): nothing to compare this round.
            std::fs::remove_file(&serial_path).ok();
            continue;
        };
        let serial_bytes = std::fs::read(&serial_path).expect("serial store bytes");
        std::fs::remove_file(&serial_path).ok();

        let sharded_path = store_path(&format!("prop-{round}-sharded"));
        let executor = Executor::new(2)
            .expect("executor")
            .with_warm_jobs(warm_jobs);
        let (live, write) =
            sample::<BuiltinIsa>(&executor, &sim, &name, scale, len, &p, Some(&sharded_path))
                .unwrap_or_else(|e| panic!("{what}: sharded save failed: {e}"));
        let sharded_bytes = std::fs::read(&sharded_path).expect("sharded store bytes");

        assert_eq!(
            write.expect("write summary").records,
            serial_write.expect("write summary").records,
            "{what}: records"
        );
        assert!(
            sharded_bytes == serial_bytes,
            "{what}: spliced store differs from the serial store"
        );
        let live_stats = live.shard.as_ref().expect("shard stats");
        assert_shard_stats(live_stats, &what);

        // No consumers: a sampled job's cold path shards its warming
        // pass too, into the same bytes.
        let warm_only = store_path(&format!("prop-{round}-warm-only"));
        let (_, stats) =
            warm_store::<BuiltinIsa>(&executor, &sim, &name, scale, len, &p, &warm_only)
                .unwrap_or_else(|e| panic!("{what}: warm-only pass failed: {e}"));
        let stats = stats.expect("shard stats");
        assert!(
            stats.warm_jobs > 1,
            "{what}: warm-only pass warmed serially"
        );
        assert_eq!(stats.fixpoints, live_stats.fixpoints, "{what}: fixpoints");
        assert_eq!(stats.shard_units, live_stats.shard_units, "{what}: units");
        assert!(
            std::fs::read(&warm_only).expect("warm-only store bytes") == serial_bytes,
            "{what}: warm-only store differs from the serial store"
        );
        std::fs::remove_file(&warm_only).ok();

        // The store replays to the live report: its header names the
        // program it was warmed from.
        let replayed = replay_store::<BuiltinIsa>(&executor, &sim, &sharded_path)
            .unwrap_or_else(|e| panic!("{what}: replay failed: {e}"));
        assert_eq!(replayed.meta.scale, scale, "{what}: recorded scale");
        assert_bit_identical(&replayed.report.report, &live.report, &what);
        std::fs::remove_file(&sharded_path).ok();
    }
}
