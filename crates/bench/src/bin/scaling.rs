//! Worker-count scaling of the parallel execution subsystem, and the
//! ablation that ruled out its one biased alternative.
//!
//! For 1, 2, 4, and `nproc` workers this reports:
//!
//! * **pipeline** — the shipped route: the warming producer overlaps the
//!   replay consumers, so there is no sequential build pass, at most
//!   `depth + jobs + 1` checkpoints are ever resident, and the merged
//!   report is bit-identical at every worker count (asserted here).
//! * **leapfrog** — an ablation, implemented in this binary only: the
//!   stream splits into one contiguous shard per worker with no warming
//!   pass at all; each worker plain-fast-forwards to a run-in before its
//!   shard and then samples it like the in-order driver. Units near a
//!   shard start see warming history truncated to the run-in — the
//!   residual cold-start bias the paper's Section 4 predicts, reported
//!   here against the in-order run — and worker `p` still executes the
//!   stream prefix functionally, so the critical path is bounded below
//!   by fast-forwarding `(P−1)/P` of the stream. The library does not
//!   offer it: it measures slower than the in-order driver *and* biased
//!   (EXPERIMENTS.md § Parallel execution scaling).
//!
//! Results are written to `results/bench_scaling.json`.

use smarts_bench::{banner, pct, HarnessArgs};
use smarts_core::{
    FunctionalEngine, ModeInstructions, SampleReport, SamplingParams, SmartsSim, UnitSample,
    Warming,
};
use smarts_exec::Executor;
use smarts_uarch::{MachineConfig, Pipeline, WarmState};
use smarts_workloads::Benchmark;
use std::io::Write as _;
use std::time::{Duration, Instant};

fn fmt(d: Duration) -> String {
    format!("{:.2?}", d)
}

fn mib(bytes: u64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

/// Functional-warming run-in before a leapfrog shard's first unit, in
/// instructions. Ample for the Table 3 cache geometries.
const LEAPFROG_WARMUP: u64 = 200_000;

/// The smallest unit index of the systematic grid `{j, j+k, j+2k, ...}`
/// whose unit starts at or after `position` (in instructions).
fn first_grid_index(params: &SamplingParams, position: u64) -> u64 {
    let lowest_unit = position.div_ceil(params.unit_size);
    if lowest_unit <= params.offset {
        params.offset
    } else {
        let steps = (lowest_unit - params.offset).div_ceil(params.interval);
        params.offset + steps * params.interval
    }
}

/// One leapfrog worker: a cold engine, a plain fast-forward to the
/// run-in point, then the in-order loop over `[region_start, region_end)`.
fn run_shard(
    sim: &SmartsSim,
    bench: &Benchmark,
    params: &SamplingParams,
    region_start: u64,
    region_end: u64,
) -> Vec<UnitSample> {
    let u = params.unit_size;
    let w = params.detailed_warming;
    let mut engine = FunctionalEngine::new(bench.load());
    let mut warm = WarmState::new(sim.config());
    let mut units = Vec::new();

    // Leapfrog: plain fast-forward (no warming) to the run-in point, so
    // only the run-in itself pays the slower functional-warming rate.
    if params.warming == Warming::Functional {
        engine.fast_forward(region_start.saturating_sub(LEAPFROG_WARMUP));
    }

    let mut unit_index = first_grid_index(params, region_start);
    loop {
        let unit_start = unit_index * u;
        if unit_start >= region_end {
            break;
        }
        if engine.position() >= unit_start + u {
            // Pipeline overshoot past this entire unit (tiny k); skip.
            unit_index += params.interval;
            continue;
        }
        let warm_start = unit_start.saturating_sub(w);
        match params.warming {
            Warming::None => engine.fast_forward(warm_start),
            Warming::Functional => engine.fast_forward_warming(warm_start, &mut warm),
        };
        if engine.finished() {
            break;
        }
        let mut pipeline = Pipeline::new(sim.config());
        let warm_commits = unit_start.saturating_sub(engine.position());
        pipeline.run(&mut warm, &mut engine, warm_commits, false);
        let measured = pipeline.run(&mut warm, &mut engine, u, true);
        if measured.instructions < u {
            break; // partial tail unit: consumed but not recorded
        }
        let cpi = measured.cpi();
        let epi = sim
            .energy()
            .energy_per_instruction(&measured.counters, measured.cycles);
        units.push(UnitSample {
            start_instr: unit_start,
            cycles: measured.cycles,
            instructions: measured.instructions,
            cpi,
            epi,
            counters: measured.counters,
        });
        unit_index += params.interval;
    }
    units
}

/// Runs one leapfrog sampling simulation on `jobs` threads and merges
/// the shards' units in stream order (shards partition the stream, so
/// sorting by start offset recovers the sequential measurement order).
fn sample_leapfrog(
    sim: &SmartsSim,
    bench: &Benchmark,
    params: &SamplingParams,
    jobs: usize,
) -> SampleReport {
    let stream_len = bench.approx_len();
    let t0 = Instant::now();
    let mut units: Vec<UnitSample> = std::thread::scope(|scope| {
        let shards: Vec<_> = (0..jobs as u64)
            .map(|worker| {
                let region_start = stream_len * worker / jobs as u64;
                // The last shard runs to the true stream end, not the estimate.
                let region_end = if worker + 1 == jobs as u64 {
                    u64::MAX
                } else {
                    stream_len * (worker + 1) / jobs as u64
                };
                scope.spawn(move || run_shard(sim, bench, params, region_start, region_end))
            })
            .collect();
        shards
            .into_iter()
            .flat_map(|shard| shard.join().expect("leapfrog worker"))
            .collect()
    });
    units.sort_unstable_by_key(|unit| unit.start_instr);
    if let Some(max) = params.max_units {
        units.truncate(max as usize);
    }
    assert!(!units.is_empty(), "leapfrog run measured no unit");
    let instructions = ModeInstructions::default();
    SampleReport::from_units(*params, units, instructions, t0.elapsed(), Duration::ZERO)
}

/// Relative CPI bias of `candidate`'s aggregate estimate against
/// `reference`, and the largest relative per-unit CPI error over the
/// units (matched by stream offset) the two runs share.
fn residual_bias(candidate: &SampleReport, reference: &SampleReport) -> (f64, f64) {
    let mut max_unit_cpi_error = 0.0f64;
    let mut ci = candidate.units.iter().peekable();
    let mut ri = reference.units.iter().peekable();
    while let (Some(c), Some(r)) = (ci.peek(), ri.peek()) {
        match c.start_instr.cmp(&r.start_instr) {
            std::cmp::Ordering::Less => {
                ci.next();
            }
            std::cmp::Ordering::Greater => {
                ri.next();
            }
            std::cmp::Ordering::Equal => {
                if r.cpi != 0.0 {
                    let err = ((c.cpi - r.cpi) / r.cpi).abs();
                    max_unit_cpi_error = max_unit_cpi_error.max(err);
                }
                ci.next();
                ri.next();
            }
        }
    }
    let (c, r) = (candidate.cpi().mean(), reference.cpi().mean());
    let cpi_bias = if r == 0.0 { 0.0 } else { (c - r) / r };
    (cpi_bias, max_unit_cpi_error)
}

struct JobsRow {
    jobs: usize,
    pipe_total: Duration,
    pipe_producer: Duration,
    pipe_peak_checkpoints: usize,
    pipe_peak_bytes: u64,
    leapfrog_total: Duration,
    leapfrog_cpi_bias: f64,
    leapfrog_max_unit_error: f64,
}

struct BenchResult {
    name: String,
    sample_size: u64,
    seq_wall: Duration,
    rows: Vec<JobsRow>,
}

fn main() {
    let args = HarnessArgs::parse();
    banner(
        "Scaling",
        "parallel sampling wall-clock vs worker count (8-way machine)",
    );
    let sim = SmartsSim::new(MachineConfig::eight_way());
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let mut job_counts = vec![1usize, 2, 4];
    if !job_counts.contains(&nproc) {
        job_counts.push(nproc);
    }

    let benches = if args.bench.is_some() {
        args.suite()
    } else {
        let scale = if args.quick {
            args.scale.min(0.1)
        } else {
            args.scale
        };
        ["hashp-2", "branchy-1"]
            .iter()
            .map(|n| {
                smarts_workloads::find(n)
                    .expect("suite benchmark")
                    .scaled(scale)
            })
            .collect()
    };

    let mut bench_results = Vec::new();
    for bench in &benches {
        // Enough detailed work (n·(W+U)) that replay, not the warming
        // pass, carries the run; the same design at every worker count.
        let n = if args.quick { 20 } else { 60 };
        let params = SamplingParams::for_sample_size(
            bench.approx_len(),
            1000,
            2000,
            Warming::Functional,
            n,
            0,
        )
        .expect("valid sampling parameters");

        // The in-order driver: the wall every row is a speedup over, and
        // the reference the leapfrog bias is measured against (a
        // checkpointed run warms through one functional pass instead of
        // interleaved detailed episodes, so its bits differ).
        let seq_start = Instant::now();
        let sequential = sim.sample(bench, &params).expect("sequential run");
        let seq_wall = seq_start.elapsed();
        println!(
            "--- {} (n = {}, in-order driver: {}) ---",
            bench.name(),
            sequential.sample_size(),
            fmt(seq_wall),
        );
        println!(
            "{:>5} {:>12} {:>12} {:>9} {:>10} {:>10} {:>14} {:>9} {:>10} {:>10}",
            "jobs",
            "pipe-total",
            "producer",
            "pipe-x",
            "peak-ckpt",
            "peak-MiB",
            "leapfrog-total",
            "leap-x",
            "cpi-bias",
            "max-unit"
        );

        let mut rows: Vec<JobsRow> = Vec::new();
        let mut pipeline_bits: Option<u64> = None;
        for &jobs in &job_counts {
            let executor = Executor::new(jobs).expect("executor");
            let start = Instant::now();
            let pipe = executor.sample(&sim, bench, &params).expect("pipeline run");
            let pipe_total = start.elapsed();
            let bits = pipe.report.cpi().mean().to_bits();
            assert_eq!(
                *pipeline_bits.get_or_insert(bits),
                bits,
                "the pipeline merge must be bit-identical at every worker count"
            );
            let stats = pipe.pipeline.expect("pipeline stats");

            let start = Instant::now();
            let leapfrog = sample_leapfrog(&sim, bench, &params, jobs);
            let leapfrog_total = start.elapsed();
            let (cpi_bias, max_unit) = residual_bias(&leapfrog, &sequential);

            let speedup = |wall: Duration| seq_wall.as_secs_f64() / wall.as_secs_f64().max(1e-9);
            println!(
                "{:>5} {:>12} {:>12} {:>8.2}x {:>10} {:>10.1} {:>14} {:>8.2}x {:>10} {:>10}",
                jobs,
                fmt(pipe_total),
                fmt(stats.producer_wall),
                speedup(pipe_total),
                stats.peak_resident_checkpoints,
                mib(stats.peak_resident_bytes),
                fmt(leapfrog_total),
                speedup(leapfrog_total),
                pct(cpi_bias),
                pct(max_unit),
            );
            rows.push(JobsRow {
                jobs,
                pipe_total,
                pipe_producer: stats.producer_wall,
                pipe_peak_checkpoints: stats.peak_resident_checkpoints,
                pipe_peak_bytes: stats.peak_resident_bytes,
                leapfrog_total,
                leapfrog_cpi_bias: cpi_bias,
                leapfrog_max_unit_error: max_unit,
            });
        }
        println!();
        bench_results.push(BenchResult {
            name: bench.name().to_string(),
            sample_size: sequential.sample_size(),
            seq_wall,
            rows,
        });
    }
    println!(
        "(the pipeline is bit-identical at every worker count and keeps at most depth {} + jobs + 1",
        smarts_exec::PIPELINE_DEPTH
    );
    println!(
        " checkpoints resident; leapfrog trades the warming pass for the residual bias shown.)"
    );

    write_json(&bench_results).expect("write results/bench_scaling.json");
    println!("\nwrote results/bench_scaling.json");
}

/// Emits the machine-readable scaling results (hand-rolled JSON: the
/// workspace builds offline, with no serde).
fn write_json(benches: &[BenchResult]) -> std::io::Result<()> {
    std::fs::create_dir_all("results")?;
    let mut f = std::fs::File::create("results/bench_scaling.json")?;
    writeln!(f, "{{")?;
    writeln!(f, "  \"bench\": \"scaling\",")?;
    writeln!(f, "  \"samples_per_case\": 1,")?;
    writeln!(f, "  \"machine\": \"8-way\",")?;
    writeln!(f, "  \"pipeline_depth\": {},", smarts_exec::PIPELINE_DEPTH)?;
    writeln!(f, "  \"leapfrog_warmup\": {LEAPFROG_WARMUP},")?;
    writeln!(f, "  \"results\": [")?;
    for (i, b) in benches.iter().enumerate() {
        let comma = if i + 1 < benches.len() { "," } else { "" };
        writeln!(f, "    {{")?;
        writeln!(f, "      \"benchmark\": \"{}\",", b.name)?;
        writeln!(f, "      \"sample_size\": {},", b.sample_size)?;
        writeln!(
            f,
            "      \"sequential_wall_s\": {:.4},",
            b.seq_wall.as_secs_f64()
        )?;
        writeln!(f, "      \"jobs\": [")?;
        for (j, row) in b.rows.iter().enumerate() {
            let comma = if j + 1 < b.rows.len() { "," } else { "" };
            writeln!(f, "        {{")?;
            writeln!(f, "          \"jobs\": {},", row.jobs)?;
            writeln!(
                f,
                "          \"pipeline_total_s\": {:.4},",
                row.pipe_total.as_secs_f64()
            )?;
            writeln!(
                f,
                "          \"pipeline_producer_s\": {:.4},",
                row.pipe_producer.as_secs_f64()
            )?;
            writeln!(
                f,
                "          \"pipeline_peak_resident_checkpoints\": {},",
                row.pipe_peak_checkpoints
            )?;
            writeln!(
                f,
                "          \"pipeline_peak_resident_bytes\": {},",
                row.pipe_peak_bytes
            )?;
            writeln!(
                f,
                "          \"leapfrog_total_s\": {:.4},",
                row.leapfrog_total.as_secs_f64()
            )?;
            writeln!(
                f,
                "          \"leapfrog_cpi_bias\": {:.6},",
                row.leapfrog_cpi_bias
            )?;
            writeln!(
                f,
                "          \"leapfrog_max_unit_cpi_error\": {:.6}",
                row.leapfrog_max_unit_error
            )?;
            writeln!(f, "        }}{comma}")?;
        }
        writeln!(f, "      ]")?;
        writeln!(f, "    }}{comma}")?;
    }
    writeln!(f, "  ]")?;
    writeln!(f, "}}")?;
    Ok(())
}
