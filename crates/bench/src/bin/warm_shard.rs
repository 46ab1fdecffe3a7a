//! Sharded-warming scaling: the warming-side wall clock at
//! `warm_jobs` ∈ {1, 2, 4}, measured through the public sampling path.
//!
//! SMARTS's pipeline wall is `max(T_warm, T_detail / jobs)`; once replay
//! is parallel, the serial warming pass is the bottleneck this repo's
//! sharded warming attacks. For each shard count this binary runs the
//! full pipeline (median of [`timing::SAMPLES`] runs by producer wall;
//! one shard is the serial producer itself), and reports:
//!
//! * **producer** — the producer-side wall (parallel warm + stitch),
//!   the quantity sharding is supposed to divide,
//! * **warm / stitch** — the two phases separately, so re-warm overhead
//!   is visible rather than folded into the speedup,
//! * **re-warm** — units and instructions spent proving boundary
//!   convergence (the price of bit-identity),
//! * the implied warming MIPS and the speedup against the one-shard run.
//!
//! Results go to `results/bench_warm_shard.json`, the baseline
//! `warm_shard_guard` compares against. The file records the exact run
//! geometry (benchmark, scale, design) so the guard re-measures the same
//! work. On a single-core host the honest result is ≈ 1× with a small
//! stitch overhead; the ≥ 2× expectation only applies where
//! `available_parallelism() ≥ 4` (the guard enforces exactly that).
//!
//! `--quick` shrinks the stream for the CI smoke run.

use smarts_bench::timing;
use smarts_core::{FunctionalEngine, SamplingParams, SmartsSim, Warming};
use smarts_exec::{Executor, ParallelReport};
use smarts_uarch::MachineConfig;
use std::io::Write as _;
use std::time::Duration;

/// Shard counts probed; the first must be 1 (the speedup baseline).
const WARM_JOBS: [usize; 3] = [1, 2, 4];

/// The probe benchmark: the Figure 4 probe, the same warming-pressure
/// workload `results/bench_warming.json` leads with.
const BENCH: &str = "hashp-2";

struct Row {
    warm_jobs: usize,
    producer: Duration,
    warm: Duration,
    stitch: Duration,
    instructions: u64,
    rewarm_units: u64,
    rewarm_instructions: u64,
}

impl Row {
    fn warming_mips(&self) -> f64 {
        self.instructions as f64 / self.producer.as_secs_f64() / 1e6
    }
}

fn measure(
    sim: &SmartsSim,
    bench: &smarts_workloads::Benchmark,
    params: &SamplingParams,
    warm_jobs: usize,
) -> Row {
    let executor = Executor::new(1)
        .expect("executor")
        .with_warm_jobs(warm_jobs);
    let run = || -> ParallelReport {
        executor
            .sample(sim, bench, params)
            .expect("sharded-warm run")
    };
    // Median by producer wall: `timing::time` medians the closure's total
    // wall, but the quantity under test is the producer side only (the
    // consumer's replay work is constant across shard counts).
    std::hint::black_box(run());
    let mut reports: Vec<ParallelReport> = (0..timing::SAMPLES).map(|_| run()).collect();
    reports.sort_by_key(|r| r.pipeline.as_ref().expect("pipeline stats").producer_wall);
    let median = reports.swap_remove(timing::SAMPLES / 2);
    let producer = median.pipeline.expect("pipeline stats").producer_wall;
    match median.shard {
        Some(shard) => Row {
            warm_jobs,
            producer,
            warm: shard.warm_wall,
            stitch: shard.stitch_wall,
            instructions: shard.shard_instructions.iter().sum(),
            rewarm_units: shard.rewarm_units(),
            rewarm_instructions: shard.rewarm_instructions,
        },
        // One shard is the serial producer: the stream once, no stitch.
        None => Row {
            warm_jobs,
            producer,
            warm: producer,
            stitch: Duration::ZERO,
            instructions: FunctionalEngine::new(bench.load()).fast_forward(u64::MAX - 1),
            rewarm_units: 0,
            rewarm_instructions: 0,
        },
    }
}

fn main() {
    let args = smarts_bench::HarnessArgs::parse();
    let scale = if args.quick { 0.05 } else { 0.3 };
    let n = 30u64;
    let unit = 1000u64;
    smarts_bench::banner(
        "Sharded-warming scaling",
        "producer wall vs warm_jobs for the bit-identical sharded warm (8-way machine)",
    );

    let cfg = MachineConfig::eight_way();
    let sim = SmartsSim::new(cfg.clone());
    let bench = smarts_workloads::find(BENCH)
        .expect("suite benchmark")
        .scaled(scale);
    let params = SamplingParams::for_sample_size(
        bench.approx_len(),
        unit,
        cfg.recommended_detailed_warming(),
        Warming::Functional,
        n,
        0,
    )
    .expect("valid design");

    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    println!(
        "benchmark {BENCH} scale {scale} (n={n}, U={unit}, W={}), {cores} core(s)\n",
        params.detailed_warming
    );
    println!(
        "{:>9} {:>12} {:>12} {:>12} {:>10} {:>10} {:>8}",
        "warm_jobs", "producer", "warm", "stitch", "warm MIPS", "re-warmed", "speedup"
    );
    let mut rows = Vec::new();
    for &warm_jobs in &WARM_JOBS {
        let row = measure(&sim, &bench, &params, warm_jobs);
        let speedup = if rows.is_empty() {
            1.0
        } else {
            let serial: &Row = &rows[0];
            serial.producer.as_secs_f64() / row.producer.as_secs_f64()
        };
        println!(
            "{:>9} {:>12} {:>12} {:>12} {:>10.2} {:>10} {:>7.2}x",
            row.warm_jobs,
            timing::pretty(row.producer),
            timing::pretty(row.warm),
            timing::pretty(row.stitch),
            row.warming_mips(),
            row.rewarm_units,
            speedup
        );
        rows.push(row);
    }

    write_json(&rows, scale, n, unit).expect("write results/bench_warm_shard.json");
    println!("\nwrote results/bench_warm_shard.json");
}

/// Emits the machine-readable baseline (hand-rolled JSON: the workspace
/// builds offline, with no serde). The run geometry is recorded so
/// `warm_shard_guard` re-measures the same work the baseline measured.
fn write_json(rows: &[Row], scale: f64, n: u64, unit: u64) -> std::io::Result<()> {
    std::fs::create_dir_all("results")?;
    let mut f = std::fs::File::create("results/bench_warm_shard.json")?;
    let serial = rows[0].producer.as_secs_f64();
    writeln!(f, "{{")?;
    writeln!(f, "  \"bench\": \"warm_shard\",")?;
    writeln!(f, "  \"samples_per_case\": {},", timing::SAMPLES)?;
    writeln!(f, "  \"machine\": \"8-way\",")?;
    writeln!(f, "  \"benchmark\": \"{BENCH}\",")?;
    writeln!(f, "  \"scale\": {scale},")?;
    writeln!(f, "  \"n\": {n},")?;
    writeln!(f, "  \"unit\": {unit},")?;
    writeln!(f, "  \"results\": [")?;
    for (i, row) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        writeln!(f, "    {{")?;
        writeln!(f, "      \"warm_jobs\": {},", row.warm_jobs)?;
        writeln!(
            f,
            "      \"producer_wall_ms\": {:.3},",
            row.producer.as_secs_f64() * 1e3
        )?;
        writeln!(
            f,
            "      \"warm_wall_ms\": {:.3},",
            row.warm.as_secs_f64() * 1e3
        )?;
        writeln!(
            f,
            "      \"stitch_wall_ms\": {:.3},",
            row.stitch.as_secs_f64() * 1e3
        )?;
        writeln!(f, "      \"instructions\": {},", row.instructions)?;
        writeln!(f, "      \"rewarm_units\": {},", row.rewarm_units)?;
        writeln!(
            f,
            "      \"rewarm_instructions\": {},",
            row.rewarm_instructions
        )?;
        writeln!(f, "      \"warming_mips\": {:.3},", row.warming_mips())?;
        writeln!(
            f,
            "      \"speedup_vs_serial\": {:.3}",
            serial / row.producer.as_secs_f64()
        )?;
        writeln!(f, "    }}{comma}")?;
    }
    writeln!(f, "  ]")?;
    writeln!(f, "}}")?;
    Ok(())
}
