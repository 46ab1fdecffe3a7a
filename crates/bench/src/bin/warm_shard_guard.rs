//! CI sharded-warming regression guard.
//!
//! Reads the checked-in reference `results/bench_warm_shard.json` (this
//! binary never writes it — the `warm_shard` binary owns the file and CI
//! runs this guard *before* re-generating it), re-runs the sharded-warm
//! pipeline with the reference's exact run geometry at each reference
//! shard count, and exits non-zero when:
//!
//! * any shard count's warming MIPS drops more than [`TOLERANCE`] below
//!   its reference (the hot-path regression gate), or
//! * the host has `available_parallelism() ≥ 4`, the reference includes
//!   warm_jobs 1 and 4, and the measured 4-shard speedup falls below
//!   [`MIN_SPEEDUP_AT_4`] — the paper-motivated T_warm / cores target.
//!   On smaller hosts (including the single-core baseline machine) real
//!   parallel speedup is physically unavailable, so only the MIPS
//!   regression gate applies there.
//!
//! `--quick` keeps only the first and last reference shard counts.

use smarts_bench::timing;
use smarts_core::{FunctionalEngine, SamplingParams, SmartsSim, Warming};
use smarts_exec::Executor;
use smarts_uarch::MachineConfig;
use std::time::Duration;

/// Largest tolerated drop of measured warming MIPS below the reference
/// (noise stays well inside this; a real hot-path regression does not).
const TOLERANCE: f64 = 0.20;

/// Required producer-wall speedup of warm_jobs = 4 over warm_jobs = 1
/// when the host actually has four cores to shard across.
const MIN_SPEEDUP_AT_4: f64 = 2.0;

struct Reference {
    warm_jobs: usize,
    warming_mips: f64,
}

struct Geometry {
    benchmark: String,
    scale: f64,
    n: u64,
    unit: u64,
}

fn main() {
    let args = smarts_bench::HarnessArgs::parse();
    let path = "results/bench_warm_shard.json";
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| fail(&format!("cannot read reference {path}: {e}")));
    let (geometry, mut references) =
        parse_reference(&text).unwrap_or_else(|e| fail(&format!("cannot parse {path}: {e}")));
    if references.is_empty() {
        fail(&format!("reference {path} lists no shard counts"));
    }
    if args.quick && references.len() > 2 {
        // Keep the speedup endpoints (1 and the largest shard count).
        let last = references.pop().expect("non-empty");
        references.truncate(1);
        references.push(last);
    }

    smarts_bench::banner(
        "Sharded-warming guard",
        &format!(
            "fails if warming MIPS drops more than {:.0}% below results/bench_warm_shard.json",
            TOLERANCE * 100.0
        ),
    );
    let cfg = MachineConfig::eight_way();
    let sim = SmartsSim::new(cfg.clone());
    let bench = smarts_workloads::find(&geometry.benchmark)
        .unwrap_or_else(|| {
            fail(&format!(
                "reference benchmark {} is not in the suite",
                geometry.benchmark
            ))
        })
        .scaled(geometry.scale);
    let params = SamplingParams::for_sample_size(
        bench.approx_len(),
        geometry.unit,
        cfg.recommended_detailed_warming(),
        Warming::Functional,
        geometry.n,
        0,
    )
    .unwrap_or_else(|e| fail(&format!("reference geometry is no longer valid: {e}")));

    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    println!(
        "benchmark {} scale {} (n={}, U={}), {cores} core(s)\n",
        geometry.benchmark, geometry.scale, geometry.n, geometry.unit
    );
    println!(
        "{:>9} {:>12} {:>12} {:>8}  verdict",
        "warm_jobs", "ref MIPS", "now MIPS", "ratio"
    );
    let stream_len = FunctionalEngine::new(bench.load()).fast_forward(u64::MAX - 1);
    let mut regressed = false;
    let mut measured: Vec<(usize, Duration)> = Vec::new();
    for reference in &references {
        let executor = Executor::new(1)
            .unwrap_or_else(|e| fail(&e.to_string()))
            .with_warm_jobs(reference.warm_jobs);
        let run = || {
            executor
                .sample(&sim, &bench, &params)
                .unwrap_or_else(|e| fail(&format!("sharded-warm run failed: {e}")))
        };
        std::hint::black_box(run());
        let mut walls: Vec<(Duration, u64)> = (0..timing::SAMPLES)
            .map(|_| {
                let report = run();
                let instructions = match report.shard {
                    Some(shard) => shard.shard_instructions.iter().sum(),
                    // One shard is the serial producer: the stream once.
                    None => stream_len,
                };
                (
                    report.pipeline.expect("pipeline stats").producer_wall,
                    instructions,
                )
            })
            .collect();
        walls.sort_by_key(|&(wall, _)| wall);
        let (wall, instructions) = walls[timing::SAMPLES / 2];
        let mips = instructions as f64 / wall.as_secs_f64() / 1e6;
        let ratio = mips / reference.warming_mips;
        let ok = ratio >= 1.0 - TOLERANCE;
        regressed |= !ok;
        measured.push((reference.warm_jobs, wall));
        println!(
            "{:>9} {:>12.2} {:>12.2} {:>8.3}  {}",
            reference.warm_jobs,
            reference.warming_mips,
            mips,
            ratio,
            if ok { "ok" } else { "REGRESSED" }
        );
    }

    let serial = measured.iter().find(|&&(j, _)| j == 1);
    let four = measured.iter().find(|&&(j, _)| j == 4);
    if let (Some(&(_, serial)), Some(&(_, four))) = (serial, four) {
        let speedup = serial.as_secs_f64() / four.as_secs_f64();
        if cores >= 4 {
            let ok = speedup >= MIN_SPEEDUP_AT_4;
            regressed |= !ok;
            println!(
                "\n4-shard speedup {speedup:.2}x on {cores} cores (need ≥ {MIN_SPEEDUP_AT_4}x): {}",
                if ok { "ok" } else { "REGRESSED" }
            );
        } else {
            println!(
                "\n4-shard speedup {speedup:.2}x on {cores} core(s): \
                 informational only (≥ {MIN_SPEEDUP_AT_4}x gate needs 4 cores)"
            );
        }
    }

    if regressed {
        eprintln!(
            "\nsharded warming regressed beyond the {:.0}% guard",
            TOLERANCE * 100.0
        );
        std::process::exit(1);
    }
    println!("\nsharded warming within the guard");
}

fn fail(msg: &str) -> ! {
    eprintln!("warm_shard_guard: {msg}");
    std::process::exit(1)
}

/// Extracts the run geometry and `(warm_jobs, warming_mips)` rows from
/// the reference file. Hand-rolled (the workspace builds offline, no
/// serde): scans for the keys in order, which is exactly the shape the
/// `warm_shard` binary writes.
fn parse_reference(text: &str) -> Result<(Geometry, Vec<Reference>), String> {
    let mut geometry = Geometry {
        benchmark: String::new(),
        scale: 0.0,
        n: 0,
        unit: 0,
    };
    let mut references = Vec::new();
    let mut warm_jobs: Option<usize> = None;
    for line in text.lines() {
        let line = line.trim();
        if let Some(value) = key_value(line, "benchmark") {
            geometry.benchmark = value.trim_matches('"').to_string();
        } else if let Some(value) = key_value(line, "scale") {
            geometry.scale = value.parse().map_err(|_| format!("bad scale `{value}`"))?;
        } else if let Some(value) = key_value(line, "n") {
            geometry.n = value.parse().map_err(|_| format!("bad n `{value}`"))?;
        } else if let Some(value) = key_value(line, "unit") {
            geometry.unit = value.parse().map_err(|_| format!("bad unit `{value}`"))?;
        } else if let Some(value) = key_value(line, "warm_jobs") {
            warm_jobs = Some(
                value
                    .parse()
                    .map_err(|_| format!("bad warm_jobs `{value}`"))?,
            );
        } else if let Some(value) = key_value(line, "warming_mips") {
            let mips: f64 = value
                .parse()
                .map_err(|_| format!("bad warming_mips `{value}`"))?;
            if !(mips.is_finite() && mips > 0.0) {
                return Err("non-positive warming_mips".to_string());
            }
            references.push(Reference {
                warm_jobs: warm_jobs.take().ok_or("warming_mips before warm_jobs")?,
                warming_mips: mips,
            });
        }
    }
    if geometry.benchmark.is_empty() || geometry.scale <= 0.0 || geometry.n == 0 {
        return Err("missing run geometry (benchmark/scale/n)".to_string());
    }
    Ok((geometry, references))
}

/// `"key": value,` → `value` (quotes kept, trailing comma stripped).
fn key_value<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let rest = line.strip_prefix(&format!("\"{key}\":"))?;
    Some(rest.trim().trim_end_matches(','))
}
