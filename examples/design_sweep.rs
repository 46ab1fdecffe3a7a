//! Checkpointed design-space exploration: warm the sampling checkpoints
//! into a store once, then sweep pipeline parameters with *zero*
//! fast-forwarding per point — the TurboSMARTS workflow the paper's
//! conclusion anticipates ("designers should focus on techniques to
//! speed up fast-forwarding and functional warming, because these
//! ultimately determine sampling simulation time").
//!
//! Sweeps the out-of-order window (RUU/LSQ) of the 8-way machine and
//! prints CPI with confidence for each point, plus the amortization
//! arithmetic.
//!
//! ```sh
//! cargo run --release --example design_sweep
//! ```

use smarts::ckpt::MappedStore;
use smarts::core::SamplerSpec;
use smarts::exec::{replay, sample};
use smarts::isa::IsaId;
use smarts::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let base_cfg = MachineConfig::eight_way();
    let sim = SmartsSim::new(base_cfg.clone());
    let scale = 0.5;
    let bench = find("hashp-2")
        .expect("suite benchmark exists")
        .scaled(scale);
    let params =
        SamplingParams::paper_defaults(&base_cfg, bench.approx_len(), 40)?.with_offset(1)?;

    println!("warming a checkpoint store for {bench} ...");
    let path =
        std::env::temp_dir().join(format!("smarts-design-sweep-{}.ckpt", std::process::id()));
    let executor = Executor::new(2)?;
    let spec = SamplerSpec::systematic();
    let warm_start = std::time::Instant::now();
    let save = Some(path.as_path());
    let meta = StoreMeta {
        params,
        benchmark: bench.name().to_string(),
        scale,
        isa: IsaId::Builtin,
    };
    let run = sample(&executor, &sim, &meta, &spec, save)?;
    let write = run
        .write
        .expect("a run that keeps its store reports the write");
    let warm_wall = warm_start.elapsed();
    println!(
        "  {} checkpoints, {:.1} MiB, in {warm_wall:.2?} (one-time cost)\n",
        write.records,
        write.bytes as f64 / (1024.0 * 1024.0),
    );
    // Every point shares the warm geometry, so one mapping serves all.
    let store = MappedStore::open(&path, &base_cfg)?;

    println!(
        "{:>12} {:>10} {:>10} {:>12}",
        "RUU/LSQ", "CPI", "±99.7%", "replay time"
    );
    let conf = Confidence::THREE_SIGMA;
    let mut total_replay = std::time::Duration::ZERO;
    for (ruu, lsq) in [(16u32, 8u32), (32, 16), (64, 32), (128, 64), (256, 128)] {
        let mut cfg = base_cfg.clone();
        cfg.ruu_size = ruu;
        cfg.lsq_size = lsq;
        let point = SmartsSim::new(cfg);
        let run = replay(&executor, &point, &store, &spec)?;
        let report = &run.estimate.report().report;
        total_replay += report.wall_detailed;
        println!(
            "{:>9}/{:<3} {:>10.3} {:>9.1}% {:>12.2?}",
            ruu,
            lsq,
            report.cpi().mean(),
            report.cpi().achieved_epsilon(conf)? * 100.0,
            report.wall_detailed,
        );
    }
    println!(
        "\n5-point sweep: {:.2?} of replay vs {:.2?} per point with fast-forwarding",
        total_replay,
        warm_wall + total_replay / 5,
    );
    drop(store);
    std::fs::remove_file(&path)?;

    // The same question asked as a paired comparison: is the 64-entry
    // window significantly worse than the 128-entry baseline?
    let mut small = base_cfg.clone();
    small.ruu_size = 64;
    small.lsq_size = 32;
    let cmp = compare_machines(&sim, &SmartsSim::new(small), &bench, &params)?;
    println!(
        "\npaired check (128→64 RUU): ΔCPI = {:+.4} ± {:.4}, significant: {}, pairing gain {:.1}x",
        cmp.cpi_delta(),
        cmp.delta_half_width(conf)?,
        cmp.is_significant(conf)?,
        cmp.pairing_gain(),
    );
    Ok(())
}
