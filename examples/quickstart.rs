//! Quickstart: estimate a benchmark's CPI and EPI with SMARTS sampling
//! and compare against full detailed simulation.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use smarts::prelude::*;

fn main() -> Result<(), SmartsError> {
    let sim = SmartsSim::new(MachineConfig::eight_way());
    let bench = find("hashp-2").expect("suite benchmark exists").scaled(0.5);
    println!("benchmark: {bench}");

    // SMARTS sampling at the paper's operating point: U = 1000, W = 2000,
    // functional warming, systematic sampling.
    let params = SamplingParams::paper_defaults(sim.config(), bench.approx_len(), 50)?;
    let report = sim.sample(&bench, &params)?;
    let cpi = report.cpi();
    let epi = report.epi();
    let conf = Confidence::THREE_SIGMA;
    println!(
        "SMARTS:    CPI = {:.4} ± {:.2}%   EPI = {:.2} nJ ± {:.2}%   (99.7% confidence)",
        cpi.mean(),
        cpi.achieved_epsilon(conf)? * 100.0,
        epi.mean(),
        epi.achieved_epsilon(conf)? * 100.0,
    );
    println!(
        "           measured {} units of {} instructions = {:.3}% of the stream",
        report.sample_size(),
        params.unit_size,
        report.instructions.detailed() as f64 / bench.approx_len() as f64 * 100.0,
    );

    // Ground truth: simulate every instruction in detail.
    let reference = sim.reference(&bench, 1000);
    println!(
        "reference: CPI = {:.4}          EPI = {:.2} nJ",
        reference.cpi, reference.epi
    );
    println!(
        "actual error: CPI {:+.2}%, EPI {:+.2}%",
        (cpi.mean() - reference.cpi) / reference.cpi * 100.0,
        (epi.mean() - reference.epi) / reference.epi * 100.0,
    );
    println!(
        "wall-clock: SMARTS {:.2?} vs full detail {:.2?} ({:.1}x speedup)",
        report.wall_total(),
        reference.wall,
        reference.wall.as_secs_f64() / report.wall_total().as_secs_f64(),
    );
    Ok(())
}
