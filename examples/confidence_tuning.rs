//! The two-step confidence procedure of Section 5.1, end to end.
//!
//! Starts with a deliberately small `n_init`, checks the achieved
//! confidence interval against a ±3% target, and — when the interval is
//! too wide — reruns with the tuned `n = (z·V̂/ε)²`, exactly as the paper
//! prescribes for benchmarks like `ammp`/`vpr`/`gcc-2` in Figure 6.
//!
//! ```sh
//! cargo run --release --example confidence_tuning
//! ```

use smarts::prelude::*;

fn main() -> Result<(), SmartsError> {
    let sim = SmartsSim::new(MachineConfig::eight_way());
    let conf = Confidence::THREE_SIGMA;
    let epsilon = 0.03;

    // `phased-2` is our high-variance stress case (the ammp/vpr analogue):
    // long alternating locality phases make per-unit CPI vary wildly.
    let bench = find("phased-2").expect("suite benchmark exists");
    println!("benchmark: {bench}");

    let n_init = 15;
    let params = SamplingParams::paper_defaults(sim.config(), bench.approx_len(), n_init)?;
    let outcome = TwoStepOutcome::run(bench.approx_len(), &params, epsilon, conf, |p| {
        sim.sample(&bench, p)
    })?;

    let first = &outcome.initial;
    println!(
        "step 1: n_init = {:>5}  CPI = {:.3}  V̂ = {:.3}  interval = ±{:.1}%",
        first.sample_size(),
        first.cpi().mean(),
        first.cpi().coefficient_of_variation(),
        first.cpi().achieved_epsilon(conf)? * 100.0,
    );

    match &outcome.tuned {
        None => println!(
            "        target of ±{:.0}% met on the first run",
            epsilon * 100.0
        ),
        Some(tuned) => {
            println!(
                "step 2: n_tuned = {:>4}  CPI = {:.3}  V̂ = {:.3}  interval = ±{:.1}%",
                tuned.sample_size(),
                tuned.cpi().mean(),
                tuned.cpi().coefficient_of_variation(),
                tuned.cpi().achieved_epsilon(conf)? * 100.0,
            );
        }
    }

    // Verify against ground truth.
    let reference = sim.reference(&bench, 1000);
    let best = outcome.best();
    println!(
        "truth:  CPI = {:.3}  → actual error {:+.2}% (predicted interval ±{:.1}%)",
        reference.cpi,
        (best.cpi().mean() - reference.cpi) / reference.cpi * 100.0,
        best.cpi().achieved_epsilon(conf)? * 100.0,
    );
    Ok(())
}
