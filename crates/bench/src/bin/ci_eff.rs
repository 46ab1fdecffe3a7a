//! CI-efficiency comparison of the unit-selection strategies
//! (the Fig. 5/6 methodology applied to sampler design): detailed
//! instructions needed to reach the paper's ±3% @ 99.7% CPI target
//! under systematic, two-phase stratified, and online adaptive unit
//! selection.
//!
//! The measurement procedure lives in [`smarts_bench::ci_eff`], whose
//! golden test pins its first rows. Everything is seeded and
//! simulator-deterministic, so `results/bench_ci_eff.json` is
//! reproducible bit-for-bit.
//!
//! The emitted JSON feeds EXPERIMENTS.md's CI-efficiency table.

use smarts_bench::ci_eff::{measure, render_json, Row, EPSILON, SAVINGS_BAR};
use smarts_bench::upct;
use smarts_core::SmartsSim;
use smarts_stats::Confidence;
use smarts_uarch::MachineConfig;

fn main() {
    let mut args = smarts_bench::HarnessArgs::parse();
    // The full-grid ground truth is the expensive part; half scale keeps
    // pools in the 600–2200 unit range the samplers were designed for.
    if args.scale == 1.0 {
        args.scale = 0.5;
    }
    if args.quick {
        args.scale = 0.1;
    }
    let conf = Confidence::THREE_SIGMA;
    smarts_bench::banner(
        "CI efficiency: systematic vs stratified vs adaptive unit selection",
        &format!(
            "target ±{}% @ {} CPI; matched systematic = the paper's two-step \
             procedure (30-unit pilot + n(V̂) tuned rerun), capped at the pool",
            EPSILON * 100.0,
            conf
        ),
    );

    let cfg = MachineConfig::eight_way();
    let sim = SmartsSim::new(cfg.clone());
    let mut rows = Vec::new();
    println!(
        "{:<12} {:>6} {:>6} {:>7} {:>9} {:>9} {:>9} {:>9}  best",
        "benchmark", "pool", "V(U)", "n sys", "n strat", "err", "n adapt", "err"
    );
    for bench in args.suite() {
        let row = measure(&sim, &cfg, &bench, conf);
        println!(
            "{:<12} {:>6} {:>6.3} {:>7} {:>7}{} {:>9} {:>7}{} {:>9}  {}",
            row.benchmark,
            row.pool,
            row.cv,
            row.n_systematic,
            row.stratified.n,
            if row.stratified.target_met { " " } else { "!" },
            upct(row.stratified.error),
            row.adaptive.n,
            if row.adaptive.target_met { " " } else { "!" },
            upct(row.adaptive.error),
            upct(row.best_savings()),
        );
        rows.push(row);
    }

    let total = rows.len();
    let qualifying = rows.iter().filter(|r| r.qualifies()).count();
    let mean_best = if rows.is_empty() {
        0.0
    } else {
        rows.iter().map(Row::best_savings).sum::<f64>() / total as f64
    };
    println!(
        "\n{qualifying}/{total} workloads reach the ±3% target with ≥{}% fewer detailed \
         instructions than matched systematic (mean best saving {})",
        SAVINGS_BAR * 100.0,
        upct(mean_best)
    );

    let json = render_json(&rows, args.scale, qualifying, mean_best);
    let path = "results/bench_ci_eff.json";
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("cannot write {path}: {e}"),
    }
}
