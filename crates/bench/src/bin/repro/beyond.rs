//! Experiments beyond the paper: the design-choice ablations of
//! DESIGN.md §5 and the CI efficiency of the unit-selection strategies.

use crate::paper::stale_bias;
use crate::Result;
use smarts_bench::ci_eff::{measure, Row, EPSILON, SAVINGS_BAR, UNIT_SIZE};
use smarts_bench::{upct, HarnessArgs, Output, RefCache};
use smarts_core::{SamplingParams, SmartsSim, Warming};
use smarts_stats::{systematic_sample_means, Confidence, RandomDesign};
use smarts_uarch::MachineConfig;
use std::fmt::Write;

/// Three ablations on the first benchmarks of the suite (8-way):
///
/// 1. **Systematic vs random sampling** — Section 2 argues they are
///    equivalent when the intraclass correlation is negligible: estimator
///    spread over the k systematic phases vs seeded random unit sets of
///    the same size, over the reference population.
/// 2. **Warming modes** — accuracy at fixed cost for no warming,
///    detailed-only warming and functional warming: Section 4 in one
///    table.
/// 3. **Wrong-path fetch modelling** — full-detail CPI with the knob off
///    and on (the Section 4.5 corroboration).
pub fn ablation(args: &HarnessArgs, cache: &RefCache) -> Result {
    let mut out = Output::new(
        "Ablations",
        "systematic vs random; warming modes; wrong-path fetch (8-way)",
    );
    let sim = SmartsSim::new(MachineConfig::eight_way());
    let suite = args.suite();
    let d = &mut out.det;

    d.push_str(
        "--- systematic vs random sampling (estimator spread over trials, n per trial = N/20) ---\n",
    );
    writeln!(
        d,
        "{:<12}{:>16}{:>16}{:>12}",
        "benchmark", "systematic RMSE", "random RMSE", "ratio"
    )?;
    for bench in suite.iter().take(6) {
        let pop = &cache.get(&sim, bench, 1000).unit_cpis;
        if pop.len() < 60 {
            continue;
        }
        let truth: f64 = pop.iter().sum::<f64>() / pop.len() as f64;
        let rmse = |means: &[f64]| {
            let sq = means.iter().map(|m| (m - truth) * (m - truth));
            (sq.sum::<f64>() / means.len() as f64).sqrt()
        };
        let k = 20;
        let sys = rmse(&systematic_sample_means(pop, k));
        let random: Vec<f64> = (0..20)
            .map(|seed| {
                let (len, n) = (pop.len() as u64, (pop.len() / k) as u64);
                let design = RandomDesign::draw(1000, len, n, seed).expect("valid design");
                design.unit_indices().map(|i| pop[i as usize]).sum::<f64>()
                    / design.sample_size() as f64
            })
            .collect();
        let rnd = rmse(&random);
        let ratio = sys / rnd.max(1e-12);
        writeln!(d, "{:<12}{sys:>16.5}{rnd:>16.5}{ratio:>12.2}", bench.name())?;
    }
    d.push_str("(expected: ratio ≈ 1 — systematic sampling behaves like random when δ ≈ 0)\n\n");

    writeln!(
        d,
        "--- warming ablation (|CPI error| at n = N/20, j = 1) ---"
    )?;
    writeln!(
        d,
        "{:<12}{:>12}{:>16}{:>18}",
        "benchmark", "no warming", "detailed W=16k", "functional W=2k"
    )?;
    for bench in suite.iter().take(6) {
        let truth = cache.get(&sim, bench, 1000).cpi;
        let n = (bench.approx_len() / 1000 / 20).max(10);
        // Without functional warming units are not independent: one
        // phase, at offset 1, of Table 4's real runs.
        let [none, detailed] =
            [0, 16_000].map(|w| upct(stale_bias(&sim, bench, w, n, 1, truth).abs()));
        let params = SamplingParams::for_sample_size(
            bench.approx_len(),
            1000,
            2_000,
            Warming::Functional,
            n,
            1,
        )
        .expect("valid parameters");
        let census = cache.census(&sim, bench, 1000, 2_000);
        let report = census.sample(&params).expect("sampling succeeds");
        let functional = upct((report.cpi().mean() - truth).abs() / truth);
        writeln!(
            d,
            "{:<12}{none:>12}{detailed:>16}{functional:>18}",
            bench.name()
        )?;
    }
    d.push_str("(expected: functional warming matches or beats 8x as much detailed warming)\n\n");

    d.push_str("--- wrong-path fetch modelling: full-detail CPI with the knob off vs on ---\n");
    writeln!(
        d,
        "{:<12}{:>14}{:>14}{:>12}",
        "benchmark", "CPI (off)", "CPI (on)", "delta"
    )?;
    let mut wp_cfg = MachineConfig::eight_way();
    wp_cfg.model_wrong_path = true;
    wp_cfg.name = "8-way+wp";
    let wp_sim = SmartsSim::new(wp_cfg);
    for bench in suite.iter().take(6) {
        let off = cache.get(&sim, bench, 1000).cpi;
        let on = cache.get(&wp_sim, bench, 1000).cpi;
        let delta = upct((on - off).abs() / off);
        writeln!(d, "{:<12}{off:>14.4}{on:>14.4}{delta:>12}", bench.name())?;
    }
    d.push_str(
        "(expected: small deltas — the paper cites Cain et al. that wrong-path effects\n \
         on CPI are minimal, and corroborates it in Section 4.5)\n",
    );
    Ok(out)
}

/// CI efficiency of the unit-selection strategies (the Fig. 5/6
/// methodology applied to sampler design): detailed instructions to the
/// ±3% @ 99.7% CPI target under systematic, two-phase stratified and
/// online adaptive selection. The procedure is
/// [`smarts_bench::ci_eff::measure`], seeded and simulator-deterministic.
pub fn ci_eff(args: &HarnessArgs, cache: &RefCache) -> Result {
    let conf = Confidence::THREE_SIGMA;
    let mut out = Output::new(
        "CI efficiency: systematic vs stratified vs adaptive unit selection",
        &format!(
            "target ±{}% @ {} CPI; matched systematic = the paper's two-step \
             procedure (30-unit pilot + n(V̂) tuned rerun), capped at the pool",
            EPSILON * 100.0,
            conf
        ),
    );
    let d = &mut out.det;
    let cfg = MachineConfig::eight_way();
    let sim = SmartsSim::new(cfg.clone());
    writeln!(
        d,
        "{:<12} {:>6} {:>6} {:>7} {:>9} {:>9} {:>9} {:>9}  best",
        "benchmark", "pool", "V(U)", "n sys", "n strat", "err", "n adapt", "err"
    )?;
    let (mut rows, w) = (Vec::new(), cfg.recommended_detailed_warming());
    for bench in args.suite() {
        let row = measure(&cache.census(&sim, &bench, UNIT_SIZE, w), &bench, conf);
        let claimed = |met: bool| if met { " " } else { "!" };
        writeln!(
            d,
            "{:<12} {:>6} {:>6.3} {:>7} {:>7}{} {:>9} {:>7}{} {:>9}  {}",
            row.benchmark,
            row.pool,
            row.cv,
            row.n_systematic,
            row.stratified.n,
            claimed(row.stratified.target_met),
            upct(row.stratified.error),
            row.adaptive.n,
            claimed(row.adaptive.target_met),
            upct(row.adaptive.error),
            upct(row.best_savings()),
        )?;
        rows.push(row);
    }
    let total = rows.len();
    let qualifying = rows.iter().filter(|r| r.qualifies()).count();
    let mean_best = if rows.is_empty() {
        0.0
    } else {
        rows.iter().map(Row::best_savings).sum::<f64>() / total as f64
    };
    writeln!(
        d,
        "\n{qualifying}/{total} workloads reach the ±3% target with ≥{}% fewer detailed \
         instructions than matched systematic (mean best saving {})",
        SAVINGS_BAR * 100.0,
        upct(mean_best)
    )?;
    Ok(out)
}
