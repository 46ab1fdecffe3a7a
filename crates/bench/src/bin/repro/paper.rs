//! The paper's own evaluation: Table 3, Figures 2–8 and Tables 4–6.
//!
//! Each experiment states the paper's claim it checks in the trailing
//! note it prints; EXPERIMENTS.md records the verdicts.

use crate::Result;
use smarts_bench::{pct, upct, HarnessArgs, Output, RefCache};
use smarts_core::{SamplingParams, SmartsSim, SpeedupModel, TwoStepOutcome, Warming};
use smarts_simpoint::{estimate_cpi, SimPointConfig};
use smarts_stats::{
    bias, intraclass_correlation, required_sample_size, variation_curve, Confidence, RunningStats,
};
use smarts_uarch::MachineConfig;
use smarts_workloads::{find, Benchmark};
use std::fmt::{self, Write};
use std::time::Duration;

/// Sampling-unit size of every sampled run (the paper's U = 1000).
const U: u64 = 1000;

/// The ±3% CPI target of Section 5.1.
const EPSILON: f64 = 0.03;

/// Initial sample size: the paper's n_init, scaled to our streams
/// (EXPERIMENTS.md caveat 2).
fn n_init(args: &HarnessArgs) -> u64 {
    if args.quick {
        15
    } else {
        60
    }
}

/// Mean of `|f(row)|` over `rows`, in order.
fn mean_abs<T>(rows: &[T], f: impl Fn(&T) -> f64) -> f64 {
    rows.iter().map(|r| f(r).abs()).sum::<f64>() / rows.len() as f64
}

/// Paper-default parameters at offset 1: skips the cold unit at
/// instruction 0, which at our stream scale carries weight 1/n instead
/// of the paper's 1/10,000 (EXPERIMENTS.md caveat 3).
fn offset_one(cfg: &MachineConfig, bench: &Benchmark, n: u64) -> SamplingParams {
    SamplingParams::paper_defaults(cfg, bench.approx_len(), n)
        .expect("valid parameters")
        .with_offset(1)
        .expect("interval exceeds 1")
}

/// Relative measurement bias without functional warming (Section 4.3):
/// the mean signed CPI error of `phases` evenly spaced systematic samples
/// of `n` units against `truth`. The first phase starts at offset 1,
/// skipping the cold unit's initialization transient (negligible at the
/// paper's N, not at ours). Each unit replays on the stale state the
/// previous unit's episode left, so it depends on which units the design
/// samples: these are real runs, where no census can stand in.
pub(crate) fn stale_bias(
    sim: &SmartsSim,
    bench: &Benchmark,
    w: u64,
    n: u64,
    phases: u64,
    truth: f64,
) -> f64 {
    let base = SamplingParams::for_sample_size(bench.approx_len(), U, w, Warming::None, n, 0)
        .expect("valid parameters");
    let estimates: Vec<f64> = (0..phases)
        .map(|i| (1 + i * base.interval / phases).min(base.interval - 1))
        .filter_map(|j| {
            let params = base.with_offset(j).ok()?;
            sim.sample(bench, &params).ok().map(|r| r.cpi().mean())
        })
        .collect();
    bias(&estimates, truth) / truth
}

/// Table 3: the two machines as configured in `smarts-uarch`, with the
/// derived quantities the paper quotes in the text (the Section 4.4
/// warming bound and the recommended W).
pub fn table3(_: &HarnessArgs, _: &RefCache) -> Result {
    let mut out = Output::new("Table 3", "Machine configurations");
    type Cell = fn(&MachineConfig) -> String;
    let rows: [(&str, Cell); 12] = [
        ("RUU/LSQ", |c| format!("{}/{}", c.ruu_size, c.lsq_size)),
        ("L1 I/D", |c| {
            let l1 = &c.l1d;
            format!(
                "{}KB {}-way, {} ports",
                l1.size_bytes >> 10,
                l1.assoc,
                c.l1d_ports
            )
        }),
        ("MSHRs", |c| c.mshrs.to_string()),
        ("L2", |c| {
            format!("{}M {}-way", c.l2.size_bytes >> 20, c.l2.assoc)
        }),
        ("Store buffer", |c| format!("{}-entry", c.store_buffer)),
        ("ITLB/DTLB", |c| {
            let (i, d) = (&c.itlb, &c.dtlb);
            format!("{}-way {}/{} entries", i.assoc, i.entries, d.entries)
        }),
        ("TLB miss", |c| format!("{} cycles", c.itlb.miss_penalty)),
        ("L1/L2/mem latency", |c| {
            let (l1, l2) = (c.l1d.latency, c.l2.latency);
            format!("{l1}/{l2}/{} cycles", c.mem_latency)
        }),
        ("Functional units", |c| {
            format!(
                "{} I-ALU, {} I-MUL/DIV, {} FP-ALU, {} FP-MUL/DIV",
                c.int_alu_units, c.int_muldiv_units, c.fp_alu_units, c.fp_muldiv_units
            )
        }),
        ("Branch predictor", |c| {
            let b = &c.bpred;
            let per = b.predictions_per_cycle;
            format!(
                "Combined {}K tables, {}-cycle mispred, {per} pred{}/cycle",
                b.bimodal_entries >> 10,
                b.mispred_penalty,
                if per == 1 { "" } else { "s" }
            )
        }),
        ("W bound (Sec 4.4)", |c| {
            format!("{} instructions", c.detailed_warming_bound())
        }),
        ("recommended W", |c| {
            format!("{} instructions", c.recommended_detailed_warming())
        }),
    ];
    let (e, s) = (MachineConfig::eight_way(), MachineConfig::sixteen_way());
    let d = &mut out.det;
    writeln!(
        d,
        "{:<26} {:<30} {:<30}",
        "Parameter", "8-way (baseline)", "16-way"
    )?;
    for (i, (label, cell)) in rows.into_iter().enumerate() {
        // A blank line sets the derived warming quantities apart.
        if i == 10 {
            writeln!(d)?;
        }
        writeln!(d, "{label:<26} {:<30} {:<30}", cell(&e), cell(&s))?;
    }
    Ok(out)
}

/// Fine base unit of the V(U) figures: per-unit CPI traces at U₀ = 10
/// aggregate to every larger U.
const BASE_UNIT: u64 = 10;

/// Figure 2: V_CPI(U) per benchmark from a full-detail reference trace at
/// U₀ = 10, plus the intraclass correlation δ at a sampling-relevant
/// interval (Section 2's homogeneity check).
pub fn fig2(args: &HarnessArgs, cache: &RefCache) -> Result {
    const FACTORS: &[usize] = &[1, 10, 100, 1_000, 10_000, 100_000];
    let mut out = Output::new(
        "Figure 2",
        "Coefficient of variation of CPI vs sampling unit size U (8-way)",
    );
    let sim = SmartsSim::new(args.config.configs().remove(0));
    let d = &mut out.det;
    write!(d, "{:<12}", "benchmark")?;
    for &f in FACTORS {
        write!(d, "{:>12}", format!("U={}", BASE_UNIT * f as u64))?;
    }
    writeln!(d, "{:>12}", "delta")?;
    for bench in args.suite() {
        let reference = cache.get(&sim, &bench, BASE_UNIT);
        let curve = variation_curve(&reference.unit_cpis, BASE_UNIT, FACTORS);
        write!(d, "{:<12}", bench.name())?;
        for &f in FACTORS {
            let u = BASE_UNIT * f as u64;
            match curve.iter().find(|p| p.unit_size == u) {
                Some(p) => write!(d, "{:>12.4}", p.coefficient_of_variation)?,
                None => write!(d, "{:>12}", "-")?,
            }
        }
        // δ over U = 1000 units at the interval of a 30-unit design.
        let per_1000: Vec<f64> = reference
            .unit_cpis
            .chunks_exact(100)
            .map(|c| c.iter().sum::<f64>() / c.len() as f64)
            .collect();
        let interval = (per_1000.len() / 30).max(2);
        writeln!(d, "{:>12.2e}", intraclass_correlation(&per_1000, interval))?;
    }
    d.push_str(
        "\n(expected shape: steep fall to U≈1000, flat beyond; phased-* stays high at large U)\n",
    );
    Ok(out)
}

/// Figure 3: `n·U = U·(z·V/ε)²` at U = 10 for the figure's four
/// confidence targets, and the ±3% @ 99.7% requirement as a fraction of
/// the stream.
pub fn fig3(args: &HarnessArgs, cache: &RefCache) -> Result {
    let mut out = Output::new(
        "Figure 3",
        "Minimum measured instructions (n·U at U=10) for common confidence targets (8-way)",
    );
    let sim = SmartsSim::new(args.config.configs().remove(0));
    let targets = [
        ("±1% @99.7%", 0.01, Confidence::THREE_SIGMA),
        ("±3% @99.7%", 0.03, Confidence::THREE_SIGMA),
        ("±1% @95%", 0.01, Confidence::NINETY_FIVE),
        ("±3% @95%", 0.03, Confidence::NINETY_FIVE),
    ];
    let d = &mut out.det;
    write!(d, "{:<12}{:>8}{:>10}", "benchmark", "V(U=10)", "length")?;
    for (label, _, _) in &targets {
        write!(d, "{label:>14}")?;
    }
    writeln!(d, "{:>12}", "%len @3/99.7")?;
    for bench in args.suite() {
        let reference = cache.get(&sim, &bench, BASE_UNIT);
        let stats: RunningStats = reference.unit_cpis.iter().copied().collect();
        let v = stats.coefficient_of_variation();
        let length = reference.instructions as f64;
        write!(d, "{:<12}{v:>8.3}{:>9.1}M", bench.name(), length / 1e6)?;
        let mut measured = [0; 4];
        for (m, (_, eps, conf)) in measured.iter_mut().zip(&targets) {
            *m = required_sample_size(v, *eps, *conf).expect("valid target") * BASE_UNIT;
            write!(d, "{m:>14}")?;
        }
        writeln!(d, "{:>12}", upct((measured[1] as f64 / length).min(1.0)))?;
    }
    d.push_str(
        "\n(paper: worst case ≤0.1% of the stream for ±1%@99.7%; ours scales with stream length — the\n \
         absolute n·U is length-independent, so the fraction shrinks as streams grow toward SPEC2K size)\n",
    );
    Ok(out)
}

/// Figure 4: the Section 3.4 model's simulation rate vs detailed warming
/// W at n = 10,000, U = 1000 on a 10G stream — the paper's three curves,
/// then the same curves at S_D and S_FW measured where it runs.
pub fn fig4(args: &HarnessArgs, _: &RefCache) -> Result {
    fn curves(d: &mut String, today: SpeedupModel, future: SpeedupModel) -> fmt::Result {
        const W_POINTS: &[f64] = &[0.0, 1e3, 3e3, 1e4, 3e4, 1e5, 3e5, 1e6, 3e6, 1e7];
        let (n, u, stream) = (10_000.0, U as f64, 10e9);
        writeln!(
            d,
            "{:>10} {:>14} {:>14} {:>14}",
            "W", "S_D=1/60", "S_D=1/600", "S_FW (W=2000)"
        )?;
        for &w in W_POINTS {
            let now = today.detailed_warming_rate(n, u, w, stream);
            let later = future.detailed_warming_rate(n, u, w, stream);
            // Functional warming bounds W to 2000 regardless of the sweep.
            let fw = today.functional_warming_rate(n, u, 2000.0, stream);
            writeln!(d, "{w:>10.0} {now:>14.4} {later:>14.4} {fw:>14.4}")?;
        }
        Ok(())
    }
    let mut out = Output::new(
        "Figure 4",
        "Modeled SMARTS simulation rate vs detailed warming W (n=10,000, U=1000, 10G stream)",
    );
    out.det
        .push_str("--- paper parameters (S_D = 1/60 and 1/600, S_FW = 0.55) ---\n");
    curves(&mut out.det, SpeedupModel::paper(), SpeedupModel::future())?;
    out.det.push_str(
        "\n(shape check: rate collapses toward S_D as W grows — earlier and harder for the\n \
         slower detailed simulator — while the functional-warming curve stays flat near S_FW)\n",
    );

    let sim = SmartsSim::new(MachineConfig::eight_way());
    let probe = find("hashp-2")
        .expect("probe benchmark")
        .scaled(args.scale().min(0.5));
    let (t_func, n_func) = sim.time_functional(&probe);
    let (t_fw, _) = sim.time_functional_warming(&probe);
    let t_detail = sim.reference(&probe, U).wall;
    let s_fw = t_func.as_secs_f64() / t_fw.as_secs_f64();
    let s_d = t_func.as_secs_f64() / t_detail.as_secs_f64();
    let h = &mut out.host;
    writeln!(h, "--- measured on this host (probe: {}) ---", probe.name())?;
    let mips_f = n_func as f64 / t_func.as_secs_f64() / 1e6;
    writeln!(
        h,
        "S_F = {mips_f:.1} MIPS, S_FW = {s_fw:.3}, S_D = 1/{:.0}",
        1.0 / s_d
    )?;
    let future = SpeedupModel {
        s_d: s_d / 10.0,
        s_fw,
    };
    curves(h, SpeedupModel { s_d, s_fw }, future)?;
    Ok(out)
}

/// Figure 5: the detail fraction `n(U)·(U+W)/N` (±3% @ 99.7%) vs U for
/// several W on one benchmark, and the optimal U per benchmark for W =
/// 1000 and W = 100,000 — with and without functional warming.
pub fn fig5(args: &HarnessArgs, cache: &RefCache) -> Result {
    const U_FACTORS: &[usize] = &[1, 10, 100, 1_000, 10_000];
    // V(U) is a property of the workload, not the stream length, so V
    // measured on our short streams is evaluated at a SPEC2K-scale N;
    // our own N would clamp every fraction at 100%.
    const NOMINAL_STREAM: f64 = 10e9;
    let sim = SmartsSim::new(MachineConfig::eight_way());
    let fractions = |bench: &Benchmark, w: u64| -> Vec<(u64, f64)> {
        let reference = cache.get(&sim, bench, BASE_UNIT);
        variation_curve(&reference.unit_cpis, BASE_UNIT, U_FACTORS)
            .into_iter()
            .map(|p| {
                let n = required_sample_size(
                    p.coefficient_of_variation,
                    EPSILON,
                    Confidence::THREE_SIGMA,
                )
                .expect("valid target");
                let fraction = n as f64 * (p.unit_size + w) as f64 / NOMINAL_STREAM;
                (p.unit_size, fraction.min(1.0))
            })
            .collect()
    };
    let mut out = Output::new(
        "Figure 5",
        "Detail fraction n(U)·(U+W)/N vs U at SPEC2K-scale N = 10G, with V(U) measured here (±3% @ 99.7%)",
    );
    let d = &mut out.det;
    // The left chart's benchmark: the paper uses gcc-1, we use hashp-1
    // (or the first of a --bench selection).
    let suite = args.suite();
    let focus = suite
        .iter()
        .find(|b| b.name() == "hashp-1")
        .unwrap_or(suite.first().expect("nonempty suite"));
    writeln!(d, "--- detail fraction vs U for {} ---", focus.name())?;
    write!(d, "{:>10}", "U")?;
    let ws = [0u64, 1_000, 10_000, 100_000];
    for w in ws {
        write!(d, "{:>14}", format!("W={w}"))?;
    }
    writeln!(d)?;
    let sweeps: Vec<Vec<(u64, f64)>> = ws.iter().map(|&w| fractions(focus, w)).collect();
    for i in 0..sweeps[0].len() {
        write!(d, "{:>10}", sweeps[0][i].0)?;
        for sweep in &sweeps {
            write!(d, "{:>13.4}%", sweep[i].1 * 100.0)?;
        }
        writeln!(d)?;
    }

    writeln!(d, "\n--- optimal U per benchmark ---")?;
    writeln!(
        d,
        "{:<12}{:>14}{:>14}{:>18}",
        "benchmark", "U* (W=1000)", "U* (W=100k)", "U=1000 overhead"
    )?;
    let best = |sweep: &[(u64, f64)]| -> (u64, f64) {
        sweep
            .iter()
            .copied()
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite fractions"))
            .expect("nonempty sweep")
    };
    for bench in &suite {
        let sweep = fractions(bench, 1_000);
        let (u1, best1) = best(&sweep);
        let (u2, _) = best(&fractions(bench, 100_000));
        // How much more of the stream does fixing U=1000 cost vs optimal?
        let at_1000 = sweep.iter().find(|p| p.0 == 1000).map_or(best1, |p| p.1);
        let overhead = if best1 > 0.0 { at_1000 / best1 } else { 1.0 };
        writeln!(d, "{:<12}{u1:>14}{u2:>14}{overhead:>17.2}x", bench.name())?;
    }
    d.push_str(
        "\n(paper: optimal U in 100..10,000 for non-zero W, increasing with W; fixing U=1000\n \
         costs only a small constant factor of detail — i.e. minutes of run time)\n",
    );
    Ok(out)
}

/// Table 4: without functional warming, the detailed warming W each
/// benchmark needs before its 3-phase bias falls below ±1.5%. The W grid
/// is scaled ~10³× down with our streams (W must fit between units).
pub fn table4(args: &HarnessArgs, cache: &RefCache) -> Result {
    const W_GRID: &[u64] = &[0, 1_000, 4_000, 16_000, 64_000];
    let mut out = Output::new(
        "Table 4",
        "Required detailed warming W for <1.5% bias, without functional warming (8-way)",
    );
    let sim = SmartsSim::new(MachineConfig::eight_way());
    let d = &mut out.det;
    writeln!(
        d,
        "{:<12}{:>10}{:>12}   bias trajectory over the W grid",
        "benchmark", "W needed", "bias at W"
    )?;
    let last = W_GRID[W_GRID.len() - 1];
    let mut groups: Vec<(String, Option<u64>)> = Vec::new();
    for bench in args.suite() {
        let truth = cache.get(&sim, &bench, U).cpi;
        let n = (bench.approx_len() / U / 20).clamp(if args.quick { 10 } else { 30 }, 300);
        let (mut needed, mut at_w, mut trajectory) = (None, f64::NAN, String::new());
        for &w in W_GRID {
            at_w = stale_bias(&sim, &bench, w, n, 3, truth);
            write!(trajectory, " {}", pct(at_w))?;
            if at_w.abs() < 0.015 {
                needed = Some(w);
                break;
            }
        }
        let label = needed.map_or(format!(">{last}"), |w| w.to_string());
        let name = bench.name();
        writeln!(d, "{name:<12}{label:>10}{:>12}  {trajectory}", pct(at_w))?;
        groups.push((name.to_string(), needed));
    }
    writeln!(d, "\n--- grouped by required W (Table 4 format) ---")?;
    for (op, w, needed) in W_GRID
        .iter()
        .map(|&w| ("<=", w, Some(w)))
        .chain([("> ", last, None)])
    {
        let members: Vec<&str> = groups
            .iter()
            .filter(|g| g.1 == needed)
            .map(|g| g.0.as_str())
            .collect();
        if !members.is_empty() {
            writeln!(d, "W {op} {w:<8} {}", members.join(", "))?;
        }
    }
    d.push_str(
        "\n(paper: the spread across rows is the point — without functional warming, W is\n \
         workload-dependent and cannot be chosen a priori)\n",
    );
    Ok(out)
}

/// Table 5: residual CPI bias with functional warming and the recommended
/// W (2000 / 4000), as census bias ([`smarts_bench::Census::bias`]: the
/// mean error over every systematic phase); any benchmark above ±1.5% is
/// measured again at the Section 4.4 analytic bound.
pub fn table5(args: &HarnessArgs, cache: &RefCache) -> Result {
    let mut out = Output::new(
        "Table 5",
        "CPI bias with functional warming and minimal detailed warming\n\
         (census bias: the mean CPI of every unit but the cold unit 0, against the reference's)",
    );
    let d = &mut out.det;
    for cfg in args.config.configs() {
        let sim = SmartsSim::new(cfg.clone());
        let w = cfg.recommended_detailed_warming();
        let bias = |bench: &Benchmark, w| cache.census(&sim, bench, U, w).bias();
        writeln!(d, "--- {} (W = {w}) ---", cfg.name)?;
        let mut rows: Vec<(Benchmark, f64)> = args
            .suite()
            .into_iter()
            .map(|bench| {
                let b = bias(&bench, w);
                (bench, b)
            })
            .collect();
        rows.sort_by(|a, b| b.1.abs().partial_cmp(&a.1.abs()).expect("finite bias"));
        let shown = rows.len().min(10);
        for (bench, b) in &rows[..shown] {
            writeln!(d, "  {:<12} {}", bench.name(), pct(*b))?;
        }
        if rows.len() > shown {
            let rest = mean_abs(&rows[shown..], |r| r.1);
            writeln!(d, "  {:<12} {}", "avg. rest", pct(rest))?;
        }
        let worst = rows.first().map_or(0.0, |r| r.1.abs());
        let over_1pct = rows.iter().filter(|r| r.1.abs() > 0.01).count();
        writeln!(
            d,
            "  summary: worst |bias| = {}, {over_1pct} benchmark(s) above |1%|",
            pct(worst)
        )?;
        // Section 4.4's analytic escape hatch: a benchmark still biased at
        // the empirical W must fall below the worst-case bound
        // store_buffer × mem_latency × max IPC.
        let w_bound = cfg.detailed_warming_bound();
        let offenders: Vec<_> = rows.iter().filter(|r| r.1.abs() > 0.015).collect();
        if !offenders.is_empty() {
            writeln!(d, "  --- at the analytic bound W = {w_bound} ---")?;
        }
        for (bench, old) in offenders {
            let new = bias(bench, w_bound);
            writeln!(d, "  {:<12} {} -> {}", bench.name(), pct(*old), pct(new))?;
        }
        writeln!(d)?;
    }
    d.push_str("(paper: all biases under ±2.0%, ≤6 benchmarks per configuration above ±1.0%)\n");
    Ok(out)
}

/// Figure 6: CPI error against the full-detail reference and the
/// predicted 99.7% interval of one n_init run per benchmark, worst
/// interval first, then the n_tuned rerun (Section 5.1's step 2) of every
/// benchmark whose interval misses ±3%.
pub fn fig6(args: &HarnessArgs, cache: &RefCache) -> Result {
    let mut out = Output::new(
        "Figure 6",
        "SMARTS CPI error and 99.7% confidence interval across the suite (n_init run)",
    );
    let d = &mut out.det;
    let conf = Confidence::THREE_SIGMA;
    let n_init = n_init(args);
    for cfg in args.config.configs() {
        let sim = SmartsSim::new(cfg.clone());
        let w = cfg.recommended_detailed_warming();
        writeln!(
            d,
            "--- {} (n_init = {n_init}, U = 1000, W = {w}) ---",
            cfg.name
        )?;
        writeln!(
            d,
            "  {:<12}{:>10}{:>12}{:>12}{:>8}",
            "benchmark", "CPI", "actual err", "interval", "V̂"
        )?;
        // (benchmark, CPI, error, interval, V̂)
        let mut rows: Vec<(Benchmark, f64, f64, f64, f64)> = Vec::new();
        for bench in args.suite() {
            let truth = cache.get(&sim, &bench, U).cpi;
            let params = offset_one(&cfg, &bench, n_init);
            let census = cache.census(&sim, &bench, U, w);
            let est = census.sample(&params).expect("sampling succeeds").cpi();
            let interval = est.achieved_epsilon(conf).expect("valid confidence");
            let (cpi, v) = (est.mean(), est.coefficient_of_variation());
            rows.push((bench, cpi, (cpi - truth) / truth, interval, v));
        }
        rows.sort_by(|a, b| b.3.partial_cmp(&a.3).expect("finite intervals"));
        let shown = rows.len().min(12);
        for (bench, cpi, err, interval, v) in &rows[..shown] {
            let (name, err, interval) = (bench.name(), pct(*err), format!("±{}", upct(*interval)));
            writeln!(d, "  {name:<12}{cpi:>10.3}{err:>12}{interval:>12}{v:>8.2}")?;
        }
        if rows.len() > shown {
            let rest = &rows[shown..];
            let (err, interval) = (mean_abs(rest, |r| r.2), mean_abs(rest, |r| r.3));
            let interval = format!("±{}", upct(interval));
            writeln!(
                d,
                "  {:<12}{:>10}{:>12}{interval:>12}",
                "avg. rest",
                "-",
                upct(err)
            )?;
        }
        writeln!(
            d,
            "  mean |actual error| = {}",
            upct(mean_abs(&rows, |r| r.2))
        )?;

        let offenders: Vec<_> = rows.iter().filter(|r| r.3 > EPSILON).collect();
        if offenders.is_empty() {
            writeln!(
                d,
                "  (all intervals within ±{}; no n_tuned rerun needed)",
                upct(EPSILON)
            )?;
        } else {
            writeln!(
                d,
                "  --- n_tuned reruns for intervals beyond ±{} ---",
                upct(EPSILON)
            )?;
        }
        for (bench, ..) in offenders {
            let truth = cache.get(&sim, bench, U).cpi;
            let params = SamplingParams::paper_defaults(&cfg, bench.approx_len(), n_init)
                .expect("valid parameters");
            let census = cache.census(&sim, bench, U, w);
            let outcome = TwoStepOutcome::run(bench.approx_len(), &params, EPSILON, conf, |p| {
                census.sample(p)
            })
            .expect("two-step succeeds");
            let best = outcome.best();
            let est = best.cpi();
            writeln!(
                d,
                "  {:<12} n_tuned = {:>5}  err {}  interval ±{}",
                bench.name(),
                best.sample_size(),
                pct((est.mean() - truth) / truth),
                upct(est.achieved_epsilon(conf).expect("valid confidence")),
            )?;
        }
        writeln!(d)?;
    }
    d.push_str(
        "(paper: n_init achieves ±3% for most benchmarks; actual error ≪ predicted interval;\n \
         high-V̂ outliers — our phased-*, the paper's ammp/vpr/gcc-2 — need the tuned rerun)\n",
    );
    Ok(out)
}

/// Figure 7: Figure 6's presentation for energy per instruction (8-way).
pub fn fig7(args: &HarnessArgs, cache: &RefCache) -> Result {
    let mut out = Output::new(
        "Figure 7",
        "SMARTS EPI (nJ/instruction) error and 99.7% confidence interval (8-way, n_init run)",
    );
    let d = &mut out.det;
    let cfg = MachineConfig::eight_way();
    let sim = SmartsSim::new(cfg.clone());
    writeln!(
        d,
        "{:<12}{:>12}{:>12}{:>12}{:>14}{:>14}",
        "benchmark", "EPI (nJ)", "actual err", "interval", "V̂_EPI", "V̂_CPI"
    )?;
    // (benchmark, EPI, error, interval, V̂_EPI, V̂_CPI)
    let mut rows: Vec<(Benchmark, f64, f64, f64, f64, f64)> = Vec::new();
    for bench in args.suite() {
        let truth = cache.get(&sim, &bench, U).epi;
        let params = offset_one(&cfg, &bench, n_init(args));
        let census = cache.census(&sim, &bench, U, cfg.recommended_detailed_warming());
        let report = census.sample(&params).expect("sampling succeeds");
        let epi = report.epi();
        rows.push((
            bench,
            epi.mean(),
            (epi.mean() - truth) / truth,
            epi.achieved_epsilon(Confidence::THREE_SIGMA)
                .expect("valid confidence"),
            epi.coefficient_of_variation(),
            report.cpi().coefficient_of_variation(),
        ));
    }
    rows.sort_by(|a, b| b.3.partial_cmp(&a.3).expect("finite intervals"));
    let shown = rows.len().min(12);
    for (bench, epi, err, interval, v_epi, v_cpi) in &rows[..shown] {
        let (name, err, interval) = (bench.name(), pct(*err), format!("±{}", upct(*interval)));
        writeln!(
            d,
            "{name:<12}{epi:>12.2}{err:>12}{interval:>12}{v_epi:>14.3}{v_cpi:>14.3}"
        )?;
    }
    if rows.len() > shown {
        let rest = upct(mean_abs(&rows[shown..], |r| r.2));
        writeln!(d, "{:<12}{:>12}{rest:>12}", "avg. rest", "-")?;
    }
    let tighter = rows.iter().filter(|r| r.4 <= r.5).count();
    writeln!(
        d,
        "\nmean |actual EPI error| = {}",
        upct(mean_abs(&rows, |r| r.2))
    )?;
    writeln!(
        d,
        "EPI variation at or below CPI variation on {tighter}/{} benchmarks",
        rows.len()
    )?;
    d.push_str("\n(paper: EPI intervals tighter than CPI's; average EPI error 0.59%)\n");
    Ok(out)
}

/// Table 6: stream length and detail fraction of each benchmark's n_init
/// run; on the host, wall clock for full detail, functional simulation,
/// functional warming and SMARTS (8-way). The paper's hours are not
/// reproducible by construction; its ratios are what must hold.
pub fn table6(args: &HarnessArgs, cache: &RefCache) -> Result {
    let secs = |d: Duration| format!("{:.2}s", d.as_secs_f64());
    let mut out = Output::new(
        "Table 6",
        "Runtimes for SMARTS compared to detailed and functional simulation (8-way)",
    );
    let cfg = MachineConfig::eight_way();
    let sim = SmartsSim::new(cfg.clone());
    let d = &mut out.det;
    writeln!(
        d,
        "{:<12}{:>12}{:>8}{:>12}",
        "benchmark", "instrs", "n", "in detail"
    )?;
    // (benchmark, instructions, [detailed, functional, warming, SMARTS])
    let mut rows = Vec::new();
    for bench in args.suite() {
        let detailed = cache.get(&sim, &bench, U).wall;
        let (functional, instrs) = sim.time_functional(&bench);
        let (warming, _) = sim.time_functional_warming(&bench);
        let params = SamplingParams::paper_defaults(&cfg, bench.approx_len(), n_init(args))
            .expect("valid parameters");
        let report = sim.sample(&bench, &params).expect("sampling succeeds");
        let mode = &report.instructions;
        let in_detail = (mode.detailed_warmed + mode.measured) as f64 / instrs as f64;
        let n = report.sample_size();
        writeln!(
            d,
            "{:<12}{instrs:>12}{n:>8}{:>12}",
            bench.name(),
            upct(in_detail)
        )?;
        let smarts = report.wall_total();
        rows.push((bench, instrs, [detailed, functional, warming, smarts]));
    }
    d.push_str(
        "\n(paper, at 2–547G-instruction scale: detailed avg 7.2 days, SMARTS avg 5.0 hours,\n \
         SMARTS ≈ 50% of functional speed. Our speedup grows with --scale: the detailed\n \
         column scales linearly with stream length, SMARTS's detailed work does not.)\n",
    );

    let h = &mut out.host;
    h.push_str("benchmark       instrs    detailed  functional     warming      SMARTS");
    h.push_str("     speedup SMARTS MIPS\n");
    rows.sort_by_key(|row| std::cmp::Reverse(row.2[0]));
    for (bench, instrs, walls) in &rows {
        let instrs = *instrs as f64;
        write!(h, "{:<12}{:>9.1}M", bench.name(), instrs / 1e6)?;
        for &wall in walls {
            write!(h, "{:>12}", secs(wall))?;
        }
        let [detailed, .., smarts] = walls.map(|t| t.as_secs_f64());
        writeln!(
            h,
            "{:>11.1}x{:>12.1}",
            detailed / smarts,
            instrs / smarts / 1e6
        )?;
    }
    let [detailed, func, warm, smarts]: [Duration; 4] =
        std::array::from_fn(|i| rows.iter().map(|r| r.2[i]).sum());
    let instrs: u64 = rows.iter().map(|r| r.1).sum();
    writeln!(
        h,
        "\ntotals: detailed {} | functional {} | warming {} | SMARTS {}",
        secs(detailed),
        secs(func),
        secs(warm),
        secs(smarts)
    )?;
    let ratio = |a: Duration, b: Duration| a.as_secs_f64() / b.as_secs_f64();
    writeln!(
        h,
        "suite-wide: SMARTS/functional slowdown {:.2}x, detailed/SMARTS speedup {:.1}x, effective {:.1} MIPS",
        ratio(smarts, func),
        ratio(detailed, smarts),
        instrs as f64 / smarts.as_secs_f64() / 1e6,
    )?;
    // SMARTS cannot run faster than functional warming, nor full detail
    // slower than S_D, so the Section 3.4 model caps its speedup at
    // S_FW/S_D = T_detailed / T_warming.
    writeln!(
        h,
        "Section 3.4 cap: S_FW = {:.3}, S_D = 1/{:.0}, S_FW/S_D = {:.1}x",
        ratio(func, warm),
        ratio(detailed, func),
        ratio(detailed, warm),
    )?;
    Ok(out)
}

/// Figure 8: SimPoint vs SMARTS CPI error against the full-detail
/// reference (8-way), worst SimPoint error first.
pub fn fig8(args: &HarnessArgs, cache: &RefCache) -> Result {
    let mut out = Output::new("Figure 8", "CPI error: SimPoint vs SMARTS (8-way)");
    let cfg = MachineConfig::eight_way();
    let sim = SmartsSim::new(cfg.clone());
    let d = &mut out.det;
    writeln!(
        d,
        "{:<12}{:>14}{:>14}{:>12}{:>14}",
        "benchmark", "SimPoint err", "SMARTS err", "SP k", "SMARTS ±CI"
    )?;
    let (mut sp_wall, mut sm_wall) = (Duration::ZERO, Duration::ZERO);
    // (benchmark, SimPoint error, SMARTS error, SimPoint k, SMARTS interval)
    let mut rows = Vec::new();
    for bench in args.suite() {
        let truth = cache.get(&sim, &bench, U).cpi;
        let sp_config = SimPointConfig {
            interval: (bench.approx_len() / 40).clamp(10_000, 200_000),
            ..SimPointConfig::default()
        };
        let sp = estimate_cpi(&sim, &bench, &sp_config);
        sp_wall += sp.wall_profile + sp.wall_measure;
        let params = offset_one(&cfg, &bench, n_init(args));
        let report = sim.sample(&bench, &params).expect("sampling succeeds");
        sm_wall += report.wall_total();
        let est = report.cpi();
        let interval = est
            .achieved_epsilon(Confidence::THREE_SIGMA)
            .expect("valid confidence");
        let (sp_err, sm_err) = ((sp.cpi - truth) / truth, (est.mean() - truth) / truth);
        rows.push((bench, sp_err, sm_err, sp.selection.k, interval));
    }
    let (sp_mean, sm_mean) = (mean_abs(&rows, |r| r.1), mean_abs(&rows, |r| r.2));
    let sp_max = rows.iter().map(|r| r.1.abs()).fold(0.0, f64::max);
    let sm_max = rows.iter().map(|r| r.2.abs()).fold(0.0, f64::max);
    rows.sort_by(|a, b| b.1.abs().partial_cmp(&a.1.abs()).expect("finite errors"));
    for (bench, sp_err, sm_err, k, interval) in &rows {
        let (sp_err, sm_err) = (pct(*sp_err), pct(*sm_err));
        let (name, interval) = (bench.name(), format!("±{}", upct(*interval)));
        writeln!(d, "{name:<12}{sp_err:>14}{sm_err:>14}{k:>12}{interval:>14}")?;
    }
    writeln!(
        d,
        "\nmean |error|: SimPoint {} vs SMARTS {}",
        upct(sp_mean),
        upct(sm_mean)
    )?;
    writeln!(
        d,
        "worst |error|: SimPoint {} vs SMARTS {}",
        upct(sp_max),
        upct(sm_max)
    )?;
    d.push_str(
        "\n(paper: SimPoint mean 3.7% / worst −14.3%; SMARTS mean 0.6%; SimPoint ≈1.8× faster\n \
         per run but with no confidence measure — the phased-* rows show the failure mode)\n",
    );
    let per_bench = |t: Duration| t.as_secs_f64() / rows.len() as f64;
    writeln!(
        out.host,
        "mean runtime per benchmark: SimPoint {:.2}s vs SMARTS {:.2}s",
        per_bench(sp_wall),
        per_bench(sm_wall)
    )?;
    Ok(out)
}
