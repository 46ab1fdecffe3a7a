//! Design-choice ablations called out in DESIGN.md §5, beyond the
//! paper's own figures:
//!
//! 1. **Systematic vs random sampling** — Section 2 argues they are
//!    equivalent when the intraclass correlation is negligible; we verify
//!    end-to-end by drawing seeded random unit sets over the reference
//!    population and comparing estimator spread against the k systematic
//!    phases.
//! 2. **Functional warming ablation** — accuracy at fixed cost for
//!    (no warming, detailed-only warming, functional warming), the
//!    Section 4 narrative in one table.
//! 3. **Checkpoint replay fidelity** — TurboSMARTS-style replay of a
//!    warmed checkpoint store versus direct sampling (extension).

use smarts_bench::{banner, upct, HarnessArgs, RefCache};
use smarts_core::{SamplingParams, SmartsSim, Warming};
use smarts_exec::{replay_store, warm_store, Executor};
use smarts_isa::BuiltinIsa;
use smarts_stats::{systematic_sample_means, RandomDesign};
use smarts_uarch::MachineConfig;

fn main() {
    let args = HarnessArgs::parse();
    banner(
        "Ablations",
        "systematic vs random; warming modes; checkpoint replay (8-way)",
    );
    let sim = SmartsSim::new(MachineConfig::eight_way());
    let cache = RefCache::new();
    let suite = args.suite();

    // --- 1: systematic vs random over the reference population ---------
    println!(
        "--- systematic vs random sampling (estimator spread over trials, n per trial = N/20) ---"
    );
    println!(
        "{:<12}{:>16}{:>16}{:>12}",
        "benchmark", "systematic RMSE", "random RMSE", "ratio"
    );
    for bench in suite.iter().take(6) {
        let reference = cache.get(&sim, bench, 1000);
        let pop = &reference.unit_cpis;
        if pop.len() < 60 {
            continue;
        }
        let truth: f64 = pop.iter().sum::<f64>() / pop.len() as f64;
        let k = 20usize;
        let n = pop.len() / k;

        let sys_means = systematic_sample_means(pop, k);
        let sys_rmse = (sys_means
            .iter()
            .map(|m| (m - truth) * (m - truth))
            .sum::<f64>()
            / sys_means.len() as f64)
            .sqrt();

        let mut rnd_sq = 0.0;
        let trials = 20;
        for seed in 0..trials {
            let design =
                RandomDesign::draw(1000, pop.len() as u64, n as u64, seed).expect("valid design");
            let mean: f64 = design.unit_indices().map(|i| pop[i as usize]).sum::<f64>()
                / design.sample_size() as f64;
            rnd_sq += (mean - truth) * (mean - truth);
        }
        let rnd_rmse = (rnd_sq / trials as f64).sqrt();
        println!(
            "{:<12}{:>16.5}{:>16.5}{:>12.2}",
            bench.name(),
            sys_rmse,
            rnd_rmse,
            sys_rmse / rnd_rmse.max(1e-12)
        );
    }
    println!("(expected: ratio ≈ 1 — systematic sampling behaves like random when δ ≈ 0)");
    println!();

    // --- 2: warming-mode accuracy at fixed measured instructions -------
    println!("--- warming ablation (|CPI error| at n = N/20, j = 1) ---");
    println!(
        "{:<12}{:>12}{:>16}{:>18}",
        "benchmark", "no warming", "detailed W=16k", "functional W=2k"
    );
    for bench in suite.iter().take(6) {
        let truth = cache.get(&sim, bench, 1000).cpi;
        let n = (bench.approx_len() / 1000 / 20).max(10);
        let mut errors = Vec::new();
        for (warming, w) in [
            (Warming::None, 0u64),
            (Warming::None, 16_000),
            (Warming::Functional, 2_000),
        ] {
            let params =
                SamplingParams::for_sample_size(bench.approx_len(), 1000, w, warming, n, 1)
                    .expect("valid parameters");
            let report = sim.sample(bench, &params).expect("sampling succeeds");
            errors.push((report.cpi().mean() - truth).abs() / truth);
        }
        println!(
            "{:<12}{:>12}{:>16}{:>18}",
            bench.name(),
            upct(errors[0]),
            upct(errors[1]),
            upct(errors[2])
        );
    }
    println!("(expected: functional warming matches or beats 8x as much detailed warming)");
    println!();

    // --- 3: checkpoint replay fidelity ---------------------------------
    println!("--- checkpoint replay vs direct sampling ---");
    println!(
        "{:<12}{:>14}{:>14}{:>16}{:>14}",
        "benchmark", "direct CPI", "replay CPI", "divergence", "replay speed"
    );
    let store = std::env::temp_dir().join(format!("smarts-ablation-{}.ckpt", std::process::id()));
    for bench in suite.iter().take(4) {
        let n = (bench.approx_len() / 1000 / 30).max(10);
        let params = SamplingParams::for_sample_size(
            bench.approx_len(),
            1000,
            2000,
            Warming::Functional,
            n,
            1,
        )
        .expect("valid parameters");
        let direct = sim.sample(bench, &params).expect("sampling succeeds");
        // Warm once into a store, then time the replay alone: what a
        // second design point on the same warm geometry would pay.
        let one = Executor::new(1).expect("executor");
        warm_store::<BuiltinIsa>(&one, &sim, bench.name(), args.scale, &params, &store)
            .expect("warming pass");
        let replay = replay_store::<BuiltinIsa>(&one, &sim, &store)
            .expect("replay succeeds")
            .report
            .report;
        let divergence = (direct.cpi().mean() - replay.cpi().mean()).abs() / direct.cpi().mean();
        println!(
            "{:<12}{:>14.4}{:>14.4}{:>16}{:>13.1}x",
            bench.name(),
            direct.cpi().mean(),
            replay.cpi().mean(),
            upct(divergence),
            direct.wall_total().as_secs_f64() / replay.wall_total().as_secs_f64(),
        );
    }
    std::fs::remove_file(&store).ok();
    println!("(expected: sub-percent divergence; replay speedup grows with stream length)");
    println!();

    // --- 4: wrong-path fetch modelling (the Section 4.5 corroboration) --
    println!("--- wrong-path fetch modelling: full-detail CPI with the knob off vs on ---");
    println!(
        "{:<12}{:>14}{:>14}{:>12}",
        "benchmark", "CPI (off)", "CPI (on)", "delta"
    );
    let mut wp_cfg = MachineConfig::eight_way();
    wp_cfg.model_wrong_path = true;
    wp_cfg.name = "8-way+wp";
    let wp_sim = SmartsSim::new(wp_cfg);
    for bench in suite.iter().take(6) {
        let off = cache.get(&sim, bench, 1000).cpi;
        let on = cache.get(&wp_sim, bench, 1000).cpi;
        println!(
            "{:<12}{:>14.4}{:>14.4}{:>12}",
            bench.name(),
            off,
            on,
            upct((on - off).abs() / off)
        );
    }
    println!("(expected: small deltas — the paper cites Cain et al. that wrong-path effects");
    println!(" on CPI are minimal, and corroborates it in Section 4.5)");
}
