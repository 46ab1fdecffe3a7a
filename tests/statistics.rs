//! Cross-crate statistical properties: the Section 2/3 machinery applied
//! to real simulator populations.

use smarts::prelude::*;
use smarts::stats::{intraclass_correlation, systematic_sample_means, variation_curve};

fn sim() -> SmartsSim {
    SmartsSim::new(MachineConfig::eight_way())
}

#[test]
fn variation_curve_falls_and_flattens() {
    // The Figure 2 shape on a real population: V(U) decreases with U.
    let bench = find("hashp-2").unwrap().scaled(0.15);
    let reference = sim().reference(&bench, 100);
    let curve = variation_curve(&reference.unit_cpis, 100, &[1, 2, 5, 10, 50, 100]);
    assert!(curve.len() >= 4);
    for pair in curve.windows(2) {
        assert!(
            pair[1].coefficient_of_variation <= pair[0].coefficient_of_variation * 1.25,
            "V(U) should not grow: {:?} -> {:?}",
            pair[0],
            pair[1]
        );
    }
    let first = curve.first().unwrap().coefficient_of_variation;
    let last = curve.last().unwrap().coefficient_of_variation;
    assert!(
        last < first,
        "V should fall from {first} to below it, got {last}"
    );
}

#[test]
fn phased_workload_keeps_variation_at_large_u() {
    // The ammp/vpr tail of Figure 2: phase alternation keeps V(U) high
    // even for large units, defeating single-chunk measurement.
    let bench = find("phased-2").unwrap().scaled(0.25);
    let reference = sim().reference(&bench, 1000);
    let curve = variation_curve(&reference.unit_cpis, 1000, &[1, 10, 30]);
    let v_large = curve.last().unwrap().coefficient_of_variation;
    assert!(
        v_large > 0.3,
        "phased V at U=30k should stay high, got {v_large}"
    );
}

#[test]
fn intraclass_correlation_is_negligible() {
    // Section 2's homogeneity check: δ ≈ 0 at sampling-relevant intervals,
    // so systematic sampling behaves like random sampling.
    let bench = find("branchy-1").unwrap().scaled(0.1);
    let reference = sim().reference(&bench, 1000);
    let delta = intraclass_correlation(&reference.unit_cpis, 20);
    assert!(delta.abs() < 0.1, "delta = {delta}");
}

#[test]
fn systematic_phase_spread_is_within_statistical_expectation() {
    // All k possible systematic samples should estimate close to the true
    // mean when delta is negligible.
    let bench = find("sortk-2").unwrap().scaled(0.1);
    let reference = sim().reference(&bench, 1000);
    let truth = reference.unit_cpis.iter().sum::<f64>() / reference.unit_cpis.len() as f64;
    let means = systematic_sample_means(&reference.unit_cpis, 8);
    for (j, mean) in means.iter().enumerate() {
        let err = (mean - truth).abs() / truth;
        assert!(err < 0.25, "phase {j} mean error {:.1}%", err * 100.0);
    }
}

#[test]
fn required_n_prediction_is_self_consistent() {
    // Measure V̂ with one run, size a second run with required_n, and
    // check the second run achieves (approximately) the target interval.
    let simulator = sim();
    let bench = find("hashp-2").unwrap().scaled(0.3);
    let conf = Confidence::NINETY_FIVE;
    let target = 0.08;

    let probe_params =
        SamplingParams::paper_defaults(simulator.config(), bench.approx_len(), 20).unwrap();
    let probe = simulator.sample(&bench, &probe_params).unwrap();
    let n_needed = probe.cpi().required_n(target, conf).unwrap();

    let sized =
        SamplingParams::paper_defaults(simulator.config(), bench.approx_len(), n_needed.min(200))
            .unwrap();
    let run = simulator.sample(&bench, &sized).unwrap();
    let achieved = run.cpi().achieved_epsilon(conf).unwrap();
    // V̂ itself is noisy; allow 2× slack on the achieved interval.
    assert!(
        achieved < target * 2.0,
        "sized run achieved ±{:.1}% against target ±{:.1}%",
        achieved * 100.0,
        target * 100.0
    );
}

#[test]
fn unit_population_mean_equals_reference_cpi() {
    // The estimator is unbiased over the full population: averaging every
    // unit of the reference trace reproduces the stream CPI.
    let bench = find("stream-2").unwrap().scaled(0.1);
    let reference = sim().reference(&bench, 1000);
    let mean = reference.unit_cpis.iter().sum::<f64>() / reference.unit_cpis.len() as f64;
    assert!((mean - reference.cpi).abs() / reference.cpi < 0.02);
}

#[test]
fn random_and_systematic_designs_agree_on_real_population() {
    // With negligible intraclass correlation, random and systematic
    // designs drawn over the same population estimate the same mean.
    use smarts::stats::RandomDesign;
    let bench = find("branchy-2").unwrap().scaled(0.1);
    let reference = sim().reference(&bench, 1000);
    let pop = &reference.unit_cpis;
    let truth = pop.iter().sum::<f64>() / pop.len() as f64;

    // Every k-th unit, k = ⌊N/n⌋, from phase 0.
    let sys: Vec<f64> = pop
        .iter()
        .copied()
        .step_by((pop.len() / 40).max(1))
        .collect();
    let sys_mean = sys.iter().sum::<f64>() / sys.len() as f64;

    let rnd = RandomDesign::draw(1000, pop.len() as u64, 40, 7).unwrap();
    let rnd_mean: f64 =
        rnd.unit_indices().map(|i| pop[i as usize]).sum::<f64>() / rnd.sample_size() as f64;

    assert!((sys_mean - truth).abs() / truth < 0.15);
    assert!((rnd_mean - truth).abs() / truth < 0.15);
}
