//! End-to-end integration: SMARTS sampling estimates versus full
//! detailed simulation, across crates.
//!
//! Scales are kept tiny so the suite runs quickly in debug builds; the
//! statistically demanding versions of these comparisons live in the
//! `smarts-bench` `repro` experiments.

use smarts::prelude::*;

fn sim() -> SmartsSim {
    SmartsSim::new(MachineConfig::eight_way())
}

/// The estimate must land within the predicted confidence interval plus
/// the warming-bias allowance the paper empirically bounds at ~2%.
fn assert_within_confidence(name: &str, estimate: f64, truth: f64, epsilon: f64) {
    let err = (estimate - truth).abs() / truth;
    let allowance = epsilon + 0.03;
    assert!(
        err <= allowance,
        "{name}: error {:.2}% exceeds interval {:.2}% + bias allowance",
        err * 100.0,
        epsilon * 100.0
    );
}

#[test]
fn sampling_matches_reference_on_steady_benchmark() {
    let sim = sim();
    let bench = find("loopy-1").unwrap().scaled(0.1);
    let params = SamplingParams::paper_defaults(sim.config(), bench.approx_len(), 20).unwrap();
    let report = sim.sample(&bench, &params).unwrap();
    let reference = sim.reference(&bench, 1000);
    let epsilon = report
        .cpi()
        .achieved_epsilon(Confidence::THREE_SIGMA)
        .unwrap();
    assert_within_confidence("loopy-1 CPI", report.cpi().mean(), reference.cpi, epsilon);
    assert_within_confidence("loopy-1 EPI", report.epi().mean(), reference.epi, epsilon);
}

#[test]
fn sampling_matches_reference_on_branchy_benchmark() {
    let sim = sim();
    let bench = find("branchy-1").unwrap().scaled(0.08);
    let params = SamplingParams::paper_defaults(sim.config(), bench.approx_len(), 25).unwrap();
    let report = sim.sample(&bench, &params).unwrap();
    let reference = sim.reference(&bench, 1000);
    let epsilon = report
        .cpi()
        .achieved_epsilon(Confidence::THREE_SIGMA)
        .unwrap();
    assert_within_confidence("branchy-1 CPI", report.cpi().mean(), reference.cpi, epsilon);
}

#[test]
fn sixteen_way_machine_runs_the_same_flow() {
    let sim = SmartsSim::new(MachineConfig::sixteen_way());
    let bench = find("stream-2").unwrap().scaled(0.05);
    let params = SamplingParams::paper_defaults(sim.config(), bench.approx_len(), 15).unwrap();
    assert_eq!(params.detailed_warming, 4000, "16-way W per Section 4.4");
    let report = sim.sample(&bench, &params).unwrap();
    let reference = sim.reference(&bench, 1000);
    let epsilon = report
        .cpi()
        .achieved_epsilon(Confidence::THREE_SIGMA)
        .unwrap();
    assert_within_confidence(
        "stream-2@16 CPI",
        report.cpi().mean(),
        reference.cpi,
        epsilon,
    );
}

#[test]
fn wider_machine_is_not_slower_across_kernels() {
    let sim8 = SmartsSim::new(MachineConfig::eight_way());
    let sim16 = SmartsSim::new(MachineConfig::sixteen_way());
    for name in ["loopy-1", "stream-2"] {
        let bench = find(name).unwrap().scaled(0.03);
        let r8 = sim8.reference(&bench, 1000);
        let r16 = sim16.reference(&bench, 1000);
        assert!(
            r16.cpi <= r8.cpi * 1.15,
            "{name}: 16-way CPI {} vs 8-way {}",
            r16.cpi,
            r8.cpi
        );
    }
}

#[test]
fn memory_bound_benchmark_has_higher_cpi_than_compute_bound() {
    let sim = sim();
    let chase = sim.reference(&find("chase-2").unwrap().scaled(0.03), 1000);
    let loopy = sim.reference(&find("loopy-1").unwrap().scaled(0.03), 1000);
    assert!(
        chase.cpi > loopy.cpi * 2.0,
        "chase {} should dwarf loopy {}",
        chase.cpi,
        loopy.cpi
    );
}

#[test]
fn epi_tracks_but_damps_cpi_variation() {
    // The Figure 7 observation: EPI confidence intervals are tighter than
    // CPI intervals because energy varies less than latency.
    let sim = sim();
    let bench = find("phased-2").unwrap().scaled(0.3);
    let params = SamplingParams::paper_defaults(sim.config(), bench.approx_len(), 30).unwrap();
    let report = sim.sample(&bench, &params).unwrap();
    let v_cpi = report.cpi().coefficient_of_variation();
    let v_epi = report.epi().coefficient_of_variation();
    assert!(v_cpi > 0.2, "phased workload should vary (V_CPI = {v_cpi})");
    assert!(v_epi < v_cpi, "V_EPI {v_epi} should be below V_CPI {v_cpi}");
}

#[test]
fn two_step_procedure_tightens_wide_intervals() {
    let sim = sim();
    let bench = find("phased-2").unwrap().scaled(0.3);
    let params = SamplingParams::paper_defaults(sim.config(), bench.approx_len(), 10).unwrap();
    let sample = |p: &SamplingParams| sim.sample(&bench, p);
    let outcome = TwoStepOutcome::run(
        bench.approx_len(),
        &params,
        0.10,
        Confidence::NINETY_FIVE,
        sample,
    )
    .unwrap();
    if let Some(tuned) = &outcome.tuned {
        let e_init = outcome
            .initial
            .cpi()
            .achieved_epsilon(Confidence::NINETY_FIVE)
            .unwrap();
        let e_tuned = tuned
            .cpi()
            .achieved_epsilon(Confidence::NINETY_FIVE)
            .unwrap();
        assert!(
            e_tuned < e_init,
            "tuned interval {e_tuned} should beat initial {e_init}"
        );
    }
}

#[test]
fn sampling_is_deterministic() {
    let sim = sim();
    let bench = find("sortk-2").unwrap().scaled(0.05);
    let params = SamplingParams::paper_defaults(sim.config(), bench.approx_len(), 10).unwrap();
    let a = sim.sample(&bench, &params).unwrap();
    let b = sim.sample(&bench, &params).unwrap();
    assert_eq!(a.cpi().mean(), b.cpi().mean());
    assert_eq!(a.units.len(), b.units.len());
    for (ua, ub) in a.units.iter().zip(&b.units) {
        assert_eq!(ua.cycles, ub.cycles);
    }
}

#[test]
fn derived_metrics_estimate_with_confidence() {
    // The §3 generalization: any per-unit metric gets the same treatment
    // as CPI. Check branch MPKI against the reference run's own counters.
    let sim = sim();
    let bench = find("branchy-1").unwrap().scaled(0.08);
    let params = SamplingParams::paper_defaults(sim.config(), bench.approx_len(), 30)
        .unwrap()
        .with_offset(1)
        .unwrap();
    let report = sim.sample(&bench, &params).unwrap();
    let reference = sim.reference(&bench, 1000);

    let mpki = report.branch_mpki();
    let truth_mpki =
        reference.counters.branch_mispredicts as f64 * 1000.0 / reference.instructions as f64;
    assert!(
        truth_mpki > 1.0,
        "branchy workload mispredicts (got {truth_mpki})"
    );
    let err = (mpki.mean() - truth_mpki).abs() / truth_mpki;
    let eps = mpki.achieved_epsilon(Confidence::THREE_SIGMA).unwrap();
    assert!(
        err <= eps + 0.05,
        "MPKI error {:.1}% vs interval {:.1}%",
        err * 100.0,
        eps * 100.0
    );

    // Memory traffic on a miss-heavy workload is likewise estimable.
    let chase = find("chase-2").unwrap().scaled(0.05);
    let chase_params = SamplingParams::paper_defaults(sim.config(), chase.approx_len(), 15)
        .unwrap()
        .with_offset(1)
        .unwrap();
    let chase_report = sim.sample(&chase, &chase_params).unwrap();
    assert!(
        chase_report.memory_pki().mean() > 10.0,
        "chase misses to memory"
    );
}
