//! Umbrella-crate API contract tests.

use smarts::prelude::*;

#[test]
fn prelude_exposes_the_core_workflow_types() {
    // Compile-time check that the one-line import is sufficient for the
    // quickstart workflow.
    let _sim: SmartsSim = SmartsSim::new(MachineConfig::eight_way());
    let _conf: Confidence = Confidence::NINETY_FIVE;
    let _bench: Option<Benchmark> = find("loopy-1");
    let _stats: RunningStats = RunningStats::new();
}

#[test]
fn key_types_are_send_and_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SmartsSim>();
    assert_send_sync::<MachineConfig>();
    assert_send_sync::<Benchmark>();
    assert_send_sync::<SampleReport>();
    assert_send_sync::<SmartsError>();
    assert_send_sync::<Pipeline>();
    assert_send_sync::<WarmState>();
}

#[test]
fn suite_benchmarks_all_load() {
    for bench in scaled_suite(0.01) {
        let loaded = bench.load();
        assert!(!loaded.program.is_empty(), "{}", bench.name());
    }
}

#[test]
fn errors_format_and_chain() {
    use std::error::Error;
    let sim = SmartsSim::new(MachineConfig::eight_way());
    let bench = find("loopy-1").unwrap().scaled(0.01);
    let bad = SamplingParams {
        unit_size: 0,
        detailed_warming: 0,
        warming: Warming::None,
        interval: 1,
        offset: 0,
    };
    let err = sim.sample(&bench, &bad).unwrap_err();
    assert!(!err.to_string().is_empty());
    let _ = err.source(); // chain is accessible
}

#[test]
fn parallel_sampling_runs_are_independent() {
    // SmartsSim is shareable across threads; concurrent runs of the same
    // benchmark agree exactly (no hidden shared state).
    use std::sync::Arc;
    let sim = Arc::new(SmartsSim::new(MachineConfig::eight_way()));
    let bench = find("branchy-1").unwrap().scaled(0.03);
    let params = SamplingParams::paper_defaults(sim.config(), bench.approx_len(), 8).unwrap();
    let handles: Vec<_> = (0..4)
        .map(|_| {
            let sim = Arc::clone(&sim);
            let bench = bench.clone();
            std::thread::spawn(move || sim.sample(&bench, &params).unwrap().cpi().mean())
        })
        .collect();
    let results: Vec<f64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    for pair in results.windows(2) {
        assert_eq!(pair[0], pair[1]);
    }
}
