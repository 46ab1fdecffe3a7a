//! Ablation benchmarks of the SMARTS design choices DESIGN.md calls out:
//! sampling-unit size U, warming mode, and detailed-warming length W.
//!
//! These measure the *cost* side of each knob (wall-clock of a complete
//! sampling run); the accuracy side is reported by `repro table4` and
//! `repro table5`.

use smarts_bench::timing::bench;
use smarts_core::{SamplingParams, SmartsSim, Warming};
use smarts_uarch::MachineConfig;
use smarts_workloads::find;

fn bench_unit_size() {
    let sim = SmartsSim::new(MachineConfig::eight_way());
    let bench_case = find("hashp-2").expect("suite benchmark").scaled(0.2);
    // Equal measured instructions (n·U = 20,000) at different granularity.
    for (u, n) in [(100u64, 200u64), (1000, 20), (10_000, 2)] {
        let params = SamplingParams::for_sample_size(
            bench_case.approx_len(),
            u,
            2000,
            Warming::Functional,
            n,
            0,
        )
        .expect("valid parameters");
        bench("unit_size_ablation", &format!("U={u}"), 0, || {
            sim.sample(&bench_case, &params).expect("sampling succeeds")
        });
    }
}

fn bench_warming_mode() {
    let sim = SmartsSim::new(MachineConfig::eight_way());
    let bench_case = find("hashp-2").expect("suite benchmark").scaled(0.2);
    let cases = [
        ("none_w0", Warming::None, 0u64),
        ("none_w16k", Warming::None, 16_000),
        ("functional_w2k", Warming::Functional, 2_000),
    ];
    for (label, warming, w) in cases {
        let params =
            SamplingParams::for_sample_size(bench_case.approx_len(), 1000, w, warming, 20, 0)
                .expect("valid parameters");
        bench("warming_ablation", label, 0, || {
            sim.sample(&bench_case, &params).expect("sampling succeeds")
        });
    }
}

fn main() {
    println!(
        "sampling_ablation ({} samples/case, median)",
        smarts_bench::timing::SAMPLES
    );
    bench_unit_size();
    bench_warming_mode();
}
