//! One canonical report line pinned byte for byte: loopy-1 at scale
//! 0.02, n = 5, the 8-way machine's paper defaults — the line
//! `smarts sample --bench loopy-1 --scale 0.02 --n 5 --json` prints.
//! Every route of the design must print it: the warming pipeline at any
//! worker count and the one-thread `SmartsSim::sample`. A change that
//! moves a report byte (a field, its order, a unit, a count) fails here.

use smarts::exec::{approx_len, sample, Executor};
use smarts::isa::IsaId;
use smarts::prelude::*;
use smarts::server::{canonical_report_line, estimate_line};
use smarts::stats::SamplerSpec;

const GOLDEN: &str = include_str!("golden_report_line.json");

#[test]
fn every_route_prints_the_golden_line() {
    let (name, scale) = ("loopy-1", 0.02);
    let sim = SmartsSim::new(MachineConfig::eight_way());
    let len = approx_len(IsaId::Builtin, name, scale).expect("suite workload");
    let params = SamplingParams::paper_defaults(sim.config(), len, 5).expect("valid design");

    let bench = find(name).expect("suite workload").scaled(scale);
    let report = sim.sample(&bench, &params).expect("sampling run");
    assert_eq!(
        canonical_report_line(&report) + "\n",
        GOLDEN,
        "SmartsSim::sample"
    );

    let meta = StoreMeta {
        params,
        benchmark: name.to_string(),
        scale,
        isa: IsaId::Builtin,
    };
    for jobs in [1, 2] {
        let executor = Executor::new(jobs).expect("executor");
        let run = sample(&executor, &sim, &meta, &SamplerSpec::systematic(), None);
        let line = estimate_line(&run.expect("pipeline run").estimate);
        assert_eq!(line + "\n", GOLDEN, "smarts_exec::sample at {jobs} jobs");
    }
}
