//! The census is a drop-in for sampling: any systematic design read from
//! it is the report a sampling run of that design returns. And the census
//! bias of every default-suite benchmark, pinned on both machines.

use smarts_bench::Census;
use smarts_core::{SampleReport, SamplingParams, SmartsSim, Warming};
use smarts_uarch::MachineConfig;
use smarts_workloads::{find, suite, Benchmark};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;

const U: u64 = 1000;

fn census(sim: &SmartsSim, bench: &Benchmark) -> Census {
    let w = sim.config().recommended_detailed_warming();
    Census::new(sim, bench, &sim.reference(bench, U), w)
}

fn assert_same(read: &SampleReport, run: &SampleReport, what: &str) {
    assert_eq!(read.units, run.units, "{what}");
    let bits = |r: &SampleReport| {
        let (cpi, epi) = (r.cpi(), r.epi());
        [
            cpi.mean(),
            cpi.coefficient_of_variation(),
            epi.mean(),
            epi.coefficient_of_variation(),
        ]
        .map(f64::to_bits)
    };
    assert_eq!(bits(read), bits(run), "{what}");
    assert_eq!(read.instructions, run.instructions, "{what}");
}

#[test]
fn a_design_read_from_the_census_is_the_sampled_report() {
    let bench = find("hashp-2").unwrap().scaled(0.01);
    for cfg in [MachineConfig::eight_way(), MachineConfig::sixteen_way()] {
        let sim = SmartsSim::new(cfg.clone());
        let census = census(&sim, &bench);
        let w = cfg.recommended_detailed_warming();
        // k = 1 and 2 overlap each unit's detailed warming with the units
        // before it (k·U < W + U); k = 20 leaves a gap.
        for (k, j, max_units) in [
            (1, 0, None),
            (2, 0, None),
            (2, 1, None),
            (20, 0, None),
            (20, 1, None),
            (20, 19, None),
            (2, 1, Some(3)),
        ] {
            let params = SamplingParams {
                unit_size: U,
                detailed_warming: w,
                warming: Warming::Functional,
                interval: k,
                offset: j,
                max_units,
            };
            let what = format!("{} k={k} j={j} max={max_units:?}", cfg.name);
            let read = census.sample(&params).unwrap();
            assert_same(&read, &sim.sample(&bench, &params).unwrap(), &what);
        }
    }
}

#[test]
fn census_bias_of_the_default_suite_is_pinned() {
    // `Census::bias` (relative, unit 0 excluded) at scale 0.01 and the
    // recommended W, 8-way then 16-way. A 0.0 is a benchmark whose every
    // unit replays to the reference's CPI. A change to warming, replay or
    // the detailed engine moves one of them.
    let pins: [(&str, f64, f64); 18] = [
        ("stream-1", -0.02296170458456791, -0.02237979693279003),
        ("stream-2", -0.016686771210293574, -0.019365703059219676),
        ("mtx-1", 0.0, -3.1513267085444095e-5),
        ("mtx-2", 0.0, 0.0),
        ("chase-1", 0.0, 0.0),
        ("chase-2", 0.0, 0.0),
        ("hashp-1", 0.0, 0.0),
        ("hashp-2", 0.0, 0.0),
        ("branchy-1", 0.0, 0.0),
        ("branchy-2", 0.0, 0.0),
        ("sortk-1", -0.004836348701531181, -0.021472607538180994),
        ("sortk-2", -0.00025931270857756987, 0.0),
        ("sortk-3", 0.00011148218562618633, 0.0001026052180717643),
        ("fpchain-1", 0.0, 0.0),
        ("phased-1", 0.0, 0.0),
        ("phased-2", 0.0, 0.0),
        ("loopy-1", 0.0, -0.003600205726040712),
        ("mixed-1", 0.0, 0.0),
    ];
    let suite: Vec<Benchmark> = suite().iter().map(|b| b.scaled(0.01)).collect();
    let machines = [MachineConfig::eight_way(), MachineConfig::sixteen_way()].map(SmartsSim::new);
    // Longest streams first, over two threads: in the debug profile these
    // censuses are most of the test's time.
    let mut jobs: Vec<(usize, usize)> = (0..2).flat_map(|m| (0..18).map(move |b| (m, b))).collect();
    jobs.sort_by_key(|&(m, b)| std::cmp::Reverse((suite[b].approx_len(), m)));
    let next = AtomicUsize::new(0);
    let biases = Mutex::new(vec![[0.0; 2]; 18]);
    thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| {
                while let Some(&(m, b)) = jobs.get(next.fetch_add(1, Ordering::Relaxed)) {
                    let bias = census(&machines[m], &suite[b]).bias();
                    biases.lock().unwrap()[b][m] = bias;
                }
            });
        }
    });
    let got: Vec<(&str, f64, f64)> = (suite.iter().zip(biases.into_inner().unwrap()))
        .map(|(bench, [e, s])| (bench.name(), e, s))
        .collect();
    assert_eq!(got, pins);
}
