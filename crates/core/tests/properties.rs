//! Randomized tests of the sampling driver's invariants, generated by
//! the workload crate's `SplitMix64` so the suite needs no external
//! crates and failures reproduce from the fixed seed.

use smarts_core::{SamplingParams, SmartsSim, Warming};
use smarts_uarch::MachineConfig;
use smarts_workloads::{find, SplitMix64};

fn sim() -> SmartsSim {
    SmartsSim::new(MachineConfig::eight_way())
}

#[test]
fn sampling_invariants_hold_for_any_design() {
    let unit_sizes = [250u64, 500, 1000, 2000];
    let warmings = [0u64, 500, 2000];
    let mut rng = SplitMix64::new(301);
    for _ in 0..12 {
        let unit_size = unit_sizes[rng.below(4) as usize];
        let w = warmings[rng.below(3) as usize];
        let n = 3 + rng.below(9);
        let offset = rng.below(3);
        let functional = rng.next_u64() & 1 == 1;

        let bench = find("branchy-1").unwrap().scaled(0.05);
        let warming = if functional {
            Warming::Functional
        } else {
            Warming::None
        };
        let params =
            SamplingParams::for_sample_size(bench.approx_len(), unit_size, w, warming, n, 0)
                .unwrap();
        let Ok(params) = params.with_offset(offset.min(params.interval - 1)) else {
            continue;
        };
        let report = sim().sample(&bench, &params).unwrap();

        // Units are aligned on the systematic grid.
        let stride = params.interval * unit_size;
        for unit in &report.units {
            assert_eq!(
                (unit.start_instr / unit_size) % params.interval,
                params.offset
            );
            assert_eq!(unit.instructions, unit_size);
            assert!(unit.cpi > 0.0 && unit.cpi.is_finite());
            assert!(unit.epi > 0.0 && unit.epi.is_finite());
        }
        for pair in report.units.windows(2) {
            assert_eq!(pair[1].start_instr - pair[0].start_instr, stride);
        }

        // Accounting: measured = n·U; detailed warming ≤ n·W; the total
        // consumed never exceeds the stream (pipeline overshoot ≤ one
        // window per unit).
        let m = &report.instructions;
        // A trailing partial unit contributes measured instructions
        // without being recorded as a sample, so allow up to U extra.
        assert!(m.measured >= report.sample_size() * unit_size);
        assert!(m.measured < (report.sample_size() + 1) * unit_size);
        assert!(m.detailed_warmed <= (report.sample_size() + 1) * w.max(1));
        assert_eq!(m.fast_forwarded, 0);

        // The estimate is a plain average of per-unit values.
        let mean: f64 =
            report.units.iter().map(|u| u.cpi).sum::<f64>() / report.sample_size() as f64;
        assert!((report.cpi().mean() - mean).abs() < 1e-12);
    }
}

#[test]
fn warming_mode_never_changes_which_units_are_measured() {
    let mut rng = SplitMix64::new(302);
    for _ in 0..4 {
        let n = 4 + rng.below(6);
        let offset = rng.below(2);
        let bench = find("hashp-2").unwrap().scaled(0.05);
        let build = |warming| {
            SamplingParams::for_sample_size(bench.approx_len(), 1000, 1000, warming, n, offset)
                .unwrap()
        };
        let cold = sim().sample(&bench, &build(Warming::None)).unwrap();
        let warm = sim().sample(&bench, &build(Warming::Functional)).unwrap();
        assert_eq!(cold.sample_size(), warm.sample_size());
        for (a, b) in cold.units.iter().zip(&warm.units) {
            assert_eq!(a.start_instr, b.start_instr);
        }
    }
}
