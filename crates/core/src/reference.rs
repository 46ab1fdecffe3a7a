//! Full-stream detailed simulation: the ground truth that sampling
//! estimates are compared against, and the source of the per-unit CPI
//! population traces behind Figure 2 and the bias studies.

use std::time::{Duration, Instant};

use crate::engine::FunctionalEngine;
use crate::sampler::SmartsSim;
use smarts_energy::ActivityCounters;
use smarts_uarch::{Pipeline, WarmState};
use smarts_workloads::Benchmark;

/// Result of simulating an entire benchmark stream in detail.
#[derive(Debug, Clone)]
pub struct ReferenceRun {
    /// True average CPI over the whole stream.
    pub cpi: f64,
    /// True average energy per instruction (nJ).
    pub epi: f64,
    /// Total cycles.
    pub cycles: u64,
    /// Total committed instructions.
    pub instructions: u64,
    /// Unit size of the per-unit traces below.
    pub unit_size: u64,
    /// CPI of each consecutive `unit_size`-instruction unit (the
    /// population for variation and bias analyses). A trailing partial
    /// unit is excluded.
    pub unit_cpis: Vec<f64>,
    /// Wall-clock time of the detailed run.
    pub wall: Duration,
    /// Aggregate activity counters.
    pub counters: ActivityCounters,
}

impl SmartsSim {
    /// Simulates the whole benchmark in detail, recording the CPI of
    /// every consecutive `unit_size`-instruction unit.
    ///
    /// This is the (expensive) `sim-outorder`-equivalent baseline: no
    /// fast-forwarding, every instruction through the pipeline, with the
    /// warm state evolving continuously.
    pub fn reference(&self, bench: &Benchmark, unit_size: u64) -> ReferenceRun {
        assert!(unit_size > 0, "unit size must be nonzero");
        let start = Instant::now();
        let mut engine = FunctionalEngine::new(bench.load());
        let mut warm = WarmState::new(self.config());
        let mut pipeline = Pipeline::new(self.config());

        let mut unit_cpis = Vec::new();
        let mut counters = ActivityCounters::default();
        let mut cycles = 0u64;
        let mut instructions = 0u64;
        loop {
            let m = pipeline.run(&mut warm, &mut engine, unit_size, true);
            cycles += m.cycles;
            instructions += m.instructions;
            counters.merge(&m.counters);
            if m.instructions == unit_size {
                unit_cpis.push(m.cpi());
            }
            if m.instructions < unit_size {
                break; // stream exhausted (trailing partial unit excluded)
            }
        }

        let cpi = if instructions == 0 {
            0.0
        } else {
            cycles as f64 / instructions as f64
        };
        let epi = self.energy().energy_per_instruction(&counters, cycles);
        ReferenceRun {
            cpi,
            epi,
            cycles,
            instructions,
            unit_size,
            unit_cpis,
            wall: start.elapsed(),
            counters,
        }
    }

    /// Times a plain functional run of the benchmark (no warming, no
    /// timing model): the `sim-fast` baseline of Table 6. Returns the
    /// wall-clock time and the instruction count.
    pub fn time_functional(&self, bench: &Benchmark) -> (Duration, u64) {
        let mut engine = FunctionalEngine::new(bench.load());
        let start = Instant::now();
        engine.fast_forward(u64::MAX - 1);
        (start.elapsed(), engine.position())
    }

    /// Times a functional-warming run of the benchmark (architectural
    /// state plus cache/TLB/predictor warming, no timing model): the
    /// `S_FW` mode of Section 3.4. Returns the wall-clock time and the
    /// instruction count.
    pub fn time_functional_warming(&self, bench: &Benchmark) -> (Duration, u64) {
        let mut engine = FunctionalEngine::new(bench.load());
        let mut warm = WarmState::new(self.config());
        let start = Instant::now();
        engine.fast_forward_warming(u64::MAX - 1, &mut warm);
        (start.elapsed(), engine.position())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smarts_uarch::MachineConfig;
    use smarts_workloads::find;

    fn sim() -> SmartsSim {
        SmartsSim::new(MachineConfig::eight_way())
    }

    #[test]
    fn reference_covers_whole_stream() {
        let bench = find("loopy-1").unwrap().scaled(0.02); // ~72k instrs
        let reference = sim().reference(&bench, 1000);
        assert!(reference.instructions >= 70_000);
        assert!(reference.cpi > 0.0);
        assert!(reference.epi > 0.0);
        assert_eq!(
            reference.unit_cpis.len() as u64,
            reference.instructions / 1000
        );
    }

    #[test]
    fn unit_trace_mean_matches_total_cpi() {
        let bench = find("branchy-1").unwrap().scaled(0.02);
        let reference = sim().reference(&bench, 500);
        let mean: f64 = reference.unit_cpis.iter().sum::<f64>() / reference.unit_cpis.len() as f64;
        // Units are equal-length, so the unit mean equals stream CPI up to
        // the excluded partial tail.
        assert!(
            (mean - reference.cpi).abs() / reference.cpi < 0.02,
            "mean {mean} vs cpi {}",
            reference.cpi
        );
    }

    #[test]
    fn functional_is_faster_than_detailed() {
        let bench = find("loopy-1").unwrap().scaled(0.05);
        let simulator = sim();
        let reference = simulator.reference(&bench, 1000);
        let (func, n) = simulator.time_functional(&bench);
        assert_eq!(n, reference.instructions);
        assert!(
            func < reference.wall,
            "functional {func:?} should beat detailed {:?}",
            reference.wall
        );
    }

    #[test]
    fn warming_run_slower_than_plain_functional_but_faster_than_detailed() {
        let bench = find("hashp-2").unwrap().scaled(0.1);
        let simulator = sim();
        let (_plain, n1) = simulator.time_functional(&bench);
        let (_warmed, n2) = simulator.time_functional_warming(&bench);
        assert_eq!(n1, n2);
        // Wall-clock comparisons are flaky at small scale in CI; the real
        // S_F/S_FW/S_D ratios are measured by the bench harness.
    }
}
