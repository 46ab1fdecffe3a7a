//! Matched-pair design comparison: sampling two machine configurations
//! over the *same* sampling units.
//!
//! SMARTS's introduction motivates sampling with microarchitecture design
//! studies, where the quantity of interest is usually the *difference*
//! between two configurations, not either absolute CPI. Measuring the
//! identical systematic sample on both machines turns the comparison into
//! a paired experiment: per-unit CPI deltas share the program-phase
//! variation that dominates `V_CPI`, so the difference estimate converges
//! far faster than two independent estimates would — the classic
//! variance-reduction argument for matched pairs.
//!
//! This module is an extension beyond the paper's evaluation, built
//! entirely from the paper's machinery.

use crate::error::SmartsError;
use crate::sampler::{SampleReport, SamplingParams, SmartsSim};
use smarts_stats::{Confidence, RunningStats};
use smarts_workloads::Benchmark;

/// Result of sampling the same units on two machine configurations.
#[derive(Debug, Clone)]
pub struct PairedComparison {
    /// The report for the baseline configuration.
    pub baseline: SampleReport,
    /// The report for the alternative configuration.
    pub alternative: SampleReport,
    diffs: RunningStats,
}

impl PairedComparison {
    /// Samples the same systematic design on two machines with `sample` —
    /// on one thread ([`compare_machines`]) or on a worker pool — and
    /// pairs the per-unit measurements.
    ///
    /// Both runs use the caller's `params` (same `U`, `k`, `j`), so unit
    /// starts coincide exactly; the detailed-warming length is taken from
    /// each machine's own recommendation when `params.detailed_warming`
    /// is 0.
    ///
    /// # Errors
    ///
    /// Whatever `sample` returns, and [`SmartsError::EmptySample`] if the
    /// two runs measured no common units.
    pub fn run<E: From<SmartsError>>(
        baseline: &SmartsSim,
        alternative: &SmartsSim,
        params: &SamplingParams,
        mut sample: impl FnMut(&SmartsSim, &SamplingParams) -> Result<SampleReport, E>,
    ) -> Result<Self, E> {
        let with_w = |sim: &SmartsSim| -> SamplingParams {
            if params.detailed_warming == 0 {
                SamplingParams {
                    detailed_warming: sim.config().recommended_detailed_warming(),
                    ..*params
                }
            } else {
                *params
            }
        };
        let baseline = sample(baseline, &with_w(baseline))?;
        let alternative = sample(alternative, &with_w(alternative))?;
        let mut diffs = RunningStats::new();
        for (ua, ub) in baseline.units.iter().zip(&alternative.units) {
            debug_assert_eq!(ua.start_instr, ub.start_instr, "designs must align");
            diffs.push(ub.cpi - ua.cpi);
        }
        if diffs.count() == 0 {
            return Err(SmartsError::EmptySample.into());
        }
        Ok(PairedComparison {
            baseline,
            alternative,
            diffs,
        })
    }

    /// Mean CPI difference `alternative − baseline` (negative means the
    /// alternative is faster).
    pub fn cpi_delta(&self) -> f64 {
        self.diffs.mean()
    }

    /// Mean speedup `CPI_baseline / CPI_alternative`.
    pub fn speedup(&self) -> f64 {
        self.baseline.cpi().mean() / self.alternative.cpi().mean()
    }

    /// Number of paired units.
    pub fn pairs(&self) -> u64 {
        self.diffs.count()
    }

    /// Absolute half-width of the confidence interval on the CPI
    /// difference, from the paired per-unit deltas:
    /// `±z·σ_diff/√n`.
    ///
    /// # Errors
    ///
    /// Returns an error for fewer than two pairs.
    pub fn delta_half_width(&self, confidence: Confidence) -> Result<f64, SmartsError> {
        let n = self.diffs.count();
        if n < 2 {
            return Err(SmartsError::Stats(
                smarts_stats::StatsError::InsufficientSample {
                    required: 2,
                    actual: n,
                },
            ));
        }
        Ok(confidence.z() * self.diffs.std_dev() / (n as f64).sqrt())
    }

    /// Whether the configurations differ significantly at the given
    /// confidence (the interval around the delta excludes zero).
    ///
    /// # Errors
    ///
    /// Returns an error for fewer than two pairs.
    pub fn is_significant(&self, confidence: Confidence) -> Result<bool, SmartsError> {
        Ok(self.cpi_delta().abs() > self.delta_half_width(confidence)?)
    }

    /// How much tighter the paired interval is than the naive interval
    /// obtained by combining the two runs' independent variances
    /// (`√(σ_a² + σ_b²)/σ_diff`); > 1 means pairing helped.
    pub fn pairing_gain(&self) -> f64 {
        let independent =
            (self.baseline.cpi_std_dev().powi(2) + self.alternative.cpi_std_dev().powi(2)).sqrt();
        let paired = self.diffs.std_dev();
        if paired == 0.0 {
            f64::INFINITY
        } else {
            independent / paired
        }
    }
}

impl SampleReport {
    /// Sample standard deviation of the per-unit CPI values.
    pub fn cpi_std_dev(&self) -> f64 {
        let stats: RunningStats = self.unit_cpis().collect();
        stats.std_dev()
    }
}

/// [`PairedComparison::run`] with [`SmartsSim::sample`] over `bench`.
///
/// # Errors
///
/// As for [`PairedComparison::run`].
pub fn compare_machines(
    baseline: &SmartsSim,
    alternative: &SmartsSim,
    bench: &Benchmark,
    params: &SamplingParams,
) -> Result<PairedComparison, SmartsError> {
    PairedComparison::run(baseline, alternative, params, |sim, p| sim.sample(bench, p))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampler::Warming;
    use smarts_uarch::MachineConfig;
    use smarts_workloads::find;

    fn params(bench: &Benchmark, n: u64) -> SamplingParams {
        SamplingParams::for_sample_size(
            bench.approx_len(),
            1000,
            0, // use each machine's own recommended W
            Warming::Functional,
            n,
            1,
        )
        .unwrap()
    }

    #[test]
    fn wider_machine_shows_positive_speedup() {
        let base = SmartsSim::new(MachineConfig::eight_way());
        let alt = SmartsSim::new(MachineConfig::sixteen_way());
        let bench = find("stream-2").unwrap().scaled(0.1);
        let cmp = compare_machines(&base, &alt, &bench, &params(&bench, 20)).unwrap();
        assert!(cmp.pairs() >= 15);
        assert!(cmp.speedup() >= 0.95, "speedup {}", cmp.speedup());
        // 16-way CPI delta is ≤ 0 (never slower) on this kernel.
        assert!(cmp.cpi_delta() <= 0.05, "delta {}", cmp.cpi_delta());
    }

    #[test]
    fn identical_machines_show_no_significant_difference() {
        let a = SmartsSim::new(MachineConfig::eight_way());
        let b = SmartsSim::new(MachineConfig::eight_way());
        let bench = find("branchy-1").unwrap().scaled(0.05);
        let cmp = compare_machines(&a, &b, &bench, &params(&bench, 15)).unwrap();
        assert_eq!(cmp.cpi_delta(), 0.0);
        assert!(!cmp.is_significant(Confidence::NINETY_FIVE).unwrap());
        assert!((cmp.speedup() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pairing_tightens_the_interval_on_phased_code() {
        // phased-2 has huge per-unit variance that is common-mode between
        // configurations: pairing should win big.
        let base = SmartsSim::new(MachineConfig::eight_way());
        let alt = SmartsSim::new(MachineConfig::sixteen_way());
        let bench = find("phased-2").unwrap().scaled(0.2);
        let cmp = compare_machines(&base, &alt, &bench, &params(&bench, 25)).unwrap();
        assert!(
            cmp.pairing_gain() > 1.5,
            "pairing gain {} should exceed 1.5 on phased code",
            cmp.pairing_gain()
        );
    }

    #[test]
    fn delta_interval_requires_two_pairs() {
        let a = SmartsSim::new(MachineConfig::eight_way());
        let b = SmartsSim::new(MachineConfig::eight_way());
        let bench = find("loopy-1").unwrap().scaled(0.02);
        // n = 1: one grid unit in the stream, one pair.
        let cmp = compare_machines(&a, &b, &bench, &params(&bench, 1)).unwrap();
        assert_eq!(cmp.pairs(), 1);
        assert!(cmp.delta_half_width(Confidence::NINETY_FIVE).is_err());
    }
}
