//! Measurement core of the `repro ci_eff` experiment: ground truth from
//! the census (every unit at U = 1000, W = 2000), the paper's two-step
//! matched-systematic baseline, and offline drives of the stratified and
//! adaptive samplers over the census units. Everything is seeded and
//! simulator-deterministic: re-running [`measure`] at the same scale
//! reproduces the checked-in `results/ci_eff.txt` table bit-for-bit.

use crate::Census;
use smarts_core::{SamplerKind, SamplerSpec, SamplingParams, Warming};
use smarts_stats::{drive_sampler, required_sample_size, Confidence, RunningStats, StatsError};
use smarts_workloads::Benchmark;

/// Sampling-unit size (instructions), the paper's U = 1000.
pub const UNIT_SIZE: u64 = 1000;

/// Relative CPI error target (±3%).
pub const EPSILON: f64 = 0.03;

/// Seed for every sampler drive; fixed so the table is reproducible.
pub const SEED: u64 = 12;

/// Minimum relative saving in detailed instructions (vs the matched
/// systematic baseline) for a workload to count toward the headline
/// criterion.
pub const SAVINGS_BAR: f64 = 0.30;

/// One workload's measurement: ground truth, baselines, and the two
/// sampled-strategy outcomes.
pub struct Row {
    /// Workload name.
    pub benchmark: String,
    /// Number of complete units in the stream, every one in the census.
    pub pool: u64,
    /// True coefficient of variation of per-unit CPI.
    pub cv: f64,
    /// Detailed instructions per measured unit (`W + U`).
    pub per_unit: u64,
    /// Matched systematic cost: the paper's two-step procedure
    /// (30-unit pilot + tuned rerun), in units.
    pub n_systematic: u64,
    /// Two-phase stratified sampler outcome.
    pub stratified: Outcome,
    /// Online adaptive sampler outcome.
    pub adaptive: Outcome,
}

/// What one sampler strategy achieved on one workload.
pub struct Outcome {
    /// Detailed units the strategy measured.
    pub n: u64,
    /// Whether the strategy's own interval claims the target was met.
    pub target_met: bool,
    /// True relative error of its estimate vs the census truth.
    pub error: f64,
    /// Relative saving in detailed units vs the matched systematic
    /// baseline (negative when the strategy cost more).
    pub savings: f64,
}

impl Outcome {
    /// An honest win both claims the target *and* lands within ±ε of
    /// the ground truth. A confident interval around a wrong answer
    /// counts for nothing.
    pub fn honest(&self) -> bool {
        self.target_met && self.error <= EPSILON
    }
}

impl Row {
    /// Best saving over the strategies that honestly reached the
    /// target (see [`Outcome::honest`]); 0 when neither did.
    pub fn best_savings(&self) -> f64 {
        [&self.stratified, &self.adaptive]
            .into_iter()
            .filter(|o| o.honest())
            .map(|o| o.savings)
            .fold(0.0, f64::max)
    }

    /// Whether this workload counts toward the headline criterion.
    pub fn qualifies(&self) -> bool {
        self.best_savings() >= SAVINGS_BAR
    }
}

/// Census measurement and offline sampler drive for one workload.
///
/// The census units give the ground-truth CPI and the per-unit values
/// the samplers are driven against offline via [`drive_sampler`]. The
/// matched systematic cost is the paper's own two-step procedure — a
/// 30-unit systematic pilot estimates `V̂`, then a tuned rerun measures
/// `n = (z·V̂/ε)²` fresh units, capped at the pool (a census is exact
/// under the finite-population correction).
pub fn measure(census: &Census, bench: &Benchmark, conf: Confidence) -> Row {
    let run = census.report();
    let cpis: Vec<f64> = run.unit_cpis().collect();
    let pool = cpis.len() as u64;
    let all: RunningStats = cpis.iter().copied().collect();
    // The ground truth the samplers are scored against.
    let truth = all.mean();
    let cv = all.coefficient_of_variation();
    // Matched systematic: the paper's two-step procedure. A 30-unit
    // systematic pilot estimates V̂, then the tuned rerun measures
    // n(V̂) fresh units; the procedure's detailed cost is the sum.
    let n_systematic = {
        let (len, w) = (bench.approx_len(), run.params.detailed_warming);
        let pilot = SamplingParams::for_sample_size(len, UNIT_SIZE, w, Warming::Functional, 30, 0)
            .expect("pilot design");
        let pilot = census.sample(&pilot).expect("pilot run");
        let tuned = required_sample_size(pilot.cpi().coefficient_of_variation(), EPSILON, conf)
            .expect("tuned size")
            .min(pool);
        pilot.sample_size() + tuned
    };

    let drive = |kind| {
        let spec = SamplerSpec {
            kind,
            seed: SEED,
            epsilon: EPSILON,
            confidence: conf.level(),
            ..SamplerSpec::systematic()
        };
        let sampler = spec.build(pool).expect("sampler spec");
        let value = |&unit: &u64| (unit, cpis[unit as usize]);
        let est = drive_sampler(sampler, |units| {
            Ok::<_, StatsError>(units.iter().map(value).collect())
        });
        outcome(&est.expect("sampler drive"), truth, n_systematic)
    };
    let stratified = drive(SamplerKind::Stratified);
    let adaptive = drive(SamplerKind::Adaptive);

    Row {
        benchmark: bench.name().to_string(),
        pool,
        cv,
        per_unit: run.params.detailed_warming + UNIT_SIZE,
        n_systematic,
        stratified,
        adaptive,
    }
}

fn outcome(est: &smarts_stats::SamplerEstimate, truth: f64, n_systematic: u64) -> Outcome {
    Outcome {
        n: est.n,
        target_met: est.target_met,
        error: if truth.abs() > f64::EPSILON {
            (est.mean - truth).abs() / truth.abs()
        } else {
            0.0
        },
        savings: 1.0 - est.n as f64 / n_systematic.max(1) as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smarts_core::SmartsSim;
    use smarts_uarch::MachineConfig;

    #[test]
    fn measure_reproduces_the_checked_in_results() {
        // `(benchmark, pool, stratified.n, adaptive.n, honest cost,
        // qualifies)` of the first two suite workloads at scale 0.5, as
        // `results/ci_eff.txt` reports them (the cost is the honest
        // strategy's n × (W + U) = n × 3000): a change to a sampler,
        // the seed, the pool geometry or the detailed engine's per-unit
        // CPI moves one of them.
        let golden = [
            ("stream-1", 1966, 273, 186, None, false),
            ("stream-2", 1946, 183, 185, Some(549_000), true),
        ];
        let cfg = MachineConfig::eight_way();
        let sim = SmartsSim::new(cfg.clone());
        let measure_at_half = |bench: &Benchmark| {
            let bench = bench.scaled(0.5);
            let reference = sim.reference(&bench, UNIT_SIZE);
            let w = cfg.recommended_detailed_warming();
            let row = measure(
                &Census::new(&sim, &bench, &reference, w),
                &bench,
                Confidence::THREE_SIGMA,
            );
            // The cheapest honest detailed-instruction cost, if any.
            let honest_cost = [&row.stratified, &row.adaptive]
                .into_iter()
                .filter(|o| o.honest())
                .map(|o| o.n * row.per_unit)
                .min();
            let (name, pool) = (row.benchmark.clone(), row.pool);
            (
                name,
                pool,
                row.stratified.n,
                row.adaptive.n,
                honest_cost,
                row.qualifies(),
            )
        };
        // One thread per workload: in the debug profile each census takes
        // seconds.
        let suite = smarts_workloads::suite();
        let rows: Vec<_> = std::thread::scope(|scope| {
            let runs: Vec<_> = (suite.iter().take(2))
                .map(|bench| scope.spawn(|| measure_at_half(bench)))
                .collect();
            runs.into_iter().map(|run| run.join().unwrap()).collect()
        });
        for (row, (name, pool, strat, adapt, cost, qualifies)) in rows.into_iter().zip(golden) {
            assert_eq!(row, (name.to_string(), pool, strat, adapt, cost, qualifies));
        }
    }
}
