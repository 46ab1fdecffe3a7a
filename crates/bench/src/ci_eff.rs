//! Measurement core of the `repro ci_eff` experiment: ground truth from
//! the census (every unit at U = 1000, W = 2000), the paper's two-step
//! matched-systematic baseline, and offline drives of the stratified and
//! adaptive samplers over the census units. Everything is seeded and
//! simulator-deterministic: re-running [`measure`] at the same scale
//! reproduces the checked-in `results/bench_ci_eff.json` bit-for-bit.

use crate::Census;
use smarts_core::{SamplingParams, Warming};
use smarts_stats::{
    drive_sampler, required_sample_size, AdaptiveSampler, Confidence, RunningStats, Sampler,
    StratifiedConfig, StratifiedSampler,
};
use smarts_workloads::Benchmark;

/// Sampling-unit size (instructions), the paper's U = 1000.
pub const UNIT_SIZE: u64 = 1000;

/// Relative CPI error target (±3%).
pub const EPSILON: f64 = 0.03;

/// Seed for every sampler drive; fixed so the JSON is reproducible.
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
    /// Mean CPI over the census — the ground truth the samplers are
    /// scored against.
    pub truth: f64,
    /// Detailed instructions per measured unit (`W + U`).
    pub per_unit: u64,
    /// Oracle-tuned systematic `n` (sized from the true variation).
    pub n_oracle: u64,
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
/// under the finite-population correction). The oracle-tuned `n`, sized
/// from the *true* variation no real procedure knows, is kept alongside.
pub fn measure(census: &Census, bench: &Benchmark, conf: Confidence) -> Row {
    let run = census.report();
    let cpis: Vec<f64> = run.unit_cpis().collect();
    let pool = cpis.len() as u64;
    let all: RunningStats = cpis.iter().copied().collect();
    let truth = all.mean();
    let cv = all.coefficient_of_variation();
    // Oracle-tuned systematic: n sized from the *true* population
    // variation — a bound no real run can reach (kept for reference).
    let n_oracle = required_sample_size(cv, EPSILON, conf)
        .expect("sample size")
        .min(pool);
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

    let scfg = StratifiedConfig::for_pool(pool, EPSILON, conf, SEED);
    let drive = |sampler: &mut dyn Sampler| {
        let est = drive_sampler(sampler, |u| cpis[u as usize]).expect("sampler drive");
        outcome(&est, truth, n_systematic)
    };
    let stratified = drive(&mut StratifiedSampler::new(scfg).expect("stratified sampler"));
    let adaptive = drive(&mut AdaptiveSampler::new(scfg, 0).expect("adaptive sampler"));

    Row {
        benchmark: bench.name().to_string(),
        pool,
        cv,
        truth,
        per_unit: run.params.detailed_warming + UNIT_SIZE,
        n_oracle,
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

/// Renders the results file, one key per line so a diff of two runs
/// reads field by field.
pub fn render_json(rows: &[Row], scale: f64, qualifying: usize, mean_best: f64) -> String {
    let mut out = String::from("{\n");
    out.push_str("\"bench\": \"ci_eff\",\n");
    out.push_str(&format!("\"scale\": {scale},\n"));
    out.push_str(&format!("\"unit_size\": {UNIT_SIZE},\n"));
    out.push_str(&format!("\"epsilon\": {EPSILON},\n"));
    out.push_str("\"confidence\": 0.9973,\n");
    out.push_str(&format!("\"seed\": {SEED},\n"));
    out.push_str("\"workloads\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str("{\n");
        out.push_str(&format!("\"benchmark\": \"{}\",\n", r.benchmark));
        out.push_str(&format!("\"pool\": {},\n", r.pool));
        out.push_str(&format!("\"cv\": {:.6},\n", r.cv));
        out.push_str(&format!("\"cpi_truth\": {:.6},\n", r.truth));
        out.push_str(&format!("\"detailed_per_unit\": {},\n", r.per_unit));
        out.push_str(&format!("\"n_oracle\": {},\n", r.n_oracle));
        out.push_str(&format!("\"n_systematic\": {},\n", r.n_systematic));
        out.push_str(&format!(
            "\"systematic_detailed_instructions\": {},\n",
            r.n_systematic * r.per_unit
        ));
        for (tag, o) in [("stratified", &r.stratified), ("adaptive", &r.adaptive)] {
            out.push_str(&format!("\"{tag}_n\": {},\n", o.n));
            out.push_str(&format!("\"{tag}_target_met\": {},\n", o.target_met));
            out.push_str(&format!("\"{tag}_error\": {:.6},\n", o.error));
            out.push_str(&format!("\"{tag}_savings\": {:.6},\n", o.savings));
        }
        out.push_str(&format!("\"best_savings\": {:.6}\n", r.best_savings()));
        out.push_str(if i + 1 == rows.len() { "}\n" } else { "},\n" });
    }
    out.push_str("],\n");
    out.push_str(&format!("\"workloads_total\": {},\n", rows.len()));
    out.push_str(&format!("\"workloads_saving30\": {qualifying},\n"));
    out.push_str(&format!("\"best_savings_mean\": {mean_best:.6}\n"));
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use smarts_core::SmartsSim;
    use smarts_uarch::MachineConfig;

    #[test]
    fn measure_reproduces_the_checked_in_results() {
        // `(benchmark, pool, stratified.n, adaptive.n, honest cost,
        // qualifies)` of the first two suite workloads at scale 0.5,
        // copied from `results/bench_ci_eff.json`: a change to a sampler,
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
