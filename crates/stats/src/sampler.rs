//! Unit-selection strategies behind one [`Sampler`] trait.
//!
//! A sampler chooses *which* units of a population get a detailed
//! measurement, round by round: the driver asks for a phase of unit
//! indices ([`Sampler::next_phase`]), measures them (in any order, in
//! parallel), feeds the values back ([`Sampler::observe`]) and repeats
//! until the sampler says [`SamplerPhase::Done`]. All decision logic is
//! pure and seeded, so a fixed seed reproduces the exact unit set — the
//! reproducibility contract the caching and serving layers rely on.
//!
//! The paper's own fixed-`n` systematic design needs no sampler: it
//! measures every unit of its grid, which the execution layer replays
//! whole. The two strategies that choose are:
//!
//! * [`StratifiedSampler`] — two-phase stratified selection: a small
//!   systematic pilot is clustered into strata
//!   ([`crate::cluster_1d`]), phase 2 tops the sample up by Neyman
//!   allocation ([`crate::neyman_allocation`]) sized from the pilot's
//!   within-stratum spreads;
//! * [`AdaptiveSampler`] — online sequential sampling: after the pilot,
//!   each batch is allocated variance-greedily to the stratum with the
//!   largest Neyman deficit under the *currently measured* spreads, and
//!   the run stops as soon as the running stratified CI reaches the
//!   `(±ε, confidence)` target.
//!
//! The sequential stopping rule peeks at the running interval after
//! every batch, so its realized coverage can dip slightly below the
//! nominal level (optional-stopping bias); the `n ≥ 30` floor and
//! batch-synchronous (rather than per-unit) checks keep the effect
//! small. A fixed-`n` design has no such bias — that is the trade
//! documented in DESIGN.md §3.7.

use crate::stratified::{cluster_1d, neyman_allocation, StratifiedEstimator};
use crate::{Confidence, RunningStats, StatsError};
use std::collections::BTreeSet;

/// Normal-approximation floor: no estimate is trusted (and no sequential
/// stop taken) below this many observations.
pub const MIN_SAMPLE: u64 = 30;

/// Default number of strata for the stratified/adaptive samplers.
pub const DEFAULT_STRATA: usize = 4;

/// Default per-round batch size of the adaptive sampler, in units.
pub const DEFAULT_BATCH: u64 = 32;

/// SplitMix64, the workspace's one dependency-free PRNG: the samplers'
/// draws, the workload kernels' data and every seeded property test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform value in `[0, bound)`; 0 when `bound` is 0.
    pub fn below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            0
        } else {
            self.next_u64() % bound
        }
    }

    /// Fisher–Yates shuffle of a slice, in place.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// One round of a sampler's conversation with the measurement driver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SamplerPhase {
    /// Measure these unit indices and report each value via
    /// [`Sampler::observe`] before asking for the next phase.
    Measure(Vec<u64>),
    /// Sampling is complete; read the final [`Sampler::estimate`].
    Done,
}

/// Why a sampler declared itself done.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The design's fixed unit budget was fully measured.
    BudgetSpent,
    /// The running interval reached the `(±ε, confidence)` target.
    TargetMet,
    /// Every population unit has been measured.
    PoolExhausted,
    /// The configured cap on measured units was reached first.
    CapReached,
}

impl StopReason {
    /// Stable lowercase tag for reports and serialization.
    pub fn tag(&self) -> &'static str {
        match self {
            StopReason::BudgetSpent => "budget",
            StopReason::TargetMet => "target",
            StopReason::PoolExhausted => "pool",
            StopReason::CapReached => "cap",
        }
    }
}

/// Final estimate and accounting of a sampler run.
#[derive(Debug, Clone, PartialEq)]
pub struct SamplerEstimate {
    /// The point estimate of the population mean.
    pub mean: f64,
    /// Achieved relative CI half-width at the sampler's confidence.
    pub half_width: f64,
    /// Units measured.
    pub n: u64,
    /// Population size the sampler selected from.
    pub pool: u64,
    /// Strata in the final estimator.
    pub strata: usize,
    /// Measurement rounds driven (pilot counts as one).
    pub rounds: u32,
    /// Whether the `(±ε, confidence)` target was met.
    pub target_met: bool,
    /// Why sampling stopped.
    pub stop: StopReason,
}

/// A unit-selection strategy over a population of `pool` units indexed
/// `0..pool`, driven in phases by a measurement loop.
pub trait Sampler {
    /// Stable strategy name for reports and cache keys.
    fn name(&self) -> &'static str;

    /// The next set of unit indices to measure, or
    /// [`SamplerPhase::Done`]. Indices are distinct and never reissued.
    ///
    /// # Errors
    ///
    /// Propagates statistical errors from allocation or estimation.
    fn next_phase(&mut self) -> Result<SamplerPhase, StatsError>;

    /// Reports the measured value of one unit from the current phase.
    /// Feeding observations in ascending unit order keeps runs
    /// bit-reproducible regardless of measurement parallelism.
    fn observe(&mut self, unit: u64, value: f64);

    /// The estimate over everything observed so far.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InsufficientSample`] before any
    /// observation.
    fn estimate(&self) -> Result<SamplerEstimate, StatsError>;
}

/// Shared configuration of the stratified and adaptive samplers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StratifiedConfig {
    /// Population size (units `0..pool` are selectable).
    pub pool: u64,
    /// Pilot size; 0 selects `max(30, pool/32)` capped at the pool.
    pub pilot: u64,
    /// Number of strata to cluster the pilot into (≥ 1).
    pub strata: usize,
    /// Relative CI half-width target.
    pub epsilon: f64,
    /// Confidence level of the target.
    pub confidence: Confidence,
    /// Seed for the pilot phase offset and within-stratum draws.
    pub seed: u64,
    /// Hard cap on total measured units; `None` caps at the pool.
    pub max_units: Option<u64>,
}

impl StratifiedConfig {
    /// Canonical configuration for a pool at the paper's ±3% @ 99.7%
    /// target.
    pub fn for_pool(pool: u64, epsilon: f64, confidence: Confidence, seed: u64) -> Self {
        StratifiedConfig {
            pool,
            pilot: 0,
            strata: DEFAULT_STRATA,
            epsilon,
            confidence,
            seed,
            max_units: None,
        }
    }

    fn validate(&self) -> Result<(), StatsError> {
        if self.pool == 0 {
            return Err(StatsError::ZeroDesignParameter("pool"));
        }
        if self.strata == 0 {
            return Err(StatsError::ZeroDesignParameter("strata"));
        }
        if !self.epsilon.is_finite() || self.epsilon <= 0.0 {
            return Err(StatsError::InvalidErrorTarget(self.epsilon));
        }
        Ok(())
    }

    fn pilot_size(&self) -> u64 {
        let auto = MIN_SAMPLE.max(self.pool / 16);
        let pilot = if self.pilot == 0 { auto } else { self.pilot };
        pilot.min(self.pool).min(self.cap())
    }

    fn cap(&self) -> u64 {
        self.max_units.unwrap_or(self.pool).min(self.pool)
    }
}

/// The strata derived from a clustered pilot: the population is cut at
/// midpoints between consecutive pilot units, and each resulting
/// segment inherits its pilot's cluster label — the piecewise-constant
/// phase structure CPI streams exhibit.
#[derive(Debug)]
struct PilotStrata {
    /// `(end, label)` per segment, ascending by `end`; segment `i`
    /// covers `[ends[i-1].0, ends[i].0)` with `ends[-1].0 = 0`.
    ends: Vec<(u64, usize)>,
    /// Population size per stratum.
    sizes: Vec<u64>,
}

impl PilotStrata {
    fn build(pilot_units: &[u64], values: &[f64], pool: u64, k: usize) -> Result<Self, StatsError> {
        let clustering = cluster_1d(values, k)?;
        let strata = clustering.centers.len();
        let mut ends = Vec::with_capacity(pilot_units.len());
        for (i, &label) in clustering.labels.iter().enumerate() {
            let end = if i + 1 == pilot_units.len() {
                pool
            } else {
                (pilot_units[i] + pilot_units[i + 1]).div_ceil(2)
            };
            ends.push((end, label));
        }
        let mut sizes = vec![0u64; strata];
        let mut start = 0;
        for &(end, label) in &ends {
            sizes[label] += end - start;
            start = end;
        }
        Ok(PilotStrata { ends, sizes })
    }

    fn stratum_of(&self, unit: u64) -> usize {
        let at = self.ends.partition_point(|&(end, _)| end <= unit);
        self.ends[at.min(self.ends.len() - 1)].1
    }

    /// Unmeasured members of stratum `h`, ascending.
    fn unmeasured(&self, h: usize, measured: &BTreeSet<u64>) -> Vec<u64> {
        let mut members = Vec::new();
        let mut start = 0;
        for &(end, label) in &self.ends {
            if label == h {
                members.extend((start..end).filter(|u| !measured.contains(u)));
            }
            start = end;
        }
        members
    }
}

/// Draws `m` units without replacement from `members` by a partial
/// Fisher–Yates shuffle, returning them in ascending order.
fn draw_srs(members: &mut [u64], m: usize, rng: &mut SplitMix64) -> Vec<u64> {
    let m = m.min(members.len());
    for i in 0..m {
        let j = i + rng.below((members.len() - i) as u64) as usize;
        members.swap(i, j);
    }
    let mut drawn: Vec<u64> = members[..m].to_vec();
    drawn.sort_unstable();
    drawn
}

/// Internal driver state shared by the stratified and adaptive
/// samplers: pilot bookkeeping, observations, and the derived strata.
#[derive(Debug)]
struct TwoPhaseState {
    cfg: StratifiedConfig,
    rng: SplitMix64,
    /// Units issued in the pilot phase, ascending.
    pilot_units: Vec<u64>,
    /// All observations, `(unit, value)` in observation order; pilot
    /// observations form the prefix.
    observed: Vec<(u64, f64)>,
    measured: BTreeSet<u64>,
    strata: Option<PilotStrata>,
    rounds: u32,
    stop: Option<StopReason>,
}

impl TwoPhaseState {
    fn new(cfg: StratifiedConfig) -> Result<Self, StatsError> {
        cfg.validate()?;
        Ok(TwoPhaseState {
            cfg,
            rng: SplitMix64::new(cfg.seed),
            pilot_units: Vec::new(),
            observed: Vec::new(),
            measured: BTreeSet::new(),
            strata: None,
            rounds: 0,
            stop: None,
        })
    }

    /// Issues the systematic pilot with a seeded phase offset: every
    /// `⌊pool / pilot⌋`-th unit from the offset, `pilot` of them.
    fn issue_pilot(&mut self) -> Vec<u64> {
        let pilot = self.cfg.pilot_size();
        let interval = (self.cfg.pool / pilot).max(1);
        let offset = self.rng.below(interval);
        self.pilot_units = (offset..self.cfg.pool)
            .step_by(interval as usize)
            .take(pilot as usize)
            .collect();
        self.measured.extend(self.pilot_units.iter().copied());
        self.rounds += 1;
        self.pilot_units.clone()
    }

    /// Clusters the observed pilot into strata. Called once, after the
    /// pilot phase has been observed.
    fn build_strata(&mut self) -> Result<(), StatsError> {
        let pilot_values: Vec<f64> = self
            .observed
            .iter()
            .filter(|(u, _)| self.pilot_units.binary_search(u).is_ok())
            .map(|&(_, v)| v)
            .collect();
        let pilot_observed: Vec<u64> = self
            .observed
            .iter()
            .filter(|(u, _)| self.pilot_units.binary_search(u).is_ok())
            .map(|&(u, _)| u)
            .collect();
        if pilot_values.is_empty() {
            return Err(StatsError::InsufficientSample {
                required: 1,
                actual: 0,
            });
        }
        self.strata = Some(PilotStrata::build(
            &pilot_observed,
            &pilot_values,
            self.cfg.pool,
            self.cfg.strata,
        )?);
        Ok(())
    }

    /// The stratified estimator over everything observed so far.
    fn estimator(&self) -> Result<StratifiedEstimator, StatsError> {
        let strata = self.strata.as_ref().ok_or(StatsError::InsufficientSample {
            required: 1,
            actual: 0,
        })?;
        let mut est = StratifiedEstimator::new(&strata.sizes)?;
        for &(unit, value) in &self.observed {
            est.observe(strata.stratum_of(unit), value);
        }
        Ok(est)
    }

    /// Per-stratum `(N_h, s_h)` spreads from current observations, with
    /// the pooled spread standing in for strata observed fewer than two
    /// times.
    fn spreads(&self, est: &StratifiedEstimator) -> Vec<(u64, f64)> {
        let pooled = {
            let mut all = RunningStats::new();
            for &(_, v) in &self.observed {
                all.push(v);
            }
            all.std_dev()
        };
        let strata = self.strata.as_ref().expect("strata built");
        strata
            .sizes
            .iter()
            .enumerate()
            .map(|(h, &n_h)| {
                let s = if est.stratum_sample_size(h) >= 2 {
                    est.stratum_std_dev(h)
                } else {
                    pooled
                };
                (n_h, s)
            })
            .collect()
    }

    /// Draws `per_stratum[h]` additional units from each stratum's
    /// unmeasured members, merging into one ascending phase.
    fn draw_phase(&mut self, per_stratum: &[u64]) -> Vec<u64> {
        let strata = self.strata.as_ref().expect("strata built");
        let mut phase = Vec::new();
        for (h, &want) in per_stratum.iter().enumerate() {
            if want == 0 {
                continue;
            }
            let mut members = strata.unmeasured(h, &self.measured);
            phase.extend(draw_srs(&mut members, want as usize, &mut self.rng));
        }
        phase.sort_unstable();
        self.measured.extend(phase.iter().copied());
        if !phase.is_empty() {
            self.rounds += 1;
        }
        phase
    }

    fn observe(&mut self, unit: u64, value: f64) {
        self.observed.push((unit, value));
    }

    fn estimate(&self, name_default_stop: StopReason) -> Result<SamplerEstimate, StatsError> {
        let est = self.estimator()?;
        let half_width = est.relative_half_width(self.cfg.confidence)?;
        Ok(SamplerEstimate {
            mean: est.mean(),
            half_width,
            n: est.sample_size(),
            pool: self.cfg.pool,
            strata: est.stratum_count(),
            rounds: self.rounds,
            target_met: half_width <= self.cfg.epsilon,
            stop: self.stop.unwrap_or(name_default_stop),
        })
    }
}

/// Two-phase stratified sampler: systematic pilot → cluster into strata
/// → one Neyman-allocated top-up sized for the `(±ε, confidence)`
/// target from the pilot's within-stratum spreads.
///
/// The total is fixed after phase 1 (no further peeking), so the final
/// interval carries no optional-stopping bias; if the pilot
/// *underestimated* the spreads the achieved interval can miss the
/// target, which [`SamplerEstimate::target_met`] reports honestly.
#[derive(Debug)]
pub struct StratifiedSampler {
    state: TwoPhaseState,
    stage: u8,
}

impl StratifiedSampler {
    /// Creates the sampler.
    ///
    /// # Errors
    ///
    /// Returns configuration errors (zero pool/strata, bad ε).
    pub fn new(cfg: StratifiedConfig) -> Result<Self, StatsError> {
        Ok(StratifiedSampler {
            state: TwoPhaseState::new(cfg)?,
            stage: 0,
        })
    }
}

impl Sampler for StratifiedSampler {
    fn name(&self) -> &'static str {
        "stratified"
    }

    fn next_phase(&mut self) -> Result<SamplerPhase, StatsError> {
        match self.stage {
            0 => {
                self.stage = 1;
                Ok(SamplerPhase::Measure(self.state.issue_pilot()))
            }
            1 => {
                self.stage = 2;
                self.state.build_strata()?;
                let est = self.state.estimator()?;
                let spreads = self.state.spreads(&est);
                let cfg = &self.state.cfg;
                // Total n for the target, from pilot spreads: the
                // Neyman-optimal variance at total n is (Σ W_h·s_h)²/n,
                // so n = (z·Σ W_h·s_h / (ε·μ̂))².
                let mean = est.mean();
                if mean == 0.0 {
                    self.state.stop = Some(StopReason::BudgetSpent);
                    return Ok(SamplerPhase::Done);
                }
                let pool = cfg.pool as f64;
                let weighted_spread: f64 =
                    spreads.iter().map(|&(n_h, s)| n_h as f64 / pool * s).sum();
                let z = cfg.confidence.z();
                // The 1.5× margin covers the sampling error of the
                // pilot's spread estimates themselves (s_h from a
                // handful of draws is noisy and, post-clustering,
                // biased low): undersizing means an honest but failed
                // run, oversizing only costs a few units.
                let ideal = 1.5 * (z * weighted_spread / (cfg.epsilon * mean.abs())).powi(2);
                let measured = est.sample_size();
                // Clustering the pilot biases its within-stratum spreads
                // low (the cut points were chosen to minimise exactly
                // that), so phase 2 always draws a confirmation sample of
                // at least half the pilot: fresh units re-estimate the
                // spreads honestly and keep a lucky pilot from declaring
                // victory on its own evidence.
                let confirm = measured + measured.div_ceil(2);
                let total = (ideal.ceil() as u64)
                    .max(MIN_SAMPLE)
                    .max(confirm)
                    .min(cfg.cap());
                if total <= measured {
                    self.state.stop = Some(StopReason::TargetMet);
                    return Ok(SamplerPhase::Done);
                }
                let alloc = neyman_allocation(&spreads, total)?;
                // Subtract what the pilot already spent per stratum.
                let per_stratum: Vec<u64> = alloc
                    .iter()
                    .enumerate()
                    .map(|(h, &a)| a.saturating_sub(est.stratum_sample_size(h)))
                    .collect();
                let phase = self.state.draw_phase(&per_stratum);
                if phase.is_empty() {
                    self.state.stop = Some(StopReason::PoolExhausted);
                    return Ok(SamplerPhase::Done);
                }
                Ok(SamplerPhase::Measure(phase))
            }
            _ => {
                if self.state.stop.is_none() {
                    self.state.stop = Some(StopReason::BudgetSpent);
                }
                Ok(SamplerPhase::Done)
            }
        }
    }

    fn observe(&mut self, unit: u64, value: f64) {
        self.state.observe(unit, value);
    }

    fn estimate(&self) -> Result<SamplerEstimate, StatsError> {
        self.state.estimate(StopReason::BudgetSpent)
    }
}

/// Online adaptive sampler: after the pilot, each batch goes to the
/// strata with the largest Neyman deficit under the currently measured
/// spreads (variance-greedy), and sampling stops at the first
/// batch boundary where the running stratified CI meets the
/// `(±ε, confidence)` target (never before [`MIN_SAMPLE`] units).
///
/// Stopping decisions happen only at deterministic batch boundaries
/// over a seeded unit sequence, so the measured set — and therefore the
/// estimate — is bit-reproducible at any measurement parallelism.
#[derive(Debug)]
pub struct AdaptiveSampler {
    state: TwoPhaseState,
    batch: u64,
    started: bool,
    /// Consecutive batch boundaries at which the running interval met
    /// the target; a stop needs two in a row.
    met_streak: u8,
}

impl AdaptiveSampler {
    /// Creates the sampler with the given per-round batch size
    /// (0 selects [`DEFAULT_BATCH`]).
    ///
    /// # Errors
    ///
    /// Returns configuration errors (zero pool/strata, bad ε).
    pub fn new(cfg: StratifiedConfig, batch: u64) -> Result<Self, StatsError> {
        Ok(AdaptiveSampler {
            state: TwoPhaseState::new(cfg)?,
            batch: if batch == 0 { DEFAULT_BATCH } else { batch },
            started: false,
            met_streak: 0,
        })
    }
}

impl Sampler for AdaptiveSampler {
    fn name(&self) -> &'static str {
        "adaptive"
    }

    fn next_phase(&mut self) -> Result<SamplerPhase, StatsError> {
        if !self.started {
            self.started = true;
            return Ok(SamplerPhase::Measure(self.state.issue_pilot()));
        }
        if self.state.stop.is_some() {
            return Ok(SamplerPhase::Done);
        }
        if self.state.strata.is_none() {
            self.state.build_strata()?;
        }
        let est = self.state.estimator()?;
        let n = est.sample_size();
        // No stop on pilot-only evidence (`rounds >= 2`): the clustered
        // pilot's within-stratum spreads are biased low. And a single
        // under-the-target check can be a transient dip of an
        // underestimated variance, so a stop takes two *consecutive*
        // batch boundaries meeting the target — the second batch's
        // fresh units either confirm the interval or widen it.
        if n >= MIN_SAMPLE
            && self.state.rounds >= 2
            && est.meets(self.state.cfg.epsilon, self.state.cfg.confidence)?
        {
            if self.met_streak >= 1 {
                self.state.stop = Some(StopReason::TargetMet);
                return Ok(SamplerPhase::Done);
            }
            self.met_streak += 1;
        } else {
            self.met_streak = 0;
        }
        let cap = self.state.cfg.cap();
        if n >= cap {
            self.state.stop = Some(if cap == self.state.cfg.pool {
                StopReason::PoolExhausted
            } else {
                StopReason::CapReached
            });
            return Ok(SamplerPhase::Done);
        }
        let batch = self.batch.min(cap - n);

        // Variance-greedy allocation: aim the batch at the strata whose
        // measured share falls shortest of the Neyman share at n+batch.
        let spreads = self.state.spreads(&est);
        let target = neyman_allocation(&spreads, n + batch)?;
        let mut deficits: Vec<(usize, u64)> = target
            .iter()
            .enumerate()
            .map(|(h, &t)| (h, t.saturating_sub(est.stratum_sample_size(h))))
            .collect();
        let deficit_sum: u64 = deficits.iter().map(|&(_, d)| d).sum();
        if deficit_sum == 0 {
            // Already at the Neyman shape everywhere — spread the batch
            // proportionally to stratum size instead.
            for (h, d) in deficits.iter_mut() {
                *d = spreads[*h].0;
            }
        }
        let weight_sum: u64 = deficits.iter().map(|&(_, d)| d).sum::<u64>().max(1);
        let mut per_stratum = vec![0u64; spreads.len()];
        let mut assigned = 0u64;
        // Largest deficit first; remainders round-robin in that order.
        deficits.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        for &(h, d) in &deficits {
            let share = batch * d / weight_sum;
            per_stratum[h] = share;
            assigned += share;
        }
        let mut at = 0;
        while assigned < batch && !deficits.is_empty() {
            let (h, _) = deficits[at % deficits.len()];
            per_stratum[h] += 1;
            assigned += 1;
            at += 1;
        }

        let phase = self.state.draw_phase(&per_stratum);
        if phase.is_empty() {
            // Greedy targets were saturated; fall back to anything left.
            let everywhere = vec![batch; spreads.len()];
            let phase = self.state.draw_phase(&everywhere);
            if phase.is_empty() {
                self.state.stop = Some(StopReason::PoolExhausted);
                return Ok(SamplerPhase::Done);
            }
            return Ok(SamplerPhase::Measure(phase));
        }
        Ok(SamplerPhase::Measure(phase))
    }

    fn observe(&mut self, unit: u64, value: f64) {
        self.state.observe(unit, value);
    }

    fn estimate(&self) -> Result<SamplerEstimate, StatsError> {
        self.state.estimate(StopReason::BudgetSpent)
    }
}

/// Runs a sampler to completion against a value oracle — the offline
/// harness used by property tests and the CI-efficiency bench, and the
/// reference semantics for the execution-layer drivers: phases are
/// measured atomically and observations are fed back in ascending unit
/// order.
///
/// # Errors
///
/// Propagates sampler errors.
pub fn drive_sampler(
    sampler: &mut dyn Sampler,
    mut value_of: impl FnMut(u64) -> f64,
) -> Result<SamplerEstimate, StatsError> {
    loop {
        match sampler.next_phase()? {
            SamplerPhase::Measure(units) => {
                for unit in units {
                    let value = value_of(unit);
                    sampler.observe(unit, value);
                }
            }
            SamplerPhase::Done => return sampler.estimate(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic two-phase population: CPI ≈ 1 in the first 70%,
    /// CPI ≈ 3 with more spread in the last 30% — the structure
    /// stratification exists to exploit.
    fn phased_population(pool: u64, seed: u64) -> Vec<f64> {
        let mut rng = SplitMix64::new(seed);
        (0..pool)
            .map(|u| {
                if u < pool * 7 / 10 {
                    1.0 + 0.05 * rng.next_f64()
                } else {
                    3.0 + 0.8 * rng.next_f64()
                }
            })
            .collect()
    }

    fn truth(values: &[f64]) -> f64 {
        values.iter().sum::<f64>() / values.len() as f64
    }

    #[test]
    fn stratified_sampler_is_seed_deterministic() {
        let pop = phased_population(2000, 11);
        let cfg = StratifiedConfig::for_pool(2000, 0.03, Confidence::THREE_SIGMA, 42);
        let run = |cfg| {
            let mut s = StratifiedSampler::new(cfg).unwrap();
            drive_sampler(&mut s, |u| pop[u as usize]).unwrap()
        };
        let a = run(cfg);
        let b = run(cfg);
        assert_eq!(a, b, "same seed must reproduce the exact estimate");
        let c = run(StratifiedConfig { seed: 43, ..cfg });
        // A different seed shifts the pilot/draws; the estimate almost
        // surely differs in some bit.
        assert!(a.mean.to_bits() != c.mean.to_bits() || a.n != c.n);
    }

    #[test]
    fn stratified_sampler_beats_systematic_on_phased_population() {
        let pop = phased_population(4000, 3);
        let t = truth(&pop);
        let conf = Confidence::THREE_SIGMA;

        // Matched systematic cost: n from the true population CV.
        let mut all = RunningStats::new();
        for &v in &pop {
            all.push(v);
        }
        let n_sys =
            crate::required_sample_size(all.coefficient_of_variation(), 0.03, conf).unwrap();

        let cfg = StratifiedConfig::for_pool(4000, 0.03, conf, 9);
        let mut sampler = StratifiedSampler::new(cfg).unwrap();
        let est = drive_sampler(&mut sampler, |u| pop[u as usize]).unwrap();
        assert!(est.target_met, "stratified run missed its target: {est:?}");
        assert!((est.mean - t).abs() / t <= 0.03, "estimate off: {est:?}");
        assert!(
            (est.n as f64) < 0.7 * n_sys as f64,
            "stratified n {} not 30% below systematic n {}",
            est.n,
            n_sys
        );
    }

    #[test]
    fn adaptive_sampler_stops_at_target_and_is_deterministic() {
        let pop = phased_population(4000, 5);
        let t = truth(&pop);
        let conf = Confidence::THREE_SIGMA;
        let cfg = StratifiedConfig::for_pool(4000, 0.03, conf, 17);
        let run = || {
            let mut s = AdaptiveSampler::new(cfg, 0).unwrap();
            drive_sampler(&mut s, |u| pop[u as usize]).unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "adaptive runs must be seed-deterministic");
        assert_eq!(a.stop, StopReason::TargetMet);
        assert!(a.target_met);
        assert!(a.n >= MIN_SAMPLE);
        assert!((a.mean - t).abs() / t <= 0.05, "estimate off: {a:?}");
        // Stopping means it spent fewer units than the matched
        // systematic budget on this strongly phased population.
        let mut all = RunningStats::new();
        for &v in &pop {
            all.push(v);
        }
        let n_sys =
            crate::required_sample_size(all.coefficient_of_variation(), 0.03, conf).unwrap();
        assert!(a.n < n_sys, "adaptive n {} vs systematic {}", a.n, n_sys);
    }

    #[test]
    fn adaptive_sampler_exhausts_tiny_pools_gracefully() {
        let pop: Vec<f64> = (0..40).map(|u| 1.0 + (u % 13) as f64).collect();
        let cfg = StratifiedConfig {
            pool: 40,
            pilot: 10,
            strata: 3,
            epsilon: 0.001, // unreachable target
            confidence: Confidence::THREE_SIGMA,
            seed: 1,
            max_units: None,
        };
        let mut s = AdaptiveSampler::new(cfg, 8).unwrap();
        let est = drive_sampler(&mut s, |u| pop[u as usize]).unwrap();
        // A census leaves no sampling error: the finite-population
        // correction collapses the interval to zero width, so even the
        // "unreachable" target is met at n = pool. The two-in-a-row
        // stopping rule wants one more confirming batch, but the pool
        // runs out first — hence `PoolExhausted` with the target met.
        assert_eq!(est.stop, StopReason::PoolExhausted);
        assert!(est.target_met);
        assert_eq!(est.n, 40, "every unit measured");
        assert_eq!(est.half_width, 0.0);
        let exact = truth(&pop);
        assert!((est.mean - exact).abs() < 1e-9, "census must be exact");
    }

    #[test]
    fn adaptive_cap_is_respected() {
        let pop = phased_population(2000, 23);
        let cfg = StratifiedConfig {
            max_units: Some(64),
            epsilon: 1e-6,
            ..StratifiedConfig::for_pool(2000, 0.03, Confidence::THREE_SIGMA, 23)
        };
        let mut s = AdaptiveSampler::new(cfg, 16).unwrap();
        let est = drive_sampler(&mut s, |u| pop[u as usize]).unwrap();
        assert_eq!(est.stop, StopReason::CapReached);
        assert!(est.n <= 64);
    }

    #[test]
    fn samplers_never_reissue_units() {
        let pop = phased_population(500, 2);
        let cfg = StratifiedConfig::for_pool(500, 0.01, Confidence::NINETY_FIVE, 3);
        for sampler in [
            Box::new(StratifiedSampler::new(cfg).unwrap()) as Box<dyn Sampler>,
            Box::new(AdaptiveSampler::new(cfg, 16).unwrap()) as Box<dyn Sampler>,
        ] {
            let mut sampler = sampler;
            let mut seen = BTreeSet::new();
            while let SamplerPhase::Measure(units) = sampler.next_phase().unwrap() {
                for unit in units {
                    assert!(seen.insert(unit), "unit {unit} reissued");
                    assert!(unit < 500);
                    sampler.observe(unit, pop[unit as usize]);
                }
            }
        }
    }

    #[test]
    fn bad_configurations_are_rejected() {
        let conf = Confidence::NINETY_FIVE;
        let bad = StratifiedConfig {
            pool: 0,
            ..StratifiedConfig::for_pool(1, 0.03, conf, 0)
        };
        assert!(StratifiedSampler::new(bad).is_err());
        let bad_eps = StratifiedConfig {
            epsilon: -1.0,
            ..StratifiedConfig::for_pool(100, 0.03, conf, 0)
        };
        assert!(AdaptiveSampler::new(bad_eps, 0).is_err());
    }

    #[test]
    fn estimate_before_observation_is_an_error() {
        let cfg = StratifiedConfig::for_pool(100, 0.03, Confidence::NINETY_FIVE, 0);
        let sampler = StratifiedSampler::new(cfg).unwrap();
        assert!(sampler.estimate().is_err());
    }

    #[test]
    fn splitmix_is_reproducible_and_spread() {
        let mut a = SplitMix64::new(99);
        let mut b = SplitMix64::new(99);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut rng = SplitMix64::new(7);
        let mean: f64 = (0..10_000).map(|_| rng.next_f64()).sum::<f64>() / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "uniform mean {mean}");
        assert_eq!(SplitMix64::new(1).below(0), 0);
    }
}
