//! Unit selection: the [`SamplerSpec`] that names a strategy, the
//! strategies behind one [`Sampler`] trait, and [`drive_sampler`], the
//! loop that runs them.
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
//! whole. The two strategies that choose, built by [`SamplerSpec::build`]:
//!
//! * stratified — two-phase stratified selection: a small systematic
//!   pilot is clustered into strata, phase 2 tops the sample up by
//!   Neyman allocation sized from the pilot's within-stratum spreads;
//! * adaptive — online sequential sampling: after the pilot, each batch
//!   is allocated variance-greedily to the stratum with the largest
//!   Neyman deficit under the *currently measured* spreads, and the run
//!   stops as soon as the running stratified CI reaches the
//!   `(±ε, confidence)` target.
//!
//! The sequential stopping rule peeks at the running interval after
//! every batch, so its realized coverage can dip slightly below the
//! nominal level (optional-stopping bias); the `n ≥ 30` floor and
//! batch-synchronous (rather than per-unit) checks keep the effect
//! small. A fixed-`n` design has no such bias — that is the trade
//! documented in DESIGN.md §3.7.

use crate::stratified::{cluster_1d, neyman_allocation, StratifiedEstimator};
use crate::{Confidence, FieldError, RunningStats, StatsError};
use std::collections::BTreeSet;
use std::fmt;

/// Normal-approximation floor: no estimate is trusted (and no sequential
/// stop taken) below this many observations.
const MIN_SAMPLE: u64 = 30;

/// Per-round batch size of the adaptive sampler, in units.
const BATCH: u64 = 32;

/// Most strata a spec may ask for.
const MAX_STRATA: u32 = 4096;

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
}

impl StopReason {
    /// Stable lowercase tag for reports and serialization.
    pub fn tag(&self) -> &'static str {
        match self {
            StopReason::BudgetSpent => "budget",
            StopReason::TargetMet => "target",
            StopReason::PoolExhausted => "pool",
        }
    }

    /// The reason whose [`StopReason::tag`] is `tag`.
    pub fn from_tag(tag: &str) -> Option<Self> {
        [Self::BudgetSpent, Self::TargetMet, Self::PoolExhausted]
            .into_iter()
            .find(|reason| reason.tag() == tag)
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

/// Which unit-selection strategy a run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SamplerKind {
    /// The paper's fixed-`n` systematic design (the default; its reports
    /// stay bit-identical to the pre-trait code path).
    #[default]
    Systematic,
    /// Two-phase stratified selection: pilot → cluster → Neyman top-up.
    Stratified,
    /// Online adaptive stopping: variance-greedy batches until the
    /// running CI meets the target.
    Adaptive,
}

impl SamplerKind {
    /// Stable lowercase tag used in flags, job specs, and cache keys.
    pub fn tag(&self) -> &'static str {
        match self {
            SamplerKind::Systematic => "systematic",
            SamplerKind::Stratified => "stratified",
            SamplerKind::Adaptive => "adaptive",
        }
    }
}

impl fmt::Display for SamplerKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.tag())
    }
}

impl std::str::FromStr for SamplerKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "systematic" => Ok(SamplerKind::Systematic),
            "stratified" => Ok(SamplerKind::Stratified),
            "adaptive" => Ok(SamplerKind::Adaptive),
            other => Err(format!(
                "unknown sampler `{other}` (expected systematic, stratified, or adaptive)"
            )),
        }
    }
}

/// Full specification of a unit-selection strategy: which of a
/// population's units get a detailed measurement. Two runs over the same
/// population with equal specs select the same units; this is the struct
/// a results cache must key on.
///
/// The systematic design itself (unit size, interval, offset) is not
/// here: a spec only picks among the units a warmed checkpoint store
/// already holds, so one store serves every spec.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SamplerSpec {
    /// The selection strategy.
    pub kind: SamplerKind,
    /// Seed for the randomized phases (pilot offset, within-stratum
    /// draws). Ignored by [`SamplerKind::Systematic`].
    pub seed: u64,
    /// Stratum count for the stratified/adaptive strategies.
    pub strata: u32,
    /// Pilot size in units; 0 selects the automatic `max(30, pool/16)`.
    pub pilot: u64,
    /// Relative CI half-width target (the paper's ±3% is 0.03).
    pub epsilon: f64,
    /// Confidence level of the target (the paper's 99.7% is 0.9973).
    pub confidence: f64,
}

impl Default for SamplerSpec {
    fn default() -> Self {
        SamplerSpec::systematic()
    }
}

impl SamplerSpec {
    /// The systematic spec at the paper's ±3% @ 99.7% target: selection
    /// is the whole grid, and the other fields only matter to a spec
    /// built from this one with another kind.
    pub fn systematic() -> Self {
        SamplerSpec {
            kind: SamplerKind::Systematic,
            seed: 0,
            strata: 4,
            pilot: 0,
            epsilon: 0.03,
            confidence: 0.9973,
        }
    }

    /// Whether this is the systematic strategy (the bit-identical
    /// legacy path).
    pub fn is_systematic(&self) -> bool {
        self.kind == SamplerKind::Systematic
    }

    /// Refuses a spec with a field out of its range, whatever its kind.
    /// These are the sampler-field rules of every door: the job server's
    /// and the CLI's job validation defer to this.
    ///
    /// # Errors
    ///
    /// The first of `strata`, `epsilon`, `confidence` out of range.
    pub fn validate(&self) -> Result<(), FieldError> {
        let check = |field, ok, rule: String| match ok {
            true => Ok(()),
            false => Err(FieldError { field, rule }),
        };
        let strata = format!("takes a count in 1..={MAX_STRATA}");
        check("strata", (1..=MAX_STRATA).contains(&self.strata), strata)?;
        let epsilon = self.epsilon.is_finite() && self.epsilon > 0.0;
        check("epsilon", epsilon, "takes a finite positive number".into())?;
        let confidence = self.confidence > 0.0 && self.confidence < 1.0;
        check("confidence", confidence, "takes a level in (0, 1)".into())
    }

    /// Builds the runnable [`Sampler`] for a pool of `pool` units.
    ///
    /// # Errors
    ///
    /// [`StatsError::Field`] for an invalid spec,
    /// [`StatsError::NoSampler`] for the systematic spec, which measures
    /// every unit of its grid and selects nothing, and
    /// [`StatsError::ZeroDesignParameter`] for a zero pool.
    pub fn build(&self, pool: u64) -> Result<Box<dyn Sampler>, StatsError> {
        self.validate()?;
        let state = || TwoPhaseState::new(self, pool);
        match self.kind {
            SamplerKind::Systematic => Err(StatsError::NoSampler),
            SamplerKind::Stratified => Ok(Box::new(StratifiedSampler {
                state: state()?,
                stage: 0,
            })),
            SamplerKind::Adaptive => Ok(Box::new(AdaptiveSampler {
                state: state()?,
                started: false,
                met_streak: 0,
            })),
        }
    }

    /// A 64-bit key separating every selection-relevant field — what the
    /// server results cache folds into its lookup so jobs differing only
    /// in sampling design never alias. The systematic spec always maps
    /// to the same key (its extra fields are inert), preserving cache
    /// hits across cosmetic spec differences.
    pub fn cache_key(&self) -> u64 {
        fn mix(h: u64, v: u64) -> u64 {
            let mut z = h.wrapping_add(0x9E37_79B9_7F4A_7C15).wrapping_add(v);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
        let h = mix(0x5341_4D50_4C45_5253, self.kind as u64); // "SAMPLERS"
        if self.is_systematic() {
            return h;
        }
        let h = mix(h, self.seed);
        let h = mix(h, self.strata as u64);
        let h = mix(h, self.pilot);
        let h = mix(h, self.epsilon.to_bits());
        mix(h, self.confidence.to_bits())
    }
}

impl fmt::Display for SamplerSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_systematic() {
            write!(f, "systematic")
        } else {
            write!(
                f,
                "{} seed={} strata={} pilot={} ±{:.3}% @ {:.2}%",
                self.kind,
                self.seed,
                self.strata,
                self.pilot,
                self.epsilon * 100.0,
                self.confidence * 100.0
            )
        }
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
    spec: SamplerSpec,
    /// Population size: units `0..pool` are selectable.
    pool: u64,
    confidence: Confidence,
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
    fn new(spec: &SamplerSpec, pool: u64) -> Result<Self, StatsError> {
        if pool == 0 {
            return Err(StatsError::ZeroDesignParameter("pool"));
        }
        Ok(TwoPhaseState {
            spec: *spec,
            pool,
            confidence: Confidence::new(spec.confidence)?,
            rng: SplitMix64::new(spec.seed),
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
        let auto = MIN_SAMPLE.max(self.pool / 16);
        let pilot = if self.spec.pilot == 0 {
            auto
        } else {
            self.spec.pilot
        };
        let pilot = pilot.min(self.pool);
        let interval = (self.pool / pilot).max(1);
        let offset = self.rng.below(interval);
        self.pilot_units = (offset..self.pool)
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
        let (pilot_observed, pilot_values): (Vec<u64>, Vec<f64>) = (self.observed.iter())
            .filter(|(u, _)| self.pilot_units.binary_search(u).is_ok())
            .copied()
            .unzip();
        if pilot_values.is_empty() {
            return Err(StatsError::InsufficientSample {
                required: 1,
                actual: 0,
            });
        }
        self.strata = Some(PilotStrata::build(
            &pilot_observed,
            &pilot_values,
            self.pool,
            self.spec.strata as usize,
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
        let all: RunningStats = self.observed.iter().map(|&(_, v)| v).collect();
        let pooled = all.std_dev();
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

    fn estimate(&self) -> Result<SamplerEstimate, StatsError> {
        let est = self.estimator()?;
        let half_width = est.relative_half_width(self.confidence)?;
        Ok(SamplerEstimate {
            mean: est.mean(),
            half_width,
            n: est.sample_size(),
            pool: self.pool,
            strata: est.stratum_count(),
            rounds: self.rounds,
            target_met: half_width <= self.spec.epsilon,
            stop: self.stop.unwrap_or(StopReason::BudgetSpent),
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
struct StratifiedSampler {
    state: TwoPhaseState,
    stage: u8,
}

impl Sampler for StratifiedSampler {
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
                let state = &self.state;
                // Total n for the target, from pilot spreads: the
                // Neyman-optimal variance at total n is (Σ W_h·s_h)²/n,
                // so n = (z·Σ W_h·s_h / (ε·μ̂))².
                let mean = est.mean();
                if mean == 0.0 {
                    self.state.stop = Some(StopReason::BudgetSpent);
                    return Ok(SamplerPhase::Done);
                }
                let pool = state.pool as f64;
                let weighted_spread: f64 =
                    spreads.iter().map(|&(n_h, s)| n_h as f64 / pool * s).sum();
                let z = state.confidence.z();
                // The 1.5× margin covers the sampling error of the
                // pilot's spread estimates themselves (s_h from a
                // handful of draws is noisy and, post-clustering,
                // biased low): undersizing means an honest but failed
                // run, oversizing only costs a few units.
                let ideal = 1.5 * (z * weighted_spread / (state.spec.epsilon * mean.abs())).powi(2);
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
                    .min(state.pool);
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
                self.state.stop.get_or_insert(StopReason::BudgetSpent);
                Ok(SamplerPhase::Done)
            }
        }
    }

    fn observe(&mut self, unit: u64, value: f64) {
        self.state.observed.push((unit, value));
    }

    fn estimate(&self) -> Result<SamplerEstimate, StatsError> {
        self.state.estimate()
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
struct AdaptiveSampler {
    state: TwoPhaseState,
    started: bool,
    /// Consecutive batch boundaries at which the running interval met
    /// the target; a stop needs two in a row.
    met_streak: u8,
}

impl Sampler for AdaptiveSampler {
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
            && est.meets(self.state.spec.epsilon, self.state.confidence)?
        {
            if self.met_streak >= 1 {
                self.state.stop = Some(StopReason::TargetMet);
                return Ok(SamplerPhase::Done);
            }
            self.met_streak += 1;
        } else {
            self.met_streak = 0;
        }
        let pool = self.state.pool;
        if n >= pool {
            self.state.stop = Some(StopReason::PoolExhausted);
            return Ok(SamplerPhase::Done);
        }
        let batch = BATCH.min(pool - n);

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

        let mut phase = self.state.draw_phase(&per_stratum);
        if phase.is_empty() {
            // Greedy targets were saturated; fall back to anything left.
            phase = self.state.draw_phase(&vec![batch; spreads.len()]);
        }
        if phase.is_empty() {
            self.state.stop = Some(StopReason::PoolExhausted);
            return Ok(SamplerPhase::Done);
        }
        Ok(SamplerPhase::Measure(phase))
    }

    fn observe(&mut self, unit: u64, value: f64) {
        self.state.observed.push((unit, value));
    }

    fn estimate(&self) -> Result<SamplerEstimate, StatsError> {
        self.state.estimate()
    }
}

/// Runs a sampler to completion — the one phase loop, for the
/// execution layer's store replays and for offline drives alike.
/// `measure` gets each phase whole, its units ascending, and returns the
/// `(unit, value)` observations it made; they are fed back in ascending
/// unit order, so the run is bit-reproducible however the phase was
/// measured. A unit `measure` returns no value for stays issued but
/// unobserved.
///
/// # Errors
///
/// Sampler errors, and whatever `measure` returns.
pub fn drive_sampler<E: From<StatsError>>(
    mut sampler: Box<dyn Sampler>,
    mut measure: impl FnMut(&[u64]) -> Result<Vec<(u64, f64)>, E>,
) -> Result<SamplerEstimate, E> {
    while let SamplerPhase::Measure(mut units) = sampler.next_phase()? {
        units.sort_unstable();
        let mut observed = measure(&units)?;
        observed.sort_unstable_by_key(|&(unit, _)| unit);
        for (unit, value) in observed {
            sampler.observe(unit, value);
        }
    }
    Ok(sampler.estimate()?)
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

    /// A `kind` spec at `(±epsilon, confidence)` with `seed`.
    fn spec(kind: SamplerKind, epsilon: f64, confidence: Confidence, seed: u64) -> SamplerSpec {
        SamplerSpec {
            kind,
            seed,
            epsilon,
            confidence: confidence.level(),
            ..SamplerSpec::systematic()
        }
    }

    /// Drives `spec` over the whole of `pop`.
    fn drive(spec: SamplerSpec, pop: &[f64]) -> SamplerEstimate {
        let sampler = spec.build(pop.len() as u64).unwrap();
        let value = |&unit: &u64| (unit, pop[unit as usize]);
        drive_sampler(sampler, |units| {
            Ok::<_, StatsError>(units.iter().map(value).collect())
        })
        .unwrap()
    }

    #[test]
    fn stratified_sampler_is_seed_deterministic() {
        let pop = phased_population(2000, 11);
        let spec = spec(SamplerKind::Stratified, 0.03, Confidence::THREE_SIGMA, 42);
        let a = drive(spec, &pop);
        let b = drive(spec, &pop);
        assert_eq!(a, b, "same seed must reproduce the exact estimate");
        let c = drive(SamplerSpec { seed: 43, ..spec }, &pop);
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

        let est = drive(spec(SamplerKind::Stratified, 0.03, conf, 9), &pop);
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
        let spec = spec(SamplerKind::Adaptive, 0.03, conf, 17);
        let a = drive(spec, &pop);
        let b = drive(spec, &pop);
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
        let spec = SamplerSpec {
            pilot: 10,
            strata: 3,
            // An unreachable target.
            ..spec(SamplerKind::Adaptive, 0.001, Confidence::THREE_SIGMA, 1)
        };
        let est = drive(spec, &pop);
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
    fn samplers_never_reissue_units() {
        let pop = phased_population(500, 2);
        for kind in [SamplerKind::Stratified, SamplerKind::Adaptive] {
            let spec = spec(kind, 0.01, Confidence::NINETY_FIVE, 3);
            let mut sampler = spec.build(500).unwrap();
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
        let stratified = spec(SamplerKind::Stratified, 0.03, conf, 0);
        assert!(stratified.build(0).is_err());
        let bad_eps = spec(SamplerKind::Adaptive, -1.0, conf, 0);
        assert!(bad_eps.build(100).is_err());
    }

    #[test]
    fn estimate_before_observation_is_an_error() {
        let spec = spec(SamplerKind::Stratified, 0.03, Confidence::NINETY_FIVE, 0);
        assert!(spec.build(100).unwrap().estimate().is_err());
    }

    #[test]
    fn only_a_selecting_spec_builds_a_sampler() {
        let systematic = SamplerSpec::systematic();
        assert_eq!(systematic.build(100).err(), Some(StatsError::NoSampler));
        for kind in [SamplerKind::Stratified, SamplerKind::Adaptive] {
            let spec = SamplerSpec { kind, ..systematic };
            assert!(spec.build(100).is_ok(), "{kind}");
        }
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
