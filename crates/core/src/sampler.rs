//! The SMARTS systematic sampling driver (Sections 3.1 and 5.1).

use std::fmt;
use std::time::{Duration, Instant};

use crate::checkpoint::{UnitReplay, WarmSpares};
use crate::error::SmartsError;
use smarts_energy::{ActivityCounters, EnergyModel};
use smarts_stats::{Confidence, RunningStats, SampleEstimate, StatsError};
use smarts_uarch::{MachineConfig, WarmState};
use smarts_workloads::{Benchmark, Loaded};

/// How microarchitectural state is maintained between sampling units.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Warming {
    /// Plain fast-forwarding: caches, TLBs, and the branch predictor go
    /// stale between units and must be rebuilt by detailed warming alone.
    None,
    /// Functional warming: the long-history state is updated for every
    /// fast-forwarded instruction (the paper's recommended mode).
    Functional,
}

/// Parameters of one systematic sampling simulation run (Figure 1): the
/// design `(U, W, k, j)`, whose [`SamplingParams::grid`] units a run
/// measures up to the stream's end, under a warming mode.
///
/// # Examples
///
/// ```
/// use smarts_core::{SamplingParams, Warming};
///
/// # fn main() -> Result<(), smarts_core::SmartsError> {
/// // U = 1000, W = 2000, functional warming, n ≈ 30 over a 3M stream.
/// let params = SamplingParams::for_sample_size(3_000_000, 1000, 2000, Warming::Functional, 30, 0)?;
/// assert_eq!(params.interval, 100);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SamplingParams {
    /// Sampling unit size `U` in instructions.
    pub unit_size: u64,
    /// Detailed warming `W` in instructions before each unit.
    pub detailed_warming: u64,
    /// Fast-forward warming mode.
    pub warming: Warming,
    /// Systematic sampling interval `k` in units.
    pub interval: u64,
    /// Phase offset `j` in units, `0 ≤ j < k`.
    pub offset: u64,
}

impl SamplingParams {
    /// Builds parameters that target a sample of about `n` units over a
    /// stream of approximately `stream_len` instructions:
    /// `k = max(1, ⌊N/n⌋)` with `N = stream_len / U`.
    ///
    /// The grid covers the entire stream at interval `k`, so the realized
    /// sample size is `⌈N_true/k⌉`: it tracks the true stream length even
    /// when `stream_len` is only an estimate.
    ///
    /// Every unit replays from its own checkpoint, so units may sit
    /// closer than their detailed warming (`k·U < W + U`, down to the
    /// census `n = N`, `k = 1`); such a design simulates more
    /// instructions in detail than the stream holds, which the report's
    /// instruction counts show.
    ///
    /// # Errors
    ///
    /// Returns an error when `unit_size` or `n` is zero, or `offset`
    /// is not below the computed interval.
    pub fn for_sample_size(
        stream_len: u64,
        unit_size: u64,
        detailed_warming: u64,
        warming: Warming,
        n: u64,
        offset: u64,
    ) -> Result<Self, SmartsError> {
        if unit_size == 0 {
            return Err(SmartsError::ZeroParameter("unit_size"));
        }
        if n == 0 {
            return Err(SmartsError::ZeroParameter("n"));
        }
        let population = (stream_len / unit_size).max(1);
        let interval = (population / n).max(1);
        let params = SamplingParams {
            unit_size,
            detailed_warming,
            warming,
            interval,
            offset,
        };
        params.validate()?;
        Ok(params)
    }

    /// The paper's recommended operating point for a machine: `U = 1000`,
    /// `W` from [`MachineConfig::recommended_detailed_warming`] (2000 /
    /// 4000 instructions), functional warming.
    pub fn paper_defaults(
        cfg: &MachineConfig,
        stream_len: u64,
        n: u64,
    ) -> Result<Self, SmartsError> {
        SamplingParams::for_sample_size(
            stream_len,
            1000,
            cfg.recommended_detailed_warming(),
            Warming::Functional,
            n,
            0,
        )
    }

    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// Returns an error when `unit_size` or `interval` is zero, or
    /// `offset ≥ interval`.
    pub fn validate(&self) -> Result<(), SmartsError> {
        if self.unit_size == 0 {
            return Err(SmartsError::ZeroParameter("unit_size"));
        }
        if self.interval == 0 {
            return Err(SmartsError::ZeroParameter("interval"));
        }
        if self.offset >= self.interval {
            return Err(SmartsError::OffsetOutOfRange {
                offset: self.offset,
                interval: self.interval,
            });
        }
        Ok(())
    }

    /// The design's unit indices in stream order, `j + m·k` for
    /// `m = 0, 1, …` (unit `i` starts at instruction `i·U`): unbounded,
    /// since the stream's end bounds a run.
    pub fn grid(&self) -> impl Iterator<Item = u64> {
        let interval = self.interval;
        std::iter::successors(Some(self.offset), move |index| index.checked_add(interval))
    }

    /// A copy with a different phase offset (for bias estimation over
    /// multiple systematic phases, Section 4.3).
    ///
    /// # Errors
    ///
    /// Returns an error when `offset ≥ interval`.
    pub fn with_offset(&self, offset: u64) -> Result<Self, SmartsError> {
        let params = SamplingParams { offset, ..*self };
        params.validate()?;
        Ok(params)
    }
}

/// One measured sampling unit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UnitSample {
    /// Stream offset (in instructions) at which measurement began.
    pub start_instr: u64,
    /// Cycles taken by the measured `U` instructions.
    pub cycles: u64,
    /// Instructions measured (always `U` for recorded units).
    pub instructions: u64,
    /// CPI of the unit.
    pub cpi: f64,
    /// Energy per instruction of the unit, in nanojoules.
    pub epi: f64,
    /// Full activity counters of the measured window, enabling estimation
    /// of any derived per-unit metric (Section 3: the framework "is
    /// generally applicable to other performance metrics").
    pub counters: ActivityCounters,
}

impl UnitSample {
    /// Events per kilo-instruction for an arbitrary counter projection.
    pub fn per_kilo_instruction(&self, events: u64) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            events as f64 * 1000.0 / self.instructions as f64
        }
    }

    /// Conditional-branch mispredictions per kilo-instruction.
    pub fn branch_mpki(&self) -> f64 {
        self.per_kilo_instruction(self.counters.branch_mispredicts)
    }

    /// Main-memory accesses per kilo-instruction.
    pub fn memory_pki(&self) -> f64 {
        self.per_kilo_instruction(self.counters.mem_accesses)
    }
}

/// Instruction counts by simulation mode for one sampling run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ModeInstructions {
    /// Instructions fast-forwarded between a unit's checkpoint and its
    /// detailed episode: always 0, since every unit replays from its
    /// warming start. Kept as a field of the canonical report line.
    pub fast_forwarded: u64,
    /// Instructions simulated in detail without measurement (`n·W`).
    pub detailed_warmed: u64,
    /// Instructions simulated in detail and measured (`n·U`).
    pub measured: u64,
}

impl ModeInstructions {
    /// Instructions simulated in detail, warming and measured.
    pub fn detailed(&self) -> u64 {
        self.detailed_warmed + self.measured
    }
}

/// The result of one SMARTS sampling simulation: per-unit measurements,
/// aggregate estimates, and cost accounting.
#[derive(Debug, Clone)]
pub struct SampleReport {
    /// Parameters the run used.
    pub params: SamplingParams,
    /// Per-unit measurements in stream order.
    pub units: Vec<UnitSample>,
    /// Instruction counts by mode.
    pub instructions: ModeInstructions,
    /// Wall-clock spent fast-forwarding (functional ± warming).
    pub wall_functional: Duration,
    /// Wall-clock spent in detailed simulation (warming + measurement).
    pub wall_detailed: Duration,
    cpi_stats: RunningStats,
    epi_stats: RunningStats,
}

impl SampleReport {
    /// Builds a report by re-accumulating per-unit estimates in stream
    /// order.
    ///
    /// This is the deterministic anchor of [`SampleReport::merge`]: the
    /// CPI/EPI accumulators are fed one unit at a time in stream order,
    /// so a report assembled from concurrently-measured units is
    /// bit-identical to the sequential one. `units` must already be
    /// sorted by `start_instr`.
    pub fn from_units(
        params: SamplingParams,
        units: Vec<UnitSample>,
        instructions: ModeInstructions,
        wall_functional: Duration,
        wall_detailed: Duration,
    ) -> Self {
        let mut cpi_stats = RunningStats::new();
        let mut epi_stats = RunningStats::new();
        for unit in &units {
            cpi_stats.push(unit.cpi);
            epi_stats.push(unit.epi);
        }
        SampleReport {
            params,
            units,
            instructions,
            wall_functional,
            wall_detailed,
            cpi_stats,
            epi_stats,
        }
    }

    /// The one merge behind every route: replay outcomes keyed by distinct
    /// unit index, in stream order whichever worker measured what, each
    /// accounted into the mode breakdown until the first partial unit
    /// ends the sample (the population is the `⌊stream/U⌋` whole units).
    /// `walls` are the run's functional and detailed walls.
    ///
    /// # Errors
    ///
    /// [`SmartsError::EmptySample`] when no unit completed.
    pub fn merge(
        params: SamplingParams,
        outcomes: impl IntoIterator<Item = (usize, UnitReplay)>,
        (wall_functional, wall_detailed): (Duration, Duration),
    ) -> Result<Self, SmartsError> {
        let mut outcomes: Vec<(usize, UnitReplay)> = outcomes.into_iter().collect();
        outcomes.sort_unstable_by_key(|(index, _)| *index);
        let mut units = Vec::with_capacity(outcomes.len());
        let mut instructions = ModeInstructions::default();
        for (_, replay) in outcomes {
            replay.account(&mut instructions);
            match replay {
                UnitReplay::Complete { sample, .. } => units.push(*sample),
                UnitReplay::Partial { .. } => break,
            }
        }
        if units.is_empty() {
            return Err(SmartsError::EmptySample);
        }
        Ok(SampleReport::from_units(
            params,
            units,
            instructions,
            wall_functional,
            wall_detailed,
        ))
    }

    /// Number of measured sampling units `n`.
    pub fn sample_size(&self) -> u64 {
        self.units.len() as u64
    }

    /// The CPI estimate with its dispersion information.
    pub fn cpi(&self) -> SampleEstimate {
        SampleEstimate::from_stats(&self.cpi_stats)
    }

    /// The EPI estimate (nJ/instruction) with its dispersion information.
    pub fn epi(&self) -> SampleEstimate {
        SampleEstimate::from_stats(&self.epi_stats)
    }

    /// Per-unit CPI values in stream order.
    pub fn unit_cpis(&self) -> impl Iterator<Item = f64> + '_ {
        self.units.iter().map(|u| u.cpi)
    }

    /// Builds a confidence-quantified estimate of *any* per-unit metric —
    /// the Section 3 generalization beyond CPI. The closure maps one
    /// measured unit to the metric value; the returned estimate carries
    /// the measured coefficient of variation so the usual interval and
    /// `required_n` machinery applies.
    ///
    /// # Examples
    ///
    /// ```
    /// # use smarts_core::{SamplingParams, SmartsSim, Warming};
    /// # use smarts_uarch::MachineConfig;
    /// # use smarts_workloads::find;
    /// # fn main() -> Result<(), smarts_core::SmartsError> {
    /// # let sim = SmartsSim::new(MachineConfig::eight_way());
    /// # let bench = find("branchy-1").unwrap().scaled(0.02);
    /// # let params = SamplingParams::paper_defaults(sim.config(), bench.approx_len(), 5)?;
    /// let report = sim.sample(&bench, &params)?;
    /// let mpki = report.estimate_metric(|unit| unit.branch_mpki());
    /// assert!(mpki.mean() >= 0.0);
    /// # Ok(())
    /// # }
    /// ```
    pub fn estimate_metric<F>(&self, metric: F) -> SampleEstimate
    where
        F: FnMut(&UnitSample) -> f64,
    {
        let stats: RunningStats = self.units.iter().map(metric).collect();
        SampleEstimate::from_stats(&stats)
    }

    /// Estimate of conditional-branch mispredictions per kilo-instruction.
    pub fn branch_mpki(&self) -> SampleEstimate {
        self.estimate_metric(UnitSample::branch_mpki)
    }

    /// Estimate of main-memory accesses per kilo-instruction.
    pub fn memory_pki(&self) -> SampleEstimate {
        self.estimate_metric(UnitSample::memory_pki)
    }

    /// Total wall-clock of the two phases: the run's, when they do not
    /// overlap (an overlapping `smarts-exec` run reports its own).
    pub fn wall_total(&self) -> Duration {
        self.wall_functional + self.wall_detailed
    }
}

impl fmt::Display for SampleReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} CPI {} EPI {} detailed {} instructions",
            self.sample_size(),
            self.cpi(),
            self.epi(),
            self.instructions.detailed()
        )
    }
}

/// The SMARTS sampling simulator: a machine configuration plus an energy
/// model, able to run sampling simulations and full-detail references.
///
/// # Examples
///
/// ```
/// use smarts_core::{SamplingParams, SmartsSim, Warming};
/// use smarts_uarch::MachineConfig;
/// use smarts_workloads::find;
///
/// # fn main() -> Result<(), smarts_core::SmartsError> {
/// let sim = SmartsSim::new(MachineConfig::eight_way());
/// let bench = find("loopy-1").unwrap().scaled(0.05);
/// let params = SamplingParams::for_sample_size(
///     bench.approx_len(), 1000, 2000, Warming::Functional, 10, 0)?;
/// let report = sim.sample(&bench, &params)?;
/// assert!(report.sample_size() > 0);
/// assert!(report.cpi().mean() > 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SmartsSim {
    cfg: MachineConfig,
    energy: EnergyModel,
}

impl SmartsSim {
    /// Creates a simulator, selecting the energy preset matching the
    /// machine width.
    pub fn new(cfg: MachineConfig) -> Self {
        let energy = if cfg.fetch_width >= 16 {
            EnergyModel::sixteen_way()
        } else {
            EnergyModel::eight_way()
        };
        SmartsSim { cfg, energy }
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// The energy model.
    pub fn energy(&self) -> &EnergyModel {
        &self.energy
    }

    /// Runs one systematic sampling simulation over a benchmark.
    ///
    /// # Errors
    ///
    /// Returns an error for invalid parameters, or
    /// [`SmartsError::EmptySample`] when the stream ends before the first
    /// unit completes.
    pub fn sample(
        &self,
        bench: &Benchmark,
        params: &SamplingParams,
    ) -> Result<SampleReport, SmartsError> {
        self.sample_loaded(bench.load(), params)
    }

    /// Runs one systematic sampling simulation over an already-loaded
    /// benchmark image: the functional-warming pass of
    /// [`SmartsSim::stream_checkpoints_with`] hands each unit's checkpoint
    /// to [`SmartsSim::replay_with`] on this thread the moment its
    /// boundary is reached, and [`SampleReport::merge`] reduces the
    /// outcomes. Units are independent, so this is the report every
    /// checkpointed route reduces to, at any worker count; one
    /// checkpoint and one spare warm state are resident at a time.
    ///
    /// Under [`Warming::None`] each unit replays instead on the warm state
    /// the previous unit's episode left: the paper's stale-state design.
    ///
    /// # Errors
    ///
    /// As for [`SmartsSim::sample`].
    pub fn sample_loaded<I: smarts_isa::Isa>(
        &self,
        loaded: Loaded<I>,
        params: &SamplingParams,
    ) -> Result<SampleReport, SmartsError> {
        let program = loaded.program.clone();
        let spares = WarmSpares::default();
        spares.keep(1);
        let mut stale = (params.warming == Warming::None).then(|| WarmState::new(&self.cfg));
        let mut outcomes = Vec::new();
        let mut wall_detailed = Duration::ZERO;
        let summary = self.stream_checkpoints_with(loaded, params, &spares, |checkpoint| {
            let t0 = Instant::now();
            let replay = self.replay_unit(&program, params, checkpoint, stale.as_mut(), &spares);
            wall_detailed += t0.elapsed();
            outcomes.push((outcomes.len(), replay));
            true
        })?;
        let wall_functional = summary.build_wall.saturating_sub(wall_detailed);
        SampleReport::merge(*params, outcomes, (wall_functional, wall_detailed))
    }
}

/// Result of the two-step confidence procedure.
#[derive(Debug, Clone)]
pub struct TwoStepOutcome {
    /// The `n_init` run.
    pub initial: SampleReport,
    /// The `n_tuned` run, when the initial confidence was insufficient.
    pub tuned: Option<SampleReport>,
}

impl TwoStepOutcome {
    /// The paper's two-step procedure (Section 5.1) over a stream of about
    /// `stream_len` instructions: one run at `params`; if the achieved
    /// interval misses `±epsilon` at the given confidence, a second run at
    /// `n_tuned = (z·V̂/ε)²`. `sample` performs each run — on one thread
    /// (`|p| sim.sample(&bench, p)`) or on a worker pool.
    ///
    /// # Errors
    ///
    /// Whatever `sample` returns, plus invalid `epsilon`/confidence.
    pub fn run<E: From<SmartsError>>(
        stream_len: u64,
        params: &SamplingParams,
        epsilon: f64,
        confidence: Confidence,
        mut sample: impl FnMut(&SamplingParams) -> Result<SampleReport, E>,
    ) -> Result<Self, E> {
        let initial = sample(params)?;
        let cpi = initial.cpi();
        let stats = |e: StatsError| E::from(SmartsError::from(e));
        let tuned = if cpi.meets(epsilon, confidence).map_err(stats)? {
            None
        } else {
            let n_tuned = cpi.required_n(epsilon, confidence).map_err(stats)?;
            let retuned = SamplingParams::for_sample_size(
                stream_len,
                params.unit_size,
                params.detailed_warming,
                params.warming,
                n_tuned,
                0, // the tuned run's interval shrinks; restart at phase 0
            )?;
            Some(sample(&retuned)?)
        };
        Ok(TwoStepOutcome { initial, tuned })
    }

    /// The report that should be used for the final estimate.
    pub fn best(&self) -> &SampleReport {
        self.tuned.as_ref().unwrap_or(&self.initial)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smarts_workloads::find;

    fn sim() -> SmartsSim {
        SmartsSim::new(MachineConfig::eight_way())
    }

    #[test]
    fn params_validation() {
        assert!(SamplingParams::for_sample_size(1_000_000, 0, 0, Warming::None, 10, 0).is_err());
        assert!(SamplingParams::for_sample_size(1_000_000, 1000, 0, Warming::None, 0, 0).is_err());
        // offset beyond interval
        let err = SamplingParams::for_sample_size(10_000, 1000, 0, Warming::None, 10, 5);
        assert!(err.is_err());
    }

    #[test]
    fn sampling_measures_requested_units() {
        let bench = find("loopy-1").unwrap().scaled(0.1); // ~360k instrs
        let params = SamplingParams::for_sample_size(
            bench.approx_len(),
            1000,
            2000,
            Warming::Functional,
            20,
            0,
        )
        .unwrap();
        let report = sim().sample(&bench, &params).unwrap();
        assert_eq!(report.sample_size(), 20);
        for unit in &report.units {
            assert_eq!(unit.instructions, 1000);
            assert!(unit.cpi > 0.0);
            assert!(unit.epi > 0.0);
        }
        // Units are k·U apart.
        let starts: Vec<u64> = report.units.iter().map(|u| u.start_instr).collect();
        let k = params.interval;
        for pair in starts.windows(2) {
            assert_eq!(pair[1] - pair[0], k * 1000);
        }
    }

    #[test]
    fn detailed_fraction_is_small() {
        let bench = find("loopy-1").unwrap().scaled(0.1);
        let params =
            SamplingParams::paper_defaults(sim().config(), bench.approx_len(), 10).unwrap();
        let report = sim().sample(&bench, &params).unwrap();
        let fraction = report.instructions.detailed() as f64 / bench.approx_len() as f64;
        assert!(fraction < 0.2, "fraction = {fraction}");
        // Every unit replays from its checkpoint: nothing is fast-forwarded
        // inside a detailed episode.
        assert_eq!(report.instructions.fast_forwarded, 0);
    }

    #[test]
    fn homogeneous_benchmark_has_tiny_cv() {
        let bench = find("loopy-1").unwrap().scaled(0.1);
        // Offset 1 skips the cold-start unit at instruction 0, which is
        // measured before any state has warmed (visible initialization
        // bias, exactly the effect Section 4 studies).
        let params = SamplingParams::paper_defaults(sim().config(), bench.approx_len(), 15)
            .unwrap()
            .with_offset(1)
            .unwrap();
        let report = sim().sample(&bench, &params).unwrap();
        assert!(
            report.cpi().coefficient_of_variation() < 0.1,
            "V = {}",
            report.cpi().coefficient_of_variation()
        );
        // Therefore it meets ±3% @ 99.7% immediately.
        assert!(report.cpi().meets(0.03, Confidence::THREE_SIGMA).unwrap());
    }

    #[test]
    fn offset_shifts_unit_starts() {
        let bench = find("branchy-1").unwrap().scaled(0.1);
        let base = SamplingParams::for_sample_size(
            bench.approx_len(),
            1000,
            1000,
            Warming::Functional,
            8,
            0,
        )
        .unwrap();
        let shifted = base.with_offset(3).unwrap();
        let r0 = sim().sample(&bench, &base).unwrap();
        let r3 = sim().sample(&bench, &shifted).unwrap();
        assert_eq!(r3.units[0].start_instr - r0.units[0].start_instr, 3 * 1000);
    }

    #[test]
    fn empty_sample_is_an_error() {
        let bench = find("loopy-1").unwrap().scaled(0.01); // ~36k instrs
                                                           // Offset far beyond the stream end.
        let params = SamplingParams {
            unit_size: 1000,
            detailed_warming: 0,
            warming: Warming::None,
            interval: 1_000_000,
            offset: 999_999,
        };
        assert_eq!(
            sim().sample(&bench, &params).unwrap_err(),
            SmartsError::EmptySample
        );
    }

    #[test]
    fn two_step_returns_tuned_run_for_demanding_targets() {
        let bench = find("hashp-2").unwrap().scaled(0.2);
        let params = SamplingParams::for_sample_size(
            bench.approx_len(),
            1000,
            2000,
            Warming::Functional,
            8, // deliberately tiny n_init
            0,
        )
        .unwrap();
        // An extremely tight target that 8 units cannot meet.
        let sample = |p: &SamplingParams| sim().sample(&bench, p);
        let outcome = TwoStepOutcome::run(
            bench.approx_len(),
            &params,
            0.001,
            Confidence::THREE_SIGMA,
            sample,
        )
        .unwrap();
        assert!(outcome.tuned.is_some());
        let tuned = outcome.best();
        assert!(tuned.sample_size() > outcome.initial.sample_size());
    }

    #[test]
    fn mode_instructions_accounting_is_consistent() {
        let bench = find("stream-2").unwrap().scaled(0.2);
        let params = SamplingParams::for_sample_size(
            bench.approx_len(),
            500,
            1000,
            Warming::Functional,
            10,
            0,
        )
        .unwrap();
        let report = sim().sample(&bench, &params).unwrap();
        let m = &report.instructions;
        assert_eq!(m.measured, report.sample_size() * 500);
        assert!(report.sample_size() >= 9, "close to the requested 10 units");
        assert!(m.detailed_warmed <= report.sample_size() * 1000);
        assert_eq!(m.fast_forwarded, 0, "units replay from their checkpoints");
        assert_eq!(m.detailed(), m.detailed_warmed + m.measured);
        assert!(
            m.detailed() * 5 < bench.approx_len(),
            "the warming pass, not detail, covers the stream"
        );
    }
}
