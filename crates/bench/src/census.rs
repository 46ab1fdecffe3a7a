//! The census: one interval-1 sampling run, every unit of the stream
//! measured once. Each unit replays from its own checkpoint, so any
//! systematic design at the census's `U` and `W` is a selection of its
//! units, and the statistical experiments become arithmetic over it.

use smarts_core::{
    ModeInstructions, ReferenceRun, SampleReport, SamplingParams, SmartsError, SmartsSim, Warming,
};
use smarts_workloads::Benchmark;
use std::time::Duration;

/// An interval-1 [`SmartsSim::sample`] run under functional warming,
/// beside the full-detail reference run of the same stream.
#[derive(Debug, Clone)]
pub struct Census {
    run: SampleReport,
    reference_cpis: Vec<f64>,
}

impl Census {
    /// Measures every unit of `bench` at the reference's unit size and
    /// detailed warming `w`.
    pub fn new(sim: &SmartsSim, bench: &Benchmark, reference: &ReferenceRun, w: u64) -> Self {
        let (len, u) = (bench.approx_len(), reference.unit_size);
        let n = (len / u).max(1);
        let params = SamplingParams::for_sample_size(len, u, w, Warming::Functional, n, 0)
            .expect("census parameters");
        Census {
            run: sim.sample(bench, &params).expect("census run"),
            reference_cpis: reference.unit_cpis.clone(),
        }
    }

    /// The interval-1 run itself.
    pub fn report(&self) -> &SampleReport {
        &self.run
    }

    /// The report [`SmartsSim::sample`] returns for `params` — the same
    /// units, estimates, instruction counts and errors — with zero walls.
    /// Panics when `params` has another `U`, `W` or warming than the census.
    pub fn sample(&self, params: &SamplingParams) -> Result<SampleReport, SmartsError> {
        let own = &self.run.params;
        assert_eq!(
            (params.unit_size, params.detailed_warming, params.warming),
            (own.unit_size, own.detailed_warming, own.warming),
            "a census answers for its own U, W and warming only"
        );
        params.validate()?;
        // The census measured every instruction of the stream once.
        let (u, len) = (params.unit_size, self.run.instructions.measured);
        let (mut units, mut instructions) = (Vec::new(), ModeInstructions::default());
        let (mut index, cap) = (params.offset, params.max_units.unwrap_or(u64::MAX));
        while (units.len() as u64) < cap {
            let start = index * u;
            let warm_start = start.saturating_sub(params.detailed_warming);
            if warm_start >= len {
                break;
            }
            // A replay's two runs stop at their budgets or at the end of
            // the stream, whichever comes first.
            instructions.detailed_warmed += start.min(len) - warm_start;
            let Some(unit) = self.run.units.get(index as usize) else {
                instructions.measured += len.saturating_sub(start);
                break;
            };
            instructions.measured += u;
            units.push(*unit);
            index += params.interval;
        }
        if units.is_empty() {
            return Err(SmartsError::EmptySample);
        }
        let zero = Duration::ZERO;
        Ok(SampleReport::from_units(
            *params,
            units,
            instructions,
            zero,
            zero,
        ))
    }

    /// Relative CPI bias under the census's warming (Section 4.3's mean
    /// error over every systematic phase): the census mean unit CPI minus
    /// the reference's mean over the same units, relative to the latter.
    /// Unit 0, measured cold, is excluded.
    pub fn bias(&self) -> f64 {
        // Both means divide by the same count, which cancels.
        let (census, reference) = (self.run.unit_cpis().zip(&self.reference_cpis))
            .skip(1)
            .fold((0.0, 0.0), |(c, r), (x, y)| (c + x, r + y));
        (census - reference) / reference
    }
}
