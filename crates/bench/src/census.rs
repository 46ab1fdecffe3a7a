//! The census: one interval-1 sampling run, every unit of the stream
//! measured once. Each unit replays from its own checkpoint, so any
//! systematic design at the census's `U` and `W` is a selection of its
//! units, and the statistical experiments become arithmetic over it.

use smarts_core::{
    ReferenceRun, SampleReport, SamplingParams, SmartsError, SmartsSim, UnitReplay, Warming,
};
use smarts_workloads::Benchmark;
use std::time::Duration;

/// An interval-1 warming pass under functional warming with every
/// checkpoint it emits replayed, its [`SmartsSim::sample`] report, and
/// the full-detail reference run of the same stream.
#[derive(Debug, Clone)]
pub struct Census {
    /// By unit index, the partial tail included.
    replays: Vec<UnitReplay>,
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
        // The k = 1 warming pass, every checkpoint replayed: the partial
        // tail too, which a coarser grid may end on.
        let (loaded, mut replays) = (bench.load(), Vec::new());
        let program = loaded.program.clone();
        let pass = sim.stream_checkpoints(loaded, &params, |checkpoint| {
            replays.push(sim.replay_owned(&program, &params, checkpoint));
            true
        });
        pass.expect("census pass");
        let walls = (Duration::ZERO, Duration::ZERO);
        let run = SampleReport::merge(params, replays.iter().cloned().enumerate(), walls)
            .expect("census run");
        Census {
            replays,
            run,
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
        // A unit's warming pass reaches it exactly when the census's does:
        // the first grid unit the census lacks is past the stream.
        let outcomes = params.grid().map_while(|index| {
            let index = usize::try_from(index).ok()?;
            Some((index, self.replays.get(index)?.clone()))
        });
        SampleReport::merge(*params, outcomes, (Duration::ZERO, Duration::ZERO))
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
