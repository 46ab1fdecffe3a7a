//! What the integration suites compare against, in one place: the
//! bit-identity assertion and the two single-threaded oracles. Written
//! against the member crates (not the `smarts` umbrella) so
//! `smarts-exec`'s own tests include this file too.
#![allow(dead_code)]

use std::path::Path;
use std::time::Duration;

use smarts_ckpt::CkptReader;
use smarts_core::{ModeInstructions, SampleReport, SamplingParams, SmartsSim, UnitReplay};
use smarts_stats::Confidence;
use smarts_workloads::{Frontend, Loaded};

/// Every unit, both estimates and their intervals, and the mode
/// accounting agree to the bit.
pub fn assert_bit_identical(candidate: &SampleReport, reference: &SampleReport, what: &str) {
    assert_eq!(
        candidate.sample_size(),
        reference.sample_size(),
        "{what}: sample size"
    );
    for (c, r) in candidate.units.iter().zip(&reference.units) {
        assert_eq!(c.start_instr, r.start_instr, "{what}: unit placement");
        assert_eq!(c.cycles, r.cycles, "{what}: unit cycles");
        assert_eq!(c.cpi.to_bits(), r.cpi.to_bits(), "{what}: unit CPI bits");
        assert_eq!(c.epi.to_bits(), r.epi.to_bits(), "{what}: unit EPI bits");
    }
    let pairs = [
        (candidate.cpi(), reference.cpi(), "CPI"),
        (candidate.epi(), reference.epi(), "EPI"),
    ];
    for (c, r, which) in pairs {
        assert_eq!(
            c.mean().to_bits(),
            r.mean().to_bits(),
            "{what}: {which} mean bits"
        );
        assert_eq!(
            c.coefficient_of_variation().to_bits(),
            r.coefficient_of_variation().to_bits(),
            "{what}: {which} V̂ bits"
        );
        let (clo, chi) = c.interval(Confidence::THREE_SIGMA).expect("interval");
        let (rlo, rhi) = r.interval(Confidence::THREE_SIGMA).expect("interval");
        assert_eq!(clo.to_bits(), rlo.to_bits(), "{what}: {which} CI low bits");
        assert_eq!(chi.to_bits(), rhi.to_bits(), "{what}: {which} CI high bits");
    }
    assert_eq!(
        candidate.instructions, reference.instructions,
        "{what}: mode accounting"
    );
}

/// Reduces per-unit replays, in stream order, the way `SmartsSim::sample`
/// reduces its units: account everything, stop at the partial tail.
fn reduce(params: &SamplingParams, replays: impl IntoIterator<Item = UnitReplay>) -> SampleReport {
    let mut units = Vec::new();
    let mut instructions = ModeInstructions::default();
    for replay in replays {
        replay.account(&mut instructions);
        match replay {
            UnitReplay::Complete { sample, .. } => units.push(*sample),
            UnitReplay::Partial { .. } => break,
        }
    }
    assert!(!units.is_empty(), "the oracle measured no unit");
    SampleReport::from_units(*params, units, instructions, Duration::ZERO, Duration::ZERO)
}

/// The sequential oracle: collect the warming pass's checkpoints, then
/// replay each in order on this thread. No channel, store, worker pool
/// or merge between the producer and the report — and, unlike
/// `SmartsSim::sample`, every checkpoint is kept before any replays.
pub fn sequential_oracle<F: Frontend>(
    sim: &SmartsSim,
    loaded: Loaded<F>,
    params: &SamplingParams,
) -> SampleReport {
    let program = loaded.program.clone();
    let mut checkpoints = Vec::new();
    sim.stream_checkpoints(loaded, params, |checkpoint| {
        checkpoints.push(checkpoint);
        true
    })
    .expect("warming pass");
    let replays = checkpoints
        .iter()
        .map(|checkpoint| sim.replay_checkpoint(&program, params, checkpoint));
    reduce(params, replays)
}

/// The eager store oracle: decode a store record by record through the
/// streaming [`CkptReader`] (not the mapped, lazily decoded path the
/// product replays through) and replay each on this thread.
pub fn eager_oracle<F: Frontend>(sim: &SmartsSim, path: &Path) -> SampleReport {
    let mut reader = CkptReader::open(path, sim.config()).expect("store opens");
    let meta = reader.meta().clone();
    let program = F::resolve(&meta.benchmark, meta.scale)
        .expect("stored workload resolves")
        .program;
    let replays = std::iter::from_fn(|| reader.next_checkpoint_isa::<F>()).map(|checkpoint| {
        sim.replay_owned(&program, &meta.params, checkpoint.expect("intact record"))
    });
    reduce(&meta.params, replays)
}
