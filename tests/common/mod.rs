//! What the integration suites compare against, in one place: the
//! bit-identity assertion and the two single-threaded oracles. Written
//! against the member crates (not the `smarts` umbrella) so
//! `smarts-exec`'s own tests include this file too.
#![allow(dead_code)]

use std::path::Path;
use std::time::Duration;

use smarts_ckpt::{IsaId, MappedStore, StoreMeta};
use smarts_core::{SampleReport, SamplingParams, SmartsSim, UnitReplay};
use smarts_stats::Confidence;
use smarts_workloads::{Frontend, Loaded};

/// The store identity of workload `name` at `scale` under frontend `isa`
/// with design `params`: what `smarts_exec::sample` warms, and the header
/// of the store it saves.
pub fn meta(isa: IsaId, name: &str, scale: f64, params: &SamplingParams) -> StoreMeta {
    StoreMeta {
        params: *params,
        benchmark: name.to_string(),
        scale,
        isa,
    }
}

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

/// Merges per-unit replays, in stream order, as every route does.
fn reduce(params: &SamplingParams, replays: impl IntoIterator<Item = UnitReplay>) -> SampleReport {
    let walls = (Duration::ZERO, Duration::ZERO);
    SampleReport::merge(*params, replays.into_iter().enumerate(), walls)
        .expect("the oracle measured a unit")
}

/// The sequential oracle: collect the warming pass's checkpoints, then
/// replay each in order on this thread. No channel, store or worker pool
/// between the producer and the report — and, unlike
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

/// The eager store oracle: read the whole store into memory (no mmap),
/// decode it front to back through one cursor, and replay each record
/// on this thread — no workers, no claim order, no unit memo, which is
/// everything the product's replay of the same store adds.
pub fn eager_oracle<F: Frontend>(sim: &SmartsSim, path: &Path) -> SampleReport {
    let store = MappedStore::open_buffered(path, sim.config()).expect("store opens");
    assert!(store.damage().is_none(), "the oracle replays intact stores");
    let meta = store.meta();
    let program = F::resolve(&meta.benchmark, meta.scale)
        .expect("stored workload resolves")
        .program;
    let mut cursor = store.cursor();
    let replays = (0..store.len()).map(|index| {
        let flat = cursor.flat_at(index).expect("intact record");
        let checkpoint = flat
            .rebuild_isa::<F>(sim.config())
            .expect("record rebuilds");
        sim.replay_owned(&program, &meta.params, checkpoint)
    });
    reduce(&meta.params, replays)
}
