//! The event-driven [`Pipeline`] against the [`ScanPipeline`] oracle on
//! *real* sampling units: checkpoints written to a store, read back and
//! rebuilt, so each episode starts from warm caches, a trained predictor
//! and whatever the warming stream left in flight — where a slip in the
//! window structures would hide from `crates/uarch/tests/cross_model.rs`,
//! which drives random programs from a cold state only.

#[path = "../crates/uarch/tests/oracles/scan.rs"]
mod scan;

use scan::ScanPipeline;
use smarts::ckpt::{CkptWriter, MappedStore, StoreMeta};
use smarts::core::{FunctionalEngine, UnitCheckpoint};
use smarts::isa::{BuiltinIsa, Isa};
use smarts::prelude::*;
use smarts::uarch::UnitMeasurement;
use smarts::workloads::Frontend;

const PROBES: [&str; 5] = ["hashp-2", "chase-2", "branchy-1", "loopy-1", "rle-1"];
const SCALE: f64 = 0.25;
const UNIT: u64 = 1000;
const DETAILED_WARMING: u64 = 2000;

/// What one `W + U` episode leaves behind: both intervals' measurements
/// (cycles, instructions, pulled, every activity counter) and the warm
/// state's canonical words afterwards.
type Episode = (UnitMeasurement, UnitMeasurement, Vec<u64>);

/// Runs the episode of `checkpoint` through `run`, one of the two
/// engines' `run` methods behind a closure.
fn episode(
    checkpoint: &UnitCheckpoint,
    program: &Program,
    mut run: impl FnMut(&mut WarmState, &mut FunctionalEngine, u64, bool) -> UnitMeasurement,
) -> Episode {
    let mut warm = checkpoint.warm().clone();
    let mut engine =
        FunctionalEngine::from_snapshot(program.clone(), checkpoint.snapshot().clone());
    let warming = checkpoint.unit_start() - engine.position();
    let warmed = run(&mut warm, &mut engine, warming, false);
    let measured = run(&mut warm, &mut engine, UNIT, true);
    let mut words = Vec::new();
    warm.save_state(&mut words);
    (warmed, measured, words)
}

#[test]
fn event_engine_matches_the_scan_oracle_on_stored_units() {
    for cfg in [MachineConfig::eight_way(), MachineConfig::sixteen_way()] {
        let sim = SmartsSim::new(cfg.clone());
        for bench in PROBES {
            let loaded = <BuiltinIsa as Frontend>::resolve(bench, SCALE).expect("probe resolves");
            let program = loaded.program.clone();
            let len = <BuiltinIsa as Frontend>::approx_len(bench, SCALE).expect("probe length");
            let params = SamplingParams::for_sample_size(
                len,
                UNIT,
                DETAILED_WARMING,
                Warming::Functional,
                10,
                0,
            )
            .expect("valid sampling parameters");

            let path = std::env::temp_dir().join(format!(
                "smarts-oracle-{bench}-{}-{}.ckpt",
                cfg.name,
                std::process::id()
            ));
            let meta = StoreMeta {
                params,
                benchmark: bench.to_string(),
                scale: SCALE,
                isa: BuiltinIsa::ID,
            };
            let mut writer = CkptWriter::create(&path, &cfg, &meta).expect("store creates");
            sim.stream_checkpoints(loaded, &params, |checkpoint| {
                writer.append(&checkpoint).expect("record appends");
                true
            })
            .expect("warming pass");
            writer.finish().expect("store finishes");

            let store = MappedStore::open(&path, &cfg).expect("store opens");
            assert!(store.len() >= 8, "{bench}: only {} units", store.len());
            let mut cursor = store.cursor();
            for index in 0..store.len() {
                let checkpoint = cursor
                    .flat_at(index)
                    .expect("record decodes")
                    .rebuild_isa::<BuiltinIsa>(&cfg)
                    .expect("checkpoint rebuilds");
                let mut event = Pipeline::new(&cfg);
                let mut scan = ScanPipeline::new(&cfg);
                let got = episode(&checkpoint, &program, |w, e, n, m| event.run(w, e, n, m));
                let want = episode(&checkpoint, &program, |w, e, n, m| scan.run(w, e, n, m));
                let what = format!("{bench} on {}, unit {index}", cfg.name);
                assert_eq!(got.0, want.0, "{what}: detailed-warming interval");
                assert_eq!(got.1, want.1, "{what}: measured interval");
                assert!(got.2 == want.2, "{what}: warm state after the episode");
            }
            drop(store);
            std::fs::remove_file(&path).ok();
        }
    }
}
