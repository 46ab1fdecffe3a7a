//! The only file that calls the simulator's libraries.
//!
//! End-to-end numbers never pass through here — they come from the
//! `smarts` and `smarts-server` binaries. This file is the staged pass:
//! it runs a job in process, single-threaded, one layer at a time, with
//! a span around every call into a layer, and it computes the golden
//! report lines the binaries' output is compared with (a second path to
//! the same bytes). Each layer is called from exactly one function
//! below, named after the crate it enters, so an API change in the repo
//! is a one-function edit here.
//!
//! It calls none of `smarts_exec::persist`'s entry points, no
//! `CheckpointLibrary`, `ScanPipeline` or pre-touch: ROADMAP schedules
//! those for deletion. (`SampledReplay`/`ParallelReport` are built as
//! plain data, because the sampled report line is serialized from them.)

use std::path::Path;
use std::time::Duration;

use smarts_ckpt::{CkptWriter, FlatCheckpoint, MappedStore, StoreCursor, StoreMeta};
use smarts_core::{
    FunctionalEngine, ModeInstructions, SampleReport, SamplerKind, SamplerSpec, SamplingParams,
    SmartsSim, SpeedupModel, UnitCheckpoint, UnitReplay, Warming,
};
use smarts_exec::{ParallelMode, ParallelReport, SampledReplay};
use smarts_isa::{BuiltinIsa, RiscIsa};
use smarts_server::{Client, JobSpec};
use smarts_stats::{Confidence, SamplerEstimate, SamplerPhase};
use smarts_uarch::{MachineConfig, WarmState};
use smarts_workloads::{Frontend, Loaded};

use crate::schedule::{Sampler, Spec};
use crate::trace::{Recorder, OP, PROBE};

/// Every workload runs at `--scale 1`: the risc frontend's 16-bit
/// immediates reject `chase-2`/`loopy-*` above it.
const SCALE: f64 = 1.0;
/// Sampling unit size `U`, the CLI default.
const UNIT: u64 = 1000;

/// What a staged job produced, as plain data.
#[derive(Debug, Clone, PartialEq)]
pub struct Staged {
    /// The canonical report line — must equal the binaries' bytes.
    pub line: String,
    /// The CPI estimate the report carries.
    pub cpi: f64,
    /// The reported 99.7% relative half-width of that estimate, percent.
    pub half_width_pct: f64,
}

fn machine() -> MachineConfig {
    MachineConfig::eight_way()
}

fn sampler_spec(sampler: Sampler) -> SamplerSpec {
    let (kind, seed) = match sampler {
        Sampler::Systematic => (SamplerKind::Systematic, 0),
        Sampler::Stratified(seed) => (SamplerKind::Stratified, seed),
        Sampler::Adaptive(seed) => (SamplerKind::Adaptive, seed),
    };
    SamplerSpec {
        kind,
        seed,
        ..SamplerSpec::systematic()
    }
}

/// The sampling design `smarts sample` derives from the same flags.
fn params_for<F: Frontend>(spec: &Spec) -> Result<SamplingParams, String> {
    let approx_len = F::approx_len(spec.bench, SCALE)?;
    SamplingParams::for_sample_size(
        approx_len,
        UNIT,
        spec.w,
        Warming::Functional,
        spec.n,
        spec.offset,
    )
    .map_err(|e| e.to_string())
}

// ---- one function per layer ------------------------------------------------

fn workloads_resolve<F: Frontend>(rec: &mut Recorder, bench: &str) -> Result<Loaded<F>, String> {
    rec.span("workloads.resolve", |_| F::resolve(bench, SCALE))
}

/// `isa`: plain functional simulation of the whole stream (S_F).
fn isa_functional<F: Frontend>(rec: &mut Recorder, loaded: Loaded<F>) -> u64 {
    let mut engine = FunctionalEngine::new(loaded);
    let executed = rec.span("isa.functional", |_| engine.fast_forward(u64::MAX));
    rec.count("isa.functional_instr", executed);
    executed
}

/// `uarch`: functional warming of the whole stream into a fresh warm
/// state, nothing else (S_FW).
fn uarch_warm_pass<F: Frontend>(rec: &mut Recorder, loaded: Loaded<F>, cfg: &MachineConfig) {
    let mut engine = FunctionalEngine::new(loaded);
    let mut warm = WarmState::new(cfg);
    let executed = rec.span("uarch.warm_pass", |_| {
        engine.fast_forward_warming(u64::MAX, &mut warm)
    });
    rec.count("uarch.warm_instr", executed);
}

/// `core`: the plain `smarts sample` path, which interleaves warming
/// and detailed episodes on one engine and reports each side's total.
fn core_sample<F: Frontend>(
    rec: &mut Recorder,
    sim: &SmartsSim,
    loaded: Loaded<F>,
    params: &SamplingParams,
) -> Result<SampleReport, String> {
    rec.span("core.sample", |rec| {
        let report = sim
            .sample_loaded(loaded, params)
            .map_err(|e| e.to_string())?;
        rec.split(&[
            ("uarch.warm", report.wall_functional),
            ("uarch.detail", report.wall_detailed),
        ]);
        Ok(report)
    })
}

/// `core` over `uarch`: the warming pass that captures a checkpoint at
/// every unit boundary.
fn core_stream_checkpoints<F: Frontend>(
    rec: &mut Recorder,
    sim: &SmartsSim,
    loaded: Loaded<F>,
    params: &SamplingParams,
) -> Result<Vec<UnitCheckpoint<F>>, String> {
    let mut checkpoints = Vec::new();
    rec.span("core.stream_checkpoints", |_| {
        sim.stream_checkpoints(loaded, params, |checkpoint| {
            checkpoints.push(checkpoint);
            true
        })
    })
    .map_err(|e| e.to_string())?;
    Ok(checkpoints)
}

/// `ckpt`: delta-encode every checkpoint into a store file.
fn ckpt_encode<F: Frontend>(
    rec: &mut Recorder,
    path: &Path,
    cfg: &MachineConfig,
    meta: &StoreMeta,
    checkpoints: &[UnitCheckpoint<F>],
) -> Result<(), String> {
    let summary = rec
        .span("ckpt.encode", |_| {
            let mut writer = CkptWriter::create(path, cfg, meta)?;
            for checkpoint in checkpoints {
                writer.append(checkpoint)?;
            }
            writer.finish()
        })
        .map_err(|e| e.to_string())?;
    rec.count("ckpt.store_bytes", summary.bytes);
    Ok(())
}

fn ckpt_open(rec: &mut Recorder, path: &Path, cfg: &MachineConfig) -> Result<MappedStore, String> {
    rec.span("ckpt.open", |_| MappedStore::open(path, cfg))
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// `ckpt`: roll the delta chain forward to record `index`.
fn ckpt_decode<'c>(
    rec: &mut Recorder,
    cursor: &'c mut StoreCursor<'_>,
    index: usize,
) -> Result<&'c FlatCheckpoint, String> {
    rec.count("ckpt.decode_units", 1);
    rec.span("ckpt.decode", move |_| cursor.flat_at(index))
        .map_err(|e| e.to_string())
}

fn ckpt_rebuild<F: Frontend>(
    rec: &mut Recorder,
    flat: &FlatCheckpoint,
    cfg: &MachineConfig,
) -> Result<UnitCheckpoint<F>, String> {
    rec.span("ckpt.rebuild", |_| flat.rebuild_isa::<F>(cfg))
        .map_err(str::to_string)
}

/// `uarch`: one detailed `W + U` episode from a checkpoint.
fn uarch_detail<F: Frontend>(
    rec: &mut Recorder,
    sim: &SmartsSim,
    program: &F::Program,
    params: &SamplingParams,
    checkpoint: &UnitCheckpoint<F>,
) -> UnitReplay {
    rec.span("uarch.detail", |_| {
        sim.replay_checkpoint(program, params, checkpoint)
    })
}

/// `core`: the deterministic stream-order merge — stop at the first
/// partial unit, re-accumulate the rest.
fn core_merge(
    rec: &mut Recorder,
    params: SamplingParams,
    mut outcomes: Vec<(usize, UnitReplay)>,
) -> Result<SampleReport, String> {
    let report = rec.span("core.merge", |_| {
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
            return Err("no unit completed".to_string());
        }
        Ok(SampleReport::from_units(
            params,
            units,
            instructions,
            Duration::ZERO,
            Duration::ZERO,
        ))
    })?;
    count_report(rec, &report);
    Ok(report)
}

fn count_report(rec: &mut Recorder, report: &SampleReport) {
    rec.count(
        "uarch.detail_instr",
        report.instructions.detailed_warmed + report.instructions.measured,
    );
    rec.count(
        "uarch.sim_cycles",
        report.units.iter().map(|u| u.cycles).sum(),
    );
    rec.count("stats.units_measured", report.sample_size());
}

/// The serializer lives in `smarts-server`, but the CLI calls it too;
/// the span is named after whoever pays for it in the real job.
fn server_serialize(rec: &mut Recorder, span: &'static str, report: &SampleReport) -> String {
    rec.span(span, |_| smarts_server::canonical_report_line(report))
}

fn server_serialize_sampled(
    rec: &mut Recorder,
    span: &'static str,
    sampled: &SampledReplay,
) -> String {
    rec.span(span, |_| smarts_server::sampled_report_line(sampled))
}

/// `server`: what a served job's client does with the fetched line; a
/// CLI user reads the line, nothing parses it.
fn server_parse(rec: &mut Recorder, caller: Caller, line: &str) -> Result<(), String> {
    if caller == Caller::Cli {
        return Ok(());
    }
    rec.span("server.parse", |_| {
        smarts_server::report_from_json(&smarts_server::json::parse(line)?)
    })
    .map(|_| ())
}

fn systematic_staged(line: String, report: &SampleReport) -> Result<Staged, String> {
    let cpi = report.cpi();
    let half_width = cpi
        .achieved_epsilon(Confidence::THREE_SIGMA)
        .map_err(|e| e.to_string())?;
    Ok(Staged {
        line,
        cpi: cpi.mean(),
        half_width_pct: half_width * 100.0,
    })
}

/// The CPI estimate and its 99.7% relative half-width (percent) that a
/// systematic report line — the bytes a binary printed — carries.
pub fn estimate_of(line: &str) -> Result<(f64, f64), String> {
    let report = smarts_server::report_from_json(&smarts_server::json::parse(line)?)?;
    let staged = systematic_staged(String::new(), &report)?;
    Ok((staged.cpi, staged.half_width_pct))
}

// ---- staged pipelines ------------------------------------------------------

/// Which binary a staged job stands in for; names its serialize span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Caller {
    Cli,
    Server,
}

impl Caller {
    fn serialize_span(self) -> &'static str {
        match self {
            Caller::Cli => "cli.serialize",
            Caller::Server => "server.serialize",
        }
    }
}

/// Dispatches a generic pipeline on the spec's frontend.
macro_rules! by_frontend {
    ($risc:expr, $func:ident($($arg:expr),*)) => {
        if $risc {
            $func::<RiscIsa>($($arg),*)
        } else {
            $func::<BuiltinIsa>($($arg),*)
        }
    };
}

/// Plain `smarts sample` (no store, one worker): resolve → interleaved
/// warming and detailed episodes → serialize. Builtin only: the CLI
/// sends every other frontend through a store.
pub fn stage_direct(spec: &Spec, rec: &mut Recorder) -> Result<Staged, String> {
    assert!(spec.sampler == Sampler::Systematic && !spec.risc);
    rec.span(OP, |rec| {
        let sim = SmartsSim::new(machine());
        let loaded = workloads_resolve::<BuiltinIsa>(rec, spec.bench)?;
        let params = params_for::<BuiltinIsa>(spec)?;
        let report = core_sample(rec, &sim, loaded, &params)?;
        count_report(rec, &report);
        let line = server_serialize(rec, Caller::Cli.serialize_span(), &report);
        systematic_staged(line, &report)
    })
}

fn warm_store<F: Frontend>(
    spec: &Spec,
    store: &Path,
    caller: Caller,
    rec: &mut Recorder,
) -> Result<Staged, String> {
    rec.span(OP, |rec| {
        let cfg = machine();
        let sim = SmartsSim::new(cfg.clone());
        let loaded = workloads_resolve::<F>(rec, spec.bench)?;
        let params = params_for::<F>(spec)?;
        let program = loaded.program.clone();
        let checkpoints = core_stream_checkpoints(rec, &sim, loaded, &params)?;
        let meta = StoreMeta {
            params,
            benchmark: spec.bench.to_string(),
            scale: SCALE,
            isa: F::ID,
        };
        ckpt_encode(rec, store, &cfg, &meta, &checkpoints)?;
        let outcomes = checkpoints
            .iter()
            .enumerate()
            .map(|(index, checkpoint)| {
                (
                    index,
                    uarch_detail::<F>(rec, &sim, &program, &params, checkpoint),
                )
            })
            .collect();
        let report = core_merge(rec, params, outcomes)?;
        let line = server_serialize(rec, caller.serialize_span(), &report);
        server_parse(rec, caller, &line)?;
        systematic_staged(line, &report)
    })
}

/// A warm-and-save job (`--save-checkpoints`, or a served cold job):
/// resolve → warm + capture → encode to `store` → detailed replay of
/// the captured checkpoints → merge → serialize.
pub fn stage_warm_store(
    spec: &Spec,
    store: &Path,
    caller: Caller,
    rec: &mut Recorder,
) -> Result<Staged, String> {
    assert_eq!(spec.sampler, Sampler::Systematic);
    by_frontend!(spec.risc, warm_store(spec, store, caller, rec))
}

fn replay<F: Frontend>(
    store: &Path,
    sampler: Sampler,
    caller: Caller,
    rec: &mut Recorder,
) -> Result<Staged, String> {
    rec.span(OP, |rec| {
        let cfg = machine();
        let sim = SmartsSim::new(cfg.clone());
        let store = ckpt_open(rec, store, &cfg)?;
        let meta = store.meta().clone();
        let params = meta.params;
        let program = workloads_resolve::<F>(rec, &meta.benchmark)?.program;
        let replay_units = |rec: &mut Recorder, picks: &[usize]| {
            // One cursor per phase, as each replay worker gets: picks
            // ascend, so it only rolls forward.
            let mut cursor = store.cursor();
            picks
                .iter()
                .map(|&index| {
                    let flat = ckpt_decode(rec, &mut cursor, index)?;
                    let checkpoint = ckpt_rebuild::<F>(rec, flat, &cfg)?;
                    Ok((
                        index,
                        uarch_detail::<F>(rec, &sim, &program, &params, &checkpoint),
                    ))
                })
                .collect::<Result<Vec<(usize, UnitReplay)>, String>>()
        };

        if sampler == Sampler::Systematic {
            let all: Vec<usize> = (0..store.len()).collect();
            let outcomes = replay_units(rec, &all)?;
            let report = core_merge(rec, params, outcomes)?;
            let line = server_serialize(rec, caller.serialize_span(), &report);
            server_parse(rec, caller, &line)?;
            return systematic_staged(line, &report);
        }

        let spec = sampler_spec(sampler);
        let mut driver = rec
            .span("stats.sampler", |_| spec.build(store.len() as u64))
            .map_err(|e| e.to_string())?;
        let mut outcomes: Vec<(usize, UnitReplay)> = Vec::new();
        loop {
            let phase = rec
                .span("stats.sampler", |_| driver.next_phase())
                .map_err(|e| e.to_string())?;
            let SamplerPhase::Measure(units) = phase else {
                break;
            };
            let mut picks: Vec<usize> = units.iter().map(|&u| u as usize).collect();
            picks.sort_unstable();
            let measured = replay_units(rec, &picks)?;
            rec.span("stats.sampler", |_| {
                for (index, outcome) in &measured {
                    if let UnitReplay::Complete { sample, .. } = outcome {
                        driver.observe(*index as u64, sample.cpi);
                    }
                }
            });
            outcomes.extend(measured);
        }
        let estimate: SamplerEstimate = rec
            .span("stats.sampler", |_| driver.estimate())
            .map_err(|e| e.to_string())?;
        let mut measured: Vec<u64> = outcomes.iter().map(|(i, _)| *i as u64).collect();
        measured.sort_unstable();
        let report = core_merge(rec, params, outcomes)?;
        let sampled = SampledReplay {
            report: ParallelReport {
                report,
                mode: ParallelMode::Checkpoint,
                jobs: 1,
                workers: Vec::new(),
                build_wall: Duration::ZERO,
                parallel_wall: Duration::ZERO,
                pipeline: None,
                shard: None,
            },
            meta,
            spec,
            estimate,
            measured,
        };
        let line = server_serialize_sampled(rec, caller.serialize_span(), &sampled);
        server_parse(rec, caller, &line)?;
        Ok(Staged {
            line,
            cpi: sampled.estimate.mean,
            half_width_pct: sampled.estimate.half_width * 100.0,
        })
    })
}

/// A store replay (`--from-checkpoints`, or a served store hit): open →
/// resolve → [sampler] → per unit decode, rebuild, detailed replay →
/// merge → serialize.
pub fn stage_replay(
    store: &Path,
    risc: bool,
    sampler: Sampler,
    caller: Caller,
    rec: &mut Recorder,
) -> Result<Staged, String> {
    by_frontend!(risc, replay(store, sampler, caller, rec))
}

fn rates<F: Frontend>(bench: &str, warm: bool, rec: &mut Recorder) -> Result<u64, String> {
    rec.span(PROBE, |rec| {
        let loaded = workloads_resolve::<F>(rec, bench)?;
        if warm {
            uarch_warm_pass(rec, loaded.clone(), &machine());
        }
        Ok(isa_functional(rec, loaded))
    })
}

/// Rate probes off any job's path: a plain functional pass over the
/// stream and, with `warm`, a warming-only pass. Returns the dynamic
/// stream length N.
pub fn probe_rates(bench: &str, risc: bool, warm: bool, rec: &mut Recorder) -> Result<u64, String> {
    by_frontend!(risc, rates(bench, warm, rec))
}

/// The systematic interval `k` the CLI derives for `(bench, n)`.
pub fn interval(bench: &'static str, risc: bool, n: u64) -> Result<u64, String> {
    let spec = Spec {
        bench,
        risc,
        n,
        offset: 0,
        w: crate::schedule::BASE_W,
        sampler: Sampler::Systematic,
    };
    Ok(by_frontend!(risc, params_for(&spec))?.interval)
}

/// Section 3.4: host seconds the model predicts for one functional-
/// warming job of `units` units over a `stream`-instruction stream,
/// from measured rates in MIPS. `None` when the rates are not a valid
/// model (noise put warming or detail above plain functional).
pub fn model_seconds(
    functional_mips: f64,
    warming_mips: f64,
    detailed_mips: f64,
    units: f64,
    w: f64,
    stream: f64,
) -> Option<f64> {
    let valid = warming_mips > 0.0
        && detailed_mips > 0.0
        && warming_mips <= functional_mips
        && detailed_mips <= functional_mips;
    if !valid {
        return None;
    }
    let model = SpeedupModel::from_measured_rates(functional_mips, warming_mips, detailed_mips);
    let rate = model.functional_warming_rate(units, UNIT as f64, w, stream);
    Some(SpeedupModel::runtime_seconds(rate, stream, functional_mips))
}

// ---- the wire --------------------------------------------------------------

/// Counters from the server's `stats` request.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    pub warm_passes: u64,
    pub store_hits: u64,
    pub cache_hits: u64,
    pub stores_opened: u64,
}

/// One client connection to a running `smarts-server`.
#[derive(Debug)]
pub struct Wire(Client);

impl Wire {
    pub fn connect(addr: &str) -> Result<Self, String> {
        Client::connect(addr).map(Wire)
    }

    /// submit → watch → result; returns `(source, report line)`.
    pub fn run(&mut self, spec: &Spec) -> Result<(String, String), String> {
        let sampler = sampler_spec(spec.sampler);
        let job = JobSpec {
            bench: spec.bench.to_string(),
            isa: if spec.risc {
                smarts_ckpt::IsaId::Risc
            } else {
                smarts_ckpt::IsaId::Builtin
            },
            scale: SCALE,
            n: spec.n,
            unit: UNIT,
            warming_len: Some(spec.w),
            offset: spec.offset,
            jobs: 1,
            sampler: sampler.kind,
            seed: sampler.seed,
            ..JobSpec::default()
        };
        let id = self.0.submit(&job)?;
        let end = self.0.watch(&id, |_| {})?;
        let state = end
            .get("state")
            .and_then(smarts_server::json::Json::as_str)
            .unwrap_or("unknown");
        if state != "done" {
            return Err(format!("job {id} ended {state}"));
        }
        self.0.result(&id)
    }

    pub fn ping(&mut self, rec: &mut Recorder) -> Result<(), String> {
        rec.span("server.wire_ping", |_| self.0.ping())
    }

    pub fn stats(&mut self) -> Result<ServerStats, String> {
        let stats = self.0.stats()?;
        let field = |name: &str| {
            stats
                .get(name)
                .and_then(smarts_server::json::Json::as_u64)
                .ok_or_else(|| format!("stats response missing `{name}`"))
        };
        Ok(ServerStats {
            warm_passes: field("warm_passes")?,
            store_hits: field("store_hits")?,
            cache_hits: field("cache_hits")?,
            stores_opened: field("stores_opened")?,
        })
    }

    pub fn shutdown(&mut self) -> Result<(), String> {
        self.0.shutdown()
    }
}
