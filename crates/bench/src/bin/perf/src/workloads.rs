//! The four workloads: set-up, the measured loop over the user-facing
//! binaries, the staged traced pass, and the metrics each run reports.
//!
//! An *op* is one round — one job per probe, or one served client
//! round — so the op latency distribution is unimodal. Every job's
//! report line is compared with a golden line that reached the same
//! bytes through another path (the set-up functions say which).

use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::Instant;

use crate::emit::{Metric, RunResult};
use crate::layers::{self, Caller, ServerStats, Staged, Wire};
use crate::proc::{run_cli, Scratch, ServerChild};
use crate::schedule::{
    self, Sampler, ServedSchedule, Spec, BUILTIN_BENCHES, DISTINCT_ROUNDS, LAP_ROUNDS,
    RISC_BENCHES, WARMUP_ROUNDS,
};
use crate::stats::{digest, iqr, median, percentile};
use crate::trace::{Recorder, Summary, OP, PROBE};

/// (name, why, frozen ops) of every workload, in the order the full set
/// runs them. The frozen count — rounds, or laps per client for
/// `served_mix` — is what a full run without `--seconds` measures: it
/// fills about 20 s on the seed code (README, "Frozen op counts"), and
/// a fixed count makes every count and simulated statistic repeat
/// exactly for a given seed. `BENCHMARK.json` has no key for it, so each
/// `why` ends with it.
pub const WORKLOADS: [(&str, &str, u64); 4] = [
    (
        "cold_sample",
        "plain `smarts sample` per probe: workload load, functional execution and warming do \
         the work; store and server layers must not move it (full set: 46 rounds)",
        46,
    ),
    (
        "store_sweep",
        "full-grid then sparse stratified replays of stores written in setup: store \
         open/decode, detailed replay and the sampler dominate; no warming (full set: 32 rounds)",
        32,
    ),
    (
        "risc_warm_store",
        "warm-and-save through the risc frontend in pipeline mode: the decode tax, \
         checkpoint capture and store encode, overlapped with replay on 2 cores (full set: 38 rounds)",
        38,
    ),
    (
        "served_mix",
        "2 closed-loop clients of smarts-server, each round 1 cold job, 3 store hits, 12 exact \
         repeats: protocol, warmer election, open-store LRU, results cache (full set: 13 laps each)",
        13,
    ),
];

/// (name, unit, bound) of the end-to-end metrics, measured with tracing
/// off. `bound` is the share of the parent's median a metric may worsen
/// by before a change counts as a regression (as in `BENCHMARK.json`).
///
/// The op latency is the *first quartile* of the op walls, not the
/// median: on this shared two-core host a neighbour slows the CPU for
/// seconds at a time, which only ever adds wall, so the lower quartile
/// follows the program and the median follows the neighbour (README,
/// "Why the lower quartile").
///
/// The two accuracy metrics are simulated, taken over the anchor jobs
/// (`Spec::is_anchor`) and so the same for every seed and every run:
/// their bound stands for "any increase" (the contract wants a share
/// above 0; 0.001 is below any change a different estimate makes and
/// above a reordered floating-point sum).
pub const END_TO_END: [(&str, &str, f64); 5] = [
    ("setup_s", "s", 0.25),
    ("op_ms_p25", "ms", 0.25),
    ("peak_rss_mb", "MiB", 0.20),
    ("cpi_err_pct", "%", 0.001),
    ("ci_halfwidth_pct", "%", 0.001),
];

/// (name, unit) of the per-layer metrics of a traced run. A metric that
/// does not apply to a workload reads 0 there.
pub const PER_LAYER: [(&str, &str); 63] = [
    ("cli.startup_ms", "ms"),
    ("cli.overhead_ms", "ms"),
    ("workloads.resolve_ms", "ms"),
    ("isa.functional_ms", "ms"),
    ("isa.functional_mips", "MIPS"),
    ("uarch.warm_ms", "ms"),
    ("uarch.warming_mips", "MIPS"),
    ("uarch.s_fw", "ratio"),
    ("core.ckpt_capture_ms", "ms"),
    ("ckpt.encode_ms", "ms"),
    ("ckpt.encode_mibps", "MiB/s"),
    ("ckpt.store_bytes", "B"),
    ("ckpt.open_ms", "ms"),
    ("ckpt.decode_ms", "ms"),
    ("ckpt.decode_units_per_s", "1/s"),
    ("ckpt.rebuild_ms", "ms"),
    ("uarch.detail_ms", "ms"),
    ("uarch.detail_kips", "KIPS"),
    ("uarch.s_d", "ratio"),
    ("uarch.detail_instr", "count"),
    ("uarch.sim_cycles", "count"),
    ("core.merge_ms", "ms"),
    ("stats.sampler_ms", "ms"),
    ("stats.units_measured", "count"),
    ("stats.cpi_err_pct", "%"),
    ("stats.ci_halfwidth_pct", "%"),
    ("exec.overlap_ratio", "ratio"),
    ("exec.self_ms", "ms"),
    ("exec.cpu_per_wall", "ratio"),
    ("server.serialize_ms", "ms"),
    ("server.parse_ms", "ms"),
    ("server.wire_rtt_ms", "ms"),
    ("server.cache_hit_ms_p50", "ms"),
    ("server.cache_hit_ms_p99", "ms"),
    ("server.store_hit_ms_p50", "ms"),
    ("server.cold_ms_p50", "ms"),
    ("server.jobs_per_s", "1/s"),
    ("server.warm_passes", "count"),
    ("server.store_hits", "count"),
    ("server.cache_hits", "count"),
    ("server.stores_opened", "count"),
    ("server.rss_mb", "MiB"),
    ("driver.ops", "count"),
    ("driver.op_ms_p50", "ms"),
    ("driver.op_ms_p90", "ms"),
    ("driver.op_ms_iqr", "ms"),
    ("driver.sim_mips", "MIPS"),
    ("driver.failed_frac", "ratio"),
    ("driver.full_replay_ms_p50", "ms"),
    ("driver.sparse_replay_ms_p50", "ms"),
    ("driver.probe_ms_p50.hashp-2", "ms"),
    ("driver.probe_ms_p50.loopy-1", "ms"),
    ("driver.probe_ms_p50.chase-2", "ms"),
    ("driver.probe_ms_p50.branchy-1", "ms"),
    ("driver.probe_ms_p50.rle-1", "ms"),
    ("trace.closure_err", "ratio"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("trace.staged_ms", "ms"),
    ("trace.spans", "count"),
    ("trace.dominance_ok", "count"),
    ("model.predicted_mips", "MIPS"),
    ("model.err_pct", "%"),
];

/// Load-generating connections of `served_mix` (the host has 2 cores).
const CLIENTS: u64 = 2;
/// The server's peak RSS is read when client 0 has finished this many
/// measured rounds (4 laps; or at the end of a shorter run). The server
/// keeps every job record and cached line, so its RSS grows with the
/// jobs served: read at the end of a timed run it would follow host
/// speed.
const RSS_AFTER_ROUNDS: usize = 16;
/// `smarts-server --workers`.
const SERVER_WORKERS: usize = 2;

/// How long the measured phase lasts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Budget {
    /// Whole rounds until this many seconds have passed (the driver).
    Seconds(f64),
    /// Exactly this many ops — rounds, or served laps per client —
    /// (smoke and frozen runs).
    Rounds(u64),
}

/// Where a run finds the binaries and may write.
#[derive(Debug)]
pub struct Ctx {
    pub smarts: PathBuf,
    pub server: PathBuf,
    /// `<target>/perf`: trace files stay here.
    pub out_dir: PathBuf,
    /// Removed when the run ends.
    pub scratch: Scratch,
    pub seed: u64,
    /// Rendered JSON values recorded with every trace file.
    pub host: Vec<(&'static str, String)>,
}

/// A finished run.
#[derive(Debug)]
pub struct Outcome {
    /// No measured job failed.
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub end_to_end: Vec<Metric>,
    /// Empty unless the run was traced.
    pub per_layer: Vec<Metric>,
    /// Lines to print before the result.
    pub notes: Vec<String>,
    /// False when a traced run's trace is not one: it fails its closure
    /// line, or a layer has spans on a workload that never enters it.
    pub valid: bool,
    /// False when a traced run failed a dominance share line: the
    /// workload no longer spends its time where its `why` says.
    pub sized: bool,
}

impl Outcome {
    /// The contract result: the end-to-end metrics of an untraced run,
    /// the per-layer metrics of a traced one.
    pub fn result(&self, trace: bool) -> RunResult {
        RunResult {
            correct: self.correct,
            attempted: self.attempted,
            failed: self.failed,
            metrics: if trace {
                self.per_layer.clone()
            } else {
                self.end_to_end.clone()
            },
        }
    }
}

/// Golden report lines by job key, as digests.
#[derive(Debug, Default)]
struct Goldens(Mutex<HashMap<String, u64>>);

impl Goldens {
    fn insert(&self, key: String, line: &str) {
        self.0
            .lock()
            .expect("no holder panics")
            .insert(key, digest(line));
    }

    /// Whether `line` equals the line recorded for `key`. The first
    /// line seen for an unrecorded key becomes its golden: that is how
    /// a results-cache hit is held to the bytes of the job it repeats.
    fn check(&self, key: &str, line: &str) -> bool {
        let found = digest(line);
        let mut map = self.0.lock().expect("no holder panics");
        match map.get(key) {
            Some(&golden) => golden == found,
            None => {
                map.insert(key.to_string(), found);
                !line.is_empty()
            }
        }
    }
}

/// What the measured loop observed.
#[derive(Debug, Default)]
struct Measured {
    /// Host wall of each measured op.
    op_ms: Vec<f64>,
    /// Host wall of each job, by probe or class.
    by_label: BTreeMap<String, Vec<f64>>,
    attempted: u64,
    failed: u64,
    /// Σ dynamic stream length N of the jobs answered.
    instr: u64,
    /// Host wall the jobs were answered in.
    wall_s: f64,
    /// Peak RSS of each CLI child by label; for `served_mix`, the
    /// server's `VmHWM` at a fixed point of the schedule under `server`.
    rss_kib: BTreeMap<String, Vec<f64>>,
    /// `smarts` processes one op spawns (none on `served_mix`).
    spawns_per_op: f64,
    /// Σ user + system CPU time of the CLI children, ms.
    cpu_ms: f64,
    /// The estimate each anchor job's line carried, by job key.
    anchors: BTreeMap<String, Anchor>,
}

/// What an anchor job (`Spec::is_anchor`) answered.
#[derive(Debug, Clone, Copy)]
struct Anchor {
    bench: &'static str,
    cpi: f64,
    half_width_pct: f64,
}

impl Anchor {
    fn of(spec: &Spec, line: &str) -> Result<Self, String> {
        let (cpi, half_width_pct) = layers::estimate_of(line)?;
        Ok(Anchor {
            bench: spec.bench,
            cpi,
            half_width_pct,
        })
    }
}

impl Measured {
    fn label(&mut self, label: &str, ms: f64) {
        self.by_label.entry(label.to_string()).or_default().push(ms);
    }

    fn p50(&self, label: &str) -> f64 {
        self.by_label.get(label).map_or(0.0, |v| median(v))
    }

    /// First-quartile op wall, the gated latency.
    fn op_p25(&self) -> f64 {
        percentile(&self.op_ms, 0.25)
    }

    /// The paper's effective simulation rate, host time: Σ N of the
    /// jobs answered over the whole measured wall. Not gated: it takes
    /// every slow spell of the host in (ten-seed spreads of 5–27%), and
    /// what a user sees of it is the op latency — every workload is a
    /// closed loop.
    fn sim_mips(&self) -> f64 {
        self.instr as f64 / self.wall_s / 1e6
    }

    /// (`cpi_err_pct`, `ci_halfwidth_pct`): mean |CPI − CPI_ref|/CPI_ref
    /// and mean reported half-width over the anchor jobs, in percent.
    fn accuracy(&self, references: &HashMap<&'static str, f64>) -> (f64, f64) {
        let count = self.anchors.len() as f64;
        let err: f64 = self
            .anchors
            .values()
            .map(|a| (a.cpi - references[a.bench]).abs() / references[a.bench] * 100.0)
            .sum();
        let half: f64 = self.anchors.values().map(|a| a.half_width_pct).sum();
        (err / count, half / count)
    }

    /// The hungriest job kind's typical peak: the largest per-label
    /// median. (The maximum over every child grows with the number of
    /// children and follows allocator luck.)
    fn peak_rss_mb(&self) -> f64 {
        self.rss_kib.values().map(|v| median(v)).fold(0.0, f64::max) / 1024.0
    }
}

fn last_line(stdout: &str) -> &str {
    stdout.lines().last().unwrap_or("")
}

fn elapsed_ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

// ---- CLI workloads ---------------------------------------------------------

#[derive(Debug)]
enum Kind {
    /// `smarts sample --bench …`
    Direct,
    /// `… --save-checkpoints <save>`
    WarmStore { save: PathBuf },
    /// `smarts sample --from-checkpoints <store> …`
    Replay { store: PathBuf },
}

#[derive(Debug)]
struct CliJob {
    label: &'static str,
    spec: Spec,
    kind: Kind,
    stream_len: u64,
}

impl CliJob {
    fn args(&self) -> Vec<String> {
        match &self.kind {
            Kind::Direct => self.spec.sample_args(),
            Kind::WarmStore { save } => {
                let mut args = self.spec.sample_args();
                args.extend(["--save-checkpoints".to_string(), save.display().to_string()]);
                args
            }
            Kind::Replay { store } => {
                let mut args = vec![
                    "sample".to_string(),
                    "--from-checkpoints".to_string(),
                    store.display().to_string(),
                ];
                args.extend(self.spec.selection_flags());
                args.push("--json".to_string());
                args
            }
        }
    }

    /// The same job, in process, stage by stage.
    fn stage(&self, scratch: &Path, rec: &mut Recorder) -> Result<Staged, String> {
        match &self.kind {
            Kind::Direct => layers::stage_direct(&self.spec, rec),
            Kind::WarmStore { .. } => {
                rec.count("core.stream_instr", self.stream_len);
                layers::stage_warm_store(&self.spec, &scratch.join("staged.ck"), Caller::Cli, rec)
            }
            Kind::Replay { store } => {
                layers::stage_replay(store, self.spec.risc, self.spec.sampler, Caller::Cli, rec)
            }
        }
    }
}

#[derive(Debug)]
struct CliPlan {
    /// The distinct rounds the measured loop cycles through.
    rounds: Vec<Vec<CliJob>>,
    goldens: Goldens,
    /// Whether the jobs warm (rate probes then include a warming pass).
    warms: bool,
}

/// Everything before the first op of a CLI workload: stream lengths
/// (one functional pass per probe), the seed's schedule, stores, and a
/// golden line for every job of the schedule.
fn setup_cli(name: &str, ctx: &Ctx) -> Result<CliPlan, String> {
    let off = &mut Recorder::off();
    let scratch = ctx.scratch.path();
    let (benches, risc, n): (&[&'static str], bool, u64) = match name {
        "cold_sample" => (&BUILTIN_BENCHES, false, 100),
        "store_sweep" => (&BUILTIN_BENCHES, false, 200),
        _ => (&RISC_BENCHES, true, 100),
    };
    let mut intervals = Vec::new();
    let mut lens = HashMap::new();
    for bench in benches {
        intervals.push(layers::interval(bench, risc, n)?);
        lens.insert(*bench, layers::probe_rates(bench, risc, false, off)?);
    }
    let goldens = Goldens::default();
    let job = |label: &'static str, spec: &Spec, kind: Kind| CliJob {
        label,
        spec: spec.clone(),
        kind,
        stream_len: lens[spec.bench],
    };

    let rounds: Vec<Vec<CliJob>> = match name {
        // Golden: the library's sampling loop called in process, versus
        // the `smarts` binary.
        "cold_sample" => {
            let rounds = schedule::cold_sample(ctx.seed, &intervals);
            for spec in rounds.iter().flatten() {
                goldens.insert(spec.key(), &layers::stage_direct(spec, off)?.line);
            }
            rounds
                .iter()
                .map(|round| {
                    round
                        .iter()
                        .map(|spec| job(spec.bench, spec, Kind::Direct))
                        .collect()
                })
                .collect()
        }
        // Goldens: the cold warm-and-save run that wrote the store (full
        // grid), and the staged in-process replay (sparse subsets).
        "store_sweep" => {
            let (stores, rounds) = schedule::store_sweep(ctx.seed);
            let path = |spec: &Spec| scratch.join(format!("{}.ck", spec.bench));
            for store in &stores {
                let writer = job("write", store, Kind::WarmStore { save: path(store) });
                let run = run_cli(&ctx.smarts, &writer.args(), scratch)?;
                if !run.success {
                    return Err(format!("writing the {} store failed", store.bench));
                }
                goldens.insert(store.key(), last_line(&run.stdout));
            }
            for spec in rounds.iter().flatten() {
                if spec.sampler != Sampler::Systematic {
                    let staged =
                        layers::stage_replay(&path(spec), false, spec.sampler, Caller::Cli, off)?;
                    goldens.insert(spec.key(), &staged.line);
                }
            }
            rounds
                .iter()
                .map(|round| {
                    round
                        .iter()
                        .map(|spec| {
                            let label = if spec.sampler == Sampler::Systematic {
                                "full"
                            } else {
                                "sparse"
                            };
                            job(label, spec, Kind::Replay { store: path(spec) })
                        })
                        .collect()
                })
                .collect()
        }
        // Golden: the same design warmed and replayed in process through
        // the *builtin* frontend — both frontends lower to one record
        // stream, so the report bytes must be equal.
        _ => {
            let rounds = schedule::risc_warm_store(ctx.seed, &intervals);
            let tmp = scratch.join("tmp");
            std::fs::create_dir_all(&tmp).map_err(|e| format!("{}: {e}", tmp.display()))?;
            for spec in rounds.iter().flatten() {
                let twin = Spec {
                    risc: false,
                    ..spec.clone()
                };
                let staged =
                    layers::stage_warm_store(&twin, &scratch.join("golden.ck"), Caller::Cli, off)?;
                goldens.insert(spec.key(), &staged.line);
            }
            rounds
                .iter()
                .map(|round| {
                    round
                        .iter()
                        .map(|spec| {
                            let save = tmp.join(format!("{}.ck", spec.bench));
                            job(spec.bench, spec, Kind::WarmStore { save })
                        })
                        .collect()
                })
                .collect()
        }
    };
    Ok(CliPlan {
        rounds,
        goldens,
        warms: name != "store_sweep",
    })
}

/// The measured loop of a CLI workload: one `smarts` child at a time.
fn measure_cli(plan: &CliPlan, ctx: &Ctx, budget: Budget) -> Result<Measured, String> {
    let mut m = Measured {
        spawns_per_op: plan.rounds[0].len() as f64,
        ..Measured::default()
    };
    let mut started = None;
    for round in 0.. {
        let measured = round >= WARMUP_ROUNDS;
        if measured {
            let since = *started.get_or_insert_with(Instant::now);
            let done = round - WARMUP_ROUNDS;
            let over = match budget {
                Budget::Rounds(rounds) => done >= rounds,
                Budget::Seconds(seconds) => {
                    done >= DISTINCT_ROUNDS as u64 && since.elapsed().as_secs_f64() >= seconds
                }
            };
            if over {
                break;
            }
        }
        let mut op_ms = 0.0;
        for job in &plan.rounds[round as usize % plan.rounds.len()] {
            let run = run_cli(&ctx.smarts, &job.args(), ctx.scratch.path())?;
            let (key, line) = (job.spec.key(), last_line(&run.stdout));
            let ok = run.success && plan.goldens.check(&key, line);
            if ok && job.spec.is_anchor() && !m.anchors.contains_key(&key) {
                m.anchors.insert(key, Anchor::of(&job.spec, line)?);
            }
            if !measured {
                if !ok {
                    return Err(format!("warm-up job {} failed", job.spec.key()));
                }
                continue;
            }
            let ms = run.wall.as_secs_f64() * 1e3;
            op_ms += ms;
            m.cpu_ms += run.cpu.as_secs_f64() * 1e3;
            m.label(job.label, ms);
            m.attempted += 1;
            m.failed += u64::from(!ok);
            m.instr += job.stream_len;
            m.rss_kib
                .entry(job.label.to_string())
                .or_default()
                .push(run.peak_rss_kib as f64);
        }
        if measured {
            m.op_ms.push(op_ms);
        }
    }
    m.wall_s = m.op_ms.iter().sum::<f64>() / 1e3;
    Ok(m)
}

/// What the staged pass learned about one job's estimate.
#[derive(Debug)]
struct StagedJob {
    bench: &'static str,
    staged: Staged,
    /// Set for jobs that warm: (target units, W, stream length) for the
    /// Section 3.4 model.
    model: Option<(f64, f64, f64)>,
}

/// The staged pass of a CLI workload: the rate probes, then every job
/// of the first `rounds` distinct rounds once, each checked against its
/// golden line.
fn stage_cli(
    plan: &CliPlan,
    ctx: &Ctx,
    rounds: usize,
    rec: &mut Recorder,
) -> Result<Vec<StagedJob>, String> {
    let mut probed: Vec<&str> = Vec::new();
    let mut jobs = Vec::new();
    for job in plan.rounds.iter().take(rounds).flatten() {
        if !probed.contains(&job.spec.bench) {
            probed.push(job.spec.bench);
            layers::probe_rates(job.spec.bench, job.spec.risc, plan.warms, rec)?;
        }
    }
    for job in plan.rounds.iter().take(rounds).flatten() {
        let staged = job.stage(ctx.scratch.path(), rec)?;
        if !plan.goldens.check(&job.spec.key(), &staged.line) {
            return Err(format!(
                "staged {} differs from its golden line",
                job.spec.key()
            ));
        }
        jobs.push(StagedJob {
            bench: job.spec.bench,
            staged,
            model: plan.warms.then_some((
                job.spec.n as f64,
                job.spec.w as f64,
                job.stream_len as f64,
            )),
        });
    }
    Ok(jobs)
}

// ---- served_mix ------------------------------------------------------------

#[derive(Debug)]
struct ServedPlan {
    schedule: ServedSchedule,
    lens: HashMap<&'static str, u64>,
    goldens: Goldens,
    /// What the server answered for the base stores' jobs.
    anchors: BTreeMap<String, Anchor>,
    server: ServerChild,
}

/// Everything before the first served op: stream lengths, the seed's
/// schedule, server start, and the base stores pre-warmed over the wire
/// — each held to the bytes of the staged in-process pipeline.
fn setup_served(ctx: &Ctx) -> Result<ServedPlan, String> {
    let off = &mut Recorder::off();
    let scratch = ctx.scratch.path();
    let mut intervals = Vec::new();
    let mut lens = HashMap::new();
    for bench in BUILTIN_BENCHES {
        intervals.push(layers::interval(bench, false, 100)?);
        lens.insert(bench, layers::probe_rates(bench, false, false, off)?);
    }
    let schedule = ServedSchedule::new(ctx.seed, &intervals);
    let server = ServerChild::start(
        &ctx.server,
        scratch,
        &scratch.join("stores"),
        SERVER_WORKERS,
    )?;
    let goldens = Goldens::default();
    let mut anchors = BTreeMap::new();
    let mut wire = Wire::connect(&server.addr)?;
    for base in &schedule.base {
        let staged =
            layers::stage_warm_store(base, &scratch.join("golden.ck"), Caller::Server, off)?;
        goldens.insert(base.key(), &staged.line);
        let (_, line) = wire.run(base)?;
        if !goldens.check(&base.key(), &line) {
            return Err(format!(
                "served {} differs from its golden line",
                base.key()
            ));
        }
        anchors.insert(base.key(), Anchor::of(base, &line)?);
    }
    Ok(ServedPlan {
        schedule,
        lens,
        goldens,
        anchors,
        server,
    })
}

/// One client's view of one served round.
#[derive(Debug, Default)]
struct RoundLog {
    measured: bool,
    round_ms: f64,
    cold_ms: f64,
    hit_ms: Vec<f64>,
    repeat_ms: Vec<f64>,
    failed: u64,
    instr: u64,
}

/// One closed-loop client: each job is submit → watch → result, the
/// next one sent only when the last has answered.
fn client_loop(
    plan: &ServedPlan,
    mut wire: Wire,
    client: u64,
    budget: Budget,
    barrier: &Barrier,
    stop: &AtomicBool,
    rss_kib: &AtomicU64,
) -> (Instant, Instant, Vec<RoundLog>) {
    let mut logs = Vec::new();
    let mut started = Instant::now();
    for round in 0.. {
        let round_plan = plan.schedule.round(client, CLIENTS, round);
        let measured = round >= WARMUP_ROUNDS;
        if round == WARMUP_ROUNDS {
            started = Instant::now();
        }
        if let Budget::Rounds(laps) = budget {
            if round >= WARMUP_ROUNDS + laps * LAP_ROUNDS {
                break;
            }
        }
        if round_plan.raced {
            // A raced round starts a lap. Both clients leave the loop at
            // the same lap start, or one would wait at the barrier for
            // ever; at least one whole lap is measured.
            if let Budget::Seconds(seconds) = budget {
                if round > WARMUP_ROUNDS && started.elapsed().as_secs_f64() >= seconds {
                    stop.store(true, Ordering::SeqCst);
                }
            }
            barrier.wait();
            if stop.load(Ordering::SeqCst) {
                break;
            }
        }

        let mut log = RoundLog {
            measured,
            ..RoundLog::default()
        };
        let mut jobs: Vec<&Spec> = vec![&round_plan.cold];
        jobs.extend(&round_plan.hits);
        let first = jobs.len();
        let repeats: Vec<&Spec> = round_plan.repeats.iter().map(|&i| jobs[i]).collect();
        jobs.extend(repeats);
        let op_start = Instant::now();
        for (index, spec) in jobs.into_iter().enumerate() {
            let job_start = Instant::now();
            let ok = match wire.run(spec) {
                Ok((_, line)) => plan.goldens.check(&spec.key(), &line),
                Err(_) => false,
            };
            let ms = elapsed_ms(job_start);
            match index {
                0 => log.cold_ms = ms,
                i if i < first => log.hit_ms.push(ms),
                _ => log.repeat_ms.push(ms),
            }
            log.failed += u64::from(!ok);
            log.instr += plan.lens[spec.bench];
        }
        log.round_ms = elapsed_ms(op_start);
        // A failed warm-up round is reported like a measured one; the
        // client goes on, because its peer waits for it at the barrier.
        if measured || log.failed > 0 {
            logs.push(log);
        }
        if client == 0 && logs.iter().filter(|l| l.measured).count() == RSS_AFTER_ROUNDS {
            rss_kib.store(plan.server.peak_rss_kib(), Ordering::Relaxed);
        }
    }
    (started, Instant::now(), logs)
}

/// The measured loop of `served_mix`: `CLIENTS` closed-loop connections
/// from this one process.
fn measure_served(plan: &ServedPlan, budget: Budget) -> Result<Measured, String> {
    let barrier = Barrier::new(CLIENTS as usize);
    let stop = AtomicBool::new(false);
    let rss_kib = AtomicU64::new(0);
    // Every client is connected before any starts: one that failed
    // later would leave its peer waiting at the barrier.
    let wires = (0..CLIENTS)
        .map(|_| Wire::connect(&plan.server.addr))
        .collect::<Result<Vec<_>, _>>()?;
    let outcomes: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .zip(wires)
            .map(|(client, wire)| {
                let (barrier, stop, rss_kib) = (&barrier, &stop, &rss_kib);
                scope.spawn(move || client_loop(plan, wire, client, budget, barrier, stop, rss_kib))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let round_jobs = (1 + schedule::HITS_PER_ROUND + schedule::REPEATS_PER_ROUND) as u64;
    let mut m = Measured {
        anchors: plan.anchors.clone(),
        ..Measured::default()
    };
    let (mut first, mut last) = (None, None);
    for (started, ended, logs) in outcomes {
        first = Some(first.map_or(started, |t: Instant| t.min(started)));
        last = Some(last.map_or(ended, |t: Instant| t.max(ended)));
        // A failed warm-up round is in the log too: it counts towards
        // `failed`, never towards an op.
        let (measured, warmup): (Vec<RoundLog>, Vec<RoundLog>) =
            logs.into_iter().partition(|log| log.measured);
        m.attempted += round_jobs * warmup.len() as u64;
        m.failed += warmup.iter().map(|log| log.failed).sum::<u64>();
        // The op is the lap: clients only stop at a lap start, so the
        // measured rounds are whole laps.
        for lap in measured.chunks_exact(LAP_ROUNDS as usize) {
            m.op_ms.push(lap.iter().map(|log| log.round_ms).sum());
            for log in lap {
                m.label("cold", log.cold_ms);
                for &ms in &log.hit_ms {
                    m.label("store_hit", ms);
                }
                for &ms in &log.repeat_ms {
                    m.label("cache_hit", ms);
                }
                m.attempted += round_jobs;
                m.failed += log.failed;
                m.instr += log.instr;
            }
        }
    }
    let rss_kib = match rss_kib.load(Ordering::Relaxed) {
        0 => plan.server.peak_rss_kib(),
        sampled => sampled,
    };
    m.rss_kib.insert("server".to_string(), vec![rss_kib as f64]);
    m.wall_s = match (first, last) {
        (Some(first), Some(last)) => last.duration_since(first).as_secs_f64(),
        _ => 0.0,
    };
    Ok(m)
}

/// The staged pass of `served_mix`: the rate probes, wire pings against
/// the live server, then the first `rounds` rounds of client 0's first
/// measured lap in process — each cold job as warm-and-save, each store
/// hit as a sampled replay of a base store — checked against the lines
/// the server answered.
fn stage_served(
    plan: &ServedPlan,
    ctx: &Ctx,
    rounds: usize,
    rec: &mut Recorder,
) -> Result<Vec<StagedJob>, String> {
    let scratch = ctx.scratch.path();
    for bench in BUILTIN_BENCHES {
        layers::probe_rates(bench, false, true, rec)?;
    }
    let mut wire = Wire::connect(&plan.server.addr)?;
    rec.span(PROBE, |rec| (0..50).try_for_each(|_| wire.ping(rec)))?;

    let base_store = |spec: &Spec| scratch.join(format!("base-{}.ck", spec.bench));
    // The stores the staged hits replay; the unrecorded warm-up pass
    // has usually written them already.
    for base in &plan.schedule.base {
        if !base_store(base).exists() {
            layers::stage_warm_store(
                base,
                &base_store(base),
                Caller::Server,
                &mut Recorder::off(),
            )?;
        }
    }
    let mut jobs = Vec::new();
    for round in WARMUP_ROUNDS..WARMUP_ROUNDS + rounds as u64 {
        let round_plan = plan.schedule.round(0, CLIENTS, round);
        let cold = &round_plan.cold;
        rec.count("core.stream_instr", plan.lens[cold.bench]);
        let staged =
            layers::stage_warm_store(cold, &scratch.join("staged.ck"), Caller::Server, rec)?;
        let model = Some((cold.n as f64, cold.w as f64, plan.lens[cold.bench] as f64));
        let mut all = vec![(cold, staged, model)];
        for hit in &round_plan.hits {
            let staged =
                layers::stage_replay(&base_store(hit), false, hit.sampler, Caller::Server, rec)?;
            all.push((hit, staged, None));
        }
        for (spec, staged, model) in all {
            if !plan.goldens.check(&spec.key(), &staged.line) {
                return Err(format!(
                    "staged {} differs from the served line",
                    spec.key()
                ));
            }
            jobs.push(StagedJob {
                bench: spec.bench,
                staged,
                model,
            });
        }
    }
    Ok(jobs)
}

// ---- one run ---------------------------------------------------------------

#[derive(Debug)]
enum Plan {
    Cli(CliPlan),
    Served(ServedPlan),
}

fn setup(name: &str, ctx: &Ctx) -> Result<Plan, String> {
    if name == "served_mix" {
        setup_served(ctx).map(Plan::Served)
    } else {
        setup_cli(name, ctx).map(Plan::Cli)
    }
}

/// `cycles / instructions` of `smarts reference` (full detail).
fn reference_cpi(ctx: &Ctx, bench: &str) -> Result<f64, String> {
    let args = ["reference", "--bench", bench].map(str::to_string);
    let run = run_cli(&ctx.smarts, &args, ctx.scratch.path())?;
    let field = |name: &str| {
        run.stdout
            .lines()
            .find_map(|line| line.strip_prefix(name)?.trim().parse::<f64>().ok())
            .ok_or_else(|| format!("`smarts reference --bench {bench}` printed no {name}"))
    };
    Ok(field("cycles")? / field("instructions")?)
}

/// Median spawn → exit wall of `smarts list`, the floor under every
/// CLI job.
fn cli_startup_ms(ctx: &Ctx) -> Result<f64, String> {
    let args = ["list".to_string()];
    let walls: Result<Vec<f64>, String> = (0..10)
        .map(|_| {
            Ok(run_cli(&ctx.smarts, &args, ctx.scratch.path())?
                .wall
                .as_secs_f64()
                * 1e3)
        })
        .collect();
    Ok(median(&walls?))
}

/// What a self-check line of a traced run says about the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Check {
    /// The trace is one: it closes, and a layer the workload never
    /// enters has no span. A failure invalidates every per-layer row, so
    /// it fails the run in every mode.
    Trace,
    /// The workload spends its time where its `why` says. A failure
    /// means it is mis-sized; it fails the full set, not the single run
    /// the driver gates on — a change that makes the dominant layer
    /// faster is what the benchmark is for.
    Sizing,
}

/// One self-check line: its kind, its text, whether it passed.
type CheckLine = (Check, String, bool);

/// Each workload's own dominance claims, checked on its trace.
fn dominance(name: &str, ops: &Summary) -> Vec<CheckLine> {
    let total = ops.attributed_ns().max(1) as f64;
    let warm = ops.layer_ns("uarch.warm") + ops.layer_ns("core.stream_checkpoints");
    let ckpt = ops.prefix_ns("ckpt.");
    let replay = ckpt + ops.layer_ns("uarch.detail");
    let server = ops.prefix_ns("server.");
    let share = |ns: u64| ns as f64 / total;
    let mut lines = vec![(
        Check::Trace,
        format!(
            "closure: {:.4} of the staged wall is outside every layer span (≤ 0.05)",
            ops.closure_err()
        ),
        ops.closure_err() <= 0.05,
    )];
    match name {
        "cold_sample" => {
            lines.push((
                Check::Sizing,
                format!("warming is {:.3} of Σ spans (≥ 0.50)", share(warm)),
                share(warm) >= 0.50,
            ));
            lines.push((
                Check::Trace,
                format!("ckpt spans: {ckpt} ns (= 0)"),
                ckpt == 0,
            ));
        }
        "store_sweep" => {
            lines.push((
                Check::Trace,
                format!("warming spans: {warm} ns (= 0)"),
                warm == 0,
            ));
            lines.push((
                Check::Sizing,
                format!(
                    "ckpt + detailed replay is {:.3} of Σ spans (≥ 0.70)",
                    share(replay)
                ),
                share(replay) >= 0.70,
            ));
        }
        _ => {}
    }
    lines.push(if name == "served_mix" {
        (
            Check::Trace,
            format!("server spans: {server} ns (> 0)"),
            server > 0,
        )
    } else {
        (
            Check::Trace,
            format!("server spans: {server} ns (= 0)"),
            server == 0,
        )
    });
    lines
}

/// Everything a traced run measured besides the loop itself.
struct Traced {
    rec: Recorder,
    jobs: Vec<StagedJob>,
    startup_ms: f64,
    /// Ops the recorded staged pass covered: `_ms` metrics are per op.
    staged_ops: f64,
}

fn per_layer(
    name: &str,
    m: &Measured,
    t: &Traced,
    references: &HashMap<&'static str, f64>,
    server: Option<(ServerStats, u64)>,
) -> (BTreeMap<&'static str, f64>, Vec<CheckLine>) {
    let ops = t.rec.summary(OP);
    let probes = t.rec.summary(PROBE);
    let rounds = t.staged_ops;
    // Per staged op, so a layer's time compares with an op's.
    let ms = |ns: u64| ns as f64 / 1e6 / rounds;
    let layer_ms = |layer: &str| ms(ops.layer_ns(layer));
    let per_second = |count: u64, ns: u64| {
        if ns == 0 {
            0.0
        } else {
            count as f64 / (ns as f64 / 1e9)
        }
    };
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let count = |name: &str| t.rec.counted(name);

    let op_p25 = m.op_p25();
    let staged_round_ms = ms(ops.wall_ns);
    let functional_ns = probes.layer_ns("isa.functional");
    let warm_pass_ns = probes.layer_ns("uarch.warm_pass");
    let detail_ns = ops.layer_ns("uarch.detail");
    let s_f = per_second(count("isa.functional_instr"), functional_ns) / 1e6;
    let s_fw = per_second(count("uarch.warm_instr"), warm_pass_ns) / 1e6;
    let s_d = per_second(count("uarch.detail_instr"), detail_ns) / 1e6;
    let stream_ms = layer_ms("core.stream_checkpoints");
    let stream_warm_ms = if s_fw > 0.0 {
        count("core.stream_instr") as f64 / s_fw / 1e3 / rounds
    } else {
        0.0
    };
    let pings: Vec<f64> = t
        .rec
        .spans()
        .iter()
        .filter(|s| s.name == "server.wire_ping")
        .map(|s| s.duration_ns() as f64 / 1e6)
        .collect();

    let mut err_pct = Vec::new();
    let mut half_pct = Vec::new();
    let (mut model_s, mut model_instr) = (0.0, 0.0);
    let mut modelled = true;
    for job in &t.jobs {
        let reference = references[job.bench];
        err_pct.push((job.staged.cpi - reference).abs() / reference * 100.0);
        half_pct.push(job.staged.half_width_pct);
        match job.model {
            Some((units, w, stream)) => {
                match layers::model_seconds(s_f, s_fw, s_d, units, w, stream) {
                    Some(seconds) => {
                        model_s += seconds;
                        model_instr += stream;
                    }
                    None => modelled = false,
                }
            }
            // The Section 3.4 model is about jobs that warm.
            None => modelled = false,
        }
    }
    let mean = |v: &[f64]| ratio(v.iter().sum(), v.len() as f64);
    let predicted_mips = if modelled {
        ratio(model_instr, model_s) / 1e6
    } else {
        0.0
    };

    let checks = dominance(name, &ops);
    let (stats, rss_kib) = server.unwrap_or_default();
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    out.extend([
        ("cli.startup_ms", t.startup_ms),
        ("cli.overhead_ms", op_p25 - staged_round_ms),
        ("workloads.resolve_ms", layer_ms("workloads.resolve")),
        ("isa.functional_ms", functional_ns as f64 / 1e6),
        ("isa.functional_mips", s_f),
        ("uarch.warm_ms", warm_pass_ns as f64 / 1e6),
        ("uarch.warming_mips", s_fw),
        ("uarch.s_fw", ratio(s_fw, s_f)),
        (
            "core.ckpt_capture_ms",
            if stream_ms > 0.0 {
                stream_ms - stream_warm_ms
            } else {
                0.0
            },
        ),
        ("ckpt.encode_ms", layer_ms("ckpt.encode")),
        (
            "ckpt.encode_mibps",
            per_second(count("ckpt.store_bytes"), ops.layer_ns("ckpt.encode")) / (1 << 20) as f64,
        ),
        ("ckpt.store_bytes", count("ckpt.store_bytes") as f64),
        ("ckpt.open_ms", layer_ms("ckpt.open")),
        ("ckpt.decode_ms", layer_ms("ckpt.decode")),
        (
            "ckpt.decode_units_per_s",
            per_second(count("ckpt.decode_units"), ops.layer_ns("ckpt.decode")),
        ),
        ("ckpt.rebuild_ms", layer_ms("ckpt.rebuild")),
        ("uarch.detail_ms", layer_ms("uarch.detail")),
        ("uarch.detail_kips", s_d * 1e3),
        ("uarch.s_d", ratio(s_d, s_f)),
        ("uarch.detail_instr", count("uarch.detail_instr") as f64),
        ("uarch.sim_cycles", count("uarch.sim_cycles") as f64),
        ("core.merge_ms", layer_ms("core.merge")),
        ("stats.sampler_ms", layer_ms("stats.sampler")),
        ("stats.units_measured", count("stats.units_measured") as f64),
        ("stats.cpi_err_pct", mean(&err_pct)),
        ("stats.ci_halfwidth_pct", mean(&half_pct)),
        ("exec.overlap_ratio", ratio(op_p25, staged_round_ms)),
        (
            "exec.self_ms",
            op_p25 - staged_round_ms - m.spawns_per_op * t.startup_ms,
        ),
        ("exec.cpu_per_wall", ratio(m.cpu_ms, m.wall_s * 1e3)),
        (
            "server.serialize_ms",
            layer_ms("cli.serialize") + layer_ms("server.serialize"),
        ),
        ("server.parse_ms", layer_ms("server.parse")),
        ("server.wire_rtt_ms", median(&pings)),
        ("server.cache_hit_ms_p50", m.p50("cache_hit")),
        (
            "server.cache_hit_ms_p99",
            m.by_label
                .get("cache_hit")
                .map_or(0.0, |v| percentile(v, 0.99)),
        ),
        ("server.store_hit_ms_p50", m.p50("store_hit")),
        ("server.cold_ms_p50", m.p50("cold")),
        (
            "server.jobs_per_s",
            if server.is_some() {
                ratio(m.attempted as f64, m.wall_s)
            } else {
                0.0
            },
        ),
        ("server.warm_passes", stats.warm_passes as f64),
        ("server.store_hits", stats.store_hits as f64),
        ("server.cache_hits", stats.cache_hits as f64),
        ("server.stores_opened", stats.stores_opened as f64),
        ("server.rss_mb", rss_kib as f64 / 1024.0),
        ("driver.ops", m.op_ms.len() as f64),
        ("driver.op_ms_p50", median(&m.op_ms)),
        ("driver.op_ms_p90", percentile(&m.op_ms, 0.9)),
        ("driver.op_ms_iqr", iqr(&m.op_ms)),
        ("driver.sim_mips", m.sim_mips()),
        (
            "driver.failed_frac",
            ratio(m.failed as f64, m.attempted as f64),
        ),
        ("driver.full_replay_ms_p50", m.p50("full")),
        ("driver.sparse_replay_ms_p50", m.p50("sparse")),
        ("driver.probe_ms_p50.hashp-2", m.p50("hashp-2")),
        ("driver.probe_ms_p50.loopy-1", m.p50("loopy-1")),
        ("driver.probe_ms_p50.chase-2", m.p50("chase-2")),
        ("driver.probe_ms_p50.branchy-1", m.p50("branchy-1")),
        ("driver.probe_ms_p50.rle-1", m.p50("rle-1")),
        ("trace.closure_err", ops.closure_err()),
        ("trace.coverage", ratio(ms(ops.attributed_ns()), op_p25)),
        (
            "trace.overhead_frac",
            ratio(
                t.rec.spans().len() as f64 * Recorder::span_cost_ns(),
                (ops.wall_ns + probes.wall_ns) as f64,
            ),
        ),
        ("trace.staged_ms", staged_round_ms),
        ("trace.spans", t.rec.spans().len() as f64),
        (
            "trace.dominance_ok",
            f64::from(u8::from(checks.iter().all(|(_, _, ok)| *ok))),
        ),
        ("model.predicted_mips", predicted_mips),
        (
            "model.err_pct",
            if predicted_mips > 0.0 {
                (predicted_mips - m.sim_mips()).abs() / m.sim_mips() * 100.0
            } else {
                0.0
            },
        ),
    ]);
    (out, checks)
}

/// One run of one workload: `setups` set-ups (the last one is kept),
/// warm-up, the measured loop, and — traced — the staged pass.
pub fn run(
    name: &str,
    ctx: &Ctx,
    budget: Budget,
    trace: bool,
    setups: usize,
) -> Result<Outcome, String> {
    // The yardstick of the accuracy metrics: a full-detail run of every
    // probe, once per run and outside `setup_s` (each of the timed
    // set-ups would otherwise pay ~2 s for the same numbers). The risc
    // frontend lowers to the same record stream, so the builtin
    // reference serves both.
    let benches: &[&'static str] = if name == "risc_warm_store" {
        &RISC_BENCHES
    } else {
        &BUILTIN_BENCHES
    };
    let mut references = HashMap::new();
    for bench in benches {
        references.insert(*bench, reference_cpi(ctx, bench)?);
    }

    let mut setup_s = Vec::new();
    let mut plan = None;
    for _ in 0..setups.max(1) {
        // The previous set-up's server is killed before its files go.
        drop(plan.take());
        ctx.scratch.clear()?;
        let start = Instant::now();
        plan = Some(setup(name, ctx)?);
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let plan = plan.expect("at least one set-up ran");

    let m = match &plan {
        Plan::Cli(plan) => measure_cli(plan, ctx, budget)?,
        Plan::Served(plan) => measure_served(plan, budget)?,
    };
    if m.op_ms.is_empty() {
        return Err("no op was measured".to_string());
    }
    if m.anchors.is_empty() {
        return Err("no anchor job answered".to_string());
    }

    let mut traced = None;
    if trace {
        let stage = |rounds: usize, rec: &mut Recorder| match &plan {
            Plan::Cli(plan) => stage_cli(plan, ctx, rounds, rec),
            Plan::Served(plan) => stage_served(plan, ctx, rounds, rec),
        };
        // One unrecorded round first, so this process's allocator and
        // page-cache warm-up is not billed to whichever layer runs first.
        stage(1, &mut Recorder::off())?;
        // Then every distinct round of a CLI workload (3 ops), or one
        // whole served lap (1 op).
        let (rounds, staged_ops) = match &plan {
            Plan::Cli(_) => (DISTINCT_ROUNDS, DISTINCT_ROUNDS as f64),
            Plan::Served(_) => (LAP_ROUNDS as usize, 1.0),
        };
        let mut rec = Recorder::on();
        let jobs = stage(rounds, &mut rec)?;
        traced = Some(Traced {
            rec,
            jobs,
            startup_ms: cli_startup_ms(ctx)?,
            staged_ops,
        });
    }

    // The server's counters and peak RSS are read before it is asked to
    // drain; a server that does not drain cleanly fails the run.
    let mut server = None;
    if let Plan::Served(plan) = plan {
        let mut wire = Wire::connect(&plan.server.addr)?;
        let stats = wire.stats()?;
        let rss_kib = plan.server.peak_rss_kib();
        wire.shutdown()?;
        if !plan.server.wait_exit() {
            return Err("smarts-server did not drain cleanly".to_string());
        }
        server = Some((stats, rss_kib));
    }

    let (cpi_err_pct, ci_halfwidth_pct) = m.accuracy(&references);
    let end_to_end = BTreeMap::from([
        ("setup_s", median(&setup_s)),
        ("op_ms_p25", m.op_p25()),
        ("peak_rss_mb", m.peak_rss_mb()),
        ("cpi_err_pct", cpi_err_pct),
        ("ci_halfwidth_pct", ci_halfwidth_pct),
    ]);
    let mut notes = Vec::new();
    let (mut valid, mut sized) = (true, true);
    let mut per_layer_metrics = Vec::new();
    if let Some(traced) = &traced {
        let (values, checks) = per_layer(name, &m, traced, &references, server);
        for (check, line, ok) in checks {
            match check {
                Check::Trace => valid &= ok,
                Check::Sizing => sized &= ok,
            }
            notes.push(format!(
                "{} {name}: {line}",
                if ok { "pass" } else { "FAIL" }
            ));
        }
        let path = ctx.out_dir.join(format!("trace-{name}.json"));
        let mut header = vec![("workload", crate::emit::quote(name))];
        header.extend(ctx.host.iter().cloned());
        std::fs::write(&path, traced.rec.to_json(&header))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        notes.push(format!("trace written to {}", path.display()));
        per_layer_metrics = PER_LAYER
            .iter()
            .map(|&(metric, unit)| Metric {
                name: metric.to_string(),
                value: values.get(metric).copied().unwrap_or(0.0),
                unit,
            })
            .collect();
    }
    Ok(Outcome {
        correct: m.failed == 0,
        attempted: m.attempted,
        failed: m.failed,
        end_to_end: END_TO_END
            .iter()
            .map(|&(metric, unit, _)| Metric {
                name: metric.to_string(),
                value: end_to_end[metric],
                unit,
            })
            .collect(),
        per_layer: per_layer_metrics,
        notes,
        valid,
        sized,
    })
}
