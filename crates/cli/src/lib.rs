//! Implementation of the `smarts` command-line interface.
//!
//! Kept as a library so the argument parser and command handlers are
//! unit-testable; the `smarts` binary is a thin wrapper around
//! [`dispatch`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::path::Path;
use std::sync::Arc;
use std::time::UNIX_EPOCH;

use smarts_ckpt::{MappedStore, StoreMeta};
use smarts_core::{
    FunctionalEngine, PairedComparison, SampleReport, SamplerKind, SamplerSpec, SamplingParams,
    SmartsSim, TwoStepOutcome, Warming,
};
use smarts_exec::{
    approx_len, replay, sample, Estimate, ExecError, Executor, ParallelMode, ParallelReport,
    UnitMemo,
};
use smarts_isa::{write_trace, IsaId};
use smarts_server::{
    estimate_line, machine_for, report_from_json, sampler_from_json, Client, JobSpec,
};
use smarts_simpoint::{estimate_cpi, SimPointConfig};
use smarts_stats::{Confidence, SamplerEstimate};
use smarts_uarch::MachineConfig;
use smarts_uarch::WarmState;
use smarts_workloads::{extended_suite, find, Benchmark};

/// Parsed common options shared by the sampling subcommands: the job
/// they describe, plus what is not part of a job.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// The job: workload, machine, sampling design and sampler — the
    /// spec `submit` sends, and the one a local run derives its design
    /// and sampler from, so a one-shot run and a served job print the
    /// same line. An empty `bench` means `--bench` was not given.
    pub job: JobSpec,
    /// `--epsilon` was given: a systematic design is tuned by the
    /// two-step procedure to `job.epsilon` (the other samplers take it
    /// as their CI half-width target either way).
    pub epsilon_given: bool,
    /// Disable functional warming.
    pub no_functional_warming: bool,
    /// Persist unit checkpoints to this store while sampling.
    pub save_checkpoints: Option<String>,
    /// Replay a persisted checkpoint store instead of warming.
    pub from_checkpoints: Option<String>,
    /// Emit the canonical bit-exact report JSON instead of prose.
    pub json: bool,
    /// Server address for the client subcommands.
    pub addr: String,
    /// Job id for `status`/`result`/`cancel` (`--job`).
    pub job_id: Option<String>,
    /// Block `submit` until the job finishes and print its report.
    pub wait: bool,
    /// Trace file to sample (`--trace`; selects the trace frontend).
    pub trace: Option<String>,
    /// Output path for `trace-export`.
    pub out: Option<String>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            job: JobSpec::default(),
            epsilon_given: false,
            no_functional_warming: false,
            save_checkpoints: None,
            from_checkpoints: None,
            json: false,
            addr: "127.0.0.1:4617".to_string(),
            job_id: None,
            wait: false,
            trace: None,
            out: None,
        }
    }
}

/// Usage text for `smarts help` and error paths.
pub fn usage() -> String {
    "usage: smarts <command> [options]\n\
     \n\
     commands:\n\
     \x20 list                     show the benchmark suite\n\
     \x20 sample                   SMARTS sampling estimate (CPI/EPI/MPKI + confidence)\n\
     \x20 reference                full-detail ground truth (slow)\n\
     \x20 compare                  paired 8-way vs 16-way comparison\n\
     \x20 simpoint                 SimPoint baseline estimate\n\
     \x20 cachesim                 functional cache/TLB simulation (sim-cache analogue)\n\
     \x20 bpredsim                 functional branch-predictor simulation (sim-bpred analogue)\n\
     \x20 submit                   submit a sampling job to a running smarts-server\n\
     \x20 status                   list server jobs (or one with --job)\n\
     \x20 result                   fetch a finished job's report (--job)\n\
     \x20 cancel                   cancel a queued or running job (--job)\n\
     \x20 stats                    print the server's counters as one JSON line\n\
     \x20 shutdown                 ask the server to drain and exit\n\
     \x20 ckpt-info <store>        inspect a checkpoint store (no replay);\n\
     \x20                          reports its frontend; --json emits a\n\
     \x20                          machine-readable inventory with per-record\n\
     \x20                          offsets and sizes\n\
     \x20 trace-export             record a benchmark's committed-instruction\n\
     \x20                          stream to a CRC-checked trace file (--bench,\n\
     \x20                          --out; sample it back with --trace)\n\
     \x20 help                     this message\n\
     \n\
     options:\n\
     \x20 --bench <name>           benchmark (see `smarts list`)\n\
     \x20 --isa <builtin|risc>     instruction-set frontend of a warming run (a\n\
     \x20                          store replays under its own)  [builtin]\n\
     \x20 --trace <file>           warm from a recorded trace file (trace frontend;\n\
     \x20                          replaces --bench, ignores --scale)\n\
     \x20 --out <file>             trace-export: output trace path\n\
     \x20 --config <8|16>          machine configuration      [8]\n\
     \x20 --scale <f>              stream length multiplier   [1.0]\n\
     \x20 --n <count>              target sample size         [100]\n\
     \x20 --u <insts>              sampling unit size U       [1000]\n\
     \x20 --w <insts>              detailed warming W         [machine default]\n\
     \x20 --no-functional-warming  fast-forward without warming (at --jobs 1 without\n\
     \x20                          a store: each unit replays on the state the last\n\
     \x20                          one left, in turn on one thread)\n\
     \x20 --offset <units>         systematic phase offset j  [0]\n\
     \x20 --epsilon <f>            two-step target (e.g. 0.03); for stratified/\n\
     \x20                          adaptive samplers, the CI half-width target\n\
     \x20 --confidence <f>         confidence level           [0.9973]\n\
     \x20 --sampler <kind>         unit selection: systematic (default; bit-exact\n\
     \x20                          fixed grid), stratified (pilot + Neyman\n\
     \x20                          allocation), or adaptive (sequential stopping\n\
     \x20                          at the CI target)\n\
     \x20 --seed <u64>             sampler seed (stratified/adaptive)  [0]\n\
     \x20 --strata <count>         stratum count, 1..=4096             [4]\n\
     \x20 --pilot <units>          pilot sample size (0 = automatic)   [0]\n\
     \x20 --jobs <count>           replay workers for sample/compare: units replay\n\
     \x20                          from checkpoints on their own threads while\n\
     \x20                          warming runs ahead, one worker too; the same\n\
     \x20                          bytes at any count                  [1]\n\
     \x20 --save-checkpoints <p>   persist unit checkpoints to a store at <p> while\n\
     \x20                          sampling (not with --epsilon)\n\
     \x20 --from-checkpoints <p>   replay a saved store, skipping functional warming;\n\
     \x20                          benchmark, frontend and sampling design come from\n\
     \x20                          the store (--bench, --isa and --trace are ignored;\n\
     \x20                          not with --epsilon). Unit outcomes this build\n\
     \x20                          already measured on this machine are reused from\n\
     \x20                          <p>.<machine>.units beside the store; delete it\n\
     \x20                          to re-simulate\n\
     \x20 --json                   emit the canonical bit-exact report JSON (sample,\n\
     \x20                          submit --wait, result)\n\
     \n\
     server options:\n\
     \x20 --addr <host:port>       server to contact           [127.0.0.1:4617]\n\
     \x20 --job <id>               job id for status/result/cancel\n\
     \x20 --wait                   submit: block until done and print the report"
        .to_string()
}

/// Parses the option list shared by the subcommands: flags are read
/// for their types here, and the job they describe is held to
/// [`JobSpec::validate`], the server's rules for the same fields.
///
/// # Errors
///
/// Returns a human-readable message naming the flag, for unknown flags,
/// malformed values and values out of range.
pub fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut options = Options::default();
    let job = &mut options.job;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value = || {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("{arg} requires a value"))
        };
        match arg.as_str() {
            "--bench" => job.bench = value()?,
            "--isa" => {
                let name = value()?;
                job.isa = IsaId::from_name(&name)
                    .ok_or_else(|| format!("--isa takes builtin, risc, or trace (not {name})"))?;
            }
            "--sampler" => job.sampler = value()?.parse()?,
            "--config" => job.config = number(arg, value()?)?,
            "--scale" => job.scale = number(arg, value()?)?,
            "--n" => job.n = number(arg, value()?)?,
            "--u" => job.unit = number(arg, value()?)?,
            "--w" => job.warming_len = Some(number(arg, value()?)?),
            "--offset" => job.offset = number(arg, value()?)?,
            "--epsilon" => {
                job.epsilon = number(arg, value()?)?;
                options.epsilon_given = true;
            }
            "--confidence" => job.confidence = number(arg, value()?)?,
            "--seed" => job.seed = number(arg, value()?)?,
            "--strata" => job.strata = number(arg, value()?)?,
            "--pilot" => job.pilot = number(arg, value()?)?,
            "--jobs" => job.jobs = number(arg, value()?)?,
            "--trace" => options.trace = Some(value()?),
            "--out" => options.out = Some(value()?),
            "--no-functional-warming" => options.no_functional_warming = true,
            "--save-checkpoints" => options.save_checkpoints = Some(value()?),
            "--from-checkpoints" => options.from_checkpoints = Some(value()?),
            "--json" => options.json = true,
            "--addr" => options.addr = value()?,
            "--job" => options.job_id = Some(value()?),
            "--wait" => options.wait = true,
            other => return Err(format!("unknown option {other}")),
        }
    }
    job.validate().map_err(|e| {
        // `validate` names a field by its wire name, which is its flag's
        // name too, but for `unit` (`--u`).
        let flag = if e.field == "unit" { "u" } else { e.field };
        format!("--{flag} {}", e.rule)
    })?;
    Ok(options)
}

/// `flag`'s value read as a number of the field's type; its range is
/// [`JobSpec::validate`]'s business.
fn number<T: std::str::FromStr>(flag: &str, value: String) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    value
        .parse()
        .map_err(|e| format!("{flag} cannot read `{value}`: {e}"))
}

fn benchmark(options: &Options) -> Result<Benchmark, String> {
    let name = options.job.bench.as_str();
    if name.is_empty() {
        return Err("--bench is required".into());
    }
    let bench =
        find(name).ok_or_else(|| format!("unknown benchmark `{name}` (see `smarts list`)"))?;
    Ok(bench.scaled(options.job.scale))
}

/// The store identity `job` describes: the server's derivation, plus
/// `--no-functional-warming`.
fn job_meta(options: &Options, job: &JobSpec) -> Result<StoreMeta, String> {
    let mut meta = job.meta()?;
    if options.no_functional_warming {
        meta.params.warming = Warming::None;
    }
    Ok(meta)
}

fn cmd_list() {
    println!("{:<12} {:>14}  kernel family", "name", "approx length");
    for bench in extended_suite() {
        let family = bench.name().split('-').next().unwrap_or("?");
        println!(
            "{:<12} {:>13.1}M  {}",
            bench.name(),
            bench.approx_len() as f64 / 1e6,
            family
        );
    }
}

/// The frontend a warming run's options select, plus the workload name
/// it resolves: a benchmark name for builtin and risc, a trace path for
/// trace. A store replay takes both from the store's header instead.
fn sample_frontend(options: &Options) -> Result<(IsaId, String), String> {
    if let Some(trace) = &options.trace {
        if options.job.isa == IsaId::Risc {
            return Err("--trace selects the trace frontend; drop --isa risc".into());
        }
        return Ok((IsaId::Trace, trace.clone()));
    }
    if options.job.isa == IsaId::Trace {
        return Err("--isa trace needs --trace <file>".into());
    }
    Ok((options.job.isa, options.job.bench.clone()))
}

/// Everything `smarts sample` prints, whichever source and estimator
/// the options selected.
struct SampleRun {
    frontend: IsaId,
    label: String,
    params: SamplingParams,
    conf: Confidence,
    /// Prose lines about the store read or written and the two-step
    /// procedure; `--json` prints the report line alone.
    notes: Vec<String>,
    estimate: Estimate,
}

impl SampleRun {
    /// The canonical bit-exact report line (`--json`).
    fn json_line(&self) -> String {
        estimate_line(&self.estimate)
    }
}

/// Why `--epsilon` cannot tune a systematic design that a store fixes:
/// `--save-checkpoints`, `--from-checkpoints`, and every served job.
const TUNING_NEEDS_NO_STORE: &str = "--epsilon tunes the sampling design between runs and \
     cannot be combined with --save-checkpoints/--from-checkpoints or a served job (a store \
     fixes the design)";

/// Whether `--epsilon` asks to tune a systematic design (two-step).
fn tunes(options: &Options) -> bool {
    options.epsilon_given && options.job.sampler == SamplerKind::Systematic
}

/// The `benchmark` line of a report: a suite entry of the built-in
/// frontend prints with its scaled length, anything else by name.
fn workload_label(isa: IsaId, name: &str, scale: f64) -> String {
    match find(name) {
        Some(bench) if isa == IsaId::Builtin => bench.scaled(scale).to_string(),
        _ => name.to_string(),
    }
}

/// This executable's identity for outcome files: its length and mtime, so
/// a rebuilt binary never books an outcome an older one measured.
fn build_identity() -> Option<String> {
    let exe = std::fs::metadata(std::env::current_exe().ok()?).ok()?;
    let mtime = exe.modified().ok()?.duration_since(UNIX_EPOCH).ok()?;
    Some(format!("{} bytes, modified {mtime:?}", exe.len()))
}

/// `smarts sample`, after the flag combinations are validated. The one
/// fork is the source of the checkpoints — `--from-checkpoints`, or a
/// warming pass that keeps them (`--save-checkpoints`) or not — and each
/// is one `smarts-exec` entry point, which picks the frontend from the
/// store identity and runs the estimator the sampler spec names. Every
/// route yields the same report bytes for the same design.
fn run_sample(options: &Options) -> Result<SampleRun, String> {
    let stored = options.save_checkpoints.is_some() || options.from_checkpoints.is_some();
    if options.save_checkpoints.is_some() && options.from_checkpoints.is_some() {
        return Err("--save-checkpoints and --from-checkpoints are mutually exclusive".into());
    }
    if tunes(options) && stored {
        return Err(TUNING_NEEDS_NO_STORE.into());
    }
    let job = &options.job;
    let cfg = machine_for(job.config);
    let sim = SmartsSim::new(cfg.clone());
    let conf = Confidence::new(job.confidence).map_err(|e| e.to_string())?;
    let spec = job.sampler_spec();
    let executor = Executor::new(job.jobs).map_err(|e| e.to_string())?;
    let text = |e: ExecError| e.to_string();
    let mut notes = Vec::new();

    if let Some(path) = &options.from_checkpoints {
        // The store's own workload, frontend and sampling design apply.
        let store = MappedStore::open(path, &cfg).map_err(|e| text(e.into()))?;
        let meta = store.meta().clone();
        // Outcomes an earlier run of this build measured on this machine
        // are booked, not simulated again.
        let units = UnitMemo::file_beside(Path::new(path), &sim);
        let build = build_identity();
        let memo = Arc::new(match &build {
            Some(build) => UnitMemo::load(&units, &sim, &store, build),
            None => UnitMemo::new(&sim, &store),
        });
        let known = memo.known();
        let executor = executor.with_memo(Arc::clone(&memo));
        let run = replay(&executor, &sim, &store, &spec).map_err(text)?;
        let records = run.damage.as_ref().map_or(store.len() as u64, |d| d.0);
        notes.push(format!(
            "store         {path}: {records} records (workload {}, scale {})",
            meta.benchmark, meta.scale
        ));
        if let Some((_, damage)) = &run.damage {
            notes.push(format!(
                "WARNING       store damaged past record {records}: {damage}; \
                 the intact prefix above was still replayed"
            ));
        }
        let written = match build {
            _ if memo.known() == known => "unchanged".to_string(),
            _ if run.damage.is_some() => "not written: the store is damaged".to_string(),
            None => "not written: this executable's build is unknown".to_string(),
            Some(build) => match memo.save(&units, &build) {
                Ok(()) => "written".to_string(),
                Err(e) => format!("not written: {e}"),
            },
        };
        notes.push(format!(
            "memo          {known} of {} units known from {} ({written})",
            store.len(),
            units.display()
        ));
        return Ok(SampleRun {
            frontend: meta.isa,
            label: workload_label(meta.isa, &meta.benchmark, meta.scale),
            params: meta.params,
            conf,
            notes,
            estimate: run.estimate,
        });
    }

    let (isa, workload) = sample_frontend(options)?;
    if workload.is_empty() {
        return Err("--bench is required".into());
    }
    let two_step = tunes(options).then_some(job.epsilon);
    if two_step.is_some() && isa != IsaId::Builtin {
        return Err("--epsilon two-step tuning supports the built-in frontend only".into());
    }
    let resolved = JobSpec {
        bench: workload.clone(),
        isa,
        ..job.clone()
    };
    let meta = job_meta(options, &resolved)?;
    let save = options.save_checkpoints.as_deref().map(Path::new);
    let run_at = |params: &SamplingParams| {
        let mut meta = meta.clone();
        meta.params = *params;
        sample(&executor, &sim, &meta, &spec, save)
    };
    let run = match two_step {
        // Two-step tuning reruns at a tuned n; the run that stands is the
        // last one.
        Some(eps) => {
            let mut last = None;
            let len = approx_len(isa, &workload, job.scale)?;
            let outcome = TwoStepOutcome::run(len, &meta.params, eps, conf, |p| {
                let run = run_at(p)?;
                let report = run.estimate.report().report.clone();
                last = Some(run);
                Ok::<_, ExecError>(report)
            })
            .map_err(text)?;
            if let Some(tuned) = &outcome.tuned {
                notes.push(format!(
                    "initial n = {} missed ±{:.2}%; tuned rerun at n = {}",
                    outcome.initial.sample_size(),
                    eps * 100.0,
                    tuned.sample_size()
                ));
            }
            last.expect("the two-step procedure sampled")
        }
        None => run_at(&meta.params).map_err(text)?,
    };
    if let (Some(write), Some(path)) = (&run.write, save) {
        notes.push(format!(
            "store         {} records, {:.2} MiB written to {}",
            write.records,
            write.bytes as f64 / (1024.0 * 1024.0),
            path.display()
        ));
    }
    Ok(SampleRun {
        frontend: isa,
        label: workload_label(isa, &workload, job.scale),
        params: meta.params,
        conf,
        notes,
        estimate: run.estimate,
    })
}

fn cmd_sample(options: &Options) -> Result<(), String> {
    let run = run_sample(options)?;
    if options.json {
        println!("{}", run.json_line());
        return Ok(());
    }
    if run.frontend != IsaId::Builtin {
        println!("frontend      {}", run.frontend);
    }
    for note in &run.notes {
        println!("{note}");
    }
    if let Estimate::Sampled(sampled) = &run.estimate {
        print_sampler_lines(&sampled.spec, &sampled.estimate);
    }
    let parallel = run.estimate.report();
    print_sample_report(
        &run.label,
        &machine_for(options.job.config),
        &run.params,
        &parallel.report,
        run.conf,
        Some(parallel),
    );
    Ok(())
}

/// What the sampled (stratified/adaptive) strategies print ahead of the
/// merged report, whether run here or fetched from a server: selection
/// accounting and the sampler's own estimate.
fn print_sampler_lines(spec: &SamplerSpec, est: &SamplerEstimate) {
    println!("sampler       {spec}");
    println!(
        "selection     {} of {} units over {} rounds ({} strata); stopped: {}",
        est.n,
        est.pool,
        est.rounds,
        est.strata,
        est.stop.tag()
    );
    println!(
        "stratified    CPI {:.4} ±{:.2}% (target ±{:.2}% {})",
        est.mean,
        if est.mean.abs() > f64::EPSILON {
            est.half_width / est.mean * 100.0
        } else {
            0.0
        },
        spec.epsilon * 100.0,
        if est.target_met { "met" } else { "missed" }
    );
}

/// Records a benchmark's committed-instruction stream to a CRC-checked
/// trace file; `smarts sample --trace <file>` replays it through the
/// trace frontend.
fn cmd_trace_export(options: &Options) -> Result<(), String> {
    let out = options
        .out
        .as_deref()
        .ok_or("--out <file> is required for trace-export")?;
    let bench = benchmark(options)?;
    let loaded = bench.load();
    let mut cpu = smarts_isa::Cpu::new();
    let mut mem = loaded.memory.clone();
    let mut records = Vec::new();
    while !cpu.halted() {
        records.push(
            cpu.step(&loaded.program, &mut mem)
                .map_err(|e| format!("execution fault while tracing {}: {e}", bench.name()))?,
        );
    }
    write_trace(std::path::Path::new(out), bench.name(), &records)
        .map_err(|e| format!("cannot write trace {out}: {e}"))?;
    println!(
        "trace         {} records of {} written to {out}",
        records.len(),
        bench
    );
    println!("replay with   smarts sample --trace {out}");
    Ok(())
}

/// Inspects a checkpoint store without replaying it: identity, record
/// count, and the file-bytes vs decoded-resident-bytes gap that lazy
/// replay exploits. Opens unchecked, so it works on stores for a
/// different machine geometry and on damaged stores (the intact prefix
/// is reported alongside the damage); a store of another format version
/// is refused with `UnsupportedVersion`.
fn cmd_ckpt_info(path: &str, json: bool) -> Result<(), String> {
    let store = MappedStore::open_unchecked(path).map_err(|e| e.to_string())?;
    let meta = store.meta();
    let build = build_identity().unwrap_or_default();
    let outcome_files = UnitMemo::files_beside(Path::new(path), &store, &build);
    if json {
        use smarts_server::json::Json;
        let outcome_files: Vec<Json> = (outcome_files.iter())
            .map(|file| {
                Json::obj(vec![
                    ("path", Json::Str(file.path.display().to_string())),
                    ("machine", Json::Str(format!("{:016x}", file.machine))),
                    ("outcomes", Json::U64(file.outcomes as u64)),
                    ("usable", Json::Bool(file.usable)),
                ])
            })
            .collect();
        let spans: Vec<Json> = (0..store.len())
            .map(|i| {
                let span = store.record_span(i);
                Json::obj(vec![
                    ("index", Json::U64(i as u64)),
                    ("offset", Json::U64(span.offset)),
                    ("payload_bytes", Json::U64(span.payload_bytes)),
                    ("crc32", Json::U64(u64::from(span.crc))),
                ])
            })
            .collect();
        let value = Json::obj(vec![
            ("path", Json::Str(path.to_string())),
            ("benchmark", Json::Str(meta.benchmark.clone())),
            ("isa", Json::Str(meta.isa.name().to_string())),
            ("scale", Json::F64(meta.scale)),
            (
                "fingerprint",
                Json::Str(format!("{:016x}", store.fingerprint())),
            ),
            ("version", Json::U64(u64::from(smarts_ckpt::FORMAT_VERSION))),
            ("mapped", Json::Bool(store.is_mapped())),
            ("unit_size", Json::U64(meta.params.unit_size)),
            ("detailed_warming", Json::U64(meta.params.detailed_warming)),
            ("interval", Json::U64(meta.params.interval)),
            ("offset_units", Json::U64(meta.params.offset)),
            ("warming", Json::Str(format!("{:?}", meta.params.warming))),
            ("file_bytes", Json::U64(store.file_bytes())),
            ("header_bytes", Json::U64(store.header_bytes())),
            ("records_end", Json::U64(store.records_end())),
            ("records", Json::U64(store.len() as u64)),
            (
                "damage",
                match store.damage() {
                    Some(d) => Json::Str(d.to_string()),
                    None => Json::Null,
                },
            ),
            ("spans", Json::Arr(spans)),
            ("outcome_files", Json::Arr(outcome_files)),
        ]);
        println!("{}", value.to_line());
        return Ok(());
    }
    println!("store         {path}");
    println!(
        "identity      bench {}, scale {} (fingerprint {:016x})",
        meta.benchmark,
        meta.scale,
        store.fingerprint()
    );
    println!("frontend      {} (a replay runs under it)", meta.isa);
    println!(
        "design        U={}, W={}, k={}, j={}, warming {:?}",
        meta.params.unit_size,
        meta.params.detailed_warming,
        meta.params.interval,
        meta.params.offset,
        meta.params.warming
    );
    println!(
        "format        v{}, {}",
        smarts_ckpt::FORMAT_VERSION,
        if store.is_mapped() {
            "memory-mapped"
        } else {
            "buffered (mmap unavailable)"
        }
    );
    println!("records       {} intact", store.len());
    let mib = |bytes: u64| bytes as f64 / (1024.0 * 1024.0);
    println!(
        "file bytes    {} ({:.1} MiB; header {}, records end at {})",
        store.file_bytes(),
        mib(store.file_bytes()),
        store.header_bytes(),
        store.records_end()
    );
    match store.approx_decoded_bytes() {
        Ok(decoded) => {
            let ratio = decoded as f64 / store.file_bytes().max(1) as f64;
            println!(
                "decoded       ~{decoded} bytes resident if eager ({:.1} MiB, {ratio:.1}x the \
                 file); lazy replay keeps one decode cursor per worker instead",
                mib(decoded)
            );
        }
        Err(e) => println!("decoded       unavailable: {e}"),
    }
    if let Some(damage) = store.damage() {
        println!("damage        {damage}; records above are the intact prefix");
    }
    for file in &outcome_files {
        let (path, machine, n) = (file.path.display(), file.machine, file.outcomes);
        let usable = if file.usable { "usable" } else { "not usable" };
        println!("outcomes      {path}: machine {machine:016x}, {n} held, {usable} by this build");
    }
    Ok(())
}

fn print_sample_report(
    bench_label: &str,
    cfg: &MachineConfig,
    params: &SamplingParams,
    report: &SampleReport,
    conf: Confidence,
    parallel: Option<&ParallelReport>,
) {
    let cpi = report.cpi();
    let epi = report.epi();
    let mpki = report.branch_mpki();
    let mem = report.memory_pki();
    println!("benchmark     {}", bench_label);
    println!(
        "machine       {} (U={}, W={}, k={}, j={})",
        cfg.name, params.unit_size, params.detailed_warming, params.interval, params.offset
    );
    println!(
        "sample        {} units, {} instructions in detail, replayed from checkpoints",
        report.sample_size(),
        report.instructions.detailed()
    );
    let pct = |e: smarts_stats::SampleEstimate| -> String {
        match e.achieved_epsilon(conf) {
            Ok(eps) => format!("±{:.2}%", eps * 100.0),
            Err(_) => "±?".to_string(),
        }
    };
    println!(
        "CPI           {:.4} {} (V̂ = {:.3})",
        cpi.mean(),
        pct(cpi),
        cpi.coefficient_of_variation()
    );
    println!("EPI           {:.2} nJ {}", epi.mean(), pct(epi));
    println!("branch MPKI   {:.2} {}", mpki.mean(), pct(mpki));
    println!("memory APKI   {:.2} {}", mem.mean(), pct(mem));
    // A report fetched from a server carries no timings.
    let Some(pr) = parallel else { return };
    let workers = format!("{} worker{}", pr.jobs, if pr.jobs == 1 { "" } else { "s" });
    let warming = match (&pr.pipeline, pr.mode) {
        (Some(_), ParallelMode::Pipeline) => {
            format!("{:.2?} warming, overlapped with", report.wall_functional)
        }
        (Some(_), ParallelMode::Checkpoint) => "no warming,".to_string(),
        (None, _) => format!("{:.2?} fast-forward, then", report.wall_functional),
    };
    println!(
        "wall clock    {:.2?} ({warming} {:.2?} detailed replay on {workers})",
        pr.wall_total(),
        report.wall_detailed
    );
    match &pr.pipeline {
        Some(ps) => {
            println!(
                "parallel      {} mode, {workers}: {:.2?} overlapped \
                 ({:.2?} producer warming, depth {})",
                pr.mode, pr.parallel_wall, ps.producer_wall, ps.depth
            );
            println!(
                "residency     peak {} checkpoints, {:.1} MiB \
                 ({} emitted in total)",
                ps.peak_resident_checkpoints,
                ps.peak_resident_bytes as f64 / (1024.0 * 1024.0),
                ps.emitted
            );
        }
        None => println!(
            "parallel      none: without functional warming each unit replays in turn \
             on the state the last one left"
        ),
    }
    for w in &pr.workers {
        let (i, memoized) = (&w.instructions, w.memoized);
        println!(
            "  worker {:<3} {:>5} units  {:>10.2?}  warm {:>10}  measured {:>10}  \
             memoized {memoized:>5}",
            w.worker, w.units, w.wall, i.detailed_warmed, i.measured
        );
    }
}

fn cmd_reference(options: &Options) -> Result<(), String> {
    let cfg = machine_for(options.job.config);
    let bench = benchmark(options)?;
    let sim = SmartsSim::new(cfg.clone());
    let reference = sim.reference(&bench, options.job.unit);
    println!("benchmark     {}", bench);
    println!("machine       {}", cfg.name);
    println!("instructions  {}", reference.instructions);
    println!("cycles        {}", reference.cycles);
    println!("CPI           {:.4}", reference.cpi);
    println!("EPI           {:.2} nJ", reference.epi);
    println!("wall clock    {:.2?}", reference.wall);
    Ok(())
}

/// The paired 8-way vs 16-way comparison the options describe, each
/// machine sampled on `--jobs` workers.
fn run_compare(options: &Options) -> Result<PairedComparison, String> {
    let bench = benchmark(options)?;
    let base = SmartsSim::new(MachineConfig::eight_way());
    let alt = SmartsSim::new(MachineConfig::sixteen_way());
    // The pair shares the 8-way design; each machine then warms with its
    // own recommended W.
    let eight = JobSpec {
        bench: bench.name().to_string(),
        isa: IsaId::Builtin,
        config: 8,
        ..options.job.clone()
    };
    let mut meta = job_meta(options, &eight)?;
    meta.params.detailed_warming = 0;
    let executor = Executor::new(eight.jobs).map_err(|e| e.to_string())?;
    let spec = SamplerSpec::systematic();
    PairedComparison::run(&base, &alt, &meta.params, |sim, p| {
        let mut meta = meta.clone();
        meta.params = *p;
        let run = sample(&executor, sim, &meta, &spec, None);
        run.map(|run| run.estimate.report().report.clone())
    })
    .map_err(|e: ExecError| e.to_string())
}

fn cmd_compare(options: &Options) -> Result<(), String> {
    let bench = benchmark(options)?;
    let conf = Confidence::new(options.job.confidence).map_err(|e| e.to_string())?;
    let cmp = run_compare(options)?;
    println!("benchmark     {}", bench);
    println!("pairs         {}", cmp.pairs());
    println!("8-way CPI     {:.4}", cmp.baseline.cpi().mean());
    println!("16-way CPI    {:.4}", cmp.alternative.cpi().mean());
    println!("speedup       {:.3}x", cmp.speedup());
    println!(
        "ΔCPI          {:+.4} ± {:.4} ({}significant at {:.2}%)",
        cmp.cpi_delta(),
        cmp.delta_half_width(conf).map_err(|e| e.to_string())?,
        if cmp.is_significant(conf).map_err(|e| e.to_string())? {
            ""
        } else {
            "not "
        },
        options.job.confidence * 100.0,
    );
    println!(
        "pairing gain  {:.1}x tighter than independent runs",
        cmp.pairing_gain()
    );
    if options.job.jobs > 1 {
        println!("parallel      {} workers per machine", options.job.jobs);
    }
    Ok(())
}

fn cmd_simpoint(options: &Options) -> Result<(), String> {
    let cfg = machine_for(options.job.config);
    let bench = benchmark(options)?;
    let sim = SmartsSim::new(cfg.clone());
    let sp_config = SimPointConfig {
        interval: (bench.approx_len() / 40).clamp(10_000, 200_000),
        ..SimPointConfig::default()
    };
    let estimate = estimate_cpi(&sim, &bench, &sp_config);
    println!("benchmark     {}", bench);
    println!("machine       {}", cfg.name);
    println!("interval      {} instructions", sp_config.interval);
    println!(
        "clusters      {} (of {} intervals)",
        estimate.selection.k, estimate.selection.population
    );
    println!(
        "CPI           {:.4} (no confidence measure — see the paper §5.3)",
        estimate.cpi
    );
    println!(
        "wall clock    {:.2?} profile + {:.2?} measure",
        estimate.wall_profile, estimate.wall_measure
    );
    Ok(())
}

fn cmd_cachesim(options: &Options) -> Result<(), String> {
    let cfg = machine_for(options.job.config);
    let bench = benchmark(options)?;
    let mut engine = FunctionalEngine::new(bench.load());
    let mut warm = WarmState::new(&cfg);
    engine.fast_forward_warming(u64::MAX - 1, &mut warm);
    let h = &warm.hierarchy;
    println!("benchmark     {}", bench);
    println!("machine       {} (functional cache simulation)", cfg.name);
    println!("instructions  {}", engine.position());
    let line = |name: &str, accesses: u64, misses: u64| {
        let ratio = if accesses == 0 {
            0.0
        } else {
            misses as f64 / accesses as f64
        };
        println!(
            "{name:<8} accesses {accesses:>12}  misses {misses:>10}  miss ratio {:>7.4}",
            ratio
        );
    };
    line("L1I", h.l1i().accesses(), h.l1i().misses());
    line("L1D", h.l1d().accesses(), h.l1d().misses());
    line("L2", h.l2().accesses(), h.l2().misses());
    line("ITLB", warm.itlb.accesses(), warm.itlb.misses());
    line("DTLB", warm.dtlb.accesses(), warm.dtlb.misses());
    Ok(())
}

fn cmd_bpredsim(options: &Options) -> Result<(), String> {
    let cfg = machine_for(options.job.config);
    let bench = benchmark(options)?;
    let mut engine = FunctionalEngine::new(bench.load());
    let mut warm = WarmState::new(&cfg);
    engine.fast_forward_warming(u64::MAX - 1, &mut warm);
    println!("benchmark     {}", bench);
    println!(
        "machine       {} (functional branch-predictor simulation)",
        cfg.name
    );
    println!("instructions  {}", engine.position());
    println!(
        "cond branches mispredicted: {} (direction miss ratio {:.4})",
        warm.bpred.cond_mispredicts(),
        warm.bpred.mispredict_ratio()
    );
    Ok(())
}

/// The job spec the sampling options describe, for `submit`: what a
/// server cannot run is refused here, before connecting.
fn job_spec(options: &Options) -> Result<JobSpec, String> {
    if options.trace.is_some() || options.job.isa == IsaId::Trace {
        return Err(
            "trace workloads are local files; the server cannot read them — \
             use `smarts sample --trace` instead"
                .to_string(),
        );
    }
    // A served job always goes through a store.
    if options.no_functional_warming {
        return Err(ExecError::NoFunctionalWarming.to_string());
    }
    if tunes(options) {
        return Err(TUNING_NEEDS_NO_STORE.into());
    }
    if options.job.bench.is_empty() {
        return Err("--bench is required to submit a job".into());
    }
    Ok(options.job.clone())
}

/// Prints job `id`'s report fetched from a server: raw canonical bytes
/// with `--json`, the usual prose report otherwise — labelled with the
/// job's own benchmark and machine, read off `job` (its `status` reply
/// or its `end` event), not off this command's flags.
fn print_fetched_result(
    options: &Options,
    client: &mut Client,
    id: &str,
    job: &smarts_server::json::Json,
) -> Result<(), String> {
    use smarts_server::json::{parse, Json};
    let (source, raw_report) = client.result(id)?;
    if options.json {
        println!("{raw_report}");
        return Ok(());
    }
    let value = parse(&raw_report).map_err(|e| format!("bad report: {e}"))?;
    let report = report_from_json(&value)?;
    let conf = Confidence::new(options.job.confidence).map_err(|e| e.to_string())?;
    println!("job           {id} (result from {source})");
    if let Some(section) = value.get("sampler") {
        let (spec, estimate) = sampler_from_json(section)?;
        print_sampler_lines(&spec, &estimate);
    }
    let bench = job.get("bench").and_then(Json::as_str);
    let config = job.get("config").and_then(Json::as_u64);
    let config = config.and_then(|config| u32::try_from(config).ok());
    print_sample_report(
        bench.unwrap_or("<server job>"),
        &machine_for(config.unwrap_or(options.job.config)),
        &report.params,
        &report,
        conf,
        None,
    );
    Ok(())
}

fn cmd_submit(options: &Options) -> Result<(), String> {
    let spec = job_spec(options)?;
    let mut client = Client::connect(&options.addr)?;
    let id = client.submit(&spec)?;
    if !options.wait {
        println!("submitted {id} to {}", options.addr);
        return Ok(());
    }
    // The server pushes every state change; the `end` event carries the
    // terminal state and, for a failed job, its error.
    let end = client.watch(&id, |_| {})?;
    let field = |key| end.get(key).and_then(smarts_server::json::Json::as_str);
    let state = field("state").ok_or("`end` event missing `state`")?;
    if state != "done" {
        let detail = field("error").unwrap_or("no detail");
        return Err(format!("job {id} ended {state}: {detail}"));
    }
    print_fetched_result(options, &mut client, &id, &end)
}

fn cmd_status(options: &Options) -> Result<(), String> {
    let mut client = Client::connect(&options.addr)?;
    let response = client.status(options.job_id.as_deref())?;
    if options.json {
        println!("{}", response.to_line());
        return Ok(());
    }
    let print_one = |v: &smarts_server::json::Json| {
        let text = |k: &str| {
            v.get(k)
                .and_then(smarts_server::json::Json::as_str)
                .unwrap_or("-")
                .to_string()
        };
        let count = |k: &str| {
            v.get(k)
                .and_then(smarts_server::json::Json::as_u64)
                .unwrap_or(0)
        };
        println!(
            "{:<8} {:<10} {:<10} {:<7} emitted {:>6}  replayed {:>6}  {}",
            text("job"),
            text("bench"),
            text("state"),
            text("source"),
            count("emitted"),
            count("replayed"),
            v.get("error")
                .and_then(smarts_server::json::Json::as_str)
                .unwrap_or("")
        );
    };
    match response
        .get("jobs")
        .and_then(smarts_server::json::Json::as_arr)
    {
        Some(jobs) => {
            for job in jobs {
                print_one(job);
            }
            if jobs.is_empty() {
                println!("no jobs");
            }
        }
        None => print_one(&response),
    }
    Ok(())
}

fn cmd_result(options: &Options) -> Result<(), String> {
    let id = options.job_id.clone().ok_or("--job is required")?;
    let mut client = Client::connect(&options.addr)?;
    let job = client.status(Some(&id))?;
    print_fetched_result(options, &mut client, &id, &job)
}

fn cmd_cancel(options: &Options) -> Result<(), String> {
    let id = options.job_id.clone().ok_or("--job is required")?;
    let mut client = Client::connect(&options.addr)?;
    let was = client.cancel(&id)?;
    println!("cancellation requested for {id} (was {was})");
    Ok(())
}

fn cmd_stats(options: &Options) -> Result<(), String> {
    println!("{}", Client::connect(&options.addr)?.stats()?.to_line());
    Ok(())
}

fn cmd_shutdown(options: &Options) -> Result<(), String> {
    let mut client = Client::connect(&options.addr)?;
    client.shutdown()?;
    println!("server at {} is draining", options.addr);
    Ok(())
}

/// Entry point: dispatches a raw argument vector to a subcommand.
///
/// # Errors
///
/// Returns a human-readable message for unknown commands or bad options.
pub fn dispatch(args: &[String]) -> Result<(), String> {
    let Some(command) = args.first() else {
        return Err("a command is required".into());
    };
    let rest = &args[1..];
    match command.as_str() {
        "list" => {
            cmd_list();
            Ok(())
        }
        "sample" => cmd_sample(&parse_options(rest)?),
        "reference" => cmd_reference(&parse_options(rest)?),
        "compare" => cmd_compare(&parse_options(rest)?),
        "simpoint" => cmd_simpoint(&parse_options(rest)?),
        "cachesim" => cmd_cachesim(&parse_options(rest)?),
        "bpredsim" => cmd_bpredsim(&parse_options(rest)?),
        "submit" => cmd_submit(&parse_options(rest)?),
        "status" => cmd_status(&parse_options(rest)?),
        "result" => cmd_result(&parse_options(rest)?),
        "cancel" => cmd_cancel(&parse_options(rest)?),
        "trace-export" => cmd_trace_export(&parse_options(rest)?),
        "stats" => cmd_stats(&parse_options(rest)?),
        "shutdown" => cmd_shutdown(&parse_options(rest)?),
        "ckpt-info" => {
            let json = rest.iter().any(|a| a == "--json");
            let paths: Vec<&String> = rest.iter().filter(|a| *a != "--json").collect();
            match paths.as_slice() {
                [path] => cmd_ckpt_info(path, json),
                _ => Err("usage: smarts ckpt-info <store> [--json]".into()),
            }
        }
        "help" | "--help" | "-h" => {
            println!("{}", usage());
            Ok(())
        }
        other => Err(format!("unknown command `{other}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smarts_exec::{WorkerStats, PIPELINE_DEPTH};

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_full_option_set() {
        let args = strings(&[
            "--bench",
            "chase-1",
            "--config",
            "16",
            "--scale",
            "0.5",
            "--n",
            "42",
            "--u",
            "500",
            "--w",
            "3000",
            "--no-functional-warming",
            "--offset",
            "2",
            "--epsilon",
            "0.03",
            "--confidence",
            "0.95",
        ]);
        let options = parse_options(&args).unwrap();
        assert_eq!(options.job.bench, "chase-1");
        assert_eq!(options.job.config, 16);
        assert_eq!(options.job.scale, 0.5);
        assert_eq!(options.job.n, 42);
        assert_eq!(options.job.unit, 500);
        assert_eq!(options.job.warming_len, Some(3000));
        assert!(options.no_functional_warming);
        assert_eq!(options.job.offset, 2);
        assert_eq!((options.job.epsilon, options.epsilon_given), (0.03, true));
        assert_eq!(options.job.confidence, 0.95);
    }

    #[test]
    fn rejects_unknown_flags_and_bad_values() {
        assert!(parse_options(&strings(&["--wat"])).is_err());
        assert!(parse_options(&strings(&["--config", "12"])).is_err());
        assert!(parse_options(&strings(&["--scale", "-1"])).is_err());
        assert!(parse_options(&strings(&["--n"])).is_err());
        assert!(parse_options(&strings(&["--jobs", "0"])).is_err());
        // A scale that is not finite and positive, a worker count past
        // the executor's bound: refused here, before anything runs.
        for scale in ["nan", "inf", "-inf", "1e400", "0"] {
            let err = parse_options(&strings(&["--scale", scale])).unwrap_err();
            assert!(err.contains("finite positive"), "{scale}: {err}");
        }
        for jobs in ["257", "50000"] {
            let err = parse_options(&strings(&["--jobs", jobs])).unwrap_err();
            assert!(err.contains("1..=256"), "{jobs}: {err}");
        }
        assert_eq!(
            parse_options(&strings(&["--jobs", "256"]))
                .unwrap()
                .job
                .jobs,
            256
        );
    }

    #[test]
    fn parses_parallel_flags() {
        let options = parse_options(&strings(&["--jobs", "4"])).unwrap();
        assert_eq!(options.job.jobs, 4);
        assert_eq!(parse_options(&[]).unwrap().job.jobs, 1);
        // How a run is parallelised is not an input any more: `--jobs` is
        // the only knob. Nor is where a server listens: that is
        // `smarts-server`'s flag.
        for (flag, value) in [
            ("--parallel-mode", "pipeline"),
            ("--warm-jobs", "2"),
            ("--pipeline-depth", "4"),
            ("--listen", "127.0.0.1:0"),
        ] {
            assert_eq!(
                parse_options(&strings(&[flag, value])).unwrap_err(),
                format!("unknown option {flag}")
            );
        }
    }

    /// The parallel accounting of a run: the executor's own for the
    /// systematic estimator, the replay's for a sampled one.
    fn parallel_of(args: &[&str]) -> ParallelReport {
        match run_sample(&parse_options(&strings(args)).unwrap())
            .unwrap()
            .estimate
        {
            Estimate::Systematic(parallel) => parallel,
            Estimate::Sampled(sampled) => sampled.report,
        }
    }

    /// The `--json` line of a `smarts sample` run.
    fn json_of(args: &[&str]) -> String {
        let run = run_sample(&parse_options(&strings(args)).unwrap());
        run.unwrap_or_else(|e| panic!("{args:?}: {e}")).json_line()
    }

    const BUILTIN: [&str; 4] = ["--bench", "loopy-1", "--scale", "0.02"];

    #[test]
    fn dispatch_rejects_unknown_commands() {
        assert!(dispatch(&strings(&["frobnicate"])).is_err());
        // The server is its own binary, `smarts-server`.
        assert_eq!(
            dispatch(&strings(&["serve"])).unwrap_err(),
            "unknown command `serve`"
        );
        assert!(dispatch(&[]).is_err());
    }

    #[test]
    fn dispatch_runs_list_and_help() {
        assert!(dispatch(&strings(&["list"])).is_ok());
        assert!(dispatch(&strings(&["help"])).is_ok());
    }

    #[test]
    fn sample_requires_a_benchmark() {
        let err = dispatch(&strings(&["sample"])).unwrap_err();
        assert!(err.contains("--bench"));
    }

    #[test]
    fn sample_runs_end_to_end_at_tiny_scale() {
        dispatch(&strings(&[
            "sample", "--bench", "loopy-1", "--scale", "0.02", "--n", "8",
        ]))
        .unwrap();
    }

    #[test]
    fn compare_runs_end_to_end_at_tiny_scale() {
        dispatch(&strings(&[
            "compare", "--bench", "stream-2", "--scale", "0.05", "--n", "6",
        ]))
        .unwrap();
    }

    #[test]
    fn sample_runs_parallel_in_all_modes() {
        let path =
            std::env::temp_dir().join(format!("smarts-cli-modes-{}.ckpt", std::process::id()));
        let path_s = path.to_string_lossy().to_string();
        let mode_of =
            |flags: &[&str]| parallel_of(&[&BUILTIN[..], &["--n", "8"], flags].concat()).mode;
        assert_eq!(
            mode_of(&["--jobs", "2", "--save-checkpoints", &path_s]),
            ParallelMode::Pipeline
        );
        let replayed = parallel_of(&["--from-checkpoints", &path_s, "--jobs", "2"]);
        assert_eq!(replayed.mode, ParallelMode::Checkpoint);
        remove_store(&path);
        // One worker, no store: one consumer replays behind the warming
        // producer, through the channel — and the same bytes as every
        // other route.
        let single = parallel_of(&[&BUILTIN[..], &["--n", "8"]].concat());
        assert_eq!((single.jobs, single.mode), (1, ParallelMode::Pipeline));
        let stats = single.pipeline.expect("one worker reports its pipeline");
        assert_eq!(stats.depth, PIPELINE_DEPTH);
        assert!(stats.emitted >= single.report.sample_size());
        let line = |flags: &[&str]| json_of(&[&BUILTIN[..], &["--n", "8"], flags].concat());
        let one = line(&["--jobs", "1"]);
        assert_eq!(line(&["--jobs", "2"]), one, "--jobs 2");
        assert_eq!(line(&["--save-checkpoints", &path_s]), one, "saving");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn every_route_prints_the_same_json_for_the_reference_designs() {
        // The designs `smarts sample` is timed on (n = 100, j = 0,
        // W = 2000), on shorter streams: one worker, two workers, a run
        // that saves its checkpoints and a served job print one line.
        let dir = std::env::temp_dir().join(format!("smarts-cli-routes-{}", std::process::id()));
        let server = smarts_server::Server::bind(&smarts_server::ServerConfig {
            store_dir: dir.clone(),
            ..Default::default()
        })
        .unwrap();
        let addr = server.local_addr().to_string();
        let stop = server.stop_flag();
        let serving = std::thread::spawn(move || server.serve());
        let mut client = Client::connect(&addr).unwrap();
        let path = dir.join("saved.ckpt");
        let path_s = path.to_string_lossy().to_string();
        for bench in ["hashp-2", "loopy-1", "chase-2", "branchy-1"] {
            let design = [
                "--bench", bench, "--scale", "0.05", "--n", "100", "--offset", "0", "--w", "2000",
            ];
            let line = |flags: &[&str]| json_of(&[&design[..], flags].concat());
            let one = line(&["--jobs", "1"]);
            assert_eq!(line(&["--jobs", "2"]), one, "{bench}: --jobs 2");
            assert_eq!(
                line(&["--save-checkpoints", &path_s]),
                one,
                "{bench}: saving"
            );
            std::fs::remove_file(&path).unwrap();
            let spec = job_spec(&parse_options(&strings(&design)).unwrap()).unwrap();
            let id = client.submit(&spec).unwrap();
            let end = client.watch(&id, |_| {}).unwrap();
            let state = end.get("state").and_then(smarts_server::json::Json::as_str);
            assert_eq!(state, Some("done"), "{bench}: served");
            assert_eq!(client.result(&id).unwrap().1, one, "{bench}: served");
        }
        stop.store(true, std::sync::atomic::Ordering::SeqCst);
        serving.join().unwrap().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn two_step_tunes_to_the_same_bytes_at_any_jobs() {
        let args = |jobs| {
            [
                &BUILTIN[..],
                &["--n", "8", "--epsilon", "0.001", "--jobs", jobs],
            ]
            .concat()
        };
        let one = run_sample(&parse_options(&strings(&args("1"))).unwrap()).unwrap();
        let two = run_sample(&parse_options(&strings(&args("2"))).unwrap()).unwrap();
        assert!(
            one.notes.iter().any(|n| n.contains("tuned rerun")),
            "an unreachable target tunes: {:?}",
            one.notes
        );
        assert_eq!(two.notes, one.notes);
        assert_eq!(two.json_line(), one.json_line());
    }

    #[test]
    fn compare_pairs_the_same_units_at_any_jobs() {
        let args = ["--bench", "stream-2", "--scale", "0.05", "--n", "6"];
        let compare = |jobs| {
            run_compare(&parse_options(&strings(&[&args[..], &["--jobs", jobs]].concat())).unwrap())
                .unwrap()
        };
        let (one, two) = (compare("1"), compare("2"));
        assert_eq!(two.pairs(), one.pairs());
        assert_eq!(two.cpi_delta().to_bits(), one.cpi_delta().to_bits());
        assert_eq!(two.speedup().to_bits(), one.speedup().to_bits());
    }

    #[test]
    fn no_functional_warming_is_refused_at_two_workers() {
        let args = [&BUILTIN[..], &["--n", "8", "--no-functional-warming"]].concat();
        // One worker without a store carries the stale state unit to
        // unit, on the calling thread: the one run with no pipeline.
        assert_eq!(parallel_of(&args).pipeline, None);
        let two = [&args[..], &["--jobs", "2"]].concat();
        let err = run_sample(&parse_options(&strings(&two)).unwrap())
            .err()
            .unwrap();
        assert_eq!(err, ExecError::NoFunctionalWarming.to_string());
    }

    #[test]
    fn no_functional_warming_is_refused_before_a_submit() {
        let args = [&BUILTIN[..], &["--no-functional-warming"]].concat();
        let err = job_spec(&parse_options(&strings(&args)).unwrap()).unwrap_err();
        assert_eq!(err, ExecError::NoFunctionalWarming.to_string());
    }

    #[test]
    fn two_step_tuning_is_refused_before_a_submit() {
        // A served job goes through a store, which fixes the design: a
        // systematic `--epsilon` is refused before connecting (nothing
        // listens on port 1) …
        let submit = |sampler: &str| {
            let args = [
                "submit",
                "--addr",
                "127.0.0.1:1",
                "--bench",
                "phased-2",
                "--epsilon",
                "0.03",
                "--sampler",
                sampler,
            ];
            dispatch(&strings(&args)).unwrap_err()
        };
        assert_eq!(submit("systematic"), TUNING_NEEDS_NO_STORE);
        // … while the other samplers take it as their CI target, and get
        // as far as the connection.
        for sampler in ["stratified", "adaptive"] {
            let err = submit(sampler);
            assert!(err.contains("cannot connect"), "{sampler}: {err}");
        }
    }

    #[test]
    fn both_doors_give_one_verdict_on_a_job() {
        use smarts_server::{json::Json, proto::parse_request, Request};
        // The CLI reads `value` as a flag, the wire as a JSON number (a
        // NaN travels as `null`); both hold the job to `JobSpec::validate`.
        let doors = |flag: &str, field: &str, value: &str| {
            let cli = parse_options(&strings(&["--bench", "x", flag, value]));
            let number = Json::F64(value.parse().unwrap()).to_line();
            let line = format!(r#"{{"cmd":"submit","bench":"x","{field}":{number}}}"#);
            (cli.map(|options| options.job), parse_request(&line))
        };
        for (flag, field, values) in [
            ("--config", "config", &["12"][..]),
            ("--scale", "scale", &["nan", "-1"]),
            ("--n", "n", &["0"]),
            ("--u", "unit", &["0"]),
            ("--jobs", "jobs", &["0", "257"]),
            ("--strata", "strata", &["0", "5000"]),
            ("--epsilon", "epsilon", &["0", "-1", "nan"]),
            ("--confidence", "confidence", &["0", "1", "1.5"]),
        ] {
            for value in values {
                let (cli, wire) = doors(flag, field, value);
                let cli = cli.unwrap_err();
                assert!(
                    cli.starts_with(&format!("{flag} ")),
                    "{flag} {value}: {cli}"
                );
                let wire = wire.unwrap_err();
                let named = format!("`{field}` ");
                assert!(wire.starts_with(&named), "{field} {value}: {wire}");
            }
        }
        for (flag, field, value) in [
            ("--strata", "strata", "4096"),
            ("--jobs", "jobs", "256"),
            ("--confidence", "confidence", "0.5"),
        ] {
            match doors(flag, field, value) {
                (Ok(cli), Ok(Request::Submit(wire))) => assert_eq!(cli, wire, "{flag} {value}"),
                other => panic!("{flag} {value}: {other:?}"),
            }
        }
    }

    #[test]
    fn no_functional_warming_is_refused_when_saving_checkpoints() {
        let path =
            std::env::temp_dir().join(format!("smarts-cli-no-fw-{}.ckpt", std::process::id()));
        let path_s = path.to_string_lossy().to_string();
        let args = [
            &BUILTIN[..],
            &[
                "--n",
                "8",
                "--no-functional-warming",
                "--save-checkpoints",
                &path_s,
            ],
        ]
        .concat();
        let err = run_sample(&parse_options(&strings(&args)).unwrap())
            .err()
            .unwrap();
        assert_eq!(err, ExecError::NoFunctionalWarming.to_string());
        assert!(!path.exists(), "a refused run writes no store");
    }

    #[test]
    fn pipeline_mode_runs_without_an_explicit_jobs_flag() {
        // A run that keeps its checkpoints goes through the pipeline even
        // at one worker: warming still overlaps the single replayer.
        let path =
            std::env::temp_dir().join(format!("smarts-cli-one-job-{}.ckpt", std::process::id()));
        let path_s = path.to_string_lossy().to_string();
        let run =
            parallel_of(&[&BUILTIN[..], &["--n", "8", "--save-checkpoints", &path_s]].concat());
        assert_eq!((run.mode, run.jobs), (ParallelMode::Pipeline, 1));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn compare_runs_parallel_end_to_end() {
        dispatch(&strings(&[
            "compare", "--bench", "stream-2", "--scale", "0.05", "--n", "6", "--jobs", "2",
        ]))
        .unwrap();
    }

    #[test]
    fn cachesim_and_bpredsim_run_end_to_end() {
        dispatch(&strings(&[
            "cachesim", "--bench", "chase-2", "--scale", "0.02",
        ]))
        .unwrap();
        dispatch(&strings(&[
            "bpredsim",
            "--bench",
            "branchy-1",
            "--scale",
            "0.02",
        ]))
        .unwrap();
    }

    #[test]
    fn ckpt_info_inspects_a_saved_store_and_rejects_bad_usage() {
        let path =
            std::env::temp_dir().join(format!("smarts-cli-ckpt-info-{}.ckpt", std::process::id()));
        let path_s = path.to_string_lossy().to_string();
        dispatch(&strings(&[
            "sample",
            "--bench",
            "loopy-1",
            "--scale",
            "0.02",
            "--n",
            "8",
            "--save-checkpoints",
            &path_s,
        ]))
        .unwrap();
        dispatch(&strings(&["ckpt-info", &path_s])).unwrap();
        std::fs::remove_file(&path).ok();

        let err = dispatch(&strings(&["ckpt-info"])).unwrap_err();
        assert!(err.contains("usage"), "unexpected error: {err}");
        let err = dispatch(&strings(&["ckpt-info", "/nonexistent/store.ckpt"])).unwrap_err();
        assert!(!err.is_empty());
    }

    #[test]
    fn checkpoint_flags_reject_bad_combinations() {
        let err = dispatch(&strings(&[
            "sample",
            "--bench",
            "loopy-1",
            "--epsilon",
            "0.03",
            "--save-checkpoints",
            "ignored.ckpt",
        ]))
        .unwrap_err();
        assert!(err.contains("--epsilon"));
        let err = dispatch(&strings(&[
            "sample",
            "--save-checkpoints",
            "a.ckpt",
            "--from-checkpoints",
            "b.ckpt",
        ]))
        .unwrap_err();
        assert!(err.contains("mutually exclusive"));
        assert!(parse_options(&strings(&["--save-checkpoints"])).is_err());
        assert!(parse_options(&strings(&["--from-checkpoints"])).is_err());
    }

    #[test]
    fn replay_of_a_missing_store_is_a_clean_error() {
        let err = dispatch(&strings(&[
            "sample",
            "--from-checkpoints",
            "/nonexistent/smarts-no-such-store.ckpt",
        ]))
        .unwrap_err();
        assert!(err.contains("checkpoint store"));
    }

    #[test]
    fn unknown_benchmark_is_reported() {
        let err = dispatch(&strings(&["sample", "--bench", "nope-9"])).unwrap_err();
        assert!(err.contains("unknown benchmark"));
    }

    #[test]
    fn parses_sampler_flags_with_defaults_and_rejections() {
        let options = parse_options(&strings(&[
            "--sampler",
            "stratified",
            "--seed",
            "7",
            "--strata",
            "3",
            "--pilot",
            "12",
        ]))
        .unwrap();
        assert_eq!(options.job.sampler, SamplerKind::Stratified);
        assert_eq!(options.job.seed, 7);
        assert_eq!(options.job.strata, 3);
        assert_eq!(options.job.pilot, 12);

        let defaults = parse_options(&[]).unwrap();
        assert_eq!(defaults.job.sampler, SamplerKind::Systematic);
        assert_eq!(defaults.job.seed, 0);
        assert_eq!(defaults.job.strata, 4);
        assert_eq!(defaults.job.pilot, 0);

        assert!(parse_options(&strings(&["--sampler", "magic"]))
            .unwrap_err()
            .contains("unknown sampler"));
        assert!(parse_options(&strings(&["--strata", "0"])).is_err());
        assert!(parse_options(&strings(&["--seed", "x"])).is_err());
        assert!(parse_options(&strings(&["--pilot", "x"])).is_err());
    }

    #[test]
    fn sampled_save_and_from_are_still_mutually_exclusive() {
        let err = dispatch(&strings(&[
            "sample",
            "--sampler",
            "stratified",
            "--save-checkpoints",
            "a.ckpt",
            "--from-checkpoints",
            "b.ckpt",
        ]))
        .unwrap_err();
        assert!(err.contains("mutually exclusive"));
    }

    #[test]
    fn parses_and_validates_frontend_flags() {
        let options = parse_options(&strings(&["--isa", "risc"])).unwrap();
        assert_eq!(options.job.isa, IsaId::Risc);
        let options = parse_options(&strings(&["--trace", "t.smartstr"])).unwrap();
        assert_eq!(options.trace.as_deref(), Some("t.smartstr"));
        assert_eq!(options.job.isa, IsaId::Builtin);
        assert!(parse_options(&strings(&["--isa", "magic"]))
            .unwrap_err()
            .contains("--isa"));

        // --isa trace without a trace file or store is unusable …
        let err = dispatch(&strings(&["sample", "--isa", "trace"])).unwrap_err();
        assert!(err.contains("--trace"), "unexpected error: {err}");
        // … and --trace conflicts with an explicit risc request.
        let err = dispatch(&strings(&[
            "sample",
            "--isa",
            "risc",
            "--trace",
            "t.smartstr",
        ]))
        .unwrap_err();
        assert!(err.contains("trace frontend"), "unexpected error: {err}");
        // Two-step tuning stays built-in-frontend-only.
        let err = dispatch(&strings(&[
            "sample",
            "--isa",
            "risc",
            "--bench",
            "loopy-1",
            "--epsilon",
            "0.05",
        ]))
        .unwrap_err();
        assert!(err.contains("built-in"), "unexpected error: {err}");
        // Trace jobs cannot be submitted — the server has no access to
        // the client's trace file; the refusal happens before any
        // connection attempt.
        let err = dispatch(&strings(&[
            "submit",
            "--bench",
            "x",
            "--trace",
            "t.smartstr",
        ]))
        .unwrap_err();
        assert!(
            err.contains("smarts sample --trace"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn stats_asks_a_running_server_for_its_counters() {
        assert!(usage().contains("\n  stats  "), "usage must list `stats`");
        let dir = std::env::temp_dir().join(format!("smarts-cli-stats-{}", std::process::id()));
        let server = smarts_server::Server::bind(&smarts_server::ServerConfig {
            store_dir: dir.clone(),
            ..Default::default()
        })
        .unwrap();
        let addr = server.local_addr().to_string();
        let stop = server.stop_flag();
        let serving = std::thread::spawn(move || server.serve());
        dispatch(&strings(&["stats", "--addr", &addr])).unwrap();
        stop.store(true, std::sync::atomic::Ordering::SeqCst);
        serving.join().unwrap().unwrap();
        // Nobody listening any more: a named error, not a panic.
        let err = dispatch(&strings(&["stats", "--addr", &addr])).unwrap_err();
        assert!(err.contains("cannot connect"), "unexpected error: {err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Serialises the matrix tests: between them they make every
    /// temporary-store run of this process, so while one holds the lock
    /// a leftover `smarts-sample-<pid>-*.ck` can only be its own.
    static MATRIX: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn temp_stores() -> Vec<std::path::PathBuf> {
        let prefix = format!("smarts-sample-{}-", std::process::id());
        std::fs::read_dir(std::env::temp_dir())
            .unwrap()
            .map(|entry| entry.unwrap().path())
            .filter(|path| {
                let name = path.file_name().unwrap().to_string_lossy();
                name.starts_with(&prefix)
            })
            .collect()
    }

    /// The `smarts sample` matrix — frontend {builtin, risc, trace} ×
    /// sampler {systematic, stratified, adaptive} × source {cold,
    /// `--save-checkpoints`, `--from-checkpoints`} — one frontend row at
    /// a time: for every sampler the three sources print byte-equal
    /// `--json` lines, and no temporary store outlives its run.
    /// `workload` is the frontend's flags for a cold run; a replay names
    /// no frontend, since the store's header does.
    fn check_matrix(workload: &[&str], samplers: &[&str]) {
        let _serial = MATRIX.lock().unwrap_or_else(|p| p.into_inner());
        let line = |args: Vec<&str>| json_of(&args);
        for (row, sampler) in samplers.iter().enumerate() {
            let path = std::env::temp_dir().join(format!(
                "smarts-cli-matrix-{}-{row}.ckpt",
                std::process::id()
            ));
            let path_s = path.to_string_lossy().to_string();
            // Two workers, so every cell runs the threaded pipeline.
            let design = [
                "--n",
                "12",
                "--jobs",
                "2",
                "--sampler",
                sampler,
                "--seed",
                "1",
            ];
            let cold = line([workload, &design].concat());
            let saved = line([workload, &design, &["--save-checkpoints", &path_s]].concat());
            let replayed = line([&design[2..], &["--from-checkpoints", &path_s]].concat());
            assert_eq!(
                saved, cold,
                "{workload:?} {sampler}: saving changed the line"
            );
            assert_eq!(
                replayed, cold,
                "{workload:?} {sampler}: replay changed the line"
            );
            assert_eq!(temp_stores(), Vec::<std::path::PathBuf>::new());
            remove_store(&path);
        }
    }

    /// Removes a store and the outcomes file replays keep beside it.
    fn remove_store(path: &Path) {
        let sim = SmartsSim::new(MachineConfig::eight_way());
        std::fs::remove_file(UnitMemo::file_beside(path, &sim)).ok();
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn a_store_replay_books_the_outcomes_kept_beside_the_store() {
        let path =
            std::env::temp_dir().join(format!("smarts-cli-memo-{}.ckpt", std::process::id()));
        let path_s = path.to_string_lossy().to_string();
        let run = |args: &[&str]| run_sample(&parse_options(&strings(args)).unwrap()).unwrap();
        let design = [&BUILTIN[..], &["--n", "8", "--jobs", "2"]].concat();
        let cold = run(&[&design[..], &["--save-checkpoints", &path_s]].concat()).json_line();
        let units = UnitMemo::file_beside(&path, &SmartsSim::new(MachineConfig::eight_way()));
        let records = MappedStore::open_unchecked(&path).unwrap().len();
        let replay = |sampler: &[&str]| run(&[&["--from-checkpoints", &path_s], sampler].concat());
        let memo_line = |known: usize, written: &str| {
            let file = units.display();
            format!("memo          {known} of {records} units known from {file} ({written})")
        };
        let memoized = |run: &SampleRun| {
            let workers = &run.estimate.report().workers;
            let sum = |f: fn(&WorkerStats) -> u64| workers.iter().map(f).sum::<u64>();
            (sum(|w| w.units), sum(|w| w.memoized))
        };

        let first = replay(&[]);
        assert_eq!(first.json_line(), cold);
        assert!(first.notes.contains(&memo_line(0, "written")));
        assert_eq!(memoized(&first), (records as u64, 0));
        let stratified = ["--sampler", "stratified", "--seed", "4"];
        for sampler in [&[][..], &stratified] {
            let again = replay(sampler);
            assert!(again.notes.contains(&memo_line(records, "unchanged")));
            let (booked, memoized) = memoized(&again);
            assert_eq!(
                booked, memoized,
                "{sampler:?}: every unit booked from the file"
            );
        }
        assert_eq!(replay(&[]).json_line(), cold);

        // A damaged file costs a re-simulation, and is rewritten.
        let mut bytes = std::fs::read(&units).unwrap();
        let middle = bytes.len() / 2;
        bytes[middle] ^= 0x10;
        std::fs::write(&units, bytes).unwrap();
        let damaged = replay(&[]);
        assert_eq!(damaged.json_line(), cold);
        assert!(damaged.notes.contains(&memo_line(0, "written")));
        assert!(replay(&[]).notes.contains(&memo_line(records, "unchanged")));
        dispatch(&strings(&["ckpt-info", &path_s, "--json"])).unwrap();
        remove_store(&path);
    }

    #[test]
    fn save_and_replay_checkpoints_round_trip() {
        // Replay skips warming; the store supplies workload and design,
        // so no --bench is needed.
        check_matrix(&BUILTIN, &["systematic"]);
    }

    #[test]
    fn sampled_strategies_run_cold_and_from_a_saved_store() {
        check_matrix(&BUILTIN, &["stratified", "adaptive"]);
    }

    #[test]
    fn sampled_cold_run_cleans_up_its_temporary_store() {
        // A failed run removes its temporary store too: the first unit
        // of this design starts past the end of the stream, so warming
        // comes back empty-handed after the store was created.
        let _serial = MATRIX.lock().unwrap_or_else(|p| p.into_inner());
        let design = ["--sampler", "adaptive", "--u", "1000000", "--offset", "1"];
        let args = [&BUILTIN[..], &design].concat();
        assert!(run_sample(&parse_options(&strings(&args)).unwrap()).is_err());
        assert_eq!(temp_stores(), Vec::<std::path::PathBuf>::new());
    }

    #[test]
    fn risc_frontend_samples_and_round_trips_a_store() {
        let name = smarts_workloads::risc_suite()[0].name().to_string();
        let workload = ["--isa", "risc", "--bench", &name, "--scale", "0.02"];
        check_matrix(&workload, &["systematic"]);

        // A replay takes the frontend from the store's header: with no
        // --isa it prints the line the writing run printed, and a
        // frontend flag does not apply to it. Inspecting the store needs
        // no frontend either.
        let path =
            std::env::temp_dir().join(format!("smarts-cli-risc-{}.ckpt", std::process::id()));
        let path_s = path.to_string_lossy().to_string();
        let written =
            json_of(&[&workload[..], &["--n", "8", "--save-checkpoints", &path_s]].concat());
        dispatch(&strings(&["ckpt-info", &path_s])).unwrap();
        for frontend in [&[][..], &["--isa", "risc"], &["--isa", "builtin"]] {
            let replayed = json_of(&[frontend, &["--from-checkpoints", &path_s]].concat());
            assert_eq!(replayed, written, "replay with {frontend:?}");
        }
        remove_store(&path);
    }

    #[test]
    fn risc_frontend_runs_the_sampled_strategies() {
        let name = smarts_workloads::risc_suite()[0].name().to_string();
        let workload = ["--isa", "risc", "--bench", &name, "--scale", "0.02"];
        check_matrix(&workload, &["stratified", "adaptive"]);
    }

    #[test]
    fn trace_export_then_sample_round_trips() {
        let path =
            std::env::temp_dir().join(format!("smarts-cli-trace-{}.smartstr", std::process::id()));
        let path_s = path.to_string_lossy().to_string();
        dispatch(&strings(
            &[&["trace-export"], &BUILTIN[..], &["--out", &path_s]].concat(),
        ))
        .unwrap();
        dispatch(&strings(&["sample", "--trace", &path_s, "--n", "8"])).unwrap();
        // The trace frontend flows through stores like any other.
        check_matrix(
            &["--trace", &path_s],
            &["systematic", "stratified", "adaptive"],
        );
        std::fs::remove_file(&path).ok();

        let err = dispatch(&strings(&["trace-export", "--bench", "loopy-1"])).unwrap_err();
        assert!(err.contains("--out"), "unexpected error: {err}");
    }

    #[test]
    fn ckpt_info_json_emits_a_machine_readable_inventory() {
        let path = std::env::temp_dir().join(format!(
            "smarts-cli-ckpt-info-json-{}.ckpt",
            std::process::id()
        ));
        let path_s = path.to_string_lossy().to_string();
        dispatch(&strings(&[
            "sample",
            "--bench",
            "loopy-1",
            "--scale",
            "0.02",
            "--n",
            "8",
            "--save-checkpoints",
            &path_s,
        ]))
        .unwrap();
        // Flag accepted in either position.
        dispatch(&strings(&["ckpt-info", &path_s, "--json"])).unwrap();
        dispatch(&strings(&["ckpt-info", "--json", &path_s])).unwrap();
        std::fs::remove_file(&path).ok();
        let err = dispatch(&strings(&["ckpt-info", "--json"])).unwrap_err();
        assert!(err.contains("usage"));
    }
}
