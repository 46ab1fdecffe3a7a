//! Soak a running `smarts-server`: serve many jobs over one connection
//! and check that the server's peak resident memory stays flat.
//!
//! ```text
//! cargo run --release -p smarts-server --example soak -- \
//!     --addr 127.0.0.1:PORT --pid PID [--jobs 20000] [--distinct 200] \
//!     [--max-growth-kib KIB]
//! ```
//!
//! Every job is `hashp-2` at scale 0.1, n = 20, stratified over one store:
//! `--distinct` jobs draw a fresh sampler seed (store hits, soon served
//! from the store's unit memo) and every other job repeats the newest of
//! them (results-cache hits). The server's `VmHWM` — read from
//! `/proc/PID/status` — is printed after 10% and after 100% of the jobs;
//! with `--max-growth-kib`, the run fails when it grew by more than that
//! in between. Any job that does not come back `done` with a report fails
//! the run as well.

use std::process::ExitCode;

use smarts_core::SamplerKind;
use smarts_server::json::Json;
use smarts_server::{Client, JobSpec};

struct Args {
    addr: String,
    pid: Option<u32>,
    jobs: u64,
    distinct: u64,
    max_growth_kib: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: String::new(),
        pid: None,
        jobs: 20_000,
        distinct: 200,
        max_growth_kib: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let number = |text: String| text.parse::<u64>().map_err(|e| format!("{flag}: {e}"));
        match flag.as_str() {
            "--addr" => args.addr = value()?,
            "--pid" => args.pid = Some(number(value()?)? as u32),
            "--jobs" => args.jobs = number(value()?)?,
            "--distinct" => args.distinct = number(value()?)?,
            "--max-growth-kib" => args.max_growth_kib = Some(number(value()?)?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.addr.is_empty() || args.distinct == 0 || args.jobs < args.distinct {
        return Err("needs --addr, and --jobs ≥ --distinct ≥ 1".to_string());
    }
    Ok(args)
}

/// The server's peak resident set so far, in KiB.
fn vm_hwm_kib(pid: u32) -> Result<u64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|kib| kib.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or(format!("{path} has no VmHWM line"))
}

/// Submits one job and waits for its report: its result source.
fn serve_one(client: &mut Client, spec: &JobSpec) -> Result<String, String> {
    let id = client.submit(spec)?;
    let end = client.watch(&id, |_| {})?;
    let state = end.get("state").and_then(Json::as_str);
    if state != Some("done") {
        return Err(format!("job {id} ended {state:?}"));
    }
    let (source, report) = client.result(&id)?;
    if report.is_empty() {
        return Err(format!("job {id} returned an empty report"));
    }
    Ok(source)
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let mut client = Client::connect(&args.addr)?;
    let mut spec = JobSpec {
        bench: "hashp-2".to_string(),
        scale: 0.1,
        n: 20,
        sampler: SamplerKind::Stratified,
        ..JobSpec::default()
    };
    let every = args.jobs / args.distinct;
    let early = args.jobs / 10;
    let mut hwm_early = None;
    let mut sources = std::collections::BTreeMap::<String, u64>::new();
    for k in 0..args.jobs {
        if k % every == 0 && k / every < args.distinct {
            spec.seed = k / every + 1;
        }
        *sources.entry(serve_one(&mut client, &spec)?).or_default() += 1;
        if k + 1 == early {
            hwm_early = args.pid.map(vm_hwm_kib).transpose()?;
        }
    }
    println!("served {} jobs by source: {sources:?}", args.jobs);
    let (Some(pid), Some(early_kib)) = (args.pid, hwm_early) else {
        return Ok(());
    };
    let last_kib = vm_hwm_kib(pid)?;
    let growth = last_kib.saturating_sub(early_kib);
    println!(
        "server VmHWM {early_kib} KiB after {early} jobs, {last_kib} KiB after {}: +{growth} KiB",
        args.jobs
    );
    match args.max_growth_kib {
        Some(bound) if growth > bound => Err(format!("VmHWM grew {growth} KiB > {bound} KiB")),
        _ => Ok(()),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("soak: {message}");
            ExitCode::FAILURE
        }
    }
}
