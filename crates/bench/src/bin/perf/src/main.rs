//! `perf` — the repo's one benchmark.
//!
//! Four sampled-simulation workloads, measured end to end through the
//! user-facing binaries (`smarts` as a child process, `smarts-server`
//! over loopback) and, in a separate traced run, layer by layer through
//! a staged in-process pass. Run it through `run.sh`, which builds the
//! three binaries first. `README.md` beside this package defines every
//! workload and metric.
//!
//! ```text
//! run.sh --workload <name> --seed <u64> --seconds <n> --trace <0|1>
//!         one run; the last line of stdout is the result as JSON
//! run.sh [--seed <u64>]
//!         every workload untraced, then traced; prints every metric
//! run.sh --smoke            2 rounds per workload, one traced run each
//! run.sh --check-repeat     the full set twice; compares the two
//! ```
//!
//! One rule says how long a measured phase lasts: `--seconds`, which
//! only a one-workload run takes, else the workload's frozen op count
//! (`--smoke`: 2 ops).

mod emit;
mod layers;
mod proc;
mod schedule;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;

use emit::{quote, Metric};
use workloads::{Budget, Ctx, Outcome, END_TO_END, WORKLOADS};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Metrics `--check-repeat` requires to repeat bit for bit: the two
/// end-to-end accuracy metrics, and per-layer simulated statistics and
/// counts.
const EXACT: [&str; 12] = [
    "cpi_err_pct",
    "ci_halfwidth_pct",
    "stats.cpi_err_pct",
    "stats.ci_halfwidth_pct",
    "stats.units_measured",
    "uarch.sim_cycles",
    "uarch.detail_instr",
    "ckpt.store_bytes",
    "server.warm_passes",
    "server.store_hits",
    "server.cache_hits",
    "server.stores_opened",
];

#[derive(Debug, PartialEq)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    check_repeat: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        smoke: false,
        check_repeat: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        let bad = |what: &str| format!("{flag} takes {what}");
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !WORKLOADS.iter().any(|(known, _, _)| *known == name) {
                    let known: Vec<&str> = WORKLOADS.iter().map(|(n, _, _)| *n).collect();
                    return Err(format!(
                        "unknown workload `{name}` (one of {})",
                        known.join(", ")
                    ));
                }
                args.workload = Some(name.to_string());
            }
            "--seed" => args.seed = value()?.parse().map_err(|_| bad("a u64"))?,
            "--seconds" => {
                let seconds: f64 = value()?.parse().map_err(|_| bad("a number of seconds"))?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err(bad("a number of seconds in (0, 3600]"));
                }
                args.seconds = Some(seconds);
            }
            "--trace" => {
                args.trace = match value()? {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--smoke" => args.smoke = true,
            "--check-repeat" => args.check_repeat = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.check_repeat && args.workload.is_some() {
        return Err("--check-repeat runs every workload; it takes no --workload".to_string());
    }
    if args.seconds.is_some() && (args.workload.is_none() || args.smoke) {
        return Err(
            "--seconds times one run (--workload <name>); the full set, --smoke and \
             --check-repeat run fixed op counts, so that counts repeat exactly"
                .to_string(),
        );
    }
    Ok(args)
}

/// Binaries, scratch space and the host facts recorded with every
/// output: seed, git commit, `nproc`, CPU model and rustc version.
fn context(seed: u64) -> Result<Ctx, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate perf: {e}"))?;
    let bin_dir = exe.parent().ok_or("perf has no parent directory")?;
    let binary = |name: &str| {
        let path = bin_dir.join(name);
        if path.is_file() {
            Ok(path)
        } else {
            Err(format!(
                "{} is missing: run perf through run.sh, which builds it",
                path.display()
            ))
        }
    };
    let out_dir = bin_dir.parent().unwrap_or(bin_dir).join("perf");
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|line| line.starts_with("model name"))
                .and_then(|line| line.split(':').nth(1))
                .map(|model| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Ok(Ctx {
        smarts: binary("smarts")?,
        server: binary("smarts-server")?,
        scratch: proc::Scratch::create(&out_dir)?,
        out_dir,
        seed,
        host: vec![
            ("seed", seed.to_string()),
            (
                "commit",
                quote(&proc::first_line_of(
                    "git",
                    &["rev-parse", "--short", "HEAD"],
                )),
            ),
            ("nproc", nproc.to_string()),
            ("cpu", quote(&cpu)),
            (
                "rustc",
                quote(&proc::first_line_of("rustc", &["--version"])),
            ),
        ],
    })
}

fn print_metrics(workload: &str, host: &str, metrics: &[Metric]) {
    for metric in metrics {
        println!(
            "{workload:<16} {:<32} {:>18} {:<6} {host}",
            metric.name,
            emit::number(metric.value),
            metric.unit
        );
    }
}

fn host_row(ctx: &Ctx) -> String {
    let fields: Vec<String> = ctx.host.iter().map(|(k, v)| format!("{k}={v}")).collect();
    format!("# {}", fields.join(" "))
}

/// How long the measured phase of workload `name` lasts.
fn budget(args: &Args, name: &str) -> Budget {
    let frozen = WORKLOADS
        .iter()
        .find(|(known, _, _)| *known == name)
        .map(|(_, _, frozen)| *frozen)
        .expect("parse_args refuses an unknown workload");
    match (args.smoke, args.seconds) {
        (true, _) => Budget::Rounds(2),
        (_, Some(seconds)) => Budget::Seconds(seconds),
        _ => Budget::Rounds(frozen),
    }
}

/// Each workload's outcome, in `WORKLOADS` order.
type SetOutcomes = Vec<(&'static str, Outcome)>;

/// One full set: every workload untraced, then traced (smoke: one
/// traced run each). Returns whether every output was correct, every
/// trace valid and every workload sized as it claims.
fn run_set(ctx: &Ctx, args: &Args) -> Result<(bool, SetOutcomes), String> {
    let host = host_row(ctx);
    let mut ok = true;
    let mut outcomes = Vec::new();
    for (name, _, _) in &WORKLOADS {
        let budget = budget(args, name);
        let traced = if args.smoke {
            workloads::run(name, ctx, budget, true, 1)?
        } else {
            let untraced = workloads::run(name, ctx, budget, false, SETUPS)?;
            let mut traced = workloads::run(name, ctx, budget, true, 1)?;
            ok &= untraced.correct;
            traced.end_to_end = untraced.end_to_end;
            traced
        };
        for note in &traced.notes {
            println!("{note}");
        }
        print_metrics(name, &host, &traced.end_to_end);
        print_metrics(name, &host, &traced.per_layer);
        if !traced.correct {
            println!(
                "FAIL {name}: {} of {} jobs failed",
                traced.failed, traced.attempted
            );
        }
        ok &= traced.correct && traced.valid && traced.sized;
        outcomes.push((*name, traced));
    }
    Ok((ok, outcomes))
}

/// `--check-repeat`: two sets on the same build and seed. End-to-end
/// metrics must agree within their bounds; simulated statistics and
/// exact counts must agree bit for bit.
fn check_repeat(ctx: &Ctx, args: &Args) -> Result<bool, String> {
    let (first_ok, first) = run_set(ctx, args)?;
    let (second_ok, second) = run_set(ctx, args)?;
    let mut ok = first_ok && second_ok;
    println!("# repeat check: workload metric first second relative-difference bound verdict");
    for ((name, a), (_, b)) in first.iter().zip(&second) {
        let xs = a.end_to_end.iter().chain(&a.per_layer);
        let ys = b.end_to_end.iter().chain(&b.per_layer);
        for (x, y) in xs.zip(ys) {
            let bound = END_TO_END
                .iter()
                .find(|(metric, _, _)| *metric == x.name)
                .map(|(_, _, bound)| *bound);
            let (diff, limit, pass) = if EXACT.contains(&x.name.as_str()) {
                let pass = x.value.to_bits() == y.value.to_bits();
                ("-".to_string(), "exact".to_string(), pass)
            } else if let Some(bound) = bound {
                let diff = (y.value - x.value).abs() / x.value.abs().max(f64::MIN_POSITIVE);
                (format!("{diff:.4}"), format!("{bound:.2}"), diff <= bound)
            } else {
                continue;
            };
            ok &= pass;
            println!(
                "{name:<16} {:<24} {:>20} {:>20} {diff:>8} {limit:>6} {}",
                x.name,
                emit::number(x.value),
                emit::number(y.value),
                if pass { "pass" } else { "FAIL" }
            );
        }
    }
    Ok(ok)
}

fn real_main() -> Result<bool, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv)?;
    let ctx = context(args.seed)?;
    println!("{}", host_row(&ctx));

    if args.check_repeat {
        return check_repeat(&ctx, &args);
    }
    let Some(workload) = &args.workload else {
        return run_set(&ctx, &args).map(|(ok, _)| ok);
    };

    // One run, as the driver asks for it.
    let budget = budget(&args, workload);
    let setups = if args.trace || args.smoke { 1 } else { SETUPS };
    let outcome = workloads::run(workload, &ctx, budget, args.trace, setups)?;
    for note in &outcome.notes {
        println!("{note}");
    }
    let result = outcome.result(args.trace);
    print_metrics(workload, "", &result.metrics);
    // Remove the scratch directory before the result is printed: the
    // result is the last thing this process does.
    drop(ctx);
    println!("{}", result.to_json_line());
    Ok(outcome.correct && outcome.valid)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!(
                "perf: an output mismatch, a failed job or an invalid trace (see FAIL lines)"
            );
            ExitCode::FAILURE
        }
        Err(message) => {
            eprintln!("perf: {message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(text: &str) -> Vec<String> {
        text.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn the_driver_invocation_parses() {
        let args = parse_args(&argv(
            "--workload store_sweep --seed 42 --seconds 15 --trace 1",
        ))
        .unwrap();
        assert_eq!(args.workload.as_deref(), Some("store_sweep"));
        assert_eq!(
            (args.seed, args.seconds, args.trace),
            (42, Some(15.0), true)
        );
        assert!(!args.smoke && !args.check_repeat);
    }

    #[test]
    fn bad_arguments_are_refused() {
        for bad in [
            "--workload nope",
            "--seed -1",
            "--seconds 0",
            "--seconds x",
            "--rounds 5",
            "--seed 1 --seconds 5",
            "--smoke --workload cold_sample --seconds 5",
            "--check-repeat --seconds 5",
            "--check-repeat --workload cold_sample",
            "--trace 2",
            "--workload",
            "--frobnicate",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad} should be refused");
        }
    }

    /// `BENCHMARK.json` is written by hand; the tables in the code are
    /// what the benchmark prints. They must name the same things.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let text = include_str!("../../../../../../BENCHMARK.json");
        let json = smarts_server::json::parse(text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String)> {
            json.get(key)
                .and_then(|v| v.as_arr())
                .expect("array")
                .iter()
                .map(|entry| {
                    let field = |f: &str| {
                        entry
                            .get(f)
                            .and_then(|v| v.as_str())
                            .unwrap_or("")
                            .to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
        let expected: Vec<&str> = WORKLOADS.iter().map(|(n, _, _)| *n).collect();
        assert_eq!(workloads, expected);
        // Each `why` is the table's, and carries the frozen op count.
        for (entry, (_, why, frozen)) in json
            .get("workloads")
            .and_then(|v| v.as_arr())
            .unwrap()
            .iter()
            .zip(WORKLOADS)
        {
            assert_eq!(entry.get("why").and_then(|v| v.as_str()), Some(why));
            assert!(why.contains(&format!("(full set: {frozen} ")), "{why}");
        }
        let end_to_end: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u, _)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(names("end_to_end"), end_to_end);
        for (entry, (_, _, bound)) in json
            .get("end_to_end")
            .and_then(|v| v.as_arr())
            .unwrap()
            .iter()
            .zip(END_TO_END)
        {
            assert_eq!(entry.get("bound").and_then(|v| v.as_f64()), Some(bound));
        }
        let per_layer: Vec<(String, String)> = workloads::PER_LAYER
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(names("per_layer"), per_layer);
        for name in EXACT {
            assert!(
                end_to_end.iter().chain(&per_layer).any(|(n, _)| n == name),
                "{name} is not a metric"
            );
        }
    }
}
