//! `repro`: regenerates every table and figure of the SMARTS paper, and
//! the experiments beyond it (DESIGN.md §4 indexes them, EXPERIMENTS.md
//! records the results). Run from the repository root:
//!
//! ```text
//! repro <experiment> [flags]   print one experiment
//! repro all [flags]            write every experiment to results/<exp>.txt,
//!                              or to results/quick/<exp>.txt under --quick
//! repro check [flags]          rerun every experiment at --quick and fail
//!                              unless its deterministic block equals the one
//!                              in results/quick/<exp>.txt
//! ```
//!
//! Flags are those of [`HarnessArgs`]. One process shares one
//! [`RefCache`], so `all` and `check` simulate each full-detail reference
//! once, not once per experiment.

mod beyond;
mod paper;

use smarts_bench::{HarnessArgs, Output, RefCache};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// What an experiment returns; formatting into a `String` cannot fail.
type Result = std::result::Result<Output, std::fmt::Error>;

/// An experiment's name, its function, and the scale it runs at unless
/// `--scale` or `--quick` picks one.
type Experiment = (&'static str, fn(&HarnessArgs, &RefCache) -> Result, f64);

/// Where `all` writes and `check` reads, relative to the working
/// directory.
const RESULTS: &str = "results";

/// Every experiment, in the order `all` and `check` run them. Two run at
/// half scale: `table4`'s sweep of 5 W values × 3 phases, and `ci_eff`,
/// whose census pools then sit in the 600–2,500 unit range the samplers
/// were designed for.
const EXPERIMENTS: &[Experiment] = &[
    ("table3", paper::table3, 1.0),
    ("fig2", paper::fig2, 1.0),
    ("fig3", paper::fig3, 1.0),
    ("fig4", paper::fig4, 1.0),
    ("fig5", paper::fig5, 1.0),
    ("table4", paper::table4, 0.5),
    ("table5", paper::table5, 1.0),
    ("fig6", paper::fig6, 1.0),
    ("fig7", paper::fig7, 1.0),
    ("table6", paper::table6, 1.0),
    ("fig8", paper::fig8, 1.0),
    ("ablation", beyond::ablation, 1.0),
    ("ci_eff", beyond::ci_eff, 0.5),
];

fn main() {
    let mut argv = std::env::args().skip(1);
    let target = argv.next().unwrap_or_default();
    // `check` is defined at the `--quick` preset, whatever else is given.
    let quick = (target == "check").then(|| "--quick".to_string());
    let args = HarnessArgs::parse(argv.chain(quick)).unwrap_or_else(|e| usage(&e));
    let cache = RefCache::new();
    match target.as_str() {
        "all" | "check" => {
            let mut dir = PathBuf::from(RESULTS);
            if args.quick {
                dir.push("quick");
            }
            let failed = if target == "all" {
                regenerate(&args, &cache, &dir)
            } else {
                check_all(&args, &cache, &dir)
            };
            if failed > 0 {
                std::process::exit(1);
            }
        }
        name => match EXPERIMENTS.iter().find(|exp| exp.0 == name) {
            Some(exp) => print!("{}", run(exp, &args, &cache).render()),
            None => usage(&format!("unknown experiment {name:?}")),
        },
    }
}

fn run(&(_, exp, scale): &Experiment, args: &HarnessArgs, cache: &RefCache) -> Output {
    let mut args = args.clone();
    args.scale.get_or_insert(scale);
    exp(&args, cache).expect("formatting into a String cannot fail")
}

/// Writes every experiment's rendered output into `dir`; returns the
/// number of files that could not be written.
fn regenerate(args: &HarnessArgs, cache: &RefCache, dir: &Path) -> usize {
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("cannot create {}: {e}", dir.display());
        return EXPERIMENTS.len();
    }
    let mut failed = 0;
    for exp @ &(name, ..) in EXPERIMENTS {
        let start = Instant::now();
        let path = dir.join(format!("{name}.txt"));
        match std::fs::write(&path, run(exp, args, cache).render()) {
            Ok(()) => println!("wrote {} ({:.1} s)", path.display(), secs(start)),
            Err(e) => {
                eprintln!("cannot write {}: {e}", path.display());
                failed += 1;
            }
        }
    }
    failed
}

/// Reruns every experiment and compares its deterministic block with the
/// checked-in `dir/<exp>.txt`; returns the number that differ.
fn check_all(args: &HarnessArgs, cache: &RefCache, dir: &Path) -> usize {
    let mut failed = 0;
    for exp @ &(name, ..) in EXPERIMENTS {
        let start = Instant::now();
        let path = dir.join(format!("{name}.txt"));
        let fresh = run(exp, args, cache);
        let verdict = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))
            .and_then(|expected| smarts_bench::check(&expected, &fresh.det));
        match verdict {
            Ok(()) => println!("ok    {name} ({:.1} s)", secs(start)),
            Err(e) => {
                println!("FAIL  {name}: {e}");
                failed += 1;
            }
        }
    }
    if failed > 0 {
        eprintln!(
            "{failed} experiment(s) differ from {}; a change meant to move them \
             regenerates the files with `repro all --quick`",
            dir.display()
        );
    }
    failed
}

fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

fn usage(msg: &str) -> ! {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|exp| exp.0).collect();
    eprintln!(
        "{msg}\n\nusage: repro <{}|all|check> [--scale <f>] [--config 8|16|both] \
         [--bench <name>] [--quick] [--extended]",
        names.join("|")
    );
    std::process::exit(2)
}
