//! Shared harness of the `repro` binary, which regenerates every table and
//! figure of the SMARTS paper (see DESIGN.md §4 for the full index) with
//! one command-line convention:
//!
//! * `--scale <f>` — multiply every benchmark's dynamic length
//!   (default 1.0, or an experiment's own smaller default).
//! * `--config <8|16|both>` — which Table 3 machine(s) to run.
//! * `--bench <name>` — restrict to one benchmark.
//! * `--quick` — a fast smoke-test preset (small scale, fewer units).
//! * `--extended` — the 28-combination suite instead of the default 18.
//!
//! An experiment prints an [`Output`]: a deterministic block, a function
//! of the simulated machines and seeds alone, and a host block of
//! wall-clock seconds and rates. [`check`] compares only the first.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ci_eff;

use smarts_core::{ReferenceRun, SmartsSim};
use smarts_uarch::MachineConfig;
use smarts_workloads::Benchmark;
use std::collections::HashMap;
use std::sync::Mutex;

/// Which machine configuration(s) an experiment should evaluate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigChoice {
    /// The 8-way baseline only.
    Eight,
    /// The 16-way aggressive machine only.
    Sixteen,
    /// Both Table 3 machines.
    Both,
}

impl ConfigChoice {
    /// The machine configurations selected.
    pub fn configs(&self) -> Vec<MachineConfig> {
        match self {
            ConfigChoice::Eight => vec![MachineConfig::eight_way()],
            ConfigChoice::Sixteen => vec![MachineConfig::sixteen_way()],
            ConfigChoice::Both => {
                vec![MachineConfig::eight_way(), MachineConfig::sixteen_way()]
            }
        }
    }
}

/// Parsed harness arguments (see the crate docs for the flags).
#[derive(Debug, Clone)]
pub struct HarnessArgs {
    /// Benchmark length multiplier.
    pub scale: f64,
    /// Machine selection.
    pub config: ConfigChoice,
    /// Restrict to one benchmark by name.
    pub bench: Option<String>,
    /// Fast smoke-test preset.
    pub quick: bool,
    /// Use the extended (28-combination) suite instead of the default 18.
    pub extended: bool,
}

impl Default for HarnessArgs {
    fn default() -> Self {
        HarnessArgs {
            scale: 1.0,
            config: ConfigChoice::Eight,
            bench: None,
            quick: false,
            extended: false,
        }
    }
}

impl HarnessArgs {
    /// Parses the flags (see the crate docs); the error names the bad one.
    pub fn parse(flags: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut args = HarnessArgs::default();
        let mut iter = flags.into_iter();
        while let Some(arg) = iter.next() {
            match arg.as_str() {
                "--scale" => {
                    args.scale = iter
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or("--scale needs a positive number")?;
                }
                "--config" => {
                    args.config = match iter.next().as_deref() {
                        Some("8") => ConfigChoice::Eight,
                        Some("16") => ConfigChoice::Sixteen,
                        Some("both") => ConfigChoice::Both,
                        _ => return Err("--config takes 8, 16, or both".into()),
                    }
                }
                "--bench" => args.bench = Some(iter.next().ok_or("--bench needs a name")?),
                "--quick" => {
                    args.quick = true;
                    args.scale = args.scale.min(0.1);
                }
                "--extended" => args.extended = true,
                other => return Err(format!("unknown flag {other}")),
            }
        }
        if args.scale <= 0.0 {
            return Err("--scale must be positive".into());
        }
        Ok(args)
    }

    /// The benchmark suite at the requested scale and filter.
    pub fn suite(&self) -> Vec<Benchmark> {
        let base = if self.extended {
            smarts_workloads::extended_suite()
        } else {
            smarts_workloads::suite()
        };
        base.into_iter()
            .map(|b| b.scaled(self.scale))
            .filter(|b| self.bench.as_deref().is_none_or(|name| b.name() == name))
            .collect()
    }
}

/// A process-local cache of full-detail reference runs, so experiments that
/// need the same ground truth for several analyses pay for it once.
#[derive(Debug, Default)]
pub struct RefCache {
    runs: Mutex<HashMap<RefKey, ReferenceRun>>,
}

/// Benchmark name and length (which tells scales apart), machine name,
/// unit size.
type RefKey = (String, u64, &'static str, u64);

impl RefCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        RefCache::default()
    }

    /// The reference run for (benchmark at its scale, machine, unit size),
    /// computed on first use.
    pub fn get(&self, sim: &SmartsSim, bench: &Benchmark, unit_size: u64) -> ReferenceRun {
        let key = (
            bench.name().to_string(),
            bench.approx_len(),
            sim.config().name,
            unit_size,
        );
        if let Some(hit) = self.runs.lock().expect("cache lock").get(&key) {
            return hit.clone();
        }
        let run = sim.reference(bench, unit_size);
        self.runs
            .lock()
            .expect("cache lock")
            .insert(key, run.clone());
        run
    }
}

/// A minimal timing harness for the `harness = false` bench targets.
///
/// The workspace builds offline, so the bench targets cannot pull in
/// criterion; this module covers what they actually need — warmup, a few
/// timed samples, median selection, and optional throughput — with
/// `std::time::Instant`.
pub mod timing {
    use std::time::{Duration, Instant};

    /// Number of timed samples per case (after one warmup run).
    pub const SAMPLES: usize = 7;

    /// Times `f` (one warmup + [`SAMPLES`] timed runs) and returns the
    /// median duration of a single run.
    fn time<R>(mut f: impl FnMut() -> R) -> Duration {
        std::hint::black_box(f());
        let mut samples: Vec<Duration> = (0..SAMPLES)
            .map(|_| {
                let start = Instant::now();
                std::hint::black_box(f());
                start.elapsed()
            })
            .collect();
        samples.sort_unstable();
        samples[SAMPLES / 2]
    }

    /// Times `f` and prints `group/name: <median>` with throughput in
    /// Melem/s when `elements > 0` (an element is typically one simulated
    /// instruction, making the figure MIPS).
    pub fn bench<R>(group: &str, name: &str, elements: u64, f: impl FnMut() -> R) -> Duration {
        let median = time(f);
        let label = format!("{group}/{name}");
        if elements > 0 {
            let rate = elements as f64 / median.as_secs_f64() / 1e6;
            println!("{label:<44} {:>12} {rate:>10.2} Melem/s", pretty(median));
        } else {
            println!("{label:<44} {:>12}", pretty(median));
        }
        median
    }

    /// Formats a duration at a human scale (`1.23 ms`, `45.6 µs`).
    fn pretty(d: Duration) -> String {
        let ns = d.as_nanos() as f64;
        if ns >= 1e9 {
            format!("{:.2} s", ns / 1e9)
        } else if ns >= 1e6 {
            format!("{:.2} ms", ns / 1e6)
        } else if ns >= 1e3 {
            format!("{:.2} µs", ns / 1e3)
        } else {
            format!("{ns:.0} ns")
        }
    }
}

/// Formats a signed percentage with the paper's style (`-1.6%`).
pub fn pct(x: f64) -> String {
    format!("{:+.2}%", x * 100.0)
}

/// Formats an unsigned percentage.
pub fn upct(x: f64) -> String {
    format!("{:.2}%", x * 100.0)
}

/// The line a rendered [`Output`] puts between its two blocks.
pub const HOST_BLOCK: &str = "--- host-dependent (not compared by `repro check`) ---";

/// What one experiment prints, in two blocks.
#[derive(Debug, Default)]
pub struct Output {
    /// Lines that are functions of the simulated machines, workloads and
    /// seeds alone (CPI, error, V̂, interval, n, bias, W, U*, δ): the same
    /// bytes on every host and every run.
    pub det: String,
    /// Lines measured on the host (seconds, MIPS).
    pub host: String,
}

impl Output {
    /// An output whose deterministic block opens with a figure/table banner.
    pub fn new(title: &str, detail: &str) -> Self {
        Output {
            det: format!("=== {title} ===\n{detail}\n\n"),
            host: String::new(),
        }
    }

    /// The deterministic block, then — when there is one — [`HOST_BLOCK`]
    /// and the host block.
    pub fn render(&self) -> String {
        if self.host.is_empty() {
            self.det.clone()
        } else {
            format!("{}{HOST_BLOCK}\n{}", self.det, self.host)
        }
    }
}

/// Compares a fresh deterministic block with the one in `expected`, a
/// rendered [`Output`] (a checked-in results file); host blocks are not
/// compared. The error names the first line that differs.
pub fn check(expected: &str, det: &str) -> Result<(), String> {
    let want = expected
        .split_once(&format!("{HOST_BLOCK}\n"))
        .map_or(expected, |(det, _)| det);
    if want == det {
        return Ok(());
    }
    let mut got = det.lines();
    for (i, w) in want.lines().enumerate() {
        match got.next() {
            Some(g) if g == w => {}
            g => {
                let g = g.unwrap_or("<end>");
                return Err(format!("line {}: expected {w:?}, got {g:?}", i + 1));
            }
        }
    }
    let extra = got.next().unwrap_or("<a different line ending>");
    Err(format!("past the expected end: got {extra:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_compares_the_deterministic_block_only() {
        let mut out = Output::new("Figure 6", "CPI error");
        out.det.push_str("phased-1      50.213      -0.12%\n");
        out.host
            .push_str("mean runtime per benchmark: SMARTS 0.85s\n");
        let file = out.render();
        assert_eq!(check(&file, &out.det), Ok(()));
        // A host value moves from run to run: never a failure.
        let host_moved = file.replace("0.85s", "0.91s");
        assert_eq!(check(&host_moved, &out.det), Ok(()));
        // A deterministic value that moves is.
        let det_moved = file.replace("-0.12%", "-0.13%");
        let err = check(&det_moved, &out.det).unwrap_err();
        assert!(err.starts_with("line 4:"), "{err}");
        // So is a deterministic line that appears or disappears.
        assert!(check(&file, &format!("{}extra\n", out.det)).is_err());
        assert!(check(&file, "=== Figure 6 ===\n").is_err());
    }

    #[test]
    fn config_choice_expands() {
        assert_eq!(ConfigChoice::Eight.configs().len(), 1);
        assert_eq!(ConfigChoice::Both.configs().len(), 2);
        assert_eq!(ConfigChoice::Both.configs()[1].name, "16-way");
    }

    #[test]
    fn suite_filter_applies() {
        let args = HarnessArgs {
            bench: Some("loopy-1".to_string()),
            scale: 0.5,
            ..HarnessArgs::default()
        };
        let suite = args.suite();
        assert_eq!(suite.len(), 1);
        assert_eq!(suite[0].name(), "loopy-1");
    }

    #[test]
    fn ref_cache_returns_identical_runs() {
        let cache = RefCache::new();
        let sim = SmartsSim::new(MachineConfig::eight_way());
        let bench = smarts_workloads::find("loopy-1").unwrap().scaled(0.01);
        let a = cache.get(&sim, &bench, 1000);
        let b = cache.get(&sim, &bench, 1000);
        assert_eq!(a.cycles, b.cycles);
        // The same benchmark at another scale is another run.
        let longer = bench.scaled(2.0);
        let c = cache.get(&sim, &longer, 1000);
        assert_eq!(c.instructions, sim.reference(&longer, 1000).instructions);
        assert_ne!(a.instructions, c.instructions);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(pct(-0.016), "-1.60%");
        assert_eq!(upct(0.5), "50.00%");
    }
}
