//! Shared harness of the `repro` binary, which regenerates every table and
//! figure of the SMARTS paper (see DESIGN.md §4 for the full index) with
//! one command-line convention:
//!
//! * `--scale <f>` — multiply every benchmark's dynamic length
//!   (default 1.0, or an experiment's own smaller default).
//! * `--config <8|16|both>` — which Table 3 machine(s) to run.
//! * `--bench <name>` — restrict to one benchmark.
//! * `--quick` — a fast smoke-test preset (fewer units, and a scale of
//!   at most 0.1 wherever the flag stands).
//! * `--extended` — the 28-combination suite instead of the default 18.
//!
//! An experiment prints an [`Output`]: a deterministic block, a function
//! of the simulated machines and seeds alone, and a host block of
//! wall-clock seconds and rates. [`check`] compares only the first.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod census;
pub mod ci_eff;

pub use census::Census;
use smarts_core::{ReferenceRun, SmartsSim};
use smarts_uarch::MachineConfig;
use smarts_workloads::Benchmark;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, Mutex};

/// Which machine configuration(s) an experiment should evaluate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ConfigChoice {
    /// The 8-way baseline only.
    #[default]
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
#[derive(Debug, Clone, Default)]
pub struct HarnessArgs {
    /// Benchmark length multiplier; `None` leaves it to the experiment
    /// (see [`HarnessArgs::scale`]).
    pub scale: Option<f64>,
    /// Machine selection.
    pub config: ConfigChoice,
    /// Restrict to one benchmark by name.
    pub bench: Option<String>,
    /// Fast smoke-test preset.
    pub quick: bool,
    /// Use the extended (28-combination) suite instead of the default 18.
    pub extended: bool,
}

impl HarnessArgs {
    /// Parses the flags (see the crate docs); the error names the bad one.
    pub fn parse(flags: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut args = HarnessArgs::default();
        let mut iter = flags.into_iter();
        while let Some(arg) = iter.next() {
            match arg.as_str() {
                "--scale" => {
                    let scale = iter.next().and_then(|v| v.parse().ok());
                    args.scale = Some(scale.ok_or("--scale needs a positive number")?);
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
                "--quick" => args.quick = true,
                "--extended" => args.extended = true,
                other => return Err(format!("unknown flag {other}")),
            }
        }
        if args.scale.is_some_and(|s| !(s.is_finite() && s > 0.0)) {
            return Err("--scale must be finite and positive".into());
        }
        if args.quick {
            args.scale = Some(args.scale.map_or(0.1, |s| s.min(0.1)));
        }
        Ok(args)
    }

    /// The benchmark length multiplier: the one given, else 1.0.
    pub fn scale(&self) -> f64 {
        self.scale.unwrap_or(1.0)
    }

    /// The benchmark suite at the requested scale and filter.
    pub fn suite(&self) -> Vec<Benchmark> {
        let base = if self.extended {
            smarts_workloads::extended_suite()
        } else {
            smarts_workloads::suite()
        };
        base.into_iter()
            .map(|b| b.scaled(self.scale()))
            .filter(|b| self.bench.as_deref().is_none_or(|name| b.name() == name))
            .collect()
    }
}

/// A process-local cache of full-detail reference runs and of
/// [`Census`]es, so experiments that need the same ground truth or the
/// same units for several analyses pay for them once.
#[derive(Debug, Default)]
pub struct RefCache {
    runs: Mutex<HashMap<RefKey, ReferenceRun>>,
    censuses: Mutex<HashMap<(RefKey, u64), Arc<Census>>>,
}

/// Benchmark name and length (which tells scales apart), machine name,
/// unit size.
type RefKey = (String, u64, &'static str, u64);

fn ref_key(sim: &SmartsSim, bench: &Benchmark, unit_size: u64) -> RefKey {
    (
        bench.name().to_string(),
        bench.approx_len(),
        sim.config().name,
        unit_size,
    )
}

/// `map[key]`, made by `new` on first use (with the lock released).
fn memo<K: Eq + Hash, V: Clone>(map: &Mutex<HashMap<K, V>>, key: K, new: impl FnOnce() -> V) -> V {
    if let Some(hit) = map.lock().expect("cache lock").get(&key) {
        return hit.clone();
    }
    let value = new();
    map.lock().expect("cache lock").insert(key, value.clone());
    value
}

impl RefCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        RefCache::default()
    }

    /// The reference run for (benchmark at its scale, machine, unit size),
    /// computed on first use.
    pub fn get(&self, sim: &SmartsSim, bench: &Benchmark, unit_size: u64) -> ReferenceRun {
        let key = ref_key(sim, bench, unit_size);
        memo(&self.runs, key, || sim.reference(bench, unit_size))
    }

    /// The census of (benchmark at its scale, machine, unit size `u`) at
    /// detailed warming `w`, computed on first use.
    pub fn census(&self, sim: &SmartsSim, bench: &Benchmark, u: u64, w: u64) -> Arc<Census> {
        memo(&self.censuses, (ref_key(sim, bench, u), w), || {
            Arc::new(Census::new(sim, bench, &self.get(sim, bench, u), w))
        })
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
    fn a_scale_that_is_not_finite_and_positive_is_refused() {
        let parse = |scale: &str| HarnessArgs::parse(["--scale".into(), scale.to_string()]);
        for scale in ["nan", "inf", "-inf", "0", "-1", "x"] {
            assert!(parse(scale).unwrap_err().contains("--scale"), "{scale}");
        }
        assert_eq!(parse("0.5").unwrap().scale, Some(0.5));
        let jobs = HarnessArgs::parse(["--jobs".into(), "257".into()]);
        assert_eq!(jobs.unwrap_err(), "unknown flag --jobs");
        // `--quick` caps the scale wherever it stands; an explicit 1 is
        // given, not the experiment's default.
        let scale = |flags: &[&str]| HarnessArgs::parse(flags.iter().map(|f| f.to_string()));
        for (flags, want) in [
            (&["--quick", "--scale", "0.5"][..], Some(0.1)),
            (&["--scale", "0.5", "--quick"], Some(0.1)),
            (&["--scale", "0.05", "--quick"], Some(0.05)),
            (&["--quick"], Some(0.1)),
            (&["--scale", "1"], Some(1.0)),
            (&[], None),
        ] {
            assert_eq!(scale(flags).unwrap().scale, want, "{flags:?}");
        }
        assert!(scale(&["--scale", "nan", "--quick"]).is_err());
    }

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
            scale: Some(0.5),
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
