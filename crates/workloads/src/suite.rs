//! The benchmark suite: named kernel/input combinations standing in for
//! the paper's 41 SPEC2K benchmark/input pairs.

use crate::frontend::LoadedBenchmark;
use crate::kernels;
use std::fmt;

/// Kernel selection plus all of its input parameters.
///
/// Each variant corresponds to one kernel module in [`crate::kernels`];
/// the fields are the knobs the suite varies across "inputs".
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(missing_docs)] // parameter names match the kernel builders
pub enum Spec {
    Stream {
        n: usize,
        reps: u64,
        seed: u64,
    },
    Mtx {
        n: usize,
        reps: u64,
        seed: u64,
    },
    Chase {
        nodes: usize,
        steps: u64,
        seed: u64,
    },
    HashProbe {
        table_words: usize,
        ops: u64,
        seed: u64,
    },
    Branchy {
        iters: u64,
        seed: u64,
    },
    SortK {
        n: usize,
        passes: u64,
        reps: u64,
        seed: u64,
        presorted: bool,
    },
    FpChain {
        iters: u64,
    },
    Phased {
        small: usize,
        large: usize,
        steps_per_phase: u64,
        phases: u64,
        seed: u64,
    },
    Loopy {
        iters: u64,
    },
    Mixed {
        iters: u64,
        seed: u64,
    },
    Rle {
        n: usize,
        reps: u64,
        mean_run_len: usize,
        seed: u64,
    },
    NBody {
        n: usize,
        steps: u64,
        seed: u64,
    },
}

/// A named, loadable benchmark: the unit the SMARTS driver and all
/// experiment binaries operate on.
///
/// # Examples
///
/// ```
/// use smarts_workloads::suite;
///
/// let bench = &suite()[0];
/// let loaded = bench.load();
/// assert!(loaded.program.len() > 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Benchmark {
    name: String,
    spec: Spec,
}

impl Benchmark {
    /// Creates a benchmark from a name and spec.
    pub fn new(name: impl Into<String>, spec: Spec) -> Self {
        Benchmark {
            name: name.into(),
            spec,
        }
    }

    /// The benchmark's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The benchmark's kernel/input specification.
    pub fn spec(&self) -> &Spec {
        &self.spec
    }

    /// Approximate dynamic instruction count (from the kernel length
    /// models; within a few percent of the true count).
    pub fn approx_len(&self) -> u64 {
        match &self.spec {
            Spec::Stream { n, reps, .. } => reps * (10 * *n as u64 + 6),
            Spec::Mtx { n, reps, .. } => {
                let n = *n as u64;
                reps * (8 * n * n * n + 13 * n * n + 6 * n + 2)
            }
            Spec::Chase { steps, .. } => 3 * steps,
            Spec::HashProbe { ops, .. } => 13 * ops,
            Spec::Branchy { iters, .. } => 19 * iters,
            Spec::SortK {
                n,
                passes,
                reps,
                presorted,
                ..
            } => {
                // Scramble: 6 (presorted) or 9 (LCG) instructions/element;
                // compare body: 6 without a swap, 8 with one (~half early on).
                let scramble = if *presorted { 6 } else { 9 } * *n as u64;
                let per_compare = if *presorted { 6 } else { 7 };
                reps * (scramble + passes * per_compare * (*n as u64 - 1))
            }
            Spec::FpChain { iters } => 5 * iters,
            Spec::Phased {
                steps_per_phase,
                phases,
                ..
            } => phases * (3 * steps_per_phase + 7),
            Spec::Loopy { iters } => 6 * iters,
            Spec::Mixed { iters, .. } => 490 * iters,
            Spec::Rle { n, reps, .. } => reps * 8 * *n as u64,
            Spec::NBody { n, steps, .. } => steps * 14 * (*n as u64) * (*n as u64),
        }
    }

    /// Returns a copy with the benchmark's repetition knob multiplied by
    /// `factor` (clamped to at least one unit of work), leaving data-set
    /// sizes unchanged.
    ///
    /// # Panics
    ///
    /// When `factor` is not finite and positive: callers that take a
    /// scale from a user refuse such a value first.
    pub fn scaled(&self, factor: f64) -> Benchmark {
        assert!(
            factor.is_finite() && factor > 0.0,
            "scale factor must be finite and positive"
        );
        let mul = |x: u64| ((x as f64 * factor).round() as u64).max(1);
        let spec = match self.spec.clone() {
            Spec::Stream { n, reps, seed } => Spec::Stream {
                n,
                reps: mul(reps),
                seed,
            },
            Spec::Mtx { n, reps, seed } => Spec::Mtx {
                n,
                reps: mul(reps),
                seed,
            },
            Spec::Chase { nodes, steps, seed } => Spec::Chase {
                nodes,
                steps: mul(steps),
                seed,
            },
            Spec::HashProbe {
                table_words,
                ops,
                seed,
            } => Spec::HashProbe {
                table_words,
                ops: mul(ops),
                seed,
            },
            Spec::Branchy { iters, seed } => Spec::Branchy {
                iters: mul(iters),
                seed,
            },
            Spec::SortK {
                n,
                passes,
                reps,
                seed,
                presorted,
            } => Spec::SortK {
                n,
                passes,
                reps: mul(reps),
                seed,
                presorted,
            },
            Spec::FpChain { iters } => Spec::FpChain { iters: mul(iters) },
            Spec::Phased {
                small,
                large,
                steps_per_phase,
                phases,
                seed,
            } => Spec::Phased {
                small,
                large,
                steps_per_phase,
                phases: mul(phases),
                seed,
            },
            Spec::Loopy { iters } => Spec::Loopy { iters: mul(iters) },
            Spec::Mixed { iters, seed } => Spec::Mixed {
                iters: mul(iters),
                seed,
            },
            Spec::Rle {
                n,
                reps,
                mean_run_len,
                seed,
            } => Spec::Rle {
                n,
                reps: mul(reps),
                mean_run_len,
                seed,
            },
            Spec::NBody { n, steps, seed } => Spec::NBody {
                n,
                steps: mul(steps),
                seed,
            },
        };
        Benchmark {
            name: self.name.clone(),
            spec,
        }
    }

    /// Assembles the program and initializes memory.
    pub fn load(&self) -> LoadedBenchmark {
        let (program, memory) = match &self.spec {
            Spec::Stream { n, reps, seed } => kernels::stream::build(*n, *reps, *seed),
            Spec::Mtx { n, reps, seed } => kernels::mtx::build(*n, *reps, *seed),
            Spec::Chase { nodes, steps, seed } => kernels::chase::build(*nodes, *steps, *seed),
            Spec::HashProbe {
                table_words,
                ops,
                seed,
            } => kernels::hashp::build(*table_words, *ops, *seed),
            Spec::Branchy { iters, seed } => kernels::branchy::build(*iters, *seed),
            Spec::SortK {
                n,
                passes,
                reps,
                seed,
                presorted,
            } => kernels::sortk::build(*n, *passes, *reps, *seed, *presorted),
            Spec::FpChain { iters } => kernels::fpchain::build(*iters),
            Spec::Phased {
                small,
                large,
                steps_per_phase,
                phases,
                seed,
            } => kernels::phased::build(*small, *large, *steps_per_phase, *phases, *seed),
            Spec::Loopy { iters } => kernels::loopy::build(*iters),
            Spec::Mixed { iters, seed } => kernels::mixed::build(*iters, *seed),
            Spec::Rle {
                n,
                reps,
                mean_run_len,
                seed,
            } => kernels::rle::build(*n, *reps, *mean_run_len, *seed),
            Spec::NBody { n, steps, seed } => kernels::nbody::build(*n, *steps, *seed),
        };
        LoadedBenchmark {
            name: self.name.clone(),
            program,
            memory,
        }
    }
}

impl fmt::Display for Benchmark {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (~{:.1}M instructions)",
            self.name,
            self.approx_len() as f64 / 1e6
        )
    }
}

/// The default suite: 18 benchmark/input combinations spanning the CPI
/// and variability regimes of the paper's SPEC2K study, each a few
/// million dynamic instructions at default scale.
pub fn suite() -> Vec<Benchmark> {
    vec![
        Benchmark::new(
            "stream-1",
            Spec::Stream {
                n: 65_536,
                reps: 6,
                seed: 101,
            },
        ),
        Benchmark::new(
            "stream-2",
            Spec::Stream {
                n: 2_048,
                reps: 190,
                seed: 102,
            },
        ),
        Benchmark::new(
            "mtx-1",
            Spec::Mtx {
                n: 48,
                reps: 4,
                seed: 201,
            },
        ),
        Benchmark::new(
            "mtx-2",
            Spec::Mtx {
                n: 20,
                reps: 55,
                seed: 202,
            },
        ),
        Benchmark::new(
            "chase-1",
            Spec::Chase {
                nodes: 262_144,
                steps: 400_000,
                seed: 301,
            },
        ),
        Benchmark::new(
            "chase-2",
            Spec::Chase {
                nodes: 8_192,
                steps: 1_000_000,
                seed: 302,
            },
        ),
        Benchmark::new(
            "hashp-1",
            Spec::HashProbe {
                table_words: 1 << 21,
                ops: 250_000,
                seed: 401,
            },
        ),
        Benchmark::new(
            "hashp-2",
            Spec::HashProbe {
                table_words: 1 << 15,
                ops: 300_000,
                seed: 402,
            },
        ),
        Benchmark::new(
            "branchy-1",
            Spec::Branchy {
                iters: 220_000,
                seed: 501,
            },
        ),
        Benchmark::new(
            "branchy-2",
            Spec::Branchy {
                iters: 220_000,
                seed: 502,
            },
        ),
        Benchmark::new(
            "sortk-1",
            Spec::SortK {
                n: 2_048,
                passes: 40,
                reps: 5,
                seed: 601,
                presorted: false,
            },
        ),
        Benchmark::new(
            "sortk-2",
            Spec::SortK {
                n: 512,
                passes: 30,
                reps: 30,
                seed: 602,
                presorted: false,
            },
        ),
        Benchmark::new(
            "sortk-3",
            Spec::SortK {
                n: 2_048,
                passes: 200,
                reps: 1,
                seed: 603,
                presorted: true,
            },
        ),
        Benchmark::new("fpchain-1", Spec::FpChain { iters: 500_000 }),
        Benchmark::new(
            "phased-1",
            Spec::Phased {
                small: 64,
                large: 262_144,
                steps_per_phase: 100_000,
                phases: 14,
                seed: 701,
            },
        ),
        Benchmark::new(
            "phased-2",
            Spec::Phased {
                small: 64,
                large: 262_144,
                steps_per_phase: 20_000,
                phases: 70,
                seed: 702,
            },
        ),
        Benchmark::new("loopy-1", Spec::Loopy { iters: 600_000 }),
        Benchmark::new(
            "mixed-1",
            Spec::Mixed {
                iters: 9_000,
                seed: 801,
            },
        ),
    ]
}

/// The extended suite: the default 18 combinations plus a second wave of
/// inputs, widening coverage toward the paper's 41 benchmark/input
/// combinations. The recorded experiments (EXPERIMENTS.md) use
/// [`suite`]; the extension exists for broader studies.
pub fn extended_suite() -> Vec<Benchmark> {
    let mut all = suite();
    all.extend([
        Benchmark::new(
            "stream-3",
            Spec::Stream {
                n: 16_384,
                reps: 24,
                seed: 103,
            },
        ),
        Benchmark::new(
            "mtx-3",
            Spec::Mtx {
                n: 64,
                reps: 2,
                seed: 203,
            },
        ),
        Benchmark::new(
            "chase-3",
            Spec::Chase {
                nodes: 65_536,
                steps: 500_000,
                seed: 303,
            },
        ),
        Benchmark::new(
            "hashp-3",
            Spec::HashProbe {
                table_words: 1 << 18,
                ops: 280_000,
                seed: 403,
            },
        ),
        Benchmark::new(
            "branchy-3",
            Spec::Branchy {
                iters: 220_000,
                seed: 503,
            },
        ),
        Benchmark::new(
            "sortk-4",
            Spec::SortK {
                n: 8_192,
                passes: 12,
                reps: 4,
                seed: 604,
                presorted: false,
            },
        ),
        Benchmark::new("fpchain-2", Spec::FpChain { iters: 900_000 }),
        Benchmark::new(
            "phased-3",
            Spec::Phased {
                small: 2_048,
                large: 262_144,
                steps_per_phase: 50_000,
                phases: 28,
                seed: 703,
            },
        ),
        Benchmark::new("loopy-2", Spec::Loopy { iters: 750_000 }),
        Benchmark::new(
            "mixed-2",
            Spec::Mixed {
                iters: 9_000,
                seed: 802,
            },
        ),
        Benchmark::new(
            "rle-1",
            Spec::Rle {
                n: 65_536,
                reps: 7,
                mean_run_len: 8,
                seed: 901,
            },
        ),
        Benchmark::new(
            "rle-2",
            Spec::Rle {
                n: 65_536,
                reps: 7,
                mean_run_len: 1,
                seed: 902,
            },
        ),
        Benchmark::new(
            "nbody-1",
            Spec::NBody {
                n: 160,
                steps: 10,
                seed: 1001,
            },
        ),
        Benchmark::new(
            "nbody-2",
            Spec::NBody {
                n: 48,
                steps: 110,
                seed: 1002,
            },
        ),
    ]);
    all
}

/// The suite with every benchmark's repetition knob scaled by `factor`.
///
/// Use small factors (e.g. 0.05) for fast tests and large ones for more
/// statistically demanding experiments.
pub fn scaled_suite(factor: f64) -> Vec<Benchmark> {
    suite().iter().map(|b| b.scaled(factor)).collect()
}

/// Looks up a benchmark by name in the extended suite.
pub fn find(name: &str) -> Option<Benchmark> {
    extended_suite().into_iter().find(|b| b.name() == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use smarts_isa::Cpu;

    #[test]
    fn suite_names_are_unique() {
        let suite = suite();
        let mut names: Vec<&str> = suite.iter().map(|b| b.name()).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len());
        assert!(
            before >= 15,
            "suite should span many benchmark/input combos"
        );
    }

    #[test]
    fn find_locates_by_name() {
        assert!(find("chase-1").is_some());
        assert!(find("stream-3").is_some(), "extension inputs are findable");
        assert!(find("no-such-bench").is_none());
    }

    #[test]
    fn extended_suite_supersets_the_default() {
        let base = suite();
        let extended = extended_suite();
        assert!(extended.len() >= base.len() + 14);
        for bench in &base {
            assert!(extended.iter().any(|b| b.name() == bench.name()));
        }
        let mut names: Vec<&str> = extended.iter().map(|b| b.name()).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len(), "extended names are unique");
    }

    #[test]
    fn extension_inputs_run_to_halt_at_tiny_scale() {
        for bench in extended_suite() {
            if suite().iter().any(|b| b.name() == bench.name()) {
                continue;
            }
            let bench = bench.scaled(0.01);
            let loaded = bench.load();
            let mut cpu = Cpu::new();
            let mut mem = loaded.memory;
            cpu.run(&loaded.program, &mut mem, bench.approx_len() * 3 + 10_000)
                .unwrap();
            assert!(cpu.halted(), "{} did not halt", bench.name());
        }
    }

    #[test]
    fn approx_len_matches_execution_at_small_scale() {
        // Validate the length model against real execution for every
        // kernel family, at 1/100 scale to keep the test fast.
        for bench in scaled_suite(0.01) {
            let loaded = bench.load();
            let mut cpu = Cpu::new();
            let mut mem = loaded.memory;
            let budget = bench.approx_len() * 3 + 10_000;
            cpu.run(&loaded.program, &mut mem, budget).unwrap();
            assert!(
                cpu.halted(),
                "{} did not halt within {budget}",
                bench.name()
            );
            let actual = cpu.retired();
            let approx = bench.approx_len();
            let ratio = actual as f64 / approx as f64;
            assert!(
                (0.7..1.4).contains(&ratio),
                "{}: approx {approx} vs actual {actual} (ratio {ratio:.2})",
                bench.name()
            );
        }
    }

    #[test]
    fn default_suite_lengths_are_laptop_scale() {
        for bench in suite() {
            let len = bench.approx_len();
            assert!(
                (500_000..30_000_000).contains(&len),
                "{}: {len} instructions",
                bench.name()
            );
        }
    }

    #[test]
    fn scaled_preserves_name_and_dataset() {
        let b = find("chase-1").unwrap();
        let s = b.scaled(0.5);
        assert_eq!(s.name(), "chase-1");
        match (b.spec(), s.spec()) {
            (
                Spec::Chase {
                    nodes: n1,
                    steps: s1,
                    ..
                },
                Spec::Chase {
                    nodes: n2,
                    steps: s2,
                    ..
                },
            ) => {
                assert_eq!(n1, n2, "dataset size unchanged");
                assert_eq!(*s2, s1 / 2);
            }
            _ => panic!("spec variant changed"),
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_scale_rejected() {
        let _ = find("loopy-1").unwrap().scaled(0.0);
    }
}
