//! Functional-warming throughput: the S_FW hot path, measured directly.
//!
//! SMARTS's speedup model (Section 3.4) pins the achievable simulation
//! rate to the functional-warming rate S_FW, so this binary is the repo's
//! performance gate for the warming pipeline. For each probe benchmark it
//! reports, via the in-tree median-of-7 harness:
//!
//! * **functional** — plain fast-forward MIPS (architectural state only),
//! * **warming** — fast-forward-with-functional-warming MIPS (caches,
//!   TLBs, and branch predictor updated per instruction),
//! * the implied S_FW ratio (warming rate / functional rate) and the
//!   warming overhead in ns/instruction.
//!
//! Results are also written to `results/bench_warming.json` as the
//! machine-readable perf baseline future PRs compare against. `--quick`
//! is the CI smoke mode (fewer instructions, single probe benchmark).
//!
//! Benchmark loading is hoisted out of the timed region (engines start
//! from a cloned image), so the figures measure the execution hot path,
//! not assembly/image setup.

use smarts_bench::timing::{self, time};
use smarts_core::FunctionalEngine;
use smarts_isa::RiscIsa;
use smarts_uarch::{MachineConfig, WarmState};
use smarts_workloads::{Frontend, Loaded};
use std::io::Write as _;
use std::time::Duration;

/// The probe benchmarks: the Figure 4 probe (`hashp-2`) plus one
/// benchmark per warming-pressure class (I-side, D-side long-history,
/// branch predictor).
const PROBES: [&str; 4] = ["hashp-2", "loopy-1", "chase-2", "branchy-1"];

struct Row {
    name: String,
    isa: &'static str,
    instructions: u64,
    functional: Duration,
    warming: Duration,
}

impl Row {
    fn functional_mips(&self) -> f64 {
        self.instructions as f64 / self.functional.as_secs_f64() / 1e6
    }

    fn warming_mips(&self) -> f64 {
        self.instructions as f64 / self.warming.as_secs_f64() / 1e6
    }

    fn s_fw(&self) -> f64 {
        self.functional.as_secs_f64() / self.warming.as_secs_f64()
    }

    fn overhead_ns(&self) -> f64 {
        (self.warming.as_secs_f64() - self.functional.as_secs_f64()) * 1e9
            / self.instructions as f64
    }
}

fn main() {
    let args = smarts_bench::HarnessArgs::parse();
    let instructions: u64 = if args.quick { 200_000 } else { 2_000_000 };
    smarts_bench::banner(
        "Warming throughput",
        "functional vs functional-warming fast-forward rate (8-way machine)",
    );

    let cfg = MachineConfig::eight_way();
    let probes: Vec<String> = match &args.bench {
        Some(name) => vec![name.clone()],
        None if args.quick => {
            // Quick mode keeps one probe per frontend: the Figure 4
            // probe, plus the first probe the risc encoding accepts (the
            // Figure 4 probe itself uses instructions outside the
            // compact set).
            let mut list = vec![PROBES[0].to_string()];
            if let Some(name) = PROBES
                .iter()
                .find(|name| RiscIsa::resolve(name, 1.0).is_ok())
            {
                if *name != PROBES[0] {
                    list.push(name.to_string());
                }
            }
            list
        }
        None => PROBES.iter().map(|s| s.to_string()).collect(),
    };

    println!(
        "{:<12} {:<8} {:>12} {:>12} {:>8} {:>12}",
        "benchmark", "isa", "func MIPS", "warm MIPS", "S_FW", "overhead/in"
    );
    let mut rows = Vec::new();
    for name in &probes {
        let loaded = smarts_isa::BuiltinIsa::resolve(name, 1.0)
            .unwrap_or_else(|e| panic!("unknown benchmark {name}: {e}"));
        rows.push(measure(name, "builtin", &loaded, instructions, &cfg));
        // The compact-RISC frontend runs the same warming hot path over
        // the table it decoded at load, so its rate should track the
        // built-in row: one row per probe the encoding can represent.
        if let Ok(loaded) = RiscIsa::resolve(name, 1.0) {
            rows.push(measure(name, "risc", &loaded, instructions, &cfg));
        }
    }
    println!();
    for row in &rows {
        println!(
            "{} ({}): functional {} / warming {}",
            row.name,
            row.isa,
            timing::pretty(row.functional),
            timing::pretty(row.warming)
        );
    }

    write_json(&rows).expect("write results/bench_warming.json");
    println!("\nwrote results/bench_warming.json");
}

/// Times one probe's functional / warming passes under frontend `F` and
/// prints its table row.
fn measure<F: Frontend>(
    name: &str,
    isa: &'static str,
    loaded: &Loaded<F>,
    instructions: u64,
    cfg: &MachineConfig,
) -> Row {
    let functional = time(|| {
        let mut engine = FunctionalEngine::new(loaded.clone());
        engine.fast_forward(instructions)
    });
    let warming = time(|| {
        let mut engine = FunctionalEngine::new(loaded.clone());
        let mut warm = WarmState::new(cfg);
        engine.fast_forward_warming(instructions, &mut warm)
    });

    let row = Row {
        name: name.to_string(),
        isa,
        instructions,
        functional,
        warming,
    };
    println!(
        "{:<12} {:<8} {:>12.2} {:>12.2} {:>8.3} {:>9.1} ns",
        row.name,
        row.isa,
        row.functional_mips(),
        row.warming_mips(),
        row.s_fw(),
        row.overhead_ns()
    );
    row
}

/// Emits the machine-readable baseline (hand-rolled JSON: the workspace
/// builds offline, with no serde).
fn write_json(rows: &[Row]) -> std::io::Result<()> {
    std::fs::create_dir_all("results")?;
    let mut f = std::fs::File::create("results/bench_warming.json")?;
    writeln!(f, "{{")?;
    writeln!(f, "  \"bench\": \"warming\",")?;
    writeln!(f, "  \"samples_per_case\": {},", timing::SAMPLES)?;
    writeln!(f, "  \"machine\": \"8-way\",")?;
    writeln!(f, "  \"results\": [")?;
    for (i, row) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        writeln!(f, "    {{")?;
        writeln!(f, "      \"benchmark\": \"{}\",", row.name)?;
        // Rows are keyed (benchmark, isa): the field keeps the guard
        // populations from silently comparing across frontends.
        writeln!(f, "      \"isa\": \"{}\",", row.isa)?;
        writeln!(f, "      \"instructions\": {},", row.instructions)?;
        writeln!(
            f,
            "      \"functional_mips\": {:.3},",
            row.functional_mips()
        )?;
        writeln!(f, "      \"warming_mips\": {:.3},", row.warming_mips())?;
        writeln!(f, "      \"s_fw\": {:.4},", row.s_fw())?;
        writeln!(
            f,
            "      \"warming_overhead_ns_per_inst\": {:.2}",
            row.overhead_ns()
        )?;
        writeln!(f, "    }}{comma}")?;
    }
    writeln!(f, "  ]")?;
    writeln!(f, "}}")?;
    Ok(())
}
