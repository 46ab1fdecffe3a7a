//! CI warming-rate regression guard.
//!
//! Reads the checked-in reference `results/bench_warming.json` (this
//! binary never writes it — the `warming` binary owns the file and CI
//! runs this guard *before* re-generating it), re-measures the
//! functional-warming MIPS of each reference probe with the same
//! median-of-7 harness, and exits non-zero when any probe's warming rate
//! has dropped more than [`TOLERANCE`] below its reference — the S_FW
//! regression gate for the warming hot path.
//!
//! `--quick` checks the first reference probe of each frontend;
//! `--bench <name>` restricts to one probe.

use smarts_bench::timing::time;
use smarts_core::FunctionalEngine;
use smarts_isa::{BuiltinIsa, RiscIsa};
use smarts_uarch::{MachineConfig, WarmState};
use smarts_workloads::{Frontend, Loaded};

/// Largest tolerated drop of measured warming MIPS below the reference
/// (machine-to-machine and load-induced noise stays well inside this;
/// a real hot-path regression does not).
const TOLERANCE: f64 = 0.20;

struct Reference {
    benchmark: String,
    isa: String,
    instructions: u64,
    warming_mips: f64,
}

fn main() {
    let args = smarts_bench::HarnessArgs::parse();
    let path = "results/bench_warming.json";
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| fail(&format!("cannot read reference {path}: {e}")));
    let mut references = parse_references(&text)
        .unwrap_or_else(|e| fail(&format!("cannot parse reference {path}: {e}")));
    if references.is_empty() {
        fail(&format!("reference {path} lists no probes"));
    }
    if args.quick {
        // Quick mode still guards every frontend: keep the first probe
        // of each distinct isa rather than the first row outright.
        let mut seen: Vec<String> = Vec::new();
        references.retain(|r| {
            if seen.contains(&r.isa) {
                false
            } else {
                seen.push(r.isa.clone());
                true
            }
        });
    }
    if let Some(name) = &args.bench {
        references.retain(|r| &r.benchmark == name);
        if references.is_empty() {
            fail(&format!("reference {path} has no probe named {name}"));
        }
    }

    smarts_bench::banner(
        "Warming-rate guard",
        &format!(
            "fails if warming MIPS drops more than {:.0}% below results/bench_warming.json",
            TOLERANCE * 100.0
        ),
    );
    let cfg = MachineConfig::eight_way();
    println!(
        "{:<12} {:<8} {:>12} {:>12} {:>8}  verdict",
        "benchmark", "isa", "ref MIPS", "now MIPS", "ratio"
    );
    let mut regressed = false;
    for reference in &references {
        let mips = match reference.isa.as_str() {
            "builtin" => remeasure::<BuiltinIsa>(reference, &cfg),
            "risc" => remeasure::<RiscIsa>(reference, &cfg),
            other => fail(&format!(
                "reference probe {} names unknown frontend `{other}`",
                reference.benchmark
            )),
        };
        let ratio = mips / reference.warming_mips;
        let ok = ratio >= 1.0 - TOLERANCE;
        regressed |= !ok;
        println!(
            "{:<12} {:<8} {:>12.2} {:>12.2} {:>8.3}  {}",
            reference.benchmark,
            reference.isa,
            reference.warming_mips,
            mips,
            ratio,
            if ok { "ok" } else { "REGRESSED" }
        );
    }
    if regressed {
        eprintln!(
            "\nwarming rate regressed beyond the {:.0}% guard",
            TOLERANCE * 100.0
        );
        std::process::exit(1);
    }
    println!("\nwarming rate within the guard");
}

fn fail(msg: &str) -> ! {
    eprintln!("warming_guard: {msg}");
    std::process::exit(1)
}

/// Re-measures one reference probe's warming MIPS under frontend `F`.
fn remeasure<F: Frontend>(reference: &Reference, cfg: &MachineConfig) -> f64 {
    let loaded: Loaded<F> = F::resolve(&reference.benchmark, 1.0).unwrap_or_else(|e| {
        fail(&format!(
            "reference probe {} does not resolve under `{}`: {e}",
            reference.benchmark, reference.isa
        ))
    });
    let instructions = reference.instructions;
    let warming = time(|| {
        let mut engine = FunctionalEngine::new(loaded.clone());
        let mut warm = WarmState::new(cfg);
        engine.fast_forward_warming(instructions, &mut warm)
    });
    instructions as f64 / warming.as_secs_f64() / 1e6
}

/// Extracts `(benchmark, isa, instructions, warming_mips)`
/// rows from the reference file. Hand-rolled (the workspace builds
/// offline, no serde): scans for the keys in order within each result
/// object, which is exactly the shape the `warming` binary writes.
/// `isa` defaults to builtin for rows written before the field
/// existed.
fn parse_references(text: &str) -> Result<Vec<Reference>, String> {
    let mut references = Vec::new();
    let mut benchmark: Option<String> = None;
    let mut isa: Option<String> = None;
    let mut instructions: Option<u64> = None;
    for line in text.lines() {
        let line = line.trim();
        if let Some(value) = key_value(line, "benchmark") {
            benchmark = Some(value.trim_matches('"').to_string());
            isa = None;
        } else if let Some(value) = key_value(line, "isa") {
            isa = Some(value.trim_matches('"').to_string());
        } else if let Some(value) = key_value(line, "instructions") {
            instructions = Some(
                value
                    .parse()
                    .map_err(|_| format!("bad instructions value `{value}`"))?,
            );
        } else if let Some(value) = key_value(line, "warming_mips") {
            let mips: f64 = value
                .parse()
                .map_err(|_| format!("bad warming_mips value `{value}`"))?;
            let benchmark = benchmark
                .take()
                .ok_or("warming_mips before its benchmark name")?;
            let instructions = instructions
                .take()
                .ok_or("warming_mips before its instruction count")?;
            if !(mips.is_finite() && mips > 0.0) {
                return Err(format!("non-positive warming_mips for {benchmark}"));
            }
            references.push(Reference {
                benchmark,
                // Rows written before the frontend existed are builtin.
                isa: isa.take().unwrap_or_else(|| "builtin".to_string()),
                instructions,
                warming_mips: mips,
            });
        }
    }
    Ok(references)
}

/// `"key": value,` → `value` (quotes kept, trailing comma stripped).
fn key_value<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let rest = line.strip_prefix(&format!("\"{key}\":"))?;
    Some(rest.trim().trim_end_matches(','))
}
