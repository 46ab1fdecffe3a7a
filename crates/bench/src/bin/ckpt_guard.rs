//! CI checkpoint-store regression guard: write rate, read rate and
//! bit-identity.
//!
//! Reads the checked-in reference `results/bench_ckpt.json` (this binary
//! never writes it — the `ckpt` binary owns the file and CI runs this
//! guard *before* re-generating it), rebuilds each reference store from
//! its recorded scale and unit count, and fails when either
//!
//! * the store's encode or decode rate (MiB/s) drops more than
//!   [`TOLERANCE`] below its reference, or
//! * replaying the store through the parallel executor is not
//!   bit-identical to replaying the warming pass's checkpoints in memory,
//!   one after another — the correctness contract `--from-checkpoints`
//!   rests on.
//!
//! `--quick` checks only the first reference probe; `--bench <name>`
//! restricts to one probe.

use smarts_bench::timing::time;
use smarts_ckpt::{CkptReader, CkptWriter, IsaId, StoreMeta};
use smarts_core::{ModeInstructions, SampleReport, SamplingParams, SmartsSim, UnitReplay, Warming};
use smarts_exec::{replay_store, Executor};
use smarts_isa::BuiltinIsa;
use smarts_uarch::MachineConfig;
use std::time::Duration;

/// Largest tolerated drop of a measured MiB/s below its reference
/// (machine-to-machine and load-induced noise stays well inside this; a
/// real codec or I/O hot-path regression does not).
const TOLERANCE: f64 = 0.20;

/// Total measurement attempts per probe. Between-invocation host noise
/// can depress a whole median-of-7 batch; a probe only counts as
/// regressed when *every* attempt lands below the tolerance.
const ATTEMPTS: u32 = 3;

struct Reference {
    benchmark: String,
    scale: f64,
    units: u64,
    write_mibps: f64,
    read_mibps: f64,
}

/// Re-measures one rate up to [`ATTEMPTS`] times and prints its row;
/// returns whether the best attempt stayed within [`TOLERANCE`] of
/// `reference`.
fn gate(
    benchmark: &str,
    what: &str,
    mib: f64,
    reference: f64,
    mut run: impl FnMut() -> Duration,
) -> bool {
    let mut mibps = 0.0f64;
    for _ in 0..ATTEMPTS {
        mibps = mibps.max(mib / run().as_secs_f64());
        if mibps / reference >= 1.0 - TOLERANCE {
            break;
        }
    }
    let ok = mibps / reference >= 1.0 - TOLERANCE;
    println!(
        "{:<12} {:<7} {:>12.1} {:>12.1} {:>8.3}  {}",
        benchmark,
        what,
        reference,
        mibps,
        mibps / reference,
        if ok { "ok" } else { "REGRESSED" }
    );
    ok
}

fn fail(msg: &str) -> ! {
    eprintln!("ckpt_guard: {msg}");
    std::process::exit(1)
}

fn assert_bit_identical(replayed: &SampleReport, sequential: &SampleReport, what: &str) {
    let same = replayed.sample_size() == sequential.sample_size()
        && replayed.cpi().mean().to_bits() == sequential.cpi().mean().to_bits()
        && replayed.epi().mean().to_bits() == sequential.epi().mean().to_bits()
        && replayed
            .units
            .iter()
            .zip(&sequential.units)
            .all(|(p, s)| p.cycles == s.cycles && p.cpi.to_bits() == s.cpi.to_bits());
    if !same {
        fail(&format!(
            "{what}: store replay is not bit-identical to in-memory replay \
             (store CPI {} vs in-memory CPI {})",
            replayed.cpi().mean(),
            sequential.cpi().mean()
        ));
    }
}

fn main() {
    let args = smarts_bench::HarnessArgs::parse();
    let path = "results/bench_ckpt.json";
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| fail(&format!("cannot read reference {path}: {e}")));
    let mut references = parse_references(&text)
        .unwrap_or_else(|e| fail(&format!("cannot parse reference {path}: {e}")));
    if references.is_empty() {
        fail(&format!("reference {path} lists no probes"));
    }
    if args.quick {
        references.truncate(1);
    }
    if let Some(name) = &args.bench {
        references.retain(|r| &r.benchmark == name);
        if references.is_empty() {
            fail(&format!("reference {path} has no probe named {name}"));
        }
    }

    smarts_bench::banner(
        "Checkpoint-store guard",
        &format!(
            "fails if store encode or decode MiB/s drops more than {:.0}% below \
             results/bench_ckpt.json, or if store replay diverges from in-memory replay",
            TOLERANCE * 100.0
        ),
    );
    let cfg = MachineConfig::eight_way();
    let sim = SmartsSim::new(cfg.clone());
    let store = std::env::temp_dir().join(format!("smarts-ckpt-guard-{}.ckpt", std::process::id()));
    println!(
        "{:<12} {:<7} {:>12} {:>12} {:>8}  verdict",
        "benchmark", "rate", "ref MiB/s", "now MiB/s", "ratio"
    );
    let mut regressed = false;
    for reference in &references {
        let bench = smarts_workloads::find(&reference.benchmark)
            .unwrap_or_else(|| {
                fail(&format!(
                    "reference probe {} is not in the suite",
                    reference.benchmark
                ))
            })
            .scaled(reference.scale);
        let params = SamplingParams::for_sample_size(
            bench.approx_len(),
            1000,
            2000,
            Warming::Functional,
            reference.units,
            0,
        )
        .unwrap_or_else(|e| fail(&format!("{}: bad parameters: {e}", reference.benchmark)));

        // Warm once, untimed (the guard measures the store, not
        // warming), then rebuild the reference store under the clock.
        let meta = StoreMeta {
            params,
            benchmark: reference.benchmark.clone(),
            scale: reference.scale,
            isa: IsaId::Builtin,
        };
        let mut checkpoints = Vec::new();
        let loaded = bench.load();
        let program = loaded.program.clone();
        sim.stream_checkpoints(loaded, &params, |checkpoint| {
            checkpoints.push(checkpoint);
            true
        })
        .unwrap_or_else(|e| fail(&format!("{}: warming failed: {e}", reference.benchmark)));
        let write_store = || {
            let mut writer = CkptWriter::create(&store, &cfg, &meta)
                .unwrap_or_else(|e| fail(&format!("cannot create scratch store: {e}")));
            for checkpoint in &checkpoints {
                writer
                    .append(checkpoint)
                    .unwrap_or_else(|e| fail(&format!("cannot append to scratch store: {e}")));
            }
            writer
                .finish()
                .unwrap_or_else(|e| fail(&format!("cannot finish scratch store: {e}")))
        };
        let mib = write_store().bytes as f64 / (1024.0 * 1024.0);
        regressed |= !gate(
            &reference.benchmark,
            "encode",
            mib,
            reference.write_mibps,
            || time(&write_store),
        );

        // Bit-identity: executor replay from disk vs the same
        // checkpoints replayed in memory, in order, on this thread.
        let mut units = Vec::new();
        let mut instructions = ModeInstructions::default();
        for checkpoint in &checkpoints {
            let replay = sim.replay_checkpoint(&program, &params, checkpoint);
            replay.account(&mut instructions);
            match replay {
                UnitReplay::Complete { sample, .. } => units.push(*sample),
                UnitReplay::Partial { .. } => break,
            }
        }
        let sequential =
            SampleReport::from_units(params, units, instructions, Duration::ZERO, Duration::ZERO);
        let executor = Executor::new(2).unwrap_or_else(|e| fail(&format!("executor: {e}")));
        let replayed = replay_store::<BuiltinIsa>(&executor, &sim, &store)
            .unwrap_or_else(|e| fail(&format!("{}: store replay: {e}", reference.benchmark)));
        if let Some(damage) = &replayed.damage {
            fail(&format!(
                "{}: fresh store reported damage: {damage}",
                reference.benchmark
            ));
        }
        assert_bit_identical(&replayed.report.report, &sequential, &reference.benchmark);

        regressed |= !gate(
            &reference.benchmark,
            "decode",
            mib,
            reference.read_mibps,
            || {
                time(|| {
                    let mut reader = CkptReader::open(&store, &cfg).expect("open scratch store");
                    while let Some(next) = reader.next_checkpoint() {
                        next.expect("intact record");
                    }
                })
            },
        );
    }
    std::fs::remove_file(&store).ok();
    if regressed {
        eprintln!(
            "\nstore encode or decode rate regressed beyond the {:.0}% guard",
            TOLERANCE * 100.0
        );
        std::process::exit(1);
    }
    println!("\nstore encode and decode rates within the guard, replay bit-identical");
}

/// Extracts `(benchmark, scale, units, write_mibps, read_mibps)` from the reference
/// file. Hand-rolled (the workspace builds offline, no serde): scans for
/// the keys in order within each result object, which is exactly the
/// shape the `ckpt` binary writes.
fn parse_references(text: &str) -> Result<Vec<Reference>, String> {
    let mut references = Vec::new();
    let mut benchmark: Option<String> = None;
    let mut scale: Option<f64> = None;
    let mut units: Option<u64> = None;
    let mut write_mibps: Option<f64> = None;
    for line in text.lines() {
        let line = line.trim();
        if let Some(value) = key_value(line, "benchmark") {
            benchmark = Some(value.trim_matches('"').to_string());
        } else if let Some(value) = key_value(line, "scale") {
            scale = Some(
                value
                    .parse()
                    .map_err(|_| format!("bad scale value `{value}`"))?,
            );
        } else if let Some(value) = key_value(line, "units") {
            units = Some(
                value
                    .parse()
                    .map_err(|_| format!("bad units value `{value}`"))?,
            );
        } else if let Some(value) = key_value(line, "write_mibps") {
            write_mibps = Some(
                value
                    .parse()
                    .map_err(|_| format!("bad write_mibps value `{value}`"))?,
            );
        } else if let Some(value) = key_value(line, "read_mibps") {
            let mibps: f64 = value
                .parse()
                .map_err(|_| format!("bad read_mibps value `{value}`"))?;
            let benchmark = benchmark
                .take()
                .ok_or("read_mibps before its benchmark name")?;
            let scale = scale.take().ok_or("read_mibps before its scale")?;
            let units = units.take().ok_or("read_mibps before its unit count")?;
            let write_mibps = write_mibps
                .take()
                .ok_or("read_mibps before its write_mibps")?;
            if !(mibps.is_finite() && mibps > 0.0 && write_mibps.is_finite() && write_mibps > 0.0) {
                return Err(format!("non-positive rate for {benchmark}"));
            }
            references.push(Reference {
                benchmark,
                scale,
                units,
                write_mibps,
                read_mibps: mibps,
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
