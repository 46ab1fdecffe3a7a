//! CI store-residency regression guard: the lazy-replay memory win and
//! decode rate must not regress.
//!
//! Reads the checked-in reference `results/bench_store_mem.json` (this
//! binary never writes it — the `store_mem` binary owns the file and CI
//! runs this guard *before* re-generating it), rebuilds the reference
//! store from its recorded scale and unit count, and fails when any of
//!
//! * the lazy-replay residency ratio (eager resident bytes over lazy
//!   peak bytes) falls below the hard [`RATIO_FLOOR`] — the ≥10×
//!   contract lazy replay was built for,
//! * the lazy peak itself rises more than [`TOLERANCE`] above its
//!   reference, or
//! * the rolling-cursor decode rate (measured MIPS) drops more than
//!   [`TOLERANCE`] below its reference on every attempt.
//!
//! The ratio is gated only at its floor: its numerator is the eager
//! library, so a change that shrinks every checkpoint lowers the ratio
//! while nothing got worse. What can regress is what lazy replay holds.
//!
//! `--quick` shrinks the rebuilt store (same scale-per-unit design,
//! fewer units): the ratio floor still binds because the lazy bound is
//! O(workers), not O(units).

use smarts_bench::timing::time;
use smarts_ckpt::{CkptWriter, IsaId, MappedStore, StoreMeta};
use smarts_core::{SamplingParams, SmartsSim, Warming};
use smarts_exec::{replay_store_mapped, Executor};
use smarts_isa::BuiltinIsa;
use smarts_uarch::MachineConfig;

/// Largest tolerated relative drop below the reference for decode MIPS,
/// and rise above it for the lazy peak.
const TOLERANCE: f64 = 0.20;

/// Hard floor on eager-over-lazy resident bytes, regardless of the
/// reference: the acceptance contract of lazy store replay.
const RATIO_FLOOR: f64 = 10.0;

/// Total decode-rate measurement attempts. Between-invocation host
/// noise can depress one batch; a regression only counts when *every*
/// attempt lands below the tolerance.
const ATTEMPTS: u32 = 3;

/// Replay workers — must match the `store_mem` binary for the lazy
/// peak figure to be comparable.
const JOBS: usize = 2;

const UNIT_SIZE: u64 = 1000;
const DETAILED_WARMING: u64 = 2000;

struct Reference {
    benchmark: String,
    scale: f64,
    units: u64,
    lazy_peak_bytes: u64,
    decode_mips: f64,
}

fn fail(msg: &str) -> ! {
    eprintln!("store_mem_guard: {msg}");
    std::process::exit(1)
}

fn main() {
    let args = smarts_bench::HarnessArgs::parse();
    let path = "results/bench_store_mem.json";
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| fail(&format!("cannot read reference {path}: {e}")));
    let reference =
        parse_reference(&text).unwrap_or_else(|e| fail(&format!("cannot parse {path}: {e}")));

    smarts_bench::banner(
        "Store-residency guard",
        &format!(
            "fails if the lazy-replay residency ratio falls below {RATIO_FLOOR:.0}x, the lazy \
             peak rises {:.0}% above results/bench_store_mem.json, or decode MIPS regresses {:.0}%",
            TOLERANCE * 100.0,
            TOLERANCE * 100.0
        ),
    );

    let cfg = MachineConfig::eight_way();
    let sim = SmartsSim::new(cfg.clone());
    // Quick mode rebuilds a shorter store with the same per-unit design:
    // scale and units shrink together so the sampling interval (and the
    // per-unit delta shape) stay those of the reference.
    let (scale, units) = if args.quick {
        let shrink = (reference.units as f64 / 400.0).max(1.0);
        (
            reference.scale / shrink,
            (reference.units as f64 / shrink) as u64,
        )
    } else {
        (reference.scale, reference.units)
    };
    let bench = smarts_workloads::find(&reference.benchmark)
        .unwrap_or_else(|| fail(&format!("reference probe {} unknown", reference.benchmark)))
        .scaled(scale);
    let params = SamplingParams::for_sample_size(
        bench.approx_len(),
        UNIT_SIZE,
        DETAILED_WARMING,
        Warming::Functional,
        units,
        0,
    )
    .unwrap_or_else(|e| fail(&format!("bad parameters: {e}")));
    let meta = StoreMeta {
        params,
        benchmark: reference.benchmark.clone(),
        scale,
        isa: IsaId::Builtin,
    };

    // Rebuild the store (untimed) and accumulate the eager footprint.
    let store_path =
        std::env::temp_dir().join(format!("smarts-storemem-guard-{}.ckpt", std::process::id()));
    let mut writer = CkptWriter::create(&store_path, &cfg, &meta)
        .unwrap_or_else(|e| fail(&format!("cannot create scratch store: {e}")));
    let mut eager_bytes = 0u64;
    sim.stream_checkpoints(bench.load(), &params, |checkpoint| {
        eager_bytes += checkpoint.approx_resident_bytes();
        writer.append(&checkpoint).is_ok()
    })
    .unwrap_or_else(|e| fail(&format!("warming failed: {e}")));
    writer
        .finish()
        .unwrap_or_else(|e| fail(&format!("cannot finish scratch store: {e}")));
    let store = MappedStore::open(&store_path, &cfg)
        .unwrap_or_else(|e| fail(&format!("cannot open scratch store: {e}")));
    let decoded_units = store.len() as u64;

    // Residency: one real lazy replay.
    let executor = Executor::new(JOBS).unwrap_or_else(|e| fail(&format!("executor: {e}")));
    let replayed = replay_store_mapped::<BuiltinIsa>(&executor, &sim, &store)
        .unwrap_or_else(|e| fail(&format!("lazy replay failed: {e}")));
    if let Some(damage) = &replayed.damage {
        fail(&format!("fresh store reported damage: {damage}"));
    }
    let lazy_peak = replayed
        .report
        .pipeline
        .as_ref()
        .unwrap_or_else(|| fail("lazy replay reported no pipeline stats"))
        .peak_resident_bytes
        .max(1);
    let ratio = eager_bytes as f64 / lazy_peak as f64;
    // The lazy peak is O(workers), not O(units): the reference binds
    // unscaled (a quick-mode store's smaller footprint only lowers it).
    let peak_limit = reference.lazy_peak_bytes as f64 * (1.0 + TOLERANCE);
    let ratio_ok = ratio >= RATIO_FLOOR;
    let peak_ok = lazy_peak as f64 <= peak_limit;

    // Decode-rate regression gate, best-of-ATTEMPTS.
    let mut mips = 0.0f64;
    let mut mips_ok = false;
    for _ in 0..ATTEMPTS {
        let decode = time(|| {
            let mut cursor = store.cursor();
            for index in 0..store.len() {
                let flat = cursor.flat_at(index).expect("intact record");
                flat.rebuild(&cfg).expect("store geometry matches");
            }
        });
        let attempt = (decoded_units * UNIT_SIZE) as f64 / 1e6 / decode.as_secs_f64();
        mips = mips.max(attempt);
        if mips >= reference.decode_mips * (1.0 - TOLERANCE) {
            mips_ok = true;
            break;
        }
    }
    std::fs::remove_file(&store_path).ok();

    println!(
        "{:<12} {:>6} {:>10} {:>12} {:>12} {:>10} {:>10}  verdict",
        "benchmark", "units", "ratio", "ref peak B", "now peak B", "ref MIPS", "now MIPS"
    );
    println!(
        "{:<12} {:>6} {:>9.0}x {:>12} {:>12} {:>10.1} {:>10.1}  {}",
        reference.benchmark,
        decoded_units,
        ratio,
        reference.lazy_peak_bytes,
        lazy_peak,
        reference.decode_mips,
        mips,
        match (ratio_ok, peak_ok, mips_ok) {
            (true, true, true) => "ok",
            (false, ..) => "RATIO BELOW FLOOR",
            (_, false, _) => "LAZY PEAK ROSE",
            (.., false) => "DECODE REGRESSED",
        }
    );
    if !ratio_ok {
        eprintln!(
            "\nlazy-replay residency ratio {ratio:.0}x fell below the {RATIO_FLOOR:.0}x floor"
        );
        std::process::exit(1);
    }
    if !peak_ok {
        eprintln!(
            "\nlazy replay held {lazy_peak} B at peak, more than {:.0}% above the reference {} B",
            TOLERANCE * 100.0,
            reference.lazy_peak_bytes
        );
        std::process::exit(1);
    }
    if !mips_ok {
        eprintln!(
            "\nlazy decode rate regressed beyond the {:.0}% guard",
            TOLERANCE * 100.0
        );
        std::process::exit(1);
    }
    println!("\nresidency floor, lazy peak and decode rate within the guard");
}

/// Extracts the single reference row. Hand-rolled (the workspace builds
/// offline, no serde): scans for the keys the `store_mem` binary writes.
fn parse_reference(text: &str) -> Result<Reference, String> {
    let mut benchmark = None;
    let mut scale = None;
    let mut units = None;
    let mut peak = None;
    let mut mips = None;
    for line in text.lines() {
        let line = line.trim();
        if let Some(value) = key_value(line, "benchmark") {
            benchmark = Some(value.trim_matches('"').to_string());
        } else if let Some(value) = key_value(line, "scale") {
            scale = Some(value.parse().map_err(|_| format!("bad scale `{value}`"))?);
        } else if let Some(value) = key_value(line, "units") {
            units = Some(value.parse().map_err(|_| format!("bad units `{value}`"))?);
        } else if let Some(value) = key_value(line, "lazy_peak_bytes") {
            peak = Some(
                value
                    .parse()
                    .map_err(|_| format!("bad lazy_peak_bytes `{value}`"))?,
            );
        } else if let Some(value) = key_value(line, "decode_mips") {
            mips = Some(
                value
                    .parse()
                    .map_err(|_| format!("bad decode_mips `{value}`"))?,
            );
        }
    }
    let reference = Reference {
        benchmark: benchmark.ok_or("missing benchmark")?,
        scale: scale.ok_or("missing scale")?,
        units: units.ok_or("missing units")?,
        lazy_peak_bytes: peak.ok_or("missing lazy_peak_bytes")?,
        decode_mips: mips.ok_or("missing decode_mips")?,
    };
    if !(reference.decode_mips.is_finite() && reference.decode_mips > 0.0) {
        return Err("non-positive decode_mips".into());
    }
    if reference.lazy_peak_bytes == 0 {
        return Err("zero lazy_peak_bytes".into());
    }
    Ok(reference)
}

/// `"key": value,` → `value` (quotes kept, trailing comma stripped).
fn key_value<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let rest = line.strip_prefix(&format!("\"{key}\":"))?;
    Some(rest.trim().trim_end_matches(','))
}
