//! Store-replay residency: what zero-copy lazy replay buys in memory.
//!
//! The eager store reader (and the pre-delta in-memory library)
//! materializes every unit checkpoint at once, so replaying an n-unit
//! store costs O(n) resident checkpoint bytes. Lazy mmap replay keeps
//! the encoded records on the page cache and holds only one rolling
//! decode cursor per worker plus the in-flight rebuilt checkpoints —
//! O(workers), independent of n. This binary builds a large store
//! (10⁴ units by default, ~400 under `--quick`) and measures:
//!
//! * **eager residency** — Σ per-unit
//!   [`UnitCheckpoint::approx_resident_bytes`], what a full eager
//!   decode holds live,
//! * **lazy peak residency** — the executor's per-claim accounting
//!   (`PipelineStats::peak_resident_bytes`) during a real
//!   `replay_store` run, and the ratio between the two,
//! * **lazy-decode MIPS** — millions of *measured* instructions
//!   (units × U) whose checkpoints decode per second through a rolling
//!   [`StoreCursor`](smarts_ckpt::StoreCursor) walk, flat decode plus
//!   `rebuild` — the per-worker overhead lazy replay adds on its
//!   critical path.
//!
//! Results go to `results/bench_store_mem.json`, the baseline the
//! `store_mem_guard` binary enforces in CI (decode-rate regression and
//! the ≥10× residency-ratio floor).

use smarts_bench::timing::{self, time};
use smarts_ckpt::{CkptWriter, IsaId, MappedStore, StoreMeta};
use smarts_core::{SamplingParams, SmartsSim, UnitCheckpoint, Warming};
use smarts_exec::{replay_store_mapped, Executor};
use smarts_isa::BuiltinIsa;
use smarts_uarch::MachineConfig;
use std::io::Write as _;

/// One probe is enough: residency scales with unit *count*, not with
/// which kernel produced the units, and the decode path is the same
/// delta codec the `ckpt` bench already sweeps across the probe set.
const PROBE: &str = "hashp-2";

/// Replay workers for the lazy residency measurement. The lazy bound is
/// O(workers); two workers keeps the figure comparable across hosts.
const JOBS: usize = 2;

const UNIT_SIZE: u64 = 1000;
const DETAILED_WARMING: u64 = 2000;

fn fail(msg: &str) -> ! {
    eprintln!("store_mem: {msg}");
    std::process::exit(1)
}

fn main() {
    let args = smarts_bench::HarnessArgs::parse();
    let target_units: u64 = if args.quick { 400 } else { 10_000 };
    let probe = args.bench.clone().unwrap_or_else(|| PROBE.to_string());
    smarts_bench::banner(
        "Store-replay residency",
        "peak resident checkpoint bytes and decode rate of lazy mmap replay vs eager decode",
    );

    let cfg = MachineConfig::eight_way();
    let sim = SmartsSim::new(cfg.clone());
    let base = smarts_workloads::find(&probe)
        .unwrap_or_else(|| fail(&format!("unknown benchmark {probe}")));
    // Scale the stream so `for_sample_size` lands at its minimum
    // interval and the store holds ~target_units units.
    let min_interval = DETAILED_WARMING.div_ceil(UNIT_SIZE) + 2;
    let target_len = (target_units * min_interval * UNIT_SIZE) as f64 * 1.02;
    let scale = target_len / base.approx_len() as f64;
    let bench = base.scaled(scale);
    let params = SamplingParams::for_sample_size(
        bench.approx_len(),
        UNIT_SIZE,
        DETAILED_WARMING,
        Warming::Functional,
        target_units,
        0,
    )
    .unwrap_or_else(|e| fail(&format!("bad parameters: {e}")));
    let meta = StoreMeta {
        params,
        benchmark: probe.clone(),
        scale,
        isa: IsaId::Builtin,
    };

    // Warm once (untimed) — write the store and account what an eager
    // full decode would keep resident, without materializing it.
    let path =
        std::env::temp_dir().join(format!("smarts-bench-storemem-{}.ckpt", std::process::id()));
    let mut writer = CkptWriter::create(&path, &cfg, &meta)
        .unwrap_or_else(|e| fail(&format!("cannot create store: {e}")));
    let mut eager_bytes = 0u64;
    sim.stream_checkpoints(bench.load(), &params, |checkpoint| {
        eager_bytes += UnitCheckpoint::approx_resident_bytes(&checkpoint);
        writer.append(&checkpoint).is_ok()
    })
    .unwrap_or_else(|e| fail(&format!("warming failed: {e}")));
    let file_bytes = writer
        .finish()
        .unwrap_or_else(|e| fail(&format!("cannot finish store: {e}")))
        .bytes;

    let store =
        MappedStore::open(&path, &cfg).unwrap_or_else(|e| fail(&format!("cannot open store: {e}")));
    let units = store.len() as u64;

    // Lazy-decode rate: a rolling cursor walk (flat decode + rebuild),
    // the per-record work one replay worker does before simulating.
    let decode = time(|| {
        let mut cursor = store.cursor();
        for index in 0..store.len() {
            let flat = cursor.flat_at(index).expect("intact record");
            flat.rebuild(&cfg).expect("store geometry matches");
        }
    });
    let decode_mips = (units * UNIT_SIZE) as f64 / 1e6 / decode.as_secs_f64();

    // Lazy peak residency: a real replay through the executor, with the
    // per-claim flat + rebuilt-checkpoint accounting.
    let executor = Executor::new(JOBS).unwrap_or_else(|e| fail(&format!("executor: {e}")));
    let replayed = replay_store_mapped::<BuiltinIsa>(&executor, &sim, &store)
        .unwrap_or_else(|e| fail(&format!("lazy replay failed: {e}")));
    if let Some(damage) = &replayed.damage {
        fail(&format!("fresh store reported damage: {damage}"));
    }
    let stats = replayed
        .report
        .pipeline
        .as_ref()
        .unwrap_or_else(|| fail("lazy replay reported no pipeline stats"));
    let lazy_peak_bytes = stats.peak_resident_bytes;
    let lazy_peak_checkpoints = stats.peak_resident_checkpoints;
    let ratio = eager_bytes as f64 / lazy_peak_bytes.max(1) as f64;
    std::fs::remove_file(&path).ok();

    let mib = |bytes: u64| bytes as f64 / (1024.0 * 1024.0);
    println!(
        "{:<12} {:>6} {:>12} {:>14} {:>13} {:>8} {:>12}",
        "benchmark", "units", "file MiB", "eager MiB", "lazy-peak MiB", "ratio", "decode MIPS"
    );
    println!(
        "{:<12} {:>6} {:>12.1} {:>14.1} {:>13.2} {:>7.0}x {:>12.1}",
        probe,
        units,
        mib(file_bytes),
        mib(eager_bytes),
        mib(lazy_peak_bytes),
        ratio,
        decode_mips
    );
    println!(
        "\nlazy replay held {lazy_peak_checkpoints} checkpoints at peak \
         ({JOBS} workers); decode median {}",
        timing::pretty(decode)
    );

    write_json(
        &probe,
        scale,
        units,
        file_bytes,
        eager_bytes,
        lazy_peak_bytes,
        lazy_peak_checkpoints,
        ratio,
        decode_mips,
    )
    .expect("write results/bench_store_mem.json");
    println!("wrote results/bench_store_mem.json");
}

/// Emits the machine-readable baseline (hand-rolled JSON: the workspace
/// builds offline, with no serde).
#[allow(clippy::too_many_arguments)]
fn write_json(
    benchmark: &str,
    scale: f64,
    units: u64,
    file_bytes: u64,
    eager_bytes: u64,
    lazy_peak_bytes: u64,
    lazy_peak_checkpoints: usize,
    ratio: f64,
    decode_mips: f64,
) -> std::io::Result<()> {
    std::fs::create_dir_all("results")?;
    let mut f = std::fs::File::create("results/bench_store_mem.json")?;
    writeln!(f, "{{")?;
    writeln!(f, "  \"bench\": \"store_mem\",")?;
    writeln!(f, "  \"samples_per_case\": {},", timing::SAMPLES)?;
    writeln!(f, "  \"machine\": \"8-way\",")?;
    writeln!(f, "  \"jobs\": {JOBS},")?;
    writeln!(f, "  \"results\": [")?;
    writeln!(f, "    {{")?;
    writeln!(f, "      \"benchmark\": \"{benchmark}\",")?;
    writeln!(f, "      \"scale\": {scale},")?;
    writeln!(f, "      \"units\": {units},")?;
    writeln!(f, "      \"file_bytes\": {file_bytes},")?;
    writeln!(f, "      \"eager_resident_bytes\": {eager_bytes},")?;
    writeln!(f, "      \"lazy_peak_bytes\": {lazy_peak_bytes},")?;
    writeln!(
        f,
        "      \"lazy_peak_checkpoints\": {lazy_peak_checkpoints},"
    )?;
    writeln!(f, "      \"residency_ratio\": {ratio:.1},")?;
    writeln!(f, "      \"decode_mips\": {decode_mips:.3}")?;
    writeln!(f, "    }}")?;
    writeln!(f, "  ]")?;
    writeln!(f, "}}")?;
    Ok(())
}
