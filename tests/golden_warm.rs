//! Golden-state equivalence: every suite benchmark's `SampleReport` must
//! be bit-identical to the fingerprints recorded *before* the warm-state
//! layout optimisation (packed cache/TLB/BTB lines, MRU fast path,
//! batched warming loop) — re-pinned once since, when `SmartsSim::sample`
//! became the warming pass replaying each unit from its checkpoint.
//!
//! Functional warming's contract is that warmed state is exactly the
//! state the old structures would have produced for the same in-order
//! access stream; any layout or hot-loop change that perturbs a single
//! replacement decision shows up here as a changed cycle count or CPI
//! bit pattern. Regenerate the goldens only for intentional behaviour
//! changes: `cargo run --release --example gen_golden_warm >
//! tests/golden_sample_reports.txt`.

use smarts::prelude::*;

#[derive(Debug, PartialEq, Eq)]
struct Fingerprint {
    name: String,
    n: u64,
    cpi_mean_bits: u64,
    cpi_cv_bits: u64,
    epi_mean_bits: u64,
    unit_cycles: u64,
    fast_forwarded: u64,
    detailed_warmed: u64,
    measured: u64,
}

fn golden() -> Vec<Fingerprint> {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden_sample_reports.txt"
    );
    let text = std::fs::read_to_string(path).expect("golden file present");
    text.lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|line| {
            let f: Vec<&str> = line.split_whitespace().collect();
            assert_eq!(f.len(), 9, "malformed golden line: {line}");
            Fingerprint {
                name: f[0].to_string(),
                n: f[1].parse().unwrap(),
                cpi_mean_bits: f[2].parse().unwrap(),
                cpi_cv_bits: f[3].parse().unwrap(),
                epi_mean_bits: f[4].parse().unwrap(),
                unit_cycles: f[5].parse().unwrap(),
                fast_forwarded: f[6].parse().unwrap(),
                detailed_warmed: f[7].parse().unwrap(),
                measured: f[8].parse().unwrap(),
            }
        })
        .collect()
}

fn fingerprint(bench: &Benchmark) -> Fingerprint {
    let sim = SmartsSim::new(MachineConfig::eight_way());
    let params =
        SamplingParams::for_sample_size(bench.approx_len(), 1000, 2000, Warming::Functional, 10, 0)
            .expect("valid sampling parameters");
    let report = sim.sample(bench, &params).expect("sampling run");
    Fingerprint {
        name: bench.name().to_string(),
        n: report.sample_size(),
        cpi_mean_bits: report.cpi().mean().to_bits(),
        cpi_cv_bits: report.cpi().coefficient_of_variation().to_bits(),
        epi_mean_bits: report.epi().mean().to_bits(),
        unit_cycles: report.units.iter().map(|u| u.cycles).sum(),
        fast_forwarded: report.instructions.fast_forwarded,
        detailed_warmed: report.instructions.detailed_warmed,
        measured: report.instructions.measured,
    }
}

#[test]
fn sample_reports_match_pre_optimisation_goldens() {
    let goldens = golden();
    assert_eq!(goldens.len(), smarts_workloads::suite().len());
    for want in &goldens {
        let bench = find(&want.name).expect("suite benchmark").scaled(0.05);
        let got = fingerprint(&bench);
        assert_eq!(&got, want, "{} diverged from its golden report", want.name);
    }
}
