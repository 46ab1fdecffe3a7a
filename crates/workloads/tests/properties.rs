//! Randomized tests of the workload generators: every kernel must
//! terminate, be deterministic in its seed, and scale linearly. Cases
//! come from the crate's own `SplitMix64`, so the suite needs no
//! external crates and failures reproduce from the fixed seeds.

use smarts_isa::{Cpu, Memory};
use smarts_workloads::{cyclic_permutation, kernels, suite, SplitMix64};

fn run(program: &smarts_isa::Program, mut memory: Memory, budget: u64) -> (Cpu, Memory) {
    let mut cpu = Cpu::new();
    cpu.run(program, &mut memory, budget)
        .expect("kernel executes");
    assert!(cpu.halted(), "kernel must halt within {budget}");
    (cpu, memory)
}

const CASES: u64 = 24;

#[test]
fn chase_terminates_for_any_geometry() {
    let mut rng = SplitMix64::new(101);
    for _ in 0..CASES {
        let nodes = 2 + rng.below(510) as usize;
        let steps = 1 + rng.below(1999);
        let seed = rng.below(100);
        let (program, memory) = kernels::chase::build(nodes, steps, seed);
        let (cpu, _) = run(&program, memory, 3 * steps + 100);
        assert_eq!(cpu.retired(), 3 * steps + 3);
    }
}

#[test]
fn stream_is_seed_deterministic() {
    let mut rng = SplitMix64::new(102);
    for _ in 0..CASES {
        let n = 1 + rng.below(255) as usize;
        let reps = 1 + rng.below(3);
        let seed = rng.below(50);
        let run_once = || {
            let (program, memory) = kernels::stream::build(n, reps, seed);
            let (_, memory) = run(&program, memory, 1_000_000);
            (0..n as u64)
                .map(|i| memory.read_f64(kernels::DATA_BASE + i * 8).to_bits())
                .collect::<Vec<u64>>()
        };
        assert_eq!(run_once(), run_once());
    }
}

#[test]
fn sortk_always_terminates_and_bubbles_maxima() {
    let mut rng = SplitMix64::new(103);
    for _ in 0..CASES {
        let n = 2 + rng.below(62) as usize;
        let passes = 1 + rng.below(3);
        let seed = rng.below(50);
        let (program, memory) = kernels::sortk::build(n, passes, 1, seed, false);
        let (_, memory) = run(&program, memory, 3_000_000);
        let values: Vec<i64> = (0..n as u64)
            .map(|i| memory.read_u64(kernels::DATA_BASE + i * 8) as i64)
            .collect();
        // After p bubble passes, the top p elements are in final position.
        let mut sorted = values.clone();
        sorted.sort_unstable();
        for i in 0..(passes as usize).min(n) {
            assert_eq!(values[n - 1 - i], sorted[n - 1 - i]);
        }
    }
}

#[test]
fn cyclic_permutation_is_always_one_cycle() {
    let mut rng = SplitMix64::new(104);
    for _ in 0..CASES {
        let n = 2 + rng.below(398) as usize;
        let seed = rng.next_u64();
        let next = cyclic_permutation(n, seed);
        let mut at = 0usize;
        let mut visited = 0;
        loop {
            at = next[at] as usize;
            visited += 1;
            if at == 0 {
                break;
            }
            assert!(visited <= n, "walk did not close after {n} steps");
        }
        assert_eq!(visited, n);
    }
}

#[test]
fn splitmix_next_below_is_in_range() {
    let mut meta = SplitMix64::new(105);
    for _ in 0..CASES {
        let seed = meta.next_u64();
        let bound = 1 + meta.below(999_999);
        let mut rng = SplitMix64::new(seed);
        for _ in 0..100 {
            assert!(rng.below(bound) < bound);
        }
    }
}

#[test]
fn scaling_changes_length_roughly_linearly() {
    let mut rng = SplitMix64::new(106);
    for _ in 0..CASES {
        let factor = 0.2 + 0.8 * rng.next_f64();
        for bench in suite().into_iter().take(4) {
            let base = bench.approx_len() as f64;
            let scaled = bench.scaled(factor).approx_len() as f64;
            let ratio = scaled / base;
            assert!(
                (ratio - factor).abs() < 0.35,
                "{}: ratio {ratio} vs factor {factor}",
                bench.name()
            );
        }
    }
}

#[test]
fn every_kernel_family_is_deterministic_end_to_end() {
    for bench in smarts_workloads::scaled_suite(0.01) {
        let digest = |_: ()| {
            let loaded = bench.load();
            let mut cpu = Cpu::new();
            let mut mem = loaded.memory;
            cpu.run(&loaded.program, &mut mem, u64::MAX).unwrap();
            let mut acc = 0u64;
            for r in 0..32 {
                acc = acc.wrapping_mul(31).wrapping_add(cpu.reg(r));
            }
            (cpu.retired(), acc)
        };
        assert_eq!(digest(()), digest(()), "{} not deterministic", bench.name());
    }
}
