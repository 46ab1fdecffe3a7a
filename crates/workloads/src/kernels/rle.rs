//! `rle` — run-length encoding over a byte buffer, in the spirit of
//! `gzip`: byte loads, data-dependent run detection, and bursty stores
//! whose density depends on the data's compressibility.
//!
//! Compressible inputs (long runs) make the inner comparison branch
//! strongly biased and stores rare; incompressible inputs flip both —
//! so one kernel covers two behavioural regimes via its `run_len` input
//! parameter, mirroring gzip's input sensitivity in the paper's suite.

use super::DATA_BASE;
use crate::rng::SplitMix64;
use smarts_isa::{reg, Asm, Memory, Program};

/// Builds the RLE kernel: encodes a buffer of `n` bytes, `reps` times.
/// Input data consists of runs of geometric-ish length around
/// `mean_run_len` (1 = incompressible noise).
///
/// Dynamic length ≈ `reps · 8·n` instructions.
///
/// # Panics
///
/// Panics if `n < 2`, or `reps`/`mean_run_len` is zero.
pub fn build(n: usize, reps: u64, mean_run_len: usize, seed: u64) -> (Program, Memory) {
    assert!(n >= 2 && reps > 0 && mean_run_len > 0);
    let src = DATA_BASE;
    let dst = DATA_BASE + n as u64 + 4096;

    let mut memory = Memory::new();
    let mut rng = SplitMix64::new(seed);
    let mut i = 0usize;
    while i < n {
        let value = (rng.next_u64() & 0xFF) as u8;
        let run = 1 + (rng.below(2 * mean_run_len as u64 - 1)) as usize;
        for _ in 0..run.min(n - i) {
            memory.write_u8(src + i as u64, value);
            i += 1;
        }
    }

    let mut a = Asm::new();
    a.li(reg::S7, reps as i64);
    let rep_top = a.label();
    a.bind(rep_top).expect("label binds once");
    // s0 = src cursor, s1 = src end, s2 = dst cursor,
    // t0 = current run byte, t2 = run length.
    a.li(reg::S0, src as i64);
    a.li(reg::S1, (src + n as u64) as i64);
    a.li(reg::S2, dst as i64);
    a.lbu(reg::T0, reg::S0, 0);
    a.addi(reg::S0, reg::S0, 1);
    a.li(reg::T2, 1);
    let scan = a.label();
    let flush = a.label();
    let next = a.label();
    let done = a.label();
    a.bind(scan).expect("label binds once");
    a.bge(reg::S0, reg::S1, done);
    a.lbu(reg::T1, reg::S0, 0);
    a.addi(reg::S0, reg::S0, 1);
    a.bne(reg::T1, reg::T0, flush);
    a.addi(reg::T2, reg::T2, 1); // extend the run
    a.j(scan);
    a.bind(flush).expect("label binds once");
    // Emit (byte, count) and start a new run.
    a.sb(reg::T0, reg::S2, 0);
    a.sb(reg::T2, reg::S2, 1);
    a.addi(reg::S2, reg::S2, 2);
    a.mv(reg::T0, reg::T1);
    a.li(reg::T2, 1);
    a.j(scan);
    a.bind(next).expect("label binds once");
    a.bind(done).expect("label binds once");
    // Final flush.
    a.sb(reg::T0, reg::S2, 0);
    a.sb(reg::T2, reg::S2, 1);
    a.addi(reg::S7, reg::S7, -1);
    a.bnez(reg::S7, rep_top);
    a.halt();

    (a.finish().expect("rle kernel assembles"), memory)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::testutil::run_to_halt;

    fn decode(memory: &Memory, dst: u64, src_len: usize) -> Vec<u8> {
        let mut out = Vec::new();
        let mut at = dst;
        while out.len() < src_len {
            let byte = memory.read_u8(at);
            let count = memory.read_u8(at + 1);
            if count == 0 {
                break;
            }
            for _ in 0..count {
                out.push(byte);
            }
            at += 2;
        }
        out
    }

    #[test]
    fn encoding_round_trips_compressible_data() {
        let n = 200;
        let (program, memory) = build(n, 1, 8, 42);
        // Capture the source before running.
        let src: Vec<u8> = (0..n as u64)
            .map(|i| memory.read_u8(DATA_BASE + i))
            .collect();
        let (_, memory) = run_to_halt(&program, memory, 200_000).unwrap();
        let dst = DATA_BASE + n as u64 + 4096;
        let decoded = decode(&memory, dst, n);
        assert_eq!(decoded, src, "RLE encode must be lossless for short runs");
    }

    #[test]
    fn incompressible_data_emits_more_output() {
        let n = 400;
        let out_bytes = |mean_run: usize| {
            let (program, memory) = build(n, 1, mean_run, 7);
            let (_, memory) = run_to_halt(&program, memory, 400_000).unwrap();
            let dst = DATA_BASE + n as u64 + 4096;
            let mut count = 0u64;
            let mut at = dst;
            loop {
                let c = memory.read_u8(at + 1);
                if c == 0 {
                    break;
                }
                count += 2;
                at += 2;
            }
            count
        };
        let noisy = out_bytes(1);
        let runny = out_bytes(16);
        assert!(
            noisy > runny * 3,
            "noise ({noisy} B) should out-emit runs ({runny} B)"
        );
    }

    #[test]
    fn reps_scale_the_work() {
        let (p1, m1) = build(100, 1, 4, 3);
        let (p2, m2) = build(100, 3, 4, 3);
        let (c1, _) = run_to_halt(&p1, m1, 100_000).unwrap();
        let (c2, _) = run_to_halt(&p2, m2, 100_000).unwrap();
        let per_rep = c1.retired() - 1; // minus halt
        assert!(
            c2.retired() > 2 * per_rep,
            "{} vs {}",
            c2.retired(),
            c1.retired()
        );
    }
}
