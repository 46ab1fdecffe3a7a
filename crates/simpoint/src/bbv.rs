//! Basic-block-vector profiling.
//!
//! SimPoint characterizes each fixed-length interval of the dynamic
//! stream by a *basic block vector*: how many instructions the interval
//! spent in each static basic block. Intervals with similar vectors are
//! assumed to have similar performance.

use smarts_core::FunctionalEngine;
use smarts_uarch::TraceSource;
use smarts_workloads::LoadedBenchmark;

/// A profiled interval: its index in the stream and its (dense)
/// per-block instruction counts.
#[derive(Debug, Clone, PartialEq)]
pub struct BbVector {
    /// Interval index (interval `i` covers instructions
    /// `[i·interval, (i+1)·interval)`).
    pub index: u64,
    /// Instructions executed in each static basic block.
    pub counts: Vec<u64>,
}

impl BbVector {
    /// The vector normalized to relative frequencies (sums to 1).
    pub fn frequencies(&self) -> Vec<f64> {
        let total: u64 = self.counts.iter().sum();
        if total == 0 {
            return vec![0.0; self.counts.len()];
        }
        self.counts
            .iter()
            .map(|&c| c as f64 / total as f64)
            .collect()
    }
}

/// Result of a full-stream BBV profiling pass.
#[derive(Debug, Clone)]
pub struct BbvProfile {
    /// One vector per whole interval, in stream order. A trailing partial
    /// interval is excluded (matching the SimPoint tool).
    pub vectors: Vec<BbVector>,
    /// Interval length in instructions.
    pub interval: u64,
    /// Number of static basic blocks.
    pub blocks: usize,
    /// Total instructions profiled (including any partial tail).
    pub instructions: u64,
}

/// Profiles a benchmark's dynamic stream into per-interval basic block
/// vectors using a single functional pass.
///
/// # Panics
///
/// Panics if `interval` is zero.
pub fn profile(loaded: LoadedBenchmark, interval: u64) -> BbvProfile {
    assert!(interval > 0, "interval must be nonzero");
    // Precompute pc → block id for O(1) per-instruction classification.
    let leaders = loaded.program.basic_block_leaders();
    let blocks = leaders.len();
    let mut block_of = vec![0u32; loaded.program.len() as usize];
    {
        let mut current = 0usize;
        let mut next_leader = 1usize;
        for (pc, slot) in block_of.iter_mut().enumerate() {
            if next_leader < leaders.len() && pc as u64 == leaders[next_leader] {
                current = next_leader;
                next_leader += 1;
            }
            *slot = current as u32;
        }
    }

    let mut engine = FunctionalEngine::new(loaded);
    let mut vectors = Vec::new();
    let mut counts = vec![0u64; blocks];
    let mut in_interval = 0u64;
    let mut index = 0u64;
    let mut instructions = 0u64;
    while let Some(rec) = engine.next_record() {
        counts[block_of[rec.pc as usize] as usize] += 1;
        in_interval += 1;
        instructions += 1;
        if in_interval == interval {
            vectors.push(BbVector {
                index,
                counts: std::mem::replace(&mut counts, vec![0; blocks]),
            });
            in_interval = 0;
            index += 1;
        }
    }
    BbvProfile {
        vectors,
        interval,
        blocks,
        instructions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smarts_workloads::find;

    #[test]
    fn profile_partitions_the_stream() {
        let bench = find("branchy-1").unwrap().scaled(0.02);
        let loaded = bench.load();
        let profile = profile(loaded, 10_000);
        assert!(!profile.vectors.is_empty());
        for v in &profile.vectors {
            assert_eq!(v.counts.iter().sum::<u64>(), 10_000);
        }
        assert_eq!(profile.vectors.len() as u64, profile.instructions / 10_000);
    }

    #[test]
    fn frequencies_sum_to_one() {
        let bench = find("loopy-1").unwrap().scaled(0.02);
        let profile = profile(bench.load(), 5_000);
        let freq = profile.vectors[0].frequencies();
        let sum: f64 = freq.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn steady_loop_produces_identical_vectors() {
        let bench = find("loopy-1").unwrap().scaled(0.02);
        let profile = profile(bench.load(), 6_000); // multiple of loop period
        let first = &profile.vectors[1];
        for v in &profile.vectors[2..] {
            assert_eq!(v.counts, first.counts);
        }
    }

    #[test]
    fn phased_code_shares_vectors_across_phases() {
        // The `phased` kernel's key property: both locality phases execute
        // the same blocks, so interior BBVs look alike even though CPI
        // differs wildly — the SimPoint failure mode of Section 5.3.
        let bench = find("phased-1").unwrap().scaled(0.5);
        let loaded = bench.load();
        let profile = profile(loaded, 30_000);
        assert!(profile.vectors.len() >= 8);
        let mid = |v: &BbVector| v.frequencies();
        // Compare an early-phase interior vector with a late one.
        let a = mid(&profile.vectors[1]);
        let b = mid(&profile.vectors[profile.vectors.len() - 2]);
        let dist: f64 = a.iter().zip(&b).map(|(x, y)| (x - y).abs()).sum();
        assert!(dist < 0.05, "manhattan distance {dist} should be tiny");
    }
}
