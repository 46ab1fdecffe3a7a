//! Small deterministic generators used for data initialization.
//!
//! Workload construction must be reproducible from a seed alone, and the
//! workspace builds offline, so kernels draw from the workspace's one
//! splitmix64 ([`SplitMix64`], defined in `smarts-stats`) plus the
//! permutation below instead of depending on `rand`.

pub use smarts_stats::SplitMix64;

/// A random cyclic permutation of `0..n` (a single cycle visiting every
/// element), used to build pointer-chase chains with no short cycles.
///
/// Uses Sattolo's algorithm.
pub fn cyclic_permutation(n: usize, seed: u64) -> Vec<u32> {
    assert!(n >= 2, "a cycle needs at least two elements");
    let mut items: Vec<u32> = (0..n as u32).collect();
    let mut rng = SplitMix64::new(seed);
    // Sattolo: shuffle into a single cycle.
    for i in (1..n).rev() {
        let j = rng.below(i as u64) as usize;
        items.swap(i, j);
    }
    // items is now a cyclic order; produce next[] mapping.
    let mut next = vec![0u32; n];
    for w in 0..n {
        next[items[w] as usize] = items[(w + 1) % n];
    }
    next
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut rng = SplitMix64::new(3);
        for _ in 0..1000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = SplitMix64::new(9);
        let mut items: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut items);
        let mut sorted = items.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<u32>>());
        assert_ne!(items, sorted, "a 100-element shuffle should move something");
    }

    #[test]
    fn shuffle_handles_degenerate_slices() {
        let mut rng = SplitMix64::new(9);
        let mut empty: [u32; 0] = [];
        rng.shuffle(&mut empty);
        let mut one = [7u32];
        rng.shuffle(&mut one);
        assert_eq!(one, [7]);
    }

    #[test]
    fn cyclic_permutation_is_one_cycle() {
        for seed in [1, 2, 42] {
            let n = 257;
            let next = cyclic_permutation(n, seed);
            let mut seen = vec![false; n];
            let mut at = 0usize;
            for _ in 0..n {
                assert!(!seen[at], "revisited {at} before covering the cycle");
                seen[at] = true;
                at = next[at] as usize;
            }
            assert_eq!(at, 0, "walk returns to the start after n steps");
            assert!(seen.iter().all(|&s| s));
        }
    }
}
