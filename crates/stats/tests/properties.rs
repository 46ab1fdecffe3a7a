//! Randomized property tests of the statistical core, driven by the
//! crate's deterministic splitmix64 so the suite needs no external crates
//! and every failure is reproducible from the fixed seeds.

use smarts_stats::{
    bias, confidence_interval, intraclass_correlation, relative_half_width, required_sample_size,
    systematic_sample_means, variation_curve, Confidence, RandomDesign, RunningStats,
    SampleEstimate, SplitMix64,
};

/// The crate's splitmix64, with the draws these properties need.
struct Rng(SplitMix64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(SplitMix64::new(seed))
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.0.below(bound)
    }

    /// Uniform f64 in [lo, hi).
    fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.0.next_f64() * (hi - lo)
    }

    fn observations(&mut self, len_range: std::ops::Range<u64>, lo: f64, hi: f64) -> Vec<f64> {
        let len = len_range.start + self.below(len_range.end - len_range.start);
        (0..len).map(|_| self.uniform(lo, hi)).collect()
    }
}

const CASES: u64 = 64;

#[test]
fn running_stats_match_two_pass_reference() {
    let mut rng = Rng::new(11);
    for _ in 0..CASES {
        let xs = rng.observations(2..200, -1e6, 1e6);
        let stats: RunningStats = xs.iter().copied().collect();
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1.0);
        assert!((stats.mean() - mean).abs() <= 1e-6 * (1.0 + mean.abs()));
        assert!((stats.variance() - var).abs() <= 1e-5 * (1.0 + var.abs()));
        assert!(stats.min() <= stats.mean() + 1e-9);
        assert!(stats.max() >= stats.mean() - 1e-9);
    }
}

#[test]
fn merge_is_equivalent_to_concatenation() {
    let mut rng = Rng::new(22);
    for _ in 0..CASES {
        let a = rng.observations(2..200, -1e6, 1e6);
        let b = rng.observations(2..200, -1e6, 1e6);
        let mut left: RunningStats = a.iter().copied().collect();
        let right: RunningStats = b.iter().copied().collect();
        left.merge(&right);
        let both: RunningStats = a.iter().chain(b.iter()).copied().collect();
        assert_eq!(left.count(), both.count());
        assert!((left.mean() - both.mean()).abs() <= 1e-6 * (1.0 + both.mean().abs()));
        assert!((left.variance() - both.variance()).abs() <= 1e-5 * (1.0 + both.variance().abs()));
        assert_eq!(left.min(), both.min());
        assert_eq!(left.max(), both.max());
    }
}

#[test]
fn merge_is_associative_across_many_chunks() {
    // Splitting one stream at arbitrary points and folding the chunk
    // accumulators left-to-right agrees with one-pass accumulation —
    // the property the parallel merge layer rests on.
    let mut rng = Rng::new(33);
    for _ in 0..CASES {
        let xs = rng.observations(8..300, 0.1, 100.0);
        let chunks = 1 + rng.below(7) as usize;
        let mut folded = RunningStats::new();
        for chunk in xs.chunks(xs.len().div_ceil(chunks)) {
            let partial: RunningStats = chunk.iter().copied().collect();
            folded.merge(&partial);
        }
        let whole: RunningStats = xs.iter().copied().collect();
        assert_eq!(folded.count(), whole.count());
        assert!((folded.mean() - whole.mean()).abs() <= 1e-9 * (1.0 + whole.mean().abs()));
        assert!(
            (folded.variance() - whole.variance()).abs() <= 1e-9 * (1.0 + whole.variance().abs())
        );
    }
}

#[test]
fn required_n_achieves_the_target() {
    let mut rng = Rng::new(44);
    for _ in 0..CASES {
        let cv = rng.uniform(0.0, 10.0);
        let eps = rng.uniform(0.001, 0.5);
        let level = rng.uniform(0.5, 0.999);
        let conf = Confidence::new(level).unwrap();
        let n = required_sample_size(cv, eps, conf).unwrap();
        let achieved = relative_half_width(cv, n, conf).unwrap();
        assert!(
            achieved <= eps * (1.0 + 1e-9),
            "achieved {achieved} at n={n} for target {eps}"
        );
        if n > 30 {
            let under = relative_half_width(cv, n - 1, conf).unwrap();
            assert!(under > eps);
        }
    }
}

#[test]
fn half_width_monotonic_in_n_and_cv() {
    let mut rng = Rng::new(55);
    for _ in 0..CASES {
        let cv = rng.uniform(0.01, 5.0);
        let n = 1 + rng.below(100_000);
        let conf = Confidence::NINETY_FIVE;
        let base = relative_half_width(cv, n, conf).unwrap();
        assert!(relative_half_width(cv, n + 1, conf).unwrap() <= base);
        assert!(relative_half_width(cv * 1.1, n, conf).unwrap() >= base);
    }
}

#[test]
fn interval_is_symmetric_and_contains_mean() {
    let mut rng = Rng::new(66);
    for _ in 0..CASES {
        let mean = rng.uniform(-1e3, 1e3);
        let cv = rng.uniform(0.0, 5.0);
        let n = 1 + rng.below(10_000);
        let est = SampleEstimate::new(mean, cv, n);
        let (lo, hi) = est.interval(Confidence::NINETY_FIVE).unwrap();
        assert!(lo <= mean && mean <= hi);
        assert!((hi - mean) - (mean - lo) <= 1e-9 * (1.0 + mean.abs()));
        let half = confidence_interval(mean, cv, n, Confidence::NINETY_FIVE).unwrap();
        assert!((hi - mean - half).abs() <= 1e-9 * (1.0 + half));
    }
}

#[test]
fn random_design_is_sorted_distinct_in_range() {
    let mut rng = Rng::new(99);
    for _ in 0..CASES {
        let population = 1 + rng.below(10_000);
        let seed = rng.below(1000);
        let n = (population / 2).max(1);
        let design = RandomDesign::draw(1, population, n, seed).unwrap();
        let idx: Vec<u64> = design.unit_indices().collect();
        assert_eq!(idx.len() as u64, n);
        for pair in idx.windows(2) {
            assert!(pair[0] < pair[1]);
        }
        assert!(idx.iter().all(|&i| i < population));
    }
}

#[test]
fn variation_curve_grand_mean_invariant() {
    let mut rng = Rng::new(111);
    for _ in 0..CASES {
        let xs = rng.observations(16..128, 0.1, 10.0);
        let curve = variation_curve(&xs, 1, &[2]);
        if let Some(point) = curve.first() {
            let whole = (xs.len() / 2) * 2;
            let grand = xs[..whole].iter().sum::<f64>() / whole as f64;
            let aggregated: Vec<f64> = xs[..whole].chunks(2).map(|c| (c[0] + c[1]) / 2.0).collect();
            let agg_mean = aggregated.iter().sum::<f64>() / aggregated.len() as f64;
            assert!((grand - agg_mean).abs() < 1e-9);
            assert!(point.coefficient_of_variation >= 0.0);
        }
    }
}

#[test]
fn aggregation_never_increases_variation() {
    let mut rng = Rng::new(122);
    for _ in 0..CASES {
        let xs = rng.observations(64..256, 0.1, 10.0);
        let curve = variation_curve(&xs, 1, &[1, xs.len() / 2]);
        for point in &curve {
            assert!(point.coefficient_of_variation.is_finite());
            assert!(point.coefficient_of_variation >= 0.0);
        }
    }
}

#[test]
fn systematic_means_average_to_population_mean() {
    let mut rng = Rng::new(133);
    for _ in 0..CASES {
        let xs = rng.observations(10..200, 0.1, 10.0);
        let interval = 1 + rng.below(9) as usize;
        let whole = (xs.len() / interval) * interval;
        if whole >= interval {
            let xs = &xs[..whole];
            let means = systematic_sample_means(xs, interval);
            let recovered = means.iter().sum::<f64>() / means.len() as f64;
            let grand = xs.iter().sum::<f64>() / xs.len() as f64;
            assert!((recovered - grand).abs() < 1e-9);
        }
    }
}

#[test]
fn icc_bounded_below_by_minus_one_over_n_minus_1() {
    let mut rng = Rng::new(144);
    for _ in 0..CASES {
        let xs = rng.observations(20..200, 0.0, 10.0);
        let delta = intraclass_correlation(&xs, 5);
        let n = xs.len() / 5;
        if n >= 2 {
            assert!(delta >= -1.0 / (n as f64 - 1.0) - 1e-6, "delta = {delta}");
            assert!(delta <= 1.0 + 1e-9);
        }
    }
}

#[test]
fn bias_of_exact_estimates_is_zero() {
    let mut rng = Rng::new(155);
    for _ in 0..CASES {
        let truth = rng.uniform(-100.0, 100.0);
        assert!(bias(&[truth, truth, truth], truth).abs() < 1e-12);
    }
}
