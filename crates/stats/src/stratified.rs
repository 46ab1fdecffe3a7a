//! Stratified estimation: Neyman allocation, a deterministic 1-D
//! clusterer for building strata from pilot measurements, and the
//! stratified mean/variance estimator with its confidence interval.
//!
//! Stratification exploits structure systematic sampling ignores: when
//! the per-unit metric clusters into phases (Figure 2's `phased-*`
//! workloads), the within-stratum variation Σ W_h·σ_h can be far below
//! the population σ, and the sample size needed for a `±ε` interval
//! shrinks by the square of that ratio. The machinery here is
//! simulator-independent — it operates on plain `f64` values and `u64`
//! unit indices — and is driven by the samplers in [`crate::sampler`].

use crate::{Confidence, RunningStats, StatsError};

/// One stratum of a [`StratifiedEstimator`]: its population size `N_h`
/// and the running moments of the values sampled from it.
#[derive(Debug, Clone)]
struct Stratum {
    population: u64,
    stats: RunningStats,
}

/// Stratified mean estimator over a finite population partitioned into
/// strata of known sizes.
///
/// The point estimate is the stratum-weighted mean `μ̂ = Σ W_h·ȳ_h`
/// with `W_h = N_h / N`, and its variance is estimated as
/// `Var(μ̂) = Σ W_h²·(s_h²/n_h)·(1 − n_h/N_h)` — the textbook
/// stratified-sampling formula with the finite-population correction. A
/// stratum with fewer than two observations borrows the pooled sample
/// variance as a conservative stand-in for its own `s_h²`.
#[derive(Debug, Clone)]
pub(crate) struct StratifiedEstimator {
    strata: Vec<Stratum>,
}

impl StratifiedEstimator {
    /// Creates an estimator over strata of the given population sizes,
    /// with the finite-population correction enabled.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::ZeroDesignParameter`] when `sizes` is empty
    /// or any stratum is empty.
    pub fn new(sizes: &[u64]) -> Result<Self, StatsError> {
        if sizes.is_empty() {
            return Err(StatsError::ZeroDesignParameter("strata"));
        }
        if sizes.contains(&0) {
            return Err(StatsError::ZeroDesignParameter("stratum population"));
        }
        Ok(StratifiedEstimator {
            strata: sizes
                .iter()
                .map(|&population| Stratum {
                    population,
                    stats: RunningStats::new(),
                })
                .collect(),
        })
    }

    /// Adds one observation to stratum `h`.
    ///
    /// # Panics
    ///
    /// Panics when `h` is out of range.
    pub fn observe(&mut self, h: usize, value: f64) {
        self.strata[h].stats.push(value);
    }

    /// Number of strata.
    pub fn stratum_count(&self) -> usize {
        self.strata.len()
    }

    /// Total observations accumulated across strata.
    pub fn sample_size(&self) -> u64 {
        self.strata.iter().map(|s| s.stats.count()).sum()
    }

    /// Observations accumulated in stratum `h`.
    pub fn stratum_sample_size(&self, h: usize) -> u64 {
        self.strata[h].stats.count()
    }

    /// Sample standard deviation of stratum `h` (0 with < 2 values).
    pub fn stratum_std_dev(&self, h: usize) -> f64 {
        self.strata[h].stats.std_dev()
    }

    /// The stratum-weighted mean `Σ W_h·ȳ_h`.
    ///
    /// Strata with no observations yet are excluded and the weights of
    /// the observed strata renormalized — the collapsed-strata fallback;
    /// the samplers guarantee every stratum holds at least one pilot
    /// observation, so in driven use all weights are the true `W_h`.
    pub fn mean(&self) -> f64 {
        self.observed_strata()
            .map(|(w, s)| w * s.stats.mean())
            .sum()
    }

    /// The strata with observations, each with its weight `W_h`
    /// renormalized over them.
    fn observed_strata(&self) -> impl Iterator<Item = (f64, &Stratum)> {
        let observed = self.strata.iter().filter(|s| s.stats.count() > 0);
        let population: u64 = observed.clone().map(|s| s.population).sum();
        observed.map(move |s| (s.population as f64 / population as f64, s))
    }

    /// Pooled sample variance over all observations, used as the
    /// stand-in `s_h²` for strata with fewer than two observations.
    fn pooled_variance(&self) -> f64 {
        let mut all = RunningStats::new();
        for s in &self.strata {
            all.merge(&s.stats);
        }
        all.variance()
    }

    /// Estimated variance of the stratified mean,
    /// `Σ W_h²·(s_h²/n_h)·(1 − n_h/N_h)`.
    pub fn variance_of_mean(&self) -> f64 {
        let pooled = self.pooled_variance();
        self.observed_strata()
            .map(|(w, s)| {
                let n = s.stats.count();
                let s2 = if n >= 2 { s.stats.variance() } else { pooled };
                let fpc = (1.0 - n as f64 / s.population as f64).max(0.0);
                w * w * s2 / n as f64 * fpc
            })
            .sum()
    }

    /// Relative half-width `ε̂ = z·√Var(μ̂) / |μ̂|` of the confidence
    /// interval at the given level; `+∞` when the mean is zero.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InsufficientSample`] before any observation.
    pub fn relative_half_width(&self, confidence: Confidence) -> Result<f64, StatsError> {
        let n = self.sample_size();
        if n == 0 {
            return Err(StatsError::InsufficientSample {
                required: 1,
                actual: 0,
            });
        }
        let mean = self.mean();
        if mean == 0.0 {
            return Ok(f64::INFINITY);
        }
        Ok(confidence.z() * self.variance_of_mean().sqrt() / mean.abs())
    }

    /// Whether the accumulated sample achieves a `±epsilon` relative
    /// interval at the given level.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidErrorTarget`] for `epsilon ≤ 0` and
    /// propagates [`StratifiedEstimator::relative_half_width`] errors.
    pub fn meets(&self, epsilon: f64, confidence: Confidence) -> Result<bool, StatsError> {
        if !epsilon.is_finite() || epsilon <= 0.0 {
            return Err(StatsError::InvalidErrorTarget(epsilon));
        }
        Ok(self.relative_half_width(confidence)? <= epsilon)
    }
}

/// Neyman allocation: distributes `total` sampling units across strata
/// proportionally to `N_h·s_h`, the allocation that minimizes the
/// stratified variance at a fixed total.
///
/// Every stratum receives at least one unit (so the stratified mean
/// stays defined) and never more than its population `N_h`; rounding is
/// resolved by largest remainder. When every `s_h` is zero the
/// allocation falls back to proportional-to-`N_h`. If `total` exceeds
/// the population, everything is allocated.
///
/// # Errors
///
/// Returns [`StatsError::ZeroDesignParameter`] when `strata` is empty,
/// any `N_h` is zero, or `total` is zero.
pub(crate) fn neyman_allocation(strata: &[(u64, f64)], total: u64) -> Result<Vec<u64>, StatsError> {
    if strata.is_empty() {
        return Err(StatsError::ZeroDesignParameter("strata"));
    }
    if strata.iter().any(|&(n, _)| n == 0) {
        return Err(StatsError::ZeroDesignParameter("stratum population"));
    }
    if total == 0 {
        return Err(StatsError::ZeroDesignParameter("total allocation"));
    }
    let population: u64 = strata.iter().map(|&(n, _)| n).sum();
    let total = total.min(population);

    let mut weights: Vec<f64> = strata.iter().map(|&(n, s)| n as f64 * s.max(0.0)).collect();
    if weights.iter().all(|&w| w == 0.0) {
        for (w, &(n, _)) in weights.iter_mut().zip(strata) {
            *w = n as f64;
        }
    }
    let weight_sum: f64 = weights.iter().sum();

    // Start from the floored ideal share, clamped into [1, N_h]; then
    // hand out the remaining units by largest fractional remainder among
    // strata that still have room.
    let mut alloc: Vec<u64> = Vec::with_capacity(strata.len());
    let mut remainders: Vec<(usize, f64)> = Vec::with_capacity(strata.len());
    for (h, (&(n_h, _), &w)) in strata.iter().zip(&weights).enumerate() {
        let ideal = total as f64 * w / weight_sum;
        let base = (ideal.floor() as u64).clamp(1, n_h);
        alloc.push(base);
        remainders.push((h, ideal - ideal.floor()));
    }
    // Deterministic order: remainder descending, stratum index ascending.
    remainders.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
    let mut assigned: u64 = alloc.iter().sum();
    while assigned < total {
        let mut progressed = false;
        for &(h, _) in &remainders {
            if assigned == total {
                break;
            }
            if alloc[h] < strata[h].0 {
                alloc[h] += 1;
                assigned += 1;
                progressed = true;
            }
        }
        if !progressed {
            break; // every stratum saturated
        }
    }
    // The minimum-one clamp can overshoot a tiny total; shave the excess
    // from the largest allocations (never below one).
    while assigned > total {
        let (h, _) = alloc
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0)))
            .expect("non-empty");
        if alloc[h] <= 1 {
            break;
        }
        alloc[h] -= 1;
        assigned -= 1;
    }
    Ok(alloc)
}

/// A deterministic 1-D clustering of values into at most `k` groups.
#[derive(Debug, Clone)]
pub(crate) struct Clustering {
    /// Cluster label of each input value, `0 ≤ label < centers.len()`.
    pub labels: Vec<usize>,
    /// Cluster centers in ascending order; empty clusters are dropped,
    /// so `centers.len()` may be below the requested `k`.
    pub centers: Vec<f64>,
}

/// Clusters scalar values into at most `k` groups with Lloyd's
/// algorithm, deterministically: centers start at the `(2i+1)/2k`
/// quantiles of the sorted values, assignment ties break toward the
/// lower center, and iteration stops at a fixed point (or after 64
/// rounds). No randomness is involved, so identical inputs always
/// produce identical strata.
///
/// # Errors
///
/// Returns [`StatsError::ZeroDesignParameter`] when `values` is empty or
/// `k` is zero, and [`StatsError::InvalidVariation`] on non-finite
/// values.
pub(crate) fn cluster_1d(values: &[f64], k: usize) -> Result<Clustering, StatsError> {
    if values.is_empty() {
        return Err(StatsError::ZeroDesignParameter("values"));
    }
    if k == 0 {
        return Err(StatsError::ZeroDesignParameter("clusters"));
    }
    if let Some(&bad) = values.iter().find(|v| !v.is_finite()) {
        return Err(StatsError::InvalidVariation(bad));
    }
    let k = k.min(values.len());

    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let mut centers: Vec<f64> = (0..k)
        .map(|i| sorted[(2 * i + 1) * sorted.len() / (2 * k)])
        .collect();
    centers.dedup();

    let assign = |centers: &[f64], value: f64| -> usize {
        let mut best = 0;
        let mut best_d = f64::INFINITY;
        for (c, &center) in centers.iter().enumerate() {
            let d = (value - center).abs();
            if d < best_d {
                best_d = d;
                best = c;
            }
        }
        best
    };

    let mut labels: Vec<usize> = values.iter().map(|&v| assign(&centers, v)).collect();
    for _ in 0..64 {
        let mut sums = vec![0.0f64; centers.len()];
        let mut counts = vec![0u64; centers.len()];
        for (&v, &l) in values.iter().zip(&labels) {
            sums[l] += v;
            counts[l] += 1;
        }
        for (c, center) in centers.iter_mut().enumerate() {
            if counts[c] > 0 {
                *center = sums[c] / counts[c] as f64;
            }
        }
        let next: Vec<usize> = values.iter().map(|&v| assign(&centers, v)).collect();
        if next == labels {
            break;
        }
        labels = next;
    }

    // Drop empty clusters and renumber labels in ascending-center order.
    let mut used: Vec<usize> = {
        let mut seen = vec![false; centers.len()];
        for &l in &labels {
            seen[l] = true;
        }
        (0..centers.len()).filter(|&c| seen[c]).collect()
    };
    used.sort_by(|&a, &b| centers[a].partial_cmp(&centers[b]).unwrap());
    let mut remap = vec![usize::MAX; centers.len()];
    for (new, &old) in used.iter().enumerate() {
        remap[old] = new;
    }
    Ok(Clustering {
        labels: labels.into_iter().map(|l| remap[l]).collect(),
        centers: used.into_iter().map(|c| centers[c]).collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampler::SplitMix64;

    #[test]
    fn fpc_tightens_the_interval() {
        // One stratum of 40 with 30 measured: the same mean as the plain
        // estimator, and an interval narrower than its `z·V̂/√n`.
        let mut with = StratifiedEstimator::new(&[40]).unwrap();
        let mut plain = RunningStats::new();
        for i in 0..30 {
            let v = 1.0 + (i % 7) as f64 * 0.1;
            with.observe(0, v);
            plain.push(v);
        }
        let simple = crate::SampleEstimate::from_stats(&plain);
        assert!((with.mean() - simple.mean()).abs() < 1e-15);
        let conf = Confidence::NINETY_FIVE;
        assert!(with.relative_half_width(conf).unwrap() < simple.achieved_epsilon(conf).unwrap());
    }

    /// Ground-truth coverage: on random two-phase populations, the
    /// stratified mean must land within its own CI at (at least) the
    /// stated confidence. 95% nominal over 400 trials has σ ≈ 1.1%, so
    /// requiring ≥ 90% observed coverage is a > 4σ-lenient bound.
    #[test]
    fn stratified_ci_covers_population_truth() {
        let mut rng = SplitMix64::new(0x5EED_CAFE);
        let conf = Confidence::NINETY_FIVE;
        let trials = 400;
        let mut hits = 0;
        for _ in 0..trials {
            // Two phases with different means/spreads, as a phased
            // workload's CPI would produce.
            let n_a = 400 + (rng.next_u64() % 200) as usize;
            let n_b = 400 + (rng.next_u64() % 200) as usize;
            let pop_a: Vec<f64> = (0..n_a).map(|_| 1.0 + 0.2 * rng.next_f64()).collect();
            let pop_b: Vec<f64> = (0..n_b).map(|_| 3.0 + 0.6 * rng.next_f64()).collect();
            let truth =
                (pop_a.iter().sum::<f64>() + pop_b.iter().sum::<f64>()) / (n_a + n_b) as f64;

            let mut est = StratifiedEstimator::new(&[n_a as u64, n_b as u64]).unwrap();
            // SRS of 25 from each stratum, without replacement.
            for (h, pop) in [(0usize, &pop_a), (1usize, &pop_b)] {
                let mut idx: Vec<usize> = (0..pop.len()).collect();
                for i in 0..25 {
                    let j = i + (rng.next_u64() as usize) % (idx.len() - i);
                    idx.swap(i, j);
                    est.observe(h, pop[idx[i]]);
                }
            }
            let half = est.relative_half_width(conf).unwrap() * est.mean().abs();
            if (est.mean() - truth).abs() <= half {
                hits += 1;
            }
        }
        let coverage = hits as f64 / trials as f64;
        assert!(coverage >= 0.90, "coverage {coverage} below 0.90");
    }

    /// Neyman allocation on a high-contrast population beats
    /// proportional allocation's variance.
    #[test]
    fn neyman_beats_proportional_variance() {
        let strata = [(1000u64, 0.05f64), (1000, 1.0)];
        let neyman = neyman_allocation(&strata, 100).unwrap();
        assert_eq!(neyman.iter().sum::<u64>(), 100);
        // Nearly everything goes to the noisy stratum.
        assert!(neyman[1] > 90, "allocation {neyman:?}");
        let var = |alloc: &[u64]| -> f64 {
            strata
                .iter()
                .zip(alloc)
                .map(|(&(n, s), &a)| {
                    let w = n as f64 / 2000.0;
                    w * w * s * s / a as f64
                })
                .sum()
        };
        assert!(var(&neyman) < var(&[50, 50]));
    }

    #[test]
    fn allocation_respects_caps_and_minimums() {
        let alloc = neyman_allocation(&[(3, 10.0), (1000, 0.001)], 50).unwrap();
        assert_eq!(alloc.iter().sum::<u64>(), 50);
        assert!(alloc[0] <= 3);
        assert!(alloc.iter().all(|&a| a >= 1));

        // Zero spreads fall back to proportional.
        let flat = neyman_allocation(&[(100, 0.0), (300, 0.0)], 40).unwrap();
        assert_eq!(flat, vec![10, 30]);

        // Total beyond the population allocates everything.
        let all = neyman_allocation(&[(5, 1.0), (7, 2.0)], 1000).unwrap();
        assert_eq!(all, vec![5, 7]);

        assert!(neyman_allocation(&[], 10).is_err());
        assert!(neyman_allocation(&[(0, 1.0)], 10).is_err());
        assert!(neyman_allocation(&[(10, 1.0)], 0).is_err());
    }

    #[test]
    fn cluster_1d_separates_well_separated_modes() {
        let mut values = Vec::new();
        for i in 0..50 {
            values.push(1.0 + (i % 5) as f64 * 0.01);
            values.push(4.0 + (i % 7) as f64 * 0.01);
        }
        let clustering = cluster_1d(&values, 2).unwrap();
        assert_eq!(clustering.centers.len(), 2);
        assert!(clustering.centers[0] < 2.0 && clustering.centers[1] > 3.0);
        for (&v, &l) in values.iter().zip(&clustering.labels) {
            assert_eq!(l, usize::from(v > 2.5), "value {v} mislabelled");
        }
        // Determinism: same input, same output.
        let again = cluster_1d(&values, 2).unwrap();
        assert_eq!(again.labels, clustering.labels);
    }

    #[test]
    fn cluster_1d_handles_degenerate_inputs() {
        let constant = cluster_1d(&[2.0; 10], 4).unwrap();
        assert_eq!(constant.centers.len(), 1);
        assert!(constant.labels.iter().all(|&l| l == 0));

        let fewer = cluster_1d(&[1.0, 9.0], 5).unwrap();
        assert!(fewer.centers.len() <= 2);

        assert!(cluster_1d(&[], 3).is_err());
        assert!(cluster_1d(&[1.0], 0).is_err());
        assert!(cluster_1d(&[f64::NAN], 2).is_err());
    }

    #[test]
    fn empty_estimator_reports_insufficient_sample() {
        let est = StratifiedEstimator::new(&[10, 20]).unwrap();
        assert_eq!(est.sample_size(), 0);
        assert!(est.relative_half_width(Confidence::NINETY_FIVE).is_err());
        assert!(StratifiedEstimator::new(&[]).is_err());
        assert!(StratifiedEstimator::new(&[5, 0]).is_err());
    }
}
